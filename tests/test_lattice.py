import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    IDENTITY_MAP,
    INVERSION,
    circle_coefficients,
    compose,
    gauge_reference,
    integer_combination,
    record_builds,
    sigma_product_oracle,
    theta1_values_reference,
    translation,
)
import sigmakit.lattice
import sigmakit.modular
from sigmakit import (
    Classification,
    ConvergenceError,
    DomainError,
    Lattice,
    NumericError,
    OddFunctionHandle,
    TauPoint,
    UnimodularMap,
    dedekind_eta,
    identity_report,
    invert_j,
    j_invariant,
    lattice_from_rho_tau,
    modular_discriminant,
    modular_pq,
    normalize_lattice,
    reduce_tau,
    sigma_eval,
    sigma_gauge,
    synthesize,
    theta1_eval,
    weierstrass_g,
)
from sigmakit.identity import _arguments, _draw_quadruples

CORNER = 0.5 + 1j * math.sqrt(3) / 2


def inverse(m):
    return UnimodularMap(m.d, -m.b, -m.c, m.a)


def normalized(m):
    """Canonical sign: c > 0, or c == 0 and d > 0 (M and -M act alike)."""
    if m.c < 0 or (m.c == 0 and m.d < 0):
        return UnimodularMap(-m.a, -m.b, -m.c, -m.d)
    return m


def random_unimodular(rng, words=6):
    m = IDENTITY_MAP
    for _ in range(words):
        if rng.uniform() < 0.5:
            m = compose(translation(int(rng.integers(-3, 4))), m)
        else:
            m = compose(INVERSION, m)
    return m


class TestUnimodularMap:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            UnimodularMap(1, 0, 0, -1)

    def test_compose_matches_apply(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m1 = random_unimodular(rng)
            m2 = random_unimodular(rng)
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
            lhs = compose(m1, m2).apply(tau)
            rhs = m1.apply(m2.apply(tau))
            assert abs(lhs - rhs) < 1e-12 * max(1, abs(rhs))

    def test_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_unimodular(rng)
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
            assert compose(m, inverse(m)) == IDENTITY_MAP
            assert abs(inverse(m).apply(m.apply(tau)) - tau) < 1e-12


class TestReduceTau:
    def test_translation_only(self):
        reduced, m = reduce_tau(5 + 1j)
        assert abs(reduced.value - 1j) < 1e-15
        assert m == UnimodularMap(1, -5, 0, 1)

    def test_inversion_only(self):
        reduced, m = reduce_tau(0.5j)
        assert abs(reduced.value - 2j) < 1e-15
        assert normalized(m) == normalized(INVERSION)

    def test_j_equality_oracle(self):
        tau = 0.3 + 0.1j
        reduced, m = reduce_tau(tau)
        assert abs(m.apply(tau) - reduced.value) < 1e-12
        j_in = j_invariant(tau)
        j_out = j_invariant(reduced)
        assert abs(j_in - j_out) <= 1e-8 * max(1.0, abs(j_out))

    def test_domain_membership(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            reduced, m = reduce_tau(tau)
            t = reduced.value
            assert -0.5 - 1e-12 <= t.real < 0.5
            assert abs(t) >= 1 - 1e-12
            if abs(abs(t) - 1) <= 1e-12:
                assert t.real <= 1e-12
            assert abs(m.apply(tau) - t) < 1e-9 * max(1, abs(t))

    def test_roundtrip_with_random_maps(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            # Interior points: stay off the domain boundary so the
            # representative is unique.
            tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0))
            m = random_unimodular(rng)
            moved = m.apply(tau)
            reduced, back = reduce_tau(moved)
            assert abs(reduced.value - tau) < 1e-10
            assert normalized(back) == normalized(inverse(m))

    def test_corner_tie_break(self):
        # Both corners represent the same orbit; the convention keeps the
        # left one.
        reduced, _ = reduce_tau(CORNER)
        assert abs(reduced.value - (CORNER - 1)) < 1e-12

    def test_point_just_left_of_the_left_edge(self):
        # The floor moves it right by 1 to 0.4999999999999997; the
        # right-edge tie-break must not move it back outside the domain.
        tau = -0.5000000000000003 + 1.2j
        reduced, m = reduce_tau(tau)
        assert -0.5 <= reduced.value.real < 0.5
        assert m == translation(1)
        assert reduced.value == m.apply(tau)

    @pytest.mark.parametrize("x", [2.0**52 + 1, -(2.0**52 + 1), 2.0**53 - 1, 2.0**52 + 2,
                                   2.0**53 + 2, -1e300])
    def test_integral_real_part(self, x):
        # From 2^52 up floor(x + 1/2) rounds an odd x to its even neighbour
        # and left tau at Re = -1; every such x is an integer.
        tau = complex(x, 2.0)
        reduced, m = reduce_tau(tau)
        assert reduced.value == 2j
        assert m == translation(-int(x))
        assert m.apply(tau) == reduced.value

    @pytest.mark.parametrize("k", [0, 1, -1, 3, -3, 2**20, -(2**20), 2**51])
    @pytest.mark.parametrize("imag", [2.0, 1.0, 0.9])
    def test_half_integer_neighbours_need_no_edge_fold(self, k, imag):
        # The floor step alone leaves Re below 1/2 next to every k +- 1/2.
        for edge in (k - 0.5, k + 0.5):
            for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                tau = complex(x, imag)
                reduced, m = reduce_tau(tau)
                assert -0.5 <= reduced.value.real < 0.5
                assert m.apply(tau) == reduced.value


def reduce_tau_by_compose(tau):
    """``reduce_tau`` as it was written with one map composition per fold."""
    t = start = complex(tau)
    m = IDENTITY_MAP
    for _ in range(256):
        n = math.floor(t.real + 0.5)
        if n != 0:
            t -= n
            m = compose(translation(-n), m)
        if abs(t) * abs(t) < 1.0 - 1e-15:
            t = -1.0 / t
            m = compose(INVERSION, m)
            if not cmath.isfinite(t):
                raise NumericError(
                    f"reducing tau={start} inverts it beyond the double range",
                    diagnostics={"tau": [start.real, start.imag]},
                )
        else:
            break
    else:
        raise ConvergenceError(
            "fundamental-domain reduction did not terminate",
            diagnostics={"tau": [start.real, start.imag]},
        )
    if t.real >= 0.5:
        t -= 1
        m = compose(translation(-1), m)
    if abs(abs(t) - 1.0) <= 1e-15 and t.real > 1e-15:
        t = -1.0 / t
        m = compose(INVERSION, m)
    return TauPoint(t), m


# The SL(2, Z) basis changes of the point_eval benchmark.
BASIS_CHANGES = ((1, 0, 0, 1), (0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1),
                 (1, -1, 1, 0), (2, 1, 1, 1), (1, 2, 1, 3), (0, 1, -1, 2))


def reduction_taus():
    """About 2500 seeded tau: interior points moved by each basis change in
    both orientations, the ties at Re = +-1/2 and on the unit circle with
    their translates, and tau down to Im 1e-300 and below."""
    rng = np.random.default_rng(19)
    taus = []
    for _ in range(100):
        x = rng.uniform(-0.48, 0.48)
        tau = complex(x, math.sqrt(1 - x * x) + rng.choice([0.01, 0.3, 2.0]) * rng.uniform())
        for a, b, c, d in BASIS_CHANGES:
            taus += [(a * tau + b) / (c * tau + d), -(c * tau + d) / (a * tau + b)]
    ties = [complex(-0.5, math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2), 1j]
    for _ in range(60):
        x = rng.uniform(-0.5, 0.5)
        ties += [complex(math.copysign(0.5, x), rng.uniform(0.5, 3)),
                 complex(x, math.sqrt(1 - x * x))]
    taus += [tau + n for tau in ties for n in (0, 1, -1, 3)]
    for k in rng.integers(1, 301, 400):
        taus.append(complex(rng.uniform(-3, 3), 10.0 ** -int(k)))
    # Inversions beyond the double range raise NumericError.
    taus += [complex(x, 10.0 ** -k) for x in (0, 0.5, -1, 2) for k in range(305, 324)]
    return taus


def reduction_outcome(reduce, tau):
    try:
        reduced, m = reduce(tau)
    except (NumericError, ConvergenceError) as err:
        return type(err), str(err), err.diagnostics
    # repr tells the signs of zeros apart and round-trips every double.
    return TauPoint, repr(reduced.value), m, tuple(map(type, m))


def test_reduce_tau_is_bit_identical_to_composed_maps():
    outcomes = [(reduction_outcome(reduce_tau, tau), reduction_outcome(reduce_tau_by_compose, tau))
                for tau in reduction_taus()]
    assert len(outcomes) > 1900
    assert all(new == old for new, old in outcomes)
    # No finite tau needs 256 folds, since the continued fraction of a
    # double ends first; so no ConvergenceError case arises to compare.
    errors = [new[0] for new, _ in outcomes if new[0] is not TauPoint]
    assert errors and set(errors) == {NumericError}


class TestNormalizeLattice:
    @pytest.mark.parametrize("tau", [1e-320j, 1e-320 + 1e-320j, 0.5 + 1e-320j])
    def test_inversion_beyond_double_range_is_numeric_error(self, tau):
        with pytest.raises(NumericError) as err:
            reduce_tau(tau)
        assert err.value.diagnostics["tau"] == [tau.real, tau.imag]

    @pytest.mark.parametrize("w1, w2", [(math.inf, 1j), (1, complex(0, math.nan)),
                                        (complex(1, -math.inf), 1j)])
    def test_non_finite_generator_is_domain_error(self, w1, w2):
        with pytest.raises(DomainError) as err:
            normalize_lattice(w1, w2)
        assert str(err.value) == "lattice generators must be finite"

    def test_zero_rho_is_domain_error(self):
        with pytest.raises(DomainError) as err:
            lattice_from_rho_tau(0, 1j)
        assert str(err.value) == "rho must be nonzero"

    def test_already_normalized(self):
        lat = normalize_lattice(1, 1j)
        assert lat.rho == 1
        assert abs(lat.tau.value - 1j) < 1e-15
        assert not lat.orientation_flipped

    def test_common_scale(self):
        lat = normalize_lattice(2, 2j)
        assert lat.rho == 2
        assert abs(lat.tau.value - 1j) < 1e-15

    def test_orientation_swap(self):
        # (i, 1): the ratio 1/i lies in the lower half-plane, so the
        # second generator is negated; the same point set results.
        lat = normalize_lattice(1j, 1)
        assert lat.orientation_flipped
        assert abs(lat.rho - 1j) < 1e-15
        assert abs(lat.tau.value - 1j) < 1e-15
        mn = integer_combination(lat.rho, 1j, 1.0)
        assert np.allclose(mn, np.round(mn), atol=1e-9)

    def test_point_set_regeneration(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            w1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs((w2 / w1).imag) < 0.05:
                continue
            lat = normalize_lattice(w1, w2)
            # Every normalized lattice point must be an integer combination
            # of the originals, and the originals of the normalized pair.
            for mm in range(-2, 3):
                for nn in range(-2, 3):
                    point = mm * lat.rho + nn * lat.rho * lat.tau.value
                    mn = integer_combination(point, w1, w2)
                    assert np.allclose(mn, np.round(mn), atol=1e-8)
            for point in (w1, w2):
                mn = integer_combination(point, lat.rho, lat.rho * lat.tau.value)
                assert np.allclose(mn, np.round(mn), atol=1e-8)

    def test_ratio_whose_division_overflows_inside(self):
        # w2/w1 is -i, but CPython's complex division overflows on the way to
        # nan*i; with both generators scaled by 2^-1024 it divides exactly.
        w1, w2 = complex(1.7e308, 1.7e308), complex(1.7e308, -1.7e308)
        lat = normalize_lattice(w1, w2)
        assert (lat.rho, lat.tau.value, lat.orientation_flipped) == (w1, 1j, True)
        assert lat.reduction == UnimodularMap(1, 0, 0, 1)
        # z/rho overflows the same way, to 0 for every z, so sigma has no gauge.
        assert 1 / lat.rho == 0
        with pytest.raises(NumericError, match="sigma gauge"):
            sigma_eval(0.3, lat)

    def test_ratio_past_the_largest_modulus(self):
        # |w2/w1| is beyond the largest double, so abs(ratio) raised a bare
        # OverflowError; the collinearity check reads the halved ratio.
        lat = normalize_lattice(1, complex(1.7e308, 1.7e308))
        assert (lat.rho, lat.tau.value) == (1, 1.7e308j)
        with pytest.raises(DomainError, match="collinear"):
            normalize_lattice(1, complex(1.7e308, 1e290))

    def test_collinear_rejected(self):
        with pytest.raises(DomainError):
            normalize_lattice(1 + 1j, -2 - 2j)
        with pytest.raises(DomainError):
            normalize_lattice(1, 0)


def trusted_path_taus():
    """About 2300 seeded tau across the upper half-plane: |Re| up to 1e6 and
    Im from 1e-6 to 1e3, the unit circle with its ties and both corners, with
    translates, and real parts of -0.0 in and below the domain."""
    rng = np.random.default_rng(22)
    taus = [complex(rng.uniform(-1e6, 1e6) * rng.choice([1, 1e-3, 1e-6, 0.0]),
                    10.0 ** rng.uniform(-6, 3)) for _ in range(1500)]
    ties = [complex(-0.5, math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2), 1j]
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5)
        ties += [complex(x, math.sqrt(1 - x * x)),
                 complex(math.copysign(0.5, x), rng.uniform(0.5, 3))]
    taus += [tau + n for tau in ties for n in (0, 1, -1, 7)]
    taus += [complex(-0.0, y) for y in (1e-6, 0.3, 0.5, 1.0, 1.7, 1e3)]
    return taus


def hex_bits(z):
    """The bits of a complex value, the signs of zeros included."""
    return z.real.hex(), z.imag.hex()


def survey_lattices(seed):
    """(lattice, box radius) shaped like a sigma survey's: tau generic, high, near
    the corner and on the unit-circle arc, box radius 1 to 5 and |rho| = box over
    a factor in [0.5, 2.5]."""
    rng = np.random.default_rng(seed)
    taus = (lambda: complex(rng.uniform(-0.45, 0.45), rng.uniform(1.0, 1.6)),
            lambda: complex(rng.uniform(-0.5, 0.49), rng.uniform(2.0, 3.0)),
            lambda: CORNER - 1 + cmath.rect(rng.uniform(0, 0.01), rng.uniform(0.6, 1.5)),
            lambda: cmath.exp(1j * rng.uniform(math.pi / 2, 2 * math.pi / 3)))
    return [(lattice_from_rho_tau(cmath.rect(box / rng.uniform(0.5, 2.5),
                                             rng.uniform(-math.pi, math.pi)), tau()), box)
            for tau in taus for box in (1, 2, 3, 4, 5)]


def exact_apply(m, tau):
    """m.apply(tau) in exact rational arithmetic, rounded once."""
    x, y = Fraction(tau.real), Fraction(tau.imag)
    nr, ni, dr, di = m.a * x + m.b, m.a * y, m.c * x + m.d, m.c * y
    den = dr * dr + di * di
    return complex((nr * dr + ni * di) / den, (ni * dr - nr * di) / den)


def assert_checked_constructors_agree(reduced, m, tau):
    """reduced and m are what TauPoint and UnimodularMap build from their
    fields, and m takes tau to reduced."""
    assert type(reduced) is TauPoint and type(m) is UnimodularMap
    assert hex_bits(TauPoint(reduced.value).value) == hex_bits(reduced.value)
    assert UnimodularMap(*m) == m and all(type(entry) is int for entry in m)
    # The folds round; over this draw they move tau by 7e-11 relative at most.
    assert abs(exact_apply(m, tau) - reduced.value) <= 1e-9 * abs(reduced.value)


class TestTrustedConstruction:
    # reduce_tau and normalize_lattice build their TauPoint and UnimodularMap
    # unchecked from values the reduction has proven valid; the checked
    # constructors must agree bit for bit.
    def test_reduce_tau_builds_what_the_constructors_build(self):
        taus = trusted_path_taus()
        assert len(taus) > 2000
        for tau in taus:
            reduced, m = reduce_tau(tau)
            assert_checked_constructors_agree(reduced, m, tau)
            assert -0.5 <= reduced.value.real < 0.5 and abs(reduced.value) >= 1 - 1e-15

    def test_normalize_lattice_builds_what_reduce_tau_builds(self):
        for tau in trusted_path_taus():
            for w1 in (1.0, 0.6 - 0.8j):
                # The conjugate ratio is flipped, which turns a real part of
                # +0.0 into -0.0.
                for w2 in (w1 * tau, w1 * tau.conjugate()):
                    ratio = w2 / w1
                    if abs(ratio.imag) <= 1e-14 * abs(ratio):
                        continue
                    lat = normalize_lattice(w1, w2)
                    flipped = ratio.imag < 0
                    ratio = -ratio if flipped else ratio
                    reduced, m = reduce_tau(ratio)
                    assert hex_bits(lat.tau.value) == hex_bits(reduced.value)
                    assert lat.reduction == m and lat.orientation_flipped is flipped
                    assert_checked_constructors_agree(lat.tau, lat.reduction, ratio)
                    assert hex_bits(lat.rho) == hex_bits(w1 * (m.c * ratio + m.d))
                    assert lat == Lattice(omega1=w1, omega2=w2, rho=lat.rho, tau=reduced,
                                          reduction=m, orientation_flipped=flipped)

    @pytest.mark.parametrize("w1, w2, message", [
        (math.inf, 1j, "lattice generators must be finite"),
        (1, complex(0, math.nan), "lattice generators must be finite"),
        (0, 1j, "lattice generators must be nonzero"),
        (1j, -0.0, "lattice generators must be nonzero"),
        (1 + 1j, -2 - 2j, "generators are collinear over the reals"),
        (1, 1 + 1e-15j, "generators are collinear over the reals"),
        # w2/w1 overflows to inf + inf*i, which counts as collinear.
        (1e-300, 1e300 + 1e300j, "generators are collinear over the reals"),
        (5e-324, 1, "generators are collinear over the reals"),
        # w2/w1 = 1e320i overflows to an infinite imaginary part.
        (1e-300, 1e20j, "tau must be finite"),
    ])
    def test_rejected_generators_keep_their_messages(self, w1, w2, message):
        with pytest.raises(DomainError) as err:
            normalize_lattice(w1, w2)
        assert str(err.value) == message

    @pytest.mark.parametrize("tau, message", [
        (complex(math.nan, 1), "tau must be finite"),
        (complex(0, math.inf), "tau must be finite"),
        (complex(0.3, -0.0), "tau must satisfy Im(tau) > 0, got (0.3-0j)"),
        (complex(0, -2), "tau must satisfy Im(tau) > 0, got -2j"),
    ])
    def test_rejected_tau_keeps_its_message(self, tau, message):
        for call in (TauPoint, reduce_tau, lambda t: lattice_from_rho_tau(1, t)):
            with pytest.raises(DomainError) as err:
                call(tau)
            assert str(err.value) == message


class TestHandBuiltLatticeGauge:
    # A hand-built lattice below Im tau = 1/2 has more factors than any
    # reduced one (five at most).  Its gauge, read from the e0 and e1 that the
    # record of tau maps back from the modular inversion's s, is within the
    # rounding of the terms that theta1'(0) and theta1'(0)*kappa sum, which
    # cancel at 0.02i; its sigma is summed in the gauge's frame, at the cell
    # of s, bit for bit as the reference kernel sums it there.
    @pytest.mark.parametrize("tau, factors", [(0.3j, 7), (0.02j, 27)])
    @pytest.mark.parametrize("rho", [1.0, 0.8 - 0.6j])
    def test_gauge_and_sigma_keep_their_bits(self, tau, factors, rho):
        lat = Lattice(rho, rho * tau, rho, TauPoint(tau), UnimodularMap(1, 0, 0, 1), False)
        table = sigmakit.modular._theta1_table(TauPoint(tau), 1)
        assert len(table) == factors
        kappa, scale, frame = lat.gauge
        assert frame[0] == -1 / tau and frame[1] == TauPoint(-1 / tau)._theta1[0]
        old_kappa, old_beta, old_scale = gauge_reference(lat)
        w = [(2 * k + 1) * math.pi for k in range(factors)]
        th1, old_th1 = rho / scale, rho / old_scale
        assert abs(th1 - old_th1) <= 1e-15 * sum(abs(c) * x for c, x in zip(table, w))
        assert (abs(kappa * th1 - old_kappa * old_th1)
                <= 1e-15 * sum(abs(c) * x**3 for c, x in zip(table, w)) / 6)
        # sigma_gauge forms beta as the reference does, log(rho/theta1'(0)), at
        # the gauge's own theta1'(0), so within the rounding of theta1'(0).
        beta = sigma_gauge(lat)[1]
        assert beta == cmath.log(scale)
        assert (abs(beta - old_beta)
                <= 2e-15 * sum(abs(c) * x for c, x in zip(table, w)) / abs(th1))
        for z in (0.1 + 0.05j, -0.37 + 0.011j, 0.25 * rho):
            want = theta1_values_reference((z,), *frame)[0]
            assert hex_bits(sigma_eval(z, lat)) == hex_bits(want)


class TestLatticeFromG:
    @pytest.mark.parametrize("scale", [1e-40, 1.0, 1e40])
    @pytest.mark.parametrize("tau", [0.3 + 1.1j, CORNER - 1 + 1e-6j, 1j + 1e-7, 2.5j])
    def test_invariants_come_back_at_every_scale(self, scale, tau):
        # The roots run on invariants scaled by a power of two, so the cubes
        # of g2 near 1e160 and g3 near 1e240 do not overflow.  rho along i
        # negates g3, which sends the AGM through its sign flip.
        for unit in (0.9 + 0.2j, 1j):
            rho = scale * unit
            want = [g / rho**k for g, k in zip(weierstrass_g(tau), (4, 6))]
            lat = sigmakit.lattice._lattice_from_g(*want)
            got = [g / lat.rho**k for g, k in zip(weierstrass_g(lat.tau), (4, 6))]
            s = max(abs(want[0]) ** 0.25, abs(want[1]) ** (1 / 6))
            assert abs(got[0] - want[0]) <= 1e-14 * s**4
            assert abs(got[1] - want[1]) <= 1e-14 * s**6

    @pytest.mark.parametrize("g", [(0, 0), (12, 8), (math.inf, 1), (1.7e308 + 1.7e308j, 0)])
    def test_no_lattice_is_numeric_error(self, g):
        # 12^3 = 27 * 8^2: the discriminant vanishes; |1.7e308(1 + i)| overflows.
        with pytest.raises(NumericError):
            sigmakit.lattice._lattice_from_g(*g)


class TestInvertJ:
    def test_square_lattice(self):
        tau = invert_j(1728.0)
        assert tau.value.real == 0 and abs(tau.value - 1j) < 1e-12

    def test_corner(self):
        tau = invert_j(0.0)
        assert abs(tau.value - (CORNER - 1)) < 1e-12
        assert -0.5 <= tau.value.real

    def test_cm_point(self):
        tau = invert_j(287496.0)
        assert abs(tau.value - 2j) < 1e-8
        assert abs(j_invariant(tau) - 287496.0) <= 1e-8 * 287496.0

    def test_forward_backward_identity(self):
        # Samples keep their distance from the two critical points, where
        # the derivative of j vanishes and 1e-8 in j cannot pin tau to 1e-6.
        for tau in (0.3 + 1.2j, -0.21 + 1.05j, 1.5j, 0.45 + 1.6j, 2.2j):
            reduced, _ = reduce_tau(tau)
            jval = j_invariant(reduced)
            back = invert_j(jval)
            assert abs(back.value - reduced.value) < 1e-6

    def test_large_complex_modulus(self):
        jval = 1e8 + 1e7j
        tau = invert_j(jval)
        assert abs(j_invariant(tau) - jval) <= 1e-8 * abs(jval)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            invert_j(complex(float("inf"), 0))

    def test_every_huge_finite_value_answers_or_is_numeric_error(self):
        # The scaled invariants of j near the largest double stay in range;
        # |jval| itself overflows beyond it.
        for modulus in (1e300, 1e307, 1e308, 1.4e308, 1.79e308):
            for angle in np.linspace(0, 2 * math.pi, 12, endpoint=False):
                assert invert_j(cmath.rect(modulus, angle)).value.imag > 100
        for jval in (1.7e308 + 1.7e308j, -1.7e308 - 1.7e308j, -1.5e308 + 1.5e308j):
            with pytest.raises(NumericError):
                invert_j(jval)

    def test_round_trip_over_fundamental_domain(self):
        # A grid of the domain, its arc, and points 1e-3 and 3e-4 from the
        # two corners and from i; each must come back as itself or as its
        # mirror across the boundary of the domain.
        left, right = CORNER - 1, CORNER
        taus = [complex(x, math.sqrt(1 - x * x) + y)
                for x in np.linspace(-0.5, 0.49, 12) for y in (0.0, 0.05, 0.4, 1.2, 2.5)]
        taus += [cmath.exp(1j * th) for th in np.linspace(math.pi / 2, 2 * math.pi / 3, 15)]
        for r in (1e-3, 3e-4):
            taus += [left + cmath.rect(r, math.radians(a)) for a in (40, 60, 80)]
            taus += [right + cmath.rect(r, math.radians(a)) for a in (100, 120, 140)]
            taus += [1j + cmath.rect(r, math.radians(a)) for a in (20, 90, 160)]
        for tau in taus:
            t = reduce_tau(tau)[0].value
            jt = j_invariant(t)
            back = invert_j(jt).value
            # j - 1728 is quadratic in tau - i and j cubic in tau - corner, so
            # there the rounding of j(t) itself moves the answer by its root.
            bound = 1e-9
            if abs(t - 1j) <= 1e-15:
                bound += (abs(jt - 1728) / 24827.565) ** 0.5
            elif min(abs(t - left), abs(t - right)) <= 1e-15:
                bound += (abs(jt) / 45745.081) ** (1 / 3)
            assert min(abs(back - m) for m in (t, -1 / t, t + 1, t - 1)) <= bound, (t, back)

    def test_real_j_below_1728_lands_on_the_left_arc(self):
        for jval in np.linspace(1728 / 200, 1728, 199, endpoint=False):
            tau = invert_j(jval).value
            assert tau.real <= 0.0, (jval, tau)
            assert abs(abs(tau) - 1.0) <= 1e-12
            assert abs(j_invariant(tau) - jval) <= 1e-8 * jval

    @pytest.mark.parametrize("jval", [-100.0, -1e6, -1e300])
    def test_negative_real_j_stays_in_the_domain(self, jval):
        # A real negative j puts tau on the edge Re = -1/2.  The ratio of the
        # AGM's periods ends within a rounding error of it, on either side,
        # and invert_j puts it on the edge.
        tau = invert_j(jval).value
        assert tau.real == -0.5
        assert abs(j_invariant(tau) - jval) <= 1e-8 * abs(jval)

    @pytest.mark.parametrize("jval", [2001.0, 1e6, 1e300])
    def test_real_j_above_1728_lands_on_the_imaginary_axis(self, jval):
        # A real j from 1728 up puts tau on the imaginary axis.  The ratio of
        # the AGM's periods ends a rounding error off it (Re tau about 1e-32),
        # and invert_j puts it on the axis.
        tau = invert_j(jval).value
        assert tau.real == 0.0 and tau.imag >= 1
        assert abs(j_invariant(tau) - jval) <= 1e-8 * jval

    def test_where_an_iterate_once_left_for_the_cusp(self):
        # A Newton iterate once jumped from here to Im(tau) ~ 222, where the
        # discriminant underflows.
        jval = 1361.6287913185577
        tau = invert_j(jval)
        assert abs(j_invariant(tau) - jval) <= 1e-8 * jval
        assert abs(tau.value - (-0.12711040306569873 + 0.9918885751093596j)) < 1e-9

    def test_failure_reports_jval_tau_and_residual(self):
        with pytest.raises(ConvergenceError) as err:
            invert_j(2500.0, tolerance=1e-300)
        diagnostics = err.value.diagnostics
        assert set(diagnostics) == {"jval", "tau", "residual"}
        assert diagnostics["jval"] == [2500.0, 0.0]
        tau = complex(*diagnostics["tau"])
        assert abs(j_invariant(tau) - 2500.0) == diagnostics["residual"] <= 1e-8 * 2500.0


class TestSigmaEval:
    def test_normalization_at_origin(self):
        lat = lattice_from_rho_tau(1, 1j)
        assert sigma_eval(0.0, lat) == 0
        for h in (1e-4, 1e-4j):
            ratio = sigma_eval(h, lat) / h
            assert abs(ratio - 1.0) < 1e-10

    def test_derivative_at_origin(self):
        # sigma'(0) = 1; the cubic coefficient vanishes, so the symmetric
        # difference converges like h^4.
        for lat in (lattice_from_rho_tau(1, 1j), normalize_lattice(1.3, 0.4 + 1.2j)):
            h = 1e-4
            deriv = (sigma_eval(h, lat) - sigma_eval(-h, lat)) / (2 * h)
            assert abs(deriv - 1.0) < 1e-10

    def test_odd(self):
        lat = normalize_lattice(1.1, 0.2 + 1.3j)
        rng = np.random.default_rng(15)
        for _ in range(5):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(sigma_eval(z, lat) + sigma_eval(-z, lat)) < 1e-12

    def test_vanishes_on_lattice(self):
        for lat in (lattice_from_rho_tau(1, 1j), normalize_lattice(1.2, 0.3 + 1.1j)):
            tau = lat.tau.value
            for lam in (lat.rho, lat.rho * tau, lat.rho * (1 + tau)):
                assert abs(sigma_eval(lam, lat)) < 1e-9

    def test_gauge_relation(self):
        # sigma(z) = theta1(z/rho, tau) * exp(alpha*z^2 + beta) with the
        # pair reported by sigma_gauge.
        lat = normalize_lattice(1.2, 0.3 + 1.1j)
        alpha, beta = sigma_gauge(lat)
        for z in (0.4 + 0.1j, -0.2 + 0.3j):
            via_gauge = theta1_eval(z / lat.rho, lat.tau) * cmath.exp(
                alpha * z * z + beta
            )
            direct = sigma_eval(z, lat)
            assert abs(via_gauge - direct) <= 1e-12 * abs(direct)

    def test_taylor_coefficients_match_lattice_forms(self):
        # a3 ~ 0, a5 = -g2/240, a7 = -g3/840 with g2, g3 scaled by rho.
        for rho, tau in ((1, 2j), (1, 0.3 + 1.1j), (0.8 + 0.1j, -0.2 + 1.4j)):
            lat = lattice_from_rho_tau(rho, tau)
            g2, g3 = weierstrass_g(lat.tau)
            g2 /= lat.rho**4
            g3 /= lat.rho**6
            coeffs = circle_coefficients(lambda z: sigma_eval(z, lat), 8, radius=0.3)
            assert abs(coeffs[1] - 1.0) < 1e-9
            assert abs(coeffs[3]) < 1e-9
            assert abs(coeffs[5] + g2 / 240) <= 1e-6 * abs(g2 / 240)
            assert abs(coeffs[7] + g3 / 840) <= 1e-6 * abs(g3 / 840)


    def test_gauge_computed_once_per_lattice(self, monkeypatch):
        # The gauge is built once per lattice, from e0 and e1 of the one
        # degree-1 sum that theta1's sums read, in the record of tau: the record's
        # head and sum are built once, on one factor table, and no coefficient
        # series is.
        calls = {"gauge": 0, "theta1_odd_series": 0, "_theta1_table": 0}
        kept = vars(Lattice)["gauge"]

        def gauge(lat, _func=kept.func):
            calls["gauge"] += 1
            return _func(lat)

        monkeypatch.setattr(kept, "func", gauge)
        for name in ("theta1_odd_series", "_theta1_table"):
            original = getattr(sigmakit.modular, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (sigmakit.modular, sigmakit.lattice):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        builds = record_builds(monkeypatch)
        for lat in (lattice_from_rho_tau(1, 1j), normalize_lattice(1.2, 0.3 + 1.1j)):
            calls.update(dict.fromkeys(calls, 0))
            builds.clear()
            identity_report(OddFunctionHandle.from_sigma(lat), num_samples=12,
                            seed=5, box_radius=2.0)
            for z in (0.4 + 0.1j, -1.3 + 0.7j):
                sigma_eval(z, lat)
            sigma_gauge(lat)
            assert calls == {"gauge": 1, "theta1_odd_series": 0, "_theta1_table": 1}
            assert builds == {"_head": 1, "_theta1": 1}
            assert lat.gauge[2] == (lat.tau.value, lat.tau._theta1[0], lat.rho) + lat.gauge[:2]
            assert lat.gauge[2][1] is lat.tau._theta1[0]

    def test_one_table_and_one_theta_constant_pass_per_tau(self, monkeypatch):
        # point_eval's calls at one fresh TauPoint share the record of tau:
        # theta1's degree-1 sum (terms, e0 and e1), built on one factor table,
        # the theta-constant pass and the term count, each built once.
        modular = sigmakit.modular
        passes, tables, counts = [], [], []
        for name, seen in (("_theta_constants", passes), ("_theta1_table", tables),
                           ("_term_count", counts)):
            original = getattr(modular, name)

            def counted(*args, _seen=seen, _original=original):
                _seen.append(args[0])
                return _original(*args)

            monkeypatch.setattr(modular, name, counted)
        builds = record_builds(monkeypatch)
        for w1, w2 in ((1.2, 0.3 + 1.1j), (0.7 + 0.2j, -1.1 + 0.9j), (1, CORNER)):
            for seen in (passes, tables, counts, builds):
                seen.clear()
            lat = normalize_lattice(w1, w2)
            tau = lat.tau
            sigma_eval(0.4 + 0.1j, lat)
            theta1_eval(0.3 - 0.2j, tau)
            j_invariant(tau)
            dedekind_eta(tau)
            weierstrass_g(tau)
            modular_discriminant(tau)
            modular_pq(tau)
            assert passes == tables == [tau] and passes[0] is tables[0] is tau
            assert counts == [tau.value.imag]
            assert builds == {"_head": 1, "_theta1": 1, "_forms": 1}

    @pytest.mark.parametrize("tau, builds", [
        (0.5j, {"_head": 1, "_forms": 1}), (0.3 + 1.1j, {"_head": 1, "_forms": 1}),
        (-7.5e5 + 2j, {"_head": 1, "_forms": 1}), (900j, {"_head": 1, "_forms": 1}),
        (0.49j, {"_head": 2, "_inverted": 1, "_forms": 1}), (900.5j, {}), (2000j, {})])
    def test_eta_reads_the_theta_constant_pass_of_tau(self, tau, builds, monkeypatch):
        # On 1/2 <= Im tau <= 900 eta is the cube root of 2*eta^3/c0 from the
        # record of tau: a lone eta at a fresh TauPoint builds its head and its
        # forms once.  Above 900 eta builds no record.  Below 1/2 eta is read at
        # the modular inversion's s, kept in the record of tau with its own
        # record.  A second call at a kept TauPoint builds nothing.
        built = record_builds(monkeypatch)
        point = TauPoint(tau)
        first = dedekind_eta(point)
        assert built == builds
        built.clear()
        assert dedekind_eta(point) == first
        assert built == {}

    def test_a_reduced_table_has_at_most_five_factors(self):
        # Im tau is least, sqrt(3)/2, at the corner: 9 exp(-16 pi sqrt(3)/2)
        # is just above 1e-18, so the table keeps k = 0..4 there, and Horner's
        # rule sums five coefficients.
        assert len(lattice_from_rho_tau(1, CORNER).tau._theta1[0]) == 5
        assert len(lattice_from_rho_tau(1, 1j).tau._theta1[0]) == 4

    def test_outside_double_range_is_numeric_error(self):
        lat = lattice_from_rho_tau(1, 1j)
        with pytest.raises(NumericError) as err:
            sigma_eval(40j, lat)
        assert err.value.diagnostics["tau"] == [0.0, 1.0]

    def test_a_batch_whose_sum_overflows_returns_its_values(self):
        # Each value is about 5.4e307, finite, though their sum is not: the
        # finiteness check looks at each value, not at a total.
        lat = lattice_from_rho_tau(1, 1j)
        zs = [21.25 + 0.5j, 21.25 + 0.5001j, 21.25 + 0.5j, 21.2501 + 0.5j]
        values = sigmakit.lattice._sigma_values(zs, lat)
        assert not cmath.isfinite(sum(values))
        assert all(map(cmath.isfinite, values))
        assert [hex_bits(v) for v in values] == [hex_bits(sigma_eval(z, lat)) for z in zs]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_survey_shaped_lattices_keep_their_bits(self, seed):
        # A survey's twelve arguments per quadruple, on lattices of its four
        # tau classes and box radii 1 to 5, against the reference kernel that
        # rounds at every point, summed on the terms the gauge keeps.
        for lat, box in survey_lattices(seed):
            zs = [z for row in _draw_quadruples(16, seed, box) for z in _arguments(*row)]
            want = theta1_values_reference(zs, *lat.gauge[2])
            assert ([hex_bits(v) for v in sigmakit.lattice._sigma_values(zs, lat)]
                    == [hex_bits(v) for v in want])

    def test_a_survey_builds_theta1s_sum_once_per_lattice(self, monkeypatch):
        # Lattices surveyed in cycling rounds: each keeps theta1's Horner terms
        # with its gauge, from the record of its own tau, so theta1's sum is
        # built once per lattice in all.
        builds = record_builds(monkeypatch)
        lattices = [lattice_from_rho_tau(1 + 0.1j * k, complex(0.02 * k - 0.4, 1.1 + 0.03 * k))
                    for k in range(33)]
        for _ in range(3):
            for lat in lattices:
                identity_report(OddFunctionHandle.from_sigma(lat), num_samples=4, seed=2,
                                box_radius=1.5)
        assert builds == {"_head": len(lattices), "_theta1": len(lattices)}

    @pytest.mark.parametrize("rho", [1e-300, 1e-170, 1e200, 1e200j])
    def test_gauge_with_rho_squared_beyond_double_range_is_numeric_error(self, rho):
        lat = lattice_from_rho_tau(rho, 1j)
        with pytest.raises(NumericError) as err:
            sigma_gauge(lat)
        assert err.value.diagnostics["rho"] == [lat.rho.real, lat.rho.imag]

    @pytest.mark.parametrize("rho", [5e-324j, 1e-320, 6e-308])
    def test_gauge_scale_below_the_normal_doubles_is_numeric_error(self, rho):
        # rho/theta1'(0) is subnormal or 0 here: too few digits for sigma,
        # and no logarithm at 0.
        lat = lattice_from_rho_tau(rho, 1j)
        for evaluate in (lambda: sigma_eval(0.0, lat), lambda: sigma_gauge(lat)):
            with pytest.raises(NumericError, match="underflows"):
                evaluate()

    def test_gauge_scale_just_above_the_normal_doubles(self):
        # |rho/theta1'(0)| is about 2.5e-308 at rho = 7e-308; sigma is
        # homogeneous, sigma(rho*w; rho*Lambda) = rho*sigma(w; Lambda).
        w = 0.5 + 0.3j
        got = sigma_eval(7e-308 * w, lattice_from_rho_tau(7e-308, 1j))
        want = 7e-308 * sigma_eval(w, lattice_from_rho_tau(1, 1j))
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("rho", [1e-155, 1e-157])
    def test_alpha_beyond_double_range_is_numeric_error(self, rho):
        # rho^2 is subnormal, so alpha = kappa/rho^2 overflows; sigma itself
        # needs only the tau-only kappa and stays finite.
        lat = lattice_from_rho_tau(rho, 1j)
        with pytest.raises(NumericError) as err:
            sigma_gauge(lat)
        assert err.value.diagnostics["rho"] == [lat.rho.real, lat.rho.imag]
        assert cmath.isfinite(sigma_eval(0.3 * rho, lat))

    @pytest.mark.parametrize("rho, tau, message, prime", [
        (1, 1000j, "the sigma gauge rho/theta1'(0) = (1+0j)/0j overflows", [0.0, 0.0]),
        (5e-324, 1j, "the sigma gauge rho/theta1'(0) = (5e-324+0j)/(2.848694603987787+0j) "
         "underflows", [2.848694603987787, 0.0])])
    def test_every_gauge_reader_meets_one_message(self, rho, tau, message, prime):
        # Lattice.gauge forms and checks the gauge, so the gauge itself,
        # sigma_eval, sigma_gauge and the elliptic synthesize raise one message
        # and one theta1'(0); a failure is not kept.
        lat = lattice_from_rho_tau(rho, tau)
        member = Classification("elliptic", 0, 0, rho=rho, tau=TauPoint(tau))
        for evaluate in (lambda: lat.gauge, lambda: sigma_eval(0.3 * rho, lat),
                         lambda: sigma_gauge(lat), lambda: synthesize(member, 9)):
            with pytest.raises(NumericError) as err:
                evaluate()
            assert str(err.value) == message
            assert err.value.diagnostics == {"theta1_prime": prime}
        assert "gauge" not in vars(lat)

    @pytest.mark.parametrize("height", [925.0, 1000.0])
    def test_gauge_beyond_double_range_is_numeric_error(self, height):
        # theta1'(0) is subnormal at Im tau = 925, so rho/theta1'(0)
        # overflows, and it underflows to 0 at 1000.
        lat = lattice_from_rho_tau(1, height * 1j)
        for evaluate in (lambda: sigma_eval(0.3, lat), lambda: sigma_gauge(lat)):
            with pytest.raises(NumericError) as err:
                evaluate()
            assert "gauge" in str(err.value)


class TestSigmaProductOracle:
    def test_zero_at_origin(self):
        lat = lattice_from_rho_tau(1, 1j)
        assert sigma_product_oracle(0.0, lat, 25.0) == 0

    def test_agrees_with_theta_route(self):
        lat = lattice_from_rho_tau(1, 1j)
        z = 0.3 + 0.2j
        via_product = sigma_product_oracle(z, lat, 50.0)
        via_theta = sigma_eval(z, lat)
        assert abs(via_product - via_theta) <= 1e-4 * abs(via_theta)

    def test_exactly_odd(self):
        lat = normalize_lattice(1.0, 0.25 + 1.2j)
        for z in (0.21 + 0.13j, -0.32 + 0.04j):
            plus = sigma_product_oracle(z, lat, 30.0)
            minus = sigma_product_oracle(-z, lat, 30.0)
            assert minus == -plus

    def test_radius_precondition(self):
        lat = lattice_from_rho_tau(1, 1j)
        with pytest.raises(DomainError):
            sigma_product_oracle(1.0, lat, 5.0)
