import cmath
import math

import numpy as np
import pytest

from conftest import (
    IDENTITY_MAP,
    INVERSION,
    circle_coefficients,
    clear_memos,
    compose,
    integer_combination,
    sigma_product_oracle,
    translation,
)
import sigmakit.lattice
import sigmakit.modular
from sigmakit import (
    ConvergenceError,
    DomainError,
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
    theta1_eval,
    weierstrass_g,
)

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

    def test_collinear_rejected(self):
        with pytest.raises(DomainError):
            normalize_lattice(1 + 1j, -2 - 2j)
        with pytest.raises(DomainError):
            normalize_lattice(1, 0)


class TestLatticeFromG:
    @pytest.mark.parametrize("scale", [1e-40, 1.0, 1e40])
    @pytest.mark.parametrize("tau", [0.3 + 1.1j, CORNER - 1 + 1e-6j, 1j + 1e-7, 2.5j])
    def test_invariants_come_back_at_every_scale(self, scale, tau):
        # The roots run on invariants scaled by a power of two, so the cubes
        # of g2 near 1e160 and g3 near 1e240 do not overflow.
        rho = scale * (0.9 + 0.2j)
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
        assert abs(tau.value - 1j) < 1e-12

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

    def test_large_modulus_seeded_from_q_expansion(self):
        jval = 1e8 + 1e7j
        tau = invert_j(jval)
        assert abs(j_invariant(tau) - jval) <= 1e-8 * abs(jval)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            invert_j(complex(float("inf"), 0))

    def test_every_huge_finite_value_answers_or_is_numeric_error(self):
        # 1/(jval - 744) underflows to 0 beyond |jval| ~ 1e308; |jval| itself
        # overflows beyond the largest double.
        for modulus in (1e300, 1e307, 1e308, 1.4e308, 1.79e308):
            for angle in np.linspace(0, 2 * math.pi, 12, endpoint=False):
                assert invert_j(cmath.rect(modulus, angle)).value.imag > 100
        for jval in (1.7e308 + 1.7e308j, -1.5e308 + 1.5e308j):
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

    def test_negative_real_j_stays_in_the_domain(self):
        # A real negative j puts tau on the edge Re = -1/2, and Newton ends
        # within a rounding error of it, on either side.
        jval = -100.0
        tau = invert_j(jval).value
        assert -0.5 <= tau.real < 0.5
        assert abs(abs(tau.real) - 0.5) <= 1e-15
        assert abs(j_invariant(tau) - jval) <= 1e-8 * abs(jval)

    def test_iterates_stay_away_from_the_cusp(self):
        # Newton iterates once jumped from here to Im(tau) ~ 222, where the
        # discriminant underflows.
        jval = 1361.6287913185577
        tau = invert_j(jval)
        assert abs(j_invariant(tau) - jval) <= 1e-8 * jval
        assert abs(tau.value - (-0.12711040306569873 + 0.9918885751093596j)) < 1e-9

    def test_failure_reports_every_start(self):
        with pytest.raises(ConvergenceError) as err:
            invert_j(2500.0, max_iterations=1)
        trace = err.value.diagnostics["trace"]
        assert len(trace) == 2
        assert trace[-1]["start"] == [0.0, 1.2]
        assert all(entry["iterations"] == 1 for entry in trace)


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
        # The theta table and the gauge are each built once per lattice,
        # and the gauge takes theta1'(0) and theta1'''(0) from the table
        # rather than from the coefficient series.
        calls = {"_theta1_table": 0, "sigma_gauge_from_head": 0, "theta1_odd_series": 0}
        for name in calls:
            home = sigmakit.lattice if name == "sigma_gauge_from_head" else sigmakit.modular
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (sigmakit.modular, sigmakit.lattice):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        for lat in (lattice_from_rho_tau(1, 1j), normalize_lattice(1.2, 0.3 + 1.1j)):
            calls.update(dict.fromkeys(calls, 0))
            identity_report(OddFunctionHandle.from_sigma(lat), num_samples=12,
                            seed=5, box_radius=2.0)
            for z in (0.4 + 0.1j, -1.3 + 0.7j):
                sigma_eval(z, lat)
            sigma_gauge(lat)
            assert calls == {"_theta1_table": 1, "sigma_gauge_from_head": 1,
                             "theta1_odd_series": 0}

    def test_one_table_and_one_theta_constant_pass_per_tau(self, monkeypatch):
        # point_eval's calls at one tau share theta1's factor table, the
        # theta-constant pass and the term count through the per-tau memo.
        modular = sigmakit.modular
        passes = []
        original = modular._theta_constants

        def counted(t, term_cap):
            passes.append(t)
            return original(t, term_cap)

        monkeypatch.setattr(modular, "_theta_constants", counted)
        memos = (modular._theta1_table, modular._modular_forms, modular._term_count)
        for w1, w2 in ((1.2, 0.3 + 1.1j), (0.7 + 0.2j, -1.1 + 0.9j), (1, CORNER)):
            clear_memos()
            passes.clear()
            lat = normalize_lattice(w1, w2)
            tau = lat.tau
            sigma_eval(0.4 + 0.1j, lat)
            theta1_eval(0.3 - 0.2j, tau)
            j_invariant(tau)
            dedekind_eta(tau)
            weierstrass_g(tau)
            modular_discriminant(tau)
            modular_pq(tau)
            assert passes == [tau.value]
            assert [memo.cache_info().misses for memo in memos] == [1, 1, 1]

    def test_term_cap_bounds_the_cached_table(self):
        lat = lattice_from_rho_tau(1, 1j)
        assert len(lat.theta_table) == 4
        assert sigma_eval(0.3, lat, term_cap=4) == sigma_eval(0.3, lat)
        with pytest.raises(ConvergenceError) as err:
            sigma_eval(0.3, lat, term_cap=3)
        assert err.value.diagnostics["term_cap"] == 3

    def test_outside_double_range_is_numeric_error(self):
        lat = lattice_from_rho_tau(1, 1j)
        with pytest.raises(NumericError) as err:
            sigma_eval(40j, lat)
        assert err.value.diagnostics["tau"] == [0.0, 1.0]

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
