import cmath
import math

import numpy as np
import pytest

from conftest import (
    OFF_GRID,
    eta_product_oracle,
    record_builds,
    theta1_sum_oracle,
    theta1_values_reference,
)
import sigmakit.lattice
import sigmakit.modular
from sigmakit import (
    ConvergenceError,
    DomainError,
    NumericError,
    TauPoint,
    as_tau,
    dedekind_eta,
    j_invariant,
    lattice_from_rho_tau,
    modular_discriminant,
    modular_pq,
    pq_of_series,
    sigma_eval,
    theta1_eval,
    theta1_odd_series,
    weierstrass_g,
)
from sigmakit.errors import TERM_CAP

TAU_GRID = [1j, 2j, 0.3 + 1.1j, -0.25 + 0.9j]
CORNER = 0.5 + 1j * math.sqrt(3) / 2
TWO_PI = 2 * math.pi


class TestTauPoint:
    def test_rejects_lower_half_plane(self):
        for bad in (0.5, -1j, complex(2, 0), complex(1, -0.1)):
            with pytest.raises(DomainError):
                TauPoint(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            TauPoint(complex(float("nan"), 1.0))

    def test_nome_invariants(self):
        # The nome exp(2*pi*i*tau) of an upper-half-plane point lies in the
        # unit disc, with modulus exp(-2*pi*Im(tau)).
        for tau in TAU_GRID:
            t = TauPoint(tau).value
            q = cmath.exp(2j * math.pi * t)
            assert abs(q) < 1
            assert abs(abs(q) - math.exp(-TWO_PI * t.imag)) < 1e-15


class TestTheta1:
    def test_vanishes_at_origin(self):
        for tau in TAU_GRID:
            assert theta1_eval(0.0, tau) == 0

    def test_odd_in_z(self):
        rng = np.random.default_rng(5)
        for tau in TAU_GRID:
            for _ in range(5):
                z = complex(*rng.uniform(-1, 1, 2))
                plus = theta1_eval(z, tau)
                minus = theta1_eval(-z, tau)
                assert abs(plus + minus) <= 1e-12 * max(1.0, abs(plus))

    def test_against_partial_sum_oracle(self):
        value = theta1_eval(0.25, 1j)
        oracle = theta1_sum_oracle(0.25, 1j, terms=20)
        assert abs(value - oracle) < 1e-14

    def test_translation_covariance(self):
        # theta1(z, tau + 1) = exp(i*pi/4) * theta1(z, tau)
        rng = np.random.default_rng(6)
        for tau in TAU_GRID:
            for _ in range(3):
                z = complex(*rng.uniform(-0.8, 0.8, 2))
                lhs = theta1_eval(z, tau + 1)
                rhs = cmath.exp(1j * math.pi / 4) * theta1_eval(z, tau)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_inversion_covariance_principal_branch(self):
        # theta1(z/tau, -1/tau) = -i sqrt(tau/i) exp(i*pi*z^2/tau) theta1(z, tau)
        for tau in (1.3j, 0.3 + 1.1j, -0.2 + 0.9j):
            for z in (0.23 + 0.11j, -0.4 + 0.05j):
                lhs = theta1_eval(z / tau, -1 / tau)
                rhs = (
                    -1j
                    * cmath.sqrt(tau / 1j)
                    * cmath.exp(1j * math.pi * z**2 / tau)
                    * theta1_eval(z, tau)
                )
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_cap_reached_far_from_fundamental_domain(self):
        with pytest.raises(ConvergenceError) as err:
            theta1_eval(0.3, complex(0.0, 1e-4))
        assert err.value.diagnostics["term_cap"] == 200

    def test_term_cap_bounds_the_table(self):
        # The table ends before the first k with (2k+1) exp(-pi Im(tau) k^2)
        # <= 1e-18: k = 200 at Im tau = 3.8e-4, the cap's last admitted
        # table, and k = 201 at 3.7e-4, one factor past the cap.
        assert len(sigmakit.modular._theta1_table(TauPoint(3.8e-4j), 1)) == TERM_CAP == 200
        assert cmath.isfinite(theta1_eval(0.3, 3.8e-4j))
        with pytest.raises(ConvergenceError) as err:
            theta1_eval(0.3, 3.7e-4j)
        assert err.value.diagnostics["term_cap"] == 200

    def test_reduced_argument_matches_direct_sum(self):
        # The sum runs on z reduced into the fundamental cell; the direct
        # partial sum needs no reduction while |Im z| stays moderate.
        rng = np.random.default_rng(8)
        for tau in TAU_GRID + [CORNER - 1 + 1e-3j]:
            for _ in range(12):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2.5, 2.5))
                direct = theta1_sum_oracle(z, tau, terms=40)
                assert abs(theta1_eval(z, tau) - direct) <= 1e-12 * abs(direct)

    def test_quasi_periodicity_away_from_origin(self):
        # theta1(z + 2*tau + 1) = -exp(-4*pi*i*(tau + z)) * theta1(z)
        for tau in TAU_GRID:
            for z in (0.2 + 0.1j, -0.35 + 0.6j):
                lhs = theta1_eval(z + 2 * tau + 1, tau)
                rhs = -cmath.exp(-4j * math.pi * (tau + z)) * theta1_eval(z, tau)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_outside_double_range_is_numeric_error(self):
        for z in (300j, 1e308j, complex(5.0, -1e300)):
            with pytest.raises(NumericError) as err:
                theta1_eval(z, 1j)
            assert err.value.diagnostics["z"] == [z.real, z.imag]

    def test_non_finite_argument_is_domain_error(self):
        for z in (complex(float("nan"), 0.0), complex(0.0, float("inf"))):
            with pytest.raises(DomainError):
                theta1_eval(z, 1j)

    @pytest.mark.parametrize("tau", [950j, 903.5j, 0.3 + 1e4j])
    def test_subnormal_leading_factor_is_numeric_error(self, tau):
        # theta1's factor 2*exp(i*pi*tau/4) leaves the normal doubles above
        # Im tau of about 903; at 950i the value 2.0e-188 came back as 0.
        with pytest.raises(NumericError) as err:
            theta1_eval(0.3 + 100j, tau)
        assert err.value.diagnostics == {"z": [0.3, 100.0], "tau": [tau.real, tau.imag]}

    def test_normal_leading_factor_answers(self):
        value = theta1_eval(0.3 + 100j, 900j)
        # The second term is exp(-1600*pi) of the first here.
        oracle = theta1_sum_oracle(0.3 + 100j, 900j, terms=0)
        assert abs(value - oracle) <= 1e-13 * abs(oracle)


def _sine_polynomial_reference(k):
    """The integer coefficients of S_k(u) = sin((2k+1)x)/sin(x), u = sin(x)^2,
    from S_0 = 1, S_-1 = -1 and S_(k+1) = (2 - 4u) S_k - S_(k-1)."""
    prev, cur = [-1], [1]
    for _ in range(k):
        prev, cur = cur, [2 * a - 4 * b - p for a, b, p in
                          zip(cur + [0], [0] + cur, prev + [0, 0])]
    return cur


class TestHornerForm:
    # theta1 = s * sum_j e_j u^j, s = sin(pi*w), u = s^2, on at most six
    # factors; longer tables keep the sine recurrence on the factors c_k.

    def test_sine_terms_follow_the_recurrence(self):
        terms, ends = sigmakit.modular._SINE_TERMS, sigmakit.modular._SINE_ENDS
        for k in range(TERM_CAP):
            row = terms[ends[k]:ends[k + 1]]
            want = _sine_polynomial_reference(k)[:k + 1 if k < 6 else 2]
            assert [(kk, j) for kk, j, _ in row] == [(k, j) for j in range(len(want))]
            assert [p for _, _, p in row] == want
        for x in (0.3, 1.1 - 0.4j, -0.2 + 0.7j):
            u = cmath.sin(x) ** 2
            for k in range(6):
                value = sum(p * u**j for _, j, p in terms[ends[k]:ends[k + 1]])
                want = cmath.sin((2 * k + 1) * x) / cmath.sin(x)
                assert abs(value - want) <= 1e-13 * max(1, abs(want))

    @pytest.mark.parametrize("tau, factors", [
        (20j, 1), (1j, 4), (CORNER, 5), (0.5j, 6), (0.39j, 6), (0.389j, 7), (0.3j, 7)])
    def test_six_factors_are_summed_by_horner(self, tau, factors):
        # Six factors reach down to Im tau = 0.389: 13 exp(-36 pi Im tau) <= 1e-18.
        table = sigmakit.modular._theta1_table(TauPoint(tau), 1)
        terms, e0, e1 = TauPoint(tau)._theta1
        assert len(table) == len(terms) == factors
        if factors > 6:
            assert terms == table
        else:
            u = cmath.sin(0.4 - 0.1j) ** 2
            horner = sum(e * u ** j for j, e in enumerate(reversed(terms)))
            sines = sum(c * sum(p * u**j for j, p in enumerate(_sine_polynomial_reference(k)))
                        for k, c in enumerate(table))
            assert abs(horner - sines) <= 1e-15 * abs(sines)
        w = [(2 * k + 1) * math.pi for k in range(factors)]
        th1 = sum(c * x for c, x in zip(table, w))
        th3 = -sum(c * x**3 for c, x in zip(table, w)) / 6
        assert abs(math.pi * e0 - th1) <= 1e-15 * abs(th1)
        assert abs(math.pi**3 * (e1 - e0 / 6) - th3) <= 1e-15 * abs(th3)
        if factors <= 6:
            assert terms[-1] == e0 and (factors == 1 or terms[-2] == e1)

    @pytest.mark.parametrize("tau", [t for t in OFF_GRID if t.imag < 0.389] + [3.8e-4j])
    def test_long_tables_keep_their_bits(self, tau):
        # theta1_eval on more than six factors is the sine recurrence as it
        # was, bit for bit; 3.8e-4i keeps all 200 factors the cap admits.
        table = sigmakit.modular._theta1_table(TauPoint(tau), 1)
        rng = np.random.default_rng(17)
        v = tau.imag
        zs = [0.3, 0.1 + 0.003j] + [complex(rng.uniform(-2, 2), rng.uniform(-3 * v, 3 * v))
                                    for _ in range(16)]
        assert len(table) > 6
        want = theta1_values_reference(zs, TauPoint(tau).value, table)
        assert [repr(theta1_eval(z, tau)) for z in zs] == [repr(w) for w in want]

    def test_the_whole_table_is_summed_below_the_sixteenth_factor(self):
        # A kernel that dropped every factor past the 16th gave 1.18 and
        # 5.5e-8 here, and every other test passed.
        assert abs(theta1_eval(0.3, 3.8e-4j)) < 1e-15
        value = theta1_eval(0.1 + 0.003j, 0.02j)
        assert abs(value - theta1_sum_oracle(0.1 + 0.003j, 0.02j, terms=60)) <= 1e-14


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


class TestCellReduction:
    # The cell reduction at its ties, where a rewrite of its round() calls
    # (such as skipping them for points already in the cell) can change bits:
    # every value equals the reference's, the signs of zeros included.
    @pytest.mark.parametrize("tau", [0.1 + 1j, -0.25 + 2j, CORNER, 0.3j])
    def test_ties_and_their_neighbours_keep_their_bits(self, tau):
        # Im w / Im tau on and next to +-1/2 and +-3/2, and Re w, after the
        # shift by n*tau, on and next to +-1/2, +-3/2 and +-5/2: exactly so
        # where n = 0 or where tau is dyadic.
        t = TauPoint(tau).value
        res = [x for e in (0.5, 1.5, 2.5) for x in _around(e) + _around(-e)] + [0.0, 0.2]
        ims = [y for e in (0.5, 1.5) for y in _around(e) + _around(-e)] + [0.0, 0.1]
        zs = [complex(x + round(y) * t.real, y * t.imag) for x in res for y in ims]
        assert {z.imag / t.imag for z in zs} >= {0.5, -0.5}
        assert {z.real for z in zs} >= {0.5, -0.5, 1.5, -1.5, 2.5, -2.5}
        # The degree-1 sum (Horner terms, or at 0.3i the factors), and a longer
        # table, which the kernel sums by the sine recurrence.
        terms = TauPoint(t)._theta1[0]
        table = sigmakit.modular._theta1_table(TauPoint(t), 201)
        assert len(table) > 6
        for args in ((terms,), (table,), (terms, 0.8 - 0.6j, 0.3 + 0.1j, 1.7j)):
            got = sigmakit.modular._theta1_values(zs, t, *args)
            want = theta1_values_reference(zs, t, *args, horner=len(args[0]) <= 6)
            assert list(map(float.hex, _parts(got))) == list(map(float.hex, _parts(want)))

    @pytest.mark.parametrize("z", [complex(math.nan, 0.1), complex(0.1, math.nan),
                                   complex(math.inf, 0.1), complex(0.1, -math.inf),
                                   complex(-math.inf, math.inf)])
    def test_a_non_finite_z_still_reaches_round(self, z):
        t = 0.1 + 1j
        terms = TauPoint(t)._theta1[0]
        got = sigmakit.modular._theta1_values([0.3, z], t, terms)
        want = theta1_values_reference([0.3, z], t, terms, horner=True)
        assert list(map(float.hex, _parts(got))) == list(map(float.hex, _parts(want)))
        assert not cmath.isfinite(got[1])
        lat = lattice_from_rho_tau(1, t)
        for call in (lambda: theta1_eval(z, t), lambda: sigma_eval(z, lat),
                     lambda: sigmakit.lattice._sigma_values([0.3, z, 40j], lat)):
            with pytest.raises(DomainError, match="z must be finite"):
                call()


def _parts(values):
    return [x for v in values for x in (v.real, v.imag)]


class TestTheta1OddSeries:
    def test_leading_coefficient_at_i(self):
        a1 = theta1_odd_series(1j, 1).odd_coefficients[0]
        assert abs(a1 - 2.848694603987787) < 1e-12

    def test_leading_equals_eta_cubed(self):
        # theta1'(0, tau) = 2*pi*eta(tau)^3, eta from the product oracle
        for tau in TAU_GRID:
            a1 = theta1_odd_series(tau, 1).odd_coefficients[0]
            target = TWO_PI * eta_product_oracle(tau) ** 3
            assert abs(a1 - target) <= 1e-13 * abs(target)

    def test_pointwise_consistency_with_eval(self):
        for tau in TAU_GRID:
            series = theta1_odd_series(tau, 13)
            direct = theta1_eval(0.05, tau)
            assert abs(series.evaluate(0.05) - direct) <= 1e-12 * max(1, abs(direct))

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            theta1_odd_series(1j, 4)
        with pytest.raises(DomainError):
            theta1_odd_series(1j, -3)


class TestEta:
    def test_value_at_i(self):
        # eta(i) = Gamma(1/4) / (2 * pi^(3/4))
        target = math.gamma(0.25) / (2.0 * math.pi**0.75)
        assert abs(dedekind_eta(1j) - target) < 1e-14

    def test_value_at_2i(self):
        assert abs(dedekind_eta(2j) - eta_product_oracle(2j)) < 1e-15
        # CM evaluation: eta(2i) = Gamma(1/4) / (2^(11/8) * pi^(3/4))
        target = math.gamma(0.25) / (2 ** (11 / 8) * math.pi**0.75)
        assert abs(dedekind_eta(2j) - target) < 1e-13

    def test_translation(self):
        for tau in TAU_GRID:
            lhs = dedekind_eta(tau + 1)
            rhs = cmath.exp(1j * math.pi / 12) * dedekind_eta(tau)
            assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


class TestWeierstrassG:
    def test_cusp_limits(self):
        # Deep in the upper half-plane only the constant terms survive.
        g2, g3 = weierstrass_g(40j)
        assert abs(g2 - TWO_PI**4 / 12) <= 1e-12 * abs(g2)
        assert abs(g3 - TWO_PI**6 / 216) <= 1e-12 * abs(g3)

    def test_g3_vanishes_at_i(self):
        # i*(Z+iZ) = Z+iZ and g3 has weight -6, forcing g3(i) = -g3(i).
        _, g3 = weierstrass_g(1j)
        assert abs(g3) <= 1e-12

    def test_g2_at_i_gamma_quarter(self):
        g2, _ = weierstrass_g(1j)
        target = math.gamma(0.25) ** 8 / (16 * math.pi**2)
        assert abs(g2 - target) <= 1e-12 * abs(target)

    def test_g2_vanishes_at_corner(self):
        g2, _ = weierstrass_g(CORNER)
        assert abs(g2) <= 1e-11


class TestJInvariant:
    def test_corner_zero(self):
        assert abs(j_invariant(CORNER)) <= 1e-8

    def test_square_lattice_1728(self):
        assert abs(j_invariant(1j) - 1728) <= 1e-8 * 1728

    def test_cm_point_2i(self):
        # Classical complex-multiplication value 66^3.
        assert abs(j_invariant(2j) - 287496) <= 1e-8 * 287496

    def test_q_expansion_constant_and_linear_terms(self):
        # j = 1/q + 744 + 196884*q + ... ; check the 196884 at Im tau = 3
        # and 3.1, where binary64 still resolves the linear term.
        for tau in (3j, 0.21 + 3.1j):
            q = cmath.exp(2j * math.pi * tau)
            ratio = (j_invariant(tau) - 1 / q - 744.0) / q
            assert abs(ratio - 196884.0) <= 0.01 * 196884.0

    def test_discriminant_product_form_matches_subtraction(self):
        # Where the subtraction is well-conditioned the two expressions for
        # g2^3 - 27*g3^2 must agree.
        for tau in TAU_GRID:
            g2, g3 = weierstrass_g(tau)
            direct = g2**3 - 27.0 * g3**2
            product = modular_discriminant(tau)
            assert abs(direct - product) <= 1e-9 * abs(product)


class TestModularPQ:
    def test_q_vanishes_at_i(self):
        _, q = modular_pq(1j)
        assert abs(q) <= 1e-12

    def test_p_at_i_frozen(self):
        # (pi^2/30) * eta(i)^6 * g2(i) evaluated via the closed-form eta and
        # g2 values above.
        p, _ = modular_pq(1j)
        eta_i = math.gamma(0.25) / (2.0 * math.pi**0.75)
        g2_i = math.gamma(0.25) ** 8 / (16 * math.pi**2)
        target = math.pi**2 / 30 * eta_i**6 * g2_i
        assert abs(p - target) <= 1e-12 * abs(target)
        assert abs(p - 12.786138726866136) < 1e-10

    def test_series_route_equality(self):
        # Central equality: the invariants of the theta Taylor series equal
        # (pi^2/30) eta^6 g2 and -(pi^3/35) eta^9 g3.
        for tau in TAU_GRID:
            series = theta1_odd_series(tau, 7)
            inv = pq_of_series(series)
            p_mod, q_mod = modular_pq(tau)
            assert abs(inv.p - p_mod) <= 1e-8 * abs(p_mod)
            if abs(q_mod) < 1e-10:
                assert abs(inv.q - q_mod) <= 1e-10
            else:
                assert abs(inv.q - q_mod) <= 1e-8 * abs(q_mod)

    def test_translation_covariance(self):
        for tau in (0.3 + 1.1j, 1.2j, -0.2 + 0.95j):
            p0, _ = modular_pq(tau)
            p1, _ = modular_pq(tau + 1)
            assert abs(p1 - 1j * p0) <= 1e-8 * abs(p0)

    def test_inversion_covariance(self):
        for tau in (0.3 + 1.1j, 1.2j, -0.2 + 0.95j):
            p0, _ = modular_pq(tau)
            ps, _ = modular_pq(-1 / tau)
            target = 1j * tau**7 * p0
            assert abs(ps - target) <= 1e-8 * abs(target)


class TestLargeRealPart:
    # theta1's factors and the theta constants are invariant under
    # tau -> tau + 8; these shifts are exact in binary.
    SHIFTS = (8.0, -16.0, 8.0 * 2**20, -8.0 * 3**15, 2.0**46)

    def test_j_keeps_its_phase(self):
        # exp(pi*i*tau) at Re tau = 1e17 had lost the phase: j was 307.6-210.8i.
        for tau in (1e17 + 1j, -1e17 + 1j, 2.0**70 + 1j):
            assert abs(j_invariant(tau) - 1728.0) <= 1e-12 * 1728.0

    @pytest.mark.parametrize("tau", [0.375 + 1.125j, -0.25 + 0.9375j, 0.125 + 0.25j])
    def test_forms_and_theta1_are_8_periodic(self, tau):
        g2, g3 = weierstrass_g(tau)
        u = 0.3125 - 0.0625j
        th = theta1_eval(u, tau)
        for shift in self.SHIFTS:
            assert weierstrass_g(tau + shift) == (g2, g3)
            assert theta1_eval(u, tau + shift) == th

    def test_odd_series_is_8_periodic(self):
        # The coefficient series once summed exp(pi*i*tau*(n+1/2)^2) at tau as
        # given: a1 at tau + 8*2^40 was 1.3e-4 off.
        tau = 0.375 + 1.125j
        want = theta1_odd_series(tau, 3).odd_coefficients
        for shift in self.SHIFTS + (8.0 * 2**40,):
            assert theta1_odd_series(tau + shift, 3).odd_coefficients == want

    def test_eta_is_24_periodic(self):
        # eta at tau + 24*2^40 was 8.0e-4 off eta(tau).
        tau = 0.375 + 1.125j
        for shift in (24.0, -48.0, 24.0 * 3**15, 24.0 * 2**40):
            assert dedekind_eta(tau + shift) == dedekind_eta(tau)

    def test_small_real_part_is_not_shifted(self):
        # Below |Re tau| = 4 the sums run at tau as given.
        for tau in (3.75 + 1.1j, -3.9 + 0.7j):
            table = sigmakit.modular._theta1_table(TauPoint(tau), 1)
            assert table[0] == 2.0 * cmath.exp(0.25j * math.pi * tau)


class TestJOverflow:
    # j overflows from Im tau of about 113; Delta underflows only near 118.
    @pytest.mark.parametrize("tau", [115j, 0.25 + 117j, -1 / 115j])
    def test_overflow_is_numeric_error(self, tau):
        with pytest.raises(NumericError) as err:
            j_invariant(tau)
        t = TauPoint(tau).value
        assert err.value.diagnostics == {"tau": [t.real, t.imag]}

    def test_modular_pq_is_finite_there(self):
        # p and q carry powers of eta and stay in range; a failed j leaves
        # nothing in the record that they read.
        tau = TauPoint(115j)
        p, q = modular_pq(tau)
        with pytest.raises(NumericError):
            j_invariant(tau)
        assert modular_pq(tau) == (p, q)
        assert cmath.isfinite(p) and cmath.isfinite(q) and p != 0


def _tau_only_values(tau, lat, order):
    """The tau-only values at the TauPoint tau and the lattice lat, evaluated in ``order``."""
    steps = {
        "j": lambda: j_invariant(tau),
        "g": lambda: weierstrass_g(tau),
        "disc": lambda: modular_discriminant(tau),
        "pq": lambda: modular_pq(tau),
        "theta1": lambda: theta1_eval(0.3 - 0.2j, lat.tau),
        "sigma": lambda: sigma_eval(0.4 + 0.1j, lat),
    }
    return {name: steps[name]() for name in order}


def _hex_outcome(kernel, tau):
    """float.hex of each part of kernel(tau), or the type and text of its error."""
    try:
        value = kernel(tau)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    values = value if isinstance(value, tuple) else (value,)
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestTauMemo:
    ORDER = ("j", "g", "disc", "pq", "theta1", "sigma")

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, CORNER - 1, 0.1 + 0.3j, 6.5 + 1.25j])
    def test_values_do_not_depend_on_call_order(self, tau):
        point, lat = TauPoint(tau), lattice_from_rho_tau(1.25 - 0.5j, tau)
        first = repr(_tau_only_values(point, lat, self.ORDER))
        backwards = _tau_only_values(TauPoint(tau), lattice_from_rho_tau(1.25 - 0.5j, tau),
                                     self.ORDER[::-1])
        assert repr({name: backwards[name] for name in self.ORDER}) == first
        # And again with every value taken from the records.
        assert repr(_tau_only_values(point, lat, self.ORDER)) == first

    def test_memo_matches_a_fresh_pass(self):
        # The record of a TauPoint, read again by later calls, holds what a
        # fresh TauPoint's record builds.
        kept = TauPoint(0.3 + 1.1j)
        j_invariant(kept)
        theta1_eval(0.3, kept)
        assert {"_forms", "_theta1"} <= set(vars(kept))
        fresh = TauPoint(kept.value)
        assert repr(kept._forms) == repr(fresh._forms)
        assert repr(kept._theta1) == repr(fresh._theta1)

    def test_repeated_calls_at_a_tau_point_build_one_record(self, monkeypatch):
        builds = record_builds(monkeypatch)
        tau = TauPoint(-0.2 + 0.95j)
        for _ in range(3):
            for call in (j_invariant, weierstrass_g, modular_discriminant, modular_pq,
                         lambda tau: theta1_eval(0.3 - 0.2j, tau),
                         lambda tau: theta1_odd_series(tau, 7)):
                call(tau)
        assert builds == {"_head": 1, "_theta1": 1, "_forms": 1}
        assert as_tau(tau) is tau

    @pytest.mark.parametrize("group", ["reduced", "below one half", "large real part"])
    def test_each_kernel_at_a_bare_tau_equals_its_call_at_a_tau_point(self, group):
        rng = np.random.default_rng(29)
        if group == "reduced":
            taus = [lattice_from_rho_tau(1, complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3)))
                    .tau.value for _ in range(12)]
        elif group == "below one half":
            taus = [complex(rng.uniform(-1, 1), rng.uniform(0.01, 0.5)) for _ in range(12)]
        else:
            taus = [complex(s * rng.uniform(4, 1e6), rng.uniform(0.5, 2))
                    for s in (1, -1) for _ in range(6)]
        kernels = (lambda t: theta1_eval(0.3 - 0.2j, t), lambda t: theta1_eval(1.7 + 0.1j, t),
                   lambda t: theta1_odd_series(t, 9).odd_coefficients, dedekind_eta,
                   weierstrass_g, j_invariant, modular_discriminant, modular_pq)
        for t in taus:
            bare = [_hex_outcome(kernel, t) for kernel in kernels]
            point = TauPoint(t)
            assert [_hex_outcome(kernel, point) for kernel in kernels] == bare


class TestTermCap:
    # At tau = 1e-4 i every sum needs more than the 200 terms of the cap:
    # theta1's (2k+1) exp(-pi k^2 / 1e4) first drops below 1e-18 at k = 392.
    @pytest.mark.parametrize("call, what", [
        (lambda tau: theta1_eval(0.3, tau), "theta1 series"),
        (lambda tau: theta1_odd_series(tau, 7), "theta1 series"),
        (j_invariant, "theta constant series"),
        (weierstrass_g, "theta constant series"),
        (modular_discriminant, "theta constant series"),
        (modular_pq, "theta constant series"),
        (dedekind_eta, "eta product"),
    ], ids=["theta1_eval", "theta1_odd_series", "j_invariant", "weierstrass_g",
            "modular_discriminant", "modular_pq", "dedekind_eta"])
    def test_the_cap_is_reached_through_tau(self, call, what):
        call(1j)
        # A failure is not kept in the record, so a second call at one TauPoint
        # raises as the first, and as a call at the bare tau.
        point = TauPoint(1e-4j)
        for tau in (1e-4j, point, point):
            with pytest.raises(ConvergenceError) as err:
                call(tau)
            assert str(err.value) == (f"{what} did not converge within 200 terms at "
                                      "tau=0.0001j; reduce tau toward the fundamental domain first")
            assert err.value.diagnostics["tau"] == [0.0, 1e-4]
            assert err.value.diagnostics["term_cap"] == 200

    def test_an_overflowing_last_term_is_reported_as_inf(self):
        # At degree 161 the bound's root 403 exp(-pi 201^2 / 161e4) is about
        # 183, and its 161st power passes the largest double.
        with pytest.raises(ConvergenceError) as err:
            theta1_odd_series(1e-4j, 161)
        assert err.value.diagnostics == {"tau": [0.0, 1e-4], "term_cap": 200,
                                         "partial_magnitude": 1.0,
                                         "last_term_magnitude": math.inf}
