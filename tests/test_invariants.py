import cmath
import math
import struct

import numpy as np
import pytest

import sigmakit.invariants
from conftest import (
    HUGE_ALPHAS,
    LARGE_ALPHAS,
    invariants_and_hat_reference,
    seeded_members_and_data,
)
from sigmakit import (
    DomainError,
    NotInOmegaError,
    NumericError,
    ProjectiveValue,
    TruncatedOddSeries,
    gauss_twist,
    hat_normalize,
    modular_pq,
    mu_of_pq,
    pq_of_series,
    scale_argument,
    theta1_odd_series,
    weierstrass_g,
)
from sigmakit.invariants import _invariants_and_hat

SINE = TruncatedOddSeries([1, -1 / 6, 1 / 120, -1 / 5040])
Z_EXP_SQUARE = TruncatedOddSeries([1, 1, 1 / 2, 1 / 6])  # z * exp(z^2)


def random_omega_series(rng, count=4):
    coeffs = [complex(a, b) for a, b in rng.uniform(-1, 1, (count, 2))]
    lead = complex(*rng.uniform(-1, 1, 2))
    coeffs[0] = lead / abs(lead) * rng.uniform(0.5, 2.0)
    return TruncatedOddSeries(coeffs)


class TestPqOfSeries:
    def test_sine(self):
        inv = pq_of_series(SINE)
        assert abs(inv.p - 1 / 90) <= 1e-15
        assert abs(inv.q + 1 / 945) <= 1e-15
        assert inv.mu.is_finite
        assert abs(inv.mu.value - 49 / 40) <= 1e-12 * (49 / 40)

    def test_gaussian_twist_of_z(self):
        inv = pq_of_series(Z_EXP_SQUARE)
        assert inv.p == 0
        assert inv.q == 0
        assert inv.mu.tag == "undefined"

    def test_sigma_series_invariants(self):
        # sigma(., Z + tau*Z) has a5 = -g2/240 and a7 = -g3/840, so
        # p = g2/120 and q = -g3/280; cross-checked against the modular
        # route divided by theta1'(0)^2 and theta1'(0)^3.
        for tau in (2j, 0.3 + 1.1j, -0.25 + 0.9j):
            g2, g3 = weierstrass_g(tau)
            sigma_series = TruncatedOddSeries([1, 0, -g2 / 240, -g3 / 840])
            inv = pq_of_series(sigma_series)
            assert abs(inv.p - g2 / 120) <= 1e-13 * abs(g2 / 120)
            assert abs(inv.q + g3 / 280) <= 1e-13 * abs(g3 / 280)
            theta_lead = theta1_odd_series(tau, 1).odd_coefficients[0]
            p_mod, q_mod = modular_pq(tau)
            assert abs(inv.p - p_mod / theta_lead**2) <= 1e-10 * abs(inv.p)
            assert abs(inv.q - q_mod / theta_lead**3) <= 1e-10 * abs(inv.q)

    def test_preconditions(self):
        with pytest.raises(NotInOmegaError):
            pq_of_series(TruncatedOddSeries([0, 1, 1, 1]))
        with pytest.raises(DomainError):
            pq_of_series(TruncatedOddSeries([1, 1, 1]))


class TestMuOfPq:
    def test_sine_value(self):
        mu = mu_of_pq(1 / 90, -1 / 945)
        assert mu.is_finite
        assert abs(mu.value - 49 / 40) <= 1e-12 * (49 / 40)

    def test_infinity(self):
        assert mu_of_pq(1.0, 0.0).tag == "infinity"
        assert mu_of_pq(2j, 1e-300).tag == "infinity"

    def test_undefined(self):
        assert mu_of_pq(0.0, 0.0).tag == "undefined"

    @pytest.mark.parametrize("p, q", [(1e200, 1e300), (1e300, 1e300), (math.inf, 1.0)])
    def test_overflow_is_numeric_error(self, p, q):
        # p^3 overflows, the inferred scale s^6 overflows, or p is infinite.
        with pytest.raises(NumericError):
            mu_of_pq(p, q)

    def test_tag_consistency_enforced(self):
        with pytest.raises(DomainError):
            ProjectiveValue("finite", None)
        with pytest.raises(DomainError):
            ProjectiveValue("infinity", 1.0 + 0j)


class TestHatNormalize:
    def test_sine(self):
        hat = hat_normalize(SINE)
        assert abs(hat.alpha - 1 / 6) <= 1e-15
        assert hat.beta == 0
        coeffs = hat.series.odd_coefficients
        assert coeffs[0] == 1
        assert coeffs[1] == 0
        assert abs(coeffs[2] + 1 / 180) <= 1e-16
        assert abs(coeffs[3] + 1 / 2835) <= 1e-16
        # Consistency: p of the hat form is -2A.
        inv = pq_of_series(hat.series)
        assert abs(inv.p - 1 / 90) <= 1e-15

    def test_below_degree_seven_is_domain_error(self):
        with pytest.raises(DomainError) as err:
            hat_normalize(TruncatedOddSeries([1, -1 / 6, 1 / 120]))
        assert str(err.value) == "hat normalization needs coefficients through degree 7"

    def test_fixed_point(self):
        already = TruncatedOddSeries([1, 0, 0.25, -0.125])
        hat = hat_normalize(already)
        assert hat.alpha == 0
        assert hat.beta == 0
        assert np.array_equal(hat.series.odd_coefficients, already.odd_coefficients)

    def test_twisted_z_recovers_plain_z(self):
        # 2z * exp(-z^2): alpha = 1 undoes the twist, beta = log 2.
        base = TruncatedOddSeries([1, 0, 0, 0])
        s = gauss_twist(base, -1.0, math.log(2.0))
        hat = hat_normalize(s)
        assert abs(hat.alpha - 1.0) <= 1e-15
        assert abs(hat.beta - math.log(2.0)) <= 1e-15
        assert np.allclose(hat.series.odd_coefficients, [1, 0, 0, 0], atol=1e-15)

    def test_reconstruction_relation(self):
        # input(z) = hat(z) * exp(-alpha*z^2 + beta)
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_omega_series(rng)
            hat = hat_normalize(s)
            rebuilt = gauss_twist(hat.series, -hat.alpha, hat.beta)
            assert np.allclose(
                rebuilt.odd_coefficients, s.odd_coefficients, rtol=1e-12, atol=1e-14
            )

    def test_not_in_omega(self):
        with pytest.raises(NotInOmegaError):
            hat_normalize(TruncatedOddSeries([0, 1, 0, 0]))

    @pytest.mark.parametrize("alpha", HUGE_ALPHAS)
    @pytest.mark.parametrize("degree", [7, 15, 31])
    def test_cubic_roundoff_is_judged_against_alpha(self, alpha, degree):
        # The twist cancels a3/a1 against alpha, leaving a cubic of about
        # 1e-16 |alpha| (1.1e-11 at 1e5(-1+i), whose head's hat coefficients
        # are about 1): it is snapped, not reported.
        s = gauss_twist(TruncatedOddSeries([1] + [0] * ((degree - 1) // 2)), alpha, 0.3 - 1j)
        hat = hat_normalize(s)
        assert abs(hat.alpha + alpha) <= 2e-16 * abs(alpha)
        assert pq_of_series(s).mu.tag == "undefined"

    def test_twist_leaving_cubic_term_is_numeric_error(self, monkeypatch):
        # Exact arithmetic always annihilates the cubic term; a twist that
        # does not is reported rather than snapped away.
        monkeypatch.setattr(sigmakit.invariants, "gauss_twist",
                            lambda s, alpha, beta: TruncatedOddSeries([1, 1e-3, 0, 0]))
        with pytest.raises(NumericError) as err:
            hat_normalize(SINE)
        assert err.value.diagnostics["cubic"] == [1e-3, 0.0]

    @pytest.mark.parametrize("a1", [1e308 + 1e308j, -1e308 - 1.2e308j, 1e308 - 1e308j])
    def test_leading_coefficient_near_the_largest_doubles(self, a1):
        # CPython's (1e308+1e308j)/(1e308+1e308j) is nan+0j; the quotient is
        # divided again at a power-of-two scale, which leaves hat = z exactly.
        s = TruncatedOddSeries([a1, 0, 0, 0])
        hat = hat_normalize(s)
        assert hat.series.odd_coefficients == (1, 0, 0, 0)
        assert hat.alpha == 0 and hat.beta == cmath.log(a1)
        # Its invariants are p = q = 0, but their zero-test scales (|a1|^3)
        # leave the doubles, as for every |a1| from about 1e103.
        for data in (s, TruncatedOddSeries([1e200, 0, 0, 0])):
            with pytest.raises(NumericError, match="zero-test scales are outside"):
                pq_of_series(data)

    def test_a_finite_quotient_keeps_its_bits(self):
        s = TruncatedOddSeries([3 - 1e-300j, 1.5, 2 + 1j, 1e300 + 1j])
        want = [c / s.leading for c in gauss_twist(s, -1.5 / s.leading, 0.0).odd_coefficients]
        got = hat_normalize(s).series.odd_coefficients
        assert got[2:] == tuple(want[2:])


class TestInvarianceProperties:
    def test_mu_invariant_under_gauge_action(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            s = random_omega_series(rng)
            base = pq_of_series(s)
            a = complex(*rng.uniform(-1.2, 1.2, 2))
            if abs(a) < 0.3:
                a += 0.5
            alpha = complex(*rng.uniform(-1, 1, 2))
            beta = complex(*rng.uniform(-1, 1, 2))
            moved = gauss_twist(scale_argument(s, a), alpha, beta)
            other = pq_of_series(moved)
            assert other.mu.tag == base.mu.tag
            if base.mu.is_finite and abs(base.mu.value) > 1e-8:
                rel = abs(other.mu.value - base.mu.value) / abs(base.mu.value)
                assert rel <= 1e-10

    def test_pq_covariance_under_argument_scaling(self):
        # Under the hat-preserving rescale h(z) -> h(a*z)/a, p scales by
        # a^4 and q by a^6 (checked directly on the coefficients).
        rng = np.random.default_rng(23)
        for _ in range(10):
            hat = hat_normalize(random_omega_series(rng)).series
            base = pq_of_series(hat)
            a = complex(*rng.uniform(-1.2, 1.2, 2))
            if abs(a) < 0.3:
                a += 0.5
            moved = scale_argument(hat, a)
            moved = TruncatedOddSeries([c / a for c in moved.odd_coefficients])
            scaled = pq_of_series(moved)
            assert abs(scaled.p - a**4 * base.p) <= 1e-10 * max(
                abs(a) ** 4 * abs(base.p), 1e-30
            )
            assert abs(scaled.q - a**6 * base.q) <= 1e-10 * max(
                abs(a) ** 6 * abs(base.q), 1e-30
            )

    def test_degenerate_family_detector(self):
        # p = q = 0 forces the hat form to be z through degree 7.
        rng = np.random.default_rng(24)
        base = TruncatedOddSeries([1, 0, 0, 0])
        for _ in range(10):
            alpha = complex(*rng.uniform(-1.5, 1.5, 2))
            beta = complex(*rng.uniform(-1.5, 1.5, 2))
            s = gauss_twist(base, alpha, beta)
            inv = pq_of_series(s)
            assert inv.mu.tag == "undefined"
            hat = hat_normalize(s)
            assert abs(hat.series.coefficient(5)) <= 1e-12
            assert abs(hat.series.coefficient(7)) <= 1e-12


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


class TestDegreeSevenHead:
    # The invariants twist only a1..a7.  Each Cauchy coefficient depends on
    # its own inputs alone and fsum is correctly rounded, so everything
    # through degree 7 keeps the bits of the full-series twist.

    @pytest.mark.parametrize("seed", [5, 17])
    def test_matches_the_full_series_reference_bit_for_bit(self, seed):
        for s in seeded_members_and_data(seed, 24):
            inv, hat = _invariants_and_hat(s)
            want_inv, want_hat = invariants_and_hat_reference(s)
            assert _bits(inv.p) == _bits(want_inv.p)
            assert _bits(inv.q) == _bits(want_inv.q)
            assert inv.mu.tag == want_inv.mu.tag
            if inv.mu.is_finite:
                assert _bits(inv.mu.value) == _bits(want_inv.mu.value)
            assert _bits(hat.alpha) == _bits(want_hat.alpha)
            assert _bits(hat.beta) == _bits(want_hat.beta)
            assert hat.series.max_degree == 7
            assert ([_bits(c) for c in hat.series.odd_coefficients]
                    == [_bits(c) for c in want_hat.series.odd_coefficients[:4]])
            assert pq_of_series(s) == inv

    def test_a_tail_whose_twist_overflows_is_not_read(self):
        # The twist by exp(10 z^2) of the 1e306 tail overflows; the
        # invariants never form it.
        s = TruncatedOddSeries([1, -10, 50, -166] + [1e306] * 12)
        with pytest.raises(NumericError):
            invariants_and_hat_reference(s)
        inv = pq_of_series(s)
        assert inv == pq_of_series(TruncatedOddSeries(s.odd_coefficients[:4]))
        assert inv.mu.is_finite

    def test_a_head_modulus_beyond_the_double_range_is_numeric_error(self):
        # |a5| passes the largest double while its parts do not; abs() of it
        # raised a bare OverflowError.
        with pytest.raises(NumericError):
            pq_of_series(TruncatedOddSeries([1, 0, 1.5e308 + 1.5e308j, 0]))


class TestZeroTestsScaleWithTheCancelledTerms:
    # For z * exp(alpha z^2 + beta), p and q are sums of terms of size
    # |alpha|^2 |a1|^2 and |alpha|^3 |a1|^3 that cancel exactly, so their
    # roundoff grows with alpha while the hat form stays z.

    @pytest.mark.parametrize("alpha", LARGE_ALPHAS)
    @pytest.mark.parametrize("degree", [7, 9, 15, 31])
    def test_linear_member_is_undefined(self, alpha, degree):
        s = gauss_twist(TruncatedOddSeries([1] + [0] * ((degree - 1) // 2)), alpha, 0.3 - 1j)
        inv = pq_of_series(s)
        assert inv.mu.tag == "undefined"
        # The reference's zero tests, scaled by the hat form alone, miss it.
        assert invariants_and_hat_reference(s)[0].mu.tag != "undefined"

    def test_invariants_far_above_the_roundoff_keep_their_tag(self):
        # sin(z) * exp(30 z^2): |p| = 1/90 and |q| = 1/945, against
        # cancelled terms of about 2 * 30^2 and 3 * 30^3.
        s = gauss_twist(TruncatedOddSeries([1, -1 / 6, 1 / 120, -1 / 5040]), 30, 0)
        inv = pq_of_series(s)
        assert inv.mu.is_finite
        assert abs(inv.mu.value - 49 / 40) <= 1e-8 * 49 / 40
