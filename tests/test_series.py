import cmath
import math
import struct
import sys
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from conftest import cauchy_reference, odd_from_series, third_derivative, to_series
from sigmakit import (
    Classification,
    DomainError,
    NumericError,
    TauPoint,
    TruncatedOddSeries,
    TruncatedSeries,
    duplication_rhs,
    extend_series,
    gauss_twist,
    hat_normalize,
    multiply,
    scale_argument,
    synthesize,
    theta1_odd_series,
)
from sigmakit.series import _cauchy, _computed

SINE = TruncatedOddSeries([1, -1 / 6, 1 / 120, -1 / 5040])


def random_odd(rng, count=5):
    vals = rng.uniform(-1, 1, (count, 2))
    coeffs = [complex(a, b) for a, b in vals]
    if abs(coeffs[0]) < 0.1:
        coeffs[0] += 0.5
    return TruncatedOddSeries(coeffs)


class TestMultiply:
    def test_difference_of_squares(self):
        s1 = TruncatedSeries([1, 1, 0])
        s2 = TruncatedSeries([1, -1, 0])
        out = multiply(s1, s2)
        assert np.allclose(out.coefficients, [1, 0, -1])

    def test_multiplicative_identity(self):
        rng = np.random.default_rng(0)
        s = TruncatedSeries(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        one = TruncatedSeries([1] + [0] * 9)
        assert np.array_equal(multiply(s, one).coefficients, s.coefficients)

    def test_hand_cauchy_product(self):
        # (z - z^3/6)^2 = z^2 - z^4/3 + z^6/36
        s = TruncatedSeries([0, 1, 0, -1 / 6, 0, 0, 0])
        out = multiply(s, s)
        expected = [0, 0, 1, 0, -1 / 3, 0, 1 / 36]
        assert np.allclose(out.coefficients, expected, atol=1e-16)

    def test_order_mismatch_rejected(self):
        with pytest.raises(DomainError):
            multiply(TruncatedSeries([1, 2]), TruncatedSeries([1, 2, 3]))

    def test_commutative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s1 = TruncatedSeries(rng.standard_normal(10) + 1j * rng.standard_normal(10))
            s2 = TruncatedSeries(rng.standard_normal(10) + 1j * rng.standard_normal(10))
            assert np.allclose(
                multiply(s1, s2).coefficients,
                multiply(s2, s1).coefficients,
                rtol=1e-15,
                atol=1e-15,
            )

    def test_associative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b, c = (
                TruncatedSeries(rng.standard_normal(10) + 1j * rng.standard_normal(10))
                for _ in range(3)
            )
            left = multiply(multiply(a, b), c).coefficients
            right = multiply(a, multiply(b, c)).coefficients
            assert np.allclose(left, right, rtol=1e-13, atol=1e-13)


class TestScaleArgument:
    def test_doubling(self):
        out = scale_argument(TruncatedOddSeries([1, 1]), 2.0)
        assert np.allclose(out.odd_coefficients, [2, 8])

    def test_unit_scale_is_identity(self):
        rng = np.random.default_rng(1)
        s = random_odd(rng)
        out = scale_argument(s, 1.0)
        assert np.array_equal(out.odd_coefficients, s.odd_coefficients)

    def test_imaginary_unit(self):
        out = scale_argument(TruncatedOddSeries([1, 1]), 1j)
        assert np.allclose(out.odd_coefficients, [1j, -1j])

    def test_overflow_is_numeric_error(self):
        for s, a in ((TruncatedOddSeries([1e300, 1e308]), 2.0),
                     (TruncatedOddSeries([1, 1, 1, 1]), 1e100)):
            with pytest.raises(NumericError):
                scale_argument(s, a)

    def test_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = random_odd(rng)
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            b = complex(*rng.uniform(-1.5, 1.5, 2))
            two_step = scale_argument(scale_argument(s, a), b)
            one_step = scale_argument(s, a * b)
            assert np.allclose(
                two_step.odd_coefficients, one_step.odd_coefficients, rtol=1e-12
            )


class TestGaussTwist:
    def test_exponential_of_square(self):
        out = gauss_twist(TruncatedOddSeries([1, 0, 0, 0]), 1.0, 0.0)
        assert np.allclose(out.odd_coefficients, [1, 1, 1 / 2, 1 / 6])

    def test_constant_factor(self):
        out = gauss_twist(TruncatedOddSeries([1, 0]), 0.0, math.log(2.0))
        assert np.allclose(out.odd_coefficients, [2, 0])

    def test_sine_to_hat_form(self):
        out = gauss_twist(SINE, 1 / 6, 0.0)
        assert np.allclose(
            out.odd_coefficients, [1, 0, -1 / 180, -1 / 2835], atol=1e-16
        )

    def test_twist_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_odd(rng)
            alpha = complex(*rng.uniform(-1, 1, 2))
            beta = complex(*rng.uniform(-1, 1, 2))
            back = gauss_twist(gauss_twist(s, alpha, beta), -alpha, -beta)
            assert np.allclose(
                back.odd_coefficients, s.odd_coefficients, rtol=1e-12, atol=1e-14
            )


    @pytest.mark.parametrize("alpha, beta", [(-1e200, 0.0), (1e120, 0.0), (0.5, 800.0)])
    def test_overflow_is_numeric_error(self, alpha, beta):
        with pytest.raises(NumericError) as err:
            gauss_twist(SINE, alpha, beta)
        _assert_twist_error(err.value, alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(1e10, 0.0), (0.0, 50.0)])
    def test_overflow_in_the_product_is_the_same_error(self, alpha, beta):
        # Finite factors whose product or scaled product overflows raise the
        # twist's own error, not the generic one of a computed series.
        with pytest.raises(NumericError) as err:
            gauss_twist(TruncatedOddSeries([1e300] * 4), alpha, beta)
        _assert_twist_error(err.value, alpha, beta)


def _assert_twist_error(error, alpha, beta):
    """The twist's overflow message and diagnostics for real alpha, beta at degree 7."""
    assert str(error) == (f"the twist by exp({complex(alpha)}*z^2 + {complex(beta)}) "
                          "through degree 7 is outside the double range")
    assert error.diagnostics == {"alpha": [alpha, 0.0], "beta": [beta, 0.0], "max_degree": 7}


class TestDuplicationRhs:
    def test_plain_z(self):
        out = duplication_rhs(TruncatedOddSeries([1, 0]))
        assert np.allclose(out.odd_coefficients, [2, 0])

    def test_overflow_is_numeric_error(self):
        # Finite input whose quartic products overflow is a numeric
        # failure, not a non-finite (domain) input.
        for coeffs in ([1e100 + 1e100j, 1e100, 0, 0], [1e300, 0, 1e300, 0, 0]):
            with pytest.raises(NumericError):
                duplication_rhs(TruncatedOddSeries(coeffs))

    def test_sine_gives_sin_2z(self):
        sine11 = TruncatedOddSeries(
            [(-1) ** k / math.factorial(2 * k + 1) for k in range(6)]
        )
        out = duplication_rhs(sine11)
        expected = [(-1) ** k * 2 ** (2 * k + 1) / math.factorial(2 * k + 1)
                    for k in range(6)]
        assert np.allclose(out.odd_coefficients, expected, atol=1e-15)

    def test_cubic_perturbation_hand_expansion(self):
        # For f = z + z^3: f^3 f''' = 6z^3 + 18z^5 + 18z^7 + 6z^9,
        # f^2 f' f'' = 6z^3 + 30z^5 + 42z^7 + 18z^9,
        # f (f')^3 = z + 10z^3 + 36z^5 + 54z^7 + 27z^9,
        # so the combination is exactly 2z + 8z^3 + 6z^9.
        s = TruncatedOddSeries([1, 1, 0, 0, 0])
        out = duplication_rhs(s)
        assert np.allclose(out.odd_coefficients, [2, 8, 0, 0, 6], atol=1e-14)

    def test_min_degree_enforced(self):
        with pytest.raises(DomainError):
            duplication_rhs(TruncatedOddSeries([1]))

    def test_matches_log_derivative_numerically(self):
        candidates = [
            SINE,
            TruncatedOddSeries([1, 0.3 - 0.1j, -0.05 + 0.02j, 0.01 + 0.03j]),
        ]
        for s in candidates:
            rhs = duplication_rhs(s)
            for z0 in (0.1, 0.06 + 0.05j, -0.09 + 0.03j):
                # Step well below |z0|: the log has a singularity at 0.
                f4 = s.evaluate(z0) ** 4
                log3 = third_derivative(
                    lambda t: cmath.log(s.evaluate(z0 + t)), abs(z0) / 100
                )
                direct = f4 * log3
                via_series = rhs.evaluate(z0)
                assert abs(via_series - direct) <= 1e-6 * abs(direct)


class TestSeriesTypes:
    def test_rejects_non_finite(self):
        for cls in (TruncatedOddSeries, TruncatedSeries):
            for coeffs in ([1.0, float("nan")], [complex(float("inf"), 0)]):
                with pytest.raises(DomainError, match="finite"):
                    cls(coeffs)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError) as err:
            TruncatedOddSeries([object()])
        assert str(err.value) == "coefficients must be a non-empty 1-d sequence"
        assert isinstance(err.value.__cause__, TypeError)

    def test_coefficient_by_degree(self):
        s = TruncatedOddSeries([1, 2j])
        assert [s.coefficient(d) for d in range(4)] == [0, 1, 0, 2j]
        for degree in (-1, 4):
            with pytest.raises(DomainError) as err:
                s.coefficient(degree)
            assert str(err.value) == f"degree {degree} outside 0..3"

    def test_odd_roundtrip_through_full(self):
        s = TruncatedOddSeries([1, 2j, -0.5])
        back = odd_from_series(to_series(s))
        assert np.array_equal(back.odd_coefficients, s.odd_coefficients)

    def test_even_contamination_rejected(self):
        bad = TruncatedSeries([0, 1, 1e-3, 0.2])
        with pytest.raises(DomainError):
            odd_from_series(bad)

    def test_tiny_even_noise_tolerated(self):
        noisy = TruncatedSeries([0, 1, 1e-16, 0.2])
        out = odd_from_series(noisy)
        assert np.allclose(out.odd_coefficients, [1, 0.2])

    def test_json_roundtrip(self):
        s = TruncatedOddSeries([1 + 2j, -0.25, 0.125j, 3])
        doc = s.to_json_dict()
        assert doc["max_degree"] == 7
        back = TruncatedOddSeries.from_json_dict(doc)
        assert np.array_equal(back.odd_coefficients, s.odd_coefficients)

    def test_json_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            TruncatedOddSeries.from_json_dict(
                {"max_degree": 9, "odd_coefficients": [[1, 0]]}
            )

    def test_evaluate_agrees_with_horner_on_full(self):
        s = TruncatedOddSeries([1, -1j, 0.25])
        z = 0.3 + 0.4j
        assert abs(s.evaluate(z) - to_series(s).evaluate(z)) < 1e-15

    @pytest.mark.parametrize("values", ["1234", b"12", {3: 1, 5: 2}, MappingProxyType({1: 2}),
                                        [], ()],
                             ids=["str", "bytes", "dict", "mapping", "empty-list", "empty-tuple"])
    def test_rejects_empty_strings_and_mappings(self, values):
        # A str, bytes or mapping iterates as characters, ints or keys, which
        # complex() accepts.
        for cls in (TruncatedOddSeries, TruncatedSeries):
            with pytest.raises(DomainError, match="non-empty 1-d sequence"):
                cls(values)

    def test_computed_series_raise_numeric_error(self):
        for bad in ([1j, complex(math.inf, 0.0)], [complex(math.nan, math.nan)]):
            with pytest.raises(NumericError, match="the test series is outside the double range"):
                _computed(bad, "the test series")
        s = _computed([1j, 2.0 + 0j], "the test series")
        assert isinstance(s, TruncatedOddSeries) and s.odd_coefficients == (1j, 2.0 + 0j)

    def test_computed_series_hold_complex_coefficients(self):
        # _computed does not convert, so every caller must hand it complex
        # values; a float would print as a number instead of a [re, im] pair.
        trig = Classification(case="trig", alpha=0.1, beta=0.2j, a=1.3)
        elliptic = Classification(case="elliptic", alpha=0.1, beta=0.2j, rho=0.9,
                                  tau=TauPoint(0.1 + 1.2j))
        data = synthesize(trig, 9)
        for s in (data, synthesize(elliptic, 9), hat_normalize(data).series,
                  extend_series(data, 13), duplication_rhs(data), gauss_twist(data, 0.5, 0.0),
                  scale_argument(data, 2.0), theta1_odd_series(0.2j, 9)):
            assert {type(c) for c in s.odd_coefficients} == {complex}


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _draw_entry(rng):
    """A signed zero, a subnormal, a double near 1e308, a power of two of any
    binade, or a standard normal."""
    kind = rng.integers(6)
    sign = rng.choice((-1.0, 1.0))
    if kind == 0:
        return sign * 0.0
    if kind == 1:
        return sign * int(rng.integers(1, 1 << 20)) * 5e-324
    if kind == 2:
        return sign * rng.uniform(0.5, 1.79) * 1e308
    if kind == 3:
        return sign * 2.0 ** int(rng.integers(-1074, 1024))
    return rng.standard_normal()


def _part_products(a, b, n):
    """The rounded real products of the real and imaginary parts of coefficient n."""
    pairs = [(x, b[n - i]) for i, x in enumerate(a) if 0 <= n - i < len(b)]
    return ([x.real * y.real for x, y in pairs] + [-x.imag * y.imag for x, y in pairs],
            [x.real * y.imag for x, y in pairs] + [x.imag * y.real for x, y in pairs])


class TestCauchyKernel:
    def test_matches_the_reference_bit_for_bit(self):
        # fsum is correctly rounded, so a coefficient cannot depend on the
        # order of its products, unless a partial sum passes the double range:
        # then fsum raises in some orders, and the coefficient is a NaN there.
        rng = np.random.default_rng(2024)
        seen = {"exact": 0, "inf_product": 0, "partial_overflow": 0}
        for _ in range(300):
            a = [complex(_draw_entry(rng), _draw_entry(rng)) for _ in range(rng.integers(1, 9))]
            b = [complex(_draw_entry(rng), _draw_entry(rng)) for _ in range(rng.integers(1, 9))]
            for count in range(1, len(a) + len(b) + 1):
                got, want = _cauchy(a, b, count), cauchy_reference(a, b, count)
                assert len(got) == len(want) == count
                for n, (g, w) in enumerate(zip(got, want)):
                    parts = _part_products(a, b, n)
                    if not all(map(math.isfinite, parts[0] + parts[1])):
                        kind = "inf_product"
                    # At most 16 products a part, so the scaled sum cannot overflow.
                    elif all(math.fsum(abs(p) / 16 for p in ps) <= sys.float_info.max / 16
                             for ps in parts):
                        kind = "exact"
                    else:
                        kind = "partial_overflow"
                    seen[kind] += 1
                    if cmath.isfinite(g) and cmath.isfinite(w):
                        assert _bits(g) == _bits(w), (a, b, n)
                    else:
                        assert kind != "exact", (a, b, n)
                    if kind == "inf_product":
                        assert not cmath.isfinite(g) and not cmath.isfinite(w), (a, b, n)
        assert min(seen.values()) > 0, seen

    def test_an_overflowing_partial_sum_is_summed_again(self):
        # Against the exact sum of the rounded products: fsum raises where a
        # partial sum passes the double range, and the kernel then sums the
        # products again scaled by 2**-shift.  A part comes back correctly
        # rounded where the exact sum fits in a double, and NaN where it does
        # not.  Left unanswered: a product or a sum that the scaling makes
        # subnormal loses bits, so there the part is only within an ulp plus
        # (products + 1) * 2**(shift - 1075), with 2**shift <= 2**6 at these
        # lengths.
        rng = np.random.default_rng(308)
        seen = {"fits": 0, "beyond": 0, "subnormal": 0, "mended": 0}
        for _ in range(400):
            a = [complex(_draw_large(rng), _draw_large(rng)) for _ in range(rng.integers(1, 9))]
            b = [complex(_draw_factor(rng), _draw_factor(rng)) for _ in range(rng.integers(1, 9))]
            count = len(a) + len(b) - 1
            got, old = _cauchy(a, b, count), cauchy_reference(a, b, count)
            for n in range(len(got)):
                for g, w, ps in zip((got[n].real, got[n].imag), (old[n].real, old[n].imag),
                                    _part_products(a, b, n)):
                    if not all(map(math.isfinite, ps)):
                        continue
                    exact = sum(map(Fraction, ps))
                    if sum(map(abs, map(Fraction, ps))) <= sys.float_info.max:
                        # No partial sum can overflow, and fsum is correctly rounded.
                        assert g == float(exact), (a, b, n)
                        continue
                    try:
                        want = float(exact)
                    except OverflowError:
                        seen["beyond"] += 1
                        assert math.isnan(g), (a, b, n)
                        continue
                    tiny = 2.0 ** -1016
                    if abs(want) < tiny or any(0 < abs(p) < tiny for p in ps):
                        seen["subnormal"] += 1
                        lost = (len(ps) + 1) * Fraction(2) ** (6 - 1075)
                        assert abs(Fraction(g) - exact) <= Fraction(math.ulp(want)) + lost
                        continue
                    seen["fits"] += 1
                    assert g == want, (a, b, n)
                    seen["mended"] += math.isnan(w)
        assert min(seen["fits"], seen["beyond"], seen["mended"], seen["subnormal"]) > 0, seen

    def test_a_product_made_subnormal_by_the_scaling_loses_bits(self):
        # The case left unanswered.  The products of coefficient 4 are big,
        # big, -big, -big and 2**-1070, so the second partial sum overflows;
        # at the scale 2**-5 the last product is half the smallest subnormal
        # and rounds to 0, and the exact sum 2**-1070 comes back as 0.
        big = 1.5e308
        a = [big, big, -big, -big, 2.0 ** -1070]
        assert sum(map(Fraction, a)) == Fraction(2) ** -1070
        assert _cauchy([complex(x) for x in a], [1 + 0j] * 5, 5)[4] == 0


def _draw_large(rng):
    """A double near +-1e308 half the time, else a standard normal or any
    kind that ``_draw_entry`` draws."""
    kind = rng.integers(4)
    if kind < 2:
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.79) * 1e308
    return rng.standard_normal() if kind == 2 else _draw_entry(rng)


def _draw_factor(rng):
    """A factor of modulus about 1 that keeps a 1e308 product finite, or any
    kind that ``_draw_entry`` draws."""
    kind = rng.integers(4)
    return _draw_entry(rng) if kind == 3 else rng.uniform(-1.0, 1.0)
