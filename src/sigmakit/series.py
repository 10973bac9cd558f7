"""Truncated complex power-series arithmetic.

Series are represented by tuples of binary64 ``complex`` coefficients.
A ``TruncatedSeries`` of order N stands for a residue class modulo z^(N+1):
its coefficients 0..N are meaningful and everything above is unknown.
``TruncatedOddSeries`` is the specialization used throughout the library
for odd entire functions; it stores only the odd coefficients
(a1, a3, ..., a_(2K+1)) and guarantees the even ones are exactly zero.

Degree bookkeeping convention: every operation documents the degree
through which its output is guaranteed valid, and output coefficients
beyond that degree are zero, never garbage.  For products of series of the
same order N, the retained coefficients of the Cauchy product are exact.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from operator import mul

from .errors import DomainError, NumericError, json_ready

def _as_coefficients(values) -> tuple[complex, ...]:
    try:
        # A str, bytes or mapping iterates as characters, ints or keys.
        coeffs = () if isinstance(values, (str, bytes, Mapping)) else tuple(map(complex, values))
    except (TypeError, ValueError) as exc:
        raise DomainError("coefficients must be a non-empty 1-d sequence") from exc
    if not coeffs:
        raise DomainError("coefficients must be a non-empty 1-d sequence")
    if not all(map(cmath.isfinite, coeffs)):
        raise DomainError("coefficients must be finite (no NaN/Inf)")
    return coeffs


def _computed(coeffs, what: str) -> "TruncatedOddSeries":
    """An odd series of computed complex coefficients, validated once here: a
    non-finite one is an overflow of finite input, NumericError, not DomainError."""
    if not all(map(cmath.isfinite, coeffs)):
        raise NumericError(f"{what} is outside the double range")
    s = object.__new__(TruncatedOddSeries)
    s.odd_coefficients = tuple(coeffs)
    return s


def _cauchy(a, b, count: int) -> list[complex]:
    """First ``count`` coefficients of the product of two coefficient lists.

    The lists are polynomials in one variable; callers holding odd or even
    series pass their coefficients in z^2 and track the parity (the powers
    of z factored out) themselves.  Each coefficient is the correctly
    rounded sum of its rounded real products (``math.fsum``), whatever their
    order, also where a partial sum overflows, unless the rescaling below
    turns a product subnormal.  ``extend_series`` amplifies the
    rounding of ``duplication_rhs`` by the cancellation in its residuals,
    and a running sum was measurably less accurate there.
    """
    last_b = len(b) - 1
    # a as (re, im) pairs, b reversed as (re, -im) and (im, re) pairs: b[n - i]
    # sits at pair last_b - n + i, and map stops at the shorter list, so each
    # slice needs only its start.
    a_flat = [x for c in a for x in (c.real, c.imag)]
    b_conj = [x for c in reversed(b) for x in (c.real, -c.imag)]
    b_swap = [x for c in reversed(b) for x in (c.imag, c.real)]
    out = []
    for n in range(count):
        j = 2 * (last_b - n)
        x, yr, yi = (a_flat, b_conj[j:], b_swap[j:]) if j >= 0 else (a_flat[-j:], b_conj, b_swap)
        try:
            out.append(complex(math.fsum(map(mul, x, yr)), math.fsum(map(mul, x, yi))))
        except (OverflowError, ValueError):
            # fsum refuses a partial sum that overflows, and inf - inf.  So
            # each part is summed again, after an overflow with its products
            # scaled by 2**-shift (exact unless one turns subnormal; every
            # partial sum then stays below half the largest double) and the
            # sum scaled back.  A part still out of range is NaN, which the
            # callers report as a NumericError.
            shift = len(x).bit_length() + 1
            parts = [math.nan, math.nan]
            for i, y in enumerate((yr, yi)):
                for e in (0, shift):
                    try:
                        parts[i] = math.ldexp(
                            math.fsum([math.ldexp(p, -e) for p in map(mul, x, y)]), e)
                        break
                    except OverflowError:
                        continue
                    except ValueError:
                        break
            out.append(complex(*parts))
    return out


class TruncatedSeries:
    """General power series truncated at a fixed order (inclusive)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = _as_coefficients(coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> complex:
        if not 0 <= degree <= self.order:
            raise DomainError(f"degree {degree} outside 0..{self.order}")
        return self.coefficients[degree]

    def evaluate(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"


class TruncatedOddSeries:
    """Odd series a1*z + a3*z^3 + ... + a_(2K+1)*z^(2K+1)."""

    __slots__ = ("odd_coefficients",)

    def __init__(self, odd_coefficients):
        self.odd_coefficients = _as_coefficients(odd_coefficients)

    @property
    def max_degree(self) -> int:
        return 2 * len(self.odd_coefficients) - 1

    @property
    def leading(self) -> complex:
        return self.odd_coefficients[0]

    def coefficient(self, degree: int) -> complex:
        if not 0 <= degree <= self.max_degree:
            raise DomainError(f"degree {degree} outside 0..{self.max_degree}")
        if degree % 2 == 0:
            return 0.0 + 0.0j
        return self.odd_coefficients[degree // 2]

    def evaluate(self, z: complex) -> complex:
        w = z * z
        acc = 0.0 + 0.0j
        for a in reversed(self.odd_coefficients):
            acc = acc * w + a
        return acc * z

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "odd_coefficients": json_ready(self.odd_coefficients),
        }

    @classmethod
    def from_json_dict(cls, doc: dict):
        try:
            coeffs = [complex(re, im) for re, im in doc["odd_coefficients"]]
            max_degree = int(doc["max_degree"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed odd-series document: {exc}") from exc
        s = cls(coeffs)
        if s.max_degree != max_degree:
            raise DomainError(
                f"max_degree {max_degree} inconsistent with "
                f"{len(coeffs)} odd coefficients"
            )
        return s

    def __repr__(self) -> str:
        return f"TruncatedOddSeries(max_degree={self.max_degree})"


def multiply(s1: TruncatedSeries, s2: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    Both inputs must carry the same order; each retained coefficient of the
    result is exact.
    """
    if s1.order != s2.order:
        raise DomainError(
            f"order mismatch: {s1.order} vs {s2.order}; truncate to a common order first"
        )
    return TruncatedSeries(_cauchy(s1.coefficients, s2.coefficients, s1.order + 1))


def scale_argument(s: TruncatedOddSeries, a: complex) -> TruncatedOddSeries:
    """Substitute z -> a*z, multiplying a_n by a**n."""
    a = complex(a)
    try:
        coeffs = [c * a ** (2 * k + 1) for k, c in enumerate(s.odd_coefficients)]
    except OverflowError:
        coeffs = [complex(math.inf)]
    return _computed(coeffs, "the argument scaling")


def gauss_twist(s: TruncatedOddSeries, alpha: complex, beta: complex) -> TruncatedOddSeries:
    """Multiply an odd series by exp(alpha*z**2 + beta).

    The factor is even, so the result is odd again; valid through the input
    max_degree.  Twisting by (alpha, beta) and then (-alpha, -beta) is the
    identity up to truncation and roundoff.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    k = len(s.odd_coefficients)
    try:
        # exp(alpha*w) in w = z^2, times the odd coefficients (f/z in w).
        even = [alpha**j / math.factorial(j) for j in range(k)]
        scale = cmath.exp(beta)
        return _computed([c * scale for c in _cauchy(s.odd_coefficients, even, k)], "the twist")
    except (OverflowError, NumericError):
        raise NumericError(
            f"the twist by exp({alpha}*z^2 + {beta}) through degree "
            f"{s.max_degree} is outside the double range",
            diagnostics={"alpha": alpha, "beta": beta, "max_degree": s.max_degree}) from None


def duplication_rhs(s: TruncatedOddSeries) -> TruncatedOddSeries:
    """Odd series of f^3*f''' - 3*f^2*f'*f'' + 2*f*(f')^3.

    This polynomial combination equals f(z)^4 * (log f(z))''' wherever f is
    nonzero, and it is the right-hand side of the duplication equation
    f'(0)^3 * f(2z) = f^4 * (log f)'''.  The output is valid through the
    input max_degree: the truncation error of f enters every monomial with
    at least two extra powers of z, so coefficients up to max_degree are
    the true ones.
    """
    if s.max_degree < 3:
        raise DomainError("duplication_rhs needs max_degree >= 3")
    # Coefficient lists in w = z^2: f = z*f0, f' = f1, f'' = z*f2, f''' = f3.
    f0 = s.odd_coefficients
    k = len(f0)
    f1 = [c * (2 * i + 1) for i, c in enumerate(f0)]
    f2 = [c * (2 * i) for i, c in enumerate(f1) if i > 0]
    f3 = [c * (2 * i + 1) for i, c in enumerate(f2)]
    ff = _cauchy(f0, f0, k)
    # f^3 f''' and f^2 f' f'' carry z^3, f (f')^3 carries z.
    term1 = _cauchy(_cauchy(ff, f0, k), f3, k - 1)
    term2 = _cauchy(ff, _cauchy(f1, f2, k - 1), k - 1)
    term3 = _cauchy(f0, _cauchy(f1, _cauchy(f1, f1, k), k), k)
    return _computed(
        [2.0 * term3[0]]
        + [t1 - 3.0 * t2 + 2.0 * t3 for t1, t2, t3 in zip(term1, term2, term3[1:])],
        "the duplication right-hand side",
    )
