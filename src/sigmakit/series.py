"""Truncated complex power-series arithmetic.

Series are represented by their coefficient vectors in binary64 complex.
A ``TruncatedSeries`` of order N stands for a residue class modulo z^(N+1):
its coefficients 0..N are meaningful and everything above is unknown.
``TruncatedOddSeries`` is the specialization used throughout the library
for odd entire functions; it stores only the odd coefficients
[a1, a3, ..., a_(2K+1)] and guarantees the even ones are exactly zero.

Degree bookkeeping convention: every operation documents the degree
through which its output is guaranteed valid, and output coefficients
beyond that degree are zero, never garbage.  For products of series of the
same order N, the retained coefficients of the Cauchy product are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

# Relative magnitude above which an even coefficient disqualifies a general
# series from conversion to odd form.
ODD_CONTAMINATION_TOL = 1e-14


def _as_coeff_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("coefficients must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError("coefficients must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class TruncatedSeries:
    """General power series truncated at a fixed order (inclusive)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = _as_coeff_array(coefficients)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1

    def coefficient(self, degree: int) -> complex:
        if not 0 <= degree <= self.order:
            raise DomainError(f"degree {degree} outside 0..{self.order}")
        return complex(self.coefficients[degree])

    def evaluate(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return complex(acc)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"


class TruncatedOddSeries:
    """Odd series a1*z + a3*z^3 + ... + a_(2K+1)*z^(2K+1)."""

    __slots__ = ("odd_coefficients",)

    def __init__(self, odd_coefficients):
        self.odd_coefficients = _as_coeff_array(odd_coefficients)

    @property
    def max_degree(self) -> int:
        return 2 * self.odd_coefficients.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.odd_coefficients[0])

    def coefficient(self, degree: int) -> complex:
        if not 0 <= degree <= self.max_degree:
            raise DomainError(f"degree {degree} outside 0..{self.max_degree}")
        if degree % 2 == 0:
            return 0.0 + 0.0j
        return complex(self.odd_coefficients[degree // 2])

    def to_series(self) -> TruncatedSeries:
        full = np.zeros(self.max_degree + 1, dtype=complex)
        full[1::2] = self.odd_coefficients
        return TruncatedSeries(full)

    @classmethod
    def from_series(cls, s: TruncatedSeries, tol: float = ODD_CONTAMINATION_TOL):
        """Convert a general series, rejecting nonzero even coefficients.

        Even entries are compared against the largest coefficient magnitude;
        anything above ``tol`` relative makes the series non-odd.
        """
        coeffs = s.coefficients
        if s.order % 2 == 0:
            coeffs = coeffs[:-1] if s.order > 0 else coeffs
        if coeffs.size < 2:
            raise DomainError("series order must be at least 1 for odd form")
        scale = float(np.max(np.abs(s.coefficients)))
        even = s.coefficients[0::2]
        if scale > 0 and float(np.max(np.abs(even))) > tol * scale:
            raise DomainError("series has nonzero even coefficients; not odd")
        return cls(coeffs[1::2])

    def evaluate(self, z: complex) -> complex:
        w = z * z
        acc = 0.0 + 0.0j
        for a in self.odd_coefficients[::-1]:
            acc = acc * w + a
        return complex(acc * z)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "odd_coefficients": [[c.real, c.imag] for c in self.odd_coefficients],
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
    prod = np.convolve(s1.coefficients, s2.coefficients)[: s1.order + 1]
    return TruncatedSeries(prod)


def scale_argument(s: TruncatedOddSeries, a: complex) -> TruncatedOddSeries:
    """Substitute z -> a*z, multiplying a_n by a**n."""
    a = complex(a)
    degrees = 2 * np.arange(s.odd_coefficients.size) + 1
    return TruncatedOddSeries(s.odd_coefficients * a**degrees)


def gauss_twist(s: TruncatedOddSeries, alpha: complex, beta: complex) -> TruncatedOddSeries:
    """Multiply an odd series by exp(alpha*z**2 + beta).

    The factor is even, so the result is odd again; valid through the input
    max_degree.  Twisting by (alpha, beta) and then (-alpha, -beta) is the
    identity up to truncation and roundoff.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    k = s.odd_coefficients.size
    try:
        even = np.array([alpha**j / math.factorial(j) for j in range(k)], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.convolve(s.odd_coefficients, even)[:k] * np.exp(beta)
    except OverflowError:
        out = None
    if out is None or not np.isfinite(out).all():
        raise NumericError(
            f"the twist by exp({alpha}*z^2 + {beta}) through degree "
            f"{s.max_degree} is outside the double range",
            diagnostics={"alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag],
                         "max_degree": s.max_degree},
        )
    return TruncatedOddSeries(out)


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(coeffs)
    out[:-1] = coeffs[1:] * np.arange(1, coeffs.size)
    return out


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
    f = s.to_series().coefficients
    f1 = _derivative(f)
    f2 = _derivative(f1)
    f3 = _derivative(f2)
    n = f.size

    def mul(a, b):
        return np.convolve(a, b)[:n]

    ff = mul(f, f)
    term1 = mul(mul(ff, f), f3)
    term2 = mul(ff, mul(f1, f2))
    term3 = mul(f, mul(f1, mul(f1, f1)))
    total = term1 - 3.0 * term2 + 2.0 * term3
    # Even slots of the convolutions are exactly zero (every product
    # carries an exactly-zero factor), so the odd entries are the result.
    return TruncatedOddSeries(total[1::2])
