"""Taylor-coefficient invariants of odd functions.

For an odd entire function f = a1*z + a3*z^3 + a5*z^5 + a7*z^7 + ...
with a1 != 0, define

    p(f) = a3^2 - 2*a1*a5,
    q(f) = 3*a1^2*a7 - 3*a1*a3*a5 + a3^3,
    mu(f) = p(f)^3 / q(f)^2   as a point of the projective line.

mu is invariant under the substitution z -> a*z (a != 0) and under
multiplication by exp(alpha*z^2 + beta); p and q themselves are invariant
under the exponential factor with alpha only, and transform as
p -> a1^2 * a^4 * p, q -> a1^3 * a^6 * q under rescalings.  These exact
homogeneities drive both the classifier and the zero-detection thresholds
below.

Hat normalization strips the gauge: every admissible f can be written
f(z) = h(z) * exp(-alpha*z^2 + beta) where h = z + A*z^5 + B*z^7 + ... has
unit leading coefficient and no cubic term.  Then p(h) = -2*A and
q(h) = 3*B.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .errors import DomainError, NotInOmegaError, NumericError, json_ready
from .series import TruncatedOddSeries, _computed, gauss_twist

# Relative threshold below which p or q counts as exactly zero, measured
# against the scale powers described in mu_of_pq.
ZERO_TOL = 1e-12


class ProjectiveValue(namedtuple("ProjectiveValue", "tag value")):
    """A point of the projective line: finite, infinity, or undefined (0/0)."""

    __slots__ = ()

    def __new__(cls, tag: str, value: complex | None = None):
        if tag not in ("finite", "infinity", "undefined"):
            raise DomainError(f"unknown projective tag {tag!r}")
        if (tag == "finite") != (value is not None):
            raise DomainError("finite values carry a number; others do not")
        return tuple.__new__(cls, (tag, value))

    @classmethod
    def finite(cls, value: complex) -> "ProjectiveValue":
        return cls("finite", complex(value))

    @classmethod
    def infinity(cls) -> "ProjectiveValue":
        return cls("infinity")

    @classmethod
    def undefined(cls) -> "ProjectiveValue":
        return cls("undefined")

    @property
    def is_finite(self) -> bool:
        return self.tag == "finite"

    def to_json_dict(self) -> dict:
        doc = {"tag": self.tag}
        if self.is_finite:
            doc["value"] = json_ready(complex(self.value))
        return doc


class InvariantData(namedtuple("InvariantData", "p q mu")):
    """The complex invariants p and q with mu = p^3/q^2 as a ProjectiveValue."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"p": json_ready(complex(self.p)), "q": json_ready(complex(self.q)),
                "mu": self.mu.to_json_dict()}


class HatForm(namedtuple("HatForm", "series alpha beta")):
    """Gauge-normalized series plus the stripped parameters.

    ``series`` has leading coefficient exactly 1 and no cubic term, and the
    original input satisfies input(z) = series(z) * exp(-alpha*z^2 + beta),
    i.e. alpha = -a3/a1 and beta = log(a1) (principal branch; the original
    beta is recoverable only modulo 2*pi*i).
    """

    __slots__ = ()


def mu_of_pq(p: complex, q: complex, *, p_scale: float | None = None,
             q_scale: float | None = None) -> ProjectiveValue:
    """Projective ratio p^3/q^2 with scale-aware zero detection.

    p and q are homogeneous of degrees (2, 4) and (3, 6) in the leading
    coefficient and the argument scale, so "zero" must be judged against a
    4th and a 6th power of a characteristic scale.  When no scales are
    supplied they are inferred from the pair itself:
    s = max(|p|^(1/4), |q|^(1/6)), p_scale = s^4, q_scale = s^6.  Exact zeros are
    zero at any scale: p == q == 0 is undefined even where the scales overflow.
    """
    p = complex(p)
    q = complex(q)
    if p == 0 and q == 0:
        return ProjectiveValue.undefined()
    try:
        if p_scale is None or q_scale is None:
            s = max(abs(p) ** 0.25, abs(q) ** (1.0 / 6.0))
            p_scale = s**4
            q_scale = s**6
        p_zero = abs(p) <= ZERO_TOL * p_scale
        q_zero = abs(q) <= ZERO_TOL * q_scale
        mu = 0j if q_zero else p**3 / q**2
    except (OverflowError, ZeroDivisionError):
        mu = complex(math.inf)
    if not (cmath.isfinite(mu) and math.isfinite(q_scale)
            and cmath.isfinite(p) and cmath.isfinite(q)):
        raise NumericError("p^3/q^2 or its zero-test scales are outside the double range",
                           diagnostics={"p": p, "q": q})
    if p_zero and q_zero:
        return ProjectiveValue.undefined()
    if q_zero:
        return ProjectiveValue.infinity()
    return ProjectiveValue.finite(mu)


def hat_normalize(s: TruncatedOddSeries) -> HatForm:
    """Strip the exp(alpha*z^2 + beta) gauge from an odd series.

    Requires a1 != 0 and data through degree 7.  The returned series has
    a1 = 1 exactly and a3 snapped to zero (the twist annihilates it up to
    roundoff, judged against the larger of 1, |alpha| and the largest hat
    coefficient before snapping; NumericError otherwise).
    A hat coefficient outside the double range is a NumericError too.
    """
    if s.max_degree < 7:
        raise DomainError("hat normalization needs coefficients through degree 7")
    a1 = s.leading
    if a1 == 0:
        raise NotInOmegaError("leading odd coefficient vanishes")
    alpha = -s.coefficient(3) / a1
    twisted = gauss_twist(s, alpha, 0.0).odd_coefficients
    coeffs = [c / a1 for c in twisted]
    if not all(map(cmath.isfinite, coeffs)):  # CPython's division can fail where a quotient fits
        u = 2.0 ** -max(math.frexp(max(abs(a1.real), abs(a1.imag)))[1], -1023)
        coeffs = [q if cmath.isfinite(q) else c * u / (a1 * u) for q, c in zip(coeffs, twisted)]
    # hypot, since abs() raises where a modulus passes the largest double.
    scale = max(math.hypot(c.real, c.imag) for c in coeffs)
    # The cubic coefficient cancels a3/a1 against alpha, so its roundoff
    # grows with |alpha| (finite, since the twist formed alpha^3).
    if not (abs(coeffs[0] - 1.0) <= 64 * sys.float_info.epsilon
            and abs(coeffs[1]) <= 1e-12 * max(scale, 1.0, abs(alpha))):
        lead, cubic = coeffs[0], coeffs[1]
        raise NumericError(
            f"gauge twist left leading coefficient {lead} and cubic "
            f"coefficient {cubic}, expected 1 and 0 up to roundoff",
            diagnostics={"leading": lead, "cubic": cubic, "coefficient_scale": scale})
    coeffs[0] = 1.0 + 0j
    coeffs[1] = 0j
    return HatForm(series=_computed(coeffs, "the hat series"), alpha=complex(alpha),
                   beta=cmath.log(a1))


def pq_of_series(s: TruncatedOddSeries) -> InvariantData:
    """Invariants (p, q, mu) of an odd series with a1 != 0.

    p and q are evaluated exactly from a1, a3, a5, a7, and nothing beyond
    degree 7 is read.  The projective tag of mu uses thresholds scaled by
    the hat form and by the terms that p and q cancel: with A and B the
    degree-5 and degree-7 hat coefficients and t = max(1, |A|^(1/4),
    |B|^(1/6)), p counts as zero below ZERO_TOL times the larger of
    |a1|^2 * t^4 and |a3|^2 + 2*|a1*a5|, and q below ZERO_TOL times the
    larger of |a1|^3 * t^6 and 3*|a1^2*a7| + 3*|a1*a3*a5| + |a3|^3.  The
    hat-form scales match the exact homogeneities of p and q; the others
    grow with |alpha|^2 and |alpha|^3 where the hat form does not, so that
    the roundoff of a large gauge alpha is not taken for an invariant.
    """
    return _invariants_and_hat(s)[0]


def _invariants_and_hat(s: TruncatedOddSeries) -> tuple[InvariantData, HatForm]:
    """``pq_of_series`` together with the hat form of the degree-7 head.

    Only a1..a7 decide the invariants, so only they are twisted: each hat
    coefficient through degree 7 depends on a1..a7 alone and has the bits
    that the twist of the whole series would give it.  A caller that needs
    the tail checks it against the member it recovers (``classify``).
    """
    if s.max_degree < 7:
        raise DomainError("invariants need coefficients through degree 7")
    a1, a3, a5, a7 = s.odd_coefficients[:4]
    if a1 == 0:
        raise NotInOmegaError("leading odd coefficient vanishes")
    if a3 == a5 == a7 == 0:  # a1*z: p = q = 0, whose products overflow to NaN from |a1| ~ 1e154
        p = q = 0j
    else:
        p = a3 * a3 - 2.0 * a1 * a5
        q = 3.0 * a1 * a1 * a7 - 3.0 * a1 * a3 * a5 + a3 * a3 * a3
    hat = hat_normalize(_computed(s.odd_coefficients[:4], "the degree-7 head"))
    try:
        m1, m3, m5, m7, big_a, big_b = map(abs, (a1, a3, a5, a7, *hat.series.odd_coefficients[2:]))
    except OverflowError:
        raise NumericError("a coefficient's modulus is outside the double range") from None
    # Products overflow to inf rather than raising, and mu_of_pq reports it
    # (an inf times 0 is NaN, which max passes on when it comes first).
    t = max(1.0, big_a ** 0.25, big_b ** (1.0 / 6.0))
    x = m1 * t * t
    p_scale = max(m3 * m3 + 2.0 * m1 * m5, x * x)
    q_scale = max(3.0 * m1 * m1 * m7 + 3.0 * m1 * m3 * m5 + m3 * m3 * m3, x * x * x)
    mu = mu_of_pq(p, q, p_scale=p_scale, q_scale=q_scale)
    return InvariantData(p=p, q=q, mu=mu), hat
