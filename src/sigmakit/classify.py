"""Classification of odd Taylor data into the three families that satisfy
the four-point identity, and synthesis of series from a classification.

Every odd entire solution of the identity is, for some alpha, beta:

    linear:    z * exp(alpha*z^2 + beta)
    trig:      sin(a*z) * exp(alpha*z^2 + beta),  a != 0
    elliptic:  sigma(z, Lambda) * exp(alpha*z^2 + beta)  for a lattice Lambda

The decision runs on the invariants of the input: mu undefined (p = q = 0)
means linear; mu within a configurable tolerance of 49/40 means trig (the
cusp value, where the discriminant of the lattice vanishes); anything else
is elliptic.  The elliptic lattice is the one whose invariants the hat
coefficients name, g2 = -240*A and g3 = -840*B, found from its periods by
the complex AGM (``lattice._lattice_from_g``), which is singular only where
the discriminant vanishes; j = 1728*mu/(mu - 49/40) is reported as a
diagnostic.

Reported parameters follow fixed conventions: the scale a (and hence
1/rho) has Re > 0, or Im > 0 on the boundary Re = 0; beta is a principal
value, determined only modulo 2*pi*i; for elliptic results tau is reduced
and (rho, tau) identify the lattice only up to its unimodular basis
changes.  Flipping a to -a yields the same family member with beta
shifted by i*pi.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import (
    TRIG_TOLERANCE,
    VALIDATION_TOLERANCE,
    DomainError,
    IdentityNotSatisfiedError,
    NumericError,
    json_ready,
)
from .invariants import _invariants_and_hat
from .lattice import _gauge_alpha, _lattice_from_g, sigma_gauge_from_head
from .modular import TauPoint, theta1_odd_series
from .series import TruncatedOddSeries, gauss_twist, scale_argument

MU_TRIG = 49.0 / 40.0

_SIGN_NOTE = (
    "a normalized to Re(a) > 0 (Im(a) > 0 when Re(a) = 0); "
    "-a gives the same member with beta shifted by i*pi"
)


class Classification(namedtuple("Classification",
                                 "case alpha beta a rho tau diagnostics")):
    """Tagged family member: case in {'linear', 'trig', 'elliptic'}.

    ``diagnostics`` defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, case: str, alpha: complex, beta: complex, a: complex | None = None,
                rho: complex | None = None, tau: TauPoint | None = None,
                diagnostics: dict | None = None):
        if case not in ("linear", "trig", "elliptic"):
            raise DomainError(f"unknown case {case!r}")
        if case == "trig" and (a is None or a == 0):
            raise DomainError("trig classification requires a nonzero scale a")
        if case == "elliptic" and (rho is None or tau is None):
            raise DomainError("elliptic classification requires rho and tau")
        diagnostics = {} if diagnostics is None else diagnostics
        return tuple.__new__(cls, (case, alpha, beta, a, rho, tau, diagnostics))

    def to_json_dict(self) -> dict:
        doc = {"case": self.case, "alpha": json_ready(complex(self.alpha)),
               "beta": json_ready(complex(self.beta))}
        if self.a is not None:
            doc["a"] = json_ready(complex(self.a))
        if self.rho is not None:
            doc["rho"] = json_ready(complex(self.rho))
        if self.tau is not None:
            doc["tau"] = json_ready(self.tau.value)
        doc["diagnostics"] = dict(self.diagnostics)
        return doc


def _sign_normalize(a: complex) -> complex:
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        return -a
    return a


def classify(s: TruncatedOddSeries, *, trig_tolerance: float = TRIG_TOLERANCE,
             validation_tolerance: float = VALIDATION_TOLERANCE) -> Classification:
    """Identify the family of an odd series and recover its parameters.

    Input must carry a1 != 0 and coefficients through degree 7.  If data
    beyond degree 7 is present it is validated against the recovered
    member's closed-form series from ``synthesize``; a mismatch raises
    IdentityNotSatisfiedError, since degree-7 data alone is always
    realizable but higher coefficients are forced.
    """
    inv, hat = _invariants_and_hat(s)
    diagnostics = dict(inv.to_json_dict())
    diagnostics["sign_convention"] = _SIGN_NOTE

    if inv.mu.tag == "undefined":
        result = Classification(
            case="linear",
            alpha=-hat.alpha,
            beta=hat.beta,
            diagnostics=diagnostics,
        )
    else:
        big_a = hat.series.coefficient(5)
        big_b = hat.series.coefficient(7)
        p_hat = -2.0 * big_a
        q_hat = 3.0 * big_b
        is_trig = (
            inv.mu.tag == "finite"
            and abs(inv.mu.value - MU_TRIG) <= trig_tolerance * MU_TRIG
        )
        if is_trig:
            a_sq = -21.0 * q_hat / (2.0 * p_hat)
            a = _sign_normalize(cmath.sqrt(a_sq))
            result = Classification(
                case="trig",
                alpha=a_sq / 6.0 - hat.alpha,
                beta=hat.beta - cmath.log(a),
                a=a,
                diagnostics=diagnostics,
            )
        else:
            if inv.mu.tag == "infinity":
                j = 1728.0 + 0.0j
            else:
                j = 1728.0 * inv.mu.value / (inv.mu.value - MU_TRIG)
            diagnostics["j"] = json_ready(j)
            lat = _lattice_from_g(-240.0 * big_a, -840.0 * big_b)
            a = _sign_normalize(1.0 / lat.rho)
            result = Classification(
                case="elliptic",
                alpha=-hat.alpha,
                beta=hat.beta,
                rho=1.0 / a,
                tau=lat.tau,
                diagnostics=diagnostics,
            )

    if s.max_degree > 7:
        _validate_tail(s, result, validation_tolerance)
    return result


def _validate_tail(s: TruncatedOddSeries, c: Classification, tolerance: float):
    """Check coefficients beyond degree 7 against the member's closed form.

    ``synthesize(c, s.max_degree)`` is the recovered member's own Taylor
    series.  It is also the duplication recurrence's extension of the
    member's degree-7 data, which is unique because psi(n) != 0 for odd
    n >= 9; the closed form avoids the recurrence's 9x-per-degree gain on rounding.
    """
    got = s.odd_coefficients
    want = synthesize(c, s.max_degree).odd_coefficients
    scale = max(math.hypot(v.real, v.imag) for v in (*got, *want))
    if not math.isfinite(scale):
        # An infinite scale would let any tail pass.
        raise NumericError("the coefficient scale of the tail check is outside the double range")
    for k in range(4, len(got)):
        err = abs(got[k] - want[k])
        if err > tolerance * scale:
            raise IdentityNotSatisfiedError(
                f"coefficient at degree {2 * k + 1} is {got[k]}, but the "
                f"identity forces {want[k]} (|diff| = {err:.3e}, "
                f"tolerance {tolerance:.1e} * {scale:.3e})"
            )


def synthesize(c: Classification, max_degree: int) -> TruncatedOddSeries:
    """Odd series of the classified family member through max_degree.

    linear:    twist of z;
    trig:      sine Taylor series with argument scale a, then twist;
    elliptic:  theta series at tau, argument scale 1/rho, the gauge twist
               fixing sigma'(0) = 1 and a vanishing cubic term (from
               ``lattice.sigma_gauge_from_head``), then the classification's
               own twist.
    """
    if max_degree < 1 or max_degree % 2 == 0:
        raise DomainError("max_degree must be an odd integer >= 1")
    count = (max_degree + 1) // 2
    if c.case == "linear":
        base = TruncatedOddSeries([1.0] + [0.0] * (count - 1))
        return gauss_twist(base, c.alpha, c.beta)
    if c.case == "trig":
        sine = TruncatedOddSeries(
            [(-1.0) ** k / math.factorial(2 * k + 1) for k in range(count)]
        )
        return gauss_twist(scale_argument(sine, c.a), c.alpha, c.beta)
    # The gauge needs the cubic coefficient even when max_degree is 1.
    theta = theta1_odd_series(c.tau, max(max_degree, 3))
    th1, th3 = theta.odd_coefficients[:2]
    kappa, gauge_beta, _ = sigma_gauge_from_head(th1, th3, c.rho)
    twisted = gauss_twist(scale_argument(theta, 1.0 / c.rho),
                          _gauge_alpha(kappa, c.rho) + c.alpha, gauge_beta + c.beta)
    return TruncatedOddSeries(twisted.odd_coefficients[:count])
