"""Classification of odd Taylor data into the three families that satisfy
the four-point identity, and synthesis of series from a classification.

Every odd entire solution of the identity is, for some alpha, beta:

    linear:    z * exp(alpha*z^2 + beta)
    trig:      sin(a*z) * exp(alpha*z^2 + beta),  a != 0
    elliptic:  sigma(z, Lambda) * exp(alpha*z^2 + beta)  for a lattice Lambda

The decision reads the input through degree 7 only, since every higher
coefficient of a solution is forced by the duplication recurrence; a tail is checked
once, against ``synthesize`` of the recovered member, a sum of twisted sines.  It runs
on the invariants of the input: mu undefined (p = q = 0) means linear; mu
within a configurable tolerance of 49/40 means trig (the cusp value, where
the discriminant of the lattice vanishes); anything else is elliptic.
Every family starts from the gauge (alpha, beta) stripped by hat
normalization of the degree-7 head to h = z + A*z^5 + B*z^7, and adds only
its own correction: trig moves it by (a^2/6, -log a), a^2 = -21*q/(2*p)
with p = -2*A and q = 3*B the invariants of h; elliptic takes the lattice
whose invariants are g2 = -240*A and g3 = -840*B, found from its periods by
the complex AGM (``lattice._lattice_from_g``), which is singular only where
the discriminant vanishes, and reports j = 1728*mu/(mu - 49/40) as a
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
from .lattice import Lattice, _gauge_alpha, _lattice_from_g, lattice_from_rho_tau
from .modular import TauPoint, _theta1_table
from .series import TruncatedOddSeries, _computed

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

    Input must carry a1 != 0 and coefficients through degree 7, which
    alone decide the result.  If data beyond degree 7 is present it is
    validated, once, against the recovered member's closed-form series
    from ``synthesize``; a mismatch raises IdentityNotSatisfiedError, since
    degree-7 data alone is always realizable but higher coefficients are
    forced.
    """
    inv, hat = _invariants_and_hat(s)
    diagnostics = dict(inv.to_json_dict(), sign_convention=_SIGN_NOTE)
    big_a, big_b = hat.series.coefficient(5), hat.series.coefficient(7)
    alpha, beta = -hat.alpha, hat.beta
    a = rho = tau = lat = None
    if inv.mu.tag == "undefined":
        case = "linear"
    elif inv.mu.tag == "finite" and abs(inv.mu.value - MU_TRIG) <= trig_tolerance * MU_TRIG:
        case = "trig"
        a_sq = -21.0 * (3.0 * big_b) / (2.0 * (-2.0 * big_a))
        a = _sign_normalize(cmath.sqrt(a_sq))
        alpha, beta = a_sq / 6.0 - hat.alpha, hat.beta - cmath.log(a)
    else:
        case = "elliptic"
        j = (1728.0 + 0.0j if inv.mu.tag == "infinity"
             else 1728.0 * inv.mu.value / (inv.mu.value - MU_TRIG))
        diagnostics["j"] = json_ready(j)
        lat = _lattice_from_g(-240.0 * big_a, -840.0 * big_b)
        rho, tau = 1.0 / _sign_normalize(1.0 / lat.rho), lat.tau
    result = Classification(case, alpha, beta, a, rho, tau, diagnostics)

    if s.max_degree > 7:
        _validate_tail(s, result, validation_tolerance, lat)
    return result


def _validate_tail(s: TruncatedOddSeries, c: Classification, tolerance: float, lat: Lattice | None):
    """Check coefficients beyond degree 7 against the member's closed form.

    ``_synthesize(c, s.max_degree, lat)``, on classify's lattice lat, is the recovered member's
    own Taylor series, one twisted-sine recurrence per theta factor (O(T*K) for T factors and K
    odd coefficients), and the duplication recurrence's unique extension of its degree-7 data
    (psi(n) != 0 for odd n >= 9) without that recurrence's 9x-per-degree gain on rounding.
    """
    got = s.odd_coefficients
    want = _synthesize(c, s.max_degree, lat).odd_coefficients
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

    Each member is exp(alpha*z^2 + beta) * sum w*sin(b*z)/b over pairs (w, b^2),
    summed by ``_twisted_sines``: z is (1, 0) and sin(a*z) is (a, a^2); sigma(z) =
    scale*theta1(z/rho)*exp(kappa*z^2/rho^2), with (kappa, _, scale, _) the ``gauge`` of
    ``lattice_from_rho_tau(rho, tau)`` and theta1(w) = sum c_k*sin(w_k*w), w_k = (2k+1)*pi,
    is (scale*c_k*b_k, b_k^2) with b_k = w_k/rho, and adds kappa/rho^2 to alpha."""
    return _synthesize(c, max_degree, None)


def _synthesize(c: Classification, max_degree: int, lat: Lattice | None) -> TruncatedOddSeries:
    """``synthesize`` on lat, the lattice ``classify`` found for an elliptic c, if given."""
    if max_degree < 1 or max_degree % 2 == 0:
        raise DomainError("max_degree must be an odd integer >= 1")
    alpha, terms = c.alpha, [(c.a, c.a * c.a)] if c.case == "trig" else [(1.0, 0.0)]
    if c.case == "elliptic":
        lat = lat or lattice_from_rho_tau(c.rho, c.tau)
        kappa, _, scale, _ = lat.gauge
        alpha = _gauge_alpha(kappa, lat.rho) + alpha
        terms = [(scale * ck * (b := (2 * k + 1) * math.pi / lat.rho), b * b)
                 for k, ck in enumerate(_theta1_table(lat.tau, max_degree))]
    return _twisted_sines(terms, alpha, c.beta, (max_degree + 1) // 2)


def _twisted_sines(terms, alpha: complex, beta: complex, count: int) -> TruncatedOddSeries:
    """The first count odd coefficients of exp(beta) * sum w*S/b over pairs (w, b^2), where
    S = sin(b*z)*exp(alpha*z^2) and C = cos(b*z)*exp(alpha*z^2) obey the linear recurrence
    S' = C + 2*alpha*z*S, C' = 2*alpha*z*C - b^2*S: two steps per coefficient and pair."""
    out = [sum(w for w, _ in terms)] + [0j] * (count - 1)
    two_alpha = 2.0 * alpha
    for s, b2 in terms:
        cos = s
        for m in range(1, count):
            cos = (two_alpha * cos - b2 * s) / (2 * m)
            s = (cos + two_alpha * s) / (2 * m + 1)
            out[m] += s
    try:
        scale = cmath.exp(beta)
    except OverflowError:
        scale = math.inf
    if beta.real < -708.0 and max(abs(scale.real), abs(scale.imag)) < 2.0**-1022:
        raise NumericError(f"exp(beta={beta}) underflows", diagnostics={"beta": complex(beta)})
    return _computed([x * scale for x in out], "the family member's series")
