"""Lattice normalization, fundamental-domain reduction, j-inversion,
and evaluation of the Weierstrass sigma function.

A lattice is presented by a generator pair (omega1, omega2) and normalized
to the form rho * (Z + tau*Z) with tau in the fundamental domain of the
modular group.  Convention for the domain: Re(tau) in [-1/2, 1/2),
|tau| >= 1, and Re(tau) <= 0 on the unit circle; boundary ties are
resolved deterministically.

sigma(z, Lambda) is evaluated through the theta route

    sigma(z, Lambda) = theta1(z / rho, tau) * exp(alpha*z^2 + beta),

where (alpha, beta) is fixed by the normalization sigma'(0) = 1 and a
vanishing z^3 coefficient:

    beta  = log(rho / theta1'(0, tau)),
    alpha = -theta1'''(0, tau) / (6 * rho^2 * theta1'(0, tau)).

With this gauge the Taylor expansion starts z - (g2/240) z^5 - (g3/840) z^7
with g2, g3 the invariants of the full lattice.  With kappa = alpha*rho^2,
which depends on tau alone,

    sigma(z, Lambda) = theta1(w, tau) * exp(kappa*w^2) * rho/theta1'(0, tau),  w = z/rho.

``Lattice.gauge`` computes (kappa, beta, rho/theta1'(0, tau), terms) once per lattice,
on first use, from theta1's Horner form in its tau's record (``TauPoint._theta1``): e0 and
e1 give the gauge, and the Horner terms are kept for ``sigma_eval``.  It is the one place the
gauge is formed and the only reader of theta1's sum here; ``sigma_eval``, ``sigma_gauge`` and
``classify.synthesize`` read the gauge, and ``_gauge_alpha`` is the one place alpha is formed.
``sigma_eval`` needs no alpha, which overflows for |rho| below about
1e-154.  It adds theta1's quasi-periodic exponent to kappa*w^2 before one
exp, so sigma is found wherever it fits in a double even when theta1 or
the Gaussian alone does not.

``_lattice_from_g`` finds the lattice with given invariants (g2, g3) from
its periods by the complex AGM, singular only where the discriminant
vanishes.  It is the one route from invariants to tau, for ``classify``
and ``invert_j``, which also passes the exact discriminant of its pair.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import J_TOLERANCE, ConvergenceError, DomainError, NumericError
from .modular import TauPoint, _kept, _tau_point, _theta1_values, as_tau, j_invariant

# Boundary tolerance for fundamental-domain tie-breaking.
_EDGE = 1e-15

# The least double from which every double is an integer.
_INTEGRAL = 2.0**52

_CUBE_ROOTS = (1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75)))
_PI_SQUARED = math.pi**2


class UnimodularMap(namedtuple("UnimodularMap", "a b c d")):
    """Integer Moebius map (a*tau + b) / (c*tau + d) with a*d - b*c = 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise DomainError("unimodular map must have determinant exactly 1")
        return tuple.__new__(cls, (a, b, c, d))

    def apply(self, tau: complex) -> complex:
        tau = complex(tau)
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


def reduce_tau(tau) -> tuple[TauPoint, UnimodularMap]:
    """Move tau into the fundamental domain.

    Returns (reduced, map) with map.apply(tau) == reduced.  The reduced
    point satisfies Re in [-1/2, 1/2), |tau| >= 1, and Re <= 0 when
    |tau| = 1.  An inversion beyond the double range, for tau within about
    1e-308 of the real axis, raises NumericError.
    """
    return _reduce(as_tau(tau).value)


def _reduce(t: complex) -> tuple[TauPoint, UnimodularMap]:
    """``reduce_tau`` of a finite t with Im t > 0, built unchecked, since every fold
    keeps t finite, Im t > 0 and the determinant 1; + 0.0 flushes -0.0 as TauPoint does."""
    t = start = t + 0.0
    # The map so far, (a*tau + b)/(c*tau + d); each fold composes on the left.
    a, b, c, d = 1, 0, 0, 1
    for _ in range(256):
        # From 2^52 up every double is an integer, and t.real + 0.5 would
        # round an odd one up to its even neighbour.
        n = math.floor(t.real + 0.5) if abs(t.real) < _INTEGRAL else int(t.real)
        if n != 0:
            t -= n
            a, b = a - n * c, b - n * d
        r = abs(t)
        if r * r >= 1.0 - _EDGE:
            break
        t = -1.0 / t
        a, b, c, d = -c, -d, a, b
        if not cmath.isfinite(t):
            raise NumericError(f"reducing tau={start} inverts it beyond the double range",
                               diagnostics={"tau": start})
    else:
        raise ConvergenceError("fundamental-domain reduction did not terminate",
                               diagnostics={"tau": start})
    # The loop ends right after the floor step, which leaves Re t < 1/2:
    # x + 1/2 < n + 1 holds exactly, since rounding is monotone and n + 1
    # is a double.  The one boundary tie left is the unit circle, whose
    # right half folds to the left half.
    if abs(r - 1.0) <= _EDGE and t.real > _EDGE:
        # The fold takes the right corner to the left one, and a point a
        # rounding error from it can round left of Re = -1/2.
        t = -1.0 / t
        t = complex(max(t.real, -0.5), t.imag)
        a, b, c, d = -c, -d, a, b
    return _tau_point(t), tuple.__new__(UnimodularMap, (a, b, c, d))


class Lattice(namedtuple("Lattice",
                         "omega1 omega2 rho tau reduction orientation_flipped")):
    """A rank-2 lattice rho * (Z + tau*Z) with its original generators.

    ``reduction`` is the unimodular map that carried the oriented generator
    ratio into the fundamental domain, and ``orientation_flipped`` records
    whether omega2 had to be negated to make Im(omega2/omega1) positive.
    The point set rho * (Z + tau*Z) equals Z*omega1 + Z*omega2 exactly.
    The fields are read-only; the instance dict holds only the cached ``gauge``.
    """

    @_kept
    def gauge(self) -> tuple[complex, complex, complex, tuple[complex, ...]]:
        """(kappa, beta, rho/theta1'(0, tau), terms), kept for the life of the lattice:
        the first three from ``sigma_gauge_from_head``, with theta1'(0) = pi*e0 and
        theta1'''(0)/6 = pi^3*(e1 - e0/6) from the sum in tau's record (``TauPoint._theta1``),
        so kappa = pi^2/6 - pi^2*e1/e0, whose rounding the constant pi^2/6 bounds (e0 = 0 only
        where th1 underflows); terms are the record's own Horner terms, read by ``sigma_eval``."""
        terms, e0, e1 = self.tau._theta1
        kappa = _PI_SQUARED / 6.0 - _PI_SQUARED * e1 / e0 if e0 else 0.0
        return sigma_gauge_from_head(math.pi * e0, kappa, self.rho) + (terms,)


def normalize_lattice(omega1: complex, omega2: complex) -> Lattice:
    """Normalize a generator pair to rho * (Z + tau*Z), tau reduced.

    If Im(omega2/omega1) < 0 the second generator is negated (same point
    set) and the flip is recorded.  The scale rho absorbs the cofactor of
    the reduction so that rho * (Z + tau*Z) regenerates the input lattice
    point set exactly; when omega2/omega1 is already reduced, rho = omega1.
    """
    w1 = complex(omega1)
    w2 = complex(omega2)
    if not (cmath.isfinite(w1) and cmath.isfinite(w2)):
        raise DomainError("lattice generators must be finite")
    if w1 == 0 or w2 == 0:
        raise DomainError("lattice generators must be nonzero")
    ratio = w2 / w1
    if not cmath.isfinite(ratio):  # CPython's division can overflow although the quotient fits
        u = 2.0 ** -max(math.frexp(max(abs(w1.real), abs(w1.imag)))[1], -1023)
        ratio = q if cmath.isfinite(q := (w2 * u) / (w1 * u)) else ratio
    if abs(ratio.imag) <= 1e-14 * abs(ratio.real):  # |ratio| may pass the largest double
        raise DomainError("generators are collinear over the reals")
    if not cmath.isfinite(ratio):
        raise DomainError("tau must be finite")
    # Past both checks Im(ratio) is nonzero, and positive once flipped.
    flipped = ratio.imag < 0
    if flipped:
        ratio = -ratio
    tau, m = _reduce(ratio)
    return Lattice(w1, w2, w1 * (m.c * ratio + m.d), tau, m, flipped)


def lattice_from_rho_tau(rho: complex, tau) -> Lattice:
    """Build a lattice directly from a scale and an upper-half-plane point."""
    rho = complex(rho)
    if rho == 0:
        raise DomainError("rho must be nonzero")
    t = as_tau(tau).value
    return normalize_lattice(rho, rho * t)


def _agm(a: complex, b: complex) -> complex:
    """The AGM M(a, b) on its optimal branch: each geometric mean takes the
    sign nearer the arithmetic one, until |a - b| stops shrinking."""
    gap = abs(a - b)
    for _ in range(64):
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
        if not abs(a - b) < gap:
            return a
        gap = abs(a - b)
    raise ConvergenceError(f"the AGM of {a} and {b} did not converge in 64 steps")


def _lattice_from_g(g2: complex, g3: complex, delta: complex | None = None) -> Lattice:
    """The lattice whose invariants are (g2, g3), from its periods.

    With e1, e2, e3 the roots of 4x^3 - g2*x - g3 and a, b, c the square
    roots of e1 - e3, e1 - e2, e2 - e3, signed so that |a - b| <= |a + b|
    and |a - c| <= |a + c|, omega1 = pi/M(a, b) and omega2 = pi*i/M(a, c)
    generate the lattice (Cremona and Thongjunthug, J. Number Theory 133
    (2013); Cox, Enseign. Math. 30 (1984)); on Z + tau*Z, a^2, b^2, c^2 are
    pi^2 times theta3^4, theta4^4, theta2^4 (DLMF 23.6(i)).  The roots are
    those of the invariants (g2*u^4, g3*u^6) of Lambda/u, u the power of two
    that brings max(|g2|^(1/4), |g3|^(1/6)) near 1.  No root comes near e1,
    the largest; the other two are (-e1 +- r)/2 with r = sqrt(Delta)/(12*e1^2 - g2),
    by 4(e1 - e2)(e1 - e3) = 12*e1^2 - g2 and Delta = 16((e1 - e2)(e1 - e3)(e2 - e3))^2,
    so only the discriminant Delta = g2^3 - 27*g3^2 cancels.  A caller that
    knows it exactly passes it as ``delta``.  A vanishing discriminant, or a
    scale outside the double range, raises NumericError.
    """
    g2, g3 = complex(g2), complex(g3)
    # hypot is inf, where abs raises, beyond the double range.
    size = max(math.hypot(g2.real, g2.imag) ** 0.25, math.hypot(g3.real, g3.imag) ** (1 / 6))
    r = 0
    if 0 < size < math.inf:
        u = 2.0 ** -round(math.log2(size))
        h2, h3 = g2 * u * u * u * u, g3 * u * u * u * u * u * u
        # Formed after scaling, the cubes cannot overflow.  delta*u^12 is
        # exact: u is a power of two, and u^12 >= 2^-1032 for a finite j.
        d = h2 * h2 * h2 - 27.0 * h3 * h3 if delta is None else delta * u**12
        # Cardano: x = w + h2/(12*w) for each cube root w of (h3 +- sqrt(-d/27))/8.
        s = cmath.sqrt(-d / 27.0)
        w = (max(h3 + s, h3 - s, key=abs) / 8.0) ** (1.0 / 3.0)
        e1 = max((w * z + h2 / (12.0 * w * z) for z in _CUBE_ROOTS), key=abs)
        e1 -= ((4.0 * e1 * e1 - h2) * e1 - h3) / (12.0 * e1 * e1 - h2)
        r = cmath.sqrt(d) / (12.0 * e1 * e1 - h2)
    if r == 0:
        raise NumericError(
            f"no lattice has the invariants g2={g2}, g3={g3}: the discriminant vanishes "
            "or is outside the double range",
            diagnostics={"g2": g2, "g3": g3})
    a, b, c = cmath.sqrt(1.5 * e1 + 0.5 * r), cmath.sqrt(1.5 * e1 - 0.5 * r), cmath.sqrt(r)
    if abs(a - b) > abs(a + b):
        b = -b
    if abs(a - c) > abs(a + c):
        c = -c
    return normalize_lattice(math.pi * u / _agm(a, b), 1j * math.pi * u / _agm(a, c))


def invert_j(jval: complex, *, tolerance: float = J_TOLERANCE) -> TauPoint:
    """Find tau in the fundamental domain with j(tau) = jval.

    tau is that of the lattice with (g2, g3) = (3*jval^(1/3), sqrt(jval - 1728)),
    found by ``_lattice_from_g`` given its discriminant, exactly 27*1728 for
    every jval, so nothing cancels towards the cusp; a real jval outside
    (0, 1728) takes the exact real part of its edge.  An answer meets
    |j(tau) - jval| <= tolerance * max(1, |jval|); one that does not raises
    ConvergenceError carrying jval, tau and the residual.  A |jval| beyond
    the double range raises NumericError.
    """
    jval = complex(jval)
    if not (math.isfinite(jval.real) and math.isfinite(jval.imag)):
        raise DomainError("jval must be finite")
    if math.isinf(math.hypot(jval.real, jval.imag)):
        raise NumericError(f"|jval| for jval={jval} is outside the double range",
                           diagnostics={"jval": jval})
    tau = _lattice_from_g(3.0 * jval ** (1.0 / 3.0), cmath.sqrt(jval - 1728.0), 46656.0).tau
    if jval.imag == 0 and not 0 < jval.real < 1728:
        # Real j from 1728 up has tau on Re = 0, and from 0 down on Re = -1/2.
        tau = TauPoint(complex(0.0 if jval.real >= 1728 else -0.5, tau.value.imag))
    resid = abs(j_invariant(tau) - jval)
    if resid <= tolerance * max(1.0, abs(jval)):
        return tau
    raise ConvergenceError(
        f"invert_j failed for jval={jval}: j of the answer is off by {resid:.3e}",
        diagnostics={"jval": jval, "tau": tau.value, "residual": resid})


def sigma_gauge_from_head(th1: complex, kappa: complex,
                          rho: complex) -> tuple[complex, complex, complex]:
    """(kappa, beta, scale) with sigma(z, Lambda) = theta1(w, tau) * exp(kappa*w^2) * scale,
    w = z/rho.

    th1 = theta1'(0, tau), and kappa = -theta1'''(0, tau)/(6*th1) = alpha*rho^2 depends on
    tau alone (``_gauge_alpha`` gives alpha); scale = rho/th1 = exp(beta), beta the principal
    logarithm.  th1 underflows beyond Im tau of about 900, where scale overflows:
    NumericError.  So does a rho that CPython's division overflows on (1/rho = 0, from
    |rho| of about 1.3e308 off the axes), where every w = z/rho would be 0, and a scale
    below the normal doubles (|rho| below about 6e-308 at tau = i): too few digits.
    """
    if th1 == 0 or not cmath.isfinite(scale := rho / th1) or (rho and 1 / rho == 0):
        raise NumericError(f"the sigma gauge rho/theta1'(0) = {rho}/{th1} overflows",
                           diagnostics={"theta1_prime": complex(th1)})
    if max(abs(scale.real), abs(scale.imag)) < 2.0**-1022:
        raise NumericError(f"the sigma gauge rho/theta1'(0) = {rho}/{th1} underflows",
                           diagnostics={"theta1_prime": complex(th1)})
    return kappa, cmath.log(scale), scale


def _gauge_alpha(kappa: complex, rho: complex) -> complex:
    """alpha = kappa/rho^2.

    alpha leaves the double range where rho^2 does (|rho| below about
    1.6e-162 or above about 1.3e154) or is small enough (|rho| below about
    1e-154 at tau = i): NumericError.
    """
    # rho*rho equals rho**2 where that is finite, and does not raise.
    rho2 = rho * rho
    if rho2 == 0 or not cmath.isfinite(rho2) or not cmath.isfinite(alpha := kappa / rho2):
        raise NumericError(
            f"the sigma gauge alpha = kappa/rho^2 at rho={rho} is outside the double range",
            diagnostics={"rho": complex(rho), "kappa": complex(kappa)})
    return alpha


def sigma_gauge(lat: Lattice) -> tuple[complex, complex]:
    """The (alpha, beta) pair of the gauge, from ``lat.gauge``."""
    kappa, beta, _, _ = lat.gauge
    return _gauge_alpha(kappa, lat.rho), beta


def sigma_eval(z: complex, lat: Lattice) -> complex:
    """Weierstrass sigma of the lattice, normalized by sigma'(0) = 1.

    theta1 is summed on the terms that ``lat.gauge`` keeps with the gauge, by
    Horner's rule on the five factors at most of a reduced tau (``TERM_CAP`` = 200
    bounds a hand-built one).  The quasi-periodic
    exponent of theta1 is added to alpha*z^2, formed as kappa*(z/rho)^2,
    before one exp, since the two nearly cancel, so only a value outside the
    double range raises NumericError.
    """
    return _sigma_values((complex(z),), lat)[0]


def _sigma_values(zs, lat: Lattice) -> list[complex]:
    """``sigma_eval`` at each of zs; the first failing z picks the error."""
    kappa, _, scale, terms = lat.gauge
    values = _theta1_values(zs, lat.tau.value, terms, lat.rho, kappa, scale)
    if not all(map(cmath.isfinite, values)):
        z = next(z for z, v in zip(zs, values) if not cmath.isfinite(v))
        if not cmath.isfinite(z):
            raise DomainError("z must be finite")
        raise NumericError(f"sigma at z={z} is outside the double range",
                           diagnostics={"z": complex(z), "rho": lat.rho, "tau": lat.tau.value})
    return values
