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

``Lattice.gauge`` computes (kappa, beta, rho/theta1'(0, tau)) once per
lattice, on first use, from ``Lattice.theta_table``; ``sigma_eval`` and
``sigma_gauge`` read it, ``sigma_gauge_from_head`` is the one place the
formula is written, and ``_gauge_alpha`` the one place alpha is formed.
``sigma_eval`` needs no alpha, which overflows for |rho| below about
1e-154.  It adds theta1's quasi-periodic exponent to kappa*w^2 before one
exp, so sigma is found wherever it fits in a double even when theta1 or
the Gaussian alone does not.

``_lattice_from_g`` finds the lattice with given invariants (g2, g3) from
its periods by the complex AGM, singular only where the discriminant
vanishes.  ``classify`` and ``invert_j`` (for |jval| <= 2000) use it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import J_TOLERANCE, TERM_CAP, ConvergenceError, DomainError, NumericError
from .modular import (
    TauPoint,
    _j_and_derivative,
    _theta1_table,
    _theta1_values,
    as_tau,
    j_invariant,
)

# Boundary tolerance for fundamental-domain tie-breaking.
_EDGE = 1e-15

# The least double from which every double is an integer.
_INTEGRAL = 2.0**52

_CUBE_ROOTS = (1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75)))


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
    t = start = as_tau(tau).value
    # The map so far, (a*tau + b)/(c*tau + d); each fold composes on the left.
    a, b, c, d = 1, 0, 0, 1
    for _ in range(256):
        # From 2^52 up every double is an integer, and t.real + 0.5 would
        # round an odd one up to its even neighbour.
        n = math.floor(t.real + 0.5) if abs(t.real) < _INTEGRAL else int(t.real)
        if n != 0:
            t -= n
            a, b = a - n * c, b - n * d
        if abs(t) * abs(t) < 1.0 - _EDGE:
            t = -1.0 / t
            a, b, c, d = -c, -d, a, b
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
    # Deterministic boundary ties: the right edge Re = 1/2 (reached when
    # the floor rounds) folds to the left edge, and the right half of the
    # unit circle folds to the left half.  The edge test has no tolerance:
    # a fold from Re = 1/2 - d would land at -1/2 - d, outside the domain
    # (and would undo the floor's shift of a point just left of -1/2).
    if t.real >= 0.5:
        t -= 1
        a, b = a - c, b - d
    if abs(abs(t) - 1.0) <= _EDGE and t.real > _EDGE:
        # The fold takes the right corner to the left one, and a point a
        # rounding error from it can round left of Re = -1/2.
        t = -1.0 / t
        t = complex(max(t.real, -0.5), t.imag)
        a, b, c, d = -c, -d, a, b
    return TauPoint(t), UnimodularMap(a, b, c, d)


class _kept:
    """A value computed from the instance on first access and kept in its dict.

    A non-data descriptor: the instance dict entry it writes answers every
    later access without calling it.  Unlike ``functools.cached_property``
    on Python 3.11, it takes no lock, so two threads may both compute the
    value on a first access; they store the same value.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


class Lattice(namedtuple("Lattice",
                         "omega1 omega2 rho tau reduction orientation_flipped")):
    """A rank-2 lattice rho * (Z + tau*Z) with its original generators.

    ``reduction`` is the unimodular map that carried the oriented generator
    ratio into the fundamental domain, and ``orientation_flipped`` records
    whether omega2 had to be negated to make Im(omega2/omega1) positive.
    The point set rho * (Z + tau*Z) equals Z*omega1 + Z*omega2 exactly.
    The fields are read-only; the instance dict holds only the cached
    ``theta_table`` and ``gauge``.
    """

    @_kept
    def theta_table(self) -> tuple[complex, ...]:
        """theta1's factors at tau (``modular._theta1_table``), kept for life."""
        return _theta1_table(self.tau.value, TERM_CAP, 1)

    @_kept
    def gauge(self) -> tuple[complex, complex, complex]:
        """(kappa, beta, rho/theta1'(0, tau)) from ``sigma_gauge_from_head``, kept
        for the life of the lattice, with theta1'(0) = sum c_k*w_k and
        theta1'''(0)/6 = -sum c_k*w_k^3/6, w_k = (2k+1)*pi, over ``theta_table``."""
        th1 = th3 = 0
        for k, c in enumerate(self.theta_table):
            w = (2 * k + 1) * math.pi
            th1 += c * w
            th3 += c * w**3
        return sigma_gauge_from_head(th1, -th3 / 6.0, self.rho)


def normalize_lattice(omega1: complex, omega2: complex) -> Lattice:
    """Normalize a generator pair to rho * (Z + tau*Z), tau reduced.

    If Im(omega2/omega1) < 0 the second generator is negated (same point
    set) and the flip is recorded.  The scale rho absorbs the cofactor of
    the reduction so that rho * (Z + tau*Z) regenerates the input lattice
    point set exactly; when omega2/omega1 is already reduced, rho = omega1.
    """
    w1 = complex(omega1)
    w2 = complex(omega2)
    for w in (w1, w2):
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise DomainError("lattice generators must be finite")
    if w1 == 0 or w2 == 0:
        raise DomainError("lattice generators must be nonzero")
    ratio = w2 / w1
    if abs(ratio.imag) <= 1e-14 * abs(ratio):
        raise DomainError("generators are collinear over the reals")
    flipped = ratio.imag < 0
    if flipped:
        ratio = -ratio
    tau, m = reduce_tau(ratio)
    rho = w1 * (m.c * ratio + m.d)
    return Lattice(
        omega1=w1,
        omega2=w2,
        rho=rho,
        tau=tau,
        reduction=m,
        orientation_flipped=flipped,
    )


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


def _lattice_from_g(g2: complex, g3: complex) -> Lattice:
    """The lattice whose invariants are (g2, g3), from its periods.

    With e1, e2, e3 the roots of 4x^3 - g2*x - g3 and a, b, c the square
    roots of e1 - e3, e1 - e2, e2 - e3, signed so that |a - b| <= |a + b|
    and |a - c| <= |a + c|, omega1 = pi/M(a, b) and omega2 = pi*i/M(a, c)
    generate the lattice (Cremona and Thongjunthug, J. Number Theory 133
    (2013); Cox, Enseign. Math. 30 (1984)); on Z + tau*Z, a^2, b^2, c^2 are
    pi^2 times theta3^4, theta4^4, theta2^4 (DLMF 23.6(i)).  The roots are
    those of the invariants (g2*u^4, g3*u^6) of Lambda/u, u the power of two
    that brings max(|g2|^(1/4), |g3|^(1/6)) near 1.  A vanishing
    discriminant, or a scale outside the double range, raises NumericError.
    """
    g2, g3 = complex(g2), complex(g3)
    # hypot is inf, where abs raises, beyond the double range.
    size = max(math.hypot(g2.real, g2.imag) ** 0.25, math.hypot(g3.real, g3.imag) ** (1 / 6))
    r = 0
    if 0 < size < math.inf:
        u = 2.0 ** -round(math.log2(size))
        h2, h3 = g2 * u * u * u * u, g3 * u * u * u * u * u * u
        # Cardano: x = w + h2/(12*w) for each cube root w of (h3 +- d)/8.
        d = cmath.sqrt(h3 * h3 - h2 * h2 * h2 / 27.0)
        w = (max(h3 + d, h3 - d, key=abs) / 8.0) ** (1.0 / 3.0)
        e1 = max((w * z + h2 / (12.0 * w * z) for z in _CUBE_ROOTS), key=abs)
        e1 -= ((4.0 * e1 * e1 - h2) * e1 - h3) / (12.0 * e1 * e1 - h2)
        # No root comes near e1, the largest.  The other two are
        # (-e1 +- r)/2 by their sum -e1 and product h3/(4*e1), so only r
        # cancels, as the discriminant does.
        r = cmath.sqrt(e1 * e1 - h3 / e1)
    if r == 0:
        raise NumericError(
            f"no lattice has the invariants g2={g2}, g3={g3}: the discriminant vanishes "
            "or is outside the double range",
            diagnostics={"g2": [g2.real, g2.imag], "g3": [g3.real, g3.imag]})
    a, b, c = cmath.sqrt(1.5 * e1 + 0.5 * r), cmath.sqrt(1.5 * e1 - 0.5 * r), cmath.sqrt(r)
    if abs(a - b) > abs(a + b):
        b = -b
    if abs(a - c) > abs(a + c):
        c = -c
    return normalize_lattice(math.pi * u / _agm(a, b), 1j * math.pi * u / _agm(a, c))


def invert_j(jval: complex, *, tolerance: float = J_TOLERANCE, max_iterations: int = 60) -> TauPoint:
    """Find tau in the fundamental domain with j(tau) = jval.

    An answer meets |j(tau) - jval| <= tolerance * max(1, |jval|); one that
    does not raises ConvergenceError.  For |jval| <= 2000, tau is that of
    the lattice with (g2, g3) = (3*jval^(1/3), sqrt(jval - 1728)), whose
    discriminant is 27*1728 (``_lattice_from_g``).  Beyond, where that
    loses digits towards the cusp, Newton's method runs on j with
    dj/dtau = -2*pi*i * j * E6/E4 from the same theta-constant pass, from
    the q-expansion j ~ 1/q + 744 and then from 1.2i, every iterate reduced
    by ``reduce_tau``, with steps capped at Im(tau)/2 so none leaves for the
    cusp.  It stops when the step falls to 1e-15 * |tau| or stops shrinking,
    or after ``max_iterations``; the error then carries each start's
    iterations and residual.  A |jval| beyond the double range raises
    NumericError.
    """
    jval = complex(jval)
    if not (math.isfinite(jval.real) and math.isfinite(jval.imag)):
        raise DomainError("jval must be finite")
    if math.isinf(math.hypot(jval.real, jval.imag)):
        raise NumericError(f"|jval| for jval={jval} is outside the double range",
                           diagnostics={"jval": [jval.real, jval.imag]})

    scale = max(1.0, abs(jval))
    if abs(jval) <= 2000.0:
        tau = _lattice_from_g(3.0 * jval ** (1.0 / 3.0), cmath.sqrt(jval - 1728.0)).tau
        resid = abs(j_invariant(tau) - jval)
        if resid <= tolerance * scale:
            return tau
        raise ConvergenceError(
            f"invert_j failed for jval={jval}: j of the answer is off by {resid:.3e}",
            diagnostics={"jval": [jval.real, jval.imag],
                         "tau": [tau.value.real, tau.value.imag], "residual": resid},
        )

    # log(q) = -log(jval - 744), taken as log of the reciprocal unless
    # that underflows to 0 (|jval| beyond about 1e308).
    inverse = 1.0 / (jval - 744.0)
    log_q = cmath.log(inverse) if inverse else -cmath.log(jval - 744.0)
    starts = [log_q / (2j * math.pi), 1.2j]
    trace = []
    for start in starts:
        iterations = 0
        try:
            t = reduce_tau(start)[0].value
            last = math.inf
            for iterations in range(1, max_iterations + 1):
                jt, djt = _j_and_derivative(t)
                if djt == 0:
                    break
                step = (jt - jval) / djt
                size = abs(step)
                if not size < last:
                    # Roundoff in j now dominates the step, or j overflowed.
                    break
                cap = 0.5 * t.imag
                if size > cap:
                    step *= cap / size
                t = reduce_tau(t - step)[0].value
                if size <= 1e-15 * abs(t):
                    break
                last = size
            resid = abs(j_invariant(t) - jval)
        except NumericError:
            # The q-series or the discriminant failed; try the next start.
            resid = None
        trace.append({"start": [start.real, start.imag], "iterations": iterations,
                      "residual": resid})
        if resid is not None and resid <= tolerance * scale:
            return TauPoint(t)
    raise ConvergenceError(
        f"invert_j failed for jval={jval} after {len(starts)} starts",
        diagnostics={"jval": [jval.real, jval.imag], "trace": trace},
    )


def sigma_gauge_from_head(th1: complex, th3: complex,
                          rho: complex) -> tuple[complex, complex, complex]:
    """(kappa, beta, scale) with sigma(z, Lambda) = theta1(w, tau) * exp(kappa*w^2) * scale,
    w = z/rho.

    th1 = theta1'(0, tau) and th3 = theta1'''(0, tau)/6 are the first two
    odd Taylor coefficients of theta1.  kappa = -th3/th1 = alpha*rho^2
    depends on tau alone (``_gauge_alpha`` gives alpha); scale = rho/th1 =
    exp(beta), with beta the principal logarithm.  th1 underflows beyond
    Im tau of about 900, where scale overflows: NumericError.  So does a
    scale below the normal doubles (|rho| below about 6e-308 at tau = i),
    which would carry too few digits into every sigma value.
    """
    if th1 == 0 or not cmath.isfinite(rho / th1):
        raise NumericError(f"the sigma gauge rho/theta1'(0) = {rho}/{th1} overflows",
                           diagnostics={"theta1_prime": [th1.real, th1.imag]})
    scale = rho / th1
    if max(abs(scale.real), abs(scale.imag)) < 2.0**-1022:
        raise NumericError(f"the sigma gauge rho/theta1'(0) = {rho}/{th1} underflows",
                           diagnostics={"theta1_prime": [th1.real, th1.imag]})
    return -th3 / th1, cmath.log(scale), scale


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
            diagnostics={"rho": [rho.real, rho.imag], "kappa": [kappa.real, kappa.imag]})
    return alpha


def sigma_gauge(lat: Lattice) -> tuple[complex, complex]:
    """The (alpha, beta) pair of the gauge, from ``lat.gauge``."""
    kappa, beta, _ = lat.gauge
    return _gauge_alpha(kappa, lat.rho), beta


def sigma_eval(z: complex, lat: Lattice, *, term_cap: int = TERM_CAP) -> complex:
    """Weierstrass sigma of the lattice, normalized by sigma'(0) = 1.

    theta1 is summed on ``lat.theta_table``, and a table longer than
    ``term_cap`` raises ConvergenceError; the gauge is ``lat.gauge``.  The
    quasi-periodic exponent of theta1 is added to alpha*z^2, formed as
    kappa*(z/rho)^2, before one exp, since the two nearly cancel, so only a
    value outside the double range raises NumericError.
    """
    return _sigma_values((complex(z),), lat, term_cap)[0]


def _sigma_values(zs, lat: Lattice, term_cap: int = TERM_CAP) -> list[complex]:
    """``sigma_eval`` at each of zs; the first failing z picks the error."""
    table = lat.theta_table
    if len(table) > term_cap:
        # Rebuilt under the lower cap, the table raises its ConvergenceError.
        table = _theta1_table(lat.tau.value, term_cap, 1)
    kappa, _, scale = lat.gauge
    values = _theta1_values(zs, lat.tau.value, table, lat.rho, kappa, scale)
    if not all(map(cmath.isfinite, values)):
        z = next(z for z, v in zip(zs, values) if not cmath.isfinite(v))
        if not cmath.isfinite(z):
            raise DomainError("z must be finite")
        raise NumericError(
            f"sigma at z={z} is outside the double range",
            diagnostics={"z": [z.real, z.imag], "rho": [lat.rho.real, lat.rho.imag],
                         "tau": [lat.tau.value.real, lat.tau.value.imag]},
        )
    return values
