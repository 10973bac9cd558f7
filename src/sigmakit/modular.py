"""q-series evaluation of modular objects on the upper half-plane.

Implements the first Jacobi theta function theta1(z, tau), its odd Taylor
coefficients in z, the Dedekind eta function, the weight-4 and weight-6
forms g2(tau) and g3(tau), the modular invariant j(tau), and the pair

    p(tau) = (pi^2/30) * eta^6 * g2,
    q(tau) = -(pi^3/35) * eta^9 * g3,

which are the degree-5/7 Taylor invariants of theta1 (see ``invariants``).

theta1 is summed on a table of its factors whose length is fixed once per
tau (see ``_theta1_table``).  The other sums and products accumulate terms
until the next term's magnitude drops below ``TERM_TOL`` times the current
partial magnitude.  All have a hard cap of ``TERM_CAP`` terms.  Inside the
fundamental domain |q| <= exp(-pi*sqrt(3)) and a handful of terms suffice;
far outside it the cap is reached and a ConvergenceError is raised.
Callers are expected to reduce tau first (see ``lattice.reduce_tau``);
these routines evaluate tau exactly as given so that the modular
transformation laws remain observable.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import TERM_CAP, ConvergenceError, DomainError, NumericError
from .series import TruncatedOddSeries

TERM_TOL = 1e-18

_TWO_PI = 2.0 * math.pi


class TauPoint(namedtuple("TauPoint", "value")):
    """A point of the open upper half-plane."""

    __slots__ = ()

    def __new__(cls, value: complex):
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError("tau must be finite")
        if v.imag <= 0.0:
            raise DomainError(f"tau must satisfy Im(tau) > 0, got {v}")
        # Flush negative zero in the real part for tidy reporting.
        return tuple.__new__(cls, (complex(v.real + 0.0, v.imag),))


def as_tau(tau) -> TauPoint:
    """Accept a TauPoint or a bare complex number."""
    if isinstance(tau, TauPoint):
        return tau
    return TauPoint(complex(tau))


def _cap_error(what, tau, partial, last_term, cap):
    return ConvergenceError(
        f"{what} did not converge within {cap} terms at tau={tau}; "
        "reduce tau toward the fundamental domain first",
        diagnostics={
            "tau": [tau.real, tau.imag],
            "term_cap": cap,
            "partial_magnitude": abs(partial),
            "last_term_magnitude": abs(last_term),
        },
    )


def theta1_eval(z: complex, tau, *, term_cap: int = TERM_CAP) -> complex:
    """First Jacobi theta function.

    theta1(z, tau) = 2 * sum_{n>=0} (-1)^n exp(pi*i*tau*(n+1/2)^2)
                                     * sin((2n+1)*pi*z)

    The sum runs on z reduced into the cell |Im z| <= Im(tau)/2,
    |Re z| <= 1/2 by the quasi-periodicity (DLMF 20.2(ii))

        theta1(z + m + n*tau) = (-1)^(m+n) exp(-pi*i*n*(n*tau + 2*z)) theta1(z),

    so its terms never grow far beyond the result.  A value outside the
    double range raises NumericError.
    """
    t = as_tau(tau).value
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    value = _theta1_values((z,), t, _theta1_table(t, term_cap))[0]
    if not cmath.isfinite(value):
        raise NumericError(
            f"theta1 at z={z} is outside the double range",
            diagnostics={"z": [z.real, z.imag], "tau": [t.real, t.imag]},
        )
    return value


def _theta1_table(t: complex, term_cap: int) -> tuple[complex, ...]:
    """The factors c_k = 2*(-1)^k*exp(pi*i*t*(k+1/2)^2) of theta1's sine series.

    On the reduced cell |Im w| <= Im(t)/2, |c_k sin((2k+1)*pi*w)| is at most
    (2k+1)*exp(-pi*Im(t)*k^2) times |c_0 sin(pi*w)|, since sin((2k+1)x)/sin(x)
    is a sum of the 2k+1 exponentials exp(2ijx), |j| <= k.  The table ends
    before the first k whose bound is <= TERM_TOL.  A table longer than
    ``term_cap`` raises ConvergenceError, with magnitudes relative to c_0.
    The factors follow from c_k = -c_(k-1) * g^k, g = exp(2*pi*i*t).
    """
    decay = math.pi * t.imag
    size = 1
    while size <= term_cap and (2 * size + 1) * math.exp(-decay * size * size) > TERM_TOL:
        size += 1
    if size > term_cap:
        raise _cap_error("theta1 series", t, 1.0,
                         (2 * size + 1) * math.exp(-decay * size * size), term_cap)
    g = cmath.exp(2j * math.pi * t)
    c = 2.0 * cmath.exp(0.25j * math.pi * t)
    table, gk = [c], 1.0
    for _ in range(1, size):
        gk *= g
        c = -c * gk
        table.append(c)
    return tuple(table)


def _theta1_values(zs, t: complex, table, rho=1.0, alpha=0.0, scale=1.0) -> list[complex]:
    """theta1(z/rho, t) * exp(alpha*z^2) * scale for each z, summed on ``table``.

    w = z/rho is reduced into the cell |Im w| <= Im(t)/2, |Re w| <= 1/2.  With
    s = sin(pi*w), sin((2k+3)x) = (2 - 4s^2) sin((2k+1)x) - sin((2k-1)x)
    gives the other sines, all proportional to s, so theta1 keeps its
    relative accuracy next to its zeros.  The reduction's exponent joins
    alpha*z^2 in one exp.  For a non-finite z, and where the value leaves the
    double range, the value comes back non-finite, for the caller to report.
    """
    v = t.imag
    lead, rest = table[0], table[1:]
    sin, exp, pi = cmath.sin, cmath.exp, math.pi
    out = []
    for z in zs:
        try:
            w = z / rho
            exponent = alpha * z * z
            n = round(w.imag / v)
            if n:
                w -= n * t
            m = round(w.real)
            if m:
                w -= m
            if n:
                exponent -= 1j * pi * n * (n * t + 2.0 * w)
            s = sin(pi * w)
            c = 2.0 - 4.0 * s * s
            prev, cur = -s, s
            total = lead * s
            for ck in rest:
                prev, cur = cur, c * cur - prev
                total += ck * cur
            value = total * exp(exponent) * scale
            if (m + n) & 1:
                value = -value
        except (OverflowError, ValueError):
            # A non-finite z/rho, or a reduction or exp beyond the double range.
            value = complex(math.inf)
        out.append(value)
    return out


def theta1_odd_series(tau, max_degree: int, *, term_cap: int = TERM_CAP) -> TruncatedOddSeries:
    """Odd Taylor coefficients of z -> theta1(z, tau) through max_degree.

    a_(2k+1) = 2 * sum_{n>=0} (-1)^n exp(pi*i*tau*(n+1/2)^2)
                               * (-1)^k ((2n+1)*pi)^(2k+1) / (2k+1)!

    Each term carries its Gaussian factor into a running odd power of
    (2n+1)*pi.  Inside the fundamental domain the truncation error is far
    below 1e-14 relative per coefficient.
    """
    if max_degree < 1 or max_degree % 2 == 0:
        raise DomainError("max_degree must be an odd integer >= 1")
    t = as_tau(tau).value
    sine_coeffs = [(-1.0) ** k / math.factorial(2 * k + 1)
                   for k in range((max_degree + 1) // 2)]
    partial = [0.0 + 0.0j] * len(sine_coeffs)
    lead = 0.0 + 0.0j
    for n in range(term_cap):
        w = (2 * n + 1) * math.pi
        # The degree-1 term; sine_coeffs[0] is 1.
        lead = 2.0 * (-1) ** n * cmath.exp(1j * math.pi * t * (n + 0.5) ** 2) * w
        power = lead
        w2 = w * w
        converged = True
        for k, c in enumerate(sine_coeffs):
            term = power * c
            partial[k] += term
            converged = converged and abs(term) <= TERM_TOL * abs(partial[k])
            power *= w2
        if converged:
            return TruncatedOddSeries(partial)
    raise _cap_error("theta1 coefficient series", t, partial[0], lead, term_cap)


def dedekind_eta(tau, *, term_cap: int = TERM_CAP) -> complex:
    """Dedekind eta, eta(tau) = exp(pi*i*tau/12) * prod_{n>=1} (1 - q^n)."""
    t = as_tau(tau).value
    q = cmath.exp(2j * math.pi * t)
    prod = cmath.exp(1j * math.pi * t / 12.0)
    qn = 1.0 + 0.0j
    for _ in range(term_cap):
        qn *= q
        prod *= 1.0 - qn
        if abs(qn) <= TERM_TOL:
            return prod
    raise _cap_error("eta product", t, prod, qn, term_cap)


def weierstrass_g(tau, *, term_cap: int = TERM_CAP) -> tuple[complex, complex]:
    """Weight-4 and weight-6 modular forms of the lattice Z + tau*Z.

    g2 = (2*pi)^4 * (1/12  + 20    * sum_{n>=1} n^3 * q^n / (1 - q^n))
    g3 = (2*pi)^6 * (1/216 - (7/3) * sum_{n>=1} n^5 * q^n / (1 - q^n))

    with q = exp(2*pi*i*tau).  The summand n^k * q^n / (1 - q^n) equals
    n^k / (q^(-n) - 1), written here in the form that never overflows.
    """
    t = as_tau(tau).value
    q = cmath.exp(2j * math.pi * t)
    s3 = 1.0 / 12.0 + 0.0j
    s5 = 1.0 / 216.0 + 0.0j
    qn = 1.0 + 0.0j
    t3 = 0.0 + 0.0j
    for n in range(1, term_cap + 1):
        qn *= q
        base = qn / (1.0 - qn)
        t3 = 20.0 * n**3 * base
        t5 = -(7.0 / 3.0) * n**5 * base
        s3 += t3
        s5 += t5
        if abs(t3) <= TERM_TOL * abs(s3) and abs(t5) <= TERM_TOL * abs(s5):
            return (_TWO_PI**4 * s3, _TWO_PI**6 * s5)
    raise _cap_error("g2/g3 series", t, s3, t3, term_cap)


def modular_discriminant(tau, *, term_cap: int = TERM_CAP) -> complex:
    """Discriminant g2^3 - 27*g3^2, evaluated as (2*pi)^12 * eta(tau)^24.

    The product form is used because the direct subtraction loses all
    significance high in the upper half-plane, where g2^3 and 27*g3^2
    agree to many digits; the two expressions are equal identically.
    """
    return _TWO_PI**12 * dedekind_eta(tau, term_cap=term_cap) ** 24


def _j_and_derivative(tau, *, term_cap: int = TERM_CAP) -> tuple[complex, complex]:
    """(j(tau), dj/dtau) from one g2/g3 pass and one discriminant pass.

    dj/dtau = -2*pi*i * j * E6/E4, written as -15552*i * g2^2 * g3 / (pi * Delta)
    so that nothing is divided by g2, which vanishes at the corner.
    """
    g2, g3 = weierstrass_g(tau, term_cap=term_cap)
    delta = modular_discriminant(tau, term_cap=term_cap)
    if delta == 0:
        # Delta underflows only for Im(tau) beyond about 118.
        t = as_tau(tau).value
        raise NumericError(
            f"discriminant underflows at tau={t}",
            diagnostics={"tau": [t.real, t.imag]},
        )
    return 1728.0 * g2**3 / delta, -15552j * g2 * g2 * g3 / (math.pi * delta)


def j_invariant(tau, *, term_cap: int = TERM_CAP) -> complex:
    """Modular invariant, normalized as j = 1728 * g2^3 / (g2^3 - 27*g3^2).

    This normalization has the Fourier expansion 1/q + 744 + 196884*q + ...
    """
    return _j_and_derivative(tau, term_cap=term_cap)[0]


def modular_pq(tau, *, term_cap: int = TERM_CAP) -> tuple[complex, complex]:
    """The pair (p, q) = ((pi^2/30) eta^6 g2, -(pi^3/35) eta^9 g3).

    These equal the invariants p and q of the odd Taylor series of
    z -> theta1(z, tau), computed by ``invariants.pq_of_series``; the
    test suite checks the equality on a tau grid at 1e-8 relative.
    """
    e = dedekind_eta(tau, term_cap=term_cap)
    g2, g3 = weierstrass_g(tau, term_cap=term_cap)
    p = (math.pi**2 / 30.0) * e**6 * g2
    q = -(math.pi**3 / 35.0) * e**9 * g3
    return p, q
