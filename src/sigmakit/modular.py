"""q-series evaluation of modular objects on the upper half-plane.

Implements the first Jacobi theta function theta1(z, tau), its odd Taylor
coefficients in z, the Dedekind eta function, the weight-4 and weight-6
forms g2(tau) and g3(tau), the modular invariant j(tau), and the pair

    p(tau) = (pi^2/30) * eta^6 * g2,
    q(tau) = -(pi^3/35) * eta^9 * g3,

which are the degree-5/7 Taylor invariants of theta1 (see ``invariants``).

theta1 and its odd Taylor coefficients are summed on tables of its factors,
whose length is fixed once per tau and degree (see ``_table_size``); the
coefficients through z^d keep more factors as d grows.  theta1 itself is
s * sum_j e_j*u^j with s = sin(pi*z), u = s^2, by Horner's rule on at most six
factors, and e0 and e1 give sigma's gauge (see ``TauPoint._theta1``).  g2, g3,
the discriminant, j and (p, q) come from the theta constants theta2, theta3 and
theta4 at z = 0, summed over the degree-1 number of terms in one pass (see
``_theta_constants``).  Below Im tau = 1/2, where these sums cancel, all of them
run at the point of one modular inversion, ``_inversion``, and are mapped back
by the transformation laws.  All take Re tau modulo 8, under which theta1's
factors and the theta constants are invariant, and ``dedekind_eta`` takes it
modulo 24, its own period, so a large Re tau keeps its phase.

Each ``TauPoint`` keeps these results in a record, each part formed on first use
(see ``_kept``): a head (the degree-1 term count, tau shifted to the period 8,
2*exp(i*pi*tau/4) and exp(2*pi*i*tau)), below Im tau = 1/2 the inversion's point, and
theta1's degree-1 sum and the forms (g2, g3, eta^3), summed from the head or read from
the inversion's point.  So ``theta1_eval``, the sigma gauge (a lattice keeps its frame),
``j_invariant``, ``weierstrass_g``, ``modular_discriminant``, ``modular_pq`` and
``dedekind_eta`` at one TauPoint share one theta1 sum and one theta-constant pass, and
with ``theta1_odd_series`` one inversion.  A bare tau gets a TauPoint of its own on each
call, so a caller that evaluates several of them at one tau passes a TauPoint.  Longer
factor tables are not kept.  A failure is not kept: every call at a tau past the cap
raises its own ConvergenceError.

Every sum has one fixed cap of ``TERM_CAP`` = 200 terms, which no caller chooses,
judged at tau as given, and none has a stopping rule of its own.  Inside the
fundamental domain |q| <= exp(-pi*sqrt(3)) and a handful of terms suffice; far
outside it the cap is reached and a ConvergenceError is raised.  Callers are expected to
reduce tau first (see ``lattice.reduce_tau``); these routines take tau exactly as given so
that the modular transformation laws remain observable.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import TERM_CAP, ConvergenceError, DomainError, NumericError

TERM_TOL = 1e-18

_TWO_PI = 2.0 * math.pi
_I_PI = 1j * math.pi
# (2*pi)^4/12 and (2*pi)^6/216, halved for E4 and E6.
_G2_SCALE = _TWO_PI**4 / 24.0
_G3_SCALE = _TWO_PI**6 / 432.0

_HORNER_FACTORS = 6  # the most factors of theta1's sum, all that Im tau >= 1/2 needs
# The triples (k, j, [u^j]S_k), j <= k < _HORNER_FACTORS, S_k(u) = sin((2k+1)x)/sin(x) with
# u = sin(x)^2 (S_1 = 3 - 4u, S_2 = 5 - 20u + 16u^2): [u^j]S_k = (-4)^j (2k+1)/(2j+1) C(k+j, 2j).
_SINE_TERMS = tuple((k, j, (-4.0) ** j * ((2 * k + 1) * math.comb(k + j, 2 * j) // (2 * j + 1)))
                    for k in range(_HORNER_FACTORS) for j in range(k + 1))
# The n*(n+1)/2 triples with k < n in reverse, the order ``TauPoint._theta1`` adds them in.
_HORNER_ROWS = tuple(_SINE_TERMS[:n * (n + 1) // 2][::-1] for n in range(_HORNER_FACTORS + 1))


class _kept:
    """A value computed from the instance on first access and kept in its dict, whose entry
    answers every later access (a non-data descriptor).  Unlike ``functools.cached_property``
    on Python 3.11 it takes no lock: two threads may both compute it; the first one kept wins."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


class TauPoint(namedtuple("TauPoint", "value")):
    """A point of the open upper half-plane, with a read-only field and no settable attribute;
    its dict holds only the q-series record ``_head``, ``_inverted``, ``_theta1``, ``_forms``."""

    def __new__(cls, value: complex):
        v = complex(value)
        if not cmath.isfinite(v):
            raise DomainError("tau must be finite")
        if v.imag <= 0.0:
            raise DomainError(f"tau must satisfy Im(tau) > 0, got {v}")
        return _tau_point(v)

    def __setattr__(self, name, value):
        raise AttributeError(f"TauPoint is read-only: cannot set {name!r}")

    @_kept
    def _head(self) -> tuple[int, complex, complex, complex]:
        """(size, t, c0, g): tau's degree-1 ``_term_count``, which ``_table_size`` checks; t,
        tau shifted by ``_shift_real``; theta1's first factor c0 = 2*exp(i*pi*t/4); and
        g = exp(2*pi*i*t)."""
        t = _shift_real(self.value, 8.0)
        return (_term_count(self.value.imag, 1), t, 2.0 * cmath.exp(0.25j * math.pi * t),
                cmath.exp(2j * math.pi * t))

    @_kept
    def _theta1(self):
        """(terms, e0, e1): theta1(w, t) = s * sum_j e_j*u^j, s = sin(pi*w), u = s^2, so
        theta1'(0) = pi*e0, theta1'''(0)/6 = pi^3*(e1 - e0/6).  From Im t = 1/2 up, terms are
        the e_j = sum_k c_k*[u^j]S_k, highest first, over theta1's degree-1 factors c_k, at most
        ``_HORNER_FACTORS``.  Below, terms is None, and with the ``_inversion`` (TauPoint(s), f)
        the Taylor series of f*exp(i*pi*s*w^2)*theta1(s*w, s) gives e0 = f*s*e0_s and
        e1 = e0/6 + f*s^2*(s*(e1_s - e0_s/6) + i*e0_s/pi)."""
        if self.value.imag < 0.5:
            inner, f = _inversion(self, "theta1 series")
            s = inner.value
            _, e0, e1 = inner._theta1
            fs = f * s
            e1 = fs * e0 / 6.0 + fs * s * (s * (e1 - e0 / 6.0) + 1j / math.pi * e0)
            return None, fs * e0, e1
        table = _theta1_table(self, 1)
        n = len(table)
        e = [0j] * _HORNER_FACTORS
        for k, j, p in _HORNER_ROWS[n]:
            e[j] += table[k] * p
        return tuple(e[n - 1::-1]), e[0], e[1]

    @_kept
    def _inverted(self):
        """(TauPoint(s), f), read through ``_inversion``: s = -1/(t - n), t the head's, n the
        integer nearest Re t, f = -i*sqrt(-i*s)*exp(i*pi*n/4), so theta1(w, tau) =
        f*exp(i*pi*s*w^2)*theta1(s*w, s) (DLMF 20.7.30; theta1's factors take exp(i*pi*n/4)
        under t -> t + n)."""
        t = self._head[1]
        n = round(t.real)
        s = -1.0 / (t - n)
        return TauPoint(s), -1j * cmath.sqrt(-1j * s) * cmath.exp(_I_PI * (n % 8) / 4.0)

    @_kept
    def _forms(self) -> tuple[complex, complex, complex]:
        """(g2, g3, eta^3) from one ``_theta_constants`` pass.

        With a, b, c = theta2^4, theta3^4, theta4^4 (DLMF 23.15, 20.7(i)),

            E4 = (a^2 + b^2 + c^2)/2,   E6 = (a + b)(b + c)(c - a)/2,
            g2 = (2*pi)^4/12 * E4,      g3 = (2*pi)^6/216 * E6,
            eta^3 = theta2*theta3*theta4/2.

        Below Im tau = 1/2, where theta3 or theta4 cancel (theta4(0.1i) is 2.5e-3 from terms
        near 1), they are (s^4*g2, s^6*g3, f*s*eta^3) at the ``_inversion`` (s, f).
        """
        if self.value.imag < 0.5:
            inner, f = _inversion(self, "theta constant series")
            s = inner.value
            g2, g3, eta3 = inner._forms
            return s**4 * g2, s**6 * g3, f * s * eta3
        th2, th3, th4 = _theta_constants(self)
        a, b, c = (th2 * th2) ** 2, (th3 * th3) ** 2, (th4 * th4) ** 2
        return (_G2_SCALE * (a * a + b * b + c * c), _G3_SCALE * ((a + b) * (b + c) * (c - a)),
                0.5 * th2 * th3 * th4)


def _tau_point(v: complex) -> TauPoint:
    """TauPoint(v) unchecked, for finite v with Im v > 0; + 0.0 turns Re v = -0.0 to 0.0."""
    return tuple.__new__(TauPoint, (v + 0.0,))


def as_tau(tau) -> TauPoint:
    """Accept a TauPoint or a bare complex number."""
    return tau if isinstance(tau, TauPoint) else TauPoint(tau)


def theta1_eval(z: complex, tau) -> complex:
    """First Jacobi theta function.

    theta1(z, tau) = 2 * sum_{n>=0} (-1)^n exp(pi*i*tau*(n+1/2)^2)
                                     * sin((2n+1)*pi*z)

    The sum runs on z reduced into the cell |Im z| <= Im(tau)/2,
    |Re z| <= 1/2 by the quasi-periodicity (DLMF 20.2(ii))

        theta1(z + m + n*tau) = (-1)^(m+n) exp(-pi*i*n*(n*tau + 2*z)) theta1(z),

    so its terms never grow far beyond the result; below Im tau = 1/2 it runs in
    the cell t of ``_theta1_frame``.  A value outside the double range raises
    NumericError, and so does a cell above Im t = 903 or so (tau = 950i or 0.001i).
    """
    t = (tau := as_tau(tau)).value
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    value = _theta1_values((z,), *_theta1_frame(tau))[0]
    if not cmath.isfinite(value):
        raise NumericError(f"theta1 at z={z} is outside the double range",
                           diagnostics={"z": z, "tau": t})
    return value


def _table_size(tau: TauPoint, what: str, degree: int) -> int:
    """The number of terms k = 0, 1, ... that the theta sums at tau keep, for degree 1
    the count in tau's head.

    On the reduced cell |Im w| <= Im(t)/2, the k-th term of theta1's sine
    series is at most (2k+1)*exp(-pi*Im(t)*k^2) times the first one, since
    sin((2k+1)*x)/sin(x) is a sum of the 2k+1 exponentials exp(2ijx),
    |j| <= k; in its Taylor coefficient of z^degree the factor (2k+1) is
    raised to the power degree.  The sums end before the first k whose
    bound (2k+1)^degree * exp(-pi*Im(t)*k^2) is <= TERM_TOL.  A size beyond
    ``TERM_CAP`` raises ConvergenceError for ``what``, with magnitudes
    relative to the first term.
    """
    t = tau.value
    size = tau._head[0] if degree == 1 else _term_count(t.imag, degree)
    if size > TERM_CAP:
        root = (2 * size + 1) * math.exp(-math.pi * t.imag * size * size / degree)
        try:
            last = root**degree
        except OverflowError:
            last = math.inf
        raise ConvergenceError(
            f"{what} did not converge within {TERM_CAP} terms at tau={t}; "
            "reduce tau toward the fundamental domain first",
            diagnostics={"tau": t, "term_cap": TERM_CAP, "partial_magnitude": 1.0,
                         "last_term_magnitude": last})
    return size


def _inversion(tau: TauPoint, what: str, degree=1):
    """tau's ``TauPoint._inverted``, the one modular inversion, once the term count at tau through
    z^degree is checked for ``what``, so no failure is kept.  Below Im tau = 1/2 every q-series
    runs at its s, Im s > 2*Im tau, again while Im s < 1/2."""
    _table_size(tau, what, degree)
    return tau._inverted


def _term_count(height: float, degree: int) -> int:
    """``_table_size`` at Im t = height, or TERM_CAP + 1 where the cap is reached.

    The bound is compared by its degree-th root, which cannot overflow.
    """
    decay = math.pi * height / degree
    tol = TERM_TOL ** (1.0 / degree)
    size = 1
    while size <= TERM_CAP and (2 * size + 1) * math.exp(-decay * size * size) > tol:
        size += 1
    return size


def _shift_real(t: complex, period: float) -> complex:
    """t - m*period with Re in [-period/2, period/2] for |Re t| >= period/2,
    and t itself otherwise.

    theta1's factors exp(pi*i*t*(k+1/2)^2) and theta2, theta3, theta4 are
    unchanged by t -> t + 8, and eta by t -> t + 24, while exp(pi*i*t) loses
    the phase of a large Re t.  ``math.fmod`` and the one step of period
    after it are exact.
    """
    half = 0.5 * period
    if abs(t.real) < half:
        return t
    x = math.fmod(t.real, period)
    if abs(x) >= half:
        x -= math.copysign(period, x)
    # fmod of a negative multiple of the period is -0.0.
    return complex(x + 0.0, t.imag)


def _theta1_table(tau: TauPoint, degree: int) -> tuple[complex, ...]:
    """The factors c_k = 2*(-1)^k*exp(pi*i*t*(k+1/2)^2) of theta1's sine series.

    The table has the ``_table_size`` factors that theta1's Taylor coefficients
    through z^degree need (degree 1 for theta1 itself), which follow from
    c_k = -c_(k-1) * g^k, g = exp(2*pi*i*t), t tau shifted by ``_shift_real``, from
    tau's head.  A longer table begins with the factors of a shorter one, bit for bit.
    """
    size, _, c, g = tau._head
    # The head's count is the degree-1 size; only a longer table or a failure calls out.
    if degree > 1 or size > TERM_CAP:
        size = _table_size(tau, "theta1 series", degree)
    table, gk = [c], 1.0
    for _ in range(1, size):
        gk *= g
        c = -c * gk
        table.append(c)
    return tuple(table)


def _theta_constants(tau: TauPoint) -> tuple[complex, complex, complex]:
    """(theta2, theta3, theta4) at z = 0, over the degree-1 terms of tau's head.

    With the nome q = exp(pi*i*t) (DLMF 20.2(i)),

        theta2 = 2 q^(1/4) sum_{k>=0} q^(k(k+1)),
        theta3 = 1 + 2 sum_{k>=1} q^(k^2),
        theta4 = 1 + 2 sum_{k>=1} (-1)^k q^(k^2),

    each term found from the one before by the factor q^(2k) or q^(2k-1).
    The first dropped term is below TERM_TOL of the first kept one.  Only
    ``TauPoint._forms`` calls it, from Im t = 1/2 up.
    """
    size, t, c0, _ = tau._head
    q = cmath.exp(1j * math.pi * t)
    g = q * q
    s2 = s3 = s4 = 0.0
    a2 = a3 = r2 = 1.0
    r3 = q
    for k in range(1, size):
        r2 *= g
        a2 *= r2
        a3 *= r3
        r3 *= g
        s2 += a2
        s3 += a3
        s4 += -a3 if k & 1 else a3
    return c0 * (1.0 + s2), 1.0 + 2.0 * s3, 1.0 + 2.0 * s4


def _theta1_values(zs, t: complex, terms, rho=1.0, kappa=0.0, scale=1.0) -> list[complex]:
    """theta1(w, t) * exp(kappa*w^2) * scale, w = z/rho, for each z, summed on ``terms``.

    w = z/rho is reduced into the cell |Im w| <= Im(t)/2, |Re w| <= 1/2, and theta1
    is s = sin(pi*w) times a sum in u = s^2, so it keeps its relative accuracy next
    to its zeros: Horner's rule on the e_j of ``TauPoint._theta1``, Im t >= 1/2.  The
    reduction's exponent joins kappa*w^2 in one exp.  For a non-finite z, and where
    the value leaves the double range, the value comes back non-finite, for the caller.
    """
    v = t.imag
    lead, rest = terms[0], terms[1:]
    sin, exp, pi = cmath.sin, cmath.exp, math.pi
    out = []
    for z in zs:
        try:
            w = z / rho
            exponent = kappa * w * w
            n = round(w.imag / v)
            if n:
                nt = n * t
                w -= nt
            m = round(w.real)
            if m:
                w -= m
            if n:
                exponent -= _I_PI * n * (nt + 2.0 * w)
            s = sin(pi * w)
            u, total = s * s, lead
            for e in rest:
                total = total * u + e
            total *= s
            value = total * exp(exponent) * scale
            if (m + n) & 1:
                value = -value
        except (OverflowError, ValueError):
            # A non-finite z/rho, or a reduction or exp beyond the double range.
            value = complex(math.inf)
        out.append(value)
    return out


def _theta1_frame(tau: TauPoint, rho=1.0, kappa=0.0, scale=1.0):
    """The arguments (t, terms, rho, kappa, scale), after zs, of the ``_theta1_values`` call
    for theta1(w, tau)*exp(kappa*w^2)*scale, w = z/rho: from Im tau = 1/2 up, tau's own t
    and terms; below, those at each level's kept inversion (s, f), for rho/s,
    (kappa + i*pi*s)/s^2 and f*scale, as w' = s*w, until Im t >= 1/2.  A cell t above
    Im t = 900 whose leading factor e0 = c0 = 2*exp(i*pi*t/4) (larger part at least
    sqrt(2)*exp(-pi*Im(t)/4)) is below the normal doubles, and would carry too few digits
    into theta1, raises NumericError."""
    terms = (cell := tau)._theta1[0]
    while terms is None:
        cell, f = cell._inverted
        s = cell.value
        rho, kappa, scale = rho / s, (kappa + _I_PI * s) / (s * s), f * scale
        terms = cell._theta1[0]
    t = cell.value
    if t.imag > 900.0 and max(abs(terms[-1].real), abs(terms[-1].imag)) < 2.0**-1022:
        raise NumericError(f"theta1's leading factor 2*exp(i*pi*t/4) at its cell t={t} underflows",
                           diagnostics={"tau": tau.value})
    return t, terms, rho, kappa, scale


def theta1_odd_series(tau, max_degree: int) -> TruncatedOddSeries:
    """Odd Taylor coefficients of z -> theta1(z, tau) through max_degree.

    a_(2m+1) = (-1)^m * sum_{k>=0} c_k * ((2k+1)*pi)^(2m+1) / (2m+1)!

    with theta1's factors c_k from ``_theta1_table``, whose length grows
    with max_degree.  Each c_k meets its real factor x = (-1)^m
    ((2k+1)*pi)^(2m+1)/(2m+1)! in one product; x is carried from m to m + 1,
    so the powers round in real arithmetic only and x stays in range where
    the power alone would not.  Inside the fundamental domain the
    truncation error is far below 1e-14 relative per coefficient.

    Below Im tau = 1/2 that sum cancels (at 0.02i, a1 is 2e-14 from terms
    near 1), so it runs at s of one ``_inversion``, with the term count at tau
    through max_degree checked first, as a sum of Gaussians:

        theta1(z, tau) = -i*f * sum_k c_k(s) * odd part of exp(beta*(z^2 + (2k+1)*z)),

    beta = i*pi*s, c_k(s) from ``_theta1_table`` at s.  Each Gaussian's
    coefficients follow from (m+1)*b_(m+1) = beta*((2k+1)*b_m + 2*b_(m-1)),
    a Hermite recurrence, which does not cancel at high degrees as the
    product of theta1's series at s with exp(beta*z^2) does.
    """
    if max_degree < 1 or max_degree % 2 == 0:
        raise DomainError("max_degree must be an odd integer >= 1")
    from .series import _computed
    t = (tau := as_tau(tau)).value
    coeffs = [0j] * ((max_degree + 1) // 2)
    if t.imag >= 0.5:
        for k, c in enumerate(_theta1_table(tau, max_degree)):
            w = (2 * k + 1) * math.pi
            x, square = w, w * w
            for m in range(len(coeffs)):
                coeffs[m] += c * x
                x = -x * square / ((2 * m + 2) * (2 * m + 3))
        return _computed(coeffs, "theta1's coefficient series")
    inner, f = _inversion(tau, "theta1 series", max_degree)
    beta = _I_PI * inner.value
    for k, c in enumerate(_theta1_table(inner, max_degree)):
        lin = (2 * k + 1) * beta
        prev, cur = 1.0, lin
        for m in range(1, max_degree + 1):
            if m & 1:
                coeffs[m >> 1] += c * cur
            prev, cur = cur, (lin * cur + 2.0 * beta * prev) / (m + 1)
    # exp(beta*z^2)*sin((2k+1)*pi*s*z) is -i times the odd part of the Gaussian.
    return _computed([-1j * f * c for c in coeffs], "theta1's coefficient series")


def dedekind_eta(tau) -> complex:
    """Dedekind eta, eta(tau) = exp(pi*i*tau/12) * prod_{n>=1} (1 - q^n), at u, tau shifted by
    ``_shift_real`` to its period 24.  On 1/2 <= Im tau <= 900 the product is the cube root of
    2*eta^3/c0, c0 = 2*exp(i*pi*t/4), from tau's record: |q| <= exp(-pi) holds its phase within
    7.8 degrees.  Above 900 each factor is 1.0 in doubles.  Below 1/2 eta is exp(i*pi*m/12) *
    sqrt(-i*s) * eta(s), m the integer nearest Re u, s from ``_inversion``.  eta has no zeros;
    from about Im tau = 2706 it underflows, which raises NumericError."""
    t = (tau := as_tau(tau)).value
    u = _shift_real(t, 24.0)
    if t.imag < 0.5:
        inner, _ = _inversion(tau, "eta series")
        return (cmath.exp(_I_PI * round(u.real) / 12.0) * cmath.sqrt(-1j * inner.value)
                * dedekind_eta(inner))
    eta = cmath.exp(1j * math.pi * u / 12.0)
    if t.imag <= 900.0:
        return eta * (2.0 * tau._forms[2] / tau._head[2]) ** (1.0 / 3.0)
    if max(abs(eta.real), abs(eta.imag)) < 2.0**-1022:
        raise NumericError(f"eta underflows at tau={t}", diagnostics={"tau": t})
    return eta


def weierstrass_g(tau) -> tuple[complex, complex]:
    """Weight-4 and weight-6 modular forms of the lattice Z + tau*Z.

    g2 = (2*pi)^4/12 * E4 and g3 = (2*pi)^6/216 * E6, with the Eisenstein
    series E4 = 1 + 240*sum sigma_3(n) q^n and E6 = 1 - 504*sum sigma_5(n) q^n,
    q = exp(2*pi*i*tau), taken from the theta constants (``TauPoint._forms``).
    """
    g2, g3, _ = as_tau(tau)._forms
    return g2, g3


def modular_discriminant(tau) -> complex:
    """Discriminant g2^3 - 27*g3^2, evaluated as (2*pi)^12 * eta^24 with
    eta^3 = theta2*theta3*theta4/2.

    The product form is used because the direct subtraction loses all
    significance high in the upper half-plane, where g2^3 and 27*g3^2
    agree to many digits; the two expressions are equal identically.  Delta has
    no zeros; a value below the normal doubles (Im tau above 116) is a NumericError.
    """
    t = (tau := as_tau(tau)).value
    # With 16 = 2^(32/8) inside, no power of eta^3 underflows before Delta does.
    delta = _TWO_PI**12 / 2**32 * (16.0 * tau._forms[2]) ** 8
    if max(abs(delta.real), abs(delta.imag)) < 2.0**-1022:
        raise NumericError(f"discriminant underflows at tau={t}", diagnostics={"tau": t})
    return delta


def j_invariant(tau) -> complex:
    """Modular invariant, normalized as j = 1728 * g2^3 / (g2^3 - 27*g3^2).

    This normalization has the Fourier expansion 1/q + 744 + 196884*q + ...
    g2, g3 and the discriminant come from one theta-constant pass.  A j
    outside the double range raises NumericError.
    """
    t = (tau := as_tau(tau)).value
    g2, _, eta3 = tau._forms
    delta = _TWO_PI**12 * eta3**8
    if delta == 0:
        # Delta underflows only for Im(tau) beyond about 118.
        raise NumericError(f"discriminant underflows at tau={t}", diagnostics={"tau": t})
    j = 1728.0 * g2**3 / delta
    if not cmath.isfinite(j):
        # j overflows from Im(tau) of about 113, before Delta underflows.
        raise NumericError(f"j at tau={t} is outside the double range", diagnostics={"tau": t})
    return j


def modular_pq(tau) -> tuple[complex, complex]:
    """The pair (p, q) = ((pi^2/30) eta^6 g2, -(pi^3/35) eta^9 g3).

    eta^6 and eta^9 are powers of eta^3 = theta2*theta3*theta4/2, so no
    cube root is taken.  These equal the invariants p and q of the odd
    Taylor series of z -> theta1(z, tau), computed by
    ``invariants.pq_of_series``; the test suite checks the equality on a
    tau grid at 1e-8 relative.
    """
    g2, g3, eta3 = as_tau(tau)._forms
    p = (math.pi**2 / 30.0) * eta3**2 * g2
    q = -(math.pi**3 / 35.0) * eta3**3 * g3
    return p, q
