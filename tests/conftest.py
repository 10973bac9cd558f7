"""Shared numerical oracles for the test suite.

Everything here is deliberately written from scratch in the plainest way
possible (direct summation, brute-force products, FFT coefficient
extraction) so it stays independent of the library's own evaluation
routes.
"""

import cmath
import math
from itertools import chain
from operator import mul

import numpy as np

import sigmakit.lattice
import sigmakit.modular
from sigmakit import (
    Classification,
    DomainError,
    InvariantData,
    NotInOmegaError,
    TauPoint,
    TruncatedOddSeries,
    TruncatedSeries,
    UnimodularMap,
    gauss_twist,
    hat_normalize,
    mu_of_pq,
    scale_argument,
    synthesize,
    theta1_odd_series,
)
from sigmakit.series import _computed


def record_builds(monkeypatch):
    """A dict that counts, from now on, each part of a TauPoint's record built
    (``_head``, ``_inverted``, ``_theta1``, ``_forms``), by the part's name."""
    builds = {}
    for name in ("_head", "_inverted", "_theta1", "_forms"):
        kept = vars(TauPoint)[name]

        def counted(tau, _name=name, _func=kept.func):
            builds[_name] = builds.get(_name, 0) + 1
            return _func(tau)

        counted.__name__ = name
        monkeypatch.setattr(kept, "func", counted)
    return builds


# SL(2, Z) words for the lattice tests.
IDENTITY_MAP = UnimodularMap(1, 0, 0, 1)
INVERSION = UnimodularMap(0, -1, 1, 0)


def translation(n):
    return UnimodularMap(1, n, 0, 1)


def compose(m1, m2):
    """m1 after m2: compose(m1, m2).apply == m1.apply(m2.apply(.))."""
    return UnimodularMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


# Relative magnitude above which an even coefficient disqualifies a general
# series from conversion to odd form.
ODD_CONTAMINATION_TOL = 1e-14


def to_series(s):
    """An odd series as a general series with zero even coefficients."""
    full = [0j] * (s.max_degree + 1)
    full[1::2] = s.odd_coefficients
    return TruncatedSeries(full)


def odd_from_series(s, tol=ODD_CONTAMINATION_TOL):
    """Convert a general series, rejecting nonzero even coefficients.

    Even entries are compared against the largest coefficient magnitude;
    anything above ``tol`` relative makes the series non-odd.
    """
    coeffs = s.coefficients
    if s.order % 2 == 0:
        coeffs = coeffs[:-1] if s.order > 0 else coeffs
    if len(coeffs) < 2:
        raise DomainError("series order must be at least 1 for odd form")
    scale = max(abs(c) for c in s.coefficients)
    if scale > 0 and max(abs(c) for c in s.coefficients[0::2]) > tol * scale:
        raise DomainError("series has nonzero even coefficients; not odd")
    return TruncatedOddSeries(coeffs[1::2])


def cauchy_reference(a, b, count):
    """``series._cauchy`` as it was before its flat-list form, kept as the
    reference for it: each part of each coefficient is one fsum over the
    real-part products and then the imaginary-part products, from separate
    real and imaginary lists.
    """
    last_a, last_b = len(a) - 1, len(b) - 1
    a_re = [c.real for c in a]
    a_im = [c.imag for c in a]
    a_neg_im = [-x for x in a_im]
    b_re = [c.real for c in reversed(b)]
    b_im = [c.imag for c in reversed(b)]
    out = []
    for n in range(count):
        lo, hi = max(0, n - last_b), min(n, last_a) + 1
        xr, xi, nxi = a_re[lo:hi], a_im[lo:hi], a_neg_im[lo:hi]
        yr, yi = b_re[last_b - n + lo:last_b - n + hi], b_im[last_b - n + lo:last_b - n + hi]
        try:
            out.append(complex(math.fsum(chain(map(mul, xr, yr), map(mul, nxi, yi))),
                               math.fsum(chain(map(mul, xr, yi), map(mul, xi, yr)))))
        except (OverflowError, ValueError):
            out.append(complex(math.nan, math.nan))
    return out


def gauge_reference(lat):
    """``Lattice.gauge`` as it was before it read theta1'(0) and theta1'''(0)
    from the Horner coefficients e0 and e1, kept as the reference for it:
    w = (2k+1)*pi and w**3 are formed for each of theta1's factors at tau,
    however many there are.  It returns (kappa, beta, scale), beta = log(scale)
    as ``sigma_gauge`` forms it."""
    th1 = th3 = 0
    for k, c in enumerate(sigmakit.modular._theta1_table(lat.tau, 1)):
        w = (2 * k + 1) * math.pi
        th1 += c * w
        th3 += c * w**3
    return th3 / 6.0 / th1, cmath.log(lat.rho / th1), lat.rho / th1


def theta1_values_reference(zs, t, terms, rho=1.0, kappa=0.0, scale=1.0):
    """``modular._theta1_values`` kept as the reference for its cell reduction:
    it calls round() at every point, where the kernel may skip what it can,
    and sums the Horner terms of ``TauPoint._theta1`` as the kernel does.
    """
    v = t.imag
    lead, rest = terms[0], terms[1:]
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
                exponent -= 1j * math.pi * n * (nt + 2.0 * w)
            s = cmath.sin(math.pi * w)
            u, total = s * s, lead
            for e in rest:
                total = total * u + e
            total *= s
            value = total * cmath.exp(exponent) * scale
            if (m + n) & 1:
                value = -value
        except (OverflowError, ValueError):
            value = complex(math.inf)
        out.append(value)
    return out


# Below Im tau = 1/2, near the cusps 0, 1/2, 1/3 and 3, where theta3 or
# theta4 is far smaller than the terms of its sum.
OFF_GRID = [0.1j, 0.3 + 0.1j, 0.05j, 0.02j, 0.5 + 0.05j, -0.37 + 0.02j, 1 / 3 + 0.03j,
            2.7 + 0.3j, 0.45 + 0.45j]


def synthesize_reference(c, max_degree):
    """``classify.synthesize`` as it was before its one twisted-sine
    recurrence, kept as the reference for it: a base series per family
    (z, the sine series scaled by a, or theta1's series at tau as given,
    scaled by 1/rho) and one O(K^2) ``gauss_twist``, the elliptic one by
    (alpha, beta) plus the sigma gauge formed from theta1's first two
    coefficients at that tau."""
    if max_degree < 1 or max_degree % 2 == 0:
        raise DomainError("max_degree must be an odd integer >= 1")
    count = (max_degree + 1) // 2
    alpha, beta = c.alpha, c.beta
    if c.case == "linear":
        base = TruncatedOddSeries([1.0] + [0.0] * (count - 1))
    elif c.case == "trig":
        sine = TruncatedOddSeries([(-1.0) ** k / math.factorial(2 * k + 1) for k in range(count)])
        base = scale_argument(sine, c.a)
    else:
        # The gauge needs the cubic coefficient even when max_degree is 1.
        theta = theta1_odd_series(c.tau, max(max_degree, 3))
        a1, a3 = theta.odd_coefficients[:2]
        kappa, gauge_beta = -a3 / a1 if a1 else 0.0, cmath.log(c.rho / a1)
        base = _computed(scale_argument(theta, 1.0 / c.rho).odd_coefficients[:count],
                         "the scaled theta series")
        alpha, beta = sigmakit.lattice._gauge_alpha(kappa, c.rho) + alpha, gauge_beta + beta
    return gauss_twist(base, alpha, beta)


def invariants_and_hat_reference(s):
    """``invariants._invariants_and_hat`` as it was before it twisted only the
    degree-7 head and widened its zero tests by the terms that p and q
    cancel, kept as the reference for it: the whole series goes through
    (today's) ``hat_normalize``, and the zero tests scale with the hat form
    alone.
    """
    if s.max_degree < 7:
        raise DomainError("invariants need coefficients through degree 7")
    a1 = s.leading
    if a1 == 0:
        raise NotInOmegaError("leading odd coefficient vanishes")
    a3 = s.coefficient(3)
    a5 = s.coefficient(5)
    a7 = s.coefficient(7)
    p = a3 * a3 - 2.0 * a1 * a5
    q = 3.0 * a1 * a1 * a7 - 3.0 * a1 * a3 * a5 + a3 * a3 * a3
    hat = hat_normalize(s)
    big_a = abs(hat.series.coefficient(5))
    big_b = abs(hat.series.coefficient(7))
    t = max(1.0, big_a ** 0.25, big_b ** (1.0 / 6.0))
    x = abs(a1) * t * t
    mu = mu_of_pq(p, q, p_scale=x * x, q_scale=x * x * x)
    return InvariantData(p=p, q=q, mu=mu), hat


# A gauge alpha of modulus up to 1e3, real, imaginary and complex.
LARGE_ALPHAS = [30, -45j, 100 + 100j, 1000, -1000, -1000j, -300 + 700j]
# Gauges whose cubic roundoff in the hat form passes 1e-12 of its head.
HUGE_ALPHAS = [-1e5 + 1e5j, -1e6 + 1e6j, 1e8j]


def seeded_members_and_data(seed, count):
    """Members of the three families at odd degrees 9..31, each family with
    a random (alpha, beta), and random data of the same degrees."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        degree = 9 + 2 * (k % 12)
        alpha = complex(*rng.uniform(-0.8, 0.8, 2))
        beta = complex(*rng.uniform(-0.8, 0.8, 2))
        rho = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-1.2, 1.2))
        tau = TauPoint(complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.5)))
        a = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(-1.2, 1.2))
        for made in (Classification("linear", alpha, beta),
                     Classification("trig", alpha, beta, a=a),
                     Classification("elliptic", alpha, beta, rho=rho, tau=tau)):
            out.append(synthesize(made, degree))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range((degree + 1) // 2)]
        out.append(TruncatedOddSeries(coeffs))
    return out


def eta_product_oracle(tau, terms=200):
    """Dedekind eta by blunt truncation of the defining product."""
    q = cmath.exp(2j * math.pi * tau)
    out = cmath.exp(1j * math.pi * tau / 12.0)
    for n in range(1, terms + 1):
        out *= 1.0 - q**n
    return out


def theta1_sum_oracle(z, tau, terms=20):
    """First theta function by direct partial summation."""
    total = 0.0 + 0.0j
    for n in range(terms + 1):
        total += (
            2.0
            * (-1) ** n
            * cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2)
            * cmath.sin((2 * n + 1) * math.pi * z)
        )
    return total


def circle_coefficients(f, count, radius=0.4, samples=64):
    """Taylor coefficients a_0..a_(count-1) of f via FFT on a circle."""
    zs = radius * np.exp(2j * math.pi * np.arange(samples) / samples)
    vals = np.array([f(z) for z in zs])
    coeffs = np.fft.fft(vals) / samples
    return coeffs[:count] / radius ** np.arange(count)


def third_derivative(g, step):
    """Richardson-extrapolated central difference for g'''(0)."""

    def central(h):
        return (g(2 * h) - 2 * g(h) + 2 * g(-h) - g(-2 * h)) / (2 * h**3)

    return (4.0 * central(step / 2) - central(step)) / 3.0


def integer_combination(point, basis1, basis2):
    """Solve point = m*basis1 + n*basis2 over the reals; returns (m, n)."""
    mat = np.array(
        [[basis1.real, basis2.real], [basis1.imag, basis2.imag]], dtype=float
    )
    rhs = np.array([point.real, point.imag], dtype=float)
    return np.linalg.solve(mat, rhs)


def sigma_product_oracle(z, lat, radius):
    """Truncated canonical product z * prod (1 - z/l) exp(z/l + (z/l)^2/2).

    The product runs over nonzero lattice points with |l| <= radius.  The
    omitted tail contributes a relative error on the order of
    sum_{|l| > radius} |z/l|^3 = O(1/radius), so this is a low-precision
    cross-check, not a production evaluator.  The truncation region is
    symmetric under l -> -l, which keeps the output exactly odd in z.
    """
    z = complex(z)
    if radius <= 0 or radius < 10.0 * abs(z):
        raise DomainError("radius must be positive and at least 10*|z|")
    base1 = lat.rho
    base2 = lat.rho * lat.tau.value
    # For lam = rho*(m + n*tau) with |lam| <= radius and tau reduced:
    # |n| <= radius/(|rho|*Im tau) and |m| <= (radius/|rho|)*(1 + |Re|/Im).
    t = lat.tau.value
    bound = int((radius / abs(lat.rho)) * (1.0 + abs(t.real) / t.imag)) + 2
    # Points are consumed in +/- pairs and each pair's two factors are
    # multiplied together first; IEEE multiplication is commutative, so
    # the result for -z is the exact negation of the result for z.
    prod = z
    for mm in range(0, bound + 1):
        for nn in range(-bound, bound + 1):
            if mm == 0 and nn <= 0:
                continue
            lam = mm * base1 + nn * base2
            if abs(lam) <= radius:
                w = z / lam
                plus = (1.0 - w) * cmath.exp(w + 0.5 * w * w)
                minus = (1.0 + w) * cmath.exp(-w + 0.5 * w * w)
                prod *= plus * minus
    return complex(prod)
