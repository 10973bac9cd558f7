"""Independent high-precision oracle for the sigmakit benchmark.

Every value here is computed with mpmath at ``DPS`` decimal digits, by
routes that share no code with sigmakit's q-series loops:

- theta1 and its z-derivatives from ``mpmath.jtheta``;
- j from ``mpmath.kleinj``;
- eta, g2 and g3 from the theta constants theta2, theta3, theta4;
- the Weierstrass sigma function through the theta route, with the gauge
  (sigma'(0) = 1, no z^3 term) taken from ``jtheta`` derivatives at 0;
- Taylor data of the three solution families in closed form: the sigma
  coefficients come from g2 and g3 through the Laurent recurrence of the
  Weierstrass p-function, not from theta series.

Conventions follow sigmakit's README: theta1(z, tau) =
2 sum (-1)^n exp(i pi tau (n+1/2)^2) sin((2n+1) pi z), lattices are
rho * (Z + tau Z), and g2, g3 are the invariants of that lattice.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
mp.mp.dps = DPS


def _nome(tau):
    return mp.exp(1j * mp.pi * mp.mpc(tau))


def theta1(z, tau):
    """theta1(z, tau) in sigmakit's normalisation (period 2 in z)."""
    return mp.jtheta(1, mp.pi * mp.mpc(z), _nome(tau))


def theta_constants(tau):
    q = _nome(tau)
    return mp.jtheta(2, 0, q), mp.jtheta(3, 0, q), mp.jtheta(4, 0, q)


def eta(tau):
    """Dedekind eta from eta^3 = theta2 theta3 theta4 / 2.

    Of the three cube roots, the one closest to exp(i pi tau / 12) is
    eta itself whenever |exp(2 pi i tau)| is small, i.e. for every tau in
    or near the fundamental domain.
    """
    t2, t3, t4 = theta_constants(tau)
    cube = t2 * t3 * t4 / 2
    lead = mp.exp(1j * mp.pi * mp.mpc(tau) / 12)
    root = mp.cbrt(cube)
    candidates = [root * mp.exp(2j * mp.pi * k / 3) for k in range(3)]
    return min(candidates, key=lambda c: abs(c - lead))


def weierstrass_g(tau):
    """(g2, g3) of the lattice Z + tau Z from Eisenstein series in theta constants."""
    t2, t3, t4 = theta_constants(tau)
    a, b, c = t2**4, t3**4, t4**4
    e4 = (a * a + b * b + c * c) / 2
    e6 = (a + b) * (b + c) * (c - a) / 2
    return 4 * mp.pi**4 / 3 * e4, 8 * mp.pi**6 / 27 * e6


def lattice_g(rho, tau):
    """(g2, g3) of the lattice rho * (Z + tau Z)."""
    g2, g3 = weierstrass_g(tau)
    rho = mp.mpc(rho)
    return g2 / rho**4, g3 / rho**6


def j_invariant(tau):
    return 1728 * mp.kleinj(mp.mpc(tau))


def sigma(z, rho, tau):
    """Weierstrass sigma of rho * (Z + tau Z), normalised by sigma'(0) = 1."""
    q = _nome(tau)
    rho = mp.mpc(rho)
    th1 = mp.pi * mp.jtheta(1, 0, q, 1)
    th3 = mp.pi**3 * mp.jtheta(1, 0, q, 3) / 6
    alpha = -th3 / (rho**2 * th1)
    z = mp.mpc(z)
    return theta1(z / rho, tau) * mp.exp(alpha * z * z) * rho / th1


def _exp_even_series(c, count):
    """Coefficients e_k of exp(sum_{k>=1} c[k] w^k) in w = z^2, k < count."""
    out = [mp.mpc(1)] + [mp.mpc(0)] * (count - 1)
    # e' = c' e  gives  k e_k = sum_{m=1..k} m c_m e_{k-m}.
    for k in range(1, count):
        acc = mp.mpc(0)
        for m in range(1, k + 1):
            acc += m * c[m] * out[k - m]
        out[k] = acc / k
    return out


def sigma_taylor(g2, g3, max_degree):
    """Odd Taylor coefficients of sigma with invariants g2, g3.

    The Laurent coefficients of wp(z) = 1/z^2 + sum_{k>=2} c_k z^(2k-2) obey
    c_2 = g2/20, c_3 = g3/28 and
    c_k = 3 / ((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_(k-m)   (k >= 4),
    and (log sigma)'' = -wp gives
    sigma(z) = z * exp(-sum_{k>=2} c_k z^(2k) / (2k (2k-1))).
    """
    count = (max_degree + 1) // 2
    c = [mp.mpc(0)] * (count + 2)
    c[2] = mp.mpc(g2) / 20
    c[3] = mp.mpc(g3) / 28
    for k in range(4, count + 2):
        acc = mp.mpc(0)
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
    log_part = [mp.mpc(0)] * count
    for k in range(2, count):
        log_part[k] = -c[k] / (2 * k * (2 * k - 1))
    return _exp_even_series(log_part, count)


def twist(odd, alpha, beta):
    """Odd coefficients of (sum odd[k] z^(2k+1)) * exp(alpha z^2 + beta)."""
    count = len(odd)
    alpha = mp.mpc(alpha)
    even = [alpha**k / mp.factorial(k) for k in range(count)]
    scale = mp.exp(mp.mpc(beta))
    return [scale * sum(odd[m] * even[k - m] for m in range(k + 1)) for k in range(count)]


def member_series(case, params, max_degree):
    """Odd Taylor coefficients of one family member through max_degree.

    case 'linear':   z exp(alpha z^2 + beta)
    case 'trig':     sin(a z) exp(alpha z^2 + beta)
    case 'elliptic': sigma(z, rho (Z + tau Z)) exp(alpha z^2 + beta)
    """
    count = (max_degree + 1) // 2
    if case == "linear":
        base = [mp.mpc(1)] + [mp.mpc(0)] * (count - 1)
    elif case == "trig":
        a = mp.mpc(params["a"])
        base = [(-1) ** k * a ** (2 * k + 1) / mp.factorial(2 * k + 1) for k in range(count)]
    elif case == "elliptic":
        g2, g3 = lattice_g(params["rho"], params["tau"])
        base = sigma_taylor(g2, g3, max_degree)
    else:
        raise ValueError(f"unknown case {case!r}")
    return twist(base, params["alpha"], params["beta"])


def pq(odd):
    """Invariants p = a3^2 - 2 a1 a5 and q = 3 a1^2 a7 - 3 a1 a3 a5 + a3^3."""
    a1, a3, a5, a7 = odd[:4]
    return a3 * a3 - 2 * a1 * a5, 3 * a1 * a1 * a7 - 3 * a1 * a3 * a5 + a3**3
