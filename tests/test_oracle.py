"""theta1 kernels, sigma_eval, eta, g2, g3 and j against an independent
mpmath oracle at 50 digits.

The oracle is mpmath's ``jtheta`` and its z-derivatives, ``qp`` for eta
and ``kleinj`` for j, which share no code with the library's q-series
loops.  Each budget is about five times the largest relative error
measured on its grid: 2.0e-16 per coefficient at degree 3, 8.6e-15 at
degree 31 (near the corner), 8.5e-14 for theta1_eval at values up to
1e287, 1.8e-14 for sigma_eval with |Re z|, |Im z| <= 3 and 5.9e-14 for
sigma_eval where theta1 alone overflows.  On the grid of ``GRID`` (both
corners, Im tau from 0.97 to 20) the largest measured errors are, for
theta1_eval and sigma_eval, 4.2e-16 and 5.0e-16 next to 0, 4.6e-16 and
1.6e-15 next to a nonzero lattice point, and 8.2e-16 and 5.5e-14 on the
edge |Im w| = Im(tau)/2 of the reduced cell (sigma's edge error grows with
|alpha*z^2|, about 160 at Im tau = 20); 1.9e-16 for eta, 4.4e-16 and
4.7e-16 for g2 and g3 against max(|g2|, (2 pi)^4/12) and
max(|g3|, (2 pi)^6/216) (both vanish at a special point), and 2.8e-15
for j against max(|j|, 1728).
"""

import cmath
import math

import numpy as np
import pytest

from sigmakit import (
    dedekind_eta,
    j_invariant,
    lattice_from_rho_tau,
    sigma_eval,
    theta1_eval,
    theta1_odd_series,
    weierstrass_g,
)
from sigmakit.lattice import _C2, _C3

mp = pytest.importorskip("mpmath")

DPS = 50
CORNER = cmath.exp(2j * math.pi / 3)
TAUS = [1j, 0.3 + 1.1j, CORNER + 1e-3j]
# Both corners exactly (to double rounding), then Im tau from 0.97 to 20.
GRID = [complex(-0.5, math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2), 0.25 + 0.97j, 1j,
        0.3 + 1.1j, -0.45 + 1.5j, 0.2 + 2.5j, 0.4 + 5j, -0.1 + 10j, 0.3 + 20j]
NEAR_ZERO = [1e-12, 1e-8 + 1e-9j, 1e-4j]
# Next to the lattice points 1, -1 and 2.  Reducing z by m + n*tau loses
# about |m + n*tau| * 1e-16 absolutely, which the conditioning of theta1
# next to its zero turns into a relative error of that over |w|; these
# points reduce exactly, so the kernel's own error shows.
NEAR_POINT = [1 + 2**-30 + 2**-31 * 1j, -1 - 2**-28 * 1j, 2 + 2**-29]


def cell_edge(tau):
    """Points with |Im w| = Im(tau)/2, the edge of the reduced cell."""
    return [complex(x, s * tau.imag / 2) for x in (-0.5, -0.2, 0.0, 0.3, 0.5) for s in (1, -1)]


def relative_errors(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


def _nome(tau):
    return mp.exp(1j * mp.pi * mp.mpc(tau))


def oracle_odd_coefficients(tau, max_degree):
    """a_d = pi^d * d/du^d jtheta(1, u, q) at u = 0, divided by d!."""
    with mp.workdps(DPS):
        q = _nome(tau)
        return [complex(mp.pi**d * mp.jtheta(1, 0, q, derivative=d) / mp.factorial(d))
                for d in range(1, max_degree + 1, 2)]


def oracle_theta1(z, tau):
    with mp.workdps(DPS):
        return complex(mp.jtheta(1, mp.pi * mp.mpc(z), _nome(tau)))


def oracle_sigma(z, rho, tau, dps=DPS):
    """theta1(z/rho) * exp(alpha*z^2) * rho/theta1'(0) with the sigma gauge."""
    with mp.workdps(dps):
        q = _nome(tau)
        z, rho = mp.mpc(z), mp.mpc(rho)
        th1 = mp.pi * mp.jtheta(1, 0, q, derivative=1)
        th3 = mp.pi**3 * mp.jtheta(1, 0, q, derivative=3) / 6
        alpha = -th3 / (rho**2 * th1)
        return complex(mp.jtheta(1, mp.pi * z / rho, q) * mp.exp(alpha * z * z) * rho / th1)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("max_degree, budget", [(3, 1e-15), (31, 5e-14)])
def test_theta1_odd_series(tau, max_degree, budget):
    got = theta1_odd_series(tau, max_degree).odd_coefficients
    want = oracle_odd_coefficients(tau, max_degree)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= budget * abs(w)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("rho", [1.0, 0.8 + 0.3j])
def test_sigma_eval(tau, rho):
    lat = lattice_from_rho_tau(rho, tau)
    rng = np.random.default_rng(31)
    for _ in range(12):
        z = complex(*rng.uniform(-3, 3, 2))
        want = oracle_sigma(z, lat.rho, lat.tau.value)
        assert abs(sigma_eval(z, lat) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("tau", TAUS)
def test_theta1_eval_far_from_real_axis(tau):
    # The terms of the unreduced sum overflow here although the values fit.
    for z in (0.3 + 12j, -0.7 - 13.5j, 1.6 + 9.2j, 25.3 + 0.4j):
        want = oracle_theta1(z, tau)
        assert abs(theta1_eval(z, tau) - want) <= 4e-13 * abs(want)


def test_sigma_eval_where_theta1_overflows():
    # Near 20i theta1(z, i) and exp(alpha*z^2) are about 1e545 and 1e-273
    # apart; the oracle needs 600 digits to see through the cancellation.
    lat = lattice_from_rho_tau(1, 1j)
    for z in (0.5 + 20j, 0.3 + 20.2j, 0.5 + 20.5j):
        want = oracle_sigma(z, lat.rho, lat.tau.value, dps=700)
        assert abs(sigma_eval(z, lat) - want) <= 3e-13 * abs(want)


@pytest.mark.parametrize("tau", GRID)
def test_theta1_eval_near_zeros_and_on_cell_edge(tau):
    near_point = NEAR_POINT + ([1j + 2**-30] if tau == 1j else [])
    for points, budget in ((NEAR_ZERO, 2e-15), (near_point, 2.5e-15), (cell_edge(tau), 4e-15)):
        got = [theta1_eval(z, tau) for z in points]
        assert relative_errors(got, [oracle_theta1(z, tau) for z in points]) <= budget


@pytest.mark.parametrize("tau", GRID)
@pytest.mark.parametrize("rho", [1.0, 0.8 + 0.3j])
def test_sigma_eval_near_zeros_and_on_cell_edge(tau, rho):
    lat = lattice_from_rho_tau(rho, tau)
    r, t = lat.rho, lat.tau.value
    cases = [(NEAR_ZERO, 2.5e-15), ([r * w for w in cell_edge(t)], 3e-13)]
    if rho == 1.0:
        assert r == 1
        cases.append((NEAR_POINT, 8e-15))
    for points, budget in cases:
        got = [sigma_eval(z, lat) for z in points]
        assert relative_errors(got, [oracle_sigma(z, r, t) for z in points]) <= budget


@pytest.mark.parametrize("tau", GRID)
def test_eta_g2_g3_and_j(tau):
    with mp.workdps(DPS):
        t = mp.mpc(tau)
        q = mp.exp(2j * mp.pi * t)
        eta = complex(mp.exp(1j * mp.pi * t / 12) * mp.qp(q))
        th2, th3, th4 = (mp.jtheta(k, 0, _nome(tau)) for k in (2, 3, 4))
        e4 = (th2**8 + th3**8 + th4**8) / 2
        e6 = (th2**4 + th3**4) * (th3**4 + th4**4) * (th4**4 - th2**4) / 2
        g2 = complex((2 * mp.pi) ** 4 / 12 * e4)
        g3 = complex((2 * mp.pi) ** 6 / 216 * e6)
        j = complex(1728 * mp.kleinj(t))
    got_g2, got_g3 = weierstrass_g(tau)
    assert abs(dedekind_eta(tau) - eta) <= 1e-15 * abs(eta)
    assert abs(got_g2 - g2) <= 2.5e-15 * max(abs(g2), (2 * math.pi) ** 4 / 12)
    assert abs(got_g3 - g3) <= 2.5e-15 * max(abs(g3), (2 * math.pi) ** 6 / 216)
    assert abs(j_invariant(tau) - j) <= 1.5e-14 * max(abs(j), 1728)


def test_local_coefficients_of_j():
    # j = C3*(tau - rho)^3 + ... at rho = exp(2*pi*i/3), and
    # j - 1728 = C2*(tau - i)^2 + ... at i.
    with mp.workdps(30):
        def j(t):
            return 1728 * mp.kleinj(t)
        c3 = complex(mp.diff(j, mp.exp(2j * mp.pi / 3), 3) / 6)
        c2 = complex(mp.diff(j, mp.mpc(0, 1), 2) / 2)
    assert abs(_C3 - c3) <= 1e-14 * abs(c3)
    assert abs(_C2 - c2) <= 1e-14 * abs(c2)
