"""theta1 kernels, sigma_eval and the local behaviour of j against an
independent mpmath oracle at 50 digits.

The oracle is mpmath's ``jtheta`` and its z-derivatives, and ``kleinj``
for j, which share no code with the library's q-series loops.  Each budget
is about five times the largest relative error measured on its grid:
2.0e-16 per coefficient at degree 3, 8.6e-15 at degree 31 (near the
corner), 8.5e-14 for theta1_eval at values up to 1e287, 1.8e-14 for
sigma_eval with |Re z|, |Im z| <= 3 and 5.9e-14 for sigma_eval where
theta1 alone overflows.
"""

import cmath
import math

import numpy as np
import pytest

from sigmakit import lattice_from_rho_tau, sigma_eval, theta1_eval, theta1_odd_series
from sigmakit.lattice import _C2, _C3

mp = pytest.importorskip("mpmath")

DPS = 50
CORNER = cmath.exp(2j * math.pi / 3)
TAUS = [1j, 0.3 + 1.1j, CORNER + 1e-3j]


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
