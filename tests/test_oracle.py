"""theta1 kernels, sigma_eval, eta, g2, g3, the discriminant, j, invert_j
and (p, q) against an independent mpmath oracle at 50 digits.

The oracle is mpmath's ``jtheta`` and its z-derivatives, ``qp`` for eta
and the discriminant, Eisenstein sums for g2 and g3 and ``kleinj`` for j,
which share no code or formula with the library's q-series loops and
theta constants.  Each budget is about five times the largest relative
error measured on its grid: 2.0e-16 per coefficient at degree 3, 8.6e-15
at degree 31 (near the corner), 8.5e-14 for theta1_eval at values up to
1e287, 1.1e-14 for sigma_eval with |Re z|, |Im z| <= 3 and 1.2e-13 for
sigma_eval where theta1 alone overflows.  On the grid of ``GRID`` (both
corners, Im tau from 0.97 to 20) the largest measured errors are, for
theta1_eval and sigma_eval, 4.2e-16 and 2.8e-16 next to 0, 4.6e-16 and
9.5e-16 next to a nonzero lattice point, and 8.2e-16 and 2.7e-14 on the
edge |Im w| = Im(tau)/2 of the reduced cell (sigma's edge error grows with
|alpha*z^2|, about 160 at Im tau = 20); 2.1e-16 for eta, 8.0e-16 and
7.9e-16 for g2 and g3 against max(|g2|, (2 pi)^4/12) and
max(|g3|, (2 pi)^6/216) (both vanish at a special point), 3.8e-15 for j
against max(|j|, 1728), 3.3e-15 for the discriminant, and 1.1e-15 and
1.5e-15 for p and q against the same floors as g2 and g3.  On ``OFF_GRID``
(Im tau from 0.02 to 0.45, near the cusps 0, 1/2, 1/3 and 3), with the
floors scaled by the weights of the reducing map, they are 1.4e-15 for
g2, 2.3e-15 for g3, 8.4e-15 for the discriminant, 8.5e-15 for j, and
2.3e-15 and 3.1e-15 for p and q.  theta1_eval measured 1.4e-15 on six and
seven factors (Im tau from 0.35 to 0.55), and 8.4e-15 on ``OFF_GRID``.
Below Im tau = 1/2 every kernel runs at the point of the modular inversion;
a seeded sweep down to the cap (``SWEEP_BUDGETS``) checks theta1 and sigma
against their series summed in mpmath as they stand, with the digits their
cancellation needs, and eta, g2, g3 and j against their values near the
fundamental domain carried back by their transformation laws.

``extend_series`` is checked against a 60-digit run of the same recurrence
on the same double data (``oracle_extend``), so the test sees the error
the method adds, not the conditioning of the data.  Its error relative to
the largest coefficient measured 2.6e-15 on ``EXTEND_MEMBERS`` at degree
41.  Where a measured slope once cancelled, the error per coefficient
measured 8.2e-9 for sin(30z) to degree 21, 1.7e-14 for sigma with
rho = 0.3, tau = i to degree 41 and 1.5e-15 for {1, 0, 1e30, 1e40} to
degree 21.  sin(20z) to degree 41 came within 9.7x of the largest movement
of the exact extension under a 1-ulp change in a3, a5 or a7.

``synthesize`` is checked against closed-form members (``oracle_member``):
sigma from the Lambert sums of g2 and g3 and the Laurent recurrence of wp,
which share no formula with theta1's series, in six seeded groups of 24
members at degrees 7 to 41 (``SYNTHESIS_BUDGETS``).

``dedekind_eta`` is checked against the product ``qp`` in each of its three
regimes (eta at the modular inversion's point below Im tau = 1/2, the cube
root of 2*eta^3/c0 up to 900, exp(i*pi*tau/12) above), on seeded groups with
a budget each (``ETA_BUDGETS``).
"""

import cmath
import math
import statistics

import numpy as np
import pytest

from conftest import OFF_GRID, eta_product_oracle, synthesize_reference

from sigmakit import (
    Classification,
    Lattice,
    NumericError,
    TauPoint,
    TruncatedOddSeries,
    UnimodularMap,
    dedekind_eta,
    extend_series,
    invert_j,
    j_invariant,
    lattice_from_rho_tau,
    modular_discriminant,
    modular_pq,
    psi,
    reduce_tau,
    sigma_eval,
    synthesize,
    theta1_eval,
    theta1_odd_series,
    weierstrass_g,
)
from sigmakit.modular import _shift_real

mp = pytest.importorskip("mpmath")

DPS = 50
CORNER = cmath.exp(2j * math.pi / 3)
TAUS = [1j, 0.3 + 1.1j, CORNER + 1e-3j]
# Both corners exactly (to double rounding), then Im tau from 0.97 to 20.
GRID = [complex(-0.5, math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2), 0.25 + 0.97j, 1j,
        0.3 + 1.1j, -0.45 + 1.5j, 0.2 + 2.5j, 0.4 + 5j, -0.1 + 10j, 0.3 + 20j]
# g2 and g3 vanish at a corner and at i; their errors are measured
# against max(|g|, its value at the cusp).
G2_FLOOR = (2 * math.pi) ** 4 / 12
G3_FLOOR = (2 * math.pi) ** 6 / 216
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


def _jtheta1(u, tau, derivative=0):
    """jtheta(1, u, q) at q = exp(i pi tau), with q^(1/4) taken as exp(i pi tau/4).

    mpmath takes the principal fourth root of q, which is off by a power of
    i once |Re tau| >= 1.
    """
    tau = mp.mpc(tau)
    q = mp.exp(1j * mp.pi * tau)
    quarter = mp.exp(1j * mp.pi * tau / 4) / mp.nthroot(q, 4)
    return mp.jtheta(1, u, q, derivative=derivative) * quarter


def oracle_odd_coefficients(tau, max_degree):
    """a_d = pi^d * d/du^d jtheta(1, u, q) at u = 0, divided by d!."""
    with mp.workdps(DPS):
        return [complex(mp.pi**d * _jtheta1(0, tau, d) / mp.factorial(d))
                for d in range(1, max_degree + 1, 2)]


def oracle_theta1(z, tau):
    with mp.workdps(DPS):
        return complex(_jtheta1(mp.pi * mp.mpc(z), tau))


def oracle_sigma(z, rho, tau, dps=DPS):
    """theta1(z/rho) * exp(alpha*z^2) * rho/theta1'(0) with the sigma gauge."""
    with mp.workdps(dps):
        z, rho = mp.mpc(z), mp.mpc(rho)
        th1 = mp.pi * _jtheta1(0, tau, 1)
        th3 = mp.pi**3 * _jtheta1(0, tau, 3) / 6
        alpha = -th3 / (rho**2 * th1)
        return complex(_jtheta1(mp.pi * z / rho, tau) * mp.exp(alpha * z * z) * rho / th1)


@pytest.mark.parametrize("tau", TAUS + [0.02j, 0.1j, 0.3 + 0.2j, 3.02 + 0.05j, 1.3 + 0.9j])
@pytest.mark.parametrize("max_degree, budget", [(3, 1e-15), (31, 5e-14), (41, 2e-14)])
def test_theta1_odd_series(tau, max_degree, budget):
    if tau.imag < 0.5:
        # The series is summed at s = -1/tau, whose rounding alone moves a1
        # at 0.02i by pi*|ds|/4 relative: 1.0e-15 measured at degree 3,
        # 1.5e-14 at degrees 31 and 41.
        budget *= 5
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


def cell_points(tau, seed, count=12):
    """Seeded points of the reduced cell |Re w| <= 1/2, |Im w| <= Im(tau)/2."""
    rng = np.random.default_rng(seed)
    v = tau.imag
    return [complex(rng.uniform(-0.5, 0.5), rng.uniform(-v / 2, v / 2)) for _ in range(count)]


# Six factors reach down to Im tau = 0.389; below Im tau = 1/2 the kernel sums
# in the modular inversion's cell, on either side of the seventh factor.
@pytest.mark.parametrize("tau", [0.55j, 0.5j, 0.25 + 0.5j, -0.4 + 0.52j, 0.45j, 0.39j,
                                 0.389j, 0.38j, 0.3 + 0.35j])
def test_theta1_eval_at_six_and_seven_factors(tau):
    for points, budget in ((NEAR_ZERO, 2e-15), (cell_edge(tau) + cell_points(tau, 3), 4e-15)):
        got = [theta1_eval(z, tau) for z in points]
        assert relative_errors(got, [oracle_theta1(z, tau) for z in points]) <= budget


def largest_term(z, tau):
    """The largest |c_k sin((2k+1) pi z)| of theta1's sum, c_k = 2 (-1)^k q^((k+1/2)^2)."""
    return max(abs(2 * cmath.exp(1j * math.pi * tau * (k + 0.5) ** 2)
                   * cmath.sin((2 * k + 1) * math.pi * z)) for k in range(400))


@pytest.mark.parametrize("tau", OFF_GRID)
def test_theta1_eval_below_one_half_against_its_largest_term(tau):
    # theta1's sum at tau cancels here, and the sum it once ran judged only
    # against its largest term (1.3e-14 measured) passed 1 relative at
    # 0.007 + 0.01i.  Summed in the modular inversion's cell, it keeps its
    # relative accuracy: 8.4e-15 measured.
    for z in cell_points(tau, 4) + [0.3, 0.1 + 0.003j]:
        want = oracle_theta1(z, tau)
        assert abs(theta1_eval(z, tau) - want) <= 7e-14 * largest_term(z, tau)
        assert abs(theta1_eval(z, tau) - want) <= 4e-14 * abs(want)


def oracle_modular(tau):
    """eta, g2, g3, Delta, j, p and q at tau, by routes that share no
    formula with the library's theta constants: the product ``qp`` for eta,
    the Eisenstein series 1 + 240 sum sigma_3(n) q^n and
    1 - 504 sum sigma_5(n) q^n as Lambert sums for g2 and g3, and ``kleinj``
    for j."""
    with mp.workdps(DPS):
        t = mp.mpc(tau)
        q = mp.exp(2j * mp.pi * t)

        def lambert(k):
            return mp.nsum(lambda n: n**k * q**n / (1 - q**n), [1, mp.inf])

        eta = mp.exp(1j * mp.pi * t / 12) * mp.qp(q)
        g2 = (2 * mp.pi) ** 4 / 12 * (1 + 240 * lambert(3))
        g3 = (2 * mp.pi) ** 6 / 216 * (1 - 504 * lambert(5))
        values = {
            "eta": eta, "g2": g2, "g3": g3,
            "delta": (2 * mp.pi) ** 12 * eta**24,
            "j": 1728 * mp.kleinj(t),
            "p": mp.pi**2 / 30 * eta**6 * g2,
            "q": -mp.pi**3 / 35 * eta**9 * g3,
        }
        return {key: complex(v) for key, v in values.items()}


@pytest.mark.parametrize("tau", GRID)
def test_eta_g2_g3_and_j(tau):
    want = oracle_modular(tau)
    g2, g3 = weierstrass_g(tau)
    assert abs(dedekind_eta(tau) - want["eta"]) <= 1e-15 * abs(want["eta"])
    assert abs(g2 - want["g2"]) <= 2.5e-15 * max(abs(want["g2"]), G2_FLOOR)
    assert abs(g3 - want["g3"]) <= 2.5e-15 * max(abs(want["g3"]), G3_FLOOR)
    assert abs(j_invariant(tau) - want["j"]) <= 1.5e-14 * max(abs(want["j"]), 1728)


@pytest.mark.parametrize("tau", GRID)
def test_discriminant_derivative_of_j_and_pq(tau):
    want = oracle_modular(tau)
    assert abs(modular_discriminant(tau) - want["delta"]) <= 1.6e-14 * abs(want["delta"])
    # p and q vanish with g2 and g3, so they take the same floors.
    p, q = modular_pq(tau)
    eta = abs(want["eta"])
    p_scale = math.pi**2 / 30 * eta**6 * max(abs(want["g2"]), G2_FLOOR)
    q_scale = math.pi**3 / 35 * eta**9 * max(abs(want["g3"]), G3_FLOOR)
    assert abs(p - want["p"]) <= 5.5e-15 * p_scale
    assert abs(q - want["q"]) <= 7.5e-15 * q_scale


def oracle_eta_and_delta(tau):
    """eta by the product ``qp`` and Delta = (2 pi)^12 eta^24 at tau, as mpmath
    numbers, which do not underflow."""
    with mp.workdps(DPS):
        t = mp.mpc(tau)
        eta = mp.exp(1j * mp.pi * t / 12) * mp.qp(mp.exp(2j * mp.pi * t))
        return eta, (2 * mp.pi) ** 12 * eta**24


# eta and Delta have no zeros.  Their values leave the normal doubles from
# Im tau of about 2706 and 116.26, and raise NumericError there; at 3000i
# eta came back as 0, and at 118i Delta 2 % off.  Just inside, the largest
# relative errors measured are 7.6e-14 and 6.7e-14, from exp at an argument
# near -708 and -91 (the eighth power of eta^3 once made Delta 1e-7 off at
# 116i, where eta^24 alone was subnormal).
@pytest.mark.parametrize("tau", [2700j, 0.3 + 2705j, -0.5 + 2705.5j, 1e4 + 2705j])
def test_eta_just_inside_the_normal_doubles(tau):
    want = complex(oracle_eta_and_delta(tau)[0])
    assert abs(dedekind_eta(tau) - want) <= 4e-13 * abs(want)


@pytest.mark.parametrize("tau", [112j, 0.1 + 113.5j, 115j, -0.4 + 116j, 0.1 + 116.2j, 116.25j])
def test_discriminant_just_inside_the_normal_doubles(tau):
    want = complex(oracle_eta_and_delta(tau)[1])
    assert abs(modular_discriminant(tau) - want) <= 4e-13 * abs(want)


@pytest.mark.parametrize("call, what, tau", [
    (dedekind_eta, "eta", 2706j), (dedekind_eta, "eta", 0.3 + 2707j),
    (dedekind_eta, "eta", 2800j), (dedekind_eta, "eta", 3000j),
    (modular_discriminant, "discriminant", 0.1 + 116.25j),
    (modular_discriminant, "discriminant", 116.3j),
    (modular_discriminant, "discriminant", 118j), (modular_discriminant, "discriminant", 125j)])
def test_below_the_normal_doubles_is_numeric_error(call, what, tau):
    value = oracle_eta_and_delta(tau)[call is modular_discriminant]
    # The true value is nonzero, and its larger part is below the normal doubles.
    assert 0 < max(abs(value.real), abs(value.imag)) < 2.0**-1022
    with pytest.raises(NumericError) as err:
        call(tau)
    assert str(err.value) == f"{what} underflows at tau={tau}"
    assert err.value.diagnostics == {"tau": [tau.real, tau.imag]}


def eta_error(eta, tau):
    """|eta(tau) - oracle| / |oracle|, formed in mpmath, where eta**24 does not underflow."""
    want = oracle_eta_and_delta(tau)[0]
    with mp.workdps(DPS):
        return float(abs(mp.mpc(eta(tau)) - want) / abs(want))


def eta_taus(group, count=64):
    """Seeded tau of one group of ``ETA_BUDGETS``."""
    if group == "edges":
        # Both sides of Im tau = 1/2 and 900, a rounding step apart.
        return [complex(x, h) for x in (-0.5, -0.2, 0.0, 0.3, 7.5e5) for y in (0.5, 900.0)
                for h in (math.nextafter(y, 0), y, math.nextafter(y, math.inf))]
    rng = np.random.default_rng(list(ETA_BUDGETS).index(group) + 5300)
    low, high = {"below one half": (0.05, 0.5), "theta constants": (0.5, 3),
                 "large real part": (0.05, 2), "high": (3, 900), "above 900": (900, 2705)}[group]
    taus = []
    for _ in range(count):
        x = rng.uniform(-0.5, 0.5)
        if group == "large real part":
            x = math.copysign(10 ** rng.uniform(0, 6), x)
        taus.append(complex(x, rng.uniform(low, high)))
    return taus


# The budget of each group's largest relative error, about five times the
# largest measured.  Mean / median / max measured, against the mpmath product:
# below one half (Im tau from 0.05 to 1/2, eta at the inversion's point) 1.4e-16 /
# 1.3e-16 / 3.8e-16, where the product it replaced gave 2.9e-16 / 2.1e-16 /
# 1.0e-15; theta constants (Im tau from 1/2 to 3, the cube root of
# 2*eta^3/c0) 1.1e-16 / 9.7e-17 / 3.0e-16, where the product gives
# 1.3e-16 / 1.1e-16 / 4.0e-16; large real part (|Re tau| from 1 to 1e6,
# Im tau from 0.05 to 2) 2.1e-16 / 1.8e-16 / 5.5e-16 against 3.6e-16 /
# 2.3e-16 / 2.2e-15; high (Im tau from 3 to 900) 8.8e-15 / 7.1e-15 / 2.8e-14
# and above 900 (exp(i*pi*tau/12), every factor of the product being 1 in
# doubles, to Im tau = 2705) 2.9e-14 / 2.1e-14 / 8.3e-14, both set by the
# rounding of exp's argument near -pi*Im(tau)/12; edges (a rounding step
# either side of Im tau = 1/2 and 900) 6.4e-15 / 5.8e-15 / 1.4e-14.  From
# Im tau = 3 up both routes are that rounding, and they differ at 2 of the 64
# high points by an ulp of the product.
ETA_BUDGETS = {
    "below one half": 5e-15,
    "theta constants": 1.5e-15,
    "large real part": 1e-14,
    "high": 1.5e-13,
    "above 900": 4e-13,
    "edges": 7e-14,
}


@pytest.mark.parametrize("group", ETA_BUDGETS)
def test_eta_in_each_regime(group):
    taus = eta_taus(group)
    errors = [eta_error(dedekind_eta, tau) for tau in taus]
    # The product, as eta was taken on every tau before the cube root.
    reference = [eta_error(lambda t: eta_product_oracle(_shift_real(t, 24.0)), tau)
                 for tau in taus]
    report = {name: [f"{f(e):.2e}" for f in (statistics.mean, statistics.median, max)]
              for name, e in (("eta", errors), ("product", reference))}
    assert max(errors) <= ETA_BUDGETS[group], report
    if group in ("below one half", "theta constants", "large real part"):
        # The inversion and the cube root are no less accurate than the product.
        assert statistics.mean(errors) <= statistics.mean(reference), report
        assert statistics.median(errors) <= statistics.median(reference), report


@pytest.mark.parametrize("tau", OFF_GRID)
def test_modular_forms_off_the_fundamental_domain(tau):
    want = oracle_modular(tau)
    # The floors of g2 and g3 carry the weights 4 and 6 of the map that
    # carries tau into the fundamental domain.
    m = reduce_tau(tau)[1]
    f = abs(m.c * tau + m.d)
    g2_floor, g3_floor = max(abs(want["g2"]), G2_FLOOR / f**4), max(abs(want["g3"]), G3_FLOOR / f**6)
    g2, g3 = weierstrass_g(tau)
    assert abs(g2 - want["g2"]) <= 1.2e-14 * g2_floor
    assert abs(g3 - want["g3"]) <= 1.3e-14 * g3_floor
    assert abs(modular_discriminant(tau) - want["delta"]) <= 4e-14 * abs(want["delta"])
    assert abs(j_invariant(tau) - want["j"]) <= 5e-14 * max(abs(want["j"]), 1728)
    p, q = modular_pq(tau)
    eta = abs(want["eta"])
    assert abs(p - want["p"]) <= 2e-14 * math.pi**2 / 30 * eta**6 * g2_floor
    assert abs(q - want["q"]) <= 2.7e-14 * math.pi**3 / 35 * eta**9 * g3_floor

# Below Im tau = 1/2 every q-series runs at the point of the modular inversion
# s = -1/(tau - n), repeated until Im s >= 1/2.  The sweep draws Im tau
# log-uniform from the cap's 3.8e-4 to 1/2 and |Re tau| <= 2, and z in tau's
# cell or up to two periods beyond it; theta1 and sigma (on hand-built
# lattices, whose tau is not reduced) are checked against their series summed
# in mpmath as they stand, and eta, g2, g3 and j against their values near the
# fundamental domain carried back in mpmath by their transformation laws.
SWEEP_LOW = 3.8e-4


def sweep_taus(seed, count):
    rng = np.random.default_rng(seed)
    return [complex(rng.uniform(-2, 2), 10 ** rng.uniform(math.log10(SWEEP_LOW), math.log10(0.5)))
            for _ in range(count)]


def sweep_points(tau, rng, count):
    """Seeded z in tau's cell, or up to two periods beyond it."""
    out = []
    for _ in range(count):
        m, n = rng.integers(-2, 3, 2)
        out.append(complex(rng.uniform(-0.5, 0.5), rng.uniform(-tau.imag / 2, tau.imag / 2))
                   + int(m) + int(n) * tau)
    return out


def series_theta1(z, tau, derivative=0):
    """theta1 or, at z = 0, its first or third z-derivative, from
    2 sum_k (-1)^k exp(i pi tau (k+1/2)^2) sin((2k+1) pi z) summed in mpmath
    without reduction.  Its terms near 1 cancel to about exp(-pi/(4 Im tau)),
    so the digits grow as Im tau falls; each term comes from the one before."""
    v = tau.imag
    dps = 30 + int(math.pi / (4 * v) / math.log(10))
    with mp.workdps(dps):
        t, x = mp.mpc(tau), mp.pi * mp.mpc(z)
        g, c = mp.exp(2j * mp.pi * t), 2 * mp.exp(1j * mp.pi * t / 4)
        e, e2 = mp.exp(1j * x), mp.exp(2j * x)
        total, gk = 0, 1
        for k in range(int(math.sqrt(dps * math.log(10) / (math.pi * v))) + 10):
            if k:
                gk *= g
                c, e = -c * gk, e * e2
            w = (2 * k + 1) * mp.pi
            total += c * ((e - 1 / e) / 2j if derivative == 0 else w**derivative
                          * (1 if derivative == 1 else -1))
        return total


def modular_by_steps(tau):
    """eta, g2, g3 and j at tau, and |cd|: from ``oracle_modular`` near the
    fundamental domain, carried back step by step in mpmath through t -> t + n
    (eta gains exp(i pi n/12)) and t -> -1/t (eta gains sqrt(-i t), g2 and g3
    the weights t^4 and t^6); |cd| is |c tau + d| of the whole map."""
    with mp.workdps(DPS):
        t, eta, weight = mp.mpc(tau), mp.mpf(1), mp.mpf(1)
        while True:
            n = int(mp.nint(t.real))
            t -= n
            eta *= mp.exp(1j * mp.pi * n / 12)
            if abs(t) >= 1:
                break
            t = -1 / t
            eta *= mp.sqrt(-1j * t)
            weight *= t
        want = oracle_modular(complex(t))
        return {"eta": eta * want["eta"], "g2": weight**4 * want["g2"],
                "g3": weight**6 * want["g3"], "j": want["j"], "cd": float(abs(weight))}


def sweep_errors(group, seed=29, count=24):
    """{kernel: relative errors} over the sweep's draws, and the count of typed errors.

    A value below the normal doubles (sigma's Gaussian can take it there) counts
    as answered where the answer is below them too.
    """
    errors, typed = {}, 0
    rng = np.random.default_rng(seed + 1)
    for tau in sweep_taus(seed, count):
        found = {}
        try:
            if group == "theta1":
                found["theta1"] = [(theta1_eval(z, tau), series_theta1(z, tau))
                                   for z in sweep_points(tau, rng, 3)]
            elif group == "sigma":
                rho = cmath.rect(rng.uniform(0.5, 2), rng.uniform(-math.pi, math.pi))
                lat = Lattice(rho, rho * tau, rho, TauPoint(tau), UnimodularMap(1, 0, 0, 1), False)
                got = [(w, sigma_eval(rho * w, lat)) for w in sweep_points(tau, rng, 2)]
                th1, th3 = series_theta1(0, tau, 1), series_theta1(0, tau, 3) / 6
                with mp.workdps(30 + int(math.pi / (4 * tau.imag) / math.log(10))):
                    found["sigma"] = [(s, series_theta1(w, tau) * mp.exp(-th3 / th1 * mp.mpc(w)**2)
                                       * rho / th1) for w, s in got]
            else:
                want = modular_by_steps(tau)
                g2, g3 = weierstrass_g(tau)
                found["eta"] = [(dedekind_eta(tau), want["eta"])]
                # g2 and g3 against their floors, with the weights of the map.
                found["g2"] = [(g2, want["g2"], G2_FLOOR / want["cd"] ** 4)]
                found["g3"] = [(g3, want["g3"], G3_FLOOR / want["cd"] ** 6)]
                found["j"] = [(j_invariant(tau), want["j"], 1728)]
        except NumericError:
            typed += 1
            continue
        for kernel, pairs in found.items():
            for got, want, *floor in pairs:
                with mp.workdps(30):
                    scale = max([abs(mp.mpc(want)), *floor])
                    if scale < 2.0**-1022:
                        errors.setdefault(kernel, []).append(0.0 if abs(got) < 2.0**-1022 else 1.0)
                    else:
                        errors.setdefault(kernel, []).append(float(abs(mp.mpc(got) - want) / scale))
    return errors, typed


# The budget of each kernel's largest relative error over the sweep, about five
# times the largest measured; g2, g3 against max(|g|, its cusp value over
# |c tau + d| to its weight), j against max(|j|, 1728).  Mean / median / max
# measured on 24 tau: theta1 (72 z) 3.9e-13 / 2.4e-14 / 9.1e-12; sigma (32 z;
# 8 lattices raised NumericError, each at a sigma from 1e481 to 1e8233)
# 8.7e-13 / 1.6e-14 / 2.0e-11; eta 1.6e-15 / 4.0e-16 / 1.5e-14; g2 1.4e-14 /
# 1.2e-15 / 1.7e-13; g3 2.1e-14 / 1.7e-15 / 2.6e-13; j 5.3e-14 / 6.0e-15 /
# 5.6e-13.  The errors grow as Im tau falls, with the arguments of the
# exponentials (up to about pi/(4 Im tau)) whose rounding they carry.
SWEEP_BUDGETS = {"theta1": 5e-11, "sigma": 1e-10, "eta": 8e-14, "g2": 8e-13, "g3": 1.3e-12,
                 "j": 3e-12}


@pytest.mark.parametrize("group", ["theta1", "sigma", "modular forms"])
def test_sweep_below_one_half(group):
    errors, typed = sweep_errors(group)
    report = {kernel: [f"{f(e):.2e}" for f in (statistics.mean, statistics.median, max)]
              for kernel, e in errors.items()}
    report["typed"] = typed
    # Most draws answer (8 of 24 sigma lattices raised, each on a value past the doubles).
    assert 2 * typed <= 24, report
    for kernel, e in errors.items():
        assert max(e) <= SWEEP_BUDGETS[kernel], report


# |j| from 0.5 to the largest double: phases all round, negative reals,
# CM values with rational j (j(i*sqrt(2)) = 8000, j(2i) = 66^3,
# j((1 + sqrt(-d))/2) for d = 7, 11, 163) and the worst value of a
# 900-value sweep with |j| log-uniform up to 1e300 and landmarks beyond.
INVERT_J_VALUES = [
    0.5, -0.5j, 0.0, 0.3 + 0.4j, 1728.0, 999.0 - 1400j, -100.0, -3375.0, 8000.0, 2001.0,
    -32768.0, 287496.0, 1e6 + 3e5j, -1e6, cmath.rect(1e12, 1.0), -640320.0**3, 1e50j,
    cmath.rect(1e100, 2.2), 1e200, cmath.rect(1e250, -0.7), -1e300, cmath.rect(1e300, 2.5),
    6.666666666666666e306 + 6.666666666666666e306j, 1e307j, cmath.rect(1e308, -2.0),
    1.79e308, -1.79e308,
]


@pytest.mark.parametrize("jval", INVERT_J_VALUES)
def test_invert_j(jval):
    # j is conditioned by 2*pi*Im(tau) towards the cusp, where
    # dj/dtau = -2*pi*i*j*E6/E4, so tau a few roundings of |tau| off moves
    # j by that much relative; near the corner, where j is cubic in
    # tau - rho, 8 covers it.  The largest measured error over the budget's
    # factor is 9.8e-16 (at -0.5i) and 5.2e-16 at the cusp (Im tau = 112);
    # the budget is twice the first.
    tau = invert_j(jval).value
    assert -0.5 <= tau.real < 0.5 and abs(tau) >= 1 - 1e-15
    with mp.workdps(DPS):
        want = 1728 * mp.kleinj(mp.mpc(tau))
        error = float(abs(want - mp.mpc(jval)))
    assert error <= 2e-15 * max(8, 2 * math.pi * tau.imag) * max(1, abs(jval))


def oracle_extend(data, target, dps=60):
    """The duplication recurrence at dps digits on the given double data.

    In w = z^2, f = z*F0, f' = F1, f'' = z*F2 and f''' = F3, so the
    degree-(2m+1) coefficient of f^4 (log f)''' is
    [w^(m-1)] (F0^3 F3 - 3 F0^2 F1 F2) + 2 [w^m] (F0 F1^3), taken at a_n = 0.
    """
    def mul(p, q):
        return [mp.fdot(p[:j + 1], q[j::-1]) for j in range(len(p))]

    with mp.workdps(dps):
        a = [mp.mpc(c) for c in data]
        for m in range(len(a), (target + 1) // 2):
            f0 = a + [mp.mpc(0)]
            f1 = [(2 * i + 1) * c for i, c in enumerate(f0)]
            f2 = [(2 * i + 2) * c for i, c in enumerate(f1[1:])] + [mp.mpc(0)]
            f3 = [(2 * i + 1) * c for i, c in enumerate(f2)]
            ff = mul(f0, f0)
            t1 = mp.fdot(mul(ff, f0)[:m], f3[m - 1::-1])
            t2 = mp.fdot(ff[:m], mul(f1, f2)[m - 1::-1])
            t3 = mp.fdot(f0, mul(mul(f1, f1), f1)[::-1])
            a.append(-(t1 - 3 * t2 + 2 * t3) / (a[0] ** 3 * psi(2 * m + 1)))
        return [complex(c) for c in a]


def degree7(case, alpha, beta, **member):
    if "tau" in member:
        member["tau"] = TauPoint(member["tau"])
    return synthesize(Classification(case, alpha, beta, **member), 7).odd_coefficients


EXTEND_MEMBERS = [
    ("trig", 0.0, 0.0, {"a": 0.5}),
    ("trig", 0.2 - 0.1j, 0.3 + 0.5j, {"a": 0.8 + 0.3j}),
    ("trig", -0.25j, -0.4, {"a": 1.0}),
    ("trig", 0.1, 0.9j, {"a": 1.2 - 0.4j}),
    ("trig", -0.3 + 0.2j, 0.2 - 0.7j, {"a": 1.5}),
    ("elliptic", 0.0, 0.0, {"rho": 0.35 + 0.1j, "tau": 0.1 + 1.2j}),
    ("elliptic", 0.2 - 0.1j, 0.3 + 0.5j, {"rho": 0.7 - 0.4j, "tau": -0.3 + 0.96j}),
    ("elliptic", -0.25j, -0.4, {"rho": 1.0, "tau": 1j}),
    ("elliptic", 0.1, 0.9j, {"rho": 1.1 + 0.5j, "tau": 0.45 + 1.6j}),
    ("elliptic", -0.3 + 0.2j, 0.2 - 0.7j, {"rho": 1.4, "tau": -0.2 + 2.5j}),
]


@pytest.mark.parametrize("case, alpha, beta, member", EXTEND_MEMBERS)
def test_extend_series_members(case, alpha, beta, member):
    data = degree7(case, alpha, beta, **member)
    got = extend_series(TruncatedOddSeries(data), 41).odd_coefficients
    want = oracle_extend(data, 41)
    scale = max(abs(w) for w in want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1.3e-14 * scale


@pytest.mark.parametrize("data, target, budget", [
    # A measured slope lost its precision at degree 11, 37 and 9 here.
    (degree7("trig", 0, 0, a=30), 21, 4e-8),
    (degree7("elliptic", 0, 0, rho=0.3, tau=1j), 41, 8e-14),
    ((1, 0, 1e30, 1e40), 21, 7.5e-15),
], ids=["sin30z-to-21", "sigma-rho0.3-to-41", "1e30-1e40-to-21"])
def test_extend_series_per_coefficient(data, target, budget):
    got = extend_series(TruncatedOddSeries(data), target).odd_coefficients
    want = oracle_extend(data, target)
    for g, w in zip(got, want):
        assert abs(g - w) <= budget * abs(w)


def test_extend_series_is_backward_stable():
    # sin(20z) data to degree 41 is ill-conditioned: a 1-ulp change in one
    # input coefficient moves the exact extension by up to 2e-3 of its
    # largest coefficient.  The error stays within a small multiple of that.
    data = degree7("trig", 0, 0, a=20)
    want = oracle_extend(data, 41)
    got = extend_series(TruncatedOddSeries(data), 41).odd_coefficients
    error = max(abs(g - w) for g, w in zip(got, want))
    movement = 0.0
    for k in (1, 2, 3):
        nudged = list(data)
        nudged[k] = complex(math.nextafter(data[k].real, math.inf), data[k].imag)
        movement = max(movement, *(abs(x - w) for x, w in zip(oracle_extend(nudged, 41), want)))
    assert error <= 50 * movement


def _oracle_reduced(rho, tau):
    """(rho', tau') with rho'*(Z + tau'*Z) = rho*(Z + tau*Z) and tau' reduced:
    tau -> tau - n keeps rho, and tau -> -1/tau takes rho to rho*tau."""
    while True:
        tau -= mp.nint(tau.real)
        if abs(tau) >= 1:
            return rho, tau
        rho, tau = rho * tau, -1 / tau


def oracle_member(c, max_degree, dps=DPS):
    """Odd coefficients of a classified member in closed form, at dps digits.

    z and sin(a*z) are summed from their series.  sigma comes from the
    invariants of rho*(Z + tau*Z), found at a tau reduced here, as Lambert
    sums g2 = (2 pi)^4/12 (1 + 240 sum n^3 q^n/(1 - q^n)) and
    g3 = (2 pi)^6/216 (1 - 504 sum n^5 q^n/(1 - q^n)) divided by rho^4 and
    rho^6, and the Laurent recurrence of wp: wp = 1/z^2 + sum c_k z^(2k-2)
    with c_2 = g2/20, c_3 = g3/28, c_k = 3/((2k+1)(k-3)) sum c_m c_(k-m),
    and sigma = z exp(-sum c_k z^(2k)/(2k(2k-1))).  The member is that
    series times exp(alpha z^2 + beta), a Cauchy product at dps digits.
    """
    count = (max_degree + 1) // 2
    with mp.workdps(dps):
        if c.case == "linear":
            base = [mp.mpc(1)] + [mp.mpc(0)] * (count - 1)
        elif c.case == "trig":
            a = mp.mpc(c.a)
            base = [(-1) ** k * a ** (2 * k + 1) / mp.factorial(2 * k + 1) for k in range(count)]
        else:
            rho, tau = _oracle_reduced(mp.mpc(c.rho), mp.mpc(c.tau.value))
            q = mp.exp(2j * mp.pi * tau)
            lam3 = lam5 = mp.mpc(0)
            for n in range(1, 200):
                term = q**n / (1 - q**n)
                lam3, lam5 = lam3 + n**3 * term, lam5 + n**5 * term
                if abs(n**5 * term) < mp.mpf(10) ** (-dps - 5):
                    break
            g2 = (2 * mp.pi) ** 4 / 12 * (1 + 240 * lam3) / rho**4
            g3 = (2 * mp.pi) ** 6 / 216 * (1 - 504 * lam5) / rho**6
            wp = [mp.mpc(0)] * (count + 1)
            wp[2:4] = [g2 / 20, g3 / 28][:count - 1]
            for k in range(4, count + 1):
                wp[k] = 3 * mp.fsum(wp[m] * wp[k - m] for m in range(2, k - 1)) / ((2 * k + 1) * (k - 3))
            log = [mp.mpc(0)] * count
            for k in range(2, count):
                log[k] = -wp[k] / (2 * k * (2 * k - 1))
            base = _oracle_exp_series(log)
        gauss = _oracle_exp_series([mp.mpc(0), mp.mpc(c.alpha)] + [mp.mpc(0)] * (count - 2))
        scale = mp.exp(mp.mpc(c.beta))
        return [complex(scale * mp.fsum(base[m] * gauss[k - m] for m in range(k + 1)))
                for k in range(count)]


def _oracle_exp_series(log):
    """exp of the series sum log[k] w^k (log[0] = 0), through w^(len(log) - 1):
    k e_k = sum_(m=1..k) m log[m] e_(k-m)."""
    out = [mp.mpc(1)] + [mp.mpc(0)] * (len(log) - 1)
    for k in range(1, len(log)):
        out[k] = mp.fsum(m * log[m] * out[k - m] for m in range(1, k + 1)) / k
    return out


def synthesis_members(group, count=24):
    """Seeded members of one group of ``SYNTHESIS_BUDGETS``, at odd degrees 7..41."""
    rng = np.random.default_rng(list(SYNTHESIS_BUDGETS).index(group) + 4100)
    members = []
    for k in range(count):
        degree = 7 + 2 * (k % 18)
        beta = complex(*rng.uniform(-1, 1, 2))
        angle = rng.uniform(-math.pi, math.pi)
        if group == "linear-trig":
            alpha = cmath.rect(10 ** rng.uniform(-1, 3), rng.uniform(-math.pi, math.pi))
            made = (Classification("linear", alpha, beta) if k % 2 else
                    Classification("trig", alpha, beta, a=cmath.rect(10 ** rng.uniform(-1, 1.48), angle)))
            members.append((made, degree))
            continue
        alpha = cmath.rect(rng.uniform(0, 1), rng.uniform(-math.pi, math.pi))
        rho = cmath.rect(rng.uniform(0.5, 1.5), angle)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.5))
        if group == "rho":
            rho = cmath.rect(10 ** rng.uniform(-1.52, 1.48), angle)
        elif group == "corner":
            tau = CORNER + cmath.rect(10 ** rng.uniform(-9, -2), rng.uniform(0, math.pi))
        elif group == "unreduced":
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 0.45))
        elif group == "high":
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(2.5, 15))
        members.append((Classification("elliptic", alpha, beta, rho=rho, tau=TauPoint(tau)), degree))
    return members


def synthesis_error(synth, c, degree):
    """The largest error of synth(c, degree) over its largest oracle coefficient."""
    want = oracle_member(c, degree)
    got = synth(c, degree).odd_coefficients
    return max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want)


# Budget per group, about five times the largest error measured on its 24
# members: 4.6e-16, 6.7e-14 (a degree-13 member at |rho| = 0.1, whose theta
# route cancels; the median is 4e-16), 1.4e-15, 3.1e-14 (the reduction of
# tau moves rho by its cancellation), 1.4e-15 and 1.8e-15.  The reference,
# the O(K^2) twist of the scaled theta series at tau as given, measured
# 7.4e-16, 3.2e-10, 2.2e-14, 2.2e-10, 6.0e-15 and 2.4e-13.
SYNTHESIS_BUDGETS = {
    "linear-trig": 2.5e-15,  # z and sin(a z), |alpha| from 0.1 to 1e3, |a| from 0.1 to 30
    "rho": 3.5e-13,          # sigma with |rho| from 0.03 to 30
    "corner": 7e-15,         # tau within 1e-9 to 1e-2 of the corner
    "unreduced": 1.5e-13,    # Im tau from 0.05 to 0.45, Re tau from -3 to 3
    "high": 7e-15,           # Im tau from 2.5 to 15
    "generic": 9e-15,        # |rho| from 0.5 to 1.5, Im tau from 0.9 to 2.5
}


@pytest.mark.parametrize("group", SYNTHESIS_BUDGETS)
def test_synthesize(group):
    members = synthesis_members(group)
    errors = [synthesis_error(synthesize, c, degree) for c, degree in members]
    assert max(errors) <= SYNTHESIS_BUDGETS[group]
    # No group may lose accuracy against the construction it replaced.
    reference = [synthesis_error(synthesize_reference, c, degree) for c, degree in members]
    assert max(errors) <= max(reference)


@pytest.mark.parametrize("alpha, tau", [(0, 1j), (1e3j, 0.4 + 902j)])
def test_synthesize_at_degree_201(alpha, tau):
    # |rho| = 0.01: theta1's series scaled by (1/rho)^n overflowed here
    # although the member fits.  The Laurent route cancels past about degree
    # 130 at 80 digits, so the oracle runs at 400.  Measured against the
    # largest coefficient: 8.8e-15 and 2.5e-14.
    c = Classification("elliptic", alpha, 0.3 - 1j, rho=0.01 * cmath.exp(0.7j), tau=TauPoint(tau))
    want = oracle_member(c, 201, dps=400)
    got = synthesize(c, 201).odd_coefficients
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1.2e-13 * max(map(abs, want))
