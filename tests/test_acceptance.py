"""Acceptance suite: one test per criterion, each printing a PASS line
after its assertions hold (run with -s to see the lines).  Tolerances are
stated inline and match the library's contracts.
"""

import cmath
import math

import numpy as np

from conftest import third_derivative
from sigmakit import (
    OddFunctionHandle,
    QuadruplePoint,
    TruncatedOddSeries,
    classify,
    duplication_residual,
    extend_series,
    identity_report,
    identity_residual,
    invert_j,
    j_invariant,
    lattice_from_rho_tau,
    modular_pq,
    mu_of_pq,
    pq_of_series,
    psi,
    synthesize,
    theta1_odd_series,
    weierstrass_g,
)
from test_classify import random_classification, wrap_to_principal

TAU_GRID = [1j, 2j, 0.3 + 1.1j, -0.25 + 0.9j]
CORNER = 0.5 + 1j * math.sqrt(3) / 2
SINE = TruncatedOddSeries([1, -1 / 6, 1 / 120, -1 / 5040])
ZETA = cmath.exp(2j * math.pi / 3)


def _pass(number, text):
    print(f"[acceptance] criterion {number:02d} PASS: {text}")


def test_criterion_01_mu_of_sine():
    inv = pq_of_series(SINE)
    assert inv.mu.is_finite
    assert abs(inv.mu.value - 49 / 40) <= 1e-12 * (49 / 40)
    _pass(1, "mu(sine) = 49/40 from Taylor data, rel err <= 1e-12")


def test_criterion_02_p_equality_on_grid():
    for tau in TAU_GRID:
        p_series = pq_of_series(theta1_odd_series(tau, 7)).p
        p_closed, _ = modular_pq(tau)
        assert abs(p_series - p_closed) <= 1e-8 * abs(p_closed)
    _pass(2, "p from the theta series equals (pi^2/30) eta^6 g2 at 1e-8")


def test_criterion_03_q_equality_on_grid():
    for tau in TAU_GRID:
        q_series = pq_of_series(theta1_odd_series(tau, 7)).q
        _, q_closed = modular_pq(tau)
        if abs(q_closed) < 1e-10:
            assert abs(q_series - q_closed) <= 1e-10
        else:
            assert abs(q_series - q_closed) <= 1e-8 * abs(q_closed)
    _pass(3, "q from the theta series equals -(pi^3/35) eta^9 g3 at 1e-8")


def test_criterion_04_mu_j_correspondence():
    for tau in TAU_GRID:
        g2, g3 = weierstrass_g(tau)
        j = j_invariant(tau)
        if tau == 1j:
            # g3 = 0 makes both sides infinite; compare as tags.
            assert mu_of_pq(g2 / 120, -g3 / 280).tag == "infinity"
            assert abs(j - 1728) <= 1e-6 * 1728
            continue
        lhs = (49 / 1080) * g2**3 / g3**2
        rhs = (49 / 40) * j / (j - 1728)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
    _pass(4, "(49/1080) g2^3/g3^2 = (49/40) j/(j-1728) at 1e-9 (tags at i)")


def test_criterion_05_identity_residual_three_functions():
    handles = [
        OddFunctionHandle.identity(),
        OddFunctionHandle.sine(),
        OddFunctionHandle.from_sigma(lattice_from_rho_tau(1, 1j)),
    ]
    for handle in handles:
        report = identity_report(handle, num_samples=100, seed=1729, box_radius=1.0)
        assert report["max_residual_over_scale"] <= 1e-9
    _pass(5, "identity residual <= 1e-9 * scale for z, sin, sigma(Z+iZ)")


def test_criterion_06_negative_control():
    cubic = TruncatedOddSeries([1, 1, 0, 0, 0])
    res = identity_residual(
        OddFunctionHandle.from_series(cubic), QuadruplePoint.of(1, 2, 3, 5)
    )
    assert abs(res.value) > 1e-2
    dup = duplication_residual(cubic)
    assert abs(abs(dup.coefficient(9)) - 6.0) <= 1e-12
    _pass(6, "z + z^3 fails: |F(1,2,3,5)| > 1e-2 and degree-9 residual is 6")


def test_criterion_07_extension_recurrence():
    assert psi(5) == 0 and psi(7) == 0 and psi(9) == -168
    data = theta1_odd_series(1j, 7)
    extended = extend_series(data, 13)
    reference = theta1_odd_series(1j, 13)
    for k in (4, 5, 6):
        ref = reference.odd_coefficients[k]
        assert abs(extended.odd_coefficients[k] - ref) <= 1e-10 * abs(ref)
    _pass(7, "theta(., i) degree-7 data extends to 13 matching the q-series")


def test_criterion_08_modular_covariance():
    for tau in TAU_GRID:
        p0, _ = modular_pq(tau)
        p_shift, _ = modular_pq(tau + 1)
        assert abs(p_shift - 1j * p0) <= 1e-8 * abs(p0)
        p_inv, _ = modular_pq(-1 / tau)
        target = 1j * tau**7 * p0
        assert abs(p_inv - target) <= 1e-8 * abs(target)
    _pass(8, "p(tau+1) = i p(tau) and p(-1/tau) = i tau^7 p(tau) at 1e-8")


def test_criterion_09_j_landmarks():
    assert abs(j_invariant(1j) - 1728) <= 1e-8 * 1728
    assert abs(j_invariant(CORNER)) <= 1e-8
    assert abs(invert_j(1728.0).value - 1j) <= 1e-8
    assert abs(invert_j(0.0).value - (CORNER - 1)) <= 1e-8
    _pass(9, "j(i) = 1728, j(corner) = 0, and both invert back exactly")


def test_criterion_10_classifier_round_trip():
    rng = np.random.default_rng(1729)
    cases = ["linear", "trig", "elliptic"]
    for trial in range(20):
        made = random_classification(rng, cases[trial % 3])
        got = classify(synthesize(made, 9))
        assert got.case == made.case
        assert abs(got.alpha - made.alpha) <= 1e-8
        assert abs(wrap_to_principal(got.beta - made.beta)) <= 1e-8
        if made.case == "trig":
            assert abs(got.a - made.a) <= 1e-8
        if made.case == "elliptic":
            assert abs(got.tau.value - made.tau.value) <= 1e-6
    _pass(10, "20 seeded members re-classified: tags, tau@1e-6, a/alpha/beta@1e-8")


def test_criterion_11_collapse_direction_link():
    for series in (SINE, theta1_odd_series(1j, 13)):
        # Zero-pad so the polynomial's duplication residual is exact.
        count = len(series.odd_coefficients)
        padded = TruncatedOddSeries(
            list(series.odd_coefficients)
            + [0.0] * (2 * series.max_degree - 1 - count)
        )
        residual = duplication_residual(padded)
        handle = OddFunctionHandle.from_series(series)
        probes = (0.3, -0.2 + 0.1j, 0.15 - 0.25j, 0.35j, -0.4 - 0.05j)
        for x in probes:
            def sweep(t):
                return identity_residual(
                    handle,
                    QuadruplePoint.of(x, x + t, x + ZETA * t, x + ZETA**2 * t),
                ).value

            lhs = third_derivative(sweep, 1e-2) / 6.0
            rhs = -residual.evaluate(x)
            assert abs(lhs - rhs) <= 1e-6
    _pass(11, "third derivative along (0,1,zeta,zeta^2) matches the closed form")
