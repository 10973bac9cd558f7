import cmath
import importlib
import itertools
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    HUGE_ALPHAS,
    LARGE_ALPHAS,
    circle_coefficients,
    invariants_and_hat_reference,
    record_builds,
    seeded_members_and_data,
    synthesize_reference,
)
from sigmakit import (
    Classification,
    DomainError,
    IdentityNotSatisfiedError,
    NotInOmegaError,
    NumericError,
    TauPoint,
    TruncatedOddSeries,
    classify,
    duplication_residual,
    gauss_twist,
    lattice_from_rho_tau,
    pq_of_series,
    scale_argument,
    sigma_eval,
    synthesize,
    theta1_odd_series,
    weierstrass_g,
)


def sine_series(count):
    return TruncatedOddSeries(
        [(-1) ** k / math.factorial(2 * k + 1) for k in range(count)]
    )


def wrap_to_principal(delta):
    """Reduce an additive 2*pi*i ambiguity to the principal strip."""
    k = round(delta.imag / (2 * math.pi))
    return delta - 2j * math.pi * k


def random_classification(rng, case):
    alpha = complex(*rng.uniform(-0.8, 0.8, 2))
    beta = complex(*rng.uniform(-0.8, 0.8, 2))
    if case == "linear":
        return Classification(case="linear", alpha=alpha, beta=beta)
    if case == "trig":
        a = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-1.2, 1.2))
        return Classification(case="trig", alpha=alpha, beta=beta, a=a)
    rho = cmath.rect(rng.uniform(0.7, 1.4), rng.uniform(-1.2, 1.2))
    tau = TauPoint(complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0)))
    return Classification(case="elliptic", alpha=alpha, beta=beta, rho=rho, tau=tau)


class TestClassifyExamples:
    def test_gaussian_twist_of_z(self):
        s = gauss_twist(TruncatedOddSeries([1, 0, 0, 0]), 2.0, 0.0)
        c = classify(s)
        assert c.case == "linear"
        assert abs(c.alpha - 2.0) <= 1e-14
        assert abs(c.beta) <= 1e-14

    def test_scaled_sine(self):
        s = scale_argument(sine_series(4), 3.0)
        c = classify(s)
        assert c.case == "trig"
        assert abs(c.a - 3.0) <= 1e-12
        assert abs(c.alpha) <= 1e-12
        assert abs(c.beta) <= 1e-12
        # Invariant diagnostics carry the raw p, q, mu of the input.
        p = complex(*c.diagnostics["p"])
        q = complex(*c.diagnostics["q"])
        mu = complex(*c.diagnostics["mu"]["value"])
        assert abs(p - 81 / 10) <= 1e-12 * (81 / 10)
        assert abs(q + 19683 / 945) <= 1e-12 * (19683 / 945)
        assert abs(mu - 49 / 40) <= 1e-12 * (49 / 40)

    def test_theta_series_is_square_lattice_sigma(self):
        s = theta1_odd_series(1j, 7)
        c = classify(s)
        assert c.case == "elliptic"
        assert c.diagnostics["mu"]["tag"] == "infinity"
        assert complex(*c.diagnostics["j"]) == 1728
        assert abs(c.tau.value - 1j) <= 1e-12
        assert abs(abs(c.rho) - 1.0) <= 1e-10

    def test_not_in_omega(self):
        with pytest.raises(NotInOmegaError):
            classify(TruncatedOddSeries([0, 1, 0, 0]))


class TestSynthesizeExamples:
    @pytest.mark.parametrize("max_degree", [0, 4])
    def test_even_or_zero_degree_is_domain_error(self, max_degree):
        with pytest.raises(DomainError) as err:
            synthesize(Classification(case="linear", alpha=0.0, beta=0.0), max_degree)
        assert str(err.value) == "max_degree must be an odd integer >= 1"

    def test_linear_trivial(self):
        s = synthesize(Classification(case="linear", alpha=0.0, beta=0.0), 7)
        assert np.array_equal(s.odd_coefficients, [1, 0, 0, 0])

    def test_trig_trivial(self):
        s = synthesize(
            Classification(case="trig", alpha=0.0, beta=0.0, a=1.0 + 0j), 7
        )
        assert np.allclose(s.odd_coefficients, sine_series(4).odd_coefficients)

    def test_elliptic_matches_sigma_eval(self):
        lat = lattice_from_rho_tau(1, 1j)
        c = Classification(
            case="elliptic", alpha=0.0, beta=0.0, rho=1.0 + 0j, tau=TauPoint(1j)
        )
        s = synthesize(c, 7)
        extracted = circle_coefficients(lambda z: sigma_eval(z, lat), 8, radius=0.3)
        for k in range(4):
            want = extracted[2 * k + 1]
            got = s.odd_coefficients[k]
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_elliptic_degree_one(self):
        # sigma'(0) = 1, so only the classification's own exp(beta) remains.
        c = Classification(
            case="elliptic", alpha=0.3, beta=0.5, rho=0.8 + 0.1j, tau=TauPoint(1j)
        )
        s = synthesize(c, 1)
        assert s.max_degree == 1
        assert abs(s.leading - math.exp(0.5)) <= 1e-14
        assert abs(s.leading - synthesize(c, 5).leading) <= 1e-15

    def test_elliptic_degree_one_twists_only_what_it_returns(self):
        # The twist's cubic coefficient alpha*exp(beta) overflows, but the
        # degree-1 member exp(beta) does not need it.
        c = Classification(case="elliptic", alpha=1e305, beta=10, rho=1, tau=TauPoint(1j))
        assert abs(synthesize(c, 1).leading - math.exp(10)) <= 1e-14 * math.exp(10)
        with pytest.raises(NumericError):
            synthesize(c, 3)

    def test_elliptic_where_theta1_head_underflows(self):
        # theta1'(0, 1000i) underflows to 0, so the sigma gauge has no value.
        c = Classification(case="elliptic", alpha=0.0, beta=0.0, rho=1, tau=TauPoint(1000j))
        with pytest.raises(NumericError) as err:
            synthesize(c, 9)
        assert err.value.diagnostics["theta1_prime"] == [0.0, 0.0]

    @pytest.mark.parametrize("case, member", [("linear", {}), ("trig", {"a": 1.5}),
                                              ("elliptic", {"rho": 1, "tau": TauPoint(1j)})])
    @pytest.mark.parametrize("beta", [-745, -709 + 1j, -800])
    def test_subnormal_exp_beta_is_numeric_error(self, case, member, beta):
        # exp(-745) is 4.9e-324, one significant bit, and at -800 it is 0:
        # the member's coefficients would have no correct digits.
        with pytest.raises(NumericError) as err:
            synthesize(Classification(case, 1 - 1j, beta, **member), 7)
        assert str(err.value) == f"exp(beta={beta}) underflows"
        assert err.value.diagnostics == {"beta": [complex(beta).real, complex(beta).imag]}

    def test_exp_beta_just_inside_the_normal_doubles(self):
        # exp(-708) is 3.3e-308, a normal double.
        got = synthesize(Classification("linear", 0, -708), 7).odd_coefficients
        assert got[0] == cmath.exp(-708) and got[1:] == (0j, 0j, 0j)


class TestRoundTrip:
    def test_twenty_seeded_members(self):
        rng = np.random.default_rng(1729)
        cases = ["linear", "trig", "elliptic"]
        for trial in range(20):
            case = cases[trial % 3]
            made = random_classification(rng, case)
            series = synthesize(made, 9)
            got = classify(series)
            assert got.case == made.case
            assert abs(got.alpha - made.alpha) <= 1e-8
            assert abs(wrap_to_principal(got.beta - made.beta)) <= 1e-8
            if case == "trig":
                assert abs(got.a - made.a) <= 1e-8
            if case == "elliptic":
                assert abs(got.tau.value - made.tau.value) <= 1e-6
                assert abs(got.rho - made.rho) <= 1e-5 * abs(made.rho)

    def test_elliptic_scale_is_sign_normalized(self):
        # The AGM returns rho near -0.4226 + 0.9063i here, with Re(1/rho) < 0;
        # classify reports the opposite generator, Re(1/rho) > 0.
        made = Classification(case="elliptic", alpha=0.1, beta=0.2,
                              rho=0.4226182617406996 - 0.9063077870366499j,
                              tau=TauPoint(-0.28 + 0.96j))
        got = classify(synthesize(made, 11))
        assert got.case == "elliptic"
        assert (1 / got.rho).real > 0
        assert abs(got.alpha - made.alpha) <= 1e-8
        assert abs(wrap_to_principal(got.beta - made.beta)) <= 1e-8
        assert abs(got.tau.value - made.tau.value) <= 1e-6
        assert abs(got.rho - made.rho) <= 1e-5 * abs(made.rho)

    def test_scale_gauge_soundness(self):
        # Scaling the argument leaves the reduced tau fixed and divides
        # rho by the scale.
        rng = np.random.default_rng(99)
        base = random_classification(rng, "elliptic")
        series = synthesize(base, 7)
        first = classify(series)
        for a in (2.0, 0.5 + 0.1j):
            moved = classify(scale_argument(series, a))
            assert moved.case == "elliptic"
            assert abs(moved.tau.value - first.tau.value) <= 1e-6
            assert abs(moved.rho - first.rho / a) <= 1e-6 * abs(first.rho / a)

    def test_classified_members_satisfy_duplication(self):
        rng = np.random.default_rng(7)
        for case in ("linear", "trig", "elliptic"):
            made = random_classification(rng, case)
            series = synthesize(made, 9)
            rebuilt = synthesize(classify(series), 9)
            res = duplication_residual(rebuilt)
            scale = float(np.max(np.abs(rebuilt.odd_coefficients)))
            assert float(np.max(np.abs(res.odd_coefficients))) <= 1e-9 * max(1, scale)


class TestNearCorner:
    @staticmethod
    def check_member(tau, degree):
        # j has a triple zero at the corner and j - 1728 a double zero at i,
        # so a tau that merely meets a j tolerance would miss the lattice by
        # far more than 1e-9.
        made = Classification(case="elliptic", alpha=0.1 - 0.2j, beta=0.3,
                              rho=0.9 + 0.2j, tau=TauPoint(tau))
        got = classify(synthesize(made, degree))
        assert got.case == "elliptic"
        assert abs(got.alpha - made.alpha) <= 1e-8
        assert abs(wrap_to_principal(got.beta - made.beta)) <= 1e-8
        want2, want3 = (g / made.rho**k for g, k in zip(weierstrass_g(tau), (4, 6)))
        got2, got3 = (g / got.rho**k for g, k in zip(weierstrass_g(got.tau), (4, 6)))
        s = max(abs(want2) ** 0.25, abs(want3) ** (1 / 6))
        assert abs(got2 - want2) <= 1e-9 * s**4
        assert abs(got3 - want3) <= 1e-9 * s**6

    @pytest.mark.parametrize("offset, degree", [(1e-3j, 11), (3e-4j, 13), (1e-5, 15),
                                                (1e-5j, 11), (1e-8j, 11), (1e-12j, 11)])
    def test_member_next_to_the_corner(self, offset, degree):
        self.check_member(cmath.exp(2j * math.pi / 3) + offset, degree)

    @pytest.mark.parametrize("offset", [1e-6, 1e-9j])
    def test_member_next_to_i(self, offset):
        self.check_member(1j + offset, 11)

    @pytest.mark.parametrize("corner", [complex(-0.5, math.sqrt(3) / 2),
                                        complex(0.5, math.sqrt(3) / 2)])
    def test_member_at_the_corner_reports_reduced_tau(self, corner):
        # The reported tau must lie in the reduced domain -1/2 <= Re tau < 1/2.
        made = Classification(case="elliptic", alpha=0.1 - 0.2j, beta=0.3,
                              rho=0.9 + 0.2j, tau=TauPoint(corner))
        got = classify(synthesize(made, 9))
        assert got.case == "elliptic"
        assert -0.5 <= got.tau.value.real < 0.5
        assert abs(got.tau.value - complex(-0.5, math.sqrt(3) / 2)) <= 1e-15


class TestValidationOfHigherDegrees:
    def test_cubic_rejected(self):
        # z + z^3 matches an elliptic member through degree 7, but its
        # degree-9 coefficient 0 conflicts with the forced value 1/28.
        s = TruncatedOddSeries([1, 1, 0, 0, 0])
        with pytest.raises(IdentityNotSatisfiedError):
            classify(s)

    def test_true_member_accepted_at_degree_nine(self):
        rng = np.random.default_rng(5)
        made = random_classification(rng, "elliptic")
        series = synthesize(made, 11)
        got = classify(series)
        assert got.case == "elliptic"

    @pytest.mark.parametrize("degree, builds", [(7, {}), (9, {"_head": 1, "_theta1": 1}),
                                                (21, {"_head": 1, "_theta1": 1})])
    def test_the_tail_check_reuses_the_lattice_classify_found(self, degree, builds, monkeypatch):
        # classify hands its lattice to the tail check, so each elliptic member
        # is normalized once and its tau's record is built once, where the
        # check once built the lattice again from (rho, tau).
        rng = np.random.default_rng(17)
        data = [synthesize(random_classification(rng, "elliptic"), degree) for _ in range(6)]
        module = importlib.import_module("sigmakit.lattice")
        calls, normalize = [], module.normalize_lattice

        def counted(*args):
            calls.append(args)
            return normalize(*args)

        monkeypatch.setattr(module, "normalize_lattice", counted)
        built = record_builds(monkeypatch)
        for s in data:
            calls.clear()
            built.clear()
            assert classify(s).case == "elliptic"
            assert len(calls) == 1
            assert built == builds

    def test_corrupted_tail_rejected(self):
        made = Classification(case="trig", alpha=0.1, beta=0.0, a=1.2 + 0j)
        series = synthesize(made, 9)
        coeffs = np.array(series.odd_coefficients)
        coeffs[4] += 0.01
        with pytest.raises(IdentityNotSatisfiedError):
            classify(TruncatedOddSeries(coeffs))


class TestClosedFormTail:
    # tau = i and rho = 0.3 make the coefficients grow like 3.3^n.  A
    # recurrence that measured its slope from two trial residuals lost it
    # to cancellation at degree 25 on this member; the closed form runs no
    # recurrence.
    MEMBER = Classification(case="elliptic", alpha=0.1 - 0.2j, beta=0.3,
                            rho=0.3, tau=TauPoint(1j))

    def test_large_scale_member_at_degree_31(self):
        got = classify(synthesize(self.MEMBER, 31))
        assert got.case == "elliptic"
        assert abs(got.alpha - self.MEMBER.alpha) <= 1e-8
        assert abs(wrap_to_principal(got.beta - self.MEMBER.beta)) <= 1e-8
        assert abs(got.rho - self.MEMBER.rho) <= 1e-8
        assert abs(got.tau.value - 1j) <= 1e-8

    @pytest.mark.parametrize("degree", [9, 31])
    def test_perturbed_degree_nine_rejected(self, degree):
        coeffs = list(synthesize(self.MEMBER, degree).odd_coefficients)
        coeffs[4] += 1e-4 * max(abs(c) for c in coeffs)
        with pytest.raises(IdentityNotSatisfiedError):
            classify(TruncatedOddSeries(coeffs))


def _outcome_bits(s):
    """Every field of classify(s), floats by their bits, or its error."""
    def bits(v):
        if isinstance(v, TauPoint):
            v = v.value
        if isinstance(v, (complex, float)):
            return struct.pack("<dd", complex(v).real, complex(v).imag)
        if isinstance(v, dict):
            return {k: bits(x) for k, x in v.items()}
        if isinstance(v, list):
            return [bits(x) for x in v]
        return v
    try:
        return [bits(field) for field in classify(s)]
    except Exception as exc:  # the error is part of the outcome
        return [type(exc), str(exc), bits(getattr(exc, "diagnostics", None))]


class TestHeadOnlyInvariants:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_every_field_matches_the_full_series_reference(self, seed, monkeypatch):
        data = seeded_members_and_data(seed, 24)
        got = [_outcome_bits(s) for s in data]
        module = importlib.import_module("sigmakit.classify")
        monkeypatch.setattr(module, "_invariants_and_hat", invariants_and_hat_reference)
        want = [_outcome_bits(s) for s in data]
        assert got == want
        # Members classify; the random data fail the tail check.
        assert [g[0] for g in got[3::4]] == [IdentityNotSatisfiedError] * 24
        assert {g[0] for k, g in enumerate(got) if k % 4 != 3} == {"linear", "trig", "elliptic"}

    def test_a_tail_whose_twist_overflows_fails_the_tail_check(self):
        # The full-series twist by exp(10 z^2) overflowed first (NumericError);
        # now the degree-7 head classifies and the tail check rejects degree 9.
        s = TruncatedOddSeries([1, -10, 50, -166] + [1e306] * 12)
        with pytest.raises(IdentityNotSatisfiedError, match="at degree 9 is"):
            classify(s)

    @pytest.mark.parametrize("alpha", LARGE_ALPHAS + HUGE_ALPHAS)
    @pytest.mark.parametrize("degree", [7, 9, 15, 31])
    def test_linear_member_with_large_alpha(self, alpha, degree):
        # Measured: alpha within 2.0e-16 of its modulus, beta within 5.6e-17.
        beta = 0.3 - 1j
        s = gauss_twist(TruncatedOddSeries([1] + [0] * ((degree - 1) // 2)), alpha, beta)
        got = classify(s)
        assert got.case == "linear"
        assert abs(got.alpha - alpha) <= 4e-16 * abs(alpha)
        assert abs(got.beta - beta) <= 2e-16
        assert got.diagnostics["mu"] == pq_of_series(s).mu.to_json_dict() == {"tag": "undefined"}


class TestClassificationRecord:
    def test_case_validation(self):
        with pytest.raises(Exception):
            Classification(case="weird", alpha=0, beta=0)
        with pytest.raises(Exception):
            Classification(case="trig", alpha=0, beta=0, a=None)
        with pytest.raises(Exception):
            Classification(case="elliptic", alpha=0, beta=0)

    def test_json_shape(self):
        c = Classification(
            case="elliptic",
            alpha=0.5j,
            beta=0.25,
            rho=1.0 + 0j,
            tau=TauPoint(1.3j),
            diagnostics={"j": [100.0, 0.0]},
        )
        doc = c.to_json_dict()
        assert doc["case"] == "elliptic"
        assert doc["alpha"] == [0.0, 0.5]
        assert doc["beta"] == [0.25, 0.0]
        assert doc["rho"] == [1.0, 0.0]
        assert doc["tau"] == [0.0, 1.3]
        assert doc["diagnostics"]["j"] == [100.0, 0.0]


def _tail_outcome(s):
    """``_outcome_bits`` of classify(s), an error cut to its class and the
    degree the tail check names: the forced value in its message comes from
    synthesize's last bits."""
    got = _outcome_bits(s)
    if isinstance(got[0], type):
        degree = re.match(r"coefficient at degree (\d+) ", got[1])
        return [got[0], degree and int(degree.group(1))]
    return got


def _outcome_class(synth, c, degree):
    try:
        synth(c, degree)
    except Exception as exc:  # the class is the outcome
        return type(exc).__name__
    return "value"


# Moduli of rho (and a), gauges up to 1e200, degrees up to 201, tau up to
# Im 902 and below Im 1/2, each modulus at two phases.
EXTREME_MODULI = [1e-160, 1e-100, 1e-20, 1e-2, 1, 1e2, 1e20, 1e100, 1e160]
EXTREME_ALPHAS = [0, 1e-200, 1 - 1j, 1e3j, 1e100, -1e200 + 1e200j]
EXTREME_DEGREES = [1, 3, 7, 41, 201]
EXTREME_TAUS = [1j, 0.3 + 1.1j, cmath.exp(2j * math.pi / 3) + 1e-3j, 899j, 0.4 + 902j,
                0.1 + 0.3j, 3.7 + 0.02j]


def extreme_grid():
    phases = [1, cmath.exp(0.7j)]
    for alpha, degree in itertools.product(EXTREME_ALPHAS, EXTREME_DEGREES):
        yield Classification("linear", alpha, 0.3 - 1j), degree
        for m, p in itertools.product(EXTREME_MODULI + [30], phases):
            yield Classification("trig", alpha, 0.3 - 1j, a=m * p), degree
        for m, p, tau in itertools.product(EXTREME_MODULI, phases, EXTREME_TAUS):
            yield Classification("elliptic", alpha, 0.3 - 1j, rho=m * p, tau=TauPoint(tau)), degree


class TestTwistedSineSynthesis:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_classify_keeps_its_outcomes_under_the_reference_synthesis(self, seed, monkeypatch):
        data = seeded_members_and_data(seed, 24)
        # The first 72 inputs again, each with one tail coefficient moved by
        # 3e-6 (rejected there) or 3e-7 (accepted) of the largest, against the
        # tolerance 1e-6.
        for k, s in enumerate(data[:72]):
            coeffs = list(s.odd_coefficients)
            at = 4 + k % (len(coeffs) - 4)
            coeffs[at] += (3e-6 if k % 2 else 3e-7) * max(map(abs, coeffs))
            data.append(TruncatedOddSeries(coeffs))
        got = [_tail_outcome(s) for s in data]
        module = importlib.import_module("sigmakit.classify")
        # The tail check synthesizes on the lattice classify found; the
        # reference builds its own from (rho, tau).
        monkeypatch.setattr(module, "_synthesize",
                            lambda c, degree, lat: synthesize_reference(c, degree))
        assert got == [_tail_outcome(s) for s in data]
        assert {g[0] for g in got} == {"linear", "trig", "elliptic", IdentityNotSatisfiedError}
        assert len({g[1] for g in got if g[0] is IdentityNotSatisfiedError}) > 5

    def test_extreme_grid_keeps_every_outcome_class(self):
        changed = []
        for c, degree in extreme_grid():
            new = _outcome_class(synthesize, c, degree)
            old = _outcome_class(synthesize_reference, c, degree)
            if new != old:
                changed.append((c, degree, old, new))
        # Three kinds of input moved, each from a failure of the reference.
        # It formed the sine series' 1/(2k+1)! as a float, a bare
        # OverflowError past degree 169; it scaled theta1's series by
        # (1/rho)^n, which overflows at |rho| = 0.01 and degree 201 where the
        # member fits (``test_oracle.test_synthesize_at_degree_201``); and its
        # twist's products alpha^3 * a1 overflow at |rho| = 1e-20 and
        # alpha = 1e100, where the member is exp(alpha*z^2 + beta) to 1e-120.
        kinds = {(c.case, round(math.log10(abs(c.rho))) if c.rho else None,
                  c.alpha if c.rho else None, degree, old, new)
                 for c, degree, old, new in changed}
        assert kinds == {("trig", None, None, 201, "OverflowError", "value"),
                         ("trig", None, None, 201, "OverflowError", "NumericError")} | {
            ("elliptic", -2, alpha, 201, "NumericError", "value") for alpha in (0, 1e-200, 1 - 1j, 1e3j)
        } | {("elliptic", -20, 1e100, 7, "NumericError", "value")}
        for c, degree, _, _ in changed:
            if c.case == "elliptic" and degree == 7:
                got = synthesize(c, degree).odd_coefficients
                for m, g in enumerate(got):
                    want = cmath.exp(c.beta) * c.alpha**m / math.factorial(m)
                    assert abs(g - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("rho, message", [
        (0, "rho must be nonzero"), (complex(math.inf, 0), "lattice generators must be finite"),
        (complex(math.nan, 1), "lattice generators must be finite")])
    def test_elliptic_rho_is_checked_by_its_lattice(self, rho, message):
        # The theta series at tau once met rho only in the gauge, a NumericError.
        c = Classification("elliptic", 0, 0, rho=rho, tau=TauPoint(1j))
        with pytest.raises(DomainError, match=message):
            synthesize(c, 9)

    def test_sine_past_degree_169(self):
        got = synthesize(Classification("trig", 0, 0, a=1), 201).odd_coefficients
        for k, g in enumerate(got):
            want = float(Fraction((-1) ** k, math.factorial(2 * k + 1)))
            assert abs(g - want) <= 1e-15 * abs(want) + 2**-1074
