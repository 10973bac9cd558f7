import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sigmakit import NumericError, TruncatedOddSeries, extend_series, scale_argument
from sigmakit.cli import main

SINE_DOC = {
    "max_degree": 7,
    "odd_coefficients": [[1, 0], [-1 / 6, 0], [1 / 120, 0], [-1 / 5040, 0]],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_strict(capsys, *argv):
    """Like run, but NaN and Infinity in the output fail the parse."""
    code = main(list(argv))
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    json.dumps(doc, allow_nan=False)
    return code, doc


@pytest.fixture
def sine_file(tmp_path):
    path = tmp_path / "sine.json"
    path.write_text(json.dumps(SINE_DOC))
    return str(path)


class TestPsiCommand:
    def test_value(self, capsys):
        code, doc = run(capsys, "psi", "9")
        assert code == 0
        assert doc["psi"] == -168
        assert doc["schema_version"] == 1

    def test_domain_error(self, capsys):
        code, doc = run(capsys, "psi", "4")
        assert code == 1
        assert doc["error"]["type"] == "domain"

    def test_beyond_integer_digit_limit(self, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("no integer digit limit before Python 3.11")
        limit = sys.get_int_max_str_digits()
        code, doc = run(capsys, "psi", "999999")
        assert code == 1
        assert doc["error"]["type"] == "domain"
        assert str(limit) in doc["error"]["message"]


class TestInvariantsCommand:
    def test_sine(self, capsys, sine_file):
        code, doc = run(capsys, "invariants", sine_file)
        assert code == 0
        assert abs(doc["p"][0] - 1 / 90) < 1e-15
        assert doc["p"][1] == 0
        assert abs(doc["q"][0] + 1 / 945) < 1e-15
        assert doc["mu"]["tag"] == "finite"
        assert abs(doc["mu"]["value"][0] - 1.225) < 1e-12

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, doc = run(capsys, "invariants", str(bad))
        assert code == 1
        assert doc["error"]["type"] == "domain"

    def test_missing_file(self, capsys):
        code, doc = run(capsys, "invariants", "/nonexistent/series.json")
        assert code == 1
        assert doc["error"]["type"] == "domain"


class TestEvalCommand:
    def test_j_at_i(self, capsys):
        code, doc = run(capsys, "eval", "j", "--tau", "0,1")
        assert code == 0
        assert abs(doc["value"][0] - 1728) <= 1e-8 * 1728
        assert abs(doc["value"][1]) <= 1e-6

    def test_eta(self, capsys):
        code, doc = run(capsys, "eval", "eta", "--tau", "0,1")
        assert code == 0
        target = math.gamma(0.25) / (2 * math.pi**0.75)
        assert abs(doc["value"][0] - target) < 1e-13

    def test_theta1(self, capsys):
        code, doc = run(capsys, "eval", "theta1", "--z", "0.25", "--tau", "0,1")
        assert code == 0
        assert abs(doc["value"][0] - 0.6435897640385858) < 1e-12

    def test_sigma_with_generators(self, capsys):
        code, doc = run(
            capsys, "eval", "sigma", "--z", "0.3,0.2",
            "--omega1", "1,0", "--omega2", "0,1",
        )
        assert code == 0
        assert abs(complex(*doc["value"]) - (0.3046906853087618 + 0.19905799361147397j)) < 1e-12

    def test_invalid_tau_is_domain_error(self, capsys):
        code, doc = run(capsys, "eval", "j", "--tau", "0,-1")
        assert code == 1
        assert doc["error"]["type"] == "domain"

    def test_term_cap_exhaustion_is_numeric_error(self, capsys):
        code, doc = run(capsys, "eval", "g2", "--tau", "0,0.0001")
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        assert doc["error"]["diagnostics"]["term_cap"] == 200

    def test_j_overflow_is_numeric_error(self, capsys):
        code, doc = run_strict(capsys, "eval", "j", "--tau=0,115")
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        assert doc["error"]["diagnostics"] == {"tau": [0.0, 115.0]}

    def test_j_below_the_fundamental_domain(self, capsys):
        # theta4(0.02i) is about 1e-16; summed directly from terms near 1
        # it would be rounding noise, and j with it.
        mp = pytest.importorskip("mpmath")
        code, doc = run_strict(capsys, "eval", "j", "--tau=0,0.02")
        assert code == 0
        with mp.workdps(30):
            want = complex(1728 * mp.kleinj(mp.mpc(0, 0.02)))
        assert abs(complex(*doc["value"]) - want) <= 1e-13 * abs(want)
        # j(0.001i) = j(1000i) is about exp(2000*pi).
        code, doc = run_strict(capsys, "eval", "j", "--tau=0,0.001")
        assert code == 2
        assert doc["error"]["type"] == "numeric"

    def test_missing_argument(self, capsys):
        code, doc = run(capsys, "eval", "theta1", "--tau", "0,1")
        assert code == 1

    def test_theta1_far_from_real_axis(self, capsys):
        code, doc = run_strict(capsys, "eval", "theta1", "--z", "0,300", "--tau", "0,1")
        assert code in (0, 2)
        if code == 2:
            assert doc["error"]["type"] == "numeric"

    def test_theta1_where_its_leading_factor_underflows(self, capsys):
        # This printed [0.0, 0.0] for theta1 of about 2.0e-188.
        code, doc = run_strict(capsys, "eval", "theta1", "--z=0.3,100", "--tau=0,950")
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        assert "underflows" in doc["error"]["message"]

    @pytest.mark.parametrize("height", ["3000", "2800"])
    def test_eta_below_the_normal_doubles(self, capsys, height):
        # These printed [0.0, 0.0] for eta of about 8.1e-342, and 4.42095e-319
        # for 4.4209687e-319.
        code, doc = run_strict(capsys, "eval", "eta", f"--tau=0,{height}")
        assert code == 2
        assert doc["error"] == {"type": "numeric", "message": f"eta underflows at tau={height}j",
                                "diagnostics": {"tau": [0.0, float(height)]}}

    def test_sigma_beyond_theta_range(self, capsys):
        # theta1(0.5 + 20i, i) alone overflows; sigma there is about 3.6e272.
        code, doc = run_strict(capsys, "eval", "sigma", "--z", "0.5,20")
        assert code == 0
        assert abs(complex(*doc["value"]) - 3.563839142122604e272) <= 1e-12 * 3.6e272

    def test_sigma_beyond_double_range(self, capsys):
        code, doc = run_strict(capsys, "eval", "sigma", "--z", "0.5,26.5")
        assert code == 2
        assert doc["error"]["type"] == "numeric"

    @pytest.mark.parametrize("argv, expected", [
        (["eval", "sigma", "--z", "0.3", "--tau", "0,1000"], "gauge"),
        (["eval", "sigma", "--z", "0.3", "--tau", "0,925"], "gauge"),
        (["verify-identity", "--function", "sigma", "--tau", "0,1000"], "gauge"),
        # rho^2 underflows to 0 or overflows.  Only alpha needs rho^2, so sigma
        # either has a value or leaves the double range itself.
        (["eval", "sigma", "--z=0.3", "--rho=1e-300"], "sigma at z="),
        (["eval", "sigma", "--z=1e-300", "--rho=1e-170"], (1e-300, 1e-170)),
        (["verify-identity", "--function", "sigma", "--tau=0,1", "--rho=1e-300"], "sigma at z="),
        (["eval", "sigma", "--z=0.3", "--rho=1e200"], (0.3, 1e200)),
        # rho/theta1'(0) rounds to 0, whose logarithm cmath refuses.
        (["verify-identity", "--function", "sigma", "--rho=0,5e-324"], "underflows"),
    ], ids=[f"argv{k}" for k in range(8)])
    def test_sigma_gauge_beyond_double_range(self, capsys, argv, expected):
        code, doc = run_strict(capsys, *argv)
        if isinstance(expected, str):
            assert code == 2
            assert doc["error"]["type"] == "numeric"
            assert expected in doc["error"]["message"]
        else:
            z, rho = expected
            assert code == 0
            want = sigma_at_tau_i(complex(z), rho)
            assert abs(complex(*doc["value"]) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("z", [(0.0, 0.0), (1e-155, 0.0), (3e-156, 2e-156)])
    def test_sigma_where_alpha_overflows(self, capsys, z):
        # rho^2*theta1'(0) is subnormal at rho = 1e-155, so alpha overflows;
        # the Gaussian is formed as kappa*(z/rho)^2 with kappa from tau alone.
        # z = rho is a lattice point, so there the measure is |rho|.
        code, doc = run_strict(capsys, "eval", "sigma", f"--z={z[0]!r},{z[1]!r}", "--rho=1e-155")
        assert code == 0
        want = sigma_at_tau_i(complex(*z), 1e-155)
        got = complex(*doc["value"])
        assert abs(got - want) <= 1e-13 * (abs(want) if z[1] else 1e-155)


def sigma_at_tau_i(z, rho):
    """sigma(z) on the lattice rho * (Z + i*Z) for a real rho, by mpmath at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q, rho, w = mp.exp(-mp.pi), mp.mpf(rho), mp.mpc(z)
        th1 = mp.pi * mp.jtheta(1, 0, q, 1)
        th3 = mp.pi**3 * mp.jtheta(1, 0, q, 3) / 6
        return complex(mp.jtheta(1, mp.pi * w / rho, q) * mp.exp(-th3 / th1 * (w / rho) ** 2)
                       * rho / th1)


class TestClassifyCommand:
    def test_scaled_sine_file(self, capsys, tmp_path):
        series = scale_argument(
            TruncatedOddSeries([c[0] for c in SINE_DOC["odd_coefficients"]]), 2.0
        )
        path = tmp_path / "sin2z.json"
        path.write_text(json.dumps(series.to_json_dict()))
        code, doc = run(capsys, "classify", str(path))
        assert code == 0
        assert doc["case"] == "trig"
        assert abs(complex(*doc["a"]) - 2.0) < 1e-10
        assert doc["config"]["trig_tol"] == 1e-8

    def test_nonpositive_tolerance_rejected(self, capsys, sine_file):
        code, doc = run(capsys, "classify", sine_file, "--trig-tol", "-1")
        assert code == 1
        assert "positive" in doc["error"]["message"]

    def test_rejected_input(self, capsys, tmp_path):
        path = tmp_path / "cubic.json"
        doc_in = {
            "max_degree": 9,
            "odd_coefficients": [[1, 0], [1, 0], [0, 0], [0, 0], [0, 0]],
        }
        path.write_text(json.dumps(doc_in))
        code, doc = run(capsys, "classify", str(path))
        assert code == 1
        assert "forces" in doc["error"]["message"]


class TestInvariantsOverflow:
    def test_huge_cubic_ratio_is_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "max_degree": 7,
            "odd_coefficients": [[1, 0], [1e200, 0], [0, 0], [0, 0]],
        }))
        code, doc = run_strict(capsys, "invariants", str(path))
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        assert doc["error"]["diagnostics"]["alpha"] == [-1e200, 0.0]

    # Finite documents whose invariants (p^3 at degree 7, the zero-test
    # scale |a1|^2 t^4 at degree 9) and duplication right-hand sides
    # overflow.
    HUGE = [
        {"max_degree": 7, "odd_coefficients": [[1e100, 1e100], [1e100, 0], [0, 0], [0, 0]]},
        {"max_degree": 9, "odd_coefficients": [[1e300, 0], [0, 0], [1e300, 0], [0, 0], [0, 0]]},
    ]

    @pytest.mark.parametrize("doc_in", HUGE)
    @pytest.mark.parametrize("command", [["invariants"], ["classify"], ["verify-duplication"]])
    def test_overflow_is_numeric_error(self, capsys, tmp_path, doc_in, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc_in))
        code, doc = run_strict(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert doc["error"]["type"] == "numeric"

    # A degree-9 coefficient whose modulus is beyond the largest double.
    HUGE_TAIL = {"max_degree": 9,
                 "odd_coefficients": [[1, 0], [0, 0], [0, 0], [0, 0], [1.7e308, 1.7e308]]}

    def test_invariants_of_a_tail_beyond_double_range(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.HUGE_TAIL))
        code, doc = run_strict(capsys, "invariants", str(path))
        assert code == 0
        assert doc["p"] == doc["q"] == [0.0, 0.0]
        assert doc["mu"] == {"tag": "undefined"}

    def test_classify_of_a_tail_beyond_double_range_is_numeric_error(self, capsys, tmp_path):
        # The tail is compared at an infinite scale, which would pass it as linear.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.HUGE_TAIL))
        code, doc = run_strict(capsys, "classify", str(path))
        assert code == 2
        assert doc["error"]["type"] == "numeric"

    @pytest.mark.parametrize("command", ["invariants", "classify"])
    def test_hat_series_beyond_double_range_is_numeric_error(self, capsys, tmp_path, command):
        # Dividing by the subnormal a1 sends the degree-5 hat coefficient to inf.
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({
            "max_degree": 7,
            "odd_coefficients": [[1e-320, 0], [0, 0], [1, 0], [0, 0]],
        }))
        code, doc = run_strict(capsys, command, str(path))
        assert code == 2
        assert doc["error"] == {"type": "numeric",
                                "message": "the hat series is outside the double range"}

    # A head that classifies and a tail whose twist by exp(10 z^2) overflows.
    OVERFLOWING_TAIL = {"max_degree": 31,
                        "odd_coefficients": [[1, 0], [-10, 0], [50, 0], [-166, 0]]
                        + [[1e306, 0]] * 12}

    def test_invariants_read_only_the_head(self, capsys, tmp_path):
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(self.OVERFLOWING_TAIL))
        code, doc = run_strict(capsys, "invariants", str(path))
        assert code == 0
        head = dict(self.OVERFLOWING_TAIL, max_degree=7,
                    odd_coefficients=self.OVERFLOWING_TAIL["odd_coefficients"][:4])
        path.write_text(json.dumps(head))
        _, head_doc = run_strict(capsys, "invariants", str(path))
        assert [doc[k] for k in ("p", "q", "mu")] == [head_doc[k] for k in ("p", "q", "mu")]

    def test_classify_rejects_the_tail_at_degree_nine(self, capsys, tmp_path):
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(self.OVERFLOWING_TAIL))
        code, doc = run_strict(capsys, "classify", str(path))
        assert code == 1
        assert doc["error"]["message"].startswith("coefficient at degree 9 is (1e+306+0j)")

    @pytest.mark.parametrize("doc_in", HUGE)
    def test_extend_runs_scaled_by_a_power_of_two(self, capsys, tmp_path, doc_in):
        # The extension of these data fits in a double: it is the extension of
        # the data scaled to |a1| in [1/2, 1), scaled back, bit for bit.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc_in))
        code, doc = run_strict(capsys, "extend", str(path), "--target", "13")
        assert code == 0
        data = TruncatedOddSeries.from_json_dict(doc_in)
        shift = -math.frexp(abs(data.leading))[1]
        scaled = TruncatedOddSeries([c * 2.0**shift for c in data.odd_coefficients])
        want = [c * 2.0**-shift for c in extend_series(scaled, 13).odd_coefficients]
        assert doc["odd_coefficients"] == [[c.real, c.imag] for c in want]


class TestVerifyCommands:
    def test_identity_builtin_sin(self, capsys):
        code, doc = run(capsys, "verify-identity", "--function", "sin",
                        "--samples", "50", "--seed", "7")
        assert code == 0
        assert doc["max_residual_over_scale"] <= 1e-9
        assert doc["num_samples"] == 50
        assert doc["seed"] == 7

    @pytest.mark.parametrize("box", ["10", "30"])
    def test_identity_sigma_large_box(self, capsys, box):
        code, doc = run_strict(capsys, "verify-identity", "--function", "sigma",
                               "--box", box)
        assert code in (0, 2)
        if code == 0:
            assert doc["max_residual_over_scale"] <= 1e-9
        else:
            assert doc["error"]["type"] == "numeric"

    @pytest.mark.parametrize("option, value", [
        ("--samples", "-3"), ("--samples", "0"), ("--box", "-1"), ("--box", "0"),
    ])
    def test_identity_rejects_nonpositive_arguments(self, capsys, option, value):
        code, doc = run_strict(capsys, "verify-identity", "--function", "sin", option, value)
        assert code == 1
        assert doc["error"]["type"] == "domain"
        assert option in doc["error"]["message"]

    @pytest.mark.parametrize("argv", [["--seed", "-5"], ["--seed=-5"]])
    def test_identity_rejects_a_negative_seed(self, capsys, argv):
        code, doc = run_strict(capsys, "verify-identity", "--function", "sin", *argv)
        assert code == 1
        assert doc["error"]["type"] == "domain"
        assert "seed" in doc["error"]["message"]

    def test_identity_rejects_an_infinite_box(self, capsys):
        code, doc = run_strict(capsys, "verify-identity", "--function", "sin", "--box", "inf")
        assert code == 1
        assert doc["error"]["type"] == "domain"
        assert "--box" in doc["error"]["message"]

    def test_identity_overflow_in_the_function_is_numeric_error(self, capsys):
        # sin overflows on entries near 1e308; the document names the quadruple.
        code, doc = run_strict(capsys, "verify-identity", "--function", "sin", "--box", "1e308")
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        quadruple = doc["error"]["diagnostics"]["quadruple"]
        assert len(quadruple) == 4
        assert all(abs(complex(*v)) <= 1e308 for v in quadruple)

    def test_identity_byte_identical_output(self, capsys):
        code1 = main(["verify-identity", "--function", "sigma", "--samples", "20"])
        out1 = capsys.readouterr().out
        code2 = main(["verify-identity", "--function", "sigma", "--samples", "20"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_duplication_on_sine_reports_no_failure(self, capsys, sine_file):
        code, doc = run(capsys, "verify-duplication", sine_file)
        assert code == 0
        assert doc["first_nonzero_degree"] is None
        assert doc["max_abs_residual"] < 1e-14

    def test_duplication_on_cubic(self, capsys, tmp_path):
        path = tmp_path / "cubic.json"
        doc_in = {
            "max_degree": 9,
            "odd_coefficients": [[1, 0], [1, 0], [0, 0], [0, 0], [0, 0]],
        }
        path.write_text(json.dumps(doc_in))
        code, doc = run(capsys, "verify-duplication", str(path))
        assert code == 0
        assert doc["first_nonzero_degree"] == 9
        assert abs(doc["residual_coefficients"][4][0] + 6.0) < 1e-12

    def test_duplication_threshold_beyond_double_range(self, capsys, tmp_path):
        # The residual fits in a double; the roundoff threshold 1e-12 * scale^4 does not.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"max_degree": 3, "odd_coefficients": [[0, 1], [0, 1e200]]}))
        code, doc = run_strict(capsys, "verify-duplication", str(path))
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        assert doc["error"]["diagnostics"] == {"scale": 1e200}

    def test_extend_sine(self, capsys, sine_file):
        code, doc = run(capsys, "extend", sine_file, "--target", "11")
        assert code == 0
        assert doc["max_degree"] == 11
        assert abs(doc["odd_coefficients"][4][0] - 1 / 362880) < 1e-15

    def test_extend_tiny_leading_coefficient(self, capsys, tmp_path):
        # a1^3 underflowed here; scaled, the residual overflows instead.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "max_degree": 7,
            "odd_coefficients": [[1e-120, 0], [1, 0], [0, 0], [0, 0]],
        }))
        code, doc = run_strict(capsys, "extend", str(path), "--target", "9")
        assert code == 2
        assert doc["error"]["type"] == "numeric"


class TestTauCommands:
    def test_reduce(self, capsys):
        code, doc = run(capsys, "reduce-tau", "--tau", "5,1")
        assert code == 0
        assert np.allclose(doc["tau"], [0, 1], atol=1e-12)
        assert doc["map"] == {"a": 1, "b": -5, "c": 0, "d": 1}

    def test_reduce_integral_real_part(self, capsys):
        # floor(x + 1/2) rounded this odd x to its even neighbour and the
        # command printed tau = [-1.0, 2.0].
        code, doc = run_strict(capsys, "reduce-tau", "--tau=4503599627370497,2")
        assert code == 0
        assert doc["tau"] == [0.0, 2.0]
        assert doc["map"] == {"a": 1, "b": -4503599627370497, "c": 0, "d": 1}

    @pytest.mark.parametrize("argv", [
        ["reduce-tau", "--tau=0,1e-320"],
        ["eval", "sigma", "--z=0.3", "--omega1=1", "--omega2=1e-320,1e-320"],
    ])
    def test_inversion_beyond_double_range(self, capsys, argv):
        code, doc = run_strict(capsys, *argv)
        assert code == 2
        assert doc["error"]["type"] == "numeric"
        assert doc["error"]["diagnostics"]["tau"] in ([0.0, 1e-320], [1e-320, 1e-320])

    def test_generator_ratio_past_the_largest_modulus(self, capsys):
        # abs(omega2/omega1) once raised a bare OverflowError here.  tau reduces
        # to 1.7e308i, where theta1'(0) underflows and the gauge has no value.
        code, doc = run_strict(capsys, "eval", "sigma", "--z=0.3", "--omega1=1,0",
                               "--omega2=1.7e308,1.7e308")
        assert code == 2
        assert doc["error"]["message"].startswith("the sigma gauge")

    def test_rho_whose_division_overflows(self, capsys):
        # The lattice once failed with "tau must be finite"; once found, its
        # z/rho came out 0 for every z and sigma printed 0.
        code, doc = run_strict(capsys, "eval", "sigma", "--z=0.3", "--rho=1.2e308,1.2e308",
                               "--tau=0,1")
        assert code == 2
        assert doc["error"]["message"].startswith("the sigma gauge")

    # Near the largest double: at the second, j overflows near the answer,
    # and a Newton step there once turned NaN.
    @pytest.mark.parametrize("value", ["1e308,1e308", "8.660254037844387e307,5e307"])
    def test_invert_j_near_the_largest_double(self, capsys, value):
        code, doc = run_strict(capsys, "invert-j", "--value=" + value)
        assert code == 0
        assert doc["tau"][1] > 100

    def test_invert_j_beyond_double_range(self, capsys):
        code, doc = run_strict(capsys, "invert-j", "--value=1.7e308,1.7e308")
        assert code == 2
        assert doc["error"]["type"] == "numeric"

    def test_invert_j_landmark(self, capsys):
        code, doc = run(capsys, "invert-j", "--value", "1728,0")
        assert code == 0
        assert np.allclose(doc["tau"], [0, 1], atol=1e-12)

    def test_invert_j_where_an_iterate_once_left_for_the_cusp(self, capsys):
        # A Newton iterate once jumped from here to Im(tau) ~ 222, where the
        # discriminant underflows; the answer is pinned.
        code, doc = run_strict(capsys, "invert-j", "--value", "1361.6287913185577,0")
        assert code == 0
        assert abs(complex(*doc["tau"]) - (-0.12711040306569873 + 0.9918885751093596j)) < 1e-9

    def test_invert_j_corner(self, capsys):
        code, doc = run(capsys, "invert-j", "--value", "0,0")
        assert code == 0
        assert np.allclose(doc["tau"], [-0.5, math.sqrt(3) / 2], atol=1e-12)


class TestNegativeComplexValues:
    @pytest.mark.parametrize("argv, attached", [
        (("invert-j", "--value", "-100,0"), ("invert-j", "--value=-100,0")),
        (("eval", "theta1", "--z", "-1,2", "--tau", "-0.3,1"),
         ("eval", "theta1", "--z=-1,2", "--tau=-0.3,1")),
        (("reduce-tau", "--tau", "-0.3,1"), ("reduce-tau", "--tau=-0.3,1")),
    ])
    def test_same_as_attached_form(self, capsys, argv, attached):
        code, doc = run_strict(capsys, *argv)
        assert code == 0
        assert (code, doc) == run_strict(capsys, *attached)


class TestDomainRejections:
    @pytest.mark.parametrize("argv, message", [
        (["eval", "sigma", "--z=0.3", "--omega1=1"],
         "--omega1 and --omega2 must be given together"),
        (["eval", "sigma", "--tau=0,1"], "eval sigma requires --z"),
        (["verify-identity"], "choose --function {z,sin,sigma} or --series FILE"),
        (["eval", "j", "--tau=1,2,3"], "cannot parse complex number from '1,2,3'"),
        (["eval", "j", "--tau=abc"], "cannot parse complex number from 'abc'"),
    ])
    def test_argument_rejection(self, capsys, argv, message):
        code, doc = run_strict(capsys, *argv)
        assert code == 1
        assert doc["error"] == {"type": "domain", "message": message}

    @pytest.mark.parametrize("doc_in, message", [
        ({"odd_coefficients": [[1, 0]]}, "malformed odd-series document: 'max_degree'"),
        ({"max_degree": 1, "odd_coefficients": [[1]]},
         "malformed odd-series document: not enough values to unpack (expected 2, got 1)"),
    ])
    def test_series_document_rejection(self, capsys, tmp_path, doc_in, message):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(doc_in))
        code, doc = run_strict(capsys, "invariants", str(path))
        assert code == 1
        assert doc["error"] == {"type": "domain", "message": message}


class TestParserBehavior:
    @pytest.mark.parametrize("argv", [
        ("frobnicate",),
        ("psi", "x"),
        ("invert-j", "--value"),
        ("reduce-tau",),
        ("eval", "j", "--tau", "0,1", "--bogus"),
    ])
    def test_rejection_is_domain_error_document(self, capsys, argv):
        code, doc = run_strict(capsys, *argv)
        assert code == 1
        assert doc["error"]["type"] == "domain"
        assert doc["schema_version"] == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "j", "--tau", "0,1"], ["invariants", "SINE"], ["classify", "SINE"],
    ["verify-identity", "--function", "sin", "--samples", "5"], ["verify-duplication", "SINE"],
    ["extend", "SINE", "--target", "9"], ["reduce-tau", "--tau", "0.3,0.5"],
    ["invert-j", "--value", "1728"], ["psi", "9"],
], ids=lambda argv: argv[0])
def test_document_header(capsys, sine_file, argv):
    code, doc = run_strict(capsys, *(sine_file if a == "SINE" else a for a in argv))
    assert code == 0
    assert list(doc)[:2] == ["schema_version", "command"]
    assert doc["schema_version"] == 1 and doc["command"] == argv[0]


class TestStrictJson:
    def test_non_finite_value_is_numeric_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sigmakit.modular.j_invariant",
                            lambda tau: complex(math.inf, math.nan))
        code, doc = run_strict(capsys, "eval", "j", "--tau", "0,1")
        assert code == 2
        assert doc["error"]["type"] == "numeric"

    def test_non_finite_diagnostics_are_dropped(self, capsys, monkeypatch):
        def fail(tau):
            raise NumericError("no value", diagnostics={"residual": math.nan})

        monkeypatch.setattr("sigmakit.modular.j_invariant", fail)
        code, doc = run_strict(capsys, "eval", "j", "--tau", "0,1")
        assert code == 2
        assert doc["error"] == {"type": "numeric", "message": "no value"}


# Help texts, usage lines and rejection documents of the parser, recorded
# byte for byte at an 80-column terminal.  The CLI builds the arguments of
# the chosen subcommand only; every one of these must stay as recorded.
PARSER_GOLDEN = json.loads(
    (Path(__file__).with_name("cli_parser_golden.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PARSER_GOLDEN, ids=lambda case: " ".join(case["argv"]) or "none")
def test_parser_output_is_byte_identical(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


# Documents of every command, recorded byte for byte (exit code, stdout,
# stderr) with CPython 3.11 on x86-64 Linux: results, domain errors, and
# numeric errors whose diagnostics hold [re, im] pairs.  The series files
# are written under their recorded names into the working directory, so
# the paths the documents echo are the recorded ones.  A deliberate change
# of output re-records the cases it touches, from the same argv and files.
DOCUMENTS_GOLDEN = json.loads(
    (Path(__file__).with_name("cli_documents_golden.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", DOCUMENTS_GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_documents_are_byte_identical(capsys, monkeypatch, tmp_path, case):
    for name, text in DOCUMENTS_GOLDEN["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_version_output(capsys):
    from sigmakit import __version__

    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"{__version__}\n", "")
