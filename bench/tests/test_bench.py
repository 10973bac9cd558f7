"""Tests of the benchmark itself: oracle, smoke passes, and failing checks.

Run from the root of the repository:

    python3 -m pytest bench/tests -q

They are kept out of the library's own test run (``testpaths`` names
``tests`` only).  The whole file takes about a minute.
"""

from __future__ import annotations

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run as run_module  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def one_round(workload, seed=7, ops_limit=None, traced=False):
    """Run one round of a workload in this process; return (problems, result)."""
    ops, expect, files = workloads.generate(workload, seed)
    if ops_limit is not None:
        ops, expect = ops[:ops_limit], expect[:ops_limit]
    work = BENCH / ".work" / f"pytest-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    for op in ops:
        if "argv" in op:
            op["argv"] = [a.replace("{dir}", str(work)) for a in op["argv"]]
    if workload == "cli_mix":
        # In-process main keeps the smoke pass short; the subprocess path
        # is exercised by test_command_prints_result_line.
        run, answer = worker._cli_runner(ops, traced=True)
    else:
        run, answer = worker._library_runner(workload, ops)
    result = worker.measure(run, answer, len(ops), seconds=0, min_ops=0)
    answers = {int(k): v for k, v in result["answers"].items()}
    failures = {int(k) for k in result["failures"]}
    return workloads.check(workload, ops, expect, answers, failures), result


# -- oracle ------------------------------------------------------------------


def test_oracle_sigma_theta_route_matches_taylor_route():
    rho, tau = 0.8 - 0.3j, 0.13 + 1.1j
    g2, g3 = oracle.lattice_g(rho, tau)
    coeffs = oracle.sigma_taylor(g2, g3, 61)
    z = mp.mpc(0.05, 0.03)
    series = sum(c * z ** (2 * k + 1) for k, c in enumerate(coeffs))
    assert abs(series - oracle.sigma(z, rho, tau)) < mp.mpf(10) ** -30


def test_oracle_g3_matches_q_series_and_discriminant_matches_eta():
    tau = mp.mpc(-0.31, 1.07)
    q = mp.exp(2j * mp.pi * tau)
    e6 = 1 - 504 * mp.nsum(lambda n: n**5 * q**n / (1 - q**n), [1, mp.inf])
    g2, g3 = oracle.weierstrass_g(tau)
    assert abs(8 * mp.pi**6 / 27 * e6 - g3) < mp.mpf(10) ** -30 * abs(g3)
    delta = g2**3 - 27 * g3**2
    assert abs(delta - (2 * mp.pi) ** 12 * oracle.eta(tau) ** 24) < mp.mpf(10) ** -25 * abs(delta)
    assert abs(oracle.j_invariant(tau) - 1728 * g2**3 / delta) < mp.mpf(10) ** -25 * abs(delta)


def test_generation_is_seeded_and_stratified():
    a = workloads.generate("classify_roundtrip", 3)[0]
    b = workloads.generate("classify_roundtrip", 3)[0]
    c = workloads.generate("classify_roundtrip", 4)[0]
    assert a == b and a != c
    assert len(a) == len(c)
    # Degrees follow the same pattern whatever the seed.
    assert [len(op["odd_coefficients"]) for op in a] == [len(op["odd_coefficients"]) for op in c]


# -- smoke passes --------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_is_correct(workload):
    limit = 120 if workload == "point_eval" else None
    problems, result = one_round(workload, ops_limit=limit)
    assert problems == []
    if workload == "classify_roundtrip":
        # Only the fixed near-corner set fails, and it fails every time.
        first = result["ops_per_round"] - len(workloads.NEAR_CORNER_SET)
        assert sorted(map(int, result["failures"])) == list(range(first, result["ops_per_round"]))
        assert all(m.startswith("IdentityNotSatisfiedError") for m in result["failures"].values())
    else:
        assert result["failed"] == 0


def test_operation_that_raises_outside_near_corner_set_is_wrong(monkeypatch):
    import sigmakit

    calls = []
    original = sigmakit.classify

    def fails_on_linear(series):
        calls.append(series)
        if len(calls) == 1:
            raise sigmakit.IdentityNotSatisfiedError("injected")
        return original(series)

    monkeypatch.setattr(sigmakit, "classify", fails_on_linear)
    problems, result = one_round("classify_roundtrip", ops_limit=2)
    assert result["failed"] == 1
    assert problems == ["op 0: raised, and only the near-corner set may fail"]


def test_import_costs_without_numpy_under_sigmakit():
    with_numpy = ("import time: self [us] | cumulative | imported package\n"
                  "import time:      1200 |      90000 |   numpy\n"
                  "import time:       300 |     130000 | sigmakit\n")
    assert run_module.import_costs(with_numpy) == (90.0, 40.0)
    lazy = ("import time: self [us] | cumulative | imported package\n"
            "import time:       300 |      35000 | sigmakit\n")
    assert run_module.import_costs(lazy) == (0.0, 35.0)


def run_command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


def test_command_prints_result_line():
    proc = run_command("--workload", "cli_mix", "--seed", "2", "--seconds", "1",
                       "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 100
    assert set(doc["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms",
                                   "latency_p90_ms", "peak_rss_mb"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_traced_runs_report_every_layer_metric_and_repeat_counts():
    docs = []
    for _ in range(2):
        proc = run_command("--workload", "classify_roundtrip", "--seed", "5",
                           "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(docs[0]["metrics"]) == names
    for name in tracer.CALL_METRICS + tracer.SPECIAL_METRICS:
        assert docs[0]["metrics"][name] == docs[1]["metrics"][name], name
    m = docs[0]["metrics"]
    assert m["invariants.hat_normalize.calls"]["value"] > 0
    assert m["lattice.invert_j.j_calls_per_call"]["value"] >= 3


def test_command_fails_without_sources():
    bare = BENCH / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_command("--workload", "point_eval", "--seed", "1", "--seconds", "1",
                           cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- wrong answers fail ---------------------------------------------------------


def test_perturbed_sigma_eval_fails_point_eval(monkeypatch):
    import sigmakit
    import sigmakit.lattice

    original = sigmakit.lattice.sigma_eval

    def perturbed(z, lat, **kwargs):
        return original(z, lat, **kwargs) * (1 + 1e-6)

    monkeypatch.setattr(sigmakit.lattice, "sigma_eval", perturbed)
    monkeypatch.setattr(sigmakit, "sigma_eval", perturbed)
    problems, _ = one_round("point_eval", ops_limit=20)
    assert problems and all("sigma" in p for p in problems)
    problems, _ = one_round("sigma_survey", ops_limit=4)
    assert any("sigma spot" in p for p in problems)


def classification_case():
    params = {"a": 0.7 + 0.4j, "alpha": 0.2 - 0.1j, "beta": 0.3 + 0.5j}
    exp = {"case": "trig", "alpha": workloads.pair(params["alpha"]),
           "beta": workloads.pair(params["beta"]), "a": workloads.pair(params["a"])}
    out = {"case": "trig", "alpha": exp["alpha"], "beta": exp["beta"], "a": exp["a"]}
    return exp, out


def test_classification_check_accepts_symmetries_and_rejects_wrong_alpha():
    exp, out = classification_case()
    problems = []
    workloads.check_classification(exp, out, problems)
    assert problems == []
    # beta modulo 2 pi i, and the sign flip of a with beta + i pi.
    beta = workloads.unpair(exp["beta"])
    for a, b in ((workloads.unpair(exp["a"]), beta + 2j * math.pi),
                 (-workloads.unpair(exp["a"]), beta + 1j * math.pi)):
        problems = []
        workloads.check_classification(exp, dict(out, a=workloads.pair(a),
                                                  beta=workloads.pair(b)), problems)
        assert problems == []
    for bad in (dict(out, alpha=workloads.pair(workloads.unpair(out["alpha"]) * (1 + 1e-6))),
                dict(out, beta=workloads.pair(beta + 1j * math.pi)),
                dict(out, case="elliptic")):
        problems = []
        workloads.check_classification(exp, bad, problems)
        assert problems


def test_cli_document_with_nan_fails():
    exp = {"kind": "value", "value": [1.0, 0.0]}
    for text in ('{"value": [NaN, 0.0]}', '{"value": [1.0, Infinity]}'):
        problems = []
        workloads._check_cli_mix({}, exp, {"exit": 0, "stdout": text}, problems)
        assert problems and "strict JSON" in problems[0]
    problems = []
    workloads._check_cli_mix({}, exp, {"exit": 0, "stdout": '{"value": [1.0, 0.0]}'}, problems)
    assert problems == []


def test_near_corner_set_is_fixed():
    a = workloads.generate("classify_roundtrip", 1)[0][-3:]
    b = workloads.generate("classify_roundtrip", 2)[0][-3:]
    assert a == b
    assert all(abs(f["tau"] - workloads.CORNER) < 2e-3 for f in workloads.NEAR_CORNER_SET)
    assert cmath.isclose(workloads.CORNER, complex(-0.5, math.sqrt(3) / 2))
