"""Benchmark of sigmakit: one command, four closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/sigmakit`` must exist).  The
driver makes the seeded inputs and the oracle's answers with mpmath, then
starts the measured process ``bench/worker.py``, which imports sigmakit
alone.  One caller, one thread, and at most one CLI child at a time.  The
driver checks every distinct answer against the oracle and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The same object,
plus details and the trace edges, is saved under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from worker import process_slowdown

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Set-up is timed this many times per run, in separate processes, and the
# median is reported.
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_worker(root, inputs, results, seconds, trace, setup_only=False):
    """Run the worker to completion; return (start time, results)."""
    cmd = [sys.executable, str(WORKER), "--inputs", str(inputs), "--results", str(results),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if results.exists():
        results.unlink()
    start = time.perf_counter()
    # A session of its own, so that a timeout ends the CLI child too.
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("measured process timed out") from None
    if proc.returncode != 0 or not results.exists():
        raise BenchError(f"measured process exited with {proc.returncode}:\n"
                         f"{err.decode('utf-8', 'replace')[-2000:]}")
    with open(results, encoding="utf-8") as fh:
        return start, json.load(fh)


def _timed_process(root, argv) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=_env(root),
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60, check=True)
    return time.perf_counter() - start, proc.stderr.decode("utf-8", "replace")


def import_costs(stderr: str) -> tuple[float, float]:
    """(NumPy ms, sigmakit's own ms) from ``-X importtime -c "import sigmakit"``.

    sigmakit's own time is its cumulative time less NumPy's when NumPy is
    imported under it, so a change that defers or drops the NumPy import
    reads as 0 ms of NumPy and moves no time into sigmakit's figure.
    """
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(3) in ("numpy", "sigmakit"):
            cumulative[m.group(3)] = int(m.group(2)) / 1e3
    if "sigmakit" not in cumulative:
        raise BenchError("no import-time line for sigmakit")
    numpy_ms = cumulative.get("numpy", 0.0)
    return numpy_ms, cumulative["sigmakit"] - numpy_ms


def startup_metrics(root) -> dict:
    """Interpreter start and import costs behind every CLI process (medians)."""
    bare, numpy_ms, own_ms = [], [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(_timed_process(root, ["-c", "pass"])[0] * 1e3)
        _, err = _timed_process(root, ["-X", "importtime", "-c", "import sigmakit"])
        np_ms, sk_ms = import_costs(err)
        numpy_ms.append(np_ms)
        own_ms.append(sk_ms)
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_numpy_ms": statistics.median(numpy_ms),
            "cli.import_sigmakit_ms": statistics.median(own_ms)}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setup_s: float) -> dict:
    """The five end-to-end metrics; the worker already scaled the times."""
    lat = run["latencies_ms"]
    if lat is None:
        raise BenchError("fewer than two operations completed; no latency to report")
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(run["completed"] / run["scaled_busy_s"], "1/s"),
        "latency_p50_ms": _metric(lat["p50"], "ms"),
        "latency_p90_ms": _metric(lat["p90"], "ms"),
        "peak_rss_mb": _metric(run["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(run: dict, startup: dict) -> dict:
    values = dict(run["trace"]["metrics"], **startup)
    names = (tracer.CALL_METRICS + tracer.SELF_METRICS + tracer.SPECIAL_METRICS
             + tracer.STARTUP_METRICS)
    return {name: _metric(values[name], tracer.metric_unit(name)) for name in names}


def measure_setup(root, workload, inputs, results) -> list:
    """(unscaled, scaled) seconds of SETUP_REPEATS set-ups.

    A set-up is a measured process started with --setup-only, up to the
    moment it is ready for its first operation; for cli_mix it is a whole
    ``sigmakit psi 9`` process.  Each is divided by the mean host slowdown
    of the reference processes run just before and just after it.
    """
    out = []
    before = process_slowdown()
    for _ in range(SETUP_REPEATS):
        if workload == "cli_mix":
            raw, _ = _timed_process(root, ["-m", "sigmakit.cli", "psi", "9"])
        else:
            start, res = _start_worker(root, inputs, results, 0, 0, setup_only=True)
            raw = res["ready_at"] - start
        after = process_slowdown()
        out.append((raw, raw * 2 / (before + after)))
        before = after
    return out


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate, measure and check one run; return the result document."""
    if not (root / "src" / "sigmakit" / "__init__.py").is_file():
        raise BenchError(f"no sigmakit sources under {root / 'src'}; "
                         "run from the root of a sigmakit checkout")
    work = HERE / ".work" / f"{workload}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        ops, expect, files = workloads.generate(workload, seed)
        rel = os.path.relpath(work, root)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        for op in ops:
            if "argv" in op:
                op["argv"] = [a.replace("{dir}", rel) for a in op["argv"]]
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps({"workload": workload, "ops": ops}), encoding="utf-8")
        results = work / "results.json"

        setup = [] if trace else measure_setup(root, workload, inputs, results)
        _, run = _start_worker(root, inputs, results, seconds, trace)

        answers = {int(k): v for k, v in run["answers"].items()}
        problems = workloads.check(workload, ops, expect, answers,
                                   failures={int(k) for k in run["failures"]})
        if trace:
            metrics = per_layer(run, startup_metrics(root))
        else:
            metrics = end_to_end(run, statistics.median(scaled for _, scaled in setup))
        doc = {"correct": not problems, "attempted": run["attempted"],
               "failed": run["failed"], "metrics": metrics}
        details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "rounds": run["rounds"], "ops_per_round": run["ops_per_round"],
                   "completed": run["completed"], "failures": run["failures"],
                   "problems": problems[:50], "setup_samples_s": setup,
                   "latency_count": (run["latencies_ms"] or {}).get("count"),
                   "host_slowdown": run["host_slowdown"],
                   "unscaled": {"setup_s": statistics.median(raw for raw, _ in setup)
                                if setup else None,
                                "ops_per_s": run["completed"] / run["busy_s"],
                                "latency_ms": run["unscaled_latencies_ms"]}}
        if trace:
            details["edges"] = run["trace"]["edges"]
        return {"result": doc, "details": details}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    # One CPU for the driver and every process it starts, so that each
    # reference runs where the work it scales ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        out = run_benchmark(root, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    doc, details = out["result"], out["details"]
    saved = HERE / "results" / (f"{args.workload}-s{args.seed}"
                                + ("-trace" if args.trace else "") + ".json")
    saved.parent.mkdir(exist_ok=True)
    saved.write_text(json.dumps(dict(details, result=doc), indent=1), encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed}: {details['rounds']} rounds of "
          f"{details['ops_per_round']} operations, {details['completed']} completed, "
          f"{doc['failed']} failed; host slowdown {details['host_slowdown']:.3f}; "
          f"unscaled {json.dumps(details['unscaled'])}")
    for index, message in sorted(details["failures"].items(), key=lambda kv: int(kv[0])):
        print(f"  failed op {index}: {message[:160]}")
    for problem in details["problems"]:
        print(f"  wrong answer: {problem[:200]}")
    for name, m in doc["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
