"""The measured process of the sigmakit benchmark.

Started by ``run.py`` with an inputs file it wrote.  It imports sigmakit
(from ``src`` through PYTHONPATH) and nothing of the oracle, builds the
program-side objects, then runs whole rounds of the same operations, one
at a time, until both the run time and the minimum operation count are
reached.  It writes timings, the distinct answers of every operation and,
when traced, the per-layer statistics to a results file.

Run by hand:
    PYTHONPATH=src python3 bench/worker.py --inputs IN.json --results OUT.json \
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from array import array

from tracer import Tracer

MIN_OPS = 100
# A run stops after this long even if fewer than MIN_OPS operations completed.
HARD_LIMIT_S = 120.0
# Times of the two references on the reference host (Intel Xeon at 2.1 GHz,
# KVM guest with 2 vCPUs, Python 3.11.7) in its fast state.
REFERENCE_SLICE_S = 27e-6
REFERENCE_PROCESS_S = 64e-3
# A Python process that imports part of the standard library and nothing
# of sigmakit or NumPy.
REFERENCE_PROCESS = ("-c", "import decimal, email.parser, fractions, json")

_REF_VALUES = [complex(k, 1 - k) for k in range(8)]


def reference_slice():
    """Fixed work that shares no code with sigmakit: complex exponentials and
    short complex dot products in a Python loop.  It uses only the standard
    library, so the measured process imports nothing that sigmakit does not
    import itself.
    """
    acc = 0j
    for k in range(48):
        z = complex(k * 1e-3, 0.25)
        acc += cmath.exp(z) * cmath.sin(z)
        if k % 8 == 0:
            acc += sum(a * b for a, b in zip(_REF_VALUES, reversed(_REF_VALUES)))
    return acc


def slice_slowdown() -> float:
    """Host slowdown for in-process work: one reference slice over
    REFERENCE_SLICE_S.

    An untimed slice first warms the caches the last operation disturbed,
    so the timed one samples the host's speed at that moment without
    depending on how much cache the operation used.
    """
    reference_slice()
    start = time.perf_counter()
    reference_slice()
    return (time.perf_counter() - start) / REFERENCE_SLICE_S


def process_slowdown() -> float:
    """Host slowdown for whole processes: one reference process over
    REFERENCE_PROCESS_S.

    Process start, imports and page faults slow down by a different factor
    than in-process arithmetic, so CLI processes and set-ups are scaled by
    a process, not by the slice.
    """
    import subprocess

    start = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE_PROCESS], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, timeout=60, check=True)
    return (time.perf_counter() - start) / REFERENCE_PROCESS_S


class LatencyHistogram:
    """Latency counts in bins 0.1 % wide from 0.1 us to 1000 s.

    Its memory is fixed whatever the run length, so the measured process's
    peak RSS does not grow with the number of operations it times.
    """

    LOW = 1e-7
    STEP = math.log1p(1e-3)
    BINS = int(math.log(1e3 / LOW) / STEP) + 1

    def __init__(self):
        self.counts = array("Q", bytes(8 * self.BINS))
        self.total = 0

    def add(self, seconds: float):
        k = int(math.log(max(seconds, self.LOW) / self.LOW) / self.STEP)
        self.counts[min(k, self.BINS - 1)] += 1
        self.total += 1

    def quantile(self, p: float) -> float:
        """Value at rank p*(n-1), interpolated geometrically inside its bin."""
        rank = p * (self.total - 1)
        seen = 0
        for k, c in enumerate(self.counts):
            if c and seen + c > rank:
                return self.LOW * math.exp(self.STEP * (k + (rank - seen + 0.5) / c))
            seen += c
        raise ValueError("empty histogram")


def _c(p) -> complex:
    return complex(p[0], p[1])


def _p(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _library_runner(workload, ops):
    """(run, answer) for a library workload, with its objects built.

    ``run(i)`` is the timed operation; ``answer(raw)`` turns its result
    into JSON outside the timed region.
    """
    import sigmakit as sk

    if workload == "sigma_survey":
        lattices = [sk.lattice_from_rho_tau(_c(op["rho"]), _c(op["tau"])) for op in ops]
        spots = [[_c(z) for z in op["spots"]] for op in ops]

        def run(i):
            op = ops[i]
            handle = sk.OddFunctionHandle.from_sigma(lattices[i])
            report = sk.identity_report(handle, num_samples=op["samples"], seed=op["seed"],
                                        box_radius=op["box"])
            # The identity holds for any constant or Gaussian multiple of
            # sigma, so the values the survey used are checked through the
            # same handle.
            return report, [handle(z) for z in spots[i]]

        def answer(raw):
            return {"report": raw[0], "spot_values": [_p(v) for v in raw[1]]}

        return run, answer

    if workload == "point_eval":
        args = [(_c(op["omega1"]), _c(op["omega2"]), _c(op["z"]), _c(op["u"])) for op in ops]

        def run(i):
            w1, w2, z, u = args[i]
            lat = sk.normalize_lattice(w1, w2)
            tau = lat.tau
            return (tau.value, sk.sigma_eval(z, lat), sk.theta1_eval(u, tau),
                    sk.j_invariant(tau), sk.dedekind_eta(tau), *sk.weierstrass_g(tau))

        def answer(raw):
            return dict(zip(("tau", "sigma", "theta1", "j", "eta", "g2", "g3"), map(_p, raw)))

        return run, answer

    if workload == "classify_roundtrip":
        series = [sk.TruncatedOddSeries([_c(p) for p in op["odd_coefficients"]]) for op in ops]

        def run(i):
            return sk.classify(series[i])

        def answer(raw):
            doc = {"case": raw.case, "alpha": _p(raw.alpha), "beta": _p(raw.beta)}
            if raw.a is not None:
                doc["a"] = _p(raw.a)
            if raw.rho is not None:
                doc["rho"] = _p(raw.rho)
                doc["tau"] = _p(raw.tau.value)
            return doc

        return run, answer

    raise ValueError(f"unknown workload {workload!r}")


# Largest peak RSS, in kB, of the CLI processes run so far.  The reference
# processes are children too, so RUSAGE_CHILDREN would count them.
_cli_peak_rss_kb = 0


def _cli_process(argv):
    """Exit code and stdout of one CLI process; records its peak RSS.

    A CLI process that hangs is ended with the whole process group when
    the driver's time limit for the measured process runs out.
    """
    global _cli_peak_rss_kb
    import subprocess

    proc = subprocess.Popen([sys.executable, "-m", "sigmakit.cli", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _cli_peak_rss_kb = max(_cli_peak_rss_kb, usage.ru_maxrss)
    return proc.returncode, out.decode("utf-8", "replace")


def _cli_runner(ops, traced):
    """One CLI process per operation; in-process ``main`` when traced."""
    if traced:
        from sigmakit import cli

        def run(i):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(ops[i]["argv"])
            return code, buf.getvalue()
    else:
        def run(i):
            return _cli_process(ops[i]["argv"])

    def answer(raw):
        return {"exit": raw[0], "stdout": raw[1]}

    return run, answer


def measure(run, answer, count, seconds, tracer=None, min_ops=MIN_OPS,
            slowdown_sample=slice_slowdown):
    """Run whole rounds of operations 0..count-1; return timings and answers.

    Every operation is followed by one ``slowdown_sample``.  The mean of
    the samples just before and just after an operation is the host's
    slowdown while it ran; the operation's time divided by it is its
    scaled time.
    """
    clock = time.perf_counter
    scaled, unscaled = LatencyHistogram(), LatencyHistogram()
    answers = {i: {} for i in range(count)}
    failures = {}
    failed = completed = rounds = 0
    busy = scaled_busy = slowdown_sum = 0.0
    before = slowdown_sample()
    start = clock()
    while True:
        for i in range(count):
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            try:
                raw, error = run(i), None
            except Exception as exc:  # a failed operation is counted, not fatal
                raw, error = None, exc
            dt = clock() - t0
            after = slowdown_sample()
            slowdown_sum += after
            slowdown = (before + after) / 2
            before = after
            busy += dt
            scaled_busy += dt / slowdown
            if error is not None:
                failed += 1
                failures.setdefault(i, f"{type(error).__name__}: {error}")
                continue
            unscaled.add(dt)
            scaled.add(dt / slowdown)
            completed += 1
            doc = answer(raw)
            answers[i].setdefault(json.dumps(doc, sort_keys=True), doc)
        rounds += 1
        elapsed = clock() - start
        if elapsed >= seconds and (completed >= min_ops or elapsed >= HARD_LIMIT_S):
            break
    return {
        "rounds": rounds,
        "ops_per_round": count,
        "attempted": rounds * count,
        "failed": failed,
        "completed": completed,
        "failures": {str(k): v for k, v in failures.items()},
        "latencies_ms": _percentiles(scaled),
        "unscaled_latencies_ms": _percentiles(unscaled),
        "busy_s": busy,
        "scaled_busy_s": scaled_busy,
        "host_slowdown": slowdown_sum / (rounds * count),
        "answers": {str(i): list(a.values()) for i, a in answers.items() if a},
    }


def _percentiles(hist: LatencyHistogram):
    if hist.total < 2:
        return None
    return {"p50": hist.quantile(0.5) * 1e3, "p90": hist.quantile(0.9) * 1e3,
            "count": hist.total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the program-side objects, report the time, exit")
    args = parser.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload, ops = inputs["workload"], inputs["ops"]
    traced = bool(args.trace)
    result = {}
    if workload == "cli_mix":
        run, answer = _cli_runner(ops, traced)
    else:
        run, answer = _library_runner(workload, ops)
    result["ready_at"] = time.perf_counter()
    if not args.setup_only:
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        # CLI processes are scaled by the reference process; in-process
        # work, the traced in-process CLI included, by the slice.
        sample = process_slowdown if workload == "cli_mix" and not traced else slice_slowdown
        result.update(measure(run, answer, len(ops), args.seconds, tracer,
                              slowdown_sample=sample))
        if tracer is not None:
            result["trace"] = {"metrics": tracer.metrics(), "edges": tracer.edge_list()}
        if workload == "cli_mix" and not traced:
            result["peak_rss_kb"] = _cli_peak_rss_kb
        else:
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tmp = args.results + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
