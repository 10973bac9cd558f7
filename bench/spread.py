"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload classify_roundtrip --seeds 1-10

Each run lasts ``run_seconds`` from ``BENCHMARK.json`` and reports the
end-to-end metrics.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median.  The summary
is also written to ``bench/results/spread-<workload>-<seeds>.json``.  Runs
are made one after the other, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range 1-10 or a list 1,4,9")
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(doc)
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']}", flush=True)
    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
        "all_correct": all(r["correct"] for r in runs),
        "failed_shares": sorted({r["failed"] / r["attempted"] for r in runs}),
        "metrics": {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names},
    }
    for name, s in summary["metrics"].items():
        print(f"{name:45s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    print(f"failed shares: {summary['failed_shares']}")
    out = HERE / "results" / f"spread-{args.workload}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
