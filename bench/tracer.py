"""Per-layer call tracing from outside the program.

``Tracer.install`` replaces each traced public function of sigmakit by a
timing wrapper in every sigmakit module namespace that holds it, which is
where other modules look it up (``from .lattice import invert_j`` binds
``classify.invert_j``).  The wrappers keep a stack of open calls, so each
function's self time excludes the time of the traced calls it makes.
Statistics are kept per (caller, callee) edge in memory and written out
when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Traced functions per layer: the public computing functions of each
# module.  Helpers such as ``as_tau`` stay untraced; their time counts
# towards the caller's self time.
LAYERS = {
    "series": ("multiply", "scale_argument", "gauss_twist", "duplication_rhs"),
    "modular": ("theta1_eval", "theta1_odd_series", "dedekind_eta", "weierstrass_g",
                "modular_discriminant", "j_invariant", "modular_pq"),
    "lattice": ("reduce_tau", "normalize_lattice", "lattice_from_rho_tau", "invert_j",
                "sigma_gauge", "sigma_eval"),
    "invariants": ("mu_of_pq", "hat_normalize", "pq_of_series"),
    "identity": ("identity_residual", "sample_quadruples", "identity_report",
                 "duplication_residual", "duplication_report", "extend_series", "psi"),
    "classify": ("classify", "synthesize"),
    "cli": ("main",),
}

# The per-layer metrics the traced run reports, all per operation except
# lattice.invert_j.j_calls_per_call, which is per invert_j call.
CALL_METRICS = (
    "series.duplication_rhs.calls",
    "modular.theta1_eval.calls",
    "modular.theta1_odd_series.calls",
    "modular.j_invariant.calls",
    "lattice.sigma_eval.calls",
    "lattice.invert_j.calls",
    "invariants.hat_normalize.calls",
    "identity.identity_residual.calls",
    "identity.duplication_residual.calls",
)
SELF_METRICS = (
    "series.duplication_rhs.self_ms",
    "series.gauss_twist.self_ms",
    "series.scale_argument.self_ms",
    "modular.theta1_eval.self_ms",
    "modular.theta1_odd_series.self_ms",
    "modular.j_invariant.self_ms",
    "modular.weierstrass_g.self_ms",
    "modular.dedekind_eta.self_ms",
    "lattice.sigma_eval.self_ms",
    "lattice.invert_j.self_ms",
    "lattice.normalize_lattice.self_ms",
    "lattice.reduce_tau.self_ms",
    "invariants.pq_of_series.self_ms",
    "identity.identity_residual.self_ms",
    "identity.identity_report.self_ms",
    "identity.extend_series.self_ms",
    "classify.classify.self_ms",
    "classify.synthesize.self_ms",
    "cli.main.self_ms",
)
SPECIAL_METRICS = (
    "modular.theta1_odd_series.repeat_calls",
    "lattice.invert_j.j_calls_per_call",
)
STARTUP_METRICS = ("cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_sigmakit_ms")


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("per_call"):
        return "calls/call"
    return "count"


class Tracer:
    def __init__(self):
        # (caller, callee) -> [calls, self seconds]
        self.edges = defaultdict(lambda: [0, 0.0])
        self._stack = []        # [name, seconds spent in traced children]
        self.ops = 0
        self._seen_odd_series = set()
        self.repeat_odd_series = 0
        self._invert_depth = 0
        self.j_calls_in_invert = 0

    def begin_op(self):
        self.ops += 1
        self._seen_odd_series.clear()

    def _note(self, name, args, kwargs):
        if name == "modular.theta1_odd_series":
            tau = args[0] if args else kwargs["tau"]
            degree = args[1] if len(args) > 1 else kwargs["max_degree"]
            key = (complex(getattr(tau, "value", tau)), degree)
            if key in self._seen_odd_series:
                self.repeat_odd_series += 1
            self._seen_odd_series.add(key)
        elif name == "modular.j_invariant" and self._invert_depth:
            self.j_calls_in_invert += 1

    def wrap(self, name, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        special = name in ("modular.theta1_odd_series", "modular.j_invariant")
        is_invert = name == "lattice.invert_j"

        def traced(*args, **kwargs):
            if special:
                self._note(name, args, kwargs)
            if is_invert:
                self._invert_depth += 1
            frame = [name, 0.0]
            caller = stack[-1][0] if stack else "op"
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_invert:
                    self._invert_depth -= 1
                edge = edges[(caller, name)]
                edge[0] += 1
                edge[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a sigmakit module holds it."""
        homes = {layer: importlib.import_module(f"sigmakit.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "sigmakit" or n.startswith("sigmakit."))]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def totals(self):
        """name -> [calls, self seconds], summed over callers."""
        out = defaultdict(lambda: [0, 0.0])
        for (_, name), (calls, self_s) in self.edges.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def metrics(self) -> dict:
        """Per-operation values of the call, self-time and special metrics."""
        totals = self.totals()
        ops = max(self.ops, 1)
        values = {}
        for metric in CALL_METRICS:
            values[metric] = totals[metric.rsplit(".", 1)[0]][0] / ops
        for metric in SELF_METRICS:
            values[metric] = totals[metric.rsplit(".", 1)[0]][1] * 1e3 / ops
        values["modular.theta1_odd_series.repeat_calls"] = self.repeat_odd_series / ops
        invert_calls = totals["lattice.invert_j"][0]
        values["lattice.invert_j.j_calls_per_call"] = (
            self.j_calls_in_invert / invert_calls if invert_calls else 0.0)
        return values

    def edge_list(self) -> list:
        return [{"caller": c, "callee": n, "calls": k, "self_ms": s * 1e3}
                for (c, n), (k, s) in sorted(self.edges.items())]
