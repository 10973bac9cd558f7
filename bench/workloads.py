"""Seeded inputs, oracle expectations and correctness checks per workload.

This module runs in the benchmark's driver process only: it imports
mpmath (through ``oracle``) and never sigmakit.  ``generate`` returns the
operations the measured process runs, in the form that process reads, and
the oracle values the driver checks its answers against.  ``check``
compares every distinct answer the measured process reported with those
values, or with a property the method must have.

Every workload is stratified: the seed moves continuous parameters inside
fixed cells, and the number of operations per cell is the same for every
seed.  The cost make-up of a round is therefore the same whatever the
seed, which keeps the end-to-end figures steady from run to run.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import mpmath as mp

import oracle

WORKLOADS = ("sigma_survey", "point_eval", "classify_roundtrip", "cli_mix")

CORNER = cmath.exp(2j * math.pi / 3)

# Error budgets.  They are far above what today's method reaches (see the
# README) so that a change that corrects or speeds up the method passes,
# while a relative perturbation of 1e-6 in any value does not.
VALUE_TOL = 1e-9          # theta1, eta, g2, g3, j, sigma against the oracle
TAU_TOL = 1e-12           # reduced tau against the generating interior point
SURVEY_RESIDUAL_BUDGET = 1e-9   # identity_report max_residual_over_scale
PARAM_TOL = 1e-8          # alpha, beta, a recovered by classify
LATTICE_G_TOL = 1e-6      # g2, g3 of the recovered lattice, scale-relative
SERIES_TOL = 1e-6         # extended coefficients, relative to the largest one
INVERT_J_TOL = 1e-6       # j(tau) of the invert-j answer, relative

SURVEY_SAMPLES = 16
SURVEY_BOXES = (1, 2, 3, 4, 5)
SURVEY_BANDS = ((0.5, 0.8), (0.8, 1.2), (1.2, 1.8), (1.8, 2.5))
POINTS_PER_CLASS = 250

# Elliptic members with tau within about 1e-3 of the corner exp(2 pi i/3).
# classify rejects them today (IdentityNotSatisfiedError at degree 9 or
# 11); they do not depend on the seed and are counted as failed.
NEAR_CORNER_SET = (
    {"tau": CORNER + 1e-3j, "degree": 11},
    {"tau": CORNER + 3e-4j, "degree": 13},
    {"tau": CORNER + 1e-5, "degree": 15},
)
NEAR_CORNER_PARAMS = {"rho": 0.9 + 0.2j, "alpha": 0.1 - 0.2j, "beta": 0.3}


def pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def unpair(p) -> complex:
    return complex(p[0], p[1])


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _polar(rng, lo, hi) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _gauge(rng) -> tuple[complex, complex]:
    alpha = _polar(rng, 0.0, 0.8)
    beta = complex(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
    return alpha, beta


def _corner_tau(rng, r_lo, r_hi) -> complex:
    """A point inside the fundamental domain within r_hi of the corner."""
    return CORNER + cmath.rect(rng.uniform(r_lo, r_hi),
                               rng.uniform(math.pi / 6 + 0.15, math.pi / 2 - 0.1))


# --------------------------------------------------------------------------
# sigma_survey


def _survey_tau(rng, cls: str) -> complex:
    if cls == "generic":
        return complex(rng.uniform(-0.45, 0.45), rng.uniform(1.0, 1.6))
    if cls == "high":
        return complex(rng.uniform(-0.5, 0.49), rng.uniform(2.0, 3.0))
    if cls == "corner":
        return _corner_tau(rng, 0.0, 0.01)
    # The unit-circle arc from i to the corner.
    return cmath.exp(1j * rng.uniform(math.pi / 2, 2 * math.pi / 3))


def _gen_sigma_survey(seed):
    """80 surveys: 4 tau classes x 5 box radii x 4 bands of box/|rho|.

    box/|rho| sets how far z/rho reaches into the theta series, hence the
    number of terms; narrow bands keep each cell's cost nearly fixed.
    box/|rho| stays at or below 2.5, where theta1_eval does not overflow.
    """
    rng = _rng("sigma_survey", seed)
    ops, expect = [], []
    for cls in ("generic", "high", "corner", "arc"):
        for box in SURVEY_BOXES:
            for lo, hi in SURVEY_BANDS:
                tau = _survey_tau(rng, cls)
                rho = cmath.rect(box / rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))
                spots = [rho * (rng.uniform(0.15, 0.85) + rng.uniform(0.15, 0.85) * tau)
                         for _ in range(2)]
                ops.append({"rho": pair(rho), "tau": pair(tau), "samples": SURVEY_SAMPLES,
                            "seed": rng.randrange(2**31), "box": float(box),
                            "spots": [pair(z) for z in spots]})
                expect.append({"spots": [pair(oracle.sigma(z, rho, tau)) for z in spots]})
    return ops, expect


def _check_sigma_survey(op, exp, out, problems):
    if len(out["spot_values"]) != len(exp["spots"]):
        problems.append(f"{len(out['spot_values'])} spot values, expected {len(exp['spots'])}")
    for got, want in zip(out["spot_values"], exp["spots"]):
        _close(problems, "sigma spot", unpair(got), unpair(want), VALUE_TOL)
    rep = out["report"]
    for key, want in (("function", "sigma"), ("num_samples", op["samples"]),
                      ("seed", op["seed"]), ("box_radius", op["box"])):
        if rep.get(key) != want:
            problems.append(f"survey echoes {key}={rep.get(key)!r}, expected {want!r}")
    ratio = rep.get("max_residual_over_scale")
    if not (isinstance(ratio, float) and 0.0 <= ratio <= SURVEY_RESIDUAL_BUDGET):
        problems.append(f"survey residual over scale {ratio!r} outside "
                        f"[0, {SURVEY_RESIDUAL_BUDGET}]")
    for key in ("max_abs_residual", "scale"):
        if not (isinstance(rep.get(key), float) and math.isfinite(rep[key]) and rep[key] >= 0):
            problems.append(f"survey {key}={rep.get(key)!r} is not a finite non-negative float")


# --------------------------------------------------------------------------
# point_eval

# SL(2, Z) basis changes applied to the generating basis.  An interior tau
# has trivial stabiliser, so reduction must recover it whichever is used.
BASIS_CHANGES = ((1, 0, 0, 1), (0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1),
                 (1, -1, 1, 0), (2, 1, 1, 1), (1, 2, 1, 3), (0, 1, -1, 2))


def _point_tau(rng, cls: str) -> complex:
    """tau at least 0.02 inside the fundamental domain."""
    if cls == "generic":
        return complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 1.6))
    if cls == "high":
        return complex(rng.uniform(-0.48, 0.48), rng.uniform(1.6, 3.0))
    if cls == "corner":
        return _corner_tau(rng, 0.03, 0.06)
    x = rng.uniform(-0.42, 0.42)
    return complex(x, math.sqrt(rng.uniform(1.02, 1.05) ** 2 - x * x))


def _cell_point(rng, rho, tau) -> complex:
    """rho * (x + y tau) with |x|, |y| in [0.1, 0.9]: away from lattice points."""
    x = rng.uniform(0.1, 0.9) * rng.choice((-1, 1))
    y = rng.uniform(0.1, 0.9) * rng.choice((-1, 1))
    return rho * (x + y * tau)


def _gen_point_eval(seed):
    rng = _rng("point_eval", seed)
    ops, expect = [], []
    for cls in ("generic", "high", "corner", "arc"):
        for _ in range(POINTS_PER_CLASS):
            tau = _point_tau(rng, cls)
            rho = _polar(rng, 0.5, 2.0)
            a, b, c, d = rng.choice(BASIS_CHANGES)
            w1, w2 = rho * (c * tau + d), rho * (a * tau + b)
            if rng.random() < 0.5:
                # Same lattice, negatively oriented basis.
                w1, w2 = w2, w1
            z = _cell_point(rng, rho, tau)
            u = _cell_point(rng, 1.0, tau)
            g2, g3 = oracle.weierstrass_g(tau)
            ops.append({"omega1": pair(w1), "omega2": pair(w2), "z": pair(z), "u": pair(u)})
            expect.append({
                "tau": pair(tau),
                "sigma": pair(oracle.sigma(z, rho, tau)),
                "theta1": pair(oracle.theta1(u, tau)),
                "j": pair(oracle.j_invariant(tau)),
                "eta": pair(oracle.eta(tau)),
                "g2": pair(g2),
                "g3": pair(g3),
            })
    return ops, expect


def _check_point_eval(op, exp, out, problems):
    tau = unpair(exp["tau"])
    got_tau = unpair(out["tau"])
    if abs(got_tau - tau) > TAU_TOL * abs(tau):
        problems.append(f"reduced tau {got_tau} differs from the generating {tau}")
    for key in ("sigma", "theta1", "eta", "g2", "g3"):
        _close(problems, key, unpair(out[key]), unpair(exp[key]), VALUE_TOL)
    want_j = unpair(exp["j"])
    if abs(unpair(out["j"]) - want_j) > VALUE_TOL * max(abs(want_j), 1728.0):
        problems.append(f"j {unpair(out['j'])} differs from oracle {want_j}")


# --------------------------------------------------------------------------
# classify_roundtrip

DEGREES = tuple(range(7, 33, 2))


def _classify_members(seed):
    """80 seeded members: 12 linear, 20 trig, 28 generic and 20 hard elliptic.

    The hard elliptic members lie on the unit arc with Re tau in
    [-0.265, -0.232], that is real j from about 549 to 745, where invert_j
    exhausts most of its restart grid (about 30 ms against 0.1 to 3 ms
    for the rest).  At 25 % of the round they put p50 on the generic path
    and p90 inside the restart-grid cost, away from the boundary between
    the two.
    """
    rng = _rng("classify_roundtrip", seed)
    members = []
    cells = (("linear", 12), ("trig", 20), ("generic", 28), ("hard", 20))
    for cls, count in cells:
        for k in range(count):
            alpha, beta = _gauge(rng)
            params = {"alpha": alpha, "beta": beta}
            case = cls
            if cls == "trig":
                params["a"] = _polar(rng, 0.3, 2.0)
            elif cls in ("generic", "hard"):
                case = "elliptic"
                params["rho"] = _polar(rng, 0.5, 1.5)
                if cls == "generic":
                    params["tau"] = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.1, 2.5))
                else:
                    x = rng.uniform(-0.265, -0.232)
                    params["tau"] = complex(x, math.sqrt(1.0 - x * x))
            members.append((case, params, DEGREES[k % len(DEGREES)]))
    for fixed in NEAR_CORNER_SET:
        members.append(("elliptic", dict(NEAR_CORNER_PARAMS, tau=fixed["tau"]), fixed["degree"]))
    return members


def _gen_classify_roundtrip(seed):
    ops, expect = [], []
    members = _classify_members(seed)
    first_near_corner = len(members) - len(NEAR_CORNER_SET)
    for index, (case, params, degree) in enumerate(members):
        near_corner = index >= first_near_corner
        coeffs = oracle.member_series(case, params, degree)
        ops.append({"odd_coefficients": [pair(c) for c in coeffs]})
        exp = {"case": case, "alpha": pair(params["alpha"]), "beta": pair(params["beta"])}
        if case == "trig":
            exp["a"] = pair(params["a"])
        if case == "elliptic":
            g2, g3 = oracle.lattice_g(params["rho"], params["tau"])
            exp["g2"], exp["g3"] = pair(g2), pair(g3)
        if near_corner:
            exp["may_fail"] = True
        expect.append(exp)
    return ops, expect


def _beta_matches(got: complex, want: complex, shift: complex) -> bool:
    """got == want + shift modulo 2 pi i."""
    d = got - want - shift
    turns = d.imag / (2 * math.pi)
    return abs(d - 2j * math.pi * round(turns)) <= PARAM_TOL * max(1.0, abs(want))


def check_classification(exp, out, problems):
    """Case, a (up to sign), alpha, beta (mod 2 pi i) and lattice invariants."""
    if out.get("case") != exp["case"]:
        problems.append(f"case {out.get('case')!r}, expected {exp['case']!r}")
        return
    _close(problems, "alpha", unpair(out["alpha"]), unpair(exp["alpha"]), PARAM_TOL, floor=1.0)
    shift = 0j
    if exp["case"] == "trig":
        a, want_a = unpair(out["a"]), unpair(exp["a"])
        if abs(a + want_a) < abs(a - want_a):
            # sin(-a z) = -sin(a z): the flipped scale carries beta + i pi.
            want_a, shift = -want_a, 1j * math.pi
        _close(problems, "a", a, want_a, PARAM_TOL)
    if not _beta_matches(unpair(out["beta"]), unpair(exp["beta"]), shift):
        problems.append(f"beta {unpair(out['beta'])} differs from {unpair(exp['beta'])}"
                        f" + {shift} modulo 2 pi i")
    if exp["case"] == "elliptic":
        g2, g3 = oracle.lattice_g(unpair(out["rho"]), unpair(out["tau"]))
        want2, want3 = unpair(exp["g2"]), unpair(exp["g3"])
        # g2 and g3 scale as s^4 and s^6; near the corner g2 vanishes, so
        # compare against the lattice's own scale, not against g2 alone.
        s = max(abs(want2) ** 0.25, abs(want3) ** (1 / 6))
        for name, got, want, power in (("g2", g2, want2, 4), ("g3", g3, want3, 6)):
            if abs(complex(got) - want) > LATTICE_G_TOL * s**power:
                problems.append(f"recovered lattice {name} {complex(got)} differs from {want}")


def _check_classify_roundtrip(op, exp, out, problems):
    check_classification(exp, out, problems)


# --------------------------------------------------------------------------
# cli_mix

def _gen_cli_mix(seed):
    """One round of twelve CLI commands, each checked against the oracle.

    Returns the commands, their expectations, and the series files the
    driver writes before the measured process starts.
    """
    rng = _rng("cli_mix", seed)
    tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 1.6))
    z = _cell_point(rng, 1.0, tau)
    rho = _polar(rng, 0.7, 1.4)
    zs = _cell_point(rng, rho, tau)
    trig = {"a": _polar(rng, 0.5, 1.5), "alpha": _polar(rng, 0.0, 0.5),
            "beta": complex(rng.uniform(-1, 1), rng.uniform(-3, 3))}
    ell = {"rho": _polar(rng, 0.7, 1.4),
           "tau": complex(rng.uniform(-0.45, 0.45), rng.uniform(1.1, 2.0)),
           "alpha": _polar(rng, 0.0, 0.5),
           "beta": complex(rng.uniform(-1, 1), rng.uniform(-3, 3))}
    trig_coeffs = oracle.member_series("trig", trig, 41)
    ell_coeffs = oracle.member_series("elliptic", ell, 15)
    files = {
        "trig.json": _series_doc(trig_coeffs[:4]),
        "elliptic.json": _series_doc(ell_coeffs),
    }
    big_tau = complex(rng.uniform(-6, 6), rng.uniform(0.05, 0.4))
    jval = complex(rng.uniform(-3000, 3000), rng.uniform(300, 3000))
    g2e, g3e = oracle.lattice_g(ell["rho"], ell["tau"])

    def c(s):
        # Passed as --option=value: argparse would read "-0.3,1.2" as an option.
        return f"{s.real!r},{s.imag!r}"

    commands = [
        (["eval", "theta1", "--z=" + c(z), "--tau=" + c(tau)],
         {"kind": "value", "value": pair(oracle.theta1(z, tau))}),
        (["eval", "eta", "--tau=" + c(tau)], {"kind": "value", "value": pair(oracle.eta(tau))}),
        (["eval", "j", "--tau=" + c(tau)], {"kind": "j", "value": pair(oracle.j_invariant(tau))}),
        (["eval", "sigma", "--z=" + c(zs), "--rho=" + c(rho), "--tau=" + c(tau)],
         {"kind": "value", "value": pair(oracle.sigma(zs, rho, tau))}),
        (["invariants", "{dir}/trig.json"],
         {"kind": "invariants", "pq": [pair(v) for v in oracle.pq(trig_coeffs)]}),
        (["classify", "{dir}/elliptic.json"],
         {"kind": "classify", "expect": {"case": "elliptic", "alpha": pair(ell["alpha"]),
                                          "beta": pair(ell["beta"]), "g2": pair(g2e),
                                          "g3": pair(g3e)}}),
        (["verify-duplication", "{dir}/elliptic.json"], {"kind": "duplication"}),
        (["extend", "{dir}/trig.json", "--target", "41"],
         {"kind": "extend", "coefficients": [pair(v) for v in trig_coeffs]}),
        (["reduce-tau", "--tau=" + c(big_tau)], {"kind": "reduce", "tau": pair(big_tau)}),
        (["invert-j", "--value=" + c(jval)], {"kind": "invert_j", "value": pair(jval)}),
        (["psi", "9"], {"kind": "psi", "value": (9 - 1) * (9 - 2) * (9 - 3) + 8 - 2**9}),
        (["verify-identity", "--function", "sin", "--samples", "50",
          "--seed", str(rng.randrange(2**31))], {"kind": "identity"}),
    ]
    ops = [{"argv": argv} for argv, _ in commands]
    expect = [e for _, e in commands]
    return ops, expect, files


def _series_doc(coeffs) -> str:
    odd = [pair(v) for v in coeffs]
    return json.dumps({"max_degree": 2 * len(odd) - 1, "odd_coefficients": odd})


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_strict(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_strict_constant)


def _check_cli_mix(op, exp, out, problems):
    if out["exit"] != 0:
        problems.append(f"exit code {out['exit']}: {out['stdout'][:200]!r}")
        return
    try:
        doc = parse_strict(out["stdout"])
    except ValueError as exc:
        problems.append(f"stdout is not strict JSON: {exc}")
        return
    kind = exp["kind"]
    if kind == "value":
        _close(problems, "value", unpair(doc["value"]), unpair(exp["value"]), VALUE_TOL)
    elif kind == "j":
        want = unpair(exp["value"])
        if abs(unpair(doc["value"]) - want) > VALUE_TOL * max(abs(want), 1728.0):
            problems.append(f"j {doc['value']} differs from oracle {want}")
    elif kind == "invariants":
        for name, want in zip(("p", "q"), exp["pq"]):
            _close(problems, name, unpair(doc[name]), unpair(want), VALUE_TOL)
        if doc["mu"].get("tag") != "finite":
            problems.append(f"mu tag {doc['mu']!r} for a trig member")
    elif kind == "classify":
        check_classification(exp["expect"], doc, problems)
    elif kind == "duplication":
        # The member satisfies the duplication equation exactly, so every
        # residual coefficient is roundoff of a quartic in the data.
        scale = max(1.0, max(abs(unpair(p)) for p in doc["residual_coefficients"]))
        if not (doc["max_abs_residual"] <= 1e-10 * scale**4
                and doc["first_nonzero_degree"] is None):
            problems.append(f"duplication residual {doc['max_abs_residual']!r}, "
                            f"first nonzero degree {doc['first_nonzero_degree']!r}")
    elif kind == "extend":
        got = [unpair(p) for p in doc["odd_coefficients"]]
        want = [unpair(p) for p in exp["coefficients"]]
        if len(got) != len(want):
            problems.append(f"extend returned {len(got)} coefficients, expected {len(want)}")
        else:
            scale = max(abs(w) for w in want)
            worst = max(abs(g - w) for g, w in zip(got, want))
            if worst > SERIES_TOL * scale:
                problems.append(f"extended coefficients off by {worst:.3e} (scale {scale:.3e})")
    elif kind == "reduce":
        _check_reduction(unpair(exp["tau"]), doc, problems)
    elif kind == "invert_j":
        want = unpair(exp["value"])
        got = complex(oracle.j_invariant(unpair(doc["tau"])))
        if abs(got - want) > INVERT_J_TOL * max(1.0, abs(want)):
            problems.append(f"j(invert-j answer) = {got}, expected {want}")
        _check_in_domain(unpair(doc["tau"]), problems)
    elif kind == "psi":
        if doc.get("psi") != exp["value"] or type(doc.get("psi")) is not int:
            problems.append(f"psi 9 printed {doc.get('psi')!r}, expected {exp['value']}")
    elif kind == "identity":
        ratio = doc.get("max_residual_over_scale")
        if not (isinstance(ratio, float) and 0.0 <= ratio <= SURVEY_RESIDUAL_BUDGET):
            problems.append(f"sin survey residual over scale {ratio!r}")


def _check_in_domain(tau: complex, problems):
    if not (-0.5 - 1e-12 <= tau.real <= 0.5 + 1e-12 and abs(tau) >= 1 - 1e-12 and tau.imag > 0):
        problems.append(f"tau {tau} is outside the fundamental domain")


def _check_reduction(tau_in: complex, doc, problems):
    m = doc["map"]
    a, b, c, d = m["a"], m["b"], m["c"], m["d"]
    if not all(type(v) is int for v in (a, b, c, d)) or a * d - b * c != 1:
        problems.append(f"reduce-tau map {m} is not in SL(2, Z)")
        return
    mapped = mp.mpc(a * mp.mpc(tau_in) + b) / (c * mp.mpc(tau_in) + d)
    got = unpair(doc["tau"])
    if abs(complex(mapped) - got) > 1e-9 * abs(got):
        problems.append(f"map sends {tau_in} to {complex(mapped)}, reported {got}")
    _check_in_domain(got, problems)


# --------------------------------------------------------------------------


def _close(problems, name, got: complex, want: complex, tol: float, floor: float = 0.0):
    if not (cmath.isfinite(got) and abs(got - want) <= tol * max(abs(want), floor)):
        problems.append(f"{name} {got} differs from oracle {want}")


def generate(workload: str, seed: int):
    """(ops, expectations, files) for one round of the workload."""
    if workload == "cli_mix":
        return _gen_cli_mix(seed)
    gen = {"sigma_survey": _gen_sigma_survey, "point_eval": _gen_point_eval,
           "classify_roundtrip": _gen_classify_roundtrip}[workload]
    ops, expect = gen(seed)
    return ops, expect, {}


_CHECKS = {
    "sigma_survey": _check_sigma_survey,
    "point_eval": _check_point_eval,
    "classify_roundtrip": _check_classify_roundtrip,
    "cli_mix": _check_cli_mix,
}


def check(workload: str, ops, expect, answers, failures=()) -> list[str]:
    """Problems found in the answers; an empty list means every answer is right.

    ``answers`` maps an operation index to the distinct outputs it produced
    over all rounds; ``failures`` holds the indices of operations that
    raised.  Only the near-corner set of ``classify_roundtrip`` may raise.
    """
    problems = [f"op {index}: raised, and only the near-corner set may fail"
                for index in sorted(failures) if not expect[index].get("may_fail")]
    for index, outs in answers.items():
        if workload == "cli_mix" and len(outs) > 1:
            problems.append(f"op {index}: identical commands printed {len(outs)} different "
                            "documents")
        for out in outs:
            found = []
            try:
                _CHECKS[workload](ops[index], expect[index], out, found)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found.append(f"malformed answer: {type(exc).__name__}: {exc}")
            problems.extend(f"op {index}: {p}" for p in found)
    return problems
