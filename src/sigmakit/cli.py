"""Command-line front end.

Every subcommand prints exactly one strict JSON document (no NaN or
Infinity) to standard output and exits with 0 on success, 1 on a domain
error (bad or unparsable arguments, malformed input, precondition
violations), or 2 on a numeric error (non-convergent series, failed root
searches, non-finite results).  Output is deterministic: identical
arguments and seed produce byte-identical documents.

Conventions: complex numbers are written "re,im" on the command line (a
bare "re" means re,0) and as two-element arrays [re, im] in JSON.  Every
document carries a "schema_version" field and echoes the effective
configuration.  The reported beta parameters are principal values,
determined only modulo 2*pi*i.

Each command imports the layers it runs when it runs, so a process loads
only those; the parser's defaults come from ``errors``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import (
    J_TOLERANCE,
    TERM_CAP,
    TRIG_TOLERANCE,
    VALIDATION_TOLERANCE,
    DomainError,
    NumericError,
    json_ready,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERIC = 2


def parse_complex(text: str) -> complex:
    """Parse 're,im' (or bare 're') into a complex number."""
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise DomainError(f"cannot parse complex number from {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number from {text!r}") from exc
    return complex(re, im)


def load_series(path: str) -> "TruncatedOddSeries":
    from .series import TruncatedOddSeries

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read series file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path}: {exc}") from exc
    return TruncatedOddSeries.from_json_dict(doc)


def emit(doc: dict) -> None:
    """Print a document as strict JSON; a NaN or infinity is a NumericError."""
    try:
        text = json.dumps(json_ready(doc), indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"the result is not finite ({exc})") from exc
    sys.stdout.write(text + "\n")


def _lattice_from_args(args) -> "Lattice":
    from .lattice import lattice_from_rho_tau, normalize_lattice

    if args.omega1 is not None or args.omega2 is not None:
        if args.omega1 is None or args.omega2 is None:
            raise DomainError("--omega1 and --omega2 must be given together")
        return normalize_lattice(parse_complex(args.omega1), parse_complex(args.omega2))
    tau = parse_complex(args.tau) if args.tau else 1j
    rho = parse_complex(args.rho) if args.rho else 1.0 + 0.0j
    return lattice_from_rho_tau(rho, tau)


def _cmd_eval(args) -> dict:
    from .modular import dedekind_eta, j_invariant, theta1_eval, weierstrass_g

    name = args.function
    config = {"function": name, "term_cap": TERM_CAP}
    if name == "sigma":
        from .lattice import sigma_eval

        if args.z is None:
            raise DomainError("eval sigma requires --z")
        z = parse_complex(args.z)
        lat = _lattice_from_args(args)
        value = sigma_eval(z, lat)
        config.update({"z": z, "rho": lat.rho, "tau": lat.tau.value})
    elif name == "theta1":
        if args.z is None or args.tau is None:
            raise DomainError("eval theta1 requires --z and --tau")
        z, tau = parse_complex(args.z), parse_complex(args.tau)
        value = theta1_eval(z, tau)
        config.update({"z": z, "tau": tau})
    else:  # eta, g2, g3 and j depend on tau alone
        if args.tau is None:
            raise DomainError(f"eval {name} requires --tau")
        tau = parse_complex(args.tau)
        config["tau"] = tau
        if name in ("g2", "g3"):
            value = weierstrass_g(tau)[name == "g3"]
        else:
            value = (dedekind_eta if name == "eta" else j_invariant)(tau)
    return {"config": config, "value": value}


def _cmd_invariants(args) -> dict:
    from .invariants import pq_of_series

    s = load_series(args.series)
    return {"config": {"series": args.series, "max_degree": s.max_degree},
            **pq_of_series(s).to_json_dict()}


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not value > 0:
            raise DomainError(f"--{name} must be positive, got {value}")


def _cmd_classify(args) -> dict:
    from .classify import classify

    _require_positive(**{"trig-tol": args.trig_tol,
                         "validation-tol": args.validation_tol})
    s = load_series(args.series)
    c = classify(
        s,
        trig_tolerance=args.trig_tol,
        validation_tolerance=args.validation_tol,
    )
    return {
        "config": {
            "series": args.series,
            "max_degree": s.max_degree,
            "trig_tol": args.trig_tol,
            "validation_tol": args.validation_tol,
        },
        **c.to_json_dict(),
    }


def _cmd_verify_identity(args) -> dict:
    from .identity import OddFunctionHandle, identity_report

    _require_positive(samples=args.samples, box=args.box)
    if not math.isfinite(args.box):
        raise DomainError(f"--box must be finite, got {args.box}")
    if args.series is not None:
        handle = OddFunctionHandle.from_series(load_series(args.series))
    elif args.function == "z":
        handle = OddFunctionHandle.identity()
    elif args.function == "sin":
        handle = OddFunctionHandle.sine()
    elif args.function == "sigma":
        handle = OddFunctionHandle.from_sigma(_lattice_from_args(args))
    else:
        raise DomainError("choose --function {z,sin,sigma} or --series FILE")
    return identity_report(
        handle, num_samples=args.samples, seed=args.seed, box_radius=args.box
    )


def _cmd_verify_duplication(args) -> dict:
    from .identity import duplication_report

    s = load_series(args.series)
    return {
        "config": {"series": args.series, "max_degree": s.max_degree},
        **duplication_report(s),
    }


def _cmd_extend(args) -> dict:
    from .identity import extend_series

    s = load_series(args.series)
    extended = extend_series(s, args.target)
    return {
        "config": {"series": args.series, "target_degree": args.target},
        **extended.to_json_dict(),
    }


def _cmd_reduce_tau(args) -> dict:
    from .lattice import reduce_tau

    tau = parse_complex(args.tau)
    reduced, unimap = reduce_tau(tau)
    return {"config": {"tau": tau}, "tau": reduced.value, "map": unimap.to_json_dict()}


def _cmd_invert_j(args) -> dict:
    from .lattice import invert_j

    _require_positive(tolerance=args.tolerance)
    jval = parse_complex(args.value)
    tau = invert_j(jval, tolerance=args.tolerance)
    return {"config": {"value": jval, "tolerance": args.tolerance}, "tau": tau.value}


def _cmd_psi(args) -> dict:
    from .identity import psi

    # JSON prints psi(n) as an integer through str(), which refuses more
    # decimal digits than sys.get_int_max_str_digits() (Python 3.11+).
    # For large odd n, |psi(n)| has exactly the floor(n*log10(2)) + 1
    # digits of 2^n, since 2^n - 10^k is a multiple of 2^k.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.n % 2 and args.n * math.log10(2.0) >= limit:
        raise DomainError(
            f"psi({args.n}) has more than {limit} decimal digits, the "
            "interpreter's limit for printing an integer"
        )
    return {
        "config": {"n": args.n},
        "psi": psi(args.n),
    }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are DomainErrors, so that they
    reach stdout as JSON documents like every other domain error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(f"{self.prog}: {message}")


# Options taking a complex "re,im" value.  argparse reads a value such as
# "-1,2" as an option string, so main() attaches it as "--z=-1,2".
_COMPLEX_OPTIONS = ("--z", "--tau", "--rho", "--omega1", "--omega2", "--value")


def _attach_negative_values(argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        if (out and out[-1] in _COMPLEX_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is registered with its help,
    but only those named in argv get their arguments, so a process builds
    the arguments of its own command alone."""
    parser = _Parser(
        prog="sigmakit",
        description=(
            "Weierstrass sigma / Jacobi theta toolkit. Complex arguments are "
            "written re,im (bare re means imaginary part 0); JSON output uses "
            "[re, im] pairs. Exit codes: 0 ok, 1 domain error, 2 numeric error."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, run):
        """The subparser of name, or None if argv does not name it."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=run)
        return p if name in argv else None

    def add_lattice_options(p):
        p.add_argument("--tau", help="upper-half-plane point re,im")
        p.add_argument("--rho", help="lattice scale re,im (default 1)")
        p.add_argument("--omega1", help="first generator re,im")
        p.add_argument("--omega2", help="second generator re,im")

    if p := command("eval", "evaluate theta1, eta, g2, g3, j, or sigma", _cmd_eval):
        p.add_argument("function", choices=["theta1", "eta", "g2", "g3", "j", "sigma"])
        p.add_argument("--z", help="argument re,im (theta1 and sigma)")
        add_lattice_options(p)

    if p := command("invariants", "p, q, mu of an odd series file", _cmd_invariants):
        p.add_argument("series", help="JSON file with max_degree and odd_coefficients")

    if p := command("classify", "classify an odd series file", _cmd_classify):
        p.add_argument("series")
        p.add_argument("--trig-tol", type=float, default=TRIG_TOLERANCE,
                       help="relative mu-window routed to the sine family "
                            "(default %(default)s)")
        p.add_argument("--validation-tol", type=float, default=VALIDATION_TOLERANCE,
                       help="relative tolerance for coefficients beyond degree 7 "
                            "(default %(default)s)")

    if p := command("verify-identity", "four-point identity residuals on random quadruples",
                    _cmd_verify_identity):
        p.add_argument("--function", choices=["z", "sin", "sigma"])
        p.add_argument("--series", help="odd series JSON file (overrides --function)")
        add_lattice_options(p)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="RNG seed, an integer >= 0 (default %(default)s)")
        p.add_argument("--box", type=float, default=1.0,
                       help="quadruple radius bound (default %(default)s)")

    if p := command("verify-duplication", "duplication-equation residual coefficients",
                    _cmd_verify_duplication):
        p.add_argument("series")

    if p := command("extend", "extend odd Taylor data by the recurrence", _cmd_extend):
        p.add_argument("series")
        p.add_argument("--target", type=int, required=True, help="target odd degree")

    if p := command("reduce-tau", "fundamental-domain reduction", _cmd_reduce_tau):
        p.add_argument("--tau", required=True)

    if p := command("invert-j", "tau with j(tau) equal to a given value", _cmd_invert_j):
        p.add_argument("--value", required=True, help="target j as re,im")
        p.add_argument("--tolerance", type=float, default=J_TOLERANCE,
                       help="relative residual target (default %(default)s)")

    if p := command("psi", "(n-1)(n-2)(n-3) + 8 - 2^n for odd n >= 5", _cmd_psi):
        p.add_argument("n", type=int)

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "error": {"type": kind, "message": str(exc)}}
    diagnostics = getattr(exc, "diagnostics", None)
    if diagnostics:
        doc["error"]["diagnostics"] = diagnostics
    try:
        emit(doc)
    except NumericError:
        # Diagnostics holding a NaN or infinity cannot be strict JSON.
        del doc["error"]["diagnostics"]
        emit(doc)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv = _attach_negative_values(argv)
        args = build_parser(argv).parse_args(argv)
        emit({"schema_version": SCHEMA_VERSION, "command": args.command, **args.func(args)})
        return EXIT_OK
    except SystemExit as exc:
        # --help and --version print to stdout and exit; rejections
        # arrive as DomainErrors from _Parser.error.
        return EXIT_OK if exc.code in (0, None) else EXIT_DOMAIN
    except NumericError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC
    except DomainError as exc:
        _emit_error("domain", exc)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
