"""Property test of the CLI: every argv gets one strict JSON document.

Whatever the arguments, ``sigmakit`` must exit 0, 1 or 2 and print exactly
one JSON document without NaN or Infinity, and the same arguments must
print the same bytes again.  The inputs reach the edges of the double
range: subnormals, values near 1.8e308, infinities and NaN.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sigmakit.cli import main  # noqa: E402

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def pair(re, im):
    return f"{re!r},{im!r}"


# Moderate values reach the computations, any double reaches the range checks.
moderate = st.floats(-3, 3)
edges = st.one_of(st.floats(), st.sampled_from([0.0, 5e-324, 1e-200, 1e200, 1.7e308, -1.7e308]))
reals = st.one_of(moderate, edges)
complexes = st.one_of(st.builds(pair, moderate, moderate), st.builds(pair, reals, reals),
                      st.builds(repr, reals))
upper = st.one_of(st.builds(pair, moderate, st.floats(0.01, 4)), complexes)

lattice_options = st.one_of(
    st.fixed_dictionaries({"--tau": upper}, optional={"--rho": complexes}),
    st.fixed_dictionaries({"--omega1": complexes, "--omega2": complexes}),
    st.fixed_dictionaries({}, optional={"--tau": upper, "--rho": complexes,
                                        "--omega1": complexes, "--omega2": complexes}),
).map(lambda options: [token for option in options.items() for token in option])

eval_argv = st.builds(
    lambda function, z, lattice, cap: ["eval", function, *z, *lattice, *cap],
    st.sampled_from(["theta1", "eta", "g2", "g3", "j", "sigma"]),
    st.one_of(complexes.map(lambda z: ["--z", z]), st.just([])),
    lattice_options,
    st.one_of(st.just([]), st.integers(-1, 300).map(lambda n: ["--term-cap", str(n)])),
)
invert_j_argv = st.builds(
    lambda value, tol: ["invert-j", "--value", value, *tol],
    complexes,
    st.one_of(st.just([]), reals.map(lambda t: ["--tolerance", repr(t)])),
)
reduce_tau_argv = upper.map(lambda tau: ["reduce-tau", "--tau", tau])
identity_options = st.builds(
    lambda samples, seed, box: ["--samples", str(samples), "--seed", str(seed), "--box", repr(box)],
    st.integers(-1, 130),
    st.integers(-1, 2**70),
    st.one_of(st.floats(0.01, 3), reals),
)
identity_argv = st.builds(
    lambda function, lattice, options: ["verify-identity", "--function", function,
                                        *lattice, *options],
    st.sampled_from(["z", "sin", "sigma"]),
    lattice_options,
    identity_options,
)


def series_doc(coefficients, edge, skew):
    """An odd series document; edge, if given, puts one extreme value in the
    coefficients, counted from the top degree, and a nonzero skew mismatches
    the degree."""
    if edge is not None:
        index, value = edge
        coefficients[-1 - index % len(coefficients)][index % 2] = value
    return {"max_degree": 2 * len(coefficients) - 1 + skew, "odd_coefficients": coefficients}


def sine_coefficients(size, a, b):
    """a*sin(b*z) through degree 2*size - 1, which ``classify`` accepts."""
    z = complex(a) * complex(b)
    out = []
    for k in range(size):
        out.append([z.real, z.imag])
        z *= -complex(b) ** 2 / ((2 * k + 2) * (2 * k + 3))
    return out


series_docs = st.builds(
    series_doc,
    st.one_of(
        st.lists(st.lists(moderate, min_size=2, max_size=2), min_size=1, max_size=8),
        st.builds(sine_coefficients, st.integers(1, 8), moderate, moderate),
    ),
    st.one_of(st.none(), st.tuples(st.integers(0, 15), edges)),
    st.sampled_from([0, 0, 0, 0, 2, -2, 1]),
)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def call(argv):
    """(exit code, stdout) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def check(argv):
    code, out = call(argv)
    assert code in (0, 1, 2), argv
    # json.loads rejects trailing data, so this is exactly one document.
    doc = json.loads(out, parse_constant=_reject_constant)
    kind = {0: None, 1: "domain", 2: "numeric"}[code]
    assert (doc["error"]["type"] if "error" in doc else None) == kind, argv
    assert call(argv) == (code, out), argv


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "series.json"


@FUZZ
@given(st.one_of(eval_argv, invert_j_argv, reduce_tau_argv, identity_argv))
def test_argv_commands(argv):
    check(argv)


@pytest.mark.parametrize("command", ["invariants", "classify", "verify-duplication", "extend",
                                     "verify-identity"])
@settings(FUZZ, max_examples=50)
@given(doc=series_docs, step=st.integers(-1, 6), options=identity_options)
def test_series_commands(series_path, command, doc, step, options):
    series_path.write_text(json.dumps(doc))
    path = str(series_path)
    if command == "extend":
        check(["extend", path, "--target", str(doc["max_degree"] + step)])
    elif command == "verify-identity":
        check(["verify-identity", "--series", path, *options])
    else:
        check([command, path])
