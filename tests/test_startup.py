"""A CLI process loads only the sigmakit modules its command runs.

``import sigmakit`` loads no submodule, each command imports its layers
when it runs, and no module imports ``dataclasses`` (which brings in
``inspect``).  The checks run in a fresh interpreter, since the test
process has every module loaded; they count modules and take no times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmakit

ROOT = Path(__file__).resolve().parent.parent

SINE_DOC = {
    "max_degree": 9,
    "odd_coefficients": [[1, 0], [-1 / 6, 0], [1 / 120, 0], [-1 / 5040, 0],
                         [1 / 362880, 0]],
}

# Runs each command through cli.main and records its exit code, the
# sigmakit modules loaded after it and whether dataclasses was loaded.
PROBE = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return {"modules": sorted(m for m in sys.modules if m.split(".")[0] == "sigmakit"),
            "dataclasses": "dataclasses" in sys.modules}

import sigmakit
out = {"import sigmakit": loaded()}
from sigmakit import cli
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out[" ".join(argv)] = dict(loaded(), exit=code)
out["classify is callable"] = callable(sigmakit.classify)
print(json.dumps(out))
"""

ALL = sorted("""
    Classification ConvergenceError DomainError HatForm IdentityNotSatisfiedError
    IdentityResidual InvariantData Lattice NotInOmegaError NumericError
    OddFunctionHandle ProjectiveValue QuadruplePoint SigmaKitError TauPoint
    TruncatedOddSeries TruncatedSeries UnimodularMap as_tau classify dedekind_eta
    duplication_report duplication_residual duplication_rhs extend_series gauss_twist
    hat_normalize identity_report identity_residual invert_j j_invariant
    lattice_from_rho_tau modular_discriminant modular_pq mu_of_pq multiply
    normalize_lattice pq_of_series psi reduce_tau sample_quadruples scale_argument
    sigma_eval sigma_gauge synthesize theta1_eval theta1_odd_series weierstrass_g
""".split())


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# The README "Start-up" table, one entry per command it names: the sigmakit
# modules that the command loads besides cli and errors.  series is loaded
# only where a command runs series arithmetic or reads a series file.
STARTUP_TABLE = [
    (["psi", "9"], ["identity"]),
    (["verify-identity", "--function", "z", "--samples", "5"], ["identity"]),
    (["verify-identity", "--function", "sin", "--samples", "5"], ["identity"]),
    (["extend", "{series}", "--target", "11"], ["identity", "series"]),
    (["verify-duplication", "{series}"], ["identity", "series"]),
    (["verify-identity", "--series", "{series}", "--samples", "5"], ["identity", "series"]),
    (["verify-identity", "--function", "sigma", "--samples", "5"],
     ["identity", "lattice", "modular"]),
    *((["eval", name, "--z", "0.3,0.1", "--tau", "0.1,1.1"], ["modular"])
      for name in ("theta1", "eta", "g2", "g3", "j")),
    (["eval", "sigma", "--z", "0.3,0.2", "--tau", "0,1"], ["lattice", "modular"]),
    (["reduce-tau", "--tau", "3.7,0.2"], ["lattice", "modular"]),
    (["invert-j", "--value", "1000,2000"], ["lattice", "modular"]),
    (["invariants", "{series}"], ["invariants", "series"]),
    (["classify", "{series}"], ["classify", "invariants", "lattice", "modular", "series"]),
]


def test_each_command_loads_only_its_layers(tmp_path):
    # Each command runs in a fresh interpreter, so it sees no module that
    # another command loaded.
    series = tmp_path / "sine.json"
    series.write_text(json.dumps(SINE_DOC))
    cli = ["sigmakit", "sigmakit.cli", "sigmakit.errors"]
    for argv, modules in STARTUP_TABLE:
        argv = [arg.replace("{series}", str(series)) for arg in argv]
        out = json.loads(run_python("-c", PROBE, json.dumps([argv])))
        assert out.pop("classify is callable") is True
        assert out.pop("import sigmakit") == {"modules": ["sigmakit"], "dataclasses": False}
        assert out == {" ".join(argv): {
            "modules": sorted(cli + [f"sigmakit.{name}" for name in modules]),
            "dataclasses": False, "exit": 0}}


def test_commands_without_series_arithmetic_never_load_series():
    # Run in one process, so each command also sees the modules of those before it.
    commands = [
        ["eval", "theta1", "--z", "0.3,0.1", "--tau", "0.1,1.1"],
        ["eval", "eta", "--tau", "0,1"],
        ["eval", "j", "--tau", "0,1"],
        ["eval", "g2", "--tau", "0.2,0.4"],
        ["eval", "sigma", "--z", "0.3,0.2", "--tau", "0,1"],
        ["reduce-tau", "--tau", "3.7,0.2"],
        ["invert-j", "--value", "1000,2000"],
        ["psi", "9"],
        ["verify-identity", "--function", "z", "--samples", "5"],
        ["verify-identity", "--function", "sin", "--samples", "5"],
        ["verify-identity", "--function", "sigma", "--samples", "5"],
    ]
    out = json.loads(run_python("-c", PROBE, json.dumps(commands)))
    last = out[" ".join(commands[-1])]
    assert [out[" ".join(argv)]["exit"] for argv in commands] == [0] * len(commands)
    assert "sigmakit.series" not in last["modules"]
    assert {"sigmakit.lattice", "sigmakit.modular", "sigmakit.identity"} <= set(last["modules"])


def test_classify_stays_the_function_after_importing_its_module():
    code = ("import sigmakit.classify, sys; import sigmakit; "
            "print(callable(sigmakit.classify), "
            "sigmakit.classify is sys.modules['sigmakit.classify'].classify)")
    assert run_python("-c", code).split() == ["True", "True"]


def test_submodule_is_an_attribute_without_its_import():
    code = "import sigmakit; print(sigmakit.lattice.__name__, sigmakit.errors.__name__)"
    assert run_python("-c", code).split() == ["sigmakit.lattice", "sigmakit.errors"]


def test_package_surface():
    assert sigmakit.__all__ == ALL
    namespace = {}
    exec("from sigmakit import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ALL
    # Each resolved name is bound in the package, where lookups are plain.
    assert all(vars(sigmakit)[name] is namespace[name] for name in ALL)
    assert callable(sigmakit.classify)
    assert set(ALL) <= set(dir(sigmakit))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sigmakit.no_such_name
