"""sigmakit and every CLI command run without NumPy.

The survey samples come from a pure-Python PCG64 that reproduces NumPy's
draw, so verify-identity and ``sample_quadruples`` load no NumPy either.
The check runs in a fresh interpreter, since the test process itself has
NumPy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SINE_DOC = {
    "max_degree": 9,
    "odd_coefficients": [[1, 0], [-1 / 6, 0], [1 / 120, 0], [-1 / 5040, 0],
                         [1 / 362880, 0]],
}

# Runs each command through cli.main and records its exit code and
# whether NumPy was loaded after it; a library draw of samples goes last.
PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import sigmakit
loaded = {"import sigmakit": "numpy" in sys.modules}
from sigmakit import cli
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[" ".join(argv)] = [code, "numpy" in sys.modules]
sigmakit.sample_quadruples(16, 1729)
loaded["sample_quadruples"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def run_probe(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_library_and_cli_commands_do_not_import_numpy(tmp_path):
    series = tmp_path / "sine.json"
    series.write_text(json.dumps(SINE_DOC))
    commands = [
        ["psi", "9"],
        ["eval", "j", "--tau", "0,1"],
        ["eval", "sigma", "--z", "0.3,0.2", "--omega1", "1,0", "--omega2", "0,1"],
        ["invariants", str(series)],
        ["classify", str(series)],
        ["verify-duplication", str(series)],
        ["extend", str(series), "--target", "15"],
        ["reduce-tau", "--tau", "5,1"],
        ["invert-j", "--value", "-100,0"],
        ["verify-identity", "--function", "z", "--samples", "5"],
        ["verify-identity", "--function", "sin", "--samples", "5"],
        ["verify-identity", "--function", "sigma", "--samples", "5"],
        ["verify-identity", "--series", str(series), "--samples", "5"],
    ]
    loaded = run_probe(commands)
    assert loaded.pop("import sigmakit") is False
    assert loaded.pop("sample_quadruples") is False
    assert loaded == {" ".join(argv): [0, False] for argv in commands}

