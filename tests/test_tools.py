"""tools/size.py, which counts the library's lines and tokens."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "size.py"


def _size_tool():
    spec = importlib.util.spec_from_file_location("size_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_prints_deltas_against_a_base(tmp_path, capsys):
    # A module on one side only counts 0 on the other; docstring lines and
    # comments carry no tokens.
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    (old / "a.py").write_text('"""Doc."""\nx = 1\n')
    (new / "a.py").write_text('"""Doc."""\nx = 1\ny = x + 2  # comment\n')
    (new / "b.py").write_text("z = 3\n")
    (old / "c.py").write_text("w = 4\n\n")
    _size_tool().main([str(new), str(old)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", "tokens", "+lines", "+tokens"]
    assert {line.split()[0]: line.split()[1:] for line in lines[1:]} == {
        "a.py": ["3", "8", "+1", "+5"],
        "b.py": ["1", "3", "+1", "+3"],
        "c.py": ["0", "0", "-2", "-3"],
        "total": ["4", "11", "+0", "+5"],
    }


def test_size_without_a_base_prints_counts_only(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    _size_tool().main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{'a.py':<16}{1:>8}{3:>9}", f"{'total':<16}{1:>8}{3:>9}"]
