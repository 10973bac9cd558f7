"""Rules on the library's source that the other tests cannot see."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sigmakit").glob("*.py"))


def test_sources_are_found():
    assert {"modular.py", "lattice.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O drops assert statements, so no check may rest on one.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _unbounded_caches(tree):
    """Line numbers of functools.cache, lru_cache(maxsize=None) and cached_property."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names
                      if alias.name in ("cache", "cached_property")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functools" and node.attr in ("cache", "cached_property")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "lru_cache":
                continue
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if any(isinstance(size, ast.Constant) and size.value is None for size in sizes):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unbounded_caches(path):
    # A memo must have a bound, and functools.cached_property takes a lock
    # on every first access on Python 3.11.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _unbounded_caches(tree)
    assert lines == [], f"{path.name} has an unbounded cache or cached_property at lines {lines}"


@pytest.mark.parametrize("source", [
    "from functools import cache",
    "from functools import cached_property",
    "import functools\n@functools.cache\ndef f(): pass",
    "import functools\nx = functools.cached_property(len)",
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
    "import functools\n@functools.lru_cache(None)\ndef f(): pass",
])
def test_unbounded_cache_rule_catches(source):
    assert _unbounded_caches(ast.parse(source)) != []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache(maxsize=16)\ndef f(): pass",
    "from functools import lru_cache\n@lru_cache\ndef f(): pass",
])
def test_unbounded_cache_rule_allows_bounded(source):
    assert _unbounded_caches(ast.parse(source)) == []


def _memo_sites(tree):
    """Names below tree bound to an lru_cache: decorated functions and assignment targets."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites += [node.name for d in node.decorator_list if "lru_cache" in ast.unparse(d)]
        elif isinstance(node, ast.Assign) and "lru_cache" in ast.unparse(node.value):
            sites += [ast.unparse(target) for target in node.targets]
    return sites


def test_no_memo_keeps_tau_results():
    # Each TauPoint keeps its own q-series record, so no value-keyed memo of
    # tau results may return beside it.
    sites = {f"{path.stem}.{name}" for path in SOURCES
             for name in _memo_sites(ast.parse(path.read_text(encoding="utf-8")))}
    assert sites == set()


@pytest.mark.parametrize("source, found", [
    ("@lru_cache(maxsize=16)\ndef _theta1_sum(t): pass", ["_theta1_sum"]),
    ("@functools.lru_cache\ndef f(t): pass", ["f"]),
    ("_forms = lru_cache(maxsize=16)(forms)", ["_forms"]),
    ("def f(t): pass", []),
])
def test_memo_rule(source, found):
    assert _memo_sites(ast.parse(source)) == found


def test_the_identity_arguments_are_written_once():
    # The survey's batches and identity_residual must share one formula
    # for the twelve arguments, so that the two cannot drift apart.
    count = sum(path.read_text(encoding="utf-8").count("(-x + y + z + w) / 2") for path in SOURCES)
    assert count == 1


def test_identity_evaluates_handles_at_two_sites():
    # The oddness probes and the residual routine are the only calls of a
    # handle's batch evaluator, so that a second survey path cannot return.
    path = next(path for path in SOURCES if path.name == "identity.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = sorted(
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_evaluate_many"
    )
    assert sites == ["__init__", "_residuals"]


def _functions_taking(tree, parameter):
    """Names of the functions and lambdas below tree with a parameter so named."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if any(a is not None and a.arg == parameter for a in params):
                names.append(getattr(node, "name", "<lambda>"))
    return names


def _functions_taking_in_sources(parameter):
    return [f"{path.stem}.{name}" for path in SOURCES
            for name in _functions_taking(ast.parse(path.read_text(encoding="utf-8")), parameter)]


def test_tau_from_invariants_has_one_route():
    # classify and invert_j are the only calls of the AGM route, and no
    # function takes an iteration cap, so that a second inversion route
    # (such as a Newton loop on j) cannot return unseen.
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "_lattice_from_g"]
    assert sorted(sites) == ["classify.classify", "lattice.invert_j"]
    assert _functions_taking_in_sources("max_iterations") == []


def test_no_function_takes_a_term_cap():
    # errors.TERM_CAP is the one cap on every q-series and product, judged
    # at tau as given, so that a cap chosen by the caller, and the memo
    # keys and second sigma path it needs, cannot return unseen.
    assert _functions_taking_in_sources("term_cap") == []


@pytest.mark.parametrize("source", [
    "def theta1_eval(z, tau, *, term_cap=200): pass",
    "def _term_count(height, term_cap, degree): pass",
    "def f(term_cap, /): pass",
    "async def f(**term_cap): pass",
    "class Lattice:\n    def sigma(self, z, term_cap=200): pass",
    "g = lambda tau, term_cap=200: tau",
])
def test_term_cap_rule_catches(source):
    assert _functions_taking(ast.parse(source), "term_cap") != []


def test_term_cap_rule_allows_the_constant():
    source = "def _table_size(t, what, degree):\n    return min(degree, TERM_CAP)"
    assert _functions_taking(ast.parse(source), "term_cap") == []


# The generic series steps that the one twisted-sine recurrence replaces.
SERIES_STEPS = ("gauss_twist", "scale_argument", "theta1_odd_series", "sigma_gauge_from_head")


def _called_names(node):
    return [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def _synthesis_sites(tree, name="_synthesize"):
    """(calls of _twisted_sines in the simple top-level statements of the function
    so named, its calls anywhere else in it, the SERIES_STEPS that it calls)."""
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    total = _called_names(func).count("_twisted_sines")
    after = sum(_called_names(stmt).count("_twisted_sines") for stmt in func.body
                if isinstance(stmt, (ast.Return, ast.Assign, ast.Expr)))
    return after, total - after, sorted(set(_called_names(func)) & set(SERIES_STEPS))


def test_each_family_member_is_built_in_one_place():
    # classify builds its one Classification and _synthesize runs its one
    # twisted-sine recurrence after the family branches, so that each family
    # adds only its own terms and cannot grow a second construction of the
    # result, nor return to an O(K^2) twist of a scaled base series.
    # synthesize and classify's tail check reach the recurrence through it.
    path = next(path for path in SOURCES if path.name == "classify.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = {func.name: _called_names(func) for func in tree.body
             if isinstance(func, ast.FunctionDef)}
    assert calls["classify"].count("Classification") == 1
    assert _synthesis_sites(tree) == (1, 0, [])
    for name in ("synthesize", "_validate_tail"):
        assert "_twisted_sines" not in calls[name] and calls[name].count("_synthesize") == 1


@pytest.mark.parametrize("source, found", [
    ("def synthesize(c, d):\n    return gauss_twist(base, c.alpha, c.beta)",
     (0, 0, ["gauss_twist"])),
    ("def synthesize(c, d):\n    if c.case == 'trig':\n        return _twisted_sines(t, 0, 0, 1)\n"
     "    return _twisted_sines(u, 0, 0, 1)", (1, 1, [])),
    ("def synthesize(c, d):\n    s = series.scale_argument(x, c.a)\n"
     "    return _twisted_sines(t, 0, 0, 1)", (1, 0, ["scale_argument"])),
    ("def synthesize(c, d):\n    if c.rho:\n        th = theta1_odd_series(c.tau, d)\n"
     "        g = sigma_gauge_from_head(*th.odd_coefficients[:2], c.rho)\n"
     "    return _twisted_sines(t, 0, 0, 1)", (1, 0, ["sigma_gauge_from_head", "theta1_odd_series"])),
    ("def synthesize(c, d):\n    out = _twisted_sines(t, 0, 0, 1)\n"
     "    return _twisted_sines(out, 0, 0, 1)", (2, 0, [])),
])
def test_synthesis_rule_catches(source, found):
    assert _synthesis_sites(ast.parse(source), "synthesize") == found


def test_synthesis_rule_allows_one_kernel_after_the_branches():
    source = ("def synthesize(c, d):\n    terms = [(1.0, 0.0)]\n    if c.case == 'elliptic':\n"
              "        kappa, _, scale = lattice_from_rho_tau(c.rho, c.tau).gauge\n"
              "    return _twisted_sines(terms, c.alpha, c.beta, 1)")
    assert _synthesis_sites(ast.parse(source), "synthesize") == (1, 0, [])


def _complex_pairs(tree):
    """Line numbers of [x.real, x.imag] lists and of calls of a function named cpair."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.List) and len(node.elts) == 2
                and all(isinstance(e, ast.Attribute) for e in node.elts)
                and [e.attr for e in node.elts] == ["real", "imag"]):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cpair":
            lines.append(node.lineno)
    return lines


def test_the_json_form_of_a_complex_number_is_written_once():
    # errors.json_ready is the one place a complex number becomes [re, im],
    # so that diagnostics, records and CLI documents cannot drift apart.
    sites = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        sites += [f"{path.stem}:{line}" for line in _complex_pairs(tree)]
        assert "cpair" not in text, path.name
    assert len(sites) == 1 and sites[0].startswith("errors:"), sites


@pytest.mark.parametrize("source", [
    "doc = {'z': [z.real, z.imag]}",
    "pairs = [[c.real, c.imag] for c in coeffs]",
    "doc = {'tau': [lat.tau.value.real, lat.tau.value.imag]}",
    "doc = {'z': cpair(z)}",
])
def test_complex_pair_rule_catches(source):
    assert _complex_pairs(ast.parse(source)) != []


def _named_nodes(tree, name="<module>"):
    """(innermost enclosing function's name, node) for every node below tree."""
    for child in ast.iter_child_nodes(tree):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
        yield inner, child
        yield from _named_nodes(child, inner)


SERIES_CLASSES = ("TruncatedSeries", "TruncatedOddSeries")


def _kernel_sites(tree):
    """Functions that name fsum, and functions that build a series unvalidated:
    by ``__new__`` of a series class or by storing to a coefficient tuple."""
    fsum, unvalidated = set(), set()
    for name, node in _named_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fsum"
                or isinstance(node, ast.Name) and node.id == "fsum"
                or isinstance(node, ast.alias) and node.name == "fsum"):
            fsum.add(name)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__"
              and any(getattr(arg, "id", None) in SERIES_CLASSES for arg in node.args)
              or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in ("coefficients", "odd_coefficients")):
            unvalidated.add(name)
    return fsum, unvalidated


def test_one_series_product_and_one_unvalidated_construction():
    # math.fsum runs only in the one product kernel, and only _computed
    # builds a series without the constructor's validation (the two
    # constructors store what _as_coefficients returns), so that neither a
    # second product nor a second trusted path can appear unseen.
    fsum, unvalidated = set(), set()
    for path in SOURCES:
        found = _kernel_sites(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        fsum |= {f"{path.stem}.{name}" for name in found[0]}
        unvalidated |= {f"{path.stem}.{name}" for name in found[1]}
    assert fsum == {"series._cauchy"}
    assert unvalidated == {"series.__init__", "series._computed"}


@pytest.mark.parametrize("source, found", [
    ("def f(xs):\n    return math.fsum(xs)", ({"f"}, set())),
    ("from math import fsum", ({"<module>"}, set())),
    ("def g(c):\n    s = object.__new__(TruncatedOddSeries)", (set(), {"g"})),
    ("def h(s, c):\n    s.odd_coefficients = c", (set(), {"h"})),
    ("def k(s):\n    return s.odd_coefficients", (set(), set())),
    ("def __new__(cls, x):\n    return super().__new__(cls, x)", (set(), set())),
])
def test_kernel_site_rule_catches(source, found):
    assert _kernel_sites(ast.parse(source)) == found


def _is_head_slice(node):
    """Whether node is ``<expr>.odd_coefficients[:4]``, the degree-7 head."""
    return (isinstance(node, ast.Subscript)
            and getattr(node.value, "attr", None) == "odd_coefficients"
            and isinstance(node.slice, ast.Slice)
            and node.slice.lower is None and node.slice.step is None
            and isinstance(node.slice.upper, ast.Constant) and node.slice.upper.value == 4)


def _hat_calls_of_the_invariants(tree):
    """(count, lines not handed the head) of hat_normalize calls in _invariants_and_hat."""
    count, whole = 0, []
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name == "_invariants_and_hat"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hat_normalize":
                count += 1
                if not any(_is_head_slice(sub) for arg in node.args for sub in ast.walk(arg)):
                    whole.append(node.lineno)
    return count, whole


def test_the_invariants_twist_only_the_degree_seven_head():
    # p, q and mu read a1..a7 alone, so twisting the whole series would
    # spend an O(K^2) product on coefficients that classify checks once,
    # against synthesize.
    path = next(path for path in SOURCES if path.name == "invariants.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _hat_calls_of_the_invariants(tree) == (1, [])


@pytest.mark.parametrize("body", [
    "hat = hat_normalize(s)",
    "hat = hat_normalize(_computed(s.odd_coefficients, 'h'))",
    "hat = hat_normalize(_computed(s.odd_coefficients[:5], 'h'))",
    "hat = hat_normalize(_computed(s.odd_coefficients[1:4], 'h'))",
    "head = s.odd_coefficients[:4]\n    hat = hat_normalize(s)",
])
def test_head_rule_catches(body):
    source = f"def _invariants_and_hat(s):\n    {body}"
    assert _hat_calls_of_the_invariants(ast.parse(source))[1] != []


def test_head_rule_allows_the_head():
    source = ("def _invariants_and_hat(s):\n"
              "    hat = hat_normalize(_computed(s.odd_coefficients[:4], 'the degree-7 head'))")
    assert _hat_calls_of_the_invariants(ast.parse(source)) == (1, [])


RECORDS = ("TauPoint", "UnimodularMap")


def _calls(tree, scope=(), owner=None):
    """(name of the function with its classes, innermost class, call) for
    every call below tree."""
    for child in ast.iter_child_nodes(tree):
        inner, inner_owner = scope, owner
        if isinstance(child, ast.ClassDef):
            inner, inner_owner = scope + (child.name,), child.name
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            yield ".".join(scope) or "<module>", owner, child
        yield from _calls(child, inner, inner_owner)


def _unchecked_record_sites(tree):
    """Functions below tree that build a TauPoint or a UnimodularMap without
    its constructor's checks: by ``__new__`` on the class (on ``cls`` inside
    it), by ``_make``, or by a ``_replace``."""
    sites = set()
    for name, owner, call in _calls(tree):
        attr = getattr(call.func, "attr", None)
        first = getattr(call.args[0], "id", None) if call.args else None
        if (attr == "__new__" and first in RECORDS + (("cls",) if owner in RECORDS else ())
                or attr == "_make" and getattr(call.func.value, "id", None) in RECORDS
                or attr == "_replace"):
            sites.add(name)
    return sites


def _callers(tree, function):
    """Functions below tree that call the function so named."""
    return {name for name, _, call in _calls(tree) if getattr(call.func, "id", None) == function}


def test_each_record_has_one_trusted_construction():
    # TauPoint and UnimodularMap are checked in their constructors, and
    # TauPoint's hands its checked value to modular._tau_point.  Besides,
    # only the end of the reduction, lattice._reduce, builds one unchecked,
    # where the folds have proven the values valid, and only reduce_tau and
    # normalize_lattice, after checking their input, enter the reduction; so
    # no second unchecked path can appear unseen.
    sites, callers, entries = set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites |= {f"{path.stem}.{name}" for name in _unchecked_record_sites(tree)}
        callers |= {f"{path.stem}.{name}" for name in _callers(tree, "_tau_point")}
        entries |= {f"{path.stem}.{name}" for name in _callers(tree, "_reduce")}
    assert sites == {"modular._tau_point", "lattice.UnimodularMap.__new__", "lattice._reduce"}
    assert callers == {"modular.TauPoint.__new__", "lattice._reduce"}
    assert entries == {"lattice.reduce_tau", "lattice.normalize_lattice"}


@pytest.mark.parametrize("source, found", [
    ("def f(v):\n    return tuple.__new__(TauPoint, (v,))", {"f"}),
    ("def g(v):\n    return object.__new__(TauPoint)", {"g"}),
    ("def h(m):\n    return UnimodularMap._make(m)", {"h"}),
    ("def k(t):\n    return t._replace(value=2j)", {"k"}),
    ("x = tuple.__new__(UnimodularMap, (1, 0, 0, 1))", {"<module>"}),
    ("class TauPoint(tuple):\n    def __new__(cls, v):\n        return tuple.__new__(cls, (v,))",
     {"TauPoint.__new__"}),
    ("class UnimodularMap(tuple):\n    def __new__(cls, *m):\n"
     "        return super().__new__(cls, m)", {"UnimodularMap.__new__"}),
    ("def f(v):\n    return TauPoint(v)", set()),
    ("def f(v):\n    return tuple.__new__(Lattice, v)", set()),
    ("class Lattice(tuple):\n    def __new__(cls, *fields):\n"
     "        return tuple.__new__(cls, fields)", set()),
])
def test_unchecked_record_rule(source, found):
    assert _unchecked_record_sites(ast.parse(source)) == found


def _theta1_kernel_sites(tree):
    """Functions below tree that name cmath's sin or reduce an argument into the
    cell by round(<... .imag ...>)."""
    sites = set()
    for name, node in _named_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "sin"
                and getattr(node.value, "id", None) == "cmath"
                or isinstance(node, ast.ImportFrom) and node.module == "cmath"
                and any(alias.name == "sin" for alias in node.names)
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "round"
                and any(isinstance(sub, ast.Attribute) and sub.attr == "imag"
                        for arg in node.args for sub in ast.walk(arg))):
            sites.add(name)
    return sites


def _theta1_calls(tree, scope=()):
    """(function with its classes, name) for every call below tree of a function
    named for theta1, and every attribute so named that it reads (as a TauPoint's
    record ``tau._theta1``)."""
    uses = set()
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call) and "theta1" in getattr(child.func, "id", ""):
            uses.add((".".join(scope) or "<module>", child.func.id))
        elif isinstance(child, ast.Attribute) and "theta1" in child.attr:
            uses.add((".".join(scope) or "<module>", child.attr))
        uses |= _theta1_calls(child, inner)
    return uses


def test_theta1_is_summed_in_one_kernel():
    # cmath.sin and the cell reduction appear in modular._theta1_values alone,
    # and lattice.py reaches theta1 only through it and, in the gauge alone,
    # the degree-1 sum in the record of tau, so that a second kernel (such as
    # Horner's rule for sigma alone, with theta1 left on the recurrence) cannot
    # return unseen.
    sites, lattice_calls = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name in ("modular.py", "lattice.py"):
            sites |= {f"{path.stem}.{name}" for name in _theta1_kernel_sites(tree)}
        if path.name == "lattice.py":
            lattice_calls = _theta1_calls(tree)
    assert sites == {"modular._theta1_values"}
    assert lattice_calls == {("Lattice.gauge", "_theta1"), ("_sigma_values", "_theta1_values")}


@pytest.mark.parametrize("source, found", [
    ("def f(w):\n    return cmath.sin(w)", {"f"}),
    ("from cmath import sin", {"<module>"}),
    ("def g(w, v):\n    n = round(w.imag / v)", {"g"}),
    ("def h(zs, t):\n    sin = cmath.sin\n    return [sin(z) for z in zs]", {"h"}),
])
def test_theta1_kernel_rule_catches(source, found):
    assert _theta1_kernel_sites(ast.parse(source)) == found


def test_theta1_kernel_rule_catches_a_second_kernel_call():
    source = ("def _sigma_values(zs, lat):\n"
              "    return [theta1_eval(z / lat.rho, lat.tau) for z in zs]")
    assert _theta1_calls(ast.parse(source)) == {("_sigma_values", "theta1_eval")}


@pytest.mark.parametrize("source, found", [
    ("def _sigma_values(zs, lat):\n    terms = lat.tau._theta1[0]",
     {("_sigma_values", "_theta1")}),
    ("class Lattice:\n    def table(self):\n        return modular._theta1_table(self.tau, 1)",
     {("Lattice.table", "_theta1_table")}),
])
def test_theta1_kernel_rule_catches_a_second_read_of_the_record(source, found):
    assert _theta1_calls(ast.parse(source)) == found


@pytest.mark.parametrize("source", [
    "def f(t):\n    n = round(t.real)",
    "def f(w):\n    return math.sin(w)",
    "def f(zs):\n    return cmath.exp(zs)",
])
def test_theta1_kernel_rule_allows(source):
    assert _theta1_kernel_sites(ast.parse(source)) == set()


def _theta_constant_sites(tree, scope=()):
    """(functions below tree, with their classes, that call a function named
    _theta_constants, those that read an attribute named _forms, the
    TauPoint's record of that pass)."""
    callers, readers = set(), set()
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call) and "_theta_constants" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)):
            callers.add(".".join(scope) or "<module>")
        elif isinstance(child, ast.Attribute) and child.attr == "_forms":
            readers.add(".".join(scope) or "<module>")
        found = _theta_constant_sites(child, inner)
        callers, readers = callers | found[0], readers | found[1]
    return callers, readers


def test_the_theta_constants_are_summed_for_the_record_alone():
    # The theta-constant pass runs only to build a TauPoint's forms, and again
    # at -1/(tau - n) in its own inversion branch; eta, g2, g3, the
    # discriminant, j and (p, q) read it from the record, so that no kernel
    # (such as a second eta route) sums the constants again at one tau.
    callers, readers = set(), set()
    for path in SOURCES:
        found = _theta_constant_sites(ast.parse(path.read_text(encoding="utf-8")))
        callers |= {f"{path.stem}.{name}" for name in found[0]}
        readers |= {f"{path.stem}.{name}" for name in found[1]}
    assert callers == {"modular.TauPoint._forms", "modular._theta_constants"}
    assert readers == {f"modular.{name}" for name in (
        "dedekind_eta", "weierstrass_g", "modular_discriminant", "j_invariant", "modular_pq")}


@pytest.mark.parametrize("source, found", [
    ("def dedekind_eta(tau):\n    th2, th3, th4 = _theta_constants(tau)",
     ({"dedekind_eta"}, set())),
    ("def f(tau):\n    return modular._theta_constants(as_tau(tau))", ({"f"}, set())),
    ("class TauPoint:\n    def _forms(self):\n        return _theta_constants(self)",
     ({"TauPoint._forms"}, set())),
    ("def dedekind_eta(tau):\n    return tau._forms[2] ** (1 / 3)", (set(), {"dedekind_eta"})),
    ("x = _theta_constants(TauPoint(1j))", ({"<module>"}, set())),
    ("def f(tau):\n    return tau._head[2]", (set(), set())),
])
def test_theta_constant_rule(source, found):
    assert _theta_constant_sites(ast.parse(source)) == found
