"""The public surface: the names `vvmf` exports and the entry points that
perfbench's tracer wraps; no module of `vvmf` imports a name it never uses;
the value types are immutable through one base class; primality is never
tested through euler_phi; and each job below has one home."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

import vvmf
from vvmf import AholForm, CycNum, DeltaCoset, Matrix, QExp, Rep, Subspace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_public_names_resolve_to_distinct_objects():
    # one name per job: an alias is a second public name for an object, which
    # keeps the name it was defined under (VVForm = AholForm.holomorphic is
    # "holomorphic", Rational = Fraction is "Fraction")
    seen = {}
    for name in vvmf.__all__:
        obj = getattr(vvmf, name)
        assert id(obj) not in seen, f"{name} is {seen[id(obj)]}"
        assert obj.__name__ == name
        seen[id(obj)] = name


def test_traced_entry_points_resolve():
    # the traced perfbench run reports an entry point it cannot find as
    # "# trace.missing:" and CI fails on it; resolve them as the tracer does
    tracer = runpy.run_path(str(TRACER))
    missing = []
    for modname, qualname, _ in tracer["ENTRY_POINTS"]:
        owner, _, attr = qualname.rpartition(".")
        mod = importlib.import_module(f"vvmf.{modname}")
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or not callable(vars(holder).get(attr)):
            missing.append(f"{modname}.{qualname}")
    assert missing == []


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, `from __future__` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, os.path as p\n"
              "from math import gcd, lcm\nlcm(os.sep)\n")
    assert unused_imports(source) == [(2, "p"), (3, "gcd")]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so only the other modules are checked
    found = {path.name: unused for path in sorted(Path(vvmf.__file__).parent.glob("*.py"))
             if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))}
    assert found == {}


_ONE = Matrix.identity(1)
_TRIV = Rep("triv", 1, _ONE, _ONE)
_VALUES = [CycNum.one(), QExp.zero(1), _ONE, Subspace.from_rows(1, [[1]]),
           AholForm.holomorphic(4, _TRIV, [QExp.zero(1)]), _TRIV, DeltaCoset(1, [[1, 0], [0, 1]], 1)]


@pytest.mark.parametrize("value", _VALUES, ids=lambda value: type(value).__name__)
def test_value_types_refuse_attribute_writes(value):
    # Rep.key and the lru_cache tables of types and forms hash these objects,
    # so a write after construction would corrupt them
    for name in (value.__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)


def setattr_defs_and_phi_primality_tests(source: str) -> tuple:
    """(the lines of each `def __setattr__`, the lines of each primality test
    written `euler_phi(p) == p - 1`)."""
    setattrs, phi_tests = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
            setattrs.append(node.lineno)
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and getattr(node.left.func, "id", None) == "euler_phi"
              and isinstance(node.ops[0], ast.Eq)
              and isinstance(node.comparators[0], ast.BinOp)
              and isinstance(node.comparators[0].op, ast.Sub)):
            phi_tests.append(node.lineno)
    return setattrs, phi_tests


def test_setattr_and_phi_primality_lint_finds_both():
    source = ("class A:\n    def __setattr__(self, k, v):\n        pass\n"
              "prime = euler_phi(p) == p - 1\nsame = euler_phi(p) == q\n")
    assert setattr_defs_and_phi_primality_tests(source) == ([2], [4])


def test_one_setattr_and_no_primality_test_by_euler_phi():
    # one immutability rule, Immutable.__setattr__ in exactnum, and the primes
    # of n come from exactnum.prime_divisors
    setattrs, phi_tests = {}, {}
    for path in sorted(Path(vvmf.__file__).parent.glob("*.py")):
        setattrs[path.name], phi_tests[path.name] = setattr_defs_and_phi_primality_tests(
            path.read_text())
    assert {name: len(lines) for name, lines in setattrs.items() if lines} == {"exactnum.py": 1}
    assert {name: lines for name, lines in phi_tests.items() if lines} == {}


def _own_nodes(scope):
    """The nodes of a module or function body, leaving out nested functions and classes."""
    todo = list(scope.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def one_home_jobs(source: str) -> dict:
    """Per job, the sorted names of the functions ("<module>" for top-level
    code) that do it: "power", a square-and-multiply (it squares by x * x and
    halves the exponent by >> 1); "term filter", a comprehension that keeps
    n * step < bound; "span reader", a read of a span manifest's "grades"
    (obj["grades"] or obj.get("grades")); "conductor indicator", a packed 0/1
    indicator (a slot set to 1 at n * width, or a shift 1 << n * width of two
    names); "sum renderer", comparisons with both 1 and -1 (as numbers or as
    the strings "1" and "-1"); "pack cache", a `_pack(...)` call assigned to a
    subscript; "fixture", a decorated def reg; and three jobs whose home is
    elsewhere: "hand lcm", a product floor-divided by a gcd call (a * b //
    math.gcd(a, b), whose home is math.lcm); "termwise comparison", == or !=
    between two .terms.get(...) calls (series compare by subtraction, in
    QExp.agrees_with); "row reduction", v[j] = v[j] - f * y (the one
    elimination is linalg._eliminate)."""
    found = {"power": set(), "term filter": set(), "span reader": set(),
             "conductor indicator": set(), "sum renderer": set(), "pack cache": set(),
             "fixture": set(), "hand lcm": set(), "termwise comparison": set(),
             "row reduction": set()}
    tree = ast.parse(source)
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        name = getattr(scope, "name", "<module>")
        nodes = list(_own_nodes(scope))
        signs = {_sign(x) for n in nodes if isinstance(n, ast.Compare)
                 for x in (n.left, *n.comparators)}
        if {1, -1} <= signs:
            found["sum renderer"].add(name)
        squares = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                      and ast.dump(n.left) == ast.dump(n.right) for n in nodes)
        if squares and any(isinstance(n, (ast.BinOp, ast.AugAssign))
                           and isinstance(n.op, ast.RShift) for n in nodes):
            found["power"].add(name)
        for n in nodes:
            if isinstance(n, ast.comprehension) and any(
                    isinstance(t, ast.Compare) and isinstance(t.ops[0], ast.Lt)
                    and isinstance(t.left, ast.BinOp) and isinstance(t.left.op, ast.Mult)
                    for t in n.ifs):
                found["term filter"].add(name)
            key = (n.slice if isinstance(n, ast.Subscript) else
                   n.args[0] if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "get"
                   and n.args else None)
            if isinstance(key, ast.Constant) and key.value == "grades":
                found["span reader"].add(name)
            if _packs_a_flag(n):
                found["conductor indicator"].add(name)
            if (isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                    and getattr(n.value.func, "id", getattr(n.value.func, "attr", None)) == "_pack"
                    and any(isinstance(t, ast.Subscript) for t in n.targets)):
                found["pack cache"].add(name)
            if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.FloorDiv) and _is_product(n.left)
                    and isinstance(n.right, ast.Call) and _callee(n.right) == "gcd"):
                found["hand lcm"].add(name)
            if (isinstance(n, ast.Compare) and isinstance(n.ops[0], (ast.Eq, ast.NotEq))
                    and all(map(_reads_terms, (n.left, *n.comparators)))):
                found["termwise comparison"].add(name)
            if (isinstance(n, ast.Assign) and isinstance(n.value, ast.BinOp)
                    and isinstance(n.value.op, ast.Sub) and _is_product(n.value.right)
                    and any(isinstance(t, ast.Subscript) and ast.unparse(t) == ast.unparse(n.value.left)
                            for t in n.targets)):
                found["row reduction"].add(name)
        if name == "reg" and scope.decorator_list:
            found["fixture"].add(name)
    return {job: sorted(names) for job, names in found.items()}


def _packs_a_flag(n) -> bool:
    """n sets a slot at a product to 1 (b[n * w] = 1) or shifts 1 by a
    product of two names (1 << n * w)."""
    if isinstance(n, ast.Assign):
        return (isinstance(n.value, ast.Constant) and n.value.value == 1
                and any(isinstance(t, ast.Subscript) and _is_product(t.slice) for t in n.targets))
    return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
            and isinstance(n.left, ast.Constant) and n.left.value == 1 and _is_product(n.right)
            and not any(isinstance(x, ast.Constant) for x in (n.right.left, n.right.right)))


def _sign(node):
    """1 or -1 when node is that number or its string, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -1 if _sign(node.operand) == 1 and isinstance(node.operand.value, int) else None
    if isinstance(node, ast.Constant) and type(node.value) in (int, str):
        return {1: 1, -1: -1, "1": 1, "-1": -1}.get(node.value)
    return None


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _callee(call) -> str | None:
    """The name a call calls: f for f(...) and for m.f(...)."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _reads_terms(node) -> bool:
    """node is a call x.terms.get(...)."""
    return (isinstance(node, ast.Call) and _callee(node) == "get"
            and getattr(node.func.value, "attr", None) == "terms")


def test_one_home_lint_finds_each_job():
    source = ("def power(x, e):\n    return x if e < 2 else power(x * x, e >> 1)\n"
              "def terms(q, step, bound):\n    return [n for n in q if n * step < bound]\n"
              "def reader(obj):\n    return obj.get('grades'), obj['grades']\n"
              "@fixture\ndef reg():\n    pass\n"
              "def flags(ns, w):\n    b = bytearray(9)\n    for n in ns:\n        b[n * w] = 1\n"
              "def shifts(ns, w):\n    return sum(1 << n * w for n in ns)\n"
              "def signs(c):\n    return c == 1, c != -1\n"
              "def texts(s):\n    return 'x' if s == '1' else s if s != '-1' else ''\n"
              "def cache(g, w, memo):\n    memo[w] = _pack(g.rows, g.top, w)\n"
              "def dotted(g, w):\n    g.packs[w] = qexp._pack(g.rows, g.top, w)\n"
              "def others(g, n, e):\n    e >>= 1\n    g[n * e] = 2\n    g[n] = 1 << 8 * n\n"
              "    p = _pack(g, n)\n    g[0] = pack(g, n)\n    t = n == -1, e == True, e < 1.0\n"
              "    u = n * e // 2, n // math.gcd(n, e), g.get(n) == e.get(n), g.terms.get(n) < 2\n"
              "    g[n] = e[n] - n * e\n    g[n] = g[n] + n * e\n"
              "    return {'grades': g}, [x for x in g if x < n], g * n, g.get('other')\n"
              "def lcm(a, b):\n    return a * b // math.gcd(a, b)\n"
              "def gcd_lcm(a, b):\n    return a * b // gcd(a, b)\n"
              "def agree(a, b, n, zero):\n    return a.terms.get(n, zero) == b.terms.get(n, zero)\n"
              "def differ(a, b, n):\n    return a.terms.get(n) != b.terms.get(n)\n"
              "def reduce(v, row, f):\n    for j, y in row.items():\n        v[j] = v[j] - f * y\n")
    assert one_home_jobs(source) == {"power": ["power"], "term filter": ["terms"],
                                     "span reader": ["reader"],
                                     "conductor indicator": ["flags", "shifts"],
                                     "sum renderer": ["signs", "texts"],
                                     "pack cache": ["cache", "dotted"], "fixture": ["reg"],
                                     "hand lcm": ["gcd_lcm", "lcm"],
                                     "termwise comparison": ["agree", "differ"],
                                     "row reduction": ["reduce"]}


def test_one_home_per_job():
    # one power (exactnum._pow), one series-term reader (qexp._lattice_terms),
    # one span-manifest reader (FormSpan.from_json), one conductor indicator
    # (qexp._marks), one writer of a sum of terms (exactnum._sum_text), one
    # pack cache (qexp._packed) and one registry fixture; no hand-written lcm
    # (math.lcm), no termwise series comparison (QExp.agrees_with subtracts)
    # and no row reduction beside linalg._eliminate (Subspace.member stacks)
    src_jobs = ("power", "term filter", "span reader", "conductor indicator", "sum renderer",
                "pack cache", "hand lcm", "termwise comparison", "row reduction")
    homes = {job: [] for job in (*src_jobs, "fixture")}
    for paths, jobs in ((sorted(Path(vvmf.__file__).parent.glob("*.py")), src_jobs),
                        (sorted(Path(__file__).parent.glob("*.py")), ("fixture",))):
        for path in paths:
            found = one_home_jobs(path.read_text())
            for job in jobs:
                homes[job] += [f"{path.stem}.{name}" for name in found[job]]
    assert homes == {"power": ["exactnum._pow"], "term filter": ["qexp._lattice_terms"],
                     "span reader": ["hyperalg.from_json"],
                     "conductor indicator": ["qexp._marks"], "sum renderer": ["exactnum._sum_text"],
                     "pack cache": ["qexp._packed"], "fixture": ["conftest.reg"],
                     "hand lcm": [], "termwise comparison": [], "row reduction": []}
