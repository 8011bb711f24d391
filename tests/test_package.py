"""The public surface: the names `vvmf` exports and the entry points that
perfbench's tracer wraps; and no module of `vvmf` imports a name it never uses."""

import ast
import importlib
import runpy
from pathlib import Path

import vvmf

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
