"""The public surface: the names `vvmf` exports and the entry points that
perfbench's tracer wraps."""

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
