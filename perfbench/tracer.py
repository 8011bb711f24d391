"""Spans and counters around vvmf entry points, installed from outside the package.

A Tracer replaces each listed entry point with a wrapper, in the module or
class that defines it and in every other vvmf module that bound the same
object with `from .x import y` (for example `hyperalg.hom_space` or
`cli.span_sum`).  Hot scalar operations are only counted; every other entry
point records a span (name, start, end, parent) in memory.  After the pass
the spans and counters are summed into a tally, the tallies of the
interpreters of one round are added up, and the per-layer metrics are
computed from the sum; the spans are written out once, at the end.

An entry point that no longer exists (renamed or merged) is skipped; the
metrics that depend on it are reported as None instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, qualified name, kind): "count" wrappers only count calls, "span"
# wrappers record a span.  A qualified name with a dot is a method.  Each
# entry feeds a metric below; the linalg spans together make the layer's
# self time, so that its callers' self times exclude elimination.
ENTRY_POINTS = (
    ("exactnum", "CycNum.__mul__", "count"),
    ("exactnum", "CycNum.inverse", "count"),
    ("linalg", "_rref_inplace", "span"),
    ("linalg", "Matrix.__mul__", "span"),
    ("linalg", "Matrix.kron", "span"),
    ("linalg", "Matrix.kernel", "span"),
    ("linalg", "Matrix.solve_right", "span"),
    ("linalg", "Matrix.inverse", "span"),
    ("linalg", "Subspace.intersect", "span"),
    ("linalg", "Subspace.member", "span"),
    ("qexp", "QExp.__mul__", "span"),
    ("qexp", "slash_expand", "span"),
    ("reps", "hom_space", "span"),
    ("hecke", "hecke_rep", "span"),
    ("hecke", "hecke_form", "span"),
    ("ahol", "raise_op", "span"),
    ("ahol", "ahol_decompose", "span"),
    ("ahol", "apply_intertwiner", "span"),
    ("forms", "vv_eisenstein", "span"),
    ("hyperalg", "FormSpan.add", "span"),
    ("hyperalg", "span_sum", "span"),
    ("hyperalg", "tensor_form", "span"),
    ("hyperalg", "span_contains", "span"),
    ("cli", "main", "span"),
)

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "exactnum.mul_calls": "count",
    "exactnum.inverse_calls": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.self_s": "s",
    "reps.hom_calls": "count",
    "reps.hom_distinct": "count",
    "reps.hom_repeat_ratio": "ratio",
    "reps.hom_ambient_sum": "count",
    "reps.hom_self_s": "s",
    "hecke.hecke_rep_calls": "count",
    "hecke.hecke_rep_s": "s",
    "hecke.hecke_form_s": "s",
    "qexp.mul_calls": "count",
    "qexp.mul_term_pairs": "count",
    "qexp.mul_self_s": "s",
    "qexp.slash_s": "s",
    "ahol.raise_s": "s",
    "ahol.decompose_s": "s",
    "ahol.apply_intertwiner_s": "s",
    "forms.vv_eisenstein_s": "s",
    "hyperalg.add_calls": "count",
    "hyperalg.add_useful_ratio": "ratio",
    "hyperalg.add_self_s": "s",
    "hyperalg.span_sum_s": "s",
    "hyperalg.tensor_form_self_s": "s",
    "hyperalg.contains_calls": "count",
    "hyperalg.contains_self_s": "s",
    "cli.job_s": "s",
}



class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list = []
        self.counts: Counter = Counter()
        self.hom_keys: set = set()
        self.installed: set = set()
        self.missing: list = []
        self.active = False

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every entry point and rebind all its aliases in vvmf."""
        modules = [
            m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "vvmf"
        ]
        notes = {
            "linalg._rref_inplace": self._note_rref,
            "qexp.QExp.__mul__": self._note_qexp_mul,
            "reps.hom_space": self._note_hom,
            "hyperalg.FormSpan.add": self._note_add,
        }
        for modname, qualname, kind in ENTRY_POINTS:
            name = f"{modname}.{qualname}"
            mod = sys.modules.get(f"vvmf.{modname}")
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = holder.__dict__.get(attr) if holder is not None else None
            if not callable(orig):
                self.missing.append(name)
                continue
            if kind == "count":
                wrapper = self._counted(orig, name)
            else:
                wrapper = self._spanned(orig, name, notes.get(name))
            # a class binds aliases in its own namespace (__rmul__ = __mul__),
            # a function is re-exported by the modules that import it
            for target in [holder] if owner else modules:
                for key, val in list(vars(target).items()):
                    if val is orig:
                        setattr(target, key, wrapper)
            self.installed.add(name)

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name, note):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if note is not None:
                note(args, out)
            return out

        return wrapper

    # -- counters measured where the work happens -------------------------

    def _note_rref(self, args, out):
        rows, ncols = args[0], args[1]
        self.counts["linalg.rref_cells"] += len(rows) * ncols

    def _note_qexp_mul(self, args, out):
        a, b = args[0], args[1]
        if hasattr(b, "terms"):
            self.counts["qexp.mul_term_pairs"] += len(a.terms) * len(b.terms)

    def _note_hom(self, args, out):
        r, r2 = args[0], args[1]
        self.hom_keys.add((r.level, r.S, r.T, r2.level, r2.S, r2.T))
        self.counts["reps.hom_ambient_sum"] += r.dim * r2.dim

    def _note_add(self, args, out):
        if out:
            self.counts["hyperalg.add_grew"] += 1

    # -- reduction to per-layer metrics -------------------------------------

    def tally(self) -> dict:
        """Sums over everything recorded so far, as a flat dict of numbers.

        Tallies of several interpreters add up key by key (merge_tallies),
        and layer_metrics turns a tally into the per-layer metrics."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        out: Counter = Counter()
        for i, (name, _, _, parent) in enumerate(spans):
            out["self:" + name] += dur[i] - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out["outer:" + name] += dur[i]
        for name, n in self.counts.items():
            out["count:" + name] += n
        # hom spaces are distinct per interpreter: nothing is shared between two
        out["reps.hom_distinct"] = len(self.hom_keys)
        for name in self.installed:
            out["installed:" + name] = 1
        return dict(out)

    def write_spans(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as f:
            fields = ["name", "start_s", "end_s", "parent"]
            json.dump({"fields": fields, "names": names, "spans": rows}, f)


def merge_tallies(tallies) -> dict:
    """Key-by-key sum of the tallies of several interpreters; an entry point
    counts as installed only if it was installed in all of them."""
    tallies = list(tallies)
    out: Counter = Counter()
    for t in tallies:
        out.update(t)
    for key in [k for k in out if k.startswith("installed:")]:
        out[key] = int(out[key] == len(tallies))
    return dict(out)


def layer_metrics(tally: dict) -> dict:
    """Per-layer metrics of a tally; None where the entry point is missing."""
    t = Counter(tally)

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self: Counter = Counter()
    for key, s in t.items():
        if key.startswith("self:"):
            layer_self[key[len("self:"):].split(".", 1)[0]] += s

    # each metric is (entry point it is measured at, value)
    def calls(src):
        return src, t["count:" + src]

    def inclusive(src):
        return src, t["outer:" + src]

    def own(src):
        return src, t["self:" + src]

    rref = "linalg._rref_inplace"
    hom = "reps.hom_space"
    qmul = "qexp.QExp.__mul__"
    add = "hyperalg.FormSpan.add"
    contains = "hyperalg.span_contains"
    hom_calls, hom_distinct = t["count:" + hom], t["reps.hom_distinct"]
    table = {
        "exactnum.mul_calls": calls("exactnum.CycNum.__mul__"),
        "exactnum.inverse_calls": calls("exactnum.CycNum.inverse"),
        "linalg.rref_calls": calls(rref),
        "linalg.rref_cells": (rref, t["count:linalg.rref_cells"]),
        "linalg.self_s": (rref, layer_self["linalg"]),
        "reps.hom_calls": calls(hom),
        "reps.hom_distinct": (hom, hom_distinct),
        "reps.hom_repeat_ratio": (hom, ratio(hom_calls - hom_distinct, hom_calls)),
        "reps.hom_ambient_sum": (hom, t["count:reps.hom_ambient_sum"]),
        "reps.hom_self_s": own(hom),
        "hecke.hecke_rep_calls": calls("hecke.hecke_rep"),
        "hecke.hecke_rep_s": inclusive("hecke.hecke_rep"),
        "hecke.hecke_form_s": inclusive("hecke.hecke_form"),
        "qexp.mul_calls": calls(qmul),
        "qexp.mul_term_pairs": (qmul, t["count:qexp.mul_term_pairs"]),
        "qexp.mul_self_s": own(qmul),
        "qexp.slash_s": inclusive("qexp.slash_expand"),
        "ahol.raise_s": inclusive("ahol.raise_op"),
        "ahol.decompose_s": inclusive("ahol.ahol_decompose"),
        "ahol.apply_intertwiner_s": inclusive("ahol.apply_intertwiner"),
        "forms.vv_eisenstein_s": inclusive("forms.vv_eisenstein"),
        "hyperalg.add_calls": calls(add),
        "hyperalg.add_useful_ratio": (
            add, ratio(t["count:hyperalg.add_grew"], t["count:" + add])
        ),
        "hyperalg.add_self_s": own(add),
        "hyperalg.span_sum_s": inclusive("hyperalg.span_sum"),
        "hyperalg.tensor_form_self_s": own("hyperalg.tensor_form"),
        "hyperalg.contains_calls": calls(contains),
        "hyperalg.contains_self_s": own(contains),
        "cli.job_s": ("cli.main", ratio(t["outer:cli.main"], t["count:cli.main"])),
    }
    assert set(table) == set(LAYER_METRICS)
    return {
        key: value if t["installed:" + src] else None
        for key, (src, value) in table.items()
    }
