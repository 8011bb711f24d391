"""The multivalued product of forms and graded spans with exact membership.

A FormSpan stores generators per grade (weight, type label), with
provenance strings so harnesses can report which products certify a
membership.  Stored generators are linearly independent within a grade
at its common sound precision.  Each grade keeps a pivot state (one
pivot column per generator and the inverse of that block of their rows),
so a new form or a membership candidate is one reduced row.

Membership refuses to answer below the Sturm bound: callers pass a
working precision and get a hard error, never a silent false.  The
congruence index used in the bound is the full index of Gamma(N), the
conservative choice with no division by the center.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ahol import AholForm, _apply_maps
from .exactnum import CycNum
from .linalg import Subspace, invert_rows, sparse_row
from .qexp import InsufficientPrecision, combine
from .reps import RepRegistry, hom_space, require_same_content


class FormSpan:
    def __init__(self):
        self.grading: dict = {}
        self._pivots: dict = {}

    @staticmethod
    def of(*forms, provenance: str = "") -> "FormSpan":
        span = FormSpan()
        for f in forms:
            span.add(f, provenance=provenance or f.name)
        return span

    def add(self, form: AholForm, provenance: str = "") -> bool:
        """Add a generator; dependent or zero forms are dropped.

        Independence is decided at the grade's common sound precision
        after insertion, by reducing one row against the grade's pivot
        state; a form that lowers that precision or changes the row layout
        rebuilds the state first.  Returns True when the span grew.
        """
        if form.is_zero():
            return False
        key = (form.weight, form.rep.label)
        gens = self.grading.setdefault(key, [])
        if gens:
            require_same_content(gens[0][0].rep, form.rep)
        forms = [f for f, _ in gens]
        state = self._state(key, forms, _row_layout(forms + [form]))
        if len(state.forms) < len(forms) or not state.push(form):
            return False
        self._pivots[key] = state
        gens.append((form, provenance or form.name))
        return True

    def _state(self, key, forms, layout) -> "_Pivots":
        """The grade's pivot state, rebuilt from forms when its layout differs."""
        state = self._pivots.get(key)
        if state is None or state.layout != layout:
            state = _Pivots(layout, forms)
        return state

    def grades(self) -> list:
        return sorted(self.grading)

    def generators(self, key) -> list:
        return list(self.grading.get(key, []))

    def grade_dimension(self, key) -> int:
        return len(self.grading.get(key, []))

    def dimension_signature(self) -> dict:
        return {key: len(gens) for key, gens in self.grading.items()}

    def grade_rows(self, key, prec=None):
        """Canonical RREF `Matrix` of a graded piece at a sound precision; () if empty."""
        gens = self.grading.get(key, [])
        if not gens:
            return ()
        forms = [f for f, _ in gens]
        layout = _row_layout(forms, prec)
        rows = [_coefficient_row(f, *layout) for f in forms]
        return Subspace.from_rows(len(rows[0]), rows).basis

    def __repr__(self):
        parts = [f"({w},{lbl}):{len(g)}" for (w, lbl), g in sorted(self.grading.items())]
        return f"FormSpan[{', '.join(parts)}]"

    def to_json(self):
        grades = []
        for (w, lbl) in self.grades():
            gens = self.grading[(w, lbl)]
            grades.append(
                {
                    "weight": w,
                    "type": lbl,
                    "dimension": len(gens),
                    "generators": [
                        {"provenance": prov, "form": f.to_json()} for f, prov in gens
                    ],
                }
            )
        return {"grades": grades}


class _Pivots:
    """Incremental rank state of the span of forms at one row layout.

    forms are independent generators with coefficient rows G (rebuilt
    when needed, sharing the forms' coefficients), pivots one column per
    row, and inv the sparse rows of the inverse of the block G|P, or None
    until the next reduction needs it.  v - (v|P . inv) . G is zero iff v
    is in the span.
    """

    __slots__ = ("layout", "forms", "pivots", "inv")

    def __init__(self, layout, forms=()):
        self.layout, self.forms, self.pivots, self.inv = layout, [], [], []
        for f in forms:
            self.push(f)

    def row(self, f: AholForm) -> list:
        return _coefficient_row(f, *self.layout)

    def residue(self, v):
        """Nonzero (column, value) of v - (v|P . inv) . G, one column at a
        time, so a caller that needs only the first one stops there."""
        if self.inv is None:
            block = [sparse_row(row[q] for q in self.pivots) for row in map(self.row, self.forms)]
            self.inv = invert_rows(block, CycNum.one())
        a = [(i, v[p]) for i, p in enumerate(self.pivots) if v[p]]
        terms = []
        for j, g in enumerate(self.forms):
            c = sum((x * self.inv[i][j] for i, x in a if j in self.inv[i]), CycNum.zero())
            if c:
                terms.append((c, self.row(g)))
        for t, x in enumerate(v):
            for c, row in terms:
                if row[t]:
                    x = x - c * row[t]
            if x:
                yield t, x

    def push(self, f: AholForm) -> bool:
        """Add f's row when it is independent; True when the state grew."""
        p, _ = next(self.residue(self.row(f)), (None, None))
        if p is None:
            return False
        # det of the enlarged block is det(G|P) times the residue at p; its
        # inverse is computed when the next row is reduced
        self.forms.append(f)
        self.pivots.append(p)
        self.inv = None
        return True


def _row_layout(forms, prec=None):
    """(prec, lattice, type dimension, depth) of rows; prec defaults to the
    lowest stored precision and may not exceed it."""
    h = math.lcm(*(q.h for f in forms for layer in f.graded for q in layer))
    depth = max(f.depth for f in forms)
    low = min(f.prec for f in forms)
    if prec is None:
        prec = low
    elif low < prec:
        raise InsufficientPrecision(f"generator stores precision {low}, below requested {prec}")
    return prec, h, forms[0].rep.dim, depth


def _coefficient_row(f: AholForm, prec, h: int, dim: int, depth: int) -> list:
    """Coefficients below prec of every layer and component, at lattice 1/h."""
    bound = math.ceil(Fraction(prec) * h)
    row = [CycNum.zero()] * ((depth + 1) * dim * bound)
    for r, layer in enumerate(f.graded):
        for i, q in enumerate(layer):
            start, step = (r * dim + i) * bound, h // q.h
            for n, c in q.terms.items():
                if n * step < bound:
                    row[start + n * step] = c
    return row


def span_sum(spans) -> "FormSpan":
    """Graded union by incremental adds; dimensions never exceed the sum."""
    out = FormSpan()
    for s in spans:
        for key in s.grades():
            for form, prov in s.grading[key]:
                out.add(form, provenance=prov)
    return out


def hyper_tensor(f: AholForm, g: AholForm, targets: RepRegistry) -> FormSpan:
    """Span of all intertwiner projections of the pointwise tensor product.

    Weights are integers at genus 1 and simply add; there is no weight-side
    hom enumeration (the tensor of one-dimensional weights is canonically
    irreducible).  Depths add: output layers are convolutions of the
    Y-graded pieces.
    """
    if f.weight % 2 != 0 or g.weight % 2 != 0:
        raise ValueError("weights must be even")
    span = FormSpan()
    name = f"({f.name or 'f'} (x) {g.name or 'g'})"
    for tag, image in projections(tensor_form(f, g), targets):
        span.add(image, provenance=f"phi[{tag}] . {name}")
    return span


def projections(f: AholForm, targets):
    """(tag, phi(f)) for every basis map phi of hom(type(f), target).

    tag is "label#idx", idx the position of phi in the target's hom basis;
    targets are visited in order, so the tags come out in a fixed order.
    The rows of every map of every target are stacked into one `combine`
    call per layer of f, which groups, lifts and packs f's components once.
    `hom_space` solves for intertwiners, so unlike the public
    `apply_intertwiner` this does not check the maps again.
    """
    tags, maps = [], []
    for target in targets:
        for idx, phi in enumerate(hom_space(f.rep, target)):
            tags.append(f"{target.label}#{idx}")
            maps.append((phi, target))
    return list(zip(tags, _apply_maps(maps, f)))


def tensor_form(f: AholForm, g: AholForm) -> AholForm:
    """Pointwise tensor with components flattened as i*dim_g + j.

    Component (i, j) of layer s is the sum over r + t = s of f.graded[t][i]
    * g.graded[r][j]: one `qexp.combine` row over all components of g.
    """
    rep = f.rep.tensor(g.rep)
    depth, dim = f.depth + g.depth, g.rep.dim
    rows = [
        [f.graded[s - r][i] if k == j and 0 <= s - r <= f.depth else 0
         for r in range(g.depth + 1) for k in range(dim)]
        for s in range(depth + 1) for i in range(f.rep.dim) for j in range(dim)
    ]
    comps = combine(rows, [q for layer in g.graded for q in layer])
    layers = [comps[s * rep.dim : (s + 1) * rep.dim] for s in range(depth + 1)]
    name = f"({f.name} (x) {g.name})" if f.name and g.name else ""
    return AholForm(f.weight + g.weight, rep, layers, name=name)


def congruence_index(level: int) -> int:
    """Index of the principal congruence subgroup of the given level."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    idx = level**3
    m = level
    p = 2
    while p * p <= m:
        if m % p == 0:
            idx = idx // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        idx = idx // (m * m) * (m * m - 1)
    return idx


def sturm_bound(k: int, level_index: int) -> int:
    """ceil(k * index / 12) + 1 coefficients decide equality."""
    return -(-k * level_index // 12) + 1


def span_contains(span: FormSpan, f: AholForm, prec_used) -> bool:
    """Exact membership of f in its graded piece, at a stated precision.

    Hard InsufficientPrecision when prec_used is below the Sturm bound of
    the grade or beyond any stored expansion; never a silent false.
    """
    prec_used = Fraction(prec_used)
    bound = sturm_bound(f.weight, congruence_index(f.rep.level))
    if prec_used < bound:
        raise InsufficientPrecision(
            f"membership needs precision >= Sturm bound {bound}, got {prec_used}"
        )
    if f.prec < prec_used:
        raise InsufficientPrecision(
            f"candidate stores precision {f.prec}, below requested {prec_used}"
        )
    key = (f.weight, f.rep.label)
    gens = span.grading.get(key, [])
    if gens:
        require_same_content(gens[0][0].rep, f.rep)
    if f.is_zero():
        return True
    if not gens:
        return False
    forms = [g for g, _ in gens]
    state = span._state(key, forms, _row_layout(forms + [f], prec_used))
    return next(state.residue(state.row(f)), None) is None
