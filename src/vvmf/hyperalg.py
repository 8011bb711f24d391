"""The multivalued product of forms and graded spans with exact membership.

The product of f and g is the span of every intertwiner projection of
f (x) g.  `ahol._images` makes them all: each projected row is one row of
`qexp.combine_terms` whose terms are phi[a, i*dim_g + j] * f_i * g_j, so
each product f_i g_j is made once, shared by every row and map that meets
it, and no component of the tensor product is made or decoded.

A FormSpan stores generators per grade (weight, type label), with
provenance strings so harnesses can report which products certify a
membership.  Stored generators are linearly independent within a grade
at its common sound precision.  Each grade keeps a pivot state (one
pivot column per generator and the inverse of that block of their rows),
so a new form or a membership candidate is one reduced row.  The state
lifts a generator's series over one denominator when a read first reaches
it, as one `qexp._lifted` group (or None) per block, packed as Kronecker
ints (D. Harvey, J. Symbolic Comput. 44, 2009) through `qexp._packed`, the
pack cache of `qexp.combine_terms`, at each slot width a read asks for; it
meets a scalar through its integer multiplication matrix
(`exactnum._multiplication`): the reduced row is a packed integer
combination, block by block, by the kernel's multiply-accumulate at a width
from its slot bound, and its first nonzero column is read off the lowest
set bit.  The rows are laid out on the lattice of the grade's exponents.

The Hecke operator at infinity acts on spans: `tinf(f)` spans every
projection of the lowered and raised images of f, and `tinf_closure` grows
one span inside a weight window by the tinf spans of the generators the last
round added, each expanded once, until a round adds none.

Membership refuses to answer below the Sturm bound: callers pass a
working precision and get a hard error, never a silent false.  The
congruence index used in the bound is the full index of Gamma(N), the
conservative choice with no division by the center.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .ahol import AholForm, _image_name, _images, lower_op, raise_op
from .exactnum import _lift_num, _mul_num, _multiplication, euler_phi, prime_divisors
from .linalg import Matrix, Subspace, sparse_row
from .qexp import InsufficientPrecision, _accumulate, _lattice_terms, _lifted, _packed, _slot_bound
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
        state = self._state(key, form)
        if len(state.forms) < len(gens) or not state.push(form):
            return False
        self._pivots[key] = state
        gens.append((form, provenance or form.name))
        return True

    def _state(self, key, f, prec=None) -> "_Pivots":
        """The grade's pivot state at the layout of its generators and f; the
        stored one (at the generators' own layout) or one rebuilt from them."""
        state = self._pivots.get(key)
        layout = _row_layout([f], prec, state and state.layout)
        if state is None or state.layout != layout:
            state = _Pivots(layout, [g for g, _ in self.grading[key]])
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
        bound = math.ceil(layout[0] * layout[1])
        rows = [{b * bound + t: c for b, terms in enumerate(_block_terms(f, layout, bound))
                 for t, c in terms} for f in forms]
        return Subspace._from_sparse((layout[3] + 1) * layout[2] * bound, rows).basis

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

    @staticmethod
    def from_json(obj, registry: RepRegistry) -> "FormSpan":
        """The span `to_json` writes, its generators added in order with their provenance and
        types inline or labelled in registry; refused unless they span the grades it declares."""
        if not isinstance(obj, dict) or not isinstance(obj.get("grades"), list):
            raise ValueError("a span is a JSON object whose grades are a list")
        span = FormSpan()
        for grade in obj["grades"]:
            gens = grade.get("generators") if isinstance(grade, dict) else None
            if not isinstance(gens, list) or not all(isinstance(gen, dict) for gen in gens):
                raise ValueError("a span grade is an object whose generators are a list of objects")
            for gen in gens:
                if "form" not in gen:
                    raise ValueError('a span generator has no "form" field')
                span.add(AholForm.from_json(gen["form"], registry), gen.get("provenance", ""))
        declared = {(g.get("weight"), g.get("type")): g.get("dimension") for g in obj["grades"]}
        if span.dimension_signature() != declared:
            raise ValueError(f"the span declares grades {declared}, "
                             f"but its generators span {span.dimension_signature()}")
        return span


class _Pivots:
    """Incremental rank state of the span of forms at one row layout.

    forms are independent generators, pivots one column per form, and inv
    the inverse of their block G|P as (n, d, rows), sparse rows of integer
    coordinates at n over one denominator d, or None until a read needs it.
    v - (v|P . inv) . G is zero iff v is in the span.

    Rows are never built.  A row is one block of `bound` columns per series
    (layer r, component i).  blocks[j] is (n_j, terms_j, groups_j) for
    forms[j]: n_j the lcm of the conductors of its row's coefficients,
    terms_j the row's `_block_terms` that the read of its push made, and
    groups_j[b] block b's terms over Q(zeta_{n_j}) as a `qexp._lifted`
    group, or None for a zero block, packed through `qexp._packed` at each
    width a read asks for.  A generator's row is read once: the inverse and
    the lifts read terms_j.  A read lifts block b onto groups the first time
    it combines it, and a read against no generator lifts nothing.

    A read looks v|P up in v's series, takes the numerators of c = (v|P) .
    inv in integer coordinates at the lcm N of n_v and every n_j, and walks
    the blocks in column order over one list of terms: v with scalar 1 at
    n_v, then each g_j with scalar -c_j.  Coordinate i of Lambda * (v -
    sum_j c_j g_j) on a block is the int sum over the terms t whose block is
    nonzero of sum_l m_t M_t[i][l] P_{t,l}: M_t takes the coordinates of an
    element of Q(zeta_{n_t}) to those of t's scalar numerator times it in
    Q(zeta_N), and m_t = Lambda / (den(scalar) d_t), so no block is lifted
    to N (`qexp._accumulate`).  Each block is combined at the least width
    (64 bits, doubled, as packs live across reads) above the bit length of
    its `qexp._slot_bound`, sum_t m_t * (M_t's largest absolute row sum) *
    (its block's largest coordinate).  Every slot of the result is then
    below 2^width in absolute value, so a nonzero result's first nonzero
    slot is its lowest set bit // width.  The read stops at the first
    nonzero block.
    """

    __slots__ = ("layout", "bound", "forms", "pivots", "inv", "blocks")

    def __init__(self, layout, forms):
        self.layout, self.bound = layout, math.ceil(layout[0] * layout[1])
        self.forms, self.pivots, self.inv, self.blocks = [], [], None, []
        for f in forms:
            self.push(f)

    def read(self, f: AholForm):
        """(the first nonzero column of v - (v|P . inv) . G or None, (n_v,
        the terms of f's row v, the groups of its blocks that it lifted))."""
        bound, own = self.bound, []
        terms = _block_terms(f, self.layout, bound)
        n_v = math.lcm(*{c.n for block in terms for _, c in block})
        if not self.forms:
            first = (b * bound + t for b, block in enumerate(terms) for t, _ in block)
            return min(first, default=None), (n_v, terms, own)
        if self.inv is None:
            inv = Matrix.from_nonzeros(len(self.forms), [sparse_row(_at(
                t, self.pivots, bound)) for _, t, _ in self.blocks]).inverse()
            d = math.lcm(*(x.den for row in inv.nonzeros for x in row.values()))
            self.inv = inv.n, d, [{j: tuple([y * (d // x.den) for y in x.num]) for j, x in row.items()}
                                  for row in inv.nonzeros]
        n_inv, den, inv = self.inv
        cond = math.lcm(n_v, n_inv, *(n for n, _, _ in self.blocks))
        phi = euler_phi(cond)
        # v|P lifted to cond over vp.den (`_lifted`); c over den = d * vp.den
        vp = _lifted([(i, x) for i, x in enumerate(_at(terms, self.pivots, bound)) if x], cond)
        a, den = [(inv[i], x) for i, x in vp.rows], den * vp.den
        # the terms of v - sum_j c_j g_j, v with scalar 1, then g_j with -c_j,
        # each as den(scalar), M, n, its row's block terms and lifted blocks
        mults = [(1, _lift_matrix(cond, n_v), n_v, terms, own)]
        for j, (n, rows, groups) in enumerate(self.blocks):
            c = [0] * phi
            for row, x in a:
                if y := row.get(j):
                    c = [u + w for u, w in zip(c, _mul_num(cond, x, _lift_num(y, n_inv, cond)))]
            if any(c):
                g = math.gcd(den, *c)
                mults.append((den // g, _multiplication(cond, [-x // g for x in c], n),
                              n, rows, groups))
        for b in range(len(terms)):
            # per term with a nonzero block b: den(scalar) d_b, M, the block
            live = []
            for d, m, n, rows, groups in mults:
                if b == len(groups):
                    groups.append(_lifted(rows[b], n) if rows[b] else None)
                if group := groups[b]:
                    live.append((d * group.den, m, group))
            if not live:
                continue
            lam = math.lcm(*(d for d, _, _ in live))
            # the least of 64 bits doubled above the bit length of the slot bound
            need = _slot_bound([(lam // d, m, g.big) for d, m, g in live]).bit_length()
            width = 1 << max(6, need.bit_length())
            acc = _accumulate([(lam // d, m, _packed(g, width // 8)) for d, m, g in live], phi)
            low = min((((y & -y).bit_length() - 1) // width for y in acc if y), default=None)
            if low is not None:
                return b * bound + low, (n_v, terms, own)
        return None, (n_v, terms, own)

    def push(self, f: AholForm) -> bool:
        """Add f when it is independent; True when the state grew.  f keeps
        its row's terms and the blocks its read lifted and packed, and no others."""
        p, block = self.read(f)
        if p is None:
            return False
        self.forms.append(f)
        self.pivots.append(p)
        self.blocks.append(block)
        # det of the enlarged block is det(G|P) times the residue at p; its
        # inverse is computed when the next row is reduced
        self.inv = None
        return True


def _row_layout(forms, prec=None, base=None):
    """(prec, lattice, type dimension, depth) of rows of forms and of the
    forms whose layout at their lowest precision is base; prec defaults to
    the lowest stored precision and may not exceed it.  The lattice is the
    lcm of the lattices of the series' exponents, q.h // gcd(q.h, *q.terms)
    (1 for a zero series)."""
    h = math.lcm(*(q.h // math.gcd(q.h, *q.terms)
                   for f in forms for layer in f.graded for q in layer))
    depth = max(f.depth for f in forms)
    low = min(f.prec for f in forms)
    if base:
        low, h, depth = min(low, base[0]), math.lcm(h, base[1]), max(depth, base[3])
    if prec is None:
        prec = low
    elif low < prec:
        raise InsufficientPrecision(f"generator stores precision {low}, below requested {prec}")
    return prec, h, forms[0].rep.dim, depth


def _block_terms(f: AholForm, layout, bound: int) -> list:
    """Per block b = r * dim + i (layer r, component i) of f's row, its
    (column, coefficient) terms; `bound` columns per block, ceil(prec * h)."""
    rows = [_lattice_terms(q, layout[1], bound) for layer in f.graded for q in layer]
    return rows + [[] for _ in range(len(rows), (layout[3] + 1) * layout[2])]


def _at(terms: list, columns: list, bound: int) -> list:
    """The entries at columns of a row given by its `_block_terms`, None for
    zero; only the blocks that hold the columns are looked up."""
    blocks = {b: dict(terms[b]) for b in {p // bound for p in columns}}
    return [blocks[p // bound].get(p % bound) for p in columns]


@lru_cache(maxsize=64)
def _lift_matrix(cond: int, n: int) -> list:
    """M for the scalar 1: M lifts coordinates from n | cond to cond."""
    return _multiplication(cond, _lift_num((1,), 1, cond), n)


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
    Y-graded pieces.  `ahol._images` makes every projection from f and g
    directly; no component of the tensor product is made.  A coefficient's
    conductor is the lcm over every term c * f_i * g_j of its row that
    reaches its exponent; projecting `tensor_form(f, g)` instead drops a
    tensor coefficient that cancels exactly, so there the same value can
    come out at a smaller conductor and the span's JSON can differ.
    """
    if f.weight % 2 != 0 or g.weight % 2 != 0:
        raise ValueError("weights must be even")
    span = FormSpan()
    name = f"({f.name or 'f'} (x) {g.name or 'g'})"
    tags, maps = _basis_maps(f.rep.tensor(g.rep), targets)
    images = _images(f, g, maps, _image_name(_tensor_name(f, g)))
    for tag, image in zip(tags, images):
        span.add(image, provenance=f"phi[{tag}] . {name}")
    return span


def projections(f: AholForm, targets):
    """(tag, phi(f)) for every basis map phi of hom(type(f), target).

    tag is "label#idx", idx the position of phi in the target's hom basis;
    targets are visited in order, so the tags come out in a fixed order.
    `ahol._images` stacks the rows of every map of every target into one
    `combine_terms` call per layer of f, at the conductor rule of
    `apply_intertwiner`.  `hom_space` solves for intertwiners, so unlike the
    public `apply_intertwiner` this does not check the maps again.
    """
    tags, maps = _basis_maps(f.rep, targets)
    return list(zip(tags, _images(f, None, maps, _image_name(f.name))))


def _basis_maps(rep, targets) -> tuple:
    """(tags, maps): (phi, target) for every basis map phi, tagged as `projections` tags it."""
    tagged = [(f"{target.label}#{idx}", (phi, target))
              for target in targets for idx, phi in enumerate(hom_space(rep, target))]
    return [tag for tag, _ in tagged], [m for _, m in tagged]


def tinf(f: AholForm, targets) -> FormSpan:
    """Hecke operator at infinity: the span of f's lowered and raised images,
    each projected onto every target, graded by (weight -/+ 2, target label)."""
    span = FormSpan()
    for g, op in ((lower_op(f), "lower"), (raise_op(f), "raise")):
        if not g.is_zero():
            for tag, image in projections(g, targets):
                span.add(image, provenance=f"{op}({f.name or 'form'})->{tag}")
    return span


def tinf_closure(span: FormSpan, weight_window, max_rounds: int, targets):
    """Least fixed point of repeated tinf applications inside a window.

    Starts from the window's grades of span.  A round adds, in grade
    order, the window's grades of the tinf span of every generator the
    round before added (of every one in round 1): a rejected image stays
    dependent as the span grows or its precision drops, so expanding a
    generator again adds nothing.  A round that adds none ends the closure.
    Returns (closure span, stabilized flag); non-stabilization within
    max_rounds is reported, not raised.
    """
    kmin, kmax = weight_window
    if kmin > kmax:
        raise ValueError(f"empty weight window [{kmin}, {kmax}]")
    closure = FormSpan()

    def add_window(s: FormSpan) -> list:
        """The forms of the window's grades of s that closure accepted."""
        return [form for key in s.grades() if kmin <= key[0] <= kmax
                for form, prov in s.grading[key] if closure.add(form, provenance=prov)]

    fresh = add_window(span)
    for _ in range(max_rounds):
        # a stable sort puts a round's accepted forms in grade order, each
        # grade's in the order closure took them
        fresh = sorted([g for form in fresh for g in add_window(tinf(form, targets))],
                       key=lambda g: (g.weight, g.rep.label))
        if not fresh:
            return closure, True
    return closure, False


def tensor_form(f: AholForm, g: AholForm) -> AholForm:
    """Pointwise tensor with components flattened as i*dim_g + j: the image
    of f (x) g under the identity map, made by `ahol._images` at its
    conductor rule (every product of terms counts, even where it cancels)."""
    rep = f.rep.tensor(g.rep)
    return _images(f, g, [(Matrix.identity(rep.dim), rep)], _tensor_name(f, g))[0]


def _tensor_name(f: AholForm, g: AholForm) -> str:
    return f"({f.name} (x) {g.name})" if f.name and g.name else ""


def congruence_index(level: int) -> int:
    """Index of the principal congruence subgroup of the given level:
    N^3 prod(1 - p^-2) over the primes p dividing N."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    primes = prime_divisors(level)
    return level**3 // math.prod(p * p for p in primes) * math.prod(p * p - 1 for p in primes)


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
    return span._state(key, f, prec_used).read(f)[0] is None
