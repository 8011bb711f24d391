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
it and packs it as Kronecker-packed ints, one per power-basis coordinate,
at each slot width a read asks for (D. Harvey, J. Symbolic Comput. 44,
2009), the layout and packer of `qexp.combine_terms`; it meets a scalar
through its integer multiplication matrix (`exactnum._multiplication`):
the reduced row is a packed integer combination, block by block, at the
least width that holds that block's bound from bit lengths, and its first
nonzero column is read off the lowest set bit.

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
from .exactnum import _lift_num, _mul_num, _multiplication, divisors, euler_phi
from .linalg import Matrix, Subspace, sparse_row
from .qexp import InsufficientPrecision, _lifted, _pack
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
        bound = _bound(layout)
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


class _Pivots:
    """Incremental rank state of the span of forms at one row layout.

    forms are independent generators, pivots one column per form, and inv
    the inverse of their block G|P as (n, d, rows), sparse rows of integer
    coordinates at n over one denominator d, or None until a read needs it.
    v - (v|P . inv) . G is zero iff v is in the span.

    Rows are never built.  A row is one block of `bound` columns per series
    (layer r, component i).  blocks[j] is (n_j, pairs) for forms[j], n_j the
    lcm of the conductors of its row's coefficients, and pairs[b] its block
    b as (g, packs): g the block's terms over Q(zeta_{n_j}) as a
    `qexp._lifted` group, None for a zero block, and packs maps a slot
    width to one int per coordinate l, packing coordinate l of column t in
    slot t (`qexp._pack`, the packer of the series kernel), filled by the
    first read at that width.  A read lifts block b onto pairs the first
    time it combines it, and a read against no generator lifts nothing.

    A read looks v|P up in v's series, takes the numerators of c = (v|P) .
    inv in integer coordinates at the lcm N of n_v and every n_j, and walks
    the blocks in column order over one list of terms: v with scalar 1 at
    n_v, then each g_j with scalar -c_j.  Coordinate i of Lambda * (v -
    sum_j c_j g_j) on a block is the int sum over the terms t whose block is
    nonzero of sum_l m_t M_t[i][l] P_{t,l}: M_t takes the coordinates of an
    element of Q(zeta_{n_t}) to those of t's scalar numerator times it in
    Q(zeta_N), and m_t = Lambda / (den(scalar) d_t), so no block is lifted
    to N.  Each block is combined at the least width (64 bits, doubled)
    that holds its own slot bound over those terms: the largest bit length
    of a scalar plus its matrix's largest entry plus its block's largest
    coordinate, plus the bit length of the number of products per
    coordinate.  Every slot of the result is then below 2^width in absolute
    value, so a nonzero result's first nonzero slot is its lowest set bit
    // width.  The read stops at the first nonzero block.
    """

    __slots__ = ("layout", "bound", "forms", "pivots", "inv", "blocks")

    def __init__(self, layout, forms):
        self.layout, self.bound = layout, _bound(layout)
        self.forms, self.pivots, self.inv, self.blocks = [], [], None, []
        for f in forms:
            self.push(f)

    def read(self, f: AholForm):
        """(the first nonzero column of v - (v|P . inv) . G or None, (n_v,
        the (g, packs) pairs of the blocks of f's row v that it lifted))."""
        layout, bound, own = self.layout, self.bound, []
        terms = _block_terms(f, layout, bound)
        n_v = math.lcm(*{c.n for block in terms for _, c in block})
        if not self.forms:
            first = (b * bound + t for b, block in enumerate(terms) for t, _ in block)
            return min(first, default=None), (n_v, own)
        if self.inv is None:
            inv = Matrix.from_nonzeros(len(self.forms), [sparse_row(_at(
                _block_terms(g, layout, bound), self.pivots, bound)) for g in self.forms]).inverse()
            d = math.lcm(*(x.den for row in inv.nonzeros for x in row.values()))
            self.inv = inv.n, d, [{j: tuple([y * (d // x.den) for y in x.num]) for j, x in row.items()}
                                  for row in inv.nonzeros]
        n_inv, den, inv = self.inv
        cond = math.lcm(n_v, n_inv, *(n for n, _ in self.blocks))
        phi = euler_phi(cond)
        # v|P lifted to cond over vp.den (`_lifted`); c over den = d * vp.den
        vp = _lifted([(i, x) for i, x in enumerate(_at(terms, self.pivots, bound)) if x], cond)
        a, den = [(inv[i], x) for i, x in vp.rows], den * vp.den
        # the terms of v - sum_j c_j g_j, v with scalar 1, then g_j with -c_j,
        # each as den(scalar), M, the bit length of M's largest entry, its
        # form, n, its blocks
        mults = [(1, *_lift_matrix(cond, n_v), f, n_v, own)]
        for j, (n, pairs) in enumerate(self.blocks):
            c = [0] * phi
            for row, x in a:
                if y := row.get(j):
                    c = [u + w for u, w in zip(c, _mul_num(cond, x, _lift_num(y, n_inv, cond)))]
            if any(c):
                g = math.gcd(den, *c)
                m = _multiplication(cond, [-x // g for x in c], n)
                mults.append((den // g, m, _bits(m), self.forms[j], n, pairs))
        for b, block in enumerate(terms):
            # per term with a nonzero block b: den(scalar) d_b, M, the bits of M times it, it
            live = []
            for d, m, bits, g, n, pairs in mults:
                if b == len(pairs):
                    got = block if g is f else _series_terms(g, layout, b, bound)
                    pairs.append((_lifted(got, n) if got else None, {}))
                if group := pairs[b][0]:
                    live.append((d * group.den, m, bits + group.big.bit_length(), pairs[b]))
            if not live:
                continue
            lam = math.lcm(*(d for d, _, _, _ in live))
            need = max((lam // d).bit_length() + bits for d, _, bits, _ in live)
            count = sum(len(m[0]) for _, m, _, _ in live)
            # the least of 64 bits doubled that holds the bound
            width = 1 << max(6, (need + count.bit_length() - 1).bit_length())
            scaled = [(lam // d, m, _packs(pair, width)) for d, m, _, pair in live]
            low = None
            for i in range(phi):
                y = 0
                for s, m, ints in scaled:
                    z = sum(x * p for x, p in zip(m[i], ints) if x)
                    if z:
                        y += s * z
                if y:
                    t = ((y & -y).bit_length() - 1) // width
                    low = t if low is None else min(low, t)
            if low is not None:
                return b * bound + low, (n_v, own)
        return None, (n_v, own)

    def push(self, f: AholForm) -> bool:
        """Add f when it is independent; True when the state grew.  f keeps
        the blocks its read lifted and packed, and no others."""
        p, (n, own) = self.read(f)
        if p is None:
            return False
        self.forms.append(f)
        self.pivots.append(p)
        self.blocks.append((n, own))
        # det of the enlarged block is det(G|P) times the residue at p; its
        # inverse is computed when the next row is reduced
        self.inv = None
        return True


def _row_layout(forms, prec=None, base=None):
    """(prec, lattice, type dimension, depth) of rows of forms and of the
    forms whose layout at their lowest precision is base; prec defaults to
    the lowest stored precision and may not exceed it."""
    h = math.lcm(*(q.h for f in forms for layer in f.graded for q in layer))
    depth = max(f.depth for f in forms)
    low = min(f.prec for f in forms)
    if base:
        low, h, depth = min(low, base[0]), math.lcm(h, base[1]), max(depth, base[3])
    if prec is None:
        prec = low
    elif low < prec:
        raise InsufficientPrecision(f"generator stores precision {low}, below requested {prec}")
    return prec, h, forms[0].rep.dim, depth


def _bound(layout) -> int:
    """Columns per block: the exponents n/h below prec, ceil(prec * h)."""
    p, q = layout[0].as_integer_ratio()
    return -(-p * layout[1] // q)


def _block_terms(f: AholForm, layout, bound: int) -> list:
    """Per block (layer r, component i) of f's row, its (column, coefficient) terms."""
    return [_series_terms(f, layout, b, bound) for b in range((layout[3] + 1) * layout[2])]


def _series_terms(f: AholForm, layout, b: int, bound: int) -> list:
    """The (column, coefficient) terms of block b = r * dim + i of f's row."""
    r, i = divmod(b, layout[2])
    if r > f.depth:
        return []
    q = f.graded[r][i]
    step = layout[1] // q.h
    return [(n * step, c) for n, c in q.terms.items() if n * step < bound]


def _at(terms: list, columns: list, bound: int) -> list:
    """The entries at columns of a row given by its `_block_terms`, None for
    zero; only the blocks that hold the columns are looked up."""
    blocks = {b: dict(terms[b]) for b in {p // bound for p in columns}}
    return [blocks[p // bound].get(p % bound) for p in columns]


def _packs(pair, width: int) -> list:
    """The ints of a (g, packs) block at width, one per coordinate l with
    coordinate l of column t in slot t; packed once per width."""
    g, packs = pair
    if width not in packs:
        packs[width] = _pack(g.rows, g.top, width // 8)
    return packs[width]


@lru_cache(maxsize=64)
def _lift_matrix(cond: int, n: int) -> tuple:
    """(M, `_bits` of M) for the scalar 1: M lifts coordinates from n | cond to cond."""
    m = _multiplication(cond, _lift_num((1,), 1, cond), n)
    return m, _bits(m)


def _bits(m: list) -> int:
    """Bit length of a matrix's largest entry."""
    return max(abs(x) for row in m for x in row).bit_length()


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

    def add_window(s: FormSpan):
        for key in s.grades():
            if kmin <= key[0] <= kmax:
                for form, prov in s.grading[key]:
                    closure.add(form, provenance=prov)

    add_window(span)
    fresh = [f for key in closure.grades() for f, _ in closure.grading[key]]
    for _ in range(max_rounds):
        was = closure.dimension_signature()
        for form in fresh:
            add_window(tinf(form, targets))
        fresh = [f for key in closure.grades() for f, _ in closure.grading[key][was.get(key, 0):]]
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


@lru_cache(maxsize=64)
def congruence_index(level: int) -> int:
    """Index of the principal congruence subgroup of the given level:
    N^3 prod(1 - p^-2) over the primes p dividing N."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    idx = level**3
    for p in divisors(level):
        if euler_phi(p) == p - 1:  # p is prime
            idx = idx // (p * p) * (p * p - 1)
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
    return span._state(key, f, prec_used).read(f)[0] is None
