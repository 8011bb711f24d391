"""The multivalued product of forms and graded spans with exact membership.

A FormSpan stores generators per grade (weight, type label), with
provenance strings so harnesses can report which products certify a
membership.  Stored generators are linearly independent within a grade
at its common sound precision.  Each grade keeps a pivot state (one
pivot column per generator and the inverse of that block of their rows),
so a new form or a membership candidate is one reduced row.  The state
keeps each generator's series as Kronecker-packed ints, one per
power-basis coordinate (D. Harvey, J. Symbolic Comput. 44, 2009, as in
`qexp.combine`): the reduced row is a packed integer combination, block
by block, at a slot width checked against a bound from bit lengths, and
its first nonzero column is read off the lowest set bit.

Membership refuses to answer below the Sturm bound: callers pass a
working precision and get a hard error, never a silent false.  The
congruence index used in the bound is the full index of Gamma(N), the
conservative choice with no division by the center.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ahol import AholForm, _apply_maps
from .exactnum import CycNum, _reduce, euler_phi
from .linalg import Subspace, invert_rows, sparse_row
from .qexp import InsufficientPrecision, _pack, combine
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
        rows = [_coefficient_row(f, layout) for f in forms]
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

    forms are independent generators, pivots one column per form, and inv
    the sparse rows of the inverse of their block G|P, or None until the
    next read needs it.  v - (v|P . inv) . G is zero iff v is in the span.

    Rows are never built.  A row is one block of `bound` columns per series
    (layer r, component i).  packed[j] is (n_j, blocks) for forms[j], n_j
    the lcm of the conductors of its row's coefficients, and blocks[b] its
    block b over Q(zeta_{n_j}) as (d, bits, P): P[l] packs d times
    coordinate l of column t in slot t of `width` bits (`qexp._pack`), and
    no such integer is longer than bits; None for a zero block.

    A read takes c = (v|P) . inv at the lcm N of n_v and every n_j, and
    walks the blocks in column order.  Coordinate i of Lambda * (v - sum_j
    c_j g_j) on a block is the int sum_l (Lambda / d_v) L[i][l] V_l - sum_j
    sum_l m_j M_j[i][l] P_{j,l}: M_j takes the coordinates of an element of
    Q(zeta_{n_j}) to those of c_j's numerator times it in Q(zeta_N), L does
    the same for 1 and n_v, and m_j = Lambda / (den(c_j) d_j), so no
    generator is lifted.  First the slot bound: the largest bit length of a
    scalar plus its matrix's largest entry plus its block's bits, plus the
    bit length of the number of products per coordinate.  A block whose
    bound is beyond width is combined at width doubled until it holds the
    bound, with that block of each generator repacked for the read alone;
    `push` keeps the widest width its read needed (64 bits at first, never
    shrinking) and repacks every block at it.  Every slot of the result is
    below 2^width in absolute value, so a nonzero result's first nonzero
    slot is its lowest set bit // width.  The read stops at the first
    nonzero block, at the least such slot over its coordinates.
    """

    __slots__ = ("layout", "forms", "pivots", "inv", "width", "packed")

    def __init__(self, layout, forms=()):
        self.layout, self.forms, self.pivots, self.inv = layout, [], [], []
        self.width, self.packed = 64, []
        for f in forms:
            self.push(f)

    def read(self, f: AholForm):
        """(the first nonzero column of v - (v|P . inv) . G or None, (n_v,
        the blocks of f's row v up to that column's, each as (`_integral` at
        n_v, the width it was packed at, its `_packed` ints or None)), the
        widest width combined at); packed and width stay as they were."""
        bound, terms = _bound(self.layout), _block_terms(f, self.layout)
        n_v = math.lcm(*(c.n for block in terms for _, c in block))
        cond = math.lcm(n_v, *(n for n, _ in self.packed))
        if self.inv is None:
            block = [sparse_row(map(_columns(_block_terms(g, self.layout), bound).get, self.pivots))
                     for g in self.forms]
            self.inv = invert_rows(block, CycNum.one())
        v = _columns(terms, bound)
        a = [(i, x) for i, p in enumerate(self.pivots) if (x := v.get(p))]
        mults = []  # (j, den(c_j), M_j, the bit length of M_j's largest entry)
        for j, (n, _) in enumerate(self.packed):
            c = sum((x * self.inv[i][j] for i, x in a if j in self.inv[i]), CycNum.zero())
            if c:
                m = _multiplication(cond, c.lift(cond).num, n)
                mults.append((j, c.den, m, _bits(m)))
        lift = _multiplication(cond, CycNum.one().lift(cond).num, n_v)
        lift_bits, phi_v = _bits(lift), euler_phi(n_v)
        width, own = self.width, []
        for b, block in enumerate(terms):
            mine = _integral(block, n_v)
            # per term j: den(c_j) d_j, M_j, and the bits of M_j times block b of g_j
            gens = [(j, d * self.packed[j][1][b][0], m, bits + self.packed[j][1][b][1])
                    for j, d, m, bits in mults if self.packed[j][1][b]]
            if mine is None and not gens:
                own.append((None, 0, None))
                continue
            d_v, v_bits = mine[:2] if mine else (1, 0)
            lam = math.lcm(d_v, *(d for _, d, _, _ in gens))
            need = max([(lam // d_v).bit_length() + lift_bits + v_bits]
                       + [(lam // d).bit_length() + bits for _, d, _, bits in gens])
            count = (phi_v if mine else 0) + sum(len(m[0]) for _, _, m, _ in gens)
            wide = _wider(self.width, need + count.bit_length())
            width = max(width, wide)
            packed = _packed(mine, wide)
            own.append((mine, wide, packed))
            scaled = [(lam // d_v, lift, packed[2])] if mine else []
            for j, d, m, _ in gens:
                n, blocks = self.packed[j]
                g = blocks[b]
                if wide > self.width:  # block b of g_j, repacked for this read alone
                    g = _packed(_integral(_series_terms(self.forms[j], self.layout, b), n), wide)
                scaled.append((-(lam // d), m, g[2]))
            low = None
            for i in range(euler_phi(cond)):
                y = 0
                for s, m, ints in scaled:
                    z = sum(x * p for x, p in zip(m[i], ints) if x)
                    if z:
                        y += s * z
                if y:
                    t = ((y & -y).bit_length() - 1) // wide
                    low = t if low is None else min(low, t)
            if low is not None:
                return b * bound + low, (n_v, own), width
        return None, (n_v, own), width

    def push(self, f: AholForm) -> bool:
        """Add f when it is independent; True when the state grew.  Either
        way the state keeps the widest width the read needed.  A block the
        read packed at the final width is kept, not packed again."""
        p, (n, own), width = self.read(f)
        if p is not None:
            # det of the enlarged block is det(G|P) times the residue at p; its
            # inverse is computed when the next row is reduced
            own += [(_integral(block, n), 0, None)
                    for block in _block_terms(f, self.layout)[len(own):]]
            width = _wider(width, 1 + max(x[1] for x, _, _ in own if x))
        if width > self.width:
            self.width, self.packed = width, self._table(width)
        if p is None:
            return False
        self.forms.append(f)
        self.pivots.append(p)
        self.packed.append((n, [g if w == self.width else _packed(x, self.width)
                                for x, w, g in own]))
        self.inv = None
        return True

    def _table(self, width: int) -> list:
        """packed with every block repacked at width."""
        return [(n, [_packed(_integral(block, n), width) for block in _block_terms(f, self.layout)])
                for f, (n, _) in zip(self.forms, self.packed)]


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


def _bound(layout) -> int:
    """Columns per block: the exponents n/h below prec."""
    return math.ceil(Fraction(layout[0]) * layout[1])


def _block_terms(f: AholForm, layout) -> list:
    """Per block (layer r, component i) of f's row, its (column, coefficient) terms."""
    return [_series_terms(f, layout, b) for b in range((layout[3] + 1) * layout[2])]


def _series_terms(f: AholForm, layout, b: int) -> list:
    """The (column, coefficient) terms of block b = r * dim + i of f's row."""
    r, i = divmod(b, layout[2])
    if r > f.depth:
        return []
    q, bound = f.graded[r][i], _bound(layout)
    step = layout[1] // q.h
    return [(n * step, c) for n, c in q.terms.items() if n * step < bound]


def _columns(blocks: list, bound: int) -> dict:
    """{column: coefficient} of a row given by its `_block_terms`."""
    return {b * bound + t: c for b, terms in enumerate(blocks) for t, c in terms}


def _coefficient_row(f: AholForm, layout) -> list:
    """Coefficients below prec of every layer and component, at lattice 1/h."""
    bound, blocks = _bound(layout), _block_terms(f, layout)
    row = [CycNum.zero()] * (len(blocks) * bound)
    for col, c in _columns(blocks, bound).items():
        row[col] = c
    return row


def _integral(terms: list, n: int):
    """(d, bits, rows) of nonzero terms at conductor n: rows of (column,
    integer coordinates over d), bits their largest bit length; None for no
    terms."""
    if not terms:
        return None
    terms = [(t, c if c.n == n else c.lift(n)) for t, c in terms]
    d = math.lcm(*(c.den for _, c in terms))
    rows = [(t, c.num if c.den == d else [x * (d // c.den) for x in c.num]) for t, c in terms]
    return d, max(max(map(abs, v)) for _, v in rows).bit_length(), rows


def _packed(block, width: int):
    """(d, bits, one packed int per coordinate) of an `_integral` block, or None."""
    if block is None:
        return None
    d, bits, rows = block
    top = max(t for t, _ in rows)
    return d, bits, [_pack([(t, (v[l],)) for t, v in rows], top, 1, width // 8)
                     for l in range(len(rows[0][1]))]


def _multiplication(cond: int, num: tuple, n: int) -> list:
    """M with M[i][l] the coordinate i of num * zeta_n^l modulo Phi_cond,
    for num at conductor cond and n | cond: M takes an element of Q(zeta_n)
    to num times it."""
    step = cond // n
    cols = [_reduce(cond, [0] * (l * step) + list(num)) for l in range(euler_phi(n))]
    return [[col[i] for col in cols] for i in range(len(num))]


def _bits(m: list) -> int:
    """Bit length of a matrix's largest entry."""
    return max(abs(x) for row in m for x in row).bit_length()


def _wider(width: int, bits: int) -> int:
    """width, doubled until it holds bits."""
    while width < bits:
        width *= 2
    return width


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
    return state.read(f)[0] is None
