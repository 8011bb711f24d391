"""Truncated Fourier expansions with exponents in (1/h)Z.

A QExp stores coefficients for exponents n/h with 0 <= n/h < prec and an
O(q^prec) tail; prec is an exact rational and every operation returns the
largest truncation that is still sound.  Negative exponents are rejected:
only objects holomorphic at infinity occur here.  `terms` maps each n to
its nonzero coefficient; zero coefficients are never stored.

The public constructor coerces and checks every term.  Results built
here (sums, products, scalings, slash images, theta, lattice changes,
truncations) go through the trusted constructor `_series`, and each
caller drops its own zeros.  Series compare by subtraction: they agree
below a precision when their difference has no term there.

Products and sums of products are one multiply-accumulate kernel,
`combine_terms`, by Kronecker substitution (D. Harvey, J. Symbolic
Comput. 44, 2009): each distinct product of a call is made once on
factors packed in one pass, one Python int per power-basis coordinate,
folded modulo the cyclotomic polynomial on the packed ints, and shared by
every row that scales it; a row is decoded a coordinate at a time.
`_packed` is the one pack cache, of this kernel and of the span reads.  A
coefficient has the lcm of the conductors of every term and pair of terms
that reaches its exponent, even where their sum cancels, a rule that
depends neither on the algorithm nor on the order of summation.
Conductors change by the maps of `exactnum`: the lift `_lift_num`, the
multiplication matrix `_multiplication` and the lowering `_lowered`.  A
row's conductors are read off its indicators once, into one table from
slot to lcm (`_conductors`), and a slash makes each root of unity its
rational terms scale once (`slash_expand`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress, count
from operator import or_

from .exactnum import (
    CycNum, Immutable, _embed, _lift_num, _lowered, _make, _mul_num, _multiplication, _reduce,
    _sum_text, as_cyc, euler_phi, format_rational, json_int, parse_rational,
)


class InsufficientPrecision(Exception):
    """A requested computation is not covered by the stored precision."""


class QExp(Immutable):
    __slots__ = ("h", "prec", "terms")

    def __init__(self, h: int, prec, terms):
        """terms maps exponent numerator n (exponent n/h) to coefficient."""
        if h < 1:
            raise ValueError(f"lattice denominator must be positive, got {h}")
        prec = Fraction(prec)
        if prec <= 0:
            raise InsufficientPrecision(f"precision must be positive, got {prec}")
        # n/h >= prec exactly when the integer n >= ceil(prec * h)
        bound = math.ceil(prec * h)
        clean = {}
        for n, c in terms.items():
            if not isinstance(n, int):
                raise ValueError(f"an exponent numerator is an integer, got {n!r}")
            c = as_cyc(c)
            if c.is_zero():
                continue
            if n < 0:
                raise ValueError(f"negative exponent {n}/{h} is not representable")
            if n >= bound:
                continue
            clean[int(n)] = c
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero(prec) -> "QExp":
        return QExp(1, prec, {})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e) -> CycNum:
        """Coefficient at exponent e; raises beyond stored precision."""
        e = Fraction(e)
        if e >= self.prec:
            raise InsufficientPrecision(f"exponent {e} is >= O-tail {self.prec}")
        n = e * self.h
        if n.denominator != 1:
            return CycNum.zero()
        return self.terms.get(int(n), CycNum.zero())

    def rescale_lattice(self, h: int) -> "QExp":
        if h == self.h:
            return self
        if h % self.h != 0:
            raise ValueError(f"lattice {self.h} does not divide {h}")
        step = h // self.h
        return _series(h, self.prec, {n * step: c for n, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, QExp):
            return NotImplemented
        h = math.lcm(self.h, other.h)
        a, b = self.rescale_lattice(h), other.rescale_lattice(h)
        prec = min(a.prec, b.prec)
        bound = math.ceil(prec * a.h)
        terms = {n: c for n, c in a.terms.items() if n < bound}
        for n, c in b.terms.items():
            if n < bound:
                terms[n] = terms[n] + c if n in terms else c
        return _series(a.h, prec, {n: c for n, c in terms.items() if c})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _series(self.h, self.prec, {n: -c for n, c in self.terms.items()})

    def __mul__(self, other):
        return combine([[other]], [self])[0] if isinstance(other, QExp) else self.scaled(other)

    def scaled(self, s) -> "QExp":
        s = as_cyc(s)
        return _series(self.h, self.prec, {n: s * c for n, c in self.terms.items()} if s else {})

    def theta(self) -> "QExp":
        """q d/dq: multiply each term by its exponent."""
        h = self.h
        return _series(
            h, self.prec, {n: _make(c.n, tuple(x * n for x in c.num), c.den * h)
                           for n, c in self.terms.items() if n}
        )

    def truncate(self, prec) -> "QExp":
        prec = Fraction(prec)
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend precision {self.prec} to {prec}"
            )
        if prec <= 0:
            raise InsufficientPrecision(f"precision must be positive, got {prec}")
        bound = math.ceil(prec * self.h)
        return _series(self.h, prec, {n: c for n, c in self.terms.items() if n < bound})

    def __eq__(self, other):
        if not isinstance(other, QExp):
            return NotImplemented
        return self.prec == other.prec and self.agrees_with(other)

    def agrees_with(self, other: "QExp", prec=None) -> bool:
        """Agreement below prec (default: common sound precision): self - other
        has no term there."""
        if prec is None:
            prec = min(self.prec, other.prec)
        prec = Fraction(prec)
        if prec > self.prec or prec > other.prec:
            raise InsufficientPrecision("comparison beyond stored precision")
        d = self - other
        return all(n >= prec * d.h for n in d.terms)

    def __repr__(self):
        return f"QExp({self.to_text()})"

    def to_text(self) -> str:
        terms = [(str(c), "" if n == 0 else "q" if n == self.h else
                  f"q^({format_rational(Fraction(n, self.h))})")
                 for n, c in sorted(self.terms.items())]
        return f"{_sum_text(terms)} + O(q^({format_rational(self.prec)}))"

    def to_json(self):
        return {
            "h": self.h,
            "prec": format_rational(self.prec),
            "terms": [[n, self.terms[n].to_json()] for n in sorted(self.terms)],
        }

    @staticmethod
    def from_json(obj) -> "QExp":
        if not isinstance(obj, dict):
            raise ValueError(f"a series is a JSON object, got {type(obj).__name__}")
        if "prec" not in obj:
            raise ValueError('a series has no "prec" field')
        if not isinstance(obj.get("terms"), list):
            raise ValueError(f'series "terms" is a list of [n, c] pairs, got {obj.get("terms")!r}')
        terms = {}
        for term in obj["terms"]:
            if not isinstance(term, list) or len(term) != 2 or type(term[0]) is not int:
                raise ValueError(f"a series term is [integer exponent, coefficient], got {term!r}")
            if term[0] in terms:
                raise ValueError(f"exponent {term[0]} is repeated in a series")
            terms[term[0]] = CycNum.from_json(term[1])
        return QExp(json_int(obj, "h", "series"), parse_rational(obj["prec"]), terms)


def _series(h: int, prec: Fraction, terms: dict) -> QExp:
    """Trusted constructor: terms are nonzero CycNums at n < ceil(prec * h)."""
    q = _new_object(QExp)
    _set_h(q, h)
    _set_prec(q, prec)
    _set_terms(q, terms)
    return q


# the slot setters bypass Immutable.__setattr__, which refuses every write
_new_object = object.__new__
_set_h, _set_prec, _set_terms = (getattr(QExp, name).__set__ for name in QExp.__slots__)


def _lattice_terms(q: QExp, h: int, bound: int) -> list:
    """q's terms (n, c) on lattice 1/h, a multiple of the lattice of q's
    exponents, with n < bound, in q's order: the term at n/q.h is at n * h
    // q.h."""
    cut = bound * q.h
    return [(n * h // q.h, c) for n, c in q.terms.items() if n * h < cut]


def combine(rows, series) -> list:
    """The series sum_j rows[i][j] * series[j], one per row i.

    An entry is a scalar or a series, and zero scalars are skipped.  Row i
    has the lcm of the lattices and the least precision of the series its
    other entries meet (both factors of a series entry); with no entry left
    it is QExp.zero at the least precision of all series.  The rows are one
    `combine_terms` call: a scalar entry c is the term c * series[j], a
    series entry x the term 1 * x * series[j].
    """
    return combine_terms([[(1, c, q) if isinstance(c, QExp) else (c, q, None)
                           for c, q in zip(row, series)] for row in rows],
                         min(q.prec for q in series))


def combine_terms(rows, empty) -> list:
    """Per row of terms (c, x, y), c a scalar and x, y series (y None for
    the term c * x), the series sum c * x * y.  A row has the lcm of the
    lattices and the least precision of the factors of its terms with
    c != 0; with no such term it is QExp.zero at precision empty.

    Each distinct product x * y of the call is made once, at the lcm n of
    its terms' conductors: x and y are lifted to n over one denominator and
    packed into one int per power-basis coordinate, exponent t in slot t
    (`_packed`), and the coordinate-pair products are folded modulo Phi_n on
    those ints (`exactnum._mul_num`).  A row at its joint conductor N, the
    lcm of its terms' c.n and n, folds the row's denominator into the integer
    matrix of each c times Q(zeta_n) in Q(zeta_N) (`_multiplication`),
    applies it to the shared product (`_accumulate`) and decodes its phi(N)
    sums once.  One slot width holds every row of the call (`_slot_bound`),
    a product's slot bound being `_fold_growth(n)` * phi(n) * (pairs of
    terms per exponent) * (the factors' largest coordinates).

    A coefficient has the lcm m of c.n and the pair's term conductors, over
    every term and pair of terms that reaches its exponent, even where
    their sum cancels: each series keeps one conductor indicator
    (`_marks`), each product pairs its factors' (`_paired`) and
    `_conductors` reads m off the row's; the coefficient's coordinates are
    lowered from N to m (`exactnum._lowered`).
    """
    rows = [[(as_cyc(c), x, y) for c, x, y in row if c] for row in rows]
    parts = [[q for _, x, y in row for q in (x, y) if q is not None] for row in rows]
    h = math.lcm(*(q.h for qs in parts for q in qs))
    bounds = [math.ceil(min(q.prec for q in qs) * h) if qs else 0 for qs in parts]
    limit, found, lifted, made, indicators = max(bounds, default=0), {}, {}, {}, {}

    def terms(x) -> tuple:
        """(x's (n, c) terms below every bound at lattice h, their conductors)."""
        if id(x) not in found:
            t = _lattice_terms(x, h, limit)
            found[id(x)] = t, {c.n for _, c in t}
        return found[id(x)]

    def lift(x, cond: int) -> _Group:
        if (id(x), cond) not in lifted:
            lifted[id(x), cond] = _lifted(terms(x)[0], cond)
        return lifted[id(x), cond]

    def product(x, y) -> _Product:
        """The product record of x * y (of x where y is None), made once."""
        key = (id(x), id(y)) if y is None or id(x) <= id(y) else (id(y), id(x))
        if key not in made:
            cond = math.lcm(*terms(x)[1], *(terms(y)[1] if y is not None else ()))
            if y is None:
                a = lift(x, cond)
                made[key] = _Product(x, y, cond, (a,), a.den, a.big, a.top, {})
            else:
                a, b = lift(x, cond), lift(y, cond)
                count = min(len(a.rows), len(b.rows))
                big = _fold_growth(cond) * euler_phi(cond) * count * a.big * b.big
                made[key] = _Product(x, y, cond, (a, b), a.den * b.den, big, a.top + b.top, {})
        return made[key]

    # one slot width bounds every row of the call
    jobs, big = [], 0
    for row in rows:
        job = [(c, product(x, y)) for c, x, y in row
               if terms(x)[0] and (y is None or terms(y)[0])]
        cond = math.lcm(*(c.n for c, _ in job), *(p.cond for _, p in job))
        den = math.lcm(*(c.den * p.den for c, p in job))
        scaled = [(den // (c.den * p.den), _multiplication(cond, c.lift(cond).num, p.cond), p)
                  for c, p in job]
        big = max(big, _slot_bound([(f, m, p.big) for f, m, p in scaled]))
        jobs.append((job, cond, den, scaled))
    width = _slot_width(big)

    def ints(p: _Product) -> list:
        """The folded coordinate ints of p at the call's width, made once."""
        if "ints" not in p.cache:
            packs = [_packed(g, width) for g in p.groups]
            p.cache["ints"] = packs[0] if len(packs) == 1 else _mul_num(p.cond, *packs)
        return p.cache["ints"]

    def indicator(x) -> dict:
        if id(x) not in indicators:
            indicators[id(x)] = _marks([(n, c.n) for n, c in terms(x)[0]], limit)
        return indicators[id(x)]

    def reached(p: _Product) -> dict:
        """The conductor indicator of the exponents p reaches, made once."""
        if "reached" not in p.cache:
            a = indicator(p.x)
            p.cache["reached"] = a if p.y is None else _paired(a, indicator(p.y))
        return p.cache["reached"]

    out = []
    for qs, bound, (job, cond, den, scaled) in zip(parts, bounds, jobs):
        if not qs:
            out.append(QExp.zero(empty))
            continue
        acc = _accumulate([(f, m, ints(p)) for f, m, p in scaled], euler_phi(cond))
        top = min(bound, max((p.top + 1 for _, p in job), default=0))
        conductor = _conductors([reached(p) for _, p in job if p.cond > 1]
                                + [{c.n: reached(p)[0]} for c, p in job if c.n > 1], limit)
        step, coeffs = h // math.lcm(*(q.h for q in qs)), {}
        for n, num in _decode(acc, top, width):
            coeffs[n // step] = _lowered(cond, conductor(n), num, den)
        out.append(_series(h // step, min(q.prec for q in qs), coeffs))
    return out


# terms lifted to one conductor: rows of (n, integer coordinates over den),
# big the largest |coordinate|, top the largest n and packs its ints per width (`_packed`)
_Group = namedtuple("_Group", "rows den big top packs")

# a product x * y (x alone where y is None) of a `combine_terms` call at cond,
# the lcm of their terms' conductors: groups x and y lifted to cond, den the
# product of their denominators, big a bound on each slot of its folded
# coordinates, top its largest exponent, and cache its folded ints and its
# conductor indicator, made at most once per call
_Product = namedtuple("_Product", "x y cond groups den big top cache")


def _lifted(group: list, cond: int) -> _Group:
    """The (n, x) terms, each x.n dividing cond, lifted together to cond over
    one denominator at the integer level: the form `combine_terms` packs and
    `hyperalg` stores, each term by `exactnum._lift_num`."""
    den = math.lcm(*{x.den for _, x in group})
    rows = [(n, num if x.den == den else tuple([a * (den // x.den) for a in num]))
            for n, x in group for num in [x.num if x.n == cond else _lift_num(x.num, x.n, cond)]]
    big = max(map(abs, chain.from_iterable([v for _, v in rows])), default=0)
    return _Group(rows, den, big, max(rows)[0] if rows else 0, {})


def _pack(rows: list, top: int, width: int) -> list:
    """One int per coordinate l of the (n, coords) rows, n <= top, in any
    order: the sum of coords[l] * 2^(8 * width * n).  Every caller's width
    keeps |coords[l]| < half = 2^(8 * width - 1), so the fields coords[l] +
    half are joined once and one fill int, half in every slot, subtracted."""
    half = 1 << (8 * width - 1)
    blank = half.to_bytes(width, "little")
    fill, out = int.from_bytes(blank * (top + 1), "little"), []
    for l in range(len(rows[0][1])):
        fields = [blank] * (top + 1)
        for n, coords in rows:
            fields[n] = (coords[l] + half).to_bytes(width, "little")
        out.append(int.from_bytes(b"".join(fields), "little") - fill)
    return out


def _packed(g: _Group, width: int) -> list:
    """g's `_pack` ints at width bytes, packed once per width: the one pack
    cache, of `combine_terms` and of the span reads of `hyperalg`."""
    if width not in g.packs:
        g.packs[width] = _pack(g.rows, g.top, width)
    return g.packs[width]


def _accumulate(terms, phi: int) -> list:
    """Per coordinate i < phi, the int sum over terms (s, m, ints) of s times
    row i of the integer matrix m applied to ints, one per coordinate l."""
    return [sum(s * v * z for s, m, ints in terms for v, z in zip(m[i], ints) if v)
            for i in range(phi)]


def _slot_bound(terms) -> int:
    """A bound on every slot of `_accumulate` over terms (s, m, ints) whose ints
    have slots at most big in absolute value, from their (s, m, big)."""
    return sum(s * max(sum(map(abs, r)) for r in m) * big for s, m, big in terms)


def _slot_width(bound: int) -> int:
    """The least width in bytes whose slots hold |x| <= bound: bound < 2^(8 * width - 1)."""
    return (bound.bit_length() + 8) // 8


def _marks(conds, limit: int) -> dict:
    """The conductor indicator of the (n, conductor) pairs conds, each n < limit:
    at 0 the 0/1 indicator of every n, at each k > 1 that of the n of conductor
    k, packed in slots of `_slot_width(limit)` bytes."""
    width = _slot_width(limit)
    flags = {k: bytearray(limit * width) for k in {0, *(k for _, k in conds)}}
    for n, k in conds:
        flags[0][n * width] = flags[k][n * width] = 1
    return {k: int.from_bytes(f, "little") for k, f in flags.items() if k != 1}


def _paired(a: dict, b: dict) -> dict:
    """The conductor indicator of the pairs of a term of `_marks` a and one of b
    at the sums of their exponents; a slot counts the pairs there, at most limit."""
    return {0: a[0] * b[0]} | {k: a.get(k, 0) * b[0] | b.get(k, 0) * a[0] for k in {*a, *b} - {0}}


def _conductors(marks: list, limit: int):
    """The function of n that gives the lcm of the k > 1 whose indicator in one
    of marks, `_marks` at limit or `_paired` products, has a nonzero slot n.
    Each k's indicator, OR-ed over marks, is read once, every slot it holds
    (paired sums reach 2 limit), into one table from slot to lcm."""
    width, table = _slot_width(limit), {}
    for k in {k for mark in marks for k in mark if k > 1}:
        x = reduce(or_, [mark.get(k, 0) for mark in marks])
        # byte n * width of the OR of x >> 8 j over j < width is nonzero where slot n is
        x = reduce(or_, [x >> 8 * j for j in range(width)])
        slots = compress(count(), x.to_bytes((x.bit_length() + 7) // 8, "little")[::width])
        table |= {n: math.lcm(table[n], k) if n in table else k for n in slots}
    return lambda n: table.get(n, 1)


@lru_cache(maxsize=None)
def _fold_growth(cond: int) -> int:
    """The largest sum over k < 2 phi(cond) - 1 of |coordinate j of x^k mod
    Phi_cond|: folding products of coordinates that are each at most B in
    absolute value gives coordinates at most this times B."""
    phi = euler_phi(cond)
    powers = [_reduce(cond, [0] * k + [1]) for k in range(2 * phi - 1)]
    return max(sum(abs(p[j]) for p in powers) for j in range(phi))


def _decode(accs: list, top: int, width: int):
    """Yield (n, the tuple of slot n of each of accs) for every n < top
    where a slot is nonzero.  Every slot is below half = 2^(8 * width - 1)
    in absolute value, so adding fill, half in each slot, carries nothing
    between slots; the low top slots of the sum are read as unsigned."""
    half, size = 1 << (8 * width - 1), top * width
    fill, mask = int.from_bytes(half.to_bytes(width, "little") * top, "little"), (1 << 8 * size) - 1
    slots = [[int.from_bytes(raw[at : at + width], "little") - half for at in range(0, size, width)]
             for raw in [((a + fill) & mask).to_bytes(size, "little") for a in accs]]
    for n, num in enumerate(zip(*slots)):
        if any(num):
            yield n, num


def slash_expand(f: QExp, k: int, m) -> QExp:
    """Re-expansion of f under an upper-triangular similitude action.

    m = (a, b, d) with a*d = M > 0 and 0 <= b < d.  Each stored term
    c*q^(n/h) contributes M^(k/2) * d^(-k) * c * zeta_{h*d}^(n*b) at
    exponent n*a/(h*d); the output lattice is h*d and the O-tail scales
    to prec * a/d.  Even k keeps M^(k/2) rational.  A rational c scales the
    coordinates of p * zeta^(n*b), p the numerator of M^(k/2) * d^(-k), each
    made once per call and (phase, conductor) by `exactnum._embed`.
    """
    a, b, d = m
    if k % 2 != 0:
        raise ValueError(f"weight must be even, got {k}")
    if a <= 0 or d <= 0:
        raise ValueError(f"similitude factors must be positive, got a={a}, d={d}")
    if not 0 <= b < d:
        raise ValueError(f"translation entry b={b} out of range [0, {d})")
    M = a * d
    scale = Fraction(M) ** (k // 2) / Fraction(d) ** k
    p, q, hd = scale.numerator, scale.denominator, f.h * d
    terms, roots = {}, {}
    for n, c in f.terms.items():
        # zeta_{hd}^(n*b) lives in conductor hd / gcd(n*b, hd): keep conductors tight
        ph = (n * b) % hd
        cond = math.lcm(c.n, hd // math.gcd(ph, hd))
        if c.n > 1:
            num = tuple([p * x for x in _embed(c.num, cond // c.n, ph * cond // hd, cond)])
        else:  # a rational c scales p * zeta_{hd}^ph, made once per (ph, cond)
            if (ph, cond) not in roots:
                roots[ph, cond] = _embed((p,), cond, ph * cond // hd, cond)
            num = tuple([c.num[0] * x for x in roots[ph, cond]])
        terms[n * a] = _make(cond, num, c.den * q)
    return _series(hd, f.prec * Fraction(a, d), terms)
