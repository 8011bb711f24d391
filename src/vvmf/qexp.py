"""Truncated Fourier expansions with exponents in (1/h)Z.

A QExp stores coefficients for exponents n/h with 0 <= n/h < prec and an
O(q^prec) tail; prec is an exact rational and every operation returns the
largest truncation that is still sound.  Negative exponents are rejected:
only objects holomorphic at infinity occur here.  `terms` maps each n to
its nonzero coefficient; zero coefficients are never stored.

The public constructor coerces and checks every term.  Results built
here (sums, products, scalings, slash images, theta, lattice changes,
truncations) go through the trusted constructor `_series`, and each
caller drops its own zeros.

Products and sums of products are one multiply-accumulate kernel,
`combine_terms`, by Kronecker substitution (D. Harvey, J. Symbolic
Comput. 44, 2009): each distinct product of a call is made once on
factors packed in one pass, one Python int per power-basis coordinate,
folded modulo the cyclotomic polynomial on the packed ints, and shared by
every row that scales it; a row is decoded a coordinate at a time.  A
coefficient has the lcm of the conductors of every term and pair of terms
that reaches its exponent, even where their sum cancels, a rule that
depends neither on the algorithm nor on the order of summation.
Conductors change by the maps of `exactnum`: the lift `_lift_num`, the
multiplication matrix `_multiplication` and the lowering `_lowering`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .exactnum import (
    CycNum, _embed, _lift_num, _lowering, _make, _mul_num, _multiplication, _reduce, as_cyc,
    euler_phi, format_rational, json_int, parse_rational,
)


class InsufficientPrecision(Exception):
    """A requested computation is not covered by the stored precision."""


class QExp:
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

    def __setattr__(self, name, value):
        raise AttributeError("QExp is immutable")

    @staticmethod
    def zero(prec, h: int = 1) -> "QExp":
        return QExp(h, prec, {})

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

    def exponents(self) -> list:
        return sorted(Fraction(n, self.h) for n in self.terms)

    def rescale_lattice(self, h: int) -> "QExp":
        if h == self.h:
            return self
        if h % self.h != 0:
            raise ValueError(f"lattice {self.h} does not divide {h}")
        step = h // self.h
        return _series(h, self.prec, {n * step: c for n, c in self.terms.items()})

    def _common(self, other: "QExp"):
        h = self.h * other.h // math.gcd(self.h, other.h)
        return self.rescale_lattice(h), other.rescale_lattice(h)

    def __add__(self, other):
        if not isinstance(other, QExp):
            return NotImplemented
        a, b = self._common(other)
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

    def __rmul__(self, other):
        return self.scaled(other)

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
        if self.prec != other.prec:
            return False
        a, b = self._common(other)
        return a.terms == b.terms

    def agrees_with(self, other: "QExp", prec=None) -> bool:
        """Termwise agreement below prec (default: common sound precision)."""
        if prec is None:
            prec = min(self.prec, other.prec)
        prec = Fraction(prec)
        if prec > self.prec or prec > other.prec:
            raise InsufficientPrecision("comparison beyond stored precision")
        a, b = self._common(other)
        bound = prec * a.h
        keys = {n for n in a.terms if n < bound} | {n for n in b.terms if n < bound}
        return all(
            a.terms.get(n, CycNum.zero()) == b.terms.get(n, CycNum.zero()) for n in keys
        )

    def __repr__(self):
        return f"QExp({self.to_text()})"

    def to_text(self) -> str:
        parts = []
        for n in sorted(self.terms):
            c = self.terms[n]
            cs = str(c)
            if n == 0:
                parts.append(cs)
            else:
                e = Fraction(n, self.h)
                mono = f"q^({format_rational(e)})" if e != 1 else "q"
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{cs}*{mono}")
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"{body} + O(q^({format_rational(self.prec)}))"

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


# the slot setters bypass QExp.__setattr__, which refuses every write
_new_object = object.__new__
_set_h, _set_prec, _set_terms = (getattr(QExp, name).__set__ for name in QExp.__slots__)


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
    (`_pack`), and the coordinate-pair products are folded modulo Phi_n on
    those ints (`exactnum._mul_num`).  A row at its joint conductor N, the lcm of
    its terms' c.n and n, applies each c as the integer matrix of c times
    Q(zeta_n) in Q(zeta_N) (`_multiplication`) to the shared product and
    decodes its phi(N) sums once.  One slot width holds every row of the
    call: per term, the matrix's largest row sum times the product's slot
    bound, `_fold_growth(n)` * phi(n) * (pairs of terms per exponent) *
    (the factors' largest coordinates).

    A coefficient has the lcm m of c.n and the pair's term conductors, over
    every term and pair of terms that reaches its exponent, even where
    their sum cancels; products of narrow 0/1 indicators of each
    conductor's terms decide it, and the coefficient's coordinates are
    lowered from N to m (m = 1: coordinate 0; else `_lowering`).
    """
    rows = [[(as_cyc(c), x, y) for c, x, y in row if c] for row in rows]
    parts = [[q for _, x, y in row for q in (x, y) if q is not None] for row in rows]
    h = math.lcm(*(q.h for qs in parts for q in qs))
    bounds = [math.ceil(min(q.prec for q in qs) * h) if qs else 0 for qs in parts]
    limit, found, lifted, packed, made, marked = max(bounds, default=0), {}, {}, {}, {}, {}

    def terms(x) -> tuple:
        """(x's (n, c) terms below every bound at lattice h, their conductors)."""
        if id(x) not in found:
            step = h // x.h
            t = [(n * step, c) for n, c in x.terms.items() if n * step < limit]
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
            conds = terms(x)[1] | (terms(y)[1] if y is not None else set())
            cond = math.lcm(*conds)
            if y is None:
                a = lift(x, cond)
                made[key] = _Product(x, y, conds, cond, (a,), a.den, a.big, a.top, 1, {})
            else:
                a, b = lift(x, cond), lift(y, cond)
                count = min(len(a.rows), len(b.rows))
                big = _fold_growth(cond) * euler_phi(cond) * count * a.big * b.big
                made[key] = _Product(x, y, conds, cond, (a, b), a.den * b.den, big,
                                     a.top + b.top, count, {})
        return made[key]

    # one slot width bounds every row of the call, and one narrow width
    # every sum of indicator products
    jobs, big, most = [], 0, 1
    for row in rows:
        job = [(c, product(x, y)) for c, x, y in row
               if terms(x)[0] and (y is None or terms(y)[0])]
        cond = math.lcm(*(c.n for c, _ in job), *(p.cond for _, p in job))
        den = math.lcm(*(c.den * p.den for c, p in job))
        scaled, size = [], 0
        for c, p in job:
            f, m = den // (c.den * p.den), _multiplication(cond, c.lift(cond).num, p.cond)
            m = [[f * v for v in r] for r in m] if f != 1 else m
            size += max(sum(map(abs, r)) for r in m) * p.big
            scaled.append((m, p))
        big = max(big, size)
        most = max(most, sum(3 * p.count for _, p in job))
        jobs.append((job, cond, den, scaled))
    width, narrow = (big.bit_length() + 8) // 8, (most.bit_length() + 7) // 8

    def pack(g: _Group) -> list:
        if id(g) not in packed:
            packed[id(g)] = _pack(g.rows, g.top, width)
        return packed[id(g)]

    def ints(p: _Product) -> list:
        """The folded coordinate ints of p at the call's width, made once."""
        if "ints" not in p.cache:
            packs = [pack(g) for g in p.groups]
            p.cache["ints"] = packs[0] if len(packs) == 1 else _mul_num(p.cond, *packs)
        return p.cache["ints"]

    def marks(x, c: int) -> int:
        """The 0/1 indicator of x's exponents whose term has conductor c (any for 0)."""
        if (id(x), c) not in marked:
            ns = [(n, (1,)) for n, t in terms(x)[0] if c in (0, t.n)]
            marked[id(x), c] = _pack(ns, max(n for n, _ in ns), narrow)[0]
        return marked[id(x), c]

    def reach(p: _Product, c: int) -> int:
        """The indicator of the exponents that p reaches with a term of
        conductor c > 1 (with any term for 0), made once."""
        if c not in p.cache:
            x, y = p.x, p.y
            if y is None:
                p.cache[c] = marks(x, c)
            elif c == 0:
                p.cache[c] = marks(x, 0) * marks(y, 0)
            else:
                p.cache[c] = sum(marks(u, c) * marks(v, 0)
                                 for u, v in ((x, y), (y, x)) if c in terms(u)[1])
        return p.cache[c]

    out, blank = [], bytes(narrow)
    for qs, bound, (job, cond, den, scaled) in zip(parts, bounds, jobs):
        if not qs:
            out.append(QExp.zero(empty))
            continue
        acc = [0] * euler_phi(cond)
        for m, p in scaled:
            zs = ints(p)
            for i, r in enumerate(m):
                for v, z in zip(r, zs):
                    if v:
                        acc[i] += v * z
        top = min(bound, max((p.top + 1 for _, p in job), default=0))
        hits: dict = {}
        for c, p in job:
            for k in p.conds - {1}:
                hits[k] = hits.get(k, 0) + reach(p, k)
            if c.n > 1:
                hits[c.n] = hits.get(c.n, 0) + reach(p, 0)
        hits = [(k, _low_bytes(r, top * narrow)) for k, r in hits.items()]
        step, coeffs = h // math.lcm(*(q.h for q in qs)), {}
        for n, num in _decode(acc, top, width):
            m, d = 1, 1
            for k, hit in hits:
                if not hit.startswith(blank, n * narrow):
                    m = math.lcm(m, k)
            if m == 1:
                num = num[:1]
            elif m != cond:
                low, d = _lowering(cond, m)
                num = tuple([sum(map(operator.mul, r, num)) for r in low])
            coeffs[n // step] = _make(m, num, den * d)
        out.append(_series(h // step, min(q.prec for q in qs), coeffs))
    return out


# terms lifted to one conductor: rows of (n, integer coordinates over den),
# big the largest |coordinate| and top the largest n
_Group = namedtuple("_Group", "rows den big top")

# a product x * y (x alone where y is None) of a `combine_terms` call:
# conds the conductors of their terms and cond their lcm, groups x and y
# lifted to cond, den the product of their denominators, big a bound on
# each slot of its folded coordinates, top its largest exponent, count the
# most pairs of terms per exponent, and cache its folded ints and its
# indicators, made at most once per call
_Product = namedtuple("_Product", "x y conds cond groups den big top count cache")


def _lifted(group: list, cond: int) -> _Group:
    """The (n, x) terms, each x.n dividing cond, lifted together to cond over
    one denominator at the integer level: the form `combine_terms` packs and
    `hyperalg` stores, each term by `exactnum._lift_num`."""
    den = math.lcm(*{x.den for _, x in group})
    rows = [(n, _lift_num(x.num, x.n, cond) if x.den == den else
             tuple([a * (den // x.den) for a in _lift_num(x.num, x.n, cond)])) for n, x in group]
    big = max(map(abs, chain.from_iterable([v for _, v in rows])), default=0)
    return _Group(rows, den, big, max(rows)[0] if rows else 0)


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
    between slots."""
    half, size = 1 << (8 * width - 1), top * width
    fill = int.from_bytes(half.to_bytes(width, "little") * top, "little")
    slots = [[int.from_bytes(raw[at : at + width], "little") - half for at in range(0, size, width)]
             for raw in [_low_bytes(a + fill, size) for a in accs]]
    for n, num in enumerate(zip(*slots)):
        if any(num):
            yield n, num


def _low_bytes(x: int, size: int) -> bytes:
    """The size low bytes of x in two's complement, little-endian."""
    return (x & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def slash_expand(f: QExp, k: int, m) -> QExp:
    """Re-expansion of f under an upper-triangular similitude action.

    m = (a, b, d) with a*d = M > 0 and 0 <= b < d.  Each stored term
    c*q^(n/h) contributes M^(k/2) * d^(-k) * c * zeta_{h*d}^(n*b) at
    exponent n*a/(h*d); the output lattice is h*d and the O-tail scales
    to prec * a/d.  Even k keeps M^(k/2) rational.
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
    terms = {}
    for n, c in f.terms.items():
        # zeta_{hd}^(n*b) lives in conductor hd / gcd(n*b, hd): keep conductors tight
        ph = (n * b) % hd
        cond = math.lcm(c.n, hd // math.gcd(ph, hd))
        num = _embed(c.num, cond // c.n, ph * cond // hd, cond)
        terms[n * a] = _make(cond, tuple([p * x for x in num]), c.den * q)
    return _series(hd, f.prec * Fraction(a, d), terms)
