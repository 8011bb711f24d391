"""Truncated Fourier expansions with exponents in (1/h)Z.

A QExp stores coefficients for exponents n/h with 0 <= n/h < prec and an
O(q^prec) tail; prec is an exact rational and every operation returns the
largest truncation that is still sound.  Negative exponents are rejected:
only objects holomorphic at infinity occur here.  `terms` maps each n to
its nonzero coefficient; zero coefficients are never stored.

The public constructor coerces and checks every term.  Results built
here (sums, products, scalings, theta, lattice changes, truncations) go
through the trusted constructor `_series`, and each caller drops its own
zeros.

Products and sums of products are one multiply-accumulate kernel,
`combine`, by Kronecker substitution (D. Harvey, J. Symbolic Comput. 44,
2009).  Each factor's terms are grouped by conductor; a group meeting
another at the joint conductor N is lifted to N over one denominator and
packed once per call into a Python int, coordinate j of exponent n in
slot n*(2*phi(N) - 1) + j, at one slot width for the call (a scalar is a
one-term series).  The int products of a sum that share N are added
inside the packed int and decoded once, each coefficient reduced modulo
Phi_N.  A coefficient of the result has the lcm of the conductors of
every pair of terms that reaches its exponent, even where their sum
cancels, a rule that depends neither on the algorithm nor on the order
of summation; packed 0/1 indicators decide it where a decoded sum is 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exactnum import (
    CycNum, _make, _reduce, as_cyc, euler_phi, format_rational, json_int, parse_rational,
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

    @staticmethod
    def constant(c, prec) -> "QExp":
        return QExp(1, prec, {0: as_cyc(c)})

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
    it is QExp.zero at the least precision of all series.
    """
    rows = [[(c, q) for c, q in zip(row, series) if isinstance(c, QExp) or c] for row in rows]
    parts = [[x for pair in row for x in pair if isinstance(x, QExp)] for row in rows]
    h = math.lcm(*(x.h for xs in parts for x in xs))
    bounds = [math.ceil(min(x.prec for x in xs) * h) if xs else 0 for xs in parts]
    limit, classes, lifted, packed = max(bounds, default=0), {}, {}, {}

    def conductors(x) -> dict:
        """x's terms below every bound at lattice h, as (n, c) by conductor."""
        if id(x) not in classes:
            classes[id(x)] = groups = {}
            terms = x.rescale_lattice(h).terms if isinstance(x, QExp) else {0: as_cyc(x)}
            for n, c in terms.items():
                if n < limit:
                    groups.setdefault(c.n, []).append((n, c))
        return classes[id(x)]

    def lift(x, c: int, cond: int) -> _Group:
        key = (id(x), c, cond if c > 1 else 1)
        if key not in lifted:
            lifted[key] = _lifted(classes[id(x)][c], key[2])
        return lifted[key]

    def pack(g: _Group, stride: int) -> int:
        """g at the call's width; stride 0 packs the 0/1 indicator of its exponents."""
        if (id(g), stride) not in packed:
            rows = g.rows if stride else [(n, (1,)) for n, _ in g.rows]
            packed[id(g), stride] = _pack(rows, g.top, stride or 1, width)
        return packed[id(g), stride]

    # per row, the pairs of groups at each joint conductor over their common
    # denominator; one slot width bounds every packed sum of the call
    jobs, big = [], 0
    for row in rows:
        job: dict = {}
        for x, y in row:
            for ca in conductors(x):
                for cb in conductors(y):
                    cond = math.lcm(ca, cb)
                    job.setdefault(cond, []).append((lift(x, ca, cond), lift(y, cb, cond)))
        for cond, pairs in job.items():
            den = math.lcm(*(a.den * b.den for a, b in pairs))
            pairs = [(den // (a.den * b.den), a, b) for a, b in pairs]
            job[cond] = den, pairs
            size = sum(f * a.big * b.big * min(len(a.rows), len(b.rows)) for f, a, b in pairs)
            big = max(big, size * euler_phi(cond))
        jobs.append(job)
    width = (big.bit_length() + 8) // 8

    out = []
    for xs, bound, job in zip(parts, bounds, jobs):
        if not xs:
            out.append(QExp.zero(min(q.prec for q in series)))
            continue
        # per exponent: the sum of the decoded parts, and the lcm of the
        # joint conductors above 1 that reach it
        terms, reached = {}, {}
        for cond, (den, pairs) in sorted(job.items()):
            stride = 2 * euler_phi(cond) - 1
            acc = sum(f * pack(a, stride) * pack(b, stride) for f, a, b in pairs)
            top = min(bound, max(a.top + b.top + 1 for _, a, b in pairs))
            counts = (pack(a, 0) * pack(b, 0) for _, a, b in pairs)
            for n, part in _decode(acc, cond, den, top, width, counts):
                if cond > 1:
                    reached[n] = math.lcm(reached.get(n, 1), cond)
                if part is not None:
                    terms[n] = terms[n] + part if n in terms else part
        step = h // math.lcm(*(x.h for x in xs))
        terms = {n // step: c.lift(reached.get(n, 1)) for n, c in sorted(terms.items()) if c}
        out.append(_series(h // step, min(x.prec for x in xs), terms))
    return out


# terms lifted to one conductor: rows of (n, integer coordinates over den),
# big the largest |coordinate| and top the largest n
_Group = namedtuple("_Group", "rows den big top")


def _lifted(group: list, cond: int) -> _Group:
    """The (n, x) terms, each x.n dividing cond, lifted term by term to cond
    over one denominator: the form `combine` packs and `hyperalg` stores.
    At cond 1 a term keeps its one coordinate, the leading one at every
    joint conductor."""
    group = [(n, x if x.n == cond else x.lift(cond)) for n, x in group]
    den = math.lcm(*(x.den for _, x in group))
    rows = [(n, x.num if x.den == den else [a * (den // x.den) for a in x.num]) for n, x in group]
    return _Group(rows, den, max(max(map(abs, v)) for _, v in rows), max(n for n, _ in rows))


def _pack(rows: list, top: int, stride: int, width: int) -> int:
    """Sum of coords[j] * 2^(8 * width * (n * stride + j)) over (n, coords), n <= top."""
    size = (top + 1) * stride * width
    pos, neg = bytearray(size), bytearray(size)
    for n, coords in rows:
        at = n * stride * width
        for x in coords:
            if x > 0:
                pos[at : at + width] = x.to_bytes(width, "little")
            elif x < 0:
                neg[at : at + width] = (-x).to_bytes(width, "little")
            at += width
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _decode(acc: int, cond: int, den: int, top: int, width: int, counts):
    """Yield (n, the slots of n as a CycNum at cond over den, or None when
    they sum to zero) for every n < top that a pair of terms reaches.
    counts yields ints whose sum packs the number of such pairs per n at
    stride 1; it is summed only at a zero slot of a conductor above 1."""
    stride = 2 * euler_phi(cond) - 1
    size = top * stride * width
    raw = (acc & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    zero, hits, borrow = bytes(stride * width), None, False
    for n in range(top):
        at = n * stride * width
        block = []
        if borrow or not raw.startswith(zero, at):
            for s in range(at, at + stride * width, width):
                u = int.from_bytes(raw[s : s + width], "little") + borrow
                borrow = u >= half
                block.append(u - full if borrow else u)
        if any(block):
            coords = _reduce(cond, block) if cond > 1 else block
            yield n, _make(cond, tuple(coords), den) if any(coords) else None
        elif cond > 1:
            # a zero sum still sets the conductor when some pair reaches n
            if hits is None:
                span = top * width
                hits = (sum(counts) & ((1 << (8 * span)) - 1)).to_bytes(span, "little")
            if not hits.startswith(zero[:width], n * width):
                yield n, None


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
    scale = Fraction(M ** (k // 2), d**k)
    hd = f.h * d
    terms = {}
    for n, c in f.terms.items():
        coeff = scale * c
        ph = (n * b) % hd
        if ph:
            # keep conductors tight: zeta_{hd}^ph lives in conductor hd/gcd
            g = math.gcd(ph, hd)
            coeff = coeff * CycNum.zeta(hd // g, ph // g)
        terms[n * a] = coeff
    return QExp(hd, f.prec * Fraction(a, d), terms)
