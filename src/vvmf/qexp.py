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
`combine`, by Kronecker substitution (D. Harvey, J. Symbolic Comput. 44,
2009).  A row of products is one job at its joint conductor N, the lcm of
its factors' conductors: each factor is lifted to N over one denominator
and packed once per call into a Python int, coordinate j of exponent n in
slot n*(2*phi(N) - 1) + j, at one slot width for the call (a scalar is a
one-term series), and the row's products are added in one int, decoded
once and reduced modulo Phi_N.  A coefficient has the lcm m of the
conductors of every pair of terms that reaches its exponent, even where
their sum cancels, a rule that depends neither on the algorithm nor on
the order of summation; products of narrow 0/1 indicators of each
conductor's terms decide it, and one CycNum is made at m per coefficient.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .exactnum import (
    CycNum, _embed, _make, _reduce, as_cyc, euler_phi, format_rational, json_int, parse_rational,
)
from .linalg import Matrix


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

    A row is one packed sum at its joint conductor N, one product per
    entry, decoded once.  Indicator products mark where a pair with a term
    at conductor c > 1 reaches; a coefficient's coordinates are lowered from
    N to the lcm m of its marked c (m = 1: coordinate 0; else `_lowering`).
    """
    rows = [[(c, q) for c, q in zip(row, series) if isinstance(c, QExp) or c] for row in rows]
    parts = [[x for pair in row for x in pair if isinstance(x, QExp)] for row in rows]
    h = math.lcm(*(x.h for xs in parts for x in xs))
    bounds = [math.ceil(min(x.prec for x in xs) * h) if xs else 0 for xs in parts]
    limit, found, lifted, packed, marked = max(bounds, default=0), {}, {}, {}, {}

    def terms(x) -> tuple:
        """(x's (n, c) terms below every bound at lattice h, their conductors)."""
        if id(x) not in found:
            q = x if isinstance(x, QExp) else QExp.constant(x, 1)
            step = h // q.h
            t = [(n * step, c) for n, c in q.terms.items() if n * step < limit]
            found[id(x)] = t, {c.n for _, c in t}
        return found[id(x)]

    def lift(x, cond: int) -> _Group:
        if (id(x), cond) not in lifted:
            lifted[id(x), cond] = _lifted(terms(x)[0], cond)
        return lifted[id(x), cond]

    def pack(g: _Group, stride: int) -> int:
        if (id(g), stride) not in packed:
            packed[id(g), stride] = _pack(g.rows, g.top, stride, width)
        return packed[id(g), stride]

    def marks(x, c: int) -> int:
        """The 0/1 indicator of x's exponents whose term has conductor c (any for 0)."""
        if (id(x), c) not in marked:
            ns = [n for n, t in terms(x)[0] if c in (0, t.n)]
            marked[id(x), c] = _pack([(n, (1,)) for n in ns], max(ns), 1, narrow)
        return marked[id(x), c]

    # one slot width bounds every packed sum of the call, and one narrow
    # width every sum of indicator products
    jobs, big, most = [], 0, 1
    for row in rows:
        row = [(x, y) for x, y in row if terms(x)[0] and terms(y)[0]]
        cond = math.lcm(*(c for pair in row for x in pair for c in terms(x)[1]))
        pairs = [(lift(x, cond), lift(y, cond)) for x, y in row]
        den = math.lcm(*(a.den * b.den for a, b in pairs))
        pairs = [(den // (a.den * b.den), a, b) for a, b in pairs]
        size = sum(f * a.big * b.big * min(len(a.rows), len(b.rows)) for f, a, b in pairs)
        big = max(big, size * euler_phi(cond))
        most = max(most, sum(2 * min(len(a.rows), len(b.rows)) for _, a, b in pairs))
        jobs.append((row, cond, den, pairs))
    width, narrow = (big.bit_length() + 8) // 8, (most.bit_length() + 7) // 8

    out, blank = [], bytes(narrow)
    for xs, bound, (row, cond, den, pairs) in zip(parts, bounds, jobs):
        if not xs:
            out.append(QExp.zero(min(q.prec for q in series)))
            continue
        stride = 2 * euler_phi(cond) - 1
        acc = sum(f * pack(a, stride) * pack(b, stride) for f, a, b in pairs)
        top = min(bound, max((a.top + b.top + 1 for _, a, b in pairs), default=0))
        reach: dict = {}
        for x, y in row:
            for u, v in ((x, y), (y, x)):
                for c in terms(u)[1] - {1}:
                    reach[c] = reach.get(c, 0) + marks(u, c) * marks(v, 0)
        hits = [(c, _low_bytes(r, top * narrow)) for c, r in reach.items()]
        step, coeffs = h // math.lcm(*(x.h for x in xs)), {}
        for n, num in _decode(acc, cond, top, width):
            m, d = math.lcm(*(c for c, hit in hits if not hit.startswith(blank, n * narrow))), 1
            if m == 1:
                num = num[:1]
            elif m != cond:
                low, d = _lowering(cond, m)
                num = [sum(map(operator.mul, r, num)) for r in low]
            coeffs[n // step] = _make(m, tuple(num), den * d)
        out.append(_series(h // step, min(x.prec for x in xs), coeffs))
    return out


# terms lifted to one conductor: rows of (n, integer coordinates over den),
# big the largest |coordinate| and top the largest n
_Group = namedtuple("_Group", "rows den big top")


def _lifted(group: list, cond: int) -> _Group:
    """The (n, x) terms, each x.n dividing cond, lifted together to cond over
    one denominator at the integer level: the form `combine` packs and
    `hyperalg` stores.  A rational x becomes (x, 0, ...), so coordinate 0
    leads at every conductor."""
    den, pad, rows = math.lcm(*(x.den for _, x in group)), (0,) * (euler_phi(cond) - 1), []
    for n, x in group:
        num = x.num
        if x.n != cond:
            num = num + pad if x.n == 1 else _embed(num, cond // x.n, 0, cond)
        if x.den != den:
            num = tuple([a * (den // x.den) for a in num])
        rows.append((n, num))
    big = max(map(abs, chain.from_iterable([v for _, v in rows])))
    return _Group(rows, den, big, max(n for n, _ in rows))


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


def _decode(acc: int, cond: int, top: int, width: int):
    """Yield (n, its slots reduced modulo Phi_cond) for every n < top where
    they are nonzero.  Every slot is below half = 2^(8 * width - 1) in
    absolute value, so adding half to each carries nothing between slots."""
    half = 1 << (8 * width - 1)
    blank = half.to_bytes(width, "little") * (2 * euler_phi(cond) - 1)
    size = top * len(blank)
    raw = _low_bytes(acc + int.from_bytes(blank * top, "little"), size)
    for at in range(0, size, len(blank)):
        if not raw.startswith(blank, at):
            block = [int.from_bytes(raw[s : s + width], "little") - half
                     for s in range(at, at + len(blank), width)]
            num = _reduce(cond, block) if cond > 1 else block
            if any(num):
                yield at // len(blank), num


def _low_bytes(x: int, size: int) -> bytes:
    """The size low bytes of x in two's complement, little-endian."""
    return (x & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


@lru_cache(maxsize=None)
def _lowering(cond: int, m: int) -> tuple:
    """(P, d), P an integer phi(m) x phi(cond) matrix: an element of Q(zeta_m),
    m | cond, with coordinates u at cond has coordinates P u / d at m.  P / d
    is the left inverse (L^T L)^-1 L^T of the lift L from m to cond."""
    lt = Matrix.from_rows(CycNum.zeta(m, l).lift(cond).num for l in range(euler_phi(m)))
    left = (lt * lt.transpose()).inverse() * lt
    low = [[x.rational_value() for x in r] for r in left.to_rows()]
    d = math.lcm(*(x.denominator for r in low for x in r))
    return tuple(tuple(int(x * d) for x in r) for r in low), d


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
    p, q, hd = scale.numerator, scale.denominator, f.h * d
    terms = {}
    for n, c in f.terms.items():
        # zeta_{hd}^(n*b) lives in conductor hd / gcd(n*b, hd): keep conductors tight
        ph = (n * b) % hd
        cond = math.lcm(c.n, hd // math.gcd(ph, hd))
        num = _embed(c.num, cond // c.n, ph * cond // hd, cond)
        terms[n * a] = _make(cond, tuple([p * x for x in num]), c.den * q)
    return _series(hd, f.prec * Fraction(a, d), terms)
