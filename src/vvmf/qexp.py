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

Products use Kronecker substitution (D. Harvey, J. Symbolic Comput. 44,
2009).  The terms of each operand are grouped by conductor.  For each
pair of groups, both are lifted to the joint conductor N, put over one
denominator and packed into one Python int, with power-basis coordinate j
of exponent n in slot n*(2*phi(N) - 1) + j; one int multiplication then
gives every convolution, and each output coefficient is reduced modulo
Phi_N.  A coefficient of the product has the lcm of the conductors of
every pair of terms that contributes to it, even where their sum
cancels: the rule of a termwise product, kept so that the output bytes
do not depend on the algorithm.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import CycNum, _make, _reduce, as_cyc, euler_phi, format_rational, parse_rational


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

    @staticmethod
    def from_coeffs(coeffs, prec=None) -> "QExp":
        """Integer-lattice series from a list of coefficients."""
        if prec is None:
            prec = len(coeffs)
        return QExp(1, prec, {n: c for n, c in enumerate(coeffs)})

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
        if not isinstance(other, QExp):
            return self.scaled(other)
        a, b = self._common(other)
        prec = min(a.prec, b.prec)
        bound = math.ceil(prec * a.h)
        # per exponent: the sum so far and the lcm of the contributing pairs' conductors
        terms: dict = {}
        conductors: dict = {}
        groups_b = _by_conductor(b.terms, bound)
        for na, ga in _by_conductor(a.terms, bound).items():
            for nb, gb in groups_b.items():
                cond = math.lcm(na, nb)
                for n, part in _packed_product(ga, gb, cond, bound):
                    conductors[n] = math.lcm(conductors.get(n, 1), cond)
                    if part is not None:
                        terms[n] = terms[n] + part if n in terms else part
        terms = {n: c.lift(conductors[n]) for n, c in sorted(terms.items()) if c}
        return _series(a.h, prec, terms)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, s) -> "QExp":
        s = as_cyc(s)
        return _series(self.h, self.prec, {n: s * c for n, c in self.terms.items()} if s else {})

    def theta(self) -> "QExp":
        """q d/dq: multiply each term by its exponent."""
        return _series(
            self.h,
            self.prec,
            {n: Fraction(n, self.h) * c for n, c in self.terms.items() if n},
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
        if not isinstance(obj.get("terms"), list):
            raise ValueError(f'series "terms" is a list of [n, c] pairs, got {obj.get("terms")!r}')
        terms = {}
        for term in obj["terms"]:
            if not isinstance(term, list) or len(term) != 2 or type(term[0]) is not int:
                raise ValueError(f"a series term is [integer exponent, coefficient], got {term!r}")
            if term[0] in terms:
                raise ValueError(f"exponent {term[0]} is repeated in a series")
            terms[term[0]] = CycNum.from_json(term[1])
        return QExp(int(obj["h"]), parse_rational(obj["prec"]), terms)


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


def _by_conductor(terms: dict, bound: int) -> dict:
    """Terms below bound as lists of (n, coefficient), keyed by conductor."""
    groups: dict = {}
    for n, c in terms.items():
        if n < bound:
            groups.setdefault(c.n, []).append((n, c))
    return groups


def _lifted(group: list, cond: int):
    """Integer coordinates of a group at conductor cond over one denominator."""
    lifted = [(n, c.lift(cond)) for n, c in group]
    den = math.lcm(*(c.den for _, c in lifted))
    return [(n, [x * (den // c.den) for x in c.num]) for n, c in lifted], den


def _pack(rows: list, stride: int, width: int) -> int:
    """Sum of coords[j] * 2^(8 * width * (n * stride + j)) over (n, coords)."""
    size = (max(n for n, _ in rows) + 1) * stride * width
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


def _packed_product(ga: list, gb: list, cond: int, bound: int):
    """Yield (n, sum of c1 * c2 over the pairs with n1 + n2 = n) for every
    n < bound that such a pair reaches, at conductor cond; the sum is None
    when it cancels."""
    phi = euler_phi(cond)
    stride = 2 * phi - 1
    xa, da = _lifted(ga, cond)
    xb, db = _lifted(gb, cond)
    # bound on |slot|: at most min(len) pairs of terms times phi coordinate pairs
    big = max(abs(x) for _, v in xa for x in v) * max(abs(y) for _, v in xb for y in v)
    width = ((big * min(len(xa), len(xb)) * phi).bit_length() + 8) // 8
    top = min(bound, max(n for n, _ in xa) + max(n for n, _ in xb) + 1)
    size = top * stride * width
    prod = _pack(xa, stride, width) * _pack(xb, stride, width)
    raw = (prod & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    den, block_zero = da * db, bytes(stride * width)
    reached = None
    borrow = False
    for n in range(top):
        at = n * stride * width
        block = []
        if borrow or not raw.startswith(block_zero, at):
            for s in range(at, at + stride * width, width):
                u = int.from_bytes(raw[s : s + width], "little") + borrow
                borrow = u >= half
                block.append(u - full if borrow else u)
        if any(block):
            coords = _reduce(cond, block) if cond > 1 else block
            yield n, _make(cond, tuple(coords), den) if any(coords) else None
        elif cond > 1:
            # a zero sum still sets the conductor when some pair reaches n
            if reached is None:
                reached = _reached([m for m, _ in xa], [m for m, _ in xb], top)
            if n in reached:
                yield n, None


def _reached(sa: list, sb: list, top: int) -> set:
    """The n < top with n = n1 + n2 for some n1 in sa and n2 in sb, read off
    the product of the packed 0/1 indicators of sa and sb."""
    width = (min(len(sa), len(sb)).bit_length() + 7) // 8
    prod = _pack([(n, (1,)) for n in sa], 1, width) * _pack([(n, (1,)) for n in sb], 1, width)
    raw = (prod & ((1 << (8 * top * width)) - 1)).to_bytes(top * width, "little")
    zero = bytes(width)
    return {n for n in range(top) if not raw.startswith(zero, n * width)}


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
