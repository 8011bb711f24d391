"""Truncated Fourier expansions with exponents in (1/h)Z.

A QExp stores coefficients for exponents n/h with 0 <= n/h < prec and an
O(q^prec) tail; prec is an exact rational and every operation returns the
largest truncation that is still sound.  Negative exponents are rejected:
only objects holomorphic at infinity occur here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import CycNum, as_cyc, format_rational, parse_rational


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
        if h % self.h != 0:
            raise ValueError(f"lattice {self.h} does not divide {h}")
        step = h // self.h
        return QExp(h, self.prec, {n * step: c for n, c in self.terms.items()})

    def _common(self, other: "QExp"):
        h = self.h * other.h // math.gcd(self.h, other.h)
        return self.rescale_lattice(h), other.rescale_lattice(h)

    def __add__(self, other):
        if not isinstance(other, QExp):
            return NotImplemented
        a, b = self._common(other)
        prec = min(a.prec, b.prec)
        terms = dict(a.terms)
        for n, c in b.terms.items():
            terms[n] = terms[n] + c if n in terms else c
        return QExp(a.h, prec, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QExp(self.h, self.prec, {n: -c for n, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, QExp):
            a, b = self._common(other)
            prec = min(a.prec, b.prec)
            bound = math.ceil(prec * a.h)
            terms: dict = {}
            for n1, c1 in a.terms.items():
                for n2, c2 in b.terms.items():
                    n = n1 + n2
                    if n >= bound:
                        continue
                    prod = c1 * c2
                    terms[n] = terms[n] + prod if n in terms else prod
            return QExp(a.h, prec, terms)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, s) -> "QExp":
        s = as_cyc(s)
        return QExp(self.h, self.prec, {n: s * c for n, c in self.terms.items()})

    def theta(self) -> "QExp":
        """q d/dq: multiply each term by its exponent."""
        return QExp(
            self.h, self.prec, {n: Fraction(n, self.h) * c for n, c in self.terms.items()}
        )

    def truncate(self, prec) -> "QExp":
        prec = Fraction(prec)
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend precision {self.prec} to {prec}"
            )
        return QExp(self.h, prec, self.terms)

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
        return QExp(
            int(obj["h"]),
            parse_rational(obj["prec"]),
            {int(n): CycNum.from_json(c) for n, c in obj["terms"]},
        )


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
