"""Exact rational and cyclotomic arithmetic.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced).
A cyclotomic number is stored by a conductor n and its coordinates in the
power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), reduced modulo the n-th
cyclotomic polynomial.  Elements keep the conductor they were built with;
`reduce_conductor` is explicit and never applied behind the caller's back,
so equality and hashing go through a canonical reduced form instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Rational = Fraction


def parse_rational(s: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction."""
    return Fraction(s.strip())


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "a/b", or "a" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi undefined for {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Computed by exact division of x^n - 1 by the product of Phi_d over
    proper divisors d of n.
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {n}")
    if n == 1:
        return (-1, 1)
    # x^n - 1
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_divexact(num: list, den: list) -> list:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _reduce_mod_cyclotomic(n: int, coeffs: list) -> list:
    """Reduce a Fraction-coefficient polynomial mod Phi_n; length phi(n)."""
    phi = euler_phi(n)
    mod = cyclotomic_poly(n)
    deg = len(mod) - 1  # == phi
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            # mod is monic, subtract c * x^(i-deg) * Phi_n
            for j in range(deg + 1):
                work[i - deg + j] -= c * mod[j]
        work.pop()
    if len(work) < phi:
        work.extend([Fraction(0)] * (phi - len(work)))
    return work


class CycNum:
    """Element of Q(zeta_n) in the power basis modulo Phi_n.

    Arithmetic on mismatched conductors lifts both operands to the lcm
    via zeta_m -> zeta_n^(n/m).  All results are reduced modulo the
    cyclotomic polynomial of their conductor.
    """

    __slots__ = ("n", "c", "_reduced")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        phi = euler_phi(n)
        c = [Fraction(x) for x in coeffs]
        if len(c) > phi:
            c = _reduce_mod_cyclotomic(n, c)
        elif len(c) < phi:
            c.extend([Fraction(0)] * (phi - len(c)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", tuple(c))
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycNum":
        return CycNum(1, [Fraction(q)])

    @staticmethod
    def zero() -> "CycNum":
        return CycNum(1, [0])

    @staticmethod
    def one() -> "CycNum":
        return CycNum(1, [1])

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycNum":
        """zeta_n^power as an element of conductor n."""
        e = power % n
        coeffs = [Fraction(0)] * (e + 1)
        coeffs[e] = Fraction(1)
        return CycNum(n, coeffs)

    # -- conductor handling -------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Rewrite in conductor m; requires n | m."""
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        if m == self.n:
            return self
        step = m // self.n
        out = [Fraction(0)] * (euler_phi(self.n) * step + 1)
        for j, cj in enumerate(self.c):
            if cj:
                out[j * step] += cj
        return CycNum(m, out)

    def reduce_conductor(self) -> "CycNum":
        """Smallest divisor conductor representing the same element."""
        if self._reduced is not None:
            return self._reduced
        result = self
        if all(x == 0 for x in self.c[1:]):
            result = CycNum(1, [self.c[0]])
        elif self.n > 1:
            for m in _sorted_divisors(self.n)[:-1]:
                coords = _lower_to_conductor(self, m)
                if coords is not None:
                    result = CycNum(m, coords)
                    break
        object.__setattr__(self, "_reduced", result)
        return result

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c[0]

    # -- arithmetic ------------------------------------------------------

    def _pair(self, other):
        other = as_cyc(other)
        if self.n == other.n:
            return self, other
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return CycNum(a.n, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return CycNum(a.n, [x - y for x, y in zip(a.c, b.c)])

    def __rsub__(self, other):
        return as_cyc(other).__sub__(self)

    def __neg__(self):
        return CycNum(self.n, [-x for x in self.c])

    def __mul__(self, other):
        a, b = self._pair(other)
        if a.n == 1:
            return CycNum(1, [a.c[0] * b.c[0]])
        prod = [Fraction(0)] * (len(a.c) + len(b.c) - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        prod[i + j] += x * y
        return CycNum(a.n, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.n == 1:
            return CycNum(1, [1 / self.c[0]])
        # extended Euclid against Phi_n in Q[x]; Phi_n is irreducible, so
        # the gcd with any nonzero lower-degree polynomial is a unit.
        mod = [Fraction(x) for x in cyclotomic_poly(self.n)]
        r0, r1 = mod, list(self.c)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv = [x / r1[0] for x in s1]
                return CycNum(self.n, inv)
            q, rem = _poly_divmod(r0, r1)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, rem

    def __truediv__(self, other):
        other = as_cyc(other)
        if other.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_cyc(other).__truediv__(self)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CycNum.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "CycNum":
        """Complex conjugation zeta -> zeta^(-1)."""
        if self.n == 1:
            return self
        out = [Fraction(0)] * self.n
        for j, cj in enumerate(self.c):
            if cj:
                out[(-j) % self.n] += cj
        return CycNum(self.n, out)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_cyc(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.n == other.n:
            return self.c == other.c
        a, b = self._pair(other)
        return a.c == b.c

    def __hash__(self):
        r = self.reduce_conductor()
        if r.n == 1:
            return hash(r.c[0])
        return hash((r.n, r.c))

    def __bool__(self):
        return not self.is_zero()

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if self.is_rational():
            return format_rational(self.c[0])
        parts = []
        for j, cj in enumerate(self.c):
            if cj == 0:
                continue
            var = "" if j == 0 else (f"z{self.n}" if j == 1 else f"z{self.n}^{j}")
            if j == 0:
                parts.append(format_rational(cj))
            elif cj == 1:
                parts.append(var)
            elif cj == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{format_rational(cj)}*{var}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return f"({out})" if len(parts) > 1 else out

    def __repr__(self):
        return f"CycNum({self.n}, {[str(x) for x in self.c]})"

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"n": self.n, "c": [format_rational(x) for x in self.c]}

    @staticmethod
    def from_json(obj) -> "CycNum":
        return CycNum(int(obj["n"]), [parse_rational(s) for s in obj["c"]])


def as_cyc(x) -> CycNum:
    """Coerce int/Fraction/CycNum to CycNum."""
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum(1, [Fraction(x)])
    raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")


def _sorted_divisors(n: int) -> list:
    divs = []
    for d in range(1, n + 1):
        if n % d == 0:
            divs.append(d)
    return divs


def _lower_to_conductor(x: CycNum, m: int):
    """Coordinates of x in conductor m | n, or None if not representable."""
    from .linalg import _rref_inplace

    k = euler_phi(m)
    # columns: lifts of the conductor-m power basis, in conductor-n coords
    cols = [CycNum.zeta(m, j).lift(x.n).c for j in range(k)]
    aug = [[col[i] for col in cols] + [t] for i, t in enumerate(x.c)]
    # the lifted power basis is independent, so the pivots are 0..k-1
    _rref_inplace(aug, k + 1, stop_col=k)
    if any(row[k] for row in aug[k:]):
        return None
    return [row[k] for row in aug[:k]]


def _poly_divmod(num, den):
    num = list(num)
    dd = len(den) - 1
    while den and den[-1] == 0:
        den = den[:-1]
        dd -= 1
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd] / den[-1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return q, num[:dd]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


_BERNOULLI_CACHE = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, convention B_1 = -1/2.

    Recurrence sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1.
    """
    if k < 0:
        raise ValueError(f"bernoulli undefined for {k}")
    while len(_BERNOULLI_CACHE) <= k:
        n = len(_BERNOULLI_CACHE)
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-acc / (n + 1))
    return _BERNOULLI_CACHE[k]
