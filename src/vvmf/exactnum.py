"""Exact rational and cyclotomic arithmetic.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced).
A cyclotomic number of conductor n is stored as integer numerators over
one common denominator: `num` holds phi(n) Python ints and `den` a
positive int, and the element is sum_j num[j] * z^j / den in the power
basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), reduced modulo the n-th
cyclotomic polynomial.  The form is canonical, gcd(den, *num) == 1 and
zero is (0, ...)/1, so equality at one conductor compares int tuples.

The public constructor coerces its coefficients (ints, Fractions, or
strings such as "1/2") once.  Ring operations work on ints only: integer
convolution, integer reduction modulo the monic Phi_n, one gcd, and they
build their results through the trusted constructor `_make`.  Conductor 1
(the rationals) takes a scalar path.  The `Fraction` view `.c` serves
rendering and JSON only.

Elements keep the conductor they were built with; `reduce_conductor` is
explicit and never applied behind the caller's back, so equality and
hashing go through a canonical reduced form instead.

Integer coordinates move between Q(zeta_m) and Q(zeta_n), m | n, by one
pair of maps shared with the series kernel and the span reads: the lift
`_lift_num` and the one decoder `_lowered`, a field trace taken one prime at
a time.  `reduce_conductor` takes the first divisor whose lowering lifts back
to the element.  `_embed` is also the one Galois map: sigma_k on coordinates
at n is `_embed(num, k, 0, n)`.

The number theory reads one list, `prime_divisors(n)`: phi(n) = n * prod (p - 1) / p,
and Phi_n is a Moebius product taken as a power series.  `Immutable` is the one
base of the value types; its `__setattr__` refuses every write.  `_pow` is the
one square-and-multiply, of numbers and of matrices, and `_sum_text` the one
writer of a sum of terms, for `CycNum.__str__` and `QExp.to_text`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache


def parse_rational(s: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction."""
    if not isinstance(s, str):
        raise ValueError(f'a rational is a string "a/b" or "a", got {s!r}')
    return Fraction(s.strip())


def json_int(obj: dict, key: str, what: str) -> int:
    """obj[key], which must be a JSON integer (not a float, string, bool or null)."""
    if key not in obj:
        raise ValueError(f'a {what} has no "{key}" field')
    x = obj[key]
    if type(x) is not int:
        raise ValueError(f'{what} "{key}" must be a JSON integer, got {json.dumps(x)}')
    return x


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "a/b", or "a" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def divisors(n: int) -> list:
    """The positive divisors of n in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def prime_divisors(n: int) -> list:
    """The primes dividing n in ascending order: each divisor above 1 that no
    smaller prime divisor divides."""
    out = []
    for d in divisors(n)[1:]:
        if all(d % p for p in out):
            out.append(d)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n) = n * prod (p - 1) / p over the primes p dividing n."""
    if n < 1:
        raise ValueError(f"euler_phi undefined for {n}")
    primes = prime_divisors(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


def cyclotomic_poly(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    For n > 1 it is the power series prod (1 - x^d)^mu(n/d) over d | n with n/d
    squarefree, to degree phi(n): mu = 1 is a descending difference out[i] -=
    out[i - d], mu = -1 (the series sum_k x^(kd)) an ascending running sum.
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {n}")
    if n == 1:
        return (-1, 1)
    factors = [(n, 1)]
    for p in prime_divisors(n):
        factors += [(d // p, -mu) for d, mu in factors]
    deg = euler_phi(n)
    out = [1] + [0] * deg
    for d, mu in factors:
        for i in range(deg, d - 1, -1) if mu == 1 else range(d, deg + 1):
            out[i] -= mu * out[i - d]
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple:
    """(phi(n), pairs (j, -Phi_n[j]) for the nonzero j < phi(n)).

    Phi_n is monic, so x^phi(n) == sum of -Phi_n[j] * x^j modulo Phi_n.
    """
    mod = cyclotomic_poly(n)
    return len(mod) - 1, tuple((j, -c) for j, c in enumerate(mod[:-1]) if c)


def _reduce(n: int, coeffs: list) -> tuple:
    """Integer polynomial (low degree first) mod Phi_n, as phi(n) ints.

    Consumes coeffs as scratch space.
    """
    deg, tail = _phi_tail(n)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            base = i - deg
            for j, t in tail:
                coeffs[base + j] += c * t
    if len(coeffs) < deg:
        coeffs.extend([0] * (deg - len(coeffs)))
    return tuple(coeffs[:deg])


def _embed(num, step: int, shift: int, n: int) -> tuple:
    """Coordinates at conductor n of sum_j num[j] * zeta_n^(j * step + shift),
    for step >= 1.  With step k prime to n and shift 0 it is the Galois map
    sigma_k: zeta_n -> zeta_n^k, since x^(jk) == x^(jk mod n) modulo Phi_n."""
    out = [0] * (shift + (len(num) - 1) * step + 1)
    out[shift::step] = num
    if len(out) > 2 * n:  # only a Galois step gets here; zeta_n^n = 1 folds it to n
        out = [sum(out[i::n]) for i in range(n)]
    return _reduce(n, out)


def _lift_num(num: tuple, m: int, n: int) -> tuple:
    """Integer coordinates at n of the element with coordinates num at m | n,
    by zeta_m -> zeta_n^(n/m).  A rational becomes (x, 0, ...), so
    coordinate 0 leads at every conductor."""
    if m == n:
        return num
    return num + (0,) * (euler_phi(n) - 1) if m == 1 else _embed(num, n // m, 0, n)


def _multiplication(cond: int, num: tuple, n: int) -> list:
    """M with M[i][l] the coordinate i of num * zeta_n^l modulo Phi_cond,
    for num at conductor cond and n | cond: M takes an element of Q(zeta_n)
    to num times it."""
    step = cond // n
    return list(zip(*[_embed(num, 1, l * step, cond) for l in range(euler_phi(n))]))


def _lowered(cond: int, m: int, num: tuple, den: int) -> "CycNum":
    """The element num / den at cond, which lies in Q(zeta_m), m | cond, written at m:
    num itself for m == cond, coordinate 0 for m == 1, else one prime p of cond / m at a
    time, n -> k = n / p.  For p | k, Phi_n(x) = Phi_k(x^p) and the coordinates at k are
    num[::p].  Else the element is its trace to Q(zeta_k) over p - 1: with b = p^-1 mod k,
    zeta_n^i has trace zeta_k^(b i) times p - 1 if p | i and times -1 if not (see
    L. C. Washington, Introduction to Cyclotomic Fields)."""
    if m == cond or m == 1:
        return _make(m, num if m == cond else num[:1], den)
    n = cond
    for p in prime_divisors(cond // m):
        while n // m % p == 0:
            k = n // p
            if k % p == 0:
                num = num[::p]
            else:
                b, out = pow(p, -1, k), [0] * k
                for i, c in enumerate(num):
                    out[b * i % k] += c * (p - 1) if i % p == 0 else -c
                num, den = _reduce(k, out), den * (p - 1)
            n = k
    return _make(m, num, den)


def _mul_num(n: int, x: tuple, y: tuple) -> tuple:
    """Product of two integer coordinate tuples of conductor n."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    return _reduce(n, prod)


def _sum_text(terms) -> str:
    """The sum of (coefficient text, monomial or "") terms, "0" for none: a 1 or -1 before
    a monomial shows only its sign, and a term whose text starts with "-" is subtracted."""
    out = ""
    for text, mono in terms:
        if mono:
            text = mono if text == "1" else f"-{mono}" if text == "-1" else f"{text}*{mono}"
        out += text if not out else f" - {text[1:]}" if text[0] == "-" else f" + {text}"
    return out or "0"


def _pow(x, e: int, one):
    """x^e for e >= 0 (one for e == 0) by square-and-multiply: the power of numbers and matrices."""
    if e < 2:
        return x if e else one
    half = _pow(x * x, e >> 1, one)
    return half * x if e & 1 else half


class Immutable:
    """Base of the value types; constructors write slots past `__setattr__`, which raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class CycNum(Immutable):
    """Element of Q(zeta_n): integer power-basis numerators over one denominator.

    Arithmetic on mismatched conductors lifts both operands to the lcm
    via zeta_m -> zeta_n^(n/m).  All results are reduced modulo the
    cyclotomic polynomial of their conductor.
    """

    __slots__ = ("n", "num", "den")

    def __new__(cls, n: int, coeffs):
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        c = [Fraction(x) for x in coeffs]
        den = math.lcm(*[x.denominator for x in c])
        return _make(n, _reduce(n, [x.numerator * (den // x.denominator) for x in c]), den)

    @property
    def c(self) -> tuple:
        """Power-basis coordinates as Fractions (rendering and JSON)."""
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycNum":
        return as_cyc(Fraction(q))

    @staticmethod
    def zero() -> "CycNum":
        return _make(1, (0,), 1)

    @staticmethod
    def one() -> "CycNum":
        return _make(1, (1,), 1)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycNum":
        """zeta_n^power as an element of conductor n."""
        e = power % n
        return _make(n, _reduce(n, [0] * e + [1]), 1)

    # -- conductor handling -------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Rewrite in conductor m; requires n | m."""
        if m % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        return self if m == self.n else _make(m, _lift_num(self.num, self.n, m), self.den)

    def reduce_conductor(self) -> "CycNum":
        """Smallest divisor conductor representing the same element: the first
        divisor m, ascending, whose lowering lifts back to this element."""
        for m in divisors(self.n)[:-1]:
            low = _lowered(self.n, m, self.num, self.den)
            if low.den == self.den and low.lift(self.n).num == self.num:
                return low
        return self

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ------------------------------------------------------

    def _pair(self, other):
        other = as_cyc(other)
        if self.n == other.n:
            return self, other
        m = math.lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def _combine(self, other, sign: int) -> "CycNum":
        """self + sign * other over the least common denominator."""
        a, b = self._pair(other)
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        if a.n == 1:
            return _make(1, (a.num[0] * fa + b.num[0] * fb,), a.den * fa)
        return _make(a.n, tuple(x * fa + y * fb for x, y in zip(a.num, b.num)), a.den * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return as_cyc(other).__sub__(self)

    def __neg__(self):
        return _make(self.n, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        a, b = self, as_cyc(other)
        if a.n == 1:
            a, b = b, a
        if b.n == 1:
            # scalar times anything keeps the other operand's conductor
            s = b.num[0]
            if a.n == 1:
                return _make(1, (a.num[0] * s,), a.den * b.den)
            return _make(a.n, tuple(x * s for x in a.num), a.den * b.den)
        if a.n != b.n:
            a, b = a._pair(b)
        return _make(a.n, _mul_num(a.n, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """1/x at x's conductor n, computed in x's least field Q(zeta_m) (`reduce_conductor`)
        and lifted back: x times its other conjugates over Q is the rational integer N(x), so
        1/x = conj / N(x).  The cost follows m, not n; at m = 1 there are no conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        low = self.reduce_conductor()
        m, num, den = low.n, low.num, low.den
        conj = (1,) + (0,) * (len(num) - 1)
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                conj = _mul_num(m, conj, _embed(num, k, 0, m))
        norm = _mul_num(m, num, conj)[0]
        if norm < 0:
            norm, den = -norm, -den
        return _make(m, tuple(den * x for x in conj), norm).lift(self.n)

    def __truediv__(self, other):
        return self * as_cyc(other).inverse()

    def __rtruediv__(self, other):
        return as_cyc(other).__truediv__(self)

    def __pow__(self, e: int):
        return _pow(self.inverse() if e < 0 else self, abs(e), CycNum.one())

    def conjugate(self) -> "CycNum":
        """Complex conjugation zeta -> zeta^(-1)."""
        if self.n == 1:
            return self
        return _make(self.n, _embed(self.num, self.n - 1, 0, self.n), self.den)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_cyc(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = (self, other) if self.n == other.n else self._pair(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        r = self.reduce_conductor()
        if r.n == 1:
            # hash(Fraction(p, 1)) == hash(p)
            return hash(r.num[0] if r.den == 1 else Fraction(r.num[0], r.den))
        return hash((r.n, r.num, r.den))

    def __bool__(self):
        return any(self.num)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        terms = [(format_rational(cj), f"z{self.n}^{j}" if j > 1 else f"z{self.n}" if j else "")
                 for j, cj in enumerate(self.c) if cj]
        return f"({_sum_text(terms)})" if len(terms) > 1 else _sum_text(terms)

    def __repr__(self):
        return f"CycNum({self.n}, {[str(x) for x in self.c]})"

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"n": self.n, "c": [format_rational(x) for x in self.c]}

    @staticmethod
    def from_json(obj) -> "CycNum":
        if not isinstance(obj, dict):
            raise ValueError(f'a cyclotomic number is {{"n": ..., "c": [...]}}, got {obj!r}')
        c = obj.get("c")
        if not isinstance(c, list):
            raise ValueError(f'cyclotomic "c" must be a list of rationals, got {json.dumps(c)}')
        n = json_int(obj, "n", "cyclotomic")
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        # phi(n) >= sqrt(n / 2), so a short list at a huge n is refused
        # before the divisor walk of phi(n), sqrt(n) trial divisions
        if 2 * len(c) ** 2 < n or len(c) != euler_phi(n):
            raise ValueError(f'cyclotomic "c" at conductor {n} must have phi({n}) coordinates, '
                             f"got {len(c)}")
        return CycNum(n, [parse_rational(s) for s in c])


def _make(n: int, num: tuple, den: int) -> CycNum:
    """Trusted constructor: num is a tuple of phi(n) ints and den > 0.

    Only divides out gcd(den, *num); the caller guarantees the rest.
    """
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple([a // g for a in num])
        den //= g
    x = _new_object(CycNum)
    _set_n(x, n)
    _set_num(x, num)
    _set_den(x, den)
    return x


# the slot setters bypass Immutable.__setattr__, which refuses every write
_new_object = object.__new__
_set_n, _set_num, _set_den = (
    getattr(CycNum, name).__set__ for name in CycNum.__slots__
)


def as_cyc(x) -> CycNum:
    """Coerce int/Fraction/CycNum to CycNum."""
    if isinstance(x, CycNum):
        return x
    if isinstance(x, int):
        return _make(1, (int(x),), 1)
    if isinstance(x, Fraction):
        return _make(1, (x.numerator,), x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, convention B_1 = -1/2: B_2n = (-1)^(n-1) 2n T_n /
    (4^n (4^n - 1)) from the tangent numbers T_n, by the integer recurrence of
    R. P. Brent and D. Harvey, Fast computation of Bernoulli, tangent and secant numbers (2011)."""
    if k < 0:
        raise ValueError(f"bernoulli undefined for {k}")
    if k < 2 or k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(int(k == 0))
    n, tan = k // 2, [0] + [math.factorial(j) for j in range(k // 2)]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            tan[j] = (j - i) * tan[j - 1] + (j - i + 2) * tan[j]
    return Fraction((-1) ** (n - 1) * k * tan[n], 4**n * (4**n - 1))
