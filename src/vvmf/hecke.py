"""Coset representatives of positive similitude, and Hecke operators.

Delta_M holds the canonical block-upper-triangular representatives
(a b; 0 d) of similitude M: t(a)d = M*I, d upper triangular with
0 <= d[i][j] < d[j][j] for i < j and 0 <= b[i][j] < d[j][j].  The list
order is lexicographic in (diag of d, offdiagonal of d, b entries) and is
part of the stable public contract; golden tests depend on it.

The induced representation on V(rho) (x) C[Delta_M] uses the grouping
rho([I_m(g^-1)]^-1) with coset index reduce(m g^-1); the construction
asserts the modular-group relations on the result, which pins the
convention (an invalid result raises, it must not occur).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .ahol import AholForm
from .exactnum import CycNum, Immutable, divisors
from .linalg import Matrix
from .qexp import slash_expand
from .reps import Rep, S_MAT, T_MAT


class DeltaCoset(Immutable):
    """One canonical representative; mat is a 2g x 2g integer matrix."""

    __slots__ = ("genus", "mat", "similitude")

    def __init__(self, genus: int, mat, similitude: int):
        mat = tuple(tuple(int(x) for x in row) for row in mat)
        if len(mat) != 2 * genus or any(len(r) != 2 * genus for r in mat):
            raise ValueError(f"expected a {2 * genus}x{2 * genus} matrix")
        if similitude < 1:
            raise ValueError(f"similitude must be positive, got {similitude}")
        if not _is_similitude(mat, genus, similitude):
            raise ValueError(f"{mat} does not have similitude {similitude}")
        g = genus
        if any(mat[g + i][j] != 0 for i in range(g) for j in range(g)):
            raise ValueError("lower-left block must vanish")
        d = [[mat[g + i][g + j] for j in range(g)] for i in range(g)]
        b = [[mat[i][g + j] for j in range(g)] for i in range(g)]
        for i in range(g):
            for j in range(g):
                if i > j and d[i][j] != 0:
                    raise ValueError("d must be upper triangular")
                if i < j and not 0 <= d[i][j] < d[j][j]:
                    raise ValueError("d offdiagonal out of residue range")
                if not 0 <= b[i][j] < d[j][j]:
                    raise ValueError("b entry out of residue range")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "similitude", similitude)

    # genus-1 accessors
    @property
    def a(self) -> int:
        return self.mat[0][0]

    @property
    def b(self) -> int:
        return self.mat[0][1]

    @property
    def d(self) -> int:
        return self.mat[1][1]

    def __eq__(self, other):
        return isinstance(other, DeltaCoset) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"DeltaCoset{self.mat}"


def _is_similitude(mat, genus: int, M: int) -> bool:
    """t(mat) J mat == M J for the standard symplectic form."""
    jm = _symplectic_form(genus)
    return _int_mul(_int_mul(list(zip(*mat)), jm), mat) == [[M * x for x in row] for row in jm]


@functools.lru_cache(maxsize=8)
def _symplectic_form(genus: int) -> tuple:
    """J = (0 -I; I 0) of size 2 * genus."""
    n = 2 * genus
    return tuple(tuple((i == k + genus) - (k == i + genus) for k in range(n)) for i in range(n))


def _int_mul(a, b) -> list:
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


# a listing that surely holds more cosets than this is refused, not enumerated
_MAX_COSETS = 10**5


def delta_cosets(genus: int, M: int) -> list:
    """All canonical representatives of similitude M, in contract order.

    a is forced by t(a) d = M I, so the loops run over upper-triangular d
    and skip d when a is not integral.  Then t(m) J m = M J says only that
    t(b) d is symmetric, or, as d^-1 = t(a) / M, that b t(a) is: entry
    (i, j) is row i of b against row j of a.  So b is built row by row,
    keeping a row of the residue box when it matches every earlier row.
    Extending each prefix in order by each row in order is the
    lexicographic order of the whole box of b, so no box is searched.
    """
    if M < 1:
        raise ValueError(f"similitude index must be positive, got {M}")
    if genus < 1:
        raise ValueError(f"genus must be positive, got {genus}")
    # the cosets with d = M I alone number M^(g(g+1)/2), one per symmetric b
    # mod M; 2^17 already passes the limit, so the exponent stops at 17
    if M > 1 and M ** min(genus * (genus + 1) // 2, 17) > _MAX_COSETS:
        raise ValueError(f"Delta_{M} at genus {genus} has over {_MAX_COSETS} cosets; refused")
    g = genus
    out = []
    for diag in product(divisors(M), repeat=g):
        off_ranges = [range(diag[j]) for i in range(g) for j in range(i + 1, g)]
        for offs in product(*off_ranges):
            it = iter(offs)  # the entries above the diagonal, row by row
            d = [[next(it) if j > i else diag[i] * (j == i) for j in range(g)] for i in range(g)]
            a = _scaled_inverse_transpose(d, M)
            if a is None:
                continue
            bs = [[]]
            for i in range(g):
                bs = [b + [r] for b in bs for r in product(*map(range, diag))
                      if all(_dot(r, a[j]) == _dot(b[j], a[i]) for j in range(i))]
            out += [DeltaCoset(g, _assemble(a, b, d, g), M) for b in bs]
    return out


def _scaled_inverse_transpose(d, M: int):
    """Integer matrix a with t(a) d = M I, or None: row i of a solves d x = M e_i
    by back substitution, integral only if every step divides (x_k = 0 for k > i)."""
    a = []
    for i in range(len(d)):
        x = [0] * len(d)
        for k in reversed(range(i + 1)):
            x[k], rem = divmod(M * (k == i) - _dot(d[k][k + 1:], x[k + 1:]), d[k][k])
            if rem:
                return None
        a.append(x)
    return a


def _assemble(a, b, d, g):
    mat = []
    for i in range(g):
        mat.append(tuple(a[i]) + tuple(b[i]))
    for i in range(g):
        mat.append((0,) * g + tuple(d[i]))
    return tuple(mat)


def reduce_to_coset(m):
    """Canonical representative and correction for an integral 2x2 matrix.

    Returns (rep, gamma) with gamma in the modular group and
    gamma * rep.mat = m.  Hermite-style reduction: clear the lower-left
    entry by a Bezout row operation, fix signs, reduce b mod d.
    """
    (a, b), (c, d) = m
    det = a * d - b * c
    if det < 1:
        raise ValueError(f"matrix must have positive determinant, got {det}")
    g = math.gcd(a, c)
    # x a + y c = g, x the inverse of a/g modulo |c|/g
    x = pow(a // g, -1, abs(c) // g) if c else a // g
    y = (g - x * a) // c if c else 0
    # U = (x y; -c/g a/g) has det 1 and U m upper triangular
    u = ((x, y), (-c // g, a // g))
    ra, rb = g, x * b + y * d
    rd = det // g
    t = -(rb // rd)  # shift so 0 <= rb + t*rd < rd
    v = ((1, t), (0, 1))
    return DeltaCoset(1, ((ra, rb + t * rd), (0, rd)), det), _inv2(_int_mul(v, u))


def _inv2(p):
    # determinant 1
    return ((p[1][1], -p[0][1]), (-p[1][0], p[0][0]))


def cocycle(m: DeltaCoset, gamma):
    """(I, target) with I * target.mat = m.mat * gamma.

    Satisfies the chain rule I_m(g1 g2) = I_m(g1) I_{m g1}(g2).
    """
    if m.genus != 1:
        raise ValueError("cocycle is only defined at genus 1")
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError(f"{gamma} is not in the modular group")
    rep, corr = reduce_to_coset(_int_mul(m.mat, gamma))
    return corr, rep


class HeckeRep(namedtuple("HeckeRep", "base index cosets rep")):
    """The induced type on V(rho) (x) C[Delta_M], with its coset order."""

    __slots__ = ()

    def __repr__(self):
        return f"HeckeRep(T_{self.index} {self.base.label}, dim {self.rep.dim})"


def hecke_rep(M: int, r: Rep) -> HeckeRep:
    """Representation on V(rho) (x) C[Delta_M]; validated on construction.

    Basis order is coset-major: block m holds the dim(rho) components of
    e_m, cosets in delta_cosets order.  Block (target, source) of the image
    of gamma is rho([I_m(gamma^-1)]^-1) for m the source coset, listed once
    per index M; the level is read from T's cycles on the cosets.  Memoized
    by `Rep.key` and by the label, which names the induced type.
    """
    return _hecke_rep(M, r.label, r.key)


@functools.lru_cache(maxsize=64)
def _hecke_rep(M: int, label: str, key: tuple) -> HeckeRep:
    r = Rep(label, *key[:3])
    cosets, *actions = _coset_action(M)
    S, T = ([(target, r.evaluate(gamma)) for target, gamma in act] for act in actions)
    # T^(M level) fixes each coset (b -> b - a^2 d level) and leaves
    # rho(T^(a^2 level)) = I, which caps the order of T.
    level = _cycle_order(T, cap=M * r.level)
    rep = Rep(f"T{M}({r.label})", level, _block_matrix(S, r.dim), _block_matrix(T, r.dim))
    report = rep.validate()
    if not report.ok:
        raise AssertionError(f"constructed Hecke type fails relations: {report}")
    return HeckeRep(r, M, cosets, rep)


@functools.lru_cache(maxsize=16)
def _coset_action(M: int) -> tuple:
    """(cosets, S action, T action): for each coset m, the index of the coset
    g sends it to and the correction [I_m(g^-1)]^-1 that every type evaluates."""
    cosets = tuple(delta_cosets(1, M))
    index_of = {c: i for i, c in enumerate(cosets)}
    steps = ([cocycle(m, _inv2(gam)) for m in cosets] for gam in (S_MAT, T_MAT))
    return (cosets, *(tuple((index_of[t], _inv2(corr)) for corr, t in s) for s in steps))


def _block_matrix(moves, blk: int) -> Matrix:
    """The matrix with block moves[src][1] at block (moves[src][0], src)."""
    rows = [{} for _ in range(len(moves) * blk)]
    for src, (target, cell) in enumerate(moves):
        for i, row in enumerate(cell.nonzeros):
            rows[target * blk + i].update((src * blk + j, x) for j, x in row.items())
    return Matrix.from_nonzeros(len(moves) * blk, rows)


def _cycle_order(moves, cap: int) -> int:
    """Order of the block-monomial matrix of moves: lcm of cycle length x block product order."""
    order, seen = 1, set()
    for start, (m, prod) in enumerate(moves):
        if start not in seen:
            cycle = [start]
            while m != start:
                cycle.append(m)
                m, block = moves[m]
                prod = block * prod
            seen.update(cycle)
            order = math.lcm(order, len(cycle) * _matrix_order(prod, cap))
    return order


def _matrix_order(m: Matrix, cap: int) -> int:
    acc = m
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * m
    raise ArithmeticError(f"matrix order exceeds cap {cap}")


def unit_embedding(M: int) -> Matrix:
    """All-ones coordinate row of V(T_M 1); its transpose embeds 1."""
    size = len(delta_cosets(1, M))
    return Matrix(1, size, [1] * size)


def pi_M(r: Rep, r2: Rep, M: int) -> Matrix:
    """Surjection (T_M rho) (x) (T_M rho') -> T_M (rho (x) rho').

    Sends (v (x) e_m) (x) (w (x) e_m') to (v (x) w) (x) e_m when m = m'
    and to zero otherwise.
    """
    ncos = len(delta_cosets(1, M))
    d1, d2 = r.dim, r2.dim
    one = CycNum.one()
    rows = [
        {(m * d1 + i) * (ncos * d2) + m * d2 + j: one}
        for m in range(ncos)
        for i in range(d1)
        for j in range(d2)
    ]
    return Matrix.from_nonzeros(ncos * d1 * ncos * d2, rows)


def hecke_form(M: int, f: AholForm) -> AholForm:
    """Sum of slashed images tagged by cosets; type becomes T_M rho.

    Components are coset-major blocks in delta_cosets order; each graded
    piece Y^r picks up the extra factor (d^2/M)^r on coset (a, b; 0, d)
    because y rescales by a/d under the coset action.
    """
    if f.weight % 2 != 0:
        raise ValueError(f"weight must be even, got {f.weight}")
    hr = hecke_rep(M, f.rep)
    graded = []
    for rdeg, layer in enumerate(f.graded):
        comps = []
        for c in hr.cosets:
            scale = Fraction(c.d * c.d, M) ** rdeg
            triple = (c.a, c.b, c.d)
            for q in layer:
                img = slash_expand(q, f.weight, triple)
                if rdeg:
                    img = img.scaled(scale)
                comps.append(img)
        graded.append(tuple(comps))
    name = f"T{M}({f.name})" if f.name else f"T{M}(form)"
    return AholForm(f.weight, hr.rep, graded, name=name)


def pairing_tm(inner: Matrix, M: int) -> Matrix:
    """Gram matrix of the block-diagonal pairing on V(T_M rho)."""
    ncos = len(delta_cosets(1, M))
    return Matrix.identity(ncos).kron(inner)
