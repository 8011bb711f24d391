"""Coset representatives of positive similitude, and Hecke operators.

Delta_M holds the canonical block-upper-triangular representatives
(a b; 0 d) of similitude M: t(a)d = M*I, d upper triangular with
0 <= d[i][j] < d[j][j] for i < j, and b = r + X d, 0 <= r[i][j] < d[j][j],
X strictly lower triangular.  The list order is lexicographic in (diag of d,
offdiagonal of d, r entries), a stable public contract golden tests rely on.

The induced representation on V(rho) (x) C[Delta_M] uses the grouping
rho([I_m(g^-1)]^-1) with coset index reduce(m g^-1); the modular-group
relations are asserted on these integer corrections, once per index, which
pins the convention (an invalid result raises, it must not occur).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import product

from .ahol import AholForm
from .exactnum import CycNum, Immutable, _pow, divisors
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
        d = [row[g:] for row in mat[g:]]
        for i in range(g):
            if any(d[i][:i]):
                raise ValueError("d must be upper triangular")
            b = mat[i][g:]
            for j in range(i):  # take off b's multiple of the rows of d above row i
                if q := b[j] // d[j][j]:
                    b = [x - q * y for x, y in zip(b, d[j])]
            for j in range(g):
                if i < j and not 0 <= d[i][j] < d[j][j]:
                    raise ValueError("d offdiagonal out of residue range")
                if not 0 <= b[j] < d[j][j]:
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
    """t(mat) J mat == M J, J = (0 -I; I 0); J mat is (-C -D; A B) for mat = (A B; C D)."""
    jmat = [[-x for x in row] for row in mat[genus:]] + list(mat[:genus])
    return _int_mul(list(zip(*mat)), jmat) == [[M * x for x in row] for row in _symplectic_form(genus)]


@functools.lru_cache(maxsize=8)
def _symplectic_form(genus: int) -> tuple:
    """J = (0 -I; I 0) of size 2 * genus."""
    n = 2 * genus
    return tuple(tuple((i == k + genus) - (k == i + genus) for k in range(n)) for i in range(n))


def _int_mul(a, b) -> list:
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


# a listing that surely holds more cosets than this is refused, not enumerated
_MAX_COSETS = 10**5


def delta_cosets(genus: int, M: int) -> list:
    """All canonical representatives of similitude M, in contract order.

    a is forced by t(a) d = M I, so the loops run over upper-triangular d
    and skip d when a is not integral.  Then t(m) J m = M J says only that
    t(b) d is symmetric, or, as d^-1 = t(a) / M, that b t(a) is: entry
    (i, j) is row i of b against row j of a.  Left cosets are b modulo
    Sym_g(Z) d, so b is built row by row: a box row r is kept when
    r t(a[j]) = b[j] t(a[i]) mod M for each earlier row j, and lifted to
    t d / M = r + X d, t = (b[j] t(a[i]) for j < i, r t(a[j]) for j >= i).
    Prefixes extended in order by rows in order give the lexicographic
    order of the box, so no box is searched.
    """
    if M < 1:
        raise ValueError(f"similitude index must be positive, got {M}")
    if genus < 1:
        raise ValueError(f"genus must be positive, got {genus}")
    # the cosets with d = M I alone number M^(g(g+1)/2), one per symmetric b mod M
    # (2^17 passes the limit, so the exponent stops at 17); at genus 1, sigma(M) in all
    if M > 1 and (M ** min(genus * (genus + 1) // 2, 17) > _MAX_COSETS
                  or genus == 1 and sum(divisors(M)) > _MAX_COSETS):
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
            box = [(r, [_dot(r, aj) for aj in a]) for r in product(*map(range, diag))]
            bs = [[r] for r, _ in box]
            for i in range(1, g):  # ra = r t(a); s = b t(a[i]), which row i must match mod M
                bs = [b + [[_dot(s + ra[i:], col) // M for col in zip(*d)]]
                      for b in bs for s in [[_dot(bj, a[i]) for bj in b]]
                      for r, ra in box if all((x - y) % M == 0 for x, y in zip(ra, s))]
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
    """(rep, gamma) for an integral 2x2 matrix m of positive determinant: its canonical
    representative rep and gamma in the modular group with gamma * rep.mat = m."""
    (a, b, d), u = _hermite(m)
    return DeltaCoset(1, ((a, b), (0, d)), a * d), _inv2(u)


def _hermite(m):
    """((a, b, d), U) with U in the modular group and U m = (a b; 0 d) canonical:
    clear the lower-left entry by a Bezout row operation, then reduce b mod d."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det < 1:
        raise ValueError(f"matrix must have positive determinant, got {det}")
    g = math.gcd(a, c)
    # x a + y c = g, x the inverse of a/g modulo |c|/g
    x = pow(a // g, -1, abs(c) // g) if c else a // g
    y = (g - x * a) // c if c else 0
    # (x y; -c/g a/g) has det 1 and takes m to (g rb; 0 rd); then b moves by t*rd
    rb, rd = x * b + y * d, det // g
    t = -(rb // rd)
    return (g, rb + t * rd, rd), ((x - t * c // g, y + t * a // g), (-c // g, a // g))


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
    """Representation on V(rho) (x) C[Delta_M].

    Basis order is coset-major: block m holds the dim(rho) components of
    e_m, cosets in delta_cosets order.  Block (target, source) of the image
    of gamma is rho([I_m(gamma^-1)]^-1) for m the source coset, listed once
    per index M.  Memoized by `Rep.key` and by the label, which names the
    induced type.  Its level, the order of T, is read off the T-cycles of the
    coset walk: a block-monomial cycle of length L whose corrections multiply to
    T^j has order L o / gcd(o, j), o the order of rho(T).  Its relations are checked
    on the integer coset action, not on its matrices (`_coset_action`); rho is
    trusted, as by `Rep.tensor`: a type is validated where it enters
    (`RepRegistry`, so `--registry`; `AholForm.from_json`; the bundled one in a test).
    """
    return _hecke_rep(M, r.label, r.key)


@functools.lru_cache(maxsize=64)
def _hecke_rep(M: int, label: str, key: tuple) -> HeckeRep:
    r = Rep(label, *key[:3])
    one = Matrix.identity(r.dim)
    o = next((e for e in divisors(r.level) if _pow(r.T, e, one).is_identity()), None)
    if o is None:
        raise ArithmeticError(f"T of {r.label} has no order dividing its level {r.level}")
    cosets, *actions, cycles = _coset_action(M)
    S, T = ([(target, r.evaluate(gamma)) for target, gamma in act] for act in actions)
    level = math.lcm(*(L * (o // math.gcd(o, j)) for _, L, j in cycles))
    rep = Rep(f"T{M}({r.label})", level, _block_matrix(S, r.dim), _block_matrix(T, r.dim))
    return HeckeRep(r, M, cosets, rep)


@functools.lru_cache(maxsize=16)
def _coset_action(M: int) -> tuple:
    """(cosets, S action, T action, T-cycles): per coset m, the index of the coset g
    sends it to and the correction [I_m(g^-1)]^-1 every type evaluates; (m, L, j) per
    T-cycle of length L from m, its corrections' product (1 j; 0 1).  A word's block at
    m is rho of the product along its walk: S S returns to m with +-I, (ST)^3 as S S."""
    cosets = tuple(delta_cosets(1, M))
    index_of = {(c.a, c.b, c.d): i for i, c in enumerate(cosets)}
    steps = ((_hermite(_int_mul(m.mat, _inv2(gam))) for m in cosets) for gam in (S_MAT, T_MAT))
    S, T = (tuple((index_of[abd], u) for abd, u in s) for s in steps)
    cycles, seen = [], set()
    for m, c in enumerate(cosets):
        if (s2 := _walk(m, (S, S))) not in ((m, ((1, 0), (0, 1))), (m, ((-1, 0), (0, -1)))):
            _fails(M, c, "S^2 = I")
        if _walk(m, (S, T) * 3) != s2:
            _fails(M, c, "(ST)^3 = S^2")
        if m in seen:
            continue
        orbit = [m]
        while (n := T[orbit[-1]][0]) not in orbit:
            orbit.append(n)
        seen.update(orbit)
        end, ((one, j), low) = _walk(m, (T,) * len(orbit))
        if end != m or (one, *low) != (1, 0, 1):
            _fails(M, c, "a T-cycle's product is (1 j; 0 1)")
        cycles.append((m, len(orbit), j))
    return cosets, S, T, tuple(cycles)


def _walk(m: int, word) -> tuple:
    """(end, product of the corrections) of a word's walk from coset m, rightmost first."""
    a, b, c, d = 1, 0, 0, 1
    for act in reversed(word):
        m, ((p, q), (r, s)) = act[m]
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return m, ((a, b), (c, d))


def _fails(M: int, coset: DeltaCoset, relation: str):
    raise AssertionError(f"constructed Hecke type fails relations: index {M}, coset {coset.mat}: {relation}")


def _block_matrix(moves, blk: int) -> Matrix:
    """The matrix with block moves[src][1] at block (moves[src][0], src)."""
    rows = [{} for _ in range(len(moves) * blk)]
    for src, (target, cell) in enumerate(moves):
        for i, row in enumerate(cell.nonzeros):
            rows[target * blk + i].update((src * blk + j, x) for j, x in row.items())
    return Matrix.from_nonzeros(len(moves) * blk, rows)


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
