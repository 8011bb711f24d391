"""Finite-dimensional representations of the modular group given by (S, T).

A type is a representation whose kernel is a congruence subgroup containing
-I, so the generator images must satisfy S^4 = I, (ST)^3 = S^2, S^2 = I and
T^level = I.  The declared level is trusted beyond the T-order check.

Hom spaces are the fixed vectors of dual(r) tensor r2, found without
inverses or Kronecker products: the intertwining equations for S and T
are stacked into one sparse linear system whose kernel is taken once.
`hom_space` memoizes its bases by `Rep.key` of both types and its solves per
Galois orbit of the pair, in bounded least-recently-used tables.
The flattening between fixed vectors v and intertwiner matrices Phi is
private: index pairs (i, j) with i < dim_r, j < dim_r2 flatten to
i*dim_r2 + j and Phi[j, i] = v[i*dim_r2 + j].  Public contracts only use
the intertwining property Phi r(g) = r2(g) Phi, which does not depend on
the convention.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .exactnum import CycNum, Immutable, _embed, _make, _pow, json_int
from .linalg import Matrix, Subspace, _matrix, kernel_of_rows

S_MAT = ((0, -1), (1, 0))
T_MAT = ((1, 1), (0, 1))


class Rep(Immutable):
    """Congruence type with generator images for S and T."""

    __slots__ = ("label", "dim", "level", "S", "T")

    def __init__(self, label: str, level: int, S: Matrix, T: Matrix):
        if S.rows != S.cols or T.rows != T.cols or S.rows != T.rows:
            raise ValueError("generator matrices must be square of equal size")
        if S.rows == 0:
            raise ValueError("a type must have dimension at least 1")
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dim", S.rows)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)

    @property
    def content(self) -> tuple:
        """(level, S, T), which identifies the type; the label only names it."""
        return (self.level, self.S, self.T)

    @property
    def key(self) -> tuple:
        """(level, S, T, S.n, T.n), the key of every memo of types.  The
        conductors are in it because equal matrices at other conductors
        compare and hash alike, and a memoized result is written at the
        conductors of the type it was built from."""
        return (self.level, self.S, self.T, self.S.n, self.T.n)

    @property
    def conductor(self) -> int:
        return math.lcm(self.S.n, self.T.n)

    def validate(self) -> "RepValidation":
        S, T = self.S, self.T
        s2 = S * S
        st = S * T
        st3 = st * st * st
        s2_is_one = s2.is_identity()
        checks = [
            ("S^4 = I", s2_is_one or (s2 * s2).is_identity()),
            ("(ST)^3 = S^2", st3 == s2),
            ("S^2 = I", s2_is_one),
            (f"T^{self.level} = I", _pow(T, self.level, Matrix.identity(T.rows)).is_identity()),
        ]
        return RepValidation(self.label, checks)

    def dual(self) -> "Rep":
        return Rep(
            f"{self.label}^",
            self.level,
            self.S.transpose().inverse(),
            self.T.transpose().inverse(),
        )

    def tensor(self, other: "Rep") -> "Rep":
        return Rep(f"{self.label}*{other.label}", math.lcm(self.level, other.level),
                   self.S.kron(other.S), self.T.kron(other.T))

    def evaluate(self, g) -> Matrix:
        """Image of an arbitrary element of the modular group.

        g is ((a, b), (c, d)) with determinant 1; decomposed into an S, T
        word by the Euclidean algorithm on the left column.
        """
        (a, b), (c, d) = g
        if a * d - b * c != 1:
            raise ValueError(f"{g} is not in the modular group")
        return _word_image(self.key, a, b, c, d)

    def __repr__(self):
        return f"Rep({self.label}, dim {self.dim}, level {self.level})"

    def to_json(self):
        return {
            "label": self.label,
            "dim": self.dim,
            "level": self.level,
            "conductor": self.conductor,
            "S": self.S.to_json(),
            "T": self.T.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "Rep":
        if not isinstance(obj, dict):
            raise ValueError(f"a type is an object with label, level, S and T, got {obj!r}")
        missing = [key for key in ("label", "level", "S", "T") if key not in obj]
        if missing:
            raise ValueError(f'a type has no "{missing[0]}" field')
        return Rep(
            obj["label"],
            json_int(obj, "level", "type"),
            Matrix.from_json(obj["S"]),
            Matrix.from_json(obj["T"]),
        )


class RepValidation(namedtuple("RepValidation", "label checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def __str__(self):
        lines = [f"{'pass' if p else 'FAIL'}  {name}" for name, p in self.checks]
        return f"[{self.label}] " + "; ".join(lines)


def require_same_content(r: Rep, r2: Rep) -> None:
    """ValueError unless two types that share a label have equal (level, S, T)."""
    if r is not r2 and r.content != r2.content:
        raise ValueError(f"two different types share the label {r.label!r}")


def sl2_word(a: int, b: int, c: int, d: int) -> list:
    """Tokens ('S', e) / ('T', e) whose ordered product is (a b; c d)."""
    out = []
    while c != 0:
        q = a // c
        out.append(("T", q))
        out.append(("S", 1))
        # peel off T^q S on the left
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    if a == 1:
        out.append(("T", b))
    else:
        out.append(("S", 2))
        out.append(("T", -b))
    return out


@functools.lru_cache(maxsize=256)
def _word_image(key: tuple, a: int, b: int, c: int, d: int) -> Matrix:
    """Rep.evaluate of (a b; c d), shared by all types with this Rep.key."""
    mods = {"S": 4, "T": key[0]}
    factors = [_power(key, g, e % mods[g]) for g, e in sl2_word(a, b, c, d) if e % mods[g]]
    return functools.reduce(Matrix.__mul__, factors) if factors else Matrix.identity(key[1].rows)


@functools.lru_cache(maxsize=256)
def _power(key: tuple, kind: str, e: int) -> Matrix:
    """rho(S)^e or rho(T)^e of the type with this Rep.key."""
    return _pow(key[1] if kind == "S" else key[2], e, Matrix.identity(key[1].rows))


def hom_fixed_subspace(r: Rep, r2: Rep) -> Subspace:
    """Fixed vectors of dual(r) tensor r2, the unshaped hom space.

    One kernel of the stacked system Phi r(g) - r2(g) Phi = 0, g = S and T,
    given to the kernel as sparse rows: row (i', j) has +r(g)[i, i'] at
    column i*dim_r2 + j and -r2(g)[j, j'] at column i'*dim_r2 + j'.  Zero
    rows are dropped, and so is a block that is identically zero; the basis
    is written at the joint conductor of the rest.
    """
    d, d2 = r.dim, r2.dim
    rows, n = [], 1
    for a, b in ((r.S, r2.S), (r.T, r2.T)):
        # the nonzeros of column i' of a and of row j of -b
        acols, brows = a.transpose().nonzeros, (-b).nonzeros
        block = []
        for ip in range(d):
            for j in range(d2):
                row = {i * d2 + j: x for i, x in acols[ip].items()}
                for jp, x in brows[j].items():
                    col = ip * d2 + jp
                    row[col] = row[col] + x if col in row else x
                row = {c: y for c, y in row.items() if y}
                if row:
                    block.append(row)
        if block:
            n = math.lcm(n, a.n, b.n)
            rows += block
    kernel = kernel_of_rows(rows, d * d2).basis
    lifted = [{j: x.lift(n) for j, x in v.items()} for v in kernel.nonzeros]
    return Subspace(Matrix.from_nonzeros(d * d2, lifted))


def fixed_vector_to_matrix(v: dict, dim_r: int, dim_r2: int) -> Matrix:
    """Reshape a fixed vector's {i*dim_r2 + j: x} row to the intertwiner with x at (j, i)."""
    rows = [{} for _ in range(dim_r2)]
    for k, x in v.items():
        i, j = divmod(k, dim_r2)
        rows[j][i] = x
    return Matrix.from_nonzeros(dim_r, rows)


def matrix_to_fixed_vector(phi: Matrix) -> list:
    return list(phi.transpose().entries)


def hom_space(r: Rep, r2: Rep) -> list:
    """Basis of intertwiners Phi with Phi r(g) = r2(g) Phi, as a fresh list.

    Memoized by `Rep.key` of both types (content and the conductors, which
    fix the basis's; not labels), and solved once per Galois orbit of the
    pair: sigma_k: zeta_m -> zeta_m^k keeps every conductor and maps the
    canonical RREF basis of a pair to that of its conjugate pair.
    """
    return list(_hom_pair(r.key, r2.key))


@functools.lru_cache(maxsize=64)
def _hom_pair(key: tuple, key2: tuple) -> tuple:
    """The basis of one pair: sigma_(k^-1) of the solved basis of sigma_k of
    the pair, its orbit's representative."""
    n = math.lcm(*key[3:], *key2[3:])
    k, key, key2 = _orbit_rep(key, key2, n)
    return tuple(_galois(phi, pow(k, -1, n)) for phi in _hom_basis(key, key2))


@functools.lru_cache(maxsize=64)
def _hom_basis(key: tuple, key2: tuple) -> tuple:
    r, r2 = (Rep("", *k[:3]) for k in (key, key2))  # labels do not enter
    sub = hom_fixed_subspace(r, r2)
    return tuple(fixed_vector_to_matrix(v, r.dim, r2.dim) for v in sub.basis.nonzeros)


def _orbit_rep(key: tuple, key2: tuple, n: int) -> tuple:
    """(k, key_k, key2_k): the conjugate sigma_k of a pair of keys, k in
    (Z/n)^* taken as 1..n (so k = 1 alone for n <= 2), whose nonzeros (row,
    column, numerators, denominator) compare greatest, with the least such k.
    Matrices at conductor 1 or 2 are the same in every conjugate, so only
    the others are compared."""
    return max(
        ((k, *[(q[0], _galois(q[1], k), _galois(q[2], k), *q[3:]) for q in (key, key2)])
         for k in range(1, n + 1) if math.gcd(k, n) == 1),
        key=lambda c: [(i, j, x.num, x.den) for q in c[1:] for m in q[1:3] if m.n > 2
                       for i, row in enumerate(m.nonzeros) for j, x in sorted(row.items())],
    )


def _galois(m: Matrix, k: int) -> Matrix:
    """sigma_k(m): zeta_c -> zeta_c^k on each entry, at its conductor c."""
    if m.n <= 2 or k % m.n == 1:  # sigma_k fixes Q(zeta_(m.n))
        return m
    return _matrix(m.rows, m.cols, m.n, [
        {j: _make(x.n, _embed(x.num, k, 0, x.n), x.den) for j, x in row.items()}
        for row in m.nonzeros
    ])


def is_intertwiner(phi: Matrix, r: Rep, r2: Rep) -> bool:
    if phi.rows != r2.dim or phi.cols != r.dim:
        return False
    return phi * r.S == r2.S * phi and phi * r.T == r2.T * phi


Decomposition = namedtuple(
    "Decomposition",
    "multiplicities residual residual_split residual_flagged",
    defaults=((), False),
)


def decompose(r: Rep, registry: "RepRegistry") -> Decomposition:
    """Isotypic multiplicities against a registry, plus the residual.

    multiplicity(rho) = dim hom(r, rho).  The residual is r restricted to
    the joint kernel of all found intertwiners, taken in one elimination of
    their stacked rows.  That kernel is invariant and its RREF basis is the
    identity at its pivot columns, so the coordinates of S v and T v are
    their entries at those columns: the pivot rows of S and T times the
    basis, with no solve.  When S acts as a scalar there, the residual
    splits into T-eigenspaces, each reported as a new one-dimensional
    candidate; otherwise it is returned unsplit and flagged (systematic
    splitting is out of scope).
    """
    mults = {}
    rows = []
    for entry in registry.entries:
        basis = hom_space(r, entry)
        if basis:
            mults[entry.label] = len(basis)
            rows += [dict(row) for phi in basis for row in phi.nonzeros]
    joint = kernel_of_rows(rows, r.dim)
    if joint.dim == 0:
        return Decomposition(mults, None)
    pivots = [min(v) for v in joint.basis.nonzeros]
    basis_t = joint.basis.transpose()  # columns span the kernel
    s_res, t_res = (
        Matrix.from_nonzeros(r.dim, [g.nonzeros[p] for p in pivots]) * basis_t for g in (r.S, r.T)
    )
    residual = Rep(f"{r.label}|res", r.level, s_res, t_res)
    scalar = s_res[0, 0]
    if s_res == Matrix.identity(joint.dim).scaled(scalar):
        split = []
        for j in range(r.level):
            eig = CycNum.zeta(r.level, j)
            ker = (t_res - Matrix.identity(joint.dim).scaled(eig)).kernel()
            for _ in range(ker.dim):
                split.append(Rep(f"{r.label}|res(T={eig})", r.level, Matrix(1, 1, [scalar]),
                                 Matrix(1, 1, [eig])))
        if sum(s.dim for s in split) == joint.dim:
            return Decomposition(mults, residual, residual_split=split)
    return Decomposition(mults, residual, residual_flagged=True)


class RepRegistry:
    """Registry of certified-irreducible, pairwise non-isomorphic types."""

    def __init__(self, entries):
        entries = list(entries)
        for e in entries:
            rep = e.validate()
            if not rep.ok:
                raise ValueError(f"registry entry fails validation: {rep}")
            if len(hom_space(e, e)) != 1:
                raise ValueError(f"registry entry {e.label} is not irreducible")
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                if len(hom_space(a, b)) != 0:
                    raise ValueError(f"registry entries {a.label}, {b.label} are isomorphic")
        self.entries = entries
        self._by_label = {e.label: e for e in entries}
        if len(self._by_label) != len(entries):
            raise ValueError("duplicate labels in registry")

    def get(self, label: str) -> Rep:
        if label not in self._by_label:
            raise ValueError(f"no registry entry labelled {label!r}")
        return self._by_label[label]

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def __iter__(self):
        return iter(self.entries)

    def to_json(self):
        return {"entries": [e.to_json() for e in self.entries]}

    @staticmethod
    def from_json(obj) -> "RepRegistry":
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise ValueError("a registry is a JSON object whose entries are a list of types")
        return RepRegistry([Rep.from_json(e) for e in obj["entries"]])


def trivial_rep() -> Rep:
    one = Matrix.identity(1)
    return Rep("triv", 1, one, one)


def rho3() -> Rep:
    S = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [-1, -1, -1]])
    T = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [-1, -1, -1]])
    return Rep("rho3", 3, S, T)


def rho_zeta() -> Rep:
    return Rep("rho_zeta", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3)]))


def rho_zeta2() -> Rep:
    return Rep("rho_zeta2", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3, 2)]))


def builtin_registry() -> RepRegistry:
    """The four types, stored without __init__'s certificate: tests/test_reps.py takes it."""
    reg = object.__new__(RepRegistry)
    reg.entries = [trivial_rep(), rho3(), rho_zeta(), rho_zeta2()]
    reg._by_label = {e.label: e for e in reg.entries}
    return reg
