"""Exact linear algebra over cyclotomic fields; arithmetic skips zeros.

Everything is deterministic and goes through one elimination kernel,
`_eliminate`: sparse fraction-free Gauss-Jordan on integer coordinates of
{column: nonzero} rows, with a per-column index of the rows that are
nonzero there.  In each column the pivot is the unused row with the fewest
nonzeros (lowest position on ties), made a positive integer; arithmetic is
exact, so there are no magnitude heuristics, and the output is the unique
RREF, pivot rows first in pivot order, so equal subspaces have equal bases.
`_rref_inplace` runs it between `CycNum` rows and coordinates, and
`kernel_of_rows` reduces its kernel in those coordinates too.  A `Matrix`, and so
a `Subspace` basis, holds its rows in that form: arithmetic and
eliminations touch nonzero entries only; dense callers convert with
`sparse_row`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, zip_longest
from operator import add

from .exactnum import CycNum, Immutable, _make, _mul_num, as_cyc, euler_phi


class Matrix(Immutable):
    """Matrix that stores its nonzero entries row by row, all at one conductor.

    `nonzeros[i]` is the {column: entry} dict of row i, the row form of the
    elimination kernel; callers never write it.  `entries`, `row` and
    `m[i, j]` are dense views that read a zero at conductor n, the conductor
    of the dense result: for the constructor the lcm of its entries', zeros
    included; for the arithmetic the lcm of the operands', but for A * B only
    when A has a nonzero entry and for a solve only when the solution is
    nonzero.  A result without entries has n = 1.
    """

    # `_hash` caches __hash__ and `_transpose` caches transpose(); both stay
    # unset until first asked
    __slots__ = ("rows", "cols", "n", "nonzeros", "_hash", "_transpose")

    def __new__(cls, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        cells = [as_cyc(x) for x in entries]
        if len(cells) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(cells)}"
            )
        n = math.lcm(*{x.n for x in cells})
        nonzeros = [
            {j: x.lift(n) for j, x in enumerate(cells[i * cols : (i + 1) * cols]) if x}
            for i in range(rows)
        ]
        return _matrix(rows, cols, n, nonzeros)

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return Matrix(len(rows), ncols, [x for r in rows for x in r])

    @staticmethod
    def from_nonzeros(cols: int, rows) -> "Matrix":
        """Trusted constructor from {column: nonzero entry} rows; n is the
        lcm of the entries' conductors."""
        n = math.lcm(*{x.n for row in rows for x in row.values()})
        return _matrix(len(rows), cols, n, [{j: x.lift(n) for j, x in r.items()} for r in rows])

    @staticmethod
    def identity(k: int) -> "Matrix":
        one = CycNum.one()
        return _matrix(k, k, 1, [{i: one} for i in range(k)])

    @property
    def entries(self) -> tuple:
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __getitem__(self, ij) -> CycNum:
        i, j = ij
        x = self.nonzeros[i].get(j)
        return CycNum.zero().lift(self.n) if x is None else x

    def row(self, i) -> tuple:
        zero, row = CycNum.zero().lift(self.n), self.nonzeros[i]
        return tuple(row.get(j, zero) for j in range(self.cols))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.nonzeros == other.nonzeros

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.nonzeros)))
        object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        n = math.lcm(self.n, other.n)
        out = []
        for a, b in zip(self.nonzeros, other.nonzeros):
            row = {j: x.lift(n) for j, x in a.items()}
            for j, y in b.items():
                row[j] = row[j] + y if j in row else y.lift(n)
            out.append({j: x for j, x in row.items() if x})
        return _matrix(self.rows, self.cols, n, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        out = [{j: -x for j, x in r.items()} for r in self.nonzeros]
        return _matrix(self.rows, self.cols, self.n, out)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def scaled(self, s) -> "Matrix":
        s = as_cyc(s)
        out = [{j: s * x for j, x in r.items()} if s else {} for r in self.nonzeros]
        return _matrix(self.rows, self.cols, math.lcm(s.n, self.n), out)

    __rmul__ = scaled

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            # row i of the product sums a * (row k of other) over the nonzeros a
            # at (i, k); a product with any nonzero factor lives at the joint conductor
            out = []
            for arow in self.nonzeros:
                acc = {}
                for k, a in arow.items():
                    for j, b in other.nonzeros[k].items():
                        acc[j] = acc[j] + a * b if j in acc else a * b
                out.append({j: x for j, x in acc.items() if x})
            n = math.lcm(self.n, other.n) if any(self.nonzeros) else 1
            return _matrix(self.rows, other.cols, n, out)
        return self.scaled(other)

    def transpose(self) -> "Matrix":
        try:
            return self._transpose
        except AttributeError:
            pass
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, x in row.items():
                out[j][i] = x
        t = _matrix(self.cols, self.rows, self.n, out)
        object.__setattr__(self, "_transpose", t)
        return t

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i, j) is self[i, j] * other."""
        w = other.cols
        out = [
            {j * w + q: a * b for j, a in arow.items() for q, b in brow.items()}
            for arow in self.nonzeros
            for brow in other.nonzeros
        ]
        return _matrix(self.rows * other.rows, self.cols * w, math.lcm(self.n, other.n), out)

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.rows)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def rref(self):
        """(reduced row-echelon form, pivot column list)."""
        work = [dict(r) for r in self.nonzeros]
        pivots = _rref_inplace(work, self.cols)
        return _matrix(self.rows, self.cols, self.n, work), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {v : self * v = 0} as an echelonized subspace."""
        return kernel_of_rows([dict(r) for r in self.nonzeros], self.cols)

    def solve_right(self, b: "Matrix") -> "Matrix":
        """x with self * x = b; free variables set to zero.

        Raises ValueError when some column of b is outside the column span.
        """
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        c = self.cols
        aug = [a | {c + j: x for j, x in r.items()} for a, r in zip(self.nonzeros, b.nonzeros)]
        pivots = _rref_inplace(aug, c + b.cols, stop_col=c)
        # the rows after the pivot rows are empty before stop_col
        if any(aug[len(pivots) :]):
            raise ValueError("inconsistent linear system")
        out = [{} for _ in range(c)]
        for row, pc in zip(aug, pivots):
            out[pc] = {j - c: x for j, x in row.items() if j >= c}
        n = math.lcm(self.n, b.n) if any(out) else 1
        return _matrix(c, b.cols, n, out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        try:
            return self.solve_right(Matrix.identity(self.rows))
        except ValueError:
            raise ValueError("matrix is singular") from None

    def __repr__(self):
        body = "; ".join(", ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    def to_json(self):
        """Rows of entry JSON; every zero entry is one shared dict, made once."""
        zero = CycNum.zero().lift(self.n).to_json()
        return [[row[j].to_json() if j in row else zero for j in range(self.cols)]
                for row in self.nonzeros]

    @staticmethod
    def from_json(obj) -> "Matrix":
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise ValueError(f"a matrix is a list of rows, got {obj!r}")
        rows = [[CycNum.from_json(x) for x in r] for r in obj]
        return Matrix.from_rows(rows)


def _matrix(rows: int, cols: int, n: int, nonzeros: list) -> Matrix:
    """Trusted constructor: one {column: nonzero} dict per row, every entry
    at conductor n; a matrix without entries gets n = 1."""
    m = object.__new__(Matrix)
    fields = (rows, cols, n if rows and cols else 1, tuple(nonzeros))
    for name, value in zip(("rows", "cols", "n", "nonzeros"), fields):
        object.__setattr__(m, name, value)
    return m


def sparse_row(values, start: int = 0) -> dict:
    """{column: entry} of the nonzero entries, columns counted from start."""
    return {j: x for j, x in enumerate(values, start) if x}


def _rref_inplace(rows: list, ncols: int, stop_col: int | None = None) -> list:
    """Reduce sparse rows in place to RREF; returns the pivot columns.

    Rows are dicts {column: nonzero CycNum}; only columns before stop_col are
    pivot candidates.  The rows go to integer coordinates (`_to_coordinates`),
    `_eliminate` reduces them over positive integer pivots, and each entry
    becomes a `CycNum` once, over its row's pivot (`_from_coordinates`).

    On return rows holds the pivot rows in pivot order, then the other rows
    in input order, each up to a nonzero rational factor and empty before
    stop_col; entries are at n, the lcm of the entries' conductors.  When the
    other rows are empty (always so for stop_col == ncols) the pivot rows are
    the unique RREF; otherwise their columns from stop_col on are fixed only
    modulo the other rows, and callers treat that as inconsistent.
    """
    out, n, pad = _to_coordinates(rows)
    pivots = _eliminate(rows, ncols if stop_col is None else stop_col, n)
    _from_coordinates(rows, pivots, out, n, pad)
    return pivots


def _to_coordinates(rows: list) -> tuple:
    """Rewrite each row in place as integer coordinates over one denominator,
    at n: an int per entry for n = 1, else phi(n) ints.  Returns (out, n, pad):
    out is the lcm of the entries' conductors, n is out unless every entry is
    rational (then 1, whatever conductor they are at), and pad lifts n = 1
    coordinates to out."""
    cells = [x for row in rows for x in row.values()]
    out = math.lcm(*{x.n for x in cells})
    pad = (0,) * (euler_phi(out) - 1)
    n = out if out > 1 and any(any(x.num[1:]) for x in cells) else 1
    for row in rows:
        d = math.lcm(*[x.den for x in row.values()])
        for j, x in row.items():
            num, k = x.num, d // x.den
            if n > 1 and x.n != n:
                num = num + pad if x.n == 1 else x.lift(n).num
            row[j] = num[0] * k if n == 1 else tuple(map(k.__mul__, num))
    return out, n, pad


def _eliminate(rows: list, stop_col: int, n: int) -> list:
    """Fraction-free Gauss-Jordan (E. H. Bareiss, Math. Comp. 22, 1968) on
    rows of integer coordinates at n, in place; returns the pivot columns.

    A column index lists the rows that are nonzero there.  The pivot of each
    column before stop_col is the unused row with the fewest nonzeros, lowest
    position on ties (H. M. Markowitz, Management Sci. 3, 1957).  A pivot
    that is not rational has its row multiplied by its other Galois
    conjugates, and a negative one has its row negated, so that every pivot
    is a positive integer N.  Each indexed row with entry f there becomes
    s row - (f/g) pivot row, s = N/g, g = gcd(N, f); s = 1 whenever N
    divides f, and only s != 1 compounds a content, which is then divided
    out.  An entry that cancels leaves its row and the index.  Every row
    stays a positive multiple of the row that division by each pivot gives,
    so pivots stay positive.  Rows end up as pivot rows in pivot order, then
    the other rows in input order.
    """
    zero = 0 if n == 1 else (0,) * euler_phi(n)
    where = [set() for _ in range(stop_col)]
    for i, row in enumerate(rows):
        for j in row:
            if j < stop_col:
                where[j].add(i)
    used, order, pivots = [False] * len(rows), [], []
    for c in range(stop_col):
        if len(order) == len(rows):
            break
        p = min(((len(rows[i]), i) for i in where[c] if not used[i]), default=(0, None))[1]
        if p is None:
            continue
        prow = rows[p]
        if n > 1 and any(prow[c][1:]):
            conj = _conjugates(n, prow[c])
            for j, y in prow.items():
                prow[j] = _mul_num(n, conj, y)
            _divide_content(prow, n)
        big = prow[c] if n == 1 else prow[c][0]
        if big < 0:
            _scale(prow, n, -1)
            big = -big
        rest = [(j, y) for j, y in prow.items() if j != c]
        for i in where[c]:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            # row becomes s row + f prow, s = big/g, f = -f/g, g = gcd(big, f)
            g = math.gcd(big, f) if n == 1 else math.gcd(big, *f)
            s, f = big // g, (-f // g if n == 1 else tuple(map((-g).__rfloordiv__, f)))
            mul = None if n == 1 or any(f[1:]) else f[0].__mul__
            if s != 1:
                _scale(row, n, s)
            for j, y in rest:
                y = f * y if n == 1 else map(mul, y) if mul else _mul_num(n, f, y)
                x = row.get(j)
                if x is None:
                    if j < stop_col:
                        where[j].add(i)
                else:
                    y = x + y if n == 1 else map(add, x, y)
                row[j] = y = y if n == 1 else tuple(y)
                if y == zero:
                    del row[j]
                    if j < stop_col:
                        where[j].discard(i)
            if s != 1:
                _divide_content(row, n)
        used[p] = True
        order.append(p)
        pivots.append(c)
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if not used[i]]
    return pivots


def _from_coordinates(rows: list, pivots: list, out: int, n: int, pad: tuple) -> None:
    """Rewrite rows of integer coordinates at n in place as `CycNum`s at out,
    each pivot row divided by its (positive) pivot."""
    for row, c in zip_longest(rows, pivots):
        den = 1 if c is None else row[c] if n == 1 else row[c][0]
        for j, x in row.items():
            row[j] = _make(out, (x,) + pad if n == 1 else x, den)


@lru_cache(maxsize=1024)
def _conjugates(n: int, num: tuple) -> tuple:
    """Integer coordinates of a positive multiple of 1/num, the numerators of the
    inverse taken in num's least field, so that num times it is a positive integer."""
    return _make(n, num, 1).inverse().num


def _scale(row: dict, n: int, s: int) -> None:
    """Multiply each integer coordinate of a row by s, in place."""
    for j, x in row.items():
        row[j] = s * x if n == 1 else tuple(map(s.__mul__, x))


def _divide_content(row: dict, n: int) -> None:
    """Divide a row of integer coordinates by the gcd of them all."""
    if (g := math.gcd(*(row.values() if n == 1 else chain.from_iterable(row.values())))) > 1:
        for j, x in row.items():
            row[j] = x // g if n == 1 else tuple(map(g.__rfloordiv__, x))


def kernel_of_rows(rows: list, ncols: int) -> "Subspace":
    """Right kernel of the matrix with these sparse rows, which it overwrites.

    The rows are eliminated in integer coordinates (`_eliminate`), and the
    kernel vector of each free column f is made there: over the lcm m of the
    pivots N of the pivot rows that are nonzero in column f, it is m e_f
    minus (m/N) times that entry at each such row's pivot column.  These
    vectors are reduced to RREF in the same coordinates, and become `CycNum`s
    once: at the lcm of the rows' conductors when some kernel vector has an
    entry at a pivot column, else at conductor 1.
    """
    out, n, pad = _to_coordinates(rows)
    pivots = _eliminate(rows, ncols, n)
    if not any(len(row) > 1 for row in rows[: len(pivots)]):
        out, n, pad = 1, 1, ()  # every kernel vector is a unit vector
    terms = {j: [] for j in range(ncols)}
    for row, pc in zip(rows, pivots):
        del terms[pc]
        big = row.pop(pc) if n == 1 else row.pop(pc)[0]
        for j, x in row.items():
            terms[j].append((pc, big, x))
    basis = []
    for f, t in terms.items():
        m = math.lcm(*(big for _, big, _ in t))
        v = {f: m if n == 1 else (m,) + pad}
        for pc, big, x in t:
            s = -(m // big)
            v[pc] = s * x if n == 1 else tuple(map(s.__mul__, x))
        basis.append(v)
    _from_coordinates(basis, _eliminate(basis, ncols, n), out, n, pad)
    return Subspace(_matrix(len(basis), ncols, out, basis))


class Subspace(Immutable):
    """Subspace of a coordinate space; `basis` is its canonical RREF `Matrix`."""

    __slots__ = ("basis",)

    def __init__(self, basis: Matrix):
        object.__setattr__(self, "basis", basis)

    @staticmethod
    def from_rows(ambient_dim: int, rows) -> "Subspace":
        work = []
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
            work.append(sparse_row(map(as_cyc, r)))
        return Subspace._from_sparse(ambient_dim, work)

    @staticmethod
    def _from_sparse(ambient_dim: int, rows: list) -> "Subspace":
        """Span of sparse rows, which are reduced in place."""
        pivots = _rref_inplace(rows, ambient_dim)
        return Subspace(Matrix.from_nonzeros(ambient_dim, rows[: len(pivots)]))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def member(self, v) -> bool:
        """True iff v reduces to zero against each basis row at its pivot."""
        v = [as_cyc(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        for row in self.basis.nonzeros:
            f = v[min(row)]
            if f:
                for j, y in row.items():
                    v[j] = v[j] - f * y
        return not any(v)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )
        # Zassenhaus: in the RREF of the rows (u | u) and (v | 0), the rows
        # whose left half vanishes span the intersection with their right half
        d = self.ambient_dim
        rows = [u | {j + d: x for j, x in u.items()} for u in self.basis.nonzeros]
        rows += [dict(v) for v in other.basis.nonzeros]
        _rref_inplace(rows, 2 * d)
        meet = [{j - d: x for j, x in r.items()} for r in rows if r and min(r) >= d]
        return Subspace._from_sparse(d, meet)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"
