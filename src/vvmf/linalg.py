"""Exact linear algebra over cyclotomic fields; arithmetic skips zeros.

Everything is deterministic and goes through one elimination kernel,
`_rref_inplace`: sparse Gauss-Jordan on {column: nonzero} rows with a
per-column index of the rows that are nonzero there.  In each column the
pivot is the unused row with the fewest nonzeros (lowest position on
ties); arithmetic is exact, so there are no magnitude heuristics, and
the output is the unique RREF, pivot rows first in pivot order, so equal
subspaces have equal bases.  Dense callers convert with `sparse_row` and
`dense_row`.  Products and member tests multiply nonzero entries only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import CycNum, as_cyc


class Matrix:
    """Row-major dense matrix with all entries at one shared conductor."""

    # `_hash` caches __hash__ and stays unset until first asked
    __slots__ = ("rows", "cols", "n", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        cells = [as_cyc(x) for x in entries]
        if len(cells) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(cells)}"
            )
        n = 1
        for x in cells:
            n = n * x.n // math.gcd(n, x.n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(x.lift(n) for x in cells))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return Matrix(len(rows), ncols, [x for r in rows for x in r])

    @staticmethod
    def identity(k: int) -> "Matrix":
        return Matrix(k, k, [1 if i == j else 0 for i in range(k) for j in range(k)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij) -> CycNum:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(x == y for x, y in zip(self.entries, other.entries))
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash((self.rows, self.cols, self.entries))
        object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        self._shape_check(other)
        return Matrix(self.rows, self.cols, [x + y for x, y in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._shape_check(other)
        return Matrix(self.rows, self.cols, [x - y for x, y in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-x for x in self.entries])

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    @property
    def shape(self):
        return (self.rows, self.cols)

    def scaled(self, s) -> "Matrix":
        s = as_cyc(s)
        return Matrix(self.rows, self.cols, [s * x for x in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            # row-by-row sparse product over the nonzeros of each row of other;
            # a product with any nonzero factor lives at the joint conductor
            ocols = other.cols
            onz = [[(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)]
            zero = CycNum.zero().lift(math.lcm(self.n, other.n) if any(self.entries) else 1)
            out = []
            for i in range(self.rows):
                acc = {}
                for k, a in enumerate(self.row(i)):
                    if a:
                        for j, b in onz[k]:
                            acc[j] = acc[j] + a * b if j in acc else a * b
                out.extend(acc.get(j, zero) for j in range(ocols))
            return Matrix(self.rows, ocols, out)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        )

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i, j) is self[i, j] * other."""
        zero = CycNum.zero().lift(math.lcm(self.n, other.n))
        out = []
        for i in range(self.rows):
            for p in range(other.rows):
                for sij in self.row(i):
                    out.extend(sij * y if sij and y else zero for y in other.row(p))
        return Matrix(self.rows * other.rows, self.cols * other.cols, out)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self[i, j] == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols)
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def rref(self):
        """(reduced row-echelon form, pivot column list)."""
        work = self._sparse_rows()
        pivots = _rref_inplace(work, self.cols)
        zero = CycNum.zero().lift(self.n)
        rows = [dense_row(r, self.cols, zero) for r in work]
        return Matrix.from_rows(rows) if rows else Matrix.zeros(0, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Subspace":
        """Right kernel {v : self * v = 0} as an echelonized subspace."""
        return kernel_of_rows(self._sparse_rows(), self.cols)

    def _sparse_rows(self) -> list:
        return [sparse_row(self.row(i)) for i in range(self.rows)]

    def solve_right(self, b: "Matrix") -> "Matrix":
        """x with self * x = b; free variables set to zero.

        Raises ValueError when some column of b is outside the column span.
        """
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        width = self.cols + b.cols
        aug = [sparse_row(self.row(i)) | sparse_row(b.row(i), self.cols) for i in range(self.rows)]
        pivots = _rref_inplace(aug, width, stop_col=self.cols)
        # the rows after the pivot rows are empty before stop_col
        if any(aug[len(pivots) :]):
            raise ValueError("inconsistent linear system")
        zero = CycNum.zero()
        out = [[zero] * b.cols for _ in range(self.cols)]
        for row, pc in zip(aug, pivots):
            out[pc] = dense_row(row, width, zero, self.cols)
        return Matrix.from_rows(out) if out else Matrix.zeros(self.cols, b.cols)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        return Matrix.from_rows(invert_rows(self.to_rows(), CycNum.zero(), CycNum.one()))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    def to_json(self):
        return [[self[i, j].to_json() for j in range(self.cols)] for i in range(self.rows)]

    @staticmethod
    def from_json(obj) -> "Matrix":
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise ValueError(f"a matrix is a list of rows, got {obj!r}")
        rows = [[CycNum.from_json(x) for x in r] for r in obj]
        return Matrix.from_rows(rows)


def sparse_row(values, start: int = 0) -> dict:
    """{column: entry} of the nonzero entries, columns counted from start."""
    return {j: x for j, x in enumerate(values, start) if x}


def dense_row(row: dict, stop: int, zero, start: int = 0) -> list:
    """Entries start..stop-1 of a sparse row, zero where it has none."""
    return [row.get(j, zero) for j in range(start, stop)]


def _rref_inplace(rows: list, ncols: int, stop_col: int | None = None) -> list:
    """Reduce sparse rows in place to RREF; returns the pivot columns.

    Each row is a dict {column: nonzero entry}.  Entries are tested for
    zero by truthiness and divided with `/`, so Fraction and CycNum rows
    both work.  Only columns before stop_col are pivot candidates.

    Gauss-Jordan over a column index, the set of rows that are nonzero in
    each column.  In each column in turn the pivot is the unused row with
    the fewest nonzeros (lowest input position on ties), which limits the
    fill-in (H. M. Markowitz, Management Sci. 3, 1957).  It is normalized
    by one inverse and its column is cleared in the rows the index lists,
    pivot rows included; an entry that cancels leaves its row and the index.

    On return rows holds the pivot rows first, in pivot order, then the
    other rows in input order; those are empty before stop_col.  When they
    are empty altogether (always so for stop_col == ncols) the pivot rows
    are the unique RREF whatever the pivot choice; otherwise their columns
    from stop_col on are fixed only modulo the other rows, and callers
    treat that case as inconsistent.
    """
    if stop_col is None:
        stop_col = ncols
    nrows = len(rows)
    where = [set() for _ in range(stop_col)]
    for i, row in enumerate(rows):
        for j in row:
            if j < stop_col:
                where[j].add(i)
    used = [False] * nrows
    order, pivots = [], []
    for c in range(stop_col):
        if len(order) == nrows:
            break
        hits = where[c]
        p = min(
            (i for i in hits if not used[i]), key=lambda i: (len(rows[i]), i), default=None
        )
        if p is None:
            continue
        prow = rows[p]
        inv = 1 / prow[c]
        for j, x in prow.items():
            prow[j] = x * inv
        rest = [(j, y) for j, y in prow.items() if j != c]
        for i in hits:
            if i == p:
                continue
            row = rows[i]
            f = -row.pop(c)
            for j, y in rest:
                x = row.get(j)
                if x is None:
                    row[j] = f * y
                    if j < stop_col:
                        where[j].add(i)
                else:
                    x = x + f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        if j < stop_col:
                            where[j].discard(i)
        used[p] = True
        order.append(p)
        pivots.append(c)
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if not used[i]]
    return pivots


def kernel_of_rows(rows: list, ncols: int) -> "Subspace":
    """Right kernel of the matrix with these sparse rows; reduces the rows in place.

    The kernel vector of a free column f is e_f minus, at each pivot column,
    the pivot row's entry in column f.
    """
    pivots = _rref_inplace(rows, ncols)
    one = CycNum.one()
    basis = {j: {j: one} for j in range(ncols)}
    for row, pc in zip(rows, pivots):
        del basis[pc]
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return Subspace._from_sparse(ncols, list(basis.values()))


def invert_rows(mat, zero, one) -> list:
    """Inverse of a square matrix with entries like zero and one; ValueError if singular."""
    n = len(mat)
    aug = [sparse_row(row) | {n + i: one} for i, row in enumerate(mat)]
    if len(_rref_inplace(aug, 2 * n, stop_col=n)) < n:
        raise ValueError("matrix is singular")
    return [dense_row(row, 2 * n, zero, n) for row in aug]


def invert_rational(mat) -> list:
    """Inverse of a square rational matrix as Fraction rows; ValueError if singular."""
    return invert_rows([[Fraction(x) for x in row] for row in mat], Fraction(0), Fraction(1))


class Subspace:
    """Subspace of a coordinate space, basis held in canonical RREF."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

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
        zero = CycNum.zero()
        return Subspace(ambient_dim, [dense_row(r, ambient_dim, zero) for r in rows[: len(pivots)]])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, v) -> bool:
        """True iff v reduces to zero against the echelon basis."""
        v = [as_cyc(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        for row in self.basis:
            nz = [j for j, y in enumerate(row) if y]
            f = v[nz[0]]
            if f:
                for j in nz:
                    v[j] = v[j] - f * row[j]
        return not any(v)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # kernel of [U^T | -V^T]: solutions x, y with U^T x = V^T y
        r, s = self.dim, other.dim
        block = []
        for i in range(self.ambient_dim):
            row = [self.basis[j][i] for j in range(r)]
            row += [-other.basis[j][i] for j in range(s)]
            block.append(row)
        ker = Matrix.from_rows(block).kernel()
        vecs = []
        for kv in ker.basis:
            vec = [CycNum.zero()] * self.ambient_dim
            for j in range(r):
                if kv[j]:
                    for t, b in enumerate(self.basis[j]):
                        if b:
                            vec[t] = vec[t] + kv[j] * b
            vecs.append(vec)
        return Subspace.from_rows(self.ambient_dim, vecs)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return all(
            all(x == y for x, y in zip(r1, r2)) for r1, r2 in zip(self.basis, other.basis)
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"
