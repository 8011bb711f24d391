import json
import math
import random
from fractions import Fraction

import pytest

from vvmf import linalg
from vvmf.exactnum import CycNum, as_cyc, euler_phi
from vvmf.linalg import (
    Matrix,
    Subspace,
    _rref_inplace,
    kernel_of_rows,
    sparse_row,
)


def dense_row(row: dict, stop: int, zero, start: int = 0) -> list:
    """Entries start..stop-1 of a sparse row, zero where it has none."""
    return [row.get(j, zero) for j in range(start, stop)]


def e(i, n):
    return [1 if j == i else 0 for j in range(n)]


def test_kernel_examples():
    assert Matrix.identity(3).kernel().dim == 0
    assert Matrix.from_rows([[0, 0], [0, 0]]).kernel().dim == 2
    k = Matrix.from_rows([[1, -1]]).kernel()
    assert k.dim == 1
    assert k.member([1, 1])


def test_intersection_examples():
    u = Subspace.from_rows(2, [e(0, 2)])
    v = Subspace.from_rows(2, [e(1, 2)])
    assert u.intersect(u) == u
    assert u.intersect(v).dim == 0
    a = Subspace.from_rows(3, [e(0, 3), e(1, 3)])
    b = Subspace.from_rows(3, [e(1, 3), e(2, 3)])
    c = a.intersect(b)
    assert c == Subspace.from_rows(3, [e(1, 3)])


def test_intersection_requires_equal_ambient():
    with pytest.raises(ValueError):
        Subspace.from_rows(2, [e(0, 2)]).intersect(Subspace.from_rows(3, [e(0, 3)]))


def kron_oracle(a, b):
    out = [
        [None] * (a.cols * b.cols) for _ in range(a.rows * b.rows)
    ]
    for i in range(a.rows):
        for j in range(a.cols):
            for p in range(b.rows):
                for q in range(b.cols):
                    out[i * b.rows + p][j * b.cols + q] = a[i, j] * b[p, q]
    return Matrix.from_rows(out)


def random_matrix(rng, rows, cols, conductor=1):
    def cell():
        if conductor == 1:
            return CycNum.from_rational(Fraction(rng.randint(-4, 4)))
        return CycNum(conductor, [rng.randint(-2, 2) for _ in range(euler_phi(conductor))])

    return Matrix(rows, cols, [cell() for _ in range(rows * cols)])


def test_kron_examples_and_mixed_product():
    assert Matrix.identity(2).kron(Matrix.identity(3)) == Matrix.identity(6)
    rng = random.Random(5)
    for _ in range(5):
        a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
        assert a.kron(b) == kron_oracle(a, b)
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_kron_of_threefold_symmetry_matrix():
    s3 = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [-1, -1, -1]])
    big = s3.kron(s3)
    assert big.shape == (9, 9)
    assert big == kron_oracle(s3, s3)
    # first row, fifth column (1-based): products of the (1,2) entries
    assert big[0, 4] == CycNum.one()


def test_solve_right_examples():
    b = Matrix.from_rows([[3], [5]])
    assert Matrix.identity(2).solve_right(b) == b
    assert Matrix.identity(2).scaled(2).solve_right(b) == b.scaled(Fraction(1, 2))
    with pytest.raises(ValueError):
        Matrix.from_rows([[1], [0]]).solve_right(Matrix.from_rows([[0], [1]]))


def test_member_examples():
    s = Subspace.from_rows(3, [e(0, 3)])
    assert s.member(e(0, 3))
    assert s.member([0, 0, 0])
    assert not s.member(e(1, 3))
    with pytest.raises(ValueError):
        s.member([1, 0])


def test_rank_nullity_random():
    rng = random.Random(99)
    for trial in range(20):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        conductor = rng.choice([1, 1, 3])
        m = random_matrix(rng, rows, cols, conductor)
        assert m.rank() + m.kernel().dim == cols, (trial, rows, cols)


def test_member_invariant_under_basis_recombination():
    rng = random.Random(17)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(2)]
        s = Subspace.from_rows(5, rows)
        if s.dim != 2:
            continue
        # invertible recombination of the generating rows
        a, b, c, d = 1, rng.randint(-2, 2), 0, 1
        rec = [
            [a * x + b * y for x, y in zip(rows[0], rows[1])],
            [c * x + d * y for x, y in zip(rows[0], rows[1])],
        ]
        s2 = Subspace.from_rows(5, rec)
        assert s == s2
        probe = [rng.randint(-3, 3) for _ in range(5)]
        assert s.member(probe) == s2.member(probe)


def test_kron_respects_inverse():
    rng = random.Random(23)
    done = 0
    while done < 5:
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 2)
        try:
            ia, ib = a.inverse(), b.inverse()
        except ValueError:
            continue
        assert a.kron(b).inverse() == ia.kron(ib)
        done += 1


def test_inverse_errors_on_singular():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("conductors", [(1,), (3,), (4,), (12,), (1, 3, 4)])
def test_inverse_is_two_sided_and_keeps_the_conductor(conductors):
    """The inverse of a random invertible matrix, entries at the given
    conductors, is a left and right inverse written at the matrix's
    conductor; a singular matrix raises ValueError saying so."""
    rng, made = random.Random(f"inverse/{conductors}"), 0
    while made < 8:
        k = rng.randint(1, 5)
        m = Matrix.from_nonzeros(k, [{j: _nonzero_cell(rng, rng.choice(conductors))
                                      for j in range(k) if rng.random() < 0.7} for _ in range(k)])
        if m.kernel().dim:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
            continue
        inv = m.inverse()
        assert m * inv == inv * m == Matrix.identity(k) and inv.n == m.n
        made += 1
    z = CycNum.zeta(max(conductors))
    with pytest.raises(ValueError, match="singular"):
        Matrix.from_rows([[z, 2 * z], [1, 2]]).inverse()


def test_rref_is_canonical():
    m = Matrix.from_rows([[2, 4, 6], [1, 2, 3], [0, 1, 1]])
    r, pivots = m.rref()
    assert pivots == [0, 1]
    assert r.row(0) == tuple([CycNum.one(), CycNum.zero(), CycNum.one()])
    assert r.row(1) == tuple([CycNum.zero(), CycNum.one(), CycNum.one()])
    rng = random.Random(3)
    rows = m.to_rows() + [[1, 3, 4], [5, 10, 15]]
    want = Matrix.from_rows(rows).rref()
    for _ in range(5):
        rng.shuffle(rows)
        assert Matrix.from_rows(rows).rref() == want


def test_rref_kernel_agrees_on_rational_rows_at_any_conductor():
    """A rational system has the same pivots and RREF at conductor 1 and
    written at a larger conductor, equal to a dense Fraction reduction; the
    entries come back at the conductor the rows were written at."""
    rng = random.Random(11)
    for _ in range(10):
        vals = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(3)]
        vals.append([x + 2 * y for x, y in zip(vals[0], vals[1])])
        red, pivots = dense_rref(vals, 5)
        for n in (1, 3, 12):
            cyc = [sparse_row(CycNum.from_rational(x).lift(n) for x in r) for r in vals]
            assert _rref_inplace(cyc, 5) == pivots
            assert [dense_row(r, 5, 0) for r in cyc] == red
            assert {x.n for r in cyc for x in r.values()} == {n}


def test_rref_and_rank_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for trial in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        # over half the entries are zero, so rank deficiency is common
        vals = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * rng.randint(0, 1) for _ in range(cols)]
            for _ in range(rows)
        ]
        ref = sympy.Matrix(rows, cols, [sympy.Rational(str(x)) for r in vals for x in r])
        ref_rref, ref_pivots = ref.rref()
        m = Matrix.from_rows(vals)
        r, pivots = m.rref()
        assert pivots == list(ref_pivots), trial
        assert m.rank() == ref.rank(), trial
        got = [[str(r[i, j]) for j in range(cols)] for i in range(rows)]
        assert got == [[str(ref_rref[i, j]) for j in range(cols)] for i in range(rows)], trial


# Dense references for the zero-skipping kernels: every update runs over
# all columns, and no entry is tested for zero before it is multiplied.


def dense_rref(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def dense_kernel_basis(red, pivots, ncols):
    """Echelonized kernel basis, read off a dense RREF."""
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [CycNum.zero()] * ncols
        v[free] = CycNum.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return dense_rref(basis, ncols)[0][: len(basis)]


def dense_member(basis, v):
    for row in basis:
        pc = next(j for j, y in enumerate(row) if y != 0)
        f = v[pc]
        v = [x - f * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def dense_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), CycNum.zero()) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _rational_draw(n):
    """Draw of small nonzero rationals, written at conductor n."""
    return lambda rng: CycNum.from_rational(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    ).lift(n)


# (zero, nonzero draw): rational rows at conductor 1 and written at
# conductor 12, and rows over Q(zeta3)
SPARSE_FIELDS = {
    "Q": (CycNum.zero(), _rational_draw(1)),
    "Q@12": (CycNum.zero(), _rational_draw(12)),
    "Q(zeta3)": (
        CycNum.zero(),
        lambda rng: CycNum(3, [rng.randint(-2, 2), rng.choice([-2, -1, 1, 2])]),
    ),
}


def sparse_rows(rng, field, rows, cols, density=0.04):
    zero, draw = SPARSE_FIELDS[field]
    return [[draw(rng) if rng.random() < density else zero for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", sorted(SPARSE_FIELDS))
def test_sparse_elimination_matches_dense_reference(field):
    rng = random.Random(95)
    zeros = cells = 0
    answers = set()
    for nrows, ncols in [(60, 60), (30, 45), (40, 20)]:
        vals = sparse_rows(rng, field, nrows, ncols)
        # a few dependent rows, so the rank falls short of full
        for _ in range(3):
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            vals.append([x + 2 * y for x, y in zip(vals[i], vals[j])])
        zeros += sum(not x for r in vals for x in r)
        cells += len(vals) * ncols
        red, pivots = dense_rref(vals, ncols)
        work = [sparse_row(r) for r in vals]
        assert _rref_inplace(work, ncols) == pivots
        assert [dense_row(r, ncols, SPARSE_FIELDS[field][0]) for r in work] == red

        m = Matrix.from_rows(vals)
        assert m.kernel().basis.to_rows() == dense_kernel_basis(red, pivots, ncols)

        image = Subspace.from_rows(ncols, vals)
        probes = vals[:4] + sparse_rows(rng, field, 4, ncols, 0.2)
        for v in probes:
            answers.add(image.member(v))
            assert image.member(v) == dense_member(image.basis.to_rows(), [as_cyc(x) for x in v])

        other = Matrix.from_rows(sparse_rows(rng, field, ncols, 6, 0.1))
        assert (m * other).to_rows() == dense_product(m.to_rows(), other.to_rows())
    assert zeros >= 0.95 * cells
    assert answers == {True, False}


def test_subspace_basis_is_its_rref_matrix():
    """A Subspace keeps only its canonical RREF basis, a Matrix whose rows
    start at their pivots; dim and ambient_dim are read off it."""
    rng = random.Random(15)
    assert Subspace.__slots__ == ("basis",)
    for field in sorted(SPARSE_FIELDS):
        for nrows, ncols in [(0, 4), (3, 5), (8, 6), (12, 30)]:
            s = Subspace.from_rows(ncols, sparse_rows(rng, field, nrows, ncols, 0.3))
            red, pivots = s.basis.rref()
            assert isinstance(s.basis, Matrix) and red == s.basis
            assert pivots == [min(r) for r in s.basis.nonzeros]
            assert (s.dim, s.ambient_dim) == (len(pivots), ncols)


@pytest.mark.parametrize("field", sorted(SPARSE_FIELDS))
def test_sparse_kron_matches_dense_reference(field):
    rng = random.Random(7)
    for shape_a, shape_b in [((6, 5), (7, 8)), ((1, 9), (8, 1)), ((8, 8), (6, 6))]:
        a = Matrix.from_rows(sparse_rows(rng, field, *shape_a, 0.1))
        b = Matrix.from_rows(sparse_rows(rng, field, *shape_b, 0.1))
        assert a.kron(b) == kron_oracle(a, b)
        assert a.kron(b).n == kron_oracle(a, b).n


# The elimination kernel before it kept sparse rows: dense row lists and the
# first nonzero row below the pivot rows as pivot.  Any pivot choice gives the
# same RREF, so it is an oracle for the sparsest-row kernel.


def first_nonzero_rref(rows: list, ncols: int, stop_col: int | None = None) -> list:
    """Reduce rows in place to RREF; returns pivot columns.

    Gauss-Jordan with first-nonzero pivots; output is the unique RREF.
    Each pivot row is normalized, then its column is cleared in every
    other row.  A pivot row has no nonzero entry left of its pivot, so
    both steps touch only the pivot row's nonzero columns, and every row
    list is updated in place.  Entries are tested for zero by truthiness
    and divided with `/`, so rows of Fraction and rows of CycNum both
    work.  Only columns before stop_col are pivot candidates.
    """
    if stop_col is None:
        stop_col = ncols
    pivots = []
    nrows = len(rows)
    for c in range(stop_col):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        prow = rows[pr]
        inv = 1 / prow[c]
        nz = [j for j in range(c, ncols) if prow[j]]
        for j in nz:
            prow[j] = prow[j] * inv
        rows[pr] = rows[r]
        rows[r] = prow
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i != r and f:
                for j in nz:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
    return pivots


ORACLE_FIELDS = dict(
    SPARSE_FIELDS,
    **{
        # conductor-12 entries mixed with rational ones
        "Q(zeta12)": (
            CycNum.zero(),
            lambda rng: rng.choice(
                [
                    CycNum(12, [rng.randint(-2, 2) for _ in range(3)] + [rng.choice([-1, 1, 2])]),
                    CycNum.from_rational(rng.choice([-2, -1, 1, 3])),
                ]
            ),
        )
    },
)


def reduce_mod(v: list, basis: list) -> list:
    """v reduced against rows in RREF, pivot at each row's first nonzero."""
    v = list(v)
    for row in basis:
        pc = next(j for j, y in enumerate(row) if y)
        f = v[pc]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return v


@pytest.mark.parametrize("field", sorted(ORACLE_FIELDS))
def test_sparsest_row_kernel_matches_first_nonzero_reference(field):
    zero, draw = ORACLE_FIELDS[field]
    rng = random.Random(404)
    seen = set()
    for trial in range(60):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice([0.15, 0.3, 0.6])
        vals = [[draw(rng) if rng.random() < density else zero for _ in range(ncols)]
                for _ in range(nrows)]
        vals.insert(rng.randint(0, nrows), [zero] * ncols)
        vals.insert(rng.randint(0, nrows), list(rng.choice(vals)))
        i, j = rng.randrange(len(vals)), rng.randrange(len(vals))
        vals.append([x + 2 * y for x, y in zip(vals[i], vals[j])])
        stop = ncols if trial % 3 == 0 else rng.randint(0, ncols)

        ref = [list(r) for r in vals]
        want = first_nonzero_rref(ref, ncols, stop)
        work = [sparse_row(r) for r in vals]
        pivots = _rref_inplace(work, ncols, stop)
        assert pivots == want, trial
        k = len(pivots)
        got = [dense_row(r, ncols, zero) for r in work]
        assert all(x == 0 for r in got[k:] for x in r[:stop]), trial
        assert all(x != 0 for r, pc in zip(got, pivots) for x in [r[pc]]), trial

        # whether every remaining row has a zero tail: all that solve_right
        # reads of them
        consistent = all(x == 0 for r in got[k:] for x in r[stop:])
        assert consistent == all(x == 0 for r in ref[k:] for x in r[stop:]), trial
        seen.add((stop == ncols, consistent))
        if consistent:
            assert got[:k] == ref[:k], trial
        else:
            # the tails span the same space, and the pivot rows agree
            # modulo that span
            tails = [[r[stop:] for r in rows[k:]] for rows in (got, ref)]
            for t in tails:
                first_nonzero_rref(t, ncols - stop)
            tails = [[r for r in t if any(r)] for t in tails]
            assert tails[0] == tails[1], trial
            assert [r[:stop] for r in got[:k]] == [r[:stop] for r in ref[:k]], trial
            assert [reduce_mod(r[stop:], tails[0]) for r in got[:k]] == [
                reduce_mod(r[stop:], tails[1]) for r in ref[:k]
            ], trial
    assert seen == {(True, True), (False, True), (False, False)}


# The dense Matrix as it was before it kept only its nonzeros: a row-major
# tuple of every entry, lifted to the shared conductor.  Its results are the
# reference for the bytes (`to_json`) and the conductor `n` of every
# operation of the sparse Matrix.


class DenseMatrix:
    def __init__(self, rows, cols, entries):
        cells = [as_cyc(x) for x in entries]
        assert len(cells) == rows * cols
        n = 1
        for x in cells:
            n = n * x.n // math.gcd(n, x.n)
        self.rows, self.cols, self.n = rows, cols, n
        self.entries = tuple(x.lift(n) for x in cells)

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return DenseMatrix(len(rows), ncols, [x for r in rows for x in r])

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other):
        return DenseMatrix(self.rows, self.cols, [x + y for x, y in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return DenseMatrix(self.rows, self.cols, [x - y for x, y in zip(self.entries, other.entries)])

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, [-x for x in self.entries])

    def scaled(self, s):
        s = as_cyc(s)
        return DenseMatrix(self.rows, self.cols, [s * x for x in self.entries])

    def __mul__(self, other):
        onz = [[(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)]
        zero = CycNum.zero().lift(math.lcm(self.n, other.n) if any(self.entries) else 1)
        out = []
        for i in range(self.rows):
            acc = {}
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in onz[k]:
                        acc[j] = acc[j] + a * b if j in acc else a * b
            out.extend(acc.get(j, zero) for j in range(other.cols))
        return DenseMatrix(self.rows, other.cols, out)

    def transpose(self):
        cells = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return DenseMatrix(self.cols, self.rows, cells)

    def kron(self, other):
        zero = CycNum.zero().lift(math.lcm(self.n, other.n))
        out = []
        for i in range(self.rows):
            for p in range(other.rows):
                for sij in self.row(i):
                    out.extend(sij * y if sij and y else zero for y in other.row(p))
        return DenseMatrix(self.rows * other.rows, self.cols * other.cols, out)

    def rref(self):
        work = [sparse_row(self.row(i)) for i in range(self.rows)]
        pivots = _rref_inplace(work, self.cols)
        zero = CycNum.zero().lift(self.n)
        rows = [dense_row(r, self.cols, zero) for r in work]
        return DenseMatrix.from_rows(rows) if rows else DenseMatrix(0, self.cols, []), pivots

    def kernel(self):
        return kernel_of_rows([sparse_row(self.row(i)) for i in range(self.rows)], self.cols)

    def solve_right(self, b):
        width = self.cols + b.cols
        aug = [sparse_row(self.row(i)) | sparse_row(b.row(i), self.cols) for i in range(self.rows)]
        pivots = _rref_inplace(aug, width, stop_col=self.cols)
        if any(aug[len(pivots) :]):
            raise ValueError("inconsistent linear system")
        zero = CycNum.zero()
        out = [[zero] * b.cols for _ in range(self.cols)]
        for row, pc in zip(aug, pivots):
            out[pc] = dense_row(row, width, zero, self.cols)
        return DenseMatrix.from_rows(out) if out else DenseMatrix(self.cols, b.cols, [])

    def inverse(self):
        k, one = self.rows, CycNum.one()
        aug = [sparse_row(self.row(i)) | {k + i: one} for i in range(k)]
        if len(_rref_inplace(aug, 2 * k, stop_col=k)) < k:
            raise ValueError("matrix is singular")
        return DenseMatrix.from_rows([dense_row(row, 2 * k, CycNum.zero(), k) for row in aug])

    def to_json(self):
        return [[x.to_json() for x in self.row(i)] for i in range(self.rows)]


def _mixed_cell(rng):
    """An entry at conductor 1, 3 or 12, zero about half the time; zeros too
    are written at each of the three conductors."""
    kind = rng.randrange(6)
    if kind < 3:
        return CycNum.zero().lift((1, 3, 12)[kind])
    if kind == 3:
        return CycNum.from_rational(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
    if kind == 4:
        return CycNum(3, [rng.randint(-2, 2), rng.choice([-1, 1])])
    return CycNum(12, [rng.randint(-1, 1), rng.randint(-1, 1), 0, rng.choice([-1, 1])])


def _mixed_pair(rng, rows, cols):
    """The same random cells as a Matrix and as a DenseMatrix: mixed
    conductors, or all zero at one conductor, or one conductor only."""
    style = rng.randrange(4)
    if style == 0:
        zero = CycNum.zero().lift(rng.choice([1, 3, 12]))
        cells = [zero] * (rows * cols)
    elif style == 1:
        n = rng.choice([1, 3])
        cells = [c if c.n == n else CycNum.zero().lift(n) for c in
                 (_mixed_cell(rng) for _ in range(rows * cols))]
    else:
        cells = [_mixed_cell(rng) for _ in range(rows * cols)]
    return Matrix(rows, cols, cells), DenseMatrix(rows, cols, cells)


def _same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got.n == want.n
    assert all(x.n == got.n for row in got.nonzeros for x in row.values())


def _same_outcome(op_got, op_want, seen, name):
    """Both raise ValueError, or both give the same bytes and conductor."""
    try:
        want = op_want()
    except ValueError:
        with pytest.raises(ValueError):
            op_got()
        seen.add((name, False))
        return
    _same(op_got(), want)
    seen.add((name, True))


def test_sparse_matrix_matches_dense_reference_bytes_and_conductor():
    rng = random.Random(1412)
    seen = set()
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
    for trial in range(120):
        r, c = rng.choice(shapes)
        (a, da), (b, db) = _mixed_pair(rng, r, c), _mixed_pair(rng, r, c)
        _same(a, da)
        wide = Matrix(r, c, [x.lift(12) for x in a.entries])
        assert wide == a and hash(wide) == hash(a)
        _same(a + b, da + db)
        _same(a - b, da - db)
        _same(-a, -da)
        s = _mixed_cell(rng)
        _same(a.scaled(s), da.scaled(s))
        k = rng.choice([0, 1, 2, 3])
        e, de = _mixed_pair(rng, c, k)
        _same(a * e, da * de)
        _same(a.kron(e), da.kron(de))
        _same(a.transpose(), da.transpose())
        (got, pivots), (want, want_pivots) = a.rref(), da.rref()
        _same(got, want)
        assert pivots == want_pivots
        assert [[x.to_json() for x in v] for v in a.kernel().basis.to_rows()] == [
            [x.to_json() for x in v] for v in da.kernel().basis.to_rows()
        ]
        # a consistent right-hand side a * x, and a random one
        x, dx = _mixed_pair(rng, c, k)
        for rhs, drhs in ((a * x, da * dx), _mixed_pair(rng, r, k)):
            _same_outcome(lambda: a.solve_right(rhs), lambda: da.solve_right(drhs), seen, "solve")
        q, dq = _mixed_pair(rng, r, r)
        _same_outcome(q.inverse, dq.inverse, seen, "inverse")
    assert seen == {(op, ok) for op in ("solve", "inverse") for ok in (True, False)}


# The sparse kernel as it was before it reduced integer coordinates: every
# update makes new CycNum entries.  It picks the same pivots,
# so it is an exact oracle for the fraction-free kernel, also for the pivot
# rows of an inconsistent system, whose columns from stop_col on depend on
# the pivot choice.


def reference_rref(rows: list, ncols: int, stop_col: int | None = None) -> list:
    """Reduce sparse rows in place to RREF; returns the pivot columns.

    Gauss-Jordan over a column index, the set of rows that are nonzero in
    each column.  In each column in turn the pivot is the unused row with
    the fewest nonzeros (lowest input position on ties).  It is normalized
    by one inverse and its column is cleared in the rows the index lists,
    pivot rows included; an entry that cancels leaves its row and the index.
    Entries are divided with `/`.
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


def _nonzero_cell(rng, n):
    """A random nonzero entry at conductor n: small integer coordinates over
    a small denominator."""
    while True:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(n))]
        if n > 1 and rng.random() < 0.3:
            coords[1:] = [0] * (len(coords) - 1)  # a rational entry written at n
        if any(coords):
            return CycNum(n, coords)


def _system(rng, conductors, nrows, ncols):
    """Random sparse rows with some zero, repeated and dependent rows, each
    entry at a conductor drawn from conductors."""
    density = rng.choice([0.2, 0.35, 0.6])
    rows = [{j: _nonzero_cell(rng, rng.choice(conductors)) for j in range(ncols)
             if rng.random() < density} for _ in range(nrows)]
    rows.insert(rng.randint(0, nrows), {})
    rows.append(dict(rng.choice(rows)))
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    two = CycNum.from_rational(2)
    both = {k: rows[i].get(k, 0) + two * rows[j].get(k, 0) for k in rows[i].keys() | rows[j].keys()}
    rows.append({k: x for k, x in both.items() if x})
    return rows


def _kernels_agree(rows, ncols, stop=None, single_conductor=None):
    """Both kernels on copies of rows: the same pivots, equal pivot rows, and
    remaining rows that are empty before stop and nonzero in the same
    columns (each is a nonzero multiple of the reference's).  Returns
    whether the remaining rows are all empty."""
    got, want = [dict(r) for r in rows], [dict(r) for r in rows]
    pivots = _rref_inplace(got, ncols, stop)
    assert pivots == reference_rref(want, ncols, stop)
    k = len(pivots)
    assert got[:k] == want[:k]
    assert [r[pc] for r, pc in zip(got, pivots)] == [1] * k
    assert all(j >= (ncols if stop is None else stop) for r in got[k:] for j in r)
    assert [set(r) for r in got[k:]] == [set(r) for r in want[k:]]
    cells = [x for r in got for x in r.values()]
    if single_conductor is not None:
        assert [[x.n for x in r.values()] for r in got[:k]] == [
            [x.n for x in r.values()] for r in want[:k]
        ]
    if cells:
        joint = math.lcm(*(x.n for r in rows for x in r.values()))
        assert {x.n for x in cells} == {joint}
    return not any(got[k:])


def _same_outcome_as_reference(monkeypatch, op):
    """op() with the kernel and with the reference kernel in its place give
    equal results, or both raise ValueError; returns whether they raised."""

    def outcome():
        try:
            return op()
        except ValueError:
            return ValueError

    with monkeypatch.context() as m:
        m.setattr(linalg, "_rref_inplace", reference_rref)
        want = outcome()
    assert outcome() == want
    return want is ValueError


@pytest.mark.parametrize("conductors", [(1,), (3,), (4,), (5,), (12,), (1, 3, 4), (3, 5)])
def test_fraction_free_kernel_matches_the_reference_kernel(monkeypatch, conductors):
    rng = random.Random(1900 + sum(conductors) * len(conductors))
    single = conductors[0] if len(conductors) == 1 else None
    seen = set()
    for trial in range(30):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _system(rng, conductors, nrows, ncols)
        _kernels_agree(rows, ncols, None, single)
        stop = rng.randint(0, ncols)
        seen.add(("stop", stop < ncols, _kernels_agree(rows, ncols, stop, single)))
        # the same pattern with rational entries written at the same conductors
        rational = [{j: as_cyc(x.c[0] or 1).lift(x.n) for j, x in r.items()} for r in rows]
        _kernels_agree(rational, ncols, stop, single)

        # solve_right with a consistent right-hand side a * x and a random one,
        # and its augmented rows, whose pivot rows depend on the pivot choice
        # when the system is inconsistent
        a = Matrix.from_nonzeros(ncols, rows)
        x = Matrix.from_nonzeros(2, _system(rng, conductors, ncols, 2)[:ncols])
        y = Matrix.from_nonzeros(2, _system(rng, conductors, len(rows), 2)[: len(rows)])
        for b in (a * x, y):
            aug = [r | {ncols + j: y for j, y in s.items()} for r, s in zip(a.nonzeros, b.nonzeros)]
            consistent = _kernels_agree(aug, ncols + 2, ncols, single)
            raised = _same_outcome_as_reference(monkeypatch, lambda: a.solve_right(b))
            assert raised != consistent
            seen.add(("solve", consistent))

        # the inverse of a square system, invertible or singular
        square = _system(rng, conductors, ncols, ncols)[:ncols]
        one = CycNum.one()
        aug = [r | {ncols + i: one} for i, r in enumerate(square)]
        _kernels_agree(aug, 2 * ncols, ncols)
        raised = _same_outcome_as_reference(
            monkeypatch, lambda: Matrix.from_nonzeros(ncols, square).inverse())
        seen.add(("invert", raised))
    assert seen >= {("solve", True), ("solve", False), ("invert", True), ("invert", False)}
    assert ("stop", True, False) in seen


def test_rational_rows_match_the_reference_kernel(monkeypatch):
    """Rational rows, as integer matrix inverses pass them, at conductor 1
    and written at conductor 4, come back at that conductor and equal to
    the reference's."""
    rng = random.Random(1919)
    seen = set()
    for trial in range(40):
        k, n = rng.randint(1, 6), rng.choice([1, 4])
        mat = [[rng.randint(-4, 4) * (rng.random() < 0.6) for _ in range(k)] for _ in range(k)]
        if trial % 4 == 0:
            mat[-1] = [2 * x for x in mat[0]]
        rows = [sparse_row(as_cyc(x).lift(n) for x in r) for r in mat]
        aug = [r | {k + i: CycNum.one()} for i, r in enumerate(rows)]
        _kernels_agree(aug, 2 * k, k)
        square = Matrix.from_rows(mat)
        seen.add(_same_outcome_as_reference(monkeypatch, square.inverse))
        seen.add(_same_outcome_as_reference(monkeypatch,
                                            lambda: Matrix.from_nonzeros(k, rows).inverse()))
        # a rational system with a right-hand side, not square
        rows = [sparse_row(CycNum.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                                * (rng.random() < 0.5)).lift(n)
                           for _ in range(k + 2)) for _ in range(k)]
        _kernels_agree(rows, k + 2, rng.randint(0, k + 2))
    assert seen == {True, False}


def two_elimination_kernel(rows: list, ncols: int) -> Subspace:
    """The kernel as it was built from `CycNum` rows: the RREF of the rows,
    then e_f minus the pivot rows' entries in column f for each free column
    f, put in RREF by a second elimination."""
    pivots = _rref_inplace(rows, ncols)
    one = CycNum.one()
    basis = {j: {j: one} for j in range(ncols)}
    for row, pc in zip(rows, pivots):
        del basis[pc]
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return Subspace._from_sparse(ncols, list(basis.values()))


def _triangular(rng, conductors, cols):
    """Shuffled rows with a nonzero entry at each of cols and random entries
    after it: a system of full rank on cols."""
    rows = [{j: _nonzero_cell(rng, rng.choice(conductors))}
            | {k: _nonzero_cell(rng, rng.choice(conductors)) for k in cols if k > j
               and rng.random() < 0.5} for j in cols]
    return rng.sample(rows, len(rows))


@pytest.mark.parametrize("conductors", [(1,), (3,), (4,), (5,), (12,), (1, 3, 4), (3, 5)])
def test_kernel_in_coordinates_matches_the_two_elimination_kernel(conductors):
    """Equal bytes, basis conductor and entry conductors, on random systems,
    their rational patterns, full-rank systems (no kernel) and systems of
    full rank on some columns (a kernel of unit vectors, at conductor 1)."""
    rng = random.Random(3500 + sum(conductors) * len(conductors))
    seen = set()
    for trial in range(30):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = _system(rng, conductors, nrows, ncols)
        rational = [{j: as_cyc(x.c[0] or 1).lift(x.n) for j, x in r.items()} for r in rows]
        full = _triangular(rng, conductors, range(ncols))
        units = _triangular(rng, conductors, sorted(rng.sample(range(ncols), rng.randint(0, ncols))))
        for system in (rows, rational, full, units):
            got = kernel_of_rows([dict(r) for r in system], ncols)
            want = two_elimination_kernel([dict(r) for r in system], ncols)
            assert json.dumps(got.basis.to_json()) == json.dumps(want.basis.to_json())
            assert got.basis.n == want.basis.n
            assert [{j: x.n for j, x in r.items()} for r in got.basis.nonzeros] == [
                {j: x.n for j, x in r.items()} for r in want.basis.nonzeros
            ]
            joint = math.lcm(*(x.n for r in system for x in r.values()))
            units = all(len(r) == 1 for r in got.basis.nonzeros)
            seen.add(("empty" if not got.dim else "units" if units else "vectors", joint > 1))
    lifted = conductors != (1,)
    assert seen >= {("empty", lifted), ("units", lifted), ("vectors", lifted)}


def test_negative_pivots_are_negated_once_and_never_rescale_rows(monkeypatch):
    """Rational rows -e_j, e_j and a permutation of the e_j, each with a tail
    of three random entries: every pivot is -1, so negating each pivot row
    once makes every update s = 1, with no rescaling and no content pass."""
    k, rng = 6, random.Random(35)
    perm = rng.sample(range(k), k)

    def tailed(j, sign):
        tail = {k + t: as_cyc(rng.choice([-2, -1, 1, 3])) for t in range(3)}
        return {j: as_cyc(sign)} | tail

    rows = [tailed(j, -1) for j in range(k)] + [tailed(j, 1) for j in range(k)]
    rows += [tailed(j, 1) for j in perm]
    calls = {"_scale": 0, "_divide_content": 0}
    for name in calls:

        def spy(*args, name=name, real=getattr(linalg, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(linalg, name, spy)
    _kernels_agree(rows, k + 3, k)
    assert calls["_divide_content"] == 0
    assert calls["_scale"] <= k


def loop_member(s: Subspace, v) -> bool:
    """Membership as `Subspace.member` decided it before it went through
    `_rref_inplace`: v reduced to zero against each basis row at its pivot."""
    v = [as_cyc(x) for x in v]
    for row in s.basis.nonzeros:
        f = v[min(row)]
        if f:
            for j, y in row.items():
                v[j] = v[j] - f * y
    return not any(v)


@pytest.mark.parametrize("conductors", [(1,), (3,), (12,), (1, 3, 12)])
def test_member_matches_the_reduction_loop(conductors):
    # seeded bases of dimension 0 to 4 with entries over Q, Q(zeta3) and
    # Q(zeta12); the probes are the zero vector, members (combinations of the
    # spanning rows, with coefficients from any of the three fields), each of
    # them plus a unit vector, and random vectors
    rng = random.Random(f"member/{conductors}")
    dims, answers = set(), set()
    for _ in range(60):
        ncols = rng.randint(1, 7)
        rows = [[_nonzero_cell(rng, rng.choice(conductors)) if rng.random() < 0.5 else 0
                 for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
        s = Subspace.from_rows(ncols, rows)
        if s.dim > 4:
            continue
        dims.add(s.dim)
        probes = [[0] * ncols]
        for _ in range(3):
            member = [CycNum.zero()] * ncols
            for r in rows:
                f = _nonzero_cell(rng, rng.choice((1, 3, 12)))
                member = [x + f * as_cyc(y) for x, y in zip(member, r)]
            k = rng.randrange(ncols)
            probes += [member, [x + int(j == k) for j, x in enumerate(member)]]
            probes.append([_nonzero_cell(rng, rng.choice(conductors)) if rng.random() < 0.6 else 0
                           for _ in range(ncols)])
        for v in probes:
            got = s.member(v)
            assert got is loop_member(s, v), (rows, v)
            answers.add((got, any(as_cyc(x) for x in v)))
    assert dims == {0, 1, 2, 3, 4}
    assert answers == {(True, False), (True, True), (False, True)}
