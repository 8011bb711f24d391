import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from vvmf import hyperalg
from vvmf.ahol import AholForm, _images, apply_intertwiner, raise_op
from vvmf.exactnum import CycNum
from vvmf.forms import delta_form, eisenstein
from vvmf.hecke import hecke_form, pi_M
from vvmf.forms import vv_eisenstein
from vvmf.hyperalg import (
    FormSpan,
    _Pivots,
    congruence_index,
    hyper_tensor,
    projections,
    span_contains,
    span_sum,
    sturm_bound,
    tensor_form,
)
from vvmf.linalg import Matrix, Subspace, sparse_row
from vvmf.qexp import InsufficientPrecision, QExp, combine
from vvmf.reps import Rep, RepRegistry, builtin_registry, hom_space, trivial_rep


def one_form(prec) -> AholForm:
    """The constant 1 in weight 0, the identity of the product."""
    return AholForm.holomorphic(0, trivial_rep(), (QExp(1, prec, {0: 1}),), name="1")


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


@pytest.fixture(scope="module")
def triv_only():
    return RepRegistry([trivial_rep()])


def retype_trivial(f):
    return AholForm(f.weight, trivial_rep(), f.graded, name=f.name)


def test_product_of_scalar_eisenstein_series(triv_only):
    e4 = eisenstein(4, 6)
    e8 = eisenstein(8, 6)
    span = hyper_tensor(e4, e8, triv_only)
    assert span.dimension_signature() == {(12, "triv"): 1}
    prod = retype_trivial(tensor_form(e4, e8))
    assert span_contains(span, prod, 3)


def test_identity_axiom(triv_only):
    one = one_form(6)
    e6 = eisenstein(6, 6)
    span = hyper_tensor(one, e6, triv_only)
    assert span.dimension_signature() == {(6, "triv"): 1}
    assert span_contains(span, e6, 2)


def test_tensor_square_support(reg):
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    t3 = hecke_form(3, eisenstein(12, 9))
    e12rho3 = apply_intertwiner(phi, t3, reg.get("rho3"))
    span = hyper_tensor(e12rho3, e12rho3, reg)
    assert set(span.grading) == {
        (24, "triv"),
        (24, "rho3"),
        (24, "rho_zeta"),
        (24, "rho_zeta2"),
    }


def test_golden_trivial_component(reg):
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    t3 = hecke_form(3, eisenstein(12, 9))
    e12rho3 = apply_intertwiner(phi, t3, reg.get("rho3"))
    half = Fraction(1, 2)
    phi_triv = Matrix.from_rows([[1, half, half, half, 1, half, half, half, 1]])
    sq = tensor_form(e12rho3, e12rho3)
    out = apply_intertwiner(phi_triv, sq, reg.get("triv")).components[0]
    assert out.coeff(0) == CycNum.from_rational(Fraction(564856947200, 1594323))
    assert out.coeff(1) == CycNum.from_rational(Fraction(-1894333004462080000, 84584326707))
    assert out.coeff(2) == CycNum.from_rational(Fraction(-1261863434802833408000, 28194775569))


def test_span_sum_is_idempotent(triv_only):
    e4 = eisenstein(4, 6)
    e8 = eisenstein(8, 6)
    s = hyper_tensor(e4, e8, triv_only)
    assert span_sum([s, s]).dimension_signature() == s.dimension_signature()


def test_span_sum_of_independent_products(triv_only):
    e4 = eisenstein(4, 6)
    e6 = eisenstein(6, 6)
    e8 = eisenstein(8, 6)
    s1 = hyper_tensor(e4, e8, triv_only)
    s2 = hyper_tensor(e6, e6, triv_only)
    total = span_sum([s1, s2])
    assert total.grade_dimension((12, "triv")) == 2
    # oracle: distinct constant/q coefficient ratios
    p1 = tensor_form(e4, e8).graded[0][0]
    p2 = tensor_form(e6, e6).graded[0][0]
    assert p1.coeff(1) * p2.coeff(0) != p2.coeff(1) * p1.coeff(0)


def test_span_sum_of_nothing_is_empty():
    assert span_sum([]).grades() == []


def test_membership_examples(triv_only):
    e4 = eisenstein(4, 6)
    e6 = eisenstein(6, 6)
    e8 = eisenstein(8, 6)
    delta = delta_form(6)

    single = FormSpan.of(retype_trivial(tensor_form(e4, e8)))
    assert span_contains(single, retype_trivial(tensor_form(e4, e8)), 3)
    assert not span_contains(single, delta, 3)

    both = span_sum(
        [single, FormSpan.of(retype_trivial(tensor_form(e6, e6)))]
    )
    assert span_contains(both, delta, 3)
    # independent 2x2 solve on the first two coefficients, checked deeper
    p1 = tensor_form(e4, e8).graded[0][0]
    p2 = tensor_form(e6, e6).graded[0][0]
    det = p1.coeff(0) * p2.coeff(1) - p2.coeff(0) * p1.coeff(1)
    assert not det.is_zero()
    d0, d1 = delta.graded[0][0].coeff(0), delta.graded[0][0].coeff(1)
    c1 = (d0 * p2.coeff(1) - d1 * p2.coeff(0)) / det
    c2 = (p1.coeff(0) * d1 - p1.coeff(1) * d0) / det
    for n in range(6):
        combo = c1 * p1.coeff(n) + c2 * p2.coeff(n)
        assert combo == delta.graded[0][0].coeff(n), n


def test_membership_requires_precision(triv_only):
    e4 = eisenstein(4, 6)
    e8 = eisenstein(8, 6)
    span = hyper_tensor(e4, e8, triv_only)
    delta = delta_form(6)
    with pytest.raises(InsufficientPrecision):
        span_contains(span, delta, 1)  # below the Sturm bound 2
    with pytest.raises(InsufficientPrecision):
        span_contains(span, delta, 8)  # beyond the stored expansions


def test_grade_rows_refuse_precision_beyond_the_generators():
    span = FormSpan.of(eisenstein(4, 5))
    with pytest.raises(InsufficientPrecision):
        span.grade_rows((4, "triv"), 10)  # coefficients 5..9 are unknown
    rows = span.grade_rows((4, "triv"), 5)
    assert isinstance(rows, Matrix) and rows.shape == (1, 5)
    assert rows.rref() == (rows, [0])


def test_sturm_bound_values():
    assert sturm_bound(12, 1) == 2
    assert sturm_bound(24, 1) == 3
    assert sturm_bound(12, 24) == 25


def test_congruence_index_values():
    assert [congruence_index(n) for n in (1, 2, 3, 4)] == [1, 6, 24, 48]


@pytest.mark.parametrize("level", range(1, 9))
def test_congruence_index_counts_sl2_mod_n(level):
    # [SL2(Z) : Gamma(N)] = |SL2(Z/NZ)|, counted over all four entries mod N
    r = range(level)
    count = sum((a * d - b * c) % level == 1 % level for a in r for b in r for c in r for d in r)
    assert congruence_index(level) == count


def test_product_is_commutative_gradewise(reg):
    e4 = eisenstein(4, 6)
    e6 = eisenstein(6, 6)
    t2e4 = hecke_form(2, e4)
    t2e6 = hecke_form(2, e6)
    for f, g in [(e4, e6), (t2e4, t2e6)]:
        s1 = hyper_tensor(f, g, reg)
        s2 = hyper_tensor(g, f, reg)
        assert s1.dimension_signature() == s2.dimension_signature()
        for key in s1.grades():
            assert s1.grade_rows(key) == s2.grade_rows(key), key


def test_hecke_compatibility_of_products(reg, triv_only):
    # the coset-diagonal projection of (T_M E4) (x) (T_M E6) spans the same
    # line as T_M(E4 E6)
    for M in (2, 3):
        e4 = eisenstein(4, 4 * M)
        e6 = eisenstein(6, 4 * M)
        te4, te6 = hecke_form(M, e4), hecke_form(M, e6)
        tprod = hecke_form(M, tensor_form(e4, e6))
        projected = apply_intertwiner(
            pi_M(reg.get("triv"), reg.get("triv"), M), tensor_form(te4, te6), tprod.rep
        )
        assert projected.agrees_with(tprod, 4)
        lhs = FormSpan.of(projected)
        rhs = FormSpan.of(tprod)
        key = (10, tprod.rep.label)
        assert lhs.grade_rows(key, 4) == rhs.grade_rows(key, 4)


def test_truncation_commutes_with_product(triv_only):
    e4 = eisenstein(4, 6)
    e8 = eisenstein(8, 6)
    full = hyper_tensor(e4, e8, triv_only)
    short = hyper_tensor(e4.truncate(4), e8, triv_only)
    key = (12, "triv")
    assert full.grade_rows(key, 4) == short.grade_rows(key, 4)


def test_hyper_tensor_rejects_odd_weights(triv_only):
    f = AholForm.holomorphic(3, trivial_rep(), [eisenstein(4, 4).components[0]])
    with pytest.raises(ValueError):
        hyper_tensor(f, f, triv_only)


# -- the fused projections against the two-step path they replaced ------
#
# oracle_tensor_form makes every tensor component by one `combine` row and
# two_step_span projects them with `projections`: the path `hyper_tensor`
# took before it made each projected row from f and g directly.


def oracle_tensor_form(f: AholForm, g: AholForm) -> AholForm:
    rep = f.rep.tensor(g.rep)
    depth, dim = f.depth + g.depth, g.rep.dim
    rows = [
        [f.graded[s - r][i] if k == j and 0 <= s - r <= f.depth else 0
         for r in range(g.depth + 1) for k in range(dim)]
        for s in range(depth + 1) for i in range(f.rep.dim) for j in range(dim)
    ]
    comps = combine(rows, [q for layer in g.graded for q in layer])
    layers = [comps[s * rep.dim : (s + 1) * rep.dim] for s in range(depth + 1)]
    name = f"({f.name} (x) {g.name})" if f.name and g.name else ""
    return AholForm(f.weight + g.weight, rep, layers, name=name)


def two_step_span(f: AholForm, g: AholForm, targets) -> FormSpan:
    span = FormSpan()
    name = f"({f.name or 'f'} (x) {g.name or 'g'})"
    for tag, image in projections(oracle_tensor_form(f, g), targets):
        span.add(image, provenance=f"phi[{tag}] . {name}")
    return span


def assert_fused_matches_two_step(f, g, targets):
    want = two_step_span(f, g, targets)
    assert want.grading, "the case projects onto nothing"
    assert json.dumps(hyper_tensor(f, g, targets).to_json()) == json.dumps(want.to_json())
    fused, oracle = tensor_form(f, g), oracle_tensor_form(f, g)
    assert json.dumps(fused.to_json()) == json.dumps(oracle.to_json())
    assert fused.name == oracle.name


@pytest.fixture(scope="module")
def rho3_eisenstein(reg):
    """The vv-product inputs: rho3 Eisenstein series of weights 4 to 12 at
    the Sturm bound 33, coefficients over Q and Q(zeta3) on lattice 1/3."""
    rho3 = reg.get("rho3")
    return {a: vv_eisenstein(a, rho3, 3, 33).generators((a, "rho3"))[0][0] for a in (4, 6, 8, 10, 12)}


@pytest.mark.parametrize("a, b", [(4, 12), (6, 10), (8, 8)])
def test_fused_projections_match_the_two_step_path_at_depth_0(reg, rho3_eisenstein, a, b):
    f, g = rho3_eisenstein[a], rho3_eisenstein[b]
    # the maps onto triv are rational, those onto the cubic characters are not
    maps = [phi for t in reg for phi in hom_space(f.rep.tensor(g.rep), t)]
    assert {phi.n for phi in maps} == {1, 3}
    assert_fused_matches_two_step(f, g, reg)


def test_fused_projections_match_the_two_step_path_at_depth_1(reg, rho3_eisenstein):
    t3e4, t3e8 = (hecke_form(3, eisenstein(k, 12)) for k in (4, 8))
    r4, r6 = raise_op(rho3_eisenstein[4]), raise_op(rho3_eisenstein[6])
    for f, g in ((raise_op(t3e4), t3e8), (t3e8, raise_op(t3e4)), (r4, r6), (r4, rho3_eisenstein[8])):
        assert f.depth + g.depth >= 1
        assert_fused_matches_two_step(f, g, reg)


def test_fused_projections_skip_zero_map_blocks_and_empty_hom_spaces(reg):
    # the components of T4(E4) differ in lattice and precision; the
    # commutant of its type has maps with zero entries, whose factors must
    # not lower a projected row's precision, and the level-3 targets of the
    # registry have no map from it at all
    t4e4, e6 = hecke_form(4, eisenstein(4, 8)), eisenstein(6, 10)
    assert len({q.h for q in t4e4.components}) > 1 and len({q.prec for q in t4e4.components}) > 1
    targets = list(reg) + [t4e4.rep]
    rep = t4e4.rep.tensor(e6.rep)
    assert any(not hom_space(rep, t) for t in targets)
    assert any(any(x.is_zero() for x in phi.row(0)) for phi in hom_space(rep, t4e4.rep))
    assert_fused_matches_two_step(t4e4, e6, targets)
    assert_fused_matches_two_step(e6, raise_op(t4e4), targets)


def test_a_zero_map_row_is_zero_at_the_layer_precision():
    # phi's second row is zero: its component is QExp.zero at the least
    # precision of the layer's factors, as the two-step path gives it
    triv = trivial_rep()
    f = AholForm.holomorphic(4, triv, [QExp(1, 5, {0: 1, 2: 3})])
    g = AholForm.holomorphic(4, triv, [QExp(3, 4, {1: 2})])
    two = Rep("two", 1, Matrix.identity(2), Matrix.identity(2))
    phi = Matrix.from_rows([[1], [0]])
    (got,) = _images(f, g, [(phi, two)], "")
    (want,) = _images(oracle_tensor_form(f, g), None, [(phi, two)], "")
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got.graded[0][1] == QExp.zero(4)


def test_a_cancelled_tensor_coefficient_keeps_its_conductor_in_the_fused_row():
    # at q^1, f_0 g_0 = zeta3 * (-1) + zeta3 * 1 cancels: the two-step path
    # drops that tensor coefficient, so the projected q^1 coefficient, 1
    # from f_1 g_0 alone, stays at conductor 1 there, while the fused row
    # counts every pair that reaches q^1 and stores the same value at 3
    z, triv = CycNum.zeta(3), trivial_rep()
    two = Rep("two", 1, Matrix.identity(2), Matrix.identity(2))
    f = AholForm.holomorphic(4, two, [QExp(1, 4, {0: z, 1: z}), QExp(1, 4, {1: 1})])
    g = AholForm.holomorphic(4, triv, [QExp(1, 4, {0: 1, 1: -1})])
    phi = Matrix.from_rows([[1, 1]])
    tensor = oracle_tensor_form(f, g)
    assert 1 not in tensor.graded[0][0].terms
    (got,) = _images(f, g, [(phi, triv)], "")
    (want,) = _images(tensor, None, [(phi, triv)], "")
    assert got.graded[0][0] == want.graded[0][0] == QExp(1, 4, {0: z, 1: 1, 2: -z - 1})
    assert want.graded[0][0].terms[1].to_json() == {"n": 1, "c": ["1"]}
    assert got.graded[0][0].terms[1].to_json() == {"n": 3, "c": ["1", "0"]}


def test_types_are_identified_by_content_not_label(reg):
    # an impostor labelled rho_zeta whose T is zeta3^2, the T of rho_zeta2
    real = reg.get("rho_zeta")
    impostor = Rep("rho_zeta", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3, 2)]))
    assert impostor.validate().ok and impostor.content != real.content
    q = QExp(3, 6, {1: CycNum.one(), 4: CycNum.zeta(3)})
    f = AholForm.holomorphic(2, real, [q])
    fake = AholForm.holomorphic(2, impostor, [q])
    # a content-equal copy of the real type still mixes with it
    twin = Rep("rho_zeta", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3)]))
    assert (f + AholForm.holomorphic(2, twin, [q])).rep is real
    with pytest.raises(ValueError, match="share the label"):
        f + fake
    span = FormSpan.of(f)
    with pytest.raises(ValueError, match="share the label"):
        span.add(fake)
    with pytest.raises(ValueError, match="share the label"):
        span_contains(span, fake, 6)
    # the grade key and the stored generators are untouched
    assert span.dimension_signature() == {(2, "rho_zeta"): 1}
    assert span_contains(span, f, 6)


# -- oracle for the incremental spans -----------------------------------------
# The span as it was before each grade kept a pivot state: every add and every
# membership query rebuilds all coefficient rows of the grade (through rescaled
# QExps) and decides by a full RREF.


def _reference_rows(forms, prec=None):
    h = math.lcm(*(q.h for f in forms for layer in f.graded for q in layer))
    depth = max(f.depth for f in forms)
    dim = forms[0].rep.dim
    if prec is None:
        prec = min(f.prec for f in forms)
    bound = math.ceil(Fraction(prec) * h)
    zero = CycNum.zero()
    rows = []
    for f in forms:
        row = []
        for r in range(depth + 1):
            for i in range(dim):
                if r > f.depth:
                    row.extend([zero] * bound)
                    continue
                q = f.graded[r][i].rescale_lattice(h)
                row.extend(q.terms.get(n, zero) for n in range(bound))
        rows.append(row)
    return rows


class ReferenceSpan:
    def __init__(self):
        self.grading = {}

    def add(self, form, provenance=""):
        if form.is_zero():
            return False
        gens = self.grading.setdefault((form.weight, form.rep.label), [])
        rows = _reference_rows([f for f, _ in gens] + [form])
        if Subspace.from_rows(len(rows[0]), rows).dim == len(rows):
            gens.append((form, provenance or form.name))
            return True
        return False

    def grade_rows(self, key):
        if not self.grading.get(key):
            return ()
        rows = _reference_rows([f for f, _ in self.grading[key]])
        return Subspace.from_rows(len(rows[0]), rows).basis

    def contains(self, f, prec_used):
        prec_used = Fraction(prec_used)
        if prec_used < sturm_bound(f.weight, congruence_index(f.rep.level)):
            raise InsufficientPrecision("below the Sturm bound")
        if f.prec < prec_used:
            raise InsufficientPrecision("candidate precision")
        gens = [g for g, _ in self.grading.get((f.weight, f.rep.label), [])]
        if f.is_zero():
            return True
        if not gens:
            return False
        if any(g.prec < prec_used for g in gens):
            raise InsufficientPrecision("generator precision")
        rows = _reference_rows(gens + [f], prec_used)
        return Subspace.from_rows(len(rows[0]), rows[:-1]).member(rows[-1])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientPrecision:
        return InsufficientPrecision


def _random_qexp(rng, n, h, prec):
    bound = math.ceil(prec * h)
    return QExp(h, prec, {e: CycNum(n, [rng.randint(-3, 3) for _ in range(max(n - 1, 1))])
                          for e in range(bound) if rng.random() < 0.7})


def _random_form(rng, weight, rep, n, lattices, prec, depth):
    layers = [[_random_qexp(rng, n, rng.choice(lattices), prec) for _ in range(rep.dim)]
              for _ in range(depth + 1)]
    return AholForm(weight, rep, layers)


def _combination(rng, pool, n):
    out = None
    for f in rng.sample(pool, rng.randint(1, len(pool))):
        c = CycNum(n, [rng.randint(-2, 2) for _ in range(max(n - 1, 1))])
        out = f.scaled(c) if out is None else out + f.scaled(c)
    return out


# (weight, type, conductor, lattices, precision, lower precisions, query precisions);
# conductor 3 gives coefficients in Q(zeta3), and a lattice choice of 1 and 3
# mixes h = 1 and h = 3 components in one grade
_ORACLE_GRADES = [
    (12, "triv", 1, (1,), 6, (1, 3, 4), (2, 3, 4, 6, 7)),
    (2, "rho3", 3, (1, 3), 6, (5,), (4, 5, 6)),
]


def _check_against_reference(reg, seed):
    """Add seeded arrivals to a FormSpan and a ReferenceSpan, then query both."""
    rng = random.Random(seed)
    span, ref = FormSpan(), ReferenceSpan()
    for weight, label, n, lattices, prec, lower, query_precs in _ORACLE_GRADES:
        rep = reg.get(label)
        key = (weight, label)
        # a pool of depth-0 and depth-1 forms; the lattice is mixed per component
        pool = [_random_form(rng, weight, rep, n, lattices[:1], prec, 0) for _ in range(2)]
        pool += [_random_form(rng, weight, rep, n, lattices, prec, rng.randint(0, 1))
                 for _ in range(2)]
        arrivals = []
        for step in range(14):
            form = _combination(rng, pool[: 2 + step // 5], n)
            if rng.random() < 0.25:
                form = form.truncate(rng.choice(lower))
            arrivals.append(form)
        for step, form in enumerate(arrivals):
            prov = f"{label}#{step}"
            assert span.add(form, prov) == ref.add(form, prov), (seed, key, step)
            assert span.generators(key) == ref.grading.get(key, [])
            assert span.grade_rows(key) == ref.grade_rows(key)
        assert span.grading.keys() == ref.grading.keys()
        queries = [_combination(rng, pool, n) for _ in range(6)]
        queries += [_random_form(rng, weight, rep, n, lattices, prec, 1), queries[0].scaled(0)]
        for f in queries:
            for p in query_precs:
                assert _outcome(span_contains, span, f, p) == _outcome(ref.contains, f, p), (
                    seed, key, p)


@pytest.mark.parametrize("seed", range(4))
def test_incremental_span_matches_full_rref_reference(reg, seed):
    _check_against_reference(reg, seed)


# -- oracle for the packed reads ----------------------------------------------
# The read as it was before the generators were kept as packed ints: build
# every dense coefficient row from QExp.coeff and scan v - (v|P . inv) . G
# column by column with CycNum arithmetic.


def dense_row(f, layout):
    """f's coefficients at the exponents t/h below prec, one block of columns
    per layer r and component i, zero on the layers f does not have."""
    prec, h, dim, depth = layout
    return [f.graded[r][i].coeff(Fraction(t, h)) if r <= f.depth else CycNum.zero()
            for r in range(depth + 1) for i in range(dim) for t in range(math.ceil(prec * h))]


def scan_column(layout, forms, pivots, f):
    """First nonzero column of f's residue against forms, or None."""
    rows = [dense_row(g, layout) for g in forms]
    v = dense_row(f, layout)
    terms = []
    if rows:
        inv = Matrix.from_nonzeros(len(rows), [sparse_row(row[q] for q in pivots)
                                               for row in rows]).inverse().nonzeros
        a = [(i, v[p]) for i, p in enumerate(pivots) if v[p]]
        for j, row in enumerate(rows):
            c = sum((x * inv[i][j] for i, x in a if j in inv[i]), CycNum.zero())
            if c:
                terms.append((c, row))
    for t, x in enumerate(v):
        for c, row in terms:
            if row[t]:
                x = x - c * row[t]
        if x:
            return t
    return None


@pytest.fixture
def recorded_reads(monkeypatch):
    """Every _Pivots.read as (layout, forms, pivots, f, column, combines),
    the state taken before the read; combines lists each block combined as
    (width, a stored generator block, packed by this read)."""
    calls, read, packs, current = [], _Pivots.read, hyperalg._packs, []

    def packing(pair, width):
        stored, combines = current[-1]
        combines.append((width, id(pair) in stored, width not in pair[1]))
        return packs(pair, width)

    def spy(state, f):
        before = (state.layout, list(state.forms), list(state.pivots), f)
        current.append(({id(pair) for _, pairs in state.blocks for pair in pairs}, []))
        out = read(state, f)
        calls.append(before + (out[0], current.pop()[1]))
        return out

    monkeypatch.setattr(hyperalg, "_packs", packing)
    monkeypatch.setattr(_Pivots, "read", spy)
    return calls


def _assert_reads_match_the_scan(calls):
    assert calls
    for layout, forms, pivots, f, column, _ in calls:
        assert column == scan_column(layout, forms, pivots, f), (layout, len(forms))


@pytest.mark.parametrize("seed", range(2))
def test_packed_reads_match_the_column_scan(reg, recorded_reads, seed):
    # depth-0 forms in depth-1 grades (a missing layer), conductors 1 and 3,
    # truncated arrivals and queries below the stored precision
    _check_against_reference(reg, seed)
    _assert_reads_match_the_scan(recorded_reads)
    assert any(layout[0] < f.prec for layout, _, _, f, *_ in recorded_reads)
    assert any(f.depth < layout[3] for layout, _, _, f, *_ in recorded_reads)
    assert {f.graded[0][0].h for _, _, _, f, *_ in recorded_reads} == {1, 3}


def test_packed_reads_match_the_column_scan_on_the_weight_16_rho3_grade(reg, recorded_reads):
    # the (16, rho3) grade of the vector-valued Eisenstein products at the
    # Sturm bound 33: rational and Q(zeta3) coefficients on lattice 1/3
    rho3 = reg.get("rho3")
    eis = {a: vv_eisenstein(a, rho3, 3, 33).generators((a, "rho3"))[0][0] for a in (4, 6, 8, 10, 12)}
    total = span_sum([hyper_tensor(eis[a], eis[b], reg) for a, b in ((4, 12), (6, 10), (8, 8))])
    gens = [f for f, _ in total.generators((16, "rho3"))]
    assert len(gens) == 4
    conductors = {c.n for g in gens for q in g.components for c in q.terms.values()}
    assert conductors == {1, 3} and {q.h for g in gens for q in g.components} == {3}
    span = FormSpan.of(*gens[:3])
    rng = random.Random(5)
    z = CycNum.zeta(3)
    for i in range(6):
        f = None
        for g in gens[:3]:
            c = rng.randint(-3, 3) + z * rng.randint(-3, 3)
            f = g.scaled(c) if f is None else f + g.scaled(c)
        if i % 2:
            f = f + gens[3].scaled(1 + z * i)
        assert span_contains(span, f, 33) is (i % 2 == 0)
    _assert_reads_match_the_scan(recorded_reads)


def test_huge_coefficients_regrow_the_slot_width(recorded_reads):
    triv = trivial_rep()
    g1, g2, g3 = (AholForm.holomorphic(4, triv, [QExp(1, 6, terms)])
                  for terms in ({0: 1, 2: 3}, {1: 2, 3: -1, 5: 1}, {4: 1}))
    span, ref = FormSpan.of(g1, g2), ReferenceSpan()
    assert ref.add(g1) and ref.add(g2)
    big, tiny = 2**300 + 7, Fraction(1, 3**200)
    member = g1.scaled(big) + g2.scaled(tiny)
    outsider = member + g3.scaled(tiny)
    start = len(recorded_reads)
    for f in (member, outsider):
        assert span_contains(span, f, 6) is ref.contains(f, 6)
    assert span_contains(span, member, 6) and not span_contains(span, outsider, 6)
    # each read combines its one block at one width that holds the coefficients
    widths = [{w for w, _, _ in combines} for *_, combines in recorded_reads[start:]]
    assert len(widths) == 4 and all(len(w) == 1 and min(w) > 600 for w in widths)
    # a later small read still combines at the narrow width
    start = len(recorded_reads)
    assert span_contains(span, g1 + g2.scaled(3), 6)
    ((*_, combines),) = recorded_reads[start:]
    assert combines and {w for w, _, _ in combines} == {64}
    # a generator kept for a column of small coefficients, with huge ones in
    # a later layer, is read at a width that holds them.  Its push lifted
    # none of its blocks, so the first read lifts and packs both blocks it
    # combines, and a second such read finds them stored and packs neither
    # again
    f = AholForm(4, triv, [[QExp(1, 6, {0: 1})], [QExp(1, 6, {2: big, 3: tiny})]])
    g = AholForm(4, triv, [[QExp(1, 6, {1: 1})], [QExp(1, 6, {2: 1})]])
    span, ref = FormSpan.of(f), ReferenceSpan()
    assert ref.add(f)
    start = len(recorded_reads)
    for h in (f.scaled(tiny), f + g.scaled(big), f.scaled(tiny)):
        assert span_contains(span, h, 6) is ref.contains(h, 6)
    (*_, first), _, (*_, again) = recorded_reads[start:]
    assert [(w > 300, stored, packed) for w, stored, packed in first] == [
        (False, False, True), (False, False, True), (True, False, True), (True, False, True)]
    assert [(w > 300, stored, packed) for w, stored, packed in again] == [
        (False, False, True), (False, True, False), (True, False, True), (True, True, False)]
    assert span.add(g) is ref.add(g) is True
    _assert_reads_match_the_scan(recorded_reads)


def test_a_cyclotomic_query_reads_rational_generators_through_a_lift(recorded_reads):
    triv = trivial_rep()
    g1, g2, g3 = (AholForm.holomorphic(4, triv, [QExp(1, 6, terms)])
                  for terms in ({0: 1, 2: 3}, {1: 2, 3: Fraction(-1, 5)}, {4: 1}))
    span, ref = FormSpan.of(g1, g2), ReferenceSpan()
    assert ref.add(g1) and ref.add(g2)
    state = span._pivots[(4, "triv")]
    z = CycNum.zeta(12)
    member = g1.scaled(z) + g2.scaled(z * z + Fraction(1, 7))
    outsider = member + g3.scaled(z**5)
    for f in (member, outsider):
        assert span_contains(span, f, 6) is ref.contains(f, 6)
    assert span_contains(span, member, 6) and not span_contains(span, outsider, 6)
    # the generators stay stored over Q, one coordinate per block, also in
    # the packed ints the Q(zeta12) reads left
    assert state is span._pivots[(4, "triv")]
    assert [(n, len(g.rows[0][1])) for n, pairs in state.blocks for g, _ in pairs] == [(1, 1)] * 2
    assert all(packs and {len(ints) for ints in packs.values()} == {1}
               for _, pairs in state.blocks for _, packs in pairs)
    _assert_reads_match_the_scan(recorded_reads)


def test_a_repeated_wide_read_packs_no_generator_block_again(recorded_reads):
    # a non-member whose slot bound passes 64 bits, as the triv non-members
    # of the vv-product queries: the first read lifts and packs the
    # generator blocks it combines at the wider width (g1's block was never
    # lifted, since the push of g2 read it with c = 0; g2 kept the block its
    # push lifted), and the second read packs only its own block
    triv = trivial_rep()
    g1, g2, g3 = (AholForm.holomorphic(4, triv, [QExp(1, 6, terms)])
                  for terms in ({0: 1, 2: 3}, {1: 2, 3: -1, 5: 1}, {4: 1}))
    span, ref = FormSpan.of(g1, g2), ReferenceSpan()
    assert ref.add(g1) and ref.add(g2)
    outsider = g1.scaled(2**100) + g2 + g3
    start = len(recorded_reads)
    for _ in range(2):
        assert span_contains(span, outsider, 6) is ref.contains(outsider, 6) is False
    (*_, first), (*_, second) = recorded_reads[start:]
    assert {w for w, _, _ in first} == {w for w, _, _ in second} == {128}
    assert [(stored, packed) for _, stored, packed in first] == [(False, True), (False, True), (True, True)]
    assert [(stored, packed) for _, stored, packed in second] == [(False, True)] + [(True, False)] * 2
    _assert_reads_match_the_scan(recorded_reads)


def test_a_block_that_mixes_conductors_is_lifted_term_by_term(recorded_reads):
    # each generator series starts in Q(zeta3) and goes on over Q, so a
    # block's rational terms need the lift as much as its first term
    triv, z = trivial_rep(), CycNum.zeta(3)
    g1, g2, g3 = (AholForm.holomorphic(4, triv, [QExp(1, 6, terms)])
                  for terms in ({0: z, 2: 3}, {1: 1 + z, 3: Fraction(1, 2), 4: 1}, {4: 1}))
    span, ref = FormSpan.of(g1, g2), ReferenceSpan()
    assert ref.add(g1) and ref.add(g2)
    for f in (g1.scaled(z) + g2, g1 + g2 + g3.scaled(z)):
        assert span_contains(span, f, 6) is ref.contains(f, 6)
    assert span.add(g3) is ref.add(g3) is True
    _assert_reads_match_the_scan(recorded_reads)


@pytest.mark.parametrize("bits", range(56, 68))
def test_a_cyclotomic_query_against_wide_generators_at_the_slot_limit(recorded_reads, bits):
    # a (1 - zeta3) is 2a - a zeta12^2 at conductor 12, a bit longer: the
    # slot bound of a Q(zeta12) read must count the lifted coordinates, for
    # generators whose conductor-3 coordinates fill their slots
    triv, a = trivial_rep(), 2**bits - 1
    w = a * (1 - CycNum.zeta(3))
    g1, g2, g3 = (AholForm.holomorphic(4, triv, [QExp(1, 6, terms)])
                  for terms in ({0: w, 2: w, 4: -w}, {1: w, 3: w * w / a, 5: w}, {2: 1, 3: w}))
    span, ref = FormSpan.of(g1, g2), ReferenceSpan()
    assert ref.add(g1) and ref.add(g2)
    z = CycNum.zeta(12)
    member = g1.scaled(z**3 - 1) + g2.scaled(z + z**2)
    for f in (member, member + g3, member + g3.scaled(z), member + g1.scaled(w)):
        assert span_contains(span, f, 6) is ref.contains(f, 6)
    assert span.add(g3) is ref.add(g3) is True
    _assert_reads_match_the_scan(recorded_reads)


def test_the_slot_bound_counts_every_product_and_every_multiplier(recorded_reads):
    # non-members whose residue is 2^64 times a power of two in one column,
    # cancelled by the next column when slots are 64 bits wide: the count of
    # products (five terms near 2^62) and the multiplier c = 2^20 each take
    # the slot bound past 64
    triv = trivial_rep()
    y = -(2**62 - 1)
    gens = [AholForm.holomorphic(4, triv, [QExp(1, 6, {j: 1, 4: y})]) for j in range(4)]
    member = gens[0] + gens[1] + gens[2] + gens[3]
    cases = [(gens, member + AholForm.holomorphic(4, triv, [QExp(1, 6, {4: 2**64, 5: -1})]))]
    g = AholForm.holomorphic(4, triv, [QExp(1, 6, {0: 1, 1: -(2**60)})])
    cases.append(([g], AholForm.holomorphic(4, triv, [QExp(1, 6, {0: 2**20, 2: -(2**16)})])))
    for gens, outsider in cases:
        span, ref = FormSpan.of(*gens), ReferenceSpan()
        assert all(ref.add(g) for g in gens)
        assert span_contains(span, outsider, 6) is ref.contains(outsider, 6) is False
    _assert_reads_match_the_scan(recorded_reads)


def test_a_zero_candidate_block_adds_no_bound_to_the_slot(recorded_reads):
    # g1 and g2 agree on layer 0, so a candidate that lives on layer 1 only
    # reads c = (1, -1): both generators' layer-0 blocks are combined there,
    # against a zero block of the candidate.  Their 3^-200 coefficients
    # cancel in Lambda / den, so the block fits 64-bit slots; the candidate's
    # term has no block there and adds no bound of its own.
    triv, tiny = trivial_rep(), Fraction(1, 3**200)

    def form(low, high):
        return AholForm(4, triv, [[QExp(1, 6, low)], [QExp(1, 6, high)]])

    g1, g2 = form({0: tiny}, {2: 1}), form({0: tiny}, {3: 1})
    span, ref = FormSpan.of(g1, g2), ReferenceSpan()
    assert ref.add(g1) and ref.add(g2)
    start = len(recorded_reads)
    for f, member in ((form({}, {2: 1, 3: -1}), True), (form({}, {2: 1}), False),
                      (form({}, {2: 1, 4: 5}), False)):
        assert span_contains(span, f, 6) is ref.contains(f, 6) is member
    for *_, combines in recorded_reads[start:]:
        # layer 0: the two stored generator blocks only; layer 1: the
        # candidate's block first, then the generators'
        assert combines[:3] == [(64, True, False)] * 2 + [(64, False, True)]
    _assert_reads_match_the_scan(recorded_reads)


def test_lower_precision_form_is_refused_when_stored_generators_collapse():
    # 1 + q^2 and 1 + 2q^2 are independent at precision 6 but not below q^2,
    # so q at precision 2 is refused although it is independent of 1 + q^2
    triv = trivial_rep()
    f1, f2 = (AholForm.holomorphic(4, triv, [QExp(1, 6, {0: 1, 2: c})]) for c in (1, 2))
    low = AholForm.holomorphic(4, triv, [QExp(1, 2, {1: 1})])
    span, ref = FormSpan.of(f1, f2), ReferenceSpan()
    assert ref.add(f1) and ref.add(f2)
    assert span.add(low) is ref.add(low) is False
    assert span.dimension_signature() == {(4, "triv"): 2}
    # the grade keeps its precision-6 state: q^2 is in the span, q^3 is not
    q2 = AholForm.holomorphic(4, triv, [QExp(1, 6, {2: 1})])
    q3 = AholForm.holomorphic(4, triv, [QExp(1, 6, {3: 1})])
    assert span_contains(span, q2, 6) and not span_contains(span, q3, 6)
    assert span.add(q3) is ref.add(q3) is True


# -- span_sum against one-by-one adds -----------------------------------------


def one_by_one_sum(spans) -> FormSpan:
    """span_sum as it was: every generator of every span added in turn."""
    out = FormSpan()
    for s in spans:
        for key in s.grades():
            for form, prov in s.grading[key]:
                out.add(form, provenance=prov)
    return out


def span_bytes(span: FormSpan) -> str:
    return json.dumps(span.to_json(), sort_keys=True)


def assert_sum_matches_one_by_one(spans) -> FormSpan:
    got, want = span_sum(spans), one_by_one_sum(spans)
    assert span_bytes(got) == span_bytes(want)
    assert got.dimension_signature() == want.dimension_signature()
    return got


def test_span_sum_matches_one_by_one_adds_on_the_vv_product_spans(reg):
    rho3 = reg.get("rho3")
    eis = {a: vv_eisenstein(a, rho3, 3, 33).generators((a, "rho3"))[0][0] for a in (4, 6, 8, 10, 12)}
    spans = [hyper_tensor(eis[a], eis[b], reg) for a, b in ((4, 12), (6, 10), (8, 8))]
    sources = [span_bytes(s) for s in spans]
    total = assert_sum_matches_one_by_one(spans)
    assert total.dimension_signature() == {(16, "rho3"): 4, (16, "rho_zeta"): 2,
                                           (16, "rho_zeta2"): 1, (16, "triv"): 2}
    # the sum took the (16, rho3) state of the first span; a form added to
    # the sum leaves that span's generators and state as they were
    key = (16, "rho3")
    state = spans[0]._pivots[key]
    held = (list(state.forms), list(state.pivots), [list(pairs) for _, pairs in state.blocks])
    extra = _random_form(random.Random(7), 16, rho3, 3, (3,), 33, 0)
    assert total.add(extra, "extra") and not span_contains(spans[0], extra, 33)
    assert [span_bytes(s) for s in spans] == sources
    assert spans[0]._pivots[key] is state
    assert (state.forms, state.pivots) == held[:2]
    assert len(state.blocks) == len(held[2])
    assert span_contains(total, extra, 33)


@pytest.mark.parametrize("seed", range(4))
def test_span_sum_matches_one_by_one_adds_when_a_later_span_lowers_the_precision(reg, seed):
    # spans of seeded forms in two grades, the later ones truncated below the
    # first span's precision: the adopted state is rebuilt at the lower
    # precision, where some kept generators may collapse
    rng = random.Random(seed)
    spans = []
    for i, prec in enumerate((6, 6, 4, 3)):
        span = FormSpan()
        for weight, label, n, lattices, _, _, _ in _ORACLE_GRADES:
            rep = reg.get(label)
            pool = [_random_form(rng, weight, rep, n, lattices, 6, rng.randint(0, 1))
                    for _ in range(3)]
            for _ in range(3):
                f = _combination(rng, pool, n) if rng.random() < 0.5 else rng.choice(pool)
                span.add(f.truncate(prec), f"{label}#{i}")
        spans.append(span)
    sources = [span_bytes(s) for s in spans]
    total = assert_sum_matches_one_by_one(spans)
    assert total.dimension_signature() != spans[0].dimension_signature()
    # adds to the sum leave every source as it was
    for weight, label, n, lattices, _, _, _ in _ORACLE_GRADES:
        total.add(_random_form(rng, weight, reg.get(label), n, lattices, 6, 1), "extra")
    assert [span_bytes(s) for s in spans] == sources


def test_span_sum_matches_one_by_one_adds_when_adopted_generators_collapse():
    # 1 + q^2 and 1 + 2q^2 collapse below q^2, so the sum refuses q at
    # precision 2 as the one-by-one adds do, and then keeps q^3 at precision 6
    triv = trivial_rep()
    f1, f2, q3 = (AholForm.holomorphic(4, triv, [QExp(1, 6, terms)])
                  for terms in ({0: 1, 2: 1}, {0: 1, 2: 2}, {3: 1}))
    low = AholForm.holomorphic(4, triv, [QExp(1, 2, {1: 1})])
    spans = [FormSpan.of(f1, f2), FormSpan.of(low), FormSpan.of(q3)]
    total = assert_sum_matches_one_by_one(spans)
    assert total.dimension_signature() == {(4, "triv"): 3}


def test_span_sum_shares_no_pivot_state_with_its_summands(reg):
    # a read appends lifted blocks to the block lists of the state it reads,
    # so a sum that shared a summand's state or lists would grow with it
    rng = random.Random(5)
    spans = []
    for i in range(2):
        span = FormSpan()
        for weight, label, n, lattices, prec, _, _ in _ORACLE_GRADES:
            for _ in range(3):
                span.add(_random_form(rng, weight, reg.get(label), n, lattices, prec, 0), f"#{i}")
        spans.append(span)
    total = span_sum(spans)

    def assert_unshared():
        for s in spans:
            for key, state in s._pivots.items():
                mine = total._pivots[key]
                assert mine is not state
                assert all(own is not theirs for _, own in mine.blocks for _, theirs in state.blocks)

    assert_unshared()
    for target in (total, spans[0]):
        weight, label, n, lattices, prec, _, _ = _ORACLE_GRADES[1]
        assert target.add(_random_form(rng, weight, reg.get(label), n, lattices, prec, 0), "extra")
    assert_unshared()


def test_a_first_add_to_an_empty_grade_takes_the_scan_pivot_and_lifts_nothing(reg):
    # the first form of a grade is read against no generator: its pivot is
    # its first stored column, also where its block 0 is zero, and push
    # keeps no lifted or packed block of it
    triv, rho3 = trivial_rep(), reg.get("rho3")
    z = CycNum.zeta(3)
    forms = [
        AholForm(4, triv, [[QExp(1, 6, {})], [QExp(1, 6, {3: 2, 1: 5})]]),
        AholForm.holomorphic(4, triv, [QExp(1, 6, {4: 1, 2: Fraction(7, 3)})]),
        AholForm.holomorphic(2, rho3, [QExp(3, 2, {}), QExp(3, 2, {5: z, 2: 1 + z}),
                                       QExp(1, 2, {1: 1})]),
    ]
    for f, n in zip(forms, (1, 1, 3)):
        span = FormSpan()
        assert span.add(f, "first")
        state = span._pivots[(f.weight, f.rep.label)]
        assert state.pivots == [scan_column(state.layout, [], [], f)]
        assert state.blocks == [(n, [])]
    # block 1 of the rho3 form starts at column 6 (exponents n/3 below 2); its first term is q^(2/3)
    assert state.pivots == [6 + 2]


# -- the read path against the grade's RREF -----------------------------------


def test_the_bound_is_the_ceiling_of_prec_times_the_lattice():
    precs = [1, 6, 33, Fraction(33), Fraction(5, 2), Fraction(7, 3), Fraction(1, 6), Fraction(100, 7)]
    for prec in precs:
        for h in (1, 2, 3, 6, 12, 35):
            assert hyperalg._bound((prec, h, 1, 0)) == math.ceil(Fraction(prec) * h), (prec, h)


@pytest.mark.parametrize("seed", range(3))
def test_span_contains_agrees_with_member_on_the_grade_rows(reg, seed):
    # a rho3 grade of forms over Q and over Q(zeta3), so conductors 1 and 3
    # in one grade, of depths 0 and 1 on lattices 1 and 3; read at the
    # grade's own precision 6 and at 5, where the state is rebuilt from the
    # generators on each read
    rng, rho3, key = random.Random(seed), reg.get("rho3"), (2, "rho3")
    pool = [_random_form(rng, 2, rho3, n, (1, 3), 6, depth)
            for n, depth in ((1, 0), (3, 1), (1, 1), (3, 0))]
    span = FormSpan.of(*pool[:3])
    gens = [g for g, _ in span.generators(key)]
    assert len(gens) == 3
    assert {c.n for g in gens for layer in g.graded for q in layer for c in q.terms.values()} == {1, 3}

    def scalar(n):
        return CycNum(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(max(n - 1, 1))])

    seen = set()
    for prec in (6, 5):
        layout = hyperalg._row_layout(gens, prec)
        assert layout == (prec, 3, 3, 1)
        basis = Subspace(span.grade_rows(key, prec))
        for i in range(8):
            n = rng.choice((1, 3))
            f = pool[0].scaled(scalar(n)) + pool[1].scaled(scalar(n)) + pool[2].scaled(scalar(n))
            if i % 2:
                f = f + pool[3].scaled(CycNum(3, [1, rng.randint(-2, 2)]))
            member = basis.member(dense_row(f, layout))
            assert span_contains(span, f, prec) is member, (seed, prec, i)
            seen.add(member)
    assert seen == {True, False}


def test_the_vv_product_spans_keep_their_bytes_through_a_chain_of_adds(reg, rho3_eisenstein):
    # per grade of the weight-16 Eisenstein products: every kept generator
    # but the last, three combinations of them (dependent), then the last;
    # digests recorded before the read path went to integer coordinates
    eis = rho3_eisenstein
    total = span_sum([hyper_tensor(eis[a], eis[b], reg) for a, b in ((4, 12), (6, 10), (8, 8))])
    span, rng, z = FormSpan(), random.Random(3), CycNum.zeta(3)
    grew = {}
    for key in total.grades():
        gens = total.generators(key)
        grew[key[1]] = [span.add(form, prov) for form, prov in gens[:-1]]
        for i in range(3):
            f = None
            for g, _ in gens[:-1] or gens:
                c = rng.randint(-3, 3) + z * rng.randint(-3, 3)
                f = g.scaled(c) if f is None else f + g.scaled(c)
            grew[key[1]].append(span.add(f, f"combination {i}"))
        grew[key[1]].append(span.add(*gens[-1]))
    # the one-generator grade takes its first combination and no other form
    assert grew == {"rho3": [True] * 3 + [False] * 3 + [True], "rho_zeta": [True] + [False] * 3 + [True],
                    "rho_zeta2": [True] + [False] * 3, "triv": [True] + [False] * 3 + [True]}
    assert span.dimension_signature() == total.dimension_signature()
    digests = [hashlib.sha256(span_bytes(s).encode()).hexdigest() for s in (span, total)]
    assert digests == ["057c7c38d2a9464e5543761a15e6feea813551f08092748da3c386a7e142c895",
                       "b3cd89047c9030e4e686f9e1d3fd12cc1177399a015c70758ecca22d6d49b939"]
