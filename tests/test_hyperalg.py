from fractions import Fraction

import pytest

from vvmf.ahol import AholForm, apply_intertwiner
from vvmf.exactnum import CycNum
from vvmf.forms import delta_form, eisenstein, one_form
from vvmf.hecke import hecke_form, pi_M
from vvmf.hyperalg import (
    FormSpan,
    congruence_index,
    hyper_tensor,
    span_contains,
    span_sum,
    sturm_bound,
    tensor_form,
)
from vvmf.linalg import Matrix
from vvmf.qexp import InsufficientPrecision, QExp
from vvmf.reps import Rep, RepRegistry, builtin_registry, trivial_rep


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


@pytest.fixture(scope="module")
def triv_only():
    return RepRegistry([trivial_rep()])


def retype_trivial(f):
    return AholForm(f.weight, trivial_rep(), f.graded, name=f.name)


def test_product_of_scalar_eisenstein_series(triv_only):
    e4 = eisenstein(4, 6).as_ahol()
    e8 = eisenstein(8, 6).as_ahol()
    span = hyper_tensor(e4, e8, triv_only)
    assert span.dimension_signature() == {(12, "triv"): 1}
    prod = retype_trivial(tensor_form(e4, e8))
    assert span_contains(span, prod, 3)


def test_identity_axiom(triv_only):
    one = one_form(6).as_ahol()
    e6 = eisenstein(6, 6).as_ahol()
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
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
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
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
    e12rho3 = apply_intertwiner(phi, t3, reg.get("rho3"))
    half = Fraction(1, 2)
    phi_triv = Matrix.from_rows([[1, half, half, half, 1, half, half, half, 1]])
    sq = tensor_form(e12rho3, e12rho3)
    out = apply_intertwiner(phi_triv, sq, reg.get("triv")).components[0]
    assert out.coeff(0) == CycNum.from_rational(Fraction(564856947200, 1594323))
    assert out.coeff(1) == CycNum.from_rational(Fraction(-1894333004462080000, 84584326707))
    assert out.coeff(2) == CycNum.from_rational(Fraction(-1261863434802833408000, 28194775569))


def test_span_sum_is_idempotent(triv_only):
    e4 = eisenstein(4, 6).as_ahol()
    e8 = eisenstein(8, 6).as_ahol()
    s = hyper_tensor(e4, e8, triv_only)
    assert span_sum([s, s]).dimension_signature() == s.dimension_signature()


def test_span_sum_of_independent_products(triv_only):
    e4 = eisenstein(4, 6).as_ahol()
    e6 = eisenstein(6, 6).as_ahol()
    e8 = eisenstein(8, 6).as_ahol()
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
    e4 = eisenstein(4, 6).as_ahol()
    e6 = eisenstein(6, 6).as_ahol()
    e8 = eisenstein(8, 6).as_ahol()
    delta = delta_form(6).as_ahol()

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
    e4 = eisenstein(4, 6).as_ahol()
    e8 = eisenstein(8, 6).as_ahol()
    span = hyper_tensor(e4, e8, triv_only)
    delta = delta_form(6).as_ahol()
    with pytest.raises(InsufficientPrecision):
        span_contains(span, delta, 1)  # below the Sturm bound 2
    with pytest.raises(InsufficientPrecision):
        span_contains(span, delta, 8)  # beyond the stored expansions


def test_sturm_bound_values():
    assert sturm_bound(12, 1) == 2
    assert sturm_bound(24, 1) == 3
    assert sturm_bound(12, 24) == 25


def test_congruence_index_values():
    assert [congruence_index(n) for n in (1, 2, 3, 4)] == [1, 6, 24, 48]


def test_product_is_commutative_gradewise(reg):
    e4 = eisenstein(4, 6).as_ahol()
    e6 = eisenstein(6, 6).as_ahol()
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
        e4 = eisenstein(4, 4 * M).as_ahol()
        e6 = eisenstein(6, 4 * M).as_ahol()
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
    e4 = eisenstein(4, 6).as_ahol()
    e8 = eisenstein(8, 6).as_ahol()
    full = hyper_tensor(e4, e8, triv_only)
    short = hyper_tensor(e4.truncate(4), e8, triv_only)
    key = (12, "triv")
    assert full.grade_rows(key, 4) == short.grade_rows(key, 4)


def test_hyper_tensor_rejects_odd_weights(triv_only):
    f = AholForm.holomorphic(3, trivial_rep(), [eisenstein(4, 4).components[0]])
    with pytest.raises(ValueError):
        hyper_tensor(f, f, triv_only)


def test_types_are_identified_by_content_not_label(reg):
    # an impostor labelled rho_zeta whose T is zeta3^2, the T of rho_zeta2
    real = reg.get("rho_zeta")
    impostor = Rep("rho_zeta", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3, 2)]))
    assert impostor.is_valid() and impostor.content != real.content
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
