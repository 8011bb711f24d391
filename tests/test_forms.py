import json
from fractions import Fraction

import pytest

from vvmf.exactnum import CycNum, bernoulli
from vvmf.forms import (
    VVForm,
    apply_hom,
    check_T_consistency,
    delta_form,
    eisenstein,
    one_form,
    sigma,
    vv_eisenstein,
)
from vvmf.hecke import hecke_form
from vvmf.linalg import Matrix
from vvmf.qexp import QExp
from vvmf.reps import builtin_registry


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def sigma_oracle(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_weight_four_eisenstein_coefficients():
    e4 = eisenstein(4, 3).components[0]
    assert e4.coeff(0) == 1
    assert e4.coeff(1) == 240
    assert e4.coeff(2) == 2160
    # - 2k/B_k with B_4 = -1/30 gives 240
    assert Fraction(-8) / bernoulli(4) == 240


def test_weight_twelve_eisenstein_first_coefficient():
    e12 = eisenstein(12, 2).components[0]
    assert e12.coeff(1) == CycNum.from_rational(Fraction(65520, 691))
    assert Fraction(-24) / bernoulli(12) == Fraction(65520, 691)


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 14, 16])
def test_eisenstein_constant_term_is_one(k):
    assert eisenstein(k, 2).components[0].coeff(0) == 1


def test_eisenstein_coefficients_match_divisor_sums():
    for k in (4, 6, 8):
        f = eisenstein(k, 7).components[0]
        factor = Fraction(-2 * k) / bernoulli(k)
        for n in range(1, 7):
            assert f.coeff(n) == CycNum.from_rational(factor * sigma_oracle(k - 1, n))


def test_sigma_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(0, 12):
        for n in range(1, 121):
            assert sigma(k, n) == sympy.divisor_sigma(n, k), (k, n)


def test_eisenstein_rejects_bad_weights():
    with pytest.raises(ValueError):
        eisenstein(2, 4)
    with pytest.raises(ValueError):
        eisenstein(5, 4)


def test_delta_form_leading_coefficients():
    # oracle: expand (E4^3 - E6^2)/1728 from divisor sums directly
    e4 = [Fraction(1)] + [240 * Fraction(sigma_oracle(3, n)) for n in range(1, 3)]
    e6 = [Fraction(1)] + [-504 * Fraction(sigma_oracle(5, n)) for n in range(1, 3)]
    cube = [
        e4[0] ** 3,
        3 * e4[0] ** 2 * e4[1],
        3 * e4[0] ** 2 * e4[2] + 3 * e4[0] * e4[1] ** 2,
    ]
    square = [e6[0] ** 2, 2 * e6[0] * e6[1], 2 * e6[0] * e6[2] + e6[1] ** 2]
    oracle = [(a - b) / 1728 for a, b in zip(cube, square)]
    assert oracle == [0, 1, -24]

    d = delta_form(3).components[0]
    assert d.coeff(0).is_zero()
    assert d.coeff(1) == 1
    assert d.coeff(2) == -24


def test_apply_hom_identity_and_zero(reg):
    e4 = eisenstein(4, 5)
    same = apply_hom(Matrix.identity(1), e4, reg.get("triv"))
    assert same.components[0] == e4.components[0]
    zero = apply_hom(Matrix.zeros(1, 1), e4, reg.get("triv"))
    assert zero.is_zero()


def test_apply_hom_rejects_non_intertwiners(reg):
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
    bad = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        apply_hom(bad, t3, reg.get("rho3"))


def test_apply_hom_projection_constants(reg):
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
    out = apply_hom(phi, t3, reg.get("rho3"))
    consts = [q.coeff(0) for q in out.graded[0]]
    assert consts[0] == CycNum.from_rational(Fraction(531440, 729))
    assert consts[1] == CycNum.from_rational(Fraction(-531440, 2187))
    assert consts[2] == CycNum.from_rational(Fraction(-531440, 2187))
    assert out.weight == 12


def test_t_consistency_checks(reg):
    assert check_T_consistency(eisenstein(4, 5))
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
    e12rho3 = apply_hom(phi, t3, reg.get("rho3"))
    assert check_T_consistency(e12rho3)
    # perturb one coefficient
    comps = list(e12rho3.graded[0])
    broken = QExp(
        comps[1].h,
        comps[1].prec,
        {**comps[1].terms, 3: comps[1].terms.get(3, CycNum.zero()) + CycNum.one()},
    )
    perturbed = VVForm(12, reg.get("rho3"), [comps[0], broken, comps[2]])
    assert not check_T_consistency(perturbed)


def test_constructors_are_t_consistent():
    for k in (4, 6, 8, 12):
        assert check_T_consistency(eisenstein(k, 5))
    assert check_T_consistency(delta_form(5))
    assert check_T_consistency(one_form(5))


def test_products_of_eisenstein_series_are_classical():
    # M_8 and M_10 are one-dimensional with matching constant terms
    e4, e6 = eisenstein(4, 6), eisenstein(6, 6)
    e8, e10 = eisenstein(8, 6), eisenstein(10, 6)
    sq = e4 * e4
    prod = e4 * e6
    for n in range(6):
        assert sq.components[0].coeff(n) == e8.components[0].coeff(n)
        assert prod.components[0].coeff(n) == e10.components[0].coeff(n)
    assert check_T_consistency(sq)


def test_vv_eisenstein_trivial_target(reg):
    span = vv_eisenstein(12, reg.get("triv"), 1, 4)
    assert span.dimension_signature() == {(12, "triv"): 1}
    gen = span.generators((12, "triv"))[0][0]
    assert gen.agrees_with(eisenstein(12, 4).as_ahol(), 4)


def test_vv_eisenstein_threefold_target(reg):
    span = vv_eisenstein(12, reg.get("rho3"), 3, 3)
    assert span.dimension_signature() == {(12, "rho3"): 1}
    gen = span.generators((12, "rho3"))[0][0]
    assert check_T_consistency(gen)
    assert gen.prec >= 3


def test_vv_eisenstein_empty_without_cosets(reg):
    span = vv_eisenstein(12, reg.get("rho3"), 1, 4)
    assert span.grades() == []


def test_apply_hom_commutes_with_truncation(reg):
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
    full = apply_hom(phi, t3, reg.get("rho3")).truncate(2)
    short = apply_hom(phi, t3.truncate(2), reg.get("rho3"))
    assert full.agrees_with(short, 2)


def test_vvform_json_round_trip(reg):
    e4 = eisenstein(4, 5)
    back = VVForm.from_json(json.loads(json.dumps(e4.to_json(reg))), reg)
    assert back.components[0] == e4.components[0]
    assert back.rep.label == "triv"
    # inline type survives without a registry
    t3 = hecke_form(3, eisenstein(12, 9).as_ahol())
    blob = json.dumps(t3.to_json())
    from vvmf.ahol import AholForm

    back2 = AholForm.from_json(json.loads(blob))
    assert back2.agrees_with(t3)
