import hashlib
import json
import math
from fractions import Fraction

import pytest

from vvmf.ahol import AholForm, ahol_decompose, apply_intertwiner, raise_op
from vvmf.exactnum import CycNum, bernoulli
from vvmf.forms import (
    _bracket_images,
    bracket_projections,
    check_T_consistency,
    delta_form,
    eisenstein,
    rankin_cohen,
    vv_eisenstein,
)
from vvmf.hecke import hecke_form
from vvmf.hyperalg import projections, tensor_form
from vvmf.linalg import Matrix
from vvmf.qexp import QExp
from vvmf.reps import Rep, hom_space, trivial_rep


def one_form(prec) -> AholForm:
    """The constant 1 in weight 0, the identity of the product."""
    return AholForm.holomorphic(0, trivial_rep(), (QExp(1, prec, {0: 1}),), name="1")


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
    for k in range(4, 24, 2):
        f = eisenstein(k, 99).components[0]
        factor = Fraction(-2 * k) / bernoulli(k)
        assert f.prec == 99 and f.coeff(0) == 1 and len(f.terms) == 99
        for n in range(1, 99):
            c = f.terms[n]
            assert (c.n, c.c) == (1, (factor * sigma_oracle(k - 1, n),)), (k, n)


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
    same = apply_intertwiner(Matrix.identity(1), e4, reg.get("triv"))
    assert same.components[0] == e4.components[0]
    zero = apply_intertwiner(Matrix.from_rows([[0]]), e4, reg.get("triv"))
    assert zero.is_zero()


def test_apply_hom_rejects_non_intertwiners(reg):
    t3 = hecke_form(3, eisenstein(12, 9))
    bad = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        apply_intertwiner(bad, t3, reg.get("rho3"))


def test_apply_hom_projection_constants(reg):
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    t3 = hecke_form(3, eisenstein(12, 9))
    out = apply_intertwiner(phi, t3, reg.get("rho3"))
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
    t3 = hecke_form(3, eisenstein(12, 9))
    e12rho3 = apply_intertwiner(phi, t3, reg.get("rho3"))
    assert check_T_consistency(e12rho3)
    # perturb one coefficient
    comps = list(e12rho3.graded[0])
    broken = QExp(
        comps[1].h,
        comps[1].prec,
        {**comps[1].terms, 3: comps[1].terms.get(3, CycNum.zero()) + CycNum.one()},
    )
    perturbed = AholForm.holomorphic(12, reg.get("rho3"), [comps[0], broken, comps[2]])
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
    sq = e4.components[0] * e4.components[0]
    prod = e4.components[0] * e6.components[0]
    for n in range(6):
        assert sq.coeff(n) == e8.components[0].coeff(n)
        assert prod.coeff(n) == e10.components[0].coeff(n)
    assert check_T_consistency(AholForm.holomorphic(8, e4.rep, [sq]))


def test_vvform_builds_a_depth_zero_ahol_form(reg):
    e4 = eisenstein(4, 3)
    f = AholForm.holomorphic(4, reg.get("triv"), e4.components, name="E4")
    assert isinstance(f, AholForm) and f.depth == 0 and f.name == "E4"
    assert f.agrees_with(e4)
    with pytest.raises(ValueError):
        AholForm.holomorphic(4, reg.get("rho3"), e4.components)


def test_vv_eisenstein_trivial_target(reg):
    span = vv_eisenstein(12, reg.get("triv"), 1, 4)
    assert span.dimension_signature() == {(12, "triv"): 1}
    gen = span.generators((12, "triv"))[0][0]
    assert gen.agrees_with(eisenstein(12, 4), 4)


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
    t3 = hecke_form(3, eisenstein(12, 9))
    full = apply_intertwiner(phi, t3, reg.get("rho3")).truncate(2)
    short = apply_intertwiner(phi, t3.truncate(2), reg.get("rho3"))
    assert full.agrees_with(short, 2)


def test_vvform_json_round_trip(reg):
    e4 = eisenstein(4, 5)
    obj = e4.to_json(reg)
    # registry-relative layout: type label, one component list, no depth
    assert obj["type"] == "triv" and "components" in obj and "depth" not in obj
    back = AholForm.from_json(json.loads(json.dumps(obj)), reg)
    assert back.components[0] == e4.components[0]
    assert back.rep.label == "triv"
    # inline type survives without a registry
    t3 = hecke_form(3, eisenstein(12, 9))
    blob = json.dumps(t3.to_json())
    back2 = AholForm.from_json(json.loads(blob))
    assert back2.agrees_with(t3)


# -- Rankin-Cohen brackets ----------------------------------------------------


def delta_oracle(n):
    """Coefficients below q^n of q * prod (1 - q^m)^24, in plain integers."""
    p = [1] + [0] * (n - 1)
    for m in range(1, n):
        for _ in range(24):
            for e in range(n - 1, m - 1, -1):
                p[e] -= p[e - m]
    return [0] + p[: n - 1]


def hecke_pair(M, prec):
    """T_M E_4 and T_M E_6, sound to prec."""
    return tuple(hecke_form(M, eisenstein(k, prec * M)) for k in (4, 6))


def multiple_of(x, y):
    """The rational c with x = c * y for holomorphic forms; None if there is none.

    For a zero y every c works when x is zero too, and 0 is returned.
    """
    if y.is_zero():
        return 0 if x.is_zero() else None
    i, q = next((i, q) for i, q in enumerate(y.components) if not q.is_zero())
    e = q.exponents()[0]
    c = x.components[i].coeff(e) / q.coeff(e)
    return c.rational_value() if c.is_rational() and x.agrees_with(y.scaled(c)) else None


def reference_rankin_cohen(f, g, t):
    """The bracket as a sum of products: one QExp product per theta pair and
    one QExp sum per further pair, for every component pair."""
    kf, kg = f.weight, g.weight
    df, dg = [f.components], [g.components]
    for _ in range(t):
        df.append([q.theta() for q in df[-1]])
        dg.append([q.theta() for q in dg[-1]])
    for r in range(t + 1):
        c = (-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r)
        df[r] = [q.scaled(c) for q in df[r]]
    comps = [sum((fi[r] * gj[t - r] for r in range(1, t + 1)), fi[0] * gj[t])
             for fi in zip(*df) for gj in zip(*dg)]
    return AholForm.holomorphic(kf + kg + 2 * t, f.rep.tensor(g.rep), comps)


def assert_same_terms(x, y):
    """x and y agree component by component in lattice, precision and every
    coefficient's value and conductor."""
    assert x.weight == y.weight and x.rep.dim == y.rep.dim
    for p, q in zip(x.components, y.components, strict=True):
        assert (p.h, p.prec) == (q.h, q.prec)
        assert {n: (c.n, c.num, c.den) for n, c in p.terms.items()} == {
            n: (c.n, c.num, c.den) for n, c in q.terms.items()}


@pytest.mark.parametrize("M", [1, 2, 3])
def test_bracket_matches_the_sum_of_products_on_thm11_inputs(M):
    # the factors verify thm11 brackets: Hecke images of two Eisenstein series
    pairs = [(4, 8), (4, 6), (6, 6)]
    for l, l2 in pairs:
        f, g = (hecke_form(M, eisenstein(k, 4 * M)) if M > 1 else eisenstein(k, 4)
                for k in (l, l2))
        for t in range(6):
            assert_same_terms(rankin_cohen(f, g, t), reference_rankin_cohen(f, g, t))


def test_bracket_matches_the_sum_of_products_across_conductors(reg):
    # a rho3 Eisenstein generator mixes conductors 1 and 3 on lattice 1/3
    f = vv_eisenstein(4, reg.get("rho3"), 3, 12).generators((4, "rho3"))[0][0]
    assert {c.n for q in f.components for c in q.terms.values()} == {1, 3}
    assert {q.h for q in f.components} == {3}
    e4 = eisenstein(4, 12)
    for g, ts in ((e4, range(4)), (f, range(3))):
        for t in ts:
            assert_same_terms(rankin_cohen(f, g, t), reference_rankin_cohen(f, g, t))
            assert_same_terms(rankin_cohen(g, f, t), reference_rankin_cohen(g, f, t))


def assert_same_projections(f, g, t, targets):
    """bracket_projections against the projected bracket, image by image:
    tags, lattice, precision and values equal, and each conductor divides
    the oracle's.  Returns the images."""
    got = bracket_projections(f, g, t, targets)
    want = projections(rankin_cohen(f, g, t), targets)
    assert [tag for tag, _ in got] == [tag for tag, _ in want]
    for (_, x), (_, y) in zip(got, want):
        assert (x.weight, x.rep, x.name) == (y.weight, y.rep, y.name)
        for p, q in zip(x.components, y.components, strict=True):
            assert (p.h, p.prec) == (q.h, q.prec) and p.terms.keys() == q.terms.keys()
            for n, c in p.terms.items():
                assert c == q.terms[n] and q.terms[n].n % c.n == 0
    return [x for _, x in got]


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
def test_bracket_projections_match_the_projected_bracket_on_thm11_inputs(reg, M):
    # the verify thm11 factors at k = 20 and k = 14, prec 6; at M = 4 and 6
    # the components of T_M E_l differ in lattice and precision, so a zero
    # block of a map must not lower the precision of its row
    for l, l2, t in ((4, 8, 4), (4, 6, 2)):
        f, g = (hecke_form(M, eisenstein(w, 6 * M)) if M > 1 else eisenstein(w, 6)
                for w in (l, l2))
        assert_same_projections(f, g, t, [reg.get("triv")])


@pytest.mark.parametrize("M", [2, 3])
def test_odd_bracket_projections_of_equal_weights_vanish(reg, M):
    f = hecke_form(M, eisenstein(6, 6 * M))
    images = assert_same_projections(f, f, 3, [reg.get("triv")])
    assert images and all(x.is_zero() for x in images)


def test_bracket_projections_match_across_conductors(reg):
    # a rho3 Eisenstein generator mixes conductors 1 and 3, and the maps onto
    # the registry types have cyclotomic entries and targets of dimension 3
    f = vv_eisenstein(4, reg.get("rho3"), 3, 12).generators((4, "rho3"))[0][0]
    targets = [reg.get(label) for label in reg.labels()]
    assert max(t.dim for t in targets) == 3
    e4 = eisenstein(4, 12)
    for t in range(3):
        assert_same_projections(f, e4, t, targets)
        assert_same_projections(e4, f, t, targets)
        assert_same_projections(f, f, t, targets)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
def test_thm11_factors_are_T_consistent(M):
    # bracket_projections keeps only the exponents a target's T allows, which
    # is exact for T-consistent factors: the T_M(E_l), E_l2 of verify thm11
    for w in (4, 6, 8):
        e = eisenstein(w, 6 * M)
        assert check_T_consistency(hecke_form(M, e).truncate(6) if M > 1 else e)


def test_bracket_projections_keep_the_class_of_a_nontrivial_T(reg):
    # rho_zeta and rho_zeta2 have T = zeta_3 and zeta_3^2: their images live
    # on the exponents 1/3 + Z and 2/3 + Z alone
    f, g = (hecke_form(3, eisenstein(k, 36)).truncate(12) for k in (4, 6))
    targets = [reg.get("rho_zeta"), reg.get("rho_zeta2")]
    images = assert_same_projections(f, g, 1, targets)
    assert [x.rep.label for x in images] == ["rho_zeta", "rho_zeta2"]
    for x, e in zip(images, (Fraction(1, 3), Fraction(2, 3))):
        (q,) = x.components
        assert q.terms and all((n - e * q.h) % q.h == 0 for n in q.terms)


def test_bracket_conductor_counts_pairs_where_q_vanishes(reg):
    # Q_1(m, n) = 4n - 8m for weights 4 and 8 vanishes at (1, 2), where the
    # zeta_3 term of f meets g: coefficient 3 is Q_1(0, 3) = 12, at conductor 3
    f = AholForm.holomorphic(4, trivial_rep(), [QExp(1, 6, {0: 1, 1: CycNum.zeta(3)})])
    g = AholForm.holomorphic(8, trivial_rep(), [QExp(1, 6, {n: 1 for n in range(6)})])
    bracket = rankin_cohen(f, g, 1)
    assert_same_terms(bracket, reference_rankin_cohen(f, g, 1))
    ((_, image),) = bracket_projections(f, g, 1, [reg.get("triv")])
    for x in (bracket, image):
        c = x.components[0].terms[3]
        assert (c.n, c.num, c.den) == (3, (12, 0), 1)


def test_bracket_contraction_keeps_the_combine_conductor_rule():
    # h = phi[0, 0] g_1 + phi[0, 1] g_2 keeps combine's rule: h(n) has the lcm of
    # the entries' conductors and of the g_j(n) stored, and a zero sum is absent.
    # With f = 1 + q at t = 0, coefficient N of the bracket is h(N) + h(N - 1).
    two = Rep("two", 1, Matrix.identity(2), Matrix.identity(2))
    f = AholForm.holomorphic(4, trivial_rep(), [QExp(1, 4, {0: 1, 1: 1})])
    g = AholForm.holomorphic(
        4, two, [QExp(1, 4, {1: 1, 2: CycNum.zeta(3)}), QExp(1, 4, {2: CycNum.zeta(3)})])
    cases = [
        # h = q + 0 q^2: h(2) is absent, so coefficient 2 = h(1) keeps conductor 1
        ([[1, -1]], {1: (1, (1,), 1), 2: (1, (1,), 1)}),
        # both entries are stored at conductor 3, so h = q - q^2 is there throughout
        ([[1, CycNum.zeta(3)]], {1: (3, (1, 0), 1), 3: (3, (-1, 0), 1)}),
    ]
    for rows, want in cases:
        (image,) = _bracket_images(f, g, 0, [(Matrix.from_rows(rows), trivial_rep())], "")
        terms = image.components[0].terms
        assert {n: (c.n, c.num, c.den) for n, c in terms.items()} == want, rows


def bracket_digest(images) -> str:
    return hashlib.sha256(json.dumps([[tag, x.to_json()] for tag, x in images],
                                     sort_keys=True).encode()).hexdigest()


def test_bracket_projection_bytes_are_pinned(reg):
    # the projections above check values and that conductors divide the
    # oracle's; these digests pin every coefficient's stored conductor too
    f, g = (hecke_form(2, eisenstein(k, 12)) for k in (4, 8))
    images = bracket_projections(f, g, 4, [reg.get("triv")])
    assert {c.n for _, x in images for q in x.components for c in q.terms.values()} == {2}
    assert bracket_digest(images) == (
        "45c3cf4296966a09e986b6a018caf724bb7eb7752b77f3317b3cf531dccaa126")
    f = vv_eisenstein(4, reg.get("rho3"), 3, 12).generators((4, "rho3"))[0][0]
    images = bracket_projections(f, eisenstein(4, 12), 2, [reg.get(x) for x in reg.labels()])
    assert [tag for tag, _ in images] == ["rho3#0"]
    assert bracket_digest(images) == (
        "e34d77b1e08908e11bdbe49768922e7210cd265e05c65f3839d94c834fb36c59")


def test_bracket_of_e4_and_e6_is_a_multiple_of_delta():
    # 4 E4 theta(E6) - 6 theta(E4) E6 = -3456 Delta, Delta from its product formula
    prec = 12
    bracket = rankin_cohen(eisenstein(4, prec), eisenstein(6, prec), 1)
    assert bracket.weight == 12 and bracket.rep.dim == 1
    got = [bracket.components[0].coeff(n) for n in range(prec)]
    assert got == [CycNum.from_rational(-3456 * c) for c in delta_oracle(prec)]
    assert delta_oracle(6) == [0, 1, -24, 252, -1472, 4830]


@pytest.mark.parametrize("k", [4, 6, 10])
def test_odd_bracket_of_a_scalar_form_with_itself_vanishes(k):
    f = eisenstein(k, 8)
    for t in (1, 3):
        assert rankin_cohen(f, f, t).is_zero()
    assert not rankin_cohen(f, f, 2).is_zero()


def test_odd_bracket_vanishes_under_the_symmetric_pairing(reg):
    # [F, F]_t of a vector-valued F is antisymmetric in the tensor factors,
    # so its image under the symmetric pairing into triv is zero for odd t
    f, _ = hecke_pair(2, 5)
    d, triv = f.rep.dim, reg.get("triv")
    basis = hom_space(f.rep.tensor(f.rep), triv)
    assert len(basis) == 2
    for phi in basis:
        assert all(phi[0, i * d + j] == phi[0, j * d + i] for i in range(d) for j in range(d))
        for t in range(4):
            image = apply_intertwiner(phi, rankin_cohen(f, f, t), triv)
            assert image.is_zero() is (t % 2 == 1)


def test_bracket_flips_with_sign_under_the_swap_of_factors():
    f, _ = hecke_pair(2, 5)
    g = hecke_form(3, eisenstein(6, 15))
    for t in range(4):
        fg, gf = rankin_cohen(f, g, t), rankin_cohen(g, f, t)
        assert fg.rep.dim == gf.rep.dim == 12 and fg.weight == 10 + 2 * t
        for i in range(f.rep.dim):
            for j in range(g.rep.dim):
                want = fg.components[i * g.rep.dim + j].scaled((-1) ** t)
                assert gf.components[j * f.rep.dim + i] == want


def test_bracket_refuses_factors_that_are_not_T_consistent(reg):
    # E4's components read as a rho_zeta form: rho(T) = zeta_3 but every exponent
    # is an integer, so the evaluator would keep no exponent and answer 0
    e4 = eisenstein(4, 6)
    f = AholForm.holomorphic(4, reg.get("rho_zeta"), e4.components)
    assert not check_T_consistency(f)
    assert tensor_form(f, f).components[0].coeff(1) == 480
    for x, y in ((f, f), (f, e4), (e4, f)):
        with pytest.raises(ValueError, match="T-consistent"):
            rankin_cohen(x, y, 0)


def test_bracket_rejects_binomials_with_a_negative_top():
    e4, one = eisenstein(4, 3), one_form(3)
    with pytest.raises(ValueError):
        rankin_cohen(e4, e4, -1)
    with pytest.raises(ValueError):
        rankin_cohen(one, e4, 0)
    # weight 0 is fine once t >= 1: [1, E4]_1 = C(0, 1) theta(E4) - C(4, 1) theta(1) E4 = 0
    assert rankin_cohen(one, e4, 1).is_zero()


@pytest.mark.parametrize("t", range(5))
def test_top_layer_of_raised_products_is_a_multiple_of_the_bracket(t):
    # the claim the bracket path of verify thm11 rests on: for a + b = t the
    # weight-k holomorphic layer of R^a F (x) R^b G is c_ab [F, G]_t, c_ab != 0
    # a rational depending on the weights alone, checked by ahol_decompose.
    # [E4, E6]_2 lies in the zero space S_14, so there only h0 = 0 is checked.
    scalar = tuple(eisenstein(k, 6) for k in (4, 6))
    vector = hecke_pair(2, 4)
    for a in range(t + 1):
        factors = []
        for f, g in (vector, scalar):
            x = f
            for _ in range(a):
                x = raise_op(x)
            y = g
            for _ in range(t - a):
                y = raise_op(y)
            bracket = rankin_cohen(f, g, t)
            c = multiple_of(ahol_decompose(tensor_form(x, y))[0], bracket)
            assert c is not None
            if not bracket.is_zero():
                factors.append(c)
        assert factors[0] != 0 and len(set(factors)) == 1
        assert len(factors) == (1 if t == 2 else 2)
