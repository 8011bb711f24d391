import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import vvmf.ahol
import vvmf.forms
import vvmf.hyperalg
import vvmf.qexp
from vvmf.ahol import (
    AholForm,
    _images,
    ahol_decompose,
    apply_intertwiner,
    lower_op,
    raise_op,
)
from vvmf.cli import _span_from_json
from vvmf.exactnum import CycNum, euler_phi
from vvmf.forms import bracket_projections, eisenstein, rankin_cohen, vv_eisenstein
from vvmf.hyperalg import (
    FormSpan,
    hyper_tensor,
    projections,
    span_contains,
    span_sum,
    tensor_form,
    tinf,
    tinf_closure,
)
from vvmf.linalg import Matrix
from vvmf.qexp import QExp
from vvmf.reps import Rep, builtin_registry, hom_space, is_intertwiner, trivial_rep


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def triv_form(weight, graded, prec=8):
    layers = [[q] for q in graded]
    return AholForm(weight, trivial_rep(), layers)


def retype_trivial(f):
    """Forget a 1-dim tensor label so grades match the registry."""
    return AholForm(f.weight, trivial_rep(), f.graded, name=f.name)


def theta_oracle(q):
    # local q d/dq used to cross-check the raising formula
    return QExp(q.h, q.prec, {n: Fraction(n, q.h) * c for n, c in q.terms.items()})


@pytest.mark.parametrize("lprime", [4, 6, 8])
def test_repeated_raising_of_one_gives_upper_factorial(lprime):
    f = AholForm.holomorphic(lprime, trivial_rep(), [QExp(1, 6, {0: 1})])
    for t in range(1, 4):
        f = raise_op(f)
        assert f.depth == t
        assert f.weight == lprime + 2 * t
        top = f.graded[t][0]
        assert top.coeff(0) == CycNum.from_rational(math.prod(range(lprime, lprime + t)))
        assert len(top.terms) == 1
        for r in range(t):
            assert all(q.is_zero() for q in f.graded[r])


def test_raise_of_weight_four_eisenstein():
    e4 = eisenstein(4, 6)
    out = raise_op(e4)
    assert out.weight == 6 and out.depth == 1
    base = e4.components[0]
    expect0 = theta_oracle(base).scaled(-1)
    assert out.graded[0][0] == expect0
    assert out.graded[0][0].coeff(1) == CycNum.from_rational(-240)
    assert out.graded[0][0].coeff(2) == CycNum.from_rational(-4320)
    assert out.graded[1][0] == base.scaled(4)


def test_raise_and_lower_of_zero():
    z = AholForm.zero(4, trivial_rep(), 5)
    assert raise_op(z).is_zero()
    assert lower_op(z).is_zero()


def test_lower_kills_holomorphic_forms():
    assert lower_op(eisenstein(6, 5)).is_zero()


def test_lower_raise_gives_minus_weight():
    for k in (4, 6, 12):
        f = eisenstein(k, 6)
        assert lower_op(raise_op(f)).agrees_with(f.scaled(-k))


def test_lower_of_pure_grading_variable():
    f = AholForm(2, trivial_rep(), [[QExp.zero(5)], [QExp(1, 5, {0: 1})]])
    out = lower_op(f)
    assert out.depth == 0
    assert out.components[0].coeff(0) == CycNum.from_rational(-1)


def random_depth2_form(rng, prec=7):
    """Random span of 1, R E4, R E6, R^2 E4, E4*E4 products, depth <= 2."""
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    pool = [
        retype_trivial(tensor_form(raise_op(e4), e6)),
        retype_trivial(tensor_form(raise_op(e4), raise_op(e6))),
        raise_op(raise_op(eisenstein(6, prec))),
        retype_trivial(tensor_form(raise_op(raise_op(e4)), e4.scaled(rng.randint(1, 3)))),
    ]
    f = rng.choice(pool)
    g = rng.choice(pool)
    if f.weight == g.weight:
        return f + g.scaled(rng.randint(-2, 2))
    return f


def test_fixed_weight_commutator_is_twice_depth_minus_weight():
    rng = random.Random(5150)
    for _ in range(20):
        f = random_depth2_form(rng)
        k = f.weight
        got = lower_op(raise_op(f)) - raise_op(lower_op(f), weight=k)
        for r, layer in enumerate(f.graded):
            want = [q.scaled(2 * r - k) for q in layer]
            if r <= got.depth:
                assert all(x.agrees_with(y) for x, y in zip(got.graded[r], want))
            else:
                assert all(y.is_zero() for y in want)


def test_decompose_depth_zero():
    f = eisenstein(8, 5)
    parts = ahol_decompose(f)
    assert len(parts) == 1 and parts[0].agrees_with(f)


def test_decompose_raised_eisenstein():
    e4 = eisenstein(4, 6)
    parts = ahol_decompose(raise_op(e4))
    assert len(parts) == 2
    assert parts[0].is_zero()
    assert parts[1].agrees_with(e4)


def test_decompose_product_example():
    e4 = eisenstein(4, 6)
    e6 = eisenstein(6, 6)
    f = retype_trivial(tensor_form(raise_op(e4), e6))  # weight 12, depth 1
    parts = ahol_decompose(f)
    e4e6 = tensor_form(e4, e6)
    assert parts[1].agrees_with(retype_trivial(e4e6).scaled(Fraction(2, 5)))
    h0 = parts[0].components[0]
    expect = (
        theta_oracle(e4.components[0]).scaled(-1) * e6.components[0]
        + theta_oracle(e4e6.graded[0][0]).scaled(Fraction(2, 5))
    )
    assert h0 == expect


def test_decompose_reconstructs_randomized_forms():
    rng = random.Random(321)
    for _ in range(10):
        f = random_depth2_form(rng)
        parts = ahol_decompose(f)
        recon = parts[0]
        for t, h in enumerate(parts[1:], start=1):
            lifted = h
            for _ in range(t):
                lifted = raise_op(lifted)
            recon = recon + lifted
        assert recon.agrees_with(f)
        # depth additivity held by the pool construction
        assert f.depth <= 2


def test_decompose_obstruction_at_low_weight():
    f = AholForm(2, trivial_rep(), [[QExp.zero(4)], [QExp(1, 4, {0: 1})]])
    with pytest.raises(ArithmeticError):
        ahol_decompose(f)


def test_tinf_of_holomorphic_form(reg):
    e4 = eisenstein(4, 6)
    span = tinf(e4, reg)
    assert span.grades() == [(6, "triv")]
    gens = span.generators((6, "triv"))
    assert len(gens) == 1
    assert gens[0][0].agrees_with(raise_op(e4))


def test_tinf_of_raised_form_contains_lowered_image(reg):
    e4 = eisenstein(4, 6)
    span = tinf(raise_op(e4), reg)
    assert (4, "triv") in span.grading
    assert span_contains(span, e4.scaled(-4), 2)
    assert (8, "triv") in span.grading


def test_tinf_of_zero_is_empty(reg):
    z = AholForm.zero(4, trivial_rep(), 5)
    assert tinf(z, reg).grades() == []


def test_closure_of_holomorphic_form_is_itself(reg):
    e6 = eisenstein(6, 6)
    closure, stabilized = tinf_closure(FormSpan.of(e6), (6, 6), 5, reg)
    assert stabilized
    assert closure.dimension_signature() == {(6, "triv"): 1}
    assert span_contains(closure, e6, 2)


def test_closure_separates_depth_layers(reg):
    e4 = eisenstein(4, 8)
    e6 = eisenstein(6, 8)
    h1 = retype_trivial(tensor_form(e4, e6)).scaled(Fraction(2, 5))
    h0 = retype_trivial(tensor_form(raise_op(e4), e6)) - raise_op(h1)
    assert h0.depth == 0
    big = retype_trivial(tensor_form(raise_op(e4), e6))  # = h0 + R h1
    closure, stabilized = tinf_closure(FormSpan.of(big), (10, 12), 6, reg)
    assert stabilized
    assert span_contains(closure, h1, 3)
    assert span_contains(closure, h0, 3)


def test_closure_of_empty_is_empty(reg):
    closure, stabilized = tinf_closure(FormSpan(), (4, 8), 3, reg)
    assert stabilized
    assert closure.grades() == []


def test_closure_rejects_empty_window(reg):
    with pytest.raises(ValueError):
        tinf_closure(FormSpan(), (8, 4), 3, reg)


def reference_tinf_closure(span, weight_window, max_rounds, targets):
    """The closure as it was: each round copied the window's grades of the
    last closure, summed them with the window's grades of every generator's
    tinf span by span_sum, and compared both the dimension signatures and
    the canonical RREF rows of every grade."""
    kmin, kmax = weight_window

    def window_filter(s):
        out = FormSpan()
        for (w, _), gens in sorted(s.grading.items()):
            if kmin <= w <= kmax:
                for form, prov in gens:
                    out.add(form, provenance=prov)
        return out

    current = window_filter(span)
    for _ in range(max_rounds):
        pieces = [current]
        for _, gens in sorted(current.grading.items()):
            pieces += [window_filter(tinf(form, targets)) for form, _ in gens]
        new = span_sum(pieces)
        if new.dimension_signature() == current.dimension_signature() and all(
            new.grade_rows(key) == current.grade_rows(key) for key in new.grading
        ):
            return current, True
        current = new
    return current, False


def closure_against_reference(span, window, rounds, reg, monkeypatch):
    """tinf_closure's (span, stabilized), after checking that the reference
    gives the same flag and the same JSON bytes, and that the closure
    expanded each generator once at most, and every one when it stabilized."""
    expanded, expand = [], vvmf.hyperalg.tinf

    def spy(form, targets):
        expanded.append(form)
        return expand(form, targets)

    with monkeypatch.context() as m:
        m.setattr(vvmf.hyperalg, "tinf", spy)
        got, stabilized = tinf_closure(span, window, rounds, reg)
    gens = {id(f) for key in got.grades() for f, _ in got.grading[key]}
    assert len({id(f) for f in expanded}) == len(expanded) and {id(f) for f in expanded} <= gens
    assert len(expanded) == len(gens) or not stabilized
    want, want_stabilized = reference_tinf_closure(span, window, rounds, reg)
    assert stabilized is want_stabilized
    assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)
    return got, stabilized


@pytest.mark.parametrize("prec, window, rounds, stabilized", [
    (12, (4, 8), 3, True),  # the closure CI pins at 40f3d114...
    (33, (4, 10), 4, True),
    (12, (2, 12), 2, False),
])
def test_closure_matches_the_span_sum_closure(reg, monkeypatch, prec, window, rounds, stabilized):
    # the span as `ahol closure --span` reads the JSON of `vveis --weight 4
    # --type rho3 --index 3 --prec PREC`
    eis = vv_eisenstein(4, reg.get("rho3"), 3, prec)
    span = _span_from_json(json.loads(json.dumps(eis.to_json())), reg)
    closure, got_stabilized = closure_against_reference(span, window, rounds, reg, monkeypatch)
    assert got_stabilized is stabilized
    assert len(closure.grades()) > len(span.grades())


def test_closure_grows_inside_the_grades_it_has(reg, monkeypatch):
    # rounds 1 and 2 add R(E4), R(E6) and then R^2(E4) to the grades that E6
    # and E8 opened, and open none, so a stop rule on the set of grades
    # alone would end after round 1
    span = FormSpan.of(eisenstein(4, 6), eisenstein(6, 6), eisenstein(8, 6))
    closure, stabilized = closure_against_reference(span, (4, 8), 4, reg, monkeypatch)
    assert stabilized
    assert closure.dimension_signature() == {(4, "triv"): 1, (6, "triv"): 2, (8, "triv"): 3}


def test_ahol_imports_nothing_from_hyperalg():
    # the span layer owns tinf and its closure, so the form layer below it
    # imports nothing from it, not even lazily inside a function
    tree = ast.parse(Path(vvmf.ahol.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
    assert "qexp" in names and not any("hyperalg" in name for name in names)


def test_hyper_derivation_containment(reg):
    # images of a product under the infinite-place operator stay inside
    # the products of images
    e4 = eisenstein(4, 8)
    e6 = eisenstein(6, 8)
    prod = retype_trivial(tensor_form(e4, e6))
    left = tinf(e4, reg)
    right = tinf(e6, reg)
    pieces = []
    for f, _ in left.generators((6, "triv")):
        pieces.append(hyper_tensor(f, e6, reg))
    for g, _ in right.generators((8, "triv")):
        pieces.append(hyper_tensor(e4, g, reg))
    rhs = span_sum(pieces)
    for key in tinf(prod, reg).grades():
        for f, _ in tinf(prod, reg).generators(key):
            assert span_contains(rhs, retype_trivial(f), 3), key


def test_depth_additivity():
    e4 = eisenstein(4, 6)
    e6 = eisenstein(6, 6)
    a = raise_op(e4)
    b = raise_op(raise_op(e6))
    assert tensor_form(a, b).depth <= a.depth + b.depth
    assert tensor_form(a, e6).depth <= a.depth
    assert tensor_form(e4, e6).depth == 0


def reference_apply(phi, f, target):
    """The chain apply_intertwiner used to build: one scaled series and one
    series sum per nonzero matrix entry.  A partial sum that cancels at an
    exponent is dropped there, so that coefficient's conductor restarts."""
    if not is_intertwiner(phi, f.rep, target):
        raise ValueError("matrix does not intertwine the source and target types")
    layers = []
    for layer in f.graded:
        comps = []
        for i in range(target.dim):
            acc = None
            for j in range(f.rep.dim):
                c = phi[i, j]
                if c.is_zero():
                    continue
                term = layer[j].scaled(c)
                acc = term if acc is None else acc + term
            if acc is None:
                acc = QExp.zero(min(q.prec for q in layer))
            comps.append(acc)
        layers.append(comps)
    name = f"phi({f.name})" if f.name else ""
    return AholForm(f.weight, target, layers, name=name)


def chain_cancels(phi, i, layer):
    """True when a prefix sum of reference_apply's row i cancels at some
    exponent below the row's precision and a later entry reaches it."""
    used = [(phi[i, j], q) for j, q in enumerate(layer) if phi[i, j]]
    if not used:
        return False
    prec = min(q.prec for _, q in used)
    sums, cancelled = {}, set()
    for c, q in used:
        for n, x in q.terms.items():
            e = Fraction(n, q.h)
            if e >= prec:
                continue
            if e in cancelled:
                return True
            sums[e] = sums.get(e, 0) + c * x
            if not sums[e]:
                cancelled.add(e)
    return False


def trivial_power(d):
    """d copies of the trivial type: every matrix intertwines two of them."""
    return Rep(f"triv^{d}", 1, Matrix.identity(d), Matrix.identity(d))


APPLY_CONDUCTORS = (1, 3, 4, 12)


def random_cyc(rng, n):
    while True:
        nums = [rng.randint(-4, 4) for _ in range(euler_phi(n))]
        x = CycNum(n, [Fraction(a, rng.choice([1, 2, 3, 7])) for a in nums])
        if x:
            return x


def random_application(rng):
    """(phi, f, target) with f on trivial_power(1..9): components on lattice
    1 or 3 with coefficients at conductors 1, 3, 4 and 12, phi rational or
    not, some rows zero, and some rows with two columns that cancel at
    every exponent of one component."""
    d, e = rng.randint(1, 9), rng.randint(1, 4)
    layers = []
    for _ in range(rng.choice([1, 1, 2])):
        layer = []
        for _ in range(d):
            h, prec = rng.choice([1, 3]), Fraction(rng.randint(2, 10), rng.choice([1, 3]))
            bound = math.ceil(prec * h)
            terms = {
                rng.randrange(bound): random_cyc(rng, rng.choice(APPLY_CONDUCTORS))
                for _ in range(rng.randint(0, 10))
            }
            layer.append(QExp(h, prec, terms))
        layers.append(layer)
    cond = rng.choice(APPLY_CONDUCTORS)
    rows = [[random_cyc(rng, cond) if rng.random() < 0.6 else 0 for _ in range(d)]
            for _ in range(e)]
    if rng.random() < 0.3:
        rows[rng.randrange(e)] = [0] * d
    for _ in range(rng.randint(0, 3) if d > 1 else 0):
        i, (j1, j2) = rng.randrange(e), rng.sample(range(d), 2)
        r = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
        for layer in layers:
            layer[j2] = layer[j1].scaled(r)
        rows[i][j1] = rows[i][j1] or random_cyc(rng, cond)
        rows[i][j2] = -rows[i][j1] / r
    return Matrix.from_rows(rows), AholForm(4, trivial_power(d), layers), trivial_power(e)


def form_bytes(f):
    return json.dumps(f.to_json())


@pytest.mark.parametrize("seed", range(4))
def test_apply_intertwiner_matches_the_chain(seed):
    """Equal values always; equal bytes wherever no prefix sum of the chain
    cancels, where the chain's conductor restarts."""
    rng = random.Random(f"apply/{seed}")
    compared = cancelled = 0
    for _ in range(40):
        phi, f, target = random_application(rng)
        new, old = apply_intertwiner(phi, f, target), reference_apply(phi, f, target)
        assert new.depth == old.depth
        for layer, a, b in zip(f.graded, new.graded, old.graded):
            for i, (x, y) in enumerate(zip(a, b)):
                assert x == y and x.h == y.h
                if chain_cancels(phi, i, layer):
                    cancelled += 1
                else:
                    assert json.dumps(x.to_json()) == json.dumps(y.to_json())
                    compared += 1
    assert compared > 50 and cancelled > 0


def test_apply_intertwiner_keeps_the_conductor_of_a_cancelled_prefix():
    z = CycNum.zeta(12)
    phi = Matrix.from_rows([[1, -1, 1]])
    layer = [QExp(1, 3, {1: z}), QExp(1, 3, {1: z}), QExp(1, 3, {1: CycNum.from_rational(5)})]
    for perm in ((0, 1, 2), (2, 0, 1)):
        f = AholForm(4, trivial_power(3), [[layer[j] for j in perm]])
        (q,) = apply_intertwiner(phi, f, trivial_power(1)).components
        assert q.terms[1] == 5 and q.terms[1].n == 12
    # the chain drops z - z and restarts at the rational 5
    f = AholForm(4, trivial_power(3), [layer])
    assert reference_apply(phi, f, trivial_power(1)).components[0].terms[1].n == 1


def test_apply_intertwiner_does_not_depend_on_the_order_of_the_source():
    rng = random.Random("apply/permuted")
    chain_moved = 0
    for _ in range(120):
        phi, f, target = random_application(rng)
        d = f.rep.dim
        perm = rng.sample(range(d), d)
        phi_p = Matrix.from_rows([[phi[i, j] for j in perm] for i in range(target.dim)])
        f_p = AholForm(f.weight, f.rep, [[layer[j] for j in perm] for layer in f.graded])
        assert form_bytes(apply_intertwiner(phi_p, f_p, target)) == form_bytes(
            apply_intertwiner(phi, f, target)
        )
        chain_moved += form_bytes(reference_apply(phi_p, f_p, target)) != form_bytes(
            reference_apply(phi, f, target)
        )
    # the inputs reach the order-dependent cases of the chain
    assert chain_moved > 0


@pytest.mark.parametrize("seed", range(3))
def test_stacked_maps_match_maps_applied_alone(seed):
    """Rows stacked beside others that meet other lattices, precisions and
    conductors give the bytes they give alone."""
    rng = random.Random(f"stacked/{seed}")
    for _ in range(20):
        _, f, _ = random_application(rng)
        d, maps = f.rep.dim, []
        for _ in range(rng.randint(1, 4)):
            cond, cols = rng.choice(APPLY_CONDUCTORS), rng.sample(range(d), rng.randint(1, d))
            rows = [[random_cyc(rng, cond) if j in cols and rng.random() < 0.7 else 0
                     for j in range(d)] for _ in range(rng.randint(1, 3))]
            phi = Matrix.from_rows(rows)
            maps.append((phi, trivial_power(phi.rows)))
        stacked = _images(f, None, maps, "")
        assert len(stacked) == len(maps)
        for (phi, target), image in zip(maps, stacked):
            assert form_bytes(image) == form_bytes(apply_intertwiner(phi, f, target))


def rho3_eisenstein(k, reg, prec=6):
    span = vv_eisenstein(k, reg.get("rho3"), 3, prec)
    return span.generators(span.grades()[0])[0][0]


def sign_type():
    """The level-2 character S = T = -1: no level-3 type maps onto it."""
    return Rep("sgn", 2, Matrix.from_rows([[-1]]), Matrix.from_rows([[-1]]))


def projection_sources(reg):
    f4, f6 = rho3_eisenstein(4, reg), rho3_eisenstein(6, reg)
    return [
        tensor_form(f4, f6),
        tensor_form(f4, f4),
        tensor_form(raise_op(f4), f6),
        tensor_form(raise_op(f4), raise_op(f6)),
        raise_op(f4),
        raise_op(raise_op(f4)),
    ]


def test_projections_match_reference_apply_map_by_map(reg):
    targets = list(reg) + [sign_type()]
    assert hom_space(reg.get("rho3"), targets[-1]) == []
    depths = set()
    for f in projection_sources(reg):
        depths.add(f.depth)
        got = projections(f, targets)
        expected = [
            (f"{t.label}#{idx}", reference_apply(phi, f, t))
            for t in targets
            for idx, phi in enumerate(hom_space(f.rep, t))
        ]
        assert [tag for tag, _ in got] == [tag for tag, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a.name == b.name and a.rep is b.rep
            assert form_bytes(a) == form_bytes(b)
    assert depths == {0, 1, 2}
    assert projections(rho3_eisenstein(4, reg), [sign_type()]) == []


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a spy that records the number of rows of each call."""
    calls, kernel = [], getattr(module, name)

    def counted(rows, *args):
        calls.append(len(rows))
        return kernel(rows, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_projections_combine_once_per_layer(reg, monkeypatch):
    calls = counting(monkeypatch, vvmf.ahol, "combine_terms")
    targets = list(reg) + [sign_type()]
    for f in projection_sources(reg):
        calls.clear()
        images = projections(f, targets)
        assert calls == [sum(image.rep.dim for _, image in images)] * (f.depth + 1)
    f4, f6 = rho3_eisenstein(4, reg), rho3_eisenstein(6, reg)
    rows = sum(t.dim * len(hom_space(f4.rep.tensor(f6.rep), t)) for t in targets)
    for f, g in ((f4, f6), (raise_op(f4), f6), (raise_op(f4), raise_op(raise_op(f6)))):
        calls.clear()
        hyper_tensor(f, g, targets)
        assert calls == [rows] * (f.depth + g.depth + 1)


def test_bracket_projections_make_no_combine_or_theta_call(reg, monkeypatch):
    # every map is contracted into g on integer coordinates and the coefficients
    # are evaluated directly: no scalar combine, no series-kernel call and no theta chain
    f4, f6 = rho3_eisenstein(4, reg), rho3_eisenstein(6, reg)
    contractions = counting(monkeypatch, vvmf.forms, "combine")
    kernel = counting(monkeypatch, vvmf.qexp, "combine_terms")
    thetas, theta = [], QExp.theta
    monkeypatch.setattr(QExp, "theta", lambda q: thetas.append(q) or theta(q))
    targets = list(reg) + [sign_type()]
    images = bracket_projections(f4, f6, 2, targets)
    assert images
    assert contractions == kernel == thetas == []


def test_images_follow_one_naming_rule(reg):
    """An image of a named source s is phi(s) under a basis map and s under
    the identity map; an image of an unnamed source is unnamed."""
    f4, f6 = rho3_eisenstein(4, reg), rho3_eisenstein(6, reg)
    named = {x: AholForm(f.weight, f.rep, f.graded, name=x) for x, f in (("F", f4), ("G", f6))}
    bare = {x: AholForm(f.weight, f.rep, f.graded) for x, f in named.items()}
    rho3 = reg.get("rho3")
    (phi,) = hom_space(rho3, rho3)

    def names(f, g):
        span = hyper_tensor(f, g, reg)
        return {
            apply_intertwiner(phi, f, rho3).name,
            *(image.name for _, image in projections(f, reg)),
            *(form.name for key in span.grades() for form, _ in span.generators(key)),
            *(image.name for _, image in bracket_projections(f, g, 2, reg)),
        }

    assert names(named["F"], named["G"]) == {"phi(F)", "phi((F (x) G))", "phi([F, G]_2)"}
    assert names(bare["F"], bare["G"]) == names(bare["F"], named["G"]) == {""}
    assert tensor_form(named["F"], named["G"]).name == "(F (x) G)"
    assert rankin_cohen(named["F"], named["G"], 2).name == "[F, G]_2"
    assert tensor_form(bare["F"], named["G"]).name == rankin_cohen(bare["F"], bare["G"], 2).name == ""


def test_projections_skip_the_intertwiner_check(reg, monkeypatch):
    """Maps from hom_space intertwine by construction; only the public
    apply_intertwiner checks."""

    def refuse(*args):
        raise AssertionError("projections must not check or apply map by map")

    f4, f6 = rho3_eisenstein(4, reg), rho3_eisenstein(6, reg)
    expected = hyper_tensor(f4, f6, reg).dimension_signature()
    monkeypatch.setattr(vvmf.ahol, "is_intertwiner", refuse)
    monkeypatch.setattr(vvmf.ahol, "apply_intertwiner", refuse)
    assert len(projections(tensor_form(f4, f6), reg)) == 5
    assert hyper_tensor(f4, f6, reg).dimension_signature() == expected


def test_apply_intertwiner_rejects_a_map_that_does_not_intertwine(reg):
    rho3 = reg.get("rho3")
    f4 = rho3_eisenstein(4, reg)
    (phi,) = hom_space(rho3, rho3)
    assert form_bytes(apply_intertwiner(phi, f4, rho3)) == form_bytes(f4)
    with pytest.raises(ValueError, match="does not intertwine"):
        apply_intertwiner(Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]), f4, rho3)
    with pytest.raises(ValueError, match="does not intertwine"):
        apply_intertwiner(Matrix.from_rows([[1, 1, 1]]), f4, reg.get("triv"))
