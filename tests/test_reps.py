import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from vvmf.exactnum import CycNum, _pow
from vvmf.hecke import hecke_rep
from vvmf.linalg import Matrix, Subspace
from vvmf.reps import (
    Decomposition,
    Rep,
    RepRegistry,
    builtin_registry,
    decompose,
    fixed_vector_to_matrix,
    hom_fixed_subspace,
    hom_space,
    is_intertwiner,
    rho3,
    rho_zeta,
    rho_zeta2,
    sl2_word,
    trivial_rep,
)


def test_threefold_type_passes_validation():
    report = rho3().validate()
    assert report.ok, str(report)


def test_trivial_type_passes_validation():
    assert trivial_rep().validate().ok


def test_braid_relation_failure_detected():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    bad = Rep("bad", 1, swap, Matrix.identity(2))
    report = bad.validate()
    # direct multiplication oracle: (ST)^3 = S here, and S != S^2 = I
    st = swap * Matrix.identity(2)
    assert st * st * st == swap
    assert not report.ok
    failed = {name for name, ok in report.checks if not ok}
    assert "(ST)^3 = S^2" in failed


def test_validate_checks_match_full_products(reg):
    """Each check keeps its name and the boolean of its full product, also
    where S^4 = I is read from S^2 = I; the quarter type has S^2 = -I."""
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    bad = Rep("bad", 1, swap, Matrix.identity(2))
    quarter = Rep("quarter", 1, Matrix(1, 1, [CycNum.zeta(4)]), Matrix.identity(1))
    for r in reg.entries + [bad, quarter]:
        S, T, one = r.S, r.T, Matrix.identity(r.dim)
        t_level = one
        for _ in range(r.level):
            t_level = t_level * T
        want = [
            ("S^4 = I", S * S * S * S == one),
            ("(ST)^3 = S^2", S * T * S * T * S * T == S * S),
            ("S^2 = I", S * S == one),
            (f"T^{r.level} = I", t_level == one),
        ]
        assert r.validate().checks == want, r.label
    assert [ok for _, ok in bad.validate().checks] == [True, False, True, True]
    assert [ok for _, ok in quarter.validate().checks] == [True, False, False, True]


def test_dual_examples(reg):
    triv = reg.get("triv")
    assert triv.dual().S == triv.S and triv.dual().T == triv.T
    r3 = reg.get("rho3")
    dd = r3.dual().dual()
    assert dd.S == r3.S and dd.T == r3.T
    dz = reg.get("rho_zeta").dual()
    assert dz.T[0, 0] == CycNum.zeta(3, 2)


def test_tensor_examples(reg):
    r3 = reg.get("rho3")
    t = r3.tensor(reg.get("triv"))
    assert t.S == r3.S and t.T == r3.T
    zz = reg.get("rho_zeta").tensor(reg.get("rho_zeta"))
    assert zz.T[0, 0] == CycNum.zeta(3, 2)
    assert r3.tensor(r3).dim == 9


def test_hom_dimensions_of_tensor_square(reg):
    rr = reg.get("rho3").tensor(reg.get("rho3"))
    dims = {e.label: len(hom_space(rr, e)) for e in reg}
    assert dims == {"triv": 1, "rho3": 2, "rho_zeta": 1, "rho_zeta2": 1}


def test_reference_rows_lie_in_hom_spaces(reg):
    rr = reg.get("rho3").tensor(reg.get("rho3"))
    half = Fraction(1, 2)
    row_triv = [1, half, half, half, 1, half, half, half, 1]
    sub = hom_fixed_subspace(rr, reg.get("triv"))
    assert sub.dim == 1 and sub.member(row_triv)
    z = CycNum.zeta(3)
    row_zeta = [1, z + 1, -z, z + 1, z, -1, -z, -1, -z - 1]
    subz = hom_fixed_subspace(rr, reg.get("rho_zeta"))
    assert subz.dim == 1 and subz.member(row_zeta)


def test_intertwining_property_on_words(reg):
    rng = random.Random(2024)
    rr = reg.get("rho3").tensor(reg.get("rho3"))
    for target in reg:
        for phi in hom_space(rr, target):
            assert is_intertwiner(phi, rr, target)
            for _ in range(4):
                word = [rng.choice("ST") for _ in range(rng.randint(1, 6))]
                lhs, rhs = Matrix.identity(rr.dim), Matrix.identity(target.dim)
                for w in word:
                    lhs = lhs * (rr.S if w == "S" else rr.T)
                    rhs = rhs * (target.S if w == "S" else target.T)
                assert phi * lhs == rhs * phi


def hom_fixed_subspace_reference(r, r2):
    """Fixed vectors of dual(r) (x) r2 by the Kronecker formulation.

    The kernels of dual(r)(g) (x) r2(g) - I for g = S and g = T, with the
    dual built from transposed inverses, intersected.
    """
    amb = r.dim * r2.dim
    ds = r.S.transpose().inverse().kron(r2.S) - Matrix.identity(amb)
    dt = r.T.transpose().inverse().kron(r2.T) - Matrix.identity(amb)
    return ds.kernel().intersect(dt.kernel())


def test_stacked_hom_solve_matches_kronecker_reference(reg):
    t3 = hecke_rep(3, reg.get("triv")).rep
    sources = list(reg) + [
        hecke_rep(3, reg.get("rho3")).rep,
        hecke_rep(4, reg.get("rho3")).rep,
        t3.tensor(t3),
        hecke_rep(2, reg.get("rho3")).rep.tensor(reg.get("rho3")),
    ] + [hecke_rep(M, reg.get("triv")).rep for M in range(1, 9)]
    for r in sources:
        for r2 in reg:
            got = hom_fixed_subspace(r, r2)
            want = hom_fixed_subspace_reference(r, r2)
            assert got == want, (r.label, r2.label)
            assert [
                fixed_vector_to_matrix(v, r.dim, r2.dim).to_json() for v in got.basis.nonzeros
            ] == [
                fixed_vector_to_matrix(v, r.dim, r2.dim).to_json() for v in want.basis.nonzeros
            ], (r.label, r2.label)


def test_hom_solve_of_equal_types_written_at_another_conductor(reg):
    """Equal generator matrices written at conductor 12 are solved at 12, and
    at their own conductor at that one, whichever of the two is solved first."""

    def at12(r):
        S, T = (Matrix(m.rows, m.cols, [x.lift(12) for x in m.entries]) for m in (r.S, r.T))
        return Rep(r.label, r.level, S, T)

    def shaped(sub, r, r2):
        return [fixed_vector_to_matrix(v, r.dim, r2.dim).to_json() for v in sub.basis.nonzeros]

    for first_at12 in (False, True):
        for r in reg:
            for r2 in reg:
                pairs = [(r, r2), (at12(r), at12(r2)), (r, r2)]
                for a, b in pairs[first_at12:]:
                    got, want = hom_fixed_subspace(a, b), hom_fixed_subspace_reference(a, b)
                    assert got == want, (r.label, r2.label)
                    assert shaped(got, a, b) == shaped(want, a, b), (a.S.n, r.label, r2.label)


def test_galois_conjugate_hom_spaces_match_the_reference(reg, fresh_hom_cache):
    """hom_space solves one pair per Galois orbit and maps the others to it by
    sigma_k; every answer has the bytes of a direct solve of its own pair,
    whichever pair of an orbit is asked first, and spans the Kronecker
    reference.  The lifts to conductor 12 and the
    characters T = zeta_12^a, S = zeta_4^-a (valid for SL2(Z), S^2 = -1) make
    k = 5, 7 and 11 occur; the conductor-5 pairs check that sigma_k is undone
    by sigma_(k^-1), not by sigma_k."""
    from vvmf import reps

    def at(r, n):
        S, T = (Matrix(m.rows, m.cols, [x.lift(n) for x in m.entries]) for m in (r.S, r.T))
        return Rep(r.label, r.level, S, T)

    r3, rz = reg.get("rho3"), reg.get("rho_zeta")
    bases = [
        hecke_rep(3, r3).rep,
        hecke_rep(2, r3).rep.tensor(r3),
        rz.tensor(r3),
        hecke_rep(2, rz).rep,
        hecke_rep(3, rz).rep,
    ]
    def mixed(a):  # T = zeta_5^a (+) zeta_5^2a in a basis that sigma_k moves
        p = Matrix(2, 2, [1, CycNum.zeta(5, a), 0, 1])
        d = Matrix(2, 2, [CycNum.zeta(5, a), 0, 0, CycNum.zeta(5, 2 * a)])
        return Rep(f"mixed{a}", 5, Matrix.identity(2), p * d * p.inverse())

    sources = bases + [at(r, math.lcm(12, r.conductor)) for r in bases] + [
        Rep(f"chi{a}", 12, Matrix(1, 1, [CycNum.zeta(4, -a)]), Matrix(1, 1, [CycNum.zeta(12, a)]))
        for a in (1, 5, 7, 11)
    ] + [mixed(a) for a in range(1, 5)]
    # the characters T = zeta_5^a pair with the mixed sources in one orbit
    # whose k, unlike those of conductor 12, differ from their inverses
    targets = list(reg) + [at(r, 12) for r in reg] + [
        Rep(f"psi{a}", 5, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(5, a)])) for a in range(1, 5)
    ]
    for src in sources:
        want = {}
        for t in targets:
            sub = hom_fixed_subspace(src, t)
            assert sub == hom_fixed_subspace_reference(src, t), (src.label, t.label)
            want[t] = [fixed_vector_to_matrix(v, src.dim, t.dim).to_json() for v in sub.basis.nonzeros]
        for order in (targets, targets[::-1]):
            reps._hom_pair.cache_clear()
            fresh_hom_cache.cache_clear()
            for t in order:
                assert [phi.to_json() for phi in hom_space(src, t)] == want[t], (src.label, t.label)
    ks = {
        reps._orbit_rep(s.key, t.key, math.lcm(s.conductor, t.conductor))[0]
        for s in sources for t in targets
    }
    assert {2, 3, 4, 5, 7, 11} <= ks
    # at a joint conductor n <= 2, (Z/n)^* is {1}: the pair is its own representative
    triv = reg.get("triv")
    for s in (triv, at(triv, 2)):
        assert reps._orbit_rep(s.key, triv.key, s.conductor) == (1, s.key, triv.key)

    # sigma_2 fixes a rational source, so hom(src, rho_zeta2) after
    # hom(src, rho_zeta) makes no second solve; it moves rho_zeta*rho3 to
    # rho_zeta2*rho3, which is then the source of the conjugate pair
    rz2 = reg.get("rho_zeta2")
    for src, src2 in [(s, s) for s in sources[:2]] + [(rz.tensor(r3), rz2.tensor(r3))]:
        reps._hom_pair.cache_clear()
        fresh_hom_cache.cache_clear()
        hom_space(src, rz)
        hom_space(src2, rz2)
        assert fresh_hom_cache.cache_info()[:2] == (1, 1)  # hits, misses


def test_hom_basis_of_rational_coordinate_vectors_keeps_the_joint_conductor():
    """The kernel here is the coordinate vector e_0, whose entries are
    rational, but the T block of the system is written at conductor 3, and
    so is the intertwiner (the bytes recorded before the kernel stayed sparse)."""
    r = Rep("split", 3, Matrix.identity(2), Matrix(2, 2, [1, 0, 0, CycNum.zeta(3)]))
    one, zero = {"n": 3, "c": ["1", "0"]}, {"n": 3, "c": ["0", "0"]}
    assert [phi.to_json() for phi in hom_space(r, trivial_rep())] == [[[one, zero]]]
    assert [phi.to_json() for phi in hom_space(trivial_rep(), r)] == [[[one], [zero]]]


def test_hom_of_induced_tensor_square_into_threefold_type(reg):
    t3 = hecke_rep(3, reg.get("rho3")).rep
    src, r3 = t3.tensor(t3), reg.get("rho3")
    basis = hom_space(src, r3)
    assert len(basis) == 6
    assert all(is_intertwiner(phi, src, r3) for phi in basis)
    text = json.dumps([phi.to_json() for phi in basis], sort_keys=True)
    digest = "d39d51d5291f820de31134881b0176065547340609ec205b69d5fd77a690aa6b"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_decompose_tensor_square_fully(reg):
    rr = reg.get("rho3").tensor(reg.get("rho3"))
    result = decompose(rr, reg)
    assert result.multiplicities == {"triv": 1, "rho3": 2, "rho_zeta": 1, "rho_zeta2": 1}
    assert result.residual is None
    assert sum(m * reg.get(lbl).dim for lbl, m in result.multiplicities.items()) == 9


def test_decompose_trivial_against_itself():
    reg1 = RepRegistry([trivial_rep()])
    result = decompose(trivial_rep(), reg1)
    assert result.multiplicities == {"triv": 1}
    assert result.residual is None


def test_decompose_with_irreducible_residual():
    partial = RepRegistry([trivial_rep(), rho_zeta(), rho_zeta2()])
    result = decompose(rho3(), partial)
    assert result.multiplicities == {}
    assert result.residual is not None and result.residual.dim == 3
    assert result.residual_flagged
    assert len(hom_space(result.residual, result.residual)) == 1


def test_residual_splitting_scalar_case(reg):
    # remove the one-dimensional entries; the leftover of the tensor square
    # is two T-eigenlines on which S acts trivially
    partial = RepRegistry([trivial_rep(), rho3()])
    rr = reg.get("rho3").tensor(reg.get("rho3"))
    result = decompose(rr, partial)
    assert result.multiplicities == {"triv": 1, "rho3": 2}
    assert result.residual is not None and result.residual.dim == 2
    assert not result.residual_flagged
    eigs = sorted(str(r.T[0, 0]) for r in result.residual_split)
    assert eigs == sorted([str(CycNum.zeta(3)), str(CycNum.zeta(3, 2))])


def decompose_reference(r, registry):
    """decompose by intersecting kernels and solving for the residual.

    The construction `decompose` used before its one joint kernel; the
    whole space is spelled out where it called the removed Subspace.full.
    """
    mults = {}
    intertwiners = []
    for entry in registry.entries:
        basis = hom_space(r, entry)
        if basis:
            mults[entry.label] = len(basis)
            intertwiners.extend(basis)
    joint = Subspace.from_rows(r.dim, Matrix.identity(r.dim).to_rows())
    for phi in intertwiners:
        joint = joint.intersect(phi.kernel())
    if joint.dim == 0:
        return Decomposition(mults, None)
    basis_t = Matrix.from_rows(joint.basis.to_rows()).transpose()  # columns span the kernel
    s_res = basis_t.solve_right(r.S * basis_t)
    t_res = basis_t.solve_right(r.T * basis_t)
    residual = Rep(f"{r.label}|res", r.level, s_res, t_res)
    scalar = s_res[0, 0]
    if all(
        s_res[i, j] == (scalar if i == j else CycNum.zero())
        for i in range(joint.dim)
        for j in range(joint.dim)
    ):
        split = []
        for j in range(r.level):
            eig = CycNum.zeta(r.level, j)
            ker = (t_res - Matrix.identity(joint.dim).scaled(eig)).kernel()
            for _ in range(ker.dim):
                split.append(
                    Rep(
                        f"{r.label}|res(T={eig})",
                        r.level,
                        Matrix(1, 1, [scalar]),
                        Matrix(1, 1, [eig]),
                    )
                )
        if sum(s.dim for s in split) == joint.dim:
            return Decomposition(mults, residual, residual_split=split)
    return Decomposition(mults, residual, residual_flagged=True)


def decompose_cases(reg):
    """(type, registry) pairs: full decompositions, flagged residuals, a split."""
    r3, triv = reg.get("rho3"), reg.get("triv")
    t3 = hecke_rep(3, triv).rep
    cases = [(a.tensor(b), reg) for a in reg for b in reg]
    cases += [(hecke_rep(m, r3).rep, reg) for m in (2, 3, 4)]
    cases += [(t3.tensor(t3), reg), (hecke_rep(2, r3).rep.tensor(r3), reg)]
    cases.append((r3.tensor(r3), RepRegistry([trivial_rep(), rho3()])))
    cases.append((r3, RepRegistry([trivial_rep(), rho_zeta(), rho_zeta2()])))
    return cases


def test_decompose_matches_the_intersect_reference(reg):
    kinds = set()
    for r, registry in decompose_cases(reg):
        got, want = decompose(r, registry), decompose_reference(r, registry)
        assert got.multiplicities == want.multiplicities, r.label
        assert got.residual_flagged == want.residual_flagged, r.label
        assert [x.label for x in got.residual_split] == [x.label for x in want.residual_split]
        if want.residual is None:
            assert got.residual is None, r.label
            kinds.add("full")
        else:
            assert got.residual.S == want.residual.S, r.label
            assert got.residual.T == want.residual.T, r.label
            kinds.add("split" if want.residual_split else "flagged")
    assert kinds == {"full", "split", "flagged"}


def test_decompose_neither_intersects_nor_solves(reg, monkeypatch):
    def refuse(*args):
        raise AssertionError("decompose took the intersect-and-solve path")

    monkeypatch.setattr(Subspace, "intersect", refuse)
    monkeypatch.setattr(Matrix, "solve_right", refuse)
    for r, registry in decompose_cases(reg)[-4:]:
        decompose(r, registry)


def test_kernels_build_no_dense_rows(reg, monkeypatch, fresh_hom_cache):
    """The hom solve and decompose go from the sparse kernel rows to the
    intertwiners and the residual without a dense row."""
    cases = decompose_cases(reg)[-4:]  # the type constructors read dense rows

    def refuse(*args):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(Matrix, "from_rows", staticmethod(refuse))
    for r, registry in cases:
        decompose(r, registry)
    assert fresh_hom_cache.cache_info().misses > 0


def test_isomorphism_tests(reg):
    # Schur: irreducible types are isomorphic exactly when their hom space is
    # nonzero, and a type is irreducible when its End is the scalars
    assert hom_space(reg.get("rho_zeta"), reg.get("rho_zeta2")) == []
    assert len(hom_space(reg.get("rho3"), reg.get("rho3"))) == 1
    assert hom_space(reg.get("rho3"), reg.get("triv")) == []
    reducible = reg.get("rho3").tensor(reg.get("rho3"))
    assert len(hom_space(reducible, reducible)) > 1


def test_dual_tensor_preserve_validity(reg):
    rng = random.Random(31)
    entries = reg.entries
    for _ in range(6):
        a, b = rng.choice(entries), rng.choice(entries)
        assert a.dual().validate().ok
        assert a.tensor(b).validate().ok


def test_multiplicity_accounting(reg):
    rng = random.Random(77)
    for _ in range(4):
        a, b = rng.choice(reg.entries), rng.choice(reg.entries)
        r = a.tensor(b)
        result = decompose(r, reg)
        total = sum(m * reg.get(lbl).dim for lbl, m in result.multiplicities.items())
        if result.residual is not None:
            total += result.residual.dim
        assert total == r.dim


def test_frobenius_reciprocity(reg):
    for a in reg.entries:
        for b in reg.entries:
            for c in reg.entries:
                lhs = len(hom_space(a.tensor(b), c))
                rhs = len(hom_space(a, b.dual().tensor(c)))
                assert lhs == rhs, (a.label, b.label, c.label)


def test_bundled_registry_passes_the_certifying_constructor(reg):
    # builtin_registry stores its types without RepRegistry.__init__'s checks,
    # so this is where they are certified: valid, irreducible, pairwise
    # non-isomorphic and uniquely labelled
    certified = RepRegistry(list(builtin_registry()))
    assert certified.to_json() == reg.to_json()
    assert [e.label for e in certified] == ["triv", "rho3", "rho_zeta", "rho_zeta2"]


def test_bundled_registry_is_built_without_validation_or_hom_solves(monkeypatch):
    # loading it costs no validation and no hom solve; the test above certifies it
    from vvmf import reps

    def refused(*args):
        raise AssertionError("the bundled registry certified itself on load")

    monkeypatch.setattr(reps, "hom_space", refused)
    monkeypatch.setattr(Rep, "validate", refused)
    reg = builtin_registry()
    assert [e.label for e in reg] == ["triv", "rho3", "rho_zeta", "rho_zeta2"]
    assert reg.get("rho3").content == rho3().content and "rho_zeta2" in reg


def test_registry_rejects_reducible_or_duplicate_entries(reg):
    with pytest.raises(ValueError):
        RepRegistry([trivial_rep(), rho3().tensor(rho3())])
    with pytest.raises(ValueError):
        RepRegistry([rho_zeta(), rho_zeta()])


def test_sl2_word_reconstructs_matrices():
    rng = random.Random(8)
    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))

    def mul(p, q):
        return (
            (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
        )

    def matpow(m, e):
        out = ((1, 0), (0, 1))
        if e < 0:
            m = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
            e = -e
        for _ in range(e):
            out = mul(out, m)
        return out

    for _ in range(25):
        g = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                g = mul(g, S)
            else:
                g = mul(g, matpow(T, rng.randint(-3, 3)))
        acc = ((1, 0), (0, 1))
        for kind, e in sl2_word(g[0][0], g[0][1], g[1][0], g[1][1]):
            acc = mul(acc, matpow(S if kind == "S" else T, e))
        assert acc == g


def test_evaluate_agrees_with_generator_products(reg):
    rng = random.Random(12)
    r3 = reg.get("rho3")
    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))

    def mul(p, q):
        return (
            (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
        )

    for _ in range(10):
        g = ((1, 0), (0, 1))
        img = Matrix.identity(3)
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                g = mul(g, S)
                img = img * r3.S
            else:
                g = mul(g, T)
                img = img * r3.T
        assert r3.evaluate(g) == img


def test_word_cache_is_bounded():
    from vvmf import reps

    r = rho3()
    cache = reps._word_image
    bound = cache.cache_info().maxsize

    def word(k):  # T^k S, distinct for every k
        return ((k, -1), (1, 0))

    def image(k):
        return _pow(r.T, k % r.level, Matrix.identity(r.dim)) * r.S

    cache.cache_clear()
    for k in range(bound + 10):
        assert r.evaluate(word(k)) == image(k)
    assert cache.cache_info()[1:] == (bound + 10, bound, bound)  # misses, maxsize, size
    # words 10 .. bound + 9 are held; using the oldest again keeps it, and
    # the evicted word 0 comes back correct, pushing out word 11 instead
    assert r.evaluate(word(10)) == image(10)
    assert r.evaluate(word(0)) == image(0)
    assert cache.cache_info()[:2] == (1, bound + 11)  # hits, misses
    assert cache.cache_info().currsize == bound
    # the table is shared by every type with the same key
    assert Rep("renamed", r.level, r.S, r.T).evaluate(word(10)) == image(10)
    assert cache.cache_info()[:2] == (2, bound + 11)
    assert r.evaluate(word(11)) == image(11)
    assert cache.cache_info()[:2] == (2, bound + 12)


def test_json_round_trip(reg):
    import json

    for entry in reg.entries:
        back = Rep.from_json(json.loads(json.dumps(entry.to_json())))
        assert back.S == entry.S and back.T == entry.T and back.level == entry.level


@pytest.fixture
def fresh_hom_cache():
    """Empty hom_space memos.  The returned per-orbit table's
    `cache_info().misses` counts the solves behind them, and its hits the
    answers taken from the solve of a conjugate pair."""
    from vvmf import reps

    reps._hom_pair.cache_clear()
    reps._hom_basis.cache_clear()
    return reps._hom_basis


def test_hom_space_memo_is_keyed_by_content(reg, fresh_hom_cache):
    from vvmf import reps

    pairs = reps._hom_pair
    r3 = reg.get("rho3")
    first = hom_space(r3, r3)
    assert pairs.cache_info()[:2] == (0, 1)  # hits, misses
    # a relabelled copy has the same content and hits the memo
    renamed = Rep("renamed", r3.level, r3.S, r3.T)
    again = hom_space(renamed, renamed)
    assert pairs.cache_info()[:2] == (1, 1)
    assert again == first and again is not first
    # the caller owns the list it gets
    again.clear()
    assert len(hom_space(r3, r3)) == 1
    assert fresh_hom_cache.cache_info()[:2] == (0, 1)

    # a type labelled rho_zeta whose T is zeta3^2 has other content and is
    # not isomorphic to the registry's rho_zeta; but sigma_2: zeta3 -> zeta3^2
    # swaps the two, so (impostor, rz) and (rz, impostor) share one solve, and
    # (impostor, impostor) is the conjugate of (rz, rz)
    rz = reg.get("rho_zeta")
    assert len(hom_space(rz, rz)) == 1
    assert fresh_hom_cache.cache_info()[:2] == (0, 2)
    impostor = Rep("rho_zeta", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3, 2)]))
    assert hom_space(impostor, rz) == []
    assert hom_space(rz, impostor) == []
    assert fresh_hom_cache.cache_info()[:2] == (1, 3)
    assert len(hom_space(impostor, impostor)) == 1
    assert fresh_hom_cache.cache_info()[:2] == (2, 3)
    assert pairs.cache_info()[:2] == (2, 5)


def test_hom_space_memo_keeps_the_conductor_of_the_basis(reg, fresh_hom_cache):
    r3 = reg.get("rho3")
    # the same type with T written at conductor 3: equal content, but the
    # basis is written at the conductor of the matrices
    wide = Rep("rho3", 3, r3.S, Matrix(3, 3, [x.lift(3) for x in r3.T.entries]))
    assert wide.content == r3.content
    assert hom_space(r3, r3)[0].n == 1
    assert hom_space(wide, wide)[0].n == 3
    assert fresh_hom_cache.cache_info().misses == 2


def test_hom_space_memo_is_bounded(fresh_hom_cache):
    from vvmf import reps

    pairs, bound = reps._hom_pair, reps._hom_pair.cache_info().maxsize
    assert fresh_hom_cache.cache_info().maxsize == bound
    # characters of distinct levels m, T = zeta_m: each pair (t, t) is alone
    # in its Galois orbit, since sigma_k keeps the conductor of T
    one = Matrix.identity(1)
    types = [Rep(f"chi{m}", m, one, Matrix(1, 1, [CycNum.zeta(m)])) for m in range(1, bound + 11)]
    for t in types:
        assert len(hom_space(t, t)) == 1
    assert pairs.cache_info().currsize == fresh_hom_cache.cache_info().currsize == bound
    # the oldest held pair stays after a hit; the evicted first one is
    # solved again and pushes out the next oldest pair, and the oldest
    # solve, which the hit did not reach
    hom_space(types[10], types[10])
    hom_space(types[0], types[0])
    assert pairs.cache_info().misses == fresh_hom_cache.cache_info().misses == len(types) + 1
    assert pairs.cache_info().currsize == bound
    hom_space(types[10], types[10])
    assert pairs.cache_info().misses == len(types) + 1
    # the pair of types[11] was pushed out, but its solve is still held
    hom_space(types[11], types[11])
    assert pairs.cache_info().misses == len(types) + 2
    assert fresh_hom_cache.cache_info()[:2] == (1, len(types) + 1)


def direct_sum(ms: list) -> Matrix:
    """The block-diagonal matrix of ms, in order."""
    rows, at = [], 0
    for m in ms:
        rows += [{at + j: x for j, x in row.items()} for row in m.nonzeros]
        at += m.cols
    return Matrix.from_nonzeros(at, rows)


def characters(types: list) -> tuple:
    """(|G|, per type its character as a list over G), G the finite image group
    of S and T acting on the direct sum of the types, walked breadth first by
    right multiplication by S and T; each character is the trace of its block."""
    s, t = (direct_sum([getattr(r, g) for r in types]) for g in "ST")
    group = frontier = [Matrix.identity(s.rows)]
    seen = set(group)
    while frontier:
        fresh = []
        for g in frontier:
            for x in (g * s, g * t):
                if x not in seen:
                    seen.add(x)
                    fresh.append(x)
        group, frontier = group + fresh, fresh
    starts = [sum(r.dim for r in types[:i]) for i in range(len(types))]
    chars = [[sum((g.nonzeros[i].get(i, 0) for i in range(at, at + r.dim)), CycNum.zero())
              for g in group] for at, r in zip(starts, types)]
    return len(group), chars


def inner(chi: list, psi: list) -> CycNum:
    """Schur's <chi, psi> = (1 / |G|) sum chi(g) conj(psi(g))."""
    return sum((x * y.conjugate() for x, y in zip(chi, psi)), CycNum.zero()) / len(chi)


def test_registry_characters_are_orthonormal(reg):
    # the certificate RepRegistry.__init__ takes from 10 hom solves, by traces alone
    order, chars = characters(reg.entries)
    assert order == 12
    gram = [[inner(chi, psi) for psi in chars] for chi in chars]
    assert gram == [[int(i == j) for j in range(len(chars))] for i in range(len(chars))]
    # Burnside: 1 + 9 + 1 + 1 = 12, so the four are every irreducible type of the image group
    assert sum(e.dim ** 2 for e in reg.entries) == order


@pytest.mark.parametrize("expr, mults, order", [
    ("T3(rho3)", [1, 1, 0, 0], 324),
    ("T4(rho3)", [0, 2, 0, 0], 288),
    ("T3(triv)*T3(triv)", [2, 4, 1, 1], 12),
    ("T2(rho3)*rho3", [1, 2, 1, 1], 72),
])
def test_character_multiplicities_match_hom_space(reg, expr, mults, order):
    # the homspace-induced sources: dim Hom(R, sigma) = <chi_R, chi_sigma>
    # over the image group, with no elimination
    from vvmf.cli import parse_rep_expr

    r = parse_rep_expr(expr, reg)
    got_order, (chi, *targets) = characters([r, *reg.entries])
    assert got_order == order
    assert [inner(chi, psi) for psi in targets] == mults
    assert [len(hom_space(r, sigma)) for sigma in reg.entries] == mults
