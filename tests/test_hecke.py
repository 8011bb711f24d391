import itertools
import math
import random
from fractions import Fraction

import pytest

from vvmf import hecke
from vvmf.ahol import AholForm, _images, apply_intertwiner, lower_op, raise_op
from vvmf.cli import _exhaustive_genus2_count
from vvmf.exactnum import CycNum
from vvmf.forms import delta_form, eisenstein, vv_eisenstein
from vvmf.hecke import (
    DeltaCoset,
    cocycle,
    delta_cosets,
    hecke_form,
    hecke_rep,
    pairing_tm,
    pi_M,
    reduce_to_coset,
    unit_embedding,
)
from vvmf.linalg import Matrix
from vvmf.qexp import QExp
from vvmf.reps import Rep, builtin_registry, hom_space, is_intertwiner, trivial_rep

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))


def mul2(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def inv2(p):
    return ((p[1][1], -p[0][1]), (-p[1][0], p[0][0]))


def test_cosets_of_index_three_match_contract_order():
    mats = [c.mat for c in delta_cosets(1, 3)]
    assert mats == [
        ((3, 0), (0, 1)),
        ((1, 0), (0, 3)),
        ((1, 1), (0, 3)),
        ((1, 2), (0, 3)),
    ]


def test_single_coset_at_index_one():
    assert [c.mat for c in delta_cosets(1, 1)] == [((1, 0), (0, 1))]


def test_counts_match_divisor_sums():
    for M in range(1, 13):
        sigma1 = sum(d for d in range(1, M + 1) if M % d == 0)
        assert len(delta_cosets(1, M)) == sigma1


@pytest.mark.parametrize("p", [2, 3])
def test_genus_two_counts(p):
    got = len(delta_cosets(2, p))
    assert got == (1 + p) * (1 + p * p)
    assert got == _exhaustive_genus2_count(p)


def test_similitude_check_is_the_explicit_product():
    """_is_similitude against t(m) J m = M J with J written out, on the cosets
    of Delta_6 at genus 1, Delta_2 at genus 2 and Delta_2 at genus 3, and on
    each with one entry raised by 1."""
    cases = [(1, 6, [(0, 1), (1, 0), (1, 1)]), (2, 2, [(0, 2), (1, 0), (2, 3), (3, 3)]),
             (3, 2, [(0, 3), (2, 1), (4, 5), (5, 5)])]
    for genus, M, raised in cases:
        n = 2 * genus
        J = [[(i == k + genus) - (k == i + genus) for k in range(n)] for i in range(n)]

        def explicit(m):
            return all(sum(m[k][i] * J[k][l] * m[l][j] for k in range(n) for l in range(n))
                       == M * J[i][j] for i in range(n) for j in range(n))

        seen = set()
        for c in delta_cosets(genus, M):
            for i, j in [(None, None)] + raised:
                m = [list(row) for row in c.mat]
                if i is not None:
                    m[i][j] += 1
                assert hecke._is_similitude(m, genus, M) == explicit(m), (genus, m)
                seen.add(explicit(m))
        assert seen == {True, False}, genus


def test_general_enumerator_agrees_with_fast_path():
    """At genus 1 there is no condition between rows of b, so the list is
    the old genus-1 fast path: d over the divisors of M, a = M / d and
    0 <= b < d."""
    for M in range(1, 25):
        want = [((M // d, b), (0, d)) for d in range(1, M + 1) if M % d == 0 for b in range(d)]
        assert [c.mat for c in delta_cosets(1, M)] == want


def box_filter_cosets(genus, M):
    """The whole residue box of b for each d, filtered by the similitude
    identity: the enumeration that building b row by row replaces."""
    from vvmf import hecke

    g = genus
    divisors = [k for k in range(1, M + 1) if M % k == 0]
    out = []
    for diag in itertools.product(divisors, repeat=g):
        off_ranges = [range(diag[j]) for i in range(g) for j in range(i + 1, g)]
        for offs in itertools.product(*off_ranges):
            it = iter(offs)
            d = [[next(it) if j > i else diag[i] * (j == i) for j in range(g)] for i in range(g)]
            a = hecke._scaled_inverse_transpose(d, M)
            if a is None:
                continue
            for bent in itertools.product(*[range(diag[j]) for _ in range(g) for j in range(g)]):
                b = [bent[i * g : (i + 1) * g] for i in range(g)]
                mat = hecke._assemble(a, b, d, g)
                if hecke._is_similitude(mat, g, M):
                    out.append(mat)
    return out


@pytest.mark.parametrize("genus, indices", [(2, range(1, 9)), (3, range(1, 3))])
def test_row_by_row_matches_box_filter(genus, indices):
    for M in indices:
        assert [c.mat for c in delta_cosets(genus, M)] == box_filter_cosets(genus, M), M


@pytest.mark.parametrize("genus, p, count", [(1, 5, 6), (2, 5, 156), (3, 2, 135), (3, 3, 1120), (4, 2, 2295)])
def test_prime_index_counts(genus, p, count):
    """For prime p there are prod_{i=1..g} (1 + p^i) cosets."""
    assert math.prod(1 + p**i for i in range(1, genus + 1)) == count
    assert len(delta_cosets(genus, p)) == count


def upper_inverse(d):
    """Inverse of an invertible upper-triangular matrix: back-substitution
    over Fraction, one column of the identity at a time."""
    g = len(d)
    inv = [[Fraction(0)] * g for _ in range(g)]
    for j in range(g):
        for i in reversed(range(g)):
            s = int(i == j) - sum(d[i][k] * inv[k][j] for k in range(i + 1, g))
            inv[i][j] = s / Fraction(d[i][i])
    return inv


@pytest.mark.parametrize("genus, indices", [(2, range(1, 13)), (3, range(1, 5))])
def test_scaled_inverse_transpose_matches_back_substitution(monkeypatch, genus, indices):
    """On every upper-triangular d the enumerator visits, a with
    t(a) d = M I is M times the transposed inverse of d when that is
    integral, and None otherwise."""
    from vvmf import hecke

    real, seen = hecke._scaled_inverse_transpose, []
    # the recorder refuses every d, so no row of b is built
    monkeypatch.setattr(hecke, "_scaled_inverse_transpose", lambda d, M: seen.append((d, M)))
    for M in indices:
        assert hecke.delta_cosets(genus, M) == []
    outcomes = set()
    for d, M in seen:
        inv = upper_inverse(d)
        want = [[M * inv[j][i] for j in range(genus)] for i in range(genus)]
        if any(x.denominator != 1 for row in want for x in row):
            want = None
        assert real(d, M) == want, (d, M)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_coset_constructor_validates():
    with pytest.raises(ValueError):
        DeltaCoset(1, ((1, 0), (1, 1)), 1)  # lower-left nonzero
    with pytest.raises(ValueError):
        DeltaCoset(1, ((1, 3), (0, 3)), 3)  # b out of range
    with pytest.raises(ValueError):
        delta_cosets(1, 0)


def test_genus_one_listing_is_refused_by_its_exact_count():
    """A genus-1 listing holds exactly sigma(M) cosets, so it is refused when
    that passes the limit though M does not: sigma(50000) = 121,086 and
    sigma(100000) = 246,078, while sigma(30000) = 96,844 still lists."""
    for M in (50000, 100000):
        message = f"^Delta_{M} at genus 1 has over 100000 cosets; refused$"
        with pytest.raises(ValueError, match=message):
            delta_cosets(1, M)
    assert len(delta_cosets(1, 30000)) == 96844


def test_reduce_examples():
    rep, gamma = reduce_to_coset(((3, 0), (0, 1)))
    assert rep.mat == ((3, 0), (0, 1)) and gamma == ((1, 0), (0, 1))

    rep, gamma = reduce_to_coset(((0, -1), (3, 0)))
    assert rep.mat == ((3, 0), (0, 1))
    assert gamma == ((0, -1), (1, 0))
    assert mul2(gamma, rep.mat) == ((0, -1), (3, 0))

    rep, gamma = reduce_to_coset(((1, 5), (0, 3)))
    assert rep.mat == ((1, 2), (0, 3))
    assert gamma == ((1, 1), (0, 1))
    assert mul2(gamma, rep.mat) == ((1, 5), (0, 3))


def test_reduce_random_products():
    rng = random.Random(44)
    for _ in range(30):
        M = rng.choice([2, 3, 4])
        rep0 = rng.choice(delta_cosets(1, M))
        g = ((1, 0), (0, 1))
        for _ in range(rng.randint(0, 6)):
            g = mul2(g, S if rng.random() < 0.5 else T)
        m = mul2(g, rep0.mat)
        rep, gamma = reduce_to_coset(m)
        assert rep == rep0
        assert mul2(gamma, rep.mat) == m
        assert gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0] == 1


def test_reduce_to_coset_on_random_integer_matrices():
    """On 2,000 integer matrices of positive determinant, entries in [-30, 30]
    (every tenth with a = 0, every tenth with c = 0): gamma has determinant 1,
    gamma * rep = m, rep is (a b; 0 d) with a > 0 and 0 <= b < d, and for
    det <= 40 rep is one of delta_cosets(1, det)."""
    rng, cosets = random.Random("reduce"), {}
    for i in range(2000):
        while True:
            a, b, c, d = (rng.randint(-30, 30) for _ in range(4))
            a, c = (0 if i % 10 == 0 else a), (0 if i % 10 == 1 else c)
            if (det := a * d - b * c) > 0:
                break
        m = ((a, b), (c, d))
        rep, gamma = reduce_to_coset(m)
        (ra, rb), (rc, rd) = rep.mat
        assert gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0] == 1, m
        assert mul2(gamma, rep.mat) == m and rep.similitude == det, m
        assert rc == 0 and ra > 0 and 0 <= rb < rd, m
        if det <= 40:
            if det not in cosets:
                cosets[det] = delta_cosets(1, det)
            assert rep in cosets[det], m


def test_cocycle_examples():
    m = delta_cosets(1, 3)[1]  # (1 0; 0 3)
    ident = ((1, 0), (0, 1))
    corr, target = cocycle(m, ident)
    assert corr == ident and target == m

    corr, target = cocycle(m, T)
    assert corr == ident
    assert target.mat == ((1, 1), (0, 3))


def test_cocycle_chain_rule_on_random_triples():
    rng = random.Random(99)
    trials = 0
    while trials < 50:
        M = rng.choice([2, 3, 4])
        m = rng.choice(delta_cosets(1, M))

        def rand_gamma():
            g = ((1, 0), (0, 1))
            for _ in range(rng.randint(1, 5)):
                g = mul2(g, S if rng.random() < 0.5 else T)
            return g

        g1, g2 = rand_gamma(), rand_gamma()
        lhs, _ = cocycle(m, mul2(g1, g2))
        i1, m_g1 = cocycle(m, g1)
        i2, _ = cocycle(m_g1, g2)
        assert lhs == mul2(i1, i2)
        trials += 1


def test_hecke_rep_index_one_keeps_matrices(reg):
    for entry in reg.entries:
        hr = hecke_rep(1, entry)
        assert hr.rep.S == entry.S and hr.rep.T == entry.T


def test_hecke_cache_is_keyed_by_content():
    # two registries hold distinct but equal rho_zeta objects: one entry
    a, b = builtin_registry().get("rho_zeta"), builtin_registry().get("rho_zeta")
    assert a is not b
    hr = hecke_rep(2, a)
    assert hecke_rep(2, b) is hr
    # same label, different T: a different entry
    impostor = Rep("rho_zeta", 3, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3, 2)]))
    other = hecke_rep(2, impostor)
    assert other is not hr and other.rep.T != hr.rep.T


def test_hecke_cache_is_bounded():
    from vvmf import hecke

    cache = hecke._hecke_rep
    cache.cache_clear()
    bound = cache.cache_info().maxsize
    triv = builtin_registry().get("triv")
    # the label is in the key: every relabelled copy is built afresh
    for i in range(bound + 5):
        hecke_rep(1, Rep(f"triv{i}", 1, triv.S, triv.T))
    assert cache.cache_info()[1:] == (bound + 5, bound, bound)  # misses, maxsize, size


def test_hecke_rep_keeps_the_conductor_of_its_source():
    """An induced type built from a type written at conductor 12 is not
    handed back for the equal type written at its own conductor, so the hom
    space of the latter has the bytes it has in a fresh process."""
    import json
    import os
    import subprocess
    import sys

    import vvmf
    from vvmf.reps import hom_space, rho_zeta, rho_zeta2

    def basis_json(hr):
        return json.dumps([phi.to_json() for phi in hom_space(hr.rep, rho_zeta2())])

    rz = rho_zeta()
    wide = Rep(rz.label, rz.level, *(Matrix(1, 1, [m[0, 0].lift(12)]) for m in (rz.S, rz.T)))
    assert hecke_rep(2, wide).rep.S.n == 12
    hr = hecke_rep(2, rz)
    assert hr.rep.S.n == 3
    fresh = (
        "import json; from vvmf.hecke import hecke_rep; from vvmf.reps import *; "
        "print(json.dumps([phi.to_json() for phi in "
        "hom_space(hecke_rep(2, rho_zeta()).rep, rho_zeta2())]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vvmf.__file__)))
    out = subprocess.run([sys.executable, "-c", fresh], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert basis_json(hr) == out.stdout.strip() != "[]"


def test_hecke_rep_of_trivial_type(reg):
    hr = hecke_rep(3, reg.get("triv"))
    assert hr.rep.dim == 4
    assert hr.rep.validate().ok


def test_hecke_rep_relations_for_small_indices(reg):
    """The full-matrix relations of Rep.validate, the oracle of the integer
    check on the coset action: every registry type at M <= 6, rho3 at the
    indices of the CI digest of T_M rho3, and nested and tensor bases."""
    rho3 = reg.get("rho3")
    cases = [(M, entry) for M in range(1, 7) for entry in reg.entries]
    cases += [(M, rho3) for M in (7, 8, 9, 12, 16)]
    cases += [(2, hecke_rep(2, rho3).rep), (3, hecke_rep(2, reg.get("triv")).rep),
              (2, rho3.tensor(reg.get("rho_zeta")))]
    for M, r in cases:
        assert hecke_rep(M, r).rep.validate().ok, (M, r.label)


def test_induced_types_are_built_without_validate(monkeypatch, reg):
    """The relations of an induced type are checked on its coset action, so
    building one, nested or not, multiplies out none of its matrices."""
    def refused(*args):
        raise AssertionError("an induced type was validated by multiplying out its matrices")

    monkeypatch.setattr(Rep, "validate", refused)
    for cache in (hecke._hecke_rep, hecke._coset_action):
        cache.cache_clear()
    for M in range(1, 7):
        for entry in reg.entries:
            hecke_rep(M, entry)
    assert hecke_rep(2, hecke_rep(3, reg.get("rho3")).rep).rep.dim == 36


def _corrupted(kind: str, M: int):
    """_hermite with one defect at the first coset c of Delta_M, on the steps
    m = c g^-1 from it and the steps into it: the T target moved to the next
    coset, the S correction U = [I_c(S^-1)]^-1 times T or times -I, or every
    correction out of c or into it conjugated by S."""
    real, first = hecke._hermite, [(c.a, c.b, c.d) for c in delta_cosets(1, M)]
    source = delta_cosets(1, M)[0].mat

    def fake(m):
        target, u = real(m)
        if mul2(m, T) == source and kind == "T target moved":
            target = first[(first.index(target) + 1) % len(first)]
        if mul2(m, S) == source and kind == "S correction times T":
            u = mul2(u, T)
        if mul2(m, S) == source and kind == "S correction times -I":
            u = tuple(tuple(-x for x in row) for row in u)
        if kind == "conjugated by S":  # U becomes U S^-1 out of c, S U into c
            u = mul2(u, inv2(S)) if source in (mul2(m, S), mul2(m, T)) else u
            u = mul2(S, u) if target == first[0] else u
        return target, u

    return fake


@pytest.mark.parametrize("kind, relation", [
    ("T target moved", "(ST)^3 = S^2"),
    ("S correction times T", "S^2 = I"),
    ("S correction times -I", "(ST)^3 = S^2"),
    ("conjugated by S", "a T-cycle's product is (1 j; 0 1)"),
])
@pytest.mark.parametrize("M", [2, 3, 4, 6])
def test_a_corrupted_coset_action_fails_the_integer_check(monkeypatch, reg, kind, relation, M):
    """Each defect breaks a relation of the corrections, so building any
    type on the action raises.  The integer check is stricter than the full
    matrices: rho(-I) = I hides a sign flip from them, and a conjugation by
    S at one coset gives an isomorphic type that still passes them."""
    caches = (hecke._hecke_rep, hecke._coset_action)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(hecke, "_hermite", _corrupted(kind, M))
    try:
        with pytest.raises(AssertionError) as err:
            hecke_rep(M, reg.get("triv"))
        assert str(err.value).startswith(f"constructed Hecke type fails relations: index {M}, coset ")
        assert str(err.value).endswith(f": {relation}")
    finally:
        for cache in caches:
            cache.cache_clear()


def test_t_cycles_of_the_coset_action_follow_the_divisors_of_M():
    """T takes b to b - a mod d: for a | M, d = M/a and g = gcd(a, d), the
    walk finds g cycles of length d/g, each with product (1 a/g; 0 1)."""
    for M in range(1, 17):
        cosets, _, _, cycles = hecke._coset_action(M)
        got = sorted((cosets[m].a, length, j) for m, length, j in cycles)
        want = sorted((a, M // a // g, a // g) for a in range(1, M + 1) if M % a == 0
                      for g in [math.gcd(a, M // a)] for _ in range(g))
        assert got == want, M


@pytest.mark.parametrize("label", ["triv", "rho_zeta", "rho3"])
@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (2, 5)])
def test_nested_induced_types_are_isomorphic_to_the_product_index(reg, label, m, n):
    """T_m(T_n rho) and T_mn rho for coprime m, n: semisimple types with
    dim Hom(A, B) = dim End A = dim End B are isomorphic.  The nested type is
    built on an induced base, so this sees _block_matrix and Rep.evaluate
    apart from the integer check of the coset action."""
    want = {"triv": {(2, 3): 4, (3, 2): 4, (2, 5): 4}, "rho_zeta": {(2, 3): 2, (3, 2): 2, (2, 5): 4},
            "rho3": {(2, 3): 8, (3, 2): 8, (2, 5): 4}}[label][m, n]
    r = reg.get(label)
    nested, direct = hecke_rep(m, hecke_rep(n, r).rep).rep, hecke_rep(m * n, r).rep
    assert len(hom_space(nested, direct)) == len(hom_space(nested, nested)) == len(hom_space(direct, direct)) == want


def test_nested_induced_type_isomorphism_control(reg):
    """The control: T2(T3(rho_zeta)) and T6(rho_zeta2) each have End of dim 2
    but no nonzero map between them."""
    nested = hecke_rep(2, hecke_rep(3, reg.get("rho_zeta")).rep).rep
    other = hecke_rep(6, reg.get("rho_zeta2")).rep
    assert (len(hom_space(nested, other)), len(hom_space(nested, nested)), len(hom_space(other, other))) == (0, 2, 2)


def test_hecke_rep_level_divides_index_times_level(reg):
    # each cycle's order (d/g) o / gcd(o, a/g) divides d o, so the level divides M * level
    for M in range(1, 9):
        for entry in reg.entries:
            level = hecke_rep(M, entry).rep.level
            assert (M * entry.level) % level == 0, (M, entry.label, level)


def _full_order(m: Matrix, cap: int) -> int:
    """Order of m by repeated multiplication, at most cap."""
    acc = m
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * m
    raise ArithmeticError(f"matrix order exceeds cap {cap}")


def _level_cases(reg) -> list:
    """(M, rho) for the registry types and three types declared at a multiple of
    their T order at M = 1..20, and four induced types at M = 1..8: 172 pairs."""
    declared = [Rep(label, level, reg.get(label).S, reg.get(label).T)
                for label, level in (("rho_zeta", 6), ("triv", 4), ("rho3", 6))]
    t2 = hecke_rep(2, reg.get("rho3")).rep
    induced = [t2, hecke_rep(3, reg.get("rho_zeta")).rep, hecke_rep(2, t2).rep,
               hecke_rep(4, reg.get("triv")).rep]
    return ([(M, r) for r in reg.entries + declared for M in range(1, 21)]
            + [(M, r) for r in induced for M in range(1, 9)])


def test_hecke_rep_level_is_the_full_matrix_order(reg):
    """The level, the lcm over the divisors of M of each coset cycle's order,
    equals the order of the whole induced T found by multiplying it out."""
    cases = _level_cases(reg)
    assert len(cases) == 172
    for M, r in cases:
        hr = hecke_rep(M, r)
        assert hr.rep.level == _full_order(hr.rep.T, cap=M * r.level), (M, r.label, r.level)


def test_hecke_rep_level_is_the_divisor_formula(reg):
    """The oracle of the level read off the T-cycles: T takes b to b - a mod d,
    d = M/a, g = gcd(a, d), in cycles of length d/g whose corrections multiply
    to T^(a/g), so the level is the lcm over a | M of (d/g) o / gcd(o, a/g), o
    the order of rho(T)."""
    cases = _level_cases(reg)
    assert len(cases) == 172
    for M, r in cases:
        o = _full_order(r.T, cap=r.level)
        want = math.lcm(*((M // a // g) * (o // math.gcd(o, a // g))
                          for a in range(1, M + 1) if M % a == 0 for g in [math.gcd(a, M // a)]))
        assert hecke_rep(M, r).rep.level == want, (M, r.label, r.level)


def test_hecke_rep_refuses_a_level_that_t_does_not_divide():
    """A T of order 3 declared at level 2 has no order dividing its level:
    every index refuses it with one ArithmeticError."""
    bad = Rep("bad", 2, Matrix.identity(1), Matrix(1, 1, [CycNum.zeta(3)]))
    for M in range(1, 5):
        with pytest.raises(ArithmeticError):
            hecke_rep(M, bad)


def test_induced_types_keep_their_bytes(reg):
    """One sha256 over the types T_M rho and their coset matrices, M = 1..8,
    rho the registry types, T2(rho3) and T3(triv); recorded at 0a9edd4,
    where each type's level was the order of its whole induced T."""
    import hashlib
    import json

    sources = reg.entries + [hecke_rep(2, reg.get("rho3")).rep, hecke_rep(3, reg.get("triv")).rep]
    rows = []
    for M in range(1, 9):
        for r in sources:
            hr = hecke_rep(M, r)
            rows.append([M, r.label, hr.rep.to_json(), [c.mat for c in hr.cosets]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "eee76fa349744bc8f0274e265f00e9e426901bde9675c7bdf1ae7c552c7a6447"


def test_coset_action_is_listed_once_per_index(reg):
    """Every type of index M evaluates rho on the same corrections."""
    from vvmf import hecke

    for cache in (hecke._hecke_rep, hecke._coset_action):
        cache.cache_clear()
    a = hecke_rep(3, reg.get("rho3"))
    assert hecke._coset_action.cache_info() == (0, 1, 16, 1)  # hits, misses, maxsize, size
    b = hecke_rep(3, reg.get("triv"))
    assert hecke._coset_action.cache_info() == (1, 1, 16, 1)
    assert a.cosets is b.cosets and len(a.cosets) == 4


def test_induced_types_reduce_each_step_without_a_checked_coset(monkeypatch, reg):
    """Building T_M rho makes the sigma(M) cosets of delta_cosets and no other:
    each step of the coset walk is one Hermite reduction looked up in that
    listing, not a cocycle call that builds a DeltaCoset per step."""
    def refused(*args):
        raise AssertionError("the coset walk called cocycle")

    made, init = [], DeltaCoset.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(hecke, "cocycle", refused)
    monkeypatch.setattr(DeltaCoset, "__init__", counted)
    for cache in (hecke._hecke_rep, hecke._coset_action):
        cache.cache_clear()
    try:
        for M in range(1, 9):
            made.clear()
            hecke_rep(M, reg.get("rho3"))
            assert len(made) == sum(a for a in range(1, M + 1) if M % a == 0), M
    finally:
        for cache in (hecke._hecke_rep, hecke._coset_action):
            cache.cache_clear()


def test_generator_powers_are_keyed_by_conductor():
    """The power table holds rho(S)^e and rho(T)^e per Rep.key: the type
    written at conductor 12 and the equal type at its own conductor each
    fill their own entries, and neither is handed the other's."""
    from vvmf import hecke, reps
    from vvmf.reps import rho_zeta

    rz = rho_zeta()
    wide = Rep(rz.label, rz.level, *(Matrix(1, 1, [m[0, 0].lift(12)]) for m in (rz.S, rz.T)))
    for cache in (hecke._hecke_rep, reps._word_image, reps._power):
        cache.cache_clear()
    assert hecke_rep(2, wide).rep.T.n == 12
    # the six corrections of index 2 take T^1 and T^2, S^1 and S^2
    assert reps._power.cache_info() == (4, 4, 256, 4)  # hits, misses, maxsize, size
    assert hecke_rep(2, rz).rep.T.n == 3
    assert reps._power.cache_info() == (8, 8, 256, 8)


def test_reference_projection_intertwines(reg):
    third = Fraction(1, 3)
    phi = Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )
    hr = hecke_rep(3, reg.get("triv"))
    assert is_intertwiner(phi, hr.rep, reg.get("rho3"))


def test_unit_embedding(reg):
    assert unit_embedding(1).entries == (CycNum.one(),)
    v = unit_embedding(3).transpose()  # column
    hr = hecke_rep(3, reg.get("triv"))
    assert hr.rep.S * v == v
    assert hr.rep.T * v == v
    # the row itself is an intertwiner to the trivial type
    assert is_intertwiner(unit_embedding(3), hr.rep, reg.get("triv"))


def test_pi_examples(reg):
    triv = reg.get("triv")
    assert pi_M(triv, triv, 1) == Matrix.identity(1)
    r3 = reg.get("rho3")
    p = pi_M(r3, triv, 2)
    ncos = len(delta_cosets(1, 2))
    assert p.shape == (ncos * 3, ncos * 3 * ncos)
    assert p.rank() == ncos * 3

    m = pi_M(triv, triv, 2)
    a = hecke_rep(2, triv).rep
    ab = a.tensor(a)
    out = hecke_rep(2, triv.tensor(triv)).rep
    assert m * ab.S == out.S * m
    assert m * ab.T == out.T * m


def test_hecke_form_index_one_is_identity(reg):
    f = eisenstein(8, 5)
    out = hecke_form(1, f)
    assert out.agrees_with(f)


def test_hecke_form_on_weight_twelve_matches_listing(reg):
    e12 = eisenstein(12, 9)
    out = hecke_form(3, e12)
    comp = out.components
    assert len(comp) == 4
    base = e12.components[0]
    # (3 0; 0 1): exponents tripled, coefficients times 3^6
    for n in range(3):
        assert comp[0].coeff(3 * n) == 3**6 * base.coeff(n)
    # (1 b; 0 3): coefficient 3^-6 zeta_3^(n b) a_n at q^(n/3)
    z3 = CycNum.zeta(3)
    for b in range(3):
        for n in range(9):
            expect = Fraction(1, 3**6) * z3 ** ((n * b) % 3) * base.coeff(n)
            assert comp[1 + b].coeff(Fraction(n, 3)) == expect, (b, n)
    consts = [q.coeff(0) for q in comp]
    assert consts[0] == 3**6
    assert all(c == CycNum.from_rational(Fraction(1, 3**6)) for c in consts[1:])


def classical_hecke_image(coeffs, p, k):
    """a_n -> a_{pn} + p^(k-1) a_{n/p}, the textbook operator."""
    out = []
    for n in range(len(coeffs) // p):
        val = coeffs[p * n]
        if n % p == 0:
            val += p ** (k - 1) * coeffs[n // p]
        out.append(val)
    return out


@pytest.mark.parametrize("p,tau", [(2, -24), (3, 252)])
def test_unit_contraction_recovers_classical_operator(p, tau, reg):
    prec = 6 * p
    delta = delta_form(prec)
    base = [delta.components[0].coeff(n).rational_value() for n in range(prec)]
    oracle = classical_hecke_image(base, p, 12)
    assert oracle[:6] == [Fraction(tau) * b for b in base[:6]]

    td = hecke_form(p, delta)
    contracted = apply_intertwiner(unit_embedding(p), td, reg.get("triv"))
    got = contracted.components[0]
    scale = Fraction(1, p**5)
    for n in range(6):
        assert got.coeff(n) == CycNum.from_rational(scale * oracle[n]), n
    for n in range(1, 6 * p):
        if n % p:
            assert got.coeff(Fraction(n, p)).is_zero()


# -- genus-1 Hecke traces against Eichler-Selberg --------------------------------
# Where dim S_k > 1, a coefficient check on one form does not see the whole
# operator, so the trace of T_p on S_k(triv) is checked against the
# Eichler-Selberg trace formula (D. Zagier's appendix to S. Lang,
# Introduction to Modular Forms, 1976).


def hurwitz_class_number(n: int) -> Fraction:
    """H(n) for n > 0: the reduced positive definite forms (a, b, c) of
    discriminant -n, |b| <= a <= c and b >= 0 where |b| = a or a = c, each
    weighted 1/2 if it is a multiple of x^2 + y^2 and 1/3 if it is a
    multiple of x^2 + xy + y^2."""
    total, a = Fraction(0), 1
    while 3 * a * a <= n:
        for b in range(1 - a, a + 1):
            c, rest = divmod(b * b + n, 4 * a)
            if rest == 0 and (c > a or (c == a and b >= 0)):
                total += Fraction(1, 3) if b == a == c else Fraction(1, 2) if a == c and not b else 1
        a += 1
    return total


def eichler_selberg_trace(k: int, p: int) -> Fraction:
    """-1/2 sum_{t^2 < 4p} P_k(t, p) H(4p - t^2) - 1/2 sum_{dd' = p} min(d, d')^(k-1),
    with P_2 = 1, P_3 = t and P_{j+1} = t P_j - p P_{j-1}."""
    total, top = Fraction(0), math.isqrt(4 * p - 1)
    for t in range(-top, top + 1):
        poly = [1, t]
        while len(poly) < k - 1:
            poly.append(t * poly[-1] - p * poly[-2])
        total += poly[k - 2] * hurwitz_class_number(4 * p - t * t)
    return -total / 2 - Fraction(sum(min(d, p // d) ** (k - 1) for d in (1, p)), 2)


def cusp_basis(k: int, prec) -> list:
    """The triangular basis Delta^j E4^a E6^b, 4a + 6b = k - 12j, of S_k(triv);
    its form j starts with q^j."""
    e4, e6 = eisenstein(4, prec).components[0], eisenstein(6, prec).components[0]
    delta = delta_form(prec).components[0]
    out = []
    for j in range(1, k // 12 + 1):
        rest = k - 12 * j
        if rest == 2:
            continue
        b = rest % 4 // 2
        q = delta
        for x in [delta] * (j - 1) + [e4] * ((rest - 6 * b) // 4) + [e6] * b:
            q = q * x
        out.append(AholForm.holomorphic(k, trivial_rep(), (q,)))
    return out


def hecke_trace(k: int, p: int, dropped=()) -> CycNum:
    """Trace of T_p on S_k(triv), with T_p f = p^(k/2-1) times the sum of the
    coset components of hecke_form(p, f), the normalisation of
    test_unit_contraction_recovers_classical_operator; the components at the
    positions in dropped are left out of the sum."""
    basis = cusp_basis(k, p * (k // 12 + 1))
    rows = [[f.components[0].coeff(n) for n in range(1, len(basis) + 1)] for f in basis]
    trace = CycNum.zero()
    for j, f in enumerate(basis):
        comps = [q for i, q in enumerate(hecke_form(p, f).components) if i not in dropped]
        image = [sum((q.coeff(n) for q in comps), CycNum.zero()) * p ** (k // 2 - 1)
                 for n in range(1, len(basis) + 1)]
        # the image's coordinates in the triangular basis, up to its diagonal one
        for i, row in enumerate(rows[: j + 1]):
            c = image[i]
            image = [y - c * x for x, y in zip(row, image)]
        trace = trace + c
    return trace


def test_the_trace_oracle_on_known_values():
    got = [hurwitz_class_number(n) for n in (3, 4, 7, 8, 12, 15, 16, 20, 23, 27)]
    assert got == [Fraction(1, 3), Fraction(1, 2), 1, 1, Fraction(4, 3), 2, Fraction(3, 2), 2, 3,
                   Fraction(4, 3)]
    # tau(2), tau(3), tau(5); the two eigenvalues of T_2 on S_24 are 540 +- 12 sqrt(144169)
    assert [eichler_selberg_trace(12, p) for p in (2, 3, 5)] == [-24, 252, 4830]
    assert eichler_selberg_trace(24, 2) == 1080


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [12, 16, 24, 36])
def test_hecke_traces_match_eichler_selberg(k, p):
    assert len(cusp_basis(k, 1)) == {12: 1, 16: 1, 24: 2, 36: 3}[k]
    assert hecke_trace(k, p) == CycNum.from_rational(eichler_selberg_trace(k, p))


@pytest.mark.parametrize("p", [2, 3])
def test_the_trace_sees_every_upper_coset(p):
    want = CycNum.from_rational(eichler_selberg_trace(24, p))
    # components follow delta_cosets: (p 0; 0 1), then (1 b; 0 p) for b = 0..p-1
    assert [(c.a, c.b, c.d) for c in delta_cosets(1, p)] == [(p, 0, 1)] + [(1, b, p) for b in range(p)]
    for b in range(p):
        assert hecke_trace(24, p, dropped={1 + b}) != want, b
    # (p 0; 0 1) sends a_n q^n to q^(pn), below the diagonal of the triangular
    # basis, so no trace sees it; test_unit_contraction_recovers_classical_operator
    # and test_hecke_form_on_weight_twelve_matches_listing check its coefficients
    assert hecke_trace(24, p, dropped={0}) == want


def test_hecke_form_commutes_with_covariant_operators(reg):
    # independent check of the depth rescale (d^2/M)^r under each coset
    for M in (2, 3):
        e4 = eisenstein(4, 12)
        assert hecke_form(M, raise_op(e4)).agrees_with(raise_op(hecke_form(M, e4)))
        deep = raise_op(raise_op(e4))
        assert hecke_form(M, deep).agrees_with(raise_op(raise_op(hecke_form(M, e4))))
        assert hecke_form(M, lower_op(deep)).agrees_with(lower_op(hecke_form(M, deep)))


def pairing_apply(gram: Matrix, x, y) -> CycNum:
    """Sesquilinear pairing sum_ij x_i G_ij conj(y_j)."""
    acc = CycNum.zero()
    for i in range(gram.rows):
        for j in range(gram.cols):
            gij = gram[i, j]
            if not gij.is_zero():
                acc = acc + x[i] * gij * y[j].conjugate()
    return acc


def test_pairing_block_structure(reg):
    r3 = reg.get("rho3")
    gram = Matrix.identity(3)
    big = pairing_tm(gram, 2)
    ncos = len(delta_cosets(1, 2))
    assert big.shape == (3 * ncos, 3 * ncos)
    z = [CycNum.zero()] * (3 * ncos)
    x = list(z)
    y = list(z)
    x[0] = CycNum.one()  # v in coset block 0
    y[3] = CycNum.one()  # w in coset block 1
    assert pairing_apply(big, x, y).is_zero()
    y2 = list(z)
    y2[0] = CycNum.zeta(3)
    assert pairing_apply(big, x, y2) == CycNum.zeta(3, 2)
    assert pairing_tm(gram, 1) == gram


def test_t_consistency_of_hecke_images(reg):
    from vvmf.forms import check_T_consistency

    for M in (2, 3, 4):
        out = hecke_form(M, eisenstein(4, 4 * M))
        assert check_T_consistency(out), M


# -- the Hecke relations T_m T_n = T_mn and T_p T_p = T_p^2 + p iota ------------
# Component (a, b) of T_m(T_n f), a in Delta_m the outer coset and b in Delta_n
# the inner one, is f | b a, and b a = gamma c with (c, gamma) =
# reduce_to_coset(b a), so f | b a = rho(gamma) (f | c).  The map built from
# reduce_to_coset alone therefore ties hecke_form and hecke_rep together.


def coset_product_map(m, n, r, block=Matrix.inverse, swap=False):
    """(Phi, source, target): Phi sends block (a, b) of T_m(T_n r) to block c
    of T_mn r, reduce_to_coset(b a) = (c, gamma), with block(rho(gamma)),
    rho(gamma)^-1 by default; swap exchanges the targets of the first two
    blocks (a control)."""
    inner, whole = hecke_rep(n, r), hecke_rep(m * n, r)
    outer = hecke_rep(m, inner.rep)
    index = {c: i for i, c in enumerate(whole.cosets)}
    moves = [reduce_to_coset(mul2(b.mat, a.mat)) for a in outer.cosets for b in inner.cosets]
    if swap:
        moves[:2] = moves[1::-1]
    rows = [{} for _ in range(whole.rep.dim)]
    for src, (c, gamma) in enumerate(moves):
        for i, row in enumerate(block(r.evaluate(gamma)).nonzeros):
            rows[index[c] * r.dim + i].update((src * r.dim + j, x) for j, x in row.items())
    return Matrix.from_nonzeros(outer.rep.dim, rows), outer.rep, whole.rep


def composed_image(m, n, f, **control) -> AholForm:
    """Phi_{m,n}(T_m(T_n f)) - T_mn f, at the precision the two share."""
    phi, source, target = coset_product_map(m, n, f.rep, **control)
    twice = hecke_form(m, hecke_form(n, f))
    assert twice.rep is source
    return _images(twice, None, [(phi, target)], "")[0] + hecke_form(m * n, f).scaled(-1)


@pytest.fixture(scope="module")
def hecke_relation_forms(reg):
    rho3 = reg.get("rho3")
    return {"E4": eisenstein(4, 30), "Delta": delta_form(30),
            "rho3": vv_eisenstein(4, rho3, 3, 30).generators((4, "rho3"))[0][0]}


@pytest.mark.parametrize("name, m, n", [
    ("E4", 2, 3), ("E4", 3, 4), ("E4", 5, 2), ("Delta", 3, 2), ("Delta", 2, 5), ("Delta", 4, 3),
    ("rho3", 2, 3), ("rho3", 3, 2), ("rho3", 2, 5),
])
def test_coprime_hecke_operators_compose(hecke_relation_forms, name, m, n):
    f = hecke_relation_forms[name]
    phi, source, target = coset_product_map(m, n, f.rep)
    assert is_intertwiner(phi, source, target)
    diff = composed_image(m, n, f)
    assert diff.is_zero() and min(q.prec for q in diff.graded[0]) >= 2


@pytest.mark.parametrize("name", ["E4", "Delta", "rho3"])
@pytest.mark.parametrize("p", [2, 3])
def test_hecke_square_is_the_next_power_plus_p_times_the_diagonal_coset(
        hecke_relation_forms, name, p):
    # T_p T_p f = T_{p^2} f + p iota(f): the p + 1 pairs (a, b) with b a in
    # Gamma p I all land on the coset p I, where T_{p^2} f has f once; p = 3
    # divides the level of rho3
    f = hecke_relation_forms[name]
    phi, source, target = coset_product_map(p, p, f.rep)
    assert is_intertwiner(phi, source, target)
    cosets = hecke_rep(p * p, f.rep).cosets
    at = cosets.index(DeltaCoset(1, ((p, 0), (0, p)), p * p))
    iota = [f.graded[0][i] if c == at else QExp.zero(f.prec) for c in range(len(cosets))
            for i in range(f.rep.dim)]
    diff = composed_image(p, p, f) + AholForm.holomorphic(f.weight, target, iota).scaled(-p)
    assert diff.is_zero() and min(q.prec for q in diff.graded[0]) >= 2
    assert not composed_image(p, p, f).is_zero()


@pytest.mark.parametrize("control", [{"block": lambda g: g}, {"swap": True}])
def test_the_coset_product_map_controls_fail(hecke_relation_forms, control):
    # rho(gamma) in place of rho(gamma)^-1 intertwines only where every block
    # is scalar, so the control needs rho3; a swap of two targets breaks both
    f = hecke_relation_forms["rho3"]
    for m, n in ((2, 3), (3, 2)):
        phi, source, target = coset_product_map(m, n, f.rep, **control)
        assert not is_intertwiner(phi, source, target)
        assert not composed_image(m, n, f, **control).is_zero()
