"""Acceptance gate: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact rational/cyclotomic equality; the
time budgets are generous checks against runaway blowup, not benchmarks.
"""

import math
import random
import time
from fractions import Fraction

from vvmf.ahol import (
    AholForm,
    ahol_decompose,
    apply_intertwiner,
    lower_op,
    raise_op,
)
from vvmf.cli import verify_counts, verify_example32, verify_thm11
from vvmf.exactnum import CycNum
from vvmf.forms import check_T_consistency, delta_form, eisenstein
from vvmf.hecke import cocycle, delta_cosets, hecke_form, hecke_rep, pi_M, unit_embedding
from vvmf.hyperalg import tensor_form
from vvmf.qexp import QExp
from vvmf.reps import trivial_rep

_MODULE_T0 = time.monotonic()


def report(n, name, elapsed):
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.2f}s)")


def test_acceptance_1_golden_tensor_square_expansion():
    t0 = time.monotonic()
    rep = verify_example32()
    case = next(c for c in rep.cases if c.name == "trivial-type-expansion")
    assert case.status == "pass", case
    assert case.expected == [
        "564856947200/1594323",
        "-1894333004462080000/84584326707",
        "-1261863434802833408000/28194775569",
    ]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "golden tensor-square expansion", elapsed)


def test_acceptance_2_representation_decomposition():
    t0 = time.monotonic()
    rep = verify_example32()
    dims = next(c for c in rep.cases if c.name == "hom-dimensions")
    assert dims.status == "pass"
    assert dims.observed == {"triv": 1, "rho3": 2, "rho_zeta": 1, "rho_zeta2": 1}
    reference = [c for c in rep.cases if c.name.startswith("reference-intertwiner")]
    assert len(reference) == 5
    assert all(c.status == "pass" for c in reference)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, "hom dimensions and reference intertwiners", elapsed)


def test_acceptance_3_coset_counts():
    t0 = time.monotonic()
    rep = verify_counts()
    assert rep.ok, rep.to_text(timestamp=False)
    for M in range(1, 13):
        assert len(delta_cosets(1, M)) == sum(d for d in range(1, M + 1) if M % d == 0)
    for p in (2, 3):
        assert len(delta_cosets(2, p)) == (1 + p) * (1 + p * p)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, "coset counts at genus one and two", elapsed)


def test_acceptance_4_classical_hecke_recovery(reg):
    t0 = time.monotonic()
    for p, tau in ((2, -24), (3, 252)):
        prec = 6 * p
        delta = delta_form(prec)
        base = [delta.components[0].coeff(n).rational_value() for n in range(prec)]
        # independent oracle: a_{pn} + p^11 a_{n/p}
        oracle = [
            base[p * n] + (p**11 * base[n // p] if n % p == 0 and n else 0)
            for n in range(6)
        ]
        assert oracle == [tau * b for b in base[:6]]
        td = hecke_form(p, delta)
        got = apply_intertwiner(unit_embedding(p), td, reg.get("triv")).components[0]
        scale = Fraction(p, p**6)
        for n in range(6):
            assert got.coeff(n) == CycNum.from_rational(scale * tau * base[n]), (p, n)
    elapsed = time.monotonic() - t0
    report(4, "unit contraction recovers classical eigenvalues", elapsed)


def test_acceptance_5_cusp_membership_at_boundary_weight():
    t0 = time.monotonic()
    rep = verify_thm11(k=12, l=4, l2=8, hecke_indices=(1, 2), prec=5)
    assert rep.ok, rep.to_text(timestamp=False)
    rep_single = verify_thm11(k=12, l=4, l2=8, hecke_indices=(1,), prec=5)
    case = next(c for c in rep_single.cases if c.name == "cusp-membership")
    assert case.status == "fail" and case.observed is False
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(5, "cusp form inside two-index product span", elapsed)


def test_acceptance_6_projection_compatibility(reg):
    t0 = time.monotonic()
    triv = reg.get("triv")
    for M in (2, 3):
        e4 = eisenstein(4, 4 * M)
        e6 = eisenstein(6, 4 * M)
        lhs_input = tensor_form(hecke_form(M, e4), hecke_form(M, e6))
        rhs = hecke_form(M, tensor_form(e4, e6))
        lhs = apply_intertwiner(pi_M(triv, triv, M), lhs_input, rhs.rep)
        assert lhs.agrees_with(rhs, 4), M
    elapsed = time.monotonic() - t0
    report(6, "coset-diagonal projection matches operator on products", elapsed)


def _random_depth2_form(rng, prec=7):
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)

    def flat(f):
        return AholForm(f.weight, trivial_rep(), f.graded)

    pool = [
        flat(tensor_form(raise_op(e4), e6)),
        flat(tensor_form(raise_op(e4), raise_op(e6))),
        raise_op(raise_op(e6)),
        flat(tensor_form(raise_op(raise_op(e4)), e4)),
    ]
    f = rng.choice(pool)
    g = rng.choice(pool)
    if f.weight == g.weight:
        return f + g.scaled(rng.randint(-2, 2))
    return f


def test_acceptance_7_differential_operator_suite():
    t0 = time.monotonic()
    for lprime in (4, 6, 8):
        f = AholForm.holomorphic(lprime, trivial_rep(), [QExp(1, 5, {0: 1})])
        for t in range(1, 4):
            f = raise_op(f)
            top = f.graded[t][0]
            assert top.coeff(0) == CycNum.from_rational(math.prod(range(lprime, lprime + t)))
            assert all(q.is_zero() for layer in f.graded[:t] for q in layer)
    rng = random.Random(20240)
    for _ in range(20):
        f = _random_depth2_form(rng)
        k = f.weight
        commutator = lower_op(raise_op(f)) - raise_op(lower_op(f), weight=k)
        for r, layer in enumerate(f.graded):
            want = [q.scaled(2 * r - k) for q in layer]
            if r <= commutator.depth:
                got = commutator.graded[r]
                assert all(x.agrees_with(y) for x, y in zip(got, want)), r
            else:
                assert all(y.is_zero() for y in want)
        parts = ahol_decompose(f)
        recon = parts[0]
        for t, h in enumerate(parts[1:], start=1):
            lifted = h
            for _ in range(t):
                lifted = raise_op(lifted)
            recon = recon + lifted
        assert recon.agrees_with(f)
    elapsed = time.monotonic() - t0
    report(7, "raising/lowering identities and depth decomposition", elapsed)


def test_acceptance_8_invariant_suites(reg):
    t0 = time.monotonic()
    constructed = []
    for M in range(1, 7):
        for entry in reg.entries:
            hr = hecke_rep(M, entry)
            assert hr.rep.validate().ok, (M, entry.label)
    for M in (2, 3, 4):
        for k in (4, 6):
            form = hecke_form(M, eisenstein(k, 4 * M))
            constructed.append(form)
    constructed.append(delta_form(6))
    constructed.extend(eisenstein(k, 6) for k in (4, 6, 8, 12))
    for form in constructed:
        assert check_T_consistency(form)

    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))

    def mul2(p, q):
        return (
            (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
        )

    rng = random.Random(8088)
    for _ in range(50):
        M = rng.choice([2, 3, 4])
        m = rng.choice(delta_cosets(1, M))

        def rand_gamma():
            g = ((1, 0), (0, 1))
            for _ in range(rng.randint(1, 5)):
                g = mul2(g, S if rng.random() < 0.5 else T)
            return g

        g1, g2 = rand_gamma(), rand_gamma()
        lhs, _ = cocycle(m, mul2(g1, g2))
        i1, mg1 = cocycle(m, g1)
        i2, _ = cocycle(mg1, g2)
        assert lhs == mul2(i1, i2)

    elapsed = time.monotonic() - t0
    total = time.monotonic() - _MODULE_T0
    assert total < 300.0, f"acceptance module took {total:.1f}s"
    report(8, "headless invariant suites", elapsed)
