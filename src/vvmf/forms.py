"""Classical constructors of holomorphic vector-valued modular forms.

A holomorphic form is a depth-0 `AholForm`: one graded layer, one
q-expansion per component.  `VVForm(weight, rep, components)` builds one.

Eisenstein series are normalized to constant term 1:
E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.  Weights are even integers
throughout (odd weights have no types here and the coset action needs
M^(k/2) rational).

The Rankin-Cohen bracket [f, g]_t, built from theta = q d/dq alone, is up
to a nonzero rational factor the weight k_f + k_g + 2t holomorphic layer
of every R^a f (x) R^b g with a + b = t.  All its products go to one
`qexp.combine_terms` call; its projections contract each map into g first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .ahol import AholForm, apply_intertwiner
from .exactnum import CycNum, bernoulli, divisors
from .qexp import QExp, combine, combine_terms
from .reps import Rep, trivial_rep
from . import hecke as _hecke
from .hyperalg import FormSpan, _basis_maps, projections


# the holomorphic constructor under its exported name: a depth-0 AholForm
VVForm = AholForm.holomorphic

# componentwise application of an intertwiner, under its exported name
apply_hom = apply_intertwiner


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n)."""
    return sum(d**k for d in divisors(n))


def eisenstein(k: int, prec) -> AholForm:
    if k < 4 or k % 2 != 0:
        raise ValueError(f"Eisenstein weight must be even and >= 4, got {k}")
    prec = Fraction(prec)
    factor = Fraction(-2 * k) / bernoulli(k)
    terms = {n: CycNum.from_rational(factor * sigma(k - 1, n)) if n else CycNum.one()
             for n in range(math.ceil(prec))}
    return AholForm.holomorphic(k, trivial_rep(), (QExp(1, prec, terms),), name=f"E{k}")


def delta_form(prec) -> AholForm:
    """The weight-12 cusp form (E4^3 - E6^2)/1728."""
    e4 = eisenstein(4, prec).components[0]
    e6 = eisenstein(6, prec).components[0]
    q = (e4 * e4 * e4 - e6 * e6).scaled(Fraction(1, 1728))
    return AholForm.holomorphic(12, trivial_rep(), (q,), name="Delta")


def rankin_cohen(f: AholForm, g: AholForm, t: int) -> AholForm:
    """The t-th Rankin-Cohen bracket of two holomorphic forms.

    [f, g]_t = sum_r (-1)^r C(t+k_f-1, t-r) C(t+k_g-1, r) theta^r f . theta^(t-r) g
    on the type type(f) (x) type(g), components flattened as i*dim_g + j as
    in `tensor_form` (H. Cohen, Math. Ann. 217 (1975); D. Zagier, Modular
    forms and differential operators (1994)): `_bracket` with one row per
    component (i, j), whose one block i holds g_j.
    """
    dg = [_thetas(q, t) for q in g.components]
    rows = [{i: d} for i in range(f.rep.dim) for d in dg]
    name = f"[{f.name}, {g.name}]_{t}" if f.name and g.name else ""
    return AholForm.holomorphic(f.weight + g.weight + 2 * t, f.rep.tensor(g.rep),
                                _bracket(f, g.weight, t, rows), name=name)


def bracket_projections(f: AholForm, g: AholForm, t: int, targets) -> list:
    """`projections(rankin_cohen(f, g, t), targets)`, each map contracted into g
    first: as theta is linear, row a of phi([f, g]_t) is `_bracket` with the
    blocks h_ai = sum_j phi[a, i*dim_g + j] g_j (one scalar `combine` makes
    them all) where phi's row is nonzero, so conductors can only get smaller."""
    dg, maps = g.rep.dim, _basis_maps(f.rep.tensor(g.rep), targets)
    blocks = [[(i, s) for i in range(f.rep.dim) if any(s := phi.row(a)[i * dg:(i + 1) * dg])]
              for _, (phi, target) in maps for a in range(target.dim)]
    hs = iter(combine([s for row in blocks for _, s in row], g.components))
    comps = iter(_bracket(f, g.weight, t, [{i: _thetas(next(hs), t) for i, _ in row}
                                           for row in blocks]))
    name = f"phi([{f.name}, {g.name}]_{t})" if f.name and g.name else ""
    return [(tag, AholForm.holomorphic(f.weight + g.weight + 2 * t, target,
                                       [next(comps) for _ in range(target.dim)], name=name))
            for tag, (_, target) in maps]


def _bracket(f: AholForm, kg: int, t: int, rows) -> list:
    """Per row of blocks {i: [h, theta h, ..., theta^t h]}, sum_i sum_r c_r theta^r f_i .
    theta^(t-r) h: one `qexp.combine_terms` row of the terms (c_r, theta^r f_i,
    theta^(t-r) h); a row without blocks is zero at the least precision of f."""
    kf = f.weight
    if t < 0 or t + min(kf, kg) < 1:
        raise ValueError(f"bracket needs t >= 0 and t + k >= 1 for both weights, got t = {t}")
    coeffs = [(-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r)
              for r in range(t + 1)]
    df = [_thetas(q, t) for q in f.components]
    return combine_terms([[(c, df[i][r], d[t - r]) for i, d in row.items()
                           for r, c in enumerate(coeffs)] for row in rows],
                         min(q.prec for q in f.components))


def _thetas(q: QExp, t: int) -> list:
    """[q, theta q, ..., theta^t q]."""
    return list(accumulate(range(t), lambda x, _: x.theta(), initial=q))


def check_T_consistency(f: AholForm) -> bool:
    """Exponent phases must reproduce the T-action on components.

    Replacing q^(n/h) by zeta_h^n q^(n/h) in every component has to equal
    rho(T) applied to the component tuple, on every graded layer, up to
    the layer's sound precision.
    """
    rows = f.rep.T.to_rows()
    for layer in f.graded:
        prec = min(q.prec for q in layer)
        twisted = [
            QExp(q.h, q.prec, {n: CycNum.zeta(q.h, n) * c for n, c in q.terms.items()})
            for q in layer
        ]
        if not all(x.agrees_with(y, prec) for x, y in zip(twisted, combine(rows, layer))):
            return False
    return True


def vv_eisenstein(k: int, target: Rep, M: int, prec) -> FormSpan:
    """Eisenstein series of the target type built through coset operators.

    Span of phi(T_M E_k) over the intertwiner basis of hom(T_M 1, target);
    the span can be empty.  Input precision is chosen so each projected
    component is sound to `prec`.
    """
    if k < 4 or k % 2 != 0:
        raise ValueError(f"weight must be even and >= 4, got {k}")
    prec = Fraction(prec)
    te = _hecke.hecke_form(M, eisenstein(k, prec * M))
    span = FormSpan()
    for tag, image in projections(te, [target]):
        span.add(image, provenance=f"phi[{tag}] . T{M}(E{k})")
    return span
