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
`qexp.combine` call, in the row layout of `hyperalg.tensor_form`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ahol import AholForm, apply_intertwiner
from .exactnum import CycNum, bernoulli
from .qexp import QExp, combine
from .reps import Rep, trivial_rep
from . import hecke as _hecke
from .hyperalg import FormSpan, projections


# the holomorphic constructor under its exported name: a depth-0 AholForm
VVForm = AholForm.holomorphic

# componentwise application of an intertwiner, under its exported name
apply_hom = apply_intertwiner


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n), by direct enumeration."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, prec) -> AholForm:
    if k < 4 or k % 2 != 0:
        raise ValueError(f"Eisenstein weight must be even and >= 4, got {k}")
    prec = Fraction(prec)
    factor = Fraction(-2 * k) / bernoulli(k)
    terms = {0: CycNum.one()}
    n = 1
    while n < prec:
        terms[n] = CycNum.from_rational(factor * sigma(k - 1, n))
        n += 1
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
    forms and differential operators (1994)).  One `qexp.combine` call makes
    every component: its series are the scaled theta^r f_i at i*(t+1) + r,
    and row (i, j) holds theta^(t-r) g_j at column i*(t+1) + r, 0 elsewhere.
    """
    kf, kg = f.weight, g.weight
    if t < 0 or t + min(kf, kg) < 1:
        raise ValueError(f"bracket needs t >= 0 and t + k >= 1 for both weights, got t = {t}")
    df, dg = [f.components], [g.components]
    for _ in range(t):
        df.append([q.theta() for q in df[-1]])
        dg.append([q.theta() for q in dg[-1]])
    series = [fi[r].scaled((-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r))
              for fi in zip(*df) for r in range(t + 1)]
    rows = [[gj[t - r] if k == i else 0 for k in range(f.rep.dim) for r in range(t + 1)]
            for i in range(f.rep.dim) for gj in zip(*dg)]
    name = f"[{f.name}, {g.name}]_{t}" if f.name and g.name else ""
    return AholForm.holomorphic(kf + kg + 2 * t, f.rep.tensor(g.rep), combine(rows, series),
                                name=name)


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
    base = eisenstein(k, prec * M)
    te = _hecke.hecke_form(M, base)
    span = FormSpan()
    for tag, image in projections(te, [target]):
        span.add(image, provenance=f"phi[{tag}] . T{M}(E{k})")
    return span
