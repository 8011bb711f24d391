"""Classical constructors of holomorphic vector-valued modular forms.

A holomorphic form is a depth-0 `AholForm`: one graded layer, one
q-expansion per component.  `VVForm(weight, rep, components)` builds one.

Eisenstein series are normalized to constant term 1:
E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.  Weights are even integers
throughout (odd weights have no types here and the coset action needs
M^(k/2) rational).

The Rankin-Cohen bracket [f, g]_t, built from theta = q d/dq alone, is up
to a nonzero rational factor the weight k_f + k_g + 2t holomorphic layer
of every R^a f (x) R^b g with a + b = t.  `_bracket_images` makes its
images: it contracts each map into g, then makes every product of every
image in one `qexp.combine_terms` call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .ahol import AholForm, _image_name, _split, apply_intertwiner
from .exactnum import CycNum, bernoulli, divisors
from .linalg import Matrix
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
    forms and differential operators (1994)): `_bracket_images` under the
    identity map.
    """
    rep = f.rep.tensor(g.rep)
    name = f"[{f.name}, {g.name}]_{t}" if f.name and g.name else ""
    return _bracket_images(f, g, t, [(Matrix.identity(rep.dim), rep)], name)[0]


def bracket_projections(f: AholForm, g: AholForm, t: int, targets) -> list:
    """`projections(rankin_cohen(f, g, t), targets)` by `_bracket_images`,
    which contracts each map into g first, so conductors can only get
    smaller than the projected bracket's."""
    tags, maps = _basis_maps(f.rep.tensor(g.rep), targets)
    name = _image_name(f"[{f.name}, {g.name}]_{t}" if f.name and g.name else "")
    return list(zip(tags, _bracket_images(f, g, t, maps, name)))


def _bracket_images(f: AholForm, g: AholForm, t: int, maps, name: str) -> list:
    """phi([f, g]_t) for each (phi, target) of maps.  As theta is linear,
    row a is sum_i sum_r c_r theta^r f_i . theta^(t-r) h_ai over the blocks
    h_ai = sum_j phi[a, i*dim_g + j] g_j where phi's row is nonzero.  One
    scalar `combine` makes every block and one `qexp.combine_terms` call
    every row: a coefficient has the lcm of the conductors of the terms that
    reach it after contraction, a divisor of the projected bracket's; a row
    without blocks is zero at the least precision of f."""
    kf, kg, dg = f.weight, g.weight, g.rep.dim
    if t < 0 or t + min(kf, kg) < 1:
        raise ValueError(f"bracket needs t >= 0 and t + k >= 1 for both weights, got t = {t}")
    coeffs = [(-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r)
              for r in range(t + 1)]
    blocks = [[(i, s) for i in range(f.rep.dim) if any(s := phi.row(a)[i * dg:(i + 1) * dg])]
              for phi, target in maps for a in range(target.dim)]
    hs = iter(combine([s for row in blocks for _, s in row], g.components))
    dh = [{i: _thetas(next(hs), t) for i, _ in row} for row in blocks]
    df = [_thetas(q, t) for q in f.components]
    rows = [[(c, df[i][r], d[t - r]) for i, d in row.items() for r, c in enumerate(coeffs)]
            for row in dh]
    comps = combine_terms(rows, min(q.prec for q in f.components))
    return _split([comps], maps, kf + kg + 2 * t, name)


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
