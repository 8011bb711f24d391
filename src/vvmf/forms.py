"""Classical constructors of holomorphic vector-valued modular forms.

A holomorphic form is a depth-0 `AholForm`: one graded layer, one
q-expansion per component.  `VVForm(weight, rep, components)` builds one.

Eisenstein series are normalized to constant term 1:
E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.  Weights are even integers
throughout (odd weights have no types here and the coset action needs
M^(k/2) rational).

The Rankin-Cohen bracket [f, g]_t is up to a nonzero rational factor the
weight k_f + k_g + 2t holomorphic layer of every R^a f (x) R^b g, a + b = t.
`_bracket_images` contracts each map into g, then takes each kept
coefficient as integer dot products against a row of Q_t(m, n).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, repeat

from .ahol import AholForm, _image_name, _split, apply_intertwiner
from .exactnum import CycNum, _lowering, _make, _reduce, bernoulli, divisors, euler_phi
from .linalg import Matrix
from .qexp import QExp, _lifted, _series, combine
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
    """The t-th Rankin-Cohen bracket of holomorphic forms f and g, T-consistent
    for their types: [f, g]_t = sum_r (-1)^r C(t+k_f-1, t-r) C(t+k_g-1, r)
    theta^r f . theta^(t-r) g on type(f) (x) type(g), components flattened as
    i*dim_g + j as in `tensor_form` (H. Cohen, Math. Ann. 217 (1975); D.
    Zagier, Modular forms and differential operators (1994)).  Coefficient N
    is sum_{m+n=N} f(m) g(n) Q_t(m, n), with m^r n^(t-r) for theta^r .
    theta^(t-r): `_bracket_images` under the identity map."""
    rep = f.rep.tensor(g.rep)
    name = f"[{f.name}, {g.name}]_{t}" if f.name and g.name else ""
    return _bracket_images(f, g, t, [(Matrix.identity(rep.dim), rep)], name)[0]


def bracket_projections(f: AholForm, g: AholForm, t: int, targets) -> list:
    """`projections(rankin_cohen(f, g, t), targets)` for f and g T-consistent
    for their types, by `_bracket_images`: it contracts each map into g first,
    so conductors can only get smaller than the projected bracket's."""
    tags, maps = _basis_maps(f.rep.tensor(g.rep), targets)
    name = _image_name(f"[{f.name}, {g.name}]_{t}" if f.name and g.name else "")
    return list(zip(tags, _bracket_images(f, g, t, maps, name)))


def _bracket_images(f: AholForm, g: AholForm, t: int, maps, name: str) -> list:
    """phi([f, g]_t) for each (phi, target) of maps, for f and g T-consistent
    for their types (`check_T_consistency`), as every caller's are.  One
    scalar `combine` makes the blocks h_ai = sum_j phi[a, i*dim_g + j] g_j
    (a row without any is zero at f's precision), and `_bracket_row` sums
    row a from its pairs (f_i, h_ai), at the exponents e/L + Z alone when
    rho(T)[a, a] = zeta_L^e (L the level) is the only nonzero entry of row a."""
    kf, kg, dg = f.weight, g.weight, g.rep.dim
    if t < 0 or t + min(kf, kg) < 1:
        raise ValueError(f"bracket needs t >= 0 and t + k >= 1 for both weights, got t = {t}")
    coeffs = [(-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r)
              for r in range(t + 1)]
    blocks = [[(i, s) for i in range(f.rep.dim) if any(s := phi.row(a)[i * dg:(i + 1) * dg])]
              for phi, target in maps for a in range(target.dim)]
    hs = iter(combine([s for row in blocks for _, s in row], g.components))
    kept = [next((Fraction(e, r.level) for e in range(r.level)
                  if r.T.nonzeros[a] == {a: CycNum.zeta(r.level, e)}), None)
            for _, r in maps for a in range(r.dim)]
    heads = [[c * m ** (t - s) for s, c in enumerate(reversed(coeffs))] for m in range(t + 1)]
    qrow, empty = lru_cache(maxsize=None)(partial(_qrow, heads)), min(q.prec for q in f.components)
    comps = [_bracket_row([q for i, _ in row for q in (f.components[i], next(hs))], coeffs, qrow, x)
             if row and any(coeffs) else QExp.zero(empty) for row, x in zip(blocks, kept)]
    return _split([comps], maps, kf + kg + 2 * t, name)


def _qrow(heads: list, n: int) -> list:
    """[Q_t(m, n - m) for m <= n], of degree t in m: t running sums of the
    leading differences of its values at m <= t, sum_s heads[m][s] (n - m)^s."""
    lead = [sum(map(operator.mul, c, accumulate(repeat(n - m, len(c) - 1), operator.mul,
                                                initial=1))) for m, c in enumerate(heads)]
    for j in range(1, len(lead)):
        lead[j:] = map(operator.sub, lead[j:], lead[j - 1:-1])
    row = [0] * (n + 1)
    for d in reversed(lead):
        row = list(accumulate(row[:n], initial=d))
    return row


def _bracket_row(qs: list, coeffs: list, qrow, kept) -> QExp:
    """sum_i [x_i, y_i]_t, qs = [x_1, y_1, ...], on the lcm 1/H of their lattices
    to their least precision, at the N/H in kept + Z (all N if kept is None):
    sum_{i, m+n=N} x_i(m) y_i(n) Q_t(m, n) / H^t, an integer dot product per
    coordinate pair with the Q_t row of N, each series lifted once (`_lifted`).
    The conductor is the lcm over the stored pairs at m + n = N, Q_t = 0 too
    (m = 0 if c_0 != 0, n = 0 if c_t != 0), read off packed 0/1 products."""
    t, h, prec = len(coeffs) - 1, math.lcm(*(q.h for q in qs)), min(q.prec for q in qs)
    bound = math.ceil(prec * h)
    terms = [[(n * h // q.h, c) for n, c in q.terms.items() if n * h // q.h < bound] for q in qs]
    cond = math.lcm(*(c.n for ts in terms for _, c in ts))
    groups, zero = [_lifted(ts, cond) for ts in terms], (0,) * euler_phi(cond)
    den = math.lcm(*(x.den * y.den for x, y in zip(groups[::2], groups[1::2])))
    # each series' nonzero coordinate lists, y_i's over den and backwards: y(N - m), m <= N, a tail
    scale = [den // (groups[i - 1].den * g.den) if i % 2 else 1 for i, g in enumerate(groups)]
    cols = [[(l, c[::(-1) ** i]) for l in range(len(zero))
             if any(c := [coords.get(n, zero)[l] * scale[i] for n in range(bound)])]
            for i, coords in enumerate(dict(g.rows) for g in groups)]
    bits, hits = (bound * len(qs)).bit_length(), {}
    for x, y in zip(terms[::2], terms[1::2]):
        x, y = [p for p in x if p[0] or coeffs[0]], [p for p in y if p[0] or coeffs[t]]
        for u, v in ((x, y), (y, x)):
            for k in {c.n for _, c in u} - {1}:
                hits[k] = hits.get(k, 0) + (sum(1 << n * bits for n, c in u if c.n == k)
                                            * sum(1 << n * bits for n, _ in v))
    start, step, mask, out = (kept or 0) * h, 1 if kept is None else h, (1 << bits) - 1, {}
    for n in range(start.numerator, bound if start.denominator == 1 else 0, step):
        acc, q = [0] * (2 * len(zero) - 1), qrow(n) if t else None
        for xs, ys in zip(cols[::2], cols[1::2]):
            tails = [(l, b[bound - 1 - n:]) for l, b in ys]
            for k, a in xs:
                w = list(map(operator.mul, a, q)) if t else a
                for l, b in tails:
                    acc[k + l] += sum(map(operator.mul, w, b))
        if any(num := _reduce(cond, acc)):
            m = math.lcm(1, *(k for k, r in hits.items() if r >> n * bits & mask))
            low, d = _lowering(cond, m)
            out[n] = _make(m, tuple([sum(map(operator.mul, r, num)) for r in low]), den * h**t * d)
    return _series(h, prec, out)


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
