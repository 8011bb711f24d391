"""Classical constructors of holomorphic vector-valued modular forms.

A holomorphic form is a depth-0 `AholForm`: one graded layer, one
q-expansion per component.  `VVForm(weight, rep, components)` builds one.

Eisenstein series are normalized to constant term 1:
E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, the sigma_{k-1}(n) from one
divisor sieve.  Weights are even integers throughout (odd weights have no
types here and the coset action needs M^(k/2) rational).

The Rankin-Cohen bracket [f, g]_t is up to a nonzero rational factor the
weight k_f + k_g + 2t holomorphic layer of every R^a f (x) R^b g, a + b = t.
`_bracket_images` stays in integer coordinates: it lifts each component
once, contracts each map into g on those coordinates, then takes each kept
coefficient as integer dot products against a row of Q_t(m, n).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, repeat
from types import SimpleNamespace

from .ahol import AholForm, _image_name, _split, apply_intertwiner
from .exactnum import (CycNum, _lowering, _make, _multiplication, _reduce, bernoulli, divisors,
                       euler_phi)
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
    prec, (p, q) = Fraction(prec), (Fraction(-2 * k) / bernoulli(k)).as_integer_ratio()
    sig = [0] * math.ceil(prec)  # sigma_{k-1}(n) for every n < prec, by one divisor sieve
    for d in range(1, len(sig)):
        sig[d::d] = map((d ** (k - 1)).__add__, sig[d::d])
    terms = {n: _make(1, (p * s,), q) if n else CycNum.one() for n, s in enumerate(sig)}
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
    for their types (`check_T_consistency`), as every caller's are.  Each
    component is lifted once to the call's joint conductor and lattice, the
    blocks h_ai = sum_j phi[a, i*dim_g + j] g_j are contracted in integers (a
    row without any is zero at f's precision), and `_bracket_row` sums row a
    from its pairs (f_i, h_ai), at the exponents e/L + Z alone when
    rho(T)[a, a] = zeta_L^e (L the level) is the only nonzero entry of row a."""
    kf, kg, dg = f.weight, g.weight, g.rep.dim
    if t < 0 or t + min(kf, kg) < 1:
        raise ValueError(f"bracket needs t >= 0 and t + k >= 1 for both weights, got t = {t}")
    coeffs = [(-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r)
              for r in range(t + 1)]
    blocks = [[(i, s) for i in range(f.rep.dim) if any(s := phi.row(a)[i * dg:(i + 1) * dg])]
              for phi, target in maps for a in range(target.dim)]
    qs = (*f.components, *g.components)
    cond = math.lcm(*(c.n for q in qs for c in q.terms.values()), *(phi.n for phi, _ in maps))
    at = (cond, math.lcm(*(q.h for q in qs)))
    fs, gs = ([_coords(q, *at) for q in x.components] for x in (f, g))
    kept = [next((Fraction(e, r.level) for e in range(r.level)
                  if r.T.nonzeros[a] == {a: CycNum.zeta(r.level, e)}), None)
            for _, r in maps for a in range(r.dim)]
    heads = [[c * m ** (t - s) for s, c in enumerate(reversed(coeffs))] for m in range(t + 1)]
    qrow, empty = lru_cache(maxsize=None)(partial(_qrow, heads)), min(q.prec for q in f.components)
    comps = [_bracket_row([(fs[i], _contract(s, gs, *at)) for i, s in row], coeffs, qrow, x, *at)
             if row and any(coeffs) else QExp.zero(empty) for row, x in zip(blocks, kept)]
    return _split([comps], maps, kf + kg + 2 * t, name)


def _coords(q: QExp, cond: int, H: int) -> SimpleNamespace:
    """q on cond and 1/H: its lattice h and precision, the conductor of its
    coefficient at each stored n/H (conds), and its nonzero coordinate lists
    cols, (l, [coordinate l at n/H for n < prec H]) over den, lifted together
    (`_lifted`)."""
    group, step = _lifted(list(q.terms.items()), cond), H // q.h
    dense = [(0,) * euler_phi(cond)] * math.ceil(q.prec * H)
    for n, num in group.rows:
        dense[n * step] = num
    return SimpleNamespace(h=q.h, prec=q.prec, den=group.den,
                           conds={n * step: c.n for n, c in q.terms.items()},
                           cols=[(l, col) for l, col in enumerate(zip(*dense)) if any(col)])


def _contract(row: tuple, gs: list, cond: int, H: int) -> SimpleNamespace:
    """sum_j row[j] g_j over the j with row[j] != 0 as `combine` makes it: on
    the lcm of their lattices to their least precision, the coefficient at n of
    the lcm of row[j].n and g_j(n).n over the j with a term at n, absent where
    the sum is zero; a rational row[j] scales, any other is `_multiplication`."""
    used = [(x, y) for x, y in zip(row, gs) if x]
    prec, den = min(y.prec for _, y in used), math.lcm(*(x.den * y.den for x, y in used))
    cols, conds = [[0] * math.ceil(prec * H) for _ in range(euler_phi(cond))], {}
    for x, y in used:
        f, mat = den // (x.den * y.den), x.n > 1 and _multiplication(cond, x.lift(cond).num, cond)
        for l, col in y.cols:
            for i, v in enumerate(r[l] * f for r in mat) if mat else [(l, x.num[0] * f)]:
                if v:
                    cols[i] = [a + v * b for a, b in zip(cols[i], col)]
        for n, k in y.conds.items():
            conds[n] = math.lcm(conds.get(n, 1), k, x.n)
    live = {n for n, v in enumerate(zip(*cols)) if any(v)}
    cols = [(l, col) for l, col in enumerate(cols) if any(col)]
    return SimpleNamespace(h=math.lcm(*(y.h for _, y in used)), prec=prec, den=den, cols=cols,
                           conds={n: k for n, k in conds.items() if n in live})


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


def _bracket_row(pairs: list, coeffs: list, qrow, kept, cond: int, H: int) -> QExp:
    """sum_i [x_i, y_i]_t over the pairs (x_i, y_i) on cond and 1/H (`_coords`), on
    the lcm 1/h of their lattices to their least precision, at the N/H in kept + Z
    (all N/H in (1/h)Z if kept is None): sum_{i, m+n=N} x_i(m) y_i(n) Q_t(m, n) / H^t,
    an integer dot product per coordinate pair with the Q_t row of N.  The conductor
    is the lcm over the stored pairs at m + n = N, Q_t = 0 too (m = 0 if c_0 != 0,
    n = 0 if c_t != 0), read off packed 0/1 products."""
    qs = [q for pair in pairs for q in pair]
    t, h, prec = len(coeffs) - 1, math.lcm(*(q.h for q in qs)), min(q.prec for q in qs)
    bound, den = math.ceil(prec * H), math.lcm(*(x.den * y.den for x, y in pairs))
    # each series' nonzero coordinate lists, y_i's over den and backwards: y(N - m), m <= N, a tail
    scale = [den // (qs[i - 1].den * q.den) if i % 2 else 1 for i, q in enumerate(qs)]
    cols = [[(l, c[::(-1) ** i]) for l, b in q.cols if any(c := [a * scale[i] for a in b[:bound]])]
            for i, q in enumerate(qs)]
    bits, hits = (bound * len(qs)).bit_length(), {}
    for x, y in zip(qs[::2], qs[1::2]):
        x, y = ([p for p in u.conds.items() if p[0] < bound and (p[0] or coeffs[e])]
                for u, e in ((x, 0), (y, t)))
        for u, v in ((x, y), (y, x)):
            for k in {c for _, c in u} - {1}:
                hits[k] = hits.get(k, 0) + (sum(1 << n * bits for n, c in u if c == k)
                                            * sum(1 << n * bits for n, _ in v))
    start, step, mask, out = (kept or 0) * H, H // h if kept is None else H, (1 << bits) - 1, {}
    for n in range(start.numerator, bound if start.denominator == 1 else 0, step):
        acc, q = [0] * (2 * euler_phi(cond) - 1), qrow(n) if t else None
        for xs, ys in zip(cols[::2], cols[1::2]):
            tails = [(l, b[bound - 1 - n:]) for l, b in ys]
            for k, a in xs:
                w = list(map(operator.mul, a, q)) if t else a
                for l, b in tails:
                    acc[k + l] += sum(map(operator.mul, w, b))
        if any(num := _reduce(cond, acc)):
            m = math.lcm(1, *(k for k, r in hits.items() if r >> n * bits & mask))
            low, d = _lowering(cond, m)
            out[n * h // H] = _make(m, tuple([sum(map(operator.mul, r, num)) for r in low]),
                                    den * H**t * d)
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
