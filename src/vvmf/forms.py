"""Holomorphic vector-valued modular forms and classical constructors.

Eisenstein series are normalized to constant term 1:
E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.  Weights are even integers
throughout (odd weights have no types here and the coset action needs
M^(k/2) rational).

The Rankin-Cohen bracket [f, g]_t, built from theta = q d/dq alone, is up
to a nonzero rational factor the weight k_f + k_g + 2t holomorphic layer
of every R^a f (x) R^b g with a + b = t.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ahol import AholForm, apply_intertwiner
from .exactnum import CycNum, bernoulli
from .linalg import Matrix
from .qexp import QExp
from .reps import Rep, RepRegistry, trivial_rep
from . import hecke as _hecke
from .hyperalg import FormSpan, projections


class VVForm:
    """Holomorphic form: weight, type, one q-expansion per component."""

    __slots__ = ("weight", "rep", "components", "prec", "name")

    def __init__(self, weight: int, rep: Rep, components, name: str = ""):
        components = tuple(components)
        if len(components) != rep.dim:
            raise ValueError(
                f"{len(components)} components for a type of dimension {rep.dim}"
            )
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "prec", min(q.prec for q in components))
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("VVForm is immutable")

    def as_ahol(self) -> AholForm:
        return AholForm(self.weight, self.rep, [self.components], name=self.name)

    @staticmethod
    def from_ahol(f: AholForm, name: str = "") -> "VVForm":
        return VVForm(f.weight, f.rep, f.components, name=name or f.name)

    def is_zero(self) -> bool:
        return all(q.is_zero() for q in self.components)

    def __mul__(self, other: "VVForm") -> "VVForm":
        """Plain product for trivial types (scalar-valued forms)."""
        if self.rep.dim != 1 or other.rep.dim != 1:
            raise ValueError("componentwise product needs one-dimensional types")
        name = f"{self.name}*{other.name}" if self.name and other.name else ""
        return VVForm(
            self.weight + other.weight,
            self.rep,
            (self.components[0] * other.components[0],),
            name=name,
        )

    def scaled(self, s) -> "VVForm":
        return VVForm(self.weight, self.rep, [q.scaled(s) for q in self.components], name=self.name)

    def __repr__(self):
        tag = self.name or "form"
        return f"VVForm({tag}: weight {self.weight}, type {self.rep.label})"

    def to_json(self, registry: RepRegistry | None = None):
        if registry is not None and self.rep.label in registry:
            type_field = self.rep.label
        else:
            type_field = self.rep.to_json()
        return {
            "weight": self.weight,
            "type": type_field,
            "h": max(q.h for q in self.components),
            "prec": str(self.prec),
            "components": [q.to_json() for q in self.components],
        }

    @staticmethod
    def from_json(obj, registry: RepRegistry | None = None) -> "VVForm":
        return VVForm.from_ahol(AholForm.from_json(obj, registry))


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n), by direct enumeration."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, prec) -> VVForm:
    if k < 4 or k % 2 != 0:
        raise ValueError(f"Eisenstein weight must be even and >= 4, got {k}")
    prec = Fraction(prec)
    factor = Fraction(-2 * k) / bernoulli(k)
    terms = {0: CycNum.one()}
    n = 1
    while n < prec:
        terms[n] = CycNum.from_rational(factor * sigma(k - 1, n))
        n += 1
    return VVForm(k, trivial_rep(), (QExp(1, prec, terms),), name=f"E{k}")


def one_form(prec) -> VVForm:
    """The constant 1 in weight 0, the identity of the product."""
    return VVForm(0, trivial_rep(), (QExp.constant(1, prec),), name="1")


def delta_form(prec) -> VVForm:
    """The weight-12 cusp form (E4^3 - E6^2)/1728."""
    e4 = eisenstein(4, prec).components[0]
    e6 = eisenstein(6, prec).components[0]
    q = (e4 * e4 * e4 - e6 * e6).scaled(Fraction(1, 1728))
    return VVForm(12, trivial_rep(), (q,), name="Delta")


def rankin_cohen(f: AholForm, g: AholForm, t: int) -> AholForm:
    """The t-th Rankin-Cohen bracket of two holomorphic forms.

    [f, g]_t = sum_r (-1)^r C(t+k_f-1, t-r) C(t+k_g-1, r) theta^r f . theta^(t-r) g
    on the type type(f) (x) type(g), components flattened as i*dim_g + j as
    in `tensor_form` (H. Cohen, Math. Ann. 217 (1975); D. Zagier, Modular
    forms and differential operators (1994)).
    """
    kf, kg = f.weight, g.weight
    if t < 0 or t + min(kf, kg) < 1:
        raise ValueError(f"bracket needs t >= 0 and t + k >= 1 for both weights, got t = {t}")
    df, dg = [f.components], [g.components]
    for _ in range(t):
        df.append([q.theta() for q in df[-1]])
        dg.append([q.theta() for q in dg[-1]])
    # the binomial factors scale the theta^r f side, before the products
    for r in range(t + 1):
        c = (-1) ** r * math.comb(t + kf - 1, t - r) * math.comb(t + kg - 1, r)
        df[r] = [q.scaled(c) for q in df[r]]
    comps = [sum((fi[r] * gj[t - r] for r in range(1, t + 1)), fi[0] * gj[t])
             for fi in zip(*df) for gj in zip(*dg)]
    name = f"[{f.name}, {g.name}]_{t}" if f.name and g.name else ""
    return AholForm.holomorphic(kf + kg + 2 * t, f.rep.tensor(g.rep), comps, name=name)


def apply_hom(phi: Matrix, f, target: Rep):
    """Componentwise application of an intertwiner; weight unchanged.

    Accepts a holomorphic or a depth-graded form; raises when phi does not
    intertwine type(f) -> target.
    """
    if isinstance(f, VVForm):
        return VVForm.from_ahol(apply_intertwiner(phi, f.as_ahol(), target))
    return apply_intertwiner(phi, f, target)


def check_T_consistency(f) -> bool:
    """Exponent phases must reproduce the T-action on components.

    Replacing q^(n/h) by zeta_h^n q^(n/h) in every component has to equal
    rho(T) applied to the component tuple, on every graded layer, up to
    the layer's sound precision.
    """
    form = f.as_ahol() if isinstance(f, VVForm) else f
    T = form.rep.T
    for layer in form.graded:
        prec = min(q.prec for q in layer)
        h = 1
        for q in layer:
            h = math.lcm(h, q.h)
        comps = [q.rescale_lattice(h) for q in layer]
        bound = prec * h
        keys = set()
        for q in comps:
            keys.update(n for n in q.terms if n < bound)
        zero = CycNum.zero()
        for n in sorted(keys):
            vec = [q.terms.get(n, zero) for q in comps]
            phase = CycNum.zeta(h, n % h) if n % h else CycNum.one()
            for i in range(len(vec)):
                lhs = phase * vec[i]
                rhs = zero
                for j in range(len(vec)):
                    tij = T[i, j]
                    if not tij.is_zero():
                        rhs = rhs + tij * vec[j]
                if lhs != rhs:
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
    base = eisenstein(k, prec * M).as_ahol()
    te = _hecke.hecke_form(M, base)
    span = FormSpan()
    for tag, image in projections(te, [target]):
        span.add(image, provenance=f"phi[{tag}] . T{M}(E{k})")
    return span
