"""Almost-holomorphic forms and the raising/lowering operators.

The grading variable is Y = 1/(4*pi*y) and the operators are rescaled to
R^ = R/(4*pi), L^ = 4*pi*L so that every coefficient stays in the
cyclotomic field; span membership is unaffected by these nonzero scalings.
On a graded piece g_r * Y^r of a weight-k form,

    R^ : -theta(g_r) Y^r + (k - r) g_r Y^(r+1),
    L^ : -r g_r Y^(r-1),

with theta = q d/dq.  Depth d means L^ applied d+1 times annihilates the
form while L^ applied d times does not; holomorphic forms have depth 0.
The operator at infinity and its closure act on spans and live in
`hyperalg`, which this module does not import.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exactnum import Immutable, json_int
from .linalg import Matrix
from .qexp import QExp, combine_terms
from .reps import Rep, is_intertwiner, require_same_content


class AholForm(Immutable):
    """Depth-graded form: graded[r] is the component tuple of Y^r."""

    __slots__ = ("weight", "rep", "graded", "prec", "name")

    def __init__(self, weight: int, rep: Rep, graded, name: str = ""):
        graded = [tuple(layer) for layer in graded]
        if not graded:
            raise ValueError("at least one graded layer is required")
        for layer in graded:
            if len(layer) != rep.dim:
                raise ValueError(
                    f"layer has {len(layer)} components, type has dimension {rep.dim}"
                )
        while len(graded) > 1 and all(q.is_zero() for q in graded[-1]):
            graded.pop()
        prec = min(q.prec for layer in graded for q in layer)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "graded", tuple(graded))
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "name", name)

    @property
    def depth(self) -> int:
        return len(self.graded) - 1

    @property
    def components(self) -> tuple:
        """Depth-0 component tuple (the holomorphic case)."""
        if self.depth != 0:
            raise ValueError(f"form has depth {self.depth}, not 0")
        return self.graded[0]

    @staticmethod
    def holomorphic(weight: int, rep: Rep, components, name: str = "") -> "AholForm":
        return AholForm(weight, rep, [tuple(components)], name=name)

    @staticmethod
    def zero(weight: int, rep: Rep, prec) -> "AholForm":
        return AholForm(weight, rep, [(QExp.zero(prec),) * rep.dim])

    def is_zero(self) -> bool:
        return all(q.is_zero() for layer in self.graded for q in layer)

    def scaled(self, s) -> "AholForm":
        return AholForm(
            self.weight,
            self.rep,
            [[q.scaled(s) for q in layer] for layer in self.graded],
            name=self.name,
        )

    def __add__(self, other: "AholForm") -> "AholForm":
        if self.weight != other.weight or self.rep.label != other.rep.label:
            raise ValueError("can only add forms of equal weight and type")
        require_same_content(self.rep, other.rep)
        layers = [b if a is None else a if b is None else [x + y for x, y in zip(a, b)]
                  for a, b in itertools.zip_longest(self.graded, other.graded)]
        return AholForm(self.weight, self.rep, layers)

    def __sub__(self, other: "AholForm") -> "AholForm":
        return self + other.scaled(-1)

    def truncate(self, prec) -> "AholForm":
        return AholForm(
            self.weight,
            self.rep,
            [[q.truncate(min(q.prec, Fraction(prec))) for q in layer] for layer in self.graded],
            name=self.name,
        )

    def agrees_with(self, other: "AholForm", prec=None) -> bool:
        if self.weight != other.weight or self.depth != other.depth:
            return False
        for a, b in zip(self.graded, other.graded):
            for x, y in zip(a, b):
                if not x.agrees_with(y, prec):
                    return False
        return True

    def __repr__(self):
        tag = self.name or "form"
        return f"AholForm({tag}: weight {self.weight}, type {self.rep.label}, depth {self.depth})"

    def to_json(self, registry=None):
        """The `graded` layout with the type inline.

        With a registry, the type is its label when the registry holds it,
        and a holomorphic form takes the `components` layout.
        """
        held = registry is not None and self.rep.label in registry
        obj = {
            "weight": self.weight,
            "type": self.rep.label if held else self.rep.to_json(),
            "h": max(q.h for layer in self.graded for q in layer),
            "prec": str(self.prec),
        }
        if registry is not None and self.depth == 0:
            obj["components"] = [q.to_json() for q in self.components]
        else:
            obj["depth"] = self.depth
            obj["graded"] = [[q.to_json() for q in layer] for layer in self.graded]
        return obj

    @staticmethod
    def from_json(obj, registry=None) -> "AholForm":
        """Read the `graded` layout or the holomorphic `components` layout.

        The type is inline JSON or a label looked up in the registry.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a form is a JSON object, got {type(obj).__name__}")
        if "type" not in obj:
            raise ValueError('a form has no "type" field')
        if "graded" not in obj and "components" not in obj:
            raise ValueError('a form has no "graded" or "components" field')
        t = obj["type"]
        if isinstance(t, str):
            if registry is None:
                raise ValueError(f"type label {t!r} requires a registry")
            rep = registry.get(t)
        else:
            rep = Rep.from_json(t)
            if not (check := rep.validate()).ok:
                raise ValueError(f"the form's type is not a representation: {check}")
        layers = obj["graded"] if "graded" in obj else [obj["components"]]
        if not isinstance(layers, list) or not all(isinstance(x, list) for x in layers):
            raise ValueError("form components are a list of series, graded layers a list of them")
        graded = [[QExp.from_json(q) for q in layer] for layer in layers]
        return AholForm(json_int(obj, "weight", "form"), rep, graded)


def raise_op(f: AholForm, weight: int | None = None) -> AholForm:
    """Weight-raising operator; weight k+2, depth at most d+1.

    `weight` overrides the weight parameter in the operator formula (the
    operator pencil R^_k), used by the fixed-weight commutator identity;
    by default the form's own weight is used.
    """
    k = f.weight if weight is None else weight
    if f.weight % 2 != 0:
        raise ValueError(f"weight must be even, got {f.weight}")
    # layer r is zero + (k - r + 1) g_(r-1) + (-theta g_r), a missing g read as zero
    zero = QExp.zero(f.prec)
    raised = [[zero] * f.rep.dim] + [[q.scaled(k - r) for q in layer] for r, layer in enumerate(f.graded)]
    thetas = [[-q.theta() for q in layer] for layer in f.graded] + [[zero] * f.rep.dim]
    layers = [[zero + x + y for x, y in zip(a, b)] for a, b in zip(raised, thetas)]
    return AholForm(f.weight + 2, f.rep, layers, name=f"R({f.name})" if f.name else "")


def lower_op(f: AholForm) -> AholForm:
    """Weight-lowering operator; annihilates holomorphic forms."""
    if f.depth == 0:
        return AholForm.zero(f.weight - 2, f.rep, f.prec)
    layers = [[q.truncate(f.prec).scaled(-r) for q in f.graded[r]] for r in range(1, f.depth + 1)]
    return AholForm(f.weight - 2, f.rep, layers, name=f"L({f.name})" if f.name else "")


def ahol_decompose(f: AholForm) -> list:
    """Holomorphic layers h_t with f = sum_t R^^t h_t, exactly.

    Computed top down: h_d = graded[d] / (k-2d)...(k-d-1), subtract
    R^^d h_d, recurse.  Raises when an upper factorial vanishes, which is
    excluded when k - 2*depth >= 2.
    """
    k = f.weight
    rest = f
    parts: list = []
    for t in range(f.depth, 0, -1):
        if rest.depth < t:
            parts.append(AholForm.zero(k - 2 * t, f.rep, rest.prec))
            continue
        fac = math.prod(range(k - 2 * t, k - t))
        if fac == 0:
            raise ArithmeticError(
                f"depth decomposition obstructed: ({k - 2 * t}) rising {t} vanishes"
            )
        h = AholForm.holomorphic(
            k - 2 * t, f.rep, [q.scaled(Fraction(1, fac)) for q in rest.graded[t]]
        )
        parts.append(h)
        lifted = h
        for _ in range(t):
            lifted = raise_op(lifted)
        rest = rest - lifted
    parts.append(AholForm.holomorphic(k, f.rep, rest.graded[0]))
    parts.reverse()
    return parts


def apply_intertwiner(phi: Matrix, f: AholForm, target: Rep) -> AholForm:
    """phi(f) on every graded layer, made by `_images` at its conductor rule.
    This public path checks that phi intertwines; `hyperalg.projections`
    applies maps from `hom_space` through `_images` unchecked."""
    if not is_intertwiner(phi, f.rep, target):
        raise ValueError("matrix does not intertwine the source and target types")
    return _images(f, None, [(phi, target)], _image_name(f.name))[0]


def _images(f: AholForm, g: AholForm | None, maps, name: str) -> list:
    """phi(f (x) g) for each (phi, target) of maps, phi(f) for g = None.

    One `qexp.combine_terms` call per layer s; row a sums the terms
    phi[a, i*dim_g + j] * f.graded[t][i] * g.graded[s - t][j] (phi[a, i] *
    f.graded[s][i] for g = None), so each product f_i g_j is made once for
    every row and map.  A coefficient has the lcm of the conductors of every
    term of its row that reaches it, even where the sum cancels; a zero map
    row is QExp.zero at the least precision of the layer's factors."""
    # without g, one layer of one factor None: each term is c * f_i alone
    gs = [(None,)] if g is None else g.graded
    dg, layers = len(gs[0]), []
    for s in range(f.depth + len(gs)):
        pairs = [(f.graded[t], gs[s - t]) for t in range(f.depth + 1) if 0 <= s - t < len(gs)]
        rows = [[(c, fs[k // dg], ys[k % dg])
                 for fs, ys in pairs for k, c in phi.nonzeros[a].items()]
                for phi, target in maps for a in range(target.dim)]
        precs = [q.prec for fs, ys in pairs for q in fs + ys if q is not None]
        layers.append(combine_terms(rows, min(precs)))
    return _split(layers, maps, f.weight + (0 if g is None else g.weight), name)


def _split(layers, maps, weight: int, name: str) -> list:
    """The image of each (phi, target) of maps: the next target.dim rows of every layer."""
    out, start = [], 0
    for _, target in maps:
        out.append(AholForm(weight, target, [x[start : start + target.dim] for x in layers],
                            name=name))
        start += target.dim
    return out


def _image_name(source: str) -> str:
    """The name of a basis-map image: phi(source), unnamed for an unnamed source."""
    return f"phi({source})" if source else ""
