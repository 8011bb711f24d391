"""Command-line interface and the verification harness.

Exit codes: 0 all expectations hold, 1 an expectation failed, 2 usage,
input or precision error, reported in one line on stderr.  Reports are
deterministic up to one timestamp header line in text format; JSON output
carries no timestamp at all.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .ahol import AholForm, _images, ahol_decompose, apply_intertwiner, lower_op, raise_op
from .exactnum import CycNum, divisors
from .forms import bracket_projections, delta_form, eisenstein, vv_eisenstein
from .hecke import delta_cosets, hecke_form, hecke_rep
from .hyperalg import FormSpan, hyper_tensor, span_contains, sturm_bound, tinf_closure
from .linalg import Matrix
from .qexp import InsufficientPrecision
from .reps import (
    Rep,
    RepRegistry,
    builtin_registry,
    decompose,
    hom_fixed_subspace,
    hom_space,
    is_intertwiner,
    matrix_to_fixed_vector,
)


def load_bundled_registry() -> RepRegistry:
    return builtin_registry()


def load_registry(path: str | None) -> RepRegistry:
    if path is None:
        return load_bundled_registry()
    with open(path) as f:
        return RepRegistry.from_json(json.load(f))


# ---------------------------------------------------------------------------
# harness plumbing

class Report:
    def __init__(self, command: str):
        self.command, self.cases = command, []

    def case(self, name: str, parameters: dict, expected, ok, observed=None,
             diagnostics: str = "", provenance: str = "derived"):
        """Record one case: it passes or fails by ok, and ok=None skips it."""
        status = "skipped" if ok is None else "pass" if ok else "fail"
        self.cases.append(SimpleNamespace(
            name=name, parameters=parameters, expected=expected, observed=observed,
            provenance=provenance, status=status, diagnostics=diagnostics))

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.cases)

    def to_json(self):
        return {
            "command": self.command,
            "ok": self.ok,
            "cases": [dict(vars(c)) for c in self.cases],
        }

    def to_text(self, timestamp: bool = True) -> str:
        lines = [f"# vvmf verify {self.command}"]
        if timestamp:
            lines.append(f"# generated-at: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
        for c in self.cases:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[c.status]
            params = " ".join(f"{k}={v}" for k, v in sorted(c.parameters.items()))
            line = f"{mark} {c.name}"
            if params:
                line += f" [{params}]"
            line += f" expected={c.expected} observed={c.observed} ({c.provenance})"
            if c.diagnostics:
                line += f" -- {c.diagnostics}"
            lines.append(line)
        passed = sum(1 for c in self.cases if c.status == "pass")
        failed = sum(1 for c in self.cases if c.status == "fail")
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'} {passed}/{len(self.cases)} cases"
            + (f" ({failed} failing)" if failed else "")
        )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# golden inputs for the worked tensor-square example

def _example_intertwiners():
    """Golden intertwiner matrices out of rho3 (x) rho3."""
    z = CycNum.zeta(3)
    half = Fraction(1, 2)
    phi_triv = Matrix.from_rows([[1, half, half, half, 1, half, half, half, 1]])
    phi_zeta = Matrix.from_rows([[1, z + 1, -z, z + 1, z, -1, -z, -1, -z - 1]])
    phi_zeta2 = Matrix.from_rows([[1, -z, z + 1, -z, -z - 1, -1, z + 1, -1, z]])
    phi_rho3_1 = Matrix.from_rows(
        [
            [1, 0, -1, -1, -1, -2, 0, 1, -1],
            [-1, 0, 1, -1, 1, 0, -2, -1, -1],
            [-1, -2, -1, 1, -1, 0, 0, -1, 1],
        ]
    )
    phi_rho3_2 = Matrix.from_rows(
        [
            [0, 1, -1, -1, 0, -3, 1, 3, 0],
            [0, 1, 3, -1, 0, 1, -3, -1, 0],
            [0, -3, -1, 3, 0, 1, 1, -1, 0],
        ]
    )
    return {
        "triv": [phi_triv],
        "rho_zeta": [phi_zeta],
        "rho_zeta2": [phi_zeta2],
        "rho3": [phi_rho3_1, phi_rho3_2],
    }


def _example_projection_matrix() -> Matrix:
    """Golden projection from the four coset components to the rho3 type."""
    third = Fraction(1, 3)
    return Matrix.from_rows(
        [
            [1, -third, -third, -third],
            [-third, 1, -third, -third],
            [-third, -third, 1, -third],
        ]
    )


GOLDEN_COEFFS = (
    Fraction(564856947200, 1594323),
    Fraction(-1894333004462080000, 84584326707),
    Fraction(-1261863434802833408000, 28194775569),
)


def verify_example32(registry: RepRegistry | None = None, prec: int | None = None) -> Report:
    """Recompute the worked tensor-square example against its golden data."""
    reg = registry or load_bundled_registry()
    report = Report("example32")
    rr = reg.get("rho3").tensor(reg.get("rho3"))

    expected_dims = {"triv": 1, "rho3": 2, "rho_zeta": 1, "rho_zeta2": 1}
    dims = {lbl: len(hom_space(rr, reg.get(lbl))) for lbl in expected_dims}
    report.case("hom-dimensions", {"source": "rho3*rho3"}, expected_dims, dims == expected_dims,
                dims, provenance="paper")

    reference = _example_intertwiners()
    for lbl, mats in sorted(reference.items()):
        target = reg.get(lbl)
        sub = hom_fixed_subspace(rr, target)
        for i, phi in enumerate(mats):
            inter = is_intertwiner(phi, rr, target)
            member = sub.member(matrix_to_fixed_vector(phi))
            report.case(f"reference-intertwiner-{lbl}-{i}", {"target": lbl},
                        "member of computed hom space", inter and member,
                        f"intertwines={inter} member={member}", provenance="paper")

    qprec = prec if prec is not None else max(sturm_bound(24, 1), 6)
    base = eisenstein(12, 9 * max(1, (qprec + 2) // 3))
    t3 = hecke_form(3, base)
    e12rho3 = apply_intertwiner(_example_projection_matrix(), t3, reg.get("rho3"))
    # the golden trivial map projects the square as hyper_tensor projects it
    triv_map = [(reference["triv"][0], reg.get("triv"))]
    comp = _images(e12rho3, e12rho3, triv_map, "")[0].components[0]
    got = []
    ok = True
    for n, want in enumerate(GOLDEN_COEFFS):
        c = comp.coeff(n)
        got.append(str(c))
        ok = ok and c == CycNum.from_rational(want)
    fractional_zero = all(
        comp.coeff(Fraction(n, 3)).is_zero() for n in range(1, 9) if n % 3
    )
    report.case("trivial-type-expansion", {"prec": 3}, [str(x) for x in GOLDEN_COEFFS],
                ok and fractional_zero, got,
                "" if fractional_zero else "nonzero fractional exponent", provenance="paper")
    return report


def _exhaustive_genus2_count(M: int) -> int:
    """Brute-force oracle: admissible entry ranges, similitude filter."""
    from .hecke import _assemble, _is_similitude

    count = 0
    arange = range(-M, M + 1)
    for d11 in range(1, M + 1):
        for d22 in range(1, M + 1):
            for d12 in range(d22):
                d = [[d11, d12], [0, d22]]
                good_a = []
                for a11 in arange:
                    for a12 in arange:
                        for a21 in arange:
                            for a22 in arange:
                                a = [[a11, a12], [a21, a22]]
                                # t(a) d = M I
                                if (
                                    a11 * d11 == M
                                    and a11 * d12 + a21 * d22 == 0
                                    and a12 * d11 == 0
                                    and a12 * d12 + a22 * d22 == M
                                ):
                                    good_a.append(a)
                for a in good_a:
                    for b11 in range(d11):
                        for b12 in range(d22):
                            for b21 in range(d11):
                                for b22 in range(d22):
                                    b = [[b11, b12], [b21, b22]]
                                    mat = _assemble(a, b, d, 2)
                                    if _is_similitude(mat, 2, M):
                                        count += 1
    return count


def _same_left_coset(m1, m2, genus: int, M: int) -> bool:
    """Whether m1 m2^-1 is in Sp(2g, Z), for m1 and m2 of similitude M.

    t(m2) J m2 = M J gives m2^-1 = J^-1 t(m2) J / M, and m1 m2^-1 has
    similitude 1, so it is in Sp(2g, Z) exactly when M divides every entry
    of m1 J^-1 t(m2) J; that is m1 t(m2 J) J, as J^-1 = t(J).
    """
    from .hecke import _int_mul, _symplectic_form

    jm = _symplectic_form(genus)
    prod = _int_mul(_int_mul(m1, list(zip(*_int_mul(m2, jm)))), jm)
    return all(x % M == 0 for row in prod for x in row)


def verify_counts() -> Report:
    report = Report("counts")
    for M in range(1, 13):
        got, expect = len(delta_cosets(1, M)), sum(divisors(M))
        report.case("coset-count-genus1", {"M": M}, expect, got == expect, got)
    for p in (2, 3):
        expect = (1 + p) * (1 + p * p)
        got = len(delta_cosets(2, p))
        oracle = _exhaustive_genus2_count(p)
        report.case("coset-count-genus2", {"p": p}, {"closed-form": expect, "exhaustive": oracle},
                    got == expect and got == oracle, got)
    # left-coset distinctness
    for genus, indices in ((1, range(2, 13)), (2, (2, 3))):
        for M in indices:
            cosets = delta_cosets(genus, M)
            bad = sum(
                _same_left_coset(m1.mat, m2.mat, genus, M)
                for i, m1 in enumerate(cosets)
                for m2 in cosets[i + 1 :]
            )
            report.case("left-coset-distinctness", {"genus": genus, "M": M}, 0, bad == 0, bad)
    return report


def _desk_cusp_form(k: int, prec) -> AholForm | None:
    """Generator of the one-dimensional cusp spaces at desk scale."""
    if k == 12:
        return delta_form(prec)
    if k in (16, 18, 20, 22):
        d = delta_form(prec)
        e = eisenstein(k - 12, prec)
        return AholForm.holomorphic(k, d.rep, [d.components[0] * e.components[0]])
    return None


def thm11_span(k: int, l: int, l2: int, hecke_indices, prec, registry: RepRegistry) -> FormSpan:
    """The weight-k triv grade spanned by products of Hecke images of E_l and E_l2.

    For F = T_M(E_l), G = T_M(E_l2), t = (k - l - l2)/2 and a + b = t, the
    weight-k holomorphic layer h0 of R^a F (x) R^b G is a nonzero rational
    multiple of the bracket [F, G]_t, and projections commute with it.  So
    the projected brackets span that grade, and each one that survives is
    named after the product F (x) R^t G, the first of its t + 1 products.
    """
    t = (k - l - l2) // 2
    triv = [registry.get("triv")]
    span = FormSpan()
    for M in sorted(hecke_indices):
        # the grade is read at prec, while coset components of T_M(E_w) reach prec * M^2
        images = {w: hecke_form(M, e).truncate(prec) if M > 1 else e
                  for w in {l, l2} for e in [eisenstein(w, prec * M)]}
        tl, tr = images[l], images[l2]
        name = f"({tl.name} (x) {'R(' * t}{tr.name}{')' * t})"
        for tag, image in bracket_projections(tl, tr, t, triv):
            prov = f"phi[{tag}] . {name}"
            span.add(image, provenance=f"h0[{prov}]" if t else prov)
    return span


def verify_thm11(
    k: int = 12,
    l: int = 4,
    l2: int = 8,
    hecke_indices=(1, 2),
    prec: int | None = None,
    registry: RepRegistry | None = None,
) -> Report:
    """Span of Hecke-tensored Eisenstein products versus the cusp space."""
    if l < 4 or l2 < 4 or l % 2 or l2 % 2:
        raise ValueError("Eisenstein weights must be even and >= 4")
    if k < l + l2 or k % 2:
        raise ValueError("target weight must be even and >= l + l2")
    hecke_indices = list(hecke_indices)
    if not hecke_indices or min(hecke_indices) < 1 or len(set(hecke_indices)) < len(hecke_indices):
        raise ValueError(f"Hecke indices must be distinct and positive, got {hecke_indices}")
    reg = registry or load_bundled_registry()
    report = Report("thm11")
    t = (k - l - l2) // 2
    if prec is None:
        prec = max(sturm_bound(k, 1), 6)
    params = {"k": k, "l": l, "l2": l2, "indices": hecke_indices, "prec": prec}
    final = thm11_span(k, l, l2, hecke_indices, prec, reg)

    cusp = _desk_cusp_form(k, prec)
    if cusp is None:
        report.case("cusp-membership", params, "skipped", None,
                    diagnostics=f"no desk-scale cusp generator for weight {k}")
    else:
        # F = G when l == l2, and an odd bracket [F, F]_t vanishes under the
        # symmetric pairing into triv: no weight-k triv layer, no member
        degenerate = l == l2 and t % 2 == 1
        why = (
            f"l == l2 and t = {t} is odd, so the bracket [F, F]_{t} of each Hecke image F "
            f"vanishes under the symmetric pairing and the weight-{k} triv grade is empty; "
            if degenerate
            else ""
        )
        member = span_contains(final, cusp, prec)
        certifying = [prov for _, prov in final.generators((k, "triv"))]
        report.case("cusp-membership", params, not degenerate, member != degenerate, member,
                    why + "generators: " + "; ".join(certifying))
    if t == 0 and cusp is not None:
        # with the Eisenstein series restored, the graded piece is all of M(k)
        eis = eisenstein(k, prec)
        final.add(eis)
        dim = final.grade_dimension((k, "triv"))
        both = span_contains(final, cusp, prec) and span_contains(final, eis, prec)
        report.case("eisenstein-complement", params, 2, dim == 2 and both, dim)
    return report


# the verify targets, in the order `verify all` runs them, each run with
# the parsed options and the registry
VERIFY_RUNNERS = {
    "example32": lambda args, reg: verify_example32(registry=reg, prec=args.prec),
    "counts": lambda args, reg: verify_counts(),
    "thm11": lambda args, reg: verify_thm11(
        args.k, args.l, args.l2, [int(x) for x in args.indices.split(",")], args.prec, reg
    ),
}


# ---------------------------------------------------------------------------
# type expression parsing: label, T<M>(expr), expr*expr

def parse_rep_expr(expr: str, registry: RepRegistry) -> Rep:
    text = expr.replace(" ", "")
    rep, rest = _parse_tensor(text, registry)
    if rest:
        raise ValueError(f"trailing input in type expression: {rest!r}")
    return rep


def _parse_tensor(text: str, registry: RepRegistry):
    rep, rest = _parse_atom(text, registry)
    while rest.startswith("*"):
        nxt, rest = _parse_atom(rest[1:], registry)
        rep = rep.tensor(nxt)
    return rep, rest


def _parse_atom(text: str, registry: RepRegistry):
    if text.startswith("T") and "(" in text:
        head, _, tail = text.partition("(")
        if head[1:].isdigit() and head[1:].isascii():
            inner, rest = _parse_tensor(tail, registry)
            if not rest.startswith(")"):
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            return hecke_rep(int(head[1:]), inner).rep, rest[1:]
    # a label runs to the next '*' or unmatched ')' and may hold (...) groups
    label = re.match(r"(?:[^*()]|\([^*()]*\))*", text).group()
    if label in registry:
        return registry.get(label), text[len(label):]
    if label:
        raise ValueError(f"no registry entry labelled {label!r}")
    raise ValueError(f"cannot parse type expression {text!r}")


# ---------------------------------------------------------------------------
# file helpers

def load_form(path: str, registry: RepRegistry) -> AholForm:
    with open(path) as f:
        return AholForm.from_json(json.load(f), registry)


def emit(payload: str, out: str | None):
    if out:
        with open(out, "w") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)


def _form_text(f: AholForm) -> str:
    lines = [f"weight {f.weight}  type {f.rep.label}  depth {f.depth}  prec {f.prec}"]
    for r, layer in enumerate(f.graded):
        for i, q in enumerate(layer):
            prefix = f"Y^{r} " if f.depth else ""
            lines.append(f"  {prefix}[{i}] {q.to_text()}")
    return "\n".join(lines) + "\n"


def _span_text(span: FormSpan) -> str:
    lines = []
    for (w, lbl) in span.grades():
        gens = span.generators((w, lbl))
        lines.append(f"grade weight={w} type={lbl} dimension={len(gens)}")
        for form, prov in gens:
            lines.append(f"  generator [{prov}]")
            for ln in _form_text(form).splitlines():
                lines.append("  " + ln)
    return ("\n".join(lines) + "\n") if lines else "empty span\n"


# ---------------------------------------------------------------------------
# entry point

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given a subcommand's name, with its parser only."""
    ap = argparse.ArgumentParser(prog="vvmf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, text):
        return sub.add_parser(name, help=text) if command in (None, name) else None

    def common(p):
        p.add_argument("--registry", help="registry JSON path (default: bundled)")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="text")

    if p := add("eis", "level-1 Eisenstein series"):
        p.add_argument("--weight", type=int, required=True)
        p.add_argument("--prec", type=int, required=True)
        common(p)

    if p := add("vveis", "vector-valued Eisenstein span via coset operators"):
        p.add_argument("--weight", type=int, required=True)
        p.add_argument("--type", dest="type_expr", required=True)
        p.add_argument("--index", type=int, required=True)
        p.add_argument("--prec", type=int, required=True)
        common(p)

    if p := add("hecke", "coset enumeration and operator application"):
        hsub = p.add_subparsers(dest="hecke_command", required=True)
        pc = hsub.add_parser("cosets")
        pc.add_argument("--genus", type=int, default=1)
        pc.add_argument("--index", type=int, required=True)
        pc.add_argument("--count-only", action="store_true")
        common(pc)
        pa = hsub.add_parser("apply")
        pa.add_argument("--index", type=int, required=True)
        pa.add_argument("--form", required=True)
        common(pa)

    if p := add("homspace", "intertwiner basis between two types"):
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
        common(p)

    if p := add("decompose", "isotypic decomposition against the registry"):
        p.add_argument("--rep", required=True)
        common(p)

    if p := add("hyperprod", "hyper-product span of two forms"):
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--targets", help="registry JSON of projection targets")
        p.add_argument("--prec", type=int)
        common(p)

    if p := add("ahol", "operators on depth-graded forms"):
        asub = p.add_subparsers(dest="ahol_command", required=True)
        for name in ("raise", "lower", "decompose"):
            pa = asub.add_parser(name)
            pa.add_argument("--form", required=True)
            common(pa)
        pc = asub.add_parser("closure")
        pc.add_argument("--span", required=True)
        pc.add_argument("--window", required=True, help="kmin:kmax")
        pc.add_argument("--max-rounds", type=int, default=10)
        common(pc)

    if p := add("verify", "verification harness"):
        p.add_argument("target", choices=(*VERIFY_RUNNERS, "all"))
        p.add_argument("--k", type=int, default=12)
        p.add_argument("--l", type=int, default=4)
        p.add_argument("--l2", type=int, default=8)
        p.add_argument("--indices", default="1,2", help="comma separated Hecke indices")
        p.add_argument("--prec", type=int)
        common(p)
    return ap if sub.choices else build_parser()


def run(args) -> int:
    for opt in ("prec", "index", "max_rounds"):
        value = getattr(args, opt, None)
        if value is not None and value < 1:
            raise ValueError(f"--{opt.replace('_', '-')} must be positive, got {value}")
    if not re.fullmatch(r"-?\d+(,-?\d+)*", indices := getattr(args, "indices", "1")):
        raise ValueError(f"--indices must be comma separated integers, got {indices!r}")
    registry = load_registry(getattr(args, "registry", None))

    # each command gives its JSON body and a text renderer; only a failed
    # verify expectation makes the exit code 1
    ok = True
    if args.command == "eis":
        form = eisenstein(args.weight, args.prec)
        body, text = form.to_json(registry), lambda: _form_text(form)
    elif args.command == "vveis":
        target = parse_rep_expr(args.type_expr, registry)
        span = vv_eisenstein(args.weight, target, args.index, args.prec)
        body, text = span.to_json(), lambda: _span_text(span)
    elif args.command == "hecke" and args.hecke_command == "cosets":
        cosets = delta_cosets(args.genus, args.index)
        if args.count_only:
            # the bare count, the same in both formats
            body, text = len(cosets), lambda: f"{len(cosets)}\n"
        else:
            body = [[list(r) for r in c.mat] for c in cosets]
            lines = [" ".join(str(x) for x in row) for c in cosets for row in c.mat + ((),)]
            text = lambda: "\n".join(lines).rstrip() + "\n"
    elif args.command == "hecke":
        image = hecke_form(args.index, load_form(args.form, registry))
        body, text = image.to_json(), lambda: _form_text(image)
    elif args.command == "homspace":
        src = parse_rep_expr(args.source, registry)
        dst = parse_rep_expr(args.target, registry)
        basis = hom_space(src, dst)
        body = {
            "source": args.source,
            "target": args.target,
            "dimension": len(basis),
            "basis": [m.to_json() for m in basis],
        }
        text = lambda: "".join(
            [f"dim hom({args.source}, {args.target}) = {len(basis)}\n"]
            + [f"basis[{i}] = {m!r}\n" for i, m in enumerate(basis)]
        )
    elif args.command == "decompose":
        rep = parse_rep_expr(args.rep, registry)
        result = decompose(rep, registry)
        body = {
            "rep": args.rep,
            "multiplicities": dict(sorted(result.multiplicities.items())),
            "residual_dim": result.residual.dim if result.residual else 0,
            "residual_split": [r.label for r in result.residual_split],
            "residual_flagged": result.residual_flagged,
        }
        text = lambda: (
            f"{args.rep}: {body['multiplicities']} residual_dim={body['residual_dim']}"
            f" flagged={body['residual_flagged']}\n"
        )
    elif args.command == "hyperprod":
        targets = load_registry(args.targets) if args.targets else registry
        left = load_form(args.left, registry)
        right = load_form(args.right, registry)
        if args.prec:
            left = left.truncate(min(left.prec, args.prec))
            right = right.truncate(min(right.prec, args.prec))
        span = hyper_tensor(left, right, targets)
        body, text = span.to_json(), lambda: _span_text(span)
    elif args.command == "ahol" and args.ahol_command == "closure":
        with open(args.span) as f:
            span = FormSpan.from_json(json.load(f), registry)
        window = re.fullmatch(r"(-?\d+):(-?\d+)", args.window)
        if window is None:
            raise ValueError(f"--window must be kmin:kmax, got {args.window!r}")
        closure, stabilized = tinf_closure(
            span, tuple(map(int, window.groups())), args.max_rounds, registry
        )
        body = dict(closure.to_json(), stabilized=stabilized)
        text = lambda: f"stabilized: {stabilized}\n" + _span_text(closure)
    elif args.command == "ahol":
        form = load_form(args.form, registry)
        if args.ahol_command == "raise":
            result = [raise_op(form)]
        elif args.ahol_command == "lower":
            result = [lower_op(form)]
        else:
            result = ahol_decompose(form)
        body = result[0].to_json() if len(result) == 1 else [f.to_json() for f in result]
        text = lambda: "".join(_form_text(f) for f in result)
    elif args.command == "verify":
        targets = list(VERIFY_RUNNERS) if args.target == "all" else [args.target]
        reports = [VERIFY_RUNNERS[t](args, registry) for t in targets]
        body = reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports]
        text = lambda: "".join(r.to_text() for r in reports)
        ok = all(r.ok for r in reports)
    else:
        raise ValueError(f"unknown command {args.command!r}")
    if args.format == "json":
        text = lambda: json.dumps(body, indent=1, sort_keys=True) + "\n"
    emit(text(), args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv else None)  # the full tree takes milliseconds
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (ValueError, KeyError, OSError, ArithmeticError, InsufficientPrecision) as exc:
        message = exc
    except RecursionError:
        message = "the input is nested too deeply (maximum recursion depth exceeded)"
    except MemoryError:
        message = "out of memory; the input is too large"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
