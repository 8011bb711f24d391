import argparse
import hashlib
import json
import random
from fractions import Fraction

import pytest

from vvmf.ahol import ahol_decompose, raise_op
from vvmf.cli import (
    _coset_key,
    _desk_cusp_form,
    build_parser,
    main,
    parse_rep_expr,
    thm11_span,
    verify_counts,
    verify_example32,
    verify_thm11,
)
from vvmf.forms import eisenstein, vv_eisenstein
from vvmf.hecke import _is_similitude, delta_cosets, hecke_form
from vvmf.hyperalg import FormSpan, hyper_tensor, sturm_bound
from vvmf.reps import builtin_registry


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bundled_registry_contents(reg):
    assert [e.label for e in reg] == ["triv", "rho3", "rho_zeta", "rho_zeta2"]


def test_verify_example32_report():
    report = verify_example32()
    assert report.ok
    names = [c.name for c in report.cases]
    assert "hom-dimensions" in names
    assert "trivial-type-expansion" in names
    assert sum(1 for n in names if n.startswith("reference-intertwiner")) == 5
    assert all(c.provenance == "paper" for c in report.cases)


def test_verify_counts_report():
    report = verify_counts()
    assert report.ok
    assert all(c.provenance in ("derived", "trivial") for c in report.cases)


def fraction_inverse(m):
    """Inverse of an invertible integer matrix: Gauss-Jordan over Fraction."""
    n = len(m)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def rational_same_left_coset(m1, m2, genus):
    """m1 m2^-1 through the rational inverse of m2: integral and symplectic."""
    n, inv = 2 * genus, fraction_inverse(m2)
    prod = [[sum(Fraction(m1[r][k]) * inv[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]
    if any(x.denominator != 1 for row in prod for x in row):
        return False
    return _is_similitude([[int(x) for x in row] for row in prod], genus, 1)


def _int_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _translation(S):
    """(I S; 0 I) in Sp(2g, Z) for an integral symmetric g x g matrix S."""
    g = len(S)
    return tuple(tuple(int(i == j) for j in range(g)) + tuple(S[i]) for i in range(g)) + tuple(
        (0,) * g + tuple(int(i == j) for j in range(g)) for i in range(g))


@pytest.mark.parametrize("genus, indices", [(1, range(1, 7)), (2, (2, 3, 6))])
def test_same_left_coset_matches_rational_inverse(genus, indices):
    """The key of verify counts against m1 m2^-1 computed over the rationals:
    m' = (a, b + S d; 0, d) = (I S; 0 I) m, for a random integral symmetric S,
    has the key of m and lies in its coset; two listed cosets have different
    keys, and, where there are at most 40 of them, are different cosets."""
    rng = random.Random(2)
    for M in indices:
        cosets = [c.mat for c in delta_cosets(genus, M)]
        for m in cosets:
            S = [[0] * genus for _ in range(genus)]
            for i in range(genus):
                for j in range(i, genus):
                    S[i][j] = S[j][i] = rng.randint(-3, 3)
            moved = _int_product(_translation(S), m)
            assert _coset_key(moved, genus, M) == _coset_key(m, genus, M), (M, m, S)
            assert rational_same_left_coset(moved, m, genus), (M, m, S)
        assert len({_coset_key(m, genus, M) for m in cosets}) == len(cosets), M
        if len(cosets) <= 40:
            for i, m1 in enumerate(cosets):
                for m2 in cosets[i + 1 :]:
                    assert not rational_same_left_coset(m1, m2, genus), (M, m1, m2)


def test_verify_thm11_default_instance():
    report = verify_thm11()
    assert report.ok
    case = report.cases[0]
    assert case.name == "cusp-membership"
    assert "T2(E4) (x) T2(E8)" in case.diagnostics


def test_verify_thm11_skips_a_weight_without_a_desk_cusp_form(capsys):
    # S_14 has no desk-scale generator: one skipped case, which does not fail
    argv = ("verify", "thm11", "--k", "14", "--l", "4", "--l2", "6", "--indices", "1,2,3")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    digest = "57eef406ff0992c9270a799c46756fcd2d924a6f8b9a30668293076b40210455"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert [c["status"] for c in json.loads(out)["cases"]] == ["skipped"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [ln for ln in out.splitlines() if not ln.startswith("#")][0].startswith(
        "skip cusp-membership ")


def test_the_desk_table_covers_every_one_dimensional_cusp_space():
    # dim S_k = floor(k/12) - 1 for k = 2 mod 12, else floor(k/12), for even k >= 4:
    # the desk table has a generator exactly where that is 1, each a q-expansion
    # that starts at q^1 with coefficient 1
    for k in range(4, 60, 2):
        dim = k // 12 - (k % 12 == 2)
        form = _desk_cusp_form(k, 4)
        assert (form is not None) == (dim == 1), k
        if form is not None:
            series = form.components[0]
            assert (form.weight, series.coeff(0), series.coeff(1)) == (k, 0, 1)


@pytest.mark.parametrize("argv, member", [
    (("--k", "26", "--indices", "1,2"), True),
    (("--k", "26", "--indices", "1"), True),
    (("--k", "26", "--l", "6", "--l2", "10", "--indices", "1,3"), True),
    # l == l2 with t odd: the grade is empty, and no member is expected
    (("--k", "26", "--l", "8", "--l2", "8", "--indices", "1,2"), False),
    (("--k", "26", "--l", "6", "--l2", "6", "--indices", "1,2"), False),
])
def test_verify_thm11_checks_the_weight_26_cusp_space(capsys, argv, member):
    # S_26 is spanned by Delta * E14, so its membership is checked, not skipped
    code, out, _ = run_cli(capsys, "verify", "thm11", *argv, "--format", "json")
    assert code == 0
    cases = [(c["name"], c["status"], c["observed"]) for c in json.loads(out)["cases"]]
    assert cases == [("cusp-membership", "pass", member)]


def test_verify_thm11_fails_without_second_index():
    report = verify_thm11(hecke_indices=(1,))
    assert not report.ok


def test_verify_thm11_raised_weight_instance():
    # target weight above the sum forces one raising layer pair
    report = verify_thm11(k=16, l=4, l2=8, hecke_indices=(1, 2), prec=5)
    assert report.ok
    case = next(c for c in report.cases if c.name == "cusp-membership")
    assert case.observed is True
    assert case.parameters["k"] == 16


def test_cli_exit_codes(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "verify", "counts")
    assert code == 0
    # expectation failure surfaces as exit 1
    code, _, _ = run_cli(capsys, "verify", "thm11", "--indices", "1")
    assert code == 1
    # input errors surface as exit 2
    code, _, err = run_cli(capsys, "homspace", "--source", "nosuch", "--target", "triv")
    assert code == 2 and "error" in err



# one command line per subcommand and sub-subcommand, with its options
_COMMAND_LINES = [
    ["eis", "--weight", "4", "--prec", "5"],
    ["vveis", "--weight", "4", "--type", "rho3", "--index", "3", "--prec", "12", "--format", "json"],
    ["hecke", "cosets", "--genus", "2", "--index", "3", "--count-only"],
    ["hecke", "apply", "--index", "2", "--form", "f.json", "--out", "o.json"],
    ["homspace", "--source", "T3(rho3)", "--target", "rho3"],
    ["decompose", "--rep", "rho3", "--registry", "r.json"],
    ["hyperprod", "--left", "a.json", "--right", "b.json", "--targets", "t.json", "--prec", "9"],
    ["ahol", "raise", "--form", "f.json"],
    ["ahol", "lower", "--form", "f.json", "--format", "json"],
    ["ahol", "decompose", "--form", "f.json"],
    ["ahol", "closure", "--span", "s.json", "--window", "4:8", "--max-rounds", "3"],
    ["verify", "thm11", "--k", "20", "--l", "4", "--l2", "6", "--indices", "1,2,3"],
    ["verify", "all", "--prec", "7"],
]


def _subcommands(ap):
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_one_subcommand_parser_parses_as_the_full_tree():
    full = build_parser()
    assert {argv[0] for argv in _COMMAND_LINES} == set(_subcommands(full))
    for argv in _COMMAND_LINES:
        one = build_parser(argv[0])
        assert list(_subcommands(one)) == [argv[0]]
        assert one.parse_args(argv) == full.parse_args(argv)
    # a name that is no subcommand builds the full tree
    assert set(_subcommands(build_parser("bogus"))) == set(_subcommands(full))


def test_help_lists_every_subcommand_and_unknown_commands_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(name in out for name in _subcommands(build_parser()))
    for argv in (["bogus"], [], ["--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err

_ONE = {"n": 1, "c": ["1"]}
# a registry or form file whose matrix cell is a bare string, a registry
# whose entry is not an object, and registries with a coefficient or a whole
# matrix given as a JSON number
_BARE_CELL_TYPE = {"label": "triv", "level": 1, "S": [["1"]], "T": [[_ONE]]}
_SPAN_GEN = {"provenance": "E4", "form": {"type": "triv", "weight": 4, "components": [
    {"h": 1, "prec": "2", "terms": [[0, _ONE]]}]}}
_BAD_FILES = {
    "bare-cell.json": {"entries": [_BARE_CELL_TYPE]},
    "label-entry.json": {"entries": ["triv"]},
    "number-coefficient.json": {
        "entries": [{"label": "triv", "level": 1, "S": [[{"n": 1, "c": [1]}]], "T": [[_ONE]]}]
    },
    "number-matrix.json": {"entries": [{"label": "triv", "level": 1, "S": 5, "T": [[_ONE]]}]},
    "bare-cell-form.json": {
        "type": _BARE_CELL_TYPE,
        "weight": 4,
        "components": [{"h": 1, "prec": "2", "terms": [[0, _ONE]]}],
    },
    # form files with a malformed series or a malformed top level
    "terms-number.json": {"type": "triv", "weight": 4, "components": [
        {"h": 1, "prec": "2", "terms": 5}]},
    "series-number.json": {"type": "triv", "weight": 4, "components": [5]},
    "form-list.json": [{"type": "triv", "weight": 4, "components": []}],
    "fractional-exponent.json": {"type": "triv", "weight": 4, "components": [
        {"h": 1, "prec": "2", "terms": [[1.5, _ONE]]}]},
    "repeated-exponent.json": {"type": "triv", "weight": 4, "components": [
        {"h": 1, "prec": "2", "terms": [[1, _ONE], [1, _ONE]]}]},
    # registry and span files whose top level or generators have the wrong shape
    "registry-list.json": [{"label": "triv", "level": 1, "S": [[_ONE]], "T": [[_ONE]]}],
    "entries-number.json": {"entries": 5},
    "grades-number.json": {"grades": 3},
    "generator-string.json": {"grades": [
        {"weight": 4, "type": "triv", "dimension": 1, "generators": ["form"]}]},
    # a span generator and a registry entry, each missing a required field
    "generator-empty.json": {"grades": [
        {"weight": 4, "type": "triv", "dimension": 1, "generators": [{}]}]},
    "entry-without-label.json": {"entries": [{"level": 1, "S": [[_ONE]], "T": [[_ONE]]}]},
    # span grades that contradict their generators: another weight and type,
    # and a dimension the repeated generator does not reach
    "grade-other-weight.json": {"grades": [
        {"weight": 99, "type": "rho3", "dimension": 2, "generators": [_SPAN_GEN, _SPAN_GEN]}]},
    "grade-short-dimension.json": {"grades": [
        {"weight": 4, "type": "triv", "dimension": 2, "generators": [_SPAN_GEN, _SPAN_GEN]}]},
    # coordinate lists of the wrong length, which were read as 0, 6 and 0
    "long-at-4-form.json": {"type": "triv", "weight": 4, "components": [
        {"h": 1, "prec": "2", "terms": [[0, {"n": 4, "c": ["1", "0", "1"]}]]}]},
    "long-at-1-registry.json": {"entries": [
        {"label": "triv", "level": 1, "S": [[{"n": 1, "c": ["1", "2", "3"]}]], "T": [[_ONE]]}]},
    "empty-at-1-form.json": {"type": "triv", "weight": 4, "components": [
        {"h": 1, "prec": "2", "terms": [[0, {"n": 1, "c": []}]]}]},
    # a coordinate list long enough to pass from_json's size guard at n = 2 * 10^9;
    # counting phi(n) by n gcds ran past 60 s
    "huge-conductor-form.json": {"type": "triv", "weight": 4, "components": [
        {"h": 1, "prec": "2", "terms": [[0, {"n": 2000000000, "c": ["0"] * 31623}]]}]},
}
_GOOD_FORM = {"type": "triv", "weight": 4, "components": [
    {"h": 1, "prec": "2", "terms": [[0, _ONE]]}]}
# an unknown label that starts with a known one, options out of range and
# JSON objects without a required field; each error line names the label,
# the option or the field and its object
_NAMED_ERRORS = [
    ("label-with-trailing-text", ("homspace", "--source", "rho3x", "--target", "triv"),
     "no registry entry labelled 'rho3x'"),
    ("label-with-parenthesis", ("homspace", "--source", "rho3(x)", "--target", "triv"),
     "no registry entry labelled 'rho3(x)'"),
    # T<M> takes ASCII digits only; int() would read an Arabic-Indic one as 1
    ("hecke-index-non-ascii-digit", ("homspace", "--source", "T\u0661(triv)", "--target", "triv"),
     "no registry entry labelled 'T\u0661(triv)'"),
    ("hyperprod-zero-precision",
     ("hyperprod", "--left", "good-form.json", "--right", "good-form.json", "--prec", "0"),
     "--prec must be positive, got 0"),
    ("example32-zero-precision", ("verify", "example32", "--prec", "0"),
     "--prec must be positive, got 0"),
    ("example32-negative-precision", ("verify", "example32", "--prec", "-2"),
     "--prec must be positive, got -2"),
    ("vveis-zero-index", ("vveis", "--weight", "4", "--type", "rho3", "--index", "0", "--prec", "3"),
     "--index must be positive, got 0"),
    ("closure-negative-rounds",
     ("ahol", "closure", "--span", "span.json", "--window", "4:8", "--max-rounds", "-1"),
     "--max-rounds must be positive, got -1"),
    ("closure-window-without-colon", ("ahol", "closure", "--span", "span.json", "--window", "4"),
     "--window must be kmin:kmax, got '4'"),
    ("span-generator-without-form",
     ("ahol", "closure", "--span", "generator-empty.json", "--window", "4:8"),
     'a span generator has no "form" field'),
    ("span-grade-other-weight",
     ("ahol", "closure", "--span", "grade-other-weight.json", "--window", "4:8"),
     "the span declares grades {(99, 'rho3'): 2}, but its generators span {(4, 'triv'): 1}"),
    ("span-grade-short-dimension",
     ("ahol", "closure", "--span", "grade-short-dimension.json", "--window", "4:8"),
     "the span declares grades {(4, 'triv'): 2}, but its generators span {(4, 'triv'): 1}"),
    ("registry-entry-without-label",
     ("homspace", "--registry", "entry-without-label.json", "--source", "triv", "--target", "triv"),
     'a type has no "label" field'),
    # an empty or non-integer Hecke index was dropped, or reported by int()
    ("thm11-empty-inner-index", ("verify", "thm11", "--indices", "1,,2"),
     "--indices must be comma separated integers, got '1,,2'"),
    ("thm11-empty-last-index", ("verify", "thm11", "--indices", "1,2,"),
     "--indices must be comma separated integers, got '1,2,'"),
    ("thm11-non-integer-index", ("verify", "thm11", "--indices", "1,x"),
     "--indices must be comma separated integers, got '1,x'"),
    ("verify-all-empty-index", ("verify", "all", "--indices", "1,,2"),
     "--indices must be comma separated integers, got '1,,2'"),
    # the weights of verify thm11 are checked before any series is built
    ("thm11-odd-weight-l", ("verify", "thm11", "--l", "3"),
     "Eisenstein weights must be even and >= 4"),
    ("thm11-odd-weight-l2", ("verify", "thm11", "--l2", "5"),
     "Eisenstein weights must be even and >= 4"),
    ("thm11-odd-target-weight", ("verify", "thm11", "--k", "13"),
     "target weight must be even and >= l + l2"),
    ("thm11-target-below-l-plus-l2", ("verify", "thm11", "--k", "10"),
     "target weight must be even and >= l + l2"),
    # these listings ran until killed: the cosets with d = M I alone number
    # M^(g(g+1)/2), so a listing past the limit is refused before it starts
    ("decompose-huge-hecke-index", ("decompose", "--rep", "T99999999999999999999(triv)"),
     "Delta_99999999999999999999 at genus 1 has over 100000 cosets; refused"),
    ("cosets-genus-8", ("hecke", "cosets", "--genus", "8", "--index", "2", "--count-only"),
     "Delta_2 at genus 8 has over 100000 cosets; refused"),
    # at genus 1 the count is exactly sigma(M): 246,078 cosets here, and the job
    # answered after 72 s when only M itself was tested against the limit
    ("homspace-hecke-index-past-coset-count",
     ("homspace", "--source", "T100000(triv)", "--target", "triv"),
     "Delta_100000 at genus 1 has over 100000 cosets; refused"),
    # a cyclotomic number has exactly phi(n) coordinates
    ("cyclotomic-three-coordinates-at-4",
     ("hyperprod", "--left", "long-at-4-form.json", "--right", "good-form.json"),
     'cyclotomic "c" at conductor 4 must have phi(4) coordinates, got 3'),
    ("cyclotomic-three-coordinates-at-1",
     ("homspace", "--registry", "long-at-1-registry.json", "--source", "triv", "--target", "triv"),
     'cyclotomic "c" at conductor 1 must have phi(1) coordinates, got 3'),
    ("cyclotomic-no-coordinates", ("ahol", "raise", "--form", "empty-at-1-form.json"),
     'cyclotomic "c" at conductor 1 must have phi(1) coordinates, got 0'),
    ("cyclotomic-huge-conductor",
     ("hecke", "apply", "--index", "2", "--form", "huge-conductor-form.json"),
     'cyclotomic "c" at conductor 2000000000 must have phi(2000000000) coordinates, got 31623'),
    # the type parser recurses once per nesting level
    ("homspace-600-nested-hecke-types",
     ("homspace", "--source", "T1(" * 600 + "triv" + ")" * 600, "--target", "triv"),
     "the input is nested too deeply (maximum recursion depth exceeded)"),
]


def test_running_out_of_memory_is_one_line_exit_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("vvmf.cli.eisenstein", exhausted)
    code, out, err = run_cli(capsys, "eis", "--weight", "4", "--prec", "5")
    assert (code, out, err) == (2, "", "error: out of memory; the input is too large\n")


def test_hecke_apply_takes_a_negative_even_weight(capsys, tmp_path):
    """slash_expand scales by M^(k/2) d^-k as a Fraction for k < 0 too; the
    (1 0; 0 2) image of 1 + 3q at weight -4 has 3 * 2^-2 * 2^4 = 12 at q^(1/2)."""
    form = {"type": "triv", "weight": -4, "components": [
        {"h": 1, "prec": "2", "terms": [[0, _ONE], [1, {"n": 1, "c": ["3"]}]]}]}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(form))
    code, out, err = run_cli(capsys, "hecke", "apply", "--index", "2", "--form", str(path),
                             "--format", "json")
    assert (code, err) == (0, "")
    image = json.loads(out)
    assert image["weight"] == -4
    assert image["graded"][0][1]["terms"][1] == [1, {"n": 1, "c": ["12"]}]


@pytest.mark.parametrize(
    "argv",
    [
        ("homspace", "--source", "nosuch", "--target", "triv"),
        ("eis", "--weight", "12", "--prec", "0"),
        ("verify", "thm11", "--prec", "1"),
        ("homspace", "--registry", "bare-cell.json", "--source", "triv", "--target", "triv"),
        ("homspace", "--registry", "label-entry.json", "--source", "triv", "--target", "triv"),
        ("hecke", "apply", "--index", "2", "--form", "bare-cell-form.json"),
        ("homspace", "--registry", "number-coefficient.json", "--source", "triv",
         "--target", "triv"),
        ("homspace", "--registry", "number-matrix.json", "--source", "triv", "--target", "triv"),
        ("hyperprod", "--left", "terms-number.json", "--right", "good-form.json"),
        ("hyperprod", "--left", "series-number.json", "--right", "good-form.json"),
        ("hyperprod", "--left", "form-list.json", "--right", "good-form.json"),
        ("hyperprod", "--left", "fractional-exponent.json", "--right", "good-form.json"),
        ("hyperprod", "--left", "repeated-exponent.json", "--right", "good-form.json"),
        ("verify", "thm11", "--indices", ","),
        ("verify", "thm11", "--indices", "0,1"),
        ("verify", "thm11", "--indices", "-1"),
        ("verify", "thm11", "--indices", "1,2,1"),
        ("homspace", "--registry", "registry-list.json", "--source", "triv", "--target", "triv"),
        ("homspace", "--registry", "entries-number.json", "--source", "triv", "--target", "triv"),
        ("ahol", "closure", "--span", "grades-number.json", "--window", "4:8"),
        ("ahol", "closure", "--span", "generator-string.json", "--window", "4:8"),
    ]
    + [argv for _, argv, _ in _NAMED_ERRORS],
    ids=[
        "unknown-type",
        "eis-zero-precision",
        "thm11-below-sturm",
        "registry-bare-string-cell",
        "registry-entry-not-object",
        "form-bare-string-cell",
        "registry-number-coefficient",
        "registry-number-matrix",
        "form-terms-number",
        "form-series-number",
        "form-top-level-list",
        "form-fractional-exponent",
        "form-repeated-exponent",
        "thm11-no-index",
        "thm11-zero-index",
        "thm11-negative-index",
        "thm11-repeated-index",
        "registry-top-level-list",
        "registry-entries-number",
        "span-grades-number",
        "span-generator-not-object",
    ]
    + [name for name, _, _ in _NAMED_ERRORS],
)
def test_bad_input_is_one_line_exit_2(capsys, tmp_path, argv):
    files = dict(_BAD_FILES, **{"good-form.json": _GOOD_FORM, "span.json": {"grades": []}})
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    message = {case: message for _, case, message in _NAMED_ERRORS}.get(argv)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if message is not None:
        assert err == f"error: {message}\n"


def _form_with(weight=4, h=1, cell=_ONE):
    return {"type": "triv", "weight": weight, "components": [
        {"h": h, "prec": "2", "terms": [[0, cell]]}]}


def _registry_with(level=1, cell=_ONE):
    return {"entries": [{"label": "triv", "level": level, "S": [[cell]], "T": [[_ONE]]}]}


# an integer field given as null, a float, a string or a bool, and a
# coefficient list that is not a list; a float weight was read as its floor
_REGISTRY_ARGS = ("homspace", "--source", "triv", "--target", "triv", "--registry")
_WRONG_JSON_TYPES = [
    ("level-null", _REGISTRY_ARGS, _registry_with(level=None),
     'type "level" must be a JSON integer, got null'),
    ("level-float", _REGISTRY_ARGS, _registry_with(level=1.0),
     'type "level" must be a JSON integer, got 1.0'),
    ("level-string", _REGISTRY_ARGS, _registry_with(level="1"),
     'type "level" must be a JSON integer, got "1"'),
    ("level-bool", _REGISTRY_ARGS, _registry_with(level=True),
     'type "level" must be a JSON integer, got true'),
    ("n-null", _REGISTRY_ARGS, _registry_with(cell={"n": None, "c": ["1"]}),
     'cyclotomic "n" must be a JSON integer, got null'),
    ("c-number", _REGISTRY_ARGS, _registry_with(cell={"n": 1, "c": 1}),
     'cyclotomic "c" must be a list of rationals, got 1'),
    ("c-string", ("ahol", "raise", "--form"), _form_with(cell={"n": 1, "c": "1"}),
     'cyclotomic "c" must be a list of rationals, got "1"'),
    ("weight-null", ("ahol", "raise", "--form"), _form_with(weight=None),
     'form "weight" must be a JSON integer, got null'),
    ("weight-float", ("ahol", "raise", "--form"), _form_with(weight=4.5),
     'form "weight" must be a JSON integer, got 4.5'),
    ("h-null", ("ahol", "raise", "--form"), _form_with(h=None),
     'series "h" must be a JSON integer, got null'),
    ("h-float", ("hyperprod", "--right", "good-form.json", "--left"), _form_with(h=1.0),
     'series "h" must be a JSON integer, got 1.0'),
]


@pytest.mark.parametrize(
    "argv, obj, message",
    [case[1:] for case in _WRONG_JSON_TYPES],
    ids=[case[0] for case in _WRONG_JSON_TYPES],
)
def test_wrong_json_type_is_one_line_exit_2(capsys, tmp_path, argv, obj, message):
    (tmp_path / "good-form.json").write_text(json.dumps(_GOOD_FORM))
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    argv = [str(tmp_path / "good-form.json") if a == "good-form.json" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "bad.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# a missing registry label or JSON field is named on one line, without the
# quotes that the repr of a KeyError put around it
_MISSING_FIELDS = [
    ("type", ("ahol", "raise", "--form"), {"weight": 4, "components": []},
     'a form has no "type" field'),
    ("weight", ("ahol", "raise", "--form"), {"type": "triv", "components": []},
     'a form has no "weight" field'),
    ("components", ("ahol", "raise", "--form"), {"type": "triv", "weight": 4},
     'a form has no "graded" or "components" field'),
    ("h", ("ahol", "raise", "--form"),
     {"type": "triv", "weight": 4, "components": [{"prec": "2", "terms": []}]},
     'a series has no "h" field'),
    ("prec", ("ahol", "raise", "--form"),
     {"type": "triv", "weight": 4, "components": [{"h": 1, "terms": []}]},
     'a series has no "prec" field'),
    ("level", _REGISTRY_ARGS, {"entries": [{"label": "triv", "S": [[_ONE]], "T": [[_ONE]]}]},
     'a type has no "level" field'),
    ("n", _REGISTRY_ARGS, _registry_with(cell={"c": ["1"]}),
     'a cyclotomic has no "n" field'),
]


@pytest.mark.parametrize(
    "argv, obj, message",
    [case[1:] for case in _MISSING_FIELDS],
    ids=[case[0] for case in _MISSING_FIELDS],
)
def test_missing_json_field_is_named_exit_2(capsys, tmp_path, argv, obj, message):
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "bad.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_span_file_given_as_a_form_is_one_line_exit_2(capsys, tmp_path):
    span = tmp_path / "span.json"
    code, _, _ = run_cli(capsys, "vveis", "--weight", "4", "--type", "rho3", "--index", "3",
                         "--prec", "3", "--format", "json", "--out", str(span))
    assert code == 0
    code, out, err = run_cli(capsys, "hyperprod", "--left", str(span), "--right", str(span))
    assert (code, out, err) == (2, "", 'error: a form has no "type" field\n')


def test_verify_without_a_registry_label_is_one_line_exit_2(capsys, tmp_path):
    path = tmp_path / "triv_only.json"
    path.write_text(json.dumps(_registry_with()))
    code, out, err = run_cli(capsys, "verify", "example32", "--registry", str(path))
    assert (code, out, err) == (2, "", "error: no registry entry labelled 'rho3'\n")


# an inline type is a representation of dimension at least 1: rho_zeta's
# generators at level 1 fail T^1 = I, and an empty type has no dimension
_INLINE_TYPE_ERRORS = [
    ("not-a-representation", {"label": "fake", "level": 1, "S": [[_ONE]], "T": [[{"n": 3, "c": ["0", "1"]}]]},
     "the form's type is not a representation: [fake] pass  S^4 = I; pass  (ST)^3 = S^2;"
     " pass  S^2 = I; FAIL  T^1 = I"),
    ("dimension-zero", {"label": "empty", "level": 1, "S": [], "T": []},
     "a type must have dimension at least 1"),
]


@pytest.mark.parametrize(
    "rep, message",
    [case[1:] for case in _INLINE_TYPE_ERRORS],
    ids=[case[0] for case in _INLINE_TYPE_ERRORS],
)
def test_inline_type_is_validated_exit_2(capsys, tmp_path, rep, message):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(dict(_GOOD_FORM, type=rep)))
    code, out, err = run_cli(capsys, "hyperprod", "--left", str(path), "--right", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_good_form_file_is_accepted(capsys, tmp_path):
    # the well-formed partner of the malformed form files above
    path = tmp_path / "good-form.json"
    path.write_text(json.dumps(_GOOD_FORM))
    code, out, _ = run_cli(capsys, "hyperprod", "--left", str(path), "--right", str(path))
    assert code == 0 and out


# l == l2 with odd t = (k - l - l2) / 2: the weight-k triv grade is empty and
# the cusp form is an expected non-member; the other rows are controls
EQUAL_WEIGHT_SWEEP = [
    (18, 8, 8, "1,2", True),
    (18, 8, 8, "1,3", True),
    (18, 8, 8, "1,2,3", True),
    (22, 8, 8, "1,2", True),
    (18, 6, 6, "1,2", True),
    (20, 8, 8, "1,2", False),
    (20, 6, 6, "1,2", False),
    (18, 4, 10, "1,2", False),
]


@pytest.mark.parametrize("k, l, l2, indices, degenerate", EQUAL_WEIGHT_SWEEP)
def test_thm11_odd_bracket_of_equal_weights(capsys, k, l, l2, indices, degenerate):
    argv = ["verify", "thm11", "--k", str(k), "--l", str(l), "--l2", str(l2)]
    code, out, _ = run_cli(capsys, *argv, "--indices", indices, "--format", "json")
    assert code == 0
    (case,) = [c for c in json.loads(out)["cases"] if c["name"] == "cusp-membership"]
    assert case["status"] == "pass"
    assert case["expected"] is case["observed"] is (not degenerate)
    # the report lists every generator of the weight-k triv grade
    assert case["diagnostics"].endswith("generators: ") is degenerate


def reference_thm11_span(k, l, l2, indices, prec, registry) -> FormSpan:
    """The raise-then-decompose span of verify thm11, at its weight-k triv grade.

    Each Hecke image is raised t1 and t2 times (t1 + t2 = t), every product
    is projected, the depth-graded products are kept greedily over
    (M, t1, phi), and each kept one gives its holomorphic layers.  Only the
    triv projections and the weight-k layers h0 land in the (k, triv) grade,
    so the other targets and the lower layers are left out.
    """
    t = (k - l - l2) // 2
    triv = [registry.get("triv")]
    raw = FormSpan()
    for M in sorted(indices):
        tl, tr = (eisenstein(w, prec * M) for w in (l, l2))
        if M > 1:
            tl, tr = hecke_form(M, tl), hecke_form(M, tr)
        for t1 in range(t + 1):
            a, b = tl, tr
            for _ in range(t1):
                a = raise_op(a)
            for _ in range(t - t1):
                b = raise_op(b)
            for form, prov in hyper_tensor(a, b, triv).generators((k, "triv")):
                raw.add(form, provenance=prov)
    final = FormSpan()
    for form, prov in raw.generators((k, "triv")):
        if form.depth == 0:
            final.add(form, provenance=prov)
        else:
            final.add(ahol_decompose(form)[0], provenance=f"h0[{prov}]")
    return final


# the perfbench thm11 jobs, the baseline ladder, the equal-weight sweep,
# grades of dimension 2 and the composite index 4
THM11_ORACLE_SWEEP = sorted(
    {
        (22, 4, 8, "1,2"),
        (20, 4, 8, "1,2,4"),
        (18, 6, 10, "1,3"),
        (12, 4, 8, "1,3"),
        (14, 4, 6, "1,2,3"),
        (16, 4, 8, "1,3"),
        (20, 4, 6, "1,2,3"),
        (24, 4, 8, "1,2"),
        (16, 4, 12, "1,2,3"),
    }
    | {row[:4] for row in EQUAL_WEIGHT_SWEEP}
)


@pytest.mark.parametrize("k, l, l2, indices", THM11_ORACLE_SWEEP)
def test_thm11_bracket_span_matches_raise_then_decompose(reg, k, l, l2, indices):
    indices = [int(x) for x in indices.split(",")]
    prec = max(sturm_bound(k, 1), 6)
    got = thm11_span(k, l, l2, indices, prec, reg)
    want = reference_thm11_span(k, l, l2, indices, prec, reg)
    key = (k, "triv")
    assert set(got.grades()) <= {key}
    assert got.grade_rows(key) == want.grade_rows(key)
    assert [p for _, p in got.generators(key)] == [p for _, p in want.generators(key)]


def test_the_weight_96_span_keeps_its_bytes_on_the_integer_lattice(reg):
    # the triv projections of T_M(E4) and T_M(E8), M = 1..8, are stored on
    # lattices 1/M but have integer exponents, so the grade's pivot state is
    # laid out on lattice 1, not on 1/840; the span's JSON is the one the
    # 1/840 layout made (CI pins it too)
    span = thm11_span(96, 4, 8, list(range(1, 9)), sturm_bound(96, 1), reg)
    assert max(q.h for f, _ in span.generators((96, "triv")) for q in f.components) > 1
    assert span._pivots[(96, "triv")].layout[1] == 1
    digest = hashlib.sha256(json.dumps(span.to_json()).encode()).hexdigest()
    assert digest == "57d6adfeb4df74ada28314a086d352060b6fcfb3aa7592ef1fdf9f163ab862a7"


def test_the_weight_120_span_keeps_its_bytes(reg):
    # the first weight whose least Hecke index drops below dim S_k; a pivot entry
    # written at the joint conductor 2520 lies in Q(zeta_3), so the span is cheap
    # only while an inverse is taken in the element's least field
    span = thm11_span(120, 4, 8, list(range(1, 11)), sturm_bound(120, 1), reg)
    digest = hashlib.sha256(json.dumps(span.to_json()).encode()).hexdigest()
    assert digest == "1cababbc6328a4747615c88bcf435e8f55271523aad42482df2ce3524bd77fec"


def test_thm11_without_triv_in_the_registry(capsys, tmp_path):
    # the theorem is about the triv grade: without triv the run is refused as bad
    # input, as example32 is without rho3, not reported as a failed theorem
    entries = builtin_registry().to_json()["entries"]
    path = tmp_path / "no_triv.json"
    path.write_text(json.dumps({"entries": [e for e in entries if e["label"] != "triv"]}))
    for target in ("thm11", "all"):
        code, out, err = run_cli(capsys, "verify", target, "--registry", str(path),
                                 "--format", "json")
        assert (code, out, err) == (2, "", "error: no registry entry labelled 'triv'\n")


@pytest.mark.parametrize("target", ["example32", "all"])
def test_verify_honours_registry(capsys, tmp_path, target):
    # a registry without rho3 cannot run example32, alone or inside "all"
    entries = builtin_registry().to_json()["entries"]
    path = tmp_path / "triv_only.json"
    path.write_text(json.dumps({"entries": [e for e in entries if e["label"] == "triv"]}))
    code, _, err = run_cli(capsys, "verify", target, "--registry", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_all_honours_the_thm11_options(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--k", "16", "--indices", "1,3",
                           "--format", "json")
    assert code == 0
    (thm11,) = [r for r in json.loads(out) if r["command"] == "thm11"]
    assert {c["parameters"]["k"] for c in thm11["cases"]} == {16}
    assert {tuple(c["parameters"]["indices"]) for c in thm11["cases"]} == {(1, 3)}


def test_reports_are_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "counts", "--format", "json")
    code2, out2, _ = run_cli(capsys, "verify", "counts", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    # text output may differ only in the timestamp header
    _, t1, _ = run_cli(capsys, "verify", "counts")
    _, t2, _ = run_cli(capsys, "verify", "counts")
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("# generated-at")]
    assert strip(t1) == strip(t2)


def test_eis_json_output(capsys, tmp_path):
    path = tmp_path / "e4.json"
    code, _, _ = run_cli(
        capsys, "eis", "--weight", "4", "--prec", "3", "--format", "json", "--out", str(path)
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["weight"] == 4
    assert obj["type"] == "triv"
    terms = dict((n, c) for n, c in obj["components"][0]["terms"])
    assert terms[1] == {"n": 1, "c": ["240"]}


# SHA-256 of CLI output bytes, recorded before the holomorphic form class was
# folded into AholForm; eis JSON is the registry-relative layout (type label,
# `components`, no `depth`), the other commands read it back from a file
PINNED_OUTPUTS = [
    ("eis12.json", ("eis", "--weight", "12", "--prec", "9", "--format", "json"),
     "dc6799ba5fd92ee5f65c760e9ff751f2464abd5934206f6ecea73f41eb8834c5"),
    ("eis12.txt", ("eis", "--weight", "12", "--prec", "9"),
     "f6fbb4fba4191162a7d9040de6a8dcb6fe78f6c3d99770d3c637e6928f5e31d4"),
    ("e4.json", ("eis", "--weight", "4", "--prec", "9", "--format", "json"), None),
    ("e6.json", ("eis", "--weight", "6", "--prec", "9", "--format", "json"), None),
    ("hecke3.txt", ("hecke", "apply", "--index", "3", "--form", "eis12.json"),
     "9027bc406a99bcacf45aacbac5a5b6649e93141e175ae9c2447de600bbc41dc3"),
    ("hecke3.json", ("hecke", "apply", "--index", "3", "--form", "eis12.json", "--format", "json"),
     "b35fc4e5e1ef79ffafa6feff0054032bbfcbb673783fd60cacbb1e453583f98a"),
    ("raise4.txt", ("ahol", "raise", "--form", "e4.json"),
     "fd3e295c01a30bfa1b9d09ab255e3338ec9b3a129ca720d5781c46f2cdf5c3f6"),
    ("raise4.json", ("ahol", "raise", "--form", "e4.json", "--format", "json"),
     "e6897266a423c60f35b980b661ce3a456c66fe09236b912c18fe6e09c5ebf63a"),
    ("hp.json", ("hyperprod", "--left", "e4.json", "--right", "e6.json", "--format", "json"),
     "2073ce65cea482ce3e938fb3b46f96ee6af20f0e7b74b43ee4f8d989157e186b"),
    # coefficients at conductors 1 and 3 on lattice 1/3 (recorded before the
    # products and intertwiner sums moved to qexp.combine)
    ("vveis_rho3.json",
     ("vveis", "--weight", "4", "--type", "rho3", "--index", "3", "--prec", "12",
      "--format", "json"),
     "dbbcb7729dac1e596efea1bb65d850c64cae0dbfa607c0c52e556dd9374e7003"),
    # the tinf closure of that span holds grades of depth 0, 1 and 2, each a
    # stacked projection of one form onto every registry type (recorded
    # before the projections of a form were stacked into one kernel call)
    ("closure_rho3.json",
     ("ahol", "closure", "--span", "vveis_rho3.json", "--window", "4:8", "--max-rounds", "3",
      "--format", "json"),
     "40f3d114effc1929250f9ee86aaead5d97921a4e194101536b097bc9f191d4af"),
    # every command's text and JSON tail, recorded before the commands shared
    # one output path
    ("homspace_t2.txt", ("homspace", "--source", "T2(rho3)", "--target", "rho3"),
     "d555103d5a39178e6cdbba39888321c53aed18590eddc3eec44613ddb521e2aa"),
    ("homspace_t2.json",
     ("homspace", "--source", "T2(rho3)", "--target", "rho3", "--format", "json"),
     "a29faba364432cdcea072b8a01348092e6938b319c3d2572c34d4d2df1f37051"),
    ("decompose_square.txt", ("decompose", "--rep", "rho3*rho3"),
     "842a1d735b4c911c765026bd4f4ed807dd220776d32639f97e38bb3cc91d4153"),
    ("cosets6.txt", ("hecke", "cosets", "--index", "6"),
     "ebc1a93b3158771ab93822585f60f19b0d67cc3d34b8c190c3518e16b24f04a5"),
    ("cosets6.json", ("hecke", "cosets", "--index", "6", "--format", "json"),
     "fb26b1cca0fa3d1071f78945f321bd7a4ac555fc4294a5106d1d80879aa1efa5"),
    ("cosets_genus2.txt", ("hecke", "cosets", "--genus", "2", "--index", "2", "--count-only"),
     "238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f"),
    ("lower4.txt", ("ahol", "lower", "--form", "raise4.json"),
     "275107d179a618daf61022b03716a8892fa9a0560228cec81a023f439682a715"),
    ("lower4.json", ("ahol", "lower", "--form", "raise4.json", "--format", "json"),
     "49655aa6ae834cbda544bd5300e581c8b844025a8761e4d72e3a2643e39651f6"),
    ("ahol_decompose4.txt", ("ahol", "decompose", "--form", "raise4.json"),
     "5e67d48f594039c6232ed000f76bed9dd50cefe5704fc2264e0959b26ec34eab"),
    ("ahol_decompose4.json", ("ahol", "decompose", "--form", "raise4.json", "--format", "json"),
     "f52e18429af96ac07d5b8513f4b9f308e66d4ff5de9f3788fa16bc0a1cf27741"),
    ("vveis_rho3.txt",
     ("vveis", "--weight", "4", "--type", "rho3", "--index", "3", "--prec", "12"),
     "63cadb403788c1d7b9ad89f1b41b67d7a12e7021e5fbadb014d8d66465baa2a9"),
    ("hp.txt", ("hyperprod", "--left", "e4.json", "--right", "e6.json"),
     "4784fedfd9ecbca80293332cd21358129c479ce585a0539739ed58f70ed5e10c"),
    ("closure_rho3.txt",
     ("ahol", "closure", "--span", "vveis_rho3.json", "--window", "4:8", "--max-rounds", "3"),
     "1c051863e3b34104bfff8da9e296ab8216c7ddb254002f9ef73003d7b3e5e2df"),
    ("counts.json", ("verify", "counts", "--format", "json"),
     "acf17f9990a3ce17f0990afd0e1d54df0f207e0a026b0150c2d14562c470ec40"),
    # the one report that reads hom_fixed_subspace and Subspace.member,
    # recorded before Subspace kept its basis as a sparse Matrix
    ("example32.json", ("verify", "example32", "--format", "json"),
     "2233727dc541cc2631100aff84f03bbab026bac7ccf59e99b4d834915bc45af2"),
]


def test_output_bytes_are_pinned(capsys, tmp_path):
    names = {name for name, _, _ in PINNED_OUTPUTS}
    for name, argv, digest in PINNED_OUTPUTS:
        argv = [str(tmp_path / a) if a in names else a for a in argv]
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / name))
        assert code == 0
        if digest is not None:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_rho3_hyperprod_bytes_are_pinned(capsys, tmp_path, reg):
    """hyperprod JSON of two rho3 vector-valued Eisenstein forms, whose
    components mix conductors 1 and 3 on lattice 1/3; recorded with the
    digest of vveis rho3 above."""
    for k in (4, 6):
        span = vv_eisenstein(k, reg.get("rho3"), 3, 9)
        form = span.generators(span.grades()[0])[0][0]
        (tmp_path / f"e{k}.json").write_text(json.dumps(form.to_json(reg)))
    out = tmp_path / "hp.json"
    argv = ["--left", str(tmp_path / "e4.json"), "--right", str(tmp_path / "e6.json")]
    code, _, _ = run_cli(capsys, "hyperprod", *argv, "--format", "json", "--out", str(out))
    assert code == 0
    digest = "e999abc1e05a5efc13658ff05440f383c8ec5e37324cf99dbbede5a7ad4bb4b2"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_hyperprod_truncates_both_forms_to_the_requested_precision(capsys, tmp_path):
    for k in (4, 6):
        out = str(tmp_path / f"e{k}.json")
        assert run_cli(capsys, "eis", "--weight", str(k), "--prec", "9", "--format", "json",
                       "--out", out)[0] == 0
    out = tmp_path / "hp5.json"
    argv = ["--left", str(tmp_path / "e4.json"), "--right", str(tmp_path / "e6.json")]
    code, _, _ = run_cli(capsys, "hyperprod", *argv, "--prec", "5", "--format", "json",
                         "--out", str(out))
    assert code == 0
    digest = "e4fd65363c0d9edf4584bd768fa855929ae8b801c5942fa78dbd6e5bd2b297b8"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    grades = json.loads(out.read_text())["grades"]
    assert [(g["weight"], g["type"], g["dimension"]) for g in grades] == [(10, "triv", 1)]
    assert grades[0]["generators"][0]["form"]["prec"] == "5"


def test_hecke_cosets_output(capsys):
    code, out, _ = run_cli(capsys, "hecke", "cosets", "--index", "3", "--count-only")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(
        capsys, "hecke", "cosets", "--genus", "2", "--index", "2", "--count-only"
    )
    assert code == 0 and out.strip() == "15"
    code, out, _ = run_cli(capsys, "hecke", "cosets", "--index", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [0, 2]]]


def test_hecke_apply_round_trip(capsys, tmp_path):
    src = tmp_path / "e12.json"
    dst = tmp_path / "t3.json"
    run_cli(capsys, "eis", "--weight", "12", "--prec", "9", "--format", "json", "--out", str(src))
    code, _, _ = run_cli(
        capsys,
        "hecke",
        "apply",
        "--index",
        "3",
        "--form",
        str(src),
        "--format",
        "json",
        "--out",
        str(dst),
    )
    assert code == 0
    obj = json.loads(dst.read_text())
    assert obj["weight"] == 12 and obj["depth"] == 0
    assert obj["type"]["dim"] == 4

    from vvmf.ahol import AholForm
    from vvmf.forms import eisenstein, vv_eisenstein
    from vvmf.hecke import hecke_form

    expect = hecke_form(3, eisenstein(12, 9))
    assert AholForm.from_json(obj).agrees_with(expect)


def test_homspace_and_decompose_commands(capsys):
    code, out, _ = run_cli(capsys, "homspace", "--source", "rho3*rho3", "--target", "rho3")
    assert code == 0 and "= 2" in out
    code, out, _ = run_cli(capsys, "homspace", "--source", "T3(triv)", "--target", "rho3")
    assert code == 0 and "= 1" in out
    code, out, _ = run_cli(capsys, "decompose", "--rep", "rho3*rho3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["multiplicities"] == {"rho3": 2, "rho_zeta": 1, "rho_zeta2": 1, "triv": 1}
    assert obj["residual_dim"] == 0


def test_vveis_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "vveis",
        "--weight",
        "12",
        "--type",
        "rho3",
        "--index",
        "3",
        "--prec",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["grades"]) == 1
    assert obj["grades"][0]["dimension"] == 1


def test_hyperprod_command(capsys, tmp_path):
    a = tmp_path / "e4.json"
    b = tmp_path / "e8.json"
    run_cli(capsys, "eis", "--weight", "4", "--prec", "5", "--format", "json", "--out", str(a))
    run_cli(capsys, "eis", "--weight", "8", "--prec", "5", "--format", "json", "--out", str(b))
    code, out, _ = run_cli(
        capsys, "hyperprod", "--left", str(a), "--right", str(b), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["grades"][0]["weight"] == 12
    assert obj["grades"][0]["type"] == "triv"
    assert obj["grades"][0]["dimension"] == 1


def test_ahol_commands(capsys, tmp_path):
    e4 = tmp_path / "e4.json"
    re4 = tmp_path / "re4.json"
    run_cli(capsys, "eis", "--weight", "4", "--prec", "5", "--format", "json", "--out", str(e4))
    code, _, _ = run_cli(
        capsys, "ahol", "raise", "--form", str(e4), "--format", "json", "--out", str(re4)
    )
    assert code == 0
    obj = json.loads(re4.read_text())
    assert obj["depth"] == 1 and obj["weight"] == 6
    code, out, _ = run_cli(capsys, "ahol", "lower", "--form", str(re4))
    assert code == 0 and "weight 4" in out
    code, out, _ = run_cli(capsys, "ahol", "decompose", "--form", str(re4), "--format", "json")
    assert code == 0
    parts = json.loads(out)
    assert len(parts) == 2


def test_ahol_closure_command(capsys, tmp_path):
    span_path = tmp_path / "span.json"
    from vvmf.ahol import AholForm, raise_op
    from vvmf.forms import eisenstein, vv_eisenstein
    from vvmf.hyperalg import FormSpan, tensor_form
    from vvmf.reps import trivial_rep

    e4 = eisenstein(4, 8)
    e6 = eisenstein(6, 8)
    big = tensor_form(raise_op(e4), e6)
    big = AholForm(12, trivial_rep(), big.graded)
    span_path.write_text(json.dumps(FormSpan.of(big).to_json()))
    code, out, _ = run_cli(
        capsys,
        "ahol",
        "closure",
        "--span",
        str(span_path),
        "--window",
        "10:12",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["stabilized"] is True
    weights = sorted(g["weight"] for g in obj["grades"])
    assert weights == [10, 12]


def test_type_expression_parser(reg):
    assert parse_rep_expr("rho3", reg).dim == 3
    assert parse_rep_expr("rho3*rho_zeta", reg).dim == 3
    assert parse_rep_expr("T3(triv)", reg).dim == 4
    assert parse_rep_expr("T2(T2(triv))", reg).dim == 9
    with pytest.raises(ValueError):
        parse_rep_expr("rho3*", reg)
    with pytest.raises(ValueError):
        parse_rep_expr("unknown", reg)


@pytest.mark.parametrize("expr", ["T3(nope)", "rho3*nope", "T2(rho3*nope)", "nope*rho3"])
def test_unknown_label_in_type_expression_is_named(capsys, expr):
    code, _, err = run_cli(capsys, "homspace", "--source", expr, "--target", "triv")
    assert code == 2
    assert err == "error: no registry entry labelled 'nope'\n"


def test_verify_all_text_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert "# vvmf verify example32" in out
    assert "# vvmf verify counts" in out
    assert "# vvmf verify thm11" in out


@pytest.mark.parametrize("module", ["vvmf", "vvmf.cli"])
def test_import_leaves_dataclasses_out(module):
    """A fresh interpreter that imports the package, or its CLI, and builds
    the bundled registry has not loaded dataclasses (nor what it pulls in)."""
    import os
    import subprocess
    import sys

    import vvmf

    fresh = f"import sys, {module}, vvmf; vvmf.builtin_registry(); print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vvmf.__file__)))
    # -S: no site hooks, which could load dataclasses before the package does
    out = subprocess.run([sys.executable, "-S", "-c", fresh], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
