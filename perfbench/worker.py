"""One pass of one workload in a fresh interpreter; prints a JSON result line.

    python3 perfbench/worker.py --workload vv-product --seed 1 --mode plain
    python3 perfbench/worker.py --workload thm11-span --job k22 --mode plain

A round of a workload is the passes that round_jobs lists: one pass per
thm11 job, each in its own interpreter as for a CLI user, and a single
pass for the other workloads.

Modes: `setup` only imports vvmf and loads the bundled registry, `plain`
runs one untraced pass, `traced` runs one pass under the tracer and writes
its spans to --spans.  Every answer is checked after the timed region;
a wrong answer, an exception or a report that is not ok is a failure.
`--record-golden` rewrites golden.json from the program as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

# Three jobs of different sizes, so that the median job is the middle one,
# k22, and not the mean of two jobs that the program may speed up unequally.
THM11_JOBS = {
    "k22": ["verify", "thm11", "--k", "22", "--indices", "1,2", "--format", "json"],
    "k18": ["verify", "thm11", "--k", "18", "--l", "6", "--l2", "10", "--indices", "1,3"]
    + ["--format", "json"],
    "k12": ["verify", "thm11", "--k", "12", "--l", "4", "--l2", "8", "--indices", "1,3"]
    + ["--format", "json"],
}
HOM_SOURCES = ("T3(rho3)", "T4(rho3)", "T3(triv)*T3(triv)", "T2(rho3)*rho3")
VV_WEIGHTS = (4, 6, 8, 10, 12)
VV_PAIRS = ((4, 12), (6, 10), (8, 8))
VV_PREC = 33  # Sturm bound of weight 16 at level 3
VV_GRADES = {(16, "rho3"): 4, (16, "rho_zeta"): 2, (16, "rho_zeta2"): 1, (16, "triv"): 2}
# Queries per pass and grade; fixed so that the latency mix does not depend
# on the seed.  The cheap rho_zeta queries sit in the middle of the sorted
# latencies, so the median falls inside their group; the tail falls inside
# the group of the costly rho3 queries.
VV_QUERIES = {(16, "triv"): 14, (16, "rho_zeta"): 16, (16, "rho3"): 14}


# The reference: a fixed Gaussian elimination over Fraction, from the
# standard library only, so no change to vvmf changes its cost.  The shared
# host's speed moves it and the program alike, and run.py scales each
# call's time by it.  It is timed right before and after every timed call,
# and, during a call, every SAMPLE_EVERY_S by a SIGALRM handler; the time
# the handler takes is taken out of the call's time.
REF_SIZE = 7
REF_MIN_UNITS = 3
REF_SETUP_UNITS = 20
SAMPLE_EVERY_S = 0.1


def _ref_unit():
    rng = random.Random(12345)
    n = REF_SIZE
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def reference(units: int) -> list:
    """Seconds of each of `units` reference units, run back to back."""
    out = []
    for _ in range(units):
        t0 = time.perf_counter()
        _ref_unit()
        out.append(time.perf_counter() - t0)
    return out


def pin_to_fastest_cpu():
    """Pin this process to the allowed CPU that runs the reference fastest
    now.  On a shared host the CPUs differ in speed, each over time, and a
    process that moved between them mid-call would be timed on one and
    scaled by the reference of the other.  Returns the CPU, or None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = statistics.median(reference(REF_MIN_UNITS))
    cpu = min(speed, key=speed.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


class Pass:
    """Timings and outcomes of one pass.

    calls holds [seconds, is_request, ref_unit_s] for every timed call, in
    the order made.  ref_unit_s is the mean time of the reference units run
    during the call, or, for a call too short to hold REF_MIN_UNITS of them,
    the median of those run right before, during and right after it.  A pass
    makes the same calls in the same order in every round of a run, so
    run.py can match each call with itself across rounds.  With sample=False
    (traced passes) no reference runs during calls."""

    def __init__(self, before: list, sample: bool = True):
        self.calls: list = []
        self.attempted = 0
        self.failures: list = []
        self.before = before  # reference units since the last timed call
        self.sample = sample
        self.during: list = []
        self.spent = 0.0  # seconds the handler took during the current call

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _ref_unit()
        self.during.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def timed(self, fn, *args, query=False):
        self.during, self.spent = [], 0.0
        if self.sample:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        after = reference(REF_MIN_UNITS)
        if len(self.during) >= REF_MIN_UNITS:
            unit = statistics.fmean(self.during)
        else:
            unit = statistics.median(self.before + self.during + after)
        self.calls.append([dt - self.spent, query, unit])
        self.before = after
        return out

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _digest(basis) -> str:
    text = json.dumps([m.to_json() for m in basis], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: each runs its timed jobs, then checks every answer untimed


def thm11_span(p: Pass, registry, seed: int, golden: dict, tracer=None, job=None):
    from vvmf import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = p.timed(cli.main, THM11_JOBS[job], query=True)
    _set_active(tracer, False)
    ok = rc == 0 and buf.getvalue() == golden[job]
    p.check(ok, f"thm11 {job}: exit {rc}, or the report differs from the seed bytes")


def homspace_induced(p: Pass, registry, seed: int, golden: dict, tracer=None, job=None):
    from vvmf import cli, reps

    sources = {expr: p.timed(cli.parse_rep_expr, expr, registry) for expr in HOM_SOURCES}
    jobs = [(expr, target) for expr in HOM_SOURCES for target in registry]
    results = []
    for expr, target in random.Random(seed).sample(jobs, len(jobs)):
        basis = p.timed(reps.hom_space, sources[expr], target, query=True)
        results.append((expr, sources[expr], target, basis))
    _set_active(tracer, False)
    for expr, src, target, basis in results:
        want = golden[f"{expr} -> {target.label}"]
        ok = len(basis) == want["dim"] and _digest(basis) == want["digest"]
        ok = ok and all(reps.is_intertwiner(phi, src, target) for phi in basis)
        p.check(ok, f"hom({expr}, {target.label}): dimension, basis digest or intertwining differs")


def vv_product(p: Pass, registry, seed: int, golden: dict, tracer=None, job=None):
    from vvmf import forms, hyperalg

    rho3 = registry.get("rho3")
    eis = {}
    for a in VV_WEIGHTS:
        span = p.timed(forms.vv_eisenstein, a, rho3, 3, VV_PREC)
        eis[a] = [f for key in span.grades() for f, _ in span.generators(key)][0]
    products = [p.timed(hyperalg.hyper_tensor, eis[a], eis[b], registry) for a, b in VV_PAIRS]
    total = p.timed(hyperalg.span_sum, products)
    # withhold the last kept generator of each queried grade
    withheld = {key: total.generators(key)[-1][0] for key in VV_QUERIES}
    kept = [
        (form, prov)
        for key in total.grades()
        for form, prov in total.generators(key)
        if form is not withheld.get(key)
    ]
    queried = hyperalg.FormSpan()
    for form, prov in kept:
        p.timed(queried.add, form, prov)

    _set_active(tracer, False)
    grades = total.dimension_signature()
    p.check(grades == VV_GRADES, f"vv-product grades {grades}, expected {VV_GRADES}")
    queries = _vv_queries(queried, withheld, random.Random(seed))
    _set_active(tracer, True)
    answers = []
    for form, expected in queries:
        try:
            got = p.timed(hyperalg.span_contains, queried, form, VV_PREC, query=True)
        except Exception as exc:  # a refused or crashed query is a failure
            got = f"{type(exc).__name__}: {exc}"
        answers.append((form, expected, got))
    _set_active(tracer, False)
    for form, expected, got in answers:
        grade = f"({form.weight}, {form.rep.label})"
        p.check(got is expected, f"span_contains on {grade} = {got}, expected {expected}")


def _vv_queries(span, withheld: dict, rng: random.Random) -> list:
    """Members are random combinations of a grade's kept generators;
    non-members add a nonzero multiple of the grade's withheld generator,
    which is independent of them because FormSpan.add kept it."""
    from vvmf import CycNum

    z = CycNum.zeta(3)

    def coeff():
        a, b = 0, 0
        while a == 0 and b == 0:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        return CycNum.from_rational(a) + z * b

    out = []
    for key, count in VV_QUERIES.items():
        gens = [f for f, _ in span.generators(key)]
        for i in range(count):
            form = gens[0].scaled(coeff())
            for g in gens[1:]:
                form = form + g.scaled(coeff())
            member = i % 2 == 0
            if not member:
                form = form + withheld[key].scaled(coeff())
            out.append((form, member))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "thm11-span": thm11_span,
    "homspace-induced": homspace_induced,
    "vv-product": vv_product,
}


def round_jobs(workload: str, seed: int, index: int) -> list:
    """The passes of one round, each run in its own interpreter: the thm11
    jobs in an order drawn from the seed, or one pass of the whole workload."""
    if workload != "thm11-span":
        return [None]
    return random.Random(f"{seed}/{index}").sample(list(THM11_JOBS), len(THM11_JOBS))


def _set_active(tracer, on: bool):
    if tracer is not None:
        tracer.active = on


# ---------------------------------------------------------------------------


def record_golden():
    """Write golden.json: thm11 report bytes and hom-space digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from vvmf import cli, reps

    out = {}
    for name, argv in THM11_JOBS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"thm11 {name} exited {rc}; refusing to record")
        out[name] = buf.getvalue()
    registry = cli.load_bundled_registry()
    for expr in HOM_SOURCES:
        src = cli.parse_rep_expr(expr, registry)
        for target in registry:
            basis = reps.hom_space(src, target)
            out[f"{expr} -> {target.label}"] = {"dim": len(basis), "digest": _digest(basis)}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--job", choices=sorted(THM11_JOBS), help="the thm11 job of this pass")
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), default="plain")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.mode != "setup" and (args.job is None) != (args.workload != "thm11-span"):
        ap.error("--job names a thm11 job, and only thm11-span takes one")

    cpu = pin_to_fastest_cpu()
    before = reference(REF_SETUP_UNITS // 2)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from vvmf import cli

    registry = cli.load_bundled_registry()
    result = {"setup_s": time.perf_counter() - t0}
    units = reference(REF_SETUP_UNITS // 2)
    result["setup_ref_unit_s"] = statistics.median(before + units)
    result["cpu"] = cpu
    if args.mode != "setup":
        golden = json.loads(GOLDEN.read_text())
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
        p = Pass(units, sample=tracer is None)
        try:
            WORKLOADS[args.workload](p, registry, args.seed, golden, tracer, args.job)
        except Exception as exc:  # the pass stops; its checks are not reached
            p.check(False, f"{args.workload} raised {type(exc).__name__}: {exc}")
        result.update(
            calls=p.calls,
            attempted=p.attempted,
            failures=p.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.active = False
            result["tally"] = tracer.tally()
            result["missing_entry_points"] = tracer.missing
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
