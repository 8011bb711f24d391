"""Run the ladder of slow workloads on two checkouts and write BENCH_ladder.json.

    python3 tools/ladder.py --parent DIR --change DIR [--out FILE]

Each rung is one command, run in a fresh interpreter from the root of a
checkout with PYTHONPATH=src.  A rung records its command, the SHA-256 of
its standard output, the first line of that output (its answer; one per
side when the two sides differ) and, per side, the wall time and peak RSS
of the child (and inner_s, when the child's standard error ends with a
"# inner_s=SECONDS" line), in parent/change pairs whose first side
alternates: seven pairs when the first parent run takes under 1 s, three
when it takes under 10 s, one pair otherwise.  A run over CAP_S seconds is
killed and recorded as killed.  Runs are one at a time.  The report header
records each checkout's src_lines, the line count of its src/vvmf/*.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import threading
import time
from pathlib import Path

CAP_S = 600
SHORT_S = 10
# a sub-second rung can move by x1.6 between single runs, so it gets more pairs
SUBSECOND_S = 1

# the End of the residual that decompose leaves of EXPR, digested from the
# dense JSON of each basis map or, for SPARSE, from its nonzeros alone (the
# dense JSON of 78 maps of 120 x 120 takes seconds and half a gigabyte);
# inner_s times the solve alone
_HOM_RESIDUAL = """
import hashlib, json, sys, time
from vvmf.cli import load_bundled_registry, parse_rep_expr
from vvmf.reps import decompose, hom_space
reg = load_bundled_registry()
r = decompose(parse_rep_expr(EXPR, reg), reg).residual
start = time.perf_counter()
basis = hom_space(r, r)
spent = time.perf_counter() - start
if SPARSE:
    text = json.dumps([[phi.n, [sorted((j, x.to_json()) for j, x in row.items()) for row in phi.nonzeros]]
                       for phi in basis])
else:
    text = json.dumps([phi.to_json() for phi in basis], sort_keys=True)
print(r.dim, len(basis), hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the build of perfbench's vv-product workload: five vv_eisenstein (phi of
# T_3 E_k), three hyper_tensor and one span_sum calls; inner_s times them
# all, and the answer is the total span's grades and the digest of its JSON
_VV_BUILD = """
import hashlib, json, sys, time
sys.path.insert(0, "perfbench")
from worker import VV_PAIRS, VV_PREC, VV_WEIGHTS
from vvmf import forms, hyperalg
from vvmf.cli import load_bundled_registry
reg = load_bundled_registry()
start = time.perf_counter()
eis = {a: forms.vv_eisenstein(a, reg.get("rho3"), 3, VV_PREC).generators((a, "rho3"))[0][0]
       for a in VV_WEIGHTS}
total = hyperalg.span_sum([hyperalg.hyper_tensor(eis[a], eis[b], reg) for a, b in VV_PAIRS])
spent = time.perf_counter() - start
text = json.dumps(total.to_json(), sort_keys=True)
print(sorted(total.dimension_signature().items()), hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the 44 span_contains queries of perfbench's vv-product workload at seed 1
_VV_QUERIES = """
import random, sys, time
sys.path.insert(0, "perfbench")
from worker import VV_PAIRS, VV_PREC, VV_QUERIES, VV_WEIGHTS, _vv_queries
from vvmf import forms, hyperalg
from vvmf.cli import load_bundled_registry
reg = load_bundled_registry()
eis = {a: forms.vv_eisenstein(a, reg.get("rho3"), 3, VV_PREC).generators((a, "rho3"))[0][0]
       for a in VV_WEIGHTS}
total = hyperalg.span_sum([hyperalg.hyper_tensor(eis[a], eis[b], reg) for a, b in VV_PAIRS])
withheld = {key: total.generators(key)[-1][0] for key in VV_QUERIES}
span = hyperalg.FormSpan()
for key in total.grades():
    for form, prov in total.generators(key):
        if form is not withheld.get(key):
            span.add(form, prov)
spent = 0.0
for form, expected in _vv_queries(span, withheld, random.Random(1)):
    start = time.perf_counter()
    got = hyperalg.span_contains(span, form, VV_PREC)
    spent += time.perf_counter() - start
    print(form.weight, form.rep.label, expected, got)
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# T3(E4) (x) T3(E8), built from precision 150, onto the bundled registry: the
# product of the CI hyperprod pin, in process, at a length where the series
# kernel takes most of the time; inner_s times hyper_tensor alone
_HYPER_T3 = """
import hashlib, json, sys, time
from vvmf.cli import load_bundled_registry
from vvmf.forms import eisenstein
from vvmf.hecke import hecke_form
from vvmf.hyperalg import hyper_tensor
reg = load_bundled_registry()
t3e4, t3e8 = (hecke_form(3, eisenstein(k, 150)) for k in (4, 8))
start = time.perf_counter()
span = hyper_tensor(t3e4, t3e8, reg)
spent = time.perf_counter() - start
text = json.dumps(span.to_json())
print(sorted(span.dimension_signature().items()), hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the weight-K triv grade of thm11 from E4 and E8 at Hecke indices 1 to M:
# t = (K - 12)/2 brackets, far past the t = 6 of the verify jobs; inner_s
# times thm11_span alone
_THM11_SPAN = """
import hashlib, json, sys, time
from vvmf.cli import load_bundled_registry, thm11_span
from vvmf.hyperalg import sturm_bound
reg = load_bundled_registry()
start = time.perf_counter()
span = thm11_span(K, 4, 8, list(range(1, M + 1)), sturm_bound(K, 1), reg)
spent = time.perf_counter() - start
text = json.dumps(span.to_json())
print(span.grade_dimension((K, "triv")), hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the induced types T_M rho3 at six indices up to dimension 93, built in
# process: coset actions with their integer relation checks, generator
# powers and levels read off the divisors of M; inner_s times the six
# builds alone
_INDUCED_RHO3 = """
import hashlib, json, sys, time
from vvmf.hecke import hecke_rep
from vvmf.reps import rho3
start = time.perf_counter()
types = [hecke_rep(M, rho3()).rep for M in (5, 7, 8, 9, 12, 16)]
spent = time.perf_counter() - start
text = json.dumps([t.to_json() for t in types])
print([(t.dim, t.level) for t in types], hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the first reduce_conductor of 2 + zeta_2520, which needs its full conductor,
# so the divisor walk lowers it to each of the 47 proper divisors of 2520;
# inner_s times the call alone
_REDUCE_2520 = """
import hashlib, json, sys, time
from vvmf.exactnum import CycNum
x = CycNum.zeta(2520) + 2
start = time.perf_counter()
low = x.reduce_conductor()
spent = time.perf_counter() - start
print(low.n, hashlib.sha256(json.dumps(low.to_json()).encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the closure of the CI pin at precision 33: vv_eisenstein(4, rho3, 3, 33)
# closed under tinf inside weights 4 to 10 for 4 rounds, one span grown by the
# forms each round accepted; inner_s times tinf_closure alone
_TINF_CLOSURE = """
import hashlib, json, sys, time
from vvmf.cli import load_bundled_registry
from vvmf.forms import vv_eisenstein
from vvmf.hyperalg import tinf_closure
reg = load_bundled_registry()
eis = vv_eisenstein(4, reg.get("rho3"), 3, 33)
start = time.perf_counter()
closure, stabilized = tinf_closure(eis, (4, 10), 4, reg)
spent = time.perf_counter() - start
text = json.dumps(closure.to_json())
print(stabilized, sorted(closure.dimension_signature().items()), hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.4f}", file=sys.stderr)
"""

# the bundled registry that every CLI job loads, after the CLI's own imports;
# inner_s times load_bundled_registry alone, and the answer is its labels and
# the digest of its JSON
_BUNDLED_REGISTRY = """
import hashlib, json, sys, time
import vvmf.cli
start = time.perf_counter()
reg = vvmf.cli.load_bundled_registry()
spent = time.perf_counter() - start
text = json.dumps(reg.to_json(), sort_keys=True)
print([e.label for e in reg], hashlib.sha256(text.encode()).hexdigest())
print(f"# inner_s={spent:.6f}", file=sys.stderr)
"""

CLI = ["python3", "-m", "vvmf.cli"]
RUNGS = {
    "hecke-cosets-g3-m3": CLI + ["hecke", "cosets", "--genus", "3", "--index", "3", "--count-only"],
    "hecke-cosets-g2-m12": CLI + ["hecke", "cosets", "--genus", "2", "--index", "12", "--count-only"],
    "hecke-cosets-g4-m2": CLI + ["hecke", "cosets", "--genus", "4", "--index", "2", "--count-only"],
    "hecke-cosets-g3-m4": CLI + ["hecke", "cosets", "--genus", "3", "--index", "4", "--count-only"],
    "bundled-registry": ["python3", "-c", _BUNDLED_REGISTRY],
    "induced-types-rho3": ["python3", "-c", _INDUCED_RHO3],
    "conductor-reduction-2520": ["python3", "-c", _REDUCE_2520],
    "decompose-T3T3rho3": CLI + ["decompose", "--rep", "T3(rho3)*T3(rho3)*rho3"],
    "decompose-T8T2": CLI + ["decompose", "--rep", "T8(rho3)*T2(rho3)"],
    "hom-residual-T5rho3": ["python3", "-c", 'EXPR, SPARSE = "T5(rho3)*rho3", False' + _HOM_RESIDUAL],
    # the stretch case of splitting a residual: dim End 78
    "hom-residual-T3T3rho3": ["python3", "-c",
                              'EXPR, SPARSE = "T3(rho3)*T3(rho3)", True' + _HOM_RESIDUAL],
    # the largest Rankin-Cohen bracket of the verify jobs: t = 5 on 4 x 4 components
    "thm11-k20": CLI + ["verify", "thm11", "--k", "20", "--l", "4", "--l2", "6",
                        "--indices", "1,2,3", "--format", "json"],
    # composite indices: the t = 6 bracket of the T6 images is on 12 x 12 components
    "thm11-k22-m146": CLI + ["verify", "thm11", "--k", "22", "--l", "4", "--l2", "6",
                             "--indices", "1,4,6", "--format", "json"],
    "vv-product-build": ["python3", "-c", _VV_BUILD],
    "vv-product-queries": ["python3", "-c", _VV_QUERIES],
    "hyperprod-t3e4-t3e8": ["python3", "-c", _HYPER_T3],
    "tinf-closure-rho3-p33": ["python3", "-c", _TINF_CLOSURE],
    "thm11-span-k60": ["python3", "-c", "K, M = 60, 5" + _THM11_SPAN],
    # a stretch rung: t = 30 brackets at Hecke indices 1 to 6
    "thm11-span-k72": ["python3", "-c", "K, M = 72, 6" + _THM11_SPAN],
    # high weight: the projections are stored on lattices 1/M, M <= 8 and
    # M <= 10, but have integer exponents, so the span's pivot state is laid
    # out on lattice 1; at k120 a pivot entry written at the joint conductor
    # 2520 lies in Q(zeta_3), and is inverted there
    "thm11-span-k96": ["python3", "-c", "K, M = 96, 8" + _THM11_SPAN],
    "thm11-span-k120": ["python3", "-c", "K, M = 120, 10" + _THM11_SPAN],
    # long series: the bracket at t = 5 and t = 0 to precision 120 and 60
    "thm11-k22-prec120": CLI + ["verify", "thm11", "--k", "22", "--indices", "1,2,3",
                                "--prec", "120", "--format", "json"],
    "thm11-k12-prec60": CLI + ["verify", "thm11", "--k", "12", "--indices", "1,3",
                               "--prec", "60", "--format", "json"],
    # the CI pin whose T4 components differ in lattice and precision
    "thm11-k20-l8": CLI + ["verify", "thm11", "--k", "20", "--l", "4", "--l2", "8",
                           "--indices", "1,2,4", "--format", "json"],
}


def run_once(root: str, argv: list) -> dict:
    """Wall time, peak RSS and output digest of one run of argv in root."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    out, err, status = [], [], []
    reader = threading.Thread(target=lambda: (out.append(child.stdout.read()),
                                              err.append(child.stderr.read())))
    waiter = threading.Thread(target=lambda: status.append(os.wait4(child.pid, 0)))
    reader.start()
    waiter.start()
    waiter.join(CAP_S)
    if waiter.is_alive():
        os.kill(child.pid, signal.SIGKILL)
        waiter.join()
        reader.join()
        return {"killed": True, "wall_s": CAP_S}
    wall = time.perf_counter() - start
    reader.join()
    tail = err[0].decode().splitlines()[-1:]
    inner = {"inner_s": float(tail[0][10:])} if tail and tail[0].startswith("# inner_s=") else {}
    return inner | {
        "exit": os.waitstatus_to_exitcode(status[0][1]),
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(status[0][2].ru_maxrss / 1024, 2),
        "digest": hashlib.sha256(out[0]).hexdigest(),
        "answer": out[0].decode().splitlines()[0] if out[0] else "",
    }


def revision(root: str) -> str:
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                           capture_output=True, text=True).stdout.strip()
    return head + (" with uncommitted src changes" if dirty else "")


def src_lines(root: str) -> int:
    """Lines of the checkout's src/vvmf/*.py, as `cat src/vvmf/*.py | wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in Path(root, "src", "vvmf").glob("*.py"))


def pair_count(first_parent_s: float) -> int:
    """Pairs for a rung whose first parent run took first_parent_s (0 before it runs)."""
    return 7 if first_parent_s < SUBSECOND_S else 3 if first_parent_s < SHORT_S else 1


def ladder(parent: str, change: str) -> list:
    rungs = []
    for name, argv in RUNGS.items():
        pairs = []
        while len(pairs) < pair_count(pairs[0]["parent"]["wall_s"] if pairs else 0):
            # the side that runs first alternates from pair to pair
            sides = [("parent", parent), ("change", change)][:: -1 if len(pairs) % 2 else 1]
            pair = {side: run_once(root, argv) for side, root in sides}
            pairs.append({"parent": pair["parent"], "change": pair["change"]})
            print(name, json.dumps(pairs[-1]), flush=True)
        runs = [run for pair in pairs for run in pair.values()]
        digests = sorted({run["digest"] for run in runs if "digest" in run})
        answers = {side: run["answer"] for pair in pairs for side, run in pair.items() if "answer" in run}
        rungs.append({
            "name": name,
            "command": argv,
            "digest": digests[0] if len(digests) == 1 else digests,
            # a rung whose answer the change alters records each side's
            "answer": answers if len(set(answers.values())) > 1 else next(iter(answers.values()), None),
            "killed": any(run.get("killed") for run in runs),
            "pairs": [
                {side: {k: run[k] for k in ("wall_s", "peak_rss_mb", "inner_s", "killed", "exit") if k in run}
                 for side, run in pair.items()}
                for pair in pairs
            ],
        })
    return rungs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout with the change")
    ap.add_argument("--out", default="BENCH_ladder.json")
    args = ap.parse_args(argv)
    report = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "parent": revision(args.parent),
        "change": revision(args.change),
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "cap_s": CAP_S,
        "rungs": ladder(args.parent, args.change),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
