"""The vvmf benchmark: closed-loop workloads in fresh single-threaded interpreters.

    python3 perfbench/run.py                      # all workloads, end to end
    python3 perfbench/run.py --workload vv-product --seed 2 --seconds 30 --trace 1

Run from the root of a checkout; the program is imported from src/.  A run
is a number of rounds, which follows from --seconds and SECONDS_PER_ROUND;
a round runs the workload's passes (worker.round_jobs), each in its own
interpreter, one at a time, so no cache carries over.  With --trace 0 the
run reports the end-to-end metrics, measured untraced, each a median over
the rounds; with --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones plus the tracing overhead.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  Details, machine facts and spans go to .perfbench_out/.  The exit
code is 1 when any answer was wrong and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, layer_metrics, merge_tallies  # noqa: E402
from worker import WORKLOADS, round_jobs  # noqa: E402

SETUP_REPEATS = 9  # set-up-only interpreters per run, besides those of the rounds
# A run makes ceil(seconds / SECONDS_PER_ROUND) rounds.  The count does not
# follow the program's speed, so compared runs take the same number of
# samples.  With these values a run of --seconds 30 makes 3 thm11-span
# rounds (about 11 s each on the 2-core Xeon where the benchmark was
# defined), 3 homspace-induced rounds (about 8 s) and 2 vv-product rounds
# (about 12 s).
SECONDS_PER_ROUND = {"thm11-span": 12.0, "homspace-induced": 10.0, "vv-product": 15.0}
RUN_LIMIT_S = 170  # a run ends within this, whatever --seconds says
# Times are reported at the reference speed: each measured time is scaled by
# REF_UNIT_S / the time of a reference unit run around and during it (see
# worker.Pass).  REF_UNIT_S is about the unit's median on the 2-core Xeon
# where the benchmark was defined, so there the scaled times read as seconds.
REF_UNIT_S = 0.0023


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def scaled(seconds: float, ref_unit_s: float) -> float:
    """A measured time at the reference speed."""
    return seconds * REF_UNIT_S / ref_unit_s


def tail_level(n: int) -> float:
    """The highest percentile of n samples that has at least ten samples
    beyond it; with ten samples or fewer, 100 (the maximum)."""
    return 100.0 if n <= 10 else 100.0 * (n - 11) / (n - 1)


def percentile(samples, level: float) -> float:
    """Linearly interpolated percentile; level 50 is the median."""
    s = sorted(samples)
    pos = level / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list = []
        self.raw: list = []  # [seconds, is_request, ref_unit_s] of every call, by round

    def child(self, mode: str, job: str | None = None, spans: Path | None = None) -> dict | None:
        """One fresh interpreter; None when it crashed or ran out of time."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if job is not None:
            cmd += ["--job", job]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(left, 1)
            )
            res = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        except subprocess.TimeoutExpired:
            proc, res = None, None
        except (json.JSONDecodeError, IndexError):
            res = None
        if res is None:
            if proc is None:
                why = "timed out"
            else:
                why = f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            self.attempted += 1
            self.failures.append(f"{mode} pass {why}")
            return None
        if mode != "setup":
            self.attempted += res["attempted"]
            self.failures += res["failures"]
        return res

    def round(self, mode: str, index: int) -> dict | None:
        """The passes of one round, each in a fresh interpreter, summed up;
        None when one of them failed to report."""
        parts = []
        for job in round_jobs(self.workload, self.seed, index):
            spans = None
            if mode == "traced":
                spans = OUT / f"spans-{self.workload}-seed{self.seed}-{index}-{job}.json"
            res = self.child(mode, job, spans)
            if res is None:
                return None
            parts.append((job or "", res))
        # calls line up across rounds in job order, whatever order they ran in
        parts = [res for _, res in sorted(parts, key=lambda part: part[0])]
        calls = [c for r in parts for c in r["calls"]]
        return {
            "setups": [scaled(r["setup_s"], r["setup_ref_unit_s"]) for r in parts],
            "calls": calls,
            "wall_s": sum(call[0] for call in calls),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in parts),
            "tally": merge_tallies(r["tally"] for r in parts) if mode == "traced" else None,
            "missing": sorted({m for r in parts for m in r.get("missing_entry_points", [])}),
        }

    def rounds(self, modes) -> list:
        """Cycle through modes, one round each, until every mode has run its
        share of the rounds or a round fails to report."""
        count = max(1, math.ceil(self.seconds / (SECONDS_PER_ROUND[self.workload] * len(modes))))
        out = []
        for i in range(count * len(modes)):
            mode = modes[i % len(modes)]
            res = self.round(mode, i)
            if res is None:
                break
            out.append((mode, res))
        return out


def end_to_end(run: Run) -> tuple:
    setup_runs = (run.child("setup") for _ in range(SETUP_REPEATS))
    setups = [scaled(r["setup_s"], r["setup_ref_unit_s"]) for r in setup_runs if r is not None]
    plain = [res for _, res in run.rounds(["plain"])]
    setups += [s for r in plain for s in r["setups"]]
    shapes = {tuple(q for _, q, _ in r["calls"]) for r in plain}
    if not plain or len(shapes) != 1 or not any(shapes.pop()):
        return {}, {}
    # The shared host slows a process by up to 1.7 times, for seconds to
    # minutes at a time, and the reference units run around and during each
    # call slow alike; so each call's time is taken at the reference speed.  Every
    # round makes the same calls in the same order, and each call's time is
    # its median over the rounds.
    run.raw = [r["calls"] for r in plain]
    rounds = [[(scaled(sec, unit), query) for sec, query, unit in r["calls"]] for r in plain]
    per_call = [
        (statistics.median(sec for sec, _ in same), same[0][1]) for same in zip(*rounds)
    ]
    lat = [sec * 1000.0 for sec, query in per_call if query]
    # the tail's level is set by all the requests the run made
    level = tail_level(len(lat) * len(plain))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(sec for sec, _ in per_call), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
        "query_p50_ms": (statistics.median(lat), "ms"),
        "query_tail_ms": (percentile(lat, level), "ms"),
    }
    walls = ", ".join(f"{r['wall_s']:.4g}" for r in plain)
    averaged = f"each the median of {len(plain)} rounds"
    notes = {
        "setup_s": f"median of {len(setups)} interpreters",
        "wall_s": f"{len(per_call)} calls, {averaged}; measured round walls {walls}",
        "peak_rss_mb": f"median of {len(plain)} rounds",
        "query_p50_ms": f"median of {len(lat)} requests, {averaged}",
        "query_tail_ms": (f"p{level:.1f}" if level < 100 else "maximum")
        + f" of {len(lat)} requests, {averaged}",
    }
    return metrics, notes


def per_layer(run: Run) -> tuple:
    done = run.rounds(["plain", "traced"])
    plain = [res["wall_s"] for mode, res in done if mode == "plain"]
    traced = [res for mode, res in done if mode == "traced"]
    if not plain or not traced:
        return {}, {}
    metrics, notes = {}, {}
    layers = [layer_metrics(t["tally"]) for t in traced]
    first = layers[0]
    for name, unit in LAYER_METRICS.items():
        values = [lay[name] for lay in layers]
        # counts and their ratios repeat exactly; only times are medians
        if unit != "s" or None in values:
            metrics[name] = (first[name], unit)
            if any(v != first[name] for v in values):
                notes[name] = f"differs between traced rounds: {values}"
        else:
            metrics[name] = (statistics.median(values), unit)
            notes[name] = f"median of {len(values)} traced rounds"
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
    notes["trace.overhead_s"] = (
        f"traced wall minus untraced wall, {len(traced)} and {len(plain)} rounds"
    )
    missing = sorted({m for t in traced for m in t["missing"]})
    if missing:
        notes["trace.missing"] = "entry points not found: " + ", ".join(missing)
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> bool:
    OUT.mkdir(exist_ok=True)
    facts = machine()
    run = Run(workload, seed, seconds)
    metrics, notes = (per_layer if trace else end_to_end)(run)
    if not metrics:
        run.failures.append("no pass reported a result")
        run.attempted = max(run.attempted, 1)
    facts["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    failed = len(run.failures)
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"nproc={facts['nproc']} python={facts['python']} "
          f"loadavg={facts['loadavg']} -> {facts['loadavg_end']}")
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit:6s} {notes.get(name, '')}")
    for name in sorted(set(notes) - set(metrics)):
        print(f"# {name}: {notes[name]}")
    ratio = failed / run.attempted
    print(f"{'fail_ratio':32s} {ratio:>14.6g} {'ratio':6s} {failed} of {run.attempted} operations")
    for msg in run.failures[:20]:
        print(f"# FAIL {msg}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  machine=facts, notes=notes, failures=run.failures, rounds_s=run.raw)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return failed == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vvmf" / "__init__.py").is_file():
        print(f"error: no vvmf sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
