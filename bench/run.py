"""Benchmark of braidforce, end to end and per layer.

    python3 bench/run.py --workload forced-cold --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``.  Each
pass runs in a fresh interpreter (bench/worker.py), one after another, so
every pass pays for cold caches the way a command-line user does.  With
``--trace 0`` the run repeats cold passes of one workload for ``--seconds``
(at least MIN_PASSES of them) and reports the end-to-end metrics, with
each pass's times put at a reference host speed (see PROBE_REF_S).  With
``--trace 1`` it alternates untraced and traced passes of every workload,
twice, and reports the per-layer metrics, named
``<workload>.<module>.<function>.<quantity>``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with everything else (shares, the tail percentile used, digests,
sampler rejections, failure messages).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("forced-cold", "pairwise-growth", "decide-stream")
MIN_PASSES = 6
PASS_TIMEOUT_S = 120
RUN_BUDGET_S = 150
TAIL_LADDER = tuple(range(50, 100)) + (99.5, 99.9)
# Fixed string hashing, so that every pass of a run does the same work.
PASS_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
    "answered_share": "ratio",
}

_COMMON_LAYERS = (
    ("nielsen.canonical_rep.calls", "count"),
    ("nielsen.canonical_rep.s", "s"),
    ("nielsen.canonical_rep.repeat_ratio", "ratio"),
    ("nielsen.twisted_conj.calls", "count"),
    ("nielsen.twisted_conj.s", "s"),
    ("nielsen.twisted_conj.yes", "count"),
    ("nielsen.twisted_conj.no", "count"),
    ("nielsen.twisted_conj.unknown", "count"),
    ("nielsen.twisted_conj.decided_ratio", "ratio"),
    ("nielsen.abelian_invariant.calls", "count"),
    ("nielsen.abelian_invariant.s", "s"),
    ("nielsen.merge.self_s", "s"),
    ("nielsen.unresolved_pairs", "count"),
    ("nielsen.is_degenerate.calls", "count"),
    ("nielsen.is_degenerate.s", "s"),
    ("nielsen.classes", "count"),
    ("foxcalc.raw_trace.s", "s"),
    ("foxcalc.raw_terms", "count"),
    ("freegroup.endo_power.s", "s"),
    ("freegroup.image_letters_max", "count"),
    ("braid.artin.calls", "count"),
    ("braid.artin.s", "s"),
    ("augbraid.to_word.s", "s"),
    ("trace.overhead_s", "s"),
)
_FORCED_LAYERS = (("forcing.forced_set.self_s", "s"), ("cli.main.self_s", "s"))
_DECIDE_LAYERS = (
    ("braid.braid_eq.s", "s"),
    ("augbraid.from_word.s", "s"),
    ("augbraid.from_word.refused", "count"),
    ("forcing.is_forced.s", "s"),
)
# Per workload, the layers its operations reach.
LAYERS = {
    "forced-cold": _COMMON_LAYERS + _FORCED_LAYERS,
    "pairwise-growth": _COMMON_LAYERS + _FORCED_LAYERS,
    "decide-stream": _COMMON_LAYERS + _DECIDE_LAYERS,
}


# Host speed.  The shared host runs the same pass up to 75% slower for
# seconds to minutes at a time, with CPU time equal to wall time, and no
# statistic over wall times within a run removes that.  So each pass times
# workloads.host_probe, a fixed computation that never calls braidforce,
# every 25 ms while its operations run (worker.HostGauge), and each op
# latency is multiplied by PROBE_REF_S / (the mean probe time while it ran),
# the set-up time by PROBE_REF_S / (the mean probe time of its pass): times
# are seconds at the host speed where the probe takes PROBE_REF_S, about the
# fastest speed of a 2-core Xeon VM.
PROBE_REF_S = 0.0007


class PassError(RuntimeError):
    pass


def scaled_latencies(doc) -> list:
    return [dt * PROBE_REF_S / probe_s for dt, _, probe_s in doc["ops"]]


def run_pass(workload: str, seed: int, traced: bool = False) -> dict:
    """One cold pass in a fresh interpreter; adds its set-up time as setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=PASS_ENV, stdout=subprocess.PIPE, text=True)
    deadline = threading.Timer(PASS_TIMEOUT_S, proc.kill)  # also bounds the wait for "ready"
    deadline.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate()
    finally:
        deadline.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise PassError(f"{workload} pass exited with code {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = setup_s
    return doc


def percentile(values, p):
    """Linear interpolation between order statistics."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it in MIN_PASSES passes.

    It is fixed per workload, so the same percentile is reported however many
    passes fit into a run."""
    n = ops_per_pass * MIN_PASSES
    return max(p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10)


def tally(passes):
    states = [state for doc in passes for _, state, _ in doc["ops"]]
    attempted = len(states)
    count = {s: states.count(s) for s in ("decided", "undecided", "refused", "failed")}
    problems = [p for doc in passes for p in doc["problems"]]
    return attempted, count, problems


def digest_report(passes):
    """Compare forcing-report digests with the recorded book; a change is reported, not failed."""
    book = json.loads((HERE / "digests.json").read_text())
    seen = {}
    unstable = set()
    for doc in passes:
        for case, digest in doc["digests"].items():
            if seen.setdefault(case, digest) != digest:
                unstable.add(case)
    changed = sorted(c for c, d in seen.items() if c in book and book[c] != d)
    return {
        "cases": len(seen),
        "matched": sum(1 for c, d in seen.items() if book.get(c) == d),
        "changed": changed,
        "unrecorded": sorted(c for c in seen if c not in book),
        "differs_between_passes": sorted(unstable),
    }


def measure(workload: str, seed: int, seconds: int):
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        if len(passes) >= MIN_PASSES and perf_counter() - start > RUN_BUDGET_S:
            break
        passes.append(run_pass(workload, seed))

    scaled = [scaled_latencies(doc) for doc in passes]
    latencies = [dt for ops in scaled for dt in ops]
    attempted, count, problems = tally(passes)
    tail_p = tail_percentile(len(passes[0]["ops"]))
    metrics = {
        "setup_s": statistics.median(doc["setup_s"] * PROBE_REF_S / statistics.fmean(doc["probes"]) for doc in passes),
        "pass_s": statistics.median(sum(ops) for ops in scaled),
        "op_s_p50": percentile(latencies, 50),
        "op_s_tail": percentile(latencies, tail_p),
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in passes),
        "decided_share": count["decided"] / attempted,
        "answered_share": 1 - count["refused"] / attempted,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "pass_seconds_unscaled": [doc["pass_s"] for doc in passes],
        "setup_s_unscaled": statistics.median(doc["setup_s"] for doc in passes),
        "pass_seconds": [sum(ops) for ops in scaled],
        "probes_per_pass": statistics.median(len(doc["probes"]) for doc in passes),
        "ops_per_pass": len(passes[0]["ops"]),
        "op_samples": len(latencies),
        "op_s_tail_percentile": tail_p,
        "states": count,
        "failed_share": count["failed"] / attempted,
        "refused_share": count["refused"] / attempted,
        "problems": problems[:20],
    }
    if "rejected_draws" in passes[0]:
        report["rejected_draws"] = passes[0]["rejected_draws"]
    if passes[0]["digests"]:
        report["digests"] = digest_report(passes)
    return metrics, END_TO_END, attempted, count["failed"], report


def trace_all(seed: int):
    """Untraced and traced passes of every workload, alternated twice.

    Counts must repeat exactly between the two traced passes; a mismatch is
    reported as a failed check.  Times are medians of the two."""
    metrics, units, report = {}, {}, {"seed": seed, "workloads": {}}
    attempted = failed = 0
    all_problems = []
    for workload in WORKLOADS:
        plain, traced = [], []
        for _ in range(2):
            plain.append(run_pass(workload, seed))
            traced.append(run_pass(workload, seed, traced=True))
        first, second = (doc["layers"] for doc in traced)
        unrepeated = [k for k, v in first.items() if isinstance(v, int) and second[k] != v]
        layers = {k: statistics.median([v, second[k]]) if isinstance(v, float) else v for k, v in first.items()}
        plain_s = statistics.median(sum(scaled_latencies(doc)) for doc in plain)
        traced_s = statistics.median(sum(scaled_latencies(doc)) for doc in traced)
        layers["trace.overhead_s"] = traced_s - plain_s
        for name, unit in LAYERS[workload]:
            metrics[f"{workload}.{name}"] = layers[name]
            units[f"{workload}.{name}"] = unit
        n, count, problems = tally(plain + traced)
        attempted += n
        failed += count["failed"] + (1 if unrepeated else 0)
        all_problems += problems + [f"{workload}: count {k} differs between traced passes" for k in unrepeated]
        report["workloads"][workload] = {
            "untraced_pass_s": plain_s,
            "traced_pass_s": traced_s,
            "states": count,
            "all_layers": layers,
        }
    report["problems"] = all_problems[:20]
    return metrics, units, attempted, failed, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through run_pass, which kills and reaps the pass process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "braidforce" / "__init__.py").is_file():
        print(f"error: no braidforce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, units, attempted, failed, report = trace_all(args.seed)
        else:
            metrics, units, attempted, failed, report = measure(args.workload, args.seed, args.seconds)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
