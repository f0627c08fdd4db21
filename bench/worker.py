"""One cold pass of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--traced]

Prints ``ready`` once ``braidforce`` is imported and the inputs are built,
then runs every operation once while a HostGauge samples the host's speed,
checks the answers and prints one JSON line.  The parent (run.py) times
set-up as process start to ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import braidforce  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

PROBE_EVERY_S = 0.025


class HostGauge:
    """Times workloads.host_probe every PROBE_EVERY_S of wall time while the
    operations run, also in the middle of one, from a timer signal, and once
    on entry and on exit.  The time spent sampling is kept in ``spent`` so
    that it can be taken out of the operations' times."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(workloads.host_probe())
        self.spent += perf_counter() - start

    def local(self, first, end):
        """Mean probe time while an operation ran: the samples taken during
        it (indices first to end), or else the one just before and the one
        just after."""
        near = self.samples[first:end] or self.samples[first - 1 : first + 1]
        return sum(near) / len(near)

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    ops, meta = workloads.BUILD[args.workload](args.seed)
    gauge = HostGauge()
    # Span times leave out the probes that the gauge runs inside them.
    tracer = spans.Tracer(braidforce, clock=lambda: perf_counter() - gauge.spent) if args.traced else None
    print("ready", flush=True)

    if tracer:
        tracer.install()
    results = []
    with gauge:
        for op in ops:
            t, spent, first = perf_counter(), gauge.spent, len(gauge.samples)
            try:
                out, exc = workloads.run(op), None
            except Exception as e:  # counted below; the pass goes on
                out, exc = None, e
            results.append((out, exc, perf_counter() - t - (gauge.spent - spent), first, len(gauge.samples)))
    pass_s = sum(r[2] for r in results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    records, digests, problems = [], {}, []
    for op, (out, exc, dt, first, end) in zip(ops, results):
        digest = None
        if exc is not None:
            state = "refused" if workloads.is_refusal(exc) else "failed"
            problem = None if state == "refused" else f"{type(exc).__name__}: {exc}"
        else:
            try:
                state, problem, digest = workloads.check(op, out)
            except Exception as e:  # a malformed answer is a failed op
                state, problem = "failed", f"check raised {type(e).__name__}: {e}"
        if problem and state == "failed":
            problems.append(f"{op['kind']} {op.get('id', '')}: {problem}".strip())
        if digest:
            digests[op["id"]] = digest
        records.append((dt, state, gauge.local(first, end)))

    doc = {
        "pass_s": pass_s,
        "probes": gauge.samples,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "problems": problems,
        "digests": digests,
        **meta,
    }
    if tracer:
        doc["layers"] = tracer.layers()
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
