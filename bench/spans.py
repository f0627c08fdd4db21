"""Per-layer tracing from outside the library.

``Tracer.install`` wraps each traced function in every ``braidforce`` module
namespace that bound it, so calls between modules (``forced_set`` calling
``merge`` through the name in ``forcing``, ``cli`` calling its own imports)
all pass through one wrapper.  Each call is a span; a span's self time is its
duration minus the durations of the traced spans it encloses.  Spans are
folded into per-function totals as they close, together with a few counts
read off arguments and results.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import workloads

TRACED = (
    "cli.main",
    "forcing.forced_set",
    "forcing.is_forced",
    "nielsen.merge",
    "nielsen.canonical_rep",
    "nielsen.twisted_conj",
    "nielsen.abelian_invariant",
    "nielsen.is_degenerate",
    "foxcalc.raw_trace",
    "freegroup.endo_power",
    "braid.artin",
    "braid.braid_eq",
    "augbraid.to_word",
    "augbraid.from_word",
)


class Tracer:
    def __init__(self, package, clock=perf_counter):
        self.clock = clock
        self.package = package
        self.spans = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, total s, self s
        self.counts = Counter()
        self._open = []  # enclosed-span time of each open span
        self._seen_canonical = set()
        self._installed = []

    def install(self):
        prefix = self.package.__name__
        modules = [m for name, m in sys.modules.items() if name == prefix or name.startswith(prefix + ".")]
        for qualname in TRACED:
            module, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"{prefix}.{module}"], attr)
            wrapper = self._wrap(qualname, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._installed.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self):
        for m, name, original in reversed(self._installed):
            setattr(m, name, original)
        self._installed.clear()

    def _wrap(self, qualname, fn):
        record = self.spans[qualname]
        hook = qualname.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        failed = getattr(self, "_failed_" + hook, None)
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                duration = clock() - start
                enclosed = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - enclosed
            if after is not None:
                after(result)
            return result

        return traced

    def _before_nielsen_canonical_rep(self, args):
        key = (args[0], args[1])
        if key in self._seen_canonical:
            self.counts["nielsen.canonical_rep.repeats"] += 1
        else:
            self._seen_canonical.add(key)

    def _failed_augbraid_from_word(self, exc):
        if workloads.is_refusal(exc):
            self.counts["augbraid.from_word.refused"] += 1

    def _after_nielsen_twisted_conj(self, decision):
        self.counts["nielsen.twisted_conj." + decision.kind] += 1

    def _after_nielsen_merge(self, trace):
        self.counts["nielsen.classes"] += len(trace.summands)
        self.counts["nielsen.unresolved_pairs"] += len(trace.unresolved)

    def _after_foxcalc_raw_trace(self, raw):
        self.counts["foxcalc.raw_terms"] += len(raw.terms)

    def _after_freegroup_endo_power(self, theta):
        longest = max(len(w) for w in theta.images)
        self.counts["freegroup.image_letters_max"] = max(self.counts["freegroup.image_letters_max"], longest)

    def layers(self):
        """Every per-layer metric, named module.function.quantity."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        c = self.counts
        rep_calls = self.spans["nielsen.canonical_rep"][0]
        out["nielsen.canonical_rep.repeat_ratio"] = c["nielsen.canonical_rep.repeats"] / rep_calls if rep_calls else 0.0
        tc_calls = self.spans["nielsen.twisted_conj"][0]
        for kind in ("yes", "no", "unknown"):
            out[f"nielsen.twisted_conj.{kind}"] = c[f"nielsen.twisted_conj.{kind}"]
        decided = c["nielsen.twisted_conj.yes"] + c["nielsen.twisted_conj.no"]
        out["nielsen.twisted_conj.decided_ratio"] = decided / tc_calls if tc_calls else 0.0
        for key in ("nielsen.classes", "nielsen.unresolved_pairs", "foxcalc.raw_terms",
                    "freegroup.image_letters_max", "augbraid.from_word.refused"):
            out[key] = c[key]
        return out
