"""Forced orbit braids of a braid iterate.

Every essential, non-degenerate twisted conjugacy class of the m-th iterate
of a braid contributes one braid on n+1 strands that every homeomorphism
inducing the braid must exhibit among its m-th iterate orbits.  This module
assembles those braids, tracks how bounded-search Unknowns affect the
answer, and renders the result as a JSON document and that document as text.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .augbraid import AugBraid, _to_word_text
from .braid import BraidWord, _acts_as, format_braid, power
from .freegroup import FreeWord, format_word
from .nielsen import (
    Decision,
    MergedTrace,
    SearchBounds,
    _analyse,
    _format_pairs,
    _iterate,
    abelian_invariant,
    format_trace,
    twisted_conj,
)


@dataclass(frozen=True)
class ClassReport:
    """One essential class with everything the forcing verdict used."""

    coefficient: int
    representative: FreeWord
    degeneracy: Decision
    abelian_label: tuple[int, ...]
    boundary: Decision | None = None


@dataclass(frozen=True)
class ForcingReport:
    beta: BraidWord
    m: int
    bounds: SearchBounds
    boundary_fixed: bool
    permissive: bool
    base: BraidWord
    trace: MergedTrace
    classes: tuple[ClassReport, ...]
    forced: tuple[AugBraid, ...]
    exact: bool


def forced_set(
    beta: BraidWord,
    m: int,
    bounds: SearchBounds = SearchBounds(),
    boundary_fixed: bool = False,
    permissive: bool = False,
) -> ForcingReport:
    """All braids forced by the m-th iterate of beta.

    Strict mode keeps only classes whose degeneracy decision is a definite
    No; permissive mode also keeps Unknowns.  With boundary_fixed, classes
    equivalent to the empty tail are removed as well, since they are
    realized on the boundary.  exact is False whenever any Unknown decision
    could have changed the answer.  Both flags must be bools.
    """
    if type(boundary_fixed) is not bool or type(permissive) is not bool:
        raise ValueError(f"flags must be bools, got boundary_fixed={boundary_fixed!r}, permissive={permissive!r}")
    pipeline = _analyse(_iterate(beta, m), bounds)
    ctx, trace = pipeline.ctx, pipeline.trace
    base = power(beta, m)
    identity = FreeWord(beta.strands)

    classes: list[ClassReport] = []
    forced: list[AugBraid] = []
    exact = not trace.unresolved
    for i, s in enumerate(trace.summands):
        deg = pipeline.degeneracy(i)
        bd = twisted_conj(ctx, identity, s.representative) if boundary_fixed else None
        classes.append(
            ClassReport(s.coefficient, s.representative, deg, abelian_invariant(ctx, s.representative), bd)
        )
        if deg.is_unknown or (bd is not None and bd.is_unknown):
            exact = False
        keep = not deg.is_yes if permissive else deg.is_no
        if keep and (bd is None or not bd.is_yes):
            forced.append(AugBraid(base, s.representative))
    return ForcingReport(
        beta, m, bounds, boundary_fixed, permissive, base, trace, tuple(classes), tuple(forced), exact
    )


def is_forced(
    candidate: AugBraid,
    beta: BraidWord,
    m: int,
    bounds: SearchBounds = SearchBounds(),
) -> Decision:
    """Decide whether the candidate is one of the braids forced by beta^m.

    The base must equal beta^m as a braid: its Artin action must be theta,
    the m-th iterate of beta's, which beta keeps once folded and which
    also feeds the pipeline.  A base spelling beta's letters m times over
    is the word power(beta, m) builds, and artin is a homomorphism, so it
    acts by theta and is not folded; any other base is folded under the
    cap and its text compared with theta's coded images, so no
    endomorphism is built for it.  The tail is
    then matched against the essential class representatives.  Hitting a
    degenerate class is a definite No, while exhausted searches or
    unresolved class splits give Unknown.

    Only the classes whose abelian invariant is the tail's are searched, in
    summand order, from the pipeline's bucket: twisted_conj certifies every
    other class distinct, a No that the loop would pass over.  A class's
    unresolved flag and degeneracy are read from the pipeline too, so a
    repeated query decides neither again.
    """
    if candidate.punctures != beta.strands:
        raise ValueError("puncture count mismatch")
    theta = _iterate(beta, m)
    if candidate.base.letters != beta.letters * m and not _acts_as(candidate.base, theta):
        return Decision("no", None, ("base_mismatch",))
    pipeline = _analyse(theta, bounds)
    ctx, trace = pipeline.ctx, pipeline.trace
    saw_unknown = bool(trace.unresolved)
    for i in pipeline.buckets.get(abelian_invariant(ctx, candidate.tail), ()):
        s = trace.summands[i]
        d = twisted_conj(ctx, s.representative, candidate.tail)
        if d.is_unknown:
            saw_unknown = True
            continue
        if d.is_no:
            continue
        if pipeline.in_unresolved[i]:
            return Decision("unknown", None, ("unresolved_class", s.representative))
        deg = pipeline.degeneracy(i)
        if deg.is_yes:
            return Decision("no", None, ("degenerate_class", s.representative))
        if deg.is_unknown:
            return Decision("unknown", None, ("degeneracy_unknown", s.representative))
        return Decision("yes", d.witness, ("class", s.representative))
    if saw_unknown:
        return Decision("unknown", None, ("radius", bounds.radius))
    return Decision("no", None, ("inessential",))


# ---------------------------------------------------------------------------
# rendering


def report_json(report: ForcingReport) -> dict:
    classes = []
    for c in report.classes:
        entry = {
            "coefficient": c.coefficient,
            "representative": format_word(c.representative),
            "degeneracy": c.degeneracy.kind,
            "abelian_label": list(c.abelian_label),
            "boundary": None if c.boundary is None else c.boundary.kind,
        }
        classes.append(entry)
    return {
        "n": report.beta.strands,
        "m": report.m,
        "beta": format_braid(report.beta),
        "base_word": format_braid(report.base),
        "bounds": asdict(report.bounds),
        "boundary_fixed": report.boundary_fixed,
        "permissive": report.permissive,
        "trace": format_trace(report.trace),
        "classes": classes,
        "forced": [
            {
                "base": format_braid(a.base),
                "tail": format_word(a.tail),
                "word": _to_word_text(a),
            }
            for a in report.forced
        ],
        "unresolved": _format_pairs(report.trace.unresolved),
        "exact": report.exact,
    }


def report_text(doc: dict) -> str:
    """The text form of a report_json document."""
    lines = [
        f"braid: {doc['beta']}",
        f"strands: {doc['n']}",
        f"iterate m: {doc['m']}",
        f"base word: {doc['base_word']}",
        "bounds: " + " ".join(f"{k}={v}" for k, v in doc["bounds"].items()),
        f"boundary_fixed: {'yes' if doc['boundary_fixed'] else 'no'}",
        f"permissive: {'yes' if doc['permissive'] else 'no'}",
        f"trace: {doc['trace']}",
        "classes:",
    ]
    if not doc["classes"]:
        lines.append("  none")
    for c in doc["classes"]:
        mark = "+" if c["coefficient"] > 0 else ""
        row = (
            f"  coeff={mark}{c['coefficient']} rep=[{c['representative']}]"
            f" degenerate={c['degeneracy']} label={tuple(c['abelian_label'])}"
        )
        if doc["boundary_fixed"]:
            row += f" boundary={c['boundary'] or '-'}"
        lines.append(row)
    lines.append(f"forced count: {len(doc['forced'])}")
    lines += (f"  ({f['base']} ; {f['tail']}) word: {f['word']}" for f in doc["forced"])
    if doc["unresolved"]:
        lines.append("unresolved pairs:")
        lines += (f"  [{a}] ~? [{b}]" for a, b in doc["unresolved"])
    else:
        lines.append("unresolved pairs: none")
    lines.append(f"exact: {'yes' if doc['exact'] else 'no'}")
    return "\n".join(lines)
