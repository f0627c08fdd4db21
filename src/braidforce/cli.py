"""Command line interface.

Each subcommand returns an exit code and its JSON document; its parser
carries a renderer that turns the document into text.  ``main`` alone picks
JSON or text and prints it; it is the only place that writes to stdout.

Exit codes: 0 for a decided answer, 1 when bounded searches left the answer
Unknown or inexact, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from .augbraid import AugBraid, from_word, parse_aug
from .braid import BraidWord, braid_eq, format_braid, parse_braid, perm, power
from .freegroup import FreeWord, format_word, parse_word
from .nielsen import (
    Decision,
    SearchBounds,
    TwistContext,
    _check_iterate,
    _format_pairs,
    _iterate,
    degenerate_families,
    format_trace,
    reidemeister_trace,
    twisted_conj,
)
from .forcing import forced_set, is_forced, report_json, report_text


def _json_safe(obj):
    if isinstance(obj, FreeWord):
        return format_word(obj)
    if isinstance(obj, (tuple, list)):
        return [_json_safe(x) for x in obj]
    return obj


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)`` for a document of str, int, bool, None, lists, tuples and str-keyed dicts.

    The standard encoder runs in pure Python whenever ``indent`` is set.
    This writer appends chunks to one list and joins it once, and escapes
    each distinct string once through the C ``encode_basestring_ascii``.
    The escapes are memoised by the string itself: a word keeps its text,
    so a word that recurs across pairs or between a class and a forced
    braid is one str, whose hash is computed once and whose lookup matches
    by identity.  A list's items are not joined into one string first: the
    pairs of a long trace hold megabytes of text, which that would copy
    once more.  Types are matched exactly: a float, a subclass of those
    types or a key that is not a str raises TypeError.
    """
    chunks: list[str] = []
    append = chunks.append
    escaped: dict[str, str] = {}

    def write(o, pad: str) -> None:
        # pad is the newline and indentation before o's closing bracket
        t = type(o)
        if t is str:
            e = escaped.get(o)
            if e is None:
                e = escaped[o] = encode_basestring_ascii(o)
            append(e)
        elif t is int:
            append(repr(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif t is list or t is tuple:
            if not o:
                append("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for x in o:
                append(sep)
                write(x, inner)
                sep = "," + inner
            append(pad + "]")
        elif t is dict:
            if not o:
                append("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for k, v in o.items():
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                append(sep)
                write(k, inner)
                append(": ")
                write(v, inner)
                sep = "," + inner
            append(pad + "}")
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    write(doc, "\n")
    return "".join(chunks)


def _bounds(args) -> SearchBounds:
    return SearchBounds(args.radius, args.k_max)


def _head(args, beta: BraidWord) -> dict:
    """The leading keys of a JSON document about an iterate of ``beta``."""
    return {"n": args.strands, "m": args.m, "braid": format_braid(beta)}


def _report_decision(args, beta: BraidWord, inputs: dict, d: Decision) -> dict:
    """The document of a decision: the query's inputs, then the verdict."""
    return {
        **_head(args, beta),
        **inputs,
        "bounds": asdict(_bounds(args)),
        "verdict": d.kind,
        "witness": _json_safe(d.witness),
        "certificate": _json_safe(d.certificate),
    }


def _decision_text(doc: dict) -> str:
    lines = [f"verdict: {doc['verdict']}"]
    if doc["witness"] is not None:
        lines.append(f"witness: {doc['witness']}")
    if doc["certificate"]:
        lines.append("certificate: " + " ".join(map(str, doc["certificate"])))
    return "\n".join(lines)


def _trace_text(doc: dict) -> str:
    return "\n".join([doc["trace"], *(f"unresolved: [{a}] ~? [{b}]" for a, b in doc["unresolved"])])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each subcommand's parser carries its ``run`` and ``text``."""
    parser = argparse.ArgumentParser(
        prog="braidforce",
        description="Forced orbit braids of braid iterates via Fox calculus and twisted conjugacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, help, bounds=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, text=text)
        p.add_argument("-n", "--strands", type=int, required=True, help="number of strands")
        p.add_argument("--braid", required=True, help="braid word, e.g. 's1 s2 s3^-1'")
        p.add_argument("-m", type=int, default=1, help="iteration count (default 1)")
        if bounds:
            p.add_argument(
                "--radius", type=int, default=SearchBounds.radius, help="conjugator search radius (default %(default)s)"
            )
            p.add_argument(
                "--k-max", type=int, default=SearchBounds.k_max, help="strand-loop power bound (default %(default)s)"
            )
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    command(
        "action",
        _cmd_action,
        lambda doc: "\n".join(f"x{i} -> {img}" for i, img in enumerate(doc["images"], start=1)),
        "images of the free group generators under the braid action",
    )
    command("perm", _cmd_perm, lambda doc: " ".join(map(str, doc["perm"])), "strand permutation of the braid iterate")
    command("trace", _cmd_trace, _trace_text, "merged Fox trace of the braid iterate", bounds=True)

    p = command("forced", _cmd_forced, report_text, "all braids forced by the braid iterate", bounds=True)
    p.add_argument("--boundary-fixed", action="store_true", help="drop the class realized on the boundary")
    p.add_argument("--permissive", action="store_true", help="keep classes with unknown degeneracy")

    p = command("is-forced", _cmd_is_forced, _decision_text, "decide whether a candidate braid is forced", bounds=True)
    p.add_argument("--aug", help="candidate as '(braid ; tail)' on n strands")
    p.add_argument("--word", help="candidate tail word; base defaults to the braid iterate")
    p.add_argument("--cand", help="candidate as a braid word on n+1 strands")

    command(
        "degenerate",
        _cmd_degenerate,
        lambda doc: "\n".join(f"strand {f['strand']}: conj = {f['conj']}" for f in doc["families"]) or "none",
        "degenerate families carried by fixed strands",
    )

    p = sub.add_parser("eq", help="decide equality of two braid words")
    p.set_defaults(run=_cmd_eq, text=lambda doc: "equal" if doc["equal"] else "not equal")
    p.add_argument("-n", "--strands", type=int, required=True)
    p.add_argument("--braid", action="append", required=True, help="give twice: the two braid words")
    p.add_argument("--json", action="store_true")

    p = command(
        "twisted-conj",
        _cmd_twisted_conj,
        _decision_text,
        "decide twisted conjugacy of two words under the braid action",
        bounds=True,
    )
    p.add_argument("--word", action="append", required=True, help="give twice: the two free group words")

    p = sub.add_parser("decompose", help="split a braid word fixing strand n+1 into (base ; tail)")
    p.set_defaults(run=_cmd_decompose, text=lambda doc: f"({doc['base']} ; {doc['tail']})")
    p.add_argument("-n", "--punctures", type=int, required=True, help="number of punctures n")
    p.add_argument("--braid", required=True, help="braid word on n+1 strands")
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_action(args) -> tuple[int, dict]:
    beta = parse_braid(args.braid, args.strands)
    return 0, {**_head(args, beta), "images": [format_word(w) for w in _iterate(beta, args.m).images]}


def _cmd_perm(args) -> tuple[int, dict]:
    beta = parse_braid(args.braid, args.strands)
    _check_iterate(args.m)
    # beta^m moves each strand m mod (its cycle's length) steps along its cycle of perm(beta)
    p = perm(beta).images
    images = []
    for k in range(1, beta.strands + 1):
        cycle = [k]
        while p[cycle[-1] - 1] != k:
            cycle.append(p[cycle[-1] - 1])
        images.append(cycle[args.m % len(cycle)])
    return 0, {**_head(args, beta), "perm": images}


def _cmd_trace(args) -> tuple[int, dict]:
    beta = parse_braid(args.braid, args.strands)
    bounds = _bounds(args)
    trace = reidemeister_trace(beta, args.m, bounds)
    return (1 if trace.unresolved else 0), {
        **_head(args, beta),
        "bounds": asdict(bounds),
        "trace": format_trace(trace),
        "summands": [
            {"coefficient": s.coefficient, "representative": format_word(s.representative)}
            for s in trace.summands
        ],
        "unresolved": _format_pairs(trace.unresolved),
        "exact": not trace.unresolved,
    }


def _cmd_forced(args) -> tuple[int, dict]:
    beta = parse_braid(args.braid, args.strands)
    report = forced_set(beta, args.m, _bounds(args), args.boundary_fixed, args.permissive)
    return (0 if report.exact else 1), report_json(report)


def _cmd_is_forced(args) -> tuple[int, dict]:
    beta = parse_braid(args.braid, args.strands)
    given = [x for x in (args.aug, args.word, args.cand) if x is not None]
    if len(given) != 1:
        raise ValueError("give the candidate exactly one way: --aug, --word, or --cand")
    if args.aug is not None:
        cand = parse_aug(args.aug, args.strands)
    elif args.word is not None:
        _check_iterate(args.m)  # before power, so a bad m gets the message every command gives
        cand = AugBraid(power(beta, args.m), parse_word(args.word, args.strands))
    else:
        cand = from_word(parse_braid(args.cand, args.strands + 1))
    d = is_forced(cand, beta, args.m, _bounds(args))
    candidate = {"base": format_braid(cand.base), "tail": format_word(cand.tail)}
    return (1 if d.is_unknown else 0), _report_decision(args, beta, {"candidate": candidate}, d)


def _cmd_degenerate(args) -> tuple[int, dict]:
    beta = parse_braid(args.braid, args.strands)
    fams = degenerate_families(beta, args.m)
    return 0, {**_head(args, beta), "families": [{"strand": f.strand, "conj": format_word(f.conj)} for f in fams]}


def _cmd_eq(args) -> tuple[int, dict]:
    if len(args.braid) != 2:
        raise ValueError("eq needs --braid given exactly twice")
    b1, b2 = (parse_braid(b, args.strands) for b in args.braid)
    return 0, {"n": args.strands, "left": format_braid(b1), "right": format_braid(b2), "equal": braid_eq(b1, b2)}


def _cmd_twisted_conj(args) -> tuple[int, dict]:
    if len(args.word) != 2:
        raise ValueError("twisted-conj needs --word given exactly twice")
    beta = parse_braid(args.braid, args.strands)
    ctx = TwistContext.create(_iterate(beta, args.m), _bounds(args))
    u, v = (parse_word(w, args.strands) for w in args.word)
    d = twisted_conj(ctx, u, v)
    return (1 if d.is_unknown else 0), _report_decision(args, beta, {"u": format_word(u), "v": format_word(v)}, d)


def _cmd_decompose(args) -> tuple[int, dict]:
    w = parse_braid(args.braid, args.punctures + 1)
    a = from_word(w)
    return 0, {
        "punctures": args.punctures,
        "input": format_braid(w),
        "base": format_braid(a.base),
        "tail": format_word(a.tail),
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # a result failed its verification by substitution: a bug, not bad input
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # uncaught, it would exit 1, which reads as unknown; a huge -m can ask for more memory than exists
        print("error: out of memory", file=sys.stderr)
        return 2
    print(_json_text(doc) if args.json else args.text(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
