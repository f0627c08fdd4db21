import argparse
import dataclasses
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from braidforce import (
    AugBraid,
    BraidWord,
    Decision,
    FreeWord,
    SearchBounds,
    WordTooLongError,
    artin,
    braid_eq,
    degenerate_families,
    forced_set,
    format_trace,
    format_word,
    from_word,
    is_forced,
    merge,
    parse_braid,
    parse_word,
    power,
    reidemeister_trace,
    to_word,
)
from braidforce.braid import _fold
from braidforce import forcing
from braidforce.forcing import report_json, report_text
from braidforce.freegroup import apply, concat, reduce
from braidforce import nielsen
from braidforce.nielsen import is_degenerate, twisted_conj
from braidforce.cli import main
import oracles
from oracles import aug_eq, braid_invert, braid_mul, gen, invert, is_forced_by_every_class, pure_gen, report_json_text

BETA5 = parse_braid("s1 s2 s3^-1 s4^-1", 5)
IOTA5 = BraidWord(6, BETA5.letters)


def test_trivial_braid_forces_nothing():
    for n in (2, 3):
        rep = forced_set(BraidWord(n), 1)
        assert rep.forced == ()
        assert rep.exact
        assert len(rep.classes) == 1
        c = rep.classes[0]
        assert c.coefficient == -(n - 1)
        assert format_word(c.representative) == "e"
        assert c.degeneracy.is_yes


def test_sigma1_forces_one_braid():
    rep = forced_set(parse_braid("s1", 2), 1)
    assert len(rep.forced) == 1
    assert rep.exact
    a = rep.forced[0]
    assert braid_eq(a.base, parse_braid("s1", 2))
    assert format_word(a.tail) == "x1"


def test_fixed_strand_class_is_suppressed():
    # on 3 strands the third strand is fixed and carries the empty class
    rep = forced_set(parse_braid("s1", 3), 1)
    by_rep = {format_word(c.representative): c for c in rep.classes}
    assert set(by_rep) == {"x1", "e"}
    assert by_rep["e"].degeneracy.is_yes
    assert by_rep["x1"].degeneracy.is_no
    assert [format_word(a.tail) for a in rep.forced] == ["x1"]


def test_full_twist_forces_nothing():
    rep = forced_set(parse_braid("s1 s1", 2), 1)
    assert rep.forced == ()
    assert rep.exact
    assert len(rep.classes) == 1
    assert rep.classes[0].degeneracy.is_yes
    rep2 = forced_set(parse_braid("s1", 2), 2)
    assert rep2.forced == ()
    assert rep2.exact


def test_five_strand_golden_forced_set():
    rep = forced_set(BETA5, 1)
    assert rep.exact
    assert [format_word(a.tail) for a in rep.forced] == ["x1", "x5^-1", "e"]
    words = {
        "x1": braid_mul(IOTA5, pure_gen(1, 6, 6)),
        "x5^-1": braid_mul(IOTA5, braid_invert(pure_gen(5, 6, 6))),
        "e": IOTA5,
    }
    from braidforce import to_word

    for a in rep.forced:
        assert braid_eq(to_word(a), words[format_word(a.tail)])
    labels = [c.abelian_label for c in rep.classes]
    assert len(set(labels)) == 3


def test_five_strand_boundary_fixed():
    rep = forced_set(BETA5, 1, boundary_fixed=True)
    assert rep.exact
    assert [format_word(a.tail) for a in rep.forced] == ["x1", "x5^-1"]
    by_rep = {format_word(c.representative): c for c in rep.classes}
    assert by_rep["e"].boundary is not None and by_rep["e"].boundary.is_yes
    assert by_rep["x1"].boundary.is_no


def test_permissive_vs_strict_under_tiny_radius():
    beta = parse_braid("s1 s1", 2)
    bounds = SearchBounds(0, 6)
    strict = forced_set(beta, 1, bounds)
    loose = forced_set(beta, 1, bounds, permissive=True)
    assert not strict.exact and not loose.exact
    assert strict.forced == ()
    assert len(loose.forced) == 1
    assert strict.trace.unresolved  # the unmerged split is reported
    kinds = sorted(c.degeneracy.kind for c in strict.classes)
    assert kinds == ["unknown", "yes", "yes"]


def test_is_forced_yes():
    cand = AugBraid(BETA5, parse_word("x1", 5))
    d = is_forced(cand, BETA5, 1)
    assert d.is_yes
    assert d.certificate[0] == "class"


def test_is_forced_from_full_word():
    cand = from_word(braid_mul(IOTA5, braid_invert(pure_gen(5, 6, 6))))
    assert is_forced(cand, BETA5, 1).is_yes


def test_is_forced_base_mismatch():
    cand = AugBraid(braid_mul(BETA5, BETA5), parse_word("x1", 5))
    d = is_forced(cand, BETA5, 1)
    assert d.is_no
    assert d.certificate == ("base_mismatch",)
    # the fifth power of s1 s2^-1, folded as one word, grows past the image
    # cap; theta is the fifth iterate of beta's own action, which no cap limits
    d = is_forced(AugBraid(parse_braid("s1", 3), FreeWord(3)), parse_braid("s1 s2^-1", 3), 5)
    assert d.is_no
    assert d.certificate == ("base_mismatch",)


@st.composite
def candidate_bases(draw):
    """beta, m and a base other than the word beta^m: equal to it rewritten, one sign flipped, or equal past the cap."""
    n = draw(st.integers(2, 5))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))))
    m = draw(st.integers(1, 3))
    letters = beta.letters * m
    p = draw(st.integers(0, len(letters) - 1))
    i = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["rewritten", "flipped", "past the cap"]))
    if kind == "rewritten":
        # a letter and its inverse, or for three strands and more the
        # relator s_i s_j s_i (s_j s_i s_j)^-1 with j = i +- 1
        j = i + 1 if i < n - 1 else i - 1
        relator = (i, j, i, -j, -i, -j) if n > 2 else (i, -i)
        letters = letters[:p] + relator + letters[p:]
    elif kind == "flipped":
        # the exponent sum moves by 2, so the braid is never beta^m
        letters = letters[:p] + (-letters[p],) + letters[p + 1 :]
    else:
        # s_i^2 conjugates x_i and x_{i+1} by x_i x_{i+1}, whose image is
        # never trivial, so s_i^200 passes the cap whatever images it acts on
        letters = letters[:p] + (i,) * 200 + (-i,) * 200 + letters[p:]
    return beta, m, kind, BraidWord(n, letters)


def _refusal_or(call):
    try:
        return call()
    except WordTooLongError as exc:
        return ("refused", str(exc))


@given(candidate_bases())
def test_is_forced_checks_a_base_as_artin_did(drawn):
    # the base's folded text against theta's coded images gives the verdict
    # of artin(base) == theta, and the same refusal at the same crossing
    beta, m, kind, base = drawn
    theta = nielsen._iterate(beta, m)
    old = _refusal_or(lambda: artin(base) == theta)
    if old in (True, False):  # beta^m itself can pass the cap
        assert kind != "past the cap" and old == (kind == "rewritten")
    d = _refusal_or(lambda: is_forced(AugBraid(base, FreeWord(beta.strands)), beta, m, SearchBounds(radius=0)))
    if old is True:
        assert d.certificate != ("base_mismatch",)
    elif old is False:
        assert d == Decision("no", None, ("base_mismatch",))
    else:
        assert d == old


def _count_calls(monkeypatch, fns):
    """Count calls of fns through every braidforce namespace that binds them.

    The pipeline cache is cleared first, so the first query of each theta merges.
    """
    nielsen._analyse.cache_clear()
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name == "braidforce" or name.startswith("braidforce.")]
    for fn in fns:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for name, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, name, counted)
    return counts


@pytest.fixture
def fold_calls(monkeypatch):
    """Calls of braid._fold, artin and braid_eq, counted by _count_calls."""
    return _count_calls(monkeypatch, (_fold, artin, braid_eq))


def test_from_word_folds_only_what_it_compares(fold_calls):
    a = AugBraid(BETA5, parse_word("x1 x5^-1", 5))
    w = to_word(a)
    # a round trip spells its input letter for letter, so braid_eq verifies
    # it by its letters: only x6 is folded
    assert from_word(w) == a
    assert fold_calls == {"braid_eq": 1, "_fold": 1}
    # the same braid times the relator s5 s4 s5 (s4 s5 s4)^-1, which moves
    # the last strand, comes back spelled otherwise: x6 is folded, then
    # braid_eq folds the input and the check once each, with no artin
    rewritten = BraidWord(6, w.letters + (5, 4, 5, -4, -5, -4))
    back = from_word(rewritten)
    assert fold_calls == {"braid_eq": 2, "_fold": 4}
    assert back.tail == a.tail
    assert braid_eq(back.base, BETA5)


@pytest.fixture
def calls(monkeypatch):
    """Calls of braid._fold and merge, counted by _count_calls."""
    return _count_calls(monkeypatch, (_fold, merge))


def test_is_forced_folds_only_a_base_other_than_the_word_beta_m(calls):
    # a fresh beta keeps no iterate yet
    beta, m, bounds, tail = BraidWord(5, BETA5.letters), 2, SearchBounds(radius=2), parse_word("x1", 5)
    # the base spells beta^m letter for letter, so it is never folded: the
    # two folds are theta^2 in one pass, beta's generators and then on
    # through beta
    spelled = is_forced(AugBraid(power(beta, m), tail), beta, m, bounds)
    assert calls == {"_fold": 2, "merge": 1}
    calls.clear()
    # an equal base spelled differently is folded once and compared with
    # theta, which beta keeps, as is the pipeline of that theta and bounds,
    # so nothing else is folded and nothing merges
    rewritten = BraidWord(5, (-2, 1, 2, 1) + BETA5.letters[2:] + BETA5.letters)
    assert is_forced(AugBraid(rewritten, tail), beta, m, bounds) == spelled
    assert calls == {"_fold": 1}
    calls.clear()
    # a base that does not match is refused before the trace is merged
    d = is_forced(AugBraid(power(beta, m + 1), tail), beta, m, bounds)
    assert d.certificate == ("base_mismatch",)
    assert calls == {"_fold": 1}


@st.composite
def forcing_queries(draw):
    """An is_forced query on 2-5 strands, m 1-3, radius 0-3.

    The tail is a class representative twisted by a word of up to 2
    letters, or a random word; the base is the word beta^m or, mismatched,
    beta^(m+1).
    """
    n = draw(st.integers(2, 5))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))
    m = draw(st.integers(1, 3))
    bounds = SearchBounds(radius=draw(st.integers(0, 3)))
    letters = st.sampled_from([k for i in range(1, n + 1) for k in (i, -i)])
    trace = reidemeister_trace(beta, m, bounds)
    kind = draw(st.sampled_from(["class", "random", "mismatched base"]))
    if kind == "class" and trace.summands:
        rep = draw(st.sampled_from(trace.summands)).representative
        a = reduce(n, draw(st.lists(letters, max_size=2)))
        tail = concat(apply(nielsen._iterate(beta, m), a), rep, invert(a))
    else:
        tail = reduce(n, draw(st.lists(letters, max_size=6)))
    base = power(beta, m + 1 if kind == "mismatched base" else m)
    return AugBraid(base, tail), beta, m, bounds


@settings(max_examples=150, deadline=None)
@given(forcing_queries())
def test_is_forced_decides_as_trying_every_class(query):
    # the tail's bucket, the kept flags and the kept degeneracy give the
    # Decision of one twisted_conj per summand, on a first query and a
    # repeat; a mismatched base past the cap is refused by both
    expected = _refusal_or(lambda: is_forced_by_every_class(*query))
    assert _refusal_or(lambda: is_forced(*query)) == expected
    assert _refusal_or(lambda: is_forced(*query)) == expected


@pytest.mark.parametrize(
    "beta, m, radius, classes, shape",
    [
        pytest.param(parse_braid("s1 s2^-1", 3), 5, 1, 123, "class", id="123-classes"),
        pytest.param(parse_braid("s2 s1^-1 s1^-1", 3), 2, 3, 14, "degenerate_class", id="degenerate-classes"),
        pytest.param(parse_braid("s1 s2^-1", 3), 3, 3, 18, "unresolved_class", id="unresolved-pairs"),
    ],
)
def test_is_forced_decides_as_trying_every_class_on_named_traces(beta, m, radius, classes, shape, monkeypatch):
    # every representative, its twisted conjugates by x1 and x2^-1, and
    # random words; each named trace gives its named kind of verdict, and
    # is_forced searches the classes the oracle searches, in the same
    # order, less those the abelian invariant rules out
    searched = {}
    for module in (forcing, oracles):

        def recording(ctx, u, v, _log=searched.setdefault(module.__name__, [])):
            d = twisted_conj(ctx, u, v)
            _log.append((u, d))
            return d

        monkeypatch.setattr(module, "twisted_conj", recording)
    bounds = SearchBounds(radius=radius)
    trace = reidemeister_trace(beta, m, bounds)
    assert len(trace.summands) == classes
    theta = nielsen._iterate(beta, m)
    n = beta.strands
    rng = random.Random(35)
    reps = [s.representative for s in trace.summands]
    tails = reps + [concat(apply(theta, x), rep, invert(x)) for rep in reps for x in (gen(n, 1), gen(n, -2))]
    tails += [reduce(n, [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 6))]) for _ in range(40)]
    seen = Counter()
    for tail in tails:
        query = (AugBraid(power(beta, m), tail), beta, m, bounds)
        expected = is_forced_by_every_class(*query)
        assert is_forced(*query) == expected
        assert is_forced(*query) == expected
        seen[expected.certificate[0]] += 1
        in_bucket = [(u, d) for u, d in searched["oracles"] if d.certificate[:1] != ("abelian",)]
        assert searched["braidforce.forcing"] == in_bucket * 2
        searched["oracles"].clear()
        searched["braidforce.forcing"].clear()
    assert seen[shape] > 0


@pytest.fixture
def decide_calls(monkeypatch):
    """Calls of twisted_conj and is_degenerate, counted by _count_calls."""
    return _count_calls(monkeypatch, (twisted_conj, is_degenerate))


def test_is_forced_decides_each_class_once_and_searches_only_the_tails_bucket(decide_calls):
    # the worked example's three classes lie in three buckets, so one
    # twisted_conj answers each query; a class's degeneracy is decided on
    # its first yes and kept, for later queries and for forced_set
    yes = AugBraid(BETA5, parse_word("x1", 5))
    first = is_forced(yes, BETA5, 1)
    assert first.certificate == ("class", parse_word("x1", 5))
    assert decide_calls == {"twisted_conj": 1, "is_degenerate": 1}
    decide_calls.clear()
    assert is_forced(yes, BETA5, 1) == first
    assert decide_calls == {"twisted_conj": 1}
    decide_calls.clear()
    # x1 x1's invariant is no class's, so no class is searched
    assert is_forced(AugBraid(BETA5, parse_word("x1 x1", 5)), BETA5, 1).certificate == ("inessential",)
    assert decide_calls == {}
    # forced_set decides only the two classes no query has
    forced_set(BETA5, 1)
    assert decide_calls == {"is_degenerate": 2}


_CACHE_ANCHORS = [
    (BETA5, 1, SearchBounds(radius=3)),
    (parse_braid("s1 s2^-1", 3), 3, SearchBounds(radius=3)),
    (parse_braid("s1 s2^-1 s3", 4), 2, SearchBounds(radius=2)),
    (parse_braid("s1", 3), 1, SearchBounds()),
]


@pytest.mark.parametrize("boundary_fixed", [False, True])
def test_cached_and_fresh_pipelines_give_equal_reports(boundary_fixed):
    for beta, m, bounds in _CACHE_ANCHORS:
        forced_set(beta, m, bounds, boundary_fixed)
        hits = nielsen._analyse.cache_info().hits
        warm = report_json(forced_set(beta, m, bounds, boundary_fixed))
        assert nielsen._analyse.cache_info().hits == hits + 1
        nielsen._analyse.cache_clear()
        assert report_json(forced_set(beta, m, bounds, boundary_fixed)) == warm


def test_pipelines_that_differ_only_in_bounds_are_cached_apart():
    beta = parse_braid("s1 s2^-1", 3)
    wide = reidemeister_trace(beta, 3, SearchBounds(radius=3))
    narrow = reidemeister_trace(beta, 3, SearchBounds(radius=0))
    # both radii leave the same six raw pairs unresolved, but radius 0
    # walks no orbit, so every class keeps its least raw member as name
    assert narrow.unresolved == wide.unresolved
    assert format_trace(narrow) != format_trace(wide)
    assert reidemeister_trace(beta, 3, SearchBounds(radius=3)) is wide
    assert reidemeister_trace(beta, 3, SearchBounds(radius=0)) is narrow


def test_is_forced_inessential():
    cand = AugBraid(BETA5, parse_word("x1 x1", 5))
    d = is_forced(cand, BETA5, 1)
    assert d.is_no
    assert d.certificate == ("inessential",)


def test_is_forced_degenerate_class():
    beta = parse_braid("s1 s1", 2)
    cand = AugBraid(beta, parse_word("x1 x2", 2))
    d = is_forced(cand, beta, 1)
    assert d.is_no
    assert d.certificate[0] == "degenerate_class"


def test_is_forced_unknown_within_radius():
    cand = AugBraid(BETA5, parse_word("x1^-1", 5))
    d = is_forced(cand, BETA5, 1)
    assert d.is_unknown


def test_is_forced_validation():
    with pytest.raises(ValueError):
        is_forced(AugBraid(parse_braid("s1", 3), parse_word("x1", 3)), BETA5, 1)
    with pytest.raises(ValueError):
        is_forced(AugBraid(BETA5, parse_word("x1", 5)), BETA5, 0)


@pytest.mark.parametrize("m", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda m: forced_set(BETA5, m),
        lambda m: reidemeister_trace(BETA5, m),
        lambda m: degenerate_families(BETA5, m),
        lambda m: is_forced(AugBraid(BETA5, parse_word("x1", 5)), BETA5, m),
    ],
    ids=["forced_set", "reidemeister_trace", "degenerate_families", "is_forced"],
)
def test_iterate_count_must_be_an_int(entry, m):
    with pytest.raises(ValueError, match="iteration count m must be an integer"):
        entry(m)


@pytest.mark.parametrize(
    "flags",
    [(1, False), (False, 0), ("no", False), (False, "yes"), (None, False), (False, 1.0)],
    ids=["int", "zero", "str", "str-permissive", "none", "float"],
)
def test_forced_set_flags_must_be_bools(flags):
    with pytest.raises(ValueError, match="flags must be bools"):
        forced_set(BETA5, 1, SearchBounds(), *flags)


def test_report_text_contents():
    text = report_text(report_json(forced_set(BETA5, 1)))
    assert "trace: +[x1] +[x5^-1] -[e]" in text
    assert "forced count: 3" in text
    assert "exact: yes" in text
    assert "(s1 s2 s3^-1 s4^-1 ; x5^-1) word: s1 s2 s3^-1 s4^-1 s5^-1 s5^-1" in text


def test_report_json_structure():
    doc = report_json(forced_set(BETA5, 1, boundary_fixed=True))
    assert doc["n"] == 5 and doc["m"] == 1
    assert doc["exact"] is True
    assert doc["boundary_fixed"] is True
    assert [f["tail"] for f in doc["forced"]] == ["x1", "x5^-1"]
    assert doc["classes"][2]["boundary"] == "yes"
    json.dumps(doc)  # must be serializable as given


def test_report_json_shares_each_representative_string_with_its_forced_tail():
    report = forced_set(parse_braid("s1 s2^-1", 3), 3, SearchBounds(3, 6))
    doc = report_json(report)
    names = {c["representative"]: c["representative"] for c in doc["classes"]}
    assert all(f["tail"] is names[f["tail"]] for f in doc["forced"])
    # a tail that is an equal word but not the representative object is formatted anew, alike
    tails = (FreeWord(3, a.tail.letters) for a in report.forced)
    copied = dataclasses.replace(report, forced=tuple(AugBraid(a.base, t) for a, t in zip(report.forced, tails)))
    assert report_json(copied) == doc


def test_report_json_text_deterministic():
    a = report_json_text(forced_set(BETA5, 1))
    b = report_json_text(forced_set(BETA5, 1))
    assert a == b


# ---------------------------------------------------------------------------
# command line


def test_cli_trace_golden(capsys):
    rc = main(["trace", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1"])
    out = capsys.readouterr().out
    assert out == "+[x1] +[x5^-1] -[e]\n"
    assert rc == 0


def test_cli_trace_json(capsys):
    rc = main(["trace", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1", "-m", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["trace"] == "+[x1] +[x5^-1] -[e]"
    assert doc["exact"] is True
    assert [s["coefficient"] for s in doc["summands"]] == [1, 1, -1]


def test_cli_trace_inexact_exit(capsys):
    rc = main(["trace", "-n", "2", "--braid", "s1 s1", "--radius", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unresolved:" in out


def test_cli_forced_json_golden(capsys):
    rc = main(["forced", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1", "-m", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [f["tail"] for f in doc["forced"]] == ["x1", "x5^-1", "e"]
    assert doc["forced"][0]["word"] == "s1 s2 s3^-1 s4^-1 s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1"
    assert doc["forced"][1]["word"] == "s1 s2 s3^-1 s4^-1 s5^-1 s5^-1"
    assert doc["exact"] is True


def test_cli_forced_boundary_fixed(capsys):
    rc = main(
        ["forced", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1", "--boundary-fixed", "--json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [f["tail"] for f in doc["forced"]] == ["x1", "x5^-1"]


def test_cli_forced_inexact_exit(capsys):
    rc = main(["forced", "-n", "2", "--braid", "s1 s1", "--radius", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "exact: no" in out


def test_cli_is_forced_verdicts(capsys):
    base = ["is-forced", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1", "-m", "1"]
    assert main(base + ["--word", "x1"]) == 0
    assert "verdict: yes" in capsys.readouterr().out
    assert main(base + ["--word", "x1 x1"]) == 0
    assert "verdict: no" in capsys.readouterr().out
    assert main(base + ["--word", "x1^-1"]) == 1
    assert "verdict: unknown" in capsys.readouterr().out
    assert main(base + ["--aug", "(s1 s2 s3^-1 s4^-1 ; x5^-1)"]) == 0
    assert "verdict: yes" in capsys.readouterr().out
    cand = "s1 s2 s3^-1 s4^-1 s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1"
    assert main(base + ["--cand", cand]) == 0
    assert "verdict: yes" in capsys.readouterr().out


def test_cli_is_forced_requires_one_candidate(capsys):
    base = ["is-forced", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1"]
    assert main(base) == 2
    assert main(base + ["--word", "x1", "--aug", "(e ; x1)"]) == 2
    err = capsys.readouterr().err
    assert "exactly one way" in err


def test_cli_twisted_conj_witness(capsys):
    rc = main(
        [
            "twisted-conj",
            "-n",
            "5",
            "--braid",
            "s1 s2 s3^-1 s4^-1",
            "--word",
            "e",
            "--word",
            "x5^-1 x4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: yes" in out
    assert "witness: x5" in out


def test_cli_twisted_conj_unknown_exit(capsys):
    rc = main(
        [
            "twisted-conj",
            "-n",
            "5",
            "--braid",
            "s1 s2 s3^-1 s4^-1",
            "--word",
            "x5^-1",
            "--word",
            "x1^-1",
            "--radius",
            "2",
        ]
    )
    assert rc == 1
    assert "verdict: unknown" in capsys.readouterr().out


def test_cli_reports_failed_verification(monkeypatch, capsys):
    # a walk that hands back x1 for the witness x5 fails its check by substitution
    monkeypatch.setattr(nielsen, "_witness", lambda ctx, u, v: (1,))
    argv = ["twisted-conj", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1", "--word", "e", "--word", "x5^-1 x4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: twisted conjugacy witness failed verification\n"


_PIPELINE_COMMANDS = [
    ["is-forced", "-n", "2", "--braid", "s1", "--word", "x1"],
    ["forced", "-n", "2", "--braid", "s1"],
    ["trace", "-n", "2", "--braid", "s1"],
    ["degenerate", "-n", "2", "--braid", "s1"],
]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["twisted-conj", "-n", "2", "--braid", "s1", "-m", "0", "--word", "x1", "--word", "x2"], id="twisted-conj"),
        pytest.param(["action", "-n", "2", "--braid", "s1", "-m", "0"], id="action"),
        pytest.param(["perm", "-n", "2", "--braid", "s1", "-m", "0"], id="perm"),
        *(pytest.param([*cmd, "-m", m], id=f"{cmd[0]}-m{m}") for cmd in _PIPELINE_COMMANDS for m in ("0", "-1")),
    ],
)
def test_cli_rejects_zero_iterate(argv, capsys):
    # is-forced --word spells its base as power(beta, m), which words a
    # negative m its own way, so the command checks m before calling it
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: iteration count m must be >= 1\n"


def test_cli_action_and_perm(capsys):
    assert main(["action", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x1 -> x1 x2 x5 x2^-1 x1^-1"
    assert out.splitlines()[4] == "x5 -> x5^-1 x4 x5"
    assert main(["perm", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1"]) == 0
    assert capsys.readouterr().out == "5 1 2 3 4\n"


def test_cli_degenerate(capsys):
    assert main(["degenerate", "-n", "2", "--braid", "s1", "-m", "2"]) == 0
    out = capsys.readouterr().out
    assert "strand 1: conj = x1 x2" in out
    assert "strand 2: conj = x1" in out
    assert main(["degenerate", "-n", "2", "--braid", "s1"]) == 0
    assert capsys.readouterr().out == "none\n"


def test_cli_eq(capsys):
    assert main(["eq", "-n", "3", "--braid", "s1 s2 s1", "--braid", "s2 s1 s2"]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert main(["eq", "-n", "3", "--braid", "s1", "--braid", "s2"]) == 0
    assert capsys.readouterr().out == "not equal\n"
    assert main(["eq", "-n", "3", "--braid", "s1"]) == 2


def test_cli_decompose(capsys):
    rc = main(["decompose", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1 s5^-1 s5^-1"])
    assert rc == 0
    assert capsys.readouterr().out == "(s1 s2 s3^-1 s4^-1 ; x5^-1)\n"
    assert main(["decompose", "-n", "2", "--braid", "s2"]) == 2
    err = capsys.readouterr().err
    assert "does not fix the last strand" in err


def test_cli_parse_error_exit(capsys):
    assert main(["trace", "-n", "3", "--braid", "s9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_builds_parser_once(monkeypatch, capsys):
    argv = ["eq", "-n", "3", "--braid", "s1", "--braid", "s2"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert main(["perm", "-n", "2", "--braid", "s1"]) == 0
    assert built == []
    assert capsys.readouterr().out == "not equal\nnot equal\n2 1\n"


def test_cli_json_deterministic(capsys):
    args = ["forced", "-n", "5", "--braid", "s1 s2 s3^-1 s4^-1", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_cli_roundtrip_decompose_matches_library(capsys):
    main(["decompose", "-n", "3", "--braid", "s1 s2 s1 s3 s3 s1^-1 s2^-1 s1^-1"])
    printed = capsys.readouterr().out.strip()
    w = parse_braid("s1 s2 s1 s3 s3 s1^-1 s2^-1 s1^-1", 4)
    a = from_word(w)
    from braidforce import format_aug

    assert printed == format_aug(a)
    assert aug_eq(a, from_word(w))
