"""Acceptance gate: one test per criterion, each with its own time budget.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Budgets are wall-clock upper bounds on commodity hardware; a
budget overrun fails the criterion even if the math checked out.
"""

import json
import random
import subprocess
import sys
import time

from braidforce import (
    AugBraid,
    BraidWord,
    FreeEndo,
    FreeWord,
    GroupRingElem,
    SearchBounds,
    TwistContext,
    artin,
    braid_eq,
    endo_power,
    forced_set,
    format_trace,
    format_word,
    from_word,
    is_forced,
    merge,
    parse_braid,
    parse_word,
    perm,
    raw_trace,
    reidemeister_trace,
    to_word,
    twisted_conj,
)
from braidforce.freegroup import apply, concat, invert, reduce
from braidforce.foxcalc import fox
from braidforce.nielsen import is_degenerate
from oracles import (
    aug_eq,
    augmentation,
    braid_invert,
    braid_mul,
    gen,
    gr_right_mul,
    phi_word,
    pure_gen,
    report_json_text,
    section_word,
)

BETA5 = parse_braid("s1 s2 s3^-1 s4^-1", 5)
IOTA5 = BraidWord(6, BETA5.letters)


def budget(t0, limit, label):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s, budget {limit}s"


def rand_word(rng, rank, max_len):
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    return reduce(rank, [rng.choice(pool) for _ in range(rng.randrange(max_len + 1))])


def rand_braid(rng, strands, max_len):
    pool = [k for i in range(1, strands) for k in (i, -i)]
    return BraidWord(strands, tuple(rng.choice(pool) for _ in range(rng.randrange(max_len + 1))))


def test_criterion_1_worked_example_golden_data():
    t0 = time.monotonic()
    assert perm(BETA5).images == (5, 1, 2, 3, 4)
    e = artin(BETA5)
    assert [format_word(w) for w in e.images] == [
        "x1 x2 x5 x2^-1 x1^-1",
        "x1",
        "x2",
        "x5^-1 x3 x5",
        "x5^-1 x4 x5",
    ]
    assert raw_trace(e) == GroupRingElem.from_terms(
        5,
        [
            (parse_word("x1 x2 x5 x2^-1 x1^-1", 5), 1),
            (parse_word("x5^-1", 5), 1),
            (parse_word("x5^-1 x4", 5), -1),
        ],
    )
    assert format_trace(reidemeister_trace(BETA5, 1)) == "+[x1] +[x5^-1] -[e]"
    rep = forced_set(BETA5, 1)
    assert rep.exact
    assert [format_word(a.tail) for a in rep.forced] == ["x1", "x5^-1", "e"]
    golden = {
        "x1": braid_mul(IOTA5, pure_gen(1, 6, 6)),
        "x5^-1": braid_mul(IOTA5, braid_invert(pure_gen(5, 6, 6))),
        "e": IOTA5,
    }
    for a in rep.forced:
        assert braid_eq(to_word(a), golden[format_word(a.tail)])
        assert is_forced(a, BETA5, 1).is_yes
    fixed = forced_set(BETA5, 1, boundary_fixed=True)
    assert [format_word(a.tail) for a in fixed.forced] == ["x1", "x5^-1"]
    budget(t0, 5, "worked example")


def test_criterion_2_fox_fundamental_identity():
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(1000):
        rank = rng.randrange(2, 6)
        w = rand_word(rng, rank, 12)
        terms = []  # sum over j of d(w)/dx_j * (x_j - 1)
        for j in range(1, rank + 1):
            d = fox(w, j)
            terms += gr_right_mul(d, gen(rank, j)).terms
            terms += ((t, -c) for t, c in d.terms)
        w_minus_1 = GroupRingElem.from_terms(rank, [(w, 1), (FreeWord(rank), -1)])
        assert GroupRingElem.from_terms(rank, terms) == w_minus_1
    budget(t0, 10, "fundamental identity")


def test_criterion_3_braid_relations_and_inverses():
    t0 = time.monotonic()
    for n in range(3, 8):
        for i in range(1, n - 1):
            assert braid_eq(BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1)))
        for i in range(1, n):
            for j in range(i + 2, n):
                assert braid_eq(BraidWord(n, (i, j)), BraidWord(n, (j, i)))
    rng = random.Random(102)
    for _ in range(60):
        b = rand_braid(rng, 5, 6)
        unit = braid_mul(b, braid_invert(b))
        assert braid_eq(unit, BraidWord(5))
        assert artin(unit, max_letters=4096) == FreeEndo.identity(5)
    budget(t0, 10, "braid relations")


def _relation_rewrite(rng, letters, n):
    letters = list(letters)
    choice = rng.randrange(3)
    if choice == 0:  # free insertion
        pos = rng.randrange(len(letters) + 1)
        k = rng.choice([j for i in range(1, n) for j in (i, -i)])
        letters[pos:pos] = [k, -k]
    elif choice == 1:  # far commutation
        spots = [
            i
            for i in range(len(letters) - 1)
            if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2
        ]
        if spots:
            i = rng.choice(spots)
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
    else:  # braid relation
        spots = [
            i
            for i in range(len(letters) - 2)
            if letters[i] > 0
            and letters[i : i + 3] in ([letters[i]] * 1 + [letters[i] + 1] + [letters[i]],)
        ]
        if spots:
            i = rng.choice(spots)
            a = letters[i]
            letters[i : i + 3] = [a + 1, a, a + 1]
    return tuple(letters)


def test_criterion_4_braid_equality_sanity():
    t0 = time.monotonic()
    rng = random.Random(103)
    for _ in range(100):
        b = rand_braid(rng, 4, 8)
        letters = b.letters
        for _ in range(3):
            letters = _relation_rewrite(rng, letters, 4)
        rewritten = BraidWord(4, letters)
        assert braid_eq(b, rewritten, max_letters=4096)
        assert not braid_eq(b, braid_mul(b, BraidWord(4, (1,))), max_letters=4096)
    assert not braid_eq(parse_braid("s1", 4), parse_braid("s2", 4))
    assert not braid_eq(parse_braid("s1", 4), parse_braid("s1^-1", 4))
    budget(t0, 10, "braid equality")


def test_criterion_5_twisted_conjugacy_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(104)
    for _ in range(200):
        n = rng.choice([2, 3])
        theta = endo_power(artin(rand_braid(rng, n, 5)), rng.choice([1, 2]))
        ctx = TwistContext.create(theta, SearchBounds(3, 6))
        u = rand_word(rng, n, 4)
        a = rand_word(rng, n, 3)
        v = concat(apply(theta, a), u, invert(a))
        d = twisted_conj(ctx, u, v)
        assert d.is_yes
        assert concat(apply(theta, d.witness), u, invert(d.witness)) == v
    budget(t0, 30, "twisted conjugacy roundtrip")


def test_criterion_6_merge_conserves_augmentation():
    t0 = time.monotonic()
    rng = random.Random(105)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        theta = endo_power(artin(rand_braid(rng, n, 5)), rng.choice([1, 2]))
        ctx = TwistContext.create(theta, SearchBounds(3, 6))
        raw = raw_trace(theta)
        mt = merge(ctx, raw)
        assert sum(s.coefficient for s in mt.summands) == augmentation(raw)
        for s in mt.summands:
            assert s.coefficient != 0
    budget(t0, 30, "merge conservation")


def test_criterion_7_action_calibration_and_decomposition():
    t0 = time.monotonic()
    from oracles import act

    # the action used for composing tails is pinned by the section identity
    for n in (2, 3):
        words = [FreeWord(n)]
        words += [FreeWord(n, (k,)) for i in range(1, n + 1) for k in (i, -i)]
        words += [reduce(n, (1, 2)), reduce(n, (2, -1))]
        for letter in [k for i in range(1, n) for k in (i, -i)]:
            b = BraidWord(n, (letter,))
            s = section_word(b)
            for u in words:
                lhs = braid_mul(braid_mul(s, phi_word(u)), braid_invert(s))
                assert braid_eq(lhs, phi_word(act(b, u)), max_letters=4096)
    rng = random.Random(106)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        base = rand_braid(rng, n, 4)
        tail = rand_word(rng, n, 3)
        a = AugBraid(base, tail)
        back = from_word(to_word(a), max_letters=4096)
        assert aug_eq(back, a)
    budget(t0, 60, "calibration and decomposition")


def test_criterion_8_degeneracy_edge_cases():
    t0 = time.monotonic()
    for n in (2, 3):
        rep = forced_set(BraidWord(n), 1)
        assert rep.forced == () and rep.exact
        assert all(c.degeneracy.is_yes for c in rep.classes)
    rep3 = forced_set(parse_braid("s1", 3), 1)
    assert [format_word(a.tail) for a in rep3.forced] == ["x1"]
    assert forced_set(parse_braid("s1 s1", 2), 1).forced == ()
    ctx = TwistContext.create(FreeEndo.identity(2), SearchBounds(5, 6))
    assert is_degenerate(ctx, parse_word("x1 x1 x1", 2)).certificate == ("family", 1, 3)
    assert is_degenerate(ctx, parse_word("x2^-1", 2)).certificate == ("family", 2, -1)
    assert is_degenerate(ctx, parse_word("x1 x2", 2)).is_no
    tight = TwistContext.create(FreeEndo.identity(2), SearchBounds(5, 2))
    bounded = is_degenerate(tight, parse_word("x1 x1 x1", 2))
    assert bounded.is_no and bounded.certificate == ("families", 2)
    budget(t0, 5, "degeneracy edge cases")


def test_criterion_9_deterministic_output():
    t0 = time.monotonic()
    assert report_json_text(forced_set(BETA5, 1)) == report_json_text(forced_set(BETA5, 1))
    cmd = [
        sys.executable,
        "-m",
        "braidforce.cli",
        "forced",
        "-n",
        "5",
        "--braid",
        "s1 s2 s3^-1 s4^-1",
        "--json",
    ]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert [f["tail"] for f in doc["forced"]] == ["x1", "x5^-1", "e"]
    trace_cmd = [
        sys.executable,
        "-m",
        "braidforce.cli",
        "trace",
        "-n",
        "5",
        "--braid",
        "s1 s2 s3^-1 s4^-1",
    ]
    outs = [subprocess.run(trace_cmd, capture_output=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] == b"+[x1] +[x5^-1] -[e]\n"
    budget(t0, 30, "deterministic output")
