import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidforce import (
    BraidWord,
    Decision,
    DegenerateFamily,
    FreeEndo,
    FreeWord,
    GroupRingElem,
    MergedTrace,
    SearchBounds,
    TraceSummand,
    TwistContext,
    WordTooLongError,
    artin,
    degenerate_families,
    endo_power,
    forced_set,
    format_trace,
    format_word,
    merge,
    parse_braid,
    parse_word,
    perm,
    power,
    raw_trace,
    reidemeister_trace,
    twisted_conj,
)
from braidforce.freegroup import (
    abelianize,
    apply,
    concat,
    invert,
    reduce,
    word_sort_key,
)
from braidforce import nielsen
from braidforce.nielsen import abelian_invariant, canonical_rep, is_degenerate
from braidforce.freegroup import _letters_key, _reduce_letters
from braidforce.nielsen import _cancels, _floor, _format_pairs, _orbit, _splice
from oracles import augmentation, conjugator, endo_matrix, gen

BETA5 = parse_braid("s1 s2 s3^-1 s4^-1", 5)


def ctx_for(braid, m=1, radius=5, k_max=6):
    theta = endo_power(artin(braid), m)
    return TwistContext.create(theta, SearchBounds(radius, k_max))


def rand_word(rng, rank, max_len):
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    return reduce(rank, [rng.choice(pool) for _ in range(rng.randrange(max_len + 1))])


def test_bounds_reject_non_integers():
    # a float radius used to fail deep in the orbit walk with a TypeError
    with pytest.raises(ValueError):
        SearchBounds(2.5)
    with pytest.raises(ValueError):
        SearchBounds(3, True)


def test_twist_context_rejects_a_theta_that_is_not_an_endomorphism():
    with pytest.raises(ValueError):
        TwistContext("abc")


def test_twist_context_rejects_bounds_that_are_not_search_bounds():
    with pytest.raises(ValueError):
        TwistContext(FreeEndo.identity(2), (5, 6))


def test_bounds_and_decision_validation():
    with pytest.raises(ValueError):
        SearchBounds(-1, 3)
    with pytest.raises(ValueError):
        Decision("maybe")
    d = Decision("yes", gen(2, 1))
    assert d.is_yes and not d.is_no and not d.is_unknown


def test_abelian_invariant_five_strand():
    ctx = ctx_for(BETA5)
    labels = {
        "x1": abelian_invariant(ctx, parse_word("x1", 5)),
        "x5^-1": abelian_invariant(ctx, parse_word("x5^-1", 5)),
        "e": abelian_invariant(ctx, FreeWord(5)),
    }
    assert len(set(labels.values())) == 3
    # the five-cycle identifies all generators, leaving total exponent
    assert labels["x1"] == abelian_invariant(ctx, parse_word("x3", 5))
    assert labels["x1"] == abelian_invariant(ctx, parse_word("x5", 5))


def test_abelian_invariant_is_twisted_conjugacy_invariant():
    rng = random.Random(41)
    ctx = ctx_for(BETA5)
    for _ in range(100):
        u = rand_word(rng, 5, 6)
        a = rand_word(rng, 5, 4)
        v = concat(apply(ctx.theta, a), u, invert(a))
        assert abelian_invariant(ctx, u) == abelian_invariant(ctx, v)


def _cycle_sums(ctx, w):
    """The exponent sum of w over each strand cycle, at the cycle's slot: the reference."""
    sums = [0] * ctx.rank
    for e, top in zip(abelianize(w), ctx._cycle_top):
        sums[top] += e
    return tuple(sums)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_abelian_invariant_memo_equals_the_cycle_sums(data):
    ctx = data.draw(small_twists())
    for w in data.draw(st.lists(words(ctx.rank, 8), max_size=6)):
        assert abelian_invariant(ctx, w) == _cycle_sums(ctx, w)
        assert abelian_invariant(ctx, w) == _cycle_sums(ctx, w)  # from the memo


def test_abelian_invariant_memo_is_per_context():
    # BETA5 permutes the strands in one 5-cycle; the trivial braid fixes each
    w = parse_word("x1 x2", 5)
    cycled, fixed = ctx_for(BETA5), ctx_for(BraidWord(5))
    assert abelian_invariant(cycled, w) == (0, 0, 0, 0, 2)
    assert abelian_invariant(fixed, w) == (1, 1, 0, 0, 0)
    assert abelian_invariant(cycled, w) == (0, 0, 0, 0, 2)


def test_abelian_invariant_abelianizes_a_word_once_per_context(monkeypatch):
    ctx = ctx_for(BETA5)
    w = parse_word("x1 x2^-1 x3", 5)
    first = abelian_invariant(ctx, w)
    calls = []
    monkeypatch.setattr(nielsen, "abelianize", lambda v: calls.append(v) or abelianize(v))
    assert abelian_invariant(ctx, w) == first
    assert abelian_invariant(ctx, parse_word("x1 x2^-1 x3", 5)) == first  # an equal word, another object
    assert calls == []
    abelian_invariant(ctx, parse_word("x4", 5))
    assert len(calls) == 1


def test_twisted_conj_golden_yes():
    ctx = ctx_for(BETA5)
    d = twisted_conj(ctx, FreeWord(5), parse_word("x5^-1 x4", 5))
    assert d.is_yes
    assert format_word(d.witness) == "x5"
    d2 = twisted_conj(ctx, parse_word("x1 x2 x5 x2^-1 x1^-1", 5), parse_word("x1", 5))
    assert d2.is_yes


def test_twisted_conj_no_certificate():
    ctx = ctx_for(BETA5)
    d = twisted_conj(ctx, parse_word("x1", 5), parse_word("x1 x1", 5))
    assert d.is_no
    kind, iu, iv = d.certificate
    assert kind == "abelian"
    assert iu == abelian_invariant(ctx, parse_word("x1", 5))
    assert iv == abelian_invariant(ctx, parse_word("x1 x1", 5))
    assert iu != iv


def test_twisted_conj_unknown_on_exhaustion():
    ctx0 = ctx_for(BraidWord(2), radius=0)
    d = twisted_conj(ctx0, gen(2, 1), parse_word("x2 x1 x2^-1", 2))
    assert d.is_unknown
    assert d.certificate == ("radius", 0)
    # radius 1 reaches the conjugate
    ctx1 = ctx_for(BraidWord(2), radius=1)
    d1 = twisted_conj(ctx1, gen(2, 1), parse_word("x2 x1 x2^-1", 2))
    assert d1.is_yes and format_word(d1.witness) == "x2"


def test_twisted_conj_abelian_gap_stays_unknown():
    # same abelian label but no short conjugator: the honest answer is unknown
    ctx = ctx_for(BETA5)
    d = twisted_conj(ctx, parse_word("x5^-1", 5), parse_word("x1^-1", 5))
    assert d.is_unknown


def test_twisted_conj_construct_then_decide():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.choice([2, 3])
        pool = [k for i in range(1, n) for k in (i, -i)]
        b = BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randrange(5))))
        ctx = ctx_for(b, radius=3)
        u = rand_word(rng, n, 4)
        a = rand_word(rng, n, 3)
        v = concat(apply(ctx.theta, a), u, invert(a))
        d = twisted_conj(ctx, u, v)
        assert d.is_yes
        assert concat(apply(ctx.theta, d.witness), u, invert(d.witness)) == v
        # and the reverse direction succeeds too
        assert twisted_conj(ctx, v, u).is_yes


def test_twisted_conj_rank_mismatch():
    # abelian_invariant refuses each word of another rank, u first
    ctx = ctx_for(BraidWord(2))
    for u, v in ((gen(3, 1), gen(3, 1)), (gen(3, 1), gen(2, 1)), (gen(2, 1), gen(3, 1))):
        with pytest.raises(ValueError, match="rank mismatch"):
            twisted_conj(ctx, u, v)


def test_abelian_invariant_rank_mismatch():
    # zip would drop the sums of letters beyond the context's rank;
    # canonical_rep refuses through this check
    ctx = TwistContext.create(artin(parse_braid("s1", 2)))
    for f in (abelian_invariant, canonical_rep):
        with pytest.raises(ValueError, match="rank mismatch"):
            f(ctx, parse_word("x3 x3 x1", 3))
    assert ctx._invariants == {}


def test_canonical_rep():
    ctx = ctx_for(BETA5)
    assert format_word(canonical_rep(ctx, parse_word("x1 x2 x5 x2^-1 x1^-1", 5))) == "x1"
    assert format_word(canonical_rep(ctx, parse_word("x5^-1", 5))) == "x5^-1"
    assert format_word(canonical_rep(ctx, parse_word("x1", 5))) == "x1"
    ctx_id = ctx_for(BraidWord(2), radius=2)
    assert format_word(canonical_rep(ctx_id, parse_word("x2 x1 x2^-1", 2))) == "x1"
    # at radius 0 the orbit is w alone, however short its neighbours are
    assert format_word(canonical_rep(ctx_for(BraidWord(2), radius=0), parse_word("x2 x1 x2^-1", 2))) == "x2 x1 x2^-1"


def test_merge_plain_conjugacy():
    ctx = ctx_for(BraidWord(2), radius=2)
    raw = GroupRingElem.from_terms(
        2, [(parse_word("x2 x1 x2^-1", 2), 1), (parse_word("x1", 2), 1)]
    )
    mt = merge(ctx, raw)
    assert len(mt.summands) == 1
    assert mt.summands[0].coefficient == 2
    assert format_word(mt.summands[0].representative) == "x1"
    assert mt.unresolved == ()
    assert format_trace(mt) == "+2*[x1]"


def test_merge_cancellation():
    ctx = ctx_for(BraidWord(2), radius=2)
    w = parse_word("x1 x2", 2)
    raw = GroupRingElem.from_terms(2, [(w, 1), (concat(gen(2, 1), w, invert(gen(2, 1))), -1)])
    mt = merge(ctx, raw)
    assert mt.summands == ()
    assert format_trace(mt) == "0"


def test_merge_records_unresolved_pairs():
    ctx = ctx_for(BraidWord(2), radius=0)
    raw = GroupRingElem.from_terms(
        2, [(parse_word("x1", 2), 1), (parse_word("x2 x1 x2^-1", 2), 1)]
    )
    mt = merge(ctx, raw)
    assert len(mt.summands) == 2
    assert len(mt.unresolved) == 1
    u, v = mt.unresolved[0]
    assert {format_word(u), format_word(v)} == {"x1", "x2 x1 x2^-1"}


def test_merge_bridges_classes_into_the_first():
    # at radius 1, x3^-1 x1 reaches both x1 x2^-1 and x2 x3^-1, which do not
    # reach each other; the bridged class keeps x1 x2^-1 as its first member,
    # so the later unreachable summand is reported against that one
    ctx = ctx_for(parse_braid("s2^-1 s1^-1", 3), radius=1)
    words = ["x1 x2^-1", "x2 x3^-1", "x3^-1 x1", "x3^-1 x2^-1 x1 x2 x1 x3^-1", "x3^-1 x2^-1 x1^-1 x2 x3^-1 x1 x2 x3"]
    raw = GroupRingElem.from_terms(3, [(parse_word(w, 3), c) for c, w in enumerate(words, start=1)])
    mt = merge(ctx, raw)
    assert format_trace(mt) == "+10*[x1 x2^-1] +5*[x3^-1 x3^-1 x1 x2]"
    assert [format_word(m) for m in mt.summands[0].members] == words[:4]
    assert [(format_word(u), format_word(v)) for u, v in mt.unresolved] == [(words[0], words[1]), (words[0], words[4])]


def test_merge_sorts_members_merged_by_a_bridge():
    # x3^-1 x3^-1 starts a second class and x3 x2^-1 x1^-1 x2^-1 then joins
    # the first; x3^-1 x2^-1 x1^-1 x2 bridges them, so the bridged class holds
    # its members out of word order until merge sorts them
    ctx = ctx_for(parse_braid("s2^-1 s1^-1", 3), radius=1)
    words = ["x2^-1 x1^-1", "x3^-1 x3^-1", "x3 x2^-1 x1^-1 x2^-1", "x3^-1 x2^-1 x1^-1 x2", "x3^-1 x3^-1 x2^-1 x1^-1 x2 x2"]
    raw = GroupRingElem.from_terms(3, [(parse_word(w, 3), 1) for w in words])
    mt = merge(ctx, raw)
    assert format_trace(mt) == "+5*[x1^-1 x1^-1]"
    assert [format_word(m) for m in mt.summands[0].members] == words
    assert [(format_word(u), format_word(v)) for u, v in mt.unresolved] == [(words[0], words[1])]


def test_merge_keeps_creation_order_among_summands_that_tie_on_sign_and_representative():
    # the first two classes share sign, invariant and representative x1 and
    # no walk at radius 1 joins them, so only the order of their raw terms
    # separates them
    ctx = TwistContext.create(artin(parse_braid("s1", 3)), SearchBounds(1))
    terms = [
        ("x2", -1),
        ("x1 x1 x2^-1", 1),
        ("x3 x1 x3^-1", 1),
        ("x1^-1 x3^-1 x2 x3 x2", 1),
        ("x1 x2 x2 x1^-1 x2 x1^-1 x1^-1", -1),
    ]
    mt = merge(ctx, GroupRingElem.from_terms(3, [(parse_word(w, 3), c) for w, c in terms]))
    assert [(s.coefficient, format_word(s.representative), [format_word(m) for m in s.members]) for s in mt.summands] == [
        (1, "x1", ["x1 x1 x2^-1"]),
        (1, "x1", ["x3 x1 x3^-1"]),
        (1, "x3^-1 x2 x3", ["x1^-1 x3^-1 x2 x3 x2"]),
        (-1, "x1", ["x2"]),
        (-1, "x1 x2 x1^-1 x2 x1^-1", ["x1 x2 x2 x1^-1 x2 x1^-1 x1^-1"]),
    ]
    assert len(mt.unresolved) == 10


def test_merge_conserves_augmentation():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        pool = [k for i in range(1, n) for k in (i, -i)]
        b = BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randrange(5))))
        ctx = ctx_for(b, radius=3)
        raw = raw_trace(ctx.theta)
        mt = merge(ctx, raw)
        assert sum(s.coefficient for s in mt.summands) == augmentation(raw)


def test_reidemeister_trace_goldens():
    assert format_trace(reidemeister_trace(parse_braid("s1", 2), 1)) == "+[x1]"
    assert format_trace(reidemeister_trace(BETA5, 1)) == "+[x1] +[x5^-1] -[e]"
    # the full twist leaves a single boundary class
    assert format_trace(reidemeister_trace(parse_braid("s1 s1", 2), 1)) == "-[x1 x2]"
    assert format_trace(reidemeister_trace(parse_braid("s1", 2), 2)) == "-[x1 x2]"
    with pytest.raises(ValueError):
        reidemeister_trace(parse_braid("s1", 2), 0)


def test_trace_summand_order():
    mt = reidemeister_trace(BETA5, 1)
    coeffs = [s.coefficient for s in mt.summands]
    assert coeffs == [1, 1, -1]  # positives first
    reps = [format_word(s.representative) for s in mt.summands]
    assert reps == ["x1", "x5^-1", "e"]


def test_degenerate_families_goldens():
    fams = degenerate_families(parse_braid("s1", 3), 1)
    assert [(f.strand, format_word(f.conj)) for f in fams] == [(3, "e")]
    assert degenerate_families(parse_braid("s1", 2), 1) == ()
    fams2 = degenerate_families(parse_braid("s1", 2), 2)
    assert [f.strand for f in fams2] == [1, 2]
    theta = endo_power(artin(parse_braid("s1", 2)), 2)
    for f in fams2:
        x_i = gen(2, f.strand)
        assert concat(f.conj, x_i, invert(f.conj)) == apply(theta, x_i)


def test_is_degenerate_power_sweep():
    ctx = ctx_for(BraidWord(2))
    d = is_degenerate(ctx, parse_word("x1 x1 x1", 2))
    assert d.is_yes
    assert d.certificate == ("family", 1, 3)
    d2 = is_degenerate(ctx, parse_word("x2^-1", 2))
    assert d2.is_yes
    assert d2.certificate == ("family", 2, -1)
    assert is_degenerate(ctx, FreeWord(2)).certificate == ("family", 1, 0)
    assert is_degenerate(ctx, parse_word("x1 x2", 2)).is_no


def test_is_degenerate_respects_k_max():
    ctx = ctx_for(BraidWord(2), k_max=2)
    d = is_degenerate(ctx, parse_word("x1 x1 x1", 2))
    assert d.is_no  # k = 3 is outside the sweep; the certificate names the bound
    assert d.certificate == ("families", 2)


def test_is_degenerate_without_families():
    ctx = ctx_for(parse_braid("s1", 2))
    d = is_degenerate(ctx, gen(2, 1))
    assert d.is_no
    assert d.certificate == ("families", 6)
    # no families skip no check: gamma of the wrong rank raises, as it does with families
    with pytest.raises(ValueError, match="rank mismatch"):
        is_degenerate(ctx, gen(3, 3))
    with pytest.raises(ValueError, match="rank mismatch"):
        is_degenerate(ctx_for(BraidWord(2)), gen(3, 3))


def test_essential_nondegenerate_sigma1():
    classes = forced_set(parse_braid("s1", 2), 1).classes
    assert len(classes) == 1
    c = classes[0]
    assert c.coefficient == 1
    assert format_word(c.representative) == "x1"
    assert c.degeneracy.is_no


def test_essential_nondegenerate_full_twist():
    classes = forced_set(parse_braid("s1 s1", 2), 1).classes
    assert len(classes) == 1
    assert format_word(classes[0].representative) == "x1 x2"
    assert classes[0].degeneracy.is_yes
    assert classes[0].degeneracy.certificate[0] == "family"


# ---------------------------------------------------------------------------
# merge against the pairwise reference; the symmetry it rests on


def _pairwise_merge(ctx, raw):
    """merge as a twisted_conj call per (member, summand) pair: the reference."""
    classes = []
    unresolved = set()
    for w, c in raw.terms:
        hits, maybes = [], []
        for idx, cl in enumerate(classes):
            verdicts = [twisted_conj(ctx, member, w) for member in cl["members"]]
            if any(d.is_yes for d in verdicts):
                hits.append(idx)
            elif any(d.is_unknown for d in verdicts):
                maybes.append(idx)
        if hits:
            target = classes[hits[0]]
            for idx in reversed(hits[1:]):
                other = classes.pop(idx)
                target["members"].extend(other["members"])
                target["coeff"] += other["coeff"]
            target["members"].append(w)
            target["coeff"] += c
        else:
            for idx in maybes:
                unresolved.add((classes[idx]["members"][0], w))
            classes.append({"members": [w], "coeff": c})
    summands = []
    for cl in classes:
        if cl["coeff"] == 0:
            continue
        members = tuple(sorted(cl["members"], key=word_sort_key))
        rep = min((canonical_rep(ctx, m) for m in members), key=word_sort_key)
        summands.append(TraceSummand(cl["coeff"], rep, members))
    summands.sort(key=lambda s: (0 if s.coefficient > 0 else 1, word_sort_key(s.representative)))
    pairs = tuple(sorted(unresolved, key=lambda p: (word_sort_key(p[0]), word_sort_key(p[1]))))
    return MergedTrace(ctx.rank, tuple(summands), pairs)


@st.composite
def small_twists(draw, max_rank=4, radius=None):
    """A context for theta = beta^m with n <= max_rank, |beta| <= 4, m <= 2, radius 0-2 unless given."""
    n = draw(st.integers(2, max_rank))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=4))))
    m = draw(st.integers(1, 2))
    return ctx_for(beta, m=m, radius=draw(st.integers(0, 2)) if radius is None else radius)


def words(rank, max_len):
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    return st.lists(st.sampled_from(pool), max_size=max_len).map(lambda ls: reduce(rank, ls))


@settings(max_examples=60, deadline=None)
@given(small_twists())
def test_merge_matches_pairwise_reference_on_raw_traces(ctx):
    raw = raw_trace(ctx.theta)
    assert merge(ctx, raw) == _pairwise_merge(ctx, raw)


@settings(max_examples=60, deadline=None)
@given(small_twists(), st.data())
def test_merge_matches_pairwise_reference_on_conjugate_families(ctx, data):
    # summands built as theta(a) u a^-1 with |a| up to radius + 1 merge, bridge
    # and stay unresolved far more often than raw trace terms do
    seeds = data.draw(st.lists(words(ctx.rank, 3), min_size=1, max_size=3))
    terms = []
    for u in seeds:
        for a in data.draw(st.lists(words(ctx.rank, ctx.bounds.radius + 1), max_size=4)):
            terms.append((concat(apply(ctx.theta, a), u, invert(a)), data.draw(st.sampled_from([-1, 1, 2]))))
        terms.append((u, 1))
    raw = GroupRingElem.from_terms(ctx.rank, terms)
    assert merge(ctx, raw) == _pairwise_merge(ctx, raw)


@pytest.fixture(scope="module")
def many_pairs():
    """The unresolved pairs of s1 s2^-1 at m=4, radius 1, which share members."""
    return reidemeister_trace(parse_braid("s1 s2^-1", 3), 4, SearchBounds(radius=1)).unresolved


def test_many_pair_trace_has_no_repeated_pair_and_sorts_by_word_keys(many_pairs):
    pairs = many_pairs
    assert len(pairs) == 134
    assert len(set(pairs)) == len(pairs)
    keys = [(word_sort_key(a), word_sort_key(b)) for a, b in pairs]
    assert all(k < k_next for k, k_next in zip(keys, keys[1:]))


def test_format_pairs_matches_format_word(many_pairs):
    assert _format_pairs(many_pairs) == [[format_word(a), format_word(b)] for a, b in many_pairs]
    # equal words that are different objects format alike
    a, b = FreeWord(3, (1, -2, 3)), FreeWord(3, (2,))
    a2, b2 = parse_word("x1 x2^-1 x3", 3), parse_word("x2", 3)
    assert a == a2 and a is not a2 and b == b2 and b is not b2
    pairs = ((a, b), (b2, a2), (a2, b), (a, a2))
    assert _format_pairs(pairs) == [[format_word(u), format_word(v)] for u, v in pairs]


@settings(max_examples=80, deadline=None)
@given(small_twists(), st.data())
def test_twisted_conj_is_symmetric_at_equal_radius(ctx, data):
    u = data.draw(words(ctx.rank, 4))
    a = data.draw(words(ctx.rank, ctx.bounds.radius + 1))
    v = data.draw(st.sampled_from([concat(apply(ctx.theta, a), u, invert(a)), data.draw(words(ctx.rank, 4))]))
    forward, backward = twisted_conj(ctx, u, v), twisted_conj(ctx, v, u)
    assert forward.is_yes == backward.is_yes
    assert forward.kind == backward.kind
    if forward.is_yes:
        assert len(forward.witness) == len(backward.witness)


def _twists(ctx):
    """(theta(a), a^-1) as letters, for every reduced word a within the radius; an unreduced a spells a shorter one."""
    pool = [k for i in range(1, ctx.rank + 1) for k in (i, -i)]
    return [
        (apply(ctx.theta, a).letters, invert(a).letters)
        for size in range(ctx.bounds.radius + 1)
        for ls in itertools.product(pool, repeat=size)
        if all(x != -y for x, y in zip(ls, ls[1:]))
        for a in (reduce(ctx.rank, ls),)
    ]


def _orbit_min(ctx, w, twists=None):
    """The least word of w's orbit, by brute force over every conjugator within the radius: the reference."""
    orbit = {_reduce_letters((t, w.letters, a_inv)) for t, a_inv in (_twists(ctx) if twists is None else twists)}
    return FreeWord(ctx.rank, min(orbit, key=_letters_key))


@settings(max_examples=60, deadline=None)
@given(small_twists(), st.data())
def test_canonical_rep_is_least_orbit_word(ctx, data):
    w = data.draw(words(ctx.rank, 4))
    assert canonical_rep(ctx, w) == _orbit_min(ctx, w)


@settings(max_examples=30, deadline=None)
@given(small_twists(max_rank=3, radius=0))
def test_floor_is_the_least_word_of_its_invariant(ctx):
    pool = [k for i in range(1, ctx.rank + 1) for k in (i, -i)]
    least = {}
    for size in range(5):
        for ls in itertools.product(pool, repeat=size):
            if any(a == -b for a, b in zip(ls, ls[1:])):
                continue
            w = FreeWord(ctx.rank, ls)
            inv = abelian_invariant(ctx, w)
            if inv not in least or word_sort_key(w) < word_sort_key(least[inv]):
                least[inv] = w
    # a word with invariant I has at least sum |I| letters, so for sum |I| <= 4
    # the enumeration holds the least word with I
    short = {inv: w for inv, w in least.items() if sum(map(abs, inv)) <= 4}
    assert len(short) > 1
    for inv, w in short.items():
        assert _floor(ctx, inv) == w.letters


@settings(max_examples=60, deadline=None)
@given(small_twists(max_rank=3, radius=3), st.data())
def test_canonical_rep_is_least_orbit_word_at_radius_3(ctx, data):
    # a floor word, a twisted conjugate of one (its walk can reach the floor
    # and stop there), or any word
    floor = FreeWord(ctx.rank, _floor(ctx, abelian_invariant(ctx, data.draw(words(ctx.rank, 4)))))
    a = data.draw(words(ctx.rank, 3))
    w = data.draw(
        st.sampled_from([floor, concat(apply(ctx.theta, a), floor, invert(a)), data.draw(words(ctx.rank, 5))])
    )
    assert canonical_rep(ctx, w) == _orbit_min(ctx, w)


@pytest.mark.parametrize(
    "braid, n, m, w",
    [
        # at their floor
        ("s1 s2 s3^-1 s4^-1", 5, 1, "e"),
        ("s1", 2, 1, "x1 x1"),
        # reach their floor partway through the walk; the first three
        # improve more than once before they do
        ("s1 s2 s3^-1 s4^-1", 5, 1, "x3^-1"),
        ("s1 s1", 2, 1, "x1^-1 x2^-1 x1 x2"),
        ("s1", 2, 1, "x2 x2"),
        ("s1 s2^-1", 3, 2, "x1 x3 x2^-1"),
        ("s1 s2 s3^-1 s4^-1", 5, 1, "x1 x2 x5 x2^-1 x1^-1"),
        # improve more than once, never reaching the floor
        ("s1 s2 s3^-1 s4^-1", 5, 1, "x5^-1 x5^-1"),
        ("s1 s1", 2, 1, "x2 x1 x1 x2"),
        ("s1 s2^-1", 3, 2, "x1 x3^-1 x3^-1"),
        # least already, above the floor, with larger orbit words of the same length
        ("s1 s2 s3^-1 s4^-1", 5, 1, "x2 x4"),
        ("s1 s2^-1", 3, 2, "x1 x2^-1"),
        # theta(a) * a^-1: the walk reaches e partway through, and e is the floor
        ("s1 s2 s3^-1 s4^-1", 5, 1, "x1 x2 x5 x2^-1 x1^-1 x1^-1 x2 x1^-1"),
        ("s1 s2^-1", 3, 2, "x1 x3 x1^-1 x3^-1 x2^-1 x3 x1 x3^-1"),
    ],
)
def test_canonical_rep_fixed_cases_match_brute_force(braid, n, m, w):
    ctx = ctx_for(parse_braid(braid, n), m=m, radius=3)
    word = parse_word(w, n)
    assert canonical_rep(ctx, word) == _orbit_min(ctx, word)


@st.composite
def deep_twists(draw):
    """A context for theta = beta with n = 3 or 4, |beta| <= 4 and radius 4 or 5: deep enough for _least to prune."""
    n = draw(st.integers(3, 4))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=4))))
    return ctx_for(beta, radius=draw(st.integers(4, 5)))


@settings(max_examples=20, deadline=None)
@given(deep_twists(), st.data())
def test_canonical_rep_is_least_orbit_word_at_radius_4_and_5(ctx, data):
    # a floor word, a twisted conjugate of it or of any word, or any word;
    # at these radii the walk skips whole subtrees by their length bound
    floor = FreeWord(ctx.rank, _floor(ctx, abelian_invariant(ctx, data.draw(words(ctx.rank, 4)))))
    a = data.draw(words(ctx.rank, ctx.bounds.radius))
    u = data.draw(words(ctx.rank, 4))
    w = data.draw(
        st.sampled_from(
            [floor, concat(apply(ctx.theta, a), floor, invert(a)), concat(apply(ctx.theta, a), u, invert(a)), u]
        )
    )
    assert canonical_rep(ctx, w) == _orbit_min(ctx, w)


def test_canonical_rep_of_the_worked_example_at_radius_5():
    # the forced-cold case whose walks prune most: two of its classes, a word
    # that improves more than once, one that reaches e partway through, and
    # words whose least orbit word lies only beneath longer words: the next
    # four are missed by a walk that keeps no child longer than the best word,
    # and the last two by one that takes drop as 1
    ctx = ctx_for(BETA5, radius=5)
    twists = _twists(ctx)
    for w in (
        "x5^-1",
        "x1 x2 x5 x2^-1 x1^-1",
        "x5^-1 x5^-1",
        "x1 x5^-1 x3^-1 x5 x1 x2 x5 x2^-1 x1^-1 x1^-1 x4 x2^-1",
        "x2 x5",
        "x2 x5^-1 x5^-1",
        "x1 x2 x5 x3 x5",
        "x5^-1 x2^-1 x1^-1 x5",
    ):
        word = parse_word(w, 5)
        assert canonical_rep(ctx, word) == _orbit_min(ctx, word, twists), w


def test_floor_words_are_returned_without_a_walk(monkeypatch):
    ctx = ctx_for(BETA5)

    def no_walk(*args):
        raise AssertionError("a floor word walked its orbit")

    monkeypatch.setattr(nielsen, "_least", no_walk)
    for w in ("x1", "e"):
        assert format_word(canonical_rep(ctx, parse_word(w, 5))) == w
    with pytest.raises(AssertionError):
        canonical_rep(ctx, parse_word("x5^-1", 5))


@settings(max_examples=60, deadline=None)
@given(small_twists(), st.data())
def test_orbit_words_are_twisted_conjugates(ctx, data):
    u = data.draw(words(ctx.rank, 5))
    n = 2 * ctx.rank
    count = 0
    longest_image = max(len(img) for img in ctx.theta.images)
    for alpha, cand in _orbit(ctx, u, 2, 0, 2 * longest_image + len(u) + 2):
        a = FreeWord(ctx.rank, alpha)
        assert cand == concat(apply(ctx.theta, a), u, invert(a)).letters
        count += 1
    assert count == 1 + n + n * (n - 1)  # the reduced words alpha with |alpha| <= 2


# ---------------------------------------------------------------------------
# the length-bounded orbit walk against the unbounded one


def _unbounded_orbit(ctx: TwistContext, u: FreeWord, radius: int):
    """Yield (alpha, theta(alpha) * u * alpha^-1) as raw letter tuples.

    Enumeration is deterministic: alpha by length first, then lexicographic
    with x_k before x_k^-1.  Iterative deepening keeps memory flat while
    preserving that order; theta images and inverses grow incrementally
    along the search path.
    """
    n = ctx.rank
    letters = [k for i in range(1, n + 1) for k in (i, -i)]
    timg = ctx.theta._letter_images
    u_letters = u.letters
    yield (), u_letters
    for depth in range(1, radius + 1):
        # stack entries: (alpha, theta(alpha), alpha^-1)
        stack = [((), (), ())]
        while stack:
            alpha, th, inv_a = stack.pop()
            children = []
            for k in letters:
                if alpha and alpha[-1] == -k:
                    continue
                child = (alpha + (k,), _reduce_letters((th, timg[k])), (-k,) + inv_a)
                if len(child[0]) == depth:
                    yield child[0], _reduce_letters((child[1], u_letters, child[2]))
                else:
                    children.append(child)
            stack.extend(reversed(children))


def _assert_bounded_orbit_filters_reference(ctx, u, radius, windows=None):
    """_orbit in each length window (min_len, max_len) is the unbounded walk filtered to it, in order.

    By default the windows are (0, L), (L, L) and (L, longest + 1) for every
    L up to one past the longest orbit word, and one empty window, min > max.
    """
    reference = list(_unbounded_orbit(ctx, u, radius))
    longest = max(len(cand) for _, cand in reference)
    if windows is None:
        ends = range(longest + 2)
        windows = [(0, n) for n in ends] + [(n, n) for n in ends] + [(n, longest + 1) for n in ends] + [(1, 0)]
    for lo, hi in windows:
        expected = [p for p in reference if lo <= len(p[1]) <= hi]
        assert list(_orbit(ctx, u, radius, lo, hi)) == expected


@settings(max_examples=80, deadline=None)
@given(small_twists(), st.data())
def test_bounded_orbit_is_the_filtered_unbounded_orbit(ctx, data):
    u = data.draw(words(ctx.rank, 5))
    radius = data.draw(st.integers(0, 3))
    longest = max(len(cand) for _, cand in _unbounded_orbit(ctx, u, radius))
    # min_len may equal max_len, exceed it, or exceed every orbit word
    lo, hi = data.draw(st.integers(0, longest + 2)), data.draw(st.integers(0, longest + 2))
    _assert_bounded_orbit_filters_reference(ctx, u, radius, [(lo, hi), (0, hi), (lo, lo)])


def _endo(rank, *images):
    return FreeEndo(rank, tuple(parse_word(img, rank) for img in images))


@pytest.mark.parametrize(
    "theta, u",
    [
        # identity: theta(alpha) * u * alpha^-1 is plain conjugation, so the
        # outer letters cancel against each other once u is used up
        (FreeEndo.identity(3), ""),
        (FreeEndo.identity(3), "x1 x2 x1^-1"),
        # u cancels where theta(x1) meets it and where it meets x1^-1
        (FreeEndo.identity(3), "x1^-1 x2 x1"),
        (FreeEndo.identity(2), "x1^-1 x2^-1 x1"),
        # an empty image: theta(x1) = e
        (_endo(2, "e", "x1 x2"), ""),
        (_endo(2, "e", "x1 x2"), "x2^-1 x1^-1 x2"),
        (_endo(3, "e", "x3 x1^-1", "x2 x2"), "x2 x1"),
        # braid iterates
        (artin(BETA5), "x1 x2 x3^-1"),
        (endo_power(artin(parse_braid("s1 s2^-1", 3)), 2), "x2 x1^-1"),
        # forced-cold anchors, each with its longest raw-trace word: in the
        # short windows many leaf-parents' sums are past max_len, where only
        # a leaf that cancels at a join can land, and many are under min_len
        (
            endo_power(artin(parse_braid("s1 s2^-1", 3)), 3),
            "x1 x3 x1^-1 x3^-1 x2 x3 x1 x3^-1 x1^-1 x3^-1 x2^-1 x3 x1 x3^-1 x2 x3 x1 x3 x1^-1 x3^-1 x2^-1 x3 x1 x3^-1 x1^-1",
        ),
        (
            endo_power(artin(parse_braid("s1 s2^-1 s3", 4)), 2),
            "x3 x4^-1 x3^-1 x2 x3 x4 x3^-1 x4^-1 x3^-1 x2^-1 x3 x4 x3^-1 x1 x3 x4^-1 x3^-1 x2 x3 x4 x3 x4^-1 x3^-1 x2^-1 x3 x4 x3^-1",
        ),
    ],
)
def test_bounded_orbit_fixed_cases(theta, u):
    ctx = TwistContext.create(theta, SearchBounds(3, 6))
    _assert_bounded_orbit_filters_reference(ctx, parse_word(u, theta.rank), 3)


@pytest.mark.parametrize("radius", [4, 5])
@pytest.mark.parametrize("u", ["x5^-1", "x1 x2 x5 x2^-1 x1^-1"])
def test_bounded_orbit_of_the_worked_example_in_short_windows(u, radius):
    # the worked example's orbits: at radius 4 and 5 fewer than a dozen
    # orbit words have 3 letters or fewer, so in these windows
    # the walk skips most leaves by their length bounds, and only leaves
    # that cancel at a join can land in them
    ends = range(4)
    _assert_bounded_orbit_filters_reference(
        ctx_for(BETA5, radius=radius), parse_word(u, 5), radius, [(0, n) for n in ends] + [(n, n) for n in ends]
    )


def test_bounded_orbit_with_empty_mids():
    # theta = identity and u = e: every mid theta(x_k) * u * x_k^-1 is empty,
    # so theta(alpha) meets alpha^-1 directly and cancels there; an empty mid
    # has no first or last letter to test, and must be counted
    ctx = TwistContext.create(FreeEndo.identity(3), SearchBounds(3, 6))
    e = parse_word("e", 3)
    assert all(not cand for alpha, cand in _orbit(ctx, e, 1, 0, 9) if alpha)
    _assert_bounded_orbit_filters_reference(ctx, e, 3, [(0, 0), (0, 1), (0, 2)])


def _assert_cancels_slice_the_reduced_product(parts):
    cancels = _cancels(*parts)
    reduced = _reduce_letters(parts)
    assert _splice(*parts, cancels) == reduced
    assert sum(map(len, parts)) - 2 * sum(cancels) == len(reduced)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cancels_slice_the_reduced_product(data):
    _assert_cancels_slice_the_reduced_product([data.draw(words(2, 6)).letters for _ in range(3)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cancelled_length_keeps_the_triangle_bound(data):
    # the bound _orbit skips leaves by: |a * b * c| >= |a| - |b| - |c| and
    # >= |b| - |a| - |c|, read off the cancels without building the product
    a, b, c = (data.draw(words(2, size)).letters for size in (8, 8, 4))
    length = len(a) + len(b) + len(c) - 2 * sum(_cancels(a, b, c))
    assert length >= len(a) - len(b) - len(c)
    assert length >= len(b) - len(a) - len(c)


@pytest.mark.parametrize(
    "parts, cancels",
    [
        (((1, 2), (-2, 3), (1,)), (1, 0, 0)),
        (((1, 2), (3, -1), (1, 2)), (0, 1, 0)),
        # b is used up, then what is left of a meets what is left of c
        (((1, 2), (-2,), (-1,)), (1, 0, 1)),
        (((2, 1, 2), (-2, 1), (-1, -1, -2)), (1, 1, 2)),
        (((1,), (), (-1, 2)), (0, 0, 1)),
        (((1, 2), (-2, -1), ()), (2, 0, 0)),
    ],
)
def test_cancels_fixed_cases(parts, cancels):
    assert _cancels(*parts) == cancels
    _assert_cancels_slice_the_reduced_product(parts)


# ---------------------------------------------------------------------------
# is_degenerate against the plain sweep


def _sweep_is_degenerate(ctx, gamma, families):
    """is_degenerate as a twisted_conj call per family and power: the reference."""
    k_max = ctx.bounds.k_max
    saw_unknown = False
    ks = [0]
    for k in range(1, k_max + 1):
        ks.extend((k, -k))
    for fam in families:
        for k in ks:
            probe = concat(fam.conj, FreeWord(ctx.rank, (fam.strand if k > 0 else -fam.strand,) * abs(k)))
            d = twisted_conj(ctx, probe, gamma)
            if d.is_yes:
                return Decision("yes", d.witness, ("family", fam.strand, k))
            if d.is_unknown:
                saw_unknown = True
    return Decision("unknown" if saw_unknown else "no", None, ("families", k_max))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_degenerate_matches_sweep_reference(data):
    n = data.draw(st.integers(2, 4))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(data.draw(st.lists(st.sampled_from(pool), max_size=4))))
    m = data.draw(st.integers(1, 2))
    ctx = ctx_for(beta, m=m, radius=data.draw(st.integers(0, 2)), k_max=data.draw(st.integers(0, 3)))
    families = ctx._families
    if families and data.draw(st.booleans()):
        fam = data.draw(st.sampled_from(families))
        k = data.draw(st.integers(-ctx.bounds.k_max - 1, ctx.bounds.k_max + 1))
        probe = concat(fam.conj, FreeWord(n, (fam.strand if k > 0 else -fam.strand,) * abs(k)))
        a = data.draw(words(n, ctx.bounds.radius + 1))
        gamma = concat(apply(ctx.theta, a), probe, invert(a))
    else:
        gamma = data.draw(words(n, 5))
    assert is_degenerate(ctx, gamma) == _sweep_is_degenerate(ctx, gamma, families)


# ---------------------------------------------------------------------------
# the strand-cycle invariant against the integer lattice reduction


def _column_echelon(matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Integer column echelon basis of the lattice spanned by columns of M - I."""
    n = len(matrix)
    work = []
    for j in range(n):
        col = [matrix[i][j] - (1 if i == j else 0) for i in range(n)]
        if any(col):
            work.append(col)
    basis: list[list[int]] = []
    for r in range(n):
        live = [c for c in work if c[r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            a = live[0]
            for b in live[1:]:
                q = b[r] // a[r]
                for i in range(r, n):
                    b[i] -= q * a[i]
            live = [c for c in work if c[r] != 0]
        if live:
            p = live[0]
            if p[r] < 0:
                p = [-x for x in p]
            basis.append(p)
            work = [c for c in work if c[r] == 0]
    return tuple(tuple(c) for c in basis)


def _lattice_reduce(ctx: TwistContext, v: list[int]) -> tuple[int, ...]:
    """Canonical representative of the vector v (reduced in place) modulo the column lattice of M - I.

    The reference for abelian_invariant: it holds for any theta, and M is
    read from theta here.
    """
    n = len(v)
    for col in _column_echelon(endo_matrix(ctx.theta)):
        r = next(i for i in range(n) if col[i] != 0)
        q = v[r] // col[r]
        if q:
            for i in range(r, n):
                v[i] -= q * col[i]
    return tuple(v)


@settings(max_examples=100, deadline=None)
@given(small_twists(), st.data())
def test_abelian_invariant_matches_lattice_reference(ctx, data):
    for w in (FreeWord(ctx.rank), data.draw(words(ctx.rank, 8))):
        assert abelian_invariant(ctx, w) == _lattice_reduce(ctx, list(abelianize(w)))


def _perm_families(beta, m):
    """degenerate_families from the strands fixed by the braid permutation of beta^m: the reference."""
    theta = endo_power(artin(beta), m)
    fams = []
    for i in perm(power(beta, m)).fixed_points():
        x_i = gen(beta.strands, i)
        fams.append(DegenerateFamily(i, conjugator(x_i, apply(theta, x_i))))
    return tuple(fams)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_degenerate_families_match_braid_permutation_reference(data):
    n = data.draw(st.integers(2, 5))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(data.draw(st.lists(st.sampled_from(pool), max_size=5))))
    m = data.draw(st.integers(1, 3))
    assert degenerate_families(beta, m) == _perm_families(beta, m)


def test_family_exponents_leave_equality_and_hash_alone():
    ctx = TwistContext.create(endo_power(artin(parse_braid("s1 s2^-1", 3)), 3))
    fams = ctx._families
    assert len(fams) == 3
    before = [hash(fam) for fam in fams]
    # no family matches, so every family's invariant is read
    assert is_degenerate(ctx, FreeWord(3)).certificate == ("families", 6)
    assert [hash(fam) for fam in fams] == before
    assert fams == _perm_families(parse_braid("s1 s2^-1", 3), 3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_context_families_equal_degenerate_families_and_are_built_once(data):
    n = data.draw(st.integers(2, 4))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(data.draw(st.lists(st.sampled_from(pool), max_size=4))))
    m = data.draw(st.integers(1, 3))
    ctx = TwistContext.create(endo_power(artin(beta), m))
    fams = ctx._families
    assert fams == degenerate_families(beta, m)
    assert ctx._families is fams


@pytest.mark.parametrize("images", [("x1 x1", "x2"), ("x2 x1 x2^-1", "x1")])
def test_context_without_strand_permutation_walks_orbits_only(images):
    # x1 x1 abelianizes to no unit vector; the second theta sends both
    # generators to e_1
    ctx = TwistContext.create(_endo(2, *images), SearchBounds(2, 6))
    u = parse_word("x2 x1", 2)
    with pytest.raises(ValueError):
        abelian_invariant(ctx, u)
    with pytest.raises(ValueError):
        twisted_conj(ctx, u, u)
    # canonical_rep needs the invariant for its floor
    with pytest.raises(ValueError):
        canonical_rep(ctx, u)
    _assert_bounded_orbit_filters_reference(ctx, u, 2)


def test_families_of_a_theta_that_fixes_a_strand_off_its_conjugacy_class_are_refused():
    # theta(x1) abelianizes to e_1, so strand 1 is fixed, but x1 x2 x1 x1
    # x2^-1 x1^-1 x1^-1 is no conjugate of x1: no braid iterate sends x1
    # there, so theta has no degenerate families, while twisted conjugacy
    # needs only the strand permutation
    ctx = TwistContext.create(_endo(2, "x1 x2 x1 x1 x2^-1 x1^-1 x1^-1", "x2"))
    message = "image of x1 is not a conjugate of x1; only a braid iterate has degenerate families"
    with pytest.raises(ValueError, match=message):
        ctx._families
    with pytest.raises(ValueError, match=message):
        is_degenerate(ctx, gen(2, 1))
    assert twisted_conj(ctx, gen(2, 1), gen(2, 2)).is_no
    assert twisted_conj(ctx, gen(2, 2), gen(2, 2)).is_yes


# ---------------------------------------------------------------------------
# the iterate theta^m, folded from beta^m


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_iterate_is_the_composite_of_the_artin_action(data):
    # artin is a homomorphism, so the fold of beta^m is theta_1 composed m times
    n = data.draw(st.integers(2, 5))
    pool = [k for i in range(1, n) for k in (i, -i)]
    beta = BraidWord(n, tuple(data.draw(st.lists(st.sampled_from(pool), max_size=6))))
    m = data.draw(st.integers(1, 6))
    try:
        theta = artin(beta)
        # theta^m can reach millions of letters at m = 6; the composite is
        # built letter by letter, so keep draws it can build quickly
        artin(power(beta, m), 4096)
    except WordTooLongError:
        assume(False)
    assert nielsen._iterate(beta, m) == endo_power(theta, m)


def test_iterate_refuses_as_artin_refuses_its_braid():
    # theta_1 passes the cap at 161 letters; theta^3 is refused with that
    # message, though beta^3, whose longest image has 481 letters, is folded
    # without a cap once theta_1 is
    beta = power(parse_braid("s1", 2), 80)
    with pytest.raises(WordTooLongError) as refused:
        artin(beta)
    with pytest.raises(WordTooLongError) as iterated:
        nielsen._iterate(beta, 3)
    assert str(iterated.value) == str(refused.value)
