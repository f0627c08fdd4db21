import random

import pytest

from braidforce import (
    BraidWord,
    Decision,
    FreeWord,
    GroupRingElem,
    SearchBounds,
    TwistContext,
    abelian_invariant,
    apply,
    artin,
    augmentation,
    canonical_rep,
    concat,
    degenerate_families,
    endo_power,
    forced_set,
    format_trace,
    format_word,
    gen,
    invert,
    is_degenerate,
    merge,
    parse_braid,
    parse_word,
    raw_trace,
    reduce,
    reidemeister_trace,
    twisted_conj,
)

BETA5 = parse_braid("s1 s2 s3^-1 s4^-1", 5)


def ctx_for(braid, m=1, radius=5, k_max=6):
    theta = endo_power(artin(braid), m)
    return TwistContext.create(theta, SearchBounds(radius, k_max))


def rand_word(rng, rank, max_len):
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    return reduce(rank, [rng.choice(pool) for _ in range(rng.randrange(max_len + 1))])


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
        "e": abelian_invariant(ctx, FreeWord.identity(5)),
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


def test_twisted_conj_golden_yes():
    ctx = ctx_for(BETA5)
    d = twisted_conj(ctx, FreeWord.identity(5), parse_word("x5^-1 x4", 5))
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
    ctx0 = ctx_for(BraidWord.identity(2), radius=0)
    d = twisted_conj(ctx0, gen(2, 1), parse_word("x2 x1 x2^-1", 2))
    assert d.is_unknown
    assert d.certificate == ("radius", 0)
    # radius 1 reaches the conjugate
    ctx1 = ctx_for(BraidWord.identity(2), radius=1)
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
    ctx = ctx_for(BraidWord.identity(2))
    with pytest.raises(ValueError):
        twisted_conj(ctx, gen(3, 1), gen(3, 1))


def test_canonical_rep():
    ctx = ctx_for(BETA5)
    assert format_word(canonical_rep(ctx, parse_word("x1 x2 x5 x2^-1 x1^-1", 5))) == "x1"
    assert format_word(canonical_rep(ctx, parse_word("x5^-1", 5))) == "x5^-1"
    assert format_word(canonical_rep(ctx, parse_word("x1", 5))) == "x1"
    ctx_id = ctx_for(BraidWord.identity(2), radius=2)
    assert format_word(canonical_rep(ctx_id, parse_word("x2 x1 x2^-1", 2))) == "x1"


def test_merge_plain_conjugacy():
    ctx = ctx_for(BraidWord.identity(2), radius=2)
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
    ctx = ctx_for(BraidWord.identity(2), radius=2)
    w = parse_word("x1 x2", 2)
    raw = GroupRingElem.from_terms(2, [(w, 1), (concat(gen(2, 1), w, invert(gen(2, 1))), -1)])
    mt = merge(ctx, raw)
    assert mt.summands == ()
    assert format_trace(mt) == "0"


def test_merge_records_unresolved_pairs():
    ctx = ctx_for(BraidWord.identity(2), radius=0)
    raw = GroupRingElem.from_terms(
        2, [(parse_word("x1", 2), 1), (parse_word("x2 x1 x2^-1", 2), 1)]
    )
    mt = merge(ctx, raw)
    assert len(mt.summands) == 2
    assert len(mt.unresolved) == 1
    u, v = mt.unresolved[0]
    assert {format_word(u), format_word(v)} == {"x1", "x2 x1 x2^-1"}


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
    ctx = ctx_for(BraidWord.identity(2))
    fams = degenerate_families(BraidWord.identity(2), 1)
    d = is_degenerate(ctx, parse_word("x1 x1 x1", 2), fams)
    assert d.is_yes
    assert d.certificate == ("family", 1, 3)
    d2 = is_degenerate(ctx, parse_word("x2^-1", 2), fams)
    assert d2.is_yes
    assert d2.certificate == ("family", 2, -1)
    assert is_degenerate(ctx, FreeWord.identity(2), fams).certificate == ("family", 1, 0)
    assert is_degenerate(ctx, parse_word("x1 x2", 2), fams).is_no


def test_is_degenerate_respects_k_max():
    ctx = ctx_for(BraidWord.identity(2), k_max=2)
    fams = degenerate_families(BraidWord.identity(2), 1)
    d = is_degenerate(ctx, parse_word("x1 x1 x1", 2), fams)
    assert d.is_no  # k = 3 is outside the sweep; the certificate names the bound
    assert d.certificate == ("families", 2)


def test_is_degenerate_without_families():
    ctx = ctx_for(parse_braid("s1", 2))
    d = is_degenerate(ctx, gen(2, 1), ())
    assert d.is_no


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
