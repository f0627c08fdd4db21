import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from braidforce import (
    AugBraid,
    BraidWord,
    FreeWord,
    WordTooLongError,
    artin,
    braid_eq,
    format_aug,
    format_braid,
    format_word,
    from_word,
    parse_braid,
    parse_word,
    perm,
    to_word,
)
from braidforce.freegroup import _conjugator_of, apply, reduce
from braidforce.braid import _pure_letters
from braidforce import augbraid
from braidforce.augbraid import _delete_last_strand, _phi_letters, _to_word_text, parse_aug
from oracles import (
    act,
    aug_eq,
    braid_invert,
    braid_mul,
    compose as aug_compose,
    fixes_last_strand,
    gen,
    phi_word,
    pure_gen,
    section_word,
)

BETA5 = parse_braid("s1 s2 s3^-1 s4^-1", 5)


def rand_aug(rng, n, base_len=4, tail_len=3):
    pool = [k for i in range(1, n) for k in (i, -i)]
    base = BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randrange(base_len + 1))))
    wpool = [k for i in range(1, n + 1) for k in (i, -i)]
    tail = reduce(n, [rng.choice(wpool) for _ in range(rng.randrange(tail_len + 1))])
    return AugBraid(base, tail)


def all_short_words(n):
    out = [FreeWord(n)]
    out += [gen(n, i) for i in range(1, n + 1)]
    out += [FreeWord(n, (-i,)) for i in range(1, n + 1)]
    out += [reduce(n, (1, 2)), reduce(n, (-1, 2)), reduce(n, (2, -1))]
    return out


def test_phi_word_goldens():
    assert format_braid(phi_word(gen(2, 1))) == "s2 s1 s1 s2^-1"
    assert format_braid(phi_word(gen(2, 2))) == "s2 s2"
    w = phi_word(parse_word("x1^-1", 2))
    assert format_braid(w) == "s2 s1^-1 s1^-1 s2^-1"
    assert fixes_last_strand(phi_word(parse_word("x1 x2^-1", 3)))


def test_phi_word_spells_pure_generators():
    # reference: phi(x_i^{+-1}) is the word of A_{i,n+1} or of its inverse
    rng = random.Random(52)
    for _ in range(40):
        n = rng.randrange(1, 6)
        wpool = [k for i in range(1, n + 1) for k in (i, -i)]
        u = reduce(n, [rng.choice(wpool) for _ in range(rng.randrange(6))])
        expected = []
        for k in u.letters:
            g = pure_gen(abs(k), n + 1, n + 1)
            expected += (g if k > 0 else braid_invert(g)).letters
        assert phi_word(u) == BraidWord(n + 1, tuple(expected))


def ref_phi_letters(u: FreeWord) -> tuple[int, ...]:
    """The braid letters on rank+1 strands spelling phi(u), unchecked."""
    n = u.rank
    letters: list[int] = []
    for k in u.letters:
        letters += _pure_letters(abs(k), n + 1, 1 if k > 0 else -1)
    return tuple(letters)


reduced_words = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(-n, n).filter(bool), max_size=30).map(lambda letters: reduce(n, letters))
)


@given(reduced_words)
@example(FreeWord(1))
@example(FreeWord(7))
def test_phi_letters_match_reference(u):
    assert _phi_letters(u) == ref_phi_letters(u)


def test_phi_word_is_homomorphism():
    rng = random.Random(51)
    for _ in range(30):
        n = rng.choice([2, 3])
        wpool = [k for i in range(1, n + 1) for k in (i, -i)]
        u = reduce(n, [rng.choice(wpool) for _ in range(rng.randrange(4))])
        v = reduce(n, [rng.choice(wpool) for _ in range(rng.randrange(4))])
        lhs = phi_word(reduce(n, u.letters + v.letters))
        rhs = braid_mul(phi_word(u), phi_word(v))
        assert braid_eq(lhs, rhs, max_letters=4096)


def test_act_satisfies_defining_identity():
    # section(b) * phi(u) * section(b)^-1 = phi(act(b, u)) on n+1 strands
    for n in (2, 3):
        for letter in [k for i in range(1, n) for k in (i, -i)]:
            b = BraidWord(n, (letter,))
            s = section_word(b)
            for u in all_short_words(n):
                lhs = braid_mul(braid_mul(s, phi_word(u)), braid_invert(s))
                rhs = phi_word(act(b, u))
                assert braid_eq(lhs, rhs)


def test_act_differs_from_forward_application():
    # pushing u forward through the action itself breaks the identity
    b = parse_braid("s1", 2)
    u = gen(2, 1)
    s = section_word(b)
    lhs = braid_mul(braid_mul(s, phi_word(u)), braid_invert(s))
    forward = apply(artin(b), u)
    assert not braid_eq(lhs, phi_word(forward))
    assert braid_eq(lhs, phi_word(act(b, u)))
    assert act(b, u) != forward


def test_act_composition_law():
    rng = random.Random(52)
    for _ in range(40):
        n = rng.choice([2, 3])
        pool = [k for i in range(1, n) for k in (i, -i)]
        b1 = BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randrange(4))))
        b2 = BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randrange(4))))
        wpool = [k for i in range(1, n + 1) for k in (i, -i)]
        u = reduce(n, [rng.choice(wpool) for _ in range(rng.randrange(4))])
        assert act(braid_mul(b1, b2), u) == act(b1, act(b2, u))


def test_to_word_golden_five_strand():
    iota = BraidWord(6, BETA5.letters)
    a1 = AugBraid(BETA5, parse_word("x1", 5))
    assert braid_eq(to_word(a1), braid_mul(iota, pure_gen(1, 6, 6)))
    a2 = AugBraid(BETA5, parse_word("x5^-1", 5))
    assert braid_eq(to_word(a2), braid_mul(iota, braid_invert(pure_gen(5, 6, 6))))
    a3 = AugBraid(BETA5, FreeWord(5))
    assert braid_eq(to_word(a3), iota)


def test_to_word_passes_the_public_check():
    rng = random.Random(54)
    for _ in range(60):
        w = to_word(rand_aug(rng, rng.choice([2, 3, 4]), tail_len=6))
        assert BraidWord(w.strands, w.letters) == w


def test_from_word_golden_five_strand():
    iota = BraidWord(6, BETA5.letters)
    a = from_word(braid_mul(iota, pure_gen(1, 6, 6)))
    assert braid_eq(a.base, BETA5)
    assert format_word(a.tail) == "x1"
    b = from_word(braid_mul(iota, braid_invert(pure_gen(5, 6, 6))))
    assert format_word(b.tail) == "x5^-1"
    c = from_word(iota)
    assert format_word(c.tail) == "e"


def test_from_word_roundtrip_random():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        a = rand_aug(rng, n)
        back = from_word(to_word(a))
        assert aug_eq(back, a)


@st.composite
def last_strand_fixing_words(draw):
    """A random braid word on at most 5 strands, then a signed crossing walk taking the last strand home."""
    strands = draw(st.integers(2, 5))
    pool = [k for i in range(1, strands) for k in (i, -i)]
    letters = draw(st.lists(st.sampled_from(pool), max_size=8))
    position = perm(BraidWord(strands, tuple(letters))).images[strands - 1]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=strands, max_size=strands))
    letters += [signs[i] * i for i in range(position, strands)]
    return BraidWord(strands, tuple(letters))


@settings(deadline=None)
@given(last_strand_fixing_words())
def test_pure_part_and_whole_word_send_the_last_generator_alike(w):
    # from_word reads x_{n+1}'s image off w's own action: the section uses
    # only s_1 ... s_{n-1}, which fix x_{n+1}, so section(base)^-1 * w sends
    # it to the same word
    assert fixes_last_strand(w)
    rest = braid_mul(braid_invert(section_word(_delete_last_strand(w))), w)
    last = gen(w.strands, w.strands)
    assert apply(artin(w, 1 << 20), last) == apply(artin(rest, 1 << 20), last)


def test_from_word_sees_through_rewriting():
    # same braid spelled differently still splits into equivalent coordinates
    a = AugBraid(parse_braid("s1 s2", 3), parse_word("x2 x3^-1", 3))
    w = to_word(a)
    rewritten = braid_mul(braid_mul(w, BraidWord(4, (2, 2, -2, -2))), BraidWord(4))
    back = from_word(rewritten)
    assert aug_eq(back, a)


def refuses(w: BraidWord) -> bool:
    """Whether artin folds w past the default image cap."""
    try:
        artin(w)
    except WordTooLongError:
        return True
    return False


@st.composite
def aug_braids(draw):
    """A random AugBraid on 1 to 4 punctures whose word stays within from_word's input cap."""
    n = draw(st.integers(1, 4))
    pool = [k for i in range(1, n) for k in (i, -i)]
    base = draw(st.lists(st.sampled_from(pool), max_size=10)) if pool else []
    tail = draw(st.lists(st.sampled_from([k for i in range(1, n + 1) for k in (i, -i)]), max_size=12))
    return AugBraid(BraidWord(n, tuple(base)), reduce(n, tail))


@settings(deadline=None)
@given(aug_braids())
@example(AugBraid(BraidWord(1), FreeWord(1)))
@example(AugBraid(parse_braid("s1 s2^-1", 3), FreeWord(3)))
@example(AugBraid(BraidWord(3), parse_word("x3^-1 x1", 3)))
def test_to_word_text_is_the_text_of_to_word(a):
    # an empty base, an empty tail, or both: `e` only when the word is empty
    assert _to_word_text(a) == format_braid(to_word(a))


@settings(deadline=None)
@given(aug_braids())
@example(AugBraid(parse_braid("s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2 s1^-1 s1^-1", 3), FreeWord(3)))
@example(AugBraid(BraidWord(1), FreeWord(1, (1,) * 33)))
def test_round_trip_refuses_only_where_the_full_fold_does(a):
    # a round trip folds x_{n+1} alone and is verified by its letters: it
    # returns its input, and refuses only where artin itself refuses
    w = to_word(a)
    try:
        back = from_word(w)
    except WordTooLongError:
        assert refuses(w)
    else:
        assert back == a


@settings(deadline=None)
@given(last_strand_fixing_words())
@example(parse_braid("s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s3 s2 s3 s2^-1 s3^-1 s2^-1", 4))
def test_rewritten_word_refuses_exactly_where_a_full_fold_does(w):
    # a word that does not come back letter for letter is verified by
    # folding it and its decomposition in full
    back = to_word(from_word(w, 4096))
    assume(back.letters != w.letters)
    try:
        from_word(w)
    except WordTooLongError:
        refused = True
    else:
        refused = False
    assert refused == (refuses(w) or refuses(back))


def flip_first_crossing(w: BraidWord) -> BraidWord:
    base = _delete_last_strand(w)
    return BraidWord(base.strands, (-base.letters[0],) + base.letters[1:])


def conjugator_times_x1(w: FreeWord, k: int) -> FreeWord:
    c = _conjugator_of(w, k)
    return reduce(c.rank, c.letters + (1,))


@pytest.mark.parametrize(
    "fault, name", [(flip_first_crossing, "_delete_last_strand"), (conjugator_times_x1, "_conjugator_of")]
)
def test_from_word_verification_catches_a_wrong_base_or_tail(fault, name, monkeypatch):
    a = AugBraid(parse_braid("s1 s2", 3), parse_word("x2 x3^-1", 3))
    round_trip = to_word(a)
    # the same braid times the relator s3 s2 s3 (s2 s3 s2)^-1
    rewritten = BraidWord(4, round_trip.letters + (3, 2, 3, -2, -3, -2))
    assert from_word(round_trip) == a
    assert aug_eq(from_word(rewritten), a)
    monkeypatch.setattr(augbraid, name, fault)
    for w in (round_trip, rewritten):
        with pytest.raises(AssertionError, match="^decomposition failed verification$"):
            from_word(w)


def test_from_word_refuses_an_input_longer_than_the_cap():
    # s1 fixes x3, so no image grows: only the input's own length is capped
    assert from_word(BraidWord(3, (1,) * 128)) == AugBraid(BraidWord(2, (1,) * 128), FreeWord(2))
    with pytest.raises(ValueError, match=r"^input word has 129 letters \(cap 128\)$"):
        from_word(BraidWord(3, (1,) * 129))
    with pytest.raises(ValueError, match=r"^input word has 5 letters \(cap 4\)$"):
        from_word(BraidWord(3, (1,) * 5), max_letters=4)


def test_from_word_rejects_moving_last_strand():
    with pytest.raises(ValueError):
        from_word(parse_braid("s2", 3))
    with pytest.raises(ValueError):
        from_word(parse_braid("s1", 1))


def test_compose_matches_word_multiplication():
    rng = random.Random(54)
    for _ in range(40):
        n = rng.choice([2, 3])
        a1 = rand_aug(rng, n)
        a2 = rand_aug(rng, n)
        prod = aug_compose(a1, a2)
        assert braid_eq(to_word(prod), braid_mul(to_word(a1), to_word(a2)), max_letters=4096)


def test_aug_eq():
    a = AugBraid(parse_braid("s1 s2 s2^-1", 3), parse_word("x1", 3))
    b = AugBraid(parse_braid("s1", 3), parse_word("x1", 3))
    c = AugBraid(parse_braid("s1", 3), parse_word("x2", 3))
    assert aug_eq(a, b)
    assert not aug_eq(a, c)
    with pytest.raises(ValueError):
        aug_eq(a, AugBraid(parse_braid("s1", 2), parse_word("x1", 2)))


def test_parse_format_aug():
    a = parse_aug("(s1 s2^-1 ; x1 x3^-1)", 3)
    assert a.base == parse_braid("s1 s2^-1", 3)
    assert a.tail == parse_word("x1 x3^-1", 3)
    assert format_aug(a) == "(s1 s2^-1 ; x1 x3^-1)"
    assert parse_aug(format_aug(a), 3) == a
    with pytest.raises(ValueError):
        parse_aug("s1 ; x1", 3)  # missing parentheses
    with pytest.raises(ValueError):
        parse_aug("(s1, x1)", 3)


def test_rejects_a_tail_that_is_not_a_free_word():
    with pytest.raises(ValueError):
        AugBraid(BraidWord(2, (1,)), "x1")


def test_rejects_a_base_that_is_not_a_braid_word():
    with pytest.raises(ValueError):
        AugBraid("s1", FreeWord(2, (1,)))


def test_rejects_a_missing_tail():
    with pytest.raises(ValueError):
        AugBraid(BraidWord(2, (1,)), None)


def test_validation():
    with pytest.raises(ValueError):
        AugBraid(parse_braid("s1", 3), parse_word("x1", 2))  # rank mismatch
