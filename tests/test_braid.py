import random

import pytest
from hypothesis import example, given, strategies as st

from braidforce import (
    BraidWord,
    Permutation,
    WordTooLongError,
    artin,
    braid_eq,
    format_braid,
    format_word,
    from_word,
    parse_braid,
    parse_word,
    perm,
    power,
)
from braidforce.freegroup import FreeEndo, compose
from braidforce.braid import DEFAULT_MAX_LETTERS, _LETTER, _MAX_STRANDS, _SEP, _fold
from oracles import artin_apply, braid_invert, braid_mul, fixes_last_strand, gen, letter_endo, pure_gen, tuple_fold


def rand_braid(rng, strands, max_len=6):
    pool = [k for i in range(1, strands) for k in (i, -i)]
    return BraidWord(strands, tuple(rng.choice(pool) for _ in range(rng.randrange(max_len + 1))))


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0)
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))  # only s1, s2 exist on 3 strands
    BraidWord(1)  # no generators but still a group


def test_mul_invert_power():
    b = parse_braid("s1 s2^-1", 3)
    assert braid_mul(b, b).letters == (1, -2, 1, -2)
    assert power(b, 0) == BraidWord(3)
    assert power(b, 2).letters == (1, -2, 1, -2)


def test_perm_golden_five_strand():
    beta = parse_braid("s1 s2 s3^-1 s4^-1", 5)
    assert perm(beta).images == (5, 1, 2, 3, 4)
    assert perm(beta).fixed_points() == ()


def test_perm_basics():
    assert perm(parse_braid("s1", 2)).images == (2, 1)
    assert perm(parse_braid("s1 s1", 2)).images == (1, 2)
    assert perm(parse_braid("s2^-1", 3)).images == (1, 3, 2)
    assert perm(parse_braid("s1", 3)).fixed_points() == (3,)


def test_perm_is_multiplicative():
    rng = random.Random(21)
    for _ in range(100):
        b1 = rand_braid(rng, 4)
        b2 = rand_braid(rng, 4)
        p1, p2 = perm(b1).images, perm(b2).images
        assert perm(braid_mul(b1, b2)).images == tuple(p2[i - 1] for i in p1)


def test_pure_gen_goldens():
    assert format_braid(pure_gen(1, 6, 6)) == "s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1"
    assert format_braid(pure_gen(5, 6, 6)) == "s5 s5"
    assert format_braid(pure_gen(1, 3, 3)) == "s2 s1 s1 s2^-1"
    assert perm(pure_gen(2, 5, 5)).images == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        pure_gen(3, 3, 5)


def test_artin_golden_five_strand():
    beta = parse_braid("s1 s2 s3^-1 s4^-1", 5)
    e = artin(beta)
    expected = ["x1 x2 x5 x2^-1 x1^-1", "x1", "x2", "x5^-1 x3 x5", "x5^-1 x4 x5"]
    assert [format_word(w) for w in e.images] == expected


def test_artin_generator_images():
    e = artin(parse_braid("s1", 3))
    assert format_word(e.images[0]) == "x1 x2 x1^-1"
    assert format_word(e.images[1]) == "x1"
    assert format_word(e.images[2]) == "x3"
    e_inv = artin(parse_braid("s1^-1", 3))
    assert format_word(e_inv.images[0]) == "x2"
    assert format_word(e_inv.images[1]) == "x2^-1 x1 x2"


def test_artin_is_multiplicative():
    rng = random.Random(22)
    for _ in range(60):
        b1 = rand_braid(rng, 4)
        b2 = rand_braid(rng, 4)
        assert artin(braid_mul(b1, b2)) == compose(artin(b1), artin(b2))


def test_artin_preserves_boundary_word():
    rng = random.Random(23)
    boundary = parse_word("x1 x2 x3 x4", 4)
    for _ in range(40):
        b = rand_braid(rng, 4)
        assert artin_apply(b, boundary) == boundary


def test_artin_image_is_conjugate_of_generator():
    rng = random.Random(24)
    for _ in range(40):
        b = rand_braid(rng, 4)
        p = perm(b)
        e = artin(b)
        for i in range(1, 5):
            img = e.images[i - 1]
            total = [0, 0, 0, 0]
            for k in img.letters:
                total[abs(k) - 1] += 1 if k > 0 else -1
            want = [0, 0, 0, 0]
            want[p.images[i - 1] - 1] = 1
            assert total == want


def test_braid_relations():
    for n in range(3, 7):
        for i in range(1, n - 1):
            lhs = BraidWord(n, (i, i + 1, i))
            rhs = BraidWord(n, (i + 1, i, i + 1))
            assert braid_eq(lhs, rhs)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert braid_eq(BraidWord(n, (i, j)), BraidWord(n, (j, i)))


def test_braid_eq_identities_and_differences():
    rng = random.Random(25)
    for _ in range(50):
        b = rand_braid(rng, 4)
        assert braid_eq(braid_mul(b, braid_invert(b)), BraidWord(4))
        assert not braid_eq(b, braid_mul(b, BraidWord(4, (1,))))
    assert not braid_eq(parse_braid("s1", 3), parse_braid("s1^-1", 3))
    assert not braid_eq(parse_braid("s1", 3), parse_braid("s2", 3))
    with pytest.raises(ValueError):
        braid_eq(parse_braid("s1", 3), parse_braid("s1", 4))


def test_braid_eq_of_the_same_letters_folds_nothing():
    # the fold of (s1 s2^-1)^40 passes the cap at 177 letters
    w = power(parse_braid("s1 s2^-1", 3), 40)
    with pytest.raises(WordTooLongError):
        artin(w)
    assert braid_eq(w, BraidWord(3, w.letters))
    with pytest.raises(ValueError, match="strand count mismatch"):
        braid_eq(w, BraidWord(4, w.letters))


@pytest.mark.parametrize("m", [True, False, 1.5, 2.0, "2", None])
def test_power_rejects_a_non_integer_exponent(m):
    with pytest.raises(ValueError, match="exponent m must be an integer"):
        power(parse_braid("s1", 2), m)


def test_power_rejects_a_negative_exponent():
    # like endo_power: no pipeline step inverts a braid
    with pytest.raises(ValueError, match="exponent m must be >= 0, got -1"):
        power(parse_braid("s1", 2), -1)


def test_fixes_last_strand():
    assert fixes_last_strand(parse_braid("s1", 3))
    assert not fixes_last_strand(parse_braid("s2", 3))
    assert fixes_last_strand(parse_braid("s2 s2", 3))
    assert fixes_last_strand(BraidWord(2))


def test_word_too_long_raises():
    b = power(parse_braid("s1", 2), 80)
    with pytest.raises(WordTooLongError):
        artin(b)
    # a generous cap accepts the same braid
    e = artin(b, max_letters=400)
    assert len(e.images[0]) == 161


def test_artin_apply():
    b = parse_braid("s1", 2)
    assert artin_apply(b, gen(2, 1)) == parse_word("x1 x2 x1^-1", 2)
    assert artin_apply(b, gen(2, 2)) == gen(2, 1)


def test_parse_braid_grammars():
    assert parse_braid("s1 s2^-1", 3).letters == (1, -2)
    assert parse_braid("1 -2", 3).letters == (1, -2)
    assert parse_braid("e", 3) == BraidWord(3)
    with pytest.raises(ValueError):
        parse_braid("s3", 3)
    with pytest.raises(ValueError):
        parse_braid("s0", 3)
    with pytest.raises(ValueError):
        parse_braid("x1", 3)


def test_format_braid_roundtrip():
    rng = random.Random(26)
    for _ in range(50):
        b = rand_braid(rng, 5)
        assert parse_braid(format_braid(b), 5) == b


def test_braid_word_rejects_a_list_of_letters():
    # a list would make the word unhashable and unequal to its tuple twin
    with pytest.raises(ValueError):
        BraidWord(3, [1])


def test_braid_word_rejects_bools():
    with pytest.raises(ValueError):
        BraidWord(3, (True,))
    with pytest.raises(ValueError):
        BraidWord(True)


def test_permutation_rejects_a_list_of_images():
    # a list would make the permutation unhashable and unequal to its tuple twin
    with pytest.raises(ValueError):
        Permutation([2, 1])


@pytest.mark.parametrize("images", [(True, 2), (2, True), (1.0, 2), (2, 1.0)])
def test_permutation_rejects_bool_and_float_images(images):
    # each equals an int image, so a sort alone would accept it
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation(images)


def _artin_compose_fold(b, max_letters=DEFAULT_MAX_LETTERS):
    """artin as one compose per letter, rebuilding every image: the reference."""
    e = FreeEndo.identity(b.strands)
    for letter in b.letters:
        e = compose(e, letter_endo(b.strands, letter))
        longest = max(len(w) for w in e.images)
        if longest > max_letters:
            raise WordTooLongError(
                f"generator image grew to {longest} letters (cap {max_letters}); "
                "pass a larger max_letters if this is intentional"
            )
    return e


@st.composite
def braid_words(draw):
    n = draw(st.integers(2, 5))
    pool = [k for i in range(1, n) for k in (i, -i)]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=14))))


def _outcome(fold, *args):
    try:
        return fold(*args)
    except WordTooLongError as exc:
        return ("refused", str(exc))


@given(braid_words(), st.one_of(st.integers(1, 40), st.just(DEFAULT_MAX_LETTERS)))
def test_artin_matches_compose_fold_reference(b, cap):
    # small caps are hit often: the refusal, its letter and its message must agree
    assert _outcome(artin, b, cap) == _outcome(_artin_compose_fold, b, cap)


def _respell(draw, n, letters):
    """Rewrite letters in place by one braid relation, where one applies at a drawn place.

    Far crossings commute, s_i s_j s_i = s_j s_i s_j for |i - j| = 1 (both
    signs alike), and a cancelling pair is removed or inserted; the word
    stays at most 12 letters long.
    """
    at = draw(st.integers(0, len(letters)))
    a, b, c = (letters[at:at + 3] + [None] * 3)[:3]
    if b is not None and abs(abs(a) - abs(b)) > 1:
        letters[at:at + 2] = [b, a]
    elif c == a and b is not None and abs(a - b) == 1 and a * b > 0:
        letters[at:at + 3] = [b, a, b]
    elif b is not None and a == -b:
        del letters[at:at + 2]
    elif len(letters) <= 10:
        k = draw(st.sampled_from([k for i in range(1, n) for k in (i, -i)]))
        letters[at:at] = [k, -k]


@st.composite
def braid_pairs(draw):
    """Two braid words on 2-6 strands with up to 12 letters: drawn apart, or the second respelled from the first."""
    n = draw(st.integers(2, 6))
    pool = [k for i in range(1, n) for k in (i, -i)]
    first = draw(st.lists(st.sampled_from(pool), max_size=12))
    if n > 2 and len(first) <= 9 and draw(st.booleans()):
        i = draw(st.integers(1, n - 2))
        sign = draw(st.sampled_from([1, -1]))
        at = draw(st.integers(0, len(first)))
        first[at:at] = [sign * i, sign * (i + 1), sign * i]
    if draw(st.booleans()):
        second = draw(st.lists(st.sampled_from(pool), max_size=12))
    else:
        second = list(first)
        for _ in range(draw(st.integers(1, 4))):
            _respell(draw, n, second)
    return BraidWord(n, tuple(first)), BraidWord(n, tuple(second))


def _artin_eq(b1, b2, max_letters):
    """braid_eq as its definition: equal letters, or equal Artin automorphisms, b1 folded first."""
    return b1.letters == b2.letters or artin(b1, max_letters) == artin(b2, max_letters)


@given(braid_pairs(), st.integers(1, 40))
@example((BraidWord(3, (1, 1)), BraidWord(3, (-1, 2))), 3)  # both refuse: at 5 letters, and at 7
def test_braid_eq_matches_the_equality_of_artin_automorphisms(pair, cap):
    # the same verdict, or the same refusal at the same letter of the same word with the same message
    b1, b2 = pair
    assert _outcome(braid_eq, b1, b2, cap) == _outcome(_artin_eq, b1, b2, cap)


@st.composite
def folds(draw):
    """A braid word on 2-9 strands with up to 40 letters, and the images artin or from_word folds."""
    n = draw(st.integers(2, 9))
    pool = [k for i in range(1, n) for k in (i, -i)]
    b = BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=40))))
    images = draw(st.sampled_from([[(k,) for k in range(1, n + 1)], [(n,)]]))
    return b, images


def _decoded_fold(b, images, max_letters):
    """_fold's text split into its images, each decoded into letters."""
    return [tuple(map(_LETTER.__getitem__, part)) for part in _fold(b, images, max_letters).split(_SEP)]


@given(folds(), st.one_of(st.integers(1, 40), st.just(DEFAULT_MAX_LETTERS)))
def test_string_fold_matches_the_tuple_fold(fold, cap):
    # every image equal, or the same refusal at the same letter with the same message
    b, images = fold
    assert _outcome(_decoded_fold, b, images, cap) == _outcome(tuple_fold, b, images, cap)


def _band_braid(rng, strands, lo, hi, length):
    """A random word of the given length in the crossings s_lo .. s_hi and their inverses."""
    pool = [k for i in range(lo, hi + 1) for k in (i, -i)]
    return BraidWord(strands, tuple(rng.choice(pool) for _ in range(length)))


@pytest.mark.parametrize("lo", [1, 124, 293])
@pytest.mark.parametrize("seed", range(3))
def test_string_fold_matches_the_tuple_fold_on_300_strands(seed, lo):
    # the code of x_k passes one byte from k = 127 on
    rng = random.Random(seed)
    n = 300
    b = _band_braid(rng, n, lo, lo + 6, 30)
    for images in ([(k,) for k in range(1, n + 1)], [(n,)], [(lo + 3,)]):
        assert _outcome(_decoded_fold, b, images, 60) == _outcome(tuple_fold, b, images, 60)


def _shifted(letters, t):
    return tuple(k + t if k > 0 else k - t for k in letters)


@pytest.mark.parametrize("seed", range(4))
def test_string_fold_at_the_top_of_the_coding_is_the_shifted_small_fold(seed):
    # the action of crossings s_{t+1}.. on x_{t+1}.. is that of s_1.. on x_1..
    # shifted by t, so a braid at the last strand count the coding takes
    # folds as its copy on 5 strands does, with codes up to sys.maxunicode
    rng = random.Random(seed)
    small = _band_braid(rng, 5, 1, 4, 14)
    t = _MAX_STRANDS - 5
    top = BraidWord(_MAX_STRANDS, _shifted(small.letters, t))
    for k in range(1, 6):
        want = _outcome(tuple_fold, small, [(k,)], 40)
        if want[0] != "refused":
            want = [_shifted(img, t) for img in want]
        assert _outcome(_decoded_fold, top, [(k + t,)], 40) == want


def test_fold_refuses_a_strand_count_past_the_coding():
    b = BraidWord(_MAX_STRANDS + 1, (1, 1))
    with pytest.raises(ValueError, match=f"at most {_MAX_STRANDS} strands, got {_MAX_STRANDS + 1}"):
        _fold(b, [(1,)], DEFAULT_MAX_LETTERS)
    with pytest.raises(ValueError, match=f"at most {_MAX_STRANDS} strands"):
        from_word(b)


@pytest.mark.parametrize("cap", [True, False, 0, -1, 2.5, 128.0, "5", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda w, cap: artin(w, cap),
        lambda w, cap: braid_eq(w, BraidWord(3, (1, 1)), cap),
        lambda w, cap: braid_eq(w, w, cap),
        lambda w, cap: from_word(w, cap),
    ],
    ids=["artin", "braid_eq", "braid_eq of equal letters", "from_word"],
)
def test_max_letters_must_be_a_positive_integer(call, cap):
    with pytest.raises(ValueError, match="max_letters must be a positive integer, got "):
        call(BraidWord(3, (2, 2)), cap)


def test_the_cap_reads_the_longest_image_not_the_total():
    # s1 sends x1 to 3 letters and x2 to 1: 4 letters in all, 3 in the longest
    b = BraidWord(2, (1,))
    assert [len(w) for w in artin(b, max_letters=3).images] == [3, 1]
    message = r"generator image grew to 3 letters \(cap 2\); pass a larger max_letters if this is intentional"
    with pytest.raises(WordTooLongError, match=message):
        artin(b, max_letters=2)
    with pytest.raises(WordTooLongError, match=message):
        _fold(b, [(2,), (1,)], 2)
