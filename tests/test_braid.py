import random

import pytest
from hypothesis import given, strategies as st

from braidforce import (
    BraidWord,
    Permutation,
    WordTooLongError,
    artin,
    braid_eq,
    format_braid,
    format_word,
    parse_braid,
    parse_word,
    perm,
    power,
)
from braidforce.freegroup import FreeEndo, compose
from braidforce.braid import DEFAULT_MAX_LETTERS, _letter_endo
from oracles import artin_apply, braid_invert, braid_mul, fixes_last_strand, gen, pure_gen


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
        e = compose(e, _letter_endo(b.strands, letter))
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


def _artin_outcome(fold, b, cap):
    try:
        return fold(b, cap)
    except WordTooLongError as exc:
        return ("refused", str(exc))


@given(braid_words(), st.one_of(st.integers(1, 40), st.just(DEFAULT_MAX_LETTERS)))
def test_artin_matches_compose_fold_reference(b, cap):
    # small caps are hit often: the refusal, its letter and its message must agree
    assert _artin_outcome(artin, b, cap) == _artin_outcome(_artin_compose_fold, b, cap)
