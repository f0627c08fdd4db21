import random

import pytest
from hypothesis import given, strategies as st

from braidforce import (
    FreeEndo,
    FreeWord,
    endo_power,
    format_word,
    parse_word,
)
from braidforce.freegroup import (
    abelianize,
    apply,
    compose,
    concat,
    reduce,
    word_sort_key,
)
from braidforce.freegroup import _conjugator_of, _reduce_letters
from braidforce.foxcalc import fox
from braidforce.braid import BraidWord, artin
from oracles import conjugator, cyclic_reduce, endo_matrix, endo_power_from_identity, gen, invert

RANK = 4


def naive_reduce(letters):
    """Quadratic oracle: rescan from scratch after every cancellation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def rand_letters(rng, rank=RANK, max_len=30):
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    return [rng.choice(pool) for _ in range(rng.randrange(max_len + 1))]


letters_strategy = st.lists(
    st.sampled_from([k for i in range(1, RANK + 1) for k in (i, -i)]), max_size=20
)


def test_reduce_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(500):
        raw = rand_letters(rng)
        assert reduce(RANK, raw).letters == naive_reduce(raw)


def test_reduce_absorbs_inserted_cancellations():
    rng = random.Random(12)
    for _ in range(1000):
        w = reduce(RANK, rand_letters(rng))
        pos = rng.randrange(len(w.letters) + 1)
        k = rng.choice([j for i in range(1, RANK + 1) for j in (i, -i)])
        corrupted = w.letters[:pos] + (k, -k) + w.letters[pos:]
        assert reduce(RANK, corrupted) == w


@st.composite
def reduced_parts(draw):
    """Lists of freely reduced parts; some undo the last j parts, so cancellation cascades across j joins."""
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        extra = draw(letters_strategy)
        if parts and draw(st.booleans()):
            j = draw(st.integers(1, len(parts)))
            tail = naive_reduce([k for part in parts[-j:] for k in part])
            extra = [-k for k in reversed(tail)] + extra
        parts.append(naive_reduce(extra))
    return parts


@given(reduced_parts())
def test_reduce_letters_of_reduced_parts_matches_naive_oracle(parts):
    assert _reduce_letters(parts) == naive_reduce([k for part in parts for k in part])


def test_reduce_letters_cascades_across_joins():
    assert _reduce_letters([(1, 2), (3,), (-3, -2), (-1, 4)]) == (4,)
    assert _reduce_letters([(1, 2, 3), (-3, -2, -1)]) == ()


@given(letters_strategy)
def test_reduce_idempotent(letters):
    w = reduce(RANK, letters)
    assert reduce(RANK, w.letters) == w


@given(letters_strategy)
def test_word_times_inverse_is_identity(letters):
    w = reduce(RANK, letters)
    assert concat(w, invert(w)) == FreeWord(RANK)
    assert invert(invert(w)) == w


@given(letters_strategy, letters_strategy)
def test_abelianize_is_additive(a, b):
    u = reduce(RANK, a)
    v = reduce(RANK, b)
    left = abelianize(concat(u, v))
    right = tuple(x + y for x, y in zip(abelianize(u), abelianize(v)))
    assert left == right


def test_word_validation():
    with pytest.raises(ValueError):
        FreeWord(0)
    with pytest.raises(ValueError):
        FreeWord(2, (3,))
    with pytest.raises(ValueError):
        FreeWord(2, (0,))
    with pytest.raises(ValueError):
        FreeWord(2, (1, -1))  # not freely reduced
    with pytest.raises(ValueError):
        gen(2, 5)


def test_word_rejects_a_list_of_letters():
    # a list would make the word unhashable and unequal to its tuple twin
    with pytest.raises(ValueError):
        FreeWord(2, [1, 2])


def test_word_rejects_bool_letters():
    with pytest.raises(ValueError):
        FreeWord(2, (True,))


def test_word_rejects_a_bool_rank():
    with pytest.raises(ValueError):
        FreeWord(True, (1,))


def test_endo_rejects_a_bool_or_non_integer_rank():
    with pytest.raises(ValueError):
        FreeEndo(True, (FreeWord(1, (1,)),))
    with pytest.raises(ValueError):
        FreeEndo(1.0, (FreeWord(1, (1,)),))


def test_endo_rejects_a_list_of_images():
    # a list made the endomorphism unhashable, so a twist context over it
    # failed in canonical_rep's cache with a TypeError
    with pytest.raises(ValueError):
        FreeEndo(2, [FreeWord(2, (2,)), FreeWord(2, (1,))])


def test_endo_rejects_images_that_are_not_words():
    with pytest.raises(ValueError):
        FreeEndo(1, ((1,),))


def test_gen_and_mul():
    x1 = gen(3, 1)
    x2 = gen(3, 2)
    assert concat(x1, x2).letters == (1, 2)
    assert concat(x1, invert(x1)) == FreeWord(3)
    assert len(concat(x1, x2)) == 2


def test_word_sort_key_orders_by_length_then_letters():
    words = [parse_word(s, 2) for s in ["x2", "x1 x2", "x1", "e", "x1^-1", "x2 x1"]]
    got = [format_word(w) for w in sorted(words, key=word_sort_key)]
    assert got == ["e", "x1", "x1^-1", "x2", "x1 x2", "x2 x1"]


def _pair_key(w):
    """word_sort_key with one (abs(k), sign) pair per letter: the reference."""
    letters = w.letters
    return (len(letters), tuple((abs(k), 0 if k > 0 else 1) for k in letters))


@given(st.lists(st.lists(st.sampled_from([k for i in range(1, 12) for k in (i, -i)]), max_size=6), max_size=12))
def test_word_sort_key_orders_as_the_pair_key(letter_lists):
    ws = [reduce(11, letters) for letters in letter_lists]
    assert sorted(ws, key=word_sort_key) == sorted(ws, key=_pair_key)


def test_cyclic_reduce_golden():
    w = parse_word("x1 x2 x3 x2^-1 x1^-1", 3)
    core, conj = cyclic_reduce(w)
    assert format_word(core) == "x3"
    assert format_word(conj) == "x1 x2"
    assert concat(conj, core, invert(conj)) == w


@given(letters_strategy, letters_strategy)
def test_cyclic_reduce_reassembles(a, b):
    w = concat(reduce(RANK, a), reduce(RANK, b))
    core, conj = cyclic_reduce(w)
    assert concat(conj, core, invert(conj)) == w
    # the core really is cyclically reduced
    assert not core.letters or core.letters[0] != -core.letters[-1]


def test_conjugator_finds_witness():
    rng = random.Random(13)
    for _ in range(200):
        u = reduce(RANK, rand_letters(rng, max_len=8))
        c = reduce(RANK, rand_letters(rng, max_len=6))
        v = concat(c, u, invert(c))
        d = conjugator(u, v)
        assert d is not None
        assert concat(d, u, invert(d)) == v


def test_conjugator_rejects_nonconjugates():
    assert conjugator(gen(2, 1), gen(2, 2)) is None
    assert conjugator(gen(2, 1), concat(gen(2, 1), gen(2, 1))) is None
    assert conjugator(gen(2, 1), invert(gen(2, 1))) is None


@given(st.integers(1, RANK), letters_strategy, st.sampled_from([0] + [k for i in range(1, RANK + 1) for k in (i, -i)]))
def test_conjugator_of_matches_the_general_conjugator(k, letters, center):
    # w is c * x_center * c^-1 for a random c, or the random word itself
    # when center is 0; the split gives the oracle's answer, None included
    c = reduce(RANK, letters)
    w = concat(c, gen(RANK, center), invert(c)) if center else c
    assert _conjugator_of(w, k) == conjugator(gen(RANK, k), w)


def test_apply_endo():
    e = FreeEndo(2, (parse_word("x1 x2", 2), parse_word("x2^-1", 2)))
    assert apply(e, parse_word("x1 x2^-1", 2)) == parse_word("x1 x2 x2", 2)
    assert apply(e, FreeWord(2)) == FreeWord(2)


def test_compose_applies_left_factor_first():
    swap = FreeEndo(2, (gen(2, 2), gen(2, 1)))
    square = FreeEndo(2, (parse_word("x1 x1", 2), gen(2, 2)))
    # swap then square: x1 -> x2 -> x2;  square then swap: x1 -> x1 x1 -> x2 x2
    assert apply(compose(swap, square), gen(2, 1)) == gen(2, 2)
    assert apply(compose(square, swap), gen(2, 1)) == parse_word("x2 x2", 2)


def test_compose_matches_pointwise_application():
    rng = random.Random(14)
    for _ in range(100):
        e1 = FreeEndo(3, tuple(reduce(3, rand_letters(rng, rank=3, max_len=4)) for _ in range(3)))
        e2 = FreeEndo(3, tuple(reduce(3, rand_letters(rng, rank=3, max_len=4)) for _ in range(3)))
        w = reduce(3, rand_letters(rng, rank=3, max_len=6))
        assert apply(compose(e1, e2), w) == apply(e2, apply(e1, w))


def test_endo_power():
    e = FreeEndo(2, (parse_word("x1 x2", 2), gen(2, 2)))
    assert endo_power(e, 0) == FreeEndo.identity(2)
    assert endo_power(e, 1) == e
    assert endo_power(e, 3) == compose(compose(e, e), e)
    with pytest.raises(ValueError):
        endo_power(e, -1)


@st.composite
def braid_automorphisms(draw):
    """The Artin action of a random braid on 2 to 4 strands."""
    n = draw(st.integers(2, 4))
    pool = [k for i in range(1, n) for k in (i, -i)]
    return artin(BraidWord(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=5)))))


@given(braid_automorphisms())
def test_endo_power_is_the_composite_from_the_identity(e):
    for m in range(5):
        assert endo_power(e, m) == endo_power_from_identity(e, m)
    assert endo_power(e, 1) == e


@pytest.mark.parametrize("m", [True, False, 1.5, 2.0, "2", None])
def test_endo_power_rejects_a_non_integer_count(m):
    # True and False compare equal to 1 and 0
    with pytest.raises(ValueError, match="iteration count m must be an integer"):
        endo_power(FreeEndo.identity(2), m)


def test_endo_matrix():
    e = FreeEndo(2, (parse_word("x1 x2 x1^-1", 2), parse_word("x1 x2 x2", 2)))
    # column j holds the abelianized image of x_j
    assert endo_matrix(e) == ((0, 1), (1, 2))


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def test_endo_matrix_multiplicative():
    rng = random.Random(15)
    for _ in range(50):
        e1 = FreeEndo(3, tuple(reduce(3, rand_letters(rng, rank=3, max_len=4)) for _ in range(3)))
        e2 = FreeEndo(3, tuple(reduce(3, rand_letters(rng, rank=3, max_len=4)) for _ in range(3)))
        assert endo_matrix(compose(e1, e2)) == _matmul(endo_matrix(e2), endo_matrix(e1))


def test_parse_word_grammars():
    assert parse_word("x1 x2^-1", 3).letters == (1, -2)
    assert parse_word("1 -2", 3).letters == (1, -2)
    assert parse_word("e", 3) == FreeWord(3)
    assert parse_word("  x1   x1^-1 ", 3) == FreeWord(3)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("x0", 3)
    with pytest.raises(ValueError):
        parse_word("x4", 3)
    with pytest.raises(ValueError):
        parse_word("y1", 3)
    with pytest.raises(ValueError):
        parse_word("x1^2", 3)


@given(letters_strategy)
def test_format_parse_roundtrip(letters):
    w = reduce(RANK, letters)
    assert parse_word(format_word(w), RANK) == w


@st.composite
def derived_words(draw):
    """Every word the package derives from random checked inputs of one rank."""
    rank = draw(st.integers(1, 4))
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    words = st.lists(st.sampled_from(pool), max_size=12).map(lambda ls: reduce(rank, ls))
    u, w = draw(words), draw(words)
    e = FreeEndo(rank, tuple(draw(words) for _ in range(rank)))
    braid_pool = [k for i in range(1, rank) for k in (i, -i)]
    braid_letters = st.lists(st.sampled_from(braid_pool), max_size=8) if braid_pool else st.just([])
    b = BraidWord(rank, tuple(draw(braid_letters)))
    out = [apply(e, w), concat(u, w), concat(w, invert(w)), invert(w)]
    out.append(_conjugator_of(concat(u, FreeWord(rank, (rank,)), invert(u)), rank))
    out += [t for j in range(1, rank + 1) for t, _ in fox(w, j).terms]
    out += artin(b, max_letters=10_000).images
    return out


@given(derived_words())
def test_derived_words_pass_the_public_check(words):
    for w in words:
        assert FreeWord(w.rank, w.letters) == w
