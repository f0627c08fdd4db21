import random

import pytest

from braidforce import (
    FreeWord,
    GroupRingElem,
    artin,
    endo_power,
    parse_braid,
    parse_word,
    raw_trace,
)
from braidforce.freegroup import concat, reduce
from braidforce import foxcalc
from braidforce.foxcalc import fox
from braidforce.freegroup import word_sort_key
from oracles import augmentation, format_ring, gen, gr_left_mul, gr_right_mul, invert


def rand_word(rng, rank=3, max_len=10):
    pool = [k for i in range(1, rank + 1) for k in (i, -i)]
    return reduce(rank, [rng.choice(pool) for _ in range(rng.randrange(max_len + 1))])


def ring(rank, items):
    return GroupRingElem.from_terms(rank, items)


def test_ring_normalization():
    x1 = gen(2, 1)
    e = FreeWord(2)
    a = ring(2, [(x1, 1), (e, 2), (x1, 3)])
    assert a.terms == ((e, 2), (x1, 4))
    assert ring(2, [(x1, 0)]).terms == ()


def test_ring_translation():
    x1, x2 = gen(2, 1), gen(2, 2)
    a = ring(2, [(x1, 1), (FreeWord(2), -1)])
    assert gr_left_mul(x2, a) == ring(2, [(concat(x2, x1), 1), (x2, -1)])
    assert gr_right_mul(a, x2) == ring(2, [(concat(x1, x2), 1), (x2, -1)])
    assert augmentation(a) == 0
    assert augmentation(gr_left_mul(x2, a)) == 0


def test_fox_generator_rules():
    x2 = gen(3, 2)
    assert fox(x2, 2) == ring(3, [(FreeWord(3), 1)])
    assert fox(x2, 1) == ring(3, [])
    assert fox(invert(x2), 2) == ring(3, [(invert(x2), -1)])
    assert fox(FreeWord(3), 1) == ring(3, [])


def test_fox_product_rule():
    rng = random.Random(31)
    for _ in range(150):
        u = rand_word(rng)
        v = rand_word(rng)
        for j in (1, 2, 3):
            assert fox(concat(u, v), j) == ring(3, fox(u, j).terms + gr_left_mul(u, fox(v, j)).terms)


def test_fox_inverse_formula():
    rng = random.Random(32)
    for _ in range(100):
        w = rand_word(rng)
        for j in (1, 2, 3):
            assert fox(invert(w), j) == ring(3, [(t, -c) for t, c in gr_left_mul(invert(w), fox(w, j)).terms])


def test_fundamental_identity():
    rng = random.Random(33)
    for _ in range(150):
        w = rand_word(rng)
        terms = []  # sum over j of d(w)/dx_j * (x_j - 1)
        for j in (1, 2, 3):
            d = fox(w, j)
            terms += gr_right_mul(d, gen(3, j)).terms
            terms += ((t, -c) for t, c in d.terms)
        assert ring(3, terms) == ring(3, [(w, 1), (FreeWord(3), -1)])


def test_fox_augmentation_counts_exponent():
    rng = random.Random(34)
    for _ in range(100):
        w = rand_word(rng)
        for j in (1, 2, 3):
            exponent = sum(1 if k == j else -1 if k == -j else 0 for k in w.letters)
            assert augmentation(fox(w, j)) == exponent


def test_jacobian_diagonal_golden_five_strand():
    e = artin(parse_braid("s1 s2 s3^-1 s4^-1", 5))
    diag = [fox(e.images[i - 1], i) for i in range(1, 6)]
    w1 = parse_word("x1 x2 x5 x2^-1 x1^-1", 5)
    assert diag[0] == ring(5, [(FreeWord(5), 1), (w1, -1)])
    assert diag[1] == ring(5, [])
    assert diag[2] == ring(5, [])
    assert diag[3] == ring(5, [])
    assert diag[4] == ring(5, [(parse_word("x5^-1", 5), -1), (parse_word("x5^-1 x4", 5), 1)])


def test_raw_trace_golden_five_strand():
    e = artin(parse_braid("s1 s2 s3^-1 s4^-1", 5))
    t = raw_trace(e)
    assert t == ring(
        5,
        [
            (parse_word("x1 x2 x5 x2^-1 x1^-1", 5), 1),
            (parse_word("x5^-1", 5), 1),
            (parse_word("x5^-1 x4", 5), -1),
        ],
    )
    assert format_ring(t) == "+1*[x5^-1] -1*[x5^-1 x4] +1*[x1 x2 x5 x2^-1 x1^-1]"


def test_raw_trace_trivial_and_sigma1():
    from braidforce import BraidWord

    assert raw_trace(artin(BraidWord(2))) == ring(2, [(FreeWord(2), -1)])
    assert raw_trace(artin(BraidWord(3))) == ring(3, [(FreeWord(3), -2)])
    assert raw_trace(artin(parse_braid("s1", 2))) == ring(2, [(parse_word("x1 x2 x1^-1", 2), 1)])


def test_raw_trace_augmentation_is_one_minus_fixed_count():
    # aug(1 - sum of diagonals) = 1 - sum over i of exponent of x_i in image of x_i
    from braidforce import BraidWord, perm

    rng = random.Random(35)
    for _ in range(60):
        pool = [k for i in range(1, 4) for k in (i, -i)]
        b = BraidWord(4, tuple(rng.choice(pool) for _ in range(rng.randrange(6))))
        fixed = len(perm(b).fixed_points())
        assert augmentation(raw_trace(artin(b))) == 1 - fixed


def test_raw_trace_is_one_minus_diagonal_sum():
    # reference: 1 and every diagonal entry fox(e.images[i-1], i) negated, collected by from_terms
    from braidforce import BraidWord

    rng = random.Random(36)
    for _ in range(40):
        n = rng.randrange(2, 5)
        pool = [k for i in range(1, n) for k in (i, -i)]
        e = artin(BraidWord(n, tuple(rng.choice(pool) for _ in range(rng.randrange(7)))))
        terms = [(FreeWord(n), 1)]
        for i in range(1, n + 1):
            terms += ((t, -c) for t, c in fox(e.images[i - 1], i).terms)
        assert raw_trace(e) == ring(n, terms)


def test_raw_trace_keys_each_collected_term_once(monkeypatch):
    # the diagonal is collected in one pass: one sort key per term of the result
    e = endo_power(artin(parse_braid("s1 s2^-1", 3)), 3)
    expected = raw_trace(e)
    calls = []
    monkeypatch.setattr(foxcalc, "word_sort_key", lambda w: calls.append(w) or word_sort_key(w))
    assert raw_trace(e) == expected
    assert len(calls) == len(expected.terms) > 1


def test_format_ring():
    assert format_ring(ring(2, [])) == "0"
    assert format_ring(ring(2, [(FreeWord(2), 1)])) == "+1*[e]"
    a = ring(2, [(gen(2, 1), -2), (FreeWord(2), 1)])
    assert format_ring(a) == "+1*[e] -2*[x1]"


def test_ring_validation():
    with pytest.raises(ValueError):
        ring(2, [(gen(3, 1), 1)])  # rank mismatch
    with pytest.raises(ValueError):
        fox(gen(2, 1), 3)


@pytest.mark.parametrize("j", [True, False, 2.0, "1", None, 0, 3])
def test_fox_rejects_an_index_that_is_not_a_generator(j):
    # True and 2.0 used to pass as x1 and x2
    with pytest.raises(ValueError, match="generator index"):
        fox(parse_word("x1 x2", 2), j)


def test_direct_construction_checks_order_and_duplicates():
    # from_terms sorts and collects, so it skips the order check; building the
    # element directly keeps it
    x1, x2 = gen(2, 1), gen(2, 2)
    with pytest.raises(ValueError):
        GroupRingElem(2, ((x2, 1), (x1, 1)))  # unsorted
    with pytest.raises(ValueError):
        GroupRingElem(2, ((x1, 1), (x1, 2)))  # duplicate word
    with pytest.raises(ValueError):
        GroupRingElem(2, ((x1, 1), (gen(3, 1), 1)))  # same key, other rank
    with pytest.raises(ValueError):
        GroupRingElem(2, ((x1, 0),))
    with pytest.raises(ValueError):
        ring(2, [(x1, 1.5)])  # from_terms still checks coefficients
    assert GroupRingElem(2, ((x1, 1), (x2, -1))) == ring(2, [(x2, -1), (x1, 1)])


@pytest.mark.parametrize("rank", [0, -1, True, "a", 2.0])
def test_ring_rejects_a_rank_that_is_not_a_positive_int(rank):
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        GroupRingElem(rank, ())
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        ring(rank, [])


def test_ring_rejects_a_list_of_terms():
    # a list would make the element unhashable and unequal to its tuple twin
    with pytest.raises(ValueError, match="terms must be a tuple"):
        GroupRingElem(2, [(gen(2, 1), 1)])


@pytest.mark.parametrize("c", [True, False, 1.0])
def test_ring_rejects_a_coefficient_that_is_not_an_int(c):
    x1 = gen(2, 1)
    with pytest.raises(ValueError, match="coefficient"):
        GroupRingElem(2, ((x1, c),))
    # summed, a bool becomes an int: from_terms checks each coefficient first
    with pytest.raises(ValueError, match="coefficient"):
        ring(2, [(x1, c)])
    with pytest.raises(ValueError, match="coefficient"):
        ring(2, [(x1, 1), (x1, c)])


@pytest.mark.parametrize("word", ["x1", (1,), None])
def test_ring_rejects_a_term_that_is_not_a_free_word(word):
    with pytest.raises(ValueError, match="FreeWords of rank 2"):
        GroupRingElem(2, ((word, 1),))
    with pytest.raises(ValueError, match="FreeWords of rank 2"):
        ring(2, [(word, 1)])
