"""One word grammar for free words and braid words, checked against the two parsers it replaced."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from braidforce import BraidWord, FreeWord, format_braid, format_word, parse_braid, parse_word
from braidforce.freegroup import _format_letters, reduce

N = 12  # rank and strand count: room for the letter 10 in both kinds of word

# ---------------------------------------------------------------------------
# reference copies of the two parsers, kept verbatim

_TOKEN = re.compile(r"^(?:e|[+-]?\d+|x(\d+)(\^-1)?)$")


def ref_parse_word(text: str, rank: int) -> FreeWord:
    """Parse a free word.  Tokens: `x<k>`, `x<k>^-1`, signed integers, `e`."""
    letters: list[int] = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad free-group token {tok!r}")
        if tok == "e":
            continue
        if tok.startswith("x"):
            k = int(m.group(1))
            if k < 1:
                raise ValueError(f"bad generator index in {tok!r}")
            letters.append(-k if m.group(2) else k)
        else:
            k = int(tok)
            if k == 0:
                raise ValueError("0 is not a valid letter")
            letters.append(k)
    return reduce(rank, letters)


def ref_parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a braid word.  Tokens: `s<k>`, `s<k>^-1`, signed integers, `e`."""
    letters: list[int] = []
    for tok in text.split():
        if tok == "e":
            continue
        if tok.startswith("s"):
            body = tok[1:]
            neg = body.endswith("^-1")
            if neg:
                body = body[:-3]
            if not body.isdigit() or int(body) < 1:
                raise ValueError(f"bad braid token {tok!r}")
            letters.append(-int(body) if neg else int(body))
        else:
            try:
                k = int(tok)
            except ValueError:
                raise ValueError(f"bad braid token {tok!r}") from None
            if k == 0:
                raise ValueError("0 is not a valid braid letter")
            letters.append(k)
    return BraidWord(strands, tuple(letters))


def ref_format_letters(letters: tuple[int, ...], letter: str) -> str:
    """The text form of signed letters over the generator letter; `e` when there are none."""
    return " ".join(f"{letter}{k}" if k > 0 else f"{letter}{-k}^-1" for k in letters) or "e"


# ---------------------------------------------------------------------------

PIECES = ["x", "s", "0", "1", "2", "9", "10", "^-1", "^", "+", "-", "_", "e", "٣", "²"]
# any run of pieces, and runs shaped like a token: a generator letter or a
# sign, a body, and an optional inverse mark
tokens = st.one_of(
    st.lists(st.sampled_from(PIECES), min_size=1, max_size=4).map("".join),
    st.tuples(
        st.sampled_from(["x", "s", "+", "-", ""]),
        st.sampled_from(PIECES),
        st.sampled_from(["", "^-1"]),
    ).map("".join),
)
texts = st.lists(tokens, max_size=4).map(" ".join)


def outcome(parse, text):
    try:
        return parse(text, N).letters
    except ValueError:
        return ValueError


def is_underscore_integer(tok: str) -> bool:
    """A token that int() reads only because it allows digit-group underscores."""
    try:
        int(tok)
    except ValueError:
        return False
    return "_" in tok


@settings(max_examples=400)
@given(texts)
def test_parse_word_matches_reference(text):
    assert outcome(parse_word, text) == outcome(ref_parse_word, text)


@settings(max_examples=400)
@given(texts)
def test_parse_braid_matches_reference(text):
    expected = outcome(ref_parse_braid, text)
    if any(is_underscore_integer(tok) for tok in text.split()):
        expected = ValueError  # the one change: braid words follow the free-word grammar
    assert outcome(parse_braid, text) == expected


@pytest.mark.parametrize("tok", ["x0", "s0", "0", "x1^2", "1_0"])
@pytest.mark.parametrize("parse", [parse_word, parse_braid])
def test_bad_tokens_are_rejected_by_name(parse, tok):
    with pytest.raises(ValueError, match=re.escape(repr(tok))):
        parse(f"e {tok}", N)


def test_underscore_integers_left_the_braid_grammar():
    assert ref_parse_braid("1_0", N).letters == (10,)
    with pytest.raises(ValueError):
        ref_parse_word("1_0", N)
    with pytest.raises(ValueError, match="'1_0'"):
        parse_braid("1_0", N)


def test_generator_letters_do_not_mix():
    with pytest.raises(ValueError, match="'s1'"):
        parse_word("x1 s1", N)
    with pytest.raises(ValueError, match="'x1'"):
        parse_braid("s1 x1", N)


def test_both_kinds_share_signs_and_the_identity():
    assert parse_word("x2^-1 -3 +1 x٣ e", N).letters == (-2, -3, 1, 3)
    assert parse_braid("s2^-1 -3 +1 s٣ e", N).letters == (-2, -3, 1, 3)
    assert format_word(parse_word("x2^-1 x10", N)) == "x2^-1 x10"
    assert format_braid(parse_braid("s2^-1 s10", N)) == "s2^-1 s10"
    assert format_word(parse_word("e", N)) == format_braid(parse_braid("", N)) == "e"


signed_letters = st.lists(st.integers(-N, N).filter(bool), max_size=30).map(tuple)


@settings(max_examples=400)
@given(signed_letters, st.sampled_from(["x", "s"]))
@example((), "x")
@example((), "s")
def test_format_letters_matches_reference(letters, letter):
    assert _format_letters(letters, letter) == ref_format_letters(letters, letter)


@given(signed_letters)
def test_format_then_parse_round_trips(letters):
    w = reduce(N, letters)
    assert parse_word(format_word(w), N) == w
    b = BraidWord(N, tuple(k for k in letters if abs(k) < N))
    assert parse_braid(format_braid(b), N) == b
