"""Braids on n+1 strands whose last strand returns to its position.

Such braids form a semidirect product: a free normal subgroup generated by
the pure loops of the last strand around each of the first n strands,
extended by the braid group on n strands included as the first n strands.
An element is stored in coordinates (base, tail): the inclusion of ``base``
times the image of the free word ``tail`` under

    phi(x_i) = A_{i,n+1}.

Conjugating phi(u) by an included base braid b gives phi of the image of u
under the Artin action of b^-1; this convention was fixed by exhaustively
checking both orientations of the identity

    section(b) * phi(u)  ==  phi(act(b, u)) * section(b)

on short words for 2 and 3 strands.  The test suite keeps that check in
``test_act_satisfies_defining_identity``, against ``act`` and
``section_word`` (the base read on one more strand) in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .braid import (
    DEFAULT_MAX_LETTERS,
    _LETTER,
    BraidWord,
    _braid,
    _fold,
    _generators,
    _pure_letters,
    braid_eq,
    format_braid,
    parse_braid,
)
from .freegroup import FreeWord, _check_positive, _conjugator_of, _word, format_word, parse_word, reduce


@dataclass(frozen=True)
class AugBraid:
    """Coordinates (base, tail) for a last-strand-fixing braid on n+1 strands."""

    base: BraidWord
    tail: FreeWord

    def __post_init__(self) -> None:
        if not (isinstance(self.base, BraidWord) and isinstance(self.tail, FreeWord)):
            raise ValueError(f"need a BraidWord and a FreeWord, got {type(self.base)}, {type(self.tail)}")
        if self.tail.rank != self.base.strands:
            raise ValueError(
                f"tail rank {self.tail.rank} must equal base strand count {self.base.strands}"
            )

    @property
    def punctures(self) -> int:
        return self.base.strands

    def __repr__(self) -> str:
        return f"AugBraid({format_aug(self)!r})"


@functools.cache
def _phi_spellings(n: int) -> tuple[tuple[int, ...], ...]:
    """The spelling of phi of every letter of F_n, indexed by the letter; see _phi_letters."""
    images = tuple(_pure_letters(k, n + 1) for k in range(1, n + 1))
    inverses = tuple(_pure_letters(k, n + 1, -1) for k in range(n, 0, -1))
    return ((),) + images + inverses


def _phi_letters(u: FreeWord) -> tuple[int, ...]:
    """The braid letters on rank+1 strands spelling phi(u), unchecked.

    Each letter's spelling is looked up in the table of u's rank n,
    `_phi_spellings(n)`, built on the first call at that rank and kept: the
    letters of phi(x_k) = A_{k,n+1} at index k and of its inverse at index
    -k.  The inverses are stored in reverse order so that negative indices
    wrap, as in FreeEndo._letter_images.
    """
    spelling = _phi_spellings(u.rank)
    letters: list[int] = []
    for k in u.letters:
        letters += spelling[k]
    return tuple(letters)


def to_word(a: AugBraid) -> BraidWord:
    """section(base) * phi(tail) as one braid word, unchecked: a checked base and the spelling of a checked tail."""
    return _braid(a.base.strands + 1, a.base.letters + _phi_letters(a.tail))


@functools.cache
def _phi_texts(n: int) -> tuple[str, ...]:
    """format_braid of every spelling in `_phi_spellings(n)`, indexed alike; index 0 is never read."""
    return tuple(format_braid(_braid(n + 1, letters)) for letters in _phi_spellings(n))


def _to_word_text(a: AugBraid) -> str:
    """format_braid(to_word(a)), without building the word.

    to_word spells the base's letters, then one `_phi_spellings` block per
    tail letter, unreduced, so its text is the base's kept text followed by
    the kept text of each tail letter's block; `e` only when both are empty.
    Forced braids share their base, so it is formatted once for all of them.
    """
    texts = _phi_texts(a.tail.rank)
    parts = [texts[k] for k in a.tail.letters]
    if a.base.letters:
        parts.insert(0, format_braid(a.base))
    return " ".join(parts) or "e"


def from_word(w: BraidWord, max_letters: int = DEFAULT_MAX_LETTERS) -> AugBraid:
    """Recover semidirect coordinates from a braid word fixing the last strand.

    The base is read off by deleting the last strand.  The pure part
    section(base)^-1 * w acts on x_{n+1} by conjugation, and so does w
    itself, to the same image: the section uses only s_1 ... s_{n-1}, which
    fix x_{n+1}.  So only x_{n+1} is folded through w, under the cap, and
    deleting every x_{n+1} letter from its conjugating word (the action
    threads the base point loop through it) leaves exactly the tail.

    The result is verified by braid_eq before it is returned.  When
    to_word(result) spells w letter for letter, w = section(base) * phi(tail)
    holds as words.  Otherwise both words are folded in full and their Artin
    actions must agree, which by faithfulness proves it in the group.
    """
    if w.strands < 2:
        raise ValueError("need at least 2 strands to split off the last one")
    _check_positive(max_letters, "max_letters")
    if len(w.letters) > max_letters:
        raise ValueError(f"input word has {len(w.letters)} letters (cap {max_letters})")
    n = w.strands - 1
    base = _delete_last_strand(w)
    image = tuple(map(_LETTER.__getitem__, _fold(w, _generators(w, n + 1), max_letters)))
    conj = _conjugator_of(_word(n + 1, image), n + 1)
    if conj is None:
        raise AssertionError("pure part does not conjugate the last-strand generator")
    tail = reduce(n, (k for k in conj.letters if abs(k) != n + 1))
    result = AugBraid(base, tail)
    back = to_word(result)
    if not braid_eq(w, back, max_letters):
        raise AssertionError("decomposition failed verification")
    return result


def _delete_last_strand(w: BraidWord) -> BraidWord:
    # walk the distinguished strand: crossings touching it vanish, crossings
    # strictly above its current position shift down one slot; it must end
    # where it started
    pos = w.strands
    out: list[int] = []
    for letter in w.letters:
        i = abs(letter)
        if i == pos:
            pos = i + 1
        elif i + 1 == pos:
            pos = i
        elif i > pos:
            out.append(letter - 1 if letter > 0 else letter + 1)
        else:
            out.append(letter)
    if pos != w.strands:
        raise ValueError("braid does not fix the last strand")
    return BraidWord(w.strands - 1, tuple(out))


# ---------------------------------------------------------------------------
# text form: `(s1 s2 ; x1 x2^-1)`


def parse_aug(text: str, n: int) -> AugBraid:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("augmented braid literal must be parenthesized")
    body = s[1:-1]
    if body.count(";") != 1:
        raise ValueError("expected exactly one ';' separating base and tail")
    braid_part, word_part = body.split(";")
    return AugBraid(parse_braid(braid_part, n), parse_word(word_part, n))


def format_aug(a: AugBraid) -> str:
    return f"({format_braid(a.base)} ; {format_word(a.tail)})"
