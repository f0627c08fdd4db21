"""Free group words and endomorphisms with exact integer-letter arithmetic.

A word in the free group F_n is stored as a tuple of nonzero integers: the
letter ``k`` (1 <= k <= n) denotes the generator x_k and ``-k`` denotes its
inverse.  Every ``FreeWord`` is freely reduced by construction, so tuple
equality is group-element equality.

Validation happens at the boundary.  The public constructors (``FreeWord``,
``reduce``, ``parse_word``) check the rank, every letter and every adjacent
pair.  Words derived inside the package from already-checked words
of the same rank, by operations that keep the letters in range and freely
reduced (``concat``, ``invert``, ``apply``, ``_conjugator_of``, the
Artin images, Fox prefixes, orbit witnesses), are built unchecked through
the private ``_word``.

Endomorphisms are given by their generator images.  Composition is
diagrammatic throughout this package: ``compose(e1, e2)`` applies ``e1``
first, then ``e2``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


def _reduce_letters(parts) -> tuple[int, ...]:
    """Free reduction of the concatenation of the letter tuples in parts.

    Every part must itself be freely reduced.  Then letters can only cancel
    where a part meets the reduced prefix: matching letters are popped
    there, and the rest of the part is appended whole.  Most joins cancel
    nothing, so the first letter is tested before the cancelling loop.
    """
    out: list[int] = []
    for part in parts:
        if out and part and out[-1] == -part[0]:
            out.pop()
            i, n = 1, len(part)
            while i < n and out and out[-1] == -part[i]:
                out.pop()
                i += 1
            out += part[i:]
        else:
            out += part
    return tuple(out)


def _letters_key(letters: tuple[int, ...]):
    """word_sort_key on a raw letter tuple.

    Each letter is coded by one integer, x_k as 2k and x_k^-1 as 2k + 1, so
    the codes order as (k, sign) pairs would.  The codes are a list, so a
    key cannot be hashed.
    """
    return (len(letters), [k + k if k > 0 else 1 - k - k for k in letters])


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in F_rank.

    >>> w = reduce(2, [1, 2, -2, -1, 1])
    >>> w.letters
    (1,)
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_positive(self.rank, "rank")
        if not isinstance(self.letters, tuple):
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for k in self.letters:
            if not _is_int(k) or k == 0 or abs(k) > self.rank:
                raise ValueError(f"letter {k!r} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced; use reduce()")

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {format_word(self)!r})"

    @cached_property
    def _text(self) -> str:
        return _format_letters(self.letters, "x")


def _is_int(x) -> bool:
    """An int that is not a bool: the only type a rank, strand count, letter or bound may have."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_positive(x, name: str) -> None:
    """ValueError unless x is an int (not a bool) of at least 1: the one check of a rank, strand count or cap."""
    if not _is_int(x) or x < 1:
        raise ValueError(f"{name} must be a positive integer, got {x!r}")


def _word(rank: int, letters: tuple[int, ...]) -> FreeWord:
    """A FreeWord built without checks.

    Only for letters derived from checked words of the same rank by an
    operation that keeps them in range and freely reduced.
    """
    w = object.__new__(FreeWord)
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "letters", letters)
    return w


class _Memo(dict):
    """A table whose value for a key is built by one function on the key's first lookup and kept.

    Hot loops read it once per letter, and a dict subscript costs about half a functools.cache call.
    """

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def reduce(rank: int, letters) -> FreeWord:
    """Freely reduce a letter sequence into a FreeWord.

    The letters need not be reduced: each one enters the reduction as a
    one-letter part, which is trivially reduced.
    """
    return FreeWord(rank, _reduce_letters((k,) for k in letters))


def concat(*words: FreeWord) -> FreeWord:
    """Product of words, freely reduced."""
    if not words:
        raise ValueError("concat needs at least one word")
    rank = words[0].rank
    for w in words:
        if w.rank != rank:
            raise ValueError(f"rank mismatch: {w.rank} != {rank}")
    return _word(rank, _reduce_letters(w.letters for w in words))


def invert(w: FreeWord) -> FreeWord:
    return _word(w.rank, tuple(-k for k in reversed(w.letters)))


def _conjugator_of(w: FreeWord, k: int) -> FreeWord | None:
    """The word c with w = c * x_k * c^-1, or None when w is no conjugate of x_k.

    In a reduced conjugate of one letter nothing cancels, so w spells c,
    then x_k, then c^-1: c is the first half of w.  The comparison covers
    every letter of w, so a word that is returned is verified.
    """
    h = len(w.letters) // 2
    c = w.letters[:h]
    if w.letters[h:] != (k,) + tuple(-j for j in reversed(c)):
        return None
    return _word(w.rank, c)


def abelianize(w: FreeWord) -> tuple[int, ...]:
    """Exponent-sum vector of w, one slot per generator."""
    sums = [0] * w.rank
    for k in w.letters:
        sums[abs(k) - 1] += 1 if k > 0 else -1
    return tuple(sums)


def word_sort_key(w: FreeWord):
    """Deterministic order: by length, then letter-wise with x_k before x_k^-1."""
    return _letters_key(w.letters)


# ---------------------------------------------------------------------------
# endomorphisms


@dataclass(frozen=True)
class FreeEndo:
    """An endomorphism of F_rank given by its generator images."""

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        _check_positive(self.rank, "rank")
        if not isinstance(self.images, tuple) or len(self.images) != self.rank:
            raise ValueError(f"expected a tuple of {self.rank} images, got {self.images!r}")
        for img in self.images:
            if not isinstance(img, FreeWord) or img.rank != self.rank:
                raise ValueError(f"images must be FreeWords of rank {self.rank}, got {img!r}")

    @classmethod
    def identity(cls, rank: int) -> FreeEndo:
        return cls(rank, tuple(FreeWord(rank, (i,)) for i in range(1, rank + 1)))

    @cached_property
    def _letter_images(self) -> tuple[tuple[int, ...], ...]:
        """Image letters of every letter k, at index k: inverses sit at the negative indices."""
        inverses = tuple(tuple(-j for j in reversed(img.letters)) for img in reversed(self.images))
        return ((),) + tuple(img.letters for img in self.images) + inverses


def apply(e: FreeEndo, w: FreeWord) -> FreeWord:
    """Image of w under e, freely reduced."""
    if w.rank != e.rank:
        raise ValueError("rank mismatch")
    return _word(e.rank, _reduce_letters(map(e._letter_images.__getitem__, w.letters)))


def compose(e1: FreeEndo, e2: FreeEndo) -> FreeEndo:
    """Diagrammatic composition: e1 acts first, then e2."""
    if e1.rank != e2.rank:
        raise ValueError("rank mismatch")
    return FreeEndo(e1.rank, tuple(apply(e2, img) for img in e1.images))


def endo_power(e: FreeEndo, m: int) -> FreeEndo:
    """m-fold composite of e with itself; m = 0 gives the identity.

    For m >= 1 the product starts from e itself, so it takes m - 1
    compositions and no identity is built: endo_power(e, 1) is e.
    """
    if not _is_int(m):
        raise ValueError(f"iteration count m must be an integer, got {m!r}")
    if m < 0:
        raise ValueError("endomorphisms are not invertible in general; m must be >= 0")
    if not m:
        return FreeEndo.identity(e.rank)
    acc = e
    for _ in range(m - 1):
        acc = compose(acc, e)
    return acc


# ---------------------------------------------------------------------------
# text form, shared with braid words: `x2 x3^-1` over the generator letter x
# (`s2 s3^-1` over s), nonzero signed integers, `e` for the identity

_WORD_TOKEN = re.compile(r"([+-]?\d+)|([a-z])(\d+)(\^-1)?")


def _parse_letters(text: str, letter: str) -> tuple[int, ...]:
    """The signed letters of a word written over the generator letter, unreduced."""
    letters: list[int] = []
    for tok in text.split():
        if tok == "e":
            continue
        m = _WORD_TOKEN.fullmatch(tok)
        if m is None or m[2] not in (None, letter) or not (k := int(m[1] or m[3])):
            raise ValueError(f"bad token {tok!r}: expected e, a nonzero integer, {letter}<k> or {letter}<k>^-1")
        letters.append(-k if m[4] else k)
    return tuple(letters)


_TOKENS = {g: _Memo(lambda k, g=g: f"{g}{k}" if k > 0 else f"{g}{-k}^-1") for g in "xs"}


def _format_letters(letters: tuple[int, ...], letter: str) -> str:
    """The text form of signed letters over the generator letter `x` or `s`; `e` when there are none.

    Each token, `x<k>` or `x<k>^-1`, comes from that generator letter's `_Memo` in `_TOKENS`.
    """
    return " ".join(map(_TOKENS[letter].__getitem__, letters)) or "e"


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse a free word.  Tokens: `x<k>`, `x<k>^-1`, nonzero signed integers, `e`."""
    return reduce(rank, _parse_letters(text, "x"))


def format_word(w: FreeWord) -> str:
    """The text form of w, e.g. `x1 x2^-1` or `e`: built by w's first call and kept on w, which is immutable."""
    return w._text
