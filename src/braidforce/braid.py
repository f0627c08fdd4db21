"""Braid words, strand permutations, and the Artin action on the free group.

A braid word on n strands is a sequence of signed generator indices: the
letter ``i`` (1 <= i <= n-1) is the positive crossing of strands i and i+1,
``-i`` its inverse.  Words are kept verbatim; equality of the group elements
they spell is decided through the faithful Artin representation.

The Artin action of a single positive crossing is

    x_i |-> x_i x_{i+1} x_i^-1,    x_{i+1} |-> x_i,

with all other generators fixed, and braid words act diagrammatically
(first letter acts first).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .freegroup import FreeEndo, FreeWord, _format_letters, _is_int, _parse_letters, _reduce_letters, _word

DEFAULT_MAX_LETTERS = 128


class WordTooLongError(ValueError):
    """Raised when a braid word exceeds the image-blowup safety cap."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not _is_int(self.strands) or self.strands < 1:
            raise ValueError(f"strand count must be a positive integer, got {self.strands!r}")
        if not isinstance(self.letters, tuple):
            raise ValueError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for k in self.letters:
            if not _is_int(k) or k == 0 or abs(k) > self.strands - 1:
                raise ValueError(
                    f"letter {k!r} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {format_braid(self)!r})"


def _braid(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """A BraidWord built without checks, for letters already known to be in range for strands."""
    b = object.__new__(BraidWord)
    object.__setattr__(b, "strands", strands)
    object.__setattr__(b, "letters", letters)
    return b


def power(b: BraidWord, m: int) -> BraidWord:
    """The word b^m for m >= 0; m = 0 gives the empty word."""
    if not _is_int(m):
        raise ValueError(f"exponent m must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"exponent m must be >= 0, got {m}")
    return BraidWord(b.strands, b.letters * m)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.images, tuple):
            raise ValueError(f"images must be a tuple, got {type(self.images).__name__}")
        n = len(self.images)
        # a bool or float image compares equal to an int: counted as 0, it is never in 1..n
        if sorted([k if _is_int(k) else 0 for k in self.images]) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(k for k, img in enumerate(self.images, 1) if img == k)


def perm(b: BraidWord) -> Permutation:
    """Underlying strand permutation: position of strand k after the braid."""
    pos = list(range(b.strands + 1))  # pos[k] = current position of strand k
    for letter in b.letters:
        i = abs(letter)
        for k in range(1, b.strands + 1):
            if pos[k] == i:
                pos[k] = i + 1
            elif pos[k] == i + 1:
                pos[k] = i
    return Permutation(tuple(pos[1:]))


def _pure_letters(i: int, j: int, sign: int = 1) -> tuple[int, ...]:
    """Letters of A_ij^sign: only the middle s_i^2 changes sign under inversion."""
    return (*range(j - 1, i, -1), sign * i, sign * i, *range(-i - 1, -j, -1))


@functools.lru_cache(maxsize=None)
def _letter_endo(strands: int, letter: int) -> FreeEndo:
    images = [FreeWord(strands, (k,)) for k in range(1, strands + 1)]
    i = abs(letter)
    if letter > 0:
        images[i - 1] = FreeWord(strands, (i, i + 1, -i))
        images[i] = FreeWord(strands, (i,))
    else:
        images[i - 1] = FreeWord(strands, (i + 1,))
        images[i] = FreeWord(strands, (-(i + 1), i, i + 1))
    return FreeEndo(strands, tuple(images))


def _fold(b: BraidWord, images: list[tuple[int, ...]], max_letters: int) -> list[tuple[int, ...]]:
    """Fold reduced letter tuples of F_strands through b's crossings, first letter first.

    Each crossing substitutes its per-letter table into every image.  Image
    lengths can grow exponentially in the word length, so the fold aborts
    once any image exceeds max_letters.  This is the package's one capped
    fold: callers pass only the images they read.
    """
    n = b.strands
    for letter in b.letters:
        table = _letter_endo(n, letter)._letter_images
        images = [_reduce_letters(map(table.__getitem__, img)) for img in images]
        longest = max(map(len, images))
        if longest > max_letters:
            raise WordTooLongError(
                f"generator image grew to {longest} letters (cap {max_letters}); "
                "pass a larger max_letters if this is intentional"
            )
    return images


def artin(b: BraidWord, max_letters: int = DEFAULT_MAX_LETTERS) -> FreeEndo:
    """The Artin automorphism of F_strands induced by the braid word.

    Every generator image is folded by _fold, which aborts once any image
    exceeds max_letters; raise the cap explicitly for long but tame words.
    The images become words once, at the end.
    """
    n = b.strands
    images = _fold(b, [(k,) for k in range(1, n + 1)], max_letters)
    return FreeEndo(n, tuple(_word(n, img) for img in images))


def braid_eq(b1: BraidWord, b2: BraidWord, max_letters: int = DEFAULT_MAX_LETTERS) -> bool:
    """Word-problem test through faithfulness of the Artin representation.

    Words with the same letters are equal without a fold, so no cap applies.
    """
    if b1.strands != b2.strands:
        raise ValueError("strand count mismatch")
    if b1.letters == b2.letters:
        return True
    return artin(b1, max_letters) == artin(b2, max_letters)


# ---------------------------------------------------------------------------
# text form: `s1 s2^-1` etc., `e` for the trivial braid


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a braid word.  Tokens: `s<k>`, `s<k>^-1`, nonzero signed integers, `e`."""
    return BraidWord(strands, _parse_letters(text, "s"))


def format_braid(b: BraidWord) -> str:
    return _format_letters(b.letters, "s")
