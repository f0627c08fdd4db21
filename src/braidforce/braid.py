"""Braid words, strand permutations, and the Artin action on the free group.

A braid word on n strands is a sequence of signed generator indices: the
letter ``i`` (1 <= i <= n-1) is the positive crossing of strands i and i+1,
``-i`` its inverse.  Words are kept verbatim; equality of the group elements
they spell is decided through the faithful Artin representation.

The Artin action of a single positive crossing is

    x_i |-> x_i x_{i+1} x_i^-1,    x_{i+1} |-> x_i,

with all other generators fixed, and braid words act diagrammatically
(first letter acts first).

Folding a word through that action is string work (see ``_fold``).  Each
letter of F_n is coded as one character: x_k as chr(2k + 1) and x_k^-1 as
chr(2k + 2), above three reserved characters, a separator between images
and two placeholders.  So the coding reaches at most ``_MAX_STRANDS``
strands, the last count whose codes stay at or below ``sys.maxunicode``;
a fold on more strands is refused with a ``ValueError``.  A crossing is
one fixed chain of ``str.replace`` calls over every image at once: the
simultaneous substitution through the placeholders, then the removal of
the one letter pair that can cancel, x_i^-1 x_i for s_i and
x_{i+1} x_{i+1}^-1 for s_i^-1; no other pair cancels and no cancel
cascades.  Folds are capped: after each crossing, a fold whose
longest image passes ``max_letters`` raises ``WordTooLongError``.

A fold starts from coded text: generator images from ``_generators``,
which refuses a strand count past the coding, or the text of an earlier
fold, so ``nielsen._iterate`` folds beta's generators under the cap and
goes on from that text through beta^(m-1) uncapped, one pass for theta^m.
It returns coded text, decoded only where letters are read: by ``_endo``
into a ``FreeEndo``, for ``artin`` and ``nielsen._iterate``, and by
``augbraid.from_word`` for its one image.  ``braid_eq`` compares two
folds' texts as they are, and ``_acts_as`` a fold's text with an
endomorphism's images coded, for ``forcing.is_forced``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

from .freegroup import FreeEndo, _Memo, _check_positive, _format_letters, _is_int, _parse_letters, _word

DEFAULT_MAX_LETTERS = 128


class WordTooLongError(ValueError):
    """Raised when a braid word exceeds the image-blowup safety cap."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_positive(self.strands, "strand count")
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

    @cached_property
    def _text(self) -> str:
        return _format_letters(self.letters, "s")

    @cached_property
    def _iterates(self) -> dict[int, FreeEndo]:
        """theta^m by m, kept by nielsen._iterate: it dies with the braid, and a refused iterate is not kept."""
        return {}


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


# the fold's one-character letter codes; see the module docstring
_SEP, _P, _Q = "\x00", "\x01", "\x02"
_MAX_STRANDS = (sys.maxunicode - 2) // 2
_CODE = _Memo(lambda k: chr(2 * k + 1 if k > 0 else 2 - 2 * k))
_LETTER = _Memo(lambda ch: (ord(ch) - 1) // 2 if ord(ch) % 2 else 1 - ord(ch) // 2)


def _spell(letters) -> str:
    return "".join(map(_CODE.__getitem__, letters))


def _crossing(letter: int) -> tuple[str, ...]:
    """The str.replace arguments of one crossing: (c, C, d, D, image of c, image of C, pair).

    A crossing moves the generator d onto c and sends c to a conjugate of
    d by t: for s_i, c = x_i, d = x_{i+1}, t = x_i; for s_i^-1, c = x_{i+1},
    d = x_i, t = x_{i+1}^-1.  Capitals are inverses; pair is t^-1 t, the
    one pair that can cancel (see _fold).
    """
    i = abs(letter)
    c, d, t = (i, i + 1, i) if letter > 0 else (i + 1, i, -i - 1)
    return (_CODE[c], _CODE[-c], _CODE[d], _CODE[-d], _spell((t, d, -t)), _spell((t, -d, -t)), _spell((-t, t)))


_CROSSINGS = _Memo(_crossing)


def _generators(b: BraidWord, first: int = 1) -> str:
    """The coded text of x_first .. x_n, n = b.strands, that a fold through b starts from.

    ValueError when n is past the coding (see the module docstring), before
    any letter is coded.
    """
    if b.strands > _MAX_STRANDS:
        raise ValueError(
            f"the fold codes each letter as one character, so it takes at most {_MAX_STRANDS} strands, "
            f"got {b.strands}"
        )
    return _SEP.join(map(_CODE.__getitem__, range(first, b.strands + 1)))


def _fold(b: BraidWord, text: str, max_letters: int) -> str:
    """Fold coded reduced images of F_strands through b's crossings, first letter first.

    text holds the images coded one character per letter (see the module
    docstring) and separated by _SEP, as _generators or an earlier fold
    through a braid on as many strands left them; it is folded and
    returned: image j is part j of text.split(_SEP), and _LETTER decodes
    its characters.  A crossing with table (c, C, d, D, tdT, tDT, Tt) from
    _crossing is the chain

        c -> P, C -> Q, d -> c, D -> C, P -> tdT, Q -> tDT, Tt -> ''

    which is the simultaneous substitution c -> tdT, C -> tDT, d -> c,
    D -> C (the placeholders keep the letters it writes from being
    substituted again), then free reduction in one removal.

    That removal is exact.  Take s_i, with a = x_i, b = x_{i+1} and
    capitals for inverses, on a reduced word: a -> abA, A -> aBA, b -> a,
    B -> A, every other letter fixed.  No image of one letter holds an
    inverse pair, so a cancel can only sit where two images join.  An image
    ends in A (of a, A, B) or a (of b) and begins with a (of a, A, b) or A
    (of B); a fixed letter ends and begins with itself.  A join a|A needs
    bB in the word and a join of fixed letters yy^-1, and a reduced word
    holds neither.  So every cancelling pair is an A|a, the image of x in
    {a, A, B} meeting that of y in {a, A, b}.  Removing it brings together
    the letter before that A, which is b (x = a), B (x = A) or the last
    letter of the image before B's (A, a or fixed), and the letter after
    that a, which is b (y = a), B (y = A) or the first letter of the image
    after b's (a, A or fixed).  Of those, b|B needs aA and B|b needs Aa in
    the word, and an inverse pair among the rest needs x = B and y = b, so
    Bb: none cascades, and removing every A|a leaves the reduced image.
    Two A|a never overlap, so one str.replace finds them all.  s_i^-1 is
    the same substitution after renaming x_i -> x_{i+1}^-1 and x_{i+1} ->
    x_i^-1, which keeps words reduced; its pair is x_{i+1} x_{i+1}^-1.  The
    separator never cancels.

    Image lengths can grow exponentially in the word length, so the fold
    aborts once any image exceeds max_letters, after the crossing that
    made it so.  The total letter count is read first; the longest image
    is split out only when the total passes the cap.  This is the
    package's one capped fold: callers pass only the images they read.
    """
    _check_positive(max_letters, "max_letters")
    total_cap = max_letters + text.count(_SEP)  # the separators are not letters
    for letter in b.letters:
        c, C, d, D, image, image_inv, pair = _CROSSINGS[letter]
        text = (
            text.replace(c, _P).replace(C, _Q).replace(d, c).replace(D, C)
            .replace(_P, image).replace(_Q, image_inv).replace(pair, "")
        )
        if len(text) > total_cap:
            longest = max(map(len, text.split(_SEP)))
            if longest > max_letters:
                raise WordTooLongError(
                    f"generator image grew to {longest} letters (cap {max_letters}); "
                    "pass a larger max_letters if this is intentional"
                )
    return text


def _endo(n: int, text: str) -> FreeEndo:
    """The endomorphism of F_n whose generator images a fold from _generators left as text: decoded once."""
    return FreeEndo(n, tuple(_word(n, tuple(map(_LETTER.__getitem__, part))) for part in text.split(_SEP)))


def artin(b: BraidWord, max_letters: int = DEFAULT_MAX_LETTERS) -> FreeEndo:
    """The Artin automorphism of F_strands induced by the braid word.

    Every generator image is folded by _fold, which aborts once any image
    exceeds max_letters; raise the cap explicitly for long but tame words.
    The folded text is decoded into words once, at the end, by _endo.
    """
    return _endo(b.strands, _fold(b, _generators(b), max_letters))


def _acts_as(b: BraidWord, theta: FreeEndo) -> bool:
    """Whether theta, an endomorphism of F_strands, is the Artin action of b.

    b's generators are folded under the default cap, so a long fold is
    refused as artin(b) would refuse it, and the text is compared with
    theta's images coded: one character codes one letter, so the texts are
    equal exactly when artin(b) == theta, and no word is built.
    """
    text = _fold(b, _generators(b), DEFAULT_MAX_LETTERS)
    return text == _SEP.join(_spell(w.letters) for w in theta.images)


def braid_eq(b1: BraidWord, b2: BraidWord, max_letters: int = DEFAULT_MAX_LETTERS) -> bool:
    """Word-problem test through faithfulness of the Artin representation.

    Words with the same letters are equal without a fold, so no cap applies.
    Otherwise both fold every generator image under the cap, b1 first, as
    artin does; one character codes one letter, so the braids are equal
    exactly when the folded texts are, and no word is built.
    """
    if b1.strands != b2.strands:
        raise ValueError("strand count mismatch")
    _check_positive(max_letters, "max_letters")
    if b1.letters == b2.letters:
        return True
    gens = _generators(b1)
    return _fold(b1, gens, max_letters) == _fold(b2, gens, max_letters)


# ---------------------------------------------------------------------------
# text form: `s1 s2^-1` etc., `e` for the trivial braid


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a braid word.  Tokens: `s<k>`, `s<k>^-1`, nonzero signed integers, `e`."""
    return BraidWord(strands, _parse_letters(text, "s"))


def format_braid(b: BraidWord) -> str:
    """The text form of b, e.g. `s1 s2^-1` or `e`: built by b's first call and kept on b, which is immutable."""
    return b._text
