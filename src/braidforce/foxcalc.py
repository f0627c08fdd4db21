"""Fox free differential calculus over the integral group ring Z[F_n].

Group ring elements are finite formal sums of reduced words with nonzero
integer coefficients.  The Fox derivative with respect to x_j is determined
by

    d(x_j)/dx_j = 1,   d(x_j^-1)/dx_j = -x_j^-1,   d(x_i^pm1)/dx_j = 0 (i != j),

together with the product rule d(uv) = du + u * dv.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freegroup import FreeEndo, FreeWord, _check_positive, _is_int, _word, word_sort_key


@dataclass(frozen=True)
class GroupRingElem:
    """An element of Z[F_rank]: sorted terms (word, coefficient), coefficients nonzero."""

    rank: int
    terms: tuple[tuple[FreeWord, int], ...] = ()

    def __post_init__(self) -> None:
        _check_terms(self.rank, self.terms)
        keys = [word_sort_key(w) for w, _ in self.terms]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("terms must be sorted by word with no duplicates")

    @classmethod
    def from_terms(cls, rank: int, items) -> GroupRingElem:
        """Collect (word, coefficient) pairs, summing duplicates, dropping zeros.

        The collected terms are sorted and duplicate-free by construction, so
        they get the term check alone; the order check of direct
        construction is skipped instead of keying every word again.
        """
        acc: dict[FreeWord, int] = {}
        for w, c in items:
            if not _is_int(c):  # a bool would sum to an int unseen
                raise ValueError(f"coefficient must be an integer, got {c!r}")
            acc[w] = acc.get(w, 0) + c
        kept = tuple((w, c) for w, c in acc.items() if c != 0)
        _check_terms(rank, kept)
        terms = tuple(sorted(kept, key=lambda t: word_sort_key(t[0])))
        elem = object.__new__(cls)
        object.__setattr__(elem, "rank", rank)
        object.__setattr__(elem, "terms", terms)
        return elem


def _check_terms(rank: int, terms) -> None:
    """ValueError unless rank is a positive int and terms a tuple of (FreeWord of that rank, nonzero int)."""
    _check_positive(rank, "rank")
    if not isinstance(terms, tuple):
        raise ValueError(f"terms must be a tuple, got {type(terms).__name__}")
    for w, c in terms:
        if not isinstance(w, FreeWord) or w.rank != rank:
            raise ValueError(f"terms must be FreeWords of rank {rank}, got {w!r}")
        if not _is_int(c) or c == 0:
            raise ValueError(f"coefficient must be a nonzero integer, got {c!r}")


def _fox_terms(w: FreeWord, j: int):
    """The uncollected summands of d(w)/dx_j: (the prefix before each x_j, +1) and
    (the prefix through each x_j^-1, -1).  A prefix of a reduced word is reduced."""
    letters = w.letters
    for i, k in enumerate(letters):
        if k == j:
            yield _word(w.rank, letters[:i]), 1
        elif k == -j:
            yield _word(w.rank, letters[: i + 1]), -1


def fox(w: FreeWord, j: int) -> GroupRingElem:
    """Fox derivative of w with respect to x_j.

    >>> from .freegroup import reduce, format_word
    >>> d = fox(reduce(2, [1, 2, -1]), 1)
    >>> [(format_word(t), c) for t, c in d.terms]
    [('e', 1), ('x1 x2 x1^-1', -1)]
    """
    if not _is_int(j) or not 1 <= j <= w.rank:
        raise ValueError(f"generator index {j!r} out of range")
    return GroupRingElem.from_terms(w.rank, _fox_terms(w, j))


def raw_trace(e: FreeEndo) -> GroupRingElem:
    """1 minus the sum of the Fox Jacobian diagonal of e.

    This is the unmerged fixed-point index sum; summands still have to be
    grouped into twisted conjugacy classes before they mean anything.
    """
    terms = [(FreeWord(e.rank), 1)]
    for i, img in enumerate(e.images, 1):
        terms += ((w, -c) for w, c in _fox_terms(img, i))
    return GroupRingElem.from_terms(e.rank, terms)
