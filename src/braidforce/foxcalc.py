"""Fox free differential calculus over the integral group ring Z[F_n].

Group ring elements are finite formal sums of reduced words with nonzero
integer coefficients.  The Fox derivative with respect to x_j is determined
by

    d(x_j)/dx_j = 1,   d(x_j^-1)/dx_j = -x_j^-1,   d(x_i^pm1)/dx_j = 0 (i != j),

together with the product rule d(uv) = du + u * dv.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freegroup import FreeEndo, FreeWord, _word, word_sort_key


@dataclass(frozen=True)
class GroupRingElem:
    """An element of Z[F_rank]: sorted terms (word, coefficient), coefficients nonzero."""

    rank: int
    terms: tuple[tuple[FreeWord, int], ...] = ()

    def __post_init__(self) -> None:
        keys = [word_sort_key(w) for w, _ in self.terms]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("terms must be sorted by word with no duplicates")
        _check_terms(self.rank, self.terms)

    @classmethod
    def from_terms(cls, rank: int, items) -> GroupRingElem:
        """Collect (word, coefficient) pairs, summing duplicates, dropping zeros.

        The collected terms are sorted and duplicate-free by construction, so
        only their ranks and coefficients are checked; the order check of
        direct construction is skipped instead of keying every word again.
        """
        acc: dict[FreeWord, int] = {}
        for w, c in items:
            acc[w] = acc.get(w, 0) + c
        kept = [(w, c) for w, c in acc.items() if c != 0]
        kept.sort(key=lambda t: word_sort_key(t[0]))
        terms = tuple(kept)
        _check_terms(rank, terms)
        elem = object.__new__(cls)
        object.__setattr__(elem, "rank", rank)
        object.__setattr__(elem, "terms", terms)
        return elem

    @classmethod
    def zero(cls, rank: int) -> GroupRingElem:
        return cls(rank, ())

    @classmethod
    def one(cls, rank: int) -> GroupRingElem:
        return cls(rank, ((FreeWord(rank), 1),))

    def __add__(self, other: GroupRingElem) -> GroupRingElem:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return GroupRingElem.from_terms(self.rank, self.terms + other.terms)

    def __neg__(self) -> GroupRingElem:
        return GroupRingElem(self.rank, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: GroupRingElem) -> GroupRingElem:
        return self + (-other)


def _check_terms(rank: int, terms) -> None:
    for w, c in terms:
        if w.rank != rank:
            raise ValueError("term rank mismatch")
        if not isinstance(c, int) or c == 0:
            raise ValueError(f"coefficient must be a nonzero integer, got {c!r}")


def fox(w: FreeWord, j: int) -> GroupRingElem:
    """Fox derivative of w with respect to x_j.

    >>> from .freegroup import reduce, format_word
    >>> d = fox(reduce(2, [1, 2, -1]), 1)
    >>> [(format_word(t), c) for t, c in d.terms]
    [('e', 1), ('x1 x2 x1^-1', -1)]
    """
    if not (1 <= j <= w.rank):
        raise ValueError(f"generator index {j} out of range")
    acc: dict[tuple[int, ...], int] = {}
    prefix: list[int] = []

    def emit(letters: list[int], c: int) -> None:
        key = tuple(letters)
        acc[key] = acc.get(key, 0) + c

    for k in w.letters:
        if k == j:
            emit(prefix, 1)
        elif k == -j:
            # -x_j^-1 sits after the prefix; w is reduced so no cancellation
            emit(prefix + [k], -1)
        prefix.append(k)
    # every term is a prefix of the reduced word w, so it is reduced
    return GroupRingElem.from_terms(w.rank, ((_word(w.rank, key), c) for key, c in acc.items()))


def jacobian_diagonal(e: FreeEndo) -> tuple[GroupRingElem, ...]:
    """Diagonal of the Fox Jacobian: entry i is fox(e(x_i), i)."""
    return tuple(fox(e.images[i - 1], i) for i in range(1, e.rank + 1))


def raw_trace(e: FreeEndo) -> GroupRingElem:
    """1 minus the sum of the Fox Jacobian diagonal of e.

    This is the unmerged fixed-point index sum; summands still have to be
    grouped into twisted conjugacy classes before they mean anything.
    """
    terms = [(FreeWord(e.rank), 1)]
    for d in jacobian_diagonal(e):
        terms += ((w, -c) for w, c in d.terms)
    return GroupRingElem.from_terms(e.rank, terms)
