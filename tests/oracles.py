"""Reference oracles for the test suite.

Nothing in the package, the command line or the benchmark calls these
helpers: each one exists to check another function against an independent
spelling of the same thing (the braid product and inverse, pure braid
generators, the per-letter tuple fold, the conjugation action on tails,
products in Z[F_n] and in semidirect coordinates, an endomorphism's powers
and abelianized matrix, a general free-group conjugator and a word's
inverse, the section of a base braid, is_forced trying every class).  They
were written against the package's conventions and are kept here
unchanged, so a change to the package that moves a convention fails the
tests that compare against them.
"""

from __future__ import annotations

import functools
import json

from braidforce.augbraid import AugBraid, _phi_letters
from braidforce.braid import (
    DEFAULT_MAX_LETTERS,
    BraidWord,
    WordTooLongError,
    _acts_as,
    _pure_letters,
    artin,
    braid_eq,
    perm,
)
from braidforce.forcing import ForcingReport, report_json
from braidforce.foxcalc import GroupRingElem
from braidforce.freegroup import (
    FreeEndo,
    FreeWord,
    _reduce_letters,
    _word,
    abelianize,
    apply,
    concat,
    format_word,
)
from braidforce.nielsen import Decision, SearchBounds, _analyse, _iterate, is_degenerate, twisted_conj

# ---------------------------------------------------------------------------
# braid


def braid_mul(b1: BraidWord, b2: BraidWord) -> BraidWord:
    """The product b1 b2: b1's letters, then b2's."""
    if b1.strands != b2.strands:
        raise ValueError("strand count mismatch")
    return BraidWord(b1.strands, b1.letters + b2.letters)


def braid_invert(b: BraidWord) -> BraidWord:
    """The inverse word: b's letters reversed, each inverted."""
    return BraidWord(b.strands, tuple(-k for k in reversed(b.letters)))


def fixes_last_strand(b: BraidWord) -> bool:
    return perm(b).images[b.strands - 1] == b.strands


def pure_gen(i: int, j: int, strands: int) -> BraidWord:
    """Standard pure braid generator A_ij, 1 <= i < j <= strands.

    A_ij = s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1, the loop in
    which strand j swings around strand i and returns.
    """
    if not (1 <= i < j <= strands):
        raise ValueError(f"need 1 <= i < j <= strands, got ({i}, {j}, {strands})")
    return BraidWord(strands, _pure_letters(i, j))


@functools.lru_cache(maxsize=None)
def letter_endo(strands: int, letter: int) -> FreeEndo:
    """The Artin automorphism of one crossing, as generator images."""
    images = [FreeWord(strands, (k,)) for k in range(1, strands + 1)]
    i = abs(letter)
    if letter > 0:
        images[i - 1] = FreeWord(strands, (i, i + 1, -i))
        images[i] = FreeWord(strands, (i,))
    else:
        images[i - 1] = FreeWord(strands, (i + 1,))
        images[i] = FreeWord(strands, (-(i + 1), i, i + 1))
    return FreeEndo(strands, tuple(images))


def tuple_fold(b: BraidWord, images: list[tuple[int, ...]], max_letters: int) -> list[tuple[int, ...]]:
    """braid._fold as a per-letter tuple fold: each crossing substitutes its
    letter_endo table into every image and reduces, then the cap is checked."""
    n = b.strands
    for letter in b.letters:
        table = letter_endo(n, letter)._letter_images
        images = [_reduce_letters(map(table.__getitem__, img)) for img in images]
        longest = max(map(len, images))
        if longest > max_letters:
            raise WordTooLongError(
                f"generator image grew to {longest} letters (cap {max_letters}); "
                "pass a larger max_letters if this is intentional"
            )
    return images


def artin_apply(b: BraidWord, w: FreeWord, max_letters: int = DEFAULT_MAX_LETTERS) -> FreeWord:
    """Image of a free word under the Artin action of b."""
    return apply(artin(b, max_letters), w)


# ---------------------------------------------------------------------------
# freegroup


def invert(w: FreeWord) -> FreeWord:
    """The inverse word: w's letters reversed, each inverted."""
    return _word(w.rank, tuple(-k for k in reversed(w.letters)))


def gen(rank: int, k: int) -> FreeWord:
    """The single-letter word x_k (or its inverse for negative k)."""
    return FreeWord(rank, (k,))


def endo_power_from_identity(e: FreeEndo, m: int) -> FreeEndo:
    """e^m as m compositions from the identity: each step applies e to every image so far."""
    acc = FreeEndo.identity(e.rank)
    for _ in range(m):
        acc = FreeEndo(e.rank, tuple(apply(e, img) for img in acc.images))
    return acc


def endo_matrix(e: FreeEndo) -> tuple[tuple[int, ...], ...]:
    """Abelianized matrix M of e, as rows; column j is abelianize(images[j]).

    The convention makes M act on column vectors compatibly with apply:
    abelianize(apply(e, w)) == M @ abelianize(w).
    """
    cols = [abelianize(img) for img in e.images]
    return tuple(tuple(cols[j][i] for j in range(e.rank)) for i in range(e.rank))


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split w as conj * core * conj^-1 with core cyclically reduced.

    Returns (core, conj).  For a cyclically reduced word the conjugating
    part is empty.
    """
    letters = list(w.letters)
    conj: list[int] = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        conj.append(letters[0])
        letters = letters[1:-1]
    return _word(w.rank, tuple(letters)), _word(w.rank, tuple(conj))


def conjugator(w1: FreeWord, w2: FreeWord) -> FreeWord | None:
    """A word c with w2 = c * w1 * c^-1, or None if not conjugate.

    Conjugacy in a free group holds exactly when the cyclically reduced
    cores are cyclic rotations of each other; the witness is assembled
    from the two conjugating parts and the rotation, then checked by
    substitution before being returned.
    """
    if w1.rank != w2.rank:
        raise ValueError("rank mismatch")
    core1, c1 = cyclic_reduce(w1)
    core2, c2 = cyclic_reduce(w2)
    if len(core1) != len(core2):
        return None
    if not core1.letters:
        return FreeWord(w1.rank)
    u = core1.letters
    for r in range(len(u)):
        if u[r:] + u[:r] == core2.letters:
            shift = FreeWord(w1.rank, u[r:]) if r else FreeWord(w1.rank)
            c = concat(c2, shift, invert(c1))
            if concat(c, w1, invert(c)) != w2:
                raise AssertionError("conjugator failed verification")
            return c
    return None


# ---------------------------------------------------------------------------
# foxcalc


def gr_left_mul(w: FreeWord, a: GroupRingElem) -> GroupRingElem:
    """w * a, multiplying every term on the left by the group element w."""
    return GroupRingElem.from_terms(a.rank, ((concat(w, t), c) for t, c in a.terms))


def gr_right_mul(a: GroupRingElem, w: FreeWord) -> GroupRingElem:
    """a * w, multiplying every term on the right by the group element w."""
    return GroupRingElem.from_terms(a.rank, ((concat(t, w), c) for t, c in a.terms))


def augmentation(a: GroupRingElem) -> int:
    """Sum of coefficients (image under the augmentation map to Z)."""
    return sum(c for _, c in a.terms)


def format_ring(a: GroupRingElem) -> str:
    """Render as e.g. `+1*[x1 x2^-1] -2*[e]`; the zero element is `0`."""
    if not a.terms:
        return "0"
    parts = []
    for w, c in a.terms:
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{abs(c)}*[{format_word(w)}]")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# augbraid


def act(b: BraidWord, u: FreeWord, max_letters: int = DEFAULT_MAX_LETTERS) -> FreeWord:
    """Conjugation action of an included braid on the free normal subgroup.

    act(b, u) is the tail word with section(b) * phi(u) * section(b)^-1
    equal to phi(act(b, u)); it is the Artin action of the inverse braid.
    """
    return apply(artin(braid_invert(b), max_letters), u)


def section_word(b: BraidWord) -> BraidWord:
    """The same letters read on one more strand (the extra strand is idle)."""
    return BraidWord(b.strands + 1, b.letters)


def phi_word(u: FreeWord) -> BraidWord:
    """The braid word on rank+1 strands spelling phi(u)."""
    return BraidWord(u.rank + 1, _phi_letters(u))


def compose(a1: AugBraid, a2: AugBraid) -> AugBraid:
    """Product in semidirect coordinates: the second base twists the first tail."""
    if a1.punctures != a2.punctures:
        raise ValueError("puncture count mismatch")
    tail = concat(apply(artin(a2.base), a1.tail), a2.tail)
    return AugBraid(braid_mul(a1.base, a2.base), tail)


def aug_eq(a1: AugBraid, a2: AugBraid) -> bool:
    """Equality of the group elements; coordinates are unique given the base."""
    if a1.punctures != a2.punctures:
        raise ValueError("puncture count mismatch")
    return a1.tail == a2.tail and braid_eq(a1.base, a2.base)


# ---------------------------------------------------------------------------
# forcing


def report_json_text(report: ForcingReport) -> str:
    """Stable serialization used for byte-for-byte determinism checks."""
    return json.dumps(report_json(report), indent=2)


def is_forced_by_every_class(
    candidate: AugBraid,
    beta: BraidWord,
    m: int,
    bounds: SearchBounds = SearchBounds(),
) -> Decision:
    """forcing.is_forced as one twisted_conj per summand, in summand order.

    Every class is tried, whatever its abelian invariant, and its unresolved
    words and degeneracy are worked out afresh on each yes.
    """
    if candidate.punctures != beta.strands:
        raise ValueError("puncture count mismatch")
    theta = _iterate(beta, m)
    if candidate.base.letters != beta.letters * m and not _acts_as(candidate.base, theta):
        return Decision("no", None, ("base_mismatch",))
    pipeline = _analyse(theta, bounds)
    ctx, trace = pipeline.ctx, pipeline.trace
    saw_unknown = bool(trace.unresolved)
    for s in trace.summands:
        d = twisted_conj(ctx, s.representative, candidate.tail)
        if d.is_unknown:
            saw_unknown = True
            continue
        if d.is_no:
            continue
        # the first yes ends the call, so the unresolved words are hashed
        # at most once, and only on a yes
        fuzzy = {w for pair in trace.unresolved for w in pair}
        if any(member in fuzzy for member in s.members):
            return Decision("unknown", None, ("unresolved_class", s.representative))
        deg = is_degenerate(ctx, s.representative)
        if deg.is_yes:
            return Decision("no", None, ("degenerate_class", s.representative))
        if deg.is_unknown:
            return Decision("unknown", None, ("degeneracy_unknown", s.representative))
        return Decision("yes", d.witness, ("class", s.representative))
    if saw_unknown:
        return Decision("unknown", None, ("radius", bounds.radius))
    return Decision("no", None, ("inessential",))
