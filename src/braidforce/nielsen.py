"""Twisted conjugacy classes and Reidemeister traces for free-group endomorphisms.

Two words u, v are theta-twisted conjugate when v = theta(a) * u * a^-1 for
some word a.  The relation is undecidable to bound in general, so decisions
come in three kinds: Yes with an explicit witness, No with an abelianized
certificate, or Unknown when the search over every a up to the radius is
exhausted: an iterative-deepening depth-first walk that runs backwards from
v and meets u's 2n mid words one letter from the end (see twisted_conj).
A braid iterate permutes the generators in homology, so the certificate is
the exponent sum of each word over each strand cycle of theta.

The raw Fox trace of theta is a formal sum of words; grouping its summands
by twisted conjugacy and adding coefficients yields the merged trace whose
nonzero classes are the essential ones.

Each class is named by its canonical representative, the least word of its
bounded orbit by word_sort_key.  The invariant fixes a floor for it: every
letter adds +-1 to one cycle sum, so no word with invariant I is shorter
than sum |I_c|, and among the words of that length the least takes |I_c|
copies of the least strand of each cycle c, signed as I_c, in ascending
order.  Orbit words keep the invariant, so no orbit word sorts below the
floor, and a walk that reaches it can stop there with the exact result.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

from .braid import DEFAULT_MAX_LETTERS, BraidWord, Permutation, _endo, _fold, _generators, power
from .foxcalc import GroupRingElem, raw_trace
from .freegroup import (
    FreeEndo,
    FreeWord,
    _conjugator_of,
    _is_int,
    _letters_key,
    _reduce_letters,
    _word,
    abelianize,
    concat,
    format_word,
    word_sort_key,
)


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the bounded searches: conjugator length and strand-loop power."""

    radius: int = 5
    k_max: int = 6

    def __post_init__(self) -> None:
        if not (_is_int(self.radius) and _is_int(self.k_max)):
            raise ValueError(f"bounds must be integers, got radius={self.radius!r}, k_max={self.k_max!r}")
        if self.radius < 0 or self.k_max < 0:
            raise ValueError("bounds must be nonnegative")


@dataclass(frozen=True)
class Decision:
    """Outcome of a bounded decision procedure.

    kind is "yes", "no" or "unknown".  Yes decisions carry a witness word,
    No decisions a certificate tuple, Unknown decisions the exhausted bound.
    """

    kind: str
    witness: FreeWord | None = None
    certificate: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("yes", "no", "unknown"):
            raise ValueError(f"bad decision kind {self.kind!r}")

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


@dataclass(frozen=True)
class TwistContext:
    """A twisting endomorphism theta with its search bounds.

    theta's strand permutation is read off its abelianization on first use:
    any theta can walk orbits, but only a braid iterate has an invariant.
    """

    theta: FreeEndo
    bounds: SearchBounds = SearchBounds()

    def __post_init__(self) -> None:
        if not (isinstance(self.theta, FreeEndo) and isinstance(self.bounds, SearchBounds)):
            raise ValueError(f"need a FreeEndo and a SearchBounds, got {type(self.theta)}, {type(self.bounds)}")

    @classmethod
    def create(cls, theta: FreeEndo, bounds: SearchBounds = SearchBounds()) -> TwistContext:
        return cls(theta, bounds)

    @functools.cached_property
    def rank(self) -> int:
        return self.theta.rank

    @functools.cached_property
    def _strand_perm(self) -> Permutation:
        """theta's strand permutation, i to j when abelianize(theta(x_i)) = e_j; ValueError if there is none."""
        units = {abelianize(FreeWord(self.rank, (j,))): j for j in range(1, self.rank + 1)}
        return Permutation(tuple(units.get(abelianize(img), 0) for img in self.theta.images))

    @functools.cached_property
    def _families(self) -> tuple[DegenerateFamily, ...]:
        """One degenerate family per fixed strand of theta, in ascending order.

        ValueError unless theta, like a braid iterate, sends each fixed strand's generator to a conjugate of it.
        """
        fams = []
        for i in self._strand_perm.fixed_points():
            lam = _conjugator_of(self.theta.images[i - 1], i)
            if lam is None:
                raise ValueError(f"image of x{i} is not a conjugate of x{i}; only a braid iterate has degenerate families")
            fams.append(DegenerateFamily(i, lam))
        return tuple(fams)

    @functools.cached_property
    def _invariants(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """abelian_invariant of each word asked about, by its letters: merge's bucket key serves every later ask."""
        return {}

    @functools.cached_property
    def _cycle_top(self) -> tuple[int, ...]:
        """Entry i - 1 is the largest strand of strand i's cycle, less one: the slot of that cycle's sum."""
        images = self._strand_perm.images
        tops = []
        for i in range(1, self.rank + 1):
            j, top = images[i - 1], i
            while j != i:
                j, top = images[j - 1], max(top, j)
            tops.append(top - 1)
        return tuple(tops)

    @functools.cached_property
    def _cycle_least(self) -> tuple[tuple[int, int], ...]:
        """(slot, least strand) of each strand cycle, in ascending order of least strand."""
        least: dict[int, int] = {}
        for i, top in enumerate(self._cycle_top, start=1):
            least.setdefault(top, i)
        return tuple(least.items())

    @functools.cached_property
    def _back_rows(self) -> tuple[tuple[tuple[int, tuple[int, ...], int], ...], int]:
        """_witness's step rows (k, theta(x_k)^-1, its last letter or 0), k = x1, x1^-1, x2, ..., and drop.

        drop = max_k |theta(x_k)| + 1 is the most that one step changes a word's length by.
        """
        timg = self.theta._letter_images
        rows = tuple((k, timg[-k], timg[-k][-1] if timg[-k] else 0) for i in range(1, self.rank + 1) for k in (i, -i))
        return rows, max(len(img) for _, img, _ in rows) + 1

    @functools.cached_property
    def _out_rows(self) -> tuple[tuple[tuple[int, tuple[int, ...], int, int], ...], int]:
        """_least's step rows (k, theta(x_k), its length, its last letter or 0), k = x1, x1^-1, x2, ..., and drop.

        drop is _back_rows' drop: the inverse images have the same lengths.
        """
        timg = self.theta._letter_images
        rows = tuple((k, timg[k], len(timg[k]), timg[k][-1] if timg[k] else 0) for i in range(1, self.rank + 1) for k in (i, -i))
        return rows, max(r[2] for r in rows) + 1


# ---------------------------------------------------------------------------
# abelianized invariant: the exponent sum over each strand cycle


def abelian_invariant(ctx: TwistContext, w: FreeWord) -> tuple[int, ...]:
    """The exponent sum of w over each strand cycle of theta, at the cycle's largest strand; zeros elsewhere.

    Twisted conjugation by a adds (M - I) * abelianize(a) to abelianize(w),
    M being theta's abelianized matrix.  For a braid iterate M permutes the
    strands, so Z^n / im(M - I) is free on the strand cycles: this tuple
    names the coset of abelianize(w), an invariant of the twisted class.
    Each word is abelianized once per context; one of another rank is refused.
    """
    if w.rank != ctx.rank:
        raise ValueError("rank mismatch")
    memo = ctx._invariants
    inv = memo.get(w.letters)
    if inv is None:
        sums = [0] * ctx.rank
        for e, top in zip(abelianize(w), ctx._cycle_top):
            sums[top] += e
        inv = memo[w.letters] = tuple(sums)
    return inv


def _floor(ctx: TwistContext, invariant: tuple[int, ...]) -> tuple[int, ...]:
    """The least word, by word_sort_key, with the given abelian invariant, as raw letters.

    Each letter adds +-1 to exactly one cycle sum, so a word with invariant
    I has at least sum |I_c| letters, and a word of just that length has
    |I_c| letters from each cycle c, all of the sign of I_c.  Putting the
    least strand j of its cycle in place of each letter, with the same
    sign, raises no letter in the key's order, and those letters sort
    least in ascending order of j; so no word with invariant I sorts below
    this one.  No cycle gives both signs, so the word is reduced.
    """
    letters: tuple[int, ...] = ()
    for slot, j in ctx._cycle_least:
        s = invariant[slot]
        if s:
            letters += (j if s > 0 else -j,) * abs(s)
    return letters


# ---------------------------------------------------------------------------
# bounded orbit search


def _cancels(a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, int, int]:
    """The letter pairs (i, j, h) that cancel in the free reduction of a * b * c, for reduced a, b, c.

    The letters that cancel are counted at the joins; nothing is built.
    Where a meets b, i pairs cancel.  The tail of what is left of b then
    meets c, and j more pairs cancel.  If that uses up b, what is left of a
    meets what is left of c, and h more pairs cancel.  The reduced product
    has len(a) + len(b) + len(c) - 2 * (i + j + h) letters; _splice builds it.
    """
    la, lb, lc = len(a), len(b), len(c)
    i = 0
    while i < la and i < lb and a[la - 1 - i] == -b[i]:
        i += 1
    j = 0
    while j < lc and j < lb - i and b[lb - 1 - j] == -c[j]:
        j += 1
    h = 0
    if j == lb - i:
        while j + h < lc and i + h < la and a[la - 1 - i - h] == -c[j + h]:
            h += 1
    return i, j, h


def _splice(a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...], cancels: tuple[int, int, int]):
    """The free reduction of a * b * c, sliced where the cancels (i, j, h) = _cancels(a, b, c) end."""
    i, j, h = cancels
    return a[: len(a) - i - h] + b[i : len(b) - j] + c[j + h :]


def _mids(ctx: TwistContext, u: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(k, theta(x_k) * u * x_k^-1) for k = x1, x1^-1, x2, ..., as raw letters: u's orbit words at |alpha| = 1.

    Nothing cancels unless theta(x_k) ends in u[0]^-1 or u ends in x_k:
    when neither holds the three parts are joined as they are, and
    otherwise, or when the image or u is empty, the cancels are counted
    (_cancels) and the parts sliced there (_splice).
    """
    timg = ctx.theta._letter_images
    head, tail = (-u[0], u[-1]) if u else (0, 0)
    mids = []
    for i in range(1, ctx.rank + 1):
        for k in (i, -i):
            img = timg[k]
            if u and img and img[-1] != head and tail != k:
                mids.append((k, img + u + (-k,)))
            else:
                parts = (img, u, (-k,))
                mids.append((k, _splice(*parts, _cancels(*parts))))
    return mids


def _orbit(ctx: TwistContext, u: FreeWord, radius: int, min_len: int, max_len: int):
    """Yield (alpha, theta(alpha) * u * alpha^-1) as raw letter tuples, words of min_len to max_len letters.

    Enumeration is deterministic: alpha by length first, then lexicographic
    with x_k before x_k^-1.  Iterative deepening keeps memory flat while
    preserving that order; theta images and inverses grow incrementally
    along the search path.  The pairs are exactly those of the unbounded
    walk whose word has min_len to max_len letters, in the same order.
    Its one caller, merge's _classes_hit, collects the set of classes hit,
    so no answer depends on that order.  twisted_conj and canonical_rep
    walk the orbit their own ways (_witness, _least).

    The word of a leaf alpha * k is theta(alpha) * mid[k] * alpha^-1, where
    mid[k] = theta(x_k) * u * x_k^-1 is built once (_mids), after the root
    word u is yielded and only when radius >= 1, into a row (k, mid[k], its
    length, first and last letter).  A leaf word's length is known before
    it is built: the sum of its three parts when nothing cancels at their
    joins, else that sum less the cancels counted there (_cancels).  Only a
    word inside the window is built, by slicing its parts where they cancel
    (_splice); so are each child's theta(alpha * k) and, where something can
    cancel, mid[k].

    A leaf word has at most that sum of letters and, by the triangle
    inequality of the word metric, at least len(theta(alpha)) - len(mid[k])
    - len(alpha) and len(mid[k]) - len(theta(alpha)) - len(alpha).  So at
    each leaf-parent these bounds fix a range of mid lengths that can land
    in the window, and a leaf whose mid is outside it is skipped uncounted.
    """
    n = ctx.rank
    letters = [k for i in range(1, n + 1) for k in (i, -i)]
    timg = ctx.theta._letter_images
    u_letters = u.letters
    if min_len <= len(u_letters) <= max_len:
        yield (), u_letters
    if not radius:
        return
    rows = [(k, m, len(m), m[0] if m else 0, m[-1] if m else 0) for k, m in _mids(ctx, u_letters)]
    for depth in range(1, radius + 1):
        # stack entries: (alpha, theta(alpha), alpha^-1)
        stack = [((), (), ())]
        while stack:
            alpha, th, inv_a = stack.pop()
            back = -alpha[-1] if alpha else 0
            if len(alpha) + 1 == depth:
                # unless mid[k] is empty or cancels against the last letter
                # of th or the first of inv_a, nothing cancels: the length
                # is the sum
                lth, la = len(th), len(inv_a)
                outer = lth + la
                th_end = -th[-1] if th else 0
                inv_head = -inv_a[0] if inv_a else 0
                # the mid lengths lo..hi: the sum reaches min_len and the
                # triangle bounds stay within max_len
                lo = lth - la - max_len
                if lo < min_len - outer:
                    lo = min_len - outer
                hi = max_len + outer
                for k, m, lm, first, last in rows:
                    if k == back or lm < lo or lm > hi:
                        continue
                    size = outer + lm
                    if lm and first != th_end and last != inv_head:
                        if size <= max_len:
                            yield alpha + (k,), th + m + inv_a
                        continue
                    cancels = i, j, h = _cancels(th, m, inv_a)
                    if min_len <= size - 2 * (i + j + h) <= max_len:
                        yield alpha + (k,), _splice(th, m, inv_a, cancels)
            else:
                # theta(alpha * k) = th * theta(x_k), counted only when the
                # join's first letters cancel; pushed in reverse to pop in order
                for k in reversed(letters):
                    if k != back:
                        img = timg[k]
                        if th and img and th[-1] == -img[0]:
                            img = _splice(th, img, (), _cancels(th, img, ()))
                        else:
                            img = th + img
                        stack.append((alpha + (k,), img, (-k,) + inv_a))


def twisted_conj(ctx: TwistContext, u: FreeWord, v: FreeWord) -> Decision:
    """Decide whether v = theta(a) * u * a^-1 for some reduced word a, |a| <= radius.

    Yes returns the first witness by length, then lexicographically with
    x_k before x_k^-1; it is verified by substitution.  No is certified by
    differing abelianized invariants.  Unknown means the search radius was
    exhausted.

    _witness walks backwards from v.  Write a = a' * x_k and mid[k] =
    theta(x_k) * u * x_k^-1.  Then theta(a) * u * a^-1 = v exactly when
    mid[k] = bw(a') = theta(a')^-1 * v * a', and bw(a' * x_j) =
    theta(x_j)^-1 * bw(a') * x_j, so each node holds one word, built from
    its parent's alone.  The 2n mids go into a table {mid: first k}, so
    the last letter of every a of a given length is found by one lookup at
    its parent a': a meet in the middle one letter deep.
    """
    iu = abelian_invariant(ctx, u)
    iv = abelian_invariant(ctx, v)
    if iu != iv:
        return Decision("no", None, ("abelian", iu, iv))
    alpha = _witness(ctx, u.letters, v.letters)
    if alpha is None:
        return Decision("unknown", None, ("radius", ctx.bounds.radius))
    return Decision("yes", _verified(ctx, alpha, u, v.letters))


def _verified(ctx: TwistContext, alpha: tuple[int, ...], u: FreeWord, v: tuple[int, ...]) -> FreeWord:
    """The word a of the reduced letters alpha, once theta(a) * u * a^-1 is checked by substitution to spell v.

    theta's image of each letter of alpha, then u, then alpha inverted are
    freely reduced in one pass, with none of the walks' cancel counts.
    """
    timg = ctx.theta._letter_images
    if _reduce_letters([*map(timg.__getitem__, alpha), u.letters, tuple(-k for k in reversed(alpha))]) != v:
        raise AssertionError("twisted conjugacy witness failed verification")
    return _word(ctx.rank, alpha)


def _witness(ctx: TwistContext, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...] | None:
    """twisted_conj's walk: the first a by (length, lex) with theta(a) * u * a^-1 = v, as raw letters, or None.

    Iterative deepening over the length of a, with a depth-first walk of
    its prefix a' that pops a' in lexicographic order; at each leaf-parent
    a' the first k, in row order, whose mid is bw(a') ends the first a of
    that length.  That k never undoes a'[-1]: if mid[k] = bw(a') with k =
    a'[-1]^-1, then a' less its last letter is a witness two letters
    shorter, which an earlier depth (or u = v) has returned; so a is reduced.
    A step changes a word's length by at most drop, so a child whose
    length, give or take drop per step left to its leaf-parent, cannot
    reach the shortest to the longest mid is skipped: no word below it is
    in the table.  Every word is built at most once, from its parent's: the
    cancels at its joins are counted (_cancels) and its length checked
    before it is sliced (_splice) or, when nothing can cancel, joined.
    """
    if u == v:
        return ()
    radius = ctx.bounds.radius
    if not radius:
        return None
    table: dict[tuple[int, ...], int] = {}
    for k, mid in _mids(ctx, u):
        table.setdefault(mid, k)
    lo = min(map(len, table))
    hi = max(map(len, table))
    rows, drop = ctx._back_rows
    for depth in range(1, radius + 1):
        # stack entries: (a', bw(a'))
        stack = [((), v)]
        while stack:
            alpha, w = stack.pop()
            if len(alpha) + 1 == depth:
                k = table.get(w)
                if k:
                    return alpha + (k,)
                continue
            back = -alpha[-1] if alpha else 0
            reach = (depth - 2 - len(alpha)) * drop
            # pushed in reverse to pop in order
            for j, img, last in reversed(rows):
                if j == back:
                    continue
                # nothing cancels unless theta(x_j)^-1 ends in w[0]^-1 or w
                # ends in x_j^-1; an empty w puts theta(x_j)^-1 against x_j,
                # so it is counted
                if w and last != -w[0] and w[-1] != -j:
                    size = len(img) + len(w) + 1
                    if size - reach > hi or size + reach < lo:
                        continue
                    child = img + w + (j,)
                else:
                    parts = (img, w, (j,))
                    cancels = _cancels(*parts)
                    size = len(img) + len(w) + 1 - 2 * sum(cancels)
                    if size - reach > hi or size + reach < lo:
                        continue
                    child = _splice(*parts, cancels)
                stack.append((alpha + (j,), child))
    return None


def canonical_rep(ctx: TwistContext, w: FreeWord) -> FreeWord:
    """Least word, by word_sort_key, in the bounded twisted-conjugacy orbit of w.

    The orbit is theta(alpha) * w * alpha^-1 over reduced alpha up to the
    search radius; _least walks it depth first, growing alpha on its outer
    letter: the word of x_k * alpha is theta(x_k) * word(alpha) * x_k^-1,
    so each node holds its own orbit word, built from its parent's alone.
    One step changes a word's length by at most drop = max_k |theta(x_k)|
    + 1, so no descendant of a node with s steps left is shorter than its
    length less s * drop; the key orders by length first, so a subtree
    whose bound exceeds the best word's length cannot beat it and is
    skipped.  The result is a minimum over the same set of alpha, so the
    order of the walk does not matter, and the skipped words are all longer
    than it.  Orbit words keep the abelian invariant I, so none sorts below
    the least word with I, its floor (|I_c| copies of the least strand of
    each cycle c, signed as I_c, in ascending order; see _floor).  So a w at
    its floor is returned without a walk, and a walk stops once it reaches
    the floor, with the full walk's result.  This is a display normal form,
    not a complete invariant: words of the same class canonicalize
    consistently only when the search radius reaches the connecting
    conjugator.

    The context needs theta's strand permutation for the floor: for a theta
    that has none, this raises ValueError, as twisted_conj and merge do.
    """
    floor = _floor(ctx, abelian_invariant(ctx, w))
    if w.letters == floor:
        return w
    least = _least(ctx, w.letters, floor)
    # _least hands back the very tuple it was given when no orbit word beats
    # it, and then w itself, whose text may already be formatted, is the result
    return w if least is w.letters else _word(ctx.rank, least)


def _least(ctx: TwistContext, u: tuple[int, ...], floor: tuple[int, ...]) -> tuple[int, ...]:
    """canonical_rep's walk: the least orbit word of u, as raw letters, or floor once the walk reaches it.

    Every word is built at most once, from its parent's: the cancels at its
    two joins are counted (_cancels) and its length checked against the
    bound before it is sliced (_splice) or, when nothing can cancel, joined.
    The step rows and drop are the context's, built once (_out_rows).
    """
    rows, drop = ctx._out_rows
    best, best_key = u, None
    # stack entries: (word, steps left, outer letter of alpha)
    stack = [(u, ctx.bounds.radius, 0)] if ctx.bounds.radius else []
    while stack:
        w, left, outer = stack.pop()
        left -= 1
        # a child of more than slack letters, and every descendant of it, is longer than best
        slack = len(best) + left * drop
        for k, img, li, last in rows:
            if k == -outer:
                continue
            # nothing cancels unless theta(x_k) ends in w[0]^-1 or w ends in
            # x_k; an empty w puts theta(x_k) against x_k^-1, so it is counted
            if w and last != -w[0] and w[-1] != k:
                size = li + len(w) + 1
                if size > slack:
                    continue
                cand = img + w + (-k,)
            else:
                parts = (img, w, (-k,))
                cancels = _cancels(*parts)
                size = li + len(w) + 1 - 2 * sum(cancels)
                if size > slack:
                    continue
                cand = _splice(*parts, cancels)
            if cand == floor:
                return cand
            # a shorter word wins on length alone; keys are built only to
            # order two different words of the same length (whose keys
            # differ), the best word's key at most once
            if size < len(best):
                best, best_key = cand, None
            elif size == len(best) and cand != best:
                if best_key is None:
                    best_key = _letters_key(best)
                key = _letters_key(cand)
                if key < best_key:
                    best, best_key = cand, key
            if left:
                stack.append((cand, left, k))
    return best


# ---------------------------------------------------------------------------
# merged traces


@dataclass(frozen=True)
class TraceSummand:
    """One twisted conjugacy class in a merged trace."""

    coefficient: int
    representative: FreeWord
    members: tuple[FreeWord, ...]


@dataclass(frozen=True)
class MergedTrace:
    rank: int
    summands: tuple[TraceSummand, ...]
    unresolved: tuple[tuple[FreeWord, FreeWord], ...] = ()


class _Class:
    """A twisted class under construction: its coefficient sum and its summands in merge order,
    each as (raw-term position, word)."""

    __slots__ = ("members", "coeff")

    def __init__(self, i: int, w: FreeWord, c: int) -> None:
        self.members = [(i, w)]
        self.coeff = c


def _classes_hit(ctx: TwistContext, w: FreeWord, bucket: list[_Class], owner: dict) -> list[_Class]:
    """The classes of w's bucket with a member theta(a) * w * a^-1, |a| <= radius, in bucket order.

    By symmetry (v = theta(a) u a^-1 exactly when u = theta(a^-1) v a) these
    are the classes for which twisted_conj(member, w) says yes.  owner maps
    the letters of every member so far to its class; orbit words keep the
    abelian invariant of w, so every class found is in the bucket.  One walk
    of the orbit serves the whole bucket, it stops once every class is hit,
    and each hit is verified by substitution.  The walk only builds words
    of the shortest to the longest member's length: owner holds no other
    word that this orbit can reach, so no other orbit word is built.
    """
    hit: set[_Class] = set()
    sizes = [len(m) for cl in bucket for _, m in cl.members]
    for alpha, cand in _orbit(ctx, w, ctx.bounds.radius, min(sizes), max(sizes)):
        if cand in owner:
            _verified(ctx, alpha, w, cand)
            hit.add(owner[cand])
            if len(hit) == len(bucket):
                break
    return [cl for cl in bucket if cl in hit]


def merge(ctx: TwistContext, raw: GroupRingElem) -> MergedTrace:
    """Group the summands of a raw trace into twisted conjugacy classes.

    Summands are taken in order.  Classes are kept in buckets by abelian
    invariant: a class in another bucket is certainly distinct, so it is
    never searched.  When the summand's bucket is not empty, the bounded
    orbit of the summand is walked once, streamed, and looked up member by
    member; every hit is verified by substitution.  The summand joins the
    first class hit and bridges any other class it hits into that one.  If
    no class is hit, it starts a new class, and its pairs with the bucket's
    classes are Unknown: they are reported as unresolved, so the result is
    only exact when unresolved is empty.  Classes whose coefficients cancel
    are dropped.

    Each unresolved pair is (first member of a class, new summand), kept as
    their raw-term positions.  Raw terms are sorted strictly by
    word_sort_key, so sorting the positions orders members and pairs as
    their words' keys would, without building a key of a long word.  No
    pair repeats: each summand is visited once, the classes of its bucket
    are distinct and so are their first members (every raw term starts or
    joins one class), and bridging keeps the target's first member.
    """
    if raw.rank != ctx.rank:
        raise ValueError("rank mismatch")
    buckets: dict[tuple[int, ...], list[_Class]] = {}
    owner: dict[tuple[int, ...], _Class] = {}
    unresolved: list[tuple[int, int]] = []
    for i, (w, c) in enumerate(raw.terms):
        bucket = buckets.setdefault(abelian_invariant(ctx, w), [])
        hits = _classes_hit(ctx, w, bucket, owner) if bucket else []
        if hits:
            target = hits[0]
            # a summand matching several previously unmergeable classes
            # bridges them; union everything into the first
            for other in reversed(hits[1:]):
                bucket.remove(other)
                target.members.extend(other.members)
                target.coeff += other.coeff
                for _, member in other.members:
                    owner[member.letters] = target
            target.members.append((i, w))
            target.coeff += c
        else:
            for cl in bucket:
                unresolved.append((cl.members[0][0], i))
            target = _Class(i, w, c)
            bucket.append(target)
        owner[w.letters] = target
    summands = []
    # classes that tie in the stable sort below share an invariant, so their bucket keeps them in creation order
    for cl in (cl for bucket in buckets.values() for cl in bucket):
        if cl.coeff == 0:
            continue
        members = tuple(m for _, m in sorted(cl.members))
        rep = min((canonical_rep(ctx, m) for m in members), key=word_sort_key)
        summands.append(TraceSummand(cl.coeff, rep, members))
    summands.sort(key=lambda s: (0 if s.coefficient > 0 else 1, word_sort_key(s.representative)))
    pairs = tuple((raw.terms[a][0], raw.terms[b][0]) for a, b in sorted(unresolved))
    return MergedTrace(ctx.rank, tuple(summands), pairs)


def format_trace(mt: MergedTrace) -> str:
    """Render as e.g. `+[x1] +[x5^-1] -[e]`; an empty trace is `0`."""
    if not mt.summands:
        return "0"
    parts = []
    for s in mt.summands:
        sign = "+" if s.coefficient > 0 else "-"
        mag = abs(s.coefficient)
        body = f"[{format_word(s.representative)}]"
        parts.append(f"{sign}{body}" if mag == 1 else f"{sign}{mag}*{body}")
    return " ".join(parts)


def _format_pairs(pairs: tuple[tuple[FreeWord, FreeWord], ...]) -> list[list[str]]:
    """The two words of each pair, formatted: a word keeps its text, so one that recurs across pairs is formatted once."""
    return [[format_word(a), format_word(b)] for a, b in pairs]


# ---------------------------------------------------------------------------
# degenerate classes: twisted classes carried by fixed strands


@dataclass(frozen=True)
class DegenerateFamily:
    """Fixed strand i with theta(x_i) = conj * x_i * conj^-1."""

    strand: int
    conj: FreeWord


def _check_iterate(m: int) -> None:
    """ValueError unless m is an int (not a bool) of at least 1.

    This is the one check of m, run by _iterate, cli._cmd_perm and cli._cmd_is_forced.
    """
    if not _is_int(m):
        raise ValueError(f"iteration count m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("iteration count m must be >= 1")


def _iterate(beta: BraidWord, m: int) -> FreeEndo:
    """theta, the m-th iterate of beta's Artin action, folded in one pass and kept on beta.

    beta's generators are folded under the default cap, so every refusal of
    artin(beta) stands, and the fold goes on from that text through
    beta^(m-1) uncapped.  artin is a homomorphism and the fold's text is
    the reduced image, so that is the text of a fold of beta^m; it is
    decoded once.  theta is kept in beta._iterates, which only this
    function reads or fills: it dies with beta, and a refusal keeps
    nothing, so it is raised again on every call.
    """
    _check_iterate(m)
    theta = beta._iterates.get(m)
    if theta is None:
        text = _fold(beta, _generators(beta), DEFAULT_MAX_LETTERS)
        text = _fold(power(beta, m - 1), text, sys.maxsize)
        theta = beta._iterates[m] = _endo(beta.strands, text)
    return theta


def degenerate_families(beta: BraidWord, m: int) -> tuple[DegenerateFamily, ...]:
    """One family per strand fixed by the permutation of beta^m."""
    return TwistContext.create(_iterate(beta, m))._families


def is_degenerate(ctx: TwistContext, gamma: FreeWord) -> Decision:
    """Is gamma twisted conjugate to conj_i * x_i^k for some family of theta and |k| <= k_max?

    The families are theta's own, read off ctx._families.  The conjugating
    word of a fixed strand is only determined up to powers of that strand's
    generator.  A fixed strand i is its own cycle, so the invariant of
    conj * x_i^k is that of conj plus k at slot i - 1, and at most one k can
    match gamma's: k = inv(gamma)[i - 1] - inv(conj)[i - 1], when every
    other coordinate already agrees.  Any other probe would get a No from
    twisted_conj, so only that one is built and searched, and only when
    |k| <= k_max.  ValueError when theta has no families to read (see
    TwistContext._families).
    """
    if gamma.rank != ctx.rank:
        raise ValueError("rank mismatch")
    k_max = ctx.bounds.k_max
    if not ctx._families:  # no family to match, so gamma's invariant is not read
        return Decision("no", None, ("families", k_max))
    target = abelian_invariant(ctx, gamma)
    saw_unknown = False
    for fam in ctx._families:
        slot = fam.strand - 1
        gap = [t - c for t, c in zip(target, abelian_invariant(ctx, fam.conj))]
        k = gap[slot]
        gap[slot] = 0
        if any(gap) or abs(k) > k_max:
            continue
        probe = concat(fam.conj, FreeWord(ctx.rank, (fam.strand if k > 0 else -fam.strand,) * abs(k)))
        d = twisted_conj(ctx, probe, gamma)
        if d.is_yes:
            return Decision("yes", d.witness, ("family", fam.strand, k))
        if d.is_unknown:
            saw_unknown = True
    return Decision("unknown" if saw_unknown else "no", None, ("families", k_max))


# ---------------------------------------------------------------------------
# the forcing pipeline: Artin action, theta = its m-th iterate, Fox trace,
# merge by twisted conjugacy


class _Pipeline:
    """One pipeline of _analyse: the context of theta, its merged trace, and an index of the trace's classes.

    The index is filled lazily, each part on its first read, and lives only
    as long as _analyse's cache entry:
    - buckets maps an abelian invariant to the positions of the summands
      whose representatives have it, in summand order;
    - in_unresolved tells, for each summand, whether one of its members is
      in an unresolved pair;
    - degeneracy(i) is is_degenerate of summand i's representative,
      decided on the first call and then kept: the one place a class's
      degeneracy is decided.
    """

    def __init__(self, ctx: TwistContext, trace: MergedTrace) -> None:
        self.ctx = ctx
        self.trace = trace
        self._degeneracies: dict[int, Decision] = {}

    def degeneracy(self, i: int) -> Decision:
        deg = self._degeneracies.get(i)
        if deg is None:
            deg = self._degeneracies[i] = is_degenerate(self.ctx, self.trace.summands[i].representative)
        return deg

    @functools.cached_property
    def buckets(self) -> dict[tuple[int, ...], list[int]]:
        buckets: dict[tuple[int, ...], list[int]] = {}
        for i, s in enumerate(self.trace.summands):
            buckets.setdefault(abelian_invariant(self.ctx, s.representative), []).append(i)
        return buckets

    @functools.cached_property
    def in_unresolved(self) -> tuple[bool, ...]:
        fuzzy = {w for pair in self.trace.unresolved for w in pair}
        return tuple(any(member in fuzzy for member in s.members) for s in self.trace.summands)


@functools.lru_cache(maxsize=128)
def _analyse(theta: FreeEndo, bounds: SearchBounds) -> _Pipeline:
    """The forcing pipeline after the Artin action: the context of theta, its merged trace and their class index.

    theta is the iterate _iterate(beta, m), which its caller has already
    folded: is_forced also compares it with the candidate's base.

    The pipeline is cached per equal (theta, bounds), for the 128 most
    recently used, so a repeated query runs no Fox trace, merge or orbit
    walk.  The context and trace are immutable except the context's
    invariant memo, which also keeps each distinct word later asked about
    in that context, such as an is_forced tail; the class index is filled
    as queries read it (see _Pipeline).
    """
    ctx = TwistContext.create(theta, bounds)
    return _Pipeline(ctx, merge(ctx, raw_trace(theta)))


def reidemeister_trace(beta: BraidWord, m: int, bounds: SearchBounds = SearchBounds()) -> MergedTrace:
    """Merged trace of the m-th iterate of the Artin action of beta."""
    return _analyse(_iterate(beta, m), bounds).trace
