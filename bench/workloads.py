"""Workload inputs, the operations that run them, and the checks on their answers.

Inputs are built from the seed alone.  Checks work from outside the library:
they recompute what they need with the small reference free-group code below
(the Artin action, substitution, strand permutations), never with the
functions under test.

Every operation ends in one of four states:

* ``decided``   -- an exact forcing report or a yes/no verdict, checked;
* ``undecided`` -- an inexact report or an ``unknown`` verdict, checked;
* ``refused``   -- a documented size-cap refusal (``WordTooLongError`` or a
  limit ``ValueError`` naming its cap);
* ``failed``    -- a wrong answer or an unexpected exception.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from time import perf_counter

import braidforce as bf
from braidforce import cli

# ---------------------------------------------------------------------------
# workload definitions

# (braid, strands, m, radius): the cases timed by hand in ROADMAP item 1 that
# fit a repeated run.  s1 s2^-1 at m=5, radius 3 (about 27 s) and
# s1 s2^-1 s3 at radius 5 (about 11 s) are left out; see README.md.
ANCHORS = (
    ("s1 s2 s3^-1 s4^-1", 5, 1, 5),
    ("s1 s2^-1", 3, 3, 3),
    ("s1 s2^-1", 3, 4, 3),
    ("s1 s2^-1 s3", 4, 2, 3),
)

# One seeded draw per (strands, m) stratum: `draws` distinct freely reduced
# braid words of `length` letters whose longest theta^m generator image has
# between `lo` and `hi` letters.  Drawing per stratum keeps the mix of cheap
# and orbit-heavy cases the same from seed to seed.  The two n=3 strata with
# m > 1 are drawn whole (only their order depends on the seed) and n=3 m=1
# nearly so: op_s_p50 falls among these cheap cases, and smaller draws let it
# move with the seed by up to a quarter.
STRATA = (
    # strands, m, length, lo, hi, draws
    (3, 1, 4, 5, 9, 50),
    (3, 2, 3, 5, 13, 24),
    (3, 3, 3, 11, 19, 24),
    (4, 1, 3, 5, 11, 20),
    (4, 2, 3, 5, 9, 20),
    (5, 1, 3, 5, 9, 20),
)
STRATA_RADIUS = 3
MAX_DRAWS = 10_000

# High iterates at radius 0-1: hundreds of raw terms whose pair verdicts mostly
# stop at the abelian invariant.  s1^3 at m=12 is the reducible control whose
# 72 terms do merge (into 2 classes), so the workload has one exact report.
# An odd number of cases puts the pooled median inside one case's samples.
PAIRWISE = (
    ("s1 s2^-1", 3, 4, 1),
    ("s1 s2^-1", 3, 5, 0),
    ("s1 s2^-1", 3, 5, 1),
    ("s1 s2^-1", 3, 6, 0),
    ("s1 s2^-1 s3", 4, 3, 0),
    ("s1 s2^-1 s3", 4, 3, 1),
    ("s1 s2 s3^-1 s4^-1", 5, 6, 0),
    ("s1 s2 s3^-1 s4^-1", 5, 6, 1),
    ("s1 s1 s1", 3, 12, 1),
)

# Fixed betas of the decision stream, with their merged classes at radius 3
# as (representative, degenerate).  All of these reports are exact, so every
# is_forced query below has a known answer.
DECIDE_RADIUS = 3
DECIDE_BETAS = (
    ("s1 s2 s3^-1 s4^-1", 5, 1, (("x1", False), ("x5^-1", False), ("e", False))),
    ("s1 s2 s3^-1 s4^-1", 5, 2, (("x1 x2", False), ("x5^-1 x4^-1", False), ("e", False))),
    ("s1 s2^-1", 3, 1, (("x1", False), ("x3^-1", False), ("e", False))),
    ("s2 s1^-1 s1^-1", 3, 1, (("x1^-1", False), ("x3", False), ("e", False), ("x2^-1 x1^-1", True))),
    ("s1 s3^-1", 4, 2, (("e", False), ("x1 x2", True), ("x4^-1 x3^-1", True))),
)
# Queries per pass, by kind.
DECIDE_MIX = (
    ("twisted_conj_yes", 320),
    ("twisted_conj_no", 160),
    ("is_forced", 240),
    ("round_trip", 240),
    ("braid_eq", 240),
)
TAIL_LETTERS = 6


# ---------------------------------------------------------------------------
# reference free-group code, independent of the library


def _reduce(letters):
    out = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def _inv(w):
    return tuple(-k for k in reversed(w))


def _subst(images, w):
    """Image of the letter tuple w under generator images (a tuple of tuples)."""
    return _reduce(k for x in w for k in (images[x - 1] if x > 0 else _inv(images[-x - 1])))


def _artin_images(n, letters, m=1):
    """Generator images of theta^m, theta the Artin action of the braid word."""
    images = tuple((k,) for k in range(1, n + 1))
    for _ in range(m):
        for s in letters:
            i = abs(s)
            step = [(k,) for k in range(1, n + 1)]
            if s > 0:
                step[i - 1], step[i] = (i, i + 1, -i), (i,)
            else:
                step[i - 1], step[i] = (i + 1,), (-(i + 1), i, i + 1)
            images = tuple(_subst(step, img) for img in images)
    return images


def host_probe():
    """Seconds for one fixed reference computation that never calls braidforce
    (the Artin action of (s1 s2^-1)^6 on F3): a gauge of the host's speed."""
    start = perf_counter()
    _artin_images(3, (1, -2), 6)
    return perf_counter() - start


def _strand_perm(n, letters):
    pos = list(range(n + 1))
    for s in letters:
        i = abs(s)
        for k in range(1, n + 1):
            if pos[k] == i:
                pos[k] = i + 1
            elif pos[k] == i + 1:
                pos[k] = i
    return pos[1:]


def _cycles(perm):
    """Strand permutation cycles as lists of 1-based strands."""
    seen, out = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc, k = [], start
        while k not in seen:
            seen.add(k)
            cyc.append(k)
            k = perm[k - 1]
        out.append(cyc)
    return out


def _cycle_sums(cycles, w):
    """Exponent sums over each strand cycle: the coset of abelianize(w) modulo
    im(M - I) for the permutation matrix M, hence a twisted-class invariant."""
    return tuple(sum((1 if k > 0 else -1) for k in w if abs(k) in cyc) for cyc in cycles)


def _rand_word(rng, n, length):
    """A uniformly drawn freely reduced letter tuple of the given length."""
    out = []
    while len(out) < length:
        k = rng.choice([j for i in range(1, n + 1) for j in (i, -i)])
        if not out or out[-1] != -k:
            out.append(k)
    return tuple(out)


def _rand_braid(rng, n, length):
    return _rand_word(rng, n - 1, length)


def _fmt_word(w):
    return " ".join(f"x{k}" if k > 0 else f"x{-k}^-1" for k in w) or "e"


def _fmt_braid(letters):
    return " ".join(f"s{k}" if k > 0 else f"s{-k}^-1" for k in letters) or "e"


# ---------------------------------------------------------------------------
# input generation


def _in_band(n, m, lo, hi, letters):
    return lo <= max(len(img) for img in _artin_images(n, letters, m)) <= hi


def forced_cold(seed):
    """Anchors, then one seeded draw per stratum; each input appears once."""
    cases = [_forced_case(b, n, m, r) for b, n, m, r in ANCHORS]
    seen = {(b, n, m) for b, n, m, _ in ANCHORS}
    rejected = {}
    for idx, (n, m, length, lo, hi, draws) in enumerate(STRATA):
        rng = random.Random(f"{seed}/{idx}")
        name = f"n={n} m={m} len={length} img={lo}..{hi}"
        rejected[name] = 0
        kept = 0
        for _ in range(MAX_DRAWS):
            letters = _rand_braid(rng, n, length)
            text = _fmt_braid(letters)
            if (text, n, m) in seen or not _in_band(n, m, lo, hi, letters):
                rejected[name] += 1
                continue
            seen.add((text, n, m))
            cases.append(_forced_case(text, n, m, STRATA_RADIUS))
            kept += 1
            if kept == draws:
                break
        else:
            raise RuntimeError(f"stratum {name} yielded only {kept} of {draws} draws")
    return cases, {"rejected_draws": rejected}


def every_forced_case():
    """Every forcing case any seed can draw: anchors, stratum pools, high iterates."""
    cases = [_forced_case(b, n, m, r) for b, n, m, r in ANCHORS + PAIRWISE]
    for n, m, length, lo, hi, _ in STRATA:
        gens = [k for i in range(1, n) for k in (i, -i)]
        for letters in itertools.product(gens, repeat=length):
            if all(a != -b for a, b in zip(letters, letters[1:])) and _in_band(n, m, lo, hi, letters):
                cases.append(_forced_case(_fmt_braid(letters), n, m, STRATA_RADIUS))
    return cases


def pairwise_growth(seed):
    """The fixed high-iterate cases; the seed changes nothing, so peak memory
    does not move with the order of allocations."""
    return [_forced_case(b, n, m, r) for b, n, m, r in PAIRWISE], {}


def _forced_case(braid, n, m, radius):
    letters = bf.parse_braid(braid, n).letters
    perm = _strand_perm(n, letters * m)
    return {
        "kind": "forced",
        "id": f"n={n} m={m} r={radius} {braid}",
        "argv": ["forced", "-n", str(n), "--braid", braid, "-m", str(m), "--radius", str(radius), "--json"],
        "base": _fmt_braid(letters * m),
        # Lefschetz number: augmentation of the raw trace is 1 - trace(M),
        # and M permutes the generators, so it is 1 - (fixed strands).
        "lefschetz": 1 - sum(1 for k, p in enumerate(perm, 1) if k == p),
    }


class _Beta:
    """A fixed decision-stream beta with everything its queries need."""

    def __init__(self, braid, n, m, classes):
        self.n, self.m = n, m
        self.beta = bf.parse_braid(braid, n)
        self.base = bf.power(self.beta, m)
        self.images = _artin_images(n, self.beta.letters, m)
        self.cycles = _cycles(_strand_perm(n, self.beta.letters * m))
        self.bounds = bf.SearchBounds(DECIDE_RADIUS)
        self.ctx = bf.TwistContext.create(bf.endo_power(bf.artin(self.beta), m), self.bounds)
        self.classes = [(bf.parse_word(rep, n).letters, degenerate) for rep, degenerate in classes]
        self.labels = {_cycle_sums(self.cycles, rep) for rep, _ in self.classes}

    def twist(self, a, u):
        """theta(a) * u * a^-1."""
        return _reduce(_subst(self.images, a) + u + _inv(a))

    def word(self, letters):
        return bf.FreeWord(self.n, letters)


def _rewrite(rng, letters, n, steps):
    """Apply random braid relations: free insertions, commutations, braid moves."""
    w = list(letters)
    for _ in range(steps):
        move = rng.randrange(3)
        if move == 0:
            i = rng.randint(1, n - 1) * rng.choice((1, -1))
            pos = rng.randint(0, len(w))
            w[pos:pos] = [i, -i]
            continue
        spots = list(range(len(w) - (1 if move == 1 else 2)))
        rng.shuffle(spots)
        for p in spots:
            a, b = w[p], w[p + 1]
            if move == 1 and abs(abs(a) - abs(b)) >= 2:
                w[p], w[p + 1] = b, a
                break
            if move == 2 and a == w[p + 2] and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
                w[p : p + 3] = [b, a, b]
                break
    return tuple(w)


def decide_stream(seed):
    """A seeded stream of queries with known answers, interleaved by kind.

    Each kind cycles through the betas and through the sizes that set a
    query's cost (word lengths, m, rewrite steps, is_forced form), so the seed
    draws letters, positions, rewrite moves and the order, and the length of
    an inessential is_forced tail, which is found by rejection.  Drawn at
    random, those sizes moved op_s_p50 and op_s_tail with the seed."""
    rng = random.Random(seed)
    betas = [_Beta(*spec) for spec in DECIDE_BETAS]
    ops = []
    for kind, count in DECIDE_MIX:
        for i in range(count):
            # k: the query's index among those of its kind and beta
            ops.append(_DECIDE_GEN[kind](rng, betas[i % len(betas)], i // len(betas)))
    rng.shuffle(ops)
    return ops, {}


def _gen_tc_yes(rng, b, k):
    u = _rand_word(rng, b.n, k % 5)
    a = _rand_word(rng, b.n, 1 + k // 5 % DECIDE_RADIUS)
    return _tc_query(b, u, b.twist(a, u), "yes", len(a))


def _gen_tc_no(rng, b, k):
    u = _rand_word(rng, b.n, k % 5)
    a = _rand_word(rng, b.n, k // 5 % (DECIDE_RADIUS + 1))
    # one more generator letter moves the exponent sum of its strand cycle
    g = rng.randint(1, b.n) * rng.choice((1, -1))
    return _tc_query(b, u, _reduce(b.twist(a, u) + (g,)), "no", None)


def _tc_query(b, u, v, expect, a_len):
    return {"kind": "twisted_conj", "beta": b, "u": b.word(u), "v": b.word(v), "expect": expect, "a_len": a_len}


def _gen_is_forced(rng, b, k):
    form, j = k % 4, k // 4
    base = b.base.letters
    if form == 3:
        # the base differs from beta^m by one crossing sign: never equal
        p = rng.randrange(len(base))
        base = base[:p] + (-base[p],) + base[p + 1 :]
        tail, expect = _rand_word(rng, b.n, j % 4), "no"
    elif form == 2:
        # a tail outside every class's abelian label is inessential
        while True:
            tail = _rand_word(rng, b.n, rng.randint(1, 4))
            if _cycle_sums(b.cycles, tail) not in b.labels:
                break
        expect = "no"
    else:
        rep, degenerate = b.classes[j % len(b.classes)]
        a = _rand_word(rng, b.n, j // len(b.classes) % (DECIDE_RADIUS + 1))
        tail = b.twist(a, rep)
        expect = "no" if degenerate else "yes"
        base = _rewrite(rng, base, b.n, form * 2)
    return {
        "kind": "is_forced",
        "beta": b,
        "cand": bf.AugBraid(bf.BraidWord(b.n, base), b.word(tail)),
        "expect": expect,
    }


def _gen_round_trip(rng, b, k):
    # The same round trips for every seed, which only places them in the
    # stream: their cost climbs steeply towards the length cap, and the few
    # longest set op_s_tail.
    m = 1 + k % 3
    tail = _rand_word(random.Random(f"round trip {b.beta.letters} {k}"), b.n, k // 3 % (TAIL_LETTERS + 1))
    return {"kind": "round_trip", "x": bf.AugBraid(bf.power(b.beta, m), b.word(tail))}


def _gen_braid_eq(rng, b, k):
    letters = _rand_braid(rng, b.n, 3 + k // 2 % 4)
    other = _rewrite(rng, letters, b.n, 1 + k // 8 % 4)
    equal = k % 2 == 0
    if not equal:
        p = rng.randrange(len(other))
        other = other[:p] + (-other[p],) + other[p + 1 :]
    return {
        "kind": "braid_eq",
        "left": bf.BraidWord(b.n, letters),
        "right": bf.BraidWord(b.n, other),
        "expect": equal,
    }


_DECIDE_GEN = {
    "twisted_conj_yes": _gen_tc_yes,
    "twisted_conj_no": _gen_tc_no,
    "is_forced": _gen_is_forced,
    "round_trip": _gen_round_trip,
    "braid_eq": _gen_braid_eq,
}

BUILD = {"forced-cold": forced_cold, "pairwise-growth": pairwise_growth, "decide-stream": decide_stream}


# ---------------------------------------------------------------------------
# running one operation; library functions are looked up at call time so
# that a tracer installed on the module namespaces sees every call


def run(op):
    kind = op["kind"]
    if kind == "forced":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return code, out.getvalue(), err.getvalue()
    if kind == "twisted_conj":
        b = op["beta"]
        return bf.twisted_conj(b.ctx, op["u"], op["v"])
    if kind == "is_forced":
        b = op["beta"]
        return bf.is_forced(op["cand"], b.beta, b.m, b.bounds)
    if kind == "round_trip":
        return bf.from_word(bf.to_word(op["x"]))
    if kind == "braid_eq":
        return bf.braid_eq(op["left"], op["right"])
    raise ValueError(f"unknown op kind {kind!r}")


def is_refusal(exc):
    """Documented cap refusals: WordTooLongError and limit errors naming a cap."""
    return isinstance(exc, bf.WordTooLongError) or (isinstance(exc, ValueError) and "(cap " in str(exc))


def check(op, out):
    """Return (state, problem, digest) for a completed operation."""
    return _CHECKS[op["kind"]](op, out)


def _check_forced(op, out):
    code, stdout, stderr = out
    if code == 2:
        state = "refused" if "(cap " in stderr else "failed"
        return state, f"exit 2: {stderr.strip()}", None
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    doc = json.loads(stdout)
    problems = []
    if code != (0 if doc["exact"] else 1):
        problems.append(f"exit code {code} disagrees with exact={doc['exact']}")
    total = sum(c["coefficient"] for c in doc["classes"])
    if total != op["lefschetz"]:
        problems.append(f"coefficients sum to {total}, raw trace augments to {op['lefschetz']}")
    if doc["exact"]:
        if doc["unresolved"]:
            problems.append("exact report with unresolved pairs")
        if any("unknown" in (c["degeneracy"], c["boundary"]) for c in doc["classes"]):
            problems.append("exact report with an unknown verdict")
    nondegenerate = {c["representative"] for c in doc["classes"] if c["degeneracy"] == "no"}
    for f in doc["forced"]:
        if f["tail"] not in nondegenerate:
            problems.append(f"forced tail [{f['tail']}] is not a non-degenerate class")
        if f["base"] != op["base"]:
            problems.append(f"forced base {f['base']} is not beta^m")
    if problems:
        return "failed", "; ".join(problems), digest
    return ("decided" if doc["exact"] else "undecided"), None, digest


def _check_witness(b, u, v, witness, max_len):
    if witness is None:
        return "yes without a witness"
    if max_len is not None and len(witness) > max_len:
        return f"witness of {len(witness)} letters, a conjugator of {max_len} exists"
    if b.twist(witness.letters, u) != v:
        return "witness fails substitution"
    return None


def _check_twisted_conj(op, d):
    if d.kind != op["expect"]:
        return "failed", f"twisted_conj said {d.kind}, expected {op['expect']}", None
    if d.kind == "yes":
        problem = _check_witness(op["beta"], op["u"].letters, op["v"].letters, d.witness, op["a_len"])
        if problem:
            return "failed", problem, None
    return "decided", None, None


def _check_is_forced(op, d):
    if d.kind != op["expect"]:
        return "failed", f"is_forced said {d.kind}, expected {op['expect']}", None
    if d.kind == "yes":
        b = op["beta"]
        rep = d.certificate[1].letters
        if (rep, False) not in b.classes:
            return "failed", f"yes names [{_fmt_word(rep)}], not a forced class", None
        problem = _check_witness(b, rep, op["cand"].tail.letters, d.witness, None)
        if problem:
            return "failed", problem, None
    return "decided", None, None


def _check_round_trip(op, y):
    x = op["x"]
    if y.tail != x.tail or y.base.strands != x.base.strands:
        return "failed", f"round trip gave {bf.format_aug(y)} for {bf.format_aug(x)}", None
    if _artin_images(x.base.strands, y.base.letters) != _artin_images(x.base.strands, x.base.letters):
        return "failed", f"round trip base {bf.format_braid(y.base)} differs", None
    return "decided", None, None


def _check_braid_eq(op, equal):
    if equal is not op["expect"]:
        return "failed", f"braid_eq said {equal}, expected {op['expect']}", None
    return "decided", None, None


_CHECKS = {
    "forced": _check_forced,
    "twisted_conj": _check_twisted_conj,
    "is_forced": _check_is_forced,
    "round_trip": _check_round_trip,
    "braid_eq": _check_braid_eq,
}
