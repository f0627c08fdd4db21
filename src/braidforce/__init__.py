"""Exact symbolic computation of forced orbit braids.

A braid on n strands acts on the free group of rank n.  Fox calculus turns
that action into a Reidemeister trace whose essential twisted conjugacy
classes, after discarding the degenerate ones carried by fixed strands,
each force a braid on n+1 strands: every homeomorphism inducing the braid
must exhibit it among its iterate orbits.  All computations are exact;
searches that are bounded for decidability report Unknown instead of
guessing.

The package exports the supported API: the pipeline stages and the types
they take and return.  Everything else stays importable from its module,
for example ``from braidforce.freegroup import apply, concat``.
"""

from .freegroup import FreeEndo, FreeWord, endo_power, format_word, parse_word
from .braid import (
    BraidWord,
    Permutation,
    WordTooLongError,
    artin,
    braid_eq,
    format_braid,
    parse_braid,
    perm,
    power,
)
from .foxcalc import GroupRingElem, raw_trace
from .nielsen import (
    Decision,
    DegenerateFamily,
    MergedTrace,
    SearchBounds,
    TraceSummand,
    TwistContext,
    degenerate_families,
    format_trace,
    merge,
    reidemeister_trace,
    twisted_conj,
)
from .augbraid import AugBraid, format_aug, from_word, to_word
from .forcing import ClassReport, ForcingReport, forced_set, is_forced

__version__ = "0.1.0"

__all__ = [
    "FreeWord",
    "FreeEndo",
    "parse_word",
    "format_word",
    "endo_power",
    "BraidWord",
    "Permutation",
    "WordTooLongError",
    "parse_braid",
    "format_braid",
    "power",
    "perm",
    "artin",
    "braid_eq",
    "GroupRingElem",
    "raw_trace",
    "SearchBounds",
    "Decision",
    "TwistContext",
    "MergedTrace",
    "TraceSummand",
    "DegenerateFamily",
    "twisted_conj",
    "merge",
    "format_trace",
    "reidemeister_trace",
    "degenerate_families",
    "AugBraid",
    "to_word",
    "from_word",
    "format_aug",
    "ClassReport",
    "ForcingReport",
    "forced_set",
    "is_forced",
]
