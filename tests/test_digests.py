"""Byte identity of `braidforce forced --json` on the benchmark's fixed cases.

bench/digests.json holds the sha256 of the output of every benchmark case
(bench/record_digests.py writes it).  This test reruns the anchor cases and
the high-iterate cases through the CLI and compares; it only reads the file.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from braidforce.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text())

CASES = [
    # anchors
    "n=5 m=1 r=5 s1 s2 s3^-1 s4^-1",
    "n=3 m=3 r=3 s1 s2^-1",
    "n=3 m=4 r=3 s1 s2^-1",
    "n=4 m=2 r=3 s1 s2^-1 s3",
    # high iterates at radius 0-1
    "n=3 m=4 r=1 s1 s2^-1",
    "n=3 m=5 r=0 s1 s2^-1",
    "n=3 m=5 r=1 s1 s2^-1",
    "n=3 m=6 r=0 s1 s2^-1",
    "n=4 m=3 r=0 s1 s2^-1 s3",
    "n=4 m=3 r=1 s1 s2^-1 s3",
    "n=5 m=6 r=0 s1 s2 s3^-1 s4^-1",
    "n=5 m=6 r=1 s1 s2 s3^-1 s4^-1",
    "n=3 m=12 r=1 s1 s1 s1",
]


def _argv(case_id):
    """`n=N m=M r=R <braid>` as the arguments of `braidforce forced --json`."""
    n, m, r, braid = case_id.split(" ", 3)
    return ["forced", "-n", n[2:], "--braid", braid, "-m", m[2:], "--radius", r[2:], "--json"]


@pytest.mark.parametrize("case_id", CASES)
def test_forced_json_matches_recorded_digest(case_id):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(case_id))
    assert code in (0, 1)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[case_id]
