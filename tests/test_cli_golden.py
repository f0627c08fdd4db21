"""Exact stdout bytes and exit codes of the CLI's JSON outputs other than `forced`.

`forced --json` is pinned case by case in `bench/digests.json`; these goldens pin
the other commands that serialize traces and decisions, so a refactor of the
shared pipeline or of the JSON helpers must reproduce them byte for byte.
"""

import pytest

from braidforce import cli

WORKED = "s1 s2 s3^-1 s4^-1"

GOLDEN = [
    pytest.param(
        ['trace', '-n', '5', '--braid', WORKED, '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "trace": "+[x1] +[x5^-1] -[e]",
  "summands": [
    {
      "coefficient": 1,
      "representative": "x1"
    },
    {
      "coefficient": 1,
      "representative": "x5^-1"
    },
    {
      "coefficient": -1,
      "representative": "e"
    }
  ],
  "unresolved": [],
  "exact": true
}
""",
        id='trace-exact',
    ),
    pytest.param(
        ['trace', '-n', '3', '--braid', 's1 s2^-1', '-m', '2', '--radius', '1', '--json'],
        1,
        """\
{
  "n": 3,
  "m": 2,
  "braid": "s1 s2^-1",
  "bounds": {
    "radius": 1,
    "k_max": 6
  },
  "trace": "+[x1] +[x2] +[x3^-1] +[x3^-1 x2^-1 x3] -[e] -[x1 x3] -[x3^-1 x2^-1]",
  "summands": [
    {
      "coefficient": 1,
      "representative": "x1"
    },
    {
      "coefficient": 1,
      "representative": "x2"
    },
    {
      "coefficient": 1,
      "representative": "x3^-1"
    },
    {
      "coefficient": 1,
      "representative": "x3^-1 x2^-1 x3"
    },
    {
      "coefficient": -1,
      "representative": "e"
    },
    {
      "coefficient": -1,
      "representative": "x1 x3"
    },
    {
      "coefficient": -1,
      "representative": "x3^-1 x2^-1"
    }
  ],
  "unresolved": [
    [
      "x3^-1",
      "x3^-1 x2^-1 x3 x1 x3^-1"
    ],
    [
      "x1 x3 x1^-1",
      "x1 x3 x1^-1 x3^-1 x2 x3 x1 x3^-1 x1^-1"
    ]
  ],
  "exact": false
}
""",
        id='trace-inexact',
    ),
    pytest.param(
        ['twisted-conj', '-n', '5', '--braid', WORKED, '--word', 'e', '--word', 'x5^-1 x4', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "u": "e",
  "v": "x5^-1 x4",
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "verdict": "yes",
  "witness": "x5",
  "certificate": []
}
""",
        id='twisted-conj-yes',
    ),
    pytest.param(
        ['twisted-conj', '-n', '5', '--braid', WORKED, '--word', 'e', '--word', 'x1 x1', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "u": "e",
  "v": "x1 x1",
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "verdict": "no",
  "witness": null,
  "certificate": [
    "abelian",
    [
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0,
      2
    ]
  ]
}
""",
        id='twisted-conj-no',
    ),
    pytest.param(
        ['twisted-conj', '-n', '5', '--braid', WORKED, '--word', 'x2', '--word', 'x3', '--radius', '0', '--json'],
        1,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "u": "x2",
  "v": "x3",
  "bounds": {
    "radius": 0,
    "k_max": 6
  },
  "verdict": "unknown",
  "witness": null,
  "certificate": [
    "radius",
    0
  ]
}
""",
        id='twisted-conj-unknown',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--word', 'x5^-1', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "candidate": {
    "base": "s1 s2 s3^-1 s4^-1",
    "tail": "x5^-1"
  },
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "verdict": "yes",
  "witness": "e",
  "certificate": [
    "class",
    "x5^-1"
  ]
}
""",
        id='is-forced-yes',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--word', 'x1 x1', '--radius', '2', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "candidate": {
    "base": "s1 s2 s3^-1 s4^-1",
    "tail": "x1 x1"
  },
  "bounds": {
    "radius": 2,
    "k_max": 6
  },
  "verdict": "no",
  "witness": null,
  "certificate": [
    "inessential"
  ]
}
""",
        id='is-forced-inessential',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--aug', '(s1 ; e)', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "candidate": {
    "base": "s1",
    "tail": "e"
  },
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "verdict": "no",
  "witness": null,
  "certificate": [
    "base_mismatch"
  ]
}
""",
        id='is-forced-base-mismatch',
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN)
def test_cli_json_golden(argv, code, stdout, capsys):
    assert cli.main(argv) == code
    assert capsys.readouterr().out == stdout
