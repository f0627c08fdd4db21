"""Exact stdout bytes and exit codes of the CLI.

`forced --json` is pinned case by case in `bench/digests.json`. `GOLDEN` pins
the other commands that serialize traces and decisions, so a refactor of the
shared pipeline or of the JSON helpers must reproduce them byte for byte.
`GOLDEN_BOTH_MODES` pins stdout, stderr and exit code of every subcommand in
text and in `--json`, error paths included.
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidforce import BraidWord, cli, format_braid, perm, power

WORKED = "s1 s2 s3^-1 s4^-1"
ROUND_TRIP_PAST_THE_CAP = "s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2 s1^-1 s1^-1"

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
    pytest.param(
        ['is-forced', '-n', '3', '--braid', 's1 s2^-1', '-m', '5', '--aug', '(s1 ; e)', '--json'],
        0,
        """\
{
  "n": 3,
  "m": 5,
  "braid": "s1 s2^-1",
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
        id='is-forced-base-mismatch-past-the-word-cap',
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN)
def test_cli_json_golden(argv, code, stdout, capsys):
    assert cli.main(argv) == code
    assert capsys.readouterr().out == stdout


GOLDEN_BOTH_MODES = [
    pytest.param(
        ['action', '-n', '5', '--braid', WORKED],
        0,
        """\
x1 -> x1 x2 x5 x2^-1 x1^-1
x2 -> x1
x3 -> x2
x4 -> x5^-1 x3 x5
x5 -> x5^-1 x4 x5
""",
        '',
        id='action-text',
    ),
    pytest.param(
        ['action', '-n', '5', '--braid', WORKED, '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "images": [
    "x1 x2 x5 x2^-1 x1^-1",
    "x1",
    "x2",
    "x5^-1 x3 x5",
    "x5^-1 x4 x5"
  ]
}
""",
        '',
        id='action-json',
    ),
    pytest.param(
        ['perm', '-n', '5', '--braid', WORKED, '-m', '2'],
        0,
        """\
4 5 1 2 3
""",
        '',
        id='perm-text',
    ),
    pytest.param(
        ['perm', '-n', '5', '--braid', WORKED, '-m', '2', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 2,
  "braid": "s1 s2 s3^-1 s4^-1",
  "perm": [
    4,
    5,
    1,
    2,
    3
  ]
}
""",
        '',
        id='perm-json',
    ),
    pytest.param(
        ['trace', '-n', '5', '--braid', WORKED],
        0,
        """\
+[x1] +[x5^-1] -[e]
""",
        '',
        id='trace-exact-text',
    ),
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
        '',
        id='trace-exact-json',
    ),
    pytest.param(
        ['trace', '-n', '3', '--braid', 's1 s2^-1', '-m', '2', '--radius', '1'],
        1,
        """\
+[x1] +[x2] +[x3^-1] +[x3^-1 x2^-1 x3] -[e] -[x1 x3] -[x3^-1 x2^-1]
unresolved: [x3^-1] ~? [x3^-1 x2^-1 x3 x1 x3^-1]
unresolved: [x1 x3 x1^-1] ~? [x1 x3 x1^-1 x3^-1 x2 x3 x1 x3^-1 x1^-1]
""",
        '',
        id='trace-inexact-text',
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
        '',
        id='trace-inexact-json',
    ),
    pytest.param(
        ['forced', '-n', '5', '--braid', WORKED],
        0,
        """\
braid: s1 s2 s3^-1 s4^-1
strands: 5
iterate m: 1
base word: s1 s2 s3^-1 s4^-1
bounds: radius=5 k_max=6
boundary_fixed: no
permissive: no
trace: +[x1] +[x5^-1] -[e]
classes:
  coeff=+1 rep=[x1] degenerate=no label=(0, 0, 0, 0, 1)
  coeff=+1 rep=[x5^-1] degenerate=no label=(0, 0, 0, 0, -1)
  coeff=-1 rep=[e] degenerate=no label=(0, 0, 0, 0, 0)
forced count: 3
  (s1 s2 s3^-1 s4^-1 ; x1) word: s1 s2 s3^-1 s4^-1 s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1
  (s1 s2 s3^-1 s4^-1 ; x5^-1) word: s1 s2 s3^-1 s4^-1 s5^-1 s5^-1
  (s1 s2 s3^-1 s4^-1 ; e) word: s1 s2 s3^-1 s4^-1
unresolved pairs: none
exact: yes
""",
        '',
        id='forced-text',
    ),
    pytest.param(
        ['forced', '-n', '5', '--braid', WORKED, '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "beta": "s1 s2 s3^-1 s4^-1",
  "base_word": "s1 s2 s3^-1 s4^-1",
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "boundary_fixed": false,
  "permissive": false,
  "trace": "+[x1] +[x5^-1] -[e]",
  "classes": [
    {
      "coefficient": 1,
      "representative": "x1",
      "degeneracy": "no",
      "abelian_label": [
        0,
        0,
        0,
        0,
        1
      ],
      "boundary": null
    },
    {
      "coefficient": 1,
      "representative": "x5^-1",
      "degeneracy": "no",
      "abelian_label": [
        0,
        0,
        0,
        0,
        -1
      ],
      "boundary": null
    },
    {
      "coefficient": -1,
      "representative": "e",
      "degeneracy": "no",
      "abelian_label": [
        0,
        0,
        0,
        0,
        0
      ],
      "boundary": null
    }
  ],
  "forced": [
    {
      "base": "s1 s2 s3^-1 s4^-1",
      "tail": "x1",
      "word": "s1 s2 s3^-1 s4^-1 s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1"
    },
    {
      "base": "s1 s2 s3^-1 s4^-1",
      "tail": "x5^-1",
      "word": "s1 s2 s3^-1 s4^-1 s5^-1 s5^-1"
    },
    {
      "base": "s1 s2 s3^-1 s4^-1",
      "tail": "e",
      "word": "s1 s2 s3^-1 s4^-1"
    }
  ],
  "unresolved": [],
  "exact": true
}
""",
        '',
        id='forced-json',
    ),
    pytest.param(
        ['forced', '-n', '5', '--braid', WORKED, '--boundary-fixed'],
        0,
        """\
braid: s1 s2 s3^-1 s4^-1
strands: 5
iterate m: 1
base word: s1 s2 s3^-1 s4^-1
bounds: radius=5 k_max=6
boundary_fixed: yes
permissive: no
trace: +[x1] +[x5^-1] -[e]
classes:
  coeff=+1 rep=[x1] degenerate=no label=(0, 0, 0, 0, 1) boundary=no
  coeff=+1 rep=[x5^-1] degenerate=no label=(0, 0, 0, 0, -1) boundary=no
  coeff=-1 rep=[e] degenerate=no label=(0, 0, 0, 0, 0) boundary=yes
forced count: 2
  (s1 s2 s3^-1 s4^-1 ; x1) word: s1 s2 s3^-1 s4^-1 s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1
  (s1 s2 s3^-1 s4^-1 ; x5^-1) word: s1 s2 s3^-1 s4^-1 s5^-1 s5^-1
unresolved pairs: none
exact: yes
""",
        '',
        id='forced-boundary-fixed-text',
    ),
    pytest.param(
        ['forced', '-n', '5', '--braid', WORKED, '--boundary-fixed', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "beta": "s1 s2 s3^-1 s4^-1",
  "base_word": "s1 s2 s3^-1 s4^-1",
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "boundary_fixed": true,
  "permissive": false,
  "trace": "+[x1] +[x5^-1] -[e]",
  "classes": [
    {
      "coefficient": 1,
      "representative": "x1",
      "degeneracy": "no",
      "abelian_label": [
        0,
        0,
        0,
        0,
        1
      ],
      "boundary": "no"
    },
    {
      "coefficient": 1,
      "representative": "x5^-1",
      "degeneracy": "no",
      "abelian_label": [
        0,
        0,
        0,
        0,
        -1
      ],
      "boundary": "no"
    },
    {
      "coefficient": -1,
      "representative": "e",
      "degeneracy": "no",
      "abelian_label": [
        0,
        0,
        0,
        0,
        0
      ],
      "boundary": "yes"
    }
  ],
  "forced": [
    {
      "base": "s1 s2 s3^-1 s4^-1",
      "tail": "x1",
      "word": "s1 s2 s3^-1 s4^-1 s5 s4 s3 s2 s1 s1 s2^-1 s3^-1 s4^-1 s5^-1"
    },
    {
      "base": "s1 s2 s3^-1 s4^-1",
      "tail": "x5^-1",
      "word": "s1 s2 s3^-1 s4^-1 s5^-1 s5^-1"
    }
  ],
  "unresolved": [],
  "exact": true
}
""",
        '',
        id='forced-boundary-fixed-json',
    ),
    pytest.param(
        ['forced', '-n', '3', '--braid', 's1 s1', '--radius', '0', '--k-max', '1', '--permissive'],
        1,
        """\
braid: s1 s1
strands: 3
iterate m: 1
base word: s1 s1
bounds: radius=0 k_max=1
boundary_fixed: no
permissive: yes
trace: +[x1 x2 x1 x2^-1 x1^-1] -[e] -[x1] -[x1 x2]
classes:
  coeff=+1 rep=[x1 x2 x1 x2^-1 x1^-1] degenerate=unknown label=(1, 0, 0)
  coeff=-1 rep=[e] degenerate=yes label=(0, 0, 0)
  coeff=-1 rep=[x1] degenerate=yes label=(1, 0, 0)
  coeff=-1 rep=[x1 x2] degenerate=yes label=(1, 1, 0)
forced count: 1
  (s1 s1 ; x1 x2 x1 x2^-1 x1^-1) word: s1 s1 s3 s2 s1 s1 s2^-1 s3^-1 s3 s2 s2 s3^-1 s3 s2 s1 s1 s2^-1 s3^-1 s3 s2^-1 s2^-1 s3^-1 s3 s2 s1^-1 s1^-1 s2^-1 s3^-1
unresolved pairs:
  [x1] ~? [x1 x2 x1 x2^-1 x1^-1]
exact: no
""",
        '',
        id='forced-permissive-text',
    ),
    pytest.param(
        ['forced', '-n', '3', '--braid', 's1 s1', '--radius', '0', '--k-max', '1', '--permissive', '--json'],
        1,
        """\
{
  "n": 3,
  "m": 1,
  "beta": "s1 s1",
  "base_word": "s1 s1",
  "bounds": {
    "radius": 0,
    "k_max": 1
  },
  "boundary_fixed": false,
  "permissive": true,
  "trace": "+[x1 x2 x1 x2^-1 x1^-1] -[e] -[x1] -[x1 x2]",
  "classes": [
    {
      "coefficient": 1,
      "representative": "x1 x2 x1 x2^-1 x1^-1",
      "degeneracy": "unknown",
      "abelian_label": [
        1,
        0,
        0
      ],
      "boundary": null
    },
    {
      "coefficient": -1,
      "representative": "e",
      "degeneracy": "yes",
      "abelian_label": [
        0,
        0,
        0
      ],
      "boundary": null
    },
    {
      "coefficient": -1,
      "representative": "x1",
      "degeneracy": "yes",
      "abelian_label": [
        1,
        0,
        0
      ],
      "boundary": null
    },
    {
      "coefficient": -1,
      "representative": "x1 x2",
      "degeneracy": "yes",
      "abelian_label": [
        1,
        1,
        0
      ],
      "boundary": null
    }
  ],
  "forced": [
    {
      "base": "s1 s1",
      "tail": "x1 x2 x1 x2^-1 x1^-1",
      "word": "s1 s1 s3 s2 s1 s1 s2^-1 s3^-1 s3 s2 s2 s3^-1 s3 s2 s1 s1 s2^-1 s3^-1 s3 s2^-1 s2^-1 s3^-1 s3 s2 s1^-1 s1^-1 s2^-1 s3^-1"
    }
  ],
  "unresolved": [
    [
      "x1",
      "x1 x2 x1 x2^-1 x1^-1"
    ]
  ],
  "exact": false
}
""",
        '',
        id='forced-permissive-json',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--word', 'x5^-1'],
        0,
        """\
verdict: yes
witness: e
certificate: class x5^-1
""",
        '',
        id='is-forced-word-text',
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
        '',
        id='is-forced-word-json',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--aug', '(s1 s2 s3^-1 s4^-1 ; x1)'],
        0,
        """\
verdict: yes
witness: e
certificate: class x1
""",
        '',
        id='is-forced-aug-text',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--aug', '(s1 s2 s3^-1 s4^-1 ; x1)', '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "candidate": {
    "base": "s1 s2 s3^-1 s4^-1",
    "tail": "x1"
  },
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "verdict": "yes",
  "witness": "e",
  "certificate": [
    "class",
    "x1"
  ]
}
""",
        '',
        id='is-forced-aug-json',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--cand', 's1 s2 s3^-1 s4^-1 s5^-1 s5^-1'],
        0,
        """\
verdict: yes
witness: e
certificate: class x5^-1
""",
        '',
        id='is-forced-cand-text',
    ),
    pytest.param(
        ['is-forced', '-n', '5', '--braid', WORKED, '--cand', 's1 s2 s3^-1 s4^-1 s5^-1 s5^-1', '--json'],
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
        '',
        id='is-forced-cand-json',
    ),
    pytest.param(
        ['degenerate', '-n', '3', '--braid', 's1', '-m', '2'],
        0,
        """\
strand 1: conj = x1 x2
strand 2: conj = x1
strand 3: conj = e
""",
        '',
        id='degenerate-families-text',
    ),
    pytest.param(
        ['degenerate', '-n', '3', '--braid', 's1', '-m', '2', '--json'],
        0,
        """\
{
  "n": 3,
  "m": 2,
  "braid": "s1",
  "families": [
    {
      "strand": 1,
      "conj": "x1 x2"
    },
    {
      "strand": 2,
      "conj": "x1"
    },
    {
      "strand": 3,
      "conj": "e"
    }
  ]
}
""",
        '',
        id='degenerate-families-json',
    ),
    pytest.param(
        ['degenerate', '-n', '5', '--braid', WORKED],
        0,
        """\
none
""",
        '',
        id='degenerate-none-text',
    ),
    pytest.param(
        ['degenerate', '-n', '5', '--braid', WORKED, '--json'],
        0,
        """\
{
  "n": 5,
  "m": 1,
  "braid": "s1 s2 s3^-1 s4^-1",
  "families": []
}
""",
        '',
        id='degenerate-none-json',
    ),
    pytest.param(
        ['eq', '-n', '3', '--braid', 's1 s2 s1', '--braid', 's2 s1 s2'],
        0,
        """\
equal
""",
        '',
        id='eq-equal-text',
    ),
    pytest.param(
        ['eq', '-n', '3', '--braid', 's1 s2 s1', '--braid', 's2 s1 s2', '--json'],
        0,
        """\
{
  "n": 3,
  "left": "s1 s2 s1",
  "right": "s2 s1 s2",
  "equal": true
}
""",
        '',
        id='eq-equal-json',
    ),
    pytest.param(
        ['eq', '-n', '3', '--braid', 's1 s2', '--braid', 's2 s1'],
        0,
        """\
not equal
""",
        '',
        id='eq-not-equal-text',
    ),
    pytest.param(
        ['eq', '-n', '3', '--braid', 's1 s2', '--braid', 's2 s1', '--json'],
        0,
        """\
{
  "n": 3,
  "left": "s1 s2",
  "right": "s2 s1",
  "equal": false
}
""",
        '',
        id='eq-not-equal-json',
    ),
    pytest.param(
        ['twisted-conj', '-n', '5', '--braid', WORKED, '--word', 'e', '--word', 'x5^-1 x4'],
        0,
        """\
verdict: yes
witness: x5
""",
        '',
        id='twisted-conj-yes-text',
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
        '',
        id='twisted-conj-yes-json',
    ),
    pytest.param(
        ['twisted-conj', '-n', '5', '--braid', WORKED, '--word', 'e', '--word', 'x1 x1'],
        0,
        """\
verdict: no
certificate: abelian [0, 0, 0, 0, 0] [0, 0, 0, 0, 2]
""",
        '',
        id='twisted-conj-no-text',
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
        '',
        id='twisted-conj-no-json',
    ),
    pytest.param(
        ['twisted-conj', '-n', '5', '--braid', WORKED, '--word', 'x2', '--word', 'x3', '--radius', '0'],
        1,
        """\
verdict: unknown
certificate: radius 0
""",
        '',
        id='twisted-conj-unknown-text',
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
        '',
        id='twisted-conj-unknown-json',
    ),
    pytest.param(
        ['decompose', '-n', '2', '--braid', 's1 s2 s2 s1^-1'],
        0,
        """\
(s1 s1^-1 ; x2^-1 x1 x2)
""",
        '',
        id='decompose-text',
    ),
    pytest.param(
        ['decompose', '-n', '2', '--braid', 's1 s2 s2 s1^-1', '--json'],
        0,
        """\
{
  "punctures": 2,
  "input": "s1 s2 s2 s1^-1",
  "base": "s1 s1^-1",
  "tail": "x2^-1 x1 x2"
}
""",
        '',
        id='decompose-json',
    ),
    pytest.param(
        ['eq', '-n', '3'],
        2,
        '',
        'usage: braidforce eq [-h] -n STRANDS --braid BRAID [--json]\nbraidforce eq: error: the following arguments are required: --braid\n',
        id='parse-error-text',
    ),
    pytest.param(
        ['eq', '-n', '3', '--json'],
        2,
        '',
        'usage: braidforce eq [-h] -n STRANDS --braid BRAID [--json]\nbraidforce eq: error: the following arguments are required: --braid\n',
        id='parse-error-json',
    ),
    pytest.param(
        ['forced', '-n', '5', '--braid', WORKED, '-m', '0'],
        2,
        '',
        'error: iteration count m must be >= 1\n',
        id='m-zero-text',
    ),
    pytest.param(
        ['forced', '-n', '5', '--braid', WORKED, '-m', '0', '--json'],
        2,
        '',
        'error: iteration count m must be >= 1\n',
        id='m-zero-json',
    ),
    # a round trip is verified by its letters: folded through this word, the
    # generator images pass the cap, but x4's, the one read, stays x4
    pytest.param(
        ['decompose', '-n', '3', '--braid', ROUND_TRIP_PAST_THE_CAP],
        0,
        """\
(s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 ; e)
""",
        '',
        id='decompose-round-trip-past-the-cap-text',
    ),
    pytest.param(
        ['decompose', '-n', '3', '--braid', ROUND_TRIP_PAST_THE_CAP, '--json'],
        0,
        """\
{
  "punctures": 3,
  "input": "s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2 s1^-1 s1^-1",
  "base": "s2 s1^-1 s1^-1 s2 s1^-1 s1^-1 s2 s1^-1 s1^-1",
  "tail": "e"
}
""",
        '',
        id='decompose-round-trip-past-the-cap-json',
    ),
    # the --word candidate's base is the word beta^m, which acts by theta
    # unfolded; folded as one word it would grow past the cap
    pytest.param(
        ['is-forced', '-n', '3', '--braid', 's1 s2^-1', '-m', '5', '--word', 'x1'],
        1,
        """\
verdict: unknown
certificate: unresolved_class x1
""",
        '',
        id='is-forced-word-past-the-cap-text',
    ),
    pytest.param(
        ['is-forced', '-n', '3', '--braid', 's1 s2^-1', '-m', '5', '--word', 'x1', '--json'],
        1,
        """\
{
  "n": 3,
  "m": 5,
  "braid": "s1 s2^-1",
  "candidate": {
    "base": "s1 s2^-1 s1 s2^-1 s1 s2^-1 s1 s2^-1 s1 s2^-1",
    "tail": "x1"
  },
  "bounds": {
    "radius": 5,
    "k_max": 6
  },
  "verdict": "unknown",
  "witness": null,
  "certificate": [
    "unresolved_class",
    "x1"
  ]
}
""",
        '',
        id='is-forced-word-past-the-cap-json',
    ),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", GOLDEN_BOTH_MODES)
def test_cli_golden_both_modes(argv, code, stdout, stderr, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, stdout, stderr)


def test_perm_at_a_huge_iterate_prints_what_its_residue_prints(capsys):
    # every cycle of the worked braid's permutation has length 5, and
    # 10**18 + 2 = 2 mod 5; spelling beta^m letter by letter ran out of memory
    argv = ['perm', '-n', '5', '--braid', WORKED, '-m']
    assert cli.main(argv + ['2']) == 0
    small = capsys.readouterr()
    assert cli.main(argv + ['1000000000000000002']) == 0
    assert capsys.readouterr() == small


@pytest.mark.parametrize(
    "command",
    [
        ['is-forced', '--word', 'x1'],
        ['action'],
        ['trace'],
        ['forced'],
        ['degenerate'],
        ['twisted-conj', '--word', 'x1', '--word', 'x2'],
        ['is-forced', '--aug', '(s1 ; x1)'],
    ],
    ids=['is-forced-word', 'action', 'trace', 'forced', 'degenerate', 'twisted-conj', 'is-forced-aug'],
)
def test_an_iterate_command_at_a_huge_m_is_an_error_not_an_unknown(command, capsys):
    # theta^m is folded from beta^m, whose letters ask for more memory than
    # exists; power raises MemoryError before it allocates, so no iterate
    # runs on, and exit 1 would read as unknown
    argv = [command[0], '-n', '5', '--braid', WORKED, '-m', '1000000000000000002', *command[1:]]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr() == ('', 'error: out of memory\n')


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_perm_moves_each_strand_along_its_cycle_as_the_spelled_power_does(data):
    n = data.draw(st.integers(2, 6))
    letters = data.draw(st.lists(st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k])), max_size=8))
    m = data.draw(st.integers(1, 13))
    beta = BraidWord(n, tuple(letters))
    args = cli.build_parser().parse_args(['perm', '-n', str(n), '--braid', format_braid(beta), '-m', str(m), '--json'])
    code, doc = args.run(args)
    assert (code, doc["perm"]) == (0, list(perm(power(beta, m)).images))


# the --json writer against the standard encoder

STRINGS = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f/aé€😀') | st.characters(), max_size=6)
SCALARS = STRINGS | st.integers() | st.integers(-(2**100), 2**100) | st.booleans() | st.none()


def documents(shared):
    """Nested lists, tuples and str-keyed dicts, empty or not, whose strings and keys include the object shared."""
    keys = STRINGS | st.just(shared)
    return st.recursive(
        SCALARS | st.just(shared),
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(keys, kids, max_size=4),
        max_leaves=24,
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_json_writer_matches_the_standard_encoder(data):
    shared = data.draw(STRINGS)
    doc = data.draw(documents(shared))
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_escapes_a_recurring_string_alike_at_each_place():
    s = 'x1 "x2"\\ é'
    doc = {s: [s, (s, {s: s})], "k": s}
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_json_writer_refuses_floats_and_keys_that_are_not_str(doc):
    # the standard encoder would write these; no --json document holds one
    with pytest.raises(TypeError):
        cli._json_text(doc)
