"""Record the sha256 of `braidforce forced --json` for every case a seed can draw.

    python3 bench/record_digests.py

Writes bench/digests.json.  Run it on the commit whose output later commits
must reproduce byte for byte; run.py then reports every case whose digest
changed.  A case whose answer fails its check is not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    book, bad = {}, []
    for case in workloads.every_forced_case():
        state, problem, digest = workloads.check(case, workloads.run(case))
        if state == "failed":
            bad.append(f"{case['id']}: {problem}")
        else:
            book[case["id"]] = digest
    out = Path(__file__).resolve().parent / "digests.json"
    out.write_text(json.dumps(dict(sorted(book.items())), indent=0) + "\n")
    print(f"recorded {len(book)} digests in {out}")
    for line in bad:
        print(f"not recorded: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
