"""Record the stdout digest of every anchor command into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose outputs are known to be right;
the benchmark then fails any later run whose anchor output differs.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    digests = {}
    for argv in workloads.anchor_argvs():
        result = run.run_cli(argv)
        if result.rc != 0:
            sys.stderr.write(f"error: {' '.join(argv)} exited {result.rc}: {result.err}")
            return 1
        digests[checks.digest_key(argv)] = checks.digest(argv, result.out)
    checks.DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recorded {len(digests)} digests in {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
