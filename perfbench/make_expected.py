"""Record the answer of every benchmark case into expected.json.

    python3 perfbench/make_expected.py

Runs every argv any workload can draw (braid fuzz seeds fixed at one
value; the recorded answer does not depend on it) through the current
code and writes the fields `cases.summarize` extracts. The committed file
was produced from the code of the commit that added the benchmark.
Regenerate it only for a change meant to alter answers, and say so,
because the benchmark counts every difference from it as a failed case.
"""

from __future__ import annotations

import json
import sys

import cases
from worker import EXPECTED, import_cli, run_case


def main() -> int:
    cli = import_cli()
    expected = {}
    for workload in cases.STRATA:
        for argv in cases.grid(workload):
            argv = ["1" if a == cases.SEED_SLOT else a for a in argv]
            code, stdout, _, error = run_case(cli, argv)
            if error is not None:
                print(f"{argv} raised:\n{error}", file=sys.stderr)
                return 1
            expected[cases.key(argv)] = cases.summarize(argv, code, stdout)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(expected)} answers -> {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
