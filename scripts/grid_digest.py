#!/usr/bin/env python3
"""Print a digest of what a benchmark workload's commands answer.

Usage: python scripts/grid_digest.py [--workload W ...] [--per-case] [--argv CMD ...]

Runs every argv of `perfbench/cases.grid(W)` for each named workload (all
of them by default) in this process through `crystalpoly.cli.main`, with
each braid fuzz seed fixed to 1, and records each command's exit code,
stdout and stderr.  It prints one sha256 per workload, over its argv in
grid order, as `W sha256 (N argv)`; with `--per-case` it first prints one
line per argv, `sha256 argv`.  Each `--argv CMD`, a crystalpoly command
line such as "graph --builtin a4 --binf --depth 6 --format dot", is run
the same way after the grids and printed as `sha256 argv`.  Two checkouts
whose digests agree answer every grid argv and every CMD byte for byte
alike.  It only reads `perfbench/`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cases  # noqa: E402
from crystalpoly.cli import main as cli_main  # noqa: E402

FUZZ_SEED = "1"


def case_digest(argv) -> str:
    """sha256 of (argv, exit code, stdout, stderr) of one command run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    record = json.dumps([list(argv), code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def workload_digests(workload):
    """(argv, digest) of every grid argv of the workload, in grid order."""
    argvs = [[FUZZ_SEED if a == cases.SEED_SLOT else a for a in argv]
             for argv in cases.grid(workload)]
    return [(argv, case_digest(argv)) for argv in argvs]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(cases.STRATA),
                        help="a workload whose grid to run (repeatable; default: all)")
    parser.add_argument("--per-case", action="store_true",
                        help="also print one digest per argv")
    parser.add_argument("--argv", action="append", default=[], metavar="CMD",
                        help="a further command line to digest (repeatable)")
    args = parser.parse_args(argv)
    for workload in args.workload or sorted(cases.STRATA):
        digests = workload_digests(workload)
        total = hashlib.sha256()
        for argv, digest in digests:
            total.update(f"{digest}\n".encode())
            if args.per_case:
                print(digest, shlex.join(argv))
        print(workload, total.hexdigest(), f"({len(digests)} argv)")
    for command in args.argv:
        extra = shlex.split(command)
        print(case_digest(extra), shlex.join(extra))
    return 0


if __name__ == "__main__":
    sys.exit(main())
