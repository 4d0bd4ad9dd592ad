#!/usr/bin/env python3
"""List the package functions that a benchmark workload never enters.

Usage: python scripts/traffic.py [--workload W ...]

Runs every argv of `perfbench/cases.grid(W)` for each named workload (all
of them by default) in this process through `crystalpoly.cli.main`, with
each braid fuzz seed fixed to 1 and the commands' output discarded, under
a `sys.setprofile` hook that records every code object entered.  Then it
prints each function of `src/crystalpoly` that was never entered, as
`module:line name`, in file and line order.  Nested functions count on
their own; class bodies, lambdas and comprehensions are left out.  It
only reads `perfbench/`.
"""

import argparse
import contextlib
import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cases  # noqa: E402
import crystalpoly  # noqa: E402
from crystalpoly.cli import main as cli_main  # noqa: E402

FUZZ_SEED = "1"


def package_functions():
    """(file, module, first line, name) of every named function in the package's source."""
    found = []
    for path in sorted(Path(crystalpoly.__file__).parent.glob("*.py")):
        module = f"crystalpoly.{path.stem}" if path.stem != "__init__" else "crystalpoly"
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # class bodies are not optimized; lambdas and comprehensions are "<...>"
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.append((str(path), module, code.co_firstlineno, code.co_name))
    return found


def entered_functions(workloads):
    """(file, first line, name) of every code object a call entered."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    argvs = [[FUZZ_SEED if a == cases.SEED_SLOT else a for a in argv]
             for w in workloads for argv in cases.grid(w)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            for argv in argvs:
                cli_main(argv)
        finally:
            sys.setprofile(None)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(cases.STRATA),
                        help="a workload whose grid to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    entered = entered_functions(args.workload or sorted(cases.STRATA))
    for path, module, line, name in sorted(package_functions()):
        if (path, line, name) not in entered:
            print(f"{module}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
