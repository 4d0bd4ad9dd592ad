"""Seeded case lists for the crystalpoly benchmark workloads.

A workload is a list of strata. One block holds `count` cases from each
stratum, in an order shuffled by the seed. A run executes whole blocks,
so every run has the same mix of case kinds whatever the seed: the seed
picks parameters inside a stratum (a weight from the grid, a braid fuzz
seed) and the order of the cases. Without that, a run of a hundred cases
would swing with how many slow a4 depth-8 cases it drew.

Every argv here is a valid `crystalpoly` command whose answer is recorded
in expected.json (make_expected.py); `summarize` reduces a command's
output to the fields that file holds.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass

SEED_SLOT = "<seed>"  # replaced by a drawn fuzz seed in braid argv
BRAID_N = 300
BRAID_PROFILES = ((0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1))
IOTA = "1 2 3 2 1 2"  # a3 sequence whose generated system is not positive / not ample


@dataclass(frozen=True)
class Stratum:
    count: int  # cases per block
    options: tuple[tuple[str, ...], ...]  # the seed picks one argv per case


def _weights(values, rank):
    return [",".join(map(str, w)) for w in itertools.product(values, repeat=rank)]


def _modes(rank, free=True):
    """--binf (optional) followed by every weight in {0,1}^rank."""
    out = [("--binf",)] if free else []
    return out + [("--lambda", lam) for lam in _weights((0, 1), rank)]


def _verify(builtin, mode, depth, *extra):
    return ("verify", "--builtin", builtin, *mode, "--depth", str(depth), *extra)


def _stratum(count, options):
    return Stratum(count, tuple(tuple(o) for o in options))


def _verify_strata():
    lam012 = [("--lambda", lam) for lam in _weights((0, 1, 2), 2)]
    rank2 = [_verify(t, m, 8, "--method", "rank2") for t in ("a2", "b2", "c2", "g2") for m in lam012]
    rank2.append(_verify("a1tilde", ("--lambda", "1,1"), 5, "--method", "rank2", "--window", "6"))
    return [
        _stratum(3, rank2),
        _stratum(2, [_verify("a3", ("--iota", IOTA, "--lambda", "0,1,0"), 6)]),
        _stratum(1, [_verify("a3", m, 6) for m in _modes(3, free=False)]
                 + [_verify("a3", ("--iota", IOTA, "--binf"), 6)]),
        _stratum(1, [_verify("a2", m, 8) for m in lam012]
                 + [_verify("a4", m, 6) for m in _modes(4, free=False)]),
        _stratum(1, [_verify("a4", ("--lambda", "1,1,1,1"), 8)]),
    ]
    # Sorted by cost, a block is 3 rank-2 cases (2-10 ms), 3 a3 cases
    # (16-26 ms), one a2 or a4 depth-6 case (0.1-0.3 s) and one a4 depth-8
    # case (about 1.5 s). Over the 13 blocks a run needs for 100 cases, the
    # median falls among the fixed iota lambda=(0,1,0) cases and the 90th
    # percentile inside the fixed a4 lambda=(1,1,1,1) depth-8 cases, on
    # every seed. Other a4 weights run at depth 6 only: at depth 8 they cost
    # 0.6 to 0.85 of lambda=(1,1,1,1) and would put the 90th percentile on
    # a draw.


def _closure_strata():
    def ineq(builtin, *extra):
        return ("inequalities", "--builtin", builtin, "--method", "generate", *extra)

    strata = [
        _stratum(1, [ineq(t, *m) for m in _modes(n)])
        for t, n in (("a3", 3), ("a4", 4), ("a5", 5), ("a6", 6), ("b2", 2), ("c2", 2), ("g2", 2))
    ]
    strata += [
        _stratum(1, [ineq("a1tilde", *m, "--support-bound", b) for m in _modes(2)])
        for b in ("6", "12")
    ]
    strata.append(
        _stratum(1, [ineq("a3", "--iota", IOTA, *m, "--support-bound", "6") for m in _modes(3)])
    )

    def graph(builtin, mode, depth):
        return ("graph", "--builtin", builtin, *mode, "--depth", str(depth))

    for builtin, depths in (("a3", (2, 4, 6, 8)), ("a4", (2, 4, 6, 8)), ("a5", (2, 4, 6))):
        strata += [
            _stratum(3 if (builtin, d) == ("a3", 4) else 1, [graph(builtin, ("--binf",), d)])
            for d in depths
        ]
    strata += [
        _stratum(1, [graph("a4", m, d) for m in _modes(4, free=False)]) for d in (4, 8)
    ]
    # Sorted by cost, the median of a block falls among the three fixed a3
    # depth-4 graphs and the 90th percentile among the fixed a4 depth-6 graphs.
    return strata


def _braid_strata():
    return [
        _stratum(1, [("braid", "--fuzz", "--c1", str(c1), "--c2", str(c2), "--n", str(BRAID_N),
                      "--seed", SEED_SLOT, "--jobs", "1")])
        for c1, c2 in BRAID_PROFILES
    ]


STRATA = {
    "verify": _verify_strata(),
    "closure": _closure_strata(),
    "braid-fuzz": _braid_strata(),
}

# Blocks the traced run covers: a fixed number, so its counts repeat
# exactly for a seed; sized so one traced pass stays well under a minute.
TRACE_BLOCKS = {"verify": 4, "closure": 4, "braid-fuzz": 20}


def blocks(workload: str, seed: int):
    """The blocks of cases of a workload for a seed, in order, without end.

    Each stratum deals its options from a deck shuffled by the seed and
    reshuffled when empty, so a run of a few blocks covers a stratum's grid
    evenly instead of drawing, say, only its cheapest weights.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata = STRATA[workload]
    decks = [[] for _ in strata]
    while True:
        cases = []
        for stratum, deck in zip(strata, decks):
            for _ in range(stratum.count):
                if not deck:
                    deck.extend(rng.sample(stratum.options, len(stratum.options)))
                argv = deck.pop()
                cases.append([str(rng.randrange(1, 2**31)) if a == SEED_SLOT else a for a in argv])
        rng.shuffle(cases)
        yield cases


def grid(workload: str) -> list[tuple[str, ...]]:
    """Every argv a workload can draw, with braid seeds left as SEED_SLOT."""
    return [argv for stratum in STRATA[workload] for argv in stratum.options]


def key(argv) -> str:
    """Expected-file key: the argv, with a braid fuzz seed masked."""
    argv = list(argv)
    if argv[0] == "braid" and "--seed" in argv:
        argv[argv.index("--seed") + 1] = SEED_SLOT
    return json.dumps(argv)


_FORMS = re.compile(r"forms: (\d+)  window: (\d+)  saturated: (True|False)")
_FUZZ = re.compile(r"fuzz c1=(\d+) c2=(\d+) n=(\d+) seed=(-?\d+) violations=(\d+)")


def summarize(argv, code, stdout: str) -> dict:
    """The fields of a command's result that expected.json records.

    Output that does not parse yields None fields, which match no
    recorded answer, so a malformed result counts as a failure.
    """
    lines = stdout.splitlines()
    out = {"exit": code}
    command = argv[0]
    if command == "verify":
        out["verdict"] = lines[0] if lines else None
    elif command == "inequalities":
        m = next(filter(None, map(_FORMS.fullmatch, lines)), None)
        out["forms"] = int(m[1]) if m else None
        out["window"] = int(m[2]) if m else None
        out["saturated"] = m[3] == "True" if m else None
        out["rows"] = sum(line.endswith(" >= 0") for line in lines)
        out["report"] = next(
            (line for line in lines if line.startswith(("positivity:", "report:"))), None
        )
    elif command == "graph":
        head = lines[0].split() if lines else []
        out["nodes"] = int(head[1]) if len(head) == 2 and head[0] == "nodes:" else None
        out["listed"] = sum(line.startswith("  [") for line in lines)
        out["edges"] = sum(line.startswith("edge ") for line in lines)
    elif command == "braid":
        m = _FUZZ.fullmatch(lines[0]) if lines else None
        out["n"] = int(m[3]) if m else None
        out["violations"] = int(m[5]) if m else None
        out["seed_echoed"] = bool(m) and m[4] == argv[argv.index("--seed") + 1]
    return out
