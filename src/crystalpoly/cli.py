"""Command-line front end: graphs, inequality systems, verification, braid maps.

One path each: numeric options are read by `cartan.decimal_int` and lists
by `cartan.decimal_ints`, a datum is `--builtin` or `--cartan-file`, each
input file is parsed by `_read_json` and read by the package's `from_json_*`,
`main` checks `FLOORS` and reports a `ValueError` as a `config error:` line,
`_refuse` names each given option a mode does not read (given: not None,
even if empty), and every artifact goes out through `_output`.

Exit codes: 0 success, 1 internal inconsistency, 2 configuration error,
3 generation stopped before saturating, 4 oracle/lattice mismatch,
5 braid property violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache

from .braid import BraidContext, apply_at, run_property_suite, transport
from .cartan import CartanData, IndexSequence, Weight, an_cartan, decimal_int, decimal_ints
from .closed_forms import an_system, get_builtin, rank2_system
from .crystals import TensorWord
from .forms import MAX_FORMS, DescentSystem
from .zvectors import Labels, SequenceCrystal, ZVector, check_crystal_axioms

# the least value of each numeric option that has one, checked before any command runs
FLOORS = {"depth": 0, "max_rounds": 1, "window": 1, "n": 1, "jobs": 1}


def _int(text: str) -> int:
    """A numeric option's text, read by `decimal_int`."""
    return decimal_int(text)


_int.__name__ = "int"  # so argparse still says "invalid int value: 'x'"


def _parse_weight(text: str, rank: int) -> Weight:
    try:
        coeffs = decimal_ints(text)
    except ValueError as exc:
        raise ValueError(f"bad weight {text!r}") from exc
    if len(coeffs) != rank:
        raise ValueError(f"weight needs {rank} coordinates, got {len(coeffs)}")
    if any(c < 0 for c in coeffs):
        raise ValueError("weight must be dominant (all coordinates >= 0)")
    return Weight(coeffs)


def _read_json(path: str, option: str):
    """The JSON document in the file `option` names; a file that cannot be
    opened or parsed is a ValueError "cannot read <option>: ..."."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested ~1000 deep
        raise ValueError(f"cannot read {option}: {exc}") from exc


def _resolve_cartan(args) -> tuple[CartanData, IndexSequence | None, object]:
    """Cartan datum, default sequence, and the builtin record when named."""
    if args.builtin is not None and args.cartan_file is not None:
        raise ValueError("give either --builtin or --cartan-file, not both")
    if args.builtin is not None:
        builtin = get_builtin(args.builtin)
        return builtin.cartan, builtin.iota, builtin
    if args.cartan_file is not None:
        return CartanData.from_json_dict(_read_json(args.cartan_file, "--cartan-file")), None, None
    raise ValueError("a Cartan datum is required (--builtin or --cartan-file)")


def _refuse(args, mode: str, dests):
    """Refuse each option in `dests` that was given, even empty, to `mode`."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ValueError(f"{mode} does not take {', '.join(given)}")


def _resolve_inputs(args):
    """Cartan datum, index sequence, weight (None in free mode), builtin record."""
    cartan, seq, builtin = _resolve_cartan(args)
    if args.iota is not None:
        seq = IndexSequence.from_string(args.iota, cartan.rank)
    elif seq is None:
        raise ValueError("--iota is required for file-based Cartan data")
    if args.binf and args.lam is not None:
        raise ValueError("--binf and --lambda are mutually exclusive")
    if args.binf:
        return cartan, seq, None, builtin
    if args.lam is None:
        raise ValueError("a highest weight (--lambda) or --binf is required")
    return cartan, seq, _parse_weight(args.lam, cartan.rank), builtin


@contextmanager
def _output(args):
    """The artifact's stream: the --output file, else stdout; a file that
    cannot be opened or written is a ValueError."""
    if args.output is None:
        yield sys.stdout
        return
    try:
        with open(args.output, "w") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write --output: {exc}") from exc


def _write(text: str, args):
    """`text` and a newline, to stdout or the --output file alike."""
    with _output(args) as out:
        out.write(text + "\n")


def cmd_graph(args) -> int:
    cartan, seq, lam, _ = _resolve_inputs(args)
    crystal = SequenceCrystal(cartan, seq, lam)
    graph = crystal.bfs(args.depth)
    bad = check_crystal_axioms(crystal, graph)
    if bad:
        print(f"internal inconsistency: {bad[0]}", file=sys.stderr)
        return 1
    if args.format == "json":
        with _output(args) as out:  # streamed: the document is never one string
            json.dump(graph.to_json_dict(), out, indent=2)
            out.write("\n")
        return 0
    label = Labels()
    labels = [label(node.coords) for node in graph.nodes]
    if args.format == "dot":
        _write(graph.to_dot(labels), args)
    else:
        lines = [f"nodes: {len(graph)}"]
        lines += ["  [%d] %s" % node for node in enumerate(labels)]
        lines += ["edge %d -%d-> %d" % edge for edge in graph.edges]
        _write("\n".join(lines), args)
    return 0


def _check_system_options(args, cartan, seq, lam):
    """Reject an option the method does not read, or a closed-form method the
    datum, sequence and weight do not fit, before any work starts."""
    _refuse(args, f"--method {args.method}", {
        "generate": ("window",), "rank2": ("support_bound", "max_rounds"),
        "an": ("support_bound", "max_rounds", "window")}[args.method])
    if args.method == "generate":
        return
    if lam is None:
        raise ValueError(f"the {args.method} method needs --lambda")
    if args.method == "rank2":
        if cartan.rank != 2:
            raise ValueError("this method needs a rank-2 Cartan datum")
    elif cartan.matrix != an_cartan(cartan.rank).matrix:
        raise ValueError("the an method needs a simply laced chain datum")
    # both closed forms are for the sequence 1 2 .. n repeated; a period of the
    # same infinite sequence repeats that one, as 1 .. n has distinct entries
    own = tuple(range(1, cartan.rank + 1))
    if seq.period != own * (len(seq) // len(own)):
        iota = " ".join(map(str, own))
        raise ValueError(f'the {args.method} method is for --iota "{iota}" only')


def _build_system(args, descent: DescentSystem, default_bound):
    """The `--method` system on `descent`'s datum, sequence and weight: descent
    generation, the rank-2 or the A_n closed form.

    The options have passed `_check_system_options`.
    """
    cartan, lam = descent.cartan, descent.lam
    if args.method == "generate":
        bound = default_bound if args.support_bound is None else args.support_bound
        if bound is None:
            raise ValueError("--support-bound is required here")
        rounds = {} if args.max_rounds is None else {"max_rounds": args.max_rounds}
        return descent.generate(bound, **rounds)
    if args.method == "rank2":
        return rank2_system(-cartan.a(1, 2), -cartan.a(2, 1), lam, window=args.window)
    return an_system(cartan.rank, lam)


def cmd_inequalities(args) -> int:
    cartan, seq, lam, builtin = _resolve_inputs(args)
    _check_system_options(args, cartan, seq, lam)
    descent = DescentSystem(cartan, seq, lam)
    system = _build_system(args, descent, builtin.longest_len if builtin else None)
    report = []
    if not system.saturated and len(system.forms) > MAX_FORMS:
        report.append(
            f"WARNING: generation passed the cap of {MAX_FORMS} forms in round "
            f"{system.rounds} with {len(system.forms)} forms; the listing below is partial"
        )
    elif not system.saturated:
        report.append("WARNING: system did not saturate; the listing below is partial")
    report.append(
        f"forms: {len(system.forms)}  window: {system.window}  saturated: {system.saturated}"
    )
    if system.saturated and system.seq is not None:
        if system.lam is None:
            ok, witnesses = system.positivity_report()
            if ok:
                report.append("positivity: ok")
            else:
                form, pos = witnesses[0]
                report.append(f"positivity: broken at x{pos} (witness {form.render()})")
        else:
            ok, witnesses = system.ampleness_report()
            if ok:
                report.append("report: ample")
            else:
                report.append(f"report: not ample (witness {witnesses[0].render()})")
    if args.format == "json":
        payload = {
            "forms": system.to_json_list(),
            "window": system.window,
            "saturated": system.saturated,
            "report": report,
        }
        _write(json.dumps(payload, indent=2), args)
    else:
        _write("\n".join(report) + "\n" + system.render_text(), args)
    return 0 if system.saturated else 3


def cmd_verify(args) -> int:
    """BFS closure of 0 == lattice points, as coords tuples; no graph or vector is built.

    The closure is `SequenceCrystal.closure`: coords in BFS order.  A
    reduced longest word of a builtin, as the period, has a BFS that never
    leaves its positions 1..N; so when the lattice has points past N that
    the BFS lacks, those points are cut (the pins x_k = 0 for k > N)
    before the sets are compared again.
    """
    cartan, seq, lam, builtin = _resolve_inputs(args)
    _check_system_options(args, cartan, seq, lam)
    floor = max(args.depth, 1)
    if args.method == "generate" and args.support_bound is not None and args.support_bound < floor:
        raise ValueError("--support-bound must be at least max(depth, 1)")
    longest = builtin.longest_len if builtin else None
    descent = DescentSystem(cartan, seq, lam)  # a SequenceCrystal too: it runs the closure
    closure = descent.closure(args.depth)
    bound = max(floor, longest or 0)
    if args.method == "generate" and args.support_bound is None:
        # raise the default bound only as far as the smallest whose window covers the BFS
        top = max(c[-1][0] if c else 0 for c in closure)
        while descent.window_for(bound) < top:
            bound += 1
    system = _build_system(args, descent, bound)
    if not system.saturated:  # only generation stops early; closed forms are complete
        _write("generation did not saturate; verification would be unsound", args)
        return 3
    window = system.window
    # the closure's keys are in BFS order, so the node named does not depend on hashing
    over = next((c for c in closure if c and c[-1][0] > window), None)
    if over is not None:
        _write(f"BFS leaves the window: {Labels()(over)} beyond {window}", args)
        return 4
    points = system.lattice_coords(args.depth)
    if (closure.keys() != points and longest == len(seq)
            and any(c[-1][0] > longest for c in points - closure.keys())
            and cartan.is_reduced(seq.period)):
        points = {c for c in points if not c or c[-1][0] <= longest}
    if closure.keys() == points:
        _write(f"equal: {len(points)} elements (depth {args.depth})", args)
        return 0
    missing = sorted(map(Labels(), closure.keys() - points))
    extra = sorted(map(Labels(), points - closure.keys()))
    _write(f"MISMATCH: bfs-only={missing} lattice-only={extra}", args)
    return 4


def _fuzz_chunk(payload):
    c1, c2, n, seed = payload
    return run_property_suite(c1, c2, n, seed)


def cmd_braid(args) -> int:
    if args.fuzz:
        if args.c1 is None or args.c2 is None:
            raise ValueError("--fuzz needs --c1 and --c2")
        # the fuzz reads only --c1/--c2/--n/--seed/--jobs/--output
        _refuse(args, "--fuzz", ("builtin", "cartan_file", "iota", "map_set", "window", "i", "j"))
        n = 1000 if args.n is None else args.n
        seed = 20240 if args.seed is None else args.seed
        jobs = 1 if args.jobs is None else args.jobs
        chunk = (n + jobs - 1) // jobs
        payloads = [
            (args.c1, args.c2, min(chunk, n - start), seed + worker)
            for worker, start in enumerate(range(0, n, chunk))
        ]
        if len(payloads) == 1:
            reports = [_fuzz_chunk(payloads[0])]
        else:
            from concurrent.futures import ProcessPoolExecutor

            # the payload split, and so the output, follows --jobs; the number
            # of processes is capped by the payloads and the CPUs
            workers = min(len(payloads), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_fuzz_chunk, payloads))
        violations = [v for r in reports for v in r["violations"]]
        total = sum(r["n"] for r in reports)
        lines = [f"fuzz c1={args.c1} c2={args.c2} n={total} seed={seed} "
                 f"violations={len(violations)}"]
        lines += [f"  {v}" for v in violations[:10]]
        _write("\n".join(lines), args)
        return 0 if not violations else 5

    if args.map_set is None:
        raise ValueError("braid needs --fuzz or --map-set")
    # the map-set reads only the datum, --iota, --i/--j, --window, --map-set and --output
    _refuse(args, "--map-set", ("c1", "c2", "n", "seed", "jobs"))
    cartan, seq, _ = _resolve_cartan(args)
    i = 1 if args.i is None else args.i
    j = 2 if args.j is None else args.j
    if not (1 <= i <= cartan.rank and 1 <= j <= cartan.rank):
        raise ValueError(f"--i and --j must lie in 1..{cartan.rank}")
    ctx = BraidContext.from_cartan(cartan, i, j)
    if args.iota is not None:
        seq = IndexSequence.from_string(args.iota, cartan.rank)
    window = () if args.window is None else decimal_ints(args.window)
    if not window:
        raise ValueError("--window is required for --map-set")
    data = _read_json(args.map_set, "--map-set")
    if not isinstance(data, list):
        raise ValueError("a --map-set file is a JSON list of elements")
    elements = [
        ZVector.from_json_obj(obj) if isinstance(obj, dict)
        else TensorWord.from_json_obj(cartan, obj)
        for obj in data
    ]
    if seq is None and any(isinstance(elem, ZVector) for elem in elements):
        raise ValueError("coordinate elements need --iota (or a builtin)")
    mapped = [
        (apply_at(ctx, elem, window) if isinstance(elem, TensorWord)
         else transport(ctx, seq, elem, window)).to_json_obj()
        for elem in elements
    ]
    mapped.sort(key=json.dumps)
    _write(json.dumps(mapped, indent=2), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalpoly",
        description="exact crystal combinatorics as lattice points of inequality systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_depth=False, weight=True):
        p.add_argument("--builtin", help="named Cartan datum (a2, b2, c2, g2, a1tilde, aN)")
        p.add_argument("--cartan-file", help="JSON Cartan file")
        p.add_argument("--iota", help="index sequence period, leftmost token = i_1")
        p.add_argument("--output", help="write the artifact to this file")
        if weight:
            p.add_argument("--lambda", dest="lam", help="dominant weight, e.g. 1,0")
            p.add_argument("--binf", action="store_true", help="free mode (no highest weight)")
        if need_depth:
            p.add_argument("--depth", type=_int, required=True)

    def system_options(p):
        p.add_argument("--method", choices=("generate", "rank2", "an"), default="generate")
        p.add_argument("--support-bound", type=_int)
        p.add_argument("--max-rounds", type=_int)
        p.add_argument("--window", type=_int, help="window for the rank2 method")

    g = sub.add_parser("graph", help="breadth-first crystal graph")
    common(g, need_depth=True)
    g.add_argument("--format", choices=("dot", "json", "text"), default="text")
    g.set_defaults(func=cmd_graph)

    q = sub.add_parser("inequalities", help="emit an inequality system")
    common(q)
    system_options(q)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_inequalities)

    v = sub.add_parser("verify", help="compare BFS against lattice points")
    common(v, need_depth=True)
    system_options(v)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("braid", help="apply or fuzz the braid maps")
    common(b, weight=False)
    b.add_argument("--fuzz", action="store_true")
    b.add_argument("--c1", type=_int, help="fuzz pairing -<h_1, alpha_2>")
    b.add_argument("--c2", type=_int, help="fuzz pairing -<h_2, alpha_1>")
    b.add_argument("--n", type=_int, help="fuzz samples (default 1000)")
    b.add_argument("--seed", type=_int, help="fuzz seed (default 20240)")
    b.add_argument("--jobs", type=_int, help="fuzz chunks (default 1)")
    b.add_argument("--i", type=_int, help="map-set index i (default 1)")
    b.add_argument("--j", type=_int, help="map-set index j (default 2)")
    b.add_argument("--window", help="map-set window positions")
    b.add_argument("--map-set", help="JSON list of elements to transport")
    b.set_defaults(func=cmd_braid)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for dest, least in FLOORS.items():
            value = getattr(args, dest, None)
            if type(value) is int and value < least:  # braid's --window is text
                raise ValueError(f"--{dest.replace('_', '-')} must be >= {least}")
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def console():
    """`main` as a command; a stdout closed early (as by `| head`) exits 141 quietly."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    raise SystemExit(status)


if __name__ == "__main__":
    console()
