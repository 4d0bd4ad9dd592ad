"""Command-line front end: graphs, inequality systems, verification, braid maps.

Exit codes: 0 success, 1 internal inconsistency, 2 configuration error,
3 generation stopped before saturating, 4 oracle/lattice mismatch,
5 braid property violation, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .braid import BraidContext, apply_at, run_property_suite, transport
from .cartan import CartanData, IndexSequence, Weight, an_cartan, load_cartan, rank2_cartan
from .closed_forms import an_system, get_builtin, rank2_system
from .crystals import TensorWord, check_crystal_axioms
from .forms import MAX_FORMS, DescentSystem
from .zvectors import SequenceCrystal, ZVector

BUILTIN_DIR_ENV = "CRYSTALPOLY_BUILTIN_DIR"


class ConfigError(Exception):
    pass


def _parse_weight(text: str, rank: int) -> Weight:
    tokens = text.replace(",", " ").split()
    try:
        coeffs = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise ConfigError(f"bad weight {text!r}") from exc
    if len(coeffs) != rank:
        raise ConfigError(f"weight needs {rank} coordinates, got {len(coeffs)}")
    if any(c < 0 for c in coeffs):
        raise ConfigError("weight must be dominant (all coordinates >= 0)")
    return Weight(coeffs)


def _load_cartan_file(path) -> CartanData:
    try:
        return load_cartan(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load Cartan file: {exc}")


def _resolve_cartan(args) -> tuple[CartanData, IndexSequence | None, object]:
    """Cartan datum, default sequence, and the builtin record when named."""
    if args.builtin and args.cartan_file:
        raise ConfigError("give either --builtin or --cartan-file, not both")
    if args.builtin:
        try:
            builtin = get_builtin(args.builtin)
            return builtin.cartan, builtin.iota, builtin
        except KeyError:
            extra = os.environ.get(BUILTIN_DIR_ENV)
            if extra:
                path = os.path.join(extra, args.builtin + ".json")
                if os.path.exists(path):
                    return _load_cartan_file(path), None, None
            raise ConfigError(f"unknown builtin {args.builtin!r}")
    if args.cartan_file:
        return _load_cartan_file(args.cartan_file), None, None
    raise ConfigError("a Cartan datum is required (--builtin or --cartan-file)")


def _resolve_inputs(args):
    """Cartan datum, index sequence, weight (None in free mode), builtin record."""
    cartan, seq, builtin = _resolve_cartan(args)
    if args.iota is not None:
        seq = IndexSequence.from_string(args.iota, cartan.rank)
    elif seq is None:
        raise ConfigError("--iota is required for file-based Cartan data")
    if args.binf and args.lam:
        raise ConfigError("--binf and --lambda are mutually exclusive")
    if args.binf:
        return cartan, seq, None, builtin
    if args.lam is None:
        raise ConfigError("a highest weight (--lambda) or --binf is required")
    return cartan, seq, _parse_weight(args.lam, cartan.rank), builtin


def _write(text: str, args):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --output: {exc}") from exc
    else:
        print(text)


def cmd_graph(args) -> int:
    cartan, seq, lam, _ = _resolve_inputs(args)
    if args.depth < 0:
        raise ConfigError("--depth must be >= 0")
    crystal = SequenceCrystal(cartan, seq, lam)
    graph = crystal.bfs(args.depth)
    bad = check_crystal_axioms(crystal, graph.nodes)
    if bad:
        print(f"internal inconsistency: {bad[0]}", file=sys.stderr)
        return 1
    if args.format == "dot":
        _write(graph.to_dot(), args)
    elif args.format == "json":
        _write(json.dumps(graph.to_json_dict(), indent=2), args)
    else:
        lines = [f"nodes: {len(graph)}"]
        lines += [f"  [{k}] {node.label()}" for k, node in enumerate(graph.nodes)]
        lines += [f"edge {s} -{i}-> {d}" for s, i, d in graph.edges]
        _write("\n".join(lines), args)
    return 0


def _check_system_options(args, cartan, seq, lam):
    """Reject a round cap or a window below 1, or a closed-form method the
    datum, sequence and weight do not fit, before any work starts."""
    if args.max_rounds < 1:
        raise ConfigError("--max-rounds must be >= 1")
    if args.window is not None and args.window < 1:
        raise ConfigError("--window must be >= 1")
    if args.method == "generate":
        return
    if lam is None:
        raise ConfigError(f"the {args.method} method needs --lambda")
    if args.method == "rank2":
        if cartan.rank != 2:
            raise ConfigError("this method needs a rank-2 Cartan datum")
    elif cartan.matrix != an_cartan(cartan.rank).matrix:
        raise ConfigError("the an method needs a simply laced chain datum")
    # both closed forms are for the sequence 1 2 .. n repeated; a period of the
    # same infinite sequence repeats that one, as 1 .. n has distinct entries
    own = tuple(range(1, cartan.rank + 1))
    if seq.period != own * (len(seq) // len(own)):
        iota = " ".join(map(str, own))
        raise ConfigError(f'the {args.method} method is for --iota "{iota}" only')


def _build_system(args, cartan, seq, lam, default_bound):
    """The `--method` system: descent generation, the rank-2 or the A_n closed form.

    The options have passed `_check_system_options`.
    """
    if args.method == "generate":
        bound = default_bound if args.support_bound is None else args.support_bound
        if bound is None:
            raise ConfigError("--support-bound is required here")
        return DescentSystem(cartan, seq, lam).generate(bound, max_rounds=args.max_rounds)
    if args.method == "rank2":
        return rank2_system(-cartan.a(1, 2), -cartan.a(2, 1), lam, window=args.window)
    return an_system(cartan.rank, lam)


def cmd_inequalities(args) -> int:
    cartan, seq, lam, builtin = _resolve_inputs(args)
    _check_system_options(args, cartan, seq, lam)
    system = _build_system(args, cartan, seq, lam, builtin.longest_len if builtin else None)
    report = []
    if len(system.forms) > MAX_FORMS:
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
    cartan, seq, lam, builtin = _resolve_inputs(args)
    if args.depth < 0:
        raise ConfigError("--depth must be >= 0")
    _check_system_options(args, cartan, seq, lam)
    floor = max(args.depth, 1)
    if args.method == "generate" and args.support_bound is not None and args.support_bound < floor:
        raise ConfigError("--support-bound must be at least max(depth, 1)")
    longest = builtin.longest_len if builtin else None
    graph = SequenceCrystal(cartan, seq, lam).bfs(args.depth)
    bfs_nodes = graph.node_set()
    bound = max(floor, longest or 0)
    if args.method == "generate" and args.support_bound is None:
        # raise the default bound only as far as the smallest whose window covers the BFS
        top = max(n.max_pos for n in bfs_nodes)
        descent = DescentSystem(cartan, seq, lam)
        while descent.window_for(bound) < top:
            bound += 1
    system = _build_system(args, cartan, seq, lam, bound)
    if not system.saturated:  # only generation stops early; closed forms are complete
        print("generation did not saturate; verification would be unsound")
        return 3
    # in BFS order, so the node named does not depend on set iteration (vector hashes)
    over = [n for n in graph.nodes if n.max_pos > system.window]
    if over:
        print(f"BFS leaves the window: {over[0].label()} beyond {system.window}")
        return 4
    points = system.enumerate_points(args.depth)
    if bfs_nodes == points:
        print(f"equal: {len(points)} elements (depth {args.depth})")
        return 0
    missing = sorted(n.label() for n in bfs_nodes - points)
    extra = sorted(n.label() for n in points - bfs_nodes)
    print(f"MISMATCH: bfs-only={missing} lattice-only={extra}")
    return 4


def _fuzz_chunk(payload):
    c1, c2, n, seed = payload
    return run_property_suite(c1, c2, n, seed)


def cmd_braid(args) -> int:
    if args.fuzz:
        if args.c1 is None or args.c2 is None:
            raise ConfigError("--fuzz needs --c1 and --c2")
        # the fuzz reads only --c1/--c2/--n/--seed/--jobs; say so rather than drop the rest
        ignored = [flag for flag, value in (
            ("--builtin", args.builtin), ("--cartan-file", args.cartan_file),
            ("--iota", args.iota), ("--map-set", args.map_set), ("--window", args.window.strip()),
        ) if value]
        if ignored:
            raise ConfigError(f"--fuzz does not take {', '.join(ignored)}")
        if args.n < 1:
            raise ConfigError("--n must be >= 1")
        jobs = max(1, args.jobs)
        chunk = (args.n + jobs - 1) // jobs
        payloads = [
            (args.c1, args.c2, min(chunk, args.n - start), args.seed + worker)
            for worker, start in enumerate(range(0, args.n, chunk))
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
        print(
            f"fuzz c1={args.c1} c2={args.c2} n={total} seed={args.seed} "
            f"violations={len(violations)}"
        )
        for v in violations[:10]:
            print(f"  {v}")
        return 0 if not violations else 5

    if not args.map_set:
        raise ConfigError("braid needs --fuzz or --map-set")
    if (args.c1 is None) != (args.c2 is None):
        raise ConfigError("give both --c1 and --c2, or neither")
    if args.c1 is not None:
        if args.builtin or args.cartan_file:
            raise ConfigError("give either --c1/--c2 or --builtin/--cartan-file, not both")
        cartan, seq = rank2_cartan(args.c1, args.c2), None
    else:
        cartan, seq, _ = _resolve_cartan(args)
    if not (1 <= args.i <= cartan.rank and 1 <= args.j <= cartan.rank):
        raise ConfigError(f"--i and --j must lie in 1..{cartan.rank}")
    ctx = BraidContext.from_cartan(cartan, args.i, args.j)
    if args.iota is not None:
        seq = IndexSequence.from_string(args.iota, cartan.rank)
    window = tuple(int(t) for t in args.window.replace(",", " ").split())
    if not window:
        raise ConfigError("--window is required for --map-set")
    try:
        with open(args.map_set) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --map-set file: {exc}") from exc
    try:
        elements = [
            ZVector.from_json_obj(obj) if isinstance(obj, dict) and "coords" in obj
            else TensorWord.from_json_obj(cartan, obj)
            for obj in (data["elements"] if isinstance(data, dict) else data)
        ]
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"malformed --map-set contents: {exc!r}") from exc
    if seq is None and any(isinstance(elem, ZVector) for elem in elements):
        raise ConfigError("coordinate elements need --iota (or a builtin)")
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

    def common(p, need_depth=False):
        p.add_argument("--builtin", help="named Cartan datum (a2, b2, c2, g2, a1tilde, aN)")
        p.add_argument("--cartan-file", help="JSON Cartan file")
        p.add_argument("--iota", help="index sequence period, leftmost token = i_1")
        p.add_argument("--lambda", dest="lam", help="dominant weight, e.g. 1,0")
        p.add_argument("--binf", action="store_true", help="free mode (no highest weight)")
        p.add_argument("--output", help="write the artifact to this file")
        if need_depth:
            p.add_argument("--depth", type=int, required=True)

    def system_options(p):
        p.add_argument("--method", choices=("generate", "rank2", "an"), default="generate")
        p.add_argument("--support-bound", type=int)
        p.add_argument("--max-rounds", type=int, default=60)
        p.add_argument("--window", type=int, help="window for the rank2 method")

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
    b.add_argument("--builtin")
    b.add_argument("--cartan-file")
    b.add_argument("--iota", help="sequence for coordinate-encoded elements")
    b.add_argument("--fuzz", action="store_true")
    b.add_argument("--c1", type=int)
    b.add_argument("--c2", type=int)
    b.add_argument("--n", type=int, default=1000)
    b.add_argument("--seed", type=int, default=20240)
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--i", type=int, default=1)
    b.add_argument("--j", type=int, default=2)
    b.add_argument("--window", default="")
    b.add_argument("--map-set", help="JSON file of elements to transport")
    b.add_argument("--output")
    b.set_defaults(func=cmd_braid)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
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
