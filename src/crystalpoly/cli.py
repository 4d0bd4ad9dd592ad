"""Command-line front end: graphs, inequality systems, verification, braid maps.

Exit codes: 0 success, 1 internal inconsistency, 2 configuration error,
3 generation stopped before saturating, 4 oracle/lattice mismatch,
5 braid property violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .braid import BraidContext, apply_at, rank2_cartan, run_property_suite
from .cartan import CartanData, IndexSequence, Weight, load_cartan
from .closed_forms import an_system, get_builtin, rank2_system
from .crystals import TensorWord, check_crystal_axioms
from .forms import DescentSystem
from .zvectors import BINF, SequenceCrystal, ZVector

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
                    return load_cartan(path), None, None
            raise ConfigError(f"unknown builtin {args.builtin!r}")
    if args.cartan_file:
        try:
            return load_cartan(args.cartan_file), None, None
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load Cartan file: {exc}")
    raise ConfigError("a Cartan datum is required (--builtin or --cartan-file)")


def _resolve_sequence(args, cartan, default_seq) -> IndexSequence:
    if args.iota:
        return IndexSequence.from_string(args.iota, cartan.rank)
    if default_seq is not None:
        return default_seq
    raise ConfigError("--iota is required for file-based Cartan data")


def _resolve_mode(args, cartan) -> Weight | None:
    binf = getattr(args, "binf", False)
    lam_text = getattr(args, "lam", None)
    if binf and lam_text:
        raise ConfigError("--binf and --lambda are mutually exclusive")
    if binf:
        return None
    if lam_text is None:
        raise ConfigError("a highest weight (--lambda) or --binf is required")
    return _parse_weight(lam_text, cartan.rank)


def _write(text: str, args):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_graph(args) -> int:
    cartan, default_seq, _ = _resolve_cartan(args)
    seq = _resolve_sequence(args, cartan, default_seq)
    lam = _resolve_mode(args, cartan)
    if args.depth < 0:
        raise ConfigError("--depth must be >= 0")
    crystal = SequenceCrystal(cartan, seq, lam)
    graph = crystal.bfs(args.depth)
    bad = check_crystal_axioms(
        cartan,
        graph.nodes,
        cartan.indices,
        eps=crystal.epsilon,
        phi=crystal.phi,
        weight=crystal.weight_pairings,
        f=crystal.f,
        e=crystal.e,
    )
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


def _rank2_profile(cartan) -> tuple[int, int]:
    if cartan.rank != 2:
        raise ConfigError("this method needs a rank-2 Cartan datum")
    return -cartan.a(1, 2), -cartan.a(2, 1)


def cmd_inequalities(args) -> int:
    cartan, default_seq, builtin = _resolve_cartan(args)
    seq = _resolve_sequence(args, cartan, default_seq)
    lam = _resolve_mode(args, cartan)
    if args.method == "generate":
        bound = args.support_bound
        if bound is None:
            bound = builtin.longest_len if builtin and builtin.longest_len else None
        if bound is None:
            raise ConfigError("--support-bound is required here")
        system = DescentSystem(cartan, seq, lam).generate(bound, max_rounds=args.max_rounds)
    elif args.method == "rank2":
        if lam is None:
            raise ConfigError("the rank2 method needs --lambda")
        c1, c2 = _rank2_profile(cartan)
        system = rank2_system(c1, c2, lam, window=args.window)
    else:
        if lam is None:
            raise ConfigError("the an method needs --lambda")
        c1 = [-cartan.a(i, i + 1) for i in range(1, cartan.rank)]
        c2 = [-cartan.a(i + 1, i) for i in range(1, cartan.rank)]
        if any(v != 1 for v in c1 + c2) or any(
            cartan.a(i, j) != 0
            for i in cartan.indices
            for j in cartan.indices
            if abs(i - j) > 1
        ):
            raise ConfigError("the an method needs a simply laced chain datum")
        system = an_system(cartan.rank, lam)

    report = []
    if not system.saturated:
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
    cartan, default_seq, builtin = _resolve_cartan(args)
    seq = _resolve_sequence(args, cartan, default_seq)
    lam = _resolve_mode(args, cartan)
    if args.depth < 0:
        raise ConfigError("--depth must be >= 0")
    if args.method == "generate":
        bound = args.support_bound
        if bound is None:
            bound = max(
                args.depth,
                1,
                builtin.longest_len if builtin and builtin.longest_len else 0,
            )
        if bound < max(args.depth, 1):
            raise ConfigError("--support-bound must be at least max(depth, 1)")
        system = DescentSystem(cartan, seq, lam).generate(bound, max_rounds=args.max_rounds)
        if not system.saturated:
            print("generation did not saturate; verification would be unsound")
            return 3
    elif args.method == "rank2":
        if lam is None:
            raise ConfigError("the rank2 method needs --lambda")
        c1, c2 = _rank2_profile(cartan)
        system = rank2_system(c1, c2, lam, window=args.window)
    else:
        raise ConfigError("--method must be generate or rank2 for verify")
    crystal = SequenceCrystal(cartan, seq, lam)
    graph = crystal.bfs(args.depth)
    bfs_nodes = graph.node_set()
    over = [n for n in bfs_nodes if n.max_pos > system.window]
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
        if args.n < 1:
            raise ConfigError("--n must be >= 1")
        jobs = max(1, args.jobs)
        chunk = (args.n + jobs - 1) // jobs
        payloads = []
        done = 0
        for worker in range(jobs):
            take = min(chunk, args.n - done)
            if take <= 0:
                break
            payloads.append((args.c1, args.c2, take, args.seed + worker))
            done += take
        if jobs == 1:
            reports = [_fuzz_chunk(payloads[0])]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    if args.c1 is not None and args.c2 is not None:
        ctx = BraidContext(args.i, args.j, args.c1, args.c2)
        cartan = rank2_cartan(args.c1, args.c2)
        default_seq = None
    else:
        cartan, default_seq, _ = _resolve_cartan(args)
        ctx = BraidContext.from_cartan(cartan, args.i, args.j)
    if args.iota:
        default_seq = IndexSequence.from_string(args.iota, cartan.rank)
    window = tuple(int(t) for t in args.window.replace(",", " ").split())
    if not window:
        raise ConfigError("--window is required for --map-set")
    try:
        with open(args.map_set) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --map-set file: {exc}") from exc
    elements = data["elements"] if isinstance(data, dict) else data
    mapped = []
    for obj in elements:
        if isinstance(obj, dict) and "coords" in obj:
            # coordinate-encoded element: rebuild letters along the sequence
            if default_seq is None:
                raise ConfigError("coordinate elements need --iota (or a builtin)")
            vec = ZVector.from_json_obj(obj)
            lam = None if vec.mode == BINF else vec.mode
            crystal = SequenceCrystal(cartan, default_seq, lam)
            image = apply_at(ctx, crystal.to_tensor_word(vec, max(window[-1], vec.max_pos)), window)
            # decode back to coordinates; the letters carry their own indices
            n = len(image.letters)
            coords = {n - off: -l.value for off, l in enumerate(image.letters) if l.value}
            mapped.append(ZVector.from_dict(coords, vec.mode).to_json_obj())
        else:
            word = TensorWord.from_json_obj(cartan, obj)
            mapped.append(apply_at(ctx, word, window).to_json_obj())
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

    g = sub.add_parser("graph", help="breadth-first crystal graph")
    common(g, need_depth=True)
    g.add_argument("--format", choices=("dot", "json", "text"), default="text")
    g.set_defaults(func=cmd_graph)

    q = sub.add_parser("inequalities", help="emit an inequality system")
    common(q)
    q.add_argument("--method", choices=("generate", "rank2", "an"), default="generate")
    q.add_argument("--support-bound", type=int)
    q.add_argument("--max-rounds", type=int, default=60)
    q.add_argument("--window", type=int, help="window for the rank2 method")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_inequalities)

    v = sub.add_parser("verify", help="compare BFS against lattice points")
    common(v, need_depth=True)
    v.add_argument("--method", choices=("generate", "rank2"), default="generate")
    v.add_argument("--support-bound", type=int)
    v.add_argument("--max-rounds", type=int, default=60)
    v.add_argument("--window", type=int)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def console():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
