"""crystalpoly benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the repository root. Workloads: verify, closure, braid-fuzz
(see cases.py and README.md). The measurement itself happens in a fresh
interpreter (worker.py) with PYTHONHASHSEED fixed, so a workload's peak
memory and set-up time are its own. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 the per-layer metrics of a
traced run. The seed, the Python version and the argv of every case go
to perfbench/out/ next to the results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HASHSEED = "0"  # ZVector hashes include the "binf" string
SETUP_PROBES = 5  # extra set-ups, spread over the run; their median with the run's is setup_s
WORKER_TIMEOUT = 165


class RunError(Exception):
    pass


def _command(worker_args):
    return [sys.executable, str(HERE / "worker.py"), *worker_args]


def _env():
    return dict(os.environ, PYTHONHASHSEED=HASHSEED)


def _report(returncode, stdout):
    if returncode != 0 or not stdout.strip():
        raise RunError(f"worker failed (exit {returncode})")
    return json.loads(stdout.splitlines()[-1])


def setup_probe(common):
    """CPU seconds one fresh interpreter needs to reach its first case."""
    try:
        proc = subprocess.run(_command(common + ["--setup-only"]), cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise RunError("set-up probe did not finish within 60 s") from exc
    return _report(proc.returncode, proc.stdout)["setup_s"]


def measure(common, flags, probe_every):
    """Run the measuring worker; while it runs, take SETUP_PROBES set-up
    probes `probe_every` seconds apart (none when probe_every is None).

    Set-up is CPU time, so a probe overlapping the worker does not inflate
    it, and spreading the probes over the run samples the machine's speed
    the way the run's cases do.
    """
    worker = subprocess.Popen(_command(common + flags), cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, text=True)
    try:
        setups = []
        if probe_every is not None:
            for _ in range(SETUP_PROBES):
                setups.append(setup_probe(common))
                try:
                    worker.wait(timeout=probe_every)
                except subprocess.TimeoutExpired:
                    pass
        try:
            stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"worker did not finish within {WORKER_TIMEOUT} s") from exc
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.communicate()
    return _report(worker.returncode, stdout), setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(cases.STRATA), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crystalpoly" / "cli.py").is_file():
        print(f"no crystalpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            report, setups = measure(common, ["--trace"], None)
        else:
            flags = ["--seconds", str(args.seconds)]
            report, setups = measure(common, flags, args.seconds / SETUP_PROBES)
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if not args.trace:
        setups.append(report["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    failed = sum(not r["ok"] for r in report["cases"])
    result = {
        "correct": failed == 0,
        "attempted": len(report["cases"]),
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "setup_samples_s": setups, **report, "result": result}, fh)

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:10s} cases {result['attempted']} failed {failed} -> {record}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
