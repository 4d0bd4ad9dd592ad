"""Measuring process of the benchmark: one workload in a fresh interpreter.

run.py starts it with PYTHONHASHSEED fixed. It runs `crystalpoly` commands
in-process through `crystalpoly.cli.main(argv)` with stdout captured, one
at a time (a closed loop with one client), checks each result against
expected.json, and prints one JSON report as its last stdout line.

    python3 perfbench/worker.py --workload closure --seed 3 --seconds 30 [--trace | --setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import cases
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
MIN_CASES = 100  # leaves ten cases above the 90th percentile
MAX_SECONDS = 60  # start no block after this, so a run ends well inside its time limit
# Reported times are scaled to a machine on which the reference loop takes
# this long: about its time on an uncontended 2-vCPU Xeon VM with Python
# 3.11, so scaled times there read close to raw CPU times.
REFERENCE_MS = 0.65


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _reference_loop():
    """Plain-Python work that shares no code with crystalpoly: calls, tuples, dicts."""
    table = {}
    for i in range(2500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i * 3
    return _fib(16) + sum(x * x for x in range(1600)) + len(sorted(table.values()))


def machine_speed() -> float:
    """REFERENCE_MS over the CPU ms the reference loop takes now (mean of two runs).

    On a shared host the CPU time of the same work swings by a factor of
    two over seconds to minutes, and the loop slows with it. Multiplying a
    CPU time by the speed measured with it removes most of that swing and
    none of the program's own changes. Times here use the thread's CPU
    clock: the process clock turns coarse (kernel ticks) while a profiling
    timer is armed, and the worker has one thread.
    """
    start = time.thread_time()
    _reference_loop()
    _reference_loop()
    return REFERENCE_MS / ((time.thread_time() - start) * 1000 / 2)


class SpeedSampler:
    """Machine speed sampled every INTERVAL CPU seconds, inside cases too.

    A profiling-timer signal runs the reference loop; its own CPU time is
    taken out of the case it interrupted. A case of a second or more can
    span a change of the host's speed, so a case is scaled by the mean of
    the samples taken inside it and the last one before it.
    """

    INTERVAL = 0.1

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0  # CPU seconds the handler used

    def _sample(self, signum, frame):
        start = time.thread_time()
        _reference_loop()
        elapsed = time.thread_time() - start
        self.spent += elapsed
        self.speeds.append(REFERENCE_MS / (elapsed * 1000))

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def percentile(values, q: float) -> float:
    """Percentile of a non-empty list, interpolating linearly between ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def import_cli():
    """crystalpoly.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from crystalpoly import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"crystalpoly was imported from {cli.__file__}, not from {src}")
    return cli


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def run_case(cli, argv):
    """(exit code, stdout, CPU seconds, traceback or None) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.thread_time()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.thread_time() - start
    return code, out.getvalue(), seconds, error


def scaled_case(cli, argv, sampler):
    """run_case, with the case's CPU seconds less the sampler's, and the
    machine speed to scale them by."""
    taken, spent = len(sampler.speeds), sampler.spent
    code, stdout, seconds, error = run_case(cli, argv)
    speeds = sampler.speeds[taken - 1:]
    return code, stdout, seconds - (sampler.spent - spent), statistics.fmean(speeds), error


def check(argv, code, stdout, error, expected) -> tuple[bool, dict]:
    """Whether a result matches its recorded answer, and the fields compared."""
    got = cases.summarize(argv, code, stdout)
    want = expected.get(cases.key(argv))
    return error is None and want is not None and got == want, got


def run_blocks(cli, blocks, expected, sampler, *, seconds=None, tracer=None):
    """Run whole blocks from `blocks` until it ends or, given `seconds`, until
    that much wall time has passed and MIN_CASES cases have run.

    Returns the per-case records and the CPU time of the loop. A record's
    `ms` is the case's CPU time times the machine speed (SpeedSampler);
    `cpu_ms` is the raw CPU time.
    """
    results = []
    wall_start, cpu_start = time.perf_counter(), time.thread_time()
    for block in blocks:
        for argv in block:
            if tracer is not None:
                tracer.case = len(results)
            code, stdout, cpu, speed, error = scaled_case(cli, argv, sampler)
            ok, got = check(argv, code, stdout, error, expected)
            record = {"argv": argv, "exit": code, "ms": cpu * speed * 1000, "cpu_ms": cpu * 1000,
                      "speed": speed, "ok": ok}
            if not ok:
                record.update(got=got, error=error)
                print(f"FAILED {argv}: {got} {error or ''}", file=sys.stderr)
            results.append(record)
        if seconds is not None:
            wall = time.perf_counter() - wall_start
            if (wall >= seconds and len(results) >= MIN_CASES) or wall >= MAX_SECONDS:
                break
    return results, time.thread_time() - cpu_start


def end_to_end(results) -> dict:
    ms = [r["ms"] for r in results]
    passed = sum(r["ok"] for r in results)
    return {
        "cases_per_s": {"value": 1000 * len(results) / sum(ms), "unit": "1/s"},
        "case_ms_p50": {"value": percentile(ms, 0.5), "unit": "ms"},
        "case_ms_p90": {"value": percentile(ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "pass_ratio": {"value": passed / len(results), "unit": "ratio"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(cases.STRATA), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_cli()
    case_blocks = cases.blocks(args.workload, args.seed)
    first = next(case_blocks)  # later blocks are drawn as the run reaches them
    setup_s = time.process_time()  # CPU time since the interpreter started
    setup_s *= statistics.median(machine_speed() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = load_expected()
    report = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    with SpeedSampler() as sampler:
        if args.trace:
            chosen = [first, *itertools.islice(case_blocks, cases.TRACE_BLOCKS[args.workload] - 1)]
            plain, plain_s = run_blocks(cli, chosen, expected, sampler)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_s = run_blocks(cli, chosen, expected, sampler, tracer=tracer)
            finally:
                tracer.uninstall()
            results = plain + traced
            report["metrics"] = tracer.layer_metrics(traced_s - plain_s)
            report["cpu_s"] = {"untraced": plain_s, "traced": traced_s}
            report["spans"] = tracer.span_records()
        else:
            blocks = itertools.chain([first], case_blocks)
            results, cpu_s = run_blocks(cli, blocks, expected, sampler, seconds=args.seconds)
            report["metrics"] = end_to_end(results)
            report["cpu_s"] = {"measured": cpu_s}
    report["cases"] = results
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
