"""Traced run: wrappers installed around crystalpoly's public functions.

Nothing in src/ is edited. Each wrapper replaces a name where its callers
look it up: methods on their classes, the names `cli` imports from other
modules, and the module globals `braid.run_property_suite` calls.

Two kinds of wrapper:

- a span, at coarse boundaries (one `cli.main` per case, BFS, descent
  generation, enumeration, reports, rendering, the axiom checker, the
  braid suite). A span is recorded as (name, start, end, parent, case) and
  its self time is its duration minus its child spans.
- a hot call (the operators, index-sequence lookups, tensor-word
  statistics, braid maps), far too frequent to record one by one: only
  its call count and its self time are aggregated. Its self time excludes
  the hot calls nested in it, so the groups partition the time spent in
  hot calls; a span's self time still includes the hot calls under it.
"""

from __future__ import annotations

import time
from collections import Counter

# (name, unit, better); BENCHMARK.json lists the same names under per_layer.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("forms.generate.calls", "count", "lower"),
    ("forms.generate.self_s", "s", "lower"),
    ("forms.generate.forms_out", "count", "higher"),
    ("forms.generate.rounds", "count", "lower"),
    ("forms.s.calls", "count", "lower"),
    ("forms.generate.admit_ratio", "ratio", "higher"),
    ("forms.enumerate.calls", "count", "lower"),
    ("forms.enumerate.self_s", "s", "lower"),
    ("forms.enumerate.points", "count", "higher"),
    ("forms.report.self_s", "s", "lower"),
    ("forms.render.self_s", "s", "lower"),
    ("closed_forms.rank2_system.calls", "count", "lower"),
    ("closed_forms.rank2_system.self_s", "s", "lower"),
    ("zvectors.bfs.calls", "count", "lower"),
    ("zvectors.bfs.self_s", "s", "lower"),
    ("zvectors.bfs.nodes", "count", "higher"),
    ("zvectors.bfs.edges", "count", "higher"),
    ("zvectors.bfs.new_ratio", "ratio", "higher"),
    ("zvectors.f.calls", "count", "lower"),
    ("zvectors.e.calls", "count", "lower"),
    ("zvectors.m_set.calls", "count", "lower"),
    ("zvectors.sigma.calls", "count", "lower"),
    ("zvectors.ops.self_s", "s", "lower"),
    ("cartan.seq.calls", "count", "lower"),
    ("cartan.seq.self_s", "s", "lower"),
    ("cartan.a.calls", "count", "lower"),
    ("crystals.axioms.calls", "count", "lower"),
    ("crystals.axioms.self_s", "s", "lower"),
    ("crystals.axioms.elements", "count", "higher"),
    ("crystals.tensor.f.calls", "count", "lower"),
    ("crystals.tensor.e.calls", "count", "lower"),
    ("crystals.tensor.eps_phi_wt.calls", "count", "lower"),
    ("crystals.tensor.self_s", "s", "lower"),
    ("braid.suite.calls", "count", "lower"),
    ("braid.suite.self_s", "s", "lower"),
    ("braid.samples", "count", "higher"),
    ("braid.phi.calls", "count", "lower"),
    ("braid.map.calls", "count", "lower"),
    ("braid.map.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_perf = time.perf_counter


class Tracer:
    """Spans and aggregated hot-call figures, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.case = None
        self._open: list[list] = []  # [span index, time covered by child spans]
        self._hot: list[float] = []  # per open hot call: time of nested hot calls
        self._patched: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap `fn` as a span; `after(args, result)` adds counts on return."""
        spans, open_, self_s, counts = self.spans, self._open, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append([name, 0.0, 0.0, open_[-1][0] if open_ else None, self.case])
            open_.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                open_.pop()
                record = spans[frame[0]]
                record[1], record[2] = start, end
                self_s[name] += (end - start) - frame[1]
                counts[name + ".calls"] += 1
                if open_:
                    open_[-1][1] += end - start
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def hot(self, counter, group, fn):
        """Count calls of `fn` under `counter`; add its self time to `group`."""
        hot, self_s, counts = self._hot, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            hot.append(0.0)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                self_s[group] += elapsed - hot.pop()
                if hot:
                    hot[-1] += elapsed

        return wrapper

    def count(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the crystalpoly layers; `uninstall` puts the originals back."""
        from crystalpoly import braid, cli
        from crystalpoly.cartan import CartanData, IndexSequence
        from crystalpoly.crystals import TensorWord
        from crystalpoly.forms import DescentSystem, FormSet
        from crystalpoly.zvectors import SequenceCrystal

        counts = self.counts
        p = self._patch

        p(cli, "main", self.span("cli", cli.main))
        p(cli, "rank2_system", self.span("closed_forms.rank2_system", cli.rank2_system))

        def axioms_done(args, result):
            counts["crystals.axioms.elements"] += len(args[1])

        p(cli, "check_crystal_axioms",
          self.span("crystals.axioms", cli.check_crystal_axioms, axioms_done))

        def suite_done(args, result):
            counts["braid.samples"] += result["n"]

        p(cli, "run_property_suite",
          self.span("braid.suite", cli.run_property_suite, suite_done))
        p(braid, "phi", self.count("braid.phi.calls", braid.phi))
        for name in ("map_values", "map_values_nested"):
            p(braid, name, self.hot("braid.map.calls", "braid.map.self_s", getattr(braid, name)))

        def generated(args, result):
            counts["forms.generate.forms_out"] += len(result.forms)
            counts["forms.generate.rounds"] += result.rounds

        p(DescentSystem, "generate",
          self.span("forms.generate", DescentSystem.generate, generated))
        p(DescentSystem, "s", self.count("forms.s.calls", DescentSystem.s))

        def enumerated(args, result):
            counts["forms.enumerate.points"] += len(result)

        p(FormSet, "enumerate_points",
          self.span("forms.enumerate", FormSet.enumerate_points, enumerated))
        for name in ("positivity_report", "ampleness_report"):
            p(FormSet, name, self.span("forms.report", getattr(FormSet, name)))
        p(FormSet, "render_text", self.span("forms.render", FormSet.render_text))

        bfs = SequenceCrystal.bfs

        def bfs_counted(crystal, depth):
            f_before = counts["zvectors.f.calls"]
            graph = bfs(crystal, depth)
            counts["zvectors.bfs.f_calls"] += counts["zvectors.f.calls"] - f_before
            counts["zvectors.bfs.nodes"] += len(graph.nodes)
            counts["zvectors.bfs.edges"] += len(graph.edges)
            return graph

        p(SequenceCrystal, "bfs", self.span("zvectors.bfs", bfs_counted))
        for name in ("f", "e", "m_set", "sigma", "sigma_0", "epsilon", "phi", "weight_pairings"):
            wrapped = self.hot(f"zvectors.{name}.calls", "zvectors.ops.self_s",
                               getattr(SequenceCrystal, name))
            p(SequenceCrystal, name, wrapped)

        for name in ("index_at", "next_occurrence", "prev_occurrence", "positions_of",
                     "next_position_of"):
            p(IndexSequence, name,
              self.hot("cartan.seq.calls", "cartan.seq.self_s", getattr(IndexSequence, name)))
        p(CartanData, "a", self.count("cartan.a.calls", CartanData.a))

        for name in ("f", "e", "eps_phi_wt"):
            p(TensorWord, name, self.hot(f"crystals.tensor.{name}.calls",
                                         "crystals.tensor.self_s", getattr(TensorWord, name)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, overhead_s: float) -> dict:
        """Every LAYER_METRICS figure, as {name: {"value", "unit"}}."""
        c = self.counts
        values = dict(c)
        for name, seconds in self.self_s.items():  # spans by name, hot groups by group
            values[name if name.endswith(".self_s") else name + ".self_s"] = seconds
        values["forms.generate.admit_ratio"] = (
            c["forms.generate.forms_out"] / c["forms.s.calls"] if c["forms.s.calls"] else 0.0
        )
        new_nodes = c["zvectors.bfs.nodes"] - c["zvectors.bfs.calls"]  # roots are not new
        values["zvectors.bfs.new_ratio"] = (
            new_nodes / c["zvectors.bfs.f_calls"] if c["zvectors.bfs.f_calls"] else 0.0
        )
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit, _ in LAYER_METRICS}

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "case": k}
            for n, a, b, p, k in self.spans
        ]
