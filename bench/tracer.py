"""Spans around dissinet's public functions, recorded from outside the package.

The package's modules import each other's functions with ``from … import``,
so a wrapper is installed under every name in every ``dissinet`` module
that is bound to the original function.  numpy's ``linalg.eigh`` is wrapped
to count calls.  Spans are kept in memory as (name, start, end, parent,
tag) and written out by :meth:`Tracer.dump` when the run ends.

The tracing overhead is estimated from what the run counts: the number of
wrapper calls times each wrapper's own cost, timed on a no-op.  A traced
pass set against an untraced one would measure the machine's drift between
the two passes more than the wrappers.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> public functions that get a span
TRACED = {
    "lmi": ("solve", "verify"),
    "synthesis": ("joint_decentralized_synthesis", "primal_control"),
    "dissipativity": ("closed_loop_dissipation_gap", "primalize_supply"),
    "network": ("stability_report", "assemble_closed_loop", "simulate",
                "global_condition", "dual_global_condition"),
    "graph": ("laplacian_bundle", "barabasi_albert"),
    "matrix_core": ("eig_general",),
    "microgrid": ("run_pipeline", "build_microgrid", "zoh_discretize",
                  "feasible_region_sample", "write_csv", "write_trajectory_csv",
                  "write_region_csv"),
}
SYNTHESIS_CALLS = ("synthesis.joint_decentralized_synthesis",
                   "synthesis.primal_control")
# Step sizes whose joint-synthesis time is reported separately.
TAGGED_STEPS = (1e-4, 1e-3, 5e-3)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
# Calls per timing loop, and loops, of the wrapper-cost estimate.
COST_CALLS = 20000
COST_LOOPS = 5


def _noop(*args, **kwargs):
    return None


class Tracer:
    """Installs the wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, tag]
        self.results = defaultdict(Counter)   # name -> outcome counts
        self.sim_node_steps = 0
        self.eigh_calls = 0
        self.eigh_in_solve = 0
        self._stack = []
        self._solve_depth = 0
        self._step = None
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "microgrid.zoh_discretize":
                tracer._step = float(args[1])
            if name == "network.simulate":
                tracer.sim_node_steps += args[0].n_nodes * int(args[2])
            index = len(tracer.spans)
            tag = tracer._step if name in SYNTHESIS_CALLS else None
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None, tag]
            tracer.spans.append(span)
            tracer._stack.append(index)
            solving = name == "lmi.solve"
            tracer._solve_depth += solving
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._solve_depth -= solving
            if name == "lmi.solve":
                tracer.results[name][getattr(result, "status", "None")] += 1
            elif name in SYNTHESIS_CALLS:
                tracer.results[name]["ok" if result is not None else "None"] += 1
            return result

        return traced

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.eigh_calls += 1
            self.eigh_in_solve += self._solve_depth > 0
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        import dissinet.microgrid

        modules = [m for k, m in sys.modules.items()
                   if k == "dissinet" or k.startswith("dissinet.")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"dissinet.{mod_name}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                traced = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, traced)
        report_cls = dissinet.microgrid.ExperimentReport
        self._patch(report_cls, "write",
                    self._wrap("microgrid.ExperimentReport.write",
                               report_cls.write))
        self._patch(np.linalg, "eigh", self._counted(np.linalg.eigh))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    # ------------------------------------------------------------ results

    def self_times(self):
        """name -> summed self time: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "h": tag}) + "\n")

    def overhead_s(self):
        """Estimated time the wrappers added: the spans and the counted
        ``eigh`` calls, each times its wrapper's cost on a no-op in a scratch
        tracer (fastest of a few loops, less the bare call)."""
        scratch = Tracer()
        costs = []
        for wrapped in (scratch._wrap("bench.noop", _noop), scratch._counted(_noop)):
            best = float("inf")
            for _ in range(COST_LOOPS):
                scratch.spans.clear()
                t0 = time.perf_counter()
                for _ in range(COST_CALLS):
                    wrapped()
                t1 = time.perf_counter()
                for _ in range(COST_CALLS):
                    _noop()
                t2 = time.perf_counter()
                best = min(best, ((t1 - t0) - (t2 - t1)) / COST_CALLS)
            costs.append(best)
        return len(self.spans) * costs[0] + self.eigh_calls * costs[1]

    def metrics(self, write_s, output_bytes):
        """Per-layer metrics, named ``<module>.<metric>``."""
        own = self.self_times()
        solves = sorted(self.durations("lmi.solve"))
        n = len(solves)
        tail_pct = next((p for p in TAIL_PERCENTILES
                         if n * (1.0 - p / 100.0) >= 10), None)
        synth_calls = sum(self.count(name) for name in SYNTHESIS_CALLS)
        synth_ok = sum(self.results[name]["ok"] for name in SYNTHESIS_CALLS)
        solves_in_synth = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "lmi.solve" and parent is not None
            and self.spans[parent][0] in SYNTHESIS_CALLS)
        sim_s = sum(self.durations("network.simulate"))
        m = {
            "lmi.solve_calls": (n, "count"),
            "lmi.solve_s": (own["lmi.solve"], "s"),
            "lmi.solve_p50_ms": (1e3 * statistics.median(solves) if n else 0.0, "ms"),
            "lmi.solve_tail_ms": (1e3 * float(np.percentile(solves, tail_pct))
                                  if tail_pct else 0.0, "ms"),
            "lmi.solve_tail_pct": (tail_pct or 0.0, "%"),
            "lmi.verify_s": (own["lmi.verify"], "s"),
            "lmi.eigh_calls": (self.eigh_in_solve, "count"),
            "lmi.verified_ratio": (self.results["lmi.solve"]["Verified"] / n
                                   if n else 0.0, "ratio"),
            "synthesis.joint_calls": (
                self.count("synthesis.joint_decentralized_synthesis"), "count"),
            "synthesis.joint_s": (own["synthesis.joint_decentralized_synthesis"], "s"),
            "synthesis.fixed_s": (own["synthesis.primal_control"], "s"),
            "synthesis.solves_per_node": (solves_in_synth / synth_calls
                                          if synth_calls else 0.0, "ratio"),
            "synthesis.certified_ratio": (synth_ok / synth_calls
                                          if synth_calls else 0.0, "ratio"),
            "dissipativity.gap_s": (own["dissipativity.closed_loop_dissipation_gap"], "s"),
            "dissipativity.primalize_s": (own["dissipativity.primalize_supply"], "s"),
            "network.stability_report_s": (own["network.stability_report"], "s"),
            "network.assemble_closed_loop_s": (own["network.assemble_closed_loop"], "s"),
            "network.simulate_s": (own["network.simulate"], "s"),
            "network.sim_node_steps_per_s": (self.sim_node_steps / sim_s
                                             if sim_s else 0.0, "1/s"),
            "network.global_condition_s": (own["network.global_condition"], "s"),
            "network.dual_global_condition_s": (own["network.dual_global_condition"], "s"),
            "graph.laplacian_bundle_s": (own["graph.laplacian_bundle"], "s"),
            "graph.barabasi_albert_s": (own["graph.barabasi_albert"], "s"),
            "matrix_core.eigh_calls": (self.eigh_calls, "count"),
            "matrix_core.eig_general_s": (own["matrix_core.eig_general"], "s"),
            "microgrid.write_trajectory_csv_s": (own["microgrid.write_trajectory_csv"], "s"),
            "microgrid.write_csv_s": (own["microgrid.write_csv"], "s"),
            "microgrid.output_bytes": (output_bytes, "bytes"),
            "microgrid.write_mb_per_s": (output_bytes / 1e6 / write_s, "MB/s"),
            "microgrid.feasible_region_sample_s": (
                own["microgrid.feasible_region_sample"], "s"),
            "microgrid.write_region_csv_s": (own["microgrid.write_region_csv"], "s"),
        }
        for h in TAGGED_STEPS:
            total = sum(end - start for name, start, end, _, tag in self.spans
                        if name == "synthesis.joint_decentralized_synthesis"
                        and tag == h)
            m[f"microgrid.synthesis_s_h{h:g}"] = (total, "s")
        return m
