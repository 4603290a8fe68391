"""Outside-in tracing: spans around the layer functions the CLI calls, and
counters on the rule callables of every model the CLI loads.

Nothing inside ``eprsim`` changes. The tracer rebinds names in the
``eprsim.cli`` and ``eprsim.descriptors`` namespaces (the functions those
modules imported from the layers), so only calls that cross a module boundary
are timed. Spans stay in memory and are written once, at the end of a run.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# Name bound in the module namespace -> span name. A span's metric is "<span name>_s".
CLI_SPANS = {
    "make_model": "descriptors.make_model",
    "apply_transform_op": "descriptors.transform",
    "tabulate_joint": "density.tabulate_joint",
    "check_factorization": "density.check_factorization",
    "table_to_csv": "density.table_to_csv",
    "conditional_table": "inequality.conditional_table",
    "correlate": "inequality.correlate",
    "run_experiment": "stations.run_experiment",
    "empirical_correlations": "stations.empirical_correlations",
    "write_trials_csv": "stations.write_trials_csv",
    "locality_audit": "stations.locality_audit",
}
DESCRIPTOR_SPANS = {
    "apply_transform_op": "descriptors.transform",
    "time_symmetrize": "symmetry.time_symmetrize",
    "layer_double": "symmetry.layer_double",
}
CHSH_SPANS = ("inequality.chsh_exact", "inequality.chsh_mc")
CLI_ROOT = "cli"  # the bench's own call into eprsim.cli.main; its self time is cli.self_s

TIME_METRICS = [f"{name}_s" for name in
                sorted({*CLI_SPANS.values(), *DESCRIPTOR_SPANS.values(), *CHSH_SPANS})]
TIME_METRICS.append("cli.self_s")
COUNT_METRICS = (
    "model.gen_calls", "model.out_calls", "model.gen_distinct",
    "density.table_entries", "density.csv_bytes", "stations.csv_bytes",
)


class Tracer:
    """Records spans (name, start, end, parent) and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self._stack: list[int] = []
        self._iteration = -1
        self._counts: dict[str, int] = defaultdict(int)
        self._gen_keys: set = set()
        self._model_serial = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._iteration])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            return after(result, args, kwargs) if after else result
        return traced

    # -- counters ----------------------------------------------------------
    def _count_rules(self, model):
        """The same model with counting wrappers on its four rule callables."""
        self._model_serial += 1
        serial, counts, keys = self._model_serial, self._counts, self._gen_keys

        def gen(g):
            rule = g.rule

            def counted(s, m, seed):
                counts["model.gen_calls"] += 1
                keys.add((serial, s.station, s.angle, m, seed))
                return rule(s, m, seed)
            return dataclasses.replace(g, rule=counted)

        def out(o):
            rule = o.rule

            def counted(s, lam, v, m):
                counts["model.out_calls"] += 1
                return rule(s, lam, v, m)
            return dataclasses.replace(o, rule=counted)

        return dataclasses.replace(model, gen1=gen(model.gen1), gen2=gen(model.gen2),
                                   out1=out(model.out1), out2=out(model.out2))

    def _after_table(self, table, args, kwargs):
        self._counts["density.table_entries"] += len(table.entries)
        return table

    def _after_csv(self, text, args, kwargs):
        self._counts["density.csv_bytes"] += len(text.encode("utf-8"))
        return text

    def _after_trials_csv(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._counts["stations.csv_bytes"] += os.path.getsize(path)
        return result

    # -- installation ------------------------------------------------------
    def install(self, cli, descriptors) -> None:
        """Rebind the traced names; :meth:`uninstall` restores the originals."""
        after = {
            "make_model": lambda model, a, k: self._count_rules(model),
            "tabulate_joint": self._after_table,
            "table_to_csv": self._after_csv,
            "write_trials_csv": self._after_trials_csv,
        }
        for module, table in ((cli, CLI_SPANS), (descriptors, DESCRIPTOR_SPANS)):
            for attr, name in table.items():
                self._rebind(module, attr, self._wrap(name, getattr(module, attr),
                                                      after.get(attr) if module is cli else None))
        chsh = cli.chsh

        def traced_chsh(*args, **kwargs):
            mc = kwargs.get("method", "exact") == "monte_carlo"
            return self.call(CHSH_SPANS[mc], chsh, *args, **kwargs)
        self._rebind(cli, "chsh", traced_chsh)

    def _rebind(self, module, attr, fn) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- per-iteration results ---------------------------------------------
    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._counts.clear()
        self._gen_keys.clear()

    def end_iteration(self) -> dict[str, float]:
        """Self time per span name and the counters, for the current iteration."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == self._iteration]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {name: 0.0 for name in TIME_METRICS}
        for i, (name, start, end, _, _) in spans:
            key = "cli.self_s" if name == CLI_ROOT else f"{name}_s"
            metrics[key] += (end - start) - child_time[i]
        for name in COUNT_METRICS:
            metrics[name] = float(self._counts.get(name, 0))
        metrics["model.gen_distinct"] = float(len(self._gen_keys))
        calls = metrics["model.gen_calls"]
        metrics["model.gen_useful_ratio"] = metrics["model.gen_distinct"] / calls if calls else 0.0
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(zip(("name", "start", "end", "parent", "iteration"), s)) for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
