#!/usr/bin/env python3
"""eprsim benchmark: time the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload single-threaded: it imports ``eprsim`` from the
checkout's ``src/``, sets up (import, inputs, model build, warm-up) several
times, then repeats the workload's command sequence through
``eprsim.cli.main(argv)`` until ``--seconds`` have passed, and finally checks
the outputs. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics instead.
``--workload all`` runs every workload in a fresh child process, one after
another. See README.md in this directory for the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import hostspeed
import plans
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNTIME = ROOT / ".perfbench"

SETUP_REPS = 7
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "simulate_trials_per_s": "trials/s",
    "audit_trials_per_s": "trials/s",
    "check_cells_per_s": "cells/s",
    "chsh_exact_s": "s",
    "chsh_mc_trials_per_s": "trials/s",
}
RATE_METRICS = {  # metric -> step kind whose work over seconds it reports
    "simulate_trials_per_s": "simulate",
    "audit_trials_per_s": "audit",
    "check_cells_per_s": "check",
    "chsh_mc_trials_per_s": "chsh_mc",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@contextlib.contextmanager
def in_dir(path: Path):
    path.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)


def import_eprsim():
    """Import eprsim afresh from the checkout's src/, never an installed copy."""
    for name in [n for n in sys.modules if n == "eprsim" or n.startswith("eprsim.")]:
        del sys.modules[name]
    ep = importlib.import_module("eprsim")
    if SRC not in Path(ep.__file__).resolve().parents:
        raise ImportError(f"eprsim was imported from {ep.__file__}, not from {SRC}")
    return ep, importlib.import_module("eprsim.cli"), importlib.import_module("eprsim.descriptors")


@dataclass
class Pass:
    times: list[float]  # seconds per step, as measured
    scale: float  # the pass's host-speed scale (see hostspeed.py)

    @property
    def wall(self) -> float:
        return sum(self.times)

    def scaled(self, steps, kind: str | None = None) -> float:
        """Scaled seconds of the steps of ``kind``, or of all steps."""
        return self.scale * sum(t for s, t in zip(steps, self.times)
                                if kind is None or s.kind == kind)


class Bench:
    """One workload run: set-up, timed passes, correctness gate, metrics."""

    def __init__(self, workload: plans.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.ep = self.cli = self.descriptors = None

    def run_cli(self, argv, tracer=None) -> None:
        """One CLI invocation; a nonzero exit or an exception is a failed operation."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.cli.main(list(argv))
                else:
                    rc = tracer.call(spans.CLI_ROOT, self.cli.main, list(argv))
        except (Exception, SystemExit):
            print(f"eprsim {' '.join(argv)} raised:\n{traceback.format_exc()}", file=sys.stderr)
            rc = None
        if rc != 0:
            self.failed += 1
            print(f"eprsim {' '.join(argv)} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)

    def run_pass(self, steps, tracer=None, probe=False) -> Pass:
        """One pass of the sequence; with ``probe``, each step follows its host probe.

        Before every step, untimed, eprsim is imported afresh (and the tracer
        installed on the new modules), so that each command starts from the
        module state of a fresh CLI process: no cache kept at module level
        carries over from one command or pass to the next. The dropped
        modules are then collected, so that the collector does not run
        inside a timed step on garbage that only the bench made."""
        times, probes = [], []
        for step in steps:
            self.ep, self.cli, self.descriptors = import_eprsim()
            gc.collect()
            if tracer is not None:
                tracer.install(self.cli, self.descriptors)
            try:
                if probe:
                    probes.append(hostspeed.probe())
                t = time.perf_counter()
                self.run_cli(step.argv, tracer)
                times.append(time.perf_counter() - t)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return Pass(times, hostspeed.scale(probes) if probe else 1.0)

    def steps_for(self, sizes: plans.Sizes, seed: int, directory: Path):
        """Write the inputs into ``directory`` and build the command sequence."""
        with in_dir(directory):
            plans.write_inputs(self.workload, sizes, seed, directory)
            model = self.ep.make_model(self.workload.base)
        cells = len(model.source.states) * model.grid.slot_count
        return plans.build_steps(self.workload, sizes, seed, cells)

    def setup_once(self):
        """Import, input generation and model build, and a reduced warm-up pass.
        Returns the steps and the set-up's seconds, scaled by host probes
        taken before and after it."""
        before = hostspeed.probe()
        start = time.perf_counter()
        self.ep, self.cli, self.descriptors = import_eprsim()
        warm_dir = self.work / "warm"
        warm = self.steps_for(self.workload.warm, self.seed, warm_dir)
        with in_dir(warm_dir):
            self.run_pass(warm)
        steps = self.steps_for(self.workload.sizes, self.seed, self.work)
        seconds = time.perf_counter() - start
        return steps, seconds * hostspeed.scale([before, hostspeed.probe()])

    def timed(self, steps, seconds: float, tracer):
        """Repeat the sequence for ``seconds``; with a tracer, every other pass is traced."""
        plain, traced = [], []
        start = time.perf_counter()
        with in_dir(self.work):
            while True:
                if tracer is not None and len(plain) > len(traced):
                    tracer.begin_iteration(len(traced))
                    wall = self.run_pass(steps, tracer, probe=True).scaled(steps)
                    traced.append({**tracer.end_iteration(), "wall": wall})
                else:
                    plain.append(self.run_pass(steps, probe=True))
                done = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
                if done and time.perf_counter() - start >= seconds:
                    return plain, traced

    def gate(self, steps) -> checks.Gate:
        gate = checks.Gate()
        with in_dir(self.work):
            gate.outputs(self.ep, steps, self.work, self.seed)
        ref_dir = self.work / "reference"
        ref_steps = self.steps_for(self.workload.sizes, plans.REFERENCE_SEED, ref_dir)
        with in_dir(ref_dir):
            self.run_pass(ref_steps)
            gate.outputs(self.ep, ref_steps, ref_dir, plans.REFERENCE_SEED)
            gate.golden(self.workload.name, ref_steps, ref_dir)
        mismatches = gate.negative_control(self.ep, self.seed)
        print(f"negative control: locality audit reports {mismatches} mismatches on the "
              f"remote-reading model ({'caught' if mismatches else 'NOT caught'})")
        self.attempted += len(gate.results)
        self.failed += len(gate.failed)
        return gate


def end_to_end_samples(steps, plain: list[Pass], setup_times) -> dict[str, list[float]]:
    """Per-pass samples of every timed end-to-end metric, in host-scaled seconds."""
    samples = {
        "setup_s": list(setup_times),
        "wall_s": [p.scaled(steps) for p in plain],
        "chsh_exact_s": [p.scaled(steps, "chsh_exact") for p in plain],
    }
    for name, kind in RATE_METRICS.items():
        work = sum(s.work for s in steps if s.kind == kind)
        samples[name] = [work / p.scaled(steps, kind) for p in plain]
    return samples


def write_json(path: Path, value) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")


def per_layer(steps, plain: list[Pass], traced) -> dict[str, tuple[float, int]]:
    """Per-layer medians over the traced passes; the overhead ratio compares
    host-scaled pass times, traced over untraced."""
    names = [k for k in traced[0] if k != "wall"]
    metrics = {k: (statistics.median(t[k] for t in traced), len(traced)) for k in names}
    ratio = (statistics.median(t["wall"] for t in traced)
             / statistics.median(p.scaled(steps) for p in plain))
    metrics["trace.overhead_ratio"] = (ratio, len(traced))
    return metrics


def run_workload(args) -> int:
    workload = plans.WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    work = RUNTIME / f"work-{workload.name}-{os.getpid()}"
    bench = Bench(workload, args.seed, work)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            steps, seconds = bench.setup_once()
            setup_times.append(seconds)
        tracer = spans.Tracer() if args.trace else None
        plain, traced = bench.timed(steps, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate = bench.gate(steps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        trace_path = RUNTIME / "traces" / f"{workload.name}-seed{args.seed}.json"
        tracer.write(trace_path)
        metrics = per_layer(steps, plain, traced)
        units = {k: per_layer_unit(k) for k in metrics}
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        samples = end_to_end_samples(steps, plain, setup_times)
        write_json(RUNTIME / "samples" / f"{workload.name}-seed{args.seed}.json",
                   {**samples, "raw_wall_s": [p.wall for p in plain],
                    "scales": [p.scale for p in plain]})
        metrics = {k: (statistics.median(v), len(v)) for k, v in samples.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, 1)
        units = END_TO_END
        print(f"{'unscaled wall':32s} {statistics.median(p.wall for p in plain):.6g} s "
              f"(median of {len(plain)}; every timing below is host-scaled)")
    for name, ok, detail in gate.results:
        if not ok:
            print(f"FAILED {name}: {detail}")
    print(f"{'checks':32s} {len(gate.results) - len(gate.failed)}/{len(gate.results)} passed")
    print(f"{'error_rate':32s} {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    for name, (value, n) in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]} (median of {n})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in plans.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*plans.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=plans.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eprsim" / "__init__.py").is_file():
        print(f"perfbench: no eprsim sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
