"""Workload inputs and the CLI command sequence that each workload times.

Every workload runs the same six kinds of step through ``eprsim.cli.main``:
transform, check, exact chsh, Monte Carlo chsh, simulate and audit. What
differs is the model and the size of each step, chosen so that one layer
dominates the workload's wall time while every end-to-end metric still has
a measurement on every workload.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Seed at which the outputs must equal the digests recorded from the seed commit.
REFERENCE_SEED = 7

VALUES_PER_SIDE = 8


@dataclass(frozen=True)
class Sizes:
    wide_states: int  # exact_wide only; 0 for zoo-based workloads
    wide_slots: int
    sim_trials: int
    sim_policy: str
    audit_trials: int
    mc_trials: int  # per setting pair


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # zoo name, or the descriptor file the workload writes
    slot_correlated: str | None  # descriptor with v1 == v2 per slot, if any
    sizes: Sizes
    warm: Sizes  # reduced sizes for the untimed warm-up pass in set-up


# Sizes are the ROADMAP's end-to-end sizes shrunk so that one pass of the
# sequence takes about a second on a 2-core host, and a run of 30 s holds 20
# to 40 passes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trials", "bell_product_basic", None,
            Sizes(0, 0, 50_000, "cycle", 50_000, 100_000),
            Sizes(0, 0, 2_000, "cycle", 2_000, 10_000),
        ),
        Workload(
            "exact_wide", "wide_product.ini", "wide_slotcorr.ini",
            Sizes(64, 64, 10_000, "fixed", 1_000, 10_000),
            Sizes(8, 64, 1_000, "fixed", 100, 1_000),
        ),
        Workload(
            "monte_carlo", "cosine_threshold_lhv", None,
            Sizes(0, 0, 10_000, "cycle", 10_000, 2_000_000),
            Sizes(0, 0, 1_000, "cycle", 1_000, 100_000),
        ),
    )
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation. ``work`` is what the step's throughput counts:
    (state, slot) cells for check, trials for simulate and audit, trials over
    all four pairs for Monte Carlo chsh; 0 where no rate is reported."""

    kind: str
    argv: tuple[str, ...]
    work: int
    out: str
    model: str = ""
    expect: str = ""  # for check steps: factorizes, slot_correlated or doubled


def wide_descriptor(name: str, states: int, slots: int, gen2_stride: int, seed: int) -> str:
    """A 'cycle'-generator, 'cosine'-outcome model with seeded per-state offsets.

    gen1 cycles through the values every slot. With gen2 stride 8, the pair
    (v1, v2) visits all 64 value pairs once per 64 slots, so the values are
    independent given the state; with stride 1, v1 == v2 in every slot.
    """
    rng = random.Random(f"wide-offsets:{seed}")
    labels = [f"s{i}" for i in range(states)]
    offsets = "".join(f"\n    {lam}, {rng.uniform(0.0, 2 * math.pi)!r}" for lam in labels)
    values = ", ".join(str(v) for v in range(VALUES_PER_SIDE))
    return (
        f"[model]\nname = {name}\n\n"
        f"[source]\nstates = {', '.join(labels)}\nprior = {', '.join([repr(1 / states)] * states)}\n\n"
        f"[grid]\nslots = {slots}\n\n"
        f"[gen1]\nkind = cycle\nvalues = {values}\nstride = 1\n\n"
        f"[gen2]\nkind = cycle\nvalues = {values}\nstride = {gen2_stride}\n\n"
        f"[out1]\nkind = cosine\ntable = {offsets}\n\n"
        f"[out2]\nkind = cosine\nnegate = true\ntable = {offsets}\n"
    )


def write_inputs(workload: Workload, sizes: Sizes, seed: int, work_dir: Path) -> None:
    """Write the descriptor files a workload reads; zoo workloads need none."""
    if not sizes.wide_states:
        return
    for name, stride in ((workload.base, VALUES_PER_SIDE), (workload.slot_correlated, 1)):
        text = wide_descriptor(Path(name).stem, sizes.wide_states, sizes.wide_slots, stride, seed)
        (work_dir / name).write_text(text, encoding="utf-8")


def build_steps(workload: Workload, sizes: Sizes, seed: int, cells: int) -> list[Step]:
    """The timed command sequence. ``cells`` is states x slots of the base model."""
    common = ("--seed", str(seed), "--deterministic")
    base = workload.base
    doubled = "doubled.ini"
    steps = [
        Step("transform",
             ("transform", "--model", base, "--op", f"rademacher mean=0 seed={seed}",
              "--op", "double", *common, "--out", doubled),
             0, doubled, base),
    ]
    checks = [(base, cells, "factorizes")]
    if workload.slot_correlated:
        checks.append((workload.slot_correlated, cells, "slot_correlated"))
    checks.append((doubled, 2 * cells, "doubled"))
    for i, (model, n_cells, expect) in enumerate(checks):
        out = f"check_{i}"
        steps.append(Step("check", ("check", "--model", model, *common, "--out", out),
                          n_cells, out, model, expect))
    steps += [
        Step("chsh_exact", ("chsh", "--model", base, *common, "--out", "chsh_exact"),
             0, "chsh_exact", base),
        Step("chsh_mc",
             ("chsh", "--model", base, "--method", "monte_carlo",
              "--trials", str(sizes.mc_trials), *common, "--out", "chsh_mc"),
             4 * sizes.mc_trials, "chsh_mc", base),
        Step("simulate",
             ("simulate", "--model", base, "--policy", sizes.sim_policy,
              "--trials", str(sizes.sim_trials), *common, "--out", "simulate"),
             sizes.sim_trials, "simulate", base),
        Step("audit",
             ("audit", "--model", base, "--trials", str(sizes.audit_trials),
              "--perturbations", "3", *common, "--out", "audit"),
             sizes.audit_trials, "audit", base),
    ]
    return steps
