"""Correctness gate: every failed check counts as a failed operation.

Checks that hold at any seed read the outputs of a timed pass. Digest checks
compare the outputs at the reference seed with ``golden.json``, recorded from
the seed commit. The negative control shows that the locality audit can fail.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

TRIAL_SAMPLE = 256
MC_SIGMAS = 6.0
SLOT_CORRELATED_DEVIATION = 0.109375  # 1/8 - 1/64: v1 == v2 over 8 values
ROUTE_TOL = 1e-12


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def value_tree(value):
    """Dicts keep their keys and lists their elements, down to the scalar
    leaves, each kept as its exact JSON text; so a later version may add keys
    at any depth and still match."""
    if isinstance(value, dict):
        return {"keys": {k: value_tree(v) for k, v in value.items()}}
    if isinstance(value, list):
        return {"items": [value_tree(v) for v in value]}
    return json.dumps(value)


def tree_contains(new, old) -> bool:
    """True when every key recorded in ``old`` is in ``new`` with an equal
    value, and every list has the same length with equal elements."""
    if isinstance(old, dict) and "items" in old:
        return (isinstance(new, dict) and len(new.get("items", ())) == len(old["items"])
                and all(tree_contains(n, o) for n, o in zip(new["items"], old["items"])))
    if isinstance(old, dict):
        return isinstance(new, dict) and "keys" in new and all(
            k in new["keys"] and tree_contains(new["keys"][k], v) for k, v in old["keys"].items()
        )
    return new == old


def golden_digests(steps, work_dir: Path) -> dict:
    """Digests of the files that the seed-commit gate covers."""
    files = {"simulate": ("trials.csv", "summary.json"), "check": ("joint_table.csv", "check.json")}
    out = {}
    for step in steps:
        for name in files.get(step.kind, ()):
            path = work_dir / step.out / name
            try:
                out[f"{step.out}/{name}"] = _json_tree(path) if name.endswith(".json") else sha256_file(path)
            except (OSError, ValueError):
                pass  # a missing or unreadable file fails its golden check
    return out


def _json_tree(path: Path):
    return value_tree(json.loads(path.read_text(encoding="utf-8")))


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Gate:
    """Collects named check results; ``failed`` lists the ones that did not hold."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]

    def golden(self, workload: str, steps, work_dir: Path) -> None:
        recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload)
        self.check(f"golden digests recorded for {workload}", bool(recorded))
        found = golden_digests(steps, work_dir)
        for rel, old in (recorded or {}).items():
            new = found.get(rel)
            self.check(f"golden {rel}", new is not None and tree_contains(new, old),
                       "differs from the seed-commit digest")

    def outputs(self, ep, steps, work_dir: Path, seed: int) -> None:
        """Seed-independent checks on one pass's outputs; ``ep`` is the eprsim package."""
        exact_s = None
        for step in steps:
            d = work_dir / step.out
            try:
                if step.kind == "check":
                    self._check_report(step, _load(d / "check.json"))
                elif step.kind == "chsh_exact":
                    exact_s = _load(d / "chsh.json")["chsh"]["s_value"]
                    self._chsh_routes(ep, step, exact_s)
                elif step.kind == "chsh_mc":
                    self._monte_carlo(step, _load(d / "chsh.json")["chsh"], exact_s)
                elif step.kind == "simulate":
                    self._trial_rows(ep, step, d / "trials.csv", seed)
                elif step.kind == "audit":
                    audit = _load(d / "audit.json")["audit"]
                    self.check(f"audit {step.model} passes",
                               audit["pass"] and audit["mismatches"] == 0,
                               f"{audit['mismatches']} mismatches")
            except Exception as exc:  # a missing or malformed output fails the gate, not the run
                self.check(f"{step.kind} {step.model} outputs", False, repr(exc))

    def _check_report(self, step, report: dict) -> None:
        fact = report["factorization"]
        name = f"check {step.model}"
        self.check(f"{name} given_lambda_and_m passes", fact["given_lambda_and_m"]["pass"])
        if step.expect == "factorizes":
            self.check(f"{name} given_lambda passes", fact["given_lambda"]["pass"])
        elif step.expect == "slot_correlated":
            dev = fact["given_lambda"]["max_deviation"]
            self.check(f"{name} given_lambda fails by {SLOT_CORRELATED_DEVIATION}",
                       not fact["given_lambda"]["pass"]
                       and abs(dev - SLOT_CORRELATED_DEVIATION) <= ROUTE_TOL, f"deviation {dev!r}")
        elif step.expect == "doubled":
            conds = [*report["cond_a"].values(), *report["cond_b"].values()]
            self.check(f"{name} conditionals are exactly 0.0", all(v == 0.0 for v in conds))

    def _chsh_routes(self, ep, step, s_value: float) -> None:
        """Exact chsh against the independent joint-table route."""
        model = ep.make_model(step.model)
        a, ap, b, bp = (ep.s1(x) if i < 2 else ep.s2(x) for i, x in enumerate(ep.CHSH_OPTIMAL_ANGLES))
        es = [ep.correlate_via_table(model, ep.tabulate_joint(model, x, y)).e_ab
              for x, y in ((a, b), (a, bp), (ap, b), (ap, bp))]
        via_table = es[0] - es[1] + es[2] + es[3]
        self.check(f"chsh {step.model} exact matches correlate_via_table",
                   abs(via_table - s_value) <= ROUTE_TOL, f"{s_value!r} vs {via_table!r}")

    def _monte_carlo(self, step, result: dict, exact_s: float | None) -> None:
        n = step.work // 4
        sigma = math.sqrt(sum(1.0 - e * e for e in result["correlations"]) / n)
        ok = exact_s is not None and abs(result["s_value"] - exact_s) <= MC_SIGMAS * sigma
        self.check(f"chsh {step.model} monte carlo within {MC_SIGMAS:g} sigma of exact", ok,
                   f"S={result['s_value']!r} exact={exact_s!r} sigma={sigma!r}")

    def _trial_rows(self, ep, step, path: Path, seed: int) -> None:
        """A seeded sample of rows must equal the model's own outcome rule."""
        with open(path, newline="", encoding="utf-8") as fp:
            rows = [r for r in csv.reader(fp) if r and not r[0].startswith("#")][1:]
        self.check(f"simulate {step.model} row count", len(rows) == step.work, f"{len(rows)} rows")
        model = ep.make_model(step.model)
        rng = random.Random(f"trial-sample:{seed}")
        bad = 0
        for row in rng.sample(rows, min(TRIAL_SAMPLE, len(rows))):
            m, a, b, lam = int(row[1]), ep.s1(float(row[2])), ep.s2(float(row[3])), row[4]
            expected = [str(model.gen1.evaluate(a, m)), str(model.gen2.evaluate(b, m)),
                        str(ep.evaluate_outcome(model, ep.Station.S1, a, lam, m)),
                        str(ep.evaluate_outcome(model, ep.Station.S2, b, lam, m))]
            bad += row[5:9] != expected
        self.check(f"simulate {step.model} sampled rows match evaluate_outcome", bad == 0,
                   f"{bad} of {TRIAL_SAMPLE} rows differ")

    def negative_control(self, ep, seed: int) -> int:
        """The audit must catch a model whose S1 outcome reads the S2 setting."""
        schedule = ep.Schedule(trials=1000, policy="cycle", seed_source=seed, seed_settings=seed + 1)
        report = ep.locality_audit(remote_reading_model(ep), schedule, 3)
        self.check("negative control: audit catches the remote-reading model",
                   not report.passed and report.mismatches > 0, f"{report.mismatches} mismatches")
        return report.mismatches


def remote_reading_model(ep):
    """A model that violates Einstein locality on purpose: the S2 generator
    publishes its setting through a shared cell that the S1 outcome rule reads."""
    cell = {}

    def gen2_rule(s, m, seed):
        cell["b"] = s.angle
        return 0

    def out1_rule(s, lam, v, m):
        return 1 if cell.get("b", 0.0) <= math.pi / 4 + 1e-9 else -1

    return ep.LocalModel(
        name="remote_reading_control",
        source=ep.SourceSpace(("u0",), (1.0,)),
        grid=ep.TimeGrid(4),
        gen1=ep.InstrumentParamGen(ep.Station.S1, (0,), lambda s, m, seed: 0),
        gen2=ep.InstrumentParamGen(ep.Station.S2, (0,), gen2_rule),
        out1=ep.OutcomeFn(ep.Station.S1, out1_rule),
        out2=ep.OutcomeFn(ep.Station.S2, lambda s, lam, v, m: 1),
    )
