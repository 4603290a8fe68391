"""Command-line front end: simulate, check, transform, chsh, audit, zoo list.

Scientific verdicts (a failed factorization, an exceeded bound) are data and
exit 0; only operational problems exit nonzero: 2 for configuration errors,
3 for model validation or infeasible transforms. Every output file embeds the
resolved run configuration; a timestamp line is added unless --deterministic
is set, in which case repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .density import check_factorization, table_to_csv, tabulate_joint
from .descriptors import apply_transform_op, descriptor_text, load_schedule, make_model
from .errors import (
    ConfigurationError,
    DescriptorError,
    HarnessError,
    InvalidScheduleError,
    InvalidToleranceError,
)
from .inequality import (
    chsh,
    chsh_from_correlations,
    conditional_table,
    correlate,
    deterministic_bound,
    reference_correlation,
)
from .model import CHSH_OPTIMAL_ANGLES, TEST_ANGLES, LocalModel, s1, s2
from .stations import (
    DEFAULT_PAIRS,
    POLICIES,
    Schedule,
    empirical_correlations,
    locality_audit,
    run_experiment,
    write_trials_csv,
)
from .util import fmt12, scrub
from .zoo import REFERENCE_TABLE_NAME, ZOO


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", type=Path, default=None, help="output directory or file")
    parser.add_argument(
        "--deterministic", action="store_true",
        help="suppress timestamps so outputs are byte-identical across reruns",
    )
    parser.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="deterministic two-station coincidence-experiment harness",
    )
    parser.add_argument("--version", action="version", version=f"eprsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run scheduled trials, write the trial CSV and a summary")
    p.add_argument("--model", required=True, help="zoo name or descriptor path")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--policy", choices=POLICIES, default="fixed")
    p.add_argument("--angle-a", type=float, default=0.0)
    p.add_argument("--angle-b", type=float, default=TEST_ANGLES[1])
    p.add_argument("--angles", default=None, help="a,a',b,b' to add a CHSH block to the summary")
    p.add_argument("--schedule", type=Path, default=None, help="schedule descriptor file")
    _common_flags(p)

    p = sub.add_parser("check", help="factorization (both modes) and parameter independence")
    p.add_argument("--model", required=True)
    p.add_argument("--angle-a", type=float, default=0.0)
    p.add_argument("--angle-b", type=float, default=TEST_ANGLES[1])
    _common_flags(p)

    p = sub.add_parser("transform", help="apply transforms and write a new model descriptor")
    p.add_argument("--model", required=True)
    p.add_argument("--op", action="append", default=[], help="transform op, repeatable")
    _common_flags(p)

    p = sub.add_parser("chsh", help="four-correlation combination with bound and reference gap")
    p.add_argument("--model", required=True, help=f"zoo name, descriptor, or {REFERENCE_TABLE_NAME}")
    p.add_argument("--angles", default=None, help="a,a',b,b' (default: optimal grid)")
    p.add_argument("--method", choices=("exact", "monte_carlo"), default="exact")
    p.add_argument("--trials", type=int, default=100000)
    _common_flags(p)

    p = sub.add_parser("audit", help="counterfactual Einstein-locality audit")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--perturbations", type=int, default=3, help="remote alternatives per "
                   "trial: at most 4, 3 at a test angle; a larger count adds no pass")
    _common_flags(p)

    p = sub.add_parser("zoo", help="catalogue commands")
    p.add_argument("action", choices=("list",))
    _common_flags(p)

    return parser


# Options that say where and how outputs are written, not what was run; a
# schedule file is echoed as the pairs it resolves to.
NOT_ECHOED = ("out", "deterministic", "schedule")


def _stamp(args: argparse.Namespace) -> dict[str, str]:
    """The timestamp every output carries, or nothing under --deterministic."""
    if args.deterministic:
        return {}
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _report(args: argparse.Namespace, model: LocalModel | None, **body) -> dict:
    """A JSON report: the parsed options, the model (``None`` for the cosine
    reference table) and its transforms, then ``body``."""
    config = {k: v for k, v in vars(args).items() if k not in NOT_ECHOED}
    if model is None:
        return {"config": config, "model": REFERENCE_TABLE_NAME, "transforms": [], **body}
    return {"config": config, "model": model.name, "transforms": list(model.transforms), **body}


def _write_json(path: Path, report: dict, args: argparse.Namespace) -> None:
    """Write a report, creating its directory, stamped unless --deterministic."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = scrub({**report, **_stamp(args)})
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise InvalidScheduleError(f"--angles needs 4 comma-separated values, got {text!r}")
    try:
        a, ap, b, bp = (float(p) for p in parts)
    except ValueError:
        raise InvalidScheduleError(f"--angles values must be numbers: {text!r}") from None
    return a, ap, b, bp


def cmd_zoo(args) -> int:
    for name, entry in ZOO.items():
        print(f"{name:28s} {entry.summary}")
    print(f"{REFERENCE_TABLE_NAME:28s} singlet cosine correlation table (not a local model)")
    return 0


def cmd_simulate(args) -> int:
    model = make_model(args.model)
    if args.schedule is not None:
        schedule = load_schedule(args.schedule)
    else:
        pairs = ((args.angle_a, args.angle_b),) if args.policy == "fixed" else DEFAULT_PAIRS
        schedule = Schedule(
            trials=args.trials,
            policy=args.policy,
            pairs=pairs,
            seed_source=args.seed,
            seed_settings=args.seed + 1,
        )
    run = run_experiment(model, schedule)
    pairs_block = []
    for (a_angle, b_angle), stats in sorted(empirical_correlations(run).items()):
        exact = correlate(model, s1(a_angle), s2(b_angle))
        pairs_block.append({**stats.to_dict(), "a": a_angle, "b": b_angle,
                            "exact_e_ab": exact.e_ab})
    summary = _report(args, model, pairs=pairs_block)
    config = summary["config"]
    if args.schedule is not None:
        # Echo what ran: the schedule's trials, policy and seeds replace the
        # command line's, and its pairs replace the angles.
        for key in ("angle_a", "angle_b", "seed"):
            del config[key]
        config.update({k: v for k, v in vars(schedule).items() if k != "pairs"})
    config["schedule_pairs"] = [[fmt12(a), fmt12(b)] for a, b in schedule.pairs]
    if args.angles:
        a, ap, b, bp = _parse_angles(args.angles)
        result = chsh(model, s1(a), s1(ap), s2(b), s2(bp), tol=args.tol)
        summary["chsh"] = result.to_dict()

    out_dir = args.out or Path(".")
    _write_json(out_dir / "summary.json", summary, args)
    comments = [f"config = {json.dumps(scrub(config), sort_keys=True)}"]
    comments += [f"{key} = {value}" for key, value in _stamp(args).items()]
    write_trials_csv(run, out_dir / "trials.csv", comments)

    for block in pairs_block:
        print(
            f"pair a={fmt12(block['a'])} b={fmt12(block['b'])}: "
            f"e_ab={fmt12(block['e_ab'])} (exact {fmt12(block['exact_e_ab'])}) "
            f"marginals {fmt12(block['marginal_a'])}, {fmt12(block['marginal_b'])}"
        )
    if "chsh" in summary:
        print(f"CHSH S = {fmt12(summary['chsh']['s_value'])}")
    print(f"wrote {out_dir / 'trials.csv'} and {out_dir / 'summary.json'}")
    return 0


def cmd_check(args) -> int:
    model = make_model(args.model)
    a = s1(args.angle_a)
    b = s2(args.angle_b)
    table = tabulate_joint(model, a, b)
    reports = {
        mode: check_factorization(table, mode, args.tol)
        for mode in ("given_lambda", "given_lambda_and_m")
    }
    cond_a = conditional_table(model, a)
    cond_b = conditional_table(model, b)
    payload = _report(
        args, model,
        factorization={mode: rep.to_dict() for mode, rep in reports.items()},
        cond_a={str(k): v for k, v in cond_a.items()},
        cond_b={str(k): v for k, v in cond_b.items()},
        max_conditional_bias=max(
            [abs(v) for v in cond_a.values()] + [abs(v) for v in cond_b.values()]
        ),
    )
    if args.out is not None:
        _write_json(args.out / "check.json", payload, args)
        (args.out / "joint_table.csv").write_text(table_to_csv(table), encoding="utf-8")
    for mode, rep in reports.items():
        verdict = "pass" if rep.passed else "FAIL"
        print(f"factorization {mode}: {verdict} (max deviation {fmt12(rep.max_deviation)})")
    for lam in model.source.states:
        print(
            f"E[A|{lam}] = {fmt12(cond_a[lam])}    E[B|{lam}] = {fmt12(cond_b[lam])}"
        )
    return 0


def cmd_transform(args) -> int:
    if not args.op:
        raise DescriptorError("transform needs at least one --op")
    model = make_model(args.model)
    notes = []
    for op in args.op:
        model = apply_transform_op(model, op)
        notes.append(f"applied: {model.transforms[-1]}")
    if model.sign is not None:
        notes.append(f"attained sign mean = {fmt12(model.sign.mean)}")
    text = descriptor_text(args.model, args.op, notes)
    out = args.out or Path(f"{model.name}_transformed.ini")
    if out.suffix == "":
        out = out / "model.ini"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    # Descriptor must round-trip: reload and confirm it builds.
    make_model(out)
    print(f"wrote {out}")
    for note in notes:
        print(note)
    return 0


def cmd_chsh(args) -> int:
    angles = _parse_angles(args.angles) if args.angles else CHSH_OPTIMAL_ANGLES
    a, ap, b, bp = angles
    settings = (s1(a), s1(ap), s2(b), s2(bp))
    reference = chsh_from_correlations(reference_correlation, *settings, tol=args.tol)
    trials = args.trials if args.method == "monte_carlo" else 0
    if args.model == REFERENCE_TABLE_NAME:
        model, result = None, reference
    else:
        model = make_model(args.model)
        result = chsh(model, *settings, method=args.method, trials=trials, seed=args.seed,
                      tol=args.tol)
    bound = deterministic_bound()
    gap = abs(reference.s_value) - abs(result.s_value)
    payload = _report(
        args, model,
        chsh=result.to_dict(),
        deterministic_bound=bound,
        reference_s=reference.s_value,
        gap_to_reference=gap,
    )
    if args.out is not None:
        _write_json(args.out / "chsh.json", payload, args)
        with open(args.out / "chsh.csv", "w", encoding="utf-8") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(("model", "a", "aprime", "b", "bprime", "method", "trials", "seed",
                             "S", "within_bound"))
            writer.writerow((
                payload["model"],
                fmt12(a),
                fmt12(ap),
                fmt12(b),
                fmt12(bp),
                args.method if model is not None else "exact",
                trials,
                args.seed,
                fmt12(result.s_value),
                str(result.within_local_bound).lower(),
            ))
    print(f"S = {fmt12(result.s_value)}")
    print(f"local deterministic bound = {fmt12(bound)}")
    print(f"within local bound: {str(result.within_local_bound).lower()}")
    print(f"reference (singlet cosine) S = {fmt12(reference.s_value)}")
    print(f"gap to reference = {fmt12(gap)}")
    return 0


def cmd_audit(args) -> int:
    model = make_model(args.model)
    schedule = Schedule(
        trials=args.trials,
        policy="cycle",
        seed_source=args.seed,
        seed_settings=args.seed + 1,
    )
    report = locality_audit(model, schedule, args.perturbations)
    if args.out is not None:
        _write_json(args.out / "audit.json", _report(args, model, audit=report.to_dict()), args)
    verdict = "pass" if report.passed else "FAIL"
    print(f"locality audit: {verdict} ({report.mismatches} mismatches over "
          f"{report.trials_checked} trials)")
    if report.first_mismatch is not None:
        print(f"first mismatch: {json.dumps(scrub(report.first_mismatch), sort_keys=True)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "check": cmd_check,
        "transform": cmd_transform,
        "chsh": cmd_chsh,
        "audit": cmd_audit,
        "zoo": cmd_zoo,
    }
    try:
        if args.tol <= 0.0:
            raise InvalidToleranceError(f"--tol must be > 0, got {args.tol!r}")
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"eprsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except HarnessError as exc:
        print(f"eprsim: model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"eprsim: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
