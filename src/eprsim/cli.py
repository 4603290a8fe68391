"""Command-line front end: simulate, check, transform, chsh, audit, zoo list.

Each command takes only the options its handler reads; a command line is read
by that command's own parser, or by the full tree if it names no command.
Scientific verdicts (a failed factorization, an exceeded bound) are data and
exit 0; only operational problems exit nonzero: 2 for configuration errors,
3 for model validation or infeasible transforms. Every output file embeds the
resolved run configuration; a timestamp line is added unless --deterministic
is set, in which case repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import shutil
import sys
from datetime import datetime, timezone
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

from . import __version__, density
from .density import (TableEntries, check_factorization, listing, listing_text, table_to_csv,
                      tabulate_joint)
from .descriptors import apply_transform_op, descriptor_text, load_schedule, make_model
from .errors import (
    ConfigurationError,
    DescriptorError,
    HarnessError,
    InvalidScheduleError,
    InvalidToleranceError,
)
from .inequality import (
    FALSE_ALARM_RATE,
    LOCAL_BOUND,
    chsh,
    chsh_from_correlations,
    conditional_table,
    correlate,  # unused here; the benchmark's tracer rebinds this name
    exact_correlation,
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
from .util import fmt12, open_output
from .zoo import REFERENCE_TABLE_NAME, ZOO


def _output_flags(p: argparse.ArgumentParser, tol: bool = True) -> None:
    """--seed, --out and --deterministic, and --tol if the command reads it."""
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", type=Path, default=None, help="output directory or file")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress timestamps so outputs are byte-identical across reruns")
    if tol:
        p.add_argument("--tol", type=float, default=1e-9, help="tolerance, finite, > 0 (default 1e-9)")


def _simulate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="zoo name or descriptor path")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--policy", choices=POLICIES, default="fixed")
    p.add_argument("--angle-a", type=float, default=0.0)
    p.add_argument("--angle-b", type=float, default=TEST_ANGLES[1])
    p.add_argument("--angles", default=None, help="a,a',b,b' to add a CHSH block to the summary")
    p.add_argument("--schedule", type=Path, default=None, help="schedule descriptor file")
    _output_flags(p)


def _check_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--angle-a", type=float, default=0.0)
    p.add_argument("--angle-b", type=float, default=TEST_ANGLES[1])
    _output_flags(p)


def _transform_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--op", action="append", default=[], help="transform op, repeatable")
    _output_flags(p, tol=False)


def _chsh_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help=f"zoo name, descriptor, or {REFERENCE_TABLE_NAME}")
    p.add_argument("--angles", default=None, help="a,a',b,b' (default: optimal grid)")
    p.add_argument("--method", choices=("exact", "monte_carlo"), default="exact")
    p.add_argument("--trials", type=int, default=100000)
    _output_flags(p)


def _audit_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=1000, help="the verdict is exact and reads no "
                   "trial; kept for the benchmark's command line")
    p.add_argument("--perturbations", type=int, choices=(1, 2, 3), default=3, help="the verdict "
                   "compares all 3 alternatives of each remote test angle; kept for the "
                   "benchmark's command line")
    _output_flags(p, tol=False)


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
    reference table) and its transforms, then ``body``. An option given as
    -0.0 is echoed as 0.0 (``x + 0.0`` keeps every other float)."""
    config = {k: v + 0.0 if type(v) is float else v
              for k, v in vars(args).items() if k not in NOT_ECHOED}
    if model is None:
        return {"config": config, "model": REFERENCE_TABLE_NAME, "transforms": [], **body}
    return {"config": config, "model": model.name, "transforms": list(model.transforms), **body}


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str as is, an int, float,
    bool or None as its JSON text, each in quotes."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


@functools.cache
def _json_level(depth: int) -> tuple[str, str, object]:
    """The newline and indent of a closing bracket at ``depth``, those of the
    items one level deeper, and a C encoder that sets the items of a
    container holding no container on their own lines at that indent."""
    outer = "\n" + "  " * depth
    pad = outer + "  "
    return outer, pad, c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                      None, ": ", "," + pad, True, False, True)


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, a TableEntries as its listing.

    With ``indent`` set, ``json.dumps`` takes the pure-Python encoder. Here
    each scalar, and each dict or list that holds no dict or list, is written
    by one call of the C encoder of its depth; only the containers around
    them are joined in Python. A listing longer than ``density.FORMAT_EACH``
    is written from its codes, a shorter one as the dict :func:`listing` builds.
    """
    if c_make_encoder is None:  # json.dumps calls default on what it cannot write
        return json.dumps(doc, indent=2, sort_keys=True, default=lambda obj: listing(obj)
                          if type(obj) is TableEntries else json.JSONEncoder().default(obj))

    def encode(obj, depth: int) -> str:
        if type(obj) is TableEntries:  # not isinstance, which on a Mapping runs ABCMeta's check
            if len(obj) > density.FORMAT_EACH:
                return listing_text(obj, depth, *_json_level(depth))
            obj = listing(obj)
        outer, pad, leaf = _json_level(depth)
        is_dict = isinstance(obj, dict)
        if not is_dict and not isinstance(obj, (list, tuple)):
            return "".join(leaf(obj, depth))
        inner = obj.values() if is_dict else obj
        types = set(map(type, inner))
        if TableEntries not in types and not any(map(issubclass, types, repeat((dict, list, tuple)))):
            text = "".join(leaf(obj, depth))
            # An empty container has no items to set on their own lines.
            return text[0] + pad + text[1:-1] + outer + text[-1] if inner else text
        if is_dict:
            items = [f"{_key_text(k)}: {encode(v, depth + 1)}" for k, v in sorted(obj.items())]
        else:
            items = [encode(v, depth + 1) for v in obj]
        opening, closing = "{}" if is_dict else "[]"
        return opening + pad + ("," + pad).join(items) + outer + closing

    return encode(doc, 0)


def _write_json(path: Path, report: dict, args: argparse.Namespace) -> None:
    """Write a report, creating its directory, stamped unless --deterministic."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_output(path) as fp:
        fp.write(json_text({**report, **_stamp(args)}) + "\n")


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
    s1(args.angle_a), s2(args.angle_b)  # Setting checks the angles under every policy
    if args.angles:  # checked, like the angles above, before any trial is drawn
        a, ap, b, bp = _parse_angles(args.angles)
        chsh_settings = (s1(a), s1(ap), s2(b), s2(bp))
    model = make_model(args.model)
    if args.schedule is not None:
        schedule = load_schedule(args.schedule)
    else:
        pairs = ((args.angle_a, args.angle_b),) if args.policy == "fixed" else DEFAULT_PAIRS
        schedule = Schedule(trials=args.trials, policy=args.policy, pairs=pairs,
                            seed_source=args.seed, seed_settings=args.seed + 1)
    run = run_experiment(model, schedule)
    pairs_block = []
    for (a_angle, b_angle), stats in sorted(empirical_correlations(run).items()):
        # The angles as first run, with -0.0 written as 0.0.
        pairs_block.append({**stats.to_dict(), "a": a_angle + 0.0, "b": b_angle + 0.0,
                            "exact_e_ab": exact_correlation(model, s1(a_angle), s2(b_angle))})
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
        summary["chsh"] = chsh(model, *chsh_settings, tol=args.tol).to_dict()

    out_dir = args.out or Path(".")
    _write_json(out_dir / "summary.json", summary, args)
    comments = [f"config = {json.dumps(config, sort_keys=True)}"]
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
    if args.out is not None:  # the report, and each deviation's key text, only when written
        payload = _report(
            args, model,
            factorization={mode: rep.to_dict() for mode, rep in reports.items()},
            cond_a={str(k): v for k, v in cond_a.items()},
            cond_b={str(k): v for k, v in cond_b.items()},
            max_conditional_bias=max(
                [abs(v) for v in cond_a.values()] + [abs(v) for v in cond_b.values()]
            ),
        )
        _write_json(args.out / "check.json", payload, args)
        with open_output(args.out / "joint_table.csv") as fp:
            fp.write(table_to_csv(table))
    for mode, rep in reports.items():
        verdict = "pass" if rep.passed else "FAIL"
        print(f"factorization {mode}: {verdict} (max deviation {fmt12(rep.max_deviation)})")
    for lam in model.source.states:
        print(f"E[A|{lam}] = {fmt12(cond_a[lam])}    E[B|{lam}] = {fmt12(cond_b[lam])}")
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
    out = args.out or Path(f"{model.name}_transformed.ini")
    if out.suffix == "":
        out = out / "model.ini"
    text = descriptor_text(args.model, args.op, out.parent, notes)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open_output(out) as fp:
        fp.write(text)
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
        if args.method == "monte_carlo":
            raise ConfigurationError(f"{REFERENCE_TABLE_NAME} is a table of exact "
                                     "correlations; it takes only --method exact")
        model, result = None, reference
    else:
        model = make_model(args.model)
        result = chsh(model, *settings, method=args.method, trials=trials, seed=args.seed,
                      tol=args.tol)
    gap = abs(reference.s_value) - abs(result.s_value)
    payload = _report(
        args, model,
        chsh=result.to_dict(),
        deterministic_bound=LOCAL_BOUND,
        reference_s=reference.s_value,
        gap_to_reference=gap,
    )
    if args.out is not None:
        _write_json(args.out / "chsh.json", payload, args)
        with open_output(args.out / "chsh.csv") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(("model", "a", "aprime", "b", "bprime", "method", "trials", "seed",
                             "S", "within_bound"))
            writer.writerow((payload["model"], *map(fmt12, angles), args.method, trials,
                             args.seed, fmt12(result.s_value),
                             str(result.within_local_bound).lower()))
    print(f"S = {fmt12(result.s_value)}")
    if result.verdict is not None:
        print(f"standard error = {fmt12(result.std_error)}")
    print(f"local deterministic bound = {fmt12(LOCAL_BOUND)}")
    print(f"within local bound: {str(result.within_local_bound).lower()}")
    if result.verdict is not None:
        print(f"sampled verdict: {result.verdict} "
              f"(false-alarm rate {fmt12(FALSE_ALARM_RATE)})")
    print(f"reference (singlet cosine) S = {fmt12(reference.s_value)}")
    print(f"gap to reference = {fmt12(gap)}")
    return 0


def cmd_audit(args) -> int:
    model = make_model(args.model)
    schedule = Schedule(trials=args.trials, policy="cycle", seed_source=args.seed,
                        seed_settings=args.seed + 1)
    report = locality_audit(model, schedule, args.perturbations)
    if args.out is not None:
        _write_json(args.out / "audit.json", _report(args, model, audit=report.to_dict()), args)
    verdict = "pass" if report.passed else "FAIL"
    print(f"locality audit: {verdict} ({report.mismatches} mismatches)")
    if report.first_mismatch is not None:
        print(f"first mismatch: {json.dumps(report.first_mismatch, sort_keys=True)}")
    return 0


# Command -> (help text, handler, adder of the options the handler reads).
COMMANDS = {
    "simulate": ("run scheduled trials, write the trial CSV and a summary", cmd_simulate,
                 _simulate_options),
    "check": ("factorization (both modes) and per-state conditionals", cmd_check, _check_options),
    "transform": ("apply transforms and write a new model descriptor", cmd_transform,
                  _transform_options),
    "chsh": ("four-correlation combination with bound and reference gap", cmd_chsh,
             _chsh_options),
    "audit": ("counterfactual Einstein-locality audit", cmd_audit, _audit_options),
    "zoo": ("catalogue commands", cmd_zoo, lambda p: p.add_argument("action", choices=("list",))),
}


def _formatter():
    """argparse's default help formatter at the width it would read, read
    once: argparse builds a formatter on every ``add_argument``, and each
    stock one reads the terminal size again."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The full tree: top-level options and one subparser per command."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="deterministic two-station coincidence-experiment harness",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"eprsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, add_options) in COMMANDS.items():
        add_options(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:  # the command's own parser, as the full tree holds it
        parser = argparse.ArgumentParser(prog=f"eprsim {argv[0]}", formatter_class=_formatter())
        COMMANDS[argv[0]][2](parser)
        args = parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # -h, --version, no or an unknown command: the tree lists the commands
        args = build_parser().parse_args(argv)
    try:
        if "tol" in args and not 0.0 < args.tol < math.inf:
            raise InvalidToleranceError(f"--tol must be > 0 and finite, got {args.tol!r}")
        return COMMANDS[args.command][1](args)
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
