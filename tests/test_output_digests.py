"""Byte-identity guard: every ``--deterministic`` CLI output against recorded digests.

``output_digests.json`` holds the SHA-256 of each output file, recorded at
commit 3ec384a from the per-cell implementation of the exact paths. The
inputs are every zoo model, each with a time sign plus layer doubling and
with a source-conditioned sign, and one 6-slot descriptor with non-uniform
slot weights and priors that are not powers of two. Entries ending in
``/stdout`` hash a command's exit code and standard output; they, the
transform descriptors, ``zoo list``, the cosine reference table, the cycle,
2π and schedule-file runs were recorded later, at commit adb9c9e. The 42
``*/simulate_schedule/summary.json`` and ``*/simulate_schedule/trials.csv``
entries were re-recorded when a schedule-file run began to echo the
schedule's trials, policy and seeds instead of the command line's. The
``*/chsh_mc/{chsh.json,chsh.csv,stdout}`` entries were re-recorded when Monte
Carlo began to draw each pair's cell counts from one multinomial draw and to
report a standard error and a verdict; Monte Carlo on the cosine reference
table now exits 2 and writes nothing, so only its stdout entry remains. A
change that must alter an output replaces the file and names every changed
digest.
"""
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from eprsim.cli import main as cli_main
from eprsim.zoo import REFERENCE_TABLE_NAME, ZOO

DIGESTS = Path(__file__).with_name("output_digests.json")

STATES = ("u0", "u1", "u2")


def _weighted_descriptor() -> str:
    out2_rows = "\n".join(
        f"    {lam},{(m - 1) // 2},{m},{1 if (i + m) % 3 else -1}"
        for i, lam in enumerate(STATES)
        for m in range(1, 7)
    )
    return f"""[model]
name = weighted_six

[source]
states = {",".join(STATES)}
prior = 0.45, 0.35, 0.2

[grid]
slots = 6
weights = 0.1, 0.3, 0.05, 0.25, 0.2, 0.1

[gen1]
kind = cycle
values = 0, 1, 2, 3

[gen2]
kind = cycle
values = 0, 1, 2
stride = 2

[out1]
kind = cosine
table =
    u0,0.0
    u1,1.1
    u2,2.3

[out2]
kind = table
table =
{out2_rows}
"""


# Pairs at 0 and 2π share one point of the circle; -0.0 must survive into the CSV.
SCHEDULE = """[schedule]
trials = 96
policy = random
pairs = 0:0.5, 6.283185307179586:0.5, -0.0:1.2
seed_source = 4
seed_settings = 9
seed_s1 = 11
"""

CHSH_ANGLES = "0,1.5707963267948966,0.7853981633974483,2.356194490192345"

# Monte Carlo on the cosine reference table is a configuration error: it exits
# 2 and writes no output, and its stdout digest records that.
REJECTED = {(REFERENCE_TABLE_NAME, "chsh_mc")}


def _chsh_commands(model: str) -> dict[str, list[str]]:
    return {
        "chsh_exact": ["chsh", "--model", model],
        "chsh_mc": ["chsh", "--model", model, "--method", "monte_carlo", "--trials", "2000",
                    "--seed", "3"],
    }


def _commands(model: str) -> dict[str, list[str]]:
    return {
        "check": ["check", "--model", model],
        **_chsh_commands(model),
        "simulate": ["simulate", "--model", model, "--trials", "96", "--policy", "random",
                     "--seed", "5", "--angles", CHSH_ANGLES],
        "simulate_cycle": ["simulate", "--model", model, "--trials", "96", "--policy", "cycle",
                           "--seed", "5"],
        "simulate_two_pi": ["simulate", "--model", model, "--trials", "48", "--policy", "fixed",
                            "--angle-a", "6.283185307179586"],
        "simulate_schedule": ["simulate", "--model", model, "--schedule", "schedule.ini",
                              "--angles", CHSH_ANGLES],
        "audit": ["audit", "--model", model, "--trials", "48", "--perturbations", "3"],
    }


def _run(argv: list[str], key: str, digests: dict[str, str]) -> int:
    """Run the CLI and record a digest of its exit code and standard output."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli_main(argv)
    text = f"exit = {code}\n{stdout.getvalue()}"
    digests[f"{key}/stdout"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return code


def _transform(base: str, ops: list[str], out: str, digests: dict[str, str]) -> str:
    argv = ["transform", "--model", base, "--out", out]
    for op in ops:
        argv += ["--op", op]
    assert _run(argv, f"transform/{out}", digests) == 0
    digests[f"transform/{out}"] = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    return out


def collect_digests() -> dict[str, str]:
    """Run every case in the current directory and hash its outputs.

    Model paths are relative, so the configuration echoed into each output does
    not depend on where the run happens.
    """
    Path("weighted_six.ini").write_text(_weighted_descriptor(), encoding="utf-8")
    Path("schedule.ini").write_text(SCHEDULE, encoding="utf-8")
    digests = {}
    assert _run(["zoo", "list"], "zoo/list", digests) == 0
    cases = {}
    for name in ZOO:
        cases[name] = _commands(name)
        cases[f"{name}+sign+double"] = _commands(_transform(
            name, ["rademacher mean=0 seed=7", "double"], f"{name}_sign_double.ini", digests
        ))
        cases[f"{name}+lambda-sign"] = _commands(_transform(
            name, ["lambda-sign seed=2"], f"{name}_lambda_sign.ini", digests
        ))
    cases["weighted_six"] = _commands("weighted_six.ini")
    cases["weighted_six+double"] = _commands(
        _transform("weighted_six.ini", ["double"], "w6_double.ini", digests)
    )
    cases["weighted_six+lambda-sign"] = _commands(_transform(
        "weighted_six.ini", ["lambda-sign seed=2"], "w6_lambda_sign.ini", digests
    ))
    cases[REFERENCE_TABLE_NAME] = _chsh_commands(REFERENCE_TABLE_NAME)
    for case, commands in cases.items():
        for command, argv in commands.items():
            out = Path("out", case, command)
            argv = argv + ["--deterministic", "--out", str(out)]
            code = _run(argv, f"{case}/{command}", digests)
            if (case, command) in REJECTED:
                assert code == 2 and not out.exists(), (case, command)
                continue
            assert code == 0, (case, command)
            for path in sorted(out.iterdir()):
                key = f"{case}/{command}/{path.name}"
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_deterministic_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = collect_digests()
    assert sorted(found) == sorted(recorded)
    changed = [key for key in recorded if found[key] != recorded[key]]
    assert not changed, f"{len(changed)} outputs differ, first: {changed[:5]}"
