"""Model fixtures, a hand-built run and the digest cases shared by several test modules.

The module defines no test, so a test module can import it without running or
nesting another module's tests. The leaky models break Einstein locality on
purpose; the locality audit must catch each of them.
"""
import hashlib
import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from eprsim import InstrumentParamGen, LocalModel, OutcomeFn, SourceSpace, Station, TimeGrid
from eprsim.cli import main as cli_main
from eprsim.stations import Trials
from eprsim.zoo import REFERENCE_TABLE_NAME, ZOO


def remote_reading_model() -> LocalModel:
    """Test-only fixture that violates Einstein locality on purpose.

    The S2 generator publishes its setting through a shared cell; the S1
    outcome rule reads it. The audit must detect this.
    """
    cell = {}

    def gen2_rule(s, m, seed):
        cell["b"] = s.angle
        return 0

    def out1_rule(s, lam, v, m):
        return 1 if cell.get("b", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="remote_reading_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
        gen2=InstrumentParamGen(Station.S2, (0,), gen2_rule),
        out1=OutcomeFn(Station.S1, out1_rule),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
    )


def remote_reading_s2_model() -> LocalModel:
    """Mirror of :func:`remote_reading_model`: the S1 generator publishes its
    setting and the S2 outcome rule reads it."""
    cell = {}

    def gen1_rule(s, m, seed):
        cell["a"] = s.angle
        return 0

    def out2_rule(s, lam, v, m):
        return 1 if cell.get("a", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="remote_reading_s2_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0,), gen1_rule),
        gen2=InstrumentParamGen(Station.S2, (0,), lambda s, m, seed: 0),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
        out2=OutcomeFn(Station.S2, out2_rule),
    )


def outcome_publishing_model() -> LocalModel:
    """Test-only fixture: the S1 outcome rule publishes its setting and the S2
    outcome rule reads it. Within a pair every S1 outcome runs before any S2
    outcome, so S2 reads the setting of the last S1 cell."""
    cell = {}

    def out1_rule(s, lam, v, m):
        cell["a"] = s.angle
        return 1

    def out2_rule(s, lam, v, m):
        return 1 if cell.get("a", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="outcome_publishing_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
        gen2=InstrumentParamGen(Station.S2, (0,), lambda s, m, seed: 0),
        out1=OutcomeFn(Station.S1, out1_rule),
        out2=OutcomeFn(Station.S2, out2_rule),
    )


def history_leak_model() -> LocalModel:
    """Test-only fixture whose S1 generator reads the setting that the S2
    generator published while the previous setting pair was compiled, so its
    outputs depend on the order in which pairs are compiled."""
    cell = {}

    def gen1_rule(s, m, seed):
        return 1 if cell.get("b", 0.0) > math.pi / 4 + 1e-9 else 0

    def gen2_rule(s, m, seed):
        cell["b"] = s.angle
        return 0

    return LocalModel(
        name="history_leak_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(4),
        gen1=InstrumentParamGen(Station.S1, (0, 1), gen1_rule),
        gen2=InstrumentParamGen(Station.S2, (0,), gen2_rule),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
    )


def slot_limited_leak_model() -> LocalModel:
    """Test-only fixture: the S2 generator publishes its setting and the S1
    outcome rule reads it at a = 0 in slot 8 alone. Under the cycle schedule
    of the 16 test-grid pairs, pair k meets slot k mod 8 only, so no trial at
    a = 0 reaches slot 8: an audit of the cells trials take misses this leak."""
    cell = {}

    def gen2_rule(s, m, seed):
        cell["b"] = s.angle
        return 0

    def out1_rule(s, lam, v, m):
        if s.angle != 0.0 or m != 8:
            return 1
        return 1 if cell.get("b", 0.0) <= math.pi / 4 + 1e-9 else -1

    return LocalModel(
        name="slot_limited_leak_fixture",
        source=SourceSpace(("u0",), (1.0,)),
        grid=TimeGrid(8),
        gen1=InstrumentParamGen(Station.S1, (0,), lambda s, m, seed: 0),
        gen2=InstrumentParamGen(Station.S2, (0,), gen2_rule),
        out1=OutcomeFn(Station.S1, out1_rule),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: 1),
    )


def factored_trials() -> Trials:
    """A hand-built run whose table is out of first-use order (trial 0 takes
    row 2), lists one row twice (rows 2 and 3) and holds a row that no trial
    takes (row 4). Row 1 differs from rows 2 and 3 in the sign of a zero
    angle, its outcomes and nothing else. The S1 values hold an entry no row
    takes, equal to but not the same object as the one row 4 takes."""
    return Trials(
        states=("u0", "u1"),
        pairs=((0.5, 0.0), (-0.0, 0.0), (0.0, 0.0), (1.0, 1.5)),
        stars=(0, 1, "x,y", "".join(["x,", "y"])),
        dblstars=(0, 1, "x,y"),
        row=np.array([2, 1, 0, 3, 2, 0, 0, 1, 3, 3, 2]),
        state=np.array([1, 0, 0, 0, 1]),
        m=np.array([2, 1, 1, 1, 3]),
        pair=np.array([0, 1, 2, 2, 3]),
        star=np.array([1, 0, 0, 0, 2]),
        dblstar=np.array([2, 1, 1, 1, 0]),
        A=np.array([1, -1, 1, 1, -1], dtype=np.int8),
        B=np.array([-1, -1, 1, 1, 1], dtype=np.int8),
    )


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
