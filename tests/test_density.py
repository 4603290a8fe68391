import configparser
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction
from math import fsum

import numpy as np
import pytest

from eprsim import (
    EmptyTableError,
    InstrumentParamGen,
    InvalidToleranceError,
    InvalidWeightsError,
    JointTable,
    LocalModel,
    OutcomeFn,
    SourceSpace,
    Station,
    StationMismatchError,
    TimeGrid,
    check_factorization,
    marginal,
    read_table_csv,
    s1,
    s2,
    swap_stations,
    table_from_csv,
    table_to_csv,
    tabulate_joint,
    zoo_model,
)
from eprsim.density import CSV_HEADER, FactorizationReport
from eprsim.descriptors import model_from_config
from eprsim.zoo import ZOO, random_factorized_model

from conftest import GRID_PAIRS

A0 = s1(0.0)
B0 = s2(math.pi / 4)


def hand_hp_table() -> dict:
    # Independent enumeration of the slot-correlated model's joint law:
    # one source state, four uniform slots, both stations read value m-1.
    entries = {}
    for m in (1, 2, 3, 4):
        entries[(m - 1, m - 1, "u0", m)] = 0.25
    return entries


def hand_factorization_deviation(entries: dict) -> tuple[float, float, float]:
    """Oracle for given_lambda mode: pool slots, condition on the state only.

    Returns (max cell deviation, deviation at the (f(1), f(2)) witness cell,
    total variation). Written with plain loops, independent of the checker.
    """
    by_lam = {}
    for (x, y, lam, m), p in entries.items():
        by_lam.setdefault(lam, {})
        by_lam[lam][(x, y)] = by_lam[lam].get((x, y), 0.0) + p
    worst = 0.0
    witness = None
    tv = 0.0
    for lam, cells in by_lam.items():
        mass = fsum(cells.values())
        joint = {k: v / mass for k, v in cells.items()}
        xs = sorted({k[0] for k in entries})
        ys = sorted({k[1] for k in entries})
        p1 = {x: fsum(v for (xx, _), v in joint.items() if xx == x) for x in xs}
        p2 = {y: fsum(v for (_, yy), v in joint.items() if yy == y) for y in ys}
        for x in xs:
            for y in ys:
                diff = abs(joint.get((x, y), 0.0) - p1[x] * p2[y])
                tv += 0.5 * diff
                worst = max(worst, diff)
                if (x, y) == (0, 1):
                    witness = diff
    return worst, witness, tv


def test_hp_table_matches_hand_enumeration():
    model = zoo_model("hp_time_correlated")
    table = tabulate_joint(model, A0, B0)
    assert table.entries == hand_hp_table()


def test_hp_given_lambda_deviations_frozen_from_oracle():
    # Oracle values for the 4-slot diagonal table: the product assigns 1/16 to
    # every value pair, the joint holds 1/4 on the diagonal and 0 elsewhere.
    # Worst cell: diagonal, |1/4 - 1/16| = 3/16. Witness cell (f(1), f(2)):
    # |0 - 1/16| = 1/16.
    worst, witness, tv = hand_factorization_deviation(hand_hp_table())
    assert worst == pytest.approx(3 / 16, abs=1e-15)
    assert witness == pytest.approx(1 / 16, abs=1e-15)
    assert tv == pytest.approx(0.75, abs=1e-12)

    model = zoo_model("hp_time_correlated")
    table = tabulate_joint(model, A0, B0)
    report = check_factorization(table, "given_lambda")
    assert not report.passed
    assert report.max_deviation == pytest.approx(worst, abs=1e-15)
    assert report.max_total_variation == pytest.approx(tv, abs=1e-12)


def test_hp_witness_cell_deviation_is_one_sixteenth():
    # The pooled joint puts zero mass on (f(1), f(2)) while the marginal
    # product puts 1/16 there; computed from the table entries directly.
    model = zoo_model("hp_time_correlated")
    table = tabulate_joint(model, A0, B0)
    joint_01 = fsum(p for (x, y, lam, m), p in table.entries.items() if (x, y) == (0, 1))
    p1_0 = fsum(p for (x, _, _, _), p in table.entries.items() if x == 0)
    p2_1 = fsum(p for (_, y, _, _), p in table.entries.items() if y == 1)
    assert joint_01 == 0.0
    assert abs(joint_01 - p1_0 * p2_1) == pytest.approx(0.0625, abs=1e-15)


def test_hp_passes_given_lambda_and_m():
    model = zoo_model("hp_time_correlated")
    table = tabulate_joint(model, A0, B0)
    report = check_factorization(table, "given_lambda_and_m", tol=1e-9)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_degenerate_single_cell_table():
    model = LocalModel(
        name="degenerate",
        source=SourceSpace(("x",), (1.0,)),
        grid=TimeGrid(1),
        gen1=InstrumentParamGen(Station.S1, ("va",), lambda s, m, seed: "va"),
        gen2=InstrumentParamGen(Station.S2, ("vb",), lambda s, m, seed: "vb"),
        out1=OutcomeFn(Station.S1, lambda s, lam, v, m: 1),
        out2=OutcomeFn(Station.S2, lambda s, lam, v, m: -1),
    )
    table = tabulate_joint(model, A0, B0)
    assert table.entries == {("va", "vb", "x", 1): 1.0}


def test_total_mass_is_one_for_all_zoo_tables(zoo_name):
    model = zoo_model(zoo_name)
    for a, b in GRID_PAIRS:
        assert tabulate_joint(model, a, b).mass() == pytest.approx(1.0, abs=1e-12)


def test_every_marginal_sums_to_one():
    model = zoo_model("setting_dependent_density")
    table = tabulate_joint(model, A0, B0)
    axes = ("lambda_star", "lambda_dblstar", "lambda", "m")
    for k in range(1, 5):
        for subset in itertools.combinations(axes, k):
            total = fsum(marginal(table, subset).values())
            assert total == pytest.approx(1.0, abs=1e-12)


def test_factorization_is_symmetric_in_stations(zoo_name):
    model = zoo_model(zoo_name)
    table = tabulate_joint(model, A0, B0)
    for mode in ("given_lambda", "given_lambda_and_m"):
        direct = check_factorization(table, mode)
        swapped = check_factorization(swap_stations(table), mode)
        assert abs(direct.max_deviation - swapped.max_deviation) <= 1e-12


def test_factorized_zoo_models_pass_given_lambda():
    for name, entry in ZOO.items():
        model = entry.build()
        for a, b in GRID_PAIRS:
            report = check_factorization(tabulate_joint(model, a, b), "given_lambda")
            assert report.passed == entry.factorized, (name, a.angle, b.angle)


def test_random_independent_generator_models_pass_given_lambda():
    for seed in range(40):
        model = random_factorized_model(seed)
        table = tabulate_joint(model, A0, B0)
        report = check_factorization(table, "given_lambda", tol=1e-9)
        assert report.passed, seed


def test_zero_mass_states_are_skipped():
    base = zoo_model("constant_plus")
    model = LocalModel(
        name="zero_state",
        source=SourceSpace(("u0", "dead"), (1.0, 0.0)),
        grid=base.grid,
        gen1=base.gen1,
        gen2=base.gen2,
        out1=base.out1,
        out2=base.out2,
    )
    table = tabulate_joint(model, A0, B0)
    report = check_factorization(table, "given_lambda")
    assert "dead" not in report.deviations
    assert report.passed


def test_tabulate_rejects_wrong_station_order():
    model = zoo_model("constant_plus")
    with pytest.raises(StationMismatchError):
        tabulate_joint(model, s1(0.0), s1(0.0))  # type: ignore[arg-type]


def test_invalid_tolerance_and_mode():
    table = tabulate_joint(zoo_model("constant_plus"), A0, B0)
    with pytest.raises(InvalidToleranceError):
        check_factorization(table, "given_lambda", tol=0.0)
    with pytest.raises(InvalidToleranceError):
        check_factorization(table, "nonsense")


def test_csv_round_trip_preserves_entries(tmp_path):
    model = zoo_model("hp_time_correlated")
    table = tabulate_joint(model, A0, B0)
    path = tmp_path / "table.csv"
    path.write_text(table_to_csv(table), encoding="utf-8")
    loaded = read_table_csv(path, A0, B0)
    assert loaded.entries == dict(table.entries)
    assert table_to_csv(loaded).splitlines()[0] == ",".join(CSV_HEADER)


def test_csv_import_rejects_empty_input():
    with pytest.raises(EmptyTableError):
        table_from_csv("lambda_star,lambda_dblstar,lambda,m,prob\n", A0, B0)
    with pytest.raises(EmptyTableError):
        table_from_csv("\n", A0, B0)


def test_imported_nondeterministic_table_can_fail_given_lambda_and_m():
    # A table whose per-slot conditional is not a point mass: correlated values
    # inside a single slot cannot factorize.
    text = "\n".join(
        [
            ",".join(CSV_HEADER),
            "0,0,x,1,0.25",
            "1,1,x,1,0.25",
            "0,0,x,2,0.25",
            "1,1,x,2,0.25",
        ]
    )
    table = table_from_csv(text, A0, B0)
    report = check_factorization(table, "given_lambda_and_m")
    assert not report.passed
    assert report.max_deviation == pytest.approx(0.25, abs=1e-12)


def test_joint_csv_with_nan_probability_is_rejected():
    text = "\n".join([",".join(CSV_HEADER), "0,0,u,1,nan", "1,1,u,1,0.5"])
    with pytest.raises(InvalidWeightsError):
        table_from_csv(text, A0, B0)


def test_joint_csv_whose_probabilities_overflow_is_rejected():
    text = "\n".join([",".join(CSV_HEADER), "0,0,u,1,1e308", "1,1,u,1,1e308"])
    with pytest.raises(InvalidWeightsError, match="weights sum to inf, not 1"):
        table_from_csv(text, A0, B0)


@pytest.mark.parametrize("row", ["0,0,u,1,half", "0,0,u,one,1.0"], ids=["prob", "m"])
def test_joint_csv_with_a_non_numeric_cell_is_rejected(row):
    text = "\n".join([",".join(CSV_HEADER), "1,1,u,2,0.0", row])
    with pytest.raises(InvalidWeightsError, match=re.escape(f"row {row.split(',')!r}")):
        table_from_csv(text, A0, B0)


def test_float_subclass_probabilities_write_float_text_and_read_back():
    # np.float64 is a float: its table writes 0.5, not np.float64(0.5), and
    # the text reads back to an equal table that writes the same text.
    keys = [(0, 0, "u", 1), (1, 1, "u", 2)]
    table = JointTable(A0, B0, dict(zip(keys, np.full(2, 0.5))), (0, 1), (0, 1), ("u",))
    text = table_to_csv(table)
    assert text.splitlines()[1:] == ["0,0,u,1,0.5", "1,1,u,2,0.5"]
    loaded = table_from_csv(text, A0, B0)
    assert loaded.entries == table.entries
    assert table_to_csv(loaded) == text


@pytest.mark.parametrize("probs", [
    (True, False), (Fraction(1, 2),) * 2, (Decimal("0.5"),) * 2, ("0.5",) * 2, (10**400, 0),
], ids=["bool", "Fraction", "Decimal", "str", "huge int"])
def test_joint_table_refuses_probabilities_that_are_not_ints_or_floats(probs):
    keys = [(0, 0, "u", 1), (1, 1, "u", 2)]
    with pytest.raises(InvalidWeightsError):
        JointTable(A0, B0, dict(zip(keys, probs)), (0, 1), (0, 1), ("u",))


def test_negative_zero_probability_survives_a_csv_round_trip():
    # The state weighing -0.0 gives its cells -0.0 mass; a lone row keeps its
    # value when read, so the table rewrites to the same text.
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(
        "[source]\nstates = u, v\nprior = -0.0, 1.0\n[grid]\nslots = 2\n"
        "[gen1]\nkind = cycle\nvalues = 0, 1\n[gen2]\nkind = cycle\nvalues = 0, 1\n"
        "[out1]\nkind = constant\nvalue = 1\n[out2]\nkind = constant\nvalue = -1\n")
    text = table_to_csv(tabulate_joint(model_from_config(parser), A0, B0))
    assert text.splitlines()[1:] == ["0,0,u,1,-0.0", "0,0,v,1,0.5", "1,1,u,2,-0.0", "1,1,v,2,0.5"]
    assert table_to_csv(table_from_csv(text, A0, B0)) == text


def test_joint_table_validation():
    with pytest.raises(Exception):
        JointTable(A0, B0, {}, (), (), ())
    with pytest.raises(Exception):
        JointTable(A0, B0, {(0, 0, "x", 1): 0.5}, (0,), (0,), ("x",))


def test_report_dict_orders_deviations_by_formatted_key():
    # 1 and "1" format alike: the stable sort keeps their order, and the later
    # value wins under the first one's place, as a dict comprehension would.
    deviations = {(1, 2): 0.5, 10: 0.1, "1": 0.2, 2: 0.3, 1: 0.4}
    report = FactorizationReport("given_lambda", 1e-9, 0.5, False, deviations, 0.5)
    assert list(report.to_dict()["deviations"].items()) == [
        ("(1, 2)", 0.5), ("1", 0.4), ("10", 0.1), ("2", 0.3)]
