"""Property-based checks of the core invariants."""
import math
import random
from dataclasses import replace
from itertools import product
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import (
    TEST_ANGLES,
    InvalidWeightsError,
    Setting,
    SourceSpace,
    Station,
    TimeGrid,
    apply_transform_op,
    balanced_sign_function,
    chsh,
    condition_sign_on_source,
    correlate,
    correlate_via_table,
    layer_double,
    load_model,
    make_model,
    make_sign_function,
    marginal,
    s1,
    s2,
    table_from_csv,
    table_to_csv,
    tabulate_joint,
    time_symmetrize,
)
from eprsim.density import check_factorization
from eprsim.descriptors import descriptor_text
from eprsim.model import OUTCOME_ARGS
from eprsim.util import parse_scalar
from eprsim.zoo import ZOO, random_factorized_model

from conftest import GRID_PAIRS, OPTIMAL

seeds = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_random_factorized_models_respect_local_bound(seed):
    model = random_factorized_model(seed)
    a, ap, b, bp = OPTIMAL
    result = chsh(model, a, ap, b, bp)
    assert abs(result.s_value) <= 2.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_random_model_tables_normalize_and_match_direct_route(seed):
    model = random_factorized_model(seed)
    a, b = s1(0.0), s2(math.pi / 4)
    table = tabulate_joint(model, a, b)
    assert table.mass() == pytest.approx(1.0, abs=1e-12)
    for axis in ("lambda_star", "lambda_dblstar", "lambda", "m"):
        assert fsum(marginal(table, (axis,)).values()) == pytest.approx(1.0, abs=1e-12)
    direct = correlate(model, a, b)
    via_table = correlate_via_table(model, table)
    assert abs(direct.e_ab - via_table.e_ab) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), k_seed=seeds)
def test_sign_function_mean_is_exact(n, k_seed):
    k = k_seed % (n + 1)
    target = (2 * k - n) / n
    sign = make_sign_function(TimeGrid(n), target, seed=k_seed)
    assert sign.values.count(1) == k
    assert sign.mean == target


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_symmetrization_never_changes_pair_correlation(seed):
    model = random_factorized_model(seed)
    if model.grid.slot_count % 2:
        model = layer_double(model)  # force an even grid, transform still valid
        sign = balanced_sign_function(model.grid, seed=seed)
        transformed = time_symmetrize(model, sign)
    else:
        sign = balanced_sign_function(model.grid, seed=seed)
        transformed = time_symmetrize(model, sign)
    a, b = s1(math.pi / 2), s2(3 * math.pi / 4)
    assert abs(correlate(model, a, b).e_ab - correlate(transformed, a, b).e_ab) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_layer_double_zeroes_marginals_and_keeps_products(seed):
    model = random_factorized_model(seed)
    doubled = layer_double(model)
    a, b = s1(math.pi / 4), s2(math.pi / 2)
    before = correlate(model, a, b)
    after = correlate(doubled, a, b)
    assert after.marginal_a == 0.0
    assert after.marginal_b == 0.0
    assert abs(before.e_ab - after.e_ab) <= 1e-12
    total = fsum(doubled.grid.weight(m) for m in doubled.grid.slots)
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), min_size=1, max_size=6)
)
def test_source_space_accepts_exactly_normalized_priors(weights):
    total = fsum(weights)
    states = tuple(f"q{i}" for i in range(len(weights)))
    if abs(total - 1.0) > 1e-12:
        with pytest.raises(InvalidWeightsError):
            SourceSpace(states, tuple(weights))
    else:
        SourceSpace(states, tuple(weights))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), num=st.integers(min_value=-12, max_value=12))
def test_unrepresentable_sign_means_are_rejected(n, num):
    target = num / 12
    k_float = (target * n + n) / 2
    representable = abs(k_float - round(k_float)) <= 1e-9 and 0 <= round(k_float) <= n
    from eprsim import InfeasibleMeanError

    if representable:
        make_sign_function(TimeGrid(n), target)
    else:
        with pytest.raises(InfeasibleMeanError):
            make_sign_function(TimeGrid(n), target)


angles = st.one_of(st.sampled_from(TEST_ANGLES + (2 * math.pi,)),
                   st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, a=angles, b=angles, double=st.booleans(), lambda_sign=st.booleans())
def test_joint_table_csv_round_trips_byte_identically(seed, a, b, double, lambda_sign):
    model = random_factorized_model(seed)
    if double:
        model = layer_double(model)
    if lambda_sign:
        model = condition_sign_on_source(model, seed)
    text = table_to_csv(tabulate_joint(model, s1(a), s2(b)))
    assert table_to_csv(table_from_csv(text, s1(a), s2(b))) == text


WEIGHTED = """[model]
name = weighted_four

[source]
states = u, v, w
prior = 0.45, 0.35, 0.2

[grid]
slots = 4
weights = 0.1, 0.3, 0.35, 0.25

[gen1]
kind = cycle
values = 0, 1, 2

[gen2]
kind = table
table =
    1,0
    2,1
    3,1
    4,0

[out1]
kind = cosine
table =
    u,0.0
    v,1.1
    w,2.3

[out2]
kind = lambda_table
table =
    u,1
    v,-1
    w,1
"""


def compiled(model):
    """Every station's slot values and outcome array at the test angles, as
    the model's memo holds them."""
    return [(values, outcomes.tolist()) for station in Station for angle in TEST_ANGLES
            for values, outcomes in [model.compiled(Setting(angle, station))]]


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(sorted(ZOO) + ["weighted_four.ini"]),
       kinds=st.permutations(["sign", "double", "lambda-sign"]),
       count=st.integers(min_value=1, max_value=3),
       data=st.data())
def test_transform_descriptor_reloads_to_the_same_model(tmp_path_factory, base, kinds,
                                                        count, data):
    directory = tmp_path_factory.mktemp("descriptor")
    (directory / "weighted_four.ini").write_text(WEIGHTED, encoding="utf-8")
    if base.endswith(".ini"):
        base = str(directory / base)
    model, ops = make_model(base), []
    for kind in kinds[:count]:
        if kind == "sign":
            signs = data.draw(st.text("+-", min_size=model.grid.slot_count,
                                      max_size=model.grid.slot_count))
            side = data.draw(st.sampled_from(["both", "s1", "s2"]))
            ops.append(f"sign values={signs} station={side}")
        else:
            ops.append(f"{kind} seed={data.draw(st.integers(0, 99))}"
                       if kind == "lambda-sign" else kind)
        model = apply_transform_op(model, ops[-1])
    path = directory / "transformed.ini"
    path.write_text(descriptor_text(base, ops, directory), encoding="utf-8")
    reloaded = load_model(path)
    assert reloaded.transforms == model.transforms
    assert (reloaded.source, reloaded.grid) == (model.source, model.grid)
    assert compiled(reloaded) == compiled(model)


def try_int_then_float(text):
    """parse_scalar as it was written before its shortcuts."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


SPELLINGS = ("inf", "infinity", "nan")
scalar_pieces = st.one_of(
    st.sampled_from([" ", "\t", "\n", "\u3000", "+", "-", "_", ".", "e", "E", "e-", "E+",
                     "0", "1", "9", "0x", "i", "n"]),
    st.sampled_from(SPELLINGS).flatmap(
        lambda word: st.tuples(*[st.sampled_from([c.lower(), c.upper()]) for c in word])
        .map("".join)),
    st.characters(categories=["Nd"]),
    st.characters(),
)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(), st.lists(scalar_pieces, max_size=8).map("".join)))
def test_parse_scalar_equals_try_int_then_float(text):
    got, want = parse_scalar(text), try_int_then_float(text)
    assert type(got) is type(want)
    assert got == want or (got != got and want != want)


# Instrument values a drawn generator takes: ints, a float and a label.
VALUE_POOL = (0, 1, 2, 2.5, "x")


def _rows(rows) -> str:
    return "table =\n" + "\n".join("    " + ",".join(map(str, row)) for row in rows)


@st.composite
def model_texts(draw):
    """A descriptor of every generator and outcome kind, a uniform or weighted
    grid (a weighted one may give a slot 0.0) and prior, with its tables
    filled from a drawn seed; and up to three transform ops."""
    rng = random.Random(draw(seeds))
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    slots = draw(st.integers(1, 5))

    def masses(n, zero):
        units = [rng.randint(1, 4) for _ in range(n)]
        if zero and n > 1:
            units[rng.randrange(n)] = 0
        return ", ".join(repr(u / sum(units)) for u in units)

    prior = (masses(len(states), False) if draw(st.booleans())
             else ", ".join([repr(1 / len(states))] * len(states)))
    grid = f"slots = {slots}"
    if draw(st.booleans()):
        grid += f"\nweights = {masses(slots, draw(st.booleans()))}"
    sections = []
    for station in (1, 2):
        values = draw(st.lists(st.sampled_from(VALUE_POOL), min_size=1, max_size=3))
        space = list(dict.fromkeys(values))
        gen_kind = draw(st.sampled_from(["constant", "cycle", "table2", "table3"]))
        if gen_kind == "constant":
            gen, space = f"kind = constant\nvalue = {values[0]}", space[:1]
        elif gen_kind == "cycle":
            gen = (f"kind = cycle\nvalues = {', '.join(map(str, values))}\n"
                   f"stride = {rng.randint(1, 3)}\nmodulus = {rng.randint(1, 4)}")
        elif gen_kind == "table2":
            gen = "kind = table\n" + _rows((m, rng.choice(space)) for m in range(1, slots + 1))
        else:
            gen = "kind = table\n" + _rows((repr(x), m, rng.choice(space))
                                           for x in TEST_ANGLES for m in range(1, slots + 1))
        sign = lambda: rng.choice((-1, 1))
        out_kind = draw(st.sampled_from(["constant", "lambda_table", "cosine", "table4", "table5"]))
        if out_kind == "constant":
            out = f"kind = constant\nvalue = {sign()}"
        elif out_kind == "lambda_table":
            out = "kind = lambda_table\n" + _rows((lam, sign()) for lam in states)
        elif out_kind == "cosine":
            out = (f"kind = cosine\nnegate = {rng.choice(('true', 'false'))}\n"
                   + _rows((lam, repr(rng.uniform(0.0, 6.3))) for lam in states))
        elif out_kind == "table4":
            out = "kind = table\n" + _rows((lam, v, m, sign()) for lam in states for v in space
                                           for m in range(1, slots + 1))
        else:
            out = "kind = table\n" + _rows((repr(x), lam, v, m, sign()) for x in TEST_ANGLES
                                           for lam in states for v in space
                                           for m in range(1, slots + 1))
        sections.append((f"[gen{station}]\n{gen}\n", f"[out{station}]\n{out}\n"))
    text = (f"[model]\nname = drawn\n\n[source]\nstates = {', '.join(states)}\n"
            f"prior = {prior}\n\n[grid]\n{grid}\n\n"
            + "\n".join(gen for gen, _ in sections) + "\n" + "\n".join(out for _, out in sections))
    ops = []
    for kind in draw(st.permutations(["sign", "double", "lambda-sign"]))[:draw(st.integers(0, 3))]:
        if kind == "sign":
            signs = "".join(rng.choice("+-") for _ in range(slots))
            ops.append(f"sign values={signs} station={rng.choice(('both', 's1', 's2'))}")
        elif kind == "double":
            ops.append("double")
            slots *= 2
        else:
            ops.append(f"lambda-sign seed={rng.randint(0, 99)}")
    return text, ops


@settings(max_examples=60, deadline=None)
@given(drawn=model_texts())
def test_drawn_descriptors_agree_with_every_oracle(tmp_path_factory, drawn):
    """(a) the compile along declared reads equals the all-reads compile;
    (b) the direct sum equals the table route on every grid pair; (c) |S| is
    at most twice the mass at all 256 test-grid quadruples; (d) the joint
    table factorizes given (state, slot); (e) the transformed descriptor
    reloads to the same arrays."""
    text, ops = drawn
    directory = tmp_path_factory.mktemp("drawn")
    (directory / "base.ini").write_text(text, encoding="utf-8")
    model = load_model(directory / "base.ini")
    for op in ops:
        model = apply_transform_op(model, op)
    every = replace(model, out1=replace(model.out1, reads=OUTCOME_ARGS),
                    out2=replace(model.out2, reads=OUTCOME_ARGS))
    assert compiled(every) == compiled(model)
    e = {}
    for a, b in GRID_PAIRS:
        table = tabulate_joint(model, a, b)
        direct, via_table = correlate(model, a, b), correlate_via_table(model, table)
        assert (direct.e_ab, direct.marginal_a, direct.marginal_b) == (
            via_table.e_ab, via_table.marginal_a, via_table.marginal_b)
        assert direct.cond_a == pytest.approx(via_table.cond_a, abs=1e-12)
        assert direct.cond_b == pytest.approx(via_table.cond_b, abs=1e-12)
        e[a.angle, b.angle] = direct.e_ab
    bound = 2 * table.mass() + 1e-12
    for x, xp, y, yp in product(TEST_ANGLES, repeat=4):
        assert abs(e[x, y] - e[x, yp] + e[xp, y] + e[xp, yp]) <= bound
    assert check_factorization(table, "given_lambda_and_m", 1e-9).passed
    path = directory / "transformed.ini"
    path.write_text(descriptor_text(directory / "base.ini", ops, directory), encoding="utf-8")
    assert compiled(load_model(path)) == compiled(model)
