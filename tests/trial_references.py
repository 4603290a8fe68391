"""Reference forms of a run's trials shared by the station and reference-loop tests.

Each helper reads a :class:`eprsim.stations.Trials` one trial or one sample
at a time. The module defines no test, so a test module or a test body can
import it without running or nesting another module's hypothesis tests.
"""
import csv
import io
from dataclasses import fields
from fractions import Fraction
from math import sqrt

import numpy as np

from eprsim import CorrelationReport, s1, s2
from eprsim.stations import TRIALS_CSV_HEADER


def decoded(trials, name: str) -> list:
    """Each trial's entry of the domain that code column ``name`` indexes."""
    domain = getattr(trials, f"{name}s")
    return [domain[i] for i in getattr(trials, name)[trials.row].tolist()]


def trial_columns(trials) -> dict:
    """A run's columns as per-trial lists, each code as its domain entry."""
    columns = {name: getattr(trials, name)[trials.row].tolist() for name in ("m", "A", "B")}
    columns.update({name: decoded(trials, name) for name in ("pair", "state", "star", "dblstar")})
    return columns


def row_by_row_trials_csv(trials, comments) -> bytes:
    """Reference writer: one row at a time, straight from the expanded columns."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRIALS_CSV_HEADER)
    columns = trial_columns(trials)
    for t in range(len(trials)):
        a, b = columns["pair"][t]
        writer.writerow([t, columns["m"][t], repr(float(a)), repr(float(b)), columns["state"][t],
                         columns["star"][t], columns["dblstar"][t], columns["A"][t],
                         columns["B"][t]])
    return buf.getvalue().encode("utf-8")


def reference_sampled_correlation(a, b, A, B, state, states):
    """Pair statistics one sample at a time: sample t saw ``A[t]``, ``B[t]``
    with the source in ``states[state[t]]``."""
    n = len(A)
    plus = int(np.count_nonzero(A == B))
    e_ab = (2 * plus - n) / n
    std_error = 0.0
    if n > 1:
        squares = Fraction((1 - e_ab) ** 2) * plus + Fraction((-1 - e_ab) ** 2) * (n - plus)
        std_error = sqrt(float(squares) / (n - 1) / n)
    counts = np.bincount(state, minlength=len(states)).tolist()

    def conditionals(outcomes):
        sums = np.bincount(state, weights=outcomes, minlength=len(states)).tolist()
        return {lam: s / c for lam, s, c in zip(states, sums, counts) if c}

    return CorrelationReport(
        a, b, e_ab, int(A.sum()) / n, int(B.sum()) / n, conditionals(A), conditionals(B),
        n, std_error,
    )


def report_fields(report):
    return [repr(getattr(report, f.name)) for f in fields(report)]


def reference_empirical_correlations(trials):
    """Each setting pair's statistics from a boolean mask over its trials."""
    a_col, b_col = np.array([trials.pairs[i] for i in trials.pair[trials.row]]).reshape(-1, 2).T
    A, B, state = (column[trials.row] for column in (trials.A, trials.B, trials.state))
    _, a = np.unique(a_col, return_inverse=True)
    b_angles, b = np.unique(b_col, return_inverse=True)
    _, first, pair = np.unique(a * len(b_angles) + b, return_index=True, return_inverse=True)
    out = {}
    for g in np.argsort(first):
        rows = pair == g
        key = (float(a_col[first[g]]), float(b_col[first[g]]))
        out[key] = reference_sampled_correlation(
            s1(key[0]), s2(key[1]), A[rows], B[rows], state[rows], trials.states)
    return out


def assert_same_correlations(found, expected):
    assert list(found) == list(expected)
    assert [report_fields(r) for r in found.values()] == [
        report_fields(r) for r in expected.values()]
