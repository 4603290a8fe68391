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
schedule's trials, policy and seeds instead of the command line's, and
again when a schedule lost its station seeds ``seed_s1`` and ``seed_s2``:
the fixture dropped ``seed_s1 = 11``, and only the echoed config, the
``# config`` line of ``trials.csv`` and the config block of
``summary.json``, lost those two keys. The
``*/chsh_mc/{chsh.json,chsh.csv,stdout}`` entries were re-recorded when Monte
Carlo began to draw each pair's cell counts from one multinomial draw and to
report a standard error and a verdict; Monte Carlo on the cosine reference
table now exits 2 and writes nothing, so only its stdout entry remains. Of
those, the 36 entries of the bell_product_basic, cosine_threshold_lhv,
setting_dependent_density and weighted_six cases (each plain and with its two
transforms) were re-recorded when Monte Carlo began to draw each pair's
(state, A, B) bin counts, over the bins of nonzero mass, in place of its cell
counts; the other cases' sampled statistics do not depend on the draw. The
42 ``*/audit/{audit.json,stdout}`` entries were re-recorded when the exact
locality verdict stopped reporting a trial count (``trials_checked`` and the
"over N trials" of its stdout) and ``audit`` lost ``--tol``, which its config
echoed. A
change that must alter an output replaces the file and names every changed
digest. The cases are run by ``shared_fixtures.collect_digests``, which the
reference-loop tests run too.
"""
import json
from pathlib import Path

from shared_fixtures import collect_digests

DIGESTS = Path(__file__).with_name("output_digests.json")


def test_deterministic_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = collect_digests()
    assert sorted(found) == sorted(recorded)
    changed = [key for key in recorded if found[key] != recorded[key]]
    assert not changed, f"{len(changed)} outputs differ, first: {changed[:5]}"
