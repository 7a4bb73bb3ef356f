"""A pinned verdict table: a fixed subset of the verdict sweep grid, run in-process.

Each row is a config with the default checks and the checks it fails, each
failure with its reason and the ROADMAP item that would mend it; every
other check of the config passes.  A change that flips a verdict changes
this table in its diff and says why.  No run may warn either: numpy
prints a warning to stderr, ahead of the verdict lines of ``verify``.
"""

import dataclasses
import functools
import warnings

import pytest

from bridgelab import harness

# The underflow corner (ROADMAP item 6): at osc_cap 1000 or t 0.0005,
# exp(-W) underflows and kernel entries are exact zeros.
STALLED = "item 6: the bridge solve stops at MAX_SWEEPS short of its marginals"
ZERO_PI = "item 6: pi_0 has an exact 0, so a ratio row is NaN"
INFINITE_KL = "item 6: the bridge charges entries where P_2n is 0, so the ladder residual is NaN"
NO_CERTIFICATE = "item 6: with zero kernel entries the best rho is not below 1"
# Short of the underflow corner, at osc_cap 400, kernel entries fall to 1e-190.
SWEEP_CAP = ("item 6: the bridge solve stops at MAX_SWEEPS (10 000 sweeps, about 0.4 s) with "
             "residual 1.25e-4, short of its marginals")
TINY_KERNEL = "item 6: with kernel entries down to 1e-190 the best rho is not below 1"
# Rounding floors set by constants (ROADMAP item 13).
RATE_NOISE = "item 13: h_tv is rounding noise above KL_FLOOR, and one ratio exceeds rate_bound"
SLOPE_FLOOR = ("item 13: cov_error saturates just above fitting.SATURATION_FLOOR, so the fit "
               "takes the rounding noise and its slope misses the theory")

# (regime, instance, seed, iterations, {failing check: reason}).
TABLE = [
    ("discrete", {"profile": "bounded", "size": [5, 7], "osc_cap": 0.69}, 0, 30, {}),
    ("discrete", {"profile": "bounded", "size": [16, 16], "osc_cap": 5.0}, 1, 30, {}),
    ("discrete", {"profile": "bounded", "size": [8, 8], "osc_cap": 50.0}, 4, 30, {}),
    ("discrete", {"profile": "quadratic-grid", "size": [8, 8], "t": 0.25}, 0, 30, {}),
    ("discrete", {"profile": "quadratic-grid", "size": [16, 16], "t": 0.01}, 1, 30, {}),
    ("discrete", {"profile": "bounded", "size": [2, 5], "osc_cap": 1000.0}, 1, 30, {
        "ladder": STALLED, "identities": ZERO_PI, "bridge-feasibility": STALLED,
        "lyapunov": NO_CERTIFICATE}),
    # u / v overflowed in the ladder's KLs here, and numpy printed a warning.
    ("discrete", {"profile": "bounded", "size": [3, 12], "osc_cap": 1000.0}, 4, 30, {
        "ladder": INFINITE_KL, "lyapunov": NO_CERTIFICATE}),
    ("discrete", {"profile": "bounded", "size": [4, 4], "osc_cap": 1000.0}, 0, 30, {
        "lyapunov": NO_CERTIFICATE}),
    ("discrete", {"profile": "quadratic-grid", "size": [1, 9], "t": 0.0005}, 0, 30, {
        "ladder": INFINITE_KL, "geometric-rate": RATE_NOISE, "identities": ZERO_PI}),
    ("discrete", {"profile": "quadratic-grid", "size": [5, 7], "t": 0.0005}, 1, 30, {
        "lyapunov": NO_CERTIFICATE}),
    ("discrete", {"profile": "bounded", "size": [16, 16], "osc_cap": 400.0}, 0, 30, {
        "ladder": SWEEP_CAP, "bridge-feasibility": SWEEP_CAP, "lyapunov": TINY_KERNEL}),
    ("gaussian", {"profile": "gaussian-random-spd", "size": 1}, 4, 12, {}),
    ("gaussian", {"profile": "gaussian-random-spd", "size": 2}, 1, 30, {}),
    # These three and d=16 seed 3 at 1000 iterations failed envelope while W2
    # was a difference of traces: saturated W2 rows of up to 2.1e-7 were its
    # rounding.  Read as the sum of squares ||A^1/2 - A^-1/2 C||_F^2, no W2
    # row exceeds its bound by more than 1e-12 (ROADMAP item 13).
    ("gaussian", {"profile": "gaussian-random-spd", "size": 4}, 0, 100, {}),
    ("gaussian", {"profile": "gaussian-random-spd", "size": 4}, 4, 100, {}),
    ("gaussian", {"profile": "gaussian-random-spd", "size": 8}, 4, 100, {}),
    ("gaussian", {"profile": "gaussian-random-spd", "size": 16}, 7919, 12, {}),
    # 2001 half steps: riccati-equivalence passes on all 1001 even rows.
    ("gaussian", {"profile": "gaussian-random-spd", "size": 16}, 3, 1000, {
        "riccati-rate": SLOPE_FLOOR}),
]


def _row_id(row) -> str:
    regime, instance, seed, iterations, _ = row
    params = "".join(f"-{key}{value}" for key, value in instance.items()
                     if key not in ("profile", "size"))
    size = instance["size"]
    size = "x".join(map(str, size)) if isinstance(size, list) else f"d{size}"
    return f"{instance['profile']}-{size}{params}-seed{seed}-it{iterations}"


@functools.cache
def _run(index: int):
    """The report of row ``index`` and the messages of the warnings its run raised."""
    regime, instance, seed, iterations, _ = TABLE[index]
    config = harness.ExperimentConfig.from_json(
        {"regime": regime, "instance": instance, "seed": seed, "iterations": iterations})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = harness.run_experiment(config)
    return report, [f"{w.category.__name__}: {w.message}" for w in caught]


ROWS = pytest.mark.parametrize("index", range(len(TABLE)), ids=[_row_id(r) for r in TABLE])


@ROWS
def test_failing_checks_are_the_pinned_ones(index):
    report, _ = _run(index)
    regime, expected = TABLE[index][0], TABLE[index][-1]
    assert [v.check for v in report.verdicts] == list(harness.REGIMES[regime].checks)
    assert {v.check for v in report.verdicts if not v.passed} == set(expected)
    # The rule table re-derives the verdicts from the report text alone.
    derived = harness.verdicts_from_csv(report.csv_text())
    assert dataclasses.replace(report, verdicts=derived).verdicts_json() == report.verdicts_json()


@ROWS
def test_run_warns_nothing(index):
    assert _run(index)[1] == []
