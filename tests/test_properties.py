"""Property tests: every default verdict passes across seeds, sizes and profiles,
and the rule table re-derives each verdict from the report.csv text alone."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgelab import harness

SEEDS = st.integers(0, 2 ** 32 - 1)
SIDES = st.integers(1, 16)
DISCRETE_PROFILES = st.one_of(
    st.builds(lambda osc_cap: {"profile": "bounded", "osc_cap": osc_cap},
              st.floats(0.0, 5.0)),
    st.builds(lambda t: {"profile": "quadratic-grid", "t": t}, st.floats(0.05, 1.0)),
)


def failed_verdicts(config):
    report = harness.run_experiment(harness.ExperimentConfig.from_json(config))
    derived = harness.verdicts_from_csv(report.csv_text())
    # bit for bit: the verdicts.json bytes the derived verdicts would write
    assert dataclasses.replace(report, verdicts=derived).verdicts_json() == report.verdicts_json()
    return [verdict for verdict in report.verdicts if not verdict.passed]


@settings(max_examples=40, deadline=None)
# A KL ratio read off the rounding floor once failed geometric-rate here.
@example(profile={"profile": "bounded", "osc_cap": 0.016419049185149026}, nx=4, ny=12,
         seed=3188695707)
@given(profile=DISCRETE_PROFILES, nx=SIDES, ny=SIDES, seed=SEEDS)
def test_discrete_default_verdicts_pass(profile, nx, ny, seed):
    if profile["profile"] == "bounded" and nx * ny < 2:
        ny = 2  # the bounded profile needs two cells to pin osc(W)
    config = {"regime": "discrete", "iterations": 12,
              "instance": {**profile, "size": [nx, ny], "seed": seed}}
    assert harness.ExperimentConfig.from_json(config).checks == harness.DISCRETE_CHECKS
    assert failed_verdicts(config) == []


@settings(max_examples=30, deadline=None)
@given(d=SIDES, seed=SEEDS)
def test_gaussian_default_verdicts_pass(d, seed):
    config = {"regime": "gaussian", "iterations": 20,
              "instance": {"profile": "gaussian-random-spd", "size": d, "seed": seed}}
    assert harness.ExperimentConfig.from_json(config).checks == harness.GAUSSIAN_CHECKS
    assert failed_verdicts(config) == []

