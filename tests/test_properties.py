"""Property tests: every default verdict passes across seeds, sizes and profiles,
the rule table re-derives each verdict from the report.csv text alone, and two
processes write the same report bytes."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import bridgelab
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


RUN_CONFIGS = st.one_of(
    st.builds(lambda profile, nx, ny, seed: {
        "regime": "discrete", "seed": seed,
        # the bounded profile needs two cells to pin osc(W)
        "instance": {"profile": profile, "size": [nx, ny if nx * ny > 1 else 2]}},
        st.sampled_from(["bounded", "quadratic-grid"]), SIDES, SIDES, SEEDS),
    st.builds(lambda d, seed: {
        "regime": "gaussian", "seed": seed,
        "instance": {"profile": "gaussian-random-spd", "size": d}}, SIDES, SEEDS),
)


@settings(max_examples=6, deadline=None)
@example(config={"regime": "gaussian", "seed": 3,
                 "instance": {"profile": "gaussian-random-spd", "size": 16}})
@given(config=RUN_CONFIGS)
def test_two_processes_write_the_same_report_bytes(config):
    # One `verify` process after another, each with the default checks.
    env = {**os.environ, "PYTHONPATH": str(Path(bridgelab.__file__).parents[1])}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, "iterations": 12}))
        written = []
        for run in ("a", "b"):
            out = Path(tmp) / run
            done = subprocess.run([sys.executable, "-m", "bridgelab.cli", "verify",
                                   "--config", str(path), "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode in (0, 1), done.stderr
            written.append([(out / name).read_bytes() for name in ("report.csv", "verdicts.json")])
        assert written[0] == written[1]
