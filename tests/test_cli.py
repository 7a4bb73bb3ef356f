import json
import math

import pytest

from bridgelab import cli


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def golden_config(tmp_path):
    return write_config(tmp_path / "golden.json", {
        "regime": "gaussian",
        "instance": {"inline": {
            "d": 1, "m": [0.0], "sigma": [1.0], "m_bar": [0.0], "sigma_bar": [1.0],
            "alpha": [0.0], "beta": [1.0], "tau": [1.0],
        }},
        "iterations": 25,
        "seed": 0,
        "checks": ["golden-fixed-point", "riccati-equivalence", "bridge-transport"],
        "output": str(tmp_path / "golden-out"),
    })


@pytest.fixture()
def bounded_config(tmp_path):
    return write_config(tmp_path / "bounded.json", {
        "regime": "discrete",
        "instance": {"profile": "bounded", "size": [5, 7], "osc_cap": math.log(2.0)},
        "iterations": 30,
        "seed": 4,
        "checks": ["geometric-rate", "bridge-feasibility"],
        "output": str(tmp_path / "bounded-out"),
    })


def test_no_arguments_usage(capsys):
    assert cli.parse_and_dispatch([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_two(capsys):
    assert cli.parse_and_dispatch(["verify", "--config", "x.json", "--bogus"]) == 2


def test_missing_config_file(tmp_path, capsys):
    code = cli.parse_and_dispatch(["verify", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_malformed_config_field_exits_two(tmp_path, capsys):
    path = write_config(tmp_path / "bad.json", {"regime": "gaussian", "instance": {},
                                                 "checks": 5})
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 2
    assert "checks must be a list" in capsys.readouterr().err


def test_negative_seed_exits_two(tmp_path, capsys):
    path = write_config(tmp_path / "neg.json", {
        "regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2},
        "seed": -1, "checks": ["golden-fixed-point"],
    })
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 2
    assert "seed must be in" in capsys.readouterr().err
    assert cli.parse_and_dispatch([
        "gen", "--regime", "gaussian", "--profile", "gaussian-random-spd", "--size", "2",
        "--seed", "-1", "--out", str(tmp_path / "inst.json"),
    ]) == 2
    assert "seed must be in" in capsys.readouterr().err
    assert not (tmp_path / "inst.json").exists()


def test_iterations_override_above_cap_exits_two(golden_config, tmp_path, capsys):
    argv = ["verify", "--config", golden_config, "--out", str(tmp_path / "out")]
    assert cli.parse_and_dispatch(argv + ["--iterations", "100000000"]) == 2
    assert "iterations must be <=" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_golden(golden_config, tmp_path, capsys):
    assert cli.parse_and_dispatch(["verify", "--config", golden_config]) == 0
    out = capsys.readouterr().out
    assert "pass golden-fixed-point" in out
    verdicts = json.loads((tmp_path / "golden-out" / "verdicts.json").read_text())
    assert all(v["passed"] for v in verdicts["verdicts"])


def test_rates_writes_fitted_slope(bounded_config, tmp_path):
    code = cli.parse_and_dispatch(
        ["rates", "--config", bounded_config, "--iterations", "50"]
    )
    assert code == 0
    text = (tmp_path / "bounded-out" / "rates.csv").read_text()
    assert "fitted_slope" in text


def test_regime_guard(golden_config):
    assert cli.parse_and_dispatch(["discrete-run", "--config", golden_config]) == 2


def test_run_byte_identical(bounded_config, tmp_path):
    out_a = tmp_path / "ra"
    out_b = tmp_path / "rb"
    assert cli.parse_and_dispatch(
        ["discrete-run", "--config", bounded_config, "--out", str(out_a)]
    ) == 0
    assert cli.parse_and_dispatch(
        ["discrete-run", "--config", bounded_config, "--out", str(out_b)]
    ) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "verdicts.json").read_bytes() == (out_b / "verdicts.json").read_bytes()


def test_env_var_default_output(golden_config, tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("BRIDGELAB_OUT", str(env_dir))
    config_path = tmp_path / "no-output.json"
    payload = json.loads((tmp_path / "golden.json").read_text())
    payload.pop("output")
    config_path.write_text(json.dumps(payload))
    assert cli.parse_and_dispatch(["verify", "--config", str(config_path)]) == 0
    assert (env_dir / "verdicts.json").exists()


def test_gen_discrete_and_gaussian(tmp_path):
    out = tmp_path / "model.json"
    assert cli.parse_and_dispatch([
        "gen", "--regime", "discrete", "--profile", "bounded",
        "--size", "4,6", "--seed", "3", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["nx"] == 4 and payload["ny"] == 6

    gout = tmp_path / "inst.json"
    assert cli.parse_and_dispatch([
        "gen", "--regime", "gaussian", "--profile", "gaussian-random-spd",
        "--size", "3", "--seed", "3", "--out", str(gout),
    ]) == 0
    payload = json.loads(gout.read_text())
    assert len(payload["m"]) == 3


@pytest.mark.parametrize("regime, profile, size, message", [
    ("discrete", "bounded", "3,x", "expected an integer, got 'x'"),
    ("discrete", "bounded", "", "expected an integer, got ''"),
    ("discrete", "bounded", "2.5", "expected an integer, got '2.5'"),
    ("discrete", "bounded", "0,4", "must be at least 1, got 0"),
    ("discrete", "bounded", "3,4,5", "expected N or NX,NY, got '3,4,5'"),
    ("gaussian", "gaussian-random-spd", "2.5", "expected an integer, got '2.5'"),
    ("gaussian", "gaussian-random-spd", "3,4", "the gaussian regime takes one dimension N, got '3,4'"),
])
def test_gen_size_errors_name_the_argument(tmp_path, capsys, regime, profile, size, message):
    out = tmp_path / "inst.json"
    assert cli.parse_and_dispatch([
        "gen", "--regime", regime, "--profile", profile, "--size", size, "--out", str(out),
    ]) == 2
    assert f"argument --size: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_single_side_is_square(tmp_path):
    out = tmp_path / "model.json"
    assert cli.parse_and_dispatch([
        "gen", "--regime", "discrete", "--profile", "bounded", "--size", "3", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert (payload["nx"], payload["ny"]) == (3, 3)


def test_gen_then_verify_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    cli.parse_and_dispatch([
        "gen", "--regime", "gaussian", "--profile", "gaussian-random-spd",
        "--size", "2", "--seed", "8", "--out", str(inst),
    ])
    config = write_config(tmp_path / "c.json", {
        "regime": "gaussian",
        "instance": {"path": str(inst)},
        "iterations": 20,
        "seed": 8,
        "output": str(tmp_path / "vout"),
    })
    assert cli.parse_and_dispatch(["verify", "--config", config]) == 0


def test_jobs_fanout(bounded_config, golden_config, tmp_path):
    code = cli.parse_and_dispatch([
        "verify", "--config", bounded_config, "--config", golden_config, "--jobs", "2",
    ])
    assert code == 0
    assert (tmp_path / "bounded-out" / "verdicts.json").exists()
    assert (tmp_path / "golden-out" / "verdicts.json").exists()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, expected", [
    (64, 8, [3]),     # capped by the number of configs
    (64, 2, [2]),     # capped by the CPU count
    (2, 8, [2]),
    (1, 8, []),       # one job: no pool
    (64, 1, []),
    (64, None, []),   # cpu_count() unknown counts as one CPU
])
def test_jobs_are_clamped(golden_config, monkeypatch, jobs, cpus, expected):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code = cli.parse_and_dispatch(
        ["verify"] + ["--config", golden_config] * 3 + ["--jobs", str(jobs)]
    )
    assert code == 0
    assert RecordingPool.sizes == expected


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_rejected(golden_config, capsys, jobs):
    code = cli.parse_and_dispatch(["verify", "--config", golden_config, "--jobs", jobs])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


def test_failing_verdict_exits_one(golden_config, monkeypatch):
    from bridgelab import harness

    failing = harness.ExperimentReport(
        rows=((0, "x", 1.0),),
        verdicts=(harness.Verdict(check="golden-fixed-point", passed=False,
                                  worst_residual=1.0),),
    )
    monkeypatch.setattr(cli.harness, "run_experiment", lambda config, out_dir=None: failing)
    assert cli.parse_and_dispatch(["verify", "--config", golden_config]) == 1


def test_stalled_bridge_exits_one(tmp_path, capsys):
    path = write_config(tmp_path / "stalled.json", {
        "regime": "discrete",
        "instance": {"profile": "bounded", "size": [16, 16], "osc_cap": 400.0},
        "seed": 0,
        "checks": ["ladder", "bridge-feasibility"],
    })
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL ladder" in out
    assert "FAIL bridge-feasibility" in out


def test_plot_flag(bounded_config, tmp_path):
    assert cli.parse_and_dispatch([
        "verify", "--config", bounded_config, "--plot", "on",
        "--out", str(tmp_path / "plotout"),
    ]) == 0
    assert list((tmp_path / "plotout" / "plots").glob("*.svg"))
