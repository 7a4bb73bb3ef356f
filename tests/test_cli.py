import json
import math
import warnings
from pathlib import Path

import pytest

from bridgelab import cli, harness
from bridgelab.errors import BridgeLabError


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


def test_check_listed_twice_exits_two(tmp_path, capsys):
    path = write_config(tmp_path / "twice.json", {
        "regime": "discrete", "instance": {"profile": "bounded", "size": [5, 7]},
        "checks": ["ladder", "ladder"],
    })
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 2
    assert "['ladder'] more than once" in capsys.readouterr().err


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


DISCRETE_INLINE = {"nx": 2, "ny": 3, "W": [0.0, 1.0, 2.0, 1.0, 0.0, 1.0],
                   "lambda": [1.0, 1.0], "nu": [1.0, 1.0, 1.0]}
GAUSSIAN_INLINE = {"d": 1, "m": [0.0], "sigma": [1.0], "m_bar": [0.0], "sigma_bar": [1.0],
                   "alpha": [0.0], "beta": [1.0], "tau": [1.0]}


def without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize("regime, instance, message", [
    ("discrete", without(DISCRETE_INLINE, "W"), "discrete instance is missing key 'W'"),
    ("discrete", {**DISCRETE_INLINE, "W": [0.0] * 5},
     "W has 5 entries, expected 6 for shape (2, 3)"),
    ("discrete", [1.0, 2.0], "discrete instance must be an object, got list"),
    ("gaussian", without(GAUSSIAN_INLINE, "sigma"), "gaussian instance is missing key 'sigma'"),
    ("gaussian", without(GAUSSIAN_INLINE, "m"), "gaussian instance is missing key 'm'"),
    ("gaussian", {**GAUSSIAN_INLINE, "beta": [1.0, 0.0]},
     "beta has 2 entries, expected 1 for shape (1, 1)"),
])
@pytest.mark.parametrize("source", ["inline", "path"])
def test_malformed_instance_exits_two(tmp_path, capsys, regime, instance, message, source):
    if source == "path":
        (tmp_path / "inst.json").write_text(json.dumps(instance))
        spec = {"path": str(tmp_path / "inst.json")}
    else:
        spec = {"inline": instance}
    path = write_config(tmp_path / "bad.json", {"regime": regime, "instance": spec,
                                                 "iterations": 12})
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2.5, "x"])
def test_malformed_instance_seed_exits_two(tmp_path, capsys, seed):
    path = write_config(tmp_path / "seed.json", {
        "regime": "discrete", "instance": {"profile": "bounded", "size": [3, 4], "seed": seed},
        "iterations": 5,
    })
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 2
    assert f"error: instance.seed must be an int in [0, 2**128), got {seed!r}" in (
        capsys.readouterr().err)


BOUNDED = {"profile": "bounded", "size": [3, 4]}
GRID = {"profile": "quadratic-grid", "size": [3, 4]}


@pytest.mark.parametrize("regime, instance, extra, message", [
    ("discrete", {"path": 5}, {}, "instance.path must be a path, got 5"),
    ("discrete", {**GRID, "t": None}, {}, "t must be a real number, got None"),
    ("discrete", {**BOUNDED, "osc_cap": [1]}, {}, "osc_cap must be a real number, got [1]"),
    ("discrete", {**BOUNDED, "osc_cap": "x"}, {}, "osc_cap must be a real number, got 'x'"),
    ("discrete", {**BOUNDED, "size": [3, True]}, {}, "size must be an int, got True"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "nx": 2.5}}, {}, "nx must be an int, got 2.5"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "ny": "3"}}, {}, "ny must be an int, got '3'"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "d": 0}}, {}, "d must be >= 1, got 0"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "d": 1.5}}, {}, "d must be an int, got 1.5"),
    ("discrete", BOUNDED, {"iterations": True}, "iterations must be an int, got True"),
    ("discrete", {**BOUNDED, "seed": True}, {},
     "instance.seed must be an int in [0, 2**128), got True"),
    # Array fields: non-numeric or null, a scalar where a list is due, ragged, wrongly sized.
    ("gaussian", {"inline": without({**GAUSSIAN_INLINE, "m": 5}, "d")}, {},
     "m must be a list of finite numbers, got 5"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "sigma": "x"}}, {},
     "sigma must be a list of finite numbers, got 'x'"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "alpha": "x"}}, {},
     "alpha must be a list of finite numbers, got 'x'"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "m_bar": 0.0}}, {},
     "m_bar must be a list of finite numbers, got 0.0"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "m_bar": [0.0, 1.0]}}, {},
     "m_bar has 2 entries, expected 1 for shape (1,)"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "tau": [True]}}, {},
     "tau must be a list of finite numbers, got [True]"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "W": "ab"}}, {},
     "W must be a list of finite numbers, got 'ab'"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "W": [[0.0, 1.0, 2.0], [1.0, 0.0]]}}, {},
     "W must be a list of finite numbers, got [[0.0, 1.0, 2.0], [1.0, 0.0]]"),
    # A bool among numbers, flat or nested, which numpy would read as 1.0.
    ("discrete", {"inline": {**DISCRETE_INLINE, "W": [0.0, 1.0, True, 1.0, 0.0, 1.0]}}, {},
     "W must be a list of finite numbers, got [0.0, 1.0, True, 1.0, 0.0, 1.0]"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "W": [[0.0, 1.0, 2.0], [1.0, True, 1.0]]}}, {},
     "W must be a list of finite numbers, got [[0.0, 1.0, 2.0], [1.0, True, 1.0]]"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "lambda": "x"}}, {},
     "lambda must be a list of finite numbers, got 'x'"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "nu": [1.0]}}, {},
     "nu has 1 entries, expected 3 for shape (3,)"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "U": [0.0, "a"]}}, {},
     "U must be a list of finite numbers, got [0.0, 'a']"),
    ("discrete", {"inline": {**DISCRETE_INLINE, "V": 1.0}}, {},
     "V must be a list of finite numbers, got 1.0"),
    ("gaussian", {"inline": {**GAUSSIAN_INLINE, "m": [None]}}, {},
     "m must be a list of finite numbers, got [None]"),
])
def test_mistyped_input_exits_two_naming_the_field(tmp_path, capsys, regime, instance, extra,
                                                   message):
    path = write_config(tmp_path / "typed.json", {"regime": regime, "instance": instance,
                                                   "iterations": 12, **extra})
    assert cli.parse_and_dispatch(["verify", "--config", path]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_non_spd_sigma_bar_exits_two_naming_the_key(tmp_path, capsys):
    instance = {**GAUSSIAN_INLINE, "d": 2, "m": [0.0, 0.0], "m_bar": [0.0, 0.0],
                "alpha": [0.0, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0],
                "sigma_bar": [1.0, 0.0, 0.0, -1.0], "beta": [1.0, 0.0, 0.0, 1.0],
                "tau": [1.0, 0.0, 0.0, 1.0]}
    path = write_config(tmp_path / "spd.json", {"regime": "gaussian", "iterations": 12,
                                                 "instance": {"inline": instance}})
    assert cli.parse_and_dispatch(["verify", "--config", path,
                                   "--out", str(tmp_path / "out")]) == 2
    assert "error: sigma_bar: covariance is not positive definite" in capsys.readouterr().err


def test_ill_conditioned_instance_exits_two(tmp_path, capsys):
    # sigma_bar = 1e-4 against beta = 1e4 puts the condition number of the
    # reference joint near 1e16: the diagnostics cannot resolve it and raise,
    # so the run ends as a bad input, not as a failed verdict.
    config = {"regime": "gaussian", "iterations": 12, "instance": {"inline": {
        **GAUSSIAN_INLINE, "sigma_bar": [1e-4], "beta": [1e4]}}}
    with pytest.raises(BridgeLabError):
        harness.run_experiment(harness.ExperimentConfig.from_json(config))
    path = write_config(tmp_path / "extreme.json", config)
    assert cli.parse_and_dispatch(["verify", "--config", path,
                                   "--out", str(tmp_path / "out")]) == 2
    assert "error: " in capsys.readouterr().err


def test_ill_conditioned_entropy_formula_alone_exits_two(tmp_path, capsys):
    # The entropy-formula check holds the even joints to the SPD floor itself,
    # so the instance above is a bad input without the envelope check too.
    config = {"regime": "gaussian", "iterations": 12, "checks": ["entropy-formula"],
              "instance": {"inline": {**GAUSSIAN_INLINE, "sigma_bar": [1e-4], "beta": [1e4]}}}
    path = write_config(tmp_path / "extreme.json", config)
    assert cli.parse_and_dispatch(["verify", "--config", path,
                                   "--out", str(tmp_path / "out")]) == 2
    assert "error: joint P_2n at n=0 is not positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("small, code", [(1e-7, 2), (1e-5, 0)])
def test_nearly_singular_beta_names_the_inputs(tmp_path, capsys, small, code):
    # beta = diag(1, 1e-7) clears the kernel's singular-value floor, but with
    # sigma = sigma_bar = tau = I the mixing matrix gamma gamma' = diag(1, 1e-14)
    # is below the SPD floor.  At 1e-5 every check passes.
    instance = {**GAUSSIAN_INLINE, "d": 2, "m": [0.0, 0.0], "m_bar": [0.0, 0.0],
                "alpha": [0.0, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0],
                "sigma_bar": [1.0, 0.0, 0.0, 1.0], "beta": [1.0, 0.0, 0.0, small],
                "tau": [1.0, 0.0, 0.0, 1.0]}
    path = write_config(tmp_path / "beta.json", {"regime": "gaussian", "iterations": 12,
                                                  "instance": {"inline": instance}})
    assert cli.parse_and_dispatch(["verify", "--config", path,
                                   "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert ("error: beta, sigma and sigma_bar give a numerically singular mixing matrix "
                "gamma = sigma_bar^(1/2) tau^-1 beta sigma^(1/2): gamma gamma' is not positive "
                "definite: smallest eigenvalue 1.000000e-14") in err


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


def test_nan_identity_row_fails_without_a_warning(tmp_path, capsys):
    # At osc_cap 1000 pi_0 has an exact 0: the identity row it gives is NaN
    # and fails its check, and numpy prints nothing about the division.
    path = write_config(tmp_path / "zero.json", {
        "regime": "discrete", "seed": 1, "iterations": 12,
        "instance": {"profile": "bounded", "size": [2, 5], "osc_cap": 1000.0},
        "output": str(tmp_path / "zero-out"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.parse_and_dispatch(["verify", "--config", path]) == 1
    captured = capsys.readouterr()
    assert "FAIL identities (worst residual nan)" in captured.out
    assert captured.err == ""


def test_plot_flag(bounded_config, tmp_path):
    assert cli.parse_and_dispatch([
        "verify", "--config", bounded_config, "--plot", "on",
        "--out", str(tmp_path / "plotout"),
    ]) == 0
    assert list((tmp_path / "plotout" / "plots").glob("*.svg"))


def test_one_parser_serves_every_call(golden_config, tmp_path, monkeypatch):
    # The parser is built once per process; each call must still parse as a
    # fresh process would, with no option or --config list left from the last.
    other = write_config(tmp_path / "other.json", {
        **json.loads((tmp_path / "golden.json").read_text()), "output": str(tmp_path / "o2")})
    calls = [
        ["gen", "--regime", "gaussian", "--profile", "gaussian-random-spd", "--size", "2",
         "--out", str(tmp_path / "inst.json")],
        ["verify", "--config", golden_config, "--plot", "off"],
        ["verify", "--config", other, "--iterations", "20"],
    ]
    parsed = []

    def recording(dispatch):
        def recorded(args, *rest):
            parsed.append(dict(vars(args)))
            return dispatch(args, *rest)
        return recorded

    monkeypatch.setattr(cli, "_dispatch_gen", recording(cli._dispatch_gen))
    monkeypatch.setattr(cli, "_dispatch_run", recording(cli._dispatch_run))
    assert [cli.parse_and_dispatch(argv) for argv in calls] == [0, 0, 0]
    assert parsed == [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in calls]
    assert parsed[2]["config"] == [other] and parsed[2]["plot"] is None
    assert parsed[1]["iterations"] is None
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("source", ["--out", "output", "BRIDGELAB_OUT"])
def test_two_experiments_into_one_directory_exit_two(golden_config, bounded_config, tmp_path,
                                                     monkeypatch, capsys, jobs, source):
    # Two configs with different digests resolve to one output directory.
    shared = tmp_path / "shared"
    argv = ["verify", "--config", bounded_config, "--config", golden_config, "--jobs", jobs]
    if source == "--out":
        argv += ["--out", str(shared)]
    else:
        for path in map(Path, (bounded_config, golden_config)):
            payload = json.loads(path.read_text())
            payload["output"] = str(shared) if source == "output" else None
            write_config(path, payload)
        if source == "BRIDGELAB_OUT":
            monkeypatch.setenv("BRIDGELAB_OUT", str(shared))
    assert cli.parse_and_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert bounded_config in err and golden_config in err and str(shared) in err
    assert not shared.exists()
