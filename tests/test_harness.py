import json
import math

import numpy as np
import pytest

from bridgelab import discrete, gaussian, harness
from bridgelab.errors import DomainError


class TestGenerateInstance:
    def test_same_seed_same_bytes(self):
        a = harness.generate_instance("discrete", (5, 7), 42, "bounded")
        b = harness.generate_instance("discrete", (5, 7), 42, "bounded")
        assert json.dumps(discrete.model_to_json(a)) == json.dumps(discrete.model_to_json(b))
        g1 = harness.generate_instance("gaussian", 3, 7, "gaussian-random-spd")
        g2 = harness.generate_instance("gaussian", 3, 7, "gaussian-random-spd")
        assert json.dumps(gaussian.instance_to_json(g1)) == json.dumps(
            gaussian.instance_to_json(g2)
        )

    def test_bounded_profile_pins_oscillation(self):
        model = harness.generate_instance(
            "discrete", (5, 7), 3, "bounded", osc_cap=math.log(2.0)
        )
        assert model.eps_w == pytest.approx(0.25)

    def test_gaussian_profile_spd_floor(self):
        inst = harness.generate_instance("gaussian", 3, 11, "gaussian-random-spd")
        for cov in (inst.mu.covariance, inst.eta.covariance, inst.kernel.tau):
            assert np.linalg.eigvalsh(cov)[0] >= 0.1 - 1e-12
        assert np.linalg.svd(inst.kernel.beta, compute_uv=False)[-1] >= 0.3 - 1e-12

    def test_quadratic_grid_profile(self):
        model = harness.generate_instance("discrete", (4, 6), 5, "quadratic-grid", t=0.5)
        xs = np.linspace(0.0, 1.0, 4)
        ys = np.linspace(0.0, 1.0, 6)
        np.testing.assert_allclose(model.cost, (xs[:, None] - ys[None, :]) ** 2)

    def test_unknown_profile_rejected(self):
        with pytest.raises(DomainError):
            harness.generate_instance("discrete", (3, 3), 1, "mystery")
        with pytest.raises(DomainError):
            harness.generate_instance("gaussian", 3, 1, "bounded")

    def test_size_caps(self):
        with pytest.raises(DomainError):
            harness.generate_instance("discrete", (65, 4), 1, "bounded")
        with pytest.raises(DomainError):
            harness.generate_instance("gaussian", 17, 1, "gaussian-random-spd")
        for regime, size, profile in [
            ("discrete", 0, "bounded"),
            ("discrete", (3, 0), "quadratic-grid"),
            ("discrete", (-1, 4), "bounded"),
            ("gaussian", 0, "gaussian-random-spd"),
            ("gaussian", -2, "gaussian-random-spd"),
        ]:
            with pytest.raises(DomainError, match="^size must be >= 1"):
                harness.generate_instance(regime, size, 1, profile)
        with pytest.raises(DomainError, match="^size must have at least 2 cells"):
            harness.generate_instance("discrete", 1, 1, "bounded")
        assert harness.generate_instance("discrete", (1, 2), 1, "bounded").eps_w == (
            pytest.approx(0.25)
        )

    @pytest.mark.parametrize("profile, params, name", [
        ("bounded", {"osc_cap": -1.0}, "osc_cap"),
        ("bounded", {"osc_cap": -1e-9}, "osc_cap"),
        ("bounded", {"osc_cap": math.inf}, "osc_cap"),
        ("bounded", {"osc_cap": math.nan}, "osc_cap"),
        ("quadratic-grid", {"t": 0.0}, "t"),
        ("quadratic-grid", {"t": -0.5}, "t"),
        ("quadratic-grid", {"t": math.nan}, "t"),
    ])
    def test_bad_profile_parameter_rejected(self, profile, params, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            harness.generate_instance("discrete", (3, 4), 1, profile, **params)


class TestConfig:
    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError):
            harness.ExperimentConfig(
                regime="discrete", instance={}, iterations=5, seed=1,
                checks=("no-such-check",),
            )
        with pytest.raises(DomainError, match="^checks must be a list"):
            harness.ExperimentConfig.from_json(
                {"regime": "discrete", "instance": {}, "checks": "ladder"}
            )

    def test_from_json_defaults_full_suite(self):
        config = harness.ExperimentConfig.from_json(
            {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2}}
        )
        assert config.checks == harness.GAUSSIAN_CHECKS

    @pytest.mark.parametrize("regime", ["continuous", "Discrete", None, ["discrete"]])
    def test_unknown_regime_rejected(self, regime):
        with pytest.raises(DomainError, match="unknown regime"):
            harness.ExperimentConfig(
                regime=regime, instance={}, iterations=5, seed=1, checks=(),
            )
        with pytest.raises(DomainError, match="unknown regime"):
            harness.ExperimentConfig.from_json({"regime": regime, "instance": {}})

    def test_check_from_other_regime_rejected(self):
        with pytest.raises(DomainError, match="envelope"):
            harness.ExperimentConfig(
                regime="discrete", instance={}, iterations=5, seed=1, checks=("envelope",),
            )
        with pytest.raises(DomainError, match="lyapunov"):
            harness.ExperimentConfig.from_json(
                {"regime": "gaussian", "instance": {}, "checks": ["lyapunov"]}
            )

    @pytest.mark.parametrize("regime, expected", [
        ("discrete", ("ladder", "linear-decay", "geometric-rate", "identities",
                      "bridge-feasibility", "lyapunov")),
        ("gaussian", ("riccati-equivalence", "golden-fixed-point", "bridge-transport",
                      "entropy-formula", "riccati-rate", "envelope")),
    ])
    def test_default_checks_in_registry_order(self, regime, expected):
        config = harness.ExperimentConfig.from_json({"regime": regime, "instance": {}})
        assert config.checks == expected
        assert tuple(harness.REGIMES[regime].checks) == expected

    def test_digest_stable(self):
        payload = {"regime": "discrete", "instance": {"profile": "bounded", "size": [4, 4]},
                   "iterations": 9, "seed": 5}
        assert (
            harness.ExperimentConfig.from_json(payload).digest()
            == harness.ExperimentConfig.from_json(dict(payload)).digest()
        )


def _discrete_config(tmp_path, checks, iterations=25, seed=2, **instance_extra):
    instance = {"profile": "bounded", "size": [5, 7], "osc_cap": 1.0}
    instance.update(instance_extra)
    return harness.ExperimentConfig(
        regime="discrete", instance=instance, iterations=iterations, seed=seed,
        checks=tuple(checks), output=str(tmp_path / "out"),
    )


class TestRunExperiment:
    def test_self_bridged_discrete_all_pass(self, tmp_path):
        base = harness.generate_instance("discrete", (4, 5), 9, "bounded")
        pushed = base.mu @ np.exp(base.log_k + base.log_nu[None, :])
        v = base.log_nu - np.log(pushed)
        model = discrete.build_model(base.cost, base.lambda_weights, base.nu_weights,
                                     base.u_potential, v)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(discrete.model_to_json(model)))
        config = harness.ExperimentConfig(
            regime="discrete",
            instance={"path": str(path)},
            iterations=10,
            seed=1,
            checks=("ladder", "linear-decay", "bridge-feasibility", "identities"),
        )
        report = harness.run_experiment(config)
        assert report.all_passed
        for verdict in report.verdicts:
            assert verdict.worst_residual < 1e-10

    def test_bounded_cost_geometric_verdict(self, tmp_path):
        config = _discrete_config(tmp_path, ["geometric-rate"], osc_cap=math.log(2.0))
        report = harness.run_experiment(config)
        assert report.all_passed

    def test_discrete_full_suite_passes(self, tmp_path):
        config = _discrete_config(tmp_path, harness.DISCRETE_CHECKS, iterations=21)
        report = harness.run_experiment(config)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]

    def test_golden_scalar_fixed_point(self):
        config = harness.ExperimentConfig(
            regime="gaussian",
            instance={"inline": {
                "d": 1, "m": [0.0], "sigma": [1.0], "m_bar": [0.0], "sigma_bar": [1.0],
                "alpha": [0.0], "beta": [1.0], "tau": [1.0],
            }},
            iterations=30,
            seed=0,
            checks=("golden-fixed-point", "riccati-equivalence", "bridge-transport"),
        )
        report = harness.run_experiment(config)
        assert report.all_passed
        fixed = [v for s, m, v in report.rows if m == "fixed_point"]
        assert fixed and fixed[0] == pytest.approx(0.6180339887, abs=1e-9)

    def test_gaussian_full_suite_passes(self, tmp_path):
        config = harness.ExperimentConfig(
            regime="gaussian",
            instance={"profile": "gaussian-random-spd", "size": 2},
            iterations=25,
            seed=6,
            checks=harness.GAUSSIAN_CHECKS,
            output=str(tmp_path / "gout"),
        )
        report = harness.run_experiment(config)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]
        assert (tmp_path / "gout" / "report.csv").exists()
        assert (tmp_path / "gout" / "verdicts.json").exists()

    def test_reports_byte_identical(self, tmp_path):
        config_a = _discrete_config(tmp_path / "a", ["ladder", "geometric-rate"])
        config_b = _discrete_config(tmp_path / "b", ["ladder", "geometric-rate"])
        harness.run_experiment(config_a)
        harness.run_experiment(config_b)
        assert (
            (tmp_path / "a" / "out" / "report.csv").read_bytes()
            == (tmp_path / "b" / "out" / "report.csv").read_bytes()
        )
        assert (
            (tmp_path / "a" / "out" / "verdicts.json").read_bytes()
            == (tmp_path / "b" / "out" / "verdicts.json").read_bytes()
        )

    def test_verdicts_recomputable_from_rows(self, tmp_path):
        config = _discrete_config(tmp_path, ["ladder"])
        report = harness.run_experiment(config)
        ladder_rows = [v for s, m, v in report.rows if m == "ladder_residual"]
        verdict = report.verdicts[0]
        assert verdict.worst_residual == pytest.approx(max(ladder_rows), abs=0.0)

    def test_failing_lyapunov_writes_plain_numbers(self, tmp_path):
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete",
            "instance": {"profile": "quadratic-grid", "size": [5, 7], "t": 0.01},
            "seed": 0, "iterations": 12, "checks": ["lyapunov"],
        })
        report = harness.run_experiment(config, tmp_path)
        assert not report.all_passed
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "step,metric,value"
        assert [line.split(",")[1] for line in lines[1:]] == ["lyapunov_best_rho"]
        for line in lines[1:]:
            float(line.split(",")[2])

    def test_plots_written(self, tmp_path):
        config = harness.ExperimentConfig(
            regime="discrete",
            instance={"profile": "bounded", "size": [4, 4]},
            iterations=10,
            seed=3,
            checks=("geometric-rate",),
            output=str(tmp_path / "plotted"),
            plot=True,
        )
        harness.run_experiment(config)
        plots = list((tmp_path / "plotted" / "plots").glob("*.svg"))
        assert plots
        assert plots[0].read_text().startswith("<svg")
