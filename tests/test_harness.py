import dataclasses
import json
import math
import tracemalloc
import warnings

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
        for name in ("lambda_min", "lambda_max"):
            with pytest.raises(DomainError, match="^unknown profile parameters"):
                harness.generate_instance("gaussian", 3, 1, "gaussian-random-spd",
                                          **{name: 0.5})

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_out_of_range_rejected(self, seed):
        for regime, size, profile in [("discrete", (3, 4), "bounded"),
                                      ("gaussian", 2, "gaussian-random-spd")]:
            with pytest.raises(DomainError, match=r"^seed must be in \[0, 2\*\*128\)"):
                harness.generate_instance(regime, size, seed, profile)
        assert harness.generate_instance("discrete", (3, 4), 2 ** 128 - 1, "bounded").eps_w > 0

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
        for regime, size, profile in [
            ("gaussian", [2], "gaussian-random-spd"),
            ("gaussian", 2.5, "gaussian-random-spd"),
            ("discrete", (2, 3, 4), "bounded"),
            ("discrete", 2.5, "bounded"),
            ("discrete", (2, 3.5), "quadratic-grid"),
        ]:
            with pytest.raises(DomainError, match="^size must be an int"):
                harness.generate_instance(regime, size, 1, profile)

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
        for checks in (("no-such-check",), (["ladder"],), ({"ladder": 1},)):
            with pytest.raises(DomainError, match="^unknown check identifiers"):
                harness.ExperimentConfig(
                    regime="discrete", instance={}, iterations=5, seed=1, checks=checks,
                )
        with pytest.raises(DomainError, match="^checks must be a list"):
            harness.ExperimentConfig.from_json(
                {"regime": "discrete", "instance": {}, "checks": "ladder"}
            )
        with pytest.raises(DomainError, match="^checks must be a list"):
            harness.ExperimentConfig(
                regime="discrete", instance={}, iterations=5, seed=1, checks="ladder",
            )

    @pytest.mark.parametrize("field, value", [
        ("checks", 5), ("seed", [1]), ("instance", 3), ("iterations", "ten"),
        ("iterations", 2.5), ("output", 5), ("plot", "off"),
    ])
    def test_malformed_field_rejected(self, field, value):
        payload = {"regime": "gaussian", "instance": {}, "iterations": 5, "seed": 1,
                   "checks": ["envelope"], field: value}
        with pytest.raises(DomainError, match=f"^{field} must be"):
            harness.ExperimentConfig.from_json(payload)
        with pytest.raises(DomainError, match=f"^{field} must be"):
            harness.ExperimentConfig(**payload)

    @pytest.mark.parametrize("seed", [2.5, "x", None, [2], -1, 2 ** 128])
    def test_instance_seed_validated_like_seed(self, seed):
        payload = {"regime": "discrete", "iterations": 5,
                   "instance": {"profile": "bounded", "size": [3, 4], "seed": seed}}
        with pytest.raises(DomainError, match=r"^instance\.seed must be an int in \[0, 2\*\*128\)"):
            harness.ExperimentConfig.from_json(payload)
        payload["instance"]["seed"] = 2
        config = harness.ExperimentConfig.from_json(payload)
        assert harness._load_instance(config).cost.tobytes() == harness.generate_instance(
            "discrete", (3, 4), 2, "bounded").cost.tobytes()

    def test_riccati_rate_needs_enough_iterations(self):
        payload = {"regime": "gaussian", "seed": 0,
                   "instance": {"profile": "gaussian-random-spd", "size": 2}}
        with pytest.raises(DomainError, match="^iterations must be >= 9 for the riccati-rate"):
            harness.ExperimentConfig.from_json({**payload, "iterations": 8})
        config = harness.ExperimentConfig.from_json({**payload, "iterations": 9})
        assert "riccati-rate" in config.checks
        harness.run_experiment(config)
        others = [c for c in harness.GAUSSIAN_CHECKS if c != "riccati-rate"]
        harness.run_experiment(
            harness.ExperimentConfig.from_json({**payload, "iterations": 6, "checks": others})
        )

    def test_iterations_are_capped(self):
        payload = {"regime": "gaussian", "seed": 0, "checks": ["golden-fixed-point"],
                   "instance": {"profile": "gaussian-random-spd", "size": 2}}
        cap = harness.MAX_ITERATIONS
        assert harness.ExperimentConfig.from_json({**payload, "iterations": cap}).iterations == cap
        for iterations in (cap + 1, 10 ** 8):
            with pytest.raises(DomainError, match=f"^iterations must be <= {cap}, got"):
                harness.ExperimentConfig.from_json({**payload, "iterations": iterations})

    def test_check_listed_twice_rejected(self):
        payload = {"regime": "discrete", "instance": {"profile": "bounded", "size": [5, 7]},
                   "checks": ["ladder", "identities", "ladder"]}
        with pytest.raises(DomainError, match=r"^checks must name each check once, "
                                              r"got \['ladder'\] more than once"):
            harness.ExperimentConfig.from_json(payload)

    def test_config_must_be_an_object(self):
        with pytest.raises(DomainError, match="^config must be an object"):
            harness.ExperimentConfig.from_json("[1]")

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


def assert_verdicts_rederive(report, out_dir=None):
    """The rule table, applied to the report.csv text alone, gives verdicts.json bit for bit."""
    csv_text, verdicts_text = report.csv_text(), report.verdicts_json()
    if out_dir is not None:
        csv_text = (out_dir / "report.csv").read_text()
        verdicts_text = (out_dir / "verdicts.json").read_text()
    derived = harness.verdicts_from_csv(csv_text)
    assert dataclasses.replace(report, verdicts=derived).verdicts_json() == verdicts_text


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

    def test_geometric_rate_skips_a_ratio_at_the_kl_floor(self):
        # KL at n = 2 reads 2.35e-16, rounding of u log(u / v) with u / v near 1;
        # TV 1.05e-12 puts the true KL near 1e-24.  The ratio 0.0075 would
        # exceed the bound 1.04e-3.
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete",
            "instance": {"profile": "bounded", "size": [4, 12],
                         "osc_cap": 0.016419049185149026, "seed": 3188695707},
            "iterations": 12, "checks": ["geometric-rate"],
        })
        report = harness.run_experiment(config)
        assert report.all_passed, report.verdicts
        kl = {n: value for n, metric, value in report.rows if metric == "h_kl"}
        bound = harness._scalars(report.rows)["rate_bound"]
        assert bound == pytest.approx(1.04e-3, rel=0.01)
        assert kl[2] / kl[1] == pytest.approx(0.0075, rel=0.05)
        # The rows show why the ratio is skipped: H_KL at n = 2 is below the floor.
        assert kl[2] < harness.KL_FLOOR <= kl[1]
        assert_verdicts_rederive(report)

    def test_geometric_rate_fails_a_ratio_above_the_bound(self, monkeypatch, tmp_path):
        original = discrete.geometric_rate_report
        monkeypatch.setattr(discrete, "geometric_rate_report", lambda model, run: (
            dataclasses.replace(original(model, run),
                                entropies=((1, "kl", 1e-13), (2, "kl", 1e-13 * 0.9)))))
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete", "instance": {"profile": "bounded", "size": [3, 4], "seed": 1},
            "iterations": 3, "checks": ["geometric-rate"],
        })
        report = harness.run_experiment(config, tmp_path)
        bound = harness._scalars(report.rows)["rate_bound"]
        (verdict,) = report.verdicts
        assert not verdict.passed
        assert verdict.worst_residual == (1e-13 * 0.9) / 1e-13 - bound
        assert_verdicts_rederive(report, tmp_path)

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

    def test_negative_seed_named(self):
        config = harness.ExperimentConfig.from_json({
            "regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2},
            "seed": -1, "checks": ["golden-fixed-point"],
        })
        with pytest.raises(DomainError, match="^seed must be in"):
            harness.run_experiment(config)

    def test_one_bridge_solve_per_gaussian_run(self, monkeypatch):
        calls = []
        original = gaussian.schrodinger_bridge_gaussian

        def counting(instance):
            calls.append(instance)
            return original(instance)

        monkeypatch.setattr(gaussian, "schrodinger_bridge_gaussian", counting)
        config = harness.ExperimentConfig.from_json({
            "regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 2},
            "iterations": 12, "seed": 3,
        })
        harness.run_experiment(config)
        assert config.checks == harness.GAUSSIAN_CHECKS
        assert len(calls) == 1

    def test_underflowed_eps_w_warns_nothing(self, tmp_path):
        config = _discrete_config(tmp_path, ["geometric-rate"], iterations=20, seed=0,
                                  size=[8, 8], osc_cap=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = harness.run_experiment(config)
        assert (0, "eps_w", 0.0) in report.rows
        # the verdict the check gave before the vacuous upper sandwich was skipped
        assert report.verdicts == (harness.Verdict("geometric-rate", True, 0.0),)

    def test_stalled_bridge_fails_ladder_instead_of_raising(self):
        # solve_bridge stops short of the marginals here (residual ~1e-4).
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete",
            "instance": {"profile": "bounded", "size": [16, 16], "osc_cap": 400.0},
            "seed": 0,
        })
        report = harness.run_experiment(config)
        verdicts = {v.check: v for v in report.verdicts}
        assert not verdicts["bridge-feasibility"].passed
        ladder = verdicts["ladder"]
        assert not ladder.passed
        assert ladder.worst_residual > discrete.MARGINAL_TOL
        assert [row for row in report.rows if row[1].startswith("ladder")] == [
            (0, "ladder_bridge_marginal_error", ladder.worst_residual)
        ]
        assert (0, "bridge_converged", 0.0) in report.rows
        assert_verdicts_rederive(report)

    def test_verdicts_recomputable_from_rows(self, tmp_path):
        config = _discrete_config(tmp_path, ["ladder"])
        report = harness.run_experiment(config)
        ladder_rows = [v for s, m, v in report.rows if m == "ladder_residual"]
        verdict = report.verdicts[0]
        assert verdict.worst_residual == pytest.approx(max(ladder_rows), abs=0.0)

    def test_failing_lyapunov_writes_plain_numbers(self, tmp_path):
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete",
            # At t = 0.001 kernel rows underflow to disjoint supports, so no
            # mixing level contracts (at t = 0.01, a = 1.1e-6 gives rho < 1).
            "instance": {"profile": "quadratic-grid", "size": [5, 7], "t": 0.001},
            "seed": 0, "iterations": 12, "checks": ["lyapunov"],
        })
        report = harness.run_experiment(config, tmp_path)
        assert not report.all_passed
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "step,metric,value"
        assert [line.split(",")[1] for line in lines[1:]] == ["lyapunov_best_rho"]
        for line in lines[1:]:
            float(line.split(",")[2])
        assert_verdicts_rederive(report, tmp_path)

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

    def test_gaussian_d16_run_memory_is_bounded(self):
        # The diagnostics read at most a chunk of rows at a time.  The run's
        # 201 rows hold about 1.3 MB; the peak is about 1.6 MB chunked and
        # 4.6 MB with every joint of the run in one stack.
        config = harness.ExperimentConfig.from_json({
            "regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 16},
            "seed": 0, "iterations": 100,
        })
        assert config.checks == harness.GAUSSIAN_CHECKS
        harness.run_experiment(config)
        tracemalloc.start()
        try:
            harness.run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6


class TestRuleTable:
    def test_metric_names_are_disjoint(self):
        seen: dict[str, str] = {}
        for regime in harness.REGIMES.values():
            for name, check in regime.checks.items():
                metrics = check.metrics
                assert len(set(metrics)) == len(metrics), name
                for metric in metrics:
                    assert seen.setdefault(metric, name) == name, metric

    def test_identities_rule_fails_on_a_nan_row(self):
        rule = harness.REGIMES["discrete"].checks["identities"].rule
        rows = [(0, "identity_semigroup-odd", 0.0),
                (0, "identity_projection-mu-chain-rule", 1e-13)]
        assert rule(rows)[0]
        for bad in (math.nan, 2e-12, math.inf):
            assert not rule([*rows, (0, "identity_projection-eta-pythagorean", bad)])[0], bad
        assert math.isnan(rule([*rows, (0, "identity_semigroup-even", math.nan)])[1])

    @pytest.mark.parametrize("payload", [
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [5, 7]}, "seed": 0,
         "iterations": 12},
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 1},
         "seed": 1, "iterations": 12},
    ])
    def test_every_rule_fails_on_a_nan_row(self, payload):
        # Each check passes on its rows; a NaN in any one of them, whichever
        # metric it carries, fails the check with a NaN worst residual.
        report = harness.run_experiment(harness.ExperimentConfig.from_json(payload))
        for name, check in harness.REGIMES[payload["regime"]].checks.items():
            rows = [row for row in report.rows if row[1] in check.metrics]
            assert check.rule(rows)[0], name
            for k, (step, metric, _) in enumerate(rows):
                passed, worst = check.rule([*rows[:k], (step, metric, math.nan), *rows[k + 1:]])
                assert not passed and math.isnan(worst), (name, step, metric)

    def test_nan_identity_row_is_the_worst_residual(self, tmp_path):
        # At osc_cap 1000 pi_0 has an exact 0, so eta / pi_even writes a NaN
        # identity row at n = 0.  H(bridge | P_0) is infinite there, and the
        # linear-decay gaps lhs - total = inf - inf that this leaves are no excess.
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete", "seed": 1, "iterations": 12,
            "instance": {"profile": "bounded", "size": [2, 5], "osc_cap": 1000.0}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = harness.run_experiment(config, tmp_path)
        assert any(math.isnan(v) for _, m, v in report.rows if m.startswith("identity_"))
        verdicts = {v.check: v for v in report.verdicts}
        assert not verdicts["identities"].passed
        assert math.isnan(verdicts["identities"].worst_residual)
        assert verdicts["linear-decay"].passed
        assert_verdicts_rederive(report, tmp_path)

    def test_kl_of_a_tiny_nonzero_mass_warns_nothing(self, tmp_path):
        # At osc_cap 1000 some entries of P_{2n} are tiny but not 0, so u / v
        # overflows in the ladder's and linear-decay's KLs; u log(inf) = inf
        # either way, and numpy prints no warning.
        config = harness.ExperimentConfig.from_json({
            "regime": "discrete", "seed": 4, "iterations": 12,
            "instance": {"profile": "bounded", "size": [3, 12], "osc_cap": 1000.0}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = harness.run_experiment(config, tmp_path)
        failed = [v.check for v in report.verdicts if not v.passed]
        assert failed == ["ladder", "lyapunov"]
        assert_verdicts_rederive(report, tmp_path)

    def test_metric_no_check_writes_rejected(self):
        with pytest.raises(DomainError, match="^no check writes the metric 'ratio_kl'"):
            harness.verdicts_from_csv("step,metric,value\n0,ratio_kl,0.5\n")

    @pytest.mark.parametrize("line", ["0,bridge_residual", "x,bridge_residual,0.0",
                                      "0,bridge_residual,abc", "0,bridge_residual,1.0,2.0"])
    def test_malformed_line_named_by_number(self, line):
        text = f"step,metric,value\n0,bridge_converged,1.0\n{line}\n"
        with pytest.raises(DomainError, match=rf"^report line 3: .* got {line!r}$"):
            harness.verdicts_from_csv(text)

    @pytest.mark.parametrize("rows, check, metric", [
        ("0,linear_decay_lhs,0.5", "linear-decay", "bridge_entropy_total"),
        ("0,lyapunov_a,1.0\n0,lyapunov_rho,0.5", "lyapunov", "weighted_tv_even"),
        ("0,entropy_envelope,1.0", "envelope", "eps"),
        ("0,eps,1.0\n0,refined_factor,2.0\n0,entropy_envelope,1.0", "envelope",
         "entropy_to_iterate"),
        ("0,bridge_residual,0.0", "bridge-feasibility", "bridge_marginal_x_error"),
    ])
    def test_missing_metric_named_with_its_check(self, rows, check, metric):
        with pytest.raises(DomainError, match=rf"^check {check}: no {metric!r} row$"):
            harness.verdicts_from_csv(f"step,metric,value\n{rows}\n")

    def test_truncated_report_raises_a_domain_error(self, tmp_path):
        config = harness.ExperimentConfig.from_json(
            {"regime": "discrete", "instance": {"profile": "bounded", "size": [5, 7]},
             "seed": 3, "iterations": 12})
        lines = harness.run_experiment(config).csv_text().splitlines()
        cut = [*lines[:-1], ",".join(lines[-1].split(",")[:2])]
        dropped = [line for line in lines if ",bridge_entropy_total," not in line]
        assert len(dropped) == len(lines) - 1
        for text in (cut, dropped):
            with pytest.raises(DomainError):
                harness.verdicts_from_csv("\n".join(text) + "\n")

    @pytest.mark.parametrize("payload", [
        # 4x4 is the size whose identity rows used to differ.
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [4, 4]}, "seed": 3,
         "iterations": 12},
        {"regime": "discrete", "instance": {"profile": "quadratic-grid", "size": [5, 7]},
         "seed": 1, "iterations": 12},
        # a stalled bridge solve and a failed certificate search
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [16, 16],
                                            "osc_cap": 400.0}, "seed": 0},
        {"regime": "discrete", "instance": {"profile": "quadratic-grid", "size": [5, 7],
                                            "t": 0.001}, "seed": 0, "iterations": 12},
        # d = 1 writes fixed_point and the chained W2 rows.
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 1},
         "seed": 1, "iterations": 12},
        {"regime": "gaussian", "instance": {"profile": "gaussian-random-spd", "size": 3},
         "seed": 0, "iterations": 12},
        # Kernel entries underflow to 0, and P_{2n} and P_{2n+1} differ in their
        # zero pattern.
        {"regime": "discrete", "instance": {"profile": "bounded", "size": [8, 8],
                                            "osc_cap": 1000.0}, "seed": 0, "iterations": 12},
        {"regime": "discrete", "instance": {"profile": "quadratic-grid", "size": [64, 64],
                                            "t": 0.0005}, "seed": 0, "iterations": 12},
    ])
    def test_each_check_writes_only_its_metrics_and_verdicts_rederive(self, payload):
        config = harness.ExperimentConfig.from_json(payload)
        instance = harness._load_instance(config)
        regime = harness.REGIMES[config.regime]
        trajectory, bridge = regime.run(instance, config.iterations)
        for name, check in regime.checks.items():
            written = {metric for _, metric, _ in check.rows(instance, trajectory, bridge)}
            assert written <= set(check.metrics), (name, written)
        report = harness.run_experiment(config)
        assert_verdicts_rederive(report)
        if config.regime == "discrete":
            # Every size writes the I-projection rows, and every identity row is finite.
            identity = [(m, v) for _, m, v in report.rows if m.startswith("identity_")]
            assert {m for m, _ in identity} == set(regime.checks["identities"].metrics)
            assert all(math.isfinite(v) for _, v in identity), identity
            assert {v.check: v.passed for v in report.verdicts}["identities"]
