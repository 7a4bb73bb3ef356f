import json
import math

import numpy as np
import pytest

from bridgelab import discrete
from bridgelab.divergences import relative_entropy
from bridgelab.errors import DomainError


def random_model(rng, nx, ny, osc=1.0):
    cost = rng.uniform(0.0, osc, size=(nx, ny))
    lam = rng.uniform(0.5, 1.5, size=nx)
    nu = rng.uniform(0.5, 1.5, size=ny)
    u = rng.uniform(0.0, 1.0, size=nx)
    v = rng.uniform(0.0, 1.0, size=ny)
    return discrete.build_model(cost, lam, nu, u, v)


def self_bridged_model(rng, nx, ny):
    """A model whose target eta equals mu K, so the reference is already the bridge."""
    base = random_model(rng, nx, ny)
    pushed = base.mu @ np.exp(base.log_k + base.log_nu[None, :])
    v = base.log_nu - np.log(pushed)
    return discrete.build_model(base.cost, base.lambda_weights, base.nu_weights,
                                base.u_potential, v)


class TestBuildModel:
    def test_uniform_two_by_two(self):
        model = discrete.build_model(np.zeros((2, 2)), np.ones(2), np.ones(2))
        np.testing.assert_allclose(model.mu, [0.5, 0.5])
        np.testing.assert_allclose(model.eta, [0.5, 0.5])

    def test_marginals_normalized(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 5, 7)
        assert abs(model.mu.sum() - 1.0) < 1e-12
        assert abs(model.eta.sum() - 1.0) < 1e-12

    def test_reference_kernel_is_markov(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 4, 6)
        rows = np.exp(model.log_k + model.log_nu[None, :]).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-13)

    def test_quadratic_cost_gives_heat_kernel_rows(self):
        xs = np.linspace(0.0, 1.0, 5)
        ys = np.linspace(0.0, 1.0, 6)
        t = 0.3
        cost = (xs[:, None] - ys[None, :]) ** 2 / (2 * t)
        nu = np.full(6, 1.0 / 6.0)
        model = discrete.build_model(cost, np.ones(5), nu)
        it = discrete.materialize(model, discrete.initial_potentials(model))
        for i in range(5):
            expected = np.exp(-((xs[i] - ys) ** 2) / (2 * t)) * nu
            expected /= expected.sum()
            np.testing.assert_allclose(it.kernel_even[i], expected, atol=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            discrete.build_model(np.zeros((2, 2)), np.array([1.0, 0.0]), np.ones(2))
        with pytest.raises(DomainError):
            discrete.build_model(np.array([[0.0, np.inf], [0.0, 0.0]]), np.ones(2), np.ones(2))

    def test_json_round_trip(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 4)
        clone = discrete.model_from_json(json.loads(json.dumps(discrete.model_to_json(model))))
        np.testing.assert_allclose(clone.cost, model.cost)
        np.testing.assert_allclose(clone.mu, model.mu)
        np.testing.assert_allclose(clone.eta, model.eta)


class TestPotentialRecursion:
    def test_parity_copies(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 5, 7)
        p0 = discrete.initial_potentials(model)
        p1 = discrete.half_step(model, p0)
        p2 = discrete.half_step(model, p1)
        # U is copied on the even->odd move, V on the odd->even move.
        np.testing.assert_array_equal(p1.u, p0.u)
        np.testing.assert_array_equal(p2.v, p1.v)

    def test_stationary_when_already_bridged(self):
        rng = np.random.default_rng(4)
        model = self_bridged_model(rng, 4, 5)
        p0 = discrete.initial_potentials(model)
        p2 = discrete.sweep(model, p0)
        assert float(np.max(np.abs(p2.u - p0.u))) < 1e-12
        assert float(np.max(np.abs(p2.v - p0.v))) < 1e-12

    def test_zero_cost_product_bridge_in_one_sweep(self):
        rng = np.random.default_rng(5)
        model = discrete.build_model(
            np.zeros((3, 4)),
            rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 1.5, 4),
            rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0, 4),
        )
        solution = discrete.solve_bridge(model)
        np.testing.assert_allclose(
            solution.bridge, np.outer(model.mu, model.eta), atol=1e-14
        )
        assert solution.iterations_used <= 1

    def test_ratio_identity_between_even_potentials(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 5, 7)
        iterates = discrete.run_sinkhorn(model, 4)
        for prev, nxt in zip(iterates, iterates[1:]):
            expected = prev.potentials.v - np.log(model.eta / prev.pi_even)
            np.testing.assert_allclose(nxt.potentials.v, expected, atol=1e-12)
            expected_u = prev.potentials.u - np.log(model.mu / prev.pi_odd)
            np.testing.assert_allclose(nxt.potentials.u, expected_u, atol=1e-12)

    def test_potential_series_and_mean_monotonicity(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 5, 7)
        iterates = discrete.run_sinkhorn(model, 8)
        acc = np.zeros(model.nx)
        means_u = []
        means_v = []
        for it in iterates:
            np.testing.assert_allclose(
                it.potentials.u - iterates[0].potentials.u, -acc, atol=1e-10
            )
            acc = acc + np.log(model.mu / it.pi_odd)
            means_u.append(float(model.mu @ it.potentials.u))
            means_v.append(float(model.eta @ it.potentials.v))
        assert means_v[0] == 0.0
        for a, b in zip(means_v, means_v[1:]):
            assert b <= a + 1e-12
        assert means_u[0] == pytest.approx(float(model.mu @ model.u_potential))
        for a, b in zip(means_u, means_u[1:]):
            assert b <= a + 1e-12


class TestMaterialize:
    def test_step_zero_kernel_is_reference(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 6)
        it = discrete.materialize(model, discrete.initial_potentials(model))
        np.testing.assert_allclose(
            it.kernel_even, np.exp(model.log_k + model.log_nu[None, :]), atol=1e-13
        )

    def test_fixed_point_equations(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 5, 7)
        iterates = discrete.run_sinkhorn(model, 3)
        for it, nxt in zip(iterates, iterates[1:]):
            np.testing.assert_allclose(it.pi_even @ it.kernel_odd, model.mu, atol=1e-12)
            np.testing.assert_allclose(it.pi_odd @ nxt.kernel_even, model.eta, atol=1e-12)

    def test_uniform_symmetric_model(self):
        model = discrete.build_model(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), np.ones(2)
        )
        for it in discrete.run_sinkhorn(model, 3):
            np.testing.assert_allclose(it.pi_even, [0.5, 0.5], atol=1e-14)
            np.testing.assert_allclose(it.pi_odd, [0.5, 0.5], atol=1e-14)

    def test_joint_density_product_form(self):
        # P_n factorizes as exp(-U_n) k exp(-V_n) against the base masses.
        rng = np.random.default_rng(30)
        model = random_model(rng, 4, 6)
        for it in discrete.run_sinkhorn(model, 3):
            pot = it.potentials
            log_even = (
                (model.log_lambda - pot.u)[:, None]
                + model.log_k
                + (model.log_nu - pot.v)[None, :]
            )
            np.testing.assert_allclose(it.joint_even, np.exp(log_even), atol=1e-13)
            odd = discrete.half_step(model, pot)
            log_odd = (
                (model.log_lambda - odd.u)[:, None]
                + model.log_k
                + (model.log_nu - odd.v)[None, :]
            )
            np.testing.assert_allclose(it.joint_odd, np.exp(log_odd), atol=1e-13)

    def test_joint_marginals_exact(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 6, 5)
        for it in discrete.run_sinkhorn(model, 2):
            np.testing.assert_allclose(it.joint_even.sum(axis=1), model.mu, atol=1e-14)
            np.testing.assert_allclose(it.joint_odd.sum(axis=0), model.eta, atol=1e-14)

    def test_requires_even_step(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, 3)
        odd = discrete.half_step(model, discrete.initial_potentials(model))
        with pytest.raises(DomainError):
            discrete.materialize(model, odd)


class TestDualKernel:
    def test_identity_kernel(self):
        mu = np.array([0.3, 0.7])
        np.testing.assert_allclose(discrete.dual_kernel(np.eye(2), mu), np.eye(2))

    def test_doubly_stochastic_uniform(self):
        k = np.array([[0.2, 0.8], [0.8, 0.2]])
        np.testing.assert_allclose(discrete.dual_kernel(k, np.array([0.5, 0.5])), k.T)

    def test_reversibility(self):
        rng = np.random.default_rng(12)
        k = rng.dirichlet(np.ones(5), size=4)
        mu = rng.dirichlet(np.ones(4))
        dual = discrete.dual_kernel(k, mu)
        np.testing.assert_allclose((mu @ k) @ dual, mu, atol=1e-12)
        # detailed-balance style symmetry of mu(x) K(x,y) K*(y, xbar)
        for y in range(5):
            outer = mu[:, None] * k[:, [y]] * dual[y][None, :]
            np.testing.assert_allclose(outer, outer.T, atol=1e-14)

    def test_zero_mass_rejected(self):
        k = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            discrete.dual_kernel(k, np.array([0.5, 0.5]))


class TestEntropyLadder:
    def test_trivial_at_reference(self):
        rng = np.random.default_rng(13)
        model = self_bridged_model(rng, 4, 5)
        iterates = discrete.run_sinkhorn(model, 3)
        report = discrete.entropy_ladder(model, iterates, iterates[0].joint_even)
        assert report.total == pytest.approx(0.0, abs=1e-12)
        for row in report.rows:
            assert row.entropy_to_bridge == pytest.approx(0.0, abs=1e-12)
            assert row.gap_eta == pytest.approx(0.0, abs=1e-12)
            assert row.gap_mu == pytest.approx(0.0, abs=1e-12)

    def test_bridge_ladder_residual(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            model = random_model(rng, 5, 7)
            solution = discrete.solve_bridge(model)
            iterates = discrete.run_sinkhorn(model, 30)
            report = discrete.entropy_ladder(model, iterates, solution.bridge)
            assert report.max_residual <= 1e-9

    def test_telescoping(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, 4, 6)
        solution = discrete.solve_bridge(model)
        iterates = discrete.run_sinkhorn(model, 10)
        report = discrete.entropy_ladder(model, iterates, solution.bridge)
        for p in range(0, 8, 2):
            for n in range(p + 1, 9):
                lhs = report.rows[p].entropy_to_bridge - report.rows[n].entropy_to_bridge
                rhs = report.rows[n].partial_sum - report.rows[p].partial_sum
                assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_marginal_validation(self):
        rng = np.random.default_rng(16)
        model = random_model(rng, 3, 3)
        iterates = discrete.run_sinkhorn(model, 1)
        bad = np.outer(model.mu, np.roll(model.eta, 1))
        with pytest.raises(DomainError):
            discrete.entropy_ladder(model, iterates, bad)

    def test_half_step_entropy_decomposition(self):
        # H(Q | P_{2n}) = H(Q | P_{2n+1}) + H(eta | pi_{2n}) and its even twin.
        rng = np.random.default_rng(31)
        model = random_model(rng, 4, 5)
        q = discrete.solve_bridge(model).bridge
        iterates = discrete.run_sinkhorn(model, 6)
        for it, nxt in zip(iterates, iterates[1:]):
            lhs = relative_entropy(q, it.joint_even)
            rhs = relative_entropy(q, it.joint_odd) + relative_entropy(
                model.eta, it.pi_even
            )
            assert lhs == pytest.approx(rhs, abs=1e-11)
            lhs_odd = relative_entropy(q, it.joint_odd)
            rhs_odd = relative_entropy(q, nxt.joint_even) + relative_entropy(
                model.mu, it.pi_odd
            )
            assert lhs_odd == pytest.approx(rhs_odd, abs=1e-11)


class TestSolveBridge:
    def test_already_bridged_needs_zero_iterations(self):
        rng = np.random.default_rng(17)
        model = self_bridged_model(rng, 5, 4)
        solution = discrete.solve_bridge(model)
        assert solution.iterations_used == 0
        assert solution.converged

    def test_seeded_instance_converges(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, 5, 7)
        solution = discrete.solve_bridge(model)
        assert solution.converged
        assert solution.residual <= 1e-10
        np.testing.assert_allclose(solution.bridge.sum(axis=1), model.mu, atol=1e-10)
        np.testing.assert_allclose(solution.bridge.sum(axis=0), model.eta, atol=1e-10)

    def test_iteration_cap_flags_nonconvergence(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, 6, 6, osc=8.0)
        for cap in (2, 0):
            solution = discrete.solve_bridge(model, discrete.StoppingRule(max_sweeps=cap))
            assert not solution.converged
            assert solution.iterations_used == cap


class TestIdentitySuite:
    def test_seeded_instance_passes(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, 5, 7)
        iterates = discrete.run_sinkhorn(model, 6)
        report = discrete.identity_suite(model, iterates)
        assert report.all_passed, report.failures()
        assert not any("half-bridge" in row.name for row in report.rows)

    def test_half_bridge_oracle_on_small_support(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 3, 3)
        iterates = discrete.run_sinkhorn(model, 3)
        report = discrete.identity_suite(model, iterates)
        half_rows = [row for row in report.rows if "half-bridge" in row.name]
        assert len(half_rows) == 6
        assert all(row.passed for row in half_rows), half_rows

    def test_needs_two_iterates(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 3, 3)
        with pytest.raises(DomainError):
            discrete.identity_suite(model, discrete.run_sinkhorn(model, 0))


class TestGeometricRate:
    def test_constant_cost_saturates_immediately(self):
        model = discrete.build_model(np.full((3, 3), 2.5), np.ones(3), np.ones(3))
        assert model.eps_w == pytest.approx(1.0)
        iterates = discrete.run_sinkhorn(model, 3)
        report = discrete.geometric_rate_report(model, iterates)
        assert report.bound == pytest.approx(0.0)
        assert all(row.within_bound for row in report.ratio_rows)

    def test_log_two_oscillation_bound(self):
        rng = np.random.default_rng(23)
        cost = rng.uniform(0.0, 1.0, size=(5, 7))
        cost = (cost - cost.min()) / (cost.max() - cost.min()) * math.log(2.0)
        model = discrete.build_model(
            cost, rng.uniform(0.5, 1.5, 5), rng.uniform(0.5, 1.5, 7),
            rng.uniform(0.0, 1.0, 5), rng.uniform(0.0, 1.0, 7),
        )
        assert model.eps_w == pytest.approx(0.25)
        iterates = discrete.run_sinkhorn(model, 40)
        report = discrete.geometric_rate_report(model, iterates)
        assert report.bound == pytest.approx(0.5625)
        for row in report.ratio_rows:
            if not row.saturated and row.value >= 1e-14:
                assert row.ratio <= report.bound + 1e-10
        assert report.sandwich_ok
        assert report.slope_within

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, 4, 5, osc=2.0)
        report = discrete.geometric_rate_report(model, discrete.run_sinkhorn(model, 10))
        assert report.sandwich_ok


class TestConvergenceSeries:
    def test_potential_convergence_rate_and_series_expansion(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, 5, 7, osc=1.0)
        solution = discrete.solve_bridge(model)
        iterates = discrete.run_sinkhorn(model, 60)
        decay = 1.0 - model.eps_w
        errors = [
            float(np.max(np.abs(it.potentials.v - solution.v))) for it in iterates
        ]
        # fit the constant on the first few steps, then demand domination
        c = max(errors[n] / decay ** (2 * n) for n in range(5)) * (1.0 + 1e-9)
        for n, err in enumerate(errors):
            assert err <= c * decay ** (2 * n) + 1e-13
        gaps = [
            relative_entropy(model.mu, it.pi_odd) + relative_entropy(model.eta, it.pi_even)
            for it in iterates
        ]
        for n in range(0, 20, 4):
            lhs = relative_entropy(solution.bridge, iterates[n].joint_even)
            rhs = sum(gaps[n:])
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_linear_decay_bound(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, 5, 7)
        solution = discrete.solve_bridge(model)
        iterates = discrete.run_sinkhorn(model, 50)
        total = relative_entropy(solution.bridge, iterates[0].joint_even)
        for it in iterates:
            gap = relative_entropy(model.eta, it.pi_even) + relative_entropy(
                model.mu, it.pi_odd
            )
            assert (it.step + 1) * gap <= total + 1e-8


class TestGaugeInvariance:
    def test_cost_row_shift_does_not_change_objects(self):
        # Shifts by a function of x alone are absorbed by the Markov row
        # normalization, so every materialized object is unchanged.
        rng = np.random.default_rng(27)
        model = random_model(rng, 4, 5)
        a = rng.uniform(-2.0, 2.0, size=4)
        shifted = discrete.build_model(
            model.cost + a[:, None],
            model.lambda_weights, model.nu_weights,
            model.u_potential, model.v_potential,
        )
        for it, jt in zip(discrete.run_sinkhorn(model, 3), discrete.run_sinkhorn(shifted, 3)):
            np.testing.assert_allclose(it.kernel_even, jt.kernel_even, atol=1e-12)
            np.testing.assert_allclose(it.kernel_odd, jt.kernel_odd, atol=1e-12)
            np.testing.assert_allclose(it.pi_even, jt.pi_even, atol=1e-12)
            np.testing.assert_allclose(it.joint_even, jt.joint_even, atol=1e-12)
            np.testing.assert_allclose(it.joint_odd, jt.joint_odd, atol=1e-12)

    def test_cost_column_shift_keeps_the_limit_bridge(self):
        # A shift by a function of y changes the reference kernel (hence the
        # iterates) but not the solution of the bridge problem.
        rng = np.random.default_rng(29)
        model = random_model(rng, 4, 5)
        b = rng.uniform(-2.0, 2.0, size=5)
        shifted = discrete.build_model(
            model.cost + b[None, :],
            model.lambda_weights, model.nu_weights,
            model.u_potential, model.v_potential,
        )
        first = discrete.solve_bridge(model)
        second = discrete.solve_bridge(shifted)
        np.testing.assert_allclose(first.bridge, second.bridge, atol=1e-11)

    def test_constant_potential_shifts_absorbed(self):
        rng = np.random.default_rng(28)
        model = random_model(rng, 4, 5)
        shifted = discrete.build_model(
            model.cost, model.lambda_weights, model.nu_weights,
            model.u_potential + 3.0, model.v_potential - 3.0,
        )
        np.testing.assert_allclose(shifted.u_potential, model.u_potential, atol=1e-12)
        np.testing.assert_allclose(shifted.mu, model.mu, atol=1e-14)
        np.testing.assert_allclose(shifted.eta, model.eta, atol=1e-14)
