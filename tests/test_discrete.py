import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import discrete, fitting, harness, matcore
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

    def test_each_iterate_scored_once_per_phi(self, monkeypatch):
        rng = np.random.default_rng(25)
        model = random_model(rng, 4, 6)
        iterates = discrete.run_sinkhorn(model, 8)
        calls = []
        original = discrete.phi_entropy
        expected = [
            (it.step, phi.name, original(phi, it.pi_even, model.eta),
             original(phi, nxt.pi_even, model.eta))
            for it, nxt in zip(iterates, iterates[1:]) for phi in discrete.RATE_PHIS
        ]

        def counting(phi, mu, eta):
            calls.append((phi.name, len(mu)))
            return original(phi, mu, eta)

        monkeypatch.setattr(discrete, "phi_entropy", counting)
        # One stacked call per phi per chunk, each chunk's iterates scored once:
        # budgets of 1, 4 and 9 iterates per chunk, and the default (one chunk).
        for per_chunk in (1, 4, 9, None):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                if per_chunk is not None:
                    mp.setattr(matcore, "CHUNK_ELEMENTS", per_chunk * max(model.nx, model.ny))
                report = discrete.geometric_rate_report(model, iterates)
            size = per_chunk or len(iterates)
            chunks = [len(iterates[i:i + size]) for i in range(0, len(iterates), size)]
            assert calls == [(phi.name, n) for n in chunks for phi in discrete.RATE_PHIS]
            assert [(r.n, r.phi_name, r.value, r.value_next)
                    for r in report.ratio_rows] == expected


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


# --------------------------------------------------------------------------
# Bit-identity oracles: in-test copies of the per-iterate engine and
# diagnostics, compared with == on the IEEE bytes of every float.
# --------------------------------------------------------------------------


def bits(x):
    """``x`` with each scalar tagged by its type and each float by its IEEE bytes."""
    if isinstance(x, np.ndarray):
        return (x.shape, x.dtype.str, x.tobytes())
    if isinstance(x, float):
        return (type(x), struct.pack("<d", x))
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return (type(x), x)


def outcome(fn):
    """``bits(fn())``, or the message of the DomainError it raises."""
    try:
        return bits(fn())
    except DomainError as exc:
        return ("DomainError", str(exc))


def ref_logsumexp(a, axis):
    amax = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax, axis=axis)


def ref_k_log_integral(model, v):
    return ref_logsumexp(model.log_k + (model.log_nu - v)[None, :], axis=1)


def ref_kflat_log_integral(model, u):
    return ref_logsumexp(model.log_k + (model.log_lambda - u)[:, None], axis=0)


def ref_stochastic(log_k, log_w, pot):
    log_p = log_k + (log_w - pot)[None, :]
    return np.exp(log_p - ref_logsumexp(log_p, axis=1)[:, None])


def ref_sweep(model, u, v):
    v = model.v_potential + ref_kflat_log_integral(model, u)
    return model.u_potential + ref_k_log_integral(model, v), v


def ref_iterate(model, n, u, v):
    kernel_even = ref_stochastic(model.log_k, model.log_nu, v)
    kernel_odd = ref_stochastic(model.log_k.T, model.log_lambda, u)
    return (n, (2 * n, u, v), kernel_even, kernel_odd,
            model.mu @ kernel_even, model.eta @ kernel_odd,
            model.mu[:, None] * kernel_even, (model.eta[:, None] * kernel_odd).T)


def ref_run_sinkhorn(model, pairs):
    u, v = model.u_potential.copy(), np.zeros(model.ny)
    iterates = [ref_iterate(model, 0, u, v)]
    for n in range(1, pairs + 1):
        u, v = ref_sweep(model, u, v)
        iterates.append(ref_iterate(model, n, u, v))
    return iterates


def ref_system_residual(model, u, v):
    u_fix = model.u_potential + ref_k_log_integral(model, v) - u
    v_fix = model.v_potential + ref_kflat_log_integral(model, u) - v
    return max(float(np.max(np.abs(u_fix))), float(np.max(np.abs(v_fix))))


def ref_solve_bridge(model, stop):
    u, v = model.u_potential.copy(), np.zeros(model.ny)
    converged = ref_system_residual(model, u, v) <= stop.potential_tol
    sweeps = 0
    while not converged and sweeps < stop.max_sweeps:
        sweeps += 1
        u_next, v_next = ref_sweep(model, u, v)
        delta = max(float(np.max(np.abs(u_next - u))), float(np.max(np.abs(v_next - v))))
        u, v = u_next, v_next
        converged = delta <= stop.potential_tol or (
            ref_system_residual(model, u, v) <= stop.potential_tol)
    bridge = model.mu[:, None] * ref_stochastic(model.log_k, model.log_nu, v)
    return (u, v, bridge, sweeps, ref_system_residual(model, u, v), converged)


def ref_relative_entropy(p, q):
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    pos = p > 0
    if np.any(q[pos] == 0):
        return math.inf
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


REF_PHIS = {
    "kl": lambda u, v: 0.0 if u == 0.0 else (math.inf if v == 0.0 else u * math.log(u / v)),
    "tv": lambda u, v: abs(u - v) / 2.0,
    "hellinger-sq": lambda u, v: (math.sqrt(u) - math.sqrt(v)) ** 2,
    "chi-square": lambda u, v: ((0.0 if u == 0.0 else math.inf) if v == 0.0
                                else (u - v) ** 2 / v),
}


def ref_phi_entropy(name, mu1, mu2):
    w1 = np.asarray(mu1, dtype=float).reshape(-1)
    w2 = np.asarray(mu2, dtype=float).reshape(-1)
    total = 0.0
    for u, v in zip(w1 / float(w1.sum()), w2 / float(w2.sum())):
        term = REF_PHIS[name](float(u), float(v))
        if math.isinf(term):
            return math.inf
        total += term
    return total


def ref_close_row(name, index, lhs, rhs, tol=discrete.IDENTITY_TOL):
    scale = max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    residual = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return discrete.CheckRow(name, index, residual <= tol * scale, residual)


def ref_chain_row(name, index, chain, tol=discrete.IDENTITY_TOL):
    worst = 0.0
    for lo, hi in zip(chain, chain[1:]):
        worst = max(worst, lo - hi)
    return discrete.CheckRow(name, index, worst <= tol, max(worst, 0.0))


def ref_identity_rows(model, iterates):
    mu, eta, h = model.mu, model.eta, ref_relative_entropy
    rows = []
    for it, nxt in zip(iterates, iterates[1:]):
        n = it.step
        rows += [
            ref_chain_row("monotone-eta-chain", n,
                          [h(eta, nxt.pi_even), h(it.pi_odd, mu), h(eta, it.pi_even)]),
            ref_chain_row("monotone-mu-chain", n,
                          [h(nxt.pi_even, eta), h(mu, it.pi_odd), h(it.pi_even, eta)]),
            ref_close_row("commute-even-forward", n,
                          it.kernel_even @ (eta / it.pi_even), it.pi_odd / mu),
            ref_close_row("commute-even-backward", n,
                          nxt.kernel_even @ (it.pi_even / eta), mu / it.pi_odd),
            ref_close_row("fixed-point-mu", n, it.pi_even @ it.kernel_odd, mu),
            ref_close_row("fixed-point-eta", n, it.pi_odd @ nxt.kernel_even, eta),
            ref_close_row("joint-marginal-even", n, it.joint_even.sum(axis=1), mu),
            ref_close_row("joint-marginal-odd", n, it.joint_odd.sum(axis=0), eta),
        ]
    for prev, it in zip(iterates, iterates[1:]):
        l = it.step
        rows += [
            ref_close_row("commute-odd-forward", l,
                          prev.kernel_odd @ (mu / prev.pi_odd), it.pi_even / eta),
            ref_close_row("commute-odd-backward", l,
                          it.kernel_odd @ (prev.pi_odd / mu), eta / it.pi_even),
            ref_close_row("semigroup-even", l,
                          (prev.kernel_odd @ it.kernel_even) @ (prev.pi_even / eta),
                          it.pi_even / eta),
            ref_close_row("semigroup-odd", l,
                          (it.kernel_even @ it.kernel_odd) @ (prev.pi_odd / mu),
                          it.pi_odd / mu),
        ]
    if model.nx <= 4 and model.ny <= 4:
        it, nxt = iterates[0], iterates[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discrete, "relative_entropy", ref_relative_entropy)
            rows += discrete._half_bridge_rows(
                "half-bridge-odd", it.step, it.joint_even, it.joint_odd, eta, axis=1)
            rows += discrete._half_bridge_rows(
                "half-bridge-even", it.step, it.joint_odd, nxt.joint_even, mu, axis=0)
    return rows


def ref_ladder(model, iterates, q):
    q = np.asarray(q, dtype=float)
    if (float(np.max(np.abs(q.sum(axis=1) - model.mu))) > discrete.MARGINAL_TOL
            or float(np.max(np.abs(q.sum(axis=0) - model.eta))) > discrete.MARGINAL_TOL):
        raise DomainError("coupling marginals do not match (mu, eta)")
    total = ref_relative_entropy(q, iterates[0].joint_even)
    rows = []
    partial = 0.0
    for it in iterates:
        h_q = ref_relative_entropy(q, it.joint_even)
        gap_eta = ref_relative_entropy(model.eta, it.pi_even)
        gap_mu = ref_relative_entropy(model.mu, it.pi_odd)
        if math.isinf(total) or math.isinf(h_q):
            residual = math.nan
        else:
            residual = abs(total - h_q - partial)
        rows.append(discrete.LadderRow(it.step, h_q, gap_eta, gap_mu, partial, residual))
        partial += gap_eta + gap_mu
    return discrete.LadderReport(total=total, rows=tuple(rows))


def ref_rate_report(model, iterates):
    eps_w = model.eps_w
    bound = (1.0 - eps_w) ** 2
    values = [[ref_phi_entropy(phi.name, it.pi_even, model.eta) for phi in discrete.RATE_PHIS]
              for it in iterates]
    ratio_rows = []
    for it, row, row_next in zip(iterates, values, values[1:]):
        for phi, value, value_next in zip(discrete.RATE_PHIS, row, row_next):
            saturated = value < discrete.SATURATION_GUARD
            ratio = math.nan if saturated else value_next / value
            within = True if saturated else ratio <= bound + 1e-10
            ratio_rows.append(discrete.RatioRow(it.step, phi.name, value, value_next, ratio,
                                                saturated, within))
    sup_series = tuple(
        (it.step, float(np.max(np.abs(it.pi_even / model.eta - 1.0)))) for it in iterates)
    sup_fit = fitting.fit_rate(sup_series)
    slope = 2.0 * math.log(1.0 - eps_w) if eps_w < 1.0 else -math.inf
    slope_within = None
    if sup_fit is not None and math.isfinite(slope):
        slope_within = sup_fit.slope <= slope + 0.05 * abs(slope)
    sandwich = 0.0
    for it in iterates[1:]:
        sandwich = max(sandwich, float(np.max(eps_w * model.eta - it.pi_even, initial=0.0)))
        if eps_w > 0.0:
            sandwich = max(sandwich, float(np.max(it.pi_even - model.eta / eps_w, initial=0.0)))
    return discrete.DiscreteRateReport(eps_w, bound, tuple(ratio_rows), sup_series, sup_fit,
                                       slope, slope_within, sandwich <= discrete.IDENTITY_TOL,
                                       sandwich)


def ref_linear_decay(model, iterates, bridge):
    total = ref_relative_entropy(bridge, iterates[0].joint_even)
    rows = []
    worst = -math.inf
    for it in iterates:
        gap = ref_relative_entropy(model.eta, it.pi_even) + ref_relative_entropy(
            model.mu, it.pi_odd)
        lhs = (it.step + 1) * gap
        rows.append((it.step, "linear_decay_lhs", lhs))
        worst = max(worst, lhs - total)
    rows.append((0, "bridge_entropy_total", total))
    return rows, harness.Verdict("linear-decay", worst <= 1e-8, worst)


ORACLE_PROFILES = [
    ("bounded", {}),
    ("quadratic-grid", {}),
    # A bridge solve that stops at max_sweeps without converging.
    ("bounded", {"osc_cap": 400.0}),
    # exp underflows: kernels and joints hold exact zeros, so the ladder's
    # KLs take the infinite and the compacted paths.
    ("bounded", {"osc_cap": 2000.0}),
]


def northwest_corner(mu, eta):
    """A coupling of (mu, eta) with zeros: the transport simplex's first basis."""
    plan = np.zeros((mu.size, eta.size))
    row, col = mu.copy(), eta.copy()
    i = j = 0
    while i < mu.size and j < eta.size:
        mass = min(row[i], col[j])
        plan[i, j] = mass
        row[i] -= mass
        col[j] -= mass
        if row[i] <= col[j]:
            i += 1
        else:
            j += 1
    return plan


def assert_engine_equals_reference(model, pairs, stop):
    iterates = discrete.run_sinkhorn(model, pairs)
    assert bits([(it.step, (it.potentials.step, it.potentials.u, it.potentials.v),
                  it.kernel_even, it.kernel_odd, it.pi_even, it.pi_odd,
                  it.joint_even, it.joint_odd) for it in iterates]) == bits(
        ref_run_sinkhorn(model, pairs))
    solution = discrete.solve_bridge(model, stop)
    assert bits((solution.u, solution.v, solution.bridge, solution.iterations_used,
                 solution.residual, solution.converged)) == bits(ref_solve_bridge(model, stop))
    assert bits(discrete.identity_suite(model, iterates).rows) == bits(
        ref_identity_rows(model, iterates))
    for q in (solution.bridge, np.outer(model.mu, model.eta),
              northwest_corner(model.mu, model.eta)):
        assert outcome(lambda: discrete.entropy_ladder(model, iterates, q)) == outcome(
            lambda: ref_ladder(model, iterates, q))
    assert bits(discrete.geometric_rate_report(model, iterates)) == bits(
        ref_rate_report(model, iterates))
    assert bits(harness._check_linear_decay(model, iterates, solution)) == bits(
        ref_linear_decay(model, iterates, solution.bridge))


class TestStackedOracle:
    # Underflowed marginals divide by zero in the identity ratios, in the
    # per-iterate code as in the stacked code.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(profile=st.sampled_from(ORACLE_PROFILES), seed=st.integers(0, 2 ** 32 - 1),
           nx=st.integers(1, 9), ny=st.integers(1, 9), pairs=st.integers(1, 12),
           per_chunk=st.sampled_from([1, 2, 5, None]))
    def test_engine_and_diagnostics_equal_per_iterate_code(self, profile, seed, nx, ny, pairs,
                                                           per_chunk):
        name, params = profile
        if name == "bounded" and nx * ny < 2:
            ny = 2
        model = harness.generate_instance("discrete", (nx, ny), seed, name, **params)
        stop = discrete.StoppingRule(max_sweeps=300) if params else discrete.StoppingRule()
        with pytest.MonkeyPatch.context() as mp:
            if per_chunk is not None:
                mp.setattr(matcore, "CHUNK_ELEMENTS", per_chunk * max(nx, ny))
            assert_engine_equals_reference(model, pairs, stop)

    @pytest.mark.parametrize("name, params, size", [
        ("quadratic-grid", {"t": 0.05}, (64, 64)),
        ("bounded", {"osc_cap": 5.0}, (64, 64)),
        ("bounded", {"osc_cap": 400.0}, (16, 16)),
        ("bounded", {}, (3, 4)),
    ])
    def test_reference_sizes_equal_per_iterate_code(self, name, params, size):
        model = harness.generate_instance("discrete", size, 3, name, **params)
        stop = discrete.StoppingRule(max_sweeps=300)
        assert_engine_equals_reference(model, 30, stop)

    def test_half_step_and_materialize_equal_per_iterate_code(self):
        model = harness.generate_instance("discrete", (6, 5), 4, "bounded", osc_cap=3.0)
        pot = discrete.initial_potentials(model)
        u, v = pot.u, pot.v
        for n in range(1, 5):
            pot = discrete.sweep(model, pot)
            u, v = ref_sweep(model, u, v)
            assert bits((pot.u, pot.v)) == bits((u, v))
            it = discrete.materialize(model, pot)
            assert bits((it.kernel_even, it.kernel_odd, it.joint_odd)) == bits(
                ref_iterate(model, n, u, v)[2:4] + ref_iterate(model, n, u, v)[7:])
            assert discrete.system_residual(model, pot.u, pot.v) == ref_system_residual(
                model, u, v)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_helpers_treat_nan_and_inf_as_python_max_does(self):
        inf, nan = math.inf, math.nan
        chains = [[inf, inf, 1.0], [2.0, inf, inf], [1.0, nan, 0.5], [0.0, -0.0, 0.0],
                  [3.0, 1.0, 2.0], [inf, 1.0, 0.0]]
        rows = discrete._chain_rows("chain", range(len(chains)), [list(c) for c in zip(*chains)])
        assert bits(rows) == bits([ref_chain_row("chain", i, c) for i, c in enumerate(chains)])
        lhs = np.array([[1.0, 2.0], [nan, 1.0], [inf, 1.0], [0.5, 0.5], [3.0, -3.0]])
        rhs = np.array([[1.0, 2.0 + 1e-12], [1.0, 1.0], [inf, 1.0], [nan, 0.5], [3.0, -3.0]])
        rows = discrete._close_rows("close", range(len(lhs)), list(lhs), rhs)
        assert bits(rows) == bits(
            [ref_close_row("close", i, a, b) for i, (a, b) in enumerate(zip(lhs, rhs))])

    def test_sandwich_is_checked_from_step_one(self):
        # A target far from mu K breaks the sandwich at n = 0 only.
        rng = np.random.default_rng(30)
        base = random_model(rng, 5, 6, osc=0.5)
        model = discrete.build_model(base.cost, base.lambda_weights, base.nu_weights,
                                     base.u_potential, np.linspace(0.0, 12.0, 6))
        iterates = discrete.run_sinkhorn(model, 6)
        first = iterates[0].pi_even
        assert np.max(model.eps_w * model.eta - first) > 1e-3
        report = discrete.geometric_rate_report(model, iterates)
        assert report.sandwich_ok
        assert bits(report) == bits(ref_rate_report(model, iterates))
