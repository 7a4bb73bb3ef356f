import collections
import dataclasses
import inspect
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import discrete, fitting, harness
from bridgelab.divergences import relative_entropy
from bridgelab.errors import DomainError, NumericalError


def random_model(rng, nx, ny, osc=1.0):
    cost = rng.uniform(0.0, osc, size=(nx, ny))
    lam = rng.uniform(0.5, 1.5, size=nx)
    nu = rng.uniform(0.5, 1.5, size=ny)
    u = rng.uniform(0.0, 1.0, size=nx)
    v = rng.uniform(0.0, 1.0, size=ny)
    return discrete.build_model(cost, lam, nu, u, v)


def check_passes(name, run, solution=None):
    """Whether the harness rule of discrete check ``name`` passes on the rows it builds."""
    check = harness.REGIMES["discrete"].checks[name]
    return check.rule(check.rows(run, solution))[0]


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
        kernel = discrete.run_sinkhorn(model, 0).kernel_even[0]
        for i in range(5):
            expected = np.exp(-((xs[i] - ys) ** 2) / (2 * t)) * nu
            expected /= expected.sum()
            np.testing.assert_allclose(kernel[i], expected, atol=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError, match="^lambda_weights must be finite and strictly positive$"):
            discrete.build_model(np.zeros((2, 2)), np.array([1.0, 0.0]), np.ones(2))
        with pytest.raises(DomainError, match="^cost must be finite$"):
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
        run = discrete.run_sinkhorn(model, 3)
        for n in range(len(run) - 1):
            # U is copied on the even->odd move: K_{2n+1} is the Bayes dual of K_{2n}.
            np.testing.assert_allclose(
                run.kernel_odd[n], discrete.dual_kernel(run.kernel_even[n], model.mu), atol=1e-13)
            # V is copied on the odd->even move: K_{2n+2} is the Bayes dual of K_{2n+1}.
            np.testing.assert_allclose(run.kernel_even[n + 1],
                                       discrete.dual_kernel(run.kernel_odd[n], model.eta),
                                       atol=1e-13)

    def test_stationary_when_already_bridged(self):
        rng = np.random.default_rng(4)
        model = self_bridged_model(rng, 4, 5)
        run = discrete.run_sinkhorn(model, 1)
        assert float(np.max(np.abs(run.u[1] - run.u[0]))) < 1e-12
        assert float(np.max(np.abs(run.v[1] - run.v[0]))) < 1e-12

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
        run = discrete.run_sinkhorn(model, 4)
        for n in range(len(run) - 1):
            expected = run.v[n] - np.log(model.eta / run.pi_even[n])
            np.testing.assert_allclose(run.v[n + 1], expected, atol=1e-12)
            expected_u = run.u[n] - np.log(model.mu / run.pi_odd[n])
            np.testing.assert_allclose(run.u[n + 1], expected_u, atol=1e-12)

    def test_potential_series_and_mean_monotonicity(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 5, 7)
        run = discrete.run_sinkhorn(model, 8)
        acc = np.zeros(model.nx)
        means_u = []
        means_v = []
        for u, v, pi_odd in zip(run.u, run.v, run.pi_odd):
            np.testing.assert_allclose(u - run.u[0], -acc, atol=1e-10)
            acc = acc + np.log(model.mu / pi_odd)
            means_u.append(float(model.mu @ u))
            means_v.append(float(model.eta @ v))
        assert means_v[0] == 0.0
        for a, b in zip(means_v, means_v[1:]):
            assert b <= a + 1e-12
        assert means_u[0] == pytest.approx(float(model.mu @ model.u_potential))
        for a, b in zip(means_u, means_u[1:]):
            assert b <= a + 1e-12


class TestMaterialize:
    def test_run_is_one_read_only_stack_per_field(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, 5)
        run = discrete.run_sinkhorn(model, 4)
        assert len(run) == 5
        shapes = {"u": (5, 3), "v": (5, 5), "kernel_even": (5, 3, 5), "kernel_odd": (5, 5, 3),
                  "pi_even": (5, 5), "pi_odd": (5, 3)}
        for name, shape in shapes.items():
            stack = getattr(run, name)
            assert stack.shape == shape and not stack.flags.writeable, name
        # K_{2n+1} keeps the column-major layout np.exp gives it from log_k.T.
        assert run.kernel_odd[0].flags.f_contiguous and run.kernel_even[0].flags.c_contiguous
        assert run.joint_even(2).shape == run.joint_odd(2).shape == (3, 5)
        with pytest.raises(DomainError, match=r"^pairs must be >= 0, got -1$"):
            discrete.run_sinkhorn(model, -1)

    @pytest.mark.parametrize("pairs, message", [
        (-3, r"^pairs must be >= 0, got -3$"),
        (2.5, r"^pairs must be an int, got 2\.5$"),
        ("4", r"^pairs must be an int, got '4'$"),
    ])
    def test_pair_count_is_validated(self, pairs, message):
        model = random_model(np.random.default_rng(11), 3, 5)
        with pytest.raises(DomainError, match=message):
            discrete.run_sinkhorn(model, pairs)

    # A row is one check for both runs: -1 once read the last pair, and
    # len(run) and 2.5 raised a bare IndexError.
    @pytest.mark.parametrize("n, message", [
        (-1, r"^pair must be >= 0, got -1$"),
        (4, r"^pair 4 is past the run's last row 3$"),
        (2.5, r"^pair must be an int, got 2\.5$"),
        (True, r"^pair must be an int, got True$"),
    ])
    def test_joint_rows_are_validated(self, n, message):
        run = discrete.run_sinkhorn(random_model(np.random.default_rng(11), 3, 5), 3)
        for joint in (run.joint_even, run.joint_odd):
            with pytest.raises(DomainError, match=message):
                joint(n)

    def test_step_zero_kernel_is_reference(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4, 6)
        np.testing.assert_allclose(discrete.run_sinkhorn(model, 0).kernel_even[0],
                                   np.exp(model.log_k + model.log_nu[None, :]), atol=1e-13)

    def test_fixed_point_equations(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 5, 7)
        run = discrete.run_sinkhorn(model, 3)
        for n in range(len(run) - 1):
            np.testing.assert_allclose(run.pi_even[n] @ run.kernel_odd[n], model.mu, atol=1e-12)
            np.testing.assert_allclose(run.pi_odd[n] @ run.kernel_even[n + 1], model.eta,
                                       atol=1e-12)

    def test_uniform_symmetric_model(self):
        model = discrete.build_model(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), np.ones(2)
        )
        run = discrete.run_sinkhorn(model, 3)
        np.testing.assert_allclose(run.pi_even, 0.5, atol=1e-14)
        np.testing.assert_allclose(run.pi_odd, 0.5, atol=1e-14)

    def test_joint_density_product_form(self):
        # P_n factorizes as exp(-U_n) k exp(-V_n) against the base masses.  The
        # odd joint is P_{2n+1} at (U_{2n+1}, V_{2n+1}) = (U_{2n}, V_{2n+2}):
        # U is carried over on the V step, V on the U step.
        rng = np.random.default_rng(30)
        model = random_model(rng, 4, 6)
        run = discrete.run_sinkhorn(model, 4)
        for n in range(len(run) - 1):
            log_even = (
                (model.log_lambda - run.u[n])[:, None]
                + model.log_k
                + (model.log_nu - run.v[n])[None, :]
            )
            np.testing.assert_allclose(run.joint_even(n), np.exp(log_even), atol=1e-13)
            log_odd = (
                (model.log_lambda - run.u[n])[:, None]
                + model.log_k
                + (model.log_nu - run.v[n + 1])[None, :]
            )
            np.testing.assert_allclose(run.joint_odd(n), np.exp(log_odd), atol=1e-13)

    def test_joint_marginals_exact(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 6, 5)
        run = discrete.run_sinkhorn(model, 2)
        for n in range(len(run)):
            np.testing.assert_allclose(run.joint_even(n).sum(axis=1), model.mu, atol=1e-14)
            np.testing.assert_allclose(run.joint_odd(n).sum(axis=0), model.eta, atol=1e-14)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_bad_weight_of_mu_rejected(self, bad):
        # A NaN entry of mu once gave an all-NaN dual kernel.
        k = np.array([[0.2, 0.8], [0.8, 0.2]])
        with pytest.raises(DomainError, match="^mu weights must be finite and nonnegative$"):
            discrete.dual_kernel(k, np.array([0.5, bad]))


class TestEntropyLadder:
    def test_trivial_at_reference(self):
        rng = np.random.default_rng(13)
        model = self_bridged_model(rng, 4, 5)
        run = discrete.run_sinkhorn(model, 3)
        report = discrete.entropy_ladder(run, run.joint_even(0))
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
            run = discrete.run_sinkhorn(model, 30)
            assert check_passes("ladder", run, solution)

    def test_telescoping(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, 4, 6)
        solution = discrete.solve_bridge(model)
        run = discrete.run_sinkhorn(model, 10)
        report = discrete.entropy_ladder(run, solution.bridge)
        for p in range(0, 8, 2):
            for n in range(p + 1, 9):
                lhs = report.rows[p].entropy_to_bridge - report.rows[n].entropy_to_bridge
                rhs = report.rows[n].partial_sum - report.rows[p].partial_sum
                assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_marginal_validation(self):
        rng = np.random.default_rng(16)
        model = random_model(rng, 3, 3)
        run = discrete.run_sinkhorn(model, 1)
        bad = np.outer(model.mu, np.roll(model.eta, 1))
        with pytest.raises(DomainError):
            discrete.entropy_ladder(run, bad)

    @pytest.mark.parametrize("entry", ["nan", "inf", "negative"])
    def test_bad_coupling_entry_rejected(self, entry):
        model = harness.generate_instance("discrete", (4, 5), 0, "bounded")
        run = discrete.run_sinkhorn(model, 3)
        q = discrete.solve_bridge(model).bridge.copy()
        if entry == "negative":
            # A +-t cycle on a 2 x 2 block keeps every row and column sum.
            t = 2.0 * q[0, 0]
            q[:2, :2] += np.array([[-t, t], [t, -t]])
            assert q[0, 0] < 0 and max(discrete.marginal_errors(model, q)) <= discrete.MARGINAL_TOL
        else:
            q[0, 0] = float(entry)
        with pytest.raises(DomainError, match="^coupling entries must be finite and nonnegative"):
            discrete.entropy_ladder(run, q)

    def test_half_step_entropy_decomposition(self):
        # H(Q | P_{2n}) = H(Q | P_{2n+1}) + H(eta | pi_{2n}) and its even twin.
        rng = np.random.default_rng(31)
        model = random_model(rng, 4, 5)
        q = discrete.solve_bridge(model).bridge
        run = discrete.run_sinkhorn(model, 6)
        for n in range(len(run) - 1):
            lhs = relative_entropy(q, run.joint_even(n))
            rhs = relative_entropy(q, run.joint_odd(n)) + relative_entropy(
                model.eta, run.pi_even[n]
            )
            assert lhs == pytest.approx(rhs, abs=1e-11)
            lhs_odd = relative_entropy(q, run.joint_odd(n))
            rhs_odd = relative_entropy(q, run.joint_even(n + 1)) + relative_entropy(
                model.mu, run.pi_odd[n]
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

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        rng = np.random.default_rng(19)
        model = random_model(rng, 6, 6, osc=8.0)
        for cap in (2, 0):
            monkeypatch.setattr(discrete, "MAX_SWEEPS", cap)
            solution = discrete.solve_bridge(model)
            assert not solution.converged
            assert solution.iterations_used == cap

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_resumed_solve_names_the_step_of_the_whole_recursion(self):
        # An eta of mass exp(-1e307) drifts V by 1e307 a sweep, so a
        # potential overflows at the same half step however the solve starts.
        base = harness.generate_instance("discrete", (3, 4), 0, "bounded")
        model = dataclasses.replace(base, v_potential=base.v_potential + 1e307)
        message = "^non-finite potential produced at step 35$"
        with pytest.raises(NumericalError, match=message):
            discrete.run_sinkhorn(model, 40)
        for pairs in (None, 0, 5, 16):
            run = None if pairs is None else discrete.run_sinkhorn(model, pairs)
            with pytest.raises(NumericalError, match=message):
                discrete.solve_bridge(model, run)


class TestIdentitySuite:
    def test_seeded_instance_passes(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, 5, 7)
        run = discrete.run_sinkhorn(model, 6)
        rows = discrete.identity_suite(run)
        assert check_passes("identities", run), rows
        assert {row.name for row in rows} == set(discrete.IDENTITY_NAMES)

    # P_{2n+1} is the I-projection of P_{2n} onto the couplings with Y-marginal
    # eta, and P_{2n+2} that of P_{2n+1} onto those with X-marginal mu: each
    # minimizes KL(R | P) and KL(P | R) over R in its family.  Each R is the
    # engine's projection times exp(spread * Z), Z standard normal, with its
    # slices rescaled to the pinned marginal; at spread 3 it is far from it.
    @settings(max_examples=60, deadline=None)
    @given(profile=st.sampled_from(["bounded", "quadratic-grid"]),
           seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(2, 6), ny=st.integers(2, 6),
           spread=st.sampled_from([1e-6, 1e-3, 0.3, 3.0]))
    def test_each_half_step_is_the_argmin_of_its_family(self, profile, seed, nx, ny, spread):
        model = harness.generate_instance("discrete", (nx, ny), seed, profile)
        run = discrete.run_sinkhorn(model, 1)
        rng = np.random.default_rng(seed)
        h = ref_relative_entropy
        for p, p_proj, pinned_axis, pinned in (
                (run.joint_even(0), run.joint_odd(0), 0, model.eta),
                (run.joint_odd(0), run.joint_even(1), 1, model.mu)):
            for _ in range(4):
                r = p_proj * np.exp(spread * rng.standard_normal(p.shape))
                r *= np.expand_dims(pinned / r.sum(axis=pinned_axis), pinned_axis)
                assert h(r, p) >= h(p_proj, p) - 1e-12
                assert h(p, r) >= h(p, p_proj) - 1e-12

    def test_projection_rows_catch_a_step_that_is_not_the_projection(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 4, 5)
        run = discrete.run_sinkhorn(model, 1)
        names = discrete.IDENTITY_NAMES[-2:]
        exact = discrete._projection_rows(names, 0, run.joint_odd(0), run.joint_even(1), model.eta)
        assert max(row.residual for row in exact) <= harness.IDENTITY_TOL
        # Reversing one slice keeps it in the mu family but breaks proportionality.
        wrong = run.joint_even(1)
        wrong[0] = wrong[0, ::-1]
        rows = discrete._projection_rows(names, 0, run.joint_odd(0), wrong, model.eta)
        assert min(row.residual for row in rows) > 1e-6, rows

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_projection_rows_skip_a_slice_that_underflows(self):
        # A column of P_0 underflows to 0 where P_1 keeps the mass eta(y).
        model = harness.generate_instance("discrete", (2, 2), 8, "bounded", osc_cap=1000.0)
        run = discrete.run_sinkhorn(model, 1)
        assert not np.all(run.joint_even(0).any(axis=0))
        rows = [row for row in discrete.identity_suite(run)
                if row.name in discrete.IDENTITY_NAMES[-4:]]
        assert len(rows) == 4
        assert all(row.residual <= harness.IDENTITY_TOL for row in rows), rows

    def test_needs_two_iterates(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 3, 3)
        with pytest.raises(DomainError):
            discrete.identity_suite(discrete.run_sinkhorn(model, 0))


class TestGeometricRate:
    def test_constant_cost_saturates_immediately(self):
        model = discrete.build_model(np.full((3, 3), 2.5), np.ones(3), np.ones(3))
        assert model.eps_w == pytest.approx(1.0)
        run = discrete.run_sinkhorn(model, 3)
        report = discrete.geometric_rate_report(model, run)
        assert report.bound == pytest.approx(0.0)
        assert all(value < 1e-300 for _, _, value in report.entropies)
        assert harness._rate_ratios(harness._geometric_rows(run, None)) == []

    def test_log_two_oscillation_bound(self):
        rng = np.random.default_rng(23)
        cost = rng.uniform(0.0, 1.0, size=(5, 7))
        cost = (cost - cost.min()) / (cost.max() - cost.min()) * math.log(2.0)
        model = discrete.build_model(
            cost, rng.uniform(0.5, 1.5, 5), rng.uniform(0.5, 1.5, 7),
            rng.uniform(0.0, 1.0, 5), rng.uniform(0.0, 1.0, 7),
        )
        assert model.eps_w == pytest.approx(0.25)
        run = discrete.run_sinkhorn(model, 40)
        report = discrete.geometric_rate_report(model, run)
        assert report.bound == pytest.approx(0.5625)
        # every ratio above the KL floor within the bound, and the sandwich
        assert check_passes("geometric-rate", run)
        slope = 2.0 * math.log(1.0 - model.eps_w)
        assert report.sup_fit.slope <= slope + 0.05 * abs(slope)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, 4, 5, osc=2.0)
        report = discrete.geometric_rate_report(model, discrete.run_sinkhorn(model, 10))
        assert report.sandwich_residual <= harness.IDENTITY_TOL

    def test_each_iterate_scored_once_per_phi(self, monkeypatch):
        rng = np.random.default_rng(25)
        model = random_model(rng, 4, 6)
        run = discrete.run_sinkhorn(model, 8)
        calls = []
        original = discrete.phi_entropy
        expected = [(n, phi.name, original(phi, pi, model.eta))
                    for n, pi in enumerate(run.pi_even) for phi in discrete.RATE_PHIS]

        def counting(phi, mu, eta):
            calls.append((phi.name, len(mu)))
            return original(phi, mu, eta)

        monkeypatch.setattr(discrete, "phi_entropy", counting)
        # One stacked call per phi over every iterate of the run.
        report = discrete.geometric_rate_report(model, run)
        assert calls == [(phi.name, len(run)) for phi in discrete.RATE_PHIS]
        assert list(report.entropies) == expected


class TestConvergenceSeries:
    def test_potential_convergence_rate_and_series_expansion(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, 5, 7, osc=1.0)
        solution = discrete.solve_bridge(model)
        run = discrete.run_sinkhorn(model, 60)
        decay = 1.0 - model.eps_w
        errors = [float(np.max(np.abs(v - solution.v))) for v in run.v]
        # fit the constant on the first few steps, then demand domination
        c = max(errors[n] / decay ** (2 * n) for n in range(5)) * (1.0 + 1e-9)
        for n, err in enumerate(errors):
            assert err <= c * decay ** (2 * n) + 1e-13
        gaps = [
            relative_entropy(model.mu, pi_odd) + relative_entropy(model.eta, pi_even)
            for pi_even, pi_odd in zip(run.pi_even, run.pi_odd)
        ]
        for n in range(0, 20, 4):
            lhs = relative_entropy(solution.bridge, run.joint_even(n))
            rhs = sum(gaps[n:])
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_linear_decay_bound(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, 5, 7)
        solution = discrete.solve_bridge(model)
        run = discrete.run_sinkhorn(model, 50)
        total = relative_entropy(solution.bridge, run.joint_even(0))
        for n in range(len(run)):
            gap = relative_entropy(model.eta, run.pi_even[n]) + relative_entropy(
                model.mu, run.pi_odd[n]
            )
            assert (n + 1) * gap <= total + 1e-8


class TestRunRecordsItsModel:
    """A run carries its model, so no reader pairs a run with another model's measures."""

    def models(self, *sizes):
        return [harness.generate_instance("discrete", size, seed, "bounded")
                for seed, size in enumerate(sizes)]

    def test_readers_take_mu_and_eta_from_the_run(self):
        # Given another 4x5 model, identity_suite once read a worst residual of 1.04.
        m1, m2 = self.models((4, 5), (4, 5))
        run = discrete.run_sinkhorn(m1, 6)
        assert run.model is m1
        for reader in (discrete.identity_suite, discrete.marginal_gaps, discrete.entropy_ladder):
            assert "model" not in inspect.signature(reader).parameters, reader
        assert max(row.residual for row in discrete.identity_suite(run)) <= harness.IDENTITY_TOL

    def test_bridge_solve_rejects_another_models_run(self):
        # m1's bridge, solved from m1's run, is far from m2's marginals: a
        # solve that took the pair would report it as m2's, converged.
        m1, m2 = self.models((4, 5), (4, 5))
        run = discrete.run_sinkhorn(m1, 30)
        assert max(discrete.marginal_errors(m2, discrete.solve_bridge(m1, run).bridge)) > 0.1
        with pytest.raises(DomainError, match="^the run was run on another model$"):
            discrete.solve_bridge(m2, run)
        # An equal model decoded afresh is another object: the run is not its run.
        with pytest.raises(DomainError, match="^the run was run on another model$"):
            discrete.solve_bridge(discrete.model_from_json(discrete.model_to_json(m1)), run)

    def test_rate_report_rejects_another_models_run(self):
        m1, m2 = self.models((4, 5), (3, 5))
        with pytest.raises(DomainError, match="^the run was run on another model$"):
            discrete.geometric_rate_report(m2, discrete.run_sinkhorn(m1, 4))


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
        run, shifted_run = discrete.run_sinkhorn(model, 3), discrete.run_sinkhorn(shifted, 3)
        for name in ("kernel_even", "kernel_odd", "pi_even"):
            np.testing.assert_allclose(getattr(run, name), getattr(shifted_run, name), atol=1e-12)
        for n in range(len(run)):
            np.testing.assert_allclose(run.joint_even(n), shifted_run.joint_even(n), atol=1e-12)
            np.testing.assert_allclose(run.joint_odd(n), shifted_run.joint_odd(n), atol=1e-12)

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
# diagnostics, compared with == on the IEEE bytes of every float.  The
# copies run on the copied engine's list of per-pair iterates.
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


RefIterate = collections.namedtuple(
    "RefIterate", "step u v kernel_even kernel_odd pi_even pi_odd joint_even joint_odd")


def ref_iterate(model, n, u, v):
    kernel_even = ref_stochastic(model.log_k, model.log_nu, v)
    kernel_odd = ref_stochastic(model.log_k.T, model.log_lambda, u)
    return RefIterate(n, u, v, kernel_even, kernel_odd,
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


def ref_solve_bridge(model, max_sweeps, tol):
    u, v = model.u_potential.copy(), np.zeros(model.ny)
    converged = ref_system_residual(model, u, v) <= tol
    sweeps = 0
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        u_next, v_next = ref_sweep(model, u, v)
        delta = max(float(np.max(np.abs(u_next - u))), float(np.max(np.abs(v_next - v))))
        u, v = u_next, v_next
        converged = delta <= tol or ref_system_residual(model, u, v) <= tol
    bridge = model.mu[:, None] * ref_stochastic(model.log_k, model.log_nu, v)
    return (u, v, bridge, sweeps, ref_system_residual(model, u, v), converged)


def ref_kl_terms(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log(p / q), 0.0)


def ref_relative_entropy(p, q):
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    return float(np.sum(ref_kl_terms(p, q)))


REF_PHIS = {
    "kl": ref_kl_terms,
    "tv": lambda u, v: np.abs(u - v) / 2.0,
    "hellinger-sq": lambda u, v: np.square(np.sqrt(u) - np.sqrt(v)),
}


def ref_phi_entropy(name, mu1, mu2):
    w1 = np.asarray(mu1, dtype=float).reshape(-1)
    w2 = np.asarray(mu2, dtype=float).reshape(-1)
    return float(np.sum(REF_PHIS[name](w1 / w1.sum(), w2 / w2.sum())))


def ref_close_row(name, index, lhs, rhs):
    scale = max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    residual = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return discrete.CheckRow(name, index, residual / scale)


def ref_chain_row(name, index, chain):
    worst = 0.0
    for lo, hi in zip(chain, chain[1:]):
        worst = max(worst, lo - hi)
    return discrete.CheckRow(name, index, max(worst, 0.0))


def ref_projection_rows(names, index, p, p_proj, weights):
    """The I-projection identity rows of ``p`` -> ``p_proj``, one slice (row) at a time."""
    slices = []  # (p_s, p'_s, r_hat_s, r_s) on the common support, for slices with mass
    for p_s, q_s in zip(p, p_proj):
        support = (p_s > 0.0) & (q_s * weights > 0.0)
        if not support.any():
            continue
        p_s, q_s = np.where(support, p_s, 0.0), np.where(support, q_s, 0.0)
        tilted = q_s * weights
        r_hat = tilted / np.sum(tilted)
        slices.append((p_s, q_s, r_hat, np.sum(q_s) * r_hat))
    p, q, _, r = (np.array(part) for part in zip(*slices))
    h = ref_relative_entropy
    chain = np.sum(np.array([np.sum(p_s) * h(p_s / np.sum(p_s), r_hat)
                             for p_s, _, r_hat, _ in slices]))
    rows = []
    for name, (lhs, a, b) in zip(names, ((h(r, p), h(r, q), h(q, p)),
                                         (h(p, r), h(p, q), float(chain)))):
        scale = max(1.0, abs(lhs), abs(a), abs(b))
        rows.append(discrete.CheckRow(name, index, abs(lhs - (a + b)) / scale))
    return rows


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
                          prev.kernel_odd @ (it.kernel_even @ (prev.pi_even / eta)),
                          it.pi_even / eta),
            ref_close_row("semigroup-odd", l,
                          it.kernel_even @ (it.kernel_odd @ (prev.pi_odd / mu)),
                          it.pi_odd / mu),
        ]
    it, nxt = iterates[0], iterates[1]
    rows += ref_projection_rows(["projection-eta-pythagorean", "projection-eta-chain-rule"],
                                it.step, it.joint_even.T, it.joint_odd.T, mu)
    rows += ref_projection_rows(["projection-mu-pythagorean", "projection-mu-chain-rule"],
                                it.step, it.joint_odd, nxt.joint_even, eta)
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
    entropies = tuple((it.step, phi.name, ref_phi_entropy(phi.name, it.pi_even, model.eta))
                      for it in iterates for phi in discrete.RATE_PHIS)
    sup_series = tuple(
        (it.step, float(np.max(np.abs(it.pi_even / model.eta - 1.0)))) for it in iterates)
    sandwich = 0.0
    for it in iterates[1:]:
        sandwich = max(sandwich, float(np.max(eps_w * model.eta - it.pi_even, initial=0.0)))
        if eps_w > 0.0:
            sandwich = max(sandwich, float(np.max(it.pi_even - model.eta / eps_w, initial=0.0)))
    return discrete.DiscreteRateReport(eps_w, bound, entropies, sup_series,
                                       fitting.fit_rate(sup_series), sandwich)


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
    # KLs take the infinite and the 0 log 0 paths.
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


def assert_engine_equals_reference(model, pairs):
    run = discrete.run_sinkhorn(model, pairs)
    iterates = ref_run_sinkhorn(model, pairs)
    assert bits([(n, run.u[n], run.v[n], run.kernel_even[n], run.kernel_odd[n], run.pi_even[n],
                  run.pi_odd[n], run.joint_even(n), run.joint_odd(n))
                 for n in range(len(run))]) == bits(iterates)
    solved = lambda s: bits((s.u, s.v, s.bridge, s.iterations_used, s.residual, s.converged))
    solution = discrete.solve_bridge(model)
    expected = bits(ref_solve_bridge(model, discrete.MAX_SWEEPS, discrete.POTENTIAL_TOL))
    assert solved(solution) == expected
    # The solve continues any run: the run under test, and runs that end at
    # the start, inside the solve, at the sweep where it stops and past it.
    sweeps = solution.iterations_used
    for p in {pairs, 0, 1, max(sweeps - 1, 0), sweeps, sweeps + 1}:
        assert solved(discrete.solve_bridge(model, discrete.run_sinkhorn(model, p))) == expected, p
    # A run longer than the sweep cap: the solve stops at the cap inside it.
    cap = sweeps // 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrete, "MAX_SWEEPS", cap)
        assert solved(discrete.solve_bridge(model, discrete.run_sinkhorn(model, cap + 2))) == bits(
            ref_solve_bridge(model, cap, discrete.POTENTIAL_TOL))
    assert bits(discrete.identity_suite(run)) == bits(
        ref_identity_rows(model, iterates))
    for q in (solution.bridge, np.outer(model.mu, model.eta),
              northwest_corner(model.mu, model.eta)):
        assert outcome(lambda: discrete.entropy_ladder(run, q)) == outcome(
            lambda: ref_ladder(model, iterates, q))
    assert bits(discrete.geometric_rate_report(model, run)) == bits(
        ref_rate_report(model, iterates))
    rows = harness._linear_decay_rows(run, solution)
    assert bits((rows, harness.Verdict("linear-decay", *harness._linear_decay_rule(rows)))) == bits(
        ref_linear_decay(model, iterates, solution.bridge))


class TestStackedOracle:
    # Underflowed marginals divide by zero in the identity ratios, in the
    # per-iterate code as in the stacked code.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(profile=st.sampled_from(ORACLE_PROFILES), seed=st.integers(0, 2 ** 32 - 1),
           nx=st.integers(1, 9), ny=st.integers(1, 9), pairs=st.integers(1, 12))
    def test_engine_and_diagnostics_equal_per_iterate_code(self, profile, seed, nx, ny, pairs):
        name, params = profile
        if name == "bounded" and nx * ny < 2:
            ny = 2
        model = harness.generate_instance("discrete", (nx, ny), seed, name, **params)
        with pytest.MonkeyPatch.context() as mp:
            if params:
                mp.setattr(discrete, "MAX_SWEEPS", 300)
            assert_engine_equals_reference(model, pairs)

    # The 64x3 run has 141 pairs, so a stack of its 64-wide marginals is
    # larger than one 64 KB chunk (matcore.CHUNK_ELEMENTS floats).
    @pytest.mark.parametrize("name, params, size", [
        ("quadratic-grid", {"t": 0.05}, (64, 64)),
        ("bounded", {"osc_cap": 5.0}, (64, 64)),
        ("bounded", {"osc_cap": 400.0}, (16, 16)),
        ("bounded", {}, (3, 4)),
        ("bounded", {}, (64, 3)),
    ])
    def test_reference_sizes_equal_per_iterate_code(self, name, params, size, monkeypatch):
        model = harness.generate_instance("discrete", size, 3, name, **params)
        monkeypatch.setattr(discrete, "MAX_SWEEPS", 300)
        assert_engine_equals_reference(model, 140 if size == (64, 3) else 30)

    # Each profile once at a fixed instance, so the capped (osc_cap 400) and
    # underflowing (osc_cap 2000) bridge solves always run.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, params", ORACLE_PROFILES)
    def test_each_profile_equals_per_iterate_code(self, name, params, monkeypatch):
        model = harness.generate_instance("discrete", (6, 7), 5, name, **params)
        monkeypatch.setattr(discrete, "MAX_SWEEPS", 300)
        assert_engine_equals_reference(model, 8)
        if params.get("osc_cap") == 400.0:
            assert discrete.solve_bridge(model).iterations_used == discrete.MAX_SWEEPS

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
        run = discrete.run_sinkhorn(model, 6)
        assert np.max(model.eps_w * model.eta - run.pi_even[0]) > 1e-3
        report = discrete.geometric_rate_report(model, run)
        assert report.sandwich_residual <= harness.IDENTITY_TOL
        assert bits(report) == bits(ref_rate_report(model, ref_run_sinkhorn(model, 6)))
