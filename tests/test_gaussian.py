import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import gaussian as gs
from bridgelab import matcore
from bridgelab.divergences import Gaussian, _gaussian_w2, gaussian_kl
from bridgelab.errors import DomainError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_spd(rng, d, lo=0.1, hi=1.2):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(lo, hi, size=d)) @ q.T


def random_instance(rng, d):
    def invertible():
        m = rng.normal(size=(d, d))
        u, s, vt = np.linalg.svd(m)
        return (u * np.clip(s, 0.3, None)) @ vt

    return gs.GaussianInstance(
        mu=Gaussian(rng.normal(size=d), random_spd(rng, d)),
        eta=Gaussian(rng.normal(size=d), random_spd(rng, d)),
        kernel=gs.LinearGaussianKernel(rng.normal(size=d), invertible(), random_spd(rng, d)),
    )


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Names of the ``np.linalg`` eigen-solvers called, in call order."""
    calls = []

    def counting(name, original):
        def wrapper(a):
            calls.append(name)
            return original(a)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def riccati_iterates(problem, v0, count):
    """v0 and its first ``count`` images under ``riccati_apply``."""
    out = [matcore.symmetrize(v0)]
    for _ in range(count):
        out.append(gs.riccati_apply(problem, out[-1]))
    return out


def self_bridged_instance(rng, d):
    inst = random_instance(rng, d)
    return gs.GaussianInstance(
        mu=inst.mu, eta=gs.push_forward(inst.mu, inst.kernel), kernel=inst.kernel
    )


def scalar_instance(m=0.0, sigma=1.0, m_bar=0.0, sigma_bar=1.0, alpha=0.0, beta=1.0, tau=1.0):
    return gs.GaussianInstance(
        mu=Gaussian(np.array([m]), np.array([[sigma]])),
        eta=Gaussian(np.array([m_bar]), np.array([[sigma_bar]])),
        kernel=gs.LinearGaussianKernel(np.array([alpha]), np.array([[beta]]), np.array([[tau]])),
    )


class TestPushForward:
    def test_identity_map(self):
        rng = np.random.default_rng(0)
        mu = Gaussian(np.array([1.0, 2.0]), random_spd(rng, 2))
        kernel = gs.LinearGaussianKernel(np.zeros(2), np.eye(2), np.eye(2))
        out = gs.push_forward(mu, kernel)
        np.testing.assert_allclose(out.mean, mu.mean)
        np.testing.assert_allclose(out.covariance, mu.covariance + np.eye(2))

    def test_scalar_arithmetic(self):
        inst = scalar_instance(m=1.0, sigma=2.0, alpha=0.5, beta=3.0, tau=4.0)
        out = gs.push_forward(inst.mu, inst.kernel)
        assert out.mean[0] == pytest.approx(3.5)
        assert out.covariance[0, 0] == pytest.approx(22.0)

    def test_dimension_mismatch(self):
        mu = Gaussian(np.zeros(2), np.eye(2))
        kernel = gs.LinearGaussianKernel(np.zeros(3), np.eye(3), np.eye(3))
        with pytest.raises(DomainError):
            gs.push_forward(mu, kernel)


class TestKernelChi:
    def test_computed_once_and_read_only(self, monkeypatch):
        kernel = random_instance(np.random.default_rng(3), 3).kernel
        calls = []
        original = matcore.spd_inverse

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(matcore, "spd_inverse", counting)
        chi = kernel.chi
        assert kernel.chi is chi and len(calls) == 1
        assert not chi.flags.writeable
        assert chi.tobytes() == (original(kernel.tau) @ kernel.beta).tobytes()

    def test_noise_is_built_once_and_read_only(self):
        kernel = random_instance(np.random.default_rng(4), 3).kernel
        noise = kernel.noise
        assert kernel.noise is noise
        assert noise.mean.tobytes() == np.zeros(3).tobytes()
        assert noise.covariance.tobytes() == kernel.tau.tobytes()
        assert not noise.covariance.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.noise = noise


class TestConjugateKernel:
    def test_unit_parameters(self):
        inst = scalar_instance()
        dual = gs.conjugate_kernel(inst.mu, inst.kernel)
        assert dual.tau[0, 0] == pytest.approx(0.5)
        assert dual.beta[0, 0] == pytest.approx(0.5)

    def test_bayes_duality_of_joints(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            dual = gs.conjugate_kernel(inst.mu, inst.kernel)
            pushed = gs.push_forward(inst.mu, inst.kernel)
            joint = gs.affine_joint(inst.mu, inst.kernel.alpha, inst.kernel.beta, inst.kernel.tau)
            dual_joint = gs.affine_joint(pushed, dual.alpha, dual.beta, dual.tau)
            perm = np.concatenate([np.arange(d, 2 * d), np.arange(d)])
            np.testing.assert_allclose(dual_joint.mean, joint.mean[perm], atol=1e-10)
            np.testing.assert_allclose(
                dual_joint.covariance, joint.covariance[np.ix_(perm, perm)], atol=1e-10
            )

    def test_reversibility(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 3)
        dual = gs.conjugate_kernel(inst.mu, inst.kernel)
        back = gs.push_forward(gs.push_forward(inst.mu, inst.kernel), dual)
        np.testing.assert_allclose(back.mean, inst.mu.mean, atol=1e-10)
        np.testing.assert_allclose(back.covariance, inst.mu.covariance, atol=1e-10)


class TestSinkhornFlow:
    def test_self_bridged_flow_is_stationary(self):
        rng = np.random.default_rng(3)
        inst = self_bridged_instance(rng, 2)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 8)
        for state in states[::2]:
            np.testing.assert_allclose(state.cov, inst.kernel.tau, atol=1e-10)
            np.testing.assert_allclose(state.mean, inst.eta.mean, atol=1e-10)

    def test_scalar_golden_recursion(self):
        inst = scalar_instance()
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 60)
        v = 1.0
        for state in states[::2]:
            assert state.rescaled_cov[0, 0] == pytest.approx(v, abs=1e-13)
            v = 1.0 / (1.0 + 1.0 / (1.0 + v))
        assert states[-1].rescaled_cov[0, 0] == pytest.approx(GOLDEN, abs=1e-12)

    def test_gain_identities(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 3)
        chi = inst.kernel.chi
        for state in gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 9)[1:]:
            if state.step % 2 == 0:
                np.testing.assert_allclose(state.gain, state.cov @ chi, atol=1e-10)
            else:
                np.testing.assert_allclose(state.gain, state.cov @ chi.T, atol=1e-10)

    def test_marginal_fixed_points(self):
        # The odd/even maps are anchored at the target marginal means, which is
        # exactly what makes pi_{2n} K_{2n+1} = mu and pi_{2n+1} K_{2n+2} = eta.
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 2)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 10)
        for even, odd in zip(states[::2], states[1::2]):
            pi_even = gs.marginal(even, inst.mu, inst.eta)
            odd_kernel = gs.LinearGaussianKernel(
                alpha=odd.mean - odd.gain @ inst.eta.mean, beta=odd.gain, tau=odd.cov
            )
            back = gs.push_forward(pi_even, odd_kernel)
            np.testing.assert_allclose(back.mean, inst.mu.mean, atol=1e-10)
            np.testing.assert_allclose(back.covariance, inst.mu.covariance, atol=1e-10)
        for odd, even_next in zip(states[1::2], states[2::2]):
            pi_odd = gs.marginal(odd, inst.mu, inst.eta)
            even_kernel = gs.LinearGaussianKernel(
                alpha=even_next.mean - even_next.gain @ inst.mu.mean,
                beta=even_next.gain, tau=even_next.cov,
            )
            fwd = gs.push_forward(pi_odd, even_kernel)
            np.testing.assert_allclose(fwd.mean, inst.eta.mean, atol=1e-10)
            np.testing.assert_allclose(fwd.covariance, inst.eta.covariance, atol=1e-10)

    def test_one_factorization_per_step_from_the_third(self, linalg_calls):
        inst = random_instance(np.random.default_rng(8), 4)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 2)
        for _ in range(5):
            linalg_calls.clear()
            states.append(gs.sinkhorn_step(states[-1], inst.mu, inst.eta, inst.kernel))
            assert linalg_calls == ["eigh"]

    def test_uniform_covariance_sandwich(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 3)
        problem = gs.RiccatiProblem.from_instance(inst.mu, inst.eta, inst.kernel)
        root_bar = matcore.principal_sqrt(inst.eta.covariance)
        lower_even = root_bar @ matcore.spd_inverse(
            np.eye(3) + matcore.spd_inverse(problem.varpi)
        ) @ root_bar
        root = matcore.principal_sqrt(inst.mu.covariance)
        lower_odd = root @ matcore.spd_inverse(
            np.eye(3) + matcore.spd_inverse(problem.flipped.varpi)
        ) @ root
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 12)
        for state in states[2::2]:
            assert matcore.loewner_leq(state.cov, inst.eta.covariance, tol=1e-10)
            assert matcore.loewner_leq(lower_even, state.cov, tol=1e-10)
        # the odd-chain estimate starts at tau_3 (pair index >= 1)
        for state in states[3::2]:
            assert matcore.loewner_leq(state.cov, inst.mu.covariance, tol=1e-10)
            assert matcore.loewner_leq(lower_odd, state.cov, tol=1e-10)


class TestRiccati:
    def test_scalar_apply(self):
        problem = gs.RiccatiProblem.from_gamma(np.array([[1.0]]))
        assert gs.riccati_apply(problem, np.zeros((1, 1)))[0, 0] == pytest.approx(0.5)

    def test_psd_check_and_two_factorizations_per_apply(self, linalg_calls):
        rng = np.random.default_rng(9)
        problem = gs.RiccatiProblem.from_gamma(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        v = random_spd(rng, 3)
        linalg_calls.clear()
        gs.riccati_apply(problem, v)
        assert linalg_calls == ["eigvalsh", "eigh", "eigh"]

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(7)
        problem = gs.RiccatiProblem.from_gamma(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        r = gs.riccati_fixed_point(problem)
        np.testing.assert_allclose(gs.riccati_apply(problem, r), r, atol=1e-12)

    def test_scalar_golden_and_large_varpi(self):
        problem = gs.RiccatiProblem.from_gamma(np.array([[1.0]]))
        r = gs.riccati_fixed_point(problem)
        assert r[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        big = gs.RiccatiProblem.from_gamma(np.array([[0.1]]))  # varpi = 100
        r_big = gs.riccati_fixed_point(big)
        assert r_big[0, 0] == pytest.approx(0.99019514, abs=1e-7)
        assert r_big[0, 0] >= 100.0 / 101.0

    def test_matrix_fixed_point_matches_eigenvalue_formula(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        vals = rng.uniform(0.5, 5.0, size=4)
        varpi = (q * vals) @ q.T
        problem = gs.RiccatiProblem(varpi=varpi, gamma=q @ np.diag(1.0 / np.sqrt(vals)) @ q.T)
        r = gs.riccati_fixed_point(problem)
        scalar = (-vals + np.sqrt(vals ** 2 + 4 * vals)) / 2.0
        np.testing.assert_allclose(r, (q * scalar) @ q.T, atol=1e-12)

    def test_equivalence_residuals(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            problem = gs.RiccatiProblem.from_gamma(rng.normal(size=(d, d)) + 2 * np.eye(d))
            r = gs.riccati_fixed_point(problem)
            residuals = gs.fixed_point_residuals(problem, r)
            assert max(residuals.values()) <= 1e-12
            d_eye = np.eye(d)
            assert matcore.loewner_leq(
                matcore.spd_inverse(d_eye + matcore.spd_inverse(problem.varpi)), r, tol=1e-12
            )
            assert matcore.loewner_leq(r, d_eye, tol=1e-12)

    def test_monotone_and_sandwich(self):
        rng = np.random.default_rng(10)
        problem = gs.RiccatiProblem.from_gamma(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        v1 = random_spd(rng, 3, 0.1, 0.5)
        v2 = v1 + random_spd(rng, 3, 0.1, 0.5)
        assert matcore.loewner_leq(
            gs.riccati_apply(problem, v1), gs.riccati_apply(problem, v2), tol=1e-12
        )
        zero_chain = riccati_iterates(problem, np.zeros((3, 3)), 6)
        eye_chain = riccati_iterates(problem, np.eye(3), 6)
        v_chain = riccati_iterates(problem, v1, 6)
        for n in range(1, 6):
            assert matcore.loewner_leq(zero_chain[n], zero_chain[n + 1], tol=1e-12)
            assert matcore.loewner_leq(zero_chain[n], v_chain[n], tol=1e-12)
            assert matcore.loewner_leq(v_chain[n], eye_chain[n - 1], tol=1e-12)
            assert matcore.loewner_leq(eye_chain[n], eye_chain[n - 1], tol=1e-12)
            assert matcore.loewner_leq(eye_chain[n], np.eye(3), tol=1e-12)

    def test_flow_equivalence_even_and_odd(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            problem = gs.RiccatiProblem.from_instance(inst.mu, inst.eta, inst.kernel)
            states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 40)
            current = states[0].rescaled_cov
            for state in states[2::2]:
                current = gs.riccati_apply(problem, current)
                np.testing.assert_allclose(state.rescaled_cov, current, atol=1e-10)
            flipped = problem.flipped
            current = states[1].rescaled_cov
            for state in states[3::2]:
                current = gs.riccati_apply(flipped, current)
                np.testing.assert_allclose(state.rescaled_cov, current, atol=1e-10)


class TestBridge:
    def test_self_bridge_recovers_reference_kernel(self):
        rng = np.random.default_rng(12)
        inst = self_bridged_instance(rng, 3)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        kernel = bridge.kernel
        np.testing.assert_allclose(kernel.alpha, inst.kernel.alpha, atol=1e-10)
        np.testing.assert_allclose(kernel.beta, inst.kernel.beta, atol=1e-10)
        np.testing.assert_allclose(kernel.tau, inst.kernel.tau, atol=1e-10)

    def test_scalar_golden_bridge(self):
        inst = scalar_instance()
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        assert bridge.noise_cov[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert bridge.gain[0, 0] == pytest.approx(GOLDEN, abs=1e-12)

    def test_transport_property(self):
        rng = np.random.default_rng(13)
        for d in (1, 2, 3, 8):
            inst = random_instance(rng, d)
            bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
            pushed = gs.push_forward(inst.mu, bridge.kernel)
            np.testing.assert_allclose(pushed.mean, inst.eta.mean, atol=1e-10)
            np.testing.assert_allclose(pushed.covariance, inst.eta.covariance, atol=1e-10)

    def test_kernel_is_built_once_and_read_only(self):
        inst = random_instance(np.random.default_rng(26), 3)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        kernel = bridge.kernel
        assert bridge.kernel is kernel
        assert kernel.alpha.tobytes() == bridge.intercept.tobytes()
        assert kernel.beta.tobytes() == bridge.gain.tobytes()
        assert kernel.tau.tobytes() == bridge.noise_cov.tobytes()
        assert not kernel.tau.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            bridge.kernel = kernel
        # the noise factors are the ones matcore derives from noise_cov
        assert kernel.noise.root.tobytes() == matcore.principal_sqrt(bridge.noise_cov).tobytes()
        assert kernel.noise.inv_root.tobytes() == matcore.inv_sqrt(bridge.noise_cov).tobytes()

    def test_carries_the_riccati_problem_it_solved(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, 3)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        problem = gs.RiccatiProblem.from_instance(inst.mu, inst.eta, inst.kernel)
        np.testing.assert_array_equal(bridge.problem.varpi, problem.varpi)
        np.testing.assert_array_equal(bridge.problem.gamma, problem.gamma)
        np.testing.assert_array_equal(gs.riccati_fixed_point(bridge.problem), bridge.fixed_point)

    def test_flow_converges_to_bridge(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        problem = gs.RiccatiProblem.from_instance(inst.mu, inst.eta, inst.kernel)
        rate = 1.0 + float(np.linalg.eigvalsh(bridge.fixed_point + problem.varpi)[0])
        # means contract once per pair at the base rate, covariances twice
        pairs = min(1500, int(math.ceil(math.log(1e12) / math.log(rate))) + 10)
        final = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 2 * pairs)[-1]
        np.testing.assert_allclose(final.cov, bridge.noise_cov, atol=1e-10)
        np.testing.assert_allclose(
            final.mean, bridge.intercept + bridge.gain @ inst.mu.mean, atol=1e-10
        )


class TestBridgeEntropy:
    def test_zero_at_bridge_parameters(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        state = gs.GaussianSinkhornState(
            step=0,
            mean=bridge.intercept + bridge.gain @ inst.mu.mean,
            gain=bridge.gain,
            cov=bridge.noise_cov,
            rescaled_cov=np.eye(2),
        )
        assert gs.bridge_entropy(state, bridge, inst.mu, inst.kernel) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_formula_matches_joint_kl_oracle(self):
        rng = np.random.default_rng(16)
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
            b_joint = gs.bridge_joint(inst.mu, bridge)
            states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 12)
            for state in states[::2]:
                formula = gs.bridge_entropy(state, bridge, inst.mu, inst.kernel)
                oracle = gaussian_kl(gs.sinkhorn_joint(state, inst.mu, inst.eta), b_joint)
                assert formula == pytest.approx(oracle, abs=1e-9)

    def test_no_factorization_after_the_first_call(self, monkeypatch):
        inst = random_instance(np.random.default_rng(28), 3)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 12)
        first = gs.bridge_entropy(states[0], bridge, inst.mu, inst.kernel)
        calls = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert gs.bridge_entropy(states[0], bridge, inst.mu, inst.kernel) == first
        for state in states[2::2]:
            gs.bridge_entropy(state, bridge, inst.mu, inst.kernel)
        assert calls == []

    def test_monotone_decay(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 20)
        values = [
            gs.bridge_entropy(s, bridge, inst.mu, inst.kernel) for s in states[::2]
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


class TestRateReport:
    def test_self_bridge_zero_errors(self):
        rng = np.random.default_rng(18)
        inst = self_bridged_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 24)
        report = gs.rate_report(states, bridge, inst.mu, inst.eta, inst.kernel)
        for row in report.rows:
            assert row.cov_error <= 1e-10
            assert row.mean_error <= 1e-10

    def test_scalar_slope_against_theory(self):
        inst = scalar_instance(m=0.3, sigma=1.5, m_bar=-0.4, sigma_bar=0.7, beta=1.2, tau=0.9)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 80)
        report = gs.rate_report(states, bridge, inst.mu, inst.eta, inst.kernel)
        assert report.fit is not None
        assert report.slope_within
        assert max(row.directed_residual for row in report.rows) <= 1e-10
        assert max(row.loop_gain_residual for row in report.rows) <= 1e-10

    def test_structure_identities_multidim(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, 3)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 30)
        report = gs.rate_report(states, bridge, inst.mu, inst.eta, inst.kernel)
        assert max(row.directed_residual for row in report.rows) <= 1e-8
        assert max(row.loop_gain_residual for row in report.rows) <= 1e-8

    def test_requires_enough_iterations(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 6)
        with pytest.raises(DomainError):
            gs.rate_report(states, bridge, inst.mu, inst.eta, inst.kernel)


class TestEnvelopes:
    def test_self_bridge_trivial(self):
        rng = np.random.default_rng(21)
        inst = self_bridged_instance(rng, 2)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 10)
        report = gs.envelope_report(
            states, gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel),
            inst.mu, inst.eta, inst.kernel)
        assert report.all_within

    def test_scalar_contractive_instance(self):
        inst = scalar_instance(m=0.2, sigma=0.8, m_bar=-0.1, sigma_bar=0.9, beta=1.0, tau=2.0)
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 40)
        report = gs.envelope_report(
            states, gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel),
            inst.mu, inst.eta, inst.kernel)
        assert report.kappa == pytest.approx(0.5)
        assert report.gate_contractive
        assert report.all_within
        assert len(report.chained_w2_rows) > 0

    def test_one_w2_distance_per_state(self, monkeypatch):
        calls = []

        def counted(p_mean, p_cov, p_root, q_mean, q_cov):
            calls.extend((mean, q_mean, q_cov) for mean in p_mean)
            return _gaussian_w2(p_mean, p_cov, p_root, q_mean, q_cov)

        monkeypatch.setattr(gs, "_gaussian_w2", counted)
        # The scalar instance is gate-contractive, so its chained rows count too.
        contractive = scalar_instance(m=0.2, sigma=0.8, m_bar=-0.1, sigma_bar=0.9,
                                      beta=1.0, tau=2.0)
        rng = np.random.default_rng(27)
        for inst in (contractive, random_instance(rng, 3)):
            calls.clear()
            states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 20)
            gs.envelope_report(
                states, gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel),
                inst.mu, inst.eta, inst.kernel)
            assert len(calls) == len(states)
            # each marginal (its mean is the state's) is measured against the
            # target its half step matches, once, in trajectory order per parity
            for parity, target in ((0, inst.eta), (1, inst.mu)):
                measured = [(mean, q_mean) for mean, q_mean, q_cov in calls
                            if q_cov is target.covariance]
                assert all(q_mean is target.mean for _, q_mean in measured)
                means = [s.mean for s in states if s.step % 2 == parity]
                assert len(measured) == len(means)
                assert all(np.array_equal(a, b) for (a, _), b in zip(measured, means))

    def test_generic_instances_dominated(self):
        rng = np.random.default_rng(22)
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 30)
            report = gs.envelope_report(
                states, gs.schrodinger_bridge_gaussian(inst.mu, inst.eta, inst.kernel),
                inst.mu, inst.eta, inst.kernel)
            for row in report.entropy_rows:
                assert row.value <= row.bound + 1e-10
                if row.refined_bound is not None:
                    assert row.value <= row.refined_bound + 1e-10
            for row in report.w2_rows:
                assert row.within


# --------------------------------------------------------------------------
# The stacked chunks against per-state loops.  The ref_* functions are the
# per-state arithmetic that the chunked diagnostics replaced; every stacked
# value must equal theirs bit for bit.
# --------------------------------------------------------------------------


def ref_blocks(source, intercept, gain, noise):
    d = source.dim
    mean = np.concatenate([source.mean, intercept + gain @ source.mean])
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = source.covariance
    cov[:d, d:] = source.covariance @ gain.T
    cov[d:, :d] = gain @ source.covariance
    cov[d:, d:] = gain @ source.covariance @ gain.T + noise
    return mean, cov


def ref_joint(state, mu, eta):
    d = mu.dim
    if state.step % 2 == 0:
        return Gaussian(*ref_blocks(mu, state.mean - state.gain @ mu.mean, state.gain, state.cov))
    mean, cov = ref_blocks(eta, state.mean - state.gain @ eta.mean, state.gain, state.cov)
    perm = np.concatenate([np.arange(d, 2 * d), np.arange(d)])
    return Gaussian(mean[perm], cov[np.ix_(perm, perm)])


def ref_marginal(state, mu, eta):
    source = mu if state.step % 2 == 0 else eta
    return Gaussian(state.mean, state.gain @ source.covariance @ state.gain.T + state.cov)


def ref_burg(s, sb):
    ratio = np.linalg.solve(sb, s)
    sign, logdet = np.linalg.slogdet(ratio)
    assert sign > 0
    return float(np.trace(ratio) - s.shape[0] - logdet)


def ref_kl(p, q):
    diff = p.mean - q.mean
    quad = float(diff @ np.linalg.solve(q.covariance, diff))
    return 0.5 * (ref_burg(p.covariance, q.covariance) + quad)


def ref_w2(p, q):
    cross = matcore.principal_sqrt(p.root @ q.covariance @ p.root)
    bures = float(np.trace(p.covariance) + np.trace(q.covariance) - 2.0 * np.trace(cross))
    mean_sq = float(np.sum((p.mean - q.mean) ** 2))
    return math.sqrt(max(mean_sq + bures, 0.0))


def ref_bridge_entropy(state, bridge, mu, kernel):
    eta_mean = bridge.intercept + bridge.gain @ mu.mean
    isq = bridge.kernel.noise.inv_root
    mean_term = float(np.sum((isq @ (state.mean - eta_mean)) ** 2))
    cross = isq @ (state.cov - bridge.noise_cov) @ kernel.chi @ mu.root
    cross_term = float(np.sum(cross ** 2))
    burg = ref_burg(matcore.assert_spd(state.cov), matcore.assert_spd(bridge.noise_cov))
    return 0.5 * (burg + mean_term + cross_term)


def ref_rate_rows(trajectory, bridge, mu, eta, kernel):
    even = [s for s in trajectory if s.step % 2 == 0]
    by_step = {s.step: s for s in trajectory}
    noise_root = bridge.kernel.noise.root
    eta_mean = bridge.intercept + bridge.gain @ mu.mean
    sigma0 = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    d = mu.dim
    inv_gap = matcore.spd_inverse(np.eye(d) + bridge.problem.varpi)
    rows = []
    product = np.eye(d)
    for state in even:
        n = state.step // 2
        cov_error = matcore.spectral_norm(state.cov - bridge.noise_cov)
        sqrt_error = matcore.spectral_norm(matcore.principal_sqrt(state.cov) - noise_root)
        mean_error = float(np.linalg.norm(state.mean - eta_mean))
        directed_residual = 0.0
        loop_residual = 0.0
        if n >= 1:
            loop_gain = state.gain @ by_step[state.step - 1].gain
            product = loop_gain @ product
            rescaled_loop = eta.inv_root @ loop_gain @ eta.root
            loop_residual = float(np.max(np.abs(rescaled_loop - (np.eye(d) - state.rescaled_cov))))
            loop_residual = max(
                loop_residual,
                max(0.0, -float(np.linalg.eigvalsh(
                    matcore.symmetrize(np.eye(d) - state.rescaled_cov))[0])),
                max(0.0, float(np.linalg.eigvalsh(matcore.symmetrize(
                    (np.eye(d) - state.rescaled_cov) - inv_gap))[-1])),
            )
            sigma_2n = state.gain @ mu.covariance @ state.gain.T + state.cov
            predicted = product @ (sigma0 - eta.covariance) @ product.T
            directed_residual = float(np.max(np.abs((sigma_2n - eta.covariance) - predicted)))
        rows.append(gs.GaussianRateRow(
            n=n, cov_error=cov_error, sqrt_error=sqrt_error, mean_error=mean_error,
            product_norm=matcore.spectral_norm(eta.inv_root @ product @ eta.root)
            if n >= 1 else 1.0,
            directed_residual=directed_residual, loop_gain_residual=loop_residual,
        ))
    return rows


def assert_chunks_equal_loops(inst, half_steps):
    mu, eta, kernel = inst.mu, inst.eta, inst.kernel
    states = gs.run_sinkhorn(mu, eta, kernel, half_steps)
    bridge = gs.schrodinger_bridge_gaussian(mu, eta, kernel)
    b_joint = gs.bridge_joint(mu, bridge)
    report = gs.envelope_report(states, bridge, mu, eta, kernel)
    assert [r.value for r in report.entropy_rows] == [
        ref_kl(b_joint, ref_joint(s, mu, eta)) for s in states]
    dist = [ref_w2(ref_marginal(s, mu, eta), eta if s.step % 2 == 0 else mu) for s in states]
    assert [r.value for r in report.w2_rows] == dist[1:]
    even = states[::2]
    assert gs.entropy_formula_table(states, bridge, mu, eta, kernel) == [
        (s.step // 2, ref_bridge_entropy(s, bridge, mu, kernel),
         ref_kl(ref_joint(s, mu, eta), b_joint)) for s in even]
    for s in states[:3]:
        joint, pi = gs.sinkhorn_joint(s, mu, eta), gs.marginal(s, mu, eta)
        ref, ref_pi = ref_joint(s, mu, eta), ref_marginal(s, mu, eta)
        assert joint.mean.tobytes() == ref.mean.tobytes()
        assert joint.covariance.tobytes() == ref.covariance.tobytes()
        assert pi.covariance.tobytes() == ref_pi.covariance.tobytes()
    if len(even) > gs.MIN_RATE_PAIRS:
        rows = gs.rate_report(states, bridge, mu, eta, kernel).rows
        assert list(rows) == ref_rate_rows(states, bridge, mu, eta, kernel)


def chunk_states(d):
    """States per chunk of one parity under the current chunk budget."""
    return max(1, matcore.CHUNK_ELEMENTS // (2 * d) ** 2)


class TestStackedOracle:
    @pytest.mark.parametrize("evens", [1, 7, 8, 9, 17])
    def test_default_budget_at_d16(self, evens):
        # 8 states per chunk at d = 16; both parities cross the boundary.
        assert chunk_states(16) == 8
        inst = random_instance(np.random.default_rng(40 + evens), 16)
        for half_steps in (2 * evens - 2, 2 * evens - 1):
            if half_steps >= 0:
                assert_chunks_equal_loops(inst, half_steps)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1), per_chunk=st.integers(1, 6),
           offset=st.sampled_from([-1, 0, 1, None]), odd_tail=st.booleans())
    def test_small_budgets_equal_loops(self, d, seed, per_chunk, offset, odd_tail):
        # Even-state counts 1, k - 1, k, k + 1 and 2k + 1 around the chunk size k.
        evens = 2 * per_chunk + 1 if offset is None else max(1, per_chunk + offset)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcore, "CHUNK_ELEMENTS", per_chunk * (2 * d) ** 2)
            assert chunk_states(d) == per_chunk
            inst = random_instance(np.random.default_rng(seed), d)
            assert_chunks_equal_loops(inst, max(0, 2 * evens - 2 + odd_tail))

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1), per_chunk=st.integers(1, 12),
           evens=st.integers(gs.MIN_RATE_PAIRS + 1, 26))
    def test_rate_rows_equal_loop(self, d, seed, per_chunk, evens):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcore, "CHUNK_ELEMENTS", per_chunk * (2 * d) ** 2)
            assert_chunks_equal_loops(random_instance(np.random.default_rng(seed), d),
                                      2 * evens - 2)


class TestCovarianceEnvelope:
    def test_collapse_onto_exact_flow(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 2)
        envelope = gs.strongly_convex_covariance_envelope(
            inst.mu.covariance, inst.mu.covariance,
            inst.eta.covariance, inst.eta.covariance,
            inst.kernel, 12,
        )
        states = gs.run_sinkhorn(inst.mu, inst.eta, inst.kernel, 12)
        for n, state in enumerate(states):
            np.testing.assert_allclose(envelope.upper[n], state.cov, atol=1e-10)
            np.testing.assert_allclose(envelope.lower[n], state.cov, atol=1e-10)
        assert max(envelope.rescaled_residuals) <= 1e-10

    def test_widened_gap_gives_strict_sandwich(self):
        rng = np.random.default_rng(24)
        inst = random_instance(rng, 2)
        envelope = gs.strongly_convex_covariance_envelope(
            inst.mu.covariance, inst.mu.covariance / 2.0,
            inst.eta.covariance, inst.eta.covariance,
            inst.kernel, 10,
        )
        assert envelope.sandwich_ok
        for n in range(1, 11):
            gap = np.linalg.eigvalsh(envelope.upper[n] - envelope.lower[n])[0]
            assert gap > 0.0

    def test_initial_step_formula(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, 3)
        envelope = gs.strongly_convex_covariance_envelope(
            inst.mu.covariance, inst.mu.covariance,
            inst.eta.covariance, inst.eta.covariance,
            inst.kernel, 2,
        )
        chi = inst.kernel.chi
        expected = matcore.spd_inverse(
            matcore.spd_inverse(inst.mu.covariance) + chi.T @ inst.kernel.tau @ chi
        )
        np.testing.assert_allclose(envelope.upper[1], expected, atol=1e-12)

    def test_ordering_validated(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, 2)
        with pytest.raises(DomainError):
            gs.strongly_convex_covariance_envelope(
                inst.mu.covariance, inst.mu.covariance * 2.0,
                inst.eta.covariance, inst.eta.covariance,
                inst.kernel, 4,
            )


class TestInstanceJson:
    def test_round_trip(self):
        rng = np.random.default_rng(28)
        inst = random_instance(rng, 3)
        payload = json.loads(json.dumps(gs.instance_to_json(inst)))
        clone = gs.instance_from_json(payload)
        np.testing.assert_allclose(clone.mu.mean, inst.mu.mean)
        np.testing.assert_allclose(clone.mu.covariance, inst.mu.covariance)
        np.testing.assert_allclose(clone.kernel.beta, inst.kernel.beta)
