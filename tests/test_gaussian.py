import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelab import gaussian as gs
from bridgelab import harness, matcore
from bridgelab.divergences import Gaussian, _gaussian_w2, gaussian_kl
from bridgelab.errors import DomainError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# riccati_apply against two inversions: spectral-norm error per unit of
# max(1, ||varpi + v||_2).  The worst of 4000 random cases was 3.6e-14.
RICCATI_RTOL = 1e-12


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


def riccati_iterates(problem, v0, count):
    """v0 and its first ``count`` images under ``riccati_apply``."""
    out = [matcore.symmetrize(v0)]
    for _ in range(count):
        out.append(gs.riccati_apply(problem, out[-1]))
    return out


def count_calls(monkeypatch, name):
    """The ``ndim`` of the first argument of each later call to ``matcore.<name>``."""
    calls = []
    original = getattr(matcore, name)

    def counted(a, *args):
        calls.append(np.ndim(a))
        return original(a, *args)

    monkeypatch.setattr(matcore, name, counted)
    return calls


def check_passes(name, inst, run, bridge):
    """Whether the harness rule of Gaussian check ``name`` passes on the rows it builds."""
    check = harness.REGIMES["gaussian"].checks[name]
    return check.rule(check.rows(inst, run, bridge))[0]


def with_row(run, m, **fields):
    """``run`` with row ``m`` of each named field replaced."""
    stacks = {}
    for name, value in fields.items():
        stacks[name] = getattr(run, name).copy()
        stacks[name][m] = value
    return dataclasses.replace(run, **stacks)


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
    def test_computed_once_and_read_only(self, linalg_calls):
        kernel = random_instance(np.random.default_rng(3), 3).kernel
        # tau's one eigh was taken when its noise Gaussian validated it.
        linalg_calls.clear()
        chi = kernel.chi
        assert kernel.chi is chi and linalg_calls == []
        assert not chi.flags.writeable
        assert chi.tobytes() == (matcore.spd_inverse(kernel.tau) @ kernel.beta).tobytes()

    @pytest.mark.parametrize("beta, tau, message", [
        (np.eye(3), np.eye(2), r"^kernel parameter dimensions are inconsistent$"),
        (np.eye(2), np.eye(3), r"^kernel parameter dimensions are inconsistent$"),
        (np.diag([1.0, 1e-13]), np.eye(2), r"^beta is numerically singular"),
    ])
    def test_malformed_parameters_are_rejected(self, beta, tau, message):
        with pytest.raises(DomainError, match=message):
            gs.LinearGaussianKernel(np.zeros(2), beta, tau)

    def test_tau_is_validated_by_the_noise_gaussian(self):
        with pytest.raises(DomainError, match="^tau: covariance is not positive definite"):
            gs.LinearGaussianKernel(np.zeros(2), np.eye(2), np.diag([1.0, -1.0]))

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

    def test_dimension_mismatch(self):
        kernel = gs.LinearGaussianKernel(np.zeros(3), np.eye(3), np.eye(3))
        with pytest.raises(DomainError, match="^dimension mismatch in conjugate_kernel$"):
            gs.conjugate_kernel(Gaussian(np.zeros(2), np.eye(2)), kernel)

    def test_reversibility(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 3)
        dual = gs.conjugate_kernel(inst.mu, inst.kernel)
        back = gs.push_forward(gs.push_forward(inst.mu, inst.kernel), dual)
        np.testing.assert_allclose(back.mean, inst.mu.mean, atol=1e-10)
        np.testing.assert_allclose(back.covariance, inst.mu.covariance, atol=1e-10)


class TestSinkhornFlow:
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_rows_equal_a_loop_of_steps(self, d):
        inst = random_instance(np.random.default_rng(31 + d), d)
        mu, eta, kernel = inst.mu, inst.eta, inst.kernel
        run = gs.run_sinkhorn(inst, 9)
        fields = ("mean", "gain", "cov", "rescaled_cov")
        shapes = ((10, d), (10, d, d), (10, d, d), (10, d, d))
        for name, shape in zip(fields, shapes):
            stack = getattr(run, name)
            assert len(run) == 10 and stack.shape == shape, name
            assert not stack.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.cov = run.cov.copy()
        # row 0 is the reference kernel; row m + 1 is one sinkhorn_step of
        # row m, each step fed the arrays the one before returned
        row = (kernel.alpha + kernel.beta @ mu.mean, kernel.beta, kernel.tau,
               eta.inv_root @ kernel.tau @ eta.inv_root)
        for m in range(len(run)):
            for name, value in zip(fields, row):
                assert getattr(run, name)[m].tobytes() == value.tobytes(), (m, name)
            row = gs.sinkhorn_step(m, row[0], row[2], inst)

    @pytest.mark.parametrize("half_steps, message", [
        (-3, r"^half_steps must be >= 0, got -3$"),
        (2.5, r"^half_steps must be an int, got 2\.5$"),
        (True, r"^half_steps must be an int, got True$"),
    ])
    def test_half_step_count_is_validated(self, half_steps, message):
        inst = random_instance(np.random.default_rng(3), 2)
        with pytest.raises(DomainError, match=message):
            gs.run_sinkhorn(inst, half_steps)

    def test_self_bridged_flow_is_stationary(self):
        rng = np.random.default_rng(3)
        inst = self_bridged_instance(rng, 2)
        run = gs.run_sinkhorn(inst, 8)
        for cov, mean in zip(run.cov[::2], run.mean[::2]):
            np.testing.assert_allclose(cov, inst.kernel.tau, atol=1e-10)
            np.testing.assert_allclose(mean, inst.eta.mean, atol=1e-10)

    def test_scalar_golden_recursion(self):
        inst = scalar_instance()
        run = gs.run_sinkhorn(inst, 60)
        v = 1.0
        for rescaled in run.rescaled_cov[::2]:
            assert rescaled[0, 0] == pytest.approx(v, abs=1e-13)
            v = 1.0 / (1.0 + 1.0 / (1.0 + v))
        assert run.rescaled_cov[-1, 0, 0] == pytest.approx(GOLDEN, abs=1e-12)

    def test_gain_identities(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 3)
        chi = inst.kernel.chi
        run = gs.run_sinkhorn(inst, 9)
        np.testing.assert_allclose(run.gain[2::2], run.cov[2::2] @ chi, atol=1e-10)
        np.testing.assert_allclose(run.gain[1::2], run.cov[1::2] @ chi.T, atol=1e-10)

    def test_marginal_fixed_points(self):
        # The odd/even maps are anchored at the target marginal means, which is
        # exactly what makes pi_{2n} K_{2n+1} = mu and pi_{2n+1} K_{2n+2} = eta.
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 2)
        run = gs.run_sinkhorn(inst, 10)
        for m in range(0, len(run) - 1, 2):
            pi_even = ref_marginal(run, m, inst.mu, inst.eta)
            odd_kernel = gs.LinearGaussianKernel(
                alpha=run.mean[m + 1] - run.gain[m + 1] @ inst.eta.mean, beta=run.gain[m + 1],
                tau=run.cov[m + 1],
            )
            back = gs.push_forward(pi_even, odd_kernel)
            np.testing.assert_allclose(back.mean, inst.mu.mean, atol=1e-10)
            np.testing.assert_allclose(back.covariance, inst.mu.covariance, atol=1e-10)
        for m in range(1, len(run) - 1, 2):
            pi_odd = ref_marginal(run, m, inst.mu, inst.eta)
            even_kernel = gs.LinearGaussianKernel(
                alpha=run.mean[m + 1] - run.gain[m + 1] @ inst.mu.mean,
                beta=run.gain[m + 1], tau=run.cov[m + 1],
            )
            fwd = gs.push_forward(pi_odd, even_kernel)
            np.testing.assert_allclose(fwd.mean, inst.eta.mean, atol=1e-10)
            np.testing.assert_allclose(fwd.covariance, inst.eta.covariance, atol=1e-10)

    def test_one_factorization_per_step_from_the_third(self, linalg_calls):
        inst = random_instance(np.random.default_rng(8), 4)
        run = gs.run_sinkhorn(inst, 2)
        mean, cov = run.mean[-1], run.cov[-1]
        for m in range(2, 7):
            linalg_calls.clear()
            mean, _, cov, _ = gs.sinkhorn_step(m, mean, cov, inst)
            assert linalg_calls == ["eigh"]

    def test_uniform_covariance_sandwich(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 3)
        problem = gs.RiccatiProblem.from_instance(inst)
        root_bar = matcore.principal_sqrt(inst.eta.covariance)
        lower_even = root_bar @ matcore.spd_inverse(
            np.eye(3) + matcore.spd_inverse(problem.varpi)
        ) @ root_bar
        root = matcore.principal_sqrt(inst.mu.covariance)
        lower_odd = root @ matcore.spd_inverse(
            np.eye(3) + matcore.spd_inverse(gs.RiccatiProblem(problem.gamma.T).varpi)
        ) @ root
        run = gs.run_sinkhorn(inst, 12)
        for cov in run.cov[2::2]:
            assert matcore.loewner_leq(cov, inst.eta.covariance, tol=1e-10)
            assert matcore.loewner_leq(lower_even, cov, tol=1e-10)
        # the odd-chain estimate starts at tau_3 (pair index >= 1)
        for cov in run.cov[3::2]:
            assert matcore.loewner_leq(cov, inst.mu.covariance, tol=1e-10)
            assert matcore.loewner_leq(lower_odd, cov, tol=1e-10)


class TestRiccati:
    def test_scalar_apply(self):
        problem = gs.RiccatiProblem(np.array([[1.0]]))
        assert gs.riccati_apply(problem, np.zeros((1, 1)))[0, 0] == pytest.approx(0.5)

    def test_psd_check_and_one_factorization_per_apply(self, linalg_calls):
        rng = np.random.default_rng(9)
        problem = gs.RiccatiProblem(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        v = random_spd(rng, 3)
        linalg_calls.clear()
        gs.riccati_apply(problem, v)
        assert linalg_calls == ["eigvalsh", "eigh"]

    def test_rejects_a_v_that_is_not_psd(self):
        # varpi = 100 I, so varpi + v is SPD and only the PSD check rejects v.
        problem = gs.RiccatiProblem(0.1 * np.eye(2))
        with pytest.raises(DomainError, match="^riccati_apply needs a positive semi-definite"):
            gs.riccati_apply(problem, np.diag([1.0, -0.5]))

    def test_varpi_is_factorized_once(self, linalg_calls, monkeypatch):
        rng = np.random.default_rng(10)
        problem = gs.RiccatiProblem(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        factorized = []

        def recording(original):
            def wrapper(a):
                factorized.append(a)
                return original(a)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        linalg_calls.clear()
        r = gs.riccati_fixed_point(problem)
        gs.fixed_point_residuals(problem, r)
        # Each call checks its residuals: the PSD check and eigh of riccati_apply
        # (on r and varpi + r), then spd_inverse of r and of varpi + r.
        assert linalg_calls == ["eigvalsh", "eigh"] * 3 * 2
        assert not any(np.array_equal(a, problem.varpi) for a in factorized)
        np.testing.assert_array_equal(problem.varpi_inv, matcore.spd_inverse(problem.varpi))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           top=st.floats(-2.0, 8.0), spread=st.floats(0.0, 3.0), rank=st.integers(0, 6))
    def test_apply_matches_two_inversions(self, d, seed, top, spread, rank):
        # varpi has eigenvalues log-uniform in [10^(top - spread), 10^top], up
        # to 1e8 (a wider spread fails RiccatiProblem's varpi^-1 = gamma gamma'
        # check); v is PSD of rank min(rank, d), so singular whenever rank < d.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        vals = 10.0 ** rng.uniform(top - spread, top, size=d)
        problem = gs.RiccatiProblem(q / np.sqrt(vals))
        factor = rng.normal(size=(d, min(rank, d)))
        v = factor @ factor.T
        reference = np.linalg.inv(np.eye(d) + np.linalg.inv(problem.varpi + v))
        # Both sides are (varpi + v) (varpi + v + I)^{-1}, a map with Frechet
        # derivative at most 1, so each rounds to within a few ulps of
        # ||varpi + v|| of the exact value.
        scale = matcore.spectral_norm(problem.varpi + v)
        error = matcore.spectral_norm(gs.riccati_apply(problem, v) - reference)
        assert error <= RICCATI_RTOL * max(1.0, scale)

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(7)
        problem = gs.RiccatiProblem(rng.normal(size=(3, 3)) + 2 * np.eye(3))
        r = gs.riccati_fixed_point(problem)
        np.testing.assert_allclose(gs.riccati_apply(problem, r), r, atol=1e-12)

    def test_scalar_golden_and_large_varpi(self):
        problem = gs.RiccatiProblem(np.array([[1.0]]))
        r = gs.riccati_fixed_point(problem)
        assert r[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        big = gs.RiccatiProblem(np.array([[0.1]]))  # varpi = 100
        r_big = gs.riccati_fixed_point(big)
        assert r_big[0, 0] == pytest.approx(0.99019514, abs=1e-7)
        assert r_big[0, 0] >= 100.0 / 101.0

    def test_matrix_fixed_point_matches_eigenvalue_formula(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        vals = rng.uniform(0.5, 5.0, size=4)
        varpi = (q * vals) @ q.T
        problem = gs.RiccatiProblem(q @ np.diag(1.0 / np.sqrt(vals)) @ q.T)
        r = gs.riccati_fixed_point(problem)
        scalar = (-vals + np.sqrt(vals ** 2 + 4 * vals)) / 2.0
        np.testing.assert_allclose(r, (q * scalar) @ q.T, atol=1e-12)

    def test_equivalence_residuals(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 3):
            problem = gs.RiccatiProblem(rng.normal(size=(d, d)) + 2 * np.eye(d))
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
        problem = gs.RiccatiProblem(rng.normal(size=(3, 3)) + 2 * np.eye(3))
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
            problem = gs.RiccatiProblem.from_instance(inst)
            run = gs.run_sinkhorn(inst, 40)
            current = run.rescaled_cov[0]
            for rescaled in run.rescaled_cov[2::2]:
                current = gs.riccati_apply(problem, current)
                np.testing.assert_allclose(rescaled, current, atol=1e-10)
            flipped = gs.RiccatiProblem(problem.gamma.T)
            current = run.rescaled_cov[1]
            for rescaled in run.rescaled_cov[3::2]:
                current = gs.riccati_apply(flipped, current)
                np.testing.assert_allclose(rescaled, current, atol=1e-10)


class TestBridge:
    def test_self_bridge_recovers_reference_kernel(self):
        rng = np.random.default_rng(12)
        inst = self_bridged_instance(rng, 3)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        kernel = bridge.kernel
        np.testing.assert_allclose(kernel.alpha, inst.kernel.alpha, atol=1e-10)
        np.testing.assert_allclose(kernel.beta, inst.kernel.beta, atol=1e-10)
        np.testing.assert_allclose(kernel.tau, inst.kernel.tau, atol=1e-10)

    def test_scalar_golden_bridge(self):
        inst = scalar_instance()
        bridge = gs.schrodinger_bridge_gaussian(inst)
        assert bridge.kernel.tau[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert bridge.kernel.beta[0, 0] == pytest.approx(GOLDEN, abs=1e-12)

    def test_transport_property(self):
        rng = np.random.default_rng(13)
        for d in (1, 2, 3, 8):
            inst = random_instance(rng, d)
            bridge = gs.schrodinger_bridge_gaussian(inst)
            pushed = gs.push_forward(inst.mu, bridge.kernel)
            np.testing.assert_allclose(pushed.mean, inst.eta.mean, atol=1e-10)
            np.testing.assert_allclose(pushed.covariance, inst.eta.covariance, atol=1e-10)

    def test_kernel_is_built_once_and_read_only(self):
        inst = random_instance(np.random.default_rng(26), 3)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        kernel = bridge.kernel
        # tau is noise = symmetrize(sigma_bar^1/2 r sigma_bar^1/2), beta = noise chi
        # and alpha = m_bar - beta m, bit for bit
        root_bar = inst.eta.root
        noise = matcore.symmetrize(root_bar @ bridge.fixed_point @ root_bar)
        assert kernel.tau.tobytes() == noise.tobytes()
        assert kernel.beta.tobytes() == (noise @ inst.kernel.chi).tobytes()
        assert kernel.alpha.tobytes() == (inst.eta.mean - kernel.beta @ inst.mu.mean).tobytes()
        assert not kernel.tau.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            bridge.kernel = kernel
        # the noise factors are the principal root and the inverse root
        # q diag(w^{-1/2}) q' of tau's eigh, bit for bit
        assert kernel.noise.root.tobytes() == matcore.principal_sqrt(kernel.tau).tobytes()
        w, q = np.linalg.eigh(kernel.tau)
        inv_sqrt = (q / np.sqrt(w)) @ q.T
        assert kernel.noise.inv_root.tobytes() == ((inv_sqrt + inv_sqrt.T) / 2.0).tobytes()

    def test_carries_the_riccati_problem_it_solved(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, 3)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        problem = gs.RiccatiProblem.from_instance(inst)
        np.testing.assert_array_equal(bridge.problem.varpi, problem.varpi)
        np.testing.assert_array_equal(bridge.problem.gamma, problem.gamma)
        np.testing.assert_array_equal(gs.riccati_fixed_point(bridge.problem), bridge.fixed_point)

    def test_flow_converges_to_bridge(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        problem = gs.RiccatiProblem.from_instance(inst)
        rate = 1.0 + float(np.linalg.eigvalsh(bridge.fixed_point + problem.varpi)[0])
        # means contract once per pair at the base rate, covariances twice
        pairs = min(1500, int(math.ceil(math.log(1e12) / math.log(rate))) + 10)
        run = gs.run_sinkhorn(inst, 2 * pairs)
        kernel = bridge.kernel
        np.testing.assert_allclose(run.cov[-1], kernel.tau, atol=1e-10)
        np.testing.assert_allclose(run.mean[-1], kernel.alpha + kernel.beta @ inst.mu.mean,
                                   atol=1e-10)


class TestBridgeEntropy:
    def test_zero_at_bridge_parameters(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        kernel = bridge.kernel
        run = gs.GaussianRun(
            mean=(kernel.alpha + kernel.beta @ inst.mu.mean)[None],
            gain=kernel.beta[None],
            cov=kernel.tau[None],
            rescaled_cov=np.eye(2)[None],
            instance=inst,
        )
        assert gs.bridge_entropy(run, 0, bridge) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_formula_matches_joint_kl_oracle(self):
        rng = np.random.default_rng(16)
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            bridge = gs.schrodinger_bridge_gaussian(inst)
            b_joint = gs.bridge_joint(inst.mu, bridge)
            run = gs.run_sinkhorn(inst, 12)
            for n in range(7):
                formula = gs.bridge_entropy(run, n, bridge)
                oracle = gaussian_kl(gs.sinkhorn_joint(run, 2 * n), b_joint)
                assert formula == pytest.approx(oracle, abs=1e-9)

    def test_no_factorization_after_the_first_call(self, monkeypatch):
        inst = random_instance(np.random.default_rng(28), 3)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 12)
        first = gs.bridge_entropy(run, 0, bridge)
        calls = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert gs.bridge_entropy(run, 0, bridge) == first
        for n in range(1, 7):
            gs.bridge_entropy(run, n, bridge)
        assert calls == []

    def test_table_names_an_unresolvable_joint_by_n(self, monkeypatch):
        inst = random_instance(np.random.default_rng(29), 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        # A conditional covariance far below the SPD floor of its joint P_6.
        run = with_row(gs.run_sinkhorn(inst, 8), 6,
                       cov=np.diag([1e-13, 1.0]))
        # Two even rows per chunk: P_6 is the second joint of its chunk.
        monkeypatch.setattr(matcore, "CHUNK_ELEMENTS", 2 * 4 ** 2)
        validated = count_calls(monkeypatch, "assert_spd")
        with pytest.raises(DomainError, match=r"^joint P_2n at n=3 is not positive definite"):
            gs.entropy_formula_table(run, bridge)
        # one stacked call per chunk: the failing chunk is not walked again
        assert validated == [3, 3]

    def test_rows_out_of_the_run_are_rejected(self):
        inst = random_instance(np.random.default_rng(15), 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 4)
        for m, message in ((5, r"^half step 5 is past the run's last row 4$"),
                           (-1, r"^half step must be >= 0, got -1$"),
                           (1.0, r"^half step must be an int, got 1\.0$")):
            with pytest.raises(DomainError, match=message):
                gs.sinkhorn_joint(run, m)
        for n, message in ((3, r"^half step 6 is past the run's last row 4$"),
                           (-1, r"^n must be >= 0, got -1$")):
            with pytest.raises(DomainError, match=message):
                gs.bridge_entropy(run, n, bridge)

    def test_monotone_decay(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 20)
        values = [gs.bridge_entropy(run, n, bridge) for n in range(11)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


class TestRateReport:
    def test_self_bridge_zero_errors(self):
        rng = np.random.default_rng(18)
        inst = self_bridged_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 24)
        report = gs.rate_report(run, bridge)
        for row in report.rows:
            assert row.cov_error <= 1e-10
            assert row.mean_error <= 1e-10

    def test_scalar_slope_against_theory(self):
        inst = scalar_instance(m=0.3, sigma=1.5, m_bar=-0.4, sigma_bar=0.7, beta=1.2, tau=0.9)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 80)
        report = gs.rate_report(run, bridge)
        assert report.fit is not None
        assert check_passes("riccati-rate", inst, run, bridge)
        assert max(row.directed_residual for row in report.rows) <= 1e-10
        assert max(row.loop_gain_residual for row in report.rows) <= 1e-10

    def test_structure_identities_multidim(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, 3)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 30)
        report = gs.rate_report(run, bridge)
        assert max(row.directed_residual for row in report.rows) <= 1e-8
        assert max(row.loop_gain_residual for row in report.rows) <= 1e-8

    def test_one_walk_over_the_chunks(self, monkeypatch):
        inst = random_instance(np.random.default_rng(30), 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 40)
        # Three even rows per chunk: seven chunks of even rows.
        monkeypatch.setattr(matcore, "CHUNK_ELEMENTS", 3 * 4 ** 2)
        walks = []
        chunks = gs._chunks

        def walk(d, *stacks, **kwargs):
            walks.append(stacks)
            return chunks(d, *stacks, **kwargs)

        monkeypatch.setattr(gs, "_chunks", walk)
        rows = gs.rate_report(run, bridge).rows
        assert len(walks) == 1
        assert all(a is b for a, b in zip(walks[0], (run.mean, run.gain, run.cov,
                                                     run.rescaled_cov), strict=True))
        assert list(rows) == ref_rate_rows(run, bridge, inst.mu, inst.eta, inst.kernel)

    def test_requires_enough_iterations(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        run = gs.run_sinkhorn(inst, 6)
        with pytest.raises(DomainError):
            gs.rate_report(run, bridge)


class TestEnvelopes:
    def test_self_bridge_trivial(self):
        rng = np.random.default_rng(21)
        inst = self_bridged_instance(rng, 2)
        run = gs.run_sinkhorn(inst, 10)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        assert check_passes("envelope", inst, run, bridge)

    def test_scalar_contractive_instance(self):
        inst = scalar_instance(m=0.2, sigma=0.8, m_bar=-0.1, sigma_bar=0.9, beta=1.0, tau=2.0)
        run = gs.run_sinkhorn(inst, 40)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        report = gs.envelope_report(run, bridge)
        assert report.kappa == pytest.approx(0.5)
        assert report.gate_contractive
        assert check_passes("envelope", inst, run, bridge)
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
            run = gs.run_sinkhorn(inst, 20)
            gs.envelope_report(run, gs.schrodinger_bridge_gaussian(inst))
            assert len(calls) == len(run)
            # each marginal (its mean is the row's) is measured against the
            # target its half step matches, once, in row order per parity
            for parity, target in ((0, inst.eta), (1, inst.mu)):
                measured = [(mean, q_mean) for mean, q_mean, q_cov in calls
                            if q_cov is target.covariance]
                assert all(q_mean is target.mean for _, q_mean in measured)
                means = run.mean[parity::2]
                assert len(measured) == len(means)
                assert all(np.array_equal(a, b) for (a, _), b in zip(measured, means))

    def test_names_an_unresolvable_marginal_by_step(self, monkeypatch):
        inst = random_instance(np.random.default_rng(29), 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        # With zero gain the marginal pi_6 is the conditional covariance,
        # far below the SPD floor.
        run = with_row(gs.run_sinkhorn(inst, 8), 6,
                       cov=np.diag([1e-13, 1.0]), gain=np.zeros((2, 2)))
        # Two even rows per chunk: pi_6 is the second marginal of its chunk.
        monkeypatch.setattr(matcore, "CHUNK_ELEMENTS", 2 * 4 ** 2)
        validated = count_calls(monkeypatch, "spd_eigh")
        with pytest.raises(DomainError, match=r"^marginal pi_m at m=6 is not positive definite"):
            gs.envelope_report(run, bridge)
        # the bridge joint, then one stacked call per chunk of marginals
        assert validated == [2, 3, 3]
        # An odd row: pi_5 is the first marginal of the second odd chunk,
        # walked after the three even chunks.
        run = with_row(gs.run_sinkhorn(inst, 8), 5,
                       cov=np.diag([1e-13, 1.0]), gain=np.zeros((2, 2)))
        validated.clear()
        with pytest.raises(DomainError, match=r"^marginal pi_m at m=5 is not positive definite"):
            gs.envelope_report(run, bridge)
        assert validated == [2, 3, 3, 3, 3, 3]

    def test_generic_instances_dominated(self):
        rng = np.random.default_rng(22)
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            run = gs.run_sinkhorn(inst, 30)
            bridge = gs.schrodinger_bridge_gaussian(inst)
            report = gs.envelope_report(run, bridge)
            for row in report.entropy_rows:
                assert row.value <= row.bound + 1e-10
            # the refined entropy bounds and the W2 steps too
            assert check_passes("envelope", inst, run, bridge)


# --------------------------------------------------------------------------
# The stacked chunks against per-row loops.  The ref_* functions are the
# per-row arithmetic that the chunked diagnostics replaced; every stacked
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


def ref_joint(run, m, mu, eta):
    d = mu.dim
    mean, gain, noise = run.mean[m], run.gain[m], run.cov[m]
    if m % 2 == 0:
        return Gaussian(*ref_blocks(mu, mean - gain @ mu.mean, gain, noise))
    mean, cov = ref_blocks(eta, mean - gain @ eta.mean, gain, noise)
    perm = np.concatenate([np.arange(d, 2 * d), np.arange(d)])
    return Gaussian(mean[perm], cov[np.ix_(perm, perm)])


def ref_marginal(run, m, mu, eta):
    source = mu if m % 2 == 0 else eta
    return Gaussian(run.mean[m], run.gain[m] @ source.covariance @ run.gain[m].T + run.cov[m])


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


def ref_bridge_entropy(run, m, bridge, mu, kernel):
    b = bridge.kernel
    eta_mean = b.alpha + b.beta @ mu.mean
    isq = b.noise.inv_root
    mean_term = float(np.sum((isq @ (run.mean[m] - eta_mean)) ** 2))
    cross = isq @ (run.cov[m] - b.tau) @ kernel.chi @ mu.root
    cross_term = float(np.sum(cross ** 2))
    burg = ref_burg(matcore.assert_spd(run.cov[m]), matcore.assert_spd(b.tau))
    return 0.5 * (burg + mean_term + cross_term)


def ref_rate_rows(run, bridge, mu, eta, kernel):
    noise_root = bridge.kernel.noise.root
    eta_mean = bridge.kernel.alpha + bridge.kernel.beta @ mu.mean
    sigma0 = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    d = mu.dim
    inv_gap = matcore.spd_inverse(np.eye(d) + bridge.problem.varpi)
    rows = []
    product = np.eye(d)
    for n in range((len(run) + 1) // 2):
        gain, cov, rescaled = run.gain[2 * n], run.cov[2 * n], run.rescaled_cov[2 * n]
        cov_error = matcore.spectral_norm(cov - bridge.kernel.tau)
        sqrt_error = matcore.spectral_norm(matcore.principal_sqrt(cov) - noise_root)
        mean_error = float(np.linalg.norm(run.mean[2 * n] - eta_mean))
        directed_residual = 0.0
        loop_residual = 0.0
        if n >= 1:
            loop_gain = gain @ run.gain[2 * n - 1]
            product = loop_gain @ product
            rescaled_loop = eta.inv_root @ loop_gain @ eta.root
            loop_residual = float(np.max(np.abs(rescaled_loop - (np.eye(d) - rescaled))))
            loop_residual = max(
                loop_residual,
                max(0.0, -float(np.linalg.eigvalsh(
                    matcore.symmetrize(np.eye(d) - rescaled))[0])),
                max(0.0, float(np.linalg.eigvalsh(matcore.symmetrize(
                    (np.eye(d) - rescaled) - inv_gap))[-1])),
            )
            sigma_2n = gain @ mu.covariance @ gain.T + cov
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
    run = gs.run_sinkhorn(inst, half_steps)
    bridge = gs.schrodinger_bridge_gaussian(inst)
    b_joint = gs.bridge_joint(mu, bridge)
    report = gs.envelope_report(run, bridge)
    rows = range(len(run))
    assert [r.value for r in report.entropy_rows] == [
        ref_kl(b_joint, ref_joint(run, m, mu, eta)) for m in rows]
    dist = [ref_w2(ref_marginal(run, m, mu, eta), mu if m % 2 else eta) for m in rows]
    assert [r.value for r in report.w2_rows] == dist[1:]
    even = rows[::2]
    assert gs.entropy_formula_table(run, bridge) == [
        (m // 2, ref_bridge_entropy(run, m, bridge, mu, kernel),
         ref_kl(ref_joint(run, m, mu, eta), b_joint)) for m in even]
    for m in rows[:3]:
        joint, ref = gs.sinkhorn_joint(run, m), ref_joint(run, m, mu, eta)
        assert joint.mean.tobytes() == ref.mean.tobytes()
        assert joint.covariance.tobytes() == ref.covariance.tobytes()
        # the joint's image block is the marginal pi_n: y at even n, x at odd n
        image = slice(None, mu.dim) if m % 2 else slice(mu.dim, None)
        pi = ref_marginal(run, m, mu, eta)
        assert joint.covariance[image, image].tobytes() == pi.covariance.tobytes()
    if len(even) > gs.MIN_RATE_PAIRS:
        rows = gs.rate_report(run, bridge).rows
        assert list(rows) == ref_rate_rows(run, bridge, mu, eta, kernel)


def chunk_rows(d):
    """Rows per chunk of one parity under the current chunk budget."""
    return max(1, matcore.CHUNK_ELEMENTS // (2 * d) ** 2)


class TestStackedOracle:
    @pytest.mark.parametrize("evens", [1, 7, 8, 9, 17])
    def test_default_budget_at_d16(self, evens):
        # 8 rows per chunk at d = 16; both parities cross the boundary.
        assert chunk_rows(16) == 8
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
            assert chunk_rows(d) == per_chunk
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
        run = gs.run_sinkhorn(inst, 12)
        for n, cov in enumerate(run.cov):
            np.testing.assert_allclose(envelope.upper[n], cov, atol=1e-10)
            np.testing.assert_allclose(envelope.lower[n], cov, atol=1e-10)
        assert max(envelope.rescaled_residuals) <= 1e-10

    def test_widened_gap_gives_strict_sandwich(self):
        rng = np.random.default_rng(24)
        inst = random_instance(rng, 2)
        envelope = gs.strongly_convex_covariance_envelope(
            inst.mu.covariance, inst.mu.covariance / 2.0,
            inst.eta.covariance, inst.eta.covariance,
            inst.kernel, 10,
        )
        assert max(envelope.sandwich_residuals) <= 1e-10
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

    def test_one_conditional_covariance_update(self, monkeypatch):
        # The flow and both envelope recursions make each half step through one
        # update, numbered by the step it makes, and take no spd_inverse.
        steps = []
        update = gs._conditional_cov

        def recording(precision, chi, cov, step):
            steps.append(step)
            return update(precision, chi, cov, step)

        def forbidden(*args, **kwargs):
            raise AssertionError("spd_inverse called")

        monkeypatch.setattr(gs, "_conditional_cov", recording)
        monkeypatch.setattr(matcore, "spd_inverse", forbidden)
        inst = random_instance(np.random.default_rng(27), 3)
        gs.strongly_convex_covariance_envelope(
            inst.mu.covariance, inst.mu.covariance / 2.0,
            inst.eta.covariance, inst.eta.covariance, inst.kernel, 4)
        assert steps == [1, 1, 2, 2, 3, 3, 4, 4]
        steps.clear()
        gs.run_sinkhorn(inst, 4)
        assert steps == [1, 2, 3, 4]

    def test_ordering_validated(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, 2)
        with pytest.raises(DomainError):
            gs.strongly_convex_covariance_envelope(
                inst.mu.covariance, inst.mu.covariance * 2.0,
                inst.eta.covariance, inst.eta.covariance,
                inst.kernel, 4,
            )

    def test_sigma_bar_ordering_validated(self):
        inst = random_instance(np.random.default_rng(26), 2)
        with pytest.raises(DomainError, match="^need sigma_bar_minus <= sigma_bar"):
            gs.strongly_convex_covariance_envelope(
                inst.mu.covariance, inst.mu.covariance,
                inst.eta.covariance, inst.eta.covariance * 2.0,
                inst.kernel, 4,
            )


class TestInstance:
    def test_dimensions_must_agree(self):
        inst = random_instance(np.random.default_rng(3), 3)
        eta = random_instance(np.random.default_rng(4), 2).eta
        message = r"^instance dimensions differ: mu 3, eta 2, kernel 3$"
        with pytest.raises(DomainError, match=message):
            gs.GaussianInstance(inst.mu, eta, inst.kernel)

    def test_readers_take_the_instance_from_the_run(self):
        # Given the measures of another d=3 instance, envelope_report once
        # read H(bridge | P_3) = 31.75 instead of 3.00; now it takes none.
        inst = random_instance(np.random.default_rng(3), 3)
        run = gs.run_sinkhorn(inst, 4)
        assert run.instance is inst
        for reader, params in ((gs.sinkhorn_joint, ["run", "m"]),
                               (gs.bridge_entropy, ["run", "n", "bridge"]),
                               (gs.entropy_formula_table, ["run", "bridge"]),
                               (gs.rate_report, ["run", "bridge"]),
                               (gs.envelope_report, ["run", "bridge"])):
            assert list(inspect.signature(reader).parameters) == params, reader
        for builder in (gs.run_sinkhorn, gs.schrodinger_bridge_gaussian,
                        gs.RiccatiProblem.from_instance, gs.sinkhorn_step):
            assert "instance" in inspect.signature(builder).parameters, builder
            assert "mu" not in inspect.signature(builder).parameters, builder


class TestInstanceJson:
    def test_round_trip(self):
        rng = np.random.default_rng(28)
        inst = random_instance(rng, 3)
        payload = json.loads(json.dumps(gs.instance_to_json(inst)))
        clone = gs.instance_from_json(payload)
        np.testing.assert_allclose(clone.mu.mean, inst.mu.mean)
        np.testing.assert_allclose(clone.mu.covariance, inst.mu.covariance)
        np.testing.assert_allclose(clone.kernel.beta, inst.kernel.beta)

    @pytest.mark.parametrize("key", ["sigma", "sigma_bar", "tau"])
    def test_non_spd_covariance_is_named_by_its_key(self, key):
        payload = gs.instance_to_json(random_instance(np.random.default_rng(30), 2))
        payload[key] = [1.0, 0.0, 0.0, -1.0]
        with pytest.raises(DomainError, match=f"^{key}: covariance is not positive definite"):
            gs.instance_from_json(payload)
