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
from bridgelab.divergences import Gaussian, _gaussian_kl, _gaussian_w2, gaussian_kl
from bridgelab.errors import DomainError, NumericalError

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


def riccati_chain(problem, v0, count):
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


def check_passes(name, run, bridge):
    """Whether the harness rule of Gaussian check ``name`` passes on the rows it builds."""
    check = harness.REGIMES["gaussian"].checks[name]
    return check.rule(check.rows(run, bridge))[0]


def with_row(run, m, **fields):
    """``run`` with row ``m`` of each named field replaced, a new covariance re-factored."""
    stacks = {}
    for name, value in fields.items():
        stacks[name] = getattr(run, name).copy()
        stacks[name][m] = value
    if "cov" in fields:
        stacks["cov_vals"], stacks["cov_vecs"] = run.cov_vals.copy(), run.cov_vecs.copy()
        stacks["cov_vals"][m], stacks["cov_vecs"][m] = np.linalg.eigh(stacks["cov"][m])
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
        mu, kernel = inst.mu, inst.kernel
        run = gs.run_sinkhorn(inst, 9)
        fields = ("mean", "gain", "cov", "cov_vals", "cov_vecs")
        shapes = ((10, d), (10, d, d), (10, d, d), (10, d), (10, d, d))
        for name, shape in zip(fields, shapes):
            stack = getattr(run, name)
            assert len(run) == 10 and stack.shape == shape, name
            assert not stack.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.cov = run.cov.copy()
        # row 0 is the reference kernel, factored as its noise is; row m + 1
        # is one sinkhorn_step of row m, each step fed the arrays the one
        # before returned
        row = (kernel.alpha + kernel.beta @ mu.mean, kernel.beta, kernel.tau,
               kernel.noise.w, kernel.noise.q)
        for m in range(len(run)):
            for name, value in zip(fields, row):
                assert getattr(run, name)[m].tobytes() == value.tobytes(), (m, name)
            row = gs.sinkhorn_step(m, row[0], row[2], inst)

    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_derived_rescaled_rows_equal_per_step_products(self, d, monkeypatch):
        # The run stores no rescaled covariance: R_m = s^-1/2 cov_m s^-1/2,
        # s = sigma_bar at even m and sigma at odd m, is derived on read from
        # stacked chunks, bit for bit the product of each step's covariance.
        inst = random_instance(np.random.default_rng(31 + d), d)
        run = gs.run_sinkhorn(inst, 40)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        sources = (inst.eta, inst.mu)
        mean, cov = run.mean[0], run.cov[0]
        per_step = [inst.eta.inv_root @ cov @ inst.eta.inv_root]
        for m in range(len(run) - 1):
            mean, _, cov, *_ = gs.sinkhorn_step(m, mean, cov, inst)
            source = sources[(m + 1) % 2]
            per_step.append(source.inv_root @ cov @ source.inv_root)
        per_step = np.array(per_step)
        monkeypatch.setattr(matcore, "CHUNK_ELEMENTS", 3 * (2 * d) ** 2)  # three rows a chunk
        for odd in (0, 1):
            whole = gs._rescaled(sources[odd], run.cov[odd::2])
            assert whole.tobytes() == per_step[odd::2].tobytes(), odd
        chunks = list(gs._chunks(d, run.cov))
        assert len(chunks) == 14
        for odd, at, chunk in chunks:
            derived = gs._rescaled(sources[odd], chunk)
            assert derived.tobytes() == per_step[odd::2][at].tobytes(), (odd, at)
        # Both readers derive the even rows, eta-rescaled, in the same chunks.
        derived = []
        rescaled = gs._rescaled

        def record(source, cov):
            value = rescaled(source, cov)
            derived.append(value.reshape(-1, d, d))
            return value

        monkeypatch.setattr(gs, "_rescaled", record)
        gs.riccati_equivalence_errors(run, bridge)
        even = per_step[0::2]
        assert np.concatenate(derived).tobytes() == np.concatenate([even[:1], even]).tobytes()
        derived.clear()
        gs.rate_report(run, bridge)
        assert np.concatenate(derived).tobytes() == even[1:].tobytes()

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
        rescaled_even = inst.eta.inv_root @ run.cov[::2] @ inst.eta.inv_root
        for rescaled in rescaled_even:
            assert rescaled[0, 0] == pytest.approx(v, abs=1e-13)
            v = 1.0 / (1.0 + 1.0 / (1.0 + v))
        assert rescaled_even[-1, 0, 0] == pytest.approx(GOLDEN, abs=1e-12)

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
            mean, _, cov, *_ = gs.sinkhorn_step(m, mean, cov, inst)
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
        zero_chain = riccati_chain(problem, np.zeros((3, 3)), 6)
        eye_chain = riccati_chain(problem, np.eye(3), 6)
        v_chain = riccati_chain(problem, v1, 6)
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
            # even rows rescaled by sigma_bar, odd rows by sigma
            even = inst.eta.inv_root @ run.cov[0::2] @ inst.eta.inv_root
            odd = inst.mu.inv_root @ run.cov[1::2] @ inst.mu.inv_root
            current = even[0]
            for rescaled in even[1:]:
                current = gs.riccati_apply(problem, current)
                np.testing.assert_allclose(rescaled, current, atol=1e-10)
            flipped = gs.RiccatiProblem(problem.gamma.T)
            current = odd[0]
            for rescaled in odd[1:]:
                current = gs.riccati_apply(flipped, current)
                np.testing.assert_allclose(rescaled, current, atol=1e-10)


def random_problem(rng, d, top, spread):
    """A problem whose varpi has eigenvalues log-uniform in [10^(top - spread), 10^top]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return gs.RiccatiProblem(q / np.sqrt(10.0 ** rng.uniform(top - spread, top, size=d)))


class TestRiccatiIterates:
    def test_scalar_golden_values(self):
        # varpi = 1 from v = 0: 1/2, 3/5 = (1/2 + 1)/(1/2 + 2), ..., towards (sqrt 5 - 1)/2.
        problem = gs.RiccatiProblem(np.array([[1.0]]))
        values = gs.riccati_iterates(problem, np.zeros((1, 1)), np.array([1, 2, 40]))[:, 0, 0]
        np.testing.assert_allclose(values, [0.5, 0.6, GOLDEN], rtol=0, atol=1e-15)

    def test_shape_follows_the_steps(self):
        problem = random_problem(np.random.default_rng(1), 3, 0.0, 1.0)
        v0 = np.eye(3)
        assert gs.riccati_iterates(problem, v0, 2).shape == (3, 3)
        assert gs.riccati_iterates(problem, v0, np.arange(5)).shape == (5, 3, 3)
        assert gs.riccati_iterates(problem, v0, np.ones((2, 4), dtype=int)).shape == (2, 4, 3, 3)
        np.testing.assert_allclose(gs.riccati_iterates(problem, v0, 0), v0, atol=1e-15)

    def test_one_eigvalsh_per_call(self, linalg_calls):
        problem = random_problem(np.random.default_rng(1), 3, 0.0, 1.0)
        linalg_calls.clear()
        gs.riccati_iterates(problem, np.eye(3), np.arange(40).reshape(4, 10))
        assert linalg_calls == ["eigvalsh"]

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           top=st.floats(-2.0, 8.0), spread=st.floats(0.0, 3.0), rank=st.integers(0, 6),
           steps=st.integers(0, 60))
    def test_equals_a_chain_of_applies(self, d, seed, top, spread, rank, steps):
        # v0 is PSD of rank min(rank, d): zero at rank 0, singular whenever rank < d.
        # The worst of 3000 random cases (60 steps, v0 of norm up to 10) was
        # 1.9e-14 per unit of max(1, ||v0||_2).
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, d, top, spread)
        factor = rng.normal(size=(d, min(rank, d)))
        v0 = factor @ factor.T
        chain = np.array(riccati_chain(problem, v0, steps))
        closed = gs.riccati_iterates(problem, v0, np.arange(steps + 1))
        error = float(np.max(np.abs(closed - chain)))
        assert error <= RICCATI_RTOL * max(1.0, matcore.spectral_norm(v0))

    def test_engine_agreement_at_d16_over_1000_iterations(self):
        # 2001 half steps of gaussian-random-spd d=16 seed 3.  Measured: the
        # closed form is 6.8e-15 from the run and 1.1e-14 from the chain of
        # 1000 applies; 1e-13 leaves a margin and is 1000x inside the check's 1e-10.
        inst = harness.generate_instance("gaussian", 16, 3, "gaussian-random-spd")
        run = gs.run_sinkhorn(inst, 2000)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        errors = gs.riccati_equivalence_errors(run, bridge)
        assert len(errors) == 1001
        assert max(errors) <= 1e-13
        v0 = inst.eta.inv_root @ run.cov[0] @ inst.eta.inv_root
        chain = np.array(riccati_chain(bridge.problem, v0, 1000))
        closed = gs.riccati_iterates(bridge.problem, v0, np.arange(1001))
        assert float(np.max(np.abs(closed - chain))) <= 1e-13

    def test_one_eigvalsh_per_call_and_one_solve_per_chunk(self, linalg_calls, monkeypatch):
        # 25 even rows at d = 16 are 4 chunks of at most 8.  v0's PSD check
        # and the rest of the closed form's set-up are made once per call.
        inst = random_instance(np.random.default_rng(2), 16)
        run = gs.run_sinkhorn(inst, 48)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        solved = []
        original = np.linalg.solve

        def counted(a, b):
            solved.append(a.shape)
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        linalg_calls.clear()
        errors = gs.riccati_equivalence_errors(run, bridge)
        assert len(errors) == 25
        assert linalg_calls == ["eigvalsh"]
        assert solved == [(8, 16, 16)] * 3 + [(1, 16, 16)]

    def test_rejects_a_v0_that_is_not_psd(self):
        # varpi = 100 I: the map is defined at v0, but v0 is not PSD.
        problem = gs.RiccatiProblem(0.1 * np.eye(2))
        with pytest.raises(DomainError,
                           match="^riccati_iterates needs a positive semi-definite argument$"):
            gs.riccati_iterates(problem, np.diag([1.0, -0.5]), np.arange(3))

    def test_rejects_a_v_of_another_dimension(self):
        # Both once raised numpy's broadcast ValueError.
        problem = gs.RiccatiProblem(np.eye(2))
        with pytest.raises(DomainError, match=r"^v must have shape \(2, 2\), got \(3, 3\)$"):
            gs.riccati_apply(problem, np.eye(3))
        with pytest.raises(DomainError, match=r"^v0 must have shape \(2, 2\), got \(1, 1\)$"):
            gs.riccati_iterates(problem, np.eye(1), np.arange(3))

    @pytest.mark.parametrize("steps", [np.array([0, -1]), np.array([1.0, 2.0]),
                                       np.array([True]), -2, 2.5])
    def test_rejects_steps_that_are_not_non_negative_integers(self, steps):
        problem = gs.RiccatiProblem(np.eye(2))
        with pytest.raises(DomainError, match="^riccati_iterates needs non-negative integer steps"):
            gs.riccati_iterates(problem, np.eye(2), steps)

    def test_rate_base_is_the_flow_growth(self):
        # rate_report's theoretical slope is -2 log lambda_+ at varpi's least eigenvalue.
        inst = random_instance(np.random.default_rng(5), 3)
        run = gs.run_sinkhorn(inst, 2 * gs.MIN_RATE_PAIRS)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        w0 = float(bridge.problem.w[0])
        slope = -2.0 * math.log(1.0 + (w0 + math.sqrt(w0 * (w0 + 4.0))) / 2.0)
        assert gs.rate_report(run, bridge).theoretical_slope == slope
        assert slope == -2.0 * math.log(1.0 + float(bridge.problem.growth[0]))


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
            cov_vals=kernel.noise.w[None],
            cov_vecs=kernel.noise.q[None],
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
            b_joint = gs.bridge_joint(bridge)
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


def joint_kls(run, bridge):
    """H(bridge | P_m) for every row and H(P_2n | bridge) for every even row, as 2d joint KLs."""
    b_joint = gs.bridge_joint(bridge)
    envelope, formula = [], []
    for m in range(len(run)):
        mean, cov = gs._iterate_blocks(run.mean[m], run.gain[m], run.cov[m], m % 2, run.instance)
        envelope.append(float(_gaussian_kl(b_joint.mean, b_joint.covariance, mean, cov)))
        if m % 2 == 0:
            formula.append(float(_gaussian_kl(mean, cov, b_joint.mean, b_joint.covariance)))
    return envelope, formula


def assert_kernel_kls_match_joints(run, bridge):
    """The chain-rule values of envelope and entropy-formula against the 2d joint KL."""
    envelope, formula = joint_kls(run, bridge)
    values = [row.value for row in gs.envelope_report(run, bridge).entropy_rows]
    closed = [value for _, value, _ in gs.entropy_formula_table(run, bridge)]
    assert len(values) == len(envelope) and len(closed) == len(formula)
    for value, joint in zip(values + closed, envelope + formula):
        assert abs(value - joint) <= 1e-9 * max(1.0, abs(joint))


class TestKernelKL:
    def test_scalar_closed_form(self):
        source = Gaussian(np.array([0.3]), np.array([[0.7]]))
        k1 = (np.array([0.5]), np.array([[1.4]]), np.array([[0.6]]))
        k2 = (np.array([-0.2]), np.array([[0.9]]), np.array([[1.1]]))
        ratio = 0.6 / 1.1
        expected = 0.5 * (ratio - 1.0 - math.log(ratio) + 0.7 ** 2 / 1.1 + 0.5 ** 2 * 0.7 / 1.1)
        assert float(gs._kernel_kl(source, k1, k2)) == pytest.approx(expected, rel=1e-14)

    def test_a_non_positive_log_det_is_a_numerical_error(self):
        source = Gaussian(np.zeros(1), np.eye(1))
        k1 = (np.zeros(1), np.eye(1), -np.eye(1))
        k2 = (np.zeros(1), np.eye(1), np.eye(1))
        with pytest.raises(NumericalError, match="^log-det of an SPD ratio came out non-positive$"):
            gs._kernel_kl(source, k1, k2)

    def test_envelope_builds_no_joint(self, monkeypatch):
        inst = random_instance(np.random.default_rng(33), 3)
        run = gs.run_sinkhorn(inst, 9)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        expected = gs.envelope_report(run, bridge)

        def forbidden(*args, **kwargs):
            raise AssertionError("envelope_report built a 2d x 2d joint")

        for name in ("_gaussian_kl", "_iterate_blocks", "_affine_blocks", "bridge_joint"):
            monkeypatch.setattr(gs, name, forbidden)
        assert gs.envelope_report(run, bridge) == expected

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), half_steps=st.integers(0, 41))
    def test_matches_the_joint_kl(self, d, seed, half_steps):
        # Both parities: odd rows compare the bridge's backward kernel on eta.
        inst = random_instance(np.random.default_rng(seed), d)
        assert_kernel_kls_match_joints(gs.run_sinkhorn(inst, half_steps),
                                       gs.schrodinger_bridge_gaussian(inst))

    def test_matches_the_joint_kl_at_d16_over_1000_iterations(self):
        inst = harness.generate_instance("gaussian", 16, 3, "gaussian-random-spd")
        assert_kernel_kls_match_joints(gs.run_sinkhorn(inst, 2000),
                                       gs.schrodinger_bridge_gaussian(inst))


class TestRunFactors:
    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    def test_factors_reproduce_each_row(self, d):
        inst = random_instance(np.random.default_rng(50 + d), d)
        run = gs.run_sinkhorn(inst, 40)
        rebuilt = (run.cov_vecs * run.cov_vals[:, None, :]) @ np.swapaxes(run.cov_vecs, 1, 2)
        error = np.max(np.abs(rebuilt - run.cov), axis=(1, 2))
        assert np.all(error <= 1e-14 * np.max(np.abs(run.cov), axis=(1, 2)))

    def test_rate_report_factors_nothing(self, linalg_calls):
        # tau_2n^1/2 comes from the factors the run kept, so the rate report
        # makes no eigh: its eigvalsh calls are the spectral norms and bounds.
        inst = random_instance(np.random.default_rng(51), 3)
        run = gs.run_sinkhorn(inst, 40)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        linalg_calls.clear()
        gs.rate_report(run, bridge)
        assert linalg_calls and "eigh" not in linalg_calls

    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_sqrt_error_agrees_with_a_fresh_root(self, d):
        inst = random_instance(np.random.default_rng(52 + d), d)
        run = gs.run_sinkhorn(inst, 40)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        rows = gs.rate_report(run, bridge).rows
        for row, cov in zip(rows, run.cov[0::2]):
            fresh = matcore.spectral_norm(matcore.principal_sqrt(cov) - bridge.kernel.noise.root)
            assert abs(row.sqrt_error - fresh) <= 1e-12 * max(1.0, fresh)

    def test_with_row_refactors_the_rows_it_edits(self):
        inst = random_instance(np.random.default_rng(53), 2)
        run = gs.run_sinkhorn(inst, 8)
        edited = with_row(run, 6, cov=np.diag([0.5, 2.0]))
        vals, vecs = edited.cov_vals[6], edited.cov_vecs[6]
        np.testing.assert_allclose((vecs * vals) @ vecs.T, np.diag([0.5, 2.0]), atol=1e-15)
        for name in ("cov", "cov_vals", "cov_vecs"):
            kept = np.arange(len(run)) != 6
            assert getattr(edited, name)[kept].tobytes() == getattr(run, name)[kept].tobytes()

    def test_a_stale_factor_is_a_numerical_error(self):
        # A covariance row replaced without its factors: the root read from
        # them misses the row, and the residual check of the root names it.
        inst = random_instance(np.random.default_rng(54), 2)
        run = gs.run_sinkhorn(inst, 40)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        cov = run.cov.copy()
        cov[8] *= 2.0
        with pytest.raises(NumericalError,
                           match=r"^square root residual .* exceeds tolerance for tau_2n at n=4$"):
            gs.rate_report(dataclasses.replace(run, cov=cov), bridge)


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
        assert check_passes("riccati-rate", run, bridge)
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
        assert all(a is b for a, b in zip(
            walks[0], (run.mean, run.gain, run.cov, run.cov_vals, run.cov_vecs), strict=True))
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
        assert check_passes("envelope", run, bridge)

    def test_scalar_contractive_instance(self):
        inst = scalar_instance(m=0.2, sigma=0.8, m_bar=-0.1, sigma_bar=0.9, beta=1.0, tau=2.0)
        run = gs.run_sinkhorn(inst, 40)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        report = gs.envelope_report(run, bridge)
        assert report.kappa == pytest.approx(0.5)
        assert report.gate_contractive
        assert check_passes("envelope", run, bridge)
        assert len(report.chained_w2_rows) > 0

    def test_one_w2_distance_per_state(self, monkeypatch):
        calls = []

        def counted(p_mean, p_cov, q_mean, q_root, q_inv_root):
            calls.extend((mean, q_mean, q_root, q_inv_root) for mean in p_mean)
            return _gaussian_w2(p_mean, p_cov, q_mean, q_root, q_inv_root)

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
            # target its half step matches, by the target's cached roots,
            # once, in row order per parity
            for parity, target in ((0, inst.eta), (1, inst.mu)):
                measured = [(mean, q_mean) for mean, q_mean, q_root, q_inv_root in calls
                            if q_root is target.root and q_inv_root is target.inv_root]
                assert all(q_mean is target.mean for _, q_mean in measured)
                means = run.mean[parity::2]
                assert len(measured) == len(means)
                assert all(np.array_equal(a, b) for (a, _), b in zip(measured, means))

    def test_one_eigh_per_row(self, monkeypatch):
        # The W2 root C of each marginal; the marginals are validated by
        # eigvalsh, and the targets' roots are the ones their Gaussians cache.
        inst = random_instance(np.random.default_rng(55), 3)
        run = gs.run_sinkhorn(inst, 20)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        monkeypatch.setattr(matcore, "CHUNK_ELEMENTS", 4 * 6 ** 2)  # four rows a chunk
        shapes = []
        original = np.linalg.eigh

        def counting(a):
            shapes.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        gs.envelope_report(run, bridge)
        stacked = [shape[0] for shape in shapes if len(shape) == 3]
        assert stacked == [4, 4, 3, 4, 4, 2]
        assert sum(stacked) == len(run)
        # The other three are single matrices of the bridge's backward kernel:
        # its pushed marginal, the inverse of its noise's precision and its noise.
        assert len(shapes) == len(stacked) + 3

    def test_names_an_unresolvable_marginal_by_step(self, monkeypatch):
        inst = random_instance(np.random.default_rng(29), 2)
        bridge = gs.schrodinger_bridge_gaussian(inst)
        # With zero gain the marginal pi_6 is the conditional covariance,
        # far below the SPD floor.
        run = with_row(gs.run_sinkhorn(inst, 8), 6,
                       cov=np.diag([1e-13, 1.0]), gain=np.zeros((2, 2)))
        # Two even rows per chunk: pi_6 is the second marginal of its chunk.
        monkeypatch.setattr(matcore, "CHUNK_ELEMENTS", 2 * 4 ** 2)
        validated = count_calls(monkeypatch, "assert_spd")
        with pytest.raises(DomainError, match=r"^marginal pi_m at m=6 is not positive definite"):
            gs.envelope_report(run, bridge)
        # the bridge's backward kernel (the inverse of its noise's precision),
        # then one stacked call per chunk of marginals
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
            assert check_passes("envelope", run, bridge)


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
    cross = matcore.principal_sqrt(q.root @ p.covariance @ q.root)
    gap = (q.root - q.inv_root @ cross).reshape(-1)
    mean_sq = float(np.sum((p.mean - q.mean) ** 2))
    return math.sqrt(mean_sq + float(np.dot(gap, gap)))


def ref_kernel_kl(source, k1, k2):
    (mean1, gain1, noise1), (mean2, gain2, noise2) = k1, k2
    d = source.dim
    delta = mean1 - mean2
    spread = (gain1 - gain2) @ source.root
    solved = np.linalg.solve(noise2, np.hstack([noise1, delta[:, None], spread]))
    ratio = solved[:, :d]
    sign, logdet = np.linalg.slogdet(ratio)
    assert sign > 0
    burg = float(np.trace(ratio) - d - logdet)
    quad = float(delta @ solved[:, d])
    cross = float(np.sum(spread * solved[:, d + 1:]))
    return 0.5 * (burg + quad + cross)


def ref_bridge_kernels(bridge, mu, eta):
    """The bridge's forward kernel (source mu) and backward kernel (source eta), per parity."""
    b, back = bridge.kernel, gs.conjugate_kernel(mu, bridge.kernel)
    return ((b.alpha + b.beta @ mu.mean, b.beta, b.tau),
            (back.alpha + back.beta @ eta.mean, back.beta, back.tau))


def ref_row_kernel(run, m):
    return run.mean[m], run.gain[m], run.cov[m]


def ref_rate_rows(run, bridge, mu, eta, kernel):
    noise_root = bridge.kernel.noise.root
    eta_mean = bridge.kernel.alpha + bridge.kernel.beta @ mu.mean
    sigma0 = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    d = mu.dim
    inv_gap = matcore.spd_inverse(np.eye(d) + bridge.problem.varpi)
    rows = []
    product = np.eye(d)
    for n in range((len(run) + 1) // 2):
        gain, cov = run.gain[2 * n], run.cov[2 * n]
        rescaled = eta.inv_root @ cov @ eta.inv_root
        cov_error = matcore.spectral_norm(cov - bridge.kernel.tau)
        root = matcore.eigh_sqrt(cov, run.cov_vals[2 * n], run.cov_vecs[2 * n])
        sqrt_error = matcore.spectral_norm(root - noise_root)
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
    b_joint = gs.bridge_joint(bridge)
    kernels = ref_bridge_kernels(bridge, mu, eta)
    report = gs.envelope_report(run, bridge)
    rows = range(len(run))
    assert [r.value for r in report.entropy_rows] == [
        ref_kernel_kl(eta if m % 2 else mu, kernels[m % 2], ref_row_kernel(run, m)) for m in rows]
    dist = [ref_w2(ref_marginal(run, m, mu, eta), mu if m % 2 else eta) for m in rows]
    assert [r.value for r in report.w2_rows] == dist[1:]
    even = rows[::2]
    assert gs.entropy_formula_table(run, bridge) == [
        (m // 2, ref_kernel_kl(mu, ref_row_kernel(run, m), kernels[0]),
         ref_kl(ref_joint(run, m, mu, eta), b_joint)) for m in even]
    # one closed-form iterate per even row, bit for bit
    rescaled = [eta.inv_root @ run.cov[m] @ eta.inv_root for m in rows]
    assert gs.riccati_equivalence_errors(run, bridge) == [
        float(np.max(np.abs(rescaled[m] - gs.riccati_iterates(
            bridge.problem, rescaled[0], m // 2)))) for m in even]
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

    @pytest.mark.parametrize("n_max, message", [
        (-1, r"^n_max must be >= 0, got -1$"),
        (2.5, r"^n_max must be an int, got 2\.5$"),
    ])
    def test_step_count_is_validated(self, n_max, message):
        # -1 once returned a one-row envelope, and 2.5 raised a bare TypeError.
        inst = random_instance(np.random.default_rng(26), 2)
        with pytest.raises(DomainError, match=message):
            gs.strongly_convex_covariance_envelope(
                inst.mu.covariance, inst.mu.covariance,
                inst.eta.covariance, inst.eta.covariance, inst.kernel, n_max)

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
                               (gs.envelope_report, ["run", "bridge"]),
                               (gs.riccati_equivalence_errors, ["run", "bridge"])):
            assert list(inspect.signature(reader).parameters) == params, reader
        for builder in (gs.run_sinkhorn, gs.schrodinger_bridge_gaussian,
                        gs.RiccatiProblem.from_instance, gs.sinkhorn_step):
            assert "instance" in inspect.signature(builder).parameters, builder
            assert "mu" not in inspect.signature(builder).parameters, builder

    def test_readers_reject_a_bridge_of_another_instance(self):
        # With the run of d=3 seed 0 and seed 1's bridge, envelope_report once
        # read H(bridge | P_3) = 17.83 instead of 3.00, and rate_report's last
        # cov_error 0.839 instead of 1.1e-7.
        insts = [harness.generate_instance("gaussian", 3, seed, "gaussian-random-spd")
                 for seed in (0, 1)]
        run = gs.run_sinkhorn(insts[0], 40)
        own, other = map(gs.schrodinger_bridge_gaussian, insts)
        assert own.instance is insts[0] and other.instance is insts[1]
        assert gs.envelope_report(run, own).entropy_rows[3].value == pytest.approx(3.00, abs=0.01)
        assert gs.rate_report(run, own).rows[-1].cov_error < 1.2e-7
        # An equal instance built again is another instance too, as a discrete model is.
        again = gs.schrodinger_bridge_gaussian(dataclasses.replace(insts[0]))
        message = "^the bridge was solved for another instance$"
        for bridge in (other, again):
            for read in (lambda b: gs.bridge_entropy(run, 2, b),
                         lambda b: gs.entropy_formula_table(run, b),
                         lambda b: gs.rate_report(run, b),
                         lambda b: gs.envelope_report(run, b),
                         lambda b: gs.riccati_equivalence_errors(run, b)):
                with pytest.raises(DomainError, match=message):
                    read(bridge)


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
