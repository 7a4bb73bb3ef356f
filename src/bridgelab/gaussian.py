"""Closed-form Gaussian Sinkhorn engine.

The iteration state is the affine-map parameterization of the current kernel
(mean anchor, gain, noise covariance); covariances evolve by conjugate Bayes
updates, equivalently by a rescaled Riccati matrix flow whose fixed point
gives the bridge in closed form.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import fitting, matcore
from .divergences import Gaussian, burg_divergence, gaussian_kl, gaussian_w2
from .errors import DomainError, NumericalError
from .matcore import _frozen

GAIN_TOL = 1e-10


@dataclass(frozen=True)
class LinearGaussianKernel:
    """Affine-Gaussian transition x -> alpha + beta x + noise(tau)."""

    alpha: np.ndarray
    beta: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=float).reshape(-1)
        beta = np.asarray(self.beta, dtype=float)
        tau = matcore.assert_spd(self.tau, "tau")
        d = alpha.size
        if beta.shape != (d, d) or tau.shape != (d, d):
            raise DomainError("kernel parameter dimensions are inconsistent")
        sv = np.linalg.svd(beta, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise DomainError(f"beta is numerically singular (min singular value {sv[-1]:.3e})")
        object.__setattr__(self, "alpha", _frozen(alpha))
        object.__setattr__(self, "beta", _frozen(beta))
        object.__setattr__(self, "tau", _frozen(tau))

    @property
    def dim(self) -> int:
        return self.alpha.size

    @functools.cached_property
    def chi(self) -> np.ndarray:
        """tau^{-1} beta, the kernel's Fisher-Lipschitz matrix (computed once)."""
        return _frozen(matcore.spd_inverse(self.tau) @ self.beta)


def kernel_to_json(kernel: LinearGaussianKernel) -> dict:
    return {
        "alpha": [float(x) for x in kernel.alpha],
        "beta": [float(x) for x in kernel.beta.reshape(-1)],
        "tau": [float(x) for x in kernel.tau.reshape(-1)],
    }


@dataclass(frozen=True)
class GaussianInstance:
    """A full problem instance: two Gaussian marginals plus the reference kernel."""

    mu: Gaussian
    eta: Gaussian
    kernel: LinearGaussianKernel


def instance_to_json(instance: GaussianInstance) -> dict:
    d = instance.mu.dim
    return {
        "d": d,
        "m": [float(x) for x in instance.mu.mean],
        "sigma": [float(x) for x in instance.mu.covariance.reshape(-1)],
        "m_bar": [float(x) for x in instance.eta.mean],
        "sigma_bar": [float(x) for x in instance.eta.covariance.reshape(-1)],
        **kernel_to_json(instance.kernel),
    }


def instance_from_json(payload: dict | str) -> GaussianInstance:
    if isinstance(payload, str):
        payload = json.loads(payload)
    d = int(payload.get("d") or len(payload["m"]))
    mat = lambda key: np.asarray(payload[key], dtype=float).reshape(d, d)
    return GaussianInstance(
        mu=Gaussian(np.asarray(payload["m"], dtype=float), mat("sigma")),
        eta=Gaussian(np.asarray(payload["m_bar"], dtype=float), mat("sigma_bar")),
        kernel=LinearGaussianKernel(np.asarray(payload["alpha"], dtype=float),
                                    mat("beta"), mat("tau")),
    )


def push_forward(mu: Gaussian, kernel: LinearGaussianKernel) -> Gaussian:
    """Image of a Gaussian under the kernel: mean alpha + beta m, cov beta sigma beta' + tau."""
    if mu.dim != kernel.dim:
        raise DomainError("dimension mismatch in push_forward")
    mean = kernel.alpha + kernel.beta @ mu.mean
    cov = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    return Gaussian(mean, cov)


def conjugate_kernel(mu: Gaussian, kernel: LinearGaussianKernel) -> LinearGaussianKernel:
    """Bayes dual of the kernel w.r.t. mu (the Kalman update transition)."""
    if mu.dim != kernel.dim:
        raise DomainError("dimension mismatch in conjugate_kernel")
    pushed = push_forward(mu, kernel)
    try:
        gain = mu.covariance @ kernel.beta.T @ matcore.spd_inverse(pushed.covariance)
        noise = matcore.spd_inverse(
            matcore.spd_inverse(mu.covariance) + kernel.beta.T @ kernel.chi
        )
    except DomainError as exc:
        raise NumericalError(f"conjugate update lost positivity: {exc}") from exc
    alt = noise @ kernel.beta.T @ matcore.spd_inverse(kernel.tau)
    if float(np.max(np.abs(gain - alt))) > GAIN_TOL * max(1.0, float(np.max(np.abs(gain)))):
        raise NumericalError("conjugate gain identity beta1 = tau1 beta' tau^{-1} failed")
    alpha = mu.mean - gain @ pushed.mean
    return LinearGaussianKernel(alpha=alpha, beta=gain, tau=noise)


def affine_joint(mu: Gaussian, intercept, gain, noise) -> Gaussian:
    """Joint law of (x, a + b x + noise) as a 2d-dimensional Gaussian."""
    intercept = np.asarray(intercept, dtype=float).reshape(-1)
    gain = np.asarray(gain, dtype=float)
    noise = np.asarray(noise, dtype=float)
    d = mu.dim
    mean = np.concatenate([mu.mean, intercept + gain @ mu.mean])
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = mu.covariance
    cov[:d, d:] = mu.covariance @ gain.T
    cov[d:, :d] = gain @ mu.covariance
    cov[d:, d:] = gain @ mu.covariance @ gain.T + noise
    return Gaussian(mean, cov)


@dataclass(frozen=True)
class GaussianSinkhornState:
    """Affine-map parameters of the n-th Sinkhorn kernel plus the rescaled covariance."""

    step: int
    mean: np.ndarray
    gain: np.ndarray
    cov: np.ndarray
    rescaled_cov: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "gain", "cov", "rescaled_cov"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def initial_state(mu: Gaussian, eta: Gaussian, kernel: LinearGaussianKernel) -> GaussianSinkhornState:
    """Step 0 state: the reference kernel itself, rescaled by the target covariance."""
    isq_bar = matcore.inv_sqrt(eta.covariance)
    return GaussianSinkhornState(
        step=0,
        mean=kernel.alpha + kernel.beta @ mu.mean,
        gain=kernel.beta.copy(),
        cov=kernel.tau.copy(),
        rescaled_cov=isq_bar @ kernel.tau @ isq_bar,
    )


def sinkhorn_step(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian,
                  kernel: LinearGaussianKernel) -> GaussianSinkhornState:
    """One conjugate Bayes half step of the mean/gain/covariance recursion.

    An odd step is the even step with mu and eta swapped and chi transposed.
    """
    n = state.step
    source, target, chi = (mu, eta, kernel.chi) if n % 2 == 0 else (eta, mu, kernel.chi.T)
    try:
        cov_next = matcore.spd_inverse(
            matcore.spd_inverse(source.covariance) + chi.T @ state.cov @ chi
        )
        gain_next = cov_next @ chi.T
        mean_next = source.mean + gain_next @ (target.mean - state.mean)
        scale = matcore.inv_sqrt(source.covariance)
    except DomainError as exc:
        raise NumericalError(f"covariance lost positivity at step {n + 1}: {exc}") from exc
    return GaussianSinkhornState(
        step=n + 1,
        mean=mean_next,
        gain=gain_next,
        cov=cov_next,
        rescaled_cov=scale @ cov_next @ scale,
    )


def run_sinkhorn(mu: Gaussian, eta: Gaussian, kernel: LinearGaussianKernel,
                 half_steps: int) -> list[GaussianSinkhornState]:
    """States 0..half_steps inclusive."""
    states = [initial_state(mu, eta, kernel)]
    for _ in range(half_steps):
        states.append(sinkhorn_step(states[-1], mu, eta, kernel))
    return states


def marginal(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian) -> Gaussian:
    """The Sinkhorn marginal pi_n as a Gaussian."""
    source = mu if state.step % 2 == 0 else eta
    cov = state.gain @ source.covariance @ state.gain.T + state.cov
    return Gaussian(state.mean, cov)


def sinkhorn_joint(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian) -> Gaussian:
    """The bridge iterate P_n as a 2d-dimensional Gaussian on (x, y)."""
    d = mu.dim
    if state.step % 2 == 0:
        return affine_joint(mu, state.mean - state.gain @ mu.mean, state.gain, state.cov)
    flipped = affine_joint(eta, state.mean - state.gain @ eta.mean, state.gain, state.cov)
    perm = np.concatenate([np.arange(d, 2 * d), np.arange(d)])
    return Gaussian(flipped.mean[perm], flipped.covariance[np.ix_(perm, perm)])


# --------------------------------------------------------------------------
# Riccati flow.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiProblem:
    """The rescaled-covariance flow data: mixing matrix gamma and varpi = (gamma gamma')^{-1}."""

    varpi: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=float)
        varpi = matcore.assert_spd(self.varpi, "varpi")
        residual = float(np.max(np.abs(matcore.spd_inverse(varpi) - gamma @ gamma.T)))
        if residual > 1e-10 * max(1.0, float(np.max(np.abs(gamma @ gamma.T)))):
            raise DomainError(f"varpi^-1 != gamma gamma' (residual {residual:.3e})")
        object.__setattr__(self, "varpi", _frozen(varpi))
        object.__setattr__(self, "gamma", _frozen(gamma))

    @classmethod
    def from_gamma(cls, gamma) -> "RiccatiProblem":
        gamma = np.asarray(gamma, dtype=float)
        return cls(varpi=matcore.spd_inverse(gamma @ gamma.T), gamma=gamma)

    @classmethod
    def from_instance(cls, mu: Gaussian, eta: Gaussian,
                      kernel: LinearGaussianKernel) -> "RiccatiProblem":
        gamma = (
            matcore.principal_sqrt(eta.covariance)
            @ kernel.chi
            @ matcore.principal_sqrt(mu.covariance)
        )
        return cls.from_gamma(gamma)

    @property
    def flipped(self) -> "RiccatiProblem":
        """The companion problem driving the odd-index chain."""
        return RiccatiProblem.from_gamma(self.gamma.T)


def riccati_apply(problem: RiccatiProblem, v) -> np.ndarray:
    """One application of v -> (I + (varpi + v)^{-1})^{-1}."""
    v = matcore.symmetrize(v, "v")
    if float(np.linalg.eigvalsh(v)[0]) < matcore.SQRT_CLAMP:
        raise DomainError("riccati_apply needs a positive semi-definite argument")
    d = v.shape[0]
    inner = matcore.spd_inverse(problem.varpi + v)
    return matcore.spd_inverse(np.eye(d) + inner)


def riccati_iterates(problem: RiccatiProblem, v0, count: int) -> list[np.ndarray]:
    out = [matcore.symmetrize(v0)]
    for _ in range(count):
        out.append(riccati_apply(problem, out[-1]))
    return out


def fixed_point_residuals(problem: RiccatiProblem, r) -> dict[str, float]:
    """Residuals of every equivalent formulation of the fixed-point equation."""
    varpi = problem.varpi
    d = varpi.shape[0]
    eye = np.eye(d)
    r = matcore.symmetrize(r)
    r_inv = matcore.spd_inverse(r)
    varpi_inv = matcore.spd_inverse(varpi)
    return {
        "map": float(np.max(np.abs(riccati_apply(problem, r) - r))),
        "inverse": float(np.max(np.abs(r_inv - eye - matcore.spd_inverse(varpi + r)))),
        "varpi": float(np.max(np.abs(varpi @ r_inv - varpi - r))),
        "linear": float(np.max(np.abs(r_inv - eye - varpi_inv @ r))),
        "quadratic": float(np.max(np.abs(r + r @ varpi_inv @ r - eye))),
    }


def riccati_fixed_point(problem: RiccatiProblem) -> np.ndarray:
    """Unique positive definite fixed point -varpi/2 + (varpi + (varpi/2)^2)^{1/2}.

    Evaluated eigenvalue-wise in the conjugate form 2 w / (w + sqrt(w (w + 4)))
    to avoid the cancellation the subtraction suffers for large varpi.
    """
    varpi = problem.varpi
    w, q = np.linalg.eigh(varpi)
    vals = 2.0 * w / (w + np.sqrt(w * (w + 4.0)))
    r = matcore.symmetrize((q * vals) @ q.T)
    scale = max(1.0, float(np.max(np.abs(varpi))))
    worst = max(fixed_point_residuals(problem, r).values())
    if worst > 1e-12 * scale:
        raise NumericalError(f"riccati fixed point residual {worst:.3e} too large")
    return r


# --------------------------------------------------------------------------
# Closed-form bridge.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianBridge:
    """Parameters of the limiting bridge kernel y = intercept + gain x + noise."""

    fixed_point: np.ndarray
    noise_cov: np.ndarray
    gain: np.ndarray
    intercept: np.ndarray

    def __post_init__(self) -> None:
        for name in ("fixed_point", "noise_cov", "gain", "intercept"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def as_kernel(self) -> LinearGaussianKernel:
        return LinearGaussianKernel(alpha=self.intercept, beta=self.gain, tau=self.noise_cov)


def schrodinger_bridge_gaussian(mu: Gaussian, eta: Gaussian,
                                kernel: LinearGaussianKernel) -> GaussianBridge:
    """Assemble the closed-form bridge from the Riccati fixed point."""
    if not (mu.dim == eta.dim == kernel.dim):
        raise DomainError("dimension mismatch in schrodinger_bridge_gaussian")
    problem = RiccatiProblem.from_instance(mu, eta, kernel)
    r = riccati_fixed_point(problem)
    root_bar = matcore.principal_sqrt(eta.covariance)
    noise = matcore.symmetrize(root_bar @ r @ root_bar)
    gain = noise @ kernel.chi
    transport = gain @ mu.covariance @ gain.T + noise
    scale = max(1.0, float(np.max(np.abs(eta.covariance))))
    if float(np.max(np.abs(transport - eta.covariance))) > 1e-10 * scale:
        raise NumericalError("bridge transport identity gain sigma gain' + noise = sigma_bar failed")
    return GaussianBridge(
        fixed_point=r,
        noise_cov=noise,
        gain=gain,
        intercept=eta.mean - gain @ mu.mean,
    )


def bridge_joint(mu: Gaussian, bridge: GaussianBridge) -> Gaussian:
    return affine_joint(mu, bridge.intercept, bridge.gain, bridge.noise_cov)


def bridge_entropy(state: GaussianSinkhornState, bridge: GaussianBridge,
                   mu: Gaussian, kernel: LinearGaussianKernel) -> float:
    """Closed-form H(P_{2n} | bridge) from means, covariances and gains."""
    if state.step % 2 != 0:
        raise DomainError("bridge_entropy expects an even-index state")
    eta_mean = bridge.intercept + bridge.gain @ mu.mean
    isq = matcore.inv_sqrt(bridge.noise_cov)
    mean_term = float(np.sum((isq @ (state.mean - eta_mean)) ** 2))
    cross = isq @ (state.cov - bridge.noise_cov) @ kernel.chi @ matcore.principal_sqrt(mu.covariance)
    cross_term = float(np.sum(cross ** 2))
    return 0.5 * (burg_divergence(state.cov, bridge.noise_cov) + mean_term + cross_term)


# --------------------------------------------------------------------------
# Rate report.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianRateRow:
    n: int
    cov_error: float            # ||tau_{2n} - noise_cov||_2
    sqrt_error: float           # ||tau_{2n}^{1/2} - noise_cov^{1/2}||_2
    mean_error: float
    product_norm: float         # ||sbar^{-1/2} directed-product sbar^{1/2}||_2
    directed_residual: float    # defect of the marginal-covariance product formula
    loop_gain_residual: float   # defect of the loop-gain / rescaled-cov identity and bounds


@dataclass(frozen=True)
class GaussianRateReport:
    rows: tuple[GaussianRateRow, ...]
    fit: fitting.RateFit | None
    theoretical_slope: float
    slope_within: bool | None


def rate_report(trajectory, bridge: GaussianBridge, mu: Gaussian, eta: Gaussian,
                kernel: LinearGaussianKernel) -> GaussianRateReport:
    """Convergence table of the even-index flow against the closed-form bridge."""
    even = [s for s in trajectory if s.step % 2 == 0]
    if len(even) < 10:
        raise DomainError("rate_report needs at least 10 even-index states")
    by_step = {s.step: s for s in trajectory}
    problem = RiccatiProblem.from_instance(mu, eta, kernel)
    root_bar = matcore.principal_sqrt(eta.covariance)
    isq_bar = matcore.inv_sqrt(eta.covariance)
    noise_root = matcore.principal_sqrt(bridge.noise_cov)
    eta_mean = bridge.intercept + bridge.gain @ mu.mean
    sigma0 = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    d = mu.dim
    inv_gap = matcore.spd_inverse(np.eye(d) + problem.varpi)

    rows: list[GaussianRateRow] = []
    product = np.eye(d)
    for state in even:
        n = state.step // 2
        cov_error = matcore.spectral_norm(state.cov - bridge.noise_cov)
        sqrt_error = matcore.spectral_norm(
            matcore.principal_sqrt(state.cov) - noise_root
        )
        mean_error = float(np.linalg.norm(state.mean - eta_mean))
        directed_residual = 0.0
        loop_residual = 0.0
        if n >= 1:
            prev_odd = by_step.get(state.step - 1)
            if prev_odd is None:
                raise DomainError("rate_report needs a trajectory of consecutive half steps")
            loop_gain = state.gain @ prev_odd.gain
            product = loop_gain @ product
            rescaled_loop = isq_bar @ loop_gain @ root_bar
            loop_residual = float(np.max(np.abs(
                rescaled_loop - (np.eye(d) - state.rescaled_cov)
            )))
            loop_residual = max(
                loop_residual,
                max(0.0, -float(np.linalg.eigvalsh(
                    matcore.symmetrize(np.eye(d) - state.rescaled_cov))[0])),
                max(0.0, float(np.linalg.eigvalsh(matcore.symmetrize(
                    (np.eye(d) - state.rescaled_cov) - inv_gap))[-1])),
            )
            sigma_2n = state.gain @ mu.covariance @ state.gain.T + state.cov
            predicted = product @ (sigma0 - eta.covariance) @ product.T
            directed_residual = float(np.max(np.abs(
                (sigma_2n - eta.covariance) - predicted
            )))
        rows.append(GaussianRateRow(
            n=n,
            cov_error=cov_error,
            sqrt_error=sqrt_error,
            mean_error=mean_error,
            product_norm=matcore.spectral_norm(isq_bar @ product @ root_bar) if n >= 1 else 1.0,
            directed_residual=directed_residual,
            loop_gain_residual=loop_residual,
        ))
    r = bridge.fixed_point
    rate_base = 1.0 + float(np.linalg.eigvalsh(matcore.symmetrize(r + problem.varpi))[0])
    theoretical_slope = -2.0 * math.log(rate_base)
    fit = fitting.fit_rate([(row.n, row.cov_error) for row in rows if row.n >= 1])
    slope_within = None
    if fit is not None:
        slope_within = fit.slope <= theoretical_slope + 0.05 * abs(theoretical_slope)
    return GaussianRateReport(
        rows=tuple(rows),
        fit=fit,
        theoretical_slope=theoretical_slope,
        slope_within=slope_within,
    )


# --------------------------------------------------------------------------
# Transport-inequality envelopes.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyEnvelopeRow:
    n: int
    value: float                 # H(bridge | P_n)
    bound: float
    within: bool
    refined_bound: float | None
    refined_within: bool | None


@dataclass(frozen=True)
class W2Row:
    n: int
    value: float
    bound: float
    within: bool


@dataclass(frozen=True)
class EnvelopeReport:
    kappa: float
    rho: float
    rho_bar: float
    eps: float
    refined_factor: float
    vacuous: bool
    gate_contractive: bool
    entropy_rows: tuple[EntropyEnvelopeRow, ...]
    w2_rows: tuple[W2Row, ...]
    chained_w2_rows: tuple[W2Row, ...]

    @property
    def all_within(self) -> bool:
        ok = all(r.within for r in self.entropy_rows)
        ok = ok and all(r.refined_within for r in self.entropy_rows if r.refined_within is not None)
        ok = ok and all(r.within for r in self.w2_rows)
        return ok and all(r.within for r in self.chained_w2_rows)


def envelope_report(mu: Gaussian, eta: Gaussian, kernel: LinearGaussianKernel,
                    trajectory) -> EnvelopeReport:
    """Entropy and 2-Wasserstein decay envelopes from the transport inequalities.

    The log-Sobolev constants are exact here: the marginal potentials have
    constant Hessians sigma^{-1} and sigma_bar^{-1}, so rho = ||sigma||_2 and
    rho_bar = ||sigma_bar||_2.
    """
    if not trajectory or trajectory[0].step != 0:
        raise DomainError("envelope_report needs a trajectory starting at step 0")
    kappa = matcore.spectral_norm(kernel.chi)
    rho = matcore.spectral_norm(mu.covariance)
    rho_bar = matcore.spectral_norm(eta.covariance)
    eps = kappa ** 2 * rho * rho_bar
    vacuous = not (math.isfinite(eps) and eps > 0)
    bridge = schrodinger_bridge_gaussian(mu, eta, kernel)
    b_joint = bridge_joint(mu, bridge)
    values = [gaussian_kl(b_joint, sinkhorn_joint(s, mu, eta)) for s in trajectory]
    h0 = values[0]
    tol = 1e-12 * max(1.0, h0 if math.isfinite(h0) else 1.0)
    base = 1.0 + 1.0 / eps if not vacuous else 1.0
    one_over_eps_bar = (1.0 + math.sqrt(1.0 + 4.0 / eps)) / 2.0 - 1.0 if not vacuous else 0.0
    refined_factor = base + one_over_eps_bar

    entropy_rows: list[EntropyEnvelopeRow] = []
    for state, value in zip(trajectory, values):
        m = state.step
        bound = h0 * base ** (-(m // 2))
        within = True if vacuous else value <= bound + tol
        refined_bound = None
        refined_within = None
        if not vacuous and m >= 2 and m % 2 == 0:
            refined_bound = h0 * refined_factor ** (-(m // 2 - 1))
            refined_within = value <= refined_bound + tol
        entropy_rows.append(EntropyEnvelopeRow(
            n=m, value=value, bound=bound, within=within,
            refined_bound=refined_bound, refined_within=refined_within,
        ))

    marginals = [marginal(s, mu, eta) for s in trajectory]
    w2_rows: list[W2Row] = []
    chained: list[W2Row] = []

    def w2_within(lhs: float, rhs: float) -> bool:
        # Squared distances carry the double-precision noise of covariance
        # arithmetic, so compare at squared scale once values saturate.
        return lhs <= rhs + 1e-12 or lhs ** 2 <= rhs ** 2 + 1e-14

    for state, g_now, g_prev in zip(trajectory[1:], marginals[1:], marginals):
        m = state.step
        target, source, spread = (eta, mu, rho_bar) if m % 2 == 0 else (mu, eta, rho)
        lhs = gaussian_w2(g_now, target)
        rhs = kappa * spread * gaussian_w2(g_prev, source)
        w2_rows.append(W2Row(n=m, value=lhs, bound=rhs, within=w2_within(lhs, rhs)))
    gate = kappa * math.sqrt(rho * rho_bar) < 1.0
    if gate:
        w2_pi0_eta = gaussian_w2(marginals[0], eta)
        for state, g_now in zip(trajectory, marginals):
            if state.step % 2 == 0 and state.step > 0:
                bound = eps ** (state.step // 2) * w2_pi0_eta
                lhs = gaussian_w2(g_now, eta)
                chained.append(W2Row(n=state.step, value=lhs, bound=bound,
                                     within=w2_within(lhs, bound)))
    return EnvelopeReport(
        kappa=kappa, rho=rho, rho_bar=rho_bar, eps=eps,
        refined_factor=refined_factor, vacuous=vacuous, gate_contractive=gate,
        entropy_rows=tuple(entropy_rows), w2_rows=tuple(w2_rows),
        chained_w2_rows=tuple(chained),
    )


# --------------------------------------------------------------------------
# Strongly convex covariance envelopes.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceEnvelope:
    upper: tuple[np.ndarray, ...]    # tau_n
    lower: tuple[np.ndarray, ...]    # tau_{n-}
    varpi_minus: np.ndarray
    sandwich_residuals: tuple[float, ...]
    rescaled_residuals: tuple[float, ...]

    @property
    def sandwich_ok(self) -> bool:
        return max(self.sandwich_residuals, default=0.0) <= 1e-10


def strongly_convex_covariance_envelope(sigma, sigma_minus, sigma_bar, sigma_bar_minus,
                                        kernel: LinearGaussianKernel,
                                        n_max: int) -> CovarianceEnvelope:
    """Coupled upper/lower conditional-covariance recursions under two-sided curvature.

    With sigma_minus = sigma and sigma_bar_minus = sigma_bar both envelopes
    collapse onto the exact covariance flow.
    """
    sigma = matcore.assert_spd(sigma, "sigma")
    sigma_minus = matcore.assert_spd(sigma_minus, "sigma_minus")
    sigma_bar = matcore.assert_spd(sigma_bar, "sigma_bar")
    sigma_bar_minus = matcore.assert_spd(sigma_bar_minus, "sigma_bar_minus")
    if not matcore.loewner_leq(sigma_minus, sigma, 1e-12):
        raise DomainError("need sigma_minus <= sigma in the Loewner order")
    if not matcore.loewner_leq(sigma_bar_minus, sigma_bar, 1e-12):
        raise DomainError("need sigma_bar_minus <= sigma_bar in the Loewner order")
    chi = kernel.chi
    inv_s, inv_s_minus = matcore.spd_inverse(sigma), matcore.spd_inverse(sigma_minus)
    inv_sb, inv_sb_minus = matcore.spd_inverse(sigma_bar), matcore.spd_inverse(sigma_bar_minus)

    upper = [kernel.tau.copy()]
    lower = [kernel.tau.copy()]
    for n in range(n_max):
        # Odd steps are even steps with the sigma_bar pair and chi transposed.
        even = n % 2 == 0
        inv, inv_minus, c = (inv_s, inv_s_minus, chi) if even else (inv_sb, inv_sb_minus, chi.T)
        up = matcore.spd_inverse(inv + c.T @ lower[-1] @ c)
        low = matcore.spd_inverse(inv_minus + c.T @ upper[-1] @ c)
        upper.append(up)
        lower.append(low)

    sandwich = tuple(
        max(0.0, -float(np.linalg.eigvalsh(matcore.symmetrize(up - low))[0]))
        for up, low in zip(upper, lower)
    )
    # The rescaled upper even flow is a Riccati iteration for the shrunk mixing matrix.
    root_bar = matcore.principal_sqrt(sigma_bar)
    isq_bar = matcore.inv_sqrt(sigma_bar)
    gamma_minus = root_bar @ chi @ matcore.principal_sqrt(sigma_minus)
    problem_minus = RiccatiProblem.from_gamma(gamma_minus)
    rescaled_residuals = []
    for n in range(0, n_max - 1, 2):
        current = isq_bar @ upper[n] @ isq_bar
        nxt = isq_bar @ upper[n + 2] @ isq_bar
        rescaled_residuals.append(float(np.max(np.abs(
            riccati_apply(problem_minus, current) - nxt
        ))))
    return CovarianceEnvelope(
        upper=tuple(_frozen(u) for u in upper),
        lower=tuple(_frozen(l) for l in lower),
        varpi_minus=_frozen(problem_minus.varpi),
        sandwich_residuals=sandwich,
        rescaled_residuals=tuple(rescaled_residuals),
    )


# --------------------------------------------------------------------------
# Potential Hessians.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialHessians:
    hess_u: np.ndarray            # Hessian of U_{2n}
    hess_v: np.ndarray            # Hessian of V_{2n+1}
    decomposition_residual: float
    curvature_ok: bool


def potential_hessian(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian,
                      kernel: LinearGaussianKernel) -> PotentialHessians:
    """Constant Hessians of the running potentials and their kernel decompositions.

    In the Gaussian case the conditional covariance of the n-th kernel is its
    noise covariance, so the Hessian formulas close over the state alone.
    """
    if state.step % 2 != 0:
        raise DomainError("potential_hessian expects an even-index state")
    chi = kernel.chi
    inv_s = matcore.spd_inverse(mu.covariance)
    inv_sb = matcore.spd_inverse(eta.covariance)
    odd = sinkhorn_step(state, mu, eta, kernel)
    even_next = sinkhorn_step(odd, mu, eta, kernel)
    hess_u = inv_s - chi.T @ kernel.beta + chi.T @ state.cov @ chi
    hess_v = inv_sb - matcore.spd_inverse(kernel.tau) + chi @ odd.cov @ chi.T
    # The second-coordinate Hessians of the running transition potentials must
    # match the next covariance inverses, and dominate the marginal curvatures.
    w_odd = inv_s + chi.T @ state.cov @ chi
    w_even = inv_sb + chi @ odd.cov @ chi.T
    residual = max(
        float(np.max(np.abs(w_odd - matcore.spd_inverse(odd.cov)))),
        float(np.max(np.abs(w_even - matcore.spd_inverse(even_next.cov)))),
    )
    curvature_ok = (
        matcore.loewner_leq(inv_s, w_odd, 1e-10)
        and matcore.loewner_leq(inv_sb, w_even, 1e-10)
    )
    return PotentialHessians(
        hess_u=_frozen(matcore.symmetrize(hess_u)),
        hess_v=_frozen(matcore.symmetrize(hess_v)),
        decomposition_residual=residual,
        curvature_ok=curvature_ok,
    )
