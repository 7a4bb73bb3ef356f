"""Closed-form Gaussian Sinkhorn engine.

The iteration state is the affine-map parameterization of the current kernel
(mean anchor, gain, noise covariance); covariances evolve by conjugate Bayes
updates, equivalently by a rescaled Riccati matrix flow whose fixed point
gives the bridge in closed form.

The per-state diagnostics (:func:`envelope_report`, :func:`rate_report` and
:func:`entropy_formula_table`) run on stacked chunks of the trajectory: each
chunk holds states of one parity, at most ``matcore.CHUNK_ELEMENTS //
(2d)^2`` of them (8 at d = 16, a whole 100-iteration run at d = 2), and makes
one ``eigvalsh``/``eigh``/``solve``/``slogdet``/``@`` call per quantity.  One
builder, ``_iterate_blocks``, gives the joints P_n and marginals pi_n of a
chunk, and :func:`sinkhorn_joint` and :func:`marginal` pass it one state.
Every value equals the per-state arithmetic bit for bit (the rules are in
:mod:`bridgelab.matcore`).  :func:`run_sinkhorn` and the Riccati iteration
stay per-state: each step needs the one before.

Each SPD matrix on these paths is factorized once: :func:`sinkhorn_step`,
the two inversions of :func:`riccati_apply` and the marginal roots of
:func:`envelope_report` validate from the ``eigh`` they invert or root by
(``matcore.spd_eigh``).  Matrices built from validated parts are not
validated again: a joint ``[[S, S G'], [G S, G S G' + C]]`` is ``L diag(S,
C) L'`` and so SPD, and the state covariances are inverses of validated
matrices.  The diagnostics only symmetrize them, and the log-det sign check
of the Burg kernel catches a joint too ill-conditioned to resolve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fitting, matcore
from .divergences import Gaussian, _burg, _gaussian_kl, _gaussian_w2
# Re-exported as part of this module's API.
from .divergences import burg_divergence, gaussian_kl, gaussian_w2  # noqa: F401
from .errors import DomainError, NumericalError
from .matcore import _frozen

GAIN_TOL = 1e-10
# rate_report needs the even states n = 0..MIN_RATE_PAIRS: this many Sinkhorn pairs.
MIN_RATE_PAIRS = 9


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
    def noise(self) -> Gaussian:
        """The transition noise N(0, tau), which carries tau's cached factors."""
        return Gaussian(np.zeros(self.dim), self.tau)

    @functools.cached_property
    def chi(self) -> np.ndarray:
        """tau^{-1} beta, the kernel's Fisher-Lipschitz matrix (computed once)."""
        return _frozen(self.noise.precision @ self.beta)


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


def instance_from_json(payload: dict) -> GaussianInstance:
    payload = matcore._payload(payload, "gaussian",
                               ("m", "sigma", "m_bar", "sigma_bar", "alpha", "beta", "tau"))
    d = payload.get("d")
    d = matcore._integer(matcore._payload_array(payload, "m").size if d is None else d, "d", 1)
    vec = lambda key: matcore._payload_array(payload, key, (d,))
    mat = lambda key: matcore._payload_array(payload, key, (d, d))
    return GaussianInstance(
        mu=Gaussian(vec("m"), mat("sigma")),
        eta=Gaussian(vec("m_bar"), mat("sigma_bar")),
        kernel=LinearGaussianKernel(vec("alpha"), mat("beta"), mat("tau")),
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
    gain = mu.covariance @ kernel.beta.T @ pushed.precision
    try:
        noise = matcore.spd_inverse(mu.precision + kernel.beta.T @ kernel.chi)
    except DomainError as exc:
        raise NumericalError(f"conjugate update lost positivity: {exc}") from exc
    alt = noise @ kernel.beta.T @ kernel.noise.precision
    if float(np.max(np.abs(gain - alt))) > GAIN_TOL * max(1.0, float(np.max(np.abs(gain)))):
        raise NumericalError("conjugate gain identity beta1 = tau1 beta' tau^{-1} failed")
    alpha = mu.mean - gain @ pushed.mean
    return LinearGaussianKernel(alpha=alpha, beta=gain, tau=noise)


def _affine_blocks(source: Gaussian, intercept, gain, noise,
                   swap: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (x, a + b x + noise) for x ~ source, unvalidated.

    ``intercept``, ``gain`` and ``noise`` may carry leading stack axes, and the
    results then carry them too.  With ``swap`` the coordinates come in the
    order (a + b x + noise, x).  The image block is ``b sigma b' + noise``,
    the covariance of the pushed marginal.
    """
    d = source.dim
    x, y = (slice(d, None), slice(None, d)) if swap else (slice(None, d), slice(d, None))
    lead = gain.shape[:-2]
    gain_t = np.swapaxes(gain, -1, -2)
    gs = gain @ source.covariance
    mean = np.empty(lead + (2 * d,))
    mean[..., x] = source.mean
    mean[..., y] = intercept + gain @ source.mean
    cov = np.empty(lead + (2 * d, 2 * d))
    cov[..., x, x] = source.covariance
    cov[..., x, y] = source.covariance @ gain_t
    cov[..., y, x] = gs
    cov[..., y, y] = gs @ gain_t + noise
    return mean, cov


def affine_joint(mu: Gaussian, intercept, gain, noise) -> Gaussian:
    """Joint law of (x, a + b x + noise) as a 2d-dimensional Gaussian."""
    return Gaussian(*_affine_blocks(mu, np.asarray(intercept, dtype=float).reshape(-1),
                                    np.asarray(gain, dtype=float),
                                    np.asarray(noise, dtype=float)))


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
    return GaussianSinkhornState(
        step=0,
        mean=kernel.alpha + kernel.beta @ mu.mean,
        gain=kernel.beta.copy(),
        cov=kernel.tau.copy(),
        rescaled_cov=eta.inv_root @ kernel.tau @ eta.inv_root,
    )


def sinkhorn_step(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian,
                  kernel: LinearGaussianKernel) -> GaussianSinkhornState:
    """One conjugate Bayes half step of the mean/gain/covariance recursion.

    An odd step is the even step with mu and eta swapped and chi transposed.
    """
    n = state.step
    source, target, chi = (mu, eta, kernel.chi) if n % 2 == 0 else (eta, mu, kernel.chi.T)
    try:
        _, w, q = matcore.spd_eigh(source.precision + chi.T @ state.cov @ chi)
    except DomainError as exc:
        raise NumericalError(f"covariance lost positivity at step {n + 1}: {exc}") from exc
    cov_next = matcore.eigh_inverse(w, q)
    gain_next = cov_next @ chi.T
    return GaussianSinkhornState(
        step=n + 1,
        mean=source.mean + gain_next @ (target.mean - state.mean),
        gain=gain_next,
        cov=cov_next,
        rescaled_cov=source.inv_root @ cov_next @ source.inv_root,
    )


def run_sinkhorn(mu: Gaussian, eta: Gaussian, kernel: LinearGaussianKernel,
                 half_steps: int) -> list[GaussianSinkhornState]:
    """States 0..half_steps inclusive."""
    states = [initial_state(mu, eta, kernel)]
    for _ in range(half_steps):
        states.append(sinkhorn_step(states[-1], mu, eta, kernel))
    return states


def _image(d: int, odd: bool) -> slice:
    """The block of the coordinate the n-th kernel maps to: y at even n, x at odd n."""
    return slice(None, d) if odd else slice(d, None)


def _iterate_blocks(mean, gain, cov, odd: bool, mu: Gaussian,
                    eta: Gaussian) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated mean and covariance of the bridge iterates P_n on (x, y).

    ``mean``, ``gain`` and ``cov`` are the state fields of one half step, or
    stacks of them from half steps of one parity (``odd``).  With ``image =
    _image(d, odd)``, ``cov[..., image, image]`` is the covariance of the
    marginal pi_n.  An odd kernel runs y -> x, so its source block is y.
    """
    source = eta if odd else mu
    return _affine_blocks(source, mean - gain @ source.mean, gain, cov, swap=odd)


def marginal(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian) -> Gaussian:
    """The Sinkhorn marginal pi_n as a Gaussian."""
    odd = state.step % 2 == 1
    _, cov = _iterate_blocks(state.mean, state.gain, state.cov, odd, mu, eta)
    image = _image(mu.dim, odd)
    return Gaussian(state.mean, cov[image, image])


def sinkhorn_joint(state: GaussianSinkhornState, mu: Gaussian, eta: Gaussian) -> Gaussian:
    """The bridge iterate P_n as a 2d-dimensional Gaussian on (x, y)."""
    return Gaussian(*_iterate_blocks(state.mean, state.gain, state.cov, state.step % 2 == 1,
                                     mu, eta))


def _chunks(states, d: int):
    """Yield ``(positions, odd, run)`` over ``states`` in runs of one parity.

    Each run holds at most ``CHUNK_ELEMENTS // (2d)^2`` states (and at least
    one), so a stack of their 2d x 2d joint covariances stays within the chunk
    budget.  Even runs come first; ``positions`` index ``states``.
    """
    size = max(1, matcore.CHUNK_ELEMENTS // (2 * d) ** 2)
    for odd in (False, True):
        positions = [i for i, s in enumerate(states) if s.step % 2 == odd]
        for start in range(0, len(positions), size):
            index = positions[start:start + size]
            yield index, odd, [states[i] for i in index]


def _stack(run, *fields: str) -> tuple[np.ndarray, ...]:
    """The named state fields of ``run``, each stacked along a new leading axis."""
    return tuple(np.stack([getattr(s, f) for s in run]) for f in fields)


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
        return cls.from_gamma(eta.root @ kernel.chi @ mu.root)

    @property
    def flipped(self) -> "RiccatiProblem":
        """The companion problem driving the odd-index chain."""
        return RiccatiProblem.from_gamma(self.gamma.T)


def riccati_apply(problem: RiccatiProblem, v) -> np.ndarray:
    """One application of v -> (I + (varpi + v)^{-1})^{-1}."""
    v = matcore.symmetrize(v, "v")
    if float(np.linalg.eigvalsh(v)[0]) < matcore.SQRT_CLAMP:
        raise DomainError("riccati_apply needs a positive semi-definite argument")
    _, w, q = matcore.spd_eigh(problem.varpi + v)
    inner = matcore.eigh_inverse(w, q)
    _, w, q = matcore.spd_eigh(np.eye(v.shape[0]) + inner)
    return matcore.eigh_inverse(w, q)


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
    """Parameters of the limiting bridge kernel y = intercept + gain x + noise.

    ``problem`` is the Riccati problem whose fixed point the bridge is built on.
    """

    fixed_point: np.ndarray
    noise_cov: np.ndarray
    gain: np.ndarray
    intercept: np.ndarray
    problem: RiccatiProblem

    def __post_init__(self) -> None:
        for name in ("fixed_point", "noise_cov", "gain", "intercept"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @functools.cached_property
    def kernel(self) -> LinearGaussianKernel:
        """The bridge as a transition kernel (built and validated once)."""
        return LinearGaussianKernel(alpha=self.intercept, beta=self.gain, tau=self.noise_cov)


def schrodinger_bridge_gaussian(mu: Gaussian, eta: Gaussian,
                                kernel: LinearGaussianKernel) -> GaussianBridge:
    """Assemble the closed-form bridge from the Riccati fixed point."""
    if not (mu.dim == eta.dim == kernel.dim):
        raise DomainError("dimension mismatch in schrodinger_bridge_gaussian")
    problem = RiccatiProblem.from_instance(mu, eta, kernel)
    r = riccati_fixed_point(problem)
    noise = matcore.symmetrize(eta.root @ r @ eta.root)
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
        problem=problem,
    )


def bridge_joint(mu: Gaussian, bridge: GaussianBridge) -> Gaussian:
    return affine_joint(mu, bridge.intercept, bridge.gain, bridge.noise_cov)


def _bridge_entropies(mean, cov, bridge: GaussianBridge, mu: Gaussian,
                      kernel: LinearGaussianKernel) -> np.ndarray:
    """Closed-form H(P_{2n} | bridge) from even-state means and covariances (or stacks)."""
    eta_mean = bridge.intercept + bridge.gain @ mu.mean
    isq = bridge.kernel.noise.inv_root
    shift = isq @ (mean - eta_mean)[..., None]
    mean_term = np.sum(shift ** 2, axis=(-2, -1))
    cross = isq @ (cov - bridge.noise_cov) @ kernel.chi @ mu.root
    cross_term = np.sum(cross ** 2, axis=(-2, -1))
    return 0.5 * (_burg(cov, bridge.noise_cov) + mean_term + cross_term)


def bridge_entropy(state: GaussianSinkhornState, bridge: GaussianBridge,
                   mu: Gaussian, kernel: LinearGaussianKernel) -> float:
    """Closed-form H(P_{2n} | bridge) from means, covariances and gains."""
    if state.step % 2 != 0:
        raise DomainError("bridge_entropy expects an even-index state")
    return float(_bridge_entropies(state.mean, state.cov, bridge, mu, kernel))


def entropy_formula_table(trajectory, bridge: GaussianBridge, mu: Gaussian, eta: Gaussian,
                          kernel: LinearGaussianKernel) -> list[tuple[int, float, float]]:
    """``(n, formula, oracle)`` for each even state P_{2n} of the trajectory.

    ``formula`` is :func:`bridge_entropy` and ``oracle`` is the same
    H(P_{2n} | bridge) as a Gaussian KL between the 2d-dimensional joints.
    Both are evaluated on stacked chunks of states.
    """
    even = [s for s in trajectory if s.step % 2 == 0]
    b_joint = bridge_joint(mu, bridge)
    formula = np.empty(len(even))
    oracle = np.empty(len(even))
    for index, _, run in _chunks(even, mu.dim):
        mean, gain, cov = _stack(run, "mean", "gain", "cov")
        formula[index] = _bridge_entropies(mean, cov, bridge, mu, kernel)
        j_mean, j_cov = _iterate_blocks(mean, gain, cov, False, mu, eta)
        oracle[index] = _gaussian_kl(j_mean, matcore.symmetrize(j_cov, "covariance"),
                                     b_joint.mean, b_joint.covariance)
    return [(s.step // 2, f, o) for s, f, o in zip(even, formula.tolist(), oracle.tolist())]


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
    if len(even) <= MIN_RATE_PAIRS:
        raise DomainError(f"rate_report needs at least {MIN_RATE_PAIRS + 1} even-index states")
    by_step = {s.step: s for s in trajectory}
    # The loop rows n >= 1 close the pair (odd 2n - 1, even 2n).
    looped = [s for s in even if s.step >= 2]
    prev_odd = [by_step.get(s.step - 1) for s in looped]
    if any(s is None for s in prev_odd):
        raise DomainError("rate_report needs a trajectory of consecutive half steps")
    noise_root = bridge.kernel.noise.root
    eta_mean = bridge.intercept + bridge.gain @ mu.mean
    sigma0 = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    d = mu.dim
    inv_gap = matcore.spd_inverse(np.eye(d) + bridge.problem.varpi)

    errors = np.empty((3, len(even)))
    for index, _, run in _chunks(even, d):
        mean, cov = _stack(run, "mean", "cov")
        errors[:, index] = (
            matcore.spectral_norm(cov - bridge.noise_cov),
            matcore.spectral_norm(matcore.principal_sqrt(cov) - noise_root),
            matcore.vector_norm(mean - eta_mean),
        )
    loops = np.empty((5, len(looped)))
    product = np.eye(d)
    for index, _, run in _chunks(looped, d):
        gain, cov, rescaled = _stack(run, "gain", "cov", "rescaled_cov")
        loop_gain = gain @ np.stack([prev_odd[i].gain for i in index])
        products = np.empty_like(loop_gain)
        for k, step_gain in enumerate(loop_gain):
            product = step_gain @ product
            products[k] = product
        gap = np.eye(d) - rescaled
        sigma_2n = gain @ mu.covariance @ np.swapaxes(gain, 1, 2) + cov
        predicted = products @ (sigma0 - eta.covariance) @ np.swapaxes(products, 1, 2)
        loops[:, index] = (
            np.max(np.abs(eta.inv_root @ loop_gain @ eta.root - gap), axis=(1, 2)),
            np.linalg.eigvalsh(matcore.symmetrize(gap))[:, 0],
            np.linalg.eigvalsh(matcore.symmetrize(gap - inv_gap))[:, -1],
            np.max(np.abs((sigma_2n - eta.covariance) - predicted), axis=(1, 2)),
            matcore.spectral_norm(eta.inv_root @ products @ eta.root),
        )

    rows: list[GaussianRateRow] = []
    loop_rows = iter(loops.T.tolist())
    for state, (cov_error, sqrt_error, mean_error) in zip(even, errors.T.tolist()):
        n = state.step // 2
        directed_residual = 0.0
        loop_residual = 0.0
        product_norm = 1.0
        if n >= 1:
            loop_residual, lowest, highest, directed_residual, product_norm = next(loop_rows)
            loop_residual = max(loop_residual, max(0.0, -lowest), max(0.0, highest))
        rows.append(GaussianRateRow(
            n=n,
            cov_error=cov_error,
            sqrt_error=sqrt_error,
            mean_error=mean_error,
            product_norm=product_norm,
            directed_residual=directed_residual,
            loop_gain_residual=loop_residual,
        ))
    r = bridge.fixed_point
    rate_base = 1.0 + float(np.linalg.eigvalsh(matcore.symmetrize(r + bridge.problem.varpi))[0])
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


def envelope_report(trajectory, bridge: GaussianBridge, mu: Gaussian, eta: Gaussian,
                    kernel: LinearGaussianKernel) -> EnvelopeReport:
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
    # values[m] = H(bridge | P_m); dist[m] = W2(pi_m, eta) at even m and
    # W2(pi_m, mu) at odd m: the distance of each marginal to the target its
    # half step matches.
    b_joint = bridge_joint(mu, bridge)
    values = np.empty(len(trajectory))
    dist = np.empty(len(trajectory))
    for index, odd, run in _chunks(trajectory, mu.dim):
        mean, gain, cov = _stack(run, "mean", "gain", "cov")
        j_mean, j_cov = _iterate_blocks(mean, gain, cov, odd, mu, eta)
        values[index] = _gaussian_kl(b_joint.mean, b_joint.covariance,
                                     j_mean, matcore.symmetrize(j_cov, "covariance"))
        image = _image(mu.dim, odd)
        marg, w, q = matcore.spd_eigh(j_cov[:, image, image], "covariance")
        target = mu if odd else eta
        dist[index] = _gaussian_w2(mean, marg, matcore.eigh_sqrt(marg, w, q),
                                   target.mean, target.covariance)
    values = values.tolist()
    dist = dist.tolist()
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

    w2_rows: list[W2Row] = []
    chained: list[W2Row] = []

    def w2_within(lhs: float, rhs: float) -> bool:
        # Squared distances carry the double-precision noise of covariance
        # arithmetic, so compare at squared scale once values saturate.
        return lhs <= rhs + 1e-12 or lhs ** 2 <= rhs ** 2 + 1e-14

    for state, lhs, prev in zip(trajectory[1:], dist[1:], dist):
        m = state.step
        spread = rho_bar if m % 2 == 0 else rho
        rhs = kappa * spread * prev
        w2_rows.append(W2Row(n=m, value=lhs, bound=rhs, within=w2_within(lhs, rhs)))
    gate = kappa * math.sqrt(rho * rho_bar) < 1.0
    if gate:
        for state, lhs in zip(trajectory, dist):
            if state.step % 2 == 0 and state.step > 0:
                bound = eps ** (state.step // 2) * dist[0]
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
