"""Closed-form Gaussian Sinkhorn engine.

The iteration state is the affine-map parameterization of the current kernel
(mean anchor, gain, noise covariance); covariances evolve by conjugate Bayes
updates, equivalently by a rescaled Riccati matrix flow whose fixed point
gives the bridge in closed form.

Stacked run.  :func:`run_sinkhorn` returns one :class:`GaussianRun`, whose
fields are whole-run stacks written in place, row m for half step m, and
``run.instance``, which every reader takes mu, eta and the kernel from.  A
half step is stored once: :func:`_rescaled` derives its Riccati iterate on
read.  The run is sequential, one :func:`sinkhorn_step` per half step.  The
diagnostics (:func:`envelope_report`, :func:`rate_report`,
:func:`entropy_formula_table` and :func:`riccati_equivalence_errors`) read it
in chunks, slices of a parity view such as ``run.cov[0::2]`` of at most
``matcore.CHUNK_ELEMENTS // (2d)^2`` rows (8 at d = 16, a whole 100-iteration
run at d = 2), which bound the 2d x 2d joints of the entropy-formula oracle
and the d x d stacks of every reader (see :func:`_chunks`).  Each chunk makes
one ``eigvalsh``/``eigh``/``solve``/``slogdet``/``@`` call per quantity, in
one walk over the chunks.  One builder, ``_iterate_blocks``, gives the joints
P_n of a chunk, and :func:`sinkhorn_joint` passes it one row.  A stacked
validation names a failing row by its step.  Every value equals the per-row
arithmetic bit for bit (the rules are in :mod:`bridgelab.matcore`).

Joint entropies by the chain rule.  The bridge and an iterate P_m share the
source marginal of row m's kernel, mu at even m and eta at odd m, where the
bridge enters by its backward kernel ``conjugate_kernel(mu, bridge.kernel)``.
So their relative entropy, either way round, is an expectation of d x d
kernel divergences, :func:`_kernel_kl`.  :func:`envelope_report` and the
closed form of :func:`entropy_formula_table` both read it, and neither builds
a 2d x 2d joint; the 2d joint KL stays as the entropy-formula oracle.

Each object has one representation: a bridge is its kernel, a
:class:`RiccatiProblem` is its mixing matrix gamma, and every half step of the
flow and of the strongly convex envelopes is one ``_conditional_cov`` update.
A bridge records the instance it was solved for, and a reader given a run
and a bridge of different instances raises a ``DomainError``.

The rescaled Riccati map v -> (I + (varpi + v)^{-1})^{-1} is linear-fractional,
so its n-th iterate has a closed form: :func:`riccati_iterates` evaluates it
in varpi's eigenbasis, one batched ``solve`` for a stack of n, and the
riccati-equivalence check reads the run against it.  :func:`riccati_apply`,
one step of one ``eigh``, stays the second route, which the fixed-point
residuals and the envelope recursion use.

Each SPD matrix on these paths is validated from one ``eigh``
(``matcore.spd_eigh``), and every inverse, root and spectrum of it is read
from that factorization: a ``Gaussian`` and a :class:`RiccatiProblem` keep
theirs, and so does a run.  The run's covariances are inverses of validated
matrices, and the run keeps each one's eigenvalues and eigenvectors, read
from the ``eigh`` of the matrix it inverts (row 0's from the kernel's noise):
:func:`rate_report` takes tau_2n^{1/2} from them and factorizes nothing.  W2
takes the target's cached roots (``divergences._gaussian_w2``), so
:func:`envelope_report` makes one ``eigh`` per row, the W2 root, and
validates each marginal pi_m by ``eigvalsh``.  A joint
``[[S, S G'], [G S, G S G' + C]]`` is ``L diag(S, C) L'``, SPD but possibly
too ill-conditioned to resolve: :func:`entropy_formula_table` holds its oracle
joints to the SPD floor.  :func:`_kernel_kl` keeps the log-det sign check of
its Burg term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting, matcore
from .divergences import Gaussian, _gaussian_kl, _gaussian_w2
# Re-exported as part of this module's API.
from .divergences import burg_divergence, gaussian_kl, gaussian_w2  # noqa: F401
from .errors import DomainError, NumericalError
from .matcore import _frozen

GAIN_TOL = 1e-10
# rate_report needs the even rows n = 0..MIN_RATE_PAIRS: this many Sinkhorn pairs.
MIN_RATE_PAIRS = 9


@dataclass(frozen=True)
class LinearGaussianKernel:
    """Affine-Gaussian transition x -> alpha + beta x + noise(tau)."""

    alpha: np.ndarray
    beta: np.ndarray
    tau: np.ndarray
    # The transition noise N(0, tau): it validates tau and carries its factors.
    noise: Gaussian = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = matcore._array(self.alpha, "alpha").reshape(-1)
        beta = matcore._array(self.beta, "beta")
        d = alpha.size
        if beta.shape != (d, d) or np.shape(self.tau) != (d, d):
            raise DomainError("kernel parameter dimensions are inconsistent")
        noise = _centred(self.tau, "tau")
        sv = np.linalg.svd(beta, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise DomainError(f"beta is numerically singular (min singular value {sv[-1]:.3e})")
        for name, value in (("alpha", _frozen(alpha)), ("beta", _frozen(beta)),
                            ("tau", noise.covariance), ("noise", noise)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.alpha.size

    @functools.cached_property
    def chi(self) -> np.ndarray:
        """tau^{-1} beta, the kernel's Fisher-Lipschitz matrix (computed once)."""
        return _frozen(self.noise.precision @ self.beta)


def _named(mean, cov, name: str) -> Gaussian:
    """N(mean, cov), whose construction validates ``cov``; an error names ``name``."""
    try:
        return Gaussian(mean, cov)
    except DomainError as exc:
        raise DomainError(f"{name}: {exc}") from None


def _centred(cov, name: str) -> Gaussian:
    """N(0, cov), validated as :func:`_named` does."""
    return _named(np.zeros(np.shape(cov)[-1:]), cov, name)


def kernel_to_json(kernel: LinearGaussianKernel) -> dict:
    return {
        "alpha": [float(x) for x in kernel.alpha],
        "beta": [float(x) for x in kernel.beta.reshape(-1)],
        "tau": [float(x) for x in kernel.tau.reshape(-1)],
    }


@dataclass(frozen=True)
class GaussianInstance:
    """A problem instance: two Gaussian marginals and the reference kernel, of one dimension."""

    mu: Gaussian
    eta: Gaussian
    kernel: LinearGaussianKernel

    def __post_init__(self) -> None:
        if not self.mu.dim == self.eta.dim == self.kernel.dim:
            raise DomainError(f"instance dimensions differ: mu {self.mu.dim}, "
                              f"eta {self.eta.dim}, kernel {self.kernel.dim}")


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
        mu=_named(vec("m"), mat("sigma"), "sigma"),
        eta=_named(vec("m_bar"), mat("sigma_bar"), "sigma_bar"),
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
    d = mu.dim
    return Gaussian(*_affine_blocks(mu, matcore._array(intercept, "intercept", (d,)),
                                    matcore._array(gain, "gain", (d, d)),
                                    matcore._array(noise, "noise", (d, d))))


@dataclass(frozen=True)
class GaussianRun:
    """Kernels K_0..K_M of the flow, each field one whole-run stack.

    Row m of every stack is half step m.  An even kernel maps x to y and an
    odd kernel maps y to x; :func:`_rescaled` derives row m's rescaled
    covariance on read, by sigma_bar at even m and by sigma at odd m.  At
    d = 16, 100 iterations (201 rows) the five stacks take 1.29 MB, 0.44 MB of
    it the covariance factors, which spare the rate report one ``eigh`` per
    even row.
    """

    mean: np.ndarray  # (M+1, d): the mean anchor, the mean of pi_m
    gain: np.ndarray  # (M+1, d, d)
    cov: np.ndarray   # (M+1, d, d): the noise covariance
    # cov[m] = cov_vecs[m] diag(cov_vals[m]) cov_vecs[m]', the factors its update computed
    cov_vals: np.ndarray  # (M+1, d)
    cov_vecs: np.ndarray  # (M+1, d, d)
    instance: GaussianInstance  # the instance it was run on: the readers' mu, eta and kernel

    def __len__(self) -> int:
        return len(self.mean)


def _conditional_cov(precision, chi, cov, step: int) -> tuple[np.ndarray, ...]:
    """Half step ``step``'s Bayes update (precision + chi' cov chi)^{-1} from one validated eigh.

    Returns the update and its factors ``(1 / w, q)``: its eigenvalues and
    eigenvectors, read from the eigh of the matrix it inverts.
    """
    try:
        _, w, q = matcore.spd_eigh(precision + chi.T @ cov @ chi)
    except DomainError as exc:
        raise NumericalError(f"covariance lost positivity at step {step}: {exc}") from exc
    return matcore.eigh_inverse(w, q), 1.0 / w, q


def sinkhorn_step(m: int, mean, cov, instance: GaussianInstance) -> tuple[np.ndarray, ...]:
    """Row m + 1, ``(mean, gain, cov, cov_vals, cov_vecs)``, from row m's mean and covariance.

    One conjugate Bayes half step of the mean/gain/covariance recursion.  An
    odd step is the even step with mu and eta swapped and chi transposed.
    """
    mu, eta, chi = instance.mu, instance.eta, instance.kernel.chi
    source, target, chi = (mu, eta, chi) if m % 2 == 0 else (eta, mu, chi.T)
    cov_next, vals, vecs = _conditional_cov(source.precision, chi, cov, m + 1)
    gain_next = cov_next @ chi.T
    return source.mean + gain_next @ (target.mean - mean), gain_next, cov_next, vals, vecs


def run_sinkhorn(instance: GaussianInstance, half_steps: int) -> GaussianRun:
    """The run of half steps 0..half_steps inclusive, each stack written in place.

    Row 0 is the reference kernel, factored as its noise is.  The stacks take
    1.29 MB at d = 16, 100 iterations, 0.44 MB of it the factors.
    """
    mu, kernel = instance.mu, instance.kernel
    count, d = matcore._integer(half_steps, "half_steps", 0) + 1, kernel.dim
    mean, vals = np.empty((count, d)), np.empty((count, d))
    gain, cov, vecs = (np.empty((count, d, d)) for _ in range(3))
    mean[0], gain[0], cov[0] = kernel.alpha + kernel.beta @ mu.mean, kernel.beta, kernel.tau
    vals[0], vecs[0] = kernel.noise.w, kernel.noise.q
    for m in range(count - 1):
        mean[m + 1], gain[m + 1], cov[m + 1], vals[m + 1], vecs[m + 1] = sinkhorn_step(
            m, mean[m], cov[m], instance)
    return GaussianRun(*map(_frozen, (mean, gain, cov, vals, vecs)), instance)


def _rescaled(source: Gaussian, cov) -> np.ndarray:
    """source^{-1/2} cov source^{-1/2}, the rescaled Riccati iterate of a covariance or a stack."""
    return source.inv_root @ cov @ source.inv_root


def _iterate_blocks(mean, gain, cov, odd: bool,
                    instance: GaussianInstance) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated mean and covariance of the bridge iterates P_n on (x, y).

    ``mean``, ``gain`` and ``cov`` are the run's fields at one row, or stacks
    of them from rows of one parity (``odd``).  The block of the coordinate
    the kernel maps to (y at even n, x at odd n) is the covariance of the
    marginal pi_n.  An odd kernel runs y -> x, so its source block is y.
    """
    source = instance.eta if odd else instance.mu
    return _affine_blocks(source, mean - gain @ source.mean, gain, cov, swap=odd)


def sinkhorn_joint(run: GaussianRun, m: int) -> Gaussian:
    """The bridge iterate P_m, row m of ``run``, as a 2d-dimensional Gaussian on (x, y)."""
    m = matcore._row(m, len(run), "half step")
    return Gaussian(*_iterate_blocks(run.mean[m], run.gain[m], run.cov[m], m % 2, run.instance))


def _chunks(d: int, *stacks, parities=(0, 1)):
    """Yield ``(odd, at, *chunk)`` over the rows of ``stacks``, one parity at a time.

    ``at`` slices the parity view ``[odd::2]``, whose row j is half step
    2j + odd, and ``chunk`` holds each stack's view rows ``at``.  A slice
    holds at most ``CHUNK_ELEMENTS // (2d)^2`` rows (and at least one), so a
    stack of their 2d x 2d joint covariances, which only the entropy-formula
    oracle builds, stays within the chunk budget.  The other readers build no
    joint, but read whole the d x d stacks of :func:`rate_report` raised the
    traced peak of a d = 16, 100-iteration all-checks run from 1.6 to 3.0 MB,
    past the 2.0 MB of ``test_gaussian_d16_run_memory_is_bounded``.  Chunked,
    with the rescaled rows derived per chunk, that peak was 1.1 MB; with the
    run's covariance factors kept it is 1.57 MB.
    """
    size = max(1, matcore.CHUNK_ELEMENTS // (2 * d) ** 2)
    for odd in parities:
        views = [stack[odd::2] for stack in stacks]
        rows = len(views[0])
        for start in range(0, rows, size):
            at = slice(start, min(start + size, rows))
            yield odd, at, *(view[at] for view in views)


# --------------------------------------------------------------------------
# Riccati flow.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiProblem:
    """The flow of mixing matrix gamma, varpi = (gamma gamma')^{-1}; the odd chain's is gamma'."""

    gamma: np.ndarray
    varpi: np.ndarray = field(init=False, repr=False, compare=False)
    # varpi = q diag(w) q', the one eigh varpi is validated from.
    w: np.ndarray = field(init=False, repr=False, compare=False)
    q: np.ndarray = field(init=False, repr=False, compare=False)
    varpi_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gamma = matcore._array(self.gamma, "gamma", (None, None))
        gram = gamma @ gamma.T
        _, w, q = matcore.spd_eigh(gram, "gamma gamma'")
        varpi, w, q = matcore.spd_eigh(matcore.eigh_inverse(w, q), "varpi")
        varpi_inv = matcore.eigh_inverse(w, q)
        residual = float(np.max(np.abs(varpi_inv - gram)))
        if residual > 1e-10 * max(1.0, float(np.max(np.abs(gram)))):
            raise DomainError(f"varpi^-1 != gamma gamma' (residual {residual:.3e})")
        for name, value in (("varpi", varpi), ("gamma", gamma), ("w", w), ("q", q),
                            ("varpi_inv", varpi_inv)):
            object.__setattr__(self, name, _frozen(value))

    @classmethod
    def from_instance(cls, instance: GaussianInstance) -> "RiccatiProblem":
        return cls(instance.eta.root @ instance.kernel.chi @ instance.mu.root)

    @functools.cached_property
    def spread(self) -> np.ndarray:
        """sqrt(w (w + 4)) at each eigenvalue w of varpi (computed once)."""
        return _frozen(np.sqrt(self.w * (self.w + 4.0)))

    @functools.cached_property
    def growth(self) -> np.ndarray:
        """lambda_+ - 1 = (w + sqrt(w (w + 4))) / 2 at each eigenvalue w of varpi.

        lambda_+ = w + r_w + 1, with r_w the fixed point's eigenvalue, is the
        larger root of lambda^2 - (2 + w) lambda + 1, and ``spread`` is
        lambda_+ - 1 / lambda_+.  Along each eigenvector the flow's distance to
        the fixed point contracts by 1 / lambda_+ per step.
        """
        return _frozen((self.w + self.spread) / 2.0)


def _psd(problem: RiccatiProblem, v, name: str, caller: str) -> np.ndarray:
    """``v`` symmetrized, or a :class:`DomainError`: naming ``name`` unless it has the
    problem's dimension, and ``caller`` unless it is PSD."""
    v = matcore.symmetrize(v, name)
    d = problem.w.size
    if v.shape != (d, d):
        raise DomainError(f"{name} must have shape {(d, d)}, got {v.shape}")
    if float(np.linalg.eigvalsh(v)[0]) < matcore.SQRT_CLAMP:
        raise DomainError(f"{caller} needs a positive semi-definite argument")
    return v


def riccati_apply(problem: RiccatiProblem, v) -> np.ndarray:
    """One application of v -> (I + (varpi + v)^{-1})^{-1}.

    With varpi + v = Q W Q' (one ``eigh``), the map is Q W (W + I)^{-1} Q'.
    """
    _, w, q = matcore.spd_eigh(problem.varpi + _psd(problem, v, "v", "riccati_apply"))
    return matcore.eigh_inverse(1.0 + 1.0 / w, q)


def riccati_iterates(problem: RiccatiProblem, v0, n) -> np.ndarray:
    """The :func:`riccati_apply` iterates v_n of v0, one for each entry of ``n``, in closed form.

    The map is linear-fractional.  In varpi's eigenbasis q the fixed point r
    and Lambda = varpi + r + I are diagonal, and the error e_n = q'(v_n - r)q
    follows e_{n+1}^{-1} = Lambda e_n^{-1} Lambda + Lambda.  So with
    phi = 1 / lambda_+ and h_n = (1 - phi^(2n)) / sqrt(w (w + 4)),
    e_n = diag(phi^n) (I + e_0 diag(h_n))^{-1} e_0 diag(phi^n): one batched
    ``solve`` for all of ``n``, which holds for a singular e_0 too.
    1 - phi^(2n) is taken as -expm1(-2n log1p(lambda_+ - 1)), so a small w
    does not cancel.  r enters by its eigenvalues, as in
    :func:`riccati_fixed_point`.  ``n`` is a non-negative integer array, and
    the result has its shape followed by (d, d).  v0 is PSD-checked once.
    """
    return _riccati_flow(problem, v0, "riccati_iterates")(n)


def _riccati_flow(problem: RiccatiProblem, v0, caller: str):
    """``n -> v_n``, the closed form of :func:`riccati_iterates` for one v0.

    v0's PSD check (one ``eigvalsh``, an error naming ``caller``), e_0 and
    the rates log1p(lambda_+ - 1) are computed here once, so a caller that
    reads the iterates in chunks of ``n`` pays only a ``solve`` per chunk.
    """
    v0 = _psd(problem, v0, "v0", caller)
    w, q = problem.w, problem.q
    r = w / problem.growth
    e0 = q.T @ v0 @ q - np.diag(r)
    log_growth = np.log1p(problem.growth)
    eye = np.eye(len(w))

    def iterates(n) -> np.ndarray:
        n = np.asarray(n)
        if not np.issubdtype(n.dtype, np.integer) or np.any(n < 0):
            raise DomainError(f"riccati_iterates needs non-negative integer steps, got {n!r}")
        log_phi_n = -n[..., None] * log_growth  # one column per eigenvector
        h = -np.expm1(2.0 * log_phi_n) / problem.spread
        error = np.linalg.solve(eye + e0 * h[..., None, :],
                                np.broadcast_to(e0, h.shape + (len(w),)))
        phi_n = np.exp(log_phi_n)
        return q @ ((phi_n[..., :, None] * error * phi_n[..., None, :]) + np.diag(r)) @ q.T

    return iterates


def fixed_point_residuals(problem: RiccatiProblem, r) -> dict[str, float]:
    """Residuals of every equivalent formulation of the fixed-point equation."""
    varpi = problem.varpi
    eye = np.eye(varpi.shape[0])
    r = matcore.symmetrize(r)
    r_inv = matcore.spd_inverse(r)
    return {
        "map": float(np.max(np.abs(riccati_apply(problem, r) - r))),
        "inverse": float(np.max(np.abs(r_inv - eye - matcore.spd_inverse(varpi + r)))),
        "varpi": float(np.max(np.abs(varpi @ r_inv - varpi - r))),
        "linear": float(np.max(np.abs(r_inv - eye - problem.varpi_inv @ r))),
        "quadratic": float(np.max(np.abs(r + r @ problem.varpi_inv @ r - eye))),
    }


def riccati_fixed_point(problem: RiccatiProblem) -> np.ndarray:
    """Unique positive definite fixed point -varpi/2 + (varpi + (varpi/2)^2)^{1/2}.

    Evaluated on varpi's eigenvalues in the conjugate form
    w / growth = 2 w / (w + sqrt(w (w + 4))) to avoid the cancellation the
    subtraction suffers for large varpi.
    """
    w, q = problem.w, problem.q
    r = matcore.symmetrize((q * (w / problem.growth)) @ q.T)
    scale = max(1.0, float(np.max(np.abs(problem.varpi))))
    worst = max(fixed_point_residuals(problem, r).values())
    if worst > 1e-12 * scale:
        raise NumericalError(f"riccati fixed point residual {worst:.3e} too large")
    return r


# --------------------------------------------------------------------------
# Closed-form bridge.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianBridge:
    """The limiting bridge kernel y = alpha + beta x + noise(tau).

    ``problem`` is the Riccati problem whose fixed point the bridge is built
    on, and ``instance`` the instance it was solved for: a reader takes a run
    and a bridge only of the same instance.
    """

    kernel: LinearGaussianKernel
    fixed_point: np.ndarray
    problem: RiccatiProblem
    instance: GaussianInstance

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed_point", _frozen(self.fixed_point))


def _own_bridge(run: GaussianRun, bridge: GaussianBridge) -> GaussianBridge:
    """``bridge``, or a :class:`DomainError` unless it was solved for the run's own instance."""
    if bridge.instance is not run.instance:
        raise DomainError("the bridge was solved for another instance")
    return bridge


def schrodinger_bridge_gaussian(instance: GaussianInstance) -> GaussianBridge:
    """Assemble the closed-form bridge from the Riccati fixed point."""
    mu, eta = instance.mu, instance.eta
    try:
        problem = RiccatiProblem.from_instance(instance)
    except DomainError as exc:
        raise DomainError("beta, sigma and sigma_bar give a numerically singular mixing matrix "
                          f"gamma = sigma_bar^(1/2) tau^-1 beta sigma^(1/2): {exc}") from None
    r = riccati_fixed_point(problem)
    noise = matcore.symmetrize(eta.root @ r @ eta.root)
    gain = noise @ instance.kernel.chi
    transport = gain @ mu.covariance @ gain.T + noise
    scale = max(1.0, float(np.max(np.abs(eta.covariance))))
    if float(np.max(np.abs(transport - eta.covariance))) > 1e-10 * scale:
        raise NumericalError("bridge transport identity gain sigma gain' + noise = sigma_bar failed")
    return GaussianBridge(LinearGaussianKernel(eta.mean - gain @ mu.mean, gain, noise), r, problem,
                          instance)


def bridge_joint(bridge: GaussianBridge) -> Gaussian:
    """The bridge's joint law on (x, y), x ~ mu of the instance it was solved for."""
    return affine_joint(bridge.instance.mu, bridge.kernel.alpha, bridge.kernel.beta,
                        bridge.kernel.tau)


def _kernel_kl(source: Gaussian, k1, k2) -> np.ndarray:
    """E_{x ~ source} KL(k1(x, .) | k2(x, .)) for two affine-Gaussian kernels.

    Each kernel is ``(mean, gain, noise)``: its mean at the source mean, its
    gain and its noise covariance, and each part may carry leading stack
    axes, which broadcast.  By the chain rule this is the relative entropy of
    the two joints that share the marginal ``source``.  With delta the mean
    difference and dG the gain difference it is
    1/2 [Burg(N1, N2) + delta' N2^{-1} delta + tr(dG' N2^{-1} dG sigma)]:
    one ``solve`` of N2 against [N1 | delta | dG sigma^{1/2}] and one
    ``slogdet`` of the ratio N2^{-1} N1, d x d work only.
    """
    (mean1, gain1, noise1), (mean2, gain2, noise2) = k1, k2
    d = source.dim
    delta = mean1 - mean2
    spread = (gain1 - gain2) @ source.root
    lead = np.broadcast_shapes(delta.shape[:-1], spread.shape[:-2], np.shape(noise1)[:-2],
                               np.shape(noise2)[:-2])
    rhs = np.empty(lead + (d, 2 * d + 1))
    rhs[..., :d] = noise1
    rhs[..., d] = delta
    rhs[..., d + 1:] = spread
    solved = np.linalg.solve(noise2, rhs)
    ratio = solved[..., :d]
    sign, logdet = np.linalg.slogdet(ratio)
    if np.any(sign <= 0):
        raise NumericalError("log-det of an SPD ratio came out non-positive")
    burg = np.trace(ratio, axis1=-2, axis2=-1) - d - logdet
    quad = (delta[..., None, :] @ solved[..., d:d + 1])[..., 0, 0]
    cross = np.sum(spread * solved[..., d + 1:], axis=(-2, -1))
    return 0.5 * (burg + quad + cross)


def _kernel_at(kernel: LinearGaussianKernel, source: Gaussian) -> tuple[np.ndarray, ...]:
    """``kernel`` as :func:`_kernel_kl` takes it on ``source``: mean at source's mean, gain, noise."""
    return kernel.alpha + kernel.beta @ source.mean, kernel.beta, kernel.tau


def _bridge_entropies(mean, gain, cov, bridge: GaussianBridge) -> np.ndarray:
    """Closed-form H(P_{2n} | bridge) from even rows (or stacks of them), by :func:`_kernel_kl`.

    P_{2n} and the bridge share the marginal mu, so this is E_mu of the KL of
    row 2n's kernel to the bridge's.
    """
    mu = bridge.instance.mu
    return _kernel_kl(mu, (mean, gain, cov), _kernel_at(bridge.kernel, mu))


def bridge_entropy(run: GaussianRun, n: int, bridge: GaussianBridge) -> float:
    """Closed-form H(P_{2n} | bridge) from row 2n's mean and covariance."""
    m = matcore._row(2 * matcore._integer(n, "n", 0), len(run), "half step")
    return float(_bridge_entropies(run.mean[m], run.gain[m], run.cov[m],
                                   _own_bridge(run, bridge)))


def entropy_formula_table(run: GaussianRun,
                          bridge: GaussianBridge) -> list[tuple[int, float, float]]:
    """``(n, formula, oracle)`` for each even row P_{2n} of the run.

    ``formula`` is :func:`bridge_entropy` and ``oracle`` is the same
    H(P_{2n} | bridge) as a Gaussian KL between the 2d-dimensional joints.
    Both are evaluated on stacked chunks of rows.
    """
    mu = run.instance.mu
    b_joint = bridge_joint(_own_bridge(run, bridge))
    formula = np.empty((len(run) + 1) // 2)
    oracle = np.empty_like(formula)
    for _, at, mean, gain, cov in _chunks(mu.dim, run.mean, run.gain, run.cov, parities=(0,)):
        formula[at] = _bridge_entropies(mean, gain, cov, bridge)
        j_mean, j_cov = _iterate_blocks(mean, gain, cov, False, run.instance)
        j_cov = matcore.assert_spd(j_cov, [f"joint P_2n at n={n}"
                                           for n in range(at.start, at.stop)])
        oracle[at] = _gaussian_kl(j_mean, j_cov, b_joint.mean, b_joint.covariance)
    return list(zip(range(len(formula)), formula.tolist(), oracle.tolist()))


def riccati_equivalence_errors(run: GaussianRun, bridge: GaussianBridge) -> list[float]:
    """The largest entry of |R_2n - v_n| for each even row 2n of the run.

    R_m is row m's covariance rescaled by eta, derived on read, and v_n the n-th
    :func:`riccati_apply` iterate of R_0, the closed form of
    :func:`riccati_iterates`: its set-up once per call, one ``solve`` per
    chunk of even rows.
    """
    problem, eta = _own_bridge(run, bridge).problem, run.instance.eta
    flow = _riccati_flow(problem, _rescaled(eta, run.cov[0]), "riccati_equivalence_errors")
    errors = np.empty((len(run) + 1) // 2)
    for _, at, cov in _chunks(eta.dim, run.cov, parities=(0,)):
        errors[at] = np.max(np.abs(_rescaled(eta, cov) - flow(np.arange(at.start, at.stop))),
                            axis=(1, 2))
    return errors.tolist()


# --------------------------------------------------------------------------
# Rate report.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianRateRow:
    n: int
    cov_error: float            # ||tau_{2n} - tau||_2 (tau: the bridge's)
    sqrt_error: float           # ||tau_{2n}^{1/2} - tau^{1/2}||_2
    mean_error: float
    product_norm: float         # ||sbar^{-1/2} directed-product sbar^{1/2}||_2
    directed_residual: float    # defect of the marginal-covariance product formula
    loop_gain_residual: float   # defect of the loop-gain / rescaled-cov identity and bounds


@dataclass(frozen=True)
class GaussianRateReport:
    rows: tuple[GaussianRateRow, ...]
    fit: fitting.RateFit | None
    theoretical_slope: float


def rate_report(run: GaussianRun, bridge: GaussianBridge) -> GaussianRateReport:
    """Convergence table of the even-index flow against the closed-form bridge.

    Row n >= 1 closes the loop of pair n, whose odd gain is the run's row 2n - 1.
    """
    pairs = (len(run) + 1) // 2
    if pairs <= MIN_RATE_PAIRS:
        raise DomainError(f"rate_report needs at least {MIN_RATE_PAIRS + 1} even rows")
    mu, eta, kernel = run.instance.mu, run.instance.eta, run.instance.kernel
    b = _own_bridge(run, bridge).kernel
    eta_mean = b.alpha + b.beta @ mu.mean
    sigma0 = kernel.beta @ mu.covariance @ kernel.beta.T + kernel.tau
    d = mu.dim
    problem = bridge.problem
    inv_gap = matcore.eigh_inverse(1.0 + problem.w, problem.q)  # (I + varpi)^{-1}

    # One column per even row, one row per GaussianRateRow field after n; n = 0 closes no loop.
    table = np.empty((6, pairs))
    table[3:, 0] = (1.0, 0.0, 0.0)
    product = np.eye(d)
    for _, at, mean, gain, cov, vals, vecs in _chunks(d, run.mean, run.gain, run.cov,
                                                      run.cov_vals, run.cov_vecs, parities=(0,)):
        table[:3, at] = (
            matcore.spectral_norm(cov - b.tau),
            matcore.spectral_norm(matcore.eigh_sqrt(cov, vals, vecs, [
                f"tau_2n at n={n}" for n in range(at.start, at.stop)]) - b.noise.root),
            matcore.vector_norm(mean - eta_mean),
        )
        k = int(at.start == 0)  # the loops start at n = 1
        looped = slice(at.start + k, at.stop)
        gain, cov, gap = gain[k:], cov[k:], np.eye(d) - _rescaled(eta, cov[k:])
        loop_gain = gain @ run.gain[2 * looped.start - 1:2 * looped.stop - 1:2]
        products = np.empty_like(loop_gain)
        for j, step_gain in enumerate(loop_gain):
            product = step_gain @ product
            products[j] = product
        sigma_2n = gain @ mu.covariance @ np.swapaxes(gain, 1, 2) + cov
        predicted = products @ (sigma0 - eta.covariance) @ np.swapaxes(products, 1, 2)
        # The loop-gain residual, raised to the bound defects -lowest and highest.
        residual = np.max(np.abs(eta.inv_root @ loop_gain @ eta.root - gap), axis=(1, 2))
        lowest = np.linalg.eigvalsh(matcore.symmetrize(gap))[:, 0]
        highest = np.linalg.eigvalsh(matcore.symmetrize(gap - inv_gap))[:, -1]
        residual = np.where(-lowest > residual, -lowest, residual)
        table[3:, looped] = (
            matcore.spectral_norm(eta.inv_root @ products @ eta.root),
            np.max(np.abs((sigma_2n - eta.covariance) - predicted), axis=(1, 2)),
            np.where(highest > residual, highest, residual),
        )
    rows = tuple(GaussianRateRow(n, *values) for n, values in enumerate(table.T.tolist()))
    # r and varpi share eigenvectors, so the least eigenvalue of r + varpi + I is
    # lambda_+ at varpi's least eigenvalue.
    rate_base = 1.0 + float(problem.growth[0])
    return GaussianRateReport(
        rows=rows,
        fit=fitting.fit_rate([(row.n, row.cov_error) for row in rows[1:]]),
        theoretical_slope=-2.0 * math.log(rate_base),
    )


# --------------------------------------------------------------------------
# Transport-inequality envelopes.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeRow:
    n: int
    value: float   # H(bridge | P_n), or a W2 distance
    bound: float   # its envelope


@dataclass(frozen=True)
class EnvelopeReport:
    kappa: float
    eps: float
    refined_factor: float  # refined entropy bound at even n >= 2: H_0 refined_factor^-(n/2 - 1)
    gate_contractive: bool
    entropy_rows: tuple[EnvelopeRow, ...]
    w2_rows: tuple[EnvelopeRow, ...]
    chained_w2_rows: tuple[EnvelopeRow, ...]


def envelope_report(run: GaussianRun, bridge: GaussianBridge) -> EnvelopeReport:
    """Entropy and 2-Wasserstein decay envelopes from the transport inequalities.

    Report row m reads the run's row m.  H(bridge | P_m) is :func:`_kernel_kl`
    over the marginal the two share: mu with the bridge kernel at even m, eta
    with its backward kernel at odd m.  W2 reads the covariance of pi_m, built
    as ``_affine_blocks`` builds its image block, after one validated ``eigh``.
    No 2d x 2d joint is built.  The log-Sobolev constants are exact
    here: the marginal potentials have constant Hessians sigma^{-1} and
    sigma_bar^{-1}, so rho = ||sigma||_2 and rho_bar = ||sigma_bar||_2.
    """
    mu, eta = run.instance.mu, run.instance.eta
    _own_bridge(run, bridge)
    kappa = matcore.spectral_norm(run.instance.kernel.chi)
    rho = matcore.spectral_norm(mu.covariance)
    rho_bar = matcore.spectral_norm(eta.covariance)
    eps = kappa ** 2 * rho * rho_bar
    vacuous = not (math.isfinite(eps) and eps > 0)
    # values[m] = H(bridge | P_m); dist[m] = W2(pi_m, eta) at even m and
    # W2(pi_m, mu) at odd m: the distance of each marginal to the target its
    # half step matches.
    bridge_kernels = (_kernel_at(bridge.kernel, mu),
                      _kernel_at(conjugate_kernel(mu, bridge.kernel), eta))
    values = np.empty(len(run))
    dist = np.empty(len(run))
    for odd, at, mean, gain, cov in _chunks(mu.dim, run.mean, run.gain, run.cov):
        source, target = (eta, mu) if odd else (mu, eta)
        # The covariance of pi_m, rounded as _affine_blocks rounds its image block.
        marg = gain @ source.covariance @ np.swapaxes(gain, -1, -2) + cov
        marg = matcore.assert_spd(marg, [f"marginal pi_m at m={2 * j + odd}"
                                         for j in range(at.start, at.stop)])
        values[odd::2][at] = _kernel_kl(source, bridge_kernels[odd], (mean, gain, cov))
        dist[odd::2][at] = _gaussian_w2(mean, marg, target.mean, target.root, target.inv_root)
    values, dist = values.tolist(), dist.tolist()
    h0 = values[0]
    base = 1.0 + 1.0 / eps if not vacuous else 1.0
    one_over_eps_bar = (1.0 + math.sqrt(1.0 + 4.0 / eps)) / 2.0 - 1.0 if not vacuous else 0.0
    entropy_rows = [EnvelopeRow(m, value, h0 * base ** (-(m // 2)))
                    for m, value in enumerate(values)]
    w2_rows = [EnvelopeRow(m, lhs, kappa * (rho_bar if m % 2 == 0 else rho) * prev)
               for m, (lhs, prev) in enumerate(zip(dist[1:], dist), start=1)]
    gate = kappa * math.sqrt(rho * rho_bar) < 1.0
    chained = [EnvelopeRow(m, lhs, eps ** (m // 2) * dist[0])
               for m, lhs in enumerate(dist) if gate and m % 2 == 0 and m > 0]
    return EnvelopeReport(
        kappa=kappa, eps=eps,
        refined_factor=base + one_over_eps_bar, gate_contractive=gate,
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
    sandwich_residuals: tuple[float, ...]
    rescaled_residuals: tuple[float, ...]


def strongly_convex_covariance_envelope(sigma, sigma_minus, sigma_bar, sigma_bar_minus,
                                        kernel: LinearGaussianKernel,
                                        n_max: int) -> CovarianceEnvelope:
    """Coupled upper/lower conditional-covariance recursions under two-sided curvature.

    With sigma_minus = sigma and sigma_bar_minus = sigma_bar both envelopes
    collapse onto the exact covariance flow.
    """
    n_max = matcore._integer(n_max, "n_max", 0)
    s, s_minus = _centred(sigma, "sigma"), _centred(sigma_minus, "sigma_minus")
    sb, sb_minus = _centred(sigma_bar, "sigma_bar"), _centred(sigma_bar_minus, "sigma_bar_minus")
    if not matcore.loewner_leq(s_minus.covariance, s.covariance, 1e-12):
        raise DomainError("need sigma_minus <= sigma in the Loewner order")
    if not matcore.loewner_leq(sb_minus.covariance, sb.covariance, 1e-12):
        raise DomainError("need sigma_bar_minus <= sigma_bar in the Loewner order")
    chi = kernel.chi

    upper = [kernel.tau.copy()]
    lower = [kernel.tau.copy()]
    for n in range(n_max):
        # Odd steps are even steps with the sigma_bar pair and chi transposed.
        law, law_minus, c = (s, s_minus, chi) if n % 2 == 0 else (sb, sb_minus, chi.T)
        upper.append(_conditional_cov(law.precision, c, lower[n], n + 1)[0])
        lower.append(_conditional_cov(law_minus.precision, c, upper[n], n + 1)[0])

    sandwich = tuple(
        max(0.0, -float(np.linalg.eigvalsh(matcore.symmetrize(up - low))[0]))
        for up, low in zip(upper, lower)
    )
    # The rescaled upper even flow is a Riccati iteration for the shrunk mixing matrix.
    problem_minus = RiccatiProblem(sb.root @ chi @ s_minus.root)
    rescaled = [_rescaled(sb, u) for u in upper[0::2]]
    return CovarianceEnvelope(
        upper=tuple(_frozen(u) for u in upper),
        lower=tuple(_frozen(l) for l in lower),
        sandwich_residuals=sandwich,
        rescaled_residuals=tuple(float(np.max(np.abs(riccati_apply(problem_minus, v) - nxt)))
                                 for v, nxt in zip(rescaled, rescaled[1:])),
    )
