"""Exact finite-state Sinkhorn engine.

The model couples two finite spaces through a strictly positive reference
kernel built from a cost matrix.  All potential updates run in the log domain
(log-sum-exp), so large cost oscillations cannot overflow; kernels, marginals
and joint matrices are exponentiated only when materialized for reporting.

Log-integrals once.  Each potential update is the row log-sum-exp of one log
kernel (:func:`_log_kernel`), and that log-sum-exp is also the normalizer of
the kernel the iterate materializes: :func:`run_sinkhorn` builds K_{2n} and
K_{2n+1} from the log-integrals its sweep has just taken, and
:func:`solve_bridge` reads the system residual off the sweep (two
log-integrals per sweep, not four).

Stacked diagnostics.  The per-iterate series behind the diagnostics (the
marginal KL gaps and chains, the phi-entropies, the identities' ratios,
maxima and tolerance tests, the rate report's sup and sandwich terms) are
computed on ``(N, m)`` stacks of at most ``matcore.CHUNK_ELEMENTS //
max(nx, ny)`` iterates, one numpy call per quantity per chunk.  What stays
per iterate: every matrix product (each keeps its expression, so BLAS
rounds it as before), the joint-matrix sums and KLs, and the sequential
recursion.  Rows keep their order.

Bit-identity.  A stacked value equals the per-iterate value bit for bit,
because three rules hold (counts measured with numpy 2.4.6 on x86-64):

- phi-entropy logs go through ``math.log``: ``np.log`` differs from it on
  4221 of 2 M uniform inputs in (0, 4);
- squares go through ``math.pow``, as Python's float ``** 2`` does: numpy's
  ``x * x`` differs from it on 1704 of 2 M uniform inputs in (-1, 1);
- a phi-entropy sums its terms in support order (``np.cumsum`` along the
  row), as the running sum did; a KL row is reduced by ``np.sum`` along the
  row, which builds the same pairwise tree as on the row alone, and a row
  where ``p`` vanishes sums its compacted positive entries on its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fitting, matcore
from .divergences import (
    HELLINGER_SQ,
    KL,
    TOTAL_VARIATION,
    phi_entropy,
    relative_entropy,
    relative_entropy_rows,
)
from .errors import DomainError, NumericalError
from .matcore import _frozen

IDENTITY_TOL = 1e-12
MARGINAL_TOL = 1e-10


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    if axis is None:
        return out.reshape(())
    return np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class DiscreteModel:
    """A finite Sinkhorn problem instance.

    ``cost`` is the raw cost matrix W; the reference kernel is the row
    normalization of exp(-W(x, y)) nu(y).  Row normalization is a cost shift
    by a function of x alone, which leaves every Sinkhorn object unchanged;
    the limiting bridge is additionally invariant under shifts by functions
    of y.  ``u_potential`` / ``v_potential`` are the normalized marginal
    potentials: mu = lambda * exp(-U), eta = nu * exp(-V).
    """

    nx: int
    ny: int
    cost: np.ndarray
    lambda_weights: np.ndarray
    nu_weights: np.ndarray
    u_potential: np.ndarray
    v_potential: np.ndarray
    log_lambda: np.ndarray
    log_nu: np.ndarray
    log_k: np.ndarray
    mu: np.ndarray
    eta: np.ndarray

    @property
    def cost_oscillation(self) -> float:
        return float(self.cost.max() - self.cost.min())

    @property
    def eps_w(self) -> float:
        """Uniform cross-ratio bound exp(-2 osc(W)) of the reference cost."""
        return math.exp(-2.0 * self.cost_oscillation)

    # Log-domain integral operators of the reference kernel pair.

    def k_log_integral(self, v_vec: np.ndarray) -> np.ndarray:
        """log K(exp(-v))(x) for the Markov reference kernel K."""
        return _even_kernel(self, v_vec)[1]

    def kflat_log_integral(self, u_vec: np.ndarray) -> np.ndarray:
        """log K_flat(exp(-u))(y) for the reversed reference operator."""
        return _odd_kernel(self, u_vec)[1]


def _log_kernel(log_k: np.ndarray, log_w: np.ndarray, pot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log_p, lse)``: ``log_p = log_k(x, y) + log w(y) - pot(y)`` and its row log-sum-exp.

    ``(model.log_k, model.log_nu, v)`` gives log K(exp(-v)) as ``lse`` and
    K_{2n} as ``exp(log_p - lse)``; ``(model.log_k.T, model.log_lambda, u)``
    gives log K_flat(exp(-u)) and K_{2n+1}.  The rows of the transposed view
    are summed in the same order as the columns of ``log_k``, so both
    integrals round as a column log-sum-exp of ``log_k`` would.
    """
    log_p = log_k + (log_w - pot)[None, :]
    return log_p, _logsumexp(log_p, axis=1)


def build_model(cost, lambda_weights, nu_weights, u=None, v=None) -> DiscreteModel:
    """Validate and assemble a :class:`DiscreteModel` from raw arrays."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise DomainError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost matrix must be finite (zero kernel entries are not supported)")
    nx, ny = cost.shape
    lam = np.asarray(lambda_weights, dtype=float).reshape(-1)
    nu = np.asarray(nu_weights, dtype=float).reshape(-1)
    if lam.size != nx or nu.size != ny:
        raise DomainError("reference weights do not match the cost dimensions")
    if np.any(lam <= 0) or np.any(nu <= 0) or not (np.all(np.isfinite(lam)) and np.all(np.isfinite(nu))):
        raise DomainError("reference weights must be strictly positive and finite")
    u = np.zeros(nx) if u is None else np.asarray(u, dtype=float).reshape(-1)
    v = np.zeros(ny) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if u.size != nx or v.size != ny:
        raise DomainError("marginal potentials do not match the cost dimensions")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise DomainError("marginal potentials must be finite")

    log_lambda = np.log(lam)
    log_nu = np.log(nu)
    # Normalize the potentials so the marginals are exact probabilities.
    u = u + _logsumexp(log_lambda - u)
    v = v + _logsumexp(log_nu - v)
    mu = np.exp(log_lambda - u)
    eta = np.exp(log_nu - v)
    # Markov gauge: shift the cost per row so the reference kernel is stochastic.
    row_shift = _logsumexp(-cost + log_nu[None, :], axis=1)
    log_k = -cost - row_shift[:, None]
    return DiscreteModel(
        nx=nx,
        ny=ny,
        cost=_frozen(cost),
        lambda_weights=_frozen(lam),
        nu_weights=_frozen(nu),
        u_potential=_frozen(u),
        v_potential=_frozen(v),
        log_lambda=_frozen(log_lambda),
        log_nu=_frozen(log_nu),
        log_k=_frozen(log_k),
        mu=_frozen(mu),
        eta=_frozen(eta),
    )


def model_to_json(model: DiscreteModel) -> dict:
    return {
        "nx": model.nx,
        "ny": model.ny,
        "W": [float(x) for x in model.cost.reshape(-1)],
        "lambda": [float(x) for x in model.lambda_weights],
        "nu": [float(x) for x in model.nu_weights],
        "U": [float(x) for x in model.u_potential],
        "V": [float(x) for x in model.v_potential],
    }


def model_from_json(payload: dict | str) -> DiscreteModel:
    if isinstance(payload, str):
        payload = json.loads(payload)
    nx, ny = int(payload["nx"]), int(payload["ny"])
    cost = np.asarray(payload["W"], dtype=float).reshape(nx, ny)
    return build_model(cost, payload["lambda"], payload["nu"], payload.get("U"), payload.get("V"))


@dataclass(frozen=True)
class SinkhornPotentials:
    """Potential pair (U_n, V_n) at a half-step index n."""

    step: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _frozen(self.u))
        object.__setattr__(self, "v", _frozen(self.v))


def initial_potentials(model: DiscreteModel) -> SinkhornPotentials:
    """Start of the iteration: (U_0, V_0) = (U, 0)."""
    return SinkhornPotentials(step=0, u=model.u_potential.copy(), v=np.zeros(model.ny))


def _advance(model: DiscreteModel, potentials: SinkhornPotentials, lse: np.ndarray) -> SinkhornPotentials:
    """Half step n -> n + 1 from the log-integral ``lse`` it adds.

    ``lse`` is log K_flat(exp(-U_n)) at an even n and log K(exp(-V_n)) at an
    odd n; either way it is the row normalizer of K_{n+1}.
    """
    n = potentials.step
    if n % 2 == 0:
        u_next, v_next = potentials.u, model.v_potential + lse
    else:
        u_next, v_next = model.u_potential + lse, potentials.v
    if not (np.all(np.isfinite(u_next)) and np.all(np.isfinite(v_next))):
        raise NumericalError(f"non-finite potential produced at step {n + 1}")
    return SinkhornPotentials(step=n + 1, u=u_next, v=v_next)


def half_step(model: DiscreteModel, potentials: SinkhornPotentials) -> SinkhornPotentials:
    """Advance the potential recursion by one half step (log domain)."""
    if potentials.step % 2 == 0:
        return _advance(model, potentials, model.kflat_log_integral(potentials.u))
    return _advance(model, potentials, model.k_log_integral(potentials.v))


def sweep(model: DiscreteModel, potentials: SinkhornPotentials) -> SinkhornPotentials:
    """One full Sinkhorn sweep: a V update followed by a U update."""
    return half_step(model, half_step(model, potentials))


@dataclass(frozen=True)
class SinkhornIterate:
    """Materialized kernels, marginals and joints for one pair index n."""

    step: int
    potentials: SinkhornPotentials
    kernel_even: np.ndarray  # K_{2n}: nx x ny, row stochastic
    kernel_odd: np.ndarray   # K_{2n+1}: ny x nx, row stochastic
    pi_even: np.ndarray      # pi_{2n} = mu K_{2n} on Y
    pi_odd: np.ndarray       # pi_{2n+1} = eta K_{2n+1} on X
    joint_even: np.ndarray   # P_{2n} on X x Y
    joint_odd: np.ndarray    # P_{2n+1} on X x Y


def _stochastic(log_kernel: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The row-stochastic kernel ``exp(log_p - lse)`` of a :func:`_log_kernel` pair."""
    log_p, lse = log_kernel
    return np.exp(log_p - lse[:, None])


def _even_kernel(model: DiscreteModel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_log_kernel` of K_{2n} from V_{2n}; its ``lse`` gives U_{2n}."""
    return _log_kernel(model.log_k, model.log_nu, v)


def _odd_kernel(model: DiscreteModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_log_kernel` of K_{2n+1} from U_{2n}; its ``lse`` gives V_{2n+1}."""
    return _log_kernel(model.log_k.T, model.log_lambda, u)


def materialize(model: DiscreteModel, potentials: SinkhornPotentials) -> SinkhornIterate:
    """Exponentiate the potentials at an even step into kernels and marginals."""
    if potentials.step % 2 != 0:
        raise DomainError("materialize requires potentials at an even step")
    return _materialize(model, potentials, _even_kernel(model, potentials.v),
                        _odd_kernel(model, potentials.u))


def _materialize(model: DiscreteModel, potentials: SinkhornPotentials,
                 log_even: tuple[np.ndarray, np.ndarray],
                 log_odd: tuple[np.ndarray, np.ndarray]) -> SinkhornIterate:
    kernel_even = _stochastic(log_even)
    kernel_odd = _stochastic(log_odd)
    pi_even = model.mu @ kernel_even
    pi_odd = model.eta @ kernel_odd
    joint_even = model.mu[:, None] * kernel_even
    joint_odd = (model.eta[:, None] * kernel_odd).T
    return SinkhornIterate(
        step=potentials.step // 2,
        potentials=potentials,
        kernel_even=_frozen(kernel_even),
        kernel_odd=_frozen(kernel_odd),
        pi_even=_frozen(pi_even),
        pi_odd=_frozen(pi_odd),
        joint_even=_frozen(joint_even),
        joint_odd=_frozen(joint_odd),
    )


def run_sinkhorn(model: DiscreteModel, pairs: int) -> list[SinkhornIterate]:
    """Materialized iterates for pair indices 0..pairs inclusive.

    Each iterate is built from the log-integrals its sweep has just taken:
    the one behind V_{2n+1} normalizes K_{2n+1}, and the one behind U_{2n}
    normalizes K_{2n}.
    """
    if pairs < 0:
        raise DomainError("pairs must be nonnegative")
    potentials = initial_potentials(model)
    log_even = _even_kernel(model, potentials.v)
    iterates = []
    while True:
        log_odd = _odd_kernel(model, potentials.u)
        iterates.append(_materialize(model, potentials, log_even, log_odd))
        if len(iterates) > pairs:
            return iterates
        half = _advance(model, potentials, log_odd[1])
        log_even = _even_kernel(model, half.v)
        potentials = _advance(model, half, log_even[1])


def dual_kernel(kernel, mu) -> np.ndarray:
    """Bayes dual K*_mu(y, x) = mu(x) K(x, y) / (mu K)(y)."""
    kernel = np.asarray(kernel, dtype=float)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if kernel.ndim != 2 or kernel.shape[0] != mu.size:
        raise DomainError("kernel rows must match the support of mu")
    pushed = mu @ kernel
    if np.any(pushed <= 0):
        raise DomainError("mu K vanishes somewhere: dual kernel undefined (absolute continuity fails)")
    return (mu[:, None] * kernel).T / pushed[:, None]


# --------------------------------------------------------------------------
# Per-iterate series, stacked in chunks.
# --------------------------------------------------------------------------


def _per_chunk(items, model: DiscreteModel, fn) -> list:
    """``fn(chunk)`` over consecutive chunks of ``items``, concatenated into one list.

    A chunk holds at most ``matcore.CHUNK_ELEMENTS // max(nx, ny)`` items, so a stack
    of one marginal (or one identity's vector) per iterate fits the budget.
    """
    size = max(1, matcore.CHUNK_ELEMENTS // max(model.nx, model.ny))
    out: list = []
    for start in range(0, len(items), size):
        out.extend(fn(items[start:start + size]))
    return out


def _stack(iterates, name: str) -> np.ndarray:
    """The ``(N, m)`` stack of one marginal field of each iterate."""
    return np.stack([getattr(it, name) for it in iterates])


def marginal_gaps(model: DiscreteModel, iterates) -> tuple[list[float], list[float]]:
    """H(eta | pi_{2n}) and H(mu | pi_{2n+1}) for each iterate, one KL call per chunk."""
    gap_eta = _per_chunk(iterates, model, lambda chunk: relative_entropy_rows(
        model.eta, _stack(chunk, "pi_even")).tolist())
    gap_mu = _per_chunk(iterates, model, lambda chunk: relative_entropy_rows(
        model.mu, _stack(chunk, "pi_odd")).tolist())
    return gap_eta, gap_mu


# --------------------------------------------------------------------------
# Entropy ladder.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderRow:
    n: int
    entropy_to_bridge: float   # H(Q | P_{2n})
    gap_eta: float             # H(eta | pi_{2n})
    gap_mu: float              # H(mu | pi_{2n+1})
    partial_sum: float         # sum of the gaps below n
    residual: float            # defect of the decomposition at n


@dataclass(frozen=True)
class LadderReport:
    total: float               # H(Q | P)
    rows: tuple[LadderRow, ...]

    @property
    def max_residual(self) -> float:
        return max((row.residual for row in self.rows), default=0.0)


def entropy_ladder(model: DiscreteModel, iterates, q) -> LadderReport:
    """Decompose H(Q | P) into per-step marginal gaps plus H(Q | P_{2n}).

    Rows where Q is not absolutely continuous w.r.t. the iterate carry
    infinite entries and a NaN residual; they are flagged, not fatal.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (model.nx, model.ny):
        raise DomainError("coupling shape does not match the model")
    if (
        float(np.max(np.abs(q.sum(axis=1) - model.mu))) > MARGINAL_TOL
        or float(np.max(np.abs(q.sum(axis=0) - model.eta))) > MARGINAL_TOL
    ):
        raise DomainError("coupling marginals do not match (mu, eta)")
    to_bridge = [relative_entropy(q, it.joint_even) for it in iterates]
    total = to_bridge[0]
    rows = []
    partial = 0.0
    for it, h_q, gap_eta, gap_mu in zip(iterates, to_bridge, *marginal_gaps(model, iterates)):
        n = it.step
        if math.isinf(total) or math.isinf(h_q):
            residual = math.nan
        else:
            residual = abs(total - h_q - partial)
        rows.append(
            LadderRow(
                n=n,
                entropy_to_bridge=h_q,
                gap_eta=gap_eta,
                gap_mu=gap_mu,
                partial_sum=partial,
                residual=residual,
            )
        )
        partial += gap_eta + gap_mu
    return LadderReport(total=total, rows=tuple(rows))


# --------------------------------------------------------------------------
# Schrodinger system solver.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingRule:
    potential_tol: float = 1e-12
    max_sweeps: int = 10_000


@dataclass(frozen=True)
class BridgeSolution:
    u: np.ndarray
    v: np.ndarray
    bridge: np.ndarray
    iterations_used: int
    residual: float
    converged: bool


def _defect(fixed: np.ndarray, lse: np.ndarray, pot: np.ndarray) -> float:
    """Max-norm violation of one fixed-point equation ``pot = fixed + lse``."""
    return float(np.max(np.abs(fixed + lse - pot)))


def system_residual(model: DiscreteModel, u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm violation of the two coupled fixed-point equations."""
    return max(_defect(model.u_potential, model.k_log_integral(v), u),
               _defect(model.v_potential, model.kflat_log_integral(u), v))


def solve_bridge(model: DiscreteModel, stop: StoppingRule | None = None) -> BridgeSolution:
    """Iterate sweeps until the potential change (hence the system) converges.

    The returned potentials keep the gauge pinned by the initial condition
    (U_0, V_0) = (U, 0); no re-centering is applied.  A sweep takes two
    log-integrals: after it the U equation holds exactly (U_{2n+2} is its own
    right side), and the V equation's right side is the next sweep's V step.
    """
    stop = stop or StoppingRule()
    potentials = initial_potentials(model)
    residual = system_residual(model, potentials.u, potentials.v)
    converged = residual <= stop.potential_tol
    log_even = _even_kernel(model, potentials.v)
    v_step = model.kflat_log_integral(potentials.u)
    sweeps = 0
    while not converged and sweeps < stop.max_sweeps:
        sweeps += 1
        half = _advance(model, potentials, v_step)
        log_even = _even_kernel(model, half.v)
        nxt = _advance(model, half, log_even[1])
        delta = max(
            float(np.max(np.abs(nxt.u - potentials.u))),
            float(np.max(np.abs(nxt.v - potentials.v))),
        )
        potentials = nxt
        v_step = model.kflat_log_integral(potentials.u)
        residual = _defect(model.v_potential, v_step, potentials.v)
        converged = delta <= stop.potential_tol or residual <= stop.potential_tol
    return BridgeSolution(
        u=potentials.u,
        v=potentials.v,
        bridge=_frozen(model.mu[:, None] * _stochastic(log_even)),
        iterations_used=sweeps,
        residual=residual,
        converged=converged,
    )


# --------------------------------------------------------------------------
# Identity suite.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    name: str
    index: int
    passed: bool
    residual: float


@dataclass(frozen=True)
class DiagnosticsReport:
    rows: tuple[CheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[CheckRow]:
        return [row for row in self.rows if not row.passed]


def _close_rows(name: str, steps, lhs, rhs, tol: float = IDENTITY_TOL) -> list[CheckRow]:
    """One row per step: ``lhs[i]`` equals ``rhs[i]`` up to ``tol`` relative to max(1, |rhs[i]|).

    ``lhs`` is a list of vectors and ``rhs`` their ``(N, m)`` stack, or one
    vector that every step shares.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.broadcast_to(rhs, lhs.shape)
    peak = np.max(np.abs(rhs), axis=-1, initial=0.0)
    residual = np.max(np.abs(lhs - rhs), axis=-1, initial=0.0)
    passed = residual <= tol * np.maximum(peak, 1.0)
    return [CheckRow(name, n, ok, value)
            for n, ok, value in zip(steps, passed.tolist(), residual.tolist())]


def _chain_rows(name: str, steps, chain, tol: float = IDENTITY_TOL) -> list[CheckRow]:
    """One row per step: the largest rise along the step's chain of values, which should not increase.

    ``chain`` lists one series per link, each with a value per step.  As
    Python's ``max`` from 0.0 does, a NaN rise counts as none.
    """
    values = np.array(chain, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN rise, as with floats
        rise = values[:-1] - values[1:]
    worst = np.max(np.where(rise > 0.0, rise, 0.0), axis=0, initial=0.0)
    return [CheckRow(name, n, ok, value)
            for n, ok, value in zip(steps, (worst <= tol).tolist(), worst.tolist())]


def _simplex_descent(fn, dim: int, mass: float, start=None, min_step: float = 1e-7):
    """Coordinate-exchange descent over the scaled simplex {t >= 0, sum t = mass}."""
    t = np.full(dim, mass / dim) if start is None else np.asarray(start, dtype=float).copy()
    best = fn(t)
    step = mass / 4.0
    while step > min_step * mass:
        improved = True
        while improved:
            improved = False
            for i in range(dim):
                for j in range(dim):
                    if i == j or t[j] < step:
                        continue
                    cand = t.copy()
                    cand[i] += step
                    cand[j] -= step
                    val = fn(cand)
                    if val < best:
                        best, t, improved = val, cand, True
        step /= 4.0
    return t, best


def _half_bridge_rows(name: str, index: int, reference: np.ndarray, candidate: np.ndarray,
                      fixed_marginal: np.ndarray, axis: int) -> list[CheckRow]:
    """Brute-force argmin checks of the two half-bridge variational identities.

    ``axis`` is the coordinate whose marginal is pinned (0 for mu-side, 1 for
    eta-side); each slice of the polytope is an independent scaled simplex, so
    the oracle minimizes slice by slice with a coordinate-exchange descent.
    """
    if axis == 0:
        reference, candidate = reference.T, candidate.T
    dim = reference.shape[0]
    worst_forward = 0.0
    worst_reverse = 0.0
    worst_dist = 0.0
    for col in range(reference.shape[1]):
        p = reference[:, col]
        cand = candidate[:, col]
        mass = float(fixed_marginal[col])
        if mass <= 0:
            continue

        def forward(t, p=p):
            return relative_entropy(t, p)

        def reverse(t, p=p):
            return relative_entropy(p, t)

        t_fwd, best_fwd = _simplex_descent(forward, dim, mass)
        t_rev, best_rev = _simplex_descent(reverse, dim, mass)
        worst_forward = max(worst_forward, forward(cand) - best_fwd)
        worst_reverse = max(worst_reverse, reverse(cand) - best_rev)
        worst_dist = max(
            worst_dist,
            float(np.max(np.abs(t_fwd - cand))),
            float(np.max(np.abs(t_rev - cand))),
        )
    return [
        CheckRow(f"{name}-forward-argmin", index, worst_forward <= 1e-9, max(worst_forward, 0.0)),
        CheckRow(f"{name}-reverse-argmin", index, worst_reverse <= 1e-9, max(worst_reverse, 0.0)),
        CheckRow(f"{name}-argmin-location", index, worst_dist <= 2e-3, worst_dist),
    ]


def identity_suite(model: DiscreteModel, iterates) -> DiagnosticsReport:
    """Evaluate every structural identity the iteration is supposed to satisfy.

    Each matrix product is taken per iterate; the KL chains, ratios and
    tolerance tests run on stacks of one chunk of iterates.  Rows come step
    by step, in the order of the identities below.
    """
    if len(iterates) < 2:
        raise DomainError("identity_suite needs at least two consecutive iterates")
    mu, eta = model.mu, model.eta
    steps = [it.step for it in iterates]
    gap_eta, gap_mu = marginal_gaps(model, iterates)  # H(eta | pi_2n), H(mu | pi_2n+1)
    odd_mu = _per_chunk(iterates, model, lambda chunk: relative_entropy_rows(
        _stack(chunk, "pi_odd"), mu).tolist())
    even_eta = _per_chunk(iterates, model, lambda chunk: relative_entropy_rows(
        _stack(chunk, "pi_even"), eta).tolist())
    eta_chain = _chain_rows("monotone-eta-chain", steps[:-1],
                            [gap_eta[1:], odd_mu[:-1], gap_eta[:-1]])
    mu_chain = _chain_rows("monotone-mu-chain", steps[:-1],
                           [even_eta[1:], gap_mu[:-1], even_eta[:-1]])

    def forward(pairs):
        its = [it for it, _ in pairs]
        at = [it.step for it in its]
        pi_odd = _stack(its, "pi_odd")
        return zip(
            _close_rows("commute-even-forward", at,
                        [it.kernel_even @ (eta / it.pi_even) for it in its], pi_odd / mu),
            _close_rows("commute-even-backward", at,
                        [nxt.kernel_even @ (it.pi_even / eta) for it, nxt in pairs], mu / pi_odd),
            _close_rows("fixed-point-mu", at, [it.pi_even @ it.kernel_odd for it in its], mu),
            _close_rows("fixed-point-eta", at,
                        [it.pi_odd @ nxt.kernel_even for it, nxt in pairs], eta),
            _close_rows("joint-marginal-even", at, [it.joint_even.sum(axis=1) for it in its], mu),
            _close_rows("joint-marginal-odd", at, [it.joint_odd.sum(axis=0) for it in its], eta),
        )

    def backward(pairs):
        at = [it.step for _, it in pairs]
        pi_even = _stack([it for _, it in pairs], "pi_even")
        pi_odd = _stack([it for _, it in pairs], "pi_odd")
        return zip(
            _close_rows("commute-odd-forward", at,
                        [prev.kernel_odd @ (mu / prev.pi_odd) for prev, _ in pairs], pi_even / eta),
            _close_rows("commute-odd-backward", at,
                        [it.kernel_odd @ (prev.pi_odd / mu) for prev, it in pairs], eta / pi_even),
            _close_rows("semigroup-even", at,
                        [(prev.kernel_odd @ it.kernel_even) @ (prev.pi_even / eta)
                         for prev, it in pairs], pi_even / eta),
            _close_rows("semigroup-odd", at,
                        [(it.kernel_even @ it.kernel_odd) @ (prev.pi_odd / mu)
                         for prev, it in pairs], pi_odd / mu),
        )

    pairs = list(zip(iterates, iterates[1:]))
    rows: list[CheckRow] = []
    for eta_row, mu_row, close in zip(eta_chain, mu_chain, _per_chunk(pairs, model, forward)):
        rows += [eta_row, mu_row, *close]
    for close in _per_chunk(pairs, model, backward):
        rows += close
    if model.nx <= 4 and model.ny <= 4:
        it, nxt = iterates[0], iterates[1]
        rows.extend(_half_bridge_rows(
            "half-bridge-odd", it.step, it.joint_even, it.joint_odd, eta, axis=1,
        ))
        rows.extend(_half_bridge_rows(
            "half-bridge-even", it.step, it.joint_odd, nxt.joint_even, mu, axis=0,
        ))
    return DiagnosticsReport(rows=tuple(rows))


# --------------------------------------------------------------------------
# Geometric rate report (bounded cost).
# --------------------------------------------------------------------------

RATE_PHIS = (KL, TOTAL_VARIATION, HELLINGER_SQ)
SATURATION_GUARD = 1e-300


@dataclass(frozen=True)
class RatioRow:
    n: int
    phi_name: str
    value: float        # H_phi(pi_{2n}, eta)
    value_next: float   # H_phi(pi_{2(n+1)}, eta)
    ratio: float
    saturated: bool
    within_bound: bool


@dataclass(frozen=True)
class DiscreteRateReport:
    eps_w: float
    bound: float
    ratio_rows: tuple[RatioRow, ...]
    sup_series: tuple[tuple[int, float], ...]
    sup_fit: fitting.RateFit | None
    theoretical_slope: float
    slope_within: bool | None
    sandwich_ok: bool
    sandwich_residual: float


def geometric_rate_report(model: DiscreteModel, iterates) -> DiscreteRateReport:
    """Per-step contraction diagnostics against the bounded-cost rate bound."""
    eps_w = model.eps_w
    bound = (1.0 - eps_w) ** 2
    eta = model.eta

    def scores(chunk):
        pi = _stack(chunk, "pi_even")
        # H_phi(pi_2n, eta) once per iterate and phi; consecutive iterates pair up.
        values = zip(*(phi_entropy(phi, pi, eta).tolist() for phi in RATE_PHIS))
        sup = np.max(np.abs(pi / eta - 1.0), axis=-1)
        low = np.max(eps_w * eta - pi, axis=-1, initial=0.0)
        # eps_w underflows to 0 for a large cost oscillation, and then the
        # upper sandwich pi <= eta / eps_w holds vacuously.
        if eps_w > 0.0:
            high = np.max(pi - eta / eps_w, axis=-1, initial=0.0)
        else:
            high = np.zeros(len(chunk))
        return zip(values, sup.tolist(), low.tolist(), high.tolist())

    scored = _per_chunk(iterates, model, scores)
    values, sup, low, high = zip(*scored) if scored else ((),) * 4
    ratio_rows: list[RatioRow] = []
    for it, row, row_next in zip(iterates, values, values[1:]):
        for phi, value, value_next in zip(RATE_PHIS, row, row_next):
            saturated = value < SATURATION_GUARD
            ratio = math.nan if saturated else value_next / value
            within = True if saturated else ratio <= bound + 1e-10
            ratio_rows.append(RatioRow(
                n=it.step, phi_name=phi.name, value=value, value_next=value_next,
                ratio=ratio, saturated=saturated, within_bound=within,
            ))
    sup_series = tuple(zip((it.step for it in iterates), sup))
    sup_fit = fitting.fit_rate(sup_series)
    theoretical_slope = 2.0 * math.log(1.0 - eps_w) if eps_w < 1.0 else -math.inf
    slope_within = None
    if sup_fit is not None and math.isfinite(theoretical_slope):
        slope_within = sup_fit.slope <= theoretical_slope + 0.05 * abs(theoretical_slope)
    # The sandwich is checked from n = 1; a NaN entry counts as no violation,
    # as in Python's max.
    sandwich_residual = max([0.0, *low[1:], *high[1:]])
    return DiscreteRateReport(
        eps_w=eps_w,
        bound=bound,
        ratio_rows=tuple(ratio_rows),
        sup_series=sup_series,
        sup_fit=sup_fit,
        theoretical_slope=theoretical_slope,
        slope_within=slope_within,
        sandwich_ok=sandwich_residual <= IDENTITY_TOL,
        sandwich_residual=sandwich_residual,
    )
