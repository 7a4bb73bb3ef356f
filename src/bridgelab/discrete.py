"""Exact finite-state Sinkhorn engine.

The model couples two finite spaces through a strictly positive reference
kernel built from a cost matrix.  All potential updates run in the log domain
(log-sum-exp), so large cost oscillations cannot overflow; kernels, marginals
and joint matrices are exponentiated only when materialized for reporting.

One recursion.  Sinkhorn is one potential recursion, a V half step then a
U half step, and :func:`_sweeps` is its only code path.  Each half step is
the row log-sum-exp of one log kernel (:func:`_log_kernel`), and that
log-sum-exp is also the normalizer of the kernel the iterate materializes:
:func:`run_sinkhorn` builds K_{2n} and K_{2n+1} from the log-integrals its
sweep has just taken, and :func:`solve_bridge` reads the system residual
off the same sweeps (two log-integrals per sweep, not four).

Stacked diagnostics.  The per-iterate series behind the diagnostics (the
marginal KL gaps and chains, the phi-entropies, the identities' ratios
and maxima, the rate report's sup and sandwich terms) are
computed on ``(N, m)`` stacks of at most ``matcore.CHUNK_ELEMENTS //
max(nx, ny)`` iterates, one numpy call per quantity per chunk.  What stays
per iterate: every matrix-vector product, the joint-matrix sums and KLs,
and the sequential recursion.  Rows keep their order.

One evaluator.  Every KL and phi-entropy goes through
:mod:`bridgelab.divergences`, which evaluates the integrand with numpy and
sums each row by ``np.sum`` along it.  A row of a stack is summed as the row
alone would be, so a stacked value equals the per-iterate value bit for bit.
"""

from __future__ import annotations

import itertools
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


def model_from_json(payload: dict) -> DiscreteModel:
    payload = matcore._payload(payload, "discrete", ("nx", "ny", "W", "lambda", "nu"))
    nx, ny = matcore._integer(payload["nx"], "nx", 1), matcore._integer(payload["ny"], "ny", 1)
    array = lambda key, shape: matcore._payload_array(payload, key, shape)
    potential = lambda key, n: None if payload.get(key) is None else array(key, (n,))
    return build_model(array("W", (nx, ny)), array("lambda", (nx,)), array("nu", (ny,)),
                       potential("U", nx), potential("V", ny))


@dataclass(frozen=True)
class SinkhornIterate:
    """Materialized potentials, kernels and marginals for one pair index n.

    The joints are scalings of the kernels, derived on each read, so an
    iterate stores two matrices, not four.
    """

    step: int
    u: np.ndarray            # U_{2n}
    v: np.ndarray            # V_{2n} = V_{2n-1}
    kernel_even: np.ndarray  # K_{2n}: nx x ny, row stochastic
    kernel_odd: np.ndarray   # K_{2n+1}: ny x nx, row stochastic
    pi_even: np.ndarray      # pi_{2n} = mu K_{2n} on Y
    pi_odd: np.ndarray       # pi_{2n+1} = eta K_{2n+1} on X
    mu: np.ndarray           # the model's mu, shared by every iterate
    eta: np.ndarray          # the model's eta, shared by every iterate

    @property
    def joint_even(self) -> np.ndarray:
        """P_{2n} on X x Y."""
        return self.mu[:, None] * self.kernel_even

    @property
    def joint_odd(self) -> np.ndarray:
        """P_{2n+1} on X x Y."""
        return (self.eta[:, None] * self.kernel_odd).T


def _stochastic(log_kernel: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The row-stochastic kernel ``exp(log_p - lse)`` of a :func:`_log_kernel` pair."""
    log_p, lse = log_kernel
    return np.exp(log_p - lse[:, None])


def _finite(pot: np.ndarray, step: int) -> np.ndarray:
    """``pot`` read-only, or a NumericalError naming the half ``step`` that produced it."""
    if not np.all(np.isfinite(pot)):
        raise NumericalError(f"non-finite potential produced at step {step}")
    return _frozen(pot)


def _sweeps(model: DiscreteModel):
    """``(u, v, log_even, log_odd)`` at steps 0, 2, 4, ... of the potential recursion.

    The recursion starts from (U_0, V_0) = (U, 0).  ``log_even`` and
    ``log_odd`` are the :func:`_log_kernel` pairs of K_{2n} (from V_{2n})
    and K_{2n+1} (from U_{2n}).  A sweep takes their log-integrals as the
    next half steps: V_{2n+1} = V + lse(log_odd), whose kernel K_{2n+2}
    gives U_{2n+2} = U + lse(log_even).  U is carried over on the V step
    and V on the U step.
    """
    u, v = model.u_potential, _frozen(np.zeros(model.ny))
    log_even = _log_kernel(model.log_k, model.log_nu, v)
    step = 0
    while True:
        log_odd = _log_kernel(model.log_k.T, model.log_lambda, u)
        yield u, v, log_even, log_odd
        v = _finite(model.v_potential + log_odd[1], step + 1)
        log_even = _log_kernel(model.log_k, model.log_nu, v)
        u = _finite(model.u_potential + log_even[1], step + 2)
        step += 2


def _iterate(model: DiscreteModel, n: int, u: np.ndarray, v: np.ndarray,
             log_even: tuple[np.ndarray, np.ndarray],
             log_odd: tuple[np.ndarray, np.ndarray]) -> SinkhornIterate:
    """Iterate n, exponentiated from the potentials and log kernels of one :func:`_sweeps` yield."""
    kernel_even = _stochastic(log_even)
    kernel_odd = _stochastic(log_odd)
    pi_even = model.mu @ kernel_even
    pi_odd = model.eta @ kernel_odd
    return SinkhornIterate(
        step=n,
        u=u,
        v=v,
        kernel_even=_frozen(kernel_even),
        kernel_odd=_frozen(kernel_odd),
        pi_even=_frozen(pi_even),
        pi_odd=_frozen(pi_odd),
        mu=model.mu,
        eta=model.eta,
    )


def run_sinkhorn(model: DiscreteModel, pairs: int) -> list[SinkhornIterate]:
    """Materialized iterates for pair indices 0..pairs inclusive.

    Each iterate is built from the log-integrals its sweep has just taken:
    the one behind V_{2n+1} normalizes K_{2n+1}, and the one behind U_{2n}
    normalizes K_{2n}.
    """
    if pairs < 0:
        raise DomainError("pairs must be nonnegative")
    return [_iterate(model, n, *sweep)
            for n, sweep in enumerate(itertools.islice(_sweeps(model), pairs + 1))]


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


POTENTIAL_TOL = 1e-12
MAX_SWEEPS = 10_000


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


def solve_bridge(model: DiscreteModel) -> BridgeSolution:
    """Sweep until the potential change or the system residual is at most ``POTENTIAL_TOL``.

    Reads :func:`_sweeps`, at most ``MAX_SWEEPS`` sweeps past the start.  The
    returned potentials keep the gauge pinned by the initial condition
    (U_0, V_0) = (U, 0); no re-centering is applied.  The start's residual
    takes both fixed-point equations from the first yield's log-integrals.
    After a sweep the U equation holds exactly (U_{2n+2} is its own right
    side), so the residual is the V equation's defect, whose right side is
    the ``log_odd`` of the same yield.
    """
    sweeps = _sweeps(model)
    u, v, log_even, log_odd = next(sweeps)
    residual = max(_defect(model.u_potential, log_even[1], u),
                   _defect(model.v_potential, log_odd[1], v))
    converged = residual <= POTENTIAL_TOL
    used = 0
    while not converged and used < MAX_SWEEPS:
        used += 1
        u_prev, v_prev = u, v
        u, v, log_even, log_odd = next(sweeps)
        delta = max(float(np.max(np.abs(u - u_prev))), float(np.max(np.abs(v - v_prev))))
        residual = _defect(model.v_potential, log_odd[1], v)
        converged = delta <= POTENTIAL_TOL or residual <= POTENTIAL_TOL
    return BridgeSolution(
        u=u,
        v=v,
        bridge=_frozen(model.mu[:, None] * _stochastic(log_even)),
        iterations_used=used,
        residual=residual,
        converged=converged,
    )


# --------------------------------------------------------------------------
# Identity suite.
# --------------------------------------------------------------------------


# The names of identity_suite's rows.  The last four are the I-projection
# identities of the first pair's half steps, the eta side and then the mu side.
IDENTITY_NAMES = (
    "monotone-eta-chain", "monotone-mu-chain", "commute-even-forward", "commute-even-backward",
    "fixed-point-mu", "fixed-point-eta", "joint-marginal-even", "joint-marginal-odd",
    "commute-odd-forward", "commute-odd-backward", "semigroup-even", "semigroup-odd",
    "projection-eta-pythagorean", "projection-eta-chain-rule",
    "projection-mu-pythagorean", "projection-mu-chain-rule",
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    index: int
    residual: float


def _close_rows(name: str, steps, lhs, rhs) -> list[CheckRow]:
    """One row per step: how far ``lhs[i]`` is from ``rhs[i]``, relative to max(1, |rhs[i]|).

    ``lhs`` is a list of vectors and ``rhs`` their ``(N, m)`` stack, or one
    vector that every step shares.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.broadcast_to(rhs, lhs.shape)
    peak = np.max(np.abs(rhs), axis=-1, initial=0.0)
    residual = np.max(np.abs(lhs - rhs), axis=-1, initial=0.0) / np.maximum(peak, 1.0)
    return [CheckRow(name, n, value) for n, value in zip(steps, residual.tolist())]


def _chain_rows(name: str, steps, chain) -> list[CheckRow]:
    """One row per step: the largest rise along the step's chain of values, which should not increase.

    ``chain`` lists one series per link, each with a value per step.  As
    Python's ``max`` from 0.0 does, a NaN rise counts as none.
    """
    values = np.array(chain, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN rise, as with floats
        rise = values[:-1] - values[1:]
    worst = np.max(np.where(rise > 0.0, rise, 0.0), axis=0, initial=0.0)
    return [CheckRow(name, n, value) for n, value in zip(steps, worst.tolist())]


def _projection_rows(names, index: int, p: np.ndarray, p_proj: np.ndarray,
                     weights: np.ndarray) -> list[CheckRow]:
    """Rows of the two identities of the I-projection ``p_proj`` of ``p``.

    Each row of ``p`` is one slice of the pinned marginal, and ``p_proj``
    rescales every slice of ``p`` to its pinned mass.  R reweights each slice
    of ``p_proj`` by ``weights`` and keeps the slice's mass, so R lies in the
    pinned family.  For it, KL(R | P) = KL(R | P') + KL(P' | P) (``names[0]``)
    and KL(P | R) = KL(P | P') + sum_s |p_s| KL(p_s / |p_s| | r_s / |r_s|)
    (``names[1]``).  A row is the gap between the two sides, relative to
    max(1, the largest term).  Kernel entries that underflow to 0 in only one
    of the matrices are left out: the identities are taken on the common
    support of P, P' and R, and a slice with no mass there is dropped.
    """
    support = (p > 0.0) & (p_proj * weights > 0.0)
    keep = support.any(axis=1)
    p = np.where(support, p, 0.0)[keep]
    p_proj = np.where(support, p_proj, 0.0)[keep]
    tilted = p_proj * weights
    r_hat = tilted / tilted.sum(axis=1)[:, None]
    r = p_proj.sum(axis=1)[:, None] * r_hat
    mass = p.sum(axis=1)
    slices = float(np.sum(mass * relative_entropy_rows(p / mass[:, None], r_hat)))
    forward = (relative_entropy(r, p), relative_entropy(r, p_proj), relative_entropy(p_proj, p))
    reverse = (relative_entropy(p, r), relative_entropy(p, p_proj), slices)
    return [CheckRow(name, index, abs(lhs - (a + b)) / max(1.0, abs(lhs), abs(a), abs(b)))
            for name, (lhs, a, b) in zip(names, (forward, reverse))]


def identity_suite(model: DiscreteModel, iterates) -> tuple[CheckRow, ...]:
    """Evaluate every structural identity the iteration is supposed to satisfy.

    Each matrix product is taken per iterate; the KL chains, ratios and
    maxima run on stacks of one chunk of iterates.  Rows come step by step,
    in the order of the identities below; the I-projection rows of the first
    pair's two half steps come last.
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
                        [prev.kernel_odd @ (it.kernel_even @ (prev.pi_even / eta))
                         for prev, it in pairs], pi_even / eta),
            _close_rows("semigroup-odd", at,
                        [it.kernel_even @ (it.kernel_odd @ (prev.pi_odd / mu))
                         for prev, it in pairs], pi_odd / mu),
        )

    pairs = list(zip(iterates, iterates[1:]))
    rows: list[CheckRow] = []
    for eta_row, mu_row, close in zip(eta_chain, mu_chain, _per_chunk(pairs, model, forward)):
        rows += [eta_row, mu_row, *close]
    for close in _per_chunk(pairs, model, backward):
        rows += close
    it, nxt = iterates[0], iterates[1]
    rows += _projection_rows(IDENTITY_NAMES[-4:-2], it.step, it.joint_even.T, it.joint_odd.T, mu)
    rows += _projection_rows(IDENTITY_NAMES[-2:], it.step, it.joint_odd, nxt.joint_even, eta)
    return tuple(rows)


# --------------------------------------------------------------------------
# Geometric rate report (bounded cost).
# --------------------------------------------------------------------------

RATE_PHIS = (KL, TOTAL_VARIATION, HELLINGER_SQ)


@dataclass(frozen=True)
class DiscreteRateReport:
    eps_w: float
    bound: float
    entropies: tuple[tuple[int, str, float], ...]  # (n, phi name, H_phi(pi_{2n}, eta))
    sup_series: tuple[tuple[int, float], ...]
    sup_fit: fitting.RateFit | None
    sandwich_residual: float


def geometric_rate_report(model: DiscreteModel, iterates) -> DiscreteRateReport:
    """Per-step contraction diagnostics against the bounded-cost rate bound."""
    eps_w = model.eps_w
    bound = (1.0 - eps_w) ** 2
    eta = model.eta

    def scores(chunk):
        pi = _stack(chunk, "pi_even")
        # H_phi(pi_2n, eta) once per iterate and phi.
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
    sup_series = tuple(zip((it.step for it in iterates), sup))
    # The sandwich is checked from n = 1; a NaN entry counts as no violation,
    # as in Python's max.
    sandwich_residual = max([0.0, *low[1:], *high[1:]])
    return DiscreteRateReport(
        eps_w=eps_w,
        bound=bound,
        entropies=tuple((it.step, phi.name, value) for it, row in zip(iterates, values)
                        for phi, value in zip(RATE_PHIS, row)),
        sup_series=sup_series,
        sup_fit=fitting.fit_rate(sup_series),
        sandwich_residual=sandwich_residual,
    )
