"""Exact finite-state Sinkhorn engine.

The model couples two finite spaces through a strictly positive reference
kernel built from a cost matrix.  All potential updates run in the log domain
(log-sum-exp), so large cost oscillations cannot overflow; kernels, marginals
and joint matrices are exponentiated only when materialized for reporting.

One recursion.  Sinkhorn is one potential recursion, a V half step then a
U half step, and :func:`_sweeps` is its only code path.  Each half step is
the row log-sum-exp of one log kernel (:func:`_log_kernel`), and that
log-sum-exp is also the normalizer of the kernel the run materializes:
:func:`run_sinkhorn` builds K_{2n} and K_{2n+1} from the log-integrals its
sweep has just taken.  The bridge is the limit of the same recursion, so
:func:`solve_bridge` continues the run rather than starting again: it reads
its residuals off the run's rows, and resumes :func:`_sweeps` at the run's
last row only if the run stops short of convergence.  No sweep is taken
twice.

Stacked run.  :func:`run_sinkhorn` returns one :class:`SinkhornRun`, whose
fields are whole-run stacks written in place, row n for pair n, so a
pair's step is its row number.  The readers take mu and eta from
``run.model``; one that takes the model too rejects another model's run.
The series behind the diagnostics (the marginal KL gaps and chains, the
phi-entropies, the identities' ratios and maxima, the rate report's sup
and sandwich terms) are read off the ``(N, m)`` marginal stacks, one numpy
call per quantity, with consecutive pairs as the slices ``[:-1]`` and
``[1:]``; the identities' kernel products are stacked matmuls, one per
identity.  What stays per pair: the joint-matrix sums and KLs, and the
sequential recursion.

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
class SinkhornRun:
    """Potentials, kernels and marginals of pairs 0..N-1, each field one whole-run stack.

    Row n of every stack is pair n.  The joints are scalings of the kernels,
    derived on each read, so a run stores two matrices per pair, not four.
    """

    u: np.ndarray            # (N, nx): U_{2n}
    v: np.ndarray            # (N, ny): V_{2n} = V_{2n-1}
    kernel_even: np.ndarray  # (N, nx, ny): K_{2n}, row stochastic
    kernel_odd: np.ndarray   # (N, ny, nx): K_{2n+1}, row stochastic
    pi_even: np.ndarray      # (N, ny): pi_{2n} = mu K_{2n} on Y
    pi_odd: np.ndarray       # (N, nx): pi_{2n+1} = eta K_{2n+1} on X
    model: DiscreteModel     # the model it was run on: the readers' mu and eta

    def __len__(self) -> int:
        return len(self.u)

    def joint_even(self, n: int) -> np.ndarray:
        """P_{2n} on X x Y."""
        return self.model.mu[:, None] * self.kernel_even[matcore._row(n, len(self), "pair")]

    def joint_odd(self, n: int) -> np.ndarray:
        """P_{2n+1} on X x Y."""
        return (self.model.eta[:, None] * self.kernel_odd[matcore._row(n, len(self), "pair")]).T


def _own_run(model: DiscreteModel, run: SinkhornRun) -> SinkhornRun:
    """``run``, or a :class:`DomainError` unless it was run on ``model`` itself."""
    if run.model is not model:
        raise DomainError("the run was run on another model")
    return run


def _stochastic(log_kernel: tuple[np.ndarray, np.ndarray], out=None) -> np.ndarray:
    """The row-stochastic kernel ``exp(log_p - lse)`` of a :func:`_log_kernel` pair, in ``out``."""
    log_p, lse = log_kernel
    out = np.subtract(log_p, lse[:, None], out=out)
    return np.exp(out, out=out)


def _finite(pot: np.ndarray, step: int) -> np.ndarray:
    """``pot`` read-only, or a NumericalError naming the half ``step`` that produced it."""
    if not np.all(np.isfinite(pot)):
        raise NumericalError(f"non-finite potential produced at step {step}")
    return _frozen(pot)


def _sweeps(model: DiscreteModel, u: np.ndarray, v: np.ndarray, step: int):
    """``(u, v, log_even, log_odd)`` at steps ``step``, ``step + 2``, ... of the potential recursion.

    The recursion resumes from (U_step, V_step) = (u, v); a run starts from
    (U, 0) at step 0.  ``log_even`` and ``log_odd`` are the
    :func:`_log_kernel` pairs of K_{2n} (from V_{2n}) and K_{2n+1} (from
    U_{2n}).  A sweep takes their log-integrals as the next half steps:
    V_{2n+1} = V + lse(log_odd), whose kernel K_{2n+2} gives U_{2n+2} =
    U + lse(log_even).  U is carried over on the V step and V on the U step.
    """
    log_even = _log_kernel(model.log_k, model.log_nu, v)
    while True:
        log_odd = _log_kernel(model.log_k.T, model.log_lambda, u)
        yield u, v, log_even, log_odd
        v = _finite(model.v_potential + log_odd[1], step + 1)
        log_even = _log_kernel(model.log_k, model.log_nu, v)
        u = _finite(model.u_potential + log_even[1], step + 2)
        step += 2


def run_sinkhorn(model: DiscreteModel, pairs: int) -> SinkhornRun:
    """The run of pair indices 0..pairs inclusive, each stack written in place.

    Each pair is built from the log-integrals its sweep has just taken: the
    one behind V_{2n+1} normalizes K_{2n+1}, and the one behind U_{2n}
    normalizes K_{2n}.
    """
    count, nx, ny = matcore._integer(pairs, "pairs", 0) + 1, model.nx, model.ny
    u, pi_odd = np.empty((count, nx)), np.empty((count, nx))
    v, pi_even = np.empty((count, ny)), np.empty((count, ny))
    # K_{2n+1} comes from the view log_k.T, so np.exp writes it column-major,
    # and eta @ K rounds differently on a row-major copy: keep that layout.
    # Both kernel stacks share one block: glibc keeps such a freed block for
    # the next run, where it returned two half-size blocks to the OS and each
    # run faulted their pages in afresh (1583 faults a run at 64x64 with 100
    # iterations, against 20).
    kernels = np.empty((2, count, nx, ny))
    kernel_even, kernel_odd = kernels[0], kernels[1].transpose(0, 2, 1)
    sweeps = _sweeps(model, model.u_potential, _frozen(np.zeros(ny)), 0)
    for n, (u_n, v_n, log_even, log_odd) in enumerate(itertools.islice(sweeps, count)):
        u[n], v[n] = u_n, v_n
        pi_even[n] = model.mu @ _stochastic(log_even, out=kernel_even[n])
        pi_odd[n] = model.eta @ _stochastic(log_odd, out=kernel_odd[n])
    return SinkhornRun(*map(_frozen, (u, v, kernel_even, kernel_odd, pi_even, pi_odd)), model)


def dual_kernel(kernel, mu) -> np.ndarray:
    """Bayes dual K*_mu(y, x) = mu(x) K(x, y) / (mu K)(y)."""
    kernel = np.asarray(kernel, dtype=float)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if kernel.ndim != 2 or kernel.shape[0] != mu.size:
        raise DomainError("kernel rows must match the support of mu")
    # min and max propagate a NaN, and a NaN compares False.
    if mu.size and not (mu.min() >= 0.0 and mu.max() < np.inf):
        raise DomainError("mu weights must be finite and nonnegative")
    pushed = mu @ kernel
    if np.any(pushed <= 0):
        raise DomainError("mu K vanishes somewhere: dual kernel undefined (absolute continuity fails)")
    return (mu[:, None] * kernel).T / pushed[:, None]


# --------------------------------------------------------------------------
# Per-pair series, read off the run's stacks.
# --------------------------------------------------------------------------


def marginal_gaps(run: SinkhornRun) -> tuple[list[float], list[float]]:
    """H(eta | pi_{2n}) and H(mu | pi_{2n+1}) for each pair, one KL call per stack."""
    return (relative_entropy_rows(run.model.eta, run.pi_even).tolist(),
            relative_entropy_rows(run.model.mu, run.pi_odd).tolist())


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


def marginal_errors(model: DiscreteModel, q) -> tuple[float, float]:
    """Worst absolute error of coupling ``q``'s row sums against mu and column sums against eta."""
    return (float(np.max(np.abs(q.sum(axis=1) - model.mu))),
            float(np.max(np.abs(q.sum(axis=0) - model.eta))))


def entropy_ladder(run: SinkhornRun, q) -> LadderReport:
    """Decompose H(Q | P) into per-step marginal gaps plus H(Q | P_{2n}).

    Rows where Q is not absolutely continuous w.r.t. the iterate carry
    infinite entries and a NaN residual; they are flagged, not fatal.
    """
    model, q = run.model, np.asarray(q, dtype=float)
    if q.shape != (model.nx, model.ny):
        raise DomainError("coupling shape does not match the model")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise DomainError("coupling entries must be finite and nonnegative")
    if any(err > MARGINAL_TOL for err in marginal_errors(model, q)):
        raise DomainError("coupling marginals do not match (mu, eta)")
    to_bridge = np.array([relative_entropy(q, run.joint_even(n)) for n in range(len(run))])
    total = to_bridge[0]
    gap_eta, gap_mu = np.array(marginal_gaps(run))
    # The gaps below n, added in step order from 0.0.
    partial = np.cumsum(np.concatenate(([0.0], (gap_eta + gap_mu)[:-1])))
    with np.errstate(invalid="ignore"):
        residual = np.where(np.isinf(total) | np.isinf(to_bridge), np.nan,
                            np.abs(total - to_bridge - partial))
    columns = (a.tolist() for a in (to_bridge, gap_eta, gap_mu, partial, residual))
    rows = tuple(LadderRow(n, *row) for n, row in enumerate(zip(*columns)))
    return LadderReport(total=float(total), rows=rows)


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


def _system_defects(model: DiscreteModel, run: SinkhornRun):
    """``(u, v, v_defect)`` at pairs 0, 1, ...: the run's rows, then its sweeps resumed.

    ``v_defect`` is the V equation's defect max |V + lse(log_odd) - V_{2n}|,
    and V + lse(log_odd) is V_{2n+2} bit for bit, so the run holds it for
    every row but its last.
    """
    last = len(run) - 1
    v_defects = np.max(np.abs(np.diff(run.v, axis=0)), axis=1).tolist()
    yield from zip(run.u[:last], run.v[:last], v_defects)
    for u, v, _, log_odd in _sweeps(model, run.u[last], run.v[last], 2 * last):
        yield u, v, _defect(model.v_potential, log_odd[1], v)


def solve_bridge(model: DiscreteModel, run: SinkhornRun | None = None) -> BridgeSolution:
    """Sweep until the system residual is at most ``POTENTIAL_TOL``.

    The sweeps are those of ``run``, a :func:`run_sinkhorn` run of ``model``
    (by default its one-row run ``run_sinkhorn(model, 0)``; another model's
    run is a :class:`DomainError`): the solve reads them off the run's rows
    and resumes :func:`_sweeps` at its last row only if it needs more, so no
    sweep is taken twice.  It stops at most ``MAX_SWEEPS`` sweeps past the
    start, a count and not a measured rate: a solve that reaches it returns
    ``converged=False`` with its last residual.  Bounded 16x16 at
    ``osc_cap`` 400, seed 0, stops so at residual 1.25e-4.  The returned potentials keep the gauge pinned by the initial
    condition (U_0, V_0) = (U, 0); no re-centering is applied.  The start's
    residual takes both fixed-point equations.  After a sweep the U equation
    holds exactly (U_{2n+2} is its own right side), so the residual is the V
    equation's defect, the change V_{2n+2} - V_{2n} of the next sweep.
    """
    run = run_sinkhorn(model, 0) if run is None else _own_run(model, run)
    states = _system_defects(model, run)
    u, v, residual = next(states)
    residual = max(_defect(model.u_potential, _log_kernel(model.log_k, model.log_nu, v)[1], u),
                   residual)
    converged = residual <= POTENTIAL_TOL
    used = 0
    while not converged and used < MAX_SWEEPS:
        used += 1
        u, v, residual = next(states)
        converged = residual <= POTENTIAL_TOL
    if used < len(run):
        bridge = run.joint_even(used)
    else:
        bridge = model.mu[:, None] * _stochastic(_log_kernel(model.log_k, model.log_nu, v))
    return BridgeSolution(
        u=u,
        v=v,
        bridge=_frozen(bridge),
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


def _apply(kernels: np.ndarray, functions: np.ndarray) -> np.ndarray:
    """Row n is ``kernels[n] @ functions[n]``, all rows from one stacked matmul."""
    return (kernels @ functions[:, :, None])[..., 0]


def _push(measures: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Row n is ``measures[n] @ kernels[n]``, all rows from one stacked matmul."""
    return (measures[:, None, :] @ kernels)[:, 0, :]


def identity_suite(run: SinkhornRun) -> tuple[CheckRow, ...]:
    """Evaluate every structural identity the iteration is supposed to satisfy.

    Each identity's kernel products are one stacked matmul over the pairs,
    and the KL chains, ratios and maxima run on the run's stacks; each row
    rounds as it would alone.  The joint-matrix sums stay per pair: a
    whole-run joint stack would be one more matrix per pair (3.3 MB at
    64 x 64 with 100 pairs).  Rows come step by step, in the order of the
    identities below; the I-projection rows of the first pair's two half
    steps come last.
    """
    if len(run) < 2:
        raise DomainError("identity_suite needs at least two consecutive iterates")
    mu, eta = run.model.mu, run.model.eta
    at, nxt_at = range(len(run) - 1), range(1, len(run))
    k_even, k_odd, pi_even, pi_odd = run.kernel_even, run.kernel_odd, run.pi_even, run.pi_odd
    gap_eta = relative_entropy_rows(eta, pi_even)  # H(eta | pi_2n)
    gap_mu = relative_entropy_rows(mu, pi_odd)     # H(mu | pi_2n+1)
    odd_mu = relative_entropy_rows(pi_odd, mu)
    even_eta = relative_entropy_rows(pi_even, eta)
    # A marginal with an exact 0 makes a ratio inf and its row NaN, which
    # fails the check; numpy need not print that too.
    with np.errstate(divide="ignore", invalid="ignore"):
        even_to_eta, eta_to_even = pi_even / eta, eta / pi_even
        odd_to_mu, mu_to_odd = pi_odd / mu, mu / pi_odd
        forward = (
            _chain_rows("monotone-eta-chain", at, [gap_eta[1:], odd_mu[:-1], gap_eta[:-1]]),
            _chain_rows("monotone-mu-chain", at, [even_eta[1:], gap_mu[:-1], even_eta[:-1]]),
            _close_rows("commute-even-forward", at,
                        _apply(k_even[:-1], eta_to_even[:-1]), odd_to_mu[:-1]),
            _close_rows("commute-even-backward", at,
                        _apply(k_even[1:], even_to_eta[:-1]), mu_to_odd[:-1]),
            _close_rows("fixed-point-mu", at, _push(pi_even[:-1], k_odd[:-1]), mu),
            _close_rows("fixed-point-eta", at, _push(pi_odd[:-1], k_even[1:]), eta),
            _close_rows("joint-marginal-even", at,
                        [run.joint_even(n).sum(axis=1) for n in at], mu),
            _close_rows("joint-marginal-odd", at, [run.joint_odd(n).sum(axis=0) for n in at], eta),
        )
        backward = (
            _close_rows("commute-odd-forward", nxt_at,
                        _apply(k_odd[:-1], mu_to_odd[:-1]), even_to_eta[1:]),
            _close_rows("commute-odd-backward", nxt_at,
                        _apply(k_odd[1:], odd_to_mu[:-1]), eta_to_even[1:]),
            _close_rows("semigroup-even", nxt_at,
                        _apply(k_odd[:-1], _apply(k_even[1:], even_to_eta[:-1])),
                        even_to_eta[1:]),
            _close_rows("semigroup-odd", nxt_at,
                        _apply(k_even[1:], _apply(k_odd[1:], odd_to_mu[:-1])), odd_to_mu[1:]),
        )
    return (*itertools.chain.from_iterable(zip(*forward)),
            *itertools.chain.from_iterable(zip(*backward)),
            *_projection_rows(IDENTITY_NAMES[-4:-2], 0, run.joint_even(0).T, run.joint_odd(0).T,
                              mu),
            *_projection_rows(IDENTITY_NAMES[-2:], 0, run.joint_odd(0), run.joint_even(1), eta))


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


def geometric_rate_report(model: DiscreteModel, run: SinkhornRun) -> DiscreteRateReport:
    """Per-step contraction diagnostics of a run of ``model`` against its bounded-cost bound."""
    pi = _own_run(model, run).pi_even
    eps_w = model.eps_w
    bound = (1.0 - eps_w) ** 2
    eta = model.eta
    steps = range(len(run))
    # H_phi(pi_2n, eta) once per pair and phi.
    values = zip(*(phi_entropy(phi, pi, eta).tolist() for phi in RATE_PHIS))
    sup_series = tuple(zip(steps, np.max(np.abs(pi / eta - 1.0), axis=-1).tolist()))
    low = np.max(eps_w * eta - pi, axis=-1, initial=0.0)
    # eps_w underflows to 0 for a large cost oscillation, and then the
    # upper sandwich pi <= eta / eps_w holds vacuously.
    high = np.max(pi - eta / eps_w, axis=-1, initial=0.0) if eps_w > 0.0 else np.zeros(len(pi))
    # The sandwich is checked from n = 1; a NaN entry counts as no violation,
    # as in Python's max.
    sandwich_residual = max([0.0, *low[1:].tolist(), *high[1:].tolist()])
    return DiscreteRateReport(
        eps_w=eps_w,
        bound=bound,
        entropies=tuple((n, phi.name, value) for n, row in zip(steps, values)
                        for phi, value in zip(RATE_PHIS, row)),
        sup_series=sup_series,
        sup_fit=fitting.fit_rate(sup_series),
        sandwich_residual=sandwich_residual,
    )
