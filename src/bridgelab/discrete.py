"""Exact finite-state Sinkhorn engine.

The model couples two finite spaces through a strictly positive reference
kernel built from a cost matrix.  All potential updates run in the log domain
(log-sum-exp), so large cost oscillations cannot overflow; kernels, marginals
and joint matrices are exponentiated only when materialized for reporting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .divergences import HELLINGER_SQ, KL, TOTAL_VARIATION, phi_entropy, relative_entropy
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
        return _logsumexp(self.log_k + (self.log_nu - v_vec)[None, :], axis=1)

    def kflat_log_integral(self, u_vec: np.ndarray) -> np.ndarray:
        """log K_flat(exp(-u))(y) for the reversed reference operator."""
        return _logsumexp(self.log_k + (self.log_lambda - u_vec)[:, None], axis=0)


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


def half_step(model: DiscreteModel, potentials: SinkhornPotentials) -> SinkhornPotentials:
    """Advance the potential recursion by one half step (log domain)."""
    n = potentials.step
    if n % 2 == 0:
        v_next = model.v_potential + model.kflat_log_integral(potentials.u)
        u_next = potentials.u
    else:
        u_next = model.u_potential + model.k_log_integral(potentials.v)
        v_next = potentials.v
    if not (np.all(np.isfinite(u_next)) and np.all(np.isfinite(v_next))):
        raise NumericalError(f"non-finite potential produced at step {n + 1}")
    return SinkhornPotentials(step=n + 1, u=u_next, v=v_next)


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


def _stochastic(log_k: np.ndarray, log_w: np.ndarray, pot: np.ndarray) -> np.ndarray:
    """The row-stochastic kernel proportional to exp(log_k(x, y)) w(y) exp(-pot(y)).

    ``(model.log_k, model.log_nu, v)`` gives K_{2n} and
    ``(model.log_k.T, model.log_lambda, u)`` gives K_{2n+1}.
    """
    log_p = log_k + (log_w - pot)[None, :]
    log_p = log_p - _logsumexp(log_p, axis=1)[:, None]
    return np.exp(log_p)


def materialize(model: DiscreteModel, potentials: SinkhornPotentials) -> SinkhornIterate:
    """Exponentiate the potentials at an even step into kernels and marginals."""
    if potentials.step % 2 != 0:
        raise DomainError("materialize requires potentials at an even step")
    kernel_even = _stochastic(model.log_k, model.log_nu, potentials.v)
    kernel_odd = _stochastic(model.log_k.T, model.log_lambda, potentials.u)
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
    """Materialized iterates for pair indices 0..pairs inclusive."""
    if pairs < 0:
        raise DomainError("pairs must be nonnegative")
    potentials = initial_potentials(model)
    iterates = [materialize(model, potentials)]
    for _ in range(pairs):
        potentials = sweep(model, potentials)
        iterates.append(materialize(model, potentials))
    return iterates


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
    total = relative_entropy(q, iterates[0].joint_even)
    rows = []
    partial = 0.0
    for it in iterates:
        n = it.step
        h_q = relative_entropy(q, it.joint_even)
        gap_eta = relative_entropy(model.eta, it.pi_even)
        gap_mu = relative_entropy(model.mu, it.pi_odd)
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


def system_residual(model: DiscreteModel, u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm violation of the two coupled fixed-point equations."""
    u_fix = model.u_potential + model.k_log_integral(v) - u
    v_fix = model.v_potential + model.kflat_log_integral(u) - v
    return max(float(np.max(np.abs(u_fix))), float(np.max(np.abs(v_fix))))


def solve_bridge(model: DiscreteModel, stop: StoppingRule | None = None) -> BridgeSolution:
    """Iterate sweeps until the potential change (hence the system) converges.

    The returned potentials keep the gauge pinned by the initial condition
    (U_0, V_0) = (U, 0); no re-centering is applied.
    """
    stop = stop or StoppingRule()
    potentials = initial_potentials(model)
    converged = system_residual(model, potentials.u, potentials.v) <= stop.potential_tol
    sweeps = 0
    while not converged and sweeps < stop.max_sweeps:
        sweeps += 1
        nxt = sweep(model, potentials)
        delta = max(
            float(np.max(np.abs(nxt.u - potentials.u))),
            float(np.max(np.abs(nxt.v - potentials.v))),
        )
        potentials = nxt
        converged = delta <= stop.potential_tol or (
            system_residual(model, potentials.u, potentials.v) <= stop.potential_tol
        )
    return BridgeSolution(
        u=potentials.u,
        v=potentials.v,
        bridge=_frozen(model.mu[:, None] * _stochastic(model.log_k, model.log_nu, potentials.v)),
        iterations_used=sweeps,
        residual=system_residual(model, potentials.u, potentials.v),
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


def _close_row(name: str, index: int, lhs, rhs, tol: float = IDENTITY_TOL) -> CheckRow:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    residual = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return CheckRow(name=name, index=index, passed=residual <= tol * scale, residual=residual)


def _chain_row(name: str, index: int, chain, tol: float = IDENTITY_TOL) -> CheckRow:
    worst = 0.0
    for lo, hi in zip(chain, chain[1:]):
        worst = max(worst, lo - hi)
    return CheckRow(name=name, index=index, passed=worst <= tol, residual=max(worst, 0.0))


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
    """Evaluate every structural identity the iteration is supposed to satisfy."""
    if len(iterates) < 2:
        raise DomainError("identity_suite needs at least two consecutive iterates")
    mu, eta = model.mu, model.eta
    rows: list[CheckRow] = []
    for it, nxt in zip(iterates, iterates[1:]):
        n = it.step
        h = relative_entropy
        rows.append(_chain_row(
            "monotone-eta-chain", n,
            [h(eta, nxt.pi_even), h(it.pi_odd, mu), h(eta, it.pi_even)],
        ))
        rows.append(_chain_row(
            "monotone-mu-chain", n,
            [h(nxt.pi_even, eta), h(mu, it.pi_odd), h(it.pi_even, eta)],
        ))
        rows.append(_close_row(
            "commute-even-forward", n,
            it.kernel_even @ (eta / it.pi_even), it.pi_odd / mu,
        ))
        rows.append(_close_row(
            "commute-even-backward", n,
            nxt.kernel_even @ (it.pi_even / eta), mu / it.pi_odd,
        ))
        rows.append(_close_row(
            "fixed-point-mu", n, it.pi_even @ it.kernel_odd, mu,
        ))
        rows.append(_close_row(
            "fixed-point-eta", n, it.pi_odd @ nxt.kernel_even, eta,
        ))
        rows.append(_close_row(
            "joint-marginal-even", n, it.joint_even.sum(axis=1), mu,
        ))
        rows.append(_close_row(
            "joint-marginal-odd", n, it.joint_odd.sum(axis=0), eta,
        ))
    for prev, it in zip(iterates, iterates[1:]):
        l = it.step
        rows.append(_close_row(
            "commute-odd-forward", l,
            prev.kernel_odd @ (mu / prev.pi_odd), it.pi_even / eta,
        ))
        rows.append(_close_row(
            "commute-odd-backward", l,
            it.kernel_odd @ (prev.pi_odd / mu), eta / it.pi_even,
        ))
        rows.append(_close_row(
            "semigroup-even", l,
            (prev.kernel_odd @ it.kernel_even) @ (prev.pi_even / eta), it.pi_even / eta,
        ))
        rows.append(_close_row(
            "semigroup-odd", l,
            (it.kernel_even @ it.kernel_odd) @ (prev.pi_odd / mu), it.pi_odd / mu,
        ))
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
    ratio_rows: list[RatioRow] = []
    # H_phi(pi_2n, eta) once per iterate and phi; consecutive iterates pair up.
    values = [[phi_entropy(phi, it.pi_even, model.eta) for phi in RATE_PHIS] for it in iterates]
    for it, row, row_next in zip(iterates, values, values[1:]):
        for phi, value, value_next in zip(RATE_PHIS, row, row_next):
            saturated = value < SATURATION_GUARD
            ratio = math.nan if saturated else value_next / value
            within = True if saturated else ratio <= bound + 1e-10
            ratio_rows.append(RatioRow(
                n=it.step, phi_name=phi.name, value=value, value_next=value_next,
                ratio=ratio, saturated=saturated, within_bound=within,
            ))
    sup_series = tuple(
        (it.step, float(np.max(np.abs(it.pi_even / model.eta - 1.0)))) for it in iterates
    )
    sup_fit = fitting.fit_rate(sup_series)
    theoretical_slope = 2.0 * math.log(1.0 - eps_w) if eps_w < 1.0 else -math.inf
    slope_within = None
    if sup_fit is not None and math.isfinite(theoretical_slope):
        slope_within = sup_fit.slope <= theoretical_slope + 0.05 * abs(theoretical_slope)
    sandwich_residual = 0.0
    for it in iterates[1:]:
        low = eps_w * model.eta - it.pi_even
        sandwich_residual = max(sandwich_residual, float(np.max(low, initial=0.0)))
        # eps_w underflows to 0 for a large cost oscillation, and then the
        # upper sandwich pi <= eta / eps_w holds vacuously.
        if eps_w > 0.0:
            high = it.pi_even - model.eta / eps_w
            sandwich_residual = max(sandwich_residual, float(np.max(high, initial=0.0)))
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
