"""Divergence and distance catalog.

Covers entropies built from 1-homogeneous convex integrands on finite spaces,
plain and weighted total variation, Gaussian relative entropy (Burg form),
the closed-form Gaussian 2-Wasserstein distance, and exact discrete
Kantorovich semi-distances solved by an in-house transportation simplex.

The Gaussian KL and W2 arithmetic lives in private kernels
(``_gaussian_kl``, ``_gaussian_w2``) that take means and covariances stacked
along broadcast leading axes; :func:`burg_divergence` takes stacks too.
:func:`gaussian_kl` and :func:`gaussian_w2` call the kernels with one pair,
and the Gaussian diagnostics call them once per chunk of states.  A stacked
value equals the one-pair value bit for bit (see :mod:`bridgelab.matcore`).
``_gaussian_w2`` takes the target q by the two roots a :class:`Gaussian`
caches and sums the squares of a Bures gap, so it makes one ``eigh`` per
pair and cancels no O(1) terms.

On finite spaces, :func:`phi_entropy` takes an ``(N, m)`` stack of measures
and :func:`relative_entropy_rows` an ``(N, m)`` stack of weight vectors; the
discrete diagnostics call them once per stack of a run's iterates, and each
row equals the one-vector value bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from . import matcore
from .errors import DomainError, NumericalError


def _normalized(w: np.ndarray, name: str) -> np.ndarray:
    """``w`` scaled to total mass 1, per row for an ``(N, m)`` stack, after validation.

    An error names the first failing row of a stack and that row's first
    failing test (``mu1[3] weights must be finite``), and ``name`` itself for
    one vector.
    """
    if w.shape[-1] == 0:
        raise DomainError(f"{name} needs a nonempty support")
    total = w.sum(axis=-1, keepdims=True)
    checks = (
        (~np.isfinite(w).all(axis=-1), "must be finite"),
        ((w < 0).any(axis=-1), "must be nonnegative"),
        (total[..., 0] <= 0, "must have positive total mass"),
    )
    failed = np.logical_or.reduce([bad for bad, _ in checks])
    if failed.any():
        index, label = matcore._first(failed, name)
        raise DomainError(f"{label} weights {next(what for bad, what in checks if bad[index])}")
    return w / total


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability vector on a finite support, normalized on construction."""

    weights: np.ndarray
    name: InitVar[str] = "measure"  # what an error calls the weights

    def __post_init__(self, name: str) -> None:
        w = matcore._array(self.weights, name, floor=None).reshape(-1)
        object.__setattr__(self, "weights", matcore._frozen(_normalized(w, name)))

    @property
    def support_size(self) -> int:
        return self.weights.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)


def as_measure(mu, name: str = "measure") -> DiscreteMeasure:
    """``mu`` as a :class:`DiscreteMeasure`; an error names it ``name``."""
    if isinstance(mu, DiscreteMeasure):
        return mu
    return DiscreteMeasure(mu, name)


def _measure_rows(mu1) -> np.ndarray:
    """Normalized weights of ``mu1``: one measure, or each row of an ``(N, m)`` stack."""
    if isinstance(mu1, DiscreteMeasure):
        return mu1.weights
    w = matcore._array(mu1, "mu1", floor=None)
    if w.ndim > 2:
        raise DomainError(f"mu1 must be a weight vector or an (N, m) stack, got shape {w.shape}")
    return _normalized(w if w.ndim == 2 else w.reshape(-1), "mu1")


@dataclass(frozen=True)
class PhiFunction:
    """A 1-homogeneous convex integrand with value 0 on the diagonal.

    ``evaluate(u, v)`` applies it entrywise to broadcast arrays (or scalars).
    """

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _phi_kl(u, v) -> np.ndarray:
    # 0 log 0 = 0; u > 0 = v gives u * log(inf) = inf, and so does a v so
    # small that u / v overflows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(u > 0, u * np.log(np.divide(u, v)), 0.0)


def _phi_tv(u, v) -> np.ndarray:
    return np.abs(np.subtract(u, v, dtype=float)) / 2.0


def _phi_hellinger(u, v) -> np.ndarray:
    return np.square(np.sqrt(np.asarray(u, dtype=float)) - np.sqrt(np.asarray(v, dtype=float)))


def _phi_chi2(u, v) -> np.ndarray:
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    # Where v = 0 the value is 0 if u = 0 and +inf otherwise.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v != 0.0, np.square(u - v) / v, np.where(u == 0.0, 0.0, math.inf))


KL = PhiFunction("kl", _phi_kl)
TOTAL_VARIATION = PhiFunction("tv", _phi_tv)
HELLINGER_SQ = PhiFunction("hellinger-sq", _phi_hellinger)
CHI_SQUARE = PhiFunction("chi-square", _phi_chi2)

# Jeffreys and Renyi divergences are not 1-homogeneous in the sense used here,
# so they are deliberately absent from the catalog.
PHI_CATALOG = {
    phi.name: phi for phi in (KL, TOTAL_VARIATION, HELLINGER_SQ, CHI_SQUARE)
}


def phi_entropy(phi: PhiFunction, mu1, mu2) -> float | np.ndarray:
    """Entropy ``sum_x Phi(mu1(x), mu2(x))`` under the counting dominating measure.

    By 1-homogeneity the value does not depend on the dominating measure.
    Returns ``+inf`` when the integrand diverges (e.g. KL without absolute
    continuity).

    ``mu1`` may also be an ``(N, m)`` stack of weight vectors, each normalized
    and validated on its own (an error names the row: ``mu1[3] ...``); the
    result is then an ``(N,)`` array with one entropy per row, and a float for
    one vector.  A 2-D ``mu1`` is a stack, not a flattened measure.  The terms
    are summed by ``np.sum`` along the row, which adds a row of a stack as it
    adds the row alone, so each row's value equals the one-vector value bit
    for bit.  ``phi_entropy(KL, ...)`` of normalized weights is
    :func:`relative_entropy` of them: both sum the same ``KL`` terms.
    """
    w1 = _measure_rows(mu1)
    w2 = as_measure(mu2, "mu2").weights
    if w1.shape[-1] != w2.size:
        raise DomainError(f"support mismatch: {w1.shape[-1]} vs {w2.size}")
    total = np.sum(phi.evaluate(w1, w2), axis=-1)
    return float(total) if total.ndim == 0 else total


def relative_entropy(p, q) -> float:
    """KL divergence between two nonnegative weight arrays of equal total mass.

    Unnormalized companion of ``phi_entropy(KL, ...)`` that also accepts joint
    matrices (flattened).  Uses 0 log 0 = 0 and returns ``+inf`` when ``p``
    charges a point that ``q`` does not.  A NaN, infinite or negative entry of
    ``p`` or ``q`` is a :class:`DomainError`: ``KL`` would drop a NaN or
    negative entry of p as a 0 term, and give a NaN or -inf for one of q.  A
    0 entry of q stays valid: where p charges it, the KL is +inf.
    """
    p = matcore._array(p, "relative_entropy: entries of p", floor="nonnegative").reshape(-1)
    q = matcore._array(q, "relative_entropy: entries of q", floor="nonnegative").reshape(-1)
    if p.shape != q.shape:
        raise DomainError("support mismatch in relative_entropy")
    return float(np.sum(_phi_kl(p, q)))


def relative_entropy_rows(p, q) -> np.ndarray:
    """:func:`relative_entropy` of each row of an ``(N, m)`` stack, as an ``(N,)`` array.

    Either argument may be one ``(m,)`` vector, which is paired with every row
    of the other; each value equals the one-row value bit for bit.
    """
    p = matcore._array(p, "relative_entropy_rows: entries of p", floor="nonnegative")
    q = matcore._array(q, "relative_entropy_rows: entries of q", floor="nonnegative")
    if not (1 <= p.ndim <= 2 and 1 <= q.ndim <= 2 and max(p.ndim, q.ndim) == 2):
        raise DomainError(f"relative_entropy_rows needs an (N, m) stack, got {p.shape} and {q.shape}")
    if p.shape[-1] != q.shape[-1] or (p.ndim == q.ndim == 2 and p.shape[0] != q.shape[0]):
        raise DomainError(f"support mismatch in relative_entropy_rows: {p.shape} vs {q.shape}")
    return np.sum(_phi_kl(p, q), axis=-1)


def weighted_tv(mu1, mu2, g) -> float:
    """Weighted total variation ``|mu1 - mu2|(g) = sum_x g(x) |mu1(x) - mu2(x)|``."""
    m1, m2 = as_measure(mu1, "mu1"), as_measure(mu2, "mu2")
    if m1.support_size != m2.support_size:
        raise DomainError("support mismatch in weighted_tv")
    g = matcore._array(g, "weight vector", (m1.support_size,), "strictly positive")
    return float(np.sum(g * np.abs(m1.weights - m2.weights)))


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian measure on R^d with SPD covariance, validated from the one
    ``eigh`` that its precision and both square roots are read from."""

    mean: np.ndarray
    covariance: np.ndarray
    # covariance = q diag(w) q', the one eigh it is validated from.
    w: np.ndarray = field(init=False, repr=False, compare=False)
    q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = matcore._array(self.mean, "mean").reshape(-1)
        c, w, q = matcore.spd_eigh(matcore._one_matrix(self.covariance, "covariance"),
                                   "covariance")
        if c.shape[0] != m.size:
            raise DomainError(f"mean dimension {m.size} does not match covariance {c.shape}")
        for name, value in (("mean", m), ("covariance", c), ("w", w), ("q", q)):
            object.__setattr__(self, name, matcore._frozen(value))

    @property
    def dim(self) -> int:
        return self.mean.size

    @functools.cached_property
    def precision(self) -> np.ndarray:
        """covariance^{-1} (computed once)."""
        return matcore._frozen(matcore.eigh_inverse(self.w, self.q))

    @functools.cached_property
    def root(self) -> np.ndarray:
        """covariance^{1/2}, the principal square root (computed once)."""
        return matcore._frozen(matcore.eigh_sqrt(self.covariance, self.w, self.q))

    @functools.cached_property
    def inv_root(self) -> np.ndarray:
        """covariance^{-1/2} (computed once)."""
        return matcore._frozen(matcore.eigh_inverse(np.sqrt(self.w), self.q))


def _burg(s: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Burg divergences of validated SPD matrices, stacked along broadcast leading axes."""
    s, sb = np.broadcast_arrays(s, sb)
    ratio = np.linalg.solve(sb, s)
    sign, logdet = np.linalg.slogdet(ratio)
    if np.any(sign <= 0):
        raise NumericalError("log-det of an SPD ratio came out non-positive")
    return np.trace(ratio, axis1=-2, axis2=-1) - s.shape[-1] - logdet


def burg_divergence(sigma, sigma_bar):
    """Log-det divergence ``Tr(sigma sigma_bar^{-1} - I) - log det(sigma sigma_bar^{-1})``.

    Either argument may be an ``(..., d, d)`` stack; the result is then an
    array over the broadcast stack, and a float otherwise.
    """
    s = matcore.assert_spd(sigma, "sigma")
    sb = matcore.assert_spd(sigma_bar, "sigma_bar")
    if s.shape[-1] != sb.shape[-1]:
        raise DomainError("dimension mismatch in burg_divergence")
    out = _burg(s, sb)
    return float(out) if out.ndim == 0 else out


def _gaussian_kl(p_mean, p_cov, q_mean, q_cov) -> np.ndarray:
    """H(p | q) from validated means and covariances, stacked along broadcast leading axes."""
    diff = p_mean - q_mean
    quad = (diff[..., None, :] @ np.linalg.solve(q_cov, diff[..., None]))[..., 0, 0]
    return 0.5 * (_burg(p_cov, q_cov) + quad)


def gaussian_kl(p: Gaussian, q: Gaussian) -> float:
    """Relative entropy H(p | q) between two Gaussians."""
    if p.dim != q.dim:
        raise DomainError("dimension mismatch in gaussian_kl")
    return float(_gaussian_kl(p.mean, p.covariance, q.mean, q.covariance))


def _gaussian_w2(p_mean, p_cov, q_mean, q_root, q_inv_root) -> np.ndarray:
    """W2(p, q) from p's validated parameters and q's two roots, stacked (broadcasting).

    With A = q_cov and C = (A^{1/2} p_cov A^{1/2})^{1/2}, the Bures term
    tr p_cov + tr A - 2 tr C is ||A^{1/2} - A^{-1/2} C||_F^2, since C is
    symmetric and tr(C A^{-1} C) = tr(A^{-1} C^2) = tr p_cov (Bhatia, Jain
    and Lim 2019).  It is a sum of squares of entries that carry rounding of
    order eps ||A^{1/2}||, so W2 is resolved down to that scale, where the
    trace form, a difference of O(1) traces, stops at its square root.  One
    ``eigh`` (the root C) per pair, and no root of p: q's roots are the ones
    a :class:`Gaussian` caches.
    """
    cross = matcore.principal_sqrt(q_root @ p_cov @ q_root)
    gap = q_root - q_inv_root @ cross
    bures = matcore._dots(gap.reshape(gap.shape[:-2] + (-1,)))
    mean_sq = np.sum((p_mean - q_mean) ** 2, axis=-1)
    return np.sqrt(mean_sq + bures)


def gaussian_w2(p: Gaussian, q: Gaussian) -> float:
    """2-Wasserstein distance between Gaussians (Bures closed form)."""
    if p.dim != q.dim:
        raise DomainError("dimension mismatch in gaussian_w2")
    return float(_gaussian_w2(p.mean, p.covariance, q.mean, q.root, q.inv_root))


# --------------------------------------------------------------------------
# Exact discrete optimal transport (transportation simplex).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportPlan:
    value: float
    plan: np.ndarray


def _initial_basis(a: np.ndarray, b: np.ndarray, order: np.ndarray):
    """A basic feasible solution from walking the flat cells in ``order``.

    Returns (allocation, basis mask).  At each cell whose row and column are
    both open it allocates ``min(supply, demand)`` and closes one line: the
    row if its supply is used up and another row is open, or if the column is
    the last one open; else the column.  The last allocation closes both, so
    the basis is a spanning tree of nx + ny - 1 cells even under degeneracy
    (rounding can leave dust in a line it closes).  Walked row-major this is
    the north-west-corner rule; walked from the cheapest cell, the least-cost
    (matrix-minimum) rule.
    """
    nx, ny = a.size, b.size
    plan = np.zeros((nx, ny))
    in_basis = np.zeros((nx, ny), dtype=bool)
    supply, demand = a.tolist(), b.tolist()
    row_open, col_open = [True] * nx, [True] * ny
    open_rows, open_cols = nx, ny
    rows, cols = np.divmod(order, ny)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        move = min(supply[i], demand[j])
        plan[i, j] = move
        in_basis[i, j] = True
        supply[i] -= move
        demand[j] -= move
        if open_rows == 1 and open_cols == 1:
            break
        if open_cols == 1 or (supply[i] <= demand[j] and open_rows > 1):
            row_open[i] = False
            open_rows -= 1
        else:
            col_open[j] = False
            open_cols -= 1
    return plan, in_basis


def _hang(adj: list[set[int]], cost: list[float], u: list[float], v: list[float],
          link: list, depth: list[int], edges) -> None:
    """Walk the basis tree down from each ``(parent, child)`` edge in ``edges``.

    Nodes are rows 0..nx-1 and columns nx..; cells are row-major flat indices.
    Each child gets its dual (u + v = cost on basis cells), its (parent, cell)
    link and its depth from its parent's, so a dual is the same chain of
    subtractions from row 0 whichever walk reaches it.  A walk that finds
    nx + ny nodes below row 0 went round a cycle.
    """
    nx, ny = len(u), len(v)
    stack = list(edges)
    for _ in range(nx + ny):
        if not stack:
            return
        parent, node = stack.pop()
        if node >= nx:
            cell = parent * ny + node - nx
            v[node - nx] = cost[cell] - u[parent]
        else:
            cell = node * ny + parent - nx
            u[node] = cost[cell] - v[parent - nx]
        link[node] = (parent, cell)
        depth[node] = depth[parent] + 1
        for other in adj[node]:
            if other != parent:
                stack.append((node, other))
    raise NumericalError("transport basis is not a spanning tree")


def kantorovich_discrete(cost, mu1, mu2, max_pivots: int | None = None) -> TransportPlan:
    """Exact Kantorovich semi-distance on finite supports.

    Solves ``min_{Q in Pi(mu1, mu2)} sum cost * Q`` with a transportation
    simplex, for ``mu1`` and ``mu2`` normalized to probabilities (as
    :class:`DiscreteMeasure` does): scaling a marginal leaves the plan as it
    is.  It starts from the cheaper of the north-west-corner and the
    least-cost (matrix-minimum) bases, the corner on a tie, so a Monge cost,
    whose corner is optimal, takes no pivots.  The entering cell has the most
    negative reduced cost (Dantzig's rule, first row-major cell among ties);
    after a degenerate pivot it is the first row-major cell with a negative
    reduced cost (Bland's rule) until a pivot moves mass again.  The leaving
    cell is the smallest flat index among the ties, so degenerate runs cannot
    cycle and every other pivot strictly lowers the cost.  The basis tree
    keeps each node's dual, parent and depth; the parent pointers give the
    pivot cycle, and a pivot re-derives these only on the subtree it moves.
    ``max_pivots`` bounds the number of pivots; with ``max_pivots=0`` the
    chosen start is returned when it is optimal.  Intended for desk-scale
    supports (<= 64 x 64).
    """
    m1, m2 = as_measure(mu1, "mu1"), as_measure(mu2, "mu2")
    nx, ny = m1.support_size, m2.support_size
    cost = matcore._array(cost, "cost", (nx, ny), "nonnegative")
    a, b = m1.weights, m2.weights
    max_pivots = (200 * (nx + ny) * max(nx, ny) if max_pivots is None
                  else matcore._integer(max_pivots, "max_pivots", 0))

    plan, in_basis = _initial_basis(a, b, np.arange(nx * ny))
    greedy, greedy_basis = _initial_basis(a, b, np.argsort(cost, axis=None, kind="stable"))
    if float(np.sum(greedy * cost)) < float(np.sum(plan * cost)):
        plan, in_basis = greedy, greedy_basis
    scale = 1.0 + float(np.abs(cost).max(initial=0.0))
    tol = 1e-13 * scale

    # The basis tree hangs from row 0.  The pivots work on Python floats in
    # row-major flat lists, which round exactly as the arrays would.
    adj: list[set[int]] = [set() for _ in range(nx + ny)]
    rows, cols = np.nonzero(in_basis)
    for i, col in zip(rows.tolist(), (cols + nx).tolist()):
        adj[i].add(col)
        adj[col].add(i)
    outside = ~in_basis.reshape(-1)
    flat_cost, flat_plan = cost.reshape(-1).tolist(), plan.reshape(-1).tolist()
    u, v = [0.0] * nx, [0.0] * ny
    link: list[tuple[int, int] | None] = [None] * (nx + ny)
    depth = [0] + [-1] * (nx + ny - 1)
    _hang(adj, flat_cost, u, v, link, depth, [(0, other) for other in adj[0]])
    if min(depth) < 0:
        raise NumericalError("transport basis is not a spanning tree")

    degenerate = False
    for pivots in itertools.count():
        reduced = (cost - np.array(u)[:, None] - np.array(v)[None, :]).reshape(-1)
        # Dantzig's rule: the most negative reduced cost, first in row-major
        # order among ties.  After a degenerate pivot, Bland's rule (the first
        # row-major cell below -tol) until a pivot moves mass, so a run of
        # degenerate pivots cannot cycle.
        if degenerate:
            candidates = (reduced < -tol) & outside
            entering = int(candidates.argmax())
            optimal = not candidates[entering]
        else:
            priced = np.where(outside, reduced, np.inf)
            entering = int(priced.argmin())
            optimal = not priced[entering] < -tol
        if optimal:
            plan = np.array(flat_plan).reshape(nx, ny)
            return TransportPlan(value=float(np.sum(plan * cost)), plan=plan)
        if pivots >= max_pivots:
            raise NumericalError("transportation simplex did not terminate")
        # The cycle closes the tree path from the entering row to the entering
        # column: climb from both ends until they meet.
        row, col = entering // ny, nx + entering % ny
        up, down = [], []
        x, y = row, col
        while x != y:
            if depth[x] >= depth[y]:
                x, cell = link[x]
                up.append(cell)
            else:
                y, cell = link[y]
                down.append(cell)
        cycle = [entering] + up + down[::-1]
        minus = cycle[1::2]
        theta = min(flat_plan[c] for c in minus)
        leaving = min(c for c in minus if flat_plan[c] <= theta)
        degenerate = theta == 0.0
        for k, cell in enumerate(cycle):
            flat_plan[cell] += theta if k % 2 == 0 else -theta
        flat_plan[leaving] = 0.0
        outside[leaving] = True
        outside[entering] = False
        cut_row, cut_col = leaving // ny, nx + leaving % ny
        adj[cut_row].discard(cut_col)
        adj[cut_col].discard(cut_row)
        adj[row].add(col)
        adj[col].add(row)
        # The leaving cell cuts off the entering row's end of the cycle or the
        # entering column's; that end now hangs from the other.
        cut_off = [(col, row)] if leaving in up else [(row, col)]
        _hang(adj, flat_cost, u, v, link, depth, cut_off)
