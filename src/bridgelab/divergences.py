"""Divergence and distance catalog.

Covers entropies built from 1-homogeneous convex integrands on finite spaces,
plain and weighted total variation, Gaussian relative entropy (Burg form),
the closed-form Gaussian 2-Wasserstein distance, and exact discrete
Kantorovich semi-distances solved by an in-house transportation simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore
from .errors import DomainError, NumericalError

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability vector on a finite support, normalized on construction."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise DomainError("measure needs a nonempty support")
        if not np.all(np.isfinite(w)):
            raise DomainError("measure weights must be finite")
        if np.any(w < 0):
            raise DomainError("measure weights must be nonnegative")
        total = float(w.sum())
        if total <= 0:
            raise DomainError("measure weights must have positive total mass")
        object.__setattr__(self, "weights", matcore._frozen(w / total))

    @property
    def support_size(self) -> int:
        return self.weights.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)


def as_measure(mu) -> DiscreteMeasure:
    if isinstance(mu, DiscreteMeasure):
        return mu
    return DiscreteMeasure(np.asarray(mu, dtype=float))


@dataclass(frozen=True)
class PhiFunction:
    """A 1-homogeneous convex integrand with value 0 on the diagonal."""

    name: str
    evaluate: Callable[[float, float], float]


def _phi_kl(u: float, v: float) -> float:
    if u == 0.0:
        return 0.0
    if v == 0.0:
        return math.inf
    return u * math.log(u / v)


def _phi_tv(u: float, v: float) -> float:
    return abs(u - v) / 2.0


def _phi_hellinger(u: float, v: float) -> float:
    return (math.sqrt(u) - math.sqrt(v)) ** 2


def _phi_chi2(u: float, v: float) -> float:
    if v == 0.0:
        return 0.0 if u == 0.0 else math.inf
    return (u - v) ** 2 / v


KL = PhiFunction("kl", _phi_kl)
TOTAL_VARIATION = PhiFunction("tv", _phi_tv)
HELLINGER_SQ = PhiFunction("hellinger-sq", _phi_hellinger)
CHI_SQUARE = PhiFunction("chi-square", _phi_chi2)

# Jeffreys and Renyi divergences are not 1-homogeneous in the sense used here,
# so they are deliberately absent from the catalog.
PHI_CATALOG = {
    phi.name: phi for phi in (KL, TOTAL_VARIATION, HELLINGER_SQ, CHI_SQUARE)
}


def phi_entropy(phi: PhiFunction, mu1, mu2) -> float:
    """Entropy ``sum_x Phi(mu1(x), mu2(x))`` under the counting dominating measure.

    By 1-homogeneity the value does not depend on the dominating measure.
    Returns ``+inf`` when the integrand diverges (e.g. KL without absolute
    continuity).
    """
    m1, m2 = as_measure(mu1), as_measure(mu2)
    if m1.support_size != m2.support_size:
        raise DomainError(
            f"support mismatch: {m1.support_size} vs {m2.support_size}"
        )
    total = 0.0
    for u, v in zip(m1.weights, m2.weights):
        term = phi.evaluate(float(u), float(v))
        if math.isinf(term):
            return math.inf
        total += term
    return total


def relative_entropy(p, q) -> float:
    """KL divergence between two nonnegative weight arrays of equal total mass.

    Vectorized companion of ``phi_entropy(KL, ...)`` that also accepts joint
    matrices (flattened).  Uses 0 log 0 = 0 and returns ``+inf`` when ``p``
    charges a point that ``q`` does not.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise DomainError("support mismatch in relative_entropy")
    pos = p > 0
    if np.any(q[pos] == 0):
        return math.inf
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


def weighted_tv(mu1, mu2, g) -> float:
    """Weighted total variation ``|mu1 - mu2|(g) = sum_x g(x) |mu1(x) - mu2(x)|``."""
    m1, m2 = as_measure(mu1), as_measure(mu2)
    g = np.asarray(g, dtype=float).reshape(-1)
    if m1.support_size != m2.support_size or g.size != m1.support_size:
        raise DomainError("support mismatch in weighted_tv")
    if np.any(g <= 0):
        raise DomainError("weight vector must be strictly positive")
    return float(np.sum(g * np.abs(m1.weights - m2.weights)))


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian measure on R^d with SPD covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=float).reshape(-1)
        c = matcore.assert_spd(self.covariance, "covariance")
        if c.shape[0] != m.size:
            raise DomainError(
                f"mean dimension {m.size} does not match covariance {c.shape}"
            )
        object.__setattr__(self, "mean", matcore._frozen(m))
        object.__setattr__(self, "covariance", matcore._frozen(c))

    @property
    def dim(self) -> int:
        return self.mean.size


def burg_divergence(sigma, sigma_bar) -> float:
    """Log-det divergence ``Tr(sigma sigma_bar^{-1} - I) - log det(sigma sigma_bar^{-1})``."""
    s = matcore.assert_spd(sigma, "sigma")
    sb = matcore.assert_spd(sigma_bar, "sigma_bar")
    if s.shape != sb.shape:
        raise DomainError("dimension mismatch in burg_divergence")
    ratio = np.linalg.solve(sb, s)
    sign, logdet = np.linalg.slogdet(ratio)
    if sign <= 0:
        raise NumericalError("log-det of an SPD ratio came out non-positive")
    d = s.shape[0]
    return float(np.trace(ratio) - d - logdet)


def gaussian_kl(p: Gaussian, q: Gaussian) -> float:
    """Relative entropy H(p | q) between two Gaussians."""
    if p.dim != q.dim:
        raise DomainError("dimension mismatch in gaussian_kl")
    diff = p.mean - q.mean
    quad = float(diff @ np.linalg.solve(q.covariance, diff))
    return 0.5 * (burg_divergence(p.covariance, q.covariance) + quad)


def gaussian_w2(p: Gaussian, q: Gaussian) -> float:
    """2-Wasserstein distance between Gaussians (Bures closed form)."""
    if p.dim != q.dim:
        raise DomainError("dimension mismatch in gaussian_w2")
    root_p = matcore.principal_sqrt(p.covariance)
    cross = matcore.principal_sqrt(root_p @ q.covariance @ root_p)
    bures = float(np.trace(p.covariance) + np.trace(q.covariance) - 2.0 * np.trace(cross))
    mean_sq = float(np.sum((p.mean - q.mean) ** 2))
    return math.sqrt(max(mean_sq + bures, 0.0))


# --------------------------------------------------------------------------
# Exact discrete optimal transport (transportation simplex).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportPlan:
    value: float
    plan: np.ndarray


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution; returns (allocation, basis mask)."""
    nx, ny = a.size, b.size
    plan = np.zeros((nx, ny))
    in_basis = np.zeros((nx, ny), dtype=bool)
    supply = a.copy()
    demand = b.copy()
    i = j = 0
    while True:
        move = min(supply[i], demand[j])
        plan[i, j] = move
        in_basis[i, j] = True
        supply[i] -= move
        demand[j] -= move
        if i == nx - 1 and j == ny - 1:
            break
        # Advance one index at a time so the basis stays a spanning tree of
        # size nx + ny - 1 even under degeneracy; at a boundary the only legal
        # move is along the other axis (rounding can leave dust either way).
        if j == ny - 1 or (supply[i] <= demand[j] and i < nx - 1):
            i += 1
        else:
            j += 1
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
    simplex (Bland's entering rule, deterministic tie-breaking).  The basis
    tree keeps each node's dual, parent and depth; the parent pointers give
    the pivot cycle, and a pivot re-derives these only on the subtree it
    moves.  ``max_pivots`` bounds the number of pivots.  Intended for
    desk-scale supports (<= 64 x 64).
    """
    cost = np.asarray(cost, dtype=float)
    m1, m2 = as_measure(mu1), as_measure(mu2)
    nx, ny = m1.support_size, m2.support_size
    if cost.shape != (nx, ny):
        raise DomainError(f"cost shape {cost.shape} does not match supports {(nx, ny)}")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost matrix must be finite")
    if np.any(cost < 0):
        raise DomainError("cost matrix must be nonnegative")
    a, b = m1.weights.copy(), m2.weights.copy()
    if abs(a.sum() - b.sum()) > 1e-9:
        raise DomainError("marginals must carry equal total mass")

    plan, in_basis = _northwest_corner(a, b)
    scale = 1.0 + float(np.abs(cost).max(initial=0.0))
    tol = 1e-13 * scale
    if max_pivots is None:
        max_pivots = 200 * (nx + ny) * max(nx, ny)

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

    for pivots in itertools.count():
        reduced = cost - np.array(u)[:, None] - np.array(v)[None, :]
        # Bland's rule: first (row-major) cell with negative reduced cost.
        candidates = (reduced.reshape(-1) < -tol) & outside
        entering = int(candidates.argmax())
        if not candidates[entering]:
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
