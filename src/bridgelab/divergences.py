"""Divergence and distance catalog.

Covers entropies built from 1-homogeneous convex integrands on finite spaces,
plain and weighted total variation, Gaussian relative entropy (Burg form),
the closed-form Gaussian 2-Wasserstein distance, and exact discrete
Kantorovich semi-distances solved by an in-house transportation simplex.
"""

from __future__ import annotations

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
    """Initial basic feasible solution; returns (allocation, basis cells)."""
    nx, ny = a.size, b.size
    plan = np.zeros((nx, ny))
    basis: list[tuple[int, int]] = []
    supply = a.copy()
    demand = b.copy()
    i = j = 0
    while True:
        move = min(supply[i], demand[j])
        plan[i, j] = move
        basis.append((i, j))
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
    return plan, basis


def _tree_adjacency(basis, nx: int, ny: int):
    # Nodes 0..nx-1 are rows, nx..nx+ny-1 are columns.
    adj: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(nx + ny)]
    for cell in basis:
        i, j = cell
        adj[i].append((nx + j, cell))
        adj[nx + j].append((i, cell))
    return adj


def _compute_duals(basis, cost, nx: int, ny: int):
    adj = _tree_adjacency(basis, nx, ny)
    u = np.zeros(nx)
    v = np.zeros(ny)
    seen = np.zeros(nx + ny, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for other, (i, j) in adj[node]:
            if seen[other]:
                continue
            if other >= nx:
                v[other - nx] = cost[i, j] - u[i]
            else:
                u[other] = cost[i, j] - v[j]
            seen[other] = True
            stack.append(other)
    if not seen.all():
        raise NumericalError("transport basis is not a spanning tree")
    return u, v


def _find_cycle(basis, entering, nx: int, ny: int):
    """Path in the basis tree from the entering cell's row to its column."""
    adj = _tree_adjacency(basis, nx, ny)
    start, goal = entering[0], nx + entering[1]
    parent: dict[int, tuple[int, tuple[int, int]]] = {start: (start, entering)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for other, cell in adj[node]:
            if other not in parent:
                parent[other] = (node, cell)
                stack.append(other)
    path_cells = []
    node = goal
    while node != start:
        node, cell = parent[node]
        path_cells.append(cell)
    return [entering] + path_cells[::-1]


def kantorovich_discrete(cost, mu1, mu2, max_pivots: int | None = None) -> TransportPlan:
    """Exact Kantorovich semi-distance on finite supports.

    Solves ``min_{Q in Pi(mu1, mu2)} sum cost * Q`` with a transportation
    simplex (Bland's entering rule, deterministic tie-breaking).  Intended for
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

    plan, basis = _northwest_corner(a, b)
    basis_set = set(basis)
    scale = 1.0 + float(np.abs(cost).max(initial=0.0))
    tol = 1e-13 * scale
    if max_pivots is None:
        max_pivots = 200 * (nx + ny) * max(nx, ny)

    for _ in range(max_pivots):
        u, v = _compute_duals(basis, cost, nx, ny)
        reduced = cost - u[:, None] - v[None, :]
        entering = None
        # Bland's rule: first (row-major) cell with negative reduced cost.
        for i in range(nx):
            for j in range(ny):
                if (i, j) not in basis_set and reduced[i, j] < -tol:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            value = float(np.sum(plan * cost))
            return TransportPlan(value=value, plan=plan)
        cycle = _find_cycle(basis, entering, nx, ny)
        minus = cycle[1::2]
        theta = min(plan[c] for c in minus)
        leaving = min(c for c in minus if plan[c] <= theta)
        for k, cell in enumerate(cycle):
            plan[cell] += theta if k % 2 == 0 else -theta
        plan[leaving] = 0.0
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis = [entering if c == leaving else c for c in basis]
    raise NumericalError("transportation simplex did not terminate")
