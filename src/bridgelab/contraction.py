"""Contraction-coefficient toolkit on finite spaces.

Dobrushin coefficients and weighted Kantorovich-Lipschitz operator norms are
computed exactly (finite sups over state pairs); drift and minorization
conditions are verified entrywise; a grid search over the weight-mixing
parameter realizes a contraction certificate when one exists.

Every sup over state pairs goes through one primitive, :func:`_pair_chunks`,
which yields the row differences ``|k[i] - k[j]|`` for i < j in chunks of at
most ``_PAIR_CHUNK_ELEMENTS`` floats (64 KB), so memory stays bounded at any
kernel size.  The certificate search builds each kernel's differences once
and scores every grid point against them.  The grid, the arithmetic per pair
and the tie rule (first strict minimum: the earliest of equal-rho grid points)
are those of a plain per-pair loop, and the results are bit-identical to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .divergences import PhiFunction, phi_entropy
from .errors import DomainError, NumericalError

KERNEL_TOL = 1e-9
DEFAULT_GRID = tuple(np.logspace(-4.0, 4.0, 50))
# Float64 entries per pair-difference temporary: 8192 * 8 bytes = 64 KB.
_PAIR_CHUNK_ELEMENTS = 8192


def _as_kernel(k, name: str = "kernel") -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim != 2:
        raise DomainError(f"{name} must be a matrix")
    if np.any(k < -KERNEL_TOL) or not np.all(np.isfinite(k)):
        raise DomainError(f"{name} must have nonnegative finite entries")
    rows = k.sum(axis=1)
    if float(np.max(np.abs(rows - 1.0))) > KERNEL_TOL:
        raise DomainError(f"{name} rows must sum to one")
    return k


def _as_kernel_list(kernels, name: str) -> list[np.ndarray]:
    if isinstance(kernels, np.ndarray) and kernels.ndim == 2:
        return [_as_kernel(kernels, name)]
    if isinstance(kernels, (list, tuple)):
        return [_as_kernel(k, f"{name}[{i}]") for i, k in enumerate(kernels)]
    return [_as_kernel(kernels, name)]


def _as_weights(w, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        raise DomainError(f"{name} must be finite")
    return w


def _as_positive_weights(w, name: str) -> np.ndarray:
    w = _as_weights(w, name)
    if np.any(w <= 0):
        raise DomainError(f"{name} must be strictly positive")
    return w


def _pair_chunks(k: np.ndarray):
    """Yield ``(|k[i] - k[j]|, i, j)`` over the row pairs i < j of ``k``.

    Pairs come in ``np.triu_indices`` (row-major) order, at most
    ``_PAIR_CHUNK_ELEMENTS // n_cols`` pairs (and at least one) per chunk.
    """
    rows, cols = np.triu_indices(k.shape[0], 1)
    step = max(1, _PAIR_CHUNK_ELEMENTS // max(1, k.shape[1]))
    for start in range(0, rows.size, step):
        i = rows[start:start + step]
        j = cols[start:start + step]
        yield np.abs(k[i] - k[j]), i, j


def _lip_norms(k: np.ndarray, weights) -> np.ndarray:
    """``lip_norm(k, s, t)`` for every ``(s, t)`` in ``weights``, in one pass."""
    worst = np.zeros(len(weights))
    for diff, i, j in _pair_chunks(k):
        ratios = [(np.sum(t * diff, axis=1) / (s[i] + s[j])).max() for s, t in weights]
        np.maximum(worst, ratios, out=worst)
    if np.isnan(worst).any():
        raise NumericalError("Lipschitz ratio is NaN: the weights overflow")
    return worst


def dobrushin(kernel) -> float:
    """Worst-case total variation distance between two rows of the kernel."""
    k = _as_kernel(kernel)
    worst = 0.0
    for diff, _, _ in _pair_chunks(k):
        worst = max(worst, 0.5 * float(diff.sum(axis=1).max()))
    return min(worst, 1.0)


@dataclass(frozen=True)
class ProbeReport:
    dobrushin_bound: float
    max_ratio: float
    samples: int
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def phi_contraction_probe(kernel, phi: PhiFunction, samples: int, seed: int) -> ProbeReport:
    """Sample measure pairs and test the universal contraction bound.

    For each pair the post-kernel entropy must stay below dob(K) times the
    pre-kernel entropy; the max observed ratio is a lower bound for the
    (uncomputable) phi-contraction coefficient.
    """
    k = _as_kernel(kernel)
    bound = dobrushin(k)
    rng = np.random.Generator(np.random.Philox(key=seed))
    max_ratio = 0.0
    violations: list[int] = []
    for s in range(samples):
        m1 = rng.dirichlet(np.ones(k.shape[0]))
        m2 = rng.dirichlet(np.ones(k.shape[0]))
        before = phi_entropy(phi, m1, m2)
        after = phi_entropy(phi, m1 @ k, m2 @ k)
        if not math.isfinite(before) or before <= 0:
            continue
        ratio = after / before
        max_ratio = max(max_ratio, ratio)
        if after > bound * before + 1e-12:
            violations.append(s)
    return ProbeReport(
        dobrushin_bound=bound,
        max_ratio=max_ratio,
        samples=samples,
        violations=tuple(violations),
    )


def lip_norm(kernel, source_weight, target_weight) -> float:
    """Exact Kantorovich-Lipschitz norm of a kernel between weighted spaces.

    Supremum over state pairs of the target-weighted total variation between
    rows divided by the source weight sum g(x1) + g(x2).
    """
    k = _as_kernel(kernel)
    g = _as_positive_weights(source_weight, "source_weight")
    h = _as_positive_weights(target_weight, "target_weight")
    if g.size != k.shape[0] or h.size != k.shape[1]:
        raise DomainError("weight dimensions do not match the kernel")
    return float(_lip_norms(k, [(g, h)])[0])


@dataclass(frozen=True)
class WeightPair:
    """Positive weights on the two spaces plus the mixing level a."""

    g: np.ndarray
    h: np.ndarray
    a: float

    def __post_init__(self) -> None:
        g = _as_positive_weights(self.g, "g")
        h = _as_positive_weights(self.h, "h")
        if not 0 < self.a < math.inf:
            raise DomainError("mixing level a must be positive and finite")
        g.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def g_a(self) -> np.ndarray:
        return 0.5 + self.a * self.g

    @property
    def h_a(self) -> np.ndarray:
        return 0.5 + self.a * self.h


@dataclass(frozen=True)
class DriftReport:
    passed: bool
    worst_slack: float
    worst_state: tuple[str, int]
    rescaled_passed: bool
    rescaled_slack: float


def drift_check(kernel_k, kernel_l, g, h, epsilon: float, c: float) -> DriftReport:
    """Verify the coupled drift inequalities K(h) <= eps g + c, L(g) <= eps h + c."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not c > 0:
        raise DomainError("c must be positive")
    k = _as_kernel(kernel_k, "kernel_k")
    l = _as_kernel(kernel_l, "kernel_l")
    g = _as_weights(g, "g")
    h = _as_weights(h, "h")
    slack_k = k @ h - (epsilon * g + c)
    slack_l = l @ g - (epsilon * h + c)
    worst = max(float(slack_k.max()), float(slack_l.max()))
    if float(slack_k.max()) >= float(slack_l.max()):
        state = ("K", int(np.argmax(slack_k)))
    else:
        state = ("L", int(np.argmax(slack_l)))
    # Rescaled form: with g = 1/2 + (eps/2c) g, h likewise, the constant drops to 1/2.
    g_bar = 0.5 + (epsilon / (2.0 * c)) * g
    h_bar = 0.5 + (epsilon / (2.0 * c)) * h
    rescaled = max(
        float((k @ h_bar - (epsilon * g_bar + 0.5)).max()),
        float((l @ g_bar - (epsilon * h_bar + 0.5)).max()),
    )
    return DriftReport(
        passed=worst <= 1e-12,
        worst_slack=worst,
        worst_state=state,
        rescaled_passed=rescaled <= 1e-12,
        rescaled_slack=rescaled,
    )


@dataclass(frozen=True)
class MinorizationRow:
    level: float
    iota_k: float
    iota_l: float
    iota: float
    skipped: bool
    note: str = ""


def minorization_table(kernel_k, kernel_l, g, h, levels) -> tuple[MinorizationRow, ...]:
    """Largest sublevel-set minorization mass per level, by entrywise minima.

    For each level l the mass is the total of the entrywise row minimum over
    sources in {g <= l}, restricted to targets in the companion sublevel set;
    this is the largest iota such that every such row dominates iota times a
    common probability measure on the set.
    """
    k = _as_kernel(kernel_k, "kernel_k")
    l_mat = _as_kernel(kernel_l, "kernel_l")
    g = np.asarray(g, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    rows: list[MinorizationRow] = []
    for level in levels:
        src_k = g <= level
        tgt_k = h <= level
        src_l = h <= level
        tgt_l = g <= level
        if not (src_k.any() and tgt_k.any() and src_l.any() and tgt_l.any()):
            rows.append(MinorizationRow(
                level=float(level), iota_k=0.0, iota_l=0.0, iota=0.0,
                skipped=True, note="empty sublevel set",
            ))
            continue
        iota_k = float(k[np.ix_(src_k, tgt_k)].min(axis=0).sum())
        iota_l = float(l_mat[np.ix_(src_l, tgt_l)].min(axis=0).sum())
        rows.append(MinorizationRow(
            level=float(level), iota_k=iota_k, iota_l=iota_l,
            iota=min(iota_k, iota_l), skipped=False,
        ))
    return tuple(rows)


@dataclass(frozen=True)
class ContractionCertificate:
    a: float
    rho: float
    epsilon: float
    c: float
    iota_table: tuple[MinorizationRow, ...]

    @property
    def product_bound(self) -> float:
        return self.rho ** 2

    def to_json(self) -> str:
        return json.dumps({
            "a": self.a,
            "rho": self.rho,
            "epsilon": self.epsilon,
            "c": self.c,
            "iota_table": [
                {"level": r.level, "iota_k": r.iota_k, "iota_l": r.iota_l,
                 "iota": r.iota, "skipped": r.skipped}
                for r in self.iota_table
            ],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ContractionCertificate":
        data = json.loads(payload)
        table = tuple(
            MinorizationRow(level=r["level"], iota_k=r["iota_k"], iota_l=r["iota_l"],
                            iota=r["iota"], skipped=r["skipped"])
            for r in data["iota_table"]
        )
        return cls(a=data["a"], rho=data["rho"], epsilon=data["epsilon"],
                   c=data["c"], iota_table=table)


@dataclass(frozen=True)
class SearchFailure:
    best_a: float
    best_rho: float
    reason: str


def _drift_constants(kernels_k, kernels_l, g, h, epsilon: float = 0.5):
    """Verified-by-construction drift constants for the given weight vectors."""
    worst = 0.0
    for k in kernels_k:
        worst = max(worst, float((k @ h - epsilon * g).max()))
    for l_mat in kernels_l:
        worst = max(worst, float((l_mat @ g - epsilon * h).max()))
    return epsilon, max(worst, 1e-12)


def _rhos(kernels_k, kernels_l, g, h, grid) -> np.ndarray:
    """Worst Lipschitz norm over all kernels at each mixing level of ``grid``.

    Each kernel's pair differences are built once and scored against every
    level; K kernels take source weight g_a and target weight h_a, L kernels
    the reverse.
    """
    forward = [(p.g_a, p.h_a) for p in (WeightPair(g=g, h=h, a=a) for a in grid)]
    backward = [(t, s) for s, t in forward]
    rho = np.zeros(len(forward))
    for kernels, shape, weights in ((kernels_k, (g.size, h.size), forward),
                                    (kernels_l, (h.size, g.size), backward)):
        for k in kernels:
            if k.shape != shape:
                raise DomainError("weight dimensions do not match the kernel")
            np.maximum(rho, _lip_norms(k, weights), out=rho)
    return rho


def lyapunov_search(kernel_k, kernel_l, g, h, grid=None,
                    levels=None) -> ContractionCertificate | SearchFailure:
    """Scan mixing levels for a weighted-norm contraction certificate.

    ``kernel_k`` / ``kernel_l`` may be single kernels or sequences; with
    sequences the certificate bounds every pair, which is what time-varying
    iterations need.  Returns the best (a, rho) with rho < 1, ties broken
    toward the earliest grid point, or a :class:`SearchFailure` when no grid
    point contracts.
    """
    ks = _as_kernel_list(kernel_k, "kernel_k")
    ls = _as_kernel_list(kernel_l, "kernel_l")
    g = _as_positive_weights(g, "g")
    h = _as_positive_weights(h, "h")
    grid = DEFAULT_GRID if grid is None else tuple(float(a) for a in grid)
    best_a = math.nan
    best_rho = math.inf
    for a, rho in zip(grid, _rhos(ks, ls, g, h, grid)):
        if rho < best_rho:
            best_rho, best_a = rho, a
    if not best_rho < 1.0:
        return SearchFailure(best_a=best_a, best_rho=best_rho,
                             reason="no grid point produced rho < 1")
    epsilon, c = _drift_constants(ks, ls, g, h)
    if levels is None:
        combined = np.concatenate([g, h])
        levels = np.quantile(combined, [0.5, 0.75, 0.9, 1.0])
    table = minorization_table(ks[0], ls[0], g, h, levels)
    return ContractionCertificate(
        a=float(best_a), rho=float(best_rho), epsilon=epsilon, c=c, iota_table=table,
    )


def reverify(cert: ContractionCertificate, kernel_k, kernel_l, g, h) -> bool:
    """Re-check every inequality a certificate asserts."""
    ks = _as_kernel_list(kernel_k, "kernel_k")
    ls = _as_kernel_list(kernel_l, "kernel_l")
    g = _as_positive_weights(g, "g")
    h = _as_positive_weights(h, "h")
    if _rhos(ks, ls, g, h, [cert.a])[0] > cert.rho + 1e-12:
        return False
    return drift_check(ks[0], ls[0], g, h, cert.epsilon, cert.c).passed
