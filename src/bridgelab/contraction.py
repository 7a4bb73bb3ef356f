"""Contraction-coefficient toolkit on finite spaces.

Dobrushin coefficients and weighted Kantorovich-Lipschitz operator norms are
computed exactly (finite sups over state pairs).  A contraction certificate is
a pair (a, rho): at the weights ``0.5 + a * g`` and ``0.5 + a * h`` every
kernel has Lipschitz norm at most rho < 1, which on a finite space with
bounded weights is the weighted Kantorovich/Dobrushin contraction itself.  A
grid search over the mixing level a finds the best certificate when one
exists, and :func:`reverify` re-computes rho at the certificate's a.

Every sup over state pairs goes through one primitive, :func:`_pair_chunks`,
which yields the row differences ``|k[i] - k[j]|`` for i < j in chunks small
enough that each per-chunk table holds at most ``matcore.CHUNK_ELEMENTS``
floats (64 KB), so memory stays bounded at any kernel size.  :func:`_lip_norms`
scores a chunk against a whole matrix of weights at once: one matrix product
gives every (pair, weight) ratio, and a norm is the largest of them.  It
agrees with a plain per-pair loop to within ``2 * (n_cols + 4) * eps``
(relative); the tie rule is the first strict minimum (the earliest of
equal-rho grid points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .divergences import PhiFunction, phi_entropy
from .errors import DomainError, NumericalError
from .matcore import _frozen

KERNEL_TOL = 1e-9
DEFAULT_GRID = tuple(np.logspace(-4.0, 4.0, 50))


def _as_kernel(k, name: str = "kernel") -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim != 2:
        raise DomainError(f"{name} must be a matrix")
    if k.shape[0] == 0:
        raise DomainError(f"{name} must have at least one row")
    if np.any(k < -KERNEL_TOL) or not np.all(np.isfinite(k)):
        raise DomainError(f"{name} must have nonnegative finite entries")
    rows = k.sum(axis=1)
    if float(np.max(np.abs(rows - 1.0))) > KERNEL_TOL:
        raise DomainError(f"{name} rows must sum to one")
    return k


def _as_kernel_list(kernels, name: str) -> list[tuple[str, np.ndarray]]:
    """``(label, kernel)`` pairs: ``name[i]`` for a sequence, ``name`` for one matrix."""
    if not isinstance(kernels, (list, tuple)):
        return [(name, _as_kernel(kernels, name))]
    if not kernels:
        raise DomainError(f"{name} must hold at least one kernel")
    return [(f"{name}[{i}]", _as_kernel(k, f"{name}[{i}]")) for i, k in enumerate(kernels)]


def _as_positive_weights(w, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        raise DomainError(f"{name} must be finite")
    if np.any(w <= 0):
        raise DomainError(f"{name} must be strictly positive")
    return w


def _check_weight_sizes(k: np.ndarray, name: str, src: np.ndarray, src_name: str,
                        tgt: np.ndarray, tgt_name: str) -> None:
    """Raise naming the first of the source, target weights that does not fit ``k``."""
    if src.size != k.shape[0]:
        raise DomainError(f"{src_name} has {src.size} entries but {name} has {k.shape[0]} rows")
    if tgt.size != k.shape[1]:
        raise DomainError(f"{tgt_name} has {tgt.size} entries but {name} has {k.shape[1]} columns")


def _pair_chunks(k: np.ndarray, width: int = 1):
    """Yield ``(|k[i] - k[j]|, i, j)`` over the row pairs i < j of ``k``.

    Pairs come in ``np.triu_indices`` (row-major) order, at most
    ``matcore.CHUNK_ELEMENTS // max(n_cols, width)`` pairs (and at least one) per
    chunk, so both the differences and a pairs x ``width`` table fit the bound.
    """
    rows, cols = np.triu_indices(k.shape[0], 1)
    step = max(1, matcore.CHUNK_ELEMENTS // max(1, k.shape[1], width))
    for start in range(0, rows.size, step):
        i = rows[start:start + step]
        j = cols[start:start + step]
        yield np.abs(k[i] - k[j]), i, j


def _lip_norms(k: np.ndarray, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """``lip_norm(k, src[w], tgt[w])`` for every row w of the weight matrices.

    ``src`` is (W, n_rows) and ``tgt`` is (W, n_cols).  Per chunk of pairs, one
    matrix product scores every ratio ``(diff @ tgt.T) / den`` at once, and
    the norms are the running maxima of those scores.  All terms are
    nonnegative, so each score lies within ``(n_cols + 4) * eps`` (relative)
    of the exact ratio, and so does each norm; a per-pair loop summing
    ``np.sum(diff[p] * tgt[w]) / den[p, w]`` lies within the same bound, so
    the two agree to ``2 * (n_cols + 4) * eps`` (relative).
    """
    worst = np.zeros(src.shape[0])
    for diff, i, j in _pair_chunks(k, src.shape[0]):
        den = (src[:, i] + src[:, j]).T
        worst = np.maximum(worst, np.max((diff @ tgt.T) / den, axis=0))
    if np.isnan(worst).any():
        raise NumericalError("Lipschitz ratio is NaN: the weights overflow")
    return worst


def dobrushin(kernel) -> float:
    """Worst-case total variation distance between two rows of the kernel."""
    k = _as_kernel(kernel)
    ones_x, ones_y = np.ones((1, k.shape[0])), np.ones((1, k.shape[1]))
    return min(float(_lip_norms(k, ones_x, ones_y)[0]), 1.0)


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
    _check_weight_sizes(k, "kernel", g, "source_weight", h, "target_weight")
    return float(_lip_norms(k, g[None], h[None])[0])


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
        object.__setattr__(self, "g", _frozen(g))
        object.__setattr__(self, "h", _frozen(h))

    @property
    def g_a(self) -> np.ndarray:
        return 0.5 + self.a * self.g

    @property
    def h_a(self) -> np.ndarray:
        return 0.5 + self.a * self.h


@dataclass(frozen=True)
class ContractionCertificate:
    a: float
    rho: float


@dataclass(frozen=True)
class SearchFailure:
    best_a: float
    best_rho: float
    reason: str


def _rhos(kernel_k, kernel_l, g, h, grid) -> np.ndarray:
    """Worst Lipschitz norm over all kernels at each mixing level of ``grid``.

    Validates every argument first; an error names the one at fault.  The
    weights of every level are built at once, row w being
    ``g_a = 0.5 + a[w] * g`` and ``h_a = 0.5 + a[w] * h`` (the arithmetic of
    :class:`WeightPair`).  Each kernel's pair differences are built once and
    scored against every level; K kernels take source weight g_a and target
    weight h_a, L kernels the reverse.
    """
    ks = _as_kernel_list(kernel_k, "kernel_k")
    ls = _as_kernel_list(kernel_l, "kernel_l")
    g = _as_positive_weights(g, "g")
    h = _as_positive_weights(h, "h")
    a = np.asarray(grid, dtype=float)
    if a.size == 0:
        raise DomainError("grid must hold at least one mixing level")
    if not np.all((a > 0) & (a < math.inf)):
        raise DomainError("mixing level a must be positive and finite")
    _check_weight_sizes(ks[0][1], ks[0][0], g, "g", h, "h")
    for kernels, shape, order in ((ks, (g.size, h.size), "g and h"),
                                  (ls, (h.size, g.size), "h and g")):
        for name, k in kernels:
            if k.shape != shape:
                raise DomainError(f"{name} has shape {k.shape}, expected {shape} from {order}")
    g_a = 0.5 + a[:, None] * g
    h_a = 0.5 + a[:, None] * h
    rho = np.zeros(a.size)
    for kernels, src, tgt in ((ks, g_a, h_a), (ls, h_a, g_a)):
        for _, k in kernels:
            np.maximum(rho, _lip_norms(k, src, tgt), out=rho)
    return rho


def lyapunov_search(kernel_k, kernel_l, g, h, grid=None) -> ContractionCertificate | SearchFailure:
    """Scan mixing levels for a weighted-norm contraction certificate (a, rho).

    ``kernel_k`` / ``kernel_l`` may be single kernels or nonempty sequences;
    with sequences the certificate bounds every pair, which is what
    time-varying iterations need.  Returns the best (a, rho) with rho < 1,
    ties broken toward the earliest grid point, or a :class:`SearchFailure`
    when no grid point contracts.
    """
    grid = DEFAULT_GRID if grid is None else tuple(float(a) for a in grid)
    best_a = math.nan
    best_rho = math.inf
    for a, rho in zip(grid, _rhos(kernel_k, kernel_l, g, h, grid)):
        if rho < best_rho:
            best_rho, best_a = rho, a
    if not best_rho < 1.0:
        return SearchFailure(best_a=float(best_a), best_rho=float(best_rho),
                             reason="no grid point produced rho < 1")
    return ContractionCertificate(a=float(best_a), rho=float(best_rho))


def reverify(cert: ContractionCertificate, kernel_k, kernel_l, g, h) -> bool:
    """Re-compute rho at ``cert.a`` and check it does not exceed ``cert.rho``."""
    return bool(_rhos(kernel_k, kernel_l, g, h, [cert.a])[0] <= cert.rho + 1e-12)
