"""Contraction-coefficient toolkit on finite spaces.

Dobrushin coefficients and weighted Kantorovich-Lipschitz operator norms are
computed exactly (finite sups over state pairs).  A contraction certificate is
a pair (a, rho): at the weights ``0.5 + a * g`` and ``0.5 + a * h`` every
kernel has Lipschitz norm at most rho < 1, which on a finite space with
bounded weights is the weighted Kantorovich/Dobrushin contraction itself.

A kernel argument is one row-stochastic matrix; :func:`lyapunov_search`
also takes a nonempty ``(N, n, m)`` stack of them, such as a run's kernel
stacks, validated in one pass, or a sequence, validated kernel by kernel.

Every sup over state pairs reads one primitive, :func:`_pair_sums`: per row
pair, sums alpha, beta, gamma such that the pair's Lipschitz ratio at mixing
level a is the term ``(alpha + a * beta) / (1 + a * gamma)``, monotone in a.
:func:`lyapunov_search` drops every term whose sup on ``[0, A_MAX]`` is below
the largest inf, and takes the exact minimum over a of the max of the rest.
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
A_MAX = 1e4  # the certificate search scans the mixing levels [0, A_MAX]


def _as_kernel(k, name: str = "kernel", stack: bool = False):
    """``k``, checked to be a Markov kernel: finite, nonnegative, rows summing to one.

    With ``stack``, ``k`` may also be a nonempty ``(N, n, m)`` stack or
    sequence of kernels, and an error names the first failing kernel,
    ``name[i]``.  A stack (or one matrix, or nested lists) is checked in one
    pass and returned as a stack; a sequence of arrays is checked kernel by
    kernel and returned as a list, so that no kernel is copied.
    """
    if stack and isinstance(k, (list, tuple)) and k and all(isinstance(m, np.ndarray) for m in k):
        return [_as_kernel(m, f"{name}[{i}]") for i, m in enumerate(k)]
    k = matcore._array(k, name, floor="nonnegative")
    if stack and k.ndim != 2 and k.shape[:1] == (0,):
        raise DomainError(f"{name} must hold at least one kernel")
    if k.ndim != 2 and not (stack and k.ndim == 3):
        raise DomainError(f"{name} must be a matrix" + (" or a stack of them" if stack else ""))
    if k.shape[-2] == 0:
        raise DomainError(f"{name} must have at least one row")
    bad = np.abs(k.sum(axis=-1) - 1.0).max(axis=-1) > KERNEL_TOL
    if bad.any():
        raise DomainError(f"{matcore._first(bad, name)[1]} rows must sum to one")
    return k.reshape((-1,) + k.shape[-2:]) if stack else k


def _pair_sums(kernels, src: np.ndarray, tgt: np.ndarray):
    """Yield (3, n) chunks of ``alpha = 0.5 * sum |k[i] - k[j]|``, ``beta = sum tgt
    * |k[i] - k[j]|`` and ``gamma = src[i] + src[j]`` over the row pairs i < j.

    One two-column product per chunk of at most ``matcore.CHUNK_ELEMENTS //
    n_cols`` pairs (at least one), in ``np.triu_indices`` order.  Each sum is of
    nonnegative products, so it is within ``n_cols * eps`` (relative) of exact.
    """
    rows, cols = np.triu_indices(src.size, 1)
    gamma = src[rows] + src[cols]
    weights = np.stack([np.full(tgt.size, 0.5), tgt], axis=1)
    step = max(1, matcore.CHUNK_ELEMENTS // tgt.size)
    for k in kernels:
        for start in range(0, rows.size, step):
            i, j = rows[start:start + step], cols[start:start + step]
            diff = k.take(i, axis=0)
            diff -= k.take(j, axis=0)
            sums = np.abs(diff, out=diff) @ weights
            yield np.concatenate([sums.T, gamma[None, start:start + step]])


def dobrushin(kernel) -> float:
    """Worst-case total variation between two rows: the Lipschitz norm at weights 0.5."""
    k = _as_kernel(kernel)
    return min(lip_norm(k, np.full(k.shape[0], 0.5), np.full(k.shape[1], 0.5)), 1.0)


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
    rows divided by the source weight sum g(x1) + g(x2): max beta / gamma.
    """
    k = _as_kernel(kernel)
    g = matcore._array(source_weight, "source_weight", k.shape[:1], "strictly positive")
    h = matcore._array(target_weight, "target_weight", k.shape[1:], "strictly positive")
    worst = np.max([np.max(c[1] / c[2]) for c in _pair_sums([k], g, h)], initial=0.0)
    if np.isnan(worst):
        raise NumericalError("Lipschitz ratio is NaN: the weights overflow")
    return float(worst)


@dataclass(frozen=True)
class WeightPair:
    """Positive weights on the two spaces plus the mixing level a."""

    g: np.ndarray
    h: np.ndarray
    a: float

    def __post_init__(self) -> None:
        g = matcore._array(self.g, "g", (None,), "strictly positive")
        h = matcore._array(self.h, "h", (None,), "strictly positive")
        a = matcore._real(self.a, "mixing level a")
        if not 0 <= a < math.inf:
            raise DomainError("mixing level a must be nonnegative and finite")
        for name, value in (("g", _frozen(g)), ("h", _frozen(h)), ("a", a)):
            object.__setattr__(self, name, value)

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


def _ratios(terms: np.ndarray, a) -> np.ndarray:
    """Each term's ratio ``(alpha + a * beta) / (1 + a * gamma)``; ``a`` may be a column."""
    alpha, beta, gamma = terms
    return (alpha + a * beta) / (1.0 + a * gamma)


def _drop(terms: np.ndarray) -> np.ndarray:
    """The terms whose sup on [0, A_MAX] is not below the largest inf there, a lower
    bound on rho; the margin 2**-46 exceeds the rounding of two evaluations, so
    no dropped term tops the reported rho at any level."""
    ends = _ratios(terms, A_MAX)
    if not np.all(np.isfinite(ends)):
        raise NumericalError("Lipschitz ratio is not finite: the weights overflow")
    lower = np.minimum(terms[0], ends).max(initial=0.0)
    return terms[:, np.maximum(terms[0], ends) > lower * (1.0 - 2.0 ** -46)]


def _exact_minimum(terms: np.ndarray) -> tuple[float, float]:
    """The smallest a in [0, A_MAX] that minimizes the max of the terms, and that max.

    As each term is monotone, a minimizer is 0, A_MAX or a crossing of two
    terms.  Cutting planes keep the crossings few: the best level of an active
    set bounds the minimum from below, and the term largest there joins the set
    until none tops the set's max.  Terms p, q with ``f_p(0) < f_q(0)`` and
    ``f_p(A_MAX) > f_q(A_MAX)`` cross once, at a quadratic's root (no cancelling).
    """
    active = [int(np.argmax(terms[0])), int(np.argmax(_ratios(terms, A_MAX)))]
    while True:
        alpha, beta, gamma = terms[:, active]
        ends = _ratios(terms[:, active], A_MAX)
        p, q = np.nonzero((alpha[:, None] < alpha) & (ends[:, None] > ends))
        c0 = alpha[p] - alpha[q]
        c1 = beta[p] - beta[q] + alpha[p] * gamma[q] - alpha[q] * gamma[p]
        c2 = beta[p] * gamma[q] - beta[q] * gamma[p]
        with np.errstate(all="ignore"):
            root = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0))
            cross = np.where(c1 >= 0, -2.0 * c0 / (c1 + root), (root - c1) / (2.0 * c2))
        levels = np.append([0.0, A_MAX], np.clip(cross[np.isfinite(cross)], 0.0, A_MAX))
        worst = _ratios(terms[:, active], levels[:, None]).max(axis=1)
        level = levels[worst == worst.min()].min()  # ties go to the smallest a
        values = _ratios(terms, level)
        top = int(np.argmax(values))
        if values[top] <= worst.min():
            return float(level), float(values[top])
        active.append(top)


def lyapunov_search(kernel_k, kernel_l, g, h) -> ContractionCertificate | SearchFailure:
    """The exact best weighted-norm contraction certificate (a, rho), a in [0, A_MAX].

    ``kernel_k`` / ``kernel_l`` may be single kernels or nonempty ``(N, n, m)``
    stacks or sequences of them, such as a run's ``kernel_even[1:]`` and
    ``kernel_odd[1:]`` as they are; neither form is copied.  With several
    kernels the certificate bounds every pair, which is what time-varying
    iterations need.  K kernels take source weight g_a and target weight
    h_a, L kernels the reverse.  rho, the max over all pairs of the
    Lipschitz ratio at a, is minimized over a (ties go to the smallest a); a
    minimum not below 1 gives a :class:`SearchFailure`.  a = 0 is the unweighted
    (total variation) certificate; a = A_MAX means the minimum lies at or beyond.
    """
    ks = _as_kernel(kernel_k, "kernel_k", stack=True)
    ls = _as_kernel(kernel_l, "kernel_l", stack=True)
    g = matcore._array(g, "g", ks[0].shape[:1], "strictly positive")
    h = matcore._array(h, "h", ks[0].shape[1:], "strictly positive")
    for name, kernels, shape in (("kernel_k", ks, (g.size, h.size)),
                                 ("kernel_l", ls, (h.size, g.size))):
        for k in kernels:
            if k.shape != shape:
                raise DomainError(f"{name} must hold kernels of shape {shape} from the weights, "
                                  f"got {k.shape}")
    kept, batch, size = np.empty((3, 0)), [], 0
    for chunk in (c for kernels, src, tgt in ((ks, g, h), (ls, h, g))
                  for c in _pair_sums(kernels, src, tgt)):
        batch.append(chunk)
        size += chunk.shape[1]
        if 3 * size >= matcore.CHUNK_ELEMENTS:  # a batch holds about a chunk of floats
            kept, batch, size = _drop(np.hstack([kept, *batch])), [], 0
    kept = _drop(np.hstack([kept, *batch]))
    a, rho = _exact_minimum(kept) if kept.size else (0.0, 0.0)
    if not rho < 1.0:
        return SearchFailure(best_a=a, best_rho=rho,
                             reason=f"no mixing level in [0, {A_MAX:g}] gives rho < 1")
    return ContractionCertificate(a=a, rho=rho)
