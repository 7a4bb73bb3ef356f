"""Dense symmetric / positive-definite matrix utilities.

Everything here works on plain ``numpy`` arrays: validation
(:func:`symmetrize`, :func:`assert_spd`), principal roots and inverses, the
Loewner order and the spectral norm.  All decompositions go through the
symmetric eigensolver so results stay exactly symmetric.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError

# Relative eigenvalue floor (w.r.t. the spectral norm) below which a matrix is
# rejected as not positive definite.
SPD_RTOL = 1e-10
# Eigenvalues in [SQRT_CLAMP, 0) are treated as exact zeros by principal_sqrt;
# anything smaller is an error.
SQRT_CLAMP = -1e-12
SQRT_TOL = 1e-10


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float array."""
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    return a


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Return the symmetric part (a + a') / 2 of a square matrix."""
    a = _as_square(a, name)
    return (a + a.T) / 2.0


def assert_spd(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is symmetric positive definite; return it symmetrized."""
    s = symmetrize(a, name)
    w = np.linalg.eigvalsh(s)
    floor = SPD_RTOL * float(np.max(np.abs(w), initial=0.0))
    if w[0] <= floor:
        raise DomainError(
            f"{name} is not positive definite: smallest eigenvalue {w[0]:.6e}"
        )
    return s


def principal_sqrt(v) -> np.ndarray:
    """Principal symmetric square root of an SPD (or PSD) matrix.

    Computed by symmetric eigendecomposition.  Tiny negative eigenvalues above
    ``SQRT_CLAMP`` are clamped to zero so positive semi-definite inputs are
    accepted; anything below that is rejected.
    """
    s = symmetrize(v)
    w, q = np.linalg.eigh(s)
    if w[0] < SQRT_CLAMP:
        raise DomainError(
            f"matrix is not positive semi-definite: eigenvalue {w[0]:.6e}"
        )
    w = np.clip(w, 0.0, None)
    root = (q * np.sqrt(w)) @ q.T
    root = (root + root.T) / 2.0
    err = float(np.linalg.norm(root @ root - s))
    if err > SQRT_TOL * max(1.0, float(np.linalg.norm(s))):
        raise NumericalError(f"square root residual {err:.3e} exceeds tolerance")
    return root


def spd_inverse(v, name: str = "matrix") -> np.ndarray:
    """Inverse of an SPD matrix via symmetric eigendecomposition."""
    s = assert_spd(v, name)
    w, q = np.linalg.eigh(s)
    inv = (q / w) @ q.T
    return (inv + inv.T) / 2.0


def inv_sqrt(v, name: str = "matrix") -> np.ndarray:
    """Inverse principal square root of an SPD matrix."""
    s = assert_spd(v, name)
    w, q = np.linalg.eigh(s)
    r = (q / np.sqrt(w)) @ q.T
    return (r + r.T) / 2.0


def loewner_leq(a, b, tol: float = 0.0) -> bool:
    """True iff ``a <= b`` in the Loewner order, up to ``-tol`` on the smallest eigenvalue."""
    a = symmetrize(a, "a")
    b = symmetrize(b, "b")
    if a.shape != b.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.eigvalsh(b - a)[0]) >= -tol


def spectral_norm(v) -> float:
    """Spectral norm of a (possibly rectangular) matrix; a vector is one column."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if not np.all(np.isfinite(v)):
        raise DomainError("matrix has non-finite entries")
    return float(np.sqrt(max(np.linalg.eigvalsh(v.T @ v)[-1], 0.0)))
