"""Dense symmetric / positive-definite matrix utilities.

Everything here works on plain ``numpy`` arrays: validation
(:func:`symmetrize`, :func:`assert_spd`), principal roots and inverses, the
Loewner order, the spectral norm and the Euclidean norm.  All
decompositions go through the symmetric eigensolver so results stay
exactly symmetric.

One array validator.  :func:`_array` reads the package's public array
arguments, this module's matrices included: it converts to float,
checks the shape and that the entries are finite (and, where asked,
nonnegative or strictly positive), and raises a :class:`DomainError` that
names the argument.  A decoded instance's arrays pass through it too, after
:func:`_payload_array`'s JSON-specific rejections.

Validated factorization.  :func:`spd_eigh` symmetrizes, takes one ``eigh``
and holds its eigenvalues to :func:`assert_spd`'s ``SPD_RTOL`` floor, with
the same message; it returns ``(s, w, q)``.  :func:`eigh_inverse` and
:func:`eigh_sqrt` turn a factorization into the inverse and the principal
root; they are the one copy of each formula, which :func:`spd_inverse` and
:func:`principal_sqrt` call too.  Other spectral functions are
``eigh_inverse`` of a function of ``w`` (the inverse root is
``eigh_inverse(sqrt(w), q)``), so a validated matrix costs one ``eigh`` for
all of them.  :func:`spd_inverse` still validates with
:func:`assert_spd` (an ``eigvalsh``) before its ``eigh``: the benchmark's
self-test pins that count.

Stacks.  :func:`symmetrize`, :func:`assert_spd`, :func:`spd_eigh`,
:func:`eigh_inverse`, :func:`eigh_sqrt`, :func:`principal_sqrt`,
:func:`spectral_norm` and :func:`vector_norm` also take an ``(..., d, d)``
(or ``(..., k)``) stack and make one ``eigvalsh``/``eigh`` call for all of
it; an error names the first failing index.  The ``name`` of a stack with one
leading axis may instead be one label per matrix (a list), and an error then
names the first failing matrix by its own label, such as the step it belongs
to.  A 2-D input keeps its single call and its messages.
:func:`spd_inverse` and :func:`loewner_leq` take single matrices only.

Bit-identity.  A stacked result equals a loop of 2-D calls bit for bit,
because every operation used on a stack rounds each matrix exactly as it
rounds one matrix: stacked ``eigvalsh``, ``eigh``, ``solve`` (a broadcast
left side included), ``slogdet`` and ``@`` (``A @ A.T``, and the dot
``(N, 1, k) @ (N, k, 1)``), ``np.trace`` and ``np.sum`` over the trailing
axes, and elementwise arithmetic.  Products keep the left-to-right order of
the 2-D code.  ``np.einsum`` dots round differently from ``@`` for d >= 2,
so no path that feeds a report uses them.

Chunk budget.  Code that stacks a sequence (the Gaussian diagnostics over
a trajectory, the contraction toolkit over state pairs) keeps each
temporary within :data:`CHUNK_ELEMENTS` floats, so memory stays bounded at
any length.
"""

from __future__ import annotations

import itertools
import math
import numbers
import reprlib

import numpy as np

from .errors import DomainError, NumericalError

# Relative eigenvalue floor (w.r.t. the spectral norm) below which a matrix is
# rejected as not positive definite.
SPD_RTOL = 1e-10
# Eigenvalues in [SQRT_CLAMP, 0) are treated as exact zeros by principal_sqrt;
# anything smaller is an error.
SQRT_CLAMP = -1e-12
SQRT_TOL = 1e-10
# Float64 entries per chunked temporary: 8192 * 8 bytes = 64 KB.
CHUNK_ELEMENTS = 8192


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float array."""
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``minimum`` names ``name``."""
    # A plain int skips the ABC check (bool is a subclass, so it takes the slow path).
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _row(index, rows: int, name: str) -> int:
    """``index`` as a row below ``rows``; a non-integer, negative or later one names ``name``."""
    index = _integer(index, name, 0)
    if index >= rows:
        raise DomainError(f"{name} {index} is past the run's last row {rows - 1}")
    return index


def _real(value, name: str) -> float:
    """``value`` as a float; a bool or a non-number names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _payload(payload, what: str, keys: tuple[str, ...]) -> dict:
    """A decoded instance payload, checked to be an object that holds every key of ``keys``."""
    if not isinstance(payload, dict):
        raise DomainError(f"{what} instance must be an object, got {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise DomainError(f"{what} instance is missing key {key!r}")
    return payload


def _array(value, name, shape: tuple[int | None, ...] | None = None,
           floor: str | None = "finite") -> np.ndarray:
    """``value`` as a float array, validated; each error is a :class:`DomainError` naming ``name``.

    A value numpy cannot read as floats (a string, ragged nesting, an
    integer past the float range) is rejected.  ``shape`` is the exact
    shape, ``None`` standing for an axis of any length.  ``floor`` is what
    every entry must be: ``"finite"``, or finite and ``"nonnegative"`` or
    ``"strictly positive"``; ``None`` checks no entry.  The passing path is one ``min`` and one ``max``, and only a
    failure looks for the bad entry: the error names the first failing
    matrix of a stack (``name[i]``), as the SPD validations do.
    """
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an array of numbers, "
                          f"got {reprlib.repr(value)}") from None
    if shape is not None and (a.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, a.shape))):
        raise DomainError(f"{name} must have shape {str(shape).replace('None', '*')}, "
                          f"got {a.shape}")
    # min and max propagate a NaN, and a NaN compares False.
    if floor is None or not a.size or (a.max() < np.inf and _above(a.min(), floor)):
        return a
    bad = ~(_above(a, floor) & (a < np.inf)).reshape(a.shape[:-2] + (-1,)).all(axis=-1)
    what = "finite" if floor == "finite" else f"finite and {floor}"
    raise DomainError(f"{_first(bad, name)[1]} must be {what}")


def _above(x, floor: str):
    """Whether ``x`` (elementwise) is above ``floor``; "finite" asks for above -inf."""
    return (x > 0.0 if floor == "strictly positive" else
            x >= 0.0 if floor == "nonnegative" else x > -np.inf)


def _payload_array(payload: dict, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``payload[key]``, a (nested) list of finite numbers, as a float array of
    ``shape`` (a vector of any length when ``shape`` is None).

    A scalar, ragged lists, an entry that is a bool (at any depth, also
    among numbers, which numpy would read as 0 or 1), a string, null, no
    number or an integer past the float range, or a wrong entry count
    raises a :class:`DomainError` that names ``key``; :func:`_array` rejects
    a NaN or an infinity.
    """
    value = payload[key]
    try:
        a = np.asarray(value)  # ragged nesting raises ValueError
        if (a.ndim == 0 or a.dtype.kind in "SU" or (a.dtype.kind == "O" and None in a.flat)
                or _holds_bool(value)):
            raise ValueError
        a = a.astype(float)  # an entry that is no number or too large raises
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{key} must be a list of finite numbers, "
                          f"got {reprlib.repr(value)}") from None
    shape = (a.size,) if shape is None else shape
    if a.size != math.prod(shape):
        raise DomainError(f"{key} has {a.size} entries, expected {math.prod(shape)} "
                          f"for shape {shape}")
    return _array(a.reshape(shape), key)


def _holds_bool(value) -> bool:
    """Whether an entry of ``value``, nested lists that numpy reads as one array, is a bool."""
    entries = np.asarray(value, dtype=object).flat
    return any(map(isinstance, entries, itertools.repeat((bool, np.bool_))))


def _first(bad: np.ndarray, name) -> tuple[tuple[int, ...], str]:
    """Index of the first True entry of ``bad`` and ``name`` labelled with it.

    A 0-d ``bad`` (one matrix) gives the empty index and ``name`` itself.  A
    ``name`` that is a sequence of labels, one per matrix of a stack with one
    leading axis, gives the label of that matrix.
    """
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    if not index:
        return index, name
    if not isinstance(name, str):
        return index, name[index[0]]
    return index, f"{name}[{', '.join(map(str, index))}]"


def _dots(v: np.ndarray) -> np.ndarray:
    """``v @ v`` along the last axis, as one BLAS dot per vector."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix, as the one dot ``np.linalg.norm`` takes of it."""
    return np.sqrt(_dots(m.reshape(m.shape[:-2] + (-1,))))


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = _array(a, name)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    return a


def _one_matrix(a, name: str) -> np.ndarray:
    """``a`` as a float array, rejected unless it is a single 2-D matrix."""
    a = _array(a, name, floor=None)
    if a.ndim != 2:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    return a


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Return the symmetric part (a + a') / 2 of a square matrix or stack."""
    a = _as_square(a, name)
    return (a + a.swapaxes(-1, -2)) / 2.0


def _spd_floor(w: np.ndarray, name: str) -> None:
    """Reject unless each eigenvalue row ``w`` (ascending) clears the ``SPD_RTOL`` floor."""
    bad = w[..., 0] <= SPD_RTOL * np.abs(w).max(axis=-1, initial=0.0)
    if bad.any():
        index, label = _first(bad, name)
        raise DomainError(
            f"{label} is not positive definite: smallest eigenvalue {w[index][0]:.6e}"
        )


def assert_spd(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` (or each matrix of a stack) is SPD; return it symmetrized."""
    s = symmetrize(a, name)
    _spd_floor(np.linalg.eigvalsh(s), name)
    return s


def spd_eigh(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated factorization ``(s, w, q)`` of an SPD matrix or stack.

    ``s`` is ``a`` symmetrized (what :func:`assert_spd` returns) and ``w, q =
    eigh(s)``.  The eigenvalues ``w`` are held to :func:`assert_spd`'s floor,
    with its message, so validation costs no second factorization.
    """
    s = symmetrize(a, name)
    w, q = np.linalg.eigh(s)
    _spd_floor(w, name)
    return s, w, q


def eigh_inverse(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The inverse ``q diag(1/w) q'``, symmetrized, of each factorized matrix."""
    inv = (q / w[..., None, :]) @ q.swapaxes(-1, -2)
    return (inv + inv.swapaxes(-1, -2)) / 2.0


def eigh_sqrt(s: np.ndarray, w: np.ndarray, q: np.ndarray, name="matrix") -> np.ndarray:
    """The principal root ``q diag(w^{1/2}) q'`` of each factorized PSD matrix ``s``.

    Negative eigenvalues are clamped to zero and the root is symmetrized;
    a root whose square misses ``s`` by more than ``SQRT_TOL`` (relative)
    raises a :class:`NumericalError`, which names a failing matrix of a stack
    as the validations do.
    """
    w = np.clip(w, 0.0, None)
    root = (q * np.sqrt(w)[..., None, :]) @ q.swapaxes(-1, -2)
    root = (root + root.swapaxes(-1, -2)) / 2.0
    err = _frobenius(root @ root - s)
    bad = err > SQRT_TOL * np.maximum(1.0, _frobenius(s))
    if bad.any():
        index, label = _first(bad, name)
        where = f" for {label}" if index else ""
        raise NumericalError(
            f"square root residual {err[index]:.3e} exceeds tolerance{where}"
        )
    return root


def principal_sqrt(v) -> np.ndarray:
    """Principal symmetric square root of an SPD (or PSD) matrix or stack.

    Computed by symmetric eigendecomposition.  Tiny negative eigenvalues above
    ``SQRT_CLAMP`` are clamped to zero so positive semi-definite inputs are
    accepted; anything below that is rejected.
    """
    s = symmetrize(v)
    w, q = np.linalg.eigh(s)
    bad = w[..., 0] < SQRT_CLAMP
    if bad.any():
        index, label = _first(bad, "matrix")
        raise DomainError(
            f"{label} is not positive semi-definite: eigenvalue {w[index][0]:.6e}"
        )
    return eigh_sqrt(s, w, q)


def spd_inverse(v, name: str = "matrix") -> np.ndarray:
    """Inverse of an SPD matrix via symmetric eigendecomposition."""
    s = assert_spd(_one_matrix(v, name), name)
    return eigh_inverse(*np.linalg.eigh(s))


def loewner_leq(a, b, tol: float = 0.0) -> bool:
    """True iff ``a <= b`` in the Loewner order, up to ``-tol`` on the smallest eigenvalue."""
    a = symmetrize(_one_matrix(a, "a"), "a")
    b = symmetrize(_one_matrix(b, "b"), "b")
    if a.shape != b.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.eigvalsh(b - a)[0]) >= -tol


def vector_norm(v):
    """Euclidean norm of a vector, or of each vector along the last axis of a stack.

    Rounds as ``np.linalg.norm`` does on one vector: one BLAS dot each.
    """
    norms = np.sqrt(_dots(np.asarray(v, dtype=float)))
    return float(norms) if norms.ndim == 0 else norms


def spectral_norm(v):
    """Spectral norm of a (possibly rectangular) matrix; a vector is one column.

    A 2-D input gives a float; an ``(..., m, n)`` stack gives an array of the
    norm of each matrix.
    """
    v = _array(v, "matrix")
    if v.ndim == 1:
        v = v[:, None]
    norms = np.sqrt(np.maximum(np.linalg.eigvalsh(v.swapaxes(-1, -2) @ v)[..., -1], 0.0))
    return float(norms) if norms.ndim == 0 else norms
