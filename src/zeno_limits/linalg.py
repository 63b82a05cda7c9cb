"""Dense complex linear-algebra primitives shared by all modules.

Conventions fixed here and used package-wide:

* all operators and superoperators are dense ``complex128`` ndarrays;
* the single norm used for error measurements and bound evaluation is the
  spectral norm (largest singular value);
* density matrices are vectorized by column stacking, so that
  ``vec(A @ rho @ B) == sandwich_super(A, B) @ vec(rho)`` with
  ``sandwich_super(A, B) = kron(B.T, A)``.

Every module takes its norms and Kronecker products from here.  The
matrices are small (D = 4 to 64) and these run thousands of times per
pass, so each is one numpy call: a norm is the ``gesdd`` call
``np.linalg.norm(a, 2)`` makes, without its detour, and a Kronecker
product is one broadcast multiply of the products ``np.kron`` forms.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as _sla

from .errors import DimensionError, FactorizationError, ValidationError

__all__ = [
    "as_complex_matrix",
    "expm",
    "spectral_norm",
    "spectral_norms",
    "schur",
    "kron",
    "vec",
    "unvec",
    "sandwich_super",
]


def _as_complex(a, name: str) -> np.ndarray:
    """``a`` as a complex128 array; non-numeric or ragged input is a :class:`ValidationError`."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric array: {exc}") from exc


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    m = _as_complex(a, name)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both its parts are
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def expm(a, t=1.0) -> np.ndarray:
    """Matrix exponential ``e^{t a}``.

    Scaling-and-squaring with a degree-13 diagonal Pade approximant
    (Al-Mohy/Higham), robust for the highly nonnormal superoperators
    produced by strong-coupling sweeps.  ``t`` is a float (one matrix) or
    a 1-D array (the stack e^{t_i a}, from one call on ``t_i a``); scipy
    runs the same Pade on each slice, so a slice equals the float call bit
    for bit.
    """
    a = _require_square(a, "expm operand")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionError(f"expm times must be a float or 1-dimensional, got shape {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("expm times contain non-finite entries")
    return _sla.expm(ts[..., None, None] * a)


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (the norm used throughout)."""
    a = as_complex_matrix(a, "spectral_norm operand")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def spectral_norms(stack) -> np.ndarray:
    """:func:`spectral_norm` of each matrix in a stack of shape (n, rows, cols).

    ``np.linalg.svd`` runs the same ``gesdd`` on each matrix of the stack,
    so each entry equals the single-matrix call bit for bit.
    """
    stack = _as_complex(stack, "spectral_norms operand")
    if stack.ndim != 3:
        raise DimensionError(f"spectral_norms operand must be 3-dimensional, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValidationError("spectral_norm operand contains non-finite entries")
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur factorization ``a = q @ t @ q.conj().T``.

    Returns ``(q, t)`` with ``q`` unitary and ``t`` upper triangular.
    Raises :class:`FactorizationError` if the backward error exceeds
    ``1e-10 * ||a||`` or ``q`` fails unitarity at 1e-12.  The SVDs behind
    those spectral norms run only when a Frobenius screen fails: ||.||_2 <=
    ||.||_F, and ||a||_F / sqrt(n) <= ||a||_2 stands in for the scale.
    """
    a = _require_square(a, "schur operand")
    try:
        t, q = _sla.schur(a, output="complex")
    except _sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure is rare
        raise FactorizationError(f"Schur iteration failed to converge: {exc}") from exc
    resid = a - q @ t @ q.conj().T
    defect = q @ q.conj().T - np.eye(a.shape[0])
    if np.linalg.norm(resid) * math.sqrt(a.shape[0]) > 1e-10 * np.linalg.norm(a) \
            or np.linalg.norm(defect) > 1e-12:
        diagnostics = {"relative_residual": spectral_norm(resid) / max(spectral_norm(a), 1e-300),
                       "unitarity_defect": spectral_norm(defect)}
        if diagnostics["relative_residual"] > 1e-10 or diagnostics["unitarity_defect"] > 1e-12:
            raise FactorizationError("Schur factorization missed its residual target",
                                     diagnostics=diagnostics)
    return q, t


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two unchecked 2-D arrays, bit for bit ``np.kron``.

    Entry (i rB + k, j cB + l) is a[i, j] * b[k, l], by one broadcast multiply.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def kron(a, b) -> np.ndarray:
    """Kronecker product with shape ``(rA*rB, cA*cB)``."""
    return _kron(as_complex_matrix(a, "kron left"), as_complex_matrix(b, "kron right"))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    v = np.asarray(v, dtype=complex)
    if v.size != d * d:
        raise DimensionError(f"cannot unvec length-{v.size} vector into {d}x{d}")
    return v.reshape((d, d), order="F")


def sandwich_super(a, b) -> np.ndarray:
    """Matrix of the map ``rho -> a @ rho @ b`` on column-stacked vectors."""
    a = as_complex_matrix(a, "sandwich left")
    b = as_complex_matrix(b, "sandwich right")
    return _kron(b.T, a)
