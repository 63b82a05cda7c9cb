"""Dense complex linear-algebra primitives shared by all modules.

Conventions fixed here and used package-wide:

* all operators and superoperators are dense ``complex128`` ndarrays; the
  two exceptions are the error grid and the M sample of
  ``zeno.BoundInputs.from_split``, which work in the real frame of a GKLS
  pair (``zeno.Frame``), where their matrices are float64;
* the single norm used for error measurements and bound evaluation is the
  spectral norm (largest singular value);
* density matrices are vectorized by column stacking, so that
  ``vec(A @ rho @ B) == sandwich_super(A, B) @ vec(rho)`` with
  ``sandwich_super(A, B)`` the Kronecker product B^T (x) A.

Every module takes its exponentials, norms and Kronecker products from
here.  The matrices are small (D = 4 to 64) and these run thousands of
times per pass, so each is one numpy call or a short run of them: a norm
is the ``gesdd`` call ``np.linalg.norm(a, 2)`` makes, without its detour,
and a Kronecker product is one broadcast multiply of the products
``np.kron`` forms.  Every exponential comes from one batched degree-13
Pade kernel, ``_expm_stack``, which keeps the dtype of its stack, in
place of ``scipy.linalg.expm``: scipy's real path loses digits where
its complex path does not (1e-11 against 7e-14 on a real frame matrix of
the three-level model), so a float64 frame could not use it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack as _lapack

from . import _read
from .errors import FactorizationError, ValidationError

__all__ = [
    "expm",
    "spectral_norm",
    "spectral_norms",
    "schur",
    "vec",
    "sandwich_super",
]


#: coefficients b_0 ... b_13 of the degree-13 diagonal Pade approximant to e^x, over b_0
#: (so V = I + ... and the zero matrix gives exactly I)
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
#: the largest alpha_3 = max(||A^6||^(1/6), ||A^8||^(1/8)) for which degree 13 needs no scaling
_THETA13 = 5.371920351148152
#: 1 / |c_27|, the leading coefficient of the degree-13 approximant's backward error series
_ELL_C13 = 113250775606021113483283660800000000.0
#: a 1-norm at most this gives ell = 0 with a factor 2 to spare: ||A||_1^26 <= c u / 2
_ELL_FREE = (0.5 * _ELL_C13 * 2.0 ** -53) ** (1 / 26)


#: the largest ||t a||_1 that :func:`expm` takes: the kernel forms A^8 unscaled, whose
#: entries are at most ||A||_1^8, so no power overflows
_EXPM_RANGE = float(np.finfo(float).max) ** 0.125


def _onenorms(stack: np.ndarray) -> np.ndarray:
    """The 1-norm (largest absolute column sum) of each matrix in a stack (0 for a 0 x 0 matrix)."""
    return np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)


def _ceil_log2(x: np.ndarray) -> np.ndarray:
    """ceil(log2 x) for x > 0 as exact integers, and a value <= 0 at x = 0 (no log of zero)."""
    mantissa, exponent = np.frexp(x)  # x = mantissa 2^exponent, mantissa in [0.5, 1)
    return exponent - (mantissa == 0.5)


def _squarings(a: np.ndarray, a4: np.ndarray, a6: np.ndarray) -> np.ndarray:
    """The squarings s of each slice of a stack A, given its powers A^4 and A^6.

    The least s with 2^-s alpha_3 <= theta_13, from the exact 1-norms of
    A^6 and A^8, plus the correction ell that keeps the scaled matrix's
    backward error at unit roundoff: ell = max(0, ceil(log2(||abs(2^-s
    A)^27||_1 / (||2^-s A||_1 c u)) / 26)) (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009), Alg. 5.1).  The power is formed only
    where the ratio's bound ||2^-s A||_1^26 / (c u) does not already give
    ell = 0.
    """
    alpha = np.maximum(_onenorms(a6) ** (1 / 6), _onenorms(a4 @ a4) ** (1 / 8))
    s = np.maximum(_ceil_log2(alpha / _THETA13), 0)
    absolute = np.abs(a * (0.5 ** s)[:, None, None])
    norms = _onenorms(absolute)
    ell, live = np.zeros(len(a), dtype=int), norms > _ELL_FREE
    if live.any():
        # ones^T |2^-s A|^27, whose largest entry is the 1-norm of the power, as
        # ((ones^T |A|) |A|^2) |A|^8 |A|^16: 7 products and a column sum, not 27 products
        absolute = absolute[live]
        square = absolute @ absolute
        fourth = square @ square
        eighth = fourth @ fourth
        colsums = absolute.sum(axis=1, keepdims=True) @ square @ eighth @ (eighth @ eighth)
        ratio = colsums.max(axis=(1, 2)) / (norms[live] * _ELL_C13 * 2.0 ** -53)
        ell[live] = np.ceil(np.log2(np.maximum(ratio, 1.0)) / 26)
    return s + ell


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """e^A for each matrix of a stack (n, D, D), in the stack's own dtype (float or complex).

    Degree-13 Pade with scaling and squaring (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009)); each slice gets its own number of
    squarings (:func:`_squarings`).  Every step is a stacked numpy call that
    treats each slice alone, so a slice equals the one-matrix call bit for
    bit.
    """
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    s = _squarings(a, a4, a6)
    scale = (0.5 ** s)[:, None, None]
    a, a2, a4, a6 = a * scale, a2 * scale ** 2, a4 * scale ** 4, a6 * scale ** 6
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    x = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):  # slice i is squared until it has had s_i
        live = s > k
        y = x[live]  # gathered once: the gather costs as much as a D = 9 product
        x[live] = y @ y
    return x


def expm(a, t=1.0) -> np.ndarray:
    """Matrix exponential ``e^{t a}`` as complex128, by the package's Pade kernel.

    ``t`` is a float (one matrix) or a 1-D array (the stack e^{t_i a}, from
    one kernel call on the stack t_i a); each slice equals the float call
    bit for bit.  A non-numeric, 2-D or non-finite ``t`` raises a typed error.
    """
    a = _read.matrix("expm operand", a, shape="square")
    ts = _read.times("expm t", t)
    if ts.size and float(np.abs(ts).max()) * float(_onenorms(a)) > _EXPM_RANGE:
        raise ValidationError(f"expm operand t a is out of the kernel's range: ||t a||_1 > {_EXPM_RANGE:.3g}")
    out = _expm_stack(ts.reshape(-1)[:, None, None] * a)
    return out if ts.ndim else out[0]


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (the norm used throughout)."""
    a = _read.matrix("spectral_norm operand", a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def spectral_norms(stack) -> np.ndarray:
    """The largest singular value of each matrix in a stack of shape (n, rows, cols).

    ``np.linalg.svd`` runs the same ``gesdd`` on each matrix of the stack,
    so each entry equals ``np.linalg.norm(a, 2)`` of its slice bit for bit.
    A float64 stack keeps the real SVD (half the work), and any other
    numeric stack is taken as complex.  So a complex entry equals
    :func:`spectral_norm` of its slice bit for bit, and a float64 entry
    only up to rounding: :func:`spectral_norm` takes a real matrix as
    complex.
    """
    real = isinstance(stack, np.ndarray) and stack.dtype == float
    stack = _read.matrix("spectral_norms operand", stack, ndim=3, dtype=float if real else complex)
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur factorization ``a = q @ t @ q.conj().T``.

    Returns ``(q, t)`` with ``q`` unitary and ``t`` upper triangular, from
    the unsorted ``zgees`` call of ``scipy.linalg.schur`` (bit for bit).
    Raises :class:`FactorizationError` if ``zgees`` fails (with its
    ``info``), the backward error exceeds ``1e-10 * ||a||`` or ``q`` fails
    unitarity at 1e-12.  The SVDs behind those spectral norms run only
    when a Frobenius screen fails: ||.||_2 <= ||.||_F, and ||a||_F /
    sqrt(n) <= ||a||_2 stands in for the scale.
    """
    a = _read.matrix("schur operand", a, shape="square")
    lwork = int(_lapack.zgees(lambda _: None, a, lwork=-1)[-2][0].real)  # the workspace query
    t, _, _, q, _, info = _lapack.zgees(lambda _: None, a, lwork=lwork)  # the callback sorts nothing
    if info:
        raise FactorizationError("Schur iteration failed to converge", diagnostics={"lapack_info": info})
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


def vec(a) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return _read.matrix("vec operand", a).reshape(-1, order="F")


def sandwich_super(a, b) -> np.ndarray:
    """Matrix of the map ``rho -> a @ rho @ b`` on column-stacked vectors."""
    a = _read.matrix("sandwich left", a)
    b = _read.matrix("sandwich right", b)
    return _kron(b.T, a)
