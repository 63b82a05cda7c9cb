"""Jordan-structure analysis of dense complex matrices.

Every square matrix A decomposes as

    A = sum_k (b_k P_k + N_k)

with distinct eigenvalues b_k, spectral projections P_k forming a
resolution of identity (P_k P_l = delta_kl P_k, sum_k P_k = I), and
nilpotents N_k = (A - b_k I) P_k.  This module computes that structure
numerically (with eigenvalue clustering), along with derived objects used
by the strong-coupling machinery: the peripheral projection, reduced
resolvents, spectral gaps, and eigenvector condition numbers.

All clusters come from one checked complex Schur form A = Q T Q^dagger,
reordered so that each cluster is a contiguous diagonal block (LAPACK
``ztrexc``) and block-diagonalized, Y^{-1} T Y = diag(T_kk), by one
Sylvester solve per block (``ztrsyl``; Bavely & Stewart, SIAM J. Numer.
Anal. 16 (1979); Golub & Van Loan, Matrix Computations, sec. 7.6).  With
U = Q Y and V = Y^{-1} Q^dagger, P_k = U_k V_k and N_k = U_k (T_kk - b_k I) V_k,
which is stable for nonnormal matrices and handles defective clusters,
unlike eigenvector outer products.

The decomposition keeps U, V and the blocks T_kk, and every derived
object is read from them with no second factorization: e^{tA} is
U diag(e^{t T_kk}) V, the reduced resolvent S_l is
U diag_{k != l}((T_kk - b_l I)^{-1}) V, and the condition number chi is
that of the stacked orthonormal bases of the column blocks U_k.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _read
from .errors import (
    DimensionError,
    IllConditionedDecompositionError,
    PeripheralDefectError,
    UnsupportedInputError,
)
from .linalg import _lapack, expm, schur, spectral_norm

__all__ = [
    "SpectralCluster",
    "SpectralDecomposition",
    "GapData",
    "decompose",
    "peripheral_projection",
    "reduced_resolvent",
    "gaps",
    "condition_number",
    "spectral_expm",
]

#: residual multiple of cluster_tol above which a decomposition is rejected
RESIDUAL_FACTOR = 100.0


@dataclass(frozen=True)
class SpectralCluster:
    """One distinct (possibly merged) eigenvalue with its spectral data.

    ``index`` is the nilpotent index n_k, the smallest n with N_k^n = 0
    (numerically: norm below 100 * cluster_tol), and ``semisimple`` is
    n_k = 1.  ``peripheral`` means |Re b_k| <= imag_tol.

    ``projection`` P_k = U_k V_k (exactly I for a lone cluster) and
    ``nilpotent`` N_k = U_k (T_kk - b_k I) V_k are formed on first access,
    from views of the decomposition's U, V and T_kk, and then kept.
    """

    eigenvalue: complex
    index: int
    peripheral: bool
    basis: np.ndarray = field(repr=False)  # U_k, the cluster's columns of U
    block: np.ndarray = field(repr=False)  # T_kk
    cobasis: np.ndarray = field(repr=False)  # V_k, the cluster's rows of V

    @property
    def semisimple(self) -> bool:
        return self.index == 1

    @functools.cached_property
    def projection(self) -> np.ndarray:
        dim = len(self.basis)
        return np.eye(dim, dtype=complex) if len(self.block) == dim else self.basis @ self.cobasis

    @functools.cached_property
    def nilpotent(self) -> np.ndarray:
        return self.basis @ (self.block - self.eigenvalue * np.eye(len(self.block))) @ self.cobasis


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered Jordan structure of a square matrix.

    ``matrix`` = ``u @ blocks @ v`` with ``v @ u`` = I: ``blocks`` is the
    block-diagonal upper triangle diag(T_kk), and cluster k owns rows and
    columns ``starts[k]:starts[k + 1]`` of all three.
    """

    dim: int
    clusters: tuple[SpectralCluster, ...]
    cluster_tol: float
    imag_tol: float
    matrix: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    blocks: np.ndarray = field(repr=False)
    starts: tuple[int, ...] = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.blocks @ self.v

    @property
    def peripheral_clusters(self) -> tuple[SpectralCluster, ...]:
        return tuple(c for c in self.clusters if c.peripheral)

    @property
    def nonperipheral_clusters(self) -> tuple[SpectralCluster, ...]:
        return tuple(c for c in self.clusters if not c.peripheral)


@dataclass(frozen=True)
class GapData:
    """Dissipative gap eta, oscillating gap delta and nu = min(eta, delta).

    eta is the least decay rate -Re b over the decaying clusters (Re b < 0);
    a growing cluster (Re b > 0) has no decay rate, so eta = +inf when no
    cluster decays.  delta = +inf when there is a single cluster.  When both
    are infinite, nu falls back to 1.0 (it never enters any bound in that
    regime).
    """

    eta: float
    delta: float

    @property
    def nu(self) -> float:
        return 1.0 if self.eta == self.delta == math.inf else min(self.eta, self.delta)


def _distances(z: np.ndarray) -> np.ndarray:
    """The matrix |z_i - z_j|; hypot rounds as Python's ``abs(complex)`` does."""
    diff = z[:, None] - z[None, :]
    return np.hypot(diff.real, diff.imag)


def _single_linkage(eigs: np.ndarray, distances: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalue indices whose chain distances (:func:`_distances` of ``eigs``) fall within ``tol``."""
    near = (distances <= tol).tolist()
    groups: list[list[int]] = []
    for idx in np.argsort(eigs.real, kind="stable").tolist():
        row = near[idx]  # the groups are scanned only when idx has a neighbour besides itself
        hits = [g for g in groups if any(row[j] for j in g)] if row.count(True) > 1 else []
        if not hits:
            groups.append([idx])
        else:
            merged = hits[0]
            merged.append(idx)
            for other in hits[1:]:
                merged.extend(other)
                groups.remove(other)
    return groups


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> tuple[list[list[int]], list[complex]]:
    """Single-linkage clusters plus a safety merge keeping representatives
    more than ``2 * tol`` apart (so distinct clusters never overlap).  When no two
    eigenvalues lie within ``2 * tol``, that is singletons in stable real-part order."""
    distances = _distances(eigs)
    if np.count_nonzero(distances <= 2 * tol) == len(eigs):  # each one's distance to itself
        order = np.argsort(eigs.real, kind="stable").tolist()
        return [[i] for i in order], [complex(eigs[i]) for i in order]
    groups = _single_linkage(eigs, distances, tol)
    centers = [complex(np.mean(eigs[g])) for g in groups]
    while True:
        close = np.argwhere(np.triu(_distances(np.array(centers)) <= 2 * tol, 1))
        if not close.size:  # else merge the first close pair (i < j) in row-major order
            return groups, centers
        i, j = close[0].tolist()
        groups[i] += groups.pop(j)
        del centers[j]
        centers[i] = complex(np.mean(eigs[groups[i]]))


def decompose(a, cluster_tol: float | None = None,
              imag_tol: float | None = None) -> SpectralDecomposition:
    """Compute the clustered spectral decomposition of a square matrix.

    Eigenvalues within ``cluster_tol`` of each other (single linkage) are
    merged into one cluster; defaults are ``1e-7 * ||a||`` for both
    tolerances (the norm's SVD runs only for a default), and a given
    tolerance that is not a nonnegative finite number (a bool, a string,
    NaN, inf, a negative value) raises :class:`ValidationError`.
    Raises :class:`IllConditionedDecompositionError` when the
    completeness, reconstruction or orthogonality residual exceeds
    ``100 * cluster_tol`` and :class:`PeripheralDefectError` when a
    peripheral cluster is numerically defective (such clusters must be
    semisimple for any bounded semigroup generator).

    The residuals are read from U, V and T_kk: completeness is U V - I and
    reconstruction is U diag(T_kk) V - A, and their SVDs run only when a
    Frobenius norm (never smaller) exceeds the tolerance.  No D x D cluster
    matrix is kept: N_k of a cluster of several eigenvalues is formed for
    its index only, and P_k, N_k form on first access.
    ``ztrexc`` swaps diagonal entries exactly, so a singleton's N_k is exactly
    0 and a reordered diagonal that is not the permuted Schur diagonal raises.
    A spectrum with no two eigenvalues within 2 cluster_tol skips the linkage
    scan.
    """
    a = _read.matrix("decompose operand", a, shape="square")
    if a.size == 0:
        raise DimensionError("decompose operand must be a nonempty square matrix, got shape (0, 0)")
    dim = a.shape[0]
    default_tol = 1e-7 * spectral_norm(a) if cluster_tol is None or imag_tol is None else None
    cluster_tol = default_tol if cluster_tol is None else _read.real("cluster_tol", cluster_tol, "nonnegative")
    imag_tol = default_tol if imag_tol is None else _read.real("imag_tol", imag_tol, "nonnegative")
    # exact-zero tolerances only make sense for the zero matrix; keep a floor
    cluster_tol = max(cluster_tol, 1e-300)

    q, t = schur(a)
    eigs = np.diag(t).copy()
    groups, centers = _cluster_eigenvalues(eigs, cluster_tol)
    labels = [0] * dim
    for li, g in enumerate(groups):
        for i in g:
            labels[i] = li
    t, q, order = np.asfortranarray(t), np.asfortranarray(q), list(range(dim))
    for p in range(dim):  # insertion sort of the diagonal by cluster label
        j = labels.index(min(labels[p:]), p)
        if j > p:  # ztrexc only reports illegal arguments
            t, q, _ = _lapack.ztrexc(t, q, j + 1, p + 1, overwrite_a=1, overwrite_q=1)
            labels.insert(p, labels.pop(j))
            order.insert(p, order.pop(j))
    misplaced = np.flatnonzero(np.diag(t) != eigs[order])
    if misplaced.size:
        p = int(misplaced[0])
        raise IllConditionedDecompositionError(
            "eigenvalue reordering disagreed with the clustering",
            diagnostics={"position": p, "expected": complex(eigs[order[p]]), "found": complex(t[p, p])})
    starts = np.cumsum([0] + [len(g) for g in groups])

    # Y^{-1} T Y is block diagonal: block k splits from the trailing blocks
    # by T_kk R - R T_tail = -T_k,tail, and Y's rows for block k are R Y_tail
    y = np.eye(dim, dtype=complex)
    for li in reversed(range(len(groups) - 1)):
        lo, hi = starts[li], starts[li + 1]
        r, scale, info = _lapack.ztrsyl(t[lo:hi, lo:hi], t[hi:, hi:], -t[lo:hi, hi:], isgn=-1)
        if info:
            raise IllConditionedDecompositionError(
                "cluster too close to the rest of the spectrum to split off",
                diagnostics={"cluster_center": centers[li], "lapack_info": info})
        y[lo:hi, hi:] = (r / scale) @ y[hi:, hi:]
    if not np.isfinite(y).all():
        raise IllConditionedDecompositionError(
            "cluster too close to the rest of the spectrum to split off",
            diagnostics={"nonfinite_entries": int(np.sum(~np.isfinite(y)))})
    u = q @ y
    v = _solve_upper(y, q.conj().T, unit_diagonal=True)

    nil_tol = RESIDUAL_FACTOR * cluster_tol
    clusters = []
    for b, lo, hi in zip(centers, starts, starts[1:]):
        cluster = SpectralCluster(eigenvalue=b, index=1, peripheral=abs(b.real) <= imag_tol,
                                  basis=u[:, lo:hi], block=t[lo:hi, lo:hi], cobasis=v[lo:hi, :])
        if hi - lo > 1:  # a singleton's N_k is exactly 0
            n = cluster.nilpotent
            index, power = 1, n
            while spectral_norm(power) > nil_tol:
                if index > hi - lo:
                    raise IllConditionedDecompositionError(
                        "nilpotent power fails to vanish at the cluster size",
                        diagnostics={"eigenvalue": b, "residual": spectral_norm(power)},
                    )
                power = power @ n
                index += 1
            if cluster.peripheral and index > 1:
                norm = spectral_norm(n)
                raise PeripheralDefectError(
                    f"peripheral eigenvalue {b} is numerically defective (||N|| = {norm:.3e} > {nil_tol:.3e})",
                    diagnostics={"eigenvalue": b, "nilpotent_norm": norm, "tolerance": nil_tol})
            cluster = dataclasses.replace(cluster, index=index)
        clusters.append(cluster)

    in_block = np.equal.outer(labels, labels)
    dec = SpectralDecomposition(dim=dim, clusters=tuple(clusters),
                                cluster_tol=cluster_tol, imag_tol=imag_tol,
                                matrix=a.copy(), u=u, v=v, blocks=np.where(in_block, t, 0.0),
                                starts=tuple(int(s) for s in starts))
    # sum_k P_k = U V and sum_k (b_k P_k + N_k) = U diag(T_kk) V
    residuals = {"completeness": u @ v - np.eye(dim), "reconstruction": dec.reconstruct() - a}
    # a single cluster's projection is exactly I, so I I - I = 0
    orthogonality = _orthogonality_bound(u, v, starts) if len(groups) > 1 else 0.0
    # ||.||_2 <= ||.||_F: the SVDs run only when a Frobenius norm exceeds nil_tol
    if orthogonality > nil_tol or any(np.linalg.norm(r) > nil_tol for r in residuals.values()):
        resid = {name: spectral_norm(r) for name, r in residuals.items()}
        resid["orthogonality"] = orthogonality
        if max(resid.values()) > nil_tol:
            raise IllConditionedDecompositionError(
                "spectral decomposition residuals exceed 100 * cluster_tol",
                diagnostics=resid,
            )
    return dec


def _solve_upper(r: np.ndarray, rhs: np.ndarray, unit_diagonal: bool = False) -> np.ndarray:
    """R^{-1} rhs for a C-ordered upper triangular R with a nonzero diagonal.

    The ``ztrtrs`` call ``scipy.linalg.solve_triangular`` makes (on R^T,
    which is Fortran-ordered, as a transposed lower system), so the same
    floats, without the wrapper's checks of its finite input.
    """
    x, info = _lapack.ztrtrs(r.T, rhs, lower=1, trans=1, unitdiag=int(unit_diagonal))
    if info:
        raise IllConditionedDecompositionError("triangular solve hit a zero pivot",
                                               diagnostics={"lapack_info": info})
    return x


def _orthogonality_bound(u: np.ndarray, v: np.ndarray, starts: np.ndarray) -> float:
    """Upper bound on max_ij ||P_i P_j - delta_ij P_i|| for P_k = U_k V_k.

    The product is U_i (G_ij - delta_ij I) V_j with G = V U; the term
    D eps ||P_i|| ||P_j|| covers the rounding in forming it.  Frobenius
    norms stand in for spectral norms (never smaller).
    """
    cuts, dim = starts[:-1], len(u)
    g_sq = np.add.reduceat(np.add.reduceat(np.abs(v @ u - np.eye(dim)) ** 2, cuts, 0), cuts, 1)
    u_norm, v_norm = _cluster_norms(u, v, starts)
    p_norm = u_norm * v_norm
    return float(np.max(np.outer(u_norm, v_norm) * np.sqrt(g_sq)
                        + dim * np.finfo(float).eps * np.outer(p_norm, p_norm)))


def _cluster_norms(u: np.ndarray, v: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """The Frobenius norms ||U_k||_F of each cluster's columns of ``u`` and ||V_k||_F of its rows of ``v``."""
    cuts = np.asarray(starts[:-1])
    return (np.sqrt(np.add.reduceat(np.sum(np.abs(u) ** 2, axis=0), cuts)),
            np.sqrt(np.add.reduceat(np.sum(np.abs(v) ** 2, axis=1), cuts)))


def peripheral_projection(dec: SpectralDecomposition) -> np.ndarray:
    """Sum of the projections onto purely imaginary eigenvalues."""
    dec = _read.instance("decomposition", dec, SpectralDecomposition)
    p = np.zeros((dec.dim, dec.dim), dtype=complex)
    for c in dec.peripheral_clusters:
        p += c.projection
    return p


def reduced_resolvent(dec: SpectralDecomposition, ell: int) -> np.ndarray:
    """Reduced resolvent S_l = sum_{k != l} [(b_k - b_l) I + N_k]^{-1} P_k.

    Each term is U_k (T_kk - b_l I)^{-1} V_k, so S_l is U X V with X the
    block-diagonal inverse, which one triangular solve gives: block l is
    replaced by I on the left and zeroed on the right.  For a semisimple
    cluster l, (A - b_l I) S_l = I - P_l.  A single-cluster decomposition
    returns the zero matrix.
    """
    dec = _read.instance("decomposition", dec, SpectralDecomposition)
    ell = _read.integer("cluster index ell", ell, 0, len(dec.clusters) - 1)
    lo, hi = dec.starts[ell], dec.starts[ell + 1]
    shifted = dec.blocks - dec.clusters[ell].eigenvalue * np.eye(dec.dim)
    shifted[lo:hi, lo:hi] = np.eye(hi - lo)
    rhs = np.eye(dec.dim, dtype=complex)
    rhs[lo:hi, lo:hi] = 0.0
    return dec.u @ _solve_upper(shifted, rhs) @ dec.v


def gaps(dec: SpectralDecomposition) -> GapData:
    """Dissipative and oscillating gaps with the infinity conventions."""
    dec = _read.instance("decomposition", dec, SpectralDecomposition)
    eta = min((-c.eigenvalue.real for c in dec.nonperipheral_clusters if c.eigenvalue.real < 0), default=math.inf)
    pairs = _distances(np.array([c.eigenvalue for c in dec.clusters]))[np.triu_indices(len(dec.clusters), 1)]
    delta = float(pairs.min()) if pairs.size else math.inf
    return GapData(eta=eta, delta=delta)


def condition_number(dec: SpectralDecomposition, nu: float = 1.0) -> float:
    """Eigenvector condition number chi = ||T|| ||T^{-1}||.

    T stacks orthonormal bases of the cluster ranges, here the thin QR
    factors of the column blocks U_k, which keeps chi finite and
    meaningful for degenerate eigenvalues.  The blocks of one size share
    one stacked QR call, which factors each block as a call on it alone
    would.  Any other orthonormal bases
    differ by a block-unitary factor, which leaves chi unchanged.
    Restricted to diagonalizable input; the nu scaling of Jordan
    off-diagonals is vacuous in that case.  The returned value is an
    upper-bound choice of basis, not a minimum over scalings.
    """
    dec = _read.instance("decomposition", dec, SpectralDecomposition)
    defective = [c.eigenvalue for c in dec.clusters if not c.semisimple]
    if defective:
        raise UnsupportedInputError(
            f"condition_number requires a diagonalizable matrix; "
            f"defective eigenvalues: {defective}"
        )
    if len(dec.clusters) == 1:
        return 1.0  # the whole space, with the identity as its basis
    starts, sizes = np.array(dec.starts[:-1]), np.diff(dec.starts)
    t = np.empty_like(dec.u)
    for size in np.unique(sizes):
        cols = starts[sizes == size, None] + np.arange(size)  # (blocks, size) column indices
        t[:, cols] = np.linalg.qr(dec.u[:, cols].transpose(1, 0, 2))[0].transpose(1, 0, 2)
    sigma = np.linalg.svd(t, compute_uv=False)
    if sigma[-1] == 0.0:
        raise IllConditionedDecompositionError(
            "cluster bases are linearly dependent",
            diagnostics={"largest_singular_value": float(sigma[0])},
        )
    return float(sigma[0] / sigma[-1])


def spectral_expm(dec: SpectralDecomposition, t, u=None, v=None):
    """Evaluate e^{tA} through the spectral representation.

    e^{tA} = U diag(e^{t T_kk}) V with e^{t T_kk} = e^{t b_k} e^{t (T_kk - b_k I)},
    the block form of sum_k e^{t b_k} [sum_{n < n_k} (t N_k)^n / n!] P_k,
    exact also where a cluster merges distinct eigenvalues.  The second
    factor is one stacked Pade call on the small triangle, taken as I when
    ||N_k||_F = ||U_k (T_kk - b_k I) V_k||_F <= sqrt(D) eps ||A||_F: then
    the result is e^{t(A - N_k)}, a move of A within the Schur form's own
    rounding (||N_k|| <= D eps ||A||).  ``t`` is a float (one matrix) or
    a 1-D array (a stack, one matrix per t), read and checked as
    :func:`linalg.expm` reads it; a float is the stack at one point.
    Stable for any t when the spectrum lies in the closed left
    half-plane: a block whose e^{t Re b_k} underflows is zero, whatever
    its other factor.  ``u`` and ``v`` stand in for U and V: with W U and
    V W^dagger for a unitary W, the result is W e^{tA} W^dagger, e^{tA} in
    the operator basis W; a ``u`` or ``v`` of another shape than U raises
    :class:`DimensionError` (only the shapes are compared), as does a ragged one.
    """
    dec = _read.instance("decomposition", dec, SpectralDecomposition)
    u, v = dec.u if u is None else u, dec.v if v is None else v
    try:
        shapes = (np.shape(u), np.shape(v))
    except ValueError:  # a ragged sequence has no shape
        shapes = "a ragged sequence"
    if shapes != (dec.u.shape,) * 2:
        raise DimensionError(f"spectral_expm u and v must have shape {dec.u.shape}, got {shapes}")
    ts = np.atleast_1d(_read.times("spectral_expm t", t))
    rates = np.multiply.outer(ts, [c.eigenvalue for c in dec.clusters])
    live = rates.real >= -745.0
    phases = np.where(live, np.exp(rates), 0.0)
    out = u * np.repeat(phases, np.diff(dec.starts), axis=1)[:, None, :]
    rounding = math.sqrt(dec.dim) * np.finfo(float).eps * np.linalg.norm(dec.matrix)
    for k, (c, lo, hi) in enumerate(zip(dec.clusters, dec.starts, dec.starts[1:])):
        # a singleton's N_k is exactly 0; e^{t offset} may overflow where the block is zero
        if hi - lo > 1 and np.linalg.norm(c.nilpotent) > rounding:
            offset = dec.blocks[lo:hi, lo:hi] - c.eigenvalue * np.eye(hi - lo)
            out[:, :, lo:hi] = out[:, :, lo:hi] @ expm(offset, np.where(live[:, k], ts, 0.0))
    out = out @ v
    return out if np.ndim(t) else out[0]
