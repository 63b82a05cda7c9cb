"""GKLS (Lindblad) generators as superoperator matrices, and their checks.

A system (H, {L_i}) on a d-dimensional Hilbert space compiles, under
column-stacking vectorization, to the d^2 x d^2 generator

    L = -i (I (x) H - H^T (x) I)
        + sum_i [ conj(L_i) (x) L_i
                  - 1/2 I (x) (L_i^dag L_i) - 1/2 (L_i^dag L_i)^T (x) I ].

Structural verdicts implemented here:

* ``cptp_check``: complete positivity of a map via its (unnormalized) Choi
  matrix C = sum_{mn} E(|m><n|) (x) |m><n|, plus trace and hermiticity
  preservation;
* ``gkls_form_check``: conditional complete positivity of a generator,
  i.e. positivity of the Choi matrix compressed off the maximally
  entangled vector;
* ``purity_decay_rate``: the largest instantaneous purity decay
  Gamma = sup_rho -2 Re tr(rho G(rho)) = sup_rho -vec(rho)^dag (G + G^dag) vec(rho),
  one Hermitian quadratic form in vec(rho).  For a system G is its
  dissipator (H drops out); ``no_go_check`` rates its projected
  generator by the same form.  In the coordinates rho = I/d + sum_a x_a E_a of an
  orthonormal traceless Hermitian basis the form is a quadratic in x,
  and every state lies in the ball |x|^2 <= 1 - 1/d.  Maximizing over
  that ball is a trust-region subproblem (More & Sorensen, SIAM J. Sci.
  Stat. Comput. 4 (1983)), solved exactly by one eigendecomposition and
  the secular equation.  For d = 2 the ball is the Bloch ball, so the
  solve gives Gamma itself; for d > 2 it gives an upper value, and Gamma
  comes from multi-start ascent over density matrices
  rho = V V^dag / tr(V V^dag), all restarts (``PurityOptions``) in one
  batched L-BFGS.  Every state is scored by the same form, in batch.
  The secular root (Newton's method) and the ascent are the package's own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _read
from .errors import EstimationError, ValidationError
from .linalg import _kron, spectral_norm, spectral_norms, vec

__all__ = [
    "GklsSystem",
    "Superoperator",
    "liouvillian",
    "hamiltonian_superoperator",
    "dissipator_superoperator",
    "canonicalize",
    "cptp_check",
    "gkls_form_check",
    "PurityOptions",
    "PurityReport",
    "purity_decay_rate",
    "no_go_check",
]

ALL_PROVENANCES = ("hamiltonian", "dissipator", "full", "projected", "propagator")


@dataclass(frozen=True)
class GklsSystem:
    """Hilbert-space data of a GKLS generator: dimension, H, jump operators."""

    d: int
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        d = _read.integer("dimension d", self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "hamiltonian",
                           _read.matrix("hamiltonian H", self.hamiltonian, shape=(d, d), hermitian=(1e-12, 1e-300)))
        jumps = _read.sequence("jump operators", self.jumps, "matrices")
        object.__setattr__(self, "jumps", tuple(_read.matrix(f"jump operators[{i}]", L, shape=(d, d))
                                                for i, L in enumerate(jumps)))


@dataclass(frozen=True)
class Superoperator:
    """A d^2 x d^2 matrix acting on column-stacked density matrices.

    ``provenance`` records what the matrix is (generator kinds
    'hamiltonian' / 'dissipator' / 'full', a spectral 'projected' object,
    or a 'propagator').  Generators annihilate the trace functional,
    propagators preserve it; 'projected' objects may do either.
    """

    d: int
    mat: np.ndarray = field(repr=False)
    provenance: str = "full"

    def __post_init__(self):
        d = _read.integer("dimension d", self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mat", _read.matrix("superoperator matrix", self.mat, shape=(d * d, d * d)))
        _read.names("provenance", (self.provenance,), ALL_PROVENANCES)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The matrix: a superoperator is read wherever a matrix is."""
        return np.array(self.mat, dtype=dtype, copy=copy)


def _hermiticity_residuals(mat: np.ndarray, d: int) -> np.ndarray:
    """E(B) - E(B)^dagger for each unit B of :func:`_hermitian_basis`, stacked (d^2, d, d)."""
    # column stacking: mat[i + j d, k + l d] is mat.reshape(d, d, d, d)[j, i, l, k]
    images = np.einsum("jilk,nkl->nij", mat.reshape(d, d, d, d), _hermitian_basis(d))
    return images - images.conj().transpose(0, 2, 1)


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the d x d matrices, stacked (d^2, d, d).

    The d diagonal units come first, then for each m < n the symmetric and
    the antisymmetric unit on the pair (m, n).  Built once per d, read-only.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    k = d
    for m in range(d):
        basis[m, m, m] = 1.0
        for n in range(m + 1, d):
            basis[k, m, n] = basis[k, n, m] = 1.0 / np.sqrt(2)
            basis[k + 1, m, n] = -1j / np.sqrt(2)
            basis[k + 1, n, m] = 1j / np.sqrt(2)
            k += 2
    basis.flags.writeable = False
    return basis


def _traceless_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the traceless Hermitian d x d matrices, stacked (d^2 - 1, d, d).

    The off-diagonal units of :func:`_hermitian_basis` are traceless already;
    its diagonal units are rotated onto the complement of I.
    """
    herm = _hermitian_basis(d)
    q = np.linalg.qr(np.column_stack([np.ones(d), np.eye(d)[:, :-1]]))[0][:, 1:]
    return np.concatenate([np.einsum("mij,ma->aij", herm[:d], q), herm[d:]])


def hamiltonian_superoperator(h) -> np.ndarray:
    """Matrix of -i [H, .]."""
    h = _read.matrix("hamiltonian H", h, shape="square")
    eye = np.eye(h.shape[0])
    return -1j * (_kron(eye, h) - _kron(h.T, eye))


def dissipator_superoperator(jumps, d: int) -> np.ndarray:
    """Matrix of -1/2 sum_i (L^dag L rho + rho L^dag L - 2 L rho L^dag)."""
    d = _read.integer("dimension d", d)
    eye = np.eye(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    for i, L in enumerate(_read.sequence("jump operators", jumps, "matrices")):
        L = _read.matrix(f"jump operators[{i}]", L, shape=(d, d))
        ldl = L.conj().T @ L
        m += _kron(L.conj(), L) - 0.5 * _kron(eye, ldl) - 0.5 * _kron(ldl.T, eye)
    return m


def liouvillian(sys: GklsSystem) -> Superoperator:
    """Compile (H, {L_i}) to the full generator superoperator."""
    sys = _read.instance("sys", sys, GklsSystem)
    mat = hamiltonian_superoperator(sys.hamiltonian) + dissipator_superoperator(sys.jumps, sys.d)
    return Superoperator(d=sys.d, mat=mat, provenance="full")


def canonicalize(sys: GklsSystem) -> GklsSystem:
    """Make every jump traceless, absorbing scalar parts into H.

    L -> L - (tr L / d) I shifts the dissipator by a commutator, which is
    cancelled by H -> H + (i/2) sum_i (conj(c_i) L_i' - c_i L_i'^dag) with
    c_i = tr L_i / d.  The compiled superoperator is unchanged.
    """
    sys = _read.instance("sys", sys, GklsSystem)
    h = sys.hamiltonian.copy()
    new_jumps = []
    eye = np.eye(sys.d)
    for L in sys.jumps:
        c = np.trace(L) / sys.d
        l0 = L - c * eye
        new_jumps.append(l0)
        h = h + 0.5j * (np.conj(c) * l0 - c * l0.conj().T)
    return GklsSystem(d=sys.d, hamiltonian=h, jumps=tuple(new_jumps))


def _choi(mat: np.ndarray, d: int) -> np.ndarray:
    """The unnormalized Choi matrix C = sum_{mn} E(|m><n|) (x) |m><n| of a read d^2 x d^2 matrix."""
    # realignment: C[(i, m), (j, n)] = E(|m><n|)[i, j] = mat[i + j d, m + n d]
    return mat.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


@dataclass(frozen=True)
class CptpReport:
    trace_preserving: bool
    hermiticity_preserving: bool
    completely_positive: bool
    min_choi_eigenvalue: float


@dataclass(frozen=True)
class GklsFormReport:
    trace_annihilating: bool
    hermiticity_preserving: bool
    conditionally_completely_positive: bool
    min_conditional_choi_eigenvalue: float


def _verdicts(mat: np.ndarray, d: int, trace: float, choi: np.ndarray, eigs: np.ndarray) -> tuple[bool, bool, bool]:
    """Verdicts on ||vec(I)^dag mat - trace vec(I)^dag|| and the hermiticity defect, each <= 1e-10
    max(1, ||mat||), and on the least of the ascending ``eigs`` (of a compression of Choi's
    Hermitian part), >= -1e-9 ||Choi||.  A norm is read only when a verdict needs it: scale >= 1,
    ||.||_2 <= ||.||_F of each residual, and max |eigs| <= ||Choi||; the last two screens keep
    half the tolerance for rounding.
    """
    tr_vec = vec(np.eye(d)).conj()
    trace_defect = float(np.linalg.norm(tr_vec @ mat - trace * tr_vec))
    residuals = _hermiticity_residuals(mat, d)
    frobenius = float(np.linalg.norm(residuals, axis=(-2, -1)).max())
    scale = 1.0 if trace_defect <= 1e-10 and frobenius <= 0.5e-10 else max(1.0, spectral_norm(mat))
    return (bool(trace_defect <= 1e-10 * scale),
            frobenius <= 0.5e-10 or bool(spectral_norms(residuals).max() <= 1e-10 * scale),
            bool(eigs[0] >= -0.5e-9 * max(-eigs[0], eigs[-1])
                 or eigs[0] >= -1e-9 * max(spectral_norm(choi), 1e-300)))


def cptp_check(superop) -> CptpReport:
    """CPTP verdicts for a map (propagator or projected provenance).

    Each spectral norm behind a tolerance is read only when its verdict
    depends on it, so a map CPTP to rounding runs no SVD (:func:`_verdicts`).
    """
    if isinstance(superop, Superoperator) and superop.provenance not in ("propagator", "projected"):
        raise ValidationError(
            f"cptp_check expects a map, not a generator (provenance {superop.provenance!r})"
        )
    mat, d = _read.superoperator("superoperator", superop)
    choi = _choi(mat, d)
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    tp, hp, cp = _verdicts(mat, d, 1.0, choi, eigs)
    return CptpReport(trace_preserving=tp, hermiticity_preserving=hp, completely_positive=cp,
                      min_choi_eigenvalue=float(eigs.min()))


def gkls_form_check(superop) -> GklsFormReport:
    """GKLS-form verdicts for a generator (generator or projected provenance).

    Conditional complete positivity is tested as positivity of
    (I - P_Omega) Choi(G) (I - P_Omega) with P_Omega the projector on the
    maximally entangled vector sum_m |m>|m>/sqrt(d).
    """
    if isinstance(superop, Superoperator) and superop.provenance == "propagator":
        raise ValidationError("gkls_form_check expects a generator, got a propagator")
    mat, d = _read.superoperator("superoperator", superop)
    return _gkls_form(mat, d)


def _gkls_form(mat: np.ndarray, d: int) -> GklsFormReport:
    """:func:`gkls_form_check` of a read d^2 x d^2 matrix."""
    choi = _choi(mat, d)
    omega = vec(np.eye(d)) / np.sqrt(d)
    q = np.eye(d * d) - np.outer(omega, omega.conj())
    eigs = np.linalg.eigvalsh(q @ ((choi + choi.conj().T) / 2) @ q)
    ta, hp, ccp = _verdicts(mat, d, 0.0, choi, eigs)
    return GklsFormReport(trace_annihilating=ta, hermiticity_preserving=hp,
                          conditionally_completely_positive=ccp, min_conditional_choi_eigenvalue=float(eigs.min()))


# ---------------------------------------------------------------------------
# purity decay rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurityOptions:
    """Options of the multi-start ascent that rates d > 2: its restarts and their seed.

    Qubit rates are solved exactly and read none of them.  ``grid_density``
    sized a Bloch-sphere grid that the exact qubit solve replaced; nothing reads
    it, only ``bench/tracing.py`` still sets it, and it goes with ROADMAP item 1a.
    """

    restarts: int = 32
    grid_density: int = 100
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _read.integer(f"PurityOptions.{name}", getattr(self, name), least))


@dataclass(frozen=True)
class PurityReport:
    """Largest value of a purity form, with the state attaining it.

    ``gamma`` is the form's value at the state ``argmax``, the best value
    found over all states.  ``upper`` is a value no state exceeds: the
    trust-region dual, which equals ``gamma`` up to rounding for d = 2.
    """

    gamma: float
    upper: float
    argmax: np.ndarray = field(repr=False)


def _purity_values(hq: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """-vec(rho)^dag hq vec(rho) for each d x d matrix in the stack ``rhos``."""
    d = rhos.shape[-1]
    # column stacking: vec(rho)[i + j d] = rho[i, j], and hq[i + j d, k + l d] is
    # hq.reshape(d, d, d, d)[j, i, l, k]; no vec copies of the stack are made
    return -np.einsum("nij,jilk,nkl->n", rhos.conj(), hq.reshape(d, d, d, d), rhos).real


#: the cap on Newton steps for the secular equation, far above the few its concave form takes
_NEWTON_STEPS = 100
#: the cap on L-BFGS iterations of each restart of the d > 2 ascent
_MAXITER = 400


def _coords(beta: np.ndarray, lam: np.ndarray, mu: float) -> np.ndarray:
    """x(mu) = -beta / (lam + mu) in the eigenbasis of :func:`_trust_region`, with 0 wherever beta is 0."""
    return np.divide(-beta, lam + mu, out=np.zeros_like(beta), where=beta != 0)


def _secular_root(beta: np.ndarray, lam: np.ndarray, r2: float, mu: float, xtol: float) -> float:
    """The root of phi(mu) = 1/|x(mu)| - 1/r by Newton's method from ``mu``, where phi < 0.

    phi is concave and increasing for mu > -lam_min, so the steps climb to
    the root (More & Sorensen 1983), with phi'(mu) = sum beta^2 / (lam +
    mu)^3 / |x|^3; the loop stops after a step of at most ``xtol``.  A NaN
    value of phi, or ``_NEWTON_STEPS`` steps without that, raises
    :class:`EstimationError`.
    """
    for _ in range(_NEWTON_STEPS):
        x = _coords(beta, lam, mu)
        norm = math.sqrt(float(x @ x))
        phi = 1.0 / norm - 1.0 / math.sqrt(r2)
        if math.isnan(phi):
            raise EstimationError(f"secular equation: phi({mu!r}) is NaN", best_value=mu)
        step = phi * norm ** 3 / float(x @ (x / (lam + mu)))  # x_a^2 / (lam_a + mu) = beta_a^2 / (lam_a + mu)^3
        mu -= step
        if abs(step) <= xtol:
            return mu
    raise EstimationError(f"secular equation: Newton's method did not converge in {_NEWTON_STEPS} steps; "
                          f"last multiplier {mu!r}", best_value=mu)


def _trust_region(hq: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Maximize -vec(rho)^dag hq vec(rho) over the ball tr rho^2 <= 1.

    With rho = I/d + sum_a x_a E_a the form is -c - 2 b.x - x^T A x and the
    ball is |x|^2 <= r^2 = 1 - 1/d.  One eigendecomposition A = Q diag(lam) Q^T
    turns the stationarity condition (A + mu I) x = -b into the secular
    equation |x(mu)| = r for the sphere's multiplier mu > -lam_min, solved
    on 1/|x(mu)| - 1/r by Newton's method from -lam_min + 8 eps scale
    (:func:`_secular_root`) until a step is at most eps times the form's
    scale.  The multiplier is not scipy's ``brentq`` root bit for bit; the
    tests hold it to that root within a few ulp.  The hard case, where b vanishes
    on A's bottom eigenspace, fills x up to the sphere along that space.
    When mu <= 0 the ball's maximizer is the interior point x(0).

    Returns the matrices I/d + sum_a x_a E_a of the ball's and the sphere's
    maximizers, stacked in that order (for d = 2 they are states), and the
    Lagrange dual -c + b^T (A + mu I)^{-1} b + mu r^2 at mu = max(mu, 0),
    which no state exceeds, plus 64 d^2 ulp of the magnitudes it sums for
    rounding (at d = 2 the unpadded dual and the primal value at the
    maximizer differ by at most a few ulp either way).
    """
    centre = vec(np.eye(d)) / d
    h_centre = hq @ centre
    c = float(np.real(centre.conj() @ h_centre))
    if d == 1:  # I is the only state
        return np.ones((2, 1, 1), dtype=complex), -c
    basis = _traceless_basis(d)
    vecs = basis.transpose(0, 2, 1).reshape(len(basis), d * d)  # rows vec(E_a)
    b = np.real(vecs.conj() @ h_centre)
    a = np.real(vecs.conj() @ hq @ vecs.T)
    lam, q = np.linalg.eigh((a + a.T) / 2)
    beta = q.T @ b
    eps = np.finfo(float).eps
    r2 = 1.0 - 1.0 / d
    radius = float(np.linalg.norm(beta)) / math.sqrt(r2)  # |x(mu)| <= r once mu + lam_min >= it
    scale = max(abs(lam[0]), abs(lam[-1]), radius)

    # multipliers within a few ulp of the scale above -lam_min count as the hard case
    mu = -lam[0] + 8.0 * eps * scale
    y = _coords(beta, lam, mu)
    if (norm2 := float(y @ y)) <= r2:
        y[0] = math.copysign(math.sqrt(float(y[0]) ** 2 + r2 - norm2), y[0])
    else:
        mu = _secular_root(beta, lam, r2, mu, eps * scale)
        y = _coords(beta, lam, mu)
    sphere = q @ y
    sphere *= math.sqrt(r2) / np.linalg.norm(sphere)
    ball = q @ _coords(beta, lam, 0.0) if mu <= 0.0 else sphere
    mu = max(mu, 0.0)
    total = float(np.divide(beta ** 2, lam + mu, out=np.zeros_like(beta), where=beta != 0).sum())
    upper = -c + total + mu * r2 + 64 * d * d * eps * (abs(c) + total + (mu + scale) * r2)
    points = np.einsum("pa,aij->pij", np.stack([ball, sphere]), basis) + np.eye(d) / d
    return points, upper


def _lbfgs(fun, x0: np.ndarray, maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``fun`` from every row of ``x0`` at once by limited-memory BFGS.

    ``fun`` maps a (k, n) stack of points to their values (k,) and
    gradients (k, n).  Each row runs its own L-BFGS (Liu & Nocedal,
    *Math. Prog.* 45, 503 (1989)): the two-loop recursion over its last
    10 pairs (s, y), with the initial matrix scaled by s.y / y.y
    of the newest pair, or to a unit step while there is none; a
    backtracking Armijo line search from step 1; and no update when
    s.y <= 0.  A row stops when the inf-norm of its gradient is <= 1e-12,
    when a step lowers f by at most 1e-16 max(|f|, 1) (the rules of
    scipy's L-BFGS-B with gtol = 1e-12 and ftol = 1e-16, which the tests
    use as the oracle), so also when the line search finds no lower f
    before the step's first-order decrease falls below that tolerance,
    and after ``maxiter`` iterations.  The rows still running share one
    ``fun`` call per line-search trial.

    Returns the final points and a mask of the rows that ran: a row
    whose starting value or gradient is not finite fails at its start.
    """
    history = 10
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    ran = np.isfinite(f) & np.isfinite(g).all(axis=1)
    k, n = x.shape
    s_hist, y_hist = np.zeros((k, history, n)), np.zeros((k, history, n))
    rho_hist = np.zeros((k, history))  # 1 / s.y, oldest first; 0 makes an empty slot a no-op
    active = ran & (np.abs(g).max(axis=1, initial=0.0) > 1e-12)
    for _ in range(maxiter):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        s, y, rho, x_old, f_old, g_old = s_hist[rows], y_hist[rows], rho_hist[rows], x[rows], f[rows], g[rows]
        q = g_old.copy()
        alpha = np.empty((rows.size, history))
        for j in reversed(range(history)):
            alpha[:, j] = rho[:, j] * np.einsum("ij,ij->i", s[:, j], q)
            q -= alpha[:, j, None] * y[:, j]
        q *= np.divide(1.0, rho[:, -1] * np.einsum("ij,ij->i", y[:, -1], y[:, -1]),
                       out=1.0 / np.linalg.norm(g_old, axis=1), where=rho[:, -1] > 0)[:, None]
        for j in range(history):
            q += (alpha[:, j] - rho[:, j] * np.einsum("ij,ij->i", y[:, j], q))[:, None] * s[:, j]
        slope = -np.einsum("ij,ij->i", g_old, q)  # the step is -q
        # a row leaves the search without a step once its step's first-order decrease is below
        # the relative-decrease tolerance (at once if the direction is not downhill), which stops it
        floor = 1e-16 * np.maximum(np.abs(f_old), 1.0)
        step, pending = np.ones(rows.size), np.arange(rows.size)
        while (pending := pending[-step[pending] * slope[pending] > floor[pending]]).size:
            trial = x_old[pending] - step[pending, None] * q[pending]
            f_trial, g_trial = fun(trial)
            ok = np.isfinite(f_trial) & np.isfinite(g_trial).all(axis=1) \
                & (f_trial <= f_old[pending] + 1e-4 * step[pending] * slope[pending])
            done = rows[pending[ok]]
            x[done], f[done], g[done] = trial[ok], f_trial[ok], g_trial[ok]
            pending = pending[~ok]
            step[pending] *= 0.5
        s_new, y_new = x[rows] - x_old, g[rows] - g_old  # s = 0 where no step was taken
        sy = np.einsum("ij,ij->i", s_new, y_new)
        update = sy > 0
        if update.any():
            u = rows[update]
            for hist, new in ((s_hist, s_new[update]), (y_hist, y_new[update]), (rho_hist, 1.0 / sy[update])):
                hist[u] = np.roll(hist[u], -1, axis=1)
                hist[u, -1] = new
        f_new = f[rows]
        stop = (f_old - f_new <= 1e-16 * np.maximum(np.maximum(np.abs(f_old), np.abs(f_new)), 1.0)) \
            | (np.abs(g[rows]).max(axis=1) <= 1e-12)
        active[rows[stop]] = False
    return x, ran


def _ascend_quadratic_form(hq: np.ndarray, d: int, opts: PurityOptions) -> PurityReport:
    """Maximize the Hermitian quadratic form -vec(rho)^dag hq vec(rho) by ascent.

    rho = V V^dag / tr(V V^dag) is parameterized by V in C^{dxd}; the
    gradient is exact.  The ``opts.restarts`` starting points are drawn
    from ``default_rng(opts.seed)`` and ascend together for ``_MAXITER`` steps
    in one batched L-BFGS (:func:`_lbfgs`, Liu & Nocedal 1989; the tests hold its best
    value to scipy's L-BFGS-B from the same starts).  Every restart
    contributes a candidate, scored by :func:`_purity_values`, and the
    best one is reported, so the maximum does not depend on the order of
    the restarts.  The ascent proves no upper value, so ``upper`` is +inf;
    :func:`_purity_report` supplies the dual.
    """
    n = d * d
    eye = np.eye(d)

    def factors(x):  # V, V V^dag and tr(V V^dag) of each row x = (Re V, Im V), both column-stacked
        v = (x[:, :n] + 1j * x[:, n:]).reshape(-1, d, d)
        w = v @ v.conj().transpose(0, 2, 1)
        return v, w, np.einsum("kii->k", w).real

    def neg_value_grad(x):
        v, w, tau = factors(x)
        r = (w / tau[:, None, None]).transpose(0, 2, 1).reshape(-1, n)  # vec(rho), one row each
        hr = r @ hq.T  # hq vec(rho), one row each
        value = -np.einsum("ki,ki->k", r.conj(), hr).real
        a = hr.reshape(-1, d, d).transpose(0, 2, 1)
        g_rho = -(a + a.conj().transpose(0, 2, 1))
        k = g_rho / tau[:, None, None] \
            - (np.einsum("kij,kji->k", g_rho, w).real / tau ** 2)[:, None, None] * eye
        z = 4.0 * (k @ v)
        return -value, -np.concatenate([z.real.reshape(-1, n), z.imag.reshape(-1, n)], axis=1)

    x0 = np.random.default_rng(opts.seed).standard_normal((opts.restarts, 2 * n))
    x, ran = _lbfgs(neg_value_grad, x0, _MAXITER)
    _, w, tau = factors(x)
    candidates = w / tau[:, None, None]
    values = _purity_values(hq, candidates)
    if not ran.any():
        raise EstimationError("purity ascent failed on every restart", best_value=max(values, default=0.0))
    best = int(np.argmax(values))
    return PurityReport(gamma=max(values[best], 0.0), upper=math.inf, argmax=candidates[best].copy())


def _purity_report(hq: np.ndarray, d: int, opts: PurityOptions) -> PurityReport:
    """Exact trust-region rate for d = 2, ascent for d > 2; both carry the dual.

    Rates are clipped at 0 (a trace-preserving positive semigroup cannot
    raise the purity of a pure state, so its rate is never negative), and
    so is ``upper``, which keeps ``gamma <= upper``.
    """
    points, upper = _trust_region(hq, d)
    upper = max(0.0, upper)
    if d != 2:
        return replace(_ascend_quadratic_form(hq, d, opts), upper=upper)
    values = _purity_values(hq, points)
    best = int(np.argmax(values))  # the ball's maximizer wins ties
    gamma = max(0.0, values[best])
    return PurityReport(gamma=gamma, upper=upper, argmax=points[best].copy())


def purity_decay_rate(sys: GklsSystem, opts: PurityOptions | None = None) -> float:
    """Largest purity decay rate Gamma of the system's semigroup."""
    return purity_decay_report(sys, opts).gamma


def purity_decay_report(sys: GklsSystem, opts: PurityOptions | None = None) -> PurityReport:
    sys, opts = _read.instance("sys", sys, GklsSystem), opts or PurityOptions()
    if not any(L.any() for L in sys.jumps):  # no jump, or only zero jumps
        rho0 = np.eye(sys.d, dtype=complex) / sys.d
        return PurityReport(gamma=0.0, upper=0.0, argmax=rho0)
    diss = dissipator_superoperator(sys.jumps, sys.d)
    return _purity_report(diss + diss.conj().T, sys.d, opts)


@dataclass(frozen=True)
class NoGoReport:
    gamma_original: float
    gamma_projected: float


def no_go_check(sys: GklsSystem, zeno_generator) -> NoGoReport:
    """Gamma of the original generator and of a projected one, both at the default :class:`PurityOptions`."""
    sys = _read.instance("sys", sys, GklsSystem)
    mat, d = _read.superoperator("zeno_generator", zeno_generator)
    report = _gkls_form(mat, d)
    if not (report.trace_annihilating and report.hermiticity_preserving):
        raise ValidationError("zeno_generator is not a trace-annihilating Hermitian-preserving generator")
    g0 = purity_decay_rate(canonicalize(sys))
    gz = _purity_report(mat + mat.conj().T, d, PurityOptions()).gamma
    return NoGoReport(gamma_original=g0, gamma_projected=gz)
