"""Strong-coupling (Zeno) limits of e^{t(gamma B + C)} and their error bounds.

For a strong generator B with spectrum in the closed left half-plane and
semisimple imaginary eigenvalues, and an arbitrary weak generator C, the
Zeno projection of C and the peripheral projection of B are

    C_Z = sum_{b_k imaginary} P_k C P_k,      P_phi = sum_{b_k imaginary} P_k,

and e^{t(gamma B + C)} approaches e^{t gamma B} e^{t C_Z} (and, away from
t = 0, the same with a trailing P_phi) at rate O(1/gamma).  This module
measures that error and evaluates three upper bounds for it, over a
(gamma, t) grid in one place: ``evaluate_grid`` checks the names in
``VARIANTS`` and ``BOUNDS``, gamma and t, and returns one (gamma, t)
array per ``CSV_COLUMNS`` key; ``adiabatic_error`` is that grid at one point.  The
errors are measured in the split's ``Frame``, the orthonormal Hermitian
operator basis in which a GKLS pair's matrices are real.  Each bound
holds for the constants in its ``BoundInputs``; there M is a sampled
estimate of sup_t ||e^{tB}||, not a certified one.  The bounds take
floats or whole (gamma, t) grids, and a grid cell equals the scalar call
bit for bit:

* ``bound_adiabatic``: the sharp bound assembled from reduced-resolvent
  norms, a uniform semigroup bound M, and a decay envelope
  ||e^{tB}(I - P_phi)|| <= e^{-eta t} p(t);
* ``bound_cptp``: the simpler bound available when both factors are CPTP,
  linear in t;
* ``bound_simplified``: the coarse closed form in terms of the two
  spectral gaps and the eigenvector condition number alone.

Also here: the pulsed (measurement-based) Zeno product, the
Bohr-frequency superoperator projections of [K, .] and the
fast-oscillation Zeno generator L_Z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _read
from .errors import DimensionError, SpectrumViolationError, ValidationError
from .gkls import GklsSystem, Superoperator, _hermitian_basis, liouvillian
from .linalg import _EXPM_RANGE, _expm_stack, _onenorms, expm, sandwich_super, spectral_norm, spectral_norms
from .spectral import (
    RESIDUAL_FACTOR,
    GapData,
    SpectralDecomposition,
    _cluster_eigenvalues,
    _cluster_norms,
    condition_number,
    decompose,
    gaps,
    peripheral_projection,
    reduced_resolvent,
    spectral_expm,
)

__all__ = [
    "ZenoSplit",
    "BoundInputs",
    "VARIANTS",
    "BOUNDS",
    "CSV_COLUMNS",
    "zeno_split",
    "evaluate_grid",
    "adiabatic_error",
    "bound_adiabatic",
    "bound_cptp",
    "bound_simplified",
    "pulsed_zeno_product",
    "commutator_projections",
    "fast_oscillation_zeno",
]


@dataclass(frozen=True)
class Frame:
    """The split's matrices in an orthonormal operator basis W, as X -> W X W^dagger.

    When D = d^2 and W B W^dagger, W C W^dagger are real up to rounding (their
    imaginary parts within D eps of their Frobenius norms), as for every
    Hermiticity-preserving pair such as two GKLS generators, W's rows are
    vec(E_a)^dagger for the orthonormal Hermitian basis E_a of
    :func:`gkls._hermitian_basis`, and ``b``, ``c``, ``c_z`` and ``p_phi``
    are the float64 real parts of the transformed matrices.  Otherwise W = I
    and they are the split's own complex matrices.  ``u`` and ``v`` are
    W U and V W^dagger for B's spectral factors (complex either way), so
    ``spectral_expm(decomposition, t, u, v)`` is e^{tB} in the frame.  The
    spectral norm is the same in any unitary frame, so the error grid and
    the M sample of :meth:`BoundInputs.from_split` both work here.
    """

    b: np.ndarray
    c: np.ndarray
    c_z: np.ndarray
    p_phi: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def real(self) -> bool:
        return self.b.dtype == float


def _hermitian_frame(b: np.ndarray, c: np.ndarray, c_z: np.ndarray, p_phi: np.ndarray,
                     dec: SpectralDecomposition) -> Frame:
    """The :class:`Frame` of a split: the Hermitian operator basis when it makes B and C real."""
    dim = len(b)
    d = math.isqrt(dim)
    if d * d == dim:
        w = _hermitian_basis(d).transpose(0, 2, 1).reshape(dim, dim).conj()  # rows vec(E_a)^dagger
        wb, wc = (w @ m @ w.conj().T for m in (b, c))
        rounding = dim * np.finfo(float).eps
        if all(np.linalg.norm(m.imag) <= rounding * np.linalg.norm(m) for m in (wb, wc)):
            wc_z, wp_phi = ((w @ m @ w.conj().T).real for m in (c_z, p_phi))
            return Frame(b=wb.real.copy(), c=wc.real.copy(), c_z=wc_z, p_phi=wp_phi,
                         u=w @ dec.u, v=dec.v @ w.conj().T)
    return Frame(b=b, c=c, c_z=c_z, p_phi=p_phi, u=dec.u, v=dec.v)


@dataclass(frozen=True)
class ZenoSplit:
    """A strong/weak generator pair with its Zeno-limit data.

    ``resolvents`` maps the index of each peripheral cluster of B to its
    reduced resolvent S_l.  ``frame`` holds B, C, C_Z and P_phi in the
    operator basis the error grid works in (real for a GKLS pair).
    """

    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    decomposition: SpectralDecomposition
    c_z: np.ndarray = field(repr=False)
    p_phi: np.ndarray = field(repr=False)
    gap_data: GapData
    resolvents: dict[int, np.ndarray] = field(repr=False)
    frame: Frame = field(repr=False)


def zeno_split(b, c, cluster_tol: float | None = None,
               imag_tol: float | None = None) -> ZenoSplit:
    """Decompose B, project C onto its peripheral eigenspaces.

    Raises :class:`SpectrumViolationError` if B has an eigenvalue with real
    part above ``imag_tol`` and :class:`PeripheralDefectError` (from the
    decomposition) if a peripheral cluster is defective.
    """
    b, c = _read.pair("strong generator B", b, "weak generator C", c)
    dec = decompose(b, cluster_tol=cluster_tol, imag_tol=imag_tol)
    violations = [cl.eigenvalue for cl in dec.clusters if cl.eigenvalue.real > dec.imag_tol]
    if violations:
        raise SpectrumViolationError(
            f"spectrum of the strong generator leaves the closed left half-plane: {violations}"
        )
    c_z = np.zeros_like(c)
    resolvents: dict[int, np.ndarray] = {}
    for k, cl in enumerate(dec.clusters):
        if cl.peripheral:
            c_z += cl.projection @ c @ cl.projection
            resolvents[k] = reduced_resolvent(dec, k)
    p_phi = peripheral_projection(dec)
    return ZenoSplit(b=b, c=c, decomposition=dec, c_z=c_z, p_phi=p_phi, gap_data=gaps(dec),
                     resolvents=resolvents, frame=_hermitian_frame(b, c, c_z, p_phi, dec))


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

#: complex entries of an e^{tB} stack and the copy its SVD reads together while
#: sampling M (0.5 MiB): 4 t-points at D = 64
_M_STACK_ENTRIES = 8 * 64 * 64
#: factor on the screening bound of :func:`_sample_bounds`, far above its rounding
#: (relative D^2 eps) and the SVD's
_SCREEN_SAFETY = 1.0 + 1e-8
#: the rounding of forming an e^{tB} sample from the frame's factors, in units of D eps
#: per unit of the cluster bound: the length-D products and the phases take a few,
#: a cluster block's Pade squarings (about 60 at most) the rest
_FORMING_ULPS = 64


def _sample_bounds(split: ZenoSplit, ts: np.ndarray) -> np.ndarray:
    """Upper bounds, by construction, on ||e^{tB}|| as :meth:`BoundInputs.from_split` forms it at each t.

    The sample is S(t) = U diag(e^{t T_kk}) V for the frame's factors U and
    V, up to the rounding of forming it.  Two bounds hold for S(t):

    * the cluster bound K(t) = sum_k ||U_k||_F ||V_k||_F e^{t Re b_k}
      e^{t ||T_kk - b_k I||_F}, which holds for defective clusters too;
    * the log-norm bound (Dahlquist 1958; Soderlind, BIT 46 (2006)).  With
      F = U V - I and E = U diag(T_kk) V - B, S(t) = e^{tB'} (I + F) for
      B' = (B + E)(I + F)^{-1}, so ||S(t)|| <= (1 + f) e^{t(mu + r)}: mu is
      the largest eigenvalue of the Hermitian part of B, f and e bound
      ||F|| and ||E||, and r = (e + ||B||_F f) / (1 - f) bounds ||B' - B||.
      :func:`decompose` checks both residuals against ``RESIDUAL_FACTOR *
      cluster_tol``; f and e add the frame's rounding to it.

    The result is the smaller of the two plus ``_FORMING_ULPS`` D eps K(t)
    for the rounding of forming the sample, which for a cluster with a
    large ||U_k|| ||V_k|| (chi up to 10^6) can exceed ``_SCREEN_SAFETY``
    alone.  An overflowing bound is inf and a NaN stays NaN; neither lets
    a sample be skipped.
    """
    dec, frame = split.decomposition, split.frame
    u_norms, v_norms = _cluster_norms(frame.u, frame.v, dec.starts)
    weights = u_norms * v_norms
    eigs = np.array([c.eigenvalue for c in dec.clusters])
    spreads = np.array([np.linalg.norm(c.block - c.eigenvalue * np.eye(len(c.block))) if len(c.block) > 1 else 0.0
                        for c in dec.clusters])
    rounding = _FORMING_ULPS * dec.dim * np.finfo(float).eps
    b_norm = float(np.linalg.norm(frame.b))
    mu = float(np.linalg.eigvalsh((frame.b + frame.b.conj().T) / 2.0)[-1])
    tol = RESIDUAL_FACTOR * dec.cluster_tol
    f = tol + rounding * float(weights.sum())
    e = tol + rounding * (float(weights @ (np.abs(eigs) + spreads)) + b_norm)
    with np.errstate(over="ignore", invalid="ignore"):
        cluster = np.exp(np.multiply.outer(ts, eigs.real + spreads)) @ weights
        lognorm = (1.0 + f) * np.exp(ts * (mu + (e + b_norm * f) / (1.0 - f))) if f < 1.0 else np.inf
        return np.minimum(cluster, lognorm) + rounding * cluster


def _check_exponent(dec: SpectralDecomposition, s: float, name: str) -> None:
    """Raise :class:`ValidationError` if e^{s b} overflows for an eigenvalue b of B."""
    b = max((cl.eigenvalue for cl in dec.clusters), key=lambda z: z.real)
    if s * b.real > (limit := math.log(np.finfo(float).max)):
        raise ValidationError(f"e^{{sB}} overflows at s = {name} = {s:.6g}: s Re b exceeds log(realmax) = "
                              f"{limit:.6g} for the eigenvalue b = {b:.6g}")


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the three error bounds.

    ``m_bound``       M >= 1 with ||e^{tB}|| <= M for t >= 0
    ``p_coeffs``      coefficients of the positive polynomial p with
                      ||e^{tB}(I - P_phi)|| <= e^{-eta t} p(t)
    ``resolvent_sum`` sum_l ||S_l C P_l|| over peripheral clusters
    ``resolvent_sum_norm``  || sum_l S_l C P_l || (enters the CPTP bound)
    """

    m_bound: float
    eta: float
    delta: float
    chi: float
    dim: int
    p_coeffs: np.ndarray
    norm_c: float
    norm_cz: float
    resolvent_sum: float
    resolvent_sum_norm: float

    def __post_init__(self):
        for name in ("m_bound", "chi"):
            if not (value := _read.real(name, getattr(self, name))) >= 1.0:
                raise ValidationError(f"{name} must be at least 1, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("eta", "delta"):  # a gap is positive, or +inf where there is no such part of the spectrum
            value = getattr(self, name)
            object.__setattr__(self, name, math.inf if isinstance(value, float) and value == math.inf
                               else _read.real(name, value, "positive"))
        object.__setattr__(self, "dim", _read.integer("dim", self.dim))
        if (p_coeffs := _read.times("p_coeffs", self.p_coeffs, "nonnegative")).ndim != 1 or not p_coeffs.size:
            raise DimensionError(f"p_coeffs must be a nonempty 1-D array, got shape {p_coeffs.shape}")
        object.__setattr__(self, "p_coeffs", p_coeffs)
        for name in ("norm_c", "norm_cz", "resolvent_sum", "resolvent_sum_norm"):
            object.__setattr__(self, name, _read.real(name, getattr(self, name), "nonnegative"))

    @classmethod
    def from_split(cls, split: ZenoSplit, t_max: float = 2.0,
                   gamma_max: float = 1000.0) -> "BoundInputs":
        """Measure every constant from the decomposition of B.

        chi comes from the cluster-adapted unit-column eigenvector matrix;
        :func:`condition_number` accepts only a diagonalizable B, so p is
        the constant chi times the number of decaying clusters.  M is 1.05
        times the largest ||e^{tB}|| over a 64-point grid on
        [0, t_max * gamma_max] (log-spaced to resolve both the transient
        and the asymptotic regime), floored at 1; t_max must be nonnegative
        and gamma_max positive, both finite real numbers (not bools) with a
        finite product (:func:`evaluate_grid` passes its grid's; the defaults
        serve only ``bench/tracing.py``'s size ladder, and go with ROADMAP
        item 1a).  A horizon at which e^{t Re b_k} overflows for an
        eigenvalue b_k (a peripheral eigenvalue's rounding can be positive) raises
        :class:`ValidationError` naming both, as does a non-finite sample.
        A sample is formed, in the split's :class:`Frame` (float64 for a
        GKLS pair), only while its :func:`_sample_bounds` times
        ``_SCREEN_SAFETY`` exceeds the largest norm so far: the latest
        alone first, then the rest by descending bound in stacks of
        ``_M_STACK_ENTRIES``, each sent whole to one stacked SVD
        (:func:`spectral_norms`).  A skipped sample cannot raise the
        maximum, so M is the float of the full 64-SVD sample in the frame.
        """
        split = _read.instance("split", split, ZenoSplit)
        t_max, gamma_max = _read.real("t_max", t_max, "nonnegative"), _read.real("gamma_max", gamma_max, "positive")
        horizon = t_max * gamma_max
        if not math.isfinite(horizon):
            raise ValidationError(f"the horizon t_max * gamma_max overflows: {t_max!r} * {gamma_max!r}")
        dec, gap = split.decomposition, split.gap_data
        _check_exponent(dec, horizon, "the horizon t_max * gamma_max")
        chi = condition_number(dec)
        p_coeffs = np.array([chi * len(dec.nonperipheral_clusters)])

        grid = np.concatenate([[0.0], np.geomspace(max(horizon, 1e-12) * 1e-6, max(horizon, 1e-12), 63)])
        bound = _sample_bounds(split, grid)
        # the latest sample alone raises the running max to the plateau, then the largest bounds
        order = np.concatenate([[grid.size - 1], np.argsort(-bound[:-1], kind="stable")])
        size, take, sampled = max(1, _M_STACK_ENTRIES // (2 * dec.dim ** 2)), 1, 1.0
        while (order := order[~(bound[order] * _SCREEN_SAFETY <= sampled)]).size:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sample raises below
                stack = spectral_expm(dec, grid[order[:take]], split.frame.u, split.frame.v)
            if not np.isfinite(stack).all():
                raise ValidationError("e^{tB} sample contains non-finite entries")
            sampled = max(sampled, float(spectral_norms(stack.real.copy() if split.frame.real else stack).max()))
            order, take = order[take:], size
        return cls(m_bound=1.05 * sampled, eta=gap.eta, delta=gap.delta, chi=chi,
                   dim=dec.dim, p_coeffs=p_coeffs, **_norm_constants(split))


def _norm_constants(split: ZenoSplit) -> dict:
    """The :class:`BoundInputs` norms of C, C_Z and the terms S_l C P_l, keyed by field."""
    res_terms = [split.resolvents[k] @ split.c @ split.decomposition.clusters[k].projection
                 for k in split.resolvents]
    return {"norm_c": spectral_norm(split.c), "norm_cz": spectral_norm(split.c_z),
            "resolvent_sum": float(sum(spectral_norm(term) for term in res_terms)),
            "resolvent_sum_norm": spectral_norm(sum(res_terms, np.zeros_like(split.c)))}


def _difference_quotient(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """(a e^{ta} - b e^{tb}) / (a - b) at each t, continuous through a = b.

    Uses the hyperbolic form e^{(a+b)t/2} [cosh(x) + (a+b)(t/2) sinh(x)/x]
    with x = (a-b)t/2, which is stable for nearly equal arguments; the
    a = b limit is e^{ta}(1 + ta).  From |x| = 350 on it reads as inf.
    """
    x = (a - b) * t / 2.0
    sinhc = np.full(x.shape, math.inf)
    small = np.abs(x) < 1e-5
    mid = ~small & (np.abs(x) < 350)
    xs, xm = x[small], x[mid]
    sinhc[small] = 1.0 + xs * xs / 6.0 + xs ** 4 / 120.0
    sinhc[mid] = np.sinh(xm) / xm
    with np.errstate(over="ignore"):
        return np.exp((a + b) * t / 2.0) * (np.cosh(x) + (a + b) * (t / 2.0) * sinhc)


def _envelope_integral(p_coeffs: np.ndarray, eta: float) -> float:
    """int_0^inf e^{-eta s} p(s) ds = sum_n n! p_n / eta^{n+1} = (p_0 + (1/eta)(p_1 + (2/eta)(p_2 + ...))) / eta.

    Horner's rule forms no power of eta and no factorial, so a lone p_0 gives p_0 / eta, eta infinite
    gives 0, a zero p_n adds 0, and the value is inf only where a partial sum overflows.  Trailing
    zeros are dropped first, so an infinite (n + 1) / eta never meets a zero sum.
    """
    p = np.trim_zeros(p_coeffs, "b")
    if not p.size:
        return 0.0
    acc = p[-1]
    with np.errstate(over="ignore"):
        for n in range(p.size - 2, -1, -1):
            acc = p[n] + (n + 1) / eta * acc
        return float(acc / eta)


def _decayed_series(c_0: float, log_c: np.ndarray, x: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """e^{-decay} sum_n c_n x^n at each x >= 0, given log_c[n] = log c_n, and c_0 itself for the cells where x = 0.

    Elsewhere the terms are summed in log space by a max-shift
    log-sum-exp, and a value above e^700 reads as inf.
    """
    out = np.full(x.shape, c_0)
    live = x != 0.0
    logs = log_c + np.arange(log_c.size) * np.log(x[live])[:, None]
    top = logs.max(axis=1)
    log_val = top + np.log(np.exp(logs - top[:, None]).sum(axis=1)) - decay[live]
    with np.errstate(over="ignore"):
        out[live] = np.where(log_val < 700, np.exp(log_val), math.inf)
    return out


def _envelope_tail(p_coeffs: np.ndarray, eta: float, gamma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e^{-gamma eta t} p(gamma t) at each (gamma, t); with eta infinite the decay wins for t > 0, and p(0) at t = 0."""
    if math.isinf(eta) or not p_coeffs.any():
        return np.where(gamma * t == 0.0, p_coeffs[0], 0.0)
    with np.errstate(divide="ignore"):  # log 0 = -inf: a zero coefficient's term drops out
        log_p = np.log(p_coeffs)
    return _decayed_series(p_coeffs[0], log_p, gamma * t, gamma * eta * t)


def _on_grid(bound):
    """Let ``bound(inputs, gamma, t)`` take floats or arrays that broadcast.

    The body sees float arrays and its gamma-free factors are evaluated
    once on t's own shape, so a column of gammas against a row of times
    shares them.  Two floats give a float: a scalar bound is the grid
    evaluation at one point.
    """
    @functools.wraps(bound)
    def on_grid(inputs: BoundInputs, gamma, t):
        inputs = _read.instance(f"{bound.__name__} inputs", inputs, BoundInputs)
        gamma = _read.times(f"{bound.__name__} gamma", gamma, "positive", ndim=None)
        t = _read.times(f"{bound.__name__} t", t, "nonnegative", ndim=None)
        values = np.broadcast_to(bound(inputs, gamma, t), np.broadcast_shapes(gamma.shape, t.shape))
        return float(values) if values.ndim == 0 else values.copy()
    return on_grid


@_on_grid
def bound_adiabatic(inputs: BoundInputs, gamma, t):
    """Sharp peripheral-variant error bound.

    (1/gamma) [ (M+1) sum_l ||S_l C P_l|| * (M||C|| e^{tM||C||} - ||C_Z|| e^{t||C_Z||}) / (M||C|| - ||C_Z||)
                + M ||C|| e^{tM||C||} int_0^inf e^{-eta s} p(s) ds ]
    + e^{-gamma eta t} p(gamma t)
    """
    a = inputs.m_bound * inputs.norm_c
    quot = _difference_quotient(a, inputs.norm_cz, t)
    term = (inputs.m_bound + 1.0) * inputs.resolvent_sum * quot
    integral = _envelope_integral(inputs.p_coeffs, inputs.eta)
    if integral > 0.0:  # a zero envelope makes the Dyson term 0, even where e^{tM||C||} overflows
        with np.errstate(over="ignore"):
            term += a * np.exp(np.minimum(t * a, 1e300)) * integral
    return term / gamma + _envelope_tail(inputs.p_coeffs, inputs.eta, gamma, t)


@_on_grid
def bound_cptp(inputs: BoundInputs, gamma, t):
    """CPTP-specialized bound, linear in t.

    (1/gamma) [ M ||sum_l S_l C P_l|| (2 + M t (||C|| + ||C_Z||))
                + M ||C|| int_0^inf e^{-eta s} p(s) ds ]
    + e^{-gamma eta t} p(gamma t)
    """
    term = inputs.m_bound * inputs.resolvent_sum_norm * (
        2.0 + inputs.m_bound * t * (inputs.norm_c + inputs.norm_cz))
    term += inputs.m_bound * inputs.norm_c * _envelope_integral(inputs.p_coeffs, inputs.eta)
    return term / gamma + _envelope_tail(inputs.p_coeffs, inputs.eta, gamma, t)


@_on_grid
def bound_simplified(inputs: BoundInputs, gamma, t):
    """Coarse gap/condition-number bound with M = D * chi.

    (1/gamma) M^2 (2M/Delta + 1/eta) ||C|| e^{2 t M^2 ||C||}
    + M e^{-gamma eta t} sum_{n < D} (gamma eta t)^n / n!

    Infinite gaps follow the 1/inf -> 0 convention; with eta infinite the
    trailing term vanishes for t > 0 and equals M at t = 0.
    """
    m = inputs.dim * inputs.chi
    coef = 2.0 * m / inputs.delta + 1.0 / inputs.eta
    if coef > 0.0:
        with np.errstate(over="ignore"):
            first = m * m * coef * inputs.norm_c * np.exp(np.minimum(2.0 * t * m * m * inputs.norm_c, 1e300)) / gamma
    else:
        first = 0.0
    if math.isinf(inputs.eta):
        tail = np.where(t > 0, 0.0, m)
    else:
        x = gamma * inputs.eta * t
        log_factorials = np.cumsum(np.log(np.maximum(np.arange(inputs.dim), 1)))  # log n! = sum_{k <= n} log k
        tail = m * _decayed_series(1.0, -log_factorials, x, x)
    return first + tail


# ---------------------------------------------------------------------------
# the error grid
# ---------------------------------------------------------------------------

#: the error variants (see :func:`adiabatic_error`) and the bounds by name; the only spelling of either
VARIANTS = ("plain", "peripheral")
BOUNDS = {"adiabatic": bound_adiabatic, "cptp": bound_cptp, "simplified": bound_simplified}
#: the frozen sweep CSV header and the keys of an :func:`evaluate_grid` grid
CSV_COLUMNS = ("gamma", "t", *(f"error_{name}" for name in VARIANTS), *(f"bound_{name}" for name in BOUNDS))


def evaluate_grid(split: ZenoSplit, gammas, t_grid, variants=VARIANTS, bounds=()) -> dict[str, np.ndarray | None]:
    """One (gamma, t) array per ``CSV_COLUMNS`` key over sorted gammas x sorted t_grid; columns not requested are None.

    ``gamma`` and ``t`` hold the mesh, so cell (i, j) of every column
    belongs to the i-th smallest gamma and the j-th smallest t.  The names
    in ``variants`` and ``bounds`` (keys of ``BOUNDS``), every
    gamma (positive) and every t (nonnegative), each grid a finite number
    or a 1-D sequence of them, are read before any work, and error cells
    whose t (gamma B + C) may leave the Pade kernel's range, or whose
    e^{gamma t b_k} overflows for an eigenvalue b_k of B, raise instead of
    reaching it.  The bounds are evaluated at the constants
    ``BoundInputs.from_split`` measures over this grid's horizon (largest
    t, largest gamma), where the paper's M must hold; each takes the whole
    grid in one call.  The errors are evaluated in ``split.frame`` (float64
    for a GKLS pair, so the exponentials, products and SVDs are real), over
    the whole t-grid for a chunk of gammas at a time: as many as fit in a
    quarter of ``_M_STACK_ENTRIES`` matrix entries, and at least one.  Per
    chunk, e^{t(gamma B + C)} is one stacked call of the Pade kernel,
    e^{t gamma B} one :func:`spectral_expm` call on the frame's U and V (no
    Pade), and each variant one stacked SVD; one e^{t C_Z} stack is shared
    by every chunk and both variants.  :func:`adiabatic_error` is this grid
    at one point.
    """
    split = _read.instance("split", split, ZenoSplit)
    variants, bounds = _read.names("variants", variants, VARIANTS), _read.names("bounds", bounds, tuple(BOUNDS))
    gammas = np.sort(_read.times("evaluate_grid gamma", gammas, "positive").reshape(-1))
    ts = np.sort(_read.times("evaluate_grid t", t_grid, "nonnegative").reshape(-1))
    grid = dict.fromkeys(CSV_COLUMNS)
    grid["gamma"], grid["t"] = np.meshgrid(gammas, ts, indexing="ij")
    if not (gammas.size and ts.size):  # an empty grid: the requested columns hold no cells
        grid.update((key, np.empty(grid["t"].shape)) for key in (*(f"error_{name}" for name in variants),
                                                                  *(f"bound_{name}" for name in bounds)))
        return grid
    if bounds:
        inputs = BoundInputs.from_split(split, t_max=float(ts[-1]), gamma_max=float(gammas[-1]))
    grid.update((f"bound_{name}", BOUNDS[name](inputs, gammas[:, None], ts)) for name in bounds)
    if variants:
        grid.update(_error_columns(split, gammas, ts, variants))
    return grid


def _error_columns(split: ZenoSplit, gammas: np.ndarray, ts: np.ndarray, variants) -> dict:
    """The requested error columns over gammas x ts as (gamma, t) arrays (see :func:`evaluate_grid`)."""
    frame, dim = split.frame, len(split.frame.b)
    if ts[-1] * max(gammas[-1] * _onenorms(frame.b) + _onenorms(frame.c), _onenorms(frame.c_z)) > _EXPM_RANGE:
        raise ValidationError(f"t (gamma B + C) may be out of the Pade kernel's range: a 1-norm bound exceeds "
                              f"{_EXPM_RANGE:.3g}")
    _check_exponent(split.decomposition, float(gammas[-1] * ts[-1]), "gamma t")
    zeno_exps = _expm_stack(ts[:, None, None] * frame.c_z)
    columns = {f"error_{name}": np.empty((gammas.size, ts.size)) for name in VARIANTS if name in variants}
    # the Pade kernel holds about eight stacks of a chunk's size at once: a quarter of
    # the M sample's entries keeps the grid's peak memory within the M sample's
    per_chunk = max(1, _M_STACK_ENTRIES // (4 * ts.size * dim * dim))
    for lo in range(0, gammas.size, per_chunk):
        chunk = gammas[lo:lo + per_chunk]
        exponent = chunk[:, None, None] * frame.b + frame.c
        lhs = _expm_stack((ts[:, None, None] * exponent[:, None]).reshape(-1, dim, dim))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing e^{t gamma B} raises below
            strong = spectral_expm(split.decomposition, np.multiply.outer(chunk, ts).ravel(), frame.u, frame.v)
            strong = (strong.real.copy() if frame.real else strong).reshape(chunk.size, ts.size, dim, dim)
            rhs = (strong @ zeno_exps).reshape(lhs.shape)  # each gamma's t-stack times the one e^{t C_Z} stack
            for key, values in columns.items():
                limit = rhs @ frame.p_phi if key == "error_peripheral" else rhs
                values[lo:lo + chunk.size] = spectral_norms(lhs - limit).reshape(chunk.size, ts.size)
        del exponent, lhs, strong, rhs, limit  # so the next chunk's stacks do not coexist with these
    return columns


def adiabatic_error(split: ZenoSplit, gamma: float, t: float,
                    variant: str = "peripheral") -> float:
    """Spectral-norm distance from e^{t(gamma B + C)} to its Zeno limit: :func:`evaluate_grid` at one point.

    variant 'plain':      || e^{t(gamma B+C)} - e^{t gamma B} e^{t C_Z} ||
    variant 'peripheral': the same with a trailing P_phi on the limit.
    """
    grid = evaluate_grid(split, (gamma,), (t,), (variant,))  # an array gamma or t is 2-D there and raises
    return float(grid[f"error_{variant}"][0, 0])


# ---------------------------------------------------------------------------
# pulsed Zeno, Bohr-frequency projections
# ---------------------------------------------------------------------------

def pulsed_zeno_product(p, l, t: float, n: int) -> float:
    """The distance of (P e^{(t/n) L})^n from its n -> inf limit e^{t P L P} P.

    It is the raw spectral-norm difference of exactly these two
    expressions (the limit carries the trailing projection).
    """
    t, n = _read.real("t", t), _read.integer("n", n)
    p, l = _read.pair("projection P", p, "generator L", l)
    idem = spectral_norm(p @ p - p)
    if idem > 1e-10 * max(1.0, spectral_norm(p)):
        raise ValidationError(f"projection is not idempotent (defect {idem:.3e})")
    product = np.linalg.matrix_power(p @ expm(l, t / n), n)
    return spectral_norm(product - expm(p @ l @ p, t) @ p)


#: the Hermitian tolerance of K: ||K - K^dagger|| <= 1e-10 max(||K||, 1)
_HERMITIAN = (1e-10, 1.0)


@dataclass(frozen=True)
class BohrComponent:
    """One transition frequency of [K, .] with its sandwich projection."""

    omega: float
    projector: np.ndarray = field(repr=False)


def commutator_projections(k) -> list[BohrComponent]:
    """Spectral projections of the commutator superoperator [K, .].

    The spectrum of [K, .] is the set of Bohr frequencies
    omega = eps_m - eps_n of K, and the projection belonging to omega is
    sum over all pairs at that frequency of P_m (.) P_n.  Frequencies are
    clustered like the eigenvalues of K, at the same tolerance (:func:`_bohr_components`).
    """
    return _bohr_components(_read.matrix("K", k, shape="square", hermitian=_HERMITIAN))


def _bohr_components(k: np.ndarray) -> list[BohrComponent]:
    """:func:`commutator_projections` of a read Hermitian K.

    The eigenvalues of K, then the Bohr frequencies, are grouped by
    :func:`spectral._cluster_eigenvalues` at tol = 1e-7 max(||K||, 1):
    single linkage at tol, then representatives within 2 tol merge.
    """
    tol = 1e-7 * max(spectral_norm(k), 1.0)
    w, u = np.linalg.eigh(k)
    groups, centers = _cluster_eigenvalues(w, tol)
    eig = [(c.real, u[:, g] @ u[:, g].conj().T) for g, c in zip(groups, centers)]
    pairs = [(pm, pn) for _, pm in eig for _, pn in eig]
    bohr = np.array([em - en for em, _ in eig for en, _ in eig])
    groups, freqs = _cluster_eigenvalues(bohr, tol)
    return [BohrComponent(omega=f.real,
                          projector=sum(sandwich_super(*pairs[i]) for i in g))
            for g, f in zip(groups, freqs)]


def fast_oscillation_zeno(sys: GklsSystem, k) -> Superoperator:
    """Fast-oscillation Zeno generator L_Z = sum_omega P_omega L P_omega.

    L is the Liouvillian of ``sys`` and P_omega the Bohr-frequency
    projections of [K, .] from :func:`commutator_projections`.
    """
    sys = _read.instance("sys", sys, GklsSystem)
    k = _read.matrix("K", k, shape=(sys.d, sys.d), hermitian=_HERMITIAN)
    full = liouvillian(sys).mat
    mat = np.zeros_like(full)
    for comp in _bohr_components(k):
        mat += comp.projector @ full @ comp.projector
    return Superoperator(sys.d, mat, "projected")
