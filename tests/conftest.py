"""Shared fixtures and independent oracles.

The oracles deliberately avoid the code paths they check: the matrix
exponential is a scaled Taylor series (the package uses Pade), the
largest singular value comes from power iteration on A^dag A (the package
uses SVD), the three error bounds are their closed forms evaluated one
point at a time in 50-digit mpmath (the package evaluates whole grids in
float64, its series in log space), the purity decay rate at a state is
the Hilbert-space formula (the package rates a quadratic form in
vec(rho)), and the projected Hamiltonian is sum_n P_n H P_n from
``eigh`` (the package projects superoperators).
The Dyson check holds the measured M to the statement it must satisfy.
"""

import contextlib
import functools
import io
import math
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from zeno_limits import BoundInputs, GklsSystem, acceptance, expm, liouvillian, spectral_norm, zeno_split
from zeno_limits.linalg import spectral_norms


def taylor_expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tA} by scaling-and-squaring a plain Taylor series."""
    a = np.asarray(a, dtype=complex) * t
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    b = a / (2.0 ** s)
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    k = 1
    while True:
        term = term @ b / k
        out += term
        if np.linalg.norm(term, 1) < 1e-20 * max(np.linalg.norm(out, 1), 1.0):
            break
        k += 1
        if k > 200:  # pragma: no cover
            raise RuntimeError("Taylor series failed to converge")
    for _ in range(s):
        out = out @ out
    return out


def power_iteration_norm(a: np.ndarray, iters: int = 800, seed: int = 0) -> float:
    """Largest singular value via power iteration on A^dag A."""
    rng = np.random.default_rng(seed)
    gram = a.conj().T @ a
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


#: the largest float64; the package writes inf past it
_FLOAT_MAX = mpmath.mpf(sys.float_info.max)


def _capped(value, cap=_FLOAT_MAX):
    """``value``, or +inf past ``cap``, where the package documents inf."""
    return mpmath.inf if value > cap else value


def _reference_difference_quotient(a, b, t):
    if abs(a - b) * t / 2 >= 350:  # the package's cap
        return mpmath.inf
    if a == b:
        return _capped(mpmath.exp(t * a) * (1 + t * a))
    return _capped((a * mpmath.exp(t * a) - b * mpmath.exp(t * b)) / (a - b))


def _reference_envelope_integral(p_coeffs, eta):
    if math.isinf(eta):
        return mpmath.mpf(0)
    return mpmath.fsum(mpmath.factorial(n) * pn / mpmath.mpf(eta) ** (n + 1) for n, pn in enumerate(p_coeffs))


def _reference_decayed_series(coeffs, x, decay):
    """e^{-decay} sum_n coeffs[n] x^n, or +inf past e^700, the package's cap."""
    return _capped(mpmath.exp(-decay) * mpmath.fsum(c * x ** n for n, c in enumerate(coeffs)), mpmath.exp(700))


def reference_bound(name, inputs, gamma, t):
    """``bound_<name>`` at one (gamma, t), its closed form evaluated in 50-digit mpmath.

    Every constant enters exactly, as the float it is.  The value is +inf
    where the package's is: past e^700 in the envelope tail, from |x| = 350
    in the difference quotient, and where an exponential factor, the
    bracket that is divided by gamma, or the value leaves float64's range.
    """
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        m, nc, ncz, gamma, t = mpf(inputs.m_bound), mpf(inputs.norm_c), mpf(inputs.norm_cz), mpf(gamma), mpf(t)
        eta = mpmath.inf if math.isinf(inputs.eta) else mpf(inputs.eta)
        integral = _reference_envelope_integral(inputs.p_coeffs, inputs.eta)
        if name == "simplified":
            mm = inputs.dim * mpf(inputs.chi)
            coef = (0 if math.isinf(inputs.delta) else 2 * mm / inputs.delta) + 1 / eta
            first = mm * mm * coef * nc * _capped(mpmath.exp(2 * t * mm * mm * nc)) / gamma if coef else 0
            if math.isinf(inputs.eta):
                tail = 0 if t else mm
            else:
                y = gamma * eta * t
                tail = mm * _reference_decayed_series([1 / mpmath.factorial(n) for n in range(inputs.dim)], y, y)
            return _capped(first + tail)
        if name == "adiabatic":
            term = (m + 1) * inputs.resolvent_sum * _reference_difference_quotient(m * nc, ncz, t)
            if integral:  # a zero envelope makes the Dyson term 0
                term += m * nc * _capped(mpmath.exp(t * m * nc)) * integral
        else:
            term = m * inputs.resolvent_sum_norm * (2 + m * t * (nc + ncz)) + m * nc * integral
        if math.isinf(inputs.eta) or not t:
            tail = mpf(inputs.p_coeffs[0]) if not t else 0
        else:
            tail = _reference_decayed_series([mpf(pn) for pn in inputs.p_coeffs], gamma * t, gamma * eta * t)
        return _capped(_capped(term) / gamma + tail)


def purity_objective(sys: GklsSystem, rho) -> float:
    """The purity decay rate -d/dt tr rho^2 at the state rho, 2 sum_i [tr(L_i^dag L_i rho^2) - tr(L_i^dag rho L_i rho)].

    H never enters it, so the value is the same for systems that differ only in H.
    """
    rho = np.asarray(rho, dtype=complex)
    r2 = rho @ rho
    val = 0.0
    for L in sys.jumps:
        val += np.trace(L.conj().T @ L @ r2).real - np.trace(L.conj().T @ rho @ L @ rho).real
    return 2.0 * val


def hamiltonian_zeno(k, h) -> np.ndarray:
    """The projected Hamiltonian H_Z = sum_n P_n H P_n over the eigenprojections P_n of a Hermitian K.

    Eigenvalues of K within 1e-9 max(||K||, 1) of the previous one share a projection.
    """
    w, u = np.linalg.eigh(k)
    cuts = np.flatnonzero(np.diff(w) > 1e-9 * max(np.abs(w).max(initial=0.0), 1.0)) + 1
    hz = np.zeros_like(np.asarray(h, dtype=complex))
    for cols in np.split(np.arange(len(w)), cuts):
        p = u[:, cols] @ u[:, cols].conj().T
        hz += p @ h @ p
    return hz


class DysonCheck(NamedTuple):
    m_bound: float
    max_semigroup_ratio: float
    max_perturbed_ratio: float
    satisfied: bool


def dyson_check(b, c, gamma: float, t_grid) -> DysonCheck:
    """The statements M must satisfy on a t-grid: ||e^{tB}|| <= M and ||e^{t(gamma B + C)}|| <= M e^{tM||C||}.

    M and ||C|| are those :meth:`BoundInputs.from_split` measures for ``zeno_split(b, c)`` over
    [0, gamma max(t_grid)], so a pair that the split rejects raises its error, as does a horizon
    ``from_split`` refuses.  Reports M and the worst ratios of each norm to its bound; ``satisfied``
    allows 1e-12 for rounding at equality.  An overflowing exponential raises from ``expm`` or
    ``spectral_norms``, and an overflowing right-hand side is inf, where the bound holds.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    inputs = BoundInputs.from_split(zeno_split(b, c), t_max=float(t_grid.max()), gamma_max=gamma)
    m = inputs.m_bound
    with np.errstate(over="ignore", invalid="ignore"):
        semigroup = spectral_norms(expm(b, t_grid)) / m
        perturbed = spectral_norms(expm(gamma * b + c, t_grid)) / (m * np.exp(t_grid * m * inputs.norm_c))
    ratio_semi, ratio_pert = float(semigroup.max()), float(perturbed.max())
    return DysonCheck(m, ratio_semi, ratio_pert, ratio_semi <= 1.0 + 1e-12 and ratio_pert <= 1.0 + 1e-12)


def decomposition_residuals(dec, a: np.ndarray) -> dict:
    """The three residuals ``decompose`` keeps below ``RESIDUAL_FACTOR * cluster_tol``, formed from the
    clusters' own P_k and N_k rather than from U and V: ||sum_k P_k - I||, ||sum_k (b_k P_k + N_k) - A||
    and max_ij ||P_i P_j - delta_ij P_i||."""
    projections = [c.projection for c in dec.clusters]
    return {"completeness": spectral_norm(sum(projections) - np.eye(dec.dim)),
            "reconstruction": spectral_norm(sum(c.eigenvalue * c.projection + c.nilpotent for c in dec.clusters) - a),
            "orthogonality": max(spectral_norm(p @ q - (p if i == j else 0.0))
                                 for i, p in enumerate(projections) for j, q in enumerate(projections))}


def random_complex(rng, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n: int) -> np.ndarray:
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def bench_pair(seed: int, d: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """The (B, C) superoperators of the bench's ``dissipative-d64`` pair at ``seed``, rebuilt here.

    The bench's ``random_pair`` recipe: from ``SeedSequence([seed, d])``, a
    Gaussian Hermitian H and traceless complex Gaussian jumps (two in B, one
    in C), each generator scaled to unit spectral norm.
    """
    def generator(n_jumps: int, rng) -> np.ndarray:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (a + a.conj().T) / 2.0
        jumps = []
        for _ in range(n_jumps):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            jumps.append(m - (np.trace(m) / d) * np.eye(d))
        scale = np.linalg.norm(liouvillian(GklsSystem(d=d, hamiltonian=h, jumps=tuple(jumps))).mat, 2)
        system = GklsSystem(d=d, hamiltonian=h / scale, jumps=tuple(m / math.sqrt(scale) for m in jumps))
        return liouvillian(system).mat

    strong_seq, weak_seq = np.random.SeedSequence([seed, d]).spawn(2)
    return generator(2, np.random.default_rng(strong_seq)), generator(1, np.random.default_rng(weak_seq))


@functools.cache
def acceptance_pass() -> tuple[dict, str, str]:
    """One ``zeno-limits acceptance`` pass, shared by the suite.

    Returns the results by criterion number, the lines the driver printed
    for them and the figure CSV it wrote: one ``all_criteria`` call, whose
    return the driver reports.
    """
    results, figure_csv = acceptance.all_criteria()
    with tempfile.TemporaryDirectory() as tmp:
        path, lines = Path(tmp) / "fig.csv", io.StringIO()
        with contextlib.redirect_stdout(lines):
            acceptance.run_acceptance(results, figure_csv, str(path))
        written = path.read_text()
    return {res.number: res for res in results}, lines.getvalue(), written


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
