"""Shared fixtures and independent oracles.

The oracles deliberately avoid the code paths they check: the matrix
exponential is a scaled Taylor series (the package uses Pade), the
largest singular value comes from power iteration on A^dag A (the package
uses SVD), the three error bounds are evaluated one point at a time
with ``scipy.special.logsumexp`` and ``gammaln`` (the package evaluates
whole grids with its own max-shift form and log-factorial table), the
purity decay rate at a state is the Hilbert-space formula (the package
rates a quadratic form in vec(rho)), and the projected Hamiltonian is
sum_n P_n H P_n from ``eigh`` (the package projects superoperators).
The Dyson check holds the measured M to the statement it must satisfy.
"""

import contextlib
import functools
import io
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

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


def _reference_difference_quotient(a, b, t):
    x = (a - b) * t / 2.0
    if abs(x) < 1e-5:
        sinhc = 1.0 + x * x / 6.0 + x ** 4 / 120.0
    else:
        sinhc = math.sinh(x) / x if abs(x) < 350 else math.inf
    with np.errstate(over="ignore"):
        return float(np.exp((a + b) * t / 2.0) * (np.cosh(x) + (a + b) * (t / 2.0) * sinhc))


def _reference_envelope_integral(p_coeffs, eta):
    if math.isinf(eta):
        return 0.0
    return float(sum(math.factorial(n) * pn / eta ** (n + 1) for n, pn in enumerate(p_coeffs)))


def _reference_envelope_tail(p_coeffs, eta, gamma, t):
    x = gamma * t
    if math.isinf(eta) or x == 0.0:
        return float(p_coeffs[0]) if x == 0.0 else 0.0
    logs = [math.log(pn) + n * math.log(x) for n, pn in enumerate(p_coeffs) if pn > 0]
    if not logs:
        return 0.0
    log_val = logsumexp(logs) - gamma * eta * t
    return float(np.exp(log_val)) if log_val < 700 else math.inf


def _reference_truncated_exponential(dim, x):
    if x <= 0.0:
        return 1.0
    ns = np.arange(dim)
    return float(np.exp(logsumexp(ns * math.log(x) - gammaln(ns + 1)) - x))


def reference_bound(name, inputs, gamma, t):
    """``bound_<name>`` at one (gamma, t), straight from its closed form."""
    m, nc, ncz = inputs.m_bound, inputs.norm_c, inputs.norm_cz
    integral = _reference_envelope_integral(inputs.p_coeffs, inputs.eta)
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "adiabatic":
            term = (m + 1.0) * inputs.resolvent_sum * _reference_difference_quotient(m * nc, ncz, t)
            if integral:  # the Dyson term is 0 times a finite number, even where it overflows
                term += m * nc * np.exp(min(t * (m * nc), 1e300)) * integral
        elif name == "cptp":
            term = m * inputs.resolvent_sum_norm * (2.0 + m * t * (nc + ncz)) + m * nc * integral
        else:
            mm = inputs.dim * inputs.chi
            coef = (0.0 if math.isinf(inputs.delta) else 2.0 * mm / inputs.delta) + (
                0.0 if math.isinf(inputs.eta) else 1.0 / inputs.eta)
            first = 0.0
            if coef > 0.0:
                first = mm * mm * coef * nc * np.exp(min(2.0 * t * mm * mm * nc, 1e300)) / gamma
            if math.isinf(inputs.eta):
                return float(first + (0.0 if t > 0 else mm))
            return float(first + mm * _reference_truncated_exponential(inputs.dim, gamma * inputs.eta * t))
        return float(term / gamma + _reference_envelope_tail(inputs.p_coeffs, inputs.eta, gamma, t))


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
