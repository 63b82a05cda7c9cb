"""Acceptance suite: one callable per verification criterion.

Each ``criterion_*`` check computes ``(passed, detail)``, and the harness
:func:`_criterion` times it and builds its :class:`CriterionResult`;
:func:`all_criteria` runs all of them, and the :func:`run_acceptance`
driver prints one pass/fail line per criterion of that pass and reports
an overall exit code.  The pytest module ``tests/test_acceptance.py``
asserts the same results, so the CLI and the test suite cannot drift
apart.

Tolerances are fixed here, not configurable: they are the contract.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .gkls import (
    GklsSystem,
    NoGoReport,
    PurityOptions,
    Superoperator,
    canonicalize,
    gkls_form_check,
    hamiltonian_superoperator,
    liouvillian,
    no_go_check,
    purity_decay_rate,
)
from .jsonio import write_text
from .linalg import expm, sandwich_super, spectral_norm, spectral_norms
from .models import (
    ThreeLevelParams,
    dephasing_qubit_example,
    gkls_corpus,
    gkls_pair_corpus,
    random_gkls,
    three_level_analytic_propagator,
    three_level_generators,
    three_level_peripheral,
    three_level_zeno_generator,
)
from .spectral import condition_number, decompose
from .experiments import spectral_property_check, summarize_grid
from .zeno import (
    BOUNDS,
    BoundInputs,
    _norm_constants,
    bound_cptp,
    commutator_projections,
    evaluate_grid,
    fast_oscillation_zeno,
    pulsed_zeno_product,
    zeno_split,
)

__all__ = ["CriterionResult", "NoGoCase", "all_criteria", "run_acceptance"]


@dataclass(frozen=True)
class NoGoCase:
    """One criterion-8 instance: the system, its projected L_Z and both rates."""
    label: str
    system: GklsSystem
    zeno_generator: Superoperator
    report: NoGoReport


@dataclass
class CriterionResult:
    number: str
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0
    cases: tuple[NoGoCase, ...] = ()  # criterion 8's instances, dephasing first
    csv_text: str = ""  # criterion 6's figure CSV


def _criterion(number: str, name: str):
    """Make a check returning ``(passed, detail[, dict of extra fields])`` a criterion that times
    every call, however it is called, and returns its :class:`CriterionResult`."""
    def harness(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            start = time.monotonic()
            passed, detail, *extra = check()
            return CriterionResult(number, name, bool(passed), detail, time.monotonic() - start, **dict(*extra))
        return criterion
    return harness


def _random_params(rng) -> ThreeLevelParams:
    """Parameter draws kept away from degenerate corners (g, kappa -> 0)."""
    return ThreeLevelParams(
        omega0=float(rng.uniform(-2, 2)),
        omega1=float(rng.uniform(-2, 2)),
        omega2=float(rng.uniform(-2, 2)),
        gamma=float(rng.uniform(0.2, 3.0)),
        g=float(rng.uniform(0.5, 2.5)),
        w2=float(rng.uniform(-2, 2)),
        kappa=float(rng.uniform(0.5, 2.5)),
    )


@_criterion("1", "three-level analytic propagator")
def criterion_1():
    """Analytic propagator of the strong three-level generator vs expm."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    ts = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    for _ in range(20):
        p = _random_params(rng)
        _, d_super = three_level_generators(p)
        analytic = np.stack([three_level_analytic_propagator(p, t).mat for t in ts.tolist()])
        worst = max(worst, float(spectral_norms(analytic - expm(d_super.mat, ts)).max()))
    elapsed = time.monotonic() - start
    return (worst <= 1e-8 and elapsed < 5.0,
            f"max |analytic - expm| = {worst:.3e} (tol 1e-8), {elapsed:.2f}s (limit 5s)")


@_criterion("2", "three-level peripheral structure")
def criterion_2():
    """Peripheral clusters of the strong generator: {0, -2ig, +2ig} and projections."""
    rng = np.random.default_rng(202)
    worst_eig, worst_proj = 0.0, 0.0
    count_ok = True
    for p in [ThreeLevelParams()] + [_random_params(rng) for _ in range(10)]:
        _, d_super = three_level_generators(p)
        dec = decompose(d_super.mat)
        periph = dec.peripheral_clusters
        count_ok = count_ok and len(periph) == 3
        closed = three_level_peripheral(p)
        targets = {0: closed.p_0.mat, 1: closed.p_plus.mat, 2: closed.p_minus.mat}
        for c in periph:
            idx = int(np.argmin([abs(c.eigenvalue - e) for e in closed.eigenvalues]))
            worst_eig = max(worst_eig, abs(c.eigenvalue - closed.eigenvalues[idx]))
            worst_proj = max(worst_proj, spectral_norm(c.projection - targets[idx]))
    return (count_ok and worst_eig <= 1e-8 and worst_proj <= 1e-8,
            f"three peripheral clusters: {count_ok}; max eigenvalue error {worst_eig:.3e}; "
            f"max projection error {worst_proj:.3e} (tol 1e-8)")


@_criterion("3", "three-level Zeno generator")
def criterion_3():
    """Zeno-projected weak generator matches its closed form."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        p = _random_params(rng)
        l_super, d_super = three_level_generators(p)
        split = zeno_split(d_super.mat, l_super.mat)
        worst = max(worst, spectral_norm(split.c_z - three_level_zeno_generator(p).mat))
    return worst <= 1e-8, f"max |C_Z - closed form| = {worst:.3e} (tol 1e-8)"


GAMMA_GRID = (10.0, 30.0, 100.0, 300.0, 1000.0)


@_criterion("4", "convergence rate")
def criterion_4():
    """O(1/gamma) convergence rate at the reference parameter set.

    Slope fitted on the top half of the gamma grid (the small-gamma points
    are pre-asymptotic; the full-grid fit is reported in the detail).
    """
    start = time.monotonic()
    t_grid = np.unique(np.concatenate([np.linspace(0.25, 2.0, 32),
                                       np.geomspace(0.25, 2.0, 32)]))
    details, ok = [], True
    for g in (1.0, 2.0):
        l_super, d_super = three_level_generators(ThreeLevelParams(g=g))
        split = zeno_split(d_super.mat, l_super.mat)
        summary = summarize_grid(evaluate_grid(split, GAMMA_GRID, t_grid, ("peripheral",)))
        slope, slope_full = summary["slope"], summary["slope_full_grid"]
        ok = ok and -1.15 <= slope <= -0.85
        details.append(f"g={g}: slope {slope:.3f} (full-grid {slope_full:.3f})")
    elapsed = time.monotonic() - start
    return (ok and elapsed < 30.0,
            "; ".join(details) + f" (window [-1.15, -0.85]); {elapsed:.1f}s (limit 30s)")


@_criterion("5", "bound dominance")
def criterion_5():
    """All three bounds dominate the measured error, at constants measured over the grid."""
    t_grid = np.linspace(0.25, 2.0, 6)
    gammas = (10.0, 100.0, 1000.0)
    worst = -math.inf
    l_super, d_super = three_level_generators(ThreeLevelParams())
    cases = [(d_super.mat, l_super.mat)]
    for strong, weak in gkls_pair_corpus():
        cases.append((liouvillian(strong).mat, liouvillian(weak).mat))
    for b, c in cases:
        grid = evaluate_grid(zeno_split(b, c), gammas, t_grid, ("peripheral",), bounds=tuple(BOUNDS))
        worst = max(worst, summarize_grid(grid)["max_bound_violation"])
    return (worst <= 1e-9,
            f"max (error - bound) over 51 instances x {len(gammas)} gammas x "
            f"{len(t_grid)} times = {worst:.3e} (slack limit 1e-9)")


@_criterion("6", "fixed-constant bound curve")
def criterion_6():
    """Bound curve with fixed constants dominates the error curves.

    Evaluated with M = sqrt(2), p = sqrt(2), eta = kappa/2 (the norms of
    C, C_Z and S_l C P_l come from each split; no M is sampled), the bound
    must decrease in gamma and dominate the measured error on t in
    [0.1, 2] for all six panel parameter sets; the dataset is emitted
    as CSV.
    """
    t_grid = np.linspace(0.1, 2.0, 12)
    ok = True
    details = []
    lines = ["panel_g,panel_gamma_rate,gamma,t,error_peripheral,bound_cptp_caption"]
    for g in (0.1, 1.0, 2.0):
        for gamma_rate in (0.0, 2.0):
            p = ThreeLevelParams(gamma=gamma_rate, g=g)
            l_super, d_super = three_level_generators(p)
            split = zeno_split(d_super.mat, l_super.mat)
            caption = BoundInputs(m_bound=math.sqrt(2.0), eta=p.kappa / 2.0,
                                  delta=split.gap_data.delta, chi=condition_number(split.decomposition),
                                  dim=split.decomposition.dim, p_coeffs=np.array([math.sqrt(2.0)]),
                                  **_norm_constants(split))
            panel = evaluate_grid(split, GAMMA_GRID, t_grid, ("peripheral",))
            errs = panel["error_peripheral"]
            bounds = bound_cptp(caption, np.array(GAMMA_GRID)[:, None], t_grid)
            for cells in zip(*(a.ravel().tolist() for a in (panel["gamma"], panel["t"], errs, bounds))):
                lines.append(",".join([str(g), str(gamma_rate), *map(repr, cells)]))
            min_margin = float((bounds - errs).min())
            monotone = bool(np.all(bounds[1:] <= bounds[:-1] + 1e-12))
            ok = ok and monotone and min_margin >= 0.0
            details.append(f"g={g},rate={gamma_rate}: margin {min_margin:.2e}, monotone {monotone}")
    return ok, "; ".join(details), {"csv_text": "\n".join(lines) + "\n"}


@_criterion("7", "dephasing-qubit example")
def criterion_7():
    """Dephasing-qubit projected generators: closed forms and GKLS verdicts."""
    ex = dephasing_qubit_example()
    comps = commutator_projections(ex.hamiltonian)
    total = sum(c.projector @ ex.l_super.mat @ c.projector for c in comps)
    kernel = next(c.projector for c in comps if abs(c.omega) <= 1e-12)
    compressed = kernel @ ex.l_super.mat @ kernel
    d_zeno = spectral_norm(total - ex.expected_zeno.mat)
    d_non = spectral_norm(compressed - ex.expected_non_gkls.mat)
    zeno_ok = gkls_form_check(ex.expected_zeno).conditionally_completely_positive
    non_ok = gkls_form_check(ex.expected_non_gkls).conditionally_completely_positive
    return (d_zeno <= 1e-10 and d_non <= 1e-10 and zeno_ok and not non_ok,
            f"|sum P L P - (D_X + D_Y)/8| = {d_zeno:.3e}, "
            f"|P0 L P0 - (D_X + D_Y - D_Z)/8| = {d_non:.3e} (tol 1e-10); "
            f"GKLS verdicts: projected {zeno_ok} (want True), compressed {non_ok} (want False)")


@_criterion("8", "no-go purity-rate agreement")
def criterion_8():
    """No-go check: purity decay rates of L and of the projected L_Z.

    Every instance is a qubit, so each rate is an exact trust-region solve.
    Agreement is exact for the dephasing qubit.  L_Z's purity functional at
    rho is the mean of L's over the orbit e^{-isK} rho e^{isK}, so
    Gamma(L_Z) <= Gamma(L), with equality only when some maximizer of L's
    functional has its whole orbit maximizing; for generic random instances
    it does not, and the blanket 1e-6 agreement asserted here fails.  The
    Gamma = 0 iff D = 0 separation is asserted in criterion 8b.
    """
    ex = dephasing_qubit_example()
    cases = [NoGoCase("dephasing", ex.system, ex.expected_zeno,
                      no_go_check(ex.system, ex.expected_zeno))]
    for i in range(10):
        sys = random_gkls(2, 1 + i % 2, seed=4000 + i)
        lz = fast_oscillation_zeno(sys, sys.hamiltonian)
        cases.append(NoGoCase(f"seed {4000 + i}", sys, lz, no_go_check(sys, lz)))
    gaps = [abs(c.report.gamma_original - c.report.gamma_projected) for c in cases]
    first = cases[0].report
    details = [f"dephasing: |{first.gamma_original:.8f} - {first.gamma_projected:.8f}| = {gaps[0]:.2e}",
               f"max |Gamma(L) - Gamma(L_Z)| over 10 random instances = {max(gaps):.3e}"]
    return max(gaps) <= 1e-6, "; ".join(details) + " (tol 1e-6)", {"cases": tuple(cases)}


@_criterion("8b", "no-go purity-rate separation")
def criterion_8b():
    """Gamma = 0 exactly for vanishing dissipators, bounded away otherwise."""
    opts = PurityOptions(restarts=16, seed=11)
    zeros, nonzeros = [], []
    for i in range(5):
        unitary = random_gkls(2 + i % 3, 0, seed=5000 + i)
        zeros.append(purity_decay_rate(canonicalize(unitary), opts))
        noisy = random_gkls(2 + i % 3, 1, seed=5100 + i)
        nonzeros.append(purity_decay_rate(canonicalize(noisy), opts))
    return (max(zeros) <= 1e-12 and min(nonzeros) >= 1e-8,
            f"max Gamma(unitary) = {max(zeros):.2e} (tol 1e-12), "
            f"min Gamma(noisy) = {min(nonzeros):.2e} (floor 1e-8)")


@_criterion("9", "commutator spectral projections")
def criterion_9():
    """Bohr-frequency projections match the commutator's spectral clusters."""
    rng = np.random.default_rng(909)
    worst_match, worst_complete = 0.0, 0.0
    for i in range(10):
        d = 2 + i % 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k = (a + a.conj().T) / 2
        comps = commutator_projections(k)
        total = sum(c.projector for c in comps)
        worst_complete = max(worst_complete,
                             spectral_norm(total - np.eye(d * d)))
        dec = decompose(hamiltonian_superoperator(k))
        for comp in comps:
            target = -1j * comp.omega
            idx = int(np.argmin([abs(c.eigenvalue - target) for c in dec.clusters]))
            worst_match = max(worst_match,
                              spectral_norm(dec.clusters[idx].projection - comp.projector))
    return (worst_match <= 1e-8 and worst_complete <= 1e-8,
            f"max projection mismatch {worst_match:.3e}; "
            f"completeness defect {worst_complete:.3e} (tol 1e-8)")


@_criterion("10", "pulsed Zeno O(1/n) halving")
def criterion_10():
    """Pulsed-Zeno distance halves (within 25%) as n doubles."""
    rng = np.random.default_rng(1010)
    ok = True
    worst_dev = 0.0
    for i in range(5):
        sys = random_gkls(2, 1 + i % 3, seed=6000 + i)
        gen = liouvillian(sys).mat
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        p0 = np.outer(psi, psi.conj())
        proj = sandwich_super(p0, p0) + sandwich_super(np.eye(2) - p0, np.eye(2) - p0)
        dists = [pulsed_zeno_product(proj, gen, 1.0, n).distance for n in (8, 16, 32, 64)]
        for a, b in zip(dists, dists[1:]):
            ratio = b / a
            worst_dev = max(worst_dev, abs(ratio - 0.5) / 0.5)
            ok = ok and 0.375 <= ratio <= 0.625
    return ok, f"worst halving deviation {100 * worst_dev:.1f}% (limit 25%)"


@_criterion("11", "spectral property audit")
def criterion_11():
    """Structural audit passes on the corpus; corrupted generator fails."""
    all_ok = True
    for sys in gkls_corpus():
        rep = spectral_property_check(sys)
        all_ok = all_ok and rep.all_pass
    # sign-flipped dissipator pushes spectrum into the right half-plane
    sys = random_gkls(3, 2, seed=7777)
    lio = liouvillian(sys).mat
    ham = hamiltonian_superoperator(sys.hamiltonian)
    corrupted = ham - (lio - ham)
    rep = spectral_property_check(corrupted)
    return (all_ok and not rep.left_half_plane,
            f"corpus all pass: {all_ok}; corrupted generator "
            f"left-half-plane verdict: {rep.left_half_plane} (want False)")


def all_criteria():
    """Run every criterion; returns (results, fig2_csv_text), the CSV being criterion 6's."""
    results = [fn() for fn in (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
                               criterion_7, criterion_8, criterion_8b, criterion_9, criterion_10, criterion_11)]
    return results, "".join(res.csv_text for res in results)


def run_acceptance(results: list[CriterionResult], csv_text: str, csv_path: str | None = None) -> int:
    """Report one :func:`all_criteria` pass: write its figure CSV to ``csv_path`` if given, print one
    line per criterion and the tally to stdout, and return the exit code."""
    if csv_path:
        write_text(csv_path, csv_text)
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] criterion {res.number}: {res.name} - {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} acceptance checks passed")
    return 0 if failures == 0 else 1
