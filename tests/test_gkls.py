import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from zeno_limits import (
    GklsSystem,
    PurityOptions,
    Superoperator,
    canonicalize,
    cptp_check,
    decompose,
    expm,
    gkls_form_check,
    liouvillian,
    no_go_check,
    peripheral_projection,
    purity_decay_rate,
    random_gkls,
    spectral_norm,
    vec,
)
from zeno_limits import acceptance, gkls
from zeno_limits.errors import EstimationError, ValidationError
from zeno_limits.gkls import (
    _ascend_quadratic_form,
    _choi,
    _hermitian_basis,
    _hermiticity_residuals,
    _purity_report,
    _purity_values,
    dissipator_superoperator,
    hamiltonian_superoperator,
    purity_decay_report,
)
from zeno_limits.models import dephasing_qubit_example, gkls_corpus
from zeno_limits.zeno import fast_oscillation_zeno

from zeno_limits.linalg import spectral_norms

from conftest import purity_objective, random_complex, random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _form_rate(superop, opts=None):
    """The purity rate report of any generator G: the rate of the form G + G^dagger (``gkls._purity_report``)."""
    mat = np.asarray(superop, dtype=complex)
    return _purity_report(mat + mat.conj().T, math.isqrt(len(mat)), opts or PurityOptions())


def _choi_of(superop) -> np.ndarray:
    """The Choi matrix of a d^2 x d^2 map, by the realignment the verdicts use (``gkls._choi``)."""
    mat = np.asarray(superop, dtype=complex)
    return _choi(mat, math.isqrt(len(mat)))


def _hermiticity_defect(superop) -> float:
    """Worst non-Hermiticity of the image of a Hermitian basis, as the verdicts read it."""
    return float(spectral_norms(_hermiticity_residuals(superop.mat, superop.d)).max())


class TestLiouvillian:
    def test_trivial_system(self):
        sop = liouvillian(GklsSystem(d=2, hamiltonian=np.zeros((2, 2))))
        assert spectral_norm(sop.mat) == 0.0

    def test_qubit_bohr_frequencies(self):
        sop = liouvillian(GklsSystem(d=2, hamiltonian=SZ))
        eigs = np.sort_complex(np.round(np.linalg.eigvals(sop.mat), 10))
        assert np.allclose(eigs, [-2.0j, 0.0, 0.0, 2.0j])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            GklsSystem(d=2, hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_slightly_non_hermitian_rejected(self, rng):
        # an exactly Hermitian H skips the defect check; one a hair away still runs it
        h = random_hermitian(rng, 4)
        skew = random_complex(rng, 4)
        skew = (skew - skew.conj().T) / 2
        h = h + 2e-12 * (spectral_norm(h) / spectral_norm(skew)) * skew
        assert spectral_norm(h - h.conj().T) > 1e-12 * spectral_norm(h)
        with pytest.raises(ValidationError, match="Hermitian"):
            GklsSystem(d=4, hamiltonian=h)
        GklsSystem(d=4, hamiltonian=(h + h.conj().T) / 2)

    def test_superoperators_equal_numpy_kron_bitwise(self, rng):
        d, eye = 3, np.eye(3)
        h = random_hermitian(rng, d)
        jumps = [random_complex(rng, d), rng.standard_normal((d, d))]
        want_h = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        want_d = np.zeros((d * d, d * d), dtype=complex)
        for L in jumps:
            L = L.astype(complex)
            ldl = L.conj().T @ L
            want_d += np.kron(L.conj(), L) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
        assert hamiltonian_superoperator(h).tobytes() == want_h.tobytes()  # signed zeros included
        assert dissipator_superoperator(jumps, d).tobytes() == want_d.tobytes()

    def test_trace_annihilation(self, rng):
        for seed in range(6):
            sys = random_gkls(2 + seed % 3, seed % 4, seed=seed)
            sop = liouvillian(sys)
            row = vec(np.eye(sys.d)).conj() @ sop.mat
            assert np.linalg.norm(row) <= 1e-10

    def test_hermiticity_preservation(self):
        sys = random_gkls(3, 2, seed=9)
        assert _hermiticity_defect(liouvillian(sys)) <= 1e-10


class TestCanonicalize:
    def test_traceless_is_fixed_point(self, rng):
        sys = random_gkls(3, 2, seed=21)  # corpus jumps are already traceless
        out = canonicalize(sys)
        assert np.allclose(out.hamiltonian, sys.hamiltonian, atol=1e-14)
        for a, b in zip(out.jumps, sys.jumps):
            assert np.allclose(a, b, atol=1e-14)

    def test_identity_jump_vanishes(self):
        sys = GklsSystem(d=2, hamiltonian=SZ, jumps=(np.eye(2, dtype=complex),))
        out = canonicalize(sys)
        assert spectral_norm(out.jumps[0]) <= 1e-14
        assert np.allclose(out.hamiltonian, SZ, atol=1e-14)
        assert spectral_norm(liouvillian(out).mat - liouvillian(sys).mat) <= 1e-10

    def test_projector_jump_becomes_pauli(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        sys = GklsSystem(d=2, hamiltonian=np.zeros((2, 2)),
                         jumps=(np.outer(plus, plus.conj()),))
        out = canonicalize(sys)
        assert np.allclose(out.jumps[0], SX / 2, atol=1e-14)
        assert spectral_norm(liouvillian(out).mat - liouvillian(sys).mat) <= 1e-10

    def test_gauge_invariance_random(self, rng):
        h = random_hermitian(rng, 3)
        jumps = tuple(random_complex(rng, 3) for _ in range(2))  # not traceless
        sys = GklsSystem(d=3, hamiltonian=h, jumps=jumps)
        out = canonicalize(sys)
        for L in out.jumps:
            assert abs(np.trace(L)) <= 1e-12
        assert spectral_norm(liouvillian(out).mat - liouvillian(sys).mat) \
            <= 1e-10 * max(1.0, spectral_norm(liouvillian(sys).mat))


class TestCptpCheck:
    def test_identity_map(self):
        rep = cptp_check(Superoperator(2, np.eye(4), "propagator"))
        assert rep.trace_preserving and rep.hermiticity_preserving and rep.completely_positive
        assert abs(rep.min_choi_eigenvalue) <= 1e-12  # rank-deficient PSD Choi

    def test_transpose_map_not_cp(self):
        # transpose in column stacking: vec(rho^T) = SWAP vec(rho)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        rep = cptp_check(Superoperator(2, swap, "propagator"))
        assert not rep.completely_positive
        assert rep.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_gkls_exponential_is_cptp(self):
        sys = random_gkls(3, 2, seed=31)
        e = expm(liouvillian(sys).mat, 1.0)
        rep = cptp_check(Superoperator(3, e, "propagator"))
        assert rep.trace_preserving and rep.completely_positive

    def test_generator_provenance_rejected(self):
        sys = random_gkls(2, 1, seed=1)
        with pytest.raises(ValidationError):
            cptp_check(liouvillian(sys))


class TestGklsFormCheck:
    def test_liouvillian_output_is_gkls(self):
        for seed in (2, 3):
            sop = liouvillian(random_gkls(2 + seed % 3, 1 + seed % 3, seed=seed))
            rep = gkls_form_check(sop)
            assert rep.trace_annihilating
            assert rep.hermiticity_preserving
            assert rep.conditionally_completely_positive

    def test_dephasing_projections(self):
        ex = dephasing_qubit_example()
        assert gkls_form_check(ex.expected_zeno).conditionally_completely_positive
        rep = gkls_form_check(ex.expected_non_gkls)
        assert not rep.conditionally_completely_positive

    def test_propagator_provenance_rejected(self):
        with pytest.raises(ValidationError):
            gkls_form_check(Superoperator(2, np.eye(4), "propagator"))


class TestPeripheralMapPositivity:
    def test_peripheral_exponential_cptp_at_signed_times(self):
        for seed in (4, 5):
            sys = random_gkls(2 + seed % 2, 1 + seed % 2, seed=seed)
            sop = liouvillian(sys)
            dec = decompose(sop.mat)
            p_phi = peripheral_projection(dec)
            l_phi = sum(c.eigenvalue * c.projection for c in dec.peripheral_clusters)
            for t in (-1.0, 0.5, 2.0):
                rep = cptp_check(Superoperator(sys.d, expm(l_phi, t) @ p_phi, "projected"))
                assert rep.completely_positive and rep.trace_preserving, (seed, t)


class TestPurityDecay:
    def test_no_jumps_zero(self):
        sys = GklsSystem(d=3, hamiltonian=np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert purity_decay_rate(sys) == 0.0

    def test_x_jump_matches_grid_oracle(self):
        kappa = 1.7
        sys = GklsSystem(d=2, hamiltonian=np.zeros((2, 2)),
                         jumps=(np.sqrt(kappa) * SX / 2,))
        opts = PurityOptions(restarts=12, grid_density=80, seed=3)
        gamma = purity_decay_rate(sys, opts)
        # analytic maximum kappa/2 on the y-z great circle
        assert gamma == pytest.approx(kappa / 2, abs=1e-9)
        # dense pure-state grid oracle
        best = 0.0
        for th in np.linspace(0, np.pi, 100):
            for ph in np.linspace(0, 2 * np.pi, 100, endpoint=False):
                psi = np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])
                best = max(best, purity_objective(sys, np.outer(psi, psi.conj())))
        assert gamma >= best - 1e-9

    def test_z_jump_same_by_unitary_covariance(self):
        kappa = 1.7
        opts = PurityOptions(restarts=12, grid_density=80, seed=3)
        gx = purity_decay_rate(GklsSystem(2, np.zeros((2, 2)), (np.sqrt(kappa) * SX / 2,)), opts)
        gz = purity_decay_rate(GklsSystem(2, np.zeros((2, 2)), (np.sqrt(kappa) * SZ / 2,)), opts)
        assert gx == pytest.approx(gz, abs=1e-9)

    def test_hamiltonian_never_enters_objective(self, rng):
        jumps = (random_complex(rng, 2) - np.trace(random_complex(rng, 2)) / 2 * np.eye(2),)
        sys_a = GklsSystem(2, np.zeros((2, 2)), jumps)
        sys_b = GklsSystem(2, random_hermitian(rng, 2), jumps)
        rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        assert purity_objective(sys_a, rho) == purity_objective(sys_b, rho)  # bit-identical

    def test_gamma_separation(self):
        opts = PurityOptions(restarts=8, grid_density=40, seed=5)
        noisy = canonicalize(random_gkls(2, 1, seed=77))
        assert purity_decay_rate(noisy, opts) >= 1e-8
        silent = canonicalize(random_gkls(3, 0, seed=78))
        assert purity_decay_rate(silent, opts) <= 1e-12

    @staticmethod
    def _states(rng, d, count):
        """Random full-rank density matrices, then random pure states."""
        factors = [random_complex(rng, d) for _ in range(count)]
        factors += [random_complex(rng, d, 1) for _ in range(count)]
        states = [v @ v.conj().T for v in factors]
        return np.array([r / np.trace(r).real for r in states])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_values_match_reference_formula(self, rng, d):
        for seed in range(3):
            sys = random_gkls(d, 1 + seed, seed=900 + 10 * d + seed)
            diss = dissipator_superoperator(sys.jumps, d)
            full = liouvillian(sys).mat
            rhos = self._states(rng, d, 6)
            want = np.array([purity_objective(sys, r) for r in rhos])
            for hq in (diss + diss.conj().T, full + full.conj().T):
                got = _purity_values(hq, rhos)
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (d, seed, got - want)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reported_rate_is_the_reference_value_at_argmax(self, d):
        opts = PurityOptions(restarts=8, grid_density=40, seed=1)
        # one L-BFGS step leaves the restarts apart, so the maximizer must be picked
        rough = PurityOptions(restarts=4, grid_density=40, seed=1, maxiter=1)
        for seed in range(2):
            sys = random_gkls(d, 1 + seed, seed=950 + 10 * d + seed)
            for o in (opts, rough):
                rep = purity_decay_report(sys, o)
                assert rep.gamma == pytest.approx(purity_objective(sys, rep.argmax), abs=1e-12)
            # the Hamiltonian part of the full generator drops out of hq
            rate = _form_rate(liouvillian(sys), opts).gamma
            assert rate == pytest.approx(purity_decay_rate(canonicalize(sys), opts), abs=1e-12)


    def test_one_level_system_rates_zero(self):
        # d = 1: I is the only state, so the trust region's dual and the rate are 0
        rep = purity_decay_report(GklsSystem(1, np.zeros((1, 1)), (np.ones((1, 1)),)),
                                  PurityOptions(restarts=2))
        assert rep.gamma == 0.0 and rep.upper == 0.0
        np.testing.assert_array_equal(rep.argmax, np.ones((1, 1)))

    def test_ascent_failing_every_restart_is_typed(self, monkeypatch):
        starts = []
        lbfgs = gkls._lbfgs

        def failing(fun, x0, maxiter):
            # the real ascent, on an objective that is NaN everywhere, so no restart can start
            starts.extend(x0)
            return lbfgs(lambda x: (np.full(len(x), np.nan), np.full(x.shape, np.nan)), x0, maxiter)

        monkeypatch.setattr(gkls, "_lbfgs", failing)
        sys = random_gkls(3, 2, seed=31)
        with pytest.raises(EstimationError, match="every restart") as info:
            purity_decay_rate(sys, PurityOptions(restarts=3, seed=4))
        assert len(starts) == 3
        values = []
        for x in starts:
            v = (x[:9] + 1j * x[9:]).reshape(3, 3)
            w = v @ v.conj().T
            values.append(purity_objective(sys, w / np.trace(w).real))
        assert info.value.best_value == pytest.approx(max(values), rel=1e-12)


class TestPurityOptions:
    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_is_typed(self, restarts):
        with pytest.raises(ValidationError):
            PurityOptions(restarts=restarts)

    @pytest.mark.parametrize("maxiter", [0, -1])
    def test_maxiter_below_one_is_typed(self, maxiter):
        with pytest.raises(ValidationError):
            PurityOptions(maxiter=maxiter)


def _dissipator_form(sys):
    diss = dissipator_superoperator(canonicalize(sys).jumps, sys.d)
    return diss + diss.conj().T


def _generator_form(superop):
    return superop.mat + superop.mat.conj().T


def _criterion_8_forms():
    """The 22 qubit forms criterion 8 rates: L's dissipator and L_Z per case."""
    forms = []
    for case in acceptance.criterion_8().cases:
        forms += [_dissipator_form(case.system), _generator_form(case.zeno_generator)]
    return forms


class TestExactQubitRate:
    """The d = 2 trust-region solve against the multi-start ascent it replaced."""

    ASCENT = PurityOptions(restarts=12, seed=7)

    @pytest.fixture(scope="class")
    def qubit_forms(self):
        randoms = [_dissipator_form(random_gkls(2, k, seed=1200 + 10 * k + s))
                   for k in (1, 2, 3) for s in range(3)]
        return _criterion_8_forms() + randoms

    def test_exact_rate_matches_ascent(self, qubit_forms):
        assert len(qubit_forms) == 22 + 9
        for i, hq in enumerate(qubit_forms):
            exact = _form_rate(Superoperator(2, hq / 2)).gamma
            ascent = _ascend_quadratic_form(hq, 2, self.ASCENT).gamma
            assert exact >= ascent - 1e-12, (i, exact, ascent)
            assert abs(exact - ascent) <= 1e-9, (i, exact, ascent)

    def test_upper_brackets_the_rate(self, qubit_forms):
        for i, hq in enumerate(qubit_forms):
            rep = _form_rate(Superoperator(2, hq / 2))
            assert 0.0 <= rep.upper - rep.gamma <= 1e-9, (i, rep.upper, rep.gamma)
            assert rep.gamma == pytest.approx(_purity_values(hq, rep.argmax[None])[0], abs=1e-12)
            assert np.linalg.eigvalsh(rep.argmax).min() >= -1e-12  # a state

    def test_upper_bounds_ascent_above_qubits(self):
        opts = PurityOptions(restarts=4, seed=0)
        systems = [sys for sys in gkls_corpus(12) if sys.d > 2]
        assert {sys.d for sys in systems} == {3, 4}
        for sys in systems:
            rep = purity_decay_report(canonicalize(sys), opts)
            assert np.isfinite(rep.upper)
            assert rep.upper >= rep.gamma - 1e-12, (sys.d, rep.upper, rep.gamma)

    def test_hard_case_x_jump(self):
        # b = 0 (a unital dissipator) and A's bottom eigenvalue is double:
        # every pure state on the y-z great circle is a maximizer
        kappa = 1.7
        sys = GklsSystem(d=2, hamiltonian=np.zeros((2, 2)), jumps=(np.sqrt(kappa) * SX / 2,))
        rep = purity_decay_report(sys)
        assert rep.gamma == pytest.approx(kappa / 2, abs=1e-12)
        assert 0.0 <= rep.upper - rep.gamma <= 1e-12
        assert np.trace(rep.argmax @ rep.argmax).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(SX @ rep.argmax)) <= 1e-12

    def test_interior_optimum(self):
        # f(rho) = 1 - |rho - rho0|_F^2 + tr rho0^2, homogenized with tr rho = 1: the
        # maximum tr rho0^2 + 1 sits at the mixed state rho0, inside the Bloch ball
        rho0 = np.diag([0.6, 0.4]).astype(complex)
        u, v0 = vec(np.eye(2)), vec(rho0)
        hq = np.eye(4) - np.outer(v0, u.conj()) - np.outer(u, v0.conj()) - np.outer(u, u.conj())
        rep = _form_rate(Superoperator(2, hq / 2))
        assert rep.gamma == pytest.approx(1.52, abs=1e-12)
        assert np.allclose(rep.argmax, rho0, atol=1e-12)
        assert 0.0 <= rep.upper - rep.gamma <= 1e-12

    @pytest.mark.parametrize("mat", [hamiltonian_superoperator(SZ), np.zeros((4, 4))],
                             ids=["unitary", "zero"])
    def test_zero_form_reads_zero(self, mat):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rep = _form_rate(Superoperator(2, mat))
        assert rep.gamma == 0.0 and rep.upper == 0.0
        assert np.array_equal(rep.argmax, np.eye(2) / 2)


def _lbfgsb_rate(hq, d, opts):
    """The ascent's oracle: one scipy L-BFGS-B run per restart from the same starting points, scored
    like the package's ascent."""
    rng = np.random.default_rng(opts.seed)
    n = d * d

    def neg_value_grad(x):
        v = (x[:n] + 1j * x[n:]).reshape(d, d)
        w = v @ v.conj().T
        tau = np.trace(w).real
        r = vec(w / tau)
        a = (hq @ r).reshape((d, d), order="F")
        g_rho = -(a + a.conj().T)
        z = 2.0 * ((g_rho / tau - (np.trace(g_rho @ w).real / tau ** 2) * np.eye(d)) @ v)
        return float(np.real(r.conj() @ (hq @ r))), -np.concatenate([2.0 * z.real.ravel(), 2.0 * z.imag.ravel()])

    states = []
    for _ in range(opts.restarts):
        res = scipy.optimize.minimize(neg_value_grad, rng.standard_normal(2 * n), jac=True, method="L-BFGS-B",
                                      options={"maxiter": opts.maxiter, "ftol": 1e-16, "gtol": 1e-12})
        v = (res.x[:n] + 1j * res.x[n:]).reshape(d, d)
        w = v @ v.conj().T
        states.append(w / np.trace(w).real)
    return max(_purity_values(hq, np.array(states)).max(), 0.0)


def _wide_system(d, jumps, seed):
    """A seeded system above the corpus's largest d = 4."""
    rng = np.random.default_rng(seed)
    return GklsSystem(d, random_hermitian(rng, d), tuple(random_complex(rng, d) / d for _ in range(jumps)))


class TestBatchedAscent:
    """The batched L-BFGS ascent against scipy's L-BFGS-B from the same starting points."""

    CRITERION_8B = PurityOptions(restarts=16, seed=11)
    CORPUS = PurityOptions(restarts=8, seed=0)
    WIDE = PurityOptions(restarts=8, seed=3)

    def test_batched_starts_are_the_sequential_draws(self):
        for seed, restarts, n in ((11, 16, 18), (0, 5, 32), (3, 1, 72)):
            batched = np.random.default_rng(seed).standard_normal((restarts, n))
            rng = np.random.default_rng(seed)
            assert np.array_equal(batched, [rng.standard_normal(n) for _ in range(restarts)])

    @staticmethod
    def _systems():
        noisy = [(random_gkls(2 + i % 3, 1, seed=5100 + i), TestBatchedAscent.CRITERION_8B) for i in range(5)]
        corpus = [(sys, TestBatchedAscent.CORPUS) for sys in gkls_corpus(50)]
        wide = [(_wide_system(d, jumps, 7000 + 10 * d + jumps), TestBatchedAscent.WIDE)
                for d in (5, 6) for jumps in (1, 2)]
        return [(canonicalize(sys), opts) for sys, opts in noisy + corpus + wide if sys.d > 2]

    def test_rate_at_least_lbfgsb_and_at_most_upper(self):
        systems = self._systems()
        assert {sys.d for sys, _ in systems} == {3, 4, 5, 6} and len(systems) > 30
        for sys, opts in systems:
            hq = _dissipator_form(sys)
            gamma = _ascend_quadratic_form(hq, sys.d, opts).gamma
            want = _lbfgsb_rate(hq, sys.d, opts)
            assert gamma >= want - 1e-12 * max(1.0, want), (sys.d, gamma, want)
            assert gamma <= purity_decay_report(sys, opts).upper + 1e-12, (sys.d, gamma)


class TestSecularRoot:
    """The Newton root of the trust-region secular equation against ``scipy.optimize.brentq``."""

    #: measured: 409 of 471 roots equal brentq's, and the worst is 2 ulp from it
    ULPS = 4

    def test_secular_equations_of_the_rated_forms(self, monkeypatch):
        calls = []
        newton = gkls._secular_root

        def recording(beta, lam, r2, mu, xtol):
            root = newton(beta, lam, r2, mu, xtol)
            calls.append((beta, lam, r2, mu, xtol, root))
            return root

        monkeypatch.setattr(gkls, "_secular_root", recording)
        forms = [(hq, 2) for hq in _criterion_8_forms()]
        forms += [(_dissipator_form(sys), sys.d) for sys in gkls_corpus(50) if sys.d > 2]
        for hq, d in forms:
            gkls._trust_region(hq, d)
        assert len(calls) >= 40
        for beta, lam, r2, mu, xtol, root in calls:
            def phi(m):
                x = gkls._coords(beta, lam, m)
                return 1.0 / math.sqrt(float(x @ x)) - 1.0 / math.sqrt(r2)

            # |x(m)| <= r once m + lam_min >= |beta| / r, so the bracket's right end has phi >= 0
            want = scipy.optimize.brentq(phi, mu, -lam[0] + 2.0 * np.linalg.norm(beta) / math.sqrt(r2), xtol=xtol)
            assert abs(root - want) <= self.ULPS * np.spacing(abs(want)), (root, want)

    def test_failures_are_typed(self, monkeypatch):
        beta, lam = np.array([1.0, 0.5]), np.array([-1.0, 2.0])
        with pytest.raises(EstimationError, match="NaN"):
            gkls._secular_root(np.array([math.nan, 0.5]), lam, 0.5, 1.0 + 1e-12, 1e-15)
        monkeypatch.setattr(gkls, "_NEWTON_STEPS", 1)
        with pytest.raises(EstimationError, match="did not converge in 1 steps") as info:
            gkls._secular_root(beta, lam, 0.5, 1.0 + 1e-12, 1e-15)
        assert info.value.best_value > 1.0


class TestHermiticityDefect:
    @staticmethod
    def _defect_loop(sop):
        """The per-element reference: one spectral norm per basis image."""
        worst = 0.0
        for e in _hermitian_basis(sop.d):
            img = (sop.mat @ vec(e)).reshape((sop.d, sop.d), order="F")
            worst = max(worst, spectral_norm(img - img.conj().T))
        return worst

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_batched_equals_per_element_loop(self, rng, d):
        system = GklsSystem(d, random_hermitian(rng, d), (random_complex(rng, d),))
        for mat in (random_complex(rng, d * d), liouvillian(system).mat):
            sop = Superoperator(d, mat)
            want = self._defect_loop(sop)
            assert abs(_hermiticity_defect(sop) - want) <= 1e-13 * max(want, spectral_norm(mat))


class TestNoGoCheck:
    def test_unitary_generator_both_zero(self):
        sys = GklsSystem(d=2, hamiltonian=SZ)
        lz = fast_oscillation_zeno(sys, SX)
        rep = no_go_check(sys, lz, opts=PurityOptions(restarts=6, grid_density=30, seed=2))
        assert rep.gamma_original <= 1e-12
        assert rep.gamma_projected <= 1e-10
        assert rep.equal_within_tol

    def test_dephasing_example_rates_agree(self):
        ex = dephasing_qubit_example()
        rep = no_go_check(ex.system, ex.expected_zeno,
                          opts=PurityOptions(restarts=16, grid_density=80, seed=4))
        assert rep.gamma_original == pytest.approx(0.5, abs=1e-8)
        assert rep.equal_within_tol, (rep.gamma_original, rep.gamma_projected)

    def test_projection_never_raises_the_rate(self):
        # Averaging over the K-orbit cannot increase the purity functional's
        # sup; both rates stay strictly positive for a nonzero dissipator.
        opts = PurityOptions(restarts=12, grid_density=60, seed=6)
        for seed in (42, 43, 44):
            sys = random_gkls(2, 1, seed=seed)
            lz = fast_oscillation_zeno(sys, sys.hamiltonian)
            rep = no_go_check(sys, lz, opts=opts)
            assert rep.gamma_projected <= rep.gamma_original + 1e-8
            assert rep.gamma_projected > 1e-8
            assert rep.gamma_original > 1e-8


class TestChoi:
    def test_choi_of_identity(self):
        c = _choi_of(np.eye(4))
        # |Omega><Omega| * d: rank one, trace d
        assert np.linalg.matrix_rank(c, tol=1e-10) == 1
        assert np.trace(c).real == pytest.approx(2.0)

    @staticmethod
    def _kron_sum_choi(mat, d):
        c = np.zeros((d * d, d * d), dtype=complex)
        for m in range(d):
            for n in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[m, n] = 1.0
                c += np.kron((mat @ vec(e)).reshape((d, d), order="F"), e)
        return c

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_realignment_equals_kron_sum(self, rng, d):
        mat = random_complex(rng, d * d)
        assert np.array_equal(_choi_of(mat), self._kron_sum_choi(mat, d))
        assert np.array_equal(_choi_of(Superoperator(d, mat, "propagator")),
                              self._kron_sum_choi(mat, d))

    def test_choi_linear_in_superoperator(self, rng):
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        lhs = _choi_of(a + 2.0 * b)
        rhs = _choi_of(a) + 2.0 * _choi_of(b)
        assert spectral_norm(lhs - rhs) <= 1e-12 * max(1.0, spectral_norm(rhs))


def _unscreened_report(mat, generator: bool):
    """The report of :func:`gkls_form_check` (``generator``) or :func:`cptp_check` with every spectral
    norm read: max(1, ||mat||) for the trace and hermiticity tolerances and ||Choi|| for positivity."""
    mat = np.asarray(mat, dtype=complex)
    d = math.isqrt(len(mat))
    choi = _choi_of(mat)
    form = (choi + choi.conj().T) / 2
    if generator:  # compressed off the maximally entangled vector
        omega = vec(np.eye(d)) / np.sqrt(d)
        q = np.eye(d * d) - np.outer(omega, omega.conj())
        form = q @ form @ q
    min_eig = float(np.linalg.eigvalsh(form).min())
    tr_vec = vec(np.eye(d)).conj()
    scale = max(1.0, spectral_norm(mat))
    trace = np.linalg.norm(tr_vec @ mat) if generator else np.linalg.norm(tr_vec @ mat - tr_vec)
    verdicts = (bool(trace <= 1e-10 * scale),
                bool(_hermiticity_defect(Superoperator(d, mat)) <= 1e-10 * scale),
                bool(min_eig >= -1e-9 * max(spectral_norm(choi), 1e-300)))
    return (gkls.GklsFormReport if generator else gkls.CptpReport)(*verdicts, min_eig)


def _threshold_families(d: int):
    """(name, generator?, base, direction, delta at the verdict's threshold, delta at its screen's bound).

    Each family moves one figure of a map or a generator linearly in delta, at about unit
    slope: the trace defect (by the reset map rho -> tr(rho) |0><0|), the hermiticity defect (by
    i (rho - tr(rho) I / d), which keeps the trace and the Hermitian part of the Choi matrix) or
    the least eigenvalue of the Choi form (by tr(rho) I - d rho, which keeps the trace).  The
    bases: the reset map, with ||E|| = sqrt(d) and a Choi matrix |0><0| (x) I of norm 1, and three
    times the generator of the jump |0><1|, with ||G|| > 1.
    """
    eye, tr_vec = np.eye(d), vec(np.eye(d)).conj()
    ground = np.zeros((d, d))
    ground[0, 0] = 1.0
    lower = np.zeros((d, d), dtype=complex)
    lower[0, 1] = 1.0
    reset = np.outer(vec(ground), tr_vec)
    decay = 3.0 * dissipator_superoperator([lower], d)
    skew = 1j * (np.eye(d * d) - np.outer(vec(eye), tr_vec) / d)  # rho -> i (rho - tr(rho) I / d)
    dent = -(np.outer(vec(eye), tr_vec) - d * np.eye(d * d))  # rho -> -(tr(rho) I - d rho)
    herm_slope = _hermiticity_defect(Superoperator(d, skew))
    herm_frob = float(np.linalg.norm(gkls._hermiticity_residuals(skew, d), axis=(-2, -1)).max())
    for generator, base in ((False, reset), (True, decay)):
        scale = spectral_norm(base)
        yield ("trace", generator, base, reset / math.sqrt(d), 1e-10 * max(1.0, scale), 1e-10)
        yield ("hermiticity", generator, base, skew / herm_slope, 1e-10 * max(1.0, scale),
               0.5e-10 * herm_slope / herm_frob)
        choi_norm = spectral_norm(_choi_of(base))
        yield ("positivity", generator, base, dent, 1e-9 * choi_norm, 0.5e-9 * choi_norm)


class TestVerdictScreens:
    """``cptp_check`` and ``gkls_form_check`` read a spectral norm only where a verdict depends on it,
    and report exactly what they report when they read every one."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_reports_equal_the_unscreened_ones_either_side_of_each_threshold(self, d):
        for name, generator, base, direction, threshold, screen in _threshold_families(d):
            verdicts = []
            for delta in (0.99 * screen, 1.01 * screen, 0.99 * threshold, 1.01 * threshold):
                mat = base + delta * direction
                want = _unscreened_report(mat, generator)
                assert (gkls_form_check(mat) if generator else cptp_check(mat)) == want, (name, generator, delta)
                verdicts.append(dataclasses.astuple(want)[("trace", "hermiticity", "positivity").index(name)])
            # the figure crosses its tolerance between the last two deltas, and not before
            assert verdicts == [True, True, True, False], (name, generator, verdicts)

    def test_reports_equal_the_unscreened_ones_on_corpus_maps_and_generators(self, rng):
        for sys in gkls_corpus(12):
            gen = liouvillian(sys).mat
            p_phi = peripheral_projection(decompose(gen))
            for mat in (expm(gen, 0.3), expm(gen, 2.0), p_phi, expm(gen, 1.0) + 1e-7 * random_complex(rng, len(gen))):
                assert cptp_check(mat) == _unscreened_report(mat, generator=False)
            lz = fast_oscillation_zeno(sys, sys.hamiltonian).mat
            for mat in (gen, lz, gen + 1e-9 * random_complex(rng, len(gen)), p_phi @ gen @ p_phi):
                assert gkls_form_check(mat) == _unscreened_report(mat, generator=True)

    @staticmethod
    def _counting_svds(monkeypatch) -> list:
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        return calls

    def test_cptp_projection_and_gkls_generator_run_no_svd(self, monkeypatch):
        sys = random_gkls(3, 2, seed=31)
        gen = liouvillian(sys)
        p_phi = Superoperator(3, peripheral_projection(decompose(gen.mat)), "projected")
        calls = self._counting_svds(monkeypatch)
        cptp = cptp_check(p_phi)
        form = gkls_form_check(gen)
        assert calls == []
        assert cptp.trace_preserving and cptp.hermiticity_preserving and cptp.completely_positive
        assert form.trace_annihilating and form.hermiticity_preserving and form.conditionally_completely_positive

    def test_a_defect_between_screen_and_tolerance_reads_the_scale(self, monkeypatch):
        """A trace defect of 0.5e-10 sqrt(2) passes only against 1e-10 ||E|| = 1e-10 sqrt(2)."""
        [(_, _, base, direction, threshold, screen)] = [f for f in _threshold_families(2) if f[:2] == ("trace", False)]
        mat = base + 0.5 * (screen + threshold) * direction
        calls = self._counting_svds(monkeypatch)
        assert cptp_check(mat).trace_preserving
        assert len(calls) == 1
