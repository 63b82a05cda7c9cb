import numpy as np
import pytest

from zeno_limits import (
    ThreeLevelParams,
    cptp_check,
    decompose,
    dephasing_qubit_example,
    expm,
    gkls_form_check,
    liouvillian,
    random_gkls,
    spectral_norm,
    three_level_analytic_propagator,
    three_level_generators,
    three_level_peripheral,
    three_level_zeno_generator,
    zeno_split,
)
from zeno_limits.errors import ValidationError
from zeno_limits.linalg import sandwich_super, vec
from zeno_limits.zeno import commutator_projections


def draw_params(rng):
    return ThreeLevelParams(
        omega0=float(rng.uniform(-2, 2)),
        omega1=float(rng.uniform(-2, 2)),
        omega2=float(rng.uniform(-2, 2)),
        gamma=float(rng.uniform(0.2, 3.0)),
        g=float(rng.uniform(0.5, 2.5)),
        w2=float(rng.uniform(-2, 2)),
        kappa=float(rng.uniform(0.5, 2.5)),
    )


class TestThreeLevelGenerators:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            ThreeLevelParams(g=0.0)
        with pytest.raises(ValidationError):
            ThreeLevelParams(kappa=-1.0)

    def test_zero_dephasing_gives_pure_hamiltonian_weak_generator(self):
        p = ThreeLevelParams(gamma=0.0)
        l_super, _ = three_level_generators(p)
        # generator of a unitary flow: exponential is unitary
        u = expm(l_super.mat, 1.0)
        assert spectral_norm(u @ u.conj().T - np.eye(9)) <= 1e-10

    def test_both_generators_pass_gkls_form(self):
        l_super, d_super = three_level_generators(ThreeLevelParams())
        for sop in (l_super, d_super):
            assert sop.mat.shape == (9, 9)
            rep = gkls_form_check(sop)
            assert rep.trace_annihilating and rep.conditionally_completely_positive


class TestAnalyticPropagator:
    def test_identity_at_t_zero(self):
        prop = three_level_analytic_propagator(ThreeLevelParams(), 0.0)
        assert np.allclose(prop.mat, np.eye(9), atol=1e-14)

    def test_matches_pade_exponential(self, rng):
        for _ in range(5):
            p = draw_params(rng)
            _, d_super = three_level_generators(p)
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                diff = spectral_norm(three_level_analytic_propagator(p, t).mat
                                     - expm(d_super.mat, t))
                assert diff <= 1e-8

    def test_long_time_limit_is_rotating_peripheral_projection(self):
        p = ThreeLevelParams()
        t = 50.0  # kappa t = 50: decay fully dead
        x = np.zeros((3, 3), dtype=complex)
        x[0, 1] = x[1, 0] = 1.0
        u = expm(-1j * p.g * x, t)
        asymptote = sandwich_super(u, u.conj().T) @ three_level_peripheral(p).p_phi.mat
        assert spectral_norm(three_level_analytic_propagator(p, t).mat - asymptote) <= 1e-8

    def test_is_cptp(self):
        prop = three_level_analytic_propagator(ThreeLevelParams(), 0.7)
        rep = cptp_check(prop)
        assert rep.trace_preserving and rep.completely_positive


class TestPeripheralStructure:
    def test_projections_sum_to_peripheral_projection(self, rng):
        p = draw_params(rng)
        per = three_level_peripheral(p)
        total = per.p_0.mat + per.p_plus.mat + per.p_minus.mat
        assert spectral_norm(total - per.p_phi.mat) <= 1e-12

    def test_idempotency_and_orthogonality(self):
        per = three_level_peripheral(ThreeLevelParams())
        mats = [per.p_0.mat, per.p_plus.mat, per.p_minus.mat]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                target = a if i == j else np.zeros((9, 9))
                assert spectral_norm(a @ b - target) <= 1e-12

    def test_matches_spectral_clusters(self, rng):
        for _ in range(5):
            p = draw_params(rng)
            _, d_super = three_level_generators(p)
            dec = decompose(d_super.mat)
            per = three_level_peripheral(p)
            targets = {0: per.p_0.mat, 1: per.p_plus.mat, 2: per.p_minus.mat}
            expect = [0.0, -2j * p.g, 2j * p.g]
            periph = dec.peripheral_clusters
            assert len(periph) == 3
            for c in periph:
                idx = int(np.argmin([abs(c.eigenvalue - e) for e in expect]))
                assert abs(c.eigenvalue - expect[idx]) <= 1e-8 * spectral_norm(d_super.mat)
                assert spectral_norm(c.projection - targets[idx]) <= 1e-8

    def test_peripheral_projection_is_cptp(self):
        per = three_level_peripheral(ThreeLevelParams())
        rep = cptp_check(per.p_phi)
        assert rep.trace_preserving and rep.completely_positive


class TestZenoGenerator:
    def test_vanishes_without_dephasing(self):
        assert spectral_norm(three_level_zeno_generator(ThreeLevelParams(gamma=0.0)).mat) == 0.0

    def test_matches_projection_route(self, rng):
        for _ in range(5):
            p = draw_params(rng)
            l_super, d_super = three_level_generators(p)
            split = zeno_split(d_super.mat, l_super.mat)
            assert spectral_norm(split.c_z - three_level_zeno_generator(p).mat) <= 1e-8

    def test_large_coupling_drops_the_feed_term(self):
        p = ThreeLevelParams(g=1000.0, kappa=1.0, gamma=2.0)
        got = three_level_zeno_generator(p).mat
        x = np.zeros((3, 3), dtype=complex); x[0, 1] = x[1, 0] = 1.0
        y = np.zeros((3, 3), dtype=complex); y[0, 1] = -1j; y[1, 0] = 1j
        z = np.diag([1.0, -1.0, 0.0]).astype(complex)
        trace_form = -(p.gamma / 8.0) * (2 * np.outer(vec(x), vec(x).conj())
                                         + np.outer(vec(y), vec(y).conj())
                                         + np.outer(vec(z), vec(z).conj()))
        # dropped term has weight ~ kappa/(2 g) * Gamma/8
        assert spectral_norm(got - trace_form) <= 1e-3


class TestDephasingQubit:
    def test_projected_generator_closed_forms(self):
        ex = dephasing_qubit_example()
        comps = commutator_projections(ex.hamiltonian)
        total = sum(c.projector @ ex.l_super.mat @ c.projector for c in comps)
        assert spectral_norm(total - ex.expected_zeno.mat) <= 1e-10
        kernel = next(c.projector for c in comps if abs(c.omega) < 1e-12)
        assert spectral_norm(kernel @ ex.l_super.mat @ kernel
                             - ex.expected_non_gkls.mat) <= 1e-10

    def test_gkls_verdicts(self):
        ex = dephasing_qubit_example()
        assert gkls_form_check(ex.expected_zeno).conditionally_completely_positive
        rep = gkls_form_check(ex.expected_non_gkls)
        assert not rep.conditionally_completely_positive
        assert rep.min_conditional_choi_eigenvalue < -1e-3 * 1.0


class TestRandomGkls:
    def test_deterministic_per_seed(self):
        a = random_gkls(3, 2, seed=123)
        b = random_gkls(3, 2, seed=123)
        assert np.array_equal(a.hamiltonian, b.hamiltonian)
        for x, y in zip(a.jumps, b.jumps):
            assert np.array_equal(x, y)

    def test_unit_generator_norm(self):
        for seed in (1, 2, 3):
            sys = random_gkls(2 + seed % 3, seed % 4 if seed % 4 else 1, seed=seed)
            assert spectral_norm(liouvillian(sys).mat) == pytest.approx(1.0, abs=1e-10)

    def test_jumps_traceless(self):
        sys = random_gkls(4, 3, seed=5)
        for L in sys.jumps:
            assert abs(np.trace(L)) <= 1e-12

    def test_no_jumps_is_unitary_generator(self):
        sys = random_gkls(3, 0, seed=6)
        u = expm(liouvillian(sys).mat, 1.0)
        assert spectral_norm(u @ u.conj().T - np.eye(9)) <= 1e-10

    def test_passes_gkls_form(self):
        rep = gkls_form_check(liouvillian(random_gkls(3, 2, seed=7)))
        assert rep.conditionally_completely_positive

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            random_gkls(5, 1, seed=0)
        with pytest.raises(ValidationError):
            random_gkls(2, 4, seed=0)
