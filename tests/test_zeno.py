import math

import mpmath
import numpy as np
import pytest

from zeno_limits import (
    BoundInputs,
    adiabatic_error,
    bound_adiabatic,
    bound_cptp,
    bound_simplified,
    commutator_projections,
    cptp_check,
    expm,
    gkls_form_check,
    gkls_pair_corpus,
    liouvillian,
    pulsed_zeno_product,
    random_gkls,
    spectral_norm,
    three_level_generators,
    three_level_zeno_generator,
    zeno_split,
)
from zeno_limits.errors import (
    PeripheralDefectError,
    SpectrumViolationError,
    ValidationError,
    ZenoLimitsError,
)
from zeno_limits.gkls import Superoperator, _hermitian_basis, dissipator_superoperator, hamiltonian_superoperator
from zeno_limits.linalg import sandwich_super, vec
from zeno_limits.models import ThreeLevelParams
from zeno_limits.experiments import _loglog_slope, summarize_grid
from zeno_limits.zeno import CSV_COLUMNS, evaluate_grid

from conftest import dyson_check, hamiltonian_zeno, random_complex, random_hermitian, reference_bound, taylor_expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def three_level():
    p = ThreeLevelParams()
    l_super, d_super = three_level_generators(p)
    split = zeno_split(d_super.mat, l_super.mat)
    return p, l_super, d_super, split


class TestZenoSplit:
    def test_commutator_pair_projects_the_hamiltonian(self, rng):
        k, h = random_hermitian(rng, 3), random_hermitian(rng, 3)
        split = zeno_split(hamiltonian_superoperator(k), hamiltonian_superoperator(h))
        want = hamiltonian_superoperator(hamiltonian_zeno(k, h))
        assert spectral_norm(split.c_z - want) <= 1e-8 * max(1.0, spectral_norm(want))

    def test_unique_peripheral_eigenvalue_reduces_to_sandwich(self, rng):
        # amplitude damping: peripheral spectrum is {0} alone
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = dissipator_superoperator([sm], 2)
        c = liouvillian(random_gkls(2, 1, seed=17)).mat
        split = zeno_split(b, c)
        assert len(split.decomposition.peripheral_clusters) == 1
        want = split.p_phi @ c @ split.p_phi
        assert spectral_norm(split.c_z - want) <= 1e-10

    def test_three_level_closed_form(self, three_level):
        p, _, _, split = three_level
        assert spectral_norm(split.c_z - three_level_zeno_generator(p).mat) <= 1e-8

    def test_type_invariants(self, three_level):
        _, l_super, d_super, split = three_level
        # C_Z reconstruction against a direct sum over peripheral clusters
        rebuilt = sum(c.projection @ l_super.mat @ c.projection
                      for c in split.decomposition.peripheral_clusters)
        assert spectral_norm(split.c_z - rebuilt) <= 1e-10
        # C_Z commutes with B on the peripheral subspace
        comm = (split.c_z @ d_super.mat - d_super.mat @ split.c_z) @ split.p_phi
        assert spectral_norm(comm) <= 1e-8 * spectral_norm(d_super.mat) * spectral_norm(l_super.mat)
        # P_phi C_Z = C_Z P_phi = P_phi C_Z P_phi
        assert spectral_norm(split.p_phi @ split.c_z - split.c_z) <= 1e-10
        assert spectral_norm(split.c_z @ split.p_phi - split.c_z) <= 1e-10

    def test_peripheral_resolvents_satisfy_the_identity(self, three_level):
        _, _, d_super, split = three_level
        eye = np.eye(9)
        for k, s in split.resolvents.items():
            cluster = split.decomposition.clusters[k]
            resid = (d_super.mat - cluster.eigenvalue * eye) @ s - (eye - cluster.projection)
            assert spectral_norm(resid) <= 1e-8

    def test_superoperator_arguments_give_the_matrix_split(self, three_level):
        _, l_super, d_super, split = three_level
        from_superoperators = zeno_split(d_super, l_super)
        np.testing.assert_array_equal(from_superoperators.c_z, split.c_z)
        np.testing.assert_array_equal(from_superoperators.p_phi, split.p_phi)

    def test_right_half_plane_rejected(self):
        with pytest.raises(SpectrumViolationError):
            zeno_split(np.array([[0.5]]), np.array([[1.0]]))

    def test_defective_peripheral_rejected(self):
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(PeripheralDefectError):
            zeno_split(b, np.eye(2))


class TestAdiabaticError:
    def test_zero_weak_generator(self, rng):
        sys = random_gkls(2, 1, seed=23)
        b = liouvillian(sys).mat
        split = zeno_split(b, np.zeros_like(b))
        for gamma, t in ((1.0, 0.3), (50.0, 2.0)):
            assert adiabatic_error(split, gamma, t, "plain") <= 1e-12

    def test_t_zero_plain(self, three_level):
        _, _, _, split = three_level
        assert adiabatic_error(split, 7.0, 0.0, "plain") <= 1e-14

    def test_matches_taylor_propagator_oracle(self, three_level):
        _, l_super, d_super, split = three_level
        gamma, t = 100.0, 1.0
        err = adiabatic_error(split, gamma, t, "peripheral")
        lhs = taylor_expm(gamma * d_super.mat + l_super.mat, t)
        rhs = taylor_expm(d_super.mat, gamma * t) @ taylor_expm(split.c_z, t) @ split.p_phi
        oracle = spectral_norm(lhs - rhs)
        assert err == pytest.approx(oracle, abs=1e-8)

    def test_unknown_variant_rejected(self, three_level):
        _, _, _, split = three_level
        with pytest.raises(ValueError):
            adiabatic_error(split, 1.0, 1.0, "sideways")

    @pytest.mark.parametrize("gamma, t", [(-1.0, 1.0), (0.0, 1.0), (10.0, -1.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("variant", ["plain", "peripheral"])
    def test_gamma_t_domain(self, three_level, gamma, t, variant):
        _, _, _, split = three_level
        with pytest.raises(ValidationError):
            adiabatic_error(split, gamma, t, variant)


def _similar(rng, eigenvalues) -> np.ndarray:
    """A complex matrix with the given eigenvalues under a random well-conditioned similarity."""
    s = np.eye(len(eigenvalues)) + 0.3 * random_complex(rng, len(eigenvalues)) / np.sqrt(len(eigenvalues))
    return s @ np.diag(eigenvalues) @ np.linalg.inv(s)


def _taylor_cells(split, gamma, t):
    """(plain, peripheral) error cells from the Taylor oracle, in the identity frame."""
    lhs = taylor_expm(gamma * split.b + split.c, t)
    rhs = taylor_expm(split.b, gamma * t) @ taylor_expm(split.c_z, t)
    return tuple(np.linalg.norm(lhs - limit, 2) for limit in (rhs, rhs @ split.p_phi))


class TestHermitianFrame:
    """``ZenoSplit.frame``: real for GKLS pairs, complex and the identity otherwise."""

    def test_gkls_pair_is_real_in_the_hermitian_basis(self, three_level):
        _, _, _, split = three_level
        frame = split.frame
        assert frame.real
        assert all(m.dtype == float for m in (frame.b, frame.c, frame.c_z, frame.p_phi))
        basis = _hermitian_basis(3)  # the rows of W are vec(E_a)^dagger
        w = np.array([vec(e).conj() for e in basis])
        assert np.allclose(w @ w.conj().T, np.eye(9), rtol=0, atol=1e-15)
        for in_frame, mat in ((frame.b, split.b), (frame.c, split.c), (frame.c_z, split.c_z),
                              (frame.p_phi, split.p_phi)):
            assert np.allclose(in_frame, w @ mat @ w.conj().T, rtol=0, atol=1e-13 * max(1.0, np.abs(mat).max()))
        assert np.allclose(frame.u @ np.diag(np.diag(split.decomposition.blocks)) @ frame.v, frame.b, atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 6], ids=["not-hermiticity-preserving", "D=6"])
    def test_other_pairs_stay_complex_in_the_identity_frame(self, rng, dim):
        b = _similar(rng, [0.0, 1j, -1j, -1.0, -2.0 + 1j, -0.5][:dim])
        c = random_complex(rng, dim)
        split = zeno_split(b, c)
        frame = split.frame
        assert not frame.real
        assert frame.b is split.b and frame.c is split.c and frame.c_z is split.c_z and frame.p_phi is split.p_phi
        assert frame.u is split.decomposition.u and frame.v is split.decomposition.v
        for gamma, t in ((10.0, 0.5), (300.0, 2.0)):
            plain, peripheral = _taylor_cells(split, gamma, t)
            assert abs(adiabatic_error(split, gamma, t, "plain") - plain) <= 1e-10
            assert abs(adiabatic_error(split, gamma, t, "peripheral") - peripheral) <= 1e-10

    def test_error_cells_against_mpmath(self, three_level):
        """Each cell is within 4 u t ||gamma B + C|| (the rounding in forming gamma B + C) of 30 digits."""
        _, _, _, split = three_level
        mp = lambda a: mpmath.matrix(a.tolist())
        grid = evaluate_grid(split, (10.0, 1000.0), (0.25, 2.0))
        for ij in np.ndindex(grid["t"].shape):
            gamma, t, plain, peripheral = (grid[key][ij] for key in CSV_COLUMNS[:4])
            with mpmath.workdps(30):
                lhs = mpmath.expm(mp(t * (gamma * split.b + split.c)))
                rhs = mpmath.expm(mp(gamma * t * split.b)) * mpmath.expm(mp(t * split.c_z))
                want = [float(max(mpmath.svd_c(lhs - limit, compute_uv=False)))
                        for limit in (rhs, rhs * mp(split.p_phi))]
            floor = 4 * 2.0 ** -53 * t * np.linalg.norm(gamma * split.b + split.c, 2)
            assert abs(plain - want[0]) <= floor
            assert abs(peripheral - want[1]) <= floor


def _plain_inputs(**overrides):
    base = dict(m_bound=2.0, eta=1.0, delta=0.5, chi=1.5, dim=4,
                p_coeffs=np.array([1.0]), norm_c=1.0, norm_cz=0.5,
                resolvent_sum=0.3, resolvent_sum_norm=0.2)
    base.update(overrides)
    return BoundInputs(**base)


class TestBounds:
    def test_all_terms_vanish(self):
        inputs = _plain_inputs(p_coeffs=np.array([0.0]), resolvent_sum=0.0,
                               resolvent_sum_norm=0.0)
        assert bound_adiabatic(inputs, 10.0, 1.0) == 0.0
        assert bound_cptp(inputs, 10.0, 1.0) == 0.0

    def test_degenerate_denominator_is_the_limit(self):
        # norm_cz == m * norm_c: the difference quotient becomes (1 + ta) e^{ta}
        inputs = _plain_inputs(m_bound=2.0, norm_c=1.0, norm_cz=2.0,
                               p_coeffs=np.array([0.0]))
        got = bound_adiabatic(inputs, 10.0, 0.8)
        eps = 1e-7
        near = _plain_inputs(m_bound=2.0, norm_c=1.0, norm_cz=2.0 - eps,
                             p_coeffs=np.array([0.0]))
        want = bound_adiabatic(near, 10.0, 0.8)
        assert got == pytest.approx(want, rel=1e-6)
        a = 2.0 * 0.8
        direct = (inputs.m_bound + 1) * inputs.resolvent_sum * (1 + a) * math.exp(a) / 10.0
        assert got == pytest.approx(direct, rel=1e-12)

    def test_simplified_infinite_gaps(self):
        inputs = _plain_inputs(eta=math.inf, delta=math.inf)
        assert bound_simplified(inputs, 10.0, 1.0) == 0.0
        # at t = 0 only the truncated-exponential term survives, equal to M
        assert bound_simplified(inputs, 10.0, 0.0) == pytest.approx(inputs.dim * inputs.chi)

    def test_simplified_single_dimension_tail(self):
        inputs = _plain_inputs(dim=1, chi=2.0, delta=math.inf)
        gamma, t = 10.0, 0.5
        m = 1 * 2.0
        want_tail = m * math.exp(-gamma * inputs.eta * t)
        term1 = m * m * (1 / inputs.eta) * inputs.norm_c * math.exp(2 * t * m * m * inputs.norm_c) / gamma
        assert bound_simplified(inputs, gamma, t) == pytest.approx(term1 + want_tail, rel=1e-12)

    def test_three_level_dominance(self, three_level):
        _, _, _, split = three_level
        inputs = BoundInputs.from_split(split)
        for gamma in (10.0, 100.0, 1000.0):
            for t in np.linspace(0.25, 2.0, 5):
                err = adiabatic_error(split, gamma, t, "peripheral")
                assert err <= bound_adiabatic(inputs, gamma, t) + 1e-9
                assert err <= bound_cptp(inputs, gamma, t) + 1e-9
                assert err <= bound_simplified(inputs, gamma, t) + 1e-9

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValidationError):
            _plain_inputs(m_bound=0.5)
        with pytest.raises(ValidationError):
            _plain_inputs(p_coeffs=np.array([-1.0]))

    @pytest.mark.parametrize("field, value", [
        ("m_bound", np.nan), ("m_bound", np.inf), ("m_bound", 0.5), ("m_bound", "2"), ("chi", 0.5), ("chi", np.nan),
        ("chi", np.inf), ("eta", -1.0), ("eta", 0.0), ("eta", np.nan), ("eta", -np.inf), ("eta", True),
        ("delta", -1.0), ("delta", np.nan), ("delta", None), ("dim", 0), ("dim", 2.5), ("dim", True),
        ("p_coeffs", np.array([])), ("p_coeffs", np.array([[1.0]])), ("p_coeffs", 1.0), ("p_coeffs", [np.nan]),
        ("p_coeffs", [-1.0]), ("p_coeffs", ["1"]), ("norm_c", np.nan), ("norm_c", -1.0), ("norm_cz", np.inf),
        ("resolvent_sum", -0.1), ("resolvent_sum_norm", np.nan),
    ])
    def test_bound_inputs_read_their_fields(self, field, value):
        with pytest.raises(ZenoLimitsError, match=field):
            _plain_inputs(**{field: value})

    def test_a_negative_gap_is_refused_before_any_bound(self):
        with pytest.raises(ValidationError, match="eta must be positive, got -1"):
            bound_cptp(_plain_inputs(eta=-1), 10.0, 1.0)

    def test_gaps_may_be_infinite_and_fields_are_read_as_floats(self):
        inputs = _plain_inputs(eta=np.inf, delta=float("inf"), m_bound=np.float64(2.0), norm_c=1, dim=np.int64(4),
                               p_coeffs=[1, 2])
        assert (inputs.eta, inputs.delta) == (math.inf, math.inf)
        assert type(inputs.m_bound) is float and type(inputs.norm_c) is float and type(inputs.dim) is int
        np.testing.assert_array_equal(inputs.p_coeffs, [1.0, 2.0])

    def test_gamma_t_domain(self):
        inputs = _plain_inputs()
        with pytest.raises(ValueError):
            bound_adiabatic(inputs, 0.0, 1.0)
        with pytest.raises(ValueError):
            bound_cptp(inputs, 1.0, -0.1)


#: times hitting every branch: t = 0, |x| < 1e-5 in the difference quotient,
#: moderate t, and |x| >= 350 (sinh(x)/x read as inf, e^{tM||C||} overflowing)
PARITY_TIMES = np.array([0.0, 1e-7, 0.3, 1.0, 2.5, 40.0, 800.0])
PARITY_GAMMAS = np.array([0.5, 10.0, 1e5])
PARITY_INPUTS = {
    "plain": {},
    "infinite-gaps": dict(eta=math.inf, delta=math.inf),
    "zero-p": dict(p_coeffs=np.array([0.0, 0.0, 0.0])),
    "multi-term-p": dict(p_coeffs=np.array([1.0, 0.0, 2.5, 0.7]), dim=64),
    "equal-rates": dict(m_bound=2.0, norm_c=1.0, norm_cz=2.0),
    "overflowing-tail": dict(p_coeffs=np.array([0.0, 0.0, 0.0, 1e300]), eta=0.02, dim=9),
    # eta^{n+1} underflows to 0 under a zero p_n (0 n! / 0) and under a nonzero one (an infinite integral)
    "underflowing-power": dict(p_coeffs=np.array([0.0, 0.0, 1.0]), eta=1e-170, m_bound=1.0, norm_c=1.0,
                               norm_cz=1.0, resolvent_sum=1.0, resolvent_sum_norm=1.0),
    "underflowing-zero-term": dict(p_coeffs=np.array([1.0, 0.0]), eta=1e-200, m_bound=1.0, norm_c=1.0,
                                   norm_cz=1.0, resolvent_sum=1.0, resolvent_sum_norm=1.0),
    # finite integrals whose eta^{n+1} underflows (2e60 here) and whose n! overflows a float (n = 171)
    "tiny-p-over-underflowing-power": dict(p_coeffs=np.array([0.0, 0.0, 1e-300]), eta=1e-120),
    "171-factorial": dict(p_coeffs=np.ones(172), eta=1000.0),
}
BOUND_FUNCTIONS = {"adiabatic": bound_adiabatic, "cptp": bound_cptp, "simplified": bound_simplified}


#: float64 rounds each operation to within eps/2, and a bound is a few terms of about a dozen operations
#: each: 8 eps.  An exponential e^y turns the rounding of y, |y| eps, into a relative error of that size,
#: so each cell's tolerance is 8 eps (1 + Y), with Y the largest exponent it forms (``_exponent_scale``)
TOLERANCE_ULPS = 8


def _exponent_scale(name, inputs, gamma, t) -> float:
    """The largest exponent ``bound_<name>`` forms at (gamma, t), in magnitude.

    That is t M||C|| and t ||C_Z|| (the adiabatic bound's Dyson term and
    difference quotient), 2 t M^2 ||C|| (the simplified bound's first term,
    M = D chi), and the envelope tail's decay plus its largest log-space term.
    """
    scales = [0.0]
    if not math.isinf(inputs.eta) and t > 0:
        if name == "simplified":  # the tail e^{-y} sum_{n < D} y^n / n!
            y, ns = gamma * inputs.eta * t, np.arange(inputs.dim)
            log_terms = ns * math.log(y) - [math.lgamma(n + 1.0) for n in ns]
        else:  # the tail e^{-gamma eta t} sum_n p_n (gamma t)^n
            y, ns = gamma * inputs.eta * t, np.flatnonzero(inputs.p_coeffs)
            log_terms = np.log(inputs.p_coeffs[ns]) + ns * math.log(gamma * t)
        scales.append(y + np.abs(log_terms).max(initial=0.0))
    if name == "adiabatic":
        scales.append(t * max(inputs.m_bound * inputs.norm_c, inputs.norm_cz))
    if name == "simplified":
        scales.append(2.0 * t * (inputs.dim * inputs.chi) ** 2 * inputs.norm_c)
    return max(scales)


def _assert_matches_reference(name, inputs, gammas, times):
    """Each cell of ``bound_<name>`` over gammas x times lies within ``TOLERANCE_ULPS`` eps (1 + Y) of the
    50-digit closed form, relatively, and is inf exactly where that reference is."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = BOUND_FUNCTIONS[name](inputs, gammas[:, None], times)
    for (i, j), cell in np.ndenumerate(got):
        gamma, t = float(gammas[i]), float(times[j])
        want = reference_bound(name, inputs, gamma, t)
        if mpmath.isinf(want):
            assert cell == math.inf, (name, gamma, t, cell)
        else:
            tol = TOLERANCE_ULPS * np.finfo(float).eps * (1.0 + _exponent_scale(name, inputs, gamma, t))
            assert abs(cell - want) <= tol * want, (name, gamma, t, cell, want)


class TestBoundGrid:
    @pytest.mark.parametrize("case", sorted(PARITY_INPUTS))
    @pytest.mark.parametrize("name", sorted(BOUND_FUNCTIONS))
    def test_array_equals_scalar_calls_bitwise(self, name, case):
        inputs, bound = _plain_inputs(**PARITY_INPUTS[case]), BOUND_FUNCTIONS[name]
        with np.errstate(over="ignore", invalid="ignore"):
            grid = bound(inputs, PARITY_GAMMAS[:, None], PARITY_TIMES)
            scalar = [[bound(inputs, float(g), float(t)) for t in PARITY_TIMES] for g in PARITY_GAMMAS]
            for g, row in zip(PARITY_GAMMAS, scalar):
                np.testing.assert_array_equal(bound(inputs, float(g), PARITY_TIMES), row)
        assert isinstance(scalar[0][0], float)
        assert grid.shape == (len(PARITY_GAMMAS), len(PARITY_TIMES))
        np.testing.assert_array_equal(grid, scalar)

    @pytest.mark.parametrize("case", sorted(PARITY_INPUTS))
    @pytest.mark.parametrize("name", sorted(BOUND_FUNCTIONS))
    def test_matches_reference_formula(self, name, case):
        _assert_matches_reference(name, _plain_inputs(**PARITY_INPUTS[case]), PARITY_GAMMAS, PARITY_TIMES)

    def test_random_constants_match_reference_formula(self):
        rng = np.random.default_rng(2024)
        times = np.concatenate([[0.0, 1e-6], np.geomspace(1e-3, 5.0, 14)])
        for k in range(24):
            inputs = _plain_inputs(
                m_bound=1.0 + rng.exponential(), eta=math.inf if k % 9 == 0 else rng.exponential(),
                delta=math.inf if k % 4 == 0 else rng.exponential(), chi=1.0 + rng.exponential(2.0),
                dim=int(rng.integers(1, 70)), p_coeffs=rng.exponential(2.0, size=int(rng.integers(1, 5))),
                norm_c=rng.exponential(), norm_cz=rng.exponential(),
                resolvent_sum=rng.exponential(), resolvent_sum_norm=rng.exponential())
            for name in BOUND_FUNCTIONS:
                _assert_matches_reference(name, inputs, np.array([0.5, 10.0, 1000.0]), times)

    def test_branches_are_reached(self):
        overflow = _plain_inputs(**PARITY_INPUTS["overflowing-tail"])
        assert bound_cptp(overflow, 10.0, 1.0) < bound_cptp(overflow, 10.0, 40.0) == math.inf  # the tail
        assert bound_adiabatic(_plain_inputs(), 10.0, 800.0) == math.inf  # e^{tM||C||} overflows
        assert math.isfinite(bound_adiabatic(_plain_inputs(), 10.0, 1e-7))
        assert bound_simplified(_plain_inputs(**PARITY_INPUTS["infinite-gaps"]), 10.0, 0.0) == 4 * 1.5

    def test_unitary_strong_generator_past_the_dyson_overflow_is_not_nan(self):
        # eta = inf makes the envelope integral 0 while e^{tM||C||} overflows at t = 800
        split = zeno_split(hamiltonian_superoperator(np.diag([0.0, 1.0])),
                           liouvillian(random_gkls(2, 1, seed=3)).mat)
        inputs = BoundInputs.from_split(split, t_max=800, gamma_max=10)
        assert inputs.eta == math.inf
        assert math.isfinite(bound_adiabatic(inputs, 10.0, 1.0))
        assert bound_adiabatic(inputs, 10.0, 800.0) == math.inf
        assert not np.isnan(bound_adiabatic(inputs, 10.0, np.array([1.0, 800.0]))).any()

    @pytest.mark.parametrize("seed", range(20))
    def test_every_bound_holds_for_a_unitary_strong_generator(self, seed):
        """B = -i[K, .] (no decaying part, eta = inf) for a random Hermitian K at d = 2-4, C a random GKLS
        Liouvillian: every bound dominates the error on the grid (worst margin -2.0e-4 over these seeds)."""
        d = 2 + seed % 3
        split = zeno_split(hamiltonian_superoperator(random_hermitian(np.random.default_rng(seed), d)),
                           liouvillian(random_gkls(d, 1 + seed % 3, seed=seed)).mat)
        assert split.gap_data.eta == math.inf
        grid = evaluate_grid(split, [10.0, 100.0, 1000.0], np.linspace(0.25, 2.0, 6), bounds=tuple(BOUND_FUNCTIONS))
        assert summarize_grid(grid)["max_bound_violation"] <= 0.0

    @pytest.mark.parametrize("name", sorted(BOUND_FUNCTIONS))
    def test_one_negative_time_in_an_array_raises(self, name):
        with pytest.raises(ValidationError, match="t must be nonnegative"):
            BOUND_FUNCTIONS[name](_plain_inputs(), 10.0, np.array([0.5, -1e-9, 1.0]))
        with pytest.raises(ValidationError, match="gamma must be positive"):
            BOUND_FUNCTIONS[name](_plain_inputs(), np.array([[10.0], [-1.0]]), PARITY_TIMES)


def _dyson_pairs():
    """The 50 corpus pairs and the three-level model as (id, B, C)."""
    for i, (strong, weak) in enumerate(gkls_pair_corpus()):
        yield f"corpus-{i}", liouvillian(strong).mat, liouvillian(weak).mat
    weak, strong = three_level_generators(ThreeLevelParams())
    yield "three-level", strong.mat, weak.mat


class TestPerturbedSemigroupBound:
    """The measured M against the Dyson statement it feeds (``conftest.dyson_check``)."""

    def test_zero_weak_generator(self, three_level):
        _, _, d_super, _ = three_level
        rep = dyson_check(d_super.mat, np.zeros_like(d_super.mat), gamma=50.0, t_grid=np.linspace(0, 2, 9))
        assert rep.satisfied

    def test_skew_hermitian_m_equals_one(self, rng):
        """||e^{tB}|| = 1 for unitary B, so M is the split's floor 1.05 x 1."""
        b = hamiltonian_superoperator(random_hermitian(rng, 2))  # -i[K,.], unitary flow
        c = liouvillian(random_gkls(2, 1, seed=3)).mat
        rep = dyson_check(b, c, gamma=20.0, t_grid=np.linspace(0, 2, 9))
        assert rep.satisfied
        assert rep.m_bound == pytest.approx(1.05, rel=1e-14)
        assert rep.max_semigroup_ratio == pytest.approx(1.0 / 1.05, rel=1e-14)

    def test_three_level_pair(self, three_level):
        _, l_super, d_super, _ = three_level
        rep = dyson_check(d_super.mat, l_super.mat, gamma=100.0, t_grid=np.linspace(0, 2, 9))
        assert rep.satisfied
        assert rep.max_perturbed_ratio <= 1.0

    def test_report_equals_the_per_t_loop(self, three_level):
        """The stacked ``expm`` and ``spectral_norms`` of the check equal one call per t bit for bit."""
        _, l_super, d_super, _ = three_level
        b, c, gamma, t_grid = d_super.mat, l_super.mat, 30.0, np.linspace(0, 2, 9)
        m = BoundInputs.from_split(zeno_split(b, c), t_max=2.0, gamma_max=gamma).m_bound
        semigroup = [spectral_norm(expm(b, t)) for t in t_grid]
        ratio_pert = 0.0
        for t in t_grid:
            ratio_pert = max(ratio_pert, spectral_norm(expm(gamma * b + c, t))
                             / (m * math.exp(t * m * spectral_norm(c))))
        rep = dyson_check(b, c, gamma, t_grid)
        assert (rep.m_bound, rep.max_semigroup_ratio, rep.max_perturbed_ratio) == (
            m, max(n / m for n in semigroup), ratio_pert)

    @pytest.mark.parametrize("gamma", [100.0, 1000.0])
    def test_corpus_pair_14_holds_with_the_split_m(self, gamma):
        """A 1.05 x max over the t-grid alone (M = 1.229) reported this pair's bound as violated."""
        strong, weak = gkls_pair_corpus()[14]
        b, c = liouvillian(strong).mat, liouvillian(weak).mat
        assert dyson_check(b, c, gamma, np.linspace(0, 2, 9)).satisfied

    def test_every_corpus_pair_and_the_three_level_model_hold(self):
        failed = [name for name, b, c in _dyson_pairs()
                  if not dyson_check(b, c, 1000.0, np.linspace(0, 2, 9)).satisfied]
        assert failed == []

    def test_a_pair_zeno_split_rejects_raises_its_error(self):
        with pytest.raises(SpectrumViolationError):
            dyson_check(np.diag([0.5, -1.0]), np.zeros((2, 2)), 10.0, [0.0, 1.0])


def _grid(points):
    """An ``evaluate_grid`` grid with the peripheral error ``e`` at each (gamma, e) point, at t = 1."""
    gammas, errors = np.array(points).T[:, :, None]
    return {**dict.fromkeys(CSV_COLUMNS), "gamma": gammas, "t": np.ones_like(gammas), "error_peripheral": errors}


class TestConvergenceSlope:
    def test_exact_inverse_law(self):
        gammas = np.geomspace(1.0, 1e4, 9)
        assert _loglog_slope([(g, 3.7 / g) for g in gammas]) == pytest.approx(-1.0, abs=1e-12)

    def test_exact_inverse_square_law(self):
        gammas = np.geomspace(1.0, 1e4, 9)
        assert _loglog_slope([(g, 0.2 / g ** 2) for g in gammas]) == pytest.approx(-2.0, abs=1e-12)

    def test_nonpositive_error_rejected(self):
        gammas = np.geomspace(1.0, 1e4, 5)
        points = [(g, 1.0 / g) for g in gammas]
        points[2] = (points[2][0], 0.0)
        summary = summarize_grid(_grid(points))
        assert summary["slope"] is None and "positive errors" in summary["notice"]

    def test_short_grid_rejected(self):
        summary = summarize_grid(_grid([(1.0, 1.0), (10.0, 0.1), (100.0, 0.01)]))
        assert summary["slope"] is None and "need >= 4 gamma points" in summary["notice"]


class TestPulsedZeno:
    @staticmethod
    def _measurement_projection(rng):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        p0 = np.outer(psi, psi.conj())
        p1 = np.eye(2) - p0
        return sandwich_super(p0, p0) + sandwich_super(p1, p1)

    def test_commuting_generator_needs_no_correction(self, rng):
        proj = self._measurement_projection(rng)
        a = random_complex(rng, 4)
        gen = proj @ a @ proj + (np.eye(4) - proj) @ a @ (np.eye(4) - proj)
        for n in (1, 3, 8):
            assert pulsed_zeno_product(proj, gen, 1.0, n).distance <= 1e-10

    def test_distance_halves_when_n_doubles(self, rng):
        proj = self._measurement_projection(rng)
        gen = liouvillian(random_gkls(2, 2, seed=8)).mat
        d8 = pulsed_zeno_product(proj, gen, 1.0, 8).distance
        d16 = pulsed_zeno_product(proj, gen, 1.0, 16).distance
        d32 = pulsed_zeno_product(proj, gen, 1.0, 32).distance
        for a, b in ((d8, d16), (d16, d32)):
            assert 0.375 <= b / a <= 0.625

    def test_t_zero_product_is_the_projection(self, rng):
        # (P e^{0})^n = P exactly, so product and limit coincide at t = 0
        proj = self._measurement_projection(rng)
        gen = liouvillian(random_gkls(2, 1, seed=9)).mat
        res = pulsed_zeno_product(proj, gen, 0.0, 4)
        assert np.allclose(res.product, proj, atol=1e-12)
        assert res.distance <= 1e-12

    def test_non_idempotent_rejected(self, rng):
        with pytest.raises(ValidationError):
            pulsed_zeno_product(1.5 * np.eye(4), np.zeros((4, 4)), 1.0, 4)


class TestHamiltonianZeno:
    """The projected-Hamiltonian oracle (``conftest.hamiltonian_zeno``) on closed forms, before it checks
    C_Z, and the merge of K's levels that the package's projections of [K, .] use."""

    def test_fully_off_diagonal_vanishes(self):
        assert np.allclose(hamiltonian_zeno(SZ, SX), 0.0, atol=1e-14)

    def test_diagonal_part_survives(self):
        assert np.allclose(hamiltonian_zeno(SZ, SZ + SX), SZ, atol=1e-14)

    def test_trivial_strong_hamiltonian(self, rng):
        h = random_hermitian(rng, 3)
        assert np.allclose(hamiltonian_zeno(np.eye(3), h), h, atol=1e-12)

    def test_commutes_with_strong_hamiltonian(self, rng):
        k, h = random_hermitian(rng, 4), random_hermitian(rng, 4)
        hz = hamiltonian_zeno(k, h)
        assert spectral_norm(hz @ k - k @ hz) <= 1e-10 * spectral_norm(k) * spectral_norm(h)
        assert spectral_norm(hz - hz.conj().T) <= 1e-12

    def test_levels_between_tol_and_twice_tol_merge(self):
        # single linkage keeps 0 and 1.5e-7 apart at the tolerance 1e-7 max(||K||, 1) = 1e-7;
        # the safety merge of representatives within 2 * tol then joins them
        k = np.diag([0.0, 1.5e-7, 1.0]).astype(complex)
        comps = commutator_projections(k)
        assert sorted(c.omega for c in comps) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-5)
        zero = next(c for c in comps if abs(c.omega) < 1e-12)
        assert np.trace(zero.projector).real == pytest.approx(5.0)


class TestCommutatorProjections:
    def test_qubit_frequencies(self):
        comps = commutator_projections(np.diag([0.0, 1.0]).astype(complex))
        freqs = sorted(c.omega for c in comps)
        assert freqs == pytest.approx([-1.0, 0.0, 1.0])
        zero = next(c for c in comps if abs(c.omega) < 1e-12)
        e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        want = sandwich_super(e00, e00) + sandwich_super(e11, e11)
        assert np.allclose(zero.projector, want, atol=1e-12)

    def test_degenerate_bohr_frequency(self):
        comps = commutator_projections(np.diag([0.0, 1.0, 2.0]).astype(complex))
        freqs = sorted(c.omega for c in comps)
        assert freqs == pytest.approx([-2.0, -1.0, 0.0, 1.0, 2.0])
        plus_one = next(c for c in comps if abs(c.omega - 1.0) < 1e-12)
        assert np.trace(plus_one.projector).real == pytest.approx(2.0)  # two pairs

    def test_completeness(self, rng):
        k = random_hermitian(rng, 3)
        total = sum(c.projector for c in commutator_projections(k))
        assert spectral_norm(total - np.eye(9)) <= 1e-8

    def test_matches_spectral_clusters(self, rng):
        from zeno_limits import decompose
        k = random_hermitian(rng, 3)
        comps = commutator_projections(k)
        dec = decompose(hamiltonian_superoperator(k))
        for comp in comps:
            idx = int(np.argmin([abs(c.eigenvalue + 1j * comp.omega) for c in dec.clusters]))
            assert spectral_norm(dec.clusters[idx].projection - comp.projector) <= 1e-8


class TestStructuralInvariants:
    def test_factorization_orderings_agree_on_peripheral_subspace(self, three_level):
        _, _, d_super, split = three_level
        gamma, t = 30.0, 1.0
        left = expm(d_super.mat, gamma * t) @ expm(split.c_z, t)
        right = expm(split.c_z, t) @ expm(d_super.mat, gamma * t)
        assert spectral_norm((left - right) @ split.p_phi) <= 1e-8

    def test_commutator_split_matches_projected_hamiltonian(self, rng):
        k, h = random_hermitian(rng, 3), random_hermitian(rng, 3)
        split = zeno_split(hamiltonian_superoperator(k), hamiltonian_superoperator(h))
        want = hamiltonian_superoperator(hamiltonian_zeno(k, h))
        assert spectral_norm(split.c_z - want) <= 1e-8 * max(1.0, spectral_norm(want))

    def test_zeno_generator_gkls_for_unitary_strong_part(self, rng):
        # projecting by fast oscillations preserves GKLS form
        k = random_hermitian(rng, 2)
        c = liouvillian(random_gkls(2, 2, seed=13)).mat
        split = zeno_split(hamiltonian_superoperator(k), c)
        rep = gkls_form_check(Superoperator(2, split.c_z, "projected"))
        assert rep.trace_annihilating
        assert rep.conditionally_completely_positive

    def test_zeno_limit_map_cptp_for_damped_strong_part(self, three_level):
        # with a damping strong generator C_Z itself need not be of GKLS
        # form; the physical object e^{t C_Z} P_phi is CPTP
        _, _, _, split = three_level
        for t in (0.5, 1.0, 2.0):
            phi_map = expm(split.c_z, t) @ split.p_phi
            rep = cptp_check(Superoperator(3, phi_map, "projected"))
            assert rep.completely_positive and rep.trace_preserving


class TestUniformRateEnvelope:
    def test_sup_error_bounded_by_k_over_gamma(self, three_level):
        # in the asymptotic regime the sup-over-t error sits under K/gamma
        # with K read off the two largest couplings
        _, _, _, split = three_level
        t_grid = np.linspace(0.25, 2.0, 16)
        gammas = (100.0, 300.0, 1000.0)
        sups = [max(adiabatic_error(split, g, t, "peripheral") for t in t_grid)
                for g in gammas]
        k = max(gammas[-2] * sups[-2], gammas[-1] * sups[-1])
        for g, e in zip(gammas, sups):
            assert e <= k / g * (1 + 1e-9)


class TestBoundInputsMeasurement:
    def test_m_bound_covers_the_semigroup(self, three_level):
        _, _, d_super, split = three_level
        inputs = BoundInputs.from_split(split)
        assert inputs.m_bound >= 1.0
        for t in np.linspace(0.0, 50.0, 11):
            assert spectral_norm(expm(d_super.mat, t)) <= inputs.m_bound

    def test_envelope_covers_the_decaying_part(self, three_level):
        _, _, d_super, split = three_level
        inputs = BoundInputs.from_split(split)
        for t in np.linspace(0.0, 10.0, 21):
            decaying = expm(d_super.mat, t) @ (np.eye(9) - split.p_phi)
            envelope = math.exp(-inputs.eta * t) * float(np.polyval(inputs.p_coeffs[::-1], t))
            assert spectral_norm(decaying) <= envelope * (1 + 1e-9)
