"""The one-pass decomposition against independent references.

The orthogonality figure must bound what the k^2 projection-product loop
measures, and the projections must match biorthogonal eigenvector outer
products where the spectrum is simple.  The constants read from U, V and
T_kk (chi, S_l and e^{tB}, hence M) must match the formulas that rebuild
them from the D x D projections and nilpotents: an SVD of each
projection, a dense solve per cluster, and a per-cluster sum per t.
The projections and nilpotents formed on demand must equal the eager
expressions byte for byte, and the screened M sample must equal the
sample that sends all 64 points through the SVD, both in the split's
frame.  The bound that decides which samples are formed at all must hold
for every sample on a dense t-grid.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from zeno_limits import (BoundInputs, GklsSystem, condition_number, decompose, liouvillian,
                         random_gkls, reduced_resolvent, spectral, spectral_expm, spectral_norm,
                         zeno, zeno_split)
from zeno_limits.errors import IllConditionedDecompositionError, UnsupportedInputError, ValidationError
from zeno_limits.experiments import BOUNDS, evaluate_grid
from zeno_limits.models import ThreeLevelParams, gkls_pair_corpus, three_level_generators

from oracles import bench_pair, random_complex


def _product_figure(dec) -> float:
    """max_ij ||P_i P_j - delta_ij P_i|| over every ordered cluster pair."""
    worst = 0.0
    for i, ci in enumerate(dec.clusters):
        for j, cj in enumerate(dec.clusters):
            target = ci.projection if i == j else 0.0
            worst = max(worst, spectral_norm(ci.projection @ cj.projection - target))
    return worst


def _validation_cases():
    rng = np.random.default_rng(2024)
    for n in (3, 9, 16):
        yield pytest.param(random_complex(rng, n), {}, id=f"random-{n}")
    for seed, d in ((1, 2), (2, 3), (3, 4)):
        gen = liouvillian(random_gkls(d, 1 + seed % 3, seed=seed)).mat
        yield pytest.param(gen, {}, id=f"gkls-D{d * d}")
    yield pytest.param(np.diag([1.0, 1.0 + 1e-10, 5.0]),
                       {"cluster_tol": 1e-8, "imag_tol": 1e-8}, id="near-degenerate")


@pytest.mark.parametrize("a, tols", _validation_cases())
def test_orthogonality_figure_bounds_product_loop(a, tols, monkeypatch):
    figures = []
    bound = spectral._orthogonality_bound

    def recording_bound(*args):
        figures.append(bound(*args))
        return figures[-1]

    monkeypatch.setattr(spectral, "_orthogonality_bound", recording_bound)
    dec = decompose(a, **tols)
    assert len(dec.clusters) > 1 and len(figures) == 1
    assert figures[0] >= _product_figure(dec)


@pytest.mark.parametrize("a, tols", [pytest.param(random_complex(np.random.default_rng(8), 9), {}, id="singletons"),
                                     pytest.param(np.diag([1.0, 1.0 + 1e-10, 5.0]), {"cluster_tol": 1e-8},
                                                  id="a-pair-and-a-singleton")])
def test_orthogonality_figure_equals_the_block_sum_expression_bytewise(a, tols):
    """The block sums of the orthogonality bound and the cluster norms, skipped when every cluster is
    one eigenvalue (a sum over one-entry blocks is its entry), equal the reduceat expressions bytewise."""
    dec = decompose(a, **tols)
    u, v, starts = dec.u, dec.v, np.array(dec.starts)
    cuts = starts[:-1]
    u_norm = np.sqrt(np.add.reduceat(np.sum(np.abs(u) ** 2, axis=0), cuts))
    v_norm = np.sqrt(np.add.reduceat(np.sum(np.abs(v) ** 2, axis=1), cuts))
    g_sq = np.add.reduceat(np.add.reduceat(np.abs(v @ u - np.eye(dec.dim)) ** 2, cuts, 0), cuts, 1)
    p_norm = u_norm * v_norm
    want = float(np.max(np.outer(u_norm, v_norm) * np.sqrt(g_sq)
                        + dec.dim * np.finfo(float).eps * np.outer(p_norm, p_norm)))
    got_u, got_v = spectral._cluster_norms(u, v, starts)
    assert got_u.tobytes() == u_norm.tobytes() and got_v.tobytes() == v_norm.tobytes()
    assert spectral._orthogonality_bound(u, v, starts) == want


def _cluster_matrix_cases():
    yield pytest.param(_random_generator(8, 2, np.random.default_rng(64)), {}, id="gkls-D64")
    yield pytest.param(_degenerate_generator(), {"cluster_tol": 1e-6, "imag_tol": 1e-6}, id="degenerate")
    yield pytest.param(sla.block_diag(0.0, _jordan(-1.0, 3), np.diag([-2.0, 1.0j])), {}, id="0+J3+diag")
    yield pytest.param(_jordan(-1.0, 3), {}, id="J3(-1)")


@pytest.mark.parametrize("a, tols", _cluster_matrix_cases())
def test_cluster_matrices_equal_the_eager_expressions_bytewise(a, tols):
    dec = decompose(a, **tols)
    t = np.asfortranarray(dec.blocks)  # the layout of the reordered Schur triangle decompose holds
    for c, lo, hi in zip(dec.clusters, dec.starts, dec.starts[1:]):
        assert not {"projection", "nilpotent"} & set(vars(c))
        want_p = np.eye(dec.dim, dtype=complex) if len(dec.clusters) == 1 else dec.u[:, lo:hi] @ dec.v[lo:hi, :]
        want_n = dec.u[:, lo:hi] @ (t[lo:hi, lo:hi] - c.eigenvalue * np.eye(hi - lo)) @ dec.v[lo:hi, :]
        assert c.projection.tobytes() == want_p.tobytes()
        assert c.nilpotent.tobytes() == want_n.tobytes()
        assert c.projection is c.projection  # formed once, then kept
        if hi - lo == 1:
            assert not c.nilpotent.any() and c.index == 1


def _recording_decompositions(monkeypatch) -> list:
    """Every SpectralDecomposition that ``decompose`` builds, also when it then raises."""
    made = []

    class Recording(spectral.SpectralDecomposition):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(spectral, "SpectralDecomposition", Recording)
    return made


def _assert_spectral_diagnostics(diagnostics, dec, a):
    assert list(diagnostics) == ["completeness", "reconstruction", "orthogonality"]
    assert diagnostics["completeness"] == spectral_norm(dec.u @ dec.v - np.eye(dec.dim))
    assert diagnostics["reconstruction"] == spectral_norm(dec.u @ dec.blocks @ dec.v - a)
    assert diagnostics["orthogonality"] == spectral._orthogonality_bound(dec.u, dec.v, np.array(dec.starts))
    assert max(diagnostics.values()) > spectral.RESIDUAL_FACTOR * dec.cluster_tol


def test_ill_conditioned_residuals_carry_spectral_norms(monkeypatch):
    made = _recording_decompositions(monkeypatch)
    a = np.array([[0.0, 1e6], [0.0, 3e-7]], dtype=complex)
    with pytest.raises(IllConditionedDecompositionError, match="residuals") as info:
        decompose(a, cluster_tol=1e-12, imag_tol=1e-16)
    _assert_spectral_diagnostics(info.value.diagnostics, made[-1], a)


def test_perturbed_basis_fails_completeness_with_spectral_norms(monkeypatch):
    made = _recording_decompositions(monkeypatch)
    solve = spectral._solve_upper  # the triangular solve that forms V = Y^-1 Q^dagger
    monkeypatch.setattr(spectral, "_solve_upper", lambda *args, **kwargs: solve(*args, **kwargs) + 1e-3)
    a = _random_generator(3, 2, np.random.default_rng(5))
    with pytest.raises(IllConditionedDecompositionError, match="residuals") as info:
        decompose(a)
    diagnostics = info.value.diagnostics
    assert diagnostics["completeness"] > spectral.RESIDUAL_FACTOR * made[-1].cluster_tol
    _assert_spectral_diagnostics(diagnostics, made[-1], a)


def test_single_cluster_projection_is_exact_identity():
    dec = decompose(np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]))
    assert len(dec.clusters) == 1
    assert np.array_equal(dec.clusters[0].projection, np.eye(3))


def test_projections_match_biorthogonal_eigenvectors():
    rng = np.random.default_rng(64)
    d = 8
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    jumps = tuple(random_complex(rng, d) for _ in range(2))
    gen = liouvillian(GklsSystem(d=d, hamiltonian=(h + h.conj().T) / 2, jumps=jumps)).mat
    gen = gen / spectral_norm(gen)
    dec = decompose(gen)
    assert len(dec.clusters) == d * d  # simple spectrum
    w, left, right = sla.eig(gen, left=True, right=True)
    for c in dec.clusters:
        k = int(np.argmin(np.abs(w - c.eigenvalue)))
        x, y = right[:, k], left[:, k]
        oracle = np.outer(x, y.conj()) / (y.conj() @ x)
        assert spectral_norm(c.projection - oracle) <= 1e-9, c.eigenvalue


# ---------------------------------------------------------------------------
# chi, S_l, e^{tB} and M against the per-projection formulas
# ---------------------------------------------------------------------------

def _oracle_condition_number(dec) -> float:
    """chi from an orthonormal basis of each projection's range, by its SVD."""
    cols = []
    for c in dec.clusters:
        u, _, _ = np.linalg.svd(c.projection)
        cols.append(u[:, :round(np.trace(c.projection).real)])
    t = np.hstack(cols)
    return float(np.linalg.norm(t, 2) * np.linalg.norm(np.linalg.inv(t), 2))


def _per_cluster_qr_condition_number(dec) -> float:
    """chi with one thin QR call per cluster block U_k, the stacked call's reference."""
    t = np.hstack([np.linalg.qr(dec.u[:, lo:hi])[0] for lo, hi in zip(dec.starts, dec.starts[1:])])
    sigma = np.linalg.svd(t, compute_uv=False)
    return float(sigma[0] / sigma[-1])


def _oracle_reduced_resolvent(dec, ell: int) -> np.ndarray:
    """sum_{k != l} [(b_k - b_l) I + N_k]^{-1} P_k by one dense solve per cluster."""
    b_l, eye = dec.clusters[ell].eigenvalue, np.eye(dec.dim)
    s = np.zeros((dec.dim, dec.dim), dtype=complex)
    for k, c in enumerate(dec.clusters):
        if k != ell:
            s += np.linalg.solve((c.eigenvalue - b_l) * eye + c.nilpotent, c.projection)
    return s


def _oracle_spectral_expm(dec, t: float) -> np.ndarray:
    """sum_k e^{t b_k} [sum_{n < n_k} (t N_k)^n / n!] P_k, one cluster at a time."""
    out = np.zeros((dec.dim, dec.dim), dtype=complex)
    for c in dec.clusters:
        if t * c.eigenvalue.real < -745.0:
            continue
        term, power = c.projection.copy(), c.nilpotent @ c.projection
        for n in range(1, c.index):
            term += (t ** n / math.factorial(n)) * power
            power = power @ c.nilpotent
        out += np.exp(t * c.eigenvalue) * term
    return out


def _m_grid(t_max: float = 2.0, gamma_max: float = 1000.0) -> np.ndarray:
    """The 64 times at which ``BoundInputs.from_split`` samples ||e^{tB}||."""
    horizon = t_max * gamma_max
    return np.concatenate([[0.0], np.geomspace(horizon * 1e-6, horizon, 63)])


def _random_generator(d: int, n_jumps: int, rng) -> np.ndarray:
    """A seeded GKLS superoperator of unit norm at any d (``random_gkls`` stops at 4)."""
    h = random_complex(rng, d)
    jumps = [random_complex(rng, d) for _ in range(n_jumps)]
    gen = liouvillian(GklsSystem(d=d, hamiltonian=(h + h.conj().T) / 2,
                                 jumps=tuple(m - np.trace(m) / d * np.eye(d) for m in jumps))).mat
    return gen / spectral_norm(gen)


def _jordan(eigenvalue: complex, size: int) -> np.ndarray:
    return eigenvalue * np.eye(size) + np.eye(size, k=1)


def _oracle_cases():
    for d in (2, 3, 4, 6, 8):
        rng = np.random.default_rng(700 + d)
        yield pytest.param((_random_generator(d, 2, rng), _random_generator(d, 1, rng)), id=f"gkls-D{d * d}")
    yield pytest.param((sla.block_diag(0.0, _jordan(-1.0, 2)), np.ones((3, 3))), id="0+J2(-1)")
    yield pytest.param((sla.block_diag(0.0, _jordan(-0.5 + 1.0j, 3)), np.ones((4, 4))), id="0+J3")


@pytest.fixture(scope="module", params=list(_oracle_cases()))
def oracle_split(request):
    return zeno_split(*request.param)


def _relative(got, want) -> float:
    return spectral_norm(got - want) / spectral_norm(want)


def test_condition_number_matches_projection_svds(oracle_split):
    dec = oracle_split.decomposition
    if any(not c.semisimple for c in dec.clusters):
        with pytest.raises(UnsupportedInputError):
            condition_number(dec)
        return
    assert condition_number(dec) == pytest.approx(_oracle_condition_number(dec), rel=1e-12, abs=0)


def _degenerate_generator() -> np.ndarray:
    """A similarity transform of clusters of sizes 1, 2, 2, 3 and 1: two of them share a size."""
    rng = np.random.default_rng(31)
    eigs = np.repeat([0.0, -1.0 + 2.0j, -1.0 - 2.0j, -0.5, -3.0], [1, 2, 2, 3, 1])
    basis = random_complex(rng, eigs.size) + 3.0 * np.eye(eigs.size)
    return basis @ np.diag(eigs) @ np.linalg.inv(basis)


def test_stacked_qr_condition_number_equals_per_cluster_qr():
    dec = decompose(_degenerate_generator(), cluster_tol=1e-6, imag_tol=1e-6)
    assert sorted(np.diff(dec.starts).tolist()) == [1, 1, 2, 2, 3]
    assert condition_number(dec) == _per_cluster_qr_condition_number(dec)
    strongs = [liouvillian(strong).mat for strong, _ in gkls_pair_corpus()]
    for b in strongs + [_random_generator(8, 2, np.random.default_rng(64))]:
        dec = decompose(b)
        assert condition_number(dec) == _per_cluster_qr_condition_number(dec)


def test_reduced_resolvents_match_dense_solves(oracle_split):
    dec = oracle_split.decomposition
    for ell, s in oracle_split.resolvents.items():
        assert _relative(s, _oracle_reduced_resolvent(dec, ell)) <= 1e-12
    for ell in {0, len(dec.clusters) // 2, len(dec.clusters) - 1} - set(oracle_split.resolvents):
        want = _oracle_reduced_resolvent(dec, ell)
        assert _relative(reduced_resolvent(dec, ell), want) <= 1e-12


def test_batched_exponential_and_m_match_the_per_t_loop(oracle_split):
    dec = oracle_split.decomposition
    grid = _m_grid()
    stack = spectral_expm(dec, grid)
    assert stack.shape == (grid.size, dec.dim, dec.dim)
    norms = []
    for t, got in zip(grid, stack):
        want = _oracle_spectral_expm(dec, t)
        norms.append(spectral_norm(want))
        assert spectral_norm(got - want) <= 1e-12 * norms[-1], t
    if all(c.semisimple for c in dec.clusters):  # from_split needs chi
        want_m = 1.05 * max(1.0, max(norms))
        assert BoundInputs.from_split(oracle_split).m_bound == pytest.approx(want_m, rel=1e-12, abs=0)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_m_sample_stacks_stay_small_and_equal_one_point_calls(d, monkeypatch):
    rng = np.random.default_rng(900 + d)
    split = zeno_split(_random_generator(d, 2, rng), _random_generator(d, 1, rng))
    shapes, times = [], []

    def recording_expm(dec, t, *args):
        out = spectral_expm(dec, t, *args)
        shapes.append(out.shape)
        times.append(np.atleast_1d(t).tolist())
        return out

    monkeypatch.setattr(zeno, "spectral_expm", recording_expm)
    got = BoundInputs.from_split(split).m_bound
    assert sum(shape[0] for shape in shapes) <= 64  # a sample whose bound cannot raise M is not formed
    assert max(math.prod(shape) for shape in shapes) <= 8 * 64 * 64
    assert times[0] == [_m_grid()[-1]]  # at every D the latest sample is formed first and alone
    assert split.frame.real
    sampled = max(np.linalg.norm(_frame_sample(split, t), 2) for t in _m_grid().tolist())
    assert got == 1.05 * max(1.0, sampled)


def _frame_sample(split, t, in_frame: bool = True) -> np.ndarray:
    """e^{tB} as ``from_split`` samples it: in the split's frame, real for a real frame.

    With ``in_frame`` False, the complex e^{tB} of the standard basis instead.
    """
    frame = split.frame
    if not in_frame:
        return spectral_expm(split.decomposition, t)
    out = spectral_expm(split.decomposition, t, frame.u, frame.v)
    return out.real if frame.real else out


def _full_sample_m(split, in_frame: bool = True) -> float:
    """1.05 max(1, the largest ||e^{tB}||), every sample through the SVD, in from_split's stacks."""
    grid = _m_grid()
    chunk = max(1, zeno._M_STACK_ENTRIES // split.decomposition.dim ** 2)
    sampled = max(float(np.linalg.svd(_frame_sample(split, grid[i:i + chunk], in_frame),
                                      compute_uv=False)[:, 0].max())
                  for i in range(0, grid.size, chunk))
    return 1.05 * max(1.0, sampled)


#: a normal B whose samples all stay at or below the floor 1, and a nonnormal B whose
#: ||e^{tB}|| climbs to about 12 before it settles at 1
FLOOR_B = np.diag([-0.5, -1.0 + 2.0j, -3.0])
TRANSIENT_B = sla.block_diag(0.0, np.array([[-1.0, 50.0], [0.0, -2.0]]))


def _m_cases():
    for i, (strong, weak) in enumerate(gkls_pair_corpus()):
        yield pytest.param(liouvillian(strong).mat, liouvillian(weak).mat, id=f"corpus-{i}")
    weak, strong = three_level_generators(ThreeLevelParams())
    yield pytest.param(strong.mat, weak.mat, id="three-level")
    for d in (6, 8):
        rng = np.random.default_rng(1100 + d)
        yield pytest.param(_random_generator(d, 2, rng), _random_generator(d, 1, rng), id=f"gkls-D{d * d}")
    rotation = np.linalg.qr(random_complex(np.random.default_rng(3), 3))[0]
    yield pytest.param(FLOOR_B, np.ones((3, 3)), id="normal-floor")
    yield pytest.param(rotation @ FLOOR_B @ rotation.conj().T, np.ones((3, 3)), id="normal-rotated")
    yield pytest.param(TRANSIENT_B, np.ones((3, 3)), id="transient")


@pytest.mark.parametrize("b, c", _m_cases())
def test_screened_m_equals_the_full_svd_sample(b, c):
    split = zeno_split(b, c)
    assert BoundInputs.from_split(split).m_bound == _full_sample_m(split)


def _real_frame_cases():
    for i, (strong, weak) in enumerate(gkls_pair_corpus()):
        yield pytest.param(liouvillian(strong).mat, liouvillian(weak).mat, id=f"corpus-{i}")
    weak, strong = three_level_generators(ThreeLevelParams())
    yield pytest.param(strong.mat, weak.mat, id="three-level")
    for d, seed in itertools.product((6, 8), range(3)):
        rng = np.random.default_rng(1200 + 10 * d + seed)
        yield pytest.param(_random_generator(d, 2, rng), _random_generator(d, 1, rng), id=f"gkls-D{d * d}-{seed}")


@pytest.mark.parametrize("b, c", _real_frame_cases())
def test_frame_m_is_the_complex_sample_m_up_to_rounding(b, c):
    """The spectral norm is unitarily invariant: sampled in the real frame, M moves only at rounding."""
    split = zeno_split(b, c)
    assert split.frame.real
    got, want = BoundInputs.from_split(split).m_bound, _full_sample_m(split, in_frame=False)
    assert abs(got - want) <= 4 * split.decomposition.dim * np.finfo(float).eps * want


def _complex_frame_cases():
    rotation = np.linalg.qr(random_complex(np.random.default_rng(4), 4))[0]
    yield pytest.param(FLOOR_B, np.ones((3, 3)), id="normal-floor")
    yield pytest.param(TRANSIENT_B, np.ones((3, 3)), id="transient")
    yield pytest.param(rotation @ np.diag([0.0, -1.0, -2.0 + 1.0j, -0.5]) @ rotation.conj().T,
                       np.ones((4, 4)), id="not-hermiticity-preserving-D4")


@pytest.mark.parametrize("b, c", _complex_frame_cases())
def test_split_without_a_real_frame_keeps_the_complex_sample(b, c):
    split = zeno_split(b, c)
    assert not split.frame.real
    assert BoundInputs.from_split(split).m_bound == _full_sample_m(split, in_frame=False)


def test_screened_m_floor_and_transient_cases():
    assert BoundInputs.from_split(zeno_split(FLOOR_B, np.ones((3, 3)))).m_bound == 1.05
    assert BoundInputs.from_split(zeno_split(TRANSIENT_B, np.ones((3, 3)))).m_bound > 10.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_the_screen_would_skip_raises(bad, monkeypatch):
    """With inf bounds every sample is formed, the latest first and alone; a non-finite entry in
    it raises with the M sample's own message, though its norm sits far below the floor 1."""
    split = zeno_split(FLOOR_B, np.ones((3, 3)))

    def poisoned(dec, t, *args):
        out = spectral_expm(dec, t, *args)
        assert out.shape[0] == 1 and np.linalg.norm(out[0], 2) < 1e-300
        out[0, 0, 0] = bad
        return out

    monkeypatch.setattr(zeno, "_sample_bounds", lambda split, ts: np.full(ts.size, np.inf))
    monkeypatch.setattr(zeno, "spectral_expm", poisoned)
    with pytest.raises(ValidationError, match=r"e\^\{tB\} sample contains non-finite entries"):
        BoundInputs.from_split(split)


def test_overflowing_bound_keeps_its_sample(monkeypatch):
    """A sample whose squared norm overflows (any Gram or power bound of it is inf) still reaches
    the SVD and sets M."""
    split = zeno_split(FLOOR_B, np.ones((3, 3)))
    huge = np.full((3, 3), 1e200, dtype=complex)  # ||A||^2 = 9e400 overflows; ||A|| = 3e200

    def scaled(dec, t, *args):
        out = spectral_expm(dec, t, *args)
        out[-1] = huge
        return out

    monkeypatch.setattr(zeno, "spectral_expm", scaled)
    assert BoundInputs.from_split(split).m_bound == 1.05 * spectral_norm(huge)


def _m_sample_work(split, monkeypatch) -> tuple[list, list, list]:
    """The samples ``from_split`` forms for ``split``, the matrices its M sample sends to the SVD
    and the times of each formed stack."""
    samples, stacks, svd_inputs = [], [], []
    norms = zeno.spectral_norms

    def recording_expm(dec, t, *args):
        out = spectral_expm(dec, t, *args)
        samples.extend(out)
        stacks.append(np.atleast_1d(t).tolist())
        return out

    def recording_norms(stack):
        svd_inputs.extend(stack)
        return norms(stack)

    monkeypatch.setattr(zeno, "spectral_expm", recording_expm)
    monkeypatch.setattr(zeno, "spectral_norms", recording_norms)
    BoundInputs.from_split(split)
    monkeypatch.undo()
    return samples, svd_inputs, stacks


def _each_formed_sample_takes_one_svd(samples: list, svd_inputs: list) -> bool:
    """Every formed sample reaches the SVD exactly once, as a float64 matrix (its real part)."""
    return (len(svd_inputs) == len(samples)
            and all(m.dtype == float and np.array_equal(m, s.real) for s, m in zip(samples, svd_inputs)))


def test_d64_work_counts(monkeypatch):
    """The M sample of a GKLS pair forms only the samples that can raise M and sends each of them,
    real, to the SVD once, and no non-peripheral projection is formed by the split, the constants
    or a grid.

    On this pair M sits on the late plateau, which the samples approach from below: 27
    samples have a bound above M, so at most 27 are formed.
    """
    rng = np.random.default_rng(1164)
    split = zeno_split(_random_generator(8, 2, rng), _random_generator(8, 1, rng))
    assert split.frame.real
    grid = _m_grid()
    sampled = BoundInputs.from_split(split).m_bound / 1.05
    assert np.sum(zeno._sample_bounds(split, grid) * zeno._SCREEN_SAFETY > sampled) == 27
    samples, svd_inputs, _ = _m_sample_work(split, monkeypatch)
    assert len(samples) <= 27
    assert _each_formed_sample_takes_one_svd(samples, svd_inputs)

    evaluate_grid(split, [10.0, 1000.0], np.geomspace(0.25, 2.0, 4), bounds=tuple(BOUNDS))
    dec = split.decomposition
    assert len(dec.nonperipheral_clusters) == 63
    assert not any("projection" in vars(c) for c in dec.nonperipheral_clusters)


def test_bench_seed_102_work_counts(monkeypatch):
    """On the ``dissipative-d64`` pair of seed 102, whose M is a transient above the plateau, at
    most 24 of the 64 samples are formed (64 when every sample was formed), each of them sent
    to the SVD once."""
    split = zeno_split(*bench_pair(102))
    samples, svd_inputs, _ = _m_sample_work(split, monkeypatch)
    assert len(samples) <= 24
    assert _each_formed_sample_takes_one_svd(samples, svd_inputs)


def test_corpus_work_counts(monkeypatch):
    """At criterion 5's horizon (the default 2 x 1000), the M samples of the 50 corpus pairs (D <= 16)
    form at most 1,500 samples in all (3,200 when every sample was formed), each pair's first formed
    stack is its latest sample alone, and every sample sent to the SVD is real."""
    formed, latest = 0, _m_grid()[-1]
    for strong, weak in gkls_pair_corpus():
        split = zeno_split(liouvillian(strong).mat, liouvillian(weak).mat)
        samples, svd_inputs, stacks = _m_sample_work(split, monkeypatch)
        formed += len(samples)
        assert stacks[0] == [latest]
        assert all(m.dtype == float for m in svd_inputs)
    assert formed <= 1500


@pytest.mark.parametrize("seed", range(101, 111))
def test_prescreened_m_equals_the_full_svd_sample_on_bench_pairs(seed):
    split = zeno_split(*bench_pair(seed))
    assert BoundInputs.from_split(split).m_bound == _full_sample_m(split)


def _similar_b() -> np.ndarray:
    """A diagonalizable B = S diag(0, -1, -2 + i, -1/2) S^{-1} whose chi is about 10^6."""
    s = np.eye(4) + 80.0 * np.triu(np.ones((4, 4)), 1)
    return s @ np.diag([0.0, -1.0, -2.0 + 1.0j, -0.5]) @ np.linalg.inv(s)


def _reset_b(d: int) -> np.ndarray:
    """The reset channel's generator, rho -> |0><0| tr(rho) - rho (jumps |0><j|); ||e^{tB}|| reaches sqrt(d)."""
    basis = np.eye(d)
    return liouvillian(GklsSystem(d=d, hamiltonian=np.zeros((d, d)),
                                  jumps=tuple(np.outer(basis[0], basis[j]) for j in range(d)))).mat


def _bound_cases():
    for i, (strong, weak) in enumerate(gkls_pair_corpus()):
        yield pytest.param(liouvillian(strong).mat, liouvillian(weak).mat, id=f"corpus-{i}")
    for seed in (101, 102, 103):
        yield pytest.param(*bench_pair(seed), id=f"bench-D64-{seed}")
    for d in (2, 3, 4):
        yield pytest.param(_reset_b(d), np.ones((d * d, d * d)), id=f"reset-d{d}")
    k = random_complex(np.random.default_rng(31), 3)
    yield pytest.param(liouvillian(GklsSystem(d=3, hamiltonian=(k + k.conj().T) / 2)).mat, np.ones((9, 9)),
                       id="unitary-D9")
    yield pytest.param(sla.block_diag(0.0, _jordan(-1.0, 2)), np.ones((3, 3)), id="0+J2(-1)")
    # a defective block whose transient (||e^{tB}|| near 3.7 at t = 1) only the e^{t ||N_k||} factor covers
    yield pytest.param(sla.block_diag(0.0, np.array([[-1.0, 10.0], [0.0, -1.0]])), np.ones((3, 3)),
                       id="0+defective-transient")
    yield pytest.param(_similar_b(), np.ones((4, 4)), id="similar-chi-1e6")


@pytest.mark.parametrize("b, c", _bound_cases())
def test_sample_bound_covers_the_formed_sample(b, c):
    """The pre-screen's bound times ``_SCREEN_SAFETY`` is at least the computed norm of the sample
    ``from_split`` would form, at 256 dense t up to its default horizon 2,000 and up to the
    horizons 1e-3 and 1e6."""
    split = zeno_split(b, c)
    for horizon in (2000.0, 1e-3, 1e6):
        ts = np.concatenate([[0.0], np.geomspace(horizon * 5e-8, horizon, 255)])
        norms = np.linalg.svd(_frame_sample(split, ts), compute_uv=False)[:, 0]
        assert np.all(zeno._sample_bounds(split, ts) * zeno._SCREEN_SAFETY >= norms), horizon


def test_tight_bounds_keep_m_exact(monkeypatch):
    """With each bound equal to its sample's norm, a sample is skipped only 1e-8 below the running
    max: the latest sample, formed first, raises it to the plateau, 4.4e-5 below the transient M."""
    split = zeno_split(*bench_pair(102))
    norms = np.linalg.svd(_frame_sample(split, _m_grid()), compute_uv=False)[:, 0]
    monkeypatch.setattr(zeno, "_sample_bounds", lambda split, ts: norms.copy())
    assert BoundInputs.from_split(split).m_bound == _full_sample_m(split)


def test_similar_case_is_ill_conditioned():
    assert 5e5 < condition_number(decompose(_similar_b())) < 5e6


def test_exponential_matches_scipy_expm(oracle_split):
    b = oracle_split.b
    ts = np.array([0.0, 0.3, 2.0, 15.0])
    for t, got in zip(ts, spectral_expm(oracle_split.decomposition, ts)):
        want = sla.expm(t * b)
        assert spectral_norm(got - want) <= 1e-10 * spectral_norm(want), t


def test_scalar_exponential_is_the_one_point_batch():
    dec = decompose(sla.block_diag(0.0, _jordan(-1.0, 3), np.diag([-2.0, 1.0j])))
    for t in (0.0, 0.7, 1e3):
        assert np.array_equal(spectral_expm(dec, t), spectral_expm(dec, np.array([t]))[0])


def _near_defective_pair(t):
    """e^{tA} for A = [[a, 1], [0, d]] + [-2], a = -0.5, d = a + 1e-8 i, in closed form."""
    a, d = -0.5, -0.5 + 1e-8j
    z = t * (a - d) / 2  # the divided difference t e^{t(a+d)/2} sinh(z)/z, with |z| < 1e-4
    exact = np.diag([np.exp(t * a), np.exp(t * d), np.exp(-2.0 * t)])
    exact[0, 1] = t * np.exp(t * (a + d) / 2) * (1 + z * z / 6 + z ** 4 / 120)
    return np.array([[a, 1.0, 0.0], [0.0, d, 0.0], [0.0, 0.0, -2.0]]), exact


@pytest.mark.parametrize("case", ["peripheral", "near-defective"])
def test_merged_cluster_keeps_its_spread(case):
    # two eigenvalues 1e-8 apart merge into one cluster; e^{t b_k} alone is off by ~ t 1e-8
    ts = np.array([0.3, 2.0, 60.0, 2000.0])
    if case == "peripheral":
        a = np.diag([0.0, 1e-8j, -1.0])
        wants = [np.diag(np.exp(t * np.diag(a))) for t in ts]
    else:
        a, wants = _near_defective_pair(0.0)[0], [_near_defective_pair(t)[1] for t in ts]
    dec = decompose(a)
    assert len(dec.clusters) == 2
    for t, got, want in zip(ts, spectral_expm(dec, ts), wants):
        assert spectral_norm(got - want) <= 1e-13 * spectral_norm(want), t


def test_underflowing_blocks_of_index_three_give_no_nan():
    # t^2 overflows at 1e200, where e^{-t} is zero: the block is dropped, not inf * 0
    dec = decompose(sla.block_diag(0.0, _jordan(-1.0, 3)))
    assert max(c.index for c in dec.clusters) == 3
    ts = np.array([0.0, 1.0, 700.0, 746.0, 1e5, 1e200])
    with np.errstate(invalid="raise", over="raise"):
        stack = spectral_expm(dec, ts)
    assert np.isfinite(stack).all()
    for t, got in zip(ts, stack):
        np.testing.assert_allclose(got, _oracle_spectral_expm(dec, t), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(stack[-1], np.diag([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("a", [2.0j * np.eye(4), _jordan(-1.0, 3)], ids=["scalar", "J3(-1)"])
def test_single_cluster_is_exact(a):
    dec = decompose(a)
    assert len(dec.clusters) == 1
    assert np.array_equal(reduced_resolvent(dec, 0), np.zeros_like(a))
    if dec.clusters[0].semisimple:
        assert condition_number(dec) == 1.0
