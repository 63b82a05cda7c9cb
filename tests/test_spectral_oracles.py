"""The one-pass decomposition against independent references.

The orthogonality figure must bound what the k^2 projection-product loop
measures, and the projections must match biorthogonal eigenvector outer
products where the spectrum is simple.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from zeno_limits import GklsSystem, decompose, liouvillian, random_gkls, spectral, spectral_norm

from conftest import random_complex


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
