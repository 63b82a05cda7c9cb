"""Property tests of ``decompose`` on clustered spectra.

A chain of eigenvalues spaced 0.5, 1 or 2 times ``cluster_tol`` (or a
merged pair on the imaginary axis), with one more eigenvalue just past the
chain's end and the rest spread over the left half-plane, is moved by a
random unitary similarity or by one of condition number up to 1e3, and
scaled to unit spectral norm (the tolerances with it).  ``decompose`` then
either raises a typed ``ZenoLimitsError`` that carries diagnostics (never
for a normal matrix, the unitary case), or meets its completeness,
reconstruction and orthogonality limits of
``RESIDUAL_FACTOR * cluster_tol``, merges a chain spaced within the
tolerance, and gives a ``spectral_expm`` within 1e-10 relative of
``linalg.expm``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeno_limits import decompose, expm, spectral_expm, spectral_norm
from zeno_limits.errors import ZenoLimitsError
from zeno_limits.spectral import RESIDUAL_FACTOR

from oracles import decomposition_residuals, random_complex

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)
#: a failing example makes hypothesis's pytest plugin import libcst to suggest a patch, and that
#: import warns; as an error the warning would abort the whole session instead of failing the test
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def clustered_matrix(seed: int, dim: int, spacing: float, length: int, gap: float, peripheral: bool,
                     cond: float, tol: float) -> tuple[np.ndarray, float, int]:
    """A unit-norm matrix with a clustered spectrum, its cluster_tol and the chain's length.

    The chain has ``length`` eigenvalues ``spacing * tol`` apart (two on the
    imaginary axis when ``peripheral``), and the next eigenvalue lies
    ``gap * tol`` past its end, on the same line.  The similarity is unitary
    for ``cond`` 1, else U diag(1 ... cond) W with U, W unitary.
    """
    rng = np.random.default_rng(seed)
    if peripheral:
        start, direction, length = 1j * rng.uniform(-2.0, 2.0), 1j, 2
    else:
        start, direction = complex(rng.uniform(-2.0, -0.1), rng.uniform(-2.0, 2.0)), np.exp(2j * np.pi * rng.uniform())
    length = min(length, dim)
    chain = start + direction * tol * spacing * np.arange(length)
    rest = np.concatenate([[chain[-1] + direction * tol * gap],
                           -rng.uniform(0.2, 3.0, dim) + 1j * rng.uniform(-3.0, 3.0, dim)])
    eigs = np.concatenate([chain, rest[:dim - length]])
    v = np.linalg.qr(random_complex(rng, dim))[0]
    if cond > 1.0:
        v = v @ np.diag(np.geomspace(1.0, cond, dim)) @ np.linalg.qr(random_complex(rng, dim))[0]
    a = v @ np.diag(eigs) @ np.linalg.inv(v)
    scale = spectral_norm(a)
    return a / scale, tol / scale, length


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 16), spacing=st.sampled_from([0.5, 1.0, 2.0]),
       length=st.integers(2, 6), gap=st.sampled_from([1.2, 1.6, 4.0]), peripheral=st.booleans(),
       cond=st.sampled_from([1.0, 10.0, 1e3]), tol=st.sampled_from([1e-7, 1e-5]))
# a six-member chain whose end lies nearer the next eigenvalue than the chain's own centre
@example(seed=0, dim=8, spacing=0.5, length=6, gap=1.2, peripheral=False, cond=1.0, tol=1e-7)
def test_clustered_spectra_decompose_or_fail_typed(seed, dim, spacing, length, gap, peripheral, cond, tol):
    a, cluster_tol, length = clustered_matrix(seed, dim, spacing, length, gap, peripheral, cond, tol)
    try:
        dec = decompose(a, cluster_tol=cluster_tol, imag_tol=cluster_tol)
    except ZenoLimitsError as exc:
        assert cond > 1.0, f"a normal matrix was rejected: {exc!r}"
        assert exc.diagnostics, f"{type(exc).__name__} without diagnostics: {exc}"
        return
    assert max(decomposition_residuals(dec, a).values()) <= RESIDUAL_FACTOR * cluster_tol
    if spacing < 1.0:  # the chain is one cluster
        assert len(dec.clusters) <= dim - length + 1
    ts = np.array([0.5, 2.0, 8.0])
    for got, want in zip(spectral_expm(dec, ts), expm(a, ts)):
        assert spectral_norm(got - want) <= 1e-10 * spectral_norm(want)
