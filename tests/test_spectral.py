import dataclasses
import itertools
import math

import numpy as np
import pytest

from zeno_limits import (
    condition_number,
    decompose,
    expm,
    gaps,
    liouvillian,
    peripheral_projection,
    random_gkls,
    reduced_resolvent,
    spectral,
    spectral_expm,
    spectral_norm,
)
from zeno_limits.errors import (
    IllConditionedDecompositionError,
    PeripheralDefectError,
    UnsupportedInputError,
)
from zeno_limits.gkls import hamiltonian_superoperator
from zeno_limits.spectral import _cluster_eigenvalues, _distances, _single_linkage

from conftest import decomposition_residuals, random_complex, random_hermitian


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_single_linkage_merges_two_groups(order):
    # by real part 0 comes first, then 0.6+0.9i (1.08 from it) starts a second
    # group, then 0.7+0.1i is within tol of both and joins them into one
    eigs = np.array([0.0, 0.6 + 0.9j, 0.7 + 0.1j])[list(order)]
    [group] = _single_linkage(eigs, _distances(eigs), 1.0)
    assert sorted(group) == [0, 1, 2]


def _reference_clusters(eigs, tol):
    """The clustering as a pairwise Python loop: single linkage, then the safety merge."""
    groups = []
    for idx in np.argsort(eigs.real, kind="stable"):
        idx = int(idx)
        hits = [g for g in groups if any(abs(eigs[idx] - eigs[j]) <= tol for j in g)]
        if not hits:
            groups.append([idx])
        else:
            merged = hits[0]
            merged.append(idx)
            for other in hits[1:]:
                merged.extend(other)
                groups.remove(other)
    while True:
        centers = [complex(np.mean(eigs[g])) for g in groups]
        close = next(((i, j) for i in range(len(groups)) for j in range(i + 1, len(groups))
                      if abs(centers[i] - centers[j]) <= 2 * tol), None)
        if close is None:
            return groups, centers
        groups[close[0]] += groups.pop(close[1])


def _clustering_cases():
    for order in itertools.permutations(range(3)):
        yield pytest.param(np.array([0.0, 0.6 + 0.9j, 0.7 + 0.1j])[list(order)], 1.0, id=f"two-groups-{order}")
    for order in itertools.permutations(range(3)):
        # three unlinked singletons, each 1.5 from the next: only the first close pair merges
        yield pytest.param(np.array([0.0, 1.5, 3.0 + 0.1j])[list(order)], 1.0, id=f"safety-chain-{order}")
    for seed in range(6):
        rng = np.random.default_rng(seed)
        tol = 1e-3
        points = []
        for center in rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12):
            steps = 0.9 * tol * np.exp(2j * np.pi * rng.uniform(size=rng.integers(1, 5)))
            points.extend(center + np.concatenate([[0], np.cumsum(steps)]))  # a chain
            points.append(points[-1])  # a duplicate
            # a neighbour 1.05-1.95 tol away: linked to nothing, closer than 2 tol to the center
            points.append(center + rng.uniform(1.05, 1.95) * tol * np.exp(2j * np.pi * rng.uniform()))
        yield pytest.param(rng.permutation(np.array(points)), tol, id=f"seeded-{seed}")
    # dyadic gaps, so the distances are exact: exactly tol links, exactly 2 tol merges, one ulp more is apart
    for gap, kind in ((0.25, "tol"), (0.5, "2tol"), (np.nextafter(0.5, 1.0), "past-2tol")):
        yield pytest.param(np.array([-3.0 + 2j, 0.0, gap, 2.0, 2.0 + 1j * gap]), 0.25, id=f"gap-exactly-{kind}")
    for seed in range(6):  # separated spectra, at the separation's edges
        eigs = _separated_spectrum(seed)
        least = _distances(eigs)[np.triu_indices(len(eigs), 1)].min()
        for tol, kind in ((least / 2, "2tol"), (np.nextafter(least / 2, 0.0), "past-2tol"), (least, "tol")):
            yield pytest.param(eigs, tol, id=f"separated-{seed}-{kind}")


def _separated_spectrum(seed: int) -> np.ndarray:
    """Nine seeded points of the square [-1, 1] x [-1, 1] i and the conjugates of three of them."""
    rng = np.random.default_rng(100 + seed)
    z = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
    return rng.permutation(np.concatenate([z, z[:3].conj()]))


@pytest.mark.parametrize("eigs, tol", _clustering_cases())
def test_clustering_matches_the_pairwise_loop(eigs, tol):
    groups, centers = _cluster_eigenvalues(eigs, tol)
    want_groups, want_centers = _reference_clusters(eigs, tol)
    assert groups == want_groups
    assert np.array(centers).tobytes() == np.array(want_centers).tobytes()


@pytest.mark.parametrize("eigs, tol, separated", [
    pytest.param(*case.values, "past-2tol" in case.id, id=case.id)
    for case in _clustering_cases() if case.id.startswith(("gap-", "separated-"))])
def test_separated_spectra_skip_the_linkage_scan(eigs, tol, separated, monkeypatch):
    """No two eigenvalues within 2 tol: singletons in stable real-part order, without the scan; at a
    gap of exactly 2 tol (or tol) the scan runs."""
    scans = []
    monkeypatch.setattr(spectral, "_single_linkage", lambda *args: scans.append(1) or _single_linkage(*args))
    groups, centers = _cluster_eigenvalues(eigs, tol)
    assert scans == ([] if separated else [1])
    if separated:
        order = np.argsort(eigs.real, kind="stable").tolist()
        assert groups == [[i] for i in order] and centers == [complex(eigs[i]) for i in order]


def test_seeded_clustering_cases_reach_the_safety_merge():
    merged = [len(_single_linkage(eigs, _distances(eigs), tol)) > len(_cluster_eigenvalues(eigs, tol)[0])
              for eigs, tol in (case.values for case in _clustering_cases())]
    assert sum(merged) >= 3


class TestDecompose:
    def test_diagonal_with_degeneracy(self):
        dec = decompose(np.diag([2.0, 3.0j, 3.0j]))
        assert len(dec.clusters) == 2
        by_eig = {round(c.eigenvalue.real, 6): c for c in dec.clusters}
        c2 = by_eig[2.0]
        assert round(np.trace(c2.projection).real) == 1
        assert np.allclose(c2.projection, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        assert spectral_norm(c2.nilpotent) <= 1e-12
        c3 = by_eig[0.0]
        assert round(np.trace(c3.projection).real) == 2
        assert np.allclose(c3.projection, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_jordan_block(self):
        lam = 0.5 - 0.3j
        dec = decompose(np.array([[lam, 1.0], [0.0, lam]]))
        assert len(dec.clusters) == 1
        c = dec.clusters[0]
        assert c.eigenvalue == pytest.approx(lam)
        assert np.allclose(c.projection, np.eye(2), atol=1e-12)
        assert np.allclose(c.nilpotent, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert c.index == 2
        assert not c.semisimple

    def test_random_reconstruction(self, rng):
        for n in (4, 8, 12):
            a = random_complex(rng, n)
            dec = decompose(a)
            assert spectral_norm(dec.reconstruct() - a) <= 1e-8 * spectral_norm(a)

    def test_resolution_of_identity_and_orthogonality(self, rng):
        a = random_complex(rng, 9)
        dec = decompose(a)
        total = sum(c.projection for c in dec.clusters)
        assert spectral_norm(total - np.eye(9)) <= 1e-8 * max(1, spectral_norm(a))
        for i, ci in enumerate(dec.clusters):
            for j, cj in enumerate(dec.clusters):
                target = ci.projection if i == j else np.zeros((9, 9))
                assert spectral_norm(ci.projection @ cj.projection - target) <= 1e-8

    def test_gkls_superoperator_projections(self):
        for seed in (1, 2, 3):
            sop = liouvillian(random_gkls(2 + seed % 3, 1 + seed % 3, seed=seed))
            dec = decompose(sop.mat)
            total = sum(c.projection for c in dec.clusters)
            assert spectral_norm(total - np.eye(sop.d ** 2)) <= 1e-8

    def test_peripheral_defect_rejected(self):
        with pytest.raises(PeripheralDefectError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_ill_conditioned_rejected(self):
        a = np.array([[0.0, 1e6], [0.0, 3e-7]], dtype=complex)
        with pytest.raises(IllConditionedDecompositionError):
            decompose(a, cluster_tol=1e-12, imag_tol=1e-16)

    def test_cluster_too_close_to_split_off_is_rejected(self):
        """Eigenvalues one ulp apart, with clustering off: ``ztrsyl`` reports the near-singular split."""
        with pytest.raises(IllConditionedDecompositionError, match="split off") as info:
            decompose(np.array([[1.0, 1.0], [0.0, 1.0 + 2.0 ** -52]]), cluster_tol=0.0, imag_tol=0.0)
        assert info.value.diagnostics["lapack_info"] == 1

    def test_triangular_solve_with_a_zero_pivot_is_rejected(self):
        with pytest.raises(IllConditionedDecompositionError, match="zero pivot") as info:
            spectral._solve_upper(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex), np.eye(2, dtype=complex))
        assert info.value.diagnostics == {"lapack_info": 1}

    def test_reordering_that_disagrees_with_the_clustering_is_rejected(self, monkeypatch):
        """A reorder whose diagonal is not the permuted Schur diagonal, exactly, fails the reorder check."""
        lapack = spectral._lapack
        calls = []

        class OneUlpOff:
            def __getattr__(self, name):
                return getattr(lapack, name)

            @staticmethod
            def ztrexc(t, q, ifst, ilst, **kwargs):
                t, q, info = lapack.ztrexc(t, q, ifst, ilst, **kwargs)
                if not calls:  # the first move lands one ulp above its entry
                    t[ilst - 1, ilst - 1] = np.nextafter(t[ilst - 1, ilst - 1].real, np.inf)
                calls.append((ifst, ilst))
                return t, q, info

        monkeypatch.setattr(spectral, "_lapack", OneUlpOff())
        with pytest.raises(IllConditionedDecompositionError,
                           match="eigenvalue reordering disagreed with the clustering") as info:
            decompose(np.diag([-1.0, -2.0, -3.0]))
        assert calls == [(3, 1), (3, 2)]  # -3 to the front, then -2 before -1
        assert info.value.diagnostics == {"position": 0, "expected": -3 + 0j,
                                          "found": complex(np.nextafter(-3.0, np.inf))}

    @pytest.mark.parametrize("case", ["similar-near-minus-one", "diagonal-unit-tol"])
    def test_chained_cluster_whose_end_is_nearer_the_next_centre_decomposes(self, case):
        """Single linkage chains 0, 0.9, 1.8, 2.7 (in units of cluster_tol) into one cluster and keeps 3.8
        apart, though 2.7 lies nearer 3.8 than its own centre 1.35."""
        spread = np.array([0.0, 0.9, 1.8, 2.7, 3.8])
        if case == "diagonal-unit-tol":
            a, tol = np.diag(spread), 1.0
        else:
            q = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))[0]
            a, tol = q @ np.diag(-1.0 - 1e-7 * spread) @ q.T, 1e-7
        dec = decompose(a, cluster_tol=tol)
        assert sorted(len(c.block) for c in dec.clusters) == [1, 4]
        assert all(c.semisimple for c in dec.clusters)
        assert max(decomposition_residuals(dec, a).values()) <= spectral.RESIDUAL_FACTOR * tol
        ts = np.array([0.5, 2.0, 8.0])
        for got, want in zip(spectral_expm(dec, ts), expm(a, ts)):
            assert spectral_norm(got - want) <= 1e-10 * spectral_norm(want)

    def test_overflowing_split_is_typed(self, monkeypatch):
        """A Sylvester solve whose scaled result overflows stops the decomposition with a typed error."""
        lapack = spectral._lapack

        class Overflowing:
            def __getattr__(self, name):
                return getattr(lapack, name)

            @staticmethod
            def ztrsyl(*args, **kwargs):
                r, scale, info = lapack.ztrsyl(*args, **kwargs)
                return np.full_like(r, 1e300), scale, info  # its products with Y overflow

        monkeypatch.setattr(spectral, "_lapack", Overflowing())
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IllConditionedDecompositionError, match="split off") as info:
            decompose(np.diag([-1.0, -2.0, -3.0]))
        assert info.value.diagnostics["nonfinite_entries"] > 0

    def test_cluster_merging(self):
        # eigenvalues split by less than the tolerance merge into one cluster
        a = np.diag([1.0, 1.0 + 1e-10, 5.0])
        dec = decompose(a, cluster_tol=1e-8, imag_tol=1e-8)
        assert len(dec.clusters) == 2
        assert {round(np.trace(c.projection).real) for c in dec.clusters} == {1, 2}

    def test_spectral_expm_consistency(self, rng):
        a = random_complex(rng, 7)
        dec = decompose(a)
        for t in (0.0, 0.5, 1.3, 2.0):
            direct = expm(a, t)
            assert spectral_norm(spectral_expm(dec, t) - direct) \
                <= 1e-7 * spectral_norm(direct)


class TestPeripheralProjection:
    def test_skew_hermitian_everything_peripheral(self, rng):
        h = random_hermitian(rng, 4)
        dec = decompose(-1j * h)
        assert np.allclose(peripheral_projection(dec), np.eye(4), atol=1e-10)

    def test_half_peripheral(self):
        dec = decompose(np.diag([-1.0, 0.0]))
        assert np.allclose(peripheral_projection(dec), np.diag([0.0, 1.0]), atol=1e-12)

    def test_idempotent(self, rng):
        sop = liouvillian(random_gkls(3, 2, seed=5))
        dec = decompose(sop.mat)
        p = peripheral_projection(dec)
        assert spectral_norm(p @ p - p) <= 1e-8


class TestReducedResolvent:
    def test_two_point_spectrum(self):
        dec = decompose(np.diag([0.0, -1.0]))
        ell = next(i for i, c in enumerate(dec.clusters) if abs(c.eigenvalue) < 1e-12)
        s = reduced_resolvent(dec, ell)
        assert np.allclose(s, np.diag([0.0, -1.0]), atol=1e-12)

    def test_jordan_block_resolvent(self):
        a = np.zeros((3, 3), dtype=complex)
        a[1:, 1:] = np.array([[-1.0, 1.0], [0.0, -1.0]])
        dec = decompose(a)
        ell = next(i for i, c in enumerate(dec.clusters) if abs(c.eigenvalue) < 1e-12)
        s = reduced_resolvent(dec, ell)
        p = dec.clusters[ell].projection
        assert spectral_norm(a @ s - (np.eye(3) - p)) <= 1e-10

    def test_identity_on_semisimple_clusters(self, rng):
        a = random_complex(rng, 8)
        dec = decompose(a)
        eye = np.eye(8)
        for ell, c in enumerate(dec.clusters):
            if not c.semisimple:
                continue
            s = reduced_resolvent(dec, ell)
            resid = (a - c.eigenvalue * eye) @ s - (eye - c.projection)
            assert spectral_norm(resid) <= 1e-8 * max(1.0, spectral_norm(a))

    def test_single_cluster_returns_zero(self):
        dec = decompose(np.array([[2.0j]]))
        assert np.allclose(reduced_resolvent(dec, 0), 0.0)


class TestGaps:
    def test_mixed_spectrum(self):
        g = gaps(decompose(np.diag([0.0, -2.0, 3.0j])))
        assert g.eta == pytest.approx(2.0)
        assert g.delta == pytest.approx(2.0)
        assert g.nu == pytest.approx(2.0)

    def test_skew_hermitian_infinite_eta(self, rng):
        h = random_hermitian(rng, 3)
        g = gaps(decompose(-1j * h))
        assert g.eta == np.inf

    def test_single_eigenvalue_infinite_delta(self):
        g = gaps(decompose(np.zeros((2, 2))))
        assert g.delta == np.inf
        assert g.eta == np.inf
        assert g.nu == 1.0  # fallback when both gaps are infinite

    def test_delta_equals_the_pairwise_loop(self, rng):
        for a in (random_complex(rng, 64), liouvillian(random_gkls(4, 2, seed=9)).mat, np.diag([1.0, 1.0, 2.0j])):
            eigs = [c.eigenvalue for c in decompose(a).clusters]
            want = min(abs(eigs[i] - eigs[j]) for i in range(len(eigs)) for j in range(i + 1, len(eigs)))
            assert gaps(decompose(a)).delta == want


class TestIllConditionedDecompositions:
    def test_a_nilpotent_power_that_fails_to_vanish_raises(self):
        """A cluster of three eigenvalues within 1e-7 whose 1e10 couplings leave N^3 at 8.1e5."""
        a = [[0, 1e10, 0], [0, 9e-8, 1e10], [0, 0, 1.8e-7]]
        with pytest.raises(IllConditionedDecompositionError, match="nilpotent power fails to vanish") as info:
            decompose(a, cluster_tol=1e-7, imag_tol=1e-7)
        assert info.value.diagnostics["residual"] == pytest.approx(8.1e5, rel=1e-6)

    def test_dependent_cluster_bases_raise(self):
        """Two clusters given one basis vector: the stacked bases have an exactly zero singular value."""
        dec = dataclasses.replace(decompose(np.diag([-1.0, -2.0])), u=np.array([[1, 1], [0, 0]], dtype=complex))
        with pytest.raises(IllConditionedDecompositionError, match="cluster bases are linearly dependent"):
            condition_number(dec)


class TestSpectralExpmSkipFloor:
    def test_a_nilpotent_part_above_the_rounding_floor_is_kept(self):
        """||A||_F = 1e6 puts the skip floor sqrt(3) eps ||A||_F at 3.8e-10.  The decaying cluster's
        N = 1e-8 lies above it (and below 1e3 times it), and e^{tA}[1, 2] = t e^{-t} 1e-8 is N's
        whole contribution."""
        a = np.array([[1e6j, 0, 0], [0, -1, 1e-8], [0, 0, -1]])
        dec = decompose(a)
        for t in (0.5, 1.0, 2.0):
            assert spectral_expm(dec, t)[1, 2] == pytest.approx(t * math.exp(-t) * 1e-8, rel=1e-10)


class TestConditionNumber:
    def test_normal_matrix(self, rng):
        h = random_hermitian(rng, 5)
        dec = decompose(h)
        assert condition_number(dec) == pytest.approx(1.0, abs=1e-10)

    def test_two_by_two_explicit(self):
        a = np.array([[0.0, 100.0], [0.0, -1.0]])
        dec = decompose(a)
        # unit-norm eigenvectors: (1, 0) for 0 and (100, -1)/sqrt(10001) for -1
        t = np.array([[1.0, 100.0 / np.sqrt(10001.0)],
                      [0.0, -1.0 / np.sqrt(10001.0)]])
        want = np.linalg.norm(t, 2) * np.linalg.norm(np.linalg.inv(t), 2)
        assert condition_number(dec) == pytest.approx(want, rel=1e-10)

    def test_commutator_superoperator_is_perfectly_conditioned(self, rng):
        h = random_hermitian(rng, 3)
        dec = decompose(hamiltonian_superoperator(h))
        assert condition_number(dec) == pytest.approx(1.0, abs=1e-8)

    def test_defective_rejected(self):
        dec = decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(UnsupportedInputError):
            condition_number(dec)
