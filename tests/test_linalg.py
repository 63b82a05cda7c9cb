import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

import zeno_limits
from zeno_limits import expm, gkls_corpus, liouvillian, schur, spectral_norm, vec
from zeno_limits import linalg
from zeno_limits.errors import DimensionError, FactorizationError, ValidationError
from zeno_limits import _read
from zeno_limits.linalg import _expm_stack, _kron, sandwich_super, spectral_norms

from oracles import power_iteration_norm, random_complex, taylor_expm


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((2, 2))), np.eye(2), atol=0)

    def test_diagonal_phases(self):
        got = expm(np.diag([1j * np.pi, 0.0]))
        assert np.allclose(got, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_nilpotent_series_terminates(self):
        got = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(got, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_matches_taylor_oracle(self, rng):
        for _ in range(5):
            a = random_complex(rng, 6)
            got = expm(a, 0.7)
            want = taylor_expm(a, 0.7)
            assert spectral_norm(got - want) <= 1e-11 * spectral_norm(want)

    def test_semigroup_property(self, rng):
        for _ in range(5):
            a = random_complex(rng, 5)
            a *= 10.0 / spectral_norm(a)
            s, t = rng.uniform(0, 2, size=2)
            whole = expm(a, s + t)
            assert spectral_norm(expm(a, s) @ expm(a, t) - whole) \
                <= 1e-10 * spectral_norm(whole)

    def test_skew_hermitian_gives_unitary(self, rng):
        h = random_complex(rng, 4)
        h = (h + h.conj().T) / 2
        u = expm(-1j * h, 1.3)
        assert spectral_norm(u @ u.conj().T - np.eye(4)) <= 1e-10


#: times that reach the kernel's unscaled, scaled and heavily squared branches
STACK_TIMES = np.array([0.0, 1e-3, 0.25, 1.3, -0.7, 40.0, 2000.0])


class TestStackedExpm:
    """``expm(a, ts)`` is one kernel call, and each slice equals the float call bit for bit."""

    @pytest.mark.parametrize("dim", [4, 9, 16, 64])
    def test_stack_equals_per_t_calls_bitwise(self, rng, dim):
        a = random_complex(rng, dim) / (2.0 * np.sqrt(dim)) - np.eye(dim)  # decaying: no overflow
        stack = expm(a, STACK_TIMES)
        assert stack.shape == (STACK_TIMES.size, dim, dim)
        for t, got in zip(STACK_TIMES.tolist(), stack):
            assert np.array_equal(got, expm(a, t))

    @pytest.mark.parametrize("shape", ["diagonal", "upper-triangular"])
    def test_scipy_special_branches_match_bitwise(self, rng, shape):
        a = np.diag(-rng.uniform(0, 2, 9) + 1j * rng.standard_normal(9))
        if shape == "upper-triangular":
            a = a + np.triu(random_complex(rng, 9), 1)
        stack = expm(a, STACK_TIMES)
        for t, got in zip(STACK_TIMES.tolist(), stack):
            assert np.array_equal(got, expm(a, t))

    def test_two_dimensional_times_are_typed(self):
        with pytest.raises(DimensionError):
            expm(np.eye(3), np.ones((2, 2)))

    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.5, np.nan], [-np.inf, 1.0]])
    def test_non_finite_times_are_typed(self, t):
        with pytest.raises(ValidationError):
            expm(np.eye(3), t)

    def test_empty_times_give_an_empty_stack(self):
        out = expm(np.eye(3), np.array([]))
        assert out.shape == (0, 3, 3)
        assert out.dtype == complex


class TestPadeKernel:
    """``_expm_stack``, the one exponential kernel, in float64 and complex128."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("dim", [4, 9, 16, 64])
    def test_matches_taylor_oracle_and_one_matrix_calls(self, rng, dim, dtype):
        a = random_complex(rng, dim) if dtype is complex else rng.standard_normal((dim, dim))
        a = a / (2.0 * np.sqrt(dim)) - 0.5 * np.eye(dim)
        ts = np.array([0.0, 0.1, 1.5, 30.0])
        stack = _expm_stack(ts[:, None, None] * a)
        assert stack.dtype == dtype
        for t, got in zip(ts.tolist(), stack):
            want = taylor_expm(a, t)
            assert spectral_norm(got - want) <= 1e-12 * spectral_norm(want)
            assert np.array_equal(got, _expm_stack(t * a[None])[0])

    def test_empty_matrix_gives_an_empty_exponential(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        assert expm(np.zeros((0, 0)), np.array([0.0, 1.0])).shape == (2, 0, 0)

    def test_zero_matrix_is_the_identity_exactly(self):
        # no log of a zero norm: warnings are errors in this suite
        assert np.array_equal(_expm_stack(np.zeros((2, 5, 5))), np.broadcast_to(np.eye(5), (2, 5, 5)))

    def test_real_scaled_frame_matrix_against_mpmath(self):
        """The three-level frame matrix at gamma = 1000, t = 2, where a real Pade can lose digits.

        Scaled by 2^-10 it has 1-norm 5.5; scipy 1.17's real ``expm`` is off
        by 1e-11 here against 30 digits, and this kernel by about 6e-14.
        """
        weak, strong = zeno_limits.three_level_generators(zeno_limits.ThreeLevelParams())
        frame = zeno_limits.zeno_split(strong.mat, weak.mat).frame
        a = 2.0 * (1000.0 * frame.b + frame.c)
        got = _expm_stack(a[None])[0]
        with mpmath.workdps(30):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
        assert got.dtype == float
        assert np.abs(got - want).max() <= 2e-13


#: |c_27| = (13!)^2 / (26! 27!), the leading coefficient of the degree-13 Pade error series
_C27 = math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27))


def _reference_squarings(a: np.ndarray) -> tuple[int, int]:
    """(s, ell) of Al-Mohy & Higham (2009), Alg. 5.1, degree 13, for one matrix, from whole powers."""
    onenorm = lambda m: float(np.abs(m).sum(axis=0).max())  # noqa: E731
    power = np.linalg.matrix_power
    alpha = max(onenorm(power(a, 6)) ** (1 / 6), onenorm(power(a, 8)) ** (1 / 8))
    s = max(0, math.ceil(math.log2(alpha / 5.371920351148152)))
    scaled = a / 2.0 ** s
    ratio = _C27 * onenorm(power(np.abs(scaled), 27)) / (onenorm(scaled) * 2.0 ** -53)
    return s, max(0, math.ceil(math.log2(ratio) / 26))


class TestKernelScaling:
    """The squarings s the Pade kernel takes, against a plain reference of the published choice."""

    @staticmethod
    def _stack(dtype):
        # t times a unitary generator of norm 1: skew-Hermitian (complex) or skew-symmetric
        # (float), whose |A| outgrows A, so ell > 0 on most of the t range
        rng = np.random.default_rng(3)
        a = random_complex(rng, 16) if dtype is complex else rng.standard_normal((16, 16))
        a = a - a.conj().T
        ts = np.geomspace(1.0, 1e3, 25)
        return ts[:, None, None] * (a / np.linalg.norm(a, 2))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_squarings_match_the_reference_choice(self, dtype):
        stack = self._stack(dtype)
        a4 = np.linalg.matrix_power(stack, 4)
        got = linalg._squarings(stack, a4, a4 @ np.linalg.matrix_power(stack, 2))
        want = [_reference_squarings(a) for a in stack]
        ells = [ell for _, ell in want]
        assert sum(ell > 0 for ell in ells) >= len(ells) // 3  # the correction is exercised
        assert got.tolist() == [s + ell for s, ell in want]


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_rank_one_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-14)

    def test_matches_power_iteration(self, rng):
        a = random_complex(rng, 9)
        want = power_iteration_norm(a)
        assert abs(spectral_norm(a) - want) <= 1e-10 * want

    def test_submultiplicative(self, rng):
        for _ in range(10):
            a, b = random_complex(rng, 5), random_complex(rng, 5)
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (9, 9), (3, 7), (16, 5), (64, 64)])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_equals_numpy_two_norm_bitwise(self, rng, shape, scale):
        a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert spectral_norm(a) == np.linalg.norm(a, 2)
        real = scale * rng.standard_normal(shape)  # a real operand is taken as complex
        assert spectral_norm(real) == np.linalg.norm(real.astype(complex), 2)

    @pytest.mark.parametrize("shape", [(8, 1, 1), (8, 4, 4), (5, 3, 7), (3, 64, 64)])
    def test_stack_equals_numpy_two_norm_bitwise(self, rng, shape):
        scales = np.geomspace(1e-5, 1e5, shape[0])[:, None, None]
        stack = scales * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.array_equal(spectral_norms(stack), np.linalg.norm(stack, 2, axis=(1, 2)))

    @pytest.mark.parametrize("shape", [(8, 1, 1), (8, 4, 4), (5, 3, 7), (3, 64, 64)])
    def test_real_stack_equals_numpy_two_norm_bitwise(self, rng, shape):
        """A float64 stack takes the real SVD: each entry is the real two-norm of its slice."""
        stack = np.geomspace(1e-5, 1e5, shape[0])[:, None, None] * rng.standard_normal(shape)
        assert spectral_norms(stack).tolist() == [np.linalg.norm(real, 2) for real in stack]

    def test_stack_equals_single_calls_bitwise(self, rng):
        stack = np.stack([random_complex(rng, 9) * 10.0 ** k for k in range(-3, 4)])
        assert spectral_norms(stack).tolist() == [spectral_norm(m) for m in stack]

    def test_empty_operands_have_norm_zero(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0 and spectral_norm(np.zeros((3, 0))) == 0.0
        assert spectral_norms(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
        assert spectral_norms(np.zeros((0, 3, 3))).shape == (0,)

    def test_stack_rejects_non_finite_and_flat_input(self, rng):
        stack = np.stack([random_complex(rng, 3), random_complex(rng, 3)])
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValidationError):
            spectral_norms(stack)
        with pytest.raises(DimensionError):
            spectral_norms(stack[0])


class TestSchur:
    def test_factorization_contract(self, rng):
        a = random_complex(rng, 7)
        q, t = schur(a)
        assert spectral_norm(a - q @ t @ q.conj().T) <= 1e-10 * spectral_norm(a)
        assert spectral_norm(q @ q.conj().T - np.eye(7)) <= 1e-12
        assert spectral_norm(np.tril(t, -1)) <= 1e-12 * spectral_norm(a)

    def test_diagonal_input(self):
        d = np.diag([3.0, -1.0, 2.0j])
        q, t = schur(d)
        assert spectral_norm(t - np.diag(np.diag(t))) <= 1e-12
        assert sorted(np.diag(t), key=lambda z: (z.real, z.imag)) \
            == pytest.approx(sorted(np.diag(d), key=lambda z: (z.real, z.imag)))
        # q is a permutation up to phases: one unit entry per column
        mags = np.abs(q)
        assert np.allclose(np.sort(mags, axis=0)[-1], 1.0, atol=1e-12)
        assert np.allclose(np.sort(mags, axis=0)[:-1], 0.0, atol=1e-12)

    def test_hermitian_input_diagonalizes(self, rng):
        h = random_complex(rng, 5)
        h = (h + h.conj().T) / 2
        _, t = schur(h)
        assert spectral_norm(t - np.diag(np.diag(t))) <= 1e-10 * spectral_norm(h)

    def test_defective_input(self):
        _, t = schur(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(np.diag(t), [1.0, 1.0])
        assert abs(t[1, 0]) <= 1e-14

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            schur(np.zeros((2, 3)))

    @staticmethod
    def _patched_zgees(monkeypatch, factorized):
        """Make the factorizing ``zgees`` call of ``linalg`` return ``factorized(t, q, info)`` of
        LAPACK's (t, q, info); its workspace query (``lwork=-1``) and every other routine stay LAPACK's."""
        lapack = linalg._lapack

        class Patched:
            def __getattr__(self, name):
                return getattr(lapack, name)

            @staticmethod
            def zgees(select, a, lwork, **kwargs):
                t, sdim, w, q, work, info = lapack.zgees(select, a, lwork=lwork, **kwargs)
                if lwork != -1:
                    t, q, info = factorized(t, q, info)
                return t, sdim, w, q, work, info

        monkeypatch.setattr(linalg, "_lapack", Patched())

    @classmethod
    def _scaled_q(cls, monkeypatch, rng, scale, noise):
        """Make the factorizing ``zgees`` call return ``scale`` Q plus seeded noise; returns the (q, t) it hands out."""
        made = []

        def perturbed(t, q, info):
            made.append((scale * q + noise * random_complex(rng, len(q)), t))
            return t, made[-1][0], info

        cls._patched_zgees(monkeypatch, perturbed)
        return made

    @staticmethod
    def _counting_norms(monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "spectral_norm", lambda m: calls.append(1) or spectral_norm(m))
        return calls

    def test_perturbed_q_raises_with_spectral_norms(self, rng, monkeypatch):
        a = random_complex(rng, 6)
        made = self._scaled_q(monkeypatch, rng, 1.0, 1e-9)
        with pytest.raises(FactorizationError) as info:
            schur(a)
        [(q, t)] = made
        assert info.value.diagnostics == {
            "relative_residual": spectral_norm(a - q @ t @ q.conj().T) / spectral_norm(a),
            "unitarity_defect": spectral_norm(q @ q.conj().T - np.eye(6))}
        assert info.value.diagnostics["unitarity_defect"] > 1e-12

    def test_lapack_failure_is_typed(self, monkeypatch):
        """A ``zgees`` that reports a failed QR iteration (info > 0) raises with its info."""
        self._patched_zgees(monkeypatch, lambda t, q, info: (t, q, 3))
        with pytest.raises(FactorizationError, match="Schur iteration failed to converge") as info:
            schur(np.diag([1.0, 2.0, 3.0]))
        assert info.value.diagnostics == {"lapack_info": 3}

    def test_schur_is_scipys_bit_for_bit(self, rng):
        """One unsorted ``zgees`` call after its workspace query gives scipy's complex Schur form exactly."""
        mats = [liouvillian(sys).mat for sys in gkls_corpus()[:12]] + [random_complex(rng, 64) for _ in range(2)]
        for a in mats + [np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([3.0, -1.0, 2.0j])]:
            q, t = schur(a)
            t_want, q_want = sla.schur(np.asarray(a, dtype=complex), output="complex")
            assert q.tobytes() == q_want.tobytes() and t.tobytes() == t_want.tobytes()

    def test_frobenius_screen_runs_svds_only_when_it_fails(self, rng, monkeypatch):
        a = random_complex(rng, 7)
        calls = self._counting_norms(monkeypatch)
        schur(a)
        assert calls == []
        # Q Q^H - I = 0.8e-12 I: 2.1e-12 in Frobenius norm, 0.8e-12 in spectral norm
        self._scaled_q(monkeypatch, rng, np.sqrt(1 + 0.8e-12), 0.0)
        schur(a)
        assert len(calls) >= 2


class TestKron:
    """The one Kronecker product, ``linalg._kron``, behind ``sandwich_super`` and the GKLS generators."""

    def test_identity(self):
        assert np.array_equal(_kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_blowup(self):
        got = _kron(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(got, np.diag([2.0, 2.0, 3.0, 3.0]))

    def test_vectorization_identity(self, rng):
        a, rho, b = (random_complex(rng, 3) for _ in range(3))
        lhs = vec(a @ rho @ b)
        rhs = sandwich_super(a, b) @ vec(rho)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    @pytest.mark.parametrize("left, right", [("real", "complex"), ("complex", "real"),
                                             ("complex", "complex"), ("real", "real")])
    @pytest.mark.parametrize("shapes", [((3, 3), (3, 3)), ((2, 5), (4, 3)), ((1, 4), (3, 1))])
    def test_broadcast_product_equals_numpy_kron_bitwise(self, rng, left, right, shapes):
        def draw(kind, shape):
            real = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
            return real if kind == "real" else real + 1j * rng.standard_normal(shape)

        a, b = draw(left, shapes[0]), draw(right, shapes[1])
        got, want = _kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # signed zeros included
        if shapes[0] == shapes[1]:
            want = np.kron(b.T.astype(complex), a.astype(complex))
            assert sandwich_super(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                                 complex(0.0, -np.inf), complex(np.nan, np.inf)],
                         ids=["nan-real", "nan-imag", "inf-real", "inf-imag", "both"])
def test_complex_matrix_rejects_non_finite_in_either_part(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValidationError, match="m contains non-finite entries"):
        _read.matrix("m", m)


#: a norm or Kronecker product taken around the ``linalg`` primitives
BYPASS = re.compile(r"np\.kron\(|np\.linalg\.norm\(.*,\s*2\s*[,)]")


def test_norms_and_kronecker_products_come_from_linalg():
    assert BYPASS.search("x = float(np.linalg.norm(v - w @ u, 2))") and BYPASS.search("np.kron(a, b)")
    assert not BYPASS.search("r = np.linalg.norm(beta) * 2")
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(Path(zeno_limits.__file__).parent.glob("*.py"))
                 if path.name != "linalg.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if BYPASS.search(line)]
    assert offenders == []

