"""Every failure the package raises is a typed ``ZenoLimitsError``."""

import re
from pathlib import Path

import numpy as np
import pytest

import zeno_limits
from zeno_limits.errors import DegenerateDataError, DimensionError, SpectrumViolationError, ValidationError
from zeno_limits.experiments import SweepConfig
from zeno_limits.gkls import GklsSystem, PurityOptions, Superoperator, hamiltonian_superoperator, no_go_check
from zeno_limits.jsonio import matrix_from_json, matrix_to_json, superoperator_from_json, system_from_json
from zeno_limits.linalg import expm, spectral_norm, unvec
from zeno_limits.models import (ThreeLevelParams, dephasing_qubit_example, gkls_corpus, gkls_pair_corpus, random_gkls,
                                three_level_generators)
from zeno_limits.spectral import decompose, reduced_resolvent, spectral_expm
from zeno_limits.zeno import (BoundInputs, adiabatic_error, commutator_projections, convergence_slope,
                              evaluate_grid, fast_oscillation_zeno, hamiltonian_zeno,
                              perturbed_semigroup_bound_check, pulsed_zeno_product, zeno_split)

BARE_RAISE = re.compile(r"raise (ValueError|TypeError|IndexError|KeyError)\(")


def test_package_raises_no_bare_builtin_errors():
    offenders = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(Path(zeno_limits.__file__).parent.glob("*.py"))
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if BARE_RAISE.search(line)]
    assert offenders == []


def test_api_argument_errors_are_typed():
    weak, strong = three_level_generators(ThreeLevelParams())
    split = zeno_split(strong.mat, weak.mat)
    with pytest.raises(ValidationError, match="variant"):
        adiabatic_error(split, 10.0, 1.0, "sideways")
    with pytest.raises(ValidationError, match="positive integer"):
        pulsed_zeno_product(np.eye(4), strong.mat, 1.0, 0)
    dec = decompose(strong.mat)
    with pytest.raises(ValidationError, match="out of range"):
        reduced_resolvent(dec, len(dec.clusters))
    with pytest.raises(ValidationError, match="not a numeric array"):
        spectral_norm([["a"]])
    with pytest.raises(ValidationError, match="not a numeric array"):
        spectral_norm([[1, 2], [3]])


def _bound_inputs(**overrides):
    base = dict(m_bound=2.0, eta=1.0, delta=0.5, chi=1.5, dim=4, p_coeffs=np.array([1.0]),
                norm_c=1.0, norm_cz=0.5, resolvent_sum=1.0, resolvent_sum_norm=1.0)
    return BoundInputs(**{**base, **overrides})


NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])


def _three_level_split():
    weak, strong = three_level_generators(ThreeLevelParams())
    return zeno_split(strong.mat, weak.mat)


def _semigroup_check(gamma, t_grid):
    weak, strong = three_level_generators(ThreeLevelParams())
    return perturbed_semigroup_bound_check(strong.mat, weak.mat, gamma, t_grid)


GAMMAS = [1.0, 10.0, 100.0, 1000.0]


@pytest.mark.parametrize("call, error, match", [
    (lambda: spectral_norm([1.0, 2.0]), DimensionError, "2-dimensional"),
    (lambda: unvec(np.ones(3), 2), DimensionError, "unvec"),
    (lambda: decompose(np.ones((2, 3))), DimensionError, "square"),
    (lambda: ThreeLevelParams(gamma=-1.0), ValidationError, "dephasing rate"),
    (lambda: GklsSystem(2, np.eye(3)), DimensionError, "H must be 2x2"),
    (lambda: GklsSystem(2, np.eye(2), (np.eye(3),)), DimensionError, "jump operators"),
    (lambda: Superoperator(2, np.eye(4), "bogus"), ValidationError, "provenance"),
    (lambda: no_go_check(GklsSystem(2, np.eye(2)), np.eye(4)), ValidationError, "trace-annihilating"),
    (lambda: zeno_split(np.zeros((2, 2)), np.zeros((3, 3))), ValidationError, "equal shapes"),
    (lambda: _bound_inputs(norm_cz=-1.0), ValidationError, "nonnegative"),
    (lambda: convergence_slope([(0.0, 1.0), (10.0, 0.1), (100.0, 0.01), (1000.0, 0.001)]),
     DegenerateDataError, "gamma values must be positive"),
    (lambda: adiabatic_error(_three_level_split(), 10.0, [0.5, 1.0]), DimensionError, "one gamma and one t"),
    (lambda: adiabatic_error(_three_level_split(), np.array([10.0]), 1.0), DimensionError, "one gamma and one t"),
    (lambda: hamiltonian_zeno(np.eye(2), NON_HERMITIAN), ValidationError, "H must be Hermitian"),
    (lambda: hamiltonian_zeno(NON_HERMITIAN, np.eye(2)), ValidationError, "K must be Hermitian"),
    (lambda: commutator_projections(NON_HERMITIAN), ValidationError, "K must be Hermitian"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=np.nan), ValidationError, "t_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=-1.0), ValidationError, "t_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=np.inf), ValidationError, "t_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), gamma_max=0.0), ValidationError, "gamma_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), gamma_max=-np.inf), ValidationError, "gamma_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=1e300, gamma_max=1e300), ValidationError,
     "overflows"),
    (lambda: _semigroup_check(10.0, []), ValidationError, "must not be empty"),
    (lambda: _semigroup_check(10.0, [0.0, -1.0]), ValidationError, "t must be nonnegative"),
    (lambda: _semigroup_check(0.0, [0.0, 1.0]), ValidationError, "gamma must be positive"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((4, 4)), 1.0, 2.5), ValidationError, "positive integer"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((4, 4)), 1.0, "3"), ValidationError, "positive integer"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((4, 4)), 1.0, True), ValidationError, "positive integer"),
    (lambda: convergence_slope(list(zip(GAMMAS, [1.0, np.nan, 0.01, 0.001]))), DegenerateDataError, "finite"),
    (lambda: convergence_slope(list(zip(GAMMAS[:3] + [np.inf], [1.0, 0.1, 0.01, 0.001]))), DegenerateDataError,
     "finite"),
    (lambda: evaluate_grid(_three_level_split(), [1e30], [1e10], ("plain",)), ValidationError, "kernel's range"),
    (lambda: evaluate_grid(_three_level_split(), [1e6], [1e14], ("plain",)), ValidationError,
     r"overflows at s = gamma t = 1e\+20: .* for the eigenvalue b = \S+-2j"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=1e14, gamma_max=1e6), ValidationError,
     r"overflows at s = the horizon t_max \* gamma_max = 1e\+20: .* for the eigenvalue b = \S+-2j"),
    (lambda: evaluate_grid(_three_level_split(), ["ten"], [1.0]), ValidationError, "numeric"),
    (lambda: evaluate_grid(_three_level_split(), [10.0], [[0.5], [1.0, 2.0]]), ValidationError, "numeric"),
    (lambda: hamiltonian_zeno(np.eye(2), np.eye(3)), DimensionError, "equal shapes"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((3, 3)), 1.0, 2), DimensionError, "equal shapes"),
    (lambda: fast_oscillation_zeno(GklsSystem(2, np.eye(2)), np.eye(3)), DimensionError, "K must be 2x2"),
    (lambda: commutator_projections(np.ones((2, 3))), DimensionError, "square"),
    (lambda: hamiltonian_superoperator(np.ones((2, 3))), DimensionError, "square"),
    (lambda: SweepConfig(t_count=2.5), ValidationError, "nonnegative integer"),
    (lambda: perturbed_semigroup_bound_check(np.zeros((2, 2)), np.zeros((3, 3)), 1.0, [1.0]), DimensionError,
     "equal shapes"),
    (lambda: perturbed_semigroup_bound_check(np.eye(2), np.zeros((2, 2)), 1.0, [1.0]), SpectrumViolationError,
     "left half-plane"),
    (lambda: _semigroup_check([10.0, 20.0], [0.0, 1.0]), DimensionError, "one number"),
    (lambda: Superoperator(-3, np.eye(9)), ValidationError, "positive integer, got -3"),
    (lambda: Superoperator(3.0, np.eye(9)), ValidationError, "positive integer, got 3.0"),
    (lambda: Superoperator(True, np.eye(1)), ValidationError, "positive integer, got True"),
    (lambda: Superoperator(0, np.zeros((0, 0))), ValidationError, "positive integer, got 0"),
    (lambda: GklsSystem(0, np.zeros((0, 0))), ValidationError, "positive integer, got 0"),
    (lambda: GklsSystem(2.0, np.eye(2)), ValidationError, "positive integer, got 2.0"),
    (lambda: decompose(np.zeros((0, 0))), DimensionError, "nonempty square"),
    (lambda: zeno_split(np.zeros((0, 0)), np.zeros((0, 0))), DimensionError, "nonempty square"),
    (lambda: PurityOptions(restarts=2.5), ValidationError, r"PurityOptions\.restarts must be a positive integer, got 2\.5"),
    (lambda: PurityOptions(restarts=True), ValidationError, r"PurityOptions\.restarts must be a positive integer, got True"),
    (lambda: PurityOptions(seed=-1), ValidationError, r"PurityOptions\.seed must be a nonnegative integer, got -1"),
    (lambda: PurityOptions(seed=1.5), ValidationError, r"PurityOptions\.seed must be a nonnegative integer, got 1\.5"),
    (lambda: PurityOptions(maxiter=3.5), ValidationError, r"PurityOptions\.maxiter must be a positive integer, got 3\.5"),
    (lambda: superoperator_from_json({"d": 3.7, "mat": matrix_to_json(np.eye(9))}), ValidationError,
     r"dimension d must be a positive integer, got 3\.7"),
    (lambda: superoperator_from_json({"d": "2", "mat": matrix_to_json(np.eye(4))}), ValidationError,
     "dimension d must be a positive integer, got '2'"),
    (lambda: superoperator_from_json({"d": True, "mat": matrix_to_json(np.eye(4))}), ValidationError,
     "dimension d must be a positive integer, got True"),
    (lambda: system_from_json({"d": 2.5, "H": matrix_to_json(np.eye(2))}), ValidationError,
     r"dimension d must be a positive integer, got 2\.5"),
    (lambda: SweepConfig.from_json({"gamma_grid": "19"}), ValidationError, "gamma_grid must be a JSON array"),
    (lambda: SweepConfig.from_json({"variants": ""}), ValidationError, "variants must be a JSON array"),
    (lambda: SweepConfig.from_json({"bounds": {"cptp": 1}}), ValidationError, "bounds must be a JSON array"),
    (lambda: SweepConfig.from_json({"t_grid": {"count": 2.7}}), ValidationError,
     r"t_count must be a nonnegative integer, got 2\.7"),
    (lambda: SweepConfig.from_json({"t_grid": {"count": True}}), ValidationError,
     "t_count must be a nonnegative integer, got True"),
    (lambda: SweepConfig.from_json({"t_grid": {"count": "16"}}), ValidationError,
     "t_count must be a nonnegative integer, got '16'"),
    (lambda: SweepConfig.from_json({"params": {"g": True}}), ValidationError,
     "three-level parameter g must be a finite number, got True"),
    (lambda: matrix_from_json({"rows": 2.7, "cols": 3, "data": [[0, 0]] * 6}), ValidationError,
     r"rows and cols must be nonnegative integers, got 2\.7, 3"),
    (lambda: matrix_from_json({"rows": True, "cols": 4, "data": [[0, 0]] * 4}), ValidationError,
     "rows and cols must be nonnegative integers, got True, 4"),
    (lambda: SweepConfig(gamma_grid=("a",)), ValidationError, "gamma_grid entry must be a finite number, got 'a'"),
    (lambda: SweepConfig(gamma_grid=5), ValidationError, "gamma_grid must be a sequence of numbers, got 5"),
    (lambda: SweepConfig(t_start="a"), ValidationError, "t_start must be a finite number, got 'a'"),
    (lambda: SweepConfig(variants=3), ValidationError, "variants must be a sequence of names, got 3"),
    (lambda: ThreeLevelParams(g="x"), ValidationError, "three-level parameter g must be a finite number, got 'x'"),
    (lambda: ThreeLevelParams(kappa=None), ValidationError, "parameter kappa must be a finite number, got None"),
    (lambda: ThreeLevelParams(gamma=np.nan), ValidationError, "parameter gamma must be a finite number, got nan"),
    (lambda: ThreeLevelParams(omega0=np.inf), ValidationError, "parameter omega0 must be a finite number, got inf"),
    (lambda: ThreeLevelParams(g=10 ** 400), ValidationError, "parameter g must be a finite number"),
    (lambda: evaluate_grid(_three_level_split(), [10.0], [1.0], 3), ValidationError,
     "variants must be a sequence of names, got 3"),
    (lambda: evaluate_grid(_three_level_split(), [10.0], [1.0], bounds=None), ValidationError,
     "bounds must be a sequence of names, got None"),
    (lambda: spectral_expm(_three_level_split().decomposition, np.nan), ValidationError,
     "spectral_expm times contain non-finite entries"),
    (lambda: spectral_expm(_three_level_split().decomposition, np.inf), ValidationError,
     "spectral_expm times contain non-finite entries"),
    (lambda: spectral_expm(_three_level_split().decomposition, [1.0, -np.inf]), ValidationError,
     "spectral_expm times contain non-finite entries"),
    (lambda: spectral_expm(_three_level_split().decomposition, "a"), ValidationError,
     "spectral_expm times are not numeric"),
    (lambda: spectral_expm(_three_level_split().decomposition, [[0.5, 1.0]]), DimensionError,
     r"spectral_expm times must be a float or 1-dimensional, got shape \(1, 2\)"),
    (lambda: expm(np.eye(2), "a"), ValidationError, "expm times are not numeric"),
    (lambda: commutator_projections(np.diag([0.0, 1.0]), tol=-1.0), ValidationError,
     "tol must be a nonnegative real number, got -1.0"),
    (lambda: commutator_projections(np.diag([0.0, 1.0]), tol="x"), ValidationError,
     "tol must be a nonnegative real number, got 'x'"),
    (lambda: commutator_projections(np.diag([0.0, 1.0]), tol=np.nan), ValidationError,
     "tol must be a nonnegative real number, got nan"),
    (lambda: hamiltonian_zeno(np.eye(2), np.eye(2), tol=True), ValidationError,
     "tol must be a nonnegative real number, got True"),
    (lambda: random_gkls(2.5, 1, 0), ValidationError, r"dimension d must be a positive integer, got 2\.5"),
    (lambda: random_gkls(2, 1.5, 0), ValidationError, r"n_jumps must be a nonnegative integer, got 1\.5"),
    (lambda: random_gkls(2, 1, -1), ValidationError, "seed must be a nonnegative integer, got -1"),
    (lambda: gkls_corpus(2.5), ValidationError, r"n must be a nonnegative integer, got 2\.5"),
    (lambda: gkls_pair_corpus(2.5), ValidationError, r"n must be a nonnegative integer, got 2\.5"),
    (lambda: reduced_resolvent(_three_level_split().decomposition, 1.5), ValidationError,
     r"cluster index ell = 1\.5 out of range"),
    (lambda: reduced_resolvent(_three_level_split().decomposition, "a"), ValidationError,
     "cluster index ell = 'a' out of range"),
    (lambda: convergence_slope([("a", 1)] * 4), ValidationError, r"points must be \(gamma, error\) pairs"),
    (lambda: convergence_slope([(10.0, 1.0, 2.0)] * 4), ValidationError, r"points must be \(gamma, error\) pairs"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max="a"), ValidationError,
     "t_max must be a finite number, got 'a'"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=True), ValidationError,
     "t_max must be a finite number, got True"),
    (lambda: BoundInputs.from_split(_three_level_split(), gamma_max="a"), ValidationError,
     "gamma_max must be a finite number, got 'a'"),
    (lambda: Superoperator(2, np.eye(4))(np.eye(3)), DimensionError, r"rho must be 2x2, got shape \(3, 3\)"),
    (lambda: dephasing_qubit_example(kappa=-1.0), ValidationError, r"kappa must be nonnegative, got -1\.0"),
    (lambda: dephasing_qubit_example(omega="x"), ValidationError, "omega must be a finite number, got 'x'"),
    (lambda: matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]] * 3}), ValidationError,
     "matrix JSON claims 2x2 but carries 3 entries"),
    (lambda: expm(np.eye(2), 1e300), ValidationError, "expm operand t a is out of the kernel's range"),
], ids=["one-dim-matrix", "unvec-size", "non-square-decompose", "negative-dephasing",
        "hamiltonian-shape", "jump-shape", "unknown-provenance", "no-go-given-a-map",
        "unequal-split-shapes", "negative-bound-norm", "non-positive-slope-gamma", "error-at-a-t-list",
        "error-at-a-gamma-array",
        "non-hermitian-h", "non-hermitian-k", "non-hermitian-commutator-k",
        "m-horizon-nan-t", "m-horizon-negative-t", "m-horizon-inf-t", "m-horizon-zero-gamma",
        "m-horizon-inf-gamma", "m-horizon-overflowing-product", "semigroup-check-empty-grid",
        "semigroup-check-negative-t", "semigroup-check-zero-gamma", "pulsed-fractional-n", "pulsed-string-n",
        "pulsed-bool-n", "slope-nan-error", "slope-inf-gamma", "error-out-of-kernel-range",
        "error-overflowing-strong-exponential", "m-horizon-overflowing-exponential", "grid-string-gamma",
        "grid-ragged-t", "hamiltonian-zeno-shapes", "pulsed-shapes", "fast-oscillation-k-shape",
        "commutator-non-square-k", "superoperator-non-square-h",
        "sweep-fractional-t-count", "semigroup-check-shapes", "semigroup-check-rejected-split",
        "semigroup-check-gamma-array", "superoperator-negative-d", "superoperator-float-d",
        "superoperator-bool-d", "superoperator-zero-d", "system-zero-d", "system-float-d",
        "empty-decompose", "empty-split", "purity-fractional-restarts", "purity-bool-restarts",
        "purity-negative-seed", "purity-fractional-seed", "purity-fractional-maxiter", "map-json-float-d",
        "map-json-string-d", "map-json-bool-d", "system-json-float-d",
        "sweep-json-string-gamma-grid", "sweep-json-string-variants", "sweep-json-object-bounds",
        "sweep-json-fractional-count", "sweep-json-bool-count", "sweep-json-string-count", "sweep-json-bool-param",
        "matrix-json-fractional-rows", "matrix-json-bool-rows", "sweep-string-gamma", "sweep-scalar-gamma-grid",
        "sweep-string-t-start", "sweep-scalar-variants", "params-string-g", "params-none-kappa", "params-nan-gamma",
        "params-inf-omega0", "params-huge-g", "grid-scalar-variants", "grid-none-bounds",
        "spectral-expm-nan-t", "spectral-expm-inf-t", "spectral-expm-minus-inf-t", "spectral-expm-string-t",
        "spectral-expm-2d-t", "expm-string-t", "commutator-negative-tol", "commutator-string-tol",
        "commutator-nan-tol", "hamiltonian-zeno-bool-tol", "random-gkls-fractional-d",
        "random-gkls-fractional-jumps", "random-gkls-negative-seed", "corpus-fractional-n",
        "pair-corpus-fractional-n", "resolvent-fractional-index", "resolvent-string-index",
        "slope-string-gamma", "slope-ragged-points", "m-horizon-string-t", "m-horizon-bool-t",
        "m-horizon-string-gamma", "superoperator-applied-to-wrong-shape", "dephasing-negative-kappa",
        "dephasing-string-omega", "matrix-json-entry-count", "expm-out-of-kernel-range"])
def test_api_input_errors_are_typed(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_map_json_without_d_infers_it_from_the_matrix():
    for obj in ({"mat": matrix_to_json(np.eye(9))}, matrix_to_json(np.eye(9))):
        assert superoperator_from_json(obj).d == 3
