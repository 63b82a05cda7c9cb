"""Every failure the package raises is a typed ``ZenoLimitsError``."""

import re
from pathlib import Path

import numpy as np
import pytest

import zeno_limits
from zeno_limits.errors import DimensionError, ValidationError
from zeno_limits.experiments import SweepConfig
from zeno_limits.gkls import GklsSystem, PurityOptions, Superoperator, hamiltonian_superoperator, no_go_check
from zeno_limits.jsonio import matrix_from_json, matrix_to_json, superoperator_from_json, system_from_json
from zeno_limits.linalg import expm, spectral_norm
from zeno_limits.models import (ThreeLevelParams, dephasing_qubit_example, gkls_corpus, gkls_pair_corpus, random_gkls,
                                three_level_generators)
from zeno_limits.spectral import decompose, reduced_resolvent, spectral_expm
from zeno_limits.zeno import (BoundInputs, adiabatic_error, commutator_projections, evaluate_grid,
                              fast_oscillation_zeno, pulsed_zeno_product, zeno_split)

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
    with pytest.raises(ValidationError, match=r"cluster index ell must be an integer in \[0, 6\], got 7"):
        reduced_resolvent(dec, len(dec.clusters))
    with pytest.raises(ValidationError, match=r"spectral_norm operand must be numeric, got \[\['a'\]\]"):
        spectral_norm([["a"]])
    with pytest.raises(ValidationError, match="spectral_norm operand must be numeric: "):
        spectral_norm([[1, 2], [3]])


def _bound_inputs(**overrides):
    base = dict(m_bound=2.0, eta=1.0, delta=0.5, chi=1.5, dim=4, p_coeffs=np.array([1.0]),
                norm_c=1.0, norm_cz=0.5, resolvent_sum=1.0, resolvent_sum_norm=1.0)
    return BoundInputs(**{**base, **overrides})


NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])


def _three_level_split():
    weak, strong = three_level_generators(ThreeLevelParams())
    return zeno_split(strong.mat, weak.mat)


@pytest.mark.parametrize("call, error, match", [
    (lambda: spectral_norm([1.0, 2.0]), DimensionError, "2-dimensional"),
    (lambda: decompose(np.ones((2, 3))), DimensionError, "square"),
    (lambda: ThreeLevelParams(gamma=-1.0), ValidationError, r"parameter gamma must be nonnegative, got -1\.0"),
    (lambda: GklsSystem(2, np.eye(3)), DimensionError, "H must be 2x2"),
    (lambda: GklsSystem(2, np.eye(2), (np.eye(3),)), DimensionError, "jump operators"),
    (lambda: Superoperator(2, np.eye(4), "bogus"), ValidationError, "provenance"),
    (lambda: no_go_check(GklsSystem(2, np.eye(2)), np.eye(4)), ValidationError, "trace-annihilating"),
    (lambda: zeno_split(np.zeros((2, 2)), np.zeros((3, 3))), DimensionError,
     "strong generator B and weak generator C must be square with equal shapes"),
    (lambda: _bound_inputs(norm_cz=-1.0), ValidationError, "nonnegative"),
    (lambda: adiabatic_error(_three_level_split(), 10.0, [0.5, 1.0]), DimensionError,
     r"t must be a float or 1-dimensional, got shape \(1, 2\)"),
    (lambda: adiabatic_error(_three_level_split(), np.array([10.0]), 1.0), DimensionError,
     r"gamma must be a float or 1-dimensional, got shape \(1, 1\)"),
    (lambda: GklsSystem(2, NON_HERMITIAN), ValidationError, "H must be Hermitian"),
    (lambda: fast_oscillation_zeno(GklsSystem(2, np.eye(2)), NON_HERMITIAN), ValidationError, "K must be Hermitian"),
    (lambda: commutator_projections(NON_HERMITIAN), ValidationError, "K must be Hermitian"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=np.nan), ValidationError, "t_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=-1.0), ValidationError, "t_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=np.inf), ValidationError, "t_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), gamma_max=0.0), ValidationError, "gamma_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), gamma_max=-np.inf), ValidationError, "gamma_max must"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=1e300, gamma_max=1e300), ValidationError,
     "overflows"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((4, 4)), 1.0, 2.5), ValidationError, "positive integer"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((4, 4)), 1.0, "3"), ValidationError, "positive integer"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((4, 4)), 1.0, True), ValidationError, "positive integer"),
    (lambda: evaluate_grid(_three_level_split(), [1e30], [1e10], ("plain",)), ValidationError, "kernel's range"),
    (lambda: evaluate_grid(_three_level_split(), [1e6], [1e14], ("plain",)), ValidationError,
     r"overflows at s = gamma t = 1e\+20: .* for the eigenvalue b = \S+-2j"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=1e14, gamma_max=1e6), ValidationError,
     r"overflows at s = the horizon t_max \* gamma_max = 1e\+20: .* for the eigenvalue b = \S+-2j"),
    (lambda: evaluate_grid(_three_level_split(), ["ten"], [1.0]), ValidationError, "numeric"),
    (lambda: evaluate_grid(_three_level_split(), [10.0], [[0.5], [1.0, 2.0]]), ValidationError, "numeric"),
    (lambda: pulsed_zeno_product(np.eye(4), np.zeros((3, 3)), 1.0, 2), DimensionError, "equal shapes"),
    (lambda: fast_oscillation_zeno(GklsSystem(2, np.eye(2)), np.eye(3)), DimensionError, "K must be 2x2"),
    (lambda: commutator_projections(np.ones((2, 3))), DimensionError, "square"),
    (lambda: hamiltonian_superoperator(np.ones((2, 3))), DimensionError, "square"),
    (lambda: SweepConfig(t_count=2.5), ValidationError, "nonnegative integer"),
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
     r"rows must be a nonnegative integer, got 2\.7"),
    (lambda: matrix_from_json({"rows": True, "cols": 4, "data": [[0, 0]] * 4}), ValidationError,
     "rows must be a nonnegative integer, got True"),
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
     "spectral_expm t must be finite, got nan"),
    (lambda: spectral_expm(_three_level_split().decomposition, np.inf), ValidationError,
     "spectral_expm t must be finite, got inf"),
    (lambda: spectral_expm(_three_level_split().decomposition, [1.0, -np.inf]), ValidationError,
     "spectral_expm t must be finite, got -inf"),
    (lambda: spectral_expm(_three_level_split().decomposition, "a"), ValidationError,
     "spectral_expm t must be numeric, got 'a'"),
    (lambda: spectral_expm(_three_level_split().decomposition, [[0.5, 1.0]]), DimensionError,
     r"spectral_expm t must be a float or 1-dimensional, got shape \(1, 2\)"),
    (lambda: expm(np.eye(2), "a"), ValidationError, "expm t must be numeric, got 'a'"),
    (lambda: commutator_projections(np.diag([0.0, 1.0]), tol=-1.0), ValidationError,
     "tol must be nonnegative, got -1.0"),
    (lambda: commutator_projections(np.diag([0.0, 1.0]), tol="x"), ValidationError,
     "tol must be a finite number, got 'x'"),
    (lambda: commutator_projections(np.diag([0.0, 1.0]), tol=np.nan), ValidationError,
     "tol must be a finite number, got nan"),
    (lambda: random_gkls(2.5, 1, 0), ValidationError, r"dimension d must be an integer in \[2, 4\], got 2\.5"),
    (lambda: random_gkls(2, 1.5, 0), ValidationError, r"n_jumps must be an integer in \[0, 3\], got 1\.5"),
    (lambda: random_gkls(2, 1, -1), ValidationError, "seed must be a nonnegative integer, got -1"),
    (lambda: gkls_corpus(2.5), ValidationError, r"n must be a nonnegative integer, got 2\.5"),
    (lambda: gkls_pair_corpus(2.5), ValidationError, r"n must be a nonnegative integer, got 2\.5"),
    (lambda: reduced_resolvent(_three_level_split().decomposition, 1.5), ValidationError,
     r"cluster index ell must be an integer in \[0, 6\], got 1\.5"),
    (lambda: reduced_resolvent(_three_level_split().decomposition, "a"), ValidationError,
     r"cluster index ell must be an integer in \[0, 6\], got 'a'"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max="a"), ValidationError,
     "t_max must be a finite number, got 'a'"),
    (lambda: BoundInputs.from_split(_three_level_split(), t_max=True), ValidationError,
     "t_max must be a finite number, got True"),
    (lambda: BoundInputs.from_split(_three_level_split(), gamma_max="a"), ValidationError,
     "gamma_max must be a finite number, got 'a'"),
    (lambda: dephasing_qubit_example(kappa=-1.0), ValidationError, r"kappa must be nonnegative, got -1\.0"),
    (lambda: dephasing_qubit_example(omega="x"), ValidationError, "omega must be a finite number, got 'x'"),
    (lambda: matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]] * 3}), ValidationError,
     "matrix JSON claims 2x2 but carries 3 entries"),
    (lambda: expm(np.eye(2), 1e300), ValidationError, "expm operand t a is out of the kernel's range"),
    (lambda: matrix_from_json({"rows": 1, "cols": 2, "data": [[True, False], [0.5, 0.0]]}), ValidationError,
     r"matrix JSON data must be a list of \[re, im\] pairs of numbers \(not bools, strings or None\)"),
    (lambda: matrix_from_json({"rows": 1, "cols": 2, "data": [[np.nan, 0.0], [0.5, 0.0]]}), ValidationError,
     "matrix JSON data contains non-finite entries"),
    (lambda: matrix_from_json({"rows": 1, "cols": 1, "data": [[10 ** 400, 0]]}), ValidationError,
     "matrix JSON data must hold finite numbers: int too large to convert to float"),
    (lambda: spectral_norm([[True, 0.5], [0.0, 1.0]]), ValidationError, "spectral_norm operand must be numeric, got"),
    (lambda: GklsSystem(2, [[0.0, False], [False, 1.0]]), ValidationError, "hamiltonian H must be numeric, got"),
    (lambda: SweepConfig.from_json([1]), ValidationError, "sweep config must be a dict, got list"),
    (lambda: no_go_check(np.eye(2), np.zeros((4, 4))), ValidationError, "sys must be a GklsSystem, got ndarray"),
], ids=["one-dim-matrix", "non-square-decompose", "negative-dephasing",
        "hamiltonian-shape", "jump-shape", "unknown-provenance", "no-go-given-a-map",
        "unequal-split-shapes", "negative-bound-norm", "error-at-a-t-list",
        "error-at-a-gamma-array",
        "non-hermitian-h", "non-hermitian-k", "non-hermitian-commutator-k",
        "m-horizon-nan-t", "m-horizon-negative-t", "m-horizon-inf-t", "m-horizon-zero-gamma",
        "m-horizon-inf-gamma", "m-horizon-overflowing-product",
        "pulsed-fractional-n", "pulsed-string-n",
        "pulsed-bool-n", "error-out-of-kernel-range",
        "error-overflowing-strong-exponential", "m-horizon-overflowing-exponential", "grid-string-gamma",
        "grid-ragged-t", "pulsed-shapes", "fast-oscillation-k-shape",
        "commutator-non-square-k", "superoperator-non-square-h",
        "sweep-fractional-t-count",
        "superoperator-negative-d", "superoperator-float-d",
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
        "commutator-nan-tol", "random-gkls-fractional-d",
        "random-gkls-fractional-jumps", "random-gkls-negative-seed", "corpus-fractional-n",
        "pair-corpus-fractional-n", "resolvent-fractional-index", "resolvent-string-index",
        "m-horizon-string-t", "m-horizon-bool-t",
        "m-horizon-string-gamma", "dephasing-negative-kappa",
        "dephasing-string-omega", "matrix-json-entry-count", "expm-out-of-kernel-range",
        "matrix-json-bool-parts", "matrix-json-nan-part", "matrix-json-huge-part", "bool-among-numbers",
        "bool-among-hamiltonian-entries", "sweep-json-list", "no-go-given-a-matrix-system"])
def test_api_input_errors_are_typed(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_map_json_without_d_infers_it_from_the_matrix():
    for obj in ({"mat": matrix_to_json(np.eye(9))}, matrix_to_json(np.eye(9))):
        assert superoperator_from_json(obj).d == 3
