"""Every failure the package raises is a typed ``ZenoLimitsError``."""

import re
from pathlib import Path

import numpy as np
import pytest

import zeno_limits
from zeno_limits.errors import DegenerateDataError, DimensionError, ValidationError
from zeno_limits.gkls import GklsSystem, Superoperator, no_go_check
from zeno_limits.linalg import spectral_norm, unvec
from zeno_limits.models import ThreeLevelParams, three_level_generators
from zeno_limits.spectral import decompose, reduced_resolvent
from zeno_limits.zeno import (BoundInputs, adiabatic_error, commutator_projections, convergence_slope,
                              hamiltonian_zeno, pulsed_zeno_product, zeno_split)

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
], ids=["one-dim-matrix", "unvec-size", "non-square-decompose", "negative-dephasing",
        "hamiltonian-shape", "jump-shape", "unknown-provenance", "no-go-given-a-map",
        "unequal-split-shapes", "negative-bound-norm", "non-positive-slope-gamma", "error-at-a-t-list",
        "error-at-a-gamma-array",
        "non-hermitian-h", "non-hermitian-k", "non-hermitian-commutator-k"])
def test_api_input_errors_are_typed(call, error, match):
    with pytest.raises(error, match=match):
        call()
