"""Property tests of the ``evaluate_grid`` contract and of the M horizon.

Any gamma and t lists, unsorted and with duplicates, give one (gamma, t)
array per column with the sorted lists as its mesh, and every cell equals the one-point
``adiabatic_error`` or scalar ``bound_*`` call bit for bit.  Any horizon
given to ``BoundInputs.from_split``, alone or through the Dyson check
``oracles.dyson_check``, gives a finite M >= 1 or a ``ValidationError``.
"""

import functools
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeno_limits import GklsSystem, SweepConfig, liouvillian, random_gkls
from zeno_limits import zeno
from zeno_limits.errors import ValidationError
from zeno_limits.models import ThreeLevelParams, three_level_generators
from zeno_limits.zeno import BOUNDS, CSV_COLUMNS, VARIANTS, BoundInputs, adiabatic_error, evaluate_grid, zeno_split

from oracles import dyson_check, random_complex, random_hermitian

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)
#: a failing example makes hypothesis's pytest plugin import libcst to suggest a patch, and that
#: import warns; as an error the warning would abort the whole session instead of failing the test
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


@functools.cache
def _split(pair: str):
    if pair == "three-level":
        weak, strong = three_level_generators(ThreeLevelParams())
    elif pair == "gkls-d16":  # seeded corpus pair
        strong, weak = liouvillian(random_gkls(4, 2, seed=61)), liouvillian(random_gkls(4, 1, seed=62))
    else:  # a seeded D=36 pair, whose M grid takes more than one stack
        rng = np.random.default_rng(36)
        strong, weak = (liouvillian(GklsSystem(d=6, hamiltonian=random_hermitian(rng, 6),
                                               jumps=tuple(random_complex(rng, 6) for _ in range(n))))
                        for n in (2, 1))
    return zeno_split(strong.mat, weak.mat)


def _hex(x):
    return None if x is None else float(x).hex()


#: drawing from a short list as well as the whole range makes duplicates likely
gammas = st.lists(st.one_of(st.sampled_from([10.0, 300.0]), st.floats(1.0, 1e3)), min_size=1, max_size=3)
times = st.lists(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 3.0)), min_size=1, max_size=3)
subsets = st.tuples(st.sets(st.sampled_from(VARIANTS)), st.sets(st.sampled_from(tuple(BOUNDS))))
unknown_names = st.text(string.printable, max_size=12).filter(lambda name: name not in VARIANTS and name not in BOUNDS)


@PROPERTY
@given(pair=st.sampled_from(["three-level", "gkls-d16"]), gamma_list=gammas, t_list=times, subset=subsets)
def test_rows_sorted_and_cells_equal_one_point_calls(pair, gamma_list, t_list, subset):
    split = _split(pair)
    variants, bounds = (tuple(names) for names in subset)
    grid = evaluate_grid(split, gamma_list, t_list, variants, bounds)
    assert grid["gamma"].tolist() == [[g] * len(t_list) for g in sorted(gamma_list)]
    assert grid["t"].tolist() == [sorted(t_list)] * len(gamma_list)
    requested = {*(f"error_{name}" for name in variants), *(f"bound_{name}" for name in bounds)}
    assert {key for key in CSV_COLUMNS[2:] if grid[key] is not None} == requested
    assert all(grid[key].shape == grid["t"].shape for key in requested)
    inputs = BoundInputs.from_split(split, t_max=max(t_list), gamma_max=max(gamma_list)) if bounds else None
    for ij in np.ndindex(grid["t"].shape):
        gamma, t = grid["gamma"][ij], grid["t"][ij]
        for name in variants:
            assert _hex(grid[f"error_{name}"][ij]) == _hex(adiabatic_error(split, gamma, t, name))
        for name in bounds:
            assert _hex(grid[f"bound_{name}"][ij]) == _hex(BOUNDS[name](inputs, gamma, t))


@PROPERTY
@given(name=unknown_names)
def test_unknown_names_raise_validation_error(name):
    split = _split("three-level")
    for call in (lambda: evaluate_grid(split, (10.0,), (0.5,), (name,)),
                 lambda: evaluate_grid(split, (10.0,), (0.5,), VARIANTS, ("cptp", name)),
                 lambda: adiabatic_error(split, 10.0, 0.5, name),
                 lambda: SweepConfig(variants=(name,)),
                 lambda: SweepConfig(bounds=(name,))):
        with pytest.raises(ValidationError, match="unknown"):
            call()


@pytest.mark.parametrize("variant", VARIANTS)
def test_adiabatic_error_is_one_grid_call(monkeypatch, variant):
    split = _split("three-level")
    calls = []

    def recording(*args):
        calls.append(args[1:])
        return evaluate_grid(*args)

    monkeypatch.setattr(zeno, "evaluate_grid", recording)
    err = adiabatic_error(split, 100.0, 0.0, variant)
    assert calls == [((100.0,), (0.0,), (variant,))]
    assert err.hex() == evaluate_grid(split, (100.0,), (0.0,), (variant,))[f"error_{variant}"][0, 0].hex()


#: the horizons a caller may pass by mistake, and ordinary ones
horizons = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300]),
                     st.floats(-10.0, 1e4))


def _ordinary(t: float, gamma: float) -> bool:
    """A valid horizon small enough that no sample overflows: it must give M."""
    return 0.0 <= t <= 1e4 and 0.0 < gamma <= 1e4


@PROPERTY
@given(pair=st.sampled_from(["three-level", "gkls-d36"]), t_max=horizons, gamma_max=horizons)
def test_m_horizon_gives_a_finite_m_or_a_validation_error(pair, t_max, gamma_max):
    try:
        m = BoundInputs.from_split(_split(pair), t_max=t_max, gamma_max=gamma_max).m_bound
    except ValidationError:
        assert not _ordinary(t_max, gamma_max)
        return
    assert math.isfinite(m) and m >= 1.0


@PROPERTY
@given(t=horizons, gamma=horizons)
def test_semigroup_check_horizon_gives_a_finite_m_or_a_validation_error(t, gamma):
    weak, strong = three_level_generators(ThreeLevelParams())
    try:
        m = dyson_check(strong.mat, weak.mat, gamma, [0.0, t]).m_bound
    except ValidationError:
        assert not _ordinary(t, gamma)
        return
    assert math.isfinite(m) and m >= 1.0
