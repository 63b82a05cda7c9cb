"""Property tests of the ``evaluate_grid`` contract.

Any gamma and t lists, unsorted and with duplicates, give one row per
(gamma, t) pair in (gamma, t) order, and every cell equals the one-point
``adiabatic_error`` or scalar ``bound_*`` call bit for bit.
"""

import functools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeno_limits import SweepConfig, liouvillian, random_gkls
from zeno_limits import zeno
from zeno_limits.errors import ValidationError
from zeno_limits.models import ThreeLevelParams, three_level_generators
from zeno_limits.zeno import BOUNDS, VARIANTS, BoundInputs, adiabatic_error, evaluate_grid, zeno_split

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)
#: a failing example makes hypothesis's pytest plugin import libcst to suggest a patch, and that
#: import warns; as an error the warning would abort the whole session instead of failing the test
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


@functools.cache
def _split(pair: str):
    if pair == "three-level":
        weak, strong = three_level_generators(ThreeLevelParams())
    else:  # seeded D=16 corpus pair
        strong, weak = liouvillian(random_gkls(4, 2, seed=61)), liouvillian(random_gkls(4, 1, seed=62))
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
    rows = evaluate_grid(split, gamma_list, t_list, variants, bounds)
    assert [(row["gamma"], row["t"]) for row in rows] == [(g, t) for g in sorted(gamma_list)
                                                          for t in sorted(t_list)]
    inputs = BoundInputs.from_split(split, t_max=max(t_list), gamma_max=max(gamma_list)) if bounds else None
    for row in rows:
        gamma, t = row["gamma"], row["t"]
        for name in VARIANTS:
            want = adiabatic_error(split, gamma, t, name) if name in variants else None
            assert _hex(row[f"error_{name}"]) == _hex(want)
        for name, bound in BOUNDS.items():
            want = bound(inputs, gamma, t) if name in bounds else None
            assert _hex(row[f"bound_{name}"]) == _hex(want)


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
    [row] = evaluate_grid(split, (100.0,), (0.0,), (variant,))
    assert err.hex() == row[f"error_{variant}"].hex()
