"""The input readers of ``zeno_limits._read``, walked as one table.

Each row of ``TABLE`` is (entry point, argument, reader): a call that
passes a value as one argument of a public entry point (every other
argument valid), the name that argument's error must carry, and the kind
of reader that reads it.  One property test feeds every row the bad
values of its kind (bools, strings, None, NaN, +-inf, negatives, 2.5 for
an integer, a 400-digit int, a 2-D array, matrices of numeric strings or
bools, a bool among numbers, for a pair of generators or a decomposition's
U and V a matrix of another shape, and for a package object a dict, a list
or a matrix) and asserts a ``ZenoLimitsError`` whose message names the
argument.  Then a
``Superoperator`` is checked to read as its matrix.  The last tests
check that a list-valued K or map is converted once.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeno_limits import _read, experiments, gkls, jsonio, linalg, models, spectral, zeno
from zeno_limits.errors import ZenoLimitsError
from zeno_limits.gkls import GklsSystem, PurityOptions, Superoperator
from zeno_limits.models import ThreeLevelParams, three_level_generators

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=12)
#: a failing example makes hypothesis's pytest plugin import libcst to suggest a patch, and that
#: import warns; as an error the warning would abort the whole session instead of failing the test
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

#: bad for every reader: a 2-D array is not a number and not a name, and this one is not finite
COMMON = st.one_of(st.booleans(), st.text(min_size=1, max_size=4), st.none(),
                   st.sampled_from([np.nan, np.inf, -np.inf]),
                   st.integers(min_value=10 ** 399, max_value=10 ** 400 - 1),
                   st.just(np.full((2, 2), np.nan)))
NEGATIVE = st.floats(max_value=-1e-300, allow_infinity=False)
FRACTION = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
#: numbers spelled as strings or bools, and a bool among numbers: numpy would parse each as complex
NOT_NUMBERS = [[["3", "0"], ["0", "1"]], np.eye(2, dtype=bool), [[True, 0.5], [0.0, 1.0]]]
#: two [re, im] pairs that are not two pairs of finite JSON numbers: complex() would take the bools
NOT_NUMBER_PARTS = [[[True, False], [0.5, 0.0]], [[1.0, 0.0], ["0", 1]], [[1, None], [0, 0]],
                    [[np.nan, 0], [0, 0]], [[10 ** 400, 0], [0, 0]], [[1.0, 0.0], [0.0]]]
#: the bad values of each reader kind: a signed real or time refuses negatives, a tolerance also
#: (but None is its default), an integer negatives and fractions, a matrix or names any scalar,
#: a sequence anything not iterable or not holding matrices, a pair of 2 x 2 generators a second
#: matrix of another shape, the 9 x 9 U or V of a decomposition anything of another shape, a package
#: object (``instance``) anything else, a JSON object anything but a dict, and an ``evaluate_grid`` grid
#: anything but a dict with its columns
BAD = {
    "integer": st.one_of(COMMON, st.integers(max_value=-1), FRACTION),
    "real": COMMON,
    "signed": st.one_of(COMMON, NEGATIVE),
    "tolerance": st.one_of(COMMON.filter(lambda v: v is not None), NEGATIVE),
    "matrix": st.one_of(COMMON, NEGATIVE, FRACTION, st.sampled_from(NOT_NUMBERS)),
    "parts": st.one_of(COMMON, NEGATIVE, st.sampled_from(NOT_NUMBER_PARTS)),
    "names": st.one_of(COMMON, NEGATIVE, FRACTION),
    "sequence": st.one_of(st.sampled_from([None, 5]), st.booleans(), st.integers(), st.floats(),
                          st.just(np.full((2, 2), np.nan))),
    "pair": st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda shape: shape != (2, 2)).map(np.ones),
    "shape": st.one_of(COMMON.filter(lambda v: v is not None),
                       st.tuples(st.integers(1, 4), st.integers(1, 4)).map(np.ones)),
    "instance": st.one_of(COMMON.filter(lambda v: v is not None), st.sampled_from([{}, {"gamma": 1.0}, [1]])),
    "object": st.one_of(COMMON, st.sampled_from([[1], [], [("model", "three-level")]])),
    "grid": st.one_of(COMMON, st.sampled_from([{}, [dict.fromkeys(zeno.CSV_COLUMNS)], {"gamma": np.ones((1, 1))}])),
}


@functools.cache
def _pair():
    weak, strong = three_level_generators(ThreeLevelParams())
    return strong.mat, weak.mat


@functools.cache
def _split():
    return zeno.zeno_split(*_pair())


@functools.cache
def _inputs():
    return zeno.BoundInputs.from_split(_split())


EYE2, EYE4, SYSTEM = np.eye(2), np.eye(4), GklsSystem(2, np.diag([0.0, 1.0]))
GENERATOR = Superoperator(2, -0.5 * (EYE4 - np.diag([1.0, 0.0, 0.0, 1.0])), "full")  # pure dephasing


#: (call taking the bad value, the argument's name in the message, reader kind)
TABLE = {
    "expm-a": (lambda v: linalg.expm(v), "expm operand", "matrix"),
    "expm-t": (lambda v: linalg.expm(EYE2, v), "expm t", "real"),
    "spectral_norm-a": (lambda v: linalg.spectral_norm(v), "spectral_norm operand", "matrix"),
    "spectral_norms-stack": (lambda v: linalg.spectral_norms(v), "spectral_norms operand", "matrix"),
    "schur-a": (lambda v: linalg.schur(v), "schur operand", "matrix"),
    "vec-a": (lambda v: linalg.vec(v), "vec operand", "matrix"),
    "sandwich_super-a": (lambda v: linalg.sandwich_super(v, EYE2), "sandwich left", "matrix"),
    "sandwich_super-b": (lambda v: linalg.sandwich_super(EYE2, v), "sandwich right", "matrix"),
    "decompose-a": (lambda v: spectral.decompose(v), "decompose operand", "matrix"),
    "decompose-cluster_tol": (lambda v: spectral.decompose(EYE2, cluster_tol=v), "cluster_tol", "tolerance"),
    "decompose-imag_tol": (lambda v: spectral.decompose(EYE2, imag_tol=v), "imag_tol", "tolerance"),
    "reduced_resolvent-ell": (lambda v: spectral.reduced_resolvent(_split().decomposition, v),
                              "cluster index ell", "integer"),
    "spectral_expm-t": (lambda v: spectral.spectral_expm(_split().decomposition, v), "spectral_expm t", "real"),
    "spectral_expm-dec": (lambda v: spectral.spectral_expm(v, 1.0), "decomposition", "instance"),
    "spectral_expm-u": (lambda v: spectral.spectral_expm(_split().decomposition, 1.0, u=v), "spectral_expm u", "shape"),
    "spectral_expm-v": (lambda v: spectral.spectral_expm(_split().decomposition, 1.0, v=v), "spectral_expm u and v",
                        "shape"),
    "peripheral_projection-dec": (lambda v: spectral.peripheral_projection(v), "decomposition", "instance"),
    "condition_number-dec": (lambda v: spectral.condition_number(v), "decomposition", "instance"),
    "reduced_resolvent-dec": (lambda v: spectral.reduced_resolvent(v, 0), "decomposition", "instance"),
    "gaps-dec": (lambda v: spectral.gaps(v), "decomposition", "instance"),
    "zeno_split-b": (lambda v: zeno.zeno_split(v, EYE2), "strong generator B", "matrix"),
    "zeno_split-c": (lambda v: zeno.zeno_split(-EYE2, v), "weak generator C", "matrix"),
    "zeno_split-cluster_tol": (lambda v: zeno.zeno_split(-EYE2, EYE2, cluster_tol=v), "cluster_tol", "tolerance"),
    "from_split-t_max": (lambda v: zeno.BoundInputs.from_split(_split(), t_max=v), "t_max", "signed"),
    "from_split-gamma_max": (lambda v: zeno.BoundInputs.from_split(_split(), gamma_max=v), "gamma_max", "signed"),
    "from_split-split": (lambda v: zeno.BoundInputs.from_split(v), "split", "instance"),
    **{f"{bound}-inputs": (lambda v, bound=bound: zeno.BOUNDS[bound](v, 10.0, 1.0), f"bound_{bound} inputs",
                           "instance") for bound in zeno.BOUNDS},
    **{f"{bound}-gamma": (lambda v, bound=bound: zeno.BOUNDS[bound](_inputs(), v, 1.0), f"bound_{bound} gamma",
                          "signed") for bound in zeno.BOUNDS},
    **{f"{bound}-t": (lambda v, bound=bound: zeno.BOUNDS[bound](_inputs(), 10.0, v), f"bound_{bound} t", "signed")
       for bound in zeno.BOUNDS},
    "evaluate_grid-split": (lambda v: zeno.evaluate_grid(v, [10.0], [1.0]), "split", "instance"),
    "evaluate_grid-gammas": (lambda v: zeno.evaluate_grid(_split(), v, [1.0]), "evaluate_grid gamma", "signed"),
    "evaluate_grid-t_grid": (lambda v: zeno.evaluate_grid(_split(), [10.0], v), "evaluate_grid t", "signed"),
    "evaluate_grid-variants": (lambda v: zeno.evaluate_grid(_split(), [10.0], [1.0], v), "variants", "names"),
    "evaluate_grid-bounds": (lambda v: zeno.evaluate_grid(_split(), [10.0], [1.0], bounds=v), "bounds", "names"),
    "adiabatic_error-gamma": (lambda v: zeno.adiabatic_error(_split(), v, 1.0), "gamma", "signed"),
    "adiabatic_error-t": (lambda v: zeno.adiabatic_error(_split(), 10.0, v), "t", "signed"),
    "adiabatic_error-variant": (lambda v: zeno.adiabatic_error(_split(), 10.0, 1.0, v), "variants", "names"),
    "zeno_split-pair": (lambda v: zeno.zeno_split(-EYE2, v), "strong generator B and weak generator C", "pair"),
    "pulsed-pair": (lambda v: zeno.pulsed_zeno_product(EYE2, v, 1.0, 2), "projection P and generator L", "pair"),
    "pulsed-p": (lambda v: zeno.pulsed_zeno_product(v, EYE2, 1.0, 2), "projection P", "matrix"),
    "pulsed-l": (lambda v: zeno.pulsed_zeno_product(EYE2, v, 1.0, 2), "generator L", "matrix"),
    "pulsed-t": (lambda v: zeno.pulsed_zeno_product(EYE2, EYE2, v, 2), "t", "real"),
    "pulsed-n": (lambda v: zeno.pulsed_zeno_product(EYE2, EYE2, 1.0, v), "n", "integer"),
    "commutator_projections-k": (lambda v: zeno.commutator_projections(v), "K", "matrix"),
    "fast_oscillation_zeno-k": (lambda v: zeno.fast_oscillation_zeno(SYSTEM, v), "K", "matrix"),
    "fast_oscillation_zeno-sys": (lambda v: zeno.fast_oscillation_zeno(v, EYE2), "sys", "instance"),
    "GklsSystem-d": (lambda v: GklsSystem(v, EYE2), "dimension d", "integer"),
    "GklsSystem-hamiltonian": (lambda v: GklsSystem(2, v), "hamiltonian H", "matrix"),
    "GklsSystem-jumps": (lambda v: GklsSystem(2, EYE2, v), "jump operators", "sequence"),
    "Superoperator-d": (lambda v: Superoperator(v, EYE4), "dimension d", "integer"),
    "Superoperator-mat": (lambda v: Superoperator(2, v), "superoperator matrix", "matrix"),
    "Superoperator-provenance": (lambda v: Superoperator(2, EYE4, v), "provenance", "names"),
    "hamiltonian_superoperator-h": (lambda v: gkls.hamiltonian_superoperator(v), "hamiltonian H", "matrix"),
    "dissipator_superoperator-d": (lambda v: gkls.dissipator_superoperator([EYE2], v), "dimension d", "integer"),
    "dissipator_superoperator-jumps": (lambda v: gkls.dissipator_superoperator(v, 2), "jump operators", "sequence"),
    "liouvillian-sys": (lambda v: gkls.liouvillian(v), "sys", "instance"),
    "canonicalize-sys": (lambda v: gkls.canonicalize(v), "sys", "instance"),
    "purity_decay_rate-sys": (lambda v: gkls.purity_decay_rate(v), "sys", "instance"),
    "cptp_check-superop": (lambda v: gkls.cptp_check(v), "superoperator", "matrix"),
    "gkls_form_check-superop": (lambda v: gkls.gkls_form_check(v), "superoperator", "matrix"),
    **{f"PurityOptions-{name}": (lambda v, name=name: PurityOptions(**{name: v}), f"PurityOptions.{name}", "integer")
       for name in ("restarts", "seed")},
    "no_go_check-sys": (lambda v: gkls.no_go_check(v, GENERATOR), "sys", "instance"),
    "no_go_check-zeno_generator": (lambda v: gkls.no_go_check(SYSTEM, v), "zeno_generator", "matrix"),
    **{f"ThreeLevelParams-{name}": (lambda v, name=name: ThreeLevelParams(**{name: v}),
                                    f"three-level parameter {name}", "signed" if name in ("gamma", "g", "kappa")
                                    else "real")
       for name in ("omega0", "omega1", "omega2", "gamma", "g", "w2", "kappa")},
    "three_level_generators-params": (lambda v: models.three_level_generators(v), "params", "instance"),
    "analytic_propagator-t": (lambda v: models.three_level_analytic_propagator(ThreeLevelParams(), v), "t", "signed"),
    "analytic_propagator-params": (lambda v: models.three_level_analytic_propagator(v, 1.0), "params", "instance"),
    "three_level_peripheral-params": (lambda v: models.three_level_peripheral(v), "params", "instance"),
    "three_level_zeno_generator-params": (lambda v: models.three_level_zeno_generator(v), "params", "instance"),
    "random_gkls-d": (lambda v: models.random_gkls(v, 1, 0), "dimension d", "integer"),
    "random_gkls-n_jumps": (lambda v: models.random_gkls(2, v, 0), "n_jumps", "integer"),
    "random_gkls-seed": (lambda v: models.random_gkls(2, 1, v), "seed", "integer"),
    "SweepConfig-gamma_grid": (lambda v: experiments.SweepConfig(gamma_grid=v), "gamma_grid", "signed"),
    "SweepConfig-t_start": (lambda v: experiments.SweepConfig(t_start=v), "t_start", "real"),
    "SweepConfig-t_stop": (lambda v: experiments.SweepConfig(t_stop=v), "t_stop", "real"),
    "SweepConfig-t_count": (lambda v: experiments.SweepConfig(t_count=v), "t_count", "integer"),
    "SweepConfig-t_spacing": (lambda v: experiments.SweepConfig(t_spacing=v), "t_spacing", "names"),
    "SweepConfig-variants": (lambda v: experiments.SweepConfig(variants=v), "variants", "names"),
    "SweepConfig-bounds": (lambda v: experiments.SweepConfig(bounds=v), "bounds", "names"),
    "SweepConfig-params": (lambda v: experiments.SweepConfig(params=v), "params", "instance"),
    "SweepConfig.from_json-obj": (lambda v: experiments.SweepConfig.from_json(v), "sweep config", "object"),
    "summarize_grid-grid": (lambda v: experiments.summarize_grid(v), "grid", "grid"),
    "spectral_property_check-superop": (lambda v: experiments.spectral_property_check(v), "sys_or_superop", "matrix"),
    "matrix_to_json-a": (lambda v: jsonio.matrix_to_json(v), "matrix", "matrix"),
    "matrix_from_json-rows": (lambda v: jsonio.matrix_from_json({"rows": v, "cols": 1, "data": [[0, 0]]}),
                              "matrix JSON rows", "integer"),
    "matrix_from_json-cols": (lambda v: jsonio.matrix_from_json({"rows": 1, "cols": v, "data": [[0, 0]]}),
                              "matrix JSON cols", "integer"),
    "matrix_from_json-data": (lambda v: jsonio.matrix_from_json({"rows": 1, "cols": 2, "data": v}),
                              "matrix JSON data", "parts"),
}


def test_the_table_covers_every_reading_module():
    modules = {call.__code__.co_names[0] for call, _, _ in TABLE.values()}
    assert {"linalg", "spectral", "zeno", "gkls", "models", "experiments", "jsonio"} <= modules


@pytest.mark.parametrize("key", sorted(TABLE))
@PROPERTY
@given(data=st.data())
def test_a_bad_argument_raises_typed_naming_it(key, data):
    call, name, kind = TABLE[key]
    bad = data.draw(BAD[kind], label="bad")
    with pytest.raises(ZenoLimitsError) as info:
        call(bad)
    assert name in str(info.value), (key, bad, str(info.value))


@pytest.mark.parametrize("key", sorted(key for key, (_, _, kind) in TABLE.items() if kind == "matrix"))
def test_every_matrix_argument_refuses_numbers_spelled_otherwise(key):
    """Each of ``NOT_NUMBERS``, which the property test draws only now and then, at every matrix argument."""
    call, name, _ = TABLE[key]
    for bad in NOT_NUMBERS:
        with pytest.raises(ZenoLimitsError) as info:
            call(bad)
        assert name in str(info.value), (key, bad, str(info.value))


#: a CPTP map (a propagator, so ``cptp_check`` takes it) and a projection for the pulsed product
DEPHASING_CHANNEL = Superoperator(2, np.diag([1.0, 0.5, 0.5, 1.0]), "propagator")
PROJECTION = Superoperator(2, np.diag([1.0, 0.0, 0.0, 1.0]), "projected")
#: (entry called on a superoperator, the superoperator); each result must equal the entry's on its matrix
SUPEROPERATOR_ENTRIES = {
    "decompose": (lambda s: spectral.decompose(s).blocks, GENERATOR),
    "spectral_norm": (linalg.spectral_norm, GENERATOR),
    "expm": (lambda s: linalg.expm(s, [0.5, 1.0]), GENERATOR),
    "zeno_split": (lambda s: zeno.zeno_split(s, GENERATOR).c_z, GENERATOR),
    "cptp_check": (gkls.cptp_check, DEPHASING_CHANNEL),
    "pulsed_zeno_product": (lambda s: zeno.pulsed_zeno_product(PROJECTION, s, 1.0, 3), GENERATOR),
}


@pytest.mark.parametrize("entry", sorted(SUPEROPERATOR_ENTRIES))
def test_a_superoperator_reads_as_its_matrix(entry):
    call, operand = SUPEROPERATOR_ENTRIES[entry]
    got, want = call(operand), call(operand.mat)
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


def _counting(monkeypatch):
    """Patch ``_read.matrix`` to record the name of each argument it reads."""
    names, matrix = [], _read.matrix

    def recording(name, value, *args, **kwargs):
        names.append(name)
        return matrix(name, value, *args, **kwargs)

    monkeypatch.setattr(_read, "matrix", recording)
    return names


@pytest.mark.parametrize("check", [gkls.cptp_check, gkls.gkls_form_check])
def test_a_list_valued_map_is_read_once(monkeypatch, check):
    names = _counting(monkeypatch)
    check(np.eye(4).tolist())
    assert names.count("superoperator") == 1


def test_a_list_valued_zeno_generator_is_read_once(monkeypatch):
    names = _counting(monkeypatch)
    gkls.no_go_check(SYSTEM, GENERATOR.mat.tolist())
    assert names.count("zeno_generator") == 1


@pytest.mark.parametrize("call", [zeno.commutator_projections, lambda k: zeno.fast_oscillation_zeno(SYSTEM, k)],
                         ids=["commutator_projections", "fast_oscillation_zeno"])
def test_a_list_valued_k_is_read_once(monkeypatch, call):
    names = _counting(monkeypatch)
    call(np.diag([0.0, 1.0]).tolist())
    assert names.count("K") == 1
