"""Tests of the benchmark's own code: inputs, checks, replay and compare.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import run
import tracing
import workloads
from zeno_limits import jsonio
from zeno_limits.experiments import SweepConfig, run_sweep


def small_pair_config(tmp_path, seed=3, d=3):
    """A D=9 file-pair sweep over 5 gamma x 2 t (10 rows) and its oracle."""
    strong, weak = workloads.random_pair(seed, d)
    jsonio.dump_json(jsonio.superoperator_to_json(strong), tmp_path / "strong.json")
    jsonio.dump_json(jsonio.superoperator_to_json(weak), tmp_path / "weak.json")
    model = {"strong": str(tmp_path / "strong.json"), "weak": str(tmp_path / "weak.json")}
    cfg = workloads.sweep_config(2, "log", tmp_path / "sweep.csv", model)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, workloads.null_vector_oracle(strong.mat, weak.mat)


def run_and_read(config_path):
    workloads.run_sweep_cli(config_path)
    return workloads.read_sweep_output(workloads.sweep_output_path(config_path))


def test_inputs_are_deterministic_per_seed(tmp_path):
    for name in ("a", "b"):
        workloads.write_inputs("dissipative-d64", 11, tmp_path / name)
    workloads.write_inputs("dissipative-d64", 12, tmp_path / "c")
    for f in ("strong.json", "weak.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        assert (tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
    first = workloads.random_pair(11, 3)
    again = workloads.random_pair(11, 3)
    assert all(np.array_equal(x.mat, y.mat) for x, y in zip(first, again))
    cfg = lambda d: json.loads((d / "config.json").read_text())  # noqa: E731
    assert {**cfg(tmp_path / "a"), "model": None, "output": None} == \
        {**cfg(tmp_path / "c"), "model": None, "output": None}


def test_random_pair_is_normalized_gkls_with_one_stationary_state():
    strong, weak = workloads.random_pair(5, 8)
    for sop in (strong, weak):
        assert sop.mat.shape == (64, 64)
        assert np.linalg.norm(sop.mat, 2) == pytest.approx(1.0, rel=1e-12)
    oracle = workloads.null_vector_oracle(strong.mat, weak.mat)
    assert np.allclose(strong.mat @ oracle.p_phi, 0, atol=1e-12)


def test_sweep_check_passes_on_program_output(tmp_path):
    config, oracle = small_pair_config(tmp_path)
    out = run_and_read(config)
    assert workloads.check_sweep(out, 10, oracle, list(range(10))) == []


def test_oracle_check_fails_on_perturbed_zeno_generator(tmp_path):
    config, oracle = small_pair_config(tmp_path)
    out = run_and_read(config)
    rng = np.random.default_rng(0)
    bump = 1e-6 * (rng.standard_normal(oracle.c_z.shape) + 1j * rng.standard_normal(oracle.c_z.shape))
    bad = replace(oracle, c_z=oracle.c_z + bump)
    problems = workloads.check_sweep(out, 10, bad, list(range(10)))
    assert problems and all("oracle" in p for p in problems)


def test_sweep_check_fails_on_bound_below_error(tmp_path):
    config, oracle = small_pair_config(tmp_path)
    out = run_and_read(config)
    out.rows[4]["bound_cptp"] = out.rows[4]["error_peripheral"] - 1e-6
    problems = workloads.check_sweep(out, 10, oracle, [])
    assert problems == [f"row 4: bound_cptp = {out.rows[4]['bound_cptp']!r} below error "
                        f"{out.rows[4]['error_peripheral']!r}"]


@pytest.mark.parametrize("col, value", [("bound_adiabatic", math.inf),
                                        ("bound_simplified", math.nan),
                                        ("bound_simplified", -math.inf)])
def test_sweep_check_rejects_non_bounds(tmp_path, col, value):
    config, oracle = small_pair_config(tmp_path)
    out = run_and_read(config)
    out.rows[0][col] = value
    assert workloads.check_sweep(out, 10, oracle, []) != []


def test_sweep_check_fails_on_header_and_row_count(tmp_path):
    config, oracle = small_pair_config(tmp_path)
    out = run_and_read(config)
    assert workloads.check_sweep(out, 11, oracle, []) == ["10 rows, expected 11"]
    renamed = replace(out, header=out.header[:-1] + ("bound_other",))
    assert workloads.check_sweep(renamed, 10, oracle, []) != []


def test_three_level_workload_passes_its_checks(tmp_path):
    workloads.write_inputs("three-level-sweep", 0, tmp_path)
    workload = workloads.open_workload("three-level-sweep", 0, tmp_path)
    workload.operation()
    assert workload.check(np.random.default_rng(0)) == []
    out = workloads.read_sweep_output(workload.output)
    out.summary["slope"] = -0.5
    assert workloads.check_sweep(out, 320, workload.oracle, [], workloads.SLOPE_WINDOW) != []


def fake_results(verdicts):
    return [SimpleNamespace(number=n, passed=ok) for n, ok in verdicts.items()]


def test_verdict_check_accepts_only_criterion_8_failing():
    assert workloads.check_verdicts(fake_results(workloads.EXPECTED_VERDICTS)) == []


@pytest.mark.parametrize("flip", ["1", "8", "11"])
def test_verdict_check_fails_when_a_verdict_flips(flip):
    verdicts = dict(workloads.EXPECTED_VERDICTS)
    verdicts[flip] = not verdicts[flip]
    problems = workloads.check_verdicts(fake_results(verdicts))
    assert problems == [f"criterion {flip}: passed={verdicts[flip]}, "
                        f"expected {workloads.EXPECTED_VERDICTS[flip]}"]


def test_verdict_check_fails_on_missing_criterion():
    verdicts = dict(workloads.EXPECTED_VERDICTS)
    del verdicts["8b"]
    assert workloads.check_verdicts(fake_results(verdicts)) != []


def test_replay_equals_run_sweep_and_catches_one_differing_row(tmp_path):
    config, _ = small_pair_config(tmp_path)
    tr = tracing.Tracer()
    cfg, _, rows = tracing.replay_sweep(config, tr)
    reference = run_sweep(SweepConfig.from_json(json.loads(config.read_text()))).rows
    tracing.assert_rows_equal(rows, reference)
    changed = [dict(r) for r in reference]
    changed[7]["error_plain"] = np.nextafter(changed[7]["error_plain"], 1.0)
    with pytest.raises(tracing.ReplayMismatch, match="row 7 error_plain"):
        tracing.assert_rows_equal(rows, changed)
    with pytest.raises(tracing.ReplayMismatch):
        tracing.assert_rows_equal(rows, reference[:-1])
    names = {s.name for s in tr.spans}
    assert {"op", "jsonio.load_pair", "zeno.zeno_split", "spectral.decompose",
            "spectral.reduced_resolvent", "zeno.bound_inputs", "zeno.errors",
            "zeno.bounds"} <= names
    assert len(tr.durations("zeno.point")) == len(rows) == 10


def test_spans_nest_under_their_caller():
    tr = tracing.Tracer()
    with tr.span("outer"):
        tr.call("inner", sum, [1, 2])
    outer, inner = tr.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    null = tracing.NullTracer()
    assert null.call("x", sum, [1, 2]) == 3 and null.spans == []


def test_tail_percentile_keeps_ten_values_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    for n, want in ((11, 9), (49, 79), (50, 80), (1000, 99)):
        pct, _ = run.tail_percentile([float(i) for i in range(n)])
        assert pct == want
        assert (100 - pct) * n >= 10 * 100


def test_compare_rules():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1)[0] == "unchanged"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1,
                           more_failures=True)[0] == "unresolved"
