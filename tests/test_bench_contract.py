"""What the benchmark in ``bench/`` reads from the package still exists and agrees.

``bench/tracing.py`` replays a sweep through the public call of each layer
and must reproduce ``run_sweep``'s rows; ``bench/tests`` shares this
session (``testpaths``) but never runs that pass, so a signature it relies
on could change with both suites green.  These run one traced sweep of the
three-level reference inputs and every other reader of the package in
``bench/``: the provenance record, the criterion-by-criterion acceptance
replay and its verdict check, the ``gkls`` probes and the D = 4 ... 64
size ladder.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.fixture
def bench(monkeypatch):
    """``bench/``'s tracing, workloads and run modules, importable as the runner imports them."""
    # bench/run.py pins this variable; tracing's environment switch assumes it is set
    monkeypatch.setenv("ZENO_LIMITS_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import tracing
    import workloads
    return run, tracing, workloads


def test_traced_three_level_sweep_replays_run_sweep(tmp_path, bench):
    _, tracing, workloads = bench
    config = workloads.write_inputs("three-level-sweep", 7, tmp_path)
    metrics, problems = tracing.sweep_layers(config, tracing.Tracer(), 1)
    assert problems == []
    assert sorted(set(metrics) - PER_LAYER) == []


def test_acceptance_replay_times_every_criterion(bench):
    _, tracing, workloads = bench
    results = tracing.replay_acceptance(tracing.Tracer())
    metrics = tracing.criterion_metrics(results)
    assert len(results) == len(metrics) == 12
    assert all(value > 0 for value in metrics.values()), metrics
    assert sorted(set(metrics) - PER_LAYER) == []
    assert workloads.check_verdicts(results) == []


def test_provenance_probes_and_size_ladder(bench):
    run, tracing, _ = bench
    assert run.provenance()["pool_workers"] == 1
    metrics = {**tracing.gkls_probes(7), **tracing.size_ladder(7, tracing.Tracer())}
    assert all(value > 0 for value in metrics.values()), metrics
    assert sorted(set(metrics) - PER_LAYER) == []
