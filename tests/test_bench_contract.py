"""What the benchmark in ``bench/`` reads from the package still exists and agrees.

``bench/tracing.py`` replays a sweep through the public call of each layer
and must reproduce ``run_sweep``'s rows; ``bench/tests`` runs outside this
suite and never runs that pass, so a signature it relies on could change
with both suites green.  This runs one traced sweep of the three-level
reference inputs.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_three_level_sweep_replays_run_sweep(tmp_path, monkeypatch):
    # bench/run.py pins this variable; tracing's environment switch assumes it is set
    monkeypatch.setenv("ZENO_LIMITS_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads

    config = workloads.write_inputs("three-level-sweep", 7, tmp_path)
    metrics, problems = tracing.sweep_layers(config, tracing.Tracer(), 1)
    assert problems == []
    known = {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert sorted(set(metrics) - known) == []
