"""Traced pass: per-layer timings from spans around public calls.

The pass never reaches inside the program.  It replays an operation
through the public function of each layer and records one span per call:

* a sweep is replayed as ``jsonio`` load -> ``zeno_split`` (with
  ``decompose`` and ``reduced_resolvent`` timed again on the same B) ->
  ``BoundInputs.from_split`` -> per row, ``adiabatic_error`` for both
  variants and the three ``bound_*`` functions.  One real ``run_sweep``
  on the same config must give the same rows, which shows the replay does
  the operation's work;
* an acceptance pass is replayed criterion by criterion.

Spans stay in memory and are written out when the pass ends.  Every
traced run reports every per-layer metric: the sweep layers are measured
on the workload's own config (the reference three-level config for
``acceptance``, whose criteria 1-6 run that model), and the layer probes
that do not depend on the workload (the size ladder, ``gkls`` and the
acceptance criteria) run in every traced pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from zeno_limits import acceptance, jsonio
from zeno_limits.experiments import SweepConfig, run_sweep
from zeno_limits.gkls import (PurityOptions, Superoperator, canonicalize, cptp_check,
                              liouvillian, purity_decay_rate)
from zeno_limits.linalg import expm, schur, spectral_norm
from zeno_limits.models import ThreeLevelParams, three_level_generators
from zeno_limits.spectral import condition_number, decompose, reduced_resolvent, spectral_expm
from zeno_limits.zeno import (BoundInputs, adiabatic_error, bound_adiabatic, bound_cptp,
                              bound_simplified, zeno_split)

import workloads

#: superoperator dimensions D = d**2 of the size ladder
LADDER_LEVELS = (2, 3, 4, 6, 8)
#: criterion 8's purity-ascent options
CRITERION_8_PURITY = PurityOptions(restarts=24, grid_density=100, seed=7)
#: repeats of each cheap probe (single calls at D <= 16 take well under 1 ms)
PROBE_REPEATS = 5
#: the acceptance criteria in ``all_criteria`` order
CRITERIA = (acceptance.criterion_1, acceptance.criterion_2, acceptance.criterion_3,
            acceptance.criterion_4, acceptance.criterion_5, acceptance.criterion_6,
            acceptance.criterion_7, acceptance.criterion_8, acceptance.criterion_8b,
            acceptance.criterion_9, acceptance.criterion_10, acceptance.criterion_11)


class ReplayMismatch(Exception):
    """The replayed sweep rows differ from ``run_sweep``'s rows."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call; spans of one operation share ``op``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, op: int | None = None) -> list[float]:
        return [s.duration for s in self.spans
                if s is not None and s.name == name and (op is None or s.op == op)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer(Tracer):
    """The same calls with no spans: the untraced side of the overhead."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def _median_time(fn, *args, repeats: int = PROBE_REPEATS) -> float:
    return statistics.median(_timed(fn, *args)[0] for _ in range(repeats))


# ---------------------------------------------------------------------------
# sweep replay
# ---------------------------------------------------------------------------

def load_pair(config_path: Path):
    """The sweep config and its (B, C), read the way ``run_sweep`` reads them."""
    cfg = SweepConfig.from_json(jsonio.load_json(config_path))
    if cfg.model == "files":
        b = jsonio.superoperator_from_json(jsonio.load_json(cfg.strong_path)).mat
        c = jsonio.superoperator_from_json(jsonio.load_json(cfg.weak_path)).mat
    else:
        weak, strong = three_level_generators(cfg.params or ThreeLevelParams())
        b, c = strong.mat, weak.mat
    return cfg, b, c


def replay_sweep(config_path: Path, tr: Tracer):
    """One sweep through the public call of each layer; returns (cfg, split, rows)."""
    with tr.span("op"):
        cfg, b, c = tr.call("jsonio.load_pair", load_pair, config_path)
        split = tr.call("zeno.zeno_split", zeno_split, b, c)
        dec = tr.call("spectral.decompose", decompose, b)
        with tr.span("spectral.reduced_resolvents"):
            for k, cluster in enumerate(dec.clusters):
                if cluster.peripheral:
                    tr.call("spectral.reduced_resolvent", reduced_resolvent, dec, k)
        inputs = tr.call("zeno.bound_inputs", BoundInputs.from_split, split,
                         t_max=cfg.t_stop, gamma_max=max(cfg.gamma_grid))
        rows = []
        for gamma in cfg.gamma_grid:
            for t in cfg.t_grid():
                with tr.span("zeno.point"):
                    with tr.span("zeno.errors"):
                        plain = adiabatic_error(split, gamma, t, "plain")
                        peripheral = adiabatic_error(split, gamma, t, "peripheral")
                    with tr.span("zeno.bounds"):
                        bounds = (bound_adiabatic(inputs, gamma, t), bound_cptp(inputs, gamma, t),
                                  bound_simplified(inputs, gamma, t))
                rows.append(dict(zip(workloads.CSV_HEADER, (gamma, t, plain, peripheral) + bounds)))
    return cfg, split, rows


def assert_rows_equal(replayed: list[dict], reference: list[dict]) -> None:
    """Raise :class:`ReplayMismatch` unless both row lists are identical."""
    if len(replayed) != len(reference):
        raise ReplayMismatch(f"{len(replayed)} replayed rows, {len(reference)} from run_sweep")
    for i, (mine, theirs) in enumerate(zip(replayed, reference)):
        for col in workloads.CSV_HEADER:
            if mine[col] != theirs[col]:
                raise ReplayMismatch(f"row {i} {col}: replay {mine[col]!r}, run_sweep {theirs[col]!r}")


@contextlib.contextmanager
def _env(name: str, value: str | None):
    """Set ``name`` to ``value`` (None: unset it) inside the block."""
    old = os.environ.get(name)
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def sweep_layers(config_path: Path, tr: Tracer, replays: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one sweep config, and any replay mismatches.

    Alternates traced and untraced replays; their medians give the traced
    op time and the tracing overhead.  ``run_sweep`` runs once with the
    default pool and once with one worker, and both must give the
    replayed rows.
    """
    traced, untraced = [], []
    for i in range(replays):
        tr.op = i
        start = len(tr.spans)
        cfg, split, rows = replay_sweep(config_path, tr)
        traced.append(tr.spans[start].duration)
        untraced.append(_timed(replay_sweep, config_path, NullTracer())[0])

    def per_op(name):
        return [sum(tr.durations(name, op)) for op in range(replays)]

    def med(name):
        return statistics.median(tr.durations(name))

    split_self_s = statistics.median(
        s - d - r for s, d, r in zip(per_op("zeno.zeno_split"), per_op("spectral.decompose"),
                                     per_op("spectral.reduced_resolvent")))
    problems = []
    with _env("ZENO_LIMITS_THREADS", None):
        sweep_s, default_run = _timed(run_sweep, cfg)
    with _env("ZENO_LIMITS_THREADS", "1"):
        sweep_1_s, single_run = _timed(run_sweep, cfg)
    for result in (default_run, single_run):
        try:
            assert_rows_equal(rows, result.rows)
        except ReplayMismatch as exc:
            problems.append(str(exc))
    replayed_work = statistics.median(
        z + b + p for z, b, p in zip(per_op("zeno.zeno_split"), per_op("zeno.bound_inputs"),
                                     per_op("zeno.point")))
    dec = split.decomposition
    b = split.b
    gamma_max, t_max = max(cfg.gamma_grid), cfg.t_stop
    metrics = {
        "spectral.decompose_s": med("spectral.decompose"),
        "spectral.reduced_resolvent_s": statistics.median(per_op("spectral.reduced_resolvent")),
        "spectral.condition_number_s": _median_time(condition_number, dec, split.gap_data.nu),
        "spectral.spectral_expm_s": _median_time(spectral_expm, dec, gamma_max * t_max),
        "spectral.clusters": len(dec.clusters),
        "spectral.peripheral_clusters": len(dec.peripheral_clusters),
        "zeno.zeno_split_s": med("zeno.zeno_split"),
        "zeno.zeno_split_self_s": split_self_s,
        "zeno.bound_inputs_s": med("zeno.bound_inputs"),
        "zeno.error_per_point_s": med("zeno.errors"),
        "zeno.bounds_per_point_s": med("zeno.bounds"),
        "zeno.points": len(rows),
        "linalg.expm_s": _median_time(expm, gamma_max * b + split.c, t_max),
        "linalg.spectral_norm_s": _median_time(spectral_norm, b),
        "linalg.schur_s": _median_time(schur, b),
        "experiments.run_sweep_s": sweep_s,
        "experiments.run_sweep_1worker_s": sweep_1_s,
        "experiments.pool_speedup": sweep_1_s / sweep_s,
        "experiments.self_s": sweep_1_s - replayed_work,
        "jsonio.load_pair_s": med("jsonio.load_pair"),
        "trace.op_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    return metrics, problems


# ---------------------------------------------------------------------------
# workload-independent probes
# ---------------------------------------------------------------------------

def ladder_entry(b: np.ndarray, c: np.ndarray, tr: Tracer) -> dict:
    """The four size-ladder timings for one pair, on the D=64 workload's grid."""
    repeats = PROBE_REPEATS if b.shape[0] <= 16 else 1
    decompose_s = _median_time(lambda: tr.call("spectral.decompose", decompose, b), repeats=repeats)
    split_s = _median_time(lambda: tr.call("zeno.zeno_split", zeno_split, b, c), repeats=repeats)
    split = zeno_split(b, c)
    bound_s = _median_time(lambda: tr.call("zeno.bound_inputs", BoundInputs.from_split, split),
                           repeats=repeats)
    points = []
    for gamma in workloads.GAMMA_GRID:
        for t in np.geomspace(0.25, 2.0, workloads.D64_T_COUNT):
            points.append(_timed(lambda: (adiabatic_error(split, gamma, t, "plain"),
                                          adiabatic_error(split, gamma, t, "peripheral")))[0])
    return {"spectral.decompose_s": decompose_s, "zeno.zeno_split_s": split_s,
            "zeno.bound_inputs_s": bound_s, "zeno.error_per_point_s": statistics.median(points)}


def size_ladder(seed: int, tr: Tracer, known: dict | None = None) -> dict:
    """Ladder metrics at D = 4 ... 64; ``known`` supplies an already measured D=64 entry."""
    metrics = {}
    for d in LADDER_LEVELS:
        if d == workloads.D64_LEVELS and known is not None:
            entry = known
        else:
            strong, weak = workloads.random_pair(seed, d)
            entry = ladder_entry(strong.mat, weak.mat, tr)
        metrics.update({f"{name}.D{d * d}": value for name, value in entry.items()})
    return metrics


def gkls_probes(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    qubit = canonicalize(workloads.random_system(2, 1, rng))
    qutrit = canonicalize(workloads.random_system(3, 1, rng))
    channel = Superoperator(4, expm(liouvillian(workloads.random_system(4, 2, rng)).mat),
                            "propagator")
    return {
        "gkls.purity_d2_s": _median_time(purity_decay_rate, qubit, CRITERION_8_PURITY, repeats=3),
        "gkls.purity_d3_s": _median_time(purity_decay_rate, qutrit, CRITERION_8_PURITY, repeats=3),
        "gkls.cptp_check_s": _median_time(cptp_check, channel),
    }


def replay_acceptance(tr: Tracer) -> list:
    """One acceptance pass, criterion by criterion; returns the results."""
    results = []
    with tr.span("op"):
        for fn in CRITERIA:
            out = tr.call(f"acceptance.{fn.__name__}", fn)
            results.append(out[0] if isinstance(out, tuple) else out)
    return results


def criterion_metrics(results) -> dict:
    return {f"acceptance.criterion_{r.number}_s": r.elapsed_s for r in results}


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def traced_pass(workload: str, seed: int, workdir: Path, spans_path: Path) -> tuple[dict, int, list[str]]:
    """Every per-layer metric for one workload.

    Returns (metrics, checks attempted, one message per failed check).  The
    checks are the replay-equals-``run_sweep`` assertion against both
    ``run_sweep`` calls and the verdict map of each acceptance pass.
    """
    tr = Tracer()
    if workload == "acceptance":
        config = workloads.write_inputs("three-level-sweep", seed, workdir / "reference")
    else:
        config = workdir / "config.json"
    replays = 1 if workload == "dissipative-d64" else 5
    metrics, failures = sweep_layers(config, tr, replays)
    attempted = 2

    tr.op = replays
    if workload == "dissipative-d64":
        known = {name: metrics[name] for name in
                 ("spectral.decompose_s", "zeno.zeno_split_s", "zeno.bound_inputs_s",
                  "zeno.error_per_point_s")}
        metrics.update(size_ladder(seed, tr, known))
    else:
        metrics.update(size_ladder(seed, tr))
    metrics.update(gkls_probes(seed))

    passes = []
    if workload == "acceptance":
        untraced_s, (results, _) = _timed(acceptance.all_criteria)
        passes.append(results)
    tr.op = replays + 1
    start = len(tr.spans)
    results = replay_acceptance(tr)
    passes.append(results)
    if workload == "acceptance":
        metrics["trace.op_s"] = tr.spans[start].duration
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - untraced_s
    metrics.update(criterion_metrics(results))
    for results in passes:
        attempted += 1
        problems = workloads.check_verdicts(results)
        if problems:
            failures.append("; ".join(problems))
    tr.write(spans_path)
    return metrics, attempted, failures
