"""Workload inputs, operations and correctness checks.

Three workloads, each a closed loop of one client issuing one operation
at a time (zeno-limits is a batch library with no arrival process):

``three-level-sweep``
    The README reference sweep: the three-level model at default
    parameters, 5 gamma x 64 linear t points, both error variants and all
    three bounds (320 rows).  Per-point ``expm``/``spectral_norm``, the
    bound functions and the sweep thread pool do the work; the spectral
    split of the D=9 generator is about 2% of it.
``dissipative-d64``
    A seeded random GKLS pair at d=8 (D=64) read from superoperator JSON,
    5 gamma x 4 log-spaced t points (20 rows).  ``spectral.decompose`` is
    most of each operation; the grid is small.
``acceptance``
    One ``acceptance.all_criteria()`` pass: the only workload that reaches
    ``gkls`` (the purity ascent of criterion 8 dominates) and the one that
    makes many small degenerate decompositions at D=4-16.

The checks here are independent of the code they check: the three-level
rows are recomputed from the model's closed forms, the D=64 rows from
the null vector of B, neither of which goes through ``spectral``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from zeno_limits import acceptance, cli, jsonio
from zeno_limits.gkls import GklsSystem, liouvillian
from zeno_limits.models import (ThreeLevelParams, three_level_generators,
                                three_level_peripheral,
                                three_level_zeno_generator)

WORKLOADS = ("three-level-sweep", "dissipative-d64", "acceptance")

#: the sweep CSV columns the README freezes; kept here, not imported, so a
#: change to the program's column list shows as a failed check
CSV_HEADER = ("gamma", "t", "error_plain", "error_peripheral",
              "bound_adiabatic", "bound_cptp", "bound_simplified")
BOUND_COLUMNS = CSV_HEADER[4:]
#: bounds allowed to read +inf: the simplified bound's e^{2 t M^2 ||C||}
#: factor (M = D chi) leaves the double range on most reference rows, and
#: +inf is a valid, vacuous upper bound.  NaN is never allowed.
MAY_OVERFLOW = ("bound_simplified",)
GAMMA_GRID = (10.0, 30.0, 100.0, 300.0, 1000.0)
#: criterion 5's slack for bound dominance
BOUND_SLACK = 1e-9
#: criterion 4's window for the headline convergence slope
SLOPE_WINDOW = (-1.15, -0.85)
#: largest absolute difference between a CSV error and its oracle value
ORACLE_TOL = 1e-10
#: rows recomputed by the oracle after every sweep operation
SAMPLED_ROWS = 3

#: the acceptance verdicts at which the suite is healthy: every criterion
#: passes except 8, which the README documents as failing by design
EXPECTED_VERDICTS = {n: n != "8" for n in
                     ("1", "2", "3", "4", "5", "6", "7", "8", "8b", "9", "10", "11")}

#: the dissipative workload's Hilbert-space dimension d, so D = d**2 = 64
D64_LEVELS = 8
D64_T_COUNT = 4


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def sweep_config(t_count: int, spacing: str, output: Path, model="three-level") -> dict:
    return {
        "model": model,
        "gamma_grid": list(GAMMA_GRID),
        "t_grid": {"start": 0.25, "stop": 2.0, "count": t_count, "spacing": spacing},
        "variants": ["plain", "peripheral"],
        "bounds": ["adiabatic", "cptp", "simplified"],
        "output": str(output),
    }


def random_system(d: int, n_jumps: int, rng: np.random.Generator) -> GklsSystem:
    """The ``models.random_gkls`` recipe without its d <= 4 cap.

    Gaussian Hermitian H, traceless complex Gaussian jumps, scaled so the
    compiled generator has unit spectral norm.
    """
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    jumps = []
    for _ in range(n_jumps):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps.append(m - (np.trace(m) / d) * np.eye(d))
    scale = np.linalg.norm(liouvillian(GklsSystem(d=d, hamiltonian=h, jumps=tuple(jumps))).mat, 2)
    return GklsSystem(d=d, hamiltonian=h / scale,
                      jumps=tuple(m / math.sqrt(scale) for m in jumps))


def random_pair(seed: int, d: int):
    """Seeded (strong, weak) superoperator pair: two jumps in B, one in C."""
    strong_seq, weak_seq = np.random.SeedSequence([seed, d]).spawn(2)
    strong = liouvillian(random_system(d, 2, np.random.default_rng(strong_seq)))
    weak = liouvillian(random_system(d, 1, np.random.default_rng(weak_seq)))
    return strong, weak


def write_inputs(workload: str, seed: int, workdir: Path) -> Path | None:
    """Build the workload's inputs from ``seed`` and write them to ``workdir``.

    Returns the sweep config path, or None for ``acceptance``, whose
    criteria carry their own fixed seeds (they are the contract).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "three-level-sweep":
        cfg = sweep_config(64, "linear", workdir / "sweep.csv")
    elif workload == "dissipative-d64":
        strong, weak = random_pair(seed, D64_LEVELS)
        jsonio.dump_json(jsonio.superoperator_to_json(strong), workdir / "strong.json")
        jsonio.dump_json(jsonio.superoperator_to_json(weak), workdir / "weak.json")
        model = {"strong": str(workdir / "strong.json"), "weak": str(workdir / "weak.json")}
        cfg = sweep_config(D64_T_COUNT, "log", workdir / "sweep.csv", model)
    elif workload == "acceptance":
        return None
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepOutput:
    header: tuple[str, ...]
    rows: list[dict]
    summary: dict


def run_sweep_cli(config_path: Path) -> None:
    """One operation: ``zeno-limits sweep --config`` in this process."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", "--config", str(config_path)])
    if code != 0:
        raise CheckFailed(f"sweep exited with code {code}")


def sweep_output_path(config_path: Path) -> Path:
    return Path(json.loads(Path(config_path).read_text())["output"])


def read_sweep_output(output: Path) -> SweepOutput:
    with output.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        rows = [{k: float(v) if v else None for k, v in zip(header, line)} for line in reader]
    summary = json.loads(Path(str(output) + ".summary.json").read_text())
    return SweepOutput(header, rows, summary)


def clear_sweep_output(output: Path) -> None:
    output.unlink(missing_ok=True)
    Path(str(output) + ".summary.json").unlink(missing_ok=True)


def acceptance_warmup() -> None:
    """Every criterion except the 8-10 s purity ascent of criterion 8.

    It reaches every import and lazy set-up a full pass reaches (8b runs
    the same ascent) at about a third of the cost.
    """
    for fn in (acceptance.criterion_1, acceptance.criterion_2, acceptance.criterion_3,
               acceptance.criterion_4, acceptance.criterion_5, acceptance.criterion_6,
               acceptance.criterion_7, acceptance.criterion_8b, acceptance.criterion_9,
               acceptance.criterion_10, acceptance.criterion_11):
        fn()


# ---------------------------------------------------------------------------
# oracles and checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Oracle:
    """Generator pair with a Zeno generator and P_phi found without ``spectral``."""

    b: np.ndarray
    c: np.ndarray
    c_z: np.ndarray
    p_phi: np.ndarray

    def error(self, gamma: float, t: float, variant: str) -> float:
        lhs = sla.expm(t * (gamma * self.b + self.c))
        rhs = sla.expm(gamma * t * self.b) @ sla.expm(t * self.c_z)
        if variant == "peripheral":
            rhs = rhs @ self.p_phi
        return float(np.linalg.norm(lhs - rhs, 2))


def three_level_oracle() -> Oracle:
    """The reference model with its closed-form C_Z and P_phi."""
    params = ThreeLevelParams()
    weak, strong = three_level_generators(params)
    return Oracle(b=strong.mat, c=weak.mat,
                  c_z=three_level_zeno_generator(params).mat,
                  p_phi=three_level_peripheral(params).p_phi.mat)


def null_vector_oracle(b: np.ndarray, c: np.ndarray) -> Oracle:
    """P_phi = r vec(I)^dag from the null vector r of a trace-preserving B.

    Valid when 0 is the only peripheral eigenvalue of B, which is checked.
    """
    norm = np.linalg.norm(b, 2)
    eigs = np.linalg.eigvals(b)
    peripheral = int(np.sum(np.abs(eigs.real) <= 1e-7 * norm))
    if peripheral != 1:
        raise CheckFailed(f"B has {peripheral} peripheral eigenvalues, the oracle needs exactly 1")
    d = math.isqrt(b.shape[0])
    r = np.linalg.svd(b)[2][-1].conj()
    vec_i = np.eye(d, dtype=complex).reshape(-1, order="F")
    r = r / (vec_i.conj() @ r)
    p_phi = np.outer(r, vec_i.conj())
    return Oracle(b=b, c=c, c_z=p_phi @ c @ p_phi, p_phi=p_phi)


def check_sweep(out: SweepOutput, n_rows: int, oracle: Oracle, sample: list[int],
                slope_window: tuple[float, float] | None = None) -> list[str]:
    """Every problem found in one sweep's CSV and summary; empty when correct."""
    problems = []
    if out.header != CSV_HEADER:
        problems.append(f"CSV header {out.header} != {CSV_HEADER}")
        return problems
    if len(out.rows) != n_rows:
        problems.append(f"{len(out.rows)} rows, expected {n_rows}")
    for i, row in enumerate(out.rows):
        err = row["error_peripheral"]
        for col in BOUND_COLUMNS:
            bound = row[col]
            if bound is None or math.isnan(bound) or (
                    math.isinf(bound) and not (bound > 0 and col in MAY_OVERFLOW)):
                problems.append(f"row {i}: {col} = {bound} is not a finite bound")
            elif bound < err - BOUND_SLACK:
                problems.append(f"row {i}: {col} = {bound!r} below error {err!r}")
    if slope_window is not None:
        slope = out.summary.get("slope")
        if slope is None or not slope_window[0] <= slope <= slope_window[1]:
            problems.append(f"headline slope {slope} outside {slope_window}")
    for i in sample:
        if i >= len(out.rows):
            continue
        row = out.rows[i]
        for variant in ("plain", "peripheral"):
            want = oracle.error(row["gamma"], row["t"], variant)
            got = row[f"error_{variant}"]
            if got is None or not abs(got - want) <= ORACLE_TOL:
                problems.append(f"row {i}: error_{variant} = {got!r}, oracle {want!r}")
    return problems


def check_verdicts(results) -> list[str]:
    """Problems with an acceptance verdict map; empty when only 8 fails."""
    got = {r.number: bool(r.passed) for r in results}
    problems = [f"criterion {n}: passed={got.get(n)}, expected {want}"
                for n, want in EXPECTED_VERDICTS.items() if got.get(n) != want]
    return problems + [f"unexpected criterion {n}" for n in got if n not in EXPECTED_VERDICTS]


# ---------------------------------------------------------------------------
# workloads as the runner sees them
# ---------------------------------------------------------------------------

class SweepWorkload:
    """One ``sweep`` CLI call per operation, checked against an oracle."""

    def __init__(self, config_path: Path, oracle: Oracle, n_rows: int,
                 slope_window: tuple[float, float] | None):
        self.config_path = config_path
        self.output = sweep_output_path(config_path)
        self.oracle = oracle
        self.n_rows = n_rows
        self.slope_window = slope_window

    def operation(self) -> None:
        clear_sweep_output(self.output)
        run_sweep_cli(self.config_path)

    warmup = operation

    def check(self, rng: np.random.Generator) -> list[str]:
        sample = sorted(int(i) for i in rng.choice(self.n_rows, SAMPLED_ROWS, replace=False))
        return check_sweep(read_sweep_output(self.output), self.n_rows,
                           self.oracle, sample, self.slope_window)


class AcceptanceWorkload:
    """One ``all_criteria()`` pass per operation, checked by its verdicts."""

    def __init__(self):
        self.results = []

    def operation(self) -> None:
        self.results = acceptance.all_criteria()[0]

    def warmup(self) -> None:
        acceptance_warmup()

    def check(self, rng: np.random.Generator) -> list[str]:
        return check_verdicts(self.results)


def open_workload(name: str, seed: int, workdir: Path):
    """The workload whose inputs ``write_inputs`` left in ``workdir``."""
    config = workdir / "config.json"
    if name == "three-level-sweep":
        return SweepWorkload(config, three_level_oracle(), len(GAMMA_GRID) * 64, SLOPE_WINDOW)
    if name == "dissipative-d64":
        strong, weak = random_pair(seed, D64_LEVELS)
        return SweepWorkload(config, null_vector_oracle(strong.mat, weak.mat),
                             len(GAMMA_GRID) * D64_T_COUNT, None)
    if name == "acceptance":
        return AcceptanceWorkload()
    raise ValueError(f"unknown workload {name!r}")
