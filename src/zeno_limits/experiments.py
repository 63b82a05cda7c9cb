"""Config-driven sweeps, structural audits, and dataset emission.

``run_sweep`` measures Zeno-limit errors over a (gamma, t) grid for a
named model or a user-supplied generator pair, evaluates the requested
bounds at implementation-measured constants, emits a CSV with the frozen
column order

    gamma, t, error_plain, error_peripheral,
    bound_adiabatic, bound_cptp, bound_simplified

and a JSON summary carrying the fitted convergence slope (top half of the
gamma grid, with the full-grid fit alongside), the worst bound violation
(positive values mean a bound was beaten, which would falsify the
underlying estimates), and wall-clock time.  ``zeno.evaluate_grid`` owns
the grid, the variant and bound names and the column order, and returns
one (gamma, t) array per column; ``summarize_grid`` and ``format_csv``
read those arrays, and so do the ``zeno bounds`` command and the
acceptance criteria.  A sweep runs in the calling thread.  This module is
the config and file layer around them.

``spectral_property_check`` audits the structural facts that make a
compiled generator a valid strong generator: spectrum confined to the
closed left half-plane with 0 an eigenvalue, semisimple peripheral
eigenvalues, a CPTP peripheral projection commuting with the generator,
and CPTP peripheral maps e^{t L_phi} P_phi at positive and negative
times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _read
from .errors import ValidationError, ZenoLimitsError
from .gkls import GklsSystem, cptp_check, dissipator_superoperator, hamiltonian_superoperator, liouvillian
from .jsonio import load_json, superoperator_from_json, write_text
from .linalg import spectral_norm
from .models import ThreeLevelParams, dephasing_qubit_example, three_level_generators
from .spectral import decompose, peripheral_projection
from .zeno import BOUNDS, CSV_COLUMNS, VARIANTS, evaluate_grid, zeno_split

__all__ = [
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "SpectralPropertyReport",
    "spectral_property_check",
]

#: errors below this are treated as exactly converged (C = 0 style configs)
DEGENERATE_ERROR = 1e-12


def _worker_count() -> int:
    """Always 1; only ``bench/run.py``'s provenance reads it, and it goes with ROADMAP item 1."""
    return 1


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one gamma/t sweep."""

    model: str = "three-level"
    params: ThreeLevelParams | None = None
    strong_path: str | None = None
    weak_path: str | None = None
    gamma_grid: tuple[float, ...] = (10.0, 30.0, 100.0, 300.0, 1000.0)
    t_start: float = 0.25
    t_stop: float = 2.0
    t_count: int = 16
    t_spacing: str = "linear"
    variants: tuple[str, ...] = VARIANTS
    bounds: tuple[str, ...] = tuple(BOUNDS)
    output: str | None = None

    def __post_init__(self):
        grid = tuple(_read.real("gamma_grid entry", g, "positive")  # ints become floats
                     for g in _read.sequence("gamma_grid", self.gamma_grid, "numbers"))
        if not grid:
            raise ValidationError("gamma_grid must not be empty")
        if list(grid) != sorted(set(grid)):
            raise ValidationError("gamma_grid must be strictly increasing")
        object.__setattr__(self, "gamma_grid", grid)
        if self.params is not None:
            _read.instance("params", self.params, ThreeLevelParams)
        for name in ("t_start", "t_stop"):
            object.__setattr__(self, name, _read.real(name, getattr(self, name)))
        object.__setattr__(self, "t_count", _read.integer("t_count", self.t_count, 0))
        _read.names("t_spacing", (self.t_spacing,), ("linear", "log"))
        object.__setattr__(self, "variants", _read.names("variants", self.variants, VARIANTS))
        object.__setattr__(self, "bounds", _read.names("bounds", self.bounds, tuple(BOUNDS)))
        if self.t_spacing == "log" and min(self.t_start, self.t_stop) <= 0:  # geomspace takes logs of both
            raise ValidationError("log t_spacing needs t_start > 0 and t_stop > 0")
        # every t lies between the grid's ends, and the end t_stop is on a grid of two or more points
        if "peripheral" in self.variants and (self.t_start <= 0 or self.t_count >= 2 and self.t_stop <= 0):
            raise ValidationError(
                "the peripheral variant needs every t > 0 (the limit holds on compact subsets of (0, inf))")

    @classmethod
    def from_json(cls, obj) -> "SweepConfig":
        """The config of a JSON object; an unknown key, at the top, in ``model`` or in ``t_grid``, raises."""
        _read.names("sweep config keys", _read.instance("sweep config", obj, dict),
                    ("model", "params", "gamma_grid", "t_grid", "variants", "bounds", "output"))
        model, strong, weak = obj.get("model", cls.model), None, None
        if isinstance(model, dict):
            _read.names("model keys", model, ("strong", "weak"))
            strong, weak = model.get("strong"), model.get("weak")
            model = "files"
        params = ThreeLevelParams.from_json(obj["params"]) if "params" in obj else None
        tg = obj.get("t_grid", {})
        if not isinstance(tg, dict):
            raise ValidationError(f"t_grid must be an object with start, stop, count and spacing, got {tg!r}")
        _read.names("t_grid keys", tg, ("start", "stop", "count", "spacing"))
        if not all(path is None or isinstance(path, str) for path in (strong, weak, obj.get("output"))):
            raise ValidationError("the model's strong and weak paths and the output must be strings")
        arrays = {key: obj[key] for key in ("gamma_grid", "variants", "bounds") if key in obj}
        for key, value in arrays.items():
            if not isinstance(value, list):
                raise ValidationError(f"{key} must be a JSON array, got {value!r}")
        return cls(model=model, params=params, strong_path=strong, weak_path=weak,
                   t_start=tg.get("start", cls.t_start), t_stop=tg.get("stop", cls.t_stop),
                   t_count=tg.get("count", cls.t_count), t_spacing=tg.get("spacing", cls.t_spacing),
                   output=obj.get("output"), **{key: tuple(value) for key, value in arrays.items()})

    def t_grid(self) -> np.ndarray:
        if self.t_spacing == "log":
            return np.geomspace(self.t_start, self.t_stop, self.t_count)
        return np.linspace(self.t_start, self.t_stop, self.t_count)


@dataclass(frozen=True)
class SweepResult:
    rows: list[dict]  # one dict per grid cell, keyed by CSV_COLUMNS; only bench/ reads it
    summary: dict
    csv_text: str


def _load_pair(cfg: SweepConfig) -> tuple:
    """The model's strong and weak generators, each a matrix or a ``Superoperator``."""
    if cfg.model == "three-level":
        weak, strong = three_level_generators(cfg.params or ThreeLevelParams())
        return strong, weak
    if cfg.model == "dephasing-qubit":  # fast-oscillation pair: strong commutator of H, weak dephasing part
        ex = dephasing_qubit_example()
        return hamiltonian_superoperator(ex.hamiltonian), dissipator_superoperator([ex.jump], 2)
    if cfg.model == "files":
        if not (cfg.strong_path and cfg.weak_path):
            raise ValidationError("file model needs strong and weak paths")
        return tuple(superoperator_from_json(load_json(path)) for path in (cfg.strong_path, cfg.weak_path))
    raise ValidationError(f"unknown model {cfg.model!r}")


def _loglog_slope(points) -> float:
    """The least-squares slope of log(error) against log(gamma) through (gamma, error) points."""
    lx, ly = np.log(np.asarray(points, dtype=float)).T
    return float(np.polyfit(lx, ly, 1)[0])


def _read_grid(grid) -> dict:
    """``grid`` when it is an ``evaluate_grid`` grid: a dict whose ``CSV_COLUMNS`` values are each None or a
    float ndarray of the 2-D shape of ``grid["gamma"]``, which is not None; else a typed error naming the column."""
    if not (isinstance(grid, dict) and grid.keys() >= set(CSV_COLUMNS)):
        raise ValidationError(f"grid must be an evaluate_grid result, a dict with the keys {CSV_COLUMNS}")
    shape = getattr(grid["gamma"], "shape", ())
    for key in CSV_COLUMNS:
        value = grid[key]
        if not (value is None and key != "gamma" or len(shape) == 2 and isinstance(value, np.ndarray)
                and value.dtype == float and value.shape == shape):
            got = f"a {value.dtype} array of shape {value.shape}" if isinstance(value, np.ndarray) else repr(value)[:80]
            raise ValidationError(f"grid column {key!r} must be a 2-D float array shaped like 'gamma', got {got}")
    return grid


def summarize_grid(grid: dict) -> dict:
    """Sup-over-t errors, the bound audit and the convergence slopes of an ``evaluate_grid`` grid.

    ``grid`` maps each ``CSV_COLUMNS`` key to a (gamma, t) array, or to
    None for a column not evaluated.  The error is the peripheral column
    when it was evaluated, else the plain one; a gamma that the grid
    repeats gets one sup, over all of its rows.  A positive
    ``max_bound_violation`` means a bound was beaten.  The headline slope
    fits the top half of the gamma grid (the small-gamma points are
    pre-asymptotic); the full-grid fit is reported alongside.
    """
    grid = _read_grid(grid)
    err = grid["error_peripheral"] if grid["error_peripheral"] is not None else grid["error_plain"]
    sup_errors, slack = [], None
    if err is not None and err.size:
        gammas, first = np.unique(grid["gamma"][:, 0], return_index=True)  # sorted, so each gamma's rows are adjacent
        sup_errors = [[g, e] for g, e in zip(gammas.tolist(), np.maximum.reduceat(err.max(axis=1), first).tolist())]
        bounds = [grid[f"bound_{name}"] for name in BOUNDS if grid[f"bound_{name}"] is not None]
        slack = max((float((err - bound).max()) for bound in bounds), default=None)
    slope = slope_full = notice = None
    if sup_errors and all(e <= DEGENERATE_ERROR for _, e in sup_errors):
        notice = "degenerate-data: all errors at roundoff, slope fit refused"
    elif len(sup_errors) >= 4 and all(e > 0 for _, e in sup_errors):
        slope = _loglog_slope(sup_errors[len(sup_errors) // 2:])
        slope_full = _loglog_slope(sup_errors)
    elif sup_errors:
        notice = "degenerate-data: need >= 4 gamma points with positive errors"
    return {
        "slope": slope,
        "slope_full_grid": slope_full,
        "max_bound_violation": slack,
        "sup_errors": sup_errors,
        "notice": notice,
    }


def _columns(grid: dict) -> list[list]:
    """The grid's columns in ``CSV_COLUMNS`` order, each its cells in (gamma, t) order: Python floats, or None."""
    return [[None] * grid["gamma"].size if grid[key] is None else grid[key].ravel().tolist() for key in CSV_COLUMNS]


def format_csv(grid: dict) -> str:
    """The sweep CSV of an ``evaluate_grid`` grid: the frozen header, then one line per cell, empty for None."""
    lines = (",".join("" if x is None else repr(x) for x in cells) for cells in zip(*_columns(_read_grid(grid))))
    return "\n".join([",".join(CSV_COLUMNS), *lines]) + "\n"


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute one sweep; returns rows, summary, and the CSV text.

    Writes the CSV to ``cfg.output`` (and the summary next to it with a
    ``.summary.json`` suffix) when an output path is configured.
    """
    start = time.monotonic()
    b, c = _load_pair(cfg)
    split = zeno_split(b, c)
    grid = evaluate_grid(split, cfg.gamma_grid, cfg.t_grid(), cfg.variants, bounds=cfg.bounds)
    summary = {
        "model": cfg.model,
        "gamma_grid": list(cfg.gamma_grid),
        **summarize_grid(grid),
        "wall_clock_s": time.monotonic() - start,
    }
    csv_text = format_csv(grid)

    if cfg.output:
        write_text(cfg.output, csv_text)
        write_text(f"{cfg.output}.summary.json", json.dumps(summary, indent=2) + "\n")
    return SweepResult(rows=[dict(zip(CSV_COLUMNS, cells)) for cells in zip(*_columns(grid))], summary=summary,
                       csv_text=csv_text)


# ---------------------------------------------------------------------------
# structural audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralPropertyReport:
    left_half_plane: bool
    zero_is_eigenvalue: bool
    peripheral_semisimple: bool
    peripheral_projection_cptp: bool
    projection_commutes: bool
    peripheral_map_cptp: bool
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return self.as_dict()["all_pass"]

    def as_dict(self) -> dict:
        verdicts = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}
        return {**verdicts, "all_pass": all(verdicts.values()), "details": self.details}


def spectral_property_check(sys_or_superop) -> SpectralPropertyReport:
    """Audit the spectral structure of a GKLS generator: a system, a superoperator or a d^2 x d^2 matrix."""
    if isinstance(sys_or_superop, GklsSystem):
        sys_or_superop = liouvillian(sys_or_superop)
    mat = _read.superoperator("sys_or_superop", sys_or_superop)[0]
    norm = max(spectral_norm(mat), 1e-300)
    tol = 1e-7 * norm

    try:  # the eigenvalues are the Schur diagonal, or eigvals' when the decomposition fails
        dec = decompose(mat, cluster_tol=tol, imag_tol=tol)  # decompose's defaults, without a second SVD
        eigs, failure = np.diag(dec.blocks), None
    except ZenoLimitsError as exc:  # defective peripheral cluster or worse
        eigs, failure = np.linalg.eigvals(mat), str(exc)
    lhp = bool(np.all(eigs.real <= tol))
    zero_eig = bool(np.min(np.abs(eigs)) <= tol)
    details: dict = {"max_real_part": float(eigs.real.max())}
    if failure is not None:
        details["decomposition_error"] = failure
        return SpectralPropertyReport(
            left_half_plane=lhp, zero_is_eigenvalue=zero_eig,
            peripheral_semisimple=False, peripheral_projection_cptp=False,
            projection_commutes=False, peripheral_map_cptp=False, details=details)

    p_phi = peripheral_projection(dec)
    proj_report = cptp_check(p_phi)
    commutator_norm = spectral_norm(mat @ p_phi - p_phi @ mat)
    commute = commutator_norm <= 1e-8 * norm
    details["projection_commutator_norm"] = float(commutator_norm)

    # the peripheral clusters are semisimple, so e^{t L_phi} P_phi = sum_k e^{t b_k} P_k over them
    peripheral_map_ok = True
    for t in (-1.0, 1.0):
        phi_map = sum((np.exp(t * c.eigenvalue) * c.projection for c in dec.peripheral_clusters),
                      np.zeros_like(mat))
        rep = cptp_check(phi_map)
        details[f"peripheral_map_min_choi_t={t}"] = rep.min_choi_eigenvalue
        peripheral_map_ok = peripheral_map_ok and rep.completely_positive and rep.trace_preserving

    return SpectralPropertyReport(
        left_half_plane=lhp,
        zero_is_eigenvalue=zero_eig,
        peripheral_semisimple=True,  # decompose raises for a defective peripheral cluster
        peripheral_projection_cptp=bool(proj_report.completely_positive
                                        and proj_report.trace_preserving),
        projection_commutes=bool(commute),
        peripheral_map_cptp=bool(peripheral_map_ok),
        details=details,
    )
