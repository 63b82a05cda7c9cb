import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zeno_limits
from zeno_limits import SweepConfig, liouvillian, random_gkls, run_sweep, spectral_norm
from zeno_limits.cli import main, main_gkls, main_spectral
from zeno_limits.jsonio import (
    dump_json,
    matrix_from_json,
    matrix_to_json,
    superoperator_to_json,
)
from zeno_limits.models import ThreeLevelParams, three_level_generators


@pytest.fixture
def system_file(tmp_path):
    sys = random_gkls(2, 1, seed=42)
    path = tmp_path / "sys.json"
    dump_json({"d": sys.d, "H": matrix_to_json(sys.hamiltonian), "jumps": [matrix_to_json(L) for L in sys.jumps]},
              path)
    return sys, path


def test_matrix_json_roundtrip(tmp_path):
    a = np.array([[1.0 + 2.0j, 0.0], [3.0, -4.0j]])
    assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)


def test_spectral_command(tmp_path):
    a = np.diag([0.0, -1.0, 2.0j])
    inp, out = tmp_path / "a.json", tmp_path / "dec.json"
    dump_json(matrix_to_json(a), inp)
    assert main(["spectral", "--input", str(inp), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["dim"] == 3
    assert len(payload["clusters"]) == 3
    flags = {tuple(np.round(c["eigenvalue"], 6)): c["peripheral"] for c in payload["clusters"]}
    assert flags[(0.0, 0.0)] and flags[(0.0, 2.0)] and not flags[(-1.0, 0.0)]
    assert payload["gaps"]["eta"] == 1.0


def test_spectral_alias_entry_point(tmp_path):
    a = np.eye(2)
    inp, out = tmp_path / "a.json", tmp_path / "dec.json"
    dump_json(matrix_to_json(a), inp)
    assert main_spectral(["--input", str(inp), "--output", str(out)]) == 0


def test_gkls_build_and_check(tmp_path, system_file, capsys):
    sys, path = system_file
    out = tmp_path / "L.json"
    assert main(["gkls", "build", "--system", str(path), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["vectorization"] == "column-stacking"
    built = matrix_from_json(payload["mat"])
    assert spectral_norm(built - liouvillian(sys).mat) <= 1e-12

    assert main_gkls(["check", "--map", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gkls_form"]["trace_annihilating"]
    assert report["gkls_form"]["conditionally_completely_positive"]


@pytest.fixture
def pair_files(tmp_path):
    strong = liouvillian(random_gkls(2, 2, seed=7))
    weak = liouvillian(random_gkls(2, 1, seed=8))
    sp, wp = tmp_path / "B.json", tmp_path / "C.json"
    dump_json(superoperator_to_json(strong), sp)
    dump_json(superoperator_to_json(weak), wp)
    return sp, wp


def test_zeno_split_error_bounds(tmp_path, pair_files, capsys):
    sp, wp = pair_files
    split_path = tmp_path / "split.json"
    assert main(["zeno", "split", "--strong", str(sp), "--weak", str(wp),
                 "--output", str(split_path)]) == 0
    payload = json.loads(split_path.read_text())
    assert "zeno_generator" in payload and "peripheral_projection" in payload

    assert main(["zeno", "error", "--split", str(split_path),
                 "--gamma", "100", "--t", "1.0", "--variant", "peripheral"]) == 0
    err = json.loads(capsys.readouterr().out)
    assert 0.0 <= err["error"] < 1.0

    csv_path = tmp_path / "bounds.csv"
    assert main(["zeno", "bounds", "--split", str(split_path),
                 "--gamma-grid", "10,100", "--t-grid", "0.5:1.5:3",
                 "--output", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("gamma,t,error_plain,error_peripheral")
    assert len(lines) == 1 + 2 * 3
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        assert cells[3] <= cells[4] + 1e-9  # peripheral error <= adiabatic bound
        assert cells[3] <= cells[5] + 1e-9  # ... <= cptp bound


@pytest.mark.parametrize("start, stop", [(0.01, 0.02), (0.02, 0.01)], ids=["ascending", "descending"])
def test_zeno_bounds_matches_sweep(tmp_path, pair_files, capsys, start, stop):
    # the grid's horizon (t 0.02, gamma 4) is not the BoundInputs default (2, 1000);
    # either direction of the t-grid gives rows ordered by (gamma, t)
    sp, wp = pair_files
    split_path, bounds_csv, sweep_csv = tmp_path / "split.json", tmp_path / "b.csv", tmp_path / "s.csv"
    assert main(["zeno", "split", "--strong", str(sp), "--weak", str(wp),
                 "--output", str(split_path)]) == 0
    assert main(["zeno", "bounds", "--split", str(split_path), "--gamma-grid", "1,2,3,4",
                 "--t-grid", f"{start}:{stop}:3", "--output", str(bounds_csv)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"strong": str(sp), "weak": str(wp)},
        "gamma_grid": [1, 2, 3, 4],
        "t_grid": {"start": start, "stop": stop, "count": 3},
        "output": str(sweep_csv),
    }))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert bounds_csv.read_text() == sweep_csv.read_text()


def test_sweep_refuses_an_unknown_model_key(tmp_path, pair_files, capsys):
    """Real strong and weak files beside a misspelt key: the key is refused, not ignored."""
    sp, wp = pair_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"strong": str(sp), "weak": str(wp), "wek": str(wp)},
                                    "t_grid": {"count": 2}, "output": str(tmp_path / "s.csv")}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown model keys ['wek']\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("grid", [
    ["--gamma-grid", "10,100", "--t-grid", "0.25:2"],
    ["--gamma-grid", "10,x", "--t-grid", "0.25:2:3"],
    ["--gamma-grid=-1,100", "--t-grid", "0.25:2:3"],
    ["--gamma-grid", "10,100", "--t-grid", "0.25:2:-3"],
])
def test_zeno_bounds_bad_grid_is_typed(tmp_path, pair_files, capsys, grid):
    sp, wp = pair_files
    split_path = tmp_path / "split.json"
    assert main(["zeno", "split", "--strong", str(sp), "--weak", str(wp),
                 "--output", str(split_path)]) == 0
    code = main(["zeno", "bounds", "--split", str(split_path), *grid,
                 "--output", str(tmp_path / "b.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("point", [["--gamma=-1", "--t", "1.0"], ["--gamma", "10", "--t=-1"],
                                   ["--gamma", "1e30", "--t", "1e10"]])
def test_zeno_error_bad_point_is_typed(tmp_path, pair_files, capsys, point):
    """A point outside the domain, or one whose t (gamma B + C) is out of the Pade kernel's range."""
    sp, wp = pair_files
    split_path = tmp_path / "split.json"
    assert main(["zeno", "split", "--strong", str(sp), "--weak", str(wp),
                 "--output", str(split_path)]) == 0
    capsys.readouterr()
    code = main(["zeno", "error", "--split", str(split_path), *point, "--variant", "plain"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and captured.out == ""


def test_zeno_error_overflowing_strong_exponential_is_one_line(tmp_path, capsys):
    """e^{gamma t Re b} of the three-level model's peripheral rounding overflows at gamma t = 1e20."""
    weak, strong = three_level_generators(ThreeLevelParams())
    sp, wp, split_path = tmp_path / "B.json", tmp_path / "C.json", tmp_path / "split.json"
    dump_json(superoperator_to_json(strong), sp)
    dump_json(superoperator_to_json(weak), wp)
    assert main(["zeno", "split", "--strong", str(sp), "--weak", str(wp), "--output", str(split_path)]) == 0
    capsys.readouterr()
    code = main(["zeno", "error", "--split", str(split_path), "--gamma", "1e6", "--t", "1e14"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "gamma t = 1e+20" in captured.err and "eigenvalue" in captured.err


def test_model_commands(tmp_path, capsys):
    assert main(["model", "three-level", "--emit", "generators"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["D"]["d"] == 3

    params = tmp_path / "p.json"
    params.write_text(json.dumps({"g": 2.0, "kappa": 0.5}))
    assert main(["model", "three-level", "--params", str(params),
                 "--emit", "analytic", "--t", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == 0.5

    assert main(["model", "dephasing-qubit", "--emit", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"H", "jump", "L", "expected_zeno", "expected_non_gkls"}


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = {
        "model": "three-level",
        "gamma_grid": [10, 100, 1000, 10000],
        "t_grid": {"start": 0.25, "stop": 2.0, "count": 4},
        "output": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_bound_violation"] <= 1e-9
    assert out.exists()


def test_sweep_without_output_prints_summary_then_csv(tmp_path, capsys):
    cfg = {"gamma_grid": [10, 100, 1000, 10000], "t_grid": {"start": 0.25, "stop": 2.0, "count": 3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    summary, end = json.JSONDecoder().raw_decode(out)
    want = run_sweep(SweepConfig.from_json(cfg))
    assert out[end:] == "\n" + want.csv_text
    assert {**summary, "wall_clock_s": 0} == {**want.summary, "wall_clock_s": 0}
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_check_spectral_command(system_file, capsys):
    _, path = system_file
    assert main(["check-spectral", "--system", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"]


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    dump_json(matrix_to_json(np.array([[1.0, 0.0], [0.0, 1.0]])), bad)
    # spectrum in the right half-plane: zeno split must refuse
    code = main(["zeno", "split", "--strong", str(bad), "--weak", str(bad),
                 "--output", str(tmp_path / "s.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


_MATRIX = matrix_to_json(np.diag([0.0, -1.0]))
_EMPTY = matrix_to_json(np.zeros((0, 0)))


@pytest.mark.parametrize("files, argv", [
    ({}, ["spectral", "--input", "{tmp}/absent.json", "--output", "{tmp}/out.json"]),
    ({"bad.json": "{not json"}, ["gkls", "check", "--map", "{tmp}/bad.json"]),
    ({"list.json": [1]}, ["sweep", "--config", "{tmp}/list.json"]),
    ({"split.json": {"weak": _MATRIX}}, ["zeno", "error", "--split", "{tmp}/split.json",
                                         "--gamma", "10", "--t", "1"]),
    ({"split.json": {"strong": _MATRIX}}, ["zeno", "bounds", "--split", "{tmp}/split.json",
                                           "--gamma-grid", "10,100", "--t-grid", "0.25:2:3",
                                           "--output", "{tmp}/b.csv"]),
    ({"a.json": _MATRIX}, ["spectral", "--input", "{tmp}/a.json", "--cluster-tol=-1",
                           "--output", "{tmp}/out.json"]),
    ({}, ["model", "three-level", "--emit", "analytic", "--t=-1"]),
    ({"p.json": {"g": 2.0, "omega": 1.0}}, ["model", "three-level", "--params", "{tmp}/p.json"]),
    ({"cfg.json": {"model": "three-level", "params": {"kapa": 1.0}}},
     ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"split.json": {"strong": _MATRIX, "weak": _MATRIX}},
     ["zeno", "bounds", "--split", "{tmp}/split.json", "--gamma-grid", "10,inf",
      "--t-grid", "0.25:2:3", "--output", "{tmp}/b.csv"]),
    ({"cfg.json": '{"model": "three-level", "t_grid": {"start": 0.25, "stop": Infinity, "count": 4}}'},
     ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"a.json": {"rows": 1, "cols": 1, "data": [[0]]}}, ["spectral", "--input", "{tmp}/a.json",
                                                         "--output", "{tmp}/out.json"]),
    ({"a.json": {"rows": 1, "cols": 1, "data": [["a", 0]]}}, ["spectral", "--input", "{tmp}/a.json",
                                                              "--output", "{tmp}/out.json"]),
    ({"a.json": {"rows": 1, "cols": 1, "data": [[None, 0]]}}, ["spectral", "--input", "{tmp}/a.json",
                                                               "--output", "{tmp}/out.json"]),
    ({"cfg.json": {"gamma_grid": ["a", 100]}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"gamma_grid": 10}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": {"count": "many"}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": [0.25, 2, 4]}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"variants": 3}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"params": {"g": "x"}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"p.json": {"g": "x"}}, ["model", "three-level", "--params", "{tmp}/p.json"]),
    ({"a.json": {"rows": -1, "cols": -1, "data": [[1, 0]]}}, ["spectral", "--input", "{tmp}/a.json",
                                                              "--output", "{tmp}/out.json"]),
    ({"cfg.json": '{"t_grid": {"count": Infinity}}'}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"variants": [["plain"]]}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"model": {"strong": 5, "weak": "w.json"}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"params": 5}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"s.json": {"d": "x", "H": _MATRIX}}, ["check-spectral", "--system", "{tmp}/s.json"]),
    ({"m.json": {"d": "x", "mat": _MATRIX}}, ["gkls", "check", "--map", "{tmp}/m.json"]),
    ({"p.json": '{"g": 1%s}' % ("0" * 400)}, ["model", "three-level", "--params", "{tmp}/p.json"]),
    ({"a.json": '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400)},
     ["spectral", "--input", "{tmp}/a.json", "--output", "{tmp}/out.json"]),
    ({"split.json": {"strong": _MATRIX, "weak": _MATRIX, "cluster_tol": "x"}},
     ["zeno", "error", "--split", "{tmp}/split.json", "--gamma", "10", "--t", "1"]),
    ({"split.json": '{"strong": %s, "weak": %s, "imag_tol": NaN}' % (json.dumps(_MATRIX), json.dumps(_MATRIX))},
     ["zeno", "error", "--split", "{tmp}/split.json", "--gamma", "10", "--t", "1"]),
    ({"split.json": {"strong": _MATRIX, "weak": _MATRIX, "cluster_tol": -1e-8}},
     ["zeno", "bounds", "--split", "{tmp}/split.json", "--gamma-grid", "10,100",
      "--t-grid", "0.25:2:3", "--output", "{tmp}/b.csv"]),
    ({"a.json": {"cols": 1, "data": [[0, 0]]}}, ["spectral", "--input", "{tmp}/a.json",
                                                 "--output", "{tmp}/out.json"]),
    ({"s.json": {"H": _MATRIX}}, ["check-spectral", "--system", "{tmp}/s.json"]),
    ({"m.json": {"d": 1, "vectorization": "row-stacking", "mat": _MATRIX}},
     ["gkls", "check", "--map", "{tmp}/m.json"]),
    ({"cfg.json": {"model": {"strong": "s.json"}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"model": "five-level"}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"m.json": {"d": -3, "mat": matrix_to_json(np.eye(9))}}, ["gkls", "check", "--map", "{tmp}/m.json"]),
    ({"m.json": {"d": 0, "mat": _EMPTY}}, ["gkls", "check", "--map", "{tmp}/m.json"]),
    ({"s.json": {"d": 0, "H": _EMPTY}}, ["check-spectral", "--system", "{tmp}/s.json"]),
    ({"s.json": {"d": 0, "H": _EMPTY}}, ["gkls", "build", "--system", "{tmp}/s.json", "--output", "{tmp}/g.json"]),
    ({"a.json": _EMPTY}, ["spectral", "--input", "{tmp}/a.json", "--output", "{tmp}/out.json"]),
    ({"a.json": _EMPTY}, ["zeno", "split", "--strong", "{tmp}/a.json", "--weak", "{tmp}/a.json",
                          "--output", "{tmp}/s.json"]),
    ({"m.json": {"d": 3.7, "mat": matrix_to_json(np.eye(9))}}, ["gkls", "check", "--map", "{tmp}/m.json"]),
    ({"cfg.json": {"gamma_grid": "19"}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"gamma_grid": [True, 10]}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"variants": ""}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": {"count": 2.7}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": {"count": True}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": {"count": "16"}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": {"start": "0.25"}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"params": {"g": True}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"p.json": {"g": True}}, ["model", "three-level", "--params", "{tmp}/p.json"]),
    ({"a.json": {"rows": 2.7, "cols": 2, "data": [[0, 0]] * 4}}, ["spectral", "--input", "{tmp}/a.json",
                                                                "--output", "{tmp}/out.json"]),
    ({"a.json": {"rows": True, "cols": 1, "data": [[0, 0]]}}, ["spectral", "--input", "{tmp}/a.json",
                                                             "--output", "{tmp}/out.json"]),
    ({"cfg.json": {"params": 0}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"params": []}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"gama_grid": [1, 2], "t_grid": {"count": 3}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
    ({"cfg.json": {"t_grid": {"cout": 3}}}, ["sweep", "--config", "{tmp}/cfg.json"]),
], ids=["missing-file", "malformed-json", "non-object-json", "split-without-strong",
        "split-without-weak", "negative-cluster-tol", "negative-t", "unknown-param", "unknown-sweep-param",
        "infinite-gamma", "infinite-t-stop", "one-number-entry", "string-entry", "null-entry",
        "string-gamma", "scalar-gamma-grid", "string-t-count", "list-t-grid", "scalar-variants",
        "string-sweep-param", "string-param", "negative-shape", "infinite-t-count", "nested-variants",
        "numeric-model-path", "scalar-params", "string-system-dimension", "string-map-dimension",
        "huge-param", "huge-entry", "string-split-tol", "nan-split-tol", "negative-split-tol",
        "matrix-without-rows", "system-without-d", "row-stacking-map", "files-model-without-weak",
        "unknown-model", "negative-map-dimension", "zero-map-dimension", "zero-system-dimension",
        "zero-system-build", "empty-spectral-matrix", "empty-split-matrix", "fractional-map-dimension",
        "string-gamma-grid", "bool-gamma", "string-variants", "fractional-t-count", "bool-t-count",
        "numeric-string-t-count", "numeric-string-t-start", "bool-sweep-param", "bool-param",
        "fractional-matrix-rows", "bool-matrix-rows", "zero-sweep-params", "empty-list-sweep-params",
        "unknown-sweep-key", "unknown-t-grid-key"])
def test_bad_input_is_one_typed_error_line(tmp_path, capsys, files, argv):
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_import_leaves_scipy_optimize_unloaded():
    """The CLI starts without scipy.optimize or scipy.special, which no module of the package imports."""
    src = str(Path(zeno_limits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, zeno_limits, zeno_limits.cli; "
            "print([name for name in ('scipy.optimize', 'scipy.special') if name in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
