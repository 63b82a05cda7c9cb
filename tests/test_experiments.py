import json

import numpy as np
import pytest

from zeno_limits import (
    SweepConfig,
    gkls_corpus,
    liouvillian,
    random_gkls,
    run_sweep,
    spectral_property_check,
    zeno,
)
from zeno_limits.errors import DimensionError, ValidationError
from zeno_limits.experiments import BOUNDS, CSV_COLUMNS, evaluate_grid, format_csv, summarize_grid
from zeno_limits.gkls import Superoperator, cptp_check, hamiltonian_superoperator
from zeno_limits.jsonio import dump_json, matrix_to_json, superoperator_to_json, write_text
from zeno_limits.linalg import expm
from zeno_limits.models import ThreeLevelParams, three_level_generators
from zeno_limits.spectral import decompose, peripheral_projection
from zeno_limits.zeno import VARIANTS, BoundInputs, adiabatic_error, zeno_split

from conftest import power_iteration_norm, taylor_expm


def small_config(**overrides):
    base = dict(gamma_grid=(10.0, 30.0, 100.0, 300.0, 1000.0), t_count=16,
                t_start=0.25, t_stop=2.0)
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_gamma_grid_must_increase(self):
        with pytest.raises(ValidationError):
            SweepConfig(gamma_grid=(10.0, 5.0))

    def test_peripheral_needs_positive_start(self):
        with pytest.raises(ValidationError):
            SweepConfig(t_start=0.0, variants=("peripheral",))

    @pytest.mark.parametrize("variants", [("plain",), ("plain", "peripheral"), ()])
    def test_log_spacing_needs_positive_start(self, variants):
        with pytest.raises(ValidationError, match="log"):
            SweepConfig(t_spacing="log", t_start=0.0, variants=variants, t_count=3, gamma_grid=(10.0,))

    def test_empty_gamma_grid_rejected(self):
        with pytest.raises(ValidationError, match="gamma_grid"):
            SweepConfig(gamma_grid=(), t_count=2)

    def test_negative_t_count_rejected(self):
        with pytest.raises(ValidationError, match="t_count"):
            SweepConfig(t_count=-1)

    def test_zero_t_count_gives_header_only_csv(self):
        res = run_sweep(small_config(t_count=0))
        assert res.rows == []
        assert res.csv_text == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("field, match", [
        ({"gamma_grid": (-1.0,)}, r"gamma_grid entry must be positive, got -1\.0"),
        ({"t_spacing": "cubic"}, "t_spacing"),
    ], ids=["negative-gamma", "cubic-spacing"])
    def test_bad_field_is_typed(self, field, match):
        with pytest.raises(ValidationError, match=match):
            SweepConfig(**field)

    def test_from_json_roundtrip(self):
        cfg = SweepConfig.from_json({
            "model": "three-level",
            "gamma_grid": [10, 100, 1000, 10000],
            "t_grid": {"start": 0.5, "stop": 1.5, "count": 4, "spacing": "log"},
            "variants": ["peripheral"],
            "bounds": ["cptp"],
        })
        assert cfg.gamma_grid == (10.0, 100.0, 1000.0, 10000.0)
        assert all(type(g) is float for g in cfg.gamma_grid)
        assert cfg.t_spacing == "log"
        assert np.all(np.diff(np.log(cfg.t_grid())) > 0)

    def test_from_json_reads_params_whenever_given(self):
        assert SweepConfig.from_json({"params": {}}).params == ThreeLevelParams()
        assert SweepConfig.from_json({"params": {"g": 2}}).params == ThreeLevelParams(g=2.0)
        assert SweepConfig.from_json({}).params is None


def _pair_split(name):
    if name == "three-level":
        weak, strong = three_level_generators(ThreeLevelParams())
    else:  # seeded D=16 GKLS pair
        strong, weak = liouvillian(random_gkls(4, 2, seed=61)), liouvillian(random_gkls(4, 1, seed=62))
    return zeno_split(strong.mat, weak.mat)


def _cells(grid):
    """The grid's cells as ``{column: value}`` dicts in (gamma, t) order: Python floats, None where not evaluated."""
    shape = grid["t"].shape
    assert all(grid[key] is None or grid[key].shape == shape for key in CSV_COLUMNS)
    return [{key: None if grid[key] is None else grid[key][ij].item() for key in CSV_COLUMNS}
            for ij in np.ndindex(shape)]


class TestEvaluateRow:
    """``evaluate_grid`` at one point."""

    @pytest.mark.parametrize("pair", ["three-level", "gkls-d16"])
    @pytest.mark.parametrize("variants", [("plain", "peripheral"), ("peripheral",)])
    def test_errors_equal_adiabatic_error_bitwise(self, pair, variants):
        split = _pair_split(pair)
        for gamma in (10.0, 1000.0):
            for t in (0.25, 1.3):
                grid = evaluate_grid(split, (gamma,), (t,), variants)
                for variant in ("plain", "peripheral"):
                    if variant in variants:
                        assert grid[f"error_{variant}"][0, 0] == adiabatic_error(split, gamma, t, variant)
                    else:
                        assert grid[f"error_{variant}"] is None
                assert all(grid[f"bound_{name}"] is None for name in BOUNDS)

    def test_requested_bounds_only(self):
        split = _pair_split("three-level")
        inputs = BoundInputs.from_split(split, t_max=0.5, gamma_max=100.0)
        grid = evaluate_grid(split, (100.0,), (0.5,), (), ("cptp",))
        assert list(grid) == list(CSV_COLUMNS)
        assert grid["gamma"].shape == grid["t"].shape == grid["bound_cptp"].shape == (1, 1)
        assert grid["bound_cptp"][0, 0] == BOUNDS["cptp"](inputs, 100.0, 0.5)
        assert grid["error_plain"] is grid["error_peripheral"] is grid["bound_adiabatic"] is None


def _bits(x):
    return None if x is None else float(x).hex()


def _jordan_split():
    """B = 0 + J2(-1): a decaying Jordan block, so e^{t gamma B} takes the block exponential."""
    b = np.zeros((3, 3), dtype=complex)
    b[1, 1] = b[2, 2] = -1.0
    b[1, 2] = 1.0
    c = np.random.default_rng(71).standard_normal((3, 3)) * (1 + 0.5j)
    return zeno_split(b, c)


def _merged_split():
    """B = diag(0, 1e-8 i, -1): 0 and 1e-8 i merge into one peripheral cluster
    whose T_kk - b_k I is nonzero, so e^{t gamma B} needs the block exponential."""
    b = np.diag([0.0, 1e-8j, -1.0])
    c = np.random.default_rng(72).standard_normal((3, 3)) * (1 - 0.5j)
    split = zeno_split(b, c)
    assert len(split.decomposition.peripheral_clusters) == 1
    return split


class TestErrorOracle:
    """Both error columns against a Taylor exponential and a power-iteration norm."""

    @pytest.mark.parametrize("pair", ["three-level", "gkls-d16", "jordan", "merged"])
    def test_error_columns_match_the_taylor_oracle(self, pair):
        special = {"jordan": _jordan_split, "merged": _merged_split}
        split = special[pair]() if pair in special else _pair_split(pair)
        gammas, t_grid = (10.0, 100.0, 1000.0), (0.25, 1.0, 2.0)
        for row in _cells(evaluate_grid(split, gammas, t_grid)):
            gamma, t = row["gamma"], row["t"]
            lhs = taylor_expm(gamma * split.b + split.c, t)
            rhs = taylor_expm(split.b, gamma * t) @ taylor_expm(split.c_z, t)
            assert abs(row["error_plain"] - power_iteration_norm(lhs - rhs)) <= 1e-10
            assert abs(row["error_peripheral"] - power_iteration_norm(lhs - rhs @ split.p_phi)) <= 1e-10


class TestEvaluateGrid:
    """Every grid cell equals the per-point ``adiabatic_error`` or ``bound_*`` call bit for bit."""

    SUBSETS = [(("plain", "peripheral"), tuple(BOUNDS)), (("plain",), ("adiabatic",)),
               (("peripheral",), ("cptp", "simplified")), ((), ("simplified",)), (("peripheral",), ())]

    @pytest.mark.parametrize("pair", ["three-level", "gkls-d16"])
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_cells_equal_per_point_calls(self, pair, spacing):
        split = _pair_split(pair)
        t_grid = SweepConfig(t_start=0.05, t_stop=2.0, t_count=7, t_spacing=spacing).t_grid()
        gammas = (10.0, 100.0, 1000.0)
        inputs = BoundInputs.from_split(split, t_max=float(t_grid[-1]), gamma_max=gammas[-1])
        for variants, bounds in self.SUBSETS:
            grid = evaluate_grid(split, gammas, t_grid, variants, bounds)
            assert list(grid) == list(CSV_COLUMNS)
            rows = _cells(grid)
            assert [(row["gamma"], row["t"]) for row in rows] == [(g, t) for g in gammas for t in t_grid]
            for row in rows:
                gamma, t = row["gamma"], row["t"]
                for variant in ("plain", "peripheral"):
                    want = adiabatic_error(split, gamma, t, variant) if variant in variants else None
                    assert _bits(row[f"error_{variant}"]) == _bits(want)
                for name, bound in BOUNDS.items():
                    want = bound(inputs, gamma, t) if name in bounds else None
                    assert _bits(row[f"bound_{name}"]) == _bits(want)

    @pytest.mark.parametrize("pair, gamma_count, t_count, chunks", [
        ("three-level", 3, 6, 1),  # an acceptance grid: every gamma in one chunk
        ("gkls-d16", 3, 6, 1),
        ("three-level", 40, 6, 3),  # 16 gammas of 6 times per chunk at D = 9
        ("three-level", 5, 64, 5),  # the reference sweep: 64 times at D = 9 fill a chunk
    ])
    def test_one_kernel_call_per_chunk_of_gammas(self, monkeypatch, pair, gamma_count, t_count, chunks):
        """Each chunk of gammas takes one e^{t(gamma B + C)} and one e^{t gamma B} stack; e^{t C_Z} is one more."""
        split = _pair_split(pair)
        kernel, strong = zeno._expm_stack, zeno.spectral_expm
        kernel_sizes, strong_sizes = [], []

        def counted_kernel(stack):
            kernel_sizes.append(stack.size)
            return kernel(stack)

        def counted_strong(dec, t, *args):
            strong_sizes.append(np.size(t))
            return strong(dec, t, *args)

        monkeypatch.setattr(zeno, "_expm_stack", counted_kernel)
        monkeypatch.setattr(zeno, "spectral_expm", counted_strong)
        grid = evaluate_grid(split, np.geomspace(10.0, 1e4, gamma_count), np.linspace(0.25, 2.0, t_count))
        assert grid["error_plain"].shape == grid["error_peripheral"].shape == (gamma_count, t_count)
        assert len(kernel_sizes) == chunks + 1
        assert len(strong_sizes) == chunks and sum(strong_sizes) == gamma_count * t_count
        assert max(kernel_sizes) <= zeno._M_STACK_ENTRIES

    def test_empty_t_grid_gives_header_only_csv(self):
        split = _pair_split("three-level")
        grid = evaluate_grid(split, (10.0, 100.0), np.array([]), bounds=tuple(BOUNDS))
        assert all(grid[key].shape == (2, 0) for key in CSV_COLUMNS)
        assert format_csv(grid) == ",".join(CSV_COLUMNS) + "\n"
        assert summarize_grid(grid) == {"slope": None, "slope_full_grid": None, "max_bound_violation": None,
                                        "sup_errors": [], "notice": None}

    @pytest.mark.parametrize("patched, variants, bounds, match", [
        ("expm", ("peripherl",), (), r"unknown variants \['peripherl'\]"),
        ("expm", "plain", (), "unknown variants"),
        ("expm", VARIANTS, ("cptq",), r"unknown bounds \['cptq'\]"),
        ("_expm_stack", ("peripherl",), (), r"unknown variants \['peripherl'\]"),
        ("_expm_stack", VARIANTS, ("cptq",), r"unknown bounds \['cptq'\]"),
    ], ids=["misspelt-variant", "bare-string-variants", "misspelt-bound",
            "misspelt-variant-kernel", "misspelt-bound-kernel"])
    def test_unknown_names_are_typed_before_any_work(self, monkeypatch, patched, variants, bounds, match):
        split = _pair_split("three-level")
        monkeypatch.setattr(f"zeno_limits.zeno.{patched}", None)  # any evaluation would fail untyped
        with pytest.raises(ValidationError, match=match):
            evaluate_grid(split, (10.0,), (0.5,), variants, bounds)

    def test_one_check_serves_every_entry_point(self):
        split = _pair_split("three-level")
        messages = []
        for call in (lambda: evaluate_grid(split, (10.0,), (0.5,), ("sideways",)),
                     lambda: adiabatic_error(split, 10.0, 0.5, "sideways"),
                     lambda: SweepConfig(variants=("sideways",))):
            with pytest.raises(ValidationError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["unknown variants ['sideways']"] * 3

    def test_negative_gamma_or_t_is_typed(self):
        split = _pair_split("three-level")
        with pytest.raises(ValidationError, match="gamma"):
            evaluate_grid(split, (10.0, -1.0), np.linspace(0.25, 2.0, 3))
        with pytest.raises(ValidationError, match="t must"):
            evaluate_grid(split, (10.0,), np.array([0.5, -0.25]))
        # checked before M is measured over the grid, which a non-finite horizon would poison
        with pytest.raises(ValidationError, match="gamma must be positive and finite"):
            evaluate_grid(split, (10.0, np.inf), np.linspace(0.25, 2.0, 3), bounds=tuple(BOUNDS))
        with pytest.raises(ValidationError, match="t must be nonnegative and finite"):
            evaluate_grid(split, (10.0,), np.array([0.5, np.nan]), bounds=tuple(BOUNDS))

    def test_a_repeated_gamma_is_summarized_once(self):
        """A gamma given twice has one sup, over all of its rows, so the slopes fit the distinct gammas."""
        split, ts = _pair_split("three-level"), np.linspace(0.25, 2.0, 8)
        repeated = summarize_grid(evaluate_grid(split, (10.0, 10.0, 100.0, 1000.0, 1e4), ts, ("peripheral",)))
        assert repeated == summarize_grid(evaluate_grid(split, (10.0, 100.0, 1000.0, 1e4), ts, ("peripheral",)))
        assert [g for g, _ in repeated["sup_errors"]] == [10.0, 100.0, 1000.0, 1e4]

    def test_rows_sorted_and_constants_measured_over_the_grid(self):
        split = _pair_split("three-level")
        gammas, t_grid = (10.0, 100.0), (0.25, 1.0, 2.0)
        grid = evaluate_grid(split, gammas[::-1], np.array([2.0, 0.25, 1.0]), bounds=tuple(BOUNDS))
        rows = _cells(grid)
        assert [(row["gamma"], row["t"]) for row in rows] == [(g, t) for g in gammas for t in t_grid]
        assert rows == _cells(evaluate_grid(split, gammas, t_grid, bounds=tuple(BOUNDS)))
        inputs = BoundInputs.from_split(split, t_max=2.0, gamma_max=100.0)
        for row in rows:
            for name, bound in BOUNDS.items():
                assert row[f"bound_{name}"] == bound(inputs, row["gamma"], row["t"])


class TestRunSweep:
    @pytest.mark.parametrize("model", ["three-level", "dephasing-qubit"])
    def test_model_sweep(self, model):
        res = run_sweep(small_config(model=model))
        header = res.csv_text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(res.rows) == 5 * 16
        # errors decrease with gamma and bounds are never beaten
        sups = dict((g, e) for g, e in res.summary["sup_errors"])
        values = [sups[g] for g in (10.0, 30.0, 100.0, 300.0, 1000.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert res.summary["max_bound_violation"] <= 1e-9
        assert -1.15 <= res.summary["slope"] <= -0.85

    def test_reproducible_csv(self):
        a = run_sweep(small_config(t_count=3, gamma_grid=(10.0, 100.0, 1000.0, 10000.0)))
        b = run_sweep(small_config(t_count=3, gamma_grid=(10.0, 100.0, 1000.0, 10000.0)))
        assert a.csv_text == b.csv_text

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_grid_direction_does_not_change_the_endpoint_rows(self, spacing):
        # M is sampled up to the grid's largest t, whichever end of the grid holds it
        def endpoint_rows(start, stop):
            cfg = small_config(t_start=start, t_stop=stop, t_count=4, t_spacing=spacing,
                               gamma_grid=(10.0, 100.0, 1000.0))
            return {(row["gamma"], row["t"]): [_bits(row[col]) for col in CSV_COLUMNS]
                    for row in run_sweep(cfg).rows if row["t"] in (0.25, 2.0)}

        up = endpoint_rows(0.25, 2.0)
        assert len(up) == 6
        assert up == endpoint_rows(2.0, 0.25)

    def test_degenerate_zero_weak_generator(self, tmp_path):
        sys = random_gkls(2, 1, seed=55)
        strong = liouvillian(sys)
        zero = {"d": 2, "provenance": "full", "vectorization": "column-stacking",
                "mat": matrix_to_json(np.zeros((4, 4)))}
        strong_path = tmp_path / "strong.json"
        weak_path = tmp_path / "weak.json"
        dump_json(superoperator_to_json(strong), strong_path)
        dump_json(zero, weak_path)
        cfg = SweepConfig(model="files", strong_path=str(strong_path),
                          weak_path=str(weak_path),
                          gamma_grid=(10.0, 30.0, 100.0, 300.0, 1000.0),
                          t_count=3, variants=("plain",), bounds=())
        res = run_sweep(cfg)
        for row in res.rows:
            assert row["error_plain"] <= 1e-12
        assert res.summary["slope"] is None
        assert "degenerate-data" in res.summary["notice"]

    @pytest.mark.parametrize("scale, fitted", [(1e-9, True), (1e-12, False)], ids=["small-errors", "roundoff"])
    def test_roundoff_threshold_of_the_slope_fit(self, scale, fitted):
        """Sup errors near 1e-9 over four gammas are fitted; at most DEGENERATE_ERROR = 1e-12 they are refused."""
        gammas = (10.0, 100.0, 1000.0, 10000.0)
        grid = {**dict.fromkeys(CSV_COLUMNS), "gamma": np.array(gammas)[:, None], "t": np.ones((4, 1)),
                "error_plain": scale * 10.0 / np.array(gammas)[:, None]}
        summary = summarize_grid(grid)
        if fitted:
            assert summary["notice"] is None and summary["slope"] == pytest.approx(-1.0)
        else:
            assert summary["slope"] is None
            assert summary["notice"] == "degenerate-data: all errors at roundoff, slope fit refused"

    def test_no_variants_gives_no_slope_notice_or_violation(self):
        res = run_sweep(small_config(t_count=3, variants=()))
        assert len(res.rows) == 15
        assert all(row["error_plain"] is row["error_peripheral"] is None for row in res.rows)
        assert all(row[f"bound_{name}"] is not None for row in res.rows for name in BOUNDS)
        assert res.summary["slope"] is res.summary["notice"] is res.summary["max_bound_violation"] is None
        assert res.summary["sup_errors"] == []

    def test_output_files_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_config(t_count=3, output=str(out))
        res = run_sweep(cfg)
        assert out.read_text() == res.csv_text
        summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text())
        assert summary["slope"] == pytest.approx(res.summary["slope"])

    def test_shorter_output_replaces_a_longer_one_through_a_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("x" * 100_000)
        summary = tmp_path / "sweep.csv.summary.json"
        summary.write_text("y" * 100_000)
        out = tmp_path / "sweep.csv"
        out.symlink_to(target)
        res = run_sweep(small_config(t_count=3, output=str(out)))
        assert out.is_symlink() and target.read_text() == res.csv_text  # no stale tail
        assert json.loads(summary.read_text())["gamma_grid"] == list(res.summary["gamma_grid"])


class TestWriteText:
    """``jsonio.write_text``, the package's one file writer, rewrites in place."""

    def test_shorter_text_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, "a longer first text\n")
        write_text(path, "short\n")
        assert path.read_bytes() == b"short\n"

    def test_symlink_and_permissions_are_kept(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("{}" * 1000)
        target.chmod(0o640)
        link.symlink_to(target)
        dump_json({"a": 1}, link)
        assert link.is_symlink() and json.loads(target.read_text()) == {"a": 1}
        assert target.stat().st_mode & 0o777 == 0o640


class TestSpectralPropertyCheck:
    def test_corpus_instances_pass(self):
        for sys in gkls_corpus()[:6]:
            rep = spectral_property_check(sys)
            assert rep.all_pass, rep.as_dict()

    def test_eigenvalues_and_peripheral_map_from_the_decomposition(self):
        """max_real_part and the Choi minima agree with eigvals and a Pade e^{t L_phi} P_phi."""
        for sys in gkls_corpus()[:6]:
            mat = liouvillian(sys).mat
            norm = np.linalg.norm(mat, 2)
            rep = spectral_property_check(sys)
            assert abs(rep.details["max_real_part"] - np.linalg.eigvals(mat).real.max()) <= 1e-12 * norm
            dec = decompose(mat)
            l_phi = sum(c.eigenvalue * c.projection for c in dec.peripheral_clusters)
            p_phi = sum(c.projection for c in dec.peripheral_clusters)
            for t in (-1.0, 1.0):
                pade = cptp_check(Superoperator(sys.d, expm(l_phi, t) @ p_phi, "projected"))
                assert abs(rep.details[f"peripheral_map_min_choi_t={t}"]
                           - pade.min_choi_eigenvalue) <= 1e-12 * norm

    def test_system_superoperator_and_matrix_give_one_report(self):
        sys = random_gkls(3, 2, seed=93)
        want = spectral_property_check(sys).as_dict()
        assert spectral_property_check(liouvillian(sys)).as_dict() == want
        assert spectral_property_check(liouvillian(sys).mat).as_dict() == want
        with pytest.raises(DimensionError):
            spectral_property_check(np.zeros((3, 3)))

    def test_unitary_generator(self):
        sys = random_gkls(3, 0, seed=91)
        rep = spectral_property_check(sys)
        assert rep.all_pass
        # peripheral projection is the identity here
        assert rep.details["projection_commutator_norm"] <= 1e-10

    def test_corrupted_generator_fails_left_half_plane(self):
        sys = random_gkls(3, 2, seed=92)
        lio = liouvillian(sys).mat
        ham = hamiltonian_superoperator(sys.hamiltonian)
        corrupted = ham - (lio - ham)  # dissipator sign flipped
        rep = spectral_property_check(corrupted)
        assert not rep.left_half_plane
        assert not rep.all_pass

    def test_defective_peripheral_cluster_reported(self):
        gen = np.zeros((4, 4), dtype=complex)
        gen[0, 1] = 1.0  # a Jordan block at eigenvalue 0
        gen[2, 2] = gen[3, 3] = -1.0
        rep = spectral_property_check(gen)
        assert not rep.peripheral_semisimple
        assert "defective" in rep.details["decomposition_error"]

    def test_a_projection_off_by_1e_6_does_not_commute(self, monkeypatch):
        """The commutator verdict holds ||[L, P_phi]|| to 1e-8 ||L||: a P_phi moved by 1e-6 fails it."""
        sys = random_gkls(3, 2, seed=93)
        mat = liouvillian(sys).mat
        shift = 1e-6 * np.outer(np.arange(9.0), np.ones(9)) / 9  # ||[L, shift]|| is about 1e-6 ||L||
        monkeypatch.setattr("zeno_limits.experiments.peripheral_projection",
                            lambda dec: peripheral_projection(dec) + shift)
        rep = spectral_property_check(sys)
        assert 1e-8 < rep.details["projection_commutator_norm"] / np.linalg.norm(mat, 2) < 1e-4
        assert not rep.projection_commutes

    def test_untyped_failure_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a package error")

        monkeypatch.setattr("zeno_limits.experiments.decompose", broken)
        with pytest.raises(RuntimeError, match="not a package error"):
            spectral_property_check(random_gkls(2, 1, seed=93))
