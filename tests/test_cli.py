import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from equimeasure import analytics, cli, geometry, kernel, solver
from equimeasure.cli import (
    FIGURE_NAMES,
    ConfigError,
    RunConfig,
    SolutionCache,
    main,
    solve_all,
    write_figure,
)
from equimeasure.geometry import GenerationTooLarge, IfsSystem, generate_bands, validate
from equimeasure.kernel import QuadratureRule, gap_jacobian_row
from tests.conftest import (X_STAR, forbid_lapack, frame_rules, nan_in_gap_0,
                            solve_generations)

RECORD_KEYS = ["generation", "config", "lambda", "residuals", "initial_residuals",
               "iterations_used", "omega"]

BASE_CONFIG = {
    "ifs": [[1 / 3, -1.0], [1 / 3, 1.0]],
    "n_max": 3,
    "quadrature_order": 256,
    "residual_tol": 1e-12,
    "sample_count": 64,
}


def write_config(tmp_path, **overrides):
    cfg = {**BASE_CONFIG, "output_dir": str(tmp_path / "out"), **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _solver_must_not_run(*args, **kwargs):
    raise AssertionError("solve_generation called on a warm cache")


def _count_solves(monkeypatch) -> list:
    """The generations that ``solver.solve_generation`` is called for."""
    calls, original = [], solver.solve_generation

    def counting(initial, *args, **kwargs):
        calls.append(initial.bands.generation)
        return original(initial, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_generation", counting)
    return calls


def _series_must_not_build(vars):
    raise AssertionError("band series built on a warm cache")


def _count_series(monkeypatch) -> list:
    """The generations whose band series ``kernel._chebyshev_series`` builds."""
    calls, original = [], kernel._chebyshev_series

    def counting(vars):
        calls.append(vars.bands.generation)
        return original(vars)

    monkeypatch.setattr(kernel, "_chebyshev_series", counting)
    return calls


def m_ary_line_id(n: int, g: int, n_maps: int) -> str:
    """Line id of gap ``g`` of generation ``n`` by the M-ary layout: climb
    from an old gap to its parent ``(g + 1) // M - 1`` until the gap is new."""
    while n > 1 and (g + 1) % n_maps == 0:
        g = (g + 1) // n_maps - 1
        n -= 1
    return f"{n}:{g}"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunConfig:
    def test_valid_config(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert cfg.n_max == 3
        assert cfg.quadrature_order == 256
        assert cfg.ifs.n_maps == 2

    def test_errors_are_aggregated(self, tmp_path):
        path = write_config(tmp_path, ifs=[[1.2, -1.0], [1 / 3, 1.0]],
                            n_max=0, residual_tol=-1.0, typo_key=1)
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(path)
        text = str(err.value)
        assert "ifs" in text and "n_max" in text and "residual_tol" in text
        assert "typo_key" in text
        assert len(err.value.problems) >= 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(tmp_path / "nope.json")

    @pytest.mark.parametrize("data", [
        pytest.param(b'\xff{"n_max": 2}', id="not-utf8"),
        pytest.param(b"[" * 200_000, id="nested-too-deep"),
        pytest.param(b'{"n_max": ' + b"9" * 5000 + b"}", id="integer-too-long")])
    def test_unreadable_configs_exit_2_with_one_line(self, tmp_path, capsys, data):
        # a byte that is not UTF-8, nesting past the recursion limit and an
        # integer past the int-from-string digit limit: the decoder raises
        # UnicodeDecodeError, RecursionError and ValueError
        path = tmp_path / "config.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="cannot read config"):
            RunConfig.from_file(path)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read config" in err

    @pytest.mark.parametrize("text, message", [
        pytest.param("[1, 2]", "config must be a JSON object", id="json-array"),
        pytest.param('{"ifs": [[0.3333333333333333, -1.0], [0.3333333333333333, 1.0]]}',
                     "'n_max' is required", id="no-n_max")])
    def test_configs_of_the_wrong_shape_exit_2_with_one_line(self, tmp_path, capsys, text,
                                                             message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "Traceback" not in err

    def test_a_config_is_read_as_utf8_under_any_locale(self, tmp_path):
        # under the C locale, without UTF-8 mode, text files default to ASCII
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps({**BASE_CONFIG, "output_dir": "\u00e4"},
                                    ensure_ascii=False).encode())
        src = str(Path(cli.__file__).resolve().parents[1])
        script = ("import sys; from equimeasure.cli import RunConfig; "
                  "print(ascii(RunConfig.from_file(sys.argv[1]).output_dir.name))")
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(path)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "LC_ALL": "C", "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stdout == "'\\xe4'\n", proc.stderr

    def test_problems_are_reported_on_one_line(self, tmp_path, capsys):
        assert str(ConfigError(["a", "b"])) == "invalid configuration: a; b"
        path = write_config(tmp_path, n_max=0, residual_tol=-1.0)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "'n_max'" in err and "'residual_tol'" in err

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUIMEASURE_OUTDIR", str(tmp_path / "elsewhere"))
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert cfg.output_dir == tmp_path / "elsewhere"

    def test_fingerprint_tracks_ifs_order_tol(self, tmp_path):
        # the settings a record is reused under: its numerics
        base = RunConfig.from_file(write_config(tmp_path))
        same = RunConfig.from_file(write_config(tmp_path, n_max=5, sample_count=7))
        assert base.numerics == same.numerics
        for change in ({"residual_tol": 1e-10}, {"ifs": [[1 / 3, -1.0], [0.3, 1.0]]}):
            other = RunConfig.from_file(write_config(tmp_path, **change))
            assert other.numerics != base.numerics
        # the point-path order leaves the records untouched
        analytics_only = RunConfig.from_file(write_config(tmp_path, quadrature_order=512))
        assert analytics_only.numerics == base.numerics

    def test_fingerprint_names_the_order_rule(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        base = RunConfig.from_file(path).numerics
        monkeypatch.setattr(kernel, "ORDER_RULE", "uniform")
        assert RunConfig.from_file(path).numerics != base

    def test_numerics_are_the_ifs_tolerances_and_order_rule(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, residual_tol=1e-13))
        assert cfg.numerics == {"ifs": [[1 / 3, -1.0], [1 / 3, 1.0]],
                                "residual_tol": 1e-13, "step_clamp": solver.STEP_CLAMP,
                                "start_rule": solver.START_RULE,
                                "gmres_rtol": solver._GMRES_RTOL,
                                "numerics": kernel.ORDER_RULE,
                                "prod_block": kernel._PROD_BLOCK,
                                "dot_piece": kernel._DOT_PIECE}
        assert cfg.residual_tol == 1e-13

    @pytest.mark.parametrize("module, name, value", [
        (kernel, "_PROD_BLOCK", 128), (solver, "_GMRES_RTOL", 1e-12),
        (kernel, "_DOT_PIECE", 4096)])
    def test_numerics_name_each_constant_that_moves_a_result(self, tmp_path, monkeypatch,
                                                             module, name, value):
        path = write_config(tmp_path)
        base = RunConfig.from_file(path).numerics
        monkeypatch.setattr(module, name, value)
        assert RunConfig.from_file(path).numerics != base

    def test_fingerprint_keeps_the_stored_records_valid(self, tmp_path, monkeypatch):
        # records store exactly this config text, so they are reused as they
        # are; records of midpoint starts, whose config named no start rule,
        # hold other initial residuals and are solved again once, as are
        # records whose config named no product block, GMRES tolerance or
        # dot piece
        path = write_config(tmp_path)
        text = ('{"dot_piece": 8192, "gmres_rtol": 1e-14, '
                '"ifs": [[0.3333333333333333, -1.0], [0.3333333333333333, 1.0]], '
                f'"numerics": "{kernel.ORDER_RULE}", "prod_block": 256, "residual_tol": 1e-12, '
                f'"start_rule": "{solver.START_RULE}", "step_clamp": 1e-09}}')
        stored = json.loads(text)
        assert RunConfig.from_file(path).numerics == stored
        old = text.replace(f'"start_rule": "{solver.START_RULE}", ', "")
        assert RunConfig.from_file(path).numerics != json.loads(old)
        unnamed = {k: v for k, v in stored.items()
                   if k not in ("dot_piece", "gmres_rtol", "prod_block")}
        assert RunConfig.from_file(path).numerics != unnamed
        monkeypatch.setattr(solver, "STEP_CLAMP", 1e-8)
        assert RunConfig.from_file(path).numerics != stored
        monkeypatch.setattr(solver, "STEP_CLAMP", 1e-9)
        monkeypatch.setattr(solver, "START_RULE", "midpoint")
        assert RunConfig.from_file(path).numerics != stored

    @pytest.mark.parametrize("key, value", [
        ("point_x", True), ("point_x", "0.5"),
        ("n_max", 3.7), ("n_max", "4"), ("n_max", True), ("quadrature_order", 256.0),
        ("sample_count", "64"), ("residual_tol", "1e-12"), ("output_dir", 5),
        # ids fixed by hand, so that the reports of earlier runs still name these
        pytest.param("x_grid", {"lo": -1.0, "hi": 1.0, "count": 5.0}, id="x_grid-value14"),
        pytest.param("x_grid", {"lo": "-1", "hi": 1.0, "count": 5}, id="x_grid-value15"),
        pytest.param("x_grid", {"lo": -1.0, "hi": True, "count": 5}, id="x_grid-value16"),
        # json also reads NaN, Infinity and integers beyond the float range
        pytest.param("ifs", [[1 / 3, math.nan], [1 / 3, 1.0]], id="ifs-nan"),
        pytest.param("ifs", [[1 / 3, -math.inf], [1 / 3, 1.0]], id="ifs-inf"),
        pytest.param("ifs", [[1 / 3, -(10**400)], [1 / 3, 1.0]], id="ifs-long"),
        pytest.param("ifs", [["0.3333333333333333", "-1"], [1 / 3, 1.0]], id="ifs-string"),
        pytest.param("ifs", [[1 / 3, -1.0], [1 / 3, True]], id="ifs-bool"),
        pytest.param("residual_tol", math.inf, id="residual_tol-inf"),
        pytest.param("residual_tol", 10**400, id="residual_tol-long"),
        pytest.param("point_x", math.nan, id="point_x-nan")])
    def test_values_of_the_wrong_json_type_are_rejected(self, tmp_path, capsys, key,
                                                        value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(path)
        assert len(err.value.problems) == 1 and repr(key) in err.value.problems[0]
        assert main(["solve", "--config", str(path)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["quadrature_order", "sample_count", "x_grid"])
    def test_point_counts_are_capped(self, tmp_path, capsys, monkeypatch, key):
        # a count above MAX_POINTS is rejected before any solve: 10**20 would
        # solve every generation and then fail in numpy with a traceback
        def config(count):
            value = {"lo": -1.0, "hi": 1.0, "count": count} if key == "x_grid" else count
            return write_config(tmp_path, n_max=4, **{"sample_count": 32, key: value})

        assert RunConfig.from_file(config(cli.MAX_POINTS))  # the cap itself is taken
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        for count in (cli.MAX_POINTS + 1, 10**20):
            assert main(["capacity", "--config", str(config(count))]) == 2
            err = capsys.readouterr().err
            assert repr(key) in err and f"{cli.MAX_POINTS}" in err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("max_iterations", 200), ("step_clamp", 1e-9),
                                            ("fit_window", 4), ("cache", True)])
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, monkeypatch, key,
                                               value):
        # the iteration budget and the step clamp are solver constants, every
        # capacity fit takes MIN_CAPACITY_GENERATIONS, and records are always
        # reused: a config naming one of them, even at its former default, is
        # rejected before any solve
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        path = write_config(tmp_path, **{key: value})
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"unknown key {key!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("evaluator", "log"), ("auto_refine", False)])
    def test_solver_reference_switches_are_not_config_keys(self, tmp_path, capsys, key,
                                                           value):
        # the former solver switches; tests swap the oracles in (tests/conftest.py)
        path = write_config(tmp_path, **{key: value})
        assert main(["solve", "--config", str(path)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_depth_limited_by_width_floor(self, tmp_path):
        # 0.05**9 ~ 2e-12 of the hull is resolvable, 0.05**10 ~ 1e-13 is not
        pairs = [[0.05, -1.0], [0.05, 1.0]]
        assert RunConfig.from_file(write_config(tmp_path, ifs=pairs, n_max=9)).n_max == 9
        with pytest.raises(ConfigError) as err:
            RunConfig.from_file(write_config(tmp_path, ifs=pairs, n_max=10))
        assert "n_max" in str(err.value)
        ifs = validate(IfsSystem.from_pairs(pairs))
        assert generate_bands(ifs, 9).n_bands == 2**9
        with pytest.raises(GenerationTooLarge):
            generate_bands(ifs, 10)

    def test_floor_depth_of_the_asym_system_rejected_before_solving(self, tmp_path,
                                                                     capsys, monkeypatch):
        # 0.1**13 rounds to just above the floor, but a band of generation 13
        # is computed below it: rejected as generate_bands rejects it
        monkeypatch.setattr(cli, "solve_all",
                            lambda cfg: pytest.fail("solve started for a rejected depth"))
        pairs = [[0.8, -1.0], [0.1, 1.0]]
        assert 0.1**13 >= 1e-13
        with pytest.raises(GenerationTooLarge):
            generate_bands(validate(IfsSystem.from_pairs(pairs)), 13)
        assert RunConfig.from_file(write_config(tmp_path, ifs=pairs, n_max=12)).n_max == 12
        path = write_config(tmp_path, ifs=pairs, n_max=13)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'n_max' 13" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pairs", [[[0.3, 0.0], [0.3, 5e-324]],
                                       [[0.3, -1e-320], [0.3, 1e-320]]])
    def test_subnormal_hulls_rejected_before_solving(self, tmp_path, capsys, monkeypatch,
                                                     pairs):
        # the first used to end in a traceback (its bands were not disjoint),
        # the second to solve on band ends quantised to multiples of 5e-324
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        assert main(["solve", "--config", str(write_config(tmp_path, ifs=pairs))]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "smallest normal double" in err
        assert not (tmp_path / "out").exists()

    def test_band_cap_rejects_without_building_the_generation(self, tmp_path):
        # ternary n = 20 has 2**20 bands, above MAX_BANDS: the count alone
        # rejects it, with no band array allocated (parent: 42 MB traced)
        path = write_config(tmp_path, n_max=20)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="'n_max' 20 rejected.*MAX_BANDS"):
                RunConfig.from_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_depth_rejected_with_exit_code(self, tmp_path, capsys, monkeypatch):
        # a rejected depth must never start: solving n=40 would not finish
        monkeypatch.setattr(cli, "solve_all",
                            lambda cfg: pytest.fail("solve started for a rejected depth"))
        path = write_config(tmp_path, n_max=40)
        assert main(["solve", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "n_max" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_writes_records(self, tmp_path, capsys):
        code = main(["solve", "--config", str(write_config(tmp_path))])
        assert code == 0
        out = tmp_path / "out"
        for n in (1, 2, 3):
            record = json.loads((out / f"gen_{n}.json").read_text())
            # what the solver produced and nothing derived: no bands, gaps,
            # genealogy or Omega
            assert list(record) == RECORD_KEYS
            assert record["generation"] == n
            assert len(record["lambda"]) == 2**n - 1
            assert len(record["omega"]) == 2**n
            assert max(record["residuals"], default=0.0) < 1e-12
        assert not list(out.glob("*.tmp-*"))

    def test_cache_reuse_and_roundtrip(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        cfg = RunConfig.from_file(path)
        first = [(b, s) for b, s in solve_all(cfg)]
        # second run reuses the cache: the solver never runs
        monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
        solved = solve_all(cfg)
        for (_, a), (_, b) in zip(first, solved):
            assert np.array_equal(a.lambdas, b.lambdas)  # bit-exact reload
            assert np.array_equal(a.omegas, b.omegas)
            assert np.array_equal(a.Omegas, b.Omegas)
            assert a.iterations_used == b.iterations_used

    def test_warm_rerun_prints_recorded_iterations(self, tmp_path, capsys, monkeypatch):
        path = str(write_config(tmp_path))
        assert main(["solve", "--config", path]) == 0
        cold = capsys.readouterr().out
        monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
        assert main(["solve", "--config", path]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        counts = [int(line.rsplit(",", 1)[1].split()[0]) for line in cold.splitlines()]
        assert len(counts) == 3 and max(counts) > 0

    def test_fingerprint_mismatch_forces_resolve(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        other = write_config(tmp_path, residual_tol=1e-13)
        calls = _count_solves(monkeypatch)
        solve_all(RunConfig.from_file(other))
        assert calls == [1, 2, 3]

    def test_analytics_order_reuses_records(self, tmp_path, capsys, monkeypatch):
        # no record depends on quadrature_order, so a capacity run at another
        # order must not solve again
        assert main(["capacity", "--config", str(write_config(tmp_path, n_max=4))]) == 0
        monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
        path = write_config(tmp_path, n_max=4, quadrature_order=128)
        assert main(["capacity", "--config", str(path)]) == 0

    def test_record_config_is_the_fingerprinted_numerics(self, tmp_path, capsys):
        # a record reused at another analytics order names no order that
        # could disagree with the run reading it
        assert main(["capacity", "--config",
                     str(write_config(tmp_path, n_max=4, quadrature_order=256))]) == 0
        path = write_config(tmp_path, n_max=4, quadrature_order=128)
        assert main(["capacity", "--config", str(path)]) == 0
        record = json.loads((tmp_path / "out" / "gen_4.json").read_text())
        assert "quadrature_order" not in record["config"]
        assert record["config"] == RunConfig.from_file(path).numerics

    def test_stored_generations_are_loaded_and_the_rest_solved(self, tmp_path,
                                                              monkeypatch):
        # records for n <= 3 on disk: the one generation loop solves n = 4, 5
        # only, warm-started from the loaded n = 3, bit for bit as a cold run
        assert main(["solve", "--config", str(write_config(tmp_path))]) == 0
        cfg = RunConfig.from_file(write_config(tmp_path, n_max=5))
        calls = _count_solves(monkeypatch)
        solved = solve_all(cfg)
        assert calls == [4, 5]
        cold = solve_generations(cfg.ifs, 5, cfg.residual_tol)
        assert [s.generation for _, s in solved] == [1, 2, 3, 4, 5]
        for (bands, a), b in zip(solved, cold):
            assert bands is a.vars.bands
            assert np.array_equal(a.lambdas, b.lambdas)
            assert np.array_equal(a.omegas, b.omegas)
            assert a.iterations_used == b.iterations_used
        assert sorted(p.name for p in (tmp_path / "out").glob("gen_*.json")) == [
            f"gen_{n}.json" for n in range(1, 6)]

    def test_failure_carries_the_completed_generations(self, tmp_path, monkeypatch):
        # generation 1 comes from disk, 2 is solved and stored, 3 fails
        assert main(["solve", "--config", str(write_config(tmp_path, n_max=1))]) == 0
        original = solver.solve_generation

        def failing_at_three(initial, *args, **kwargs):
            if initial.bands.generation == 3:
                raise solver.NoConvergence("forced", generation=3)
            return original(initial, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_generation", failing_at_three)
        with pytest.raises(solver.NoConvergence) as err:
            solve_all(RunConfig.from_file(write_config(tmp_path, n_max=4)))
        assert err.value.generation == 3
        done = err.value.solutions_so_far
        assert [s.generation for s in done] == [1, 2]
        out = tmp_path / "out"
        for sol in done:
            record = json.loads((out / f"gen_{sol.generation}.json").read_text())
            assert record["lambda"] == sol.lambdas.tolist()
        assert not (out / "gen_3.json").exists() and not (out / "gen_4.json").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, ifs=[[1.2, -1.0], [1 / 3, 1.0]])
        assert main(["solve", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "ifs" in capsys.readouterr().err

    def test_solver_failure_exit_code_and_partial_results(self, tmp_path, capsys,
                                                          monkeypatch):
        # generation 1 converges without iterations; generation 2 cannot
        # finish in a single Newton step, so its record is never written
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        path = write_config(tmp_path, residual_tol=1e-13, quadrature_order=64, n_max=3)
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "generation" in err
        assert (tmp_path / "out" / "gen_1.json").exists()
        assert not (tmp_path / "out" / "gen_2.json").exists()

    def test_records_of_the_former_order_rule_are_solved_again(self, tmp_path,
                                                               monkeypatch):
        # records written before gaps could take graded rules
        path = write_config(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(kernel, "ORDER_RULE", "refined-even/min32/safety18")
            assert main(["solve", "--config", str(path)]) == 0
        calls = _count_solves(monkeypatch)
        solve_all(RunConfig.from_file(path))
        assert calls == [1, 2, 3]

    def test_singular_jacobian_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "gap_jacobian_row",
                            lambda i, vars, *args: np.full((len(i), vars.bands.n_gaps), np.nan))
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 3
        assert "generation 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "gen_2.json").exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        # an output directory below a regular file cannot be made
        (tmp_path / "file").write_text("")
        path = write_config(tmp_path, output_dir=str(tmp_path / "file" / "out"))
        assert main(["solve", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("I/O error: ")
        assert "Not a directory" in err and "Traceback" not in err

    def test_nan_residual_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "gap_integral", nan_in_gap_0)
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "generation 1" in err and "residual nan" in err
        assert not (tmp_path / "out" / "gen_1.json").exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("figs")
    path = write_config(tmp_path, n_max=4, sample_count=32,
                        x_grid={"lo": -1.0, "hi": 1.0, "count": 21})
    assert main(["figures", "--config", str(path), "--which", "all"]) == 0
    return tmp_path / "out"


class TestFiguresCommand:
    def test_all_files_with_headers(self, run_dir):
        expected_headers = {
            "residuals_before_after": ["generation", "gap_index",
                                       "residual_initial", "residual_final"],
            "jacobian_decay": ["generation", "i", "m", "i_minus_m",
                               "abs_dKi_dlambda_m"],
            "lambda_vs_n": ["generation", "gap_index", "line_id", "lambda"],
            "Omega_vs_n": ["generation", "gap_index", "line_id", "Omega"],
            "Omega_of_x": ["generation", "x", "Omega"],
            "gapmeasure_fit": ["generation", "gap_index", "Omega",
                               "fit_a", "fit_b", "fit_c"],
            "potential_profile": ["generation", "x", "V"],
            "capacity_table": ["n", "V_point", "V_mean",
                               "fit_a_point", "fit_b_point", "fit_c_point",
                               "capacity_point",
                               "fit_a_mean", "fit_b_mean", "fit_c_mean",
                               "capacity_mean"],
        }
        for name in FIGURE_NAMES:
            header, rows = read_csv(run_dir / f"{name}.csv")
            assert header == expected_headers[name]
            assert rows

    def test_residuals_file_shows_improvement(self, run_dir):
        _, rows = read_csv(run_dir / "residuals_before_after.csv")
        finals = [float(r[3]) for r in rows]
        assert max(finals) < 1e-12

    def test_lambda_line_ids_connect_generations(self, run_dir):
        _, rows = read_csv(run_dir / "lambda_vs_n.csv")
        # the generation-1 gap keeps one line id across generations
        ids = {(int(r[0]), int(r[1])): r[2] for r in rows}
        assert ids[(1, 0)] == ids[(2, 1)] == ids[(3, 3)]
        assert ids[(2, 0)] == ids[(3, 1)]  # a gap born at generation 2
        assert all(line == m_ary_line_id(n, g, 2) for (n, g), line in ids.items())
        _, rows = read_csv(run_dir / "gapmeasure_fit.csv")
        assert [(int(r[0]), int(r[1])) for r in rows] == [(n, 2 ** (n - 1) - 1)
                                                          for n in (1, 2, 3, 4)]

    @pytest.mark.parametrize("pairs", [BASE_CONFIG["ifs"], [[0.8, -1.0], [0.1, 1.0]],
                                       [[0.3, -1.0], [0.1, 0.0], [0.2, 1.0]]])
    def test_line_ids_follow_the_m_ary_layout(self, pairs):
        # the walk over the band systems' parents against the M-ary oracle;
        # the first gap of generation 1 is gap M**(n - 1) - 1 of generation n
        ifs = validate(IfsSystem.from_pairs(pairs))
        bands = [generate_bands(ifs, n) for n in range(1, 7)]
        for b, lines in zip(bands, cli._line_ids([(b, None) for b in bands])):
            n = b.generation
            assert lines == [m_ary_line_id(n, g, ifs.n_maps) for g in range(b.n_gaps)]
            assert lines.index("1:0") == ifs.n_maps ** (n - 1) - 1

    def test_omega_of_x_is_a_staircase(self, run_dir):
        _, rows = read_csv(run_dir / "Omega_of_x.csv")
        for gen in (1, 2, 3):
            values = [float(r[2]) for r in rows if int(r[0]) == gen]
            assert values[0] <= 1e-9
            assert values[-1] == pytest.approx(1.0, abs=1e-9)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    # the ids say that the CLI's solver refines its rules
    @pytest.mark.parametrize("pairs, n_max", [
        pytest.param(BASE_CONFIG["ifs"], 3, id="True"),
        pytest.param([[0.9, -1.0], [0.001, 1.0]], 4, id="True-graded")])
    def test_jacobian_rows_use_the_solver_rules(self, tmp_path, monkeypatch, pairs,
                                                n_max):
        rules = {}

        def recording(i, vars, rule, reduced=None):
            rules.update((k, rule) for k in i)  # the figure's rows come last
            return gap_jacobian_row(i, vars, rule, reduced)

        monkeypatch.setattr(solver, "gap_jacobian_row", recording)
        path = write_config(tmp_path, ifs=pairs, n_max=n_max)
        assert main(["figures", "--config", str(path), "--which", "jacobian_decay"]) == 0
        bands = generate_bands(validate(IfsSystem.from_pairs(pairs)), n_max)
        want = [rule.order for rule in frame_rules(bands, "gap")]
        assert [rules[i].order for i in range(bands.n_gaps)] == want
        assert any(rule.panels for rule in rules.values()) == (n_max == 4)

    def test_x_grid_off_the_hull_rejected_before_solving(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        path = write_config(tmp_path, n_max=4,
                            x_grid={"lo": -2.0, "hi": 1.0, "count": 5})
        for which in ("all", "Omega_of_x"):
            assert main(["figures", "--config", str(path), "--which", which]) == 2
            assert "x_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_x_grid_off_the_hull_serves_the_potential(self, tmp_path):
        # V is defined off the hull; only the integrated measure is not
        path = write_config(tmp_path, x_grid={"lo": -2.0, "hi": 1.0, "count": 5})
        assert main(["figures", "--config", str(path), "--which",
                     "potential_profile"]) == 0
        _, rows = read_csv(tmp_path / "out" / "potential_profile.csv")
        assert float(rows[0][1]) == -2.0 and len(rows) == 3 * 5

    def test_one_analytics_call_per_generation(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(x, *args, **kwargs):
                calls.append((name, np.shape(x)))
                return fn(x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "potential_at", counting("V", cli.potential_at))
        monkeypatch.setattr(cli, "integrated_measure_at",
                            counting("Omega", cli.integrated_measure_at))
        path = write_config(tmp_path, x_grid={"lo": -1.0, "hi": 1.0, "count": 9})
        for which in ("potential_profile", "Omega_of_x"):
            assert main(["figures", "--config", str(path), "--which", which]) == 0
        assert calls == [("V", (9,))] * 3 + [("Omega", (9,))] * 3
        calls.clear()
        assert main(["potential", "--config", str(path), "--points=-0.9:0.9:7"]) == 0
        assert calls == [("V", (7,))]

    def test_unknown_figure_name(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["figures", "--config", str(path), "--which", "fig42"]) == 2

    def test_write_figure_writes_each_name_to_its_one_path(self, run_dir, tmp_path):
        # the solutions of run_dir's records, written elsewhere: an unknown
        # name raises before anything is written, each known one goes to
        # output_dir / "<name>.csv" with the bytes the figures command wrote
        cfg = RunConfig.from_file(run_dir.parent / "config.json")
        solved = solve_all(cfg)
        cfg = dataclasses.replace(cfg, output_dir=tmp_path / "figs")
        with pytest.raises(ValueError, match="unknown figure 'fig42'"):
            write_figure(cfg, "fig42", solved)
        assert not cfg.output_dir.exists()
        for name in FIGURE_NAMES:
            path = write_figure(cfg, name, solved)
            assert path == cfg.output_dir / f"{name}.csv"
            assert path.read_bytes() == (run_dir / f"{name}.csv").read_bytes()
        assert sorted(p.name for p in cfg.output_dir.iterdir()) == sorted(
            f"{name}.csv" for name in FIGURE_NAMES)

    def test_a_figure_without_series_opens_no_sidecar(self, run_dir, tmp_path,
                                                      monkeypatch):
        # a copy of run_dir, warm with records and band series sidecars:
        # lambda_vs_n reads no band series, so it opens none
        warm = tmp_path / "warm"
        shutil.copytree(run_dir, warm)
        monkeypatch.setenv(cli.OUTDIR_ENV, str(warm))
        opened, load_series = [], SolutionCache.load_series

        def spying(self, sol):
            opened.append(sol.generation)
            return load_series(self, sol)

        monkeypatch.setattr(SolutionCache, "load_series", spying)
        assert main(["figures", "--config", str(run_dir.parent / "config.json"),
                     "--which", "lambda_vs_n"]) == 0
        assert opened == []
        for path in run_dir.iterdir():
            assert (warm / path.name).read_bytes() == path.read_bytes(), path.name

    def test_17_digit_floats(self, run_dir):
        _, rows = read_csv(run_dir / "capacity_table.csv")
        reparsed = float(rows[0][2])
        assert f"{reparsed:.17g}" == rows[0][2]


class TestCapacityCommand:
    def test_prints_extrapolation(self, tmp_path, capsys):
        path = write_config(tmp_path, n_max=4, sample_count=32,
                            quadrature_order=256)
        assert main(["capacity", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "extrapolated capacity" in out
        assert (tmp_path / "out" / "capacity_table.csv").exists()

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_capacities_print_nine_significant_digits(self, tmp_path, capsys, scale):
        # at scale 1e200 a fixed nine decimals printed a 200-digit integer
        # part; a capacity in [0.1, 1) keeps its nine-decimal text
        path = write_config(tmp_path, ifs=[[1 / 3, -scale], [1 / 3, scale]], n_max=5,
                            sample_count=256)
        assert main(["capacity", "--config", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("extrapolated capacity")]
        _, rows = read_csv(tmp_path / "out" / "capacity_table.csv")
        for line, csv_value in zip(lines, (rows[-1][10], rows[-1][6])):  # mean, point
            text = line.split()[-1]
            digits = text.partition("e")[0].replace(".", "").lstrip("0")
            assert 1 <= len(digits) <= 9, line
            assert float(text) == pytest.approx(float(csv_value), rel=1e-8)
            if scale == 1.0:
                assert 0.1 <= float(csv_value) < 1 and text == f"{float(csv_value):.9f}"
        assert len(lines) == 2

    @pytest.mark.parametrize("argv", [["capacity"], ["figures", "--which", "all"],
                                      ["figures", "--which", "capacity_table"]])
    def test_too_few_generations_rejected_before_solving(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, n_max=3)
        assert main([*argv, "--config", str(path)]) == 2
        assert "n_max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["capacity"], ["figures", "--which", "all"],
                                      ["figures", "--which", "capacity_table"]])
    def test_fewer_samples_than_bands_rejected_before_solving(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        # the mean path needs a point on every band of generation n_max = 4:
        # 2**4 = 16 of them for two maps, 3**4 = 81 for three, where 64 points
        # would pass a count written for two maps
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        for pairs, samples, n_bands in ((BASE_CONFIG["ifs"], 8, 16),
                                        ([[0.3, -1.0], [0.1, 0.0], [0.2, 1.0]], 64, 81)):
            path = write_config(tmp_path, ifs=pairs, n_max=4, sample_count=samples)
            assert main([*argv, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"sample_count >= {n_bands}, " in err and f"got {samples}" in err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["capacity"], ["figures", "--which", "all"],
                                      ["figures", "--which", "capacity_table"]])
    @pytest.mark.parametrize("point_x", [0.0, 5.0])
    def test_a_point_off_the_bands_rejected_before_solving(self, tmp_path, capsys,
                                                           monkeypatch, argv, point_x):
        # 0.0 is in the middle gap, 5.0 off the hull: the point path would
        # print a capacity for one and fail the fit after every solve for the
        # other
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        path = write_config(tmp_path, n_max=4, sample_count=32, point_x=point_x)
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"'point_x' on the bands of generation 4, got {point_x}" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, point_x", [
        (["capacity"], X_STAR), (["capacity"], None),
        (["figures", "--which", "potential_profile"], 0.0)])
    def test_a_point_on_the_bands_or_unused_runs(self, tmp_path, capsys, argv, point_x):
        # X_STAR and the default point lie on the bands; potential_profile
        # does not read point_x
        path = write_config(tmp_path, n_max=4, sample_count=32, point_x=point_x)
        assert main([*argv, "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestPotentialCommand:
    def test_grid_spec(self, tmp_path):
        path = write_config(tmp_path, n_max=2)
        assert main(["potential", "--config", str(path),
                     "--points=-0.9:0.9:7"]) == 0
        header, rows = read_csv(tmp_path / "out" / "potential_points.csv")
        assert header == ["x", "V"]
        assert len(rows) == 7
        assert all(np.isfinite(float(r[1])) for r in rows)

    def test_grid_spec_with_a_leading_minus_after_a_space(self, tmp_path):
        # argparse alone reads "-0.9:0.9:7" after a space as an option
        path = write_config(tmp_path, n_max=2)
        out = tmp_path / "out" / "potential_points.csv"
        assert main(["potential", "--points", "-0.9:0.9:7", "--config", str(path)]) == 0
        spaced = out.read_text()
        assert main(["potential", "--config", str(path), "--points=-0.9:0.9:7"]) == 0
        assert out.read_text() == spaced
        assert len(read_csv(out)[1]) == 7

    def test_points_option_without_a_value(self, tmp_path, capsys):
        path = write_config(tmp_path, n_max=2)
        with pytest.raises(SystemExit) as exc:
            main(["potential", "--config", str(path), "--points"])
        assert exc.value.code == 2

    def test_points_file(self, tmp_path):
        pts = tmp_path / "points.txt"
        pts.write_text("0.0\n0.5\n")
        path = write_config(tmp_path, n_max=2)
        assert main(["potential", "--config", str(path),
                     "--points", str(pts)]) == 0
        _, rows = read_csv(tmp_path / "out" / "potential_points.csv")
        assert len(rows) == 2

    def test_bad_points_spec(self, tmp_path, capsys):
        path = write_config(tmp_path, n_max=2)
        for spec in ("whatever", "0:1:x", "0:1:2.5", "0:y:3", "0:1:-2", "0:1:3:4"):
            assert main(["potential", "--config", str(path), "--points", spec]) == 2, spec
            assert "--points" in capsys.readouterr().err

    def test_bad_points_file(self, tmp_path, capsys):
        pts = tmp_path / "points.txt"
        pts.write_text("0.0\nhalf\n")
        path = write_config(tmp_path, n_max=2)
        assert main(["potential", "--config", str(path), "--points", str(pts)]) == 2
        assert "--points" in capsys.readouterr().err

    def test_huge_points(self, tmp_path, capsys):
        # far beyond the hull V is -log|x|: no overflow to -inf, no warning
        path = write_config(tmp_path, n_max=7, sample_count=128)
        assert main(["potential", "--config", str(path), "--points", "1e308:1e308:1"]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(tmp_path / "out" / "potential_points.csv")
        assert [float(x) for x, _ in rows] == [1e308]
        assert float(rows[0][1]) == pytest.approx(-math.log(1e308), rel=1e-12)

    @pytest.mark.parametrize("spec", [
        "nan:1:3", "-1:inf:3", "-inf:1:2", "-1:1:0", "file:1e400", "file:0.5 nan", "file:",
        "file:\n \n", "0:1:1000000000000", f"0:1:{cli.MAX_POINTS + 1}",
        pytest.param("file:" + "0.5 " * (cli.MAX_POINTS + 1), id="file:too-many")])
    def test_points_it_cannot_evaluate(self, tmp_path, capsys, monkeypatch, spec):
        # a non-finite point, a count below 1 or above MAX_POINTS, or no
        # points at all: exit 2 with one line on stderr, before any solve
        # and with nothing written
        if spec.startswith("file:"):
            points = tmp_path / "points.txt"
            points.write_text(spec[len("file:"):])
            spec = str(points)
        path = write_config(tmp_path, n_max=2)
        monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
        assert main(["potential", "--config", str(path), f"--points={spec}"]) == 2
        err = capsys.readouterr().err
        assert "--points" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestArguments:
    def test_an_option_with_a_space_or_an_equals_sign_gives_the_same_run(self, tmp_path,
                                                                         capsys):
        path = write_config(tmp_path, n_max=2)
        out = tmp_path / "out" / "gapmeasure_fit.csv"
        assert main(["figures", "--config", str(path), "--which", "gapmeasure_fit"]) == 0
        spaced = (capsys.readouterr().out, out.read_text())
        assert main(["figures", "--which=gapmeasure_fit", f"--config={path}"]) == 0
        assert (capsys.readouterr().out, out.read_text()) == spaced

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["potential", "--help"],
                                      ["solve", "--config", "none.json", "-h"]])
    def test_help_lists_the_commands_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"equimeasure {name} " in out for name in cli.COMMANDS)
        assert list(cli.COMMANDS) == ["solve", "figures", "capacity", "potential"]

    def test_help_without_docstrings_exits_0(self, capsys, monkeypatch):
        # python -OO strips the module docstring that holds the usage block
        monkeypatch.setattr(cli, "__doc__", None)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")

    @pytest.mark.parametrize("argv, message", [
        ([], "no command; choose from solve, figures, capacity, potential"),
        (["plot", "--config", "{cfg}"], "unknown command 'plot'; choose from solve, "),
        (["solve", "--config", "{cfg}", "--points", "0:1:2"],
         "solve takes --config, got '--points'"),
        (["solve", "--conf", "{cfg}"], "solve takes --config, got '--conf'"),
        (["solve", "--config", "{cfg}", "extra"], "solve takes --config, got 'extra'"),
        (["capacity"], "capacity needs a value for --config"),
        (["figures", "--which", "all"], "figures needs a value for --config"),
        (["potential", "--config", "{cfg}"], "potential needs a value for --points"),
        (["potential", "--points", "0:1:2"], "potential needs a value for --config"),
        (["potential"], "potential needs a value for --config and --points"),
        (["potential", "--config", "{cfg}", "--points"], "potential needs a value for --points"),
        (["solve", "--config"], "solve needs a value for --config")])
    def test_usage_errors_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                               argv, message):
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        path = write_config(tmp_path, n_max=2)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(cfg=path) for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"equimeasure: error: {message}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_a_capacity_run_walks_the_band_systems_once(self, tmp_path, capsys,
                                                        monkeypatch):
        # RunConfig.from_file's depth check walks generations 0..n_max once;
        # the analytics check and the solve read that walk
        walks, original = [], geometry.generations

        def counting(ifs, n):
            walks.append(n)
            return original(ifs, n)

        monkeypatch.setattr(geometry, "generations", counting)
        monkeypatch.setattr(cli, "generations", counting)
        path = write_config(tmp_path, n_max=7, sample_count=128)
        assert main(["capacity", "--config", str(path)]) == 0
        assert walks == [7]
        assert len(list((tmp_path / "out").glob("gen_*.json"))) == 7


SERIES_COMMANDS = [["capacity"], ["potential", "--points=-1:1:5"], ["figures", "--which", "all"],
                   ["figures", "--which", "Omega_of_x"],
                   ["figures", "--which", "potential_profile"],
                   ["figures", "--which", "capacity_table"]]


class TestSeriesGuard:
    # gaps 4e-12 of the hull: each band series holds 9 000 100 coefficients
    # (16 bands of 9 001 600 at n = 4), while the solve takes well under a second
    NEAR = [[0.499999999999, -1.0], [0.499999999999, 1.0]]

    @pytest.mark.parametrize("argv", SERIES_COMMANDS)
    def test_a_series_table_above_max_points_rejected_before_solving(
            self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        path = write_config(tmp_path, ifs=self.NEAR, n_max=4)
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert (f"needs at most {cli.MAX_POINTS} band series coefficients at generation 4, "
                f"got {16 * 9_001_600}") in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["solve"], ["figures", "--which", "lambda_vs_n"]])
    def test_commands_without_series_still_run(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, ifs=self.NEAR, n_max=2)
        assert main([*argv, "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", SERIES_COMMANDS)
    def test_the_cap_is_inclusive(self, tmp_path, capsys, monkeypatch, argv):
        # ternary n = 4: 16 bands of 32 coefficients, 512 in all
        path = write_config(tmp_path, n_max=4)
        monkeypatch.setattr(cli, "MAX_POINTS", 512)
        assert main([*argv, "--config", str(path)]) == 0
        monkeypatch.setattr(cli, "MAX_POINTS", 511)
        assert main([*argv, "--config", str(path)]) == 2
        assert "band series coefficients at generation 4, got 512" in capsys.readouterr().err


class TestAnalyticsErrors:
    # analytics failures leave main with exit code 3 and one line on stderr
    def _capacity(self, tmp_path, capsys):
        path = write_config(tmp_path, n_max=4, sample_count=32)
        code = main(["capacity", "--config", str(path)])
        return code, capsys.readouterr().err

    def test_non_monotone_fit(self, tmp_path, capsys, monkeypatch):
        def non_monotone(points):
            raise analytics.NonMonotoneInput("successive differences change sign")

        monkeypatch.setattr(analytics, "fit_exponential", non_monotone)
        code, err = self._capacity(tmp_path, capsys)
        assert code == 3
        assert err.strip() == ("analytics failed: NonMonotoneInput: "
                               "successive differences change sign")

    def test_point_fit_failure_leaves_the_mean_path(self, tmp_path, capsys, monkeypatch):
        # the point path's fit alone fails: its capacity reads nan and the
        # mean path's columns are those of a run where both fits succeed
        path = write_config(tmp_path, n_max=4, sample_count=32)
        assert main(["capacity", "--config", str(path)]) == 0
        capsys.readouterr()
        table = tmp_path / "out" / "capacity_table.csv"
        normal = [line.split(",") for line in table.read_text().splitlines()]
        v_point = [float(row[1]) for row in normal[1:]]
        fit = analytics.fit_exponential

        def point_fails(points):
            if [v for _, v in points] == v_point:
                raise analytics.NonMonotoneInput("successive differences change sign")
            return fit(points)

        monkeypatch.setattr(analytics, "fit_exponential", point_fails)
        assert main(["capacity", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "extrapolated capacity (point path): nan" in out
        failed = [line.split(",") for line in table.read_text().splitlines()]
        assert failed[0] == normal[0]
        for got, want in zip(failed[1:], normal[1:], strict=True):
            assert got[:3] == want[:3] and got[7:] == want[7:]
            assert got[3:7] == ["nan"] * 4

    def test_persistent_collision(self, tmp_path, capsys, monkeypatch):
        # every node of the point's own band lies within one band width of it
        monkeypatch.setattr(analytics, "NODE_COLLISION_RTOL", 1.0)
        code, err = self._capacity(tmp_path, capsys)
        assert code == 3
        assert err.startswith("analytics failed: PersistentCollision: ")
        assert len(err.strip().splitlines()) == 1

    def test_out_of_hull(self, tmp_path, capsys, monkeypatch):
        # sample points in the central gap lie on no band
        monkeypatch.setattr(analytics, "sample_points",
                            lambda bands, count: np.zeros(count))
        code, err = self._capacity(tmp_path, capsys)
        assert code == 3
        assert err.startswith("analytics failed: OutOfHull: ")
        assert len(err.strip().splitlines()) == 1

    def test_every_analytics_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # main maps the base class, so a failure it has never named exits 3 too;
        # the band series were read or built before the command evaluated, so
        # their sidecars stay
        class Unforeseen(analytics.AnalyticsError):
            pass

        def fails(*args, **kwargs):
            raise Unforeseen("no estimate")

        monkeypatch.setattr(cli, "capacity_estimate", fails)
        code, err = self._capacity(tmp_path, capsys)
        assert code == 3
        assert err == "analytics failed: Unforeseen: no estimate\n"
        assert sorted(_files(tmp_path / "out", "series_*.bin")) == [
            f"series_{n}.bin" for n in (1, 2, 3, 4)]
        assert issubclass(analytics.OutOfHull, ValueError)
        assert issubclass(analytics.PersistentCollision, RuntimeError)
        assert issubclass(analytics.NonMonotoneInput, ValueError)


def _fresh_interpreter(script: str) -> str:
    """The last line ``script`` prints in a new interpreter that imports the
    package from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestScipyFree:
    def test_commands_import_no_scipy(self, tmp_path):
        # the package runs on numpy alone; scipy stays a test oracle (numpy
        # 1.24 imports numpy.ma eagerly, so that is not checked)
        path = write_config(tmp_path, n_max=4, quadrature_order=64, sample_count=64)
        script = "\n".join([
            "import sys",
            "import equimeasure.cli as cli",
            "for argv in (['solve'], ['figures', '--which', 'all'], ['capacity'],",
            "             ['potential', '--points', '-0.9:0.9:5']):",
            f"    assert cli.main([*argv, '--config', {str(path)!r}]) == 0, argv",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        assert _fresh_interpreter(script) == "[]"
        assert (tmp_path / "out" / "potential_points.csv").exists()

    def test_graded_rules_import_no_numpy_polynomial(self, tmp_path):
        # the thin system takes graded gap rules from n = 3 on
        path = write_config(tmp_path, ifs=[[0.9, -1.0], [0.001, 1.0]], n_max=4)
        script = "\n".join([
            "import sys",
            "import equimeasure.cli as cli",
            f"assert cli.main(['solve', '--config', {str(path)!r}]) == 0",
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))",
        ])
        assert _fresh_interpreter(script) == "[]"
        assert len(list((tmp_path / "out").glob("gen_*.json"))) == 4

    def test_solve_imports_no_hashlib(self, tmp_path):
        # records are checked by their stored settings, not a digest, so no
        # run maps OpenSSL's libcrypto
        path = write_config(tmp_path)
        script = "\n".join([
            "import sys",
            "import equimeasure.cli as cli",
            f"assert cli.main(['solve', '--config', {str(path)!r}]) == 0",
            "print(sorted(m for m in sys.modules if m in ('_hashlib', 'hashlib')))",
        ])
        assert _fresh_interpreter(script) == "[]"
        assert len(list((tmp_path / "out").glob("gen_*.json"))) == 3

    def test_commands_import_no_argument_parser(self, tmp_path):
        # the CLI reads its own grammar: argparse imported gettext with it,
        # and its set-up's message lookups imported locale, in every process
        path = write_config(tmp_path, n_max=4, quadrature_order=64, sample_count=64)
        script = "\n".join([
            "import sys",
            "before = set(sys.modules)",
            "import equimeasure.cli as cli",
            "for argv in (['solve'], ['figures', '--which', 'all'], ['capacity'],",
            "             ['potential', '--points', '-0.9:0.9:5']):",
            f"    assert cli.main([*argv, '--config', {str(path)!r}]) == 0, argv",
            "print(sorted(m for m in set(sys.modules) - before",
            "             if m in ('argparse', 'gettext', 'locale')))",
        ])
        assert _fresh_interpreter(script) == "[]"
        assert (tmp_path / "out" / "potential_points.csv").exists()


    def test_a_warm_capacity_imports_no_fft(self, tmp_path):
        # sidecars replace every series build, the only numpy.fft user; the
        # cold run imports it, so the warm check is not vacuous
        path = write_config(tmp_path, n_max=4, sample_count=32)
        script = "\n".join([
            "import sys",
            "import equimeasure.cli as cli",
            "before = 'numpy.fft' in sys.modules",
            f"assert cli.main(['capacity', '--config', {str(path)!r}]) == 0",
            "print(before, 'numpy.fft' in sys.modules)",
        ])
        cold = _fresh_interpreter(script)
        if cold.startswith("True"):
            pytest.skip("this numpy imports numpy.fft with itself")
        assert cold == "False True"
        assert len(list((tmp_path / "out").glob("series_*.bin"))) == 4
        assert _fresh_interpreter(script) == "False False"


class TestLapackFree:
    # the capacity fit solves each Gauss-Newton step by Givens rotations; the
    # first numpy.linalg.lstsq call of a run paged in 1.3 MB of LAPACK's
    # least-squares driver
    @pytest.mark.parametrize("argv", [["capacity"], ["figures", "--which", "all"]],
                             ids=["capacity", "figures"])
    def test_commands_call_no_lapack(self, tmp_path, monkeypatch, argv):
        path = write_config(tmp_path, n_max=4, sample_count=256)
        forbid_lapack(monkeypatch)
        assert main([*argv, "--config", str(path)]) == 0
        assert (tmp_path / "out" / "capacity_table.csv").exists()


DAMAGE_KINDS = ["another generation", "not an object", "a missing key", "a null in an array",
                "arrays of the wrong length", "a boolean generation",
                "a fractional iteration count", "not UTF-8", "deeply nested JSON"]


def _damage(out: Path, kind: str) -> str:
    """Damage one record of a solved ``out``, where a dict keeping its
    config; returns the damaged record's name."""
    if kind in ("not UTF-8", "deeply nested JSON"):  # the reader raises, not JSON's decoder
        (out / "gen_2.json").write_bytes(b"\xff" if kind == "not UTF-8" else b"[" * 100_000)
        return "gen_2.json"
    if kind == "another generation":  # a copied record
        (out / "gen_3.json").write_text((out / "gen_2.json").read_text())
        return "gen_3.json"
    if kind == "a boolean generation":  # true == 1 in Python, not in JSON
        record = json.loads((out / "gen_1.json").read_text())
        record["generation"] = True
        (out / "gen_1.json").write_text(json.dumps(record))
        return "gen_1.json"
    record = json.loads((out / "gen_2.json").read_text())
    if kind == "not an object":
        record = [1]
    elif kind == "a missing key":
        del record["lambda"]
    elif kind == "a null in an array":  # json reads it, numpy makes it NaN
        record["residuals"][0] = None
    elif kind == "a fractional iteration count":  # would print as 2 iterations
        record["iterations_used"] = 2.75
    else:  # arrays of the wrong length
        record["residuals"] = record["residuals"][:-1]
        record["omega"] = record["omega"] + [1.0]
    (out / "gen_2.json").write_text(json.dumps(record))
    return "gen_2.json"


class TestSolutionCache:
    # load(bands) returns the solution a record holds under the cache's
    # numerics, or None

    def _solved(self, tmp_path) -> tuple[SolutionCache, RunConfig]:
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        cfg = RunConfig.from_file(path)
        return SolutionCache(cfg.output_dir, cfg.numerics), cfg

    def test_a_record_loads_into_the_solution_it_stores(self, tmp_path, capsys):
        cache, cfg = self._solved(tmp_path)
        for cold in solve_generations(cfg.ifs, cfg.n_max, cfg.residual_tol):
            sol = cache.load(cold.vars.bands)
            assert sol.vars.bands is cold.vars.bands
            for name in ("lambdas", "residuals", "initial_residuals", "omegas", "Omegas"):
                assert getattr(sol, name).tobytes() == getattr(cold, name).tobytes(), name
            assert sol.iterations_used == cold.iterations_used

    def test_corrupt_record_ignored(self, tmp_path):
        cache = SolutionCache(tmp_path, {"a": 1})
        bands = generate_bands(IfsSystem.from_pairs(BASE_CONFIG["ifs"]), 1)
        assert cache.load(bands) is None  # no record at all
        (tmp_path / "gen_1.json").write_text("{ not json")
        assert cache.load(bands) is None

    def test_wrong_fingerprint_ignored(self, tmp_path, capsys):
        # a record is served only under the settings it stores
        cache, cfg = self._solved(tmp_path)
        bands, numerics = generate_bands(cfg.ifs, 2), cfg.numerics
        assert cache.load(bands) is not None
        for other in ({**numerics, "residual_tol": 1e-13}, {**numerics, "b": 1},
                      {k: v for k, v in numerics.items() if k != "start_rule"}):
            assert SolutionCache(cache.directory, other).load(bands) is None

    def test_a_damaged_record_loads_as_none(self, tmp_path, capsys):
        # each damaged record is a miss, and only that one
        cache, cfg = self._solved(tmp_path)
        cold = _files(cache.directory, "gen_*.json")
        for kind in DAMAGE_KINDS:
            for name, data in cold.items():
                (cache.directory / name).write_bytes(data)
            n = int(_damage(cache.directory, kind)[4])
            loaded = [cache.load(generate_bands(cfg.ifs, m)) is not None
                      for m in (1, 2, 3)]
            assert loaded == [m != n for m in (1, 2, 3)], kind


@pytest.mark.parametrize("kind", DAMAGE_KINDS)
def test_a_damaged_record_is_solved_again(tmp_path, capsys, monkeypatch, kind):
    # a record that does not fit its generation is a cache miss: the run
    # exits 0, rewrites that record and prints what a cold run prints
    path = str(write_config(tmp_path))
    out = tmp_path / "out"
    assert main(["solve", "--config", path]) == 0
    cold_out = capsys.readouterr().out
    cold = {p.name: p.read_bytes() for p in out.glob("gen_*.json")}
    name = _damage(out, kind)
    calls = _count_solves(monkeypatch)
    assert main(["solve", "--config", path]) == 0
    assert capsys.readouterr() == (cold_out, "")
    assert calls == [int(name[4])]
    assert {p.name: p.read_bytes() for p in out.glob("gen_*.json")} == cold


def test_an_edited_Omega_in_a_record_changes_no_figure(tmp_path, capsys, monkeypatch):
    # a solution sums its own omega: an "Omega" inserted into every record,
    # half the running sum of its omega, is ignored, the record is still
    # reused, and the warm figures are the cold run's bytes
    path = str(write_config(tmp_path, n_max=4, sample_count=32))
    out = tmp_path / "out"
    assert main(["figures", "--config", path, "--which", "all"]) == 0
    cold = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert sorted(cold) == sorted(f"{name}.csv" for name in FIGURE_NAMES)
    for name in out.glob("gen_*.json"):
        record = json.loads(name.read_text())
        record["Omega"] = (0.5 * np.cumsum(record["omega"])).tolist()
        name.write_text(json.dumps(record))
    edited = {p.name: p.read_bytes() for p in out.glob("gen_*.json")}
    monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
    assert main(["figures", "--config", path, "--which", "all"]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("*.csv")} == cold
    assert {p.name: p.read_bytes() for p in out.glob("gen_*.json")} == edited


def test_records_of_the_hashed_format_are_reused_as_they_are(tmp_path, monkeypatch):
    # records that also carry a "fingerprint", the SHA-256 of their config
    # text, as the records of earlier versions do: same settings, so no
    # solve and no rewrite
    path = str(write_config(tmp_path))
    out = tmp_path / "out"
    assert main(["solve", "--config", path]) == 0
    for name in out.glob("gen_*.json"):
        record = json.loads(name.read_text())
        text = json.dumps(record["config"], sort_keys=True)
        name.write_text(json.dumps({"generation": record.pop("generation"),
                                    "fingerprint": hashlib.sha256(text.encode()).hexdigest(),
                                    **record}))
    before = {p.name: p.read_bytes() for p in out.glob("gen_*.json")}
    monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
    assert main(["solve", "--config", path]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("gen_*.json")} == before


def test_records_of_the_former_layout_are_reused_as_they_are(tmp_path, capsys,
                                                              monkeypatch):
    # records that also carry the band endpoints ("bands", "gaps"), the
    # "genealogy" and "Omega", as earlier versions wrote them: no solve, no
    # rewrite, and the cold run's CSV bytes with every band series rebuilt
    # from the records' roots
    path = str(write_config(tmp_path, n_max=4, sample_count=32))
    out = tmp_path / "out"
    assert main(["figures", "--config", path, "--which", "all"]) == 0
    cold = _files(out, "*.csv")
    ifs = IfsSystem.from_pairs(BASE_CONFIG["ifs"])
    for name in out.glob("gen_*.json"):
        record = json.loads(name.read_text())
        bands = generate_bands(ifs, record["generation"])
        name.write_text(json.dumps({
            "generation": record["generation"], "config": record["config"],
            "bands": np.column_stack([bands.alphas, bands.betas]).tolist(),
            "gaps": np.column_stack([bands.gap_los, bands.gap_his]).tolist(),
            "genealogy": [None if p < 0 else p for p in bands.parents.tolist()],
            **{key: record[key] for key in RECORD_KEYS[2:]},
            "Omega": np.cumsum(record["omega"]).tolist()}))
    for sidecar in out.glob("series_*.bin"):
        sidecar.unlink()
    records = _stamps(out, "gen_*.json")
    monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
    assert main(["figures", "--config", path, "--which", "all"]) == 0
    assert _files(out, "*.csv") == cold
    assert _stamps(out, "gen_*.json") == records


@pytest.mark.parametrize("key, value", [
    pytest.param("start_rule", None, id="no-start_rule"),  # a record of midpoint starts
    ("ifs", [[1 / 3, -1.0], [0.3, 1.0]]), ("residual_tol", 1e-13), ("step_clamp", 1e-8),
    ("start_rule", "midpoint"), ("numerics", "uniform"), ("gmres_rtol", 1e-12),
    ("prod_block", 128), ("dot_piece", 4096)])
def test_a_record_under_other_settings_is_solved_again(tmp_path, monkeypatch, key, value):
    path = str(write_config(tmp_path))
    out = tmp_path / "out"
    assert main(["solve", "--config", path]) == 0
    cold = {p.name: p.read_bytes() for p in out.glob("gen_*.json")}
    record = json.loads((out / "gen_2.json").read_text())
    assert key in record["config"]
    if value is None:
        del record["config"][key]
    else:
        record["config"][key] = value
    (out / "gen_2.json").write_text(json.dumps(record))
    calls = _count_solves(monkeypatch)
    assert main(["solve", "--config", path]) == 0
    assert calls == [2]
    assert {p.name: p.read_bytes() for p in out.glob("gen_*.json")} == cold


def test_records_do_not_depend_on_the_blas_thread_count(tmp_path):
    # gaps 4e-7 of the hull: every band rule has 14 232 nodes, over the
    # length at which OpenBLAS threads a dot
    src = str(Path(cli.__file__).resolve().parents[1])
    script = "import sys; from equimeasure.cli import main; sys.exit(main(sys.argv[1:]))"
    records = []
    for threads in ("1", "2"):
        path = write_config(tmp_path, ifs=[[0.4999999, -1.0], [0.4999999, 1.0]], n_max=2,
                            output_dir=str(tmp_path / threads))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script, "solve", "--config", str(path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        records.append(_files(tmp_path / threads, "gen_*.json"))
    assert sorted(records[0]) == ["gen_1.json", "gen_2.json"]
    assert records[0] == records[1]


def _read_sidecar(path: Path) -> tuple[dict, np.ndarray]:
    """A sidecar's JSON line and its float64 values (the roots, then the series)."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), np.frombuffer(body, dtype="<f8").copy()


def _write_sidecar(path: Path, side: dict, values: np.ndarray, head: bytes | None = None):
    head = json.dumps(side).encode() if head is None else head
    path.write_bytes(head + b"\n" + values.astype("<f8").tobytes())


def _files(out: Path, pattern: str) -> dict:
    return {p.name: p.read_bytes() for p in out.glob(pattern)}


def _stamps(out: Path, pattern: str) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.glob(pattern)}


class TestSeriesSidecars:
    # analytics write each band series they build to series_<n>.bin beside
    # its record, and a warm run restores it instead of evaluating a kernel

    def _config(self, tmp_path, **overrides) -> str:
        return str(write_config(tmp_path, n_max=4, sample_count=32, **overrides))

    @pytest.mark.parametrize("argv, deepest_only", [
        (["capacity"], False), (["figures", "--which", "all"], False),
        (["potential", "--points=-0.99:0.99:101"], True)])
    def test_a_warm_run_from_sidecars_writes_the_cold_bytes(self, tmp_path, capsys,
                                                            monkeypatch, argv, deepest_only):
        path, out = self._config(tmp_path), tmp_path / "out"
        assert main(["solve", "--config", path]) == 0
        assert not _files(out, "series_*.bin")  # solve builds no series
        records = _stamps(out, "gen_*.json")
        capsys.readouterr()
        assert main([*argv, "--config", path]) == 0
        cold_out, cold = capsys.readouterr(), _files(out, "*.csv")
        assert sorted(_files(out, "series_*.bin")) == [
            f"series_{n}.bin" for n in ((4,) if deepest_only else (1, 2, 3, 4))]
        sidecars = _stamps(out, "series_*.bin")
        monkeypatch.setattr(kernel, "_chebyshev_series", _series_must_not_build)
        monkeypatch.setattr(solver, "solve_generation", _solver_must_not_run)
        assert main([*argv, "--config", path]) == 0
        assert capsys.readouterr() == cold_out
        assert _files(out, "*.csv") == cold
        assert _stamps(out, "series_*.bin") == sidecars  # nothing rewritten
        assert _stamps(out, "gen_*.json") == records

    def test_each_command_writes_the_series_it_built(self, tmp_path, capsys):
        path, out = self._config(tmp_path), tmp_path / "out"
        assert main(["solve", "--config", path]) == 0
        assert main(["figures", "--config", path, "--which", "lambda_vs_n"]) == 0
        assert not _files(out, "series_*.bin")
        assert main(["potential", "--config", path, "--points=-0.9:0.9:5"]) == 0
        assert sorted(_files(out, "series_*.bin")) == ["series_4.bin"]
        deepest = _stamps(out, "series_4.bin")
        assert main(["figures", "--config", path, "--which", "potential_profile"]) == 0
        assert sorted(_files(out, "series_*.bin")) == [f"series_{n}.bin" for n in (1, 2, 3, 4)]
        assert _stamps(out, "series_4.bin") == deepest
        side, values = _read_sidecar(out / "series_2.bin")
        record = json.loads((out / "gen_2.json").read_text())
        cfg = RunConfig.from_file(path)
        assert side == {"generation": 2,
                        "config": {**cfg.numerics, "series": kernel.SERIES_RULE}}
        sol = solve_all(cfg)[1][1]
        gaps = len(record["lambda"])
        assert values[:gaps].tobytes() == np.array(record["lambda"]).tobytes()
        assert values[gaps:].tobytes() == sol.vars.band_series.tobytes()

    def test_potential_reads_only_the_deepest_sidecar(self, tmp_path, capsys, monkeypatch):
        # it evaluates the deepest generation alone, so it reads no other sidecar
        path, out = self._config(tmp_path), tmp_path / "out"
        assert main(["figures", "--config", path, "--which", "potential_profile"]) == 0
        assert sorted(_files(out, "series_*.bin")) == [f"series_{n}.bin" for n in (1, 2, 3, 4)]
        read, load_series = [], SolutionCache.load_series
        monkeypatch.setattr(SolutionCache, "load_series", lambda self, sol: (
            read.append(sol.generation) or load_series(self, sol)))
        monkeypatch.setattr(kernel, "_chebyshev_series", _series_must_not_build)
        assert main(["potential", "--config", path, "--points=-0.9:0.9:5"]) == 0
        assert read == [4]

    @pytest.mark.parametrize("kind", [
        "not UTF-8", "not JSON", "deeply nested JSON", "not an object", "other settings",
        "another series rule", "other oversampling", "a float generation",
        "a lambda one ulp off", "a wrong shape", "truncated", "a NaN coefficient"])
    def test_a_stale_sidecar_is_rebuilt(self, tmp_path, capsys, monkeypatch, kind):
        path, out = self._config(tmp_path), tmp_path / "out"
        assert main(["capacity", "--config", path]) == 0
        cold_out, cold = capsys.readouterr(), _files(out, "*.csv")
        sidecars = _files(out, "series_*.bin")
        stale = out / "series_2.bin"
        side, values = _read_sidecar(stale)
        gaps = len(json.loads((out / "gen_2.json").read_text())["lambda"])
        head = tail = None
        if kind == "not UTF-8":
            head = b"\xff"
        elif kind == "not JSON":
            head = b"{ not json"
        elif kind == "deeply nested JSON":
            head = b"[" * 100_000
        elif kind == "not an object":
            head = json.dumps([side]).encode()
        elif kind == "other settings":
            side["config"]["residual_tol"] = 1e-13
        elif kind in ("another series rule", "other oversampling"):
            # written under another rule name, or another SERIES_OVERSAMPLING
            # that the rule's name does not follow
            attr, value = (("SERIES_RULE", "another") if kind == "another series rule"
                           else ("SERIES_OVERSAMPLING", 2 * kernel.SERIES_OVERSAMPLING))
            coefficients = len(values) - gaps
            with monkeypatch.context() as m:
                m.setattr(kernel, attr, value)
                cfg = RunConfig.from_file(path)
                SolutionCache(out, cfg.numerics).store_series(solve_all(cfg)[1][1])
            side, values = _read_sidecar(stale)
            factor = 2 if attr == "SERIES_OVERSAMPLING" else 1
            assert len(values) == gaps + factor * coefficients
        elif kind == "a float generation":  # 2.0 == 2 in Python, not in JSON
            side["generation"] = 2.0
        elif kind == "a lambda one ulp off":
            values[0] = np.nextafter(values[0], 1.0)
        elif kind == "a wrong shape":  # one coefficient short on every band
            values = np.concatenate([values[:gaps], values[gaps:].reshape(4, -1)[:, :-1].ravel()])
        elif kind == "truncated":
            tail = 3
        else:
            values[gaps + 1] = math.nan
        _write_sidecar(stale, side, values, head)
        if tail:
            stale.write_bytes(stale.read_bytes()[:-tail])
        built = _count_series(monkeypatch)
        assert main(["capacity", "--config", path]) == 0
        assert capsys.readouterr() == cold_out
        assert built == [2]
        assert _files(out, "*.csv") == cold
        assert _files(out, "series_*.bin") == sidecars

    def test_a_record_solved_again_does_not_take_its_old_sidecar(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the records of a run at another tolerance are solved again, and so
        # are their series: the output is that of a cold run at the new one
        out = tmp_path / "out"
        assert main(["capacity", "--config", self._config(tmp_path)]) == 0
        old = _files(out, "series_*.bin")
        assert len(old) == 4
        assert main(["capacity", "--config", self._config(
            tmp_path, residual_tol=1e-13, output_dir=str(tmp_path / "cold"))]) == 0
        built = _count_series(monkeypatch)
        assert main(["capacity", "--config", self._config(tmp_path, residual_tol=1e-13)]) == 0
        assert built == [1, 2, 3, 4]
        assert _files(out, "*.csv") == _files(tmp_path / "cold", "*.csv")
        assert _files(out, "series_*.bin") == _files(tmp_path / "cold", "series_*.bin")
        assert _files(out, "series_*.bin").keys() == old.keys()
        assert all(_files(out, "series_*.bin")[name] != old[name] for name in old)


def _bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _bench_module("workloads")


@pytest.mark.parametrize("name", BENCH_WORKLOADS.NAMES)
def test_bench_output_checks_pass_on_the_tiny_configs(tmp_path, capsys, name):
    # the benchmark checks each command's outputs, partly through the
    # package API (figures-small re-reads the solutions and evaluates them);
    # an API change that breaks those checks must fail here
    workloads = BENCH_WORKLOADS
    workload = workloads.make(name, seed=0, tiny=True)
    outdir = tmp_path / name
    path = workloads.write_config(workload, outdir)
    if workload.warm:
        assert main(["solve", "--config", str(path)]) == 0
    stamps = workloads.record_stamps(outdir)
    assert main([*workload.argv, "--config", str(path)]) == 0
    checks = workloads.Checks()
    workloads.check(checks, workload, outdir, stamps, tiny=True)
    assert checks.results
    assert [r for r in checks.results if not r["ok"]] == []


class TestBenchPatchPoints:
    # the traced benchmark wraps package functions by attribute name and
    # reads counts from their parameters by name; a renamed function or
    # parameter must fail here, not only in the benchmark's self-test
    COUNTED = ("kernel.gap_integral", "kernel.gap_jacobian_row", "kernel.band_integral",
               "solver.solve_generation", "cli.SolutionCache.store", "cli.SolutionCache.load")

    def test_capacity_run_counts_every_span(self, tmp_path, capsys):
        tracer = _bench_module("tracer")
        trace = tracer.Tracer()
        path = write_config(tmp_path, n_max=4, quadrature_order=64, sample_count=64)
        tracer.install(trace, cli, solver, analytics)
        # The generation loop runs in ``solver``, so the benchmark's span at
        # ``cli.solve_generation`` stays empty until it wraps it where
        # ``solver`` looks it up; wrap it there too.  ``solve_generation``
        # takes its band system from its start roots, so the generation is
        # read from ``initial`` (the benchmark's ``_solve_counts`` still reads
        # a ``bands`` argument).
        trace.patch(solver, "solve_generation", "solver.solve_generation",
                    lambda args, result: {"generation": args["initial"].bands.generation,
                                          "iterations": result.iterations_used})
        try:
            assert main(["capacity", "--config", str(path)]) == 0
        finally:
            trace.restore()
        names = {span.name for span in trace.spans}
        assert set(self.COUNTED) <= names
        assert "kernel.kernel_log_magnitude" not in names
        # the run's band systems come from the one walk of RunConfig.from_file,
        # ``generations``, so the benchmark's ``cli.generate_bands`` span is empty
        assert "geometry.generate_bands" not in names
        for span in trace.spans:
            if span.name in self.COUNTED and span.error is None:
                assert span.counts, span.name
        assert cli.solve_generation is solver.solve_generation
        # the capacity run evaluates every generation in one pass, so the mean
        # path's patch point is checked by a direct call
        assert "analytics.mean_potential_on_attractor_points" not in names

    def test_mean_path_patch_point_counts_its_terms(self, ternary_run):
        tracer = _bench_module("tracer")
        trace = tracer.Tracer()
        sol, rule = ternary_run[1][2], QuadratureRule.chebyshev(64)
        tracer.install(trace, cli, solver, analytics)
        try:
            analytics.mean_potential_on_attractor_points(sol, sol.vars.bands, 96, rule)
        finally:
            trace.restore()
        (span,) = [span for span in trace.spans
                   if span.name == "analytics.mean_potential_on_attractor_points"]
        assert span.error is None
        assert span.counts == {"log_terms": 96 * sol.vars.bands.n_bands * 64}
