import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equimeasure import analytics, cli, solver
from equimeasure.cli import (
    FIGURE_NAMES,
    ConfigError,
    RunConfig,
    SolutionCache,
    main,
    solve_all,
)
from equimeasure.geometry import GenerationTooLarge, IfsSystem, generate_bands, validate
from equimeasure.kernel import gap_jacobian_row, refined_rules

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
        base = RunConfig.from_file(write_config(tmp_path))
        same = RunConfig.from_file(write_config(tmp_path, n_max=5, sample_count=7))
        assert base.fingerprint == same.fingerprint
        for change in ({"residual_tol": 1e-10}, {"ifs": [[1 / 3, -1.0], [0.3, 1.0]]}):
            other = RunConfig.from_file(write_config(tmp_path, **change))
            assert other.fingerprint != base.fingerprint
        # the point-path order leaves the records untouched
        analytics_only = RunConfig.from_file(write_config(tmp_path, quadrature_order=512))
        assert analytics_only.fingerprint == base.fingerprint

    def test_fingerprint_names_the_order_rule(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        base = RunConfig.from_file(path).fingerprint
        monkeypatch.setattr(cli, "ORDER_RULE", "uniform")
        assert RunConfig.from_file(path).fingerprint != base

    def test_numerics_are_the_ifs_tolerances_and_order_rule(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, residual_tol=1e-13))
        assert cfg.numerics == {"ifs": [[1 / 3, -1.0], [1 / 3, 1.0]],
                                "residual_tol": 1e-13, "step_clamp": solver.STEP_CLAMP,
                                "numerics": cli.ORDER_RULE}
        assert cfg.residual_tol == 1e-13

    def test_fingerprint_keeps_the_stored_records_valid(self, tmp_path, monkeypatch):
        # records written when the step clamp was a config key (default 1e-9)
        # hash this same numerics text, so they are reused as they are
        path = write_config(tmp_path)
        text = ('{"ifs": [[0.3333333333333333, -1.0], [0.3333333333333333, 1.0]], '
                f'"numerics": "{cli.ORDER_RULE}", "residual_tol": 1e-12, '
                '"step_clamp": 1e-09}')
        stored = hashlib.sha256(text.encode()).hexdigest()
        assert RunConfig.from_file(path).fingerprint == stored
        monkeypatch.setattr(solver, "STEP_CLAMP", 1e-8)
        assert RunConfig.from_file(path).fingerprint != stored

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
            assert record["generation"] == n
            assert len(record["bands"]) == 2**n
            assert len(record["lambda"]) == 2**n - 1
            assert max(record["residuals"], default=0.0) < 1e-12
            assert len(record["genealogy"]) == 2**n - 1
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
        cold = solver.hierarchical_solve(cfg.ifs, 5, cfg.residual_tol)
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
            m.setattr(cli, "ORDER_RULE", "refined-even/min32/safety18")
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
        want = [rule.order for rule in refined_rules(bands, "gap")]
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
        # the mean path needs a point on every band of generation n_max = 4
        monkeypatch.setattr(cli, "solve_all", _solver_must_not_run)
        path = write_config(tmp_path, n_max=4, sample_count=8)
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "sample_count >= 16" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


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

    def test_persistent_collision(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analytics, "_collides", lambda *args: True)
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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert len(list((tmp_path / "out").glob("gen_*.json"))) == 4


class TestSolutionCache:
    def test_corrupt_record_ignored(self, tmp_path):
        cache = SolutionCache(tmp_path)
        cache.directory.mkdir(exist_ok=True)
        (tmp_path / "gen_1.json").write_text("{ not json")
        assert cache.load(1, "abc") is None

    def test_wrong_fingerprint_ignored(self, tmp_path):
        cache = SolutionCache(tmp_path)
        cache.store({"generation": 1, "fingerprint": "aaa"})
        assert cache.load(1, "bbb") is None
        assert cache.load(1, "aaa") is not None


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
               "solver.solve_generation", "analytics.mean_potential_on_attractor_points",
               "cli.SolutionCache.store", "cli.SolutionCache.load")

    def test_capacity_run_counts_every_span(self, tmp_path, capsys):
        tracer = _bench_module("tracer")
        trace = tracer.Tracer()
        path = write_config(tmp_path, n_max=4, quadrature_order=64, sample_count=64)
        tracer.install(trace, cli, solver, analytics)
        # The generation loop runs in ``solver``, so the benchmark's spans at
        # ``cli.solve_generation`` and ``cli.generate_bands`` stay empty until
        # it wraps them where ``solver`` looks them up; wrap them there too.
        # ``solve_generation`` takes its band system from its start roots, so
        # the generation is read from ``initial`` (the benchmark's
        # ``_solve_counts`` still reads a ``bands`` argument).
        trace.patch(solver, "solve_generation", "solver.solve_generation",
                    lambda args, result: {"generation": args["initial"].bands.generation,
                                          "iterations": result.iterations_used})
        trace.patch(solver, "generate_bands", "geometry.generate_bands")
        try:
            assert main(["capacity", "--config", str(path)]) == 0
        finally:
            trace.restore()
        names = {span.name for span in trace.spans}
        assert set(self.COUNTED) <= names
        assert "kernel.kernel_log_magnitude" not in names
        assert "geometry.generate_bands" in names
        for span in trace.spans:
            if span.name in self.COUNTED and span.error is None:
                assert span.counts, span.name
        assert cli.solve_generation is solver.solve_generation
