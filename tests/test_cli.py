import json
import math
import os

import numpy as np
import pytest

from equimeasure import cli
from equimeasure.cli import (
    FIGURE_NAMES,
    ConfigError,
    RunConfig,
    SolutionCache,
    main,
    solve_all,
)
from equimeasure.geometry import GenerationTooLarge, IfsSystem, generate_bands, validate

BASE_CONFIG = {
    "ifs": [[1 / 3, -1.0], [1 / 3, 1.0]],
    "n_max": 3,
    "quadrature_order": 256,
    "residual_tol": 1e-12,
    "sample_count": 64,
    "cache": True,
}


def write_config(tmp_path, **overrides):
    cfg = {**BASE_CONFIG, "output_dir": str(tmp_path / "out"), **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


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

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUIMEASURE_OUTDIR", str(tmp_path / "elsewhere"))
        cfg = RunConfig.from_file(write_config(tmp_path))
        assert cfg.output_dir == tmp_path / "elsewhere"

    def test_fingerprint_tracks_ifs_order_tol(self, tmp_path):
        base = RunConfig.from_file(write_config(tmp_path))
        same = RunConfig.from_file(write_config(tmp_path, n_max=5, sample_count=7))
        assert base.fingerprint == same.fingerprint
        for change in ({"quadrature_order": 512}, {"residual_tol": 1e-10},
                       {"ifs": [[1 / 3, -1.0], [0.3, 1.0]]}, {"auto_refine": False},
                       {"evaluator": "log"}, {"step_clamp": 1e-8}):
            other = RunConfig.from_file(write_config(tmp_path, **change))
            assert other.fingerprint != base.fingerprint

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

    def test_cache_reuse_and_roundtrip(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        cfg = RunConfig.from_file(path)
        first = [(b, s) for b, s in solve_all(cfg)]
        # second run reuses the cache: no iterations anywhere
        solved = solve_all(cfg)
        assert all(s.iterations_used == 0 for _, s in solved)
        for (_, a), (_, b) in zip(first, solved):
            assert np.array_equal(a.lambdas, b.lambdas)  # bit-exact reload
            assert np.array_equal(a.omegas, b.omegas)
            assert np.array_equal(a.Omegas, b.Omegas)

    def test_fingerprint_mismatch_forces_resolve(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        other = write_config(tmp_path, quadrature_order=300)
        cfg = RunConfig.from_file(other)
        solved = solve_all(cfg)
        assert any(s.iterations_used > 0 for _, s in solved)

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, ifs=[[1.2, -1.0], [1 / 3, 1.0]])
        assert main(["solve", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()
        assert "ifs" in capsys.readouterr().err

    def test_solver_failure_exit_code_and_partial_results(self, tmp_path, capsys):
        # generation 1 converges without iterations; generation 2 cannot
        # finish in a single Newton step, so its record is never written
        path = write_config(tmp_path, residual_tol=1e-13, max_iterations=1,
                            quadrature_order=64, n_max=3)
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "generation" in err
        assert (tmp_path / "out" / "gen_1.json").exists()
        assert not (tmp_path / "out" / "gen_2.json").exists()

    def test_cache_disabled(self, tmp_path):
        path = write_config(tmp_path, cache=False)
        cfg = RunConfig.from_file(path)
        solve_all(cfg)
        solved = solve_all(cfg)
        assert any(s.iterations_used > 0 for _, s in solved)


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


class TestPotentialCommand:
    def test_grid_spec(self, tmp_path):
        path = write_config(tmp_path, n_max=2)
        # leading dash needs the --points=... form to satisfy argparse
        assert main(["potential", "--config", str(path),
                     "--points=-0.9:0.9:7"]) == 0
        header, rows = read_csv(tmp_path / "out" / "potential_points.csv")
        assert header == ["x", "V"]
        assert len(rows) == 7
        assert all(np.isfinite(float(r[1])) for r in rows)

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
        assert main(["potential", "--config", str(path),
                     "--points", "whatever"]) == 2


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
