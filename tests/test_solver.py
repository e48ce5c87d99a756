import numpy as np
import pytest

from equimeasure import kernel, solver
from equimeasure.geometry import IfsSystem, generate_bands, validate
from equimeasure.kernel import (
    MIN_ORDER,
    GapVariables,
    QuadratureRule,
    gap_integral,
    refined_orders,
)
from equimeasure.solver import (
    NoConvergence,
    SingularJacobian,
    hierarchical_solve,
    solve_generation,
    warm_start,
)
from tests.conftest import log_space_residuals, uniform_rules
from tests.test_kernel import adaptive_gap_oracle


def test_jacobian_equals_the_newton_loops_bitwise(asym_run):
    # converged asym n = 5, where one gap takes a graded rule: the figure's
    # Jacobian equals the rows from the reduced kernels a residual pass keeps
    bands, sols = asym_run
    b, s = bands[4], sols[4]
    groups = solver._rules(b, "gap")
    assert any(rule.panels for rule, _ in groups)
    _, kept = solver._residual_vector(s.vars, groups)
    assert kept
    assert np.array_equal(solver.jacobian(s.vars), solver._jacobian(s.vars, kept))


def test_symmetric_start_converges_immediately(ternary):
    b = generate_bands(ternary, 1)
    sol = solve_generation(GapVariables(b, np.zeros(1)), 1e-13)
    assert sol.iterations_used <= 1
    assert abs(sol.lambdas[0]) < 1e-14
    assert sol.max_residual <= 1e-13


def test_no_gap_generation_zero(trivial_band):
    b0, s0 = trivial_band
    assert s0.iterations_used == 0
    assert s0.lambdas.size == 0
    assert s0.omegas.tolist() == [1.0]
    assert s0.Omegas.tolist() == [1.0]


def test_solution_invariants(ternary_run):
    _, sols = ternary_run
    for s in sols:
        assert s.max_residual <= 1e-13
        assert np.all(np.diff(s.Omegas) >= 0.0)
        assert abs(s.Omegas[-1] - 1.0) < 1e-9
        assert np.max(np.abs(s.lambdas)) < 1.0


def test_central_gap_stays_symmetric(ternary_run):
    _, sols = ternary_run
    for s in sols:
        central = s.lambdas.size // 2
        assert abs(s.lambdas[central]) < 1e-13


def test_unique_root_from_random_starts(ternary):
    b = generate_bands(ternary, 3)
    rng = np.random.default_rng(7)
    reference = None
    for _ in range(10):
        init = GapVariables(b, rng.uniform(-0.9, 0.9, b.n_gaps))
        sol = solve_generation(init, 1e-13)
        if reference is None:
            reference = sol.lambdas
        assert np.max(np.abs(sol.lambdas - reference)) < 1e-10


def test_warm_start_mapping(ternary_run):
    bands, sols = ternary_run
    b3, s2 = bands[2], sols[1]
    init = warm_start(b3, s2)
    for g, parent in enumerate(b3.genealogy):
        if parent is None:
            assert init.lambdas[g] == 0.0
        else:
            assert init.lambdas[g] == s2.lambdas[parent]
    cold = warm_start(b3, None)
    assert np.all(cold.lambdas == 0.0)


def test_warm_start_never_slower_than_cold(ternary, ternary_run):
    bands, sols = ternary_run
    for n in range(2, 7):
        b = bands[n - 1]
        warm = solve_generation(warm_start(b, sols[n - 2]), 1e-13)
        cold = solve_generation(GapVariables(b, np.zeros(b.n_gaps)), 1e-13)
        assert warm.iterations_used <= cold.iterations_used


def test_roots_stable_under_quadrature_refinement(ternary, ternary_run):
    # uniform 1024 nodes per gap against the accuracy-driven orders
    bands, sols = ternary_run
    for n in (3, 6):
        b = bands[n - 1]
        init = warm_start(b, sols[n - 2])
        with uniform_rules(1024):
            uniform = solve_generation(init, 1e-13).lambdas
        assert np.max(np.abs(uniform - sols[n - 1].lambdas)) < 1e-10


@pytest.mark.parametrize("run, system, n_max, tol", [
    ("ternary_run", "ternary", 6, 1e-13), ("asym_run", "asym", 7, 1e-12)])
def test_accuracy_driven_orders_match_uniform_2048(run, system, n_max, tol, request):
    _, sols = request.getfixturevalue(run)
    with uniform_rules(2048):
        uniform = hierarchical_solve(request.getfixturevalue(system), n_max, tol)
    for ref, s in zip(uniform, sols):
        assert np.max(np.abs(s.lambdas - ref.lambdas), initial=0.0) <= 1e-13
        assert np.max(np.abs(s.omegas - ref.omegas)) <= 1e-14


def test_accuracy_driven_roots_solve_finer_rules(asym_run, monkeypatch):
    # every gap re-evaluated with at least 2048 nodes; uniform 2048 alone
    # under-resolves the old gaps between deep bands from n=8 on (up to
    # 6e-7), which is why those gaps get their orders from the geometry
    bands, sols = asym_run
    with monkeypatch.context() as m:
        m.setattr(kernel, "MIN_ORDER", 2048)
        finer = [refined_orders(b, "gap").tolist() for b in bands]
    for b, s, orders in zip(bands, sols, finer):
        for i, order in enumerate(orders):
            rule = QuadratureRule.chebyshev(order)
            assert abs(gap_integral(i, s.vars, rule)) <= 1e-12


def test_solver_orders_are_even_and_at_least_minimum(asym, monkeypatch):
    calls = []

    def recording(fn, kind):
        def wrapped(*args, **kwargs):
            indices, vars, rule = args[:3]
            calls.extend((kind, i, vars.bands, rule) for i in indices)
            return fn(*args, **kwargs)
        return wrapped

    for name, kind in (("gap_integral", "gap"), ("gap_jacobian_row", "gap"),
                       ("band_integral", "band")):
        monkeypatch.setattr(solver, name, recording(getattr(solver, name), kind))
    hierarchical_solve(asym, 7, 1e-12)
    band_orders = [rule.order for kind, _, _, rule in calls if kind == "band"]
    assert all(k % 2 == 0 and k >= MIN_ORDER for k in band_orders)
    assert min(band_orders) == MIN_ORDER
    gaps = [(refined_orders(b, "gap")[i], rule) for kind, i, b, rule in calls
            if kind == "gap"]
    assert all(rule.order <= chebyshev for chebyshev, rule in gaps)
    # the thin neighbours of asym n=7 need over 2048 Gauss-Chebyshev nodes
    assert any(chebyshev > 2048 and rule.panels and rule.order < 400
               for chebyshev, rule in gaps)


def test_residual_certificate_adaptive_oracle(ternary_run):
    bands, sols = ternary_run
    for n in (2, 4):
        b, s = bands[n - 1], sols[n - 1]
        for i in range(b.n_gaps):
            assert abs(adaptive_gap_oracle(i, b, s.vars)) < 1e-8


def test_evaluator_swap_gives_same_roots(ternary_run):
    bands, sols = ternary_run
    b, init = bands[4], warm_start(bands[4], sols[3])
    grouped = solve_generation(init, 1e-13)
    with log_space_residuals():
        logged = solve_generation(init, 1e-13)
    assert np.max(np.abs(grouped.lambdas - logged.lambdas)) < 1e-10


def test_no_convergence_carries_diagnostics(ternary, monkeypatch):
    b = generate_bands(ternary, 3)
    bad = GapVariables(b, np.full(b.n_gaps, 0.9))
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    with pytest.raises(NoConvergence) as err:
        solve_generation(bad, 1e-13)
    assert err.value.generation == 3
    assert err.value.lambdas.shape == (b.n_gaps,)
    assert err.value.residuals.shape == (b.n_gaps,)
    assert err.value.iterations == 1


def test_iterates_respect_clamp(ternary):
    # start close to the boundary; no iterate may leave (-1, 1)
    b = generate_bands(ternary, 2)
    init = GapVariables(b, np.array([0.999, -0.999, 0.999]))
    sol = solve_generation(init, 1e-13)
    assert np.max(np.abs(sol.lambdas)) <= 1.0 - solver.STEP_CLAMP


def test_hierarchical_requires_positive_depth(ternary):
    with pytest.raises(ValueError):
        hierarchical_solve(ternary, 0)


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), float("inf")])
def test_residual_tolerance_must_be_positive(ternary, tol):
    b = generate_bands(ternary, 1)
    with pytest.raises(ValueError, match="residual_tol"):
        solve_generation(warm_start(b, None), tol)


def test_hierarchical_error_annotation(ternary, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
    with pytest.raises(NoConvergence) as err:
        hierarchical_solve(ternary, 4, 1e-18)
    assert err.value.generation is not None
    assert hasattr(err.value, "solutions_so_far")


def test_asym_lambda_line_converges_to_limit(asym_run):
    # along each genealogy line the root tends to a limit: differences
    # first shrink geometrically, later fluctuate below the early scale
    bands, sols = asym_run
    m_maps = 2
    idx = 0
    lam_prev = sols[0].lambdas[idx]
    diffs = []
    for n in range(2, 10):
        idx = (idx + 1) * m_maps - 1
        lam = sols[n - 1].lambdas[idx]
        diffs.append(abs(lam - lam_prev))
        lam_prev = lam
    assert all(d2 < d1 for d1, d2 in zip(diffs[:4], diffs[1:5]))
    assert max(diffs[4:]) < 0.05 * diffs[0]
    assert max(diffs) == diffs[0]


@pytest.mark.parametrize("pairs,n_max", [([[0.9, -1.0], [0.001, 1.0]], 4),
                                         ([[0.5, -1.0], [0.001, 1.0]], 4),
                                         ([[0.8, -1.0], [0.01, 1.0]], 5)])
def test_thin_gaps_next_to_wide_bands_converge(pairs, n_max):
    # gaps 1e-6 or less of their coordinates: the own root enters its frame
    # as lambda itself, not via zeta, or the line search stalls on the steps
    # that round trip puts in the residual
    sols = hierarchical_solve(validate(IfsSystem.from_pairs(pairs)), n_max)
    assert [s.generation for s in sols] == list(range(1, n_max + 1))
    assert max(s.max_residual for s in sols) <= 1e-12


class TestNewtonStep:
    @pytest.mark.parametrize("system, n_max, tol", [("ternary", 7, 1e-13), ("asym", 9, 1e-12)])
    def test_gmres_matches_lu(self, system, n_max, tol, request, monkeypatch):
        steps = []

        def recording(jac, rhs):
            step = gmres(jac, rhs)
            steps.append((np.linalg.solve(jac, rhs), step))
            return step

        gmres = solver._gmres
        monkeypatch.setattr(solver, "_gmres", recording)
        hierarchical_solve(request.getfixturevalue(system), n_max, tol)
        assert len(steps) >= 3 * (n_max - 1)
        for lu, step in steps:
            assert np.max(np.abs(step - lu)) <= 1e-13 * np.max(np.abs(lu))

    @pytest.mark.parametrize("jac", [np.array([[1.0, 0.1], [0.2, 0.0]]),
                                     np.array([[1.0, np.nan], [0.2, 1.0]]),
                                     np.array([[1.0, 1.0], [1.0, 1.0]])])
    def test_singular_systems_raise(self, jac):
        with pytest.raises(np.linalg.LinAlgError):
            solver._gmres(jac, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_bad_jacobian_is_a_singular_jacobian(self, ternary, monkeypatch, fill):
        monkeypatch.setattr(solver, "gap_jacobian_row",
                            lambda i, vars, *args: np.full((len(i), vars.bands.n_gaps), fill))
        b = generate_bands(ternary, 2)
        with pytest.raises(SingularJacobian) as err:
            solve_generation(warm_start(b, None))
        assert err.value.generation == 2 and err.value.iterations == 0

    def test_no_lapack_solve(self, asym, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        sols = hierarchical_solve(asym, 6, 1e-12)
        assert max(s.max_residual for s in sols) <= 1e-12


def test_asym_generation_ten_converges(asym):
    # 1023 gaps; about 4 s with graded gap rules, 18 s with Gauss-Chebyshev
    sols = hierarchical_solve(asym, 10, 1e-12)
    assert [s.generation for s in sols] == list(range(1, 11))
    assert max(s.max_residual for s in sols) <= 1e-12


def test_a_root_on_a_node_keeps_its_rule(ternary):
    # gap 3's root on a node of its rule: every gap keeps its group's rule,
    # in the residual and in the Jacobian built from what it kept
    b = generate_bands(ternary, 3)
    groups = solver._rules(b, "gap")
    rule = next(rule for rule, idx in groups if 3 in idx)
    lam = 0.3 * np.cos(np.arange(b.n_gaps))
    lam[3] = rule.nodes[5]
    gv = GapVariables(b, lam)
    r, kept = solver._residual_vector(gv, groups)
    assert list(kept) == [idx for _, idx in groups]
    assert all(kept[idx][0] is group_rule for group_rule, idx in groups)
    used = {i: group_rule for group_rule, idx in groups for i in idx}
    want = [gap_integral(i, gv, used[i]) for i in range(b.n_gaps)]
    assert np.array_equal(r, want)
    assert np.array_equal(solver._jacobian(gv, kept), solver.jacobian(gv))
