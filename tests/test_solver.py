import dataclasses
import tracemalloc

import numpy as np
import pytest

from equimeasure import kernel, solver
from equimeasure.geometry import IfsSystem, OverlappingImages, generate_bands, validate
from equimeasure.kernel import (
    MIN_ORDER,
    GapVariables,
    QuadratureRule,
    gap_integral,
    refined_orders,
)
from equimeasure.solver import (
    EquilibriumSolution,
    NoConvergence,
    SingularJacobian,
    hierarchical_solve,
    solve_generation,
    warm_start,
)
from tests.conftest import (
    ASYM_PAIRS,
    TERNARY_PAIRS,
    log_space_residuals,
    nan_in_gap_0,
    solve_generations,
    uniform_rules,
)
from tests.test_kernel import adaptive_gap_oracle


def test_jacobian_equals_the_newton_loops_bitwise(asym_run):
    # converged asym n = 5, where one gap takes a graded rule: the figure's
    # Jacobian equals the rows from the reduced kernels a residual pass keeps
    bands, sols = asym_run
    b, s = bands[4], sols[4]
    groups = kernel.rule_groups(b, "gap")
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


def test_Omegas_are_derived_from_omegas(asym_run):
    # the running sums are no field: a solution cannot hold an Omega that
    # its omega contradicts, and every solution must name its initial residuals
    fields = {f.name: f for f in dataclasses.fields(EquilibriumSolution)}
    assert list(fields) == ["vars", "residuals", "iterations_used", "omegas",
                            "initial_residuals"]
    assert fields["initial_residuals"].default is dataclasses.MISSING
    s = asym_run[1][4]
    assert np.array_equal(s.Omegas, np.cumsum(s.omegas))
    assert s.Omegas is s.Omegas and not s.Omegas.flags.writeable
    halved = dataclasses.replace(s, omegas=0.5 * s.omegas)
    assert np.array_equal(halved.Omegas, 0.5 * np.cumsum(s.omegas))


def test_hierarchical_solve_leaves_validation_to_the_geometry(ternary):
    # generate_bands validates (and sorts) every system it is given
    reversed_pairs = [[1 / 3, 1.0], [1 / 3, -1.0]]
    sols = solve_generations(IfsSystem.from_pairs(reversed_pairs), 2, 1e-13)
    for a, b in zip(sols, solve_generations(ternary, 2, 1e-13)):
        assert np.array_equal(a.lambdas, b.lambdas)
    with pytest.raises(OverlappingImages):
        solve_generations(IfsSystem.from_pairs([[0.6, -1.0], [0.6, 1.0]]), 2)


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


def test_warm_start_mapping(asym_run):
    # asym n = 5 from n = 4 and n = 3: a new gap starts at its preimage's
    # root, an old gap at its parent's root moved as its preimage last moved
    bands, sols = asym_run
    b5, s4, s3 = bands[4], sols[3], sols[2]
    init = warm_start(b5, s4, s3)
    moved = 0
    for g, (parent, pre) in enumerate(zip(b5.parents.tolist(), b5.preimages.tolist())):
        if parent < 0:
            assert init.lambdas[g] == s4.lambdas[pre]
        elif pre < 0:
            assert init.lambdas[g] == s4.lambdas[parent]
        else:
            grand = s4.vars.bands.parents[pre]
            assert init.lambdas[g] == s4.lambdas[parent] + (s4.lambdas[pre]
                                                            - s3.lambdas[grand])
            moved += 1
    assert moved == 2 + 4 + 8  # the old gaps born at generations 2 .. 4
    # with one solution old gaps keep their parent's root
    one = warm_start(b5, s4)
    for g, parent in enumerate(b5.parents.tolist()):
        if parent >= 0:
            assert one.lambdas[g] == s4.lambdas[parent]
    cold = warm_start(b5, None)
    assert np.all(cold.lambdas == 0.0)


@pytest.mark.parametrize("pairs", [TERNARY_PAIRS, ASYM_PAIRS,
                                   [[0.3, -1.0], [0.1, 0.0], [0.2, 1.0]]])
def test_the_outermost_map_sends_the_preimage_onto_its_gap(pairs):
    # with N bands at generation n - 1, the map with index (g + 1) // N sends
    # gap b.preimages[g] of generation n - 1 onto gap g of generation n; only
    # the M - 1 gaps of generation 1 have no preimage (-1)
    ifs = validate(IfsSystem.from_pairs(pairs))
    for n in range(2, 8):
        prev, b = generate_bands(ifs, n - 1), generate_bands(ifs, n)
        g = np.arange(b.n_gaps)
        pre, d = b.preimages, (g + 1) // prev.n_bands
        assert np.count_nonzero(pre < 0) == ifs.n_maps - 1
        g, pre, d = g[pre >= 0], pre[pre >= 0], d[pre >= 0]
        delta, gamma = ifs.deltas[d], ifs.gammas[d]
        for ends, pre_ends in ((b.gap_los, prev.gap_los), (b.gap_his, prev.gap_his)):
            image = delta * (pre_ends[pre] - gamma) + gamma
            assert np.max(np.abs(image - ends[g])) <= 1e-15


def test_self_similar_starts_take_two_iterations_at_depth(ternary, asym_run):
    _, sols = asym_run
    assert [s.iterations_used for s in sols] == [1, 3, 3, 2, 2, 2, 2, 2, 2]
    sols = solve_generations(ternary, 9, 1e-13)
    assert [s.iterations_used for s in sols] == [0, 3, 3, 3, 3, 2, 2, 2, 2]


@pytest.mark.parametrize("run", ["ternary_run", "asym_run"])
def test_one_more_newton_step_moves_no_root_by_1e_10(run, request):
    # what the absolute stopping rule leaves: at most 6.5e-11 (asym n = 9)
    _, sols = request.getfixturevalue(run)
    for s in sols[1:]:
        r, kept = solver._residual_vector(s.vars, kernel.rule_groups(s.vars.bands, "gap"))
        step = np.linalg.solve(solver._jacobian(s.vars, kept), -r)
        assert np.max(np.abs(step)) <= 1e-10, s.generation


def test_warm_start_rejects_other_generations(ternary, asym_run):
    bands, sols = asym_run
    three = validate(IfsSystem.from_pairs([[0.3, -1.0], [0.1, 0.0], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="previous must be generation 4"):
        warm_start(bands[4], sols[2])
    with pytest.raises(ValueError, match="previous must be generation 1"):
        warm_start(generate_bands(three, 2), sols[0])  # parent 1 of a 1-gap system
    with pytest.raises(ValueError, match="before must be generation 3"):
        warm_start(bands[4], sols[3], sols[1])
    with pytest.raises(ValueError, match="before must be generation 1"):
        warm_start(generate_bands(three, 3), solve_generations(three, 2)[-1],
                   solve_generations(ternary, 1)[-1])


def test_warm_start_rejects_another_system_of_a_dividing_band_count(ternary):
    # a 4-map generation 1 has the 4 bands and 3 gaps of ternary generation 2,
    # and its band count divides those of ternary generations 2 and 3; its
    # gaps are not the ones ternary generation 2 continues
    four = validate(IfsSystem.from_pairs(
        [[0.1, -1.0], [0.1, -0.3], [0.1, 0.3], [0.1, 1.0]]))
    other = solve_generations(four, 1)[-1]
    t1, t2 = solve_generations(ternary, 2)
    b2, b3 = t2.vars.bands, generate_bands(ternary, 3)
    assert other.vars.bands.n_bands == b2.n_bands == 4
    with pytest.raises(ValueError, match="previous must be generation 1"):
        warm_start(b2, other)
    with pytest.raises(ValueError, match="before must be generation 1"):
        warm_start(b3, t2, other)
    # the same calls with ternary solutions are accepted
    assert warm_start(b2, t1).lambdas[1] == t1.lambdas[0]
    assert warm_start(b3, t2, t1).lambdas[3] == t2.lambdas[1]


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
        uniform = solve_generations(request.getfixturevalue(system), n_max, tol)
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
    solve_generations(asym, 7, 1e-12)
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


def test_a_nan_residual_is_no_convergence(ternary, monkeypatch):
    # NaN exceeds no tolerance: the loop must not read it as converged
    monkeypatch.setattr(solver, "gap_integral", nan_in_gap_0)
    b = generate_bands(ternary, 3)
    with pytest.raises(NoConvergence, match="residual nan") as err:
        solve_generation(warm_start(b, None), 1e-13)
    assert err.value.generation == 3 and err.value.iterations == 0
    assert np.isnan(err.value.residuals[0])
    assert np.array_equal(err.value.lambdas, np.zeros(b.n_gaps))


def test_iterates_respect_clamp(ternary):
    # start close to the boundary; no iterate may leave (-1, 1)
    b = generate_bands(ternary, 2)
    init = GapVariables(b, np.array([0.999, -0.999, 0.999]))
    sol = solve_generation(init, 1e-13)
    assert np.max(np.abs(sol.lambdas)) <= 1.0 - solver.STEP_CLAMP


def test_an_empty_sequence_solves_nothing():
    assert hierarchical_solve([]) == []
    assert hierarchical_solve(iter(())) == []


def test_each_band_system_must_refine_the_one_before(ternary, asym, ternary_run):
    # a skipped generation, or a generation of another system, does not
    # continue the gaps of the band system before it: rejected before any
    # solve, also where every band system loads
    bands, sols = ternary_run
    with pytest.raises(ValueError, match="previous must be generation 2"):
        hierarchical_solve(generate_bands(ternary, n) for n in (1, 3))
    with pytest.raises(ValueError, match="previous must be generation 1"):
        hierarchical_solve([generate_bands(ternary, 1), generate_bands(asym, 2)])
    with pytest.raises(ValueError, match="previous must be generation 3"):
        hierarchical_solve([bands[0], bands[1], bands[3]], load=lambda b: sols[b.generation - 1])
    with pytest.raises(ValueError, match="previous must be generation 1"):
        hierarchical_solve([generate_bands(asym, 1), bands[1]], load=lambda b: sols[1])


@pytest.mark.parametrize("loaded", [5, 3, 0])
def test_only_generations_that_do_not_load_are_started(ternary_run, monkeypatch, loaded):
    # records for generations 1..loaded: those are checked, never started, and
    # the generations after them start and solve as in one cold run
    bands, sols = ternary_run
    started = []

    def spy(b, *before):
        started.append(b.generation)
        return warm_start(b, *before)

    monkeypatch.setattr(solver, "warm_start", spy)
    got = hierarchical_solve(bands[:5], 1e-13, load=lambda b: (
        sols[b.generation - 1] if b.generation <= loaded else None))
    assert started == list(range(loaded + 1, 6))
    assert all(a is b for a, b in zip(got, sols[:loaded]))
    for a, b in zip(got[loaded:], sols[loaded:5]):
        assert a.lambdas.tobytes() == b.lambdas.tobytes()


def test_a_sequence_may_start_at_generation_0(ternary, ternary_run):
    # generation 0, the hull alone, has no gaps to start generation 1 from,
    # so the solutions after it are those of a sequence from generation 1
    sols = hierarchical_solve((generate_bands(ternary, n) for n in range(4)), 1e-13)
    assert [s.generation for s in sols] == [0, 1, 2, 3]
    assert sols[0].lambdas.size == 0 and sols[0].omegas.tolist() == [1.0]
    for a, b in zip(sols[1:], ternary_run[1]):
        assert a.lambdas.tobytes() == b.lambdas.tobytes()
        assert a.iterations_used == b.iterations_used


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), float("inf")])
def test_residual_tolerance_must_be_positive(ternary, tol):
    b = generate_bands(ternary, 1)
    with pytest.raises(ValueError, match="residual_tol"):
        solve_generation(warm_start(b, None), tol)


def test_hierarchical_error_annotation(ternary, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
    with pytest.raises(NoConvergence) as err:
        solve_generations(ternary, 4, 1e-18)
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
    sols = solve_generations(validate(IfsSystem.from_pairs(pairs)), n_max)
    assert [s.generation for s in sols] == list(range(1, n_max + 1))
    assert max(s.max_residual for s in sols) <= 1e-12


class TestNewtonStep:
    @pytest.mark.parametrize("system, n_max, tol", [("ternary", 7, 1e-13), ("asym", 9, 1e-12)])
    def test_gmres_matches_lu(self, system, n_max, tol, request, monkeypatch):
        steps = []

        def recording(jac, rhs):
            lu = np.linalg.solve(jac, rhs)  # before _gmres scales jac in place
            steps.append((lu, gmres(jac, rhs)))
            return steps[-1][1]

        gmres = solver._gmres
        monkeypatch.setattr(solver, "_gmres", recording)
        sols = solve_generations(request.getfixturevalue(system), n_max, tol)
        assert len(steps) == sum(s.iterations_used for s in sols)
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
        sols = solve_generations(asym, 6, 1e-12)
        assert max(s.max_residual for s in sols) <= 1e-12


@pytest.mark.parametrize("system, tol", [("ternary", 1e-13), ("asym", 1e-12)])
def test_a_newton_step_holds_one_matrix(system, tol, request):
    # generation 9 (511 gaps, 2 Newton steps): above its start the solve
    # allocates one N x N Jacobian at a time, which GMRES scales in place,
    # and temporaries of bounded size; two matrices' worth at most
    ifs = request.getfixturevalue(system)
    sols = list(request.getfixturevalue(f"{system}_run")[1][:8])
    while len(sols) < 8:
        sols.append(solve_generation(
            warm_start(generate_bands(ifs, len(sols) + 1), sols[-1], sols[-2]), tol))
    start = warm_start(generate_bands(ifs, 9), sols[-1], sols[-2])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = solve_generation(start, tol)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n = sol.vars.bands.n_gaps
    assert sol.iterations_used >= 1
    assert peak <= 2 * 8 * n * n, peak / (8 * n * n)


def test_asym_generation_ten_converges(asym):
    # 1023 gaps; about 4 s with graded gap rules, 18 s with Gauss-Chebyshev
    sols = solve_generations(asym, 10, 1e-12)
    assert [s.generation for s in sols] == list(range(1, 11))
    assert max(s.max_residual for s in sols) <= 1e-12


def test_a_root_on_a_node_keeps_its_rule(ternary):
    # gap 3's root on a node of its rule: every gap keeps its group's rule,
    # in the residual and in the Jacobian built from what it kept
    b = generate_bands(ternary, 3)
    groups = kernel.rule_groups(b, "gap")
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
