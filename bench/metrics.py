"""Names and units of every metric the benchmark reports.

``END_TO_END`` is what a user of the CLI sees, measured with tracing off.
``PER_LAYER`` comes from one traced run (see ``tracer``): counts, busy
time and ratios at the boundary of each package module.  ``COUNTS`` are
the per-layer metrics that must repeat exactly between two traced runs of
one seed.  ``BENCHMARK.json`` lists the same names; ``selftest.py`` checks
that the two agree.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

KERNEL_CALLS = ("kernel.gap_integral", "kernel.gap_jacobian_row",
                "kernel.band_integral")

FIGURE_NAMES = (
    "residuals_before_after", "jacobian_decay", "lambda_vs_n", "Omega_vs_n",
    "Omega_of_x", "gapmeasure_fit", "potential_profile", "capacity_table",
)


def _per_layer_units():
    units = {}
    for name in KERNEL_CALLS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.nodes": "count"})
    units.update({
        "kernel.max_order": "count",
        "kernel.collision_bumps": "count",
        "kernel.kernel_log_magnitude.calls": "count",
        "kernel.kernel_log_magnitude.s": "s",
        "kernel.kernel_log_magnitude.terms": "count",
        "solver.mean_nodes_per_gap": "nodes/gap",
        "solver.solve_generation.calls": "count",
        "solver.solve_generation.s": "s",
        "solver.solve_generation.self_s": "s",
        "solver.deepest_gen_s": "s",
        "solver.newton_iterations": "count",
        "solver.residual_evals": "count",
        "solver.line_search_halvings": "count",
        "solver.step_accept_ratio": "ratio",
        "analytics.mean_potential_on_attractor_points.calls": "count",
        "analytics.mean_potential_on_attractor_points.s": "s",
        "analytics.mean_potential_on_attractor_points.log_terms": "count",
        "analytics.capacity_estimate.calls": "count",
        "analytics.capacity_estimate.s": "s",
        "analytics.fit_exponential.calls": "count",
        "analytics.fit_exponential.s": "s",
        "analytics.potential_at.calls": "count",
        "analytics.potential_at.s": "s",
        "analytics.potential_at.edge_dev": "abs_err",
        "analytics.integrated_measure_at.calls": "count",
        "analytics.integrated_measure_at.s": "s",
        "cli.SolutionCache.store.calls": "count",
        "cli.SolutionCache.store.s": "s",
        "cli.SolutionCache.store.bytes": "B",
        "cli.SolutionCache.load.calls": "count",
        "cli.SolutionCache.load.s": "s",
        "cli.SolutionCache.load.hits": "count",
        "cli.RunConfig.from_file.s": "s",
    })
    for fig in FIGURE_NAMES:
        units[f"cli.write_figure.{fig}.s"] = "s"
    units["cli.write_figure.bytes"] = "B"
    units.update({"geometry.generate_bands.calls": "count",
                  "geometry.generate_bands.s": "s"})
    for layer in LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
        if layer != "cli":
            units[f"{layer}.share"] = "ratio"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count"})
    return units


PER_LAYER = _per_layer_units()

COUNTS = tuple(name for name, unit in PER_LAYER.items()
               if unit in ("count", "B", "nodes/gap"))


def per_layer_values(spans, untraced_wall: float, edge_dev: float) -> dict:
    """Every ``PER_LAYER`` value from the spans of one traced command.

    ``spans[0]`` must be the root ``cli.main`` span around the command.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    totals = defaultdict(lambda: defaultdict(int))
    child_time = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += span.duration
        for key, value in span.counts.items():
            if isinstance(value, int):
                totals[span.name][key] += value
        if span.parent is not None:
            child_time[span.parent] += span.duration

    wall = spans[0].duration
    out = {}
    for name in KERNEL_CALLS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy[name]
        out[f"{name}.nodes"] = totals[name]["nodes"]
    kernel_spans = [s for s in spans if s.name in KERNEL_CALLS]
    out["kernel.max_order"] = max((s.counts.get("nodes", 0) for s in kernel_spans),
                                  default=0)
    out["kernel.collision_bumps"] = sum(s.error == "ExactNodeCollision"
                                        for s in kernel_spans)
    klm = "kernel.kernel_log_magnitude"
    out[f"{klm}.calls"] = calls[klm]
    out[f"{klm}.s"] = busy[klm]
    out[f"{klm}.terms"] = totals[klm]["terms"]

    # Newton bookkeeping read off the kernel calls: every residual vector
    # evaluates gap 0 exactly once successfully, the first one per
    # generation is the starting residual, and each accepted step is one
    # line-search trial; rejected trials are halvings.
    solve = "solver.solve_generation"
    solve_spans = [i for i, s in enumerate(spans) if s.name == solve]
    solve_ids = set(solve_spans)
    gap_spans = [s for s in spans if s.name == "kernel.gap_integral"
                 and s.parent in solve_ids]
    residual_evals = sum(s.counts.get("i") == 0 for s in gap_spans)
    iterations = totals[solve]["iterations"]
    trials = residual_evals - len(solve_spans)
    out["solver.mean_nodes_per_gap"] = (
        sum(s.counts.get("nodes", 0) for s in gap_spans) / len(gap_spans)
        if gap_spans else 0.0)
    out[f"{solve}.calls"] = calls[solve]
    out[f"{solve}.s"] = busy[solve]
    out[f"{solve}.self_s"] = sum(spans[i].duration - child_time[i] for i in solve_spans)
    out["solver.deepest_gen_s"] = (
        max((spans[i] for i in solve_spans),
            key=lambda s: s.counts["generation"]).duration
        if solve_spans else 0.0)
    out["solver.newton_iterations"] = iterations
    out["solver.residual_evals"] = residual_evals
    out["solver.line_search_halvings"] = trials - iterations
    out["solver.step_accept_ratio"] = iterations / trials if trials else 0.0

    for name in ("analytics.mean_potential_on_attractor_points",
                 "analytics.capacity_estimate", "analytics.fit_exponential",
                 "analytics.potential_at", "analytics.integrated_measure_at",
                 "cli.SolutionCache.store", "cli.SolutionCache.load",
                 "geometry.generate_bands"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = busy[name]
    out["analytics.mean_potential_on_attractor_points.log_terms"] = totals[
        "analytics.mean_potential_on_attractor_points"]["log_terms"]
    out["analytics.potential_at.edge_dev"] = edge_dev
    out["cli.SolutionCache.store.bytes"] = totals["cli.SolutionCache.store"]["bytes"]
    out["cli.SolutionCache.load.hits"] = totals["cli.SolutionCache.load"]["hits"]
    out["cli.RunConfig.from_file.s"] = busy["cli.RunConfig.from_file"]
    for fig in FIGURE_NAMES:
        out[f"cli.write_figure.{fig}.s"] = sum(
            s.duration for s in spans
            if s.name == "cli.write_figure" and s.counts.get("figure") == fig)
    out["cli.write_figure.bytes"] = totals["cli.write_figure"]["bytes"]

    # Per layer: inclusive time of the outermost spans of that layer, and
    # self time (span time not covered by a traced child) summed over all
    # its spans.  Self times of the five layers add up to the traced wall.
    for layer in LAYERS:
        inclusive = self_time = 0.0
        for i, span in enumerate(spans):
            if span.layer != layer:
                continue
            self_time += span.duration - child_time[i]
            parent = span.parent
            while parent is not None and spans[parent].layer != layer:
                parent = spans[parent].parent
            if parent is None:
                inclusive += span.duration
        out[f"{layer}.s"] = inclusive
        out[f"{layer}.self_s"] = self_time
        if layer != "cli":
            out[f"{layer}.share"] = inclusive / wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.spans"] = len(spans)
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer names out of step: {set(out) ^ set(PER_LAYER)}")
    return out
