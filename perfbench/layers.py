"""Layer boundaries of quiver_schubert, as the traced run wraps them.

Each wrapper is installed on the name the *caller* looks up, because a
`from .x import f` binds f into the importing module:

- `oracle` binds `iter_solutions_mod`, `mat_vec_mod` and
  `lagrange_interpolate` at import, so they are wrapped as
  `quiver_schubert.oracle.*`; `solve_mod` is reached through the `linalg`
  module global inside `iter_solutions_mod`.
- `count` reaches `oracle._cell_points` through the module global.
- the package attribute `quiver_schubert.catalog` is the function, so the
  `catalog` module comes from `importlib`.
- `WindingContext.epsilon` is a method and is wrapped on the class.
"""

from __future__ import annotations

# metric name -> unit, in the order of BENCHMARK.json
UNITS = {
    "linalg.solve_mod.calls": "count",
    "linalg.solve_mod.self_s": "s",
    "linalg.solve_mod.inconsistent": "count",
    "linalg.iter_solutions_mod.yielded": "count",
    "linalg.iter_solutions_mod.self_s": "s",
    "linalg.mat_vec_mod.calls": "count",
    "linalg.mat_vec_mod.self_s": "s",
    "linalg.lagrange_interpolate.calls": "count",
    "linalg.lagrange_interpolate.self_s": "s",
    "oracle._cell_points.calls": "count",
    "oracle._cell_points.nonempty": "count",
    "oracle._cell_points.points": "count",
    "oracle._cell_points.self_s": "s",
    "oracle.point_yield": "ratio",
    "oracle.count.calls": "count",
    "oracle.count.repeat_ratio": "ratio",
    "oracle.count.self_s": "s",
    "schubert.enumerate_cells.calls": "count",
    "schubert.enumerate_cells.cells": "count",
    "schubert.enumerate_cells.self_s": "s",
    "schubert.generate_equations.calls": "count",
    "schubert.generate_equations.equations": "count",
    "schubert.generate_equations.self_s": "s",
    "schubert.tree.calls": "count",
    "schubert.tree.self_s": "s",
    "hypothesis_h.check_hypothesis_h.calls": "count",
    "hypothesis_h.check_hypothesis_h.self_s": "s",
    "hypothesis_h.classify_triple.calls": "count",
    "hypothesis_h.epsilon.calls": "count",
    "hypothesis_h.relevant_pairs.pairs": "count",
    "quiver.predicates.calls": "count",
    "quiver.predicates.self_s": "s",
    "representation.push_forward.calls": "count",
    "representation.push_forward.self_s": "s",
    "representation.is_ordered_above.self_s": "s",
    "catalog.catalog.calls": "count",
    "catalog.catalog.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "points_per_s": "1/s",
    "trace.overhead_s": "s",
}


def instrument(tracer, qs) -> None:
    """Wrap every layer boundary of the imported package `qs` with `tracer`."""
    linalg, oracle, schubert = qs.linalg, qs.oracle, qs.schubert
    hyp, cli, catalog = qs.hypothesis_h, qs.cli, qs.catalog
    count_keys: set[tuple] = set()

    def solved(args, kwargs, result):
        if result is None:
            tracer.add("linalg.solve_mod.inconsistent")

    def counted(args, kwargs, result):
        rep, e = args[0], args[1]
        key = (repr(rep), tuple(sorted(e.items())))
        for report in result:
            count_keys.add(key + (report.prime,))
            tracer.add("oracle.count.requests")
        tracer.counters["oracle.count.distinct"] = len(count_keys)

    def cells(args, kwargs, result):
        tracer.add("schubert.enumerate_cells.cells", len(result))

    def equations(args, kwargs, result):
        tracer.add("schubert.generate_equations.equations", len(result.equations))

    def pairs(args, kwargs, result):
        tracer.add("hypothesis_h.relevant_pairs.pairs", len(result))

    tracer.wrap(linalg, "solve_mod", "linalg.solve_mod", solved)
    tracer.wrap_generator(oracle, "iter_solutions_mod", "linalg.iter_solutions_mod",
                          "linalg.iter_solutions_mod.yielded")
    tracer.wrap(oracle, "mat_vec_mod", "linalg.mat_vec_mod")
    tracer.wrap(oracle, "lagrange_interpolate", "linalg.lagrange_interpolate")
    tracer.wrap_generator(oracle, "_cell_points", "oracle._cell_points",
                          "oracle._cell_points.points", "oracle._cell_points.nonempty")
    for owner in (oracle, cli):
        tracer.wrap(owner, "count", "oracle.count", counted)
    for owner in (schubert, oracle, cli):
        tracer.wrap(owner, "enumerate_cells", "schubert.enumerate_cells", cells)
    for owner in (schubert, cli):
        tracer.wrap(owner, "generate_equations", "schubert.generate_equations", equations)
    for attr in ("tree_cell_emptiness", "tree_cell_dimension"):
        tracer.wrap(schubert, attr, "schubert.tree")
    for owner in (hyp, cli):
        tracer.wrap(owner, "check_hypothesis_h", "hypothesis_h.check_hypothesis_h")
    tracer.wrap(hyp, "classify_triple", "hypothesis_h.classify_triple")
    tracer.wrap(hyp.WindingContext, "epsilon", "hypothesis_h.epsilon")
    tracer.wrap(hyp, "relevant_pairs", "hypothesis_h.relevant_pairs", pairs)
    for owner, attrs in (
        (schubert, ("is_winding", "is_tree_extension", "is_strictly_ordered")),
        (hyp, ("is_tree_extension", "is_strictly_ordered")),
        (cli, ("is_winding", "is_tree_extension", "is_strictly_ordered")),
    ):
        for attr in attrs:
            tracer.wrap(owner, attr, "quiver.predicates")
    for owner in (catalog, cli):
        tracer.wrap(owner, "push_forward", "representation.push_forward")
    for owner in (schubert, hyp):
        tracer.wrap(owner, "is_ordered_above", "representation.is_ordered_above")
    for owner in (catalog, cli):
        tracer.wrap(owner, "catalog", "catalog.catalog")
    tracer.wrap(cli, "main", "cli.main")


def per_layer_metrics(tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    self_s = tracer.self_seconds()
    calls, counters = tracer.calls, tracer.counters
    points = counters.get("oracle._cell_points.points", 0)
    yielded = counters.get("linalg.iter_solutions_mod.yielded", 0)
    requests = counters.get("oracle.count.requests", 0)
    distinct = counters.get("oracle.count.distinct", 0)
    out: dict[str, float] = {}
    for name in UNITS:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(stem, 0)
        elif field == "self_s":
            out[name] = self_s.get(stem, 0.0)
        else:
            out[name] = counters.get(name, 0)
    out["oracle.point_yield"] = points / yielded if yielded else 0.0
    out["oracle.count.repeat_ratio"] = requests / distinct if distinct else 0.0
    out["points_per_s"] = points / untraced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out
