"""The benchmark's workloads: job lists, pinned answers and answer checks.

Every workload is a fixed job list run by one caller in a closed loop.
The seed changes only the job order and, in `qs_session`, which
`forest_block` seeds are drawn; it never changes the job menu.  The
pinned answers come from the paper's worked examples and from Cerulli
Irelli-Feigin-Reineke (2012), where the Euler characteristics 7 and 38
of `degenerate_flag(2)` and `degenerate_flag(3)` are normalised median
Genocchi numbers.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Every oracle job passes its budget explicitly, so a change of the
# package's default budget cannot silently turn a job into exit 3.
BUDGET = 10**8


@dataclass
class Job:
    name: str
    call: Callable[[], object]  # the timed region
    summarize: Callable[[object], object]  # the answer, taken after the timer stops
    expected: object = None  # pinned answer; None for seeded jobs checked by invariants
    group: int | None = None  # forest_block seed of a seeded job


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (package namespace, random.Random) -> list[Job]
    nominal_pass_s: float  # one pass on the reference machine; sets the pass count
    why: str


# -- oracle_flags ------------------------------------------------------------


def _count_summary(reports):
    (report,) = reports
    return {
        "total": report.total,
        "nonempty": sum(1 for c in report.per_cell.values() if c),
        "cells": len(report.per_cell),
    }


def _oracle_flags(qs, rng):
    df4 = qs.catalog.catalog("degenerate_flag(4)")
    df3 = qs.catalog.catalog("degenerate_flag(3)")
    dpi3 = qs.catalog.catalog("degenerate_flag_pi(3)")

    def count(entry, q):
        return lambda: qs.oracle.count(
            entry.representation, dict(entry.dim_vector), primes=(q,), budget=BUDGET
        )

    jobs = [
        Job("count degenerate_flag(4) q=2", count(df4, 2), _count_summary,
            {"total": 26961, "nonempty": 295, "cells": 2500}),
        Job("count degenerate_flag(3) q=5", count(df3, 5), _count_summary,
            {"total": 42066, "nonempty": 38, "cells": 96}),
        Job(
            "poincare_polynomial degenerate_flag(3) primes 2,3",
            lambda: qs.oracle.poincare_polynomial(
                df3.representation, dict(df3.dim_vector), primes=(2, 3), budget=BUDGET
            ),
            lambda r: {"chi": sum(r.betti.values()), "betti": {str(k): v for k, v in sorted(r.betti.items())}},
            # 1 + 3t^2 + 7t^4 + 10t^6 + 10t^8 + 6t^10 + t^12
            {"chi": 38, "betti": {"0": 1, "2": 3, "4": 7, "6": 10, "8": 10, "10": 6, "12": 1}},
        ),
        Job(
            "euler_characteristic degenerate_flag_pi(3) primes 2,3",
            lambda: qs.oracle.euler_characteristic(
                dpi3.representation, dict(dpi3.dim_vector), primes=(2, 3), budget=BUDGET
            ),
            lambda r: r.chi,
            38,
        ),
    ]
    rng.shuffle(jobs)
    return jobs


# -- winding_h ---------------------------------------------------------------


def _winding_h(qs, rng):
    entries = {
        spec: qs.catalog.catalog(spec)
        for spec in (
            "kronecker_preprojective(40)",
            "kronecker_preinjective(40)",
            "ex_4_5_1",
            "ex_4_5_2",
            "ex_4_5_5",
            "kronecker_preprojective(12)",
        )
    }
    flag5 = qs.catalog.catalog("flag(5;1,2,3,4)")

    def hypothesis(entry):
        return lambda: qs.hypothesis_h.check_hypothesis_h(entry.upstairs, entry.subquiver, entry.morphism)

    def verdict(result):
        return {"passed": result.passed, "pair": list(result.pair) if result.pair else None}

    def equations(entry):
        # the cells of F_*M, re-indexed over the upstairs basis, as `qs equations` does
        def run():
            rep, source = entry.representation, entry.upstairs
            sizes = []
            for cell in qs.schubert.enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices):
                beta = qs.schubert.cell_index(source.basis, cell.elements)
                system = qs.schubert.generate_equations(source, beta, fibred_via=entry.morphism)
                sizes.append(len(system.equations))
            return {"cells": len(sizes), "equations": sum(sizes)}

        return run

    def tree_cells():
        rep, s = flag5.representation, flag5.subquiver
        dims = []
        cells = qs.schubert.enumerate_cells(rep.basis, dict(flag5.dim_vector), rep.quiver.vertices)
        for cell in cells:
            if not qs.schubert.tree_cell_emptiness(rep, s, cell):
                dims.append(qs.schubert.tree_cell_dimension(rep, s, cell))
        return {"cells": len(cells), "nonempty": len(dims), "dimension_sum": sum(dims)}

    def same(x):
        return x

    jobs = [
        Job(f"check_hypothesis_h {spec}", hypothesis(entries[spec]), verdict, answer)
        for spec, answer in (
            ("kronecker_preprojective(40)", {"passed": True, "pair": None}),
            ("kronecker_preinjective(40)", {"passed": False, "pair": ["79", "81"]}),
            ("ex_4_5_1", {"passed": False, "pair": ["2", "4"]}),
            ("ex_4_5_2", {"passed": False, "pair": ["4", "5"]}),
            ("ex_4_5_5", {"passed": True, "pair": None}),
        )
    ]
    jobs += [
        Job("generate_equations kronecker_preprojective(12)",
            equations(entries["kronecker_preprojective(12)"]), same, {"cells": 936, "equations": 10868}),
        Job("generate_equations ex_4_5_5", equations(entries["ex_4_5_5"]), same,
            {"cells": 112, "equations": 580}),
        Job("tree_cell_emptiness/dimension flag(5;1,2,3,4)", tree_cells, same,
            {"cells": 2500, "nonempty": 120, "dimension_sum": 360}),
    ]
    rng.shuffle(jobs)
    return jobs


# -- qs_session --------------------------------------------------------------

ORACLE_COMMANDS = {"count", "poly", "euler", "poincare", "verify-affine"}


def _cli_fields(cmd: str, data) -> dict:
    """The part of a `--json` answer that the pinned values and invariants check."""
    if cmd == "catalog":
        if isinstance(data, list):
            return {"entries": data}
        return {"name": data["name"], "dim_vector": data["dim_vector"]}
    if cmd == "validate":
        return {"ok": data["ok"]}
    if cmd == "winding":
        return {"winding": data["winding"], "strictly_ordered": data["strictly_ordered"]}
    if cmd == "tree-ext":
        return {"tree_extension": data["tree_extension"]}
    if cmd == "pushforward":
        entries = [x for mat in data["matrices"].values() for row in mat for x in row]
        return {"basis": len(data["basis"]["order"]), "entry_sum": sum(entries)}
    if cmd == "cells":
        return {"cells": len(data)}
    if cmd == "equations":
        return {"systems": len(data), "equations": sum(len(s["eqs"]) for s in data)}
    if cmd == "hypothesis-h":
        return {"passed": data["passed"], "pair": data["pair"]}
    if cmd == "count":
        return {"totals": {str(r["prime"]): r["total"] for r in data}}
    if cmd == "poly":
        return {"coefficients": data["coefficients"]}
    if cmd == "euler":
        return {"chi": data["chi"]}
    if cmd == "poincare":
        return {"betti": data["betti"]}
    if cmd == "verify-affine":
        return {"verdicts": dict(sorted(Counter(v["verdict"] for v in data).items()))}
    raise ValueError(f"no answer check for subcommand {cmd!r}")


def _cli_job(qs, line: str, expected, group=None) -> Job:
    argv = line.split() + ["--json"]
    cmd = argv[0]
    if cmd in ORACLE_COMMANDS:
        argv += ["--budget", str(BUDGET)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qs.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code
        return rc, out.getvalue()

    def summarize(raw):
        rc, out = raw
        return {"rc": rc, **(_cli_fields(cmd, json.loads(out)) if out.strip() else {})}

    return Job(line, call, summarize, expected, group)


# Each menu line runs MENU_REPEATS times per pass; `qs` subcommand, then arguments.
MENU = [
    ('catalog', {'rc': 0, 'entries': ['degenerate_flag', 'degenerate_flag_pi', 'ex_4_5_1', 'ex_4_5_2', 'ex_4_5_5', 'flag', 'forest_block', 'kronecker_preinjective', 'kronecker_preprojective', 'kronecker_regular', 'one_loop', 'one_vertex', 'two_lines']}),
    ('catalog --catalog kronecker_preprojective(10)', {'rc': 0, 'name': 'kronecker_preprojective', 'dim_vector': {'1': 1, '2': 2}}),
    ('validate --catalog two_lines', {'rc': 0, 'ok': True}),
    ('validate --catalog kronecker_preprojective(10)', {'rc': 0, 'ok': True}),
    ('winding --catalog kronecker_preprojective(10)', {'rc': 0, 'winding': True, 'strictly_ordered': True}),
    ('winding --catalog kronecker_preinjective(10)', {'rc': 0, 'winding': True, 'strictly_ordered': True}),
    ('winding --catalog ex_4_5_5', {'rc': 0, 'winding': True, 'strictly_ordered': True}),
    ('tree-ext --catalog flag(3;1,2)', {'rc': 0, 'tree_extension': True}),
    ('tree-ext --catalog ex_4_5_2', {'rc': 0, 'tree_extension': True}),
    ('tree-ext --catalog kronecker_preinjective(10)', {'rc': 0, 'tree_extension': True}),
    ('pushforward --catalog ex_4_5_1', {'rc': 0, 'basis': 4, 'entry_sum': 3}),
    ('pushforward --catalog kronecker_preprojective(10)', {'rc': 0, 'basis': 21, 'entry_sum': 20}),
    ('cells --catalog flag(3;1,2)', {'rc': 0, 'cells': 9}),
    ('cells --catalog kronecker_preinjective(10)', {'rc': 0, 'cells': 110}),
    ('cells --catalog ex_4_5_5', {'rc': 0, 'cells': 112}),
    ('equations --catalog flag(3;1,2)', {'rc': 0, 'systems': 9, 'equations': 6}),
    ('equations --catalog kronecker_preprojective(5)', {'rc': 0, 'systems': 75, 'equations': 340}),
    ('equations --catalog kronecker_preinjective(4)', {'rc': 0, 'systems': 20, 'equations': 72}),
    ('equations --catalog ex_4_5_5', {'rc': 0, 'systems': 112, 'equations': 580}),
    ('hypothesis-h --catalog ex_4_5_1', {'rc': 1, 'passed': False, 'pair': ['2', '4']}),
    ('hypothesis-h --catalog ex_4_5_2', {'rc': 1, 'passed': False, 'pair': ['4', '5']}),
    ('hypothesis-h --catalog ex_4_5_5', {'rc': 0, 'passed': True, 'pair': None}),
    ('hypothesis-h --catalog kronecker_preprojective(10)', {'rc': 0, 'passed': True, 'pair': None}),
    ('hypothesis-h --catalog kronecker_preinjective(10)', {'rc': 1, 'passed': False, 'pair': ['19', '21']}),
    ('count --catalog two_lines', {'rc': 0, 'totals': {'2': 5, '3': 7, '5': 11}}),
    ('count --catalog degenerate_flag(2)', {'rc': 0, 'totals': {'2': 25, '3': 61, '5': 211}}),
    ('count --catalog kronecker_regular(3,1)', {'rc': 0, 'totals': {'2': 1, '3': 1, '5': 1}}),
    ('count --catalog one_loop(4,0) --primes 7', {'rc': 0, 'totals': {'7': 1}}),
    ('count --catalog one_loop(4,1) --primes 11', {'rc': 0, 'totals': {'11': 1}}),
    ('count --catalog kronecker_preinjective(4)', {'rc': 0, 'totals': {'2': 3, '3': 4, '5': 6}}),
    ('poly --catalog two_lines', {'rc': 0, 'coefficients': ['1', '2']}),
    ('poly --catalog flag(3;1,2)', {'rc': 0, 'coefficients': ['1', '2', '2', '1']}),
    ('poly --catalog degenerate_flag(2)', {'rc': 0, 'coefficients': ['1', '2', '3', '1']}),
    ('poly --catalog kronecker_regular(3,1)', {'rc': 0, 'coefficients': ['1']}),
    ('poly --catalog kronecker_preprojective(3)', {'rc': 0, 'coefficients': ['1', '1', '1']}),
    ('poly --catalog ex_4_5_2', {'rc': 0, 'coefficients': ['1', '2', '3', '1']}),
    ('euler --catalog degenerate_flag(2)', {'rc': 0, 'chi': 7}),
    ('euler --catalog one_loop(4,0)', {'rc': 0, 'chi': 1}),
    ('euler --catalog one_loop(4,1)', {'rc': 0, 'chi': 1}),
    ('euler --catalog kronecker_preprojective(5)', {'rc': 0, 'chi': 5}),
    ('euler --catalog ex_4_5_5', {'rc': 0, 'chi': 4}),
    ('euler --catalog ex_4_5_2', {'rc': 1}),
    ('poincare --catalog flag(3;1,2)', {'rc': 0, 'betti': {'0': 1, '2': 2, '4': 2, '6': 1}}),
    ('poincare --catalog degenerate_flag(2)', {'rc': 0, 'betti': {'0': 1, '2': 2, '4': 3, '6': 1}}),
    ('poincare --catalog kronecker_preinjective(4)', {'rc': 0, 'betti': {'0': 1, '2': 1}}),
    ('poincare --catalog ex_4_5_5', {'rc': 0, 'betti': {'0': 1, '2': 1, '4': 1, '6': 1}}),
    ('verify-affine --catalog two_lines', {'rc': 0, 'verdicts': {'affine': 3, 'empty': 1}}),
    ('verify-affine --catalog kronecker_regular(3,1)', {'rc': 0, 'verdicts': {'affine': 1, 'empty': 8}}),
    ('verify-affine --catalog kronecker_preprojective(3)', {'rc': 0, 'verdicts': {'affine': 3, 'empty': 15}}),
    ('verify-affine --catalog ex_4_5_1', {'rc': 0, 'verdicts': {'affine': 1, 'empty': 3}}),
]
MENU_REPEATS = 5
FOREST_COMMANDS = ("count", "poly", "verify-affine", "euler", "poincare")
FOREST_SIZE = 10
# forest_block entries drawn per pass, by the degree bound sum e(m-e) of
# their counting polynomial.  Below 2 the variety is a point or empty;
# from 4 on `poly` counts at q = 11 and one job can take 0.4 s (at 6,
# minutes), so a few draws would decide a run's time.
FOREST_STRATA = {2: 5, 3: 5}


def _forest_seeds(qs, rng) -> list[int]:
    wanted = dict(FOREST_STRATA)
    seeds = []
    while any(wanted.values()):
        seed = rng.randrange(10**6)
        entry = qs.catalog.catalog(f"forest_block({seed},{FOREST_SIZE})")
        rep, e = entry.representation, entry.dim_vector
        bound = sum(e.get(v, 0) * (rep.rank(v) - e.get(v, 0)) for v in rep.quiver.vertices)
        if wanted.get(bound) and seed not in seeds:
            wanted[bound] -= 1
            seeds.append(seed)
    return seeds


def _qs_session(qs, rng):
    for line, _ in MENU:
        argv = line.split()
        if "--catalog" in argv:
            qs.catalog.catalog(argv[argv.index("--catalog") + 1])
    jobs = [_cli_job(qs, line, expected) for line, expected in MENU for _ in range(MENU_REPEATS)]
    for seed in _forest_seeds(qs, rng):
        for cmd in FOREST_COMMANDS:
            jobs.append(_cli_job(qs, f"{cmd} --catalog forest_block({seed},{FOREST_SIZE})", None, seed))
    rng.shuffle(jobs)
    return jobs


def _eval(coefficients, x: int) -> Fraction:
    # Horner's rule, kept apart from the package's eval_poly that it checks
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + Fraction(c)
    return acc


def group_failures(jobs: list[Job], answers: list) -> set[int]:
    """Indices of seeded jobs that break an invariant of their forest_block entry.

    - `poly` evaluated at each prime of `count` equals the count total there;
    - every `verify-affine` verdict is affine or empty (forest theorem);
    - the Betti numbers of `poincare` sum to the `euler` characteristic.
    """
    groups: dict[int, dict[str, tuple[int, dict]]] = {}
    for i, (job, answer) in enumerate(zip(jobs, answers)):
        if job.group is not None:
            groups.setdefault(job.group, {})[job.name.split()[0]] = (i, answer)
    failed = set()
    for members in groups.values():
        for i, answer in members.values():
            if not isinstance(answer, dict) or answer.get("rc") != 0:
                failed.add(i)
        if set(members) != set(FOREST_COMMANDS) or failed & {i for i, _ in members.values()}:
            continue
        (_, count), (i_poly, poly) = members["count"], members["poly"]
        if any(_eval(poly["coefficients"], int(q)) != total for q, total in count["totals"].items()):
            failed.add(i_poly)
        i_verify, verify = members["verify-affine"]
        if set(verify["verdicts"]) - {"affine", "empty"}:
            failed.add(i_verify)
        (_, euler), (i_poincare, poincare) = members["euler"], members["poincare"]
        if sum(poincare["betti"].values()) != euler["chi"]:
            failed.add(i_poincare)
    return failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle_flags", _oracle_flags, 5.0,
                 "deep vertex-chart chains over many loop-free cells: oracle._cell_points and linalg"),
        Workload("winding_h", _winding_h, 5.5,
                 "structural theory without enumeration: hypothesis_h and schubert; bypasses oracle and linalg"),
        Workload("qs_session", _qs_session, 7.5,
                 "about 300 small in-process qs calls: per-call fixed costs in cli, catalog and recounting"),
    )
}
