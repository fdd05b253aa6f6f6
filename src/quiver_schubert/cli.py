"""Command-line front end.

Exit codes: 0 success, 1 a check failed (invalid quiver, (H) fails,
no affine certificate), 2 input error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import CatalogEntry, catalog, catalog_names
from .hypothesis_h import check_hypothesis_h
from .oracle import (
    AffineCertificateError,
    BudgetExceededError,
    DEFAULT_BUDGET,
    count,
    counting_polynomial,
    euler_characteristic,
    poincare_polynomial,
    verify_affine,
)
from .quiver import (
    is_strictly_ordered,
    is_tree_extension,
    is_winding,
    morphism_from_json,
    quiver_from_json,
    subquiver,
    validate,
)
from .representation import (
    push_forward,
    reorder_basis,
    representation_from_json,
    representation_to_json,
)
from .schubert import PreconditionError, cell_index, enumerate_cells, generate_equations


class InputError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qs", description="Schubert decompositions of quiver Grassmannians")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--catalog", help="catalog spec, e.g. flag(3;1,2)")
        p.add_argument("--quiver", help="path to a quiver JSON file")
        p.add_argument("--rep", help="path to a representation JSON file")
        p.add_argument("--morphism", help="path to a morphism JSON file (with --target-quiver)")
        p.add_argument("--target-quiver", help="codomain quiver JSON for --morphism")
        p.add_argument("--subquiver", help="vertices;arrows, e.g. 1,2;a1")
        p.add_argument("--dim-vector", help="comma list in vertex order, e.g. 1,1")
        p.add_argument("--beta", help="comma list of basis ids, e.g. b2,b4")
        p.add_argument("--order", help="comma list reordering the basis")
        p.add_argument("--primes", help="comma list of primes, e.g. 2,3,5")
        p.add_argument("--budget", type=int, default=None, help="enumeration budget")
        p.add_argument("--assert-smooth", action="store_true")
        p.add_argument("--json", dest="as_json", action="store_true")
        p.add_argument("--text", dest="as_json", action="store_false")
        p.set_defaults(as_json=False)
        return p

    for name, text in [
        ("validate", "check quiver invariants"),
        ("winding", "check the winding and strictly-ordered predicates"),
        ("tree-ext", "check that T is a tree extension of S"),
        ("pushforward", "compute F_*M"),
        ("cells", "enumerate Schubert cells of a dimension vector"),
        ("equations", "emit the defining equations of a cell"),
        ("hypothesis-h", "decide Hypothesis (H) for a catalog winding"),
        ("count", "count F_q points per cell"),
        ("poly", "interpolate the counting polynomial"),
        ("euler", "Euler characteristic via certified affine cells"),
        ("poincare", "Poincare polynomial of certified cells"),
        ("verify-affine", "certify cells as affine spaces numerically"),
        ("catalog", "list catalog entries or show one"),
    ]:
        add(name, text)
    return parser


def _load_rep(args, entry: CatalogEntry | None):
    if entry is not None:
        rep = entry.representation
    elif args.rep:
        with open(args.rep) as fh:
            rep = representation_from_json(fh.read())
    else:
        raise InputError("need --catalog or --rep")
    if args.order:
        rep = reorder_basis(rep, [b.strip() for b in args.order.split(",")])
    return rep


def _load_winding(args, entry: CatalogEntry | None):
    """(upstairs module, winding) of a catalog winding or of --rep/--morphism/--target-quiver."""
    if entry is not None and entry.morphism is not None:
        return entry.upstairs, entry.morphism
    if not (args.morphism and args.target_quiver and args.rep):
        raise InputError("need a catalog winding or --rep/--morphism/--target-quiver")
    rep = _load_rep(args, entry)
    with open(args.target_quiver) as fh:
        codomain = quiver_from_json(fh.read())
    with open(args.morphism) as fh:
        return rep, morphism_from_json(fh.read(), rep.quiver, codomain)


def _dim_vector(args, rep, entry: CatalogEntry | None):
    if not args.dim_vector:
        if entry is not None:
            return dict(entry.dim_vector)
        raise InputError("need --dim-vector")
    parts = [int(x) for x in args.dim_vector.split(",")]
    if len(parts) != len(rep.quiver.vertices):
        raise InputError(
            f"--dim-vector needs {len(rep.quiver.vertices)} entries "
            f"(vertex order: {', '.join(rep.quiver.vertices)})"
        )
    return dict(zip(rep.quiver.vertices, parts))


def _primes(args, default=(2, 3, 5)):
    if args.primes:
        return tuple(int(x) for x in args.primes.split(","))
    return default


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("QS_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def _emit(args, data, text: str) -> None:
    if args.as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _quiver_of(args, entry: CatalogEntry | None):
    if entry is not None:
        return entry.representation.quiver
    if args.quiver:
        with open(args.quiver) as fh:
            return quiver_from_json(fh.read())
    if args.rep:
        return _load_rep(args, None).quiver
    raise InputError("need --catalog, --quiver or --rep")


def _subquiver_of(args, q, entry):
    if args.subquiver:
        groups = args.subquiver.split(";")
        verts = [v.strip() for v in groups[0].split(",") if v.strip()]
        arrows = [a.strip() for a in groups[1].split(",")] if len(groups) > 1 else []
        return subquiver(q, verts, [a for a in arrows if a])
    if entry is not None and entry.subquiver is not None:
        return entry.subquiver
    raise InputError("need --subquiver")


def _run(args) -> int:
    cmd = args.command
    entry = catalog(args.catalog) if args.catalog else None
    if cmd == "catalog":
        if entry is not None:
            data = {
                "name": entry.name,
                "params": list(entry.params),
                "dim_vector": dict(entry.dim_vector),
                "representation": json.loads(representation_to_json(entry.representation)),
                "has_winding": entry.morphism is not None,
            }
            _emit(args, data, json.dumps(data, sort_keys=True, indent=2))
        else:
            _emit(args, catalog_names(), "\n".join(catalog_names()))
        return 0

    if cmd == "validate":
        q = _quiver_of(args, entry)
        problems = validate(q)
        _emit(
            args,
            {"ok": not problems, "problems": problems},
            "ok" if not problems else "\n".join(problems),
        )
        return 0 if not problems else 1

    if cmd == "tree-ext":
        q = _quiver_of(args, entry)
        if entry is not None and entry.upstairs is not None:
            q = entry.upstairs.quiver
        s = _subquiver_of(args, q, entry)
        ok = is_tree_extension(q, s)
        _emit(args, {"tree_extension": ok}, "tree extension" if ok else "not a tree extension")
        return 0 if ok else 1

    if cmd == "winding":
        rep, f = _load_winding(args, entry)
        winding = is_winding(f)
        strict = None
        if winding and rep is not None:
            strict = is_strictly_ordered(f, rep.basis.vertex_key(rep.quiver.vertices))
        data = {"winding": winding, "strictly_ordered": strict}
        _emit(args, data, json.dumps(data, sort_keys=True))
        return 0 if winding and strict is not False else 1

    if cmd == "pushforward":
        if entry is not None and entry.morphism is not None:
            pushed = entry.representation
        else:
            rep, f = _load_winding(args, entry)
            pushed = push_forward(f, rep)
        text = representation_to_json(pushed)
        _emit(args, json.loads(text), text)
        return 0

    rep = _load_rep(args, entry)

    if cmd == "cells":
        e = _dim_vector(args, rep, entry)
        cells = enumerate_cells(rep.basis, e, rep.quiver.vertices)
        keys = [c.key() for c in cells]
        _emit(args, keys, "\n".join("{" + k + "}" for k in keys))
        return 0

    if cmd == "equations":
        f = entry.morphism if entry is not None else None
        source = entry.upstairs if (entry is not None and entry.upstairs is not None) else rep
        if args.beta:
            betas = [cell_index(source.basis, [b.strip() for b in args.beta.split(",")])]
        else:
            e = _dim_vector(args, rep, entry)
            ambient_basis = rep.basis  # cells are indexed over the (pushed) module's grouping
            betas = [
                cell_index(source.basis, c.elements)
                for c in enumerate_cells(ambient_basis, e, rep.quiver.vertices)
            ]
        out = []
        for beta in betas:
            system = generate_equations(source, beta, fibred_via=f)
            out.append(system)
        if args.as_json:
            print(json.dumps([json.loads(s.to_json()) for s in out], sort_keys=True))
        else:
            print("\n\n".join(s.to_text() for s in out))
        return 0

    if cmd == "hypothesis-h":
        if entry is None or entry.morphism is None:
            raise InputError("hypothesis-h needs a catalog winding")
        result = check_hypothesis_h(entry.upstairs, entry.subquiver, entry.morphism)
        _emit(
            args,
            json.loads(result.witness_json()),
            ("PASS" if result.passed else "FAIL: " + result.reason)
            + (
                "\n" + "\n".join(f"  ({','.join(t.triple)}) type {t.type.value}" for t in result.triples)
                if result.triples
                else ""
            ),
        )
        return 0 if result.passed else 1

    e = _dim_vector(args, rep, entry)
    budget = _budget(args)

    if cmd == "count":
        reports = count(rep, e, primes=_primes(args), budget=budget)
        data = [json.loads(r.to_json()) for r in reports]
        lines = []
        for r in reports:
            lines.append(f"q={r.prime}: total {r.total}")
            for key, c in r.per_cell.items():
                lines.append(f"  {{{key}}}: {c}")
        _emit(args, data, "\n".join(lines))
        return 0

    if cmd == "poly":
        poly = counting_polynomial(rep, e, budget=budget, primes=(_primes(args, None) or None))
        _emit(args, json.loads(poly.to_json()), poly.to_text())
        return 0

    if cmd == "verify-affine":
        verdicts = verify_affine(rep, e, primes=_primes(args, (2, 3)), budget=budget)
        data = [
            {
                "cell": v.cell,
                "verdict": v.verdict,
                "dimension": v.dimension,
                "counts": {str(k): c for k, c in v.counts.items()},
                "evidence": v.evidence,
            }
            for v in verdicts
        ]
        lines = [
            f"{{{v.cell}}}: {v.verdict}" + (f" dim {v.dimension}" if v.dimension is not None else "")
            for v in verdicts
        ]
        _emit(args, data, "\n".join(lines))
        return 0

    if cmd == "euler":
        try:
            report = euler_characteristic(rep, e, primes=_primes(args, (2, 3)), budget=budget)
        except AffineCertificateError as exc:
            poly = counting_polynomial(rep, e, budget=budget)
            value = poly(1)
            print(
                f"no affine certificate ({exc}); interpolated point count at 1 is {value} "
                "(not certified as an Euler characteristic)",
                file=sys.stderr,
            )
            return 1
        _emit(args, {"chi": report.chi, "primes": list(report.primes)}, f"chi = {report.chi}")
        return 0

    if cmd == "poincare":
        report = poincare_polynomial(
            rep, e, primes=_primes(args, (2, 3)), assert_smooth=args.assert_smooth, budget=budget
        )
        data = {
            "betti": {str(k): v for k, v in sorted(report.betti.items())},
            "smooth_asserted": report.smooth_asserted,
        }
        note = "" if report.smooth_asserted else "  (smoothness not asserted)"
        _emit(args, data, report.polynomial_text() + note)
        return 0

    raise InputError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except AffineCertificateError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
