"""Command-line front end.

Exit codes: 0 success, 1 a check failed (invalid quiver, (H) fails,
no affine certificate), 2 input error, 3 enumeration budget exceeded,
141 stdout closed before the answer was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
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
from .schubert import cell_index, cell_plan, cell_type, enumerate_cells, generate_equations


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Its usage errors raise InputError, which main reports in one line with exit 2."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The qs parser, built on the first call and reused by every later one.

    Reuse is safe because parsing writes only to a fresh namespace: no
    action appends, no default is mutable, and help and errors look up
    sys.stdout and sys.stderr when they print.
    """
    parser = _Parser(prog="qs", description="Schubert decompositions of quiver Grassmannians")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--catalog": {"help": "catalog spec, e.g. flag(3;1,2)"},
        "--quiver": {"help": "path to a quiver JSON file"},
        "--rep": {"help": "path to a representation JSON file"},
        "--morphism": {"help": "path to a morphism JSON file (with --target-quiver)"},
        "--target-quiver": {"help": "codomain quiver JSON for --morphism"},
        "--subquiver": {"help": "vertices;arrows, e.g. 1,2;a1"},
        "--dim-vector": {"help": "comma list in vertex order, e.g. 1,1"},
        "--beta": {"help": "comma list of basis ids, e.g. b2,b4"},
        "--order": {"help": "comma list reordering the basis"},
        "--primes": {"help": "comma list of primes, e.g. 2,3,5"},
        "--budget": {"type": int, "help": "enumeration budget"},
        "--assert-smooth": {"action": "store_true"},
        "--json": {"dest": "as_json", "action": "store_true"},
    }
    # each subcommand takes --json and the flags its branch of _run reads; others read as None
    winding = "--catalog --rep --order --morphism --target-quiver"
    cells = "--catalog --rep --order --dim-vector"
    oracle = cells + " --primes --budget"
    for name, help_text, names in [
        ("validate", "check quiver invariants", "--catalog --quiver --rep"),
        ("winding", "check the winding and strictly-ordered predicates", winding),
        ("tree-ext", "check that T is a tree extension of S", "--catalog --quiver --rep --subquiver"),
        ("pushforward", "compute F_*M", winding),
        ("cells", "enumerate Schubert cells of a dimension vector", cells),
        ("equations", "emit the defining equations of a cell", cells + " --beta"),
        ("hypothesis-h", "decide Hypothesis (H) for a catalog winding", "--catalog --order --subquiver"),
        ("count", "count F_q points per cell", oracle),
        ("poly", "interpolate the counting polynomial", oracle),
        ("euler", "Euler characteristic via certified affine cells", oracle),
        ("poincare", "Poincare polynomial of certified cells", oracle + " --assert-smooth"),
        ("verify-affine", "certify cells as affine spaces numerically", oracle),
        ("catalog", "list catalog entries or show one", "--catalog"),
    ]:
        p = sub.add_parser(name, help=help_text)
        for flag in names.split() + ["--json"]:
            p.add_argument(flag, **flags[flag])
    parser.set_defaults(**{spec.get("dest", flag[2:].replace("-", "_")): None for flag, spec in flags.items()})
    return parser


def _from_file(path: str, parse, *context):
    """parse(text of the file at path, *context); JSON of the wrong shape is an input error."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text, *context)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise InputError(f"{path}: unexpected JSON layout ({exc})") from exc


def _reordered(args, rep):
    """rep in the basis order given by --order, if any."""
    if args.order is not None:
        return reorder_basis(rep, [b.strip() for b in args.order.split(",")])
    return rep


def _load_rep(args, entry: CatalogEntry | None):
    if entry is not None:
        rep = entry.representation
    elif args.rep:
        rep = _from_file(args.rep, representation_from_json)
    else:
        raise InputError("need --catalog or --rep")
    return _reordered(args, rep)


def _load_winding(args, entry: CatalogEntry | None):
    """(upstairs module, winding) of a catalog winding or of --rep/--morphism/--target-quiver.

    --order reorders the upstairs basis; push-forwards taken from it follow.
    """
    if entry is not None and entry.morphism is not None:
        return _reordered(args, entry.upstairs), entry.morphism
    if not (args.morphism and args.target_quiver and args.rep):
        raise InputError("need a catalog winding or --rep/--morphism/--target-quiver")
    rep = _load_rep(args, entry)
    codomain = _from_file(args.target_quiver, quiver_from_json)
    return rep, _from_file(args.morphism, morphism_from_json, rep.quiver, codomain)


def _dim_vector(args, rep, entry: CatalogEntry | None):
    if args.dim_vector is None:
        if entry is not None:
            return dict(entry.dim_vector)
        raise InputError("need --dim-vector")
    parts = _integers("--dim-vector", args.dim_vector)
    if len(parts) != len(rep.quiver.vertices):
        raise InputError(
            f"--dim-vector needs {len(rep.quiver.vertices)} entries "
            f"(vertex order: {', '.join(rep.quiver.vertices)})"
        )
    return dict(zip(rep.quiver.vertices, parts))


def _check_beta_type(rep, beta, e) -> None:
    """A --beta must index a cell of the dimension vector, counted over rep's blocks."""
    vertices = rep.quiver.vertices
    got = cell_type(rep.basis, beta)
    have = [got.get(v, 0) for v in vertices]
    want = [e.get(v, 0) for v in vertices]
    if have != want:
        raise InputError(
            f"--beta has type ({','.join(map(str, have))}) but the dimension vector is "
            f"({','.join(map(str, want))}) (vertex order: {', '.join(vertices)})"
        )


def _integers(flag: str, text: str) -> list[int]:
    """The comma list of a flag as integers; an entry that is not one is an input error naming both."""
    parts = []
    for x in text.split(","):
        try:
            parts.append(int(x))
        except ValueError:
            raise InputError(f"{flag} entries must be integers, got {x!r}") from None
    return parts


def _primes(args) -> dict:
    """The primes= keyword of a report when --primes is given; else the report's own default."""
    return {} if args.primes is None else {"primes": tuple(_integers("--primes", args.primes))}


def _budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    elif raw := os.environ.get("QS_BUDGET"):
        try:
            budget, source = int(raw), "QS_BUDGET"
        except ValueError:
            raise InputError(f"QS_BUDGET must be an integer, got {raw!r}") from None
    else:
        return DEFAULT_BUDGET
    if budget < 0:
        raise InputError(f"{source} must be nonnegative, got {budget}")
    return budget


def _emit(args, data, text: str) -> None:
    if args.as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _json_list(items) -> str:
    """The JSON list of the items' `to_json()` dumps, as `_emit` would print it.

    Each dump is already sorted-key JSON, so the list needs no round trip.
    """
    return "[" + ", ".join(item.to_json() for item in items) + "]"


def _quiver_of(args, entry: CatalogEntry | None):
    if entry is not None:
        return entry.representation.quiver
    if args.quiver:
        return _from_file(args.quiver, quiver_from_json)
    if args.rep:
        return _from_file(args.rep, representation_from_json).quiver
    raise InputError("need --catalog, --quiver or --rep")


def _subquiver_of(args, q, entry):
    if args.subquiver is not None:
        groups = args.subquiver.split(";")
        if len(groups) > 2:
            raise InputError(f"--subquiver takes at most two ';' groups (vertices;arrows), got {args.subquiver!r}")
        verts = [v.strip() for v in groups[0].split(",") if v.strip()]
        arrows = [a.strip() for a in groups[1].split(",")] if len(groups) > 1 else []
        return subquiver(q, verts, [a for a in arrows if a])
    if entry is not None and entry.subquiver is not None:
        return entry.subquiver
    raise InputError("need --subquiver")


def _run(args) -> int:
    cmd = args.command
    if args.catalog:
        # the file inputs that a catalog entry would otherwise silently override
        files = (
            ("--quiver", args.quiver),
            ("--rep", args.rep),
            ("--morphism", args.morphism),
            ("--target-quiver", args.target_quiver),
        )
        given = [flag for flag, value in files if value is not None]
        if given:
            raise InputError(f"--catalog cannot be combined with {', '.join(given)}")
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
        if winding:
            strict = is_strictly_ordered(f, rep.basis.vertex_key(rep.quiver.vertices))
        data = {"winding": winding, "strictly_ordered": strict}
        _emit(args, data, json.dumps(data, sort_keys=True))
        return 0 if winding and strict is not False else 1

    if cmd == "pushforward":
        up, f = _load_winding(args, entry)
        print(representation_to_json(push_forward(f, up)))  # the same sorted-key JSON in both modes
        return 0

    if cmd == "hypothesis-h":
        if entry is None or entry.morphism is None:
            raise InputError("hypothesis-h needs a catalog winding")
        up, f = _load_winding(args, entry)
        result = check_hypothesis_h(up, _subquiver_of(args, up.quiver, entry), f)
        if args.as_json:
            print(result.witness_json())  # already sorted-key JSON
        else:
            lines = ["PASS" if result.passed else "FAIL: " + result.reason]
            lines += (f"  ({','.join(t.triple)}) type {t.type.value}" for t in result.triples)
            print("\n".join(lines))
        return 0 if result.passed else 1

    rep = _load_rep(args, entry)
    source, f = _load_winding(args, entry) if entry is not None and entry.morphism is not None else (rep, None)

    if cmd == "cells":
        e = _dim_vector(args, rep, entry)
        keys = [key for key, _ in cell_plan(rep.basis, e, rep.quiver.vertices)]
        _emit(args, keys, "\n".join("{" + k + "}" for k in keys))
        return 0

    if cmd == "equations":
        if args.beta is not None:
            beta = cell_index(source.basis, [b.strip() for b in args.beta.split(",")])
            if entry is not None or args.dim_vector is not None:
                _check_beta_type(rep, beta, _dim_vector(args, rep, entry))
            betas = [beta]
        else:
            e = _dim_vector(args, rep, entry)
            ambient_basis = rep.basis  # cells are indexed over the (pushed) module's grouping
            betas = [
                cell_index(source.basis, c.elements)
                for c in enumerate_cells(ambient_basis, e, rep.quiver.vertices)
            ]
        out = [generate_equations(source, beta, fibred_via=f) for beta in betas]
        if args.as_json:
            print(_json_list(out))
        else:
            print("\n\n".join(s.to_text() for s in out))
        return 0

    e = _dim_vector(args, rep, entry)
    budget = _budget(args)

    if cmd == "count":
        reports = count(rep, e, budget=budget, **_primes(args))
        if args.as_json:
            print(_json_list(reports))
        else:
            lines = []
            for r in reports:
                lines.append(f"q={r.prime}: total {r.total}")
                for key, c in r.per_cell.items():
                    lines.append(f"  {{{key}}}: {c}")
            print("\n".join(lines))
        return 0

    if cmd == "poly":
        poly = counting_polynomial(rep, e, budget=budget, **_primes(args))
        print(poly.to_json() if args.as_json else poly.to_text())
        return 0

    if cmd == "verify-affine":
        verdicts = verify_affine(rep, e, budget=budget, **_primes(args))
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
        report = euler_characteristic(rep, e, budget=budget, **_primes(args))
        _emit(args, {"chi": report.chi, "primes": list(report.primes)}, f"chi = {report.chi}")
        return 0

    if cmd == "poincare":
        report = poincare_polynomial(rep, e, assert_smooth=args.assert_smooth, budget=budget, **_primes(args))
        data = {
            "betti": {str(k): v for k, v in sorted(report.betti.items())},
            "smooth_asserted": report.smooth_asserted,
        }
        note = "" if report.smooth_asserted else "  (smoothness not asserted)"
        _emit(args, data, report.polynomial_text() + note)
        return 0

    raise InputError(f"unknown command {cmd!r}")


def _silence_stdout() -> None:
    """Point the stdout fd at the null device, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stream has no fd to redirect
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    try:
        code = _run(_build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 141
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except AffineCertificateError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
