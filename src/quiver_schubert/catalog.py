"""Constructible fixtures: every worked example used by the test suite and CLI.

Winding entries carry the upstairs module, the subquiver S and the
morphism alongside the pushed-forward representation, since the
Hypothesis (H) machinery is order- and S-relative.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .linalg import identity_matrix
from .quiver import Quiver, QuiverMorphism, Subquiver, morphism, quiver, subquiver
from .representation import (
    OrderedBasis,
    Representation,
    push_forward,
    representation,
    thin_representation,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    representation: Representation
    dim_vector: Mapping[str, int] = field(hash=False)
    upstairs: Representation | None = None
    subquiver: Subquiver | None = None
    morphism: QuiverMorphism | None = None
    notes: str = ""


def _jordan(m: int, lam: int) -> list[list[int]]:
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        out[i][i] = lam
        if i + 1 < m:
            out[i][i + 1] = 1
    return out


def one_vertex(m: int) -> CatalogEntry:
    q = quiver(["1"], [])
    basis = OrderedBasis(tuple(f"b{i}" for i in range(1, m + 1)), {f"b{i}": "1" for i in range(1, m + 1)})
    rep = representation(q, basis, {})
    return CatalogEntry("one_vertex", (m,), rep, {"1": max(1, m // 2)})


def flag(m: int, dims: Sequence[int]) -> CatalogEntry:
    r = len(dims)
    q = quiver(
        [str(p) for p in range(1, r + 1)],
        [(f"a{p}", str(p), str(p + 1)) for p in range(1, r)],
    )
    order = []
    vertex_of = {}
    for p in range(1, r + 1):
        for k in range(1, m + 1):
            b = f"b{(p - 1) * m + k}"
            order.append(b)
            vertex_of[b] = str(p)
    basis = OrderedBasis(tuple(order), vertex_of)
    rep = representation(q, basis, {f"a{p}": identity_matrix(m) for p in range(1, r)})
    s = subquiver(q, ["1"])
    return CatalogEntry(
        "flag", (m, tuple(dims)), rep, {str(p): dims[p - 1] for p in range(1, r + 1)}, subquiver=s
    )


def one_loop(m: int, lam: int) -> CatalogEntry:
    q = quiver(["1"], [("a", "1", "1")])
    basis = OrderedBasis(tuple(f"b{i}" for i in range(1, m + 1)), {f"b{i}": "1" for i in range(1, m + 1)})
    rep = representation(q, basis, {"a": _jordan(m, lam)})
    return CatalogEntry("one_loop", (m, lam), rep, {"1": max(1, m // 2)})


def two_lines() -> CatalogEntry:
    q = quiver(["1", "2"], [("a", "1", "2")])
    basis = OrderedBasis(("b1", "b2", "b3", "b4"), {"b1": "1", "b2": "1", "b3": "2", "b4": "2"})
    rep = representation(q, basis, {"a": [[1, 0], [0, 0]]})
    return CatalogEntry("two_lines", (), rep, {"1": 1, "2": 1})


def kronecker_regular(n: int, lam: int) -> CatalogEntry:
    q = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    order = [f"b{i}" for i in range(1, 2 * n + 1)]
    vertex_of = {f"b{i}": ("1" if i <= n else "2") for i in range(1, 2 * n + 1)}
    basis = OrderedBasis(tuple(order), vertex_of)
    rep = representation(q, basis, {"a": identity_matrix(n), "b": _jordan(n, lam)})
    return CatalogEntry("kronecker_regular", (n, lam), rep, {"1": 1, "2": 1})


def _kronecker_codomain() -> Quiver:
    return quiver(["1", "2"], [("at", "1", "2"), ("gt", "1", "2")])


def kronecker_preprojective(n: int) -> CatalogEntry:
    verts = [str(i) for i in range(1, 2 * n + 2)]
    arrows = []
    for i in range(1, n + 1):
        arrows.append((f"a{i}", str(2 * i), str(2 * i - 1)))
        arrows.append((f"g{i}", str(2 * i), str(2 * i + 1)))
    t = quiver(verts, arrows)
    m = thin_representation(t)
    s = subquiver(t, ["1"])
    qq = _kronecker_codomain()
    vmap = {v: ("1" if int(v) % 2 == 0 else "2") for v in verts}
    amap = {f"a{i}": "at" for i in range(1, n + 1)}
    amap.update({f"g{i}": "gt" for i in range(1, n + 1)})
    f = morphism(t, qq, vmap, amap)
    return CatalogEntry(
        "kronecker_preprojective",
        (n,),
        push_forward(f, m),
        {"1": 1, "2": 2},
        upstairs=m,
        subquiver=s,
        morphism=f,
    )


def kronecker_preinjective(n: int) -> CatalogEntry:
    verts = [str(i) for i in range(1, 2 * n + 2)]
    arrows = []
    for i in range(1, n + 1):
        arrows.append((f"a{i}", str(2 * i - 1), str(2 * i)))
        arrows.append((f"g{i}", str(2 * i + 1), str(2 * i)))
    t = quiver(verts, arrows)
    m = thin_representation(t)
    s = subquiver(t, ["1"])
    qq = _kronecker_codomain()
    vmap = {v: ("1" if int(v) % 2 == 1 else "2") for v in verts}
    amap = {f"a{i}": "at" for i in range(1, n + 1)}
    amap.update({f"g{i}": "gt" for i in range(1, n + 1)})
    f = morphism(t, qq, vmap, amap)
    return CatalogEntry(
        "kronecker_preinjective",
        (n,),
        push_forward(f, m),
        {"1": 1, "2": 1},
        upstairs=m,
        subquiver=s,
        morphism=f,
    )


def ex_4_5_1() -> CatalogEntry:
    t = quiver(["1", "2", "3", "4"], [("a1", "2", "1"), ("a2", "4", "3"), ("g", "2", "3")])
    m = thin_representation(t)
    s = subquiver(t, ["1"])
    qq = quiver(["A", "B"], [("at", "A", "B"), ("gt", "A", "B")])
    f = morphism(
        t,
        qq,
        {"1": "B", "3": "B", "2": "A", "4": "A"},
        {"a1": "at", "a2": "at", "g": "gt"},
    )
    return CatalogEntry(
        "ex_4_5_1", (), push_forward(f, m), {"A": 1, "B": 1}, upstairs=m, subquiver=s, morphism=f
    )


def ex_4_5_2() -> CatalogEntry:
    t = quiver(
        ["1", "2", "3", "4", "5", "6", "7"],
        [("a1", "4", "2"), ("a2", "5", "3"), ("g", "6", "5"), ("d", "6", "7")],
    )
    m = thin_representation(t)
    s = subquiver(t, ["1", "2", "3"])
    qq = quiver(["A", "B", "C"], [("gt", "A", "B"), ("dt", "A", "B"), ("at", "B", "C")])
    f = morphism(
        t,
        qq,
        {"6": "A", "4": "B", "5": "B", "7": "B", "1": "C", "2": "C", "3": "C"},
        {"g": "gt", "d": "dt", "a1": "at", "a2": "at"},
    )
    return CatalogEntry(
        "ex_4_5_2",
        (),
        push_forward(f, m),
        {"A": 0, "B": 1, "C": 2},
        upstairs=m,
        subquiver=s,
        morphism=f,
    )


def ex_4_5_5() -> CatalogEntry:
    """Two-level winding over s -> p -> q with fibres of sizes 3, 4 and 8.

    The gamma-arrow targets are chosen so that a strictly ordered basis
    with the S-block at the bottom exists: g maps 0->3, 2->8 and 9->10.
    """
    verts = ["0"] + [str(i) for i in range(1, 15)]
    arrows = [
        ("a1", "0", "1"),
        ("a2", "2", "3"),
        ("a3", "9", "8"),
        ("g1", "0", "3"),
        ("g2", "2", "8"),
        ("g3", "9", "10"),
        ("s1", "1", "6"),
        ("s2", "3", "4"),
        ("s3", "8", "11"),
        ("s4", "10", "13"),
        ("t1", "1", "7"),
        ("t2", "3", "5"),
        ("t3", "8", "12"),
        ("t4", "10", "14"),
    ]
    t = quiver(verts, arrows)
    order = ["0", "1", "3", "6", "7", "4", "5", "2", "8", "11", "12", "9", "10", "13", "14"]
    m = thin_representation(t, vertex_order=order)
    s = subquiver(t, ["0"])
    qq = quiver(["s", "p", "q"], [("at", "s", "p"), ("gt", "s", "p"), ("st", "p", "q"), ("tt", "p", "q")])
    vmap = {"0": "s", "2": "s", "9": "s"}
    vmap.update({v: "p" for v in ["1", "3", "8", "10"]})
    vmap.update({v: "q" for v in ["4", "5", "6", "7", "11", "12", "13", "14"]})
    amap = {"a1": "at", "a2": "at", "a3": "at", "g1": "gt", "g2": "gt", "g3": "gt"}
    amap.update({f"s{i}": "st" for i in range(1, 5)})
    amap.update({f"t{i}": "tt" for i in range(1, 5)})
    f = morphism(t, qq, vmap, amap)
    return CatalogEntry(
        "ex_4_5_5",
        (),
        push_forward(f, m),
        {"s": 0, "p": 1, "q": 2},
        upstairs=m,
        subquiver=s,
        morphism=f,
    )


def degenerate_flag(n: int) -> CatalogEntry:
    q = quiver(
        [str(p) for p in range(1, n + 1)],
        [(f"a{p}", str(p), str(p + 1)) for p in range(1, n)],
    )
    m = n + 1
    order = []
    vertex_of = {}
    for p in range(1, n + 1):
        for k in range(1, m + 1):
            b = f"b{(p - 1) * m + k}"
            order.append(b)
            vertex_of[b] = str(p)
    basis = OrderedBasis(tuple(order), vertex_of)
    rep = representation(q, basis, {f"a{p}": _jordan(m, 0) for p in range(1, n)})
    return CatalogEntry("degenerate_flag", (n,), rep, {str(p): p for p in range(1, n + 1)})


def degenerate_flag_pi(n: int) -> CatalogEntry:
    """P + I for equioriented A_n with the interleaved per-vertex basis order."""
    q = quiver(
        [str(p) for p in range(1, n + 1)],
        [(f"a{p}", str(p), str(p + 1)) for p in range(1, n)],
    )
    order = []
    vertex_of = {}
    for v in range(1, n + 1):
        for i in range(v, n + 1):
            b = f"I{i}_{v}"
            order.append(b)
            vertex_of[b] = str(v)
        for i in range(1, v + 1):
            b = f"P{i}_{v}"
            order.append(b)
            vertex_of[b] = str(v)
    basis = OrderedBasis(tuple(order), vertex_of)
    matrices = {}
    for v in range(1, n):
        src = basis.block(str(v))
        tgt = basis.block(str(v + 1))
        mat = [[0] * len(src) for _ in range(len(tgt))]
        for j, b in enumerate(src):
            kind, rest = b[0], b[1:]
            i = int(rest.split("_")[0])
            image = None
            if kind == "I" and i >= v + 1:
                image = f"I{i}_{v + 1}"
            elif kind == "P":
                image = f"P{i}_{v + 1}"
            if image is not None:
                mat[tgt.index(image)][j] = 1
        matrices[f"a{v}"] = mat
    rep = representation(q, basis, matrices)
    return CatalogEntry("degenerate_flag_pi", (n,), rep, {str(p): p for p in range(1, n + 1)})


def forest_block(seed: int, size: int) -> CatalogEntry:
    """Seeded random forest module whose matrices are 0/identity blocks.

    Every arrow matrix has the square identity sitting in its upper-right
    corner; total rank is capped by `size`.
    """
    rng = random.Random(seed)
    ncomp = 1 if size <= 4 else rng.choice([1, 1, 2])
    verts: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for c in range(ncomp):
        k = rng.randint(2, 4)
        comp = [f"v{c}_{i}" for i in range(k)]
        for i in range(1, k):
            other = comp[rng.randrange(i)]
            pair = (comp[i], other) if rng.random() < 0.5 else (other, comp[i])
            edges.append((f"e{c}_{i}", pair[0], pair[1]))
        verts.extend(comp)
    q = quiver(verts, edges)
    ranks = {}
    remaining = size
    for v in verts:
        ranks[v] = rng.randint(0, min(3, max(0, remaining)))
        remaining -= ranks[v]
    order = []
    vertex_of = {}
    idx = 1
    for v in verts:
        for _ in range(ranks[v]):
            order.append(f"b{idx}")
            vertex_of[f"b{idx}"] = v
            idx += 1
    basis = OrderedBasis(tuple(order), vertex_of)
    matrices = {}
    for name, src, tgt in [(a.name, a.src, a.tgt) for a in q.arrows]:
        mp, mq = ranks[src], ranks[tgt]
        r = rng.randint(0, min(mp, mq))
        mat = [[0] * mp for _ in range(mq)]
        for i in range(r):
            mat[i][mp - r + i] = 1
        matrices[name] = mat
    rep = representation(q, basis, matrices)
    e = {v: rng.randint(0, ranks[v]) for v in verts}
    return CatalogEntry("forest_block", (seed, size), rep, e)


_BUILDERS = {
    "one_vertex": lambda params: one_vertex(int(params[0][0])),
    "flag": lambda params: flag(int(params[0][0]), [int(x) for x in params[1]]),
    "one_loop": lambda params: one_loop(int(params[0][0]), int(params[0][1])),
    "two_lines": lambda params: two_lines(),
    "kronecker_regular": lambda params: kronecker_regular(int(params[0][0]), int(params[0][1])),
    "kronecker_preprojective": lambda params: kronecker_preprojective(int(params[0][0])),
    "kronecker_preinjective": lambda params: kronecker_preinjective(int(params[0][0])),
    "ex_4_5_1": lambda params: ex_4_5_1(),
    "ex_4_5_2": lambda params: ex_4_5_2(),
    "ex_4_5_5": lambda params: ex_4_5_5(),
    "degenerate_flag": lambda params: degenerate_flag(int(params[0][0])),
    "degenerate_flag_pi": lambda params: degenerate_flag_pi(int(params[0][0])),
    "forest_block": lambda params: forest_block(int(params[0][0]), int(params[0][1])),
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def catalog(spec: str) -> CatalogEntry:
    """Build an entry from a spec like "flag(3;1,2)" or "ex_4_5_1"."""
    m = re.fullmatch(r"\s*([A-Za-z0-9_]+)\s*(?:\((.*)\))?\s*", spec)
    if not m:
        raise ValueError(f"cannot parse catalog spec {spec!r}")
    name, arg_text = m.group(1), m.group(2)
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}")
    params: list[list[str]] = []
    if arg_text:
        for group in arg_text.split(";"):
            params.append([x.strip() for x in group.split(",") if x.strip()])
    try:
        return _BUILDERS[name](params)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"invalid parameters for {name!r}: {exc}") from exc
