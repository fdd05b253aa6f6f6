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


def _blocks(ranks: Mapping[str, int]) -> OrderedBasis:
    """A block of ranks[v] ids per vertex v, numbered b1, b2, ... block by block."""
    vertex_of = {}
    for v, rank in ranks.items():
        for _ in range(rank):
            vertex_of[f"b{len(vertex_of) + 1}"] = v
    return OrderedBasis(tuple(vertex_of), vertex_of)


def _chain(r: int, m: int) -> tuple[Quiver, OrderedBasis]:
    """Equioriented A_r with arrows a_p: p -> p+1 and a block of m ids per vertex."""
    q = quiver(
        [str(p) for p in range(1, r + 1)],
        [(f"a{p}", str(p), str(p + 1)) for p in range(1, r)],
    )
    return q, _blocks({v: m for v in q.vertices})


def _require_sizes(**sizes: int) -> None:
    """Refuse a negative size by name: no block has a negative rank."""
    for name, size in sizes.items():
        if size < 0:
            raise ValueError(f"{name} must be at least 0, got {size}")


def _within_ranks(rep: Representation, e: Mapping[str, int]) -> dict[str, int]:
    """e lowered to the rank at each vertex, so that an entry of size 0 asks for no more than it has."""
    return {v: min(d, rep.rank(v)) for v, d in e.items()}


def one_vertex(m: int) -> CatalogEntry:
    _require_sizes(m=m)
    q, basis = _chain(1, m)
    rep = representation(q, basis, {})
    return CatalogEntry("one_vertex", (m,), rep, _within_ranks(rep, {"1": max(1, m // 2)}))


def flag(m: int, dims: Sequence[int]) -> CatalogEntry:
    _require_sizes(m=m)
    if not dims:
        raise ValueError("dims must list at least one dimension")
    for d in dims:
        if not 0 <= d <= m:
            raise ValueError(f"dims must lie in 0..{m}, got {d}")
    r = len(dims)
    q, basis = _chain(r, m)
    rep = representation(q, basis, {f"a{p}": identity_matrix(m) for p in range(1, r)})
    s = subquiver(q, ["1"])
    return CatalogEntry(
        "flag", (m, tuple(dims)), rep, {str(p): dims[p - 1] for p in range(1, r + 1)}, subquiver=s
    )


def one_loop(m: int, lam: int) -> CatalogEntry:
    _require_sizes(m=m)
    q = quiver(["1"], [("a", "1", "1")])
    rep = representation(q, _blocks({"1": m}), {"a": _jordan(m, lam)})
    return CatalogEntry("one_loop", (m, lam), rep, _within_ranks(rep, {"1": max(1, m // 2)}))


def two_lines() -> CatalogEntry:
    q = quiver(["1", "2"], [("a", "1", "2")])
    rep = representation(q, _blocks({"1": 2, "2": 2}), {"a": [[1, 0], [0, 0]]})
    return CatalogEntry("two_lines", (), rep, {"1": 1, "2": 1})


def kronecker_regular(n: int, lam: int) -> CatalogEntry:
    _require_sizes(n=n)
    q = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    rep = representation(q, _blocks({"1": n, "2": n}), {"a": identity_matrix(n), "b": _jordan(n, lam)})
    return CatalogEntry("kronecker_regular", (n, lam), rep, _within_ranks(rep, {"1": 1, "2": 1}))


def _winding(
    name: str,
    params: tuple,
    codomain: Quiver,
    vertex_map: Mapping[str, str],
    arrows: Sequence[tuple[str, str, str, str]],
    s_vertices: Sequence[str],
    dim_vector: Mapping[str, int],
    vertex_order: Sequence[str] | None = None,
) -> CatalogEntry:
    """The thin module M on a tree T, pushed forward along a winding F: T -> Q.

    T has the vertices of vertex_map, in that order, and one arrow per
    (name, source, target, image) of arrows.  F sends each vertex to its
    vertex_map value and each arrow to its image in codomain.  The basis
    of M follows vertex_order, by default the vertex order of T.
    """
    t = quiver(list(vertex_map), [(a, src, tgt) for a, src, tgt, _ in arrows])
    upstairs = thin_representation(t, vertex_order)
    f = morphism(t, codomain, vertex_map, {a: image for a, _, _, image in arrows})
    pushed = push_forward(f, upstairs)
    return CatalogEntry(
        name,
        params,
        pushed,
        _within_ranks(pushed, dim_vector),
        upstairs=upstairs,
        subquiver=subquiver(t, s_vertices),
        morphism=f,
    )


def _kronecker_winding(
    name: str, n: int, sources_even: bool, dim_vector: Mapping[str, int]
) -> CatalogEntry:
    """A zigzag on vertices 1, ..., 2n+1 wound onto the Kronecker quiver 1 => 2.

    Arrow a_i joins 2i-1 and 2i and maps to at; g_i joins 2i and 2i+1 and
    maps to gt.  The sources of the zigzag lie over vertex 1: the even
    vertices when sources_even holds, the odd ones otherwise.
    """
    _require_sizes(n=n)
    vertex_map = {}
    for v in range(1, 2 * n + 2):
        is_source = (v % 2 == 0) == sources_even
        vertex_map[str(v)] = "1" if is_source else "2"
    arrows = []
    for i in range(1, n + 1):
        left, even, right = str(2 * i - 1), str(2 * i), str(2 * i + 1)
        if sources_even:
            arrows.append((f"a{i}", even, left, "at"))
            arrows.append((f"g{i}", even, right, "gt"))
        else:
            arrows.append((f"a{i}", left, even, "at"))
            arrows.append((f"g{i}", right, even, "gt"))
    codomain = quiver(["1", "2"], [("at", "1", "2"), ("gt", "1", "2")])
    return _winding(name, (n,), codomain, vertex_map, arrows, ["1"], dim_vector)


def kronecker_preprojective(n: int) -> CatalogEntry:
    return _kronecker_winding("kronecker_preprojective", n, True, {"1": 1, "2": 2})


def kronecker_preinjective(n: int) -> CatalogEntry:
    return _kronecker_winding("kronecker_preinjective", n, False, {"1": 1, "2": 1})


def ex_4_5_1() -> CatalogEntry:
    codomain = quiver(["A", "B"], [("at", "A", "B"), ("gt", "A", "B")])
    vertex_map = {"1": "B", "2": "A", "3": "B", "4": "A"}
    arrows = [("a1", "2", "1", "at"), ("a2", "4", "3", "at"), ("g", "2", "3", "gt")]
    return _winding("ex_4_5_1", (), codomain, vertex_map, arrows, ["1"], {"A": 1, "B": 1})


def ex_4_5_2() -> CatalogEntry:
    codomain = quiver(["A", "B", "C"], [("gt", "A", "B"), ("dt", "A", "B"), ("at", "B", "C")])
    vertex_map = {"1": "C", "2": "C", "3": "C", "4": "B", "5": "B", "6": "A", "7": "B"}
    arrows = [("a1", "4", "2", "at"), ("a2", "5", "3", "at"), ("g", "6", "5", "gt"), ("d", "6", "7", "dt")]
    return _winding("ex_4_5_2", (), codomain, vertex_map, arrows, ["1", "2", "3"], {"A": 0, "B": 1, "C": 2})


def ex_4_5_5() -> CatalogEntry:
    """Two-level winding over s -> p -> q with fibres of sizes 3, 4 and 8.

    The gamma-arrow targets are chosen so that a strictly ordered basis
    with the S-block at the bottom exists: g maps 0->3, 2->8 and 9->10.
    """
    codomain = quiver(
        ["s", "p", "q"], [("at", "s", "p"), ("gt", "s", "p"), ("st", "p", "q"), ("tt", "p", "q")]
    )
    vertex_map = {
        "0": "s", "1": "p", "2": "s", "3": "p", "4": "q", "5": "q", "6": "q", "7": "q",
        "8": "p", "9": "s", "10": "p", "11": "q", "12": "q", "13": "q", "14": "q",
    }
    arrows = [
        ("a1", "0", "1", "at"), ("a2", "2", "3", "at"), ("a3", "9", "8", "at"),
        ("g1", "0", "3", "gt"), ("g2", "2", "8", "gt"), ("g3", "9", "10", "gt"),
        ("s1", "1", "6", "st"), ("s2", "3", "4", "st"), ("s3", "8", "11", "st"), ("s4", "10", "13", "st"),
        ("t1", "1", "7", "tt"), ("t2", "3", "5", "tt"), ("t3", "8", "12", "tt"), ("t4", "10", "14", "tt"),
    ]
    order = ["0", "1", "3", "6", "7", "4", "5", "2", "8", "11", "12", "9", "10", "13", "14"]
    return _winding("ex_4_5_5", (), codomain, vertex_map, arrows, ["0"], {"s": 0, "p": 1, "q": 2}, order)


def degenerate_flag(n: int) -> CatalogEntry:
    _require_sizes(n=n)
    m = n + 1
    q, basis = _chain(n, m)
    rep = representation(q, basis, {f"a{p}": _jordan(m, 0) for p in range(1, n)})
    return CatalogEntry("degenerate_flag", (n,), rep, {str(p): p for p in range(1, n + 1)})


def degenerate_flag_pi(n: int) -> CatalogEntry:
    """P + I for equioriented A_n with the interleaved per-vertex basis order."""
    _require_sizes(n=n)
    q, _ = _chain(n, 0)
    order = []
    for v in range(1, n + 1):
        order += [f"I{i}_{v}" for i in range(v, n + 1)] + [f"P{i}_{v}" for i in range(1, v + 1)]
    basis = OrderedBasis(tuple(order), {b: b.split("_")[1] for b in order})
    matrices = {}
    for v in range(1, n):
        src, tgt = basis.block(str(v)), basis.block(str(v + 1))
        mat = [[0] * len(src) for _ in tgt]
        # a_v maps each summand living at both v and v + 1 identically
        for summand in [f"I{i}" for i in range(v + 1, n + 1)] + [f"P{i}" for i in range(1, v + 1)]:
            mat[tgt.index(f"{summand}_{v + 1}")][src.index(f"{summand}_{v}")] = 1
        matrices[f"a{v}"] = mat
    rep = representation(q, basis, matrices)
    return CatalogEntry("degenerate_flag_pi", (n,), rep, {str(p): p for p in range(1, n + 1)})


def forest_block(seed: int, size: int) -> CatalogEntry:
    """Seeded random forest module whose matrices are 0/identity blocks.

    Every arrow matrix has the square identity sitting in its upper-right
    corner; total rank is capped by `size`.
    """
    _require_sizes(size=size)
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
    basis = _blocks(ranks)
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
    f.__name__: f
    for f in (
        one_vertex, flag, one_loop, two_lines, kronecker_regular, kronecker_preprojective,
        kronecker_preinjective, ex_4_5_1, ex_4_5_2, ex_4_5_5, degenerate_flag,
        degenerate_flag_pi, forest_block,
    )
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def catalog(spec: str) -> CatalogEntry:
    """Build an entry from a spec like "flag(3;1,2)" or "ex_4_5_1".

    The first ";" group holds the builder's int parameters, and each later
    group one list of ints for a Sequence[int] parameter after them; the
    spec must give exactly the builder's parameters.
    """
    m = re.fullmatch(r"\s*([A-Za-z0-9_]+)\s*(?:\((.*)\))?\s*", spec)
    if not m:
        raise ValueError(f"cannot parse catalog spec {spec!r}")
    name, arg_text = m.group(1), m.group(2)
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}")
    builder = _BUILDERS[name]
    try:
        scalars, *lists = [
            [int(x) for x in group.split(",") if x.strip()] for group in (arg_text or "").split(";")
        ]
        kinds = {p: k == "int" for p, k in builder.__annotations__.items() if p != "return"}
        if [True] * len(scalars) + [False] * len(lists) != list(kinds.values()):
            form = ",".join(p for p, scalar in kinds.items() if scalar)
            form += "".join(f";{p}" for p, scalar in kinds.items() if not scalar)
            raise ValueError(f"the spec must read {name}({form})" if form else "it takes none")
        return builder(*scalars, *lists)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"invalid parameters for {name!r}: {exc}") from exc
