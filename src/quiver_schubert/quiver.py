"""Finite quivers, subquivers, quotients and quiver morphisms.

Vertex and arrow identifiers are opaque strings.  Everything here is
immutable and order-free: global basis orders live with representations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


def quiver(vertices: Iterable[str], arrows: Iterable[tuple[str, str, str]]) -> Quiver:
    return Quiver(tuple(vertices), tuple(Arrow(n, s, t) for n, s, t in arrows))


@dataclass(frozen=True)
class Subquiver:
    parent: Quiver
    vertices: frozenset[str]
    arrows: frozenset[str]

    def validate(self) -> list[str]:
        problems = []
        for v in self.vertices:
            if v not in self.parent.vertices:
                problems.append(f"subquiver vertex {v!r} not in parent")
        names = {a.name for a in self.parent.arrows}
        for a in self.arrows:
            if a not in names:
                problems.append(f"subquiver arrow {a!r} not in parent")
        for a in self.parent.arrows:
            if a.name in self.arrows and not (
                a.src in self.vertices and a.tgt in self.vertices
            ):
                problems.append(f"arrow {a.name!r} has an endpoint outside the subquiver")
        return problems


def _refuse(problems: list[str]) -> None:
    if problems:
        raise ValueError("; ".join(problems))


def subquiver(parent: Quiver, vertices: Iterable[str], arrows: Iterable[str] = ()) -> Subquiver:
    s = Subquiver(parent, frozenset(vertices), frozenset(arrows))
    _refuse(s.validate())
    return s


def full_subquiver(parent: Quiver, vertices: Iterable[str]) -> Subquiver:
    vs = frozenset(vertices)
    arrows = [a.name for a in parent.arrows if a.src in vs and a.tgt in vs]
    return subquiver(parent, vs, arrows)


@dataclass(frozen=True)
class QuiverMorphism:
    domain: Quiver
    codomain: Quiver
    vertex_map: Mapping[str, str] = field(hash=False)
    arrow_map: Mapping[str, str] = field(hash=False)

    def validate(self) -> list[str]:
        problems = []
        for v in self.domain.vertices:
            if v not in self.vertex_map:
                problems.append(f"vertex {v!r} has no image")
            elif self.vertex_map[v] not in self.codomain.vertices:
                problems.append(f"image of vertex {v!r} not in codomain")
        for a in self.domain.arrows:
            img = self.arrow_map.get(a.name)
            if img is None:
                problems.append(f"arrow {a.name!r} has no image")
                continue
            try:
                ia = self.codomain.arrow(img)
            except KeyError:
                problems.append(f"image of arrow {a.name!r} not in codomain")
                continue
            if self.vertex_map.get(a.src) != ia.src:
                problems.append(f"arrow {a.name!r}: source not preserved")
            if self.vertex_map.get(a.tgt) != ia.tgt:
                problems.append(f"arrow {a.name!r}: target not preserved")
        return problems

    def fibre_vertices(self, v: str) -> list[str]:
        return [p for p in self.domain.vertices if self.vertex_map[p] == v]

    def fibre_arrows(self, name: str) -> list[Arrow]:
        return [a for a in self.domain.arrows if self.arrow_map[a.name] == name]


def morphism(
    domain: Quiver,
    codomain: Quiver,
    vertex_map: Mapping[str, str],
    arrow_map: Mapping[str, str],
) -> QuiverMorphism:
    f = QuiverMorphism(domain, codomain, dict(vertex_map), dict(arrow_map))
    problems = [f"domain: {p}" for p in validate(domain)]
    _refuse(problems + [f"codomain: {p}" for p in validate(codomain)] + f.validate())
    return f


def identity_morphism(q: Quiver) -> QuiverMorphism:
    return QuiverMorphism(q, q, {v: v for v in q.vertices}, {a.name: a.name for a in q.arrows})


def compose(g: QuiverMorphism, f: QuiverMorphism) -> QuiverMorphism:
    if f.codomain != g.domain:
        raise ValueError("morphisms not composable")
    return QuiverMorphism(
        f.domain,
        g.codomain,
        {v: g.vertex_map[w] for v, w in f.vertex_map.items()},
        {a: g.arrow_map[b] for a, b in f.arrow_map.items()},
    )


def validate(q: Quiver) -> list[str]:
    """Invariant report for a quiver; an empty list means well-formed."""
    problems = []
    seen = set()
    for v in q.vertices:
        if v in seen:
            problems.append(f"duplicate vertex id {v!r}")
        seen.add(v)
    names = set()
    for a in q.arrows:
        if a.name in names:
            problems.append(f"duplicate arrow id {a.name!r}")
        names.add(a.name)
        if a.src not in seen:
            problems.append(f"dangling endpoint: arrow {a.name!r} source {a.src!r}")
        if a.tgt not in seen:
            problems.append(f"dangling endpoint: arrow {a.name!r} target {a.tgt!r}")
    return problems


def difference_of(t: Quiver, s: Subquiver) -> Subquiver:
    """T-S: arrows outside S together with their endpoints, plus vertices outside S."""
    arrows = [a for a in t.arrows if a.name not in s.arrows]
    verts = {v for v in t.vertices if v not in s.vertices}
    for a in arrows:
        verts.add(a.src)
        verts.add(a.tgt)
    return Subquiver(t, frozenset(verts), frozenset(a.name for a in arrows))


def distances_to(t: Quiver, s: Subquiver) -> dict[str, int]:
    """Undirected distance to S of every vertex reached from S along the arrows of T-S.

    An S-arrow joins two vertices at distance 0, so walking T-S alone
    gives the same distances as walking all of T.
    """
    adj: dict[str, set[str]] = {v: set() for v in t.vertices}
    for a in t.arrows:
        if a.name not in s.arrows:
            adj[a.src].add(a.tgt)
            adj[a.tgt].add(a.src)
    dist = dict.fromkeys(s.vertices, 0)
    frontier = set(s.vertices)
    d = 0
    while frontier:
        d += 1
        frontier = {w for v in frontier for w in adj[v] if w not in dist}
        dist.update(dict.fromkeys(frontier, d))
    return dist


def quotient_by(t: Quiver, s: Subquiver) -> Quiver:
    """T/S: S-arrows removed, all S-vertices identified to one fresh vertex."""
    _refuse(s.validate())
    if not s.vertices:
        return Quiver(t.vertices, tuple(a for a in t.arrows if a.name not in s.arrows))
    collapsed = "S"
    while collapsed in t.vertices:
        collapsed += "'"
    remap = {v: (collapsed if v in s.vertices else v) for v in t.vertices}
    vertices = (collapsed,) + tuple(v for v in t.vertices if v not in s.vertices)
    arrows = tuple(
        Arrow(a.name, remap[a.src], remap[a.tgt])
        for a in t.arrows
        if a.name not in s.arrows
    )
    return Quiver(vertices, arrows)


def is_tree(q: Quiver) -> bool:
    """Connected and acyclic as an undirected multigraph (loops/multi-edges are cycles)."""
    return is_tree_extension(q, Subquiver(q, frozenset(), frozenset()))


def kept(obj, attr: str, key: object, build):
    """The value obj keeps under attr for key, made by build() when the slot holds another key.

    The slot is (key, value): the key is compared by identity and held
    strongly, so that its identity cannot pass to a new object.  A call
    with another key rebuilds and replaces the slot, so obj never keeps
    more than one value per attr.  When build() raises, nothing is
    stored and the next call raises again.
    """
    slot = getattr(obj, attr, None)
    if slot is None or slot[0] is not key:
        slot = (key, build())
        object.__setattr__(obj, attr, slot)
    return slot[1]


def tree_distances(t: Quiver, s: Subquiver) -> dict[str, int] | None:
    """`distances_to(t, s)` when T/S is a tree as a geometric (undirected) graph, else None.

    A connected multigraph is a tree exactly when it has one edge fewer
    than vertices, so T/S is a tree iff T-S reaches every vertex from S
    and has one arrow per vertex outside S: one walk decides both and
    gives every distance, to T's first vertex when S is empty.  A valid s
    on t keeps it for the last t (`kept`); callers only read the shared dict.
    """
    def walk():
        _refuse(s.validate() + ["S is a subquiver of another quiver"] * (s.parent != t))
        root = s.vertices or frozenset(t.vertices[:1])
        tree = root and sum(a.name not in s.arrows for a in t.arrows) == len(t.vertices) - len(root)
        dist = distances_to(t, Subquiver(t, root, s.arrows)) if tree else {}
        return dist if tree and len(dist) == len(t.vertices) else None
    return kept(s, "_tree_distances", t, walk)


def is_tree_extension(t: Quiver, s: Subquiver) -> bool:
    """True iff the quotient T/S is a tree as a geometric (undirected) graph."""
    return tree_distances(t, s) is not None


def _fibres(f: QuiverMorphism) -> Iterable[list[Arrow]]:
    """The arrows of F's domain grouped by image, each group in domain order."""
    by_image: dict[str, list[Arrow]] = {}
    for a in f.domain.arrows:
        by_image.setdefault(f.arrow_map[a.name], []).append(a)
    return by_image.values()


def is_winding(f: QuiverMorphism) -> bool:
    """Arrows sharing an image must share neither source nor target."""
    return all(
        len({a.src for a in fibre}) == len(fibre) == len({a.tgt for a in fibre})
        for fibre in _fibres(f)
    )


def is_strictly_ordered(f: QuiverMorphism, vertex_key: Mapping[str, int]) -> bool:
    """Fibre arrows must be simultaneously ordered on sources and targets.

    Each fibre is sorted once by source key and only neighbours are
    compared: source keys must all differ and target keys strictly
    increase, which is the condition on every pair.  vertex_key totally
    orders the domain vertices touched by each fibre; a missing key
    raises before its fibre's order is read.
    """
    for fibre in _fibres(f):
        for v in {a.src for a in fibre} | {a.tgt for a in fibre}:
            if v not in vertex_key:
                raise ValueError(f"vertex {v!r} in a fibre is not ordered")
        ranked = sorted((vertex_key[a.src], vertex_key[a.tgt]) for a in fibre)
        for (s1, t1), (s2, t2) in zip(ranked, ranked[1:]):
            if s1 == s2 or t1 >= t2:
                return False
    return True


def disjoint_union(
    q1: Quiver, q2: Quiver, suffixes: tuple[str, str] = ("", "'")
) -> tuple[Quiver, QuiverMorphism, QuiverMorphism]:
    """Disjoint union with renamed copies; returns (union, incl1, incl2)."""
    s1, s2 = suffixes
    verts = tuple(v + s1 for v in q1.vertices) + tuple(v + s2 for v in q2.vertices)
    arrows = tuple(Arrow(a.name + s1, a.src + s1, a.tgt + s1) for a in q1.arrows) + tuple(
        Arrow(a.name + s2, a.src + s2, a.tgt + s2) for a in q2.arrows
    )
    u = Quiver(verts, arrows)
    i1 = QuiverMorphism(
        q1, u, {v: v + s1 for v in q1.vertices}, {a.name: a.name + s1 for a in q1.arrows}
    )
    i2 = QuiverMorphism(
        q2, u, {v: v + s2 for v in q2.vertices}, {a.name: a.name + s2 for a in q2.arrows}
    )
    return u, i1, i2


def quiver_to_json(q: Quiver) -> str:
    data = {
        "vertices": list(q.vertices),
        "arrows": [{"id": a.name, "src": a.src, "tgt": a.tgt} for a in q.arrows],
    }
    return json.dumps(data, sort_keys=True)


def quiver_from_json(text: str) -> Quiver:
    data = json.loads(text)
    return quiver(data["vertices"], [(a["id"], a["src"], a["tgt"]) for a in data["arrows"]])


def morphism_from_json(text: str, domain: Quiver, codomain: Quiver) -> QuiverMorphism:
    data = json.loads(text)
    return morphism(domain, codomain, data["vertex_map"], data["arrow_map"])
