"""Quiver representations with exact integer matrices and a global ordered basis.

A representation stores one matrix per arrow, shaped target-block by
source-block, with rows and columns indexed by the basis elements of the
endpoint blocks in global order.  Reduction mod p happens only at oracle
boundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, identity_matrix, is_identity, matrix
from .quiver import Quiver, QuiverMorphism, Subquiver, difference_of, distances_to, full_subquiver
from .quiver import quiver, quiver_from_json, quiver_to_json


@dataclass(frozen=True)
class OrderedBasis:
    """A globally totally ordered basis partitioned by vertex."""

    order: tuple[str, ...]
    vertex_of: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError("duplicate basis ids")
        for b in self.order:
            if b not in self.vertex_of:
                raise ValueError(f"basis id {b!r} has no vertex")

    def position(self, b: str) -> int:
        return self._positions()[b]

    def _positions(self) -> dict[str, int]:
        pos = getattr(self, "_pos_cache", None)
        if pos is None:
            pos = {b: i for i, b in enumerate(self.order)}
            object.__setattr__(self, "_pos_cache", pos)
        return pos

    def block(self, v: str) -> tuple[str, ...]:
        blocks = getattr(self, "_block_cache", None)
        if blocks is None:
            blocks = {}
            for b in self.order:
                blocks.setdefault(self.vertex_of[b], []).append(b)
            blocks = {k: tuple(vs) for k, vs in blocks.items()}
            object.__setattr__(self, "_block_cache", blocks)
        return blocks.get(v, ())

    def vertex_key(self, vertices: Iterable[str]) -> dict[str, int]:
        """Total order on the given vertices induced by the block order.

        Raises when two nonempty blocks interleave; vertices with empty
        blocks are excluded from the result.
        """
        pos = self._positions()
        spans = []
        for v in vertices:
            blk = self.block(v)
            if blk:
                spans.append((pos[blk[0]], pos[blk[-1]], v))
        spans.sort()
        for (lo1, hi1, v1), (lo2, hi2, v2) in zip(spans, spans[1:]):
            if lo2 <= hi1:
                raise ValueError(f"basis blocks of {v1!r} and {v2!r} interleave")
        return {v: rank for rank, (_, _, v) in enumerate(spans)}

    def regroup(self, vertex_map: Mapping[str, str]) -> "OrderedBasis":
        return OrderedBasis(self.order, {b: vertex_map[v] for b, v in self.vertex_of.items()})


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    basis: OrderedBasis
    matrices: Mapping[str, Matrix] = field(hash=False)

    def rank(self, v: str) -> int:
        return len(self.basis.block(v))

    def dim_vector(self) -> dict[str, int]:
        return {v: self.rank(v) for v in self.quiver.vertices}

    def matrix(self, arrow_name: str) -> Matrix:
        return self.matrices[arrow_name]

    def validate(self) -> list[str]:
        problems = []
        for b in self.basis.order:
            if self.basis.vertex_of[b] not in self.quiver.vertices:
                problems.append(f"basis id {b!r} sits at an undeclared vertex")
        for a in self.quiver.arrows:
            m = self.matrices.get(a.name)
            if m is None:
                problems.append(f"arrow {a.name!r} has no matrix")
                continue
            nrows, ncols = len(m), len(m[0]) if m else 0
            if nrows != self.rank(a.tgt) or (nrows and ncols != self.rank(a.src)):
                problems.append(
                    f"arrow {a.name!r}: matrix is {nrows}x{ncols}, expected "
                    f"{self.rank(a.tgt)}x{self.rank(a.src)}"
                )
            if nrows == 0 and self.rank(a.src) and self.rank(a.tgt):
                problems.append(f"arrow {a.name!r}: matrix is empty")
        return problems


def representation(
    q: Quiver, basis: OrderedBasis, matrices: Mapping[str, Sequence[Sequence[int]]]
) -> Representation:
    mats = {k: matrix(v) for k, v in matrices.items()}
    for a in q.arrows:
        # matrices with an empty side have one canonical shape
        nrows = sum(1 for b in basis.order if basis.vertex_of[b] == a.tgt)
        ncols = sum(1 for b in basis.order if basis.vertex_of[b] == a.src)
        if a.name in mats and (nrows == 0 or ncols == 0):
            mats[a.name] = tuple(() for _ in range(nrows))
    rep = Representation(q, basis, mats)
    problems = rep.validate()
    if problems:
        raise ValueError("; ".join(problems))
    return rep


def restrict(m: Representation, s: Subquiver) -> Representation:
    """M_S: blocks and matrices for S only, basis order inherited."""
    problems = s.validate()
    if problems:
        raise ValueError("; ".join(problems))
    sub_quiver = quiver(
        [v for v in m.quiver.vertices if v in s.vertices],
        [(a.name, a.src, a.tgt) for a in m.quiver.arrows if a.name in s.arrows],
    )
    order = tuple(b for b in m.basis.order if m.basis.vertex_of[b] in s.vertices)
    basis = OrderedBasis(order, {b: m.basis.vertex_of[b] for b in order})
    matrices = {a.name: m.matrices[a.name] for a in m.quiver.arrows if a.name in s.arrows}
    return Representation(sub_quiver, basis, matrices)


def push_forward(f: QuiverMorphism, m: Representation) -> Representation:
    """F_*M: fibre-wise direct sums of spaces with summed maps.

    The basis is the same ordered set, regrouped by image vertex; for a
    winding every matrix comes out as a monomial block matrix whose
    nonzero blocks are the M_alpha.
    """
    if f.domain != m.quiver:
        raise ValueError("morphism domain does not match the representation's quiver")
    basis = m.basis.regroup(f.vertex_map)
    matrices: dict[str, Matrix] = {}
    for at in f.codomain.arrows:
        tgt_block = basis.block(at.tgt)
        src_block = basis.block(at.src)
        row_of = {b: i for i, b in enumerate(tgt_block)}
        col_of = {b: i for i, b in enumerate(src_block)}
        out = [[0] * len(src_block) for _ in range(len(tgt_block))]
        for a in f.fibre_arrows(at.name):
            ma = m.matrices[a.name]
            rows = m.basis.block(a.tgt)
            cols = m.basis.block(a.src)
            for i, br in enumerate(rows):
                for j, bc in enumerate(cols):
                    if ma[i][j]:
                        out[row_of[br]][col_of[bc]] += ma[i][j]
        matrices[at.name] = tuple(tuple(r) for r in out)
    return Representation(f.codomain, basis, matrices)


def direct_sum(
    m1: Representation, m2: Representation, order: Sequence[str] | None = None
) -> Representation:
    """Block-diagonal sum over a common quiver.

    The merged global order defaults to m1's order followed by m2's; a
    caller-declared interleaving is accepted as long as it is a
    permutation of the disjoint union of the two bases.
    """
    if m1.quiver != m2.quiver:
        raise ValueError("direct_sum requires the same quiver")
    ids1, ids2 = set(m1.basis.order), set(m2.basis.order)
    if ids1 & ids2:
        raise ValueError("basis ids of the summands overlap; rename first")
    merged = tuple(order) if order is not None else m1.basis.order + m2.basis.order
    if set(merged) != ids1 | ids2 or len(merged) != len(ids1) + len(ids2):
        raise ValueError("merged order must be a permutation of both bases")
    vertex_of = dict(m1.basis.vertex_of)
    vertex_of.update(m2.basis.vertex_of)
    basis = OrderedBasis(merged, vertex_of)
    matrices: dict[str, Matrix] = {}
    for a in m1.quiver.arrows:
        tgt_block = basis.block(a.tgt)
        src_block = basis.block(a.src)
        out = [[0] * len(src_block) for _ in range(len(tgt_block))]
        for part in (m1, m2):
            ma = part.matrices[a.name]
            rows = part.basis.block(a.tgt)
            cols = part.basis.block(a.src)
            for i, br in enumerate(rows):
                for j, bc in enumerate(cols):
                    out[tgt_block.index(br)][src_block.index(bc)] = ma[i][j]
        matrices[a.name] = tuple(tuple(r) for r in out)
    return Representation(m1.quiver, basis, matrices)


def reorder_basis(m: Representation, new_order: Sequence[str]) -> Representation:
    """Same module in a permuted global order; matrices are re-indexed."""
    if set(new_order) != set(m.basis.order) or len(new_order) != len(m.basis.order):
        raise ValueError("new order must be a permutation of the basis")
    basis = OrderedBasis(tuple(new_order), dict(m.basis.vertex_of))
    matrices: dict[str, Matrix] = {}
    for a in m.quiver.arrows:
        old_rows = m.basis.block(a.tgt)
        old_cols = m.basis.block(a.src)
        ri = {b: i for i, b in enumerate(old_rows)}
        ci = {b: i for i, b in enumerate(old_cols)}
        ma = m.matrices[a.name]
        matrices[a.name] = tuple(
            tuple(ma[ri[br]][ci[bc]] for bc in basis.block(a.src))
            for br in basis.block(a.tgt)
        )
    return Representation(m.quiver, basis, matrices)


def identity_image(m: Representation, arrow_name: str, b: str) -> str:
    """Image of a basis element under an identity-matrix arrow."""
    a = m.quiver.arrow(arrow_name)
    src = m.basis.block(a.src)
    tgt = m.basis.block(a.tgt)
    if not is_identity(m.matrices[arrow_name]):
        raise ValueError(f"arrow {arrow_name!r} is not an identity matrix")
    return tgt[src.index(b)]


def is_ordered_above(m: Representation, s: Subquiver) -> tuple[bool, list[str]]:
    """Check the four clauses of the order-above-S condition, with diagnostics.

    Paths out of S are undirected walks with pairwise-distinct vertices.
    """
    diagnostics: list[str] = []
    pos = m.basis._positions()
    s_elems = [b for b in m.basis.order if m.basis.vertex_of[b] in s.vertices]
    rest = [b for b in m.basis.order if m.basis.vertex_of[b] not in s.vertices]
    if s_elems and rest and max(pos[b] for b in s_elems) > min(pos[b] for b in rest):
        diagnostics.append("B_S <= B fails: an S-basis element sits above a non-S element")

    try:
        key = m.basis.vertex_key(m.quiver.vertices)
    except ValueError as exc:
        diagnostics.append(f"basis does not induce a vertex order: {exc}")
        key = None

    diff = difference_of(m.quiver, s)
    if key is not None:
        boundary = sorted(v for v in s.vertices if v in diff.vertices)
        steps: dict[str, list[str]] = {}
        for name in diff.arrows:
            a = m.quiver.arrow(name)
            steps.setdefault(a.src, []).append(a.tgt)
            steps.setdefault(a.tgt, []).append(a.src)
        outside = {v for v in m.quiver.vertices if v not in s.vertices}

        def walk(path: list[str]) -> None:
            here = path[-1]
            for nxt in steps.get(here, []):
                if nxt not in outside or nxt in path:
                    continue
                if key.get(nxt, -1) <= key.get(here, -1):
                    diagnostics.append(
                        f"path {' -> '.join(path + [nxt])} is not increasing"
                    )
                    continue
                walk(path + [nxt])

        for p0 in boundary:
            walk([p0])

    for name in sorted(diff.arrows):
        if not is_identity(m.matrices[name]):
            diagnostics.append(f"arrow {name!r} in T-S is not the identity matrix")
    return not diagnostics, diagnostics


def order_above_extension(m: Representation, s: Subquiver) -> Representation:
    """Reorder blocks so the basis is ordered above S, keeping per-vertex orders.

    Requires identity matrices on T-S arrows.  Blocks are arranged
    S-vertices first (their relative order kept), then the remaining
    vertices by undirected distance from S, so every path out of S is
    increasing.
    """
    for name in sorted(difference_of(m.quiver, s).arrows):
        if not is_identity(m.matrices[name]):
            raise ValueError(f"arrow {name!r} in T-S is not an identity matrix")
    dist = distances_to(m.quiver, s)
    unreached = [v for v in m.quiver.vertices if v not in dist]
    if unreached:
        raise ValueError(f"vertices {unreached} are not connected to S through T-S")
    s_first = [v for v in m.quiver.vertices if v in s.vertices]
    others = sorted(
        (v for v in m.quiver.vertices if v not in s.vertices),
        key=lambda v: (dist[v], v),
    )
    new_order = [b for v in s_first + others for b in m.basis.block(v)]
    return reorder_basis(m, new_order)


def representation_to_json(m: Representation) -> str:
    data = {
        "quiver": json.loads(quiver_to_json(m.quiver)),
        "basis": {
            "order": list(m.basis.order),
            "vertex_of": dict(m.basis.vertex_of),
        },
        "matrices": {a: [list(r) for r in mat] for a, mat in sorted(m.matrices.items())},
    }
    return json.dumps(data, sort_keys=True)


def representation_from_json(text: str) -> Representation:
    data = json.loads(text)
    q = quiver_from_json(json.dumps(data["quiver"]))
    basis = OrderedBasis(tuple(data["basis"]["order"]), dict(data["basis"]["vertex_of"]))
    return representation(q, basis, data["matrices"])


def thin_representation(
    q: Quiver, vertex_order: Sequence[str] | None = None
) -> Representation:
    """Thin sincere module: rank one everywhere, identity matrices, basis = vertices."""
    order = tuple(vertex_order) if vertex_order is not None else q.vertices
    basis = OrderedBasis(order, {v: v for v in q.vertices})
    return Representation(q, basis, {a.name: identity_matrix(1) for a in q.arrows})


__all__ = [
    "OrderedBasis",
    "Representation",
    "representation",
    "restrict",
    "push_forward",
    "direct_sum",
    "reorder_basis",
    "identity_image",
    "is_ordered_above",
    "order_above_extension",
    "representation_to_json",
    "representation_from_json",
    "thin_representation",
    "full_subquiver",
]
