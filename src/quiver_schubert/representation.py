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

from .linalg import Matrix, identity_matrix, is_identity
from .quiver import Arrow, Quiver, QuiverMorphism, Subquiver, difference_of, distances_to
from .quiver import quiver, quiver_from_json, quiver_to_json, tree_distances
from .quiver import validate as validate_quiver


@dataclass(frozen=True)
class OrderedBasis:
    """A globally totally ordered basis partitioned by vertex."""

    order: tuple[str, ...]
    vertex_of: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        """Validate the order and build the positions and blocks that later reads return."""
        pos = {b: i for i, b in enumerate(self.order)}
        if len(pos) != len(self.order):
            raise ValueError("duplicate basis ids")
        blocks: dict[str, list[str]] = {}
        for b in self.order:
            if b not in self.vertex_of:
                raise ValueError(f"basis id {b!r} has no vertex")
            blocks.setdefault(self.vertex_of[b], []).append(b)
        object.__setattr__(self, "_positions", pos)
        object.__setattr__(self, "_blocks", {v: tuple(bs) for v, bs in blocks.items()})

    def position(self, b: str) -> int:
        return self._positions[b]

    def positions(self) -> Mapping[str, int]:
        """Position of every basis id in the global order."""
        return self._positions

    def block(self, v: str) -> tuple[str, ...]:
        return self._blocks.get(v, ())

    def vertex_key(self, vertices: Iterable[str]) -> dict[str, int]:
        """Total order on the given vertices induced by the block order.

        Raises when two nonempty blocks interleave; vertices with empty
        blocks are excluded from the result.
        """
        pos = self.positions()
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

    def validate(self) -> list[str]:
        problems = validate_quiver(self.quiver)
        for b in self.basis.order:
            if self.basis.vertex_of[b] not in self.quiver.vertices:
                problems.append(f"basis id {b!r} sits at an undeclared vertex")
        for a in self.quiver.arrows:
            m = self.matrices.get(a.name)
            if m is None:
                problems.append(f"arrow {a.name!r} has no matrix")
                continue
            if len(m) != self.rank(a.tgt):
                problems.append(f"arrow {a.name!r}: matrix has {len(m)} rows, expected {self.rank(a.tgt)}")
            for i, row in enumerate(m, 1):
                if len(row) != self.rank(a.src):
                    problems.append(f"arrow {a.name!r}: row {i} has {len(row)} entries, expected {self.rank(a.src)}")
                for j, x in enumerate(row, 1):
                    if type(x) is not int:  # a bool, float or string is not an entry
                        problems.append(f"arrow {a.name!r}: entry ({i}, {j}) is {x!r}, not an integer")
        return problems


def representation(
    q: Quiver, basis: OrderedBasis, matrices: Mapping[str, Sequence[Sequence[int]]]
) -> Representation:
    mats = {k: tuple(map(tuple, v)) for k, v in matrices.items()}  # entries checked by validate
    for a in q.arrows:
        # [] also stands for the rows of width 0 of an arrow with an empty source block
        if mats.get(a.name) == () and not basis.block(a.src):
            mats[a.name] = ((),) * len(basis.block(a.tgt))
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


def _assemble(q: Quiver, basis: OrderedBasis, pieces: Mapping[str, list[tuple]]) -> dict[str, Matrix]:
    """One matrix per arrow of q over basis, summed from the arrow's pieces.

    A piece (matrix, row ids, column ids) places its entry (i, j) at the
    basis ids rows[i] and cols[j].
    """
    matrices: dict[str, Matrix] = {}
    for a in q.arrows:
        row_of = {b: i for i, b in enumerate(basis.block(a.tgt))}
        col_of = {b: j for j, b in enumerate(basis.block(a.src))}
        out = [[0] * len(col_of) for _ in row_of]
        for mat, rows, cols in pieces[a.name]:
            for i, br in enumerate(rows):
                for j, bc in enumerate(cols):
                    out[row_of[br]][col_of[bc]] += mat[i][j]
        matrices[a.name] = tuple(tuple(r) for r in out)
    return matrices


def _piece(m: Representation, a: Arrow) -> tuple[Matrix, tuple[str, ...], tuple[str, ...]]:
    """The matrix of arrow a in m with its row and column basis ids."""
    return m.matrices[a.name], m.basis.block(a.tgt), m.basis.block(a.src)


def push_forward(f: QuiverMorphism, m: Representation) -> Representation:
    """F_*M: fibre-wise direct sums of spaces with summed maps.

    The basis is the same ordered set, regrouped by image vertex; for a
    winding every matrix comes out as a monomial block matrix whose
    nonzero blocks are the M_alpha.
    """
    if f.domain != m.quiver:
        raise ValueError("morphism domain does not match the representation's quiver")
    basis = m.basis.regroup(f.vertex_map)
    pieces = {
        at.name: [_piece(m, a) for a in f.fibre_arrows(at.name)] for at in f.codomain.arrows
    }
    return Representation(f.codomain, basis, _assemble(f.codomain, basis, pieces))


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
    pieces = {a.name: [_piece(m1, a), _piece(m2, a)] for a in m1.quiver.arrows}
    return Representation(m1.quiver, basis, _assemble(m1.quiver, basis, pieces))


def reorder_basis(m: Representation, new_order: Sequence[str]) -> Representation:
    """Same module in a permuted global order; matrices are re-indexed."""
    if set(new_order) != set(m.basis.order) or len(new_order) != len(m.basis.order):
        raise ValueError("new order must be a permutation of the basis")
    basis = OrderedBasis(tuple(new_order), dict(m.basis.vertex_of))
    pieces = {a.name: [_piece(m, a)] for a in m.quiver.arrows}
    return Representation(m.quiver, basis, _assemble(m.quiver, basis, pieces))


def is_ordered_above(m: Representation, s: Subquiver) -> tuple[bool, list[str]]:
    """Check the four clauses of the order-above-S condition, with diagnostics.

    T must be a tree extension of S; otherwise the only diagnostic says
    so.  The path clause asks every undirected path that leaves S along
    T-S to be increasing in the vertex order.  On a tree extension such a
    path moves one step farther from S with every arrow, so the clause
    holds exactly when each arrow of T-S has its farther end later in the
    vertex order than its nearer end.  With S empty it is vacuous.
    """
    dist = tree_distances(m.quiver, s)
    if dist is None:
        return False, ["T is not a tree extension of S"]
    diagnostics: list[str] = []
    pos = m.basis.positions()
    s_elems = [b for b in m.basis.order if m.basis.vertex_of[b] in s.vertices]
    rest = [b for b in m.basis.order if m.basis.vertex_of[b] not in s.vertices]
    if s_elems and rest and max(pos[b] for b in s_elems) > min(pos[b] for b in rest):
        diagnostics.append("B_S <= B fails: an S-basis element sits above a non-S element")

    try:
        key = m.basis.vertex_key(m.quiver.vertices)
    except ValueError as exc:
        diagnostics.append(f"basis does not induce a vertex order: {exc}")
        key = None

    if key is not None and s.vertices:
        for a in m.quiver.arrows:
            if a.name in s.arrows:
                continue
            near, far = (a.src, a.tgt) if dist[a.src] < dist[a.tgt] else (a.tgt, a.src)
            if key.get(far, -1) <= key.get(near, -1):
                diagnostics.append(f"step {near} -> {far} along arrow {a.name!r} is not increasing")

    diagnostics += _non_identity_arrows(m, difference_of(m.quiver, s))
    return not diagnostics, diagnostics


def _non_identity_arrows(m: Representation, diff: Subquiver) -> list[str]:
    """One message per arrow of T-S, by name, whose matrix is not the identity."""
    return [
        f"arrow {name!r} in T-S is not the identity matrix"
        for name in sorted(diff.arrows)
        if not is_identity(m.matrices[name])
    ]


def order_above_extension(m: Representation, s: Subquiver) -> Representation:
    """Reorder blocks so the basis is ordered above S, keeping per-vertex orders.

    Requires identity matrices on T-S arrows.  Blocks are arranged
    S-vertices first (their relative order kept), then the remaining
    vertices by undirected distance from S, so every path out of S is
    increasing.
    """
    problems = _non_identity_arrows(m, difference_of(m.quiver, s))
    if problems:
        raise ValueError(problems[0])
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
