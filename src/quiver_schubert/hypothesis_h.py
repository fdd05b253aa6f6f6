"""Relevant pairs and triples, triple types, and the Hypothesis (H) checker.

The check runs an induction over relevant pairs in the Psi order: every
non-trivial cell equation is charged to the largest unknown block it
contains, and a pair may carry at most one such equation, which must be
of a shape solvable for that block (type 2a/4a through an identity-matrix
arrow, or type 2b/3a).  Equations touching only diagonal blocks or blocks
known over S belong to the induction's base case and are exempt.

On a strictly ordered fibre the arrows over one codomain arrow order
sources and targets alike, which gives two facts.  Fix (atilde, t).  The
s whose equation has a block pair form a suffix of the source fibre: s
lies past the source of the arrow into t, or, with no such arrow, at or
past the source of the first arrow with target after t.  Along the slice
of arrows a between t and s, epsilon(t, a.tgt) grows and epsilon(a.src, s)
shrinks, and relevance, the lead of the Psi key, never drops against
them: it is fixed by s for (a.src, s), and for (t, a.tgt) holds on a
suffix of the slice, as the basis is ordered above S.  So each family's
largest key is at a slice end: a triple is charged in O(1), and only
triples that carry an equation are walked.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple
from .linalg import is_identity
from .quiver import Arrow, QuiverMorphism, Subquiver, is_strictly_ordered, tree_distances
from .representation import Representation
from .schubert import PreconditionError, _check_domain, tree_setup

# Not called here since schubert.tree_setup owns the setup check; the traced
# benchmark run (perfbench/layers.py) still wraps both under this module.
from .quiver import is_tree_extension  # noqa: F401
from .representation import is_ordered_above  # noqa: F401


class TripleType(Enum):
    T0 = "T0"
    T1 = "T1"
    T2A = "T2a"
    T2B = "T2b"
    T3A = "T3a"
    T3B = "T3b"
    T4A = "T4a"
    T4B = "T4b"
    T5 = "T5"


@dataclass(frozen=True)
class RelevantPair:
    p: str
    p_prime: str
    delta: int
    epsilon: int


class _ArrowFibre(NamedTuple):
    """The arrows over one codomain arrow, sorted by source, with lookups for the triple walk.

    `by_tgt` and `by_src` map a vertex to the first arrow, in this order,
    with that target or source; `src_positions` and `tgt_positions` are
    the arrows' end positions in this order.
    """

    arrows: tuple[Arrow, ...]
    by_tgt: dict[str, Arrow]
    by_src: dict[str, Arrow]
    src_positions: list[int]
    tgt_positions: list[int]


@dataclass
class WindingContext:
    """Shared data for the pair/triple combinatorics of one winding.

    Each fibre is sorted once, with its positions, and so are each
    fibre's arrows; both are handed out as the stored tuples.  Psi keys
    are memoised per pair.  The tables fill on
    first use of an image, so a vertex with an empty basis block raises
    PreconditionError from the same calls as a fresh sort would.
    `arrow_fibre` adds, per codomain arrow, the lookups of the triple walk.
    """

    rep: Representation
    sub: Subquiver
    morphism: QuiverMorphism
    vertex_key: dict[str, int] = field(init=False)
    distance: dict[str, int] = field(init=False)
    _fibres: dict[str, tuple[tuple[str, ...], list[int]]] = field(
        init=False, repr=False, compare=False
    )
    _fibre_arrows: dict[str, tuple[Arrow, ...]] = field(init=False, repr=False, compare=False)
    _arrow_fibres: dict[str, _ArrowFibre] = field(init=False, repr=False, compare=False)
    _psi_keys: dict[tuple[str, str], tuple[int, int, int, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_domain(self.morphism, self.rep)
        if not self.sub.vertices:
            raise PreconditionError("S must be nonempty")
        self.vertex_key = self.rep.basis.vertex_key(self.rep.quiver.vertices)
        self.distance = tree_distances(self.rep.quiver, self.sub)
        if self.distance is None:
            raise PreconditionError("T is not a tree extension of S")
        self._fibres, self._fibre_arrows, self._arrow_fibres, self._psi_keys = {}, {}, {}, {}

    def pos(self, v: str) -> int:
        key = self.vertex_key.get(v)
        if key is None:
            raise PreconditionError(f"vertex {v!r} has an empty basis block")
        return key

    def _sorted_fibre(self, v: str) -> tuple[tuple[str, ...], list[int]]:
        """The fibre over v in basis order, with the position of each vertex."""
        if v not in self._fibres:
            fibre = tuple(sorted(self.morphism.fibre_vertices(v), key=self.pos))
            self._fibres[v] = (fibre, [self.pos(p) for p in fibre])
        return self._fibres[v]

    def fibre(self, v: str) -> tuple[str, ...]:
        return self._sorted_fibre(v)[0]

    def fibre_arrows(self, name: str) -> tuple[Arrow, ...]:
        if name not in self._fibre_arrows:
            self._fibre_arrows[name] = tuple(
                sorted(self.morphism.fibre_arrows(name), key=lambda a: self.pos(a.src))
            )
        return self._fibre_arrows[name]

    def arrow_fibre(self, name: str) -> _ArrowFibre:
        """`fibre_arrows(name)` with its lookups by end vertex and its end positions."""
        found = self._arrow_fibres.get(name)
        if found is None:
            arrows = self.fibre_arrows(name)
            by_tgt: dict[str, Arrow] = {}
            by_src: dict[str, Arrow] = {}
            for a in arrows:
                by_tgt.setdefault(a.tgt, a)
                by_src.setdefault(a.src, a)
            sources = [self.pos(a.src) for a in arrows]
            targets = [self.pos(a.tgt) for a in arrows]
            found = self._arrow_fibres[name] = _ArrowFibre(arrows, by_tgt, by_src, sources, targets)
        return found

    def epsilon(self, p: str, p_prime: str) -> int:
        """Number of vertices v in the fibre of p with pos(p) <= pos(v) < pos(p')."""
        image = self.morphism.vertex_map[p]
        lo, hi = self.pos(p), self.pos(p_prime)
        positions = self._sorted_fibre(image)[1]
        return max(0, bisect_left(positions, hi) - bisect_left(positions, lo))

    def delta(self, p: str, p_prime: str) -> int:
        return max(self.distance[p], self.distance[p_prime])

    def psi_key(self, p: str, p_prime: str) -> tuple[int, int, int, int]:
        """Extended Psi comparator: non-relevant pairs sort below relevant ones.

        The first component is 1 exactly when (p, p') is relevant: one fibre,
        p at or before p', and p' outside S.
        """
        key = self._psi_keys.get((p, p_prime))
        if key is None:
            relevant = (
                self.morphism.vertex_map[p] == self.morphism.vertex_map[p_prime]
                and self.pos(p) <= self.pos(p_prime)
                and p_prime not in self.sub.vertices
            )
            key = self._psi_keys[(p, p_prime)] = (
                1 if relevant else 0,
                self.epsilon(p, p_prime),
                self.delta(p, p_prime),
                self.pos(p_prime),
            )
        return key


def relevant_pairs(ctx: WindingContext) -> list[RelevantPair]:
    """All pairs of Adm^2 with their delta, epsilon, Psi, sorted by Psi."""
    pairs = []
    for image in ctx.morphism.codomain.vertices:
        fibre = ctx.fibre(image)
        for i, p in enumerate(fibre):
            for p_prime in fibre[i:]:
                if p_prime in ctx.sub.vertices:
                    continue
                pairs.append(
                    RelevantPair(p, p_prime, ctx.delta(p, p_prime), ctx.epsilon(p, p_prime))
                )
    pairs.sort(key=lambda pr: ctx.psi_key(pr.p, pr.p_prime))
    return pairs


def _psi_less(ctx: WindingContext, pair_a: tuple[str, str], pair_b: tuple[str, str]) -> bool:
    keys = ctx._psi_keys  # a key is a nonempty tuple, so a miss is the only falsy read
    ka, kb = keys.get(pair_a) or ctx.psi_key(*pair_a), keys.get(pair_b) or ctx.psi_key(*pair_b)
    if ka == kb and pair_a != pair_b:
        raise ValueError(f"Psi comparison ties on distinct pairs {pair_a} and {pair_b}")
    return ka < kb


def _walk_triple(
    ctx: WindingContext, atilde: str, t: str, s: str
) -> tuple[TripleType, list[tuple[str, str]]]:
    """Type 0-5 of the triple (atilde, t, s) and the candidate block pairs of E(atilde, t, s).

    Both come from one slice: the arrows of atilde's fibre lying between t
    and s.  Each adds (t, a.tgt) and (a.src, s), never diagonal; the last
    arrow's (t, a.tgt) and the first's (a.src, s) top their families (see
    the module docstring), so types 3 and 4 read their subtypes from them,
    and join the pairs of the arrows into t and out of s as candidates for
    the equation's largest pair.  The list is empty exactly for types 0, 1.

    Assumes atilde's fibre is strictly ordered, as `check_hypothesis_h`
    checks first: its arrows then order sources and targets alike, so the
    arrows between t and s are one slice of the source-sorted arrows, the
    suffix with target after t cut to the prefix with source before s.

    t and s go through `ctx.pos` once each, which refuses a vertex with an
    empty basis block.  The arrow ends are read from `ctx.vertex_key`
    directly: `arrow_fibre` placed every end of atilde's fibre through
    `ctx.pos` when it built the lookups, so an end with an empty block has
    been refused before any triple over atilde is walked.
    """
    fibre, by_tgt, by_src, src_positions, tgt_positions = ctx.arrow_fibre(atilde)
    arrow_t = by_tgt.get(t)
    arrow_s = by_src.get(s)
    if arrow_s is not None and arrow_s.tgt == t:
        return TripleType.T1, []
    pos_t, pos_s, placed = ctx.pos(t), ctx.pos(s), ctx.vertex_key
    if (arrow_t is not None and placed[arrow_t.src] > pos_s) or (
        arrow_s is not None and placed[arrow_s.tgt] < pos_t
    ):
        return TripleType.T0, []
    first, end = bisect_right(tgt_positions, pos_t), bisect_left(src_positions, pos_s)
    pairs = [(t, fibre[end - 1].tgt), (fibre[first].src, s)] if first < end else []
    if arrow_t is not None and arrow_s is not None:
        below = _psi_less(ctx, (t, arrow_s.tgt), (arrow_t.src, s))
        return (TripleType.T2A if below else TripleType.T2B), [
            (arrow_t.src, s), (t, arrow_s.tgt), *pairs
        ]
    if arrow_s is not None:
        above = bool(pairs) and _psi_less(ctx, (t, arrow_s.tgt), pairs[1])
        return (TripleType.T3B if above else TripleType.T3A), [(t, arrow_s.tgt), *pairs]
    if arrow_t is not None:
        above = bool(pairs) and _psi_less(ctx, (arrow_t.src, s), pairs[0])
        return (TripleType.T4B if above else TripleType.T4A), [(arrow_t.src, s), *pairs]
    return (TripleType.T5 if pairs else TripleType.T0), pairs


def classify_triple(ctx: WindingContext, atilde: str, t: str, s: str) -> TripleType:
    """Type 0-5 of the relevant triple (atilde, t, s), subtypes by Psi.

    Assumes atilde's fibre is strictly ordered (see `_walk_triple`).
    """
    return _walk_triple(ctx, atilde, t, s)[0]


@dataclass(frozen=True)
class TripleReport:
    triple: tuple[str, str, str]
    type: TripleType


@dataclass(frozen=True)
class HypothesisResult:
    passed: bool
    reason: str = ""
    pair: tuple[str, str] | None = None
    triples: tuple[TripleReport, ...] = ()
    exceptions: tuple[tuple[tuple[str, str], TripleReport], ...] = ()
    notes: tuple[str, ...] = ()

    def witness_json(self) -> str:
        """The verdict with its evidence.

        A failure is witnessed by its pair and that pair's triples.  A pass
        adds the excused equations (`exceptions`: pair, triple, type) and
        the deduplicated `notes`; a failure never carries either, since the
        check stops at the first failing pair.
        """
        data = {
            "passed": self.passed,
            "reason": self.reason,
            "pair": list(self.pair) if self.pair else None,
            "triples": [
                {"triple": list(tr.triple), "type": tr.type.value} for tr in self.triples
            ],
        }
        if self.passed:
            data["exceptions"] = [
                {"pair": list(pair), "triple": list(tr.triple), "type": tr.type.value}
                for pair, tr in self.exceptions
            ]
            data["notes"] = list(self.notes)
        return json.dumps(data, sort_keys=True)


def check_hypothesis_h(
    rep: Representation, sub: Subquiver, f: QuiverMorphism
) -> HypothesisResult:
    """Decide Hypothesis (H) for the winding F on the tree extension S of T.

    Raises PreconditionError when T is not a tree extension of S or the
    basis is not ordered above S; returns Fail (with the first violating
    pair in Psi order and the offending triples) otherwise.
    """
    tree_setup(rep, sub)
    ctx = WindingContext(rep, sub, f)
    if not is_strictly_ordered(f, ctx.vertex_key):
        return HypothesisResult(False, reason="morphism is not strictly ordered")

    dangers: dict[tuple[str, str], list[TripleReport]] = {}
    keys, pos, psi_key = ctx._psi_keys, ctx.pos, ctx.psi_key
    for at in f.codomain.arrows:
        targets = ctx.fibre(at.tgt)
        sources, positions = ctx._sorted_fibre(at.src) if targets else ((), [])
        arrows, by_tgt, _, src_positions, tgt_positions = ctx.arrow_fibre(at.name)
        for t in targets:  # walk only the suffix of s whose triples carry an equation
            arrow_t, after = by_tgt.get(t), bisect_right(tgt_positions, pos(t))
            if arrow_t is not None:
                start = bisect_right(positions, pos(arrow_t.src))
            elif after < len(arrows):
                start = bisect_left(positions, src_positions[after])
            else:
                continue
            for s in sources[start:]:
                typ, pairs = _walk_triple(ctx, at.name, t, s)
                top = None  # the first candidate of largest key, as max() would pick
                for pr in pairs:
                    psi = keys.get(pr) or psi_key(*pr)
                    if top is None or psi > top:
                        largest, top = pr, psi
                if top[0]:  # charged only to a relevant pair
                    dangers.setdefault(largest, []).append(TripleReport((at.name, t, s), typ))

    notes: list[str] = []
    exceptions: list[tuple[tuple[str, str], TripleReport]] = []
    # every charged pair is relevant, and Psi is injective on relevant pairs,
    # so this is the Psi order of relevant_pairs restricted to charged pairs
    for key in sorted(dangers, key=keys.__getitem__):
        charged = dangers[key]
        if len(charged) == 1 and _excusable(ctx, charged[0], notes):
            exceptions.append((key, charged[0]))
            continue
        return HypothesisResult(
            False,
            reason=f"pair ({key[0]},{key[1]}) carries inadmissible equations",
            pair=key,
            triples=tuple(charged),
        )
    return HypothesisResult(True, exceptions=tuple(exceptions), notes=tuple(dict.fromkeys(notes)))


def _excusable(ctx: WindingContext, report: TripleReport, notes: list[str]) -> bool:
    if report.type in (TripleType.T2B, TripleType.T3A):
        return True
    if report.type in (TripleType.T2A, TripleType.T4A):
        atilde, t, _s = report.triple
        arrow_t = ctx.arrow_fibre(atilde).by_tgt[t].name
        if arrow_t in ctx.sub.arrows:
            # a failing pair ends the check, and a failure carries no notes
            return is_identity(ctx.rep.matrices[arrow_t])
        # `tree_setup` proved that every arrow of T-S carries an identity matrix
        notes.append(f"identity requirement for exception via {arrow_t!r} is vacuous (arrow not in S)")
        return True
    return False
