"""Relevant pairs and triples, triple types, and the Hypothesis (H) checker.

The check runs an induction over relevant pairs in the Psi order: every
non-trivial cell equation is charged to the largest unknown block it
contains, and a pair may carry at most one such equation, which must be
of a shape solvable for that block (type 2a/4a through an identity-matrix
arrow, or type 2b/3a).  Equations touching only diagonal blocks or blocks
known over S belong to the induction's base case and are exempt.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from .linalg import is_identity
from .quiver import Arrow, QuiverMorphism, Subquiver, distances_to, is_strictly_ordered
from .representation import Representation
from .schubert import PreconditionError, check_tree_setup

# Not called here since check_tree_setup owns the setup check; the traced
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

    @property
    def psi(self) -> tuple[int, int, str]:
        return (self.epsilon, self.delta, self.p_prime)


@dataclass
class WindingContext:
    """Shared data for the pair/triple combinatorics of one winding.

    Each fibre is sorted once, with its positions, and so are each
    fibre's arrows; Psi keys are memoised per pair.  The tables fill on
    first use of an image, so a vertex with an empty basis block raises
    PreconditionError from the same calls as a fresh sort would.
    """

    rep: Representation
    sub: Subquiver
    morphism: QuiverMorphism
    vertex_key: dict[str, int] = field(init=False)
    distance: dict[str, int] = field(init=False)
    _fibres: dict[str, tuple[list[str], list[int]]] = field(init=False, repr=False, compare=False)
    _fibre_arrows: dict[str, list[Arrow]] = field(init=False, repr=False, compare=False)
    _psi_keys: dict[tuple[str, str], tuple[int, int, int, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.morphism.domain != self.rep.quiver:
            raise PreconditionError("morphism domain does not match the representation")
        if not self.sub.vertices:
            raise PreconditionError("S must be nonempty")
        self.vertex_key = self.rep.basis.vertex_key(self.rep.quiver.vertices)
        self.distance = distances_to(self.rep.quiver, self.sub)
        self._fibres, self._fibre_arrows, self._psi_keys = {}, {}, {}

    def pos(self, v: str) -> int:
        key = self.vertex_key.get(v)
        if key is None:
            raise PreconditionError(f"vertex {v!r} has an empty basis block")
        return key

    def _sorted_fibre(self, v: str) -> tuple[list[str], list[int]]:
        """The fibre over v in basis order, with the position of each vertex."""
        if v not in self._fibres:
            fibre = sorted(self.morphism.fibre_vertices(v), key=self.pos)
            self._fibres[v] = (fibre, [self.pos(p) for p in fibre])
        return self._fibres[v]

    def fibre(self, v: str) -> list[str]:
        return list(self._sorted_fibre(v)[0])

    def fibre_arrows(self, name: str) -> list[Arrow]:
        if name not in self._fibre_arrows:
            self._fibre_arrows[name] = sorted(
                self.morphism.fibre_arrows(name), key=lambda a: self.pos(a.src)
            )
        return list(self._fibre_arrows[name])

    def is_relevant(self, p: str, p_prime: str) -> bool:
        return (
            self.morphism.vertex_map[p] == self.morphism.vertex_map[p_prime]
            and self.pos(p) <= self.pos(p_prime)
            and p_prime not in self.sub.vertices
        )

    def epsilon(self, p: str, p_prime: str) -> int:
        """Number of vertices v in the fibre of p with pos(p) <= pos(v) < pos(p')."""
        image = self.morphism.vertex_map[p]
        lo, hi = self.pos(p), self.pos(p_prime)
        positions = self._sorted_fibre(image)[1]
        return max(0, bisect_left(positions, hi) - bisect_left(positions, lo))

    def delta(self, p: str, p_prime: str) -> int:
        return max(self.distance[p], self.distance[p_prime])

    def psi_key(self, p: str, p_prime: str) -> tuple[int, int, int, int]:
        """Extended Psi comparator: non-relevant pairs sort below relevant ones."""
        key = self._psi_keys.get((p, p_prime))
        if key is None:
            key = self._psi_keys[(p, p_prime)] = (
                1 if self.is_relevant(p, p_prime) else 0,
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
    ka, kb = ctx.psi_key(*pair_a), ctx.psi_key(*pair_b)
    if ka == kb and pair_a != pair_b:
        raise ValueError(f"Psi comparison ties on distinct pairs {pair_a} and {pair_b}")
    return ka < kb


def classify_triple(ctx: WindingContext, atilde: str, t: str, s: str) -> TripleType:
    """Type 0-5 of the relevant triple (atilde, t, s), subtypes by Psi."""
    fibre = ctx.fibre_arrows(atilde)
    arrow_t = next((a for a in fibre if a.tgt == t), None)
    arrow_s = next((a for a in fibre if a.src == s), None)
    pos = ctx.pos
    if arrow_s is not None and arrow_s.tgt == t:
        return TripleType.T1
    if arrow_t is not None and arrow_s is not None:
        if pos(arrow_t.src) >= pos(s):
            return TripleType.T0
        if _psi_less(ctx, (t, arrow_s.tgt), (arrow_t.src, s)):
            return TripleType.T2A
        return TripleType.T2B
    if arrow_s is not None:
        if pos(t) >= pos(arrow_s.tgt):
            return TripleType.T0
        for a in fibre:
            if pos(t) < pos(a.tgt) < pos(arrow_s.tgt):
                if _psi_less(ctx, (t, arrow_s.tgt), (a.src, s)):
                    return TripleType.T3B
        return TripleType.T3A
    if arrow_t is not None:
        if pos(arrow_t.src) >= pos(s):
            return TripleType.T0
        for a in fibre:
            if pos(arrow_t.src) < pos(a.src) < pos(s):
                if _psi_less(ctx, (arrow_t.src, s), (t, a.tgt)):
                    return TripleType.T4B
        return TripleType.T4A
    if any(pos(a.src) < pos(s) and pos(t) < pos(a.tgt) for a in fibre):
        return TripleType.T5
    return TripleType.T0


def _equation_pairs(
    ctx: WindingContext, atilde: str, t: str, s: str, typ: TripleType
) -> list[tuple[str, str]]:
    """Non-diagonal block index pairs appearing in E(atilde, t, s)."""
    fibre = ctx.fibre_arrows(atilde)
    arrow_t = next((a for a in fibre if a.tgt == t), None)
    arrow_s = next((a for a in fibre if a.src == s), None)
    pos = ctx.pos
    pairs: list[tuple[str, str]] = []
    if typ in (TripleType.T2A, TripleType.T2B):
        pairs.append((arrow_t.src, s))
        pairs.append((t, arrow_s.tgt))
        for a in fibre:
            if pos(arrow_t.src) < pos(a.src) < pos(s):
                pairs.append((t, a.tgt))
                pairs.append((a.src, s))
    elif typ in (TripleType.T3A, TripleType.T3B):
        pairs.append((t, arrow_s.tgt))
        for a in fibre:
            if pos(t) < pos(a.tgt) < pos(arrow_s.tgt):
                pairs.append((t, a.tgt))
                pairs.append((a.src, s))
    elif typ in (TripleType.T4A, TripleType.T4B):
        pairs.append((arrow_t.src, s))
        for a in fibre:
            if pos(arrow_t.src) < pos(a.src) < pos(s):
                pairs.append((t, a.tgt))
                pairs.append((a.src, s))
    elif typ is TripleType.T5:
        for a in fibre:
            if pos(a.src) < pos(s) and pos(t) < pos(a.tgt):
                pairs.append((t, a.tgt))
                pairs.append((a.src, s))
    return [(a, b) for a, b in pairs if a != b]


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
    check_tree_setup(rep, sub)
    ctx = WindingContext(rep, sub, f)
    if not is_strictly_ordered(f, ctx.vertex_key):
        return HypothesisResult(False, reason="morphism is not strictly ordered")

    dangers: dict[tuple[str, str], list[TripleReport]] = {}
    for at in f.codomain.arrows:
        for t in ctx.fibre(at.tgt):
            for s in ctx.fibre(at.src):
                typ = classify_triple(ctx, at.name, t, s)
                if typ in (TripleType.T0, TripleType.T1):
                    continue
                pairs = [
                    pr
                    for pr in _equation_pairs(ctx, at.name, t, s, typ)
                    if ctx.is_relevant(*pr)
                ]
                if not pairs:
                    continue
                largest = max(pairs, key=lambda pr: ctx.psi_key(*pr))
                dangers.setdefault(largest, []).append(
                    TripleReport((at.name, t, s), typ)
                )

    notes: list[str] = []
    exceptions: list[tuple[tuple[str, str], TripleReport]] = []
    for pair in relevant_pairs(ctx):
        key = (pair.p, pair.p_prime)
        charged = dangers.get(key, [])
        if not charged:
            continue
        if len(charged) == 1 and _excusable(ctx, charged[0], notes):
            exceptions.append((key, charged[0]))
            continue
        return HypothesisResult(
            False,
            reason=f"pair ({pair.p},{pair.p_prime}) carries inadmissible equations",
            pair=key,
            triples=tuple(charged),
        )
    return HypothesisResult(True, exceptions=tuple(exceptions), notes=tuple(dict.fromkeys(notes)))


def _excusable(ctx: WindingContext, report: TripleReport, notes: list[str]) -> bool:
    if report.type in (TripleType.T2B, TripleType.T3A):
        return True
    if report.type in (TripleType.T2A, TripleType.T4A):
        atilde, t, _s = report.triple
        arrow_t = next(a for a in ctx.fibre_arrows(atilde) if a.tgt == t)
        ident = is_identity(ctx.rep.matrices[arrow_t.name])
        if arrow_t.name in ctx.sub.arrows:
            if not ident:
                notes.append(
                    f"exception through S-arrow {arrow_t.name!r} needs an identity matrix"
                )
            return ident
        if not ident:
            notes.append(f"arrow {arrow_t.name!r} outside S is unexpectedly non-identity")
        else:
            notes.append(
                f"identity requirement for exception via {arrow_t.name!r} is vacuous (arrow not in S)"
            )
        return ident
    return False
