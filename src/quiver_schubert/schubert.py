"""Schubert cells: indices, echelon coordinates, defining equations, tree theorems.

Cell points live in echelon charts: the generator with pivot b has a 1 in
row b, zeros in the other pivot rows and in all rows above b, and free
coordinates w_{b',b} for non-pivot rows b' below b in the same block of
the ambient quiver.  Equation generation follows the push-forward block
formalism uniformly; plain representations go through the identity
winding.

The hypotheses of the tree-extension theorems and of the winding
formalism hold per module, per S and per F, not per cell.  So the
per-cell entry points share that work, and each module keeps it for one
S and one F through `quiver.kept`, in `_tree_setup`, `_winding_setup`,
`_identity_winding_setup` and `_strict_winding_setup`:

- the tree setup of (M, S): the checks that T/S is a tree and the basis
  is ordered above S, and for each arrow of T-S the identity image of
  every basis element along it and which of its ends lies farther
  from S;
- the winding setup of (M, F): the checks that F is a winding on the
  quiver of M, the elements before every basis element at its ambient
  vertex, which give each cell's chart columns, and for each codomain
  arrow the rank of every basis element's vertex in its target and
  source fibres, sorted by block start, and the nonzero entries of every
  column of F_*M there, which is all that equation assembly reads.  The setup
  of the identity winding (no F) has its own slot, so cells asked with
  and without F in turn, as when C_beta(N) is set beside C_beta(F_*N),
  build each setup once;
- the strict-winding check of (M, F) that `pi` needs, which keeps no data.

None of this reads the cell, so a cell answered from a stored setup is
answered exactly as from a fresh one.  Only a setup whose checks pass is
stored; a failing one raises again on every call.  Representations,
subquivers and morphisms are immutable after use (the assumption
an `OrderedBasis` already makes of its order), and S and F are matched by
identity, not equality, so a stored setup always belongs to the very
objects it was built from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import int_det, polynomial_text
from .quiver import (
    QuiverMorphism,
    Subquiver,
    difference_of,
    identity_morphism,
    is_strictly_ordered,
    is_tree_extension,
    is_winding,
    kept,
    tree_distances,
)
from .representation import Representation, is_ordered_above


# ---------------------------------------------------------------------------
# cell indices


@dataclass(frozen=True)
class CellIndex:
    """A subset of the basis, stored in global basis order."""

    elements: tuple[str, ...]

    def as_set(self) -> frozenset[str]:
        """The elements as a set, built on first use: long cell lists mostly never ask."""
        return kept(self, "_set", None, lambda: frozenset(self.elements))

    def __contains__(self, b: str) -> bool:
        return b in self.as_set()

    def key(self) -> str:
        return ",".join(self.elements)


def cell_index(basis, elements: Iterable[str]) -> CellIndex:
    """The cell of these basis ids; ValueError if one is unknown or repeated."""
    listed = list(elements)
    elems = set(listed)
    pos = basis.positions()
    unknown = [b for b in elems if b not in pos]
    if unknown:
        raise ValueError(f"not basis elements: {sorted(unknown)}")
    if len(elems) < len(listed):
        repeated = sorted({b for b in listed if listed.count(b) > 1}, key=pos.__getitem__)
        raise ValueError(f"repeated basis ids: {repeated}")
    return CellIndex(tuple(sorted(elems, key=pos.__getitem__)))


def cell_type(basis, beta: CellIndex) -> dict[str, int]:
    e: dict[str, int] = {}
    for b in beta.elements:
        v = basis.vertex_of[b]
        e[v] = e.get(v, 0) + 1
    return e


def _check_dimension(v: str, ev: int, rank: int) -> None:
    if ev < 0:
        raise ValueError(f"dimension {ev} is negative at vertex {v!r}")
    if ev > rank:
        raise ValueError(f"dimension {ev} exceeds rank {rank} at vertex {v!r}")


def _cell_combinations(basis, e: Mapping[str, int], vertices: Sequence[str]):
    """The `product` of each vertex's combinations of e_v ids of its block, and the map of one to the cell's ids.

    A bad e raises ValueError first.  The ids come in basis order: joined when the blocks of `vertices` make
    up the basis one after another, else sorted.  Each comes from one vertex's block, listed once, so none is
    unknown or repeated and the checks of `cell_index` are not needed.
    """
    per_vertex = []
    seen = set()
    for v in vertices:
        block = basis.block(v)
        ev = e.get(v, 0)
        _check_dimension(v, ev, len(block))
        if ev and v in seen:
            raise ValueError(f"vertex {v!r} is listed twice, so its basis ids would repeat")
        seen.add(v)
        per_vertex.append(list(combinations(block, ev)))
    for v in e:
        if v not in seen:
            raise ValueError(f"dimension vector names {v!r}, which is not a vertex")
    if tuple(chain.from_iterable(map(basis.block, vertices))) == basis.order:
        return product(*per_vertex), chain.from_iterable
    pos = basis.positions().__getitem__
    return product(*per_vertex), lambda combo: sorted(chain.from_iterable(combo), key=pos)


def enumerate_cells(basis, e: Mapping[str, int], vertices: Sequence[str]) -> list[CellIndex]:
    """All subsets of the basis of type e, each in basis order, in lexicographic order of per-vertex combinations."""
    combos, elements = _cell_combinations(basis, e, vertices)
    return [CellIndex(tuple(elements(combo))) for combo in combos]


def cell_plan(basis, e: Mapping[str, int], vertices: Sequence[str]) -> list[tuple[str, tuple[tuple[str, ...], ...]]]:
    """The cells of `enumerate_cells`, in its order, each as (its `CellIndex.key()`, its pivot tuple at each vertex)."""
    combos, elements = _cell_combinations(basis, e, vertices)
    return [(",".join(elements(combo)), combo) for combo in combos]


# ---------------------------------------------------------------------------
# cell partial orders


def preceq(basis, beta: CellIndex, gamma: CellIndex) -> bool:
    """Componentwise comparison of the k-th smallest elements per vertex."""
    tb, tg = cell_type(basis, beta), cell_type(basis, gamma)
    if tb != tg:
        raise ValueError("cells of different type are not comparable")
    pos = basis.positions()
    for v in tb:
        bs = sorted((pos[b] for b in beta.elements if basis.vertex_of[b] == v))
        gs = sorted((pos[b] for b in gamma.elements if basis.vertex_of[b] == v))
        if any(x > y for x, y in zip(bs, gs)):
            return False
    return True


def block_leq(basis, beta: CellIndex, gamma: CellIndex) -> bool:
    """beta <= gamma in the block sense: (b-g) < (b&g) < (g-b) elementwise."""
    pos = basis.positions()
    beta_set, gamma_set = beta.as_set(), gamma.as_set()
    b_only = [pos[x] for x in beta.elements if x not in gamma_set]
    both = [pos[x] for x in beta.elements if x in gamma_set]
    g_only = [pos[x] for x in gamma.elements if x not in beta_set]

    def all_below(xs, ys):
        return all(x < y for x in xs for y in ys)

    return all_below(b_only, both) and all_below(both, g_only) and all_below(b_only, g_only)


def cell_partial_orders(basis, cells: Sequence[CellIndex]):
    """Relation tables for both orders on a same-type family of cells."""
    types = {tuple(sorted(cell_type(basis, c).items())) for c in cells}
    if len(types) > 1:
        raise ValueError("mixed cell types")
    keys = [c.key() for c in cells]
    preceq_table = {
        (keys[i], keys[j]): preceq(basis, ci, cj)
        for i, ci in enumerate(cells)
        for j, cj in enumerate(cells)
    }
    block_table = {
        (keys[i], keys[j]): block_leq(basis, ci, cj)
        for i, ci in enumerate(cells)
        for j, cj in enumerate(cells)
    }
    return preceq_table, block_table


# ---------------------------------------------------------------------------
# integer multivariate polynomials (just enough for cell equations)

Monomial = tuple[tuple[int, int], ...]  # ((var index, exponent), ...) sorted


class Poly(NamedTuple):
    """An integer polynomial in a cell's variables, by monomial; `render` prints it sorted, by `polynomial_text`."""

    terms: Mapping[Monomial, int]

    def __hash__(self) -> int:
        return hash(())  # the terms are a dict, so left out, and every Poly hashes alike

    def evaluate(self, values: Sequence[int], q: int) -> int:
        total = 0
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                term *= pow(values[v], e, q)
            total += term
        return total % q

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items())

    def render(self, names: Sequence[str]) -> str:
        return polynomial_text(
            (c, "*".join(names[v] if e == 1 else f"{names[v]}^{e}" for v, e in m)) for m, c in self.sorted_terms()
        )


# ---------------------------------------------------------------------------
# cell coordinates and defining equations


class CellEquation(NamedTuple):
    triple: tuple[str, str, str]  # (codomain arrow, target fibre vertex, source fibre vertex)
    row: str
    col: str
    poly: Poly


@dataclass(frozen=True)
class CellEquationSystem:
    beta: CellIndex
    variables: tuple[tuple[str, str], ...]  # (b', b): row element, column pivot
    equations: tuple[CellEquation, ...]

    def var_names(self) -> list[str]:
        return [f"w_{{{bp},{b}}}" for bp, b in self.variables]

    def is_satisfied(self, values: Sequence[int], q: int) -> bool:
        return all(eq.poly.evaluate(values, q) == 0 for eq in self.equations)

    def solutions(self, q: int):
        """Brute-force solutions over F_q, as coordinate tuples."""
        for combo in product(range(q), repeat=len(self.variables)):
            if self.is_satisfied(combo, q):
                yield combo

    def to_json(self) -> str:
        data = {
            "beta": list(self.beta.elements),
            "vars": [[bp, b] for bp, b in self.variables],
            "eqs": [
                {
                    "triple": list(eq.triple),
                    "row": eq.row,
                    "col": eq.col,
                    "poly": [[c, [[v, e] for v, e in m]] for m, c in eq.poly.sorted_terms()],
                }
                for eq in self.equations
            ],
        }
        return json.dumps(data, sort_keys=True)

    def to_text(self) -> str:
        names = self.var_names()
        lines = [f"cell beta = {{{', '.join(self.beta.elements)}}}"]
        lines.append("variables: " + (", ".join(names) if names else "(none)"))
        for eq in self.equations:
            at, t, s = eq.triple
            lines.append(f"E({at},{t},{s}) row {eq.row}: {eq.poly.render(names)} = 0")
        return "\n".join(lines)


def cell_variables(basis, beta: CellIndex, ambient_vertex_of: Mapping[str, str]) -> list[tuple[str, str]]:
    """Free coordinate positions (b', b) of the echelon chart, by position of b, then of b'.

    Builds for this call the lists of earlier elements that a winding
    setup keeps, and reads them as `generate_equations` does.  ValueError
    if beta is not a subset of the basis.
    """
    return _chart_columns(_earlier_rows(basis.order, ambient_vertex_of), basis.positions(), beta)[0]


def _earlier_rows(order: Sequence[str], ambient_vertex_of: Mapping[str, str]) -> dict[str, tuple[str, ...]]:
    """For each basis element, the elements before it at its ambient vertex, in basis order."""
    seen: dict[str, list[str]] = {}
    earlier = {}
    for b in order:
        rows = seen.setdefault(ambient_vertex_of[b], [])
        earlier[b] = tuple(rows)
        rows.append(b)
    return earlier


def _chart_columns(
    earlier: Mapping[str, tuple[str, ...]], pos: Mapping[str, int], beta: CellIndex
) -> tuple[list[tuple[str, str]], dict[str, list[tuple[str, int]]]]:
    """Beta's variables (b', b), by position of b then b', and each pivot's chart column.

    The rows b' of a pivot b are the non-pivots among the elements before
    b at its ambient vertex; b's chart column lists them as (b', index of
    w_{b',b}).  Only beta's pivots are visited, in basis order, so beta may
    come unsorted.  The chart's keys, beta, also answer membership (not
    beta.as_set(), which would keep a frozenset on every cell a caller
    holds).  ValueError if beta is not a subset of the basis.
    """
    try:
        pivots = sorted(beta.elements, key=pos.__getitem__)
    except KeyError:
        raise ValueError("beta is not a subset of the basis") from None
    chart: dict[str, list[tuple[str, int]]] = {b: [] for b in pivots}
    variables = []
    for b, column in chart.items():
        for c in earlier[b]:
            if c not in chart:
                column.append((c, len(variables)))
                variables.append((c, b))
    return variables, chart


class _WindingSetup:
    """The cell-independent part of `generate_equations` for one module and winding.

    Raises ValueError, and is then not stored, unless F is a winding on
    the quiver of M.  For each basis element it keeps the elements before
    it at the same ambient vertex, from which `_chart_columns` reads a
    cell's variables.  For each codomain arrow it keeps the columns of
    F_*M at that arrow: for each basis element c over its source, the
    nonzero entries (row element, value) of column c of the fibre arrow
    leaving c's vertex (one at most, F being a winding).  These are all
    the entries the scatter charges.  Next to them it keeps, for each
    basis element over the arrow's target fibre and over its source
    fibre, the rank of its vertex there, fibres sorted by block start,
    which place each equation in the order of the pinned streams.
    """

    def __init__(self, m: Representation, fibred_via: QuiverMorphism | None):
        f = fibred_via if fibred_via is not None else identity_morphism(m.quiver)
        if f.domain != m.quiver:
            raise ValueError("fibred_via must be defined on the representation's quiver")
        if not is_winding(f):
            raise ValueError("fibred_via must be a winding")
        basis = m.basis
        pos = basis.positions()
        self.earlier = _earlier_rows(basis.order, {b: f.vertex_map[basis.vertex_of[b]] for b in basis.order})
        block = {v: basis.block(v) for v in m.quiver.vertices}

        def ranks(fibre: Iterable[str]) -> dict[str, int]:
            ordered = sorted(fibre, key=lambda v: pos[block[v][0]] if block[v] else -1)
            return {b: i for i, v in enumerate(ordered) for b in block[v]}

        self.arrows = []
        for at in f.codomain.arrows:
            columns: dict[str, list[tuple[str, int]]] = {}
            for a in f.fibre_arrows(at.name):
                for r, row in zip(block[a.tgt], m.matrices[a.name]):
                    for c, x in zip(block[a.src], row):
                        if x:
                            columns.setdefault(c, []).append((r, x))
            t_rank, s_rank = ranks(f.fibre_vertices(at.tgt)), ranks(f.fibre_vertices(at.src))
            self.arrows.append((at.name, t_rank, s_rank, columns))


def generate_equations(
    m: Representation, beta: CellIndex, fibred_via: QuiverMorphism | None = None
) -> CellEquationSystem:
    """Defining equations of the Schubert cell of F_*M at beta.

    Without a morphism the identity winding is used, which recovers the
    subrepresentation conditions of M itself in echelon coordinates.
    Rows indexed by pivot elements are trivially satisfied and skipped;
    identically-zero polynomials are dropped.

    For a codomain arrow, a non-pivot row br and a pivot bc over its
    source, the equation is the sum of w_{br,r} (M W)_{r,bc} over the
    pivots r that have a coordinate w_{br,r}, minus (M W)_{br,bc}.
    Column bc of M W is bc's stored column plus w_{c,bc} times that of
    each non-pivot c of bc's chart column (see `_chart_columns`).
    Assembly scatters: each entry (r, x) of bc's column, then of each c,
    is charged with its monomial 1 or w_{c,bc} straight to the equations
    it enters, at (br, bc) times w_{br,r} for each row br of r's chart
    column when r is a pivot, and at (r, bc) negated when r is not.  The
    work follows the terms written, not the size of the fibres, and the
    same terms cancel as a visit of each (t, s, br, bc) would sum them.
    Each arrow's equations are then sorted by (rank of t, rank of s,
    position of br, of bc), the ranks kept per element by the setup,
    which is the order of the loops over (arrow, t, s, br, bc) the pinned
    streams of the tests were taken from; variables come by pivot, then
    row.  Only the order of terms inside a Poly is free, and nothing
    reads it unsorted.
    """
    slot = "_winding_setup" if fibred_via is not None else "_identity_winding_setup"
    setup = kept(m, slot, fibred_via, lambda: _WindingSetup(m, fibred_via))
    pos, vertex_of = m.basis.positions(), m.basis.vertex_of
    variables, chart = _chart_columns(setup.earlier, pos, beta)

    equations = []
    for at_name, t_rank, s_rank, columns in setup.arrows:
        keyed = []
        for bc, bc_rows in chart.items():
            s = s_rank.get(bc)
            if s is None:
                continue
            acc: dict[str, dict[Monomial, int]] = {}  # the equations (br, bc), by br
            for c, i in ((bc, None), *bc_rows):  # bc's stored column, then w_{c,bc} times each c's
                mono = () if i is None else ((i, 1),)
                for r, x in columns.get(c, ()):
                    rows = chart.get(r)
                    if rows is None:
                        terms = acc.setdefault(r, {})
                        terms[mono] = terms.get(mono, 0) - x
                        continue
                    for br, w in rows:
                        terms = acc.setdefault(br, {})
                        prod = ((w, 1), *mono) if i is None or w < i else ((i, 1), (w, 1)) if i < w else ((i, 2),)
                        terms[prod] = terms.get(prod, 0) + x
            for br, terms in acc.items():
                if 0 in terms.values():
                    terms = {mono: x for mono, x in terms.items() if x}
                if terms:
                    key = (t_rank[br], s, pos[br], pos[bc])
                    triple = (at_name, vertex_of[br], vertex_of[bc])
                    keyed.append((key, CellEquation(triple, br, bc, Poly(terms))))
        keyed.sort()  # the keys are distinct, so no two equations are compared
        equations += [eq for _key, eq in keyed]
    return CellEquationSystem(beta, tuple(variables), tuple(equations))


# ---------------------------------------------------------------------------
# tree-extension theorems


class PreconditionError(ValueError):
    """A theorem's hypotheses are not met; distinct from a failed check."""


class _TreeSetup:
    """The cell-independent part of the tree-extension theorems for one module and S.

    Raises PreconditionError, and is then not stored, unless T is a tree
    extension of S and the basis is ordered above S.  The latter includes
    identity matrices on T-S: each arrow there sends the i-th element of
    its source block to the i-th of its target block.  Keeps one (case,
    source block, target block, identity image map) per arrow of T-S, in
    arrow order.  The case is "I" when the arrow's target lies farther
    from S and "II" when its source does; on a tree extension of a
    nonempty S the two ends of an arrow of T-S are one step apart.
    """

    def __init__(self, m: Representation, s: Subquiver):
        dist = tree_distances(m.quiver, s)  # to T's first vertex when S is empty; no case is read then
        if dist is None:
            raise PreconditionError("T is not a tree extension of S")
        ok, diag = is_ordered_above(m, s)
        if not ok:
            raise PreconditionError("basis is not ordered above S: " + "; ".join(diag))
        self.arrows = []
        for a in m.quiver.arrows:
            if a.name not in s.arrows:
                case = "I" if dist[a.tgt] > dist[a.src] else "II"
                src, tgt = m.basis.block(a.src), m.basis.block(a.tgt)
                self.arrows.append((case, src, tgt, dict(zip(src, tgt))))

    def closed(self, beta_set: set[str]) -> bool:
        """Pivot criterion: beta holds the image of each of its elements along every arrow of T-S."""
        return all(
            img in beta_set
            for _case, _src, _tgt, image_of in self.arrows
            for b, img in image_of.items()
            if b in beta_set
        )


def tree_setup(m: Representation, s: Subquiver) -> _TreeSetup:
    """The checked tree setup of (M, S), made on the first call for this S.

    Raises PreconditionError, on every call, when its hypotheses fail.
    """
    return kept(m, "_tree_setup", s, lambda: _TreeSetup(m, s))


def tree_cell_emptiness(
    m: Representation, s: Subquiver, beta: CellIndex, base_is_empty: bool | None = None
) -> bool:
    """True iff the cell is empty, by the tree-extension criterion.

    The cell is empty when beta fails the pivot criterion, and otherwise
    exactly when its base cell over S is empty.  The caller decides the
    base cell through `base_is_empty`; it may be omitted only when S has
    no arrows, where every base cell is nonempty.
    """
    setup = tree_setup(m, s)
    if base_is_empty is None:
        if s.arrows:
            raise PreconditionError("S has arrows: pass base_is_empty for the base cell over S")
        base_is_empty = False
    # a transient set, not beta.as_set(): callers keep whole lists of cells
    return not setup.closed(set(beta.elements)) or base_is_empty


def tree_cell_dimension(m: Representation, s: Subquiver, beta: CellIndex) -> int:
    """Exponent n with C_beta(M) = C_{beta_S}(M_S) x A^n.

    n is a sum of one term per arrow of T-S, fixed by which end of the
    arrow lies farther from S.  Peeling the ends of T-S one at a time
    gives the same sum in every order, since an end leaves together with
    its only arrow.  S must be nonempty.
    """
    setup = tree_setup(m, s)
    beta_set = set(beta.elements)
    if not setup.closed(beta_set):
        raise ValueError("cell is empty over S by the pivot criterion")
    if not s.vertices:
        raise PreconditionError("S must be nonempty")
    total = 0
    # blocks are in basis order, so "below b in its block" is "before b"
    for case, src_block, tgt_block, image_of in setup.arrows:
        image = {image_of[b] for b in src_block if b in beta_set}
        if case == "I":
            # each head pivot outside the image: one coordinate per non-pivot row below it
            below = 0
            for b in tgt_block:
                if b not in beta_set:
                    below += 1
                elif b not in image:
                    total += below
        else:
            # each tail pivot b: one coordinate per head pivot outside the image below b's image
            below, rank = 0, {}
            for bp in tgt_block:
                rank[bp] = below
                if bp in beta_set and bp not in image:
                    below += 1
            total += sum(rank[image_of[b]] for b in src_block if b in beta_set)
    return total


def grassmannian_fibration(
    m: Representation, s: Subquiver, e: Mapping[str, int]
) -> list[tuple[int, int]]:
    """Fibre parameters (e_i, m_i) of the tower of Grassmannian bundles.

    One fibre per arrow p -> q of T-S, in arrow order: Gr(e_q - e_p, m_q - e_p)
    when q lies farther from S, Gr(e_p, e_q) when p does.  The total F_q
    point count is the base count times the product of the Gaussian
    binomials.  S must be nonempty.
    """
    for v, ev in e.items():
        if v not in m.quiver.vertices:
            raise ValueError(f"dimension vector names {v!r}, which is not a vertex")
        _check_dimension(v, ev, m.rank(v))
    if not is_tree_extension(m.quiver, s):
        raise PreconditionError("T is not a tree extension of S")
    for name in sorted(difference_of(m.quiver, s).arrows):
        mat = m.matrices[name]
        if len(mat) != len(mat[0] if mat else ()) or abs(int_det(mat)) != 1:
            raise PreconditionError(f"arrow {name!r} in T-S is not invertible over every field")
    if not s.vertices:
        raise PreconditionError("S must be nonempty")
    dist = tree_distances(m.quiver, s)
    fibres = []
    for a in m.quiver.arrows:
        if a.name in s.arrows:
            continue
        ep, eq = e.get(a.src, 0), e.get(a.tgt, 0)
        if dist[a.tgt] > dist[a.src]:
            fibres.append((eq - ep, m.rank(a.tgt) - ep))
        else:
            fibres.append((ep, eq))
    return fibres


# ---------------------------------------------------------------------------
# comparison maps between a cell and its push-forward cell

CellPoint = Mapping[tuple[str, str], int]


def _check_domain(f: QuiverMorphism, m: Representation) -> None:
    if f.domain != m.quiver:
        raise PreconditionError("morphism domain does not match the representation")


def iota(
    f: QuiverMorphism, m: Representation, beta: CellIndex, point: CellPoint
) -> dict[tuple[str, str], int]:
    """Embed a cell point of M into the cell of F_*M: same matrix, zero cross-blocks.

    Requires a winding; its check is made when the winding setup is built.
    """
    def setup():
        if not is_winding(f):
            raise PreconditionError("iota needs a winding")
        return _WindingSetup(m, f)

    _check_domain(f, m)
    earlier = kept(m, "_winding_setup", f, setup).earlier
    out = {}
    for bp, b in _chart_columns(earlier, m.basis.positions(), beta)[0]:
        if m.basis.vertex_of[bp] == m.basis.vertex_of[b]:
            out[(bp, b)] = int(point.get((bp, b), 0))
        else:
            out[(bp, b)] = 0
    return out


def pi(
    f: QuiverMorphism, m: Representation, beta: CellIndex, point: CellPoint
) -> dict[tuple[str, str], int]:
    """Retract a push-forward cell point: keep diagonal fibre blocks only.

    Requires a strictly ordered winding; its check is stored per (M, F).
    """
    def check():
        _check_domain(f, m)
        if not is_winding(f) or not is_strictly_ordered(f, m.basis.vertex_key(m.quiver.vertices)):
            raise PreconditionError("pi needs a strictly ordered winding")
    kept(m, "_strict_winding_setup", f, check)
    out = {}
    for (bp, b), value in point.items():
        if m.basis.vertex_of[bp] == m.basis.vertex_of[b]:
            out[(bp, b)] = int(value)
    return out
