"""Schubert cells: indices, echelon coordinates, defining equations, tree theorems.

Cell points live in echelon charts: the generator with pivot b has a 1 in
row b, zeros in the other pivot rows and in all rows above b, and free
coordinates w_{b',b} for non-pivot rows b' below b in the same block of
the ambient quiver.  Equation generation follows the push-forward block
formalism uniformly; plain representations go through the identity
winding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, int_det
from .quiver import (
    Quiver,
    QuiverMorphism,
    Subquiver,
    difference_of,
    identity_morphism,
    is_strictly_ordered,
    is_tree_extension,
    is_winding,
)
from .representation import Representation, identity_image, is_ordered_above


# ---------------------------------------------------------------------------
# cell indices


@dataclass(frozen=True)
class CellIndex:
    """A subset of the basis, stored in global basis order."""

    elements: tuple[str, ...]

    def as_set(self) -> frozenset[str]:
        return frozenset(self.elements)

    def __contains__(self, b: str) -> bool:
        return b in self.as_set()

    def key(self) -> str:
        return ",".join(self.elements)


def cell_index(basis, elements: Iterable[str]) -> CellIndex:
    elems = set(elements)
    unknown = elems - set(basis.order)
    if unknown:
        raise ValueError(f"not basis elements: {sorted(unknown)}")
    return CellIndex(tuple(b for b in basis.order if b in elems))


def cell_type(basis, beta: CellIndex) -> dict[str, int]:
    e: dict[str, int] = {}
    for b in beta.elements:
        v = basis.vertex_of[b]
        e[v] = e.get(v, 0) + 1
    return e


def enumerate_cells(basis, e: Mapping[str, int], vertices: Sequence[str] | None = None) -> list[CellIndex]:
    """All subsets of the basis of type e, in lexicographic order."""
    if vertices is None:
        seen = []
        for b in basis.order:
            v = basis.vertex_of[b]
            if v not in seen:
                seen.append(v)
        vertices = seen + [v for v in e if v not in seen]
    per_vertex = []
    for v in vertices:
        block = basis.block(v)
        ev = e.get(v, 0)
        if ev > len(block):
            raise ValueError(f"dimension {ev} exceeds rank {len(block)} at vertex {v!r}")
        per_vertex.append(list(combinations(block, ev)))
    cells = []
    for combo in product(*per_vertex):
        elems = [b for group in combo for b in group]
        cells.append(cell_index(basis, elems))
    return cells


# ---------------------------------------------------------------------------
# cell partial orders


def preceq(basis, beta: CellIndex, gamma: CellIndex) -> bool:
    """Componentwise comparison of the k-th smallest elements per vertex."""
    tb, tg = cell_type(basis, beta), cell_type(basis, gamma)
    if tb != tg:
        raise ValueError("cells of different type are not comparable")
    pos = {b: i for i, b in enumerate(basis.order)}
    for v in tb:
        bs = sorted((pos[b] for b in beta.elements if basis.vertex_of[b] == v))
        gs = sorted((pos[b] for b in gamma.elements if basis.vertex_of[b] == v))
        if any(x > y for x, y in zip(bs, gs)):
            return False
    return True


def block_leq(basis, beta: CellIndex, gamma: CellIndex) -> bool:
    """beta <= gamma in the block sense: (b-g) < (b&g) < (g-b) elementwise."""
    pos = {b: i for i, b in enumerate(basis.order)}
    b_only = [pos[x] for x in beta.elements if x not in gamma.as_set()]
    both = [pos[x] for x in beta.elements if x in gamma.as_set()]
    g_only = [pos[x] for x in gamma.elements if x not in beta.as_set()]

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


@dataclass(frozen=True)
class Poly:
    terms: Mapping[Monomial, int] = field(hash=False)

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(): c}) if c else Poly({})

    @staticmethod
    def var(i: int) -> "Poly":
        return Poly({((i, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + Poly({m: -c for m, c in other.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps: dict[int, int] = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return Poly(out)

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly({})
        return Poly({m: c * x for m, x in self.terms.items()})

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
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for v, e in m:
                factors.append(names[v] if e == 1 else f"{names[v]}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# cell coordinates and defining equations


@dataclass(frozen=True)
class CellEquation:
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
    """Free coordinate positions (b', b) of the echelon chart."""
    pos = {b: i for i, b in enumerate(basis.order)}
    out = []
    for b in beta.elements:
        for bp in basis.order:
            if (
                bp not in beta.as_set()
                and pos[bp] < pos[b]
                and ambient_vertex_of[bp] == ambient_vertex_of[b]
            ):
                out.append((bp, b))
    out.sort(key=lambda pair: (pos[pair[1]], pos[pair[0]]))
    return out


def generate_equations(
    m: Representation, beta: CellIndex, fibred_via: QuiverMorphism | None = None
) -> CellEquationSystem:
    """Defining equations of the Schubert cell of F_*M at beta.

    Without a morphism the identity winding is used, which recovers the
    subrepresentation conditions of M itself in echelon coordinates.
    Rows indexed by pivot elements are trivially satisfied and skipped;
    identically-zero polynomials are dropped.
    """
    f = fibred_via if fibred_via is not None else identity_morphism(m.quiver)
    if f.domain != m.quiver:
        raise ValueError("fibred_via must be defined on the representation's quiver")
    if not is_winding(f):
        raise ValueError("fibred_via must be a winding")
    basis = m.basis
    beta_set = beta.as_set()
    if not beta_set <= set(basis.order):
        raise ValueError("beta is not a subset of the basis")
    pos = {b: i for i, b in enumerate(basis.order)}
    ambient_vertex_of = {b: f.vertex_map[basis.vertex_of[b]] for b in basis.order}
    variables = cell_variables(basis, beta, ambient_vertex_of)
    var_index = {pair: i for i, pair in enumerate(variables)}

    def w_block(p: str, pprime: str) -> list[list[Poly]]:
        rows = basis.block(p)
        cols = [b for b in basis.block(pprime) if b in beta_set]
        out = []
        for br in rows:
            row = []
            for bc in cols:
                if br == bc:
                    row.append(Poly.const(1))
                elif br in beta_set or pos[br] > pos[bc]:
                    row.append(Poly.zero())
                else:
                    row.append(Poly.var(var_index[(br, bc)]))
            out.append(row)
        return out

    def mat_poly(mat: Sequence[Sequence[Poly]], other: Sequence[Sequence[Poly]]):
        if not mat or not other:
            return []
        ncols = len(other[0]) if other else 0
        return [
            [
                sum((mat[i][k] * other[k][j] for k in range(len(other))), Poly.zero())
                for j in range(ncols)
            ]
            for i in range(len(mat))
        ]

    def int_rows(mat: Matrix, rows: Sequence[int]) -> list[list[Poly]]:
        return [[Poly.const(x) for x in mat[r]] for r in rows]

    def block_start(v: str) -> int:
        block = basis.block(v)
        return pos[block[0]] if block else -1

    equations = []
    for at in f.codomain.arrows:
        fibre = f.fibre_arrows(at.name)
        tgt_fib = sorted(
            (v for v in f.domain.vertices if f.vertex_map[v] == at.tgt), key=block_start
        )
        src_fib = sorted(
            (v for v in f.domain.vertices if f.vertex_map[v] == at.src), key=block_start
        )
        for t in tgt_fib:
            rows_out = [b for b in basis.block(t) if b not in beta_set]
            if not rows_out:
                continue
            for s in src_fib:
                cols = [b for b in basis.block(s) if b in beta_set]
                if not cols:
                    continue
                lhs = None
                for a in fibre:
                    beta_rows = [
                        i for i, b in enumerate(basis.block(a.tgt)) if b in beta_set
                    ]
                    term = mat_poly(
                        mat_poly(w_block(t, a.tgt), int_rows(m.matrices[a.name], beta_rows)),
                        w_block(a.src, s),
                    )
                    if term:
                        lhs = term if lhs is None else [
                            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(lhs, term)
                        ]
                rhs = None
                for a in fibre:
                    if a.tgt == t:
                        rhs = mat_poly(
                            [[Poly.const(x) for x in row] for row in m.matrices[a.name]],
                            w_block(a.src, s),
                        )
                        break
                block_rows = basis.block(t)
                for i, br in enumerate(block_rows):
                    if br in beta_set:
                        continue
                    for j, bc in enumerate(cols):
                        poly = Poly.zero()
                        if lhs:
                            poly = poly + lhs[i][j]
                        if rhs:
                            poly = poly - rhs[i][j]
                        if not poly.is_zero():
                            equations.append(
                                CellEquation((at.name, t, s), br, bc, poly)
                            )
    return CellEquationSystem(beta, tuple(variables), tuple(equations))


# ---------------------------------------------------------------------------
# tree-extension theorems


class PreconditionError(ValueError):
    """A theorem's hypotheses are not met; distinct from a failed check."""


def check_tree_setup(m: Representation, s: Subquiver) -> None:
    """Hypotheses shared by the tree-extension theorems and the (H) check.

    T must be a tree extension of S and the basis ordered above S, which
    includes identity matrices on every arrow of T-S.
    """
    if not is_tree_extension(m.quiver, s):
        raise PreconditionError("T is not a tree extension of S")
    ok, diag = is_ordered_above(m, s)
    if not ok:
        raise PreconditionError("basis is not ordered above S: " + "; ".join(diag))


def _ends_outside(quiver: Quiver, vertices: set[str], arrows: set[str], s: Subquiver) -> list[str]:
    degree: dict[str, int] = {v: 0 for v in vertices}
    for name in arrows:
        a = quiver.arrow(name)
        degree[a.src] += 1
        degree[a.tgt] += 1
    return [v for v in vertices if v not in s.vertices and degree[v] == 1]


def _peel_schedule(
    m: Representation, s: Subquiver, peel: str = "largest"
) -> list[tuple[str, str, str]]:
    """Order in which ends of T-S are removed: (end vertex, arrow, case).

    Case "I" removes a head, case "II" a tail.  The default removes the
    largest end in the induced vertex order at every step; correctness is
    order-independent, so "smallest" exists for cross-checking.
    """
    key = m.basis.vertex_key(m.quiver.vertices)
    vertices = set(m.quiver.vertices)
    arrows = {a.name for a in m.quiver.arrows}
    schedule = []
    while vertices - set(s.vertices):
        ends = _ends_outside(m.quiver, vertices, arrows, s)
        if not ends:
            raise PreconditionError("no removable end outside S; quotient is not a tree")
        ends.sort(key=lambda v: key.get(v, -1))
        end = ends[-1] if peel == "largest" else ends[0]
        incident = [
            m.quiver.arrow(name)
            for name in arrows
            if m.quiver.arrow(name).src == end or m.quiver.arrow(name).tgt == end
        ]
        a = incident[0]
        schedule.append((end, a.name, "I" if a.tgt == end else "II"))
        vertices.discard(end)
        arrows.discard(a.name)
    return schedule


def _closed_under_identity_images(m: Representation, s: Subquiver, beta: CellIndex) -> bool:
    """Pivot criterion: beta holds the image of each of its elements along every arrow of T-S."""
    beta_set = beta.as_set()
    return all(
        identity_image(m, name, b) in beta_set
        for name in sorted(difference_of(m.quiver, s).arrows)
        for b in m.basis.block(m.quiver.arrow(name).src)
        if b in beta_set
    )


def tree_cell_emptiness(
    m: Representation, s: Subquiver, beta: CellIndex, base_is_empty: bool | None = None
) -> bool:
    """True iff the cell is empty, by the tree-extension criterion.

    The cell is empty when beta fails the pivot criterion, and otherwise
    exactly when its base cell over S is empty.  The caller decides the
    base cell through `base_is_empty`; it may be omitted only when S has
    no arrows, where every base cell is nonempty.
    """
    check_tree_setup(m, s)
    if base_is_empty is None:
        if s.arrows:
            raise PreconditionError("S has arrows: pass base_is_empty for the base cell over S")
        base_is_empty = False
    return not _closed_under_identity_images(m, s, beta) or base_is_empty


def tree_cell_dimension(
    m: Representation, s: Subquiver, beta: CellIndex, peel: str = "largest"
) -> int:
    """Exponent n with C_beta(M) = C_{beta_S}(M_S) x A^n, by end peeling."""
    check_tree_setup(m, s)
    if not _closed_under_identity_images(m, s, beta):
        raise ValueError("cell is empty over S by the pivot criterion")
    pos = {b: i for i, b in enumerate(m.basis.order)}
    beta_set = set(beta.elements)
    total = 0
    for end, arrow_name, case in _peel_schedule(m, s, peel):
        a = m.quiver.arrow(arrow_name)
        src_block = m.basis.block(a.src)
        tgt_block = m.basis.block(a.tgt)
        image = {
            identity_image(m, arrow_name, b): b for b in src_block if b in beta_set
        }
        if case == "I":
            for b in tgt_block:
                if b in beta_set and b not in image:
                    total += sum(
                        1
                        for bp in tgt_block
                        if bp not in beta_set and pos[bp] < pos[b]
                    )
            beta_set -= set(tgt_block)
        else:
            for b in src_block:
                if b not in beta_set:
                    continue
                img = identity_image(m, arrow_name, b)
                total += sum(
                    1
                    for bp in tgt_block
                    if bp in beta_set and bp not in image and pos[bp] < pos[img]
                )
            beta_set -= set(src_block)
    return total


def grassmannian_fibration(
    m: Representation, s: Subquiver, e: Mapping[str, int]
) -> list[tuple[int, int]]:
    """Fibre parameters (e_i, m_i) of the tower of Grassmannian bundles.

    Peeling an end q of an arrow p -> q contributes Gr(e_q - e_p, m_q - e_p);
    peeling an end p contributes Gr(e_p, e_q).  The total F_q point count is
    the base count times the product of the Gaussian binomials.
    """
    if not is_tree_extension(m.quiver, s):
        raise PreconditionError("T is not a tree extension of S")
    for name in sorted(difference_of(m.quiver, s).arrows):
        mat = m.matrices[name]
        if len(mat) != len(mat[0] if mat else ()) or abs(int_det(mat)) != 1:
            raise PreconditionError(f"arrow {name!r} in T-S is not invertible over every field")
    fibres = []
    for end, arrow_name, case in _peel_schedule(m, s, peel="largest"):
        a = m.quiver.arrow(arrow_name)
        ep, eq = e.get(a.src, 0), e.get(a.tgt, 0)
        mq = m.rank(a.tgt)
        if case == "I":
            fibres.append((eq - ep, mq - ep))
        else:
            fibres.append((ep, eq))
    return fibres


# ---------------------------------------------------------------------------
# comparison maps between a cell and its push-forward cell

CellPoint = Mapping[tuple[str, str], int]


def iota(
    f: QuiverMorphism, m: Representation, beta: CellIndex, point: CellPoint
) -> dict[tuple[str, str], int]:
    """Embed a cell point of M into the cell of F_*M: same matrix, zero cross-blocks."""
    ambient = {b: f.vertex_map[m.basis.vertex_of[b]] for b in m.basis.order}
    out = {}
    for bp, b in cell_variables(m.basis, beta, ambient):
        if m.basis.vertex_of[bp] == m.basis.vertex_of[b]:
            out[(bp, b)] = int(point.get((bp, b), 0))
        else:
            out[(bp, b)] = 0
    return out


def pi(
    f: QuiverMorphism, m: Representation, beta: CellIndex, point: CellPoint
) -> dict[tuple[str, str], int]:
    """Retract a push-forward cell point: keep diagonal fibre blocks only.

    Requires a strictly ordered winding.
    """
    key = m.basis.vertex_key(m.quiver.vertices)
    if not is_winding(f) or not is_strictly_ordered(f, key):
        raise PreconditionError("pi needs a strictly ordered winding")
    out = {}
    for (bp, b), value in point.items():
        if m.basis.vertex_of[bp] == m.basis.vertex_of[b]:
            out[(bp, b)] = int(value)
    return out
