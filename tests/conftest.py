"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from quiver_schubert.hypothesis_h import (
    HypothesisResult,
    TripleReport,
    TripleType,
    WindingContext,
    _excusable,
    _psi_less,
)
from quiver_schubert.linalg import column_echelon_max_pivot, mat_vec_mod
from quiver_schubert.quiver import (
    QuiverMorphism,
    disjoint_union,
    identity_morphism,
    is_strictly_ordered,
    quiver,
    subquiver,
)
from quiver_schubert.representation import (
    OrderedBasis,
    Representation,
    order_above_extension,
    push_forward,
    representation,
)
from quiver_schubert.schubert import (
    CellEquation,
    CellEquationSystem,
    Poly,
    cell_index,
    cell_variables,
    generate_equations,
    tree_setup,
)


def fold_winding(rep: Representation, s_vertices, s_arrows=()):
    """T + T folded back onto T, with basis ordered above S + S.

    S is given by its vertices and arrows; both copies of each are in S + S.

    Returns (module upstairs, subquiver S', fold morphism).
    """
    t = rep.quiver
    u, _, _ = disjoint_union(t, t)
    order, vertex_of, mats = [], {}, {}
    for suf in ("", "'"):
        for b in rep.basis.order:
            order.append(b + suf)
            vertex_of[b + suf] = rep.basis.vertex_of[b] + suf
        for a in t.arrows:
            mats[a.name + suf] = rep.matrices[a.name]
    upstairs = Representation(u, OrderedBasis(tuple(order), vertex_of), mats)
    s = subquiver(
        u,
        [v + suf for v in s_vertices for suf in ("", "'")],
        [a + suf for a in s_arrows for suf in ("", "'")],
    )
    upstairs = order_above_extension(upstairs, s)
    fold = QuiverMorphism(
        u,
        t,
        {v: v.rstrip("'") for v in u.vertices},
        {a.name: a.name.rstrip("'") for a in u.arrows},
    )
    return upstairs, s, fold


def random_tree_extension(seed: int, max_total_dim: int = 10):
    """Seeded tree extension (M over T, S) with identity matrices on T-S.

    S is one vertex or a two-vertex arrow with a random 0/1 matrix; the
    extension ranks follow the attachment vertex since T-S arrows carry
    identity matrices.
    """
    rng = random.Random(seed)
    if rng.random() < 0.5:
        s_verts = ["s1"]
        s_arrows = []
    else:
        s_verts = ["s1", "s2"]
        s_arrows = [("sa", "s1", "s2")]
    base_rank = {v: rng.randint(1, 2) for v in s_verts}
    extra = rng.randint(1, 4)
    verts = list(s_verts)
    arrows = list(s_arrows)
    rank = dict(base_rank)
    for i in range(extra):
        v = f"x{i}"
        anchor = rng.choice(verts)
        pair = (anchor, v) if rng.random() < 0.5 else (v, anchor)
        arrows.append((f"e{i}", pair[0], pair[1]))
        rank[v] = rank[anchor]
        verts.append(v)
        if sum(rank.values()) + 2 > max_total_dim:
            break
    q = quiver(verts, arrows)
    order, vertex_of = [], {}
    idx = 0
    for v in verts:
        for _ in range(rank[v]):
            idx += 1
            order.append(f"b{idx}")
            vertex_of[f"b{idx}"] = v
    basis = OrderedBasis(tuple(order), vertex_of)
    mats = {}
    for name, src, tgt in arrows:
        if name == "sa":
            mats[name] = [
                [rng.randint(0, 1) for _ in range(rank[src])] for _ in range(rank[tgt])
            ]
        else:
            mats[name] = [
                [1 if i == j else 0 for j in range(rank[src])] for i in range(rank[tgt])
            ]
    rep = representation(q, basis, mats)
    s = subquiver(rep.quiver, s_verts, [a for a, _, _ in s_arrows])
    rep = order_above_extension(rep, s)
    e = {v: rng.randint(0, rank[v]) for v in verts}
    return rep, s, e


def independent_total(rep: Representation, e, q: int) -> int:
    """Subrepresentation count by raw matrix enumeration (no charts).

    Enumerates every generator matrix over F_q per vertex, canonicalises
    spans, dedupes, and filters by arrow containment checked through a
    direct membership test.  Only viable for tiny instances.
    """
    spaces = {}
    for v in rep.quiver.vertices:
        m = rep.rank(v)
        ev = e.get(v, 0)
        seen = {}
        for entries in product(range(q), repeat=m * ev):
            cols = [[entries[r * ev + j] for r in range(m)] for j in range(ev)]
            canon, pivots = column_echelon_max_pivot(cols, q)
            if len(pivots) != ev:
                continue
            key = tuple(canon)
            seen[key] = canon
        spaces[v] = list(seen.values())

    def member(cols, vec):
        if not cols:
            return all(x % q == 0 for x in vec)
        coeff_sets = product(range(q), repeat=len(cols))
        for coeffs in coeff_sets:
            if all(
                sum(c * col[r] for c, col in zip(coeffs, cols)) % q == vec[r] % q
                for r in range(len(vec))
            ):
                return True
        return False

    total = 0
    for combo in product(*[spaces[v] for v in rep.quiver.vertices]):
        assignment = dict(zip(rep.quiver.vertices, combo))
        ok = True
        for a in rep.quiver.arrows:
            for col in assignment[a.src]:
                img = mat_vec_mod(rep.matrices[a.name], col, q)
                if not member(assignment[a.tgt], img):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def chart_coordinates(rep: Representation, beta, matrices, ambient_vertex_of=None):
    """Free-coordinate dict of a cell point from its per-vertex echelon matrices."""
    beta_set = beta.as_set()
    coords = {}
    for v in rep.quiver.vertices:
        block = rep.basis.block(v)
        pivots = [b for b in block if b in beta_set]
        mat = matrices[v]
        for j, bcol in enumerate(pivots):
            for i, brow in enumerate(block):
                if brow in beta_set:
                    continue
                if rep.basis.position(brow) < rep.basis.position(bcol):
                    coords[(brow, bcol)] = mat[i][j]
    return coords


def random_winding(seed: int, domain=None):
    """Seeded quiver morphism that is a winding, built by greedy arrow packing.

    Colours vertices at random and packs same-coloured arrows into fibres
    as long as no source or target repeats; `domain` defaults to a random
    quiver, so windings can be stacked for composition tests.
    """
    rng = random.Random(seed)
    if domain is None:
        n = rng.randint(3, 6)
        verts = [f"v{i}" for i in range(n)]
        arrows = []
        for i in range(rng.randint(2, 6)):
            arrows.append((f"a{i}", rng.choice(verts), rng.choice(verts)))
        t = quiver(verts, arrows)
    else:
        t = domain
    n = len(t.vertices)
    ncolors = rng.randint(1, n)
    color = {v: f"c{rng.randrange(ncolors)}" for v in t.vertices}
    classes: list[tuple[str, list]] = []
    arrow_map = {}
    for a in t.arrows:
        placed = False
        for name, members in classes:
            first = members[0]
            if (color[first.src], color[first.tgt]) != (color[a.src], color[a.tgt]):
                continue
            if any(m.src == a.src or m.tgt == a.tgt for m in members):
                continue
            members.append(a)
            arrow_map[a.name] = name
            placed = True
            break
        if not placed:
            name = f"A{len(classes)}"
            classes.append((name, [a]))
            arrow_map[a.name] = name
    codomain = quiver(
        sorted(set(color.values())),
        [(name, color[members[0].src], color[members[0].tgt]) for name, members in classes],
    )
    return QuiverMorphism(t, codomain, color, arrow_map)


def random_winding_module(seed: int):
    """Seeded module M over the domain of `random_winding(seed)`, with that winding.

    Every vertex has rank 0, 1 or 2, the basis ids are shuffled across
    the vertices and matrix entries lie in {-2, ..., 2}.  Returns (M, F).
    """
    f = random_winding(seed)
    rng = random.Random(f"module {seed}")
    t = f.domain
    rank = {v: rng.randint(0, 2) for v in t.vertices}
    vertex_of = {}
    for v in t.vertices:
        for _ in range(rank[v]):
            vertex_of[f"b{len(vertex_of) + 1}"] = v
    order = list(vertex_of)
    rng.shuffle(order)
    mats = {
        a.name: [[rng.randint(-2, 2) for _ in range(rank[a.src])] for _ in range(rank[a.tgt])]
        for a in t.arrows
    }
    return representation(t, OrderedBasis(tuple(order), vertex_of), mats), f


def small_winding_cells(seed: int):
    """(F, F_*M, cell ids, system) for each cell of M = `random_winding_module(seed)`.

    Every subset of the basis, in `combinations` order, whose system
    through F has at most 5 variables, so that brute force stays cheap.
    """
    m, f = random_winding_module(seed)
    pushed = push_forward(f, m)
    for r in range(len(m.basis.order) + 1):
        for elems in combinations(m.basis.order, r):
            system = generate_equations(m, cell_index(m.basis, elems), fibred_via=f)
            if len(system.variables) <= 5:
                yield f, pushed, elems, system


def reference_triple(ctx: WindingContext, atilde: str, t: str, s: str):
    """(type, every off-diagonal block pair of E(atilde, t, s)) by scanning the whole fibre.

    The arrows between t and s are those with target after t and source
    before s; each adds (t, a.tgt) and (a.src, s), after the pairs of the
    arrows into t and out of s.  Assumes a strictly ordered fibre.
    """
    pos = ctx.pos
    arrows = ctx.fibre_arrows(atilde)
    arrow_t = next((a for a in arrows if a.tgt == t), None)
    arrow_s = next((a for a in arrows if a.src == s), None)
    if arrow_s is not None and arrow_s.tgt == t:
        return TripleType.T1, []
    if arrow_t is not None and pos(arrow_t.src) > pos(s):
        return TripleType.T0, []
    if arrow_s is not None and pos(t) > pos(arrow_s.tgt):
        return TripleType.T0, []
    between = [a for a in arrows if pos(t) < pos(a.tgt) and pos(a.src) < pos(s)]
    pairs = [pr for a in between for pr in ((t, a.tgt), (a.src, s))]
    if arrow_t is not None and arrow_s is not None:
        below = _psi_less(ctx, (t, arrow_s.tgt), (arrow_t.src, s))
        typ = TripleType.T2A if below else TripleType.T2B
        return typ, [(arrow_t.src, s), (t, arrow_s.tgt), *pairs]
    if arrow_s is not None:
        above = any(_psi_less(ctx, (t, arrow_s.tgt), (a.src, s)) for a in between)
        return (TripleType.T3B if above else TripleType.T3A), [(t, arrow_s.tgt), *pairs]
    if arrow_t is not None:
        above = any(_psi_less(ctx, (arrow_t.src, s), (t, a.tgt)) for a in between)
        return (TripleType.T4B if above else TripleType.T4A), [(arrow_t.src, s), *pairs]
    return (TripleType.T5 if between else TripleType.T0), pairs


def reference_check_hypothesis_h(rep: Representation, sub, f: QuiverMorphism) -> HypothesisResult:
    """`check_hypothesis_h` by its definition: every triple of every codomain arrow
    lists its equation's block pairs in full and is charged to the largest by Psi.
    """
    tree_setup(rep, sub)
    ctx = WindingContext(rep, sub, f)
    if not is_strictly_ordered(f, ctx.vertex_key):
        return HypothesisResult(False, reason="morphism is not strictly ordered")
    dangers: dict = {}
    for at in f.codomain.arrows:
        for t in ctx.fibre(at.tgt):
            for s in ctx.fibre(at.src):
                typ, pairs = reference_triple(ctx, at.name, t, s)
                if pairs:
                    largest = max(pairs, key=lambda pr: ctx.psi_key(*pr))
                    if ctx.psi_key(*largest)[0]:
                        dangers.setdefault(largest, []).append(TripleReport((at.name, t, s), typ))
    notes: list[str] = []
    exceptions = []
    for key in sorted(dangers, key=lambda pr: ctx.psi_key(*pr)):
        charged = dangers[key]
        if len(charged) == 1 and _excusable(ctx, charged[0], notes):
            exceptions.append((key, charged[0]))
            continue
        reason = f"pair ({key[0]},{key[1]}) carries inadmissible equations"
        return HypothesisResult(False, reason=reason, pair=key, triples=tuple(charged))
    return HypothesisResult(True, exceptions=tuple(exceptions), notes=tuple(dict.fromkeys(notes)))


def _reference_times_var(i: int, mono):
    """The monomial w_i * mono, for mono of degree at most one."""
    if not mono:
        return ((i, 1),)
    (j, _), = mono
    if i == j:
        return ((i, 2),)
    return ((i, 1), (j, 1)) if i < j else ((j, 1), (i, 1))


def reference_generate_equations(m: Representation, beta, fibred_via: QuiverMorphism | None = None):
    """`generate_equations` by gathering: every (arrow, t, s, row, pivot) is visited.

    For each codomain arrow and pivot bc over its source, the image column
    M W_{., bc} is built from the columns of F_*M at bc and at the
    non-pivots c with a coordinate w_{c,bc}.  The equation at a non-pivot
    row br and column bc is the sum of w_{br,r} times row r of the image
    over the pivots r with such a coordinate, minus row br; the loops run
    over (arrow, t, s, br, bc) in fibre and basis order.  The winding
    tables are built here, from the module, on every call.
    """
    f = fibred_via if fibred_via is not None else identity_morphism(m.quiver)
    basis = m.basis
    pos = basis.positions()
    ambient_vertex_of = {b: f.vertex_map[basis.vertex_of[b]] for b in basis.order}
    block = {v: basis.block(v) for v in m.quiver.vertices}

    def block_start(v: str) -> int:
        return pos[block[v][0]] if block[v] else -1

    arrows = []
    for at in f.codomain.arrows:
        columns: dict = {}
        for a in f.fibre_arrows(at.name):
            for r, row in zip(block[a.tgt], m.matrices[a.name]):
                for c, x in zip(block[a.src], row):
                    if x:
                        columns.setdefault(c, []).append((r, x))
        arrows.append((
            at.name,
            sorted(f.fibre_vertices(at.tgt), key=block_start),
            sorted(f.fibre_vertices(at.src), key=block_start),
            columns,
        ))

    beta_set = set(beta.elements)
    variables = cell_variables(basis, beta, ambient_vertex_of)
    chart = {b: [(b, ())] for b in beta.elements}
    above: dict = {}
    for i, (c, b) in enumerate(variables):
        chart[b].append((c, ((i, 1),)))
        above.setdefault(c, {})[b] = i
    cols: dict = {}
    for b in beta.elements:
        cols.setdefault(basis.vertex_of[b], []).append(b)

    equations = []
    for at_name, tgt_fib, src_fib, columns in arrows:
        live_src = [s for s in src_fib if s in cols]
        rows_out = [(t, [b for b in block[t] if b not in beta_set]) for t in tgt_fib]
        if not live_src or not any(rows for _t, rows in rows_out):
            continue
        images = {}
        for s in live_src:
            for bc in cols[s]:
                image: dict = {}
                for c, mono in chart[bc]:
                    for r, x in columns.get(c, ()):
                        image.setdefault(r, []).append((mono, x))
                pivots = [(r, terms) for r, terms in image.items() if r in beta_set]
                images[bc] = (image, pivots, max((pos[r] for r, _ in pivots), default=-1))
        for t, rows in rows_out:
            for s in live_src:
                for br in rows:
                    p, left = pos[br], above.get(br, {})
                    for bc in cols[s]:
                        image, pivots, top = images[bc]
                        own = image.get(br)
                        if own is None and top < p:
                            continue
                        acc: dict = {}
                        for r, terms in pivots:
                            w = left.get(r)
                            if w is not None:
                                for mono, x in terms:
                                    prod = _reference_times_var(w, mono)
                                    acc[prod] = acc.get(prod, 0) + x
                        for mono, x in own or ():
                            acc[mono] = acc.get(mono, 0) - x
                        terms = {mono: x for mono, x in acc.items() if x}
                        if terms:
                            equations.append(CellEquation((at_name, t, s), br, bc, Poly(terms)))
    return CellEquationSystem(beta, tuple(variables), tuple(equations))


def rank_mod(rows, rhs, q: int) -> int | None:
    """Rank of A over F_q, or None when A x = b is inconsistent.

    Forward elimination only, one row at a time: each row of (A | b) is
    cleared at the pivot column of every pivot row before it by
    cross-multiplication, row <- p * row - a * pivot_row, and becomes a
    pivot row at its first nonzero entry.  A row that clears to zero in A
    but not in b makes the system inconsistent; otherwise it has
    q^(nvars - rank) solutions.  The reference for the elimination that
    `oracle._arrow_rows` does as it reads each row.
    """
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row, b in zip(rows, rhs):
        row = [x % q for x in row]
        row.append(b % q)
        for c, top in pivots:
            f = row[c]
            if f:
                p = top[c]
                row = [(p * x - f * y) % q for x, y in zip(row, top)]
        for c, x in enumerate(row):
            if x:
                break
        else:
            continue
        if c == len(row) - 1:
            return None
        pivots.append((c, row))
    return len(pivots)


def reference_arrow_rows(step, values, q: int):
    """A step's arrow rows at the placed values as (rows, rhs) over F_q, uneliminated, or None when one cannot hold.

    Each row is evaluated in wiring order; one whose coefficients all
    vanish mod q is dropped, and gives None before any later row is read
    if its right-hand side does not.  The row builder that fed the
    reference `rank_mod` and `iter_solutions_mod` before the oracle
    eliminated each row as it read it.
    """
    nfree = step.chart.nfree
    rows: list[list[int]] = []
    rhs: list[int] = []
    for k, (b, terms), coefficients in step.rows:
        y = values[k]
        for u, c in terms:
            b += c * y[u]
        row = [0] * nfree
        for v, (a, terms) in coefficients:
            for u, c in terms:
                a += c * y[u]
            row[v] = a % q
        if any(row):
            rows.append(row)
            rhs.append(b % q)
        elif b % q:
            return None
    return rows, rhs


def fraction_lagrange_interpolate(points):
    """Coefficients (ascending degree) of the interpolating polynomial, in Fraction arithmetic throughout.

    The reference for `linalg.lagrange_interpolate`, which works in ints
    over one common denominator.
    """
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xj)
                new[k + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_compile(chart, columns, target, s: int, t: int):
    """Arrow compiled from source `chart` to `target` as one pass per pair of charts.

    Builds the arrow's generator images on the source chart afresh, as
    (constant, ((var, vector), ...)) per generator, and turns them into
    the target's rows or loop forms: the per-pair compile that
    `oracle._Tables.compiled` did before it kept each arrow's images once
    per source chart.  A loop gives its forms, any other arrow (pure,
    rows) in the format of `compiled`.
    """
    images = [
        (columns[p], [(var, columns[r]) for r, var in free if any(columns[r])])
        for p, free in zip(chart.pivot_rows, chart.column_free)
    ]
    if s == t:
        forms: dict = {}
        for const, terms in images:
            for r, free in zip(target.nonpivot_rows, target.row_free):
                linear = {v: vec[r] for v, vec in terms}
                quadratic: dict = {}
                for j, u in free:
                    p = target.pivot_rows[j]
                    linear[u] = linear.get(u, 0) - const[p]
                    for v, vec in terms:
                        pair = (min(u, v), max(u, v))
                        quadratic[pair] = quadratic.get(pair, 0) - vec[p]
                linear_terms = tuple((v, a) for v, a in sorted(linear.items()) if a)
                quadratic_terms = tuple((u, v, b) for (u, v), b in sorted(quadratic.items()) if b)
                if const[r] or linear_terms or quadratic_terms:
                    forms[const[r], linear_terms, quadratic_terms] = None
        return tuple(forms)

    def incoming():
        for const, terms in images:
            w = [(c, tuple((u, vec[p]) for u, vec in terms if vec[p])) for p, c in enumerate(const)]
            for r, free in zip(target.nonpivot_rows, target.row_free):
                yield w[r], [(var, w[target.pivot_rows[j]]) for j, var in free]

    def outgoing():
        for r, free in zip(target.nonpivot_rows, target.row_free):
            weights = [(target.pivot_rows[c], var) for c, var in free]
            for const, terms in images:
                b = (-const[r], tuple((var, const[p]) for p, var in weights if const[p]))
                yield b, [(v, (vec[r], tuple((var, -vec[p]) for p, var in weights if vec[p]))) for v, vec in terms]

    pure: dict = {}
    rows = []
    for b, coefficients in incoming() if s < t else outgoing():
        coefficients = tuple((v, a) for v, a in coefficients if a[0] or a[1])
        if coefficients:
            rows.append((min(s, t), b, coefficients))
        elif b[0] or b[1]:
            pure[b] = None
    return tuple(pure), tuple(rows)


def record_count_path_rows(monkeypatch) -> list:
    """A list to which the count path's elimination appends each result it returns, from now on.

    That is each call of `oracle._arrow_rows` made by a loop-free
    `oracle._last_count`, once per last-step system a count reads: its
    echelon rows, or None.  Each entry is (step, placed values, q, result).
    """
    from quiver_schubert import oracle

    found: list = []
    counting: list = []
    last_count, arrow_rows = oracle._last_count, oracle._arrow_rows

    def recorded_last_count(step, values, q):
        counting.append(not step.loops)
        try:
            return last_count(step, values, q)
        finally:
            counting.pop()

    def recorded_arrow_rows(step, values, q):
        rows = arrow_rows(step, values, q)
        if counting and counting[-1]:
            found.append((step, list(values), q, rows))
        return rows

    monkeypatch.setattr(oracle, "_last_count", recorded_last_count)
    monkeypatch.setattr(oracle, "_arrow_rows", recorded_arrow_rows)
    return found


def record_ranks_per_cell(monkeypatch, ranked: list) -> list:
    """A list to which each count of one cell appends, as it ends, one list of what it added to `ranked`.

    `ranked` is a list from `record_count_path_rows`; each of its entries
    appears as (step, the step's memo key of the placed values).
    """
    from quiver_schubert import oracle

    per_cell: list = []
    cell_total = oracle._cell_total

    def recorded(tables, pivots, q):
        start = len(ranked)
        try:
            return cell_total(tables, pivots, q)
        finally:
            per_cell.append([(step, step.key(values)) for step, values, _, _ in ranked[start:]])

    monkeypatch.setattr(oracle, "_cell_total", recorded)
    return per_cell
