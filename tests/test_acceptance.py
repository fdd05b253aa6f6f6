"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines; tolerances are exact matches throughout, with the stated wall-clock
limits asserted.
"""

import random
import time
from itertools import combinations, product

import pytest

from conftest import chart_coordinates, fold_winding, random_tree_extension
from quiver_schubert.catalog import catalog
from quiver_schubert.hypothesis_h import TripleType, check_hypothesis_h
from quiver_schubert.linalg import gaussian_binomial
from quiver_schubert.oracle import (
    _cell_points,
    cell_count,
    cell_pivots,
    count,
    counting_polynomial,
    euler_characteristic,
    verify_affine,
)
from quiver_schubert.quiver import QuiverMorphism, quiver
from quiver_schubert.representation import push_forward, restrict
from quiver_schubert.schubert import (
    cell_index,
    enumerate_cells,
    generate_equations,
    iota,
    pi,
    tree_cell_dimension,
    tree_cell_emptiness,
)


def _report(criterion: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{criterion} took {elapsed:.2f}s (limit {limit}s)"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def _restrict_morphism(f, s):
    sq = quiver(
        [v for v in f.domain.vertices if v in s.vertices],
        [(a.name, a.src, a.tgt) for a in f.domain.arrows if a.name in s.arrows],
    )
    return QuiverMorphism(
        sq,
        f.codomain,
        {v: f.vertex_map[v] for v in sq.vertices},
        {a.name: f.arrow_map[a.name] for a in sq.arrows},
    )


def test_criterion_01_two_projective_lines():
    started = time.monotonic()
    entry = catalog("two_lines")
    rep = entry.representation
    cells = enumerate_cells(rep.basis, entry.dim_vector, rep.quiver.vertices)
    assert [c.key() for c in cells] == ["b1,b3", "b1,b4", "b2,b3", "b2,b4"]
    for r in count(rep, entry.dim_vector, primes=[2, 3, 5]):
        q = r.prime
        assert r.per_cell == {"b1,b3": 1, "b1,b4": 0, "b2,b3": q, "b2,b4": q}
    assert counting_polynomial(rep, entry.dim_vector).to_text() == "2*x + 1"
    assert euler_characteristic(rep, entry.dim_vector).chi == 3
    verdicts = {v.cell: v for v in verify_affine(rep, entry.dim_vector, primes=(2, 3, 5))}
    assert verdicts["b1,b3"].dimension == 0
    assert verdicts["b2,b3"].dimension == 1
    assert verdicts["b2,b4"].dimension == 1
    assert verdicts["b1,b4"].verdict == "empty"
    _report("1 (two projective lines)", started, 1.0)


def test_criterion_02_ex451():
    started = time.monotonic()
    entry = catalog("ex_4_5_1")
    m, s, f = entry.upstairs, entry.subquiver, entry.morphism
    system = generate_equations(m, cell_index(m.basis, ["3", "4"]), fibred_via=f)
    assert system.variables == (("1", "3"), ("2", "4"))
    w13, w24 = 0, 1
    linear = {((w24, 1),): 1, ((w13, 1),): -1}  # w_{2,4} - w_{1,3}
    quadratic = {((w13, 1), (w24, 1)): 1}  # w_{1,3} * w_{2,4}
    seen = [dict(eq.poly.terms) for eq in system.equations]
    assert len(seen) == 2

    def up_to_sign(poly, target):
        return poly == target or poly == {k: -v for k, v in target.items()}

    assert any(up_to_sign(p, linear) for p in seen)
    assert any(up_to_sign(p, quadratic) for p in seen)

    result = check_hypothesis_h(m, s, f)
    assert not result.passed
    assert (("gt", "1", "4"), TripleType.T5) in {(t.triple, t.type) for t in result.triples}

    for r in count(entry.representation, entry.dim_vector, primes=[2, 3, 5]):
        assert r.total == 1
    assert counting_polynomial(entry.representation, entry.dim_vector).to_text() == "1"
    _report("2 (ex_4_5_1)", started, 1.0)


def test_criterion_03_ex452():
    started = time.monotonic()
    entry = catalog("ex_4_5_2")
    m, f = entry.upstairs, entry.morphism
    beta = cell_index(m.basis, ["2", "3", "7"])
    system = generate_equations(m, beta, fibred_via=f)
    assert len(system.equations) == 1
    assert (
        system.equations[0].poly.render(system.var_names())
        == "w_{1,2}*w_{4,7} + w_{1,3}*w_{5,7}"
    )
    # independent oracle: exhaustive enumeration of ac + bd = 0 on F_2^4
    brute = sum(
        1 for a, b, c, d in product(range(2), repeat=4) if (a * c + b * d) % 2 == 0
    )
    assert brute == 10
    assert cell_count(entry.representation, beta, 2) == 10
    verdicts = {v.cell: v for v in verify_affine(entry.representation, entry.dim_vector)}
    assert verdicts["2,3,7"].verdict == "not-a-prime-power"
    assert verdicts["2,3,7"].counts[2] == 10
    _report("3 (ex_4_5_2 cone cell)", started, 1.0)


def test_criterion_04_preprojective_family():
    started = time.monotonic()
    for n in (1, 2, 3):
        entry = catalog(f"kronecker_preprojective({n})")
        assert check_hypothesis_h(entry.upstairs, entry.subquiver, entry.morphism).passed
        rep = entry.representation
        m1, m2 = rep.rank("1"), rep.rank("2")
        for e1 in range(m1 + 1):
            for e2 in range(m2 + 1):
                e = {"1": e1, "2": e2}
                verdicts = verify_affine(rep, e, primes=(2, 3))
                assert all(v.verdict in ("affine", "empty") for v in verdicts), (n, e)
                poly = counting_polynomial(rep, e)
                assert poly.is_integral() and poly.is_nonnegative(), (n, e, poly.coeffs)
                nonempty = sum(1 for v in verdicts if v.verdict == "affine")
                assert poly(1) == nonempty
                if nonempty:
                    assert euler_characteristic(rep, e, primes=(2, 3)).chi == nonempty
    _report("4 (preprojective family, all dimension vectors)", started, 30.0)


def test_criterion_05_ex455():
    started = time.monotonic()
    entry = catalog("ex_4_5_5")
    assert check_hypothesis_h(entry.upstairs, entry.subquiver, entry.morphism).passed
    rep = entry.representation
    for e in [{"s": 0, "p": 1, "q": 2}, {"s": 1, "p": 2, "q": 4}]:
        verdicts = verify_affine(rep, e, primes=(2, 3), budget=10**13)
        assert all(v.verdict in ("affine", "empty") for v in verdicts), e
        assert any(v.verdict == "affine" for v in verdicts), e
    _report("5 (ex_4_5_5, 14-vertex winding)", started, 60.0)


def _main_identity_sweep(m, s, f, pushed, betas, primes=(2, 3, 5)):
    ms = restrict(m, s)
    ns = push_forward(_restrict_morphism(f, s), ms)
    s_ids = set(ns.basis.order)
    for elems in betas:
        beta = cell_index(m.basis, elems)
        beta_n = cell_index(pushed.basis, elems)
        empty = tree_cell_emptiness(m, s, beta, base_is_empty=False)
        counts = {q: cell_count(pushed, beta_n, q) for q in primes}
        if empty:
            assert all(c == 0 for c in counts.values()), (elems, counts)
            continue
        n_beta = tree_cell_dimension(m, s, beta)
        beta_s = cell_index(ns.basis, [b for b in elems if b in s_ids])
        exponents = set()
        for q in primes:
            base = cell_count(ns, beta_s, q)
            assert base > 0, (elems, q)
            quotient, remainder = divmod(counts[q], base * q**n_beta)
            assert remainder == 0, (elems, q, counts[q], base, n_beta)
            k = 0
            while quotient % q == 0:
                quotient //= q
                k += 1
            assert quotient == 1, (elems, q, counts[q], base, n_beta)
            exponents.add(k)
        assert len(exponents) == 1 and min(exponents) >= 0, (elems, exponents)


def test_criterion_06_main_theorem_identity():
    started = time.monotonic()
    ambient_budget = 10**6
    specs = [
        "kronecker_preprojective(1)",
        "kronecker_preprojective(2)",
        "kronecker_preprojective(3)",
        "kronecker_preinjective(1)",
        "kronecker_preinjective(2)",
        "kronecker_preinjective(3)",
        "ex_4_5_1",
        "ex_4_5_2",
        "ex_4_5_5",
    ]
    for spec in specs:
        entry = catalog(spec)
        if not check_hypothesis_h(entry.upstairs, entry.subquiver, entry.morphism).passed:
            continue
        m, pushed = entry.upstairs, entry.representation
        betas = []
        for r in range(len(m.basis.order) + 1):
            for elems in combinations(m.basis.order, r):
                ambient = 1
                for v in pushed.quiver.vertices:
                    bv = sum(1 for b in elems if pushed.basis.vertex_of[b] == v)
                    ambient *= gaussian_binomial(pushed.rank(v), bv, 5)
                if ambient <= ambient_budget:
                    betas.append(elems)
        _main_identity_sweep(m, entry.subquiver, entry.morphism, pushed, betas)

    # the direct-sum fold is a winding too (proof of the direct-sum theorem)
    base = catalog("flag(2;1,1)").representation
    upstairs, s_prime, fold = fold_winding(base, ["1"])
    assert check_hypothesis_h(upstairs, s_prime, fold).passed
    pushed = push_forward(fold, upstairs)
    betas = []
    order = upstairs.basis.order
    for r in range(len(order) + 1):
        for elems in combinations(order, r):
            types = {}
            for b in elems:
                v = pushed.basis.vertex_of[b]
                types[v] = types.get(v, 0) + 1
            if all(t <= 2 for t in types.values()):
                betas.append(elems)
                if len(betas) >= 140:
                    break
        if len(betas) >= 140:
            break
    _main_identity_sweep(upstairs, s_prime, fold, pushed, betas)
    _report("6 (main-theorem point-count identity)", started, 120.0)


def test_criterion_07_tree_extension_suite():
    started = time.monotonic()
    cases = [
        ("flag(2;1,1)", {"1": 1, "2": 1}),
        ("flag(3;1,2)", {"1": 1, "2": 2}),
        ("flag(4;1,2,3)", {"1": 1, "2": 2, "3": 3}),
        ("flag(4;2,2)", {"1": 2, "2": 2}),
    ]
    for spec, e in cases:
        entry = catalog(spec)
        rep, s = entry.representation, entry.subquiver
        ms = restrict(rep, s)
        s_ids = set(ms.basis.order)
        for beta in enumerate_cells(rep.basis, e, rep.quiver.vertices):
            empty = tree_cell_emptiness(rep, s, beta)
            if empty:
                for q in (2, 3):
                    assert cell_count(rep, beta, q) == 0, (spec, beta.key())
                continue
            n = tree_cell_dimension(rep, s, beta)
            beta_s = cell_index(ms.basis, [b for b in beta.elements if b in s_ids])
            for q in (2, 3):
                assert cell_count(rep, beta, q) == cell_count(ms, beta_s, q) * q**n

    entry = catalog("flag(3;1,2)")
    assert (
        counting_polynomial(entry.representation, entry.dim_vector).to_text()
        == "x^3 + 2*x^2 + 2*x + 1"
    )
    import math

    for m in (2, 3, 4):
        spec = f"flag({m};{','.join(str(i) for i in range(1, m))})"
        entry = catalog(spec)
        assert euler_characteristic(entry.representation, entry.dim_vector).chi == math.factorial(m)
    _report("7 (tree-extension suite over flags)", started, 10.0)


def test_criterion_08_fibration_multiplicativity():
    started = time.monotonic()
    from quiver_schubert.schubert import grassmannian_fibration

    hits = 0
    seed = 0
    while hits < 10:
        seed += 1
        rep, s, e = random_tree_extension(seed)
        if sum(rep.dim_vector().values()) > 10:
            continue
        fibres = grassmannian_fibration(rep, s, e)
        ms = restrict(rep, s)
        es = {v: e.get(v, 0) for v in ms.quiver.vertices}
        for q in (2, 3):
            total = count(rep, e, primes=[q])[0].total
            expected = count(ms, es, primes=[q])[0].total
            for ee, mm in fibres:
                expected *= gaussian_binomial(mm, ee, q)
            assert total == expected, (seed, q, total, expected)
        hits += 1
    _report("8 (Grassmannian fibration multiplicativity, 10 random cases)", started, 60.0)


def test_criterion_09_forest_theorem():
    started = time.monotonic()
    for seed in range(20):
        entry = catalog(f"forest_block({seed},10)")
        assert sum(entry.representation.dim_vector().values()) <= 10
        verdicts = verify_affine(entry.representation, entry.dim_vector, primes=(2, 3))
        assert all(v.verdict in ("affine", "empty") for v in verdicts), seed
    _report("9 (forest block-matrix theorem, 20 random modules)", started, 60.0)


def test_criterion_10_degenerate_flags():
    started = time.monotonic()
    for n in (2, 3):
        chain = catalog(f"degenerate_flag({n})")
        pi_model = catalog(f"degenerate_flag_pi({n})")
        e = chain.dim_vector
        verdicts = verify_affine(chain.representation, e, primes=(2, 3))
        assert all(v.verdict in ("affine", "empty") for v in verdicts), n
        chi = euler_characteristic(chain.representation, e).chi
        assert chi == sum(1 for v in verdicts if v.verdict == "affine")
        for q in (2, 3):
            left = count(chain.representation, e, primes=[q])[0]
            right = count(
                pi_model.representation,
                {v: e[v] for v in pi_model.representation.quiver.vertices},
                primes=[q],
            )[0]
            # identify cells through the order-preserving basis bijection
            mapping = dict(
                zip(pi_model.representation.basis.order, chain.representation.basis.order)
            )
            translated = {}
            for key, value in right.per_cell.items():
                ids = [mapping[b] for b in key.split(",")] if key else []
                ids.sort(key=chain.representation.basis.position)
                translated[",".join(ids)] = value
            assert translated == dict(left.per_cell), (n, q)
    # frozen Euler characteristics (normalised median Genocchi numbers)
    assert euler_characteristic(
        catalog("degenerate_flag(2)").representation, {"1": 1, "2": 2}
    ).chi == 7
    assert euler_characteristic(
        catalog("degenerate_flag(3)").representation, {"1": 1, "2": 2, "3": 3}
    ).chi == 38
    _report("10 (degenerate flags, both models)", started, 60.0)


def _sample_m_points(m, s, f, quota, primes=(2, 3, 5)):
    """Up to `quota` cell points of C_beta^M across cells and primes."""
    rng = random.Random(99)
    order = list(m.basis.order)
    subsets = []
    for r in range(len(order) + 1):
        subsets.extend(combinations(order, r))
    rng.shuffle(subsets)
    points = []
    for elems in subsets:
        beta = cell_index(m.basis, elems)
        if tree_cell_emptiness(m, s, beta, base_is_empty=False):
            continue
        for q in primes:
            for matrices in _cell_points(m, cell_pivots(m, beta), q):
                points.append((beta, q, chart_coordinates(m, beta, matrices)))
                if len(points) >= quota:
                    return points
    return points


def test_criterion_11_retraction():
    started = time.monotonic()
    windings = []
    for spec in [
        "kronecker_preprojective(1)",
        "kronecker_preprojective(2)",
        "kronecker_preprojective(3)",
        "kronecker_preinjective(1)",
        "kronecker_preinjective(2)",
        "kronecker_preinjective(3)",
        "ex_4_5_1",
        "ex_4_5_2",
        "ex_4_5_5",
    ]:
        e = catalog(spec)
        windings.append((spec, e.upstairs, e.subquiver, e.morphism))
    base = catalog("flag(2;1,1)").representation
    upstairs, s_prime, fold = fold_winding(base, ["1"])
    windings.append(("fold", upstairs, s_prime, fold))

    for name, m, s, f in windings:
        points = _sample_m_points(m, s, f, quota=100)
        assert points, name
        for beta, q, coords in points:
            system_n = generate_equations(m, beta, fibred_via=f)
            up = iota(f, m, beta, coords)
            values = [up.get(v, 0) for v in system_n.variables]
            assert system_n.is_satisfied(values, q), (name, beta.key(), q)
            down = pi(f, m, beta, up)
            assert {k: v % q for k, v in down.items() if v % q} == {
                k: v % q for k, v in coords.items() if v % q
            }, (name, beta.key(), q)
    _report("11 (retraction pi after iota, sampled points)", started, 60.0)


def test_criterion_12_partition_invariant():
    started = time.monotonic()
    instances = [
        ("two_lines", None),
        ("ex_4_5_1", None),
        ("ex_4_5_2", None),
        ("kronecker_preprojective(2)", None),
        ("kronecker_regular(2,0)", None),
        ("degenerate_flag(2)", None),
        ("one_loop(3,1)", {"1": 2}),
        ("flag(3;1,2)", None),
        ("forest_block(1,8)", None),
    ]
    for spec, e in instances:
        entry = catalog(spec)
        dims = e or dict(entry.dim_vector)
        for report in count(entry.representation, dims, primes=[2, 3]):
            assert report.total == sum(report.per_cell.values()), (spec, report.prime)
            recount = sum(
                1 for _ in __import__("quiver_schubert.oracle", fromlist=["enumerate_subreps"]).enumerate_subreps(
                    entry.representation, dims, report.prime
                )
            )
            assert recount == report.total, (spec, report.prime)
    _report("12 (cell partition invariant)", started, 60.0)
