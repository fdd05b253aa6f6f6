"""Oracle: enumeration, cell assignment, counting, interpolation, certificates."""

from fractions import Fraction

import pytest

from conftest import independent_total, random_tree_extension
from quiver_schubert.catalog import catalog
from quiver_schubert.linalg import gaussian_binomial
from quiver_schubert.oracle import (
    AffineCertificateError,
    BudgetExceededError,
    CountingPolynomial,
    assign_cell,
    cell_count,
    count,
    counting_polynomial,
    enumerate_subreps,
    euler_characteristic,
    poincare_polynomial,
    verify_affine,
)
from quiver_schubert.quiver import quiver
from quiver_schubert.representation import OrderedBasis, representation, restrict
from quiver_schubert.schubert import cell_index, grassmannian_fibration


def test_enumerate_one_vertex():
    rep = catalog("one_vertex(2)").representation
    points = list(enumerate_subreps(rep, {"1": 1}, 5))
    assert len(points) == 6  # Gr(1,2)(F_5) = q + 1


def test_enumerate_two_lines_f2():
    rep = catalog("two_lines").representation
    points = list(enumerate_subreps(rep, {"1": 1, "2": 1}, 2))
    assert len(points) == 5


def test_enumerate_ex451_unique_point():
    rep = catalog("ex_4_5_1").representation
    for q in (2, 3, 5):
        points = list(enumerate_subreps(rep, {"A": 1, "B": 1}, q))
        assert len(points) == 1
        assert points[0].cell.key() == "3,4"


def test_assign_cell_top_basis_span():
    rep = catalog("one_vertex(3)").representation
    mat = ((1, 0), (0, 1), (0, 0))  # span{b1, b2}
    beta = assign_cell({"1": mat}, rep.basis, 3)
    assert beta.key() == "b1,b2"


def test_assign_cell_two_lines_example():
    rep = catalog("two_lines").representation
    # V_1 = <v b1 + b2>, V_2 = <b3>  ->  beta = {b2, b3}
    for v in (0, 1, 2):
        subspaces = {"1": ((v,), (1,)), "2": ((1,), (0,))}
        beta = assign_cell(subspaces, rep.basis, 3)
        assert beta.key() == "b2,b3"


def test_assign_cell_dependent_generators():
    rep = catalog("one_vertex(2)").representation
    with pytest.raises(ValueError):
        assign_cell({"1": ((1, 1), (1, 1))}, rep.basis, 2)


def test_counts_partition_and_totals():
    rep = catalog("two_lines").representation
    reports = count(rep, {"1": 1, "2": 1}, primes=[2, 3, 5])
    for r in reports:
        assert sum(r.per_cell.values()) == r.total
        assert r.total == 2 * r.prime + 1
        assert sorted(r.per_cell.values()) == [0, 1, r.prime, r.prime]


def test_counting_polynomial_examples():
    two = catalog("two_lines")
    assert counting_polynomial(two.representation, two.dim_vector).to_text() == "2*x + 1"
    p1 = catalog("flag(2;1)")
    assert counting_polynomial(p1.representation, {"1": 1}).to_text() == "x + 1"
    e451 = catalog("ex_4_5_1")
    assert counting_polynomial(e451.representation, e451.dim_vector).to_text() == "1"


def test_counting_polynomial_consistency():
    entry = catalog("flag(3;1,2)")
    poly = counting_polynomial(entry.representation, entry.dim_vector)
    assert poly.is_integral() and poly.is_nonnegative()
    for q, value in poly.samples:
        assert poly(q) == value


def test_euler_examples():
    two = catalog("two_lines")
    assert euler_characteristic(two.representation, two.dim_vector).chi == 3
    flags3 = catalog("flag(3;1,2)")
    report = euler_characteristic(flags3.representation, flags3.dim_vector)
    assert report.chi == 6
    poincare = poincare_polynomial(flags3.representation, flags3.dim_vector, assert_smooth=True)
    assert poincare.polynomial_text() == "1 + 2*t^2 + 2*t^4 + t^6"
    assert poincare.smooth_asserted
    e451 = catalog("ex_4_5_1")
    assert euler_characteristic(e451.representation, e451.dim_vector).chi == 1


def test_euler_refuses_without_certificate():
    entry = catalog("ex_4_5_2")
    with pytest.raises(AffineCertificateError):
        euler_characteristic(entry.representation, entry.dim_vector)


def test_verify_affine_two_lines():
    entry = catalog("two_lines")
    verdicts = verify_affine(entry.representation, entry.dim_vector, primes=(2, 3, 5))
    by_cell = {v.cell: v for v in verdicts}
    assert by_cell["b1,b3"].verdict == "affine" and by_cell["b1,b3"].dimension == 0
    assert by_cell["b2,b3"].dimension == 1
    assert by_cell["b2,b4"].dimension == 1
    assert by_cell["b1,b4"].verdict == "empty"
    assert "numerical evidence" in by_cell["b1,b3"].evidence


def test_verify_affine_cone_not_prime_power():
    entry = catalog("ex_4_5_2")
    verdicts = verify_affine(entry.representation, entry.dim_vector, primes=(2, 3))
    by_cell = {v.cell: v for v in verdicts}
    assert by_cell["2,3,7"].verdict == "not-a-prime-power"
    assert by_cell["2,3,7"].counts[2] == 10


def test_verify_affine_preprojective():
    entry = catalog("kronecker_preprojective(2)")
    verdicts = verify_affine(entry.representation, entry.dim_vector, primes=(2, 3))
    assert all(v.verdict in ("affine", "empty") for v in verdicts)


def test_gaussian_binomial_closed_form():
    # one-vertex counts match the Gaussian binomials for all m <= 5
    for m in range(0, 6):
        rep = catalog(f"one_vertex({m})").representation if m else None
        for e in range(0, m + 1):
            for q in (2, 3, 5):
                if m == 0:
                    continue
                total = count(rep, {"1": e}, primes=[q])[0].total
                assert total == gaussian_binomial(m, e, q)


def test_disjoint_union_counts_multiply():
    q = quiver(["1", "2"], [])
    basis = OrderedBasis(
        ("x1", "x2", "y1", "y2"), {"x1": "1", "x2": "1", "y1": "2", "y2": "2"}
    )
    rep = representation(q, basis, {})
    from quiver_schubert.quiver import subquiver

    left = restrict(rep, subquiver(q, ["1"]))
    right = restrict(rep, subquiver(q, ["2"]))
    for e1 in (0, 1, 2):
        for e2 in (0, 1, 2):
            for qq in (2, 3):
                whole = count(rep, {"1": e1, "2": e2}, primes=[qq])[0]
                lhs = count(left, {"1": e1}, primes=[qq])[0]
                rhs = count(right, {"2": e2}, primes=[qq])[0]
                assert whole.total == lhs.total * rhs.total
                for bl, cl in lhs.per_cell.items():
                    for br, cr in rhs.per_cell.items():
                        key = ",".join(
                            [b for b in basis.order if b in set(bl.split(",") + br.split(","))]
                        )
                        if bl and br:
                            assert whole.per_cell[key] == cl * cr


def test_fibration_multiplicativity_randomised():
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
            base = count(ms, es, primes=[q])[0].total
            expected = base
            for ee, mm in fibres:
                expected *= gaussian_binomial(mm, ee, q)
            assert total == expected, (seed, q, total, expected)
        hits += 1


def test_direct_sum_cells_factor_with_stable_exponent():
    """Nonempty cells of M + M factor as the product of summand cells times q^n,
    with n constant across primes and at least the S-side exponent."""
    from itertools import combinations

    from conftest import fold_winding
    from quiver_schubert.oracle import cell_count
    from quiver_schubert.quiver import subquiver
    from quiver_schubert.representation import push_forward
    from quiver_schubert.schubert import cell_index

    base = catalog("flag(2;1,1)").representation
    base_s = restrict(base, subquiver(base.quiver, ["1"]))
    upstairs, s_prime, fold = fold_winding(base, ["1"])
    pushed = push_forward(fold, upstairs)
    pushed_s = restrict(pushed, subquiver(pushed.quiver, ["1"]))
    copy1 = set(base.basis.order)
    checked = 0
    for r in range(len(pushed.basis.order) + 1):
        for elems in combinations(pushed.basis.order, r):
            types = {}
            for b in elems:
                v = pushed.basis.vertex_of[b]
                types[v] = types.get(v, 0) + 1
            if any(t > 2 for t in types.values()):
                continue
            beta1 = cell_index(base.basis, [b for b in elems if b in copy1])
            beta2 = cell_index(base.basis, [b[:-1] for b in elems if b not in copy1])
            full = cell_index(pushed.basis, elems)
            s_elems = [b for b in elems if pushed.basis.vertex_of[b] == "1"]
            exponents, s_exponents = set(), set()
            empty = False
            for q in (2, 3):
                total = cell_count(pushed, full, q)
                prod = cell_count(base, beta1, q) * cell_count(base, beta2, q)
                if total == 0:
                    empty = True
                    break
                assert prod > 0 and total % prod == 0, (elems, q, total, prod)
                exponents.add(_exact_log(total // prod, q))
                s_total = cell_count(pushed_s, cell_index(pushed_s.basis, s_elems), q)
                s_prod = cell_count(
                    base_s, cell_index(base_s.basis, [b for b in s_elems if b in copy1]), q
                ) * cell_count(
                    base_s,
                    cell_index(base_s.basis, [b[:-1] for b in s_elems if b not in copy1]),
                    q,
                )
                s_exponents.add(_exact_log(s_total // s_prod, q))
            if empty:
                continue
            assert len(exponents) == 1 and len(s_exponents) == 1, elems
            assert exponents.pop() >= s_exponents.pop(), elems
            checked += 1
    assert checked >= 30


def _exact_log(value: int, q: int) -> int:
    n = 0
    while value % q == 0:
        value //= q
        n += 1
    assert value == 1
    return n


def test_forest_blocks_all_affine():
    for seed in range(20):
        entry = catalog(f"forest_block({seed},10)")
        assert sum(entry.representation.dim_vector().values()) <= 10
        verdicts = verify_affine(entry.representation, entry.dim_vector, primes=(2, 3))
        assert all(v.verdict in ("affine", "empty") for v in verdicts), seed


def test_poly_at_one_counts_nonempty_cells():
    for spec in ["two_lines", "flag(3;1,2)", "kronecker_preprojective(2)"]:
        entry = catalog(spec)
        verdicts = verify_affine(entry.representation, entry.dim_vector, primes=(2, 3))
        assert all(v.verdict in ("affine", "empty") for v in verdicts)
        poly = counting_polynomial(entry.representation, entry.dim_vector)
        nonempty = sum(1 for v in verdicts if v.verdict == "affine")
        assert poly(1) == nonempty


def test_independent_total_cross_check():
    cases = [
        ("one_vertex(3)", {"1": 1}),
        ("two_lines", {"1": 1, "2": 1}),
        ("one_loop(2,0)", {"1": 1}),
    ]
    for spec, e in cases:
        rep = catalog(spec).representation
        for q in (2, 3):
            fast = count(rep, e, primes=[q])[0].total
            slow = independent_total(rep, e, q)
            assert fast == slow, (spec, q, fast, slow)


def test_independent_total_randomised_modules():
    """Chart-based counting against raw matrix enumeration on random modules,
    including loops, parallel arrows and oriented cycles."""
    import random

    from quiver_schubert.representation import OrderedBasis, representation as make_rep

    rng = random.Random(2024)
    for trial in range(25):
        nverts = rng.randint(1, 3)
        verts = [f"v{i}" for i in range(nverts)]
        arrows = [
            (f"a{i}", rng.choice(verts), rng.choice(verts))
            for i in range(rng.randint(0, 3))
        ]
        ranks = {v: rng.randint(0, 2) for v in verts}
        if sum(ranks.values()) == 0 or sum(ranks.values()) > 5:
            continue
        order, vertex_of = [], {}
        idx = 0
        for v in verts:
            for _ in range(ranks[v]):
                idx += 1
                order.append(f"b{idx}")
                vertex_of[f"b{idx}"] = v
        mats = {}
        for name, src, tgt in arrows:
            mats[name] = [
                [rng.randint(0, 2) for _ in range(ranks[src])] for _ in range(ranks[tgt])
            ]
        q = quiver(verts, arrows)
        rep = make_rep(q, OrderedBasis(tuple(order), vertex_of), mats)
        e = {v: rng.randint(0, ranks[v]) for v in verts}
        if sum(ranks[v] * e[v] for v in verts) > 6:
            continue
        for p in (2, 3):
            fast = count(rep, e, primes=[p])[0].total
            slow = independent_total(rep, e, p)
            assert fast == slow, (trial, p, fast, slow)


def test_budget_guard():
    rep = catalog("one_vertex(5)").representation
    with pytest.raises(BudgetExceededError) as err:
        list(enumerate_subreps(rep, {"1": 2}, 3, budget=10))
    assert err.value.estimate == gaussian_binomial(5, 2, 3)


def test_empty_grassmannian_polynomial_zero():
    # one_loop(2,0) at e=(1): J(0)-invariant lines: only <b1>; but restrict to
    # an impossible cell via a quiver with a rank bound instead: use e > rank.
    rep = catalog("kronecker_regular(2,0)").representation
    # dimension vector (2, 0): V_1 = everything must map into V_2 = 0 under id: empty
    poly = counting_polynomial(rep, {"1": 2, "2": 0})
    assert poly.to_text() == "0"
    assert euler_characteristic(rep, {"1": 2, "2": 0}).chi == 0


@pytest.mark.parametrize("q", [4, 9, -3, 0, 1])
def test_moduli_must_be_prime(q):
    rep = catalog("two_lines").representation
    e = {"1": 1, "2": 1}
    beta = cell_index(rep.basis, ["b1", "b3"])
    calls = [
        lambda: count(rep, e, primes=[q]),
        lambda: cell_count(rep, beta, q),
        lambda: next(enumerate_subreps(rep, e, q)),
        lambda: verify_affine(rep, e, primes=(2, q)),
        lambda: counting_polynomial(rep, e, primes=(2, 3, q)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not a prime"):
            call()


def test_counting_polynomial_text_unit_coefficients():
    def text(*coeffs):
        return CountingPolynomial(tuple(Fraction(c) for c in coeffs), len(coeffs) - 1, ()).to_text()

    assert text(3, -1) == "-x + 3"
    assert text(0, 0, -1) == "-x^2"
    assert text(1, -1, 1) == "x^2 - x + 1"
    assert text(1, -2) == "-2*x + 1"


def test_repeated_primes_are_rejected():
    rep = catalog("two_lines").representation
    e = {"1": 1, "2": 1}
    calls = [
        lambda: counting_polynomial(rep, e, primes=(2, 2, 3)),
        lambda: verify_affine(rep, e, primes=(3, 3)),
        lambda: euler_characteristic(rep, e, primes=(2, 2)),
        lambda: poincare_polynomial(rep, e, primes=(2, 3, 2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime . is repeated"):
            call()
