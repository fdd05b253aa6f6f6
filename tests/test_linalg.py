"""Linear algebra over F_q: the order in which solution sets are enumerated."""

from itertools import product

from quiver_schubert.linalg import iter_solutions_mod, solve_mod


def _product_order(particular, basis, q):
    """particular + sum(c_i * basis_i) for c in itertools.product order."""
    return [
        tuple((p + sum(c * b[i] for c, b in zip(combo, basis))) % q
              for i, p in enumerate(particular))
        for combo in product(range(q), repeat=len(basis))
    ]


def test_iter_solutions_mod_follows_product_order():
    cases = [
        (3, [[1, 1, 0, 2], [0, 2, 1, 1]], [1, 2], 4, 2),  # nullity 2
        (3, [[1, 2], [0, 1]], [1, 1], 2, 0),  # nullity 0: one solution
        (5, [[1, 3, 0, 4, 2]], [4], 5, 4),  # nullity 4, several carries per step
    ]
    for q, rows, rhs, nvars, nullity in cases:
        particular, basis = solve_mod(rows, rhs, q)
        assert len(basis) == nullity
        solutions = list(iter_solutions_mod(rows, rhs, nvars, q))
        assert solutions == _product_order(particular, basis, q)
        assert len(set(solutions)) == q**nullity
        for x in solutions:
            assert all(sum(a * b for a, b in zip(row, x)) % q == c for row, c in zip(rows, rhs))


def test_iter_solutions_mod_inconsistent_and_no_rows():
    assert list(iter_solutions_mod([[1, 1], [2, 2]], [0, 1], 2, 3)) == []
    assert list(iter_solutions_mod([], [], 2, 3)) == list(product(range(3), repeat=2))
    assert list(iter_solutions_mod([], [], 0, 3)) == [()]
