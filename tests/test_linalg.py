"""Linear algebra over F_q: the order in which solution sets are enumerated, ranks without solving, and interpolation."""

import random
from itertools import product

from conftest import fraction_lagrange_interpolate, rank_mod
from quiver_schubert.linalg import iter_solutions_mod, lagrange_interpolate, solve_mod


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


def _satisfies(rows, rhs, x, q):
    return all(sum(a * b for a, b in zip(row, x)) % q == c % q for row, c in zip(rows, rhs))


def _restriction_cases(rng):
    """(kind, q, A, b, C, d, nvars): random systems, each kind of restriction drawn for every q."""
    for q in (2, 3, 5, 7):
        for _ in range(60):
            nvars = rng.randint(0, 5 if q < 5 else 4)

            def rows(n):
                return [[rng.randrange(-q, 2 * q) for _ in range(nvars)] for _ in range(n)]

            a = rows(rng.randint(1, 3))
            b = [rng.randrange(q) for _ in a]
            c = rows(rng.randint(1, 3))
            d = [rng.randrange(q) for _ in c]
            yield "random", q, a, b, c, d, nvars
            yield "no own rows", q, [], [], c, d, nvars
            yield "zero extra rows", q, a, b, [], [], nvars
            if nvars:
                # A inconsistent: a zero row with a nonzero right-hand side
                yield "inconsistent A", q, a + [[0] * nvars], b + [1], c, d, nvars
                yield "inconsistent C", q, a, b, c + [[0] * nvars], d + [1], nvars
                # C dependent on A: a combination of A's rows, consistent with it
                mix = [rng.randrange(q) for _ in a]
                row = [sum(m * r[i] for m, r in zip(mix, a)) for i in range(nvars)]
                yield "C dependent on A", q, a, b, c + [row], d + [sum(m * v for m, v in zip(mix, b))], nvars


def test_restricted_solutions_are_the_subsequence_of_the_unrestricted_stream():
    """With a second system C x = d, iter_solutions_mod yields exactly the solutions of both, in the unrestricted order."""
    rng = random.Random(18)
    kinds = {}
    for kind, q, a, b, c, d, nvars in _restriction_cases(rng):
        unrestricted = list(iter_solutions_mod(a, b, nvars, q))
        restricted = list(iter_solutions_mod(a, b, nvars, q, c, d))
        assert restricted == [x for x in unrestricted if _satisfies(c, d, x, q)], (kind, q, a, b, c, d)
        kinds[kind] = kinds.get(kind, 0) + (len(restricted) > 0)
    # every kind ran, and every kind that can have points had some
    assert set(kinds) == {"random", "no own rows", "zero extra rows", "inconsistent A", "inconsistent C", "C dependent on A"}
    assert kinds["inconsistent A"] == kinds["inconsistent C"] == 0
    assert all(kinds[k] > 0 for k in ("random", "no own rows", "zero extra rows", "C dependent on A"))


def test_second_system_is_eliminated_after_the_first_from_the_right():
    """solve_mod pivots C, reduced by A, on the rightmost column that A leaves free."""
    # x0 + x2 = 1 leaves x1, x2 free; x1 + x2 = 0 then pivots on x2, so x1 stays free
    particular, basis = solve_mod([[1, 0, 1]], [1], 3, [[0, 1, 1]], [0])
    assert particular == (1, 0, 0) and basis == [(1, 1, 2)]
    assert list(iter_solutions_mod([[1, 0, 1]], [1], 3, 3, [[0, 1, 1]], [0])) == [(1, 0, 0), (2, 1, 2), (0, 2, 1)]
    assert solve_mod([], [], 3, [[1, 1]], [1]) == ((0, 1), [(1, 2)])  # no own rows: the pivot is x1


def _rank_cases(rng):
    """(kind, q, A, b, nvars): seeded systems of each kind that rank_mod must read, for every q."""
    for q in (2, 3, 5, 7, 11, 13, 17):
        for _ in range(40):
            nvars = rng.randint(1, 5)

            def rows(n):
                return [[rng.randrange(-q, 2 * q) for _ in range(nvars)] for _ in range(n)]

            a = rows(rng.randint(1, nvars))
            b = [rng.randrange(-q, 2 * q) for _ in a]
            yield "random", q, a, b, nvars
            # rank deficient and consistent: a combination of the rows, with the same combination of b
            mix = [rng.randrange(q) for _ in a]
            row = [sum(m * r[i] for m, r in zip(mix, a)) for i in range(nvars)]
            yield "rank deficient", q, a + [row], b + [sum(m * v for m, v in zip(mix, b))], nvars
            # the same row with a right-hand side off by one: inconsistent
            yield "inconsistent", q, a + [row], b + [sum(m * v for m, v in zip(mix, b)) + 1], nvars
            # rows that vanish mod q, with and without a right-hand side
            zero = [q * rng.randrange(-2, 3) for _ in range(nvars)]
            yield "zero rows", q, [zero] + a + [[0] * nvars], [0] + b + [q], nvars
            yield "zero row, nonzero rhs", q, a + [zero], b + [rng.randrange(1, q)], nvars
            tall = rows(nvars + rng.randint(1, 3))
            yield "more rows than columns", q, tall, [rng.randrange(q) for _ in tall], nvars
        yield "nvars = 0", q, [[]], [0], 0
        yield "nvars = 0, nonzero rhs", q, [[], []], [0, 1], 0
        yield "no rows", q, [], [], 0


def test_rank_agrees_with_solve_mod_on_consistency_and_nullity():
    """The reference rank_mod is None exactly when solve_mod finds no solution, and nvars - rank is the nullity len(basis)."""
    rng = random.Random(25)
    seen = {}
    for kind, q, a, b, nvars in _rank_cases(rng):
        rank = rank_mod(a, b, q)
        solved = solve_mod(a, b, q)
        assert (rank is None) == (solved is None), (kind, q, a, b)
        if solved is not None:
            assert nvars - rank == len(solved[1]), (kind, q, a, b)
        outcomes = seen.setdefault(kind, set())
        outcomes.add(rank is None)
    assert {k for k, v in seen.items() if v == {True}} == {"inconsistent", "zero row, nonzero rhs", "nvars = 0, nonzero rhs"}
    assert all(False in seen[k] for k in ("random", "rank deficient", "zero rows", "nvars = 0", "no rows"))
    assert seen["more rows than columns"] == {True, False}



def test_integer_interpolation_agrees_with_fraction_interpolation():
    """lagrange_interpolate, in ints over one common denominator, gives the coefficients of the Fraction reference.

    Seeded sample sets of 0 to 12 distinct points, at primes as the
    counting polynomial takes them and at arbitrary integers, some of
    them negative, with zero, negative and large totals.
    """
    rng = random.Random(34)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    kinds = set()
    for n in range(13):
        for _ in range(40):
            xs = rng.sample(primes, n) if rng.random() < 0.5 else rng.sample(range(-40, 60), n)
            kind = rng.choice(["zero", "negative", "large", "small"])
            kinds.add(kind)

            def total():
                return {
                    "zero": 0,
                    "negative": -rng.randrange(1, 10**6),
                    "large": rng.randrange(-(10**40), 10**40),
                    "small": rng.randrange(-5, 6),
                }[kind]

            points = [(x, total()) for x in xs]
            assert lagrange_interpolate(points) == fraction_lagrange_interpolate(points), points
    assert kinds == {"zero", "negative", "large", "small"}
    assert lagrange_interpolate([(2, 7), (3, 13), (5, 31)]) == (1, 1, 1)  # x^2 + x + 1
    assert lagrange_interpolate([]) == () and lagrange_interpolate([(3, -4)]) == (-4,)
