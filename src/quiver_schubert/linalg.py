"""Exact linear algebra over prime fields and the rationals, and `polynomial_text`, which prints every polynomial.

Matrices are tuples of row tuples with integer entries.  All mod-q work
assumes q prime; inverses go through pow(a, -1, q).  Callers that take a
modulus from outside check it with `require_prime` first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt, lcm, prod
from typing import Iterable, Iterator, Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def is_identity(m: Matrix) -> bool:
    """Square with ones on the diagonal and zeros elsewhere, tested in place."""
    n = len(m)
    return all(
        len(row) == n and row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(m)
    )


def mat_vec_mod(a: Matrix, v: Sequence[int], q: int) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % q for row in a)


def int_det(m: Matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_mod(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    q: int,
    extra_rows: Sequence[Sequence[int]] = (),
    extra_rhs: Sequence[int] = (),
) -> tuple[Vector, list[Vector]] | None:
    """Solve A x = b over F_q, together with C x = d when `extra_rows` and `extra_rhs` give one.

    Returns (particular solution, nullspace basis), or None when the
    system is inconsistent.  Gauss-Jordan elimination takes the pivots of
    A leftmost first; those of C, reduced by A's pivot rows, follow
    rightmost first among the columns A leaves free, so each of them is a
    function of free columns to its left.  The particular solution is 0
    on the free columns and the basis has one vector per free column, in
    increasing order, 1 there and 0 on the other free columns.  Column
    order is preserved, so enumeration of the solution set is
    deterministic.
    """
    nvars = len(rows[0]) if rows else len(extra_rows[0]) if extra_rows else 0
    aug = [[x % q for x in row] + [b % q] for row, b in zip(rows, rhs)]
    if extra_rows:
        aug += [[x % q for x in row] + [d % q] for row, d in zip(extra_rows, extra_rhs)]
    pivots: list[int] = []  # pivots[i]: the pivot column of row i
    _eliminate(aug, pivots, range(nvars), len(rows), q)
    if extra_rows:
        _eliminate(aug, pivots, [c for c in range(nvars - 1, -1, -1) if c not in pivots], len(aug), q)
    for i in range(len(pivots), len(aug)):
        if aug[i][nvars]:
            return None
    particular = [0] * nvars
    for i, c in enumerate(pivots):
        particular[c] = aug[i][nvars]
    basis = []
    for f in range(nvars):
        if f in pivots:
            continue
        vec = [0] * nvars
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-aug[i][f]) % q
        basis.append(tuple(vec))
    return tuple(particular), basis


def _eliminate(aug: list[list[int]], pivots: list[int], columns: Iterable[int], end: int, q: int) -> None:
    """Gauss-Jordan steps on the rows of aug over F_q, one per column in turn that has a pivot.

    The pivot row is the first unused row before `end` that is nonzero
    in the column; it is moved to row len(pivots), scaled to 1 there and
    cleared from every other row, and the column appended to `pivots`.
    """
    for c in columns:
        r = len(pivots)
        for piv in range(r, end):
            if aug[piv][c]:
                break
        else:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, q)
        aug[r] = [(x * inv) % q for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % q for x, y in zip(aug[i], aug[r])]
        pivots.append(c)


def iter_solutions_mod(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    nvars: int,
    q: int,
    extra_rows: Sequence[Sequence[int]] = (),
    extra_rhs: Sequence[int] = (),
) -> Iterator[Vector]:
    """All solutions of A x = b over F_q, deterministically ordered.

    The solutions are particular + sum(c_i * basis_i) with the coefficient
    tuples c in `itertools.product(range(q), repeat=len(basis))` order;
    c_i is the i-th free coordinate of A, and with no rows c is x itself.
    The vector is stepped like an odometer: each coefficient change adds
    its basis vector once, and so does the wrap from q-1 to 0, since
    q * basis_i = 0 mod q.

    A second system C x = d (`extra_rows`, `extra_rhs`) restricts the
    stream to exactly its subsequence of solutions of both, and no other
    point is visited.  `solve_mod` eliminates C after A, as conditions on
    c, taking its pivots from the rightmost coefficient first, so each
    pivot coefficient depends only on free coefficients of smaller index.
    Two solutions of both then first differ at a free coefficient, and
    the same odometer over the free coefficients, in product order,
    keeps the unrestricted order.
    """
    if not rows and not extra_rows:
        for combo in product(range(q), repeat=nvars):
            yield combo
        return
    solved = solve_mod(rows, rhs, q, extra_rows, extra_rhs)
    if solved is None:
        return
    particular, basis = solved
    steps = [[(i, x) for i, x in enumerate(bvec) if x] for bvec in basis]
    vec = list(particular)
    coeffs = [0] * len(basis)
    while True:
        yield tuple(vec)
        k = len(basis) - 1
        while k >= 0:
            for i, x in steps[k]:
                vec[i] = (vec[i] + x) % q
            coeffs[k] += 1
            if coeffs[k] < q:
                break
            coeffs[k] = 0
            k -= 1
        else:
            return


def column_echelon_max_pivot(
    columns: Sequence[Sequence[int]], q: int
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Canonical generating matrix of the span of `columns` over F_q.

    Pivot convention: every column is normalised so its largest-index
    nonzero entry is 1 and that row is zero in all other columns.  The
    result is (columns sorted by pivot row, pivot rows); rank-deficient
    inputs simply yield fewer columns.  It is `_eliminate` with the
    columns as its rows, over the row indices from the last one down.
    """
    cols = [[x % q for x in col] for col in columns]
    pivots: list[int] = []
    _eliminate(cols, pivots, range(len(cols[0]) - 1, -1, -1) if cols else (), len(cols), q)
    return tuple(map(tuple, reversed(cols[: len(pivots)]))), tuple(reversed(pivots))


def gaussian_binomial(m: int, e: int, q: int) -> int:
    """Number of e-dimensional subspaces of F_q^m (0 when e is out of range)."""
    if e < 0 or e > m:
        return 0
    num = 1
    den = 1
    for i in range(e):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def primes_iter() -> Iterator[int]:
    found: list[int] = []
    n = 2
    while True:
        if all(n % p for p in found):
            found.append(n)
            yield n
        n += 1


def require_prime(q: int) -> None:
    """Raise ValueError unless q is a prime, so that F_q is a field."""
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"modulus {q} is not a prime")


def lagrange_interpolate(points: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Coefficients (ascending degree) of the interpolating polynomial.

    Built in ints over one common denominator, the lcm of the
    |prod_{j != i}(x_i - x_j)|: each basis polynomial prod_{j != i}(x - x_j)
    is the product of every (x - x_j), divided by (x - x_i) synthetically.
    The Fractions are made once, at the end.
    """
    product_all = [1]  # prod_j (x - x_j), ascending
    for xj, _ in points:
        product_all = [a - xj * b for a, b in zip([0, *product_all], [*product_all, 0])]
    denominators = [prod(xi - xj for j, (xj, _) in enumerate(points) if j != i) for i, (xi, _) in enumerate(points)]
    common = lcm(*map(abs, denominators))
    numerators = [0] * len(points)
    for (xi, yi), d in zip(points, denominators):
        scale = yi * (common // d)
        carry = 0
        for k in range(len(points), 0, -1):
            carry = product_all[k] + xi * carry  # coefficient k - 1 of prod_{j != i}(x - x_j)
            numerators[k - 1] += scale * carry
    coeffs = [Fraction(c, common) for c in numerators]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def eval_poly(coeffs: Sequence[Fraction | int], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def polynomial_text(terms: Iterable[tuple[Fraction | int, str]]) -> str:
    """The text of a sum of (coefficient, monomial text) terms in the order given, "" standing for the monomial 1.

    Zero terms drop out, a coefficient 1 or -1 on another monomial prints as its sign, and a Fraction that is not an
    integer in parentheses.  Terms are joined by " + ", or " - " before a minus sign; with none the text is "0".
    """
    parts = []
    for c, mono in terms:
        if c:
            c_str = str(c) if c.denominator == 1 else f"({c})"
            parts.append(c_str if not mono else mono if c == 1 else f"-{mono}" if c == -1 else f"{c_str}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
