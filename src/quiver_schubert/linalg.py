"""Exact linear algebra over prime fields and the rationals.

Matrices are tuples of row tuples with integer entries.  All mod-q work
assumes q prime; inverses go through pow(a, -1, q).  Callers that take a
modulus from outside check it with `require_prime` first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Iterator, Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def is_identity(m: Matrix) -> bool:
    return m == identity_matrix(len(m)) and all(len(r) == len(m) for r in m)


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
    rows: Sequence[Sequence[int]], rhs: Sequence[int], q: int
) -> tuple[Vector, list[Vector]] | None:
    """Solve A x = b over F_q.

    Returns (particular solution, nullspace basis), or None when the
    system is inconsistent.  Column order is preserved, so enumeration
    of the solution set is deterministic.
    """
    nvars = len(rows[0]) if rows else 0
    aug = [[x % q for x in row] + [rhs[i] % q] for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(nvars):
        piv = None
        for i in range(r, len(aug)):
            if aug[i][c] % q != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, q)
        aug[r] = [(x * inv) % q for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] % q != 0:
                f = aug[i][c]
                aug[i] = [(x - f * y) % q for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][nvars] % q != 0:
            return None
    particular = [0] * nvars
    for i, c in enumerate(pivots):
        particular[c] = aug[i][nvars]
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * nvars
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-aug[i][f]) % q
        basis.append(tuple(vec))
    return tuple(particular), basis


def iter_solutions_mod(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], nvars: int, q: int
) -> Iterator[Vector]:
    """All solutions of A x = b over F_q, deterministically ordered.

    The solutions are particular + sum(c_i * basis_i) with the coefficient
    tuples c in `itertools.product(range(q), repeat=len(basis))` order.
    The vector is stepped like an odometer: each coefficient change adds
    its basis vector once, and so does the wrap from q-1 to 0, since
    q * basis_i = 0 mod q.
    """
    if not rows:
        for combo in product(range(q), repeat=nvars):
            yield combo
        return
    solved = solve_mod(rows, rhs, q)
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
    inputs simply yield fewer columns.
    """
    cols = [[x % q for x in col] for col in columns]
    pivots: list[int] = []
    kept: list[list[int]] = []
    while cols:
        best = None
        best_pivot = -1
        for idx, col in enumerate(cols):
            support = [i for i, x in enumerate(col) if x % q != 0]
            if support and support[-1] > best_pivot:
                best_pivot = support[-1]
                best = idx
        if best is None:
            break
        col = cols.pop(best)
        inv = pow(col[best_pivot], -1, q)
        col = [(x * inv) % q for x in col]
        for other in cols + kept:
            f = other[best_pivot] % q
            if f:
                for i in range(len(other)):
                    other[i] = (other[i] - f * col[i]) % q
        kept.append(col)
        pivots.append(best_pivot)
    order = sorted(range(len(kept)), key=lambda i: pivots[i])
    cols_sorted = tuple(tuple(kept[i]) for i in order)
    return cols_sorted, tuple(pivots[i] for i in order)


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
    """Coefficients (ascending degree) of the interpolating polynomial."""
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


def eval_poly(coeffs: Sequence[Fraction | int], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc
