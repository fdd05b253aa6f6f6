"""An exact reference for the degenerate flag varieties: Betti numbers from Dellac configurations.

A Dellac configuration of size k has 2k rows and k columns, one dot in
each row and two in each column, and a dot in row i and column j only
when j <= i <= k + j.  An inversion is a pair of dots with i < i' and
j > j'.  The Poincare polynomial of `degenerate_flag(n)` is the sum of
t^(2 inv(C)) over the configurations C of size n + 1 (E. Feigin,
"Degenerate flag varieties and the median Genocchi numbers", 2011).
Nothing here solves a linear system.
"""

from quiver_schubert.catalog import catalog
from quiver_schubert.oracle import count, poincare_polynomial


def dellac_betti(n: int) -> list[int]:
    """b_d, the number of Dellac configurations of size n + 1 with d inversions, for d = 0, 1, ...

    A dynamic program over the rows, top to bottom.  Its state is the
    number of dots in each column so far, with the inversion counts of
    the partial configurations that reach it.  A dot in column j makes
    one inversion with each earlier dot in a later column.
    """
    k = n + 1
    states = {(0,) * k: {0: 1}}
    for i in range(1, 2 * k + 1):
        reached: dict = {}
        for filled, inversions in states.items():
            for j in range(max(1, i - k), min(i, k) + 1):
                if filled[j - 1] < 2:
                    after = filled[: j - 1] + (filled[j - 1] + 1,) + filled[j:]
                    more = sum(filled[j:])
                    poly = reached.setdefault(after, {})
                    for d, c in inversions.items():
                        poly[d + more] = poly.get(d + more, 0) + c
        states = reached
    (inversions,) = states.values()
    return [inversions.get(d, 0) for d in range(max(inversions) + 1)]


def test_dellac_betti_numbers_are_the_known_ones():
    assert dellac_betti(3) == [1, 3, 7, 10, 10, 6, 1]
    assert sum(dellac_betti(4)) == 295  # a normalised median Genocchi number


def test_poincare_polynomial_of_degenerate_flags_equals_the_dellac_betti_numbers():
    for n, budget in ((2, None), (3, None), (4, 10**11)):
        entry = catalog(f"degenerate_flag({n})")
        kwargs = {} if budget is None else {"budget": budget}
        report = poincare_polynomial(entry.representation, entry.dim_vector, **kwargs)
        assert report.betti == {2 * d: b for d, b in enumerate(dellac_betti(n)) if b}, n


def test_count_of_degenerate_flag_3_at_13_is_the_dellac_sum():
    """Sum of b_d 13^d = 7,363,370: a count past the default memo room, whose steps stream."""
    entry = catalog("degenerate_flag(3)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(13,), budget=10**12)
    assert report.total == sum(b * 13**d for d, b in enumerate(dellac_betti(3))) == 7363370
