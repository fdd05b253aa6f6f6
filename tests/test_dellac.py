"""An exact reference for the degenerate flag varieties: Betti numbers from Dellac configurations.

A Dellac configuration of size k has 2k rows and k columns, one dot in
each row and two in each column, and a dot in row i and column j only
when j <= i <= k + j.  An inversion is a pair of dots with i < i' and
j > j'.  The Poincare polynomial of `degenerate_flag(n)` is the sum of
t^(2 inv(C)) over the configurations C of size n + 1 (E. Feigin,
"Degenerate flag varieties and the median Genocchi numbers", 2011).
Nothing here solves a linear system.
"""

from conftest import record_count_path_rows, record_ranks_per_cell
from quiver_schubert import oracle
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
    assert dellac_betti(5) == [1, 5, 18, 47, 103, 189, 301, 414, 495, 508, 441, 315, 175, 70, 15, 1]
    assert sum(dellac_betti(5)) == 3098
    assert dellac_betti(6) == [
        1, 6, 25, 77, 199, 440, 863, 1511, 2395, 3438, 4492, 5320, 5705, 5488, 4699, 3516, 2254, 1190, 490, 140, 21, 1
    ]
    assert sum(dellac_betti(6)) == 42271


def test_poincare_polynomial_of_degenerate_flags_equals_the_dellac_betti_numbers():
    for n, budget in ((2, None), (3, None), (4, 10**11)):
        entry = catalog(f"degenerate_flag({n})")
        kwargs = {} if budget is None else {"budget": budget}
        report = poincare_polynomial(entry.representation, entry.dim_vector, **kwargs)
        assert report.betti == {2 * d: b for d, b in enumerate(dellac_betti(n)) if b}, n


def test_count_of_degenerate_flag_3_at_13_is_the_dellac_sum():
    """Sum of b_d 13^d = 7,363,370: a count whose memos, charged for bare coordinates, fit the default room."""
    entry = catalog("degenerate_flag(3)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(13,), budget=10**12)
    assert report.total == sum(b * 13**d for d, b in enumerate(dellac_betti(3))) == 7363370


def test_count_of_degenerate_flag_3_at_17_lists_each_system_once_and_ranks_once_per_cell_and_key(monkeypatch):
    """Sum of b_d 17^d = 33,543,126, with 644 listed systems and 1,302 ranks, and memo room left at the end.

    Each step keeps one memo, keyed by the values its rows read, so every
    distinct system is listed once and stored once, and the memos fit the
    default room.  Two memos per step, one of them keyed by every earlier
    neighbour's coordinates, filled the room here and listed 36,611
    systems.  A rank is one system that the count path eliminates
    (`_arrow_rows` under a loop-free `_last_count`), once one call of
    `rank_mod` on the built rows.  The count's message into the last step
    holds each tuple of the values that step reads once, so each cell
    ranks each such tuple once; a last-step memo shared by the cells took
    639 ranks.
    """
    calls = {"iter_solutions_mod": 0}
    built = []

    def counted(name):
        inner = getattr(oracle, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(oracle, name, wrapper)

    class RecordedTables(oracle._Tables):
        def __init__(self, m):
            super().__init__(m)
            built.append(self)

    counted("iter_solutions_mod")
    ranked = record_count_path_rows(monkeypatch)
    per_cell = record_ranks_per_cell(monkeypatch, ranked)
    monkeypatch.setattr(oracle, "_Tables", RecordedTables)
    entry = catalog("degenerate_flag(3)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(17,), budget=10**13)
    assert report.total == sum(b * 17**d for d, b in enumerate(dellac_betti(3))) == 33543126
    assert (calls["iter_solutions_mod"], len(ranked)) == (644, 1302) and sum(map(len, per_cell)) == len(ranked)
    assert all(len(set(ranks)) == len(ranks) for ranks in per_cell)
    (tables,) = built
    assert tables.room > 0


def test_count_of_degenerate_flag_5_at_2_is_the_dellac_sum():
    """Sum of b_d 2^d = 3,132,699: a five-step flag, whose messages carry three steps of prefixes in each cell."""
    entry = catalog("degenerate_flag(5)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(2,), budget=10**13)
    assert report.total == sum(b * 2**d for d, b in enumerate(dellac_betti(5))) == 3132699


def test_count_of_degenerate_flag_4_at_5_is_the_dellac_sum():
    """Sum of b_d 5^d = 46,099,071, over an ambient of about 2.5 * 10^14 points."""
    entry = catalog("degenerate_flag(4)")
    (report,) = count(entry.representation, entry.dim_vector, primes=(5,), budget=10**15)
    assert report.total == sum(b * 5**d for d, b in enumerate(dellac_betti(4))) == 46099071
