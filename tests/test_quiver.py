"""Quiver core: validation, quotients, tree extensions, windings."""

import random

import pytest

from conftest import random_winding
from quiver_schubert.quiver import (
    Arrow,
    Quiver,
    compose,
    difference_of,
    full_subquiver,
    identity_morphism,
    is_strictly_ordered,
    is_tree,
    is_tree_extension,
    is_winding,
    morphism,
    quiver,
    quiver_from_json,
    quiver_to_json,
    quotient_by,
    subquiver,
    validate,
)
from quiver_schubert.catalog import catalog
from quiver_schubert.representation import reorder_basis


def kronecker():
    return quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def test_validate_kronecker_ok():
    assert validate(kronecker()) == []


def test_validate_dangling_endpoint():
    q = quiver(["1"], [("a", "1", "2")])
    problems = validate(q)
    assert any("dangling endpoint" in p for p in problems)


def test_validate_one_loop_ok():
    q = quiver(["p"], [("a", "p", "p")])
    assert validate(q) == []


def test_validate_duplicates():
    q = Quiver(("1", "1"), (Arrow("a", "1", "1"), Arrow("a", "1", "1")))
    problems = validate(q)
    assert any("duplicate vertex" in p for p in problems)
    assert any("duplicate arrow" in p for p in problems)


def tree_4_5_1():
    return quiver(["1", "2", "3", "4"], [("a1", "2", "1"), ("a2", "4", "3"), ("g", "2", "3")])


def test_quotient_contracts_to_path():
    t = tree_4_5_1()
    s = subquiver(t, ["1"])
    q = quotient_by(t, s)
    assert len(q.vertices) == 4
    assert len(q.arrows) == 3
    assert is_tree(q)
    degrees = {}
    for a in q.arrows:
        degrees[a.src] = degrees.get(a.src, 0) + 1
        degrees[a.tgt] = degrees.get(a.tgt, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2, 2]  # path graph


def test_quotient_full_collapse():
    t = tree_4_5_1()
    q = quotient_by(t, full_subquiver(t, t.vertices))
    assert len(q.vertices) == 1
    assert q.arrows == ()


def test_quotient_kronecker_not_tree():
    t = kronecker()
    s = subquiver(t, ["1"])
    q = quotient_by(t, s)
    assert len(q.arrows) == 2
    assert not is_tree(q)


def test_tree_extension_examples():
    t = tree_4_5_1()
    assert is_tree_extension(t, subquiver(t, ["1"]))
    t2 = catalog("ex_4_5_2").upstairs.quiver
    assert is_tree_extension(t2, subquiver(t2, ["1", "2", "3"]))
    assert not is_tree_extension(kronecker(), subquiver(kronecker(), ["1"]))


def test_tree_check_matches_edge_count():
    # connected + acyclic must agree with #edges == #vertices - 1 + connected
    import random

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(n)]
        arrows = [
            (f"a{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(0, 7))
        ]
        q = quiver(verts, arrows)
        connected = _connected(q)
        expected = connected and len(q.arrows) == len(q.vertices) - 1
        assert is_tree(q) == expected


def _connected(q):
    if not q.vertices:
        return False
    adj = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.src].add(a.tgt)
        adj[a.tgt].add(a.src)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


def _is_tree_by_union_find(q):
    """Reference: connected and acyclic, by merging the ends of each arrow in turn."""
    if not q.vertices:
        return False
    root = {v: v for v in q.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a in q.arrows:
        x, y = find(a.src), find(a.tgt)
        if x == y:  # a loop, a parallel arrow or a longer cycle
            return False
        root[x] = y
    return len({find(v) for v in q.vertices}) == 1


def test_tree_predicates_match_union_find_on_random_extensions():
    import random

    rng = random.Random(17)
    seen = {"empty S": 0, "full S": 0, "T-S arrow inside S": 0, "loop": 0, "parallel": 0}
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(n)]
        arrows = [
            (f"a{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(0, 7))
        ]
        t = quiver(verts, arrows)
        mode = rng.randrange(4)
        sv = [] if mode == 0 else verts if mode == 1 else [v for v in verts if rng.random() < 0.5]
        inside = [a.name for a in t.arrows if a.src in sv and a.tgt in sv]
        s = subquiver(t, sv, [a for a in inside if rng.random() < 0.6])
        expected = _is_tree_by_union_find(quotient_by(t, s))
        assert is_tree_extension(t, s) == expected, (t, s)
        assert is_tree(t) == _is_tree_by_union_find(t), t
        verdicts.add(expected)
        seen["empty S"] += not sv
        seen["full S"] += len(sv) == n
        seen["T-S arrow inside S"] += any(a not in s.arrows for a in inside)
        seen["loop"] += any(a.src == a.tgt for a in t.arrows)
        seen["parallel"] += len({frozenset((a.src, a.tgt)) for a in t.arrows}) < len(t.arrows)
    assert verdicts == {True, False}
    assert min(seen.values()) > 100, seen


def test_difference_covers_arrows():
    import random

    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        verts = [f"v{i}" for i in range(n)]
        arrows = [
            (f"a{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(0, 6))
        ]
        q = quiver(verts, arrows)
        sv = [v for v in verts if rng.random() < 0.5]
        candidates = [a.name for a in q.arrows if a.src in sv and a.tgt in sv]
        sa = [a for a in candidates if rng.random() < 0.7]
        s = subquiver(q, sv, sa)
        d = difference_of(q, s)
        for a in q.arrows:
            assert (a.name in s.arrows) != (a.name in d.arrows)
        assert set(verts) <= s.vertices | d.vertices


def test_winding_examples():
    e = catalog("ex_4_5_1")
    assert is_winding(e.morphism)
    assert is_winding(identity_morphism(kronecker()))
    fold = morphism(
        kronecker(),
        quiver(["1", "2"], [("c", "1", "2")]),
        {"1": "1", "2": "2"},
        {"a": "c", "b": "c"},
    )
    assert not is_winding(fold)  # parallel arrows share source and target


def test_strictly_ordered_examples():
    e = catalog("ex_4_5_1")
    f = e.morphism
    assert is_strictly_ordered(f, {"1": 0, "2": 1, "3": 2, "4": 3})
    assert not is_strictly_ordered(f, {"1": 0, "4": 1, "3": 2, "2": 3})
    assert is_strictly_ordered(identity_morphism(kronecker()), {"1": 0, "2": 1})


def test_strictly_ordered_needs_total_order():
    e = catalog("ex_4_5_1")
    with pytest.raises(ValueError):
        is_strictly_ordered(e.morphism, {"1": 0, "2": 1})


def _strictly_ordered_all_pairs(f, vertex_key):
    """The definition: any two arrows of a fibre order their sources and targets alike, strictly."""
    by_image = {}
    for a in f.domain.arrows:
        by_image.setdefault(f.arrow_map[a.name], []).append(a)
    for fibre in by_image.values():
        for v in {a.src for a in fibre} | {a.tgt for a in fibre}:
            if v not in vertex_key:
                raise ValueError(f"vertex {v!r} in a fibre is not ordered")
        for i, a in enumerate(fibre):
            for b in fibre[i + 1 :]:
                ds = vertex_key[a.src] - vertex_key[b.src]
                dt = vertex_key[a.tgt] - vertex_key[b.tgt]
                if ds == 0 or dt == 0 or (ds < 0) != (dt < 0):
                    return False
    return True


def _ordered_verdict(check, f, vertex_key):
    try:
        return check(f, vertex_key)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _winding_keys():
    """(winding, vertex key) pairs: catalog windings in basis order and reversed, then seeded windings."""
    specs = ["ex_4_5_1", "ex_4_5_2", "ex_4_5_5", "kronecker_preprojective(200)"]
    specs += [f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in range(1, 13)]
    for spec in specs:
        entry = catalog(spec)
        up = entry.upstairs
        for m in (up, reorder_basis(up, list(reversed(up.basis.order)))):
            yield entry.morphism, m.basis.vertex_key(m.quiver.vertices)
    for seed in range(300):
        f = random_winding(seed)
        rng = random.Random(seed)
        vertices = list(f.domain.vertices)
        rng.shuffle(vertices)
        yield f, {v: i for i, v in enumerate(vertices)}
        yield f, {v: rng.randint(0, 2) for v in vertices}  # ties
        yield f, {v: i for i, v in enumerate(vertices[1:])}  # one vertex unordered


def test_strictly_ordered_matches_the_all_pairs_definition():
    verdicts = []
    for f, key in _winding_keys():
        verdict = _ordered_verdict(is_strictly_ordered, f, key)
        assert verdict == _ordered_verdict(_strictly_ordered_all_pairs, f, key)
        verdicts.append(verdict if isinstance(verdict, bool) else verdict[0])
    # every outcome is reached many times
    assert min(verdicts.count(v) for v in (True, False, "ValueError")) > 20


def test_winding_composition_random():
    for seed in range(60):
        f = random_winding(seed)
        assert is_winding(f)
        g = random_winding(seed + 1000, domain=f.codomain)
        assert is_winding(g)
        gf = compose(g, f)
        assert gf.validate() == []
        assert is_winding(gf)
        assert is_winding(compose(identity_morphism(f.codomain), f))


def test_json_round_trip_byte_stable():
    q = tree_4_5_1()
    text = quiver_to_json(q)
    again = quiver_to_json(quiver_from_json(text))
    assert text == again


def test_morphism_validates_both_quivers():
    k = kronecker()
    maps = ({"1": "1", "2": "2"}, {"a": "a", "b": "b"})
    assert morphism(k, k, *maps).validate() == []
    doubled = Quiver(("1", "2", "2"), k.arrows + (Arrow("a", "1", "2"),))
    with pytest.raises(ValueError) as info:
        morphism(k, doubled, *maps)
    assert "codomain: duplicate vertex id '2'" in str(info.value)
    assert "codomain: duplicate arrow id 'a'" in str(info.value)
    dangling = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "9")])
    with pytest.raises(ValueError, match="domain: dangling endpoint: arrow 'b' target '9'"):
        morphism(dangling, k, *maps)
