"""Pinned outputs of the structural layers: cell equations and Hypothesis (H).

The digests were taken from the dense assembly (products of matrices of
polynomials, one per arrow, t, s and fibre arrow) and from the winding
context that re-sorted a fibre on every epsilon, which the sparse
assembly and the per-winding tables replaced.
"""

import hashlib
import json

import pytest

from quiver_schubert.catalog import catalog
from quiver_schubert.hypothesis_h import WindingContext, check_hypothesis_h, classify_triple
from quiver_schubert.quiver import quiver_to_json, subquiver
from quiver_schubert.representation import (
    OrderedBasis,
    Representation,
    direct_sum,
    push_forward,
    reorder_basis,
    representation,
    representation_to_json,
    restrict,
)
from quiver_schubert.schubert import PreconditionError, cell_index, enumerate_cells, generate_equations
from conftest import small_winding_cells
from test_chart_search import random_branching_cycle

# SHA-256 of the ordered `to_json()` lines of every cell, with fibred_via=None
# and, for winding entries, through the winding: (cells, plain, winding).
PINNED_EQUATIONS = {
    "kronecker_preprojective(1)": (1, "036a7306313cad06fdc18fae8e04347ee26719307291551ffe54c9ab731b86fa", "036a7306313cad06fdc18fae8e04347ee26719307291551ffe54c9ab731b86fa"),
    "kronecker_preprojective(2)": (6, "ff7127bc1ff4314ed65b2a65ab7ecbb8ac98bb5195e01699c4641b9a92ae9f75", "e46ea64db5c389064283eecc6d571244e096235a0f34b1d114428e310d3a6281"),
    "kronecker_preprojective(3)": (18, "1396de39f4ee798ddc4718a93a8492a5cf68a2d31f8232032ac6a21b36129518", "0121583283204900467318fab3eb752ecfce8fb8dfa670601679d1693c0347e5"),
    "kronecker_preprojective(4)": (40, "602f591e26e3944fa3a14664bb3e15d8ebef21aec6904f367a02ab87327cf517", "33eee6ba3f2dbf6665593817757fdd97750b619994411b8801565d20a30f33a5"),
    "kronecker_preprojective(5)": (75, "9b90a5a93db917b3bd375e872986ea6859199dc17da3341b492899bcebb57556", "d80bdf011670cfb6eb4d91364b2c6f80d730212cff1d7a94b0c112a4677f09ea"),
    "kronecker_preprojective(6)": (126, "bf8caffe78c84f2a57d348a3a01664e2cda7cfddd512e2969e80eaba13a2a9a5", "fd7c9e1599ff9fec7c203cd00dba3d60467a9f62bc5b15a4c0f8136af92a84e1"),
    "kronecker_preinjective(1)": (2, "602739cbb5234227f957b36558da8eff456051ce82f92bbfa54ef9d7834440b8", "c82e3e15b924c92493a145836e5fb4c2ef126f9e277164440ee6a8df67102efd"),
    "kronecker_preinjective(2)": (6, "0fe54de80bb5a486e58c575ce15088b7c3e68c297fb2018504fe14ce4eaafe54", "4d0092c2e18dd74339487ede039c510d173b9e515f079f7371138e92816043e0"),
    "kronecker_preinjective(3)": (12, "46f8867ec796c5aee60802289a25be5a3179a3a14f4e0f62f616e2e5dbfb9ad5", "901500670c45da16c860f77f60c635b708f28a21a37b10eac3ee65c22fb96aeb"),
    "kronecker_preinjective(4)": (20, "937e09b75f60d52bcb0e8206817494004965160b0bdb74b5af8eb04cf89da273", "e4a82eb9655af80da31c7aa4e93955123a3da5b2f9886e93f9c36582534b9f7b"),
    "kronecker_preinjective(5)": (30, "4c6b5df571358ce497b9a580e21e6b45aa69ee73b30ddc9760f56fc901fb12d1", "caed4935f2e4d5d95fd63ac07856943aaa5cfd5dee1d43b8082bd9a5014c2b2d"),
    "kronecker_preinjective(6)": (42, "3fd26fef04cd439c806609c32509a904e31c3ffec1370d61199627bbc84d78aa", "3642cc6a71736b06b9af689f5da8e9fe0c3aa2b68f39b9a546e14d51854ba651"),
    "ex_4_5_1": (4, "23ee53735d05619676747d757aa693f4075502c754e326a8539b8019d2372624", "a6b0ea9dd8bde122fe202cec4085eb99fadc42c5c1a70dc6b6b1f60f64e0badd"),
    "ex_4_5_2": (9, "e1048e5c9a100056fb45888bdd7b68f17bb11f29e3433192d114456d0532292a", "3bc6ed186f8293dbb6e784ba8e014264b1ff666e00fc7e2fae50d9c5b9b16e16"),
    "ex_4_5_5": (112, "65d8b563d7802dba4378285c9f9152df3a8b09de6dd892b514c736447029b6fc", "6eba80d63991dd373bb343a697231c74c3db011da997b0dd5e36619ff5fa91e9"),
    "flag(4;1,2,3)": (96, "760ef502e7a86f43a4f214ccd939407623c8e2b754b83c95dda0d9f01d1487f6", None),
    "degenerate_flag(2)": (9, "244b6d697c43307d5fa7a091de1a23c2205b78561454c611ebae6bebdc33910e", None),
    "degenerate_flag(3)": (96, "9a0123dbf14869b9fc2a5202820db0ded96bd52f13b41a0d39d414774ea16345", None),
    "forest_block(14,10)": (18, "2d1f2fcd83805956d9279902d94dc5769036bb21c010f3815fa682a74ed4e5c5", None),
    "forest_block(24,10)": (27, "af57e47005d0c4711874b59b67d9493ef2dd57f5db1f18b5d7a971b0c2537514", None),
    "forest_block(27,10)": (27, "08e316208204886a16a8b855b7bdc2a4b2f28d6b0bd920ed545e74b0f27d3316", None),
}

# Same digest over every cell of the seeded modules of test_chart_search:
# matrix entries up to 2, oriented cycles, and in seeds 0 and 9 loops that
# give w_i^2 terms.
PINNED_CYCLE_EQUATIONS = {
    0: "2e217205c0caae5c82a55c953b6b032ba869babfa1870fb5bdc9b3447da0c6b9",
    1: "3e0d0afb10451781bd1f36850ae0d71f5b70388af1ccd3c8ef4eb2c1472a8ac8",
    2: "a0317360b0c4e8ad62852d6092dc8baa67912aa81e9adfe609085cf6411c9f4b",
    3: "eae5b06dc9535e278883276ff8728ebe2e5b0dc4afc3414b72c9abbc96c17d25",
    4: "ea3c4a30f14965a92cd331dd4eb0b0e1404edcc593f82b3d30dec3b5e5c5300e",
    5: "2bbb57fb3d48ccc9b7c5b3800daf5ef63e2663598758a6d69b861eded10cf92f",
    6: "ce1cfbb3563c1739d40a48b88bb8e1740ffcfe5896c865b6ab3eb9198ba9b840",
    7: "62400314021b39f1d196f73e4a44d85955a038ca3a1db88416625cb1840d3a6e",
    8: "1e1cc47b33ba6410e76345af6f2ee15f280050503a7cc94be8ac4db03f742fa2",
    9: "60dccb6d63b5ef8398590c6773ff9185a48e2a614a43cac0d86cb4b70fbdc43f",
}
# Same digest over the cells of at most 5 variables of random_winding_module
# for seeds 0-39, in seed order, each through its winding: codomain loops,
# fibres of several arrows, empty blocks, shuffled bases, negative entries.
PINNED_WINDING_EQUATIONS = "dbff14757085c8a1b493d29bb0a770232bdc988aff059b003e74803c9fe9dab0"

# Same digest at benchmark scale, one stream per entry: the cells of
# kronecker_preprojective(12) through its winding and those of
# degenerate_flag(4) through the identity winding.
PINNED_LARGE_EQUATIONS = {
    "kronecker_preprojective(12)": (936, "771d127d04681eff415937fc9b5b69dddf8eb9f428d728d71ab2a999d42590ba"),
    "degenerate_flag(4)": (2500, "4a800d7f83b27befb604ce04e226b93287d790b5b62e3d8945479c01e73a9bc6"),
}

# SHA-256 of `_record` lines of the full HypothesisResult: per family over
# n = 1..40 in order, and per single entry.
PINNED_HYPOTHESIS = {
    "kronecker_preprojective": "87dc7ade207ecb727ab8cc772bb0f94d574a8ca1d61d763ac9db077620ee403f",
    "kronecker_preinjective": "1ed35ba1937cedac2c0a71b15f74d100570b1d12f671fe62cbbafd3b4b5d8888",
    "ex_4_5_1": "3e4a01e13cb9275f505e7d06a430e136bb8730e98497b8f167008c2597ea6597",
    "ex_4_5_2": "626221074bb98124d47774c1bd9aa071b0cc3cd789bbc0501354d9463a84200a",
    "ex_4_5_5": "a6b1aee2477d4011901c86b3bc65617f826da5a1c22a922828d4d8ef5e0a54a5",
}

WINDINGS = ["ex_4_5_1", "ex_4_5_2", "ex_4_5_5"] + [
    f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in (1, 2, 3, 7)
]


def _stream(rep, betas, f) -> str:
    h = hashlib.sha256()
    for beta in betas:
        h.update(generate_equations(rep, beta, fibred_via=f).to_json().encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("spec", sorted(PINNED_EQUATIONS))
def test_equation_streams_are_pinned(spec):
    cells, plain, winding = PINNED_EQUATIONS[spec]
    entry = catalog(spec)
    rep = entry.representation
    source = entry.upstairs if entry.upstairs is not None else rep
    # the cells of F_*M re-indexed over the upstairs basis, as `qs equations` does
    betas = [
        cell_index(source.basis, c.elements)
        for c in enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
    ]
    assert len(betas) == cells
    assert _stream(source, betas, None) == plain
    if winding is not None:
        assert _stream(source, betas, entry.morphism) == winding


@pytest.mark.parametrize("spec", sorted(PINNED_LARGE_EQUATIONS))
def test_equation_streams_are_pinned_at_benchmark_scale(spec):
    cells, digest = PINNED_LARGE_EQUATIONS[spec]
    entry = catalog(spec)
    rep = entry.representation
    source = entry.upstairs if entry.upstairs is not None else rep
    betas = [
        cell_index(source.basis, c.elements)
        for c in enumerate_cells(rep.basis, dict(entry.dim_vector), rep.quiver.vertices)
    ]
    assert len(betas) == cells
    assert _stream(source, betas, entry.morphism) == digest


def test_equation_streams_are_pinned_on_cycles_and_loops():
    for seed, digest in PINNED_CYCLE_EQUATIONS.items():
        rep, e = random_branching_cycle(seed)
        assert _stream(rep, enumerate_cells(rep.basis, e, rep.quiver.vertices), None) == digest, seed


def test_equation_streams_are_pinned_on_random_windings():
    h = hashlib.sha256()
    for seed in range(40):
        for _f, _pushed, _elems, system in small_winding_cells(seed):
            h.update(system.to_json().encode() + b"\n")
    assert h.hexdigest() == PINNED_WINDING_EQUATIONS

def _record(result) -> str:
    return json.dumps([
        result.passed,
        result.reason,
        list(result.pair) if result.pair else None,
        [[list(tr.triple), tr.type.value] for tr in result.triples],
        [[list(pair), list(tr.triple), tr.type.value] for pair, tr in result.exceptions],
        list(result.notes),
    ])


def _check(spec):
    entry = catalog(spec)
    return check_hypothesis_h(entry.upstairs, entry.subquiver, entry.morphism)


def test_hypothesis_results_are_pinned():
    for family in ("kronecker_preprojective", "kronecker_preinjective"):
        h = hashlib.sha256()
        for n in range(1, 41):
            h.update(_record(_check(f"{family}({n})")).encode() + b"\n")
        assert h.hexdigest() == PINNED_HYPOTHESIS[family], family
    for spec in ("ex_4_5_1", "ex_4_5_2", "ex_4_5_5"):
        digest = hashlib.sha256(_record(_check(spec)).encode() + b"\n").hexdigest()
        assert digest == PINNED_HYPOTHESIS[spec], spec


@pytest.mark.parametrize("spec", WINDINGS)
def test_epsilon_matches_its_definition(spec):
    entry = catalog(spec)
    rep, f = entry.upstairs, entry.morphism
    ctx = WindingContext(rep, entry.subquiver, f)
    key = rep.basis.vertex_key(rep.quiver.vertices)
    for p in rep.quiver.vertices:
        fibre = [v for v in rep.quiver.vertices if f.vertex_map[v] == f.vertex_map[p]]
        for p_prime in rep.quiver.vertices:
            expected = sum(1 for v in fibre if key[p] <= key[v] < key[p_prime])
            assert ctx.epsilon(p, p_prime) == expected, (p, p_prime)


def test_empty_block_raises_only_for_its_own_fibre():
    # kronecker_preprojective(2) with vertex 5 (over codomain vertex 2) left empty
    entry = catalog("kronecker_preprojective(2)")
    t, f = entry.upstairs.quiver, entry.morphism
    order = ("1", "2", "3", "4")
    mats = {a.name: [[1]] for a in t.arrows if "5" not in (a.src, a.tgt)}
    mats.update({a.name: [] for a in t.arrows if a.tgt == "5"})
    rep = representation(t, OrderedBasis(order, {b: b for b in order}), mats)
    ctx = WindingContext(rep, subquiver(t, ["1"]), f)
    assert ctx.epsilon("2", "4") == 1
    assert [a.name for a in ctx.fibre_arrows("gt")] == ["g1", "g2"]  # sorted by source
    with pytest.raises(PreconditionError, match="'5' has an empty basis block"):
        ctx.epsilon("1", "3")
    with pytest.raises(PreconditionError, match="'5' has an empty basis block"):
        ctx.fibre("2")


# SHA-256 of the ordered "spec (atilde,t,s) type" lines of every triple of
# these windings, taken from the two separate fibre walks (one typing the
# triple, one listing its equation's block pairs) that one walk replaced.
# T0 and T1 triples never reach a verdict, so the HypothesisResult digests
# above do not see them.
CLASSIFIED_WINDINGS = [
    f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in range(1, 9)
] + ["ex_4_5_1", "ex_4_5_2", "ex_4_5_5"]
PINNED_CLASSIFICATION = "335489faf649cf47d386d9f8263db2f1510bd0c90e8311e4859d833476d24c0a"


def test_triple_classification_is_pinned():
    h = hashlib.sha256()
    for spec in CLASSIFIED_WINDINGS:
        entry = catalog(spec)
        ctx = WindingContext(entry.upstairs, entry.subquiver, entry.morphism)
        for at in entry.morphism.codomain.arrows:
            for t in ctx.fibre(at.tgt):
                for s in ctx.fibre(at.src):
                    typ = classify_triple(ctx, at.name, t, s)
                    h.update(f"{spec} ({at.name},{t},{s}) {typ.value}\n".encode())
    assert h.hexdigest() == PINNED_CLASSIFICATION


# Every family of the catalog at a few parameters, forest_block at 30 seeds.
PINNED_CATALOG_SPECS = [
    "one_vertex(0)", "one_vertex(1)", "one_vertex(4)",
    "flag(1;1)", "flag(3;1,2)", "flag(2;1,1,2)",
    "one_loop(1,0)", "one_loop(3,0)", "one_loop(3,2)",
    "two_lines",
    "kronecker_regular(1,0)", "kronecker_regular(3,2)",
    "ex_4_5_1", "ex_4_5_2", "ex_4_5_5",
    "degenerate_flag(1)", "degenerate_flag(2)", "degenerate_flag(4)",
    "degenerate_flag_pi(1)", "degenerate_flag_pi(2)", "degenerate_flag_pi(4)",
] + [
    f"kronecker_{kind}({n})" for kind in ("preprojective", "preinjective") for n in (1, 2, 3, 10, 40)
] + [f"forest_block({seed},10)" for seed in range(30)]

# SHA-256 over the specs above of one line each: the module, the upstairs
# module, S, the morphism and e as JSON, the restriction to S, and for
# windings the upstairs module reversed and pushed forward and the direct
# sums of both modules with a renamed copy (appended and interleaved).
# Taken from the three separate assembly loops of push_forward,
# direct_sum and reorder_basis and the per-entry catalog builders.
# Re-pinned once since, when entries of size 0 began to lower e to the
# ranks: of all these lines only one_vertex(0)'s dim_vector changed, 1 -> 0.
PINNED_CATALOG = "7dc107475b4785a19aea7c998243be1b8c6fafe9393f98f7eebdfdebdd0cb709"


def _renamed(rep):
    """The same module with every basis id primed, so it sums with rep."""
    order = tuple(b + "'" for b in rep.basis.order)
    vertex_of = {b + "'": v for b, v in rep.basis.vertex_of.items()}
    return Representation(rep.quiver, OrderedBasis(order, vertex_of), rep.matrices)


def _sums(rep):
    copy = _renamed(rep)
    interleaved = [b for pair in zip(rep.basis.order, copy.basis.order) for b in pair]
    return [
        representation_to_json(direct_sum(rep, copy)),
        representation_to_json(direct_sum(rep, copy, interleaved)),
    ]


def _catalog_record(spec) -> str:
    entry = catalog(spec)
    rep, up, s, f = entry.representation, entry.upstairs, entry.subquiver, entry.morphism
    record = {
        "name": entry.name,
        "params": entry.params,
        "notes": entry.notes,
        "representation": representation_to_json(rep),
        "dim_vector": sorted(entry.dim_vector.items()),
        "upstairs": representation_to_json(up) if up is not None else None,
        "subquiver": [sorted(s.vertices), sorted(s.arrows)] if s is not None else None,
        "restricted": representation_to_json(restrict(up or rep, s)) if s is not None else None,
    }
    if f is not None:
        record["morphism"] = [
            quiver_to_json(f.codomain), sorted(f.vertex_map.items()), sorted(f.arrow_map.items())
        ]
        reversed_up = reorder_basis(up, list(reversed(up.basis.order)))
        record["reordered"] = representation_to_json(reversed_up)
        record["pushed"] = representation_to_json(push_forward(f, reversed_up))
        record["sums"] = _sums(up) + _sums(rep)
    return json.dumps(record, sort_keys=True)


def test_catalog_modules_are_pinned():
    h = hashlib.sha256()
    for spec in PINNED_CATALOG_SPECS:
        h.update(_catalog_record(spec).encode() + b"\n")
    assert h.hexdigest() == PINNED_CATALOG
