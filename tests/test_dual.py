from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from graph_families import handle_rows
from test_fuzz import seeded_multigraphs

from surfcut.construct import (
    banana_edges,
    complete_edges,
    cycle_edges,
    find_embedding,
    grid_torus,
    random_planar,
)
from surfcut.dual import IntegerChain, build_dual, cut_chain, walk_coeffs
from surfcut.embedding import EmbeddedGraph, genus, trace_faces


def dual_face_vertex(g, dual):
    """Map each face of the dual to the primal vertex it surrounds."""
    dfaces = trace_faces(dual)
    out = {}
    for k, walk in enumerate(dfaces.facial_walks):
        heads = {g.heads[d] for d in walk}
        assert len(heads) == 1
        out[k] = heads.pop()
    return dfaces, out


SAMPLES = [
    find_embedding(2, banana_edges(2), 0),
    find_embedding(2, banana_edges(3), 1),
    find_embedding(4, complete_edges(4), 0),
    find_embedding(4, complete_edges(4), 1),
    find_embedding(5, complete_edges(5), 1),
    find_embedding(5, cycle_edges(5), 0),
    find_embedding(2, banana_edges(5), 2),
]


@pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}g{genus(g)}")
def test_dual_preserves_genus_and_counts(g):
    dual = build_dual(g, trace_faces(g))
    assert dual.n == trace_faces(g).face_count
    assert dual.m == g.m
    assert genus(dual) == genus(g)
    # dual faces correspond to primal vertices
    _, face_vertex = dual_face_vertex(g, dual)
    assert sorted(face_vertex.values()) == list(range(g.n))


@pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}g{genus(g)}")
def test_single_vertex_cut_is_negative_face(g):
    dual = build_dual(g, trace_faces(g))
    dfaces, face_vertex = dual_face_vertex(g, dual)
    for v in range(g.n):
        c = cut_chain(g, {v})
        k = next(k for k, vv in face_vertex.items() if vv == v)
        face = IntegerChain(walk_coeffs(dual.m, dfaces.facial_walks[k]))
        assert face.coeffs == tuple(-x for x in c.coeffs)


@pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}g{genus(g)}")
def test_double_dual_reverses_darts(g):
    dual = build_dual(g, trace_faces(g))
    dfaces, face_vertex = dual_face_vertex(g, dual)
    dd = build_dual(dual, dfaces)
    for d in range(g.num_darts):
        assert face_vertex[dd.tails[d]] == g.heads[d]
        assert face_vertex[dd.heads[d]] == g.tails[d]


def test_chain_algebra():
    a = IntegerChain((1, -2, 3))
    assert a.size == 6
    assert not a.is_zero and IntegerChain((0, 0, 0)).is_zero
    # a walk crosses edge 0 along dart 0, edge 1 twice against it, edge 2 along it
    assert IntegerChain(walk_coeffs(3, (0, 3, 3, 4))) == IntegerChain((1, -2, 1))
    assert a.dart_coeff(0) == 1 and a.dart_coeff(1) == -1
    assert a.dart_coeff(2) == -2 and a.dart_coeff(3) == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12))
def test_walk_chain_antisymmetry(coeffs):
    c = IntegerChain(tuple(coeffs))
    for d in range(2 * len(coeffs)):
        assert c.dart_coeff(d) == -c.dart_coeff(d ^ 1)


def test_cut_chain_values():
    g = find_embedding(4, complete_edges(4), 0)
    c = cut_chain(g, {0, 1})
    # edges (0,1) and (2,3) stay inside, the four cross edges leave
    assert c.coeffs[0] == 0 and c.coeffs[5] == 0
    assert c.size == 4
    assert cut_chain(g, {2, 3}).coeffs == tuple(-x for x in c.coeffs)


def test_cut_chain_rejects_trivial_sides():
    g = find_embedding(3, cycle_edges(3), 0)
    with pytest.raises(ValueError):
        cut_chain(g, set())
    with pytest.raises(ValueError):
        cut_chain(g, {0, 1, 2})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_random_planar_duals_stay_planar(seed):
    g = random_planar(6, deletions=2, seed=seed)
    dual = build_dual(g, trace_faces(g))
    assert genus(dual) == 0
    assert trace_faces(dual).face_count == g.n


def test_dual_equals_its_validated_twin(corpus_graphs):
    # build_dual skips the constructor's checks; the constructor, run here on
    # the same fields, must accept them and give an equal graph.  The graphs:
    # the corpus, random planar ones, torus grids, the handle rows and the
    # seeded genus-2 and genus-3 multigraphs
    graphs = [
        *corpus_graphs.values(),
        *(random_planar(n, d, n + d) for n in range(10, 21) for d in range(5)),
        *(grid_torus(p, q) for p in range(3, 6) for q in range(3, 6)),
        *handle_rows().values(),
        *seeded_multigraphs(2, 6, seed=2),
        *seeded_multigraphs(3, 4, seed=3),
    ]
    for g in graphs:
        dual = build_dual(g, trace_faces(g))
        # the dual of the dual starts from a graph with loops
        for h in (dual, build_dual(dual, trace_faces(dual))):
            twin = EmbeddedGraph(n=h.n, tails=h.tails, heads=h.heads, rotation=h.rotation, allow_loops=True)
            assert h == twin, (g.n, g.m)
            assert all(type(x) is tuple for x in (h.tails, h.heads, h.rotation))
