from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from surfcut.construct import (
    banana_edges,
    complete_edges,
    cycle_edges,
    find_embedding,
    random_planar,
)
from surfcut.dual import IntegerChain, build_dual, cut_chain
from surfcut.embedding import genus, trace_faces


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
        face = IntegerChain.of_walk(dual.m, dfaces.facial_walks[k])
        assert (c + face).is_zero


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
    b = IntegerChain((0, 2, -3))
    assert (a + b).coeffs == (1, 0, 0)
    assert a.size == 6
    assert not (a + b).is_zero
    assert (a + IntegerChain((-1, 2, -3))).is_zero
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
    assert (cut_chain(g, {2, 3}) + c).is_zero


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
