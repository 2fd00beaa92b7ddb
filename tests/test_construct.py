import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from surfcut.construct import (
    banana_edges,
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    find_embedding,
    grid_torus,
    prism_edges,
    random_planar,
    random_tree,
    wheel_edges,
)
from surfcut.embedding import EmbeddingError, genus

ROOT = Path(__file__).resolve().parent.parent


def test_edge_builders_have_expected_sizes():
    assert len(cycle_edges(5)) == 5
    assert len(complete_edges(5)) == 10
    assert len(complete_bipartite_edges(3, 3)) == 9
    assert len(wheel_edges(6)) == 10
    assert len(prism_edges(4)) == 12
    assert banana_edges(3) == [(0, 1)] * 3


@pytest.mark.parametrize(
    "n,edges,target",
    [
        (4, complete_edges(4), 0),
        (4, complete_edges(4), 1),
        (5, complete_edges(5), 1),
        (6, complete_bipartite_edges(3, 3), 1),
        (2, banana_edges(5), 2),
    ],
)
def test_find_embedding_hits_target(n, edges, target):
    assert genus(find_embedding(n, edges, target)) == target


def test_find_embedding_is_reproducible():
    a = find_embedding(5, complete_edges(5), 1)
    b = find_embedding(5, complete_edges(5), 1)
    assert a.rotation == b.rotation


def test_find_embedding_impossible_genus():
    # a cycle has a unique rotation system, which is planar
    with pytest.raises(EmbeddingError, match="no genus-1"):
        find_embedding(4, cycle_edges(4), 1)


def test_grid_torus():
    g = grid_torus(3, 3)
    assert g.n == 9 and g.m == 18
    assert genus(g) == 1
    with pytest.raises(ValueError):
        grid_torus(1, 4)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
def test_random_tree_is_planar(n, seed):
    g = random_tree(n, seed)
    assert g.n == n and g.m == n - 1
    assert genus(g) == 0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 12), deletions=st.integers(0, 4), seed=st.integers(0, 10**6))
def test_random_planar_stays_planar(n, deletions, seed):
    g = random_planar(n, deletions, seed)
    assert g.n == n
    assert genus(g) == 0
    assert 3 * n - 6 - deletions <= g.m <= 3 * n - 6


def test_random_planar_needs_a_triangle():
    with pytest.raises(ValueError):
        random_planar(2)


def test_corpus_regenerates_byte_for_byte():
    # the builders behind the pinned corpus must still make it exactly
    path = ROOT / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    files = make_corpus.corpus_files()
    corpus = ROOT / "corpus"
    assert sorted(files) == sorted(p.name for p in corpus.iterdir())
    for name, text in files.items():
        assert (corpus / name).read_bytes() == text.encode("utf-8"), name
