import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from planar_reference import retraced_random_planar
import pytest

from surfcut import construct
from surfcut.construct import (
    add_handles,
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
from surfcut.embedding import EmbeddingError, format_embedding, genus

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


def test_random_planar_matches_the_retracing_generator():
    # a face list out of trace_faces's order would make the rng pick another face
    for n in range(3, 41):
        for deletions in range(8):
            for seed in (0, 1, 201):
                want = format_embedding(retraced_random_planar(n, deletions, seed))
                assert format_embedding(random_planar(n, deletions, seed)) == want, (n, deletions, seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(3, 60), deletions=st.integers(0, 12), seed=st.integers(0, 2**31 - 1))
def test_random_planar_matches_the_retracing_generator_on_draws(n, deletions, seed):
    want = format_embedding(retraced_random_planar(n, deletions, seed))
    assert format_embedding(random_planar(n, deletions, seed)) == want


def test_random_planar_starts_from_a_constant_triangle(monkeypatch):
    # the seed triangle and its faces are constants, not searched or traced per call
    def refuse(*args, **kwargs):
        raise AssertionError("random_planar searched or traced its seed triangle")

    monkeypatch.setattr(construct, "find_embedding", refuse)
    monkeypatch.setattr(construct, "trace_faces", refuse)
    assert genus(random_planar(12, 3, seed=5)) == 0


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


def _connected(g) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for d in g.out_darts[stack.pop()]:
            if g.heads[d] not in seen:
                seen.add(g.heads[d])
                stack.append(g.heads[d])
    return len(seen) == g.n


@pytest.mark.parametrize("n,h,m", [(60, 1, 170), (100, 1, 290), (20, 2, 51), (30, 2, 81),
                                   (20, 3, 52), (30, 3, 82), (16, 4, 41)])
def test_add_handles_raises_the_genus_by_h(n, h, m):
    # the H(n, h) ladder: h handles on random_planar(n, 5, 2), seed 7
    base = random_planar(n, 5, 2)
    g = add_handles(base, h, 7)
    assert (g.n, g.m, genus(g)) == (n, m, h)
    assert g.m == base.m + h
    assert all(u != v for u, v in zip(g.tails, g.heads))
    assert _connected(g)
    assert format_embedding(add_handles(base, h, 7)) == format_embedding(g)


def test_add_handles_keeps_the_old_darts_in_order():
    base = random_planar(12, 2, 5)
    g = add_handles(base, 2, 3)
    assert g.tails[: base.num_darts] == base.tails and g.heads[: base.num_darts] == base.heads
    assert add_handles(base, 0, 3) == base


def test_add_handles_needs_two_faces():
    with pytest.raises(ValueError, match="two distinct faces"):
        add_handles(random_tree(6, 1), 1)
    with pytest.raises(ValueError, match="two distinct faces"):
        add_handles(find_embedding(3, cycle_edges(3), 0), 2)
