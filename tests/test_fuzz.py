"""Differential fuzzing: the solver against the brute-force oracle.

Hypothesis draws connected loopless multigraphs with up to 8 vertices and
random rotations, keeping those of genus at most 2.  The settings are
derandomized with a fixed example count, so every run checks the same
graphs.  A seeded draw of denser multigraphs embedded at genus 3 reaches
six crossing coordinates, which no corpus file has, and seeded draws with
9-10 vertices at genus 2 and 3 go past the hypothesis graphs' 8.  Planar
graphs with 17-20 vertices and a 20-vertex torus grid go past the oracle's
default cap of 16.  Handles added to planar graphs with 10-16 vertices
reach genus 1-3 on graphs larger than any `find_embedding` draw.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from surfcut.balance import density, parse_custom, quotient
from surfcut.construct import add_handles, find_embedding, from_cyclic_orders, grid_torus, random_planar
from surfcut.embedding import EmbeddingError, genus
from surfcut.oracle import brute_force_cut
from surfcut.solver import SolveContext, score_cut

PROFILES = (quotient(), density(), parse_custom("0 0\n1/4 1/3\n1/2 1/2\n"))


@st.composite
def embedded_multigraphs(draw):
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 6))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    out = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    orders = [draw(st.permutations(ds)) for ds in out]
    return from_cyclic_orders(n, edges, orders)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(embedded_multigraphs())
def test_solve_matches_oracle(g):
    assume(genus(g) <= 2)
    ctx = SolveContext(g)
    for f in PROFILES:
        got = ctx.solve(f)
        assert got.value == brute_force_cut(g, f).best.value, f.kind
        assert score_cut(g, got.S, f) == got


def seeded_multigraphs(target_genus: int, count: int, seed: int, n_range: tuple[int, int] = (3, 6)):
    """`count` connected loopless multigraphs, n in n_range and m n+2g-1 to n+2g+2, at genus g."""
    rng = random.Random(seed)
    found = []
    for _ in range(200):
        n = rng.randint(*n_range)
        m = rng.randint(n + 2 * target_genus - 1, n + 2 * target_genus + 2)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        while len(edges) < m:
            edges.append(tuple(rng.sample(range(n), 2)))
        try:
            found.append(find_embedding(n, edges, target_genus))
        except EmbeddingError:
            continue
        if len(found) == count:
            return found
    raise AssertionError(f"only {len(found)} genus-{target_genus} embeddings in 200 draws")


def check_against_oracle(graphs, target_genus: int, cap: int = 16):
    """Quotient and density solves of each graph, at its genus, against the oracle."""
    for g in graphs:
        ctx = SolveContext(g)
        assert ctx.genus == target_genus
        for f in (quotient(), density()):
            got = ctx.solve(f)
            assert got.value == brute_force_cut(g, f, cap).best.value, (g.n, g.m, f.kind)
            assert score_cut(g, got.S, f) == got


def test_genus3_solves_match_oracle():
    check_against_oracle(seeded_multigraphs(3, 8, seed=3), 3)


def test_multigraphs_past_eight_vertices_match_oracle():
    for target_genus, seed in ((2, 9), (3, 10)):
        check_against_oracle(seeded_multigraphs(target_genus, 4, seed=seed, n_range=(9, 10)), target_genus)


def test_graphs_past_sixteen_vertices_match_oracle():
    planar = [random_planar(n, d, seed=n) for n, d in ((17, 1), (18, 2), (19, 3), (20, 4))]
    check_against_oracle(planar, 0, cap=20)
    check_against_oracle([grid_torus(4, 5)], 1, cap=20)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_handle_graphs_match_oracle(h):
    graphs = [add_handles(random_planar(n, 5, n), h, h) for n in (10, 13, 16)]
    check_against_oracle(graphs, h, cap=20)
