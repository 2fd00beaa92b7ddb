"""Builders for embedded test graphs.

Covers the standard small families, exhaustive or randomized search for a
rotation of prescribed genus, a constructive random planar generator
(stacked triangulations with random non-bridge deletions) whose planarity
never depends on searching, and `add_handles`, which raises a map's genus
by joining two of its faces with an edge, once per handle.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from operator import itemgetter, ne

from surfcut.embedding import EmbeddedGraph, EmbeddingError, genus, trace_faces


def from_cyclic_orders(n: int, edges: list[tuple[int, int]], orders: list[list[int]]) -> EmbeddedGraph:
    """Build a graph from an edge list and explicit per-vertex dart orders."""
    tails, heads = [], []
    for u, v in edges:
        tails += [u, v]
        heads += [v, u]
    rotation = [-1] * len(tails)
    for cyc in orders:
        for i, d in enumerate(cyc):
            rotation[d] = cyc[(i + 1) % len(cyc)]
    return EmbeddedGraph(n=n, tails=tuple(tails), heads=tuple(heads), rotation=tuple(rotation))


def _out_darts(n: int, edges) -> list[list[int]]:
    out = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        out[u].append(2 * i)
        out[v].append(2 * i + 1)
    return out


EXHAUSTIVE_CAP = 300_000
SAMPLE_TRIES = 200_000
SAMPLE_SEED = 0


def find_embedding(n: int, edges: list[tuple[int, int]], target_genus: int) -> EmbeddedGraph:
    """A rotation system of the given genus for an abstract multigraph.

    Fixing the first dart at each vertex, the search space is the product of
    (deg - 1)! cyclic orders.  Spaces of at most EXHAUSTIVE_CAP are scanned
    exhaustively in lex order; larger ones get SAMPLE_TRIES draws from a
    generator seeded with SAMPLE_SEED.  Either way the result is reproducible.
    """
    out = _out_darts(n, edges)
    space = 1
    for ds in out:
        for k in range(1, len(ds)):
            space *= k
    def build(choice):
        orders = [[ds[0], *rest] if ds else [] for ds, rest in zip(out, choice)]
        return from_cyclic_orders(n, edges, orders)

    if space <= EXHAUSTIVE_CAP:
        for choice in itertools.product(*[list(itertools.permutations(ds[1:])) for ds in out]):
            g = build(choice)
            if genus(g) == target_genus:
                return g
    else:
        rng = random.Random(SAMPLE_SEED)
        for _ in range(SAMPLE_TRIES):
            choice = []
            for ds in out:
                rest = list(ds[1:])
                rng.shuffle(rest)
                choice.append(tuple(rest))
            g = build(choice)
            if genus(g) == target_genus:
                return g
    raise EmbeddingError(f"no genus-{target_genus} rotation found")


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def complete_bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def wheel_edges(n: int) -> list[tuple[int, int]]:
    """Hub 0 joined to an (n-1)-cycle."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return [(0, i) for i in range(1, n)] + rim


def prism_edges(k: int) -> list[tuple[int, int]]:
    """Two k-cycles joined by a perfect matching."""
    top = [(i, (i + 1) % k) for i in range(k)]
    bottom = [(k + i, k + (i + 1) % k) for i in range(k)]
    return top + bottom + [(i, k + i) for i in range(k)]


def banana_edges(k: int) -> list[tuple[int, int]]:
    """Two vertices joined by k parallel edges."""
    return [(0, 1)] * k


def grid_torus(p: int, q: int) -> EmbeddedGraph:
    """The p x q grid on the flat torus, all faces quadrilaterals."""
    if p < 2 or q < 2:
        raise ValueError("torus grid needs both sides at least 2")
    n = p * q
    right = [(i * q + j, i * q + (j + 1) % q) for i in range(p) for j in range(q)]
    down = [(i * q + j, ((i + 1) % p) * q + j) for i in range(p) for j in range(q)]
    edges = right + down
    orders = []
    for i in range(p):
        for j in range(q):
            east = 2 * (i * q + j)
            west = 2 * (i * q + (j - 1) % q) + 1
            south = 2 * (n + i * q + j)
            north = 2 * (n + ((i - 1) % p) * q + j) + 1
            orders.append([east, north, west, south])
    g = from_cyclic_orders(n, edges, orders)
    if genus(g) != 1:
        raise EmbeddingError("flat torus grid did not come out genus 1")
    return g


def random_tree(n: int, seed: int = 0) -> EmbeddedGraph:
    """A random tree; any rotation of a tree is planar."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    out = _out_darts(n, edges)
    return from_cyclic_orders(n, edges, out)


def _insert_into_face(tails, heads, rot, walk, x):
    """Stack new vertex x into a triangular face, keeping the map planar."""
    p, q, r = walk
    a = tails[p]
    base = len(tails)
    xa, ax = base, base + 1
    xb, bx = base + 2, base + 3
    xc, cx = base + 4, base + 5
    b, c = tails[q], tails[r]
    tails += [x, a, x, b, x, c]
    heads += [a, x, b, x, c, x]
    rot += [0] * 6
    rot[r ^ 1], rot[ax] = ax, p
    rot[p ^ 1], rot[bx] = bx, q
    rot[q ^ 1], rot[cx] = cx, r
    rot[xa], rot[xc], rot[xb] = xc, xb, xa


def _delete_edge(tails, heads, rot, face_of, e):
    """Remove edge e, whose two sides are distinct faces, compacting dart ids.

    The two faces merge into one, so face_of gives the second side's darts
    the first side's label.  Returns the new tails, heads, rot and face_of.
    """
    lo, hi = 2 * e, 2 * e + 2
    for d in (lo, lo + 1):
        x = rot[d]
        while rot[x] != d:
            x = rot[x]
        rot[x] = rot[d]
    keep, gone = face_of[lo], face_of[lo + 1]
    face_of = [keep if label == gone else label for label in face_of[:lo] + face_of[hi:]]
    new_rot = [d - 2 if d >= hi else d for d in rot[:lo] + rot[hi:]]
    return tails[:lo] + tails[hi:], heads[:lo] + heads[hi:], new_rot, face_of


def random_planar(n: int, deletions: int = 0, seed: int = 0) -> EmbeddedGraph:
    """Random planar embedding: a stacked triangulation minus some edges.

    Starts from a triangle, repeatedly subdivides a random face, then drops
    up to `deletions` random edges whose two sides are distinct faces (never
    a bridge, so the graph stays connected and the sphere stays a sphere).

    The face drawn from is a list of facial walks in `trace_faces`'s order,
    sorted by smallest dart, each walk starting there.  It starts as the
    triangle's two faces, and a split rule keeps it up to date.  Stacking x
    into walk (p, q, r) leaves the triangles (o, rot[o ^ 1], rot[rot[o ^ 1] ^ 1])
    for o in (p, q, r).  Every new dart is above every old one, so o is its
    triangle's smallest dart: p's triangle takes the old walk's place and
    the other two go in at their first darts' sorted places.  The deletions
    keep one face label per dart, merging the two labels of each deleted
    edge.  So the random stream, and the graph, are those of re-tracing the
    map after every step, at O(n + deletions * m) cost.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(seed)
    # the triangle 0 -> 1 -> 2 -> 0 and its two faces, as
    # find_embedding(3, cycle_edges(3), 0) and trace_faces build them
    tails, heads, rot = [0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2], [5, 2, 1, 4, 3, 0]
    walks = [(0, 2, 4), (1, 5, 3)]
    for x in range(3, n):
        i = rng.randrange(len(walks))
        _insert_into_face(tails, heads, rot, walks[i], x)
        p_tri, *rest = [(o, rot[o ^ 1], rot[rot[o ^ 1] ^ 1]) for o in walks[i]]
        walks[i] = p_tri
        for tri_o in rest:
            walks.insert(bisect_left(walks, tri_o[0], key=itemgetter(0)), tri_o)
    face_of = [0] * len(tails)
    for label, walk in enumerate(walks):
        for d in walk:
            face_of[d] = label
    for _ in range(deletions):
        candidates = list(itertools.compress(itertools.count(), map(ne, face_of[::2], face_of[1::2])))
        if not candidates:
            break
        tails, heads, rot, face_of = _delete_edge(tails, heads, rot, face_of, rng.choice(candidates))
    g = EmbeddedGraph(n, tuple(tails), tuple(heads), tuple(rot))
    if genus(g) != 0:
        raise EmbeddingError("planar generator drifted off the sphere")
    return g


def add_handles(g: EmbeddedGraph, h: int, seed: int = 0) -> EmbeddedGraph:
    """`g` with h edges added, each joining two faces, so its genus is h more.

    For each handle the faces are traced afresh and darts a, b drawn until
    their tails differ and the corners after them, on faces
    face_of[rot[a]] and face_of[rot[b]], differ.  The new edge runs from
    tails[a] to tails[b], its darts placed right after a and b in their
    rotations.  That merges the two faces: m rises by 1 and F falls by 1.
    """
    rng = random.Random(seed)
    tails, heads, rot = list(g.tails), list(g.heads), list(g.rotation)
    for _ in range(h):
        faces = trace_faces(EmbeddedGraph(g.n, tuple(tails), tuple(heads), tuple(rot)))
        if faces.face_count < 2:
            raise ValueError("a handle needs two distinct faces to join")
        face_of, nd = faces.face_of, len(tails)
        while True:
            a, b = rng.randrange(nd), rng.randrange(nd)
            if tails[a] != tails[b] and face_of[rot[a]] != face_of[rot[b]]:
                break
        u, v = tails[a], tails[b]
        tails += [u, v]
        heads += [v, u]
        rot += [rot[a], rot[b]]
        rot[a], rot[b] = nd, nd + 1
    return EmbeddedGraph(g.n, tuple(tails), tuple(heads), tuple(rot))
