"""The re-tracing random planar generator, the reference `random_planar` is checked against.

This is the generator as it was before it kept its face list up to date: it
builds, validates and traces the whole map after every stacked vertex and
every deletion, so every random draw is made from `trace_faces`'s own list.
It costs O(n^2) and is kept only for the differential test.
"""

from __future__ import annotations

import random

from surfcut.construct import cycle_edges, find_embedding
from surfcut.embedding import EmbeddedGraph, EmbeddingError, genus, trace_faces


def _insert_into_face(tails, heads, rot, walk):
    """Stack a new vertex into a triangular face, keeping the map planar."""
    p, q, r = walk
    a = tails[p]
    x = max(max(tails), max(heads)) + 1
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
    return x


def _delete_edge(tails, heads, rot, e):
    """Remove edge e from the rotation system, compacting dart ids."""
    for d in (2 * e, 2 * e + 1):
        x = rot[d]
        while rot[x] != d:
            x = rot[x]
        rot[x] = rot[d]
    keep = [d for d in range(len(tails)) if d >> 1 != e]
    remap = {d: i for i, d in enumerate(keep)}
    new_tails = [tails[d] for d in keep]
    new_heads = [heads[d] for d in keep]
    new_rot = [remap[rot[d]] for d in keep]
    return new_tails, new_heads, new_rot


def _as_graph(n, tails, heads, rot) -> EmbeddedGraph:
    return EmbeddedGraph(
        n=n, tails=tuple(tails), heads=tuple(heads), rotation=tuple(rot)
    )


def retraced_random_planar(n: int, deletions: int = 0, seed: int = 0) -> EmbeddedGraph:
    """Random planar embedding: a stacked triangulation minus some edges.

    Starts from a triangle, repeatedly subdivides a random face, then drops
    up to `deletions` random edges whose two sides are distinct faces (never
    a bridge, so the graph stays connected and the sphere stays a sphere).
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(seed)
    tri = find_embedding(3, cycle_edges(3), 0)
    tails, heads, rot = list(tri.tails), list(tri.heads), list(tri.rotation)
    for _ in range(n - 3):
        g = _as_graph(max(tails) + 1 if tails else 0, tails, heads, rot)
        faces = trace_faces(g)
        walk = faces.facial_walks[rng.randrange(faces.face_count)]
        _insert_into_face(tails, heads, rot, walk)
    for _ in range(deletions):
        g = _as_graph(n, tails, heads, rot)
        faces = trace_faces(g)
        candidates = [
            e for e in range(g.m) if faces.face_of[2 * e] != faces.face_of[2 * e + 1]
        ]
        if not candidates:
            break
        tails, heads, rot = _delete_edge(tails, heads, rot, rng.choice(candidates))
    g = _as_graph(n, tails, heads, rot)
    if genus(g) != 0:
        raise EmbeddingError("planar generator drifted off the sphere")
    return g
