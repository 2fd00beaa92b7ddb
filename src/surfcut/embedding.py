"""Rotation systems for multigraphs on closed orientable surfaces.

A graph with m edges is stored as 2m darts.  Edge i owns darts 2i and 2i+1,
oriented opposite ways, so the twin of a dart is `d ^ 1` and its edge is
`d >> 1`.  An embedding is a rotation: for every dart, the next dart leaving
the same tail vertex in the cyclic order around that vertex.  Faces and genus
are derived, never stored in the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class EmbeddingError(ValueError):
    """Invalid rotation-system data or a malformed embedding file."""


@dataclass(frozen=True)
class EmbeddedGraph:
    """A connected multigraph with a rotation at every vertex.

    `tails[d]` and `heads[d]` give the endpoints of dart d, and
    `rotation[d]` is the next dart with the same tail in the cyclic order
    around that vertex.  Loops are rejected unless `allow_loops` is set
    (duals need them, inputs do not).
    """

    n: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    rotation: tuple[int, ...]
    allow_loops: bool = False

    def __post_init__(self):
        self._validate()

    @property
    def m(self) -> int:
        return len(self.tails) // 2

    @property
    def num_darts(self) -> int:
        return len(self.tails)

    @cached_property
    def out_darts(self) -> tuple[tuple[int, ...], ...]:
        """Darts leaving each vertex, ascending by dart id."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for d, v in enumerate(self.tails):
            out[v].append(d)
        return tuple(tuple(ds) for ds in out)

    @cached_property
    def neighbour_masks(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(masks, deg): masks[v][j] has bit u set when more than j edges join v and u.

        Loops are skipped, as no cut ever holds one, so e(v, S), the edges
        between v and a vertex set S, sums the popcounts of S & masks[v][j],
        and deg[v] counts the edge ends at v that are not loops.
        """
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for v, u in zip(self.tails, self.heads):
            if v == u:
                continue
            masks = nbr[v]
            for j, mask in enumerate(masks):
                if not mask >> u & 1:
                    masks[j] = mask | 1 << u
                    break
            else:
                masks.append(1 << u)
        deg = tuple(sum(mask.bit_count() for mask in masks) for masks in nbr)
        return tuple(map(tuple, nbr)), deg

    def degree(self, v: int) -> int:
        return len(self.out_darts[v])

    def _validate(self):
        nd = len(self.tails)
        if self.n < 1:
            raise EmbeddingError("graph needs at least one vertex")
        if nd == 0 or nd % 2 != 0:
            raise EmbeddingError("dart count must be positive and even")
        if not (len(self.heads) == len(self.rotation) == nd):
            raise EmbeddingError("tails, heads and rotation must have equal length")
        for d in range(nd):
            if not (0 <= self.tails[d] < self.n and 0 <= self.heads[d] < self.n):
                raise EmbeddingError(f"dart {d} has an endpoint out of range")
            if self.heads[d] != self.tails[d ^ 1]:
                raise EmbeddingError(f"darts {d} and {d ^ 1} disagree on their shared edge")
            if not self.allow_loops and self.tails[d] == self.heads[d]:
                raise EmbeddingError(f"edge {d >> 1} is a loop")
        if sorted(self.rotation) != list(range(nd)):
            raise EmbeddingError("rotation is not a permutation of the darts")
        for d in range(nd):
            if self.tails[self.rotation[d]] != self.tails[d]:
                raise EmbeddingError(f"rotation moves dart {d} to a different tail vertex")
        # one orbit per vertex: walking the rotation from any dart must visit
        # the full degree of its tail
        seen = [False] * nd
        for d in range(nd):
            if seen[d]:
                continue
            length = 0
            e = d
            while not seen[e]:
                seen[e] = True
                length += 1
                e = self.rotation[e]
            if length != len(self.out_darts[self.tails[d]]):
                raise EmbeddingError(f"rotation at vertex {self.tails[d]} splits into several cycles")
        if len(bfs_tree(self, self.tails[0])[1]) != self.n:
            raise EmbeddingError("graph is not connected")

    @classmethod
    def _unchecked(cls, n: int, tails, heads, rotation, allow_loops: bool = False) -> EmbeddedGraph:
        """The graph the constructor builds from these fields, without `_validate`.

        Only for fields valid by construction, such as the dual of a
        validated map; `__post_init__` does nothing but validate.
        """
        g = object.__new__(cls)
        g.__dict__.update(n=n, tails=tails, heads=heads, rotation=rotation, allow_loops=allow_loops)
        return g


def bfs_tree(g: EmbeddedGraph, root: int, skip: frozenset[int] = frozenset()):
    """Deterministic BFS tree: FIFO queue, darts scanned in ascending id.

    Edges in `skip` are never crossed.  Returns (parent_dart, order) where
    parent_dart[v] is the dart parent->v (-1 at the root and at vertices
    not reached) and order lists the reached vertices by discovery.
    """
    parent_dart = [-1] * g.n
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    for v in order:
        for d in g.out_darts[v]:
            u = g.heads[d]
            if not seen[u] and d >> 1 not in skip:
                seen[u] = True
                parent_dart[u] = d
                order.append(u)
    return tuple(parent_dart), tuple(order)


@dataclass(frozen=True)
class FaceStructure:
    """Faces of an embedding as orbits of the face permutation.

    Face k is `facial_walks[k]`, the darts of its boundary walk in order;
    `face_of[d]` is the face lying to the left of dart d.  Walks start at
    their smallest dart and faces are numbered by that smallest dart.
    """

    face_of: tuple[int, ...]
    facial_walks: tuple[tuple[int, ...], ...]

    @property
    def face_count(self) -> int:
        return len(self.facial_walks)


def trace_faces(g: EmbeddedGraph) -> FaceStructure:
    """Decompose the darts into facial walks.

    The successor of dart d along its left face is rotation[twin(d)]: cross
    to the other end of the edge, then take the next dart around that vertex.
    """
    nd = g.num_darts
    face_of = [-1] * nd
    walks: list[tuple[int, ...]] = []
    for d in range(nd):
        if face_of[d] != -1:
            continue
        walk = []
        e = d
        while face_of[e] == -1:
            face_of[e] = len(walks)
            walk.append(e)
            e = g.rotation[e ^ 1]
        walks.append(tuple(walk))
    return FaceStructure(face_of=tuple(face_of), facial_walks=tuple(walks))


def genus(g: EmbeddedGraph, faces: FaceStructure | None = None) -> int:
    """Genus of the closed orientable surface the rotation system describes."""
    if faces is None:
        faces = trace_faces(g)
    chi = g.n - g.m + faces.face_count
    if chi % 2 != 0 or chi > 2:
        raise EmbeddingError(f"Euler characteristic {chi} is not that of a closed orientable surface")
    return (2 - chi) // 2


def parse_embedding(text: str) -> EmbeddedGraph:
    """Parse an embedding file.

    Format, with '#' starting a comment anywhere on a line:

        vertices <n>
        edge <u> <v>          (m lines; edge i gets darts 2i: u->v, 2i+1: v->u)
        rot <v>: <d0> <d1> ...  (n lines; darts leaving v in cyclic order)

    Every dart must appear exactly once in the rot lines, under its tail,
    and a connected graph needs n <= m + 1.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise EmbeddingError("empty embedding description")

    head = lines[0].split()
    if len(head) != 2 or head[0] != "vertices":
        raise EmbeddingError(f"expected 'vertices <n>' first, got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise EmbeddingError(f"bad vertex count {head[1]!r}") from None
    if n < 1:
        raise EmbeddingError("vertex count must be positive")

    tails: list[int] = []
    heads: list[int] = []
    i = 1
    while i < len(lines) and lines[i].split()[0] == "edge":
        try:
            _, u, v = lines[i].split()
            u, v = int(u), int(v)
        except ValueError:
            raise EmbeddingError(f"bad edge line {lines[i]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EmbeddingError(f"edge endpoint out of range in {lines[i]!r}")
        tails += [u, v]
        heads += [v, u]
        i += 1
    if not tails:
        raise EmbeddingError("no edges")
    nd = len(tails)
    if n > nd // 2 + 1:
        raise EmbeddingError(f"{n} vertices cannot be connected by {nd // 2} edges")

    rotation = [-1] * nd
    placed: set[int] = set()
    seen_vertices = set()
    for line in lines[i:]:
        parts = line.replace(":", " ").split()
        if not parts or parts[0] != "rot":
            raise EmbeddingError(f"expected a 'rot' line, got {line!r}")
        if len(parts) < 2:
            raise EmbeddingError(f"rot line {line!r} names no vertex")
        try:
            v = int(parts[1])
            ds = [int(p) for p in parts[2:]]
        except ValueError:
            raise EmbeddingError(f"bad rot line {line!r}") from None
        if not (0 <= v < n):
            raise EmbeddingError(f"rot line for unknown vertex {v}")
        if v in seen_vertices:
            raise EmbeddingError(f"vertex {v} has two rot lines")
        seen_vertices.add(v)
        if not ds:
            raise EmbeddingError(f"vertex {v} has an empty rotation")
        for d in ds:
            if not (0 <= d < nd):
                raise EmbeddingError(f"unknown dart {d} in rotation of vertex {v}")
            if tails[d] != v:
                raise EmbeddingError(f"dart {d} listed under vertex {v} but its tail is {tails[d]}")
            if d in placed:
                raise EmbeddingError(f"dart {d} assigned twice")
            placed.add(d)
        for j, d in enumerate(ds):
            rotation[d] = ds[(j + 1) % len(ds)]
    if len(seen_vertices) != n:
        missing = sorted(set(range(n)) - seen_vertices)
        raise EmbeddingError(f"missing rot lines for vertices {missing}")
    if -1 in rotation:
        raise EmbeddingError(f"dart {rotation.index(-1)} never placed in a rotation")

    return EmbeddedGraph(n=n, tails=tuple(tails), heads=tuple(heads), rotation=tuple(rotation))


def format_embedding(g: EmbeddedGraph, comment: str | None = None) -> str:
    """Serialize an embedding in the format parse_embedding reads."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"vertices {g.n}")
    for e in range(g.m):
        out.append(f"edge {g.tails[2 * e]} {g.heads[2 * e]}")
    for v in range(g.n):
        ds = g.out_darts[v]
        cycle = [ds[0]]
        d = g.rotation[ds[0]]
        while d != ds[0]:
            cycle.append(d)
            d = g.rotation[d]
        out.append(f"rot {v}: " + " ".join(str(d) for d in cycle))
    return "\n".join(out) + "\n"
