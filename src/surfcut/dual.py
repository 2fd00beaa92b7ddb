"""Geometric dual of an embedded graph, and integer chains on darts.

The dual is a plain EmbeddedGraph, loops allowed, with one vertex per face.
It reuses the primal dart indices: dual dart d runs from the face left of
primal dart d to the face on its right, so the dual of edge i is edge i.
A chain assigns an integer to every dart subject to antisymmetry under twin,
stored as one coefficient per edge (on the even dart).  Because the darts
share ids, a dual chain is the primal chain with the same coefficients.
Every per-edge labelling uses this one format: walk and cut chains, the
balance weight and the homology loops, so pairing a chain with the weight
or with a loop is a dot product of two chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from surfcut.embedding import EmbeddedGraph, FaceStructure


def walk_coeffs(m: int, darts: tuple[int, ...]) -> tuple[int, ...]:
    """A walk's chain on m edges: per edge i, its darts 2i less its darts 2i + 1."""
    c = [0] * m
    for d in darts:
        c[d >> 1] += 1 - ((d & 1) << 1)
    return tuple(c)


@dataclass(frozen=True, slots=True)
class IntegerChain:
    """An antisymmetric integer labelling of darts, one coefficient per edge.

    coeffs[i] is the value on dart 2i; dart 2i+1 carries -coeffs[i].
    size, the total mass (the sum of absolute coefficients), is computed
    once, when the chain is made.  Slots keep a chain to its two fields,
    with no instance dict.
    """

    coeffs: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "size", sum(map(abs, self.coeffs)))

    def dart_coeff(self, d: int) -> int:
        c = self.coeffs[d >> 1]
        return c if d % 2 == 0 else -c

    def dot(self, other: "IntegerChain") -> int:
        """The pairing sum over edges of coeffs[i] * other.coeffs[i]."""
        return sum(a * b for a, b in zip(self.coeffs, other.coeffs, strict=True))

    @property
    def is_zero(self) -> bool:
        return self.size == 0


def build_dual(g: EmbeddedGraph, faces: FaceStructure) -> EmbeddedGraph:
    """The dual of g: one vertex per face of `faces`, dual dart d is primal dart d.

    Its rotation is the inverse of the primal face permutation: crossing the
    edges around a face in the reverse of boundary-walk order turns the
    facial walks of the dual into the vertex stars of the primal, which is
    what makes the dual of the dual the original map (with all darts
    reversed).

    The result equals the EmbeddedGraph its constructor would build, loops
    allowed, but `EmbeddedGraph._unchecked` builds it without the
    constructor's validation, as every check follows from the validated
    primal and its traced faces: face ids are in range;
    heads[d] = face_of[d ^ 1] = tails[d ^ 1]; the rotation is phi^-1, with
    phi(d) = rotation[d ^ 1] the face permutation, so it is a permutation
    that keeps each dart on its own face, with one orbit per face; and the
    dual of a connected map is connected.
    """
    nd = g.num_darts
    face_of = faces.face_of
    phi_inv = [0] * nd
    for d in range(nd):
        phi_inv[g.rotation[d ^ 1]] = d
    return EmbeddedGraph._unchecked(
        n=faces.face_count,
        tails=face_of,
        heads=tuple(face_of[d ^ 1] for d in range(nd)),
        rotation=tuple(phi_inv),
        allow_loops=True,
    )


def cut_chain(g: EmbeddedGraph, S) -> IntegerChain:
    """The chain of the cut [S, V-S]: +1 on each dart leaving S.

    S must be a nonempty proper subset of the vertices.
    """
    inside = [False] * g.n
    for v in S:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        inside[v] = True
    k = sum(inside)
    if k == 0 or k == g.n:
        raise ValueError("cut side must be a nonempty proper subset")
    coeffs = [0] * g.m
    for e in range(g.m):
        a, b = g.tails[2 * e], g.heads[2 * e]
        if inside[a] and not inside[b]:
            coeffs[e] = 1
        elif inside[b] and not inside[a]:
            coeffs[e] = -1
    return IntegerChain(tuple(coeffs))
