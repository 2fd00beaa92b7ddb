"""The solver's U search as it was before its BFS balls grew on bit masks.

`fewest_cut_edges` grows each root's BFS by scanning every dart of every
vertex it reaches.  The solver's version must give the same table and
sides; this one is kept only for the differential test.
"""

from __future__ import annotations


def fewest_cut_edges(g, w) -> dict[int, tuple[int, int]]:
    """min(|S|, n-|S|) -> (the fewest cut edges found, a side of that size with them)."""
    n, half = g.n, g.n // 2
    full = (1 << n) - 1
    cuts = [0] + [g.m + 1] * half
    sides = [0] * (half + 1)

    def keep(k: int, cut: int, S: int) -> int:
        if 2 * k > n:
            k, S = n - k, full ^ S
        if cut < cuts[k]:
            cuts[k], sides[k] = cut, S
        return k

    nbr, deg = g.neighbour_masks

    below = [1 << v for v in range(n)]
    members = [[v] for v in range(n)]
    below_cut = list(deg)
    for v in reversed(w.order[1:]):
        S = below[v]
        keep(len(members[v]), below_cut[v], S)
        p = g.tails[w.parent_dart[v]]
        P = below[p]
        e = sum((P & mask).bit_count() for u in members[v] for mask in nbr[u])
        below_cut[p] += below_cut[v] - 2 * e
        below[p] = P | S
        members[p] += members[v]

    heads = [[g.heads[d] for d in ds] for ds in g.out_darts]
    ball = [g.m + 1] * n
    ball_side = [0] * n
    for r in range(n):
        seen, order = 1 << r, [r]
        S = cut = 0
        for k in range(1, n):
            v = order[k - 1]
            for u in heads[v]:
                if not seen >> u & 1:
                    seen |= 1 << u
                    order.append(u)
            cut += deg[v]
            for mask in nbr[v]:
                cut -= 2 * (S & mask).bit_count()
            S |= 1 << v
            if cut < ball[k]:
                ball[k], ball_side[k] = cut, S
    for k in range(1, n):
        keep(k, ball[k], ball_side[k])

    todo = set(range(1, half + 1))
    while todo:
        k = min(todo)
        todo.remove(k)
        cut, S = cuts[k], sides[k]
        for v in range(n):
            e = 0
            for mask in nbr[v]:
                e += (S & mask).bit_count()
            if S >> v & 1:
                size, after = k - 1, cut - deg[v] + 2 * e
            else:
                size, after = k + 1, cut + deg[v] - 2 * e
            if after < cuts[min(size, n - size)]:
                todo.add(keep(size, after, S ^ 1 << v))
    return {k: (cuts[k], sides[k]) for k in range(1, half + 1)}
