"""Answer checks that do not use the solver.

Every cut of a small graph is scored straight from its edge list, so a
reported answer can be compared with the true optimum and re-scored on its
own.  The balance functions are restated here from their definitions.
"""

from __future__ import annotations

from fractions import Fraction


def quotient(x: Fraction) -> Fraction:
    return min(x, 1 - x)


def density(x: Fraction) -> Fraction:
    return x * (1 - x)


def piecewise(breakpoints):
    """Concave profile through (x, y) pairs on [0, 1/2], folded by f(x) = f(1-x)."""

    def f(x: Fraction) -> Fraction:
        x = min(x, 1 - x)
        for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return breakpoints[-1][1]

    return f


def min_cut_by_size(n: int, edges) -> list[int]:
    """c[k] for k = 1..n-1 (index k-1): the fewest edges leaving a k-vertex side.

    Walks all 2^(n-1) sides that contain vertex 0 in Gray-code order, so each
    step toggles one vertex and updates the cut size from its neighbour masks.
    """
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    for u, v in edges:
        if u == v:
            raise ValueError("loops are not allowed")
        deg[u] += 1
        deg[v] += 1
        mult[u, v] = mult.get((u, v), 0) + 1
        mult[v, u] = mult.get((v, u), 0) + 1
    # layers[v][j] holds the neighbours joined to v by more than j edges
    layers: list[list[int]] = [[] for _ in range(n)]
    for (u, v), k in mult.items():
        lay = layers[u]
        while len(lay) < k:
            lay.append(0)
        for j in range(k):
            lay[j] |= 1 << v
    best = [0] * (n + 1)
    best[1] = deg[0]
    for k in range(2, n + 1):
        best[k] = len(edges) + 1
    side, size, cut = 1, 1, deg[0]
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length()
        bit = 1 << v
        delta = deg[v]
        for lay in layers[v]:
            delta -= 2 * (side & lay).bit_count()
        if side & bit:
            side ^= bit
            size -= 1
            cut -= delta
        else:
            side |= bit
            size += 1
            cut += delta
        if cut < best[size]:
            best[size] = cut
    return best[1:n]


def best_value(cuts: list[int], n: int, f) -> Fraction:
    """Optimum of |cut| / f(|S|/n) given the per-size minimum cuts."""
    return min(Fraction(c) / f(Fraction(k, n)) for k, c in enumerate(cuts, start=1))


def check_answer(n: int, edges, f, optimum: Fraction, S, value: Fraction, cut_size: int) -> list[str]:
    """Problems with a reported (S, value, cut_size); empty when it is right."""
    problems = []
    side = set(S)
    if list(S) != sorted(side) or not side or len(side) >= n or 0 not in side:
        return [f"S={list(S)} is not a sorted proper side holding vertex 0"]
    if any(not (0 <= v < n) for v in side):
        return [f"S={list(S)} names a vertex outside 0..{n - 1}"]
    crossing = sum(1 for u, v in edges if (u in side) != (v in side))
    if crossing != cut_size:
        problems.append(f"cut_size {cut_size} but S cuts {crossing} edges")
    scored = Fraction(crossing) / f(Fraction(len(side), n))
    if scored != value:
        problems.append(f"value {value} but S scores {scored}")
    if value != optimum:
        problems.append(f"value {value} but the optimum is {optimum}")
    return problems
