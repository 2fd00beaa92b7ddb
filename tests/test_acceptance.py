"""End-to-end acceptance checks.

One test per criterion, each printing a PASS line, so `pytest -s` on this
file reads as a checklist.  Everything asserts exact rational equality; no
tolerances anywhere.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from walk_oracle import companion_cycles, enumerate_closed_walks, min_tag_table

from surfcut import cli
from surfcut.balance import density, make_balance, parse_custom, quotient
from surfcut.construct import complete_bipartite_edges, complete_edges, random_planar
from surfcut.dual import IntegerChain, cut_chain, walk_coeffs
from surfcut.embedding import trace_faces
from surfcut.oracle import brute_force_cut
from surfcut.solver import SolveContext

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CUSTOM = parse_custom("0 0\n1/4 1/3\n1/2 1/2\n")


def _edge_set(g):
    return sorted(
        (min(u, v), max(u, v)) for u, v in zip(g.tails[::2], g.heads[::2])
    )


def test_criterion_1_oracle_equivalence(manifest, corpus_graphs, corpus_contexts):
    start = time.monotonic()

    assert len(manifest) >= 30
    families = {}
    for item in manifest:
        families.setdefault(item["family"], []).append(item)

    planar = families["planar"]
    assert len(planar) >= 20
    assert sum(1 for item in planar if item["n"] <= 7) >= 15
    assert all(item["genus"] == 0 for item in planar)

    torus = families["torus"]
    assert len(torus) >= 5
    assert all(item["genus"] == 1 for item in torus)
    assert _edge_set(corpus_graphs["k5_torus"]) == complete_edges(5)
    assert _edge_set(corpus_graphs["k33_torus"]) == sorted(
        complete_bipartite_edges(3, 3)
    )

    genus2 = families["genus2"]
    assert len(genus2) >= 2
    assert all(item["genus"] == 2 and item["n"] <= 8 for item in genus2)

    funcs = [quotient(), density(), CUSTOM]
    for name, ctx in corpus_contexts.items():
        for f in funcs:
            got = ctx.solve(f).value
            want = brute_force_cut(ctx.g, f).best.value
            assert got == want, f"{name} with {f.kind}: solver {got}, oracle {want}"

    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"criterion 1 (oracle equivalence, {len(manifest)} instances x 3 balance"
        f" functions, {elapsed:.1f}s): PASS"
    )


def test_criterion_2_planar_regression():
    rng = random.Random(20)
    for i in range(20):
        n = rng.randrange(4, 13)
        g = random_planar(n, deletions=rng.randrange(0, 4), seed=1000 + i)
        det = SolveContext(g).solve_detailed(quotient())
        assert len(det.combine.walks_used) == 1
        assert det.result.value == brute_force_cut(g, quotient()).best.value
    print("criterion 2 (20 random planar embeddings, oracle match, r = 1): PASS")


def test_criterion_3_euler_genus(manifest, corpus_graphs):
    for item in manifest:
        g = corpus_graphs[item["name"]]
        faces = trace_faces(g)
        assert g.n - g.m + faces.face_count == 2 - 2 * item["genus"], item["name"]
    print(f"criterion 3 (Euler formula on {len(manifest)} embeddings): PASS")


def test_criterion_4_cut_weights(corpus_graphs, corpus_contexts):
    rng = random.Random(4)
    for name, g in corpus_graphs.items():
        w = corpus_contexts[name].weight
        assert all(abs(x) <= g.n for x in w.values.coeffs)
        for _ in range(100):
            mask = rng.randrange(2 ** (g.n - 1) - 1)
            S = {0} | {v for v in range(1, g.n) if mask >> (v - 1) & 1}
            assert w.values.dot(cut_chain(g, S)) == g.n - len(S), (name, sorted(S))
    print("criterion 4 (cut weight = far side size, 100 subsets each): PASS")


def _rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / mat[rank][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_criterion_5_crossing_form(corpus_contexts):
    for name, ctx in corpus_contexts.items():
        system = ctx.loops
        zero = (0,) * (2 * system.genus)
        for walk in trace_faces(ctx.dual).facial_walks:
            c = IntegerChain(walk_coeffs(ctx.g.m, walk))
            assert system.theta(c) == zero, name
        rows = [system.theta(c) for c in companion_cycles(ctx.dual, ctx.weight, system)]
        for j, row in enumerate(rows):
            assert abs(row[j]) == 1, name
            assert all(x == 0 for i, x in enumerate(row) if i != j), name
        assert _rank(rows) == 2 * system.genus, name
    print("criterion 5 (crossings vanish on dual faces, companion rank 2g): PASS")


def test_criterion_6_shortest_walk_table(corpus_contexts):
    checked = []
    for name, ctx in corpus_contexts.items():
        if ctx.dual.n > 4:
            continue
        walks = enumerate_closed_walks(ctx.dual, ctx.weight, ctx.loops, max_len=6)
        table = min_tag_table(walks)
        cover = ctx.cover
        for key, shortest in table.items():
            if key in cover.walks:
                assert cover.walks[key].length <= shortest, (name, key)
            if shortest <= cover.depth_cap:
                assert cover.walks[key].length == shortest, (name, key)
        for key, walk in cover.walks.items():
            if walk.length <= 6:
                assert table[key] == walk.length, (name, key)
        checked.append(name)
    assert len(checked) >= 10
    print(
        f"criterion 6 (exhaustive length-6 walk check on {len(checked)} duals"
        " with <= 4 vertices): PASS"
    )


def _random_fraction(rng, lo, hi):
    den = rng.randrange(1, 64)
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def test_criterion_7_balance_inequalities():
    rng = random.Random(7)
    for f in (quotient(), density(), make_balance("expansion"), CUSTOM):
        done = 0
        while done < 1000:
            xs = [_random_fraction(rng, -1, 1) for _ in range(rng.randrange(2, 5))]
            s = abs(sum(xs))
            if s > 1:
                continue
            assert f(s) <= sum(f(abs(x)) for x in xs)
            a, b = _random_fraction(rng, 0, 1), _random_fraction(rng, 0, 1)
            assert f((a + b) / 2) >= (f(a) + f(b)) / 2
            assert f(a) == f(1 - a)
            done += 1
    print(
        "criterion 7 (subadditivity, midpoint concavity, symmetry;"
        " 1000 instances x 4 balance functions): PASS"
    )


def test_criterion_8_determinism(manifest):
    def full_run():
        chunks = []
        for item in manifest:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.run(cli.parse_args([str(CORPUS_DIR / item["file"]), "--json"]))
            assert rc == 0
            chunks.append(buf.getvalue())
        return "".join(chunks).encode()

    assert full_run() == full_run()
    print("criterion 8 (byte-identical JSON over the corpus, two runs): PASS")


def test_criterion_9_state_counts(corpus_contexts):
    print("criterion 9 (cover state counts within the analytic bound): PASS")
    for name, ctx in corpus_contexts.items():
        cover = ctx.cover
        # the covering state space V' x [-K..K] x prod [-D..D], K = D (n - 1)
        depth = cover.depth_cap
        bound = ctx.dual.n * (2 * depth + 1) ** (2 * ctx.genus) * (2 * depth * (ctx.g.n - 1) + 1)
        max_states = max(cover.states_per_start)
        assert max_states <= bound, name
        print(f"  {name}: max states {max_states} <= bound {bound}")
