"""Generate the frozen test corpus under corpus/.

Every instance is deterministic: small rotation searches are exhaustive in
lex order, randomized builders take fixed seeds.  Each .emb file gets a
manifest entry recording the intended genus, which the test suite re-derives
independently from the file.  `corpus_files` builds every file's text and
writes nothing; tests/test_construct.py compares it with corpus/.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from surfcut.construct import (
    banana_edges,
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    find_embedding,
    grid_torus,
    path_edges,
    prism_edges,
    random_planar,
    random_tree,
    star_edges,
    wheel_edges,
)
from surfcut.embedding import format_embedding, genus

CORPUS = ROOT / "corpus"

OCTAHEDRON = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (2, 3), (3, 4), (4, 1),
    (1, 5), (2, 5), (3, 5), (4, 5),
]
DIAMOND = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
SERIES33 = banana_edges(3) + [(1, 2)] * 3


def build_instances():
    out = []

    def add(name, family, g):
        out.append((name, family, g))

    add("k2", "planar", find_embedding(2, [(0, 1)], 0))
    add("digon", "planar", find_embedding(2, banana_edges(2), 0))
    add("theta", "planar", find_embedding(2, banana_edges(3), 0))
    add("banana4", "planar", find_embedding(2, banana_edges(4), 0))
    add("p3", "planar", find_embedding(3, path_edges(3), 0))
    add("p4", "planar", find_embedding(4, path_edges(4), 0))
    add("star5", "planar", find_embedding(5, star_edges(5), 0))
    add("tree7", "planar", random_tree(7, seed=1))
    for k in (3, 4, 5, 6, 7):
        add(f"c{k}", "planar", find_embedding(k, cycle_edges(k), 0))
    add("k4", "planar", find_embedding(4, complete_edges(4), 0))
    add("diamond", "planar", find_embedding(4, DIAMOND, 0))
    add("k4_doubled", "planar", find_embedding(4, complete_edges(4) + [(0, 1)], 0))
    add("k23", "planar", find_embedding(5, complete_bipartite_edges(2, 3), 0))
    add("w5", "planar", find_embedding(5, wheel_edges(5), 0))
    add("w6", "planar", find_embedding(6, wheel_edges(6), 0))
    add("prism3", "planar", find_embedding(6, prism_edges(3), 0))
    add("octahedron", "planar", find_embedding(6, OCTAHEDRON, 0))
    add("apollonian7", "planar", random_planar(7, deletions=0, seed=2))
    add("apollonian9_del", "planar", random_planar(9, deletions=4, seed=3))
    add("apollonian12_del", "planar", random_planar(12, deletions=5, seed=4))

    add("k4_torus", "torus", find_embedding(4, complete_edges(4), 1))
    add("k5_torus", "torus", find_embedding(5, complete_edges(5), 1))
    add("k33_torus", "torus", find_embedding(6, complete_bipartite_edges(3, 3), 1))
    add("theta_torus", "torus", find_embedding(2, banana_edges(3), 1))
    add("banana24_torus", "torus", find_embedding(2, banana_edges(4), 1))
    add("grid23_torus", "torus", grid_torus(2, 3))
    add("grid33_torus", "torus", grid_torus(3, 3))

    add("banana25_g2", "genus2", find_embedding(2, banana_edges(5), 2))
    add("series33_g2", "genus2", find_embedding(3, SERIES33, 2))
    add("c4_doubled_g2", "genus2", find_embedding(4, [e for uv in cycle_edges(4) for e in (uv, uv)], 2))
    add("k5_g2", "genus2", find_embedding(5, complete_edges(5), 2))

    return out


def corpus_files() -> dict[str, str]:
    """The text of every corpus file by file name: the .emb files in build
    order, then manifest.json."""
    files = {}
    manifest = []
    for name, family, g in build_instances():
        gen = genus(g)
        comment = f"{name}: n={g.n} m={g.m} genus={gen} ({family})"
        files[f"{name}.emb"] = format_embedding(g, comment=comment)
        manifest.append(
            {"name": name, "file": f"{name}.emb", "n": g.n, "m": g.m, "genus": gen, "family": family}
        )
    files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    return files


def main():
    CORPUS.mkdir(exist_ok=True)
    for name, text in corpus_files().items():
        (CORPUS / name).write_text(text, encoding="utf-8")
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
