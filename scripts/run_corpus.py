"""Solve every corpus instance and print a results table.

Usage:
    python scripts/run_corpus.py

Each instance is solved for quotient, density and expansion, and each value
is cross-checked against brute force; a mismatch aborts the run.  Values are
exact rationals printed as p/q.  D is the largest depth the solves of an
instance read its walk table at, OPT*F the depth an exact upper bound would
give (the largest min(m, floor(OPT * F)) over the balance functions), and
states the most states one start dart of the cover run behind that table
visited.  A last line sums D and OPT*F over the instances.
"""

import json
import sys
import time
from fractions import Fraction
from math import floor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from surfcut.balance import make_balance
from surfcut.embedding import parse_embedding
from surfcut.oracle import brute_force_cut
from surfcut.solver import SolveContext, balance_table


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def main():
    funcs = [(spec, make_balance(spec)) for spec in ("quotient", "density", "expansion")]

    manifest = json.loads((ROOT / "corpus" / "manifest.json").read_text())
    header = ["name", "n", "m", "g", "D", "OPT*F", "states"] + [spec for spec, _ in funcs]
    widths = [18, 3, 3, 2, 3, 5, 7] + [12] * len(funcs)
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))

    t0 = time.monotonic()
    sum_depth = sum_ideal = 0
    for item in manifest:
        g = parse_embedding((ROOT / "corpus" / item["file"]).read_text())
        ctx = SolveContext(g)
        values, depth, ideal = [], 0, 0
        for spec, f in funcs:
            det = ctx.solve_detailed(f)
            r = det.result
            want = brute_force_cut(g, f).best.value
            if r.value != want:
                sys.exit(f"MISMATCH on {item['name']} ({spec}): {r.value} vs {want}")
            values.append(frac(r.value))
            depth = max(depth, det.depth)
            ideal = max(ideal, min(g.m, floor(r.value * Fraction(*balance_table(f, g.n)[g.n // 2]))))
        sum_depth += depth
        sum_ideal += ideal
        # the context keeps one table, built to the deepest solve's depth
        row = [item["name"], g.n, g.m, ctx.genus, depth, ideal, max(det.cover.states_per_start), *values]
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print(f"summed D: {sum_depth}, summed OPT*F: {sum_ideal}")
    print(f"done: {len(manifest)} instances in {time.monotonic() - t0:.1f}s (oracle checked)")


if __name__ == "__main__":
    main()
