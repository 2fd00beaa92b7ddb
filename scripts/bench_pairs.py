"""Compare one perfbench workload between two checkouts, in alternating pairs.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME
        [--pairs 10] [--seed 1001] [--seconds 30]

Pair i runs `perfbench/run.py --workload NAME --seed S+i --seconds T
--trace 0` once in each checkout, the parent first on even i and the change
first on odd i, so each pair has its own seed and neither side always runs
first.  Each pair's numbers are printed as it finishes.  At the end, for
each end-to-end metric and for the raw (uncalibrated) setup_s of the info
line, the table gives each side's median and quartiles, the change in the
median, and the pairs the change won (ties count for neither side).  The
claim rule is met when the change won at least nine tenths of the pairs and
the medians differ, its way, by more than the parent's inter-quartile range.
Exits 1 if any run failed or checked wrong.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("setup_s",)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, bool]:
    """One untraced perfbench run: its metrics, raw setup_s included, and whether it checked correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({f"raw.{name}": info["raw"][name] for name in RAW})
    return values, result["correct"] and result["failed"] == 0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[dict], change: list[dict], lower_better: dict[str, bool]) -> list[dict]:
    """One row per metric from pair i's values parent[i] and change[i].

    A metric missing from lower_better is taken as lower-better; `raw.X`
    follows X.
    """
    rows = []
    for name in parent[0]:
        lower = lower_better.get(name.removeprefix("raw."), True)
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        rows.append({
            "metric": name, "parent": pq, "change": cq, "ratio": cq[1] / pq[1] if pq[1] else None,
            "won": won, "pairs": len(p), "claim": won >= 0.9 * len(p) and gap > pq[2] - pq[0],
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    out = [f"{'metric':<15} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
           f"{'change':>8} {'won':>6}  claim rule"]
    for r in rows:
        delta = f"{(r['ratio'] - 1) * 100:+.1f}%" if r["ratio"] is not None else "n/a"
        out.append(f"{r['metric']:<15} {side(r['parent']):<34} {side(r['change']):<34} "
                   f"{delta:>8} {r['won']:>3}/{r['pairs']:<2}  {'met' if r['claim'] else 'not met'}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1001, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            values, correct = run_once(sides[name], args.workload, seed, args.seconds)
            runs[name].append(values)
            ok = ok and correct
            if not correct:
                print(f"pair {i} seed {seed}: the {name} run failed or checked wrong", file=sys.stderr)
        pair = "  ".join(f"{k} {runs['parent'][-1][k]:.4g} -> {runs['change'][-1][k]:.4g}"
                         for k in runs["parent"][-1])
        print(f"pair {i} seed {seed} ({order[0]} first): {pair}", flush=True)
    print(f"workload {args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.seconds:g} s runs")
    print("\n".join(format_rows(summarize(runs["parent"], runs["change"], lower_better))))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
