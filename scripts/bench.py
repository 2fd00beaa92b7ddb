"""Stage times and counters of surfcut solves over a fixed ladder of instances.

Usage:
    python3 scripts/bench.py [--src DIR] [--out FILE] [--only NAME ...]
    python3 scripts/bench.py --diff PARENT.json CHANGE.json

The ladder:
  * the inputs of perfbench's three workloads at seed 201: each graph gets one
    context and is solved for the balance functions its workload asks of it
    (oracle-cli's brute force and walk dump are left out);
  * the 35 corpus files, quotient;
  * random_planar(n, 5, 2) at n = 20, 60 and 100, and grid_torus 4x4 and
    6x6, quotient.

Each repeat times a fresh SolveContext stage by stage: faces+dual,
weight+loops, U (the fewest cut edges per side size), then, summed over the
instance's balance functions, the cover, combine and recover calls that
`solve_detailed` makes, which the script wraps by name in the solver
module.  The JSON written to --out (default BENCH_33.json in the
repository root) holds, per instance, each stage's median over 7 repeats
and the counters: D per solve, and summed over the instance's
solves, the cover states, tags and combine candidates.  The counters must
repeat exactly across the repeats, or the script stops with exit 1.
--src loads surfcut from another checkout's `src`, so two checkouts run
the same ladder; --only keeps the named instances (as listed in the JSON).
--diff prints, per group of instances, the summed stage medians of two
files and their ratio, and exits 1 when their counters differ.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 201
REPEATS = 7
STAGES = ("faces+dual", "weight+loops", "U", "cover", "combine", "recover")
# the solver calls solve_detailed makes, by the stage they time
WRAPPED = {"cover": "shortest_tagged_walks", "combine": "combine_and_minimize", "recover": "recover_cut"}


def perfbench_workloads():
    """perfbench's workloads module, with `perfbench/` put on the import path."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def workload_rungs(mods: dict, workloads, seed: int, workdir: Path) -> list:
    """(name, workload, graph, balance specs) for every instance of the three workloads at `seed`."""
    rungs = []
    for name, workload in workloads.WORKLOADS.items():
        instances = workload.setup(mods, seed, workdir).instances
        wanted = workload.params["f"]
        for i, inst in enumerate(instances):
            # oracle-cli's graph i is solved for f[i % 3]; the other workloads solve each graph for all
            specs = [wanted[i % len(wanted)]] if name == "oracle-cli" else wanted
            rungs.append((f"{name}:{i}", name, inst.graph, specs))
    return rungs


def ladder(mods: dict, workloads, workdir: Path) -> tuple[list, dict]:
    """(name, group, graph, balance specs) for every rung, and spec -> balance function."""
    make = mods["balance"].make_balance
    fs = {name: make(name) for name in ("quotient", "density", "expansion")}
    fs["custom"] = mods["balance"].parse_custom(workloads.CUSTOM_TEXT)
    rungs = workload_rungs(mods, workloads, SEED, workdir)
    parse = mods["embedding"].parse_embedding
    for item in json.loads((ROOT / "corpus" / "manifest.json").read_text(encoding="utf-8")):
        g = parse((ROOT / "corpus" / item["file"]).read_text(encoding="utf-8"))
        rungs.append((f"corpus:{item['name']}", "corpus", g, ["quotient"]))
    construct = mods["construct"]
    for n in (20, 60, 100):
        rungs.append((f"random_planar({n}, 5, 2)", "scaling", construct.random_planar(n, 5, 2), ["quotient"]))
    for p in (4, 6):
        rungs.append((f"grid_torus({p}, {p})", "scaling", construct.grid_torus(p, p), ["quotient"]))
    return rungs, fs


@contextmanager
def wrapped(solver, times: dict, counters: dict):
    """Time the solver's cover, combine and recover calls into `times`, and count what they return."""
    saved = {stage: getattr(solver, name) for stage, name in WRAPPED.items()}

    def timer(stage, fn):
        def call(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            times[stage] += perf_counter() - start
            if stage == "cover":
                counters["cover_states"] += sum(result.states_per_start)
                counters["tags"] += len(result.darts)
            elif stage == "combine" and result is not None:
                counters["candidates"] += result.candidates
            return result

        return call

    try:
        for stage, fn in saved.items():
            setattr(solver, WRAPPED[stage], timer(stage, fn))
        yield
    finally:
        for stage, fn in saved.items():
            setattr(solver, WRAPPED[stage], fn)


def time_once(solver, g, fs: list) -> tuple[dict, dict]:
    """One fresh context's stage times and counters over the solves of `fs`."""
    times = dict.fromkeys(STAGES, 0.0)
    counters = {"D": [], "cover_states": 0, "tags": 0, "candidates": 0}
    ctx = solver.SolveContext(g)
    start = perf_counter()
    ctx.dual
    mid = perf_counter()
    ctx.weight
    ctx.loops
    end = perf_counter()
    ctx.fewest_cut_edges
    times["faces+dual"], times["weight+loops"], times["U"] = mid - start, end - mid, perf_counter() - end
    with wrapped(solver, times, counters):
        for f in fs:
            counters["D"].append(ctx.solve_detailed(f).depth)
    return times, counters


def bench(mods: dict, rungs: list, fs: dict) -> list[dict]:
    rows = []
    for name, group, g, specs in rungs:
        runs = []
        for _ in range(REPEATS):
            gc.collect()
            runs.append(time_once(mods["solver"], g, [fs[spec] for spec in specs]))
        counters = runs[0][1]
        if any(c != counters for _, c in runs):
            raise SystemExit(f"{name}: counters differ across repeats")
        rows.append({
            "name": name, "group": group, "n": g.n, "m": g.m, "f": specs,
            "times_s": {stage: statistics.median(t[stage] for t, _ in runs) for stage in STAGES},
            "counters": counters,
        })
        print(f"{name:<28} " + " ".join(f"{rows[-1]['times_s'][s] * 1e3:8.3f}" for s in STAGES), flush=True)
    return rows


def totals(rows: list[dict]) -> dict:
    """group -> stage -> the summed medians of its instances."""
    out: dict = {}
    for row in rows:
        group = out.setdefault(row["group"], dict.fromkeys(STAGES, 0.0))
        for stage in STAGES:
            group[stage] += row["times_s"][stage]
    return out


def diff(parent_path: Path, change_path: Path) -> int:
    parent, change = (json.loads(p.read_text(encoding="utf-8")) for p in (parent_path, change_path))
    before = {row["name"]: row for row in parent["instances"]}
    after = {row["name"]: row for row in change["instances"]}
    drift = [name for name in before if name in after and before[name]["counters"] != after[name]["counters"]]
    p_tot, c_tot = totals(parent["instances"]), totals(change["instances"])
    print(f"{'group':<16} {'stage':<13} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    for group in [group for group in p_tot if group in c_tot]:
        for stage in STAGES:
            a, b = p_tot[group][stage] * 1e3, c_tot[group][stage] * 1e3
            print(f"{group:<16} {stage:<13} {a:10.3f} {b:10.3f} {b / a if a else float('nan'):7.3f}")
    if before.keys() != after.keys():
        print(f"instances differ: {sorted(before.keys() ^ after.keys())}")
    if drift:
        print(f"counters differ on: {sorted(drift)}")
    return 1 if drift or before.keys() != after.keys() else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src directory to load surfcut from")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_33.json")
    ap.add_argument("--only", nargs="+", metavar="NAME", help="keep only these instances")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    workloads = perfbench_workloads()
    mods = workloads.load_surfcut(args.src)
    with tempfile.TemporaryDirectory() as workdir:
        rungs, fs = ladder(mods, workloads, Path(workdir))
    if args.only:
        missing = set(args.only) - {name for name, *_ in rungs}
        if missing:
            ap.error(f"no such instances: {sorted(missing)}")
        rungs = [rung for rung in rungs if rung[0] in args.only]
    print(f"{'instance':<28} " + " ".join(f"{s[:8]:>8}" for s in STAGES) + "   (ms, median)", flush=True)
    rows = bench(mods, rungs, fs)
    report = {
        "python": platform.python_version(), "machine": platform.machine(), "system": platform.system(),
        "cpus": os.cpu_count(), "seed": SEED, "repeats": REPEATS,
        "stages": list(STAGES), "totals_s": totals(rows), "instances": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
