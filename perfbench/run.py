"""Benchmark surfcut from outside, through its public functions.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: each request starts when the previous
one has returned.  Inputs come from --seed.  The instance list is run in
passes until --seconds have gone by (and at least the workload's minimum
number of passes).  Every answer is checked after the timed region against
an exhaustive reference computed from the edge list.

Shared machines drift in speed by 20% and more within a minute, so a short
fixed calibration loop runs between requests, and every end-to-end time is
rescaled to the speed at which that loop takes CAL_REF_S seconds.  The raw
times are printed too, on the line before the result.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints per-layer metrics from the traced ones, writing the
spans to .perfbench-out/.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import bench_stats
import reference as ref
import spans
from workloads import REFERENCE_F, WORKLOADS, load_surfcut

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
# fixed reference time of the calibration loop (it took 12-17 ms on a 2.1 GHz Xeon, Python 3.11.7)
CAL_REF_S = 0.012

# per-layer metric -> span whose self time it sums over one traced pass
LAYER_TIMES = {
    "embedding.parse_s": "embedding.parse",
    "embedding.faces_s": "embedding.faces",
    "dual.build_s": "dual.build",
    "homology.weight_s": "homology.weight",
    "homology.loops_s": "homology.loops",
    "cover.time_s": "cover.build",
    "solver.combine_s": "solver.combine",
    "solver.recover_s": "solver.recover",
    "oracle.time_s": "oracle.brute_force",
    "cover.dump_s": "cover.dump",
    "cli.overhead_s": "cli.run",
}
COUNTS = ("cover.states", "cover.max_states", "cover.tags", "solver.candidates",
          "solver.table_entries", "oracle.cuts", "balance.evals")
SHARES = {"share.cover": "cover.time_s", "share.combine": "solver.combine_s", "share.oracle": "oracle.time_s"}
UNITS = {"peak_rss_mb": "MB", "oracle.cuts_per_s": "1/s", "solve_s.p50": "s", "solve_s.tail": "s"}


def calibrate() -> float:
    t0 = time.perf_counter()
    bench_stats.calibration_loop()
    return time.perf_counter() - t0


def run_pass(workload, mods, inputs, tracer=None):
    """One pass over the instance list.

    Returns the raw seconds of each request, the calibration timings around
    them, and (instance, f, output) for each request.
    """
    requests = workload.requests(mods, inputs)
    gc.collect()
    times, cals, outputs = [], [calibrate()], []
    for req in requests:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = req.run()
            else:
                tracer.request = f"{req.instance}:{req.f}"
                with tracer.span(workload.root_span):
                    raw = req.run()
        except Exception as e:  # a failed request is counted, the run goes on
            raw = e
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
        outputs.append((req.instance, req.f, raw))
    return times, cals, outputs


def answers_of(workload, outputs):
    """(instance, f, (value, S, cut_size) or None, problems), outside the timed region."""
    out = []
    for instance, f, raw in outputs:
        if isinstance(raw, Exception):
            out.append((instance, f, None, [f"{type(raw).__name__}: {raw}"]))
            continue
        try:
            value, S, cut_size, problems = workload.answer(raw)
        except (ValueError, KeyError, TypeError, OSError) as e:
            out.append((instance, f, None, [f"unreadable output: {e}"]))
            continue
        out.append((instance, f, (value, S, cut_size), problems))
    return out


def check(inputs, answered) -> list[str]:
    """Failures over all passes: wrong answers, errors, and answers that changed between passes."""
    cuts = {}
    first = {}
    failures = []
    for instance, fname, ans, problems in answered:
        inst = inputs.instances[instance]
        if ans is not None:
            if instance not in cuts:
                cuts[instance] = ref.min_cut_by_size(inst.graph.n, inst.edges)
            f = REFERENCE_F[fname]
            optimum = ref.best_value(cuts[instance], inst.graph.n, f)
            value, S, cut_size = ans
            problems = problems + ref.check_answer(inst.graph.n, inst.edges, f, optimum, S, value, cut_size)
            seen = first.setdefault((instance, fname), (value, S))
            if seen != (value, S):
                problems.append(f"answer changed between passes: {seen} then {(value, S)}")
        if problems:
            params = json.dumps(inst.params, sort_keys=True)
            failures.append(f"instance {instance} {params} f={fname}: {'; '.join(problems)}")
    return failures


def layer_metrics(traced, untraced_walls) -> dict:
    """Per-layer metrics: medians over the traced passes of self times and counters."""
    per_pass = []
    for raw_wall, _, span_list, counters in traced:
        totals = spans.layer_self_times(span_list)
        row = {metric: totals.get(name, 0.0) for metric, name in LAYER_TIMES.items()}
        row.update({name: counters.get(name, 0) for name in COUNTS})
        states = row["cover.states"]
        row["cover.tags_per_state"] = row["cover.tags"] / states if states else 0.0
        row["oracle.cuts_per_s"] = row["oracle.cuts"] / row["oracle.time_s"] if row["oracle.time_s"] else 0.0
        for share, metric in SHARES.items():
            row[share] = row[metric] / raw_wall
        per_pass.append(row)
    metrics = {name: statistics.median(r[name] for r in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(w for _, w, _, _ in traced)
    metrics["trace.overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    return metrics


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.startswith(("share.", "trace.")) or name == "cover.tags_per_state":
        return "ratio"
    return "count"


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    src = ROOT / "src"
    setups, setup_cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = load_surfcut(src)
        inputs = workload.setup(mods, seed, workdir)
        setups.append(time.perf_counter() - t0)
        setup_cals.append(calibrate())

    # walls are sums of calibrated request times; traced passes keep raw sums for shares
    walls, times, raw_walls, raw_times, traced, answered = [], [], [], [], [], []
    order = ["untraced", "traced", "traced"] if trace else ["untraced"] * workload.min_passes
    began = time.perf_counter()
    last = 0.0
    i = 0
    while i < len(order) or time.perf_counter() - began + last <= seconds:
        kind = order[i] if i < len(order) else ("traced" if trace and i % 2 == 0 else "untraced")
        i += 1
        t0 = time.perf_counter()
        tracer = spans.Tracer() if kind == "traced" else None
        with spans.instrument(tracer, mods) if tracer else contextlib.nullcontext():
            pass_times, cals, outputs = run_pass(workload, mods, inputs, tracer)
        scaled = bench_stats.normalize(pass_times, cals, CAL_REF_S)
        if tracer is None:
            walls.append(sum(scaled))
            times += scaled
            raw_walls.append(sum(pass_times))
            raw_times += pass_times
        else:
            traced.append((sum(pass_times), sum(scaled), tracer.spans, dict(tracer.counters)))
        last = time.perf_counter() - t0
        answered += answers_of(workload, outputs)

    failures = check(inputs, answered)
    requests_per_pass = len(workload.requests(mods, inputs))
    info = {"workload": workload.name, "seed": seed, "entry": workload.entry,
            "requests_per_pass": requests_per_pass, "untraced_passes": len(walls),
            "traced_passes": len(traced), "failures": failures[:20]}
    drift = []
    if trace:
        drift = bench_stats.counters_match([c for _, _, _, c in traced])
        info["counter_drift"] = drift
        metrics = layer_metrics(traced, walls)
        info["counters"] = traced[0][3]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for p, (_, _, span_list, _) in enumerate(traced):
                spans.dump(span_list, fh, p)
        info["spans"] = str(path.relative_to(ROOT))
    else:
        tail_p = bench_stats.tail_percentile(requests_per_pass * workload.min_passes)
        metrics = {
            "wall_s": statistics.median(walls),
            "solve_s.p50": bench_stats.percentile(times, 50),
            "solve_s.tail": bench_stats.percentile(times, tail_p),
            "setup_s": statistics.median(bench_stats.normalize(setups, setup_cals, CAL_REF_S)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["tail"] = {"percentile": tail_p, "samples": len(times),
                        "beyond": sum(1 for t in times if t > metrics["solve_s.tail"])}
        info["raw"] = {"wall_s": statistics.median(raw_walls),
                       "solve_s.p50": bench_stats.percentile(raw_times, 50),
                       "solve_s.tail": bench_stats.percentile(raw_times, tail_p),
                       "setup_s": statistics.median(setups)}
        info["speed"] = CAL_REF_S / statistics.median(setup_cals)
    attempted = len(answered)
    info["failed_frac"] = len(failures) / attempted
    return metrics, info, attempted, failures, drift


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="surfcut benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, info, attempted, failures, drift = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ImportError as e:
        print(f"error: cannot load surfcut: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures and not drift,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
