"""Graph families shared by the differential tests.

`handle_rows` builds the scaling rows of higher genus: H(n, h) is
`add_handles(random_planar(n, 5, 2), h, 7)`, of genus h, and G14(s) is
`add_handles(random_planar(14, 3, s), 3, s)`, n 14 and genus 3.
`workload_graphs` draws the graphs of the benchmark's three workloads at a
seed through `scripts/bench.py`'s `workload_rungs`, with the surfcut
modules already loaded, so the tests and the stage bench solve the same
inputs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from surfcut.construct import add_handles, random_planar

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
H_ROWS = ((60, 1), (100, 1), (30, 2), (20, 3), (30, 3), (16, 4))


def handle_rows() -> dict:
    rows = {f"H({n}, {h})": add_handles(random_planar(n, 5, 2), h, 7) for n, h in H_ROWS}
    rows.update({f"G14({s})": add_handles(random_planar(14, 3, s), 3, s) for s in range(8)})
    return rows


def workload_graphs(seed: int, workdir: Path) -> dict:
    """name -> graph for every instance of the three workloads at `seed`; workdir takes their files."""
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    workloads = bench.perfbench_workloads()
    mods = {name: importlib.import_module(f"surfcut.{name}") for name in workloads.MODULES}
    return {f"{name}:{seed}": g for name, _, g, _ in bench.workload_rungs(mods, workloads, seed, workdir)}
