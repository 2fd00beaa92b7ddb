"""Tests for the benchmark's own helpers.

Run with:  python3 -m pytest -q perfbench
"""

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bench_stats
import reference as ref
import spans
from workloads import MODULES, REFERENCE_F, WORKLOADS, check_walk_dump, random_multigraph, relabel

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def mods():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"surfcut.{name}") for name in MODULES}


def test_percentile_interpolates_between_order_statistics():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert bench_stats.percentile(xs, 0) == 1.0
    assert bench_stats.percentile(xs, 50) == 3.0
    assert bench_stats.percentile(xs, 100) == 5.0
    assert bench_stats.percentile(xs, 75) == 4.0
    assert bench_stats.percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        bench_stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (50, 80.0), (99, 80.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    p = bench_stats.tail_percentile(count)
    assert p == expected
    assert count * (100 - p) / 100 >= 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        bench_stats.tail_percentile(19)


def test_counters_match_flags_only_the_drifting_counter():
    a = {"cover.states": 10, "solver.candidates": 4}
    assert bench_stats.counters_match([a, dict(a), dict(a)]) == []
    assert bench_stats.counters_match([a, {"cover.states": 10, "solver.candidates": 5}]) == ["solver.candidates"]
    assert bench_stats.counters_match([a, {"cover.states": 10}]) == ["solver.candidates"]
    assert bench_stats.counters_match([]) == []


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "r")


def test_self_time_subtracts_children_once():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 6.0, 0),
        _span("a.child", 2.0, 3.0, 1),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_merges_overlapping_and_clips_escaping_children():
    tree = [_span("root", 0.0, 10.0), _span("x", 2.0, 6.0, 0), _span("y", 4.0, 8.0, 0), _span("z", 9.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_times_sum_per_name():
    tree = [_span("req", 0.0, 4.0), _span("cover.build", 0.0, 1.0, 0), _span("cover.build", 2.0, 3.5, 0)]
    totals = spans.layer_self_times(tree)
    assert totals["cover.build"] == pytest.approx(2.5)
    assert totals["req"] == pytest.approx(1.5)


def test_tracer_nests_spans_and_tags_requests():
    t = spans.Tracer()
    t.request = "0:quotient"
    with t.span("outer"):
        with t.span("inner"):
            pass
    outer, inner = t.spans
    assert outer.parent is None and inner.parent == 0
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.request for s in t.spans} == {"0:quotient"}


def test_instrument_restores_every_patched_call(mods):
    before = {(m, a): getattr(mods[m], a) for m, a, _ in spans.LAYER_CALLS if "." not in a}
    call = mods["balance"].BalanceFunction.__call__
    g = mods["construct"].random_planar(8, 1, 3)
    f = mods["balance"].make_balance("quotient")
    tracer = spans.Tracer()
    with spans.instrument(tracer, mods):
        traced = mods["solver"].SolveContext(g).solve(f)
    assert traced == mods["solver"].SolveContext(g).solve(f)
    assert {(m, a): getattr(mods[m], a) for m, a in before} == before
    assert mods["balance"].BalanceFunction.__call__ is call
    names = {s.name for s in tracer.spans}
    assert {"solver.solve", "cover.build", "solver.combine", "solver.recover"} <= names
    assert tracer.counters["cover.states"] > 0 and tracer.counters["balance.evals"] > 0


def test_counters_repeat_exactly(mods):
    g = mods["construct"].random_planar(9, 2, 5)
    f = mods["balance"].make_balance("density")
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.instrument(tracer, mods):
            mods["solver"].SolveContext(g).solve(f)
        runs.append(dict(tracer.counters))
    assert bench_stats.counters_match(runs) == []


def _edges(g):
    return [(g.tails[2 * e], g.heads[2 * e]) for e in range(g.m)]


@pytest.mark.parametrize("spec", ["quotient", "density", "custom"])
def test_reference_matches_brute_force_oracle(mods, tmp_path, spec):
    path = tmp_path / "custom.txt"
    path.write_text("0 0\n1/4 1/3\n1/2 1/2\n", encoding="utf-8")
    f = mods["balance"].make_balance(f"custom:{path}" if spec == "custom" else spec)
    graphs = [mods["construct"].random_planar(n, d, n * 7 + d) for n, d in ((6, 0), (9, 2), (11, 3))]
    graphs.append(mods["construct"].find_embedding(3, [(0, 1)] * 3 + [(1, 2)] * 3 + [(0, 2)], 2))
    for g in graphs:
        cuts = ref.min_cut_by_size(g.n, _edges(g))
        want = mods["oracle"].brute_force_cut(g, f).best.value
        assert ref.best_value(cuts, g.n, REFERENCE_F[spec]) == want


def test_check_answer_catches_each_kind_of_mistake():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    f = ref.quotient
    optimum = ref.best_value(ref.min_cut_by_size(4, edges), 4, f)
    assert optimum == 4
    assert ref.check_answer(4, edges, f, optimum, (0, 1), Fraction(4), 2) == []
    assert ref.check_answer(4, edges, f, optimum, (0, 2), Fraction(8), 4) != []  # scores right, not optimal
    assert ref.check_answer(4, edges, f, optimum, (0, 1), Fraction(4), 3) != []  # wrong cut size
    assert ref.check_answer(4, edges, f, optimum, (1, 2), Fraction(4), 2) != []  # side misses vertex 0
    assert ref.check_answer(4, edges, f, optimum, (0, 1, 2, 3), Fraction(4), 0) != []  # not proper


def test_relabel_keeps_root_genus_and_optimum(mods):
    rng = random.Random(4)
    g = mods["construct"].find_embedding(3, random_multigraph(rng, 3, 7), 2)
    h = relabel(mods, g, rng)
    assert mods["embedding"].genus(h) == 2
    assert sorted(h.tails) == sorted(g.tails) and h.degree(0) == g.degree(0)
    f = mods["balance"].make_balance("quotient")
    assert mods["solver"].SolveContext(h).solve(f).value == mods["solver"].SolveContext(g).solve(f).value


def test_inputs_follow_the_seed(mods, tmp_path):
    w = WORKLOADS["planar-cover"]
    a, b, c = (w.setup(mods, s, tmp_path) for s in (1, 1, 2))
    assert [i.graph for i in a.instances] == [i.graph for i in b.instances]
    assert [i.graph for i in a.instances] != [i.graph for i in c.instances]


def test_walk_dump_check():
    assert check_walk_dump("0 2 4 5\n-1 2 6 7\n", 0) == []
    assert check_walk_dump("0 3 4 5\n", 0) != []
    assert check_walk_dump("", 0) != []
    assert check_walk_dump("1 0 1 -1 0 2 8 9\n", 4) == []


def test_normalize_rescales_by_the_surrounding_calibrations():
    # the machine runs at half speed around the second request
    scaled = bench_stats.normalize([1.0, 2.0], [0.01, 0.01, 0.03], 0.01)
    assert scaled == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        bench_stats.normalize([1.0], [0.01], 0.01)


def test_calibration_loop_does_fixed_work():
    assert bench_stats.calibration_loop() == bench_stats.calibration_loop()
