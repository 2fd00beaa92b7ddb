"""The benchmark traces surfcut by wrapping module attributes by name.

A layer whose attribute no longer resolves is skipped without a word, so
these tests pin every hooked name to the loaded modules.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


LAYER_CALLS = _load_spans().LAYER_CALLS


@pytest.mark.parametrize("module,path,span", LAYER_CALLS, ids=[c[2] for c in LAYER_CALLS])
def test_hooked_attribute_resolves(module, path, span):
    owner = importlib.import_module(f"surfcut.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_combine_positional_order():
    # the combine counter reads the cover and m from positions 0 and 4
    solver = importlib.import_module("surfcut.solver")
    params = list(inspect.signature(solver.combine_and_minimize).parameters)
    assert params == ["cover", "system", "f", "n", "m"]


def test_counted_fields_exist(corpus_contexts):
    # the counters read these with getattr(..., default), so a renamed field
    # would count 0 instead of failing
    solver = importlib.import_module("surfcut.solver")
    oracle = importlib.import_module("surfcut.oracle")
    balance = importlib.import_module("surfcut.balance")
    ctx = corpus_contexts["k4_torus"]
    f = balance.quotient()
    cover = solver.shortest_tagged_walks(ctx.dual, ctx.weight, ctx.loops, ctx.g.m)
    assert hasattr(cover, "states_per_start") and hasattr(cover, "walks")
    for walk in cover.walks.values():
        assert hasattr(walk, "length")
        assert hasattr(walk.chain, "is_zero") and hasattr(walk.chain, "size")
    comb = solver.combine_and_minimize(cover, ctx.loops, f, ctx.g.n, ctx.g.m)
    assert hasattr(comb, "candidates")
    assert hasattr(oracle.brute_force_cut(ctx.g, f), "all_values")
