"""The three workloads: seeded inputs, the requests of one pass, answer checks.

Each workload puts a different stage of surfcut on the critical path:

* planar-cover: the covering BFS (cover.build), one fresh solve per graph.
* genus2-multi-f: combine, four balance functions read one cached cover.
* oracle-cli: the brute-force oracle, through `cli.run` with --oracle.

Solve cost varies several-fold between random graphs of the same size, so
planar-cover and genus2-multi-f draw their graphs once from a fixed family
seed and let --seed pick a random isomorphic copy of each (vertex 0, the
root, stays put; other vertices, edge order and edge directions are
shuffled).  The work per run is then the same for every seed.  oracle-cli
draws fresh graphs from --seed: the oracle's cost depends only on n and m.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

MODULES = ("embedding", "dual", "homology", "cover", "balance", "solver", "oracle", "cli", "construct")

CUSTOM_BREAKPOINTS = ((Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)))
CUSTOM_TEXT = "".join(f"{x} {y}\n" for x, y in CUSTOM_BREAKPOINTS)

# the balance function each spec names, restated for the checks
REFERENCE_F = {
    "quotient": ref.quotient,
    "expansion": ref.quotient,
    "density": ref.density,
    "custom": ref.piecewise(CUSTOM_BREAKPOINTS),
}


def load_surfcut(src: Path) -> dict:
    """Import surfcut afresh from `src`, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "surfcut" or m.startswith("surfcut.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"surfcut.{name}") for name in MODULES}
    origin = Path(mods["solver"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"surfcut was loaded from {origin}, not from {src}")
    return mods


@dataclass
class Instance:
    graph: object
    params: dict
    path: Path | None = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        g = self.graph
        return [(g.tails[2 * e], g.heads[2 * e]) for e in range(g.m)]


@dataclass
class Request:
    instance: int
    f: str
    run: Callable[[], object]


@dataclass
class Inputs:
    instances: list[Instance]
    balance: dict = field(default_factory=dict)
    custom_path: Path | None = None


def _derive(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _family_rng(workload) -> random.Random:
    """Draws the graph family; fixed, so that every seed solves the same shapes."""
    return random.Random(f"{workload.name}:family:{workload.params['family_seed']}")


def _write_custom(workdir: Path) -> Path:
    path = workdir / "custom.txt"
    path.write_text(CUSTOM_TEXT, encoding="utf-8")
    return path


def _library_answer(result) -> tuple[Fraction, tuple, int, list[str]]:
    return result.value, tuple(result.S), result.cut_size, []


class PlanarCover:
    name = "planar-cover"
    entry = "library: SolveContext(g).solve(quotient), a fresh context per request"
    params = {"n": [16, 17, 18, 19, 20], "deletions": [0, 1, 2, 3, 4], "family_seed": 1, "f": ["quotient"]}
    min_passes = 2
    root_span = "solver.request"

    def setup(self, mods, seed: int, workdir: Path) -> Inputs:
        family = _family_rng(self)
        rng = _derive(self.name, seed)
        instances = []
        for n in self.params["n"]:
            for d in self.params["deletions"]:
                g = mods["construct"].random_planar(n, d, family.randrange(1 << 31))
                instances.append(Instance(relabel(mods, g, rng), {"n": n, "deletions": d}))
        return Inputs(instances, {"quotient": mods["balance"].make_balance("quotient")})

    def requests(self, mods, inputs: Inputs) -> list[Request]:
        ctx_cls = mods["solver"].SolveContext
        f = inputs.balance["quotient"]
        return [Request(i, "quotient", lambda g=inst.graph: ctx_cls(g).solve(f))
                for i, inst in enumerate(inputs.instances)]

    answer = staticmethod(_library_answer)


def relabel(mods, g, rng: random.Random):
    """An isomorphic copy with vertex 0 kept, other vertices, edges and edge directions shuffled."""
    perm = [0] + rng.sample(range(1, g.n), g.n - 1)
    eperm = rng.sample(range(g.m), g.m)
    flip = [rng.randrange(2) for _ in range(g.m)]
    dmap = [2 * eperm[d >> 1] + ((d & 1) ^ flip[d >> 1]) for d in range(g.num_darts)]
    tails, heads, rot = [0] * g.num_darts, [0] * g.num_darts, [0] * g.num_darts
    for d, nd in enumerate(dmap):
        tails[nd] = perm[g.tails[d]]
        heads[nd] = perm[g.heads[d]]
        rot[nd] = dmap[g.rotation[d]]
    return mods["embedding"].EmbeddedGraph(n=g.n, tails=tuple(tails), heads=tuple(heads), rotation=tuple(rot))


def random_multigraph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected loopless multigraph: a random tree plus random extra edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.append((u, v))
    rng.shuffle(edges)
    return edges


class Genus2MultiF:
    name = "genus2-multi-f"
    entry = "library: one SolveContext per graph, solved for quotient, density, expansion, custom"
    # (n, m) of each family member; all need m >= n + 3 to reach genus 2.
    # Members with n = 4 or 5 take 4 to 30 s each and would not fit a run.
    params = {"n_m": [[3, 7], [3, 8], [3, 9], [3, 7], [3, 8]], "family_seed": 1,
              "f": ["quotient", "density", "expansion", "custom"]}
    # a quarter of the requests build the cover; 60 samples put the tail at
    # p80, inside that group rather than on its edge
    min_passes = 3
    root_span = "solver.request"

    def family(self, mods) -> list:
        rng = _family_rng(self)
        graphs = []
        for n, m in self.params["n_m"]:
            while True:
                edges = random_multigraph(rng, n, m)
                try:
                    graphs.append(mods["construct"].find_embedding(n, edges, 2))
                    break
                except mods["embedding"].EmbeddingError:
                    continue
        return graphs

    def setup(self, mods, seed: int, workdir: Path) -> Inputs:
        rng = _derive(self.name, seed)
        instances = [Instance(relabel(mods, g, rng), {"n": g.n, "m": g.m}) for g in self.family(mods)]
        custom = _write_custom(workdir)
        make = mods["balance"].make_balance
        balance = {f: make(f) for f in self.params["f"] if f != "custom"}
        balance["custom"] = make(f"custom:{custom}")
        return Inputs(instances, balance)

    def requests(self, mods, inputs: Inputs) -> list[Request]:
        out = []
        for i, inst in enumerate(inputs.instances):
            ctx = mods["solver"].SolveContext(inst.graph)
            for f in self.params["f"]:
                out.append(Request(i, f, lambda ctx=ctx, bf=inputs.balance[f]: ctx.solve(bf)))
        return out

    answer = staticmethod(_library_answer)


@dataclass
class CliOutput:
    code: int
    stdout: str
    dump: Path


class OracleCli:
    name = "oracle-cli"
    entry = "cli.run(parse_args([file, --json, --oracle, --f F, --dump-walks TMP]))"
    # Graph i has deletions i % 7 and balance function f[i % 3], so the 21
    # graphs cover every (deletions, f) pair once.  One n keeps the request
    # times in one group: with n = 14, 15 and 16 mixed, the oracle's 2^(n-1)
    # cuts split them into groups and p50 or p75 landed on a group's edge.
    params = {"n": 14, "deletions": 7, "graphs": 21, "f": ["quotient", "density", "custom"]}
    min_passes = 2
    root_span = "cli.run"

    def setup(self, mods, seed: int, workdir: Path) -> Inputs:
        rng = _derive(self.name, seed)
        fmt = mods["embedding"].format_embedding
        instances = []
        n = self.params["n"]
        for i in range(self.params["graphs"]):
            d = i % self.params["deletions"]
            s = rng.randrange(1 << 31)
            g = mods["construct"].random_planar(n, d, s)
            path = workdir / f"planar-{i}.emb"
            path.write_text(fmt(g), encoding="utf-8")
            instances.append(Instance(g, {"n": n, "deletions": d, "seed": s}, path))
        return Inputs(instances, custom_path=_write_custom(workdir))

    def requests(self, mods, inputs: Inputs) -> list[Request]:
        cli = mods["cli"]
        fs = self.params["f"]
        out = []
        for i, inst in enumerate(inputs.instances):
            f = fs[i % len(fs)]
            spec = f"custom:{inputs.custom_path}" if f == "custom" else f
            dump = inst.path.with_suffix(".walks")
            argv = [str(inst.path), "--json", "--oracle", "--f", spec, "--dump-walks", str(dump)]

            def run(argv=argv, dump=dump):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.run(cli.parse_args(argv))
                return CliOutput(code, buf.getvalue(), dump)

            out.append(Request(i, f, run))
        return out

    @staticmethod
    def answer(out: CliOutput) -> tuple[Fraction, tuple, int, list[str]]:
        problems = []
        if out.code != 0:
            problems.append(f"exit code {out.code}")
        payload = json.loads(out.stdout)
        value = Fraction(payload["value"])
        if payload.get("agree") is not True or Fraction(payload["oracle_value"]) != value:
            problems.append(f"oracle disagrees: {payload.get('oracle_value')} vs {payload['value']}")
        problems += check_walk_dump(out.dump.read_text(encoding="utf-8"), 2 * payload["genus"])
        return value, tuple(payload["S"]), payload["cut_size"], problems


def check_walk_dump(text: str, coords: int) -> list[str]:
    """Each dumped tag line is k, the crossing coordinates, a length, then that many darts."""
    lines = text.splitlines()
    if not lines:
        return ["walk dump is empty"]
    for line in lines:
        parts = line.split()
        if len(parts) < coords + 2 or len(parts) != coords + 2 + int(parts[coords + 1]):
            return [f"malformed walk dump line {line!r}"]
    return []


WORKLOADS = {w.name: w for w in (PlanarCover(), Genus2MultiF(), OracleCli())}
