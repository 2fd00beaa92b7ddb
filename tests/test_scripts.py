"""Smoke tests of the corpus scripts, whose outputs compare two versions of surfcut."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# scripts/run_corpus.py without its timing line, trailing blanks stripped
RUN_CORPUS_TABLE = """\
name                n    m    g   D    OPT*F  states   quotient      density       expansion
k2                  2    1    0   1    1      2        2/1           4/1           2/1
digon               2    2    0   2    2      3        4/1           8/1           4/1
theta               2    3    0   3    3      4        6/1           12/1          6/1
banana4             2    4    0   4    4      5        8/1           16/1          8/1
p3                  3    2    0   1    1      2        3/1           9/2           3/1
p4                  4    3    0   1    1      2        2/1           4/1           2/1
star5               5    4    0   2    2      3        5/1           25/4          5/1
tree7               7    6    0   1    1      2        7/3           49/12         7/3
c3                  3    3    0   2    2      4        6/1           9/1           6/1
c4                  4    4    0   2    2      5        4/1           8/1           4/1
c5                  5    5    0   2    2      6        5/1           25/3          5/1
c6                  6    6    0   2    2      7        4/1           8/1           4/1
c7                  7    7    0   2    2      8        14/3          49/6          14/3
k4                  4    6    0   4    4      14       8/1           16/1          8/1
diamond             4    5    0   3    3      11       6/1           32/3          6/1
k4_doubled          4    7    0   4    4      12       8/1           16/1          8/1
k23                 5    6    0   3    3      12       15/2          25/2          15/2
w5                  5    8    0   4    4      16       10/1          50/3          10/1
w6                  6    10   0   5    5      29       10/1          18/1          10/1
prism3              6    9    0   3    3      11       6/1           12/1          6/1
octahedron          6    12   0   6    6      45       12/1          24/1          12/1
apollonian7         7    15   0   7    7      62       49/3          49/2          49/3
apollonian9_del     9    17   0   5    5      34       45/4          18/1          45/4
apollonian12_del    12   25   0   6    6      60       12/1          144/11        12/1
k4_torus            4    6    1   4    4      100      8/1           16/1          8/1
k5_torus            5    10   1   6    6      252      15/1          25/1          15/1
k33_torus           6    9    1   5    5      246      10/1          18/1          10/1
theta_torus         2    3    1   3    3      16       6/1           12/1          6/1
banana24_torus      2    4    1   4    4      22       8/1           16/1          8/1
grid23_torus        6    12   1   6    6      192      12/1          18/1          12/1
grid33_torus        9    18   1   8    8      852      18/1          27/1          18/1
banana25_g2         2    5    2   5    5      404      10/1          20/1          10/1
series33_g2         3    6    2   3    3      76       9/1           27/2          9/1
c4_doubled_g2       4    8    2   4    4      249      8/1           16/1          8/1
k5_g2               5    10   2   6    6      1944     15/1          25/1          15/1
summed D: 129, summed OPT*F: 129
"""


def test_run_corpus_table():
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_corpus.py")], capture_output=True, text=True, check=True
    )
    lines = [line.rstrip() for line in run.stdout.splitlines()]
    assert "\n".join(lines[:-1]) + "\n" == RUN_CORPUS_TABLE
    assert lines[-1].startswith("done: 35 instances in ") and run.stderr == ""


def test_corpus_outputs_on_two_files(tmp_path, monkeypatch, manifest):
    spec = importlib.util.spec_from_file_location("corpus_outputs", SCRIPTS / "corpus_outputs.py")
    corpus_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus_outputs)
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    out.mkdir()
    monkeypatch.chdir(work)
    items = [item for item in manifest if item["name"] in ("k4", "k4_torus")]
    codes = corpus_outputs.write_outputs(items, out)
    # per file and profile: a text run with its walk dump, and a JSON run
    assert len([p for p in out.rglob("*") if p.is_file()]) == 24
    assert len(codes) == 16 and all(line.endswith(" 0 ''") for line in codes)
    for item in items:
        for label in corpus_outputs.PROFILES:
            assert (out / item["name"] / f"{label}.walks").read_text(encoding="utf-8"), (item["name"], label)


def test_bench_pairs_summary_on_fixed_numbers():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = [{"wall_s": x, "raw.setup_s": 2.0, "cuts": 5.0} for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"wall_s": x, "raw.setup_s": 2.0, "cuts": y}
              for x, y in zip((0.5, 1.5, 2.5, 3.5, 5.5), (6.0, 6.0, 6.0, 6.0, 4.0))]
    rows = bench_pairs.summarize(parent, change, {"wall_s": True, "cuts": False})
    wall, raw, cuts = rows
    assert wall["metric"] == "wall_s" and wall["pairs"] == 5
    assert wall["parent"] == (2.0, 3.0, 4.0) and wall["change"] == (1.5, 2.5, 3.5)
    assert wall["won"] == 4 and wall["ratio"] == 2.5 / 3.0
    # 4 of 5 pairs is under nine tenths, and a 0.5 gap is inside the parent's IQR of 2
    assert not wall["claim"]
    assert raw["won"] == 0 and not raw["claim"]
    # higher-better: 4 of 5 won; only 5/5 with a gap past the IQR would meet the rule
    assert cuts["won"] == 4 and cuts["parent"] == (5.0, 5.0, 5.0) and not cuts["claim"]
    rows = bench_pairs.summarize(parent[:1] * 10, [{**change[0], "cuts": 6.0}] * 10, {"cuts": False})
    assert [r["claim"] for r in rows] == [True, False, True]
    assert len(bench_pairs.format_rows(rows)) == 4


def test_bench_counters_repeat(tmp_path):
    # two runs of 7 repeats each on two corpus files: the same counters, and
    # --diff finds no drift
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        subprocess.run(
            [sys.executable, str(SCRIPTS / "bench.py"), "--only", "corpus:k4", "corpus:k5_torus", "--out", str(out)],
            capture_output=True, text=True, check=True,
        )
    first, second = (json.loads(out.read_text(encoding="utf-8")) for out in outs)
    counters = [[(row["name"], row["counters"]) for row in report["instances"]] for report in (first, second)]
    assert counters[0] == counters[1] == [
        ("corpus:k4", {"D": [4], "cover_states": 70, "tags": 7, "candidates": 6}),
        ("corpus:k5_torus", {"D": [6], "cover_states": 1009, "tags": 57, "candidates": 30}),
    ]
    assert all(list(row["times_s"]) == first["stages"] for row in first["instances"])
    diff = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "--diff", *map(str, outs)], capture_output=True, text=True
    )
    assert diff.returncode == 0 and "counters differ" not in diff.stdout
