import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from surfcut import cli, solver
from surfcut.balance import quotient
from surfcut.cover import dump_walks
from surfcut.construct import random_planar
from surfcut.embedding import format_embedding, parse_embedding
from surfcut.oracle import OracleReport
from surfcut.solver import CutResult, SolveContext, SolverError

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(*argv):
    return cli.run(cli.parse_args(list(argv)))


def test_text_output_frozen(capsys):
    assert run_cli(str(CORPUS_DIR / "c4.emb")) == 0
    out = capsys.readouterr().out
    assert out == (
        "genus: 0\n"
        "f: quotient\n"
        "value: 4/1\n"
        "cut_size: 2\n"
        "balance: 1/2\n"
        "expansion: 1/1\n"
        "S: 0 3\n"
    )


def test_usage_error_exits_2(capsys):
    # argparse rejects the command line before any input is read
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["--root", "x", "in.emb"])
    assert err.value.code == 2
    assert "surfcut: error:" in capsys.readouterr().err


def test_expansion_prints_identity_line(capsys):
    assert run_cli(str(CORPUS_DIR / "c6.emb"), "--f", "expansion") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "identity: value = n * expansion (4/1 = 6 * 2/3)" in lines


def test_json_payload(capsys):
    assert run_cli(str(CORPUS_DIR / "k4_torus.emb"), "--json", "--oracle") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "genus", "f", "value", "cut_size", "balance", "expansion", "S",
        "oracle_value", "agree",
    }
    assert payload["genus"] == 1
    assert payload["value"] == "8/1"
    assert payload["agree"] is True
    assert all(isinstance(v, int) for v in payload["S"])


def test_json_is_byte_deterministic(capsys):
    run_cli(str(CORPUS_DIR / "k5_torus.emb"), "--json")
    first = capsys.readouterr().out
    run_cli(str(CORPUS_DIR / "k5_torus.emb"), "--json")
    assert capsys.readouterr().out == first


def test_oracle_agreement(capsys):
    assert run_cli(str(CORPUS_DIR / "c5.emb"), "--oracle", "--f", "density") == 0
    assert "agreement: AGREE" in capsys.readouterr().out


def test_custom_balance_file(tmp_path, capsys):
    p = tmp_path / "f.txt"
    p.write_text("0 0\n1/4 1/3\n1/2 1/2\n", encoding="utf-8")
    assert run_cli(str(CORPUS_DIR / "c6.emb"), "--f", f"custom:{p}") == 0
    assert "value: 4/1" in capsys.readouterr().out


def test_dump_walks(tmp_path, capsys):
    out = tmp_path / "walks.txt"
    assert run_cli(str(CORPUS_DIR / "k2.emb"), "--dump-walks", str(out)) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == "-1 1 1\n0 0\n1 1 0\n"


def test_dump_walks_builds_the_cover_once(tmp_path, monkeypatch, capsys):
    # the dump writes the full depth-m table and the solve reads it at its own depth
    depths = []
    build = solver.shortest_tagged_walks

    def counted(dual, w, system, depth, usable=False):
        depths.append(depth)
        return build(dual, w, system, depth, usable)

    monkeypatch.setattr(solver, "shortest_tagged_walks", counted)
    g = parse_embedding((CORPUS_DIR / "k5_torus.emb").read_text(encoding="utf-8"))
    out = tmp_path / "walks.txt"
    assert run_cli(str(CORPUS_DIR / "k5_torus.emb"), "--dump-walks", str(out)) == 0
    capsys.readouterr()
    assert depths == [g.m]
    ctx = SolveContext(g)
    assert out.read_text(encoding="utf-8") == dump_walks(ctx.cover)
    assert ctx.solve_detailed(quotient()).depth < g.m


def test_nondefault_root(capsys):
    assert run_cli(str(CORPUS_DIR / "c4.emb"), "--root", "2") == 0
    assert "value: 4/1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("no_such_file.emb",),
        (str(CORPUS_DIR / "c4.emb"), "--f", "entropy"),
        (str(CORPUS_DIR / "c4.emb"), "--root", "9"),
        (str(CORPUS_DIR / "c4.emb"), "--dump-walks", str(CORPUS_DIR / "no_such_dir" / "walks.txt")),
    ],
    ids=["missing-file", "bad-balance", "bad-root", "unwritable-dump"],
)
def test_input_errors_exit_1(argv, capsys):
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


def test_malformed_embedding_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.emb"
    p.write_text("vertices 2\nedge 0 0\n", encoding="utf-8")
    assert run_cli(str(p)) == 1
    assert "error:" in capsys.readouterr().err


def test_rot_line_without_vertex_exits_1(tmp_path, capsys):
    p = tmp_path / "bare_rot.emb"
    p.write_text("vertices 2\nedge 0 1\nrot\n", encoding="utf-8")
    assert run_cli(str(p)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: rot line 'rot' names no vertex\n"


def test_all_zero_custom_profile_exits_1(tmp_path, capsys):
    p = tmp_path / "zero.txt"
    p.write_text("0 0\n", encoding="utf-8")
    assert run_cli(str(CORPUS_DIR / "k4.emb"), "--f", f"custom:{p}") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_exponent_in_custom_profile_exits_1(tmp_path, capsys):
    p = tmp_path / "exp.txt"
    p.write_text("0 0\n1/2 1e3\n", encoding="utf-8")
    assert run_cli(str(CORPUS_DIR / "k4.emb"), "--f", f"custom:{p}") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: bad rational in line '1/2 1e3': write p/q, an integer or a decimal, no exponent\n"
    )


def test_oracle_disagreement_exits_3(monkeypatch, capsys):
    real = cli.brute_force_cut

    def skewed(g, f, cap=16):
        report = real(g, f, cap)
        fake = CutResult(
            S=report.best.S,
            cut_size=report.best.cut_size,
            balance=report.best.balance,
            value=report.best.value + Fraction(1),
            expansion=report.best.expansion,
        )
        return OracleReport(best=fake)

    monkeypatch.setattr(cli, "brute_force_cut", skewed)
    assert run_cli(str(CORPUS_DIR / "c4.emb"), "--oracle") == 3
    assert "agreement: DISAGREE" in capsys.readouterr().out


def test_oracle_past_its_cap_exits_1_before_solving(tmp_path, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(SolveContext, "solve", lambda self, f: solves.append(f))
    p = tmp_path / "planar17.emb"
    p.write_text(format_embedding(random_planar(17, 2, seed=1)), encoding="utf-8")
    assert run_cli(str(p), "--oracle") == 1
    out, err = capsys.readouterr()
    assert out == "" and solves == []
    assert err == "error: brute force capped at 16 vertices, graph has 17\n"


def test_bad_root_exits_1_before_the_oracle(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "brute_force_cut", lambda *args: calls.append(args))
    p = tmp_path / "planar16.emb"
    p.write_text(format_embedding(random_planar(16, 2, seed=1)), encoding="utf-8")
    assert run_cli(str(p), "--oracle", "--root", "99") == 1
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    assert err == "error: root 99 out of range for 16 vertices\n"


def test_solver_error_exits_4(monkeypatch, capsys):
    def broken(self, f):
        raise SolverError("recovered cut scores worse than its chain")

    monkeypatch.setattr(SolveContext, "solve_detailed", broken)
    path = str(CORPUS_DIR / "c4.emb")
    assert run_cli(path, "--json") == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: recovered cut scores worse than its chain\n"


HEADERS = ["vertices", "vertices 0", "vertices 1", "vertices x", "edges 4", "vertices 3 3"]


def _mutate_embedding(rng, lines):
    """One seeded damage to an embedding file's lines."""
    lines = list(lines)
    kind = rng.randrange(6)
    i = rng.randrange(len(lines))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        j = rng.randrange(i, len(lines)) + 1
        lines[i:j] = rng.sample(lines[i:j], j - i)
    elif kind == 3:
        tokens = lines[i].split(" ")
        numbers = [j for j, t in enumerate(tokens) if t.rstrip(":").isdigit()]
        if numbers:
            j = rng.choice(numbers)
            tokens[j] = str(rng.randrange(-1, 12)) + (":" if tokens[j].endswith(":") else "")
        lines[i] = " ".join(tokens)
    elif kind == 4:
        lines.insert(i, f"edge {rng.randrange(-1, 6)} {rng.randrange(-1, 6)}")
    else:
        lines[1] = rng.choice(HEADERS)
    return "\n".join(lines) + "\n"


PROFILE_TOKENS = ["1/0", "nan", "1e5", "0x10", "-1", "", "inf", "1/-2", "0.5", "2", "1/3", "0"]


def _mutate_profile(rng):
    """The README custom profile with one or two fields swapped for odd tokens."""
    rows = [["0", "0"], ["1/4", "1/3"], ["1/2", "1/2"]]
    for _ in range(rng.randrange(1, 3)):
        rows[rng.randrange(3)][rng.randrange(2)] = rng.choice(PROFILE_TOKENS)
    return "".join(" ".join(row) + "\n" for row in rows)


def test_mutated_inputs_exit_with_one_error_line(tmp_path, capsys):
    # every bad input, however it is broken, ends in one `error:` line and no traceback
    rng = random.Random(30)
    emb, profile = tmp_path / "mutant.emb", tmp_path / "profile.txt"
    names = ["c4", "k4", "diamond", "theta_torus", "k4_torus", "banana4", "digon", "k23"]
    sources = [(CORPUS_DIR / f"{name}.emb").read_text(encoding="utf-8") for name in names]
    # a corpus file opens with a comment line, then the vertices line
    cases = [(_mutate_embedding(rng, rng.choice(sources).splitlines()), None) for _ in range(240)]
    cases += [(rng.choice(sources), _mutate_profile(rng)) for _ in range(160)]
    codes = []
    for text, prof in cases:
        emb.write_text(text, encoding="utf-8")
        argv = [str(emb)]
        if prof is not None:
            profile.write_text(prof, encoding="utf-8")
            argv += ["--f", f"custom:{profile}"]
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 3, 4), (text, prof)
        if code:
            assert out == "", (text, prof)
            assert err.startswith("error: ") and err.count("\n") == 1, (text, prof, err)
        codes.append(code)
    # both kinds of mutant make valid and invalid inputs
    assert 0 in codes[:240] and 1 in codes[:240]
    assert 0 in codes[240:] and 1 in codes[240:]
