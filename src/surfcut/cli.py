"""Command line front end: solve one embedding file, optionally cross-check.

Exit codes: 0 on success (and oracle agreement), 3 when the oracle check was
requested and disagrees, 1 for any input problem, 4 when one of the solver's
self-checks fails (a SolverError; its error line names the input file), and
2 when argparse rejects the command line (a usage line, then a
"surfcut: error:" line).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from surfcut.balance import make_balance
from surfcut.cover import dump_walks
from surfcut.embedding import parse_embedding
from surfcut.oracle import brute_force_cut
from surfcut.solver import SolveContext, SolverError


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="surfcut",
        description="Exact minimum quotient cuts of multigraphs embedded on orientable surfaces.",
    )
    p.add_argument("input_path", metavar="input", help="embedding file (vertices / edge / rot lines)")
    p.add_argument(
        "--f",
        default="quotient",
        help="balance function: quotient, density, expansion, or custom:<path>",
    )
    p.add_argument("--root", type=int, default=0, help="root vertex for the weight tree")
    p.add_argument(
        "--oracle", action="store_true", help="cross-check against brute force (at most 16 vertices)"
    )
    p.add_argument("--json", action="store_true", dest="as_json", help="print a JSON report")
    p.add_argument(
        "--dump-walks", metavar="PATH", dest="dump_walks_path", help="write the tagged walk table to PATH"
    )
    return p


def parse_args(argv: list[str]) -> argparse.Namespace:
    return _parser().parse_args(argv)


def run(cfg: argparse.Namespace) -> int:
    try:
        text = Path(cfg.input_path).read_text(encoding="utf-8")
        g = parse_embedding(text)
        f = make_balance(cfg.f)
        ctx = SolveContext(g, cfg.root)
        # the oracle goes first, so a graph past its cap fails before the solve
        report = brute_force_cut(g, f) if cfg.oracle else None
        # the dump needs the full table; building it first lets the solve
        # read it at its own depth instead of running the cover a second time
        table = ctx.cover if cfg.dump_walks_path else None
        r = ctx.solve(f)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SolverError as e:
        print(f"error: {cfg.input_path}: {e}", file=sys.stderr)
        return 4

    if cfg.dump_walks_path:
        try:
            Path(cfg.dump_walks_path).write_text(dump_walks(table), encoding="utf-8")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1

    agree = report is not None and report.best.value == r.value

    fields = {
        "genus": ctx.genus,
        "f": cfg.f,
        "value": _frac(r.value),
        "cut_size": r.cut_size,
        "balance": _frac(r.balance),
        "expansion": _frac(r.expansion),
    }
    if cfg.as_json:
        fields["S"] = list(r.S)
        if report is not None:
            fields["oracle_value"] = _frac(report.best.value)
            fields["agree"] = agree
        print(json.dumps(fields))
    else:
        lines = [f"{key}: {value}" for key, value in fields.items()]
        if cfg.f == "expansion":
            lines.append(
                f"identity: value = n * expansion ({_frac(r.value)} = {g.n} * {_frac(r.expansion)})"
            )
        lines.append("S: " + " ".join(map(str, r.S)))
        if report is not None:
            lines.append(f"oracle_value: {_frac(report.best.value)}")
            lines.append(f"agreement: {'AGREE' if agree else 'DISAGREE'}")
        print("\n".join(lines))

    if report is not None and not agree:
        return 3
    return 0


def main():
    sys.exit(run(parse_args(sys.argv[1:])))


if __name__ == "__main__":
    main()
