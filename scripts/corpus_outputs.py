"""Write the CLI's output on every corpus instance to a directory tree.

Usage:
    python scripts/corpus_outputs.py OUTDIR

For each corpus file and each of quotient, density, expansion and the README
custom profile (breakpoints 0 0, 1/4 1/3, 1/2 1/2) it runs the CLI twice and
writes, under OUTDIR/<name>/:
    <profile>.txt    the text output of a run with --dump-walks
    <profile>.walks  the walk table that run dumped
    <profile>.json   the output of a --json --oracle run
OUTDIR/exit_codes.txt lists every run's exit code and stderr.  The runs
see the same relative paths from any checkout, so `diff -r` of two
OUTDIRs shows exactly where two versions of surfcut differ.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from surfcut import cli

PROFILES = {
    "quotient": "quotient",
    "density": "density",
    "expansion": "expansion",
    "custom": "custom:profile.txt",
}
CUSTOM_PROFILE = "0 0\n1/4 1/3\n1/2 1/2\n"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(cli.parse_args(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def write_outputs(manifest: list[dict], outdir: Path) -> list[str]:
    """Run every corpus file and profile from the current directory; one line per run."""
    Path("profile.txt").write_text(CUSTOM_PROFILE, encoding="utf-8")
    codes = []
    for item in manifest:
        shutil.copy(ROOT / "corpus" / item["file"], item["file"])
        target = outdir / item["name"]
        target.mkdir(exist_ok=True)
        for label, spec in PROFILES.items():
            runs = {
                "txt": [item["file"], "--f", spec, "--dump-walks", "walks.txt"],
                "json": [item["file"], "--f", spec, "--json", "--oracle"],
            }
            for ext, argv in runs.items():
                code, out, err = run_cli(argv)
                (target / f"{label}.{ext}").write_text(out, encoding="utf-8")
                codes.append(f"{item['name']} {label} {ext} {code} {err!r}")
            walks = Path("walks.txt")
            (target / f"{label}.walks").write_bytes(walks.read_bytes() if walks.exists() else b"")
            walks.unlink(missing_ok=True)
    return codes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory to write the outputs to")
    outdir = Path(ap.parse_args().outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = json.loads((ROOT / "corpus" / "manifest.json").read_text(encoding="utf-8"))
    # inputs and the profile go by relative names, so no checkout path
    # reaches the outputs
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            codes = write_outputs(manifest, outdir)
        finally:
            os.chdir(home)
    (outdir / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    print(f"{len(codes)} runs on {len(manifest)} corpus files written to {outdir}")

if __name__ == "__main__":
    main()
