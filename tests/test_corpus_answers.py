"""The answer on every corpus instance, frozen for four balance profiles.

`data/corpus_answers.json` holds value, cut size and S per instance for
quotient, density, expansion and the README's custom profile.  A change
that is meant to keep every answer must leave this test passing; one that
changes an answer on purpose regenerates the file with

    PYTHONPATH=src python tests/test_corpus_answers.py
"""

import json
from pathlib import Path

import pytest

from surfcut.balance import density, make_balance, parse_custom, quotient

DATA = Path(__file__).resolve().parent / "data" / "corpus_answers.json"
PROFILES = {
    "quotient": quotient(),
    "density": density(),
    "expansion": make_balance("expansion"),
    "custom": parse_custom("0 0\n1/4 1/3\n1/2 1/2\n"),
}
ANSWERS = json.loads(DATA.read_text(encoding="utf-8"))


def answers_of(ctx) -> dict:
    out = {}
    for kind, f in PROFILES.items():
        r = ctx.solve(f)
        out[kind] = {"value": f"{r.value.numerator}/{r.value.denominator}", "cut_size": r.cut_size, "S": list(r.S)}
    return out


def test_every_manifest_entry_is_frozen(manifest):
    assert list(ANSWERS) == [item["name"] for item in manifest]


@pytest.mark.parametrize("name", list(ANSWERS))
def test_corpus_answers_frozen(name, corpus_contexts):
    assert answers_of(corpus_contexts[name]) == ANSWERS[name]


if __name__ == "__main__":
    from surfcut.embedding import parse_embedding
    from surfcut.solver import SolveContext

    corpus = DATA.parent.parent.parent / "corpus"
    frozen = {}
    for item in json.loads((corpus / "manifest.json").read_text(encoding="utf-8")):
        g = parse_embedding((corpus / item["file"]).read_text(encoding="utf-8"))
        frozen[item["name"]] = answers_of(SolveContext(g))
    rows = [f"{json.dumps(name)}: {json.dumps(a)}" for name, a in frozen.items()]
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
