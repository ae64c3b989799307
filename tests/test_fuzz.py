"""A seeded mutational fuzz of `acorn check` over the corpus `.acorn` files.

Each case deletes, duplicates or swaps tokens of a corpus module and runs
`cli.main(["check", path])` in the same process. Whatever the edit, the
command must end in a defined result: exit 0, 1 or 2, no exception, and at
most one `error:` line."""

import random

import pytest

from acorncore.cli import main
from acorncore.programs import corpus_dir

from oracles import token_spans

CASES_PER_FILE = 40
MODULES = sorted(corpus_dir().glob("*.acorn"))


def _mutate(text, spans, rng):
    # one to three edits, each a deletion, a duplication or a swap of tokens
    for _ in range(rng.randint(1, 3)):
        (a, b), (c, d) = sorted(rng.sample(spans, 2))
        edit = rng.choice(("delete", "duplicate", "swap"))
        if edit == "delete":
            text = text[:a] + text[b:]
        elif edit == "duplicate":
            text = text[:b] + " " + text[a:b] + text[b:]
        else:
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        spans = token_spans(text)
    return text


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_check_of_an_edited_module_ends_in_a_defined_result(module, tmp_path, capsys):
    rng = random.Random(f"check {module.name}")
    source = module.read_text()
    spans = token_spans(source)
    path = tmp_path / module.name
    codes = set()
    for i in range(CASES_PER_FILE):
        text = _mutate(source, spans, rng)
        path.write_text(text)
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        errors = [l for l in (out + err).splitlines() if l.startswith("error:")]
        assert code in (0, 1, 2), (i, text)
        assert len(errors) <= (code != 0), (i, errors)
        codes.add(code)
    assert codes & {1, 2}  # the edits reach the checker's error paths
