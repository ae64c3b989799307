"""Seeded mutational fuzzes of the command line, run through `cli.main` in
the same process.

- `acorn check` over the corpus `.acorn` files, each case deleting,
  duplicating or swapping tokens;
- `check`, `run` and `translate` over the corpus JSON modules, and `chain`
  over the packaged scenarios, each case replacing a scalar, dropping a
  key, truncating the text or inserting a byte that is not UTF-8;
- `run stdlib` with a random entry, random argument tokens and a fuel from
  below zero to far past Python's recursion limit.

Whatever the input, the command must end in a defined result: exit 0, 1 or
2, no exception, and at most one `error:` line."""

import json
import random

import pytest

from acorncore.cli import main
from acorncore.programs import corpus_dir, load_module, scenario_dir

from oracles import token_spans

CASES_PER_FILE = 40
MODULES = sorted(corpus_dir().glob("*.acorn"))
JSON_MODULES = [corpus_dir() / "counter.json", corpus_dir() / "listops.json"]
SCENARIOS = sorted(scenario_dir().glob("*.json"))
JSON_CASES_PER_FILE = 60
SCENARIO_CASES_PER_FILE = 600
RUN_CASES = 300

# what a replaced scalar becomes, as JSON text: 1e400 reads as infinity
LITERALS = ("-1", "0", str(2**70), "1e400", "1.5", "true", "null", '"7"', "[]", "{}")
HOLE = "\x00hole"


def _run_defined(argv, capsys):
    """Run the command and check that its result is a defined one."""
    code = main(argv)
    out, err = capsys.readouterr()
    errors = [l for l in (out + err).splitlines() if l.startswith("error:")]
    assert code in (0, 1, 2), argv
    assert len(errors) <= (code != 0), (argv, errors)
    return code


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


def _slots(node):
    """(container, key) of every value under `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _mutate_json(source, rng):
    """`source` with one edit, as bytes: a scalar replaced by one of
    LITERALS, a key dropped, the text truncated or a 0xff byte inserted."""
    edit = rng.choice(("replace", "drop", "truncate", "byte"))
    data = source.encode()
    if edit == "truncate":
        return data[: rng.randrange(len(data))]
    if edit == "byte":
        i = rng.randrange(len(data) + 1)
        return data[:i] + b"\xff" + data[i:]
    tree = json.loads(source)
    slots = list(_slots(tree))
    if edit == "replace":
        parent, key = rng.choice([(p, k) for p, k in slots if not isinstance(p[k], (dict, list))])
        parent[key] = HOLE
        return json.dumps(tree).replace(json.dumps(HOLE), rng.choice(LITERALS)).encode()
    parent, key = rng.choice([(p, k) for p, k in slots if isinstance(p, dict)])
    del parent[key]
    return json.dumps(tree).encode()


@pytest.mark.parametrize("module", JSON_MODULES, ids=lambda p: p.stem)
def test_an_edited_json_module_ends_in_a_defined_result(module, tmp_path, capsys):
    rng = random.Random(f"json {module.name}")
    source = module.read_text(encoding="utf-8")
    entries = [name for name, _ in load_module(str(module))[1]]
    path = tmp_path / module.name
    codes = set()
    for _ in range(JSON_CASES_PER_FILE):
        path.write_bytes(_mutate_json(source, rng))
        codes.add(_run_defined(["check", str(path)], capsys))
        codes.add(_run_defined(["run", str(path), "--entry", rng.choice(entries)], capsys))
        codes.add(_run_defined(["translate", str(path)], capsys))
    assert codes >= {0, 2}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_an_edited_scenario_ends_in_a_defined_result(scenario, tmp_path, capsys):
    rng = random.Random(f"scenario {scenario.name}")
    source = scenario.read_text(encoding="utf-8")
    path = tmp_path / scenario.name
    codes = set()
    for _ in range(SCENARIO_CASES_PER_FILE):
        path.write_bytes(_mutate_json(source, rng))
        codes.add(_run_defined(["chain", "--scenario", str(path), "--blocks", "3"], capsys))
    assert codes >= {0, 2}


def test_run_of_stdlib_with_random_arguments_ends_in_a_defined_result(capsys):
    rng = random.Random("run stdlib")
    source = (corpus_dir() / "stdlib.acorn").read_text(encoding="utf-8")
    tokens = sorted({source[a:b] for a, b in token_spans(source)})
    entries = [name for name, _ in load_module("stdlib")[1]] + ["nowhere"]
    codes = set()
    for _ in range(RUN_CASES):
        args = " ".join(rng.choices(tokens, k=rng.randint(0, 5)))
        fuel = rng.choice((-1, 0, 1, 5, 10**6))
        argv = ["run", "stdlib", "--entry", rng.choice(entries), f"--args={args}", f"--fuel={fuel}"]
        codes.add(_run_defined(argv, capsys))
    assert codes >= {0, 1, 2}
