"""The binding structure of both trees, declared once in `lang.BINDERS` and
`kernel.BINDERS`, and the walkers `lang.binder_walker` generates from it.

Each table lists every field that holds a child node, a tuple of them or a
tuple of branches, and no other field, in the shape the field's annotation
has. Which counts are right is left to the walkers' own tests, which
substitute under every binder."""

import re
import traceback
from dataclasses import fields

import pytest

from acorncore import interp, kernel as k, lang as L

from test_dispatch import Open, concrete

# an annotation that names a node of the tree
NODE = re.compile(r"\b(Ty|Expr|Term)\b")


def _is_count(n, tag_code=False):
    if tag_code and type(n) is str:
        return n == "len(p.binders)"
    return type(n) is int and n >= 0


@pytest.mark.parametrize(
    "bases, table",
    [((L.Ty, L.Expr), L.BINDERS), ((k.Term,), k.BINDERS)],
    ids=["surface", "kernel"],
)
def test_the_table_lists_every_child_field_and_no_other(bases, table):
    classes = set().union(*(concrete(b) for b in bases))
    assert set(table) <= classes
    for cls in classes:
        entry = table.get(cls, {})
        held = {f.name: f.type for f in fields(cls) if NODE.search(f.type)}
        assert set(entry) == set(held), cls
        for name, annotation in held.items():
            n = entry[name]
            if annotation.startswith("tuple["):
                # a tuple of children, or of (tag, child) branches: `(n, ...)`,
                # where a branch's `n` may be code over its tag `p`
                branches = annotation.startswith("tuple[tuple[")
                assert type(n) is tuple and n[1:] == (...,), (cls, name)
                assert _is_count(n[0], tag_code=branches), (cls, name)
            else:
                assert _is_count(n), (cls, name)


# each walker, and a call of it that reaches its dispatch with a foreign object
WALKERS = {
    "acorncore.lang.footprint": (L.footprint, lambda: L.footprint(object())),
    "acorncore.interp._subst": (interp._subst, lambda: interp._subst((), 0, Open())),
    "acorncore.kernel.term_bound": (k.term_bound, lambda: k.term_bound(object())),
    "acorncore.kernel._subst": (k._subst, lambda: k._subst((), 0, 0, Open())),
}


@pytest.mark.parametrize("name", WALKERS)
def test_a_generated_walker_reads_as_a_function_of_its_module(name):
    walker, call = WALKERS[name]
    assert f"{walker.__module__}.{walker.__qualname__}" == name
    assert walker.__code__.co_filename == f"<binder_walker {name}>"
    # a traceback shows the generated walker's line that raised
    with pytest.raises(TypeError) as info:
        call()
    last = traceback.extract_tb(info.tb)[-1]
    assert (last.filename, last.name) == (f"<binder_walker {name}>", walker.__name__)
    assert last.line.startswith("raise TypeError(")
