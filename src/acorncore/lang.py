"""Core AST of the contract language.

Types, patterns, expressions, inductive declarations and the global
environment, together with the purely syntactic operations everything else
builds on: environment lookup, closedness and well-formedness checks, and
delta reduction of primitive constants.

Variables are de Bruijn indices sharing a single index space for term and
type binders; the parser resolves every name to its index as it reads it.
How many binders each child of a type or expression sits under is declared
once, in `BINDERS`. `binder_walker` compiles the compound arms of `footprint`
and `interp._subst` from it, and those of `kernel.term_bound` and
`kernel._subst` from `kernel.BINDERS`.
"""

from __future__ import annotations

import gc
import linecache
import math
import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from itertools import islice
from sys import getrefcount
from typing import Callable, Iterable, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# tree nodes

# The intern table: every live tree node under its key, the node's class and
# field values (see `tree_node`). It holds its nodes strongly; `_sweep` drops
# the entries that nothing else holds. The table keeps the order in which
# nodes were filed, children before parents.
_NODES: dict[tuple, object] = {}
_swept = 0  # the table's size after the last sweep
_lap = 0  # the older entries below this are the ones the round has yet to see


def _drop(keys: list) -> None:
    # Drop each of `keys`, given oldest first, whose node the table alone
    # holds: the table's reference plus `getrefcount`'s argument. Going
    # newest first frees a parent before its children are looked at, and
    # popping each key rather than iterating over the list lets go of a key,
    # and so of the children it names, before they are looked at.
    t = _NODES
    refs = getrefcount
    pop = keys.pop
    for _ in range(len(keys)):
        key = pop()
        if refs(t[key]) == 2:
            del t[key]


def _keys(t: dict, start: int, stop: int) -> list:
    # the keys of `t` at positions `start` to `stop`, oldest first. `islice`
    # skips every entry before the slice, so the slice is taken from
    # whichever end of the table is nearer.
    n = len(t)
    if start <= n - stop:
        return list(islice(t, start, stop))
    keys = list(islice(reversed(t), n - stop, n - start))
    keys.reverse()
    return keys


def _sweep(phase: str, info: dict) -> None:
    # Run at the start of every cyclic collection. It looks at the entries
    # filed since the last sweep, which is where most garbage is, and at as
    # many of the older ones, in a round from the newest older entry down to
    # the oldest and over again, so that a node that dies old waits at most
    # one round. A full collection (generation 2) looks at every entry, pass
    # after pass until a pass frees nothing: a cache (`_term`, `_expr`)
    # points from an older node to a newer one, which one pass frees only
    # on the next. So after `gc.collect()`, every entry is held by something
    # besides the table, unless the collection itself freed what held it.
    global _swept, _lap
    if phase != "start":
        return
    t = _NODES
    if info["generation"] == 2:
        n = -1
        while n != len(t):
            n = len(t)
            _drop(list(t))
        _lap = 0
    else:
        old = _swept
        new = len(t) - old
        _drop(_keys(t, old, len(t)))
        if _lap <= 0:
            _lap = old
        below = max(0, _lap - new)
        _drop(_keys(t, below, _lap))
        _lap = below
    _swept = len(t)


# a fresh import of this module drops the hook of the import before it,
# which would keep that import's table alive
gc.callbacks[:] = [f for f in gc.callbacks if getattr(f, "__module__", None) != __name__]
gc.callbacks.append(_sweep)


def _frozen(self: object, name: str, *value: object) -> None:
    # `__setattr__` and `__delattr__` of every node, for any name
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def _reduce(self: object) -> tuple:
    # copying or unpickling a node builds it through `__new__`, so a copy is
    # the node itself
    return type(self), tuple([getattr(self, f.name) for f in fields(self)])


def tree_node(cls: type) -> type:
    """A frozen dataclass for a tree node, built once per distinct node.

    The class's generated `__new__` looks the node up in the intern table
    `_NODES` before it builds it. The key is the class and the field values;
    a child node is already interned, so it goes in by identity and the
    lookup does not walk the tree. A field annotated `int` also keys on its
    value's type, since `True == 1` and both hash alike: `PInt(True)` is not
    `PInt(1)`. So two live nodes that are structurally equal are one object,
    and the dataclass is made with `eq=False`: `==` is `is`, `hash` is the
    identity hash, and both take constant time at any depth.

    On a miss, `__new__` stores each field, through its slot's descriptor
    where the base class declares cache slots (see `Ty`) and the node is
    made with `slots=True`, else by `object.__setattr__` into the instance
    dictionary (a literal, a kernel term). It sets every cache slot to None,
    runs `__post_init__` if there is one, and files the node. There is no
    generated `__init__`, so a hit returns the node with its caches as they
    are. Assigning or deleting any attribute raises `FrozenInstanceError`;
    caches are written with `object.__setattr__`. Defaults hold, and
    `__match_args__` is the dataclass's.

    `dataclass` generates no method here: `_frozen` does what `frozen=True`
    would, and `__repr__`, which prints what the dataclass's repr prints,
    is compiled with `__new__` in one `exec`. A class without a docstring
    gets its name as one, which spares `dataclass` the signature it would
    read to write one. The class stays a dataclass, so `fields`, `replace`
    and `__dataclass_fields__` work on it.

    The table holds its nodes strongly. `_sweep`, a `gc.callbacks` hook run
    at the start of each cyclic garbage collection, drops the nodes that only
    the table holds; so `gc.disable()` stops the sweep, and the table keeps
    every node built until the collector runs again. Copying or unpickling a
    node returns the node itself. Build nodes from one thread at a time: a
    sweep in one thread may drop a node that another has just looked up.
    """
    caches = [n for base in cls.__mro__[1:] for n in getattr(base, "__slots__", ())]
    if cls.__doc__ is None:
        cls.__doc__ = cls.__name__
    cls = dataclass(eq=False, init=False, repr=False, slots=bool(caches))(cls)
    scope: dict[str, object] = {
        "_get": _NODES.get,
        "_put": _NODES.setdefault,
        "_new": object.__new__,
        "_set": object.__setattr__,
    }
    params, key = [], ["cls"]
    for f in fields(cls):
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        key.append(f.name)
        if f.type in ("int", int):
            key.append(f"type({f.name})")
    lines = []
    for name, value in [(f.name, f.name) for f in fields(cls)] + [(n, "None") for n in caches]:
        if caches:
            scope[f"_set_{name}"] = getattr(cls, name).__set__
            lines.append(f"_set_{name}(node, {value})")
        else:
            lines.append(f"_set(node, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        lines.append("node.__post_init__()")
    # `setdefault`, so that two threads building one node file one of them
    lines.append("node = _put(key, node)")
    body = "\n        ".join(lines)
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields(cls) if f.repr)
    exec(
        f"def __new__({', '.join(['cls'] + params)}):\n"
        f"    key = ({', '.join(key)},)\n"
        f"    node = _get(key)\n"
        f"    if node is None:\n"
        f"        node = _new(cls)\n"
        f"        {body}\n"
        f"    return node\n"
        f"def __repr__(self):\n"
        f'    return f"{{type(self).__qualname__}}({shown})"',
        scope,
    )
    for name in ("__new__", "__repr__"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
    cls.__new__ = staticmethod(scope["__new__"])
    cls.__repr__ = scope["__repr__"]
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__reduce__ = _reduce
    return cls


def binder_walker(scope: dict, binders: dict, arm: str, child: tuple, source: str) -> Callable:
    """Compile the walker `source` into `scope`, its module's globals, and
    return it. `source` holds what is written by hand: the cache read, the
    leaf arms and the end of an `is` chain on `c = type(node)`. A line
    `<if A B>` or `<elif A B>` stands for the arms `c is A` and `c is B`,
    generated from their classes' entries in `binders` (see `BINDERS`):
    each is `arm` given `{children}`, the calls on the node's children, or
    `{fields}`, its fields with those calls in place of the children.
    `child` is the call on a child `{x}` under no binder and under `{n}`.
    The walker compiles as `<binder_walker module.name>`, whose lines
    `linecache` keeps for tracebacks."""
    node = re.search(r"c = type\((\w+)\)", source)[1]
    out: list[str] = []
    for line in source.splitlines():
        m = re.fullmatch(r"( *)<(if|elif) ([\w ]+)>", line)
        if m is None:
            out.append(line)
            continue
        kw = m[2]
        for name in m[3].split():
            every, kids = [], []  # the fields, and the calls on the children
            for f in fields(scope[name]):
                get, n = f"{node}.{f.name}", binders[scope[name]].get(f.name)
                if n is None:
                    every.append(get)
                    continue
                if type(n) is not tuple:
                    every.append(child[bool(n)].format(x=get, n=n))
                    kids.append(every[-1])
                    continue
                # `(n, ...)`: a tuple of children, or of (tag, child) branches
                pair = str(f.type).startswith("tuple[tuple[")
                call = child[bool(n[0])].format(x="b", n=n[0])
                loop = f" for {'p, b' if pair else 'b'} in {get}"
                every.append(f"tuple({f'(p, {call})' if pair else call}{loop})")
                kids.append(f"*({call}{loop})")
            out.append(f"{m[1]}{kw} c is {name}:")
            out.append(f"{m[1]}    " + arm.format(fields=", ".join(every), children=", ".join(kids)))
            kw = "elif"
    text = "\n".join(out)
    walker = re.search(r"def (\w+)", text)[1]
    filename = f"<binder_walker {scope['__name__']}.{walker}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    exec(compile(text, filename, "exec"), scope)
    return scope[walker]


# ---------------------------------------------------------------------------
# primitive literals

@tree_node
class PInt:
    """Arbitrary-precision signed integer (written with a `z` suffix)."""

    value: int


@tree_node
class PNat:
    """Natural number; used for addresses and time."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("natural literal must be non-negative")


PrimVal = Union[PInt, PNat]

# Type names the checker treats as always known; they resolve to no
# constructors, so matching on them is a stuck term.
PRIM_TYPE_NAMES = frozenset({"Int", "Nat"})


# ---------------------------------------------------------------------------
# types

# Surface nodes (`Ty`, `Expr`) and interpreter values (`interp.Val`) keep
# answers computed from them in slots declared on their base class: `_fp` is
# the free-index footprint and `_term` the kernel translation, each with
# the one walker for types and expressions that computes it (`footprint`,
# `translate.expr_to_term`), and `_expr` (values only) the read-back. Every
# node is interned (see `tree_node`): building a node equal to a live one
# returns that one, caches and all, so an answer is computed once for every
# program that holds the node. Slots sit outside the dataclass fields, so
# repr does not see them, equality and hashing are identity, and nodes are
# immutable, so a kept answer never goes stale. `tree_node` sets every cache
# slot to None when it first builds a node, so a read never misses. Every
# cache is read as `getattr(node, name, None)`, None meaning "not computed
# yet", and written with `object.__setattr__`. Slots rather than
# instance-dictionary entries keep a node small however many of its caches
# are filled.
class Ty:
    __slots__ = ("_fp", "_term")


@tree_node
class TVar(Ty):
    ref: int


@tree_node
class TInd(Ty):
    name: str


@tree_node
class TForall(Ty):
    hint: str
    body: Ty


@tree_node
class TApp(Ty):
    fn: Ty
    arg: Ty


@tree_node
class TArr(Ty):
    dom: Ty
    cod: Ty


def ty_app(fn: Ty, *args: Ty) -> Ty:
    for a in args:
        fn = TApp(fn, a)
    return fn


# ---------------------------------------------------------------------------
# patterns and expressions

@tree_node
class Pat:
    ctor: str
    binders: tuple[str, ...] = ()


class Expr:
    __slots__ = ("_fp", "_term")  # see `Ty`


@tree_node
class Var(Expr):
    ref: int


@tree_node
class Lam(Expr):
    hint: str
    dom: Ty
    body: Expr


@tree_node
class TyLam(Expr):
    hint: str
    body: Expr


@tree_node
class Let(Expr):
    hint: str
    ty: Ty
    bound: Expr
    body: Expr


@tree_node
class App(Expr):
    fn: Expr
    arg: Expr


@tree_node
class Case(Expr):
    scrut: Expr
    ind: str
    ty_params: tuple[Ty, ...]
    ret_ty: Ty
    branches: tuple[tuple[Pat, Expr], ...]


@tree_node
class Constr(Expr):
    ind: str
    ctor: str


@tree_node
class Fix(Expr):
    f_hint: str
    x_hint: str
    dom: Ty
    cod: Ty
    body: Expr


@tree_node
class TyAsExpr(Expr):
    ty: Ty


@tree_node
class Const(Expr):
    name: str


@tree_node
class Lit(Expr):
    value: PrimVal


# The binding structure of types and expressions: for each class with
# children, each field that holds them and how many of the node's binders
# they sit under; `(n, ...)` for a tuple of children, or of (tag, child)
# branches, where `n` may be code over the tag `p`.
BINDERS: dict[type, dict[str, object]] = {
    App: {"fn": 0, "arg": 0},
    Lam: {"dom": 0, "body": 1},
    Case: {"scrut": 0, "ty_params": (0, ...), "ret_ty": 0, "branches": ("len(p.binders)", ...)},
    Fix: {"dom": 0, "cod": 0, "body": 2},
    Let: {"ty": 0, "bound": 0, "body": 1},
    TyLam: {"body": 1},
    TyAsExpr: {"ty": 0},
    TApp: {"fn": 0, "arg": 0},
    TArr: {"dom": 0, "cod": 0},
    TForall: {"body": 1},
}


def mk_app(fn: Expr, *args: Expr) -> Expr:
    for a in args:
        fn = App(fn, a)
    return fn


def app_spine(e: Expr) -> tuple[Expr, tuple[Expr, ...]]:
    """Decompose nested applications into (head, arguments)."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, tuple(args)


# ---------------------------------------------------------------------------
# declarations and the global environment

@dataclass(frozen=True)
class ConstrDecl:
    """A constructor declaration: its name and its argument types."""

    name: str
    arg_tys: tuple[Ty, ...] = ()


@dataclass(frozen=True)
class InductiveDecl:
    """An inductive declaration: its name, parameter count and constructors."""

    name: str
    num_params: int
    constrs: tuple[ConstrDecl, ...]


@dataclass(frozen=True)
class Builtin:
    """A primitive constant. `fn` works on raw Python values; argument and
    result kinds ("int"/"nat"/"bool") say how literals map in and out."""

    name: str
    arg_kinds: tuple[str, ...]
    result_kind: str
    fn: Callable[..., object] = field(compare=False)


def delta(b: Builtin, prims: Sequence[Optional[PrimVal]]) -> Union[PrimVal, bool]:
    """Delta-reduce a saturated primitive. `prims` holds each argument's
    literal, or None where the argument is not a literal; either misfit
    raises `Stuck`. A "bool" result is returned as a Python bool, which each
    evaluator wraps in its own form of the `Bool` constructors."""
    raw: list[int] = []
    for kind, p in zip(b.arg_kinds, prims):
        if p is None:
            raise Stuck(f"primitive '{b.name}' applied to a non-literal")
        if kind == "int" and isinstance(p, PInt):
            raw.append(p.value)
        elif kind == "nat" and isinstance(p, PNat):
            raw.append(p.value)
        else:
            raise Stuck(f"primitive '{b.name}' applied to the wrong literal kind")
    out = b.fn(*raw)
    if b.result_kind == "bool":
        return bool(out)
    if b.result_kind == "nat":
        return PNat(out)
    return PInt(out)


class LangError(Exception):
    """Semantic error in source handling (as opposed to syntax errors)."""


class UnboundName(LangError):
    """A name that is neither bound nor global, at the token that reads it."""

    def __init__(self, name: str, line: int, col: int, kind: str = "variable"):
        super().__init__(f"{line}:{col}: unbound {kind} '{name}'")
        self.name = name
        self.kind = kind
        self.line = line
        self.col = col


class GlobalEnv:
    """Inductive declarations plus named constants (expressions or builtins).

    `constrs` maps (inductive, constructor) to the constructor's zero-based
    position, its declaration and its inductive; the first of two
    same-named constructors wins. `const_values` is the interpreter's store
    of constant values (see `interp.py`); `define` drops an entry
    it makes stale."""

    def __init__(
        self,
        inductives: Iterable[InductiveDecl] = (),
        constants: Optional[dict[str, Union[Expr, Builtin]]] = None,
    ):
        self.inductives: list[InductiveDecl] = []
        self.constants: dict[str, Union[Expr, Builtin]] = {}
        self._by_name: dict[str, InductiveDecl] = {}
        self.ctor_owner: dict[str, str] = {}
        self.constrs: dict[tuple[str, str], tuple[int, ConstrDecl, InductiveDecl]] = {}
        self.const_values: dict[str, object] = {}
        for d in inductives:
            self.add_inductive(d)
        for name, body in (constants or {}).items():
            self.constants[name] = body

    def add_inductive(self, decl: InductiveDecl) -> None:
        if decl.name in self._by_name:
            raise LangError(f"duplicate inductive declaration '{decl.name}'")
        self.inductives.append(decl)
        self._by_name[decl.name] = decl
        for i, c in enumerate(decl.constrs):
            self.ctor_owner[c.name] = decl.name
            self.constrs.setdefault((decl.name, c.name), (i, c, decl))

    def define(self, name: str, body: Union[Expr, Builtin]) -> None:
        self.constants[name] = body
        self.const_values.pop(name, None)

    def has_inductive(self, name: str) -> bool:
        return name in self._by_name

    def find_inductive(self, name: str) -> Optional[InductiveDecl]:
        return self._by_name.get(name)

    def copy(self) -> "GlobalEnv":
        return GlobalEnv(self.inductives, dict(self.constants))


# ---------------------------------------------------------------------------
# free-index footprint and closedness

# A footprint summarises the free indices of a type or expression as a pair
# (bound, ty_refs): every free index is below `bound`, and `ty_refs` holds the
# free indices that occur in type positions. A negative reference makes the
# bound infinite, closed under no length. It is kept in the `_fp` slot (see
# `Ty`).
Footprint = tuple[float, frozenset[int]]

_NO_REFS: frozenset[int] = frozenset()
_NO_FREE: Footprint = (0, _NO_REFS)
_OPEN: Footprint = (math.inf, _NO_REFS)


def _shift(fp: Footprint, k: int) -> Footprint:
    # the footprint seen from outside k binders
    bound, refs = fp
    if bound <= k:
        return _NO_FREE
    if refs:
        refs = frozenset(j - k for j in refs if j >= k)
    return bound - k, refs


def _join(*fps: Footprint) -> Footprint:
    bound, refs = 0, _NO_REFS
    for fp in fps:
        if fp[0] > bound:
            bound = fp[0]
        if fp[1]:
            refs = refs | fp[1] if refs else fp[1]
    return (bound, refs) if bound else _NO_FREE


footprint = binder_walker(globals(), BINDERS, "fp = _join({children})", (
    "footprint({x})", "_shift(footprint({x}), {n})"), '''
def footprint(node: Union[Ty, Expr]) -> Footprint:
    """Free-index footprint of a type or expression (see `Footprint`). The
    node's class tells the position: a `TVar` is a type position and a `Var`
    is not. Dispatch is on the exact class, with an `is` chain ordered by how
    often each class is met, as in `interp.eval_expr`."""
    hit = getattr(node, "_fp", None)
    if hit is not None:
        return hit
    c = type(node)
    <if App TApp>
    elif c is Lit or c is Const or c is Constr or c is TInd:
        fp = _NO_FREE
    elif c is Var:
        ref = node.ref
        fp = (ref + 1, _NO_REFS) if ref >= 0 else _OPEN
    <elif Case Fix TyAsExpr Lam Let>
    elif c is TVar:
        ref = node.ref
        fp = (ref + 1, frozenset((ref,))) if ref >= 0 else _OPEN
    <elif TyLam TForall TArr>
    else:
        raise TypeError(f"not a type or expression: {node!r}")
    object.__setattr__(node, "_fp", fp)
    return fp
''')


def closed_under(n: int, node: Union[Ty, Expr]) -> bool:
    return footprint(node)[0] <= n


# ---------------------------------------------------------------------------
# global-environment well-formedness

def wf_global_errors(env: GlobalEnv) -> list[str]:
    """Diagnostics for an ill-formed environment; empty means well-formed."""
    problems: list[str] = []
    ctor_home: dict[str, str] = {}
    for d in env.inductives:
        ctor_names: set[str] = set()
        for c in d.constrs:
            if c.name in ctor_names:
                problems.append(f"duplicate constructor '{c.name}' in '{d.name}'")
            elif c.name in ctor_home:
                # cross-inductive clashes poison surface name resolution
                problems.append(
                    f"constructor '{c.name}' declared in both"
                    f" '{ctor_home[c.name]}' and '{d.name}'"
                )
            ctor_names.add(c.name)
            ctor_home.setdefault(c.name, d.name)
            for i, t in enumerate(c.arg_tys):
                if not closed_under(d.num_params, t):
                    problems.append(
                        f"inductive '{d.name}', constructor '{c.name}': argument"
                        f" {i} is not closed under {d.num_params} parameter(s)"
                    )
    for name, body in env.constants.items():
        if isinstance(body, Builtin):
            continue
        if not closed_under(0, body):
            problems.append(f"constant '{name}' is not closed")
    return problems


# ---------------------------------------------------------------------------
# evaluation results (shared by both evaluators)

@dataclass(frozen=True)
class Ok:
    """An evaluation that finished with `value`."""

    value: object


@dataclass(frozen=True)
class NotEnoughFuel:
    """An evaluation that ran out of fuel."""


@dataclass(frozen=True)
class EvalError:
    """An evaluation that got stuck; `reason` says why."""

    reason: str


EvalResult = Union[Ok, NotEnoughFuel, EvalError]

NOT_ENOUGH_FUEL = NotEnoughFuel()


# How an evaluator fails inside its recursion: it raises, and its entry point
# (`interp.eval_expr`, `kernel.cbv_eval`) turns the one exception into an
# `EvalError` or `NOT_ENOUGH_FUEL`. The results are not raised themselves, as
# a raised singleton would keep the frames of its last traceback alive.

class Stuck(Exception):
    """An evaluation got stuck; `args[0]` is the `EvalError` reason."""


class OutOfFuel(Exception):
    """An evaluation ran out of fuel."""


# ---------------------------------------------------------------------------
# builtin table

def _make_builtins() -> dict[str, Builtin]:
    table: dict[str, Builtin] = {}

    def add(name: str, kinds: tuple[str, ...], result: str, fn) -> None:
        table[name] = Builtin(name, kinds, result, fn)

    ii = ("int", "int")
    nn = ("nat", "nat")
    add("addInt", ii, "int", lambda a, b: a + b)
    add("subInt", ii, "int", lambda a, b: a - b)
    add("mulInt", ii, "int", lambda a, b: a * b)
    add("ltInt", ii, "bool", lambda a, b: a < b)
    add("leInt", ii, "bool", lambda a, b: a <= b)
    add("eqInt", ii, "bool", lambda a, b: a == b)
    add("addNat", nn, "nat", lambda a, b: a + b)
    add("lebNat", nn, "bool", lambda a, b: a <= b)
    add("ltbNat", nn, "bool", lambda a, b: a < b)
    add("eqbNat", nn, "bool", lambda a, b: a == b)
    # int64-flavoured aliases used by imported contract sources
    add("plusInt64", ii, "int", lambda a, b: a + b)
    add("minusInt64", ii, "int", lambda a, b: a - b)
    return table


BUILTINS: dict[str, Builtin] = _make_builtins()
