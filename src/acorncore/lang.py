"""Core AST of the contract language.

Types, patterns, expressions, inductive declarations and the global
environment, together with the purely syntactic operations everything else
builds on: environment lookup, closedness and well-formedness checks, and
delta reduction of primitive constants.

Variables are de Bruijn indices sharing a single index space for term and
type binders; the parser resolves every name to its index as it reads it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterable, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# tree nodes

def tree_node(cls: type) -> type:
    """`@dataclass(frozen=True)` for a tree node, with a faster `__init__`.

    A node whose base class declares cache slots (see `Ty`) is made with
    `slots=True`. Its `__init__` stores each field through the slot's
    descriptor, which the frozen `__setattr__` does not guard, and sets every
    cache slot to None, so that no cache read on the node misses. A node
    without cache slots (a literal, a kernel term) keeps its instance
    dictionary and has its fields stored by one bound `object.__setattr__`.
    Equality, hashing, repr and `__match_args__` stay the dataclass's; field
    defaults hold and `__post_init__` runs, as in the dataclass's `__init__`.
    """
    caches = [n for base in cls.__mro__[1:] for n in getattr(base, "__slots__", ())]
    cls = dataclass(frozen=True, slots=bool(caches))(cls)
    scope: dict[str, object] = {"_set": object.__setattr__}
    params = []
    for f in fields(cls):
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    lines = []
    for name, value in [(f.name, f.name) for f in fields(cls)] + [(n, "None") for n in caches]:
        if caches:
            scope[f"_set_{name}"] = getattr(cls, name).__set__
            lines.append(f"_set_{name}(self, {value})")
        else:
            lines.append(f"_set(self, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    body = "\n    ".join(lines or ["pass"])
    exec(f"def __init__(self, {', '.join(params)}):\n    {body}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


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
# the free-index footprint (`footprint`, one walker for types and
# expressions), `_term` the kernel translation (`translate.ty_to_term` or
# `translate.expr_to_term`) and `_expr` (values only) the read-back. Slots
# sit outside the dataclass fields, so equality, hashing and repr do not see
# them, and nodes are immutable, so a kept answer never goes stale.
# `tree_node` sets every cache slot to None when it builds a node, so a read
# never misses. Every cache is read as `getattr(node, name, None)`, None
# meaning "not computed yet", and written with `object.__setattr__`. Slots
# rather than instance-dictionary entries keep a node small however many of
# its caches are filled.
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

@dataclass(frozen=True)
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
    name: str
    arg_tys: tuple[Ty, ...] = ()


@dataclass(frozen=True)
class InductiveDecl:
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


def delta(
    b: Builtin, prims: Sequence[Optional[PrimVal]]
) -> Union[PrimVal, bool, EvalError]:
    """Delta-reduce a saturated primitive. `prims` holds each argument's
    literal, or None where the argument is not a literal. A "bool" result is
    returned as a Python bool, which each evaluator wraps in its own form of
    the `Bool` constructors."""
    raw: list[int] = []
    for kind, p in zip(b.arg_kinds, prims):
        if p is None:
            return EvalError(f"primitive '{b.name}' applied to a non-literal")
        if kind == "int" and isinstance(p, PInt):
            raw.append(p.value)
        elif kind == "nat" and isinstance(p, PNat):
            raw.append(p.value)
        else:
            return EvalError(f"primitive '{b.name}' applied to the wrong literal kind")
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


def footprint(node: Union[Ty, Expr]) -> Footprint:
    """Free-index footprint of a type or expression (see `Footprint`). The
    node's class tells the position: a `TVar` is a type position and a `Var`
    is not. Dispatch is on the exact class, with an `is` chain ordered by how
    often each class is met, as in `interp.eval_expr`."""
    hit = getattr(node, "_fp", None)
    if hit is not None:
        return hit
    c = type(node)
    if c is App or c is TApp:
        fp = _join(footprint(node.fn), footprint(node.arg))
    elif c is Lit or c is Const or c is Constr or c is TInd:
        fp = _NO_FREE
    elif c is Var:
        ref = node.ref
        fp = (ref + 1, _NO_REFS) if ref >= 0 else _OPEN
    elif c is Case:
        parts = [footprint(node.scrut), footprint(node.ret_ty)]
        parts += map(footprint, node.ty_params)
        for p, b in node.branches:
            parts.append(_shift(footprint(b), len(p.binders)))
        fp = _join(*parts)
    elif c is Fix:
        fp = _join(
            footprint(node.dom), footprint(node.cod), _shift(footprint(node.body), 2)
        )
    elif c is TyAsExpr:
        fp = footprint(node.ty)
    elif c is Lam:
        fp = _join(footprint(node.dom), _shift(footprint(node.body), 1))
    elif c is Let:
        fp = _join(
            footprint(node.ty), footprint(node.bound), _shift(footprint(node.body), 1)
        )
    elif c is TVar:
        ref = node.ref
        fp = (ref + 1, frozenset((ref,))) if ref >= 0 else _OPEN
    elif c is TyLam or c is TForall:
        fp = _shift(footprint(node.body), 1)
    elif c is TArr:
        fp = _join(footprint(node.dom), footprint(node.cod))
    else:
        raise TypeError(f"not a type or expression: {node!r}")
    object.__setattr__(node, "_fp", fp)
    return fp


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
    value: object


@dataclass(frozen=True)
class NotEnoughFuel:
    pass


@dataclass(frozen=True)
class EvalError:
    reason: str


EvalResult = Union[Ok, NotEnoughFuel, EvalError]

NOT_ENOUGH_FUEL = NotEnoughFuel()


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
