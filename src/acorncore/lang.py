"""Core AST of the contract language.

Types, patterns, expressions, inductive declarations and the global
environment, together with the purely syntactic operations everything else
builds on: name-to-index conversion, environment lookup, closedness and
well-formedness checks, and delta reduction of primitive constants.

Variables are de Bruijn indices sharing a single index space for term and
type binders. During parsing, `Var`/`TVar` temporarily carry names instead of
indices ("named mode"); `indexify` turns a named expression into the nameless
form used by evaluation and translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# primitive literals

@dataclass(frozen=True)
class PInt:
    """Arbitrary-precision signed integer (written with a `z` suffix)."""

    value: int


@dataclass(frozen=True)
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
# the free-index footprint, `_term` the kernel translation and `_expr`
# (values only) the read-back. Slots sit outside the dataclass fields, so
# equality, hashing and repr do not see them, and nodes are immutable, so a
# kept answer never goes stale. Every cache is read as
# `getattr(node, name, None)`, None meaning "not computed yet", and written
# with `object.__setattr__`. Slots rather than instance-dictionary entries
# keep a node small however many of its caches are filled.
class Ty:
    __slots__ = ("_fp", "_term")


@dataclass(frozen=True, slots=True)
class TVar(Ty):
    # int in nameless mode, str in named mode
    ref: Union[int, str]


@dataclass(frozen=True, slots=True)
class TInd(Ty):
    name: str


@dataclass(frozen=True, slots=True)
class TForall(Ty):
    hint: str
    body: Ty


@dataclass(frozen=True, slots=True)
class TApp(Ty):
    fn: Ty
    arg: Ty


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Var(Expr):
    # int in nameless mode, str in named mode
    ref: Union[int, str]


@dataclass(frozen=True, slots=True)
class Lam(Expr):
    hint: str
    dom: Ty
    body: Expr


@dataclass(frozen=True, slots=True)
class TyLam(Expr):
    hint: str
    body: Expr


@dataclass(frozen=True, slots=True)
class Let(Expr):
    hint: str
    ty: Ty
    bound: Expr
    body: Expr


@dataclass(frozen=True, slots=True)
class App(Expr):
    fn: Expr
    arg: Expr


@dataclass(frozen=True, slots=True)
class Case(Expr):
    scrut: Expr
    ind: str
    ty_params: tuple[Ty, ...]
    ret_ty: Ty
    branches: tuple[tuple[Pat, Expr], ...]


@dataclass(frozen=True, slots=True)
class Constr(Expr):
    ind: str
    ctor: str


@dataclass(frozen=True, slots=True)
class Fix(Expr):
    f_hint: str
    x_hint: str
    dom: Ty
    cod: Ty
    body: Expr


@dataclass(frozen=True, slots=True)
class TyAsExpr(Expr):
    ty: Ty


@dataclass(frozen=True, slots=True)
class Const(Expr):
    name: str


@dataclass(frozen=True, slots=True)
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
    def __init__(self, name: str, kind: str = "variable"):
        super().__init__(f"unbound {kind} '{name}'")
        self.name = name
        self.kind = kind


class GlobalEnv:
    """Inductive declarations plus named constants (expressions or builtins)."""

    def __init__(
        self,
        inductives: Iterable[InductiveDecl] = (),
        constants: Optional[dict[str, Union[Expr, Builtin]]] = None,
    ):
        self.inductives: list[InductiveDecl] = []
        self.constants: dict[str, Union[Expr, Builtin]] = {}
        self._by_name: dict[str, InductiveDecl] = {}
        self.ctor_owner: dict[str, str] = {}
        for d in inductives:
            self.add_inductive(d)
        for name, body in (constants or {}).items():
            self.constants[name] = body

    def add_inductive(self, decl: InductiveDecl) -> None:
        if decl.name in self._by_name:
            raise LangError(f"duplicate inductive declaration '{decl.name}'")
        self.inductives.append(decl)
        self._by_name[decl.name] = decl
        for c in decl.constrs:
            self.ctor_owner[c.name] = decl.name

    def define(self, name: str, body: Union[Expr, Builtin]) -> None:
        self.constants[name] = body

    def has_inductive(self, name: str) -> bool:
        return name in self._by_name

    def find_inductive(self, name: str) -> Optional[InductiveDecl]:
        return self._by_name.get(name)

    def copy(self) -> "GlobalEnv":
        return GlobalEnv(self.inductives, dict(self.constants))


def resolve_constr(
    env: GlobalEnv, ind: str, ctor: str
) -> Optional[tuple[int, ConstrDecl]]:
    """Zero-based position and declaration of `ctor` within `ind`, or None."""
    decl = env.find_inductive(ind)
    if decl is None:
        return None
    for i, c in enumerate(decl.constrs):
        if c.name == ctor:
            return i, c
    return None


# ---------------------------------------------------------------------------
# free-index footprint and closedness

# A footprint summarises the free indices of a type or expression as a pair
# (bound, ty_refs): every free index is below `bound`, and `ty_refs` holds the
# free indices that occur in type positions. A named or negative reference
# makes the bound infinite, closed under no length. It is kept in the `_fp`
# slot (see `Ty`).
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


def ty_footprint(ty: Ty) -> Footprint:
    """Free-index footprint of a type; every position in it is a type position."""
    hit = getattr(ty, "_fp", None)
    if hit is not None:
        return hit
    match ty:
        case TVar(ref):
            ok = isinstance(ref, int) and ref >= 0
            fp = (ref + 1, frozenset((ref,))) if ok else _OPEN
        case TInd(_):
            fp = _NO_FREE
        case TForall(_, body):
            fp = _shift(ty_footprint(body), 1)
        case TApp(fn, arg):
            fp = _join(ty_footprint(fn), ty_footprint(arg))
        case TArr(dom, cod):
            fp = _join(ty_footprint(dom), ty_footprint(cod))
        case _:
            raise TypeError(f"not a type: {ty!r}")
    object.__setattr__(ty, "_fp", fp)
    return fp


def expr_footprint(e: Expr) -> Footprint:
    """Free-index footprint of an expression (see `Footprint`)."""
    hit = getattr(e, "_fp", None)
    if hit is not None:
        return hit
    match e:
        case Var(ref):
            ok = isinstance(ref, int) and ref >= 0
            fp = (ref + 1, _NO_REFS) if ok else _OPEN
        case Lam(_, dom, body):
            fp = _join(ty_footprint(dom), _shift(expr_footprint(body), 1))
        case TyLam(_, body):
            fp = _shift(expr_footprint(body), 1)
        case Let(_, ty, bound, body):
            fp = _join(
                ty_footprint(ty), expr_footprint(bound), _shift(expr_footprint(body), 1)
            )
        case App(fn, arg):
            fp = _join(expr_footprint(fn), expr_footprint(arg))
        case Case(scrut, _, ty_params, ret_ty, branches):
            parts = [expr_footprint(scrut), ty_footprint(ret_ty)]
            parts += map(ty_footprint, ty_params)
            for p, b in branches:
                parts.append(_shift(expr_footprint(b), len(p.binders)))
            fp = _join(*parts)
        case Fix(_, _, dom, cod, body):
            fp = _join(
                ty_footprint(dom), ty_footprint(cod), _shift(expr_footprint(body), 2)
            )
        case TyAsExpr(ty):
            fp = ty_footprint(ty)
        case Constr() | Const() | Lit():
            fp = _NO_FREE
        case _:
            raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_fp", fp)
    return fp


def ty_closed_under(n: int, ty: Ty) -> bool:
    return ty_footprint(ty)[0] <= n


def expr_closed_under(n: int, e: Expr) -> bool:
    return expr_footprint(e)[0] <= n


# ---------------------------------------------------------------------------
# indexify: named mode -> nameless mode

def indexify(vars: Sequence[str], e: Expr) -> Expr:
    """Convert named variables to de Bruijn indices.

    `vars` is the naming context, innermost binder first. Binder name hints
    are preserved. Raises UnboundName when a name resolves to nothing.
    """
    return _indexify_expr(list(vars), e)


def _ctx_index(ctx: list[str], name: str, kind: str) -> int:
    try:
        return ctx.index(name)
    except ValueError:
        raise UnboundName(name, kind) from None


def _indexify_ty(ctx: list[str], ty: Ty) -> Ty:
    match ty:
        case TVar(ref):
            if isinstance(ref, int):
                return ty
            return TVar(_ctx_index(ctx, ref, "type variable"))
        case TInd(_):
            return ty
        case TForall(hint, body):
            return TForall(hint, _indexify_ty([hint] + ctx, body))
        case TApp(fn, arg):
            return TApp(_indexify_ty(ctx, fn), _indexify_ty(ctx, arg))
        case TArr(dom, cod):
            return TArr(_indexify_ty(ctx, dom), _indexify_ty(ctx, cod))
    raise TypeError(f"not a type: {ty!r}")


def _indexify_expr(ctx: list[str], e: Expr) -> Expr:
    match e:
        case Var(ref):
            if isinstance(ref, int):
                return e
            return Var(_ctx_index(ctx, ref, "variable"))
        case Lam(hint, dom, body):
            return Lam(hint, _indexify_ty(ctx, dom), _indexify_expr([hint] + ctx, body))
        case TyLam(hint, body):
            return TyLam(hint, _indexify_expr([hint] + ctx, body))
        case Let(hint, ty, bound, body):
            return Let(
                hint,
                _indexify_ty(ctx, ty),
                _indexify_expr(ctx, bound),
                _indexify_expr([hint] + ctx, body),
            )
        case App(fn, arg):
            return App(_indexify_expr(ctx, fn), _indexify_expr(ctx, arg))
        case Case(scrut, ind, ty_params, ret_ty, branches):
            return Case(
                _indexify_expr(ctx, scrut),
                ind,
                tuple(_indexify_ty(ctx, t) for t in ty_params),
                _indexify_ty(ctx, ret_ty),
                tuple(
                    (p, _indexify_expr(list(reversed(p.binders)) + ctx, b))
                    for p, b in branches
                ),
            )
        case Fix(f_hint, x_hint, dom, cod, body):
            return Fix(
                f_hint,
                x_hint,
                _indexify_ty(ctx, dom),
                _indexify_ty(ctx, cod),
                _indexify_expr([x_hint, f_hint] + ctx, body),
            )
        case TyAsExpr(ty):
            return TyAsExpr(_indexify_ty(ctx, ty))
        case Constr() | Const() | Lit():
            return e
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# global-environment well-formedness

def wf_global_errors(env: GlobalEnv) -> list[str]:
    """Diagnostics for an ill-formed environment; empty means well-formed."""
    problems: list[str] = []
    seen: set[str] = set()
    ctor_home: dict[str, str] = {}
    for d in env.inductives:
        if d.name in seen:
            problems.append(f"duplicate inductive '{d.name}'")
        seen.add(d.name)
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
                if not ty_closed_under(d.num_params, t):
                    problems.append(
                        f"inductive '{d.name}', constructor '{c.name}': argument"
                        f" {i} is not closed under {d.num_params} parameter(s)"
                    )
    for name, body in env.constants.items():
        if isinstance(body, Builtin):
            continue
        if not expr_closed_under(0, body):
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
