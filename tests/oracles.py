"""Helpers only the tests use: value builders, fold and map-sum checks run
through the interpreter, the minimal fuel search, a scenario for the counter
contract, the trace generator that `chainsim.gen_trace` is checked against,
the JSON encoders that `serialize`'s readers invert, the kernel application
builder, an `Int` list term and single substitution, the structural
closedness walk that `kernel.term_bound` is checked against, the structural
equality that interned tree nodes are checked against, the match-at-a-time
tokenizer that `parser.tokenize` is checked against, and the environment of
a child Python that imports this checkout's package."""

from __future__ import annotations

import dataclasses
import os
import random
import re
from pathlib import Path
from typing import Optional, Sequence

from acorncore import kernel as k
from acorncore.chainsim import (
    DEFAULT_CALL_FUEL,
    Action,
    BlockHeader,
    ChainError,
    Deploy,
    Scenario,
    Trace,
    TraceStep,
    _cf_contracts,
    _rand_action,
    add_block,
    cf_state_fields,
    clone,
    final_state,
    genesis,
)
from acorncore.interp import Ok, VConstr, VPrim, VTy, Val, eval_expr
from acorncore.lang import (
    App,
    Case,
    Const,
    Constr,
    Expr,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    Let,
    Lit,
    NotEnoughFuel,
    PInt,
    PNat,
    Pat,
    PrimVal,
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    Ty,
    TyAsExpr,
    TyLam,
    Var,
    mk_app,
)
from acorncore.parser import ParseError, Token, _IDENT, _pp_ty
from acorncore.programs import (
    CONTRACTS,
    ConversionError,
    _INT,
    int_list_expr,
    nat_val,
    val_to_int,
)
from acorncore.serialize import JsonError


# ---------------------------------------------------------------------------
# values

def int_val(n: int) -> Val:
    return VPrim(PInt(n))


def bool_val(b: bool) -> Val:
    return VConstr("Bool", "True" if b else "False")


def to_acorn_list(items: Sequence[Val], elem_ty: Ty) -> Val:
    """The canonical list value: every constructor carries its type argument."""
    out: Val = VConstr("List", "Nil", (VTy(elem_ty),))
    for item in reversed(items):
        out = VConstr("List", "Cons", (VTy(elem_ty), item, out))
    return out


def to_acorn_map(pairs: Sequence[tuple[int, int]]) -> Val:
    """A Nat->Int map value, newest entry first (as repeated adds build it)."""
    out: Val = VConstr("AcornMap", "MNil")
    for key, value in reversed(pairs):
        out = VConstr("AcornMap", "MCons", (nat_val(key), int_val(value), out))
    return out


# ---------------------------------------------------------------------------
# fold agreement checks

def deep_foldr_int(
    genv: GlobalEnv, f_name: str, init: int, xs: Sequence[int], fuel: int = 10_000
) -> int:
    """Run the prelude fold over an integer list and decode the result."""
    e = mk_app(
        Const("foldr"),
        TyAsExpr(_INT),
        TyAsExpr(_INT),
        Const(f_name),
        Lit(PInt(init)),
        int_list_expr(xs),
    )
    r = eval_expr(genv, fuel, (), e)
    if not isinstance(r, Ok):
        raise ConversionError(f"fold did not finish: {r!r}")
    return val_to_int(r.value)


def foldr_concat_check(
    genv: GlobalEnv,
    f_name: str,
    init: int,
    l1: Sequence[int],
    l2: Sequence[int],
    fuel: int = 10_000,
) -> bool:
    """folding f over l1 ++ l2 must equal folding f over l1 with the fold of
    l2 as the start value."""
    e1 = int_list_expr(l1)
    e2 = int_list_expr(l2)
    lhs = mk_app(
        Const("foldr"),
        TyAsExpr(_INT),
        TyAsExpr(_INT),
        Const(f_name),
        Lit(PInt(init)),
        mk_app(Const("concat"), TyAsExpr(_INT), e1, e2),
    )
    rhs = mk_app(
        Const("foldr"),
        TyAsExpr(_INT),
        TyAsExpr(_INT),
        Const(f_name),
        mk_app(
            Const("foldr"), TyAsExpr(_INT), TyAsExpr(_INT), Const(f_name), Lit(PInt(init)), e2
        ),
        e1,
    )
    ra = eval_expr(genv, fuel, (), lhs)
    rb = eval_expr(genv, fuel, (), rhs)
    return isinstance(ra, Ok) and isinstance(rb, Ok) and ra.value == rb.value


def deep_sum_map(genv: GlobalEnv, v: Val, fuel: int = 10_000) -> int:
    """Run the prelude's map sum on an already-evaluated map value."""
    r = eval_expr(genv, fuel, (v,), App(Const("sum_map"), Var(0)))
    if not isinstance(r, Ok):
        raise ConversionError(f"map sum did not finish: {r!r}")
    return val_to_int(r.value)


# ---------------------------------------------------------------------------
# fuel

def minimal_fuel(genv: GlobalEnv, e: Expr, cap: int = 1_000_000) -> Optional[int]:
    """Smallest fuel at which evaluation completes (with any result), found
    by doubling then bisecting. None if `cap` does not suffice."""
    hi = 1
    while isinstance(eval_expr(genv, hi, (), e), NotEnoughFuel):
        hi *= 2
        if hi > cap:
            return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(eval_expr(genv, mid, (), e), NotEnoughFuel):
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# chain scenarios

def counter_scenario(start: int = 0) -> Scenario:
    setup = CONTRACTS["counter"].make_setup({"start": start})
    return Scenario(((1, 100), (2, 100)), (Deploy(1, "counter", setup, 0),))


def funded_outcome(trace: Trace) -> bool:
    """True when some crowdfunding instance ended with the funds collected."""
    st = final_state(trace)
    return any(cf_state_fields(con.state)[4] for _, con in _cf_contracts(st))


def gen_trace_by_retries(
    seed: int, max_blocks: int, scenario: Scenario, fuel: int = DEFAULT_CALL_FUEL
) -> Trace:
    """The trace `chainsim.gen_trace` records, made the long way: each random
    block is first applied whole; once it is rejected, each action is tried
    again behind the actions kept so far, and the kept ones are committed
    by a third `add_block`."""
    rng = random.Random(seed)
    st = genesis(dict(scenario.actors), fuel)
    trace = Trace(clone(st))
    header = BlockHeader(st.slot + 1)
    new, reason = add_block(st, header, scenario.deploys)
    if new is None:
        raise ChainError(f"deployment block failed: {reason}")
    trace.steps.append(TraceStep(header, scenario.deploys, True))
    st = new
    actors = [a for a, _ in scenario.actors]
    while len(trace.steps) < max_blocks:
        header = BlockHeader(st.slot + rng.choice((1, 1, 2, 3)))
        actions = [_rand_action(rng, st, actors) for _ in range(rng.randint(1, 3))]
        new, _ = add_block(st, header, actions)
        if new is not None:
            trace.steps.append(TraceStep(header, tuple(actions), True))
            st = new
            continue
        trace.steps.append(TraceStep(header, tuple(actions), False))
        if len(trace.steps) >= max_blocks:
            break
        kept: list[Action] = []
        for act in actions:
            trial, _ = add_block(st, header, kept + [act])
            if trial is not None:
                kept.append(act)
        if kept:
            new, _ = add_block(st, header, kept)
            trace.steps.append(TraceStep(header, tuple(kept), True))
            st = new
    return trace


# ---------------------------------------------------------------------------
# printing and encoding

def pretty_ty(ty: Ty, ctx: Sequence[str] = ()) -> str:
    return _pp_ty(ty, list(ctx), 0)


def prim_to_json(p: PrimVal) -> dict:
    if isinstance(p, PInt):
        return {"tag": "PInt", "value": p.value}
    if isinstance(p, PNat):
        return {"tag": "PNat", "value": p.value}
    raise JsonError(f"not a primitive value: {p!r}")


def ty_to_json(ty: Ty) -> dict:
    match ty:
        case TVar(ref):
            return {"tag": "TVar", "index": ref}
        case TInd(name):
            return {"tag": "TInd", "name": name}
        case TForall(hint, body):
            return {"tag": "TForall", "hint": hint, "body": ty_to_json(body)}
        case TApp(fn, arg):
            return {"tag": "TApp", "fn": ty_to_json(fn), "arg": ty_to_json(arg)}
        case TArr(dom, cod):
            return {"tag": "TArr", "dom": ty_to_json(dom), "cod": ty_to_json(cod)}
    raise JsonError(f"not a type: {ty!r}")


def pat_to_json(p: Pat) -> dict:
    return {"ctor": p.ctor, "binders": list(p.binders)}


def expr_to_json(e: Expr) -> dict:
    match e:
        case Var(ref):
            return {"tag": "Var", "index": ref}
        case Lam(hint, dom, body):
            return {
                "tag": "Lam",
                "hint": hint,
                "dom": ty_to_json(dom),
                "body": expr_to_json(body),
            }
        case TyLam(hint, body):
            return {"tag": "TyLam", "hint": hint, "body": expr_to_json(body)}
        case Let(hint, ty, bound, body):
            return {
                "tag": "Let",
                "hint": hint,
                "ty": ty_to_json(ty),
                "bound": expr_to_json(bound),
                "body": expr_to_json(body),
            }
        case App(fn, arg):
            return {"tag": "App", "fn": expr_to_json(fn), "arg": expr_to_json(arg)}
        case Case(scrut, ind, ty_params, ret_ty, branches):
            return {
                "tag": "Case",
                "scrut": expr_to_json(scrut),
                "ind": ind,
                "tyParams": [ty_to_json(t) for t in ty_params],
                "retTy": ty_to_json(ret_ty),
                "branches": [
                    {"pat": pat_to_json(p), "body": expr_to_json(b)}
                    for p, b in branches
                ],
            }
        case Constr(ind, ctor):
            return {"tag": "Constr", "ind": ind, "ctor": ctor}
        case Fix(f_hint, x_hint, dom, cod, body):
            return {
                "tag": "Fix",
                "fHint": f_hint,
                "xHint": x_hint,
                "dom": ty_to_json(dom),
                "cod": ty_to_json(cod),
                "body": expr_to_json(body),
            }
        case TyAsExpr(ty):
            return {"tag": "TyAsExpr", "ty": ty_to_json(ty)}
        case Const(name):
            return {"tag": "Const", "name": name}
        case Lit(value):
            return {"tag": "Lit", "value": prim_to_json(value)}
    raise JsonError(f"not an expression: {e!r}")


def decl_to_json(d: InductiveDecl) -> dict:
    return {
        "name": d.name,
        "numParams": d.num_params,
        "constrs": [
            {"name": c.name, "args": [ty_to_json(t) for t in c.arg_tys]}
            for c in d.constrs
        ],
    }


def module_to_json(env: GlobalEnv, own_inductives, defs) -> dict:
    """Encode one module: its own declarations plus its definitions in order.

    `defs` is a list of (name, Expr); builtins and inherited declarations are
    not part of a module.
    """
    return {
        "inductives": [decl_to_json(d) for d in own_inductives],
        "defs": [
            {"name": name, "body": expr_to_json(env.constants[name])}
            for name in defs
        ],
    }


# ---------------------------------------------------------------------------
# kernel terms

def kernel_app(fn: k.Term, *args: k.Term) -> k.Term:
    for a in args:
        fn = k.App(fn, a)
    return fn


def kernel_int_list(xs: Sequence[int]) -> k.Term:
    """The kernel term of `xs` as a `List Int`, built here rather than
    translated, since translation has a depth of its own."""
    int_ty = k.Ind("Int")
    t = kernel_app(k.Construct("List", 0), int_ty)
    for x in reversed(xs):
        t = kernel_app(k.Construct("List", 1), int_ty, k.PrimLit(PInt(x)), t)
    return t


def subst1(s: k.Term, t: k.Term) -> k.Term:
    """Index 0 of `t` becomes `s`, and every index above it moves down by one."""
    return k.parallel_subst((s,), t)


def term_closed_under(n: int, t: k.Term) -> bool:
    """Every free index of `t` is below `n`, by a full walk."""
    match t:
        case k.Rel(i):
            return 0 <= i < n
        case k.Lambda(_, dom, body):
            return term_closed_under(n, dom) and term_closed_under(n + 1, body)
        case k.App(fn, arg):
            return term_closed_under(n, fn) and term_closed_under(n, arg)
        case k.LetIn(_, ty, bound, body):
            return (
                term_closed_under(n, ty)
                and term_closed_under(n, bound)
                and term_closed_under(n + 1, body)
            )
        case k.Match(_, _, tps, ret, scrut, branches):
            return (
                all(term_closed_under(n, x) for x in tps)
                and term_closed_under(n + 1, ret)
                and term_closed_under(n, scrut)
                and all(term_closed_under(n, b) for _, b in branches)
            )
        case k.Fix(_, fty, body):
            return term_closed_under(n, fty) and term_closed_under(n + 1, body)
        case k.Prod(_, dom, cod):
            return term_closed_under(n, dom) and term_closed_under(n + 1, cod)
        case k.Const() | k.Ind() | k.Construct() | k.SortSet() | k.PrimLit():
            return True
    raise TypeError(f"not a kernel term: {t!r}")


# ---------------------------------------------------------------------------
# structural equality

def struct_eq(a: object, b: object) -> bool:
    """Structural equality of two trees, field by field through dataclasses
    and element by element through tuples, with an explicit stack so that it
    holds at any depth. A leaf compares by type and `==`, so `True` is not
    `1`. Tree nodes compare by identity under `==`; this is the oracle that
    interning them is checked against."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif dataclasses.is_dataclass(x):
            stack.extend((getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
        elif x != y:
            return False
    return True


def forged_copy(x: object) -> object:
    """A structurally equal copy of `x` built from new objects around the
    intern table (`object.__new__`), with every cache empty: the duplicate
    that interning rules out, for checks that must be able to fail and for
    comparing a cached node with one that has never been walked."""
    if isinstance(x, tuple):
        return tuple(forged_copy(y) for y in x)
    if not dataclasses.is_dataclass(x):
        return x
    node = object.__new__(type(x))
    for f in dataclasses.fields(x):
        object.__setattr__(node, f.name, forged_copy(getattr(x, f.name)))
    for base in type(x).__mro__[1:]:
        for name in getattr(base, "__slots__", ()):
            object.__setattr__(node, name, None)
    return node


def _shape(x: object, shapes: dict[int, int]) -> int:
    # a hash of a field value's structure, given the shapes of its nodes
    if isinstance(x, tuple):
        return hash(tuple(_shape(y, shapes) for y in x))
    if id(x) in shapes:
        return shapes[id(x)]
    return hash((type(x), x))


def struct_duplicates(roots: Sequence[object], kinds: tuple) -> list[tuple]:
    """Pairs of distinct objects of the classes `kinds`, reachable from
    `roots` through fields and tuples, that `struct_eq` finds equal. Nodes
    are bucketed by a structural hash, computed bottom-up with an explicit
    stack, and compared within a bucket."""
    nodes: dict[int, object] = {}
    shapes: dict[int, int] = {}
    stack = [(r, False) for r in roots]
    while stack:
        x, ready = stack.pop()
        if isinstance(x, tuple):
            stack.extend((y, False) for y in x)
        elif isinstance(x, kinds) and id(x) not in shapes:
            parts = [getattr(x, f.name) for f in dataclasses.fields(x)]
            if ready:
                nodes[id(x)] = x
                shapes[id(x)] = hash((type(x), *(_shape(p, shapes) for p in parts)))
            else:
                # the node again once its parts have their shapes
                stack.append((x, True))
                stack.extend((p, False) for p in parts)
    buckets: dict[int, list] = {}
    for i, s in shapes.items():
        buckets.setdefault(s, []).append(nodes[i])
    return [
        (a, b)
        for group in buckets.values()
        for i, a in enumerate(group)
        for b in group[i + 1:]
        if struct_eq(a, b)
    ]


# ---------------------------------------------------------------------------
# tokenizer

# `parser.tokenize` as it was before it made one pass over `finditer`: one
# `match` call per token and per run of whitespace, with the column carried
# along rather than computed from the offset
_TOKEN_RE = re.compile(
    rf"""
      (?P<skip>\s+|--[^\n]*)
    | (?P<num>-?[0-9]+z?)
    | (?P<ident>{_IDENT})
    | (?P<punct>/\\|->|[()\[\],:=|\#^.\\])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme, kind = m.group(0), m.lastgroup
        if kind != "skip":
            toks.append(Token(lexeme if kind == "punct" else kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


def token_spans(text: str) -> list[tuple[int, int]]:
    """The offsets where each token of `text` starts and ends, found from
    its line and column."""
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    spans = []
    for t in tokenize(text)[:-1]:
        start = starts[t.line - 1] + t.col - 1
        spans.append((start, start + len(t.text)))
    return spans


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict[str, str]:
    """The environment for a child Python that imports this checkout's
    `acorncore`: its `src` goes first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}
