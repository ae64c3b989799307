r"""Concrete syntax: tokenizer, recursive-descent parser and pretty-printer.

A module is a sequence of declarations:

    data I #n = C [T, ...] | ...      inductive with n type parameters;
                                      parameters are written ^0, ^1, ...
    type N = T                        parse-time alias, expanded on use
    def x = e                         definition (checked and indexified)

and expressions follow the lambda-calculus core:

    \x : T -> e        term abstraction (arrows in T need parentheses)
    /\A -> e           type abstraction
    let x : T = e in e
    fix f (x : T1) : T2 = e
    case e : I T1 ... return T of | C x1 ... -> e | ...
    if e return T then e else e      sugar for a Bool case
    [T]                type used as an argument
    e e'               application by juxtaposition
    5  /  5z  /  -5z   naturals and integers

Nested case expressions inside a branch must be parenthesized; `--` starts a
line comment. The parser resolves names against the environment being built:
binders shadow globals, constructor names build `Constr`, defined names build
`Const`, anything else stays a named variable for `indexify` to flag.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .lang import (
    App,
    Case,
    Const,
    Constr,
    ConstrDecl,
    Expr,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    Let,
    Lit,
    PInt,
    PNat,
    PRIM_TYPE_NAMES,
    Pat,
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    Ty,
    TyAsExpr,
    TyLam,
    Var,
    app_spine,
    indexify,
)

KEYWORDS = frozenset(
    {
        "let",
        "in",
        "case",
        "of",
        "return",
        "fix",
        "data",
        "def",
        "type",
        "if",
        "then",
        "else",
        "forall",
    }
)

class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'num', 'eof' or the punctuation itself
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|--[^\n]*)
    | (?P<tylam>/\\)
    | (?P<arrow>->)
    | (?P<num>-?[0-9]+z?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<punct>[()\[\],:=|\#^.\\])
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
        lexeme = m.group(0)
        if m.lastgroup == "skip":
            pass
        elif m.lastgroup == "tylam":
            toks.append(Token("/\\", lexeme, line, col))
        elif m.lastgroup == "arrow":
            toks.append(Token("->", lexeme, line, col))
        elif m.lastgroup == "num":
            toks.append(Token("num", lexeme, line, col))
        elif m.lastgroup == "ident":
            toks.append(Token("ident", lexeme, line, col))
        else:
            toks.append(Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, text: str, env: GlobalEnv):
        self.toks = tokenize(text)
        self.pos = 0
        self.env = env
        self.aliases: dict[str, Ty] = {}
        self.scope: list[str] = []
        self.pending_ind: Optional[str] = None

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def bump(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise self.err(f"expected {kind!r}, found {t.text!r}")
        return self.bump()

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.bump()
        return None

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.err(f"expected '{word}', found {self.peek().text!r}")
        self.bump()

    def ident(self, what: str = "name") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.err(f"expected {what}, found {t.text!r}")
        if t.text in KEYWORDS:
            raise self.err(f"keyword '{t.text}' cannot be used as {what}")
        return self.bump().text

    # -- name classification -----------------------------------------------

    def _expr_name(self, name: str) -> Expr:
        if name in self.scope:
            return Var(name)
        owner = self.env.ctor_owner.get(name)
        if owner is not None:
            return Constr(owner, name)
        if name in self.env.constants:
            return Const(name)
        return Var(name)  # left for indexify to flag

    def _ty_name(self, name: str, strict: bool, tok: Token) -> Ty:
        if name in self.scope:
            return TVar(name)
        if name in self.aliases:
            return self.aliases[name]
        if (
            name == self.pending_ind
            or self.env.has_inductive(name)
            or name in PRIM_TYPE_NAMES
        ):
            return TInd(name)
        if strict:
            raise ParseError(f"unknown type '{name}'", tok.line, tok.col)
        return TVar(name)  # left for indexify to flag

    # -- types ---------------------------------------------------------------

    def parse_ty(self, strict: bool = False) -> Ty:
        if self.at_keyword("forall"):
            self.bump()
            hint = self.ident("type variable")
            self.expect(".")
            self.scope.insert(0, hint)
            try:
                body = self.parse_ty(strict)
            finally:
                self.scope.pop(0)
            return TForall(hint, body)
        left = self.parse_ty_app(strict)
        if self.accept("->"):
            return TArr(left, self.parse_ty(strict))
        return left

    def parse_ty_app(self, strict: bool = False) -> Ty:
        ty = self.parse_ty_atom(strict)
        while self._starts_ty_atom():
            ty = TApp(ty, self.parse_ty_atom(strict))
        return ty

    def _starts_ty_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("(", "^"):
            return True
        return t.kind == "ident" and t.text not in KEYWORDS

    def parse_ty_atom(self, strict: bool = False) -> Ty:
        t = self.peek()
        if t.kind == "(":
            self.bump()
            ty = self.parse_ty(strict)
            self.expect(")")
            return ty
        if t.kind == "^":
            self.bump()
            num = self.expect("num")
            if not num.text.isdigit():
                raise ParseError("type parameter index must be a plain number", num.line, num.col)
            return TVar(int(num.text))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.bump()
            return self._ty_name(t.text, strict, t)
        raise self.err(f"expected a type, found {t.text!r}")

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.kind == "\\":
            self.bump()
            hint = self.ident("binder")
            self.expect(":")
            dom = self.parse_ty_app()  # arrows in a lambda domain need parens
            self.expect("->")
            self.scope.insert(0, hint)
            try:
                body = self.parse_expr()
            finally:
                self.scope.pop(0)
            return Lam(hint, dom, body)
        if t.kind == "/\\":
            self.bump()
            hint = self.ident("type binder")
            self.expect("->")
            self.scope.insert(0, hint)
            try:
                body = self.parse_expr()
            finally:
                self.scope.pop(0)
            return TyLam(hint, body)
        if self.at_keyword("let"):
            self.bump()
            hint = self.ident("binder")
            self.expect(":")
            ty = self.parse_ty()
            self.expect("=")
            bound = self.parse_expr()
            self.expect_keyword("in")
            self.scope.insert(0, hint)
            try:
                body = self.parse_expr()
            finally:
                self.scope.pop(0)
            return Let(hint, ty, bound, body)
        if self.at_keyword("fix"):
            self.bump()
            f_hint = self.ident("binder")
            self.expect("(")
            x_hint = self.ident("binder")
            self.expect(":")
            dom = self.parse_ty()
            self.expect(")")
            self.expect(":")
            cod = self.parse_ty()
            self.expect("=")
            self.scope.insert(0, f_hint)
            self.scope.insert(0, x_hint)
            try:
                body = self.parse_expr()
            finally:
                self.scope.pop(0)
                self.scope.pop(0)
            return Fix(f_hint, x_hint, dom, cod, body)
        if self.at_keyword("case"):
            self.bump()
            scrut = self.parse_app()
            self.expect(":")
            ind_tok = self.peek()
            ind = self.ident("inductive name")
            if not (
                ind == self.pending_ind or self.env.has_inductive(ind)
            ):
                raise ParseError(f"unknown inductive '{ind}'", ind_tok.line, ind_tok.col)
            ty_params = []
            while self._starts_ty_atom():
                ty_params.append(self.parse_ty_atom())
            self.expect_keyword("return")
            ret_ty = self.parse_ty()
            self.expect_keyword("of")
            self.accept("|")
            branches = [self.parse_branch()]
            while self.accept("|"):
                branches.append(self.parse_branch())
            return Case(scrut, ind, tuple(ty_params), ret_ty, tuple(branches))
        if self.at_keyword("if"):
            self.bump()
            cond = self.parse_app()
            self.expect_keyword("return")
            ret_ty = self.parse_ty()
            self.expect_keyword("then")
            then_e = self.parse_expr()
            self.expect_keyword("else")
            else_e = self.parse_expr()
            return Case(
                cond,
                "Bool",
                (),
                ret_ty,
                ((Pat("True"), then_e), (Pat("False"), else_e)),
            )
        return self.parse_app()

    def parse_branch(self) -> tuple[Pat, Expr]:
        ctor = self.ident("constructor")
        binders = []
        while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
            binders.append(self.bump().text)
        self.expect("->")
        for b in reversed(binders):
            self.scope.insert(0, b)
        try:
            body = self.parse_expr()
        finally:
            del self.scope[: len(binders)]
        return Pat(ctor, tuple(binders)), body

    def parse_app(self) -> Expr:
        e = self.parse_atom()
        while self._starts_atom():
            e = App(e, self.parse_atom())
        return e

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("(", "[", "num"):
            return True
        return t.kind == "ident" and t.text not in KEYWORDS

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "(":
            self.bump()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "[":
            self.bump()
            ty = self.parse_ty()
            self.expect("]")
            return TyAsExpr(ty)
        if t.kind == "num":
            self.bump()
            body = t.text
            if body.endswith("z"):
                return Lit(PInt(int(body[:-1])))
            if body.startswith("-"):
                raise ParseError("negative naturals do not exist; use a z suffix", t.line, t.col)
            return Lit(PNat(int(body)))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.bump()
            return self._expr_name(t.text)
        raise self.err(f"expected an expression, found {t.text!r}")

    # -- declarations ----------------------------------------------------------

    def parse_data(self) -> InductiveDecl:
        self.expect_keyword("data")
        name = self.ident("inductive name")
        self.expect("#")
        num = self.expect("num")
        if not num.text.isdigit():
            raise ParseError("parameter count must be a plain number", num.line, num.col)
        self.expect("=")
        self.pending_ind = name
        try:
            ctors = [self._parse_ctor()]
            while self.accept("|"):
                ctors.append(self._parse_ctor())
        finally:
            self.pending_ind = None
        return InductiveDecl(name, int(num.text), tuple(ctors))

    def _parse_ctor(self) -> ConstrDecl:
        name = self.ident("constructor name")
        self.expect("[")
        args: list[Ty] = []
        if self.peek().kind != "]":
            args.append(self.parse_ty(strict=True))
            while self.accept(","):
                args.append(self.parse_ty(strict=True))
        self.expect("]")
        return ConstrDecl(name, tuple(args))


def parse_module(text: str, base_env: GlobalEnv) -> tuple[GlobalEnv, list[tuple[str, Expr]]]:
    """Parse a module on top of `base_env` (which is not modified). Returns
    the extended environment and the module's definitions, indexified, in
    source order."""
    env = base_env.copy()
    p = Parser(text, env)
    defs: list[tuple[str, Expr]] = []
    while p.peek().kind != "eof":
        if p.at_keyword("data"):
            env.add_inductive(p.parse_data())
        elif p.at_keyword("type"):
            p.bump()
            name = p.ident("type alias name")
            p.expect("=")
            p.aliases[name] = p.parse_ty(strict=True)
        elif p.at_keyword("def"):
            p.bump()
            name = p.ident("definition name")
            p.expect("=")
            named = p.parse_expr()
            body = indexify((), named)
            env.define(name, body)
            defs.append((name, body))
        else:
            raise p.err(
                f"expected 'data', 'type' or 'def', found {p.peek().text!r}"
            )
    return env, defs


def parse_expr_text(text: str, env: GlobalEnv, names: Sequence[str] = ()) -> Expr:
    """Parse a single expression against an existing environment and return
    it in nameless form; `names` supplies free variables, innermost first."""
    p = Parser(text, env)
    p.scope = list(names)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        raise p.err(f"trailing input {p.peek().text!r}")
    return indexify(names, e)


# ---------------------------------------------------------------------------
# pretty-printing (inverse of the parser on nameless input)

_IDENT_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def _global_names(env: Optional[GlobalEnv]) -> frozenset[str]:
    if env is None:
        return frozenset()
    names = set(env.constants)
    names.update(env.ctor_owner)
    names.update(d.name for d in env.inductives)
    names.update(PRIM_TYPE_NAMES)
    return frozenset(names)


def _fresh(hint: str, used: set[str], avoid: frozenset[str]) -> str:
    base = hint if hint and _IDENT_OK.match(hint) and hint not in KEYWORDS else "x"
    cand = base
    n = 0
    while cand in used or cand in avoid or cand in KEYWORDS:
        n += 1
        cand = f"{base}{n}"
    return cand


def pretty_ty(ty: Ty, ctx: Sequence[str] = ()) -> str:
    return _pp_ty(ty, list(ctx), 0)


def _pp_ty(ty: Ty, ctx: list[str], prec: int) -> str:
    # prec: 0 arrow level, 1 application level, 2 atom
    match ty:
        case TVar(ref):
            if isinstance(ref, str):
                return ref
            if 0 <= ref < len(ctx):
                return ctx[ref]
            return f"^{ref - len(ctx)}"
        case TInd(name):
            return name
        case TApp(_, _):
            parts = []
            cur: Ty = ty
            while isinstance(cur, TApp):
                parts.append(_pp_ty(cur.arg, ctx, 2))
                cur = cur.fn
            parts.append(_pp_ty(cur, ctx, 2))
            s = " ".join(reversed(parts))
            return f"({s})" if prec >= 2 else s
        case TArr(dom, cod):
            s = f"{_pp_ty(dom, ctx, 1)} -> {_pp_ty(cod, ctx, 0)}"
            return f"({s})" if prec >= 1 else s
        case TForall(hint, body):
            name = _fresh(hint, set(ctx), frozenset())
            s = f"forall {name} . {_pp_ty(body, [name] + ctx, 0)}"
            return f"({s})" if prec >= 1 else s
    raise TypeError(f"not a type: {ty!r}")


def pretty_expr(e: Expr, ctx: Sequence[str] = (), env: Optional[GlobalEnv] = None) -> str:
    """Render a nameless expression so that parsing the output against the
    same environment and indexifying yields the original AST."""
    return _pp(e, list(ctx), 0, _global_names(env))


def _binder(hint: str, ctx: list[str], avoid: frozenset[str]) -> str:
    return _fresh(hint, set(ctx), avoid)


def _lamdom(ty: Ty, ctx: list[str]) -> str:
    if isinstance(ty, (TArr, TForall)):
        return f"({_pp_ty(ty, ctx, 0)})"
    return _pp_ty(ty, ctx, 0)


def _is_spliceable(e: Expr) -> bool:
    # forms with no dangling tail; safe to print bare before '|' or 'in'
    return isinstance(e, (Var, Const, Constr, Lit, TyAsExpr, App))


def _pp(e: Expr, ctx: list[str], prec: int, avoid: frozenset[str]) -> str:
    # prec: 0 top, 1 argument position (atoms only)
    match e:
        case Var(ref):
            if isinstance(ref, str):
                return ref
            if 0 <= ref < len(ctx):
                return ctx[ref]
            return f"?v{ref}"
        case Const(name):
            return name
        case Constr(_, ctor):
            return ctor
        case Lit(p):
            if isinstance(p, PInt):
                return f"{p.value}z"
            return str(p.value)
        case TyAsExpr(ty):
            return f"[{_pp_ty(ty, ctx, 0)}]"
        case App(_, _):
            head, args = app_spine(e)
            parts = [_pp(head, ctx, 1, avoid)] + [_pp(a, ctx, 1, avoid) for a in args]
            s = " ".join(parts)
            return f"({s})" if prec >= 1 else s
        case Lam(hint, dom, body):
            x = _binder(hint, ctx, avoid)
            s = f"\\{x} : {_lamdom(dom, ctx)} -> {_pp(body, [x] + ctx, 0, avoid)}"
            return f"({s})" if prec >= 1 else s
        case TyLam(hint, body):
            x = _binder(hint, ctx, avoid)
            s = f"/\\{x} -> {_pp(body, [x] + ctx, 0, avoid)}"
            return f"({s})" if prec >= 1 else s
        case Let(hint, ty, bound, body):
            x = _binder(hint, ctx, avoid)
            bound_s = _pp(bound, ctx, 0, avoid)
            if not _is_spliceable(bound):
                bound_s = f"({bound_s})"
            s = (
                f"let {x} : {_pp_ty(ty, ctx, 0)} = {bound_s}"
                f" in {_pp(body, [x] + ctx, 0, avoid)}"
            )
            return f"({s})" if prec >= 1 else s
        case Fix(f_hint, x_hint, dom, cod, body):
            f = _binder(f_hint, ctx, avoid)
            x = _binder(x_hint, [f] + ctx, avoid)
            s = (
                f"fix {f} ({x} : {_pp_ty(dom, ctx, 0)}) : {_pp_ty(cod, ctx, 0)}"
                f" = {_pp(body, [x, f] + ctx, 0, avoid)}"
            )
            return f"({s})" if prec >= 1 else s
        case Case(scrut, ind, ty_params, ret_ty, branches):
            scrut_s = _pp(scrut, ctx, 0, avoid)
            if not _is_spliceable(scrut):
                scrut_s = f"({scrut_s})"
            head = f"case {scrut_s} : {ind}"
            for tp in ty_params:
                head += f" {_pp_ty(tp, ctx, 2)}"
            head += f" return {_pp_ty(ret_ty, ctx, 0)} of"
            arms = []
            for i, (pat, body) in enumerate(branches):
                names: list[str] = []
                inner = list(ctx)
                for b in pat.binders:
                    nm = _fresh(b, set(inner) | set(names), avoid)
                    names.append(nm)
                body_ctx = list(reversed(names)) + ctx
                body_s = _pp(body, body_ctx, 0, avoid)
                last = i == len(branches) - 1
                if not last and not _is_spliceable(body):
                    body_s = f"({body_s})"
                arms.append(f"| {' '.join([pat.ctor] + names)} -> {body_s}")
            s = head + " " + " ".join(arms)
            return f"({s})" if prec >= 1 else s
    raise TypeError(f"not an expression: {e!r}")
