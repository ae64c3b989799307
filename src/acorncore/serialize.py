"""JSON serialization for the surface AST: types, expressions, inductive
declarations and modules.

Every variant is encoded as an object with a `tag` field. The library only
reads this form: each `*_from_json` decodes well-formed data exactly and
raises JsonError on anything else, including a variable given by name rather
than by a non-negative de Bruijn index. The encoders it inverts live with the
tests, in `tests/oracles.py`.
"""

from __future__ import annotations

import json
from typing import Any

from .lang import (
    App,
    Case,
    Const,
    Constr,
    ConstrDecl,
    Expr,
    Fix,
    InductiveDecl,
    Lam,
    Let,
    Lit,
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
)


class JsonError(Exception):
    pass


def _need(obj: Any, key: str) -> Any:
    if not isinstance(obj, dict):
        raise JsonError(f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise JsonError(f"missing field '{key}' in {sorted(obj)}")
    return obj[key]


def _tag(obj: Any) -> str:
    t = _need(obj, "tag")
    if not isinstance(t, str):
        raise JsonError("'tag' must be a string")
    return t


def _str(v: Any, what: str) -> str:
    if not isinstance(v, str):
        raise JsonError(f"{what} must be a string")
    return v


def _int(v: Any, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise JsonError(f"{what} must be an integer")
    return v


def _index(v: Any, what: str) -> int:
    if _int(v, what) < 0:
        raise JsonError(f"{what} must be non-negative")
    return v


def _list(v: Any, what: str) -> list:
    if not isinstance(v, list):
        raise JsonError(f"{what} must be a list")
    return v


def parse_json(text: str, what: str) -> Any:
    """`json.loads`, raising JsonError on malformed or too deeply nested text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise JsonError(f"{what} is not valid JSON: {err}") from None
    except RecursionError:
        raise JsonError(f"{what} is nested too deeply") from None


# ---------------------------------------------------------------------------
# primitive values

def prim_from_json(obj: Any) -> PrimVal:
    t = _tag(obj)
    v = _int(_need(obj, "value"), "literal value")
    if t == "PInt":
        return PInt(v)
    if t == "PNat":
        if v < 0:
            raise JsonError("natural literal must be non-negative")
        return PNat(v)
    raise JsonError(f"unknown literal tag '{t}'")


# ---------------------------------------------------------------------------
# types

def ty_from_json(obj: Any) -> Ty:
    t = _tag(obj)
    if t == "TVar":
        return TVar(_index(_need(obj, "index"), "type index"))
    if t == "TInd":
        return TInd(_str(_need(obj, "name"), "inductive name"))
    if t == "TForall":
        return TForall(
            _str(_need(obj, "hint"), "hint"), ty_from_json(_need(obj, "body"))
        )
    if t == "TApp":
        return TApp(ty_from_json(_need(obj, "fn")), ty_from_json(_need(obj, "arg")))
    if t == "TArr":
        return TArr(ty_from_json(_need(obj, "dom")), ty_from_json(_need(obj, "cod")))
    raise JsonError(f"unknown type tag '{t}'")


# ---------------------------------------------------------------------------
# expressions

def pat_from_json(obj: Any) -> Pat:
    ctor = _str(_need(obj, "ctor"), "pattern constructor")
    binders = _list(_need(obj, "binders"), "pattern binders")
    return Pat(ctor, tuple(_str(b, "pattern binder") for b in binders))


def expr_from_json(obj: Any) -> Expr:
    t = _tag(obj)
    if t == "Var":
        return Var(_index(_need(obj, "index"), "variable index"))
    if t == "Lam":
        return Lam(
            _str(_need(obj, "hint"), "hint"),
            ty_from_json(_need(obj, "dom")),
            expr_from_json(_need(obj, "body")),
        )
    if t == "TyLam":
        return TyLam(
            _str(_need(obj, "hint"), "hint"), expr_from_json(_need(obj, "body"))
        )
    if t == "Let":
        return Let(
            _str(_need(obj, "hint"), "hint"),
            ty_from_json(_need(obj, "ty")),
            expr_from_json(_need(obj, "bound")),
            expr_from_json(_need(obj, "body")),
        )
    if t == "App":
        return App(expr_from_json(_need(obj, "fn")), expr_from_json(_need(obj, "arg")))
    if t == "Case":
        branches = _list(_need(obj, "branches"), "case branches")
        return Case(
            expr_from_json(_need(obj, "scrut")),
            _str(_need(obj, "ind"), "inductive name"),
            tuple(
                ty_from_json(x)
                for x in _list(_need(obj, "tyParams"), "case type parameters")
            ),
            ty_from_json(_need(obj, "retTy")),
            tuple(
                (pat_from_json(_need(b, "pat")), expr_from_json(_need(b, "body")))
                for b in branches
            ),
        )
    if t == "Constr":
        return Constr(
            _str(_need(obj, "ind"), "inductive name"),
            _str(_need(obj, "ctor"), "constructor name"),
        )
    if t == "Fix":
        return Fix(
            _str(_need(obj, "fHint"), "hint"),
            _str(_need(obj, "xHint"), "hint"),
            ty_from_json(_need(obj, "dom")),
            ty_from_json(_need(obj, "cod")),
            expr_from_json(_need(obj, "body")),
        )
    if t == "TyAsExpr":
        return TyAsExpr(ty_from_json(_need(obj, "ty")))
    if t == "Const":
        return Const(_str(_need(obj, "name"), "constant name"))
    if t == "Lit":
        return Lit(prim_from_json(_need(obj, "value")))
    raise JsonError(f"unknown expression tag '{t}'")


# ---------------------------------------------------------------------------
# declarations and modules

def decl_from_json(obj: Any) -> InductiveDecl:
    constrs = _list(_need(obj, "constrs"), "'constrs'")
    return InductiveDecl(
        _str(_need(obj, "name"), "inductive name"),
        _index(_need(obj, "numParams"), "numParams"),
        tuple(
            ConstrDecl(
                _str(_need(c, "name"), "constructor name"),
                tuple(
                    ty_from_json(t)
                    for t in _list(_need(c, "args"), "constructor arguments")
                ),
            )
            for c in constrs
        ),
    )


def module_from_json(
    obj: Any, what: str
) -> tuple[list[InductiveDecl], list[tuple[str, Expr]]]:
    """Decode a module. `what` names it, as in `parse_json`, when it is
    nested too deeply: the JSON parser of Python 3.13 reads far more levels
    than the decoders can."""
    inds = _need(obj, "inductives")
    defs = _need(obj, "defs")
    if not isinstance(inds, list) or not isinstance(defs, list):
        raise JsonError("module must have 'inductives' and 'defs' lists")
    try:
        return [decl_from_json(d) for d in inds], [
            (_str(_need(d, "name"), "definition name"), expr_from_json(_need(d, "body")))
            for d in defs
        ]
    except RecursionError:
        # the decoders recurse once per level of the AST
        raise JsonError(f"{what} is nested too deeply") from None
