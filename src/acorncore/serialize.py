"""JSON serialization for the surface AST: types, expressions, inductive
declarations and modules.

Every variant is encoded as an object with a `tag` field; `from_json` is the
exact inverse of `to_json` on well-formed data and raises JsonError on
anything else, including a negative de Bruijn index.
"""

from __future__ import annotations

from typing import Any

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


# ---------------------------------------------------------------------------
# primitive values

def prim_to_json(p: PrimVal) -> dict:
    if isinstance(p, PInt):
        return {"tag": "PInt", "value": p.value}
    if isinstance(p, PNat):
        return {"tag": "PNat", "value": p.value}
    raise JsonError(f"not a primitive value: {p!r}")


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

def ty_to_json(ty: Ty) -> dict:
    match ty:
        case TVar(ref):
            key = "index" if isinstance(ref, int) else "name"
            return {"tag": "TVar", key: ref}
        case TInd(name):
            return {"tag": "TInd", "name": name}
        case TForall(hint, body):
            return {"tag": "TForall", "hint": hint, "body": ty_to_json(body)}
        case TApp(fn, arg):
            return {"tag": "TApp", "fn": ty_to_json(fn), "arg": ty_to_json(arg)}
        case TArr(dom, cod):
            return {"tag": "TArr", "dom": ty_to_json(dom), "cod": ty_to_json(cod)}
    raise JsonError(f"not a type: {ty!r}")


def ty_from_json(obj: Any) -> Ty:
    t = _tag(obj)
    if t == "TVar":
        if "index" in obj:
            return TVar(_index(obj["index"], "type index"))
        return TVar(_str(_need(obj, "name"), "type variable name"))
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

def pat_to_json(p: Pat) -> dict:
    return {"ctor": p.ctor, "binders": list(p.binders)}


def pat_from_json(obj: Any) -> Pat:
    ctor = _str(_need(obj, "ctor"), "pattern constructor")
    binders = _need(obj, "binders")
    if not isinstance(binders, list):
        raise JsonError("pattern binders must be a list")
    return Pat(ctor, tuple(_str(b, "pattern binder") for b in binders))


def expr_to_json(e: Expr) -> dict:
    match e:
        case Var(ref):
            key = "index" if isinstance(ref, int) else "name"
            return {"tag": "Var", key: ref}
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


def expr_from_json(obj: Any) -> Expr:
    t = _tag(obj)
    if t == "Var":
        if "index" in obj:
            return Var(_index(obj["index"], "variable index"))
        return Var(_str(_need(obj, "name"), "variable name"))
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
        branches = _need(obj, "branches")
        if not isinstance(branches, list):
            raise JsonError("case branches must be a list")
        return Case(
            expr_from_json(_need(obj, "scrut")),
            _str(_need(obj, "ind"), "inductive name"),
            tuple(ty_from_json(x) for x in _need(obj, "tyParams")),
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

def decl_to_json(d: InductiveDecl) -> dict:
    return {
        "name": d.name,
        "numParams": d.num_params,
        "constrs": [
            {"name": c.name, "args": [ty_to_json(t) for t in c.arg_tys]}
            for c in d.constrs
        ],
    }


def decl_from_json(obj: Any) -> InductiveDecl:
    constrs = _need(obj, "constrs")
    if not isinstance(constrs, list):
        raise JsonError("'constrs' must be a list")
    return InductiveDecl(
        _str(_need(obj, "name"), "inductive name"),
        _int(_need(obj, "numParams"), "numParams"),
        tuple(
            ConstrDecl(
                _str(_need(c, "name"), "constructor name"),
                tuple(ty_from_json(t) for t in _need(c, "args")),
            )
            for c in constrs
        ),
    )


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


def module_from_json(obj: Any) -> tuple[list[InductiveDecl], list[tuple[str, Expr]]]:
    inds = _need(obj, "inductives")
    defs = _need(obj, "defs")
    if not isinstance(inds, list) or not isinstance(defs, list):
        raise JsonError("module must have 'inductives' and 'defs' lists")
    return (
        [decl_from_json(d) for d in inds],
        [
            (_str(_need(d, "name"), "definition name"), expr_from_json(_need(d, "body")))
            for d in defs
        ],
    )
