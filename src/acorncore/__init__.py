"""A small functional language with two executable semantics.

The surface language (algebraic data types, fixpoints, parametric
polymorphism, machine integers and naturals) evaluates under a fuelled
environment-based interpreter. The same programs translate to a de Bruijn
kernel calculus with a substitution-based evaluator, and the two are checked
against each other differentially. On top sits a block-structured chain
simulator for the bundled contracts.
"""

from .lang import (
    App,
    Builtin,
    BUILTINS,
    Case,
    Const,
    Constr,
    ConstrDecl,
    EvalError,
    EvalResult,
    Expr,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    LangError,
    Let,
    Lit,
    NOT_ENOUGH_FUEL,
    NotEnoughFuel,
    Ok,
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
    UnboundName,
    Var,
    indexify,
    mk_app,
    ty_app,
    wf_global,
    wf_global_errors,
)
from .interp import (
    EnvTrace,
    Val,
    VBuiltin,
    VClosFix,
    VClosLam,
    VConstr,
    VPrim,
    VTy,
    VTyClos,
    eval_expr,
    eval_type,
    from_val,
    subst_env_expr,
    wf_val,
)
from .kernel import (
    KernelEnv,
    KernelInductive,
    Term,
    cbv_eval,
    lift,
    parallel_subst,
    pretty_term,
    subst1,
    term_bound,
)
from .translate import (
    TranslateError,
    decl_to_kernel,
    expr_to_term,
    translate_env,
    ty_to_term,
)
from .parser import (
    ParseError,
    parse_expr_text,
    parse_module,
    pretty_expr,
    pretty_ty,
)
from .serialize import (
    JsonError,
    expr_from_json,
    expr_to_json,
    module_from_json,
    module_to_json,
)
from .soundness import (
    Agree,
    Disagree,
    Inconclusive,
    diff_check,
    gen_expr,
    minimal_fuel,
    run_corpus,
    subst_commutes,
)
from .chainsim import (
    Action,
    BlockHeader,
    Call,
    ChainState,
    Deploy,
    Trace,
    TraceStep,
    Transfer,
    add_block,
    cf_backed,
    cf_balance_consistent,
    check_invariant,
    check_invariants,
    consistent_balance,
    gen_trace,
    genesis,
    money_conserved,
    replay,
)

__version__ = "0.1.0"
