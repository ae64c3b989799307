"""Nameless term calculus: lifting/substitution laws, the call-by-value
normalizer's gating rules, and the printer."""

import random
from dataclasses import fields, replace

import pytest

from acorncore import kernel
from acorncore.kernel import (
    App,
    Const,
    Construct,
    Fix,
    Ind,
    KernelEnv,
    Lambda,
    LetIn,
    Match,
    PrimLit,
    Prod,
    Rel,
    SORT_SET,
    Term,
    cbv_eval,
    lift,
    parallel_subst,
    pretty_term,
    spine_view,
    subst1,
    term_bound,
)
from acorncore.lang import BUILTINS, EvalError, NOT_ENOUGH_FUEL, Ok, PInt, PNat
from acorncore.programs import corpus_dir, load_module, stdlib_env
from acorncore.soundness import corpus_files, gen_expr
from acorncore.translate import expr_to_term, translate_env

from oracles import forged_copy, kernel_app as mk_app, struct_eq, term_closed_under

GENV = stdlib_env()
KENV = translate_env(GENV)

INT = Ind("Int")
LIST_INT = App(Ind("List"), INT)

NIL = 0
CONS = 1


def zlit(n):
    return PrimLit(PInt(n))


def run(t, fuel=1000):
    return cbv_eval(KENV, fuel, t)


def ok(t, fuel=1000):
    r = run(t, fuel)
    assert isinstance(r, Ok), r
    return r.value


def err(t, fuel=1000):
    r = run(t, fuel)
    assert isinstance(r, EvalError), r
    return r.reason


def int_list(xs):
    acc = App(Construct("List", NIL), INT)
    for x in reversed(xs):
        acc = mk_app(Construct("List", CONS), INT, zlit(x), acc)
    return acc


# ---------------------------------------------------------------------------
# spine helpers

def test_spine_view_inverts_mk_app():
    f, a, b, c = Const("f"), zlit(1), zlit(2), zlit(3)
    t = mk_app(f, a, b, c)
    assert t == App(App(App(f, a), b), c)
    assert spine_view(t) == (f, (a, b, c))
    assert spine_view(f) == (f, ())


# ---------------------------------------------------------------------------
# lifting

def test_lift_hand_cases():
    assert lift(2, 0, Rel(0)) == Rel(2)
    assert lift(2, 1, Rel(0)) == Rel(0)
    # binder-crossing positions get the cutoff bumped
    assert lift(1, 0, Lambda("x", Rel(0), Rel(0))) == Lambda("x", Rel(1), Rel(0))
    assert lift(3, 0, Lambda("x", INT, Rel(1))) == Lambda("x", INT, Rel(4))
    assert lift(1, 0, LetIn("x", Rel(0), Rel(0), Rel(1))) == LetIn(
        "x", Rel(1), Rel(1), Rel(2)
    )
    assert lift(1, 0, Fix("r", Rel(0), Rel(1))) == Fix("r", Rel(1), Rel(2))
    assert lift(1, 0, Prod("A", Rel(0), Rel(1))) == Prod("A", Rel(1), Rel(2))
    for leaf in (Const("c"), Ind("List"), Construct("Bool", 0), SORT_SET, zlit(5)):
        assert lift(4, 0, leaf) == leaf


def test_lift_match_positions():
    # ty_params, scrut, branch bodies live outside the return-type binder;
    # only ret_ty sits under one extra binder
    m = Match(
        "Maybe",
        1,
        (Rel(0),),
        Rel(0),
        Rel(0),
        ((0, Rel(0)), (1, Lambda("x", Rel(0), Rel(1)))),
    )
    assert lift(1, 0, m) == Match(
        "Maybe",
        1,
        (Rel(1),),
        Rel(0),
        Rel(1),
        ((0, Rel(1)), (1, Lambda("x", Rel(1), Rel(2)))),
    )


# ---------------------------------------------------------------------------
# substitution

def test_subst1_hand_cases():
    assert subst1(zlit(9), Rel(0)) == zlit(9)
    assert subst1(zlit(9), Rel(1)) == Rel(0)
    # the substituted term is lifted past local binders
    assert subst1(Rel(5), Lambda("x", INT, Rel(1))) == Lambda("x", INT, Rel(6))
    assert subst1(zlit(9), Lambda("x", INT, Rel(2))) == Lambda("x", INT, Rel(1))


def test_parallel_subst_is_simultaneous():
    t = App(Rel(0), App(Rel(1), Rel(2)))
    assert parallel_subst((Rel(8), Rel(9)), t) == App(Rel(8), App(Rel(9), Rel(0)))


# ---------------------------------------------------------------------------
# random-term laws

_LEAF_INDS = ("Int", "Nat", "List", "Bool")


def _gen_term(rng, depth, width):
    # free references may exceed `width`; the laws hold for open terms too
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(6)
        if pick == 0:
            return Rel(rng.randrange(width + 3))
        if pick == 1:
            return zlit(rng.randrange(-9, 10))
        if pick == 2:
            return PrimLit(PNat(rng.randrange(9)))
        if pick == 3:
            return Ind(rng.choice(_LEAF_INDS))
        if pick == 4:
            return Construct("List", rng.randrange(2))
        return SORT_SET
    pick = rng.randrange(7)
    sub = lambda w: _gen_term(rng, depth - 1, w)
    if pick == 0:
        return Lambda("x", sub(width), sub(width + 1))
    if pick == 1:
        return App(sub(width), sub(width))
    if pick == 2:
        return LetIn("x", sub(width), sub(width), sub(width + 1))
    if pick == 3:
        return Fix("r", sub(width), sub(width + 1))
    if pick == 4:
        return Prod("A", sub(width), sub(width + 1))
    if pick == 5:
        return Match(
            "List",
            1,
            (sub(width),),
            sub(width + 1),
            sub(width),
            ((0, sub(width)), (2, sub(width))),
        )
    return App(Const("addInt"), sub(width))


_CLOSED_POOL = (
    zlit(42),
    PrimLit(PNat(3)),
    Ind("Bool"),
    Lambda("v", INT, Rel(0)),
    App(Construct("List", NIL), INT),
)


def test_lift_laws_on_random_terms():
    rng = random.Random(401)
    for _ in range(300):
        t = _gen_term(rng, 4, 0)
        for k in (0, 1, 2):
            assert lift(0, k, t) == t
            assert lift(2, k, lift(3, k, t)) == lift(5, k, t)
        # lifting above every free index changes nothing
        n = next(i for i in range(40) if term_closed_under(i, t))
        assert lift(7, n, t) == t


def test_subst_cancels_lift_on_random_terms():
    rng = random.Random(402)
    for _ in range(300):
        t = _gen_term(rng, 4, 0)
        assert subst1(zlit(99), lift(1, 0, t)) == t
        assert subst1(Rel(7), lift(1, 0, t)) == t
        assert parallel_subst((), t) == t


def test_parallel_subst_matches_chained_subst1():
    # for closed substituends the simultaneous form equals the left-to-right
    # chain of single substitutions
    rng = random.Random(403)
    for _ in range(200):
        t = _gen_term(rng, 4, 0)
        ts = tuple(rng.choice(_CLOSED_POOL) for _ in range(rng.randrange(1, 4)))
        chained = t
        for s in ts:
            chained = subst1(s, chained)
        assert parallel_subst(ts, t) == chained


def test_term_closed_under():
    assert term_closed_under(0, Lambda("x", INT, Rel(0)))
    assert not term_closed_under(0, Lambda("x", INT, Rel(1)))
    assert term_closed_under(1, Fix("r", INT, Rel(1)))
    m = Match("List", 1, (Rel(0),), Rel(1), Rel(0), ((0, Rel(0)),))
    assert term_closed_under(1, m)
    # ret_ty is the only field under the extra binder
    assert term_closed_under(0, Match("List", 1, (), Rel(0), zlit(0), ()))
    assert not term_closed_under(0, Match("List", 1, (), Rel(1), zlit(0), ()))
    assert not term_closed_under(0, Match("List", 1, (Rel(0),), Rel(0), zlit(0), ()))
    assert not term_closed_under(
        0, Match("List", 1, (), Rel(0), int_list([]), ((0, Rel(0)),))
    )


# ---------------------------------------------------------------------------
# free-index bound

def _subterms(t):
    yield t
    for f in fields(t):
        x = getattr(t, f.name)
        if isinstance(x, Term):
            yield from _subterms(x)
        elif isinstance(x, tuple):
            for y in x:
                y = y[1] if isinstance(y, tuple) else y
                yield from _subterms(y)


def _unmarked(kenv):
    """An environment equal to `kenv` under which no mark made so far holds,
    since a mark holds only under the environment it was made under."""
    return KernelEnv(kenv.inductives, kenv.constants, kenv.builtins)


def _corpus_terms():
    for f in corpus_files(corpus_dir()):
        genv, _ = load_module(str(f))
        yield from translate_env(genv).constants.values()


def _generated_terms(count=200, seed=41):
    rng = random.Random(seed)
    return [expr_to_term(GENV, gen_expr(rng, 12)) for _ in range(count)]


def _bound_matches_oracle(t):
    b = term_bound(t)
    return all((b <= n) == term_closed_under(n, t) for n in range(b + 2))


def test_term_bound_agrees_with_term_closed_under():
    # every subterm of the corpus, of generated programs and of random open
    # terms; subterms under binders are open
    rng = random.Random(404)
    tops = [*_corpus_terms(), *_generated_terms()]
    tops += [_gen_term(rng, 4, 0) for _ in range(300)]
    checked = 0
    for top in tops:
        for t in _subterms(top):
            assert _bound_matches_oracle(t), t
            checked += 1
    assert checked > 10_000
    assert term_bound(Lambda("x", INT, Rel(3))) == 3
    assert term_bound(Match("List", 1, (), Rel(2), zlit(0), ())) == 2


def test_cached_bounds_and_marks_are_invisible():
    lst = ok(int_list([3, 1, 2]))
    t = mk_app(Lambda("x", LIST_INT, Rel(0)), lst)
    term_bound(t)
    # `==` and `hash` are identity, so what is cached cannot reach them; repr
    # and printing are compared with a copy built around the intern table
    pairs = list(zip(_subterms(t), _subterms(forged_copy(t))))
    assert any("_mark" in vars(a) for a, _ in pairs)
    for a, b in pairs:
        assert "_bound" in vars(a)
        assert not {"_bound", "_mark"} & vars(b).keys()
        assert struct_eq(a, b) and repr(a) == repr(b)
        assert pretty_term(a) == pretty_term(b)


def test_lift_and_subst_return_closed_input_itself():
    # a hint no other test uses, so that the node is new here
    closed = Lambda("closed_input", INT, mk_app(Const("addInt"), Rel(0), zlit(1)))
    # the bound is computed on the way, not needed beforehand
    assert "_bound" not in vars(closed)
    assert parallel_subst((zlit(1),), closed) is closed
    assert lift(3, 0, closed) is closed
    assert lift(0, 0, Rel(2)) == Rel(2)
    lifted = lift(1, 0, App(Rel(0), closed))
    assert lifted == App(Rel(1), closed) and lifted.arg is closed
    substituted = parallel_subst((zlit(1),), App(Rel(0), closed))
    assert substituted == App(zlit(1), closed) and substituted.arg is closed
    lst = ok(int_list([4, 5]))
    assert subst1(lst, Lambda("y", INT, Rel(1))).body is lst


# ---------------------------------------------------------------------------
# evaluation: values and fuel

def test_values_evaluate_to_themselves():
    vals = [
        Lambda("x", INT, Rel(0)),
        Prod(None, INT, INT),
        SORT_SET,
        zlit(3),
        PrimLit(PNat(0)),
        Ind("List"),
        Construct("List", CONS),
        Fix("r", Prod(None, INT, INT), Lambda("x", INT, Rel(0))),
        Const("addInt"),  # builtin names stay symbolic
    ]
    for v in vals:
        assert ok(v, fuel=1) == v


def test_fuel_exhaustion_returns_the_shared_singleton():
    assert run(zlit(1), fuel=0) is NOT_ENOUGH_FUEL
    assert run(Rel(0), fuel=0) is NOT_ENOUGH_FUEL


def test_const_unfolds_at_reduced_fuel():
    kenv = KernelEnv(dict(KENV.inductives), dict(KENV.constants), dict(KENV.builtins))
    kenv.constants["one"] = zlit(1)
    kenv.constants["alias"] = Const("one")
    assert cbv_eval(kenv, 1, Const("one")) is NOT_ENOUGH_FUEL
    assert cbv_eval(kenv, 2, Const("one")) == Ok(zlit(1))
    assert cbv_eval(kenv, 2, Const("alias")) is NOT_ENOUGH_FUEL
    assert cbv_eval(kenv, 3, Const("alias")) == Ok(zlit(1))


def test_unknown_constant_and_unbound_rel():
    assert err(Const("no_such_thing")) == "unknown constant 'no_such_thing'"
    assert err(Rel(4)) == "unbound index 4 in kernel evaluation"


# ---------------------------------------------------------------------------
# evaluation: redexes

def test_beta_and_let():
    inc = Lambda("x", INT, mk_app(Const("addInt"), Rel(0), zlit(1)))
    assert ok(App(inc, zlit(41))) == zlit(42)
    doubled = LetIn("x", INT, zlit(7), mk_app(Const("addInt"), Rel(0), Rel(0)))
    assert ok(doubled) == zlit(14)


def test_argument_evaluates_before_function():
    r = run(App(Const("missing_fn"), Const("missing_arg")))
    assert isinstance(r, EvalError)
    assert "missing_arg" in r.reason


def test_let_bound_evaluates_before_body():
    r = run(LetIn("x", INT, Const("missing_bound"), Rel(5)))
    assert isinstance(r, EvalError)
    assert "missing_bound" in r.reason


def _sum_fix():
    # context in the Cons body after its two lambdas: [tl, hd, xs, rec]
    cons_body = Lambda(
        "hd",
        INT,
        Lambda(
            "tl",
            LIST_INT,
            mk_app(Const("addInt"), Rel(1), App(Rel(3), Rel(0))),
        ),
    )
    body = Lambda(
        "xs",
        LIST_INT,
        Match("List", 1, (INT,), INT, Rel(0), ((0, zlit(0)), (2, cons_body))),
    )
    return Fix("rec", Prod(None, LIST_INT, INT), body)


def test_fix_runs_on_constructor_shaped_values():
    assert ok(App(_sum_fix(), int_list([1, 2, 3]))) == zlit(6)
    assert ok(App(_sum_fix(), int_list([]))) == zlit(0)
    # primitive literals count as constructor forms
    ident = Fix("rec", Prod(None, INT, INT), Lambda("x", INT, Rel(0)))
    assert ok(App(ident, zlit(5))) == zlit(5)


def test_fix_rejects_non_constructor_argument():
    ident = Fix("rec", Prod(None, INT, INT), Lambda("x", INT, Rel(0)))
    msg = err(App(ident, Lambda("y", INT, Rel(0))))
    assert msg == "fixpoint applied to a non-constructor value"


def test_fix_body_must_be_a_lambda():
    loop = Fix("rec", INT, Rel(0))
    assert err(App(loop, zlit(1))) == "fixpoint body is not a lambda"


def test_fix_unfolds_in_one_walk_as_in_two():
    # `_cbv` puts the fixpoint into its body's body first, keeping index 0
    # and moving the indices above 1 down by one, then the argument; this,
    # and one walk for both, must build the term the two single
    # substitutions did, also for a fixpoint that sits under binders and so
    # is open
    fixes, values = [], []
    for f in corpus_files(corpus_dir()):
        kenv = translate_env(load_module(str(f))[0])
        for top in kenv.constants.values():
            fixes += ((kenv, t) for t in _subterms(top) if isinstance(t, Fix))
            r = cbv_eval(kenv, 10_000, top)
            if isinstance(r, Ok) and kernel._constr_headed(r.value):
                values.append((kenv, r.value))
    assert any(term_bound(vf) > 0 for _, vf in fixes) and len(values) > 10
    applied = 0
    for kenv, vf in fixes:
        for home, va in values:
            two = subst1(va, subst1(vf, vf.body).body)
            assert parallel_subst((va, vf), vf.body.body) == two
            assert subst1(va, kernel._subst((Rel(0), lift(1, 0, vf)), 1, 0, vf.body.body)) == two
            if term_bound(vf) == 0 and home is kenv:
                # the application step runs the body one level down; the
                # argument, a value of the same module, evaluates to itself
                assert cbv_eval(kenv, 201, App(vf, va)) == cbv_eval(kenv, 200, two)
                applied += 1
    assert applied > 100


def test_match_instantiates_in_one_walk_as_in_one_per_argument():
    # `_cbv` puts every constructor argument into a branch in one walk; it
    # must build the term one `subst1` per argument did, also for a match
    # that sits under binders and so is open
    matches, values = [], []
    for f in corpus_files(corpus_dir()):
        kenv = translate_env(load_module(str(f))[0])
        for top in kenv.constants.values():
            matches += ((kenv, t) for t in _subterms(top) if isinstance(t, Match))
            r = cbv_eval(kenv, 10_000, top)
            if isinstance(r, Ok) and isinstance(spine_view(r.value)[0], Construct):
                values.append(r.value)
    checked = 0
    for kenv, m in matches:
        for v in values:
            head, spine = spine_view(v)
            if head.ind != m.ind or head.ctor_idx >= len(m.branches):
                continue
            arity, body = m.branches[head.ctor_idx]
            args = spine[len(spine) - arity:]
            chained = body
            for a in args:
                chained = subst1(a, chained.body)
            # a substitution left pending on the match, with open entries
            # that the branch's lambdas lift
            pend = tuple(Rel(7 + i) if i % 2 else zlit(i) for i in range(term_bound(m) + 1))
            pended = parallel_subst(pend, m).branches[head.ctor_idx][1]
            for a in args:
                pended = subst1(a, pended.body)
            for _ in args:
                body = body.body
            assert parallel_subst(args[::-1], body) == chained
            assert parallel_subst(args[::-1] + pend, body) == pended
            # and `_cbv` goes on from it, with literals for the free indices
            closing = (zlit(0),) * term_bound(m)
            r = cbv_eval(kenv, 199, parallel_subst(closing, chained))
            closed = parallel_subst(closing, replace(m, scrut=v))
            assert cbv_eval(kenv, 200, closed) == r
            checked += 1
    assert any(term_bound(m) > 0 for _, m in matches) and checked > 100, checked


# ---------------------------------------------------------------------------
# evaluation: a substitution left pending on a match

def _lazy_equals_eager(kenv, m, values):
    """For each value `v`, applying `fun _ => m` to `v` at fuel `f` reads
    what evaluating `m` with `v` substituted reads at `f - 1`, once `v`
    itself evaluates at `f - 1`, for every `f` from 1 to one past the least
    fuel; and so do `let _ := v in m` and, for a constructor form `v`, a
    fixpoint whose body is `fun _ => m`. Each of them leaves `v` pending on
    the match; the substituted term puts it in first. `m` has no free index
    but 0. Returns how many fuels were checked."""
    checked = 0
    for v in values:
        eager = subst1(v, m)
        least_v = _minimal_fuel(kenv, v)
        lazies = [App(Lambda(None, INT, m), v), LetIn(None, INT, v, m)]
        if kernel._constr_headed(v):
            lazies.append(App(Fix(None, Prod(None, INT, INT), Lambda(None, INT, m)), v))
        for lazy in lazies:
            for f in range(1, _minimal_fuel(kenv, lazy) + 2):
                want = cbv_eval(kenv, f - 1, eager) if f - 1 >= least_v else NOT_ENOUGH_FUEL
                assert cbv_eval(kenv, f, lazy) == want, (pretty_term(lazy), f)
                checked += 1
    return checked


def _match_bodied(t):
    """The match under one binder of each lambda, let and fixpoint in `t`
    whose body is a match: the let's bound value and, for a fixpoint, the
    fixpoint itself already put in."""
    for s in _subterms(t):
        c = type(s)
        if (c is Lambda or c is LetIn) and type(s.body) is Match:
            yield s.body
        elif c is Fix and type(s.body) is Lambda and type(s.body.body) is Match:
            yield subst1(s, s.body).body


def test_a_pending_match_reads_as_the_substituted_one_at_every_fuel():
    # every match-bodied binder of the translated corpus, the stdlib among
    # it, with its other free indices closed, applied to the atoms and the
    # constructor values of the corpus
    atoms = (zlit(3), Construct("Bool", 0), Construct("Bool", 1), INT, SORT_SET,
             Lambda("x", INT, Rel(0)))
    checked = seen = 0
    for f in corpus_files(corpus_dir()):
        kenv = translate_env(load_module(str(f))[0])
        matches = {m for top in kenv.constants.values() for m in _match_bodied(top)}
        heads = {}
        for top in kenv.constants.values():
            r = cbv_eval(kenv, 10_000, top)
            if isinstance(r, Ok) and isinstance(spine_view(r.value)[0], Construct):
                heads[r.value] = spine_view(r.value)[0]
        for m in matches:
            # index 0 stays the pending entry; the indices above it, bound
            # further out, are closed by literals
            closing = (Rel(0),) + (zlit(0),) * term_bound(m)
            m = parallel_subst(closing, m)
            fit = [v for v, h in heads.items() if h.ind == m.ind]
            checked += _lazy_equals_eager(kenv, m, fit + list(atoms))
            seen += 1
    assert seen > 150 and checked > 5000, (seen, checked)


def test_a_pending_match_reads_as_the_substituted_one_by_hand(monkeypatch):
    nil = App(Construct("List", NIL), INT)
    add = Const("addInt")
    cases = [
        # a branch reads the pending entry (index 0 outside the branch)
        (_match_list(int_list([4]), ((0, Rel(0)), (2, _drop2(mk_app(add, Rel(1), Rel(2)))))),
         [zlit(10)]),
        (Match("Bool", 0, (), INT, Construct("Bool", 1), ((0, zlit(1)), (0, Rel(0)))),
         [zlit(10)]),
        # the scrutinee is the pending entry; arity-0 and arity-2 branches
        (_match_list(Rel(0), ((0, zlit(0)), (2, _drop2(Rel(1))))),
         [ok(int_list([])), ok(int_list([5, 6]))]),
        (Match("Bool", 0, (), INT, Rel(0), ((0, zlit(1)), (0, zlit(2)))),
         [Construct("Bool", 0), Construct("Bool", 1)]),
        # a match nested in a branch: the constructor arguments and the
        # pending entry stay pending on it together
        (_match_list(int_list([1, 2]), ((0, Rel(0)), (2, _drop2(_match_list(Rel(0), (
            (0, mk_app(add, Rel(1), Rel(2))),
            (2, _drop2(mk_app(add, Rel(3), mk_app(add, Rel(1), Rel(4))))),
        )))))),
         [zlit(100)]),
        # a parameter-prefix match on `List A`, with the pending entry `A`
        (Match("List", 1, (Rel(0),), Rel(1),
               mk_app(Construct("List", CONS), Rel(0), zlit(8), App(Construct("List", NIL), Rel(0))),
               ((0, zlit(0)), (2, _drop2(Rel(1))))),
         [INT, LIST_INT]),
    ]
    errors = [
        (_match_list(Rel(0), ((0, zlit(1)),)), "match on a non-constructor value",
         [zlit(3), Lambda("x", INT, Rel(0))]),
        (_match_list(Rel(0), ((0, zlit(1)), (0, zlit(2)))),
         "scrutinee of 'Bool' matched against 'List'", [Construct("Bool", 0)]),
        (_match_list(Rel(0), ((0, Rel(0)), (2, Lambda("x", INT, Rel(1))))),
         "branch shape does not match its arity", [ok(int_list([1]))]),
        (_match_list(mk_app(Construct("List", CONS), Rel(0), zlit(1), nil),
                     ((0, zlit(9)), (2, _drop2(Rel(2))))),
         "non-type argument in the parameter prefix", [zlit(3)]),
    ]
    for m, values in cases:
        _lazy_equals_eager(KENV, m, values)
    # a lambda or let applied to its value rebuilds none of these matches,
    # nested ones included: the value stays pending on each
    built = 0
    build = Match.__new__

    def counting_match(cls, *args):
        nonlocal built
        built += 1
        return build(cls, *args)

    monkeypatch.setattr(Match, "__new__", counting_match)
    for m, values in cases:
        for v in values:
            assert isinstance(run(App(Lambda(None, INT, m), v)), Ok), (m, v)
            assert isinstance(run(LetIn(None, INT, v, m)), Ok), (m, v)
    assert built == 0
    for m, reason, values in errors:
        _lazy_equals_eager(KENV, m, values)
        for v in values:
            assert err(App(Lambda(None, INT, m), v)) == reason, (m, v)


# ---------------------------------------------------------------------------
# evaluation: match gating

def _match_list(scrut, branches):
    return Match("List", 1, (INT,), INT, scrut, branches)


def test_match_selects_by_constructor_index():
    assert ok(_match_list(int_list([]), ((0, zlit(10)), (2, _drop2(zlit(20)))))) == zlit(10)
    assert ok(
        _match_list(int_list([5]), ((0, zlit(10)), (2, _drop2(Rel(1)))))
    ) == zlit(5)


def _drop2(body):
    return Lambda("hd", INT, Lambda("tl", LIST_INT, body))


def test_match_rejects_non_constructor_scrutinee():
    assert err(_match_list(Lambda("x", INT, Rel(0)), ((0, zlit(1)),))) == (
        "match on a non-constructor value"
    )
    assert err(_match_list(zlit(3), ((0, zlit(1)),))) == (
        "match on a non-constructor value"
    )


def test_match_rejects_wrong_inductive():
    m = _match_list(Construct("Bool", 0), ((0, zlit(1)), (0, zlit(2))))
    assert err(m) == "scrutinee of 'Bool' matched against 'List'"


def test_match_rejects_missing_branch():
    m = _match_list(int_list([1]), ((0, zlit(1)),))
    assert err(m) == "no branch for constructor 1 of 'List'"


def test_match_drop_must_fit_parameter_count():
    # Cons carries one type parameter plus two fields; a branch of arity 1
    # would force a drop of 2 against n_params = 1
    m = _match_list(int_list([1]), ((0, zlit(1)), (1, Lambda("hd", INT, Rel(0)))))
    assert err(m) == "constructor argument count does not fit the branch"
    # arity beyond the argument count makes the drop negative
    m = _match_list(int_list([]), ((3, zlit(1)), (2, _drop2(zlit(2)))))
    assert err(m) == "constructor argument count does not fit the branch"


def test_match_parameter_prefix_must_be_type_like():
    bad_nil = App(Construct("List", NIL), zlit(1))
    m = _match_list(bad_nil, ((0, zlit(9)), (2, _drop2(zlit(0)))))
    assert err(m) == "non-type argument in the parameter prefix"


def test_match_branch_shape_must_match_arity():
    m = _match_list(int_list([1]), ((0, zlit(1)), (2, zlit(2))))
    assert err(m) == "branch shape does not match its arity"


def test_match_branch_lambdas_must_be_syntactic():
    # the branch's lambdas are peeled before any argument goes in, so a
    # branch that only becomes a second lambda once the first argument is
    # substituted (here `fun x => x` given a lambda) no longer fits arity 2
    lam = Lambda("y", INT, zlit(5))
    scrut = mk_app(Construct("List", CONS), INT, lam, int_list([]))
    m = _match_list(scrut, ((0, zlit(1)), (2, Lambda("x", INT, Rel(0)))))
    assert err(m) == "branch shape does not match its arity"


def test_match_accepts_applied_type_in_prefix():
    nil_list_list = App(Construct("List", NIL), LIST_INT)
    m = Match("List", 1, (LIST_INT,), INT, nil_list_list, ((0, zlit(7)), (2, _drop2(zlit(8)))))
    assert ok(m) == zlit(7)


# ---------------------------------------------------------------------------
# evaluation: constructors, builtins, inert applications

def test_constructor_application_is_bounded():
    partial = App(Construct("List", CONS), INT)
    assert ok(partial) == partial
    full = int_list([1])
    over = App(full, zlit(2))
    assert err(over) == "constructor 'Cons' applied to too many arguments"
    assert err(App(App(Construct("List", NIL), INT), zlit(1))) == (
        "constructor 'Nil' applied to too many arguments"
    )


def test_unknown_constructor_application():
    assert err(App(Construct("Nope", 0), zlit(1))) == "unknown constructor 0 of 'Nope'"
    assert err(App(Construct("List", 9), zlit(1))) == "unknown constructor 9 of 'List'"


def test_builtin_partial_then_saturation():
    partial = ok(App(Const("addInt"), zlit(1)))
    assert partial == App(Const("addInt"), zlit(1))
    assert ok(App(partial, zlit(2))) == zlit(3)
    assert ok(mk_app(Const("subInt"), zlit(10), zlit(4))) == zlit(6)
    assert ok(mk_app(Const("addNat"), PrimLit(PNat(2)), PrimLit(PNat(3)))) == PrimLit(
        PNat(5)
    )


def test_builtin_comparison_yields_bool_constructors():
    assert KENV.inductives["Bool"].ctors[0].name == "True"
    assert ok(mk_app(Const("ltInt"), zlit(1), zlit(2))) == Construct("Bool", 0)
    assert ok(mk_app(Const("ltInt"), zlit(2), zlit(1))) == Construct("Bool", 1)
    assert ok(mk_app(Const("eqbNat"), PrimLit(PNat(4)), PrimLit(PNat(4)))) == Construct(
        "Bool", 0
    )


def test_builtin_literal_kind_mismatch():
    msg = err(mk_app(Const("addNat"), zlit(1), PrimLit(PNat(2))))
    assert msg == "primitive 'addNat' applied to the wrong literal kind"
    msg = err(mk_app(Const("addInt"), Ind("Int"), zlit(2)))
    assert msg == "primitive 'addInt' applied to a non-literal"


def test_builtin_over_application():
    # saturation executes on the way, so the extra argument lands on a literal
    assert err(mk_app(Const("addInt"), zlit(1), zlit(2), zlit(3))) == (
        "application of a non-function value"
    )
    # so no builtin-headed value holds as many arguments as the builtin
    # takes, as long as each takes at least one
    assert all(b.arg_kinds for b in BUILTINS.values())
    assert ok(mk_app(Const("addInt"), zlit(1))) == mk_app(Const("addInt"), zlit(1))


def test_type_abstraction_applied_to_a_term_fails():
    # a lambda over `Set` is a translated type abstraction, and takes only a
    # type, as the interpreter's type closure does
    polyid = Lambda("A", SORT_SET, Lambda("x", Rel(0), Rel(0)))
    assert err(App(polyid, Construct("Bool", 0))) == "type abstraction applied to a term value"
    assert err(App(polyid, zlit(1))) == "type abstraction applied to a term value"
    for ty in (Ind("Int"), App(Ind("List"), Ind("Int")), Prod(None, Ind("Int"), Ind("Int"))):
        assert ok(mk_app(polyid, ty, zlit(1))) == zlit(1)


def test_ind_headed_application_is_inert():
    t = App(Ind("List"), Ind("Int"))
    assert ok(t) == t
    assert ok(App(t, Ind("Bool"))) == App(t, Ind("Bool"))


def test_an_inductive_applied_to_a_term_fails():
    # `[List] 3z`: an inductive takes only types, as the interpreter's type
    # value headed by an inductive does
    for arg in (zlit(3), Construct("Bool", 0), Lambda("x", INT, Rel(0))):
        assert err(App(Ind("List"), arg)) == "application of a non-function value"
        assert err(App(LIST_INT, arg)) == "application of a non-function value"


def test_application_of_a_literal_fails():
    assert err(App(zlit(1), zlit(2))) == "application of a non-function value"


def _curried3():
    body = mk_app(Const("addInt"), Rel(2), Rel(0))
    return Lambda("a", INT, Lambda("b", INT, Lambda("c", INT, body)))


# (term, least fuel, result at that fuel): a tail step is no call, yet each
# step still runs at the fuel its call had, so each runs out of fuel one below
SPINES = {
    "constructor over-applied": (
        mk_app(Construct("Maybe", 1), INT, zlit(1), zlit(2)),
        4, EvalError("constructor 'Just' applied to too many arguments"),
    ),
    "constructor over-applied through a lambda": (
        mk_app(Lambda("x", INT, Construct("Prod", 0)), zlit(0), INT, INT, zlit(1), zlit(2), zlit(3)),
        7, EvalError("constructor 'Pair' applied to too many arguments"),
    ),
    "builtin over-applied": (
        mk_app(Const("addInt"), zlit(1), zlit(2), zlit(3)),
        4, EvalError("application of a non-function value"),
    ),
    "builtin's Bool over-applied": (
        mk_app(Const("ltInt"), zlit(1), zlit(2), zlit(3)),
        4, EvalError("constructor 'True' applied to too many arguments"),
    ),
    "partial constructor": (
        mk_app(Construct("Prod", 0), INT, INT, zlit(1)),
        4, Ok(mk_app(Construct("Prod", 0), INT, INT, zlit(1))),
    ),
    "partial builtin": (
        App(Const("addInt"), zlit(1)),
        2, Ok(App(Const("addInt"), zlit(1))),
    ),
    "partial builtin through a lambda": (
        mk_app(Lambda("x", INT, Const("addInt")), zlit(0), zlit(1)),
        3, Ok(App(Const("addInt"), zlit(1))),
    ),
    "type abstraction applied to a term mid-spine": (
        mk_app(Lambda("x", INT, Lambda("A", SORT_SET, Lambda("y", Rel(0), Rel(0)))), zlit(1), zlit(2), zlit(3)),
        4, EvalError("type abstraction applied to a term value"),
    ),
    "curried call of three": (mk_app(_curried3(), zlit(1), zlit(2), zlit(3)), 4, Ok(zlit(4))),
}


@pytest.mark.parametrize("name", SPINES)
def test_a_spine_finishes_at_its_least_fuel(name):
    t, fuel, want = SPINES[name]
    # marks that earlier evaluations left on shared nodes do not hold
    kenv = _unmarked(KENV)
    assert cbv_eval(kenv, fuel, t) == want
    assert cbv_eval(kenv, fuel - 1, t) is NOT_ENOUGH_FUEL


def test_evaluation_is_deterministic():
    t = App(_sum_fix(), int_list(list(range(20))))
    a = run(t, fuel=5000)
    b = run(t, fuel=5000)
    assert a == b == Ok(zlit(190))
    assert repr(a) == repr(b)


# ---------------------------------------------------------------------------
# evaluation: value marks

def _minimal_fuel(kenv, t):
    hi = 1
    while cbv_eval(kenv, hi, t) is NOT_ENOUGH_FUEL:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cbv_eval(kenv, mid, t) is NOT_ENOUGH_FUEL:
            lo = mid
        else:
            hi = mid
    return hi


def _marks_are_fuel_exact(kenv, t):
    """`t`, which may hold values `cbv_eval` marked, evaluates at its
    minimal fuel and one below exactly as an unmarked copy does. The copy is
    built around the intern table, so no mark lands on its own nodes and
    its results hold its own leaves: they are compared structurally."""
    copy = forged_copy(t)
    m = _minimal_fuel(kenv, copy)
    return all(struct_eq(cbv_eval(kenv, f, t), cbv_eval(kenv, f, copy)) for f in (m - 1, m))


def _fold(f_name, lst):
    return mk_app(Const("foldr"), INT, INT, Const(f_name), zlit(7), lst)


def test_marked_values_are_fuel_exact():
    for f in corpus_files(corpus_dir()):
        genv, defs = load_module(str(f))
        kenv = translate_env(genv)
        for _, body in defs:
            r = cbv_eval(kenv, 10_000, expr_to_term(genv, body))
            if isinstance(r, Ok):
                assert _marks_are_fuel_exact(kenv, r.value), (f.name, r.value)
    for t in _generated_terms():
        r = run(t, fuel=10_000)
        if isinstance(r, Ok):
            assert _marks_are_fuel_exact(KENV, r.value), r.value
    for n in range(61):
        lst = ok(int_list([(j * 37) % 101 - 50 for j in range(n)]))
        assert _marks_are_fuel_exact(KENV, lst), n
        # the marked list as an argument, not only as a result
        assert _marks_are_fuel_exact(KENV, _fold("maxInt", lst)), n


def test_marks_hold_only_under_their_environment():
    lst = ok(int_list([1, 2]))
    partial = ok(App(Const("addInt"), zlit(1)))
    no_list = KernelEnv(
        {n: i for n, i in KENV.inductives.items() if n != "List"},
        KENV.constants,
        KENV.builtins,
    )
    no_add = KernelEnv(
        KENV.inductives,
        KENV.constants,
        {n: b for n, b in KENV.builtins.items() if n != "addInt"},
    )
    for kenv, value, reason in (
        (no_list, lst, "unknown constructor 0 of 'List'"),
        (no_add, partial, "unknown constant 'addInt'"),
    ):
        r = cbv_eval(kenv, 1000, value)
        assert r == cbv_eval(kenv, 1000, forged_copy(value)) == EvalError(reason)
    # an equal environment is still another environment
    copy = KernelEnv(dict(KENV.inductives), dict(KENV.constants), dict(KENV.builtins))
    assert _marks_are_fuel_exact(copy, lst)


def test_fold_calls_grow_linearly(monkeypatch):
    # the list value is substituted and matched again at every step; kept
    # closed and marked, it is neither rebuilt nor walked again
    calls = 0
    evaluate = kernel._cbv

    def counting(kenv, fuel, t):
        nonlocal calls
        calls += 1
        return evaluate(kenv, fuel, t)

    # the recursion goes through `_cbv`, so counting it counts every level
    monkeypatch.setattr(kernel, "_cbv", counting)
    counts = []
    for n in (50, 100):
        calls = 0
        # marks that earlier evaluations left on shared nodes do not hold
        kenv = _unmarked(KENV)
        r = kernel.cbv_eval(kenv, 10_000, _fold("addInt", int_list(list(range(n)))))
        assert r == Ok(zlit(7 + n * (n - 1) // 2))
        counts.append(calls)
    assert counts[1] <= 2.2 * counts[0], counts


def test_fold_substitutes_once_per_match(monkeypatch):
    # a match puts all its constructor arguments into the branch in one
    # walk, so no intermediate branch is built, then walked for its bound;
    # one walk per argument made 1,529 and 2,929 `_subst` calls and 782 and
    # 1,388 `term_bound` calls
    calls = dict.fromkeys(("_cbv", "_subst", "term_bound", "Match"), 0)
    for name in ("_cbv", "_subst", "term_bound"):
        def counting(*args, _name=name, _f=getattr(kernel, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(kernel, name, counting)
    build = Match.__new__

    def counting_match(cls, *args):
        calls["Match"] += 1
        return build(cls, *args)

    monkeypatch.setattr(Match, "__new__", counting_match)
    seen = []
    for n in (50, 100):
        calls.update(dict.fromkeys(calls, 0))
        # marks that earlier evaluations left on shared nodes do not hold, so
        # the `_cbv` and `_subst` counts do not depend on them; bounds kept on
        # shared nodes only lower the `term_bound` count
        kenv = _unmarked(KENV)
        r = kernel.cbv_eval(kenv, 10_000, _fold("addInt", int_list(list(range(n)))))
        assert r == Ok(zlit(7 + n * (n - 1) // 2))
        seen.append(dict(calls))
    # 773 and 1,523 before tree nodes were interned: `_cbv` now rebuilds
    # each inert application of the input list as the very node it walked,
    # so the mark lands on the input and later matches do not walk it again.
    # 675 and 1,325 before a tail step (a beta step's body, a match branch,
    # a let body, a constant's body) went round `_cbv`'s loop rather than
    # calling it, and an atom in argument or function position was taken in
    # place rather than evaluated by a call
    assert [c["_cbv"] for c in seen] == [410, 810], seen
    # 1,229 and 2,329 while each unfold of the fold's fixpoint put the
    # fixpoint into its own body again: the environment now keeps that
    # body, and each element walks it for the element alone. 786 and 1,436
    # while a step that went on with a match (the unfold, a beta step, a let
    # body, a match branch) put its substitution into the whole match: it is
    # now left pending, and goes into the scrutinee and the taken branch
    # alone, so the fold builds no match per element (56 and 106 then)
    assert [c["_subst"] for c in seen] == [532, 932], seen
    assert [c["Match"] for c in seen] == [5, 5], seen
    assert seen[0]["term_bound"] <= 382 and seen[1]["term_bound"] <= 588, seen


# ---------------------------------------------------------------------------
# evaluation: the unfolded fixpoint an environment keeps

NAT = Ind("Nat")


def natlit(n):
    return PrimLit(PNat(n))


def nat_map(pairs):
    acc = mk_app(Construct("AcornMap", 0), NAT, INT)
    for k, v in reversed(pairs):
        acc = mk_app(Construct("AcornMap", 1), NAT, INT, natlit(k), zlit(v), acc)
    return acc


def _open_fix():
    # under one outside binder: the `Nil` branch returns a lambda over that
    # binder's index, the `Cons` branch recurses on the tail
    nil_body = Lambda("y", INT, Rel(3))
    cons_body = Lambda("hd", INT, Lambda("tl", LIST_INT, App(Rel(3), Rel(0))))
    ret = Prod(None, INT, INT)
    body = Lambda(
        "xs", LIST_INT, Match("List", 1, (INT,), ret, Rel(0), ((0, nil_body), (2, cons_body)))
    )
    return Fix("rec", Prod(None, LIST_INT, ret), body)


_MAP = nat_map([(1, 10), (2, 20), (1, 30), (3, 40), (2, 50)])

# (term, least fuel, result at that fuel), each read before `_cbv` kept an
# unfolded fixpoint on its environment
UNFOLDS = {
    # `sum_map` unfolds `mdel k`, a new fixpoint for each key, between two
    # unfolds of its own
    "sum_map": (mk_app(Const("sum_map"), _MAP), 24, Ok(zlit(70))),
    "foldr over concat": (
        _fold("addInt", mk_app(Const("concat"), INT, int_list([1, 2, 3]), int_list([4, 5]))),
        19, Ok(zlit(22)),
    ),
    # the body of `mfind`'s fixpoint is a lambda over the key
    "mfind, found": (mk_app(Const("mfind"), _MAP, natlit(3)), 18, Ok(App(Construct("Maybe", 1), zlit(40)))),
    "mfind, missing": (mk_app(Const("mfind"), _MAP, natlit(9)), 20, Ok(Construct("Maybe", 0))),
    # an open fixpoint: its body's index above 1, the outside binder's,
    # must come out of the two walks where one walk for both puts it
    "open fixpoint": (App(_open_fix(), int_list([1, 2])), 8, Ok(Lambda("y", INT, Rel(1)))),
}


@pytest.mark.parametrize("name", UNFOLDS)
def test_an_unfolding_finishes_at_its_least_fuel(name):
    t, fuel, want = UNFOLDS[name]
    kenv = _unmarked(KENV)
    # twice, so that the second round meets what the first left on `kenv`
    for _ in range(2):
        assert cbv_eval(kenv, fuel, t) == want
        assert cbv_eval(kenv, fuel - 1, t) is NOT_ENOUGH_FUEL


def test_two_fixpoints_applied_alternately():
    kenv = _unmarked(KENV)
    cases = (
        (App(_sum_fix(), int_list([1, 2, 3])), 13, zlit(6)),
        (_fold("maxInt", int_list([3, 9, 4])), 13, zlit(9)),
    )
    for _ in range(2):
        for t, fuel, want in cases:
            assert cbv_eval(kenv, fuel, t) == Ok(want)
            assert cbv_eval(kenv, fuel - 1, t) is NOT_ENOUGH_FUEL


def test_one_fixpoint_under_two_environments():
    # the same fixpoint node, with `addInt` meaning subtraction in one
    # environment; each environment keeps its own unfolding
    swapped = KernelEnv(
        KENV.inductives, KENV.constants, {**KENV.builtins, "addInt": KENV.builtins["subInt"]}
    )
    plain = _unmarked(KENV)
    t = _fold("addInt", int_list([1, 2, 3, 4]))
    for _ in range(2):
        for kenv, want in ((plain, 17), (swapped, 5)):
            assert cbv_eval(kenv, 16, t) == Ok(zlit(want))
            assert cbv_eval(kenv, 15, t) is NOT_ENOUGH_FUEL


# ---------------------------------------------------------------------------
# printing

def test_pretty_term_basics():
    assert pretty_term(Lambda("x", INT, Rel(0))) == "fun (x : Int) => x"
    assert pretty_term(Lambda("x", INT, Lambda("x", INT, Rel(0)))) == (
        "fun (x : Int) => fun (x2 : Int) => x2"
    )
    assert pretty_term(Rel(3)) == "#3"
    assert pretty_term(SORT_SET) == "Set"
    assert pretty_term(zlit(3)) == "3z"
    assert pretty_term(PrimLit(PNat(3))) == "3"
    assert pretty_term(Construct("List", CONS)) == "List.1"


def test_pretty_term_composites():
    assert pretty_term(int_list([3])) == "List.1 Int 3z (List.0 Int)"
    assert pretty_term(Prod(None, INT, INT)) == "Int -> Int"
    assert pretty_term(Prod("A", SORT_SET, Rel(0))) == "forall (A : Set), A"
    assert pretty_term(LetIn("x", INT, zlit(1), Rel(0))) == "let x := 1z in x"
    m = _match_list(Rel(0), ((0, zlit(1)), (2, _drop2(zlit(2)))))
    assert pretty_term(m) == (
        "match #0 with 0 => 1z | 2 => fun (hd : Int) => fun (tl : List Int) => 2z end"
    )
