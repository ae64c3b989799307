"""Command line front end.

Exit codes: 0 success; 1 for failures in the checked artifact (ill-formed
module, evaluation error, evaluator disagreement, violated invariant, a
program or value nested past Python's recursion limit);
2 for unusable input (unreadable file, syntax error, bad JSON, bad usage).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from .chainsim import (
    DEFAULT_CALL_FUEL,
    INVARIANTS,
    ChainError,
    check_invariants,
    gen_trace,
    load_scenario,
    replay,
)
from .interp import eval_expr, from_val
from .lang import (
    Builtin,
    Const,
    EvalError,
    GlobalEnv,
    LangError,
    NotEnoughFuel,
    Ok,
    wf_global_errors,
)
from .parser import ParseError, parse_expr_text, pretty_expr
from .programs import contract, load_module
from .serialize import JsonError
from .soundness import run_corpus
from .translate import TranslateError, translate_env


def _count(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than `low`."""

    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return count


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="acorn", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a module and report well-formedness")
    p.add_argument("module")

    p = sub.add_parser("run", help="evaluate an entry point of a module")
    p.add_argument("module")
    p.add_argument("--entry", required=True, help="constant to evaluate")
    p.add_argument("--args", default=None, help="arguments, in concrete syntax")
    p.add_argument("--fuel", type=int, default=10_000)

    p = sub.add_parser("translate", help="show kernel terms for a module")
    p.add_argument("module")
    p.add_argument("--entry", default=None, help="only this constant")

    p = sub.add_parser("diff-eval", help="compare both evaluators over a corpus")
    p.add_argument("--corpus", default=None, help="directory of modules (default: packaged)")
    p.add_argument("--gen", type=_count(0), default=0, help="extra generated expressions")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--fuel", type=int, default=10_000)

    p = sub.add_parser("chain", help="simulate random blocks against a scenario")
    p.add_argument("--scenario", default="crowdfunding")
    p.add_argument("--blocks", type=_count(1), default=12)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--fuel", type=int, default=DEFAULT_CALL_FUEL)
    p.add_argument(
        "--check",
        default="money_conserved,cf_backed,cf_balance_consistent",
        help="comma separated invariant names, empty to skip",
    )
    return top


def _cmd_check(args: argparse.Namespace) -> int:
    env, defs = load_module(args.module)
    errors = wf_global_errors(env)
    if errors:
        more = f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""
        print(f"error: {errors[0]}{more}", file=sys.stderr)
        return 1
    try:
        translate_env(env)
    except TranslateError as err:
        print(f"error: does not translate: {err}", file=sys.stderr)
        return 1
    print(f"ok: {len(env.inductives)} inductives, {len(defs)} definitions")
    return 0


def _render_value(env: GlobalEnv, v) -> str:
    """A value in concrete syntax, or its repr when it does not read back."""
    shell = from_val(v)
    if shell is None:
        return repr(v)
    return pretty_expr(shell, (), env)


def _cmd_run(args: argparse.Namespace) -> int:
    env, _ = load_module(args.module)
    if env.constants.get(args.entry) is None:
        print(f"error: no definition named '{args.entry}'", file=sys.stderr)
        return 1
    if args.args:
        expr = parse_expr_text(f"{args.entry} {args.args}", env)
    else:
        expr = Const(args.entry)
    r = eval_expr(env, args.fuel, (), expr)
    match r:
        case Ok(v):
            print(_render_value(env, v))
            return 0
        case NotEnoughFuel():
            print(f"error: out of fuel ({args.fuel})", file=sys.stderr)
            return 1
        case EvalError(reason):
            print(f"error: {reason}", file=sys.stderr)
            return 1
    raise AssertionError(r)


def _cmd_translate(args: argparse.Namespace) -> int:
    from .kernel import pretty_term
    from .translate import expr_to_term

    env, defs = load_module(args.module)
    translate_env(env)  # surfaces translation problems for the whole module
    if args.entry is not None:
        body = env.constants.get(args.entry)
        if body is None or isinstance(body, Builtin):
            print(f"error: no translatable definition named '{args.entry}'", file=sys.stderr)
            return 1
        print(pretty_term(expr_to_term(env, body)))
        return 0
    for name, body in defs:
        print(f"{name} = {pretty_term(expr_to_term(env, body))}")
    return 0


def _cmd_diff_eval(args: argparse.Namespace) -> int:
    from .programs import corpus_dir

    if args.corpus is None:
        # named, not located, so that the report does not depend on where
        # the package is installed
        corpus, source = corpus_dir(), "packaged corpus"
    else:
        corpus = source = args.corpus
    report = run_corpus(
        corpus, fuel=args.fuel, gen_count=args.gen, seed=args.seed, size=args.size
    )
    report.source = source
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_chain(args: argparse.Namespace) -> int:
    names = [n for n in args.check.split(",") if n]
    for name in names:
        if name not in INVARIANTS:
            print(f"error: unknown invariant '{name}'", file=sys.stderr)
            return 2
    scenario = load_scenario(args.scenario)
    trace = gen_trace(args.seed, args.blocks, scenario, fuel=args.fuel)
    accepted = sum(1 for s in trace.steps if s.accepted)
    print(f"blocks: {len(trace.steps)} ({accepted} accepted)")
    states = replay(trace, fuel=args.fuel)
    st = states[-1] if states else trace.genesis
    print(f"final slot: {st.slot}")
    for addr in sorted(st.balances):
        print(f"balance {addr}: {st.balances[addr]}")
    for addr in sorted(st.contracts):
        con = st.contracts[addr]
        env = contract(con.program).env
        print(f"contract {addr} ({con.program}): {_render_value(env, con.state)}")
    failures = 0
    violations = check_invariants(trace, [INVARIANTS[n] for n in names], states=states)
    for name, violation in zip(names, violations):
        if violation is None:
            print(f"invariant {name}: holds")
        else:
            failures += 1
            print(
                f"invariant {name}: VIOLATED at block {violation.block_index}:"
                f" {violation.message}",
                file=sys.stderr,
            )
    return 1 if failures else 0


_COMMANDS = {
    "check": _cmd_check,
    "run": _cmd_run,
    "translate": _cmd_translate,
    "diff-eval": _cmd_diff_eval,
    "chain": _cmd_chain,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, JsonError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (LangError, TranslateError, ChainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        # the evaluators and walkers recurse once per level of the program
        # or value; a deeper one cannot be handled at this limit
        print(
            "error: nesting too deep for Python's recursion limit"
            f" ({sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
