"""The layers of acorncore the traced run probes, and the per-layer metrics
derived from their spans.

Metrics of the set-up layers (parser, serialize, programs, `translate_env`)
come from one traced set-up and are in seconds per set-up. All other metrics
come from the traced pass over the workload's operations and are divided by
the number of operations, so that two commits that complete a different
number of operations in the same time still compare. Spans inside an
operation and spans of the round-level work between operations (`diffeval`
reloads and translates the corpus and generates its programs there) are
kept apart: the per-check metrics count only the former.
"""

from __future__ import annotations

from typing import Any

from layertrace import ROOT, Probe, Span, Totals, Tracer


def term_nodes(t: Any) -> int:
    """Nodes of a kernel term, counting shared subterms once per occurrence."""
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif hasattr(x, "__dataclass_fields__") and type(x).__module__.endswith(".kernel"):
            n += 1
            stack.extend(vars(x).values())
    return n


def _ok_nodes(r: Any) -> int:
    value = getattr(r, "value", None)  # only `Ok` carries a value
    return term_nodes(value) if value is not None else 0


PROBES = [
    Probe("parser.parse", "acorncore.parser", ("parse_module",)),
    Probe("parser.tokenize", "acorncore.parser", ("tokenize",), count=len),
    Probe("serialize.json_load", "acorncore.serialize", ("module_from_json",)),
    Probe("programs.load_module", "acorncore.programs", ("load_module",)),
    Probe("translate.env", "acorncore.translate", ("translate_env",)),
    Probe("translate.expr", "acorncore.translate", ("expr_to_term",), count=term_nodes),
    Probe("soundness.gen_expr", "acorncore.soundness", ("gen_expr",)),
    Probe(
        "soundness.subst", "acorncore.soundness", ("subst_commutes",),
        count=lambda verdict: int(verdict is not None),
    ),
    Probe("interp.eval", "acorncore.interp", ("eval_expr",)),
    Probe("interp.readback", "acorncore.interp", ("from_val", "wf_val")),
    Probe("interp.subst_env", "acorncore.interp", ("subst_env_expr",)),
    Probe("kernel.cbv", "acorncore.kernel", ("cbv_eval",), count=_ok_nodes),
    Probe("kernel.parallel_subst", "acorncore.kernel", ("parallel_subst",)),
    Probe("chainsim.gen", "acorncore.chainsim", ("gen_trace",)),
    Probe(
        "chainsim.add_block", "acorncore.chainsim", ("add_block",),
        count=lambda out: int(out[0] is not None),
    ),
    Probe("chainsim.replay", "acorncore.chainsim", ("replay",)),
    Probe("chainsim.invariant", "acorncore.chainsim", ("check_invariant",)),
]

# Layers whose self time is reported; `harness` is operation time outside
# every probe (the soundness orchestration in `_check_one`/`diff_check`,
# `final_state`, and the benchmark's own loop).
SELF_LAYERS = ("translate", "soundness", "interp", "kernel", "chainsim")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("parser.parse_s", "s", "lower"),
    ("parser.tokens_per_s", "1/s", "higher"),
    ("serialize.json_load_s", "s", "lower"),
    ("programs.load_module_s", "s", "lower"),
    ("programs.round_load_module_s", "s/op", "lower"),
    ("translate.env_s", "s", "lower"),
    ("translate.round_env_s", "s/op", "lower"),
    ("translate.expr_calls", "count/op", "lower"),
    ("translate.expr_s", "s/op", "lower"),
    ("translate.term_nodes", "count/op", "lower"),
    ("translate.self_s", "s/op", "lower"),
    ("soundness.gen_expr_s", "s/op", "lower"),
    ("soundness.subst_s", "s/op", "lower"),
    ("soundness.pairs_harvested", "count/op", "higher"),
    ("soundness.pairs_checked", "count/op", "higher"),
    ("soundness.subst_useful_ratio", "ratio", "higher"),
    ("soundness.self_s", "s/op", "lower"),
    ("interp.eval_calls", "count/op", "lower"),
    ("interp.eval_s", "s/op", "lower"),
    ("interp.readback_s", "s/op", "lower"),
    ("interp.subst_env_s", "s/op", "lower"),
    ("interp.self_s", "s/op", "lower"),
    ("kernel.cbv_calls", "count/op", "lower"),
    ("kernel.cbv_s", "s/op", "lower"),
    ("kernel.parallel_subst_s", "s/op", "lower"),
    ("kernel.result_nodes", "count/op", "lower"),
    ("kernel.self_s", "s/op", "lower"),
    ("chainsim.add_block_calls", "count/op", "lower"),
    ("chainsim.add_block_accepted", "count/op", "higher"),
    ("chainsim.add_block_useful_ratio", "ratio", "higher"),
    ("chainsim.add_block_s", "s/op", "lower"),
    ("chainsim.replays_per_trace", "count/op", "lower"),
    ("chainsim.replay_s", "s/op", "lower"),
    ("chainsim.invariant_s", "s/op", "lower"),
    ("chainsim.self_s", "s/op", "lower"),
    ("chain.gen_blocks_per_s", "1/s", "higher"),
    ("chain.verify_blocks_per_s", "1/s", "higher"),
    ("harness.self_s", "s/op", "lower"),
    ("trace.spans_per_op", "count/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer,
    n_ops: int,
    trace_steps: int,
    untraced_op_s: float,
    traced_op_s: float,
    gen_blocks_per_s: float,
    verify_blocks_per_s: float,
) -> dict[str, float]:
    """Every metric of PER_LAYER. `trace_steps` is the number of chain trace
    steps the traced pass generated; the block rates come from the untraced
    pass."""

    def setup(s: Span) -> bool:
        return s.op == "setup"

    def ops(s: Span) -> bool:
        return isinstance(s.op, int)  # the runner numbers operations

    def between_ops(s: Span) -> bool:
        return s.op is None

    st = tracer.totals(setup)
    ot = tracer.totals(ops)
    rt = tracer.totals(between_ops)
    by_parent = tracer.totals(ops, by_parent=True)

    def tot(table: dict, probe: str) -> Totals:
        return table.get(probe, Totals())

    def per_op(x: float) -> float:
        return _ratio(x, n_ops)

    gen_side = [
        t for (probe, parent), t in by_parent.items()
        if probe == "chainsim.add_block" and parent != "chainsim.replay"
    ]
    gen_calls = sum(t.calls for t in gen_side)
    layer_self = {layer: 0.0 for layer in SELF_LAYERS}
    for probe, t in ot.items():
        layer = probe.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t.self_s
    parse = tot(st, "parser.parse")
    m = {
        "parser.parse_s": parse.total_s,
        "parser.tokens_per_s": _ratio(tot(st, "parser.tokenize").count, parse.total_s),
        "serialize.json_load_s": tot(st, "serialize.json_load").total_s,
        "programs.load_module_s": tot(st, "programs.load_module").total_s,
        "programs.round_load_module_s": per_op(tot(rt, "programs.load_module").total_s),
        "translate.env_s": tot(st, "translate.env").total_s,
        "translate.round_env_s": per_op(tot(rt, "translate.env").total_s),
        "translate.expr_calls": per_op(tot(ot, "translate.expr").calls),
        "translate.expr_s": per_op(tot(ot, "translate.expr").total_s),
        "translate.term_nodes": per_op(tot(ot, "translate.expr").count),
        "soundness.gen_expr_s": per_op(tot(rt, "soundness.gen_expr").total_s),
        "soundness.subst_s": per_op(tot(ot, "soundness.subst").total_s),
        "soundness.pairs_harvested": per_op(tot(ot, "soundness.subst").calls),
        "soundness.pairs_checked": per_op(tot(ot, "soundness.subst").count),
        "soundness.subst_useful_ratio": _ratio(
            tot(ot, "soundness.subst").count, tot(ot, "soundness.subst").calls
        ),
        "interp.eval_calls": per_op(tot(ot, "interp.eval").calls),
        "interp.eval_s": per_op(tot(ot, "interp.eval").total_s),
        "interp.readback_s": per_op(tot(ot, "interp.readback").total_s),
        "interp.subst_env_s": per_op(tot(ot, "interp.subst_env").total_s),
        "kernel.cbv_calls": per_op(tot(ot, "kernel.cbv").calls),
        "kernel.cbv_s": per_op(tot(ot, "kernel.cbv").total_s),
        "kernel.parallel_subst_s": per_op(tot(ot, "kernel.parallel_subst").total_s),
        "kernel.result_nodes": per_op(tot(ot, "kernel.cbv").count),
        "chainsim.add_block_calls": per_op(gen_calls),
        "chainsim.add_block_accepted": per_op(sum(t.count for t in gen_side)),
        "chainsim.add_block_useful_ratio": _ratio(trace_steps, gen_calls),
        "chainsim.add_block_s": per_op(sum(t.total_s for t in gen_side)),
        "chainsim.replays_per_trace": per_op(tot(ot, "chainsim.replay").calls),
        "chainsim.replay_s": per_op(tot(ot, "chainsim.replay").total_s),
        "chainsim.invariant_s": per_op(tot(ot, "chainsim.invariant").self_s),
        "chain.gen_blocks_per_s": gen_blocks_per_s,
        "chain.verify_blocks_per_s": verify_blocks_per_s,
        "harness.self_s": per_op(tot(ot, ROOT).self_s),
        "trace.spans_per_op": per_op(sum(t.calls for p, t in ot.items() if p != ROOT)),
        "trace.overhead_pct": 100.0 * (_ratio(traced_op_s, untraced_op_s) - 1.0),
    }
    for layer, self_s in layer_self.items():
        m[f"{layer}.self_s"] = per_op(self_s)
    return {name: m[name] for name, _, _ in PER_LAYER}
