"""Per-layer cost ledger: wraps the public functions of each atoshield layer.

The ledger measures from outside the program.  ``install`` replaces each
traced function with a timing wrapper, both on its defining module or class
and on every atoshield module that bound the same object with
``from ... import ...`` (``trainer.step``, ``shield.step``, ``trainer.is_safe``
and so on), so every caller goes through the wrapper.  ``uninstall`` puts the
originals back.

Spans nest on a stack: each span knows its parent, adds its duration to the
parent's child time, and keeps its own self time (duration minus children).
A call into the layer that is already the innermost open span (recursive
``prune``/``backup``, ``Mlp.forward`` calling ``forward_cached``) is part of
that span, not a span of its own.  Spans are folded into per-layer totals as
they close, so memory stays flat however many millions of calls a run makes;
only the layers with latency percentiles keep one duration per call.  A
``shield_filter`` duration kept for percentiles leaves out the correction
search the call made through its chooser, which ``search_safe_action`` reports.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# layer -> whether to keep per-call durations for percentiles
LAYERS = {
    "trainer.loop": False,
    "dynamics.step": False,
    "shield.is_safe": False,
    "shield.brake_recoverable": False,
    "shield.span_overspeed": False,
    "shield.safe_action_set": False,
    "shield.shield_filter": True,
    "search_tree.search_safe_action": True,
    "search_tree.build_tree": False,
    "search_tree.prune": False,
    "search_tree.backup": False,
    "drl.nets.forward": False,
    "drl.nets.backward": False,
    "drl.nets.adam_step": False,
    "drl.agents.update": True,
    "drl.agents.update_additional_actor": False,
    "drl.agents.sample_actions": False,
    "drl.agents.propose": False,
    "drl.buffers.replay_sample": False,
    "drl.buffers.replay_push": False,
    "drl.buffers.elite_insert": False,
}

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] | None = None


@dataclass
class _Frame:
    layer: str
    start: float
    excluded_at_entry: float
    child_s: float = 0.0
    child_layers: set[str] = field(default_factory=set)
    kept_nodes: int = 0
    search_s: float = 0.0  # correction search nested anywhere below this span


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(child) for child in node.children)


class Ledger:
    """Spans and counters for one traced stretch of work."""

    def __init__(self):
        self.stats = {name: LayerStats(durations=[] if keep else None) for name, keep in LAYERS.items()}
        self.counters = {
            "is_safe_passed": 0,
            "brake_fast_path": 0,
            "filter_interventions": 0,
            "nodes_built": 0,
            "nodes_kept": 0,
            "fallbacks": 0,
            "forward_rows": 0,
        }
        self._stack: list[_Frame] = []
        self._excluded = 0.0  # time spent in observers, hidden from every open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, fn, observe=None):
        stack = self._stack
        stats = self.stats[layer]
        clock = time.perf_counter
        is_search = layer == "search_tree.search_safe_action"

        def traced(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(layer, clock(), self._excluded)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start - (self._excluded - frame.excluded_at_entry)
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame.child_s
                if stats.durations is not None:
                    stats.durations.append(dur - frame.search_s)
                if is_search:
                    owner = self._enclosing("shield.shield_filter")
                    if owner is not None:
                        owner.search_s += dur
                if stack:
                    stack[-1].child_s += dur
                    stack[-1].child_layers.add(layer)
            if observe is not None:
                observe(frame, args, result)
                self._excluded += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def _enclosing(self, layer: str) -> _Frame | None:
        for frame in reversed(self._stack):
            if frame.layer == layer:
                return frame
        return None

    # -- observers: counts taken where the work happens ----------------------

    def _on_is_safe(self, frame, args, verdict):
        self.counters["is_safe_passed"] += bool(verdict.safe)

    def _on_brake_recoverable(self, frame, args, result):
        self.counters["brake_fast_path"] += "dynamics.step" not in frame.child_layers

    def _on_shield_filter(self, frame, args, result):
        self.counters["filter_interventions"] += bool(result[1])

    def _on_build_tree(self, frame, args, roots):
        self.counters["nodes_built"] += sum(_count_nodes(root) for root in roots)

    def _on_prune(self, frame, args, kept):
        n = _count_nodes(kept) if kept is not None else 0
        self.counters["nodes_kept"] += n
        owner = self._enclosing("search_tree.search_safe_action")
        if owner is not None:
            owner.kept_nodes += n

    def _on_search(self, frame, args, result):
        self.counters["fallbacks"] += frame.kept_nodes == 0

    def _on_forward(self, frame, args, result):
        out = result[0] if isinstance(result, tuple) else result
        self.counters["forward_rows"] += out.shape[0]

    # -- patching ------------------------------------------------------------

    def _targets(self):
        from atoshield import dynamics, search_tree, shield, trainer
        from atoshield.drl import agents, buffers, nets

        functions = [
            (trainer, "train", "trainer.loop", None),
            (trainer, "noise_test", "trainer.loop", None),
            (dynamics, "step", "dynamics.step", None),
            (shield, "is_safe", "shield.is_safe", self._on_is_safe),
            (shield, "brake_recoverable", "shield.brake_recoverable", self._on_brake_recoverable),
            (shield, "span_overspeed", "shield.span_overspeed", None),
            (shield, "safe_action_set", "shield.safe_action_set", None),
            (shield, "shield_filter", "shield.shield_filter", self._on_shield_filter),
            (search_tree, "search_safe_action", "search_tree.search_safe_action", self._on_search),
            (search_tree, "build_tree", "search_tree.build_tree", self._on_build_tree),
            (search_tree, "prune", "search_tree.prune", self._on_prune),
            (search_tree, "backup", "search_tree.backup", None),
            (agents, "update_additional_actor", "drl.agents.update_additional_actor", None),
        ]
        methods = [
            (nets.Mlp, "forward", "drl.nets.forward", self._on_forward),
            (nets.Mlp, "forward_cached", "drl.nets.forward", self._on_forward),
            (nets.Mlp, "backward", "drl.nets.backward", None),
            (nets.Adam, "step", "drl.nets.adam_step", None),
            (agents.DdpgAgent, "update", "drl.agents.update", None),
            (agents.SacAgent, "update", "drl.agents.update", None),
            (agents.DdpgAgent, "sample_actions", "drl.agents.sample_actions", None),
            (agents.SacAgent, "sample_actions", "drl.agents.sample_actions", None),
            (agents.DdpgAgent, "propose", "drl.agents.propose", None),
            (agents.SacAgent, "propose", "drl.agents.propose", None),
            (buffers.ReplayBuffer, "sample", "drl.buffers.replay_sample", None),
            (buffers.ReplayBuffer, "push", "drl.buffers.replay_push", None),
            (buffers.EliteBuffer, "insert", "drl.buffers.elite_insert", None),
        ]
        return functions, methods

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("ledger already installed")
        functions, methods = self._targets()
        modules = [m for n, m in sys.modules.items() if n == "atoshield" or n.startswith("atoshield.")]
        for module, name, layer, observe in functions:
            original = getattr(module, name)
            wrapper = self._wrap(layer, original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for cls, name, layer, observe in methods:
            self._patch(cls, name, self._wrap(layer, cls.__dict__[name], observe))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def percentiles(durations: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile): the tail is the highest ladder percentile
    with at least ten samples beyond it (p50 when there are too few)."""
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)

    def at(pct: float) -> float:
        return ordered[min(n - 1, int(pct / 100.0 * n))]

    tail_pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    return at(50.0), at(tail_pct), tail_pct


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, wall_traced_s: float, wall_untraced_s: float,
                  load_config_ms: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit)."""
    st, c = ledger.stats, ledger.counters
    ms = 1e3

    def self_ms(layer):
        return (st[layer].self_s * ms, "ms")

    def calls(layer):
        return (st[layer].calls, "count")

    filt_p50, filt_tail, filt_pct = percentiles(st["shield.shield_filter"].durations)
    srch_p50, srch_tail, srch_pct = percentiles(st["search_tree.search_safe_action"].durations)
    upd_p50, upd_tail, upd_pct = percentiles(st["drl.agents.update"].durations)
    corrections = st["search_tree.search_safe_action"].calls
    loop_total = st["trainer.loop"].total_s
    tree_shield_dyn = sum(s.self_s for name, s in st.items()
                          if name.split(".")[0] in ("search_tree", "shield", "dynamics"))
    drl_self = sum(s.self_s for name, s in st.items() if name.startswith("drl."))
    drl_calls = sum(s.calls for name, s in st.items() if name.startswith("drl."))
    return {
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.self_ms": self_ms("dynamics.step"),
        "shield.is_safe.calls": calls("shield.is_safe"),
        "shield.is_safe.self_ms": self_ms("shield.is_safe"),
        "shield.is_safe.pass_ratio": (_ratio(c["is_safe_passed"], st["shield.is_safe"].calls), "ratio"),
        "shield.brake_recoverable.calls": calls("shield.brake_recoverable"),
        "shield.brake_recoverable.self_ms": self_ms("shield.brake_recoverable"),
        "shield.brake_recoverable.fast_path_ratio": (
            _ratio(c["brake_fast_path"], st["shield.brake_recoverable"].calls), "ratio"),
        "shield.span_overspeed.self_ms": self_ms("shield.span_overspeed"),
        "shield.safe_action_set.self_ms": self_ms("shield.safe_action_set"),
        "shield.shield_filter.calls": calls("shield.shield_filter"),
        "shield.shield_filter.p50_us": (filt_p50 * 1e6, "us"),
        "shield.shield_filter.tail_us": (filt_tail * 1e6, "us"),
        "shield.shield_filter.tail_pct": (filt_pct, "pct"),
        "shield.intervention_ratio": (
            _ratio(c["filter_interventions"], st["shield.shield_filter"].calls), "ratio"),
        "search_tree.search_safe_action.calls": (corrections, "count"),
        "search_tree.search_safe_action.p50_ms": (srch_p50 * ms, "ms"),
        "search_tree.search_safe_action.tail_ms": (srch_tail * ms, "ms"),
        "search_tree.search_safe_action.tail_pct": (srch_pct, "pct"),
        "search_tree.build_tree.self_ms": self_ms("search_tree.build_tree"),
        "search_tree.nodes_per_correction": (_ratio(c["nodes_built"], corrections), "count"),
        "search_tree.prune.self_ms": self_ms("search_tree.prune"),
        "search_tree.kept_node_ratio": (_ratio(c["nodes_kept"], c["nodes_built"]), "ratio"),
        "search_tree.fallbacks": (c["fallbacks"], "count"),
        "search_tree.backup.self_ms": self_ms("search_tree.backup"),
        "drl.calls": (drl_calls, "count"),
        "drl.nets.forward.calls": calls("drl.nets.forward"),
        "drl.nets.forward.rows_per_call": (
            _ratio(c["forward_rows"], st["drl.nets.forward"].calls), "rows"),
        "drl.nets.forward.self_ms": self_ms("drl.nets.forward"),
        "drl.nets.backward.self_ms": self_ms("drl.nets.backward"),
        "drl.nets.adam_step.self_ms": self_ms("drl.nets.adam_step"),
        "drl.agents.update.calls": calls("drl.agents.update"),
        "drl.agents.update.p50_ms": (upd_p50 * ms, "ms"),
        "drl.agents.update.tail_ms": (upd_tail * ms, "ms"),
        "drl.agents.update.tail_pct": (upd_pct, "pct"),
        "drl.agents.update_additional_actor.self_ms": self_ms("drl.agents.update_additional_actor"),
        "drl.agents.sample_actions.self_ms": self_ms("drl.agents.sample_actions"),
        "drl.agents.propose.self_ms": self_ms("drl.agents.propose"),
        "drl.buffers.replay_sample.self_ms": self_ms("drl.buffers.replay_sample"),
        "drl.buffers.replay_push.self_ms": self_ms("drl.buffers.replay_push"),
        "drl.buffers.elite_insert.self_ms": self_ms("drl.buffers.elite_insert"),
        "trainer.loop.self_ms": self_ms("trainer.loop"),
        "config.load_config.ms": (load_config_ms, "ms"),
        "trace.share_tree_shield_dynamics": (_ratio(tree_shield_dyn, loop_total), "ratio"),
        "trace.share_drl": (_ratio(drl_self, loop_total), "ratio"),
        "trace.overhead_ratio": (_ratio(wall_traced_s, wall_untraced_s), "ratio"),
    }
