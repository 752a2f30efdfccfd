"""Spans and counters recorded around calls into the public functions of each
dhtfed module, and the per-layer metrics computed from them.

Nothing under `src/` is changed: `Hooks` replaces the attribute that the
caller actually looks up (a method on its class, or a module global of the
calling module) with a wrapper, and restores the original on `remove()`.

A span is `(sid, parent_sid, scenario, name, start, end)` with times from
`time.perf_counter`. Spans of one scenario share its index. They are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter

# Standard percentiles, highest first, from which a timing's tail is picked.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """(value, samples strictly after its rank) by the nearest-rank rule."""
    n = len(sorted_values)
    rank = max(1, math.ceil(round(pct / 100.0 * n, 9)))  # 99.9% of 10000 is 9990
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with at least 10 samples beyond it.

    With fewer than 20 samples no ladder step qualifies; the median is
    returned and the label says so.
    """
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= 10:
            return value, f"p{pct:g}"
    return nearest_rank(ordered, 50.0)[0], f"p50 (n={len(ordered)} < 20)"


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of `interval` covered by the union of `parts`."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(parts):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanSet:
    """Derived views over a finished list of spans."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self._by_name: dict[str, list[tuple]] = {}
        self._children: dict[int, list[tuple[float, float]]] = {}
        for span in spans:
            self._by_name.setdefault(span[3], []).append(span)
            if span[1] >= 0:
                self._children.setdefault(span[1], []).append((span[4], span[5]))

    def named(self, name: str) -> list[tuple]:
        return self._by_name.get(name, [])

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.named(name)]

    def self_time(self, span: tuple) -> float:
        """Duration minus the part of it that child spans cover."""
        sid, _parent, _sc, _name, start, end = span
        return (end - start) - covered((start, end), self._children.get(sid, []))

    def inclusive(self, name: str) -> float:
        """Summed duration of spans of `name` with no ancestor of that name."""
        total = 0.0
        for span in self.named(name):
            parent = span[1]
            while parent >= 0 and self.spans[parent][3] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                total += span[5] - span[4]
        return total

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))


class Hooks:
    """Installs wrappers and records spans and counts while they are in."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.scenario = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def count(self, owner, attr: str, key: str, before=None) -> None:
        """Count calls; `before(args, kwargs)` may record more counts."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if before is not None:
                    before(args, kwargs)
                return fn(*args, **kwargs)
            return wrapper

        self._replace(owner, attr, make)

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span per call; `before(args, kwargs)` runs first and
        `after(args, result)` runs on the result, outside the span."""
        spans, stack, clock = self.spans, self._stack, self.clock
        hooks = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[sid] = (sid, parent, hooks.scenario, name, start, end)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._replace(owner, attr, make)

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: sid, parent, scenario, name, start_us, end_us."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, sc, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{sc}\t{name}\t"
                         f"{(start - t0) * 1e6:.3f}\t{(end - t0) * 1e6:.3f}\n")


def install_probes(hooks: Hooks, dhtfed, first_round: dict) -> None:
    """Cheap hooks that every run carries, traced or not.

    They count `Overlay.fail`/`Overlay.rejoin` calls (checked against the
    failure schedule) and note when a scenario's first round starts, which
    ends its set-up phase, as `first_round[scenario] = (clock, CPU time)`.
    """
    Overlay = dhtfed.overlay.Overlay
    Session = dhtfed.fedagg.FederatedSession
    hooks.count(Overlay, "fail", "overlay.fail_calls")
    hooks.count(Overlay, "rejoin", "overlay.rejoin_calls")

    def note(_args, _kwargs):
        first_round.setdefault(hooks.scenario, (hooks.clock(), time.process_time()))

    for attr in ("centralized_round", "decentralized_round"):
        hooks.count(Session, attr, "fedagg.round_calls", before=note)


def install_spans(hooks: Hooks, dhtfed, sessions: dict) -> None:
    """Spans around the public calls of overlay, tree, simnet, model, fedagg
    and harness. `sessions` collects the sessions that ran a round."""
    overlay, tree, simnet = dhtfed.overlay, dhtfed.tree, dhtfed.simnet
    fedagg, harness = dhtfed.fedagg, dhtfed.harness
    counts = hooks.counts

    def add(key, amount):
        counts[key] += amount

    hooks.span(overlay.Overlay, "build", "overlay.build")
    hooks.span(overlay.Overlay, "route", "overlay.route",
               after=lambda _a, res: add("overlay.hops", len(res.hops)))
    hooks.span(overlay.Overlay, "repair", "overlay.repair",
               after=lambda _a, sweeps: add("overlay.repair_sweeps", sweeps))
    hooks.span(overlay.Overlay, "join", "overlay.join")

    def rejoin_check(args, _kwargs):
        manager, gid, member = args[:3]
        parent = manager.groups[gid].members[member].parent
        if parent is not None and not manager.overlay.is_alive(parent):
            counts["tree.rejoins_dead_parent"] += 1

    hooks.span(tree.TreeManager, "join_group", "tree.join")
    hooks.span(tree.TreeManager, "handle_parent_failure", "tree.rejoin",
               before=rejoin_check)
    hooks.span(tree.TreeManager, "heartbeat_tick", "tree.heartbeat")
    hooks.span(tree.TreeManager, "multicast", "tree.multicast")

    def msg_kind(args, kwargs):
        kind = kwargs.get("kind", args[5] if len(args) > 5 else simnet.MULTICAST)
        counts["simnet.msgs." + kind] += 1

    hooks.span(simnet.Simulator, "send", "simnet.send", before=msg_kind)
    for attr in ("run", "run_until"):
        hooks.span(simnet.Simulator, attr, "simnet.run",
                   after=lambda _a, n: add("simnet.events", n))

    # fedagg calls these through its own module globals.
    hooks.span(fedagg, "local_finetune", "model.finetune")
    hooks.span(fedagg, "pfl_loss", "model.loss")
    hooks.span(fedagg, "branch_aggregate", "fedagg.branch_aggregate")

    def keep_session(args, _kwargs):
        sessions[id(args[0])] = args[0]

    for attr in ("centralized_round", "decentralized_round"):
        hooks.span(fedagg.FederatedSession, attr, "fedagg.round", before=keep_session)
    hooks.span(fedagg.FederatedSession, "ensemble_infer", "fedagg.infer")

    # run_scenario calls these through harness module globals.
    for attr in ("make_topics", "generate_testset", "generate_topic_data",
                 "mixed_node_data"):
        hooks.span(harness, attr, "harness.datagen")


def layer_metrics(spans: list, counts: Counter) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics: name -> (value, unit, note).

    `<layer>.<op>_s` is the summed inclusive time of that call; `_self_s`
    subtracts the time of the child spans inside it. Timing distributions
    give a median and a tail (see `tail`), the note names the percentile.
    """
    ss = SpanSet(spans)
    out: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, note=""):
        out[name] = (float(value), unit, note)

    def dist(name, span_name, unit, scale):
        values = [d * scale for d in ss.durations(span_name)]
        if not values:
            put(f"{name}_p50", 0.0, unit, "no samples")
            put(f"{name}_tail", 0.0, unit, "no samples")
            return
        put(f"{name}_p50", nearest_rank(sorted(values), 50.0)[0], unit,
            f"n={len(values)}")
        value, label = tail(values)
        put(f"{name}_tail", value, unit, f"{label}, n={len(values)}")

    routes = len(ss.named("overlay.route"))
    put("overlay.build_s", ss.inclusive("overlay.build"), "s")
    put("overlay.route_calls", routes, "count")
    put("overlay.route_s", ss.inclusive("overlay.route"), "s")
    dist("overlay.route_us", "overlay.route", "us", 1e6)
    put("overlay.hops_per_route", counts["overlay.hops"] / routes if routes else 0.0,
        "hops")
    put("overlay.repair_s", ss.inclusive("overlay.repair"), "s")
    put("overlay.repair_sweeps", counts["overlay.repair_sweeps"], "count")
    put("overlay.join_s", ss.inclusive("overlay.join"), "s")

    put("tree.join_calls", len(ss.named("tree.join")), "count")
    put("tree.join_s", ss.inclusive("tree.join"), "s")
    dist("tree.join_us", "tree.join", "us", 1e6)
    rejoins = len(ss.named("tree.rejoin"))
    put("tree.rejoins", rejoins, "count")
    put("tree.rejoin_s", ss.inclusive("tree.rejoin"), "s")
    put("tree.rejoin_useful_ratio",
        counts["tree.rejoins_dead_parent"] / rejoins if rejoins else 0.0, "ratio",
        f"{counts['tree.rejoins_dead_parent']} of {rejoins} had a dead parent")
    put("tree.heartbeat_ticks", len(ss.named("tree.heartbeat")), "count")
    put("tree.heartbeat_s", ss.inclusive("tree.heartbeat"), "s")
    put("tree.multicast_s", ss.inclusive("tree.multicast"), "s")

    events = counts["simnet.events"]
    sim_self = ss.self_total("simnet.run")
    sim_send = ss.inclusive("simnet.send")
    put("simnet.events", events, "count")
    for kind in ("AGG_UP", "MULTICAST", "HEARTBEAT"):
        put(f"simnet.msgs.{kind}", counts[f"simnet.msgs.{kind}"], "count")
    put("simnet.self_s", sim_self, "s")
    put("simnet.send_s", sim_send, "s")
    put("simnet.us_per_event", (sim_self + sim_send) / events * 1e6 if events else 0.0,
        "us", "(self_s + send_s) / events")

    put("model.finetune_calls", len(ss.named("model.finetune")), "count")
    put("model.finetune_s", ss.inclusive("model.finetune"), "s")
    dist("model.finetune_us", "model.finetune", "us", 1e6)
    put("model.loss_s", ss.inclusive("model.loss"), "s")

    put("fedagg.round_s", ss.inclusive("fedagg.round"), "s")
    put("fedagg.round_self_s", ss.self_total("fedagg.round"), "s")
    dist("fedagg.round_ms", "fedagg.round", "ms", 1e3)
    put("fedagg.infer_s", ss.inclusive("fedagg.infer"), "s")
    put("fedagg.branch_agg_calls", len(ss.named("fedagg.branch_aggregate")), "count")

    put("harness.datagen_s", ss.inclusive("harness.datagen"), "s")
    return out
