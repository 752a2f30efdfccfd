"""Federated fine-tuning over aggregation trees, plus ensemble inference.

Two round protocols share the leaf-side fine-tuning step and the root
update rule. The centralized protocol averages updates branch by branch up
the tree; the decentralized one lets leaves gossip over social links first
and only then forward friend-set aggregates to the root. A status checker
picks between them from per-round link measurements.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .model import (PENALTIES, LocalDataset, ModelParams, PersonalState,
                    deserialize_params, forward_heads, local_finetune,
                    param_nbytes, pfl_losses, serialize_params)
# perfbench/tracing.py attaches its model.loss span to this module's
# pfl_loss; the round loss itself goes through pfl_losses.
from .model import pfl_loss  # noqa: F401
from .overlay import hex_id
from .simnet import AGG_UP, PREDICT
from .tree import TreeManager

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"

UNWEIGHTED = "unweighted"
WEIGHTED = "weighted"

INFER_CHUNK = 16  # leaves whose votes or losses one stacked pass computes


class ProtocolError(RuntimeError):
    """Round/group mismatches and other aggregation protocol violations."""


@dataclass
class AggregateMessage:
    group: int
    round: int
    payload: ModelParams
    weight: int

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("weight must be >= 1")

    def nbytes(self) -> int:
        l, h = self.payload.w.shape
        return 32 + param_nbytes(h, l)

    def serialize(self) -> bytes:
        """16-byte big-endian group id, <QQ round and weight, then the params."""
        return (self.group.to_bytes(16, "big")
                + struct.pack("<QQ", self.round, self.weight)
                + serialize_params(self.payload))

    @classmethod
    def deserialize(cls, blob: bytes) -> "AggregateMessage":
        rnd, weight = struct.unpack_from("<QQ", blob, 16)
        return cls(int.from_bytes(blob[:16], "big"), rnd,
                   deserialize_params(blob[32:]), weight)


def branch_aggregate(children_msgs: list[AggregateMessage],
                     mode: str = WEIGHTED) -> AggregateMessage:
    """Combine child messages at one branch.

    UNWEIGHTED mode is the plain per-level mean of the child payloads;
    WEIGHTED scales by contribution counts so the root result equals the
    flat mean over all leaves regardless of tree shape.

    The payloads' raw arrays are scaled and summed in message order, with
    the same elementwise products and sums as `ModelParams` arithmetic, and
    only the result is checked for finiteness.
    """
    if not children_msgs:
        raise ValueError("cannot aggregate an empty message list")
    first = children_msgs[0]
    for m in children_msgs[1:]:
        if m.round != first.round or m.group != first.group:
            raise ProtocolError("round/group mismatch in branch aggregation")
    total_weight = sum(m.weight for m in children_msgs)
    if mode == UNWEIGHTED:
        scales = [1.0 / len(children_msgs)] * len(children_msgs)
    elif mode == WEIGHTED:
        scales = [m.weight / total_weight for m in children_msgs]
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    w, b = first.payload.w * scales[0], first.payload.b * scales[0]
    for m, scale in zip(children_msgs[1:], scales[1:]):
        w += m.payload.w * scale
        b += m.payload.b * scale
    return AggregateMessage(first.group, first.round, ModelParams(w, b), total_weight)


def root_update(w_t: ModelParams, aggregate: AggregateMessage, eta: float,
                expected_round: Optional[int] = None) -> ModelParams:
    """w_{t+1} = w_t - eta * aggregate.payload (payload carries mean deltas)."""
    if expected_round is not None and aggregate.round != expected_round:
        raise ProtocolError(
            f"stale aggregate: round {aggregate.round}, expected {expected_round}"
        )
    return w_t - eta * aggregate.payload


@dataclass
class SocialGraph:
    """Undirected friend links among leaves (no self-loops)."""

    friends: dict[int, set[int]]

    def __post_init__(self) -> None:
        for nid, fs in self.friends.items():
            if nid in fs:
                raise ValueError("self-loop in social graph")
            for f in fs:
                if nid not in self.friends.get(f, set()):
                    raise ValueError("social graph must be symmetric")

    def isolated(self) -> list[int]:
        return sorted(n for n, fs in self.friends.items() if not fs)

    @classmethod
    def complete(cls, ids: list[int]) -> "SocialGraph":
        ids = sorted(ids)
        return cls({n: set(ids) - {n} for n in ids})

    @classmethod
    def ring(cls, ids: list[int]) -> "SocialGraph":
        ids = sorted(ids)
        n = len(ids)
        if n < 2:
            return cls({i: set() for i in ids})
        friends: dict[int, set[int]] = {i: set() for i in ids}
        for k, nid in enumerate(ids):
            friends[nid].update((ids[(k - 1) % n], ids[(k + 1) % n]))
        return cls(friends)

    @classmethod
    def ring_with_chords(cls, ids: list[int], chords: int, seed: int) -> "SocialGraph":
        """Ring plus `chords` random extra links; every node keeps degree >= 2."""
        g = cls.ring(ids)
        ids = sorted(ids)
        rng = random.Random(seed)
        for _ in range(chords):
            a, b = rng.sample(ids, 2)
            g.friends[a].add(b)
            g.friends[b].add(a)
        return g


@dataclass
class RoundConfig:
    eta: float = 1.0
    steps: int = 10
    batch: int = 32
    upload: str = "delta"  # or "weights"
    agg_mode: str = WEIGHTED
    penalty: str = "squared"
    gossip_k: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be positive")
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}")
        if self.upload not in ("delta", "weights"):
            raise ValueError("upload must be 'delta' or 'weights'")
        if self.agg_mode not in (UNWEIGHTED, WEIGHTED):
            raise ValueError("agg_mode must be 'unweighted' or 'weighted'")
        if self.gossip_k < 0:
            raise ValueError("gossip_k must be >= 0")


@dataclass
class RoundMetrics:
    round: int
    mode: str
    contributors: int
    root_weight: int
    max_ingress_bytes: int
    max_agg_ingress_msgs: int
    total_bytes: int
    root_latency: float
    dissemination: float
    loss: float = 0.0
    ingress_bytes: dict[int, int] = field(default_factory=dict)
    egress_bytes: dict[int, int] = field(default_factory=dict)


def write_round_log(metrics: list[RoundMetrics], path: str,
                    accuracy: Optional[dict[int, float]] = None) -> None:
    """Line-delimited round records: round, mode, per-node ingress/egress
    bytes (hex node ids), training loss, accuracy where supplied."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in metrics:
            rec = {
                "round": m.round,
                "mode": m.mode,
                "loss": m.loss,
                "accuracy": None if accuracy is None else accuracy.get(m.round),
                "ingress_bytes": {hex_id(n): v
                                  for n, v in sorted(m.ingress_bytes.items())},
                "egress_bytes": {hex_id(n): v
                                 for n, v in sorted(m.egress_bytes.items())},
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class MessageRecord:
    """One protocol message as seen by the privacy audit."""

    kind: str
    src: int
    dst: int
    contributors: tuple[int, ...]
    round: int = 0


def audit_decentralized_privacy(records: list[MessageRecord],
                                social: SocialGraph) -> list[MessageRecord]:
    """Messages that expose a single leaf's raw update outside its friend set.

    A weight-1 message whose only contributor has at least two friends must
    stay inside that contributor's friend set; anything else is a finding.
    """
    violations = []
    for r in records:
        if len(r.contributors) != 1:
            continue
        c = r.contributors[0]
        friends = social.friends.get(c, set())
        if len(friends) >= 2 and r.dst != c and r.dst not in friends:
            violations.append(r)
    return violations


class ModeSelector:
    """Root-side policy choosing the fine-tuning protocol from link stats."""

    def __init__(self, bytes_threshold: int = 1 << 20, latency_threshold: float = 2000.0):
        self.bytes_threshold = bytes_threshold
        self.latency_threshold = latency_threshold
        self.mode = CENTRALIZED
        self._round = 0
        self._last_switch: Optional[int] = None

    def update(self, max_ingress_bytes: int, root_latency: float) -> str:
        self._round += 1
        want = (DECENTRALIZED
                if (max_ingress_bytes > self.bytes_threshold
                    or root_latency > self.latency_threshold)
                else CENTRALIZED)
        if want != self.mode:
            if self._last_switch is None or self._round - self._last_switch >= 2:
                self.mode = want
                self._last_switch = self._round
        return self.mode


class FederatedSession:
    """Drives fine-tuning rounds for one group over a tree manager.

    Owns the global head, every contributing leaf's personal state, and the
    per-round message bookkeeping. Leaf fine-tuning draws from a generator
    seeded by (seed, round, leaf id), so both protocols see bit-identical
    local updates for the same round.
    """

    def __init__(self, trees: TreeManager, gid: int, data: dict[int, LocalDataset],
                 hidden_dim: int, cfg: Optional[RoundConfig] = None,
                 lam: float = 0.5, eta_local: float = 0.1,
                 initial: Optional[ModelParams] = None):
        self.trees = trees
        self.overlay = trees.overlay
        self.sim = trees.sim
        self.gid = gid
        self.data = data
        self.hidden_dim = hidden_dim
        self.cfg = cfg or RoundConfig()
        self.global_params = initial.copy() if initial else ModelParams.zeros(hidden_dim)
        self.round = 0
        self.personal: dict[int, PersonalState] = {
            nid: PersonalState(self.global_params.copy(), lam, eta_local)
            for nid in sorted(data)
        }
        self.msg_log: list[MessageRecord] = []

    # -- shared pieces -------------------------------------------------------

    def contributing_leaves(self) -> list[int]:
        return [m for m in self.trees.leaves(self.gid) if m in self.data]

    def _leaf_payloads(self, leaves: list[int]) -> list[ModelParams]:
        """Fine-tune all leaves in one call; each draws from its own
        generator, seeded by (seed, round, leaf id) and made when its turn
        comes."""
        datas = [self.data[nid] for nid in leaves]
        results = local_finetune(
            datas, self.global_params, [self.personal[nid] for nid in leaves],
            self.cfg.steps, [min(self.cfg.batch, len(d)) for d in datas],
            (np.random.default_rng([self.cfg.seed, self.round, nid]) for nid in leaves),
            self.cfg.penalty,
        )
        payloads = []
        for nid, (delta, new_state) in zip(leaves, results):
            self.personal[nid] = new_state
            # "weights" uploads the fine-tuned weights themselves
            payloads.append(delta if self.cfg.upload == "delta"
                            else self.global_params - delta)
        return payloads

    def _finalize(self, aggregate: AggregateMessage) -> None:
        if self.cfg.upload == "weights":
            effective = AggregateMessage(
                aggregate.group, aggregate.round,
                self.global_params - aggregate.payload, aggregate.weight,
            )
        else:
            effective = aggregate
        self.global_params = root_update(
            self.global_params, effective, self.cfg.eta, expected_round=self.round
        )

    def _send_routed(self, src: int, key: int, nbytes: int, kind: str,
                     contributors: tuple[int, ...], on_deliver) -> None:
        """Forward along the DHT route, hop by hop, logging every message."""
        path = self.overlay.route(src, key).hops
        if not path:
            self.sim.schedule(0.0, on_deliver)
            return
        links = zip([src] + path, path)
        remaining = len(path)

        def step() -> None:
            nonlocal remaining
            frm, dst = next(links)
            remaining -= 1
            self.msg_log.append(MessageRecord(kind, frm, dst, contributors, self.round))
            self.sim.send(frm, dst, nbytes, step if remaining else on_deliver, kind=kind)

        step()

    # -- centralized protocol --------------------------------------------------

    def centralized_round(self) -> RoundMetrics:
        """One round: leaves fine-tune, deltas average up the tree, root
        updates and multicasts the new head back down."""
        group = self.trees.group(self.gid)
        leaves = self.contributing_leaves()
        if not leaves:
            raise ProtocolError("no live contributing leaves")
        self.msg_log = []
        self.sim.reset_counters()
        t0 = self.sim.now
        leaf_set = set(leaves)

        # Which children feed each interior node this round.
        expected: dict[int, int] = {}

        def feeds(nid: int) -> bool:
            kids = self.trees._live_children(group, nid)
            n_feed = sum(1 for c in kids if feeds(c))
            if nid in leaf_set:
                n_feed += 1  # its own local update
            expected[nid] = n_feed
            return n_feed > 0

        feeds(group.root)

        buffers: dict[int, list[AggregateMessage]] = {}
        state = {"finalized": False, "root_latency": 0.0}

        def receive(nid: int, msg: AggregateMessage) -> None:
            buffers.setdefault(nid, []).append(msg)
            if len(buffers[nid]) < expected[nid]:
                return
            agg = (buffers[nid][0] if len(buffers[nid]) == 1
                   else branch_aggregate(buffers[nid], self.cfg.agg_mode))
            if nid == group.root:
                state["finalized"] = True
                state["root_latency"] = self.sim.now - t0
                state["root_weight"] = agg.weight
                self._finalize(agg)
            else:
                send_up(nid, agg)

        def send_up(nid: int, msg: AggregateMessage) -> None:
            parent = group.members[nid].parent
            self.msg_log.append(MessageRecord(AGG_UP, nid, parent, (), self.round))
            self.sim.send(nid, parent, msg.nbytes(), partial(receive, parent, msg),
                          kind=AGG_UP)

        for nid, payload in zip(leaves, self._leaf_payloads(leaves)):
            msg = AggregateMessage(self.gid, self.round, payload, 1)
            self.sim.schedule(0.0, partial(receive if nid == group.root else send_up,
                                           nid, msg))

        self.sim.run()
        if not state["finalized"]:
            raise ProtocolError("aggregation did not reach the root")

        mc = self.trees.multicast(self.gid, param_nbytes(self.hidden_dim))
        self.sim.run()

        metrics = self._metrics(CENTRALIZED, leaves, state["root_weight"],
                                buffers, state["root_latency"], mc.elapsed)
        self.round += 1
        return metrics

    # -- decentralized protocol -------------------------------------------------

    def decentralized_round(self, social: SocialGraph, k_gossip: Optional[int] = None) -> RoundMetrics:
        """Leaves fine-tune, gossip friend-set aggregates for K hops, then
        forward their buffers to the root over the DHT.

        Buffers are contributor-keyed, so repeated mixing never double
        counts a leaf: the root's final aggregate is the mean over distinct
        leaf updates it can see.
        """
        group = self.trees.group(self.gid)
        k = self.cfg.gossip_k if k_gossip is None else k_gossip
        leaves = self.contributing_leaves()
        if not leaves:
            raise ProtocolError("no live contributing leaves")
        for nid in leaves:
            if nid != group.root and nid not in social.friends:
                raise ProtocolError(f"social graph does not cover leaf {hex_id(nid)}")
        self.msg_log = []
        self.sim.reset_counters()
        t0 = self.sim.now
        root = group.root

        payloads = dict(zip(leaves, self._leaf_payloads(leaves)))
        buffers: dict[int, set[int]] = {nid: {nid} for nid in leaves}
        gossipers = [n for n in leaves if social.friends.get(n)]
        param_bytes = 32 + param_nbytes(self.hidden_dim)

        def run_gossip_hop() -> None:
            """Synchronous exchange: everyone shares its current buffer with
            every friend; merges dedup by contributor. Each sender's snapshot
            is its sorted contributor tuple, which its messages share and
            which sets their size."""
            snapshots = {}
            for n in gossipers:
                contribs = tuple(sorted(buffers[n]))
                snapshots[n] = (contribs, param_bytes + 16 * len(contribs))
            log, send, rnd = self.msg_log, self.sim.send, self.round
            for receiver in gossipers:
                merge = buffers[receiver].update
                for friend in sorted(social.friends[receiver]):
                    if friend not in snapshots:
                        continue
                    contribs, nbytes = snapshots[friend]
                    log.append(MessageRecord(AGG_UP, friend, receiver, contribs, rnd))
                    send(friend, receiver, nbytes, partial(merge, contribs), kind=AGG_UP)

        for _hop in range(k):
            run_gossip_hop()
            self.sim.run()  # barrier: the hop completes before the next starts

        root_contrib: set[int] = set()
        for nid in sorted(leaves):
            contribs = tuple(sorted(buffers[nid]))
            at_root = partial(root_contrib.update, contribs)
            if nid == root:
                self.sim.schedule(0.0, at_root)
            else:
                self._send_routed(nid, root, param_bytes + 16 * len(contribs), AGG_UP,
                                  contribs, at_root)
        self.sim.run()
        if not root_contrib:
            raise ProtocolError("no contributions reached the root")

        # The root's buffer is weight-1 messages, one per distinct
        # contributor; summed in sorted order, they give the flat mean.
        aggregate = branch_aggregate(
            [AggregateMessage(self.gid, self.round, payloads[cid], 1)
             for cid in sorted(root_contrib)], self.cfg.agg_mode)
        root_latency = self.sim.now - t0
        self._finalize(aggregate)

        mc = self.trees.multicast(self.gid, param_nbytes(self.hidden_dim))
        self.sim.run()

        metrics = self._metrics(DECENTRALIZED, leaves, aggregate.weight,
                                None, root_latency, mc.elapsed)
        self.round += 1
        return metrics

    # -- ensemble inference ------------------------------------------------------

    def ensemble_infer(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Majority vote over the leaves' personalized heads, tallied up the
        tree; ties break to the larger probability mass, then label 0.

        Returns (labels, root vote tally of shape (n, 2)).
        """
        group = self.trees.group(self.gid)
        leaves = self.contributing_leaves()
        if not leaves:
            raise ProtocolError("no live leaves to vote")
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        leaf_set = set(leaves)
        kids: dict[int, list[int]] = {}
        voters: list[int] = []  # the leaves in the order mass_tally visits them
        stack = [group.root]
        while stack:
            nid = stack.pop()
            if nid in leaf_set:
                voters.append(nid)
            kids[nid] = self.trees._live_children(group, nid)
            stack.extend(reversed(kids[nid]))

        ones = np.zeros(n, dtype=np.int64)  # votes for label 1 per test point

        def leaf_probs():
            """Each voter's probabilities, chunk by chunk; counts the chunk's
            votes first. A head votes 1 where p1 > p0, which is argmax with
            its first-maximum rule."""
            nonlocal ones
            for i in range(0, len(voters), INFER_CHUNK):
                heads = [self.personal[v].w_per for v in voters[i:i + INFER_CHUNK]]
                probs = forward_heads(x, np.stack([h.w for h in heads]),
                                      np.stack([h.b for h in heads]))
                ones += np.count_nonzero(probs[..., 1] > probs[..., 0], axis=0)
                yield from probs

        probs_in_order = leaf_probs()

        def mass_tally(nid: int) -> np.ndarray:
            """Probability mass summed up the tree, child by child; read
            only to break ties."""
            if nid in leaf_set:  # a leaf has no live children
                return next(probs_in_order)
            mass = np.zeros((n, 2))
            for child in kids[nid]:
                mass += mass_tally(child)
                self.msg_log.append(MessageRecord(PREDICT, child, nid, (), self.round))
            return mass

        mass = mass_tally(group.root)
        counts = np.stack([len(voters) - ones, ones], axis=1).astype(np.float64)
        labels = np.where(
            counts[:, 1] > counts[:, 0], 1,
            np.where(counts[:, 0] > counts[:, 1], 0,
                     np.where(mass[:, 1] > mass[:, 0], 1, 0)),
        )
        return labels.astype(np.int64), counts

    # -- bookkeeping ---------------------------------------------------------------

    def _metrics(self, mode: str, leaves: list[int], root_weight: int,
                 buffers, root_latency: float, dissemination: float) -> RoundMetrics:
        ingress = dict(self.sim.ingress_bytes)
        egress = dict(self.sim.egress_bytes)
        max_agg = 0
        if buffers is not None:
            max_agg = max((len(v) for v in buffers.values()), default=0)
        losses = [pfl_losses([self.data[nid] for nid in chunk], self.global_params,
                             [self.personal[nid] for nid in chunk], self.cfg.penalty)
                  for chunk in (leaves[i:i + INFER_CHUNK]
                                for i in range(0, len(leaves), INFER_CHUNK))]
        loss = float(np.mean(np.concatenate(losses)))
        return RoundMetrics(
            round=self.round,
            mode=mode,
            contributors=len(leaves),
            root_weight=root_weight,
            max_ingress_bytes=max(ingress.values(), default=0),
            max_agg_ingress_msgs=max_agg,
            total_bytes=sum(egress.values()),
            root_latency=root_latency,
            dissemination=dissemination,
            loss=loss,
            ingress_bytes=ingress,
            egress_bytes=egress,
        )
