"""Federated fine-tuning over aggregation trees, plus ensemble inference.

A session holds its nodes' data and personal heads as stacked arrays, one
row per node, and fine-tunes a round's leaves by their rows. Two round
protocols share that leaf-side step, whose deltas are the updates they
carry, and the root's close of the round: the update, the multicast down
the tree and the round's metrics. They differ in how the
deltas reach the root. The centralized protocol averages them branch by
branch up the tree; the decentralized one lets leaves gossip over social
links first and only then forward friend-set aggregates to the root. A
status checker picks between them from per-round link measurements.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .model import (PENALTIES, ModelParams, NodeData, fold_limbs, forward_heads, int_limbs,
                    local_finetune, param_nbytes, pfl_loss)
from .overlay import hex_id
from .simnet import AGG_UP
from .tree import GroupState, TreeManager

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"

UNWEIGHTED = "unweighted"
WEIGHTED = "weighted"

# Heads that one vote product (`count_votes_for_one`) or one softmax pass
# (`forward_heads`) takes at a time; it bounds the (n, INFER_CHUNK) blocks.
INFER_CHUNK = 16

# Simulated bytes an aggregate carries ahead of its parameters: a 16-byte
# group id, then its round and weight at 8 bytes each.
AGG_HEADER_BYTES = 32


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
        return AGG_HEADER_BYTES + param_nbytes(h, l)


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


def count_votes_for_one(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How many of the heads stacked as w (V, 2, H) and b (V, 2) vote label 1
    at each feature row of x (n, H): the heads whose `forward_heads`
    probabilities have p1 > p0 there, counted bit for bit, with a softmax
    only for heads whose margin leaves the vote open.

    The heads go `INFER_CHUNK` at a time through one product
    d = x @ (w1 - w0).T + (b1 - b0), which is within err_h of the reference
    margin l1 - l0 (l0, l1: `forward_heads`' logits). A vote is settled as

    - 0 where d <= -err_h. Then l1 <= l0, so the softmax subtracts l0:
      e0 = exp(0) = 1 >= exp(fl(l1 - l0)) = e1 (exp is exact at 0 and at
      most 1 below it), and p1 = fl(e1 / S) <= fl(e0 / S) = p0. An exactly
      zero head has d = err_h = 0 and settles here: hence `<=`.
    - 1 where d > fl(2**-40 + err_h) >= max(2**-40, err_h). With err_h at
      least twice the bound below, l1 - l0 > max(2**-40, err_h) / 2 >=
      2**-41, so e1 = 1 and fl(l0 - l1) <= -2**-41. Then e0 =
      exp(fl(l0 - l1)), within an ulp or so of exp, is at most
      exp(-2**-41) + 2**-52 < 1 - 2**-42. S = fl(e0 + 1) lies in [1, 2),
      so 1 / S - e0 / S > 2**-43, far more than the roundings of e0 / S
      and 1 / S (at most 2**-54 each).

    A head with a row neither rule settles goes through `forward_heads` on
    all of x, whose slice for each head equals that head's own product.

    The bound. Let u = 2**-53, g(k) = k u / (1 - k u), X = max |x| and
    B_h = X * sum |w_h| + |b_h0| + |b_h1|. A dot product of length H is
    within g(H) sum_k |x_k a_k| of the exact one in any summation order,
    with or without FMA, so a logit with its bias add is within
    g(H + 1) (sum_k |x_k w_jk| + |b_j|) of x . w_j + b_j, and l1 - l0 is
    within g(H + 1) B_h of the exact margin. The filter rounds w1 - w0 and
    b1 - b0 once each before its dot product and bias add, so d is within
    g(H + 2) B_h of it. Products that underflow add at most 3H * 2**-1074
    more (none when w_h = 0). So |d - (l1 - l0)| <= 2 g(H + 2) B_h + 3H *
    2**-1074, and err_h = (H + 2) * 2**-50 * B_h + 2**-1000 [w_h != 0] is at
    least twice that for H < 2**40, after the roundings of its own sums and
    products. A head with B_h >= 2**1000 gets err_h = NaN and settles
    nothing; below that no partial sum, logit or margin can overflow.
    """
    h = x.shape[1]
    dw = w[:, 1] - w[:, 0]
    db = b[:, 1] - b[:, 0]
    w_mass = np.abs(w).sum(axis=(1, 2))
    bound = np.abs(x).max(initial=0.0) * w_mass + np.abs(b).sum(axis=1)
    err = (h + 2) * 2.0 ** -50 * bound + np.where(w_mass > 0, 2.0 ** -1000, 0.0)
    err[bound >= 2.0 ** 1000] = np.nan  # comparisons with NaN are false
    neg_err, one_above = -err, err + 2.0 ** -40
    votes = np.zeros((x.shape[0], INFER_CHUNK), dtype=np.int64)  # per row and block column
    for i in range(0, len(w), INFER_CHUNK):
        block = slice(i, i + INFER_CHUNK)
        d = x @ dw[block].T
        d += db[block]
        one = d > one_above[block]
        zero = d <= neg_err[block]
        if np.count_nonzero(one) + np.count_nonzero(zero) < one.size:  # disjoint
            open_heads = np.flatnonzero(~(one | zero).all(axis=0))
            probs = forward_heads(x, w[block][open_heads], b[block][open_heads])
            one[:, open_heads] = (probs[..., 1] > probs[..., 0]).T
        votes[:, :one.shape[1]] += one
    return votes.sum(axis=1)


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
    """One session's round settings. `lam` weighs every leaf's proximal pull
    of its personal head toward the shared head, and `eta_local` is the
    leaves' fine-tuning step size; `eta` is the root's."""

    eta: float = 1.0
    lam: float = 0.5
    eta_local: float = 0.1
    steps: int = 10
    batch: int = 32
    agg_mode: str = WEIGHTED
    penalty: str = "squared"
    gossip_k: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError("lambda must be a finite non-negative real")
        if not np.isfinite(self.eta_local):
            raise ValueError("eta_local must be finite")
        if self.eta_local < 0:
            raise ValueError("eta_local must be non-negative")
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be positive")
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}")
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
    total_bytes: int
    root_latency: float
    dissemination: float
    ingress_bytes: dict[int, int] = field(default_factory=dict)
    egress_bytes: dict[int, int] = field(default_factory=dict)


def write_round_log(metrics: list[RoundMetrics], losses: list[float], path: str,
                    accuracy: Optional[dict[int, float]] = None) -> None:
    """Line-delimited round records: round, mode, per-node ingress/egress
    bytes (hex node ids), training loss, accuracy where supplied.

    `losses[i]` is the `FederatedSession.round_loss()` of the round that
    `metrics[i]` records; no round computes it by itself. A missing loss,
    or one that is not a float, raises before the file is opened, so no
    record is written with a loss nobody computed.
    """
    if len(losses) != len(metrics):
        raise ValueError(f"{len(losses)} losses for {len(metrics)} round records: "
                         f"take each round's loss with FederatedSession.round_loss()")
    for m, loss in zip(metrics, losses):
        if not isinstance(loss, float):
            raise ValueError(f"round {m.round}: loss {loss!r} was not computed")
    with open(path, "w", encoding="utf-8") as fh:
        for m, loss in zip(metrics, losses):
            rec = {
                "round": m.round,
                "mode": m.mode,
                "loss": loss,
                "accuracy": None if accuracy is None else accuracy.get(m.round),
                "ingress_bytes": {hex_id(n): v
                                  for n, v in sorted(m.ingress_bytes.items())},
                "egress_bytes": {hex_id(n): v
                                 for n, v in sorted(m.egress_bytes.items())},
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def mask_members(mask: int, leaf_ids: tuple[int, ...]) -> tuple[int, ...]:
    """The ids whose bits are set in `mask` (bit i stands for leaf_ids[i]),
    in ascending bit order."""
    return tuple(leaf_ids[i] for i, bit in enumerate(reversed(bin(mask)[2:]))
                 if bit == "1")


@dataclass(slots=True)
class MessageRecord:
    """One gossip or routed AGG_UP message as seen by the privacy audit.

    Its contributing leaves are a bitmask over the round's sorted leaf ids:
    bit i of `mask` stands for `leaf_ids[i]`, and every record of a round
    shares one `leaf_ids` tuple.
    """

    src: int
    dst: int
    mask: int
    leaf_ids: tuple[int, ...]
    round: int = 0


def audit_decentralized_privacy(records: list[MessageRecord],
                                social: SocialGraph) -> list[MessageRecord]:
    """Messages that expose a single leaf's raw update outside its friend set.

    A weight-1 message whose only contributor has at least two friends must
    stay inside that contributor's friend set; anything else is a finding.
    """
    violations = []
    for r in records:
        if r.mask.bit_count() != 1:
            continue
        c = r.leaf_ids[r.mask.bit_length() - 1]  # the one set bit, without a walk
        friends = social.friends.get(c, set())
        if len(friends) >= 2 and r.dst != c and r.dst not in friends:
            violations.append(r)
    return violations


class ModeSelector:
    """Root-side policy choosing the fine-tuning protocol from link stats."""

    def __init__(self, bytes_threshold: int = 1 << 20, latency_threshold: float = 2000.0):
        if bytes_threshold < 0:
            raise ValueError("bytes_threshold must be >= 0")
        if not latency_threshold >= 0:  # NaN as well: it would never switch
            raise ValueError("latency_threshold must be >= 0")
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


class PersonalHeads:
    """Every data-holding node's personal head, stacked in the rows of the
    session's `NodeData`: w is (N, L, H) and b (N, L).

    heads[nid] reads a `ModelParams` copy of nid's head. heads[nid] =
    params writes one, after checking its shape and finiteness; a node
    without data has no head, and naming one raises KeyError.
    """

    def __init__(self, row: dict[int, int], n_labels: int, hidden_dim: int):
        self.row = row
        self.w = np.zeros((len(row), n_labels, hidden_dim))
        self.b = np.zeros((len(row), n_labels))

    def _row(self, nid: int) -> int:
        try:
            return self.row[nid]
        except KeyError:
            raise KeyError(f"node {hex_id(nid)} holds no data, so it has no "
                           f"personal head") from None

    def __getitem__(self, nid: int) -> ModelParams:
        r = self._row(nid)
        return ModelParams._trusted(self.w[r].copy(), self.b[r].copy())

    def __setitem__(self, nid: int, params: ModelParams) -> None:
        r = self._row(nid)
        if params.w.shape != self.w.shape[1:] or params.b.shape != self.b.shape[1:]:
            raise ValueError(f"a personal head must have w of shape {self.w.shape[1:]} "
                             f"and b of shape {self.b.shape[1:]}")
        if not (np.isfinite(params.w).all() and np.isfinite(params.b).all()):
            raise ValueError("parameters must be finite")
        self.w[r], self.b[r] = params.w, params.b


class FederatedSession:
    """Drives fine-tuning rounds for one group over a tree manager.

    Owns the global head, every data-holding node's personal head as one
    stacked `PersonalHeads`, and the per-round message bookkeeping. A
    leaf's minibatches are a function of (seed, round, leaf id), so both
    protocols see bit-identical local updates for the same round.
    """

    def __init__(self, trees: TreeManager, gid: int, data: NodeData,
                 hidden_dim: int, cfg: Optional[RoundConfig] = None):
        self.trees = trees
        self.overlay = trees.overlay
        self.sim = trees.sim
        self.gid = gid
        self.data = data
        self.hidden_dim = hidden_dim
        self.cfg = cfg or RoundConfig()
        self.global_params = ModelParams.zeros(hidden_dim)
        self.round = 0
        # Every personal head starts at zero, in the data's rows.
        self.personal = PersonalHeads(data.row, self.global_params.w.shape[0], hidden_dim)
        # Each row's id as 64-bit limbs, which every round's seeds fold in.
        self.id_limbs = int_limbs(data.ids)
        # The decentralized round's gossip and routed messages; a
        # centralized round leaves it empty.
        self.msg_log: list[MessageRecord] = []
        # The last round's contributing leaves, which `round_loss` scores.
        self.last_leaves: Optional[list[int]] = None

    # -- shared pieces -------------------------------------------------------

    def contributing_leaves(self) -> list[int]:
        return [m for m in self.trees.leaves(self.gid) if m in self.data]

    def _leaf_seeds(self, rows: np.ndarray) -> np.ndarray:
        """The SplitMix seeds of the leaves at `rows` this round: the fold
        of their keys (seed, round, leaf id), with (seed, round) folded
        once and each id's limbs folded in as arrays."""
        limbs, counts = self.id_limbs
        return fold_limbs((self.cfg.seed, self.round), limbs[rows], counts[rows])

    def _leaf_payloads(self, leaves: list[int]) -> list[ModelParams]:
        """Fine-tune all leaves in one call by their rows, store their new
        personal heads and return their deltas."""
        cfg, data, heads = self.cfg, self.data, self.personal
        rows = np.fromiter(map(data.row.__getitem__, leaves), dtype=np.intp, count=len(leaves))
        d_w, d_b, heads.w[rows], heads.b[rows] = local_finetune(
            data.x, data.y, rows, self.global_params, heads.w, heads.b, cfg.lam,
            cfg.eta_local, cfg.steps, min(cfg.batch, data.x.shape[1]), self._leaf_seeds(rows),
            cfg.penalty)
        return [ModelParams._trusted(w, b) for w, b in zip(d_w, d_b)]

    def _open_round(self) -> tuple[GroupState, list[int], float]:
        """Start a round: (group, contributing leaves, start time), with the
        message log and the simulator's counters cleared."""
        group = self.trees.group(self.gid)
        leaves = self.contributing_leaves()
        if not leaves:
            raise ProtocolError("no live contributing leaves")
        self.msg_log = []
        self.sim.reset_counters()
        return group, leaves, self.sim.now

    def _close_round(self, mode: str, leaves: list[int], aggregate: AggregateMessage,
                     root_latency: float) -> RoundMetrics:
        """End a round at the root, the same in both protocols: apply the
        aggregate, multicast the new head down the tree and drain, then
        measure the round and count it."""
        self.global_params = root_update(self.global_params, aggregate, self.cfg.eta,
                                         expected_round=self.round)
        mc = self.trees.multicast(self.gid, param_nbytes(self.hidden_dim))
        self.sim.run()
        metrics = self._metrics(mode, leaves, aggregate.weight, root_latency, mc.elapsed)
        self.last_leaves = leaves
        self.round += 1
        return metrics

    def _hop(self, nodes: list[int], i: int, nbytes: int, mask: int,
             leaf_ids: tuple[int, ...], on_deliver) -> None:
        """Send an AGG_UP over the route's link from nodes[i] to nodes[i + 1],
        logging it with its contributor mask over `leaf_ids`. Its delivery
        sends the next link; the last link's delivery calls `on_deliver`."""
        frm, dst = nodes[i], nodes[i + 1]
        self.msg_log.append(MessageRecord(frm, dst, mask, leaf_ids, self.round))
        then = (partial(self._hop, nodes, i + 1, nbytes, mask, leaf_ids, on_deliver)
                if i + 2 < len(nodes) else on_deliver)
        self.sim.send(frm, dst, nbytes, then, kind=AGG_UP)

    # -- centralized protocol --------------------------------------------------

    def centralized_round(self) -> RoundMetrics:
        """One round: leaves fine-tune, deltas average up the tree, root
        updates and multicasts the new head back down."""
        group, leaves, t0 = self._open_round()
        leaf_set = set(leaves)

        # How many messages each member waits for this round: one from each
        # child whose subtree holds a contributing leaf, and its own update
        # if it is one.
        members = group.members
        expected: dict[int, int] = {}
        for nid in reversed(self.trees.walk(self.gid)):
            expected[nid] = (nid in leaf_set) + sum(
                1 for c in members[nid].children if expected[c])

        buffers: dict[int, list[AggregateMessage]] = {}
        root_agg: dict = {}  # the root's aggregate and its arrival time
        for nid, payload in zip(leaves, self._leaf_payloads(leaves)):
            self._receive(group, expected, buffers, root_agg, nid,
                          AggregateMessage(self.gid, self.round, payload, 1))

        self.sim.run()
        if not root_agg:
            raise ProtocolError("aggregation did not reach the root")
        return self._close_round(CENTRALIZED, leaves, root_agg["agg"], root_agg["time"] - t0)

    def _receive(self, group: GroupState, expected: dict[int, int],
                 buffers: dict[int, list[AggregateMessage]], root_agg: dict,
                 nid: int, msg: AggregateMessage) -> None:
        """A member takes one message: a child's aggregate, or a leaf's own
        update. Once it has all it expects, it sends their branch aggregate
        to its parent, or, at the root, keeps it for the round's close."""
        buffer = buffers.setdefault(nid, [])
        buffer.append(msg)
        if len(buffer) < expected[nid]:
            return
        agg = buffer[0] if len(buffer) == 1 else branch_aggregate(buffer, self.cfg.agg_mode)
        if nid == group.root:
            root_agg.update(agg=agg, time=self.sim.now)
            return
        parent = group.members[nid].parent
        self.sim.send(nid, parent, agg.nbytes(),
                      partial(self._receive, group, expected, buffers, root_agg, parent, agg),
                      kind=AGG_UP)

    # -- decentralized protocol -------------------------------------------------

    def decentralized_round(self, social: SocialGraph) -> RoundMetrics:
        """Leaves fine-tune, gossip friend-set aggregates for `gossip_k`
        hops, then forward their buffers to the root over the DHT.

        Buffers are contributor bitmasks over the round's sorted leaf ids
        (bit i stands for the i-th smallest), so a merge is an OR and
        repeated mixing never double counts a leaf. The root ORs what
        reaches it into one mask and averages its set bits' updates in
        ascending id order: the flat mean over the distinct leaves it sees.
        """
        group, leaves, t0 = self._open_round()
        root = group.root
        for nid in leaves:
            if nid != root and nid not in social.friends:
                raise ProtocolError(f"social graph does not cover leaf {hex_id(nid)}")

        payloads = dict(zip(leaves, self._leaf_payloads(leaves)))
        leaf_ids = tuple(sorted(leaves))
        buffers = {nid: 1 << i for i, nid in enumerate(leaf_ids)}
        gossipers = [n for n in leaves if social.friends.get(n)]
        param_bytes = AGG_HEADER_BYTES + param_nbytes(self.hidden_dim)
        # Every hop sends along the same links, in receiver order and then
        # in each receiver's sorted friend order: friend sets never change.
        is_gossiper = set(gossipers).__contains__
        links = [(friend, receiver) for receiver in gossipers
                 for friend in sorted(social.friends[receiver]) if is_gossiper(friend)]

        def run_gossip_hop() -> None:
            """Synchronous exchange: everyone shares its current buffer with
            every friend, and a merge ORs the sender's mask into the
            receiver's. A sender's snapshot is its mask as the hop starts:
            its messages carry it, and its bit count sets their size."""
            snapshot = buffers.copy()
            nbytes = {n: param_bytes + 16 * snapshot[n].bit_count() for n in gossipers}
            log, rnd = self.msg_log, self.round
            msgs = []
            for friend, receiver in links:
                log.append(MessageRecord(friend, receiver, snapshot[friend], leaf_ids, rnd))
                msgs.append((friend, receiver, nbytes[friend]))

            def merge(i: int) -> None:
                friend, receiver = links[i]
                buffers[receiver] |= snapshot[friend]

            self.sim.send_many(msgs, merge, AGG_UP)

        for _hop in range(self.cfg.gossip_k):
            run_gossip_hop()
            self.sim.run()  # barrier: the hop completes before the next starts

        root_mask = buffers.get(root, 0)

        def at_root(mask: int) -> None:
            nonlocal root_mask
            root_mask |= mask

        # Each upload goes hop by hop along the DHT route to the root's id;
        # routing is exact, so a live leaf other than the root has a hop.
        for nid in leaf_ids:
            if nid != root:
                mask = buffers[nid]
                self._hop([nid] + self.overlay.route(nid, root).hops, 0,
                          param_bytes + 16 * mask.bit_count(), mask, leaf_ids,
                          partial(at_root, mask))
        self.sim.run()
        if not root_mask:
            raise ProtocolError("no contributions reached the root")

        # The root's buffer is weight-1 messages, one per distinct
        # contributor; summed in ascending id order, they give the flat mean.
        aggregate = branch_aggregate(
            [AggregateMessage(self.gid, self.round, payloads[cid], 1)
             for cid in mask_members(root_mask, leaf_ids)], self.cfg.agg_mode)
        return self._close_round(DECENTRALIZED, leaves, aggregate, self.sim.now - t0)

    # -- ensemble inference ------------------------------------------------------

    def ensemble_infer(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Majority vote over the leaves' personalized heads, tallied up the
        tree; ties break to the larger probability mass, then label 0.

        x must be finite and of shape (n, hidden_dim). A head votes 1 where
        its softmax has p1 > p0. `count_votes_for_one` settles a vote from
        the head's logit margin d, taken by one product per block of
        `INFER_CHUNK` voters, and the margin's rounding bound
        err_h = (H + 2) * 2**-50 * (max|x| * sum|w_h| + |b_h0| + |b_h1|)
        (+ 2**-1000 unless w_h = 0): 0 where d <= -err_h, 1 where
        d > 2**-40 + err_h. Only a head with a point between the two takes
        the exact path, a `forward_heads` softmax.

        Only points whose counts tie get the mass tally: `forward_heads`
        probabilities of every voter on all of x, taken at those points and
        summed up the tree, child by child. The vote sends no message.

        Returns (labels, root vote tally of shape (n, 2)).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.hidden_dim:
            raise ValueError(f"x must be (n, {self.hidden_dim}), got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        group = self.trees.group(self.gid)
        leaves = self.contributing_leaves()
        if not leaves:
            raise ProtocolError("no live leaves to vote")
        leaf_set = set(leaves)
        order = self.trees.walk(self.gid)
        voters = [nid for nid in order if nid in leaf_set]
        rows = np.fromiter(map(self.personal.row.__getitem__, voters), dtype=np.intp,
                           count=len(voters))
        w, b = self.personal.w[rows], self.personal.b[rows]
        ones = count_votes_for_one(x, w, b)
        labels = (2 * ones > len(voters)).astype(np.int64)
        tied = np.flatnonzero(2 * ones == len(voters))
        if tied.size:
            # On all of x: a product over the tied rows alone can be summed
            # in another order and differ in the last bit.
            probs = (p for i in range(0, len(voters), INFER_CHUNK)
                     for p in forward_heads(x, w[i:i + INFER_CHUNK],
                                            b[i:i + INFER_CHUNK])[:, tied])
            mass = _tree_mass(group.members, order, dict(zip(voters, probs)), tied.size)
            labels[tied] = mass[:, 1] > mass[:, 0]
        counts = np.stack([len(voters) - ones, ones], axis=1).astype(np.float64)
        return labels, counts

    # -- bookkeeping ---------------------------------------------------------------

    def round_loss(self) -> float:
        """The last round's training loss: the `pfl_loss` of each of its
        contributing leaves over all the leaf's points, at the shared head
        and the leaf's personal head, averaged over the leaves.

        Only a round writes the heads, so until the next round starts this
        is the loss at the round's close. No round computes it: only the
        round log reads it.
        """
        leaves = self.last_leaves
        if leaves is None:
            raise ProtocolError("no round has run yet: round_loss scores the last round")
        return float(np.mean([pfl_loss(self.data[nid], self.global_params, self.personal[nid],
                                       self.cfg.lam, self.cfg.penalty) for nid in leaves]))

    def _metrics(self, mode: str, leaves: list[int], root_weight: int,
                 root_latency: float, dissemination: float) -> RoundMetrics:
        ingress = dict(self.sim.ingress_bytes)
        egress = dict(self.sim.egress_bytes)
        return RoundMetrics(
            round=self.round,
            mode=mode,
            contributors=len(leaves),
            root_weight=root_weight,
            max_ingress_bytes=max(ingress.values(), default=0),
            total_bytes=sum(egress.values()),
            root_latency=root_latency,
            dissemination=dissemination,
            ingress_bytes=ingress,
            egress_bytes=egress,
        )


def _tree_mass(members, order: list[int], leaf_mass: dict[int, np.ndarray],
               n: int) -> np.ndarray:
    """Probability mass at n points, summed up the tree from `leaf_mass`,
    each voter's own: `order` is the tree's walk from the root, and every
    other member's sum starts at zero and adds its children's in child
    order."""
    mass: dict[int, np.ndarray] = {}
    for nid in reversed(order):
        if nid in leaf_mass:
            mass[nid] = leaf_mass[nid]
        else:
            mass[nid] = total = np.zeros((n, 2))
            for child in members[nid].children:
                total += mass.pop(child)
    return mass[order[0]]
