"""Experiment orchestration: synthetic topics, scenarios, metrics, reports.

Topics are Gaussian class pairs in a shared 2-D informative subspace with
their class directions spread at equal angles, so one linear head can fit
any single topic cleanly but no single head fits all topics at once. That
preserves the single-vs-mixed-topic contrast the experiments measure
without any text pipeline.
"""

from __future__ import annotations

import configparser
import csv
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import get_type_hints

import numpy as np

from .fedagg import (CENTRALIZED, DECENTRALIZED, FederatedSession, ModeSelector,
                     RoundConfig, RoundMetrics, SocialGraph)
from .model import LocalDataset, serialize_params
from .overlay import Overlay, random_ids
from .simnet import LinkModel, Simulator
from .tree import TreeConfig, TreeManager

SINGLE_TOPIC_PER_TREE = "single"
MIXED = "mixed"

_TEST_STREAM = 1 << 130  # keeps test-set draws disjoint from the (seed, topic) node data

log = logging.getLogger(__name__)


@dataclass
class TopicSpec:
    topic_id: int
    mean0: np.ndarray
    mean1: np.ndarray
    cov_scale: float
    samples_per_node: int

    def __post_init__(self) -> None:
        if np.array_equal(self.mean0, self.mean1):
            raise ValueError("class means must be distinct")
        if self.cov_scale < 0:
            raise ValueError("cov_scale must be >= 0")


def make_topics(n_topics: int, hidden_dim: int, seed: int,
                separation: float = 4.0, cov_scale: float = 1.0,
                samples_per_node: int = 200) -> list[TopicSpec]:
    """Topic class-mean pairs at equal angles in a seeded 2-D subspace."""
    if hidden_dim < 2:
        raise ValueError("hidden_dim must be >= 2 for the topic geometry")
    rng = np.random.default_rng([seed, 0x701C5])
    u = rng.normal(size=hidden_dim)
    u /= np.linalg.norm(u)
    v = rng.normal(size=hidden_dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    topics = []
    for t in range(n_topics):
        angle = 2.0 * math.pi * t / max(n_topics, 1)
        direction = math.cos(angle) * u + math.sin(angle) * v
        half = 0.5 * separation * direction
        topics.append(TopicSpec(t, -half, half, cov_scale, samples_per_node))
    return topics


# Datasets are written in blocks of about BLOCK_BYTES of features, or one
# dataset if it is larger: below glibc's default 128 KiB mmap threshold, so
# malloc serves a block from the heap, as it did one small dataset's arrays.
# A share longer than PART_BYTES of features is scaled and checked in parts,
# so no temporary exceeds PART_BYTES.
BLOCK_BYTES = 1 << 16
PART_BYTES = 1 << 20


def _write_points(shares: list[tuple[TopicSpec, int]], n: int,
                  rngs: list[np.random.Generator]) -> list[LocalDataset]:
    """n datasets whose rows are each share (topic, count) in turn, with
    one generator per share in `rngs`. Dataset by dataset, a share takes
    fair-coin labels `integers(0, 2, size=count)` from its generator, then
    the class mean plus cov_scale times its standard normal draws, written
    straight into a block of datasets. Each dataset is views of its rows.

    The arithmetic and the checks run once per share of a block. They give
    the bits of `means + cov_scale * rng.normal(size=(count, H))`. `normal`
    returns 0.0 + 1.0 * z for each standard draw z, that is z + 0.0, which
    turns a -0.0 draw into +0.0; the draws get the same + 0.0 here. The
    scale and the means then go in by the same operations with their
    operands swapped, which changes no finite result, cov_scale 0 included.
    (Adding 0.0 to the means instead would not do: with cov_scale 0, a -0.0
    mean plus a negative draw's -0.0 is -0.0.)
    """
    dim = shares[0][0].mean0.size
    means = [np.stack([spec.mean0, spec.mean1]) for spec, _ in shares]
    offsets = [0, *accumulate(k for _, k in shares)]
    per = max(1, BLOCK_BYTES // (8 * dim * max(offsets[-1], 1)))  # datasets per block
    rows = max(1, PART_BYTES // (8 * dim))
    out = []
    for first in range(0, n, per):
        x = np.empty((min(per, n - first), offsets[-1], dim))
        y = np.empty(x.shape[:2], dtype=np.int64)
        for xi, yi in zip(x, y):
            for (_, k), off, rng in zip(shares, offsets, rngs):
                yi[off:off + k] = rng.integers(0, 2, size=k)
                rng.standard_normal(out=xi[off:off + k])
        for (spec, k), off, mean in zip(shares, offsets, means):
            for lo in range(off, off + k, rows):  # one part unless the block is one dataset
                hi = min(off + k, lo + rows)
                xs, ys = x[:, lo:hi], y[:, lo:hi]
                with np.errstate(over="ignore"):  # the check below reports it
                    xs += 0.0
                    xs *= spec.cov_scale
                    xs += mean[ys]
                if not np.isfinite(xs).all():
                    raise ValueError("features must be finite")
                if not (ys.view(np.uint64) <= 1).all():
                    raise ValueError("labels must be binary")
        out += [LocalDataset._trusted(xi, yi) for xi, yi in zip(x, y)]
    return out


def generate_topic_data(spec: TopicSpec, node_ids: list[int],
                        seed: int) -> dict[int, LocalDataset]:
    """Per-node datasets from one stream per topic: the nodes, in sorted id
    order, draw their points from `default_rng((seed, topic))` in turn."""
    nids = sorted(node_ids)
    rngs = [np.random.default_rng((seed, spec.topic_id))]
    return dict(zip(nids, _write_points([(spec, spec.samples_per_node)], len(nids), rngs)))


def generate_testset(spec: TopicSpec, n: int, seed: int) -> LocalDataset:
    rngs = [np.random.default_rng((seed, spec.topic_id, _TEST_STREAM))]
    return _write_points([(spec, n)], 1, rngs)[0]


def mixed_node_data(topics: list[TopicSpec], node_ids: list[int], seed: int,
                    points_per_node: int) -> dict[int, LocalDataset]:
    """Each node holds an even split of every topic's data, topic by topic:
    the nodes, in sorted id order, draw their shares of topic t from
    `default_rng((seed, t))` in turn."""
    shares = [points_per_node // len(topics)] * len(topics)
    for i in range(points_per_node - sum(shares)):
        shares[i] += 1
    nids = sorted(node_ids)
    rngs = [np.random.default_rng((seed, spec.topic_id)) for spec in topics]
    return dict(zip(nids, _write_points(list(zip(topics, shares)), len(nids), rngs)))


# -- metrics -------------------------------------------------------------------

def compute_accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length, non-empty")
    return float(np.mean(predictions == labels))


def compute_f1(predictions, labels) -> float:
    """Binary F1 for label 1; 0 when precision + recall = 0."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length, non-empty")
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels != 1)))
    fn = int(np.sum((predictions != 1) & (labels == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class MetricsRecord:
    scenario: str
    round: int
    topic: int
    accuracy: float
    f1: float
    dissemination: float
    max_ingress_bytes: int
    mode: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


# Field name -> type; `read_records` checks each value against it.
_RECORD_TYPES = get_type_hints(MetricsRecord)


def _has_type(value, kind: type) -> bool:
    """The type rule of config and record fields: a bool field takes a bool,
    an int field an int but not a bool, a float field an int or a float but
    not a bool, and a str field a str."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


# -- scenario configuration ------------------------------------------------------

_CONFIG_SECTIONS = {
    "scenario": ["name", "nodes", "fanout", "tree_count", "assignment", "rounds", "seed"],
    "data": ["topics", "points_per_node", "test_points", "separation", "cov_scale"],
    "model": ["hidden_dim", "lam", "eta", "eta_local", "steps", "batch",
              "agg_mode", "penalty"],
    "link": ["lat_lo", "lat_hi", "bandwidth"],
    "tree": ["heartbeat_period", "failure_timeout", "intercept"],
    "fed": ["mode", "gossip_k", "bytes_threshold", "latency_threshold"],
    "failures": ["events"],
}


@dataclass
class ScenarioConfig:
    seed: int
    name: str = "scenario"
    nodes: int = 60
    fanout: int = 16
    tree_count: int = 3
    assignment: str = SINGLE_TOPIC_PER_TREE
    rounds: int = 20
    topics: int = 3
    points_per_node: int = 200
    test_points: int = 400
    separation: float = 4.0
    cov_scale: float = 1.0
    hidden_dim: int = 32
    lam: float = 0.5
    eta: float = 1.0
    eta_local: float = 0.1
    steps: int = 10
    batch: int = 32
    agg_mode: str = "weighted"
    penalty: str = "squared"
    lat_lo: float = 10.0
    lat_hi: float = 50.0
    bandwidth: float = 1048.576
    heartbeat_period: float = 1000.0
    failure_timeout: float = 3000.0
    intercept: bool = True
    mode: str = CENTRALIZED  # centralized | decentralized | auto
    gossip_k: int = 3
    bytes_threshold: int = 1 << 20
    latency_threshold: float = 2000.0
    failures: list[tuple[float, int, str]] = field(default_factory=list)

    def round_config(self) -> RoundConfig:
        return RoundConfig(eta=self.eta, lam=self.lam, eta_local=self.eta_local,
                           steps=self.steps, batch=self.batch, agg_mode=self.agg_mode,
                           penalty=self.penalty, gossip_k=self.gossip_k, seed=self.seed)

    def link_model(self) -> LinkModel:
        return LinkModel(self.lat_lo, self.lat_hi, self.bandwidth)

    def tree_config(self) -> TreeConfig:
        return TreeConfig(fanout_cap=self.fanout,
                          heartbeat_period=self.heartbeat_period,
                          failure_timeout=self.failure_timeout,
                          intercept_joins=self.intercept)

    def validate(self) -> None:
        """Reject a bad config before anything is built; the model, link,
        tree and mode-switch settings are checked by building their configs."""
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name != "failures" and not _has_type(value, kind):
                raise ValueError(f"{name} must be of type {kind.__name__}, "
                                 f"not {type(value).__name__}")
        if self.nodes < 1 or self.rounds < 1:
            raise ValueError("nodes and rounds must be positive")
        if self.topics < 1 or self.points_per_node < 1 or self.test_points < 1:
            raise ValueError("topics, points_per_node and test_points must be positive")
        if self.assignment not in (SINGLE_TOPIC_PER_TREE, MIXED):
            raise ValueError("assignment must be 'single' or 'mixed'")
        if self.assignment == SINGLE_TOPIC_PER_TREE and self.tree_count != self.topics:
            raise ValueError("single-topic assignment needs tree_count == topics")
        if self.assignment == MIXED and self.tree_count != 1:
            raise ValueError("mixed assignment uses exactly one tree")
        if self.nodes < self.tree_count:
            raise ValueError("need at least one node per tree")
        if self.mode not in (CENTRALIZED, DECENTRALIZED, "auto"):
            raise ValueError("mode must be centralized, decentralized or auto")
        if self.hidden_dim < 2:
            raise ValueError("hidden_dim must be >= 2")
        if not math.isfinite(self.separation) or self.separation == 0:
            raise ValueError("separation must be finite and non-zero")
        if not math.isfinite(self.cov_scale) or self.cov_scale < 0:
            raise ValueError("cov_scale must be finite and >= 0")
        self.round_config()
        self.link_model()
        self.tree_config()
        ModeSelector(self.bytes_threshold, self.latency_threshold)
        if not isinstance(self.failures, list):
            raise ValueError(f"failures must be a list of (time, node index, action) "
                             f"events, not {type(self.failures).__name__}")
        failed: set[int] = set()
        last = 0.0
        for event in self.failures:
            if not isinstance(event, (tuple, list)) or len(event) != 3:
                raise ValueError(f"failure event {event!r} is not a (time, node index, "
                                 f"action) triple")
            t, idx, action = event
            if not _has_type(t, float) or not math.isfinite(t):
                raise ValueError(f"failure event time {t!r} is not a number, or not finite")
            if t < 0:
                raise ValueError(f"failure event time {t} is negative")
            if t < last:
                raise ValueError("failure schedule times must be non-decreasing")
            last = t
            if action not in ("fail", "rejoin"):
                raise ValueError(f"unknown failure action {action!r}")
            if not _has_type(idx, int) or not 0 <= idx < self.nodes:
                raise ValueError(f"failure event {event}: node index is not an int, "
                                 f"or outside [0, {self.nodes})")
            if action == "fail":
                if idx in failed:
                    raise ValueError(f"failure event {event}: node is already failed")
                failed.add(idx)
            else:
                if idx not in failed:
                    raise ValueError(f"failure event {event}: node is not failed")
                failed.remove(idx)

    @classmethod
    def from_ini(cls, path: str) -> "ScenarioConfig":
        """Parse the key/value config format; unknown sections or keys fail,
        and so does a file configparser cannot read, with a ValueError that
        names the file."""
        parser = configparser.ConfigParser()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
            if parser.defaults():  # they would be copied into every section
                raise ValueError(f"unknown config section [{parser.default_section}]")
            sections = {name: dict(parser[name]) for name in parser.sections()}
        except configparser.InterpolationError as exc:  # a stray '%'
            raise ValueError(f"{path}: [{exc.section}] {exc.option}: {exc.message}") from None
        except configparser.Error as exc:  # its message names the file and line
            raise ValueError(" ".join(str(exc).split())) from None
        kwargs = {}
        for section, values in sections.items():
            if section not in _CONFIG_SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in values.items():
                if key not in _CONFIG_SECTIONS[section]:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                if section == "failures":
                    kwargs["failures"] = _parse_failures(raw)
                else:
                    kwargs[key] = _coerce(key, raw)
        if "seed" not in kwargs:
            raise ValueError("config must set scenario.seed")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


# Field name -> type; a config value is parsed as its field's type.
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _coerce(key: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    if kind is bool:
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"bad boolean {raw!r} for {key}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"bad {kind.__name__} {raw!r} for {key}") from None
    return raw


def _parse_failures(raw: str) -> list[tuple[float, int, str]]:
    """Split `time node_index action` lines; validate() checks the events."""
    events = []
    for line in raw.strip().splitlines():
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"failure event needs 'time node_index action': {line!r}")
        try:
            events.append((float(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise ValueError(f"failure event needs a number time and an integer "
                             f"node_index: {line!r}") from None
    return events


# -- scenario execution ------------------------------------------------------------

@dataclass
class ScenarioResult:
    config: ScenarioConfig
    records: list[MetricsRecord]
    round_metrics: list[RoundMetrics]
    final_weights: dict[str, bytes]
    tree_stats: dict[str, object]

    def records_blob(self) -> bytes:
        return ("\n".join(r.to_json() for r in self.records) + "\n").encode()


def _build_trees(trees: TreeManager, ids: list[int],
                 names: list[str]) -> list[tuple[int, list[int]]]:
    """One group per name, in order; group k is joined by its share
    `ids[k::len(names)]` of the ids, which come sorted as `random_ids`
    returns them. Returns (group id, share) per group."""
    out = []
    for k, name in enumerate(names):
        share = ids[k::len(names)]
        gid, _root = trees.create_group(name)
        for nid in share:
            if nid not in trees.groups[gid].members:
                trees.join_group(nid, gid)
        out.append((gid, share))
    return out


class Scenario:
    """One run's world: the overlay, the simulator, the trees with one
    session and mode selector each, the test sets each tree votes on, and
    the failure events still to come.

    `step()` runs one round and `result()` ends the run; `run_scenario`
    does both. Nothing the scenario builds refers back to it, so a finished
    run is freed by reference counting alone.
    """

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.ids = random_ids(cfg.nodes, cfg.seed)  # sorted: failure events index them
        self.overlay = Overlay.build(self.ids)
        self.sim = Simulator(seed=cfg.seed, link=cfg.link_model(),
                             alive=self.overlay.is_alive)
        self.trees = TreeManager(self.overlay, self.sim, cfg.tree_config())

        topics = make_topics(cfg.topics, cfg.hidden_dim, cfg.seed,
                             cfg.separation, cfg.cov_scale, cfg.points_per_node)
        testsets = {t.topic_id: generate_testset(t, cfg.test_points, cfg.seed)
                    for t in topics}

        self.names = [f"{cfg.name}-tree-{k}" for k in range(cfg.tree_count)]
        self.sessions: list[FederatedSession] = []
        # Per tree, the (topic, test set) pairs its vote is scored on.
        self.testsets: list[list[tuple[int, LocalDataset]]] = []
        for k, (gid, share) in enumerate(_build_trees(self.trees, self.ids, self.names)):
            if cfg.assignment == SINGLE_TOPIC_PER_TREE:
                data = generate_topic_data(topics[k], share, cfg.seed)
                tid = topics[k].topic_id
                self.testsets.append([(tid, testsets[tid])])
            else:
                data = mixed_node_data(topics, share, cfg.seed, cfg.points_per_node)
                self.testsets.append(sorted(testsets.items()))
            self.sessions.append(FederatedSession(self.trees, gid, data, cfg.hidden_dim,
                                                  cfg.round_config()))

        self.selectors = [ModeSelector(cfg.bytes_threshold, cfg.latency_threshold)
                          for _ in self.sessions]
        # Per tree, the social graph of the last decentralized round and the
        # contributing leaves it was built over.
        self.socials: dict[int, tuple[list[int], SocialGraph]] = {}
        self.failures = list(cfg.failures)
        self.round = 0
        self.records: list[MetricsRecord] = []
        self.round_metrics: list[RoundMetrics] = []

    def step(self) -> list[MetricsRecord]:
        """Run the next round: the failure events due by now and every
        tree's healing, then each tree's round and its vote. Returns the
        round's records, and logs one progress line per tree at INFO on
        "dhtfed.harness"."""
        cfg, rnd = self.cfg, self.round
        if rnd >= cfg.rounds:
            raise ValueError(f"all {cfg.rounds} rounds have run")
        self.round += 1
        self._apply_due_failures()
        first = len(self.records)
        for k, session in enumerate(self.sessions):
            mode = cfg.mode if cfg.mode != "auto" else self.selectors[k].mode
            if mode == DECENTRALIZED:
                metrics = session.decentralized_round(self._social_graph(k))
            else:
                metrics = session.centralized_round()
            if cfg.mode == "auto":
                self.selectors[k].update(metrics.max_ingress_bytes, metrics.root_latency)
            self.round_metrics.append(metrics)

            own = []
            for tid, test in self.testsets[k]:
                labels, _counts = session.ensemble_infer(test.x)
                own.append(MetricsRecord(
                    scenario=cfg.name, round=rnd, topic=tid,
                    accuracy=compute_accuracy(labels, test.y),
                    f1=compute_f1(labels, test.y),
                    dissemination=metrics.dissemination,
                    max_ingress_bytes=metrics.max_ingress_bytes,
                    mode=metrics.mode))
            self.records += own
            log.info("round %3d tree %d mode=%s acc=%.4f lat=%.0fms", rnd, k, metrics.mode,
                     sum(r.accuracy for r in own) / len(own), metrics.root_latency)
        return self.records[first:]

    def result(self) -> ScenarioResult:
        """The run's records, round metrics, final weights and tree stats,
        once every round has run. Failure events that never fired raise."""
        cfg = self.cfg
        if self.round < cfg.rounds:
            raise ValueError(f"{self.round} of {cfg.rounds} rounds have run")
        if self.failures:
            raise ValueError(f"failure events never fired: {self.failures}; the run "
                             f"ended at simulated time {self.sim.now:.1f} ms")
        final_weights = {name: serialize_params(s.global_params)
                         for name, s in zip(self.names, self.sessions)}
        stats = {name: self.trees.tree_stats(s.gid)
                 for name, s in zip(self.names, self.sessions)}
        return ScenarioResult(cfg, self.records, self.round_metrics, final_weights, stats)

    def _social_graph(self, k: int) -> SocialGraph:
        """Tree k's social graph, built anew whenever churn has changed the
        contributing leaves, since it must cover them all."""
        leaves = self.sessions[k].contributing_leaves()
        if k not in self.socials or self.socials[k][0] != leaves:
            self.socials[k] = (leaves, SocialGraph.ring_with_chords(
                leaves, chords=len(leaves) // 2, seed=self.cfg.seed * 1000 + k))
        return self.socials[k][1]

    def _apply_due_failures(self) -> None:
        """Fail/rejoin actions whose time has come, then heal every tree. The
        overlay repairs its leaf sets itself, in the first route after a fail."""
        due = [f for f in self.failures if f[0] <= self.sim.now]
        if not due:
            return
        del self.failures[: len(due)]
        trees = self.trees
        for _t, idx, action in due:
            nid = self.ids[idx]
            if action == "fail":
                self.overlay.fail(nid)
            else:
                for gid, group in trees.groups.items():
                    if nid in group.members:
                        trees.remove_member(gid, nid)
                self.overlay.rejoin(nid)
                # It joins back only the trees it holds data for: one it relayed
                # for without data, as a root not in its share, would take it
                # back as a leaf with nothing to contribute.
                for session in self.sessions:
                    if nid in session.data:
                        trees.join_group(nid, session.gid)
        for gid in list(trees.groups):
            trees.heal(gid)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Build the overlay and trees, distribute data, run T federated rounds
    interleaved with ensemble inference on held-out per-topic test sets.

    Logs one progress line per round and tree at INFO on "dhtfed.harness".
    """
    scenario = Scenario(cfg)
    for _ in range(cfg.rounds):
        scenario.step()
    return scenario.result()


# -- dissemination study -------------------------------------------------------------

@dataclass
class DisseminationRow:
    nodes: int
    tree_count: int
    payload_bytes: int
    per_tree_ms: list[float]
    depth: int

    @property
    def max_ms(self) -> float:
        return max(self.per_tree_ms)


def measure_dissemination(payload_bytes: list[int], node_counts: list[int],
                          tree_counts: list[int], seed: int,
                          fanout: int = 16) -> list[DisseminationRow]:
    """Simulated time for every member to receive a payload multicast from
    the root(s); one row per (N, tree count, payload size) combination."""
    rows = []
    for n in node_counts:
        for tc in tree_counts:
            for nb in payload_bytes:
                ids = random_ids(n, seed)
                overlay = Overlay.build(ids)
                sim = Simulator(seed=seed, alive=overlay.is_alive)
                trees = TreeManager(overlay, sim, TreeConfig(fanout_cap=fanout))
                gids = [gid for gid, _share in _build_trees(
                    trees, ids, [f"disseminate-{n}-{tc}-{k}" for k in range(tc)])]
                results = [trees.multicast(g, nb) for g in gids]
                sim.run()
                depth = max(trees.tree_stats(g).depth for g in gids)
                rows.append(DisseminationRow(
                    n, tc, nb, [r.elapsed for r in results], depth))
    return rows


# -- result files ----------------------------------------------------------------------

def write_records(records: list[MetricsRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_json() + "\n")


def read_records(path: str) -> list[MetricsRecord]:
    """The records of a file `write_records` wrote. A line that is not one
    record's JSON object, with every field of its type, raises ValueError
    naming the file and line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = MetricsRecord(**json.loads(line))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: not a metrics record: {exc}") from None
            for name, kind in _RECORD_TYPES.items():
                if not _has_type(getattr(rec, name), kind):
                    raise ValueError(f"{path}:{lineno}: {name} is not of type {kind.__name__}")
            out.append(rec)
    return out


def summary_rows(records: list[MetricsRecord]) -> list[dict]:
    """Final-round accuracy/F1 per (scenario, topic)."""
    last_round: dict[tuple[str, int], MetricsRecord] = {}
    for r in records:
        key = (r.scenario, r.topic)
        if key not in last_round or r.round >= last_round[key].round:
            last_round[key] = r
    rows = []
    for (scenario, topic) in sorted(last_round):
        r = last_round[(scenario, topic)]
        rows.append({
            "scenario": scenario, "topic": topic, "round": r.round,
            "accuracy": round(r.accuracy, 6), "f1": round(r.f1, 6),
            "dissemination_ms": round(r.dissemination, 3),
            "max_ingress_bytes": r.max_ingress_bytes, "mode": r.mode,
        })
    return rows


def format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no records)\n"
    cols = list(rows[0].keys())
    widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in cols}
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path: str) -> None:
    if not rows:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
