import hashlib
import logging
from pathlib import Path

import numpy as np
import pytest

from dhtfed.fedagg import FederatedSession, RoundConfig, write_round_log
from dhtfed.harness import (MIXED, SINGLE_TOPIC_PER_TREE, DisseminationRow,
                            MetricsRecord, ScenarioConfig, compute_accuracy,
                            compute_f1, format_table, generate_testset,
                            generate_topic_data, make_topics,
                            measure_dissemination, mixed_node_data,
                            read_records, run_scenario, summary_rows,
                            write_records)
from dhtfed.overlay import Overlay, random_ids
from dhtfed.simnet import LinkModel
from dhtfed.tree import TreeManager

from conftest import build_world

DEMO_INI = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"


# -- synthetic topics ---------------------------------------------------------------

def test_topic_means_are_distinct_and_separated():
    topics = make_topics(3, 32, seed=1, separation=4.0)
    for spec in topics:
        gap = np.linalg.norm(spec.mean1 - spec.mean0)
        assert gap == pytest.approx(4.0, rel=1e-9)
    d01 = topics[0].mean1 - topics[0].mean0
    d11 = topics[1].mean1 - topics[1].mean0
    cos = d01 @ d11 / (np.linalg.norm(d01) * np.linalg.norm(d11))
    assert cos == pytest.approx(-0.5, abs=1e-9)  # 120 degrees apart


def test_zero_covariance_collapses_to_class_means_and_perfect_accuracy():
    cfg = ScenarioConfig(seed=5, nodes=12, rounds=3, topics=1, tree_count=1,
                         points_per_node=50, cov_scale=0.0, fanout=4,
                         name="degenerate")
    spec = make_topics(1, cfg.hidden_dim, cfg.seed, cfg.separation, 0.0, 50)[0]
    data = generate_topic_data(spec, random_ids(4, 1), seed=5)
    for ds in data.values():
        for xi, yi in zip(ds.x, ds.y):
            target = spec.mean1 if yi == 1 else spec.mean0
            assert np.array_equal(xi, target)
    result = run_scenario(cfg)
    final = summary_rows(result.records)
    assert all(row["accuracy"] == 1.0 for row in final)


def test_same_seed_gives_identical_datasets():
    spec = make_topics(2, 16, seed=9)[1]
    ids = random_ids(6, 2)
    a = generate_topic_data(spec, ids, seed=4)
    b = generate_topic_data(spec, ids, seed=4)
    c = generate_topic_data(spec, ids, seed=5)
    for nid in ids:
        assert np.array_equal(a[nid].x, b[nid].x)
        assert np.array_equal(a[nid].y, b[nid].y)
    assert any(not np.array_equal(a[nid].x, c[nid].x) for nid in ids)


def test_class_balance_is_near_even():
    spec = make_topics(1, 8, seed=3, samples_per_node=10_000)[0]
    data = generate_topic_data(spec, [123], seed=8)
    ones = int(data[123].y.sum())
    assert abs(ones / 10_000 - 0.5) <= 0.02


def test_testset_is_disjoint_stream_from_training():
    spec = make_topics(1, 8, seed=3, samples_per_node=100)[0]
    train = generate_topic_data(spec, [42], seed=8)[42]
    test = generate_testset(spec, 100, seed=8)
    assert not np.array_equal(train.x[:10], test.x[:10])


def test_mixed_data_splits_points_evenly():
    topics = make_topics(3, 8, seed=7)
    data = mixed_node_data(topics, [1, 2], seed=1, points_per_node=100)
    assert all(len(ds) == 100 for ds in data.values())


# -- metrics ---------------------------------------------------------------------------

def test_f1_perfect_predictions():
    assert compute_f1([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0


def test_f1_all_negative_with_positives_present():
    assert compute_f1([0, 0, 0], [0, 1, 1]) == 0.0


def test_f1_formula_case():
    # TP=2, FP=1, FN=1 -> P = R = 2/3 -> F1 = 2/3
    preds = [1, 1, 1, 0, 0]
    labels = [1, 1, 0, 1, 0]
    assert compute_f1(preds, labels) == pytest.approx(2 / 3)


def test_metric_input_validation():
    with pytest.raises(ValueError):
        compute_f1([1, 0], [1])
    with pytest.raises(ValueError):
        compute_accuracy([], [])


# -- configuration -----------------------------------------------------------------------

FULL_INI = """
[scenario]
name = full
nodes = 24
fanout = 8
tree_count = 2
assignment = single
rounds = 3
seed = 11

[data]
topics = 2
points_per_node = 80
test_points = 100
separation = 5.0
cov_scale = 0.9

[model]
hidden_dim = 16
lam = 0.4
eta = 0.9
eta_local = 0.15
steps = 4
batch = 16
upload = delta
agg_mode = weighted
penalty = squared

[link]
lat_lo = 5
lat_hi = 20
bandwidth = 2048

[tree]
heartbeat_period = 500
failure_timeout = 1500
intercept = false

[fed]
mode = auto
gossip_k = 2
bytes_threshold = 500000
latency_threshold = 1500

[failures]
events =
    100 3 fail
    400 3 rejoin
"""


def test_config_parses_every_section(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL_INI)
    cfg = ScenarioConfig.from_ini(str(path))
    assert cfg.nodes == 24 and cfg.tree_count == 2 and cfg.seed == 11
    assert cfg.hidden_dim == 16 and cfg.eta == pytest.approx(0.9)
    assert cfg.intercept is False and cfg.mode == "auto"
    assert cfg.failures == [(100.0, 3, "fail"), (400.0, 3, "rejoin")]


def test_unknown_section_and_key_rejected(tmp_path):
    bad1 = tmp_path / "bad1.ini"
    bad1.write_text("[scenario]\nseed = 1\n\n[mystery]\nz = 1\n")
    with pytest.raises(ValueError, match="unknown config section"):
        ScenarioConfig.from_ini(str(bad1))
    bad2 = tmp_path / "bad2.ini"
    bad2.write_text("[scenario]\nseed = 1\nwarp = 9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        ScenarioConfig.from_ini(str(bad2))


def test_seed_is_mandatory(tmp_path):
    path = tmp_path / "noseed.ini"
    path.write_text("[scenario]\nnodes = 5\n")
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig.from_ini(str(path))


def test_config_validation_rules():
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, assignment=MIXED, tree_count=2).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, assignment=SINGLE_TOPIC_PER_TREE,
                       topics=3, tree_count=2).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, mode="telepathy").validate()
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, nodes=2, tree_count=3).validate()
    # model, link and tree settings fail here, not after the overlay build
    for bad, match in [(dict(penalty="l1"), "penalty"),
                       (dict(upload="x"), "upload"),
                       (dict(agg_mode="median"), "agg_mode"),
                       (dict(steps=0), "steps"),
                       (dict(batch=0), "batch"),
                       (dict(gossip_k=-1), "gossip_k"),
                       (dict(lam=-0.5), "lambda"),
                       (dict(eta_local=-0.1), "eta_local"),
                       (dict(lat_lo=60.0, lat_hi=50.0), "lat_lo"),
                       (dict(bandwidth=0.0), "bandwidth"),
                       (dict(lat_lo=-60.0), "lat_lo"),
                       (dict(lat_hi=float("nan")), "finite"),
                       (dict(bandwidth=float("nan")), "bandwidth"),
                       (dict(bandwidth=float("inf")), "bandwidth"),
                       (dict(fanout=0), "fanout"),
                       (dict(heartbeat_period=2000.0), "failure_timeout")]:
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(seed=1, **bad).validate()


def test_bad_model_config_fails_before_the_overlay_is_built(monkeypatch):
    def no_build(*_args, **_kwargs):
        raise AssertionError("the overlay was built for a bad config")

    monkeypatch.setattr(Overlay, "build", no_build)
    for bad, match in [(dict(penalty="l1"), "penalty"), (dict(lat_lo=-60.0), "lat_lo")]:
        with pytest.raises(ValueError, match=match):
            run_scenario(ScenarioConfig(seed=1, nodes=12, rounds=1, topics=1,
                                        tree_count=1, **bad))


def test_bad_failure_lines_rejected(tmp_path):
    path = tmp_path / "badf.ini"
    path.write_text("[scenario]\nseed = 1\n\n[failures]\nevents =\n    5 1\n")
    with pytest.raises(ValueError, match="failure event"):
        ScenarioConfig.from_ini(str(path))


# -- scenarios ---------------------------------------------------------------------------

def test_single_node_single_round_pipeline():
    cfg = ScenarioConfig(seed=2, nodes=1, rounds=1, topics=1, tree_count=1,
                         points_per_node=60, name="tiny")
    result = run_scenario(cfg)
    assert len(result.records) == 1
    rec = result.records[0]
    assert 0.0 <= rec.accuracy <= 1.0 and 0.0 <= rec.f1 <= 1.0

    # replicate the pipeline by hand: the record must equal the single
    # node's own ensemble-of-one accuracy
    ids, overlay, sim, trees, gid, root = build_world(
        1, fanout=cfg.fanout, seed=cfg.seed, group=f"{cfg.name}-tree-0")
    spec = make_topics(1, cfg.hidden_dim, cfg.seed, cfg.separation,
                       cfg.cov_scale, cfg.points_per_node)[0]
    data = generate_topic_data(spec, ids, cfg.seed)
    session = FederatedSession(
        trees, gid, data, cfg.hidden_dim,
        RoundConfig(eta=cfg.eta, steps=cfg.steps, batch=cfg.batch,
                    seed=cfg.seed),
        lam=cfg.lam, eta_local=cfg.eta_local)
    session.centralized_round()
    test = generate_testset(spec, cfg.test_points, cfg.seed)
    labels, _ = session.ensemble_infer(test.x)
    assert rec.accuracy == compute_accuracy(labels, test.y)


def test_single_topic_beats_mixed_on_each_topic():
    common = dict(seed=19, nodes=30, rounds=6, points_per_node=150, fanout=8)
    single = run_scenario(ScenarioConfig(assignment=SINGLE_TOPIC_PER_TREE,
                                         tree_count=3, name="s", **common))
    mixed = run_scenario(ScenarioConfig(assignment=MIXED, tree_count=1,
                                        name="m", **common))
    s_rows = {r["topic"]: r["accuracy"] for r in summary_rows(single.records)}
    m_rows = {r["topic"]: r["accuracy"] for r in summary_rows(mixed.records)}
    for topic in (0, 1, 2):
        assert s_rows[topic] >= m_rows[topic]


def test_metrics_are_sane_and_dissemination_positive():
    cfg = ScenarioConfig(seed=23, nodes=16, rounds=2, topics=2, tree_count=2,
                         points_per_node=60, fanout=4, name="sane")
    result = run_scenario(cfg)
    for rec in result.records:
        assert 0.0 <= rec.accuracy <= 1.0
        assert 0.0 <= rec.f1 <= 1.0
        assert rec.dissemination > 0.0
        assert rec.mode == "centralized"


def test_progress_is_logged_once_per_round_and_tree(caplog):
    cfg = ScenarioConfig(seed=23, nodes=16, rounds=3, topics=2, tree_count=2,
                         points_per_node=60, fanout=4, name="progress")
    caplog.set_level(logging.WARNING, logger="dhtfed.harness")
    run_scenario(cfg)
    assert caplog.records == []
    caplog.set_level(logging.INFO, logger="dhtfed.harness")
    run_scenario(cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "dhtfed.harness"]
    assert [line.split(" mode=")[0] for line in lines] == [
        f"round {rnd:3d} tree {k}" for rnd in range(3) for k in range(2)]
    assert all(r.levelno == logging.INFO for r in caplog.records)


def test_scenario_rerun_is_bit_identical():
    cfg = ScenarioConfig(seed=31, nodes=20, rounds=3, topics=2, tree_count=2,
                         points_per_node=80, fanout=4, name="det")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.records_blob() == b.records_blob()
    assert a.final_weights == b.final_weights


def test_decentralized_scenario_runs_and_is_deterministic():
    cfg = ScenarioConfig(seed=37, nodes=18, rounds=3, topics=1, tree_count=1,
                         points_per_node=60, fanout=6, mode="decentralized",
                         gossip_k=2, name="dec")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.records_blob() == b.records_blob()
    assert all(r.mode == "decentralized" for r in a.records)


def test_failure_schedule_is_applied():
    cfg = ScenarioConfig(seed=41, nodes=20, rounds=4, topics=1, tree_count=1,
                         points_per_node=50, fanout=4, name="churny",
                         failures=[(0.0, 5, "fail")])
    result = run_scenario(cfg)
    assert len(result.records) == cfg.rounds
    stats = result.tree_stats["churny-tree-0"]
    assert stats.members == 19  # one node down


def test_fail_then_rejoin_restores_membership():
    cfg = ScenarioConfig(seed=47, nodes=20, rounds=6, topics=1, tree_count=1,
                         points_per_node=50, fanout=4, name="bounce",
                         failures=[(0.0, 5, "fail"), (100.0, 5, "rejoin")])
    result = run_scenario(cfg)
    assert len(result.records) == cfg.rounds
    stats = result.tree_stats["bounce-tree-0"]
    assert stats.members == 20  # back in the tree
    for rec in result.records:
        assert 0.0 <= rec.accuracy <= 1.0


def test_tree_stats_export_rejoins_and_the_dead_parent_share(monkeypatch):
    managers, dead_parent = [], {}
    init, handle = TreeManager.__init__, TreeManager.handle_parent_failure

    def init_logged(self, *args, **kwargs):
        init(self, *args, **kwargs)
        managers.append(self)

    def handle_logged(self, gid, member):
        parent = self.groups[gid].members[member].parent
        if parent is not None and not self.overlay.is_alive(parent):
            dead_parent[gid] = dead_parent.get(gid, 0) + 1
        handle(self, gid, member)

    monkeypatch.setattr(TreeManager, "__init__", init_logged)
    monkeypatch.setattr(TreeManager, "handle_parent_failure", handle_logged)
    cfg = ScenarioConfig(seed=41, nodes=30, rounds=3, topics=2, tree_count=2,
                         points_per_node=20, fanout=4, name="storm",
                         failures=[(0.0, 5, "fail")])
    result = run_scenario(cfg)
    (trees,) = managers
    groups = {g.name: g for g in trees.groups.values()}
    assert set(result.tree_stats) == set(groups)
    for name, stats in result.tree_stats.items():
        assert stats.rejoins == groups[name].rejoins
        assert stats.dead_parent_rejoins == dead_parent.get(groups[name].gid, 0)
        assert stats.dead_parent_rejoins <= stats.rejoins
    # The rejoin storm: most parent-failure rejoins had a live parent.
    stats = result.tree_stats["storm-tree-1"]
    assert 0 < stats.dead_parent_rejoins
    assert 2 * stats.dead_parent_rejoins < stats.rejoins


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_fail_and_rejoin_in_one_batch_join_on_repaired_leaf_sets(mode, monkeypatch):
    # The rejoin is due in the batch that fails the same node: the harness
    # repairs before the rejoin's tree removal routes orphans anew, and so
    # before its overlay join.
    calls = []
    for attr in ("fail", "repair", "join", "route"):
        original = getattr(Overlay, attr)

        def logged(self, *args, _attr=attr, _original=original, **kwargs):
            result = _original(self, *args, **kwargs)
            calls.append(_attr)  # on return, so nested calls come first
            return result

        monkeypatch.setattr(Overlay, attr, logged)
    cfg = ScenarioConfig(seed=53, nodes=40, rounds=3, topics=1, tree_count=1,
                         points_per_node=20, fanout=4, name="same-batch", mode=mode,
                         failures=[(0.0, 7, "fail"), (0.0, 7, "rejoin")])
    result = run_scenario(cfg)
    # No route runs on leaf sets that may still list the failed node.
    unrepaired = False
    for call in calls:
        assert not (unrepaired and call == "route")
        unrepaired = call == "fail" or (unrepaired and call != "repair")
    calls = [call for call in calls if call != "route"]
    assert calls == ["fail", "repair", "join", "repair"]
    assert result.tree_stats["same-batch-tree-0"].members == 40
    assert all(m.root_weight == m.contributors for m in result.round_metrics)
    assert run_scenario(cfg).records_blob() == result.records_blob()


def test_record_files_roundtrip(tmp_path):
    cfg = ScenarioConfig(seed=43, nodes=12, rounds=2, topics=1, tree_count=1,
                         points_per_node=50, fanout=4, name="io")
    result = run_scenario(cfg)
    path = tmp_path / "io.jsonl"
    write_records(result.records, str(path))
    back = read_records(str(path))
    assert back == result.records
    table = format_table(summary_rows(back))
    assert "accuracy" in table and "io" in table


# -- dissemination ---------------------------------------------------------------------------

def test_star_completion_matches_closed_form():
    rows = measure_dissemination(
        payload_bytes=[4096], node_counts=[12], tree_counts=[1], seed=3,
        fanout=11, link=LinkModel(8.0, 8.0, 512.0), intercept=False)
    row = rows[0]
    assert row.depth == 1
    assert row.max_ms == pytest.approx(8.0 + 4096 / 512.0)


def test_completion_scales_linearly_in_payload():
    sizes = [1 << 16, 1 << 17, 1 << 18, 1 << 19]
    rows = measure_dissemination(sizes, [64], [1], seed=7, fanout=8)
    times = [r.max_ms for r in rows]
    fit = np.polyfit(sizes, times, 1)
    pred = np.polyval(fit, sizes)
    ss_res = float(np.sum((np.array(times) - pred) ** 2))
    ss_tot = float(np.sum((np.array(times) - np.mean(times)) ** 2))
    assert 1 - ss_res / ss_tot >= 0.99


def test_multiple_disjoint_trees_change_little():
    single = measure_dissemination([1 << 18], [64], [1], seed=11, fanout=8)
    multi = measure_dissemination([1 << 18], [64], [4], seed=11, fanout=8)
    assert isinstance(single[0], DisseminationRow)
    assert len(multi[0].per_tree_ms) == 4


def test_records_json_is_stable():
    rec = MetricsRecord("s", 1, 0, 0.5, 0.25, 12.5, 1024, "centralized")
    assert rec.to_json() == MetricsRecord(**dict(
        scenario="s", round=1, topic=0, accuracy=0.5, f1=0.25,
        dissemination=12.5, max_ingress_bytes=1024, mode="centralized")).to_json()


# -- pinned digests ----------------------------------------------------------------------

def scenario_digest(result) -> str:
    """sha256 over records_blob(), then the final weights in sorted name order."""
    h = hashlib.sha256(result.records_blob())
    for name in sorted(result.final_weights):
        h.update(result.final_weights[name])
    return h.hexdigest()


# Measured on Python 3.11.7 with numpy 2.4.6. A change that moves one of these
# digests changes the program's outputs and must say why. The second value
# is the sha256 of the scenario's `write_round_log` file, which also covers
# the training loss and the per-node byte counts.
PINNED = {
    "demo": (None,
             "06b6d790de157143238982110dc319e9f94af6a18a8e1c6ae422148ed2c74651",
             "c6a25bf0867154e210649eb71116a33dcf6af9c86e0e03830bc859e04b20bc44"),
    "decentralized": (
        dict(seed=3, nodes=60, rounds=4, mode="decentralized", topics=1,
             tree_count=1, hidden_dim=8, steps=2, batch=8, points_per_node=32),
        "9394a0f1469a839aa33b79463458d16877e269bfdc369273589796db74356e55",
        "80ca25eccf50a361edecb5d7aba5356a1a4083fb736f2ac8c72563d440e4bdbf"),
    "auto-weights-norm": (
        dict(seed=5, nodes=80, rounds=3, mode="auto", upload="weights",
             agg_mode="unweighted", penalty="norm"),
        "e577cb3f18613890505ed3870e5dcea4291cd22b40a082b1d4aee06ba9b89199",
        "6f9f0a8b40ab3864e5ccd8cca01bc08f1742abbc3066ed7ef1857e630b13999f"),
    "mixed-churn": (
        dict(seed=9, nodes=60, rounds=3, assignment="mixed", tree_count=1,
             failures=[(0.0, 4, "fail"), (0.0, 7, "fail"), (8000.0, 4, "rejoin")]),
        "fc500695f91f458346e90413ad2251eee37125fcf53342fc054c798f726cbfd1",
        "ccab1d67581227dcd37c646f96fdcaa5e61077bd724561b74aa2c51fe2819180"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_scenario_digest(name, monkeypatch, tmp_path):
    kwargs, want, want_log = PINNED[name]
    cfg = (ScenarioConfig.from_ini(str(DEMO_INI)) if kwargs is None
           else ScenarioConfig(**kwargs))
    calls = {"fail": 0, "rejoin": 0}
    for action in calls:
        original = getattr(Overlay, action)

        def counted(self, nid, _action=action, _original=original):
            calls[_action] += 1
            return _original(self, nid)

        monkeypatch.setattr(Overlay, action, counted)
    result = run_scenario(cfg)
    fired = {a: sum(1 for e in cfg.failures if e[2] == a) for a in calls}
    assert calls == fired  # every scheduled fail and rejoin took effect
    assert scenario_digest(result) == want
    log = tmp_path / "rounds.jsonl"
    write_round_log(result.round_metrics, str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == want_log


@pytest.mark.parametrize("failures, match", [
    ([(0.0, 1, "explode")], "unknown failure action"),
    ([(3000.0, 5, "fail"), (0.0, 8, "fail")], "non-decreasing"),
    ([(-5.0, 1, "fail")], "negative"),
    ([(0.0, 15, "fail")], r"outside \[0, 12\)"),
    ([(0.0, -1, "fail")], r"outside \[0, 12\)"),
    ([(0.0, 3, "fail"), (10.0, 3, "fail")], "already failed"),
    ([(0.0, 3, "rejoin")], "not failed"),
    ([(0.0, 3, "fail"), (10.0, 3, "rejoin"), (20.0, 3, "rejoin")], "not failed"),
    ([(50000.0, 3, "fail")], r"never fired.*50000.*simulated time"),
])
def test_run_scenario_rejects_bad_failure_schedule(failures, match):
    cfg = ScenarioConfig(seed=1, nodes=12, rounds=2, topics=1, tree_count=1,
                         points_per_node=40, failures=failures)
    with pytest.raises(ValueError, match=match):
        run_scenario(cfg)
