import gc
import hashlib
import logging
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dhtfed import fedagg, harness
from dhtfed.fedagg import FederatedSession, ProtocolError, RoundConfig, write_round_log
from dhtfed.harness import (MIXED, SINGLE_TOPIC_PER_TREE, DisseminationRow,
                            MetricsRecord, Scenario, ScenarioConfig, TopicSpec,
                            compute_accuracy, compute_f1, format_table, generate_testset,
                            generate_topic_data, make_topics,
                            measure_dissemination, mixed_node_data,
                            read_records, run_scenario, summary_rows,
                            write_records)
from dhtfed.overlay import Overlay, random_ids
from dhtfed.tree import TreeManager

from conftest import build_world, platforms
from oracles import points_reference

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


def per_topic_reference(topics, shares, ids, seed):
    """Node data as a loop: one default_rng((seed, topic)) per topic, and the
    nodes in sorted id order, each drawing its share of every topic in turn."""
    rngs = [np.random.default_rng((seed, spec.topic_id)) for spec in topics]
    out = {}
    for nid in sorted(ids):
        parts = [points_reference(spec, share, rng)
                 for spec, share, rng in zip(topics, shares, rngs)]
        out[nid] = (np.concatenate([x for x, _ in parts]), np.concatenate([y for _, y in parts]))
    return out


@pytest.mark.parametrize("shuffled", [True, False])
def test_node_data_equals_per_node_samples(shuffled):
    # Each node's points are its slices of the per-topic streams, taken in
    # sorted id order whatever order the ids come in. Odd counts leave a
    # buffered half-word after the labels.
    topics = make_topics(3, 8, seed=7, samples_per_node=33)
    ids = random_ids(5, 3) + [0, 7]
    if shuffled:
        ids = [int(i) for i in np.random.default_rng(3).permutation(ids)]
    single = generate_topic_data(topics[1], ids, seed=2**33 + 1)
    mixed = mixed_node_data(topics, ids, seed=4, points_per_node=50)
    want_single = per_topic_reference([topics[1]], [33], ids, 2**33 + 1)
    want_mixed = per_topic_reference(topics, [17, 17, 16], ids, 4)
    for nid in ids:
        assert same_bits(single[nid], *want_single[nid])
        assert same_bits(mixed[nid], *want_mixed[nid])
    test_rng = np.random.default_rng((5, topics[2].topic_id, 1 << 130))
    assert same_bits(generate_testset(topics[2], 41, seed=5),
                     *points_reference(topics[2], 41, test_rng))


_mean_part = st.sampled_from([-0.0, 0.0, -1.5, 2.0, 1e-300])


@st.composite
def _topics(draw):
    """1 to 3 topics of one dimension, with -0.0 mean components and
    cov_scale 0 among the cases."""
    dim = draw(st.integers(2, 4))
    topics = []
    for t in range(draw(st.integers(1, 3))):
        mean0, mean1 = (np.array(draw(st.lists(_mean_part, min_size=dim, max_size=dim)))
                        for _ in range(2))
        assume(not np.array_equal(mean0, mean1))
        cov_scale = draw(st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1e3)))
        topics.append(TopicSpec(t, mean0, mean1, cov_scale, 0))
    return topics


def same_bits(data, x, y):
    return data.x.tobytes() == x.tobytes() and data.y.tobytes() == y.tobytes()


def _spec(topic_id, mean0, mean1, cov_scale):
    return TopicSpec(topic_id, np.array(mean0), np.array(mean1), cov_scale, 0)


@settings(deadline=None)  # examples from the active profile; CI runs "model-2000"
@given(topics=_topics(), points=st.integers(1, 25),
       ids=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=12, unique=True),
       part_rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
# Shares of 3, 2 and 2 points, split into parts of 2 rows; cov_scale 0
# beside -0.0 mean components.
@example(topics=[_spec(0, [-0.0, 0.0], [1e-300, -0.0], 0.0),
                 _spec(1, [-0.0, 2.0], [2.0, -0.0], 1.0),
                 _spec(2, [2.0, -1.5], [-0.0, -0.0], 0.0)],
         points=7, ids=[5, 1, 2**127, 9, 3], part_rows=2, seed=11)
# Shares of 1, 0 and 0 points, one row a part over seven nodes.
@example(topics=[_spec(0, [-0.0, 0.0], [2.0, 0.0], 0.0),
                 _spec(1, [0.0, 1e-300], [-1.5, 0.0], 5e-324),
                 _spec(2, [-0.0, -0.0], [0.0, 2.0], 3.0)],
         points=1, ids=list(range(7)), part_rows=1, seed=2**32 - 1)
# Shares of 1, 1 and 0 points, three nodes a part.
@example(topics=[_spec(0, [-0.0, 0.0], [2.0, 0.0], 0.0),
                 _spec(1, [0.0, 1e-300], [-1.5, 0.0], 1.0),
                 _spec(2, [-0.0, -0.0], [0.0, 2.0], 3.0)],
         points=2, ids=list(range(7)), part_rows=3, seed=5)
def test_node_data_does_not_depend_on_part_size(topics, points, ids, part_rows, seed):
    # Parts of a few rows put several nodes in a part, or split a share,
    # mixed shares included, across parts; with few points, mixed shares
    # have 1 point, an odd count, or none. The data must still be the
    # per-topic streams drawn node by node.
    dim = topics[0].mean0.size
    single = TopicSpec(topics[0].topic_id, topics[0].mean0, topics[0].mean1,
                       topics[0].cov_scale, points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "PART_BYTES", 8 * dim * part_rows)
        one = generate_topic_data(single, ids, seed)
        mixed = mixed_node_data(topics, ids, seed, points)
        test = generate_testset(topics[-1], points, seed)
    shares = [points // len(topics) + (t < points % len(topics)) for t in range(len(topics))]
    want_one = per_topic_reference([single], [points], ids, seed)
    want_mixed = per_topic_reference(topics, shares, ids, seed)
    for nid in ids:
        assert same_bits(one[nid], *want_one[nid])
        assert same_bits(mixed[nid], *want_mixed[nid])
    test_rng = np.random.default_rng((seed, topics[-1].topic_id, 1 << 130))
    assert same_bits(test, *points_reference(topics[-1], points, test_rng))


def test_overflowing_points_raise_from_every_generator():
    # cov_scale 1e308 is finite, so validate() lets it through, but scaled
    # draws overflow; only the second topic overflows, so the check must
    # reach every share of a block.
    mean0, mean1 = np.zeros(4), np.ones(4)
    topics = [TopicSpec(0, mean0, mean1, 1.0, 50), TopicSpec(1, mean0, mean1, 1e308, 50)]
    with pytest.raises(ValueError, match="features must be finite"):
        generate_topic_data(topics[1], [3, 5, 8], seed=1)
    with pytest.raises(ValueError, match="features must be finite"):
        mixed_node_data(topics, [3, 5, 8], seed=1, points_per_node=50)
    with pytest.raises(ValueError, match="features must be finite"):
        generate_testset(topics[1], 50, seed=1)
    with pytest.raises(ValueError, match="features must be finite"):
        run_scenario(ScenarioConfig(seed=1, nodes=12, rounds=1, topics=1, tree_count=1,
                                    cov_scale=1e308))


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
    # Leaves upload their deltas; there is no other update format to pick.
    bad3 = tmp_path / "bad3.ini"
    bad3.write_text("[scenario]\nseed = 1\n\n[model]\nupload = delta\n")
    with pytest.raises(ValueError, match=r"^unknown config key 'upload' in \[model\]$"):
        ScenarioConfig.from_ini(str(bad3))


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
    # model, link, tree and mode-switch settings fail here, not after the
    # overlay build
    for bad, match in [(dict(penalty="l1"), "penalty"),
                       (dict(agg_mode="median"), "agg_mode"),
                       (dict(steps=0), "steps"),
                       (dict(batch=0), "batch"),
                       (dict(gossip_k=-1), "gossip_k"),
                       (dict(lam=-0.5), "lambda"),
                       (dict(lam=float("nan")), "lambda"),
                       (dict(lam=float("inf")), "lambda"),
                       (dict(eta_local=-0.1), "eta_local"),
                       (dict(eta_local=float("nan")), "eta_local must be finite"),
                       (dict(eta_local=float("inf")), "eta_local must be finite"),
                       (dict(eta_local=-float("inf")), "eta_local must be finite"),
                       (dict(eta=float("nan")), "^eta must be finite"),
                       (dict(eta=float("inf")), "^eta must be finite"),
                       (dict(eta=-float("inf")), "^eta must be finite"),
                       (dict(lat_lo=60.0, lat_hi=50.0), "lat_lo"),
                       (dict(bandwidth=0.0), "bandwidth"),
                       (dict(lat_lo=-60.0), "lat_lo"),
                       (dict(lat_hi=float("nan")), "finite"),
                       (dict(bandwidth=float("nan")), "bandwidth"),
                       (dict(bandwidth=float("inf")), "bandwidth"),
                       (dict(fanout=0), "fanout"),
                       (dict(heartbeat_period=2000.0), "failure_timeout"),
                       (dict(heartbeat_period=0.0), "heartbeat_period"),
                       (dict(heartbeat_period=-1000.0), "heartbeat_period"),
                       (dict(heartbeat_period=float("nan")), "heartbeat_period"),
                       (dict(heartbeat_period=float("inf")), "heartbeat_period"),
                       (dict(failure_timeout=float("nan")), "failure_timeout"),
                       (dict(failure_timeout=float("inf")), "failure_timeout"),
                       (dict(separation=float("nan")), "separation"),
                       (dict(separation=float("inf")), "separation"),
                       (dict(separation=-float("inf")), "separation"),
                       (dict(separation=0.0), "separation"),
                       (dict(cov_scale=float("nan")), "cov_scale"),
                       (dict(cov_scale=float("inf")), "cov_scale"),
                       (dict(cov_scale=-1.0), "cov_scale"),
                       (dict(cov_scale=-float("inf")), "cov_scale"),
                       (dict(latency_threshold=float("nan")), "latency_threshold"),
                       (dict(latency_threshold=-1.0), "latency_threshold"),
                       (dict(bytes_threshold=-5), "bytes_threshold"),
                       # every field against its type, in code-built configs
                       (dict(nodes=12.5), "^nodes must be of type int"),
                       (dict(fanout=2.5), "^fanout must be of type int"),
                       (dict(rounds=1.5), "^rounds must be of type int"),
                       (dict(steps=2.5), "^steps must be of type int"),
                       (dict(tree_count=1.0), "^tree_count must be of type int"),
                       (dict(separation=True), "^separation must be of type float"),
                       (dict(lam="0.5"), "^lam must be of type float"),
                       (dict(intercept=1), "^intercept must be of type bool"),
                       (dict(name=5), "^name must be of type str"),
                       (dict(failures=[(0.0, True, "fail")]), "node index is not an int"),
                       (dict(failures=[(0.0, 1.5, "fail")]), "node index is not an int"),
                       (dict(failures=[("0", 1, "fail")]), "time '0' is not a number"),
                       # a malformed schedule
                       (dict(failures=None), "^failures must be a list"),
                       (dict(failures=(0.0, 1, "fail")), "^failures must be a list"),
                       (dict(failures=[(0.0, 1)]), r"failure event \(0\.0, 1\) is not a"),
                       (dict(failures=[(0.0, 1, "fail", 2)]), "is not a .* triple"),
                       (dict(failures=[7]), "failure event 7 is not a")]:
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(seed=1, **bad).validate()
    with pytest.raises(ValueError, match="^seed must be of type int, not bool"):
        ScenarioConfig(seed=True).validate()
    # an int passes as a float, in a field and as a failure time
    ScenarioConfig(seed=1, separation=4, failures=[(0, 1, "fail")]).validate()


def test_bad_model_config_fails_before_the_overlay_is_built(monkeypatch):
    def no_build(*_args, **_kwargs):
        raise AssertionError("the overlay was built for a bad config")

    monkeypatch.setattr(Overlay, "build", no_build)
    for bad, match in [(dict(penalty="l1"), "penalty"), (dict(lat_lo=-60.0), "lat_lo"),
                       (dict(eta_local=float("inf")), "eta_local"),
                       (dict(separation=float("nan")), "separation"),
                       (dict(cov_scale=float("inf")), "cov_scale"),
                       (dict(cov_scale=-1.0), "cov_scale"),
                       (dict(latency_threshold=float("nan")), "latency_threshold")]:
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
        RoundConfig(eta=cfg.eta, lam=cfg.lam, eta_local=cfg.eta_local, steps=cfg.steps,
                    batch=cfg.batch, seed=cfg.seed))
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
    result = run_scenario(cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "dhtfed.harness"]
    assert [line.split(" mode=")[0] for line in lines] == [
        f"round {rnd:3d} tree {k}" for rnd in range(3) for k in range(2)]
    assert all(r.levelno == logging.INFO for r in caplog.records)
    # Each line shows its own tree's accuracy, not the mean over trees 0..k.
    assert [line.split("acc=")[1].split()[0] for line in lines] == [
        f"{r.accuracy:.4f}" for r in result.records]


def test_a_scenario_steps_round_by_round():
    cfg = ScenarioConfig(seed=31, nodes=20, rounds=3, topics=2, tree_count=2,
                         points_per_node=80, fanout=4, name="stepped")
    scenario = Scenario(cfg)
    steps = [scenario.step()]
    with pytest.raises(ValueError, match="1 of 3 rounds have run"):
        scenario.result()
    steps += [scenario.step() for _ in range(cfg.rounds - 1)]
    with pytest.raises(ValueError, match="all 3 rounds have run"):
        scenario.step()
    result = scenario.result()
    assert [{r.round for r in records} for records in steps] == [{0}, {1}, {2}]
    assert [r for records in steps for r in records] == result.records
    assert scenario_digest(result) == scenario_digest(run_scenario(cfg))


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


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_a_scenario_is_freed_when_run_scenario_returns(mode, monkeypatch):
    """No reference cycle keeps a run alive: with the cycle collector off,
    every session, the stacked data it fine-tunes on and its stacked
    personal heads are freed by reference counting alone once
    `run_scenario` has returned (rounds and votes included)."""
    refs = []

    def session(*args, **kwargs):
        s = FederatedSession(*args, **kwargs)
        refs.extend(weakref.ref(obj) for obj in (s, s.data, s.data.x, s.data.y, s.personal,
                                                  s.personal.w, s.personal.b))
        return s

    monkeypatch.setattr(harness, "FederatedSession", session)
    cfg = ScenarioConfig(seed=53, nodes=24, rounds=2, topics=2, tree_count=2,
                         points_per_node=20, test_points=40, fanout=3, mode=mode,
                         gossip_k=2, name="freed")
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(cfg)
        alive = sum(r() is not None for r in refs)
    finally:
        gc.enable()
    assert len(result.records) == cfg.rounds * cfg.tree_count  # rounds and votes ran
    assert len(refs) == 7 * cfg.tree_count
    assert alive == 0


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
    dead_parent = {}
    handle = TreeManager.handle_parent_failure

    def handle_logged(self, gid, member):
        parent = self.groups[gid].members[member].parent
        if parent is not None and not self.overlay.is_alive(parent):
            dead_parent[gid] = dead_parent.get(gid, 0) + 1
        handle(self, gid, member)

    monkeypatch.setattr(TreeManager, "handle_parent_failure", handle_logged)
    cfg = ScenarioConfig(seed=41, nodes=30, rounds=3, topics=2, tree_count=2,
                         points_per_node=20, fanout=4, name="storm",
                         failures=[(0.0, 5, "fail")])
    scenario = Scenario(cfg)
    for _ in range(cfg.rounds):
        scenario.step()
    result = scenario.result()
    groups = {g.name: g for g in scenario.trees.groups.values()}
    assert set(result.tree_stats) == set(groups)
    for name, stats in result.tree_stats.items():
        assert stats.rejoins == groups[name].rejoins
        assert stats.dead_parent_rejoins == dead_parent.get(groups[name].gid, 0)
        assert stats.dead_parent_rejoins <= stats.rejoins
    # No rejoin storm: every parent-failure rejoin had a dead parent.
    stats = result.tree_stats["storm-tree-1"]
    assert 0 < stats.dead_parent_rejoins == stats.rejoins


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_fail_and_rejoin_in_one_batch_join_on_repaired_leaf_sets(mode, monkeypatch):
    # The rejoin is due in the batch that fails the same node: the overlay
    # repairs before the rejoin's tree removal routes orphans anew, and so
    # before its overlay join, since `route` repairs first after a fail.
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
    assert calls == ["fail", "repair", "join"]
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


def test_the_social_graph_follows_the_leaves_through_churn():
    # Nine consecutive nodes fail after the first decentralized round, so
    # the leaves change; a graph built once from the first round's leaves
    # raised "social graph does not cover leaf" for 24 of these 26 starts.
    for start in range(0, 52, 2):
        cfg = ScenarioConfig.from_ini(str(DEMO_INI))
        cfg.mode, cfg.rounds = "decentralized", 6
        cfg.failures = [(1.0, i, "fail") for i in range(start, start + 9)]
        result = run_scenario(cfg)
        assert all(m.root_weight == m.contributors for m in result.round_metrics)


def light_churn_config(seed, nodes, trees, fanout, rounds, mode, failures=()):
    """A small light-model scenario, one topic per tree."""
    return ScenarioConfig(seed=seed, nodes=nodes, rounds=rounds, topics=trees,
                          tree_count=trees, fanout=fanout, hidden_dim=8, steps=1,
                          batch=8, points_per_node=16, test_points=40, gossip_k=2,
                          name="churn-prop", mode=mode, failures=list(failures))


@pytest.mark.parametrize("tail", [[(0.0, 0, "rejoin")], [(0.0, 0, "rejoin"), (0.0, 0, "fail")]])
def test_a_root_removed_with_no_node_up_ends_in_the_protocol_error(tail):
    # Node 0 is tree 1's root but holds tree 0's data. Every node fails,
    # and its rejoin removes it from tree 1 with no live orphan to take the
    # root over. Healing tree 1 must not walk from the removed root (a
    # KeyError), nor route from a live node when none is up (an
    # IndexError once node 0 failed again): the round's own error stands.
    cfg = light_churn_config(3, 4, 2, 16, 1, "centralized",
                             [(0.0, i, "fail") for i in range(4)] + tail)
    with pytest.raises(ProtocolError, match="no live contributing leaves"):
        run_scenario(cfg)


@st.composite
def churn_scenarios(draw):
    """A small light-model scenario with a random fail/rejoin schedule.

    The schedule is a list of non-empty batches. Batch k is due at round
    k (or k + 1), at a time each earlier batch's healing windows are sure
    to pass, since each of them lasts at least `failure_timeout + 2 *
    heartbeat_period`; so every event fires. Within a batch an event fails
    a live node, up to a fifth of them at once, and rejoins a failed one.
    """
    nodes = draw(st.integers(20, 40))
    trees = draw(st.integers(1, 3))
    rounds = draw(st.integers(2, 4))
    first = draw(st.integers(0, 1))
    batches = draw(st.lists(st.lists(st.integers(0, nodes - 1), min_size=1, max_size=4),
                            max_size=rounds - first))
    cfg = light_churn_config(
        draw(st.integers(0, 1 << 16)), nodes, trees, draw(st.integers(1, 4)), rounds,
        draw(st.sampled_from(["centralized", "decentralized", "auto"])))
    spacing = cfg.failure_timeout + 2 * cfg.heartbeat_period
    failed: set[int] = set()
    k = first
    for batch in batches:
        t = 0.0 if k == 0 else 1.0 + (k - 1) * spacing
        before = len(cfg.failures)
        for idx in batch:
            if idx in failed:
                failed.remove(idx)
                cfg.failures.append((t, idx, "rejoin"))
            elif len(failed) < nodes // 5:
                failed.add(idx)
                cfg.failures.append((t, idx, "fail"))
        k += len(cfg.failures) > before  # a batch left empty heals nothing
    return cfg


@settings(deadline=None)
@given(cfg=churn_scenarios())
# Node 2 was tree 1's root but holds tree 0's data. Joined back to tree 1,
# it became the only leaf of its chain: no leaf contributed.
@example(cfg=light_churn_config(2, 20, 2, 1, 2, "centralized",
                                [(0.0, 2, "fail"), (0.0, 2, "rejoin")]))
# Node 7 was tree 0's root without its data, and its only child failed:
# removing it left tree 0 with no root to walk from.
@example(cfg=light_churn_config(0, 20, 2, 1, 2, "centralized",
                                [(0.0, 0, "fail"), (0.0, 7, "fail"), (0.0, 7, "rejoin")]))
def test_trees_stay_valid_and_rejoin_only_orphans_under_random_churn(cfg):
    scenario = Scenario(cfg)
    trees = scenario.trees
    for _ in range(cfg.rounds):  # the last pass checks the trees the run ends with
        scenario.step()
        for gid in trees.groups:
            assert trees.validate(gid) == []
    result = scenario.result()
    assert all(m.root_weight == m.contributors for m in result.round_metrics)
    # Every rejoin had a dead parent: no member times out on a live one.
    for stats in result.tree_stats.values():
        assert stats.rejoins == stats.dead_parent_rejoins
    again = run_scenario(cfg)
    assert scenario_digest(again) == scenario_digest(result)
    assert again.tree_stats == result.tree_stats


# -- dissemination ---------------------------------------------------------------------------

def test_star_completion_matches_closed_form():
    # The multicast that measure_dissemination times, on a star with one
    # fixed latency: every member is one hop from the root.
    _ids, _overlay, sim, trees, gid, _root = build_world(
        12, fanout=11, seed=3, intercept=False, lat=(8.0, 8.0), bandwidth=512.0)
    result = trees.multicast(gid, 4096)
    sim.run()
    assert trees.tree_stats(gid).depth == 1
    assert result.elapsed == pytest.approx(8.0 + 4096 / 512.0)


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


# Measured on Python 3.11.7 with numpy 2.4.6, on the numeric platform
# "OpenBLAS SkylakeX; numpy X86_V2 + X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# (`conftest.PINNED_PLATFORM`): OpenBLAS's SkylakeX kernels and numpy's
# AVX-512 loops. Other kernels give other last bits, so a pin that fails
# names both platforms. A change that moves one of these digests changes
# the program's outputs and must say why. The second value is the sha256 of
# the scenario's `write_round_log` file, which also covers the training loss
# and the per-node byte counts.
PINNED = {
    "demo": (None,
             "2b7c600e956371e5c839d84819b258d8c36a4dd17ef42c5c979aefd0f56220db",
             "4b4beb44488b44cb27e6ea997b18dda0cd4657592d540badc170842aa3820037"),
    "decentralized": (
        dict(seed=3, nodes=60, rounds=4, mode="decentralized", topics=1,
             tree_count=1, hidden_dim=8, steps=2, batch=8, points_per_node=32),
        "1cd336618d6a63acf071f5b13fe5e0c297acd9b6e89ffdd55b6027f63565feed",
        "a3273b39fa98f30302f44e3f89216a1ffe78c4c0392e0475169c435e6ee106c6"),
    "auto-unweighted-norm": (
        dict(seed=5, nodes=80, rounds=3, mode="auto", agg_mode="unweighted",
             penalty="norm"),
        "33d88581b08df1dc3406262b6260885b0539d7baad3d34a59504a0596392ea5e",
        "c2db20a3a372119bae0dde7aeb2b2dfac02b36872367ed05b0244a4d89ad9a69"),
    "mixed-churn": (
        dict(seed=9, nodes=60, rounds=3, assignment="mixed", tree_count=1,
             failures=[(0.0, 4, "fail"), (0.0, 7, "fail"), (8000.0, 4, "rejoin")]),
        "2d402965eae2c1c3e4bad595c44ea87095f321e7d6671f965b7433db8b277502",
        "6d7ac96c1c8939a72040de6ddcac5ba920ddaff60c6bdae92be4ed233d0f43fd"),
    # The perfbench churn shape at N=300: 3 single-topic trees, 2% of the
    # nodes fail at t=0 and half of them rejoin at t=8000, light model. It
    # runs repair after a batch of failures, parent-failure rejoins, rejoins
    # and tree recounts over several groups at once.
    "perfbench-churn": (
        dict(seed=23, nodes=300, rounds=2, mode="centralized", topics=3,
             tree_count=3, assignment="single", hidden_dim=8, steps=1,
             batch=8, points_per_node=32,
             failures=[(0.0, i, "fail") for i in (182, 176, 0, 251, 177, 270)]
             + [(8000.0, i, "rejoin") for i in (182, 176, 0)]),
        "0911835bd6cf2533bfead7009803f06946eb34aa4351601d5300bc09d44d1513",
        "1dc90b9382f3fa6c831a40facd189ec243b29eafe87fb84923a9dd49984fecd9"),
    # Failures and a rejoin between rounds, on a fanout-2 tree: the
    # parent-failure JOINs route over an overlay that has failed nodes, so
    # `next_hop`'s lazy routing-table patches run along each JOIN's path.
    "join-walk": (
        dict(seed=363, nodes=308, rounds=3, fanout=2,
             failures=[(500.0, 20, "fail"), (500.0, 54, "fail"), (4000.0, 20, "rejoin")]),
        "de665161c63b849ffa8d0233254144684451f26087743ca5c6345c0019d5530e",
        "fe48243b8c0795149dee5cc47bc6f92631b4efa9728a2f71c3a6c952b836c0ee"),
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
    # run_scenario, with each tree's round loss taken after each round, as
    # `dhtfed run` takes it for its round log.
    scenario = Scenario(cfg)
    losses = []
    for _ in range(cfg.rounds):
        scenario.step()
        losses += [session.round_loss() for session in scenario.sessions]
    result = scenario.result()
    fired = {a: sum(1 for e in cfg.failures if e[2] == a) for a in calls}
    assert calls == fired  # every scheduled fail and rejoin took effect
    assert scenario_digest(result) == want, platforms()
    log = tmp_path / "rounds.jsonl"
    write_round_log(result.round_metrics, losses, str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == want_log, platforms()


def test_the_demo_pin_covers_votes_broken_by_probability_mass(monkeypatch):
    # Only tied points get the mass tally, so the demo digest guards that
    # path only while some of the demo's votes tie.
    tied_points = []
    infer = FederatedSession.ensemble_infer

    def counted(self, x):
        labels, tally = infer(self, x)
        tied_points.append(int(np.count_nonzero(tally[:, 0] == tally[:, 1])))
        return labels, tally

    monkeypatch.setattr(FederatedSession, "ensemble_infer", counted)
    result = run_scenario(ScenarioConfig.from_ini(str(DEMO_INI)))
    assert scenario_digest(result) == PINNED["demo"][1], platforms()
    assert any(tied_points)


@pytest.mark.parametrize("mode", ["centralized", "decentralized"])
def test_no_round_computes_the_round_loss(mode, monkeypatch):
    # Only `dhtfed run`'s round log reads the loss, through round_loss();
    # a run that writes no round log must never score it.
    def refuse(*_args):
        raise AssertionError("the round loss was computed in a round")

    monkeypatch.setattr(fedagg, "pfl_loss", refuse)
    result = run_scenario(ScenarioConfig(seed=4, nodes=24, rounds=2, mode=mode,
                                         topics=2, tree_count=2, hidden_dim=8,
                                         steps=2, batch=8, points_per_node=32))
    assert len(result.round_metrics) == 2 * 2


def test_two_failures_at_t0_do_not_crash_the_reroot():
    # A heartbeat tick finds an orphan, `handle_parent_failure` re-attaches
    # it, and `_attach` reroots. A parent chain followed through a dead
    # member that has not re-joined made `list.remove` raise "x not in list"
    # in `TreeManager._reroot`; `_in_subtree` now stops at a dead member.
    result = run_scenario(ScenarioConfig(seed=333, nodes=167, rounds=1, fanout=3,
                                         failures=[(0.0, 45, "fail"), (0.0, 17, "fail")]))
    assert sum(s.rejoins for s in result.tree_stats.values()) > 0
    assert all(s.rejoins == s.dead_parent_rejoins for s in result.tree_stats.values())
    assert all(m.root_weight == m.contributors for m in result.round_metrics)


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
    ([(float("nan"), 3, "fail")], "not finite"),
    ([(0.0, 2, "fail"), (float("inf"), 3, "fail")], "not finite"),
    ([(-float("inf"), 3, "fail")], "not finite"),
])
def test_run_scenario_rejects_bad_failure_schedule(failures, match):
    cfg = ScenarioConfig(seed=1, nodes=12, rounds=2, topics=1, tree_count=1,
                         points_per_node=40, failures=failures)
    with pytest.raises(ValueError, match=match):
        run_scenario(cfg)
