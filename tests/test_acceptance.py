"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import random
import time

import numpy as np

from dhtfed.fedagg import UNWEIGHTED, WEIGHTED, FederatedSession, RoundConfig
from dhtfed.harness import (MIXED, SINGLE_TOPIC_PER_TREE, ScenarioConfig,
                            run_scenario, summary_rows, write_records)
from dhtfed.model import (LocalDataset, ModelParams, forward_batch, local_finetune,
                          pfl_grad, pfl_loss)
from dhtfed.overlay import Overlay, random_ids
from dhtfed.simnet import LinkModel, Simulator
from dhtfed.tree import TreeConfig, TreeManager

from conftest import (build_world, complete_graph, gaussian_data, inject_deltas,
                      live_children, round_aggregate)
from oracles import (central_difference, closest_id, flat_majority, flat_mean,
                     recursive_average)

MIB = 1 << 20


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_routing_correctness_and_hop_bound():
    start = time.time()
    ids = random_ids(1000, 42)
    overlay = Overlay.build(ids)
    rng = random.Random(7)
    lookups = 10_000
    misdelivered = 0
    max_hops = 0
    total_hops = 0
    for _ in range(lookups):
        src = ids[rng.randrange(len(ids))]
        key = rng.getrandbits(128)
        res = overlay.route(src, key)
        if res.destination != closest_id(ids, key):
            misdelivered += 1
        max_hops = max(max_hops, res.hop_count)
        total_hops += res.hop_count
    elapsed = time.time() - start
    mean_hops = total_hops / lookups
    ok = (misdelivered == 0 and max_hops <= 4 and mean_hops <= 3.0
          and elapsed < 30.0)
    criterion(1, ok,
              f"{lookups} lookups, misdelivered={misdelivered}, "
              f"max_hops={max_hops} (<=4), mean={mean_hops:.3f} (<=3), "
              f"{elapsed:.1f}s (<30s)")


def test_criterion_2_tree_churn_invariants_and_multicast():
    ids, overlay, sim, trees, gid, root = build_world(1000, fanout=16, seed=42)
    group = trees.groups[gid]
    interior = [m for m in sorted(group.members)
                if m != root and group.members[m].children]
    rng = random.Random(5)
    victims = rng.sample(interior, max(1, len(interior) // 10))

    seen = {}

    def check_fanout():
        seen["fanout_ok"] = all(len(group.members[nid].children) <= 16
                                for nid in trees.live_members(gid))

    def fail_victims():
        for v in victims:
            overlay.fail(v)
        overlay.repair()
        depth = trees.tree_stats(gid).depth
        seen["window"] = 3000.0 + depth * 1000.0  # failure_timeout + depth * heartbeat
        sim.schedule(seen["window"] / 2, check_fanout)  # mid-healing

    sim.schedule(1500.0, fail_victims)
    trees.heal(gid)
    window, transient_fanout_ok = seen["window"], seen["fanout_ok"]

    problems = trees.validate(gid)
    survivors = set(ids) - set(victims)
    fanout_ok = all(
        len(group.members[nid].children) <= 16
        for nid in trees.live_members(gid))

    dropped = sim.dropped
    result = trees.multicast(gid, 4096)
    sim.run()
    # One delivery per survivor from len(survivors) - 1 sends, none dropped.
    exactly_once = (set(result.deliveries) == survivors
                    and result.forwards == len(survivors) - 1
                    and sim.dropped == dropped)

    ok = (problems == [] and fanout_ok and transient_fanout_ok and exactly_once
          and set(trees.live_members(gid)) == survivors)
    criterion(2, ok,
              f"killed {len(victims)} interior nodes, window={window:.0f}ms, "
              f"valid_tree={problems == []}, fanout_ok={fanout_ok} "
              f"(transiently {transient_fanout_ok}), "
              f"multicast exactly-once to {len(result.deliveries)}/{len(survivors)} survivors")


def test_criterion_3_aggregation_matches_oracles(monkeypatch):
    rng = np.random.default_rng(12)
    h = 6
    worst_weighted = 0.0
    worst_unweighted = 0.0
    deltas = {}
    for shape in range(5):
        # Real trees: fanout caps 1-4, JOIN interception on and off. A cap
        # of 1 makes a chain with one leaf at depth n - 1.
        n = int(rng.integers(10, 40))
        ids, _ov, _sim, trees, gid, root = build_world(
            n, fanout=(1, 2, 3, 4, 2)[shape], seed=300 + shape,
            intercept=shape % 2 == 0)
        data = gaussian_data(ids, h, seed=shape, n_per_node=4)
        inject_deltas(monkeypatch, data, deltas)
        weighted, paper = (FederatedSession(trees, gid, data, h,
                                            RoundConfig(eta=1.0, agg_mode=mode, seed=1))
                           for mode in (WEIGHTED, UNWEIGHTED))
        leaves = weighted.contributing_leaves()
        children = live_children(trees, gid)
        for _ in range(100):
            deltas.clear()
            deltas.update({leaf: ModelParams(rng.normal(size=(2, h)),
                                             rng.normal(size=2))
                           for leaf in leaves})
            agg, _ = round_aggregate(weighted, weighted.centralized_round)
            flat = flat_mean([deltas[l].w for l in leaves])
            worst_weighted = max(worst_weighted, float(np.max(np.abs(agg.w - flat))))
            agg, _ = round_aggregate(paper, paper.centralized_round)
            oracle = recursive_average(children, root,
                                       {k: d.w for k, d in deltas.items()})
            worst_unweighted = max(worst_unweighted,
                                   float(np.max(np.abs(agg.w - oracle))))
    ok = worst_weighted <= 1e-9 and worst_unweighted <= 1e-12
    criterion(3, ok,
              f"5 real trees x 100 delta sets through centralized rounds: "
              f"weighted-vs-flat-mean {worst_weighted:.2e} (<=1e-9), "
              f"unweighted-vs-recursive {worst_unweighted:.2e} (<=1e-12)")


def test_criterion_4_root_update_identity():
    h = 8
    ids, overlay, sim, trees, gid, root = build_world(2, fanout=1, seed=5)
    leaf = next(nid for nid in ids if nid != root)
    data = gaussian_data([leaf], h, seed=1)
    session = FederatedSession(trees, gid, data, h,
                               RoundConfig(eta=1.0, lam=0.4, eta_local=0.1, steps=6,
                                           batch=8, seed=3))
    w0 = ModelParams(session.global_params.w.copy(), session.global_params.b.copy())
    [(delta, _)] = local_finetune([data[leaf]], w0, [ModelParams(w0.w.copy(), w0.b.copy())],
                                  0.4, 0.1, 6, 8, [(3, 0, leaf)])
    session.centralized_round()
    finetuned = w0 - delta
    ok = (np.array_equal(session.global_params.w, finetuned.w)
          and np.array_equal(session.global_params.b, finetuned.b))
    criterion(4, ok,
              "single leaf, eta=1, upload=delta: global weights equal the "
              f"leaf's fine-tuned weights exactly ({ok})")


def test_criterion_5_gradient_check_and_ce_reduction():
    rng = np.random.default_rng(6)
    h = 5
    worst = 0.0
    for _ in range(100):
        data = LocalDataset(rng.normal(size=(10, h)), rng.integers(0, 2, size=10))
        w = ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))
        w_per = ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))
        lam = float(rng.uniform(0.1, 2.0))
        g_cla, g_per = pfl_grad(data, w, w_per, lam)
        fd = central_difference(lambda: pfl_loss(data, w, w_per, lam),
                                [w.w, w.b, w_per.w, w_per.b], step=1e-6)
        analytic = np.concatenate([g_cla.w.ravel(), g_cla.b,
                                   g_per.w.ravel(), g_per.b])
        numeric = np.concatenate([fd[0].ravel(), fd[1], fd[2].ravel(), fd[3]])
        rel = (np.linalg.norm(analytic - numeric)
               / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12))
        worst = max(worst, rel)

    data = LocalDataset(rng.normal(size=(16, h)), rng.integers(0, 2, size=16))
    w = ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))
    w_per = ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))
    probs = forward_batch(data.x, w)
    ce = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    bitwise = pfl_loss(data, w, w_per, 0.0) == ce

    ok = worst <= 1e-5 and bitwise
    criterion(5, ok,
              f"100 random points: FD rel err {worst:.2e} (<=1e-5), "
              f"lambda=0 reduces to cross-entropy bitwise={bitwise}")


def test_criterion_6_ensemble_recount():
    h = 8
    ids, overlay, sim, trees, gid, root = build_world(130, fanout=16, seed=29,
                                                      intercept=False)
    leaves = trees.leaves(gid)[:100]
    data = gaussian_data(leaves, h, seed=13, n_per_node=6)
    session = FederatedSession(trees, gid, data, h, RoundConfig(seed=1))
    rng = np.random.default_rng(5)
    for nid in session.contributing_leaves():
        session.personal[nid] = ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))
    x = rng.normal(size=(1000, h))
    labels, tally = session.ensemble_infer(x)

    active = session.contributing_leaves()
    votes = np.stack([np.argmax(forward_batch(x, session.personal[n]), axis=1)
                      for n in active])
    masses = np.stack([forward_batch(x, session.personal[n])
                       for n in active])
    recount = flat_majority(votes, masses)
    matches = int(np.sum(labels == recount))
    ok = matches == 1000 and len(active) == 100
    criterion(6, ok,
              f"{len(active)} leaves, 1000 examples: root majority matches "
              f"flat recount on {matches}/1000")


def test_criterion_7_cross_protocol_consistency():
    h = 8

    def world():
        ids, overlay, sim, trees, gid, root = build_world(
            24, fanout=24, seed=31, intercept=False)
        data = gaussian_data([i for i in ids if i != root], h, seed=6)
        return FederatedSession(trees, gid, data, h,
                                RoundConfig(eta=1.0, lam=0.5, eta_local=0.1, steps=3,
                                            batch=8, gossip_k=0, seed=11))

    s_cent = world()
    s_cent.centralized_round()
    s_dec = world()
    s_dec.decentralized_round(complete_graph(s_dec.contributing_leaves()))
    diff = max(float(np.max(np.abs(s_cent.global_params.w - s_dec.global_params.w))),
               float(np.max(np.abs(s_cent.global_params.b - s_dec.global_params.b))))
    ok = diff <= 1e-9
    criterion(7, ok,
              f"decentralized K=0 complete graph vs centralized star: "
              f"max diff {diff:.2e} (<=1e-9)")


def test_criterion_8_single_vs_mixed_topic_sweep():
    start = time.time()
    sizes = [200, 650, 1100, 1550, 2000]
    seeds = [101, 202, 303, 404, 505]
    acc: dict[tuple, list] = {}
    for size in sizes:
        for seed in seeds:
            for assignment, tc in ((SINGLE_TOPIC_PER_TREE, 3), (MIXED, 1)):
                cfg = ScenarioConfig(
                    seed=seed, nodes=60, rounds=20, points_per_node=size,
                    assignment=assignment, tree_count=tc, topics=3,
                    name=f"acc8-{assignment}-{size}-{seed}")
                result = run_scenario(cfg)
                for row in summary_rows(result.records):
                    acc.setdefault((assignment, size, row["topic"]), []).append(
                        row["accuracy"])
    elapsed = time.time() - start

    ordered = True
    for size in sizes:
        for topic in range(3):
            single = float(np.mean(acc[(SINGLE_TOPIC_PER_TREE, size, topic)]))
            mixed = float(np.mean(acc[(MIXED, size, topic)]))
            if single < mixed:
                ordered = False
    floor = min(float(np.mean(acc[(SINGLE_TOPIC_PER_TREE, 2000, t)]))
                for t in range(3))
    ok = ordered and floor >= 0.90 and elapsed < 600.0
    criterion(8, ok,
              f"{len(sizes)} sizes x {len(seeds)} seeds x 2 assignments: "
              f"single>=mixed on every (topic, size)={ordered}, "
              f"single@2000 min={floor:.3f} (>=0.90), {elapsed:.0f}s (<600s)")


def test_criterion_9_dissemination_scaling():
    from dhtfed.harness import measure_dissemination

    # (a) payload linearity at fixed N
    sizes = [1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB]
    rows_a = measure_dissemination(sizes, [512], [1], seed=42)
    times = np.array([r.max_ms for r in rows_a])
    fit = np.polyfit(sizes, times, 1)
    pred = np.polyval(fit, sizes)
    ss_res = float(np.sum((times - pred) ** 2))
    ss_tot = float(np.sum((times - np.mean(times)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot

    # (b) node-count growth bounded by depth growth x 1.5, up to N=10k
    rows_b = measure_dissemination([4 * MIB], [125, 250, 500, 1000, 10000], [1],
                                   seed=42)
    base = rows_b[0]
    growth_ok = True
    for row in rows_b[1:]:
        completion_ratio = row.max_ms / base.max_ms
        depth_ratio = row.depth / base.depth
        if completion_ratio > depth_ratio * 1.5:
            growth_ok = False

    # (c) the same tree, alone vs alongside three disjoint siblings
    def per_tree_times(which):
        ids = random_ids(1000, 42)
        overlay = Overlay.build(ids)
        sim = Simulator(seed=42, link=LinkModel(), alive=overlay.is_alive)
        trees = TreeManager(overlay, sim, TreeConfig(fanout_cap=16))
        quarters = [sorted(ids)[k::4] for k in range(4)]
        results = {}
        for k in which:
            gid, _root = trees.create_group(f"quarter-{k}")
            for nid in quarters[k]:
                if nid not in trees.groups[gid].members:
                    trees.join_group(nid, gid)
            results[k] = trees.multicast(gid, 4 * MIB)
        sim.run()
        return {k: r.elapsed for k, r in results.items()}

    together = per_tree_times(range(4))
    alone = {k: per_tree_times([k])[k] for k in range(4)}
    tree_change = max(abs(together[k] - alone[k]) / alone[k] for k in range(4))

    ok = r_squared >= 0.99 and growth_ok and tree_change < 0.05
    criterion(9, ok,
              f"(a) R^2={r_squared:.4f} (>=0.99); (b) completion growth within "
              f"1.5x depth growth={growth_ok}; (c) 1->4 disjoint trees "
              f"per-tree change {tree_change * 100:.2f}% (<5%)")


def test_criterion_10_determinism(tmp_path):
    cfg = ScenarioConfig(seed=71, nodes=40, rounds=5, topics=3, tree_count=3,
                         points_per_node=150, fanout=8, name="det-check")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(a.records, str(pa))
    write_records(b.records, str(pb))
    files_equal = pa.read_bytes() == pb.read_bytes()
    weights_equal = a.final_weights == b.final_weights

    cfg_dec = ScenarioConfig(seed=72, nodes=24, rounds=3, topics=1, tree_count=1,
                             points_per_node=80, fanout=6, mode="decentralized",
                             gossip_k=2, name="det-check-dec")
    c = run_scenario(cfg_dec)
    d = run_scenario(cfg_dec)
    dec_equal = (c.records_blob() == d.records_blob()
                 and c.final_weights == d.final_weights)

    ok = files_equal and weights_equal and dec_equal
    criterion(10, ok,
              f"re-run metrics files identical={files_equal}, final weights "
              f"identical={weights_equal}, decentralized rerun identical={dec_equal}")
