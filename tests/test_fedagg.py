import numpy as np
import pytest

from dhtfed.fedagg import (CENTRALIZED, DECENTRALIZED, UNWEIGHTED, WEIGHTED,
                           AggregateMessage, FederatedSession, ModeSelector,
                           ProtocolError, RoundConfig, SocialGraph,
                           audit_decentralized_privacy, branch_aggregate,
                           root_update)
from dhtfed import fedagg
from dhtfed.model import (ModelParams, PersonalState, forward_batch, forward_heads,
                          local_finetune)
from dhtfed.simnet import AGG_UP, PREDICT

from conftest import (build_world, gaussian_data, inject_deltas, live_children,
                      round_aggregate)
from oracles import (branch_aggregate_reference, flat_majority, flat_mean,
                     reachable_within, recursive_average, tree_tally)

H = 4


def const_params(value, h=1):
    return ModelParams(np.full((2, h), float(value)), np.full(2, float(value)))


def msg(value, weight=1, rnd=0, group=1, h=1):
    return AggregateMessage(group, rnd, const_params(value, h), weight)


# -- branch aggregation ------------------------------------------------------------

def test_single_child_is_identity_in_both_modes():
    m = msg(3.5)
    for mode in (UNWEIGHTED, WEIGHTED):
        out = branch_aggregate([m], mode)
        assert np.array_equal(out.payload.w, m.payload.w)
        assert out.weight == 1


def test_balanced_pair_averages_to_three():
    for mode in (UNWEIGHTED, WEIGHTED):
        out = branch_aggregate([msg(2), msg(4)], mode)
        assert np.array_equal(out.payload.w, np.full((2, 1), 3.0))
        assert out.weight == 2


def test_round_and_group_mismatch_rejected():
    with pytest.raises(ProtocolError):
        branch_aggregate([msg(1, rnd=0), msg(2, rnd=1)])
    with pytest.raises(ProtocolError):
        branch_aggregate([msg(1, group=1), msg(2, group=2)])
    with pytest.raises(ValueError):
        branch_aggregate([])


@pytest.mark.parametrize("mode", [UNWEIGHTED, WEIGHTED])
def test_branch_aggregate_equals_params_arithmetic_bit_for_bit(mode):
    rng = np.random.default_rng(17)
    for count in range(1, 21):
        weights = [int(wt) for wt in rng.integers(1, 50, size=count)]
        payloads = [ModelParams(rng.normal(size=(2, H)) * 10.0 ** rng.integers(-3, 4),
                                rng.normal(size=2)) for _ in range(count)]
        out = branch_aggregate([AggregateMessage(1, 0, p, wt)
                                for p, wt in zip(payloads, weights)], mode)
        want = branch_aggregate_reference(payloads, weights, mode)
        assert np.array_equal(out.payload.w, want.w)
        assert np.array_equal(out.payload.b, want.b)
        assert out.weight == sum(weights)


def test_branch_aggregate_rejects_a_payload_made_nonfinite_in_place():
    for bad in (np.inf, np.nan):
        msgs = [msg(1.0, h=H), msg(2.0, h=H), msg(3.0, h=H)]
        msgs[1].payload.w[0, 2] = bad
        for mode in (UNWEIGHTED, WEIGHTED):
            with pytest.raises(ValueError, match="finite"):
                branch_aggregate(msgs, mode)


def test_weighted_mode_is_tree_shape_independent(monkeypatch):
    # The same 5 leaf deltas through a star and through a fanout-2 tree.
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    ids, _ov, _sim, capped, gid, root = build_world(12, fanout=2, seed=61)
    star = build_world(12, fanout=12, seed=61, intercept=False)[3]
    leaves = capped.leaves(gid)[:len(values)]
    assert len(leaves) == len(values) and root not in leaves
    data = gaussian_data(leaves, H, seed=16, n_per_node=4)
    deltas = {nid: const_params(v, H) for nid, v in zip(leaves, values)}
    inject_deltas(monkeypatch, data, deltas)

    def aggregate(trees, mode):
        session = FederatedSession(trees, gid, data, H,
                                   RoundConfig(eta=1.0, agg_mode=mode, seed=1))
        agg, metrics = round_aggregate(session, session.centralized_round)
        assert metrics.root_weight == len(values)
        return agg.w

    w_star, w_cap = aggregate(star, WEIGHTED), aggregate(capped, WEIGHTED)
    assert np.max(np.abs(w_star - w_cap)) <= 1e-12
    assert np.max(np.abs(w_star - np.mean(values))) <= 1e-12

    u_star, u_cap = aggregate(star, UNWEIGHTED), aggregate(capped, UNWEIGHTED)
    assert not np.allclose(u_star, u_cap)
    # unweighted mode equals the plain recursive per-level average
    oracle = recursive_average(live_children(capped, gid), root,
                               {nid: d.w for nid, d in deltas.items()})
    assert np.max(np.abs(u_cap - oracle)) <= 1e-12


def test_random_shapes_weighted_equals_flat_mean(monkeypatch):
    rng = np.random.default_rng(0)
    deltas = {}
    for trial in range(20):
        n = int(rng.integers(4, 30))
        ids, _ov, _sim, trees, gid, root = build_world(
            n, fanout=int(rng.integers(1, 5)), seed=200 + trial,
            intercept=bool(rng.integers(2)))
        data = gaussian_data(ids, H, seed=trial, n_per_node=4)
        inject_deltas(monkeypatch, data, deltas)
        session = FederatedSession(trees, gid, data, H, RoundConfig(eta=1.0, seed=1))
        leaves = session.contributing_leaves()
        deltas.clear()
        deltas.update({nid: ModelParams(rng.normal(size=(2, H)), rng.normal(size=2))
                       for nid in leaves})
        agg, metrics = round_aggregate(session, session.centralized_round)
        flat = flat_mean([deltas[nid].w for nid in leaves])
        assert np.max(np.abs(agg.w - flat)) <= 1e-9
        assert metrics.root_weight == len(leaves)


def test_wire_roundtrip():
    rng = np.random.default_rng(1)
    m = AggregateMessage(0xDEADBEEF << 96 | 0x1234, 7,
                         ModelParams(rng.normal(size=(2, H)), rng.normal(size=2)), 9)
    blob = m.serialize()
    assert len(blob) == m.nbytes()
    back = AggregateMessage.deserialize(blob)
    assert back.group == m.group and back.round == 7 and back.weight == 9
    assert np.array_equal(back.payload.w, m.payload.w)
    assert np.array_equal(back.payload.b, m.payload.b)


# -- root update --------------------------------------------------------------------

def test_zero_aggregate_leaves_weights_unchanged():
    w = const_params(5.0, H)
    out = root_update(w, AggregateMessage(1, 0, ModelParams.zeros(H), 1), eta=0.7)
    assert np.array_equal(out.w, w.w)


def test_zero_eta_leaves_weights_unchanged():
    w = const_params(5.0, H)
    out = root_update(w, msg(123, h=H), eta=0.0)
    assert np.array_equal(out.w, w.w)


def test_stale_round_rejected():
    with pytest.raises(ProtocolError):
        root_update(ModelParams.zeros(H), msg(1, rnd=3, h=H), eta=1.0,
                    expected_round=4)


def test_single_leaf_eta_one_recovers_finetuned_weights_exactly():
    ids, overlay, sim, trees, gid, root = build_world(2, fanout=1, seed=5)
    leaf = next(nid for nid in ids if nid != root)
    data = gaussian_data([leaf], H, seed=1)
    cfg = RoundConfig(eta=1.0, steps=4, batch=8, seed=3)
    session = FederatedSession(trees, gid, data, H, cfg, lam=0.4, eta_local=0.1)
    w0 = session.global_params.copy()
    assert np.array_equal(w0.w, np.zeros((2, H)))

    rng = np.random.default_rng([3, 0, leaf])
    [(delta, _state)] = local_finetune([data[leaf]], w0,
                                       [PersonalState(w0.copy(), 0.4, 0.1)], 4, 8,
                                       [rng])
    session.centralized_round()
    expected = w0 - delta  # the leaf's own fine-tuned weights
    assert np.array_equal(session.global_params.w, expected.w)
    assert np.array_equal(session.global_params.b, expected.b)


# -- centralized rounds ----------------------------------------------------------------

def test_star_round_equals_flat_average_oracle():
    n = 25
    ids, overlay, sim, trees, gid, root = build_world(
        n, fanout=n, seed=9, intercept=False)
    data = gaussian_data([i for i in ids if i != root], H, seed=2)
    cfg = RoundConfig(eta=1.0, steps=3, batch=10, seed=7)
    session = FederatedSession(trees, gid, data, H, cfg, lam=0.5, eta_local=0.1)
    w0 = session.global_params.copy()

    finetuned = []
    for nid in sorted(data):
        rng = np.random.default_rng([7, 0, nid])
        [(delta, _)] = local_finetune([data[nid]], w0,
                                      [PersonalState(w0.copy(), 0.5, 0.1)], 3, 10,
                                      [rng])
        finetuned.append((w0 - delta).w)
    oracle = flat_mean(finetuned)

    metrics = session.centralized_round()
    assert np.max(np.abs(session.global_params.w - oracle)) <= 1e-9
    assert metrics.root_weight == len(data)  # conservation
    assert metrics.mode == CENTRALIZED


def test_bounded_fanout_bounds_per_node_ingress():
    ids, overlay, sim, trees, gid, root = build_world(300, fanout=8, seed=42)
    data = gaussian_data(ids, H, seed=3, n_per_node=8)
    cfg = RoundConfig(eta=1.0, steps=1, batch=4, seed=1)
    session = FederatedSession(trees, gid, data, H, cfg)
    metrics = session.centralized_round()
    assert metrics.max_agg_ingress_msgs <= 8
    assert metrics.root_weight == len(session.contributing_leaves())


def test_star_round_floods_the_root():
    n = 120
    ids, overlay, sim, trees, gid, root = build_world(
        n, fanout=n, seed=23, intercept=False)
    data = gaussian_data([i for i in ids if i != root], H, seed=4, n_per_node=8)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=1, batch=4, seed=2))
    metrics = session.centralized_round()
    assert metrics.max_agg_ingress_msgs == n - 1


def test_round_log_exposes_per_node_bytes_and_loss(tmp_path):
    import json

    from dhtfed.fedagg import write_round_log

    ids, overlay, sim, trees, gid, root = build_world(20, fanout=4, seed=51)
    data = gaussian_data(ids, H, seed=14)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=5, batch=8, seed=3))
    history = [session.centralized_round() for _ in range(3)]
    assert all(np.isfinite(m.loss) for m in history)
    assert history[-1].loss < history[0].loss  # separable data: training helps

    path = tmp_path / "rounds.jsonl"
    write_round_log(history, str(path), accuracy={0: 0.5, 1: 0.75, 2: 0.9})
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["mode"] == CENTRALIZED
    assert lines[2]["accuracy"] == 0.9
    assert lines[0]["ingress_bytes"]  # hex-keyed per-node byte counts
    assert all(len(k) == 32 for k in lines[0]["ingress_bytes"])


def test_rounds_are_deterministic_bit_for_bit():
    def run():
        ids, overlay, sim, trees, gid, root = build_world(30, fanout=4, seed=15)
        data = gaussian_data(ids, H, seed=5)
        session = FederatedSession(trees, gid, data, H,
                                   RoundConfig(steps=5, batch=8, seed=21))
        session.centralized_round()
        session.centralized_round()
        return session.global_params

    a, b = run(), run()
    assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


# -- decentralized rounds -----------------------------------------------------------------

def star_of_leaves(n_leaves, seed):
    """A root with n_leaves leaf children, each with a small dataset."""
    ids, _ov, _sim, trees, gid, root = build_world(
        n_leaves + 1, fanout=n_leaves + 1, seed=seed, intercept=False)
    leaves = trees.leaves(gid)
    assert sorted(leaves) == sorted(set(ids) - {root})
    return trees, gid, root, gaussian_data(leaves, H, seed=seed, n_per_node=4)


def forwarded(session, root):
    """Each leaf's contributor set as forwarded to the root. The overlays
    here are small enough that every leaf reaches the root in one hop."""
    out = {}
    for r in session.msg_log:
        if r.kind == AGG_UP and r.dst == root:
            assert r.src not in out
            out[r.src] = set(r.contributors)
    return out


def test_two_friends_one_hop_share_their_average(monkeypatch):
    trees, gid, root, data = star_of_leaves(2, seed=71)
    a, b = sorted(data)
    inject_deltas(monkeypatch, data, {a: const_params(1.0, H), b: const_params(3.0, H)})
    session = FederatedSession(trees, gid, data, H, RoundConfig(eta=1.0, seed=1))
    social = SocialGraph({a: {b}, b: {a}})
    agg, metrics = round_aggregate(
        session, lambda: session.decentralized_round(social, k_gossip=1))
    assert forwarded(session, root) == {a: {a, b}, b: {a, b}}
    assert np.array_equal(agg.w, np.full((2, H), 2.0))
    assert metrics.root_weight == 2


def test_ring_of_eight_reaches_global_mean_in_diameter_hops(monkeypatch):
    trees, gid, root, data = star_of_leaves(8, seed=73)
    ids = sorted(data)
    social = SocialGraph.ring(ids)
    rng = np.random.default_rng(3)
    values = {i: ModelParams(rng.normal(size=(2, H)), rng.normal(size=2))
              for i in ids}
    inject_deltas(monkeypatch, data, values)
    session = FederatedSession(trees, gid, data, H, RoundConfig(eta=1.0, seed=1))
    agg, _ = round_aggregate(
        session, lambda: session.decentralized_round(social, k_gossip=8))
    target = flat_mean([values[i].w for i in ids])
    for i in ids:
        assert reachable_within(social.friends, i, 8) == set(ids)
        assert forwarded(session, root)[i] == set(ids)
    assert np.max(np.abs(agg.w - target)) <= 1e-6


def test_gossip_contents_match_reachability_oracle():
    trees, gid, root, data = star_of_leaves(10, seed=75)
    ids = sorted(data)
    social = SocialGraph.ring_with_chords(ids, chords=3, seed=5)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=1, batch=4, seed=1))
    for k in range(5):
        metrics = session.decentralized_round(social, k_gossip=k)
        assert forwarded(session, root) == {
            i: reachable_within(social.friends, i, k) for i in ids}
        assert metrics.root_weight == len(ids)


def test_k0_complete_graph_equals_centralized_star():
    def centralized():
        ids, overlay, sim, trees, gid, root = build_world(
            20, fanout=20, seed=31, intercept=False)
        data = gaussian_data([i for i in ids if i != root], H, seed=6)
        s = FederatedSession(trees, gid, data, H,
                             RoundConfig(eta=1.0, steps=2, batch=8, seed=11))
        s.centralized_round()
        return s.global_params

    def decentralized():
        ids, overlay, sim, trees, gid, root = build_world(
            20, fanout=20, seed=31, intercept=False)
        data = gaussian_data([i for i in ids if i != root], H, seed=6)
        s = FederatedSession(trees, gid, data, H,
                             RoundConfig(eta=1.0, steps=2, batch=8, seed=11))
        s.decentralized_round(SocialGraph.complete(sorted(data)), k_gossip=0)
        return s.global_params

    wc, wd = centralized(), decentralized()
    assert np.max(np.abs(wc.w - wd.w)) <= 1e-9
    assert np.max(np.abs(wc.b - wd.b)) <= 1e-9


def test_decentralized_conservation_and_privacy():
    ids, overlay, sim, trees, gid, root = build_world(24, fanout=4, seed=37)
    data = gaussian_data(ids, H, seed=7, n_per_node=10)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=1, batch=5, seed=13, gossip_k=2))
    social = SocialGraph.ring_with_chords(session.contributing_leaves(),
                                          chords=4, seed=3)
    metrics = session.decentralized_round(social)
    assert metrics.root_weight == metrics.contributors
    assert audit_decentralized_privacy(session.msg_log, social) == []
    assert metrics.mode == DECENTRALIZED


@pytest.mark.parametrize("mode", [CENTRALIZED, DECENTRALIZED])
def test_msg_log_holds_only_the_current_round(mode):
    ids, overlay, sim, trees, gid, root = build_world(24, fanout=4, seed=37)
    data = gaussian_data(ids, H, seed=7, n_per_node=10)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=1, batch=5, seed=13, gossip_k=2))
    social = SocialGraph.ring_with_chords(session.contributing_leaves(),
                                          chords=4, seed=3)
    x = gaussian_data([1], H, seed=5)[1].x

    def round_and_vote():
        if mode == CENTRALIZED:
            session.centralized_round()
        else:
            session.decentralized_round(social)
        session.ensemble_infer(x)
        return list(session.msg_log)

    first, second = round_and_vote(), round_and_vote()
    # Voting runs after the round has advanced the counter, so its PREDICT
    # records carry the next round's number.
    assert {(r.kind, r.round) for r in first} == {(AGG_UP, 0), (PREDICT, 1)}
    assert {(r.kind, r.round) for r in second} == {(AGG_UP, 1), (PREDICT, 2)}
    assert len(second) == len(first)  # same tree, same links, same traffic
    if mode == DECENTRALIZED:
        assert audit_decentralized_privacy(session.msg_log, social) == []


def test_k0_direct_upload_is_flagged_by_the_audit():
    ids, overlay, sim, trees, gid, root = build_world(16, fanout=4, seed=41)
    data = gaussian_data(ids, H, seed=8, n_per_node=10)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=1, batch=5, seed=17))
    social = SocialGraph.ring(session.contributing_leaves())
    session.decentralized_round(social, k_gossip=0)
    assert len(audit_decentralized_privacy(session.msg_log, social)) > 0


def test_isolated_leaf_contributes_directly():
    ids, overlay, sim, trees, gid, root = build_world(12, fanout=4, seed=43)
    data = gaussian_data(ids, H, seed=9, n_per_node=10)
    session = FederatedSession(trees, gid, data, H,
                               RoundConfig(steps=1, batch=5, seed=19, gossip_k=2))
    leaves = session.contributing_leaves()
    iso, rest = leaves[0], leaves[1:]
    friends = SocialGraph.ring(rest).friends
    friends[iso] = set()
    social = SocialGraph(friends)
    assert social.isolated() == [iso]
    metrics = session.decentralized_round(social)
    assert metrics.root_weight == len(leaves)  # isolated one still counted
    # its raw weight-1 forward is excused: fewer than two friends
    assert audit_decentralized_privacy(session.msg_log, social) == []


def test_social_graph_validation():
    with pytest.raises(ValueError):
        SocialGraph({1: {1}})
    with pytest.raises(ValueError):
        SocialGraph({1: {2}, 2: set()})


# -- ensemble inference ---------------------------------------------------------------------

def force_vote(session, nid, label):
    """Pin a leaf's personalized head so it always votes `label`."""
    bias = np.array([10.0, -10.0]) if label == 0 else np.array([-10.0, 10.0])
    session.personal[nid].w_per = ModelParams(np.zeros((2, H)), bias)


def test_strict_majority_wins():
    ids, overlay, sim, trees, gid, root = build_world(4, fanout=3, seed=3)
    data = gaussian_data(ids, H, seed=10, n_per_node=4)
    session = FederatedSession(trees, gid, data, H, RoundConfig(seed=1))
    leaves = session.contributing_leaves()[:3]
    session.data = {nid: data[nid] for nid in leaves}
    force_vote(session, leaves[0], 1)
    force_vote(session, leaves[1], 1)
    force_vote(session, leaves[2], 0)
    labels, tally = session.ensemble_infer(np.zeros((1, H)))
    assert labels.tolist() == [1]
    assert tally[0].tolist() == [1.0, 2.0]


def test_single_leaf_root_outputs_its_prediction():
    ids, overlay, sim, trees, gid, root = build_world(2, fanout=1, seed=6)
    leaf = next(nid for nid in ids if nid != root)
    data = gaussian_data([leaf], H, seed=11, n_per_node=6)
    session = FederatedSession(trees, gid, data, H, RoundConfig(seed=1))
    force_vote(session, leaf, 0)
    labels, _ = session.ensemble_infer(np.ones((5, H)))
    assert labels.tolist() == [0] * 5


def test_tie_breaks_on_probability_mass_then_label_zero():
    ids, overlay, sim, trees, gid, root = build_world(3, fanout=2, seed=8)
    data = gaussian_data(ids, H, seed=12, n_per_node=4)
    session = FederatedSession(trees, gid, data, H, RoundConfig(seed=1))
    leaves = session.contributing_leaves()[:2]
    session.data = {nid: data[nid] for nid in leaves}
    # one confident vote for 1, one lukewarm vote for 0
    session.personal[leaves[0]].w_per = ModelParams(np.zeros((2, H)),
                                                    np.array([-8.0, 8.0]))
    session.personal[leaves[1]].w_per = ModelParams(np.zeros((2, H)),
                                                    np.array([0.2, 0.0]))
    labels, _ = session.ensemble_infer(np.zeros((1, H)))
    assert labels.tolist() == [1]  # mass favors the confident voter
    # exact mass tie goes to label 0
    session.personal[leaves[0]].w_per = ModelParams(np.zeros((2, H)),
                                                    np.array([8.0, -8.0]))
    session.personal[leaves[1]].w_per = ModelParams(np.zeros((2, H)),
                                                    np.array([-8.0, 8.0]))
    labels, _ = session.ensemble_infer(np.zeros((1, H)))
    assert labels.tolist() == [0]


def test_root_tally_matches_flat_recount():
    ids, overlay, sim, trees, gid, root = build_world(40, fanout=4, seed=29)
    data = gaussian_data(ids, H, seed=13, n_per_node=6)
    session = FederatedSession(trees, gid, data, H, RoundConfig(seed=1))
    rng = np.random.default_rng(5)
    for nid in session.contributing_leaves():
        session.personal[nid].w_per = ModelParams(rng.normal(size=(2, H)),
                                                  rng.normal(size=2))
    x = rng.normal(size=(200, H))
    labels, tally = session.ensemble_infer(x)

    leaves = session.contributing_leaves()
    votes = np.stack([np.argmax(forward_batch(x, session.personal[n].w_per), axis=1)
                      for n in leaves])
    masses = np.stack([forward_batch(x, session.personal[n].w_per) for n in leaves])
    assert np.array_equal(labels, flat_majority(votes, masses))
    assert np.array_equal(tally.sum(axis=1), np.full(200, float(len(leaves))))


def test_vote_across_chunk_boundaries_matches_a_per_leaf_recount(monkeypatch):
    ids, overlay, sim, trees, gid, root = build_world(70, fanout=8, seed=31)
    data = gaussian_data(ids, H, seed=14, n_per_node=6)
    session = FederatedSession(trees, gid, data, H, RoundConfig(seed=1))
    leaves = session.contributing_leaves()
    assert len(leaves) > 2 * fedagg.INFER_CHUNK
    rng = np.random.default_rng(6)
    for nid in leaves:
        session.personal[nid].w_per = ModelParams(rng.normal(size=(2, H)),
                                                  rng.normal(size=2))
    x = rng.normal(size=(300, H))
    chunks = []

    def spy(x, w, b):
        chunks.append(w)
        return forward_heads(x, w, b)

    monkeypatch.setattr(fedagg, "forward_heads", spy)
    labels, tally = session.ensemble_infer(x)

    probs = {nid: forward_batch(x, session.personal[nid].w_per) for nid in leaves}
    group = trees.group(gid)
    children = {m: list(group.members[m].children) for m in group.members}
    counts, mass, edges, voters = tree_tally(children, group.root, probs, len(x))
    # the heads go in fixed-size chunks, in the order the tally visits them
    assert [len(c) for c in chunks[:-1]] == [fedagg.INFER_CHUNK] * (len(chunks) - 1)
    assert np.array_equal(np.concatenate(chunks),
                          np.stack([session.personal[v].w_per.w for v in voters]))
    assert np.array_equal(tally, counts)
    votes = np.stack([np.argmax(probs[n], axis=1) for n in leaves])
    assert np.array_equal(labels, flat_majority(votes, np.stack(list(probs.values()))))
    assert np.array_equal(labels, np.where(
        counts[:, 1] > counts[:, 0], 1,
        np.where(counts[:, 0] > counts[:, 1], 0, np.where(mass[:, 1] > mass[:, 0], 1, 0))))
    # the PREDICT records are the tally's edges, in the order results pass up
    assert [(r.src, r.dst) for r in session.msg_log if r.kind == PREDICT] == edges


def test_forced_ties_are_broken_by_the_mass_tallied_in_tree_order():
    """Half the voters carry the negated heads of the other half, so every
    point gets equal counts and the tree-ordered mass sum decides."""
    ids, overlay, sim, trees, gid, root = build_world(90, fanout=6, seed=33)
    data = gaussian_data(ids, H, seed=15, n_per_node=6)
    session = FederatedSession(trees, gid, data, H, RoundConfig(seed=1))
    leaves = session.contributing_leaves()
    half = len(leaves) // 2
    assert half > fedagg.INFER_CHUNK
    leaves = leaves[:2 * half]
    session.data = {nid: data[nid] for nid in leaves}
    rng = np.random.default_rng(7)
    for a, b in zip(leaves[:half], leaves[half:]):
        head = ModelParams(rng.normal(size=(2, H)), rng.normal(size=2))
        session.personal[a].w_per = head
        session.personal[b].w_per = head * -1.0
    x = rng.normal(size=(400, H))
    labels, tally = session.ensemble_infer(x)

    probs = {nid: forward_batch(x, session.personal[nid].w_per) for nid in leaves}
    group = trees.group(gid)
    children = {m: list(group.members[m].children) for m in group.members}
    counts, mass, edges, _voters = tree_tally(children, group.root, probs, len(x))
    assert np.array_equal(counts[:, 0], counts[:, 1])  # every point ties
    assert np.array_equal(tally, counts)
    want = np.where(mass[:, 1] > mass[:, 0], 1, 0)
    assert 0 < want.sum() < len(x)  # rounding in the mass sum goes both ways
    assert np.array_equal(labels, want)
    assert [(r.src, r.dst) for r in session.msg_log if r.kind == PREDICT] == edges


@pytest.mark.parametrize("mode", [CENTRALIZED, DECENTRALIZED])
def test_one_finetune_call_per_round(mode, monkeypatch):
    ids, overlay, sim, trees, gid, root = build_world(30, fanout=4, seed=12)
    data = gaussian_data(ids, H, seed=15, n_per_node=10)
    session = FederatedSession(trees, gid, data, H, RoundConfig(steps=2, batch=4, seed=4))
    calls = []

    def counted(datas, *args, **kwargs):
        calls.append(len(datas))
        return local_finetune(datas, *args, **kwargs)

    monkeypatch.setattr(fedagg, "local_finetune", counted)
    social = SocialGraph.complete(session.contributing_leaves())
    for _ in range(3):
        if mode == CENTRALIZED:
            session.centralized_round()
        else:
            session.decentralized_round(social)
    assert calls == [len(session.contributing_leaves())] * 3


def test_no_live_leaves_rejected():
    ids, overlay, sim, trees, gid, root = build_world(3, fanout=2, seed=9)
    session = FederatedSession(trees, gid, {}, H, RoundConfig(seed=1))
    with pytest.raises(ProtocolError):
        session.ensemble_infer(np.zeros((1, H)))
    with pytest.raises(ProtocolError):
        session.centralized_round()


# -- mode selection ------------------------------------------------------------------------

def test_all_zero_stats_stay_centralized():
    sel = ModeSelector()
    assert sel.mode == CENTRALIZED
    assert [sel.update(0, 0.0) for _ in range(2)] == [CENTRALIZED] * 2


def test_threshold_edge_switches_to_decentralized():
    threshold = 1 << 20
    assert ModeSelector(bytes_threshold=threshold).update(threshold + 1, 0.0) == DECENTRALIZED
    assert ModeSelector(bytes_threshold=threshold).update(threshold, 0.0) == CENTRALIZED
    assert ModeSelector(latency_threshold=2000.0).update(0, 2001.0) == DECENTRALIZED


def test_hysteresis_limits_switching_rate():
    sel = ModeSelector(bytes_threshold=100, latency_threshold=1e9)
    oscillating = [150, 50] * 10
    modes = [sel.update(b, 0.0) for b in oscillating]
    switches = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
    # one switch at most per two rounds
    assert switches <= len(modes) // 2
    for i in range(1, len(modes) - 1):
        if modes[i] != modes[i - 1]:
            assert modes[i + 1] == modes[i]
