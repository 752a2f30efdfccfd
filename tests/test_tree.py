import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dhtfed.overlay import Overlay, id_from_name, random_ids
from dhtfed.simnet import Simulator
from dhtfed.tree import TreeConfig, TreeManager

from conftest import build_world, edge_lines, live_children
from oracles import closest_id, subtree_size, walk_tree


def depth_of(trees, gid, nid):
    """Parent links from nid up to the root."""
    members = trees.group(gid).members
    depth = 0
    while members[nid].parent is not None:
        nid = members[nid].parent
        depth += 1
    return depth


def children_map(trees, gid):
    group = trees.groups[gid]
    return {nid: list(group.members[nid].children)
            for nid in group.members if trees.overlay.is_alive(nid)}


# -- group creation ----------------------------------------------------------------

def test_single_node_overlay_becomes_root():
    ids = random_ids(1, 3)
    overlay = Overlay.build(ids)
    trees = TreeManager(overlay, Simulator(seed=0, alive=overlay.is_alive))
    gid, root = trees.create_group("solo")
    assert root == ids[0]
    assert gid == id_from_name("solo")


def test_root_is_oracle_closest_to_group_id():
    ids = random_ids(1000, 42)
    overlay = Overlay.build(ids)
    trees = TreeManager(overlay, Simulator(seed=0, alive=overlay.is_alive))
    for name in ("covid", "vaccination", "election"):
        gid, root = trees.create_group(name)
        assert root == closest_id(ids, gid)


def test_duplicate_group_rejected():
    ids = random_ids(5, 3)
    overlay = Overlay.build(ids)
    trees = TreeManager(overlay, Simulator(seed=0, alive=overlay.is_alive))
    trees.create_group("dup")
    with pytest.raises(ValueError):
        trees.create_group("dup")


def test_create_on_empty_overlay_rejected():
    trees = TreeManager(Overlay(), Simulator(seed=0))
    with pytest.raises(ValueError, match="no live node"):
        trees.create_group("empty")
    # Every node failed: no live node to route the CREATE from.
    ids = random_ids(3, 3)
    overlay = Overlay.build(ids)
    for nid in ids:
        overlay.fail(nid)
    trees = TreeManager(overlay, Simulator(seed=0, alive=overlay.is_alive))
    with pytest.raises(ValueError, match="no live node"):
        trees.create_group("all-failed")


# -- joining ------------------------------------------------------------------------

def test_unbounded_fanout_without_interception_gives_a_star():
    n = 30
    ids, overlay, sim, trees, gid, root = build_world(
        n, fanout=n - 1, seed=11, intercept=False)
    group = trees.groups[gid]
    assert len(group.members[root].children) == n - 1
    for nid in ids:
        if nid != root:
            assert group.members[nid].parent == root


def test_seven_members_fanout_two_is_a_perfect_binary_tree():
    _ids, _ov, _sim, trees, gid, _root = build_world(
        7, fanout=2, seed=5, intercept=False)
    stats = trees.tree_stats(gid)
    assert stats.members == 7
    assert stats.depth == 2
    assert stats.depth_histogram == {0: 1, 1: 2, 2: 4}


def test_thousand_members_respect_depth_and_fanout_bounds():
    _ids, _ov, _sim, trees, gid, _root = build_world(
        1000, fanout=16, seed=42, intercept=False)
    stats = trees.tree_stats(gid)
    assert stats.members == 1000
    assert stats.max_fanout <= 16
    assert stats.depth <= math.ceil(math.log(1000, 16)) + 2
    assert trees.validate(gid) == []


def test_interception_still_respects_fanout_and_treeness():
    _ids, _ov, _sim, trees, gid, _root = build_world(
        300, fanout=8, seed=13, intercept=True)
    assert trees.validate(gid) == []
    assert trees.tree_stats(gid).max_fanout <= 8


def test_join_errors():
    ids, overlay, sim, trees, gid, root = build_world(10, fanout=4, seed=9)
    with pytest.raises(KeyError):
        trees.join_group(ids[0], id_from_name("nope"))
    with pytest.raises(ValueError):
        trees.join_group(ids[0], gid)  # already a member


# -- multicast -------------------------------------------------------------------------

def test_singleton_multicast_delivers_to_root_only():
    ids, overlay, sim, trees, gid, root = build_world(1, seed=3)
    result = trees.multicast(gid, 100)
    sim.run()
    assert set(result.deliveries) == {root}
    assert result.forwards == 0
    assert result.elapsed == 0.0


def test_star_multicast_reaches_everyone_at_depth_one():
    ids, overlay, sim, trees, gid, root = build_world(
        10, fanout=9, seed=7, intercept=False)
    result = trees.multicast(gid, 512)
    sim.run()
    assert set(result.deliveries) == set(ids)
    assert result.forwards == 9
    for nid in ids:
        if nid != root:
            assert depth_of(trees, gid, nid) == 1


def test_large_multicast_is_exactly_once_and_bounded_by_depth():
    ids, overlay, sim, trees, gid, root = build_world(1000, fanout=16, seed=42)
    result = trees.multicast(gid, 2048)
    sim.run()
    # everyone exactly once: one delivery each from N - 1 sends, none dropped
    assert set(result.deliveries) == set(ids)
    assert result.forwards == len(ids) - 1 and sim.dropped == 0
    stats = trees.tree_stats(gid)
    assert stats.members == len(ids)
    # the last delivery can be no deeper than the tree
    assert max(depth_of(trees, gid, nid) for nid in result.deliveries) == stats.depth


def test_a_node_failed_mid_multicast_is_not_sent_to():
    # The fail fires after the multicast starts, before the victim's parent
    # forwards: the parent must send only to its children still alive.
    ids, overlay, sim, trees, gid, root = build_world(100, fanout=4, seed=9)
    group = trees.groups[gid]
    victim = next(nid for nid, mem in sorted(group.members.items())
                  if mem.parent not in (None, root) and not mem.children)
    sim.schedule(0.0, lambda: overlay.fail(victim))
    result = trees.multicast(gid, 512)
    sim.run()
    assert sim.dropped == 0
    assert set(result.deliveries) == set(ids) - {victim}


# -- stats ------------------------------------------------------------------------------

def test_stats_match_recursive_walk_oracle():
    _ids, _ov, _sim, trees, gid, root = build_world(100, fanout=4, seed=33)
    stats = trees.tree_stats(gid)
    count, depth, fanout, hist = walk_tree(children_map(trees, gid), root)
    assert (stats.members, stats.depth, stats.max_fanout) == (count, depth, fanout)
    assert stats.depth_histogram == hist


def test_walk_is_the_preorder_in_child_order():
    _ids, overlay, _sim, trees, gid, root = build_world(100, fanout=3, seed=34)
    children = children_map(trees, gid)

    def preorder(nid):
        return [nid] + [m for c in children.get(nid, []) for m in preorder(c)]

    assert trees.walk(gid) == preorder(root)
    # a failed member and its subtree drop out of the walk until they rejoin
    victim = children[root][1]
    overlay.fail(victim)
    walk = trees.walk(gid)  # syncs the child lists that children_map reads
    children = children_map(trees, gid)
    assert walk == preorder(root) and victim not in walk


def test_stats_star_and_singleton():
    _ids, _ov, _sim, trees, gid, _root = build_world(
        5, fanout=4, seed=2, intercept=False)
    stats = trees.tree_stats(gid)
    assert (stats.members, stats.depth, stats.max_fanout) == (5, 1, 4)
    assert stats.depth_histogram == {0: 1, 1: 4}

    ids1, _ov1, _sim1, trees1, gid1, _r1 = build_world(1, seed=4)
    s1 = trees1.tree_stats(gid1)
    assert (s1.members, s1.depth, s1.max_fanout) == (1, 0, 0)
    assert s1.depth_histogram == {0: 1}


def test_export_edges():
    _ids, _ov, _sim, trees, gid, root = build_world(30, fanout=4, seed=19)
    lines = edge_lines(trees, gid).splitlines()
    assert len(lines) == 29
    group = trees.groups[gid]
    for line in lines:
        parent, child = line.split("\t")
        assert group.members[int(child, 16)].parent == int(parent, 16)


def test_export_edges_of_a_thousand_member_tree_is_pinned():
    # One group, fanout 16, joins in sorted id order: the edge listing must
    # stay byte-identical as the join machinery changes underneath.
    _ids, _ov, _sim, trees, gid, _root = build_world(1000, fanout=16, seed=42)
    edges = edge_lines(trees, gid).encode("utf-8")
    assert hashlib.sha256(edges).hexdigest()[:16] == "226836747878267e"


# -- kept subtree sizes -------------------------------------------------------------------

def assert_sizes_match_oracle(trees, gid):
    """The sizes the next adoption reads equal a brute-force walk.

    Unless a member changed liveness since the last sync, the sync must
    return the counts as kept, so this checks the O(depth) updates;
    otherwise it checks the recount.
    """
    group = trees.groups[gid]
    overlay = trees.overlay
    alive = overlay.is_alive
    children = {nid: m.children for nid, m in group.members.items()}
    want = {nid: subtree_size(children, alive, nid)
            for nid in group.members if alive(nid)}
    kept = group.sizes
    changed = group.members.keys() & overlay.liveness_changes[group.sizes_version:]
    sizes = trees._sync(group)
    assert sizes == want
    assert (sizes is kept) == (not changed)


def heal(trees, gid):
    """What one heartbeat round does: every orphan re-issues its JOIN."""
    group = trees.groups[gid]
    alive = trees.overlay.is_alive
    for nid in sorted(group.members):
        parent = group.members[nid].parent
        if alive(nid) and parent is not None and not alive(parent):
            trees.handle_parent_failure(gid, nid)


def test_spurious_rejoins_keep_sizes_without_a_recount():
    ids, overlay, sim, trees, gid, root = build_world(300, fanout=4, seed=17)
    group = trees.groups[gid]
    assert group.sizes_version == overlay.version
    assert_sizes_match_oracle(trees, gid)
    rng = random.Random(3)
    for nid in rng.sample([m for m in ids if m != root], 40):
        trees.handle_parent_failure(gid, nid)
        assert group.sizes_version == overlay.version  # updated, not recounted
    assert_sizes_match_oracle(trees, gid)
    assert trees.validate(gid) == []


def test_a_harness_rejoin_and_a_live_removal_recount_nothing():
    ids, overlay, sim, trees, gid, root = build_world(300, fanout=4, seed=17)
    group = trees.groups[gid]
    victim, leaver = [m for m in ids if m != root and group.members[m].children][:2]
    overlay.fail(victim)
    overlay.repair()
    heal(trees, gid)  # the victim is a member: this recounts
    sizes = trees.group(gid).sizes
    # What the harness does when a failed member rejoins.
    trees.remove_member(gid, victim)
    overlay.rejoin(victim)
    trees.join_group(victim, gid)
    assert trees.group(gid).sizes is sizes
    # A live member leaves; its orphans re-attach. A new node joins the
    # overlay but not the group.
    trees.remove_member(gid, leaver)
    overlay.join(max(ids) + 1)
    assert trees.group(gid).sizes is sizes
    assert_sizes_match_oracle(trees, gid)
    assert trees.validate(gid) == []
    # A failed member is dropped from the lists by a recount.
    overlay.fail(victim)
    assert trees.group(gid).sizes is not sizes
    assert_sizes_match_oracle(trees, gid)


CHURN_OPS = st.lists(
    st.tuples(st.sampled_from(["join", "fail", "rejoin", "reattach", "remove"]),
              st.integers(0, 1 << 16)),
    min_size=1, max_size=30)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 1 << 16), fanout=st.integers(1, 4),
       intercept=st.booleans(), ops=CHURN_OPS)
# The root fails; healing reroots a subtree after another orphan's join has
# already recounted the sizes.
@example(seed=11965, fanout=2, intercept=True, ops=[("fail", 14)])
def test_kept_sizes_match_oracle_under_random_churn(seed, fanout, intercept, ops):
    ids = random_ids(40, seed)
    overlay = Overlay.build(ids)
    sim = Simulator(seed=seed, alive=overlay.is_alive)
    trees = TreeManager(overlay, sim, TreeConfig(fanout_cap=fanout,
                                                 intercept_joins=intercept))
    gid, _root = trees.create_group("churn")
    group = trees.groups[gid]
    for nid in ids[:20]:
        if nid not in group.members:
            trees.join_group(nid, gid)
    assert_sizes_match_oracle(trees, gid)
    for op, pick in ops:
        members = sorted(m for m in group.members if overlay.is_alive(m))
        if op == "join":
            pool = [n for n in overlay.live_ids() if n not in group.members]
            if pool:
                trees.join_group(pool[pick % len(pool)], gid)
        elif op == "fail":
            pool = overlay.live_ids()
            victim = pool[pick % len(pool)]
            if victim in members and len(members) < 3:
                continue
            overlay.fail(victim)
            overlay.repair()
            heal(trees, gid)
        elif op == "rejoin":
            dead = [n for n in ids if not overlay.is_alive(n)]
            if not dead:
                continue
            nid = dead[pick % len(dead)]
            was_member = nid in group.members
            trees.remove_member(gid, nid)
            assert_sizes_match_oracle(trees, gid)
            overlay.rejoin(nid)
            assert_sizes_match_oracle(trees, gid)
            if was_member:
                trees.join_group(nid, gid)
        elif op == "reattach":
            pool = [m for m in members if group.members[m].parent is not None]
            if pool:
                trees.handle_parent_failure(gid, pool[pick % len(pool)])
        elif len(members) >= 3:  # remove
            trees.remove_member(gid, members[pick % len(members)])
        assert_sizes_match_oracle(trees, gid)  # before any other sync
        lists = {m: mem.children for m, mem in trees.group(gid).members.items()}
        assert lists == live_children(trees, gid)
        assert trees.validate(gid) == []


# -- heartbeats and healing ---------------------------------------------------------------

def snapshot(trees, gid):
    group = trees.groups[gid]
    return {nid: (m.parent, tuple(m.children)) for nid, m in group.members.items()}


def test_heartbeats_leave_a_healthy_tree_unchanged():
    ids, overlay, sim, trees, gid, root = build_world(50, fanout=4, seed=3)
    before = snapshot(trees, gid)
    trees.heal(gid)
    assert snapshot(trees, gid) == before
    assert trees.groups[gid].rejoins == 0


def test_killing_an_interior_node_triggers_exactly_child_count_rejoins():
    ids, overlay, sim, trees, gid, root = build_world(60, fanout=3, seed=8)
    group = trees.groups[gid]
    victim = next(nid for nid in sorted(group.members)
                  if nid != root and len(group.members[nid].children) == 3)
    sim.schedule(1500, lambda: overlay.fail(victim))
    trees.heal(gid)
    assert group.rejoins == 3
    assert trees.validate(gid) == []
    assert set(trees.live_members(gid)) == set(ids) - {victim}


def test_killing_the_root_elects_the_closest_live_node():
    ids, overlay, sim, trees, gid, root = build_world(50, fanout=4, seed=12)
    sim.schedule(500, lambda: overlay.fail(root))
    trees.heal(gid)
    live = [x for x in ids if x != root]
    assert trees.groups[gid].root == closest_id(live, gid)
    assert trees.validate(gid) == []
    assert set(trees.live_members(gid)) == set(live)


def test_a_tick_beats_from_the_root_its_failure_pass_added(monkeypatch):
    # Without intercepts, an orphan whose root is gone attaches under the
    # live node closest to the group id. When that node is not a member yet,
    # the tick's failure pass adds it, and its beats go out in the same tick.
    ids, overlay, sim, trees, gid, root = build_world(30, fanout=3, seed=4,
                                                      intercept=False)
    group = trees.groups[gid]
    heir = closest_id([x for x in ids if x != root], gid)
    trees.remove_member(gid, heir)
    overlay.fail(root)
    now = 5000.0
    for mem in group.members.values():
        if mem.parent != root:
            mem.last_parent_heartbeat = now
    sent = []
    monkeypatch.setattr(sim, "send_many",
                        lambda batch, deliver, kind: sent.extend(batch))
    trees.heartbeat_tick(gid, now)
    assert group.root == heir and group.members[heir].children
    want = [(nid, child) for nid in sorted(group.members) if overlay.is_alive(nid)
            for child in group.members[nid].children]
    assert [(src, dst) for src, dst, _ in sent] == want


def test_mass_interior_failure_heals_within_window():
    ids, overlay, sim, trees, gid, root = build_world(400, fanout=8, seed=42)
    group = trees.groups[gid]
    interior = [m for m in sorted(group.members)
                if m != root and group.members[m].children]
    rng = random.Random(5)
    victims = rng.sample(interior, len(interior) // 5)

    def fail_victims():
        for v in victims:
            overlay.fail(v)
        overlay.repair()

    sim.schedule(1200, fail_victims)
    trees.heal(gid)
    assert trees.validate(gid) == []
    survivors = set(ids) - set(victims)
    assert set(trees.live_members(gid)) == survivors
    # fanout cap still holds everywhere after healing
    for nid in trees.live_members(gid):
        assert len(group.members[nid].children) <= 8


def test_heartbeat_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(fanout_cap=0)
    with pytest.raises(ValueError):
        TreeConfig(heartbeat_period=1000, failure_timeout=1500)


@settings(deadline=None)
@given(seed=st.integers(0, 1 << 16), n=st.integers(30, 200), fanout=st.integers(1, 3),
       extra=st.integers(0, 5), way=st.sampled_from(["remove", "reattach"]),
       order=st.integers(0, 1 << 16))
@example(seed=38004, n=34, fanout=3, extra=3, way="remove", order=55727)
@example(seed=47695, n=31, fanout=1, extra=4, way="reattach", order=27997)
def test_healing_after_the_root_and_others_fail_never_crosses_the_dead(
        seed, n, fanout, extra, way, order):
    # The root and up to 5 other members fail at once. Then either every
    # dead member is removed, or every orphan plus about a tenth of the
    # members with a live parent re-issue their JOIN, in random order. A
    # reroot whose chain ran through a dead member that has not re-joined
    # made `list.remove` raise in `TreeManager._reroot`.
    ids, overlay, sim, trees, gid, root = build_world(n, fanout=fanout, seed=seed)
    group = trees.groups[gid]
    rng = random.Random(order)
    dead = [root] + rng.sample(sorted(m for m in group.members if m != root), extra)
    for nid in dead:
        overlay.fail(nid)
    overlay.repair()
    if way == "remove":
        rng.shuffle(dead)
        for nid in dead:
            trees.remove_member(gid, nid)
    else:
        alive = overlay.is_alive
        attached = [m for m in sorted(group.members)
                    if alive(m) and group.members[m].parent is not None]
        orphans = [m for m in attached if not alive(group.members[m].parent)]
        rest = [m for m in attached if alive(group.members[m].parent)]
        picks = orphans + rng.sample(rest, len(rest) // 10)
        rng.shuffle(picks)
        for nid in picks:
            trees.handle_parent_failure(gid, nid)
    assert trees.validate(gid) == []
