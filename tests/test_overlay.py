import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dhtfed.overlay import (ID_SPACE, LEAF_SIDE, MAX_ROUTE_HOPS, LeafSet,
                            Overlay, RoutingLoopError, RoutingTable,
                            circular_distance, digit_at, hex_id, id_from_name,
                            parse_id, random_ids, shared_prefix_len,
                            write_hop_traces)

from oracles import (build_reference, closest_id, leaf_covers, leaf_set_next_hop,
                     leaf_sides, prefix_digits, ring_neighbors)


# -- identifiers ---------------------------------------------------------------

def test_id_from_name_is_deterministic():
    for name in ("covid", "vaccination", "election", "x" * 500):
        assert id_from_name(name) == id_from_name(name)
        assert 0 <= id_from_name(name) < (1 << 128)


def test_id_from_name_rejects_empty():
    with pytest.raises(ValueError):
        id_from_name("")


def test_distinct_names_rarely_collide():
    rng = random.Random(0)
    names = {f"name-{rng.getrandbits(64):x}-{i}" for i in range(100_000)}
    digests = {id_from_name(n) for n in names}
    assert len(digests) / len(names) >= 0.9999


def test_hex_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        v = rng.getrandbits(128)
        text = hex_id(v)
        assert len(text) == 32 and text == text.lower()
        assert parse_id(text) == v
    with pytest.raises(ValueError):
        parse_id("ff")


def test_shared_prefix_identity_is_32():
    v = id_from_name("self")
    assert shared_prefix_len(v, v) == 32


def test_shared_prefix_first_digit_mismatch_is_0():
    a = 0x0 << 124
    b = 0xF << 124
    assert shared_prefix_len(a, b) == 0


def test_shared_prefix_two_digits():
    a = 0xAB << 120
    b = (0xAB << 120) | ((1 << 120) - 1)
    assert shared_prefix_len(a, b) == 2
    assert prefix_digits(a, b) == 2


def test_shared_prefix_matches_digit_oracle():
    rng = random.Random(2)
    for _ in range(2000):
        a = rng.getrandbits(128)
        # bias toward long shared prefixes
        keep = rng.randrange(0, 129)
        b = (a >> keep << keep) | (rng.getrandbits(keep) if keep else 0)
        assert shared_prefix_len(a, b) == prefix_digits(a, b)
        if a != b:
            first_diff = shared_prefix_len(a, b)
            assert digit_at(a, first_diff) != digit_at(b, first_diff)


def test_circular_distance_wraps():
    assert circular_distance(0, (1 << 128) - 1) == 1
    assert circular_distance(5, 5) == 0
    a, b = 123, (1 << 127) + 123
    assert circular_distance(a, b) == 1 << 127


# -- routing -------------------------------------------------------------------

def test_route_to_self_delivers_in_zero_hops():
    ov = Overlay.build(random_ids(16, 3))
    nid = ov.live_ids()[0]
    res = ov.route(nid, nid)
    assert res.hops == [] and res.destination == nid


def test_singleton_overlay_delivers_everything_locally():
    ov = Overlay.build(random_ids(1, 3))
    nid = ov.live_ids()[0]
    for key in (0, 1 << 64, (1 << 128) - 1):
        res = ov.route(nid, key)
        assert res.destination == nid and res.hop_count == 0


def test_every_hop_makes_monotone_progress():
    # Each hop extends the shared prefix or moves strictly closer to the key
    # (ties to the smaller id). The final leaf-set hop may cross a hex-digit
    # boundary, shortening the prefix while closing the distance, so the two
    # conditions are a disjunction.
    ov = Overlay.build(random_ids(256, 5))
    ids = ov.live_ids()
    rng = random.Random(6)
    for _ in range(300):
        src = ids[rng.randrange(len(ids))]
        key = rng.getrandbits(128)
        res = ov.route(src, key)
        cur = src
        for hop in res.hops:
            better_prefix = shared_prefix_len(hop, key) > shared_prefix_len(cur, key)
            closer = circular_distance(hop, key) < circular_distance(cur, key)
            smaller_tie = (
                circular_distance(hop, key) == circular_distance(cur, key)
                and hop < cur
            )
            assert better_prefix or closer or smaller_tie
            cur = hop


def test_64_node_overlay_delivers_to_oracle_closest_for_all_pairs():
    ids = random_ids(64, 9)
    shuffled = ids[:]
    random.Random(3).shuffle(shuffled)
    ov = Overlay()
    for nid in shuffled:
        ov.join(nid)
    rng = random.Random(11)
    keys = ids + [rng.getrandbits(128) for _ in range(64)]
    for src in ids:
        for key in keys:
            res = ov.route(src, key)
            assert res.destination == closest_id(ids, key)


def test_1000_node_lookups_meet_hop_bound():
    ids = random_ids(1000, 42)
    ov = Overlay.build(ids)
    rng = random.Random(7)
    total = 0
    lookups = 2000
    for _ in range(lookups):
        src = ids[rng.randrange(len(ids))]
        key = rng.getrandbits(128)
        res = ov.route(src, key)
        assert res.hop_count <= 4  # ceil(log16 1000) + 1
        total += res.hop_count
    assert total / lookups <= 3.0


def test_route_is_deterministic_and_exportable(tmp_path):
    def collect():
        ids = random_ids(128, 21)
        ov = Overlay.build(ids)
        rng = random.Random(2)
        out = []
        for _ in range(50):
            src = ids[rng.randrange(len(ids))]
            key = rng.getrandbits(128)
            out.append(ov.route(src, key))
        return out

    a, b = collect(), collect()
    assert [(r.source, r.key, r.hops, r.destination) for r in a] == \
           [(r.source, r.key, r.hops, r.destination) for r in b]

    path = tmp_path / "hops.jsonl"
    write_hop_traces(a, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 50
    rec = json.loads(lines[0])
    assert set(rec) == {"source", "key", "hops", "destination"}
    assert parse_id(rec["source"]) == a[0].source


# -- membership ----------------------------------------------------------------

def test_join_into_empty_overlay_routes_to_itself():
    ov = Overlay()
    nid = id_from_name("first")
    node = ov.join(nid)
    assert not node.leaf_set.members()
    assert not list(node.routing_table.entries())
    assert ov.route(nid, 12345).destination == nid


def test_duplicate_join_rejected():
    ov = Overlay()
    ov.join(id_from_name("a"))
    with pytest.raises(ValueError):
        ov.join(id_from_name("a"))


def test_sequential_joins_build_exact_leaf_sets():
    ids = random_ids(1000, 5)
    shuffled = ids[:]
    random.Random(1).shuffle(shuffled)
    ov = Overlay()
    for nid in shuffled:
        ov.join(nid)
    for nid in ids:
        want = ring_neighbors(ids, nid, LEAF_SIDE)
        assert set(ov.nodes[nid].leaf_set.members()) == want


def test_joins_respect_routing_table_placement():
    ids = random_ids(400, 15)
    shuffled = ids[:]
    random.Random(2).shuffle(shuffled)
    ov = Overlay()
    for nid in shuffled:
        ov.join(nid)
    for nid, node in ov.nodes.items():
        for row_idx, row in enumerate(node.routing_table.rows):
            for col_idx, cell in enumerate(row):
                if cell is None:
                    continue
                assert shared_prefix_len(nid, cell) == row_idx
                assert digit_at(cell, row_idx) == col_idx
                assert digit_at(nid, row_idx) != col_idx


def test_built_overlay_placement_invariants():
    ids = random_ids(300, 23)
    ov = Overlay.build(ids)
    for nid, node in ov.nodes.items():
        for row_idx, row in enumerate(node.routing_table.rows):
            for col_idx, cell in enumerate(row):
                if cell is not None:
                    assert shared_prefix_len(nid, cell) == row_idx
                    assert digit_at(cell, row_idx) == col_idx


def dense_cells(table):
    """A routing table's 32 x 16 cells, a missing row read as all None."""
    return [list(table.rows[r]) if r < len(table.rows) else [None] * 16
            for r in range(32)]


@st.composite
def _overlay_ids(draw):
    """A few to a few thousand ids, drawn around 1-4 random centres with 12 to
    128 free low bits (so clusters share long prefixes and fill deep rows),
    plus any of the ids at both sides of the ring's wrap at 0."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(41, 3000)))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    free = draw(st.sampled_from([12, 24, 64, 128]))
    centres = [rng.getrandbits(128) >> free << free
               for _ in range(draw(st.integers(1, 4)))]
    ids = draw(st.sets(st.sampled_from([0, 1, ID_SPACE - 2, ID_SPACE - 1])))
    while len(ids) < n:
        ids.add(rng.choice(centres) | rng.getrandbits(free))
    return sorted(ids)


@settings(max_examples=40, deadline=None)
@given(ids=_overlay_ids(), leaf_side=st.sampled_from([1, 2, 3, LEAF_SIDE]))
@example(ids=[0, ID_SPACE - 1], leaf_side=1)
@example(ids=[0, 1, 1 << 127, ID_SPACE - 1], leaf_side=1)
@example(ids=[0xAB << 120 | k for k in range(300)], leaf_side=2)
def test_build_matches_the_reference_build_cell_for_cell(ids, leaf_side):
    ov, ref = Overlay.build(ids, leaf_side), build_reference(ids, leaf_side)
    assert list(ov.nodes) == list(ref.nodes)
    for nid, node in ov.nodes.items():
        assert node.leaf_set.members() == ref.nodes[nid].leaf_set.members()
        assert dense_cells(node.routing_table) == ref.nodes[nid].routing_table.rows


def test_unwritten_rows_read_as_empty():
    owner = 0xAB << 120
    table = RoutingTable(owner)
    assert table.rows == []
    assert table.get(0, 3) is None and table.get(31, 15) is None
    table.remove(owner | 0x7 << 112)  # row 3, never written
    assert table.rows == []


def test_consider_grows_rows_only_to_the_row_it_fills():
    owner = 0xAB << 120
    table = RoutingTable(owner)
    deep = owner | 0x7 << 112  # shares "ab0": row 3, column 7
    assert table.consider(deep)
    assert len(table.rows) == 4 and table.get(3, 7) == deep
    assert table.rows[:3] == [[None] * 16] * 3
    assert table.consider(0x1 << 124)  # row 0 exists already
    assert not table.consider(owner)
    assert len(table.rows) == 4
    table.remove(deep)
    assert table.get(3, 7) is None and len(table.rows) == 4


def test_join_copies_nothing_from_rows_a_path_peer_never_wrote():
    # Three ids with distinct top digits: each node writes row 0 only.
    ids = [0x0 << 124 | 5, 0x1 << 124 | 5, 0x2 << 124 | 5]
    new_id = 0x1 << 124 | 1 << 100
    ov, ref = Overlay.build(ids), build_reference(ids)
    path = [ids[0]] + ov.route(ids[0], new_id).hops
    assert len(path) > len(ov.node(path[-1]).routing_table.rows) == 1
    ov.join(new_id)
    ref.join(new_id)
    for nid in ids + [new_id]:
        assert (dense_cells(ov.node(nid).routing_table)
                == dense_cells(ref.node(nid).routing_table))


# -- churn -----------------------------------------------------------------------

def test_three_node_fail_and_repair():
    ids = random_ids(3, 30)
    ov = Overlay.build(ids)
    ov.fail(ids[1])
    ov.repair()
    a, c = ids[0], ids[2]
    assert ov.nodes[a].leaf_set.members() == [c]
    assert ov.nodes[c].leaf_set.members() == [a]


def test_fail_twice_rejected():
    ids = random_ids(4, 31)
    ov = Overlay.build(ids)
    ov.fail(ids[0])
    with pytest.raises(ValueError):
        ov.fail(ids[0])
    with pytest.raises(ValueError):
        ov.fail(id_from_name("missing"))


def test_ten_percent_churn_still_delivers_to_closest_live():
    ids = random_ids(1000, 42)
    ov = Overlay.build(ids)
    rng = random.Random(99)
    dead = set(rng.sample(ids, 100))
    for d in dead:
        ov.fail(d)
    ov.repair()
    live = [x for x in ids if x not in dead]
    for _ in range(2000):
        src = live[rng.randrange(len(live))]
        key = rng.getrandbits(128)
        res = ov.route(src, key)
        assert res.destination == closest_id(live, key)


def test_repair_restores_exact_live_leaf_sets():
    ids = random_ids(400, 17)
    ov = Overlay.build(ids)
    rng = random.Random(4)
    dead = set(rng.sample(ids, 40))
    for d in dead:
        ov.fail(d)
    ov.repair()
    live = sorted(set(ids) - dead)
    for nid in live:
        want = ring_neighbors(live, nid, LEAF_SIDE)
        assert set(ov.nodes[nid].leaf_set.members()) == want


def test_rejoin_restores_node():
    ids = random_ids(50, 77)
    ov = Overlay.build(ids)
    ov.fail(ids[5])
    ov.repair()
    ov.rejoin(ids[5])
    assert ov.is_alive(ids[5])
    with pytest.raises(ValueError):
        ov.rejoin(ids[5])
    res = ov.route(ids[0], ids[5])
    assert res.destination == ids[5]


def test_route_from_dead_node_rejected():
    ids = random_ids(10, 1)
    ov = Overlay.build(ids)
    ov.fail(ids[0])
    with pytest.raises(ValueError):
        ov.route(ids[0], ids[1])


@pytest.mark.parametrize("ids, dead", [
    # Node 1's leaf set reaches past 2^128-1 only through the dead node 0;
    # unrepaired, 1 forwarded to 2^128-4096, which handed the key back.
    ([0, 1, ID_SPACE - 4096], 0),
    # Trimmed sets: node 100 lists only 50 and the dead 150.
    ([50, 100, 150, 200], 150),
])
def test_route_after_a_fail_without_repair_reaches_the_closest_live_node(ids, dead):
    live = [nid for nid in ids if nid != dead]
    keys = [ID_SPACE - 1, 0, ID_SPACE - 2048, 190, 175, 125, dead, dead + 1]
    for src in live:
        for key in keys:
            ov = Overlay.build(ids, leaf_side=1)
            ov.fail(dead)
            assert ov.route(src, key).destination == closest_id(live, key)


def test_routing_loop_guard_exists():
    assert issubclass(RoutingLoopError, RuntimeError)


def test_liveness_changes_bump_the_version():
    ids = random_ids(20, 5)
    ov = Overlay.build(ids)
    v0 = ov.version
    ov.fail(ids[3])
    assert ov.version > v0
    v1 = ov.version
    ov.rejoin(ids[3])
    assert ov.version > v1
    v2 = ov.version
    ov.route(ids[0], ids[7])
    ov.repair()
    assert ov.version == v2


def oracle_route(ov, source, key):
    """(hops, destination) with every leaf-set step taken by the oracle rule
    and every other step by `Overlay.next_hop`."""
    cur, hops = source, []
    while True:
        leaf_set = ov.node(cur).leaf_set
        if key == cur:
            nxt = None
        elif leaf_set.covers(key):
            nxt = leaf_set_next_hop(cur, leaf_set.members(), ov.is_alive, key)
        else:
            nxt = ov.next_hop(cur, key)
        if nxt is None:
            return hops, cur
        hops.append(nxt)
        cur = nxt
        if len(hops) > MAX_ROUTE_HOPS:
            raise RoutingLoopError(hex_id(key))


# Ids on both sides of the ring's wrap at 0, mixed with ids from anywhere.
_RING_IDS = st.one_of(st.integers(0, 1 << 12),
                      st.integers(ID_SPACE - (1 << 12), ID_SPACE - 1),
                      st.integers(0, ID_SPACE - 1))


@settings(max_examples=150, deadline=None)
@given(ids=st.sets(_RING_IDS, min_size=2, max_size=40),
       leaf_side=st.sampled_from([1, 2, 3, LEAF_SIDE]),
       ops=st.lists(st.tuples(st.sampled_from(["fail", "fail", "repair", "rejoin"]),
                              st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                              _RING_IDS),
                    max_size=25))
# A rejoin right after a failure, with no repair between: the join must not
# route through leaf sets that still list the dead node.
@example(ids={0, 4095, ID_SPACE - 4094, ID_SPACE - 4093}, leaf_side=1,
         ops=[("fail", 0, 0, 0), ("rejoin", 0, 0, 0)])
# Routes right after a failure, with no repair between: unrepaired, node 1
# bounced 2^128-1 with 2^128-4096, and node 100 kept 190 from 200.
@example(ids={0, 1, ID_SPACE - 4096}, leaf_side=1,
         ops=[("fail", 0, 1, ID_SPACE - 1)])
@example(ids={50, 100, 150, 200}, leaf_side=1, ops=[("fail", 2, 1, 190)])
def test_route_matches_the_leaf_set_oracle_hop_for_hop(ids, leaf_side, ops):
    ids = sorted(ids)
    ov = Overlay.build(ids, leaf_side)
    live = set(ids)
    for op, pick, src_pick, far in ops:
        if op == "fail" and len(live) > 1:
            nid = sorted(live)[pick % len(live)]
            ov.fail(nid)
            live.remove(nid)
        elif op == "rejoin" and len(live) < len(ids):
            dead = sorted(set(ids) - live)
            nid = dead[pick % len(dead)]
            ov.rejoin(nid)
            live.add(nid)
        elif op == "repair":
            ov.repair()
        assert ov.live_ids() == sorted(live)
        assert [ov.is_alive(nid) for nid in ids] == [nid in live for nid in ids]

        src = sorted(live)[src_pick % len(live)]
        member = ids[pick % len(ids)]
        gap = (ids[(pick + 1) % len(ids)] - member) % ID_SPACE
        midway = (member + gap // 2) % ID_SPACE  # a tie when the gap is even
        exact = None
        for key in (member, (member + 1) % ID_SPACE, (member - 1) % ID_SPACE,
                    midway, 0, ID_SPACE - 1, far):
            try:
                res = ov.route(src, key)  # repairs first after a fail
            except RoutingLoopError:
                # Unrepaired leaf sets can bounce a key between two nodes;
                # the oracle rule must loop the same way.
                with pytest.raises(RoutingLoopError):
                    oracle_route(ov, src, key)
                continue
            assert oracle_route(ov, src, key) == (res.hops, res.destination)
            if exact is None:
                # route repaired any set that listed a dead node. A repair
                # can leave a set inexact when one side lost all its live
                # members; where none is, delivery is exact.
                assert all(live.issuperset(ov.node(nid).leaf_set.members())
                           for nid in live)
                exact = all(set(ov.node(nid).leaf_set.members())
                            == ring_neighbors(sorted(live), nid, leaf_side)
                            for nid in live)
            if exact:
                assert res.destination == closest_id(live, key)


# -- leaf sets -------------------------------------------------------------------

# Ids near the owner, on either side of it and of the ring's wrap at 0, mixed
# with ids from anywhere on the ring.
_NEAR = st.integers(-64, 64)
_OWNERS = st.one_of(st.integers(0, 40), st.integers(ID_SPACE - 40, ID_SPACE - 1),
                    st.integers(0, ID_SPACE - 1))
_ANYWHERE = st.integers(0, ID_SPACE - 1)


@settings(max_examples=300, deadline=None)
@given(owner=_OWNERS, near=st.lists(_NEAR, max_size=40),
       far=st.lists(_ANYWHERE, max_size=6), per_side=st.integers(1, 6),
       key_near=st.lists(_NEAR, max_size=8), key_far=st.lists(_ANYWHERE, max_size=4),
       one_by_one=st.booleans())
def test_leaf_set_window_matches_sorted_definition(owner, near, far, per_side,
                                                   key_near, key_far, one_by_one):
    offered = [(owner + d) % ID_SPACE for d in near] + far
    leaf = LeafSet(owner, per_side)
    if one_by_one:
        for nid in offered:
            leaf.add(nid)
    else:
        leaf.add_many(offered)
    candidates = sorted(set(offered) - {owner})
    up, down = leaf_sides(owner, candidates, per_side)
    assert leaf.members() == sorted(set(up) | set(down))
    keys = [(owner + d) % ID_SPACE for d in key_near] + key_far + candidates
    for key in keys:
        assert leaf.covers(key) == leaf_covers(owner, leaf.members(), per_side, key)
