"""Structured P2P overlay: 128-bit id space, prefix routing, churn repair.

Ids live on a circular space [0, 2^128). Each node keeps a routing table of
up to 32x16 cells (row = shared hex-prefix length, column = next digit),
holding only the rows up to the deepest one written, and a leaf set of the
12 numerically closest ids per side (with wraparound). Lookups are greedy:
leaf-set window first, then the exact routing-table cell, then any known
peer that keeps the shared prefix and strictly shrinks the numeric distance.

`Overlay.build` makes converged state by walking prefix blocks of the
sorted ids (see `_fill_routing_rows`): the ids sharing a prefix form one
contiguous slice, split by the next digit with bisect.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterator, Optional

ID_BITS = 128
ID_SPACE = 1 << ID_BITS
DIGIT_BITS = 4
N_DIGITS = ID_BITS // DIGIT_BITS  # 32
RADIX = 1 << DIGIT_BITS  # 16
LEAF_SIDE = 12  # 24-entry leaf set, 12 per side

MAX_ROUTE_HOPS = 64


class RoutingLoopError(RuntimeError):
    """Raised when a route exceeds the hop guard; indicates corrupted state."""


def id_from_name(name: str) -> int:
    """Deterministic 128-bit digest of a textual name (blake2b-128)."""
    if not name:
        raise ValueError("name must be non-empty")
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "big")


def hex_id(value: int) -> str:
    """Canonical text form: 32 lowercase hex digits."""
    return format(value, "032x")


def parse_id(text: str) -> int:
    if len(text) != N_DIGITS:
        raise ValueError("id text must be exactly 32 hex digits")
    return int(text, 16)


def circular_distance(a: int, b: int) -> int:
    d = (a - b) % ID_SPACE
    return min(d, ID_SPACE - d)


def shared_prefix_len(a: int, b: int) -> int:
    """Number of leading base-16 digits equal in a and b (32 iff a == b)."""
    if a == b:
        return N_DIGITS
    # Position of the highest differing bit decides the first differing digit.
    diff_bits = (a ^ b).bit_length()
    return (ID_BITS - diff_bits) // DIGIT_BITS


def digit_at(value: int, pos: int) -> int:
    """Hex digit of `value` at position `pos` (0 = most significant)."""
    shift = DIGIT_BITS * (N_DIGITS - 1 - pos)
    return (value >> shift) & (RADIX - 1)


def random_ids(n: int, seed: int) -> list[int]:
    """n distinct uniform ids from a seeded generator (stable across runs)."""
    rng = random.Random(seed)
    ids: set[int] = set()
    while len(ids) < n:
        ids.add(rng.getrandbits(ID_BITS))
    return sorted(ids)


class RoutingTable:
    """Up to 32 rows x 16 columns of optional peer ids.

    A peer in row r, column c shares exactly r leading digits with the
    owner and has digit c at position r; the owner's own digit column in
    each row stays empty. `rows` holds only the rows up to the deepest one
    written: a missing row reads as empty, and `consider` grows `rows` to
    the row it fills.
    """

    def __init__(self, owner: int):
        self.owner = owner
        self.rows: list[list[Optional[int]]] = []

    def get(self, row: int, col: int) -> Optional[int]:
        rows = self.rows
        return rows[row][col] if row < len(rows) else None

    def remove(self, peer: int) -> None:
        row = shared_prefix_len(self.owner, peer)
        if row >= len(self.rows):
            return
        col = digit_at(peer, row)
        if self.rows[row][col] == peer:
            self.rows[row][col] = None

    def consider(self, peer: int) -> bool:
        """Place a peer in its (row, col) cell if that cell is empty."""
        if peer == self.owner:
            return False
        row = shared_prefix_len(self.owner, peer)
        col = digit_at(peer, row)
        rows = self.rows
        while len(rows) <= row:
            rows.append([None] * RADIX)
        if rows[row][col] is None:
            rows[row][col] = peer
            return True
        return False

    def entries(self) -> Iterator[int]:
        for row in self.rows:
            for cell in row:
                if cell is not None:
                    yield cell


class LeafSet:
    """The up-to-12 numerically closest live ids per side, wrapping at 0.

    Offers are cheap: anything can be proposed via add(); the set trims
    itself back to the true 12-nearest per side among everything offered.
    """

    def __init__(self, owner: int, per_side: int = LEAF_SIDE):
        self.owner = owner
        self.per_side = per_side
        self._members: list[int] = []  # sorted by id

    def __contains__(self, nid: int) -> bool:
        i = bisect_left(self._members, nid)
        return i < len(self._members) and self._members[i] == nid

    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[int]:
        return list(self._members)

    def add(self, nid: int) -> None:
        if nid == self.owner or nid in self:
            return
        insort(self._members, nid)
        self._trim()

    def add_many(self, ids) -> None:
        for nid in ids:
            if nid != self.owner and nid not in self:
                insort(self._members, nid)
        self._trim()

    def remove(self, nid: int) -> None:
        i = bisect_left(self._members, nid)
        if i < len(self._members) and self._members[i] == nid:
            self._members.pop(i)

    def _offset_up(self, nid: int) -> int:
        return (nid - self.owner) % ID_SPACE

    def _offset_down(self, nid: int) -> int:
        return (self.owner - nid) % ID_SPACE

    # The members are sorted by id, so with i = bisect_right(members, owner)
    # the k-th nearest member upward is members[(i + k - 1) % n] and the
    # k-th nearest downward is members[(i - k) % n]: no sort by offset.

    def _trim(self) -> None:
        m = self._members
        n = len(m)
        if n <= 2 * self.per_side:
            return
        i = bisect_right(m, self.owner)
        lo = (i - self.per_side) % n
        hi = (i + self.per_side) % n
        # A contiguous ring window; when it wraps, its low ids come first.
        self._members = m[lo:hi] if lo < hi else m[:hi] + m[lo:]

    def covers(self, key: int) -> bool:
        """True iff key falls inside the circular window spanned by the set."""
        m = self._members
        n = len(m)
        if not n:
            return True  # alone: everything is local
        k = min(self.per_side, n)
        i = bisect_right(m, self.owner)
        up_span = self._offset_up(m[(i + k - 1) % n])
        down_span = self._offset_down(m[(i - k) % n])
        return self._offset_up(key) <= up_span or self._offset_down(key) <= down_span


@dataclass
class Node:
    id: int
    routing_table: RoutingTable
    leaf_set: LeafSet
    memberships: dict = field(default_factory=dict)  # group id -> TreeMembership


@dataclass
class RouteResult:
    source: int
    key: int
    hops: list[int]
    destination: int

    @property
    def hop_count(self) -> int:
        return len(self.hops)


def write_hop_traces(results, path: str) -> None:
    """Line-delimited hop records: {source, key, hops, destination}."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps({
                "source": hex_id(r.source),
                "key": hex_id(r.key),
                "hops": [hex_id(h) for h in r.hops],
                "destination": hex_id(r.destination),
            }) + "\n")


class Overlay:
    """All nodes of one simulated overlay, plus join/fail/repair machinery.

    Routing only ever reads the local state of the node doing the hop; the
    global node map exists so the simulator can dispatch messages and so
    build() can construct converged state directly.
    """

    def __init__(self, leaf_side: int = LEAF_SIDE):
        self.nodes: dict[int, Node] = {}
        self.leaf_side = leaf_side
        # The ids of the live nodes. The set is only ever changed in place:
        # `is_alive` is bound to it, and so is every holder of that method.
        self._live: set[int] = set()
        self.is_alive = self._live.__contains__
        # Bumped on every liveness change (join, fail, rejoin), so state
        # derived from liveness, such as tree subtree sizes, knows it is stale.
        self.version = 0
        # Set by `fail`, cleared by `repair`: leaf sets may still list the
        # dead, so `route` (and so `join`) repairs first rather than route
        # through them.
        self._unrepaired = False

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def live_ids(self) -> list[int]:
        return sorted(self._live)

    # -- construction ------------------------------------------------------

    def _new_node(self, nid: int) -> Node:
        return Node(nid, RoutingTable(nid), LeafSet(nid, self.leaf_side))

    @classmethod
    def build(cls, ids: list[int], leaf_side: int = LEAF_SIDE) -> "Overlay":
        """Construct a converged overlay: exact leaf sets, full routing tables.

        Every cell that any live node could fill is filled, with the
        candidate closest to the owner (ties to the smaller id). This is
        the canonical seeded overlay used by experiments; incremental
        join() below builds the same structures protocol-style.
        """
        ov = cls(leaf_side)
        ordered = sorted(ids)
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate node ids")
        nodes = [ov._new_node(nid) for nid in ordered]
        ov.nodes = {node.id: node for node in nodes}
        ov._live.update(ordered)
        n = len(ordered)
        if n <= 1:
            return ov

        # Exact leaf sets: each node's ring window of the sorted ids.
        if n - 1 <= 2 * leaf_side:
            for i, node in enumerate(nodes):
                node.leaf_set._members = ordered[:i] + ordered[i + 1:]
        else:
            # ring[i + leaf_side] is ordered[i], with leaf_side ids each side.
            ring = ordered[-leaf_side:] + ordered + ordered[:leaf_side]
            for i, node in enumerate(nodes):
                mid = i + leaf_side
                window = ring[i:mid] + ring[mid + 1:mid + leaf_side + 1]
                if not leaf_side <= i < n - leaf_side:  # wraps at 0
                    window.sort()
                node.leaf_set._members = window

        _fill_routing_rows(ordered, [node.routing_table.rows for node in nodes])
        return ov

    # -- membership changes ------------------------------------------------

    def join(self, new_id: int, bootstrap: Optional[int] = None) -> Node:
        """Protocol-level join: route toward the new id, copy state, announce.

        The new node's leaf set comes from the delivery node (its ring
        neighbor), which provably contains the joiner's true neighborhood;
        routing rows are copied from the nodes on the join path. If a node
        has failed since the last `repair`, `route` repairs leaf sets first.
        """
        if new_id in self.nodes:
            raise ValueError("node id already present")
        self.version += 1
        node = self._new_node(new_id)
        if not self.nodes:
            self.nodes[new_id] = node
            self._live.add(new_id)
            return node

        if bootstrap is None:
            bootstrap = self.live_ids()[0]
        res = self.route(bootstrap, new_id)
        path = [res.source] + res.hops
        target = self.nodes[res.destination]

        node.leaf_set.add_many(target.leaf_set.members())
        node.leaf_set.add(target.id)

        # Classic bootstrap: row i from the i-th node on the path, then the
        # delivery node's full state. consider() recomputes true placement.
        for i, pid in enumerate(path):
            node.routing_table.consider(pid)
            rows = self.nodes[pid].routing_table.rows  # a missing row is empty
            row = min(i, N_DIGITS - 1)
            for cell in rows[row] if row < len(rows) else ():
                if cell is not None:
                    node.routing_table.consider(cell)
        for cell in target.routing_table.entries():
            node.routing_table.consider(cell)
        for m in target.leaf_set.members():
            node.routing_table.consider(m)

        self.nodes[new_id] = node
        self._live.add(new_id)

        # Announce: neighbors fold the joiner into their own state.
        for m in node.leaf_set.members():
            peer = self.nodes[m]
            peer.leaf_set.add(new_id)
            peer.routing_table.consider(new_id)
        for pid in path:
            peer = self.nodes[pid]
            peer.leaf_set.add(new_id)
            peer.routing_table.consider(new_id)
        return node

    def fail(self, nid: int) -> None:
        if nid not in self._live:
            raise ValueError("cannot fail a node that is not alive")
        self._live.remove(nid)
        self._unrepaired = True
        self.version += 1

    def rejoin(self, nid: int) -> None:
        """Bring a failed node back with fresh state (join bumps the version)."""
        if nid not in self.nodes or nid in self._live:
            raise ValueError("cannot rejoin a node that is not dead")
        del self.nodes[nid]
        self.join(nid)

    def repair(self) -> int:
        """Eagerly rebuild leaf sets around dead nodes, to fixpoint.

        Each sweep lets every live node replace dead leaf entries with live
        candidates learned from its live leaf neighbors; sweeps repeat until
        nothing changes. Routing tables are repaired lazily on use. With no
        failure since the last repair, no leaf set lists a dead node, so it
        returns 0 sweeps at once.
        """
        if not self._unrepaired:
            return 0
        live = self._live
        self._unrepaired = False
        sweeps = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for nid in sorted(live):
                node = self.nodes[nid]
                members = node.leaf_set._members
                if live.issuperset(members):
                    continue
                pool: set[int] = live.intersection(members)
                for m in list(pool):
                    pool.update(live.intersection(self.nodes[m].leaf_set._members))
                if not pool:  # no live leaf neighbor at all: fall back to table
                    pool = live.intersection(node.routing_table.entries())
                before = set(members)
                node.leaf_set._members = []
                node.leaf_set.add_many(sorted(pool))
                if set(node.leaf_set.members()) != before:
                    changed = True
        return sweeps

    # -- routing -----------------------------------------------------------

    def next_hop(self, local_id: int, key: int) -> Optional[int]:
        """One greedy routing decision; None means deliver locally.

        Order: leaf-set window, exact routing-table cell, then any known
        peer with a shared prefix at least as long that is strictly closer
        to the key. Dead table entries are dropped and patched on the way.
        """
        node = self.nodes[local_id]
        live = self._live
        if local_id not in live:
            raise ValueError("routing at a dead node")
        if key == local_id:
            return None

        if node.leaf_set.covers(key):
            best = _nearest_on_ring(node.leaf_set._members, key, live)
            if best is None or ((circular_distance(local_id, key), local_id)
                                < (circular_distance(best, key), best)):
                return None
            return best

        row = shared_prefix_len(local_id, key)
        col = digit_at(key, row)
        cell = node.routing_table.get(row, col)
        if cell is not None:
            if cell in live:
                return cell
            node.routing_table.remove(cell)
            repl = self._find_replacement(node, row, col)
            if repl is not None:
                node.routing_table.consider(repl)
                return repl

        best = None
        best_rank = None
        own_dist = circular_distance(local_id, key)
        for peer in self._known_peers(node):
            if peer not in live:
                continue
            p = shared_prefix_len(peer, key)
            if p < row:
                continue
            d = circular_distance(peer, key)
            if d >= own_dist:
                continue
            rank = (-p, d, peer)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = peer
        return best

    def _known_peers(self, node: Node) -> Iterator[int]:
        yield from node.leaf_set.members()
        yield from node.routing_table.entries()

    def _find_replacement(self, node: Node, row: int, col: int) -> Optional[int]:
        """A live known peer satisfying a vacated cell's prefix constraint."""
        for peer in sorted(set(self._known_peers(node))):
            if not self.is_alive(peer):
                continue
            if shared_prefix_len(node.id, peer) == row and digit_at(peer, row) == col:
                return peer
        return None

    def route(self, source: int, key: int) -> RouteResult:
        """Apply next_hop until delivery, recording every hop.

        If a node has failed since the last `repair`, leaf sets are repaired
        first: a set that still lists a dead node can span past the live
        ones and hand a key back and forth.
        """
        if not self.is_alive(source):
            raise ValueError("route source must be alive")
        if self._unrepaired:
            self.repair()
        cur = source
        hops: list[int] = []
        while True:
            nxt = self.next_hop(cur, key)
            if nxt is None:
                return RouteResult(source, key, hops, cur)
            hops.append(nxt)
            cur = nxt
            if len(hops) > MAX_ROUTE_HOPS:
                raise RoutingLoopError(
                    f"no delivery after {MAX_ROUTE_HOPS} hops for key {hex_id(key)}"
                )


def _fill_routing_rows(ordered: list[int],
                      rows: list[list[list[Optional[int]]]]) -> None:
    """Write the converged routing rows of the nodes with sorted ids `ordered`
    into `rows`, the node at `ordered[i]` getting `rows[i]`.

    The ids sharing a prefix form one contiguous block of `ordered`. A block
    whose ids first differ at digit d splits by that digit into up to 16
    sub-blocks, whose bounds are found by bisect. Cell (d, c) of every id in
    the block is the id of sub-block c nearest to it on the ring (ties to
    the smaller id), and each sub-block of two or more ids is split in turn.
    Only the two ends of a sub-block can be nearest. For d >= 1 the block
    is narrower than 2^124, so the ring does not wrap inside it: a lower
    sub-block's nearest id is its last one and a higher one's is its first,
    and all ids of one sub-block get the same row d. Rows of digits that a
    whole block shares hold no cell, and are written only below a deeper row.
    """
    stack = [(0, len(ordered))]
    while stack:
        lo, hi = stack.pop()
        depth = shared_prefix_len(ordered[lo], ordered[hi - 1])
        shift = DIGIT_BITS * (N_DIGITS - 1 - depth)
        base = ordered[lo] >> (shift + DIGIT_BITS) << (shift + DIGIT_BITS)
        bounds = [lo]
        for c in range(1, RADIX):
            bounds.append(bisect_left(ordered, base | (c << shift), bounds[-1], hi))
        bounds.append(hi)
        spans = list(zip(bounds, bounds[1:]))
        firsts = [ordered[s] if s < e else None for s, e in spans]
        lasts = [ordered[e - 1] if s < e else None for s, e in spans]
        for own, (s, e) in enumerate(spans):
            if e - s > 1:
                stack.append((s, e))
            if s == e:
                continue
            if depth:
                row, flips = lasts[:own] + [None] + firsts[own + 1:], []
            else:
                row, flips = _top_row(ordered, s, e, own, firsts, lasts)
            for i in range(s, e):
                node_rows = rows[i]
                while len(node_rows) < depth:
                    node_rows.append([None] * RADIX)
                node_rows.append(row.copy())
            for k, col, cell in flips:
                for i in range(k, e):
                    rows[i][0][col] = cell


def _top_row(ordered: list[int], s: int, e: int, own: int,
             firsts: list[Optional[int]], lasts: list[Optional[int]]
             ) -> tuple[list[Optional[int]], list[tuple[int, int, int]]]:
    """Row 0 of the ids `ordered[s:e]`, whose top digit is `own`.

    Returns the row of `ordered[s]` and a list of (k, col, cell) flips:
    from `ordered[k]` on, column col holds cell instead. The points nearer
    to one of two ids form one half of the ring, whose ends lie between the
    two ids and opposite them; so across the arc of one top digit, which of
    another digit's first and last id is nearer flips at most once, and
    bisect finds where.
    """
    row: list[Optional[int]] = [None] * RADIX
    flips = []
    for col, (first, last) in enumerate(zip(firsts, lasts)):
        if first is None or col == own:
            continue

        def first_nearer(x: int, first: int = first, last: int = last) -> bool:
            return ((circular_distance(first, x), first)
                    < (circular_distance(last, x), last))

        at_start = first_nearer(ordered[s])
        row[col] = first if at_start else last
        if first_nearer(ordered[e - 1]) != at_start:
            k = bisect_left(ordered, True, s, e,
                            key=lambda x: first_nearer(x) != at_start)
            flips.append((k, col, last if at_start else first))
    return row, flips


def _nearest_on_ring(sorted_ids: list[int], target: int,
                     live: Optional[set[int]]) -> Optional[int]:
    """Member of a sorted id list minimizing circular distance to target.

    With `live`, only members in that set count, and None means none does.
    The nearest member is always the first one met going up the ring from
    the target's insertion point or the first one met going down from it,
    so only those two are compared. Ties go to the smaller id.
    """
    n = len(sorted_ids)
    if not n:
        return None
    i = bisect_left(sorted_ids, target)
    k = i
    up = sorted_ids[k % n]
    while live is not None and up not in live:
        k += 1
        if k == i + n:
            return None
        up = sorted_ids[k % n]
    k = i - 1
    down = sorted_ids[k % n]
    while live is not None and down not in live:  # stops at `up` at the latest
        k -= 1
        down = sorted_ids[k % n]
    if (circular_distance(up, target), up) < (circular_distance(down, target), down):
        return up
    return down
