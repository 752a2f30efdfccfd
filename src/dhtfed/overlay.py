"""Structured P2P overlay: 128-bit id space, prefix routing, churn repair.

Ids live on a circular space [0, 2^128). A node's state is its routing
table of up to 32x16 cells (row = shared hex-prefix length, column = next
digit), holding only the rows up to the deepest one written. Its leaf set,
the 12 numerically closest live ids per side (with wraparound), is its
window of one sorted ring of the live ids (`Overlay.leaf_set`). Lookups are
greedy: leaf-set window first, then the exact routing-table cell, then any
known peer that keeps the shared prefix and strictly shrinks the numeric
distance. A dead cell met on the way is patched from the leaf set alone.

`Overlay.build` makes converged state by walking prefix blocks of the
sorted ids (see `_fill_routing_rows`): the ids sharing a prefix form one
contiguous slice, split by the next digit with bisect.

The leaf sets are the converged view, as `build`'s tables are: `build`
sorts the ids into the ring, a join inserts its id, and `repair` drops the
dead in one pass. A failed id stays on the ring until that repair, which
`route` makes before its first step.

`Overlay.route` memoizes each next hop it computes, per key and node. Walks
toward one key share their tails (a Scribe tree is the union of the routes
toward its group id), so every walk after the first toward a group id reads
most of its hops. The memo is emptied at every write to routing state: a
fail, the end of a join, a repair and `next_hop`'s patch of a dead table
cell. Between two writes `next_hop` is a pure function of the node and the
key, so a memo hit returns what a fresh call would.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
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

    __slots__ = ("owner", "rows")

    def __init__(self, owner: int):
        self.owner = owner
        self.rows: list[list[Optional[int]]] = []

    def get(self, row: int, col: int) -> Optional[int]:
        rows = self.rows
        return rows[row][col] if row < len(rows) else None

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


@dataclass
class RouteResult:
    source: int
    key: int
    hops: list[int]
    destination: int

    @property
    def hop_count(self) -> int:
        return len(self.hops)


class Overlay:
    """All nodes of one simulated overlay, plus join/fail/repair machinery.

    `nodes` maps each id to its routing table, a node's only stored state.
    Routing reads the table of the node doing the hop and its leaf set,
    which is not stored: it is the converged view, the node's window of the
    ring of live ids, as `build`'s tables are converged state.
    """

    def __init__(self, leaf_side: int = LEAF_SIDE):
        self.nodes: dict[int, RoutingTable] = {}
        self.leaf_side = leaf_side
        # The ids of the live nodes. The set is only ever changed in place:
        # `is_alive` is bound to it, and so is every holder of that method.
        self._live: set[int] = set()
        self.is_alive = self._live.__contains__
        # The live ids in ascending order; every leaf set is read from it.
        # From a `fail` to the next `repair` it still lists the dead.
        self._ring: list[int] = []
        # The id of every liveness change (join, fail, rejoin), oldest
        # first; see `version`.
        self.liveness_changes: list[int] = []
        # Set by `fail`, cleared by `repair`: the ring may still list the
        # dead, so `route` and `join` repair first rather than read it.
        self._unrepaired = False
        # The memo of `route`: key -> {node: next_hop(node, key)}. Every
        # write to the ring, routing tables or `_live` replaces it with an
        # empty one.
        self._next_hops: dict[int, dict[int, Optional[int]]] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def version(self) -> int:
        """The number of liveness changes so far (joins, fails, rejoins).

        State derived from liveness, such as tree subtree sizes, notes the
        version it was computed at; `liveness_changes[version:]` then names
        the nodes changed since, so it is recomputed only if one of them
        matters to it.
        """
        return len(self.liveness_changes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def live_ids(self) -> list[int]:
        return sorted(self._live)

    def leaf_set(self, nid: int) -> list[int]:
        """nid's leaf set in ascending order: the `leaf_side` nearest ids on
        each side of it on the ring, with wraparound, or all the others when
        there are at most 2 * leaf_side of them."""
        ring, side = self._ring, self.leaf_side
        n = len(ring)
        i = bisect_left(ring, nid)
        if i == n or ring[i] != nid:
            raise ValueError("no node on the ring has this id")
        if n - 1 <= 2 * side:
            return ring[:i] + ring[i + 1:]
        lo, hi = i - side, i + side + 1
        if lo < 0 or hi > n:  # wraps at 0
            return sorted(ring[(i + d) % n] for d in range(-side, side + 1) if d)
        return ring[lo:i] + ring[i + 1:hi]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, ids: list[int], leaf_side: int = LEAF_SIDE) -> "Overlay":
        """Construct a converged overlay: exact leaf sets, full routing tables.

        Every cell that any live node could fill is filled, with the
        candidate closest to the owner (ties to the smaller id). This is
        the canonical seeded overlay used by experiments; incremental
        join() below builds the same structures protocol-style.
        """
        if not all(type(nid) is int for nid in ids):
            raise ValueError("node ids must be ints (a bool is not one)")
        ordered = sorted(ids)
        if ordered and not (0 <= ordered[0] and ordered[-1] < ID_SPACE):
            raise ValueError(f"node ids must lie in [0, 2^{ID_BITS})")
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate node ids")
        ov = cls(leaf_side)
        tables = [RoutingTable(nid) for nid in ordered]
        ov.nodes = dict(zip(ordered, tables))
        ov._live.update(ordered)
        ov._ring = ordered
        if len(ordered) > 1:
            _fill_routing_rows(ordered, [table.rows for table in tables])
        return ov

    # -- membership changes ------------------------------------------------

    def join(self, new_id: int) -> RoutingTable:
        """Protocol-level join: route from the smallest live id toward the
        new id, copy state, announce. Returns the joiner's routing table.

        Routing rows are copied from the nodes on the join path, then from
        the delivery node's table and leaf set. The new id then enters the
        ring, and its leaf set and path fold it into their tables. The ring
        is repaired first, even when no node is live to route from.
        """
        if type(new_id) is not int or not 0 <= new_id < ID_SPACE:
            raise ValueError(f"node id {new_id!r} is not an int in [0, 2^{ID_BITS})")
        if new_id in self.nodes:
            raise ValueError("node id already present")
        if self._unrepaired:
            self.repair()
        table = RoutingTable(new_id)
        path: list[int] = []
        if self._ring:
            res = self.route(self._ring[0], new_id)
            path = [res.source] + res.hops

            # Classic bootstrap: row i from the i-th node on the path, then
            # the delivery node's full state. consider() recomputes true
            # placement.
            for i, pid in enumerate(path):
                table.consider(pid)
                rows = self.nodes[pid].rows  # a missing row is empty
                row = min(i, N_DIGITS - 1)
                for cell in rows[row] if row < len(rows) else ():
                    if cell is not None:
                        table.consider(cell)
            for cell in self.nodes[res.destination].entries():
                table.consider(cell)
            for m in self.leaf_set(res.destination):
                table.consider(m)

        self.liveness_changes.append(new_id)
        self.nodes[new_id] = table
        self._live.add(new_id)
        insort(self._ring, new_id)

        # Announce: the joiner's leaf set and path fold it into their tables.
        for pid in self.leaf_set(new_id) + path:
            self.nodes[pid].consider(new_id)
        self._next_hops = {}
        return table

    def fail(self, nid: int) -> None:
        if nid not in self._live:
            raise ValueError("cannot fail a node that is not alive")
        self._live.remove(nid)
        self._unrepaired = True
        self._next_hops = {}
        self.liveness_changes.append(nid)

    def rejoin(self, nid: int) -> None:
        """Bring a failed node back with fresh state (join logs the change)."""
        if nid not in self.nodes or nid in self._live:
            raise ValueError("cannot rejoin a node that is not dead")
        del self.nodes[nid]
        self.join(nid)

    def repair(self) -> int:
        """Drop the dead from the ring, in one pass.

        Every live leaf set is then its ring window of the live ids: the
        state Pastry's leaf-set repair converges to, reached directly as
        `build` reaches converged state. Routing tables are repaired lazily
        on use. Returns the number of passes: 1, or 0 when no node has
        failed since the last repair.
        """
        if not self._unrepaired:
            return 0
        self._unrepaired = False
        self._next_hops = {}
        self._ring = [nid for nid in self._ring if nid in self._live]
        return 1

    # -- routing -----------------------------------------------------------

    def next_hop(self, local_id: int, key: int) -> Optional[int]:
        """One greedy routing decision; None means deliver locally.

        Order: leaf-set window, exact routing-table cell, then any known
        peer with a shared prefix at least as long that is strictly closer
        to the key. A dead cell is patched on the way: it gets the first
        live leaf-set member, in ascending order, that fits it, or None. A
        peer's cell is fixed by its id, so no other table entry fits it. A
        patch empties the memo of `route`, which this method never reads.

        The leaf-set step reads no liveness: outside the span between a
        `fail` and the next `repair`, which `route` closes before its first
        step, the ring holds exactly the live ids. The ids nearest a key
        inside the window lie in it, so the nearest id on the whole ring is
        the nearest of the window and the node itself.
        """
        table = self.nodes[local_id]
        live = self._live
        if local_id not in live:
            raise ValueError("routing at a dead node")
        if key == local_id:
            return None

        if self._covers(local_id, key):
            best = _nearest_on_ring(self._ring, key)
            return None if best == local_id else best

        row = shared_prefix_len(local_id, key)
        col = digit_at(key, row)
        cell = table.get(row, col)
        if cell is not None:
            if cell in live:
                return cell
            repl = next((m for m in self.leaf_set(local_id) if m in live
                         and shared_prefix_len(local_id, m) == row
                         and digit_at(m, row) == col), None)
            table.rows[row][col] = repl
            self._next_hops = {}
            if repl is not None:
                return repl

        best = None
        best_rank = None
        own_dist = circular_distance(local_id, key)
        for peer in chain(self.leaf_set(local_id), table.entries()):
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

    def _covers(self, nid: int, key: int) -> bool:
        """True iff key lies in nid's leaf-set window: the arc of the ring
        from the k-th id below nid to the k-th above, k = min(leaf_side, n - 1)."""
        ring = self._ring
        n = len(ring)
        k = min(self.leaf_side, n - 1)
        if not k:
            return True  # alone: every key is local
        i = bisect_left(ring, nid)
        up, down = ring[(i + k) % n], ring[(i - k) % n]
        return ((key - nid) % ID_SPACE <= (up - nid) % ID_SPACE
                or (nid - key) % ID_SPACE <= (nid - down) % ID_SPACE)

    def route(self, source: int, key: int) -> RouteResult:
        """Apply next_hop until delivery, recording every hop.

        If a node has failed since the last `repair`, the ring is repaired
        first: a window read from a ring that still lists a dead node can
        span past the live ones and hand a key back and forth.

        Each next hop is read from the memo `_next_hops[key][node]` when it
        is there, and otherwise computed by `next_hop` and stored once the
        call returns. The memo is exact. `next_hop(cur, key)` reads only
        cur's routing table, the ring and the live set, and the memo is
        emptied at every write to them: `fail`, the end of `join`, a
        `repair` and `next_hop`'s patch of a dead table cell. A call that
        patches leaves a state in which a second call returns the same peer
        without patching: either the replacement now sits in the vacated
        cell, or the cell stays empty and the fallback is unchanged, since
        the dead peer never counted there. So a memo hit never skips a patch
        that a fresh call would make.
        """
        if not self.is_alive(source):
            raise ValueError("route source must be alive")
        if self._unrepaired:
            self.repair()
        known = self._next_hops.get(key, {})
        cur = source
        hops: list[int] = []
        while True:
            if cur in known:
                nxt = known[cur]
            else:
                nxt = self.next_hop(cur, key)
                # Looked up after the call: a patch in it empties the memo.
                known = self._next_hops.setdefault(key, {})
                known[cur] = nxt
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


def _nearest_on_ring(sorted_ids: list[int], target: int) -> int:
    """Member of a non-empty sorted id list minimizing circular distance to
    target.

    The nearest member is always the first one met going up the ring from
    the target's insertion point or the first one met going down from it,
    so only those two are compared. Ties go to the smaller id.
    """
    n = len(sorted_ids)
    i = bisect_left(sorted_ids, target)
    up, down = sorted_ids[i % n], sorted_ids[i - 1]
    if (circular_distance(up, target), up) < (circular_distance(down, target), down):
        return up
    return down
