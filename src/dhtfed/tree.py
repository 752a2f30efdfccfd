"""Group management: aggregation trees built by routing JOINs toward a group id.

A group's root is the live node closest to the group id. Joins route toward
the group id and are adopted by the first on-path member (interception) or
by the root; full adopters delegate to the child with the fewest live
descendants (ties to the smaller id), so trees stay balanced under the
fanout cap. Parents emit existence messages; a member that stops hearing
from its parent re-issues the JOIN, carrying its whole subtree with it.

Each group keeps a count of live descendants per live member. Attaching a
subtree adds its count along the chain of live ancestors, and a parent-failure
rejoin subtracts it first, so a join or rejoin costs O(fanout * depth) rather
than a walk of every subtree it passes. Liveness changes in the overlay bump
`Overlay.version`; a group whose counts are older than that (or that lost a
member, or was rerooted) recounts them in one O(members) pass before its next
adoption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .overlay import Overlay, id_from_name, hex_id
from .simnet import Simulator, HEARTBEAT, MULTICAST

HEARTBEAT_BYTES = 64


@dataclass
class TreeConfig:
    fanout_cap: int = 16
    heartbeat_period: float = 1000.0  # simulated ms
    failure_timeout: float = 3000.0
    intercept_joins: bool = True

    def __post_init__(self) -> None:
        if self.fanout_cap < 1:
            raise ValueError("fanout_cap must be >= 1")
        if self.failure_timeout < 2 * self.heartbeat_period:
            raise ValueError("failure_timeout must be >= 2 * heartbeat_period")


@dataclass
class TreeMembership:
    group: int
    parent: Optional[int] = None
    children: list[int] = field(default_factory=list)
    last_parent_heartbeat: float = 0.0


@dataclass
class TreeStats:
    members: int
    depth: int
    max_fanout: int
    depth_histogram: dict[int, int]
    rejoins: int  # members re-attached after losing their parent
    dead_parent_rejoins: int  # of those, the ones whose old parent had died


class GroupState:
    def __init__(self, gid: int, name: str, root: int):
        self.gid = gid
        self.name = name
        self.root = root
        self.members: dict[int, TreeMembership] = {}
        self.rejoins = 0
        self.dead_parent_rejoins = 0
        # Live member -> members reachable through live children, itself
        # included; valid while sizes_version == Overlay.version (-1: stale).
        self.sizes: dict[int, int] = {}
        self.sizes_version = -1


class MulticastResult:
    def __init__(self, start_time: float):
        self.start_time = start_time
        self.deliveries: dict[int, float] = {}
        self.forwards = 0

    @property
    def completion_time(self) -> float:
        return max(self.deliveries.values())

    @property
    def elapsed(self) -> float:
        return self.completion_time - self.start_time


class TreeManager:
    """Owns every group's membership state on top of one overlay + simulator."""

    def __init__(self, overlay: Overlay, sim: Simulator, config: Optional[TreeConfig] = None):
        self.overlay = overlay
        self.sim = sim
        self.config = config or TreeConfig()
        self.groups: dict[int, GroupState] = {}
        self._heartbeats_on: set[int] = set()

    # -- group lifecycle ---------------------------------------------------

    def create_group(self, name: str, creator: Optional[int] = None) -> tuple[int, int]:
        """Route a CREATE toward the hashed name; the delivery node is root."""
        if not self.overlay.nodes:
            raise ValueError("overlay is empty")
        gid = id_from_name(name)
        if gid in self.groups:
            raise ValueError(f"group {name!r} already exists")
        if creator is None:
            creator = self.overlay.live_ids()[0]
        root = self.overlay.route(creator, gid).destination
        group = GroupState(gid, name, root)
        self._add_member(group, root)
        self.groups[gid] = group
        return gid, root

    def group(self, gid: int) -> GroupState:
        if gid not in self.groups:
            raise KeyError(f"unknown group {hex_id(gid)}")
        return self.groups[gid]

    def join_group(self, member: int, gid: int) -> TreeMembership:
        group = self.group(gid)
        if member in group.members:
            raise ValueError("node is already a member of this group")
        if not self.overlay.is_alive(member):
            raise ValueError("joining node must be alive")
        mem = self._add_member(group, member)
        self._attach(group, member)
        return mem

    # -- attachment machinery ------------------------------------------------

    def _add_member(self, group: GroupState, nid: int) -> TreeMembership:
        """Register a live node as a detached member of the group."""
        mem = TreeMembership(group.gid)
        group.members[nid] = mem
        group.sizes[nid] = 1
        self.overlay.node(nid).memberships[group.gid] = mem
        return mem

    def _attach(self, group: GroupState, joiner: int) -> None:
        """Route a JOIN toward the group id and attach the joiner's subtree."""
        res = self.overlay.route(joiner, group.gid)

        adopter: Optional[int] = None
        if self.config.intercept_joins:
            for pid in res.hops:
                if (pid != joiner and pid in group.members
                        and self.overlay.is_alive(pid)
                        and not self._in_subtree(group, pid, joiner)):
                    adopter = pid
                    break

        if adopter is None:
            root = group.root
            if (root is not None and self.overlay.is_alive(root)
                    and root in group.members and root != joiner
                    and not self._in_subtree(group, root, joiner)):
                adopter = root
            else:
                # Root gone: the node now closest to the group id takes over.
                z = res.destination
                if z == joiner or self._in_subtree(group, z, joiner):
                    self._reroot(group, z)
                    return
                if z not in group.members:
                    self._add_member(group, z)
                    group.root = z
                elif group.members[z].parent is None:
                    group.root = z
                adopter = z

        self._adopt(group, adopter, joiner)

    def _adopt(self, group: GroupState, adopter: int, joiner: int) -> None:
        """Attach under `adopter`, delegating while children are at the cap."""
        sizes = self._live_sizes(group)
        cur = adopter
        while True:
            children = self._live_children(group, cur)
            if len(children) < self.config.fanout_cap:
                break
            cur = min(children, key=lambda c: (sizes[c], c))
        group.members[cur].children.append(joiner)
        mem = group.members[joiner]
        mem.parent = cur
        mem.last_parent_heartbeat = self.sim.now
        self._resize_chain(group, cur, sizes[joiner])

    def _live_sizes(self, group: GroupState) -> dict[int, int]:
        """The group's live subtree sizes, recounted in one pass if stale."""
        if group.sizes_version == self.overlay.version:
            return group.sizes
        alive = self.overlay.is_alive
        members = group.members
        sizes: dict[int, int] = {}
        for top in members:
            if top in sizes or not alive(top):
                continue
            order = []
            stack = [top]
            while stack:
                cur = stack.pop()
                order.append(cur)
                stack.extend(c for c in members[cur].children
                             if alive(c) and c not in sizes)
            for cur in reversed(order):
                sizes[cur] = 1 + sum(sizes[c] for c in members[cur].children
                                     if alive(c))
        group.sizes = sizes
        group.sizes_version = self.overlay.version
        return sizes

    def _resize_chain(self, group: GroupState, nid: int, delta: int) -> None:
        """Add delta to the sizes of nid and its live ancestors, O(depth).

        With fresh counts, `sizes` holds exactly the live members, so the
        walk stops at the root or at the first dead ancestor. Stale counts
        are left alone: the next adoption recounts them.
        """
        if group.sizes_version != self.overlay.version:
            return
        sizes = group.sizes
        while nid in sizes:
            sizes[nid] += delta
            nid = group.members[nid].parent

    def _reroot(self, group: GroupState, new_root: int) -> None:
        """Reverse parent links from new_root up to its component top."""
        chain = [new_root]
        cur = group.members[new_root].parent
        while cur is not None:
            chain.append(cur)
            cur = group.members[cur].parent
        for child, parent in zip(chain, chain[1:]):
            group.members[parent].children.remove(child)
        group.members[new_root].parent = None
        group.root = new_root
        group.sizes_version = -1
        # Former parents re-attach as children, through normal delegation so
        # the fanout cap holds even at the pivot.
        for child, parent in zip(chain, chain[1:]):
            self._adopt(group, child, parent)

    def _in_subtree(self, group: GroupState, node: int, top: int) -> bool:
        """True iff `top` is on `node`'s parent chain (or equal)."""
        seen = 0
        cur: Optional[int] = node
        while cur is not None:
            if cur == top:
                return True
            cur = group.members[cur].parent if cur in group.members else None
            seen += 1
            if seen > len(group.members) + 1:
                raise RuntimeError("cycle in tree parent chain")
        return False

    def _live_children(self, group: GroupState, nid: int) -> list[int]:
        """Children filtered to live nodes; dead entries are pruned on touch."""
        mem = group.members[nid]
        alive = self.overlay.is_alive
        live = [c for c in mem.children if alive(c)]
        if len(live) != len(mem.children):
            mem.children = live
        return live

    # -- multicast -----------------------------------------------------------

    def multicast(self, gid: int, payload_bytes: int, sender: Optional[int] = None,
                  on_member: Optional[Callable[[int], None]] = None) -> MulticastResult:
        """Forward a payload root -> children recursively through the simulator.

        Returns a result object that fills in as the simulator runs; drain
        the simulator to completion before reading it.
        """
        group = self.group(gid)
        if sender is None:
            sender = group.root
        if sender != group.root:
            raise ValueError("multicast must start at the root")
        if not self.overlay.is_alive(sender):
            raise ValueError("root is not alive")
        result = MulticastResult(self.sim.now)
        result.deliveries[sender] = self.sim.now
        if on_member is not None:
            on_member(sender)
        self._forward(group, sender, payload_bytes, result, on_member)
        return result

    def _forward(self, group: GroupState, nid: int, nbytes: int,
                 result: MulticastResult, on_member) -> None:
        for child in self._live_children(group, nid):
            result.forwards += 1

            def deliver(c: int = child) -> None:
                result.deliveries[c] = self.sim.now
                if on_member is not None:
                    on_member(c)
                self._forward(group, c, nbytes, result, on_member)

            self.sim.send(nid, child, nbytes, deliver, kind=MULTICAST)

    # -- heartbeats and self-healing ------------------------------------------

    def enable_heartbeats(self, gid: int) -> None:
        group = self.group(gid)
        if gid in self._heartbeats_on:
            return
        self._heartbeats_on.add(gid)
        self.sim.schedule(self.config.heartbeat_period, lambda: self._tick(group))

    def disable_heartbeats(self, gid: int) -> None:
        self._heartbeats_on.discard(gid)

    def _tick(self, group: GroupState) -> None:
        if group.gid not in self._heartbeats_on:
            return
        self.heartbeat_tick(group.gid, self.sim.now)
        self.sim.schedule(self.config.heartbeat_period, lambda: self._tick(group))

    def heartbeat_tick(self, gid: int, now: float) -> None:
        """One maintenance round: detect dead parents, emit existence messages."""
        group = self.group(gid)
        for nid in sorted(group.members):
            if not self.overlay.is_alive(nid):
                continue
            mem = group.members[nid]
            if (mem.parent is not None
                    and now - mem.last_parent_heartbeat > self.config.failure_timeout):
                self.handle_parent_failure(gid, nid)
        for nid in sorted(group.members):
            if not self.overlay.is_alive(nid):
                continue
            for child in self._live_children(group, nid):

                def beat(c: int = child) -> None:
                    cm = group.members.get(c)
                    if cm is not None:
                        cm.last_parent_heartbeat = self.sim.now

                self.sim.send(nid, child, HEARTBEAT_BYTES, beat, kind=HEARTBEAT)

    def handle_parent_failure(self, gid: int, member: int) -> None:
        """Drop the dead parent link and re-route a JOIN, subtree in tow."""
        group = self.group(gid)
        mem = group.members[member]
        old_parent = mem.parent
        if old_parent is not None and old_parent in group.members:
            pc = group.members[old_parent].children
            if member in pc:
                pc.remove(member)
                self._resize_chain(group, old_parent, -group.sizes.get(member, 0))
        mem.parent = None
        group.rejoins += 1
        if old_parent is not None and not self.overlay.is_alive(old_parent):
            group.dead_parent_rejoins += 1
        self._attach(group, member)

    def remove_member(self, gid: int, member: int) -> None:
        """Forget a membership entirely; orphaned children re-attach now."""
        group = self.group(gid)
        mem = group.members.pop(member, None)
        if mem is None:
            return
        group.sizes_version = -1
        if mem.parent is not None and mem.parent in group.members:
            siblings = group.members[mem.parent].children
            if member in siblings:
                siblings.remove(member)
        node = self.overlay.nodes.get(member)
        if node is not None:
            node.memberships.pop(gid, None)
        for child in list(mem.children):
            cm = group.members.get(child)
            if cm is not None and cm.parent == member and self.overlay.is_alive(child):
                cm.parent = None
                group.rejoins += 1
                self._attach(group, child)

    # -- inspection ------------------------------------------------------------

    def live_members(self, gid: int) -> list[int]:
        group = self.group(gid)
        return sorted(m for m in group.members if self.overlay.is_alive(m))

    def leaves(self, gid: int) -> list[int]:
        """Live members with no live children."""
        group = self.group(gid)
        return sorted(
            m for m in group.members
            if self.overlay.is_alive(m) and not self._live_children(group, m)
        )

    def depth_of(self, gid: int, nid: int) -> int:
        group = self.group(gid)
        depth = 0
        cur = group.members[nid].parent
        while cur is not None:
            depth += 1
            cur = group.members[cur].parent
        return depth

    def tree_stats(self, gid: int) -> TreeStats:
        group = self.group(gid)
        hist: dict[int, int] = {}
        max_fan = 0
        count = 0
        stack = [(group.root, 0)]
        while stack:
            nid, d = stack.pop()
            count += 1
            hist[d] = hist.get(d, 0) + 1
            kids = self._live_children(group, nid)
            max_fan = max(max_fan, len(kids))
            stack.extend((c, d + 1) for c in kids)
        depth = max(hist) if hist else 0
        return TreeStats(count, depth, max_fan, dict(sorted(hist.items())),
                         group.rejoins, group.dead_parent_rejoins)

    def validate(self, gid: int) -> list[str]:
        """Structural invariant check over live members; empty list == valid."""
        group = self.group(gid)
        problems: list[str] = []
        live = self.live_members(gid)
        roots = [m for m in live if group.members[m].parent is None]
        if len(roots) != 1:
            problems.append(f"expected exactly one root, found {len(roots)}")
        for m in live:
            mem = group.members[m]
            kids = self._live_children(group, m)
            if len(kids) > self.config.fanout_cap:
                problems.append(f"fanout cap exceeded at {hex_id(m)}")
            if len(set(kids)) != len(kids):
                problems.append(f"duplicate child at {hex_id(m)}")
            for c in kids:
                if group.members.get(c) is None or group.members[c].parent != m:
                    problems.append(f"parent/child mismatch at {hex_id(m)}")
            p = mem.parent
            if p is not None:
                if p not in group.members or m not in group.members[p].children:
                    problems.append(f"child not registered at parent of {hex_id(m)}")
                if not self.overlay.is_alive(p):
                    problems.append(f"live member {hex_id(m)} has dead parent")
        if not roots:
            return problems
        reached = set()
        stack = [roots[0]]
        while stack:
            cur = stack.pop()
            if cur in reached:
                problems.append(f"cycle through {hex_id(cur)}")
                break
            reached.add(cur)
            stack.extend(self._live_children(group, cur))
        if reached != set(live):
            problems.append(
                f"tree covers {len(reached)} of {len(live)} live members"
            )
        return problems

    def export_edges(self, gid: int, path: str) -> None:
        """Line-delimited parent/child edge records (tab-separated hex ids)."""
        group = self.group(gid)
        with open(path, "w", encoding="utf-8") as fh:
            stack = [group.root]
            while stack:
                nid = stack.pop()
                for c in self._live_children(group, nid):
                    fh.write(f"{hex_id(nid)}\t{hex_id(c)}\n")
                    stack.append(c)
