"""Group management: aggregation trees built by routing JOINs toward a group id.

A group's root is the live node closest to the group id. Joins route toward
the group id and are adopted by the first on-path member (interception) or
by the root; full adopters delegate to the child with the fewest live
descendants (ties to the smaller id), so trees stay balanced under the
fanout cap. Parents emit existence messages; a member that stops hearing
from its parent re-issues the JOIN, carrying its whole subtree with it.

Child lists hold only live ids, and each group keeps a count of live
descendants per live member. Attaching a subtree adds its count along the
chain of live ancestors; a parent-failure rejoin, a removed live member and a
reroot subtract what they cut off. So a join, rejoin or removal costs
O(fanout * depth) rather than a walk of every subtree it passes. A group is
recounted only when one of its own members changed liveness (failed, or came
back) since its last sync: then it drops the dead from its child lists and
recounts in one O(members) pass. `TreeManager.group`, each adoption and each
multicast hop check for that. The join or failure of a non-member, such as a
dead member removed before it rejoins, costs no recount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

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
        if not (self.heartbeat_period > 0 and math.isfinite(self.heartbeat_period)):
            raise ValueError("heartbeat_period must be positive and finite")
        if not math.isfinite(self.failure_timeout):
            raise ValueError("failure_timeout must be finite")
        if self.failure_timeout < 2 * self.heartbeat_period:
            raise ValueError("failure_timeout must be >= 2 * heartbeat_period")


@dataclass(slots=True)
class TreeMembership:
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
    def __init__(self, gid: int, name: str, root: int, version: int):
        self.gid = gid
        self.name = name
        self.root = root
        # Every member's `children` holds only live ids, in attach order,
        # from the moment `TreeManager.group` returns until the next liveness
        # change; walks read the lists as they stand.
        self.members: dict[int, TreeMembership] = {}
        self.rejoins = 0
        self.dead_parent_rejoins = 0
        # Live member -> members reachable through its children, itself
        # included, kept up to date by every attach, detach and reroot.
        # Lists and sizes were last synced at Overlay.version ==
        # sizes_version, and stay exact until a node named in
        # `Overlay.liveness_changes[sizes_version:]` is a member.
        self.sizes: dict[int, int] = {}
        self.sizes_version = version


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

    # -- group lifecycle ---------------------------------------------------

    def create_group(self, name: str) -> tuple[int, int]:
        """Route a CREATE from the smallest live id toward the hashed name;
        the delivery node is root."""
        if not self.overlay.nodes:
            raise ValueError("overlay is empty")
        gid = id_from_name(name)
        if gid in self.groups:
            raise ValueError(f"group {name!r} already exists")
        root = self.overlay.route(self.overlay.live_ids()[0], gid).destination
        group = GroupState(gid, name, root, self.overlay.version)
        self._add_member(group, root)
        self.groups[gid] = group
        return gid, root

    def group(self, gid: int) -> GroupState:
        if gid not in self.groups:
            raise KeyError(f"unknown group {hex_id(gid)}")
        group = self.groups[gid]
        self._sync(group)
        return group

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
        mem = TreeMembership()
        group.members[nid] = mem
        group.sizes[nid] = 1
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
        sizes = self._sync(group)
        cur = adopter
        while True:
            children = group.members[cur].children
            if len(children) < self.config.fanout_cap:
                break
            cur = min(zip(map(sizes.__getitem__, children), children))[1]
        group.members[cur].children.append(joiner)
        mem = group.members[joiner]
        mem.parent = cur
        mem.last_parent_heartbeat = self.sim.now
        self._resize_chain(group, cur, sizes[joiner])

    def _sync(self, group: GroupState) -> dict[int, int]:
        """Bring the group up to date and return its sizes. If a member
        changed liveness since the last sync, drop the dead from every
        child list (order kept), then recount the live subtree sizes in one
        pass; otherwise the lists and kept sizes are already exact."""
        overlay = self.overlay
        version = overlay.version
        synced = group.sizes_version
        if synced == version:
            return group.sizes
        members = group.members
        if members.keys().isdisjoint(overlay.liveness_changes[synced:]):
            group.sizes_version = version
            return group.sizes
        alive = overlay.is_alive
        for mem in members.values():
            mem.children = [c for c in mem.children if alive(c)]
        sizes: dict[int, int] = {}
        for top in members:
            if top in sizes or not alive(top):
                continue
            order = [top]  # breadth first: each member after its parent
            for cur in order:
                order.extend(c for c in members[cur].children if c not in sizes)
            for cur in reversed(order):
                sizes[cur] = 1 + sum(sizes[c] for c in members[cur].children)
        group.sizes = sizes
        group.sizes_version = version
        return sizes

    def _resize_chain(self, group: GroupState, nid: int, delta: int) -> None:
        """Add delta to the sizes of nid and its live ancestors, O(depth).

        `sizes` holds exactly the live members, so the walk stops at the
        root or at the first dead ancestor. Stale counts are thrown away by
        the next recount, so updating them does no harm.
        """
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
        links = list(zip(chain, chain[1:]))
        sizes = group.sizes
        # Cut every link, top first, so each chain member keeps the count
        # of its own piece; the adoptions below add the pieces back.
        for child, parent in reversed(links):
            group.members[parent].children.remove(child)
            sizes[parent] -= sizes[child]
        group.members[new_root].parent = None
        group.root = new_root
        # Former parents re-attach as children, through normal delegation so
        # the fanout cap holds even at the pivot.
        for child, parent in links:
            self._adopt(group, child, parent)

    def _in_subtree(self, group: GroupState, node: int, top: int) -> bool:
        """True iff `top` is on `node`'s live parent chain (or equal).

        The walk stops at a dead member: its parent link is stale, and its
        old parent's child list no longer holds it, so `_reroot` must never
        follow the chain through it.
        """
        alive = self.overlay.is_alive
        seen = 0
        cur: Optional[int] = node
        while cur is not None and alive(cur):
            if cur == top:
                return True
            cur = group.members[cur].parent if cur in group.members else None
            seen += 1
            if seen > len(group.members) + 1:
                raise RuntimeError("cycle in tree parent chain")
        return False

    # -- multicast -----------------------------------------------------------

    def multicast(self, gid: int, payload_bytes: int) -> MulticastResult:
        """Forward a payload root -> children recursively through the simulator.

        Returns a result object that fills in as the simulator runs; drain
        the simulator to completion before reading it.
        """
        group = self.group(gid)
        root = group.root
        if not self.overlay.is_alive(root):
            raise ValueError("root is not alive")
        result = MulticastResult(self.sim.now)
        result.deliveries[root] = self.sim.now
        self._forward(group, root, payload_bytes, result)
        return result

    def _forward(self, group: GroupState, nid: int, nbytes: int,
                 result: MulticastResult) -> None:
        self._sync(group)  # a scheduled fail may fire between deliveries
        msgs = [(nid, child, nbytes) for child in group.members[nid].children]
        if not msgs:
            return
        result.forwards += len(msgs)

        def deliver(i: int) -> None:
            child = msgs[i][1]
            result.deliveries[child] = self.sim.now
            self._forward(group, child, nbytes, result)

        self.sim.send_many(msgs, deliver, MULTICAST)

    # -- heartbeats and self-healing ------------------------------------------

    def heal(self, gid: int) -> None:
        """Run the group's heartbeats for one healing window, then drain.

        A root removed with no JOIN since is first handed on to the live
        node closest to the group id. No beats are simulated between
        windows, so a live parent's beats count as heard up to the window's
        start: every member's stamp is set to now, and only a member whose
        parent died times out. Ticks start one period from now and stop
        after `now + failure_timeout + (max(depth, 1) + 1) * heartbeat_period`:
        long enough for every orphan to time out and re-join, even one whose
        new parent is orphaned in turn.
        """
        cfg, now = self.config, self.sim.now
        group = self.group(gid)
        if group.root not in group.members:
            # The root was removed and no JOIN since found it gone.
            live = self.overlay.live_ids()
            if not live:
                return  # no node is up: nothing to heal, nor to walk from
            self._hand_on_root(group, live[0])
        for mem in group.members.values():
            mem.last_parent_heartbeat = now
        depth = max(self.tree_stats(gid).depth, 1)
        end = now + cfg.failure_timeout + (depth + 1) * cfg.heartbeat_period
        self.sim.schedule(cfg.heartbeat_period, partial(self._tick, gid, end))
        self.sim.run()

    def _tick(self, gid: int, end: float) -> None:
        if self.sim.now > end:
            return
        self.heartbeat_tick(gid, self.sim.now)
        self.sim.schedule(self.config.heartbeat_period, partial(self._tick, gid, end))

    def heartbeat_tick(self, gid: int, now: float) -> None:
        """One maintenance round: detect dead parents, emit existence messages."""
        group = self.group(gid)
        alive = self.overlay.is_alive
        members = sorted(group.members)
        for nid in members:
            if not alive(nid):
                continue
            mem = group.members[nid]
            if (mem.parent is not None
                    and now - mem.last_parent_heartbeat > self.config.failure_timeout):
                self.handle_parent_failure(gid, nid)
        # A rejoin removes no member; one whose root is gone may add one.
        if len(members) != len(group.members):
            members = sorted(group.members)
        beats = [(nid, child, HEARTBEAT_BYTES) for nid in members
                 if alive(nid) for child in group.members[nid].children]

        def beat(i: int) -> None:
            cm = group.members.get(beats[i][1])
            if cm is not None:
                cm.last_parent_heartbeat = self.sim.now

        self.sim.send_many(beats, beat, HEARTBEAT)

    def handle_parent_failure(self, gid: int, member: int) -> None:
        """Drop the dead parent link and re-route a JOIN, subtree in tow."""
        group = self.group(gid)
        mem = group.members[member]
        old_parent = mem.parent
        self._detach(group, member, mem)
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
        dead = not self.overlay.is_alive(member)
        self._detach(group, member, mem)
        group.sizes.pop(member, None)
        for child in list(mem.children):
            cm = group.members.get(child)
            if cm is not None and cm.parent == member and self.overlay.is_alive(child):
                cm.parent = None
                group.rejoins += 1
                group.dead_parent_rejoins += dead
                self._attach(group, child)

    def _detach(self, group: GroupState, nid: int, mem: TreeMembership) -> None:
        """Cut nid from its parent; its subtree stays under it. Only a live
        member is counted, in its own and its ancestors' sizes."""
        parent = mem.parent
        if parent is not None and parent in group.members:
            siblings = group.members[parent].children
            if nid in siblings:
                siblings.remove(nid)
                self._resize_chain(group, parent, -group.sizes.get(nid, 0))
        mem.parent = None

    def _hand_on_root(self, group: GroupState, source: int) -> None:
        """Make the live node closest to the group id the root, as a JOIN
        from `source` that finds the root gone would; a member is cut from
        its parent."""
        z = self.overlay.route(source, group.gid).destination
        if z in group.members:
            self._detach(group, z, group.members[z])
        else:
            self._add_member(group, z)
        group.root = z

    # -- inspection ------------------------------------------------------------

    def live_members(self, gid: int) -> list[int]:
        group = self.group(gid)
        return sorted(m for m in group.members if self.overlay.is_alive(m))

    def leaves(self, gid: int) -> list[int]:
        """Live members with no live children."""
        group = self.group(gid)
        return sorted(
            m for m in group.members
            if self.overlay.is_alive(m) and not group.members[m].children
        )

    def walk(self, gid: int) -> list[int]:
        """The members reachable from the root, depth first: each member
        before its children, and children in child-list order."""
        group = self.group(gid)
        order, stack = [], [group.root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(group.members[nid].children))
        return order

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
            kids = group.members[nid].children
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
            kids = mem.children
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
            stack.extend(group.members[cur].children)
        if reached != set(live):
            problems.append(
                f"tree covers {len(reached)} of {len(live)} live members"
            )
        return problems
