import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dhtfed.overlay import Overlay, random_ids
from dhtfed.simnet import AGG_UP, HEARTBEAT, LinkModel, Simulator
from dhtfed.tree import TreeConfig, TreeManager

# A message kind no protocol sends; the pinned trace carries it as text.
JOIN = "JOIN"


def test_zero_delay_runs_before_positive_delay():
    sim = Simulator(seed=0)
    order = []
    sim.schedule(5.0, lambda: order.append("late"))
    sim.schedule(0.0, lambda: order.append("now"))
    sim.run()
    assert order == ["now", "late"]


def test_equal_time_events_run_in_schedule_order():
    sim = Simulator(seed=0)
    order = []
    for i in range(10):
        sim.schedule(3.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_pop_order_matches_sort_oracle():
    sim = Simulator(seed=0)
    rng = random.Random(1)
    planned = []
    executed = []
    for i in range(100_000):
        t = rng.uniform(0, 1000)
        planned.append((t, i))
        sim.schedule(t, lambda key=(t, i): executed.append(key))
    sim.run()
    assert executed == sorted(planned)


def test_zero_payload_fixed_latency_delivers_exactly():
    sim = Simulator(seed=0, link=LinkModel(5, 5, 100))
    times = []
    sim.send(1, 2, 0, lambda: times.append(sim.now))
    sim.run()
    assert times == [5.0]


def test_transmission_time_is_linear_in_bytes():
    link = LinkModel(7, 7, 128.0)
    sim = Simulator(seed=0, link=link)
    deliveries = {}
    for nbytes in (256, 512, 1024, 4096):
        sim.send(1, 2, nbytes, lambda b=nbytes: deliveries.setdefault(b, sim.now))
    sim.run()
    for nbytes, t in deliveries.items():
        assert t == pytest.approx(7 + nbytes / 128.0)
    base = deliveries[256] - 7
    assert deliveries[512] - 7 == pytest.approx(2 * base)
    assert deliveries[4096] - 7 == pytest.approx(16 * base)


def test_doubling_payload_doubles_transfer_component():
    rng = random.Random(3)
    for _ in range(50):
        nbytes = rng.randrange(1, 1 << 20)
        sim = Simulator(seed=9, link=LinkModel(0, 0, 333.0))
        got = {}
        sim.send(1, 2, nbytes, lambda: got.setdefault("a", sim.now))
        sim.send(1, 2, 2 * nbytes, lambda: got.setdefault("b", sim.now))
        sim.run()
        assert got["b"] == pytest.approx(2 * got["a"])


def test_run_until_on_empty_queue_advances_clock():
    sim = Simulator(seed=0)
    assert sim.run_until(123.0) == 0
    assert sim.now == 123.0


def test_run_until_executes_only_due_events():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    assert sim.run_until(15) == 1
    assert fired == [10]
    assert sim.now == 15
    sim.run()
    assert fired == [10, 20]


def test_identical_seed_and_schedule_gives_identical_trace_hash():
    def drive(seed):
        sim = Simulator(seed=seed, link=LinkModel(1, 9, 64), keep_trace=True)
        rng = random.Random(5)
        for _ in range(500):
            src, dst = rng.randrange(10), rng.randrange(10)
            sim.send(src, dst, rng.randrange(1, 1000), lambda: None)
        sim.run()
        return sim.trace_hash()

    assert drive(4) == drive(4)
    assert drive(4) != drive(5)


# The sha256 of the event trace below, measured before messages became queue
# entries of their own. Any change to latency draws, event order, drops or
# byte counts moves it.
PINNED_TRACE = "9244fee9e3f7d93a4143214d8f036ec066a482a74407ff16aa0f07a64d89c13d"


def test_event_trace_is_pinned():
    ids = random_ids(40, 17)
    overlay = Overlay.build(ids)
    sim = Simulator(seed=23, link=LinkModel(2.0, 30.0, 64.0),
                    alive=overlay.is_alive, keep_trace=True)
    trees = TreeManager(overlay, sim, TreeConfig(
        fanout_cap=3, heartbeat_period=100.0, failure_timeout=300.0))
    gid, root = trees.create_group("pin")
    for nid in ids:
        if nid != root:
            trees.join_group(nid, gid)

    # Sends interleaved with plain scheduled actions that send in turn; one
    # message goes to a node that is dead by the time it arrives.
    rng = random.Random(29)
    dead = ids[7]
    for i in range(60):
        src, dst = rng.sample([n for n in ids if n != dead], 2)
        if i == 20:
            dst = dead
        sim.send(src, dst, rng.randrange(0, 900), lambda: None,
                 kind=(AGG_UP, JOIN)[i % 2])
        if i % 3 == 0:
            def relay(a=dst, b=src, nbytes=i * 11):
                if overlay.is_alive(a):
                    sim.send(a, b, nbytes, lambda: None, kind=AGG_UP)
            sim.schedule(rng.uniform(0.0, 40.0), relay)
        if i == 10:
            overlay.fail(dead)
    assert sim.run_until(35.0) > 0
    assert sim.pending() > 0  # the cut-off left events queued
    sim.run()

    # A multicast, then heartbeats that detect a failed interior member.
    trees.multicast(gid, 333)
    sim.run()
    group = trees.groups[gid]
    interior = sorted(n for n, m in group.members.items()
                      if m.children and n != root and overlay.is_alive(n))[0]
    overlay.fail(interior)
    trees.enable_heartbeats(gid)
    sim.run_until(sim.now + 700.0)
    trees.disable_heartbeats(gid)
    sim.run()

    assert sim.dropped == 1 and group.rejoins > 0
    assert any(kind == HEARTBEAT for _t, kind, *_rest in sim.trace)
    assert len(sim.trace) == 370
    assert sim.trace_hash() == PINNED_TRACE


def test_messages_to_dead_nodes_drop_and_conserve():
    dead = {2}
    sim = Simulator(seed=0, alive=lambda nid: nid not in dead)
    delivered = []
    sim.send(1, 2, 10, lambda: delivered.append(2))
    sim.send(1, 3, 10, lambda: delivered.append(3))
    sim.run()
    assert delivered == [3]
    assert sim.sent == 2
    assert sim.delivered + sim.dropped == sim.sent
    assert sim.ingress_bytes.get(2) is None
    assert sim.ingress_bytes[3] == 10


@pytest.mark.parametrize("drain", ["run", "run_until"])
def test_a_message_dropped_at_a_dead_receiver_counts_as_an_event(drain):
    # One scheduled action, one send and a batch of three: four messages,
    # three of them to the dead node 2, make five events.
    sim = Simulator(seed=0, alive=lambda nid: nid != 2)
    delivered = []
    sim.schedule(5, lambda: None)
    sim.send(1, 2, 10, lambda: delivered.append("send"))
    sim.send_many([(1, 2, 10), (1, 3, 10), (1, 2, 0)], delivered.append, AGG_UP)
    events = sim.run() if drain == "run" else sim.run_until(1000)
    assert events == 5
    assert (sim.sent, sim.delivered, sim.dropped) == (4, 1, 3)
    assert delivered == [1] and sim.pending() == 0


def test_dead_sender_rejected():
    sim = Simulator(seed=0, alive=lambda nid: nid != 1)
    with pytest.raises(ValueError):
        sim.send(1, 2, 10, lambda: None)


def test_clock_never_runs_backwards():
    sim = Simulator(seed=0)
    sim.run_until(50)
    with pytest.raises(ValueError):
        sim.run_until(10)
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_rejected_and_change_nothing(bad):
    # A NaN entry at the head of the queue used to stop `run` before
    # anything queued after it; `run_until(nan)` set the clock to NaN.
    sim = Simulator(seed=0)
    fired = []
    with pytest.raises(ValueError, match="not finite"):
        sim.schedule(bad, lambda: fired.append("bad"))
    with pytest.raises(ValueError, match="not finite"):
        sim.run_until(bad)
    assert sim.now == 0.0 and sim.pending() == 0
    sim.schedule(5, lambda: fired.append("late"))
    assert sim.run() == 1
    assert fired == ["late"] and sim.now == 5.0


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(5, 1, 10)
    with pytest.raises(ValueError):
        LinkModel(1, 5, 0)
    for lat_lo, lat_hi, match in [(-60, 50, "lat_lo must be >= 0"),
                                  (-5, -1, "lat_lo must be >= 0"),
                                  (math.nan, 50, "finite"), (1, math.nan, "finite"),
                                  (1, math.inf, "finite"), (-math.inf, 5, "finite")]:
        with pytest.raises(ValueError, match=match):
            LinkModel(lat_lo, lat_hi, 10)
    for bandwidth in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkModel(1, 5, bandwidth)
    LinkModel(0, 0, 1e-3)  # zero latency is allowed


def test_negative_payload_rejected_before_anything_is_queued():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError, match="payload_bytes"):
        sim.send(1, 2, -1, lambda: None)
    assert sim.pending() == 0 and sim.sent == 0 and sim.egress_bytes == {}


def test_send_many_rejects_before_anything_is_queued():
    for msgs, match in [([(1, 2, 10), (9, 2, 10)], "sender"),
                        ([(1, 2, 10), (1, 2, -1)], "payload_bytes")]:
        sim = Simulator(seed=0, alive=lambda nid: nid != 9)
        state = sim.rng.getstate()
        with pytest.raises(ValueError, match=match):
            sim.send_many(msgs, lambda i: None, AGG_UP)
        assert sim.pending() == 0 and sim.sent == 0 and sim.egress_bytes == {}
        assert sim._seq == 0 and sim.rng.getstate() == state


class _Boom(Exception):
    pass


class _Twin:
    """One simulator driven by a script; `batched` sends each batch with
    `send_many`, otherwise with one `send` per message."""

    def __init__(self, batched: bool, link: LinkModel):
        self.batched = batched
        self.dead = {5}
        self.sim = Simulator(seed=11, link=link, alive=lambda n: n not in self.dead,
                             keep_trace=True)
        self.log = []

    def batch(self, tag, msgs, reactions, kind=AGG_UP):
        if self.batched:
            self.sim.send_many(msgs, lambda i: self.arrive((tag, i), reactions[i]), kind)
        else:
            for i, (src, dst, nbytes) in enumerate(msgs):
                self.sim.send(src, dst, nbytes,
                              lambda i=i: self.arrive((tag, i), reactions[i]), kind=kind)

    def arrive(self, tag, reaction):
        """Log the arrival, then react: schedule an action, send once, send
        a batch or raise."""
        sim = self.sim
        self.log.append((tag, sim.now))
        if reaction is None:
            return
        what, arg = reaction
        if what == "schedule":
            sim.schedule(arg, lambda: self.log.append((tag + ("action",), sim.now)))
        elif what == "send":
            dst, nbytes = arg
            sim.send(tag[-1] % 3, dst, nbytes,
                     lambda: self.log.append((tag + ("reply",), sim.now)), kind=JOIN)
        elif what == "batch":
            self.batch(tag + ("batch",), [(tag[-1] % 3, dst, nbytes) for dst, nbytes in arg],
                       [None] * len(arg), kind=HEARTBEAT)
        else:
            raise _Boom()

    def step(self, k, op):
        """Run one script step; returns what it returned or raised."""
        what, arg = op
        try:
            if what == "batch":
                msgs, reactions = arg
                return self.batch((k,), msgs, reactions)
            if what == "send":
                src, dst, nbytes = arg
                return self.sim.send(src, dst, nbytes,
                                     lambda: self.log.append(((k,), self.sim.now)))
            if what == "schedule":
                return self.sim.schedule(arg, lambda: self.log.append(((k,), self.sim.now)))
            if what == "fail":
                self.dead.add(arg)
                return None
            if what == "run_until":
                return self.sim.run_until(self.sim.now + arg)
            return self.sim.run()
        except _Boom:
            return "boom"

    def state(self):
        sim = self.sim
        return (sim.trace, sim.sent, sim.delivered, sim.dropped, sim.ingress_bytes,
                sim.egress_bytes, sim.now, self.log, sim.rng.getstate())


# Senders 0-2 stay alive; receivers 0-5 include node 5, always dead, and
# nodes 3 and 4, which a script may fail.
_NBYTES = st.sampled_from([0, 0, 1, 64, 333, 900])
_REACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 3.0, 20.0])),
    st.tuples(st.just("send"), st.tuples(st.integers(0, 5), _NBYTES)),
    st.tuples(st.just("batch"), st.lists(st.tuples(st.integers(0, 5), _NBYTES),
                                         max_size=4)),
    st.tuples(st.just("raise"), st.none()),
)
_BATCH = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 5), _NBYTES),
                            _REACTIONS), max_size=12).map(
    lambda pairs: ([m for m, _r in pairs], [r for _m, r in pairs]))
_OPS = st.one_of(
    st.tuples(st.just("batch"), _BATCH),
    st.tuples(st.just("send"), st.tuples(st.integers(0, 2), st.integers(0, 5), _NBYTES)),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 1.0, 7.5, 30.0])),
    st.tuples(st.just("fail"), st.integers(3, 4)),
    st.tuples(st.just("run_until"), st.sampled_from([0.0, 5.0, 12.0, 25.0, 60.0])),
    st.tuples(st.just("run"), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(link=st.sampled_from([LinkModel(5.0, 5.0, 100.0), LinkModel(0.0, 0.0, 64.0),
                             LinkModel(2.0, 30.0, 64.0)]),
       script=st.lists(_OPS, max_size=25))
def test_send_many_matches_a_loop_of_sends(link, script):
    batched, looped = _Twin(True, link), _Twin(False, link)
    for k, op in enumerate(script + [("run", None)] * 3):
        assert batched.step(k, op) == looped.step(k, op)
        assert batched.state() == looped.state()
