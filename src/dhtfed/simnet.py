"""Deterministic discrete-event network simulation.

A single global event queue ordered by (fire_time, sequence) drives every
run. All randomness (per-message latency) comes from one seeded generator,
so a fixed seed plus a fixed schedule reproduces the exact event trace.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# Message kinds flowing through the simulated network.
MULTICAST = "MULTICAST"
AGG_UP = "AGG_UP"
HEARTBEAT = "HEARTBEAT"


@dataclass
class LinkModel:
    """Per-message latency band and link bandwidth.

    Latency is sampled uniformly from [lat_lo, lat_hi] ms per message;
    transmission time adds payload_bytes / bandwidth ms on top.
    """

    lat_lo: float = 10.0
    lat_hi: float = 50.0
    bandwidth: float = 1048.576  # bytes per ms (~1 MiB/s)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat_lo) and math.isfinite(self.lat_hi)):
            raise ValueError("lat_lo and lat_hi must be finite")
        if self.lat_lo < 0:
            raise ValueError("lat_lo must be >= 0")
        if self.lat_lo > self.lat_hi:
            raise ValueError("lat_lo must be <= lat_hi")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")


class Simulator:
    """Event loop with a simulated clock, message latency and drop-to-dead.

    `alive` is a predicate used at delivery time; messages to nodes that
    died in flight are counted as dropped, never delivered.

    The queue holds three kinds of entries, ordered by (fire_time, sequence):
    `(time, seq, action)` from `schedule`; a message from `send`,
    `(time, seq, on_deliver, src, dst, payload_bytes, kind)`; and a batch
    from `send_many`, `(time, seq, batch, pos)`, keyed by the earliest of
    its messages not yet delivered. The loop delivers each message itself
    (drop check, ingress counters, trace) before calling its callback.
    """

    def __init__(self, seed: int = 0, link: Optional[LinkModel] = None,
                 alive: Optional[Callable[[int], bool]] = None,
                 keep_trace: bool = False):
        self.now = 0.0
        self.link = link or LinkModel()
        self.rng = random.Random(seed)
        self.alive = alive or (lambda _nid: True)
        self._queue: list[tuple] = []
        self._seq = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.ingress_bytes: dict[int, int] = {}
        self.egress_bytes: dict[int, int] = {}
        self.trace: list[tuple[float, str, int, int, int]] = [] if keep_trace else None

    def schedule(self, delay: float, action: Callable[[], None]) -> int:
        if not math.isfinite(delay):
            raise ValueError(f"delay {delay} is not finite")
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, action))
        return self._seq

    def send(self, src: int, dst: int, payload_bytes: int,
             on_deliver: Callable[[], None], kind: str = MULTICAST) -> None:
        """Schedule a delivery at now + latency + bytes/bandwidth."""
        if not self.alive(src):
            raise ValueError("sender is not alive")
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        link = self.link
        # The same arithmetic as rng.uniform(lat_lo, lat_hi), one draw per send.
        latency = link.lat_lo + (link.lat_hi - link.lat_lo) * self.rng.random()
        delay = latency + payload_bytes / link.bandwidth
        self.sent += 1
        self.egress_bytes[src] = self.egress_bytes.get(src, 0) + payload_bytes
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, on_deliver,
                                     src, dst, payload_bytes, kind))

    def send_many(self, msgs: list[tuple[int, int, int]],
                  on_deliver: Callable[[int], None], kind: str = MULTICAST) -> None:
        """Send each `msgs[i] = (src, dst, payload_bytes)`, calling
        `on_deliver(i)` when it arrives, exactly as `len(msgs)` successive
        `send` calls would: the same latency draws in list order,
        consecutive sequence numbers, and one event per message. The whole
        batch takes one queue entry. Every message is checked before any
        latency is drawn.
        """
        alive = self.alive
        for src, _dst, nbytes in msgs:
            if not alive(src):
                raise ValueError("sender is not alive")
            if nbytes < 0:
                raise ValueError("payload_bytes must be >= 0")
        if not msgs:
            return
        link = self.link
        lat_lo, lat_span, bandwidth = link.lat_lo, link.lat_hi - link.lat_lo, link.bandwidth
        draw, now, egress_bytes = self.rng.random, self.now, self.egress_bytes
        times = []
        for src, _dst, nbytes in msgs:
            times.append(now + (lat_lo + lat_span * draw() + nbytes / bandwidth))
            egress_bytes[src] = egress_bytes.get(src, 0) + nbytes
        self.sent += len(msgs)
        seq0 = self._seq + 1
        self._seq += len(msgs)
        # A stable sort: messages due at the same time stay in list order,
        # which is their sequence order.
        order = sorted(range(len(msgs)), key=times.__getitem__)
        first = order[0]
        heapq.heappush(self._queue, (times[first], seq0 + first,
                                     (msgs, times, order, seq0, on_deliver, kind), 0))

    def _drain(self, t_end: float) -> int:
        """Execute events in order while the next one fires at or before t_end."""
        queue, alive, trace = self._queue, self.alive, self.trace
        ingress_bytes = self.ingress_bytes
        heappop, heappush = heapq.heappop, heapq.heappush
        count = 0
        while queue and queue[0][0] <= t_end:
            entry = heappop(queue)
            t = entry[0]
            if len(entry) == 3:
                self.now = t
                count += 1
                entry[2]()
                continue
            if len(entry) == 7:
                _t, _seq, on_deliver, src, dst, nbytes, kind = entry
                batch = None
            else:
                _t, _seq, batch, pos = entry
                msgs, times, order, seq0, on_deliver, kind = batch
                i = order[pos]
                src, dst, nbytes = msgs[i]
            while True:
                self.now = t
                count += 1
                if not alive(dst):
                    self.dropped += 1
                else:
                    self.delivered += 1
                    ingress_bytes[dst] = ingress_bytes.get(dst, 0) + nbytes
                    if trace is not None:
                        trace.append((t, kind, src, dst, nbytes))
                    if batch is None:
                        on_deliver()
                    else:
                        try:
                            on_deliver(i)
                        except BaseException:
                            if pos + 1 < len(order):  # the rest stays queued
                                i = order[pos + 1]
                                heappush(queue, (times[i], seq0 + i, batch, pos + 1))
                            raise
                if batch is None:
                    break
                pos += 1
                if pos == len(order):
                    break
                i = order[pos]
                t = times[i]
                # The batch goes on in place only while its next message is
                # due by the cut-off and before every other queued event,
                # those its own callbacks just queued included.
                if t > t_end or (queue and queue[0] < (t, seq0 + i)):
                    heappush(queue, (t, seq0 + i, batch, pos))
                    break
                src, dst, nbytes = msgs[i]
        return count

    def run_until(self, t_end: float) -> int:
        """Execute all events with fire_time <= t_end; returns the count.
        `run` drains the whole queue."""
        if not math.isfinite(t_end):
            raise ValueError(f"t_end {t_end} is not finite")
        if t_end < self.now:
            raise ValueError("cannot run backwards")
        count = self._drain(t_end)
        self.now = t_end
        return count

    def run(self) -> int:
        """Drain the whole queue."""
        return self._drain(math.inf)

    def pending(self) -> int:
        return len(self._queue)

    def reset_counters(self) -> None:
        self.sent = self.delivered = self.dropped = 0
        self.ingress_bytes.clear()
        self.egress_bytes.clear()

    def trace_hash(self) -> str:
        if self.trace is None:
            raise ValueError("simulator was created with keep_trace=False")
        h = hashlib.sha256()
        for t, kind, src, dst, nbytes in self.trace:
            h.update(f"{t!r}|{kind}|{src:x}|{dst:x}|{nbytes}\n".encode())
        return h.hexdigest()
