"""Host-speed probe: how fast the CPU under a repetition runs, moment by moment.

On a shared virtual machine the same code runs up to about 1.9x slower for
seconds at a time, whenever another tenant loads the hardware the vCPU sits
on; CPU time stretches with it, so neither wall nor CPU seconds of one run
compare with those of another. A repetition therefore pins itself to one
CPU and starts this probe on the same CPU. Every PERIOD_S the probe runs a
fixed block of interpreter and small-numpy work, like the simulator's own
mix, and records the block's CPU time. A window of the repetition that took
`cpu_s` CPU seconds while the probe blocks averaged `p` seconds would have
taken `cpu_s * NOMINAL_S / p` at the probe's nominal speed; `slowdown()`
gives `p / NOMINAL_S`.

    python3 perfbench/hostspeed.py --cpu 1

runs the probe until its stdin closes, then prints its samples as one JSON
list of `[mid_time, block_cpu_s]` (times from `time.perf_counter`).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.045
# CPU time of one block beside a running repetition, in the quietest spells
# of a 2-vCPU x86-64 VM; it only sets the scale of the adjusted seconds.
NOMINAL_S = 0.0022
# A window with fewer samples takes the enclosing window's speed.
MIN_SAMPLES = 4

_W = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_X = np.linspace(0.0, 1.0, 128).reshape(8, 16)


def block() -> None:
    """The fixed work: dict updates, a bounded heap, small matrix products."""
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(3000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    for _ in range(100):
        np.tanh(_X @ _W)


def probe(cpu: int) -> list[list[float]]:
    """Sample until stdin reaches end of file."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start, cpu_start = time.perf_counter(), time.process_time()
        block()
        end, cpu_end = time.perf_counter(), time.process_time()
        samples.append([(start + end) / 2, cpu_end - cpu_start])
    return samples


class Probe:
    """Pin this process to one CPU and run the probe beside it until `stop()`."""

    def __init__(self):
        self.affinity = os.sched_getaffinity(0)
        self.cpu = max(self.affinity)
        os.sched_setaffinity(0, {self.cpu})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--cpu", str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> list[tuple[float, float]]:
        """End the probe, wait for it, and return its samples."""
        out, _ = self.proc.communicate(timeout=30)
        os.sched_setaffinity(0, self.affinity)
        if self.proc.returncode != 0:
            raise RuntimeError(f"host-speed probe exited with {self.proc.returncode}")
        return [tuple(s) for s in json.loads(out)]


def slowdown(samples, t0: float, t1: float, fallback: float) -> float:
    """Mean block time over [t0, t1] relative to NOMINAL_S, or `fallback`."""
    inside = [d for t, d in samples if t0 <= t <= t1]
    if len(inside) < MIN_SAMPLES:
        return fallback
    return statistics.fmean(inside) / NOMINAL_S


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(probe(args.cpu)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
