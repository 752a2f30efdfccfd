"""Seeded scenario generators for the benchmark workloads.

Each workload turns one seed into a list of `ScenarioConfig`s; the program
under test sees nothing else. The same seed always gives the same configs.
Every workload runs its scenarios one after another in one process (a
closed loop: a scenario starts only when the previous one has finished).

Why each workload exists, and which layer it should load:

- sweep: the paper's headline single- vs mixed-topic study (criterion-8
  grid corners) with the paper's model. Local fine-tuning dominates;
  overlay, tree and simnet barely work. A model/fedagg optimisation shows
  here; a tree or overlay one should not move it.
- gossip: one large decentralized scenario with a light model. It is
  message-bound: simnet, `Overlay.route` and gossip merging do the work and
  the overlay is only read.
- churn: two large centralized scenarios with fail/rejoin events. It writes
  overlay and tree state: `Overlay.build`, tree joins, `Overlay.repair`,
  heartbeat ticks, `Overlay.join` and parent-failure rejoins, including the
  rejoin storm, which is reported as it is.

Decentralized mode combined with mid-run failures is left out on purpose:
it currently stops with `ProtocolError: social graph does not cover leaf`.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "gossip", "churn")

# The light model keeps fine-tuning small where another layer is the target.
LIGHT_MODEL = dict(hidden_dim=8, steps=1, batch=8, points_per_node=32)


def scenario_kwargs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """Keyword arguments for each `ScenarioConfig` of one workload run.

    `tiny` shrinks every scenario to a few nodes and rounds; it keeps the
    shape of the workload (modes, trees, failures) for smoke tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"perfbench-{workload}-{seed}")
    if workload == "sweep":
        out = []
        for assignment, trees in (("single", 3), ("mixed", 1)):
            for points in (200, 2000):
                out.append(dict(
                    seed=rng.randrange(1, 1 << 31),
                    name=f"sweep-{assignment}-{points}",
                    nodes=60, rounds=10, mode="centralized", topics=3,
                    assignment=assignment, tree_count=trees,
                    points_per_node=points))
                if tiny:
                    out[-1].update(nodes=12, rounds=2,
                                   points_per_node=points // 20)
        return out
    if workload == "gossip":
        kw = dict(seed=rng.randrange(1, 1 << 31), name="gossip",
                  nodes=1000, rounds=6, mode="decentralized", gossip_k=4,
                  topics=1, tree_count=1, assignment="single", **LIGHT_MODEL)
        if tiny:
            kw.update(nodes=40, rounds=2)
        return [kw]
    # Two scenarios of 1700 nodes do the O(N^2) join work of one of 2400,
    # and average out much of the seed-to-seed change in the rejoin storm.
    nodes = 60 if tiny else 1700
    out = []
    for k in range(2):
        failed = rng.sample(range(nodes), max(2, nodes // 50))
        back = failed[: len(failed) // 2]
        events = [(0.0, idx, "fail") for idx in failed]
        events += [(8000.0, idx, "rejoin") for idx in back]
        out.append(dict(seed=rng.randrange(1, 1 << 31), name=f"churn-{k}",
                        nodes=nodes, rounds=2, mode="centralized", topics=3,
                        tree_count=3, assignment="single", failures=events,
                        **LIGHT_MODEL))
    return out
