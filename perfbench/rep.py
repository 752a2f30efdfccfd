"""One repetition of one workload, run in its own process by `run.py`.

    python3 perfbench/rep.py --workload churn --seed 1 --trace 0

Prints one JSON object: the end-to-end figures of the repetition, the
per-scenario digests, the correctness violations found, and with
`--trace 1` the per-layer metrics.

The repetition runs pinned to one CPU beside a host-speed probe
(`hostspeed.py`). Its timings `run_s` and `setup_s` are CPU seconds
rescaled to the probe's nominal speed, window by window (each scenario's
set-up, then its rounds), so that a slow spell of a shared host does not
read as slow code. The raw `wall_s` and the mean `host_slowdown` are
reported beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import hostspeed
import tracing
from workloads import scenario_kwargs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_dhtfed():
    """Import dhtfed from this checkout's `src/`, and from nowhere else."""
    if not (SRC / "dhtfed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dhtfed sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dhtfed
    import dhtfed.harness

    if Path(dhtfed.__file__).resolve().parent != (SRC / "dhtfed").resolve():
        raise SystemExit(f"perfbench: dhtfed imported from {dhtfed.__file__}")
    return dhtfed


def digest(result) -> str:
    """sha256 over `records_blob()`, then the final weights in name order."""
    h = hashlib.sha256(result.records_blob())
    for name in sorted(result.final_weights):
        h.update(result.final_weights[name])
    return h.hexdigest()


def run_rep(workload: str, seed: int, trace: bool, tiny: bool = False,
            spans_path: str | None = None) -> dict:
    """Run every scenario of the workload once and check its outputs."""
    dhtfed = load_dhtfed()
    configs = [dhtfed.ScenarioConfig(**kw)
               for kw in scenario_kwargs(workload, seed, tiny)]

    hooks = tracing.Hooks()
    first_round: dict[int, tuple[float, float]] = {}
    sessions: dict[int, object] = {}
    tracing.install_probes(hooks, dhtfed, first_round)
    if trace:
        tracing.install_spans(hooks, dhtfed, sessions)
        hooks.span(dhtfed.harness, "run_scenario", "harness.scenario")

    wall = 0.0
    windows = []  # (start, first round, end, and the CPU time at each)
    tree_rounds = 0
    digests, violations = [], []
    failed_scenarios = 0
    finals, sim_ms, sim_bytes = [], [], []
    depth_max = fanout_max = msg_log_len = 0
    probe = hostspeed.Probe()
    try:
        for i, cfg in enumerate(configs):
            hooks.scenario = i
            before = dict(hooks.counts)
            start, cpu_start = hooks.clock(), time.process_time()
            result = dhtfed.harness.run_scenario(cfg)
            end, cpu_end = hooks.clock(), time.process_time()
            wall += end - start
            first, cpu_first = first_round.get(i, (end, cpu_end))
            windows.append((start, first, end, cpu_start, cpu_first, cpu_end))

            problems = []
            for action in ("fail", "rejoin"):
                want = sum(1 for e in cfg.failures if e[2] == action)
                key = f"overlay.{action}_calls"
                got = hooks.counts[key] - before.get(key, 0)
                if got != want:
                    problems.append(f"{cfg.name}: {got} Overlay.{action} calls "
                                    f"for {want} scheduled")
            for m in result.round_metrics:
                if m.root_weight != m.contributors:
                    problems.append(f"{cfg.name} round {m.round}: root weight "
                                    f"{m.root_weight} != {m.contributors} contributors")
            if len(result.round_metrics) != cfg.rounds * cfg.tree_count:
                problems.append(f"{cfg.name}: {len(result.round_metrics)} round "
                                f"metrics for {cfg.rounds * cfg.tree_count} tree-rounds")
            violations += problems
            failed_scenarios += bool(problems)

            digests.append(digest(result))
            tree_rounds += len(result.round_metrics)
            last = cfg.rounds - 1
            finals += [r.accuracy for r in result.records if r.round == last]
            sim_ms += [m.root_latency + m.dissemination for m in result.round_metrics]
            sim_bytes += [m.total_bytes for m in result.round_metrics]
            for stats in result.tree_stats.values():
                depth_max = max(depth_max, stats.depth)
                fanout_max = max(fanout_max, stats.max_fanout)
            msg_log_len += sum(len(s.msg_log) for s in sessions.values())
            sessions.clear()
            del result
            # Free what the scenario left in reference cycles now, so that the
            # next scenario's peak does not depend on when the collector ran.
            gc.collect()
    finally:
        hooks.remove()
        samples = probe.stop()

    whole = hostspeed.slowdown(samples, -math.inf, math.inf, 1.0)
    setup = rounds = 0.0
    for start, first, end, cpu_start, cpu_first, cpu_end in windows:
        scenario = hostspeed.slowdown(samples, start, end, whole)
        setup += (cpu_first - cpu_start) / hostspeed.slowdown(samples, start, first, scenario)
        rounds += (cpu_end - cpu_first) / hostspeed.slowdown(samples, first, end, scenario)

    out = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "scenarios": len(configs), "failed": failed_scenarios,
        "violations": violations, "digests": digests,
        "run_s": setup + rounds, "setup_s": setup,
        "rounds_per_s": tree_rounds / rounds,
        "wall_s": wall, "host_slowdown": whole,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_acc": sum(finals) / len(finals),
        "sim_round_ms": sum(sim_ms) / len(sim_ms),
        "sim_bytes_per_round": sum(sim_bytes) / len(sim_bytes),
    }
    if trace:
        layers = tracing.layer_metrics(hooks.spans, hooks.counts)
        layers["tree.depth_max"] = (float(depth_max), "count", "from tree_stats")
        layers["tree.fanout_max"] = (float(fanout_max), "count", "from tree_stats")
        layers["fedagg.msg_log_len"] = (float(msg_log_len), "count",
                                        "len(session.msg_log) at run end, summed")
        layers["sim_round_ms"] = (out["sim_round_ms"], "sim_ms",
                                  "mean root_latency + dissemination per round")
        out["layers"] = layers
        if spans_path:
            hooks.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args(argv)
    print(json.dumps(run_rep(args.workload, args.seed, bool(args.trace),
                             spans_path=args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
