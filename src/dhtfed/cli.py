"""Command-line entry points: run scenarios, sweeps, audits, and reports."""

from __future__ import annotations

import argparse
import glob
import logging
import os
import random
import sys

import numpy as np

from .fedagg import (CENTRALIZED, DECENTRALIZED, audit_decentralized_privacy,
                     write_round_log)
from .harness import (MIXED, SINGLE_TOPIC_PER_TREE, Scenario, ScenarioConfig,
                      format_table, measure_dissemination, read_records,
                      run_scenario, summary_rows, write_csv, write_records)
from .model import deserialize_params
from .overlay import Overlay, circular_distance, random_ids


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--quiet", action="store_true")


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1 (an audit of nothing checks nothing)."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _log_progress(quiet: bool) -> None:
    """Per-round progress lines go to stderr unless --quiet."""
    logging.basicConfig(format="%(message)s")
    logging.getLogger("dhtfed").setLevel(logging.WARNING if quiet else logging.INFO)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_run(args) -> int:
    cfg = ScenarioConfig.from_ini(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.nodes is not None:
        cfg.nodes = args.nodes
    if args.rounds is not None:
        cfg.rounds = args.rounds
    if args.fanout is not None:
        cfg.fanout = args.fanout
    if args.mode is not None:
        cfg.mode = args.mode
    _log_progress(args.quiet)
    # run_scenario, plus each tree's round loss after each round: only the
    # round log reads it, so no round computes it by itself.
    scenario = Scenario(cfg)
    losses = []
    for _ in range(cfg.rounds):
        scenario.step()
        losses += [session.round_loss() for session in scenario.sessions]
    result = scenario.result()
    out = _ensure_out(args.out)
    write_records(result.records, os.path.join(out, f"{cfg.name}.jsonl"))
    by_round: dict[int, list[float]] = {}
    for rec in result.records:
        by_round.setdefault(rec.round, []).append(rec.accuracy)
    write_round_log(result.round_metrics, losses,
                    os.path.join(out, f"{cfg.name}-rounds.jsonl"),
                    accuracy={r: sum(v) / len(v) for r, v in by_round.items()})
    rows = summary_rows(result.records)
    write_csv(rows, os.path.join(out, f"{cfg.name}-summary.csv"))
    with open(os.path.join(out, f"{cfg.name}-summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_table(rows))
    if not args.quiet:
        print(format_table(rows), end="")
    return 0


def cmd_sweep(args) -> int:
    out = _ensure_out(args.out)
    nodes = [int(x) for x in args.nodes.split(",")]
    points = [int(x) for x in args.points.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    _log_progress(args.quiet)
    all_rows = []
    for n in nodes:
        for p in points:
            for seed in seeds:
                for assignment, tc in ((SINGLE_TOPIC_PER_TREE, args.topics), (MIXED, 1)):
                    cfg = ScenarioConfig(
                        seed=seed, nodes=n, rounds=args.rounds, fanout=args.fanout,
                        points_per_node=p, topics=args.topics, tree_count=tc,
                        assignment=assignment,
                        name=f"sweep-{assignment}-n{n}-p{p}-s{seed}")
                    result = run_scenario(cfg)
                    write_records(result.records,
                                  os.path.join(out, f"{cfg.name}.jsonl"))
                    for row in summary_rows(result.records):
                        row.update(nodes=n, points=p, seed=seed)
                        all_rows.append(row)
                    if not args.quiet:
                        print(f"done {cfg.name}")
    write_csv(all_rows, os.path.join(out, "sweep-summary.csv"))
    if args.sizes_mib:
        sizes = [int(float(x) * (1 << 20)) for x in args.sizes_mib.split(",")]
        rows = measure_dissemination(sizes, nodes, [1], seed=seeds[0],
                                     fanout=args.fanout)
        drows = [{"nodes": r.nodes, "trees": r.tree_count,
                  "payload_bytes": r.payload_bytes, "depth": r.depth,
                  "completion_ms": round(r.max_ms, 3)} for r in rows]
        write_csv(drows, os.path.join(out, "dissemination.csv"))
        if not args.quiet:
            print(format_table(drows), end="")
    return 0


def cmd_route_check(args) -> int:
    """Audit: every lookup must land on the globally closest live node.

    With --fail K, K nodes drawn from a stream of their own fail first, and
    lookups start at live nodes only; the first route repairs the leaf sets.
    """
    if not 0 <= args.fail < args.nodes:
        raise ValueError(f"--fail must be in [0, {args.nodes})")
    ids = random_ids(args.nodes, args.seed)
    overlay = Overlay.build(ids)
    for nid in random.Random(args.seed + 2).sample(ids, args.fail):
        overlay.fail(nid)
    live = overlay.live_ids()
    rng = random.Random(args.seed + 1)
    bad = 0
    worst = 0
    total = 0
    for _ in range(args.lookups):
        src = live[rng.randrange(len(live))]
        key = rng.getrandbits(128)
        res = overlay.route(src, key)
        oracle = min(live, key=lambda m: (circular_distance(m, key), m))
        if res.destination != oracle:
            bad += 1
        worst = max(worst, res.hop_count)
        total += res.hop_count
    mean = total / args.lookups
    failed = f" failed={args.fail}" if args.fail else ""
    print(f"route-check: n={args.nodes}{failed} lookups={args.lookups} "
          f"misdelivered={bad} max_hops={worst} mean_hops={mean:.3f}")
    return 0 if bad == 0 else 1


# Small enough that a trial's two scenarios take milliseconds.
_AGG_CHECK_MODEL = dict(hidden_dim=4, points_per_node=16, test_points=16,
                        steps=2, batch=8)


def cmd_agg_check(args) -> int:
    """Audit: the tree's weighted aggregate equals the flat mean of the
    leaves' updates, on the real round protocols.

    Each trial runs one random single-tree scenario for one round in both
    modes, with 0 to 3 gossip hops drawn per trial. However far the leaves
    gossip, the decentralized root averages each distinct leaf's update once,
    flat, so the centralized final weights must match its own; and every
    round's root weight must equal its contributors.

    The decentralized round's messages are audited for privacy, too: none
    may carry one leaf's raw update outside its friend set. A trial with 0
    gossip hops uploads directly by design, so it is excused and counted.
    """
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    audited = excused = 0
    for trial in range(args.trials):
        base = dict(seed=int(rng.integers(1, 1 << 31)),
                    nodes=int(rng.integers(5, 40)), fanout=int(rng.integers(1, 5)),
                    gossip_k=int(rng.integers(0, 4)), rounds=1, topics=1,
                    tree_count=1, **_AGG_CHECK_MODEL)
        finals = []
        for mode in (CENTRALIZED, DECENTRALIZED):
            scenario = Scenario(ScenarioConfig(mode=mode, **base))
            scenario.step()  # the trial's one round
            result = scenario.result()
            if any(m.root_weight != m.contributors for m in result.round_metrics):
                print(f"agg-check: weight conservation failed on trial {trial} ({mode})")
                return 1
            if mode == DECENTRALIZED and base["gossip_k"] == 0:
                excused += 1
            elif mode == DECENTRALIZED:
                [session] = scenario.sessions
                [(_leaves, social)] = scenario.socials.values()
                audited += len(session.msg_log)
                leaks = audit_decentralized_privacy(session.msg_log, social)
                if leaks:
                    print(f"agg-check: privacy audit failed on trial {trial}: "
                          f"{len(leaks)} of {len(session.msg_log)} messages expose "
                          f"a leaf's update outside its friend set")
                    return 1
            [blob] = result.final_weights.values()
            finals.append(deserialize_params(blob))
        tree, flat = finals
        worst = max(worst, float(np.max(np.abs(tree.w - flat.w))),
                    float(np.max(np.abs(tree.b - flat.b))))
    print(f"agg-check: trials={args.trials} worst_flat_mean_error={worst:.2e} "
          f"privacy_audited_messages={audited} excused_k0_trials={excused}")
    return 0 if worst <= 1e-9 else 1


def cmd_report(args) -> int:
    paths = sorted(p for p in glob.glob(os.path.join(args.out, "*.jsonl"))
                   if not p.endswith("-rounds.jsonl"))
    if not paths:
        print(f"no .jsonl result files under {args.out}", file=sys.stderr)
        return 1
    records = []
    for p in paths:
        records.extend(read_records(p))
    rows = summary_rows(records)
    write_csv(rows, os.path.join(args.out, "report.csv"))
    print(format_table(rows), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dhtfed",
        description="DHT-tree federated fine-tuning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario from a config file")
    p.add_argument("config", help="scenario config (INI)")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--fanout", type=int, default=None)
    p.add_argument("--mode", choices=["centralized", "decentralized", "auto"],
                   default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="grid over nodes/data-size/seeds")
    p.add_argument("--nodes", default="60")
    p.add_argument("--points", default="200,800,1400,2000")
    p.add_argument("--seeds", default="101,202,303,404,505")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--fanout", type=int, default=16)
    p.add_argument("--topics", type=int, default=3)
    p.add_argument("--sizes-mib", default="",
                   help="also measure dissemination for these payload sizes")
    p.add_argument("--out", default="results")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("route-check", help="overlay delivery-correctness audit")
    p.add_argument("--nodes", type=_positive_int, default=1000)
    p.add_argument("--lookups", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fail", type=int, default=0,
                   help="fail this many seeded nodes before the lookups")
    p.set_defaults(fn=cmd_route_check)

    p = sub.add_parser("agg-check", help="aggregation flat-mean audit on real rounds")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_agg_check)

    p = sub.add_parser("report", help="aggregate result files into a summary")
    p.add_argument("--out", default="results")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
