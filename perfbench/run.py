"""dhtfed benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs repetitions of the workload one at a time, each in a fresh child
process (`rep.py`) with BLAS pinned to one thread, until `--seconds` is
used up (at least three). With `--trace 0` it reports the median of every
end-to-end metric over the repetitions; with `--trace 1` it then runs one
traced repetition and reports the per-layer metrics. Every repetition's
outputs are checked; a violation counts as a failed operation. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, scenario_kwargs  # noqa: E402

MIN_REPS = 3
# Whatever --seconds says, start no untraced repetition after STOP_S and
# end every child by DEADLINE_S, so that a run ends inside three minutes.
STOP_S = 110.0
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_child(workload: str, seed: int, trace: bool, spans: Path | None,
              timeout: float) -> tuple[dict | None, str]:
    """One repetition in a fresh process; (result, error text)."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError):
        return None, f"unreadable repetition output: {proc.stdout[-500:]!r}"


class Ledger:
    """Attempted and failed scenario runs, and what went wrong."""

    def __init__(self, scenarios: int):
        self.scenarios = scenarios
        self.attempted = 0
        self.failed = 0
        self.reference: list[str] | None = None
        self.errors: list[str] = []

    def add(self, rep: dict | None, error: str, label: str) -> None:
        self.attempted += self.scenarios
        if rep is None:
            self.failed += self.scenarios
            self.errors.append(f"{label}: {error}")
            return
        bad = rep["failed"]
        self.errors += [f"{label}: {v}" for v in rep["violations"]]
        if self.reference is None:
            self.reference = rep["digests"]
        mismatched = [i for i, (a, b) in enumerate(zip(self.reference, rep["digests"]))
                      if a != b]
        for i in mismatched:
            self.errors.append(f"{label}: scenario {i} digest {rep['digests'][i][:16]} "
                               f"!= first repetition's {self.reference[i][:16]}")
        self.failed += min(self.scenarios, bad + len(mismatched))


def end_to_end() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) as BENCHMARK.json lists them; each is the
    repetition's figure of the same name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    ledger = Ledger(len(scenario_kwargs(args.workload, args.seed)))
    reps: list[dict] = []
    start = time.monotonic()
    # A traced repetition takes longer; keep room for it inside the budget.
    reserve = 1.5 if args.trace else 0.0

    def left() -> float:
        return max(DEADLINE_S - (time.monotonic() - start), 1.0)

    while True:
        rep, error = run_child(args.workload, args.seed, False, None, left())
        ledger.add(rep, error, f"repetition {ledger.attempted // ledger.scenarios}")
        if rep is None:
            break
        reps.append(rep)
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and (elapsed + per_rep * (1 + reserve) > args.seconds
                                      or elapsed > STOP_S):
            break

    traced = None
    if args.trace and reps:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
        traced, error = run_child(args.workload, args.seed, True, spans, left())
        ledger.add(traced, error, "traced repetition")

    for line in ledger.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    if not reps or (args.trace and traced is None):
        print("perfbench: no successful repetition to report", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} untraced "
          f"repetition(s) of {ledger.scenarios} scenario(s)"
          + (", then 1 traced" if traced else ""))
    metrics: dict[str, dict] = {}
    if not args.trace:
        for name, (unit, better) in end_to_end().items():
            values = [r[name] for r in reps]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<22} {med:>14.6g} {unit:<9} ({better} is better; "
                  f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g})")
        for name, unit, what in (("wall_s", "s", "raw wall time, unadjusted"),
                                 ("host_slowdown", "ratio", "mean probe slowdown")):
            print(f"  {name:<22} {statistics.median(r[name] for r in reps):>14.6g} "
                  f"{unit:<9} (not a metric: {what}, median)")
    else:
        layers = dict(traced["layers"])
        untraced_run = statistics.median(r["run_s"] for r in reps)
        layers["trace.overhead_ratio"] = (
            traced["run_s"] / untraced_run, "ratio",
            f"traced run_s {traced['run_s']:.4g} s / untraced median "
            f"{untraced_run:.4g} s")
        for name, (value, unit, note) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")

    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
