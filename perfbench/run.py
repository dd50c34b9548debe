"""Benchmark entry point.

    python3 perfbench/run.py --workload exact_small --seed 3 --seconds 20 --trace 0

Run from the repository root. Each run starts fresh interpreters
(perfbench/worker.py) with `src` on PYTHONPATH. With --trace 0 it starts
three, one after another; each does a cold set-up and a third of the timed
phase. setup_s is the median of the three set-ups; the latencies of all
three are pooled, which spreads the timed phase over the whole run. Times
are scaled to the reference speed of the host speed probe (speed.py), and
each distinct op weighs the same in ops_per_s and the percentiles (see
_cycle_stats). With --trace 1 one worker does the set-up and the whole
timed phase. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it
echoes the environment, the op counts and the sample counts.

Extra options: --tiny (small inputs, for the smoke check), --corrupt (the
first op answers wrongly, so the output checks must fail it) and
--record-digests (rewrite the default-seed digests of this workload).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PARTS = 3
DEADLINE_S = 170


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, deadline: float, part: int, parts: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / parts),
           "--trace", str(args.trace), "--part", str(part), "--parts", str(parts)]
    for flag in ("tiny", "corrupt", "record_digests"):
        if getattr(args, flag):
            cmd.append("--" + flag.replace("_", "-"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cycle_stats(samples: list) -> tuple[float, float, float]:
    """ops_per_s, p50 and p90 of (op index, ms) samples, each distinct op weighing the same.

    A run stops part-way through the op list, so some ops run once more than
    others, and a long op run once more moves the figures of a short run.
    Weighting each sample by 1 / (runs of its op) gives every run the mix of
    the whole op list.
    """
    by_op: dict[int, list[float]] = {}
    for k, ms in samples:
        by_op.setdefault(k, []).append(ms)
    ops_per_s = 1e3 * len(by_op) / sum(statistics.fmean(v) for v in by_op.values())
    weighted = sorted((ms, 1 / len(by_op[k])) for k, ms in samples)

    def quantile(q: float) -> float:
        acc = 0.0
        for ms, w in weighted:
            acc += w
            if acc >= q * len(by_op) - 1e-9:
                return ms
        return weighted[-1][0]

    return ops_per_s, quantile(0.5), quantile(0.9)


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "eclab" / "__init__.py").is_file():
        print(f"error: no eclab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    parts = 1 if args.trace else PARTS
    try:
        runs = [_worker(args, deadline, k, parts) for k in range(parts)]
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 3

    main_run = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    latencies = [ms for r in runs for ms in r["latencies_ms"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    raw = {"ops_per_s": len(latencies) / sum(r["busy_s"] for r in runs),
           "op_ms_p50": deciles[4], "op_ms_p90": deciles[8]}
    probes = [ms for r in runs for ms in r["probe_ms"]]
    if args.trace:
        metrics = main_run["layers"]
    else:
        ops_per_s, p50, p90 = _cycle_stats([s for r in runs for s in r["scaled_ms"]])
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in runs), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p90": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs), "unit": "MB"},
        }
        raw["setup_s"] = [r["setup_raw_s"] for r in runs]
    ops_by_kind: dict[str, int] = {}
    failures: dict[str, int] = {}
    for r in runs:
        for k, v in r["ops_by_kind"].items():
            ops_by_kind[k] = ops_by_kind.get(k, 0) + v
        for k, v in r["failures"].items():
            failures[k] = failures.get(k, 0) + v
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "os_cpu_count": os.cpu_count(),
            "python": main_run["python"],
            "numpy": main_run["numpy"],
            "machine": platform.machine(),
            "git_commit": _git_commit(),
        },
        "loop": "closed, 1 client, in-process eclab.cli.main(argv)",
        "ops_by_kind": ops_by_kind,
        "distinct_ops": main_run["distinct_ops"],
        "percentile_samples": len(latencies),
        "setup_s_samples": [r["setup_s"] for r in runs],
        "unscaled": raw,
        "probe_ms": ({"count": len(probes), "min": min(probes), "median": statistics.median(probes),
                      "max": max(probes), "reference": speed.REF_S * 1e3} if probes else None),
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        "failures": failures,
        "problems": [p for r in runs for p in r["problems"]][:10],
    }
    for key in ("trace_accounting", "trace_file"):
        if key in main_run:
            report[key] = main_run[key]
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
