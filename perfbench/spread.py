"""Repeated runs: median, quartiles and spread of every metric per workload.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 --out perfbench/baseline.json

Runs run.py once per (workload, seed), one run at a time, with --trace 0,
and with --trace 1 for the seeds given to --trace-seeds. For each metric it
reports the median, the quartiles as statistics.quantiles(values, n=4)
gives them, and the spread (q3 - q1) / median, next to the bound
BENCHMARK.json sets. Every value measured is kept in the output file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"seconds": args.seconds, "machine": platform.machine(), "workloads": {}}
    for w in args.workloads.split(","):
        per_trace = {}
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
            values: dict[str, list[float]] = {}
            for seed in seeds:
                cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                if not res["correct"]:
                    print(f"{w} seed {seed}: {res['failed']}/{res['attempted']} ops failed",
                          file=sys.stderr)
                    return 1
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{w} seed={seed} trace={trace} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                                 if trace == 0), flush=True)
            if values:
                per_trace["end_to_end" if trace == 0 else "per_layer"] = {
                    k: _summary(v) for k, v in values.items()}
        doc["workloads"][w] = per_trace
        for name, s in per_trace.get("end_to_end", {}).items():
            print(f"{w:12s} {name:12s} median={s['median']:.4g} q1={s['q1']:.4g} q3={s['q3']:.4g} "
                  f"spread={s['spread']:.3f} bound={bounds.get(name)}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
