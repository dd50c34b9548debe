"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload:
- a tiny run at the default seed prints every metric BENCHMARK.json names,
  with its unit, for --trace 0 and --trace 1, and no op fails;
- a tiny run with --corrupt at another seed counts the corrupted output as
  failed, which shows the output checks are live without the digests.
Finally the benchmark must refuse to run, with a nonzero exit code and no
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits nonzero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    bad = 0

    def check(label: str, cond: bool, detail: str = "") -> None:
        nonlocal bad
        bad += not cond
        print(f"{'PASS' if cond else 'FAIL'} {label}{': ' + detail if detail and not cond else ''}")

    for w in WORKLOADS:
        for trace in (0, 1):
            res = _result(_run(ROOT, "--workload", w, "--seed", str(DEFAULT_SEED), "--trace", str(trace)))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(f"{w} trace={trace}: keys", set(res) == {"correct", "attempted", "failed", "metrics"})
            check(f"{w} trace={trace}: metrics and units", got == wanted[trace],
                  f"missing {set(wanted[trace]) - set(got)}, extra {set(got) - set(wanted[trace])}")
            check(f"{w} trace={trace}: failed_frac = 0", res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, f"{res['failed']}/{res['attempted']} failed")
        res = _result(_run(ROOT, "--workload", w, "--seed", "7", "--trace", "0", "--corrupt"))
        check(f"{w}: corrupted output counted as failed", not res["correct"] and res["failed"] >= 1,
              f"{res['failed']}/{res['attempted']} failed")

    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", stripped)
        proc = _run(stripped, "--workload", WORKLOADS[0], "--seed", "1", "--trace", "0")
        check("refuses to run without the sources", proc.returncode != 0 and not proc.stdout.strip(),
              f"exit code {proc.returncode}")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    print("smoke:", "ok" if not bad else f"{bad} check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
