"""One benchmark process: set-up from a fresh interpreter, a timed closed loop,
then output checks. Started by run.py; prints one JSON object as its last line.

Ops go through `eclab.cli.main(argv)` in this process with stdout and stderr
captured. One client sends the next op only after the previous one returned.
The timed phase adds up the time spent inside `main` only; comparing an
output with its first run, and every other check, happens between ops or
after the phase and is not counted. The phase stops once that sum reaches
--seconds and, with --trace 0, at least MIN_OPS / --parts ops have run, so
that p90 over all parts has ten samples above it, and at least 1 / --parts
of the op list. Part k of --parts starts its cycle k/parts of the way
through the op list, so the parts together run every op at least once.

With --trace 0 a host speed probe (speed.py) runs between ops, and every
time reported is scaled to the reference speed; the raw times are reported
too.

With --trace 1 the set-up is traced, then the phase is split in halves: the
first untraced and the second traced, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_OPS = 100


def _corrupt(out: str) -> str:
    """Bump the first digit of the last line: a wrong answer for the checks to catch."""
    head, sep, last = out.rstrip("\n").rpartition("\n")
    for i, c in enumerate(last):
        if c.isdigit():
            last = last[:i] + str((int(c) + 1) % 10) + last[i + 1:]
            break
    return head + sep + last + "\n"


class Runner:
    """Runs ops through the CLI entry point and keeps each op's first output."""

    def __init__(self, cli, corrupt: bool, speed=None):
        self.cli = cli
        self.speed = speed  # probes the host's speed between warm-up ops
        self.corrupt_op = None  # with --corrupt, the first op run answers wrongly
        self.corrupt = corrupt

    def execute(self, op) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"raised {type(exc).__name__}"
            err.write(str(exc))
        dt = perf_counter() - t0
        text = out.getvalue()
        if self.corrupt and (self.corrupt_op is None or self.corrupt_op is op):
            self.corrupt_op = op
            text = _corrupt(text)
        return rc, text, err.getvalue(), dt

    def record(self, op) -> None:
        rc, out, err, dt = self.execute(op)
        op.ref = (rc, out, err)
        if self.speed is not None:
            self.speed.after_op(dt)

    def warm(self, ops) -> None:
        """Run the first op of every distinct (command, length)."""
        seen = set()
        for op in ops:
            if (op.kind, op.length) not in seen:
                seen.add((op.kind, op.length))
                self.record(op)


def timed_phase(runner: Runner, ops, seconds: float, min_ops: int = 0, tracer=None,
                start_index: int = 0, speed=None) -> dict:
    """Run the closed loop; with `speed`, probe between ops and scale every time."""
    latencies = []
    starts = []
    runs = []  # (op, exit code, same output as its first run)
    busy = 0.0
    i = start_index
    if speed is not None:
        speed.probe()
    wall0 = perf_counter()
    while busy < seconds or len(runs) < min_ops:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        starts.append(perf_counter())
        rc, out, err, dt = runner.execute(op)
        busy += dt
        latencies.append(dt)
        if speed is not None:
            speed.after_op(dt)
        if op.ref is None:
            op.ref = (rc, out, err)
        runs.append((op, rc, out == op.ref[1]))
        i += 1
    wall = (wall0, perf_counter())
    if speed is not None:
        speed.probe()
        scaled = [dt * speed.scale(t, t + dt) for t, dt in zip(starts, latencies)]
    else:
        scaled = latencies
    return {"latencies": latencies, "scaled": scaled, "runs": runs, "busy": busy, "wall": wall,
            "next": i, "first": start_index}


def _layer_metrics(tracer, setup_window, traced_window, traced_ops, traced_rate, untraced_rate):
    S = tracer.summarize(*setup_window)
    P = tracer.summarize(*traced_window)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "bits": 0, "cold_calls": 0}

    def s(summary, name):
        return summary["names"].get(name, zero)

    def per_op(name, stat):
        return s(P, name)[stat] / traced_ops

    def rate(name):
        secs = s(S, name)["s"] + s(P, name)["s"]
        return (s(S, name)["bits"] + s(P, name)["bits"]) / secs if secs else 0.0

    hist = "lz78.code_length_counts"
    m = {
        f"{hist}.s": (s(S, hist)["s"] + s(P, hist)["s"], "s"),
        f"{hist}.cold_calls": (s(S, hist)["cold_calls"] + s(P, hist)["cold_calls"], "count"),
        "complexity.warmup.self_s": (
            sum(v["self_s"] for k, v in S["names"].items() if k.startswith("complexity.")), "s"),
        "processes.sample_paths.setup_s": (s(S, "processes.sample_paths")["s"], "s"),
    }
    for name, stat in [
        ("complexity.khat", "self_s"), ("complexity.ec", "self_s"),
        ("complexity.coarse_ec", "self_s"), ("ensembles.entropy", "s"),
        ("lz78.code_len", "s"), ("complexity.string_stats", "s"),
        ("complexity.khat_value", "s"), ("processes.sample_paths", "s"),
        ("typical_sets.empirical_prob", "self_s"), ("typical_sets.cardinality", "s"),
        ("lz78.parse", "s"), ("lz78.encode", "s"), ("lz78.decode", "s"),
        ("ensembles.format_ensemble", "s"), ("cli.main", "self_s"),
    ]:
        m[f"{name}.{stat}"] = (per_op(name, stat), "s/op")
    for name in ("ensembles.entropy", "ensembles.serialize"):
        m[f"{name}.calls"] = (per_op(name, "calls"), "1/op")
    for name in ("lz78.code_len", "processes.sample_paths"):
        m[f"{name}.bits_per_s"] = (rate(name), "bit/s")
    m["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "frac")
    m["trace.unattributed_frac"] = (P["remainder_s"] / P["wall_s"], "frac")
    accounted = sum(v["self_s"] for v in P["names"].values()) + P["remainder_s"]
    if abs(accounted - P["wall_s"]) > 1e-6 * P["wall_s"] + 1e-9:
        raise RuntimeError(f"self times account for {accounted} s of {P['wall_s']} s")
    summary = {"setup": S, "traced_phase": P, "accounted_s": accounted}
    return m, summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    state = workloads.prepare(args.workload, args.seed, args.tiny)
    speed = None if args.trace else Speedometer()
    if speed is not None:
        speed.probe()
    probing = speed.spent if speed is not None else 0.0

    # set-up: a fresh interpreter up to warm state
    t0 = perf_counter()
    import eclab
    import eclab.cli

    if not Path(eclab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported eclab from {eclab.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_start = perf_counter()
    runner = Runner(eclab.cli, args.corrupt, speed)
    ops = workloads.setup(args.workload, state, runner)
    t1 = perf_counter()
    result = {"setup_s": t1 - t0}
    if speed is not None:
        runner.speed = None
        result["setup_s"] -= speed.spent - probing  # the probes taken between warm-up ops
        speed.probe()
        result["setup_raw_s"] = result["setup_s"]
        result["setup_s"] *= speed.scale(t0, t1)

    if args.record_digests:
        for op in ops:
            if op.ref is None:
                runner.record(op)
    if tracer is None:
        start = args.part * len(ops) // args.parts
        min_ops = math.ceil(max(MIN_OPS, len(ops)) / args.parts)
        phases = [timed_phase(runner, ops, args.seconds, min_ops, start_index=start, speed=speed)]
    else:
        tracer.uninstall()
        untraced = timed_phase(runner, ops, args.seconds / 2)
        tracer.install()
        traced = timed_phase(runner, ops, args.seconds / 2, tracer=tracer,
                             start_index=untraced["next"])
        tracer.uninstall()
        phases = [untraced, traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside every timed region
    import checks

    ran = {id(op): op for op in ops if op.ref is not None}
    if args.record_digests:
        checks.record_digests(args.workload, ran.values())
    digests = checks.load_digests(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    problems = checks.run(args.workload, list(ran.values()), digests)
    failures = {"error": 0, "nondeterministic": 0, "check": 0}
    runs = [r for p in phases for r in p["runs"]]
    for op, rc, same in runs:
        if rc != 0:
            failures["error"] += 1
        elif not same:
            failures["nondeterministic"] += 1
        elif id(op) in problems:
            failures["check"] += 1
    failed = sum(failures.values())
    kinds: dict[str, int] = {}
    for op, _, _ in runs:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1

    import numpy

    result.update({
        "attempted": len(runs),
        "failed": failed,
        "failures": failures,
        "problems": [f"{ran[k].kind} n={ran[k].length}: {v}" for k, v in problems.items()][:10],
        "distinct_ops": len(ops),
        "ops_by_kind": kinds,
        "busy_s": sum(p["busy"] for p in phases),
        "latencies_ms": [dt * 1e3 for p in phases for dt in p["latencies"]],
        # (index in the op list, ms at reference speed) of every op run
        "scaled_ms": [[(p["first"] + j) % len(ops), dt * 1e3]
                      for p in phases for j, dt in enumerate(p["scaled"])],
        "peak_rss_mb": peak_rss_mb,
        "probe_ms": [] if speed is None else [t * 1e3 for t in speed.probes],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    if tracer is not None:
        untraced, traced = phases
        metrics, summary = _layer_metrics(
            tracer, (setup_start, t1), traced["wall"], len(traced["runs"]),
            len(traced["runs"]) / traced["busy"], len(untraced["runs"]) / untraced["busy"])
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["trace_accounting"] = {
            "traced_wall_s": summary["traced_phase"]["wall_s"],
            "self_plus_remainder_s": summary["accounted_s"],
            "spans": summary["traced_phase"]["spans"] + summary["setup"]["spans"],
        }
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump, {"setup": (setup_start, t1), "traced": traced["wall"]})
        result["trace_file"] = str(dump.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
