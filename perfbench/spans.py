"""Span tracing from outside the package.

`Tracer.install()` replaces the public functions named in `TARGETS` with
wrappers that record one span per call: name, start, end, the span that was
open when the call began, the op it belongs to and the thread it ran on.
Every binding of the same function object in any `eclab` module is replaced,
so calls between modules are traced as well as calls from the CLI.
`uninstall()` puts the originals back. Nothing under `src/` changes.

Spans stay in memory; `dump()` writes them out when the run ends.

Self time: a sweep over span boundaries splits every instant of a window
equally among the open spans that have no open child. On one thread this is
duration minus the time covered by child spans; while a thread pool runs,
concurrent leaves share the instant, so self times plus the time no span was
open (the remainder) add up to the window's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# `codec` gets no span: its calls take under a microsecond, so a wrapper
# around them would mostly measure itself.
TARGETS = (
    "cli.main",
    "complexity.khat",
    "complexity.ec",
    "complexity.coarse_ec",
    "complexity.khat_value",
    "complexity.string_stats",
    "ensembles.entropy",
    "ensembles.serialize",
    "ensembles.format_ensemble",
    "lz78.code_len",
    "lz78.parse",
    "lz78.encode",
    "lz78.decode",
    "lz78.code_length_counts",
    "processes.sample_paths",
    "typical_sets.empirical_prob",
    "typical_sets.cardinality",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# bits processed by one call, for the bits_per_s rates
_SIZE = {
    "lz78.code_len": lambda a, k: len(_arg(a, k, 0, "x")),
    "processes.sample_paths": lambda a, k: _arg(a, k, 1, "n") * _arg(a, k, 3, "count"),
}
# the histogram is cached per n, so the first call for an n is the cold one
_COLD_KEY = {"lz78.code_length_counts": lambda a, k: _arg(a, k, 0, "n")}

NAME, START, END, PARENT, OP, THREAD, BITS, COLD = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # index of the op in flight; set by the loop driving the ops
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stacks, main = self.spans, self._stacks, self._main
        size = _SIZE.get(name)
        cold_key = _COLD_KEY.get(name)
        seen = self._seen[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            if stack:
                parent = stack[-1]
            else:  # a pool thread: the span open on the submitting thread caused it
                main_stack = stacks.get(main)
                parent = main_stack[-1] if tid != main and main_stack else None
            cold = False
            if cold_key is not None:
                key = cold_key(args, kwargs)
                cold = key not in seen
                seen.add(key)
            rec = [name, 0.0, 0.0, parent, self.op, tid,
                   size(args, kwargs) if size else 0, cold]
            spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "eclab" or n.startswith("eclab.")]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(sys.modules[f"eclab.{mod_name}"], fn_name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summarize(self, start: float, end: float) -> dict:
        """Per-name calls, inclusive seconds, self seconds, bits and cold calls
        for the spans that began in [start, end), plus the remainder."""
        window = [s for s in self.spans if start <= s[START] < end]
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bits": 0, "cold_calls": 0})
        for s in window:
            st = stats[s[NAME]]
            st["calls"] += 1
            st["s"] += s[END] - s[START]
            st["bits"] += s[BITS]
            st["cold_calls"] += s[COLD]
        index = {id(s): i for i, s in enumerate(window)}
        parent = [index.get(id(s[PARENT])) if s[PARENT] is not None else None for s in window]
        events = [(s[START], 1, i) for i, s in enumerate(window)]
        events += [(s[END], 0, i) for i, s in enumerate(window)]
        events.sort(key=lambda e: (e[0], e[1]))  # ends before starts at equal times
        open_children = [0] * len(window)
        is_open = [False] * len(window)
        leaves: set[int] = set()
        self_s = [0.0] * len(window)
        remainder = 0.0
        last = start
        for t, is_start, i in events:
            dt = t - last
            if dt > 0:
                if leaves:
                    share = dt / len(leaves)
                    for j in leaves:
                        self_s[j] += share
                else:
                    remainder += dt
                last = t
            p = parent[i]
            if is_start:
                is_open[i] = True
                leaves.add(i)
                if p is not None and is_open[p]:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                is_open[i] = False
                leaves.discard(i)
                if p is not None and is_open[p]:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        remainder += max(0.0, end - last)
        for i, s in enumerate(window):
            stats[s[NAME]]["self_s"] += self_s[i]
        return {"names": dict(stats), "remainder_s": remainder, "wall_s": end - start,
                "spans": len(window)}

    def dump(self, path, phases: dict) -> None:
        """Write every span, with times relative to the first phase start."""
        origin = min(phases.values(), key=lambda p: p[0])[0] if phases else 0.0
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads = {tid: i for i, tid in enumerate(dict.fromkeys(s[THREAD] for s in self.spans))}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op", "thread", "bits", "cold"],
            "phases": {k: [a - origin, b - origin] for k, (a, b) in phases.items()},
            "spans": [
                [s[NAME], s[START] - origin, s[END] - origin,
                 index.get(id(s[PARENT])) if s[PARENT] is not None else None,
                 s[OP], threads[s[THREAD]], s[BITS], int(s[COLD])]
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
