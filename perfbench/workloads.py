"""The three workloads: inputs derived from the seed, and the argv of every op.

`prepare(workload, seed, tiny)` builds everything that needs only the
benchmark's own pseudo-random generator; it runs before `eclab` is imported,
so it never counts toward set-up time. `setup(state, runner)` runs after the
import: it does the work the system under test must do before serving
(sampling paths with eclab's sampler for upper_large, encoding the stream
that lz_mass decodes) and one warm-up op per distinct (command, length).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("exact_small", "upper_large", "lz_mass")
DEFAULT_SEED = 1


@dataclass
class Op:
    """One CLI invocation: `kind` names the command, `x` the string queried."""

    kind: str
    argv: list[str]
    length: int
    x: str | None = None
    meta: dict = field(default_factory=dict)
    ref: tuple | None = None  # (exit code, stdout, error) of its first run


# --- exact_small ---------------------------------------------------------------

_EXACT_LENGTHS = range(8, 21)
_EXACT_LENGTHS_TINY = range(8, 12)
_EXACT_STRINGS = 3  # strings per (length, kind): more strings, a steadier op mix
_EC_GRID = [(d, D) for d in ("0", "1/4") for D in ("0", "4", "16")]
_EC_EPS = "1/8"


def _string_kinds(rng: random.Random, n: int) -> list[str]:
    """Low-entropy, Markov-like, fair-coin and run-heavy strings of length n."""
    low = [1 if rng.random() < 1 / 16 else 0 for _ in range(n)]
    if rng.random() < 0.5:
        low = [1 - b for b in low]
    state = rng.getrandbits(1)
    markov = []
    for _ in range(n):
        markov.append(state)
        if rng.random() < 1 / 5:
            state ^= 1
    fair = [rng.getrandbits(1) for _ in range(n)]
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
    state = rng.getrandbits(1)
    runs = []
    for i in range(n):
        if cuts and i == cuts[0]:
            cuts.pop(0)
            state ^= 1
        runs.append(state)
    return ["".join("01"[b] for b in bits) for bits in (low, markov, fair, runs)]


def _exact_ops(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"exact_small/{seed}")
    lengths = _EXACT_LENGTHS_TINY if tiny else _EXACT_LENGTHS
    ops = []
    for _ in range(1 if tiny else _EXACT_STRINGS):
        # each block holds every (length, kind) once, in shuffled order, so a
        # cycle cut short by the time limit keeps the workload's mix
        block = [(n, x) for n in lengths for x in _string_kinds(rng, n)]
        rng.shuffle(block)
        for n, x in block:
            ops.append(Op("khat", ["khat", "--x", x, "--mode", "exact"], n, x))
            for delta, Delta in _EC_GRID:
                argv = ["ec", "--x", x, "--delta", delta, "--Delta", Delta, "--mode", "exact"]
                ops.append(Op("ec", argv, n, x, {"delta": delta}))
            argv = ["ec", "--x", x, "--delta", "0", "--eps", _EC_EPS, "--mode", "exact"]
            ops.append(Op("ec", argv, n, x, {"delta": "0"}))
            argv = ["coarse-ec", "--x", x, "--delta", "0", "--mode", "exact"]
            ops.append(Op("coarse-ec", argv, n, x, {"delta": "0"}))
    return ops


# --- upper_large ---------------------------------------------------------------

UPPER_MODELS = ("markov:flip=1/10", "bernoulli:p=3/10")
_UPPER_LENGTHS = (1 << 12, 1 << 15, 1 << 18)
_UPPER_LENGTHS_TINY = (1 << 8, 1 << 10)
_UPPER_PATHS = 8


def _upper_plan(seed: int, tiny: bool) -> dict:
    rng = random.Random(f"upper_large/{seed}")
    lengths = _UPPER_LENGTHS_TINY if tiny else _UPPER_LENGTHS
    count = 1 if tiny else _UPPER_PATHS
    # one eclab sampler seed per (model, length); drawn here so they follow --seed
    seeds = {(m, n): rng.randrange(1 << 31) for m in UPPER_MODELS for n in lengths}
    return {"lengths": lengths, "count": count, "seeds": seeds}


def _upper_setup(plan: dict) -> list[Op]:
    from eclab import processes

    paths = {}
    for (model, n), s in plan["seeds"].items():
        spec = processes.parse_model_spec(model)
        paths[(model, n)] = [bits for bits, _ in processes.sample_paths(spec, n, s, plan["count"])]
    ops = []
    for i in range(plan["count"]):
        for n in plan["lengths"]:
            for model in UPPER_MODELS:
                x = paths[(model, n)][i]
                meta = {"delta": "0"}
                ops.append(Op("ec", ["ec", "--x", x, "--delta", "0", "--eps", "1/10"], n, x, meta))
                ops.append(Op("coarse-ec", ["coarse-ec", "--x", x, "--delta", "0"], n, x, meta))
    return ops


# --- lz_mass -------------------------------------------------------------------

LZ_MODELS = ("markov:flip=1/10", "markov:a01=1/5,a10=3/5", "bernoulli:p=3/10")
_LZ_TYPICAL_N = 1 << 18
_LZ_TYPICAL_N_TINY = 1 << 12
_LZ_SAMPLES = 2
_LZ_SEEDS = 10
_LZ_PATH_N = 1 << 20
_LZ_PATH_N_TINY = 1 << 12


def _markov_bits(rng: random.Random, n: int) -> str:
    """A symmetric Markov path (flip probability 1/8) built with integer ops."""
    flips = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
    shift = 1
    while shift < n:  # prefix XOR, most significant bit first
        flips ^= flips >> shift
        shift <<= 1
    return format(flips, f"0{n}b")


def _lz_plan(seed: int, tiny: bool) -> dict:
    rng = random.Random(f"lz_mass/{seed}")
    n = _LZ_TYPICAL_N_TINY if tiny else _LZ_TYPICAL_N
    seeds = 1 if tiny else _LZ_SEEDS
    typical = []
    for _ in range(seeds):
        for model in LZ_MODELS:
            s = str(rng.randrange(1 << 31))
            argv = ["typical", "--r-list", "3/4", "--n-list", str(n), "--model", model,
                    "--samples", str(_LZ_SAMPLES), "--seed", s, "--threads", "1"]
            typical.append(Op("typical", argv, n, None, {"samples": _LZ_SAMPLES}))
    x = _markov_bits(rng, _LZ_PATH_N_TINY if tiny else _LZ_PATH_N)
    return {"typical": typical, "x": x}


def _lz_setup(plan: dict, runner) -> list[Op]:
    x = plan["x"]
    encode = Op("lz-encode", ["lz", "--x", x, "--emit-bits"], len(x), x)
    typical = plan["typical"]
    runner.warm([encode, *typical])
    stream = encode.ref[1].splitlines()[-1].rsplit(",", 1)[-1]
    decode = Op("lz-decode", ["lz", "--decode", stream], len(x), x)
    runner.warm([decode])
    half = len(typical) // 2
    return [encode, *typical[:half], decode, *typical[half:]]


# --- entry points ----------------------------------------------------------------

def prepare(workload: str, seed: int, tiny: bool) -> dict:
    """Everything derived from the seed alone; needs no eclab import."""
    if workload == "exact_small":
        return {"ops": _exact_ops(seed, tiny)}
    if workload == "upper_large":
        return {"plan": _upper_plan(seed, tiny)}
    if workload == "lz_mass":
        return {"plan": _lz_plan(seed, tiny)}
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, state: dict, runner) -> list[Op]:
    """Build the op cycle and run one warm-up op per distinct (command, length)."""
    if workload == "exact_small":
        ops = state["ops"]
    elif workload == "upper_large":
        ops = _upper_setup(state["plan"])
    else:
        return _lz_setup(state["plan"], runner)
    runner.warm(ops)
    return ops
