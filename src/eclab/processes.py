"""Stationary binary process models with exact probabilities and seeded samplers.

Models are Bernoulli(p), a two-state Markov chain started in its
stationary distribution, or a finite mixture of ergodic components.
Parameters are exact rationals, so block probabilities are exact.

Pseudorandomness is the SplitMix64 generator used in counter mode: the
k-th output of a generator with seed s is mix64(s + k*GAMMA). Sample
path i of a run with master seed s uses the per-path seed
mix64(s + (i+1)*GAMMA), so paths are independent of evaluation order
and safe to generate in parallel. A uniform u in [0, 2^64) realizes an
event of probability p via u < floor(p * 2^64).

Markov transitions use the flip rule: given the previous symbol b, the
next symbol is b XOR [u < flip_prob(b)], and the initial symbol is
[u < pi1] on the path's first output.

The compiled kernel (`kernel.splitmix_bits`) draws a path: it computes
output k, tests its event and writes the bit, one step at a time, straight
into the path's bytes. When the kernel cannot be built or loaded, a numpy
block sampler (`_sample_blocks`) serves, with the same paths. It computes
the outputs in blocks of _BLOCK, each in place in one reused buffer; since
output k depends on (s, k) alone, the blocks give the whole path's outputs.
For a chain, with f0 = [u < a01] and f1 = [u < a10], each step maps the
previous state through a function on {0, 1}: a reset to f0 when f0 != f1,
a negation when both fire, the identity when neither does. The state at
step j is therefore the value of the last reset at or before j (the
initial symbol counts as one) XOR the parity of the negations since, which
the block sampler computes per block with a cumulative XOR and a gather.
Two values carry from block to block: the parity of the negations so far
and the value after the last reset, so the blocks compose to the
step-by-step rule. Symmetric chains never reset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from . import kernel
from .codec import check_bits
from .text import document_lines, key_values, pairs, parse_fraction

__all__ = [
    "Bernoulli",
    "Markov",
    "Mixture",
    "ProcessModel",
    "mix64",
    "sample",
    "sample_paths",
    "entropy_rate",
    "binary_entropy",
    "stationary_dist",
    "block_prob",
    "components",
    "parse_model_spec",
    "format_model",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64_GAMMA = np.uint64(_GAMMA)


def mix64(z: int) -> int:
    """SplitMix64 output finalizer (scalar)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_BLOCK = 1 << 14  # draws per block; the sampler's buffers stay in cache
# mix64's rounds as (shift, multiplier); the last round has no multiply
_MIX = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
    (np.uint64(31), None),
)


def _blocks(seed: int, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """Outputs 1..count of SplitMix64 with the given seed, as (start, u) per
    block of at most _BLOCK draws: u[k] is output start + k + 1. Every block
    is computed in place in the same buffer, which the next block overwrites."""
    steps = np.arange(1, min(count, _BLOCK) + 1, dtype=np.uint64) * _U64_GAMMA  # k * GAMMA
    buf, tmp = np.empty_like(steps), np.empty_like(steps)
    for start in range(0, count, _BLOCK):
        z, t = buf[: count - start], tmp[: count - start]
        np.add(steps[: len(z)], np.uint64((seed + start * _GAMMA) & _MASK64), out=z)
        for shift, mult in _MIX:
            np.right_shift(z, shift, out=t)
            np.bitwise_xor(z, t, out=z)
            if mult is not None:
                np.multiply(z, mult, out=z)
        yield start, z


def _path_seed(seed: int, index: int) -> int:
    return mix64(seed + (index + 1) * _GAMMA)


def _threshold(p: Fraction) -> int:
    """floor(p * 2^64); u < threshold happens with probability ~p."""
    return (p.numerator << 64) // p.denominator


def _events(u: np.ndarray, p: Fraction, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise u < floor(p * 2^64), as a bool array (into `out` if given).

    The threshold of p = 1 is 2^64, beyond uint64, so that event is
    always true without a comparison.
    """
    if out is None:
        out = np.empty(u.shape, dtype=bool)
    if p >= 1:
        out.fill(True)
    else:
        np.less(u, np.uint64(_threshold(p)), out=out)
    return out


def _as_prob(value, name: str) -> Fraction:
    p = Fraction(value)
    if not 0 <= p <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class Bernoulli:
    """I.i.d. bits with P(1) = p."""

    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _as_prob(self.p, "p"))


@dataclass(frozen=True)
class Markov:
    """Stationary two-state chain; a01 = P(1|0), a10 = P(0|1).

    Both flip probabilities must be positive so the chain is irreducible
    and the stationary distribution (the initial law) is unique.
    """

    a01: Fraction
    a10: Fraction

    def __post_init__(self):
        a01 = _as_prob(self.a01, "a01")
        a10 = _as_prob(self.a10, "a10")
        if a01 == 0 or a10 == 0:
            raise ValueError("Markov model requires irreducibility: a01 > 0 and a10 > 0")
        object.__setattr__(self, "a01", a01)
        object.__setattr__(self, "a10", a10)

    @functools.cached_property
    def pi1(self) -> Fraction:
        """Stationary probability of state 1, computed once per model."""
        return Fraction(self.a01, self.a01 + self.a10)

    @property
    def is_ergodic(self) -> bool:
        # irreducible by construction; aperiodic unless it is the strict flip-flop
        return not (self.a01 == 1 and self.a10 == 1)


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of ergodic components; weights sum to one.

    Each sample path draws its component once and keeps it, so the
    process is stationary but in general not ergodic.
    """

    parts: tuple[tuple[Fraction, Union[Bernoulli, Markov]], ...]

    def __post_init__(self):
        parts = tuple((Fraction(w), c) for w, c in self.parts)
        if not parts:
            raise ValueError("mixture needs at least one component")
        for w, c in parts:
            if w <= 0:
                raise ValueError("mixture weights must be positive")
            if isinstance(c, Markov) and not c.is_ergodic:
                raise ValueError("mixture components must be ergodic (aperiodic chain)")
            if isinstance(c, Mixture):
                raise ValueError("mixtures may not be nested")
        if sum(w for w, _ in parts) != 1:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "parts", parts)


ProcessModel = Union[Bernoulli, Markov, Mixture]


def binary_entropy(p: float) -> float:
    """Shannon entropy in bits of a {p, 1-p} coin."""
    total = 0.0
    for v in (p, 1.0 - p):
        if 0.0 < v < 1.0:
            total -= v * math.log2(v)
    return total


def entropy_rate(model: ProcessModel) -> float:
    """Exact entropy rate in bits per symbol."""
    if isinstance(model, Bernoulli):
        return binary_entropy(float(model.p))
    if isinstance(model, Markov):
        pi1 = float(model.pi1)
        return (1.0 - pi1) * binary_entropy(float(model.a01)) + pi1 * binary_entropy(
            float(model.a10)
        )
    return sum(float(w) * entropy_rate(c) for w, c in model.parts)


def stationary_dist(matrix: Iterable[Iterable]) -> tuple[Fraction, Fraction]:
    """Stationary distribution of a 2x2 transition matrix, exact.

    Raises ValueError for a reducible chain, naming the absorbing state.
    """
    rows = [tuple(Fraction(v) for v in row) for row in matrix]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("expected a 2x2 matrix")
    for i, row in enumerate(rows):
        if sum(row) != 1:
            raise ValueError(f"row {i} does not sum to 1")
        if any(v < 0 for v in row):
            raise ValueError(f"row {i} has a negative entry")
    a01, a10 = rows[0][1], rows[1][0]
    for state, leave in ((0, a01), (1, a10)):
        if leave == 0:
            raise ValueError(f"chain is reducible: state {state} is absorbing")
    pi1 = Fraction(a01, a01 + a10)
    return (1 - pi1, pi1)


def block_prob(model: ProcessModel, x: str) -> Fraction:
    """Exact probability of the length-n cylinder [x] under the model."""
    check_bits(x, "block")
    if isinstance(model, Bernoulli):
        ones = x.count("1")
        return model.p**ones * (1 - model.p) ** (len(x) - ones)
    if isinstance(model, Markov):
        pi1 = model.pi1
        prob = pi1 if x[0] == "1" else 1 - pi1
        for prev, cur in zip(x, x[1:]):
            if prev == "0":
                prob *= model.a01 if cur == "1" else 1 - model.a01
            else:
                prob *= 1 - model.a10 if cur == "1" else model.a10
        return prob
    return sum((w * block_prob(c, x) for w, c in model.parts), Fraction(0))


def components(model: ProcessModel) -> list[tuple[Fraction, ProcessModel]]:
    """Ergodic decomposition: weight/component pairs summing to weight 1."""
    if isinstance(model, Mixture):
        return list(model.parts)
    return [(Fraction(1), model)]


def _sample_ergodic(model: Union[Bernoulli, Markov], path_seed: int, n: int) -> str:
    """The path of seed `path_seed`, drawn by the kernel when it is loaded,
    else by the numpy block sampler."""
    if kernel.load() is None:
        return _sample_blocks(model, path_seed, n)
    return _sample_kernel(model, path_seed, n)


def _sample_kernel(model: Union[Bernoulli, Markov], path_seed: int, n: int) -> str:
    """The path by the kernel's splitmix_bits. Each threshold goes as its low
    64 bits, with a flag for p = 1, whose threshold 2^64 is the only one out
    of range: bit 0 of `always` for below0, bit 1 for below1, bit 2 for the
    initial symbol's."""
    out = np.empty(n, dtype=np.uint8)  # allocated here, so an n too large raises MemoryError
    if isinstance(model, Bernoulli):
        t0 = t1 = first = _threshold(model.p)
        chain = 0
    else:
        t0, t1, first = _threshold(model.a01), _threshold(model.a10), _threshold(model.pi1)
        chain = 1
    always = (t0 >> 64) | (t1 >> 64) << 1 | (first >> 64) << 2
    if kernel.load().splitmix_bits(out.ctypes.data, n, path_seed, chain,
                         t0 & _MASK64, t1 & _MASK64, first & _MASK64, always):
        raise RuntimeError(f"splitmix_bits refused a path of {n} bits")
    return str(out.data, "ascii")


def _sample_blocks(model: Union[Bernoulli, Markov], path_seed: int, n: int) -> str:
    """The path by numpy, block by block."""
    out = np.empty(n, dtype=np.uint8)
    bits = out.view(bool)
    if isinstance(model, Bernoulli):
        for start, u in _blocks(path_seed, n):
            _events(u, model.p, bits[start : start + len(u)])
    else:
        _markov_states(model, path_seed, bits)
    np.bitwise_or(out, np.uint8(48), out=out)  # bit values -> '0'/'1'
    return str(out.data, "ascii")


def _markov_states(model: Markov, path_seed: int, bits: np.ndarray) -> None:
    """The flip rule's states, block by block into `bits`. Across blocks the
    composition carries the parity of the negations so far and the value
    after the last reset, both in the whole path's terms."""
    size = min(len(bits), _BLOCK)
    f0, f1, neg = (np.empty(size, dtype=bool) for _ in range(3))
    parity = after = False
    for start, u in _blocks(path_seed, len(bits)):
        m = len(u)
        b0, b1, nb = f0[:m], f1[:m], neg[:m]
        _events(u, model.a01, b0)
        _events(u, model.a10, b1)
        if start == 0:
            # step 0 is a reset to the initial symbol, drawn from the stationary law
            b0[0] = _events(u[:1], model.pi1)[0]
            b1[0] = not b0[0]
        np.bitwise_and(b0, b1, out=nb)
        nb[0] ^= parity
        np.logical_xor.accumulate(nb, out=nb)  # parity of the negations in [0, start + j]
        np.not_equal(b0, b1, out=b1)
        resets = np.flatnonzero(b1)
        # the value after the last reset k <= j, carried to j by the parity in (k, j]
        vals = np.concatenate(([after], b0[resets] ^ nb[resets]))
        state = np.repeat(vals, np.diff(np.concatenate(([0], resets, [m]))))
        np.bitwise_xor(state, nb, out=bits[start : start + m])
        parity, after = bool(nb[-1]), bool(vals[-1])


def _sample_one(model: ProcessModel, path_seed: int, n: int) -> tuple[str, int]:
    """One path plus the index of the ergodic component that produced it."""
    if isinstance(model, Mixture):
        u0 = mix64(path_seed + _GAMMA)  # output 1 of the path's generator
        cum = Fraction(0)
        for idx, (w, comp) in enumerate(model.parts):
            cum += w
            if u0 < _threshold(cum):  # the weights sum to 1, so the last part always hits
                break
        child_seed = mix64(path_seed + 2 * _GAMMA)
        return _sample_ergodic(comp, child_seed, n), idx
    return _sample_ergodic(model, path_seed, n), 0


def sample_paths(
    model: ProcessModel, n: int, seed: int, count: int, first: int = 0
) -> list[tuple[str, int]]:
    """`count` independent length-n paths, paths first .. first + count - 1
    of the run with master seed `seed`; each is (bits, component index)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return [_sample_one(model, _path_seed(seed, i), n) for i in range(first, first + count)]


def sample(model: ProcessModel, n: int, seed: int) -> str:
    """Deterministic length-n sample path for (model, n, seed)."""
    return sample_paths(model, n, seed, 1)[0][0]


# --- model specification text ---------------------------------------------

def _markov_from_rows(text: str) -> Markov:
    """Build a chain from "p00,p01;p10,p11" after validating row sums."""
    rows = [
        [parse_fraction(v, "rows") for v in row.split(",")] for row in text.split(";")
    ]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("rows: expected two rows of two entries")
    for i, row in enumerate(rows):
        if sum(row) != 1:
            raise ValueError(f"rows: row {i} does not sum to 1")
    return Markov(rows[0][1], rows[1][0])


_CHAIN_KEYS = (("flip",), ("rows",), ("a01", "a10"))


def _ergodic(kind: str, items: list[tuple[str, str]]) -> Union[Bernoulli, Markov]:
    """A "bernoulli" or "markov" model from its (key, value) items. A chain
    takes the keys of the first form in _CHAIN_KEYS whose first key is
    given (a01 and a10 when none is); any other key is unknown."""
    if kind == "bernoulli":
        keys: tuple[str, ...] = ("p",)
    else:
        names = {key for key, _ in items}
        keys = next((ks for ks in _CHAIN_KEYS if ks[0] in names), _CHAIN_KEYS[-1])
    kv = key_values(items, kind, keys, keys)
    if keys == ("rows",):
        return _markov_from_rows(kv["rows"])
    values = [parse_fraction(kv[key], key) for key in keys]
    if kind == "bernoulli":
        return Bernoulli(values[0])
    return Markov(values[0], values[-1])  # flip=f is Markov(f, f)


def _parse_compact(spec: str) -> ProcessModel:
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind in ("bernoulli", "markov"):
        return _ergodic(kind, pairs(rest.split(",") if rest.strip() else [], kind))
    if kind == "mixture":
        parts = []
        for item in rest.split("+"):
            w_text, _, comp_text = item.partition("*")
            if not comp_text:
                raise ValueError("mixture components must look like w*model")
            if comp_text.partition(":")[0].strip().lower() == "mixture":
                raise ValueError("mixtures may not be nested")
            comp = _parse_compact(comp_text.strip())
            parts.append((parse_fraction(w_text, "weight"), comp))
        return Mixture(tuple(parts))
    raise ValueError(f"unknown model kind {kind!r}")


def parse_model_spec(text: str) -> ProcessModel:
    """Parse a model from compact text or a key/value document.

    Compact: "bernoulli:p=1/2", "markov:flip=1/10", "markov:a01=1/5,a10=3/5",
    "mixture:1/2*bernoulli:p=1/10+1/2*bernoulli:p=1/2".

    Document form: one key per line, e.g. "variant=markov" then "flip=1/10";
    mixtures use repeated "component=WEIGHT SPEC" lines and no other key, and
    only mixtures take component lines.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty model specification")
    if "\n" not in text and not text.startswith("variant"):
        return _parse_compact(text)
    items = pairs(document_lines(text), "model document")
    comps = [value for key, value in items if key == "component"]
    kv = key_values([item for item in items if item[0] != "component"], "model document")
    variant = kv.pop("variant", "").lower()
    if variant == "mixture":
        key_values(kv.items(), "mixture", ())  # no key but variant and components
        parts = []
        for comp in comps:
            w_text, _, spec = comp.partition(" ")
            parts.append((parse_fraction(w_text, "weight"), _parse_compact(spec.strip())))
        return Mixture(tuple(parts))
    if variant not in ("bernoulli", "markov"):
        raise ValueError(f"model document: unknown variant {variant!r}")
    if comps:
        raise ValueError(f"model document: component lines need variant=mixture, not {variant!r}")
    return _ergodic(variant, list(kv.items()))


def format_model(model: ProcessModel) -> str:
    """Compact text form, inverse of parse_model_spec for round-trips."""
    if isinstance(model, Bernoulli):
        return f"bernoulli:p={model.p}"
    if isinstance(model, Markov):
        if model.a01 == model.a10:
            return f"markov:flip={model.a01}"
        return f"markov:a01={model.a01},a10={model.a10}"
    return "mixture:" + "+".join(f"{w}*{format_model(c)}" for w, c in model.parts)
