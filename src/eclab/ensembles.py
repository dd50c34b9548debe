"""The fixed family of describable ensembles.

An ensemble here is a probability distribution supported on binary
strings of one fixed length n. Six tags are available: point masses on
a string (stored raw or LZ-compressed), the uniform distribution on
{0,1}^n, the uniform distribution on a typical set T(r, n), and i.i.d.
or two-state Markov measures with dyadic parameters a/2^m.

Every ensemble has an explicit prefix-free serialization: 3 tag bits,
the delta code of n, then a tag-specific payload. `desc_len` is exactly
the length of that serialization and `decode_ensemble` reconstructs the
ensemble from it, which is what justifies using desc_len as the
description-length side of all two-part codes built on the family.

Probabilities are exact rationals. Entropies are exact for the uniform
tags and evaluated in double precision for the quantized tags (the
Markov tag by a forward marginal recursion with absolute error below
1e-9 * n).

Each tag's arithmetic is defined here once, and `complexity` calls it: the
support test, bit counts and likelihood factors, description lengths, the
typicality rule and the `tag:key=value` text form.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

from . import lz78, typical_sets
from .codec import (
    check_bits,
    decode_nat,
    decode_rational,
    encode_nat,
    encode_rational,
    is_bits,
    nat_code_len,
    rational_code_len,
    read_uint,
)
from .errors import DecodeError
from .processes import binary_entropy
from .text import key_values, pairs, parse_fraction, parse_int

__all__ = [
    "SingletonRaw",
    "SingletonLZ",
    "UniformAll",
    "UniformTypical",
    "IIDQuantized",
    "MarkovQuantized",
    "Ensemble",
    "TAG_NAMES",
    "tag_index",
    "support_length",
    "BitCounts",
    "bit_counts",
    "iid_factors",
    "markov_factors",
    "prob",
    "entropy",
    "head_len",
    "typical_desc_len",
    "iid_desc_len",
    "markov_desc_len",
    "desc_len",
    "total_info",
    "neg_log2_prob",
    "ceil_neg_log2_prob",
    "is_delta_typical",
    "is_typical",
    "TYPICALITY_SLACK",
    "serialize",
    "decode_ensemble",
    "decode_ensemble_prefix",
    "format_ensemble",
    "parse_ensemble_spec",
]

TYPICALITY_SLACK = 1e-9  # absolute slack toward acceptance in the typicality test
_MAX_INLINE_X = 64  # the longest singleton x that format_ensemble writes out


@dataclass(frozen=True)
class SingletonRaw:
    """Point mass on x, described by storing x verbatim."""

    x: str

    def __post_init__(self):
        check_bits(self.x, "string")


@dataclass(frozen=True)
class SingletonLZ:
    """Point mass on x, described by the LZ78 phrase stream of x."""

    x: str

    def __post_init__(self):
        check_bits(self.x, "string")


@dataclass(frozen=True)
class UniformAll:
    """Uniform distribution on all of {0,1}^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class UniformTypical:
    """Uniform distribution on the typical set T(r, n).

    Nonemptiness is validated at construction whenever n is within the
    exhaustive-enumeration bound; larger n is allowed so the tag can be
    referenced in certified-upper-bound computations, but exact prob and
    entropy then refuse to run.
    """

    r: Fraction
    n: int

    def __post_init__(self):
        r = Fraction(self.r)
        if r <= 0:
            raise ValueError("rate r must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "r", r)
        if self.n <= typical_sets.DEFAULT_N_MAX and self._cardinality() == 0:
            raise ValueError(f"T({r}, {self.n}) is empty")

    def _spec(self) -> typical_sets.TypicalSetSpec:
        return typical_sets.TypicalSetSpec(self.r, self.n)

    def _cardinality(self) -> int:
        return typical_sets.cardinality(self._spec())


@dataclass(frozen=True)
class IIDQuantized:
    """I.i.d. bits on {0,1}^n with P(1) = a / 2^m, 0 < a < 2^m."""

    n: int
    m: int
    a: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not 0 < self.a or self.a.bit_length() > self.m:  # 0 < a < 2^m, without building 2^m
            raise ValueError("a must satisfy 0 < a < 2^m")


@dataclass(frozen=True)
class MarkovQuantized:
    """Two-state chain on {0,1}^n with dyadic flip and initial probabilities.

    a0/2^m = P(1|0), a1/2^m = P(0|1), ai/2^m = P(first symbol is 1);
    each parameter lies strictly between 0 and 2^m, so every string of
    length n has positive probability.
    """

    n: int
    m: int
    a0: int
    a1: int
    ai: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        for name in ("a0", "a1", "ai"):
            v = getattr(self, name)
            if not 0 < v or v.bit_length() > self.m:  # 0 < v < 2^m, without building 2^m
                raise ValueError(f"{name} must satisfy 0 < {name} < 2^m")


Ensemble = (
    SingletonRaw | SingletonLZ | UniformAll | UniformTypical | IIDQuantized | MarkovQuantized
)

TAG_NAMES = {
    SingletonRaw: "singleton-raw",
    SingletonLZ: "singleton-lz",
    UniformAll: "uniform-all",
    UniformTypical: "uniform-typ",
    IIDQuantized: "iid",
    MarkovQuantized: "markov-q",
}
_TAG_INDEX = {cls: i for i, cls in enumerate(TAG_NAMES)}  # the 3 tag bits
_KEYS = {cls: tuple(f.name for f in fields(cls)) for cls in TAG_NAMES}
_TEXT = {cls: ",".join(f"{k}={{0.{k}}}" for k in keys) for cls, keys in _KEYS.items()}


def tag_index(e: Ensemble) -> int:
    return _TAG_INDEX[type(e)]


def support_length(e: Ensemble) -> int:
    """The single string length the ensemble is supported on."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return len(e.x)
    return e.n


# --- likelihoods --------------------------------------------------------------
#
# x is in the support of E when it is a singleton's own string, or else a
# '0'/'1' string of length n (for uniform-typ, in T(r, n) too). A dyadic
# tag's E(x) is A / 2^(m n), A the product of its (base, exp) factors over
# x's length, first bit, ones and transitions 00, 01, 10, 11:
BitCounts = namedtuple("BitCounts", "n first ones n00 n01 n10 n11")


def bit_counts(x: str) -> BitCounts:
    """The BitCounts of a nonempty '0'/'1' string, read as one integer."""
    n = len(x)
    v = int(x, 2)
    ones = v.bit_count()
    if n > 1:
        mask = (1 << (n - 1)) - 1
        n11 = ((v >> 1) & v & mask).bit_count()
        n01 = (~(v >> 1) & v & mask).bit_count()
        n10 = ((v >> 1) & ~v & mask).bit_count()
        n00 = (n - 1) - n01 - n10 - n11
    else:
        n00 = n01 = n10 = n11 = 0
    return BitCounts(n, (v >> (n - 1)) & 1, ones, n00, n01, n10, n11)


def iid_factors(c, top: int, a: int) -> tuple:
    """The factors a^ones (top - a)^zeros, top = 2^m, for counts c (any
    object with the BitCounts fields)."""
    return ((a, c.ones), (top - a, c.n - c.ones))


def markov_factors(c, top: int, init: int, a0: int, a1: int) -> tuple:
    """The factors of a Markov numerator: the initial-symbol term init once,
    then the transitions 00, 01, 10, 11, the order neg_log2_prob adds in."""
    return ((init, 1), (top - a0, c.n00), (a0, c.n01), (a1, c.n10), (top - a1, c.n11))


def _in_support(e: Ensemble, x: str) -> bool:
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return x == e.x
    if len(x) != e.n or not is_bits(x):
        return False
    return not isinstance(e, UniformTypical) or typical_sets.contains(e._spec(), x)


def _factors(e: IIDQuantized | MarkovQuantized, x: str) -> tuple:
    c = bit_counts(x)
    top = 1 << e.m
    if isinstance(e, IIDQuantized):
        return iid_factors(c, top, e.a)
    return markov_factors(c, top, e.ai if c.first else top - e.ai, e.a0, e.a1)


def prob(e: Ensemble, x: str) -> Fraction:
    """Exact probability E(x); zero off the support."""
    if not _in_support(e, x):
        return Fraction(0)
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return Fraction(1)
    if isinstance(e, UniformAll):
        return Fraction(1, 1 << e.n)
    if isinstance(e, UniformTypical):
        return Fraction(1, e._cardinality())
    return Fraction(math.prod(b**k for b, k in _factors(e, x)), 1 << (e.m * e.n))


def entropy(e: Ensemble) -> float:
    """Shannon entropy H(E) in bits."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return 0.0
    if isinstance(e, UniformAll):
        return float(e.n)
    if isinstance(e, UniformTypical):
        return math.log2(e._cardinality())
    if isinstance(e, IIDQuantized):
        return e.n * binary_entropy(e.a / (1 << e.m))
    return _markov_entropy(e.n, e.m, e.a0, e.a1, e.ai)


@lru_cache(maxsize=1 << 18)
def _markov_entropy(n: int, m: int, a0: int, a1: int, ai: int) -> float:
    """The chain-rule sum H(X_1) + sum_t H(X_t+1 | X_t), added in order.

    Each step's increment and next marginal depend only on the current
    float p1, so once p1 repeats exactly the increments repeat with it.
    The loop marks p1 after steps 0, 32, 96, 224, ... (Brent's cycle
    detection with a first window of 32 steps, so that short lengths pay
    little for the outer loop) and compares each new p1 with the mark; on
    a repeat it collects one period of increments and _add_cyclic adds the
    remaining steps bitwise as this loop would (inside one binade a
    tie-free period adds an exact multiple of the ulp). On the m <= 6 grid
    every entry repeats within about a thousand steps, with period at
    most 4.
    """
    top = 1 << m
    q0 = a0 / top
    q1 = a1 / top
    h0 = binary_entropy(q0)
    h1 = binary_entropy(q1)
    p1 = ai / top
    total = binary_entropy(p1)
    done, span = 0, 32
    while done < n - 1:
        mark = p1
        for i in range(min(span, n - 1 - done)):
            p0 = 1.0 - p1
            total = total + (p0 * h0 + p1 * h1)
            p1 = p0 * q0 + p1 * (1.0 - q1)
            if p1 == mark:  # the marginals repeat with period i + 1 from here
                incs = []
                for _ in range(i + 1):
                    p0 = 1.0 - p1
                    incs.append(p0 * h0 + p1 * h1)
                    p1 = p0 * q0 + p1 * (1.0 - q1)
                return _add_cyclic(total, incs, n - 2 - done - i)
        done += span
        span *= 2
    return total


def _add_cyclic(total: float, incs: list[float], k: int) -> float:
    """total + incs[0] + incs[1] + ... for k terms taken cyclically, each
    added in double precision: bitwise the float of the plain loop.

    While total stays in one binade [2^(e-1), 2^e), floats there are the
    multiples of u = 2^(e-53), so fl(total + inc) = total + u*round(inc/u)
    unless inc/u ends in exactly .5 (a tie, rounded to even by total's own
    parity). A tie-free cycle of non-negative increments therefore moves
    total by one fixed multiple of u, and whole cycles are jumped at once
    as long as every partial sum stays at or below 2^e - u. The binade
    boundary, ties, non-normal totals, increments as wide as the binade
    and the tail go one step at a time.
    """
    period = len(incs)
    jumpable = all(0.0 <= inc < math.inf for inc in incs)
    while k >= period:
        if jumpable and total >= sys.float_info.min:
            e = math.frexp(total)[1]
            u = math.ldexp(1.0, e - 53)
            units = [inc / u for inc in incs]
            # an increment of 2^52 units or more leaves the binade in one step
            if all(r < 2.0**52 and r % 1.0 != 0.5 for r in units):
                gain = sum(round(r) for r in units)  # per period, in units of u
                room = int((math.ldexp(1.0, e) - total) / u) - 1
                cycles = k // period if gain == 0 else min(k // period, room // gain)
                total += float(cycles * gain) * u
                k -= cycles * period
                if k < period:
                    break
        for inc in incs:
            total = total + inc
        k -= period
    for inc in incs[:k]:
        total = total + inc
    return total


# --- description lengths ------------------------------------------------------

def head_len(n: int) -> int:
    """3 tag bits and delta(n): every serialization's head, uniform-all's whole."""
    return 3 + nat_code_len(n)


def typical_desc_len(n: int, r: Fraction) -> int:
    return head_len(n) + rational_code_len(r)


@lru_cache(maxsize=1 << 12)  # complexity reads both for every order of every x
def iid_desc_len(n: int, m: int) -> int:
    return head_len(n) + nat_code_len(m) + m


@lru_cache(maxsize=1 << 12)
def markov_desc_len(n: int, m: int) -> int:
    return head_len(n) + nat_code_len(m) + 3 * m


def desc_len(e: Ensemble) -> int:
    """Length in bits of serialize(e): 3 tag bits plus the tag payload."""
    if isinstance(e, SingletonRaw):
        return head_len(len(e.x)) + len(e.x)
    if isinstance(e, SingletonLZ):
        return head_len(len(e.x)) + lz78.code_len(e.x)
    if isinstance(e, UniformAll):
        return head_len(e.n)
    if isinstance(e, UniformTypical):
        return typical_desc_len(e.n, e.r)
    if isinstance(e, IIDQuantized):
        return iid_desc_len(e.n, e.m)
    return markov_desc_len(e.n, e.m)


def total_info(e: Ensemble) -> float:
    """H(E) + D(E)."""
    return entropy(e) + desc_len(e)


def neg_log2_prob(e: Ensemble, x: str) -> float:
    """-log2 E(x) in double precision; +inf off the support."""
    if not _in_support(e, x):
        return math.inf
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return 0.0
    if isinstance(e, UniformAll):
        return float(e.n)
    if isinstance(e, UniformTypical):
        return math.log2(e._cardinality())
    total = 0.0
    for base, exp in _factors(e, x):
        total = total + exp * (e.m - math.log2(base))
    return total


def ceil_neg_log2_prob(e: Ensemble, x: str) -> int:
    """ceil(-log2 E(x)) computed exactly in integer arithmetic; ValueError
    off the support.

    Every tag except uniform-typ has a dyadic probability A / 2^s, for
    which ceil(s - log2 A) == s - A.bit_length() + 1.
    """
    if not _in_support(e, x):
        raise ValueError("x is outside the support")
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return 0
    if isinstance(e, UniformAll):
        return e.n
    if isinstance(e, UniformTypical):
        return (e._cardinality() - 1).bit_length()
    return e.m * e.n - math.prod(b**k for b, k in _factors(e, x)).bit_length() + 1


def is_typical(neglogp, H, delta_f: float):
    """The typicality rule -log2 E(x) <= H(E)(1 + delta), with TYPICALITY_SLACK
    toward acceptance so that exact-boundary cases (uniform supports) are
    never lost to rounding; elementwise on numpy arrays."""
    return neglogp <= H * (1.0 + delta_f) + TYPICALITY_SLACK


def is_delta_typical(e: Ensemble, x: str, delta) -> bool:
    """True iff x is in the support and is_typical(-log2 E(x), H(E), delta)."""
    d = float(delta)
    if d < 0:
        raise ValueError("delta must be >= 0")
    v = neg_log2_prob(e, x)
    return v != math.inf and is_typical(v, entropy(e), d)


# --- serialization ---------------------------------------------------------

def serialize(e: Ensemble) -> str:
    """Prefix-free bit serialization; its length is exactly desc_len(e)."""
    n = support_length(e)
    head = format(tag_index(e), "03b") + encode_nat(n)
    if isinstance(e, SingletonRaw):
        return head + e.x
    if isinstance(e, SingletonLZ):
        return head + lz78.phrase_stream(e.x)
    if isinstance(e, UniformAll):
        return head
    if isinstance(e, UniformTypical):
        return head + encode_rational(e.r)
    if isinstance(e, IIDQuantized):
        return head + encode_nat(e.m) + format(e.a, f"0{e.m}b")
    return (
        head
        + encode_nat(e.m)
        + format(e.a0, f"0{e.m}b")
        + format(e.a1, f"0{e.m}b")
        + format(e.ai, f"0{e.m}b")
    )


def decode_ensemble_prefix(bits: str, start: int = 0) -> tuple[Ensemble, int]:
    """Decode one ensemble starting at `start`; returns (ensemble, consumed)."""
    if len(bits) - start < 3:
        raise DecodeError("truncated ensemble: missing tag")
    tag = read_uint(bits, start, 3)
    i = start + 3
    n, used = decode_nat(bits, i)
    i += used

    def read_fixed(width: int) -> int:
        nonlocal i
        if len(bits) - i < width:
            raise DecodeError("truncated ensemble payload")
        v = read_uint(bits, i, width)
        i += width
        return v

    try:
        if tag == 0:
            if len(bits) - i < n:
                raise DecodeError("truncated raw singleton payload")
            x = bits[i : i + n]
            i += n
            return SingletonRaw(x), i - start
        if tag == 1:
            x, used = lz78.decode_phrases(bits, i, n)
            i += used
            return SingletonLZ(x), i - start
        if tag == 2:
            return UniformAll(n), i - start
        if tag == 3:
            r, used = decode_rational(bits, i)
            i += used
            return UniformTypical(r, n), i - start
        if tag == 4:
            m, used = decode_nat(bits, i)
            i += used
            return IIDQuantized(n, m, read_fixed(m)), i - start
        if tag == 5:
            m, used = decode_nat(bits, i)
            i += used
            return MarkovQuantized(n, m, read_fixed(m), read_fixed(m), read_fixed(m)), i - start
    except ValueError as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(f"invalid ensemble parameters: {exc}") from exc
    raise DecodeError(f"unknown ensemble tag {tag}")


def decode_ensemble(bits: str) -> Ensemble:
    """Decode a complete serialization; rejects trailing bits."""
    e, used = decode_ensemble_prefix(bits)
    if used != len(bits):
        raise DecodeError("trailing data after ensemble serialization")
    return e


# --- text form --------------------------------------------------------------

def format_ensemble(e: Ensemble) -> tuple[str, str]:
    """(tag name, parameter text): each field as key=value, in field order.
    A singleton's text names its length n first; a long x is elided."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        n = len(e.x)
        return TAG_NAMES[type(e)], f"n={n},x={e.x}" if n <= _MAX_INLINE_X else f"n={n}"
    return TAG_NAMES[type(e)], _TEXT[type(e)].format(e)


def parse_ensemble_spec(text: str) -> Ensemble:
    """Parse "tag:key=value,..." as produced by format_ensemble: each key of
    the tag exactly once, and a singleton's n equal to len(x)."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    cls = {name: c for c, name in TAG_NAMES.items()}.get(kind)
    if cls is None:
        raise ValueError(f"unknown ensemble tag {kind!r}")
    keys = _KEYS[cls]
    if keys == ("x",):
        keys = ("n", "x")  # a singleton's text form names its length too
    kv = key_values(pairs(rest.split(",") if rest.strip() else [], kind), kind, keys, keys)
    parse = {"x": lambda v, _what: v, "r": parse_fraction}
    args = {key: parse.get(key, parse_int)(kv[key], f"{kind}: {key}") for key in keys}
    if "x" in args and args.pop("n") != len(args["x"]):
        raise ValueError(f"{kind}: n={kv['n']} but x has length {len(args['x'])}")
    return cls(**args)
