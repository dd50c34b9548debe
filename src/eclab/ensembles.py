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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lz78, typical_sets
from .codec import (
    decode_nat,
    decode_rational,
    encode_nat,
    encode_rational,
    is_bits,
    nat_code_len,
    rational_code_len,
)
from .errors import DecodeError
from .processes import _parse_fraction, binary_entropy

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
    "prob",
    "entropy",
    "desc_len",
    "total_info",
    "neg_log2_prob",
    "ceil_neg_log2_prob",
    "is_delta_typical",
    "TYPICALITY_SLACK",
    "serialize",
    "decode_ensemble",
    "decode_ensemble_prefix",
    "format_ensemble",
    "parse_ensemble_spec",
]

TYPICALITY_SLACK = 1e-9  # absolute slack toward acceptance in the typicality test


def _check_bits(x: str) -> None:
    if not x:
        raise ValueError("string must be nonempty")
    if not is_bits(x):
        raise ValueError("string must consist of '0'/'1' only")


@dataclass(frozen=True)
class SingletonRaw:
    """Point mass on x, described by storing x verbatim."""

    x: str

    def __post_init__(self):
        _check_bits(self.x)


@dataclass(frozen=True)
class SingletonLZ:
    """Point mass on x, described by the LZ78 phrase stream of x."""

    x: str

    def __post_init__(self):
        _check_bits(self.x)


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
        if not 0 < self.a < (1 << self.m):
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
        top = 1 << self.m
        for name in ("a0", "a1", "ai"):
            v = getattr(self, name)
            if not 0 < v < top:
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
_TAG_INDEX = {
    SingletonRaw: 0,
    SingletonLZ: 1,
    UniformAll: 2,
    UniformTypical: 3,
    IIDQuantized: 4,
    MarkovQuantized: 5,
}


def tag_index(e: Ensemble) -> int:
    return _TAG_INDEX[type(e)]


def support_length(e: Ensemble) -> int:
    """The single string length the ensemble is supported on."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return len(e.x)
    return e.n


def prob(e: Ensemble, x: str) -> Fraction:
    """Exact probability E(x); zero off the support (including wrong length)."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return Fraction(1) if x == e.x else Fraction(0)
    if len(x) != e.n or not is_bits(x):
        return Fraction(0)
    if isinstance(e, UniformAll):
        return Fraction(1, 1 << e.n)
    if isinstance(e, UniformTypical):
        if not typical_sets.contains(e._spec(), x):
            return Fraction(0)
        return Fraction(1, e._cardinality())
    top = 1 << e.m
    if isinstance(e, IIDQuantized):
        ones = x.count("1")
        return Fraction(e.a**ones * (top - e.a) ** (e.n - ones), top**e.n)
    num = e.ai if x[0] == "1" else top - e.ai
    for prev, cur in zip(x, x[1:]):
        if prev == "0":
            num *= e.a0 if cur == "1" else top - e.a0
        else:
            num *= top - e.a1 if cur == "1" else e.a1
    return Fraction(num, top**e.n)


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


def desc_len(e: Ensemble) -> int:
    """Length in bits of serialize(e): 3 tag bits plus the tag payload."""
    n = support_length(e)
    base = 3 + nat_code_len(n)
    if isinstance(e, SingletonRaw):
        return base + n
    if isinstance(e, SingletonLZ):
        return base + lz78.code_len(e.x)
    if isinstance(e, UniformAll):
        return base
    if isinstance(e, UniformTypical):
        return base + rational_code_len(e.r)
    if isinstance(e, IIDQuantized):
        return base + nat_code_len(e.m) + e.m
    return base + nat_code_len(e.m) + 3 * e.m


def total_info(e: Ensemble) -> float:
    """H(E) + D(E)."""
    return entropy(e) + desc_len(e)


def neg_log2_prob(e: Ensemble, x: str) -> float:
    """-log2 E(x) in double precision; +inf off the support."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        return 0.0 if x == e.x else math.inf
    if len(x) != e.n:
        return math.inf
    if isinstance(e, UniformAll):
        return float(e.n)
    if isinstance(e, UniformTypical):
        if not typical_sets.contains(e._spec(), x):
            return math.inf
        return math.log2(e._cardinality())
    m = e.m
    top = 1 << m
    if isinstance(e, IIDQuantized):
        ones = x.count("1")
        c1 = m - math.log2(e.a)
        c0 = m - math.log2(top - e.a)
        return ones * c1 + (e.n - ones) * c0
    n00, n01, n10, n11 = _transition_counts(x)
    li = m - math.log2(e.ai if x[0] == "1" else top - e.ai)
    c00 = m - math.log2(top - e.a0)
    c01 = m - math.log2(e.a0)
    c10 = m - math.log2(e.a1)
    c11 = m - math.log2(top - e.a1)
    return li + n00 * c00 + n01 * c01 + n10 * c10 + n11 * c11


def _transition_counts(x: str) -> tuple[int, int, int, int]:
    n00 = n01 = n10 = n11 = 0
    for prev, cur in zip(x, x[1:]):
        if prev == "0":
            if cur == "0":
                n00 += 1
            else:
                n01 += 1
        elif cur == "0":
            n10 += 1
        else:
            n11 += 1
    return n00, n01, n10, n11


def ceil_neg_log2_prob(e: Ensemble, x: str) -> int:
    """ceil(-log2 E(x)) computed exactly in integer arithmetic.

    Every tag except uniform-typ has a dyadic probability A / 2^s, for
    which ceil(s - log2 A) == s - A.bit_length() + 1.
    """
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        if x != e.x:
            raise ValueError("x is outside the support")
        return 0
    if len(x) != e.n:
        raise ValueError("x is outside the support")
    if isinstance(e, UniformAll):
        return e.n
    if isinstance(e, UniformTypical):
        if not typical_sets.contains(e._spec(), x):
            raise ValueError("x is outside the support")
        return (e._cardinality() - 1).bit_length()
    m = e.m
    top = 1 << m
    if isinstance(e, IIDQuantized):
        ones = x.count("1")
        num = e.a**ones * (top - e.a) ** (e.n - ones)
    else:
        n00, n01, n10, n11 = _transition_counts(x)
        num = (
            (e.ai if x[0] == "1" else top - e.ai)
            * e.a0**n01
            * (top - e.a0) ** n00
            * e.a1**n10
            * (top - e.a1) ** n11
        )
    return m * e.n - num.bit_length() + 1


def is_delta_typical(e: Ensemble, x: str, delta) -> bool:
    """True iff x is in the support and -log2 E(x) <= H(E)(1 + delta).

    The comparison carries a 1e-9 absolute slack toward acceptance so
    exact-boundary cases (uniform supports) are never lost to rounding.
    """
    d = float(delta)
    if d < 0:
        raise ValueError("delta must be >= 0")
    v = neg_log2_prob(e, x)
    if v == math.inf:
        return False
    return v <= entropy(e) * (1.0 + d) + TYPICALITY_SLACK


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
    tag = int(bits[start : start + 3], 2)
    i = start + 3
    n, used = decode_nat(bits, i)
    i += used

    def read_fixed(width: int) -> int:
        nonlocal i
        if len(bits) - i < width:
            raise DecodeError("truncated ensemble payload")
        v = int(bits[i : i + width], 2) if width else 0
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

def format_ensemble(e: Ensemble, max_inline_x: int = 64) -> tuple[str, str]:
    """(tag name, parameter text). Long singleton payloads are elided."""
    if isinstance(e, (SingletonRaw, SingletonLZ)):
        n = len(e.x)
        params = f"n={n},x={e.x}" if n <= max_inline_x else f"n={n}"
        return TAG_NAMES[type(e)], params
    if isinstance(e, UniformAll):
        return TAG_NAMES[type(e)], f"n={e.n}"
    if isinstance(e, UniformTypical):
        return TAG_NAMES[type(e)], f"r={e.r},n={e.n}"
    if isinstance(e, IIDQuantized):
        return TAG_NAMES[type(e)], f"n={e.n},m={e.m},a={e.a}"
    return TAG_NAMES[type(e)], f"n={e.n},m={e.m},a0={e.a0},a1={e.a1},ai={e.ai}"


def parse_ensemble_spec(text: str) -> Ensemble:
    """Parse "tag:key=value,..." as produced by format_ensemble."""
    kind, _, rest = text.strip().partition(":")
    kv: dict[str, str] = {}
    for item in rest.split(","):
        if not item:
            continue
        k, sep, v = item.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {item!r}")
        kv[k.strip()] = v.strip()
    kind = kind.strip().lower()

    def get(key: str) -> str:
        if key not in kv:
            raise ValueError(f"{kind}: missing key {key!r}")
        return kv[key]

    if kind == "singleton-raw":
        return SingletonRaw(get("x"))
    if kind == "singleton-lz":
        return SingletonLZ(get("x"))
    if kind == "uniform-all":
        return UniformAll(int(get("n")))
    if kind == "uniform-typ":
        return UniformTypical(_parse_fraction(get("r"), "uniform-typ: r"), int(get("n")))
    if kind == "iid":
        return IIDQuantized(int(get("n")), int(get("m")), int(get("a")))
    if kind == "markov-q":
        return MarkovQuantized(
            int(get("n")), int(get("m")), int(get("a0")), int(get("a1")), int(get("ai"))
        )
    raise ValueError(f"unknown ensemble tag {kind!r}")
