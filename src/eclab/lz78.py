"""LZ78 incremental parsing and a faithful binary coder.

The parse scans left to right; each phrase is the longest prefix of the
remaining input that matches a dictionary phrase, extended by one symbol
while input remains. If the input runs out mid-match the final phrase is
the matched dictionary phrase with no extension bit, so the code-length
function is total on all finite strings.

Phrase j (1-based) is emitted as its parent index in ceil(log2 j) bits
followed by one literal bit; a final partial phrase after c complete
phrases is an index in ceil(log2 (c+1)) bits with no literal. `code_len`
is the phrase-stream length alone; `encode` prepends the Elias delta
code of the input length, which makes the full stream self-delimiting.

One trie walk (`_walk`) does the parsing for `parse`, `code_len`,
`iter_with_code_len` and the membership test. It keeps the phrase
dictionary as a binary trie in one array of slots: the children of the node
stored at offset i sit at i and i + 1 (one per bit), each holding its
child's offset, with 0 for no child, and phrase j is stored at offset 2j.
The array is sized once per parse, with room for the root and for C(n)
phrases, where C(n) = max{c : sum_{j<=c} floor(log2(j + 1)) <= n} is the
most distinct nonempty phrases n bits can hold (73,725 at n = 2^20), and
one last slot that counts the complete phrases so far.

The walk's loop runs in C (`kernel.lz78_walk`): 4-5 ns per bit on
2^20-bit paths, against 40-55 ns for the same loop in Python (2-core x86 VM,
Python 3.11), and about 1 us more per call for ctypes. When the kernel
cannot be built or loaded, the Python loop serves, on a list, and nothing
is printed.

Since the code length depends only on the number c of complete phrases and
on whether a partial phrase follows, `code_len` counts c off the walk and
adds the bits up once at the end. The parse is online: the complete phrases
of a prefix are the first phrases of the whole parse. So `_code_len_below`,
the exact test code_len(x) * den < bound behind typical-set membership,
gives the walk a stop count and the walk returns at the phrase whose bits
reach the bound: the answer is False then, and a non-member is rarely
parsed to the end.

`parse` reads the phrases off the walk's trie. Phrase j was stored at
offset 2j in the slot 2 * parent + bit, and that slot number is its record:
the record in bitlen(j - 1) + 1 bits is exactly phrase j's code, index
field and literal bit. So the stream is cut into width blocks: block k
holds the 2^(k-1) records of phrases 2^(k-1) + 1 .. 2^k, k + 1 bits each,
at an offset known in advance. `phrase_stream` formats the first
`_VECTOR_MIN` records one `format` each and every later block by numpy in
one pass over a (records, k + 1) array of bits. `decode_phrases` reads
every stretch of at least `_VECTOR_MIN` records of one block that the
stream holds in the same way. The first `_VECTOR_MIN` phrases, the phrases
where the decoded string reaches its declared length, and any phrase that
does not decode cleanly take the scalar step, one phrase at a time, so the
results and every DecodeError, with its message and order, are those of
decoding the whole stream one phrase at a time.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from . import kernel
from .codec import _SLICE, check_bits, decode_nat, encode_nat, read_uint
from .errors import DecodeError, ResourceLimitError

__all__ = [
    "LZParse",
    "parse",
    "code_len",
    "phrase_stream",
    "encode",
    "decode",
    "code_length_counts",
    "iter_with_code_len",
    "kraft_sum",
]

# The first _VECTOR_MIN records, and stretches of fewer records, take the
# scalar step. A power of 2, so that the blocks after them start whole.
_VECTOR_MIN = 256


@dataclass(frozen=True, eq=False)
class LZParse:
    """Parse result: one record per complete phrase, and the final partial
    phrase's parent index (0 for none; a partial phrase is never empty).

    records[j - 1] is 2 * parent + bit for phrase j (see the module
    docstring): a list, or an int64 array when there are `_VECTOR_MIN` or
    more.
    """

    records: Sequence[int]
    partial: int

    @property
    def complete_count(self) -> int:
        return len(self.records)

    @property
    def has_partial(self) -> bool:
        return self.partial != 0

    @property
    def phrases(self) -> tuple[tuple[int, str | None], ...]:
        """(parent index, extension bit or None) per phrase."""
        out: list[tuple[int, str | None]] = [(int(r) >> 1, "01"[r & 1]) for r in self.records]
        if self.partial:
            out.append((self.partial, None))
        return tuple(out)

    def reconstruct(self) -> str:
        """Concatenate the phrases back into the parsed string."""
        strings = [""]
        for parent, bit in self.phrases:
            strings.append(strings[parent] + (bit or ""))
        return "".join(strings[1:])


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # '0'/'1' bytes -> bit values


def parse(x: str) -> LZParse:
    """Run the LZ78 parse of a nonempty binary string."""
    check_bits(x, "input string")
    trie = _new_trie(len(x))
    node = _walk(trie, 0, x.encode())
    return LZParse(_records(trie), node >> 1)


def _records(trie) -> Sequence[int]:
    """The record of every phrase of `trie`: phrase j's is the slot that
    holds its offset 2j."""
    c = trie[-1]
    used = 2 * c + 2
    if c < _VECTOR_MIN:
        records = [0] * c
        for slot, t in enumerate(trie[:used]):
            if t:
                records[(t >> 1) - 1] = slot
        return records
    offsets = np.asarray(trie)[:used]
    slots = np.flatnonzero(offsets)
    records = np.empty(c, dtype=np.int64)
    records[(offsets[slots] >> 1) - 1] = slots
    return records


def code_len(x: str) -> int:
    """Phrase-stream length of the LZ78 code of x, in bits."""
    check_bits(x, "input string")
    return _code_len_unchecked(x)


def _code_len_unchecked(x: str, stop: int | None = None) -> int:
    """code_len for an x its caller has already checked to be nonempty 0/1,
    or S(stop) once the parse holds `stop` complete phrases. The walk reads x
    one slice at a time (codec._SLICE), each from the trie and node the last
    one left."""
    trie, node = _new_trie(len(x)), 0
    for start in range(0, len(x), _SLICE):
        node = _walk(trie, node, x[start : start + _SLICE].encode(), stop)
        if trie[-1] == stop:
            break
    return _trie_code_len(trie, node)


def _trie_code_len(trie, node: int) -> int:
    """The code length of a parse that ended at `node` of `trie`."""
    c = trie[-1]
    return _phrase_bits(c) + (c.bit_length() if node else 0)


def _max_phrases(n: int) -> int:
    """C(n) = max{c : sum_{j<=c} floor(log2(j + 1)) <= n}: the most complete
    phrases a parse of n bits can hold, since its phrases are distinct
    nonempty strings. The shortest c of them take all 2^k strings of each
    length k <= top and then strings of length top + 1."""
    top = used = 0  # the 2^1 + ... + 2^top strings of length <= top take `used` bits
    while used + ((top + 1) << (top + 1)) <= n:
        top += 1
        used += top << top
    return (2 << top) - 2 + (n - used) // (top + 1)


def _new_trie(n: int):
    """An empty trie for a walk over n bits in all: 2 (C(n) + 1) zero slots,
    room for the root and every phrase n bits can hold, and one last slot
    for the count of complete phrases. A ctypes int32 array when the kernel
    is loaded, which passes to it as is (an ndarray's `ctypes.data` alone
    takes 1.5 us, more than a 16-bit walk), else a list."""
    cap = 2 * _max_phrases(n) + 2
    if cap >= 1 << 31:
        raise ResourceLimitError(f"an LZ78 parse of {n} bits needs {cap} trie slots, over 2^31 - 1")
    if kernel.load() is None:
        return [0] * (cap + 1)
    return (ctypes.c_int32 * (cap + 1))()


_OUT_OF_RANGE = "LZ78 walk out of range: more phrases than the trie was sized for, or a node outside it"


def _walk(trie, node: int, bits: bytes, stop: int | None = None) -> int:
    """Advance the code-length parse over `bits` ('0'/'1' bytes, already
    checked) from `trie` and current node `node`; `trie` fills in place, and
    the node reached is returned: 0 once a new phrase brings the count of
    complete phrases to `stop` (by default the trie's capacity, which it
    never reaches). A trie whose count is 0 is empty whatever its slots
    hold: the walk clears the root's slots then, and each new node's as it
    stores it, so a trie is reused by setting its count to 0. The kernel
    runs the loop below in C, reading a bit as its byte & 1."""
    cap = len(trie) - 1
    if stop is None:
        stop = cap
    if type(trie) is not list:
        node = kernel.load().lz78_walk(trie, cap, node, bits, len(bits), stop)
        if node < 0:
            raise RuntimeError(_OUT_OF_RANGE)
        return node
    size = 2 * trie[cap] + 2  # slots in use
    end = 2 * stop + 2  # slots in use at `stop` complete phrases
    if size == 2:
        trie[0] = trie[1] = 0
    # The child's slot is indexed again only when a phrase ends, which keeps
    # the per-bit step to one lookup and one test.
    for b in bits.translate(_BITS):
        if t := trie[node + b]:
            node = t
        elif size < cap:
            trie[node + b] = size
            trie[size] = trie[size + 1] = 0
            size += 2
            node = 0
            if size == end:
                break
        else:
            raise RuntimeError(_OUT_OF_RANGE)
    trie[cap] = (size >> 1) - 1
    return node


def _code_len_below(x: str, bound: int, den: int) -> bool:
    """code_len(x) * den < bound for an x its caller has already checked,
    stopping the parse once the answer is known to be False.

    The parse is online: the complete phrases of a prefix are the first
    phrases of the whole parse, so once the walk holds c complete phrases
    they already cost S(c) bits, S increases with c, and code_len(x) >=
    S(c). The walk stops at the least count `stop` with S(stop) * den >=
    bound, and the S(stop) bits it then returns answer False as the whole
    code length would."""
    # c <= n, so stop = n + 1 stands for "never"
    stop = bisect_left(range(len(x) + 1), True, key=lambda c: _phrase_bits(c) * den >= bound)
    return _code_len_unchecked(x, stop) * den < bound


def _phrase_bits(c: int) -> int:
    """S(c) = sum_{j<c} (bitlen(j) + 1): the bits of c complete phrases."""
    if c <= 1:
        return c
    # bitlen(j) = k for the 2^(k-1) values j in [2^(k-1), 2^k); over k < top
    # that sums to (top - 2) * 2^(top-1) + 1, and each j in [2^(top-1), c) adds top
    top = (c - 1).bit_length()
    return c + ((top - 2) << (top - 1)) + 1 + top * (c - (1 << (top - 1)))


def phrase_stream(x: str, parsed: LZParse | None = None) -> str:
    """The raw phrase stream of x (exactly code_len(x) bits, no header).

    `parsed`, when given, must be parse(x); it saves parsing x again.
    """
    p = parse(x) if parsed is None else parsed
    records = p.records
    c = len(records)
    head = records[:_VECTOR_MIN]
    if isinstance(head, np.ndarray):
        head = head.tolist()
    parts = ["".join(map(format, head, _HEAD_FORMATS))]
    lo = _VECTOR_MIN  # width block k holds records [2^(k-1), 2^k), of k + 1 bits each
    while lo < c:
        hi = min(c, 2 * lo)
        parts.append(_format_block(records[lo:hi], lo.bit_length() + 1))
        lo = hi
    if p.partial:
        parts.append(format(p.partial, f"0{c.bit_length()}b"))
    return "".join(parts)


# the formats of records 0 .. _VECTOR_MIN - 1, the blocks the scalar step writes
_HEAD_FORMATS = [f"0{r.bit_length() + 1}b" for r in range(_VECTOR_MIN)]


def _format_block(records: np.ndarray, width: int) -> str:
    """The records as `width`-bit binary numerals, concatenated."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = (records[:, None] >> shifts).astype(np.uint8) & 1
    return (bits + 48).tobytes().decode("ascii")


def encode(x: str, parsed: LZParse | None = None) -> str:
    """Self-delimiting code: delta(length) ++ phrase stream (see phrase_stream).

    `parsed`, when given, must be parse(x), which has checked x already."""
    if parsed is None:
        parsed = parse(x)
    return encode_nat(len(x)) + phrase_stream(x, parsed)


def decode_phrases(bits: str, start: int, n: int) -> tuple[str, int]:
    """Decode a phrase stream producing exactly n symbols.

    Returns (string, consumed bits). A phrase whose dictionary string
    exactly fills the remaining length is the final partial phrase and
    carries no literal bit.
    """
    strings = [""]
    tail = ""
    produced = 0
    i = start
    end = len(bits)
    view = None
    j = 1
    while produced < n:
        width = (j - 1).bit_length()
        if j > _VECTOR_MIN:
            run = min((1 << width) - j + 1, (end - i) // (width + 1))
            if run >= _VECTOR_MIN:
                if view is None:
                    # one byte per character: a non-ASCII one becomes '?',
                    # which _decode_run marks bad like any non-'0'/'1' byte
                    view = np.frombuffer(bits.encode("ascii", "replace"), dtype=np.uint8)
                done, size = _decode_run(view, i, j, width, run, strings, n - produced)
                i += done * (width + 1)
                j += done
                produced += size
                if done == run:
                    continue
        # the scalar step: phrase j alone
        if i + width > end:
            raise DecodeError("truncated phrase stream: index field cut short")
        parent = read_uint(bits, i, width)
        i += width
        if parent >= j:
            raise DecodeError(f"phrase index {parent} out of range for phrase {j}")
        base = strings[parent]
        remaining = n - produced
        if len(base) == remaining:
            tail = base
            break
        if len(base) > remaining:
            raise DecodeError("phrase overruns the declared length")
        if i >= end:
            raise DecodeError("truncated phrase stream: missing literal bit")
        s = base + "01"[read_uint(bits, i, 1)]
        i += 1
        strings.append(s)
        produced += len(s)
        j += 1
    return "".join(strings[1:]) + tail, i - start


def _decode_run(
    view: np.ndarray, i: int, j: int, width: int, run: int, strings: list[str], remaining: int
) -> tuple[int, int]:
    """Decode phrases j .. j + run - 1, whose index fields are all `width`
    bits wide, from byte offset i of the stream's bytes `view`, appending
    their strings.

    Only a leading stretch is kept: the phrases before the first record that
    is not all '0'/'1' or names a parent >= its phrase number, and before the
    first phrase that would bring the output to `remaining` symbols or more.
    The scalar step decodes the phrase after them. Returns (phrases kept,
    symbols they produced)."""
    rows = view[i : i + run * (width + 1)].reshape(run, width + 1) - 48  # '0'/'1' -> 0/1
    parents = rows[:, :width] @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))
    bad = parents >= np.arange(j, j + run)
    if rows.max() > 1:
        bad |= (rows > 1).any(axis=1)
    kept = int(bad.argmax()) if bad.any() else run
    first = len(strings)
    literals = (rows[:kept, -1] + 48).tobytes().decode("ascii")
    for parent, bit in zip(parents[:kept].tolist(), literals):
        strings.append(strings[parent] + bit)
    ends = list(accumulate(map(len, strings[first:])))
    kept = bisect_left(ends, remaining)
    del strings[first + kept :]
    return kept, ends[kept - 1] if kept else 0


def decode(bits: str) -> str:
    """Inverse of encode; rejects malformed or trailing data."""
    n, used = decode_nat(bits)
    x, used2 = decode_phrases(bits, used, n)
    if used + used2 != len(bits):
        raise DecodeError("trailing data after the phrase stream")
    return x


# --- code-length histogram ------------------------------------------------
#
# code_len(x) depends only on the number c of complete phrases and on
# whether a partial phrase follows: S(c) + [partial] * bitlen(c), with
# S(c) = sum_{j<c} (bitlen(j) + 1). The phrase dictionary of a string is an
# increasing binary trie (a digital search tree, Jacquet & Szpankowski
# 1995): nodes numbered in insertion order, a partial phrase marks one node,
# and n is the trie's path length plus the marked node's depth. So the
# histogram is counted from increasing-tree generating functions (Flajolet
# & Sedgewick, Analytic Combinatorics), with z marking path length:
#
#   G_0 = 1,  G_k = z^k sum_{k1+k2=k-1} C(k-1,k1) G_k1 G_k2
#   P_k = z^(k+1) sum C(k-1,k1) (G_k1 G_k2 + P_k1 G_k2 + G_k1 P_k2)
#   F_c = sum_{k1+k2=c} C(c,k1) G_k1 G_k2,  FP_c = sum C(c,k1) (P_k1 G_k2 + G_k1 P_k2)
#
# [z^n] F_c strings have c complete phrases and no partial phrase, [z^n] FP_c
# have one. G_k counts tries with root at depth 1; P_k also marks a node.
# Polynomials are truncated at degree n and held as coefficient lists of
# Python ints; the subtree sums are symmetric in (k1, k2), so the mixed
# terms are taken once and doubled. A k-node trie has path length at least
# k, so only k <= n matters; the cost is polynomial in n.

def _low(p: list[int]) -> int:
    """Index of the first nonzero coefficient (len(p) for the zero polynomial)."""
    for i, v in enumerate(p):
        if v:
            return i
    return len(p)


def _mul_add(acc: list[int], scale: int, a: list[int], b: list[int]) -> None:
    """acc += scale * a * b, truncated at the length of acc."""
    top = len(acc) - 1
    lb = _low(b)
    for i in range(_low(a), top - lb + 1):
        x = a[i]
        if x:
            x *= scale
            for j in range(lb, top - i + 1):
                y = b[j]
                if y:
                    acc[i + j] += x * y


def _coeff(a: list[int], b: list[int], n: int) -> int:
    """[z^n] of a * b."""
    return sum(a[i] * b[n - i] for i in range(n + 1) if a[i] and b[n - i])


@cache
def code_length_counts(n: int) -> dict[int, int]:
    """Histogram {code_len: count} over all strings of length n (cached).

    Keys are in increasing order; the counts sum to 2^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")  # raised again on each call: never cached
    G: list[list[int]] = [[1] + [0] * n]
    P: list[list[int]] = [[0] * (n + 1)]
    for k in range(1, n + 1):
        gg = [0] * (n + 1 - k)  # sum C(k-1,k1) G_k1 G_k2, to degree n - k
        pg = [0] * (n + 1 - k)  # sum C(k-1,k1) P_k1 G_k2
        for k1 in range(k):
            w = math.comb(k - 1, k1)
            _mul_add(gg, w, G[k1], G[k - 1 - k1])
            _mul_add(pg, w, P[k1], G[k - 1 - k1])
        G.append([0] * k + gg)
        P.append([0] * (k + 1) + [x + 2 * y for x, y in zip(gg, pg)][: n - k])
    hist: dict[int, int] = {}
    for c in range(n + 1):
        full = partial = 0
        for k1 in range(c + 1):
            w = math.comb(c, k1)
            full += w * _coeff(G[k1], G[c - k1], n)
            partial += 2 * w * _coeff(P[k1], G[c - k1], n)
        s = _phrase_bits(c)
        if full:
            hist[s] = hist.get(s, 0) + full
        if partial:
            t = s + c.bit_length()
            hist[t] = hist.get(t, 0) + partial
    return dict(sorted(hist.items()))


def iter_with_code_len(n: int) -> Iterator[tuple[str, int]]:
    """Yield (x, code_len(x)) for every x in {0,1}^n in lexicographic order.
    One trie serves every x, emptied by setting its count to 0 (see _walk)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = f"0{n}b"
    trie = _new_trie(n)
    for v in range(1 << n):
        x = format(v, spec)
        trie[-1] = 0
        yield x, _trie_code_len(trie, _walk(trie, 0, x.encode()))


def kraft_sum(n: int) -> Fraction:
    """Exact sum of 2^-code_len(x) over all x of length n."""
    return sum(
        (Fraction(count, 1 << length) for length, count in code_length_counts(n).items()),
        Fraction(0),
    )
