"""A phrase-at-a-time reference for the LZ78 coder of eclab.lz78.

`parse` builds the (parent index, literal bit or None) tuple of every
phrase in its own per-bit loop, `phrase_stream` formats the phrases one at
a time and `decode_phrases` slices and converts one index field per phrase,
rejecting any character other than '0'/'1' in a field or literal it reads.
The coder's differential tests compare the width-block coder with these,
string for string and error message for error message.
"""

from eclab.codec import decode_nat
from eclab.errors import DecodeError

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def parse(x: str) -> tuple[tuple[int, str | None], ...]:
    """The phrases of the LZ78 parse of a nonempty binary string."""
    kids = [0, 0]  # flat binary trie: node offset = 2 * index, 0 = no child
    node = 0
    phrases: list[tuple[int, str | None]] = []
    for b in x.encode().translate(_BITS):
        if t := kids[node + b]:
            node = t
        else:
            kids[node + b] = len(kids)
            kids += (0, 0)
            phrases.append((node >> 1, "01"[b]))
            node = 0
    if node:
        phrases.append((node >> 1, None))
    return tuple(phrases)


def phrase_stream(x: str) -> str:
    """Phrase j's parent index in bitlen(j - 1) bits, then its literal bit."""
    parts: list[str] = []
    for j, (parent, bit) in enumerate(parse(x), start=1):
        width = (j - 1).bit_length()
        if width:
            parts.append(format(parent, f"0{width}b"))
        if bit is not None:
            parts.append(bit)
    return "".join(parts)


def decode_phrases(bits: str, start: int, n: int) -> tuple[str, int]:
    """Decode a phrase stream producing exactly n symbols: (string, consumed)."""
    strings = [""]
    out: list[str] = []
    produced = 0
    i = start
    end = len(bits)
    j = 1
    while produced < n:
        width = (j - 1).bit_length()
        if i + width > end:
            raise DecodeError("truncated phrase stream: index field cut short")
        field = bits[i : i + width]
        if field.strip("01"):
            raise DecodeError(f"non-binary character in the field at bit {i}")
        parent = int(field, 2) if width else 0
        i += width
        if parent >= j:
            raise DecodeError(f"phrase index {parent} out of range for phrase {j}")
        base = strings[parent]
        remaining = n - produced
        if len(base) == remaining:
            out.append(base)
            produced = n
            break
        if len(base) > remaining:
            raise DecodeError("phrase overruns the declared length")
        if i >= end:
            raise DecodeError("truncated phrase stream: missing literal bit")
        if bits[i] not in "01":
            raise DecodeError(f"non-binary character in the field at bit {i}")
        s = base + bits[i]
        i += 1
        strings.append(s)
        out.append(s)
        produced += len(s)
        j += 1
    return "".join(out), i - start


def decode(bits: str) -> str:
    """delta(length) ++ phrase stream -> the string; no trailing bits."""
    n, used = decode_nat(bits)
    x, used2 = decode_phrases(bits, used, n)
    if used + used2 != len(bits):
        raise DecodeError("trailing data after the phrase stream")
    return x
