"""Prefix-free codes for naturals and rationals.

Every description length in this package is a sum of the code lengths
defined here. Naturals n >= 1 use the Elias delta code; a rational a/b
in lowest terms is coded as delta(a) followed by delta(b). Bit order
within a codeword is most-significant-bit first. Decoders read '0'/'1'
text only: any other character in a field they read is a DecodeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DecodeError

__all__ = [
    "is_bits",
    "check_bits",
    "encode_nat",
    "decode_nat",
    "nat_code_len",
    "encode_rational",
    "decode_rational",
    "rational_code_len",
    "read_uint",
]


# Long strings are read in slices of this many characters: a whole 2^18-bit
# string would take a fresh 256 KB buffer per encode or translate, which the
# allocator maps and unmaps on every call, while a slice's buffer reuses
# heap pages.
_SLICE = 1 << 15


def is_bits(x: str) -> bool:
    """True when every character of x is ASCII '0' or '1' (so also for "").

    Equal to `x.count("0") + x.count("1") == len(x)`, at C speed, one slice
    at a time: isascii() goes first, so a lone surrogate or any other
    non-ASCII text is rejected before it can reach encode().
    """
    if not x.isascii():
        return False
    for start in range(0, len(x), _SLICE):
        if x[start : start + _SLICE].encode("ascii").translate(None, b"01"):
            return False
    return True


def check_bits(x: str, what: str) -> None:
    """Raise ValueError unless x is a nonempty '0'/'1' string; `what` names x
    in the message."""
    if not x:
        raise ValueError(f"{what} must be nonempty")
    if not is_bits(x):
        raise ValueError(f"{what} must consist of '0'/'1' only")


def read_uint(bits: str, start: int, width: int) -> int:
    """The `width` bits at `start` as an unsigned integer, 0 when width is 0;
    DecodeError unless all are '0'/'1'. The caller checks for truncation."""
    field = bits[start : start + width]
    if not is_bits(field):
        raise DecodeError(f"non-binary character in the field at bit {start}")
    return int(field, 2) if width else 0


def encode_nat(n: int) -> str:
    """Elias delta codeword of n >= 1 as a '0'/'1' string."""
    if n < 1:
        raise ValueError("encode_nat requires n >= 1 (shift inputs by +1 to code 0)")
    nb = n.bit_length()
    zeros = nb.bit_length() - 1
    return "0" * zeros + format(nb, "b") + format(n, "b")[1:]


def nat_code_len(n: int) -> int:
    """Length in bits of encode_nat(n), without building the codeword."""
    if n < 1:
        raise ValueError("nat_code_len requires n >= 1")
    nb = n.bit_length()
    return (nb - 1) + 2 * (nb.bit_length() - 1) + 1


def decode_nat(bits: str, start: int = 0) -> tuple[int, int]:
    """Decode one Elias delta codeword starting at `start`.

    Returns (value, consumed bits). Trailing bits beyond the codeword are
    ignored, which is what makes the code usable as a prefix in longer
    streams.
    """
    i = start
    end = len(bits)
    zeros = 0
    while i < end and bits[i] == "0":
        zeros += 1
        i += 1
    if i >= end:
        raise DecodeError("truncated delta code: no leading 1 found")
    if bits[i] != "1":
        raise DecodeError(f"delta code: expected the delimiter '1' at bit {i}")
    i += 1
    if end - i < zeros:
        raise DecodeError("truncated delta code: length field cut short")
    nb = (1 << zeros) | read_uint(bits, i, zeros)
    i += zeros
    rem = nb - 1
    if end - i < rem:
        raise DecodeError("truncated delta code: value field cut short")
    n = (1 << rem) | read_uint(bits, i, rem)
    i += rem
    return n, i - start


def encode_rational(r: Fraction | int) -> str:
    """Code a positive rational in lowest terms as delta(num) ++ delta(den)."""
    r = Fraction(r)
    if r.numerator < 1 or r.denominator < 1:
        raise ValueError("encode_rational requires a positive rational")
    return encode_nat(r.numerator) + encode_nat(r.denominator)


def rational_code_len(r: Fraction | int) -> int:
    r = Fraction(r)
    if r.numerator < 1:
        raise ValueError("rational_code_len requires a positive rational")
    return nat_code_len(r.numerator) + nat_code_len(r.denominator)


def decode_rational(bits: str, start: int = 0) -> tuple[Fraction, int]:
    """Inverse of encode_rational; rejects pairs not in lowest terms."""
    a, used_a = decode_nat(bits, start)
    b, used_b = decode_nat(bits, start + used_a)
    if gcd(a, b) != 1:
        raise DecodeError(f"rational {a}/{b} is not in lowest terms")
    return Fraction(a, b), used_a + used_b
