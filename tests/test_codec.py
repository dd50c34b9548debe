import math
from fractions import Fraction

import pytest

from eclab import codec
from eclab.errors import DecodeError


def test_encode_nat_known_words():
    assert codec.encode_nat(1) == "1"
    assert codec.encode_nat(2) == "0100"
    assert len(codec.encode_nat(8)) == 8


def test_encode_nat_rejects_zero():
    with pytest.raises(ValueError):
        codec.encode_nat(0)
    with pytest.raises(ValueError):
        codec.nat_code_len(0)


def test_decode_nat_known_words():
    assert codec.decode_nat("1") == (1, 1)
    assert codec.decode_nat("0100") == (2, 4)
    assert codec.decode_nat("0100" + "111") == (2, 4)


def test_decode_nat_truncated():
    with pytest.raises(DecodeError):
        codec.decode_nat("0")
    with pytest.raises(DecodeError):
        codec.decode_nat("01")
    with pytest.raises(DecodeError):
        codec.decode_nat("")


def test_roundtrip_exhaustive_small_and_sampled_large():
    for n in range(1, (1 << 16) + 1):
        word = codec.encode_nat(n)
        assert codec.decode_nat(word) == (n, len(word))
        assert len(word) == codec.nat_code_len(n)
    n = 1 << 16
    while n <= 1 << 20:
        word = codec.encode_nat(n)
        assert codec.decode_nat(word + "0011") == (n, len(word))
        n += 4093  # odd stride to hit varied bit patterns


def test_length_formula_exhaustive():
    for n in range(1, (1 << 16) + 1):
        expected = (
            math.floor(math.log2(n))
            + 2 * math.floor(math.log2(math.floor(math.log2(n)) + 1))
            + 1
        )
        assert codec.nat_code_len(n) == expected


def test_prefix_freeness():
    words = {codec.encode_nat(n) for n in range(1, (1 << 12) + 1)}
    assert len(words) == 1 << 12
    for w in words:
        for cut in range(1, len(w)):
            assert w[:cut] not in words


def test_kraft_partial_sums_bounded():
    total = Fraction(0)
    by_len: dict[int, int] = {}
    for n in range(1, (1 << 16) + 1):
        length = codec.nat_code_len(n)
        by_len[length] = by_len.get(length, 0) + 1
    prev = Fraction(0)
    for length in sorted(by_len):
        total += Fraction(by_len[length], 1 << length)
        assert prev <= total <= 1
        prev = total


def test_rational_known_words():
    assert codec.encode_rational(Fraction(1, 1)) == "11"
    assert codec.encode_rational(Fraction(1, 2)) == "10100"
    assert codec.rational_code_len(Fraction(3, 4)) == 9


def test_rational_roundtrip_and_prefix():
    assert codec.decode_rational("11") == (Fraction(1), 2)
    assert codec.decode_rational("10100") == (Fraction(1, 2), 5)
    assert codec.decode_rational("11" + "000111") == (Fraction(1), 2)
    for a in range(1, 40):
        for b in range(1, 40):
            if math.gcd(a, b) != 1:
                continue
            r = Fraction(a, b)
            word = codec.encode_rational(r)
            assert len(word) == codec.rational_code_len(r)
            assert codec.decode_rational(word) == (r, len(word))


def test_rational_rejects_non_canonical():
    # delta(2) ++ delta(4) decodes to 2/4, which is not in lowest terms
    with pytest.raises(DecodeError):
        codec.decode_rational(codec.encode_nat(2) + codec.encode_nat(4))
    with pytest.raises(ValueError):
        codec.encode_rational(Fraction(0))


@pytest.mark.parametrize("bits", ["x", "01\u066100", "2", "01 00", "0_1"])
def test_decode_nat_reads_only_binary_text(bits):
    # the delimiter must be '1' and every field '0'/'1' (int(..., 2) alone
    # would take Unicode digits, '_' and spaces)
    with pytest.raises(DecodeError):
        codec.decode_nat(bits)


def test_decode_rational_reads_only_binary_text():
    for bits in ("1x", "1\u0661", "01x001"):
        with pytest.raises(DecodeError):
            codec.decode_rational(bits)


def test_delta_slack_over_log_terms():
    # |delta(n)| stays within 3 bits of log2 n + 2 log2 log2 n for n >= 2;
    # this is the slack baked into the sweep scheme constant.
    n = 2
    while n <= 1 << 20:
        bound = math.log2(n) + 2 * math.log2(math.log2(n)) + 3 if n > 2 else 4
        assert codec.nat_code_len(n) <= bound + 1e-9
        n = n * 2 + 1
