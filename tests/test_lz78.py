import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from eclab import codec, lz78, processes
from eclab.errors import DecodeError


def test_parse_single_symbol():
    p = lz78.parse("0")
    assert p.phrases == ((0, "0"),)
    assert p.complete_count == 1
    assert not p.has_partial


def test_parse_partial_phrase():
    p = lz78.parse("00")
    assert p.phrases == ((0, "0"), (1, None))
    assert p.complete_count == 1
    assert p.has_partial


def test_parse_reference_string():
    p = lz78.parse("1011010100010")
    assert p.complete_count == 7
    assert not p.has_partial
    # phrases 1, 0, 11, 01, 010, 00, 10
    assert p.phrases == ((0, "1"), (0, "0"), (1, "1"), (2, "1"), (4, "0"), (2, "0"), (1, "0"))
    assert p.reconstruct() == "1011010100010"


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        lz78.parse("")
    with pytest.raises(ValueError):
        lz78.code_len("01a")


def test_code_len_examples():
    assert lz78.code_len("0") == 1
    assert lz78.code_len("00") == 2
    assert lz78.code_len("1011010100010") == 21


def test_code_len_matches_parse_everywhere():
    for n in range(1, 11):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            assert lz78.code_len(x) == len(lz78.phrase_stream(x))


def test_encode_structure():
    assert lz78.encode("0") == codec.encode_nat(1) + "0"
    assert len(lz78.encode("0")) == 2
    assert len(lz78.encode("00")) == 6
    for x in ("1", "0110", "1011010100010"):
        assert len(lz78.encode(x)) == codec.nat_code_len(len(x)) + lz78.code_len(x)
        assert lz78.encode(x, lz78.parse(x)) == lz78.encode(x)


def test_roundtrip_exhaustive_small():
    for n in range(1, 13):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            assert lz78.decode(lz78.encode(x)) == x


def test_roundtrip_randomized_large():
    model = processes.Bernoulli(Fraction(1, 3))
    for i, n in enumerate([17, 100, 1000, 4096, 65536]):
        x = processes.sample(model, n, seed=90 + i)
        assert lz78.decode(lz78.encode(x)) == x


def test_decode_errors():
    good = lz78.encode("1011010100010")
    with pytest.raises(DecodeError):
        lz78.decode(good[:-1])  # truncated
    with pytest.raises(DecodeError):
        lz78.decode(good + "0")  # trailing data
    # phrase index out of range: declared length 2, first phrase needs index 0
    with pytest.raises(DecodeError):
        lz78.decode(codec.encode_nat(3) + "1" + "11" + "1")


def test_constant_string_compresses():
    assert lz78.code_len("0" * 4096) <= 1024


def test_histogram_matches_direct_enumeration():
    for n in range(1, 13):
        direct = Counter(lz78.code_len(format(v, f"0{n}b")) for v in range(1 << n))
        assert lz78.code_length_counts(n) == dict(direct)


def test_iter_lexicographic_order_and_values():
    seen = list(lz78.iter_with_code_len(6))
    assert [x for x, _ in seen] == sorted(format(v, "06b") for v in range(64))
    for n in range(1, 15):
        for x, length in lz78.iter_with_code_len(n):
            p = lz78.parse(x)
            c = p.complete_count
            assert length == lz78.code_len(x) == _phrase_sum(c) + p.has_partial * c.bit_length()


def _dict_trie_parse(x):
    """LZ78 parse with a dict-keyed trie: the reference for the flat-list trie."""
    trie = {}
    node = 0
    phrases = []
    for bit in x:
        t = trie.get((node, bit))
        if t is None:
            trie[(node, bit)] = len(trie) + 1
            phrases.append((node, bit))
            node = 0
        else:
            node = t
    if node:
        phrases.append((node, None))
    return tuple(phrases), len(trie), node != 0


def _phrase_sum(c):
    return sum(j.bit_length() + 1 for j in range(c))


def test_flat_trie_matches_dict_trie():
    models = ["markov:flip=1/10", "bernoulli:p=3/10", "markov:a01=1/5,a10=3/5",
              "markov:flip=1/8", "bernoulli:p=1/2"]
    xs = [
        processes.sample(processes.parse_model_spec(spec), 1 << k, seed=k)
        for spec in models
        for k in (12, 14, 16)
    ]
    for n in (1, 2, 5, 4096, 65536):
        xs += ["0" * n, "1" * n, ("01" * n)[:n]]
    for x in xs:
        phrases, complete, partial = _dict_trie_parse(x)
        p = lz78.parse(x)
        assert (p.phrases, p.complete_count, p.has_partial) == (phrases, complete, partial)
        expected = _phrase_sum(complete) + (complete.bit_length() if partial else 0)
        assert lz78.code_len(x) == expected == len(lz78.phrase_stream(x, p))


def test_phrase_bits_closed_form():
    for c in list(range(300)) + [1023, 1024, 1025, 4095, 4096, 4097, 65537]:
        assert lz78._phrase_bits(c) == _phrase_sum(c)


def test_kraft_sums_bounded():
    for n in range(1, 15):
        assert lz78.kraft_sum(n) <= 1


def test_histogram_matches_walk():
    for n in range(1, 19):
        walk = Counter(length for _, length in lz78.iter_with_code_len(n))
        assert lz78.code_length_counts(n) == dict(walk)


def test_histogram_totals_and_kraft_up_to_64():
    for n in range(1, 65):
        assert sum(lz78.code_length_counts(n).values()) == 1 << n
        assert lz78.kraft_sum(n) <= 1


def test_import_leaves_recursion_limit_unchanged():
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import eclab, eclab.cli, eclab.selftest; "
        "print(before == sys.getrecursionlimit())"
    )
    src = os.path.dirname(os.path.dirname(lz78.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "True"


def test_code_len_by_slices_matches_reference():
    """The code-length walk reads long strings one slice at a time, resuming
    from the trie and node the last slice left: at lengths around slice
    multiples, with phrases that run across a slice boundary, it equals the
    phrase-at-a-time reference."""
    import lz78_reference as ref

    s = codec._SLICE
    model = processes.parse_model_spec("markov:flip=1/10")
    paths = [x for x, _ in processes.sample_paths(model, 3 * s + 1, 7, 2)]
    xs = [p[:length] for p in paths for length in (s - 1, s, s + 1, 2 * s, 2 * s + 1, 3 * s + 1)]
    xs += ["0" * (2 * s), "0" * (2 * s + 1), "1" * s + "0" * s, "01" * s]
    for x in xs:
        want = len(ref.phrase_stream(x))
        assert lz78.code_len(x) == want, len(x)
        assert lz78._code_len_unchecked(x) == want, len(x)
