"""Differential tests: the width-block LZ78 coder against the phrase-at-a-time
reference in lz78_reference.

The encoder must give the reference's stream bit for bit. The decoder must
give the same (string, consumed bits) pair, or raise DecodeError with the
same message, on every stream: valid ones, and valid ones truncated,
bit-flipped, extended and embedded at an offset, as decode_ensemble passes
them. Streams of a few thousand bits or more reach the numpy blocks; the
Hypothesis properties run derandomized, so every run draws the same
examples.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

import lz78_reference as ref
from eclab import ensembles, lz78, processes
from eclab.codec import encode_nat
from eclab.errors import DecodeError

DETERMINISTIC = settings(derandomize=True, max_examples=300, deadline=None)

# the three models of the lz_mass benchmark workload
MODELS = ("markov:flip=1/10", "markov:a01=1/5,a10=3/5", "bernoulli:p=3/10")


def _outcome(decode, *args, errors=(DecodeError,)):
    try:
        return decode(*args)
    except errors as exc:
        return type(exc).__name__, str(exc)


def _same_decode(bits, start, n):
    want = _outcome(ref.decode_phrases, bits, start, n)
    assert _outcome(lz78.decode_phrases, bits, start, n) == want
    return want


def _path(model: str, n: int, seed: int) -> str:
    return processes.sample(processes.parse_model_spec(model), n, seed)


@pytest.fixture(scope="module")
def paths():
    return [_path(m, 1 << k, 100 * k + i) for i, m in enumerate(MODELS) for k in (12, 14, 16)]


def test_every_short_string_matches_reference():
    for n in range(1, 13):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            stream = lz78.phrase_stream(x)
            assert stream == ref.phrase_stream(x)
            assert lz78.parse(x).phrases == ref.parse(x)
            assert _same_decode(stream, 0, n) == (x, len(stream))
            assert lz78.decode(lz78.encode(x)) == x


def test_seeded_paths_match_reference(paths):
    # all but the shortest paths reach whole numpy blocks
    assert sum(lz78.code_len(x) > lz78._phrase_bits(2 * lz78._VECTOR_MIN) for x in paths) >= 6
    for x in paths:
        p = lz78.parse(x)
        assert p.phrases == ref.parse(x)
        assert p.reconstruct() == x
        stream = lz78.phrase_stream(x, p)
        assert stream == ref.phrase_stream(x) == lz78.phrase_stream(x)
        assert len(stream) == lz78.code_len(x)
        assert _same_decode(stream, 0, len(x)) == (x, len(stream))
        assert lz78.decode(lz78.encode(x)) == x


def test_corrupted_seeded_streams_match_reference(paths):
    outcomes = []
    for x in paths:
        stream = lz78.phrase_stream(x)
        size, n = len(stream), len(x)
        cuts = sorted({size * k // 40 for k in range(40)} | {size - 1, size - 2, size - 9})
        for cut in cuts:
            outcomes.append(_same_decode(stream[:cut], 0, n))
        for k in range(1, 40):
            pos = size * k // 40 + k
            flipped = stream[:pos] + "10"[int(stream[pos])] + stream[pos + 1 :]
            outcomes.append(_same_decode(flipped, 0, n))
        for extra in ("0", "1", "0110" * 50):
            assert _same_decode(stream + extra, 0, n) == (x, size)
        for declared in (n - 1, n + 1, n + 300, 2 * n):
            outcomes.append(_same_decode(stream, 0, declared))
        prefix = "1101" * 7
        assert _same_decode(prefix + stream + "1", len(prefix), n) == (x, size)
    errors = sum(kind == "DecodeError" for kind, _ in outcomes)
    assert 0 < errors < len(outcomes)  # some flips decode to another string


def test_index_errors_inside_numpy_blocks_match_reference():
    x = _path(MODELS[0], 1 << 16, 7)
    stream = lz78.phrase_stream(x)
    c = lz78.parse(x).complete_count
    out_of_range = 0
    for j in range(lz78._VECTOR_MIN + 50, c, 31):
        pos = lz78._phrase_bits(j - 1)  # phrase j's index field starts here
        width = (j - 1).bit_length()
        flipped = stream[:pos] + "10"[int(stream[pos])] + stream[pos + 1 :]
        outcome = _same_decode(flipped, 0, len(x))
        out_of_range += outcome[0] == "DecodeError" and outcome[1].endswith(f"phrase {j}")
        # the least index out of range, and the greatest in range
        for parent in (j, j - 1):
            field = format(parent, f"0{width}b")
            _same_decode(stream[:pos] + field + stream[pos + width :], 0, len(x))
    assert out_of_range > 10


def test_non_bit_characters_keep_the_reference_behaviour():
    # every character of the stream is read, so each bad one is a DecodeError
    x = _path(MODELS[2], 1 << 14, 3)
    stream = lz78.phrase_stream(x)
    for k in range(1, 30):
        pos = len(stream) * k // 30
        for ch in "2x_ \u0661":
            bad = stream[:pos] + ch + stream[pos + 1 :]
            args = bad, 0, len(x)
            errors = DecodeError, ValueError
            want = _outcome(ref.decode_phrases, *args, errors=errors)
            assert want[0] == "DecodeError"
            assert _outcome(lz78.decode_phrases, *args, errors=errors) == want


def test_non_ascii_characters_anywhere_match_reference():
    # inserted in the delta head, the first records, a width block, the last
    # record and after the stream: the same string or the same DecodeError
    x = _path(MODELS[0], 1 << 14, 5)
    code = lz78.encode(x)
    head = len(code) - lz78.code_len(x)
    spots = {
        "delta head": 1,
        "head records": head + lz78._phrase_bits(100) + 2,
        "width block": head + lz78._phrase_bits(2 * lz78._VECTOR_MIN + 7) + 3,
        "last record": len(code) - 1,
        "after the stream": len(code),
    }
    assert len(code) - lz78._phrase_bits(lz78._VECTOR_MIN) > 4 * lz78._VECTOR_MIN
    for ch in ("\u0661", "\ud800"):
        for where, pos in spots.items():
            bad = code[:pos] + ch + code[pos:]
            want = _outcome(ref.decode, bad)
            assert want[0] == "DecodeError", where
            assert _outcome(lz78.decode, bad) == want, where
        bad = code[:-1] + ch  # the last record's literal replaced
        assert _outcome(lz78.decode, bad) == _outcome(ref.decode, bad)


def test_trailing_non_ascii_decodes_at_block_speed():
    import time

    code = lz78.encode(_path(MODELS[0], 1 << 18, 9))
    bad = code + "\u0661"

    def best(bits):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _outcome(lz78.decode, bits)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert _outcome(lz78.decode, bad) == ("DecodeError", "trailing data after the phrase stream")
    assert best(bad) < 3 * best(code)


def test_singleton_lz_serialization_roundtrip(paths):
    for x in paths:
        bits = ensembles.serialize(ensembles.SingletonLZ(x))
        assert ensembles.decode_ensemble(bits) == ensembles.SingletonLZ(x)
        assert ensembles.decode_ensemble_prefix(bits + "0101")[1] == len(bits)


# --- Hypothesis streams --------------------------------------------------------

_STREAMS = st.text(alphabet="01", max_size=4000)


@DETERMINISTIC
@given(_STREAMS, st.integers(0, 4000), st.integers(0, 1 << 14))
@example("0" * 10, 0, 10**18)
@example("", 0, 0)
def test_random_streams_match_reference(bits, start, n):
    _same_decode(bits, min(start, len(bits)), n)


@DETERMINISTIC
@given(_STREAMS)
@example("")
@example(encode_nat(1 << 40) + "0" * 64)
def test_decode_raises_only_decode_error(bits):
    assert _outcome(lz78.decode, bits) == _outcome(ref.decode, bits)


@st.composite
def _mutated(draw):
    """A valid stream of a sampled path, then cut, flipped, extended or
    embedded after a prefix; returns (bits, start, declared n)."""
    n = draw(st.integers(1, 1 << 10) | st.integers(1 << 12, 1 << 14))
    x = _path(draw(st.sampled_from(MODELS)), n, draw(st.integers(0, 99)))
    stream = lz78.phrase_stream(x)
    n = len(x) + draw(st.sampled_from((0, 0, 0, -1, 1, 5)))
    kind = draw(st.sampled_from(("cut", "flip", "extend", "embed")))
    pos = draw(st.integers(0, len(stream) - 1))
    if kind == "cut":
        return stream[:pos], 0, n
    if kind == "flip":
        return stream[:pos] + "10"[int(stream[pos])] + stream[pos + 1 :], 0, n
    tail = draw(st.text(alphabet="01", max_size=64))
    if kind == "extend":
        return stream + tail, 0, n
    head = draw(st.text(alphabet="01", max_size=64))
    return head + stream + tail, len(head), n


@DETERMINISTIC
@given(_mutated())
def test_mutated_streams_match_reference(case):
    bits, start, n = case
    _same_decode(bits, start, n)
    coded = encode_nat(max(n, 1)) + bits[start:]
    assert _outcome(lz78.decode, coded) == _outcome(ref.decode, coded)
