import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from eclab import ensembles as E, lz78, typical_sets
from eclab.errors import DecodeError
from eclab.processes import binary_entropy


def all_small_ensembles(n: int, m_max: int = 2, r_grid=None):
    """Every family member supported on length n (singletons over all x)."""
    out = []
    for v in range(1 << n):
        x = format(v, f"0{n}b")
        out.append(E.SingletonRaw(x))
        out.append(E.SingletonLZ(x))
    out.append(E.UniformAll(n))
    for r in r_grid or typical_sets.DEFAULT_R_GRID:
        if typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n)) >= 1:
            out.append(E.UniformTypical(r, n))
    for m in range(1, m_max + 1):
        for a in range(1, 1 << m):
            out.append(E.IIDQuantized(n, m, a))
        for a0 in range(1, 1 << m):
            for a1 in range(1, 1 << m):
                for ai in range(1, 1 << m):
                    out.append(E.MarkovQuantized(n, m, a0, a1, ai))
    return out


def test_prob_examples():
    assert E.prob(E.UniformAll(3), "101") == Fraction(1, 8)
    assert E.prob(E.SingletonRaw("01"), "01") == 1
    assert E.prob(E.SingletonRaw("01"), "10") == 0
    assert E.prob(E.UniformTypical(Fraction(2), 1), "0") == Fraction(1, 2)
    assert E.prob(E.UniformAll(3), "10") == 0  # wrong length


def test_entropy_examples():
    assert E.entropy(E.UniformAll(8)) == 8.0
    assert E.entropy(E.SingletonLZ("0110")) == 0.0
    assert E.entropy(E.IIDQuantized(10, 1, 1)) == 10.0  # p = 1/2


def test_entropy_matches_brute_force():
    for n in (1, 3, 6, 9, 12):
        members = [
            E.UniformAll(n),
            E.IIDQuantized(n, 3, 2),
            E.IIDQuantized(n, 2, 3),
            E.MarkovQuantized(n, 2, 1, 3, 2),
            E.MarkovQuantized(n, 3, 1, 1, 4),
            E.MarkovQuantized(n, 1, 1, 1, 1),
        ]
        for e in members:
            brute = 0.0
            for v in range(1 << n):
                p = float(E.prob(e, format(v, f"0{n}b")))
                if p > 0:
                    brute -= p * math.log2(p)
            assert abs(E.entropy(e) - brute) < 1e-9


def test_uniform_typical_entropy_is_log_cardinality():
    for n in (1, 4, 8):
        for r in (Fraction(2), Fraction(3, 2)):
            card = typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n))
            if card:
                assert E.entropy(E.UniformTypical(r, n)) == math.log2(card)


def test_uniform_typical_empty_rejected_at_creation():
    with pytest.raises(ValueError):
        E.UniformTypical(Fraction(1, 2), 8)


def test_desc_len_examples():
    assert E.desc_len(E.UniformAll(8)) == 11
    # |code(2/1)| == |code(1/2)| == 5, so this checks the 3 + |delta(8)| + 5 shape
    assert E.desc_len(E.UniformTypical(Fraction(2), 8)) == 16
    assert E.desc_len(E.SingletonRaw("0101")) == 12


def test_total_info_examples():
    assert E.total_info(E.UniformAll(8)) == 19
    assert E.total_info(E.SingletonRaw("0101")) == 12
    assert E.total_info(E.UniformTypical(Fraction(2), 1)) == 10  # D = 9, H = 1


def test_typicality():
    # uniform-support ensembles accept every supported string at any delta
    for delta in (0, Fraction(1, 4), 2):
        assert E.is_delta_typical(E.UniformAll(4), "1111", delta)
        assert E.is_delta_typical(E.UniformTypical(Fraction(2), 4), "0000", delta)
    assert E.is_delta_typical(E.SingletonRaw("01"), "01", 0)
    assert not E.is_delta_typical(E.SingletonRaw("01"), "10", 0)
    # -log2 E(1111) = 8 > H = 4 h(1/4) ~ 3.245
    assert not E.is_delta_typical(E.IIDQuantized(4, 2, 1), "1111", 0)
    assert E.is_delta_typical(E.IIDQuantized(4, 2, 1), "0000", 0)
    with pytest.raises(ValueError):
        E.is_delta_typical(E.UniformAll(4), "1111", -1)


def test_normalization_exact():
    for n in (1, 3, 6):
        for e in all_small_ensembles(n, m_max=2, r_grid=(Fraction(2), Fraction(3, 2))):
            total = sum(E.prob(e, format(v, f"0{n}b")) for v in range(1 << n))
            assert total == 1, e


def test_ceil_neg_log2_prob_matches_fraction_arithmetic():
    for n in (1, 2, 4, 6):
        for e in all_small_ensembles(n, m_max=2, r_grid=(Fraction(2),)):
            for v in range(1 << n):
                x = format(v, f"0{n}b")
                p = E.prob(e, x)
                if p == 0:
                    continue
                t = E.ceil_neg_log2_prob(e, x)
                assert Fraction(1, 1 << t) <= p
                assert t == 0 or Fraction(1, 1 << (t - 1)) > p


def test_serialization_roundtrip_all_tags():
    members = [
        E.SingletonRaw("0"),
        E.SingletonRaw("110100"),
        E.SingletonLZ("0"),
        E.SingletonLZ("1011010100010"),
        E.UniformAll(1),
        E.UniformAll(23),
        E.UniformTypical(Fraction(2), 6),
        E.UniformTypical(Fraction(9, 8), 12),
        E.IIDQuantized(4, 3, 2),
        E.IIDQuantized(1, 6, 63),
        E.MarkovQuantized(4, 2, 1, 3, 2),
        E.MarkovQuantized(9, 6, 5, 62, 31),
    ]
    for e in members:
        bits = E.serialize(e)
        assert len(bits) == E.desc_len(e)
        assert E.decode_ensemble(bits) == e
        back, used = E.decode_ensemble_prefix(bits + "1100")
        assert back == e and used == len(bits)


def test_decode_rejects_malformed():
    with pytest.raises(DecodeError):
        E.decode_ensemble("11")  # truncated
    with pytest.raises(DecodeError):
        E.decode_ensemble("111" + "1")  # unknown tag 7
    good = E.serialize(E.UniformAll(4))
    with pytest.raises(DecodeError):
        E.decode_ensemble(good + "0")  # trailing bits
    # iid with a = 0 is not a valid parameter
    bad = "100" + "0100" + "0100" + "00"
    with pytest.raises(DecodeError):
        E.decode_ensemble(bad)


def test_family_kraft_inequality():
    total = Fraction(0)
    for n in range(1, 7):
        for e in all_small_ensembles(n, m_max=4):
            if isinstance(e, E.UniformTypical) and e.r not in typical_sets.DEFAULT_R_GRID:
                continue
            total += Fraction(1, 1 << E.desc_len(e))
    assert total <= 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        E.IIDQuantized(4, 2, 0)
    with pytest.raises(ValueError):
        E.IIDQuantized(4, 2, 4)
    with pytest.raises(ValueError):
        E.MarkovQuantized(4, 2, 1, 4, 1)
    with pytest.raises(ValueError):
        E.SingletonRaw("")
    with pytest.raises(ValueError):
        E.UniformAll(0)


def test_text_form_roundtrip():
    members = [
        E.SingletonRaw("0101"),
        E.SingletonLZ("0101"),
        E.UniformAll(8),
        E.UniformTypical(Fraction(3, 2), 16),
        E.IIDQuantized(16, 4, 5),
        E.MarkovQuantized(8, 2, 1, 2, 1),
    ]
    for e in members:
        tag, params = E.format_ensemble(e)
        assert E.parse_ensemble_spec(f"{tag}:{params}") == e
    tag, params = E.format_ensemble(E.SingletonRaw("01" * 64))
    assert "x=" not in params  # long payloads are elided from text form


def test_parse_ensemble_spec_rejects_missing_keys():
    for text in (
        "iid:n=3",
        "markov-q:n=2,m=1",
        "uniform-typ:n=3",
        "uniform-typ:r=1/0,n=3",
        "uniform-typ:r=1.5,n=4",
        "uniform-typ:r=1e0,n=4",
        "singleton-raw:",
    ):
        with pytest.raises(ValueError):
            E.parse_ensemble_spec(text)


def test_decode_uniform_typical_bounded_cost():
    # a 17-bit stream names T(2, 24); validating it needs the n = 24 histogram
    bits = E.serialize(E.UniformTypical(Fraction(2), 24))
    assert len(bits) == 17
    saved = lz78._HIST_CACHE.pop(24, None)
    try:
        t0 = time.perf_counter()
        assert E.decode_ensemble(bits) == E.UniformTypical(Fraction(2), 24)
        assert time.perf_counter() - t0 < 1.0
    finally:
        if saved is not None:
            lz78._HIST_CACHE[24] = saved


def _loop_entropy(n, m, a0, a1, ai):
    """The defining chain-rule loop, one step at a time (reference)."""
    top = 1 << m
    q0, q1 = a0 / top, a1 / top
    h0, h1 = binary_entropy(q0), binary_entropy(q1)
    p1 = ai / top
    total = binary_entropy(p1)
    for _ in range(n - 1):
        p0 = 1.0 - p1
        total = total + (p0 * h0 + p1 * h1)
        p1 = p0 * q0 + p1 * (1.0 - q1)
    return total


def _entry_probs(entries):
    """q0, q1 and the initial p1 of (m, a0, a1, ai) entries, one array each."""
    return [np.array([e[j] / (1 << e[0]) for e in entries]) for j in (1, 2, 3)]


def _loop_entropies(n, entries):
    """The same loop for many entries at once: each numpy step performs the
    scalar loop's float operations elementwise, in the same order."""
    q0, q1, p1 = _entry_probs(entries)
    h0, h1, total = (np.array([binary_entropy(v) for v in q.tolist()]) for q in (q0, q1, p1))
    for _ in range(n - 1):
        p0 = 1.0 - p1
        total = total + (p0 * h0 + p1 * h1)
        p1 = p0 * q0 + p1 * (1.0 - q1)
    return total.tolist()


def _plain_sum(total, incs, k):
    for j in range(k):
        total = total + incs[j % len(incs)]
    return total


def test_add_cyclic_matches_plain_loop():
    u = 2.0**-52  # spacing of the binade [1, 2)
    cases = [
        (1.0, [0.5 * u], 999),  # ties: a half spacing, rounded to even
        (1.0, [2.5 * u, 0.3], 1001),
        (1.0 + u, [(3 + 0.5) * u, 7 * u], 4000),
        (1.0, [0.25], 4),  # lands exactly on 2
        (1.0, [0.25], 11),  # ... and carries on in [2, 4)
        (2.0 - 8 * u, [u, u], 20),  # lands on 2, then every inc is a tie
        (2.0 - 9 * u, [u, 2 * u, u], 30),
        (2.0**20, [1e-20, 3e-21], 10**5),  # every increment rounds to 0
        (2.0**20, [1e-20, 0.0, 0.75], 3 * 10**4 + 2),
        (0.0, [5e-324], 500),  # subnormal totals
        (1e-300, [1.0], 5),  # increments wider than the binade (inc / u overflows)
        (2.0**-1000, [0.5, 1e-310], 40),
        (1.0, [0.1, -0.2], 1000),  # a negative increment: no jumps
        (1.0, [float("nan")], 5),
        (1.0, [0.1, 0.2, 0.3], 2),  # fewer steps than one period
    ]
    for period in (1, 2, 3, 4):
        for total in (0.7, 1.0, 3.999999, 12345.678):
            incs = [0.1 * (j + 1) / 3 + 1e-17 * j for j in range(period)]
            cases.append((total, incs, 50_000 + period))
            cases.append((total, [x * 1e-13 for x in incs], 9_999))
    rng = random.Random(5)
    for _ in range(200):
        period = rng.randint(1, 4)
        total = rng.choice([0.0, 1.0, 2.0**rng.randint(-60, 60)]) * rng.uniform(0.5, 1.5)
        incs = [rng.choice([0.0, 1e-18, 1.0]) * rng.random() for _ in range(period)]
        cases.append((total, incs, rng.randint(0, 3000)))
    for total, incs, k in cases:
        assert E._add_cyclic(total, incs, k).hex() == _plain_sum(total, incs, k).hex(), (
            total, incs, k,
        )


def _grid_entries(ms):
    return [
        (m, a0, a1, ai)
        for m in ms
        for a0 in range(1, 1 << m)
        for a1 in range(1, 1 << m)
        for ai in range(1, 1 << m)
    ]


def test_markov_entropy_matches_loop():
    fast = E._markov_entropy.__wrapped__  # no cache
    small = _grid_entries(range(1, 5))
    # the vectorised reference is the scalar loop's float, entry by entry
    assert _loop_entropies(300, small[::97]) == [_loop_entropy(300, *e) for e in small[::97]]
    for n in (1, 2, 3, 24, 1043, 1044, 4097, (1 << 15) + 3):
        ref = _loop_entropies(n, small)
        assert [fast(n, *e) for e in small] == ref, n
    # every entry of m <= 6 whose increments cycle with period 3 or 4
    entries = _grid_entries(range(1, 7))
    q0, q1, p1 = _entry_probs(entries)
    stay1, p0 = 1.0 - q1, np.empty_like(p1)

    def step():  # p1 <- p0 * q0 + p1 * (1 - q1), in place
        np.subtract(1.0, p1, out=p0)
        np.multiply(p0, q0, out=p0)
        np.multiply(p1, stay1, out=p1)
        np.add(p1, p0, out=p1)

    for _ in range(1100):
        step()
    start = p1.copy()
    period = np.zeros(len(entries), dtype=np.int64)
    for L in (1, 2, 3, 4):
        step()
        period[(period == 0) & (p1 == start)] = L
    assert period.min() >= 1  # every entry repeats within 1100 steps, period <= 4
    long_cycles = [e for e, L in zip(entries, period.tolist()) if L >= 3]
    assert len(long_cycles) > 1000
    assert [fast(5000, *e) for e in long_cycles] == _loop_entropies(5000, long_cycles)
    for n in (1 << 18, 1 << 20):
        for e in ((6, 1, 1, 1), (3, 5, 7, 1), (6, 63, 63, 5), (5, 1, 30, 17)):
            assert fast(n, *e) == _loop_entropy(n, *e), (n, e)


def test_markov_entropy_cold_cost_bounded():
    # the plain loop takes 0.15-0.18 s per call at this length
    for args in ((1 << 20, 6, 1, 1, 1), (1 << 20, 3, 5, 7, 1)):
        t0 = time.perf_counter()
        E._markov_entropy.__wrapped__(*args)  # bypasses the cache
        assert time.perf_counter() - t0 < 0.05, args
