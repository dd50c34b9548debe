from fractions import Fraction
from itertools import accumulate

import pytest

from eclab import lz78, processes, typical_sets as T
from eclab.errors import ResourceLimitError


def spec(r, n) -> T.TypicalSetSpec:
    return T.TypicalSetSpec(Fraction(r), n)


def test_contains_examples():
    assert T.contains(spec(2, 1), "0")  # 1 < 2
    assert not T.contains(spec("1/2", 2), "00")  # 2 < 1 fails
    assert not T.contains(spec(1, 1), "1")  # strict: 1 < 1 fails


def test_contains_length_mismatch():
    with pytest.raises(ValueError):
        T.contains(spec(1, 4), "00")


def test_enumerate_examples():
    assert T.enumerate_set(spec(2, 1)) == ["0", "1"]
    assert T.enumerate_set(spec("1/2", 1)) == []
    s = spec("3/2", 6)
    members = T.enumerate_set(s)
    assert members == sorted(members)
    assert len(members) == T.cardinality(s)
    assert all(T.contains(s, x) for x in members)


def test_cardinality_examples():
    assert T.cardinality(spec(2, 1)) == 2
    assert T.cardinality(spec("1/2", 2)) == 0


def test_cardinality_matches_enumeration():
    for n in range(1, 11):
        for k in (1, 3, 8, 12, 16):
            s = spec(Fraction(k, 8), n)
            assert T.cardinality(s) == len(T.enumerate_set(s))


def test_resource_bound():
    with pytest.raises(ResourceLimitError):
        T.cardinality(spec(1, 25))
    with pytest.raises(ResourceLimitError):
        T.enumerate_set(spec(1, 30))


def test_size_bound_exact_small():
    for n in range(1, 15):
        for k in range(1, 17):
            s = spec(Fraction(k, 8), n)
            assert T.size_bound_holds(s, T.cardinality(s))


def test_size_bound_eighth_grid_beyond_walk():
    # lengths the exhaustive walk could not reach; the histogram is polynomial
    for n in range(19, 65):
        for k in range(1, 17):
            s = spec(Fraction(k, 8), n)
            assert T.size_bound_holds(s, T.cardinality(s, n_max=64))


def test_monotone_in_rate():
    for n in range(1, 15):
        cards = [T.cardinality(spec(Fraction(k, 16), n)) for k in range(1, 33)]
        assert cards == sorted(cards)
    # and genuine subset containment on a spot check
    small = set(T.enumerate_set(spec("3/4", 8)))
    large = set(T.enumerate_set(spec("5/4", 8)))
    assert small <= large


def test_default_grid_shape():
    grid = T.DEFAULT_R_GRID
    assert grid == tuple(sorted(set(grid)))
    assert Fraction(1, 64) in grid
    assert Fraction(1) in grid
    assert Fraction(2) in grid
    assert all(r > 0 for r in grid)
    assert len(grid) == 72


def test_empirical_prob_degenerate():
    # constant strings compress far below rate 1/2 at this length
    assert T.empirical_prob(spec("1/2", 4096), processes.Bernoulli(Fraction(0)), 100, 1) == 1
    # incompressible strings sit near rate 1, far above 1/4
    assert T.empirical_prob(spec("1/4", 4096), processes.Bernoulli(Fraction(1, 2)), 100, 1) == 0


def test_empirical_prob_holds_one_path_at_a_time():
    """Each sampled path is drawn, tested and dropped before the next: the
    traced peak with 64 paths of 2^16 bits stays within twice that with 2
    (it grew with the count while every path was drawn first)."""
    import tracemalloc

    model, s = processes.parse_model_spec("bernoulli:p=3/10"), spec("3/4", 1 << 16)
    T.empirical_prob(s, model, 2, 1)  # load what a first call loads before tracing
    peaks = []
    for samples in (2, 64):
        tracemalloc.start()
        try:
            T.empirical_prob(s, model, samples, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_empirical_prob_single_sample():
    v = T.empirical_prob(spec(1, 64), processes.Bernoulli(Fraction(1, 2)), 1, 9)
    assert v in (0, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        T.TypicalSetSpec(Fraction(0), 4)
    with pytest.raises(ValueError):
        T.TypicalSetSpec(Fraction(1), 0)
    # rates normalize to lowest terms
    assert T.TypicalSetSpec(Fraction(2, 4), 4).r == Fraction(1, 2)


# --- membership that stops once the bound is crossed -------------------------


def _reference(r: Fraction, n: int, length: int) -> bool:
    return length * r.denominator < r.numerator * n


def test_membership_matches_code_len_exhaustively():
    """Every x with n <= 12 over the eighth grid and the rates L/n of every
    code length L that occurs, where the two sides of the test are equal."""
    equal = 0
    for n in range(1, 13):
        lengths = [(x, lz78.code_len(x)) for x in (format(v, f"0{n}b") for v in range(1 << n))]
        rates = {Fraction(k, 8) for k in range(1, 17)} | {Fraction(L, n) for _, L in lengths}
        for r in rates:
            s = spec(r, n)
            for x, L in lengths:
                assert T.contains(s, x) == _reference(r, n, L), (x, r)
                equal += L * r.denominator == r.numerator * n
    assert equal > 0


@pytest.mark.parametrize(
    "model", ["markov:flip=1/10", "markov:a01=1/5,a10=3/5", "bernoulli:p=3/10", "bernoulli:p=1/2"]
)
def test_empirical_prob_matches_code_len(model):
    m = processes.parse_model_spec(model)
    for n in (1, 5, 12):
        for r in (Fraction(1, 4), Fraction(3, 4), Fraction(1), Fraction(4, 3), Fraction(7, n)):
            paths = processes.sample_paths(m, n, 17, 40)
            hits = sum(_reference(r, n, lz78.code_len(bits)) for bits, _ in paths)
            assert T.empirical_prob(spec(r, n), m, 40, 17) == Fraction(hits, 40), (n, r)


@pytest.fixture
def walked(monkeypatch):
    """Every walk the membership test makes, in call order: (trie, bits
    handed to the walk, stop, node reached)."""
    seen: list[tuple] = []
    walk = lz78._walk

    def spy(trie, node, bits, stop=None):
        node = walk(trie, node, bits, stop)
        seen.append((trie, len(bits), stop, node))
        return node

    monkeypatch.setattr(lz78, "_walk", spy)
    return seen


def _complete_counts(x: str) -> list[int]:
    """counts[P]: the complete LZ78 phrases of x[:P], from a set of phrase strings."""
    seen, cur, counts = {""}, "", [0]
    for ch in x:
        cur += ch
        if cur not in seen:
            seen.add(cur)
            cur = ""
        counts.append(len(seen) - 1)
    return counts


def _walked_to(x: str, counts: list[int], r: Fraction, walks: list[tuple]) -> int:
    """The walks of one membership test of x stop at the crossing, the least
    P with S(counts[P]) * den >= r n: at node 0, holding exactly the
    counts[P] = stop complete phrases of x[:P], with no walk after the one
    that reached it. With no crossing they walk the whole string. Returns
    the bits parsed: P or n."""
    n = len(x)
    bound, den = r.numerator * n, r.denominator
    crossing = next((P for P, c in enumerate(counts) if lz78._phrase_bits(c) * den >= bound), None)
    tries, lengths, stops, nodes = zip(*walks)
    trie, stop = tries[0], stops[0]
    assert all(t is trie for t in tries) and set(stops) == {stop}
    if crossing is None:
        assert sum(lengths) == n and trie[-1] < stop
        return n
    assert nodes[-1] == 0 and trie[-1] == stop == counts[crossing], (crossing, stop, trie[-1])
    assert lz78.LZParse(lz78._records(trie), 0).reconstruct() == x[:crossing]
    assert sum(lengths[:-1]) < crossing <= sum(lengths)
    return crossing


def _check_walk(x: str, counts: list[int], r: Fraction, walked: list[tuple]) -> int:
    """contains(x) agrees with code_len, and its walk stops at the crossing
    (see _walked_to). Returns the bits parsed."""
    n = len(x)
    want = _reference(r, n, lz78.code_len(x))
    walked.clear()
    assert T.contains(spec(r, n), x) == want, r
    return _walked_to(x, counts, r, walked)


@pytest.mark.parametrize(
    "model,n,seed",
    [
        ("bernoulli:p=1/2", 1 << 12, 1),
        ("markov:a01=1/5,a10=3/5", 1 << 13, 2),
        ("markov:flip=1/10", 1 << 14, 3),
        ("bernoulli:p=3/10", 1 << 15, 4),
    ],
)
def test_membership_exits_in_first_middle_and_last_chunk(model, n, seed, walked):
    """With r n = S(c) for the complete phrases c of a prefix, the bound is
    crossed at the end of that prefix's last complete phrase: the answer is
    False, and the walk stops at that phrase. Rates from the first 1/32, the
    first half and the whole string put the crossing early, in the middle
    and at the very end; at r n = code_len(x) and one bit above it the
    answer needs the whole parse."""
    x = processes.sample(processes.parse_model_spec(model), n, seed)
    counts = _complete_counts(x)
    rate = lambda P: Fraction(lz78._phrase_bits(counts[P]), n)
    assert _check_walk(x, counts, rate(n // 32), walked) <= n // 32
    assert n // 32 < _check_walk(x, counts, rate(n // 2), walked) <= n // 2
    # the longest prefix that ends on a phrase boundary crosses at its very end
    m = max(P for P in range(n + 1) if counts[P] > counts[P - 1])
    assert _check_walk(x[:m], counts[: m + 1], Fraction(lz78._phrase_bits(counts[m]), m), walked) == m
    L = lz78.code_len(x)
    for r, want in ((Fraction(L, n), False), (Fraction(L + 1, n), True)):
        assert _check_walk(x, counts, r, walked) == n
        assert T.contains(spec(r, n), x) == want


def test_membership_of_strings_ending_in_a_partial_phrase(walked):
    """code_len = S(c) + bitlen(c) when a partial phrase follows the c
    complete ones: rates above S(c)/n up to code_len/n are decided by the
    partial phrase after the whole parse."""
    x = processes.sample(processes.parse_model_spec("markov:a01=1/5,a10=3/5"), 1 << 13, 9)
    counts = _complete_counts(x)
    cases = 0
    for n in range(len(x) - 40, len(x) + 1):
        p = lz78.parse(x[:n])
        if not p.has_partial:
            continue
        cases += 1
        S, L = lz78._phrase_bits(p.complete_count), lz78.code_len(x[:n])
        assert L == S + p.complete_count.bit_length()
        for num in (S, S + 1, L - 1, L, L + 1):
            parsed = _check_walk(x[:n], counts[: n + 1], Fraction(num, n), walked)
            if num > S:
                assert parsed == n
    assert cases > 0


def test_non_member_walk_stops_before_the_end(walked):
    """A fair-coin path is far above rate 1/2: its parse stops at the
    crossing phrase, well before the end, in contains and in every path
    empirical_prob draws."""
    n, r = 1 << 14, Fraction(1, 2)
    model = processes.Bernoulli(r)
    x = processes.sample(model, n, 5)
    assert 0 < _check_walk(x, _complete_counts(x), r, walked) < n
    walked.clear()
    assert T.empirical_prob(spec(r, n), model, 4, 5) == 0
    by_trie: dict[int, list[tuple]] = {}
    for walk in walked:
        by_trie.setdefault(id(walk[0]), []).append(walk)
    paths = [bits for bits, _ in processes.sample_paths(model, n, 5, 4)]
    assert len(by_trie) == len(paths)
    parsed = [_walked_to(y, _complete_counts(y), r, walks) for y, walks in zip(paths, by_trie.values())]
    assert 0 < sum(parsed) < 4 * n // 2
