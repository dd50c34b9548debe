from fractions import Fraction

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
