import ctypes
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from eclab import kernel
from eclab import processes as P


def bern(p) -> P.Bernoulli:
    return P.Bernoulli(Fraction(p))


def test_degenerate_samples():
    assert P.sample(bern(1), 5, 123) == "11111"
    assert P.sample(bern(0), 3, 9) == "000"


def test_sampling_is_deterministic():
    m = P.Markov(Fraction(1, 10), Fraction(1, 10))
    assert P.sample(m, 200, 7) == P.sample(m, 200, 7)
    assert P.sample(m, 200, 7) != P.sample(m, 200, 8)
    mix = P.Mixture(((Fraction(1, 2), bern(0)), (Fraction(1, 2), bern(1))))
    assert P.sample_paths(mix, 10, 3, 5) == P.sample_paths(mix, 10, 3, 5)
    # paths first .. first + count - 1 of the same run, one at a time or in a block
    assert [P.sample_paths(mix, 10, 3, 1, i)[0] for i in range(5)] == P.sample_paths(mix, 10, 3, 5)
    assert P.sample_paths(m, 50, 3, 2, 3) == P.sample_paths(m, 50, 3, 5)[3:]


def _block_stream(seed: int, n: int) -> np.ndarray:
    """Outputs 1..n of SplitMix64 with the given seed, from the numpy
    sampler's blocks, each copied out before the next overwrites it."""
    return np.concatenate([u.copy() for _, u in P._blocks(seed, n)])


def _samplers() -> list:
    """The path samplers to check: the numpy block sampler, and the
    kernel's when it is loaded."""
    return [P._sample_blocks] + ([P._sample_kernel] if kernel.load() is not None else [])


def _flip_rule(m: P.Markov, path_seed: int, n: int) -> str:
    """The scalar flip rule, one step at a time: the sampler's reference."""
    from eclab.processes import _threshold

    u = _block_stream(path_seed, n).tolist()
    state = int(u[0] < _threshold(m.pi1))
    bits = [state]
    for j in range(1, n):
        state ^= u[j] < _threshold(m.a10 if state else m.a01)
        bits.append(int(state))
    return "".join(map(str, bits))


def _scalar_stream(seed: int, n: int) -> list[int]:
    """Outputs 1..n of SplitMix64 in counter mode, one scalar mix64 each."""
    return [P.mix64(seed + k * P._GAMMA) for k in range(1, n + 1)]


# lengths around the sampler's block boundaries: one below and one above a
# boundary, and a path that crosses two of them
_BLOCK_LENGTHS = (P._BLOCK - 1, P._BLOCK + 1, 2 * P._BLOCK + 3)


def test_stream_matches_scalar_mix64():
    for seed in (0, 1, 12345, 1 << 63, (1 << 63) + 977, (1 << 64) - 1):
        for n in (1, 5, *_BLOCK_LENGTHS):
            assert _block_stream(seed, n).tolist() == _scalar_stream(seed, n), (seed, n)


def test_bernoulli_matches_scalar_rule():
    # bit k is [u_k < floor(p * 2^64)] on the scalar stream; for p = 1 the
    # threshold 2^64 exceeds every u, so the reference needs no special case;
    # the numpy sampler and the kernel's each
    from eclab.processes import _path_seed, _threshold

    F = Fraction
    for p in (F(0), F(1), F(3, 10), F(1, 2), F(1, 3), F(1, 2**20), F(2**20 - 1, 2**20)):
        for n in (1, 2, 64, *_BLOCK_LENGTHS):
            for seed in (0, 3):
                ps = _path_seed(seed, 0)
                t = _threshold(p)
                want = "".join("1" if u < t else "0" for u in _scalar_stream(ps, n))
                for draw in _samplers():
                    assert draw(P.Bernoulli(p), ps, n) == want, (p, n, seed)


def test_symmetric_markov_matches_generic_rule():
    # the blocked reset/negation composition must equal the stated flip rule
    # for every chain, symmetric or not, including flip probabilities of 1,
    # on paths that cross block boundaries; the numpy sampler and the kernel's each
    from eclab.processes import _GAMMA, _path_seed, _threshold

    F = Fraction
    chains = [
        (F(1, 10), F(1, 10)),
        (F(1, 5), F(3, 5)),
        (F(1, 2), F(1, 3)),
        (F(1, 100), F(99, 100)),
        (F(9, 10), F(1, 10)),
        (F(1), F(1, 2)),
        (F(1, 3), F(1)),
        (F(1), F(1)),
        (F(1, 2**20), F(1, 3)),
    ]
    for a01, a10 in chains:
        m = P.Markov(a01, a10)
        for n in (1, 2, 3, 64, 4097, *_BLOCK_LENGTHS):
            for seed in range(5 if n < P._BLOCK else 2):
                ps = _path_seed(seed, 0)
                want = _flip_rule(m, ps, n)
                for draw in _samplers():
                    assert draw(m, ps, n) == want, (a01, a10, n, seed)
    parts = ((F(1, 3), P.Markov(F(1, 5), F(3, 5))), (F(2, 3), P.Markov(F(1), F(1, 4))))
    paths = P.sample_paths(P.Mixture(parts), 4097, 11, 16)
    for i, (bits, comp) in enumerate(paths):
        ps = _path_seed(11, i)
        assert comp == (0 if _scalar_stream(ps, 1)[0] < _threshold(F(1, 3)) else 1)
        assert bits == _flip_rule(parts[comp][1], P.mix64(ps + 2 * _GAMMA), 4097)
    assert {comp for _, comp in paths} == {0, 1}


# SHA-256 of sample_paths(model, 2^18, 2024, 3), each path hashed as
# "<component>:<bits>\n", recorded with the whole-path sampler that preceded
# the blocked one: the first three are the benchmark's models
_PINNED_PATHS = {
    "markov:flip=1/10": "e713fcccfc66cd89036e9bf9abc21cd98622e1d00b6c560db9fc078855df7915",
    "markov:a01=1/5,a10=3/5": "e9f977eb2c507720eed909fc63b173a9ba93cfa04842736e4b4cc30366fb7919",
    "bernoulli:p=3/10": "0b666c960b7b4a4c845cab4443bc7ff6a6f0dcf05f2c917d11aa710ca15cfc3d",
    "bernoulli:p=1/2": "facc8ff2d7f95538a0a957fa5bc98ce71ad6ab4803dd6edfaf2e117ae62b5b57",
    "mixture:1/3*markov:a01=1/5,a10=3/5+2/3*bernoulli:p=1/10":
        "08b604b8ccdae3e49092054ad8de28405109ea33312a0659d57b2e086ab98788",
}


@pytest.mark.parametrize("spec", sorted(_PINNED_PATHS))
def test_sample_paths_pinned_digest(spec):
    h = hashlib.sha256()
    for bits, comp in P.sample_paths(P.parse_model_spec(spec), 1 << 18, 2024, 3):
        h.update(f"{comp}:{bits}\n".encode())
    assert h.hexdigest() == _PINNED_PATHS[spec]


@pytest.fixture
def kernel_lib():
    lib = kernel.load()
    if lib is None:
        pytest.skip("the kernel cannot be built here")
    return lib


_DIFF_MODELS = (
    "bernoulli:p=0",
    "bernoulli:p=1/2",
    "bernoulli:p=3/10",
    "bernoulli:p=1",
    "markov:a01=1,a10=1/3",
    "markov:a01=2/7,a10=1",
    "markov:flip=1",
    "markov:a01=1/5,a10=3/5",
    "markov:a01=1/100,a10=99/100",
    "mixture:1/3*markov:a01=1/5,a10=3/5+2/3*bernoulli:p=1/10",
)
_DIFF_LENGTHS = (1, 2, P._BLOCK - 1, P._BLOCK, P._BLOCK + 1, 1 << 18)
_DIFF_SEEDS = (0, 1, (1 << 63) + 7, (1 << 64) - 1)


@pytest.mark.parametrize("spec", _DIFF_MODELS)
def test_kernel_sampler_matches_numpy_sampler(kernel_lib, spec, monkeypatch):
    """Byte for byte: each component's path for each seed taken as the path
    seed, and paths 3 and 4 of sample_paths for each master seed, drawn by
    the kernel and then with the kernel unloaded, by the numpy sampler."""
    model = P.parse_model_spec(spec)
    for n in _DIFF_LENGTHS:
        for seed in _DIFF_SEEDS:
            for _, comp in P.components(model):
                want = P._sample_blocks(comp, seed, n)
                assert P._sample_kernel(comp, seed, n) == want, (n, seed)
    runs = {}
    for side in ("kernel", "numpy"):
        if side == "numpy":
            monkeypatch.setattr(kernel, "load", lambda: None)
        runs[side] = [P.sample_paths(model, n, seed, 2, 3) for n in _DIFF_LENGTHS for seed in _DIFF_SEEDS]
    assert runs["kernel"] == runs["numpy"]


def test_kernel_sampler_rejects_a_negative_length(kernel_lib):
    """n < 0 gives -1 before a byte is written; n = 0 writes nothing."""
    buf = bytearray(b"x" * 8)
    out = (ctypes.c_char * 8).from_buffer(buf)
    for chain in (0, 1):
        assert kernel_lib.splitmix_bits(out, -1, 5, chain, 1 << 62, 1 << 62, 1 << 62, 0) == -1
        assert kernel_lib.splitmix_bits(out, 0, 5, chain, 1 << 62, 1 << 62, 1 << 62, 7) == 0
    assert buf == b"x" * 8


def test_entropy_rates():
    assert P.entropy_rate(bern("1/2")) == 1.0
    assert P.entropy_rate(bern(0)) == 0.0
    m = P.Markov(Fraction(1, 10), Fraction(1, 10))
    assert abs(P.entropy_rate(m) - 0.46899) < 1e-5
    mix = P.Mixture(((Fraction(1, 2), bern(0)), (Fraction(1, 2), bern(1))))
    assert P.entropy_rate(mix) == 0.0


def test_mixture_entropy_rate_is_affine():
    parts = ((Fraction(1, 4), bern("1/10")), (Fraction(3, 4), bern("1/2")))
    mix = P.Mixture(parts)
    expected = sum(float(w) * P.entropy_rate(c) for w, c in parts)
    assert P.entropy_rate(mix) == expected


def test_stationary_dist():
    assert P.stationary_dist([["9/10", "1/10"], ["1/10", "9/10"]]) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert P.stationary_dist([["4/5", "1/5"], ["3/5", "2/5"]]) == (
        Fraction(3, 4),
        Fraction(1, 4),
    )
    with pytest.raises(ValueError, match="state 0 is absorbing"):
        P.stationary_dist([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="state 1 is absorbing"):
        P.stationary_dist([["1/2", "1/2"], [0, 1]])
    with pytest.raises(ValueError):
        P.stationary_dist([["1/2", "1/3"], ["1/2", "1/2"]])


def test_block_prob_examples():
    assert P.block_prob(bern("1/4"), "11") == Fraction(1, 16)
    assert P.block_prob(bern("1/2"), "010011") == Fraction(1, 64)
    mix = P.Mixture(((Fraction(1, 2), bern(0)), (Fraction(1, 2), bern(1))))
    assert P.block_prob(mix, "00") == Fraction(1, 2)
    assert P.block_prob(mix, "01") == 0


def test_block_prob_markov_chain_rule():
    m = P.Markov(Fraction(1, 5), Fraction(3, 5))
    # stationary start (3/4, 1/4), then transitions
    assert P.block_prob(m, "0") == Fraction(3, 4)
    assert P.block_prob(m, "01") == Fraction(3, 4) * Fraction(1, 5)
    assert P.block_prob(m, "010") == Fraction(3, 4) * Fraction(1, 5) * Fraction(3, 5)


def test_block_prob_shift_invariance():
    models = [
        bern("3/10"),
        P.Markov(Fraction(1, 10), Fraction(1, 10)),
        P.Markov(Fraction(1, 5), Fraction(3, 5)),
        P.Mixture(((Fraction(1, 3), bern("1/10")), (Fraction(2, 3), bern("1/2")))),
    ]
    for m in models:
        for n in range(1, 7):
            for v in range(1 << n):
                x = format(v, f"0{n}b")
                p = P.block_prob(m, x)
                left = P.block_prob(m, "0" + x) + P.block_prob(m, "1" + x)
                right = P.block_prob(m, x + "0") + P.block_prob(m, x + "1")
                assert left == p == right  # exact rationals


def test_block_prob_normalization():
    models = [bern("3/10"), P.Markov(Fraction(1, 10), Fraction(2, 5))]
    for m in models:
        for n in (1, 4, 8, 12):
            total = sum(P.block_prob(m, format(v, f"0{n}b")) for v in range(1 << n))
            assert total == 1


def test_sampler_consistency_with_block_probs():
    m = P.Markov(Fraction(1, 5), Fraction(3, 5))
    samples = 100_000
    counts: dict[str, int] = {}
    for bits, _ in P.sample_paths(m, 3, seed=2024, count=samples):
        counts[bits] = counts.get(bits, 0) + 1
    for v in range(8):
        x = format(v, "03b")
        p = float(P.block_prob(m, x))
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(counts.get(x, 0) / samples - p) <= 4 * se + 1e-12


def test_components():
    b = bern("3/10")
    assert P.components(b) == [(Fraction(1), b)]
    mix = P.Mixture(((Fraction(1, 2), bern(0)), (Fraction(1, 2), bern(1))))
    comps = P.components(mix)
    assert len(comps) == 2
    assert sum(w for w, _ in comps) == 1


def test_mixture_component_frequencies():
    mix = P.Mixture(((Fraction(1, 4), bern(0)), (Fraction(3, 4), bern(1))))
    paths = P.sample_paths(mix, 1, seed=5, count=20_000)
    ones = sum(comp for _, comp in paths)
    assert abs(ones / 20_000 - 0.75) < 0.02
    for bits, comp in paths[:100]:
        assert bits == ("1" if comp == 1 else "0")


def test_model_validation():
    with pytest.raises(ValueError):
        bern("3/2")
    with pytest.raises(ValueError):
        P.Markov(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        P.Mixture(((Fraction(1, 2), bern(0)),))  # weights must sum to 1
    with pytest.raises(ValueError):
        P.Mixture(((Fraction(1), P.Markov(Fraction(1), Fraction(1))),))  # periodic


def test_model_spec_roundtrip():
    specs = [
        "bernoulli:p=1/2",
        "markov:flip=1/10",
        "markov:a01=1/5,a10=3/5",
        "mixture:1/2*bernoulli:p=1/10+1/2*bernoulli:p=1/2",
    ]
    for text in specs:
        m = P.parse_model_spec(text)
        assert P.parse_model_spec(P.format_model(m)) == m


def test_model_document_form():
    m = P.parse_model_spec("variant=markov\nflip=1/10\n")
    assert m == P.Markov(Fraction(1, 10), Fraction(1, 10))
    m = P.parse_model_spec("variant=markov\nrows=4/5,1/5;3/5,2/5\n")
    assert m == P.Markov(Fraction(1, 5), Fraction(3, 5))
    with pytest.raises(ValueError):
        P.parse_model_spec("variant=markov\nrows=1/2,1/3;1/2,1/2\n")
    m = P.parse_model_spec(
        "variant=mixture\ncomponent=1/2 bernoulli:p=1/10\ncomponent=1/2 bernoulli:p=1/2\n"
    )
    assert isinstance(m, P.Mixture)
    with pytest.raises(ValueError):
        P.parse_model_spec("bernoulli:p=0.5")  # decimals are rejected
    with pytest.raises(ValueError):
        P.parse_model_spec("weibull:k=2")
    for text in (
        "bernoulli:",
        "bernoulli:p=1/2,q=9",
        "markov:a01=1/5",
        "variant=bernoulli\n",
        "variant=bernoulli\np=1/2\nq=9\n",
        "variant=markov\nflip=1/10\nrows=1,0;0,1\n",
    ):
        with pytest.raises(ValueError):
            P.parse_model_spec(text)
