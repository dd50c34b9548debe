"""Pinned stdout of the CLI commands that run the candidate search.

Exact mode at n = 21-24: each argv's stdout SHA-256 was recorded before the
exact Markov walks were vectorised. The strings are low-entropy,
Markov-like, fair-coin and run-heavy, four per length.

Upper mode at n = 2^12 and 2^15: seeded paths of the two benchmark models,
recorded before the exact log2 rechecks moved powers of two into shifts.
The same paths under δ = 1/4 and 1, `ec --Delta 0`, `coarse-ec` with an m
bound, and one n = 2^18 `coarse-ec` per model: recorded before the large-n
Markov walk bounded whole (a0, a1) blocks instead of scanning every entry.

The rest of the search surface: `scan-max-coarse` (the coarse candidate
search over every string of a length), `sweep-theorem1` (the ec search in
upper mode) and constrained upper-mode `ec`/`coarse-ec` at n = 2^12 (the
large-n Markov walk with an m bound), recorded before ec and coarse_ec
shared one search.

`selftest --fast`: the whole stdout, one line per suite with its case
count, recorded before the suites and the acceptance criteria shared one
check per invariant. Any change to a printed byte fails here.
"""

import hashlib
import math

import numpy as np
import pytest

import flat_markov_grid
from eclab import cli, complexity, ensembles, processes
from eclab.codec import nat_code_len

_STRINGS = {
    21: ["111111111101101111111", "111110001101111111111",
         "100100000011010001100", "000000000111111000000"],
    22: ["1110111111111110111111", "0000000000001111110000",
         "1000000111010000110101", "1111000000000000000000"],
    23: ["00000000010000000000000", "11001111111111100011111",
         "01010110100010100101101", "00000000000001111111111"],
    24: ["000000010000000000000000", "000000111000000001111000",
         "101101011000110010110011", "000000000000111111111111"],
}
_DELTAS = ("0", "1/4", "1")
_BUDGETS = ("0", "1", "4", "16")
_CONSTRAINTS = (
    "tags=markov-q;mmax=3",
    "tags=markov-q,iid;mmax=1",
    "tags=uniform-typ;rmin=1/2",
    "mmax=2;rmin=1/4;rmax=3/4",
)


def _golden_argv() -> list[list[str]]:
    out = []
    i = 0
    for n, xs in _STRINGS.items():
        for k, x in enumerate(xs):
            out.append(["khat", "--x", x])
            out.append(["coarse-ec", "--x", x, "--delta", _DELTAS[i % 3]])
            out.append(["ec", "--x", x, "--delta", _DELTAS[(i + 1) % 3],
                        "--Delta", _BUDGETS[i % 4], "--mode", "exact"])
            if k == 0:
                out.append(["ec", "--x", x, "--delta", "0", "--eps", "1/8"])
            if k < 2:
                c = _CONSTRAINTS[(i // 4 + k) % 4]
                out.append(["ec", "--x", x, "--delta", _DELTAS[i % 3], "--Delta", "4",
                            "--constraint", c])
            i += 1
    for j in range(0, len(out), 10):
        out[j] = out[j] + ["--format", "json"]
    return out


_DIGESTS = {
    'khat --x 111111111101101111111 --format json': "53fc64fdb18c86fa335e1a3b18c45771230aae626e940f501a3521bf769d4045",
    'coarse-ec --x 111111111101101111111 --delta 0': "143568136caeb2bbc3862c5d0b0ef62a9866168d825d5a8398394a2047b7f004",
    'ec --x 111111111101101111111 --delta 1/4 --Delta 0 --mode exact': "22cc8003bec9631370b1b1a78fd0600348bceb034e022b906d5c7f778b29d8e3",
    'ec --x 111111111101101111111 --delta 0 --eps 1/8': "30e1f4270f5947454c9dcdaad740ef231e3aa215301ce0c2d290bba5e1c20f0d",
    'ec --x 111111111101101111111 --delta 0 --Delta 4 --constraint tags=markov-q;mmax=3': "09f2ed8c3e587a24199ac193cce6b9f36c6e00408b3542d9f763afb42cd0307b",
    'khat --x 111110001101111111111': "617c155604449cb4376858e0a87cde94b1df893c69f93930b0d634d02cd1c9b0",
    'coarse-ec --x 111110001101111111111 --delta 1/4': "4ecdead4f7ab8ab1321d2d261f37cb8ea0486ea496f9ae2d0615cbd4dd5fb6df",
    'ec --x 111110001101111111111 --delta 1 --Delta 1 --mode exact': "dcccca0453bd2f54a0ab2fd21fc137f554e78d8676771e6d99bd1f31dcdea4bf",
    'ec --x 111110001101111111111 --delta 1/4 --Delta 4 --constraint tags=markov-q,iid;mmax=1': "57674a47f6fa912bcb6d5570de90450b03c46b72575562460f9a2f525cb6e178",
    'khat --x 100100000011010001100': "c88d5a6b90af6380dfb486985a0732d06ddfad1106866a697c99b15b0c407276",
    'coarse-ec --x 100100000011010001100 --delta 1 --format json': "3521d9e36c090ad63f1ab2464b411aa807211b0726ef9f621fa423a2a47b3460",
    'ec --x 100100000011010001100 --delta 0 --Delta 4 --mode exact': "13b67eef861bd7ee3cccc316065e184b9579f37d8fa612d7b0aa37dcf7197d1f",
    'khat --x 000000000111111000000': "617c155604449cb4376858e0a87cde94b1df893c69f93930b0d634d02cd1c9b0",
    'coarse-ec --x 000000000111111000000 --delta 0': "e6361825f81095905e2b1c8c2f215b1564492a7b75233ef864aafd1d313c2ce3",
    'ec --x 000000000111111000000 --delta 1/4 --Delta 16 --mode exact': "7c013980fb1ac460062654fd9f638aabef4c17bb4de666949ec072661b3cfdcc",
    'khat --x 1110111111111110111111': "21207483906b3daf0e15a1743db5143ade38666e7ccd88fd5594ea9d27b18984",
    'coarse-ec --x 1110111111111110111111 --delta 1/4': "699ea5dbec465102512ede8e0c0842e2f9c213cd9c7fd233d5183e41d7a6708e",
    'ec --x 1110111111111110111111 --delta 1 --Delta 0 --mode exact': "dccc6474d4fc01f95d6842378459dc5287a0910f47f697d591e7b041c241b256",
    'ec --x 1110111111111110111111 --delta 0 --eps 1/8': "4c0f9ff0a0aa64984aece1b1be9bcfc4e784fc14ff71c2de0429a18d149b9c87",
    'ec --x 1110111111111110111111 --delta 1/4 --Delta 4 --constraint tags=markov-q,iid;mmax=1': "1599b4dc9e28dc266f74eb0bb8954b4badf527d3c5d99010d5e4dc65ecd4f98c",
    'khat --x 0000000000001111110000 --format json': "648a488de8a08dada48aba947c2d1137811234804b8b5aada2e03545b1a2148a",
    'coarse-ec --x 0000000000001111110000 --delta 1': "d66c0badcac0b476121e6b14fb8c8f80cba837dc8719f23139f96addc6082be5",
    'ec --x 0000000000001111110000 --delta 0 --Delta 1 --mode exact': "538e6d9e8fdf82adf5b501514016f167ea5824cd2deceb4396bdd7dd235b8982",
    'ec --x 0000000000001111110000 --delta 1 --Delta 4 --constraint tags=uniform-typ;rmin=1/2': "10870dcf3a4635a44c936ac84d3ce9489055b8e5e4f4d57b50e3b97e20026a14",
    'khat --x 1000000111010000110101': "23098ed27988b4976e8f6eed1bc81d97b6a870689c953e55b44f497a5b733b19",
    'coarse-ec --x 1000000111010000110101 --delta 0': "0c7c0aef64eda6ee112ec8dfaeaeccd01d381ebe2e3d6c36a6c03d75c210db94",
    'ec --x 1000000111010000110101 --delta 1/4 --Delta 4 --mode exact': "fc162c5a0ef2c8471f6ca0155760a42b4e8bef44c35a6ee3550d0f26ae92a6bc",
    'khat --x 1111000000000000000000': "4cc635cd7ea7a61211b0d11fc4fdebe023d25e71c0b5285251b0342dd2040940",
    'coarse-ec --x 1111000000000000000000 --delta 1/4': "6d22b3051a04c1ca8b2340f570c48d194b6bea02e304ad2948ace8497aa4ce21",
    'ec --x 1111000000000000000000 --delta 1 --Delta 16 --mode exact': "a7842e023c6b6e62f62745b1dc05e71b09990ffadff82fdec2bba81460e6da55",
    'khat --x 00000000010000000000000 --format json': "8bda014ab284cbc1beea8b3623f3153674cfdfcb6c51d33b2d423d2a59f7262c",
    'coarse-ec --x 00000000010000000000000 --delta 1': "b60dad1807ab14bac7ef471ee323453acb2b035d7661cb7fc5f09f3d43549bff",
    'ec --x 00000000010000000000000 --delta 0 --Delta 0 --mode exact': "221cceb6edb20097844bd721da98345cdbc87c9f01144fc2d9db215a0bb0fcf4",
    'ec --x 00000000010000000000000 --delta 0 --eps 1/8': "04520e19c2a725d1fecd7fd3d904a959ba7d445b7051ed633e1945264edb4ccd",
    'ec --x 00000000010000000000000 --delta 1 --Delta 4 --constraint tags=uniform-typ;rmin=1/2': "9eb6f2dc6374a5c1333457a251c62237eaec0ce16276252682541e71a911b3bd",
    'khat --x 11001111111111100011111': "f0b1441faefa5597364f81d22e1a114a575a7b0e6a97536cea8cdb7fe3df5f1c",
    'coarse-ec --x 11001111111111100011111 --delta 0': "17c699a6ddb64221e848d8d0761da5812ac3204e4176c8ba2c5f0e2a1be11159",
    'ec --x 11001111111111100011111 --delta 1/4 --Delta 1 --mode exact': "0efaa34355a2af5edc4c0b3f0dad6f5a3229d5e9e7b2376bb7b62a850442a33b",
    'ec --x 11001111111111100011111 --delta 0 --Delta 4 --constraint mmax=2;rmin=1/4;rmax=3/4': "7a17d7efa07e2fe399c10c8a61d27a809530ba4dc23b52389fe715f8dc907998",
    'khat --x 01010110100010100101101': "ee4874a4580370e89a8804fae3006f31c6d308925e0b93a87cbe57b8797a4ea5",
    'coarse-ec --x 01010110100010100101101 --delta 1/4 --format json': "bd0409fbfde32c51dfbc3d881a627c90c08eb35dafb8a6da7f2a8c38fabecdcd",
    'ec --x 01010110100010100101101 --delta 1 --Delta 4 --mode exact': "eb0294a43f27f577d2f3513349fe807a7ac526658713fae519edca4c9848d9b3",
    'khat --x 00000000000001111111111': "eda95233a6196c04223d622221b2fd5abc4c90e6b821f19c74570839926bc4f8",
    'coarse-ec --x 00000000000001111111111 --delta 1': "bbb49e3fa15112d9982ece9b71abbb2ca7f11f88eeb4feb560b24267725bc261",
    'ec --x 00000000000001111111111 --delta 0 --Delta 16 --mode exact': "9c634e47d0df1442dffc0874183383e03e344fe6904fc78b99ba647981b2ee4e",
    'khat --x 000000010000000000000000': "4c84e1f159c51cf733be619c1f5faa77319add6b0b2b9742cd0fc19a63d8fb9d",
    'coarse-ec --x 000000010000000000000000 --delta 0': "f149acc4bb939d5764619c31000eec220e8451504d45797a7fd1d53287633532",
    'ec --x 000000010000000000000000 --delta 1/4 --Delta 0 --mode exact': "698122aee44565cb036e6260135c1358d461593b3698f85147c8bc426858af3b",
    'ec --x 000000010000000000000000 --delta 0 --eps 1/8': "d0cf959d008a5ec8d709e1507bd42575fb5872312fbe05c327019f18457e85e1",
    'ec --x 000000010000000000000000 --delta 0 --Delta 4 --constraint mmax=2;rmin=1/4;rmax=3/4': "f5a09654ae7af91643be287cde5d9eab0d4fe8c9de40aed02c247534a92a5e17",
    'khat --x 000000111000000001111000 --format json': "37681271727364bb010d907723322917e969d6f5ddf85380b1c7537564c3b996",
    'coarse-ec --x 000000111000000001111000 --delta 1/4': "3d7371d9eec4ac80c1d3990a371e0c6cd10ac01d67beab96f9e1b4ea1a22adad",
    'ec --x 000000111000000001111000 --delta 1 --Delta 1 --mode exact': "5eed500d443f979110c0e9e88d90a9696769db7a854afd669e4c2bfd98c6d3f5",
    'ec --x 000000111000000001111000 --delta 1/4 --Delta 4 --constraint tags=markov-q;mmax=3': "4517f29db2ab619e6abca1a8ff4ddecb26294dd402bb2e911bcf1a6b4d6e54a5",
    'khat --x 101101011000110010110011': "6d24b2820b634b548ef41ea3273c5cf7ab412c2fdb368e52df9ab154d2328453",
    'coarse-ec --x 101101011000110010110011 --delta 1': "e75fdb9bd6aef97bf9e73d7fa2cb8fb556549ac9366f337dac402aad1db751d7",
    'ec --x 101101011000110010110011 --delta 0 --Delta 4 --mode exact': "00835ca4521823bc7674e00edf1a2a61f3dcc6f007edf8a246dee7199fc54db6",
    'khat --x 000000000000111111111111': "1140857fb456ee2cbd2be290af1aac754dec20a16ac3175494010ca842a04488",
    'coarse-ec --x 000000000000111111111111 --delta 0': "3b081e2129636b9735bc8f2a11650598424cc3ca3cf659689200dcf682126f81",
    'ec --x 000000000000111111111111 --delta 1/4 --Delta 16 --mode exact': "a1a19e1b5582e520e38b4967cb3e25738f0fd075131a72d5cc973c52942f8e09",
}


@pytest.mark.parametrize("argv", _golden_argv(), ids=" ".join)
def test_golden_cli_stdout(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[" ".join(argv)]


_UPPER_MODELS = ("markov:flip=1/10", "bernoulli:p=3/10")
_UPPER_LENGTHS = (1 << 12, 1 << 15)
_UPPER_SEED = 2024


def _upper_argv() -> list[tuple[str, list[str]]]:
    out = []
    for model in _UPPER_MODELS:
        for n in _UPPER_LENGTHS:
            spec = processes.parse_model_spec(model)
            ((x, _),) = processes.sample_paths(spec, n, _UPPER_SEED, 1)
            key = f"{model} n={n}"
            out.append((f"{key} ec", ["ec", "--x", x, "--delta", "0", "--eps", "1/10"]))
            out.append((f"{key} coarse-ec", ["coarse-ec", "--x", x, "--delta", "0"]))
            out.append((f"{key} khat", ["khat", "--x", x]))
    return out


_UPPER_DIGESTS = {
    'markov:flip=1/10 n=4096 ec': "760d48b3b375c9c29e9232c208b0ca90caca77a3acad5f0f3cd3d3562f8eb747",
    'markov:flip=1/10 n=4096 coarse-ec': "d18507098a238222847ec4c2e89efe892e12084c0fc80e904a95022eecde2ed9",
    'markov:flip=1/10 n=4096 khat': "67e921afc5860b116f5538fd9cb150d71ab4582f6e98d6a06695658919e4c93d",
    'markov:flip=1/10 n=32768 ec': "eddafaf1e3844e7be016838cc96c90aefc47c6230e3dd04bda2b0c3f2bfa209b",
    'markov:flip=1/10 n=32768 coarse-ec': "a47a6fc6652f6c01ec8442899144659321a5104bfbfff5fac1742393d845c699",
    'markov:flip=1/10 n=32768 khat': "ddf271fab24f7e493dd5f21bc86273da1c1bc933877a8ec3e0d15df25cebee28",
    'bernoulli:p=3/10 n=4096 ec': "f8162a3eff71c743d934d210821a4209bc8e80d32cc300aa104c829230364092",
    'bernoulli:p=3/10 n=4096 coarse-ec': "d5c8a386727217ea2bedd8d54befc67abc7cb2492dce9f46843227778e28b485",
    'bernoulli:p=3/10 n=4096 khat': "e1a1a95ec492fcc0a0a3142315e5b9cdbe3ee3cbad37eb3a5ad12a305da61492",
    'bernoulli:p=3/10 n=32768 ec': "dbcd392ef06476c28e04fc7859168cb047144e983c1f00916f754cc00071e7c2",
    'bernoulli:p=3/10 n=32768 coarse-ec': "30e7f9ee0066674658cc4756e1e87979c1ed731e59ab6863a019524f0d577586",
    'bernoulli:p=3/10 n=32768 khat': "ac0fed27cded0b9d864e1db2559e644a5e800dd3fc7773dd670671cd921e77b6",
}


@pytest.mark.parametrize("key,argv", _upper_argv(), ids=[k for k, _ in _upper_argv()])
def test_golden_upper_cli_stdout(key, argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _UPPER_DIGESTS[key]


def test_golden_upper_argv_take_the_power_of_two_recheck(monkeypatch, capsys):
    # the pins above cover the exact fallback of _floor_log2_guarded, in the
    # case that dominates symmetric paths: every base a power of two
    guarded, product = complexity._floor_log2_guarded, complexity._floor_log2_product
    inside, rechecks = [], []

    def spy_guarded(lg, factors):
        inside.append(True)
        try:
            return guarded(lg, factors)
        finally:
            inside.pop()

    def spy_product(factors):
        if inside:
            rechecks.append(tuple(factors))
        return product(factors)

    monkeypatch.setattr(complexity, "_floor_log2_guarded", spy_guarded)
    monkeypatch.setattr(complexity, "_floor_log2_product", spy_product)
    for _key, argv in _upper_argv():
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert any(
        all(b & (b - 1) == 0 for b, _e in f) and any(b > 1 and e > 0 for b, e in f)
        for f in rechecks
    )


def _whole_slice_khat_champion(stats, cfg, best_cut):
    """khat's Markov champion as a direct scan: lg over each whole m-slice,
    the exact bit length of every numerator in the top unit interval of lg
    (widened as the code widens it), and ties ranked by the documented rule
    (H + desc, a0, a1, ai)."""
    C = complexity
    n = stats.n
    grid = flat_markov_grid.flat_grid(cfg.m_max)
    base = 3 + nat_code_len(n)
    best = None
    for m in range(1, cfg.m_max + 1):
        cut = best_cut if best is None else min(best_cut, best.objective)
        desc = base + nat_code_len(m) + 3 * m
        sl = grid.m_slices[m]
        lg = m * n - flat_markov_grid.neglogp(stats, grid, sl)
        lgmax = float(lg.max())
        if desc + m * n - math.floor(lgmax) - 2 > cut:
            continue
        best_bl, tied, top = -1, [], 1 << m
        band = math.floor(lgmax) - 1 - C._FLOAT_GUARD
        for j in (sl.start + np.flatnonzero(lg >= band)).tolist():
            a0, a1, ai = int(grid.a0[j]), int(grid.a1[j]), int(grid.ai[j])
            num = (
                (ai if stats.first else top - ai)
                * a0**stats.n01 * (top - a0) ** stats.n00
                * a1**stats.n10 * (top - a1) ** stats.n11
            )
            if num.bit_length() > best_bl:
                best_bl, tied = num.bit_length(), [j]
            elif num.bit_length() == best_bl:
                tied.append(j)
        es = [flat_markov_grid.ensemble(grid, n, j) for j in tied]
        e = min(es, key=lambda e: (ensembles.entropy(e) + desc, e.a0, e.a1, e.ai))
        cand = C._Candidate(desc + m * n - best_bl + 1, desc, ensembles.entropy(e) + desc, e)
        best = C._pick_canonical((best, cand))
    return best


def test_upper_khat_markov_champion_matches_whole_slice_reference(monkeypatch):
    """khat's Markov champion evaluates -log2 p(x) only in the blocks that
    can reach the band and reads each numerator's bit length from its
    guarded float log2, so no exact product is taken outside the guard's
    rechecks. Same value and witness as the whole-slice, exact-product
    reference on the paths of the upper argv above and on seeded paths of
    both models at n = 2^12, 2^15 and 2^18."""
    paths = []
    for model in _UPPER_MODELS:
        spec = processes.parse_model_spec(model)
        for n in (1 << 12, 1 << 15, 1 << 18):
            for seed in (_UPPER_SEED, 7):
                ((x, _),) = processes.sample_paths(spec, n, seed, 1)
                paths.append(x)
    guarded, product = complexity._floor_log2_guarded, complexity._floor_log2_product
    inside, bare = [], []

    def spy_guarded(lg, factors):
        inside.append(True)
        try:
            return guarded(lg, factors)
        finally:
            inside.pop()

    def spy_product(factors):
        if not inside:
            bare.append(tuple(factors))
        return product(factors)

    with monkeypatch.context() as mp:
        mp.setattr(complexity, "_floor_log2_guarded", spy_guarded)
        mp.setattr(complexity, "_floor_log2_product", spy_product)
        got = [complexity.khat(x) for x in paths]
    assert bare == []
    with monkeypatch.context() as mp:
        # every Markov order khat asks for gets the reference's least champion
        mp.setattr(
            complexity,
            "_khat_markov_champion",
            lambda st, _m: _whole_slice_khat_champion(st, complexity.DEFAULT_CONFIG, math.inf),
        )
        want = [complexity.khat(x) for x in paths]
    assert got == want


def _upper_query_argv() -> list[tuple[str, list[str]]]:
    out = []
    for model in _UPPER_MODELS:
        spec = processes.parse_model_spec(model)
        for n in _UPPER_LENGTHS:
            ((x, _),) = processes.sample_paths(spec, n, _UPPER_SEED, 1)
            key = f"{model} n={n}"
            for d in ("1/4", "1"):
                out.append((f"{key} ec delta={d}", ["ec", "--x", x, "--delta", d, "--eps", "1/10"]))
                out.append((f"{key} coarse-ec delta={d}", ["coarse-ec", "--x", x, "--delta", d]))
            if n == 1 << 12:
                for d in ("0", "1/4", "1"):
                    out.append((f"{key} ec delta={d} Delta=0",
                                ["ec", "--x", x, "--delta", d, "--Delta", "0"]))
                for d in ("0", "1"):
                    out.append((f"{key} coarse-ec delta={d} mmax=3",
                                ["coarse-ec", "--x", x, "--delta", d, "--constraint", "mmax=3"]))
        ((x, _),) = processes.sample_paths(spec, 1 << 18, _UPPER_SEED, 1)
        out.append((f"{model} n=262144 coarse-ec", ["coarse-ec", "--x", x, "--delta", "0"]))
    return out


_UPPER_QUERY_DIGESTS = {
    'markov:flip=1/10 n=4096 ec delta=1/4': "649bee9197399bba485ee71f948df41c6f244d9de458bb95d10a8af442bdb989",
    'markov:flip=1/10 n=4096 coarse-ec delta=1/4': "dce7bc7ab60ee1eb7978b8fd0a896d24473c5226d2ce34189b0ae4df443e00e6",
    'markov:flip=1/10 n=4096 ec delta=1': "c84d54c673b86e304d052a94036a346599b5e991e4cbc8a7ef5cbab7cc51d504",
    'markov:flip=1/10 n=4096 coarse-ec delta=1': "0b7098770590fb293702d71d887e8bbf5c8d0f1dd8ea4d0dbc05d1f1004c1383",
    'markov:flip=1/10 n=4096 ec delta=0 Delta=0': "cc069dd822f852ffd2505f664672b3c3ac2a708f16d63440056aa54f9e7654ea",
    'markov:flip=1/10 n=4096 ec delta=1/4 Delta=0': "1b7ef3b2d7f93fac09a2eaa0b9060c5751dcfe79f2fc6aa582cee9115abb6ea1",
    'markov:flip=1/10 n=4096 ec delta=1 Delta=0': "709503d4d45d0a575e3790fa112784cfd9582b0806d011c78ea193d820667b2e",
    'markov:flip=1/10 n=4096 coarse-ec delta=0 mmax=3': "655d94cc41b9010f4f6e540391cabe3b81c44ac14a8121acefcf96d95c91df3a",
    'markov:flip=1/10 n=4096 coarse-ec delta=1 mmax=3': "892a6cd3f9b55eedd1955754161c157c9f0aee3758a7cf1f87ff519354db939a",
    'markov:flip=1/10 n=32768 ec delta=1/4': "dd549d2ec1eba4b0cc72bbad5df9aae0754550bb8c8d01c77955f3d194d9b100",
    'markov:flip=1/10 n=32768 coarse-ec delta=1/4': "417939e710b0b222ff49ecec274556f02f546bc6ac282856c71da9332a3ae5f5",
    'markov:flip=1/10 n=32768 ec delta=1': "30256fe5ea1352e2a8793f5cc3a3ce8f8e40fd3f3208dc08b0feda7247d36f94",
    'markov:flip=1/10 n=32768 coarse-ec delta=1': "af34aaf0a1f7ddcc0cb0a9784e86b1ad34d0e954c3e698ffdbdd303e1bafd4a2",
    'markov:flip=1/10 n=262144 coarse-ec': "81095869e66d7ee09d79a3963680cfa9b7258fc9d8302783305769f8d41d1c68",
    'bernoulli:p=3/10 n=4096 ec delta=1/4': "53c20bd436eeb99d640a2bac31a0c4ccbba40fd6a35d1d91826ec7d9f3eb28b1",
    'bernoulli:p=3/10 n=4096 coarse-ec delta=1/4': "a963014e64b217c79956190691f83c6330d73813a201e955bb66ae8f1cd06370",
    'bernoulli:p=3/10 n=4096 ec delta=1': "a61a80210804d2632d634d689e47419f03aa6c95f706df810542891f999441fc",
    'bernoulli:p=3/10 n=4096 coarse-ec delta=1': "72454d8d8e6c7581720b33674285b6fcb3a0ced93cdaea29b1c4959ba8ef6172",
    'bernoulli:p=3/10 n=4096 ec delta=0 Delta=0': "f845db528a285fec7b320187c48a0b35a84d09e66132f7b12ad8bba458401fe7",
    'bernoulli:p=3/10 n=4096 ec delta=1/4 Delta=0': "7bd920d4b3d08865b6c31747602576dcaae0ebc966736ae97da879859f3f0212",
    'bernoulli:p=3/10 n=4096 ec delta=1 Delta=0': "ce74c1cb401179b7d4779e4919a8d6ed31725fd9de1868ec73887cb4feebb471",
    'bernoulli:p=3/10 n=4096 coarse-ec delta=0 mmax=3': "6fd161026aa7b60c74bcbe9e22433b9dd0e41a6f147d03f8d783e0df6e47065e",
    'bernoulli:p=3/10 n=4096 coarse-ec delta=1 mmax=3': "c6d034627f5f8cdbc6bc36ce105f0a94400d8df9ad75cc3c1287428d9f0c8d2f",
    'bernoulli:p=3/10 n=32768 ec delta=1/4': "661bbc761ad3cc71e0dac6fc2d9fdfeffbe86430c20c8d85134debddd5785f24",
    'bernoulli:p=3/10 n=32768 coarse-ec delta=1/4': "24b7b36b7707cbcf212666d59eaf203b171958d83bf016444eb167b5f9406723",
    'bernoulli:p=3/10 n=32768 ec delta=1': "28c2476014d927ee7156c52a5902e2a6cc5e400e161b7f66ca5a14e81410d8e2",
    'bernoulli:p=3/10 n=32768 coarse-ec delta=1': "2c287a7f1a34b75f1a91f8693fb5db4ea2ebfe0f0800d864bc76569ac3e55686",
    'bernoulli:p=3/10 n=262144 coarse-ec': "b739c412d577bc7d4c3a43f71599ee802acbdd5b88eacd1dc951d3b1dcfb8aa4",
}


@pytest.mark.parametrize("key,argv", _upper_query_argv(), ids=[k for k, _ in _upper_query_argv()])
def test_golden_upper_query_cli_stdout(key, argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _UPPER_QUERY_DIGESTS[key]


_SEARCH_CONSTRAINTS = ("mmax=1", "tags=markov-q;mmax=2", "tags=markov-q;mmax=4",
                       "tags=uniform-typ;rmin=1/2")


def _search_argv() -> list[tuple[str, list[str]]]:
    out = [
        ("scan n=10 delta=0", ["scan-max-coarse", "--n", "10", "--delta", "0"]),
        ("scan n=12 delta=1/4", ["scan-max-coarse", "--n", "12", "--delta", "1/4"]),
    ]
    for model in _UPPER_MODELS:
        out.append((f"sweep {model}", ["sweep-theorem1", "--model", model, "--eps", "1/10",
                                       "--n-list", "64,4096", "--samples", "4", "--seed", "1"]))
    for model in _UPPER_MODELS:
        spec = processes.parse_model_spec(model)
        ((x, _),) = processes.sample_paths(spec, 1 << 12, _UPPER_SEED, 1)
        for c in _SEARCH_CONSTRAINTS:
            key = f"{model} n=4096"
            out.append((f"{key} ec {c}",
                        ["ec", "--x", x, "--delta", "0", "--eps", "1/10", "--constraint", c]))
            out.append((f"{key} coarse-ec {c}",
                        ["coarse-ec", "--x", x, "--delta", "0", "--constraint", c]))
    return out


_SEARCH_DIGESTS = {
    'scan n=10 delta=0': "f8fcc436d3a94370b34d8c65214091fe6296e7f099e60d77b15557d7b486d141",
    'scan n=12 delta=1/4': "3d1ef9644e0e4acf5607ce332b59c9bea2ce11c14997555ebe60d303e488baaf",
    'sweep markov:flip=1/10': "2d4e5f8344291d657eb5575769d71417f41f6c553b18b4a41b5da4d1415d2c4a",
    'sweep bernoulli:p=3/10': "706a17e9bf0dcc5c8db07a2bf8df0f2383f236ffdfe8c4737160623ecf364961",
    'markov:flip=1/10 n=4096 ec mmax=1': "dfb37a5aa96ac0b30411732f1934511aff861cf72bfbf7c1ef71d5670adaf437",
    'markov:flip=1/10 n=4096 coarse-ec mmax=1': "0d4532bdf76afcde9234ca75fe4c71bdfcb6be81bf49527caf31d51737467a31",
    'markov:flip=1/10 n=4096 ec tags=markov-q;mmax=2': "dfb37a5aa96ac0b30411732f1934511aff861cf72bfbf7c1ef71d5670adaf437",
    'markov:flip=1/10 n=4096 coarse-ec tags=markov-q;mmax=2': "9e68e60eab5eb3d9cb31651d09b7ff5ebe4a1fae8e8d90b2b7ccfe81cfcd354f",
    'markov:flip=1/10 n=4096 ec tags=markov-q;mmax=4': "760d48b3b375c9c29e9232c208b0ca90caca77a3acad5f0f3cd3d3562f8eb747",
    'markov:flip=1/10 n=4096 coarse-ec tags=markov-q;mmax=4': "655d94cc41b9010f4f6e540391cabe3b81c44ac14a8121acefcf96d95c91df3a",
    'markov:flip=1/10 n=4096 ec tags=uniform-typ;rmin=1/2': "dfb37a5aa96ac0b30411732f1934511aff861cf72bfbf7c1ef71d5670adaf437",
    'markov:flip=1/10 n=4096 coarse-ec tags=uniform-typ;rmin=1/2': "0d4532bdf76afcde9234ca75fe4c71bdfcb6be81bf49527caf31d51737467a31",
    'bernoulli:p=3/10 n=4096 ec mmax=1': "ca9777eb833aa907c79db267cf2ccf493b6352e35ea4d865dc7424ed32731a1b",
    'bernoulli:p=3/10 n=4096 coarse-ec mmax=1': "bf77d7177d29108badfb368fbc38c83ad85ed64f40a40350fb4df307bebc0097",
    'bernoulli:p=3/10 n=4096 ec tags=markov-q;mmax=2': "ca9777eb833aa907c79db267cf2ccf493b6352e35ea4d865dc7424ed32731a1b",
    'bernoulli:p=3/10 n=4096 coarse-ec tags=markov-q;mmax=2': "91c252cf26ef9e1414d6ba93d5f00dc19c61630f3f68c9c343afcac0ea0be647",
    'bernoulli:p=3/10 n=4096 ec tags=markov-q;mmax=4': "e6336aab57932f2c7f43246f2ab04e9d941c6282674cd83ce8d7ab161c4844e8",
    'bernoulli:p=3/10 n=4096 coarse-ec tags=markov-q;mmax=4': "59af7b09a01fd3f18ffcd9fcba33cd7895446d2577fe887459e821e57d477bc3",
    'bernoulli:p=3/10 n=4096 ec tags=uniform-typ;rmin=1/2': "ca9777eb833aa907c79db267cf2ccf493b6352e35ea4d865dc7424ed32731a1b",
    'bernoulli:p=3/10 n=4096 coarse-ec tags=uniform-typ;rmin=1/2': "2a950bba7724321a0374efc6676cb72175d171f0d1dd01a41150d05a4d4d9bad",
}


@pytest.mark.parametrize("key,argv", _search_argv(), ids=[k for k, _ in _search_argv()])
def test_golden_search_cli_stdout(key, argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _SEARCH_DIGESTS[key]


_SELFTEST_FAST = """\
suite codec-roundtrip: ok (16397 cases)
suite codec-prefix-free: ok (1024 cases)
suite codec-kraft: ok (16384 cases)
suite lz-roundtrip: ok (2062 cases)
suite lz-kraft: ok (12 cases)
suite typical-size-bound: ok (192 cases)
suite typical-monotone: ok (160 cases)
suite ensemble-serialization: ok (42 cases)
suite monotone-thm4: ok (6350 cases)
suite oracle-equivalence: ok (1178 cases)
suite determinism: ok (1 cases)
"""


def test_golden_selftest_fast_stdout(capsys):
    assert cli.main(["selftest", "--fast"]) == 0
    assert capsys.readouterr().out == _SELFTEST_FAST
