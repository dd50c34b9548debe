import functools
import math
import os
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as hst

import flat_markov_grid
from eclab import complexity as C, ensembles as E, lz78, processes, typical_sets
from eclab.codec import nat_code_len, rational_code_len
from eclab.complexity import ComplexityQuery, Constraint, FamilyConfig
from eclab.errors import ResourceLimitError
from eclab.selftest import _naive_min

SMALL_CFG = FamilyConfig(m_max=3)


def all_strings(n):
    return (format(v, f"0{n}b") for v in range(1 << n))


def test_khat_examples():
    value, witness = C.khat("0")
    assert value == 5
    # two candidates tie at 5; the uniform one has the shorter description
    assert witness == E.UniformAll(1)
    st = C.string_stats("0" * 4096)
    assert C.khat_value(st) <= 1024


def test_khat_trivial_upper_bound():
    from eclab.codec import nat_code_len

    for n in (1, 3, 6):
        for x in all_strings(n):
            st = C.string_stats(x)
            assert C.khat_value(st) <= 3 + nat_code_len(n) + n


def _ref_iid_champion(x: str, m: int) -> tuple:
    """Order m's i.i.d. candidates scored one by one: the least by (two-part
    value, desc, total information, serialization)."""
    es = [E.IIDQuantized(len(x), m, a) for a in range(1, 1 << m)]
    key, e = _naive_min(
        [((E.desc_len(e) + E.ceil_neg_log2_prob(e, x), E.desc_len(e), E.total_info(e)), e) for e in es]
    )
    return (*key, e)


def test_khat_value_agrees_with_witness_path():
    cases = [(x, SMALL_CFG, "exact") for n in (1, 2, 4, 6, 8) for x in all_strings(n)]
    # seeded paths at n = 65 to 2^12, in upper mode
    for spec in ("markov:flip=1/10", "bernoulli:p=3/10", "bernoulli:p=1/10"):
        model = processes.parse_model_spec(spec)
        for n in (65, 128, 1 << 12):
            for seed in (1, 2):
                ((x, _),) = processes.sample_paths(model, n, seed, 1)
                cases.append((x, C.DEFAULT_CONFIG, "auto"))
    tags = set()
    for x, cfg, mode in cases:
        value, witness = C.khat(x, cfg, mode)
        st = C.string_stats(x)
        assert value == C.khat_value(st, cfg, mode)
        tags.add(E.TAG_NAMES[type(witness)])
        # every order's i.i.d. champion, reaching khat or not: an order that
        # reaches it never holds a tie, since the even one of two tied
        # parameters is a parameter of the order below with a shorter desc
        for m in range(1, cfg.m_max + 1):
            c = C._khat_iid_champion(st, m)
            assert (c.objective, c.desc, c.sigma, c.ensemble) == _ref_iid_champion(x, m)
        if isinstance(witness, E.UniformTypical) and len(x) > cfg.n_max:
            continue  # khat's term there is the surrogate ceil(r n)
        # the witness really achieves the reported value
        achieved = E.desc_len(witness) + E.ceil_neg_log2_prob(witness, x)
        assert achieved == value, (x, witness)
    assert {"iid", "markov-q"} <= tags


def test_khat_with_stats_does_not_revalidate_x(monkeypatch):
    """Fixed-row ensembles are built only when they reach khat, so a long x is
    not checked again by the singleton constructors, and khat after
    string_stats(x) reads the kept stats instead of checking x again."""
    ((x, _),) = processes.sample_paths(processes.parse_model_spec("markov:flip=1/10"), 1 << 12, 1, 1)
    C.string_stats(x)
    checked = []
    check_bits = E.check_bits
    spy = lambda s, what: (checked.append(len(s)), check_bits(s, what))[1]
    monkeypatch.setattr(E, "check_bits", spy)
    monkeypatch.setattr(C, "check_bits", spy)
    C.khat(x)
    assert checked == []


def test_coarse_ec_builds_no_losing_singleton(monkeypatch):
    """A fixed row's ensemble is built only when its run is read, and the
    singletons are read last, so on long paths neither is built (building
    one checks x again)."""
    xs = [
        x
        for spec in ("markov:flip=1/10", "bernoulli:p=3/10")
        for n in (1 << 12, 1 << 15)
        for x, _ in processes.sample_paths(processes.parse_model_spec(spec), n, 1, 1)
    ]
    checked = []
    check_bits = E.check_bits
    monkeypatch.setattr(
        E, "check_bits", lambda s, what: (checked.append(len(s)), check_bits(s, what))[1]
    )
    for x in xs:
        C.coarse_ec(x, 0, "auto")
    assert checked == []


def _closed_rows(n: int, m: int) -> np.ndarray:
    """Every order-m closed-form entropy, as the (a0, a1) blocks' rows of k
    entries, read through the row helper."""
    k = (1 << m) - 1
    return C._closed_H(n, m, C._closed_tables(n, m), np.arange(k * k)[:, None], np.arange(k))


def test_markov_entropy_tables_match_scalar():
    """Slice-local indices name the flat grid's entries, and the closed-form
    entropies lie within 1e-9 n of the defining recursion's."""
    grid = flat_markov_grid.flat_grid(3)
    for n in (1, 2, 5, 9):
        for m, sl in grid.m_slices.items():
            closed = _closed_rows(n, m).ravel()
            for j in range(sl.stop - sl.start):
                e = flat_markov_grid.ensemble(grid, n, sl.start + j)
                assert C._markov_ensemble(n, m, j) == e
                assert abs(closed[j] - E.entropy(e)) < 1e-9 * max(1, n), (n, m, j)


def test_markov_hmin_bounds_every_entropy():
    """Each Markov group's hmin, n h(2^-m) less the closed form's margin, is
    at most every entropy of its order and within twice the margin of the
    least: the defining recursion's over the flat grid up to n = 64, the
    closed form's slice minimum beyond."""
    grid = flat_markov_grid.flat_grid(6)
    for n in (1, 2, 9, 24, 64, 1 << 12, 1 << 15, 1 << 18):
        groups = C._markov_groups(C.string_stats("0" * n), 0.0, None, C.DEFAULT_CONFIG)
        H_all = grid.entropies(n) if n <= 64 else None
        for m, (_desc, hmin, _floor, _read) in zip(range(1, 7), groups):
            H = H_all[grid.m_slices[m]] if n <= 64 else C._closed_tables(n, m)[2]
            least = float(H.min())
            assert hmin <= least <= hmin + 2 * C._closed_margin(n), (n, m, hmin, least)


def test_markov_floor_bounds_every_confirmed_entropy():
    """Each Markov group's tighter floor, which a pick reads once the group
    passes its hmin, is never below hmin and at most every entropy its search
    confirms among the first 32 entries it tries (the least closed-form
    entropies, which a run reads first): over the distinct stats of all
    strings with n <= 10 and seeded paths of four models at n = 2^10 - 2^15,
    for delta in {0, 1/4, 1}."""
    cfg = C.DEFAULT_CONFIG
    xs = [x for n in range(1, 11) for x in all_strings(n)]
    for spec in ("markov:flip=1/10", "markov:flip=1/3", "bernoulli:p=3/10", "bernoulli:p=1/2"):
        model = processes.parse_model_spec(spec)
        for n in (1 << 10, 1 << 12, 1 << 15):
            xs += [x for x, _ in processes.sample_paths(model, n, 3, 1)]
    seen, tighter = set(), 0
    for x in xs:
        st = C.string_stats(x)
        if st in seen:
            continue
        seen.add(st)
        for delta_f in (0.0, 0.25, 1.0):
            groups = C._markov_groups(st, delta_f, None, cfg)
            for m, (_desc, hmin, floor_of, _read) in zip(range(1, 7), groups):
                floor = floor_of()
                assert floor >= hmin, (x, delta_f, m)
                for _hc, _j, H in C._markov_confirmed(st, m, delta_f, 32):
                    assert H >= floor, (x, delta_f, m, H, floor)
                tighter += floor > hmin
    assert tighter > 0


_GRID_ARRAYS = (
    "m", "a0", "a1", "ai", "descbase", "c01", "c00", "c10", "c11",
    "li1", "li0", "h0", "h1", "hinit", "q0", "q1", "pinit",
)


def _scalar_rows(m_max: int) -> tuple:
    """-log2 q, -log2 (1 - q) and h(q) per (m, a), q = a / 2^m, by scalar math calls."""
    log1, log0, hof = {}, {}, {}
    for m in range(1, m_max + 1):
        for a in range(1, 1 << m):
            log1[(m, a)] = m - math.log2(a)
            log0[(m, a)] = m - math.log2((1 << m) - a)
            hof[(m, a)] = processes.binary_entropy(a / (1 << m))
    return log1, log0, hof


def _scalar_grid_reference(grid) -> dict:
    """The flat grid's per-entry arrays built entry by entry with scalar math calls."""
    log1, log0, hof = _scalar_rows(max(grid.m_slices))
    ms = grid.m.tolist()
    pairs0 = list(zip(ms, grid.a0.tolist()))
    pairs1 = list(zip(ms, grid.a1.tolist()))
    pairsi = list(zip(ms, grid.ai.tolist()))
    ref = {"m": grid.m, "a0": grid.a0, "a1": grid.a1, "ai": grid.ai}
    ref["descbase"] = np.array([nat_code_len(m) + 3 * m for m in ms], dtype=np.int64)
    for name, table, pairs in [
        ("c01", log1, pairs0), ("c00", log0, pairs0), ("c10", log1, pairs1),
        ("c11", log0, pairs1), ("li1", log1, pairsi), ("li0", log0, pairsi),
        ("h0", hof, pairs0), ("h1", hof, pairs1), ("hinit", hof, pairsi),
    ]:
        ref[name] = np.array([table[p] for p in pairs])
    for name, pairs in [("q0", pairs0), ("q1", pairs1), ("pinit", pairsi)]:
        ref[name] = np.array([a / (1 << m) for m, a in pairs])
    return ref


def test_markov_grid_matches_scalar_build():
    """The test-side flat grid, the reference of the per-order tables below."""
    grid = flat_markov_grid.flat_grid(6)
    assert grid.size == sum(((1 << m) - 1) ** 3 for m in range(1, 7))
    k = np.arange(1, 64)
    m6 = grid.m_slices[6]
    assert np.array_equal(grid.a0[m6], np.repeat(k, 63 * 63))
    assert np.array_equal(grid.ai[m6], np.tile(k, 63 * 63))
    ref = _scalar_grid_reference(grid)
    for name in _GRID_ARRAYS:
        arr = getattr(grid, name)
        assert arr.dtype == ref[name].dtype and arr.tobytes() == ref[name].tobytes(), name


def test_order_rows_match_scalar_build():
    log1, log0, hof = _scalar_rows(6)
    for m in range(1, 7):
        rows = C._order_rows(m)
        assert C._order_rows(m) is rows
        a = range(1, 1 << m)
        for got, want in zip(rows, (
            [log1[(m, v)] for v in a], [log0[(m, v)] for v in a], [hof[(m, v)] for v in a],
            [v / (1 << m) for v in a],
        )):
            want = np.array(want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), m


def test_per_order_tables_match_flat_reference():
    """Every per-order quantity, bit for bit the flat grid's, for m = 1-6:
    closed-form entropies with their (a0, a1) block minima and maxima,
    -log2 p(x) from _neg_log2_p at the (a0, a1, ai) of each slice-local
    index, and each block's least -log2 p(x) from _block_bounds."""
    grid = flat_markov_grid.flat_grid(6)
    for n in (25, 100, 1000, 1 << 12, 1 << 15, 1 << 18):
        H_all, lo_all, hi_all = grid.closed_tables(n)
        for m, sl in grid.m_slices.items():
            k = (1 << m) - 1
            lo, hi = C._closed_tables(n, m)[2:4]
            H = _closed_rows(n, m)
            assert H.shape == (k * k, k)
            assert H.tobytes() == H_all[sl].tobytes(), (n, m)
            bsl = grid.block_slices[m]
            assert lo.tobytes() == lo_all[bsl].tobytes() and hi.tobytes() == hi_all[bsl].tobytes()
    # seeded strings
    rng = np.random.default_rng(14)
    xs = ["".join(map(str, rng.integers(0, 2, n))) for n in (1, 2, 9, 24, 24, 64, 100, 4096)]
    xs += ["0" * 20, "1" * 20, "01" * 10, "0011" * 5]
    for x in xs:
        st = C.string_stats(x)
        for m, sl in grid.m_slices.items():
            want = flat_markov_grid.neglogp(st, grid, sl)
            k = (1 << m) - 1
            a0a1, ai = np.divmod(np.arange(k**3), k)
            a0, a1 = np.divmod(a0a1, k)
            got = C._neg_log2_p(st, m, a0, a1, C._first_terms(st, m)[ai])
            assert got.tobytes() == want.tobytes(), (x, m)
            bounds = C._block_bounds(st, m)
            assert bounds.tobytes() == want.reshape(k * k, k).min(axis=1).tobytes(), (x, m)


_FIRST_CALL_PEAK = """
import sys, tracemalloc
from eclab import complexity as C, processes as P
if sys.argv[1] == "upper":
    x = P.sample(P.parse_model_spec("markov:flip=1/10"), 1 << 12, 1)
else:
    x = "0010000111011000"
tracemalloc.start()
C.coarse_ec(x, 0, sys.argv[1])
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("mode", ["upper", "exact"])
def test_first_call_builds_no_whole_grid(mode):
    """In a fresh interpreter, the first coarse_ec call (upper mode on a 2^12
    Markov path, exact mode on a 16-bit string) allocates under 2 MB at its
    peak: only the per-block tables of the orders it reads, never a k^3 table
    of one order (2.1 MB at m = 6) or all orders at once."""
    src = os.path.dirname(os.path.dirname(C.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_CALL_PEAK, mode],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert int(out) < 2_000_000, int(out)


def test_smaller_m_max_shares_the_iid_tables(monkeypatch):
    """The i.i.d. tables are keyed (n, m) as well: FamilyConfig(m_max=2)
    builds rows of orders 1 and 2 only, and the default family reads the
    same objects."""
    built = []
    original = C._iid_table
    monkeypatch.setattr(C, "_iid_table", lambda n, m: built.append((n, m)) or original(n, m))
    original.cache_clear()
    x = "0010000111011000"
    C.coarse_ec(x, 0, "exact", FamilyConfig(m_max=2))
    assert built and set(built) <= {(16, 1), (16, 2)}
    kept = {key: original(*key) for key in set(built)}
    assert original.cache_info().currsize == len(kept)
    built.clear()
    C.coarse_ec(x, 0, "exact")
    C.khat(x, mode="exact")
    assert set(built) <= {(16, m) for m in range(1, 7)}
    for key, group in kept.items():
        assert original(*key) is group


def _closed_whole_grid(grid, n):
    """The closed form evaluated entry by entry over the whole flat grid."""
    q0, q1 = grid.q0, grid.q1
    pi1 = q0 / (q0 + q1)
    lam = 1.0 - q0 - q1
    d1 = grid.pinit - pi1
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = np.where(lam == 1.0, float(n - 1), (1.0 - lam ** (n - 1)) / (1.0 - lam))
    sum_p1 = (n - 1) * pi1 + d1 * geo
    return grid.hinit + grid.h0 * ((n - 1) - sum_p1) + grid.h1 * sum_p1


def test_closed_entropies_cached_read_only():
    grid = flat_markov_grid.flat_grid(6)
    for n in (1, 2, 25, 100, 1 << 12, 1 << 15, 1 << 18, 1 << 20):
        whole = _closed_whole_grid(grid, n)
        for m, sl in grid.m_slices.items():
            tables = C._closed_tables(n, m)
            assert C._closed_tables(n, m) is tables
            assert not any(arr.flags.writeable for arr in tables)
            # per-(a0, a1) factors broadcast over ai: the same bytes
            assert _closed_rows(n, m).tobytes() == whole[sl].tobytes(), (n, m)


def test_closed_cache_bounded_with_block_ranges():
    C._closed_tables.cache_clear()
    lengths = [1000 + 7 * i for i in range(12)]
    for n in lengths:
        for m in range(1, 7):
            k = (1 << m) - 1
            tables = C._closed_tables(n, m)
            lo, hi, by_lo = tables[2:]
            assert C._closed_tables(n, m) is tables
            assert not lo.flags.writeable and not hi.flags.writeable
            assert not by_lo.flags.writeable
            H = _closed_rows(n, m)
            assert H.shape == (k * k, k)
            assert np.array_equal(lo, H.min(axis=1))
            assert np.array_equal(hi, H.max(axis=1))
            # the blocks in (least closed-form H, block index) order
            assert np.array_equal(by_lo, np.lexsort((np.arange(k * k), lo)))
    info = C._closed_tables.cache_info()
    assert info.currsize == info.maxsize == C._CLOSED_TABLES == 8 * 6
    # the most recently used (n, m) stay: the last 8 lengths, every order,
    # and a repeat returns the same arrays
    tables = C._closed_tables(lengths[-1], 6)
    assert C._closed_tables(lengths[-1], 6) is tables
    third = C._closed_tables(lengths[-8], 3)
    assert C._closed_tables(lengths[-8], 3) is third
    assert C._closed_tables.cache_info().misses == info.misses
    # (lengths[-8], 3), just read, is now the most recently used and
    # (lengths[-8], 1) the least: a new key evicts (lengths[-8], 1) and keeps
    # (lengths[-8], 3)
    C._closed_tables(lengths[0], 6)  # evicted: built afresh
    kept = C._closed_tables.cache_info()
    assert kept.misses == info.misses + 1 and kept.currsize == 8 * 6
    assert C._closed_tables(lengths[-8], 3) is third
    assert C._closed_tables.cache_info().misses == kept.misses
    C._closed_tables(lengths[-8], 1)
    assert C._closed_tables.cache_info().misses == kept.misses + 1


@functools.cache
def _best_factor_exact_scan(m, e1, e0):
    """max over 0 < a < 2^m of a^e1 * (2^m - a)^e0 by a scan over every a."""
    top = 1 << m
    best = 0
    for a in range(1, top):
        v = a**e1 * (top - a) ** e0
        if v > best:
            best = v
    return best


def _best_factor_log_scan(m, e1, e0):
    """(argmax a, max) of e1*log2(a) + e0*log2(2^m - a) by a scan over every a."""
    top = 1 << m
    best_a = 1
    best_v = e0 * math.log2(top - 1)
    for a in range(2, top):
        v = e1 * math.log2(a) + e0 * math.log2(top - a)
        if v > best_v:
            best_v = v
            best_a = a
    return best_a, best_v


def test_best_factor_argmax_matches_scan():
    # the maximum of the log-concave a^e1 (2^m - a)^e0 is at one of the two
    # integers around 2^m e1 / (e1 + e0): in floats the same argmax and
    # maximum as the scan, and the guarded floor of log2 there is the exact
    # maximum's, as the khat pass takes it
    for m in range(1, 7):
        top = 1 << m
        for e1 in range(70):
            for e0 in range(70):
                a, lg = C._best_factor_log(m, e1, e0)
                assert (a, lg) == _best_factor_log_scan(m, e1, e0)
                bl = C._floor_log2_guarded(lg, ((a, e1), (top - a, e0)))
                assert bl == _best_factor_exact_scan(m, e1, e0).bit_length() - 1
    rng = np.random.default_rng(5)
    for _ in range(5000):
        n = int(rng.integers(1, 1 << 20, endpoint=True))
        e1 = int(rng.integers(0, n, endpoint=True))
        m = int(rng.integers(1, 6, endpoint=True))
        assert C._best_factor_log(m, e1, n - e1) == _best_factor_log_scan(m, e1, n - e1)


def _khat_pass(stats, cfg, mode):
    """khat's value, read through khat_value, and the orders that reach it,
    from the same kept pass."""
    return C.khat_value(stats, cfg, mode), C._khat_scores(stats, cfg)[1]


def _khat_pass_reference(stats, cfg, mode):
    """khat's value and named orders with every order evaluated, each
    numerator's maximum from a scan over every parameter in exact integers."""
    n = stats.n
    C._resolve_mode(mode, n, cfg)
    base = 3 + nat_code_len(n)
    best = base + min(n, stats.lz_len)
    for r in cfg.r_grid:
        lim = -(-(r.numerator * n) // r.denominator)
        if stats.lz_len < lim:
            if n <= cfg.n_max:
                card = typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n), cfg.n_max)
                term = (card - 1).bit_length()
            else:
                term = lim
            best = min(best, base + rational_code_len(r) + term)
    scan = _best_factor_exact_scan
    values = []
    for m in range(1, cfg.m_max + 1):
        head = base + nat_code_len(m) + m * n + 1  # value = desc + m n - bitlen(numerator) + 1
        num = scan(m, stats.ones, n - stats.ones)
        values.append((head + m - num.bit_length(), "iid", m))
        num = ((1 << m) - 1) * scan(m, stats.n01, stats.n00) * scan(m, stats.n10, stats.n11)
        values.append((head + 3 * m - num.bit_length(), "markov-q", m))
    best = min(best, *(v for v, _, _ in values))
    return best, tuple((tag, m) for v, tag, m in values if v == best)


_BENCH_MODELS = (
    "markov:flip=1/10", "bernoulli:p=3/10", "markov:a01=1/5,a10=3/5", "bernoulli:p=1/2"
)
_SPARSE = [
    "0000000001000100000000010",  # upper ec is unsound here: the strict xfail at n = 25
    "0" * 100,
    "1" * 1000,
    "1" + "0" * 4095,
    "0" * 2047 + "1" + "0" * 2048,
    "01" * 500,
    "0001" * 1024,
    "".join("1" if i % 97 == 0 else "0" for i in range(1000)),
    "".join("1" if i in (3, 500, 4000) else "0" for i in range(4096)),
]


def test_pruned_khat_pass_matches_unpruned_scan():
    # every x with n <= 16 in both modes (the pass reads only x's statistics)
    seen = set()
    for n in range(1, 17):
        for x in all_strings(n):
            st = C.string_stats(x)
            if st not in seen:
                seen.add(st)
                ref = _khat_pass_reference(st, C.DEFAULT_CONFIG, "exact")
                for mode in ("exact", "upper"):
                    assert _khat_pass(st, C.DEFAULT_CONFIG, mode) == ref, (x, mode)
    # seeded paths of the bench models and sparse strings, in upper mode
    xs = list(_SPARSE)
    for spec in _BENCH_MODELS:
        model = processes.parse_model_spec(spec)
        for n in (100, 1000, 1 << 12):
            xs.extend(x for x, _ in processes.sample_paths(model, n, 7, 2))
    for x in xs:
        st = C.string_stats(x)
        for cfg in (C.DEFAULT_CONFIG, SMALL_CFG):
            assert _khat_pass(st, cfg, "upper") == _khat_pass_reference(st, cfg, "upper"), st


def test_khat_pass_skips_orders_ruled_out_by_entropy(monkeypatch):
    # on fair-coin paths every order's desc is far below khat, so only the
    # entropy bound skips orders: each evaluated order floors one log2
    model = processes.parse_model_spec("bernoulli:p=1/2")
    for n in (100, 1000, 1 << 12):
        for x, _ in processes.sample_paths(model, n, 3, 2):
            st = C.string_stats(x)
            value, orders = _khat_pass_reference(st, C.DEFAULT_CONFIG, "upper")
            assert E.markov_desc_len(n, C.DEFAULT_CONFIG.m_max) < value
            evaluated = []
            guarded = C._floor_log2_guarded
            with monkeypatch.context() as mp:
                C._khat_scores.cache_clear()  # a kept pass would evaluate nothing
                spy = lambda lg, f: evaluated.append(lg) or guarded(lg, f)
                mp.setattr(C, "_floor_log2_guarded", spy)
                assert _khat_pass(st, C.DEFAULT_CONFIG, "upper") == (value, orders)
            assert len(orders) <= len(evaluated) < 2 * C.DEFAULT_CONFIG.m_max, (n, len(evaluated))


def test_ec_example_small_budget():
    rep = C.ec("0", ComplexityQuery(delta=Fraction(0), Delta=Fraction(16)))
    assert rep.khat == 5
    assert rep.ec == 4
    assert rep.witness == E.UniformAll(1)
    assert not rep.ec_empty
    assert rep.mode == "exact"


def test_ec_large_budget_reaches_uniform():
    from eclab.codec import nat_code_len

    for x in ("010101", "111111", "100110"):
        n = len(x)
        rep = C.ec(x, ComplexityQuery(delta=Fraction(0), Delta=Fraction(2 * n + 16)))
        assert rep.ec is not None and rep.ec <= 3 + nat_code_len(n)


def test_ec_witness_satisfies_domain_conditions():
    for n in (2, 5, 8):
        for x in all_strings(n):
            for D in (Fraction(0), Fraction(4), Fraction(12)):
                rep = C.ec(x, ComplexityQuery(delta=Fraction(1, 4), Delta=D), SMALL_CFG)
                if rep.ec_empty:
                    continue
                w = rep.witness
                assert E.prob(w, x) > 0
                assert E.is_delta_typical(w, x, Fraction(1, 4))
                assert C.budget_fits(E.total_info(w), rep.khat + D)
                assert E.desc_len(w) == rep.ec


def test_ec_empty_domain_is_reported_not_raised():
    # with the tiniest budget and delta 0, incompressible strings can
    # leave nothing but (possibly) the khat witness in the domain
    seen_empty = False
    seen_value = False
    for x in all_strings(8):
        rep = C.ec(x, ComplexityQuery(delta=Fraction(0), Delta=Fraction(0)), SMALL_CFG)
        if rep.ec_empty:
            seen_empty = seen_empty or True
            assert rep.ec is None
        else:
            seen_value = True
    assert seen_value  # some strings always admit a zero-budget explanation


def test_ec_antimonotone_smoke():
    deltas = [Fraction(0), Fraction(1, 4), Fraction(1)]
    Deltas = [Fraction(v) for v in range(0, 17, 2)]
    for x in ("0110100", "0000000", "1111011"):
        for d in deltas:
            prev = None
            for D in Deltas:
                rep = C.ec(x, ComplexityQuery(delta=d, Delta=D), SMALL_CFG)
                if prev is not None:
                    if prev.ec is not None:
                        assert rep.ec is not None  # domain never re-empties
                        assert rep.ec <= prev.ec
                prev = rep
        for D in Deltas:
            vals = [
                C.ec(x, ComplexityQuery(delta=d, Delta=D), SMALL_CFG).ec for d in deltas
            ]
            for a, b in zip(vals, vals[1:]):
                if a is not None and b is not None:
                    assert b <= a


def test_ec_upper_mode_is_sound_upper_bound():
    for n in (4, 8, 10):
        for x in list(all_strings(n))[:: max(1, (1 << n) // 64)]:
            for D in (Fraction(2), Fraction(8), Fraction(20)):
                exact = C.ec(x, ComplexityQuery(delta=Fraction(0), Delta=D), SMALL_CFG)
                upper = C.ec(
                    x, ComplexityQuery(delta=Fraction(0), Delta=D, mode="upper"), SMALL_CFG
                )
                if upper.ec is not None:
                    assert exact.ec is not None
                    assert upper.ec >= exact.ec
                cu = C.coarse_ec(x, 0, "upper", SMALL_CFG).coarse_ec
                ce = C.coarse_ec(x, 0, "exact", SMALL_CFG).coarse_ec
                assert cu >= ce - 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="upper mode is unsound beyond n_max (open item in ROADMAP.md): its ceil(r n) "
    "surrogate over-estimates khat, so the budget admits uniform-all here",
)
def test_ec_upper_mode_not_below_exact_at_n25():
    # `eclab ec --x 0000000001000100000000010 --delta 0 --Delta 4` prints ec = 12
    # (upper mode); exact mode with the enumeration bound raised gives 14
    x = "0000000001000100000000010"
    upper = C.ec(x, ComplexityQuery(delta=Fraction(0), Delta=Fraction(4), mode="upper"))
    exact = C.ec(
        x,
        ComplexityQuery(delta=Fraction(0), Delta=Fraction(4), mode="exact"),
        FamilyConfig(n_max=128),
    )
    assert upper.mode == "upper" and exact.ec == 14
    assert upper.ec is None or upper.ec >= exact.ec


def test_ec_exact_mode_resource_bound():
    with pytest.raises(ResourceLimitError):
        C.ec("01" * 20, ComplexityQuery(delta=Fraction(0), Delta=Fraction(4), mode="exact"))


def test_ec_constraint_restricts_domain():
    x = "00000000"
    free = C.ec(x, ComplexityQuery(delta=Fraction(0), Delta=Fraction(20)), SMALL_CFG)
    pinned = C.ec(
        x,
        ComplexityQuery(
            delta=Fraction(0),
            Delta=Fraction(20),
            constraint=Constraint(tags=frozenset({"singleton-raw"})),
        ),
        SMALL_CFG,
    )
    assert pinned.ec >= free.ec
    assert isinstance(pinned.witness, E.SingletonRaw)
    only_iid = C.ec(
        x,
        ComplexityQuery(
            delta=Fraction(1), Delta=Fraction(30), constraint=Constraint.parse("tags=iid;mmax=2")
        ),
        SMALL_CFG,
    )
    if only_iid.ec is not None:
        assert isinstance(only_iid.witness, E.IIDQuantized)
        assert only_iid.witness.m <= 2


def test_coarse_example():
    rep = C.coarse_ec("0", 0)
    assert rep.coarse_ec == 4.0
    assert rep.witness == E.UniformAll(1)


def test_coarse_trivial_uniform_bound():
    from eclab.codec import nat_code_len

    for n in (1, 4, 7):
        for x in all_strings(n):
            rep = C.coarse_ec(x, 0, "exact", SMALL_CFG)
            st = C.string_stats(x)
            khv = C.khat_value(st, SMALL_CFG)
            assert rep.coarse_ec <= (2 * (3 + nat_code_len(n)) + n) - khv + 1e-12


def test_coarse_relates_to_budgeted_ec():
    for x in ("01101001", "00000000", "11011101"):
        coarse = C.coarse_ec(x, Fraction(1, 4), "exact", SMALL_CFG).coarse_ec
        for D in (Fraction(0), Fraction(6), Fraction(14)):
            rep = C.ec(x, ComplexityQuery(delta=Fraction(1, 4), Delta=D), SMALL_CFG)
            if rep.ec is not None:
                assert coarse <= float(D) + rep.ec + 1e-9


def test_scan_symmetric_and_complete():
    res = C.max_coarse_scan(1, 0)
    assert [c for _, c in res.histogram] == [2]  # both values equal by 0/1 symmetry
    assert res.argmax == "0"
    res = C.max_coarse_scan(6, 0, SMALL_CFG)
    assert sum(c for _, c in res.histogram) == 64
    assert res.max_value == max(v for v, _ in res.histogram)
    # the documented scheme bound
    assert res.max_value <= 6 / 2 + math.log2(6) + C.coarse_scheme_constant()


def test_scan_resource_bound():
    with pytest.raises(ResourceLimitError):
        C.max_coarse_scan(17, 0)


def test_scheme_constants():
    assert C.sweep_scheme_constant() == 27
    assert C.sweep_scheme_constant() <= 32
    assert C.coarse_scheme_constant() == 20
    assert C.coarse_scheme_constant() <= 24
    # the uniform-typical description really stays under the sweep curve
    from eclab.codec import nat_code_len, rational_code_len

    cfg = C.DEFAULT_CONFIG
    for n in (16, 1 << 10, 1 << 18):
        for r in cfg.r_grid:
            desc = 3 + nat_code_len(n) + rational_code_len(r)
            assert desc <= math.log2(n) + 2 * math.log2(math.log2(n)) + C.sweep_scheme_constant()


def test_sweep_small_run_deterministic():
    model = processes.Markov(Fraction(1, 10), Fraction(1, 10))
    kwargs = dict(
        eps=Fraction(1, 10),
        delta=Fraction(0),
        n_list=[64, 256],
        samples=6,
        seed=3,
    )
    rows1 = C.theorem1_sweep(model, **kwargs)
    rows2 = C.theorem1_sweep(model, **kwargs)
    assert rows1 == rows2
    assert [r.n for r in rows1] == [64, 256]
    for r in rows1:
        assert 0 <= r.fraction_budget_satisfied <= 1
        assert r.c_scheme == C.sweep_scheme_constant()


def test_sweep_mixture_uses_component_rates():
    mix = processes.Mixture(
        (
            (Fraction(1, 2), processes.Bernoulli(Fraction(1, 10))),
            (Fraction(1, 2), processes.Bernoulli(Fraction(1, 2))),
        )
    )
    rows = C.theorem1_sweep(
        mix, eps=Fraction(1, 10), delta=Fraction(0), n_list=[512], samples=8, seed=1
    )
    assert len(rows) == 1
    # reference curve uses the largest per-component rate; for h = 1 that is
    # the first grid rate above 1
    from eclab.codec import nat_code_len, rational_code_len

    r_above_1 = C._grid_rate_above(1.0, C.DEFAULT_CONFIG)
    assert float(r_above_1) > 1
    assert rows[0].reference_bits == nat_code_len(512) + rational_code_len(r_above_1) + 3


def _brute_khat_value_any_n(x: str, cfg: FamilyConfig) -> int:
    """khat by exact integer arithmetic at any length (slow, no float paths)."""
    from eclab.codec import nat_code_len, rational_code_len
    from eclab.typical_sets import TypicalSetSpec, cardinality

    st = C.string_stats(x)
    n, ones, zeros = st.n, st.ones, st.n - st.ones
    base = 3 + nat_code_len(n)
    best = min(base + n, base + st.lz_len)
    for r in cfg.r_grid:
        if st.lz_len * r.denominator < r.numerator * n:
            if n > cfg.n_max:
                term = -((-r.numerator * n) // r.denominator)  # ceil(r n)
            else:
                term = (cardinality(TypicalSetSpec(r, n)) - 1).bit_length()
            best = min(best, base + rational_code_len(r) + term)
    for m in range(1, cfg.m_max + 1):
        top = 1 << m
        iid_num = max(a**ones * (top - a) ** zeros for a in range(1, top))
        best = min(best, base + nat_code_len(m) + m + m * n - iid_num.bit_length() + 1)
        g0 = max(a**st.n01 * (top - a) ** st.n00 for a in range(1, top))
        g1 = max(a**st.n10 * (top - a) ** st.n11 for a in range(1, top))
        num = (top - 1) * g0 * g1
        best = min(best, base + nat_code_len(m) + 3 * m + m * n - num.bit_length() + 1)
    return best


def test_khat_float_path_matches_exact_integers_at_large_n():
    # n = 100 exceeds the float threshold, so the guarded log paths are live
    cfg = FamilyConfig(m_max=4)
    model = processes.Markov(Fraction(1, 10), Fraction(1, 10))
    for seed in range(8):
        x = processes.sample(model, 100, seed)
        st = C.string_stats(x)
        assert C.khat_value(st, cfg, "upper") == _brute_khat_value_any_n(x, cfg)
    for x in ("0" * 100, "1" * 100, "01" * 50):
        st = C.string_stats(x)
        assert C.khat_value(st, cfg, "upper") == _brute_khat_value_any_n(x, cfg)


_FACTOR = hst.tuples(
    hst.one_of(
        hst.just(1),
        hst.integers(0, 80).map(lambda k: 1 << k),  # powers of two
        hst.integers(0, 1 << 20).map(lambda v: 2 * v + 1),  # odd bases
        hst.integers(1, 1 << 70),
    ),
    hst.one_of(hst.just(0), hst.integers(0, 300)),
)


@given(hst.lists(_FACTOR, max_size=6))
@example([])
@example([(1, 0)])
@example([(1, 5), (1, 0)])
@example([(2, 0), (3, 0)])
@example([(32, 131072), (32, 131072)])
@example([(63, 1), (7, 9), (57, 3)])
def test_floor_log2_product_is_exact(factors):
    product = 1
    for base, exp in factors:
        product *= base**exp
    assert C._floor_log2_product(factors) == product.bit_length() - 1


def test_floor_log2_guarded_rechecks_only_near_integers(monkeypatch):
    calls = []
    real = C._floor_log2_product
    monkeypatch.setattr(C, "_floor_log2_product", lambda f: calls.append(f) or real(f))
    assert C._floor_log2_guarded(3.5, [(3, 2)]) == 3  # far from an integer: the float floor
    assert calls == []
    factors = [(2, 5), (4, 3)]  # log2 = 11 exactly
    assert C._floor_log2_guarded(11.0, factors) == 11
    assert C._floor_log2_guarded(11.0 - 1e-9, factors) == 11  # float just below: exact wins
    assert calls == [factors, factors]
    # a float within the guard above an integer the product does not reach
    assert C._floor_log2_guarded(10 + 5e-7, [(1023, 1)]) == 9
    assert len(calls) == 3


_EMPTYING = Constraint.parse("tags=uniform-typ;rmax=1/64")


def test_coarse_ec_empty_domain_is_reported_not_raised():
    rep = C.coarse_ec("0110", 0, constraint=_EMPTYING)
    assert rep.ec_empty
    assert rep.coarse_ec is None and rep.witness is None
    assert rep.khat == C.khat("0110")[0]
    rep = C.coarse_ec("0110", 0, mode="upper", constraint=_EMPTYING)
    assert rep.ec_empty and rep.coarse_ec is None


def test_coarse_ec_constraint_restricts_the_witness():
    for x in ("0110", "0000000011", "01101001100101101001"):
        free = C.coarse_ec(x, 0)
        for text, ok in (
            ("mmax=1", lambda w: getattr(w, "m", 1) <= 1),
            ("tags=markov-q", lambda w: isinstance(w, E.MarkovQuantized)),
            ("tags=iid,uniform-all", lambda w: isinstance(w, (E.IIDQuantized, E.UniformAll))),
        ):
            rep = C.coarse_ec(x, 0, constraint=Constraint.parse(text))
            assert not rep.ec_empty and ok(rep.witness), (x, text)
            assert rep.coarse_ec >= free.coarse_ec


def test_upper_mode_walks_match_direct_scan_beyond_nmax():
    # n = 30 sits past the exact bound, so the closed-form Markov walks run;
    # compare ec and coarse_ec against a direct scan that uses only the
    # defining recursion, with the same constraint applied to both
    cfg = FamilyConfig(m_max=3)
    from eclab.codec import nat_code_len, rational_code_len

    def typical_family(x, delta):
        # (desc, H, sigma, serialization, ensemble) for every member x is typical for
        st = C.string_stats(x)
        n = st.n
        base = 3 + nat_code_len(n)
        members = [E.SingletonRaw(x), E.SingletonLZ(x), E.UniformAll(n)]
        for m in range(1, cfg.m_max + 1):
            for a in range(1, 1 << m):
                members.append(E.IIDQuantized(n, m, a))
            for a0 in range(1, 1 << m):
                for a1 in range(1, 1 << m):
                    for ai in range(1, 1 << m):
                        members.append(E.MarkovQuantized(n, m, a0, a1, ai))
        out = [
            (E.desc_len(e), E.entropy(e), E.total_info(e), E.serialize(e), e)
            for e in members
            if E.is_delta_typical(e, x, delta)
        ]
        for r in cfg.r_grid:
            if st.lz_len * r.denominator < r.numerator * n:  # member => typical
                d = base + rational_code_len(r)
                e = E.UniformTypical(r, n)
                out.append((d, r * n, d + r * n, E.serialize(e), e))
        return out

    def allowed(e, constraint):
        if constraint is None:
            return True
        if not constraint.allows_tag(E.TAG_NAMES[type(e)]):
            return False
        if isinstance(e, (E.IIDQuantized, E.MarkovQuantized)):
            return constraint.allows_m(e.m)
        return not isinstance(e, E.UniformTypical) or constraint.allows_r(e.r)

    constraints = [None] + [
        Constraint.parse(t) for t in ("mmax=1", "tags=markov-q,iid;mmax=2", "rmin=1/4;rmax=3/4")
    ]
    model = processes.Bernoulli(Fraction(1, 5))
    for seed in range(6):
        x = processes.sample(model, 30, seed)
        khv = C.khat_value(C.string_stats(x), cfg, "upper")
        for delta in (Fraction(0), Fraction(1, 4)):
            full = typical_family(x, delta)
            for constraint in constraints:
                family = [c for c in full if allowed(c[4], constraint)]
                for D in (Fraction(0), Fraction(6), Fraction(18)):
                    q = ComplexityQuery(delta=delta, Delta=D, mode="upper", constraint=constraint)
                    rep = C.ec(x, q, cfg)
                    cands = [c for c in family if C.budget_fits(c[2], khv + D)]
                    if not cands:
                        assert rep.ec is None and rep.ec_empty
                        continue
                    best = min(cands, key=lambda t: (t[0], t[2], t[3]))
                    assert rep.ec == best[0]
                    assert E.serialize(rep.witness) == best[3]
                rep = C.coarse_ec(x, delta, mode="upper", cfg=cfg, constraint=constraint)
                if not family:
                    assert rep.coarse_ec is None and rep.ec_empty
                    continue
                best = min(family, key=lambda t: (2 * t[0] + t[1], t[0], t[2], t[3]))
                assert rep.coarse_ec == float(2 * best[0] + best[1]) - khv
                assert E.serialize(rep.witness) == best[3]


def test_upper_mode_straggler_order_and_cap(monkeypatch):
    # the large-n walks confirm Markov stragglers in (closed-form H, a0, a1, ai)
    # order; the reference is the tuple-key sort over a whole-slice prefilter.
    # Without a cap and with every confirmation passing (no ensemble built,
    # patched in below), _markov_confirmed yields its complete kept sequence;
    # the keys and -log2 p(x) come from the test-side flat grid
    cfg = C.DEFAULT_CONFIG
    grid = flat_markov_grid.flat_grid(cfg.m_max)
    cases = []
    for spec in ("markov:flip=1/10", "bernoulli:p=3/10"):
        model = processes.parse_model_spec(spec)
        for n in (1 << 10, 1 << 12, 1 << 15):
            for seed in (1, 2):
                cases.append(processes.sample(model, n, seed))
    for x in cases:
        st = C.string_stats(x)
        n = st.n
        margin = 1e-6 + 1e-12 * n
        Hcf_all = grid.closed_tables(n)[0]
        for m in range(1, cfg.m_max + 1):
            sl = grid.m_slices[m]
            Hcf = Hcf_all[sl]
            v = (
                (grid.li1 if st.first else grid.li0)[sl]
                + st.n00 * grid.c00[sl]
                + st.n01 * grid.c01[sl]
                + st.n10 * grid.c10[sl]
                + st.n11 * grid.c11[sl]
            )
            keys = list(zip(Hcf.tolist(), grid.a0[sl].tolist(), grid.a1[sl].tolist(),
                            grid.ai[sl].tolist()))
            for delta_f in (0.0, 0.25, 1.0):
                typ = v <= Hcf * (1.0 + delta_f) + E.TYPICALITY_SLACK + margin
                ref = sorted(np.flatnonzero(typ).tolist(), key=lambda i: keys[i])
                with monkeypatch.context() as mp:
                    mp.setattr(C, "_markov_ensemble", lambda n, m, j: j)
                    mp.setattr(C.ens, "entropy", lambda j: math.inf)
                    kept = list(C._markov_confirmed(st, m, delta_f))
                assert kept == [(Hcf[i], i, math.inf) for i in ref]
                if n > 1 << 10:
                    continue
                # with the cap and the defining recursion: the first
                # _STRAGGLER_CAP kept entries that stay typical
                confirmed = []
                for i in ref[: C._STRAGGLER_CAP]:
                    H = E.entropy(flat_markov_grid.ensemble(grid, n, sl.start + i))
                    if E.is_typical(float(v[i]), H, delta_f):
                        confirmed.append((Hcf[i], i, H))
                assert list(C._markov_confirmed(st, m, delta_f, C._STRAGGLER_CAP)) == confirmed

    def results():
        out = []
        for x in cases:
            for delta in (Fraction(0), Fraction(1, 4)):
                q = ComplexityQuery(delta=delta, eps=Fraction(1, 10), mode="upper")
                r = C.ec(x, q, cfg)
                out.append((r.ec, r.ec_empty, E.serialize(r.witness) if r.witness else None))
                r = C.coarse_ec(x, delta, mode="upper", cfg=cfg)
                out.append((r.coarse_ec, E.serialize(r.witness)))
        return out

    capped = results()
    monkeypatch.setattr(C, "_STRAGGLER_CAP", grid.size)
    assert results() == capped


def test_string_stats_counts():
    st = C.string_stats("1011010100010")
    assert (st.n00, st.n01, st.n10, st.n11) == (2, 4, 5, 1)
    assert st.first == 1
    assert st.ones == 6
    assert st.lz_len == 21
    st = C.string_stats("0")
    assert (st.first, st.ones, st.n00) == (0, 0, 0)


def test_query_validation():
    with pytest.raises(ValueError):
        ComplexityQuery(delta=Fraction(0)).resolve_Delta(8)  # neither Delta nor eps
    with pytest.raises(ValueError):
        ComplexityQuery(delta=Fraction(0), Delta=Fraction(1), eps=Fraction(1)).resolve_Delta(8)
    assert ComplexityQuery(delta=Fraction(0), eps=Fraction(1, 10)).resolve_Delta(40) == 4


def test_config_echo_text_built_once_per_grid():
    cfg = FamilyConfig(r_grid=(Fraction(1, 2), Fraction(3, 4)), m_max=2)
    first = cfg.echo()
    assert first == {"r_grid": "1/2,3/4", "m_max": 2, "n_max": 24}
    # an equal grid shares the cached text; each call returns a fresh dict
    again = FamilyConfig(r_grid=(Fraction(1, 2), Fraction(3, 4))).echo()
    assert again["r_grid"] is first["r_grid"]
    first["r_grid"] = "edited"
    assert cfg.echo()["r_grid"] == "1/2,3/4"
    assert C.DEFAULT_CONFIG.echo()["r_grid"] == ",".join(str(r) for r in C.DEFAULT_CONFIG.r_grid)


# --- the kept stats and khat pass ----------------------------------------------


def _forget():
    """Start from an empty memo, as a fresh process does."""
    C.string_stats.cache_clear()
    C._khat_scores.cache_clear()


def _kept(fn, *args):
    """Whether fn(*args) is read from fn's cache: the call adds one hit."""
    hits = fn.cache_info().hits
    fn(*args)
    return fn.cache_info().hits == hits + 1


def test_memo_tells_apart_strings_with_equal_counts():
    # equal length and counts, different LZ78 code lengths and khat
    a, b = "000000101", "000001001"
    fresh = {x: C.StringStats(*E.bit_counts(x), lz78.code_len(x)) for x in (a, b)}
    assert astuple(fresh[a])[:-1] == astuple(fresh[b])[:-1] and fresh[a].lz_len != fresh[b].lz_len
    ref = {x: _khat_pass_reference(fresh[x], C.DEFAULT_CONFIG, "exact") for x in (a, b)}
    assert ref[a][0] != ref[b][0]
    for x in (a, b, a, a, b, b, a):
        st = C.string_stats(x)
        assert st == fresh[x]
        assert _khat_pass(st, C.DEFAULT_CONFIG, "exact") == ref[x]
        assert C.khat(x)[0] == C.coarse_ec(x, 0).khat == ref[x][0]


def test_memo_keeps_each_family_apart():
    x = "".join("1" if i % 61 == 0 else "0" for i in range(1000))
    st = C.string_stats(x)
    ref = {cfg: _khat_pass_reference(st, cfg, "upper") for cfg in (SMALL_CFG, C.DEFAULT_CONFIG)}
    assert ref[SMALL_CFG][0] != ref[C.DEFAULT_CONFIG][0]
    fresh = {}
    for cfg in ref:
        _forget()
        fresh[cfg] = C.khat(x, cfg)
    for cfg in (SMALL_CFG, C.DEFAULT_CONFIG, C.DEFAULT_CONFIG, SMALL_CFG):
        assert _khat_pass(st, cfg, "upper") == ref[cfg]
        assert C.khat(x, cfg) == fresh[cfg]
        assert C.khat_value(st, cfg) == ref[cfg][0]


def test_memo_still_validates_mode_and_input():
    x = "01" * 20  # n = 40 > n_max
    st = C.string_stats(x)
    value = C.khat(x)[0]  # auto: upper mode, now kept
    assert _kept(C.string_stats, x) and _kept(C._khat_scores, st, C.DEFAULT_CONFIG)
    with pytest.raises(ResourceLimitError):
        C.khat(x, mode="exact")
    with pytest.raises(ResourceLimitError):
        C.khat_value(st, mode="exact")
    with pytest.raises(ResourceLimitError):
        C.ec(x, ComplexityQuery(Delta=Fraction(4), mode="exact"))
    with pytest.raises(ValueError, match="mode must be"):
        C.khat_value(st, mode="fast")
    assert C.khat_value(st, mode="upper") == value
    # a non-0/1 x raises right after a valid one, at any length
    for bad in ("01" * 19 + "0a", "0120", "", " " + x[1:]):
        with pytest.raises(ValueError, match="x must"):
            C.string_stats(bad)
        with pytest.raises(ValueError, match="x must"):
            C.khat(bad)
        assert C.string_stats(x) == st


def test_memo_orders_cannot_be_mutated():
    x = "0110100110010110"
    st = C.string_stats(x)
    value, orders = _khat_pass(st, C.DEFAULT_CONFIG, "exact")
    assert isinstance(orders, tuple)
    with pytest.raises(AttributeError):
        orders.append(("iid", 1))
    assert _khat_pass(st, C.DEFAULT_CONFIG, "exact") == _khat_pass_reference(
        st, C.DEFAULT_CONFIG, "exact"
    )


def test_memo_across_threads():
    import threading

    model = processes.parse_model_spec("markov:flip=1/10")
    xs = [x for x, _ in processes.sample_paths(model, 300, 5, 4)]
    expected = {x: (C.string_stats(x), C.khat_value(C.string_stats(x))) for x in xs}
    errors = []

    def query(first):
        # both threads query every string, each a different one at a time
        order = xs[first:] + xs[:first]
        for _ in range(300):
            for x in order:
                st = C.string_stats(x)
                got = (st, C.khat_value(st))
                if got != expected[x]:
                    errors.append((x, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(2 * i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_check_thm4_scores_each_string_once(monkeypatch):
    from eclab.selftest import check_thm4

    _forget()
    calls = 0
    original = C.khat_value

    def spy(stats, cfg, mode):
        nonlocal calls
        calls += 1
        return original(stats, cfg, mode)

    monkeypatch.setattr(C, "khat_value", spy)
    deltas = [Fraction(0), Fraction(1, 4), Fraction(1)]
    res = check_thm4(6, deltas, [Fraction(v) for v in range(0, 17, 4)])
    assert res.ok
    strings = sum(1 << n for n in range(1, 7))
    passes = C._khat_scores.cache_info().misses  # each miss runs one pass
    assert passes == strings and calls == strings * len(deltas) * 6


def _spy_block_passes(monkeypatch, record):
    """Call record(stats, delta_f, m) on each Markov block pass."""
    original = C._markov_blocks

    def spy(stats, m, delta_f):
        record(stats, delta_f, m)
        return original(stats, m, delta_f)

    monkeypatch.setattr(C, "_markov_blocks", spy)


def test_delta_sweep_searches_each_markov_order_once(monkeypatch):
    """check_thm4's sweep (per x and delta, coarse_ec then ec for each Delta)
    over the Markov tag alone, on every x with n <= 7: each query runs each
    order's block pass and confirm loop at most once, and every value equals
    one computed from an empty memo. Those values also hold check_thm4's
    Theorem 4 and anti-monotonicity cases over Markov candidates alone:
    check_thm4 itself reads no Markov run at n <= 10, since uniform-all,
    typical for every x, has the least desc."""
    from collections import Counter

    markov = Constraint(tags=frozenset({"markov-q"}))
    deltas = [Fraction(0), Fraction(1, 4), Fraction(1)]
    Deltas = [Fraction(v) for v in range(0, 33, 8)]

    def sweep(forget):
        out = {}
        for x in (x for n in range(1, 8) for x in all_strings(n)):
            for d in deltas:
                cell[0] = (x, d, None)  # the query being run
                forget()
                coarse = C.coarse_ec(x, d, "exact", constraint=markov).coarse_ec
                ecs = []
                for D in Deltas:
                    cell[0] = (x, d, D)
                    forget()
                    query = ComplexityQuery(delta=d, Delta=D, mode="exact", constraint=markov)
                    ecs.append(C.ec(x, query).ec)
                out[x, d] = (coarse, ecs)
        return out

    cell, passes, confirms = [None], Counter(), Counter()
    want = sweep(_forget)
    found = 0
    for (x, d), (coarse, ecs) in want.items():
        for D, prev, value in zip(Deltas, [None, *ecs], ecs):
            if value is None:
                assert prev is None, (x, d, D)  # a nonempty domain stays nonempty
                continue
            found += 1
            assert coarse <= float(D) + value + 1e-12, (x, d, D)  # Theorem 4
            assert prev is None or value <= prev, (x, d, D)  # nonincreasing in Delta
        if d != deltas[0]:
            tighter = want[x, deltas[deltas.index(d) - 1]][1]
            for D, a, b in zip(Deltas, tighter, ecs):
                assert a is None or b is None or b <= a, (x, d, D)  # nonincreasing in delta
    assert found
    confirmed = C._markov_confirmed

    def confirmed_spy(stats, m, *args, **kwargs):
        confirms[cell[0], m] += 1
        return confirmed(stats, m, *args, **kwargs)

    monkeypatch.setattr(C, "_markov_confirmed", confirmed_spy)
    _spy_block_passes(monkeypatch, lambda st, d, m: passes.update([(cell[0], m)]))
    assert sweep(lambda: None) == want
    assert passes and set(passes.values()) == {1}
    assert confirms and set(confirms.values()) == {1}


def test_ec_and_coarse_ec_agree_across_threads():
    import threading

    model = processes.parse_model_spec("markov:flip=1/10")
    xs = [x for x, _ in processes.sample_paths(model, 300, 6, 3)]
    deltas = (Fraction(0), Fraction(1, 4))
    q = {d: ComplexityQuery(delta=d, eps=Fraction(1, 10), mode="auto") for d in deltas}

    def values(x, d):
        ec, coarse = C.ec(x, q[d]), C.coarse_ec(x, d, "auto")
        return ec.ec, ec.witness, coarse.coarse_ec, coarse.witness

    expected = {(x, d): values(x, d) for x in xs for d in deltas}
    errors = []

    def query(first):
        cells = list(expected)
        for _ in range(40):
            for x, d in cells[first:] + cells[:first]:
                got = values(x, d)
                if got != expected[x, d]:
                    errors.append((x, d, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(3 * i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def _read_every_group(frontier) -> "C._Candidate | None":
    """The coarse_ec pick with nothing skipped: every group of every tag is
    read, each run gives its least (2 desc + H, serialization) member, and
    the canonical pick ranks them all."""
    cands = []
    for groups in frontier:
        for desc, _hmin, _floor, read in groups:
            run = read()
            if run is not None:
                sigma, members = run
                H, e = min(members, key=lambda member: 2 * desc + member[0])
                cands.append(C._Candidate(2 * desc + H, desc, sigma, e))
    return C._pick_canonical(cands)


def _desc_order_pick(frontier) -> "C._Candidate | None":
    """The coarse_ec pick reading each tag's groups in ascending desc: a
    group is passed over when 2 desc + its hmin, or then its floor, exceeds
    the least objective so far, and reading stops once 2 desc does."""
    bound = math.inf
    champions = []
    for groups in frontier:
        champion = None
        for desc, hmin, floor, read in groups:
            if 2 * desc > bound:
                break
            if 2 * desc + hmin > bound or (floor is not None and 2 * desc + floor() > bound):
                continue
            run = read()
            if run is None:
                continue
            sigma, members = run
            H, e = min(members, key=lambda member: 2 * desc + member[0])
            if champion is None or 2 * desc + H < champion.objective:
                champion = C._Candidate(2 * desc + H, desc, sigma, e)
                bound = min(bound, champion.objective)
        champions.append(champion)
    return C._pick_canonical(champions)


def _pick_tuple(c):
    return None if c is None else (c.objective, c.desc, c.sigma, c.ensemble)


_MARKOV_ONLY = Constraint(tags=frozenset({"markov-q"}))
_UT_ONLY = Constraint(tags=frozenset({"uniform-typ"}))


def _best_first_cases():
    """(x, mode, constraints) for every x with n <= 9 and seeded paths of
    three models at n = 100, 1000 and 4096, with and without a Markov-only
    constraint, and for seeded strings at n = 128 with the uniform-typical
    tag alone, whose groups can tie on 2 desc + r n in upper mode."""
    both = (None, _MARKOV_ONLY)
    cases = [(x, "exact", both) for n in range(1, 10) for x in all_strings(n)]
    for spec in ("markov:flip=1/10", "markov:flip=1/3", "bernoulli:p=3/10"):
        model = processes.parse_model_spec(spec)
        for n in (100, 1000, 4096):
            cases += [(x, "auto", both) for x, _ in processes.sample_paths(model, n, 9, 2)]
    rng = np.random.default_rng(24)
    for p in (0.05, 0.2, 0.5):
        for _ in range(15):
            x = "".join("1" if u < p else "0" for u in rng.random(128))
            cases.append((x, "auto", (_UT_ONLY,)))
    return cases


def test_coarse_pick_best_first_equals_reading_every_group():
    """coarse_ec, which reads each tag's groups best-first, equals the pick
    that reads every group of every tag, for delta in {0, 1/4, 1}, on the
    cases of _best_first_cases."""
    cfg = C.DEFAULT_CONFIG
    for x, mode, constraints in _best_first_cases():
        st = C.string_stats(x)
        for delta in (Fraction(0), Fraction(1, 4), Fraction(1)):
            for constraint in constraints:
                rep = C.coarse_ec(x, delta, mode, cfg, constraint)
                mode_r = C._resolve_mode(mode, st.n, cfg)
                ref = _read_every_group(C._frontier(x, st, float(delta), mode_r, constraint, cfg))
                case = (x if len(x) < 16 else len(x), delta, constraint)
                if ref is None:
                    assert rep.ec_empty and rep.witness is None, case
                else:
                    assert rep.coarse_ec == float(ref.objective) - rep.khat, case
                    assert rep.witness == ref.ensemble, case


def test_coarse_pick_reads_no_more_markov_runs_than_desc_order(monkeypatch):
    """The best-first pick searches no more Markov runs
    than the ascending-desc pick and gives the same champion, and on the
    seeded paths it searches fewer in all."""
    cfg = C.DEFAULT_CONFIG
    searched = []
    confirmed = C._markov_confirmed
    monkeypatch.setattr(
        C, "_markov_confirmed", lambda *a, **k: searched.append(a[1]) or confirmed(*a, **k)
    )
    totals = {"paths": [0, 0], "short": [0, 0]}
    for x, mode, constraints in _best_first_cases()[::7]:
        st = C.string_stats(x)
        mode_r = C._resolve_mode(mode, st.n, cfg)
        for delta_f in (0.0, 0.25, 1.0):
            for constraint in constraints:
                counts = []
                picks = []
                for pick in (C._coarse_pick, _desc_order_pick):
                    searched.clear()
                    frontier = C._frontier(x, st, delta_f, mode_r, constraint, cfg)
                    picks.append(_pick_tuple(pick(frontier)))
                    counts.append(len(searched))
                assert picks[0] == picks[1], (x, delta_f, constraint)
                assert counts[0] <= counts[1], (x, delta_f, constraint, counts)
                kind = totals["short" if mode == "exact" else "paths"]
                kind[0] += counts[0]
                kind[1] += counts[1]
    assert totals["paths"][0] < totals["paths"][1], totals


def test_cached_markov_tables_are_per_block(monkeypatch):
    """After ec, coarse_ec and khat queries at 12 lengths, every array kept
    per (n, m) has one entry per (a0, a1) block, k^2 in all, never the k^3
    entries of the whole order, and at most _CLOSED_TABLES (n, m) are
    kept."""
    original = C._closed_tables
    original.cache_clear()
    built = {}  # every table is read where it is built: check them all

    def spy(n, m):
        tables = built[n, m] = original(n, m)
        return tables

    monkeypatch.setattr(C, "_closed_tables", spy)
    model = processes.parse_model_spec("markov:flip=1/3")
    lengths = [30 + 97 * i for i in range(12)]
    for n in lengths:
        (x, _), = processes.sample_paths(model, n, 4, 1)
        C.khat(x)
        for constraint in (None, _MARKOV_ONLY):
            C.coarse_ec(x, 1, "auto", constraint=constraint)
            q = ComplexityQuery(delta=Fraction(1), Delta=Fraction(8), mode="auto", constraint=constraint)
            C.ec(x, q)
        C._markov_blocks(C.string_stats(x), 6, 1.0)  # the largest order at every length
    for (n, m), tables in built.items():
        k = (1 << m) - 1
        assert all(arr.shape == (k * k,) for arr in tables), (n, m)
    assert {m for _n, m in built} == set(range(1, 7)), built.keys()
    assert {n for n, _m in built} == set(lengths)
    assert original.cache_info().currsize == min(len(built), C._CLOSED_TABLES)
