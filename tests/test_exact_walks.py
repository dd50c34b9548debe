"""Differential tests of the exact-mode Markov searches at the default m_max = 6.

The references are the per-entry scalar loops that the Markov groups, read
by the ec and coarse-ec picks, and the per-order khat champion replaced. They
read the sort keys from arrays rebuilt here over the test-side flat grid
(flat_markov_grid: desc from grid.descbase, total information and objective
from whole-grid entropies) and the orders from np.lexsort over the whole
grid, so they share nothing with the code under test, which works on one
order at a time; test_complexity checks the flat grid against the scalar
definitions and the per-order tables against the flat grid.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np

import flat_markov_grid
from eclab import complexity as C, ensembles as E
from eclab.codec import nat_code_len
from eclab.complexity import Constraint

CFG = C.DEFAULT_CONFIG
EXACT_CFG = C.FamilyConfig(n_max=64)  # the exhaustive Markov search up to n = 64
DELTAS = (Fraction(0), Fraction(1, 4), Fraction(1))
BUDGETS = (Fraction(0), Fraction(1), Fraction(4), Fraction(16))
EPS = Fraction(1, 8)
CONSTRAINTS = (
    None,
    Constraint(m_max=1),
    Constraint(m_max=3),
    Constraint(tags=frozenset({"markov-q"})),
)


@functools.lru_cache(maxsize=1)
def _grid_lists() -> dict:
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    keys = ("m", "a0", "a1", "ai", "c00", "c01", "c10", "c11")
    lists = {k: getattr(grid, k).tolist() for k in keys}
    lists["li"] = (grid.li0.tolist(), grid.li1.tolist())
    return lists


@functools.lru_cache(maxsize=1)
def _ref_tables(n: int) -> dict:
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    H = grid.entropies(n)
    desc = 3 + nat_code_len(n) + grid.descbase
    sig = H + desc
    obj = 2 * desc + H
    t = {
        "H": H,
        "desc": desc,
        "sig": sig,
        "obj": obj,
        "ec_order": np.lexsort((grid.ai, grid.a1, grid.a0, sig, desc)),
        "coarse_order": np.lexsort((grid.ai, grid.a1, grid.a0, sig, desc, obj)),
    }
    # the scalar walks read Python numbers: the same float64 values, read faster
    t["lists"] = {k: v.tolist() for k, v in t.items()} | _grid_lists()
    return t


_ensemble = flat_markov_grid.ensemble


def _ref_walk_ec(stats, delta_f, T, constraint):
    n = stats.n
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    t = _ref_tables(n)["lists"]
    H, desc_arr, sig_arr, ms = t["H"], t["desc"], t["sig"], t["m"]
    li = t["li"][stats.first]
    n00, n01, n10, n11 = stats.n00, stats.n01, stats.n10, stats.n11
    c00, c01, c10, c11 = t["c00"], t["c01"], t["c10"], t["c11"]
    T_f = float(T)
    T_floor = math.floor(T)  # desc is an int: desc > T exactly when desc > floor(T)
    for j in t["ec_order"]:
        desc = desc_arr[j]
        if desc > T_floor:
            return None
        if constraint and not constraint.allows_m(ms[j]):
            continue
        sigma = sig_arr[j]
        if sigma > T_f:
            continue
        neglogp = li[j] + n00 * c00[j] + n01 * c01[j] + n10 * c10[j] + n11 * c11[j]
        if E.is_typical(neglogp, float(H[j]), delta_f):
            return (desc, desc, sigma, _ensemble(grid, n, j))
    return None


def _ref_walk_coarse(stats, delta_f, constraint):
    n = stats.n
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    t = _ref_tables(n)["lists"]
    H, desc_arr, sig_arr, obj_arr, ms = t["H"], t["desc"], t["sig"], t["obj"], t["m"]
    li = t["li"][stats.first]
    n00, n01, n10, n11 = stats.n00, stats.n01, stats.n10, stats.n11
    c00, c01, c10, c11 = t["c00"], t["c01"], t["c10"], t["c11"]
    for j in t["coarse_order"]:
        if constraint and not constraint.allows_m(ms[j]):
            continue
        neglogp = li[j] + n00 * c00[j] + n01 * c01[j] + n10 * c10[j] + n11 * c11[j]
        if E.is_typical(neglogp, float(H[j]), delta_f):
            return (float(obj_arr[j]), int(desc_arr[j]), float(sig_arr[j]), _ensemble(grid, n, j))
    return None


def _ref_khat_champions(stats) -> dict:
    """Each order's champion: the exact numerator bit length of every entry
    in the top unit interval of its float log2 (widened as the code widens
    it), the least value, and its ties ranked by (H + desc, a0, a1, ai)."""
    n = stats.n
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    base = 3 + nat_code_len(n)
    H = _ref_tables(n)["lists"]["H"]
    g = _grid_lists()
    a0s, a1s, ais = g["a0"], g["a1"], g["ai"]
    out = {}
    for m in range(1, CFG.m_max + 1):
        desc = base + nat_code_len(m) + 3 * m
        sl = grid.m_slices[m]
        lg = m * n - flat_markov_grid.neglogp(stats, grid, sl)
        band = math.floor(float(lg.max())) - 1 - C._FLOAT_GUARD
        top = 1 << m
        # an entry's numerator is init[ai] * from0[a0] * from1[a1]: the first
        # symbol's factor and each state's a^flips (top - a)^stays, every
        # power raised once per stats
        init = [0] + [a if stats.first else top - a for a in range(1, top)]
        from0 = [0] + [a**stats.n01 * (top - a) ** stats.n00 for a in range(1, top)]
        from1 = [0] + [a**stats.n10 * (top - a) ** stats.n11 for a in range(1, top)]
        best_bl = -1
        tied = []
        for idx in np.flatnonzero(lg >= band).tolist():
            j = sl.start + idx
            bl = (init[ais[j]] * from0[a0s[j]] * from1[a1s[j]]).bit_length()
            if bl > best_bl:
                best_bl, tied = bl, [j]
            elif bl == best_bl:
                tied.append(j)
        j = min(tied, key=lambda j: (H[j] + desc, a0s[j], a1s[j], ais[j]))
        value = desc + m * n - best_bl + 1
        out[m] = (value, desc, H[j] + desc, _ensemble(grid, n, j))
    return out


def _ref_least(champions: dict):
    """The least of the per-order champions by (value, desc, sigma, a0, a1,
    ai): orders differ in desc, so (a0, a1, ai) ranks one order's entries."""
    return min(champions.values(), key=lambda c: (*c[:3], c[3].a0, c[3].a1, c[3].ai))


def _as_tuple(c):
    return None if c is None else (c.objective, c.desc, c.sigma, c.ensemble)


def _markov_ec(stats, delta_f, T, constraint, cfg):
    """The ec pick over the Markov tag alone."""
    return C._ec_pick([C._markov_groups(stats, delta_f, constraint, cfg)], T)


def _markov_coarse(stats, delta_f, constraint, cfg):
    """The coarse-ec pick over the Markov tag alone."""
    return C._coarse_pick([C._markov_groups(stats, delta_f, constraint, cfg)])


def _seeded_strings(seed: str, lengths) -> list[str]:
    """Low-entropy, Markov-like, fair-coin and run-heavy strings per length."""
    rng = random.Random(seed)
    out = []
    for n in lengths:
        low = [int(rng.random() < 1 / 16) for _ in range(n)]
        if rng.random() < 0.5:
            low = [1 - b for b in low]
        state, markov = rng.getrandbits(1), []
        for _ in range(n):
            markov.append(state)
            state ^= rng.random() < 1 / 5
        fair = [rng.getrandbits(1) for _ in range(n)]
        cuts = set(rng.sample(range(1, n), rng.randint(1, 3)))
        state, runs = rng.getrandbits(1), []
        for i in range(n):
            state ^= i in cuts
            runs.append(state)
        out += ["".join(map(str, b)) for b in (low, markov, fair, runs)]
    return out


def _distinct_stats(xs):
    """One (x, stats) per StringStats: the Markov searches read nothing else of x."""
    seen = {}
    for x in xs:
        st = C.string_stats(x)
        seen.setdefault(st.key, (x, st))
    return sorted(seen.values(), key=lambda p: p[1].key)


def _check_walks(stats):
    n = stats.n
    khv = C.khat_value(stats, CFG, "auto")  # beyond n_max any budget will do
    Ts = [khv + D for D in BUDGETS] + [khv + EPS * n]
    for delta in DELTAS:
        delta_f = float(delta)
        for constraint in CONSTRAINTS:
            got = _as_tuple(_markov_coarse(stats, delta_f, constraint, EXACT_CFG))
            assert got == _ref_walk_coarse(stats, delta_f, constraint), (stats, delta, constraint)
            for T in Ts:
                got = _as_tuple(_markov_ec(stats, delta_f, T, constraint, EXACT_CFG))
                want = _ref_walk_ec(stats, delta_f, T, constraint)
                assert got == want, (stats, delta, T, constraint)


def _check_khat(x, stats, monkeypatch, mode="exact"):
    """Each order's champion and the least of them against the reference,
    and khat asking for exactly the orders whose champion reaches khat."""
    champion = C._khat_markov_champion
    per_m = {m: champion(stats, m) for m in range(1, CFG.m_max + 1)}
    want = _ref_khat_champions(stats)
    assert {m: _as_tuple(c) for m, c in per_m.items()} == want, stats
    assert _as_tuple(C._pick_canonical(per_m.values())) == _ref_least(want)
    seen = []

    def spy(st, m):
        seen.append(m)
        return champion(st, m)

    with monkeypatch.context() as mp:
        mp.setattr(C, "_khat_markov_champion", spy)
        value, _witness = C.khat(x, CFG, mode)
    assert seen == [m for m, c in per_m.items() if c.objective == value], (stats, value)


def test_walks_match_scalar_reference_all_short_strings(monkeypatch):
    xs = (format(v, f"0{n}b") for n in range(1, 10) for v in range(1 << n))
    for x, stats in _distinct_stats(xs):
        _check_walks(stats)
        _check_khat(x, stats, monkeypatch)


def test_walks_match_scalar_reference_seeded_strings(monkeypatch):
    for x, stats in _distinct_stats(_seeded_strings("exact-walks", range(10, 25))):
        _check_walks(stats)
        _check_khat(x, stats, monkeypatch)


def test_khat_champion_ties_past_the_likeliest_entry():
    """These strings' best Markov champion (the reference at an unlimited
    cut) is an entry of its order tied in code length with the likeliest one
    but less likely, so that order's band search has to reach past the least
    -log2 p(x)."""
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    for x in ("0011111111111111111", "000000110000000000001"):
        stats = C.string_stats(x)
        want = _ref_least(_ref_khat_champions(stats))
        sl = grid.m_slices[want[3].m]
        v = flat_markov_grid.neglogp(stats, grid, sl)
        k = (1 << want[3].m) - 1
        j = ((want[3].a0 - 1) * k + want[3].a1 - 1) * k + want[3].ai - 1
        assert v[j] > v.min()
        assert _as_tuple(C._khat_markov_champion(stats, want[3].m)) == want


def test_walks_match_scalar_reference_beyond_nmax(monkeypatch):
    """At n = 32-64 higher orders win the coarse walk, so mmax binds there.
    khat's champions are checked too, in upper mode."""
    bound = 0
    for x, stats in _distinct_stats(_seeded_strings("longer", (32, 48, 64))):
        _check_walks(stats)
        _check_khat(x, stats, monkeypatch, "upper")
        free = _markov_coarse(stats, 1.0, None, EXACT_CFG)
        bound += free.ensemble.m > 1
    assert bound > 0


def test_khat_champion_of_every_order_beyond_n64(monkeypatch):
    """Each order's khat champion on seeded strings at n = 100 and 1000, in
    upper mode: the same tie band and ranking as at small n, where a rule
    that kept only the top 1e-9 of log2 and took the least (a0, a1, ai)
    would pick another entry in some orders."""
    for x, stats in _distinct_stats(_seeded_strings("per-order", (100, 1000))):
        _check_khat(x, stats, monkeypatch, "upper")


def test_walks_match_at_budget_edges():
    """Budgets below every Markov desc, exactly at per-m minima of desc + H
    and one ulp either side: the desc + hmin skip's boundary cases,
    including an m skipped unread while a later m holds the champion."""
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    below_all = skipped_then_found = 0
    for _x, stats in _distinct_stats(_seeded_strings("budget-edges", (12, 20, 24))):
        t = _ref_tables(stats.n)
        mins = [float(t["sig"][sl].min()) for sl in grid.m_slices.values()]
        extra = [Fraction(0), Fraction(t["desc"].min() - 1)]
        for v in mins:
            extra += [Fraction(v), Fraction(math.nextafter(v, -math.inf)),
                      Fraction(math.nextafter(v, math.inf))]
        for T in extra:
            for delta in DELTAS:
                got = _as_tuple(_markov_ec(stats, float(delta), T, None, CFG))
                assert got == _ref_walk_ec(stats, float(delta), T, None), (stats, delta, T)
            found = _markov_ec(stats, 1.0, T, None, CFG)
            if T < t["desc"].min():
                below_all += 1
                assert found is None
            if found is not None and any(v > float(T) for v in mins[: found.ensemble.m - 1]):
                skipped_then_found += 1
    assert below_all > 0 and skipped_then_found > 0


def _sigma_tied_pair(h, desc):
    """Entropies lo < hi near h whose totals lo + desc and hi + desc are one
    float while their objectives lo + 2 desc and hi + 2 desc are two."""
    hs = [h]
    for _ in range(16):
        hs = [math.nextafter(hs[0], -math.inf), *hs, math.nextafter(hs[-1], math.inf)]
    for i, lo in enumerate(hs):
        for hi in hs[i + 1 :]:
            if lo + desc == hi + desc and lo + 2 * desc < hi + 2 * desc:
                return lo, hi
    return None


def test_run_keeps_every_entry_of_the_least_sigma(monkeypatch):
    """The entropies of an m-slice's run, its typical entries of least sigma,
    patched so that they still tie in sigma but not in 2 desc + H: the
    serialization-first member gets the larger entropy. ec takes that
    member, coarse_ec the next one, which has the least 2 desc + H."""
    x, m, delta = "000000000000000000000000000000000000000000100001", 5, Fraction(1)
    stats = C.string_stats(x)
    n = stats.n
    grid = flat_markov_grid.flat_grid(CFG.m_max)
    sl = grid.m_slices[m]
    desc = 3 + nat_code_len(n) + grid.m_desc[m]
    H = _ref_tables(n)["H"][sl]
    v = flat_markov_grid.neglogp(stats, grid, sl)
    typical = v <= H * (1.0 + float(delta)) + E.TYPICALITY_SLACK
    sig = np.where(typical, H + desc, np.inf)
    run = np.flatnonzero(sig == sig.min()).tolist()
    assert len(run) >= 2
    first, later = run[:2]
    lo, hi = _sigma_tied_pair(float(H[first]), desc)
    assert (v[run] <= lo * (1.0 + float(delta)) + E.TYPICALITY_SLACK).all()
    assert lo + desc < float(np.delete(sig, run).min())  # no other entry joins the run
    patched = {_ensemble(grid, n, sl.start + j): (hi if j == first else lo) for j in run}
    entropy = E.entropy
    monkeypatch.setattr(E, "entropy", lambda e: patched[e] if e in patched else entropy(e))
    constraint = Constraint(tags=frozenset({"markov-q"}), m_max=m)
    coarse = C.coarse_ec(x, delta, "exact", EXACT_CFG, constraint)
    assert coarse.witness == _ensemble(grid, n, sl.start + later)
    assert coarse.coarse_ec == (lo + 2 * desc) - coarse.khat
    Delta = Fraction(hi + desc) - coarse.khat
    assert Delta >= 0
    query = C.ComplexityQuery(delta=delta, Delta=Delta, mode="exact", constraint=constraint)
    rep = C.ec(x, query, EXACT_CFG)
    assert (rep.ec, rep.witness) == (desc, _ensemble(grid, n, sl.start + first))


def test_run_leads_with_its_serialization_first_member():
    """Runs whose serialization-first member is not the entry the search
    confirms first, at the same sigma: a rule that took the first confirmed
    entry would lead with a later-serialized one. The runs are read through
    the Markov group, as the picks read them."""
    cases = (
        ("10", 2, (Fraction(1),), (1, 1, 3)),
        ("000", 3, DELTAS, (1, 1, 1)),
        ("0000", 2, DELTAS, (1, 1, 1)),
        ("0001", 2, DELTAS, (1, 1, 1)),
    )
    for x, m, deltas, want in cases:
        stats = C.string_stats(x)
        n = stats.n
        desc = E.markov_desc_len(n, m)
        for delta in deltas:
            _hc, j, H = next(C._markov_confirmed(stats, m, float(delta)))
            first = C._markov_ensemble(n, m, j)
            groups = C._markov_groups(stats, float(delta), Constraint(m_max=m), CFG)
            *_, (_desc, _hmin, _floor, read) = groups
            sigma, members = read()
            assert sigma == H + desc, (x, delta)
            lead = members[0][1]
            assert lead == E.MarkovQuantized(n, m, *want), (x, delta, lead)
            assert first in [e for _H, e in members] and first != lead
            assert E.serialize(lead) < E.serialize(first)


def test_exact_ops_at_n20_never_build_the_largest_slice(monkeypatch):
    """khat, ec on delta in {0, 1/4} x Delta in {0, 4, 16} and on eps = 1/8,
    and coarse-ec, on each string kind at n = 20: the closed-form tables are
    built per (n, m) when a search first reaches m, and no search reaches
    m = 6. khat's m = 6 description alone exceeds its cut, and 2 desc at
    m = 6 exceeds the objective of the always-typical m = 1 entry at 1/2."""
    original = C._closed_tables
    original.cache_clear()
    built = set()
    monkeypatch.setattr(C, "_closed_tables", lambda n, m: built.add((n, m)) or original(n, m))
    queries = [
        C.ComplexityQuery(delta=Fraction(d), Delta=Fraction(D), mode="exact")
        for d in ("0", "1/4")
        for D in (0, 4, 16)
    ] + [C.ComplexityQuery(eps=EPS, mode="exact")]
    for seed in range(3):
        for x in _seeded_strings(f"lazy/{seed}", [20]):
            C.khat(x, CFG, "exact")
            for q in queries:
                C.ec(x, q, CFG)
            C.coarse_ec(x, 0, "exact", CFG)
    assert built and {n for n, _m in built} == {20}, built  # n = 20 only
    assert original.cache_info().currsize == len(built)
    assert max(m for _n, m in built) < CFG.m_max, built


def test_exact_search_never_reads_the_straggler_cap(monkeypatch):
    """Up to n_max the Markov search confirms every entry it keeps: with
    _STRAGGLER_CAP at 0, exact ec and coarse_ec on seeded strings at
    n = 8-24, over the whole family and over the Markov tag alone, are
    unchanged for delta in {0, 1/4, 1, 3}."""
    xs = _seeded_strings("exhaustive", range(8, 25))
    markov = Constraint(tags=frozenset({"markov-q"}))

    def results():
        out = []
        for x in xs:
            for delta in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3)):
                for constraint in (None, markov):
                    r = C.coarse_ec(x, delta, "exact", CFG, constraint)
                    out.append((r.coarse_ec, r.witness))
                    for D in (Fraction(0), Fraction(4)):
                        q = C.ComplexityQuery(delta, D, mode="exact", constraint=constraint)
                        r = C.ec(x, q, CFG)
                        out.append((r.ec, r.witness))
        return out

    want = results()
    monkeypatch.setattr(C, "_STRAGGLER_CAP", 0)
    assert results() == want
