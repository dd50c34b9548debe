import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as hst

from eclab import complexity as C, ensembles as E, lz78, processes
from eclab.codec import nat_code_len
from eclab.complexity import ComplexityQuery, Constraint, FamilyConfig
from eclab.errors import ResourceLimitError

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


def test_khat_value_agrees_with_witness_path():
    for n in (1, 2, 4, 6, 8):
        for x in all_strings(n):
            value, witness = C.khat(x, SMALL_CFG, "exact")
            st = C.string_stats(x)
            assert value == C.khat_value(st, SMALL_CFG, "exact")
            # the witness really achieves the reported value
            achieved = E.desc_len(witness) + E.ceil_neg_log2_prob(witness, x)
            assert achieved == value


def test_markov_entropy_tables_match_scalar():
    grid = C._markov_grid(3)
    for n in (1, 2, 5, 9):
        H = grid.entropies(n)
        for j in range(grid.size):
            e = E.MarkovQuantized(
                n, int(grid.m[j]), int(grid.a0[j]), int(grid.a1[j]), int(grid.ai[j])
            )
            assert H[j] == E.entropy(e)
        closed = grid.entropies_closed(n)
        assert max(abs(closed - H)) < 1e-9 * max(1, n)
    # lengths called in descending, then ascending order on one grid give a
    # fresh grid's bytes: no call leaves state behind for the next
    grid = C._MarkovGrid(6)
    for n in (20, 13, 8, 7, 1, 2, 8, 9, 24):
        assert grid.entropies(n).tobytes() == C._MarkovGrid(6).entropies(n).tobytes(), n


_GRID_ARRAYS = (
    "m", "a0", "a1", "ai", "descbase", "c01", "c00", "c10", "c11",
    "li1", "li0", "h0", "h1", "hinit", "q0", "q1", "pinit",
)


def _scalar_grid_reference(grid) -> dict:
    """The grid's per-entry arrays built entry by entry with scalar math calls."""
    log1, log0, hof = {}, {}, {}
    for m in range(1, max(grid.m_slices) + 1):
        for a in range(1, 1 << m):
            log1[(m, a)] = m - math.log2(a)
            log0[(m, a)] = m - math.log2((1 << m) - a)
            hof[(m, a)] = processes.binary_entropy(a / (1 << m))
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
    grid = C._markov_grid(6)
    assert grid.size == sum(((1 << m) - 1) ** 3 for m in range(1, 7))
    k = np.arange(1, 64)
    m6 = grid.m_slices[6]
    assert np.array_equal(grid.a0[m6], np.repeat(k, 63 * 63))
    assert np.array_equal(grid.ai[m6], np.tile(k, 63 * 63))
    ref = _scalar_grid_reference(grid)
    for name in _GRID_ARRAYS:
        arr = getattr(grid, name)
        assert arr.dtype == ref[name].dtype and arr.tobytes() == ref[name].tobytes(), name


def test_markov_orders_match_lexsort():
    grid = C._markov_grid(6)
    for n in (1, 2, 9, 20, 24):
        t = C._markov_tables(6, n)
        # the tables keep only H; the sort keys are rebuilt here from the grid
        H = t["H"]
        desc = 3 + nat_code_len(n) + grid.descbase
        sig = H + desc
        obj = 2 * desc + H
        ec_ref = np.lexsort((grid.ai, grid.a1, grid.a0, sig, desc))
        coarse_ref = np.lexsort((grid.ai, grid.a1, grid.a0, sig, desc, obj))
        assert sorted(t) == ["H", "coarse_order", "ec_order"]
        assert t["ec_order"].dtype == np.int32 and t["coarse_order"].dtype == np.int32
        assert np.array_equal(t["ec_order"], ec_ref), n
        assert np.array_equal(t["coarse_order"], coarse_ref), n


def _closed_whole_grid(grid, n):
    """The closed form evaluated entry by entry over the whole grid."""
    q0, q1 = grid.q0, grid.q1
    pi1 = q0 / (q0 + q1)
    lam = 1.0 - q0 - q1
    d1 = grid.pinit - pi1
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = np.where(lam == 1.0, float(n - 1), (1.0 - lam ** (n - 1)) / (1.0 - lam))
    sum_p1 = (n - 1) * pi1 + d1 * geo
    return grid.hinit + grid.h0 * ((n - 1) - sum_p1) + grid.h1 * sum_p1


def test_closed_entropies_cached_read_only():
    grid = C._MarkovGrid(6)
    for n in (1, 2, 25, 100, 1 << 12, 1 << 15, 1 << 18, 1 << 20):
        H = grid.entropies_closed(n)
        assert grid.entropies_closed(n) is H
        assert not H.flags.writeable
        # per-(m, a0, a1) factors repeated over ai: the same bytes
        assert H.tobytes() == _closed_whole_grid(grid, n).tobytes(), n


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
    # order; the reference is the tuple-key sort over the prefiltered entries
    cfg = C.DEFAULT_CONFIG
    grid = C._markov_grid(cfg.m_max)
    cases = []
    for spec in ("markov:flip=1/10", "bernoulli:p=3/10"):
        model = processes.parse_model_spec(spec)
        for n in (1 << 10, 1 << 12):
            for seed in (1, 2):
                cases.append(processes.sample(model, n, seed))
    for x in cases:
        st = C.string_stats(x)
        n = st.n
        base = 3 + nat_code_len(n)
        margin = 1e-6 + 1e-12 * n
        Hcf_all = grid.entropies_closed(n)
        eps_query = ComplexityQuery(delta=Fraction(0), eps=Fraction(1, 10), mode="upper")
        T_f = float(C.khat_value(st, cfg, "upper") + eps_query.resolve_Delta(n))
        for delta_f in (0.0, 0.25):
            for m in range(1, cfg.m_max + 1):
                desc = base + nat_code_len(m) + 3 * m
                sl = grid.m_slices[m]
                Hcf = Hcf_all[sl]
                v = (
                    (grid.li1 if st.first else grid.li0)[sl]
                    + st.n00 * grid.c00[sl]
                    + st.n01 * grid.c01[sl]
                    + st.n10 * grid.c10[sl]
                    + st.n11 * grid.c11[sl]
                )
                typ = v <= Hcf * (1.0 + delta_f) + E.TYPICALITY_SLACK + margin
                fits = (desc + Hcf) <= T_f + margin
                for budget, mask in ((None, typ), ((desc, T_f), typ & fits)):
                    ref = sorted(
                        np.flatnonzero(mask).tolist(),
                        key=lambda i: (
                            Hcf[i],
                            int(grid.a0[sl.start + i]),
                            int(grid.a1[sl.start + i]),
                            int(grid.ai[sl.start + i]),
                        ),
                    )
                    start, v_out, order = C._markov_stragglers(st, grid, m, delta_f, budget)
                    assert start == sl.start
                    assert np.array_equal(v_out, v)
                    assert order.tolist() == ref

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
    monkeypatch.setattr(C, "_STRAGGLER_CAP", None)
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
