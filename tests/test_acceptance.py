"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Statistical criteria use fixed seeds throughout, so every run is
bit-reproducible.
"""

import csv
import io
import math
import statistics
import time
from fractions import Fraction

from eclab import cli, complexity as C, ensembles as E, lz78, processes, typical_sets as T
from eclab.complexity import ComplexityQuery, FamilyConfig
from eclab.selftest import naive_coarse_ec, naive_ec, naive_khat


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
    assert ok, f"criterion {name}: {detail}"


def test_criterion_1_size_bound():
    t0 = time.monotonic()
    violations = []
    for n in range(1, 19):
        counts = lz78.code_length_counts(n)
        for k in range(1, 17):
            r = Fraction(k, 8)
            card = sum(c for length, c in counts.items() if length * r.denominator < r.numerator * n)
            if card**r.denominator > 1 << (r.numerator * n):
                violations.append((r, n))
    elapsed = time.monotonic() - t0
    _report(
        "1 (size bound |T| <= 2^rn)",
        not violations and elapsed <= 300,
        f"{len(violations)} violations over n<=18 x eighth-grid, {elapsed:.1f}s",
    )


def _random_length_schedule(total: int = 10_000, max_exp: int = 20) -> list[int]:
    """10^4 lengths spanning 1 .. 2^20, heavier at the short end; the top
    bucket is pinned at exactly 2^20."""
    lengths = []
    for k in range(max_exp + 1):
        count = max(1, 5000 >> k)
        for j in range(count):
            if k == max_exp:
                lengths.append(1 << max_exp)
            elif k == 0:
                lengths.append(1)
            else:
                lengths.append((1 << k) + (j * 997) % (1 << k))
    excess = len(lengths) - total
    if excess > 0:
        del lengths[:excess]  # drop surplus length-1 entries, keep the big tail
    while len(lengths) < total:
        lengths.append(1)
    return lengths


def test_criterion_2_kraft_and_faithfulness():
    kraft_bad = [n for n in range(1, 17) if lz78.kraft_sum(n) > 1]
    rt_bad = 0
    checked = 0
    for n in range(1, 17):
        for x, _ in lz78.iter_with_code_len(n):
            checked += 1
            if lz78.decode(lz78.encode(x)) != x:
                rt_bad += 1
    model = processes.Bernoulli(Fraction(1, 2))
    lengths = _random_length_schedule()
    assert len(lengths) == 10_000 and max(lengths) == 1 << 20
    for i, n in enumerate(lengths):
        x = processes.sample(model, n, seed=777 + i)
        checked += 1
        if lz78.decode(lz78.encode(x)) != x:
            rt_bad += 1
    _report(
        "2 (Kraft + faithful coder)",
        not kraft_bad and rt_bad == 0,
        f"Kraft ok for n<=16; {rt_bad} round-trip failures over {checked} strings "
        f"(exhaustive n<=16 + 10^4 random up to 2^20)",
    )


def _median_rate_gap(model, h: float, n: int, seeds: int, seed0: int) -> float:
    paths = processes.sample_paths(model, n, seed0, seeds)
    return statistics.median(abs(lz78.code_len(bits) / n - h) for bits, _ in paths)


def test_criterion_3_brudno_trend():
    cases = []
    for name, model in (
        ("bernoulli(3/10)", processes.Bernoulli(Fraction(3, 10))),
        ("markov(flip 1/10)", processes.Markov(Fraction(1, 10), Fraction(1, 10))),
    ):
        h = processes.entropy_rate(model)
        gaps = [
            _median_rate_gap(model, h, n, seeds=50, seed0=4242) for n in (1 << 10, 1 << 14, 1 << 18)
        ]
        cases.append((name, gaps))
    ok = all(g[0] > g[1] > g[2] and g[2] <= 0.25 for _, g in cases)
    detail = "; ".join(f"{name}: {g[0]:.3f} > {g[1]:.3f} > {g[2]:.3f}" for name, g in cases)
    _report("3 (Brudno rate trend)", ok, detail)


def test_criterion_4_universal_typicality_trend():
    model = processes.Markov(Fraction(1, 10), Fraction(1, 10))
    probs = [
        T.empirical_prob(T.TypicalSetSpec(Fraction(3, 4), n), model, samples=100, seed=99)
        for n in (1 << 12, 1 << 15, 1 << 18)
    ]
    ok = probs[0] <= probs[1] <= probs[2] and probs[2] >= Fraction(9, 10)
    _report(
        "4 (typical mass -> 1)",
        ok,
        "empirical P(T(3/4, n)) = " + " <= ".join(str(p) for p in probs),
    )


def test_criterion_5_theorem1_pipeline():
    model = processes.Markov(Fraction(1, 10), Fraction(1, 10))
    rows = C.theorem1_sweep(
        model,
        eps=Fraction(1, 10),
        delta=Fraction(0),
        n_list=[1 << 12, 1 << 15, 1 << 18],
        samples=50,
        seed=1,
    )
    top = rows[-1]
    c = C.sweep_scheme_constant()
    curve = math.log2(top.n) + 2 * math.log2(math.log2(top.n)) + c
    ok = (
        top.fraction_budget_satisfied >= Fraction(95, 100)
        and top.median_ec_upper is not None
        and top.median_ec_upper <= curve
        and c <= 32
    )
    _report(
        "5 (budget + certified bound)",
        ok,
        f"fraction={top.fraction_budget_satisfied} at n=2^18, median ec-upper="
        f"{top.median_ec_upper} <= {curve:.2f}, C_scheme={c} <= 32",
    )


def test_criterion_6_ergodic_decomposition():
    mix = processes.Mixture(
        (
            (Fraction(1, 2), processes.Bernoulli(Fraction(1, 10))),
            (Fraction(1, 2), processes.Bernoulli(Fraction(1, 2))),
        )
    )
    rates = {0: 0.469, 1: 1.0}
    n = 1 << 18
    correct = 0
    paths = processes.sample_paths(mix, n, seed=2718, count=200)
    for bits, comp in paths:
        rate = lz78.code_len(bits) / n
        guess = min(rates, key=lambda c: abs(rate - rates[c]))
        correct += guess == comp
    ok = correct >= 180
    _report(
        "6 (ergodic decomposition)",
        ok,
        f"component classified by rate: {correct}/200 correct at n=2^18",
    )


def test_criterion_7_coarse_proposition_shape():
    c = C.coarse_scheme_constant()
    results = []
    ok = c <= 24
    for n in (8, 10, 12, 14):
        res = C.max_coarse_scan(n, 0)
        bound = n / 2 + math.log2(n) + c
        results.append((n, res.max_value, bound))
        ok = ok and res.max_value <= bound and sum(cnt for _, cnt in res.histogram) == 1 << n
    _report(
        "7 (coarse shape n/2 + log n + c)",
        ok,
        f"c_scheme={c} <= 24; " + "; ".join(f"n={n}: max={m:.2f} <= {b:.2f}" for n, m, b in results),
    )


def test_criterion_8_theorem4_and_antimonotonicity():
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1))
    Deltas = [Fraction(v) for v in range(0, 33, 2)]
    violations = []
    cases = 0
    for n in range(1, 11):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            coarse = {d: C.coarse_ec(x, d, "exact").coarse_ec for d in deltas}
            table = {}
            for d in deltas:
                prev = None
                for D in Deltas:
                    rep = C.ec(x, ComplexityQuery(delta=d, Delta=D, mode="exact"))
                    table[(d, D)] = rep.ec
                    cases += 1
                    if rep.ec is not None and coarse[d] > float(D) + rep.ec + 1e-9:
                        violations.append(("thm4", x, d, D))
                    if prev is not None and prev is not False:
                        if prev[1] is not None:
                            if rep.ec is None:
                                violations.append(("empty-grew", x, d, D))
                            elif rep.ec > prev[1]:
                                violations.append(("Delta-mono", x, d, D))
                    prev = (D, rep.ec)
            for D in Deltas:
                vals = [table[(d, D)] for d in deltas]
                for a, b in zip(vals, vals[1:]):
                    if a is not None and b is not None and b > a:
                        violations.append(("delta-mono", x, D))
    _report(
        "8 (thm-4 inequality + antimonotonicity)",
        not violations,
        f"{len(violations)} violations over {cases} (x, delta, Delta) cells, n<=10",
    )


def test_criterion_9_oracle_equivalence():
    # family reduced to m_max=3 so the deliberately naive reference (full-family
    # scans in exact rational arithmetic, with naive_khat scored once per x and
    # passed to every query on x) finishes in minutes; both sides see the same family
    cfg = FamilyConfig(m_max=3)
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1))
    Deltas = [Fraction(v) for v in range(0, 33, 2)]
    mismatches = []
    cases = 0
    for n in range(1, 9):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            cases += 1
            kv, kw = C.khat(x, cfg, "exact")
            nkv, nkw = naive_khat(x, cfg)
            if kv != nkv or E.serialize(kw) != E.serialize(nkw):
                mismatches.append(("khat", x))
            for d in deltas:
                rep = C.coarse_ec(x, d, "exact", cfg)
                nval, nwit = naive_coarse_ec(x, d, cfg, khat=nkv)
                cases += 1
                if rep.coarse_ec != nval or E.serialize(rep.witness) != E.serialize(nwit):
                    mismatches.append(("coarse", x, d))
                for D in Deltas:
                    rep = C.ec(x, ComplexityQuery(delta=d, Delta=D, mode="exact"), cfg)
                    nv, nw = naive_ec(x, d, D, cfg, khat=nkv)
                    cases += 1
                    if rep.ec != nv or rep.ec_empty != (nv is None):
                        mismatches.append(("ec", x, d, D))
                    elif nw is not None and E.serialize(rep.witness) != E.serialize(nw):
                        mismatches.append(("ec-witness", x, d, D))
    _report(
        "9 (oracle equivalence)",
        not mismatches,
        f"{len(mismatches)} mismatches over {cases} comparisons, n<=8, full (delta, Delta) grid",
    )


def _cli_bytes(argv: list[str]) -> str:
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, f"CLI failed: {argv}"
    return out.getvalue()


def test_criterion_10_determinism():
    runs = {
        "gen": ["gen", "--model", "bernoulli:p=3/10", "--n", "16384", "--seed", "5",
                "--count", "50"],
        "typical-mc": ["typical", "--r-list", "3/4", "--n-list", "32768", "--model",
                       "markov:flip=1/10", "--samples", "100", "--seed", "12"],
        "sweep": ["sweep-theorem1", "--model", "markov:flip=1/10", "--eps", "1/10",
                  "--n-list", "4096,32768", "--samples", "20", "--seed", "1"],
        "scan": ["scan-max-coarse", "--n", "10", "--delta", "0"],
    }
    bad = []
    for name, argv in runs.items():
        first = _cli_bytes(argv + ["--threads", "1"])
        again = _cli_bytes(argv + ["--threads", "1"])
        threaded = _cli_bytes(argv + ["--threads", "4"])
        if not (first == again == threaded):
            bad.append(name)
    _report(
        "10 (byte-identical reruns)",
        not bad,
        f"{len(bad)} of {len(runs)} stochastic commands differed across reruns/threads",
    )


def test_acceptance_csv_schema_stability():
    # fixed column order for report rows, as documented
    out = _cli_bytes(["ec", "--x", "0000", "--delta", "0", "--Delta", "16"])
    header = next(csv.reader(io.StringIO(out)))
    assert header == [
        "n", "sample", "seed", "lz_len", "khat", "ec", "ec_mode", "coarse_ec",
        "witness_tag", "witness_params", "delta", "Delta",
    ]
