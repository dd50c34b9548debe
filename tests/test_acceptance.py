"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Statistical criteria use fixed seeds throughout, so every run is
bit-reproducible. Criteria 1, 2, 8 and 9 run the `eclab.selftest` checks
that `eclab selftest` also runs, here at larger sizes.
"""

import csv
import io
import math
import statistics
import time
from fractions import Fraction

from eclab import cli, complexity as C, lz78, processes, typical_sets as T
from eclab.complexity import FamilyConfig
from eclab.selftest import (
    check_lz_kraft,
    check_lz_roundtrip,
    check_oracle,
    check_size_bound,
    check_thm4,
)

_DELTAS = [Fraction(0), Fraction(1, 4), Fraction(1)]
_BUDGETS = [Fraction(v) for v in range(0, 33, 2)]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
    assert ok, f"criterion {name}: {detail}"


def test_criterion_1_size_bound():
    t0 = time.monotonic()
    res = check_size_bound(64)
    elapsed = time.monotonic() - t0
    _report(
        "1 (size bound |T| <= 2^rn)",
        res.ok and elapsed <= 300,
        f"{len(res.failures)} violations over {res.cases} (r, n) cells, n<=64 x eighth-grid, "
        f"{elapsed:.1f}s",
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
    lengths = _random_length_schedule()
    assert len(lengths) == 10_000 and max(lengths) == 1 << 20
    kraft = check_lz_kraft(64)
    rt = check_lz_roundtrip(16, lengths, 777)
    _report(
        "2 (Kraft + faithful coder)",
        kraft.ok and rt.ok,
        f"Kraft {'ok' if kraft.ok else 'violated'} for n<=64; {len(rt.failures)} round-trip "
        f"failures over {rt.cases} strings (exhaustive n<=16 + 10^4 random up to 2^20)",
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
    res = check_thm4(10, _DELTAS, _BUDGETS)
    cells = ((1 << 11) - 2) * len(_DELTAS) * len(_BUDGETS)
    _report(
        "8 (thm-4 inequality + antimonotonicity)",
        res.ok,
        f"{len(res.failures)} violations over {res.cases} cases, n<=10: {cells} (x, delta, "
        f"Delta) cells and {res.cases - cells} (x, Delta, delta pair) comparisons",
    )


def test_criterion_9_oracle_equivalence():
    # family reduced to m_max=3 so the deliberately naive reference (full-family
    # scans in exact rational arithmetic, scored once per x and per (x, delta))
    # finishes in seconds; both sides see the same family
    res = check_oracle(8, FamilyConfig(m_max=3), _DELTAS, _BUDGETS)
    _report(
        "9 (oracle equivalence)",
        res.ok,
        f"{len(res.failures)} mismatches over {res.cases} comparisons, n<=8, "
        f"full (delta, Delta) grid",
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
