"""Invariant checks and a naive reference implementation of the minimizers.

The reference functions below transcribe the defining minimizations
directly: they enumerate the whole candidate family, evaluate exact
rational probabilities by brute force, and take minima with the
documented tie-break (description length, total information,
serialization). They share only the ensemble primitives (prob, entropy,
desc_len, typicality) and the budget test with the optimized searches, so
agreement checks exercise the search logic itself. Each family member is
scored once per (x, delta) (`naive_typical`); every ec budget and the
coarse objective are then a filter and a minimum over that list.

Each paper claim has one check here, sized by its parameters and
returning a `SuiteResult`: `check_size_bound`, `check_lz_kraft`,
`check_lz_roundtrip`, `check_thm4` and `check_oracle`. `ALL_SUITES` runs
them at a fast and a full size for the CLI `selftest` subcommand, which
prints one line per suite with its case count; the acceptance criteria in
tests/test_acceptance.py call the same checks at larger sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import codec, complexity, ensembles as ens, lz78, processes, typical_sets

__all__ = [
    "naive_khat",
    "naive_typical",
    "naive_ec",
    "naive_coarse_ec",
    "SuiteResult",
    "check_size_bound",
    "check_lz_kraft",
    "check_lz_roundtrip",
    "check_thm4",
    "check_oracle",
    "run_selftest",
    "ALL_SUITES",
]


# --- naive reference ---------------------------------------------------------

def naive_family(x: str, cfg: complexity.FamilyConfig) -> Iterator[ens.Ensemble]:
    """Every candidate ensemble for x, straight from the definition."""
    n = len(x)
    yield ens.SingletonRaw(x)
    yield ens.SingletonLZ(x)
    yield ens.UniformAll(n)
    for r in cfg.r_grid:
        if typical_sets.contains(typical_sets.TypicalSetSpec(r, n), x):
            yield ens.UniformTypical(r, n)
    for m in range(1, cfg.m_max + 1):
        for a in range(1, 1 << m):
            yield ens.IIDQuantized(n, m, a)
    for m in range(1, cfg.m_max + 1):
        top = 1 << m
        for a0 in range(1, top):
            for a1 in range(1, top):
                for ai in range(1, top):
                    yield ens.MarkovQuantized(n, m, a0, a1, ai)


def naive_ceil_neg_log2(p: Fraction) -> int:
    """Smallest t >= 0 with p * 2^t >= 1, for 0 < p <= 1."""
    if p <= 0 or p > 1:
        raise ValueError("probability must be in (0, 1]")
    num, den = p.numerator, p.denominator
    t = max(0, den.bit_length() - num.bit_length() - 1)
    while (num << t) < den:
        t += 1
    return t


def _naive_min(scored) -> Optional[tuple]:
    """Minimum by (value..., serialization); the serialization is compared
    only on exact ties of the numeric keys."""
    best = None
    best_serial = None
    for key_main, e in scored:
        if best is None or key_main < best[0]:
            best = (key_main, e)
            best_serial = None
        elif key_main == best[0]:
            if best_serial is None:
                best_serial = ens.serialize(best[1])
            s = ens.serialize(e)
            if s < best_serial:
                best = (key_main, e)
                best_serial = s
    if best is None:
        return None
    return (best[0], best[1])


def naive_khat(x: str, cfg: complexity.FamilyConfig) -> tuple[int, ens.Ensemble]:
    scored = []
    for e in naive_family(x, cfg):
        p = ens.prob(e, x)
        if p <= 0:
            continue
        value = ens.desc_len(e) + naive_ceil_neg_log2(p)
        scored.append(((value, ens.desc_len(e), ens.total_info(e)), e))
    best = _naive_min(scored)
    return best[0][0], best[1]


def naive_typical(x: str, delta, cfg: complexity.FamilyConfig) -> list[tuple]:
    """(ensemble, desc, H, Sigma) for every family member that is delta-typical
    for x; the typicality test already rejects strings outside the support."""
    return [
        (e, ens.desc_len(e), ens.entropy(e), ens.total_info(e))
        for e in naive_family(x, cfg)
        if ens.is_delta_typical(e, x, delta)
    ]


def naive_ec(
    typical: list[tuple], Delta, khat: int
) -> tuple[Optional[int], Optional[ens.Ensemble]]:
    """Naive ec over `typical` = naive_typical(x, delta, cfg), with `khat` =
    naive_khat(x, cfg)[0]; the caller scores them once per (x, delta) and per x."""
    T = khat + Fraction(Delta)
    best = _naive_min(((d, d, s), e) for e, d, _h, s in typical if complexity.budget_fits(s, T))
    if best is None:
        return None, None
    return best[0][0], best[1]


def naive_coarse_ec(typical: list[tuple], khat: int) -> tuple[float, ens.Ensemble]:
    """Naive coarse ec over the same `typical` list and `khat` as naive_ec."""
    best = _naive_min(((2 * d + h, d, s), e) for e, d, h, s in typical)
    return float(best[0][0]) - khat, best[1]


# --- suites --------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        if self.ok:
            return f"suite {self.name}: ok ({self.cases} cases)"
        return (
            f"suite {self.name}: FAILED {len(self.failures)}/{self.cases} cases; "
            f"first: {self.failures[0]}"
        )


def _suite_codec_roundtrip(fast: bool) -> SuiteResult:
    failures = []
    cases = 0
    top = 1 << (14 if fast else 16)
    for n in range(1, top + 1):
        cases += 1
        word = codec.encode_nat(n)
        got, used = codec.decode_nat(word + "101")
        if got != n or used != len(word) or len(word) != codec.nat_code_len(n):
            failures.append(f"n={n}")
    n = 1
    while n <= (1 << 20):
        cases += 1
        got, used = codec.decode_nat(codec.encode_nat(n))
        if got != n:
            failures.append(f"n={n}")
        n = n * 3 + 1
    return SuiteResult("codec-roundtrip", cases, failures)


def _suite_codec_prefix_free(fast: bool) -> SuiteResult:
    top = 1 << (10 if fast else 12)
    words = {codec.encode_nat(n) for n in range(1, top + 1)}
    failures = []
    for w in words:
        for cut in range(1, len(w)):
            if w[:cut] in words:
                failures.append(f"{w[:cut]} is a prefix of {w}")
    return SuiteResult("codec-prefix-free", len(words), failures)


def _suite_codec_kraft(fast: bool) -> SuiteResult:
    top = 1 << (14 if fast else 16)
    by_len: dict[int, int] = {}
    for n in range(1, top + 1):
        length = codec.nat_code_len(n)
        by_len[length] = by_len.get(length, 0) + 1
    total = sum((Fraction(c, 1 << L) for L, c in by_len.items()), Fraction(0))
    failures = [] if total <= 1 else [f"Kraft sum {total} > 1"]
    return SuiteResult("codec-kraft", top, failures)


def _all_strings(n_max: int) -> Iterator[str]:
    """Every x with 1 <= len(x) <= n_max, by length, then lexicographically."""
    for n in range(1, n_max + 1):
        for v in range(1 << n):
            yield format(v, f"0{n}b")


def check_lz_roundtrip(n_max: int, lengths: list[int], seed0: int) -> SuiteResult:
    """decode(encode(x)) == x for every x with n <= n_max, and for one fair-coin
    path of each length in `lengths` (path i seeded seed0 + i)."""
    failures = [f"x={x}" for x in _all_strings(n_max) if lz78.decode(lz78.encode(x)) != x]
    model = processes.Bernoulli(Fraction(1, 2))
    for i, n in enumerate(lengths):
        x = processes.sample(model, n, seed=seed0 + i)
        if lz78.decode(lz78.encode(x)) != x:
            failures.append(f"random n={n}")
    return SuiteResult("lz-roundtrip", (1 << (n_max + 1)) - 2 + len(lengths), failures)


def check_lz_kraft(n_max: int) -> SuiteResult:
    """For n <= n_max, the LZ code-length histogram of {0,1}^n counts all 2^n
    strings and the exact Kraft sum of the LZ code over {0,1}^n is <= 1."""
    failures = [
        f"n={n}" for n in range(1, n_max + 1)
        if sum(lz78.code_length_counts(n).values()) != 1 << n or lz78.kraft_sum(n) > 1
    ]
    return SuiteResult("lz-kraft", n_max, failures)


def check_size_bound(n_max: int) -> SuiteResult:
    """|T(r, n)| <= 2^(r n), exactly, for n <= n_max and r on the eighth grid 1/8 .. 2."""
    failures = []
    for n in range(1, n_max + 1):
        for k in range(1, 17):
            spec = typical_sets.TypicalSetSpec(Fraction(k, 8), n)
            if not typical_sets.size_bound_holds(spec, typical_sets.cardinality(spec, n_max)):
                failures.append(f"r={k}/8 n={n}")
    return SuiteResult("typical-size-bound", 16 * n_max, failures)


def _suite_typical_monotone(fast: bool) -> SuiteResult:
    failures = []
    cases = 0
    top = 10 if fast else 12
    for n in range(1, top + 1):
        prev = -1
        for k in range(1, 17):
            card = typical_sets.cardinality(typical_sets.TypicalSetSpec(Fraction(k, 8), n))
            cases += 1
            if card < prev:
                failures.append(f"r={k}/8 n={n}")
            prev = card
    return SuiteResult("typical-monotone", cases, failures)


def _suite_ensemble_serialization(fast: bool) -> SuiteResult:
    failures = []
    members: list[ens.Ensemble] = []
    for n in (1, 2, 5):
        members.append(ens.UniformAll(n))
        for m in (1, 2, 3):
            for a in (1, (1 << m) - 1):
                members.append(ens.IIDQuantized(n, m, a))
            members.append(ens.MarkovQuantized(n, m, 1, (1 << m) - 1, 1))
    for x in ("0", "10", "1101", "0000011"):
        members.append(ens.SingletonRaw(x))
        members.append(ens.SingletonLZ(x))
        members.append(ens.UniformTypical(Fraction(2), len(x)))
    for e in members:
        bits = ens.serialize(e)
        if len(bits) != ens.desc_len(e):
            failures.append(f"{e}: serialized {len(bits)} != desc_len {ens.desc_len(e)}")
            continue
        back, used = ens.decode_ensemble_prefix(bits + "0101")
        if back != e or used != len(bits):
            failures.append(f"{e}: decode mismatch")
    return SuiteResult("ensemble-serialization", len(members), failures)


def check_thm4(n_max: int, deltas: list[Fraction], Deltas: list[Fraction]) -> SuiteResult:
    """Theorem 4 and anti-monotonicity in exact mode, for every x with n <= n_max.

    One case per (x, delta, Delta) cell: coarse_ec <= Delta + ec, ec is
    nonincreasing in Delta, and a domain once nonempty stays nonempty as
    Delta grows. One case per Delta and adjacent pair of deltas: ec is
    nonincreasing in delta.
    """
    failures = []
    cases = 0
    for x in _all_strings(n_max):
        table = {}
        for d in deltas:
            coarse = complexity.coarse_ec(x, d, "exact").coarse_ec
            prev = None  # the last ec value seen as Delta grew
            for D in Deltas:
                query = complexity.ComplexityQuery(delta=d, Delta=D, mode="exact")
                value = table[d, D] = complexity.ec(x, query).ec
                cases += 1
                if value is None:
                    if prev is not None:
                        failures.append(f"x={x} d={d} D={D}: domain emptied as Delta grew")
                    continue
                if coarse > float(D) + value + 1e-12:
                    failures.append(f"x={x} d={d} D={D}: coarse > Delta + ec")
                if prev is not None and value > prev:
                    failures.append(f"x={x} d={d} D={D}: ec increased in Delta")
                prev = value
        for D in Deltas:
            for a, b in zip(deltas, deltas[1:]):
                cases += 1
                ec_a, ec_b = table[a, D], table[b, D]
                if ec_a is not None and ec_b is not None and ec_b > ec_a:
                    failures.append(f"x={x} D={D}: ec increased in delta")
    return SuiteResult("monotone-thm4", cases, failures)


def check_oracle(
    n_max: int, cfg: complexity.FamilyConfig, deltas: list[Fraction], Deltas: list[Fraction]
) -> SuiteResult:
    """khat, coarse_ec and ec in exact mode against the naive reference, value
    and witness serialization, for every x with n <= n_max: one case per x,
    per (x, delta) and per (x, delta, Delta)."""
    failures = []
    cases = 0
    for x in _all_strings(n_max):
        cases += 1
        kv, kw = complexity.khat(x, cfg, "exact")
        nkv, nkw = naive_khat(x, cfg)
        if kv != nkv or ens.serialize(kw) != ens.serialize(nkw):
            failures.append(f"khat x={x}: {kv}/{kw} vs {nkv}/{nkw}")
        for d in deltas:
            typical = naive_typical(x, d, cfg)
            rep = complexity.coarse_ec(x, d, "exact", cfg)
            nval, nwit = naive_coarse_ec(typical, nkv)
            cases += 1
            if rep.coarse_ec != nval or ens.serialize(rep.witness) != ens.serialize(nwit):
                failures.append(f"coarse x={x} d={d}")
            for D in Deltas:
                rep = complexity.ec(
                    x, complexity.ComplexityQuery(delta=d, Delta=D, mode="exact"), cfg
                )
                nv, nw = naive_ec(typical, D, nkv)
                cases += 1
                if (rep.ec, rep.ec_empty) != (nv, nv is None):
                    failures.append(f"ec x={x} d={d} D={D}: {rep.ec} vs {nv}")
                elif nw is not None and ens.serialize(rep.witness) != ens.serialize(nw):
                    failures.append(f"ec witness x={x} d={d} D={D}")
    return SuiteResult("oracle-equivalence", cases, failures)


def _suite_determinism(fast: bool) -> SuiteResult:
    failures = []
    model = processes.parse_model_spec("markov:flip=1/10")
    a = processes.sample(model, 4096, seed=42)
    b = processes.sample(model, 4096, seed=42)
    if a != b:
        failures.append("sample not reproducible")
    return SuiteResult("determinism", 1, failures)


_DELTAS = [Fraction(0), Fraction(1, 4), Fraction(1)]
_BUDGETS = [Fraction(v) for v in range(0, 17, 4)]

# suite name -> run(fast); the shared checks run here at their fast and full sizes
ALL_SUITES = {
    "codec-roundtrip": _suite_codec_roundtrip,
    "codec-prefix-free": _suite_codec_prefix_free,
    "codec-kraft": _suite_codec_kraft,
    "lz-roundtrip": lambda fast: check_lz_roundtrip(
        10 if fast else 12, [(1 << k) + (k % 3) for k in range(1, 17 if fast else 21)], 1000
    ),
    "lz-kraft": lambda fast: check_lz_kraft(12 if fast else 14),
    "typical-size-bound": lambda fast: check_size_bound(12 if fast else 14),
    "typical-monotone": _suite_typical_monotone,
    "ensemble-serialization": _suite_ensemble_serialization,
    "monotone-thm4": lambda fast: check_thm4(7 if fast else 8, _DELTAS, _BUDGETS),
    "oracle-equivalence": lambda fast: check_oracle(
        5 if fast else 6, complexity.FamilyConfig(m_max=2), _DELTAS, _BUDGETS
    ),
    "determinism": _suite_determinism,
}


def run_selftest(names: list[str] | None = None, fast: bool = False) -> list[SuiteResult]:
    chosen = names or list(ALL_SUITES)
    results = []
    for name in chosen:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
        results.append(ALL_SUITES[name](fast))
    return results
