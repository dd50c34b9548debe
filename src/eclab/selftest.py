"""Invariant suites and a naive reference implementation of the minimizers.

The reference functions below transcribe the defining minimizations
directly: they enumerate the whole candidate family, evaluate exact
rational probabilities by brute force, and take minima with the
documented tie-break (description length, total information,
serialization). They share only the ensemble primitives (prob, entropy,
desc_len, typicality) with the optimized searches, so agreement checks
exercise the search logic itself.

`run_selftest` executes the exhaustive small-size suites and prints one
line per suite with pass counts; it is wired to the CLI `selftest`
subcommand and sized to finish within minutes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from . import codec, complexity, ensembles as ens, lz78, processes, typical_sets

__all__ = [
    "naive_khat",
    "naive_ec",
    "naive_coarse_ec",
    "SuiteResult",
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


def naive_ec(
    x: str, delta, Delta, cfg: complexity.FamilyConfig, khat: int
) -> tuple[Optional[int], Optional[ens.Ensemble]]:
    """Naive ec; `khat` is naive_khat(x, cfg)[0], scored once per x by the caller."""
    T = khat + Fraction(Delta)
    scored = []
    for e in naive_family(x, cfg):
        # the typicality test already rejects strings outside the support
        if not ens.is_delta_typical(e, x, delta):
            continue
        if not complexity.budget_fits(ens.total_info(e), T):
            continue
        d = ens.desc_len(e)
        scored.append(((d, d, ens.total_info(e)), e))
    best = _naive_min(scored)
    if best is None:
        return None, None
    return best[0][0], best[1]


def naive_coarse_ec(
    x: str, delta, cfg: complexity.FamilyConfig, khat: int
) -> tuple[float, ens.Ensemble]:
    """Naive coarse ec; `khat` is naive_khat(x, cfg)[0], scored once per x by the caller."""
    scored = []
    for e in naive_family(x, cfg):
        if not ens.is_delta_typical(e, x, delta):
            continue
        d = ens.desc_len(e)
        obj = 2 * d + ens.entropy(e)
        scored.append(((obj, d, ens.total_info(e)), e))
    best = _naive_min(scored)
    return float(best[0][0]) - khat, best[1]


# --- suites --------------------------------------------------------------------

class SuiteResult:
    def __init__(self, name: str, cases: int, failures: list[str]):
        self.name = name
        self.cases = cases
        self.failures = failures

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


def _suite_lz_roundtrip(fast: bool) -> SuiteResult:
    failures = []
    cases = 0
    for n in range(1, (10 if fast else 12) + 1):
        for x, _ in lz78.iter_with_code_len(n):
            cases += 1
            if lz78.decode(lz78.encode(x)) != x:
                failures.append(f"x={x}")
    model = processes.Bernoulli(Fraction(1, 2))
    lengths = [(1 << k) + (k % 3) for k in range(1, 17 if fast else 21)]
    for i, n in enumerate(lengths):
        cases += 1
        x = processes.sample(model, n, seed=1000 + i)
        if lz78.decode(lz78.encode(x)) != x:
            failures.append(f"random n={n}")
    return SuiteResult("lz-roundtrip", cases, failures)


def _suite_lz_kraft(fast: bool) -> SuiteResult:
    failures = []
    top = 12 if fast else 14
    for n in range(1, top + 1):
        if lz78.kraft_sum(n) > 1:
            failures.append(f"n={n}")
    return SuiteResult("lz-kraft", top, failures)


def _suite_size_bound(fast: bool) -> SuiteResult:
    failures = []
    cases = 0
    top = 12 if fast else 14
    for n in range(1, top + 1):
        for k in range(1, 17):
            spec = typical_sets.TypicalSetSpec(Fraction(k, 8), n)
            cases += 1
            if not typical_sets.size_bound_holds(spec, typical_sets.cardinality(spec)):
                failures.append(f"r={k}/8 n={n}")
    return SuiteResult("typical-size-bound", cases, failures)


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


def _suite_monotone_thm4(fast: bool) -> SuiteResult:
    failures = []
    cases = 0
    cfg = complexity.DEFAULT_CONFIG
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1))
    Deltas = [Fraction(v) for v in range(0, 17, 4)]
    top = 7 if fast else 8
    for n in range(1, top + 1):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            coarse = {d: complexity.coarse_ec(x, d, "exact", cfg).coarse_ec for d in deltas}
            for d in deltas:
                prev_ec = None
                seen_value = False
                for D in Deltas:
                    rep = complexity.ec(
                        x, complexity.ComplexityQuery(delta=d, Delta=D, mode="exact"), cfg
                    )
                    cases += 1
                    if rep.ec is not None:
                        if coarse[d] > float(D) + rep.ec + 1e-12:
                            failures.append(f"x={x} d={d} D={D}: coarse > Delta + ec")
                        if prev_ec is not None and rep.ec > prev_ec:
                            failures.append(f"x={x} d={d} D={D}: ec increased in Delta")
                        prev_ec = rep.ec
                        seen_value = True
                    elif seen_value:
                        failures.append(f"x={x} d={d} D={D}: domain emptied as Delta grew")
            for D in Deltas:
                vals = [
                    complexity.ec(
                        x, complexity.ComplexityQuery(delta=d, Delta=D, mode="exact"), cfg
                    ).ec
                    for d in deltas
                ]
                for a, b in zip(vals, vals[1:]):
                    cases += 1
                    if a is not None and b is not None and b > a:
                        failures.append(f"x={x} D={D}: ec increased in delta")
    return SuiteResult("monotone-thm4", cases, failures)


def _suite_oracle(fast: bool) -> SuiteResult:
    failures = []
    cases = 0
    cfg = complexity.FamilyConfig(m_max=2)
    deltas = (Fraction(0), Fraction(1, 4), Fraction(1))
    Deltas = [Fraction(v) for v in range(0, 17, 4)]
    top = 5 if fast else 6
    for n in range(1, top + 1):
        for v in range(1 << n):
            x = format(v, f"0{n}b")
            cases += 1
            kv, kw = complexity.khat(x, cfg, "exact")
            nkv, nkw = naive_khat(x, cfg)
            if kv != nkv or ens.serialize(kw) != ens.serialize(nkw):
                failures.append(f"khat x={x}: {kv}/{kw} vs {nkv}/{nkw}")
            for d in deltas:
                rep = complexity.coarse_ec(x, d, "exact", cfg)
                nval, nwit = naive_coarse_ec(x, d, cfg, khat=nkv)
                cases += 1
                if rep.coarse_ec != nval or ens.serialize(rep.witness) != ens.serialize(nwit):
                    failures.append(f"coarse x={x} d={d}")
                for D in Deltas:
                    rep = complexity.ec(
                        x, complexity.ComplexityQuery(delta=d, Delta=D, mode="exact"), cfg
                    )
                    nv, nw = naive_ec(x, d, D, cfg, khat=nkv)
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


ALL_SUITES = {
    "codec-roundtrip": _suite_codec_roundtrip,
    "codec-prefix-free": _suite_codec_prefix_free,
    "codec-kraft": _suite_codec_kraft,
    "lz-roundtrip": _suite_lz_roundtrip,
    "lz-kraft": _suite_lz_kraft,
    "typical-size-bound": _suite_size_bound,
    "typical-monotone": _suite_typical_monotone,
    "ensemble-serialization": _suite_ensemble_serialization,
    "monotone-thm4": _suite_monotone_thm4,
    "oracle-equivalence": _suite_oracle,
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
