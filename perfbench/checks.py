"""Output checks, run after the timed phase on the first output of every op.

Two parts. For the default seed every op's stdout must match the digest
recorded in `digests.json`. For any seed the output must satisfy the
invariants below, re-derived through eclab's public primitives:

- report rows echo n, and lz_len equals `lz78.code_len(x)`;
- khat witnesses: D + ceil(-log2 E(x)) = khat, exactly;
- ec witnesses: D = ec, x is delta-typical for E, and H + D <= khat + Delta;
- coarse-ec witnesses: x is typical and coarse = 2 D + H - khat;
- every ec/coarse-ec row reports the same khat as the khat query of its x;
- in upper mode a uniform-typical witness is checked with membership in
  T(r, n) and the certified surrogate r*n in place of its entropy;
- Monte Carlo fractions lie in [0, 1] and are a multiple of 1/samples;
- `lz78.decode(lz78.encode(x)) == x`, and `lz --decode` gives x back.

`run()` returns {id(op): [problem, ...]} for the ops that failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from eclab import ensembles as ens
from eclab import lz78, typical_sets

DIGESTS = Path(__file__).with_name("digests.json")
csv.field_size_limit(sys.maxsize)  # lz rows carry strings of 2^20 bits


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def argv_key(argv: list[str]) -> str:
    return hashlib.sha256("\x1f".join(argv).encode()).hexdigest()[:32]


def out_digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:32]


def _single_row(out: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(out)))
    _expect(len(rows) == 1, f"expected one CSV row, got {len(rows)}")
    return rows[0]


class _Context:
    def __init__(self):
        self._lz_len: dict[str, int] = {}
        self.khat_of: dict[str, int] = {}

    def lz_len(self, x: str) -> int:
        if x not in self._lz_len:
            self._lz_len[x] = lz78.code_len(x)
        return self._lz_len[x]


def _witness(row: dict, x: str):
    tag, params = row["witness_tag"], row["witness_params"]
    if tag.startswith("singleton") and "x=" not in params:
        params += f",x={x}"  # long singleton payloads are elided in the report
    e = ens.parse_ensemble_spec(f"{tag}:{params}")
    _expect(ens.support_length(e) == len(x), "witness is supported on another length")
    return e


def _entropy_and_typical(e, x: str, delta: Fraction, mode: str):
    """(H or its certified surrogate, typicality) as the given mode defines them."""
    n = len(x)
    if mode == "upper" and isinstance(e, ens.UniformTypical) and n > typical_sets.DEFAULT_N_MAX:
        return e.r * n, typical_sets.contains(typical_sets.TypicalSetSpec(e.r, n), x)
    return ens.entropy(e), ens.is_delta_typical(e, x, delta)


def _check_report(op, out: str, ctx: _Context, mode: str) -> None:
    row = _single_row(out)
    x = op.x
    _expect(row["n"] == str(len(x)), "n column differs from len(x)")
    _expect(int(row["lz_len"]) == ctx.lz_len(x), "lz_len differs from lz78.code_len(x)")
    _expect(row["ec_mode"] == mode, f"ec_mode {row['ec_mode']!r}, expected {mode!r}")
    khat = int(row["khat"])
    if op.kind == "khat":
        e = _witness(row, x)
        _expect(ens.desc_len(e) + ens.ceil_neg_log2_prob(e, x) == khat,
                "D + ceil(-log2 E(x)) differs from khat")
        ctx.khat_of[x] = khat
        return
    if x in ctx.khat_of:
        _expect(khat == ctx.khat_of[x], "khat differs from the khat query of the same x")
    delta = Fraction(op.meta["delta"])
    _expect(Fraction(row["delta"]) == delta, "delta column differs from the query")
    if op.kind == "ec":
        Delta = Fraction(row["Delta"])
        argv = op.argv
        expected = (Fraction(argv[argv.index("--eps") + 1]) * len(x) if "--eps" in argv
                    else Fraction(argv[argv.index("--Delta") + 1]))
        _expect(Delta == expected, "Delta column differs from the query")
        if row["ec"] == "EMPTY-DOMAIN":
            _expect(row["witness_tag"] == "", "empty domain reported with a witness")
            return
        e = _witness(row, x)
        D = ens.desc_len(e)
        _expect(D == int(row["ec"]), "ec differs from the witness description length")
        H, typical = _entropy_and_typical(e, x, delta, mode)
        _expect(typical, "x is not delta-typical for the witness")
        if isinstance(H, Fraction):
            _expect(D + H <= khat + Delta, "witness exceeds the budget khat + Delta")
        else:
            _expect(D + H <= float(khat + Delta), "witness exceeds the budget khat + Delta")
        return
    e = _witness(row, x)
    H, typical = _entropy_and_typical(e, x, delta, mode)
    _expect(typical, "x is not delta-typical for the witness")
    expected = float(2 * ens.desc_len(e) + H) - khat
    _expect(math.isclose(float(row["coarse_ec"]), expected, rel_tol=1e-12, abs_tol=1e-9),
            "coarse_ec differs from 2 D + H - khat of the witness")


def _check_typical(op, out: str) -> None:
    row = _single_row(out)
    argv = op.argv
    r = Fraction(argv[argv.index("--r-list") + 1])
    n = int(argv[argv.index("--n-list") + 1])
    samples = op.meta["samples"]
    _expect(Fraction(row["r"]) == r and int(row["n"]) == n, "r or n column differs from the query")
    _expect(row["method"] == "monte-carlo", "method is not monte-carlo")
    _expect(Fraction(row["log2_bound"]) == r * n, "log2_bound differs from r*n")
    p = Fraction(row["cardinality_or_estimate"])
    _expect(0 <= p <= 1, "Monte Carlo fraction outside [0, 1]")
    _expect((p * samples).denominator == 1, "fraction is not a multiple of 1/samples")


def _check_lz(op, out: str, ctx: _Context) -> None:
    row = _single_row(out)
    x = op.x
    _expect(row["n"] == str(len(x)), "n column differs from len(x)")
    if op.kind == "lz-decode":
        _expect(row["bits"] == x, "decoded string differs from the encoded one")
        return
    stream = row["encoded"]
    _expect(int(row["encoded_len"]) == len(stream), "encoded_len differs from the stream length")
    _expect(int(row["lz_len"]) == ctx.lz_len(x), "lz_len differs from lz78.code_len(x)")
    _expect(lz78.decode(stream) == x, "lz78.decode(lz78.encode(x)) != x")


def load_digests(workload: str) -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})


def record_digests(workload: str, ops) -> None:
    doc = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table = doc.setdefault(workload, {})
    for op in ops:
        table[argv_key(op.argv)] = out_digest(op.ref[1])
    doc[workload] = dict(sorted(table.items()))
    DIGESTS.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def run(workload: str, ops, digests: dict | None) -> dict[int, list[str]]:
    """Check the reference output of every op; `digests` is None off the default seed."""
    ctx = _Context()
    problems: dict[int, list[str]] = {}
    # khat queries first, so later rows can be compared with them
    for op in sorted(ops, key=lambda o: o.kind != "khat"):
        rc, out, err = op.ref
        found = []
        if rc != 0:
            found.append(f"exit code {rc}: {err.strip()[:200]}")
        else:
            try:
                if op.kind in ("khat", "ec", "coarse-ec"):
                    _check_report(op, out, ctx, "exact" if workload == "exact_small" else "upper")
                elif op.kind == "typical":
                    _check_typical(op, out)
                else:
                    _check_lz(op, out, ctx)
            except CheckFailed as exc:
                found.append(str(exc))
            except (ValueError, KeyError, ArithmeticError, csv.Error) as exc:
                found.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if digests is not None:
            want = digests.get(argv_key(op.argv))
            if want is None:
                found.append("no recorded digest for this op")
            elif want != out_digest(out):
                found.append("stdout differs from the recorded digest")
        if found:
            problems[id(op)] = found
    return problems
