"""Deterministic command-line front end.

Every stochastic subcommand requires an explicit --seed; identical argv
produce byte-identical output. --threads is accepted and ignored, so older
argv stay valid. Exit codes:
0 success, 1 usage error or failed selftest, 2 domain/decode error,
3 resource-bound error. Rationals cross the boundary as "a/b" text and
strings as ASCII '0'/'1'.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import complexity, ensembles as ens, lz78, processes, selftest, typical_sets
from .codec import is_bits, nat_code_len
from .complexity import ComplexityQuery, ComplexityReport, Constraint
from .errors import DecodeError, ResourceLimitError

REPORT_COLUMNS = [
    "n",
    "sample",
    "seed",
    "lz_len",
    "khat",
    "ec",
    "ec_mode",
    "coarse_ec",
    "witness_tag",
    "witness_params",
    "delta",
    "Delta",
]

SWEEP_COLUMNS = [
    "n",
    "samples",
    "seed",
    "eps",
    "delta",
    "fraction_budget_satisfied",
    "median_ec_upper",
    "n_empty",
    "reference_bits",
    "c_scheme",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def _fraction(flag: str):
    def parse(text: str) -> Fraction:
        try:
            return processes._parse_fraction(text, flag)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    return parse


def _bits_arg(text: str, flag: str) -> str:
    if not text:
        raise ValueError(f"{flag}: string must be nonempty")
    if not is_bits(text):
        raise ValueError(f"{flag}: string must consist of '0'/'1'")
    return text


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    return str(value)


def _emit(rows: list[dict], columns: list[str], args, extra: dict | None = None) -> None:
    if args.format == "json":
        doc = {"rows": [{c: _json_cell(r.get(c)) for c in columns} for r in rows]}
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_cell(r.get(c)) for c in columns])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _json_cell(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _report_row(report: ComplexityReport, kind: str, sample=0, seed="") -> dict:
    tag = params = ""
    if report.witness is not None:
        tag, params = ens.format_ensemble(report.witness)
    ec_field = ""
    coarse_field = None
    if kind == "ec":
        ec_field = "EMPTY-DOMAIN" if report.ec_empty else report.ec
    if kind == "coarse":
        coarse_field = "EMPTY-DOMAIN" if report.ec_empty else report.coarse_ec
    return {
        "n": report.n,
        "sample": sample,
        "seed": seed,
        "lz_len": report.lz_len,
        "khat": report.khat,
        "ec": ec_field,
        "ec_mode": report.mode,
        "coarse_ec": coarse_field,
        "witness_tag": tag,
        "witness_params": params,
        "delta": report.delta_text,
        "Delta": report.Delta_text,
    }


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--threads", type=int, default=1, help="accepted and ignored")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(prog="eclab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="sample strings from a process model")
    p.add_argument("--model", required=True)
    p.add_argument("--model-file", default=None, help="read the model document from a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    _add_common(p)

    p = subs.add_parser("lz", help="LZ78 parse/code/decode of a string")
    p.add_argument("--x", default=None)
    p.add_argument("--decode", default=None, help="bit stream produced by encode")
    p.add_argument("--emit-bits", action="store_true")
    _add_common(p)

    p = subs.add_parser("typical", help="typical-set cardinalities or Monte Carlo mass")
    p.add_argument("--r-list", required=True, help="comma-separated rationals a/b")
    p.add_argument("--n-list", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)

    for name in ("khat", "ec", "coarse-ec"):
        p = subs.add_parser(name, help=f"{name} of a string")
        p.add_argument("--x", required=True)
        p.add_argument("--mode", choices=("exact", "upper", "auto"), default="auto")
        if name != "khat":
            p.add_argument("--delta", required=True)
        if name == "ec":
            p.add_argument("--Delta", default=None)
            p.add_argument("--eps", default=None)
        if name != "khat":
            p.add_argument("--constraint", default=None)
        _add_common(p)

    p = subs.add_parser("sweep-theorem1", help="budget check along growing lengths")
    p.add_argument("--model", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", default="0")
    p.add_argument("--n-list", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("scan-max-coarse", help="exhaustive coarse-complexity scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True)
    _add_common(p)

    p = subs.add_parser("selftest", help="run the exhaustive invariant suites")
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--fast", action="store_true")
    _add_common(p)
    return parser


def _load_model(args) -> processes.ProcessModel:
    text = args.model
    if getattr(args, "model_file", None):
        with open(args.model_file, "r", encoding="utf-8") as f:
            text = f.read()
    try:
        return processes.parse_model_spec(text)
    except ValueError as exc:
        raise UsageError(f"--model: {exc}")


def _cmd_gen(args) -> int:
    model = _load_model(args)
    paths = processes.sample_paths(model, args.n, args.seed, args.count)
    rows = [
        {"sample": i, "seed": args.seed, "n": args.n, "component": comp, "bits": bits}
        for i, (bits, comp) in enumerate(paths)
    ]
    _emit(rows, ["sample", "seed", "n", "component", "bits"], args)
    return 0


def _cmd_lz(args) -> int:
    if (args.x is None) == (args.decode is None):
        raise UsageError("lz: give exactly one of --x and --decode")
    if args.decode is not None:
        bits = _bits_arg(args.decode, "--decode")
        x = lz78.decode(bits)
        _emit([{"n": len(x), "bits": x}], ["n", "bits"], args)
        return 0
    x = _bits_arg(args.x, "--x")
    parsed = lz78.parse(x)
    encoded = lz78.encode(x, parsed)
    row = {
        "n": len(x),
        "lz_len": len(encoded) - nat_code_len(len(x)),
        "complete_phrases": parsed.complete_count,
        "has_partial": int(parsed.has_partial),
        "encoded_len": len(encoded),
    }
    columns = ["n", "lz_len", "complete_phrases", "has_partial", "encoded_len"]
    if args.emit_bits:
        row["encoded"] = encoded
        columns.append("encoded")
    _emit([row], columns, args)
    return 0


def _cmd_typical(args) -> int:
    rs = [_fraction("--r-list")(v) for v in args.r_list.split(",") if v]
    ns = _int_list(args.n_list, "--n-list")
    model = None
    if args.model:
        model = _load_model(args)
        if args.samples is None or args.seed is None:
            raise UsageError("typical: --model requires --samples and --seed")
    rows = []
    for n in ns:
        for r in rs:
            spec = typical_sets.TypicalSetSpec(r, n)
            if model is None:
                value = typical_sets.cardinality(spec)
                method = "exact"
            else:
                value = typical_sets.empirical_prob(spec, model, args.samples, args.seed)
                method = "monte-carlo"
            rows.append(
                {
                    "r": r,
                    "n": n,
                    "cardinality_or_estimate": value,
                    "log2_bound": r * n,
                    "method": method,
                }
            )
    _emit(rows, ["r", "n", "cardinality_or_estimate", "log2_bound", "method"], args)
    return 0


def _cmd_khat(args) -> int:
    x = _bits_arg(args.x, "--x")
    stats = complexity.string_stats(x)
    value, witness = complexity.khat(x, mode=args.mode, stats=stats)
    report = ComplexityReport(
        n=len(x),
        lz_len=stats.lz_len,
        khat=value,
        witness=witness,
        mode=complexity._resolve_mode(args.mode, len(x), complexity.DEFAULT_CONFIG),
        config=complexity.DEFAULT_CONFIG.echo(),
    )
    _emit([_report_row(report, "khat")], REPORT_COLUMNS, args)
    return 0


def _cmd_ec(args) -> int:
    if (args.Delta is None) == (args.eps is None):
        raise UsageError("ec: give exactly one of --Delta and --eps")
    x = _bits_arg(args.x, "--x")
    constraint = Constraint.parse(args.constraint) if args.constraint else None
    query = ComplexityQuery(
        delta=_fraction("--delta")(args.delta),
        Delta=_fraction("--Delta")(args.Delta) if args.Delta is not None else None,
        eps=_fraction("--eps")(args.eps) if args.eps is not None else None,
        mode=args.mode,
        constraint=constraint,
    )
    report = complexity.ec(x, query)
    _emit([_report_row(report, "ec")], REPORT_COLUMNS, args)
    return 0


def _cmd_coarse(args) -> int:
    x = _bits_arg(args.x, "--x")
    constraint = Constraint.parse(args.constraint) if args.constraint else None
    report = complexity.coarse_ec(
        x, _fraction("--delta")(args.delta), mode=args.mode, constraint=constraint
    )
    _emit([_report_row(report, "coarse")], REPORT_COLUMNS, args)
    return 0


def _cmd_sweep(args) -> int:
    model = _load_model(args)
    rows = complexity.theorem1_sweep(
        model,
        eps=_fraction("--eps")(args.eps),
        delta=_fraction("--delta")(args.delta),
        n_list=_int_list(args.n_list, "--n-list"),
        samples=args.samples,
        seed=args.seed,
    )
    print(f"C_scheme = {rows[0].c_scheme} bits", file=sys.stderr)
    _emit(
        [
            {
                "n": r.n,
                "samples": r.samples,
                "seed": r.seed,
                "eps": r.eps,
                "delta": r.delta,
                "fraction_budget_satisfied": r.fraction_budget_satisfied,
                "median_ec_upper": r.median_ec_upper,
                "n_empty": r.n_empty,
                "reference_bits": r.reference_bits,
                "c_scheme": r.c_scheme,
            }
            for r in rows
        ],
        SWEEP_COLUMNS,
        args,
    )
    return 0


def _cmd_scan(args) -> int:
    result = complexity.max_coarse_scan(args.n, _fraction("--delta")(args.delta))
    rows = [
        {
            "kind": "summary",
            "n": result.n,
            "delta": result.delta_text,
            "value": result.max_value,
            "x": result.argmax,
            "count": sum(c for _, c in result.histogram),
        }
    ]
    for value, count in result.histogram:
        rows.append(
            {"kind": "hist", "n": result.n, "delta": result.delta_text, "value": value,
             "x": "", "count": count}
        )
    _emit(rows, ["kind", "n", "delta", "value", "x", "count"], args)
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run_selftest(args.suite, fast=args.fast)
    for res in results:
        print(res.line())
    return 0 if all(r.ok for r in results) else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "lz": _cmd_lz,
    "typical": _cmd_typical,
    "khat": _cmd_khat,
    "ec": _cmd_ec,
    "coarse-ec": _cmd_coarse,
    "sweep-theorem1": _cmd_sweep,
    "scan-max-coarse": _cmd_scan,
    "selftest": _cmd_selftest,
}


def _expand_config(argv: list[str]) -> list[str]:
    """Splice `--config FILE` key=value lines in as flags before the user's
    own flags, so explicitly passed flags win (argparse keeps the last value)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        raise UsageError("--config cannot supply the subcommand itself")
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise UsageError(f"--config: {exc}")
    injected: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"--config: expected key=value, got {line!r}")
        injected.extend([f"--{key.strip()}", value.strip()])
    return [rest[0], *injected, *rest[1:]]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_expand_config(list(sys.argv[1:] if argv is None else argv)))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (DecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
