import contextlib
import csv
import hashlib
import io
import json
import os
import string
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from eclab import cli, complexity


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in data]


def test_ec_reference_invocation(capsys):
    code, out, _ = run(
        ["ec", "--x", "0000", "--delta", "0", "--Delta", "16", "--mode", "exact"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == "4"
    assert row["ec"] != "" and row["ec"] != "EMPTY-DOMAIN"
    assert row["witness_tag"] != ""
    assert row["ec_mode"] == "exact"
    assert row["delta"] == "0" and row["Delta"] == "16"


def test_gen_determinism(capsys):
    argv = ["gen", "--model", "bernoulli:p=1/2", "--n", "16", "--seed", "7", "--count", "2"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = parse_csv(out1)
    assert len(rows) == 2
    assert all(len(r["bits"]) == 16 and set(r["bits"]) <= {"0", "1"} for r in rows)


def test_gen_threads_do_not_change_output(capsys):
    base = ["gen", "--model", "markov:flip=1/10", "--n", "512", "--seed", "3", "--count", "5"]
    _, out1, _ = run(base + ["--threads", "1"], capsys)
    _, out2, _ = run(base + ["--threads", "4"], capsys)
    assert out1 == out2


# sha256 of `gen --count 3 --n 4096` stdout for the benchmark's models, as
# the step-by-step flip-rule sampler printed it
_GEN_DIGESTS = {
    ("markov:flip=1/10", 1): "391ee4f7e6dd62851a8f197af20cf16b49d7b51a1c5ccdbb643d67ef3caf162b",
    ("markov:flip=1/10", 2): "86b9f388ebd0b6123d660e3cf81bfaa614ace6f0bb58a18aa0224ed2da469524",
    ("bernoulli:p=3/10", 1): "5c399f43447755d44ff05915bfbe5c82c2404a874f407b74797a8b0d086bb228",
    ("bernoulli:p=3/10", 2): "f656e026be42ba5dc1fb90776997d3cdaac3491a7db637a3580f55475930419d",
    ("markov:a01=1/5,a10=3/5", 1): "f67af433d67ec5fb1d2a23bfbf573814ef26d5359f9aff166b03b14dc969eb01",
    ("markov:a01=1/5,a10=3/5", 2): "fab26f3b2d0874c998213e8334497cf1f332758260d6180a35431fe80750bc08",
}


def test_gen_output_pinned(capsys):
    for (model, seed), digest in _GEN_DIGESTS.items():
        argv = ["gen", "--model", model, "--n", "4096", "--seed", str(seed), "--count", "3"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (model, seed)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_holds_one_path_at_a_time(fmt, tmp_path, capsys):
    """gen draws and writes its paths one at a time: the traced peak of 64
    paths of 2^16 bits stays within twice that of 2 paths (holding all 64
    would add 4 MB), and --out gets the bytes stdout gets."""
    argv = ["gen", "--model", "bernoulli:p=3/10", "--n", str(1 << 16), "--seed", "1",
            "--format", fmt]
    peaks = {}
    for count in (2, 64):
        out = tmp_path / f"{count}.{fmt}"
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--count", str(count), "--out", str(out)]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 2 * peaks[2], peaks
    code, stdout, _ = run(argv + ["--count", "64"], capsys)
    assert code == 0 and out.read_text(encoding="utf-8") == stdout
    if fmt == "json":  # streamed row by row, as json.dumps writes the whole document
        assert json.dumps(json.loads(stdout), indent=2) + "\n" == stdout
    else:
        assert len(parse_csv(stdout)) == 64


def test_certain_flips_do_not_overflow(capsys):
    # a flip probability of 1 has threshold 2^64, one past the uint64 range
    code, out, _ = run(["gen", "--model", "markov:flip=1", "--n", "8", "--seed", "1",
                        "--count", "6"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert {r["bits"] for r in rows} == {"01010101", "10101010"}
    code, out, _ = run(["typical", "--r-list", "3/4", "--n-list", "64", "--model",
                        "markov:flip=1", "--samples", "4", "--seed", "1"], capsys)
    assert code == 0 and parse_csv(out)[0]["method"] == "monte-carlo"
    code, out, _ = run(["sweep-theorem1", "--model", "markov:flip=1", "--eps", "1/10",
                        "--n-list", "64", "--samples", "2", "--seed", "1"], capsys)
    assert code == 0 and parse_csv(out)[0]["n"] == "64"


def test_lz_roundtrip_via_cli(capsys):
    code, out, _ = run(["lz", "--x", "1011010100010", "--emit-bits"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["lz_len"] == "21"
    assert row["complete_phrases"] == "7"
    code, out, _ = run(["lz", "--decode", row["encoded"]], capsys)
    assert code == 0
    assert parse_csv(out)[0]["bits"] == "1011010100010"


def test_typical_exact_and_monte_carlo(capsys):
    code, out, _ = run(["typical", "--r-list", "2,1/2", "--n-list", "1,2"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["method"] == "exact"
    lookup = {(r["r"], r["n"]): r["cardinality_or_estimate"] for r in rows}
    assert lookup[("2", "1")] == "2"
    assert lookup[("1/2", "2")] == "0"
    code, out, _ = run(
        [
            "typical",
            "--r-list",
            "3/4",
            "--n-list",
            "2048",
            "--model",
            "markov:flip=1/10",
            "--samples",
            "10",
            "--seed",
            "5",
        ],
        capsys,
    )
    assert code == 0
    assert parse_csv(out)[0]["method"] == "monte-carlo"


def test_khat_and_coarse_commands(capsys):
    code, out, _ = run(["khat", "--x", "0"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["khat"] == "5"
    assert row["witness_tag"] == "uniform-all"
    code, out, _ = run(["coarse-ec", "--x", "0", "--delta", "0"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["coarse_ec"] == "4.0"


@pytest.mark.parametrize("x", ["0110", "00000000000000000000000001", "0" * 40 + "1" * 30])
@pytest.mark.parametrize("text", ["mmax=1", "tags=markov-q", "tags=uniform-typ;rmax=1/64"])
def test_coarse_constraint_matches_python_api(x, text, capsys):
    from eclab import complexity, ensembles as ens

    code, out, _ = run(["coarse-ec", "--x", x, "--delta", "1/4", "--constraint", text], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    rep = complexity.coarse_ec(
        x, Fraction(1, 4), mode="auto", constraint=complexity.Constraint.parse(text)
    )
    if rep.ec_empty:
        assert row["coarse_ec"] == "EMPTY-DOMAIN" and row["witness_tag"] == ""
    else:
        assert row["coarse_ec"] == repr(rep.coarse_ec)
        assert (row["witness_tag"], row["witness_params"]) == ens.format_ensemble(rep.witness)
    assert (row["khat"], row["ec_mode"]) == (str(rep.khat), rep.mode)
    # the empty-domain constraint empties it at every length
    assert rep.ec_empty == text.startswith("tags=uniform-typ")


def test_coarse_constraint_errors_and_default(capsys):
    base = ["coarse-ec", "--x", "0110", "--delta", "0"]
    assert run(base + ["--constraint", "tags=bogus"], capsys)[0] == 2
    assert run(base + ["--constraint", "mmax"], capsys)[0] == 2
    assert run(base + ["--constraint", ""], capsys)[1] == run(base, capsys)[1]
    code, out, _ = run(base + ["--format", "json", "--constraint", "tags=uniform-typ;rmax=1/64"],
                       capsys)
    assert code == 0 and json.loads(out)["rows"][0]["coarse_ec"] == "EMPTY-DOMAIN"


def _constraint_error(text, capsys):
    code, out, err = run(["ec", "--x", "0110", "--delta", "0", "--Delta", "4",
                          "--constraint", text], capsys)
    assert (code, out) == (2, ""), text
    return err


def test_constraint_rejects_non_integer_mmax(capsys):
    assert _constraint_error("mmax=x", capsys) == (
        "error: constraint: mmax must be an integer >= 0, got 'x'\n"
    )


def test_constraint_rejects_negative_mmax(capsys):
    assert _constraint_error("mmax=-3", capsys).startswith("error: constraint: mmax must be")


def test_constraint_rejects_repeated_key(capsys):
    assert _constraint_error("mmax=1;mmax=2", capsys) == "error: constraint: key 'mmax' given twice\n"


def test_khat_parses_x_once(capsys, monkeypatch):
    from eclab import lz78

    # every parse runs lz78._code_len_unchecked: code_len calls it after its
    # check, and string_stats after checking x itself
    parsed = []
    unchecked = lz78._code_len_unchecked
    monkeypatch.setattr(lz78, "_code_len_unchecked", lambda x: parsed.append(x) or unchecked(x))
    complexity.string_stats.cache_clear()  # no string kept yet
    code, out, _ = run(["khat", "--x", "0110100110"], capsys)
    assert code == 0 and parse_csv(out)[0]["lz_len"] == str(unchecked("0110100110"))
    assert parsed == ["0110100110"]


def test_ec_then_coarse_ec_parse_one_path_once(capsys, monkeypatch):
    from eclab import lz78, processes

    model = processes.parse_model_spec("markov:flip=1/10")
    (x, _), = processes.sample_paths(model, 1 << 15, 11, 1)
    parsed = []
    unchecked = lz78._code_len_unchecked
    monkeypatch.setattr(lz78, "_code_len_unchecked", lambda s: parsed.append(len(s)) or unchecked(s))
    complexity.string_stats.cache_clear()
    code, ec_out, _ = run(["ec", "--x", x, "--delta", "0", "--eps", "1/10"], capsys)
    assert code == 0
    code, coarse_out, _ = run(["coarse-ec", "--x", x, "--delta", "0"], capsys)
    assert code == 0
    assert parsed == [1 << 15]
    ec_row, coarse_row = parse_csv(ec_out)[0], parse_csv(coarse_out)[0]
    assert ec_row["lz_len"] == coarse_row["lz_len"] == str(unchecked(x))
    assert ec_row["khat"] == coarse_row["khat"]


def _markov_searches(argvs, capsys, monkeypatch):
    """Per query, run in turn: the Markov orders whose block pass it runs
    and the orders it searches, in call order."""
    calls = []
    blocks, confirmed = complexity._markov_blocks, complexity._markov_confirmed
    monkeypatch.setattr(
        complexity, "_markov_blocks", lambda st, m, d: calls[-1][0].append(m) or blocks(st, m, d)
    )
    monkeypatch.setattr(
        complexity, "_markov_confirmed",
        lambda st, m, *args: calls[-1][1].append(m) or confirmed(st, m, *args),
    )
    for argv in argvs:
        calls.append(([], []))
        assert run(argv, capsys)[0] == 0
    return calls


def _flip_path(n):
    from eclab import processes

    model = processes.parse_model_spec("markov:flip=1/10")
    (x, _), = processes.sample_paths(model, n, 11, 1)
    return x


def test_ec_then_coarse_ec_search_each_markov_order_once(capsys, monkeypatch):
    # the benchmark's op pair on an upper_large path: ec --eps reads the block
    # pass of order 3 only, which best-first coarse-ec passes over
    x = _flip_path(1 << 12)
    argvs = (
        ["ec", "--x", x, "--delta", "0", "--eps", "1/10"],
        ["coarse-ec", "--x", x, "--delta", "0"],
    )
    (ec_passes, ec_searches), (coarse_passes, coarse_searches) = _markov_searches(
        argvs, capsys, monkeypatch
    )
    assert ec_passes == [3]
    passes, searches = ec_passes + coarse_passes, ec_searches + coarse_searches
    assert len(passes) == len(set(passes)) and len(searches) == len(set(searches))


def test_lz_encode_trusts_the_parse_it_is_handed(capsys, monkeypatch):
    from eclab import lz78

    # lz --x checks x in the CLI and once more in lz78.parse; encode(x, parsed)
    # does not check it again, while encode(x) checks it through its own parse
    checked = []
    check_bits = lz78.check_bits
    monkeypatch.setattr(
        lz78, "check_bits", lambda x, what: (checked.append(len(x)), check_bits(x, what))[1]
    )
    code, out, _ = run(["lz", "--x", "0110100110", "--emit-bits"], capsys)
    assert code == 0 and lz78.decode(parse_csv(out)[0]["encoded"]) == "0110100110"
    assert checked == [10]
    checked.clear()
    lz78.encode("0110")
    assert checked == [4]


def test_sweep_outputs_aggregates_and_constant(capsys):
    argv = [
        "sweep-theorem1",
        "--model",
        "markov:flip=1/10",
        "--eps",
        "1/10",
        "--n-list",
        "64,256",
        "--samples",
        "4",
        "--seed",
        "1",
    ]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert "C_scheme = 27 bits" in err
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["64", "256"]
    assert all("/" in r["fraction_budget_satisfied"] or r["fraction_budget_satisfied"] in "01"
               for r in rows)
    code2, out2, _ = run(argv + ["--threads", "3"], capsys)
    assert code2 == 0 and out2 == out


def test_scan_schema(capsys):
    code, out, _ = run(["scan-max-coarse", "--n", "4", "--delta", "0"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["kind"] == "summary"
    assert rows[0]["count"] == "16"
    hist = [r for r in rows if r["kind"] == "hist"]
    assert sum(int(r["count"]) for r in hist) == 16


def test_json_format(capsys):
    code, out, _ = run(
        ["ec", "--x", "0000", "--delta", "0", "--Delta", "16", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["n"] == 4
    assert doc["rows"][0]["Delta"] == "16"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "row.csv"
    code, out, _ = run(["khat", "--x", "0110", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text().startswith("n,sample,seed")


def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "x.csv"
    argv = ["gen", "--model", "bernoulli:p=1/2", "--n", "4", "--seed", "1", "--out", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: --out: ") and "No such file or directory" in err
    assert not path.parent.exists()


def test_usage_errors_exit_1(capsys):
    assert run(["ec", "--x", "0000", "--delta", "0"], capsys)[0] == 1  # missing Delta/eps
    assert run(["gen", "--model", "nope:p=1", "--n", "4", "--seed", "1"], capsys)[0] == 1
    assert run(["gen", "--model", "bernoulli:p=1/2", "--n", "4"], capsys)[0] == 1  # no seed
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["lz"], capsys)[0] == 1
    assert run(["ec", "--x", "0", "--delta", "0.5", "--Delta", "2"], capsys)[0] == 1  # decimal
    for flag, argv in (
        ("--delta", ["ec", "--x", "0110", "--Delta", "4", "--delta"]),
        ("--Delta", ["ec", "--x", "0110", "--delta", "0", "--Delta"]),
        ("--eps", ["ec", "--x", "0110", "--delta", "0", "--eps"]),
        ("--r-list", ["typical", "--n-list", "8", "--r-list"]),
    ):
        for text in ("0.5", "1/0", "1e0", "a/b"):  # every rational flag, one parser
            code, out, err = run(argv + [text], capsys)
            assert (code, out) == (1, "") and err.startswith(f"usage error: {flag}: "), (flag, text)
    for model in ("bernoulli:", "bernoulli:p=1/2,q=9", "markov:", "markov:flip=1/2,x=1"):
        code, out, err = run(["gen", "--model", model, "--n", "4", "--seed", "1"], capsys)
        assert code == 1 and out == "" and err.startswith("usage error: --model:")


def test_domain_errors_exit_2(capsys):
    assert run(["lz", "--x", "01a"], capsys)[0] == 2
    assert run(["lz", "--decode", "1111111"], capsys)[0] == 2
    assert run(["khat", "--x", ""], capsys)[0] == 2
    # malformed constraint rationals: a zero denominator or a decimal
    for cmd in (["ec", "--x", "0110", "--delta", "0", "--Delta", "4"],
                ["coarse-ec", "--x", "0110", "--delta", "0"]):
        for text in ("rmin=1/0", "rmax=3/0", "rmin=0.5", "rmax=1/2;rmin=x"):
            code, out, err = run(cmd + ["--constraint", text], capsys)
            assert (code, out) == (2, ""), (cmd, text)
            assert err.startswith("error: constraint: r"), (cmd, text, err)


def test_resource_errors_exit_3(capsys):
    assert run(["typical", "--r-list", "1", "--n-list", "30"], capsys)[0] == 3
    assert run(
        ["ec", "--x", "01" * 20, "--delta", "0", "--Delta", "4", "--mode", "exact"], capsys
    )[0] == 3
    assert run(["scan-max-coarse", "--n", "18", "--delta", "0"], capsys)[0] == 3


def test_selftest_single_suite(capsys):
    code, out, _ = run(["selftest", "--suite", "codec-kraft", "--fast"], capsys)
    assert code == 0
    assert "suite codec-kraft: ok" in out


def test_selftest_unknown_suite(capsys):
    assert run(["selftest", "--suite", "bogus"], capsys)[0] == 2


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=bernoulli:p=1/2\nn=16\nseed=7\ncount=2\n")
    _, out_cfg, _ = run(["gen", "--config", str(cfg)], capsys)
    _, out_flags, _ = run(
        ["gen", "--model", "bernoulli:p=1/2", "--n", "16", "--seed", "7", "--count", "2"],
        capsys,
    )
    assert out_cfg == out_flags
    # explicit flags override config values
    _, out_override, _ = run(["gen", "--config", str(cfg), "--seed", "8"], capsys)
    assert out_override != out_cfg
    assert run(["gen", "--config", str(tmp_path / "missing.cfg")], capsys)[0] == 1
    cfg.write_text("# comment\n\nmodel=bernoulli:p=1/2\nbogus\n")
    assert run(["gen", "--config", str(cfg)], capsys) == (
        1, "", "usage error: --config: expected key=value, got 'bogus'\n"
    )


def test_selftest_catches_corrupted_codec(capsys, monkeypatch):
    # negative control: a mutated decoder must trip the round-trip suite
    from eclab import codec, selftest

    original = codec.decode_nat

    def broken(bits, start=0):
        n, used = original(bits, start)
        return (n + 1 if n == 5 else n), used

    monkeypatch.setattr(selftest.codec, "decode_nat", broken)
    code, out, _ = run(["selftest", "--suite", "codec-roundtrip", "--fast"], capsys)
    assert code == 1
    assert "FAILED" in out


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); --help exits through SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_matches_fresh_parsers(capsys, tmp_path, monkeypatch):
    # a command's own parser reads argv[1:] once; the parsers are built once
    # per process. Every outcome, errors included, must be what a freshly
    # built top-level parser gives, also after a usage error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=1/4\nmode=exact\n")
    commands = [
        ["gen", "--model", "bernoulli:p=1/2", "--n", "16", "--seed", "7", "--count", "2"],
        ["lz", "--x", "0110100", "--emit-bits"],
        ["typical", "--r-list", "1/2,3/4", "--n-list", "8"],
        ["khat", "--x", "0110"],
        ["ec", "--x", "0110", "--bogus", "1"],
        ["khat", "--x", "0110", "--bogus", "1"],  # unrecognized arguments
        ["ec", "--x", "0110", "--delta", "0", "--eps", "1/10"],
        ["ec", "--x", "0110", "--eps", "1/10"],  # missing required --delta
        ["coarse-ec", "--x", "0110", "--delta", "1/4", "--format", "json"],
        ["khat", "--x", "0110", "--mode", "fast"],
        ["gen", "--model", "bernoulli:p=1/2", "--n", "1x6", "--seed", "7"],
        ["sweep-theorem1", "--model", "bernoulli:p=1/2", "--eps", "1/10", "--n-list", "64",
         "--samples", "2", "--seed", "1"],
        ["scan-max-coarse", "--n", "4", "--delta", "0"],
        ["coarse-ec", "--config", str(cfg), "--x", "0110"],
        ["ec", "--help"],
        ["selftest", "--suite", "codec-kraft", "--fast"],
        ["selftest", "--suite", "codec-kraft", "--fast"],
    ]
    top_level = [[], ["bogus", "--x", "0110"], ["--format", "json", "khat", "--x", "0110"],
                 ["--help"], ["--config", str(cfg)]]
    argvs = commands + top_level
    fresh = []
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_parse_args", lambda argv: cli._build_parser()[0].parse_args(argv))
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(_outcome(argv, capsys))
    cli._build_parser.cache_clear()
    parsers = cli._build_parser()
    parser = parsers[0]
    full = []
    parse_args = parser.parse_args
    spy = lambda argv=None, namespace=None: full.append(argv) or parse_args(argv, namespace)
    monkeypatch.setattr(parser, "parse_args", spy)
    cached = [_outcome(argv, capsys) for argv in argvs]
    assert cli._build_parser() is parsers
    assert cached == fresh
    # only the argv that do not start with a command reach the top-level
    # parser; a lone --config fails before any parser
    assert full == top_level[:-1]
    codes = [code for code, _, _ in cached]
    assert codes == [0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, ("exit", 0), 0, 0,
                     1, 1, 1, ("exit", 0), 1]


# CLI cells hold digits, letters and "/-.+=:*_ "; the property adds the
# characters that force quoting. '\r' is left out: no cell can hold one, and
# Python 3.11's writer leaves it unquoted under lineterminator="\n".
_CELLS = st.text(alphabet=string.ascii_letters + string.digits + '/-.+=:*_ ,"\n', max_size=12)


def _table(k):
    header = st.lists(_CELLS, min_size=k, max_size=k, unique=True)
    return st.tuples(header, st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=4))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(2, 6).flatmap(_table))
def test_csv_lines_match_csv_writer(table):
    columns, rows = table
    out = io.StringIO()
    args = SimpleNamespace(format="csv", out=None)
    with contextlib.redirect_stdout(out):
        cli._emit([dict(zip(columns, r)) for r in rows], columns, args)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    assert out.getvalue() == want.getvalue()


def test_lz_command_loads_neither_selftest_nor_statistics():
    code = (
        "import sys; import eclab.cli; eclab.cli.main(['lz', '--x', '0110']); "
        "mods = ('eclab.selftest', 'statistics', 'eclab.complexity', 'eclab.ensembles', "
        "'eclab.lz78', 'eclab.processes', 'eclab.typical_sets'); "
        "print(*(m in sys.modules for m in mods))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    # the spans of the benchmark's tracer look the last five up in sys.modules
    assert out.splitlines()[-1] == "False False True True True True True"



# Runs cli.main under a 2 GiB address-space cap, so a request for more
# memory fails in the child instead of being allocated.
_CAPPED = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "from eclab import cli; sys.exit(cli.main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--model", "bernoulli:p=1/2", "--n", "100000000000", "--seed", "1"],
        ["typical", "--r-list", "3/4", "--n-list", "100000000000", "--model", "bernoulli:p=1/2",
         "--samples", "1", "--seed", "1"],
        ["sweep-theorem1", "--model", "bernoulli:p=1/2", "--eps", "1/8", "--n-list", "100000000000",
         "--samples", "1", "--seed", "1"],
        ["gen", "--model", "markov:flip=1/10", "--n", "100000000000", "--seed", "1"],
    ],
)
def test_out_of_memory_exits_3_without_a_traceback(argv):
    pytest.importorskip("resource")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource limit: out of memory")
    assert "Traceback" not in proc.stderr
