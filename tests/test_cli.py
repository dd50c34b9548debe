import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from eclab import cli


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


def test_khat_parses_x_once(capsys, monkeypatch):
    from eclab import lz78

    parsed = []
    code_len = lz78.code_len
    monkeypatch.setattr(lz78, "code_len", lambda x: parsed.append(x) or code_len(x))
    code, out, _ = run(["khat", "--x", "0110100110"], capsys)
    assert code == 0 and parse_csv(out)[0]["lz_len"] == str(code_len("0110100110"))
    assert parsed == ["0110100110"]


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


def test_cached_parser_matches_fresh_parsers(capsys):
    # the parser is built once per process; reusing it, also after a usage
    # error and an appended flag, must give what a freshly built one gives
    argvs = [
        ["khat", "--x", "0110"],
        ["ec", "--x", "0110", "--bogus", "1"],
        ["ec", "--x", "0110", "--delta", "0", "--eps", "1/10"],
        ["lz", "--x", "0110100", "--emit-bits"],
        ["selftest", "--suite", "codec-kraft", "--fast"],
        ["selftest", "--suite", "codec-kraft", "--fast"],
    ]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    cached = [run(argv, capsys) for argv in argvs]
    assert cli._build_parser() is parser
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0, 0, 0, 0]
