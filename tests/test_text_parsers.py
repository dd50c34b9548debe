"""The text parsers: model specs, ensemble specs, constraints and rationals,
the bit-stream decoders, and the command line as a whole.

Each key is given once, integers are ASCII digits with an optional leading
'-', and every malformed text ends in ValueError (exit code 1 or 2 at the
CLI, as documented in eclab.cli). The Hypothesis properties run with
derandomized settings, so every run draws the same examples; the inputs that
once parsed silently are pinned with @example.
"""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eclab import cli, codec, ensembles as E, lz78, processes as P, text as T
from eclab.errors import DecodeError
from eclab.complexity import Constraint

DETERMINISTIC = settings(derandomize=True, max_examples=400, deadline=None)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- repeated and unknown keys -------------------------------------------------

@pytest.mark.parametrize("text,key", [
    ("bernoulli:p=1/2,p=1/3", "p"),
    ("markov:flip=1/10,flip=1/2", "flip"),
    ("markov:a01=1/5,a10=3/5,a01=1/5", "a01"),
    ("mixture:1/2*bernoulli:p=1/10,p=1/3+1/2*bernoulli:p=1/2", "p"),
])
def test_compact_model_rejects_repeated_key(text, key):
    with pytest.raises(ValueError, match=f"key '{key}' given twice"):
        P.parse_model_spec(text)


@pytest.mark.parametrize("text,key", [
    ("variant=bernoulli\np=1/2\np=1/3\n", "p"),
    ("variant=markov\nflip=1/10\nflip=1/2\n", "flip"),
    ("variant=bernoulli\nvariant=markov\np=1/2\n", "variant"),
])
def test_model_document_rejects_repeated_key(text, key):
    with pytest.raises(ValueError, match=f"model document: key '{key}' given twice"):
        P.parse_model_spec(text)


def test_model_document_components_may_repeat():
    m = P.parse_model_spec(
        "variant=mixture\ncomponent=1/4 bernoulli:p=1/10\ncomponent=3/4 markov:flip=1/2\n"
    )
    assert m == P.Mixture(((Fraction(1, 4), P.Bernoulli(Fraction(1, 10))),
                           (Fraction(3, 4), P.Markov(Fraction(1, 2), Fraction(1, 2)))))


@pytest.mark.parametrize("text,message", [
    ("variant=mixture\np=1/2\ncomponent=1 bernoulli:p=1/2", "mixture: unknown keys ['p']"),
    ("variant=bernoulli\np=1/2\ncomponent=1 bernoulli:p=1/3",
     "model document: component lines need variant=mixture, not 'bernoulli'"),
    ("variant=markov\ncomponent=1 bernoulli:p=1/3\nflip=1/2",
     "model document: component lines need variant=mixture, not 'markov'"),
])
def test_model_document_rejects_lines_its_variant_does_not_take(text, message, tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        P.parse_model_spec(text)
    assert str(info.value) == message
    path = tmp_path / "model.txt"
    path.write_text(text)
    argv = ["gen", "--model", "unused", "--model-file", str(path), "--n", "4", "--seed", "1"]
    assert run(argv, capsys) == (1, "", f"usage error: --model: {message}\n")


def test_missing_model_file_is_a_usage_error(tmp_path, capsys):
    argv = ["gen", "--model", "unused", "--model-file", str(tmp_path / "none.txt"),
            "--n", "4", "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "") and err.startswith("usage error: --model-file: "), err


def test_nested_mixture_rejected_before_parsing_it():
    with pytest.raises(ValueError, match="may not be nested"):
        P.parse_model_spec("mixture:1*mixture:1*bernoulli:p=1/2")
    deep = "mixture:1*" * 5000 + "bernoulli:p=1/2"  # deeper than the recursion limit
    with pytest.raises(ValueError, match="may not be nested"):
        P.parse_model_spec(deep)


@pytest.mark.parametrize("text,message", [
    ("iid:n=8,m=2,a=1,a=3", "iid: key 'a' given twice"),
    ("iid:n=8,m=2,a=1,bogus=3", "iid: unknown keys ['bogus']"),
    ("uniform-all:n=3,m=2", "uniform-all: unknown keys ['m']"),
    ("singleton-raw:n=5,x=01", "singleton-raw: n=5 but x has length 2"),
    ("singleton-lz:x=01", "singleton-lz: missing key 'n'"),
    ("markov-q:n=2,m=1,a0=1,a1=1", "markov-q: missing key 'ai'"),
    ("iid:n=1_0,m=2,a=1", "iid: n: expected an integer, got '1_0'"),
    ("uniform-all:n=٣", "uniform-all: n: expected an integer, got '٣'"),
])
def test_ensemble_spec_rejects(text, message):
    with pytest.raises(ValueError) as info:
        E.parse_ensemble_spec(text)
    assert str(info.value) == message


def test_ensemble_spec_takes_singleton_length():
    assert E.parse_ensemble_spec("singleton-raw:n=2,x=01") == E.SingletonRaw("01")
    assert E.parse_ensemble_spec("singleton-lz: n = 3 , x = 011 ") == E.SingletonLZ("011")


# --- ASCII integers --------------------------------------------------------------

@pytest.mark.parametrize("text", ["1_0", "+1", "١", "1/٢", "٣", "１", "1 0", "--1", "-", ""])
def test_rationals_take_ascii_integers_only(text):
    with pytest.raises(ValueError, match="cannot parse rational"):
        T.parse_fraction(text, "r")


def test_ascii_integers_parse():
    assert T.parse_int(" -12 ", "n") == -12
    assert T.parse_fraction("-3/6", "r") == Fraction(-1, 2)
    assert T.parse_fraction(" 1 / 2 ", "r") == Fraction(1, 2)


@pytest.mark.parametrize("text", ["bernoulli:p=١/٢", "bernoulli:p=1_0/64", "markov:flip=+1/2"])
def test_model_spec_rejects_non_ascii_integers(text):
    with pytest.raises(ValueError, match="cannot parse rational"):
        P.parse_model_spec(text)


@pytest.mark.parametrize("text", ["mmax=٣", "mmax=1_0", "mmax=+1", "rmin=1_0/64", "rmax=١"])
def test_constraint_rejects_non_ascii_integers(text, capsys):
    with pytest.raises(ValueError, match="constraint: "):
        Constraint.parse(text)
    code, out, err = run(["ec", "--x", "0110", "--delta", "0", "--Delta", "4",
                          "--constraint", text], capsys)
    assert (code, out) == (2, "") and err.startswith("error: constraint: "), text


@pytest.mark.parametrize("argv", [
    ["ec", "--x", "0110", "--delta", "1_0", "--Delta", "0"],
    ["ec", "--x", "0110", "--delta", "0", "--Delta", "٣"],
    ["typical", "--r-list", "1/2", "--n-list", "1_0"],
    ["typical", "--r-list", "1/2", "--n-list", "٨"],
    ["typical", "--r-list", "1/2", "--n-list", ""],
    ["typical", "--r-list", ",", "--n-list", "8"],
    ["sweep-theorem1", "--model", "bernoulli:p=1/2", "--eps", "1/2", "--delta", "0",
     "--n-list", "", "--samples", "1", "--seed", "1"],
    ["gen", "--model", "bernoulli:p=1/2", "--n", "1_0", "--seed", "1"],
    ["gen", "--model", "bernoulli:p=1/2", "--n", "4", "--seed", "٣"],
    ["gen", "--model", "bernoulli:p=1/2,p=1/3", "--n", "4", "--seed", "1"],
    ["gen", "--model", "markov:flip=1/10,flip=1/2", "--n", "4", "--seed", "1"],
    ["gen", "--model", "bernoulli:p=١/٢", "--n", "4", "--seed", "1"],
], ids=lambda argv: " ".join(argv))
def test_cli_usage_errors_exit_1(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "") and err.startswith("usage error: "), err


def test_cli_negative_seed_still_accepted(capsys):
    code, out, _err = run(["gen", "--model", "bernoulli:p=1/2", "--n", "4", "--seed", "-3"], capsys)
    assert code == 0 and out.startswith("sample,seed,n,component,bits\n0,-3,4,")


def test_quantized_parameters_checked_without_building_two_to_the_m():
    e = E.parse_ensemble_spec("iid:n=1,m=99999999999,a=1")
    assert e == E.IIDQuantized(1, 99999999999, 1)
    assert E.MarkovQuantized(1, 10**12, 1, 3, 5).m == 10**12
    for bad in (0, -1, 1 << 7):
        with pytest.raises(ValueError):
            E.IIDQuantized(4, 7, bad)
        with pytest.raises(ValueError):
            E.MarkovQuantized(4, 7, 1, bad, 1)
    assert E.IIDQuantized(4, 7, (1 << 7) - 1).a == 127


# --- Hypothesis properties -----------------------------------------------------

_PIECES = st.sampled_from([
    "bernoulli:", "markov:", "mixture:", "variant=", "component=", "flip=", "rows=", "a01=",
    "a10=", "p=", "iid:", "markov-q:", "singleton-raw:", "singleton-lz:", "uniform-all:",
    "uniform-typ:", "n=", "m=", "a=", "a0=", "a1=", "ai=", "x=", "r=", "tags=", "mmax=",
    "rmin=", "rmax=", "1/2", "1/3", "01", "-", "1_0", "١", "*", "+", ",", ";", ":", "=", "/",
    "\n", " ",
])
# spec-shaped text: keywords and separators mixed with arbitrary characters
_TEXT = st.lists(_PIECES | st.text(max_size=3), max_size=16).map("".join)

_PINNED = [
    "bernoulli:p=1/2,p=1/3",
    "markov:flip=1/10,flip=1/2",
    "variant=bernoulli\np=1/2\np=1/3",
    "iid:n=8,m=2,a=1,a=3",
    "iid:n=8,m=2,a=1,bogus=3",
    "singleton-raw:n=5,x=01",
    "bernoulli:p=١/٢",
    "rmin=1_0/64",
    "mmax=٣",
    "iid:n=1_0,m=2,a=1",
    "iid:n=1,m=99999999999,a=1",
    "mixture:1*mixture:1*bernoulli:p=1/2",
]


def _pinned(test):
    for text in _PINNED:
        test = example(text)(test)
    return test


def _only_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@DETERMINISTIC
@given(_TEXT)
@_pinned
def test_model_spec_raises_only_value_error(text):
    _only_value_error(P.parse_model_spec, text)


@DETERMINISTIC
@given(_TEXT)
@_pinned
def test_ensemble_spec_raises_only_value_error(text):
    _only_value_error(E.parse_ensemble_spec, text)


@DETERMINISTIC
@given(_TEXT)
@_pinned
def test_constraint_raises_only_value_error(text):
    _only_value_error(Constraint.parse, text)


@DETERMINISTIC
@given(_TEXT)
@_pinned
@example("1_0")
@example("١/٢")
def test_fraction_raises_only_value_error(text):
    _only_value_error(lambda t: T.parse_fraction(t, "r"), text)


_PROB = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
_FLIP = _PROB.filter(lambda f: f > 0)
_ERGODIC = st.builds(P.Bernoulli, _PROB) | st.builds(P.Markov, _FLIP, _FLIP).filter(
    lambda c: c.is_ergodic
)


def _mixture(parts) -> P.Mixture:
    total = sum(w for w, _c in parts)
    return P.Mixture(tuple((Fraction(w, total), c) for w, c in parts))


_MODELS = _ERGODIC | st.lists(
    st.tuples(st.integers(1, 1000), _ERGODIC), min_size=1, max_size=3
).map(_mixture)


@DETERMINISTIC
@given(_MODELS)
def test_model_format_parse_roundtrip(model):
    assert P.parse_model_spec(P.format_model(model)) == model


_BITS = st.text(alphabet="01", min_size=1, max_size=64)
_M = st.integers(1, 70)


@st.composite
def _ensembles(draw):
    kind = draw(st.sampled_from(list(E.TAG_NAMES.values())))
    if kind in ("singleton-raw", "singleton-lz"):
        cls = E.SingletonRaw if kind == "singleton-raw" else E.SingletonLZ
        return cls(draw(_BITS))
    n = draw(st.integers(1, 10**9))
    if kind == "uniform-all":
        return E.UniformAll(n)
    if kind == "uniform-typ":
        # above the enumeration bound the set is not built; at n = 24, r = 2
        # and above always give a nonempty set
        r = draw(st.fractions(min_value=Fraction(1, 10**6), max_value=4, max_denominator=10**6))
        n = draw(st.sampled_from([n + 24, 24])) if r >= 2 else n + 24
        return E.UniformTypical(r, n)
    m = draw(_M)
    a = st.integers(1, (1 << m) - 1)
    if kind == "iid":
        return E.IIDQuantized(n, m, draw(a))
    return E.MarkovQuantized(n, m, draw(a), draw(a), draw(a))


@DETERMINISTIC
@given(_ensembles())
def test_ensemble_format_parse_roundtrip(e):
    tag, params = E.format_ensemble(e)
    assert E.parse_ensemble_spec(f"{tag}:{params}") == e


# --- bit-stream decoders ---------------------------------------------------------

# mostly 0/1 streams, which get past the first fields, and some arbitrary text
_STREAMS = st.text(alphabet="01", max_size=120) | st.text(max_size=24)


@DETERMINISTIC
@given(
    _STREAMS,
    st.integers(1, 1 << 80),
    st.fractions(min_value=Fraction(1, 10**9), max_denominator=10**9),
    _ensembles(),
)
@example("0١", 1, Fraction(1), E.UniformAll(1))
@example("0001" + "0" * 40, 1, Fraction(1), E.UniformAll(1))
@example("001" + "0110", 1, Fraction(1), E.SingletonLZ("0"))
def test_decoders_raise_only_value_error_and_roundtrip(bits, n, r, e):
    for decode in (codec.decode_nat, codec.decode_rational, E.decode_ensemble):
        _only_value_error(decode, bits)  # DecodeError is a ValueError
    code = codec.encode_nat(n)
    assert codec.decode_nat(code) == (n, len(code))
    code = codec.encode_rational(r)
    assert codec.decode_rational(code) == (r, len(code))
    assert E.decode_ensemble(E.serialize(e)) == e


_NON_BIT = st.characters(blacklist_characters="01")
# long enough for lz78.decode to reach its numpy blocks (phrase 257 on)
_LONG_BITS = st.builds(
    lambda n, v: format(v % (1 << n), f"0{n}b"), st.integers(1, 6000), st.integers(0, 1 << 6000)
)


@DETERMINISTIC
@given(_LONG_BITS, _ensembles(), st.integers(1, 1 << 80), st.integers(0, 1 << 20), _NON_BIT, _STREAMS)
@example("1", E.UniformAll(1), 4, 2, "\u0661", "01\u066100")
@example("0", E.UniformAll(1), 1, 1, "x", "1x")
def test_decoders_reject_every_non_bit_character(x, e, k, pos, ch, text):
    """One character other than '0'/'1' put anywhere into an lz78 code, an
    ensemble serialization, a delta code or a rational code is a DecodeError:
    each decoder reads every character of such a code. And where decode_nat
    and decode_rational succeed on arbitrary text, what they consumed is the
    code of the value they return, so '0'/'1' text."""
    cases = (
        (lz78.decode, lz78.encode(x)),
        (E.decode_ensemble, E.serialize(e)),
        (codec.decode_nat, codec.encode_nat(k)),
        (codec.decode_rational, codec.encode_rational(Fraction(k, k + 1))),
    )
    for decode, code in cases:
        i = pos % len(code)
        with pytest.raises(DecodeError):
            decode(code[:i] + ch + code[i + 1 :])
    for decode, encode in ((codec.decode_nat, codec.encode_nat),
                           (codec.decode_rational, codec.encode_rational)):
        try:
            value, used = decode(text)
        except DecodeError:
            continue
        assert text[:used] == encode(value)


# --- the command line ----------------------------------------------------------

# every command but selftest with most of its own flags, each with a value
# that is valid nine times in ten, and now and then one more flag, in any
# order; or word soup. --out is left out, since it writes files, and the
# values keep each command small (n <= 30, at most 30 samples)
_INTS = (["1", "3", "8", "30"], ["0", "-1", "1_0", "١", "x"])
_RATIONALS = (["0", "1/4", "1", "4"], ["-1", "1/0", "0.5", "x", ""])
_VALUES = {  # flag: (valid values, invalid values)
    "--model": (["bernoulli:p=1/2", "markov:flip=1/10", "markov:a01=1/5,a10=3/5",
                 "mixture:1/2*bernoulli:p=1/10+1/2*bernoulli:p=1/2", "variant=bernoulli\np=1/3"],
                ["bernoulli:p=1/2,p=1/3", "variant=mixture\np=1/2", "nope:p=1", ""]),
    "--model-file": ([], ["no-such-file"]),
    "--config": ([], ["no-such-file"]),
    "--n": _INTS, "--seed": _INTS, "--count": _INTS, "--samples": _INTS, "--threads": _INTS,
    "--x": (["0110", "0", "0000000001", "01" * 20], ["", "01a", "١"]),
    "--decode": (["0010100110", "1111111"], ["", "01a"]),
    "--r-list": (["1/2", "3/4,1/2", "1"], [",", "", "x", "0.5", "1/0"]),
    "--n-list": (["4", "4,8", "8", "30"], ["", ",", "1_0", "-1", "8,4"]),
    "--mode": (["exact", "upper", "auto"], ["bogus"]),
    "--delta": _RATIONALS, "--Delta": _RATIONALS, "--eps": _RATIONALS,
    "--constraint": (["mmax=1", "tags=iid,markov-q", "rmin=1/4;rmax=1", "mmax=1;;"],
                     ["mmax=x", "foo=1", ""]),
    "--format": (["csv", "json"], ["xml"]),
}
_OWN_FLAGS = {
    "gen": ["--model", "--n", "--seed", "--count"],
    "lz": ["--x", "--decode", "--emit-bits"],
    "typical": ["--r-list", "--n-list", "--model", "--samples", "--seed"],
    "khat": ["--x", "--mode"],
    "ec": ["--x", "--mode", "--delta", "--Delta", "--constraint"],  # --eps: the extra flag
    "coarse-ec": ["--x", "--mode", "--delta", "--constraint"],
    "sweep-theorem1": ["--model", "--eps", "--delta", "--n-list", "--samples", "--seed"],
    "scan-max-coarse": ["--n", "--delta"],
}
_ALL_FLAGS = sorted(_VALUES) + ["--emit-bits"]


@st.composite
def _command_argv(draw):
    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    # Hypothesis favours small integers, so 0 stands for the common case
    flags = [f for f in _OWN_FLAGS[command] + ["--format"] if draw(st.integers(0, 9)) < 9]
    if draw(st.integers(0, 9)) == 9:
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag != "--emit-bits":
            valid, invalid = _VALUES[flag]
            pick = valid if valid and draw(st.integers(0, 9)) < 9 else invalid
            argv.append(draw(st.sampled_from(pick)))
    return argv


_WORDS = st.sampled_from(
    sorted(_OWN_FLAGS) + _ALL_FLAGS + [v for vs in _VALUES.values() for part in vs for v in part]
)
_ARGV = _command_argv() | st.lists(_WORDS, max_size=12)


@DETERMINISTIC
@given(_ARGV)
@example(["gen", "--model", "x", "--model-file", "no-such-file", "--n", "3", "--seed", "1"])
@example(["ec", "--x", "01" * 20, "--delta", "0", "--Delta", "1", "--mode", "exact"])
@example(["typical", "--r-list", "1/2", "--n-list", "30"])
@example(["gen", "--config", "no-such-file"])
def test_cli_exit_codes_and_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("usage error: ", "error: ", "resource limit: "))
