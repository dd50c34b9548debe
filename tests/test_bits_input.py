"""The one 0/1 validator (`codec.is_bits`) and every entry point that uses it.

`is_bits` must equal the count-based predicate it replaced on any text, and
each public entry point must reject exactly the same inputs with the same
exception type, message and CLI exit code.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eclab import cli, codec, complexity, ensembles as E, lz78, processes
from eclab.codec import is_bits


def _counted(x: str) -> bool:
    return x.count("0") + x.count("1") == len(x)


@given(st.text(alphabet=st.sampled_from("01") | st.characters()))
@example("")
@example(" 01")
@example("0_1")
@example("+1")
@example("٠")  # ARABIC-INDIC DIGIT ZERO
@example("\udc80")  # lone surrogate, as argv decodes an undecodable byte
@example("0\udc80")
@example("１")  # FULLWIDTH DIGIT ONE
@example("0101")
def test_is_bits_equals_count_predicate(x):
    assert is_bits(x) == _counted(x)


_BAD = ["", " 01", "0_1", "+1", "٠", "\udc80", "01a", "0b1", "１", "0\n", "1 "]
_NOT_01 = "consist of '0'/'1'"

# (entry point, call, message for "", message for other bad input)
_API = [
    ("lz78.parse", lz78.parse, "input string must be nonempty",
     f"input string must {_NOT_01} only"),
    ("lz78.code_len", lz78.code_len, "input string must be nonempty",
     f"input string must {_NOT_01} only"),
    ("lz78.encode", lz78.encode, "input string must be nonempty",
     f"input string must {_NOT_01} only"),
    ("SingletonRaw", E.SingletonRaw, "string must be nonempty", f"string must {_NOT_01} only"),
    ("SingletonLZ", E.SingletonLZ, "string must be nonempty", f"string must {_NOT_01} only"),
    ("block_prob", lambda x: processes.block_prob(processes.Bernoulli(Fraction(1, 2)), x),
     "block must be nonempty", f"block must {_NOT_01} only"),
    ("string_stats", complexity.string_stats, "x must be nonempty", f"x must {_NOT_01} only"),
]


@pytest.mark.parametrize("x", _BAD, ids=ascii)
@pytest.mark.parametrize("name,call,empty_msg,bad_msg", _API, ids=[a[0] for a in _API])
def test_api_rejects_with_same_message(name, call, empty_msg, bad_msg, x):
    with pytest.raises(ValueError) as info:
        call(x)
    assert type(info.value) is ValueError
    assert str(info.value) == (empty_msg if x == "" else bad_msg)


@pytest.mark.parametrize("x", _BAD, ids=ascii)
def test_prob_is_zero_off_the_alphabet(x):
    n = max(len(x), 1)
    for e in (E.UniformAll(n), E.IIDQuantized(n, 1, 1), E.MarkovQuantized(n, 1, 1, 1, 1)):
        assert E.prob(e, x) == 0


_CLI = [
    ["lz", "--x", "{x}"],
    ["lz", "--decode", "{x}"],
    ["khat", "--x", "{x}"],
    ["ec", "--x", "{x}", "--delta", "0", "--Delta", "0"],
    ["coarse-ec", "--x", "{x}", "--delta", "0"],
]


@pytest.mark.parametrize("x", _BAD, ids=ascii)
@pytest.mark.parametrize("template", _CLI, ids=lambda t: " ".join(t[:2]))
def test_cli_rejects_with_exit_2(template, x, capsys):
    argv = [x if a == "{x}" else a for a in template]
    flag = template[template.index("{x}") - 1]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "be nonempty" if x == "" else _NOT_01
    assert captured.err == f"error: {flag}: string must {what}\n"


@pytest.mark.parametrize("x", ["0", "1", "0110", "1" * 70])
def test_valid_strings_pass_every_entry_point(x, capsys):
    assert lz78.decode(lz78.encode(x)) == x
    assert lz78.code_len(x) == len(lz78.phrase_stream(x, lz78.parse(x)))
    assert E.prob(E.SingletonRaw(x), x) == 1 and E.prob(E.SingletonLZ(x), x) == 1
    assert E.prob(E.UniformAll(len(x)), x) == Fraction(1, 1 << len(x))
    assert processes.block_prob(processes.Bernoulli(Fraction(1, 2)), x) == Fraction(1, 1 << len(x))
    assert cli.main(["lz", "--x", x]) == 0
    assert cli.main(["khat", "--x", x]) == 0
    capsys.readouterr()


def _slice_cases() -> list[str]:
    """Strings around the slice length of is_bits: a bad character at the
    first or last index of a slice, lengths at exact slice multiples and one
    either side, non-ASCII text and the empty string."""
    s = codec._SLICE
    good = ["0" * s, "1" * s, "01" * s, "10" * (s // 2) + "1", "0" * (2 * s - 1), "1" * (3 * s)]
    cases = ["", "0", "1"] + good
    for length in (s, s + 1, 2 * s, 3 * s):
        for i in (0, s - 1, s, 2 * s - 1, 2 * s, length - 1):
            if i < length:
                for bad in ("2", " ", "é", "\udc80", "１"):
                    x = ["01"[j % 2] for j in range(length)]
                    x[i] = bad
                    cases.append("".join(x))
    return cases


def test_is_bits_by_slices_equals_count_predicate():
    for x in _slice_cases():
        assert is_bits(x) == _counted(x), (len(x), x.strip("01")[:3])


def test_check_bits_by_slices_equals_whole_string_rule():
    for x in _slice_cases():
        if x and _counted(x):
            codec.check_bits(x, "x")
        else:
            with pytest.raises(ValueError, match="nonempty" if not x else _NOT_01):
                codec.check_bits(x, "x")
