"""The compiled LZ78 trie walk against the Python walk and the
phrase-at-a-time reference, the trie's size C(n), and the kernel's build:
the Python walk and the numpy sampler that serve when it cannot be built."""

import ctypes
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import lz78_reference as ref
import pytest
from hypothesis import example, given, settings, strategies as st

import eclab.kernel
from eclab import lz78, processes
from eclab.errors import ResourceLimitError

SRC = Path(lz78.__file__).resolve().parents[1]
DETERMINISTIC = settings(derandomize=True, max_examples=300, deadline=None)
LZ_MASS_MODELS = ("markov:flip=1/10", "markov:a01=1/5,a10=3/5", "bernoulli:p=3/10")


@pytest.fixture(scope="module")
def kernel():
    if eclab.kernel.load() is None:
        pytest.skip("the kernel cannot be built here")


def _compiler_exists() -> bool:
    cc = sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(cc.split()[0]) is not None


def _walk_both(x: str, cuts=(), stop=None):
    """Walk x in the chunks that end at `cuts` (and at len(x)) on a kernel
    trie and on a list trie of the same size, each chunk with `stop` and no
    chunk after the one that brings the count to it: each trie with the
    nodes the chunks ended at."""
    kernel_trie = lz78._new_trie(len(x))
    assert type(kernel_trie) is not list
    out = []
    for trie in (kernel_trie, [0] * len(kernel_trie)):
        node, start, nodes = 0, 0, []
        for end in [*sorted(min(c, len(x)) for c in cuts), len(x)]:
            node = lz78._walk(trie, node, x[start:end].encode(), stop)
            nodes.append(node)
            start = end
            if trie[-1] == stop:
                break
        out.append((trie, nodes))
    return out


def _check_walks(x: str, cuts=(), stop=None) -> None:
    """The kernel and the Python walk leave the same slots and nodes, with
    min(stop, the full parse's) complete phrases, and the records read off
    either are the reference parse, or its first `stop` phrases."""
    (k_trie, k_nodes), (p_trie, p_nodes) = _walk_both(x, cuts, stop)
    assert list(k_trie) == p_trie and k_nodes == p_nodes
    want = ref.parse(x)
    full = len(want) - (want[-1][1] is None)
    if stop is not None and stop <= full:
        assert p_trie[-1] == stop and p_nodes[-1] == 0
        for trie in (k_trie, p_trie):
            assert lz78.LZParse(lz78._records(trie), 0).phrases == want[:stop]
        return
    assert p_trie[-1] == full
    for trie in (k_trie, p_trie):
        assert lz78.LZParse(lz78._records(trie), k_nodes[-1] >> 1).phrases == want
    p = lz78.parse(x)
    assert (list(p.records), p.partial) == (list(lz78._records(p_trie)), p_nodes[-1] >> 1)
    assert lz78.code_len(x) == lz78._trie_code_len(p_trie, p_nodes[-1]) == len(ref.phrase_stream(x))


def _biased(n: int, seed: int, p: float) -> str:
    rng = random.Random(seed)
    return "".join("1" if rng.random() < p else "0" for _ in range(n))


@DETERMINISTIC
@given(
    st.builds(_biased, st.integers(1, 4096), st.integers(0, 1 << 32), st.sampled_from([0.5, 0.2, 0.02])),
    st.lists(st.integers(0, 4096), max_size=6),
    st.none() | st.integers(1, 600),
)
@example("0" * 4096, [], None)
@example("1" * 4096, [100, 101], 50)
@example("01" * 2048, [4095], None)
@example("0", [0], 1)
@example("0110", [], 3)
def test_kernel_matches_python_walk_and_reference(kernel, x, cuts, stop):
    """With a stop drawn as well: the walks stop at the phrase that brings
    the count to it, also at the last bit, or walk the whole string."""
    _check_walks(x, cuts, stop)


@pytest.mark.parametrize("model", LZ_MASS_MODELS)
def test_kernel_on_lz_mass_paths(kernel, model):
    """Seeded paths of the lz_mass models at 2^12 to 2^20 bits, walked whole
    and in random chunks that carry the trie and node across calls."""
    rng = random.Random(model)
    for k in (12, 16, 20):
        x = processes.sample(processes.parse_model_spec(model), 1 << k, k)
        _check_walks(x)
        (k_trie, k_nodes), (p_trie, p_nodes) = _walk_both(x, rng.sample(range(len(x)), 9))
        assert list(k_trie) == p_trie and k_nodes == p_nodes
        assert lz78._records(k_trie).tolist() == lz78.parse(x).records.tolist()


@pytest.mark.parametrize("model", LZ_MASS_MODELS)
def test_code_len_below_straddles_the_crossing(kernel, model, monkeypatch):
    """_code_len_below answers code_len(x) * den < bound with the kernel and
    with the Python walk, at bounds one below, at and one above the code
    length and the bits of the first half's complete phrases."""
    cases = []
    for k in (12, 16, 18):  # 2^18 carries the crossing across codec._SLICE slices
        x = processes.sample(processes.parse_model_spec(model), 1 << k, 5)
        L, half = lz78.code_len(x), lz78._phrase_bits(lz78.parse(x[: len(x) // 2]).complete_count)
        for den in (1, 3):
            for at in (L, half):
                cases += [(x, at * den + d, den, L * den < at * den + d) for d in (-1, 0, 1)]
    for walk in ("kernel", "python"):
        if walk == "python":
            monkeypatch.setattr(eclab.kernel, "load", lambda: None)
        for x, bound, den, want in cases:
            assert lz78._code_len_below(x, bound, den) == want, (walk, len(x), bound, den)


def test_max_phrases_is_the_most_any_string_holds():
    """C(n) is the largest complete-phrase count over {0,1}^n for n <= 16,
    and the definition's max{c : sum_{j<=c} floor(log2(j + 1)) <= n}."""
    for n in range(1, 17):
        trie = lz78._new_trie(n)
        most = 0
        for v in range(1 << n):
            trie[-1] = 0
            lz78._walk(trie, 0, format(v, f"0{n}b").encode())
            most = max(most, trie[-1])
        assert most == lz78._max_phrases(n), n
        assert len(trie) == 2 * most + 3
    sums = list(accumulate((j + 1).bit_length() - 1 for j in range(1, 5000)))
    for n in range(1, 5000):
        assert lz78._max_phrases(n) == bisect_right(sums, n), n
    assert lz78._max_phrases(1 << 20) == 73_725


def test_walk_past_the_trie_capacity_raises(kernel):
    """The kernel checks every new phrase against the trie's size: a trie
    for 4 bits holds C(4) = 3 phrases, and a fourth raises. It also refuses
    a node or a phrase count outside the trie before touching a slot."""
    kernel_trie = lz78._new_trie(4)
    for trie in (kernel_trie, [0] * len(kernel_trie)):
        assert lz78._walk(trie, 0, b"0100") == 0 and trie[-1] == 3
        with pytest.raises(RuntimeError, match="out of range"):
            lz78._walk(trie, 0, b"11")
    trie = lz78._new_trie(4)
    for node, count in ((8, 3), (-2, 0), (0, -5), (0, 4)):
        trie[-1] = count
        with pytest.raises(RuntimeError, match="out of range"):
            lz78._walk(trie, node, b"0")


def test_reused_trie_walks_like_a_fresh_one(kernel):
    """A trie emptied by setting its count to 0 parses like a fresh one,
    whatever the earlier walk left in its slots."""
    x = processes.sample(processes.parse_model_spec("bernoulli:p=1/2"), 4096, 2)
    kernel_trie = lz78._new_trie(4096)
    for trie in (kernel_trie, [0] * len(kernel_trie)):
        lz78._walk(trie, 0, x.encode())
        for y in ("1", "0110", x[::-1][:3000], x):
            trie[-1] = 0
            node = lz78._walk(trie, 0, y.encode())
            assert lz78.LZParse(lz78._records(trie), node >> 1).phrases == ref.parse(y)


def test_kernel_tries_share_one_type(kernel):
    """A kernel trie of any size is an int32 array of one type, so making
    tries of many sizes makes no new type for each."""
    trie = lz78._new_trie(100)
    assert type(trie) is type(lz78._new_trie(5000))
    assert trie.itemsize == ctypes.sizeof(ctypes.c_int32)


def test_trie_of_2_31_slots_is_a_resource_limit():
    with pytest.raises(ResourceLimitError, match="trie slots"):
        lz78._new_trie(1 << 36)


# --- build and fallback ----------------------------------------------------------


def test_kernel_is_in_use_where_a_compiler_exists(tmp_path, monkeypatch):
    """Where sysconfig's CC runs, the kernel serves the walk and the
    sampler, so a silent fallback to the Python walk or the numpy sampler
    cannot pass as a kernel run; a cold build leaves the library alone in its
    cache directory, named by the SHA-256 of source, compiler and flags."""
    if not _compiler_exists():
        pytest.skip("no C compiler")
    assert eclab.kernel.load() is not None
    assert type(lz78._new_trie(16)) is not list
    monkeypatch.setattr(processes, "_sample_blocks", lambda *a: pytest.fail("the numpy sampler ran"))
    processes.sample(processes.parse_model_spec("markov:flip=1/10"), 100, 1)
    assert eclab.kernel._load(tmp_path, sysconfig.get_config_var("CC")) is not None
    (built,) = tmp_path.iterdir()
    assert built.name.startswith("kernel-") and len(built.stem) == len("kernel-") + 64


def test_kernel_source_compiles_without_warnings(kernel):
    """The kernel's one source is strict C99 with no warning under -Wall
    -Wextra -pedantic: the build itself discards the compiler's output, so a
    warning in an edited kernel would otherwise go unseen."""
    cc = sysconfig.get_config_var("CC").split()
    flags = ["-Wall", "-Wextra", "-Werror", "-pedantic", "-std=c99", "-fsyntax-only", "-x", "c", "-"]
    proc = subprocess.run([*cc, *flags], input=eclab.kernel._SOURCE, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_unbuildable_kernel_loads_as_none(tmp_path):
    """No compiler, a compiler that fails and a cache directory that cannot
    be made each give None, and leave no file behind."""
    cc = sysconfig.get_config_var("CC") or "cc"
    assert eclab.kernel._load(tmp_path, str(tmp_path / "no-such-cc")) is None
    if shutil.which("false"):
        assert eclab.kernel._load(tmp_path, "false") is None
    assert list(tmp_path.iterdir()) == []
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert eclab.kernel._load(blocker / "cache", cc) is None
    assert eclab.kernel._load(tmp_path, None) is None


# Runs each argv group (split at "--") through cli.main after breaking the
# build the way argv[1] names, prints every stdout and the exit codes, and
# exits 99 unless the kernel is loaded exactly when the build was left alone
# and every path was drawn by the kernel then, by the numpy sampler else.
_CLI_RUNNER = """
import sys, sysconfig
from pathlib import Path
from eclab import cli, kernel, processes
how, arg, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
if how == "cache":
    kernel._DIR = Path(arg)
elif how == "cc":
    sysconfig.get_config_vars()["CC"] = arg
drawn = set()
def spy(name, draw):
    def counted(*args):
        drawn.add(name)
        return draw(*args)
    return counted
processes._sample_kernel = spy("kernel", processes._sample_kernel)
processes._sample_blocks = spy("numpy", processes._sample_blocks)
codes, argv = [], []
for word in rest + ["--"]:
    if word != "--":
        argv.append(word)
        continue
    codes.append(cli.main(argv))
    argv = []
print("exit codes:", *codes)
loaded = kernel.load() is not None
sys.exit(99 if loaded != (how == "kernel") or drawn != {"kernel" if loaded else "numpy"} else 0)
"""


def test_cli_stdout_is_the_same_without_the_kernel(tmp_path):
    """With no compiler or an unwritable cache the Python walk and the numpy
    sampler serve: every stdout is byte-identical to the kernel's, and stderr
    holds only the scheme constant that sweep-theorem1 prints."""
    model = processes.parse_model_spec("markov:flip=1/10")
    x = processes.sample(model, 1 << 13, 4)
    argv = [
        "lz", "--x", x, "--",
        "lz", "--x", x[:300], "--emit-bits", "--",
        "khat", "--x", x, "--",
        "ec", "--x", x[:4096], "--delta", "0", "--Delta", "4", "--",
        "typical", "--r-list", "1/2,3/4,1", "--n-list", "4096", "--model", "markov:flip=1/10",
        "--samples", "6", "--seed", "3", "--",
        "typical", "--r-list", "1/2,1", "--n-list", "10", "--",
        "scan-max-coarse", "--n", "8", "--delta", "0", "--",
        "gen", "--model", "markov:a01=1/5,a10=3/5", "--n", "16385", "--seed", "7", "--count", "3", "--",
        "gen", "--model", "mixture:1/3*markov:a01=1,a10=1/4+2/3*bernoulli:p=1/10", "--n", "300",
        "--seed", "2", "--count", "8", "--format", "json", "--",
        "sweep-theorem1", "--model", "markov:flip=1/10", "--eps", "1/8", "--n-list", "256,4096",
        "--samples", "3", "--seed", "5",
    ]
    blocker = tmp_path / "file"
    blocker.write_text("")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = {}
    for how, arg in (("kernel", ""), ("cc", str(tmp_path / "no-such-cc")), ("cache", str(blocker / "cache"))):
        if how == "kernel" and not _compiler_exists():
            continue
        proc = subprocess.run([sys.executable, "-c", _CLI_RUNNER, how, arg, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "C_scheme = 27 bits\n", (how, proc.returncode, proc.stderr)
        assert proc.stdout.endswith("exit codes: 0 0 0 0 0 0 0 0 0 0\n")
        runs[how] = proc.stdout
    assert len(set(runs.values())) == 1
    assert list(tmp_path.iterdir()) == [blocker]
