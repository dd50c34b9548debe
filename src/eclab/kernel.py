"""The package's one compiled kernel: the LZ78 trie walk and the SplitMix64
path sampler, two C functions in one source (`_SOURCE`).

`lz78_walk` runs the loop of `lz78._walk` over an int32 trie; `splitmix_bits`
writes a Bernoulli or Markov sample path as '0'/'1' bytes, the loop that
`processes._sample_blocks` runs in numpy blocks. The source is compiled with
sysconfig's CC on first use into this package's `__pycache__`, under a name
that carries the SHA-256 of source, compiler and flags, and loaded with
ctypes. When it cannot be built or loaded, `load()` gives None and each
caller runs its own Python loop, with the same output and nothing printed.
"""

from __future__ import annotations

import ctypes
import os
import sysconfig
import tempfile
from functools import cache
from pathlib import Path

try:  # CPython's own SHA-256 loads in 0.2 ms; hashlib first loads OpenSSL, 7 ms
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

__all__ = ["load"]

# lz78_walk: the loop of lz78._walk over an int32 trie: kids[0 .. cap) are
# its slots and kids[cap] counts its complete phrases. Returns the node
# reached, or -1 when the node or the count lies outside the trie or a new
# phrase would not fit, before any slot out of range is read or written.
#
# splitmix_bits: out[k] = '0' + bit k for k < n, each bit an event on
# u = mix64(seed + (k + 1) * GAMMA): u < below, or always when `always` is
# set. A Bernoulli path (chain 0) takes the event (below0, always & 1) at
# every k. A chain takes the event (first, always & 4) at k = 0 and then the
# flip rule: the bit before, b, XOR the event (below_b, always >> b & 1).
# Returns 0, or -1 for n < 0 before anything is written.
_SOURCE = r"""
#include <stdint.h>

int64_t lz78_walk(int32_t *kids, int64_t cap, int64_t node,
                  const unsigned char *bits, int64_t n, int64_t stop)
{
    int64_t size = 2 * (int64_t)kids[cap] + 2;
    int64_t end = 2 * stop + 2;
    if (node < 0 || node >= size || size > cap)
        return -1;
    if (size == 2)
        kids[0] = kids[1] = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t *slot = kids + node + (bits[i] & 1);
        if (*slot) {
            node = *slot;
        } else if (size < cap) {
            *slot = (int32_t)size;
            kids[size] = kids[size + 1] = 0;
            size += 2;
            node = 0;
            if (size == end)
                break;
        } else {
            return -1;
        }
    }
    kids[cap] = (int32_t)(size / 2 - 1);
    return node;
}

static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

int64_t splitmix_bits(unsigned char *out, int64_t n, uint64_t seed, int64_t chain,
                      uint64_t below0, uint64_t below1, uint64_t first, int64_t always)
{
    const uint64_t gamma = UINT64_C(0x9E3779B97F4A7C15);
    if (n < 0)
        return -1;
    if (!chain) {
        unsigned all = always & 1;
        for (int64_t k = 0; k < n; k++) {
            seed += gamma;
            out[k] = (unsigned char)('0' + ((mix64(seed) < below0) | all));
        }
        return 0;
    }
    if (n == 0)
        return 0;
    seed += gamma;
    unsigned b = (mix64(seed) < first) | (always >> 2 & 1);
    out[0] = (unsigned char)('0' + b);
    for (int64_t k = 1; k < n; k++) {
        seed += gamma;
        b ^= (mix64(seed) < (b ? below1 : below0)) | (always >> b & 1);
        out[k] = (unsigned char)('0' + b);
    }
    return 0;
}
"""
_FLAGS = ("-O2", "-shared", "-fPIC")
_DIR = Path(__file__).with_name("__pycache__")


@cache
def load():
    """The compiled kernel, built on the first call in a checkout; None when
    it cannot be built or loaded."""
    return _load(_DIR, sysconfig.get_config_var("CC"))


def _load(cache_dir: Path, cc: str | None):
    """The kernel library from `cache_dir`, with its two functions typed,
    compiled there with the compiler command `cc` first unless an earlier
    build left it; None on any failure, printing nothing."""
    if not cc:
        return None
    command = [*cc.split(), *_FLAGS]
    tag = sha256("\0".join([_SOURCE, *command]).encode()).hexdigest()
    path = cache_dir / f"kernel-{tag}{sysconfig.get_config_var('SHLIB_SUFFIX') or '.so'}"
    try:
        if not path.exists():
            _compile(command, path)
        lib = ctypes.CDLL(str(path))
    except OSError:  # no cache directory, no compiler, a failed build, a library that does not load
        return None
    walk, bits = lib.lz78_walk, lib.splitmix_bits
    i64, u64 = ctypes.c_int64, ctypes.c_uint64
    walk.restype = bits.restype = i64
    walk.argtypes = (ctypes.POINTER(ctypes.c_int32), i64, i64, ctypes.c_char_p, i64, i64)
    bits.argtypes = (ctypes.c_void_p, i64, u64, i64, u64, u64, u64, i64)
    return lib


def _compile(command: list[str], path: Path) -> None:
    """Compile the kernel into a temporary file beside `path`, then move it
    there: a concurrent build replaces it with the same library. A failed
    build leaves no file; the compiler's output is discarded."""
    import subprocess  # only a build needs it

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([*command, "-x", "c", "-", "-o", tmp], input=_SOURCE.encode(),
                              capture_output=True, timeout=120)
        if done.returncode == 0:
            os.replace(tmp, path)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
