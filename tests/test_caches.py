"""Every functools cache in eclab has a finite maxsize, except a named few
whose keys are bounded by construction, and none outgrows its bound while
one process queries many lengths."""

import gc
import importlib
import pkgutil
import tracemalloc

import eclab
from eclab import complexity as C, processes

# the caches with no maxsize, each with why its keys stay few
_UNBOUNDED = {
    "eclab.complexity._order_rows": "keyed by the Markov order m alone: m_max entries",
    "eclab.kernel.load": "takes no argument: one compiled kernel per process",
    "eclab.cli._build_parser": "takes no argument: one parser set per process",
    "eclab.lz78.code_length_counts": (
        "keyed by n, read at n <= n_max for exact cardinalities and by the selftest's "
        "histogram checks; a histogram costs O(n^4) to build, so a process builds few"
    ),
}


def _caches() -> dict:
    """Every object with cache_parameters defined in an eclab module, at
    module level or in a class, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(eclab.__path__):
        module = importlib.import_module(f"eclab.{info.name}")
        scopes = [vars(module)] + [
            vars(obj) for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for scope in scopes:
            for obj in scope.values():
                if hasattr(obj, "cache_parameters"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_cache_is_bounded_or_named():
    caches = _caches()
    assert set(_UNBOUNDED) <= set(caches), set(_UNBOUNDED) - set(caches)
    for name, fn in caches.items():
        maxsize = fn.cache_parameters()["maxsize"]
        assert (maxsize is None) == (name in _UNBOUNDED), (name, maxsize)


def test_caches_stay_within_bounds_over_300_lengths():
    """coarse_ec and khat on 300 prefixes of one path, each a new length:
    once the per-length tables are full, traced memory grows by under 15 KB
    per length. A cache that kept one table per length would grow faster:
    the i.i.d. rows of one length take about 25 KB, its uniform-typical rows
    about 22 KB. What still grows is the (n, m)-keyed entries of the caches
    whose bounds hold 4096 of them, a few KB per length."""
    x = processes.sample(processes.parse_model_spec("markov:flip=1/10"), 600, 1)
    traced = []
    tracemalloc.start()
    try:
        for i, n in enumerate(range(300, 600)):
            C.coarse_ec(x[:n], 0, "upper")
            C.khat(x[:n])
            if i % 100 == 99:
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[2] - traced[1] < 100 * 15_000, traced
    for name, fn in _caches().items():
        info = fn.cache_info()
        assert info.maxsize is None or info.currsize <= info.maxsize, (name, info)
    for fn in (C._iid_table, C._ut_tables, C._closed_tables):
        assert fn.cache_info().currsize == fn.cache_info().maxsize  # every length evicts
