"""Description-length complexity measures over the fixed ensemble family.

`khat` is the two-part-code minimum min_E [D(E) + ceil(-log2 E(x))] over
the finite candidate family F(x): both singleton tags for x, the uniform
distribution on {0,1}^n, uniform-typical ensembles for every grid rate r
with x a member, and all quantized i.i.d./Markov ensembles with m up to
m_max. `ec` and `coarse_ec` are one search over the candidates that are
delta-typical for x, which takes the budget as data: `ec` minimizes D(E)
subject to the budget H(E) + D(E) <= khat(x) + Delta, and `coarse_ec` folds
the budget into the objective, minimizing 2 D(E) + H(E) and reporting that
minimum minus khat(x).

Exact mode (n <= n_max) evaluates every quantity exactly: code-length
ceilings use integer bit-length identities (the family's probabilities
are dyadic, so ceil(-log2 A/2^s) = s - bitlen(A) + 1) and typical-set
entropies use exhaustive cardinalities. Upper mode replaces the
uniform-typical entropy with the surrogate r*n >= log2 |T(r,n)|. That is
meant to make every returned value an upper bound, but beyond n_max the
same surrogate raises khat and with it the ec budget, so upper-mode ec can
fall below the exact value (an open item in ROADMAP.md).

Ties among minimizers break on (objective, description length, total
information, lexicographic serialization). Each tag's candidates are
presorted in that order, so the search takes the first feasible one per
tag and merges the per-tag champions with the same comparator; results
are deterministic and agree bit for bit with a direct scan of the family.

The Markov tag has one walk per regime. In exact mode, under a budget, the
walk goes m by m: desc is constant on an m-slice, so the budget keeps a
prefix of the slice's total-information order, found by bisection, and the
first typical entry of that prefix is found by a vectorised scan; without a
budget the same scan runs once over the whole objective order. Beyond
n_max, closed-form entropies prefilter each m and the survivors are
confirmed with the defining recursion.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import ensembles as ens
from . import lz78, typical_sets
from .codec import encode_rational, is_bits, nat_code_len, rational_code_len
from .errors import ResourceLimitError
from .processes import (
    ProcessModel,
    _parse_fraction,
    binary_entropy,
    components,
    entropy_rate,
    sample_paths,
)

__all__ = [
    "FamilyConfig",
    "Constraint",
    "ComplexityQuery",
    "ComplexityReport",
    "DEFAULT_CONFIG",
    "StringStats",
    "string_stats",
    "khat",
    "khat_value",
    "ec",
    "coarse_ec",
    "max_coarse_scan",
    "ScanResult",
    "theorem1_sweep",
    "SweepRow",
    "sweep_scheme_constant",
    "coarse_scheme_constant",
    "budget_fits",
]

# a float log2 this close to an integer is rechecked exactly: _floor_log2_guarded
# then takes the floor from the integer factors, with powers of two as shifts
_FLOAT_GUARD = 1e-6
_BIG_N_FLOAT = 64  # above this length, grid log-likelihoods are evaluated in floats
_STRAGGLER_CAP = 256  # large-n Markov entries retried per m before giving up on m


_R_GRID_IDS: dict[tuple[Fraction, ...], int] = {}
_R_GRID_TEXTS: list[str] = []  # the echoed text of each r_grid, indexed by grid_id


@dataclass(frozen=True)
class FamilyConfig:
    """Candidate-family configuration, echoed into every report."""

    r_grid: tuple[Fraction, ...] = typical_sets.DEFAULT_R_GRID
    m_max: int = 6
    n_max: int = typical_sets.DEFAULT_N_MAX
    # a small int naming r_grid, assigned once per instance, so the table
    # caches do not hash the grid's Fractions and reports do not format them
    # on every call
    grid_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r_grid not in _R_GRID_IDS:
            _R_GRID_IDS[self.r_grid] = len(_R_GRID_TEXTS)
            _R_GRID_TEXTS.append(",".join(str(r) for r in self.r_grid))
        object.__setattr__(self, "grid_id", _R_GRID_IDS[self.r_grid])

    def echo(self) -> dict:
        return {
            "r_grid": _R_GRID_TEXTS[self.grid_id],
            "m_max": self.m_max,
            "n_max": self.n_max,
        }


DEFAULT_CONFIG = FamilyConfig()


@dataclass(frozen=True)
class Constraint:
    """Restriction of the minimization domain by tag and parameter ranges."""

    tags: Optional[frozenset[str]] = None
    m_max: Optional[int] = None
    r_min: Optional[Fraction] = None
    r_max: Optional[Fraction] = None

    def allows_tag(self, tag: str) -> bool:
        return self.tags is None or tag in self.tags

    def allows_m(self, m: int) -> bool:
        return self.m_max is None or m <= self.m_max

    def allows_r(self, r: Fraction) -> bool:
        if self.r_min is not None and r < self.r_min:
            return False
        return self.r_max is None or r <= self.r_max

    @staticmethod
    def parse(text: str) -> "Constraint":
        """Parse "tags=a,b;mmax=3;rmin=1/4;rmax=1" (any subset of keys)."""
        tags = None
        m_max = None
        r_min = None
        r_max = None
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"constraint: expected key=value, got {part!r}")
            key = key.strip()
            if key == "tags":
                tags = frozenset(t.strip() for t in value.split(",") if t.strip())
                unknown = tags - set(ens.TAG_NAMES.values())
                if unknown:
                    raise ValueError(f"constraint: unknown tags {sorted(unknown)}")
            elif key == "mmax":
                m_max = int(value)
            elif key == "rmin":
                r_min = _parse_fraction(value, "constraint: rmin")
            elif key == "rmax":
                r_max = _parse_fraction(value, "constraint: rmax")
            else:
                raise ValueError(f"constraint: unknown key {key!r}")
        return Constraint(tags, m_max, r_min, r_max)


@dataclass(frozen=True)
class ComplexityQuery:
    """Parameters of one effective-complexity minimization."""

    delta: Fraction = Fraction(0)
    Delta: Optional[Fraction] = None
    eps: Optional[Fraction] = None  # alternative budget rule Delta = eps * n
    mode: str = "exact"
    constraint: Optional[Constraint] = None

    def resolve_Delta(self, n: int) -> Fraction:
        if (self.Delta is None) == (self.eps is None):
            raise ValueError("exactly one of Delta and eps must be given")
        if self.Delta is not None:
            if self.Delta < 0:
                raise ValueError("Delta must be >= 0")
            return Fraction(self.Delta)
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        return Fraction(self.eps) * n


@dataclass
class ComplexityReport:
    """Per-string results plus the configuration that produced them."""

    n: int
    lz_len: int
    khat: int
    ec: Optional[int] = None
    ec_empty: bool = False  # the (constrained) domain of ec or coarse_ec was empty
    ec_is_upper_bound: bool = False
    coarse_ec: Optional[float] = None
    witness: Optional[ens.Ensemble] = None
    delta_text: str = ""
    Delta_text: str = ""
    mode: str = "exact"
    config: dict = field(default_factory=dict)


# --- string statistics ------------------------------------------------------

@dataclass(frozen=True)
class StringStats:
    """Sufficient statistics of x for every quantized tag, plus its LZ length."""

    n: int
    first: int
    ones: int
    n00: int
    n01: int
    n10: int
    n11: int
    lz_len: int

    @property
    def key(self) -> tuple:
        return (self.n, self.first, self.ones, self.n00, self.n01, self.n10, self.n11, self.lz_len)


def string_stats(x: str, lz_len: Optional[int] = None) -> StringStats:
    n = len(x)
    if n < 1:
        raise ValueError("x must be nonempty")
    if not is_bits(x):
        raise ValueError("x must consist of '0'/'1' only")
    if lz_len is None:
        lz_len = lz78.code_len(x)
    v = int(x, 2)
    ones = v.bit_count()
    if n > 1:
        mask = (1 << (n - 1)) - 1
        n11 = ((v >> 1) & v & mask).bit_count()
        n01 = (~(v >> 1) & v & mask).bit_count()
        n10 = ((v >> 1) & ~v & mask).bit_count()
        n00 = (n - 1) - n01 - n10 - n11
    else:
        n00 = n01 = n10 = n11 = 0
    return StringStats(n, (v >> (n - 1)) & 1, ones, n00, n01, n10, n11, lz_len)


# --- scheme constants -------------------------------------------------------

def sweep_scheme_constant(cfg: FamilyConfig = DEFAULT_CONFIG) -> int:
    """Constant C with D(uniform-typical(r, n)) <= log2 n + 2 log2 log2 n + C.

    The description is 3 tag bits + delta(n) + the rational code of a
    grid rate; delta(n) exceeds log2 n + 2 log2 log2 n by less than 3
    bits for every n >= 2, so C = 3 + 3 + max_grid |code(r)|.
    """
    return 6 + max(rational_code_len(r) for r in cfg.r_grid)


def coarse_scheme_constant(scan_n_max: int = 16) -> int:
    """Constant c with max_x coarse_ec(x) <= n/2 + log2 n + c for n <= scan_n_max.

    Every khat is at least 3 + |delta(n)| (each description starts with
    the tag and delta(n)), and 3 + |delta(n)| >= n/2 holds up to n = 24,
    so the always-typical uniform-all candidate gives
    coarse_ec <= 2(3 + |delta(n)|) + n - khat <= n/2 + (2(3 + |delta(n)|) - log2 n).
    """
    best = 0
    for n in range(1, scan_n_max + 1):
        base = 3 + nat_code_len(n)
        assert 2 * base >= n, "derivation requires 3 + |delta(n)| >= n/2"
        bound = 2 * base - math.log2(n) if n > 1 else 2 * base
        best = max(best, math.ceil(bound))
    return best


# --- quantized-grid tables --------------------------------------------------

class _MarkovGrid:
    """Flat arrays over all (m, a0, a1, ai) combinations, m <= m_max.

    Per-parameter log and entropy tables come from scalar math calls and
    are gathered into arrays, so table-based likelihoods are bit-identical
    to the scalar ones in ensembles.neg_log2_prob and ensembles.entropy.
    """

    def __init__(self, m_max: int):
        ms, a0s, a1s, ais = [], [], [], []
        for m in range(1, m_max + 1):
            k = (1 << m) - 1
            vals = np.arange(1, k + 1, dtype=np.int64)
            ms.append(np.full(k * k * k, m, dtype=np.int64))
            a0s.append(np.repeat(vals, k * k))
            a1s.append(np.tile(np.repeat(vals, k), k))
            ais.append(np.tile(vals, k * k))
        self.m = np.concatenate(ms)
        self.a0 = np.concatenate(a0s)
        self.a1 = np.concatenate(a1s)
        self.ai = np.concatenate(ais)
        self.size = len(self.m)
        per_m_desc = [0] + [nat_code_len(m) + 3 * m for m in range(1, m_max + 1)]
        self.descbase = np.array(per_m_desc, dtype=np.int64)[self.m]
        # one row per (m, a), m ascending then a; row of (m, a) is 2^m - m - 2 + a
        log1, log0, hof, prob = [], [], [], []
        for m in range(1, m_max + 1):
            for a in range(1, 1 << m):
                log1.append(m - math.log2(a))  # -log2(a / 2^m)
                log0.append(m - math.log2((1 << m) - a))  # -log2(1 - a / 2^m)
                hof.append(binary_entropy(a / (1 << m)))
                prob.append(a / (1 << m))
        log1, log0, hof, prob = (np.array(t) for t in (log1, log0, hof, prob))
        row_base = (1 << self.m) - self.m - 2
        r0, r1, ri = row_base + self.a0, row_base + self.a1, row_base + self.ai
        self.c01, self.c00, self.h0, self.q0 = log1[r0], log0[r0], hof[r0], prob[r0]
        self.c10, self.c11, self.h1, self.q1 = log1[r1], log0[r1], hof[r1], prob[r1]
        self.li1, self.li0, self.hinit, self.pinit = log1[ri], log0[ri], hof[ri], prob[ri]
        self.m_slices: dict[int, slice] = {}
        start = 0
        for m in range(1, m_max + 1):
            k = ((1 << m) - 1) ** 3
            self.m_slices[m] = slice(start, start + k)
            start += k
        # q0, q1 per (m, a0, a1) block; ai varies fastest, so blocks are runs
        first = np.flatnonzero(self.ai == 1)
        self._block_q0, self._block_q1 = self.q0[first], self.q1[first]
        self._block_len = np.diff(first, append=self.size)
        self._closed: dict[int, np.ndarray] = {}

    def entropies(self, n: int) -> np.ndarray:
        """H over the grid by the same forward recursion as ensembles.entropy.

        Each step is the scalar step's expressions, in order, into
        preallocated buffers.
        """
        p1 = self.pinit.copy()
        total = self.hinit.copy()
        p0, a, b = np.empty_like(p1), np.empty_like(p1), np.empty_like(p1)
        stay1 = 1.0 - self.q1
        for _ in range(n - 1):
            np.subtract(1.0, p1, out=p0)
            np.multiply(p0, self.h0, out=a)
            np.multiply(p1, self.h1, out=b)
            np.add(a, b, out=a)
            np.add(total, a, out=total)
            np.multiply(p0, self.q0, out=a)
            np.multiply(p1, stay1, out=p1)
            np.add(a, p1, out=p1)
        return total

    def entropies_closed(self, n: int) -> np.ndarray:
        """Closed form of the same chain-rule sum, for large-n prefiltering.

        The stationary mean and the geometric factor depend on (m, a0, a1)
        only, so they are computed once per block and repeated over its ai
        entries. Cached per length and returned read-only.
        """
        cached = self._closed.get(n)
        if cached is not None:
            return cached
        q0, q1 = self._block_q0, self._block_q1
        pi1 = q0 / (q0 + q1)
        lam = 1.0 - q0 - q1
        with np.errstate(divide="ignore", invalid="ignore"):
            geo = np.where(lam == 1.0, float(n - 1), (1.0 - lam ** (n - 1)) / (1.0 - lam))
        pi1 = np.repeat(pi1, self._block_len)
        geo = np.repeat(geo, self._block_len)
        sum_p1 = (n - 1) * pi1 + (self.pinit - pi1) * geo
        H = self.hinit + self.h0 * ((n - 1) - sum_p1) + self.h1 * sum_p1
        H.flags.writeable = False
        self._closed[n] = H
        return H


class _IIDEntry:
    __slots__ = ("m", "a", "descbase", "c1", "c0", "h")

    def __init__(self, m: int, a: int):
        self.m = m
        self.a = a
        self.descbase = nat_code_len(m) + m
        self.c1 = m - math.log2(a)
        self.c0 = m - math.log2((1 << m) - a)
        self.h = binary_entropy(a / (1 << m))


_MARKOV_GRIDS: dict[int, _MarkovGrid] = {}
_IID_GRIDS: dict[int, list[_IIDEntry]] = {}
_MARKOV_PER_N: dict[tuple[int, int], dict] = {}
_IID_PER_N: dict[tuple[int, int], dict] = {}
_UT_PER_N: dict[tuple, dict] = {}


def _markov_grid(m_max: int) -> _MarkovGrid:
    grid = _MARKOV_GRIDS.get(m_max)
    if grid is None:
        grid = _MARKOV_GRIDS[m_max] = _MarkovGrid(m_max)
    return grid


def _iid_grid(m_max: int) -> list[_IIDEntry]:
    grid = _IID_GRIDS.get(m_max)
    if grid is None:
        grid = _IID_GRIDS[m_max] = [
            _IIDEntry(m, a) for m in range(1, m_max + 1) for a in range(1, 1 << m)
        ]
    return grid


def _markov_tables(m_max: int, n: int) -> dict:
    """Per-length Markov arrays: entropies plus canonical walk orders.

    The sort keys replicate the tie-break comparator: description length,
    then total information desc + H, then parameter order (equal desc
    forces equal m within the tag, where serialization order is just the
    numeric order of (a0, a1, ai)). desc is strictly increasing in m and
    each m's slice is already in (a0, a1, ai) order, so stable sorts give
    the ec order per slice and the coarse order from the ec order.

    Only what depends on n is kept: H and the two orders, as int32 (the
    grid has fewer than 2^31 entries). The walks rebuild desc, desc + H and
    2 desc + H for the entries they read, with the same float operations as
    the sort keys here. Within each m-slice of ec_order desc is constant
    and desc + H nondecreasing, which lets the ec walk bisect its budget."""
    key = (m_max, n)
    cached = _MARKOV_PER_N.get(key)
    if cached is not None:
        return cached
    grid = _markov_grid(m_max)
    H = grid.entropies(n)
    base = 3 + nat_code_len(n)
    desc = base + grid.descbase
    sig = H + desc  # same expression as ensembles.total_info: entropy + desc_len
    obj = 2 * desc + H
    ec_order = np.concatenate(
        [sl.start + np.argsort(sig[sl], kind="stable") for sl in grid.m_slices.values()]
    ).astype(np.int32)
    coarse_order = ec_order[np.argsort(obj[ec_order], kind="stable")]
    tables = {"H": H, "ec_order": ec_order, "coarse_order": coarse_order}
    _MARKOV_PER_N[key] = tables
    return tables


def _iid_tables(m_max: int, n: int) -> dict:
    """Per-length i.i.d. candidate lists in canonical ec and coarse orders."""
    key = (m_max, n)
    cached = _IID_PER_N.get(key)
    if cached is not None:
        return cached
    base = 3 + nat_code_len(n)
    rows = []
    for e in _iid_grid(m_max):
        desc = base + e.descbase
        H = n * e.h
        sig = H + desc
        rows.append((desc, H, sig, 2 * desc + H, e))
    ec_rows = sorted(rows, key=lambda t: (t[0], t[2], t[4].a))
    coarse_rows = sorted(rows, key=lambda t: (t[3], t[0], t[2], t[4].a))
    tables = {"ec": ec_rows, "coarse": coarse_rows}
    _IID_PER_N[key] = tables
    return tables


def _ut_tables(cfg: FamilyConfig, n: int, exact: bool) -> dict:
    """Uniform-typical candidates with canonical orders.

    Entries are (desc, H_or_surrogate, sig, obj, r, member threshold,
    serialization payload); exact entries exist only for nonempty sets.
    """
    key = (cfg.grid_id, cfg.n_max, n, exact)
    cached = _UT_PER_N.get(key)
    if cached is not None:
        return cached
    base = 3 + nat_code_len(n)
    rows = []
    for r in cfg.r_grid:
        desc = base + rational_code_len(r)
        thresh = r.numerator * n
        payload = encode_rational(r)
        if exact:
            card = typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n), cfg.n_max)
            if card == 0:
                continue
            H = math.log2(card)
            rows.append((desc, H, H + desc, 2 * desc + H, r, thresh, payload))
        else:
            rn = Fraction(thresh, r.denominator)
            rows.append((desc, rn, desc + rn, 2 * desc + rn, r, thresh, payload))
    tables = {
        "ec": sorted(rows, key=lambda t: (t[0], t[2], t[6])),
        "coarse": sorted(rows, key=lambda t: (t[3], t[0], t[2], t[6])),
    }
    _UT_PER_N[key] = tables
    return tables


# --- exact two-part code lengths -------------------------------------------

_POW_CACHE: dict[tuple[int, int], int] = {}


def _ipow(base: int, exp: int) -> int:
    key = (base, exp)
    v = _POW_CACHE.get(key)
    if v is None:
        v = _POW_CACHE[key] = base**exp
        if len(_POW_CACHE) > 300_000:
            _POW_CACHE.clear()
    return v


def _best_factor_exact(m: int, e1: int, e0: int) -> int:
    """max over 0 < a < 2^m of a^e1 * (2^m - a)^e0 (exact integer)."""
    top = 1 << m
    best = 0
    for a in range(1, top):
        v = _ipow(a, e1) * _ipow(top - a, e0)
        if v > best:
            best = v
    return best


def _best_factor_log(m: int, e1: int, e0: int) -> tuple[int, float]:
    """(argmax a, max) of e1*log2(a) + e0*log2(2^m - a)."""
    top = 1 << m
    best_a = 1
    best_v = e0 * math.log2(top - 1)
    for a in range(2, top):
        v = e1 * math.log2(a) + e0 * math.log2(top - a)
        if v > best_v:
            best_v = v
            best_a = a
    return best_a, best_v


def _floor_log2_product(factors: Iterable[tuple[int, int]]) -> int:
    """floor(log2 of the product of base**exp), exactly, for bases >= 1.

    Each base is 2^k * odd: its power of two becomes a shift of k * exp and
    only the odd parts are multiplied, so a product of powers of two costs
    no big-integer arithmetic at all.
    """
    shift = 0
    odd = 1
    for base, exp in factors:
        k = (base & -base).bit_length() - 1
        shift += k * exp
        if base >> k != 1:
            odd *= _ipow(base >> k, exp)
    return shift + odd.bit_length() - 1


def _floor_log2_guarded(lg: float, factors: Iterable[tuple[int, int]]) -> int:
    """floor(lg), where lg is the float log2 of the product of base**exp.

    When lg lies within _FLOAT_GUARD of an integer, the floor comes from
    the exact _floor_log2_product(factors) instead.
    """
    f = math.floor(lg)
    if min(lg - f, f + 1 - lg) < _FLOAT_GUARD:
        return _floor_log2_product(factors)
    return f


def _resolve_mode(mode: str, n: int, cfg: FamilyConfig) -> str:
    if mode == "auto":
        return "exact" if n <= cfg.n_max else "upper"
    if mode not in ("exact", "upper"):
        raise ValueError(f"mode must be exact|upper|auto, got {mode!r}")
    if mode == "exact" and n > cfg.n_max:
        raise ResourceLimitError(f"exact mode requires n <= {cfg.n_max}, got {n}")
    return mode


def khat_value(stats: StringStats, cfg: FamilyConfig = DEFAULT_CONFIG, mode: str = "auto") -> int:
    """The two-part-code minimum from sufficient statistics alone (no witness)."""
    n = stats.n
    mode = _resolve_mode(mode, n, cfg)
    base = 3 + nat_code_len(n)
    best = base + n  # uniform-all and singleton-raw both reach this value
    cand = base + stats.lz_len  # singleton-lz
    if cand < best:
        best = cand
    # the exact log-cardinality term is used whenever it is computable; the
    # ceil(r n) surrogate enters only beyond the enumeration bound, so both
    # modes see the same khat for any n the exact mode can handle
    exact = n <= cfg.n_max
    for desc, H, _sig, _obj, r, thresh, _payload in _ut_tables(cfg, n, exact)["ec"]:
        if stats.lz_len * r.denominator < thresh:
            if exact:
                card = typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n), cfg.n_max)
                term = (card - 1).bit_length()
            else:
                term = -((-thresh) // r.denominator)  # ceil(r n)
            v = desc + term
            if v < best:
                best = v
    ones, zeros = stats.ones, n - stats.ones
    exact_ints = n <= _BIG_N_FLOAT
    for m in range(1, cfg.m_max + 1):
        desc_iid = base + nat_code_len(m) + m
        if desc_iid < best:
            if exact_ints:
                bl = _best_factor_exact(m, ones, zeros).bit_length() - 1
            else:
                a_star, lg = _best_factor_log(m, ones, zeros)
                bl = _floor_log2_guarded(lg, ((a_star, ones), ((1 << m) - a_star, zeros)))
            cand = desc_iid + m * n - bl
            if cand < best:
                best = cand
        desc_mk = base + nat_code_len(m) + 3 * m
        if desc_mk < best:
            top = 1 << m
            if exact_ints:
                v = (
                    (top - 1)
                    * _best_factor_exact(m, stats.n01, stats.n00)
                    * _best_factor_exact(m, stats.n10, stats.n11)
                )
                bl = v.bit_length() - 1
            else:
                a0s, lg0 = _best_factor_log(m, stats.n01, stats.n00)
                a1s, lg1 = _best_factor_log(m, stats.n10, stats.n11)
                lg = math.log2(top - 1) + lg0 + lg1
                bl = _floor_log2_guarded(
                    lg,
                    (
                        (top - 1, 1),
                        (a0s, stats.n01),
                        (top - a0s, stats.n00),
                        (a1s, stats.n10),
                        (top - a1s, stats.n11),
                    ),
                )
            cand = desc_mk + m * n - bl
            if cand < best:
                best = cand
    return best


# --- candidates and the canonical pick -------------------------------------------

class _Candidate:
    __slots__ = ("objective", "desc", "sigma", "ensemble")

    def __init__(self, objective, desc, sigma, ensemble):
        self.objective = objective
        self.desc = desc
        self.sigma = sigma
        self.ensemble = ensemble


def _pick_canonical(cands: Iterable[Optional[_Candidate]]) -> Optional[_Candidate]:
    """Minimum by (objective, desc, sigma, serialization); None entries are skipped."""
    best = None
    best_serial = None
    for c in cands:
        if c is None:
            continue
        if best is None:
            best = c
            continue
        key_new = (c.objective, c.desc, c.sigma)
        key_old = (best.objective, best.desc, best.sigma)
        if key_new < key_old:
            best, best_serial = c, None
        elif key_new == key_old:
            if best_serial is None:
                best_serial = ens.serialize(best.ensemble)
            s = ens.serialize(c.ensemble)
            if s < best_serial:
                best, best_serial = c, s
    return best


def _scored(desc: int, H, ensemble, T: Optional[Fraction]) -> _Candidate:
    """A candidate under the search's objective: desc when the budget T is a
    constraint, 2 desc + H when it is folded in (T is None)."""
    return _Candidate(desc if T is not None else 2 * desc + H, desc, H + desc, ensemble)


def _fixed_rows(x: str, stats: StringStats) -> tuple:
    """(desc, H, class, argument) of uniform-all and both singletons: each has
    -log2 p(x) = H, an integer, so x is always typical for them."""
    base = 3 + nat_code_len(stats.n)
    return (
        (base, stats.n, ens.UniformAll, stats.n),
        (base + stats.n, 0, ens.SingletonRaw, x),
        (base + stats.lz_len, 0, ens.SingletonLZ, x),
    )


def khat(
    x: str,
    cfg: FamilyConfig = DEFAULT_CONFIG,
    mode: str = "auto",
    stats: Optional[StringStats] = None,
) -> tuple[int, ens.Ensemble]:
    """Two-part-code minimum together with its canonical witness ensemble.

    `stats`, when given, must be string_stats(x); it saves parsing x again.
    """
    if stats is None:
        stats = string_stats(x)
    n = stats.n
    mode = _resolve_mode(mode, n, cfg)
    finalists = [
        _Candidate(desc + H, desc, float(H) + desc, cls(arg))
        for desc, H, cls, arg in _fixed_rows(x, stats)
    ]
    exact = n <= cfg.n_max  # same convention as khat_value
    for desc, H, sig, _obj, r, thresh, _payload in _ut_tables(cfg, n, exact)["ec"]:
        if stats.lz_len * r.denominator < thresh:
            if exact:
                card = typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n), cfg.n_max)
                term = (card - 1).bit_length()
            else:
                term = -((-thresh) // r.denominator)
            finalists.append(_Candidate(desc + term, desc, sig, ens.UniformTypical(r, n)))
    ones, zeros = stats.ones, n - stats.ones
    exact_ints = n <= _BIG_N_FLOAT
    cut = min(c.objective for c in finalists)
    for desc, H, sig, _obj, e in _iid_tables(cfg.m_max, n)["ec"]:
        if desc >= cut:  # p(x) < 1 puts each value above its desc: no later row wins
            break
        if exact_ints:
            bl = (_ipow(e.a, ones) * _ipow((1 << e.m) - e.a, zeros)).bit_length() - 1
        else:
            lg = ones * math.log2(e.a) + zeros * math.log2((1 << e.m) - e.a)
            bl = _floor_log2_guarded(lg, ((e.a, ones), ((1 << e.m) - e.a, zeros)))
        value = desc + e.m * n - bl
        finalists.append(_Candidate(value, desc, sig, ens.IIDQuantized(n, e.m, e.a)))
        cut = min(cut, value)
    finalists.append(_khat_markov_champion(stats, cfg, cut))
    best = _pick_canonical(finalists)
    return best.objective, best.ensemble


def _khat_markov_champion(
    stats: StringStats, cfg: FamilyConfig, best_cut: int
) -> Optional[_Candidate]:
    """Canonical best Markov candidate, or None when it cannot reach best_cut."""
    n = stats.n
    grid = _markov_grid(cfg.m_max)
    base = 3 + nat_code_len(n)
    small = n <= _BIG_N_FLOAT
    H = _markov_tables(cfg.m_max, n)["H"] if small else None
    best: Optional[_Candidate] = None
    for m in range(1, cfg.m_max + 1):
        cut = best_cut if best is None else min(best_cut, best.objective)
        desc = base + nat_code_len(m) + 3 * m
        # -log2 p(x) >= 0 on every entry, so lg <= m n and cand_value >= desc - 1:
        # skip, before building lg, any m the test below would skip after it
        if desc - 2 > cut:
            continue
        sl = grid.m_slices[m]
        lg = m * n - _markov_neglogp(stats, grid, sl)  # log2 of the numerators
        lgmax = float(lg.max())
        cand_value = desc + m * n - math.floor(lgmax) - 1
        if cand_value - 1 > cut:
            continue
        # equal two-part values mean equal numerator bit lengths, so at small n
        # the tie band is the whole top unit interval (minus one for float safety)
        band = (math.floor(lgmax) - 1 - _FLOAT_GUARD) if small else (lgmax - 1e-9)
        near = np.flatnonzero(lg >= band)
        best_bl = -1
        tied: list[int] = []
        top = 1 << m
        for idx in near.tolist():
            j = sl.start + idx
            a0, a1, ai = int(grid.a0[j]), int(grid.a1[j]), int(grid.ai[j])
            bl = 1 + _floor_log2_product(  # bit length of the numerator
                (
                    (ai if stats.first else top - ai, 1),
                    (a0, stats.n01),
                    (top - a0, stats.n00),
                    (a1, stats.n10),
                    (top - a1, stats.n11),
                )
            )
            if bl > best_bl:
                best_bl = bl
                tied = [j]
            elif bl == best_bl:
                tied.append(j)
        # equal desc within m: ties go to total information H + desc (not bare
        # H: adding desc in floats can merge neighboring H values), then to
        # (a0, a1, ai), which is serialization order within one m
        j = min(
            tied,
            key=lambda j: (
                float(H[j]) + desc if H is not None else 0.0,
                int(grid.a0[j]),
                int(grid.a1[j]),
                int(grid.ai[j]),
            ),
        )
        e = _markov_ensemble(grid, n, j)
        sigma = (float(H[j]) if H is not None else ens.entropy(e)) + desc
        # desc differs across m, so the comparator never reaches serializations
        best = _pick_canonical((best, _Candidate(desc + m * n - best_bl + 1, desc, sigma, e)))
    return best


# --- feasibility predicates ---------------------------------------------------

def budget_fits(sigma, T: Fraction) -> bool:
    """Total-information budget test Sigma(E) <= khat + Delta.

    Exact when sigma is an int or Fraction; double precision otherwise.
    """
    if isinstance(sigma, float):
        return sigma <= float(T)
    return sigma <= T


def _typical_fast(neglogp: float, H: float, delta_f: float) -> bool:
    return neglogp <= H * (1.0 + delta_f) + ens.TYPICALITY_SLACK


def _markov_neglogp(stats: StringStats, grid: _MarkovGrid, sl) -> np.ndarray:
    """-log2 p(x) for the Markov entries in sl (a slice or an index array),
    from the transition counts of x."""
    return (
        (grid.li1 if stats.first else grid.li0)[sl]
        + stats.n00 * grid.c00[sl]
        + stats.n01 * grid.c01[sl]
        + stats.n10 * grid.c10[sl]
        + stats.n11 * grid.c11[sl]
    )


def _markov_ensemble(grid: _MarkovGrid, n: int, j: int) -> ens.MarkovQuantized:
    return ens.MarkovQuantized(n, int(grid.m[j]), int(grid.a0[j]), int(grid.a1[j]), int(grid.ai[j]))


def _markov_stragglers(
    stats: StringStats,
    grid: _MarkovGrid,
    m: int,
    delta_f: float,
    budget: Optional[tuple[int, float]] = None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Large-n prefilter of the order-m Markov entries, in confirmation order.

    Keeps the entries whose closed-form entropy H makes x typical and, with
    budget = (desc, T), satisfies desc + H <= T, both with a margin for the
    closed form's rounding. Returns the slice start, -log2 p(x) over the
    slice, and the kept slice indices ordered by (H, a0, a1, ai): the slice
    is stored in (a0, a1, ai) order and flatnonzero ascends, so a stable
    sort on H alone breaks its ties the same way.
    """
    margin = 1e-6 + 1e-12 * stats.n
    sl = grid.m_slices[m]
    Hcf = grid.entropies_closed(stats.n)[sl]
    v = _markov_neglogp(stats, grid, sl)
    keep = v <= Hcf * (1.0 + delta_f) + ens.TYPICALITY_SLACK + margin
    if budget is not None:
        desc, T_f = budget
        keep &= (desc + Hcf) <= T_f + margin
    idxs = np.flatnonzero(keep)
    return sl.start, v, idxs[np.argsort(Hcf[idxs], kind="stable")]


def _markov_confirmed(
    stats: StringStats,
    grid: _MarkovGrid,
    m: int,
    delta_f: float,
    budget: Optional[tuple[int, float]] = None,
):
    """Yield (ensemble, H), in order, for the prefiltered entries that stay
    typical when H comes from the defining recursion. Every yielded entry is
    confirmed; the cap only bounds how many boundary stragglers are retried."""
    start, v, order = _markov_stragglers(stats, grid, m, delta_f, budget)
    for i in order[:_STRAGGLER_CAP].tolist():
        j = start + i
        e = _markov_ensemble(grid, stats.n, j)
        H = ens.entropy(e)
        if _typical_fast(float(v[i]), H, delta_f):
            yield e, H


# --- the candidate search -------------------------------------------------------

def _first_feasible(rows: list, T: Optional[Fraction], ok) -> Optional[tuple]:
    """First row (desc, H, sigma, objective, ...) of a presorted table that
    passes ok and, with a budget T, has sigma <= T. Under a budget the rows are
    in desc order, so the walk stops at the first desc above T."""
    for row in rows:
        if T is not None and row[0] > T:
            break
        if ok(row) and (T is None or budget_fits(row[2], T)):
            return row
    return None


def _candidates(
    x: str,
    stats: StringStats,
    delta_f: float,
    T: Optional[Fraction],
    mode: str,
    constraint: Optional[Constraint],
    cfg: FamilyConfig,
) -> list[Optional[_Candidate]]:
    """Per-tag first-feasible candidates of the minimization.

    With a budget T: minimize desc subject to desc + H <= T (ec). With
    T = None: minimize 2 desc + H (coarse_ec). Each tag's table is presorted
    by the objective and the tie-break, so its first feasible row is its
    champion; _pick_canonical merges the champions.
    """
    n = stats.n
    allow = constraint.allows_tag if constraint else (lambda _t: True)
    order = "ec" if T is not None else "coarse"
    out: list[Optional[_Candidate]] = []
    for desc, H, cls, arg in _fixed_rows(x, stats):
        if allow(ens.TAG_NAMES[cls]) and (T is None or budget_fits(desc + H, T)):
            out.append(_scored(desc, float(H), cls(arg), T))
    if allow("uniform-typ"):
        row = _first_feasible(
            _ut_tables(cfg, n, mode == "exact")[order],
            T,
            lambda row: (not constraint or constraint.allows_r(row[4]))
            and stats.lz_len * row[4].denominator < row[5],  # member => typical
        )
        if row is not None:
            out.append(_scored(row[0], row[1], ens.UniformTypical(row[4], n), T))
    if allow("iid"):
        ones, zeros = stats.ones, n - stats.ones
        row = _first_feasible(
            _iid_tables(cfg.m_max, n)[order],
            T,
            lambda row: (not constraint or constraint.allows_m(row[4].m))
            and _typical_fast(ones * row[4].c1 + zeros * row[4].c0, row[1], delta_f),
        )
        if row is not None:
            out.append(_scored(row[0], row[1], ens.IIDQuantized(n, row[4].m, row[4].a), T))
    if allow("markov-q"):
        walk = _walk_markov_exact if n <= cfg.n_max else _walk_markov_big
        out.append(walk(stats, delta_f, T, constraint, cfg))
    return out


def _first_typical(
    stats: StringStats,
    grid: _MarkovGrid,
    H: np.ndarray,
    order: np.ndarray,
    start: int,
    stop: int,
    delta_f: float,
    allowed: Optional[np.ndarray] = None,
) -> Optional[int]:
    """First grid index j in order[start:stop] that makes x delta-typical.

    allowed, when given, is a boolean mask over m (indexed by grid.m) and
    restricts the entries considered. The test is _markov_neglogp and
    _typical_fast evaluated elementwise, so each decision is the scalar
    one bit for bit. Entries are gathered in chunks that grow 4x: most
    walks stop within the first few entries, a few scan a whole slice.
    """
    chunk = 32
    while start < stop:
        end = min(start + chunk, stop)
        js = order[start:end]
        ok = _markov_neglogp(stats, grid, js) <= H[js] * (1.0 + delta_f) + ens.TYPICALITY_SLACK
        if allowed is not None:
            ok &= allowed[grid.m[js]]
        k = int(ok.argmax())
        if ok[k]:
            return int(js[k])
        start = end
        chunk *= 4
    return None


def _walk_markov_exact(
    stats: StringStats,
    delta_f: float,
    T: Optional[Fraction],
    constraint: Optional[Constraint],
    cfg: FamilyConfig,
) -> Optional[_Candidate]:
    """The Markov champion from the exact per-length tables.

    Under a budget the walk goes m by m through ec_order: desc is constant
    on an m-slice and desc + H nondecreasing, so the budget keeps a prefix,
    found by bisection, and the first m with a typical entry in its prefix
    wins. Without one, a single scan of coarse_order finds the champion.
    """
    n = stats.n
    grid = _markov_grid(cfg.m_max)
    tables = _markov_tables(cfg.m_max, n)
    H = tables["H"]
    base = 3 + nat_code_len(n)
    j = None
    if T is None:
        allowed = None
        if constraint and constraint.m_max is not None:
            allowed = np.arange(cfg.m_max + 1) <= constraint.m_max
        j = _first_typical(stats, grid, H, tables["coarse_order"], 0, grid.size, delta_f, allowed)
    else:
        order, T_f = tables["ec_order"], float(T)
        for m, sl in grid.m_slices.items():
            desc = base + nat_code_len(m) + 3 * m
            if desc > T:
                break
            if constraint and not constraint.allows_m(m):
                continue
            stop = bisect.bisect_right(order, T_f, sl.start, sl.stop, key=lambda j: H[j] + desc)
            j = _first_typical(stats, grid, H, order, sl.start, stop, delta_f)
            if j is not None:
                break
    if j is None:
        return None
    desc = base + int(grid.descbase[j])
    return _scored(desc, float(H[j]), _markov_ensemble(grid, n, j), T)


def _walk_markov_big(
    stats: StringStats,
    delta_f: float,
    T: Optional[Fraction],
    constraint: Optional[Constraint],
    cfg: FamilyConfig,
) -> Optional[_Candidate]:
    """The Markov champion beyond the exact bound: per m, the first confirmed
    straggler that fits the budget. desc grows with m, so once the objective's
    lower bound (desc under a budget, 2 desc without) exceeds the best so far,
    no later m can win."""
    grid = _markov_grid(cfg.m_max)
    base = 3 + nat_code_len(stats.n)
    T_f = None if T is None else float(T)
    best: Optional[_Candidate] = None
    for m in range(1, cfg.m_max + 1):
        if constraint and not constraint.allows_m(m):
            continue
        desc = base + nat_code_len(m) + 3 * m
        if T is not None and desc > T:
            break
        if best is not None and (desc if T is not None else 2 * desc) > best.objective:
            break
        budget = None if T is None else (desc, T_f)
        for e, H in _markov_confirmed(stats, grid, m, delta_f, budget):
            if T is None or H + desc <= T_f:
                best = _pick_canonical((best, _scored(desc, H, e, T)))
                break
    return best


def _search(
    x: str,
    delta,
    mode: str,
    constraint: Optional[Constraint],
    cfg: FamilyConfig,
    resolve_Delta=None,
) -> ComplexityReport:
    """The report of ec (resolve_Delta maps n to the budget slack Delta) or,
    with resolve_Delta None, of coarse_ec."""
    stats = string_stats(x)
    n = stats.n
    mode = _resolve_mode(mode, n, cfg)
    delta_f = float(delta)
    if delta_f < 0:
        raise ValueError("delta must be >= 0")
    Delta = None if resolve_Delta is None else resolve_Delta(n)
    khv = khat_value(stats, cfg, mode)
    T = None if Delta is None else khv + Delta
    best = _pick_canonical(_candidates(x, stats, delta_f, T, mode, constraint, cfg))
    report = ComplexityReport(
        n=n,
        lz_len=stats.lz_len,
        khat=khv,
        mode=mode,
        ec_is_upper_bound=(mode == "upper"),
        delta_text=str(Fraction(delta)),
        Delta_text="" if Delta is None else str(Delta),
        config=cfg.echo(),
    )
    if best is None:
        report.ec_empty = True
        return report
    if T is None:
        report.coarse_ec = float(best.objective) - khv
    else:
        report.ec = best.objective
    report.witness = best.ensemble
    return report


def ec(
    x: str,
    query: ComplexityQuery,
    cfg: FamilyConfig = DEFAULT_CONFIG,
) -> ComplexityReport:
    """Budgeted effective complexity of x under the family scheme."""
    return _search(x, query.delta, query.mode, query.constraint, cfg, query.resolve_Delta)


def coarse_ec(
    x: str,
    delta,
    mode: str = "exact",
    cfg: FamilyConfig = DEFAULT_CONFIG,
    constraint: Optional[Constraint] = None,
) -> ComplexityReport:
    """Coarse effective complexity min_typical [2 D(E) + H(E)] - khat(x)."""
    return _search(x, delta, mode, constraint, cfg)


# --- exhaustive scan -------------------------------------------------------------

@dataclass
class ScanResult:
    n: int
    delta_text: str
    max_value: float
    argmax: str
    histogram: list[tuple[float, int]]  # sorted by value


def max_coarse_scan(n: int, delta, cfg: FamilyConfig = DEFAULT_CONFIG) -> ScanResult:
    """Exhaustive exact coarse_ec over {0,1}^n: max, lex-first argmax, histogram."""
    if n > 16:
        raise ResourceLimitError(f"max_coarse_scan requires n <= 16, got {n}")
    delta_f = float(delta)
    if delta_f < 0:
        raise ValueError("delta must be >= 0")
    hist: dict[float, int] = {}
    best_val = -math.inf
    best_x = None
    value_cache: dict[tuple, float] = {}
    for x, lz_len in lz78.iter_with_code_len(n):
        stats = string_stats(x, lz_len)
        key = stats.key
        val = value_cache.get(key)
        if val is None:
            khv = khat_value(stats, cfg, "exact")
            best = _pick_canonical(_candidates(x, stats, delta_f, None, "exact", None, cfg))
            val = float(best.objective) - khv
            value_cache[key] = val
        hist[val] = hist.get(val, 0) + 1
        if val > best_val:
            best_val = val
            best_x = x
    return ScanResult(
        n=n,
        delta_text=str(Fraction(delta)),
        max_value=best_val,
        argmax=best_x,
        histogram=sorted(hist.items()),
    )


# --- stationary-process sweep -------------------------------------------------------

@dataclass
class SweepRow:
    n: int
    samples: int
    seed: int
    eps: Fraction
    delta: Fraction
    fraction_budget_satisfied: Fraction
    median_ec_upper: Optional[float]
    n_empty: int
    reference_bits: int
    c_scheme: int


def _grid_rate_above(h: float, cfg: FamilyConfig) -> Fraction:
    for r in cfg.r_grid:
        if float(r) > h:
            return r
    return cfg.r_grid[-1]


def theorem1_sweep(
    model: ProcessModel,
    eps: Fraction,
    delta: Fraction,
    n_list: list[int],
    samples: int,
    seed: int,
    cfg: FamilyConfig = DEFAULT_CONFIG,
) -> list[SweepRow]:
    """Budget check and certified upper bounds along growing block lengths.

    For each sampled path the budget test asks whether the total
    information surrogate D + r*n of the uniform-typical ensemble at the
    grid rate r just above the generating component's entropy rate stays
    within khat + eps*n (evaluated exactly in rational arithmetic). Rows
    aggregate per n: the satisfaction fraction, the median certified
    effective-complexity upper bound with Delta = eps*n, and the
    reference curve |delta(n)| + |code(r)| + 3, the description length
    the uniform-typical construction predicts for the witness.
    """
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if sorted(n_list) != list(n_list):
        raise ValueError("n_list must be ascending")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    eps = Fraction(eps)
    delta = Fraction(delta)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    comps = components(model)
    r_by_comp = [_grid_rate_above(entropy_rate(c), cfg) for _, c in comps]
    r_ref = max(r_by_comp)
    c_scheme = sweep_scheme_constant(cfg)
    delta_f = float(delta)
    rows: list[SweepRow] = []
    for idx_n, n in enumerate(n_list):
        oks, values = 0, []
        for bits, comp in sample_paths(model, n, seed + idx_n, samples):
            stats = string_stats(bits)
            T = khat_value(stats, cfg, "upper") + eps * n
            r_star = r_by_comp[comp]
            oks += (3 + nat_code_len(n) + rational_code_len(r_star)) + r_star * n <= T
            best = _pick_canonical(_candidates(bits, stats, delta_f, T, "upper", None, cfg))
            if best is not None:
                values.append(best.objective)
        rows.append(
            SweepRow(
                n=n,
                samples=samples,
                seed=seed,
                eps=eps,
                delta=delta,
                fraction_budget_satisfied=Fraction(oks, samples),
                median_ec_upper=float(statistics.median(values)) if values else None,
                n_empty=samples - len(values),
                reference_bits=nat_code_len(n) + rational_code_len(r_ref) + 3,
                c_scheme=c_scheme,
            )
        )
    return rows
