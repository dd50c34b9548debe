"""Description-length complexity measures over the fixed ensemble family.

`khat` is the two-part-code minimum min_E [D(E) + ceil(-log2 E(x))] over
the finite candidate family F(x): both singleton tags for x, the uniform
distribution on {0,1}^n, uniform-typical ensembles for every grid rate r
with x a member, and all quantized i.i.d./Markov ensembles with m up to
m_max. `ec` minimizes D(E) over the candidates that are delta-typical for x
subject to the budget H(E) + D(E) <= khat(x) + Delta; `coarse_ec` folds
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

khat is one closed-form pass over the sufficient statistics of x
(`khat_value`): each i.i.d. or Markov order's largest likelihood numerator
comes from a closed-form argmax, in floats whose floor is rechecked in exact
integers near an integer, and an order whose empirical-entropy lower bound
is already above the minimum so far is skipped. `khat` takes its value from
that pass and builds witnesses only for the candidates that reach it: the
fixed and uniform-typical rows of that value, and a tie-band search in each
order the pass names, over the blocks that can reach the band.

Every table and memo kept is a bounded functools cache, except _order_rows,
keyed by m alone: the last string's stats and khat pass, one entry each, so
a run of queries on one x (ec then coarse_ec, a sweep over delta and Delta)
parses and scores it once; the i.i.d. and uniform-typical tables of the last
64 lengths; the closed-form Markov block tables of the last 48 (n, m).

Each per-tag formula (counts, likelihood factors, description lengths, the
typicality rule) is defined in `ensembles`; this module evaluates them in bulk.

Ties among minimizers break on (objective, description length, total
information Sigma = H + D, lexicographic serialization); results are
deterministic and agree bit for bit with a direct scan of the family at
every n, khat included, with one exception: the Markov run beyond n_max is
still the first entry confirmed, not the serialization-first of least
Sigma (an open item in ROADMAP.md).

Both objectives are monotone in (D, Sigma), so among the typical
candidates of one tag and one description length only those with the
least Sigma, the group's run, can win either. `ec` and `coarse_ec` read
one frontier that does not depend on the budget: per tag, its groups in
ascending D (each fixed row on its own, the uniform-typical rows by D, one
i.i.d. and one Markov group per m), each with its least entropy, known
without a scan, a Markov group's tighter floor, from its block pass, and
its run, computed when read. `ec` takes each tag's first run within the
budget, in ascending D, and stops once D alone rules a group out.
`coarse_ec` takes the least 2 D + H, reading each tag's groups best-first
by 2 D plus the best bound known, and stops once that bound rules the rest
out. Both skip, unread, a group whose bounds already rule it out.

Every Markov quantity is read from its order's rows: for order m, -log2 q,
-log2 (1 - q), h(q) and q over q = a / 2^m, a = 1 .. 2^m - 1, indexed at
the (a0, a1, ai) entries a search reads; no array spans two orders or holds
a whole order, and -log2 p(x) is one broadcast sum (_neg_log2_p). The
closed-form entropies are kept per (a0, a1) block only (_closed_tables,
k^2 numbers per array at k = 2^m - 1, about 160 KB per length at m = 6)
and computed for the entries a search expands (_closed_H). One Markov
search serves every n and visits no whole order: a block pass gives each
(a0, a1) block a lower bound on -log2 p(x), the sum at its least
first-symbol term, and with the range of its closed-form entropies rules
out the blocks that cannot hold a typical entry. The least closed-form
entropy of the rest bounds the order's entropies more tightly than its
least possible one, so a pick can still pass the order over. Otherwise the
blocks are expanded in ascending closed-form entropy order, and each entry
read is confirmed with the defining recursion. Up to n_max the run is
every typical entry of least Sigma, found near the first one confirmed;
beyond n_max it is the first one confirmed, within a fixed number of tries
per order. One query runs each order's block pass and search at most once;
nothing of them outlives the query.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Iterable, Optional

import numpy as np

from . import ensembles as ens
from . import lz78, typical_sets
from .codec import check_bits, encode_rational, rational_code_len
from .errors import ResourceLimitError
from .processes import ProcessModel, binary_entropy, components, entropy_rate, sample_paths
from .text import key_values, pairs, parse_fraction, parse_int

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
# and khat's Markov champion then take the floor from the integer factors
# (_floor_log2_product), with powers of two as shifts; the champion's tie band
# also reaches this far below the integer under the top one
_FLOAT_GUARD = 1e-6
_STRAGGLER_CAP = 256  # large-n Markov entries retried per m before giving up on m
_LENGTHS = 64  # lengths whose i.i.d. and uniform-typical tables are kept, about 50 KB each
_CLOSED_TABLES = 8 * 6  # (n, m) closed-form Markov tables kept: 8 lengths, 160 KB each at m = 6
_CLOSED_CHUNK = 64  # blocks per chunk when the closed-form block minima and maxima are built


_R_GRID_IDS: dict[tuple[Fraction, ...], int] = {}
_R_GRID_TEXTS: list[str] = []  # the echoed text of each r_grid, indexed by grid_id


@dataclass(frozen=True)
class FamilyConfig:
    """Candidate-family configuration, echoed into every report."""

    r_grid: tuple[Fraction, ...] = typical_sets.DEFAULT_R_GRID
    m_max: int = 6
    n_max: int = typical_sets.DEFAULT_N_MAX
    # a small int naming r_grid, assigned once per instance, so a config
    # hashes (as a key of the table caches) without hashing the grid's
    # Fractions and reports do not format them on every call
    grid_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r_grid not in _R_GRID_IDS:
            _R_GRID_IDS[self.r_grid] = len(_R_GRID_TEXTS)
            _R_GRID_TEXTS.append(",".join(str(r) for r in self.r_grid))
        object.__setattr__(self, "grid_id", _R_GRID_IDS[self.r_grid])

    def __hash__(self):
        return hash((self.grid_id, self.m_max, self.n_max))  # equal grids share grid_id

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
        items = pairs([part.strip() for part in text.split(";") if part.strip()], "constraint")
        kv = key_values(items, "constraint", ("tags", "mmax", "rmin", "rmax"))
        tags = m_max = r_min = r_max = None
        if "tags" in kv:
            tags = frozenset(t.strip() for t in kv["tags"].split(",") if t.strip())
            unknown = tags - set(ens.TAG_NAMES.values())
            if unknown:
                raise ValueError(f"constraint: unknown tags {sorted(unknown)}")
        if "mmax" in kv:
            try:
                m_max = parse_int(kv["mmax"], "constraint: mmax")
            except ValueError:
                m_max = -1
            if m_max < 0:
                raise ValueError(f"constraint: mmax must be an integer >= 0, got {kv['mmax']!r}")
        if "rmin" in kv:
            r_min = parse_fraction(kv["rmin"], "constraint: rmin")
        if "rmax" in kv:
            r_max = parse_fraction(kv["rmax"], "constraint: rmax")
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


@lru_cache(maxsize=1)
def string_stats(x: str) -> StringStats:
    """x's counts and LZ78 code length; the stats of the last x parsed are
    kept, so querying one x again parses it once."""
    check_bits(x, "x")
    return StringStats(*ens.bit_counts(x), lz78._code_len_unchecked(x))


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
        base = ens.head_len(n)
        assert 2 * base >= n, "derivation requires 3 + |delta(n)| >= n/2"
        bound = 2 * base - math.log2(n) if n > 1 else 2 * base
        best = max(best, math.ceil(bound))
    return best


# --- quantized-grid tables --------------------------------------------------
#
# The order-m Markov entries are the product (a0, a1, ai) of a = 1 .. 2^m - 1
# with ai fastest, k = 2^m - 1 values per axis: entry (a0, a1, ai) has the
# slice-local index ((a0 - 1) k + a1 - 1) k + ai - 1. Every per-entry quantity
# is computed at the entries read from the order's rows, broadcast along the
# axes, so no array spans more than one order, and none kept holds more than
# one number per (a0, a1) block.


@cache
def _order_rows(m: int) -> tuple:
    """-log2 q, -log2 (1 - q), h(q) and q for q = a / 2^m, a = 1 .. 2^m - 1.

    The rows come from scalar math calls, so table-based likelihoods and
    entropies are bit-identical to the scalar ones in ensembles.neg_log2_prob
    and ensembles.entropy."""
    top = 1 << m
    a = range(1, top)
    return (
        np.array([m - math.log2(v) for v in a]),
        np.array([m - math.log2(top - v) for v in a]),
        np.array([binary_entropy(v / top) for v in a]),
        np.array([v / top for v in a]),
    )


@lru_cache(maxsize=_CLOSED_TABLES)
def _closed_tables(n: int, m: int) -> tuple[np.ndarray, ...]:
    """Per-(a0, a1)-block data of the closed form of the chain-rule entropy
    sum over the order-m entries: the stationary mean pi1 and the geometric
    factor of each block, each block's least and largest closed-form H, and
    the block indices in (least, index) order, read-only. The closed form
    lies within _closed_margin(n) of the defining recursion's values: it
    orders and prefilters every Markov search, and _closed_H gives it at the
    entries a search expands.

    Every array has one entry per block, k^2 in all: the minima and maxima
    are taken over ai a fixed chunk of blocks at a time, so no k^3 array is
    built. The _CLOSED_TABLES most recently used (n, m) are kept (160 KB
    each at m = 6)."""
    prob = _order_rows(m)[3]
    k = len(prob)
    q0, q1 = prob[:, None], prob[None, :]
    pi1 = q0 / (q0 + q1)
    lam = 1.0 - q0 - q1
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = np.where(lam == 1.0, float(n - 1), (1.0 - lam ** (n - 1)) / (1.0 - lam))
    factors = (pi1.ravel(), geo.ravel())
    lo, hi = np.empty(k * k), np.empty(k * k)
    ai = np.arange(k)
    for start in range(0, k * k, _CLOSED_CHUNK):
        stop = min(start + _CLOSED_CHUNK, k * k)
        H = _closed_H(n, m, factors, np.arange(start, stop)[:, None], ai)
        lo[start:stop], hi[start:stop] = H.min(axis=1), H.max(axis=1)
    tables = (*factors, lo, hi, np.argsort(lo, kind="stable"))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _closed_H(n: int, m: int, tables: tuple, b, ai) -> np.ndarray:
    """The closed-form H of the order-m entries (block b = (a0 - 1) k + a1 -
    1, ai - 1), broadcast over b and ai, from the block factors that lead
    tables (_closed_tables). Each entry is one chain of float operations on
    its own block's factors and its own rows, so any subset of entries gets
    the bits of the whole product."""
    hof, prob = _order_rows(m)[2:]
    k = len(prob)
    pi1, geo = tables[0][b], tables[1][b]
    sum_p1 = (n - 1) * pi1 + (prob[ai] - pi1) * geo
    return hof[ai] + hof[b // k] * ((n - 1) - sum_p1) + hof[b % k] * sum_p1


@lru_cache(maxsize=6 * _LENGTHS)
def _iid_table(n: int, m: int) -> tuple:
    """The i.i.d. candidates of one length and one order: (desc, hmin, rows)
    with rows (H, sigma, m, a, -log2 q, -log2 (1 - q)) for q = a / 2^m, in
    (sigma, a) order, the comparator's order within one desc. Keyed (n, m),
    as the Markov tables are, so every m_max shares them; orders 1 .. 6 of
    the last _LENGTHS lengths are kept."""
    desc = ens.iid_desc_len(n, m)
    log1, log0, hof, _q = (row.tolist() for row in _order_rows(m))
    rows = [
        (n * h, n * h + desc, m, a, c1, c0)
        for a, h, c1, c0 in zip(range(1, 1 << m), hof, log1, log0)
    ]
    rows.sort(key=lambda t: t[1])  # stable: a ascending within equal sigma
    return desc, min(t[0] for t in rows), rows


@lru_cache(maxsize=_LENGTHS)
def _ut_tables(cfg: FamilyConfig, n: int, exact: bool) -> list:
    """Uniform-typical candidates of one length, one group per desc: (desc,
    hmin, rows) with rows (H, sigma, r, lim, term) in (sigma, serialization)
    order. x is in T(r, n), so typical for it, exactly when lz_len < lim =
    ceil(r n). Exact mode has rows for nonempty sets only, H = log2 |T(r,n)|
    and khat term bitlen(|T| - 1); beyond it H is the surrogate r n and the
    term ceil(r n). The last _LENGTHS (cfg, n, exact) are kept."""
    by_desc: dict[int, list] = {}
    for r in cfg.r_grid:
        desc = ens.typical_desc_len(n, r)
        lim = -(-(r.numerator * n) // r.denominator)
        if exact:
            card = typical_sets.cardinality(typical_sets.TypicalSetSpec(r, n), cfg.n_max)
            if card == 0:
                continue
            H, term = math.log2(card), (card - 1).bit_length()
        else:
            H, term = r * n, lim
        by_desc.setdefault(desc, []).append((H, H + desc, r, lim, term, encode_rational(r)))
    groups = []
    for desc in sorted(by_desc):
        rows = sorted(by_desc[desc], key=lambda t: (t[1], t[5]))
        groups.append((desc, min(t[0] for t in rows), [t[:5] for t in rows]))
    return groups


# --- exact two-part code lengths -------------------------------------------

def _argmax_candidates(m: int, e1: int, e0: int) -> tuple[int, int]:
    """Two a in [1, 2^m - 1], ascending, one of which maximizes a^e1 * (2^m - a)^e0.

    The product is log-concave in a with its real maximum at 2^m e1/(e1 + e0),
    so the integer maximum is at the floor or the next integer up; with
    e1 = e0 = 0 every a gives 1 and the first candidate is a = 1."""
    top = 1 << m
    a = top * e1 // (e1 + e0) if e1 + e0 else 1
    return min(max(a, 1), top - 1), min(a + 1, top - 1)


def _best_factor_log(m: int, e1: int, e0: int) -> tuple[int, float]:
    """(argmax a, max) of e1*log2(a) + e0*log2(2^m - a); the smallest a on ties."""
    top = 1 << m
    best_a, best_v = 0, -math.inf
    for a in _argmax_candidates(m, e1, e0):
        v = e1 * math.log2(a) + e0 * math.log2(top - a)  # at a = 1: 0.0 + e0 log2(top - 1)
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
            odd *= (base >> k) ** exp
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
    return _khat_pass(stats, cfg, mode)[0]


def _khat_pass(stats: StringStats, cfg: FamilyConfig, mode: str) -> tuple[int, tuple]:
    """The two-part-code minimum and the (tag, m) of each i.i.d. or Markov
    order whose closed-form value reaches it, in the pass's order: mode is
    only validated, and _khat_scores runs the pass."""
    _resolve_mode(mode, stats.n, cfg)
    return _khat_scores(stats, cfg)


@lru_cache(maxsize=1)
def _khat_scores(stats: StringStats, cfg: FamilyConfig) -> tuple[int, tuple]:
    """The pass of _khat_pass; the result of the last (stats, family) is
    kept.

    Each order's value is desc + m n - floor(log2 of its largest numerator),
    with the numerator's maximum from a closed-form argmax, in floats whose
    floor is rechecked exactly near an integer (_floor_log2_guarded).

    An order is skipped when a lower bound on its value exceeds the minimum
    so far, so it cannot reach the final minimum. The numerator is below
    2^(m n), so every value is at least desc + 1. By Gibbs' inequality,
    m n - log2 of the largest numerator is at least the empirical entropy
    term: n h(ones/n) for i.i.d. orders and n0 h(n01/n0) + n1 h(n10/n1) for
    Markov orders, with n0 = n00 + n01 and n1 = n10 + n11 the transitions out
    of each state. So every value is at least desc plus that term. The float
    term is lowered by 1e-9 n + 1e-9, far above its rounding error, and an
    order is skipped only when the bound is strictly above the minimum so
    far: an order whose value equals the final minimum is always evaluated,
    so the named orders are those of the unpruned pass."""
    n = stats.n
    # uniform-all and singleton-raw reach head + n, singleton-lz head + lz_len
    best = ens.head_len(n) + min(n, stats.lz_len)
    # the exact log-cardinality term is used whenever it is computable; the
    # ceil(r n) surrogate enters only beyond the enumeration bound, so both
    # modes see the same khat for any n the exact mode can handle
    for desc, _hmin, rows in _ut_tables(cfg, n, n <= cfg.n_max):
        for _H, _sig, _r, lim, term in rows:
            if stats.lz_len < lim:
                best = min(best, desc + term)
    ones, zeros = stats.ones, n - stats.ones
    n0, n1 = stats.n00 + stats.n01, stats.n10 + stats.n11
    slack = 1e-9 * n + 1e-9
    lb_iid = max(1.0, n * binary_entropy(ones / n) - slack)
    h_mk = (n0 * binary_entropy(stats.n01 / n0) if n0 else 0.0) + (
        n1 * binary_entropy(stats.n10 / n1) if n1 else 0.0
    )
    lb_mk = max(1.0, h_mk - slack)
    values: list[tuple[int, str, int]] = []
    for m in range(1, cfg.m_max + 1):
        top = 1 << m
        desc_iid = ens.iid_desc_len(n, m)
        if desc_iid + lb_iid <= best:
            a_star, lg = _best_factor_log(m, ones, zeros)
            bl = _floor_log2_guarded(lg, ens.iid_factors(stats, top, a_star))
            cand = desc_iid + m * n - bl
            values.append((cand, "iid", m))
            best = min(best, cand)
        desc_mk = ens.markov_desc_len(n, m)
        if desc_mk + lb_mk <= best:
            a0s, lg0 = _best_factor_log(m, stats.n01, stats.n00)
            a1s, lg1 = _best_factor_log(m, stats.n10, stats.n11)
            lg = math.log2(top - 1) + lg0 + lg1
            bl = _floor_log2_guarded(lg, ens.markov_factors(stats, top, top - 1, a0s, a1s))
            cand = desc_mk + m * n - bl
            values.append((cand, "markov-q", m))
            best = min(best, cand)
    return best, tuple((tag, m) for v, tag, m in values if v == best)


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


def _fixed_rows(x: str, stats: StringStats) -> tuple:
    """(desc, H, class, argument) of uniform-all and both singletons: each has
    -log2 p(x) = H, an integer, given as a float."""
    base = ens.head_len(stats.n)
    return (
        (base, float(stats.n), ens.UniformAll, stats.n),
        (base + stats.n, 0.0, ens.SingletonRaw, x),
        (base + stats.lz_len, 0.0, ens.SingletonLZ, x),
    )


def khat(
    x: str, cfg: FamilyConfig = DEFAULT_CONFIG, mode: str = "auto"
) -> tuple[int, ens.Ensemble]:
    """Two-part-code minimum together with its canonical witness ensemble.

    The value is _khat_pass's; witnesses are built only for the candidates
    that reach it.
    """
    stats = string_stats(x)
    n = stats.n
    value, orders = _khat_pass(stats, cfg, mode)
    finalists = [
        _Candidate(value, desc, H + desc, cls(arg))
        for desc, H, cls, arg in _fixed_rows(x, stats)
        if desc + H == value
    ]
    for desc, _hmin, rows in _ut_tables(cfg, n, n <= cfg.n_max):
        for _H, sig, r, lim, term in rows:
            if stats.lz_len < lim and desc + term == value:
                finalists.append(_Candidate(value, desc, sig, ens.UniformTypical(r, n)))
    for tag, m in orders:
        champion = _khat_iid_champion if tag == "iid" else _khat_markov_champion
        finalists.append(champion(stats, m))
    return value, _pick_canonical(finalists).ensemble


def _khat_iid_champion(stats: StringStats, m: int) -> _Candidate:
    """Canonical best order-m i.i.d. candidate. Order m's rows are in
    (Sigma, a) order, the comparator's order within one desc, so the first
    row with the largest numerator bit length wins."""
    n = stats.n
    ones, zeros = stats.ones, n - stats.ones
    top = 1 << m
    best_bl, best = -1, None
    desc, _hmin, rows = _iid_table(n, m)
    for row in rows:
        a = row[3]
        lg = ones * math.log2(a) + zeros * math.log2(top - a)
        bl = _floor_log2_guarded(lg, ens.iid_factors(stats, top, a))
        if bl > best_bl:
            best_bl, best = bl, row
    return _Candidate(desc + m * n - best_bl, desc, best[1], ens.IIDQuantized(n, m, best[3]))


def _khat_markov_champion(stats: StringStats, m: int) -> _Candidate:
    """Canonical best order-m Markov candidate.

    Equal two-part values mean equal numerator bit lengths, so the tie band
    is the whole top unit interval of log2 of the numerator, widened by one
    unit and _FLOAT_GUARD for float safety. It is read off the (a0, a1)
    blocks whose least -log2 p(x) (_block_bounds) can reach it, and its
    entries with the largest bit length are ranked by (H + desc, a0, a1, ai)
    (_least_sigma)."""
    n = stats.n
    desc = ens.markov_desc_len(n, m)
    k = (1 << m) - 1
    bound = _block_bounds(stats, m)
    vmin = bound.min()  # float addition is monotone: the least -log2 p(x)
    lgmax = float(m * n - vmin)  # log2 of the largest numerator
    band = math.floor(lgmax) - 1 - _FLOAT_GUARD
    # a band entry's -log2 p(x), and so its block's bound, lie at most
    # lgmax - band (plus a few roundings) above vmin
    bs = np.flatnonzero(bound <= vmin + (lgmax - band + 1e-6 + 1e-12 * n))
    a0s, a1s = np.divmod(bs, k)
    lg = m * n - _neg_log2_p(stats, m, a0s[:, None], a1s[:, None], _first_terms(stats, m))
    b_at, ai_at = np.nonzero(lg >= band)
    near = bs[b_at] * k + ai_at  # slice-local indices
    # bit length of each entry's numerator, whose float log2 is v: the float
    # floor, and the exact one for the entries within _FLOAT_GUARD of an integer
    v = lg[b_at, ai_at]
    fl = np.floor(v)
    bl = fl.astype(np.int64) + 1
    top = 1 << m
    for i in np.flatnonzero(np.minimum(v - fl, fl + 1 - v) < _FLOAT_GUARD).tolist():
        a0, a1, ai = int(a0s[b_at[i]]) + 1, int(a1s[b_at[i]]) + 1, int(ai_at[i]) + 1
        init = ai if stats.first else top - ai
        bl[i] = 1 + _floor_log2_product(ens.markov_factors(stats, top, init, a0, a1))
    best_bl = int(bl.max())
    tied = near[bl == best_bl]
    Hc = _closed_H(n, m, _closed_tables(n, m), tied // k, tied % k)
    by_hc = np.lexsort((tied, Hc))
    entries = (
        (hc, j, ens.entropy(_markov_ensemble(n, m, j)))
        for hc, j in zip(Hc[by_hc].tolist(), tied[by_hc].tolist())
    )
    sigma, [(_H, e), *_] = _least_sigma(entries, n, m, desc)
    return _Candidate(desc + m * n - best_bl + 1, desc, sigma, e)


# --- feasibility predicates ---------------------------------------------------

def budget_fits(sigma, T: Fraction) -> bool:
    """Total-information budget test Sigma(E) <= khat + Delta.

    Exact when sigma is an int or Fraction; double precision otherwise.
    """
    if isinstance(sigma, float):
        return sigma <= float(T)
    return sigma <= T


def _neg_log2_p(stats: StringStats, m: int, a0, a1, li) -> np.ndarray:
    """-log2 p(x) at order-m entries, broadcast over a0, a1 (indices a - 1
    into the order's rows) and li, the first symbol's term: the sum
    li + n00 c00 + n01 c01 + n10 c10 + n11 c11 of ensembles.neg_log2_prob,
    added in its order from the same rows."""
    log1, log0 = _order_rows(m)[:2]  # c01, c10 and c00, c11 as functions of a
    return (
        ((li + stats.n00 * log0[a0]) + stats.n01 * log1[a0]) + stats.n10 * log1[a1]
    ) + stats.n11 * log0[a1]


def _first_terms(stats: StringStats, m: int) -> np.ndarray:
    """li over ai: -log2 of ai / 2^m if x starts with 1, else of 1 - ai / 2^m."""
    return _order_rows(m)[0 if stats.first else 1]


def _block_bounds(stats: StringStats, m: int) -> np.ndarray:
    """Each order-m (a0, a1) block's least -log2 p(x), in block index order.
    Float addition is monotone, so the sum with li at its minimum is bit for
    bit the least over ai; its k x k outer form builds no (a0, ai) table."""
    ks = np.arange((1 << m) - 1)
    return _neg_log2_p(stats, m, ks[:, None], ks, _first_terms(stats, m).min()).ravel()


def _markov_ensemble(n: int, m: int, j: int) -> ens.MarkovQuantized:
    """The order-m entry with slice-local index j."""
    k = (1 << m) - 1
    a0a1, ai = divmod(j, k)
    a0, a1 = divmod(a0a1, k)
    return ens.MarkovQuantized(n, m, a0 + 1, a1 + 1, ai + 1)


def _closed_margin(n: int) -> float:
    """A bound on |closed-form H - H| at length n, far above their rounding."""
    return 1e-6 + 1e-12 * n


@lru_cache(maxsize=1 << 12)
def _markov_hmin(n: int, m: int) -> float:
    """The hmin of the order-m Markov group at length n (_markov_groups)."""
    return n * binary_entropy(1 / (1 << m)) - _closed_margin(n)


def _markov_blocks(stats: StringStats, m: int, delta_f: float) -> np.ndarray:
    """The order-m block pass: the (a0, a1) blocks that may hold an entry x
    is typical for, in ascending (least closed-form H, block index) order.

    A block is kept when its least -log2 p(x) (_block_bounds) is within its
    largest typicality threshold, with _closed_margin for the closed form's
    rounding."""
    hi, by_lo = _closed_tables(stats.n, m)[3:]
    threshold = hi * (1.0 + delta_f) + ens.TYPICALITY_SLACK + _closed_margin(stats.n)
    keep = _block_bounds(stats, m) <= threshold
    return by_lo[keep[by_lo]]


def _markov_confirmed(
    stats: StringStats, m: int, delta_f: float, cap: float = math.inf,
    blocks: Optional[np.ndarray] = None,
):
    """Yield (closed-form H, slice-local index, H), in (closed-form H, a0,
    a1, ai) order, for the order-m Markov entries that x is typical for.

    blocks is the order's block pass (_markov_blocks, run here when not
    given). Its blocks are expanded in that order, in batches that grow 4x:
    -log2 p(x) is built for each expanded block's k entries only, and an
    entry is kept when its closed-form entropy makes x typical, with
    _closed_margin for the closed form's rounding. A kept entry is passed on
    once its closed-form H lies below the least one of every block not yet
    expanded, so no later entry can precede it. The first cap entries passed
    on (all, by default) are confirmed: H is rebuilt by the defining
    recursion and the entry is yielded if x stays typical.
    """
    if blocks is None:
        blocks = _markov_blocks(stats, m, delta_f)
    n = stats.n
    margin = _closed_margin(n)
    scale = 1.0 + delta_f
    k = (1 << m) - 1
    li = _first_terms(stats, m)
    tables = _closed_tables(n, m)
    lo, ks = tables[2], np.arange(k)
    left = cap
    pend_h = pend_i = pend_v = None  # kept entries not yet confirmed
    done, chunk = 0, 2
    while done < len(blocks):
        bs = blocks[done : done + chunk]
        done += len(bs)
        chunk *= 4
        a0, a1 = np.divmod(bs, k)
        v = _neg_log2_p(stats, m, a0[:, None], a1[:, None], li)
        hb = _closed_H(n, m, tables, bs[:, None], ks)
        keep = v <= hb * scale + ens.TYPICALITY_SLACK + margin
        hb, ib, vb = hb[keep], (bs[:, None] * k + ks)[keep], v[keep]
        if pend_h is not None:
            hb = np.concatenate((pend_h, hb))
            ib = np.concatenate((pend_i, ib))
            vb = np.concatenate((pend_v, vb))
        order = np.lexsort((ib, hb))
        hb, ib, vb = hb[order], ib[order], vb[order]
        ready = len(hb) if done == len(blocks) else int(np.searchsorted(hb, lo[blocks[done]]))
        ready = min(ready, left)
        left -= ready
        for hc, i, vi in zip(hb[:ready].tolist(), ib[:ready].tolist(), vb[:ready].tolist()):
            H = ens.entropy(_markov_ensemble(n, m, i))
            if ens.is_typical(vi, H, delta_f):
                yield hc, i, H
        if left == 0:
            return
        pend_h, pend_i, pend_v = hb[ready:], ib[ready:], vb[ready:]


def _least_sigma(entries: Iterable[tuple], n: int, m: int, desc: int) -> Optional[tuple]:
    """The run of the order-m entries (closed-form H, slice-local index, H)
    given in ascending closed-form H, or None for no entries: the least
    sigma = H + desc, added in floats as a sort by total information adds
    it, and the entries (H, ensemble) that have it, in serialization order.
    Each closed-form H is within _closed_margin(n) of H, so reading stops at
    the first entry whose closed-form H exceeds the first one's by more than
    twice the margin: it cannot reach the least sigma."""
    band, last = [], math.inf
    for hc, j, H in entries:
        if hc > last:
            break
        if not band:
            last = hc + 2 * _closed_margin(n)
        band.append((H + desc, j, H))
    if not band:
        return None
    band.sort()
    sigma = band[0][0]
    return sigma, tuple((H, _markov_ensemble(n, m, j)) for s, j, H in band if s == sigma)


# --- the frontier and its two picks ---------------------------------------------
#
# A group is (desc, hmin, floor, read): hmin bounds its entropies from below,
# floor() gives a bound at least as tight (a Markov group runs its block pass
# for it; floor is None where hmin is the best bound known without a scan),
# and read() gives its run (sigma, members), members as (H, ensemble) in
# serialization order, or None when none is typical.

def _run_of(rows: list, typical, build) -> Optional[tuple]:
    """The run of rows (H, sigma, ...) in (sigma, serialization) order: the
    first typical row and the typical rows after it with the same sigma."""
    sigma, members = None, []
    for row in rows:
        if members and row[1] != sigma:
            break
        if typical(row):
            sigma = row[1]
            members.append((row[0], build(row)))
    return (sigma, members) if members else None


def _markov_groups(
    stats: StringStats, delta_f: float, constraint: Optional[Constraint], cfg: FamilyConfig
):
    """One group per order m. hmin is n h(2^-m) less _closed_margin: each
    step of the chain-rule sum adds p0 h(q0) + p1 h(q1) >= h(2^-m), and the
    first adds h(ai / 2^m) >= h(2^-m), with equality at a0 = a1 = ai = 1.

    The floor runs its order's block pass (_markov_blocks): the least
    closed-form H of the kept blocks less _closed_margin (infinite with no
    block kept, never below hmin) bounds every entry it can confirm. Reading
    the group runs _markov_confirmed over those blocks. Up to n_max it is
    exhaustive and the run is every typical entry of least sigma
    (_least_sigma); beyond n_max the run is the first entry confirmed within
    _STRAGGLER_CAP tries. A group's floor and read share its block pass, and
    a pick reads each group at most once, so one query runs each order's
    block pass and search at most once; nothing of them outlives the query."""
    n = stats.n
    exhaustive = n <= cfg.n_max
    passes = {}  # each order's block pass, shared by its floor and read

    def blocks(m):
        kept = passes.get(m)
        if kept is None:
            kept = passes[m] = _markov_blocks(stats, m, delta_f)
        return kept

    def floor(m, hmin):
        kept = blocks(m)
        if not len(kept):
            return math.inf
        return max(hmin, float(_closed_tables(n, m)[2][kept[0]]) - _closed_margin(n))

    def read(m, desc):
        if exhaustive:
            return _least_sigma(_markov_confirmed(stats, m, delta_f, blocks=blocks(m)), n, m, desc)
        confirmed = _markov_confirmed(stats, m, delta_f, _STRAGGLER_CAP, blocks(m))
        _hc, j, H = next(confirmed, (None,) * 3)
        return None if j is None else (H + desc, ((H, _markov_ensemble(n, m, j)),))

    for m in range(1, cfg.m_max + 1):
        if not constraint or constraint.allows_m(m):
            desc = ens.markov_desc_len(n, m)
            hmin = _markov_hmin(n, m)
            yield desc, hmin, partial(floor, m, hmin), partial(read, m, desc)


def _frontier(
    x: str, stats: StringStats, delta_f: float, mode: str, constraint: Optional[Constraint],
    cfg: FamilyConfig,
) -> list:
    """Each allowed tag's groups in ascending desc: each fixed row on its
    own, one i.i.d. and one Markov group per m, and the uniform-typical rows
    grouped by desc. The cheap bounds come first, so that a pick usually
    skips the uniform-typical groups unread and the singletons before their
    ensembles are built."""
    n, ones, zeros = stats.n, stats.ones, stats.n - stats.ones
    allow = constraint.allows_tag if constraint else (lambda _t: True)
    allow_r = constraint.allows_r if constraint else (lambda _r: True)
    fixed_typical = lambda _row: True  # -log2 p(x) = H for a fixed row
    fixed_build = lambda row: row[2](row[3])
    uniform_all, *singletons = (
        [(desc, H, None, partial(_run_of, [(H, H + desc, cls, arg)], fixed_typical, fixed_build))]
        if allow(ens.TAG_NAMES[cls]) else []
        for desc, H, cls, arg in _fixed_rows(x, stats)
    )
    tags = [uniform_all]
    if allow("iid"):
        iid_typical = lambda row: ens.is_typical(ones * row[4] + zeros * row[5], row[0], delta_f)
        iid_build = lambda row: ens.IIDQuantized(n, row[2], row[3])
        tags.append(
            (desc, hmin, None, partial(_run_of, rows, iid_typical, iid_build))
            for m in range(1, cfg.m_max + 1)
            if not constraint or constraint.allows_m(m)
            for desc, hmin, rows in (_iid_table(n, m),)
        )
    if allow("markov-q"):
        tags.append(_markov_groups(stats, delta_f, constraint, cfg))
    if allow("uniform-typ"):
        ut_member = lambda row: stats.lz_len < row[3] and allow_r(row[2])  # member => typical
        ut_build = lambda row: ens.UniformTypical(row[2], n)
        # the surrogate H = r n of a member exceeds lz_len
        least = 0 if mode == "exact" else stats.lz_len
        tags.append(
            (desc, max(hmin, least), None, partial(_run_of, rows, ut_member, ut_build))
            for desc, hmin, rows in _ut_tables(cfg, n, mode == "exact")
        )
    return tags + singletons


def _runs(groups: Iterable, stop, skip) -> Iterable[tuple]:
    """(desc, run) of each group read, in ascending desc: reading ends at the
    first desc for which stop(desc) holds, and a group for which skip(desc,
    h) holds for its hmin, or then for its floor, or whose run is None, is
    passed over."""
    for desc, hmin, floor, read in groups:
        if stop(desc):
            return
        if not skip(desc, hmin) and (floor is None or not skip(desc, floor())):
            run = read()
            if run is not None:
                yield desc, run


def _ec_pick(frontier: list, T: Fraction) -> Optional[_Candidate]:
    """The least desc over typical candidates with sigma <= T.

    A run's sigma is the least of its group's typical candidates, so a tag's
    champion is the serialization-first member of its first run within T."""
    limit = math.floor(T)  # desc is an int: desc > T exactly when desc > floor(T)
    champions = []
    for groups in frontier:
        for desc, (sigma, members) in _runs(
            groups, lambda d: d > limit, lambda d, h: not budget_fits(d + h, T)
        ):
            if budget_fits(sigma, T):
                champions.append(_Candidate(desc, desc, sigma, members[0][1]))
                limit = desc  # a later tag's group above it cannot win
                break
    return _pick_canonical(champions)


def _coarse_pick(frontier: list) -> Optional[_Candidate]:
    """The least 2 desc + H over typical candidates.

    Within one desc, 2 desc + H never falls as sigma rises, so a run holds
    its group's best: the least (2 desc + H, serialization) member, as its
    members share sigma but not always 2 desc + H. A tag's champion is its
    least (objective, desc).

    Each tag's groups are taken best-first, by (2 desc + the best bound
    known, desc): a group is first keyed by its hmin; when it comes up, a
    group with a floor is keyed again by that, and a group that comes up
    with its best bound has its run read. Taking ends once the least key
    exceeds the bound so far, which every later objective then exceeds too.
    So a Markov order's block pass runs only when its hmin may beat the
    bound, and its run is searched only when its floor may."""
    bound = math.inf
    champions = []
    for groups in frontier:
        heap = []
        for desc, hmin, floor, read in groups:
            if 2 * desc > bound:
                break
            if 2 * desc + hmin <= bound:
                heap.append((2 * desc + hmin, desc, floor, read))
        heapq.heapify(heap)  # desc differs within a tag: keys never tie
        champion = None
        while heap and heap[0][0] <= bound:
            _least, desc, floor, read = heapq.heappop(heap)
            if floor is not None:
                heapq.heappush(heap, (2 * desc + floor(), desc, None, read))
                continue
            run = read()
            if run is None:
                continue
            sigma, members = run
            H, e = min(members, key=lambda member: 2 * desc + member[0])
            if champion is None or (2 * desc + H, desc) < (champion.objective, champion.desc):
                champion = _Candidate(2 * desc + H, desc, sigma, e)
                bound = min(bound, champion.objective)
        champions.append(champion)
    return _pick_canonical(champions)


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
    frontier = _frontier(x, stats, delta_f, mode, constraint, cfg)
    best = _coarse_pick(frontier) if Delta is None else _ec_pick(frontier, khv + Delta)
    report = ComplexityReport(
        n=n,
        lz_len=stats.lz_len,
        khat=khv,
        mode=mode,
        delta_text=str(Fraction(delta)),
        Delta_text="" if Delta is None else str(Delta),
        config=cfg.echo(),
    )
    if best is None:
        report.ec_empty = True
        return report
    if Delta is None:
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
        stats = StringStats(*ens.bit_counts(x), lz_len)  # every x is new: no kept stats
        key = stats.key
        val = value_cache.get(key)
        if val is None:
            khv = khat_value(stats, cfg, "exact")
            best = _coarse_pick(_frontier(x, stats, delta_f, "exact", None, cfg))
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
    import statistics  # its only user: other commands skip loading it

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
        for i in range(samples):  # one path held at a time
            ((bits, comp),) = sample_paths(model, n, seed + idx_n, 1, i)
            stats = string_stats(bits)
            T = khat_value(stats, cfg, "upper") + eps * n
            r_star = r_by_comp[comp]
            oks += ens.typical_desc_len(n, r_star) + r_star * n <= T
            best = _ec_pick(_frontier(bits, stats, delta_f, "upper", None, cfg), T)
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
                reference_bits=ens.typical_desc_len(n, r_ref),
                c_scheme=c_scheme,
            )
        )
    return rows
