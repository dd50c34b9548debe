"""LZ-threshold typical sets T(r, n) = { x in {0,1}^n : code_len(x) < r*n }.

Membership uses strict '<' with the comparison done in exact integer
arithmetic (code_len * den < num * n for r = num/den), so there is no
floating-point boundary ambiguity. `contains` and the Monte Carlo
`empirical_prob` stop the LZ78 parse as soon as the complete phrases so
far already cost at least r*n bits (lz78._code_len_below); the answer is
the same as from the full code length. Exhaustive enumeration is
bounded by ``n_max`` (default 24); cardinalities come from the shared
code-length histogram and never materialize the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lz78
from .codec import check_bits
from .errors import ResourceLimitError
from .processes import ProcessModel, sample_paths

__all__ = [
    "TypicalSetSpec",
    "DEFAULT_N_MAX",
    "DEFAULT_R_GRID",
    "contains",
    "enumerate_set",
    "cardinality",
    "empirical_prob",
    "size_bound_holds",
]

DEFAULT_N_MAX = 24

# Rate grid used wherever a minimization must exhaust thresholds.
DEFAULT_R_GRID: tuple[Fraction, ...] = tuple(
    sorted({Fraction(k, 64) for k in range(1, 65)} | {Fraction(k, 8) for k in range(9, 17)})
)


@dataclass(frozen=True)
class TypicalSetSpec:
    r: Fraction
    n: int

    def __post_init__(self):
        r = Fraction(self.r)
        if r <= 0:
            raise ValueError("rate r must be positive")
        if self.n < 1:
            raise ValueError("block length n must be >= 1")
        object.__setattr__(self, "r", r)


def contains(spec: TypicalSetSpec, x: str) -> bool:
    """Exact membership test; x must have length spec.n."""
    if len(x) != spec.n:
        raise ValueError(f"expected a string of length {spec.n}, got {len(x)}")
    check_bits(x, "input string")
    return _member(spec, x)


def _member(spec: TypicalSetSpec, x: str) -> bool:
    """contains for an x of length spec.n known to be nonempty 0/1."""
    return lz78._code_len_below(x, spec.r.numerator * spec.n, spec.r.denominator)


def _check_n(spec: TypicalSetSpec, n_max: int) -> None:
    if spec.n > n_max:
        raise ResourceLimitError(
            f"exhaustive enumeration needs n <= {n_max}, got n = {spec.n}"
        )


def enumerate_set(spec: TypicalSetSpec, n_max: int = DEFAULT_N_MAX) -> list[str]:
    """All members in lexicographic order (bounded by n_max)."""
    _check_n(spec, n_max)
    num, den = spec.r.numerator, spec.r.denominator
    bound = num * spec.n
    return [x for x, length in lz78.iter_with_code_len(spec.n) if length * den < bound]


def cardinality(spec: TypicalSetSpec, n_max: int = DEFAULT_N_MAX) -> int:
    """Exact |T(r, n)| via the code-length histogram."""
    _check_n(spec, n_max)
    num, den = spec.r.numerator, spec.r.denominator
    bound = num * spec.n
    return sum(
        count
        for length, count in lz78.code_length_counts(spec.n).items()
        if length * den < bound
    )


def size_bound_holds(spec: TypicalSetSpec, card: int) -> bool:
    """Exact check of card <= 2^(r*n), i.e. card^den <= 2^(num*n)."""
    num, den = spec.r.numerator, spec.r.denominator
    return card**den <= 1 << (num * spec.n)


def empirical_prob(
    spec: TypicalSetSpec,
    model: ProcessModel,
    samples: int,
    seed: int,
) -> Fraction:
    """Fraction of `samples` seeded paths that land in T(r, n). Each path is
    drawn and tested in turn, so one is held at a time."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    for i in range(samples):
        ((bits, _),) = sample_paths(model, spec.n, seed, 1, i)
        hits += _member(spec, bits)  # sampled: length n, 0/1
    return Fraction(hits, samples)
