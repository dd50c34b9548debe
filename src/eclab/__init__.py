"""eclab: a bit-exact description-length laboratory for binary strings.

Modules: codec (prefix-free integer/rational codes), lz78 (parsing and a
faithful coder), processes (stationary models and seeded samplers),
typical_sets (LZ-threshold sets), ensembles (the describable family),
complexity (two-part codes and effective-complexity measures), text (the
integer, rational and key=value text forms every reader uses), cli.
"""

from .complexity import (
    ComplexityQuery,
    ComplexityReport,
    Constraint,
    FamilyConfig,
    coarse_ec,
    ec,
    khat,
    max_coarse_scan,
    theorem1_sweep,
)
from .processes import Bernoulli, Markov, Mixture, sample
from .typical_sets import TypicalSetSpec

__all__ = [
    "Bernoulli",
    "Markov",
    "Mixture",
    "TypicalSetSpec",
    "ComplexityQuery",
    "ComplexityReport",
    "Constraint",
    "FamilyConfig",
    "khat",
    "ec",
    "coarse_ec",
    "max_coarse_scan",
    "theorem1_sweep",
    "sample",
]

__version__ = "0.1.0"
