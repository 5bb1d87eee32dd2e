"""baerlab: a finite permutation-group engine plus a verification layer for
prime-power-index factorisation predicates.

The package computes the structural objects of finite group theory (Sylow and
Hall subgroups, cores, Fitting series, centralisers; a fact about a factor
group G/M is read as a relative core in G, with no group built for G/M) and
machine checks factorisation predicates and their structural consequences on
worked examples and on swept corpora of small factorised groups.
"""

from .errors import CapExceeded, InternalInvariantViolation
from .numth import PrimePower, classify_prime_power
from .perm import Permutation, format_cycles, identity, parse_cycles
from .group import Group, Subgroup, centraliser, class_index, closure, conjugacy_class

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "InternalInvariantViolation",
    "PrimePower",
    "classify_prime_power",
    "Permutation",
    "format_cycles",
    "identity",
    "parse_cycles",
    "Group",
    "Subgroup",
    "centraliser",
    "class_index",
    "closure",
    "conjugacy_class",
    "__version__",
]
