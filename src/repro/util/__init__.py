"""Shared utilities: RNG normalisation, union-find, validation, statistics."""

from .rng import SeedLike, as_generator, random_subset, spawn
from .unionfind import UnionFind
from .stats import (
    OnlineStats,
    normal_ppf,
    wilson_interval,
    z_value,
)
from .validation import (
    check_fraction,
    check_in_range,
    check_node_array,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
    require,
)

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn",
    "random_subset",
    "UnionFind",
    "OnlineStats",
    "normal_ppf",
    "z_value",
    "wilson_interval",
    "check_probability",
    "check_positive_int",
    "check_nonnegative_int",
    "check_fraction",
    "check_in_range",
    "check_node_array",
    "require",
]
