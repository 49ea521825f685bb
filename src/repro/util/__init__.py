"""Shared utilities: RNG normalisation, union-find, validation, statistics."""

from .rng import SeedLike, as_generator, random_subset, spawn
from .unionfind import UnionFind
from .parallel import chunked_map, effective_workers
from .stats import (
    OnlineStats,
    P2Quantile,
    normal_interval,
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
    "chunked_map",
    "effective_workers",
    "OnlineStats",
    "P2Quantile",
    "normal_ppf",
    "z_value",
    "normal_interval",
    "wilson_interval",
    "check_probability",
    "check_positive_int",
    "check_nonnegative_int",
    "check_fraction",
    "check_in_range",
    "check_node_array",
    "require",
]
