"""Pre-filters that shrink the dataset before TopRR processing (Section 6.3)."""

from repro.pruning.base import FilterResult, apply_filter
from repro.pruning.rskyband import r_skyband
from repro.pruning.comparison import compare_filters

__all__ = [
    "FilterResult",
    "apply_filter",
    "r_skyband",
    "compare_filters",
]
