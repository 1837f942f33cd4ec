"""Related preference-space queries: the reverse top-k oracle.

Section 2 of the paper surveys queries that share TopRR's machinery (linear
scores, preference-space halfspaces, dominance) but answer different
questions.  Of the reverse top-k family only the monochromatic query
(Vlachou et al. [44], Tang et al. [41]) is kept here: it fixes the option and asks which
preferences it wins, the converse of TopRR.  Its rank-bracketing
test-and-split shares none of TopRR's kernels (no r-skyband, no Lemma 5/7
profiles, no impact region), so
:func:`~repro.related.reverse_topk.reverse_top_k_contains_region` is an
independent check that an option placed inside ``oR`` is top-k over all of
``wR``.
"""

from repro.related.reverse_topk import (
    ReverseTopKResult,
    monochromatic_reverse_top_k,
    reverse_top_k_contains_region,
)

__all__ = [
    "ReverseTopKResult",
    "monochromatic_reverse_top_k",
    "reverse_top_k_contains_region",
]
