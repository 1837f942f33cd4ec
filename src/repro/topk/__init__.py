"""Top-k query substrate.

Scoring, exact top-k retrieval, k-skybands and onion layers: the pieces the
TopRR pipeline and Figure 8's k-skyband and k-onion filters are built from.
"""

from repro.topk.query import TopKResult, top_k, top_k_score, rank_of
from repro.topk.scoring import linear_scores
from repro.topk.skyband import k_skyband
from repro.topk.onion import k_onion_layers

__all__ = [
    "TopKResult",
    "top_k",
    "top_k_score",
    "rank_of",
    "linear_scores",
    "k_skyband",
    "k_onion_layers",
]
