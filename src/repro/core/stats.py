"""Counters collected while solving a TopRR instance.

The paper's ablation experiments (Figures 12-14) report internal quantities
rather than just wall-clock time: the number of options surviving the
filters, the number of vertices accumulated in ``V_all``, and the number of
splits performed.  :class:`SolverStats` gathers all of them in one place so
that every solver (PAC, TAS, TAS*) exposes the same bookkeeping.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field, fields


@dataclass
class SolverStats:
    """Bookkeeping for one TopRR run.

    Attributes
    ----------
    n_input_options:
        Options in the original dataset ``D``.
    n_filtered_options:
        Options in ``D'`` after the r-skyband pre-filter.
    n_after_lemma5:
        Options still under consideration after the initial consistent
        top-λ pruning — recorded by the solver when Lemma 5 first fires
        (equals ``n_filtered_options`` for solvers without Lemma 5).
    k_effective:
        The value of ``k`` after the initial Lemma 5 reduction.
    n_regions_tested:
        Regions popped from the work list (root + all children).
    n_kipr_regions:
        Regions accepted because they passed the plain kIPR test (Lemma 3).
    n_lemma7_regions:
        Regions accepted by the optimized test (Lemma 7) despite not being kIPR.
    n_splits:
        Split operations performed.
    n_fallback_splits:
        Splits that had to fall back to an axis bisection because no
        violating-pair hyperplane produced two full-dimensional children.
    n_lemma5_reductions:
        Number of recursive calls in which Lemma 5 removed at least one option.
    n_vertices:
        Final size of ``V_all``.
    n_score_rows_computed:
        Vertex score rows freshly computed by the kernel (incremental path
        only; includes rows pre-scored for pending frontier regions).
    n_score_rows_reused:
        Vertex score rows served from the split-tree memo when a popped
        region requested them (rows inherited from the parent, shared with a
        sibling, or pre-scored in an earlier frontier batch).
    n_score_batches:
        Kernel launches performed by the incremental path; with frontier
        batching this scales with the depth of the split tree rather than
        with the number of regions.
    n_order_rows_computed:
        Per-vertex top-k orderings computed from (cached) score rows.
    n_order_rows_reused:
        Per-vertex top-k orderings served from the memo (same vertex under
        the same working set, typically inherited from the parent region).
    n_lp_calls:
        ``scipy.optimize.linprog`` round trips performed by the geometry
        layer during the solve (Chebyshev centres / feasibility tests).
        Zero when a closed-form backend (2-D polygon for ``d = 3``, 3-D
        polyhedron for ``d = 4``) answers every region.
    n_qhull_calls:
        qhull halfspace intersections performed during the solve (vertex
        enumeration on the generic path).  Zero under the closed-form
        backends.
    n_clip_calls:
        Closed-form clipping passes performed during the solve (one per
        halfspace clip or hyperplane cut on the polygon / polyhedron
        backends).
    n_backend_fallbacks:
        Regions whose closed-form geometry backend (polygon / polyhedron)
        detected an inconsistent body — non-finite vertices, negative
        area/volume, a broken face ring — and demoted itself to the generic
        LP/qhull backend for that region.  Zero on healthy inputs.
    seconds:
        Wall-clock time of the solve (filtering included unless noted).
    extra:
        Free-form dictionary for experiment-specific counters.  Documents
        written by older versions may carry counters that are no longer
        fields (the retired option-shard and worker-pool counters, for
        example); :meth:`from_dict` loads those here.
    """

    n_input_options: int = 0
    n_filtered_options: int = 0
    n_after_lemma5: int = 0
    k_effective: int = 0
    n_regions_tested: int = 0
    n_kipr_regions: int = 0
    n_lemma7_regions: int = 0
    n_splits: int = 0
    n_fallback_splits: int = 0
    n_lemma5_reductions: int = 0
    n_vertices: int = 0
    n_score_rows_computed: int = 0
    n_score_rows_reused: int = 0
    n_score_batches: int = 0
    n_order_rows_computed: int = 0
    n_order_rows_reused: int = 0
    n_lp_calls: int = 0
    n_qhull_calls: int = 0
    n_clip_calls: int = 0
    n_backend_fallbacks: int = 0
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def vertex_cache_hit_rate(self) -> float:
        """Fraction of vertex-score row requests served from the memo.

        ``0.0`` when the incremental path was disabled (no rows requested).
        """
        total = self.n_score_rows_computed + self.n_score_rows_reused
        return self.n_score_rows_reused / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view used by the experiment reports: every field, the
        derived ``vertex_cache_hit_rate``, and the :attr:`extra` keys merged in."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        data["vertex_cache_hit_rate"] = self.vertex_cache_hit_rate
        data.update(self.extra)
        return data

    def add(self, other: "SolverStats") -> None:
        """Sum ``other``'s counters into this one, field by field.

        :attr:`extra` is left alone.  Used to total the per-piece stats of a
        region-parallel solve.
        """
        for f in fields(self):
            if f.name != "extra":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def freeze(self) -> "SolverStats":
        """Make these stats read-only, :attr:`extra` included (returns ``self``).

        Called where a result enters a result cache, which hands the same
        stats to every later hit.  Costs nothing per hit: the instance turns
        into a :class:`FrozenSolverStats`, whose fields cannot be set.
        """
        if not isinstance(self, FrozenSolverStats):
            self.extra = ReadOnlyDict(self.extra)
            self.__class__ = FrozenSolverStats
        return self

    @classmethod
    def from_dict(cls, payload: dict) -> "SolverStats":
        """Rebuild a :class:`SolverStats` from an :meth:`as_dict` payload.

        Known counters are restored as real dataclass fields (each at its
        declared type); every other key lands in :attr:`extra`, exactly
        where :meth:`as_dict` merged it from.  Derived values emitted by
        ``as_dict`` (``vertex_cache_hit_rate``) are dropped rather than
        stored, so a load→save cycle is stable.  Used by the result/cache
        serialisation layer, where dumping everything into ``extra`` would
        silently zero the real counters of a reloaded result.
        """
        stats = cls()
        names = {f.name: f.type for f in fields(cls) if f.name != "extra"}
        for key, value in dict(payload).items():
            if key in names:
                setattr(stats, key, type(getattr(stats, key))(value))
            elif key != "vertex_cache_hit_rate":
                stats.extra[key] = value
        return stats


class FrozenSolverStats(SolverStats):
    """:class:`SolverStats` shared by the hits of a result cache: read-only."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot set {name!r}: the stats of a cached result are read-only")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete {name!r}: the stats of a cached result are read-only")


class ReadOnlyDict(dict):
    """The :attr:`SolverStats.extra` of frozen stats: a dict whose mutators raise."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("the stats of a cached result are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return ReadOnlyDict, (dict(self),)
