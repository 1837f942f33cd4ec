"""The :class:`Dataset` container used throughout the package.

A dataset is an ``(n, d)`` matrix of options; every attribute is assumed to
be "larger is better" and (by convention, as in the paper) normalised to the
unit interval.  The container adds named attributes, named options, basic
statistics, subsetting that preserves original option identifiers, and score
computation — everything downstream code needs without reaching into raw
numpy arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, InvalidParameterError


class Dataset:
    """An in-memory option dataset.

    Parameters
    ----------
    values:
        ``(n, d)`` array-like of attribute values.  An already-float64 numpy
        array is adopted as-is (no copy), so views — e.g. arrays backed by
        shared memory — keep sharing their underlying buffer.
    attribute_names:
        Optional names for the ``d`` attributes (defaults to ``attr_0 ...``).
    option_ids:
        Optional identifiers for the ``n`` options.  Subsets created with
        :meth:`subset` keep the identifiers of the parent dataset so that
        results can always be reported in terms of the original options.
    name:
        Human-readable dataset name used in experiment reports.
    version:
        Version tag of this dataset in a mutation chain (see
        :meth:`insert_options` / :meth:`delete_options`).  Freshly
        constructed datasets are version ``0``; every mutation produces a
        new dataset at ``version + 1`` together with a
        :class:`~repro.core.mutation.MutationDelta` describing the step.
        Engines are version-tagged against this value so stale derived
        structures (id lookup tables, cached r-skybands) are detected instead
        of silently serving old state.
    """

    def __init__(
        self,
        values,
        attribute_names: Optional[Sequence[str]] = None,
        option_ids: Optional[Sequence] = None,
        name: str = "dataset",
        version: int = 0,
    ):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatchError(
                f"dataset values must be a 2-D matrix, got shape {values.shape}"
            )
        if values.shape[0] == 0 or values.shape[1] == 0:
            raise InvalidParameterError("dataset must contain at least one option and one attribute")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("dataset contains non-finite attribute values")
        self._values = values
        self.name = name

        if attribute_names is None:
            attribute_names = [f"attr_{j}" for j in range(values.shape[1])]
        attribute_names = list(attribute_names)
        if len(attribute_names) != values.shape[1]:
            raise DimensionMismatchError("one attribute name per column is required")
        self.attribute_names: List[str] = attribute_names

        if option_ids is None:
            option_ids = list(range(values.shape[0]))
        option_ids = list(option_ids)
        if len(option_ids) != values.shape[0]:
            raise DimensionMismatchError("one option id per row is required")
        self.option_ids: List = option_ids
        self.version = int(version)
        self._id_to_index: Optional[dict] = None
        # Version tag of the lazily built id->index table.  The table is
        # only valid for the option_ids list it was built from; mutation
        # constructors that seed a child's table (the insert fast path)
        # stamp it with the child's version so a stale share is detectable.
        self._id_to_index_version = self.version

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The underlying ``(n, d)`` value matrix (not a copy; treat as read-only)."""
        return self._values

    @property
    def n_options(self) -> int:
        """Number of options ``n``."""
        return self._values.shape[0]

    @property
    def n_attributes(self) -> int:
        """Number of attributes ``d``."""
        return self._values.shape[1]

    def __len__(self) -> int:
        return self.n_options

    def option(self, index: int) -> np.ndarray:
        """The attribute vector of the option at positional ``index``."""
        return self._values[index]

    def id_of(self, index: int):
        """Original identifier of the option at positional ``index``."""
        return self.option_ids[index]

    def index_of(self, option_id) -> int:
        """Positional index of the option with original identifier ``option_id``.

        O(1) after the first call: the id→index mapping is built lazily and
        reused (option ids are fixed at construction time).  With duplicate
        ids the first occurrence wins, matching ``list.index``.  The table
        is version-tagged: a table inherited from a different dataset
        version (the :meth:`insert_options` fast path seeds the child's
        table from the parent's) is rebuilt instead of trusted, so mutation
        can never leave a stale id→index mapping behind.
        """
        if self._id_to_index is not None and self._id_to_index_version != self.version:
            self._id_to_index = None  # stale inherited table: rebuild below
        if self._id_to_index is None:
            try:
                mapping: dict = {}
                for index, existing in enumerate(self.option_ids):
                    mapping.setdefault(existing, index)
                self._id_to_index = mapping
                self._id_to_index_version = self.version
            except TypeError:  # unhashable ids: keep the linear-scan behaviour
                return self.option_ids.index(option_id)
        try:
            return self._id_to_index[option_id]
        except KeyError:
            raise ValueError(f"{option_id!r} is not in the dataset") from None
        except TypeError:  # unhashable lookup key: match list.index semantics
            return self.option_ids.index(option_id)

    # ------------------------------------------------------------------ #
    # derived datasets
    # ------------------------------------------------------------------ #
    def subset(self, indices: Iterable[int], name: Optional[str] = None) -> "Dataset":
        """A new dataset containing only the options at ``indices``.

        The subset keeps the parent's attribute names and the original option
        identifiers of the selected rows.
        """
        idx = np.asarray(list(indices), dtype=int)
        return Dataset(
            self._values[idx],
            attribute_names=self.attribute_names,
            option_ids=[self.option_ids[i] for i in idx],
            name=name or f"{self.name}[subset:{idx.size}]",
        )

    # ------------------------------------------------------------------ #
    # streaming mutations (versioned)
    # ------------------------------------------------------------------ #
    def _fresh_option_ids(self, count: int) -> List:
        """``count`` identifiers guaranteed not to collide with existing ids.

        Integer id spaces (the default) continue from ``max + 1``; any other
        id scheme must pass explicit ids to :meth:`insert_options`.
        """
        if not all(isinstance(option_id, int) for option_id in self.option_ids):
            raise InvalidParameterError(
                "cannot auto-generate option ids for a dataset with non-integer "
                "ids; pass option_ids explicitly to insert_options"
            )
        start = max(self.option_ids) + 1 if self.option_ids else 0
        return list(range(start, start + count))

    def insert_options(
        self,
        values,
        option_ids: Optional[Sequence] = None,
        name: Optional[str] = None,
    ):
        """Append options, returning ``(mutated dataset, MutationDelta)``.

        The mutated dataset is a new object at ``version + 1``; this dataset
        is left untouched (mutation is functional, so engines bound to the
        parent stay consistent until their ``apply_delta`` hook runs).  The
        new options occupy the *last* positions, which keeps every existing
        option's positional index — and therefore every cached positional
        artefact — stable.  Existing options keep their ids; fresh ids are
        generated for the inserted options unless given explicitly.
        """
        from repro.core.mutation import MutationDelta

        inserted = np.atleast_2d(np.asarray(values, dtype=float))
        if inserted.ndim != 2 or inserted.shape[1] != self.n_attributes:
            raise DimensionMismatchError(
                f"inserted options must be (m, {self.n_attributes}), got {inserted.shape}"
            )
        if inserted.shape[0] == 0:
            raise InvalidParameterError("insert_options requires at least one option")
        if option_ids is None:
            option_ids = self._fresh_option_ids(inserted.shape[0])
        option_ids = list(option_ids)
        if len(option_ids) != inserted.shape[0]:
            raise DimensionMismatchError("one option id per inserted row is required")
        existing = set(self.option_ids)
        clashing = [option_id for option_id in option_ids if option_id in existing]
        if clashing:
            raise InvalidParameterError(
                f"inserted option ids already exist in the dataset: {clashing[:5]}"
            )
        mutated = Dataset(
            np.vstack([self._values, inserted]),
            attribute_names=self.attribute_names,
            option_ids=self.option_ids + option_ids,
            name=name or f"{self.name}[+{inserted.shape[0]}]",
            version=self.version + 1,
        )
        if self._id_to_index is not None and self._id_to_index_version == self.version:
            # Insert fast path: extend a copy of the parent's table instead
            # of rescanning all n ids, and stamp it with the child's version
            # (an unstamped share is exactly the staleness index_of guards).
            mapping = dict(self._id_to_index)
            for offset, option_id in enumerate(option_ids):
                mapping.setdefault(option_id, self.n_options + offset)
            mutated._id_to_index = mapping
            mutated._id_to_index_version = mutated.version
        delta = MutationDelta(
            parent_version=self.version,
            version=mutated.version,
            n_before=self.n_options,
            n_after=mutated.n_options,
            inserted_values=inserted,
            inserted_ids=tuple(option_ids),
            deleted_ids=(),
            deleted_positions=np.empty(0, dtype=int),
        )
        return mutated, delta

    def delete_options(
        self,
        option_ids: Optional[Sequence] = None,
        positions: Optional[Iterable[int]] = None,
        name: Optional[str] = None,
    ):
        """Remove options, returning ``(mutated dataset, MutationDelta)``.

        Exactly one of ``option_ids`` / ``positions`` selects the victims.
        Surviving options keep their ids and their relative order; the
        mutated dataset is a new object at ``version + 1`` and this dataset
        is left untouched.  Deleting every option is rejected (datasets are
        non-empty by construction).
        """
        from repro.core.mutation import MutationDelta

        if (option_ids is None) == (positions is None):
            raise InvalidParameterError(
                "pass exactly one of option_ids / positions to delete_options"
            )
        if option_ids is not None:
            drop_positions = sorted({self.index_of(option_id) for option_id in option_ids})
        else:
            drop_positions = sorted({int(i) for i in positions})
            for position in drop_positions:
                if not (0 <= position < self.n_options):
                    raise InvalidParameterError(
                        f"delete position {position} out of range for {self.n_options} options"
                    )
        if not drop_positions:
            raise InvalidParameterError("delete_options requires at least one option")
        if len(drop_positions) == self.n_options:
            raise InvalidParameterError("cannot delete every option of a dataset")
        drop = np.asarray(drop_positions, dtype=int)
        keep = np.setdiff1d(np.arange(self.n_options), drop, assume_unique=True)
        mutated = Dataset(
            self._values[keep],
            attribute_names=self.attribute_names,
            option_ids=[self.option_ids[i] for i in keep],
            name=name or f"{self.name}[-{drop.size}]",
            version=self.version + 1,
        )
        delta = MutationDelta(
            parent_version=self.version,
            version=mutated.version,
            n_before=self.n_options,
            n_after=mutated.n_options,
            inserted_values=np.empty((0, self.n_attributes)),
            inserted_ids=(),
            deleted_ids=tuple(self.option_ids[i] for i in drop),
            deleted_positions=drop,
        )
        return mutated, delta

    def normalized(self, name: Optional[str] = None) -> "Dataset":
        """Min-max normalise every attribute to [0, 1] (constant columns map to 0.5)."""
        lo = self._values.min(axis=0)
        hi = self._values.max(axis=0)
        span = hi - lo
        safe_span = np.where(span > 0, span, 1.0)
        scaled = (self._values - lo) / safe_span
        scaled[:, span == 0] = 0.5
        return Dataset(
            scaled,
            attribute_names=self.attribute_names,
            option_ids=self.option_ids,
            name=name or f"{self.name}[normalized]",
        )

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def scores(self, weight: Sequence[float]) -> np.ndarray:
        """Scores ``S_w(p_i) = w . p_i`` of all options for a full weight vector ``w``."""
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (self.n_attributes,):
            raise DimensionMismatchError(
                f"weight vector must have {self.n_attributes} components, got {weight.shape}"
            )
        return self._values @ weight

    # ------------------------------------------------------------------ #
    # reporting helpers
    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Summary statistics used by the experiment reports."""
        return {
            "name": self.name,
            "n_options": self.n_options,
            "n_attributes": self.n_attributes,
            "attribute_names": list(self.attribute_names),
            "min": self._values.min(axis=0).tolist(),
            "max": self._values.max(axis=0).tolist(),
            "mean": self._values.mean(axis=0).tolist(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Dataset(name={self.name!r}, n={self.n_options}, d={self.n_attributes})"
