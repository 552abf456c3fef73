"""Dataset container used throughout the library.

A :class:`Dataset` is an immutable wrapper around an ``(n, d)`` float array of
records.  Records are treated as vectors; larger attribute values are better
(the paper's convention), and linear top-k scores are dot products with a
permissible query vector.

The container performs the validation that every algorithm would otherwise
repeat (finite values, consistent dimensionality, at least one record) and
provides convenience accessors (record lookup, attribute bounds, normalised
copies) plus the permissibility checks for query vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import (
    DimensionalityError,
    InvalidDatasetError,
    InvalidQueryVectorError,
    InvalidRecordError,
)

__all__ = ["Dataset", "validate_query_vector", "random_permissible_vector"]


class _RecordMatrix(np.ndarray):
    """Records array with a *row-consistent* matrix–vector product.

    BLAS evaluates an ``(n, d) @ (d,)`` product with blocked, FMA-vectorised
    kernels whose per-row rounding depends on the whole matrix, so
    ``(records @ q)[i]`` can differ from ``records[i] @ q`` by one ulp.  That
    discrepancy is fatal for rank computations: a focal record drawn from the
    dataset may then appear to strictly outscore itself, shifting its order by
    one.  This subclass redefines the matrix–vector product as one dot product
    per row — bit-identical to scoring the row on its own — so exact score
    ties (in particular self-ties) stay exact under the strict comparisons
    used throughout the library.  All other operations behave like a plain
    ``ndarray``.

    The per-row loop trades raw matrix–vector throughput for that exactness,
    so it is reserved for the *scoring* surface (``Dataset.scores``,
    ``order_of``, top-k), where calls are per-query and ``n`` is the only
    large factor.  The geometry hot paths (quad-tree, screens, LPs) operate
    on plain coefficient arrays and never pass through this class.
    """

    def __matmul__(self, other):
        other_arr = np.asarray(other)
        if self.ndim == 2 and other_arr.ndim == 1:
            base = np.asarray(self)
            return np.array([row @ other_arr for row in base])
        return super().__matmul__(other)


def _as_record_array(records: Iterable[Sequence[float]] | np.ndarray) -> np.ndarray:
    array = np.asarray(records, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise InvalidDatasetError(
            f"records must form a 2-dimensional array, got ndim={array.ndim}"
        )
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise InvalidDatasetError("dataset must contain at least one record and one attribute")
    if not np.isfinite(array).all():
        raise InvalidDatasetError("dataset contains NaN or infinite attribute values")
    return array


@dataclass(frozen=True)
class Dataset:
    """An immutable set of ``n`` records with ``d`` numeric attributes.

    Parameters
    ----------
    records:
        Anything convertible to an ``(n, d)`` float array.
    attribute_names:
        Optional human-readable names, used by examples and reports.
    name:
        Optional dataset label (e.g. ``"HOTEL"`` or ``"IND"``).
    """

    records: np.ndarray
    attribute_names: Optional[tuple] = None
    name: str = "dataset"

    def __init__(
        self,
        records: Iterable[Sequence[float]] | np.ndarray,
        attribute_names: Optional[Sequence[str]] = None,
        name: str = "dataset",
    ) -> None:
        array = _as_record_array(records).view(_RecordMatrix)
        array.setflags(write=False)
        object.__setattr__(self, "records", array)
        if attribute_names is not None:
            names = tuple(str(a) for a in attribute_names)
            if len(names) != array.shape[1]:
                raise InvalidDatasetError(
                    f"{len(names)} attribute names given for {array.shape[1]} attributes"
                )
        else:
            names = None
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "name", str(name))

    # ------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        """Number of records."""
        return int(self.records.shape[0])

    @property
    def d(self) -> int:
        """Number of attributes (data dimensionality)."""
        return int(self.records.shape[1])

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> np.ndarray:
        """Return the record at ``index`` as a read-only 1-D array."""
        return self.records[index]

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------- utilities
    def record(self, index: int) -> np.ndarray:
        """Return record ``index``; raises :class:`InvalidRecordError` when out of range."""
        if not 0 <= index < self.n:
            raise InvalidRecordError(f"record index {index} out of range [0, {self.n})")
        return self.records[index]

    def validate_focal(self, focal: Sequence[float] | np.ndarray | int) -> np.ndarray:
        """Resolve ``focal`` into a 1-D record of this dataset's dimensionality.

        ``focal`` may be a record index (``int``) or an explicit coordinate
        vector; the paper allows the focal record to be outside the dataset,
        so membership is not required.  A ``bool`` is neither and is
        rejected.
        """
        if isinstance(focal, bool):
            raise InvalidRecordError(
                f"focal must be a record index or a coordinate vector, got {focal!r}"
            )
        if isinstance(focal, (int, np.integer)):
            return self.record(int(focal))
        vector = np.asarray(focal, dtype=float).ravel()
        if vector.shape[0] != self.d:
            raise InvalidRecordError(
                f"focal record has {vector.shape[0]} attributes, dataset has {self.d}"
            )
        if not np.isfinite(vector).all():
            raise InvalidRecordError("focal record contains NaN or infinite values")
        return vector

    def attribute_bounds(self) -> tuple:
        """Return ``(mins, maxs)`` arrays over all records."""
        return self.records.min(axis=0), self.records.max(axis=0)

    def normalised(self) -> "Dataset":
        """Return a copy with every attribute rescaled to ``[0, 1]``.

        Constant attributes map to 0.5 to avoid division by zero.
        """
        mins, maxs = self.attribute_bounds()
        span = maxs - mins
        safe_span = np.where(span > 0, span, 1.0)
        scaled = (self.records - mins) / safe_span
        scaled = np.where(span > 0, scaled, 0.5)
        return Dataset(scaled, attribute_names=self.attribute_names, name=self.name)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Return a new dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise InvalidDatasetError("subset must select at least one record")
        return Dataset(self.records[idx], attribute_names=self.attribute_names, name=self.name)

    def scores(self, query: Sequence[float] | np.ndarray) -> np.ndarray:
        """Return the score ``S(r) = r · q`` of every record for ``query``."""
        q = validate_query_vector(query, self.d)
        return self.records @ q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(name={self.name!r}, n={self.n}, d={self.d})"


def validate_query_vector(
    query: Sequence[float] | np.ndarray,
    d: int,
    *,
    require_normalised: bool = False,
    atol: float = 1e-9,
) -> np.ndarray:
    """Validate a preference vector and return it as a float array.

    A *permissible* vector (paper, Section 3) has strictly positive weights
    summing to one.  By default only positivity and dimensionality are
    enforced, because the ranking depends only on the direction of ``q``;
    pass ``require_normalised=True`` to also require ``Σ q_i = 1``.
    """
    q = np.asarray(query, dtype=float).ravel()
    if q.shape[0] != d:
        raise DimensionalityError(f"query vector has {q.shape[0]} weights, expected {d}")
    if not np.isfinite(q).all():
        raise InvalidQueryVectorError("query vector contains NaN or infinite weights")
    if (q <= 0).any():
        raise InvalidQueryVectorError("query vector weights must be strictly positive")
    if require_normalised and abs(float(q.sum()) - 1.0) > atol:
        raise InvalidQueryVectorError(
            f"query vector weights must sum to 1, got {float(q.sum()):.12f}"
        )
    return q


def random_permissible_vector(d: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Draw a uniformly random permissible query vector of dimensionality ``d``.

    Vectors are sampled uniformly from the open probability simplex via the
    standard exponential-spacings construction.
    """
    if d < 1:
        raise DimensionalityError("query vectors need at least one dimension")
    rng = rng or np.random.default_rng()
    while True:
        raw = rng.exponential(scale=1.0, size=d)
        total = raw.sum()
        if total > 0 and (raw > 0).all():
            return raw / total
