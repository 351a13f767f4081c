"""Pluggable column storage backends.

The substrate historically stored every column as a plain Python object list.
That is the right representation for genuinely mixed data, but it makes every
hot path — fidelity metrics, cross-table connecting, sampling — pay per-value
Python overhead.  This module introduces a small storage-backend layer:

* :class:`ObjectBackend` — the original object-list storage, kept as the
  compatibility default for ``mixed``/``empty`` columns and available
  everywhere via :func:`set_default_backend`.
* :class:`NumericBackend` — ``int``/``float``/``bool`` columns as typed
  ndarrays with a validity mask for missing values.
* :class:`CategoricalBackend` — ``str`` (and other hashable, low-cardinality)
  columns as dictionary-encoded arrays: an ``int64`` code per row plus the
  list of categories in first-seen order.

Which storage a new :class:`~repro.frame.column.Column` gets is controlled by
the process-wide default backend (``"auto"``, ``"numpy"`` or ``"object"``).
Under ``"auto"``/``"numpy"`` typed columns use the vectorized backends and
only ``mixed``/``empty`` columns fall back to object lists; ``"object"``
forces the legacy storage everywhere (used by the perf harness as the
before/after contrast).

Missing values have a single definition shared by every backend: ``None`` and
float NaN both count as missing (:func:`is_missing`, :data:`MISSING_VALUES`)
and are normalised to ``None`` when values are surfaced back to Python.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Logical dtypes understood by the substrate.
DTYPES = ("int", "float", "str", "bool", "mixed", "empty")

#: Values treated as missing when inferring dtypes and computing statistics.
#: ``None`` and float NaN are the two spellings of "missing"; backends store
#: a validity mask derived from :func:`is_missing` and surface every missing
#: slot as ``None``.
MISSING_VALUES = (None, math.nan)

#: Storage policies accepted by :func:`set_default_backend`.
BACKEND_KINDS = ("auto", "numpy", "object")

_default_backend = "auto"


def is_missing(value) -> bool:
    """Return True when *value* counts as missing (``None`` or NaN)."""
    if value is None:
        return True
    if isinstance(value, (float, np.floating)) and math.isnan(value):
        return True
    return False


def infer_dtype(values) -> str:
    """Infer the logical dtype of a sequence of values.

    The inference ignores missing values.  A column with both ints and floats
    is ``"float"``; any other mixture is ``"mixed"``.

    >>> infer_dtype([1, 2, 3])
    'int'
    >>> infer_dtype([1, 2.5])
    'float'
    >>> infer_dtype(["a", "b"])
    'str'
    >>> infer_dtype([1, "a"])
    'mixed'
    >>> infer_dtype([None, None])
    'empty'
    """
    seen = set()
    for value in values:
        if is_missing(value):
            continue
        if isinstance(value, (bool, np.bool_)):
            seen.add("bool")
        elif isinstance(value, (int, np.integer)):
            seen.add("int")
        elif isinstance(value, (float, np.floating)):
            seen.add("float")
        elif isinstance(value, str):
            seen.add("str")
        else:
            seen.add("mixed")
    if not seen:
        return "empty"
    if seen == {"int"}:
        return "int"
    if seen <= {"int", "float"}:
        return "float"
    if seen == {"str"}:
        return "str"
    if seen == {"bool"}:
        return "bool"
    return "mixed"


def coerce_value(value):
    """Normalise NumPy scalars to plain Python values.

    Keeping plain Python objects at the API boundary makes equality, hashing
    and CSV round-trips predictable regardless of which library produced the
    value.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

def get_default_backend() -> str:
    """The process-wide storage policy (``"auto"``, ``"numpy"`` or ``"object"``)."""
    return _default_backend


def set_default_backend(kind: str) -> None:
    """Set the process-wide storage policy for newly built columns."""
    global _default_backend
    if kind not in BACKEND_KINDS:
        raise ValueError("backend must be one of {}, got {!r}".format(BACKEND_KINDS, kind))
    _default_backend = kind


@contextmanager
def using_backend(kind: str):
    """Temporarily switch the default storage policy (used by the perf harness)."""
    previous = get_default_backend()
    set_default_backend(kind)
    try:
        yield
    finally:
        set_default_backend(previous)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class ColumnBackend:
    """Storage protocol shared by all column backends.

    Backends are value containers only: they know nothing about column names
    or relational logic.  All of them surface missing entries as ``None`` and
    agree on :func:`is_missing` as the single missing-value definition.
    """

    kind = "abstract"
    #: True when the backend exposes zero-copy arrays the vectorized kernels
    #: can run on; consumers check this before taking a numpy fast path.
    vectorized = False

    def __len__(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def get(self, index):  # pragma: no cover - abstract
        raise NotImplementedError

    def tolist(self) -> list:  # pragma: no cover - abstract
        raise NotImplementedError

    def take(self, indices) -> "ColumnBackend":  # pragma: no cover - abstract
        raise NotImplementedError

    def take_or_missing(self, indices) -> "ColumnBackend":  # pragma: no cover - abstract
        raise NotImplementedError

    def slice(self, sl: slice) -> "ColumnBackend":  # pragma: no cover - abstract
        raise NotImplementedError

    def copy(self) -> "ColumnBackend":  # pragma: no cover - abstract
        raise NotImplementedError

    def validity(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def equals(self, other: "ColumnBackend") -> bool:
        """Value equality across backend kinds (missing == missing)."""
        if len(self) != len(other):
            return False
        return self.tolist() == other.tolist()

    def missing_count(self) -> int:
        return int(len(self) - np.count_nonzero(self.validity()))

    # -- statistics ---------------------------------------------------------------

    def unique(self) -> list:
        """Distinct non-missing values in first-seen order."""
        return list(self.factorize()[1])

    def value_counts(self) -> dict:
        """Mapping from value to occurrence count, keys in first-seen order."""
        codes, categories = self.factorize()
        counts = np.bincount(codes[codes >= 0], minlength=len(categories))
        return {category: int(count) for category, count in zip(categories, counts)}

    def factorize(self):  # pragma: no cover - abstract
        """Return ``(codes, categories)``.

        ``codes`` is an ``int64`` array with one code per row (``-1`` for
        missing); ``categories`` lists the distinct non-missing values in
        first-seen order.
        """
        raise NotImplementedError

    def as_float_array(self) -> np.ndarray:
        """Values as a float64 array with NaN for missing entries."""
        return np.asarray(
            [float("nan") if v is None else float(v) for v in self.tolist()], dtype=float
        )


class ObjectBackend(ColumnBackend):
    """The legacy storage: a plain Python list of (coerced) values."""

    kind = "object"
    vectorized = False

    __slots__ = ("values", "_factorized")

    def __init__(self, values: list):
        self.values = values
        self._factorized = None

    def __len__(self):
        return len(self.values)

    def get(self, index):
        return self.values[index]

    def tolist(self) -> list:
        return list(self.values)

    def iter(self):
        return iter(self.values)

    def take(self, indices) -> "ObjectBackend":
        return ObjectBackend([self.values[i] for i in indices])

    def take_or_missing(self, indices) -> "ObjectBackend":
        return ObjectBackend([self.values[i] if i >= 0 else None for i in indices])

    def slice(self, sl: slice) -> "ObjectBackend":
        return ObjectBackend(self.values[sl])

    def copy(self) -> "ObjectBackend":
        return ObjectBackend(list(self.values))

    def equals(self, other: ColumnBackend) -> bool:
        if isinstance(other, ObjectBackend):
            return self.values == other.values
        return super().equals(other)

    def validity(self) -> np.ndarray:
        return np.asarray([v is not None for v in self.values], dtype=bool)

    def missing_count(self) -> int:
        return sum(1 for v in self.values if v is None)

    def unique(self) -> list:
        seen = set()
        out = []
        for value in self.values:
            if value is None:
                continue
            if value not in seen:
                seen.add(value)
                out.append(value)
        return out

    def value_counts(self) -> dict:
        return dict(Counter(v for v in self.values if v is not None))

    def factorize(self):
        if self._factorized is not None:
            return self._factorized
        codes = np.empty(len(self.values), dtype=np.int64)
        categories: list = []
        index: dict = {}
        for position, value in enumerate(self.values):
            if value is None:
                codes[position] = -1
                continue
            code = index.get(value)
            if code is None:
                code = len(categories)
                index[value] = code
                categories.append(value)
            codes[position] = code
        self._factorized = (codes, categories)
        return self._factorized


class NumericBackend(ColumnBackend):
    """Typed ndarray storage for int/float/bool columns.

    ``data`` holds the raw values; ``mask`` is True where a value is present.
    Float columns encode missing entries as NaN directly (``mask`` is derived
    and kept in sync); int/bool columns keep a zero placeholder at missing
    slots and rely on the mask.
    """

    kind = "numpy"
    vectorized = True

    __slots__ = ("data", "mask", "_factorized")

    def __init__(self, data: np.ndarray, mask: np.ndarray | None = None):
        self.data = data
        if mask is None and data.dtype.kind == "f":
            isnan = np.isnan(data)
            mask = ~isnan if isnan.any() else None
        self.mask = mask  # None means every value is present
        self._factorized = None

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def from_values(cls, values: list, logical_dtype: str) -> "NumericBackend | None":
        """Build from an already-coerced value list; None when unrepresentable."""
        if logical_dtype == "float":
            data = np.asarray([math.nan if v is None else v for v in values], dtype=np.float64)
            return cls(data)
        if logical_dtype == "int":
            np_dtype = np.int64
        elif logical_dtype == "bool":
            np_dtype = np.bool_
        else:
            return None
        has_missing = any(v is None for v in values)
        try:
            if has_missing:
                mask = np.asarray([v is not None for v in values], dtype=bool)
                data = np.asarray([0 if v is None else v for v in values], dtype=np_dtype)
            else:
                mask = None
                data = np.asarray(values, dtype=np_dtype)
        except (OverflowError, TypeError, ValueError):
            return None
        return cls(data, mask)

    @property
    def logical_dtype(self) -> str:
        kind = self.data.dtype.kind
        if kind == "b":
            return "bool"
        if kind in "iu":
            return "int"
        return "float"

    def _python(self, value):
        return coerce_value(value.item() if isinstance(value, np.generic) else value)

    # -- container protocol -------------------------------------------------------

    def __len__(self):
        return self.data.shape[0]

    def get(self, index):
        if self.mask is not None and not self.mask[index]:
            return None
        value = self.data[index]
        if self.data.dtype.kind == "f" and np.isnan(value):
            return None
        return self._python(value)

    def tolist(self) -> list:
        values = self.data.tolist()
        if self.mask is not None:
            return [v if ok else None for v, ok in zip(values, self.mask.tolist())]
        if self.data.dtype.kind == "f":
            return [None if v != v else v for v in values]
        return values

    def iter(self):
        return iter(self.tolist())

    def take(self, indices) -> "NumericBackend":
        indices = np.asarray(indices, dtype=np.intp)
        mask = self.mask[indices] if self.mask is not None else None
        return NumericBackend(self.data[indices], mask)

    def take_or_missing(self, indices) -> "NumericBackend":
        indices = np.asarray(indices, dtype=np.intp)
        present = indices >= 0
        if self.data.shape[0] == 0:
            # gathering from empty storage: every index must be the missing
            # sentinel (a non-negative index would be out of bounds anyway)
            if present.any():
                raise IndexError("index out of bounds for empty column storage")
            if self.data.dtype.kind == "f":
                return NumericBackend(np.full(indices.shape[0], math.nan))
            return NumericBackend(
                np.zeros(indices.shape[0], dtype=self.data.dtype),
                np.zeros(indices.shape[0], dtype=bool),
            )
        safe = np.where(present, indices, 0)
        data = self.data[safe]
        mask = self.mask[safe] & present if self.mask is not None else present
        if data.dtype.kind == "f":
            data = data.copy()
            data[~mask] = math.nan
            return NumericBackend(data)
        return NumericBackend(data, mask)

    def slice(self, sl: slice) -> "NumericBackend":
        mask = self.mask[sl] if self.mask is not None else None
        return NumericBackend(self.data[sl], mask)

    def copy(self) -> "NumericBackend":
        return NumericBackend(self.data.copy(), None if self.mask is None else self.mask.copy())

    def equals(self, other: ColumnBackend) -> bool:
        if isinstance(other, NumericBackend) and len(self) == len(other):
            mine, theirs = self.validity(), other.validity()
            if not np.array_equal(mine, theirs):
                return False
            return bool(np.array_equal(self.data[mine], other.data[theirs]))
        return super().equals(other)

    def validity(self) -> np.ndarray:
        if self.mask is not None:
            return self.mask
        if self.data.dtype.kind == "f":
            return ~np.isnan(self.data)
        return np.ones(len(self), dtype=bool)

    def missing_count(self) -> int:
        return int(len(self) - np.count_nonzero(self.validity()))

    # -- statistics ---------------------------------------------------------------

    def factorize(self):
        if self._factorized is not None:
            return self._factorized
        valid = self.validity()
        codes = np.full(len(self), -1, dtype=np.int64)
        present = self.data[valid]
        if present.size == 0:
            self._factorized = (codes, [])
            return self._factorized
        uniq, first_index, inverse = np.unique(present, return_index=True, return_inverse=True)
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(uniq.shape[0], dtype=np.int64)
        rank[order] = np.arange(uniq.shape[0])
        codes[valid] = rank[inverse]
        # ndarray.tolist() already yields plain Python scalars
        self._factorized = (codes, uniq[order].tolist())
        return self._factorized

    def as_float_array(self) -> np.ndarray:
        if self.data.dtype.kind == "f":
            return self.data
        data = self.data.astype(np.float64)
        if self.mask is not None:
            data[~self.mask] = math.nan
        return data


class CategoricalBackend(ColumnBackend):
    """Dictionary-encoded storage: int64 codes plus first-seen categories.

    Built for ``str`` columns but works for any hashable category values.
    Missing entries are encoded as code ``-1``.
    """

    kind = "numpy"
    vectorized = True

    __slots__ = ("codes", "categories", "_index", "_factorized")

    def __init__(self, codes: np.ndarray, categories: list, index: dict | None = None):
        self.codes = codes
        self.categories = categories
        self._index = index  # lazily built {category: code}
        self._factorized = None

    @classmethod
    def from_values(cls, values: list) -> "CategoricalBackend | None":
        codes = np.empty(len(values), dtype=np.int64)
        categories: list = []
        index: dict = {}
        try:
            for position, value in enumerate(values):
                if value is None:
                    codes[position] = -1
                    continue
                code = index.get(value)
                if code is None:
                    code = len(categories)
                    index[value] = code
                    categories.append(value)
                codes[position] = code
        except TypeError:  # unhashable values cannot be dictionary-encoded
            return None
        return cls(codes, categories, index)

    def category_index(self) -> dict:
        if self._index is None:
            self._index = {category: code for code, category in enumerate(self.categories)}
        return self._index

    # -- container protocol -------------------------------------------------------

    def __len__(self):
        return self.codes.shape[0]

    def get(self, index):
        code = self.codes[index]
        return None if code < 0 else self.categories[code]

    def tolist(self) -> list:
        categories = self.categories
        return [None if code < 0 else categories[code] for code in self.codes.tolist()]

    def iter(self):
        return iter(self.tolist())

    def take(self, indices) -> "CategoricalBackend":
        indices = np.asarray(indices, dtype=np.intp)
        return CategoricalBackend(self.codes[indices], self.categories, self._index)

    def take_or_missing(self, indices) -> "CategoricalBackend":
        indices = np.asarray(indices, dtype=np.intp)
        if self.codes.shape[0] == 0:
            if (indices >= 0).any():
                raise IndexError("index out of bounds for empty column storage")
            return CategoricalBackend(
                np.full(indices.shape[0], -1, dtype=np.int64), self.categories, self._index
            )
        safe = np.where(indices >= 0, indices, 0)
        codes = self.codes[safe].copy()
        codes[indices < 0] = -1
        return CategoricalBackend(codes, self.categories, self._index)

    def slice(self, sl: slice) -> "CategoricalBackend":
        return CategoricalBackend(self.codes[sl], self.categories, self._index)

    def copy(self) -> "CategoricalBackend":
        return CategoricalBackend(self.codes.copy(), list(self.categories))

    def equals(self, other: ColumnBackend) -> bool:
        if isinstance(other, CategoricalBackend) and len(self) == len(other):
            if self.categories is other.categories or self.categories == other.categories:
                return bool(np.array_equal(self.codes, other.codes))
        return super().equals(other)

    def validity(self) -> np.ndarray:
        return self.codes >= 0

    def missing_count(self) -> int:
        return int(np.count_nonzero(self.codes < 0))

    # -- statistics ---------------------------------------------------------------

    def factorize(self):
        if self._factorized is not None:
            return self._factorized
        used = np.zeros(len(self.categories), dtype=bool)
        valid_codes = self.codes[self.codes >= 0]
        used[valid_codes] = True
        if used.all():
            self._factorized = (self.codes, list(self.categories))
        else:
            # compact away categories that no longer occur (e.g. after a take)
            remap = np.cumsum(used, dtype=np.int64) - 1
            codes = np.where(self.codes >= 0, remap[np.maximum(self.codes, 0)], -1)
            categories = [c for c, keep in zip(self.categories, used) if keep]
            self._factorized = (codes, categories)
        return self._factorized

    def unique(self) -> list:
        return list(self.factorize()[1])

    def as_float_array(self) -> np.ndarray:
        return super().as_float_array()


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

def make_backend(values: list, dtype: str, policy: str | None = None) -> ColumnBackend:
    """Build the storage backend for an already-coerced value list.

    *values* must already have NumPy scalars coerced and missing entries
    normalised to ``None``; *dtype* is the column's logical dtype.  *policy*
    defaults to the process-wide setting.
    """
    policy = policy or get_default_backend()
    if policy == "object":
        return ObjectBackend(values)
    backend: ColumnBackend | None = None
    if dtype in ("int", "float", "bool"):
        backend = NumericBackend.from_values(values, dtype)
    elif dtype == "str":
        backend = CategoricalBackend.from_values(values)
    return backend if backend is not None else ObjectBackend(values)


def backend_from_array(array: np.ndarray) -> tuple[ColumnBackend, str] | None:
    """Zero-copy backend construction straight from a typed ndarray.

    Returns ``(backend, logical_dtype)`` or ``None`` when the array's dtype
    has no typed representation (object arrays, datetimes, ...).
    """
    if array.ndim != 1:
        return None
    kind = array.dtype.kind
    if kind == "b":
        return NumericBackend(array), "bool"
    if kind in "iu":
        return NumericBackend(array.astype(np.int64, copy=False)), "int"
    if kind == "f":
        data = array.astype(np.float64, copy=False)
        backend = NumericBackend(data)
        dtype = "float" if np.count_nonzero(backend.validity()) else "empty"
        return backend, dtype
    if kind in "US":
        values = [str(v) for v in array.tolist()]
        backend = CategoricalBackend.from_values(values)
        if backend is not None:
            return backend, "str" if values else "empty"
    return None
