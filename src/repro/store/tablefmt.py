"""Binary columnar table format (NPZ-backed).

CSV round-trips lose information: dtypes are re-inferred from text, the
``"1_000"`` class of cells is ambiguous, and dictionary encodings are
flattened.  This module persists a :class:`~repro.frame.table.Table`
losslessly as a single ``.npz`` file holding exactly the arrays the storage
backends already keep in memory:

* ``numeric`` columns — the typed ndarray plus its validity mask;
* ``categorical`` columns — the int64 code array plus the category list in
  first-seen order (stored as UTF-8 bytes + offsets, so embedded NULs and
  all of Unicode survive);
* everything else (``mixed``/``empty``/non-string categories) — a tagged
  scalar encoding (one type tag per row plus parallel int/float/string
  arrays), the exact object-backend fallback.

A JSON schema travels inside the archive (entry ``__schema__``) recording
the format version, column names, logical dtypes and per-column storage, so
the file is self-describing and the reconstruction restores the same
backend representation bit for bit — dtypes, validity masks and dictionary
codes included.  Writes are atomic (temp file + ``os.replace``).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.frame.backend import CategoricalBackend, NumericBackend, ObjectBackend
from repro.frame.column import Column
from repro.frame.table import Table
from repro.store.atomic import atomic_path
from repro.store.codec import StoreError

#: Version of the on-disk table layout; bumped on incompatible changes.
TABLE_FORMAT_VERSION = 1

_SCHEMA_KEY = "__schema__"

# tags of the object-fallback scalar encoding
_TAG_NONE, _TAG_BOOL, _TAG_INT, _TAG_FLOAT, _TAG_STR = 0, 1, 2, 3, 4


# ---------------------------------------------------------------------------
# string lists as UTF-8 bytes + offsets (exact for every Python str)
# ---------------------------------------------------------------------------

def _encode_strings(strings) -> tuple[np.ndarray, np.ndarray]:
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in blobs], out=offsets[1:])
    payload = np.frombuffer(b"".join(blobs), dtype=np.uint8) if blobs else np.empty(0, np.uint8)
    return payload, offsets


def _decode_strings(payload: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = payload.tobytes()
    bounds = offsets.tolist()
    return [raw[bounds[i]:bounds[i + 1]].decode("utf-8") for i in range(len(bounds) - 1)]


# ---------------------------------------------------------------------------
# column encodings
# ---------------------------------------------------------------------------

def _encode_object_column(values: list, prefix: str, arrays: dict) -> None:
    """Tagged scalar encoding of an object-backed value list."""
    n = len(values)
    tags = np.zeros(n, dtype=np.uint8)
    ints = np.zeros(n, dtype=np.int64)
    floats = np.zeros(n, dtype=np.float64)
    strings = [""] * n
    for i, value in enumerate(values):
        if value is None:
            continue
        if isinstance(value, bool):
            tags[i] = _TAG_BOOL
            ints[i] = int(value)
        elif isinstance(value, int):
            tags[i] = _TAG_INT
            try:
                ints[i] = value
            except OverflowError:
                raise StoreError(
                    "integer {!r} does not fit the int64 artifact encoding".format(value)
                ) from None
        elif isinstance(value, float):
            tags[i] = _TAG_FLOAT
            floats[i] = value
        elif isinstance(value, str):
            tags[i] = _TAG_STR
            strings[i] = value
        else:
            raise StoreError(
                "cannot persist value of type {} (row {}); the artifact format "
                "stores None/bool/int/float/str scalars only".format(type(value).__name__, i)
            )
    blob, offsets = _encode_strings(strings)
    arrays[prefix + "tags"] = tags
    arrays[prefix + "ints"] = ints
    arrays[prefix + "floats"] = floats
    arrays[prefix + "str_blob"] = blob
    arrays[prefix + "str_offsets"] = offsets


def _decode_object_column(prefix: str, arrays: dict) -> list:
    tags = arrays[prefix + "tags"]
    ints = arrays[prefix + "ints"].tolist()
    floats = arrays[prefix + "floats"].tolist()
    strings = _decode_strings(arrays[prefix + "str_blob"], arrays[prefix + "str_offsets"])
    values: list = []
    for i, tag in enumerate(tags.tolist()):
        if tag == _TAG_NONE:
            values.append(None)
        elif tag == _TAG_BOOL:
            values.append(bool(ints[i]))
        elif tag == _TAG_INT:
            values.append(ints[i])
        elif tag == _TAG_FLOAT:
            values.append(floats[i])
        elif tag == _TAG_STR:
            values.append(strings[i])
        else:
            raise StoreError("unknown scalar tag {} in table artifact".format(tag))
    return values


# ---------------------------------------------------------------------------
# table <-> arrays
# ---------------------------------------------------------------------------

def table_to_arrays(table: Table) -> dict[str, np.ndarray]:
    """Flatten *table* into named arrays plus an embedded JSON schema."""
    arrays: dict[str, np.ndarray] = {}
    columns_meta: list[dict] = []
    for index, column in enumerate(table.columns):
        prefix = "c{}_".format(index)
        backend = column._backend
        if isinstance(backend, NumericBackend):
            storage = "numeric"
            arrays[prefix + "data"] = backend.data
            if backend.mask is not None:
                arrays[prefix + "mask"] = backend.mask
        elif isinstance(backend, CategoricalBackend) and all(
            isinstance(c, str) for c in backend.categories
        ):
            storage = "categorical"
            arrays[prefix + "codes"] = backend.codes
            blob, offsets = _encode_strings(backend.categories)
            arrays[prefix + "cat_blob"] = blob
            arrays[prefix + "cat_offsets"] = offsets
        else:
            storage = "object"
            _encode_object_column(backend.tolist(), prefix, arrays)
        columns_meta.append({"name": column.name, "dtype": column.dtype, "storage": storage})
    schema = {
        "format_version": TABLE_FORMAT_VERSION,
        "num_rows": table.num_rows,
        "columns": columns_meta,
    }
    arrays[_SCHEMA_KEY] = np.frombuffer(json.dumps(schema).encode("utf-8"), dtype=np.uint8)
    return arrays


def arrays_to_table(arrays: dict) -> Table:
    """Inverse of :func:`table_to_arrays`: exact backend reconstruction."""
    if _SCHEMA_KEY not in arrays:
        raise StoreError("table artifact is missing its embedded schema")
    schema = json.loads(np.asarray(arrays[_SCHEMA_KEY]).tobytes().decode("utf-8"))
    version = schema.get("format_version")
    if version is None or version > TABLE_FORMAT_VERSION:
        raise StoreError(
            "table artifact format version {} is newer than supported version {}".format(
                version, TABLE_FORMAT_VERSION
            )
        )
    columns: list[Column] = []
    for index, meta in enumerate(schema["columns"]):
        prefix = "c{}_".format(index)
        storage = meta["storage"]
        if storage == "numeric":
            data = arrays[prefix + "data"]
            mask = arrays.get(prefix + "mask")
            backend = NumericBackend(data, None if mask is None else mask)
        elif storage == "categorical":
            categories = _decode_strings(arrays[prefix + "cat_blob"],
                                         arrays[prefix + "cat_offsets"])
            backend = CategoricalBackend(arrays[prefix + "codes"], categories)
        elif storage == "object":
            backend = ObjectBackend(_decode_object_column(prefix, arrays))
        else:
            raise StoreError("unknown column storage {!r} in table artifact".format(storage))
        columns.append(Column._from_backend(meta["name"], backend, meta["dtype"]))
    return Table(columns)


# ---------------------------------------------------------------------------
# bytes and file round trips
# ---------------------------------------------------------------------------

def encode_table(table: Table) -> bytes:
    """Serialize a table to NPZ bytes (the columnar wire format)."""
    buffer = io.BytesIO()
    np.savez(buffer, **table_to_arrays(table))
    return buffer.getvalue()


def decode_table(blob: bytes) -> Table:
    """Inverse of :func:`encode_table`."""
    with np.load(io.BytesIO(blob)) as data:
        return arrays_to_table({key: data[key] for key in data.files})


def write_table(table: Table, path, compress: bool = True) -> Path:
    """Atomically persist *table* as a single NPZ artifact and return the path.

    ``compress=False`` keeps the inner ``.npy`` entries stored (uncompressed),
    which is what lets :func:`repro.store.npymap.map_npz_file` hand back
    memory-mapped views instead of copies — the spill files of the streaming
    path are written this way.
    """
    path = Path(path)
    save = np.savez_compressed if compress else np.savez
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as handle:
            save(handle, **table_to_arrays(table))
    return path


def read_table(path) -> Table:
    """Load a table persisted by :func:`write_table`."""
    with np.load(Path(path)) as data:
        arrays = {name: data[name] for name in data.files}
    return arrays_to_table(arrays)
