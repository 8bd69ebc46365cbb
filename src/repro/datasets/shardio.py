"""Build on-disk shard stores (see :mod:`repro.sparse.shards`).

Converting a ratings source into the packed two-orientation directory is
a counting-sort, done in bounded memory:

1. **Count** — stream the source once, accumulating per-row and
   per-column non-zero counts (O(m + n) ints).  Their cumulative sums
   are the two ``indptr`` arrays.
2. **Scatter (rows)** — stream the source again, writing each entry to
   its row's next free slot in the memory-mapped ``rows.indices`` /
   ``rows.values`` arrays (a per-row write cursor advances through the
   ``indptr`` layout).
3. **Fix up** — unless the source guarantees it, sort each row's
   entries by column in place (one budget-bounded row range at a time)
   so the store matches :meth:`CSRMatrix.from_coo`'s ``(row, col)``
   order bit for bit.  Duplicate ``(row, col)`` pairs are an error at
   this point — deduplication needs global knowledge the streaming
   passes deliberately don't keep.
4. **Derive (cols)** — stream the finished rows orientation in nnz
   order, counting-sort entries by column into ``cols.*``.  Entries
   arrive in ascending ``(row, col)`` order, and the stable scatter
   preserves arrival order within a column, so each column's entries
   end up in ascending row order — exactly what
   :meth:`CSCMatrix.from_csr` produces in RAM, which is what makes a
   sharded Y half-sweep bitwise-equal to the in-RAM one.

Sources: an in-RAM :class:`CSRMatrix`/:class:`COOMatrix` (whose arrays
are copied verbatim — the round-trip is exact), or a zero-argument
callable returning a fresh iterator of ``(rows, cols, values)`` chunks
(re-invoked once per pass; e.g. ``lambda:
generate_ratings_chunked(spec)`` or an :func:`iter_rating_file` lambda),
so full Table I shapes never materialize a 100M-entry COO triple.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.datasets.loaders import iter_rating_file
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import (
    FORMAT_VERSION,
    INDEX_DTYPE,
    META_FILENAME,
    ShardStore,
    _release_pages,
    orientation_filenames,
)

__all__ = ["build_shard_store", "build_store_from_rating_file"]

ChunkFactory = Callable[[], Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]

#: Non-zeros processed per streaming step in the fix-up and derive
#: passes (~80 MB of transient scratch at the default).
_STREAM_NNZ = 1 << 22


def _writable_memmap(path: Path, dtype: np.dtype, count: int) -> np.ndarray | None:
    """A ``w+`` memmap of ``count`` items (``None`` — and an empty file —
    for zero length, which ``np.memmap`` refuses to map)."""
    if count == 0:
        path.write_bytes(b"")
        return None
    return np.memmap(path, dtype=dtype, mode="w+", shape=(count,))


def _flush_release(mm: np.ndarray | None) -> None:
    """msync dirty pages to the file, then drop them from this process."""
    if mm is None:
        return
    mm.flush()
    _release_pages(mm, 0, mm.size)


def _scatter_group(
    ind_mm: np.ndarray,
    val_mm: np.ndarray,
    cursor: np.ndarray,
    keys: np.ndarray,
    payload_idx: np.ndarray,
    payload_val: np.ndarray,
) -> None:
    """Append one chunk's entries to their keyed groups, preserving
    within-chunk arrival order per key (the stable counting-sort step)."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    uniq, counts = np.unique(ks, return_counts=True)
    group_ptr = np.zeros(uniq.size + 1, dtype=np.int64)
    np.cumsum(counts, out=group_ptr[1:])
    offs = np.arange(ks.size, dtype=np.int64) - np.repeat(group_ptr[:-1], counts)
    pos = np.repeat(cursor[uniq], counts) + offs
    ind_mm[pos] = payload_idx[order]
    val_mm[pos] = payload_val[order]
    cursor[uniq] += counts


def _validate_chunk(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values)
    if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
        raise ValueError("chunk arrays must be 1-D and equal-length")
    if rows.size:
        if rows.min() < 0 or rows.max() >= shape[0]:
            raise ValueError(f"chunk row index out of range for m={shape[0]}")
        if cols.min() < 0 or cols.max() >= shape[1]:
            raise ValueError(f"chunk col index out of range for n={shape[1]}")
    return rows, cols, values


def _expanded_range_rows(row_ptr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row index of each stored entry in nnz range ``[lo, hi)``."""
    return (
        np.searchsorted(row_ptr, np.arange(lo, hi, dtype=np.int64), side="right") - 1
    )


def _sort_rows_in_place(
    directory: Path, row_ptr: np.ndarray, nnz: int, value_dtype: np.dtype
) -> None:
    """Pass 3: column-sort each row of the rows orientation, in place.

    Processes budget-bounded *whole-row* ranges so a row is never split
    across sort units.  Raises on duplicate ``(row, col)`` pairs.
    """
    if nnz == 0:
        return
    _, indices_name, values_name = orientation_filenames("rows")
    ind = np.memmap(directory / indices_name, dtype=INDEX_DTYPE, mode="r+", shape=(nnz,))
    val = np.memmap(directory / values_name, dtype=value_dtype, mode="r+", shape=(nnz,))
    m = row_ptr.size - 1
    start = 0
    while start < m:
        stop = int(np.searchsorted(row_ptr, row_ptr[start] + _STREAM_NNZ, "right")) - 1
        stop = min(max(stop, start + 1), m)
        lo, hi = int(row_ptr[start]), int(row_ptr[stop])
        if hi > lo:
            local_rows = _expanded_range_rows(row_ptr, lo, hi)
            cols = np.array(ind[lo:hi])
            vals = np.array(val[lo:hi])
            order = np.lexsort((cols, local_rows))
            cols = cols[order]
            rows_sorted = local_rows[order]
            dup = (cols[1:] == cols[:-1]) & (rows_sorted[1:] == rows_sorted[:-1])
            if np.any(dup):
                r = int(rows_sorted[1:][dup][0])
                c = int(cols[1:][dup][0])
                raise ValueError(
                    f"duplicate rating for (row={r}, col={c}); deduplicate "
                    "the source before building a shard store"
                )
            ind[lo:hi] = cols
            val[lo:hi] = vals[order]
        start = stop
    _flush_release(ind)
    _flush_release(val)


def _derive_cols_orientation(
    directory: Path,
    row_ptr: np.ndarray,
    col_counts: np.ndarray,
    nnz: int,
    value_dtype: np.dtype,
) -> None:
    """Pass 4: counting-sort the rows orientation into the cols one."""
    indptr_name, indices_name, values_name = orientation_filenames("cols")
    n = col_counts.size
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(col_counts, out=col_ptr[1:])
    col_ptr.tofile(directory / indptr_name)

    _, rows_indices_name, rows_values_name = orientation_filenames("rows")
    out_ind = _writable_memmap(directory / indices_name, INDEX_DTYPE, nnz)
    out_val = _writable_memmap(directory / values_name, value_dtype, nnz)
    if nnz == 0:
        return
    src_ind = np.memmap(
        directory / rows_indices_name, dtype=INDEX_DTYPE, mode="r", shape=(nnz,)
    )
    src_val = np.memmap(
        directory / rows_values_name, dtype=value_dtype, mode="r", shape=(nnz,)
    )
    cursor = col_ptr[:-1].copy()
    for lo in range(0, nnz, _STREAM_NNZ):
        hi = min(lo + _STREAM_NNZ, nnz)
        cols = np.array(src_ind[lo:hi])
        vals = np.array(src_val[lo:hi])
        rows = _expanded_range_rows(row_ptr, lo, hi)
        _scatter_group(out_ind, out_val, cursor, cols, rows, vals)
        _release_pages(src_ind, lo, hi)
        _release_pages(src_val, lo, hi)
    if not np.array_equal(cursor, col_ptr[1:]):
        raise AssertionError("cols orientation scatter did not fill every column")
    _flush_release(out_ind)
    _flush_release(out_val)


def _write_rows_from_chunks(
    directory: Path,
    chunks: ChunkFactory,
    shape: tuple[int, int],
    value_dtype: np.dtype,
    sorted_within_rows: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Passes 1-3 for a chunk source; returns (row_ptr, col_counts, nnz)."""
    m, n = shape
    row_counts = np.zeros(m, dtype=np.int64)
    col_counts = np.zeros(n, dtype=np.int64)
    nnz = 0
    for rows, cols, values in chunks():
        rows, cols, values = _validate_chunk(rows, cols, values, shape)
        row_counts += np.bincount(rows, minlength=m)
        col_counts += np.bincount(cols, minlength=n)
        nnz += rows.size

    indptr_name, indices_name, values_name = orientation_filenames("rows")
    row_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(row_counts, out=row_ptr[1:])
    row_ptr.tofile(directory / indptr_name)

    ind = _writable_memmap(directory / indices_name, INDEX_DTYPE, nnz)
    val = _writable_memmap(directory / values_name, value_dtype, nnz)
    cursor = row_ptr[:-1].copy()
    seen = 0
    for rows, cols, values in chunks():
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=value_dtype)
        if rows.size == 0:
            continue
        _scatter_group(ind, val, cursor, rows, cols, values)
        seen += rows.size
    if seen != nnz:
        raise ValueError(
            f"chunk source yielded {seen} entries on the scatter pass but "
            f"{nnz} on the counting pass; the factory must replay identically"
        )
    _flush_release(ind)
    _flush_release(val)
    if not sorted_within_rows:
        _sort_rows_in_place(directory, row_ptr, nnz, value_dtype)
    return row_ptr, col_counts, nnz


def _write_rows_from_csr(
    directory: Path, csr: CSRMatrix, value_dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, int]:
    """Passes 1-2 for an in-RAM CSR: its arrays are the rows orientation."""
    indptr_name, indices_name, values_name = orientation_filenames("rows")
    csr.row_ptr.tofile(directory / indptr_name)
    csr.col_idx.tofile(directory / indices_name)
    np.ascontiguousarray(csr.value, dtype=value_dtype).tofile(
        directory / values_name
    )
    col_counts = np.bincount(csr.col_idx, minlength=csr.ncols).astype(np.int64)
    return csr.row_ptr, col_counts, csr.nnz


def build_shard_store(
    dest: str | os.PathLike,
    source: CSRMatrix | COOMatrix | ChunkFactory,
    *,
    shape: tuple[int, int] | None = None,
    sorted_within_rows: bool = False,
    value_dtype: str = "float32",
    shard_bytes: int | None = None,
    overwrite: bool = False,
) -> ShardStore:
    """Convert a ratings source into a packed shard-store directory.

    ``source`` is an in-RAM matrix, or a zero-argument callable
    returning a fresh ``(rows, cols, values)`` chunk iterator (invoked
    once per streaming pass; ``shape`` is then required).  Pass
    ``sorted_within_rows=True`` when the factory guarantees chunks are
    row-major with column-sorted, duplicate-free rows (e.g.
    :func:`repro.datasets.synthetic.generate_ratings_chunked`) to skip
    the fix-up pass.  ``meta.json`` is written last, so a directory
    missing it is an aborted build, never a truncated store.

    Returns the store opened with ``shard_bytes`` (resolved through the
    usual precedence).
    """
    dest = Path(dest)
    meta_path = dest / META_FILENAME
    if meta_path.exists() and not overwrite:
        raise FileExistsError(f"{dest} already holds a shard store")
    dest.mkdir(parents=True, exist_ok=True)
    vdtype = np.dtype(value_dtype)
    if vdtype.name not in ("float32", "float64"):
        raise ValueError(f"value_dtype must be float32 or float64, got {value_dtype!r}")

    if isinstance(source, COOMatrix):
        source = CSRMatrix.from_coo(source)
    if isinstance(source, CSRMatrix):
        shape = source.shape
        row_ptr, col_counts, nnz = _write_rows_from_csr(dest, source, vdtype)
    else:
        if not callable(source):
            raise TypeError(
                "source must be a CSRMatrix, a COOMatrix, or a zero-argument "
                f"chunk factory, got {type(source).__name__}"
            )
        if shape is None:
            raise ValueError("shape=(m, n) is required for a chunk source")
        shape = (int(shape[0]), int(shape[1]))
        if shape[0] <= 0 or shape[1] <= 0:
            raise ValueError("shape dimensions must be positive")
        row_ptr, col_counts, nnz = _write_rows_from_chunks(
            dest, source, shape, vdtype, sorted_within_rows
        )

    _derive_cols_orientation(dest, row_ptr, col_counts, nnz, vdtype)
    meta = {
        "format_version": FORMAT_VERSION,
        "m": shape[0],
        "n": shape[1],
        "nnz": int(nnz),
        "value_dtype": vdtype.name,
        "index_dtype": INDEX_DTYPE.name,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    return ShardStore.open(dest, shard_bytes)


def build_store_from_rating_file(
    dest: str | os.PathLike,
    path: str | os.PathLike,
    delimiter: str | None = None,
    *,
    shard_bytes: int | None = None,
    overwrite: bool = False,
) -> tuple[ShardStore, np.ndarray, np.ndarray]:
    """Stream a ``<user, item, rating>`` file into a shard store.

    Adds an ID-compaction pass in front of the counting-sort passes
    (original IDs are arbitrary; the store needs dense 0-based indices),
    so the file is read three times but never held in memory.  Returns
    ``(store, user_ids, item_ids)`` — the same compaction maps
    :func:`repro.datasets.loaders.load_ratings` reports.  The maps are
    also saved into the store directory (``user_ids.bin`` /
    ``item_ids.bin``, raw int64) for later translation.
    """
    user_ids = np.empty(0, dtype=np.int64)
    item_ids = np.empty(0, dtype=np.int64)
    detected = delimiter
    for users, items, _ in iter_rating_file(path, detected):
        user_ids = np.union1d(user_ids, users)
        item_ids = np.union1d(item_ids, items)
    if user_ids.size == 0:
        raise ValueError(f"{path}: no ratings found")

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for users, items, values in iter_rating_file(path, detected):
            yield (
                np.searchsorted(user_ids, users),
                np.searchsorted(item_ids, items),
                values,
            )

    store = build_shard_store(
        dest,
        chunks,
        shape=(user_ids.size, item_ids.size),
        shard_bytes=shard_bytes,
        overwrite=overwrite,
    )
    user_ids.tofile(store.directory / "user_ids.bin")
    item_ids.tofile(store.directory / "item_ids.bin")
    return store, user_ids, item_ids
