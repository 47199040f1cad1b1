"""Serialization of BEV grids: dense CSV (row-major) and compact binary.

Binary layout, little-endian: magic ``BEVG``, u32 rows, u32 cols, four f64
extent values (x_min, x_max, z_min, z_max), then rows*cols f32 cells in
row-major order.

Every fault of a grid file raises ``boxio.BoxFormatError`` naming the file:
with the line for a CSV cell, row or field, without one for a header, a
payload size, or a ``BevGrid`` value fault (no cells, a bad extent or cell).

A grid read from either format starts as zero cells in a private anonymous
mapping of its own (``geometry.zero_cells``), and only the runs of rows that
hold a nonzero bit are copied in, bit for bit as ``astype(np.float64)``
(``-0.0`` is such a bit).  A page of the mapping is resident only once a row
on it is written, so a held grid takes memory only for the pages that hold
nonzero rows: 0.1-0.25 MB for a 500 x 500 grid of one car, against 2 MB
dense, however many grids the process read and dropped before.  Reading the
other pages (``BevGrid``'s range check, ``grid_dice``, ``seg_miou``) maps the
kernel's shared zero page, and dropping a grid unmaps it.  ``np.zeros`` kept
this only until glibc raised its mmap threshold on the first freed 2 MB
array; later grids came from heap memory that ``calloc`` clears page by page.
The price is a map, page faults and an unmap per grid: in a warm loop a
9-car 500 x 500 ``.bevg`` read took 525-628 us, against 319-366 us from
reused heap memory (Intel Xeon, NumPy 2.4).  ``bevlab seg-iou`` holds every
grid of its manifest until it computes, so its memory grows with their
nonzero pages.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from pathlib import Path

import numpy as np

from .boxio import BoxFormatError, read_text
from .geometry import BevGrid, zero_cells

__all__ = ["read_grid", "write_grid", "read_grid_csv", "write_grid_csv", "read_grid_binary", "write_grid_binary",
           "csv_reader", "csv_records"]

_MAGIC = b"BEVG"
_HEADER = struct.Struct("<4sII4d")


def _cells(data: np.ndarray) -> np.ndarray:
    """The float64 cells of a C-ordered 2-D payload: ``zero_cells``, then each run of rows with a nonzero bit.

    Only the pages of the copied rows become resident; the rest of the
    mapping stays unbacked until it is written, and leaves with the grid.

    Copying runs of rows costs about the same at every density.  A copy masked
    per cell was as fast on sparse grids, but took 19x as long as ``astype`` on
    a 500 x 500 grid with a 50% random mask (Intel Xeon, NumPy 2.4).  A boolean
    row index (``cells[live] = data[live]``), which copies the live rows twice,
    read dense grids in 1.63x the time of ``astype`` against 1.49x for row runs."""
    cells = zero_cells(data.shape)
    if not cells.size:  # a header of 2**32 - 1 rows by 0 columns would still get a flag per row; BevGrid rejects it
        return cells
    live = np.concatenate(([False], np.bitwise_or.reduce(data.view(f"u{data.itemsize}"), axis=1) != 0, [False]))
    edges = np.flatnonzero(live[1:] != live[:-1]).tolist()
    for start, stop in zip(edges[::2], edges[1::2]):
        cells[start:stop] = data[start:stop]
    return cells


def _grid(path, rows: int, cols: int, extent, cells: np.ndarray) -> BevGrid:
    """The grid read from ``path``; ``BevGrid``'s value faults (no cells, a bad extent or cell) name the file."""
    try:
        return BevGrid(rows, cols, extent, cells)
    except ValueError as exc:
        raise BoxFormatError(path, None, str(exc)) from None


def write_grid_binary(grid: BevGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, grid.rows, grid.cols, *grid.extent))
        fh.write(grid.cells.astype("<f4", order="C"))  # written through the buffer protocol, no bytes copy


def read_grid_binary(path) -> BevGrid:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise BoxFormatError(path, None, "truncated grid header")
        magic, rows, cols, x0, x1, z0, z1 = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise BoxFormatError(path, None, f"bad magic {magic!r}")
        stored = os.fstat(fh.fileno()).st_size - _HEADER.size  # checked before reading what the header claims
        if stored < rows * cols * 4:
            raise BoxFormatError(path, None, "truncated grid payload")
        if stored > rows * cols * 4:
            raise BoxFormatError(path, None, "trailing bytes after the grid payload")
        data = np.frombuffer(fh.read(stored), dtype="<f4")
    return _grid(path, rows, cols, (x0, x1, z0, z1), _cells(data.reshape(rows, cols)))


def write_grid_csv(grid: BevGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# extent", *(repr(v) for v in grid.extent)])
        for row in grid.cells:
            writer.writerow(f"{v:.9g}" for v in row)


def _floats(cells: list[str], path, line: int) -> list[float]:
    try:
        return [float(v) for v in cells]
    except ValueError as exc:
        raise BoxFormatError(path, line, str(exc)) from None


def csv_records(reader, path):
    """(first physical line, cells) per record; a ``csv.Error`` becomes a ValueError naming ``path`` and the line."""
    line = reader.line_num + 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise BoxFormatError(path, line, str(exc)) from None


def csv_reader(path):
    """A ``csv.reader`` of ``path``'s text, read whole by ``boxio.read_text`` with ``newline=""``."""
    return csv.reader(io.StringIO(read_text(path, newline=""), newline=""))


def read_grid_csv(path) -> BevGrid:
    reader = csv_reader(path)
    records = csv_records(reader, path)
    first = next(records, (1, []))[1]
    if len(first) != 5 or first[0] != "# extent":
        raise BoxFormatError(path, None, "missing extent header")
    extent, rows = tuple(_floats(first[1:], path, 1)), []
    for line, row in (record for record in records if record[1]):  # blank lines are skipped
        rows.append(_floats(row, path, line))
        if len(row) != len(rows[0]):
            raise BoxFormatError(path, line, f"{len(row)} cells, but the first row has {len(rows[0])}")
    if not rows:
        raise BoxFormatError(path, reader.line_num + 1, "no grid rows after the extent header")
    cells = _cells(np.array(rows, dtype=np.float64))
    return _grid(path, cells.shape[0], cells.shape[1], extent, cells)


def write_grid(grid: BevGrid, path) -> None:
    """Dispatch on extension: ``.bevg`` binary, anything else CSV."""
    if Path(path).suffix == ".bevg":
        write_grid_binary(grid, path)
    else:
        write_grid_csv(grid, path)


def read_grid(path) -> BevGrid:
    if Path(path).suffix == ".bevg":
        return read_grid_binary(path)
    return read_grid_csv(path)
