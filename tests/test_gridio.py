"""Grid readers: the cells are those of converting the whole payload, bit for bit,
while a held grid takes memory only for the pages of its nonzero rows."""

import csv
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bevlab
from bevlab import boxio, gridio
from bevlab.geometry import BevGrid, Box3D, rasterize

EXTENT = (-50.0, 50.0, 0.0, 100.0)
HEADER = struct.Struct("<4sII4d")
SUBNORMALS = np.array([np.finfo(np.float32).smallest_subnormal, 1e-40, 1.1754942e-38], dtype=np.float32)


def dense_binary(path) -> np.ndarray:
    """The reference: a ``.bevg`` payload converted whole with ``astype(np.float64)``."""
    raw = Path(path).read_bytes()
    _, rows, cols, *_ = HEADER.unpack_from(raw)
    return np.frombuffer(raw, dtype="<f4", offset=HEADER.size).astype(np.float64).reshape(rows, cols)


def dense_csv(path) -> np.ndarray:
    """The reference: every parsed CSV cell in one dense float64 array."""
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:] if row], dtype=np.float64)


def write_payload(path, payload: np.ndarray) -> None:
    """A ``.bevg`` file holding ``payload``'s float32 bits as they are (no range check)."""
    rows, cols = payload.shape
    path.write_bytes(HEADER.pack(b"BEVG", rows, cols, *EXTENT) + payload.astype("<f4").tobytes())


def workload_like() -> np.ndarray:
    """A 500 x 500 grid with six car-sized and three truck-sized boxes, axis-aligned, one per 20 m slot."""
    boxes = [Box3D(x=-40.0 + 20 * (i % 5) + 1.3, y=0.0, z=10.0 + 20 * (i // 5) + 2.7, l=4.3 if i < 6 else 9.5,
                   w=1.8 if i < 6 else 2.6, h=1.5, yaw=0.0 if i % 2 else np.pi / 2, category="car")
             for i in range(9)]
    return rasterize(boxes, BevGrid(500, 500, EXTENT)).cells.astype(np.float32)


def payloads() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(21)
    half = rng.uniform(0, 1, (120, 90)).astype(np.float32)
    half[rng.uniform(size=half.shape) < 0.5] = 0.0
    negzero = np.zeros((30, 20), np.float32)
    negzero[[0, 7, 29], [3, 0, 19]] = -0.0  # rows holding only -0.0 bits, the first and the last among them
    subnormal = np.zeros((30, 20), np.float32)
    subnormal[[2, 3, 17], [5, 19, 0]] = SUBNORMALS
    ones = np.zeros((30, 20), np.float32)
    ones[10:12] = 1.0
    ones[29, -1] = 1.0
    alternate = np.zeros((31, 17), np.float32)
    alternate[::2] = rng.uniform(0, 1, (16, 17))
    row, column = np.zeros((1, 37), np.float32), np.zeros((41, 1), np.float32)
    row[0, [0, 5, 36]] = 0.25
    column[[0, 1, 20, 40], 0] = [0.5, 1.0, -0.0, SUBNORMALS[0]]
    return {
        "all-zero": np.zeros((60, 40), np.float32),
        "dense": rng.uniform(0, 1, (120, 90)).astype(np.float32),
        "workload-like": workload_like(),
        "half-mask": half,
        "negative-zero": negzero,
        "subnormal": subnormal,
        "exact-one": ones,
        "alternate-rows": alternate,
        "1xN": row,
        "Nx1": column,
    }


PAYLOADS = payloads()


def assert_same_bits(got: BevGrid, want: np.ndarray) -> None:
    assert got.cells.dtype == np.float64 and got.cells.shape == want.shape == (got.rows, got.cols)
    assert got.cells.tobytes() == want.tobytes()


class TestBitIdentity:
    @pytest.mark.parametrize("name", PAYLOADS)
    def test_binary(self, name, tmp_path):
        path = tmp_path / "grid.bevg"
        write_payload(path, PAYLOADS[name])
        assert_same_bits(gridio.read_grid(path), dense_binary(path))

    @pytest.mark.parametrize("name", PAYLOADS)
    def test_csv(self, name, tmp_path):
        path = tmp_path / "grid.csv"
        gridio.write_grid(BevGrid(*PAYLOADS[name].shape, EXTENT, PAYLOADS[name].astype(np.float64)), path)
        assert_same_bits(gridio.read_grid(path), dense_csv(path))

    def test_signs_and_subnormals_survive(self, tmp_path):
        path = tmp_path / "grid.bevg"
        write_payload(path, PAYLOADS["Nx1"])
        cells = gridio.read_grid(path).cells[:, 0]
        assert np.signbit(cells[20]) and cells[20] == 0.0
        assert cells[40] == float(SUBNORMALS[0]) > 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_any_row_pattern(self, rows, cols, data):
        values = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, 0.5, float(SUBNORMALS[1])])
        payload = np.array(data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)), np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.bevg"
            write_payload(path, payload.reshape(rows, cols))
            assert_same_bits(gridio.read_grid(path), dense_binary(path))


class TestErrorsKeepTheirMessages:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.5, -0.5])
    @pytest.mark.parametrize("suffix", [".bevg", ".csv"])
    def test_cell_out_of_range(self, value, suffix, tmp_path):
        # one bad cell in an otherwise empty grid: its row is copied, and the range check sees it
        path = tmp_path / f"grid{suffix}"
        if suffix == ".bevg":
            payload = np.zeros((50, 40), np.float32)
            payload[33, 7] = value
            write_payload(path, payload)
        else:
            lines = ["# extent," + ",".join(map(repr, EXTENT))] + ["0,0,0"] * 5
            lines[4] = f"0,{value!r},0"
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: cell values must be finite and lie in [0, 1]')}$"):
            gridio.read_grid(path)

    @pytest.mark.parametrize("cut,message",
                             [(10, "truncated grid header"), (HEADER.size + 5, "truncated grid payload")])
    def test_truncated(self, cut, message, tmp_path):
        path = tmp_path / "grid.bevg"
        write_payload(path, PAYLOADS["dense"])
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            gridio.read_grid(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "grid.bevg"
        write_payload(path, PAYLOADS["dense"])
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: trailing bytes after the grid payload')}$"):
            gridio.read_grid(path)

    @pytest.mark.parametrize("rows,cols", [(2**32 - 1, 0), (0, 2**32 - 1), (0, 0), (1, 0)])
    def test_zero_sized_header(self, rows, cols, tmp_path):
        # a header-only file matches a header of no cells; the reader must not size work by rows alone
        pytest.importorskip("resource")
        path = tmp_path / "empty.bevg"
        path.write_bytes(HEADER.pack(b"BEVG", rows, cols, *EXTENT))
        done = run_bevlab(ZERO_SIZED, path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{path}: rows and cols must be >= 1\n"

    @pytest.mark.parametrize("suffix,rows,extent,cell,message", [
        (".bevg", 0, EXTENT, 0.0, "rows and cols must be >= 1"),
        (".bevg", 2, (0.0, 0.0, 0.0, 1.0), 0.0, "extent must be finite and non-degenerate"),
        (".csv", 2, (0.0, 0.0, 0.0, 1.0), 0.0, "extent must be finite and non-degenerate"),
        (".bevg", 2, EXTENT, np.nan, "cell values must be finite and lie in [0, 1]"),
        (".csv", 2, EXTENT, np.nan, "cell values must be finite and lie in [0, 1]"),
    ])
    @pytest.mark.parametrize("generic", [True, False], ids=["read_grid", "format_reader"])
    def test_value_faults_name_the_file(self, suffix, rows, extent, cell, message, generic, tmp_path):
        # BevGrid's own checks, raised as the one input-fault type: the file, and no line
        path = tmp_path / f"grid{suffix}"
        if suffix == ".bevg":
            path.write_bytes(HEADER.pack(b"BEVG", rows, 3, *extent) + np.full((rows, 3), cell, "<f4").tobytes())
        else:
            path.write_text(f"# extent,{','.join(map(repr, extent))}\n" + f"0,{cell!r},0\n" * rows)
        reader = gridio.read_grid if generic else gridio.read_grid_binary if suffix == ".bevg" else gridio.read_grid_csv
        with pytest.raises(boxio.BoxFormatError) as exc:
            reader(path)
        assert (str(exc.value), exc.value.path, exc.value.line_no) == (f"{path}: {message}", path, None)


def run_bevlab(script: str, *args) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this checkout's bevlab, on one BLAS thread."""
    src = Path(bevlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env,
                          timeout=60)


ZERO_SIZED = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))  # a 4e9-row temporary fails here, not in the OOM killer
    from bevlab import gridio
    try:
        gridio.read_grid(sys.argv[1])
    except ValueError as exc:
        print(exc)
""")


HOLD_GRIDS = textwrap.dedent("""
    import os, sys
    from bevlab import gridio

    def rss():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    gridio.read_grid(sys.argv[1])  # imports and first-call allocations
    before = rss()
    held = [gridio.read_grid(sys.argv[1]) for _ in range(100)]
    print(rss() - before)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm") or platform.libc_ver()[0] != "glibc",
                    reason="reads the resident set from /proc (Linux); the bound assumes glibc's malloc and calloc")
def test_held_sparse_grids_take_memory_only_for_their_rows(tmp_path):
    # 100 held 500 x 500 grids of one car each: 200 MB as dense float64 cells, 11-24 MB sparse
    # (Linux x86-64, glibc: heap-allocated zeros also hold the heap top that calloc clears)
    path = tmp_path / "one_car.bevg"
    box = Box3D(x=3.3, y=0.0, z=41.7, l=4.3, w=1.8, h=1.5, yaw=0.0, category="car")
    gridio.write_grid(rasterize([box], BevGrid(500, 500, EXTENT)), path)
    done = run_bevlab(HOLD_GRIDS, path)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 50e6


HOLD_AFTER_DROPS = textwrap.dedent("""
    import os, sys
    from bevlab import gridio
    from bevlab.geometry import BevGrid, Box3D, rasterize

    def rss():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    box = Box3D(x=3.3, y=0.0, z=41.7, l=4.3, w=1.8, h=1.5, yaw=0.0, category="car")
    template = BevGrid(500, 500, (-50.0, 50.0, 0.0, 100.0))
    make = (lambda: gridio.read_grid(sys.argv[2])) if sys.argv[1] == "read" else (lambda: rasterize([box], template))
    make()  # imports and first-call allocations
    before = rss()
    for _ in range(5):  # freed 2 MB arrays raise glibc's mmap threshold, so later heap zeros are cleared pages
        dropped = [make() for _ in range(20)]
        del dropped
    held = [make() for _ in range(100)]
    print(rss() - before)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm") or platform.libc_ver()[0] != "glibc",
                    reason="reads the resident set from /proc (Linux); the bound assumes glibc's malloc and calloc")
@pytest.mark.parametrize("make", ["read", "rasterize"])
def test_grids_held_after_dropped_ones_take_memory_only_for_their_rows(make, tmp_path):
    # 100 one-car grids held after 5 rounds that each made and dropped 20: about 10 MB in private zero
    # mappings, against 23-25 MB for np.zeros, whose heap memory calloc clears once glibc's threshold rose
    path = tmp_path / "one_car.bevg"
    box = Box3D(x=3.3, y=0.0, z=41.7, l=4.3, w=1.8, h=1.5, yaw=0.0, category="car")
    gridio.write_grid(rasterize([box], BevGrid(500, 500, EXTENT)), path)
    done = run_bevlab(HOLD_AFTER_DROPS, make, path)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 15e6
