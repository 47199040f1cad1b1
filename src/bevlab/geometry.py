"""Box and grid geometry: along-ray overlap, rotated BEV/3D IoU, rasterization,
grid-level soft dice, and boxes as columns (:class:`BoxArray`) for the
vectorized paths.

Conventions: the BEV plane is x (lateral) by z (depth); elevation is y.
``yaw = 0`` points the box length axis along +z (the camera ray), so the
length direction in the (x, z) plane is ``(sin yaw, cos yaw)``.  Grids are
row-major with rows spanning z and columns spanning x.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box3D",
    "BoxArray",
    "RayObject",
    "BevGrid",
    "ray_dice_coefficient",
    "ray_iou",
    "bev_iou",
    "iou3d",
    "rasterize",
    "grid_dice",
]

_TAU = 2.0 * math.pi
# the box rules, checked on one box by Box3D and on columns by box_fault
_VALUES_RULE, _SCORE_RULE = "box values must be finite and dimensions > 0", "score must be in [0, 1]"


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    y = math.fmod(yaw, _TAU)
    if y <= -math.pi:
        y += _TAU
    elif y > math.pi:
        y -= _TAU
    return y


@dataclass(frozen=True)
class Box3D:
    """7-DoF oriented 3D box (meters/radians); ``score`` absent marks GT."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float
    category: str = ""
    score: float | None = None

    def __post_init__(self) -> None:
        # x - x is 0.0 exactly when x is finite: one cheap sum screens all seven
        finite = (self.x - self.x) + (self.y - self.y) + (self.z - self.z) + (self.yaw - self.yaw) + (
            (self.l - self.l) + (self.w - self.w) + (self.h - self.h)
        ) == 0.0
        if not (finite and self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError(_VALUES_RULE)
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(_SCORE_RULE)
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    def footprint(self) -> list[tuple[float, float]]:
        """Counter-clockwise corners of the BEV footprint in the (x, z) plane."""
        return _footprint(self.x, self.z, self.l, self.w, self.yaw)


def _footprint(x: float, z: float, l: float, w: float, yaw: float) -> list[tuple[float, float]]:
    s, c = math.sin(yaw), math.cos(yaw)
    # length axis u = (s, c), width axis v = (c, -s)
    hl, hw = 0.5 * l, 0.5 * w
    return [(x + a * s + b * c, z + a * c - b * s) for a, b in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def box_fault(values: np.ndarray, scores: np.ndarray) -> tuple[int, str] | None:
    """The first row of box columns that breaks a box rule, and the rule it
    breaks; None if no row does.  The rules are Box3D's, in its order: values
    finite and dimensions > 0, then a score (NaN for none) in [0, 1]."""
    bad_values = ~(np.isfinite(values).all(axis=1) & (values[:, 3:6] > 0).all(axis=1))
    bad = np.flatnonzero(bad_values | (scores < 0.0) | (scores > 1.0))
    if not len(bad):
        return None
    row = int(bad[0])
    return row, _VALUES_RULE if bad_values[row] else _SCORE_RULE


def _codes(labels) -> tuple[list[int], tuple[str, ...]]:
    """Each label's index into the distinct labels, in order of first appearance."""
    names = tuple(dict.fromkeys(labels))
    return list(map({name: k for k, name in enumerate(names)}.__getitem__, labels)), names


class BoxArray:
    """Boxes as columns: ``values`` is (N, 7) float64 in Box3D field order
    (x, y, z, l, w, h, yaw), ``codes`` indexes ``names`` with each box's
    category, and ``scores`` is NaN where a box has no score.

    Values are checked by :func:`box_fault`, and yaws are wrapped into
    (-pi, pi] with the same float operations, so a box read back through
    :meth:`boxes` equals the one it was made from.
    """

    def __init__(self, values, codes, names, scores=None) -> None:
        values = np.array(values, dtype=np.float64).reshape(-1, 7)
        codes = np.asarray(codes, dtype=np.intp)
        n = len(values)
        scores = np.full(n, math.nan) if scores is None else np.array(scores, dtype=np.float64)
        if codes.shape != (n,) or scores.shape != (n,):
            raise ValueError("box columns must have one entry per box")
        if n and not (codes.min() >= 0 and codes.max() < len(names)):
            raise ValueError("category codes must index names")
        fault = box_fault(values, scores)
        if fault is not None:
            raise ValueError(fault[1])
        yaw = np.fmod(values[:, 6], _TAU)  # normalize_yaw, element by element
        low, high = yaw <= -math.pi, yaw > math.pi
        yaw[low] += _TAU
        yaw[high] -= _TAU
        values[:, 6] = yaw
        self.values, self.codes, self.names, self.scores = values, codes, tuple(names), scores

    @classmethod
    def from_boxes(cls, boxes) -> "BoxArray":
        codes, names = _codes([b.category for b in boxes])
        values = [(b.x, b.y, b.z, b.l, b.w, b.h, b.yaw) for b in boxes]
        scores = [math.nan if b.score is None else b.score for b in boxes]
        return cls(np.array(values, dtype=np.float64).reshape(-1, 7), codes, names, scores)

    def take(self, rows) -> "BoxArray":
        """The boxes at ``rows``, not checked again."""
        out = object.__new__(BoxArray)
        vars(out).update(values=self.values[rows], codes=self.codes[rows], names=self.names, scores=self.scores[rows])
        return out

    def boxes(self) -> list[Box3D]:
        names = self.names
        return [
            Box3D(*v, category=names[c], score=None if math.isnan(s) else s)
            for v, c, s in zip(self.values.tolist(), self.codes.tolist(), self.scores.tolist())
        ]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RayObject:
    """An interval along a camera ray: center depth plus extent."""

    depth: float
    length: float

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ValueError("length must be > 0")


def zero_cells(shape: tuple[int, int]) -> np.ndarray:
    """Zero float64 cells of ``shape`` in a private anonymous mapping of their own.

    A page is resident only once a cell on it is written, and dropping the
    cells unmaps them; ``np.zeros`` reuses heap memory that ``calloc`` clears
    once glibc's mmap threshold has risen.  No cells, no ``MAP_PRIVATE``
    (Windows) or a failed map (``vm.max_map_count``) fall back to ``np.zeros``."""
    nbytes = 8 * math.prod(int(n) for n in shape)
    if nbytes and hasattr(mmap, "MAP_PRIVATE"):
        try:
            return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype=np.float64).reshape(shape)
        except (OSError, OverflowError):  # past ssize_t, np.zeros reports the size as it always did
            pass
    return np.zeros(shape)


@dataclass
class BevGrid:
    """Soft-occupancy grid over a metric BEV extent; cell values in [0, 1]."""

    rows: int
    cols: int
    extent: tuple[float, float, float, float]  # (x_min, x_max, z_min, z_max)
    cells: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if len(self.extent) != 4:
            raise ValueError("extent must be (x_min, x_max, z_min, z_max)")
        x_min, x_max, z_min, z_max = self.extent
        if not (math.inf > x_max - x_min > 0 and math.inf > z_max - z_min > 0):
            raise ValueError("extent must be finite and non-degenerate")
        if self.cells is None:  # an empty grid needs no value check
            self.cells = zero_cells((self.rows, self.cols))
            return
        self.cells = np.asarray(self.cells, dtype=np.float64)
        if self.cells.shape != (self.rows, self.cols):
            raise ValueError("cells shape mismatch")
        # min/max propagate NaN, which fails both comparisons
        if self.cells.size and not (self.cells.min() >= -1e-12 and self.cells.max() <= 1 + 1e-12):
            raise ValueError("cell values must be finite and lie in [0, 1]")

    @property
    def cell_width(self) -> float:  # along x
        return (self.extent[1] - self.extent[0]) / self.cols

    @property
    def cell_depth(self) -> float:  # along z
        return (self.extent[3] - self.extent[2]) / self.rows

    def like(self) -> "BevGrid":
        return BevGrid(self.rows, self.cols, self.extent)


def _interval_overlap(c1: float, l1: float, c2: float, l2: float) -> float:
    lo = max(c1 - 0.5 * l1, c2 - 0.5 * l2)
    hi = min(c1 + 0.5 * l1, c2 + 0.5 * l2)
    return max(0.0, hi - lo)


def ray_dice_coefficient(gt: RayObject, pred: RayObject) -> float:
    """Dice overlap of two along-ray intervals: 2.intersection / (sum of sizes).

    For equal lengths this reduces to ``max(0, l - |eta|) / l``.
    """
    inter = _interval_overlap(gt.depth, gt.length, pred.depth, pred.length)
    return 2.0 * inter / (gt.length + pred.length)


def ray_iou(gt: RayObject, pred: RayObject) -> float:
    """1D intersection-over-union of two along-ray intervals."""
    inter = _interval_overlap(gt.depth, gt.length, pred.depth, pred.length)
    union = gt.length + pred.length - inter
    return inter / union if union > 0 else 0.0


# Collinearity tolerance for polygon clipping, in meters.
_CLIP_EPS = 1e-12


def _clip_against_edge(poly, a, b):
    """Sutherland-Hodgman step: keep the part of poly left of directed edge a->b."""
    ex, ez = b[0] - a[0], b[1] - a[1]
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp = ex * (p[1] - a[1]) - ez * (p[0] - a[0])
        sq = ex * (q[1] - a[1]) - ez * (q[0] - a[0])
        inside_p = sp >= -_CLIP_EPS
        inside_q = sq >= -_CLIP_EPS
        if inside_p:
            out.append(p)
        if inside_p != inside_q:
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _bev_key(box: Box3D) -> tuple[float, float, float, float, float]:
    return (box.x, box.z, box.l, box.w, box.yaw)


_BEV_COLUMNS = [0, 2, 3, 4, 6]  # the _bev_key fields in a BoxArray values row


def _footprint_intersection_area(ka, kb) -> float:
    """Exact overlap area of two footprints given as (x, z, l, w, yaw)."""
    # canonical operand order makes the clipping result exactly symmetric
    if kb < ka:
        ka, kb = kb, ka
    poly = _footprint(*ka)
    clip = _footprint(*kb)
    # footprint() yields CCW corners; orient edges so "inside" is the left side
    if _signed_area(clip) < 0:
        clip = clip[::-1]
    if _signed_area(poly) < 0:
        poly = poly[::-1]
    for i in range(4):
        poly = _clip_against_edge(poly, clip[i], clip[(i + 1) % 4])
        if len(poly) < 3:
            return 0.0
    return abs(_signed_area(poly))


def _signed_area(poly) -> float:
    s = 0.0
    n = len(poly)
    for i in range(n):
        x1, z1 = poly[i]
        x2, z2 = poly[(i + 1) % n]
        s += x1 * z2 - x2 * z1
    return 0.5 * s


def bev_iou(a: Box3D, b: Box3D) -> float:
    """Exact IoU of the yaw-rotated rectangular footprints in the x-z plane."""
    inter = _footprint_intersection_area(_bev_key(a), _bev_key(b))
    if inter <= 0.0:
        return 0.0
    union = a.l * a.w + b.l * b.w - inter
    return min(1.0, inter / union) if union > 0 else 0.0


def iou3d(a: Box3D, b: Box3D) -> float:
    """Rotated 3D IoU: BEV intersection area times vertical overlap along y."""
    inter_area = _footprint_intersection_area(_bev_key(a), _bev_key(b))
    if inter_area <= 0.0:
        return 0.0
    y_overlap = _interval_overlap(a.y, a.h, b.y, b.h)
    if y_overlap <= 0.0:
        return 0.0
    inter_vol = inter_area * y_overlap
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter_vol
    return min(1.0, inter_vol / union) if union > 0 else 0.0


def interval_overlaps(c1, l1, c2, l2) -> np.ndarray:
    """``_interval_overlap`` element by element, with the same float operations."""
    lo = np.maximum(c1 - 0.5 * l1, c2 - 0.5 * l2)
    hi = np.minimum(c1 + 0.5 * l1, c2 + 0.5 * l2)
    return np.maximum(0.0, hi - lo)


def _footprints(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner x and z, (K, 4) each, of the footprints of (K, 5) ``_bev_key``
    rows, with _footprint's float operations (math.sin/cos per box)."""
    x, z, l, w = (col[:, None] for col in keys.T[:4])
    s, c = (np.array([f(v) for v in keys[:, 4].tolist()])[:, None] for f in (math.sin, math.cos))
    hl, hw = 0.5 * l, 0.5 * w
    a, b = np.hstack([hl, -hl, -hl, hl]), np.hstack([hw, hw, -hw, -hw])
    return x + a * s + b * c, z + a * c - b * s


def _signed_areas(xs: np.ndarray, zs: np.ndarray, n: np.ndarray) -> np.ndarray:
    """_signed_area of the first ``n`` vertices of each row, summed in the same order."""
    rows, total = np.arange(len(xs)), np.zeros(len(xs))
    for i in range(xs.shape[1]):
        j = np.where(i + 1 < n, i + 1, 0)
        total = np.where(i < n, total + (xs[:, i] * zs[rows, j] - xs[rows, j] * zs[:, i]), total)
    return 0.5 * total


def _clip_rows(xs, zs, n, ax, az, bx, bz):
    """_clip_against_edge on every row at once: the polygon of each row (its
    first ``n`` vertices) keeps the part left of its edge a->b.  Returns the
    clipped vertices, padded, and their count per row."""
    rows, col = np.arange(len(xs))[:, None], np.arange(xs.shape[1])
    valid, nxt = col < n[:, None], np.where(col + 1 < n[:, None], col + 1, 0)
    side = (bx - ax)[:, None] * (zs - az[:, None]) - (bz - az)[:, None] * (xs - ax[:, None])
    inside = side >= -_CLIP_EPS
    cross = valid & (inside != inside[rows, nxt])
    t = side / np.where(cross, side - side[rows, nxt], 1.0)
    # vertex i if inside, then the crossing on its edge to i + 1; emitted entries move to the front
    shape = (len(xs), 2 * xs.shape[1])
    points = [np.stack([v, v + t * (v[rows, nxt] - v)], axis=2).reshape(shape) for v in (xs, zs)]
    emitted = np.stack([valid & inside, cross], axis=2).reshape(shape)
    count = emitted.sum(axis=1)
    order = np.argsort(~emitted, axis=1, kind="stable")[:, : max(count.max(initial=0), 1)]
    return points[0][rows, order], points[1][rows, order], count


def _footprint_overlaps(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Footprint intersection area of the row pairs ``rows`` of two (K, 7)
    box value arrays, zero for other rows: _footprint_intersection_area on
    all rows at once, bit for bit."""
    area = np.zeros(len(a))
    ka, kb = a[rows][:, _BEV_COLUMNS], b[rows][:, _BEV_COLUMNS]
    # the canonical operand order: the tuples compare as kb < ka
    swap, tied = np.zeros(len(rows), dtype=bool), np.ones(len(rows), dtype=bool)
    for i in range(5):
        swap, tied = swap | tied & (kb[:, i] < ka[:, i]), tied & (kb[:, i] == ka[:, i])
    ka, kb = np.where(swap[:, None], kb, ka), np.where(swap[:, None], ka, kb)
    n = np.full(len(rows), 4)
    (px, pz), (cx, cz) = _footprints(ka), _footprints(kb)
    for xs, zs in ((cx, cz), (px, pz)):  # orient edges so "inside" is the left side
        flip = _signed_areas(xs, zs, n) < 0
        xs[flip], zs[flip] = xs[flip, ::-1], zs[flip, ::-1]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        px, pz, n = _clip_rows(px, pz, n, cx[:, i], cz[:, i], cx[:, j], cz[:, j])
        live = n >= 3
        px, pz, n, cx, cz, rows = px[live], pz[live], n[live], cx[live], cz[live], rows[live]
    area[rows] = np.abs(_signed_areas(px, pz, n))
    return area


def _bev_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """bev_iou of each row pair of two (K, 7) box value arrays, bit for bit."""
    inter = _footprint_overlaps(a, b, np.arange(len(a)))
    union = a[:, 3] * a[:, 4] + b[:, 3] * b[:, 4] - inter
    ok = (inter > 0.0) & (union > 0)
    return np.where(ok, np.minimum(1.0, inter / np.where(ok, union, 1.0)), 0.0)


def _iou3d_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """iou3d of each row pair of two (K, 7) box value arrays, bit for bit: the
    footprints are clipped only where the boxes overlap vertically; the rest
    is the same float operations on arrays."""
    y_overlap = interval_overlaps(a[:, 1], a[:, 5], b[:, 1], b[:, 5])
    inter_area = _footprint_overlaps(a, b, np.flatnonzero(y_overlap > 0.0))
    inter_vol = inter_area * y_overlap
    union = a[:, 3] * a[:, 4] * a[:, 5] + b[:, 3] * b[:, 4] * b[:, 5] - inter_vol
    ok = (inter_area > 0.0) & (y_overlap > 0.0) & (union > 0)
    return np.where(ok, np.minimum(1.0, inter_vol / np.where(ok, union, 1.0)), 0.0)


# The vectorized twins that evaluate() uses in place of the scalar IoUs.
bev_iou.pairwise = _bev_iou_pairs
iou3d.pairwise = _iou3d_pairs


_AXIS_EPS = 1e-9
_SUPERSAMPLE = 4


def _union_areas(x0, x1, z0, z1, cx0, cx1, cz0, cz1) -> np.ndarray:
    """Exact area of the union of the k rectangles in each column of the
    (k, cells) edge arrays, clipped to that column's cell.  Each column's
    rectangles come in order of their lower z edge.

    The clipped x edges cut a cell into 2k + 1 segments.  A rectangle covers
    a segment when the segment's midpoint lies on it; the z spans that cover
    a segment are merged in order, and each segment adds its covered length
    times its width, left to right.  A rectangle clipped away puts its edges
    on the cell's right edge, so its segments have width 0.0 and add 0.0,
    which is exact.  Cells run along the last axis, so that every NumPy
    operation runs over many cells at once."""
    x0, x1, z0, z1 = np.maximum(x0, cx0), np.minimum(x1, cx1), np.maximum(z0, cz0), np.minimum(z1, cz1)
    live = (x1 > x0) & (z1 > z0)
    edges = np.vstack([cx0, np.where(live, x0, cx1), np.where(live, x1, cx1), cx1])
    if len(x0) > 1:  # one rectangle's edges are in order already
        edges.sort(axis=0)
    left, right = edges[:-1], edges[1:]
    mid = 0.5 * (left + right)
    # per rectangle, the segments whose midpoint lies on it: (segment, cell) each
    covers = (live[r] & (x0[r] <= mid) & (mid <= x1[r]) for r in range(len(x0)))
    # the first rectangle starts the merged span where it covers a segment;
    # elsewhere the span is empty at the cell's lower edge, and adds 0.0
    on = next(covers)
    lo, hi = np.where(on, z0[0], cz0), np.where(on, z1[0], cz0)
    covered = 0.0
    for r, on in enumerate(covers, 1):
        gap = on & (z0[r] > hi)
        covered = np.where(gap, covered + (hi - lo), covered)
        lo = np.where(gap, z0[r], lo)
        hi = np.where(on, np.maximum(hi, z1[r]), hi)
    strips = (covered + (hi - lo)) * (right - left)
    area = strips[0]
    for strip in strips[1:]:
        area = area + strip
    return area


def _rasterize_axis_aligned(rects: np.ndarray, grid: BevGrid) -> None:
    """Fill the cells of the (4, N) rectangle edges x0, x1, z0, z1."""
    x_min, _, z_min, _ = grid.extent
    dw, dd = grid.cell_width, grid.cell_depth
    rects = rects[:, np.argsort(rects[2], kind="stable")]  # by z0, so each cell's rectangles come in that order
    origin, side, shape = np.array([[x_min], [z_min]]), np.array([[dw], [dd]]), np.array([[grid.cols], [grid.rows]])
    # each rectangle's window of (column, row) cells, bounded as floats so that
    # a bound far off the grid, even +-inf, still casts to int
    start = np.clip(np.floor((rects[0::2] - origin) / side), 0, shape)
    stop = np.clip(np.ceil((rects[1::2] - origin) / side), -1, shape - 1)
    j0, i0 = start.astype(np.intp)
    # a window's columns and rows; none where it misses the grid
    width, height = np.where(rects[1::2] > origin, stop - start + 1, 0).clip(0).astype(np.intp)
    # every (cell, rectangle) pair of the windows, grouped by cell
    size = width * height
    rect = np.repeat(np.arange(len(size)), size)
    row, col = np.divmod(np.arange(len(rect)) - np.repeat(np.cumsum(size) - size, size), width[rect])
    cell = (i0 * grid.cols + j0)[rect] + row * grid.cols + col
    order = np.argsort(cell, kind="stable")
    cell, rect = cell[order], rect[order]
    starts = np.ones(len(cell), dtype=bool)  # where each cell's run of pairs starts
    starts[1:] = cell[1:] != cell[:-1]
    bounds = np.append(np.flatnonzero(starts), len(cell))
    first, count = bounds[:-1], np.diff(bounds)
    cells = grid.cells.reshape(-1)
    for k in np.flatnonzero(np.bincount(count)).tolist():  # the cells that k rectangles' windows cover
        at = first[count == k]
        x0, x1, z0, z1 = rects.take(rect[at + np.arange(k)[:, None]], axis=1)
        i, j = np.divmod(cell[at], grid.cols)
        cx0, cz0 = x_min + j * dw, z_min + i * dd
        area = _union_areas(x0, x1, z0, z1, cx0, cx0 + dw, cz0, cz0 + dd)
        cells[cell[at]] = np.minimum(area / (dw * dd), 1.0)


def _subsample_window(center: float, half: float, lo: float, step: float, count: int) -> tuple[int, int]:
    """Cell range [c0, c1) whose subsamples (count per axis, centered at
    lo + (k + 0.5) step) include every one within ``half`` of ``center``,
    padded by two subsamples against rounding."""
    first = min(max((center - half - lo) / step - 2.0, 0.0), count)
    last = min(max((center + half - lo) / step + 2.0, 0.0), count)
    n = _SUPERSAMPLE
    return int(math.floor(first)) // n, -(-int(math.ceil(last)) // n)


def _rasterize_supersampled(keys, sines, cosines, grid: BevGrid) -> None:
    x_min, x_max, z_min, z_max = grid.extent
    n = _SUPERSAMPLE
    nx, nz = grid.cols * n, grid.rows * n
    xs = x_min + (np.arange(nx) + 0.5) * (x_max - x_min) / nx
    zs = z_min + (np.arange(nz) + 0.5) * (z_max - z_min) / nz
    windows = []
    for (x, z, l, w, _), s, c in zip(keys, sines, cosines):
        # test only the subsamples of the cells the footprint's bounding box meets
        c0, c1 = _subsample_window(x, 0.5 * (l * abs(s) + w * abs(c)), x_min, (x_max - x_min) / nx, nx)
        r0, r1 = _subsample_window(z, 0.5 * (l * abs(c) + w * abs(s)), z_min, (z_max - z_min) / nz, nz)
        if c0 < c1 and r0 < r1:
            windows.append((r0, r1, c0, c1, x, z, l, w, s, c))
    # windows whose rows overlap share a band; bands share no row, so each
    # cell's subsamples see every footprint over it in one band's mask
    bands = []  # [first row, stop row, windows]
    for win in sorted(windows, key=lambda win: win[0]):
        if bands and win[0] < bands[-1][1]:
            bands[-1][1] = max(bands[-1][1], win[1])
            bands[-1][2].append(win)
        else:
            bands.append([win[0], win[1], [win]])
    for b0, stop, band in bands:
        covered = np.zeros(((stop - b0) * n, nx), dtype=bool)
        for r0, r1, c0, c1, x, z, l, w, s, c in band:
            dx = xs[None, c0 * n : c1 * n] - x
            dz = zs[r0 * n : r1 * n, None] - z
            along = dx * s + dz * c
            across = dx * c - dz * s
            covered[(r0 - b0) * n : (r1 - b0) * n, c0 * n : c1 * n] |= (
                (np.abs(along) <= 0.5 * l) & (np.abs(across) <= 0.5 * w))
        for r0, r1, c0, c1, *_ in band:
            block = covered[(r0 - b0) * n : (r1 - b0) * n, c0 * n : c1 * n]
            grid.cells[r0:r1, c0:c1] = block.reshape(r1 - r0, n, c1 - c0, n).mean(axis=(1, 3))


def rasterize(boxes, template: BevGrid) -> BevGrid:
    """Soft-occupancy rasterization of box footprints onto a fresh grid.

    ``boxes`` is a :class:`BoxArray` or an iterable of :class:`Box3D`; both
    are read as columns.  When every footprint is axis-aligned, each cell
    that a footprint's window of cells covers gets the exact area of the
    union of the footprints in it, all cells at once, grouped by how many
    windows cover them.  Otherwise every footprint is sampled 4x4 per cell,
    in bands of overlapping rows: mask memory is 16 bytes per cell of each
    band's rows.
    """
    grid = template.like()
    keys = boxes.values[:, _BEV_COLUMNS] if isinstance(boxes, BoxArray) else np.array([_bev_key(b) for b in boxes])
    if not len(keys):
        return grid
    x, z, l, w, yaw = keys.T
    sines, cosines = ([f(v) for v in yaw.tolist()] for f in (math.sin, math.cos))
    along_z, along_x = np.abs(sines) < _AXIS_EPS, np.abs(cosines) < _AXIS_EPS
    if (along_z | along_x).all():
        dx, dz = 0.5 * np.where(along_z, w, l), 0.5 * np.where(along_z, l, w)
        with np.errstate(over="ignore"):  # an edge or window bound far off the grid may round to +-inf
            _rasterize_axis_aligned(np.array([x - dx, x + dx, z - dz, z + dz]), grid)
    else:
        _rasterize_supersampled(keys.tolist(), sines, cosines, grid)
    return grid


def grid_dice(pred: BevGrid, gt: BevGrid) -> float:
    """Soft dice coefficient 2.sum(p*g) / (sum(p) + sum(g)) in [0, 1].

    Two empty grids are a perfect match (coefficient 1).  The product sum is
    NumPy's own ``einsum`` loop, not BLAS, so its bits do not depend on the
    BLAS thread count, and it needs no grid-sized temporary.
    """
    if pred.cells.shape != gt.cells.shape or pred.extent != gt.extent:
        raise ValueError("grid dimension/extent mismatch")
    denom = float(pred.cells.sum() + gt.cells.sum())
    if denom == 0.0:
        return 1.0
    return float(2.0 * np.einsum("ij,ij->", pred.cells, gt.cells) / denom)
