"""Box and grid geometry: along-ray overlap, rotated BEV/3D IoU, rasterization,
and grid-level soft dice.

Conventions: the BEV plane is x (lateral) by z (depth); elevation is y.
``yaw = 0`` points the box length axis along +z (the camera ray), so the
length direction in the (x, z) plane is ``(sin yaw, cos yaw)``.  Grids are
row-major with rows spanning z and columns spanning x.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Box3D",
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
            raise ValueError("box values must be finite and dimensions > 0")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    def footprint(self) -> list[tuple[float, float]]:
        """Counter-clockwise corners of the BEV footprint in the (x, z) plane."""
        s, c = math.sin(self.yaw), math.cos(self.yaw)
        # length axis u = (s, c), width axis v = (c, -s)
        hl, hw = 0.5 * self.l, 0.5 * self.w
        pts = []
        for a, b in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
            pts.append((self.x + a * s + b * c, self.z + a * c - b * s))
        return pts

    def max_dim(self) -> float:
        return max(self.l, self.w, self.h)

    def with_score(self, score: float | None) -> "Box3D":
        return replace(self, score=score)


@dataclass(frozen=True)
class RayObject:
    """An interval along a camera ray: center depth plus extent."""

    depth: float
    length: float

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ValueError("length must be > 0")


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
        if self.cells is None:
            self.cells = np.zeros((self.rows, self.cols))
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
        return BevGrid(self.rows, self.cols, self.extent, np.zeros((self.rows, self.cols)))


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


def _footprint_intersection_area(a: Box3D, b: Box3D) -> float:
    # canonical operand order makes the clipping result exactly symmetric
    ka = (a.x, a.z, a.l, a.w, a.yaw)
    kb = (b.x, b.z, b.l, b.w, b.yaw)
    if kb < ka:
        a, b = b, a
    poly = a.footprint()
    clip = b.footprint()
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
    inter = _footprint_intersection_area(a, b)
    if inter <= 0.0:
        return 0.0
    union = a.l * a.w + b.l * b.w - inter
    return min(1.0, inter / union) if union > 0 else 0.0


def iou3d(a: Box3D, b: Box3D) -> float:
    """Rotated 3D IoU: BEV intersection area times vertical overlap along y."""
    inter_area = _footprint_intersection_area(a, b)
    if inter_area <= 0.0:
        return 0.0
    y_overlap = _interval_overlap(a.y, a.h, b.y, b.h)
    if y_overlap <= 0.0:
        return 0.0
    inter_vol = inter_area * y_overlap
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter_vol
    return min(1.0, inter_vol / union) if union > 0 else 0.0


_AXIS_EPS = 1e-9
_SUPERSAMPLE = 4


def _axis_aligned_rect(box: Box3D) -> tuple[float, float, float, float] | None:
    """(x_lo, x_hi, z_lo, z_hi) when the footprint is axis-aligned, else None."""
    s, c = math.sin(box.yaw), math.cos(box.yaw)
    if abs(s) < _AXIS_EPS:  # length along z
        dx, dz = 0.5 * box.w, 0.5 * box.l
    elif abs(c) < _AXIS_EPS:  # length along x
        dx, dz = 0.5 * box.l, 0.5 * box.w
    else:
        return None
    return (box.x - dx, box.x + dx, box.z - dz, box.z + dz)


def _union_area_in_cell(rects, cx0, cx1, cz0, cz1) -> float:
    """Exact union area of axis-aligned rectangles clipped to one cell."""
    clipped = []
    xs = {cx0, cx1}
    for (x0, x1, z0, z1) in rects:
        x0, x1 = max(x0, cx0), min(x1, cx1)
        z0, z1 = max(z0, cz0), min(z1, cz1)
        if x1 > x0 and z1 > z0:
            clipped.append((x0, x1, z0, z1))
            xs.add(x0)
            xs.add(x1)
    if not clipped:
        return 0.0
    xs = sorted(xs)
    area = 0.0
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        spans = sorted((z0, z1) for (x0, x1, z0, z1) in clipped if x0 <= mid <= x1)
        covered = 0.0
        cur_lo = cur_hi = None
        for z0, z1 in spans:
            if cur_lo is None:
                cur_lo, cur_hi = z0, z1
            elif z0 <= cur_hi:
                cur_hi = max(cur_hi, z1)
            else:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = z0, z1
        if cur_lo is not None:
            covered += cur_hi - cur_lo
        area += covered * (b - a)
    return area


def _rasterize_axis_aligned(rects, grid: BevGrid) -> None:
    x_min, _, z_min, _ = grid.extent
    dw, dd = grid.cell_width, grid.cell_depth
    per_cell: dict[tuple[int, int], list] = defaultdict(list)
    for rect in rects:
        x0, x1, z0, z1 = rect
        j0 = max(0, int(math.floor((x0 - x_min) / dw)))
        j1 = min(grid.cols - 1, int(math.ceil((x1 - x_min) / dw)))
        i0 = max(0, int(math.floor((z0 - z_min) / dd)))
        i1 = min(grid.rows - 1, int(math.ceil((z1 - z_min) / dd)))
        if x1 <= x_min or z1 <= z_min:
            continue
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                per_cell[(i, j)].append(rect)
    cell_area = dw * dd
    for (i, j), rlist in per_cell.items():
        cx0 = x_min + j * dw
        cz0 = z_min + i * dd
        grid.cells[i, j] = _union_area_in_cell(rlist, cx0, cx0 + dw, cz0, cz0 + dd) / cell_area
    np.clip(grid.cells, 0.0, 1.0, out=grid.cells)


def _rasterize_supersampled(boxes, grid: BevGrid) -> None:
    x_min, x_max, z_min, z_max = grid.extent
    n = _SUPERSAMPLE
    xs = x_min + (np.arange(grid.cols * n) + 0.5) * (x_max - x_min) / (grid.cols * n)
    zs = z_min + (np.arange(grid.rows * n) + 0.5) * (z_max - z_min) / (grid.rows * n)
    X, Z = np.meshgrid(xs, zs)
    covered = np.zeros(X.shape, dtype=bool)
    for box in boxes:
        s, c = math.sin(box.yaw), math.cos(box.yaw)
        dx = X - box.x
        dz = Z - box.z
        along = dx * s + dz * c
        across = dx * c - dz * s
        covered |= (np.abs(along) <= 0.5 * box.l) & (np.abs(across) <= 0.5 * box.w)
    grid.cells = covered.reshape(grid.rows, n, grid.cols, n).mean(axis=(1, 3))


def rasterize(boxes, template: BevGrid) -> BevGrid:
    """Soft-occupancy rasterization of box footprints onto a fresh grid.

    Axis-aligned inputs take an exact interval-arithmetic path; rotated boxes
    fall back to 4x4 regular supersampling per cell.
    """
    grid = template.like()
    boxes = list(boxes)
    if not boxes:
        return grid
    rects = [_axis_aligned_rect(b) for b in boxes]
    if all(r is not None for r in rects):
        _rasterize_axis_aligned(rects, grid)
    else:
        _rasterize_supersampled(boxes, grid)
    return grid


def grid_dice(pred: BevGrid, gt: BevGrid) -> float:
    """Soft dice coefficient 2.sum(p*g) / (sum(p) + sum(g)) in [0, 1].

    Two empty grids are a perfect match (coefficient 1).
    """
    if pred.cells.shape != gt.cells.shape or pred.extent != gt.extent:
        raise ValueError("grid dimension/extent mismatch")
    denom = float(pred.cells.sum() + gt.cells.sum())
    if denom == 0.0:
        return 1.0
    return float(2.0 * np.sum(pred.cells * gt.cells) / denom)
