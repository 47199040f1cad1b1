import itertools
import math
import struct
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bevlab.geometry import (
    BevGrid,
    Box3D,
    BoxArray,
    RayObject,
    bev_iou,
    box_fault,
    grid_dice,
    iou3d,
    rasterize,
    ray_dice_coefficient,
    ray_iou,
)
from bevlab import gridio
from bevlab.geometry import _AXIS_EPS, _footprint_intersection_area, _footprint_overlaps


def make_box(x=0.0, z=0.0, l=4.0, w=2.0, h=1.5, yaw=0.0, y=0.0, **kw):
    return Box3D(x=x, y=y, z=z, l=l, w=w, h=h, yaw=yaw, **kw)


boxes_strategy = st.builds(
    make_box,
    x=st.floats(-10, 10),
    z=st.floats(-10, 10),
    l=st.floats(0.5, 8),
    w=st.floats(0.5, 8),
    h=st.floats(0.5, 4),
    yaw=st.floats(-math.pi, math.pi),
)


class TestRayOverlap:
    def test_dice_perfect(self):
        assert ray_dice_coefficient(RayObject(10, 2), RayObject(10, 2)) == 1.0

    def test_dice_touching(self):
        assert ray_dice_coefficient(RayObject(10, 2), RayObject(12, 2)) == 0.0

    def test_dice_half_meter_shift(self):
        assert ray_dice_coefficient(RayObject(10, 2), RayObject(10.5, 2)) == pytest.approx(0.75)

    def test_iou_identical(self):
        assert ray_iou(RayObject(10, 4), RayObject(10, 4)) == 1.0

    def test_iou_disjoint(self):
        assert ray_iou(RayObject(10, 4), RayObject(14, 4)) == 0.0

    def test_iou_shift_one(self):
        # intersection 3, union 5 by interval arithmetic
        assert ray_iou(RayObject(10, 4), RayObject(11, 4)) == pytest.approx(0.6)

    def test_unequal_lengths_general_formula(self):
        # [9,11] vs [10,14]: intersection 1, union 5, sizes sum 6
        assert ray_iou(RayObject(10, 2), RayObject(12, 4)) == pytest.approx(0.2)
        assert ray_dice_coefficient(RayObject(10, 2), RayObject(12, 4)) == pytest.approx(1 / 3)

    @given(st.floats(-3, 3), st.floats(0.5, 4))
    @settings(max_examples=200)
    def test_iou_below_dice(self, eta, ell):
        gt = RayObject(10.0, ell)
        pred = RayObject(10.0 + eta, ell)
        assert ray_iou(gt, pred) <= ray_dice_coefficient(gt, pred) + 1e-12


class TestBevIou:
    def test_identical(self):
        box = make_box(yaw=0.3)
        assert bev_iou(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_far_apart(self):
        assert bev_iou(make_box(x=0), make_box(x=100)) == 0.0

    def test_axis_aligned_half_shift(self):
        a = make_box(l=1, w=1)
        b = make_box(l=1, w=1, x=0.5)
        assert bev_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_rotated_pair_analytic(self):
        # unit square vs the same square rotated 45 degrees: octagon overlap
        a = make_box(l=1, w=1)
        b = make_box(l=1, w=1, yaw=math.pi / 4)
        inter = 2 * (math.sqrt(2) - 1)
        assert bev_iou(a, b) == pytest.approx(inter / (2 - inter), abs=1e-12)

    @given(boxes_strategy, boxes_strategy)
    @settings(max_examples=200)
    def test_symmetry_and_range(self, a, b):
        ab = bev_iou(a, b)
        assert ab == bev_iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(
        boxes_strategy,
        boxes_strategy,
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=150)
    def test_rigid_motion_invariance(self, a, b, tx, tz, angle):
        def move(box):
            # yaw is measured from +z, so adding `angle` to yaw pairs with
            # rotating positions by [[c, s], [-s, c]] in the (x, z) plane
            c, s = math.cos(angle), math.sin(angle)
            x = c * box.x + s * box.z + tx
            z = -s * box.x + c * box.z + tz
            return Box3D(x=x, y=box.y, z=z, l=box.l, w=box.w, h=box.h, yaw=box.yaw + angle)

        assert bev_iou(move(a), move(b)) == pytest.approx(bev_iou(a, b), abs=1e-9)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = make_box(
                x=rng.uniform(-3, 3), z=rng.uniform(-3, 3),
                l=rng.uniform(1, 6), w=rng.uniform(1, 6),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            b = make_box(
                x=rng.uniform(-3, 3), z=rng.uniform(-3, 3),
                l=rng.uniform(1, 6), w=rng.uniform(1, 6),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            assert abs(bev_iou(a, b) - _mc_iou(a, b, rng, 10**5)) <= 0.01


def _point_in_footprint(box, xs, zs):
    s, c = math.sin(box.yaw), math.cos(box.yaw)
    dx, dz = xs - box.x, zs - box.z
    along = dx * s + dz * c
    across = dx * c - dz * s
    return (np.abs(along) <= box.l / 2) & (np.abs(across) <= box.w / 2)


def _mc_iou(a, b, rng, n):
    """Point-sampling IoU estimate over the union's bounding box."""
    corners = np.array(a.footprint() + b.footprint())
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    xs = rng.uniform(lo[0], hi[0], n)
    zs = rng.uniform(lo[1], hi[1], n)
    in_a = _point_in_footprint(a, xs, zs)
    in_b = _point_in_footprint(b, xs, zs)
    union = np.sum(in_a | in_b)
    return np.sum(in_a & in_b) / union if union else 0.0


def _scalar_overlaps(a, b):
    return np.array([_footprint_intersection_area(tuple(ka), tuple(kb))
                     for ka, kb in zip(a[:, [0, 2, 3, 4, 6]].tolist(), b[:, [0, 2, 3, 4, 6]].tolist())])


def _lattice_values(rng, n):
    """Box value rows on a coarse lattice: shared edges, collinear sides,
    equal centres and right-angle yaws are common."""
    return np.column_stack([
        rng.integers(-4, 5, n) * 0.5, np.zeros(n), rng.integers(-4, 5, n) * 0.5, rng.integers(1, 6, n) * 1.0,
        rng.integers(1, 4, n) * 1.0, np.ones(n), rng.integers(-3, 5, n) * (math.pi / 4),
    ])


class TestBatchedClipping:
    """_footprint_overlaps clips all rows at once; it must equal the scalar
    kernel bit for bit."""

    def assert_bitwise(self, a, b):
        got = _footprint_overlaps(a, b, np.arange(len(a)))
        assert np.array_equal(got.view(np.int64), _scalar_overlaps(a, b).view(np.int64))

    def test_lattice_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            a, b = _lattice_values(rng, 2000), _lattice_values(rng, 2000)
            self.assert_bitwise(a, b)
            self.assert_bitwise(b, a)
            self.assert_bitwise(a, a)

    def test_continuous_pairs(self):
        rng = np.random.default_rng(47)
        n = 5000
        a = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(0, 2, n), rng.uniform(-3, 3, n),
                             rng.uniform(0.5, 6, n), rng.uniform(0.5, 3, n), rng.uniform(1, 2, n),
                             rng.uniform(-math.pi, math.pi, n)])
        b = a.copy()
        b[:, [0, 2]] += rng.normal(0, 1, (n, 2))
        b[:, 6] += rng.normal(0, 0.5, n)
        self.assert_bitwise(a, b)

    @given(st.lists(st.tuples(boxes_strategy, boxes_strategy), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_hypothesis_pairs(self, pairs):
        fields = lambda box: (box.x, box.y, box.z, box.l, box.w, box.h, box.yaw)  # noqa: E731
        self.assert_bitwise(np.array([fields(a) for a, _ in pairs]), np.array([fields(b) for _, b in pairs]))

    def test_rows_not_listed_are_zero(self):
        rng = np.random.default_rng(53)
        a, b = _lattice_values(rng, 50), _lattice_values(rng, 50)
        rows = np.flatnonzero(rng.random(50) < 0.5)
        got = _footprint_overlaps(a, b, rows)
        want = np.zeros(50)
        want[rows] = _scalar_overlaps(a[rows], b[rows])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert _footprint_overlaps(a, b, np.zeros(0, dtype=np.intp)).tolist() == [0.0] * 50


class TestIou3d:
    def test_identical(self):
        box = make_box(yaw=1.0)
        assert iou3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_vertical_disjoint(self):
        a = make_box(y=0.0, h=1.0)
        b = make_box(y=5.0, h=1.0)
        assert iou3d(a, b) == 0.0

    def test_unit_cubes_half_shift(self):
        a = make_box(l=1, w=1, h=1)
        b = make_box(l=1, w=1, h=1, x=0.5)
        assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_partial_vertical_overlap(self):
        a = make_box(l=1, w=1, h=1, y=0.0)
        b = make_box(l=1, w=1, h=1, y=0.5)
        assert iou3d(a, b) == pytest.approx(0.5 / 1.5, abs=1e-12)

    @given(boxes_strategy, boxes_strategy)
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert iou3d(a, b) == iou3d(b, a)


class TestBox3D:
    def test_yaw_normalized(self):
        assert make_box(yaw=3 * math.pi).yaw == pytest.approx(math.pi)
        assert -math.pi < make_box(yaw=-math.pi).yaw <= math.pi

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            make_box(l=0.0)

    def test_invalid_score(self):
        with pytest.raises(ValueError):
            make_box(score=1.5)

    @pytest.mark.parametrize("field", ["x", "y", "z", "l", "w", "h", "yaw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_box(**{field: value})

    @given(st.lists(st.tuples(st.lists(st.sampled_from([1.0, -2.0, 0.0, math.nan, math.inf, -math.inf]),
                                       min_size=7, max_size=7),
                              st.sampled_from([None, 0.0, 0.5, 1.0, 1.5, -0.1, math.inf])), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_box_fault_is_the_first_box3d_error(self, rows):
        want = None
        for i, (values, score) in enumerate(rows):
            try:
                Box3D(*values, score=score)
            except ValueError as exc:
                want = (i, str(exc))
                break
        values = np.array([v for v, _ in rows], dtype=np.float64).reshape(-1, 7)
        scores = np.array([math.nan if s is None else s for _, s in rows], dtype=np.float64)
        assert box_fault(values, scores) == want


def grid_1d(cells=1000, depth=50.0):
    return BevGrid(rows=cells, cols=1, extent=(-1.0, 1.0, 0.0, depth))


def ray_box(z, ell):
    # axis-aligned box spanning the full lateral extent of grid_1d
    return Box3D(x=0.0, y=0.0, z=z, l=ell, w=2.0, h=1.0, yaw=0.0)


class TestRasterize:
    def test_empty(self):
        grid = rasterize([], grid_1d(10))
        assert not grid.cells.any()

    def test_full_extent_box(self):
        template = BevGrid(rows=8, cols=8, extent=(-2, 2, 0, 4))
        box = Box3D(x=0, y=0, z=2, l=4, w=4, h=1, yaw=0)
        grid = rasterize([box], template)
        assert np.allclose(grid.cells, 1.0)

    def test_1d_mass(self):
        grid = rasterize([ray_box(25.0, 2.0)], grid_1d())
        # 2 m of coverage over 50 m on 1000 cells: mass 40
        assert grid.cells.sum() == pytest.approx(40.0, abs=1.0)
        interior = grid.cells[(grid.cells > 0) & (grid.cells < 1)]
        assert interior.size <= 2  # only boundary cells fractional on the exact path

    def test_outside_extent_ignored(self):
        grid = rasterize([ray_box(500.0, 2.0)], grid_1d())
        assert not grid.cells.any()

    @pytest.mark.parametrize("axis", ["x", "z"])
    @pytest.mark.parametrize("far", [1.7e308, -1.7e308])
    def test_box_far_off_a_fine_grid(self, axis, far):
        # the window bounds divide to +-inf on 1 mm cells; with 1e308 m sides an edge rounds to +-inf too
        template = BevGrid(rows=1000, cols=1000, extent=(0.0, 1.0, 0.0, 10.0))
        for yaw, side in itertools.product((0.0, math.pi / 2, 0.3), (2.0, 1e308)):
            box = make_box(**{"x": 0.5, "z": 5.0, axis: far}, yaw=yaw, l=side, w=side)
            assert not rasterize([box], template).cells.any()
            assert not rasterize(BoxArray.from_boxes([box]), template).cells.any()

    def test_rotated_supersampled_close_to_exact_area(self):
        template = BevGrid(rows=100, cols=100, extent=(-5, 5, -5, 5))
        box = Box3D(x=0, y=0, z=0, l=4, w=2, h=1, yaw=0.6)
        grid = rasterize([box], template)
        cell_area = grid.cell_width * grid.cell_depth
        assert grid.cells.sum() * cell_area == pytest.approx(8.0, rel=0.02)

    def test_overlapping_boxes_union_not_sum(self):
        grid = rasterize([ray_box(25.0, 2.0), ray_box(25.5, 2.0)], grid_1d())
        # union is [24, 26.5]: 2.5 m -> 50 cells
        assert grid.cells.sum() == pytest.approx(50.0, abs=1.0)
        assert grid.cells.max() <= 1.0


# The per-cell rasterizers as they were before windowing, kept as references
# with their scalar helpers: the columnar paths must give the same grid bit for bit.
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


def reference_axis_aligned(rects, grid):
    x_min, _, z_min, _ = grid.extent
    dw, dd = grid.cell_width, grid.cell_depth
    per_cell = defaultdict(list)
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


def reference_supersampled(boxes, grid):
    x_min, x_max, z_min, z_max = grid.extent
    n = 4
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


def reference_rasterize(boxes, template):
    grid = template.like()
    rects = [_axis_aligned_rect(b) for b in boxes]
    if all(r is not None for r in rects):
        reference_axis_aligned(rects, grid)
    else:
        reference_supersampled(boxes, grid)
    return grid


ODD_GRID = BevGrid(rows=37, cols=23, extent=(-7.3, 11.1, 2.2, 40.7))  # cell sides not representable


class TestRasterizeMatchesReference:
    def assert_same(self, boxes, template=ODD_GRID):
        got = rasterize(boxes, template).cells
        assert np.array_equal(got, reference_rasterize(boxes, template).cells)
        assert np.array_equal(rasterize(BoxArray.from_boxes(boxes), template).cells, got)
        return got

    @pytest.mark.parametrize("count", [600, 3000])
    def test_random_overlapping_boxes(self, count):
        # 1-5 m boxes on 0.5 m cells, some straddling the extent: up to 6 and 15 windows over a cell
        rng = np.random.default_rng(count)
        template = BevGrid(rows=200, cols=200, extent=(-50.0, 50.0, 0.0, 100.0))
        boxes = [make_box(x=float(rng.uniform(-52, 52)), z=float(rng.uniform(-2, 102)), l=float(rng.uniform(1, 5)),
                          w=float(rng.uniform(1, 5)), yaw=float(rng.choice([0.0, math.pi / 2, -math.pi / 2, math.pi])))
                 for _ in range(count)]
        assert self.assert_same(boxes, template).any()

    def test_edges_on_cell_lines_stacked(self):
        # every edge on a cell line of the first grid, up to 33 windows over a cell
        template = BevGrid(rows=20, cols=20, extent=(0.0, 10.0, 0.0, 10.0))
        rng = np.random.default_rng(59)
        for count in (5, 50, 200):
            x0, z0 = 0.5 * rng.integers(-2, 20, (2, count))
            x1, z1 = x0 + 0.5 * rng.integers(1, 8, count), z0 + 0.5 * rng.integers(1, 8, count)
            boxes = [make_box(x=0.5 * (a + b), z=0.5 * (c + d), w=b - a, l=d - c) for a, b, c, d in zip(x0, x1, z0, z1)]
            self.assert_same(boxes, template)
            self.assert_same(boxes)

    def test_box_array_builds_no_box(self, monkeypatch):
        boxes = [make_box(x=1.0, z=20.0), make_box(x=2.0, z=21.0, yaw=math.pi / 2)]
        arrays = [BoxArray.from_boxes(boxes), BoxArray.from_boxes(boxes + [make_box(z=25.0, yaw=0.4)])]
        want = [rasterize(array.boxes(), ODD_GRID).cells for array in arrays]

        def no_box(self):
            raise AssertionError("rasterize built a Box3D")

        monkeypatch.setattr(Box3D, "__post_init__", no_box)
        for array, cells in zip(arrays, want):  # the exact path, then the supersampled one
            assert np.array_equal(rasterize(array, ODD_GRID).cells, cells) and cells.any()

    def test_rotated_straddling_extent(self):
        rng = np.random.default_rng(41)
        x_min, x_max, z_min, z_max = ODD_GRID.extent
        for _ in range(20):
            boxes = [
                make_box(x=float(rng.choice([x_min, x_max, rng.uniform(x_min, x_max)]) + rng.normal(0, 2)),
                         z=float(rng.choice([z_min, z_max, rng.uniform(z_min, z_max)]) + rng.normal(0, 2)),
                         l=float(rng.uniform(0.5, 14)), w=float(rng.uniform(0.3, 3)),
                         yaw=float(rng.uniform(-math.pi, math.pi)))
                for _ in range(rng.integers(1, 5))
            ]
            self.assert_same(boxes)

    @pytest.mark.parametrize("yaw", [0.0, math.pi / 2, 0.7])
    def test_boxes_fully_outside(self, yaw):
        x_min, x_max, z_min, z_max = ODD_GRID.extent
        boxes = [make_box(x=x_min - 5, z=20.0, yaw=yaw), make_box(x=x_max + 5, z=20.0, yaw=yaw),
                 make_box(x=0.0, z=z_min - 5, yaw=yaw), make_box(x=0.0, z=z_max + 5, yaw=yaw)]
        assert not self.assert_same(boxes).any()

    def test_touching_and_overlapping_axis_aligned(self):
        # edges on cell boundaries, on one another and one ulp off a boundary
        template = BevGrid(rows=20, cols=20, extent=(0.0, 10.0, 0.0, 10.0))
        boxes = [make_box(x=2.0, z=3.0, l=2.0, w=2.0), make_box(x=4.0, z=3.0, l=2.0, w=2.0),
                 make_box(x=3.0, z=4.0, l=2.0, w=1.0, yaw=math.pi / 2), make_box(x=7.25, z=7.25, l=1.5, w=0.5)]
        self.assert_same(boxes, template)
        rng = np.random.default_rng(43)
        for _ in range(30):
            boxes = []
            for _ in range(rng.integers(1, 6)):
                x0, z0 = (float(np.nextafter(v, v + rng.choice([-1.0, 1.0]))) if rng.random() < 0.5 else v
                          for v in (0.5 * rng.integers(0, 18), 0.5 * rng.integers(0, 18)))
                x1, z1 = x0 + 0.5 * rng.integers(1, 6), z0 + 0.5 * rng.integers(1, 6)
                boxes.append(make_box(x=0.5 * (x0 + x1), z=0.5 * (z0 + z1), w=x1 - x0, l=z1 - z0))
            self.assert_same(boxes, template)
            self.assert_same(boxes)

    def test_sliver_midpoint_on_the_rectangle(self):
        # the x segment between a cell edge and a rectangle edge one ulp away
        # counts when its midpoint rounds onto the rectangle, which depends
        # on the edge's last mantissa bit: try every cell edge, on both sides
        x_min, dw = ODD_GRID.extent[0], ODD_GRID.cell_width
        for j in range(1, ODD_GRID.cols):
            edge = x_min + j * dw
            for x0 in (float(np.nextafter(edge, -np.inf)), float(np.nextafter(edge, np.inf))):
                w = 1.5 * dw
                self.assert_same([make_box(x=x0 + 0.5 * w, z=20.0, w=w, l=1.0)])
                self.assert_same([make_box(x=x0 - 0.5 * w, z=20.0, w=w, l=1.0)])

    def test_windows_meeting_at_a_corner_or_the_grid_edge(self):
        # a window reaches the cell past each rectangle edge, so unit squares
        # on a diagonal share only their corner cell
        template = BevGrid(rows=10, cols=10, extent=(0.0, 10.0, 0.0, 10.0))
        corner = [make_box(x=0.5, z=0.5, l=1.0, w=1.0), make_box(x=1.5, z=1.5, l=1.0, w=1.0),
                  make_box(x=4.5, z=0.5, l=1.0, w=1.0), make_box(x=3.5, z=1.5, l=1.0, w=1.0)]
        # windows cut off at the last row or column, or at the first row, meeting only there
        edge = [make_box(x=9.5, z=9.5, l=1.0, w=1.0), make_box(x=9.75, z=7.5, l=3.0, w=0.5),
                make_box(x=11.0, z=4.0, l=2.0, w=3.0), make_box(x=11.0, z=5.5, l=1.0, w=3.0),
                make_box(x=5.0, z=-1.0, l=3.0, w=1.0), make_box(x=6.0, z=-1.0, l=3.0, w=1.0)]
        for boxes in (corner, edge, corner + edge):
            assert self.assert_same(boxes, template).any()
            self.assert_same(boxes)
        rng = np.random.default_rng(47)
        for _ in range(30):  # whole-cell squares on a lattice: most windows meet at a corner or an edge
            boxes = [make_box(x=float(rng.integers(-1, 11)) + 0.5, z=float(rng.integers(-1, 11)) + 0.5,
                              l=float(rng.integers(1, 3)), w=float(rng.integers(1, 3)))
                     for _ in range(rng.integers(2, 12))]
            self.assert_same(boxes, template)

    def test_many_windows_stacked_deep(self):
        # hundreds of windows, many covering the same cells, some wholly off the grid
        rng = np.random.default_rng(53)
        x_min, x_max, z_min, z_max = ODD_GRID.extent
        for count in (2, 40, 300):
            boxes = [make_box(x=float(rng.uniform(x_min - 3, x_max + 3)), z=float(rng.uniform(z_min - 3, z_max + 3)),
                              l=float(rng.uniform(0.2, 6)), w=float(rng.uniform(0.2, 6)))
                     for _ in range(count)]
            assert self.assert_same(boxes).any()
        self.assert_same([make_box(x=x_max + 5.0, z=z_max + 5.0)])  # no window at all
        # 257 different windows over the same cells: a count kept in one byte would wrap to 1
        template = BevGrid(rows=10, cols=10, extent=(0.0, 10.0, 0.0, 10.0))
        assert self.assert_same([make_box(x=0.25 + k / 1024, z=0.5, l=0.5, w=0.5) for k in range(257)], template).any()


def exact_union_in_cell(rects, cx0, cx1, cz0, cz1) -> Fraction:
    """Exact area of the union of rectangles (x0, x1, z0, z1) within one cell,
    all in Fractions: compress the clipped edges into a lattice and add up
    the lattice rectangles that some rectangle covers."""
    clipped = [(max(x0, cx0), min(x1, cx1), max(z0, cz0), min(z1, cz1)) for x0, x1, z0, z1 in rects]
    clipped = [r for r in clipped if r[1] > r[0] and r[3] > r[2]]
    xs = sorted({e for r in clipped for e in r[:2]})
    zs = sorted({e for r in clipped for e in r[2:]})
    area = Fraction(0)
    for xa, xb in zip(xs, xs[1:]):
        for za, zb in zip(zs, zs[1:]):
            if any(x0 <= xa and xb <= x1 and z0 <= za and zb <= z1 for x0, x1, z0, z1 in clipped):
                area += (xb - xa) * (zb - za)
    return area


# A grid with whole-meter cells, whose lines and rectangle edges are exact
# floats, and one whose cell sides are not representable.
ORACLE_GRIDS = [BevGrid(rows=5, cols=7, extent=(-3.0, 4.0, 1.5, 6.5)),
                BevGrid(rows=6, cols=5, extent=(-3.3, 4.1, 1.7, 6.2))]


@st.composite
def overlapping_rects(draw, grid):
    """Axis-aligned boxes with edges on cell lines, one ulp off them, at
    random, or shared with an earlier box, and some boxes repeated."""
    x_min, x_max, z_min, z_max = grid.extent
    x_lines = [x_min + j * grid.cell_width for j in range(grid.cols + 1)]
    z_lines = [z_min + i * grid.cell_depth for i in range(grid.rows + 1)]

    def pick(values):
        return values[draw(st.integers(0, len(values) - 1))]

    def edge(lines, earlier, lo, hi):
        kind = draw(st.integers(0, 4 if earlier else 3))
        if kind == 3:
            return draw(st.floats(lo - 1.0, hi + 1.0))
        if kind == 4:
            return pick(earlier)
        line = pick(lines)
        return line if kind == 0 else math.nextafter(line, (-math.inf, math.inf)[kind - 1])

    rects = []
    for _ in range(draw(st.integers(1, 6))):
        if rects and draw(st.integers(0, 3)) == 0:
            rects.append(pick(rects))  # coincident
            continue
        xs = [edge(x_lines, [e for r in rects for e in r[:2]], x_min, x_max) for _ in range(2)]
        zs = [edge(z_lines, [e for r in rects for e in r[2:]], z_min, z_max) for _ in range(2)]
        assume(xs[0] != xs[1] and zs[0] != zs[1])
        rects.append((min(xs), max(xs), min(zs), max(zs)))
    along_x = draw(st.booleans())  # yaw pi/2 puts the length along x
    return [make_box(x=0.5 * (x0 + x1), z=0.5 * (z0 + z1), yaw=math.pi / 2 if along_x else 0.0,
                     l=x1 - x0 if along_x else z1 - z0, w=z1 - z0 if along_x else x1 - x0)
            for x0, x1, z0, z1 in rects]


class TestRasterizeExactUnion:
    """Each axis-aligned cell value against its exact union area, computed in
    Fractions from the boxes' centers and sizes: an oracle that shares no
    code or float operation with rasterize."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=["whole-meter-cells", "odd-cells"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_cells_equal_exact_union_area(self, grid, data):
        boxes = data.draw(overlapping_rects(grid))
        got = rasterize(boxes, grid).cells
        x_min, x_max, z_min, z_max = map(Fraction, grid.extent)
        dw, dd = (x_max - x_min) / grid.cols, (z_max - z_min) / grid.rows
        rects = []
        for b in boxes:
            x, z, side_x, side_z = map(Fraction, (b.x, b.z, *((b.l, b.w) if b.yaw != 0.0 else (b.w, b.l))))
            rects.append((x - side_x / 2, x + side_x / 2, z - side_z / 2, z + side_z / 2))
        # a float edge in a cell is within an ulp of the extent's largest
        # magnitude, so a cell value may be off by a few such ulps per box,
        # over the cell side (1,500 examples per grid erred by at most 26 eps)
        scale = max(map(abs, grid.extent)) / min(grid.cell_width, grid.cell_depth)
        tol = 4 * (len(boxes) + 1) * np.finfo(float).eps * (1.0 + scale)
        for i in range(grid.rows):
            for j in range(grid.cols):
                cx0, cz0 = x_min + j * dw, z_min + i * dd
                want = exact_union_in_cell(rects, cx0, cx0 + dw, cz0, cz0 + dd) / (dw * dd)
                assert abs(got[i, j] - float(want)) <= tol, (i, j, got[i, j], float(want))


class TestGridDice:
    def test_identical(self):
        grid = rasterize([ray_box(25.0, 2.0)], grid_1d())
        assert grid_dice(grid, grid) == pytest.approx(1.0)

    def test_disjoint(self):
        a = rasterize([ray_box(10.0, 2.0)], grid_1d())
        b = rasterize([ray_box(40.0, 2.0)], grid_1d())
        assert grid_dice(a, b) == 0.0

    def test_both_empty(self):
        empty = grid_1d(10)
        assert grid_dice(empty, empty.like()) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grid_dice(grid_1d(10), grid_1d(20))

    def test_matches_closed_form_along_offsets(self):
        ell = 2.0
        template = grid_1d()
        cell = 50.0 / 1000
        gt = rasterize([ray_box(25.0, ell)], template)
        for eta in np.linspace(-1.5 * ell, 1.5 * ell, 50):
            pred = rasterize([ray_box(25.0 + float(eta), ell)], template)
            closed = max(0.0, 1.0 - abs(float(eta)) / ell)
            assert abs(grid_dice(pred, gt) - closed) <= 2 * cell / ell


class TestGridIo:
    def _grid(self):
        rng = np.random.default_rng(3)
        return BevGrid(5, 7, (-4.0, 4.0, 0.0, 10.0), rng.uniform(0, 1, (5, 7)))

    def test_binary_round_trip(self, tmp_path):
        grid = self._grid()
        path = tmp_path / "grid.bevg"
        gridio.write_grid(grid, path)
        back = gridio.read_grid(path)
        assert back.extent == grid.extent
        assert np.allclose(back.cells, grid.cells, atol=1e-7)  # f32 payload

    def test_csv_round_trip(self, tmp_path):
        grid = self._grid()
        path = tmp_path / "grid.csv"
        gridio.write_grid(grid, path)
        back = gridio.read_grid(path)
        assert back.extent == grid.extent
        assert np.allclose(back.cells, grid.cells, atol=1e-8)

    def test_non_finite_cells_rejected(self, tmp_path):
        grid = BevGrid(rows=2, cols=2, extent=(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            BevGrid(rows=2, cols=2, extent=grid.extent, cells=np.array([[0.0, math.nan], [0.0, 0.0]]))
        grid.cells[0, 1] = math.nan  # bypass validation to put NaN on disk
        path = tmp_path / "nan.bevg"
        gridio.write_grid(grid, path)
        with pytest.raises(ValueError):
            gridio.read_grid(path)

    @pytest.mark.parametrize("extent", [(0.0, 1.0, 0.0), (-math.inf, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, math.nan)])
    def test_bad_extent_rejected(self, extent):
        with pytest.raises(ValueError):
            BevGrid(rows=2, cols=2, extent=extent)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_binary_bytes(self, tmp_path, layout):
        # header, then the cells as little-endian f32 in row-major order, whatever the array's layout
        cells = self._grid().cells
        cells = {"C": cells, "F": np.asfortranarray(cells), "strided": np.repeat(cells, 2, axis=1)[:, ::2]}[layout]
        grid = BevGrid(5, 7, (-4.0, 4.0, 0.0, 10.0), cells)
        path = tmp_path / "grid.bevg"
        gridio.write_grid(grid, path)
        head = struct.pack("<4sII4d", b"BEVG", 5, 7, -4.0, 4.0, 0.0, 10.0)
        assert path.read_bytes() == head + self._grid().cells.astype("<f4").tobytes()

    def test_like_is_a_fresh_empty_grid(self):
        grid = self._grid()
        empty = grid.like()
        assert (empty.rows, empty.cols, empty.extent) == (grid.rows, grid.cols, grid.extent)
        assert empty.cells.dtype == np.float64 and empty.cells.shape == (5, 7) and not empty.cells.any()
        assert not np.shares_memory(empty.cells, grid.cells)
        empty.cells[0, 0] = 1.0
        assert grid.cells[0, 0] != 1.0 and not grid.like().cells.any()

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "grid.bevg"
        gridio.write_grid(self._grid(), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            gridio.read_grid(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bevg"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            gridio.read_grid(path)
