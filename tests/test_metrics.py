import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlab.geometry import BevGrid, Box3D, iou3d
from bevlab.metrics import (
    ALL_BIN,
    DEFAULT_BINS,
    FrameSet,
    average_precision,
    bin_label,
    center_nms,
    evaluate,
    match_greedy,
    oracle_swap,
    seg_miou,
)
from oracle_eval import oracle_ap, oracle_evaluate


def box(x=0.0, z=10.0, l=4.0, w=2.0, h=1.5, yaw=0.0, category="car", score=None, y=0.0):
    return Box3D(x=x, y=y, z=z, l=l, w=w, h=h, yaw=yaw, category=category, score=score)


def frame(preds, gts, frame_id="f0"):
    return FrameSet(frame_id, preds, gts)


class TestMatchGreedy:
    def test_exact_hit(self):
        f = frame([box(score=0.9)], [box()])
        assert match_greedy(f, "car", 0.5) == [(0, 0)]

    def test_no_predictions(self):
        f = frame([], [box(), box(x=20)])
        assert match_greedy(f, "car", 0.5) == []

    def test_two_preds_one_gt_highest_score_wins(self):
        # both overlap the single GT above threshold; exhaustive 2-pred case
        f = frame([box(x=0.4, score=0.8), box(x=0.2, score=0.9)], [box()])
        matches = dict(match_greedy(f, "car", 0.3))
        assert matches[1] == 0  # score 0.9
        assert matches[0] is None  # becomes FP

    def test_category_isolation(self):
        f = frame([box(score=0.9, category="truck")], [box()])
        assert match_greedy(f, "truck", 0.5) == [(0, None)]

    def test_tie_prefers_lower_gt_index(self):
        gt_a = box(x=0.0)
        gt_b = box(x=0.0)
        f = frame([box(x=0.0, score=0.5)], [gt_a, gt_b])
        assert match_greedy(f, "car", 0.5) == [(0, 0)]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_greedy(frame([], []), "car", 0.0)


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([(0.3, True)], 1).ap == 1.0

    def test_single_fp(self):
        assert average_precision([(0.9, False)], 1).ap == 0.0

    def test_three_detection_instance(self):
        dets = [(0.9, True), (0.8, False), (0.7, True)]
        assert average_precision(dets, 2).ap == pytest.approx(0.5 * 1 + 0.5 * (2 / 3))

    def test_no_gt(self):
        curve = average_precision([(0.9, False)], 0)
        assert curve.ap == 0.0 and curve.n_gt == 0

    def test_recall_non_decreasing(self):
        curve = average_precision([(0.9, True), (0.8, False), (0.7, True), (0.5, True)], 5)
        recalls = [r for _, _, r in curve.points]
        assert recalls == sorted(recalls)

    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), max_size=8), st.integers(0, 5))
    @settings(max_examples=300)
    def test_matches_envelope_oracle(self, dets, extra_gt):
        n_gt = sum(1 for _, tp in dets if tp) + extra_gt
        assert average_precision(dets, n_gt).ap == pytest.approx(oracle_ap(dets, n_gt), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(0.01, 1), st.booleans()), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_score_transform_invariance(self, dets):
        n_gt = max(1, sum(1 for _, tp in dets if tp))
        base = average_precision(dets, n_gt).ap
        squeezed = [(s**3 * 0.5, tp) for s, tp in dets]
        assert average_precision(squeezed, n_gt).ap == pytest.approx(base, abs=1e-12)

    def test_removing_tp_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = rng.integers(1, 8)
            dets = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            n_gt = sum(1 for _, tp in dets if tp) + int(rng.integers(0, 3))
            base = average_precision(dets, n_gt).ap
            for i, (_, tp) in enumerate(dets):
                trimmed = dets[:i] + dets[i + 1 :]
                if tp:
                    assert average_precision(trimmed, n_gt).ap <= base + 1e-12
                else:
                    assert average_precision(trimmed, n_gt).ap >= base - 1e-12


class TestEvaluate:
    def test_bin_assignment_by_max_dim(self):
        gts = [box(l=4.9, w=2, h=2), box(x=30, l=12, w=3, h=3)]
        preds = [box(l=4.9, w=2, h=2, score=1.0), box(x=30, l=12, w=3, h=3, score=1.0)]
        report = evaluate([frame(preds, gts)], thresholds=(0.5,))
        assert report.curves[("car", 0.5, "[0,5)")].n_gt == 1
        assert report.curves[("car", 0.5, "[10,15)")].n_gt == 1
        assert report.curves[("car", 0.5, "[5,10)")].n_gt == 0

    def test_perfect_predictions(self):
        gts = [box(), box(x=30), box(x=60, category="truck", l=12)]
        preds = [g.with_score(1.0) for g in gts]
        report = evaluate([frame(preds, gts)])
        for (cat, thr, lab), curve in report.curves.items():
            if curve.n_gt > 0:
                assert curve.ap == 1.0
        assert report.map_per_threshold[0.5] == 1.0

    def test_fp_binned_by_own_size(self):
        gts = [box()]
        preds = [box(score=0.9), box(x=500, l=12, w=3, h=3, score=0.8)]
        report = evaluate([frame(preds, gts)], thresholds=(0.5,))
        assert report.curves[("car", 0.5, "[10,15)")].n_pred == 1
        assert report.curves[("car", 0.5, "[10,15)")].ap == 0.0

    def test_group_aggregation(self):
        gts = [box(), box(x=50, category="truck", l=12, w=3, h=3)]
        preds = [box(score=1.0), box(x=500, category="truck", l=12, w=3, h=3, score=1.0)]
        report = evaluate([frame(preds, gts)], thresholds=(0.5,), groups={"car": "car", "truck": "large"})
        assert report.group_ap[("car", 0.5)] == 1.0
        assert report.group_ap[("large", 0.5)] == 0.0

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            evaluate([])

    @pytest.mark.parametrize(
        "bins",
        [
            (),
            ((5.0, 10.0), (10.0, math.inf)),  # a 3 m object would have no bin
            ((0.0, 5.0), (5.0, 5.0), (5.0, math.inf)),  # empty bin
            ((0.0, 5.0), (6.0, math.inf)),  # gap
            ((0.0, 5.0), (5.0, 10.0)),  # no [hi, inf) bin
            ((0.0, math.nan), (math.nan, math.inf)),
        ],
    )
    def test_bins_must_partition_half_line(self, bins):
        gts = [box(l=3.0, w=2, h=2)]
        with pytest.raises(ValueError):
            evaluate([frame([box(l=3.0, w=2, h=2, score=1.0)], gts)], bins=bins)

    def test_matches_brute_force_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            frames = _random_frames(rng, n_frames=2)
            got = evaluate(frames, thresholds=(0.5, 0.25), bins=DEFAULT_BINS, iou_fn=iou3d)
            want = oracle_evaluate(frames, (0.5, 0.25), DEFAULT_BINS, iou3d)
            for key, (ap, n_gt, n_pred) in want.items():
                curve = got.curves[key]
                assert curve.ap == pytest.approx(ap, abs=1e-12), key
                assert (curve.n_gt, curve.n_pred) == (n_gt, n_pred)


def _random_frames(rng, n_frames=2, max_preds=4, max_gts=3):
    frames = []
    cats = ["car", "truck"]
    for fi in range(n_frames):
        gts = []
        for _ in range(rng.integers(0, max_gts + 1)):
            gts.append(
                box(
                    x=float(rng.uniform(-10, 10)),
                    z=float(rng.uniform(5, 25)),
                    l=float(rng.uniform(2, 14)),
                    w=float(rng.uniform(1, 3)),
                    h=float(rng.uniform(1, 3)),
                    yaw=float(rng.uniform(-math.pi, math.pi)),
                    category=cats[rng.integers(0, 2)],
                )
            )
        preds = []
        for _ in range(rng.integers(0, max_preds + 1)):
            if gts and rng.random() < 0.7:
                gt = gts[rng.integers(0, len(gts))]
                preds.append(
                    box(
                        x=gt.x + float(rng.normal(0, 1.0)),
                        z=gt.z + float(rng.normal(0, 1.0)),
                        l=gt.l, w=gt.w, h=gt.h, yaw=gt.yaw, category=gt.category,
                        score=float(rng.random()),
                    )
                )
            else:
                preds.append(
                    box(
                        x=float(rng.uniform(-10, 10)),
                        z=float(rng.uniform(5, 25)),
                        l=float(rng.uniform(2, 14)),
                        w=float(rng.uniform(1, 3)),
                        h=float(rng.uniform(1, 3)),
                        category=cats[rng.integers(0, 2)],
                        score=float(rng.random()),
                    )
                )
        frames.append(frame(preds, gts, f"f{fi}"))
    return frames


class TestCenterNms:
    def test_duplicate_suppressed(self):
        kept = center_nms([box(score=0.9), box(x=2.0, score=0.7)])
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_far_apart_kept(self):
        kept = center_nms([box(score=0.9), box(x=10.0, score=0.7)])
        assert len(kept) == 2

    def test_different_categories_kept(self):
        kept = center_nms([box(score=0.9), box(x=2.0, category="truck", score=0.7)])
        assert len(kept) == 2

    def test_output_sorted_by_score(self):
        kept = center_nms([box(score=0.3), box(x=10, score=0.9), box(x=20, score=0.6)])
        assert [b.score for b in kept] == [0.9, 0.6, 0.3]

    def test_idempotent_random(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            boxes = [
                box(
                    x=float(rng.uniform(-20, 20)),
                    z=float(rng.uniform(0, 40)),
                    category=["car", "truck"][rng.integers(0, 2)],
                    score=float(rng.random()),
                )
                for _ in range(rng.integers(0, 12))
            ]
            once = center_nms(boxes)
            assert center_nms(once) == once

    def test_unscored_rejected(self):
        with pytest.raises(ValueError):
            center_nms([box()])


class TestOracleSwap:
    def test_empty_fields_no_change(self):
        f = frame([box(z=11.0, score=0.9)], [box()])
        swapped = oracle_swap(f, ())
        assert swapped.predictions == f.predictions

    def test_depth_replaced(self):
        f = frame([box(z=11.0, score=0.9)], [box(z=10.0)])
        swapped = oracle_swap(f, {"z"})
        assert swapped.predictions[0].z == 10.0
        assert swapped.predictions[0].x == 0.0

    def test_outside_radius_unchanged(self):
        f = frame([box(z=16.0, score=0.9)], [box(z=10.0)])
        swapped = oracle_swap(f, {"z"})
        assert swapped.predictions[0].z == 16.0

    def test_nearest_gt_wins(self):
        f = frame([box(z=10.5, score=0.9)], [box(z=10.0), box(z=12.0)])
        swapped = oracle_swap(f, {"z", "l"})
        assert swapped.predictions[0].z == 10.0

    def test_all_fields_swap_gives_perfect_ap(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gts = [
                box(x=float(30 * i), z=float(rng.uniform(5, 25)), l=float(rng.uniform(2, 14)),
                    yaw=float(rng.uniform(-3, 3)))
                for i in range(rng.integers(1, 4))
            ]
            preds = [
                Box3D(
                    x=g.x + float(rng.uniform(-2, 2)),
                    y=g.y,
                    z=g.z + float(rng.uniform(-2, 2)),
                    l=g.l + 0.5, w=g.w, h=g.h, yaw=g.yaw + 0.3,
                    category=g.category, score=float(rng.uniform(0.1, 1.0)),
                )
                for g in gts
            ]
            f = frame(preds, gts)
            swapped = oracle_swap(f, set("xyzlwh") | {"yaw"})
            report = evaluate([swapped])
            assert report.map_per_threshold[0.5] == 1.0
            assert report.map_per_threshold[0.25] == 1.0

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            oracle_swap(frame([], []), {"depth"})


class TestSegMiou:
    def _grid(self, cells):
        cells = np.asarray(cells, dtype=float)
        return BevGrid(cells.shape[0], cells.shape[1], (0, 1, 0, 1), cells)

    def test_identical(self):
        g = self._grid([[1, 0], [1, 1]])
        report = seg_miou({"car": [(g, g)]})
        assert report.per_category["car"] == 1.0

    def test_disjoint(self):
        a = self._grid([[1, 0], [0, 0]])
        b = self._grid([[0, 1], [0, 0]])
        assert seg_miou({"car": [(a, b)]}).per_category["car"] == 0.0

    def test_half_coverage(self):
        pred = self._grid([[1, 0], [0, 0]])
        gt = self._grid([[1, 1], [0, 0]])
        assert seg_miou({"car": [(pred, gt)]}).per_category["car"] == 0.5

    def test_dataset_level_accumulation(self):
        # frame 1: 1/2, frame 2: 1/1 -> dataset level (1+1)/(2+1) = 2/3
        p1, g1 = self._grid([[1, 0]]), self._grid([[1, 1]])
        p2, g2 = self._grid([[1, 0]]), self._grid([[1, 0]])
        assert seg_miou({"car": [(p1, g1), (p2, g2)]}).per_category["car"] == pytest.approx(2 / 3)

    def test_empty_frames_contribute_nothing(self):
        empty = self._grid([[0, 0]])
        p, g = self._grid([[1, 0]]), self._grid([[1, 1]])
        with_empty = seg_miou({"car": [(p, g), (empty, empty)]})
        assert with_empty.per_category["car"] == 0.5

    def test_mean_foreground(self):
        p, g = self._grid([[1, 0]]), self._grid([[1, 1]])
        report = seg_miou({"car": [(g, g)], "truck": [(p, g)]})
        assert report.mean_foreground == pytest.approx(0.75)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            seg_miou({"car": [(self._grid([[1, 0]]), self._grid([[1], [0]]))]})


class TestBinLabel:
    def test_finite(self):
        assert bin_label((0.0, 5.0)) == "[0,5)"

    def test_infinite(self):
        assert bin_label((15.0, math.inf)) == "[15,inf)"
