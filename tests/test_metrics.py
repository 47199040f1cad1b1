import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlab.geometry import BevGrid, Box3D, BoxArray, bev_iou, iou3d
from bevlab.metrics import (
    ALL_BIN,
    DEFAULT_BINS,
    FrameSet,
    _Pairs,
    _window_pairs,
    average_precision,
    bin_label,
    center_nms,
    check_ranges,
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

    def test_negative_n_gt(self):
        with pytest.raises(ValueError, match="n_gt must be >= 0"):
            average_precision([(0.9, True)], -1)

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
        preds = [replace(g, score=1.0) for g in gts]
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

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError, match="iou thresholds must be non-empty"):
            evaluate([frame([box(score=0.9)], [box()])], thresholds=())

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


# Lattice boxes: centres on a 0.5 m grid, sides of whole meters and yaws in
# steps of pi/4 (and one other), so that edges touch and run collinear
# (within _CLIP_EPS), IoUs tie and GTs repeat.
lattice_box = st.builds(
    box,
    x=st.integers(-6, 6).map(lambda k: 0.5 * k),
    z=st.integers(14, 26).map(lambda k: 0.5 * k),
    l=st.sampled_from([1.0, 2.0, 3.0, 6.0]),
    w=st.sampled_from([1.0, 2.0]),
    h=st.sampled_from([1.0, 1.5]),
    y=st.sampled_from([0.0, 0.5, 2.0]),
    yaw=st.sampled_from([0.0, math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, 0.3]),
    category=st.sampled_from(["car", "truck"]),
)


@st.composite
def lattice_frames(draw, max_frames=2):
    frames = []
    for fi in range(draw(st.integers(1, max_frames))):
        gts = draw(st.lists(lattice_box, max_size=3))
        if gts and draw(st.booleans()):
            gts.append(gts[draw(st.integers(0, len(gts) - 1))])  # a duplicate GT
        preds = []
        for _ in range(draw(st.integers(0, 4))):
            score = draw(st.sampled_from([0.2, 0.5, 0.9]))  # equal scores are common
            if gts and draw(st.booleans()):
                gt = gts[draw(st.integers(0, len(gts) - 1))]
                shift = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
                preds.append(replace(gt, x=gt.x + draw(shift), z=gt.z + draw(shift), score=score))
            else:
                preds.append(replace(draw(lattice_box), score=score))
        frames.append(frame(preds, gts, f"f{fi}"))
    return frames


class TestWindowPairs:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-6, 6), st.integers(0, 4)), max_size=25),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-8, 8)), max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, a_rows, b_rows):
        # integer x, so b values land on both ends of the windows; keys repeat and interleave
        a_key, a_x, a_half = np.array(a_rows, dtype=np.intp).reshape(-1, 3).T
        b_key, b_x = np.array(b_rows, dtype=np.intp).reshape(-1, 2).T
        a_lo, a_hi = (a_x - a_half).astype(float), (a_x + a_half).astype(float)
        i, j = _window_pairs(a_key, a_lo, a_hi, b_key, b_x.astype(float))
        want = sorted((p, q) for p in range(len(a_key)) for q in range(len(b_key))
                      if a_key[p] == b_key[q] and a_lo[p] <= b_x[q] <= a_hi[p])
        assert sorted(zip(i.tolist(), j.tolist())) == want

    def test_infinite_window(self):
        key = np.array([1, 0, 1])
        i, j = _window_pairs(key, np.full(3, -math.inf), np.full(3, math.inf), key, np.array([5.0, -1e300, 1e300]))
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]


class TestColumnarCore:
    @given(lattice_frames())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_matches_oracle(self, frames):
        thresholds = (0.5, 0.25, 0.1)
        got = evaluate(frames, thresholds=thresholds, bins=DEFAULT_BINS, iou_fn=iou3d)
        want = oracle_evaluate(frames, thresholds, DEFAULT_BINS, iou3d)
        assert set(got.curves) == set(want)
        for key, (ap, n_gt, n_pred) in want.items():
            curve = got.curves[key]
            assert abs(curve.ap - ap) <= 1e-12, key
            assert (curve.n_gt, curve.n_pred) == (n_gt, n_pred)

    @given(lattice_frames(max_frames=1))
    @settings(max_examples=300, deadline=None)
    def test_prefilter_keeps_every_overlapping_pair(self, frames):
        (f,) = frames
        pairs = _Pairs([f], iou3d)
        candidates = dict(zip(zip(pairs.pred_idx.tolist(), pairs.gt_idx.tolist()), pairs.iou.tolist()))
        for i, p in enumerate(f.predictions):
            for j, g in enumerate(f.ground_truths):
                if p.category == g.category and iou3d(p, g) > 0:
                    assert (i, j) in candidates
        # each candidate's IoU is the scalar one, bit for bit
        for (i, j), iou in candidates.items():
            assert iou == iou3d(f.predictions[i], f.ground_truths[j])

    @given(lattice_frames(max_frames=1))
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_scalar_loop(self, frames):
        # which of two equal-IoU GTs a prediction takes leaves AP unchanged,
        # so the matches themselves are compared
        (f,) = frames
        for cat in ("car", "truck"):
            for thr in (0.5, 0.25, 0.1):
                assert match_greedy(f, cat, thr) == _scalar_match_greedy(f, cat, thr)

    def test_prefilter_keeps_corner_to_corner_pairs(self):
        # two boxes whose corners point at each other on the line of centres:
        # the circumcircles meet just where the footprints do
        rng = np.random.default_rng(31)
        for _ in range(200):
            la, wa, lb, wb = rng.uniform(0.5, 12, 4)
            ya = float(rng.uniform(-math.pi, math.pi))
            ra, rb = 0.5 * math.hypot(la, wa), 0.5 * math.hypot(lb, wb)
            # footprint corner 0 lies at angle atan2(l, w) - yaw from the centre
            beta = math.atan2(la, wa) - ya
            gap = float(rng.choice([-1e-2, -1e-4, 1e-4]))
            dist = ra + rb + gap
            a = box(x=0.0, z=0.0, l=la, w=wa, yaw=ya, score=0.5)
            b = box(x=dist * math.cos(beta), z=dist * math.sin(beta), l=lb, w=wb,
                    yaw=math.atan2(lb, wb) - (beta + math.pi))
            pairs = _Pairs([frame([a], [b])], iou3d)
            iou = iou3d(a, b)
            assert (iou > 0) == (gap < 0)
            if iou > 0:
                assert pairs.pred_idx.tolist() == [0] and pairs.iou.tolist() == [iou]

    def test_rotated_pairs_twin_is_bit_identical(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            preds, gts = [], []
            for _ in range(6):
                gt = box(x=float(rng.uniform(-4, 4)), z=float(rng.uniform(6, 14)), l=float(rng.uniform(1, 8)),
                         w=float(rng.uniform(0.5, 3)), h=float(rng.uniform(0.5, 3)), y=float(rng.uniform(-1, 1)),
                         yaw=float(rng.uniform(-4, 4)))
                gts.append(gt)
                preds.append(replace(gt, x=gt.x + float(rng.normal(0, 1)), yaw=gt.yaw + float(rng.normal(0, 0.3)),
                                     score=0.5))
            f = frame(preds, gts)
            for iou_fn in (iou3d, bev_iou):
                pairs = _Pairs([f], iou_fn)
                for i, j, iou in zip(pairs.pred_idx.tolist(), pairs.gt_idx.tolist(), pairs.iou.tolist()):
                    assert iou == iou_fn(preds[i], gts[j])

    def test_columnar_frame_equals_box_lists(self):
        rng = np.random.default_rng(37)
        names = ("car", "truck", "bus")
        for _ in range(20):
            n_pred, n_gt = rng.integers(0, 12), rng.integers(1, 8)
            centres = rng.uniform(-6, 6, (n_gt, 2))

            def values(n, jitter):
                v = np.empty((n, 7))
                v[:, [0, 2]] = centres[rng.integers(0, n_gt, n)] + rng.normal(0, jitter, (n, 2))
                v[:, 1] = 0.0
                v[:, 3:6] = rng.uniform(0.5, 12, (n, 3))
                v[:, 6] = rng.uniform(-10, 10, n)  # wrapped into (-pi, pi] by both
                return v

            pv, gv = values(n_pred, 0.5), values(n_gt, 0.0)
            pc, gc = rng.integers(0, 3, n_pred), rng.integers(0, 3, n_gt)
            ps = rng.choice([0.25, 0.5, rng.random()], n_pred)
            columnar = FrameSet.from_columns("f", BoxArray(pv, pc, names, ps), BoxArray(gv, gc, names))
            listed = FrameSet(
                "f",
                [Box3D(*v, category=names[c], score=s) for v, c, s in zip(pv.tolist(), pc.tolist(), ps.tolist())],
                [Box3D(*v, category=names[c]) for v, c in zip(gv.tolist(), gc.tolist())],
            )
            assert columnar.predictions == listed.predictions
            assert columnar.ground_truths == listed.ground_truths
            a, b = evaluate([columnar]), evaluate([listed])
            assert a.categories == b.categories and a.map_per_threshold == b.map_per_threshold
            assert list(a.curves) == list(b.curves)
            for key, curve in a.curves.items():
                other = b.curves[key]
                assert (curve.points, curve.ap, curve.n_gt, curve.n_pred) == (
                    other.points, other.ap, other.n_gt, other.n_pred)

    def test_columns_validated_like_boxes(self):
        good = np.array([[0.0, 0.0, 10.0, 4.0, 2.0, 1.5, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            BoxArray(np.array([[0.0, 0.0, np.nan, 4.0, 2.0, 1.5, 0.0]]), [0], ("car",))
        with pytest.raises(ValueError, match="dimensions"):
            BoxArray(np.array([[0.0, 0.0, 10.0, 0.0, 2.0, 1.5, 0.0]]), [0], ("car",))
        with pytest.raises(ValueError, match="score"):
            BoxArray(good, [0], ("car",), [1.5])
        with pytest.raises(ValueError, match="codes"):
            BoxArray(good, [1], ("car",))
        with pytest.raises(ValueError, match="prediction without score"):
            FrameSet.from_columns("f", BoxArray(good, [0], ("car",)), BoxArray(good, [0], ("car",)))

    @pytest.mark.parametrize("codes,scores", [([0, 0], None), ([], None), ([0], [0.5, 0.5])],
                             ids=["codes-long", "codes-short", "scores-long"])
    def test_columns_of_unequal_length(self, codes, scores):
        good = np.array([[0.0, 0.0, 10.0, 4.0, 2.0, 1.5, 0.0]])
        with pytest.raises(ValueError, match="box columns must have one entry per box"):
            BoxArray(good, codes, ("car",), scores)


class TestTwinContract:
    def test_iou_fn_without_twin_is_rejected(self):
        f = frame([box(score=0.9)], [box()])

        def plain(a, b):
            return iou3d(a, b)

        with pytest.raises(ValueError, match="pairwise"):
            evaluate([f], iou_fn=plain)
        with pytest.raises(ValueError, match="pairwise"):
            match_greedy(f, "car", 0.5, iou_fn=plain)

    @given(lattice_frames())
    @settings(max_examples=50, deadline=None)
    def test_wrapper_with_only_wrapped_keeps_the_twin(self, frames):
        # a tracing wrapper that sets __wrapped__ and copies nothing else
        def traced(a, b):
            return iou3d(a, b)

        traced.__wrapped__ = iou3d
        assert not hasattr(traced, "pairwise")
        got = evaluate(frames, thresholds=(0.5, 0.25), iou_fn=traced)
        want = evaluate(frames, thresholds=(0.5, 0.25), iou_fn=iou3d)
        assert got.curves.keys() == want.curves.keys()
        for key, curve in want.curves.items():
            assert got.curves[key].points == curve.points, key
            assert (got.curves[key].ap, got.curves[key].n_gt, got.curves[key].n_pred) == (
                curve.ap, curve.n_gt, curve.n_pred), key
        assert got.map_per_threshold == want.map_per_threshold


def _scalar_match_greedy(frame, category, iou_threshold, iou_fn=iou3d):
    """The per-object greedy loop the columnar matcher replaced."""
    preds = [(i, p) for i, p in enumerate(frame.predictions) if p.category == category]
    gts = [(j, g) for j, g in enumerate(frame.ground_truths) if g.category == category]
    taken, out = set(), []
    for i, pred in sorted(preds, key=lambda ib: -ib[1].score):
        best_j, best_iou = None, 0.0
        for j, gt in gts:
            if j in taken:
                continue
            iou = iou_fn(pred, gt)
            if iou >= iou_threshold and iou > best_iou:
                best_iou, best_j = iou, j
        if best_j is not None:
            taken.add(best_j)
        out.append((i, best_j))
    return out


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


class TestCheckRanges:
    def test_only_the_values_given_are_checked(self):
        check_ranges()
        check_ranges(iou_threshold=1.0, radius=1e300, binarize_threshold=1e-9)
        for kwargs, message in (({"iou_threshold": 0.0}, "iou_threshold"), ({"radius": math.inf}, "radius"),
                                ({"binarize_threshold": 1.5}, "binarize_threshold")):
            with pytest.raises(ValueError, match=message):
                check_ranges(**kwargs)

    def test_values_are_keyword_only(self):
        # a radius passed by position must not be taken for an IoU threshold
        with pytest.raises(TypeError):
            check_ranges(4.0)


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

    @pytest.mark.parametrize("distance,swapped_x", [(4.0, 4.0), (3.999, 0.0)])
    def test_radius_is_4_m_exclusive(self, distance, swapped_x):
        f = frame([box(x=distance, score=0.9)], [box(x=0.0)])
        assert oracle_swap(f, {"x"}).predictions[0].x == swapped_x

    @pytest.mark.parametrize("lengths", [(5.0, 7.0), (7.0, 5.0)])
    def test_tie_goes_to_the_first_gt_in_frame_order(self, lengths):
        f = frame([box(z=10.0, score=0.9)], [box(z=7.0, l=lengths[0]), box(z=13.0, l=lengths[1])])
        assert oracle_swap(f, {"l"}).predictions[0].l == lengths[0]

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
        # a category whose every frame is empty has no IoU and is left out of the mean
        empty = self._grid([[0, 0]])
        report = seg_miou({"car": [(p, g)], "bus": [(empty, empty), (empty, empty)]})
        assert math.isnan(report.per_category["bus"])
        assert report.mean_foreground == 0.5
        assert math.isnan(seg_miou({"bus": [(empty, empty)], "truck": []}).mean_foreground)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            seg_miou({"car": [(self._grid([[1, 0]]), self._grid([[1], [0]]))]})

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 2.0, 1.0 + 1e-9, 0.0, -1.0])
    def test_threshold_outside_unit_interval(self, threshold):
        g = self._grid([[1, 0]])
        with pytest.raises(ValueError, match=r"binarize_threshold must be in \(0, 1\]"):
            seg_miou({"car": [(g, g)]}, binarize_threshold=threshold)

    def test_threshold_one_counts_full_cells(self):
        pred, gt = self._grid([[1, 0.5]]), self._grid([[1, 1]])
        assert seg_miou({"car": [(pred, gt)]}, binarize_threshold=1.0).per_category["car"] == 0.5


class TestBinLabel:
    def test_finite(self):
        assert bin_label((0.0, 5.0)) == "[0,5)"

    def test_infinite(self):
        assert bin_label((15.0, math.inf)) == "[15,inf)"
