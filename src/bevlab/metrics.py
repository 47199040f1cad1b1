"""Detection evaluation: greedy matching, all-point-interpolated AP at IoU
0.5 / 0.25, lengthwise bins, center-based 3D NMS, oracle swap, and BEV
segmentation mIoU.

Matching is greedy by score: predictions of a category are visited in
descending score order (ties keep input order) and each takes the unmatched
ground truth with the highest IoU at or above the threshold, lower GT index
winning ties.  Length bins classify a ground truth by its maximum dimension;
unmatched predictions (false positives) fall in the bin of their own maximum
dimension.

The evaluator works on columns.  Each frame holds its boxes only as
:class:`~bevlab.geometry.BoxArray`, and builds Box3D lists when they are
read; the prediction/GT pairs that can overlap are found once per call, by
the BEV circumcircles of the boxes; each such pair's IoU is computed once,
by the vectorized twin of the IoU function, and reused for every threshold;
matching, binning and AP run on arrays.

An IoU function ``fn`` must carry that twin as ``fn.pairwise(a, b)``: it
takes two (K, 7) arrays of box values in Box3D field order, returns the K
IoUs bit-identical to ``fn`` on each row pair, and is zero for boxes whose
BEV footprints are disjoint.  ``iou3d``, ``bev_iou`` and
``bench.ray_box_iou`` have one; a function without one raises ``ValueError``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .geometry import BevGrid, Box3D, BoxArray, iou3d

__all__ = [
    "FrameSet",
    "PrCurve",
    "ApReport",
    "SegIoUReport",
    "DEFAULT_BINS",
    "match_greedy",
    "average_precision",
    "evaluate",
    "center_nms",
    "center_nms_rows",
    "check_ranges",
    "oracle_swap",
    "seg_miou",
]

# Lengthwise bin edges in meters; each bin is [lo, hi).
DEFAULT_BINS: tuple[tuple[float, float], ...] = ((0.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, math.inf))

ALL_BIN = "all"

# Meters added to the circumcircle reach, so that rounding in the centre
# distance never drops a pair whose footprints touch.
_REACH_SLACK = 1e-6


def bin_label(bin_range: tuple[float, float]) -> str:
    lo, hi = bin_range
    hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
    return f"[{lo:g},{hi_s})"


class FrameSet:
    """Predictions (scored) and ground truths (unscored) of one frame.

    The boxes are held only as columns, ``pred_boxes`` and ``gt_boxes``: a
    frame made from Box3D iterables converts them once, and one made with
    :meth:`from_columns` takes the columns as given.  The Box3D lists
    ``predictions`` and ``ground_truths`` are built from the columns on first
    read.
    """

    def __init__(self, frame_id: str, predictions: Iterable[Box3D] = (), ground_truths: Iterable[Box3D] = ()):
        # from_boxes reads its input more than once, and a caller may pass a generator
        self._set(frame_id, BoxArray.from_boxes(list(predictions)), BoxArray.from_boxes(list(ground_truths)))

    @classmethod
    def from_columns(cls, frame_id: str, pred_boxes: BoxArray, gt_boxes: BoxArray) -> "FrameSet":
        frame = cls.__new__(cls)
        frame._set(frame_id, pred_boxes, gt_boxes)
        return frame

    def _set(self, frame_id: str, pred_boxes: BoxArray, gt_boxes: BoxArray) -> None:
        if np.isnan(pred_boxes.scores).any():
            raise ValueError(f"frame {frame_id}: prediction without score")
        self.frame_id, self.pred_boxes, self.gt_boxes = frame_id, pred_boxes, gt_boxes

    @cached_property
    def predictions(self) -> list[Box3D]:
        return self.pred_boxes.boxes()

    @cached_property
    def ground_truths(self) -> list[Box3D]:
        return self.gt_boxes.boxes()


class PrCurve:
    """Operating points (score threshold, precision, recall), one per
    detection in visiting order, plus the all-point-interpolated average
    precision."""

    def __init__(self, scores: np.ndarray, precision: np.ndarray, recall: np.ndarray, ap: float, n_gt: int,
                 n_pred: int) -> None:
        self.scores, self.precision, self.recall = scores, precision, recall
        self.ap, self.n_gt, self.n_pred = ap, n_gt, n_pred

    @cached_property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(zip(self.scores.tolist(), self.precision.tolist(), self.recall.tolist()))


@dataclass
class ApReport:
    curves: dict[tuple[str, float, str], PrCurve]  # (category, iou_thr, bin) -> curve
    map_per_threshold: dict[float, float]
    group_ap: dict[tuple[str, float], float]
    categories: tuple[str, ...]
    thresholds: tuple[float, ...]
    bin_labels: tuple[str, ...]


@dataclass
class SegIoUReport:
    per_category: dict[str, float]
    mean_foreground: float


def _window_pairs(a_key: np.ndarray, a_lo: np.ndarray, a_hi: np.ndarray, b_key: np.ndarray, b_x: np.ndarray):
    """Row pairs (i, j) with ``b_key[j] == a_key[i]`` and ``a_lo[i] <= b_x[j] <= a_hi[i]``:
    the rows of b sorted by (key, x), and one searchsorted window per row of a."""

    def keyed(key, x):  # complex numbers sort by real part, then imaginary
        return np.column_stack([key, x]).view(np.complex128)[:, 0]

    b = keyed(b_key, b_x)
    order = np.argsort(b, kind="stable")
    b = b[order]
    lo = np.searchsorted(b, keyed(a_key, a_lo))
    count = np.searchsorted(b, keyed(a_key, a_hi), "right") - lo
    start = np.repeat(lo - (np.cumsum(count) - count), count)
    return np.repeat(np.arange(len(a_key)), count), order[start + np.arange(count.sum())]


def _stack(arrays: Sequence[BoxArray], index: Mapping[str, int]):
    """Values, category codes (in ``index``) and scores of several box
    arrays, concatenated.  A name no box has may be missing from ``index``."""
    codes = [np.array([index.get(n, -1) for n in a.names], dtype=np.intp)[a.codes] for a in arrays if len(a)]
    return (
        np.concatenate([a.values for a in arrays]),
        np.concatenate(codes) if codes else np.zeros(0, dtype=np.intp),
        np.concatenate([a.scores for a in arrays]),
    )


class _Pairs:
    """Every prediction and ground truth of a frame set as columns, the pairs
    of one frame and category whose BEV circumcircles meet, and their IoUs by
    the IoU function's ``pairwise`` twin.  ``inspect.unwrap`` finds the twin
    of a wrapper that sets only ``__wrapped__``, as tracing wrappers do."""

    def __init__(self, frames: Sequence[FrameSet], iou_fn: Callable[[Box3D, Box3D], float]) -> None:
        twin = getattr(inspect.unwrap(iou_fn), "pairwise", None)
        if twin is None:
            raise ValueError("iou_fn must have a pairwise twin, as iou3d and bev_iou have")
        # the categories some box has, sorted; a box array may name more (each frame of a file keeps all its names)
        self.categories = tuple(sorted({a.names[k] for f in frames for a in (f.pred_boxes, f.gt_boxes)
                                        for k in np.flatnonzero(np.bincount(a.codes, minlength=len(a.names)))}))
        index = {n: k for k, n in enumerate(self.categories)}
        preds, self.pred_cat, scores = _stack([f.pred_boxes for f in frames], index)
        gts, self.gt_cat, _ = _stack([f.gt_boxes for f in frames], index)
        self.preds, self.gts, self.scores = preds, gts, scores
        # visiting order: descending score, ties in input order (frame by frame)
        self.order = np.argsort(-scores, kind="stable")
        self.rank = np.empty(len(scores), dtype=np.intp)
        self.rank[self.order] = np.arange(len(scores))
        n_cat = max(len(self.categories), 1)
        pred_group = np.repeat(np.arange(len(frames)), [len(f.pred_boxes) for f in frames]) * n_cat + self.pred_cat
        gt_group = np.repeat(np.arange(len(frames)), [len(f.gt_boxes) for f in frames]) * n_cat + self.gt_cat
        pred_reach = 0.5 * np.hypot(preds[:, 3], preds[:, 4])
        gt_reach = 0.5 * np.hypot(gts[:, 3], gts[:, 4])
        group_reach = np.zeros(max(pred_group.max(initial=-1), gt_group.max(initial=-1)) + 1)
        np.maximum.at(group_reach, gt_group, gt_reach)
        half = pred_reach + (group_reach[pred_group] + _REACH_SLACK)
        pi, gj = _window_pairs(pred_group, preds[:, 0] - half, preds[:, 0] + half, gt_group, gts[:, 0])
        dist = np.hypot(preds[pi, 0] - gts[gj, 0], preds[pi, 2] - gts[gj, 2])
        meet = dist <= pred_reach[pi] + gt_reach[gj] + _REACH_SLACK
        self.pred_idx, self.gt_idx = pi[meet], gj[meet]
        self.iou = np.asarray(twin(preds[self.pred_idx], gts[self.gt_idx]), dtype=np.float64)

    def match(self, iou_threshold: float) -> np.ndarray:
        """Greedy matching at one threshold: each prediction's matched GT
        index, or -1."""
        ok = self.iou >= iou_threshold
        p, g, iou = self.pred_idx[ok], self.gt_idx[ok], self.iou[ok]
        matched = np.full(len(self.preds), -1, dtype=np.intp)
        # a prediction and a GT that can only match each other need no visit
        alone = (np.bincount(p, minlength=len(self.preds))[p] == 1) & (np.bincount(g, minlength=len(self.gts))[g] == 1)
        matched[p[alone]] = g[alone]
        p, g, iou = p[~alone], g[~alone], iou[~alone]
        # the rest in visiting order; each prediction tries its GTs by IoU, lower index first on ties
        order = np.lexsort((g, -iou, self.rank[p]))
        done: set[int] = set()
        taken: set[int] = set()
        for i, j in zip(p[order].tolist(), g[order].tolist()):
            if i not in done and j not in taken:
                matched[i] = j
                done.add(i)
                taken.add(j)
        return matched


def match_greedy(
    frame: FrameSet,
    category: str,
    iou_threshold: float,
    iou_fn: Callable[[Box3D, Box3D], float] = iou3d,
) -> list[tuple[int, int | None]]:
    """Greedy score-descending matching within one frame and category.

    Returns (prediction index, matched GT index or None) pairs in the visiting
    order; indices refer to the frame's full prediction/GT lists.
    """
    check_ranges(iou_threshold=iou_threshold)
    pairs = _Pairs([frame], iou_fn)
    if category not in pairs.categories:
        return []
    code = pairs.categories.index(category)
    matched = pairs.match(iou_threshold)
    visits = pairs.order[pairs.pred_cat[pairs.order] == code].tolist()
    return [(i, None if matched[i] < 0 else int(matched[i])) for i in visits]


def _pr_curve(scores: np.ndarray, is_tp: np.ndarray, n_gt: int) -> PrCurve:
    """Curve of detections already in visiting order."""
    tp = np.cumsum(is_tp)
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / n_gt if n_gt else np.zeros(len(tp))
    ap = 0.0
    if n_gt and len(tp):
        # precision envelope from the right, then sum rectangle areas at TP steps
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        previous = np.concatenate([[0.0], recall[:-1]])
        ap = float(np.sum((recall - previous) * envelope))
    return PrCurve(scores, precision, recall, ap=ap, n_gt=n_gt, n_pred=len(tp))


def average_precision(detections: Iterable[tuple[float, bool]], n_gt: int) -> PrCurve:
    """All-point-interpolated AP from (score, is-true-positive) detections.

    ``ap`` is 0 when there are no ground truths; the detection list may span
    any number of frames.
    """
    if n_gt < 0:
        raise ValueError("n_gt must be >= 0")
    dets = list(detections)
    scores = np.array([score for score, _ in dets], dtype=np.float64)
    is_tp = np.array([bool(tp) for _, tp in dets], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    return _pr_curve(scores[order], is_tp[order], n_gt)


def evaluate(
    frames: Sequence[FrameSet],
    thresholds: Sequence[float] = (0.5, 0.25),
    bins: Sequence[tuple[float, float]] = DEFAULT_BINS,
    iou_fn: Callable[[Box3D, Box3D], float] = iou3d,
    groups: Mapping[str, str] | None = None,
) -> ApReport:
    """Per-category, per-threshold, per-length-bin AP over a set of frames.

    ``bins`` must partition [0, inf) into [lo, hi) ranges.  ``groups`` maps
    category -> group name for aggregate APs (e.g. large vs car); mAP
    averages the "all"-bin AP over categories with at least one GT.
    ``iou_fn`` must have a ``pairwise`` twin (see the module docstring);
    one without raises ``ValueError``.
    """
    if not frames:
        raise ValueError("frame list must be non-empty")
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("iou thresholds must be non-empty")
    for thr in thresholds:
        check_ranges(iou_threshold=thr)
    if not (
        bins
        and bins[0][0] == 0
        and bins[-1][1] == math.inf
        and all(lo < hi for lo, hi in bins)
        and all(prev[1] == nxt[0] for prev, nxt in zip(bins, bins[1:]))
    ):
        raise ValueError("length bins must start at 0, increase strictly, be contiguous and end at inf")
    pairs = _Pairs(frames, iou_fn)
    categories = pairs.categories
    labels = [bin_label(b) for b in bins] + [ALL_BIN]
    edges = np.array([lo for lo, _ in bins])
    n_bins = len(bins)
    gt_bin = np.searchsorted(edges, pairs.gts[:, 3:6].max(axis=1), "right") - 1
    pred_bin = np.searchsorted(edges, pairs.preds[:, 3:6].max(axis=1), "right") - 1
    n_gt = np.bincount(pairs.gt_cat * n_bins + gt_bin, minlength=len(categories) * n_bins)
    n_gt = n_gt.reshape(len(categories), n_bins).tolist()
    order = pairs.order
    scores, cat = pairs.scores[order], pairs.pred_cat[order]
    curves: dict[tuple[str, float, str], PrCurve] = {}
    for thr in thresholds:
        matched = pairs.match(thr)[order]
        is_tp = matched >= 0
        det_bin = pred_bin[order]
        det_bin[is_tp] = gt_bin[matched[is_tp]]
        for c, name in enumerate(categories):
            in_cat = cat == c
            for b, lab in enumerate(labels):
                if lab == ALL_BIN:
                    sel, count = in_cat, sum(n_gt[c])
                else:
                    sel, count = in_cat & (det_bin == b), n_gt[c][b]
                curves[(name, thr, lab)] = _pr_curve(scores[sel], is_tp[sel], count)

    def mean_ap(thr: float, members: Sequence[str]) -> float | None:
        """The mean "all"-bin AP of the ``members`` with at least one GT; None if none has one."""
        aps = [curves[(c, thr, ALL_BIN)].ap for c in members if curves[(c, thr, ALL_BIN)].n_gt > 0]
        return float(np.mean(aps)) if aps else None

    map_per_threshold = {thr: mean_ap(thr, categories) or 0.0 for thr in thresholds}
    group_ap: dict[tuple[str, float], float] = {}
    for thr in thresholds:
        for gname in sorted(set(groups.values())) if groups else []:
            ap = mean_ap(thr, [c for c in categories if groups.get(c) == gname])
            if ap is not None:
                group_ap[(gname, thr)] = ap
    return ApReport(
        curves=curves,
        map_per_threshold=map_per_threshold,
        group_ap=group_ap,
        categories=tuple(categories),
        thresholds=thresholds,
        bin_labels=tuple(labels),
    )


def check_ranges(*, iou_threshold=None, radius=None, binarize_threshold=None) -> None:
    """Check each value given: an IoU threshold, :func:`center_nms_rows`' radius, :func:`seg_miou`'s threshold."""
    if iou_threshold is not None and not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    if radius is not None and not math.inf > radius > 0:
        raise ValueError("radius must be > 0 and finite")
    if binarize_threshold is not None and not 0.0 < binarize_threshold <= 1.0:
        raise ValueError("binarize_threshold must be in (0, 1]")


# Offsets of the cells (``radius`` wide) where a kept box within the radius can lie.  hypot < radius bounds each
# exact difference, so exact quotients x / radius differ by under 1.  Rounding parts them by two cells only where the
# spacing of doubles grows between their cell edges, just under 2**m or 0, where no quotient falls: a double under
# 2**m * radius rounds to at most the double under 2**m.  Nearby distinct x have exact floors (|x / radius| < 2**53).
_NEAR = tuple((i, j) for i in (0.0, -1.0, 1.0) for j in (0.0, -1.0, 1.0))  # own cell first: duplicates lie there


@np.errstate(over="ignore")  # extreme centres or radii: an infinite ratio is one cell
def center_nms_rows(groups: np.ndarray, boxes: BoxArray, radius: float = 4.0) -> np.ndarray:
    """Center-based 3D NMS on columns: in each group (a frame), visit boxes by
    descending score, ties in input order, and keep a box unless a kept box
    of its category has its BEV center within ``radius`` meters.  Returns
    the kept rows: groups by ascending code, then in visiting order.  One pass
    tests each box against the kept centers in the 3 x 3 radius cells around its own."""
    check_ranges(radius=radius)
    if np.isnan(boxes.scores).any():
        raise ValueError("center_nms requires scored boxes")
    by_score = np.argsort(-boxes.scores, kind="stable")
    order = by_score[np.argsort(groups[by_score], kind="stable")]
    key, x, z = (groups * len(boxes.names) + boxes.codes)[order], boxes.values[order, 0], boxes.values[order, 2]
    rows = zip(key.tolist(), np.floor(x / radius).tolist(), np.floor(z / radius).tolist(), x.tolist(), z.tolist())
    cells, keep = {}, []  # kept centers by (key, x cell, z cell); kept visiting positions
    for p, (k, cx, cz, bx, bz) in enumerate(rows):
        for i, j in _NEAR:
            near = cells.get((k, cx + i, cz + j))
            if near and any(math.hypot(kx - bx, kz - bz) < radius for kx, kz in near):
                break
        else:
            cells.setdefault((k, cx, cz), []).append((bx, bz))
            keep.append(p)
    return order[np.array(keep, dtype=np.intp)]


def center_nms(boxes: Sequence[Box3D], radius: float = 4.0) -> list[Box3D]:
    """:func:`center_nms_rows` on one frame: kept boxes by descending score, ties in input order."""
    rows = center_nms_rows(np.zeros(len(boxes), dtype=np.intp), BoxArray.from_boxes(boxes), radius)
    return [boxes[i] for i in rows.tolist()]


_SWAPPABLE = ("x", "y", "z", "l", "w", "h", "yaw")


def oracle_swap(frame: FrameSet, fields: Iterable[str]) -> FrameSet:
    """Replace the selected fields of each prediction with those of the nearest ground truth (the first in
    frame order on a tie) when its BEV center distance is below 4 m."""
    fields = set(fields)
    unknown = fields - set(_SWAPPABLE)
    if unknown:
        raise ValueError(f"unknown oracle fields: {sorted(unknown)}")
    swapped: list[Box3D] = []
    for pred in frame.predictions:
        best = None
        best_dist = math.inf
        for gt in frame.ground_truths:
            dist = math.hypot(gt.x - pred.x, gt.z - pred.z)
            if dist < best_dist:
                best_dist = dist
                best = gt
        if best is not None and best_dist < 4.0 and fields:
            pred = replace(pred, **{f: getattr(best, f) for f in fields})
        swapped.append(pred)
    return FrameSet.from_columns(frame.frame_id, BoxArray.from_boxes(swapped), frame.gt_boxes)


def seg_miou(
    pairs: Mapping[str, Sequence[tuple[BevGrid, BevGrid]]],
    binarize_threshold: float = 0.5,
) -> SegIoUReport:
    """Dataset-level segmentation IoU per category from (pred, gt) grid pairs.

    Intersections and unions accumulate over all frames before dividing;
    frames where both grids are empty contribute nothing.  ``mean_foreground``
    averages the categories whose accumulated union is not empty.
    A cell is foreground when its value reaches ``binarize_threshold``, in (0, 1].
    """
    check_ranges(binarize_threshold=binarize_threshold)
    per_category: dict[str, float] = {}
    for cat, grid_pairs in pairs.items():
        inter = union = 0
        for pred, gt in grid_pairs:
            if pred.cells.shape != gt.cells.shape:
                raise ValueError(f"category {cat!r}: grid dimension mismatch")
            p = pred.cells >= binarize_threshold
            g = gt.cells >= binarize_threshold
            common = int(np.count_nonzero(p & g))
            inter += common
            union += int(np.count_nonzero(p)) + int(np.count_nonzero(g)) - common
        per_category[cat] = inter / union if union else math.nan
    fg_vals = [v for v in per_category.values() if not math.isnan(v)]
    return SegIoUReport(per_category=per_category, mean_foreground=float(np.mean(fg_vals)) if fg_vals else math.nan)
