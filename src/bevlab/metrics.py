"""Detection evaluation: greedy matching, all-point-interpolated AP at IoU
0.5 / 0.25, lengthwise bins, center-based 3D NMS, oracle swap, and BEV
segmentation mIoU.

Matching is greedy by score: predictions of a category are visited in
descending score order (ties keep input order) and each takes the unmatched
ground truth with the highest IoU at or above the threshold, lower GT index
winning ties.  Length bins classify a ground truth by its maximum dimension;
unmatched predictions (false positives) fall in the bin of their own maximum
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .geometry import BevGrid, Box3D, iou3d

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
    "oracle_swap",
    "seg_miou",
]

# Lengthwise bin edges in meters; each bin is [lo, hi).
DEFAULT_BINS: tuple[tuple[float, float], ...] = ((0.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, math.inf))

ALL_BIN = "all"

IouFn = Callable[[Box3D, Box3D], float]


def bin_label(bin_range: tuple[float, float]) -> str:
    lo, hi = bin_range
    hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
    return f"[{lo:g},{hi_s})"


def _bin_of(value: float, bins) -> str:
    # bins partition [0, inf) (checked by evaluate), so every size finds one
    for b in bins:
        if b[0] <= value < b[1]:
            return bin_label(b)


@dataclass
class FrameSet:
    """Predictions (scored) and ground truths (unscored) of one frame."""

    frame_id: str
    predictions: list[Box3D]
    ground_truths: list[Box3D]

    def __post_init__(self) -> None:
        for box in self.predictions:
            if box.score is None:
                raise ValueError(f"frame {self.frame_id}: prediction without score")


@dataclass(frozen=True)
class PrCurve:
    """Operating points (score threshold, precision, recall) plus the
    all-point-interpolated average precision."""

    points: tuple[tuple[float, float, float], ...]
    ap: float
    n_gt: int
    n_pred: int


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
    mean_all: float | None = None


def _score_order(preds: Sequence[tuple[int, Box3D]]) -> list[tuple[int, Box3D]]:
    # stable: equal scores keep input order
    return sorted(preds, key=lambda ib: -ib[1].score)


def match_greedy(
    frame: FrameSet,
    category: str,
    iou_threshold: float,
    iou_fn: IouFn = iou3d,
) -> list[tuple[int, int | None]]:
    """Greedy score-descending matching within one frame and category.

    Returns (prediction index, matched GT index or None) pairs in the visiting
    order; indices refer to the frame's full prediction/GT lists.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    preds = [(i, p) for i, p in enumerate(frame.predictions) if p.category == category]
    gts = [(j, g) for j, g in enumerate(frame.ground_truths) if g.category == category]
    taken: set[int] = set()
    out: list[tuple[int, int | None]] = []
    for i, pred in _score_order(preds):
        best_j = None
        best_iou = 0.0
        for j, gt in gts:
            if j in taken:
                continue
            iou = iou_fn(pred, gt)
            if iou >= iou_threshold and iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j is not None:
            taken.add(best_j)
        out.append((i, best_j))
    return out


def average_precision(detections: Iterable[tuple[float, bool]], n_gt: int) -> PrCurve:
    """All-point-interpolated AP from (score, is-true-positive) detections.

    ``ap`` is 0 when there are no ground truths; the detection list may span
    any number of frames.
    """
    if n_gt < 0:
        raise ValueError("n_gt must be >= 0")
    dets = sorted(detections, key=lambda d: -d[0])
    if n_gt == 0 or not dets:
        points = []
        tp = fp = 0
        for score, is_tp in dets:
            tp += is_tp
            fp += not is_tp
            prec = tp / (tp + fp)
            points.append((score, prec, 0.0 if n_gt == 0 else tp / n_gt))
        return PrCurve(points=tuple(points), ap=0.0, n_gt=n_gt, n_pred=len(dets))
    tp = fp = 0
    precision = []
    recall = []
    points = []
    for score, is_tp in dets:
        tp += is_tp
        fp += not is_tp
        precision.append(tp / (tp + fp))
        recall.append(tp / n_gt)
        points.append((score, precision[-1], recall[-1]))
    # precision envelope from the right, then sum rectangle areas at TP steps
    env = np.maximum.accumulate(np.array(precision)[::-1])[::-1]
    rec = np.array(recall)
    prev = np.concatenate([[0.0], rec[:-1]])
    ap = float(np.sum((rec - prev) * env))
    return PrCurve(points=tuple(points), ap=ap, n_gt=n_gt, n_pred=len(dets))


def evaluate(
    frames: Sequence[FrameSet],
    thresholds: Sequence[float] = (0.5, 0.25),
    bins: Sequence[tuple[float, float]] = DEFAULT_BINS,
    iou_fn: IouFn = iou3d,
    groups: Mapping[str, str] | None = None,
) -> ApReport:
    """Per-category, per-threshold, per-length-bin AP over a set of frames.

    ``bins`` must partition [0, inf) into [lo, hi) ranges.  ``groups`` maps
    category -> group name for aggregate APs (e.g. large vs car); mAP
    averages the "all"-bin AP over categories with at least one GT.
    """
    if not frames:
        raise ValueError("frame list must be non-empty")
    if not (
        bins
        and bins[0][0] == 0
        and bins[-1][1] == math.inf
        and all(lo < hi for lo, hi in bins)
        and all(prev[1] == nxt[0] for prev, nxt in zip(bins, bins[1:]))
    ):
        raise ValueError("length bins must start at 0, increase strictly, be contiguous and end at inf")
    categories = sorted(
        {b.category for f in frames for b in f.ground_truths}
        | {b.category for f in frames for b in f.predictions}
    )
    labels = [bin_label(b) for b in bins] + [ALL_BIN]
    curves: dict[tuple[str, float, str], PrCurve] = {}
    for thr in thresholds:
        for cat in categories:
            # detections per bin: (score, tp); GT counts per bin
            dets: dict[str, list[tuple[float, bool]]] = {lab: [] for lab in labels}
            n_gt: dict[str, int] = {lab: 0 for lab in labels}
            for frame in frames:
                for gt in frame.ground_truths:
                    if gt.category != cat:
                        continue
                    n_gt[_bin_of(gt.max_dim(), bins)] += 1
                    n_gt[ALL_BIN] += 1
                for pred_idx, gt_idx in match_greedy(frame, cat, thr, iou_fn):
                    pred = frame.predictions[pred_idx]
                    if gt_idx is not None:
                        lab = _bin_of(frame.ground_truths[gt_idx].max_dim(), bins)
                        entry = (pred.score, True)
                    else:
                        lab = _bin_of(pred.max_dim(), bins)
                        entry = (pred.score, False)
                    dets[lab].append(entry)
                    dets[ALL_BIN].append(entry)
            for lab in labels:
                curves[(cat, thr, lab)] = average_precision(dets[lab], n_gt[lab])
    map_per_threshold: dict[float, float] = {}
    for thr in thresholds:
        aps = [curves[(c, thr, ALL_BIN)].ap for c in categories if curves[(c, thr, ALL_BIN)].n_gt > 0]
        map_per_threshold[thr] = float(np.mean(aps)) if aps else 0.0
    group_ap: dict[tuple[str, float], float] = {}
    if groups:
        group_names = sorted(set(groups.values()))
        for thr in thresholds:
            for gname in group_names:
                aps = [
                    curves[(c, thr, ALL_BIN)].ap
                    for c in categories
                    if groups.get(c) == gname and curves[(c, thr, ALL_BIN)].n_gt > 0
                ]
                if aps:
                    group_ap[(gname, thr)] = float(np.mean(aps))
    return ApReport(
        curves=curves,
        map_per_threshold=map_per_threshold,
        group_ap=group_ap,
        categories=tuple(categories),
        thresholds=tuple(thresholds),
        bin_labels=tuple(labels),
    )


def center_nms(boxes: Sequence[Box3D], radius: float = 4.0) -> list[Box3D]:
    """Center-based 3D NMS: greedily keep the highest-score box and suppress
    same-category boxes whose BEV center lies within ``radius`` meters.

    Output is sorted by descending score; score ties keep input order.
    """
    if not radius > 0:
        raise ValueError("radius must be > 0")
    for box in boxes:
        if box.score is None:
            raise ValueError("center_nms requires scored boxes")
    order = sorted(range(len(boxes)), key=lambda i: -boxes[i].score)
    kept: list[Box3D] = []
    for i in order:
        box = boxes[i]
        suppressed = False
        for keeper in kept:
            if keeper.category != box.category:
                continue
            if math.hypot(keeper.x - box.x, keeper.z - box.z) < radius:
                suppressed = True
                break
        if not suppressed:
            kept.append(box)
    return kept


_SWAPPABLE = ("x", "y", "z", "l", "w", "h", "yaw")


def oracle_swap(frame: FrameSet, fields: Iterable[str], radius: float = 4.0) -> FrameSet:
    """Replace the selected fields of each prediction with those of the
    nearest ground truth when its BEV center distance is below ``radius``."""
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
        if best is not None and best_dist < radius and fields:
            pred = replace(pred, **{f: getattr(best, f) for f in fields})
        swapped.append(pred)
    return FrameSet(frame.frame_id, swapped, list(frame.ground_truths))


def seg_miou(
    pairs: Mapping[str, Sequence[tuple[BevGrid, BevGrid]]],
    binarize_threshold: float = 0.5,
    foreground: Iterable[str] | None = None,
) -> SegIoUReport:
    """Dataset-level segmentation IoU per category from (pred, gt) grid pairs.

    Intersections and unions accumulate over all frames before dividing;
    frames where both grids are empty contribute nothing.  Categories whose
    accumulated union stays empty are excluded from the means.
    """
    per_category: dict[str, float] = {}
    for cat, grid_pairs in pairs.items():
        inter = union = 0
        for pred, gt in grid_pairs:
            if pred.cells.shape != gt.cells.shape:
                raise ValueError(f"category {cat!r}: grid dimension mismatch")
            p = pred.cells >= binarize_threshold
            g = gt.cells >= binarize_threshold
            inter += int(np.sum(p & g))
            union += int(np.sum(p | g))
        per_category[cat] = inter / union if union else math.nan
    fg = set(foreground) if foreground is not None else set(pairs)
    fg_vals = [v for c, v in per_category.items() if c in fg and not math.isnan(v)]
    all_vals = [v for v in per_category.values() if not math.isnan(v)]
    return SegIoUReport(
        per_category=per_category,
        mean_foreground=float(np.mean(fg_vals)) if fg_vals else math.nan,
        mean_all=float(np.mean(all_vals)) if all_vals else math.nan,
    )
