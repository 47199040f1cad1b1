"""The workloads: seeded input generators, the fixed round of ops each
times, and the checks of each op's output.  ``theorem1``, ``eval`` and
``bev_seg`` run together as the ``detection`` workload; ``lemma1`` runs
alone.

A workload hands the runner one round of ops at a time.  The runner times
each op on its own and calls :meth:`Workload.check` on its output outside
the timed region.  The checks test oracles and gates (a brute-force
evaluator, closed-form rules, conservation of area, statistical bounds), not
digests of today's floats, so they keep passing after a change that is exact
only in distribution.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from statistics import mean

import numpy as np

THRESHOLDS = (0.5, 0.25)
LOWEST_THRESHOLD = min(THRESHOLDS)
# Documented default length bins of the evaluator, each [lo, hi).
BINS = ((0.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, math.inf))


def derive(*key: int) -> int:
    """A 32-bit seed from a tuple of integers (workload seed first)."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


class Workload:
    """One round is a list of ``(callable, info)`` ops; ``info`` is handed
    back to :meth:`check` and :meth:`items` with the op's output."""

    name = ""

    def __init__(self, bl, seed: int, tmp: Path) -> None:
        self.bl = bl
        self.seed = seed
        self.tmp = tmp
        self.sample = None  # one checked output, for the self-check

    def setup(self) -> None:
        """Generate this workload's inputs from the seed."""

    def start(self, oracle) -> None:
        """Called once after the last set-up, with the brute-force evaluator."""

    def stop(self) -> None:
        """Called once the timed rounds are over."""

    def ops(self, r: int):
        raise NotImplementedError

    def op_name(self, info) -> str:
        """Name of the span around one traced op."""
        return "op"

    def check(self, out, info) -> tuple[int, int]:
        """(ops attempted, ops failed) for one timed call's output."""
        raise NotImplementedError

    def items(self, out, info) -> int:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; returns failure messages."""
        return []

    def self_check(self) -> bool:
        """True when a deliberately corrupted copy of a checked output fails
        the check."""
        raise NotImplementedError

    def shape(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------- theorem1

T1_LENGTH = 12.0
T1_SIGMA = 0.5
T1_DIM = 16
T1_STEPS = 5000
T1_OBJECTS = 10_000
T1_LOSSES = ("l1", "l2", "dice")
T1_CHECK_OBJECTS = 2000
T1_CHECK_CHUNK = 25
T1_CHECK_OFFSET = 4.0  # norm of the known weight error, meters per unit feature


def _tp_flags(curve) -> np.ndarray:
    """True-positive flag of each detection in the curve's visiting order."""
    recall = np.array([p[2] for p in curve.points])
    return np.diff(np.concatenate([[0.0], recall])) > 0


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """All-point-interpolated AP of a ranked TP/FP sequence."""
    if n_gt == 0 or len(flags) == 0:
        return 0.0
    precision = np.cumsum(flags) / np.arange(1, len(flags) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(envelope[flags]) / n_gt)


def along_ray_rule_failures(flags, ap, n_gt, err, threshold) -> list[str]:
    """Check matches and AP against |z_hat - z| <= l (1 - t) / (1 + t), the
    closed-form IoU >= t rule of equal-length intervals on one ray.  Objects
    within rounding of the boundary may go either way."""
    bound = T1_LENGTH * (1 - threshold) / (1 + threshold)
    want = err <= bound
    if len(flags) != len(err):
        return [f"t={threshold}: {len(flags)} detections for {len(err)} objects"]
    ambiguous = np.abs(err - bound) <= 1e-9 * bound
    bad = int(np.sum((flags != want) & ~ambiguous))
    if bad:
        return [f"t={threshold}: {bad} matches disagree with the closed-form rule"]
    if not ambiguous.any() and abs(_ap_from_flags(want, n_gt) - ap) > 1e-12:
        return [f"t={threshold}: AP {ap!r} differs from the closed-form {_ap_from_flags(want, n_gt)!r}"]
    return []


class Theorem1(Workload):
    name = "theorem1"

    def ops(self, r):
        lab = self.bl
        template = lab.sgd.SgdConfig(
            dim=T1_DIM, sigma=T1_SIGMA, loss=lab.losses.LossKind.l1(), steps=T1_STEPS, trials=1,
            base_seed=derive(self.seed, 1, r),
        )
        return [(lambda: lab.bench.theorem1_experiment(
            [T1_LENGTH], T1_SIGMA, template, 1, objects_per_category=T1_OBJECTS), None)]

    def setup(self):
        self.ap50 = defaultdict(list)

    def check(self, report, info):
        rows = report.rows
        ok = sorted(r.loss for r in rows) == sorted(T1_LOSSES) and all(
            0.0 <= r.ap50 <= r.ap25 <= 1.0 and math.isfinite(r.mean_abs_err) for r in rows
        )
        if ok:
            for row in rows:
                self.ap50[row.loss].append(row.ap50)
        return 1, int(not ok)

    def items(self, report, info):
        return len(report.rows) * T1_OBJECTS

    def known_weight_scene(self):
        """Score one scene predicted by a known weight; returns the report and
        each object's depth error."""
        lab = self.bl
        scene = lab.bench.generate_scene(lab.bench.SceneConfig(
            categories=(("obj", T1_LENGTH),), objects_per_category=T1_CHECK_OBJECTS, feature_dim=T1_DIM,
            sigma=T1_SIGMA, seed=derive(self.seed, 2),
        ))
        delta = np.random.default_rng(derive(self.seed, 3)).standard_normal(T1_DIM)
        w_star = scene.w_star
        delta -= (delta @ w_star) / (w_star @ w_star) * w_star
        weight = w_star + delta * (T1_CHECK_OFFSET / np.linalg.norm(delta))
        frame = lab.bench.simulate_predictions(scene, weight)
        frames = [
            lab.metrics.FrameSet(f"k{i}", frame.predictions[i : i + T1_CHECK_CHUNK],
                                 frame.ground_truths[i : i + T1_CHECK_CHUNK])
            for i in range(0, len(scene), T1_CHECK_CHUNK)
        ]
        report = lab.metrics.evaluate(frames, thresholds=THRESHOLDS, iou_fn=lab.bench.ray_box_iou)
        err = np.abs(scene.features @ weight - scene.depths)
        return report, err

    def finish(self):
        failures = []
        means = {loss: mean(v) for loss, v in self.ap50.items() if v}
        if len(means) != 3 or means["dice"] < max(means["l1"], means["l2"]):
            failures.append(f"mean AP50 of dice does not reach L1 and L2: {means}")
        report, err = self.known_weight_scene()
        for t in THRESHOLDS:
            curve = report.curves[("obj", t, "all")]
            failures += along_ray_rule_failures(_tp_flags(curve), curve.ap, curve.n_gt, err, t)
        self.sample = (report, err)
        return failures

    def self_check(self):
        report, err = self.sample
        curve = report.curves[("obj", 0.5, "all")]
        flags = _tp_flags(curve)
        flags[np.argmax(flags)] = False  # one flipped TP
        return bool(along_ray_rule_failures(flags, curve.ap, curve.n_gt, err, 0.5))

    def shape(self):
        return {
            "call": "bench.theorem1_experiment, one seed per op",
            "length_m": T1_LENGTH, "sigma_m": T1_SIGMA, "dim": T1_DIM, "steps": T1_STEPS,
            "objects_per_scene": T1_OBJECTS, "losses": list(T1_LOSSES),
            "op": "one seed: train and evaluate L1, L2 and dice",
            "item": "predicted box scored (one per object and loss)",
            "working_set": {"features_mb": T1_OBJECTS * T1_DIM * 8 / 1e6, "box3d_per_loss": 2 * T1_OBJECTS,
                            "sgd_features_mb": T1_STEPS * T1_DIM * 8 / 1e6},
        }


# -------------------------------------------------------------------- eval

EV_SUBMISSIONS = (0.25, 0.6, 1.2)  # position jitter of each submission, meters
EV_FRAMES = 20
EV_COLS, EV_ROWS, EV_SPACING = 6, 5, 40.0  # GT slots per frame: 30
EV_NMS_RADIUS = 4.0
EV_KEPT, EV_DUPLICATED = 27, 15  # GTs per frame with a prediction, and with a duplicate too
# name, length range, width range, height range (meters); lengths cover all bins
EV_CATEGORIES = (
    ("car", (3.8, 4.9), (1.6, 2.0), (1.4, 1.7)),
    ("truck", (5.5, 14.5), (2.3, 2.6), (2.8, 3.6)),
    ("trailer", (15.5, 19.0), (2.5, 2.6), (3.5, 4.0)),
)


def _box_record(frame, cat, x, y, z, l, w, h, yaw, score=None):
    rec = {"frame": frame, "category": cat, "x": x, "y": y, "z": z, "l": l, "w": w, "h": h, "yaw": yaw}
    if score is not None:
        rec["score"] = score
    return rec


def generate_eval_inputs(seed: int):
    """GT boxes on a 6 x 5 grid of 40 m slots per frame, and one prediction
    file per jitter level.  Most GTs get a jittered prediction, some also a
    lower-scored duplicate within the NMS radius; false positives sit between
    the slots, so no box overlaps a box of another slot."""
    rng = np.random.default_rng([seed, 0xE7A1])
    gts, subs = [], [[] for _ in EV_SUBMISSIONS]
    for f in range(EV_FRAMES):
        fid = f"f{f:03d}"
        cats = rng.permutation(np.repeat(np.arange(len(EV_CATEGORIES)), EV_COLS * EV_ROWS // len(EV_CATEGORIES)))
        frame_gts = []
        for slot, c in enumerate(cats):
            name, lr, wr, hr = EV_CATEGORIES[c]
            h = rng.uniform(*hr)
            frame_gts.append((name, -100.0 + EV_SPACING * (slot % EV_COLS) + rng.uniform(-3, 3), 0.5 * h,
                              20.0 + EV_SPACING * (slot // EV_COLS) + rng.uniform(-3, 3),
                              rng.uniform(*lr), rng.uniform(*wr), h, rng.uniform(-math.pi, math.pi)))
        fps = []
        for slot in range((EV_COLS - 1) * (EV_ROWS - 1)):
            name, lr, wr, hr = EV_CATEGORIES[rng.integers(len(EV_CATEGORIES))]
            h = rng.uniform(*hr)
            fps.append((name, -80.0 + EV_SPACING * (slot % (EV_COLS - 1)) + rng.uniform(-2, 2), 0.5 * h,
                        40.0 + EV_SPACING * (slot // (EV_COLS - 1)) + rng.uniform(-2, 2),
                        rng.uniform(*lr), rng.uniform(*wr), h, rng.uniform(-math.pi, math.pi)))
        # one draw per GT shared by every submission, scaled by its jitter; the
        # counts are fixed so that every seed asks for the same amount of work
        keep = rng.permutation(len(frame_gts)) < EV_KEPT
        dup = rng.permutation(len(frame_gts)) < EV_DUPLICATED
        unit = rng.standard_normal((len(frame_gts), 6))
        dup_angle = rng.uniform(-math.pi, math.pi, len(frame_gts))
        dup_dist = rng.uniform(1.0, 3.0, len(frame_gts))
        scores = rng.uniform(0.3, 1.0, len(frame_gts))
        dup_scale = rng.uniform(0.5, 0.95, len(frame_gts))
        fp_scores = rng.uniform(0.05, 0.6, len(fps))
        gts += [_box_record(fid, *g) for g in frame_gts]
        for s, jitter in enumerate(EV_SUBMISSIONS):
            preds = []
            for i, (name, x, y, z, l, w, h, yaw) in enumerate(frame_gts):
                if not keep[i]:
                    continue
                u = unit[i]
                px, pz = x + jitter * u[0], z + jitter * u[1]
                pl, pw, ph = l * math.exp(0.05 * u[2]), w * math.exp(0.05 * u[3]), h * math.exp(0.05 * u[4])
                pyaw = math.remainder(yaw + 0.1 * jitter * u[5], 2 * math.pi)
                preds.append(_box_record(fid, name, px, y, pz, pl, pw, ph, pyaw, float(scores[i])))
                if dup[i]:
                    preds.append(_box_record(
                        fid, name, px + dup_dist[i] * math.cos(dup_angle[i]), y,
                        pz + dup_dist[i] * math.sin(dup_angle[i]), pl, pw, ph, pyaw,
                        float(scores[i] * dup_scale[i])))
            preds += [_box_record(fid, *fp, score=float(sc)) for fp, sc in zip(fps, fp_scores)]
            order = rng.permutation(len(preds))
            subs[s] += [preds[k] for k in order]
    return gts, subs


def _write_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def _read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def nms_failures(inputs: list[dict], kept: list[dict], radius: float) -> list[str]:
    """Gate of greedy center NMS: kept boxes come from the input, no two kept
    boxes of one category and frame lie within the radius, and every dropped
    box lies within the radius of a kept box of its category scoring at
    least as high."""
    key = lambda r: (r["frame"], r["category"], r["x"], r["z"], r["score"])  # noqa: E731
    in_keys = {key(r) for r in inputs}
    kept_keys = {key(r) for r in kept}
    if not kept_keys <= in_keys or len(kept_keys) != len(kept):
        return ["NMS output holds boxes not in its input"]
    by_group = defaultdict(list)
    for r in kept:
        by_group[(r["frame"], r["category"])].append(r)
    for boxes in by_group.values():
        for a, b in itertools.combinations(boxes, 2):
            if math.hypot(a["x"] - b["x"], a["z"] - b["z"]) < radius:
                return ["NMS kept two boxes within the radius"]
    for r in inputs:
        if key(r) in kept_keys:
            continue
        if not any(k["score"] >= r["score"] and math.hypot(k["x"] - r["x"], k["z"] - r["z"]) < radius
                   for k in by_group[(r["frame"], r["category"])]):
            return ["NMS dropped a box no kept box suppresses"]
    return []


def split_into_clusters(frames, FrameSet) -> list:
    """Split each frame into groups of predictions and GTs of one category
    whose footprints may overlap (circumcircles intersect).  IoU is zero
    across groups, so greedy matching, and with it every AP, is unchanged,
    while each group is small enough for the brute-force oracle."""
    out = []
    for frame in frames:
        boxes = [("p", i, b) for i, b in enumerate(frame.predictions)]
        boxes += [("g", j, b) for j, b in enumerate(frame.ground_truths)]
        parent = list(range(len(boxes)))

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for a, b in itertools.combinations(range(len(boxes)), 2):
            ba, bb = boxes[a][2], boxes[b][2]
            if boxes[a][0] == boxes[b][0] or ba.category != bb.category:
                continue
            reach = 0.5 * (math.hypot(ba.l, ba.w) + math.hypot(bb.l, bb.w))
            if math.hypot(ba.x - bb.x, ba.z - bb.z) <= reach:
                parent[find(a)] = find(b)
        groups = defaultdict(list)
        for k in range(len(boxes)):
            groups[find(k)].append(boxes[k])
        for g, members in groups.items():
            # members keep file order, so score and GT-index ties break as before
            out.append(FrameSet(
                f"{frame.frame_id}:{g}",
                [b for kind, _, b in members if kind == "p"],
                [b for kind, _, b in members if kind == "g"],
            ))
    return out


@dataclass
class EvalOut:
    nms_rc: int
    eval_rc: int
    frames: list
    report: object


class Eval(Workload):
    name = "eval"

    def setup(self):
        gts, subs = generate_eval_inputs(self.seed)
        self.gt_path = self.tmp / "gt.jsonl"
        _write_jsonl(gts, self.gt_path)
        self.sub_paths = []
        self.predictions = [len(records) for records in subs]
        for s, records in enumerate(subs):
            path = self.tmp / f"pred{s}.jsonl"
            _write_jsonl(records, path)
            self.sub_paths.append(path)
        self.input_bytes = sum(p.stat().st_size for p in [self.gt_path, *self.sub_paths])

    def start(self, oracle) -> None:
        """Bind the oracle module and capture what ``metrics.evaluate``
        receives and returns, for the checks."""
        self.oracle = oracle
        self.captured = []
        evaluate = self.bl.metrics.evaluate

        def capturing(frames, *args, **kwargs):
            report = evaluate(frames, *args, **kwargs)
            self.captured.append((frames, report))
            return report

        self.bl.metrics.evaluate = capturing
        self._original_evaluate = evaluate

    def stop(self) -> None:
        self.bl.metrics.evaluate = self._original_evaluate

    def _op(self, s):
        main = self.bl.cli.main
        kept, table = self.tmp / f"kept{s}.jsonl", self.tmp / f"eval{s}.csv"
        self.captured.clear()
        with redirect_stdout(StringIO()):
            nms_rc = main(["nms", "--input", str(self.sub_paths[s]), "--radius", str(EV_NMS_RADIUS),
                           "--out", str(kept)])
            eval_rc = main(["eval", "--pred", str(kept), "--gt", str(self.gt_path), "--iou",
                            ",".join(map(str, THRESHOLDS)), "--out", str(table), "--deterministic"])
        frames, report = self.captured[-1] if self.captured else (None, None)
        return EvalOut(nms_rc, eval_rc, frames, report)

    def ops(self, r):
        return [(lambda s=s: self._op(s), s) for s in range(len(EV_SUBMISSIONS))]

    def failures(self, out: EvalOut, s: int) -> list[str]:
        if (out.nms_rc, out.eval_rc) != (0, 0) or out.report is None:
            return [f"exit codes {out.nms_rc}, {out.eval_rc}"]
        failures = nms_failures(_read_jsonl(self.sub_paths[s]), _read_jsonl(self.tmp / f"kept{s}.jsonl"),
                                EV_NMS_RADIUS)
        clusters = split_into_clusters(out.frames, self.bl.metrics.FrameSet)
        want = self.oracle.oracle_evaluate(clusters, THRESHOLDS, BINS, self.bl.geometry.iou3d)
        got = out.report.curves
        if set(want) != set(got):
            return failures + ["evaluate cells differ from the oracle's"]
        for cell, (ap, n_gt, n_pred) in want.items():
            curve = got[cell]
            if abs(curve.ap - ap) > 1e-12 or (curve.n_gt, curve.n_pred) != (n_gt, n_pred):
                failures.append(f"{cell}: AP {curve.ap!r} vs oracle {ap!r}")
        with open(self.tmp / f"eval{s}.csv", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")][1:]
        written = {(c, float(t), b): (float(ap), int(g), int(p)) for c, t, b, ap, g, p in rows}
        if set(written) != set(got) or any(
            abs(ap - got[k].ap) > 1e-8 or (g, p) != (got[k].n_gt, got[k].n_pred)
            for k, (ap, g, p) in written.items()
        ):
            failures.append("the CSV report disagrees with the evaluated APs")
        return failures

    def check(self, out, s):
        failed = bool(self.failures(out, s))
        if not failed and self.sample is None:
            self.sample = (out, s)
        return 1, int(failed)

    def items(self, out, s):
        return self.predictions[s]

    def self_check(self):
        out, s = self.sample
        cell = next(k for k, c in out.report.curves.items() if any(_tp_flags(c)))
        curve = out.report.curves[cell]
        flags = _tp_flags(curve)
        flags[np.argmax(flags)] = False  # one flipped TP
        dets = [(p[0], bool(f)) for p, f in zip(curve.points, flags)]
        corrupted = copy.copy(out.report)
        corrupted.curves = dict(out.report.curves)
        corrupted.curves[cell] = self.bl.metrics.average_precision(dets, curve.n_gt)
        return bool(self.failures(replace(out, report=corrupted), s))

    def shape(self):
        return {
            "call": "cli.main nms then cli.main eval, in process",
            "submissions": len(EV_SUBMISSIONS), "jitter_m": list(EV_SUBMISSIONS), "frames": EV_FRAMES,
            "gt_per_frame": EV_COLS * EV_ROWS, "predictions_per_frame": "about 60 before NMS",
            "categories": [c[0] for c in EV_CATEGORIES], "iou": list(THRESHOLDS),
            "op": "one submission: NMS and evaluation", "item": "prediction box (input to NMS)",
            "working_set": {"input_jsonl_bytes": self.input_bytes,
                            "gt_per_category_per_frame": EV_COLS * EV_ROWS // len(EV_CATEGORIES)},
        }


# ------------------------------------------------------------------ lemma1

# 500 trials keep the slope gate steady: its error has a heavy tail from the L2 points
L1_DIM, L1_STEPS, L1_TRIALS = 8, 5000, 500
L1_CONFIGS = (("l1", 1.0), ("l1", 0.5), ("l2", 0.25), ("l2", 0.5), ("l2", 1.0), ("dice4", 0.5), ("dice12", 0.5))
L1_SWEEP_SIGMAS = (0.25, 0.5, 2.0)
L1_SWEEP_LENGTH = 12.0
L1_SWEEP_STEPS, L1_SWEEP_TRIALS = 1000, 20
L1_VARIANCE_SAMPLES = 1_000_000  # the draw every ensemble and sweep row makes
L1_LITERAL_TRIALS = 8


@dataclass
class FitOut:
    fit: object
    points: list


class Lemma1(Workload):
    name = "lemma1"

    def _loss(self, name):
        kind = self.bl.losses.LossKind
        return {"l1": kind.l1, "l2": kind.l2}[name]() if name in ("l1", "l2") else kind.dice(float(name[4:]))

    def ops(self, r):
        sgd, losses = self.bl.sgd, self.bl.losses
        points = []

        def ensemble(i, name, sigma):
            loss = self._loss(name)
            stats = sgd.run_ensemble(sgd.SgdConfig(dim=L1_DIM, sigma=sigma, loss=loss, steps=L1_STEPS,
                                                   trials=L1_TRIALS, base_seed=derive(self.seed, 10, r, i)))
            points.append((losses.closed_form_variance(loss, losses.NoiseModel(sigma)), stats.mean_deviation_sq))
            return stats

        def fit():
            return FitOut(sgd.fit_lemma1(points), list(points))

        def sweep():
            template = sgd.SgdConfig(dim=L1_DIM, sigma=0.0, loss=losses.LossKind.l1(), steps=L1_SWEEP_STEPS,
                                     trials=L1_SWEEP_TRIALS, base_seed=derive(self.seed, 11, r))
            return sgd.sweep([L1_SWEEP_LENGTH], L1_SWEEP_SIGMAS, ["l1", "l2", "dice"], template)

        def literal():
            w_star = np.full(L1_DIM, 2.0 / math.sqrt(L1_DIM))
            return sgd.run_ensemble(sgd.SgdConfig(
                dim=L1_DIM, sigma=0.5, loss=losses.LossKind.l1(), steps=L1_STEPS, trials=L1_LITERAL_TRIALS,
                mode="literal", w_star=w_star, base_seed=derive(self.seed, 12, r)))

        ops = [(lambda i=i, c=c: ensemble(i, *c), ("ensemble", c)) for i, c in enumerate(L1_CONFIGS)]
        return ops + [(fit, ("fit", None)), (sweep, ("sweep", None)), (literal, ("literal", None))]

    def fit_ok(self, fit) -> bool:
        """Criterion 4: r^2 >= 0.98 and slope within 10% of s_T * dim."""
        expected = self.bl.sgd.StepSchedule().cumulative_square_sum(L1_STEPS) * L1_DIM
        return fit.r_squared >= 0.98 and abs(fit.c1 - expected) <= 0.10 * expected

    def _sampling_se(self, loss, sigma) -> float:
        """Standard error of a variance estimated from L1_VARIANCE_SAMPLES draws,
        estimated from a smaller independent sample."""
        eta = np.random.default_rng([self.seed, 13]).standard_normal(100_000) * sigma
        eps = self.bl.losses.gradient_array(loss, eta)
        return float(np.std((eps - eps.mean()) ** 2) / math.sqrt(L1_VARIANCE_SAMPLES))

    def row_ok(self, row) -> bool:
        loss = self._loss(row.loss if row.loss != "dice" else f"dice{row.length:g}")
        var_ok = abs(row.var_empirical - row.var_closed) <= max(
            0.01 * row.var_closed, 3 * self._sampling_se(loss, row.sigma))
        return var_ok and 0 < row.mean_dev < math.inf

    def check(self, out, info):
        kind, config = info
        if kind == "ensemble":
            # the ensembles' statistics are gated through the fit over all seven
            return 1, int(not (0 < out.mean_deviation_sq < math.inf and 0 < out.std_error < math.inf))
        if kind == "fit":
            ok = self.fit_ok(out.fit)
            if ok and self.sample is None:
                self.sample = out.points
            return 1, int(not ok)
        if kind == "sweep":
            expected_rows = 3 * len(L1_SWEEP_SIGMAS)
            return expected_rows, expected_rows - sum(self.row_ok(row) for row in out[:expected_rows])
        # literal mode starts at 0, |w_star|^2 = 4 away from the optimum
        ok = math.isfinite(out.mean_deviation_sq) and out.mean_deviation_sq < 0.1 * 4.0
        return 1, int(not ok)

    def items(self, out, info):
        kind = info[0]
        if kind == "ensemble":
            return L1_TRIALS * L1_STEPS
        if kind == "sweep":
            return len(out) * L1_SWEEP_TRIALS * L1_SWEEP_STEPS
        if kind == "literal":
            return L1_LITERAL_TRIALS * L1_STEPS
        return 0

    def self_check(self):
        (x, y), *rest = self.sample
        return not self.fit_ok(self.bl.sgd.fit_lemma1([(x, 1.5 * y), *rest]))  # one corrupted ensemble mean

    def shape(self):
        return {
            "call": "sgd.run_ensemble x7 + sgd.fit_lemma1, sgd.sweep, one literal sgd.run_ensemble",
            "ensembles": [list(c) for c in L1_CONFIGS], "dim": L1_DIM, "steps": L1_STEPS, "trials": L1_TRIALS,
            "sweep": {"losses": ["l1", "l2", "dice"], "length_m": L1_SWEEP_LENGTH,
                      "sigmas": list(L1_SWEEP_SIGMAS), "steps": L1_SWEEP_STEPS, "trials": L1_SWEEP_TRIALS},
            "literal": {"loss": "l1", "sigma": 0.5, "steps": L1_STEPS, "trials": L1_LITERAL_TRIALS},
            "variance_draw_samples": L1_VARIANCE_SAMPLES,
            "op": "one ensemble, the fit, or one sweep row", "item": "SGD step (trials x T)",
            "working_set": {"features_per_trial_mb": L1_STEPS * L1_DIM * 8 / 1e6,
                            "variance_draw_mb": L1_VARIANCE_SAMPLES * 8 / 1e6},
        }


# ----------------------------------------------------------------- bev_seg

BS_GRID = (500, 500)
BS_EXTENT = (-50.0, 50.0, 0.0, 100.0)
BS_SUPERSAMPLE = 4  # the rotated path's subsamples per cell side
BS_SLOT = 20.0  # one box per 20 m x 20 m slot, so boxes of a grid never overlap
# frame kind -> boxes per category; GT and prediction grids per category
# The rotated frame comes first, while few grids are held for seg_miou.
BS_ROUND = (("rotated", {"car": 1, "truck": 1}),) + (("axis", {"car": 6, "truck": 3}),) * 5
BS_SIZES = {"car": ((3.8, 4.8), (1.7, 2.0)), "truck": ((7.0, 12.0), (2.4, 2.8))}


def generate_bev_frames(seed: int):
    """Per frame and category: (GT boxes, predicted boxes) as plain tuples
    (x, z, l, w, yaw).  Axis-aligned frames use yaw 0 or pi/2 exactly;
    rotated frames stay at least 0.05 rad away from either axis."""
    rng = np.random.default_rng([seed, 0xB5E6])
    slots = [(BS_EXTENT[0] + BS_SLOT * (i + 0.5), BS_EXTENT[2] + BS_SLOT * (j + 0.5))
             for i in range(5) for j in range(5)]
    frames = []
    for kind, counts in BS_ROUND:
        chosen = iter(rng.permutation(len(slots)))
        frame = {}
        for cat, n in counts.items():
            (l_lo, l_hi), (w_lo, w_hi) = BS_SIZES[cat]
            gt, pred = [], []
            for _ in range(n):
                cx, cz = slots[next(chosen)]
                x, z = cx + rng.uniform(-2, 2), cz + rng.uniform(-2, 2)
                l, w = rng.uniform(l_lo, l_hi), rng.uniform(w_lo, w_hi)
                if kind == "axis":
                    yaw = float(rng.choice([0.0, math.pi / 2]))
                    pyaw = yaw
                else:
                    yaw = rng.choice([-1, 1]) * rng.uniform(0.05, math.pi / 2 - 0.05) + rng.choice([0, math.pi])
                    yaw = math.remainder(yaw, 2 * math.pi)
                    pyaw = yaw + rng.uniform(-0.02, 0.02)
                gt.append((x, z, l, w, yaw))
                pred.append((x + rng.uniform(-0.5, 0.5), z + rng.uniform(-0.5, 0.5),
                             l * rng.uniform(0.95, 1.05), w * rng.uniform(0.95, 1.05), pyaw))
            frame[cat] = (gt, pred)
        frames.append((kind, frame))
    return frames


def area_failures(grid, boxes, rotated: bool) -> list[str]:
    """Rasterized area against the boxes' area: exact on the axis-aligned
    path; on the supersampled path within the boundary error, at most
    sqrt(2) a P + 4 a^2 per box for subsample side a and perimeter P."""
    cell_area = grid.cell_width * grid.cell_depth
    got = float(grid.cells.sum()) * cell_area
    want = sum(b.l * b.w for b in boxes)
    if rotated:
        a = grid.cell_width / BS_SUPERSAMPLE
        tol = sum(math.sqrt(2) * a * 2 * (b.l + b.w) + 4 * a * a for b in boxes)
    else:
        tol = 1e-9 * max(want, cell_area)
    if abs(got - want) > tol:
        return [f"rasterized area {got!r} vs box area {want!r} (tolerance {tol:.3g})"]
    return []


@dataclass
class FrameOut:
    grids: dict  # category -> (gt raster, pred raster, gt read back, pred read back, dice)


class BevSeg(Workload):
    name = "bev_seg"

    def setup(self):
        lab = self.bl
        box = lab.geometry.Box3D
        self.template = lab.geometry.BevGrid(*BS_GRID, BS_EXTENT)
        self.frames = [
            (kind, {cat: tuple([box(x=x, y=0.0, z=z, l=l, w=w, h=1.5, yaw=yaw, category=cat)
                                for x, z, l, w, yaw in boxes] for boxes in pair)
                    for cat, pair in frame.items()})
            for kind, frame in generate_bev_frames(self.seed)
        ]

    def _frame(self, f):
        lab = self.bl
        out = {}
        for cat, (gt_boxes, pred_boxes) in self.frames[f][1].items():
            gt = lab.geometry.rasterize(gt_boxes, self.template)
            pred = lab.geometry.rasterize(pred_boxes, self.template)
            gt_path, pred_path = self.tmp / f"gt_{f}_{cat}.bevg", self.tmp / f"pred_{f}_{cat}.bevg"
            lab.gridio.write_grid(gt, gt_path)
            lab.gridio.write_grid(pred, pred_path)
            gt_back, pred_back = lab.gridio.read_grid(gt_path), lab.gridio.read_grid(pred_path)
            out[cat] = (gt, pred, gt_back, pred_back, lab.geometry.grid_dice(pred_back, gt_back))
        return FrameOut(out)

    def ops(self, r):
        pairs = defaultdict(list)

        def frame(f):
            out = self._frame(f)
            for cat, (_, _, gt_back, pred_back, _) in out.grids.items():
                pairs[cat].append((pred_back, gt_back))
            return out

        def seg():
            return self.bl.metrics.seg_miou(pairs), pairs

        ops = [(lambda f=f: frame(f), ("frame", f)) for f in range(len(self.frames))]
        return ops + [(seg, ("seg_miou", None))]

    def frame_failures(self, out: FrameOut, f: int) -> list[str]:
        kind, boxes = self.frames[f]
        failures = []
        for cat, (gt, pred, gt_back, pred_back, dice) in out.grids.items():
            for grid, back, bxs in ((gt, gt_back, boxes[cat][0]), (pred, pred_back, boxes[cat][1])):
                failures += area_failures(grid, bxs, kind == "rotated")
                if back.cells.shape != grid.cells.shape or np.max(np.abs(back.cells - grid.cells)) > 6e-8:
                    failures.append("grid read back differs beyond float32 rounding")
            p, g = pred_back.cells, gt_back.cells
            want = 2.0 * np.sum(p * g) / (p.sum() + g.sum())
            if abs(dice - want) > 1e-12:
                failures.append(f"grid_dice {dice!r} vs {want!r}")
        return failures

    @staticmethod
    def seg_failures(report, pairs) -> list[str]:
        failures = []
        for cat, grid_pairs in pairs.items():
            inter = sum(int(np.count_nonzero((p.cells >= 0.5) & (g.cells >= 0.5))) for p, g in grid_pairs)
            union = sum(int(np.count_nonzero((p.cells >= 0.5) | (g.cells >= 0.5))) for p, g in grid_pairs)
            if abs(report.per_category[cat] - inter / union) > 1e-12:
                failures.append(f"seg_miou[{cat}] {report.per_category[cat]!r} vs {inter / union!r}")
        return failures

    def check(self, out, info):
        kind, f = info
        if kind == "frame":
            failed = bool(self.frame_failures(out, f))
            if not failed and self.sample is None and self.frames[f][0] == "axis":
                self.sample = (out, f)
        else:
            failed = bool(self.seg_failures(*out))
        return 1, int(failed)

    def items(self, out, info):
        kind, f = info
        if kind != "frame":
            return 0
        return sum(len(gt) + len(pred) for gt, pred in self.frames[f][1].values())

    def self_check(self):
        out, f = self.sample
        cat, (gt, *rest) = next(iter(out.grids.items()))
        cells = gt.cells.copy()
        i = np.argmin(cells.sum(axis=1))  # an empty row, away from every box
        cells[i, 0] = 1.0  # one perturbed cell
        corrupted = FrameOut({**out.grids, cat: (replace(gt, cells=cells), *rest)})
        return bool(self.frame_failures(corrupted, f))

    def shape(self):
        return {
            "call": "geometry.rasterize, gridio .bevg round trip, geometry.grid_dice, metrics.seg_miou",
            "grid": list(BS_GRID), "extent_m": list(BS_EXTENT),
            "frames": [[kind, counts] for kind, counts in BS_ROUND],
            "op": "one frame (or the round's seg_miou)", "item": "box rasterized",
            "working_set": {"grid_mb": BS_GRID[0] * BS_GRID[1] * 8 / 1e6,
                            "bevg_file_bytes": 48 + BS_GRID[0] * BS_GRID[1] * 4,
                            "rotated_path_array_mb": BS_GRID[0] * BS_GRID[1] * BS_SUPERSAMPLE**2 * 8 / 1e6},
        }


# --------------------------------------------------------------- detection


class Detection(Workload):
    """theorem1, eval and bev_seg in one round: everything downstream of a
    depth estimate (boxes, IoU, matching, AP, BEV grids and their files),
    with SGD only in theorem1's training (about 2% of its time).  One
    workload with long runs, instead of three with short ones, keeps the
    run-to-run spread within the bounds on a host whose speed drifts over
    tens of seconds.  An op's ``info`` is (part index, the part's info)."""

    name = "detection"
    PARTS = (Theorem1, Eval, BevSeg)

    def __init__(self, bl, seed: int, tmp: Path) -> None:
        super().__init__(bl, seed, tmp)
        self.parts = [part(bl, seed, tmp) for part in self.PARTS]

    def setup(self):
        for part in self.parts:
            part.setup()

    def start(self, oracle):
        for part in self.parts:
            part.start(oracle)

    def stop(self):
        for part in reversed(self.parts):
            part.stop()

    def ops(self, r):
        return [(op, (k, info)) for k, part in enumerate(self.parts) for op, info in part.ops(r)]

    def op_name(self, info):
        return f"op.{self.parts[info[0]].name}"

    def check(self, out, info):
        return self.parts[info[0]].check(out, info[1])

    def items(self, out, info):
        return self.parts[info[0]].items(out, info[1])

    def finish(self):
        return [f"{part.name}: {message}" for part in self.parts for message in part.finish()]

    def self_check(self):
        return all(part.self_check() for part in self.parts)

    def shape(self):
        return {"item": "box scored or rasterized", **{part.name: part.shape() for part in self.parts}}


WORKLOADS = {w.name: w for w in (Detection, Lemma1)}
