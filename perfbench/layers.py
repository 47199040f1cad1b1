"""Where the traced run hooks into bevlab, and the per-layer metrics it
derives from the spans.

Each function is wrapped at the module attribute its callers look up, so a
call from inside the program is traced as well as one from the benchmark.
``evaluate``'s default ``iou_fn`` is bound when the function is defined,
so the traced ``evaluate`` passes a traced ``iou3d`` when its caller gives
no ``iou_fn``.
"""

from __future__ import annotations

import inspect
import math
import os

from tracing import Tracer
from workloads import LOWEST_THRESHOLD

# Span names whose calls and self time are reported, one per traced function.
FUNCTIONS = (
    "bench.theorem1_experiment",
    "bench.generate_scene",
    "bench.simulate_predictions",
    "bench.ray_box_iou",
    "metrics.evaluate",
    "metrics.match_greedy",
    "metrics.average_precision",
    "geometry.iou3d",
    "metrics.center_nms",
    "metrics.seg_miou",
    "sgd.run_trial.idealized",
    "sgd.run_trial.literal",
    "sgd.run_ensemble",
    "sgd.empirical_gradient_variance",
    "sgd.fit_lemma1",
    "sgd.sweep",
    "losses.gradient_array",
    "losses.loss_gradient",
    "losses.closed_form_variance",
    "geometry.rasterize",
    "geometry.grid_dice",
    "boxio.read_box_lines",
    "boxio.write_box_lines",
    "reports.write_csv",
    "cli.main",
    "gridio.write_grid",
    "gridio.read_grid",
)

# Spans whose inclusive time is reported as a share of the traced theorem1
# op time: the stage split of the paper's closed loop.
SHARES = ("metrics.evaluate", "bench.simulate_predictions", "sgd.run_trial")
SHARE_OP = "op.theorem1"

IOU_FUNCTIONS = ("bench.ray_box_iou", "geometry.iou3d")


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _is_axis_aligned(box) -> bool:
    # the rule rasterize uses to pick its exact path
    return abs(math.sin(box.yaw)) < 1e-9 or abs(math.cos(box.yaw)) < 1e-9


class Layers:
    """Traced bindings of every layer, installed around each traced op."""

    def __init__(self, bl) -> None:
        self.tracer = tracer = Tracer()
        self.totals: dict[str, dict[str, float]] = {}  # span name -> sums over traced rounds
        self.share_totals: dict[str, dict[str, float]] = {}  # the same, within SHARE_OP spans
        self.spans = 0
        counts = tracer.counts
        wrap = tracer.wrap

        def useful(result, args, kwargs, seconds):
            if result >= LOWEST_THRESHOLD:
                counts["iou_useful"] += 1

        def boxes_built(frame, args, kwargs, seconds):
            counts["bench.simulate_predictions.boxes"] += len(frame.predictions) + len(frame.ground_truths)

        def samples(result, args, kwargs, seconds):
            fn = bl.sgd.empirical_gradient_variance
            counts["sgd.empirical_gradient_variance.samples"] += _argument(fn, args, kwargs, "samples")

        def rasterized(grid, args, kwargs, seconds):
            boxes = args[0]
            path = "axis_aligned" if all(_is_axis_aligned(b) for b in boxes) else "rotated"
            counts["geometry.rasterize.boxes"] += len(boxes)
            counts[f"rasterize.boxes.{path}"] += len(boxes)
            counts[f"rasterize.seconds.{path}"] += seconds

        def file_bytes(name, path_arg, box_count=None):
            def after(result, args, kwargs, seconds):
                counts[f"{name}.bytes"] += os.path.getsize(args[path_arg])
                if box_count is not None:
                    counts[f"{name}.boxes"] += len(box_count(result, args))
            return after

        def traced_evaluate(evaluate):
            iou3d = wrap("geometry.iou3d", bl.geometry.iou3d, useful)

            def evaluate_with_traced_iou(frames, *args, **kwargs):
                if len(args) < 3 and "iou_fn" not in kwargs:
                    kwargs["iou_fn"] = iou3d
                return evaluate(frames, *args, **kwargs)

            return wrap("metrics.evaluate", evaluate_with_traced_iou)

        def trial_name(args, kwargs):
            return "sgd.run_trial." + (args[0] if args else kwargs["config"]).mode

        bench, metrics, sgd, losses = bl.bench, bl.metrics, bl.sgd, bl.losses
        self.bindings = [
            (bench, "theorem1_experiment", wrap("bench.theorem1_experiment", bench.theorem1_experiment)),
            (bench, "generate_scene", wrap("bench.generate_scene", bench.generate_scene)),
            (bench, "simulate_predictions",
             wrap("bench.simulate_predictions", bench.simulate_predictions, boxes_built)),
            (bench, "ray_box_iou", wrap("bench.ray_box_iou", bench.ray_box_iou, useful)),
            (bench, "run_trial", wrap(trial_name, bench.run_trial)),
            (bench, "evaluate", traced_evaluate(bench.evaluate)),
            (metrics, "evaluate", traced_evaluate(metrics.evaluate)),
            (metrics, "match_greedy", wrap("metrics.match_greedy", metrics.match_greedy)),
            (metrics, "average_precision", wrap("metrics.average_precision", metrics.average_precision)),
            (metrics, "center_nms", wrap("metrics.center_nms", metrics.center_nms)),
            (metrics, "seg_miou", wrap("metrics.seg_miou", metrics.seg_miou)),
            (sgd, "run_trial", wrap(trial_name, sgd.run_trial)),
            (sgd, "run_ensemble", wrap("sgd.run_ensemble", sgd.run_ensemble)),
            (sgd, "empirical_gradient_variance",
             wrap("sgd.empirical_gradient_variance", sgd.empirical_gradient_variance, samples)),
            (sgd, "fit_lemma1", wrap("sgd.fit_lemma1", sgd.fit_lemma1)),
            (sgd, "sweep", wrap("sgd.sweep", sgd.sweep)),
            (sgd, "gradient_array", wrap("losses.gradient_array", sgd.gradient_array)),
            (sgd, "closed_form_variance", wrap("losses.closed_form_variance", sgd.closed_form_variance)),
            (losses, "gradient_array", wrap("losses.gradient_array", losses.gradient_array)),
            (losses, "loss_gradient", wrap("losses.loss_gradient", losses.loss_gradient)),
            (losses, "closed_form_variance", wrap("losses.closed_form_variance", losses.closed_form_variance)),
            (bl.geometry, "rasterize", wrap("geometry.rasterize", bl.geometry.rasterize, rasterized)),
            (bl.geometry, "grid_dice", wrap("geometry.grid_dice", bl.geometry.grid_dice)),
            (bl.boxio, "read_box_lines", wrap("boxio.read_box_lines", bl.boxio.read_box_lines,
                                              file_bytes("boxio.read_box_lines", 0, lambda r, a: r))),
            (bl.boxio, "write_box_lines", wrap("boxio.write_box_lines", bl.boxio.write_box_lines,
                                               file_bytes("boxio.write_box_lines", 1, lambda r, a: a[0]))),
            (bl.reports, "write_csv", wrap("reports.write_csv", bl.reports.write_csv)),
            (bl.cli, "main", wrap("cli.main", bl.cli.main)),
            (bl.gridio, "write_grid", wrap("gridio.write_grid", bl.gridio.write_grid, file_bytes("gridio.write_grid", 1))),
            (bl.gridio, "read_grid", wrap("gridio.read_grid", bl.gridio.read_grid, file_bytes("gridio.read_grid", 0))),
        ]

    def install(self) -> None:
        for module, attr, traced in self.bindings:
            self.tracer.patch(module, attr, traced)

    def uninstall(self) -> None:
        self.tracer.unpatch()

    def fold(self) -> None:
        """Add the spans recorded since the last fold to the totals."""
        for totals, under in ((self.totals, None), (self.share_totals, SHARE_OP)):
            for name, sums in self.tracer.summary(under).items():
                total = totals.setdefault(name, dict.fromkeys(sums, 0.0))
                for key, value in sums.items():
                    total[key] += value
        self.spans += len(self.tracer)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        summary = self.totals
        counts = self.tracer.counts
        zero = {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        out = {}
        for name in FUNCTIONS:
            s = summary.get(name, zero)
            out[f"{name}.calls"] = s["calls"] / rounds
            out[f"{name}.self_s"] = s["self_s"] / rounds
        pairs = sum(summary.get(n, zero)["calls"] for n in IOU_FUNCTIONS)
        out["metrics.iou_pairs"] = pairs / rounds
        out["metrics.iou_useful_ratio"] = counts["iou_useful"] / pairs if pairs else 0.0
        for name in ("bench.simulate_predictions.boxes", "sgd.empirical_gradient_variance.samples",
                     "geometry.rasterize.boxes", "boxio.read_box_lines.boxes", "boxio.read_box_lines.bytes",
                     "boxio.write_box_lines.boxes", "boxio.write_box_lines.bytes", "gridio.write_grid.bytes",
                     "gridio.read_grid.bytes"):
            out[name] = counts[name] / rounds
        for path in ("rotated", "axis_aligned"):
            boxes = counts[f"rasterize.boxes.{path}"]
            out[f"geometry.rasterize.s_per_box.{path}"] = counts[f"rasterize.seconds.{path}"] / boxes if boxes else 0.0
        op_s = self.share_totals.get(SHARE_OP, zero)["total_s"]
        for name in SHARES:
            inclusive = sum(s["total_s"] for n, s in self.share_totals.items()
                            if n == name or n.startswith(name + "."))
            out[f"share.theorem1.{name}"] = inclusive / op_s if op_s else 0.0
        out["trace.spans"] = self.spans / rounds
        return out
