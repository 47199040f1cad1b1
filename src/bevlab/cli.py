"""Command-line front-end tying the modules together.

Exit codes: 0 success, 2 flag errors, 3 output I/O failures, 4 input
failures: a file that cannot be read or parsed.  Every fault of a box, grid or
manifest file, and a --config byte that does not decode, is one
``boxio.BoxFormatError`` naming the file and, where there is one, the line.
Each entry of the JSON object named by --config is read as its flag given that
text (a list's items joined by commas, true/false switching an on/off flag);
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench, boxio, geometry, gridio, metrics, reports, sgd
from .losses import LossKind, NoiseModel, closed_form_variance, sigma_c
from .metrics import DEFAULT_BINS, FrameSet

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_OUTPUT_IO = 3
EXIT_INPUT_PARSE = 4


class OutputIOError(OSError):
    pass


def _write(fn, *args, **kwargs):
    """Run an output-writing call, converting OSError so it maps to the
    output-I/O exit code rather than the input-parse one."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise OutputIOError(str(exc)) from exc


def _write_report(args, header, rows, comments=()) -> None:
    """Write the command's CSV report to --out, if one is given, its header echoing every flag value."""
    if args.out:
        config = {key: value for key, value in vars(args).items() if key not in ("func", "config", "out")}
        _write(reports.write_csv, args.out, header, rows, config, args.deterministic, comments)


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip() != ""]


def _read_manifest(path, columns: str) -> list[tuple[int, list[str]]]:
    """(first physical line, stripped cells) of each row of a CSV manifest whose columns are
    named by ``columns``, e.g. "category,group"; comment and blank rows are skipped."""
    width = columns.count(",") + 1
    rows = []
    for line_no, row in gridio.csv_records(gridio.csv_reader(path), path):
        cells = [v.strip() for v in row]
        if not any(cells) or cells[0].startswith("#"):
            continue
        if len(cells) != width:
            raise boxio.BoxFormatError(path, line_no, f"expected {columns}")
        rows.append((line_no, cells))
    return rows


def cmd_variance(args) -> int:
    loss = LossKind.parse(args.loss, args.length, args.beta)
    closed = closed_form_variance(loss, NoiseModel(args.sigma))
    var, se = sgd.empirical_gradient_variance(loss, args.sigma, args.seed, args.samples)
    print(f"loss={loss.label()} sigma={reports.fmt(args.sigma)}")
    print(f"closed_form={reports.fmt(closed)}")
    print(f"empirical={reports.fmt(var)} std_error={reports.fmt(se)}")
    header = ["loss", "sigma", "var_closed", "var_empirical", "std_error"]
    _write_report(args, header, [[loss.label(), args.sigma, closed, var, se]])
    return EXIT_OK


def cmd_threshold(args) -> int:
    result = sigma_c(args.length)
    print(f"length={reports.fmt(result.length)}")
    print(f"sigma_m={reports.fmt(result.sigma_m)}")
    print(f"sigma_l1={reports.fmt(result.sigma_l1)}")
    print(f"sigma_c={reports.fmt(result.sigma_c)}")
    print(f"residual={reports.fmt(result.solver_residual)} iterations={result.iterations}")
    row = [result.length, result.sigma_m, result.sigma_l1, result.sigma_c, result.solver_residual, result.iterations]
    _write_report(args, ["length", "sigma_m", "sigma_l1", "sigma_c", "residual", "iterations"], [row])
    return EXIT_OK


def _ensemble_config(args, loss: LossKind, sigma: float) -> sgd.SgdConfig:
    return sgd.SgdConfig(dim=args.dim, sigma=sigma, loss=loss, steps=args.steps, trials=args.trials, mode=args.mode,
                         base_seed=args.seed)


def cmd_sweep(args) -> int:
    template = _ensemble_config(args, LossKind.l1(), 0.0)
    rows = sgd.sweep(args.lengths, args.sigmas, args.losses, template)
    header = ["loss", "length", "sigma", "var_closed", "var_empirical", "mean_dev", "std_err"]
    table = [[r.loss, r.length, r.sigma, r.var_closed, r.var_empirical, r.mean_dev, r.std_err] for r in rows]
    if args.out:
        _write_report(args, header, table)
        if args.format == "csv+svg":
            series: dict[str, list[tuple[float, float]]] = {}
            for r in rows:
                key = r.loss if r.loss != "dice" else f"dice(l={r.length:g})"
                y = r.var_closed if r.var_closed is not None else r.var_empirical
                series.setdefault(key, []).append((r.sigma, y))
            svg_path = str(args.out).rsplit(".", 1)[0] + ".svg"
            _write(reports.svg_line_plot, svg_path, series, "noise sigma (m)", "gradient variance", log_y=args.log_y)
    else:
        print(",".join(header))
        for row in table:
            print(",".join(reports.fmt(v) for v in row))
    return EXIT_OK


def cmd_sgd(args) -> int:
    loss = LossKind.parse(args.loss, args.length, args.beta)
    stats = sgd.run_ensemble(_ensemble_config(args, loss, args.sigma))
    var = stats.empirical_grad_variance  # drawn before any line is printed: it can raise
    print(f"loss={loss.label()} sigma={reports.fmt(args.sigma)} mode={args.mode}")
    print(f"mean_deviation_sq={reports.fmt(stats.mean_deviation_sq)} std_error={reports.fmt(stats.std_error)}")
    print(f"empirical_grad_variance={reports.fmt(var)}")
    _write_report(
        args,
        ["loss", "sigma", "mode", "mean_dev", "std_err", "var_empirical"],
        [[loss.label(), args.sigma, args.mode, stats.mean_deviation_sq, stats.std_error, var]],
    )
    return EXIT_OK


def cmd_theorem1(args) -> int:
    template = sgd.SgdConfig(dim=args.dim, sigma=args.sigma, loss=LossKind.l1(), steps=args.steps, base_seed=args.seed)
    report = bench.theorem1_experiment(args.length, args.sigma, template, args.seeds, objects_per_category=args.objects)
    comments = []
    for ell in args.length:
        flag = "met" if report.precondition_met[ell] else "NOT met"
        comments.append(
            f"length {ell:g}: sigma_c={report.sigma_c[ell]:.6g}, precondition sigma >= sigma_c {flag}"
        )
        if not report.precondition_met[ell]:
            print(f"warning: precondition sigma >= sigma_c not met for length {ell:g}", file=sys.stderr)
    header = ["loss", "length", "sigma", "seed", "ap50", "ap25", "mean_abs_err"]
    table = [[r.loss, r.length, r.sigma, r.seed, r.ap50, r.ap25, r.mean_abs_err] for r in report.rows]
    _write_report(args, header, table, comments)
    for ell in args.length:
        print(f"length={ell:g} sigma={reports.fmt(args.sigma)} sigma_c={reports.fmt(report.sigma_c[ell])}")
        for loss in ("l1", "l2", "dice"):
            print(
                f"  {loss}: mean_ap50={reports.fmt(report.mean_ap50[(loss, ell)])} "
                f"mean_ap25={reports.fmt(report.mean_ap25[(loss, ell)])}"
            )
        print(
            f"  dice win rate vs l1={reports.fmt(report.win_rate_vs_l1[ell])} "
            f"vs l2={reports.fmt(report.win_rate_vs_l2[ell])}"
        )
    return EXIT_OK


def _require_scores(lines: boxio.BoxLines, path, fault: str) -> None:
    """Raise naming the frame of the first unscored box in file order, as ``frame 'F' <fault>``."""
    unscored = np.flatnonzero(np.isnan(lines.boxes.scores))
    if len(unscored):
        frame = lines.frame_names[lines.frame_codes[unscored[0]]]
        raise boxio.BoxFormatError(path, None, f"frame {frame!r} {fault}")


def _frames_from_files(pred_path, gt_path) -> list[FrameSet]:
    preds, gts = boxio.read_box_lines(pred_path), boxio.read_box_lines(gt_path)
    _require_scores(preds, pred_path, "has an unscored prediction")
    if not len(preds) and not len(gts):
        raise boxio.BoxFormatError(f"{pred_path}, {gt_path}", None, "no boxes to evaluate")
    pred_frames, gt_frames = preds.by_frame(), gts.by_frame()
    none = geometry.BoxArray((), (), ())
    return [
        FrameSet.from_columns(frame_id, pred_frames.get(frame_id, none), gt_frames.get(frame_id, none))
        for frame_id in sorted(set(pred_frames) | set(gt_frames))
    ]


def _parse_bins(text: str):
    """Bin edges e0,e1,...,en become [e0,e1), ..., [en,inf); evaluate checks
    that they partition [0, inf)."""
    edges = _float_list(text) + [math.inf]
    return tuple(zip(edges, edges[1:]))


def cmd_eval(args) -> int:
    frames = _frames_from_files(args.pred, args.gt)
    groups = None
    if args.groups:
        groups = {cat: group for _, (cat, group) in _read_manifest(args.groups, "category,group")}
    report = metrics.evaluate(frames, thresholds=args.iou, bins=args.bins, groups=groups)
    header = ["category", "threshold", "bin", "ap", "n_gt", "n_pred"]
    table = []
    for cat in report.categories:
        for thr in report.thresholds:
            for lab in report.bin_labels:
                curve = report.curves[(cat, thr, lab)]
                table.append([cat, thr, lab, curve.ap, curve.n_gt, curve.n_pred])
    comments = [f"mAP@{thr:g} = {report.map_per_threshold[thr]:.9g}" for thr in report.thresholds]
    comments += [f"AP[{g}]@{thr:g} = {ap:.9g}" for (g, thr), ap in sorted(report.group_ap.items())]
    _write_report(args, header, table, comments)
    print(f"{'category':<16}{'thr':>6}{'bin':>10}{'ap':>12}{'n_gt':>7}{'n_pred':>8}")
    for cat, thr, lab, ap, n_gt, n_pred in table:
        print(f"{cat:<16}{thr:>6g}{lab:>10}{ap:>12.4f}{n_gt:>7}{n_pred:>8}")
    for line in comments:
        print(line)
    return EXIT_OK


def cmd_nms(args) -> int:
    metrics.check_ranges(radius=args.radius)
    lines = boxio.read_box_lines(args.input)
    _require_scores(lines, args.input, "has an unscored box; NMS requires scores")
    kept = lines.take(metrics.center_nms_rows(lines.frame_codes, lines.boxes, args.radius))
    _write(boxio.write_box_lines, kept, args.out)
    print(f"kept {len(kept)} of {len(lines)} boxes")
    return EXIT_OK


def cmd_rasterize(args) -> int:
    lines = boxio.read_box_lines(args.input)
    grid = geometry.rasterize(lines.boxes, geometry.BevGrid(args.rows, args.cols, tuple(args.extent)))
    _write(gridio.write_grid, grid, args.out)
    print(f"rasterized {len(lines)} boxes onto {args.rows}x{args.cols} grid -> {args.out}")
    return EXIT_OK


def cmd_seg_iou(args) -> int:
    metrics.check_ranges(binarize_threshold=args.threshold)
    pairs: dict[str, list] = {}
    for line_no, (cat, pred_path, gt_path) in _read_manifest(args.pairs, "category,pred_path,gt_path"):
        try:
            pred, gt = gridio.read_grid(pred_path), gridio.read_grid(gt_path)
        except (OSError, boxio.BoxFormatError) as exc:  # each grid fault under the manifest line that names the grid
            raise boxio.BoxFormatError(args.pairs, line_no, str(exc)) from exc
        if pred.cells.shape != gt.cells.shape:
            shapes = f"{pred.cells.shape} vs {gt.cells.shape}"
            raise boxio.BoxFormatError(args.pairs, line_no, f"grid shapes differ: {shapes}")
        pairs.setdefault(cat, []).append((pred, gt))
    report = metrics.seg_miou(pairs, binarize_threshold=args.threshold)
    table = [[cat, iou] for cat, iou in sorted(report.per_category.items())]
    _write_report(args, ["category", "iou"], table, [f"mean_foreground = {report.mean_foreground:.9g}"])
    for cat, iou in table:
        print(f"{cat:<16}{iou:.6f}")
    print(f"mean_foreground={reports.fmt(report.mean_foreground)}")
    return EXIT_OK


_LOSS_FLAGS = (("--loss", dict(required=True)), ("--length", dict(type=float, default=None)),
               ("--beta", dict(type=float, default=1.0)), ("--sigma", dict(type=float, required=True)))
_ENSEMBLE_FLAGS = (("--trials", dict(type=int, default=200)), ("--steps", dict(type=int, default=1000)),
                   ("--dim", dict(type=int, default=8)),
                   ("--mode", dict(choices=["idealized", "literal"], default="idealized")))

# name -> (function, help, flags beyond the shared ones): the one declaration of each sub-command
COMMANDS = {
    "variance": (cmd_variance, "closed-form and Monte Carlo gradient variance",
                 _LOSS_FLAGS + (("--samples", dict(type=int, default=sgd.VARIANCE_SAMPLES)),)),
    "threshold": (cmd_threshold, "critical noise threshold for an object length",
                  (("--length", dict(type=float, required=True)),)),
    "sweep": (cmd_sweep, "loss/length/sigma convergence sweep", (
        ("--lengths", dict(type=_float_list, required=True)),
        ("--sigmas", dict(type=_float_list, required=True)),
        ("--losses", dict(type=_str_list, required=True)),
        *_ENSEMBLE_FLAGS,
        ("--format", dict(choices=["csv", "csv+svg"], default="csv")),
        ("--log-y", dict(action="store_true")),
    )),
    "sgd": (cmd_sgd, "single Monte Carlo SGD ensemble", _LOSS_FLAGS + _ENSEMBLE_FLAGS),
    "theorem1": (cmd_theorem1, "dice-vs-regression AP experiment", (
        ("--length", dict(type=_float_list, required=True)),
        ("--sigma", dict(type=float, required=True)),
        ("--seeds", dict(type=int, default=20)),
        ("--objects", dict(type=int, default=10_000)),
        ("--steps", dict(type=int, default=5000)),
        ("--dim", dict(type=int, default=16)),
    )),
    "eval": (cmd_eval, "AP3D evaluation of prediction/GT box files", (
        ("--pred", dict(required=True)),
        ("--gt", dict(required=True)),
        ("--iou", dict(type=_float_list, default=(0.5, 0.25))),
        ("--bins", dict(type=_parse_bins, default=DEFAULT_BINS)),
        ("--groups", dict(default=None, help="CSV mapping category,group")),
    )),
    "nms": (cmd_nms, "center-based 3D NMS on a box file",
            (("--input", dict(required=True)), ("--radius", dict(type=float, default=4.0)))),
    "rasterize": (cmd_rasterize, "rasterize boxes onto a BEV grid", (
        ("--input", dict(required=True)),
        ("--rows", dict(type=int, required=True)),
        ("--cols", dict(type=int, required=True)),
        ("--extent", dict(type=_float_list, required=True)),
    )),
    "seg-iou": (cmd_seg_iou, "dataset-level segmentation IoU from grid pairs", (
        ("--pairs", dict(required=True, help="CSV manifest: category,pred_path,gt_path")),
        ("--threshold", dict(type=float, default=0.5)),
    )),
}


def command_parser(name: str, p: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """The parser of sub-command ``name``, as the whole tree builds it (into
    ``p``, if given): the shared flags, then its own."""
    func, _, flags = COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"bevlab {name}") if p is None else p
    p.set_defaults(func=func, command=name)
    p.add_argument("--config", help="JSON file of flag values")
    p.add_argument("--seed", type=int, default=0, help="base seed for all stochastic work")
    p.add_argument("--deterministic", action="store_true", help="suppress timestamps in output headers")
    p.add_argument("--out", default=None, help="output file path")
    for flag, kwargs in flags:
        p.add_argument(flag, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: it answers ``-h`` and a missing or unknown command."""
    parser = argparse.ArgumentParser(prog="bevlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        command_parser(name, subs.add_parser(name, help=help_text))
    return parser


def _error(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(sub_parser: argparse.ArgumentParser, argv: list[str]) -> tuple[int, list[str]]:
    """The JSON object named by ``--config`` in ``argv``, if any, as flag tokens to
    parse ahead of ``argv``, so that explicit flags win.  Returns the exit code,
    EXIT_OK unless the file is unusable, and the tokens."""
    pre = argparse.ArgumentParser(prog=sub_parser.prog, add_help=False)
    for action in sub_parser._actions:  # every one a flag: the same option strings resolve abbreviations alike
        store = "store_true" if action.nargs == 0 else "store"
        pre.add_argument(*action.option_strings, dest=action.dest, action=store)
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return EXIT_OK, []
    try:
        config = json.loads(boxio.read_text(path))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        return _error(f"cannot read --config: {exc}", EXIT_INPUT_PARSE), []
    if not isinstance(config, dict):
        return _error("--config must hold a JSON object", EXIT_INPUT_PARSE), []
    actions = {a.dest: a for a in sub_parser._actions if a.dest not in ("help", "config")}
    bad = set(config) - set(actions)
    if bad:
        return _error(f"unknown config keys: {sorted(bad)}", EXIT_FLAGS), []
    tokens = []
    for key, value in config.items():  # null adds nothing, and false adds nothing to an on/off flag
        flag, items = actions[key].option_strings[0], value if isinstance(value, list) else [value]
        if actions[key].nargs == 0 and isinstance(value, bool):
            tokens += [flag] if value else []
        elif value is not None:
            tokens.append(f"{flag}=" + ",".join(v if isinstance(v, str) else json.dumps(v) for v in items))
    return EXIT_OK, tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:  # only the invoked sub-command's parser is built
        sub_parser = command_parser(argv[0])
        code, config = _load_config(sub_parser, argv[1:])
        if code != EXIT_OK:
            return code
        args, extra = sub_parser.parse_known_args(config + argv[1:])  # a later flag wins
        if extra:  # reported by the whole tree, as when it parses the sub-command
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = build_parser().parse_args(argv)
        sub_parser = command_parser(args.command)
    if args.command in ("nms", "rasterize") and not args.out:
        sub_parser.error(f"{args.command} requires --out")
    try:
        return args.func(args)
    except OutputIOError as exc:
        return _error(str(exc), EXIT_OUTPUT_IO)
    # every other OSError comes from reading input: outputs are written through _write
    except (boxio.BoxFormatError, OSError) as exc:
        return _error(str(exc), EXIT_INPUT_PARSE)
    except ValueError as exc:
        sub_parser.error(str(exc))
    except MemoryError:  # a size flag asked for more than the process may allocate
        # theorem1 frees each seed's scene and weights before the next, so a lower --seeds frees nothing
        sizes = [flag for flag, kwargs in COMMANDS[args.command][2] if kwargs.get("type") is int and flag != "--seeds"]
        if not sizes:
            raise
        sub_parser.error(f"out of memory; lower {', '.join(sizes)}")
