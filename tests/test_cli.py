import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bevlab
from bevlab import boxio, cli, gridio, sgd
from bevlab.cli import EXIT_FLAGS, EXIT_INPUT_PARSE, EXIT_OK, EXIT_OUTPUT_IO, main
from bevlab.geometry import BevGrid, Box3D, rasterize


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def box_record(frame="f0", category="car", x=0.0, y=0.0, z=10.0, l=4.0, w=2.0, h=1.5, yaw=0.0, score=None):
    rec = dict(frame=frame, category=category, x=x, y=y, z=z, l=l, w=w, h=h, yaw=yaw)
    if score is not None:
        rec["score"] = score
    return rec


class TestVariance:
    def test_l1_closed_form(self, capsys):
        assert main(["variance", "--loss", "l1", "--sigma", "1.0", "--samples", "10000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "closed_form=1" in out
        assert "empirical=" in out

    def test_smooth_l1_has_no_closed_form(self, capsys):
        assert main(["variance", "--loss", "smooth_l1", "--sigma", "1.0", "--samples", "10000"]) == EXIT_OK
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("closed_form=")][0]
        assert line == "closed_form="  # no closed form for smooth L1

    def test_dice_requires_length(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--loss", "dice", "--sigma", "0.5"])
        assert exc.value.code == 2

    def test_deterministic_output_is_byte_identical(self, tmp_path, capsys):
        argv = [
            "variance", "--loss", "dice", "--length", "12", "--sigma", "0.5",
            "--samples", "10000", "--deterministic",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(out_a)]) == EXIT_OK
        assert main(argv + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        text = out_a.read_text()
        assert text.startswith("# bevlab v")
        assert "# config:" in text

    def test_output_dir_missing_is_io_error(self, tmp_path, capsys):
        code = main(
            ["variance", "--loss", "l1", "--sigma", "1", "--samples", "1000",
             "--out", str(tmp_path / "no" / "dir" / "x.csv")]
        )
        assert code == EXIT_OUTPUT_IO


class TestThreshold:
    def test_length_four(self, capsys):
        assert main(["threshold", "--length", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        sigma_c = float([l for l in out.splitlines() if l.startswith("sigma_c=")][0].split("=")[1])
        assert sigma_c == pytest.approx(0.25, abs=0.005)

    def test_length_twelve(self, capsys):
        assert main(["threshold", "--length", "12"]) == EXIT_OK
        out = capsys.readouterr().out
        sigma_m = float([l for l in out.splitlines() if l.startswith("sigma_m=")][0].split("=")[1])
        assert sigma_m == pytest.approx(0.0833, abs=0.002)


class TestSweep:
    def test_stdout_table(self, capsys):
        argv = [
            "sweep", "--lengths", "12", "--sigmas", "0.5,1.0", "--losses", "l1,dice",
            "--trials", "10", "--steps", "50", "--dim", "2",
        ]
        assert main(argv) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines[0].startswith("loss,length,sigma")
        assert len(lines) == 1 + 4  # header + 2 losses x 1 length x 2 sigmas

    def test_csv_and_svg_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--lengths", "12", "--sigmas", "0.2,0.8", "--losses", "l2,dice",
            "--trials", "5", "--steps", "20", "--dim", "2", "--format", "csv+svg",
            "--deterministic", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        assert out.exists()
        svg = tmp_path / "sweep.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")
        data_rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 1 + 4

    def test_var_empirical_matches_the_variance_command(self, capsys):
        argv = ["sweep", "--lengths", "4", "--sigmas", "0,0.5,6", "--losses", "l2,dice",
                "--trials", "2", "--steps", "5", "--dim", "2", "--seed", "17"]
        assert main(argv) == EXIT_OK
        header, *rows = [l.split(",") for l in capsys.readouterr().out.splitlines() if l]
        assert len(rows) == 6
        for row in (dict(zip(header, cells)) for cells in rows):
            loss = ["--loss", row["loss"]] + (["--length", row["length"]] if row["loss"] == "dice" else [])
            assert main(["variance", *loss, "--sigma", row["sigma"], "--seed", "17"]) == EXIT_OK
            assert f"empirical={row['var_empirical']} " in capsys.readouterr().out


class TestSgd:
    def test_runs(self, capsys):
        argv = ["sgd", "--loss", "l2", "--sigma", "0.5", "--trials", "10", "--steps", "50", "--dim", "2"]
        assert main(argv) == EXIT_OK
        assert "mean_deviation_sq=" in capsys.readouterr().out


class TestTheorem1:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "thm.csv"
        argv = [
            "theorem1", "--length", "12", "--sigma", "0.5", "--seeds", "2",
            "--objects", "100", "--steps", "200", "--dim", "8",
            "--deterministic", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "dice win rate vs l1=" in stdout
        data_rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 1 + 3 * 2  # header + 3 losses x 2 seeds


class TestEval:
    def _write_pair(self, tmp_path):
        gts = [
            box_record(z=10.0),
            box_record(x=30.0, z=10.0),
        ]
        preds = [
            box_record(z=10.0, score=0.9),
            box_record(x=60.0, z=10.0, score=0.8),  # far from any GT
            box_record(x=30.0, z=10.0, score=0.7),
        ]
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_jsonl(pred_path, preds)
        write_jsonl(gt_path, gts)
        return pred_path, gt_path

    def test_known_ap(self, tmp_path, capsys):
        pred_path, gt_path = self._write_pair(tmp_path)
        assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == EXIT_OK
        out = capsys.readouterr().out
        # ranked TP, FP, TP with 2 GTs: AP = 0.5 + 0.5 * 2/3 = 5/6
        assert "mAP@0.5 = 0.833333333" in out
        assert "mAP@0.25 = 0.833333333" in out

    def test_csv_output_and_groups(self, tmp_path, capsys):
        pred_path, gt_path = self._write_pair(tmp_path)
        groups = tmp_path / "groups.csv"
        groups.write_text("car,small\n")
        out = tmp_path / "eval.csv"
        argv = [
            "eval", "--pred", str(pred_path), "--gt", str(gt_path),
            "--groups", str(groups), "--deterministic", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        text = out.read_text()
        assert "# AP[small]@0.5 = 0.833333333" in text
        rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")]
        header = rows[0]
        all_row = [r for r in rows[1:] if r[2] == "all" and r[1] == "0.5"][0]
        assert float(all_row[header.index("ap")]) == pytest.approx(5 / 6, abs=1e-9)

    def test_custom_bins(self, tmp_path, capsys):
        pred_path, gt_path = self._write_pair(tmp_path)
        assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path), "--bins", "0,3,6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[3,6)" in out
        assert "[6,inf)" in out

    def test_missing_input(self, tmp_path):
        assert main(["eval", "--pred", str(tmp_path / "nope.jsonl"), "--gt", str(tmp_path / "gt.jsonl")]) == EXIT_INPUT_PARSE

    def test_malformed_jsonl(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        pred_path.write_text("{not json\n")
        write_jsonl(gt_path, [box_record()])
        assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == EXIT_INPUT_PARSE

    def test_unscored_prediction(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_jsonl(pred_path, [box_record()])  # missing score
        write_jsonl(gt_path, [box_record()])
        assert main(["eval", "--pred", str(pred_path), "--gt", str(gt_path)]) == EXIT_INPUT_PARSE


class TestNms:
    def test_round_trip(self, tmp_path, capsys):
        inp = tmp_path / "boxes.jsonl"
        out = tmp_path / "kept.jsonl"
        write_jsonl(
            inp,
            [
                box_record(score=0.9),
                box_record(x=2.0, score=0.7),  # duplicate within 4 m
                box_record(x=50.0, score=0.6),
                box_record(frame="f1", score=0.5),
            ],
        )
        assert main(["nms", "--input", str(inp), "--out", str(out)]) == EXIT_OK
        lines = boxio.read_box_lines(out)
        kept = list(zip(lines.frames(), lines.boxes.boxes()))
        assert len(kept) == 3
        f0_scores = [b.score for f, b in kept if f == "f0"]
        assert f0_scores == [0.9, 0.6]

    def test_requires_out(self, tmp_path):
        inp = tmp_path / "boxes.jsonl"
        write_jsonl(inp, [box_record(score=0.9)])
        with pytest.raises(SystemExit) as exc:
            main(["nms", "--input", str(inp)])
        assert exc.value.code == 2

    def test_unscored_box_rejected(self, tmp_path):
        inp = tmp_path / "boxes.jsonl"
        write_jsonl(inp, [box_record()])
        assert main(["nms", "--input", str(inp), "--out", str(tmp_path / "o.jsonl")]) == EXIT_INPUT_PARSE


class TestUnscoredFrame:
    """The frame an unscored-box error names: the frame of the first such
    box in the file for nms; for eval, the first frame, in order of first
    appearance, holding one."""

    def _write(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_jsonl(path, [box_record(frame="A", score=0.9), box_record(frame="B"), box_record(frame="A", x=5.0)])
        return str(path)

    def test_nms(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert main(["nms", "--input", path, "--out", str(tmp_path / "o.jsonl")]) == EXIT_INPUT_PARSE
        assert f"{path}: frame 'B' has an unscored box" in capsys.readouterr().err

    def test_eval(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert main(["eval", "--pred", path, "--gt", path]) == EXIT_INPUT_PARSE
        assert f"{path}: frame 'A' has an unscored prediction" in capsys.readouterr().err


class TestRasterize:
    def test_grid_written(self, tmp_path, capsys):
        inp = tmp_path / "boxes.jsonl"
        out = tmp_path / "grid.bevg"
        write_jsonl(inp, [box_record(x=0.0, z=25.0, l=2.0, w=2.0)])
        argv = [
            "rasterize", "--input", str(inp), "--rows", "100", "--cols", "10",
            "--extent=-5,5,0,50", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        grid = gridio.read_grid(out)
        assert grid.cells.shape == (100, 10)
        cell_area = grid.cell_width * grid.cell_depth
        assert grid.cells.sum() * cell_area == pytest.approx(4.0, rel=0.05)

    def test_bad_extent(self, tmp_path):
        inp = tmp_path / "boxes.jsonl"
        write_jsonl(inp, [box_record()])
        with pytest.raises(SystemExit) as exc:
            main(["rasterize", "--input", str(inp), "--rows", "10", "--cols", "10",
                  "--extent", "0,1,2", "--out", str(tmp_path / "g.bevg")])
        assert exc.value.code == 2


class TestSegIou:
    def test_manifest(self, tmp_path, capsys):
        grid = rasterize(
            [Box3D(x=0, y=0, z=25, l=2, w=2, h=1, yaw=0)],
            BevGrid(rows=100, cols=10, extent=(-5, 5, 0, 50)),
        )
        pred_path = tmp_path / "pred.bevg"
        gt_path = tmp_path / "gt.bevg"
        gridio.write_grid(grid, pred_path)
        gridio.write_grid(grid, gt_path)
        manifest = tmp_path / "pairs.csv"
        manifest.write_text(f"car,{pred_path},{gt_path}\n")
        assert main(["seg-iou", "--pairs", str(manifest)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "car" in out
        assert "mean_foreground=1" in out

    def test_bad_manifest_row(self, tmp_path):
        manifest = tmp_path / "pairs.csv"
        manifest.write_text("car,only_two_fields\n")
        assert main(["seg-iou", "--pairs", str(manifest)]) == EXIT_INPUT_PARSE

    def test_missing_grid(self, tmp_path):
        manifest = tmp_path / "pairs.csv"
        manifest.write_text(f"car,{tmp_path}/a.bevg,{tmp_path}/b.bevg\n")
        assert main(["seg-iou", "--pairs", str(manifest)]) == EXIT_INPUT_PARSE


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 2000, "seed": 9}))
        argv = ["variance", "--loss", "l1", "--sigma", "1", "--config", str(cfg)]
        assert main(argv) == EXIT_OK

    def test_explicit_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"length": 4.0}))
        argv = [
            "threshold", "--config", str(cfg), "--length", "12",
        ]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "length=12" in out

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"smaples": 2000}))
        assert main(["variance", "--loss", "l1", "--sigma", "1", "--config", str(cfg)]) == 2

    def test_bad_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert main(["variance", "--loss", "l1", "--sigma", "1", "--config", str(cfg)]) == EXIT_INPUT_PARSE


class TestFlagErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--length", "4", "--bogus", "1"])
        assert exc.value.code == 2


@pytest.fixture
def probe_files(tmp_path):
    """Named input files for the boundary probes, as str paths."""
    files = {name: tmp_path / name for name in (
        "pred.jsonl", "gt.jsonl", "empty.jsonl", "nan_x.jsonl", "inf_yaw.jsonl",
        "cfg.json", "mismatch.csv", "nan_grid.csv", "long_int.jsonl",
    )}
    write_jsonl(files["pred.jsonl"], [box_record(score=0.9)])
    write_jsonl(files["gt.jsonl"], [box_record()])
    files["empty.jsonl"].write_text("")
    write_jsonl(files["nan_x.jsonl"], [box_record(x=float("nan"))])
    write_jsonl(files["inf_yaw.jsonl"], [box_record(yaw=float("inf"))])
    files["long_int.jsonl"].write_text(json.dumps(box_record()).replace('"x": 0.0', '"x": ' + "1" * 5000) + "\n")
    files["cfg.json"].write_text(json.dumps({"length": 4}))
    small = BevGrid(rows=10, cols=10, extent=(-5, 5, 0, 50))
    grids = {"small.bevg": small, "tall.bevg": BevGrid(rows=20, cols=10, extent=(-5, 5, 0, 50))}
    grids["nan.bevg"] = BevGrid(rows=10, cols=10, extent=(-5, 5, 0, 50))
    grids["nan.bevg"].cells[3, 3] = float("nan")  # bypass validation to put NaN on disk
    for name, grid in grids.items():
        gridio.write_grid(grid, tmp_path / name)
    files["mismatch.csv"].write_text(f"# category,pred,gt\ncar,{tmp_path}/small.bevg,{tmp_path}/tall.bevg\n")
    files["nan_grid.csv"].write_text(f"# category,pred,gt\ncar,{tmp_path}/small.bevg,{tmp_path}/nan.bevg\n")
    out = {name.replace(".", "_"): str(path) for name, path in files.items()}
    out["out"] = str(tmp_path / "out")
    out["dir"] = str(tmp_path)
    return out


BOUNDARY_PROBES = [
    # flag values the library rejects: exit 2 with its message
    ("sgd --loss l2 --sigma 0.5 --dim 0", EXIT_FLAGS, "dim, steps and trials must be >= 1"),
    ("sgd --loss l2 --sigma -1", EXIT_FLAGS, "sigma must be >= 0"),
    ("threshold --length -3", EXIT_FLAGS, "length must be > 0"),
    ("theorem1 --length 12 --sigma 0.5 --seeds 0", EXIT_FLAGS, "n_seeds must be >= 1"),
    ("eval --pred {pred_jsonl} --gt {gt_jsonl} --iou 0", EXIT_FLAGS, "iou_threshold must be in (0, 1]"),
    ("rasterize --input {gt_jsonl} --rows 0 --cols 10 --extent=-5,5,0,50 --out {out}.bevg", EXIT_FLAGS,
     "rows and cols must be >= 1"),
    ("nms --input {pred_jsonl} --radius 0 --out {out}.jsonl", EXIT_FLAGS, "radius must be > 0"),
    ("sweep --lengths 12 --sigmas 0 --losses l2 --format csv+svg --log-y --trials 2 --steps 5 --dim 2 "
     "--out {out}.csv", EXIT_FLAGS, "log scale"),
    ("eval --pred {pred_jsonl} --gt {gt_jsonl} --bins 5,10", EXIT_FLAGS, "length bins must start at 0"),
    ("eval --pred {pred_jsonl} --gt {gt_jsonl} --bins 0,5,5", EXIT_FLAGS, "increase strictly"),
    ("variance --loss hinge --sigma 1", EXIT_FLAGS, "unknown loss"),
    ("variance --loss l1 --sigma 1 --samples 0", EXIT_FLAGS, "samples must be >= 2"),
    ("rasterize --input {gt_jsonl} --rows 5 --co 5 --extent=-5,5,0,50 --out {out}.bevg", EXIT_FLAGS,
     "ambiguous option: --co"),
    # a config file may supply a required flag, also through an abbreviation
    ("threshold --config {cfg_json}", EXIT_OK, "length=4"),
    ("threshold --conf {cfg_json}", EXIT_OK, "length=4"),
    # bad input data: exit 4, naming the file and line
    ("eval --pred {empty_jsonl} --gt {empty_jsonl}", EXIT_INPUT_PARSE, "no boxes"),
    ("seg-iou --pairs {mismatch_csv}", EXIT_INPUT_PARSE, "mismatch.csv:2: grid shapes differ"),
    ("seg-iou --pairs {nan_grid_csv}", EXIT_INPUT_PARSE, "nan_grid.csv:2:"),
    ("eval --pred {pred_jsonl} --gt {nan_x_jsonl}", EXIT_INPUT_PARSE, "nan_x.jsonl:1: box values must be finite"),
    ("eval --pred {pred_jsonl} --gt {inf_yaw_jsonl}", EXIT_INPUT_PARSE,
     "inf_yaw.jsonl:1: box values must be finite"),
    ("eval --pred {pred_jsonl} --gt {long_int_jsonl}", EXIT_INPUT_PARSE, "long_int.jsonl:1: invalid JSON"),
]


# an empty list flag is a rejected flag value, with the library's message
EMPTY_LIST_PROBES = [
    ("eval --pred {pred_jsonl} --gt {gt_jsonl} --iou=", EXIT_FLAGS, "iou thresholds must be non-empty"),
    ("theorem1 --length= --sigma 0.5", EXIT_FLAGS, "lengths must be non-empty"),
    ("sweep --lengths= --sigmas 0.5 --losses l1", EXIT_FLAGS, "sweep axes must be non-empty"),
]


# a non-finite noise, length or beta value is a rejected flag value, with the library's message
NON_FINITE_PROBES = {
    "sgd-sigma-inf": ("sgd --loss l1 --sigma inf", "sigma must be >= 0 and finite"),
    "sgd-sigma-nan": ("sgd --loss l2 --sigma nan", "sigma must be >= 0 and finite"),
    "sgd-dice-length-inf": ("sgd --loss dice --length inf --sigma 0.5", "dice requires a finite length > 0"),
    "sgd-smooth_l1-beta-inf": ("sgd --loss smooth_l1 --beta inf --sigma 0.5", "smooth_l1 requires a finite beta > 0"),
    "variance-sigma-inf": ("variance --loss l1 --sigma inf", "sigma must be >= 0 and finite"),
    "theorem1-sigma-inf": ("theorem1 --length 12 --sigma inf", "sigma must be >= 0 and finite"),
    "theorem1-length-inf": ("theorem1 --length inf --sigma 0.5", "length must be > 0 and finite"),
    "threshold-length-inf": ("threshold --length inf", "length must be > 0 and finite"),
    "threshold-length-nan": ("threshold --length nan", "length must be > 0 and finite"),
    "sweep-lengths-inf": ("sweep --lengths inf --sigmas 0.5 --losses dice", "dice requires a finite length > 0"),
    "sweep-sigmas-nan": ("sweep --lengths 12 --sigmas nan --losses l1", "sigma must be >= 0 and finite"),
}


# a flag value outside the library's range: exit 2 with its message
RANGE_PROBES = {
    "nms-radius-inf": ("nms --input {pred_jsonl} --radius inf --out {out}.jsonl", "radius must be > 0 and finite"),
    "nms-radius-1e400": ("nms --input {pred_jsonl} --radius 1e400 --out {out}.jsonl", "radius must be > 0 and finite"),
    "nms-radius-nan": ("nms --input {pred_jsonl} --radius nan --out {out}.jsonl", "radius must be > 0 and finite"),
    "seg-iou-threshold-nan": ("seg-iou --pairs {pairs_csv} --threshold nan", "binarize_threshold must be in (0, 1]"),
    "seg-iou-threshold-inf": ("seg-iou --pairs {pairs_csv} --threshold inf", "binarize_threshold must be in (0, 1]"),
    "seg-iou-threshold-2": ("seg-iou --pairs {pairs_csv} --threshold 2", "binarize_threshold must be in (0, 1]"),
    "seg-iou-threshold-0": ("seg-iou --pairs {pairs_csv} --threshold 0", "binarize_threshold must be in (0, 1]"),
    "seg-iou-threshold--1": ("seg-iou --pairs {pairs_csv} --threshold=-1", "binarize_threshold must be in (0, 1]"),
}


# a flag value outside the library's range exits 2 before any input is read:
# every input named here is missing, which would exit 4
BEFORE_INPUT_PROBES = {
    "nms-missing-input-radius-0": ("nms --input {dir}/missing.jsonl --radius 0 --out {out}.jsonl",
                                   "radius must be > 0 and finite"),
    "nms-missing-input-radius-nan": ("nms --input {dir}/missing.jsonl --radius nan --out {out}.jsonl",
                                     "radius must be > 0 and finite"),
    "seg-iou-missing-grids-threshold-2": ("seg-iou --pairs {missing_grids_csv} --threshold 2",
                                          "binarize_threshold must be in (0, 1]"),
    "seg-iou-missing-manifest-threshold-0": ("seg-iou --pairs {dir}/missing.csv --threshold 0",
                                             "binarize_threshold must be in (0, 1]"),
}


# every sweep axis value is checked before the first ensemble and the shared noise draw
SWEEP_AXIS_PROBES = {
    "sweep-second-sigma-nan": ("sweep --lengths 12 --sigmas 0.5,nan --losses l1", "sigma must be >= 0 and finite"),
    "sweep-last-sigma-negative": ("sweep --lengths 12 --sigmas 0.5,1,-1 --losses l1,l2",
                                  "sigma must be >= 0 and finite"),
    "sweep-second-length-inf": ("sweep --lengths 12,inf --sigmas 0.5 --losses dice",
                                "dice requires a finite length > 0"),
    "sweep-second-loss-unknown": ("sweep --lengths 12 --sigmas 0.5 --losses l1,hinge", "unknown loss kind"),
}


# a negative seed is rejected before any work: exit 2 with numpy's SeedSequence message
NEGATIVE_SEED_PROBES = {
    "sgd-seed-negative": "sgd --loss l2 --sigma 0.5 --steps 5 --trials 2 --seed -1",
    "variance-seed-negative": "variance --loss l1 --sigma 1 --samples 10 --seed -1",
    "sweep-seed-negative": "sweep --lengths 12 --sigmas 0.5 --losses l1 --trials 2 --steps 5 --dim 2 --seed -1",
    "theorem1-seed-negative": "theorem1 --length 12 --sigma 0.5 --seeds 1 --objects 10 --steps 5 --seed -1",
}


@pytest.fixture
def range_probe_files(probe_files):
    """The boundary probe files plus a valid grid-pair manifest and one
    naming a .bevg file with a byte after its payload."""
    directory = Path(probe_files["dir"])
    small = directory / "small.bevg"
    (directory / "trailing.bevg").write_bytes(small.read_bytes() + b"\0")
    (directory / "pairs.csv").write_text(f"car,{small},{small}\n")
    (directory / "trailing.csv").write_text(f"car,{small},{directory}/trailing.bevg\n")
    (directory / "missing_grids.csv").write_text(f"car,{directory}/none.bevg,{directory}/none.bevg\n")
    return {**probe_files, "pairs_csv": str(directory / "pairs.csv"), "trailing_csv": str(directory / "trailing.csv"),
            "missing_grids_csv": str(directory / "missing_grids.csv")}


def run_probe(command, code, message, probe_files, capsys):
    try:
        got = main(command.format(**probe_files).split())
    except SystemExit as exc:  # argparse's error path
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    error_lines = [line for line in err.splitlines() if "error:" in line]
    if code == EXIT_OK:
        assert message in out.splitlines()
        assert error_lines == []
    else:
        assert len(error_lines) == 1 and message in error_lines[0]


class TestBoundary:
    @pytest.mark.parametrize("command,code,message", BOUNDARY_PROBES, ids=[p[0].split()[0] for p in BOUNDARY_PROBES])
    def test_exit_code_and_message(self, command, code, message, probe_files, capsys):
        run_probe(command, code, message, probe_files, capsys)

    @pytest.mark.parametrize("command,code,message", EMPTY_LIST_PROBES, ids=[p[0].split()[0] for p in EMPTY_LIST_PROBES])
    def test_empty_list_flag(self, command, code, message, probe_files, capsys):
        run_probe(command, code, message, probe_files, capsys)

    @pytest.mark.parametrize("command,message", NON_FINITE_PROBES.values(), ids=NON_FINITE_PROBES.keys())
    def test_non_finite_value(self, command, message, probe_files, capsys):
        run_probe(command, EXIT_FLAGS, message, probe_files, capsys)

    @pytest.mark.parametrize("command,message", RANGE_PROBES.values(), ids=RANGE_PROBES.keys())
    def test_out_of_range_value(self, command, message, range_probe_files, capsys):
        run_probe(command, EXIT_FLAGS, message, range_probe_files, capsys)

    @pytest.mark.parametrize("command,message", BEFORE_INPUT_PROBES.values(), ids=BEFORE_INPUT_PROBES.keys())
    def test_flag_checked_before_input(self, command, message, range_probe_files, capsys):
        run_probe(command, EXIT_FLAGS, message, range_probe_files, capsys)

    @pytest.mark.parametrize("command,message", SWEEP_AXIS_PROBES.values(), ids=SWEEP_AXIS_PROBES.keys())
    def test_sweep_axis_checked_before_any_work(self, command, message, probe_files, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started work before checking its axes")

        monkeypatch.setattr(sgd, "run_ensemble", no_work)
        monkeypatch.setattr(sgd, "_variance_noise", no_work)
        run_probe(command, EXIT_FLAGS, message, probe_files, capsys)

    @pytest.mark.parametrize("command", NEGATIVE_SEED_PROBES.values(), ids=NEGATIVE_SEED_PROBES.keys())
    def test_negative_seed(self, command, probe_files, capsys):
        run_probe(command, EXIT_FLAGS, "expected non-negative integer", probe_files, capsys)

    def test_threshold_one_is_accepted(self, range_probe_files, capsys):
        # both grids are empty, so the union is too
        run_probe("seg-iou --pairs {pairs_csv} --threshold 1", EXIT_OK, "mean_foreground=nan", range_probe_files,
                  capsys)

    def test_grid_with_trailing_bytes_is_input_error(self, range_probe_files, capsys):
        assert main(["seg-iou", "--pairs", range_probe_files["trailing_csv"]]) == EXIT_INPUT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {range_probe_files['trailing_csv']}:1: ") and "trailing bytes" in err

    @pytest.mark.parametrize("axis", ["x", "z"])
    @pytest.mark.parametrize("far", [1.7e308, -1.7e308])
    def test_box_far_off_a_fine_grid(self, axis, far, tmp_path, capsys):
        # a valid box whose window bounds divide to +-inf rasterizes to an empty grid
        inp, out = tmp_path / "far.jsonl", tmp_path / "far.bevg"
        write_jsonl(inp, [box_record(**{axis: far})])
        argv = ["rasterize", "--input", str(inp), "--rows", "1000", "--cols", "1000", "--extent", "0,1,0,10",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == f"rasterized 1 boxes onto 1000x1000 grid -> {out}\n"
        assert not gridio.read_grid(out).cells.any()

    def test_unreadable_input_is_input_error(self, probe_files, capsys):
        # a directory where a box file should be: an input OSError, not an output one
        run_probe("eval --pred {dir} --gt {gt_jsonl}", EXIT_INPUT_PARSE, "Is a directory", probe_files, capsys)


COMMAND_NAMES = ["variance", "threshold", "sweep", "sgd", "theorem1", "eval", "nms", "rasterize", "seg-iou"]


def exit_and_output(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParsers:
    """``main`` builds only the invoked sub-command's parser; the whole tree
    answers help and a missing or unknown command, with the same text."""

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_command_help_matches_the_whole_tree(self, name, capsys):
        own = exit_and_output(lambda: main([name, "-h"]), capsys)
        assert own[0] == EXIT_OK and own[1].startswith(f"usage: bevlab {name} [-h]")
        assert own == exit_and_output(lambda: cli.build_parser().parse_args([name, "-h"]), capsys)

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = exit_and_output(lambda: main(["-h"]), capsys)
        assert code == EXIT_OK
        assert "{" + ",".join(COMMAND_NAMES) + "}" in out.split()
        assert list(cli.COMMANDS) == COMMAND_NAMES

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'variance', 'threshold',"),
        (["--length", "4", "threshold"], "argument command: invalid choice: '4'"),
    ], ids=["none", "unknown", "flag-first"])
    def test_missing_or_unknown_command(self, argv, message, capsys):
        code, _, err = exit_and_output(lambda: main(argv), capsys)
        assert code == EXIT_FLAGS
        assert err.startswith("usage: bevlab [-h]") and f"\nbevlab: error: {message}" in err

    def test_unknown_flag_is_reported_by_the_whole_tree(self, capsys):
        code, _, err = exit_and_output(lambda: main(["threshold", "--length", "4", "--bogus", "1"]), capsys)
        assert code == EXIT_FLAGS
        assert err.startswith("usage: bevlab [-h]")
        assert err.endswith("\nbevlab: error: unrecognized arguments: --bogus 1\n")

    def test_a_command_does_not_build_the_whole_tree(self, monkeypatch, capsys):
        def whole_tree():
            raise AssertionError("the whole parser tree was built")

        monkeypatch.setattr(cli, "build_parser", whole_tree)
        assert main(["threshold", "--length", "4"]) == EXIT_OK

    def test_config_with_abbreviated_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "l1", "samples": 2000}))
        out = tmp_path / "v.csv"
        argv = ["variance", "--conf", str(cfg), "--sig", "1", "--se", "3", "--det", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "loss=l1 sigma=1" in capsys.readouterr().out
        config = json.loads(out.read_text().splitlines()[1].removeprefix("# config: "))
        assert config == {"beta": 1.0, "command": "variance", "deterministic": True, "length": None, "loss": "l1",
                          "samples": 2000, "seed": 3, "sigma": 1.0}


def test_python_m_runs_the_cli():
    src = Path(bevlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "bevlab", "threshold", "--length", "4"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_OK
    assert "sigma_c=0.25" in done.stdout.splitlines()
