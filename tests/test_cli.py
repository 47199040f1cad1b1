import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bevlab
from bevlab import boxio, cli, gridio, reports, sgd
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

    @pytest.mark.parametrize("length,printed", [
        ("0.5", "length=0.5|sigma_m=1.15665514|sigma_l1=0.637278728|sigma_c=1.15665514|"
                "residual=-1.27364785e-12 iterations=42"),
        ("1", "length=1|sigma_m=0.866809531|sigma_l1=0|sigma_c=0.866809531|residual=1.00808251e-12 iterations=41"),
        ("4", "length=4|sigma_m=0.25|sigma_l1=0|sigma_c=0.25|residual=2.06501483e-14 iterations=40"),
        ("12", "length=12|sigma_m=0.0833333333|sigma_l1=0|sigma_c=0.0833333333|residual=-2.52645127e-14 iterations=40"),
        ("1e5", "length=100000|sigma_m=9.99999996e-06|sigma_l1=0|sigma_c=9.99999996e-06|"
                "residual=-8.29431888e-19 iterations=40"),
    ])
    def test_output_is_pinned(self, length, printed, capsys):
        assert main(["threshold", "--length", length]) == EXIT_OK
        assert capsys.readouterr().out == printed.replace("|", "\n") + "\n"

    def test_out_writes_its_report(self, tmp_path, capsys):
        # a one-row CSV as variance writes it: the version, the config echo, the header and the row
        out = tmp_path / "t.csv"
        assert main(["threshold", "--length", "4", "--deterministic", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "length=4\nsigma_m=0.25\nsigma_l1=0\nsigma_c=0.25\n" \
                                          "residual=2.06501483e-14 iterations=40\n"
        assert out.read_bytes().decode() == (
            f"# bevlab v{bevlab.__version__}\n"
            '# config: {"command": "threshold", "deterministic": true, "length": 4.0, "seed": 0}\n'
            "length,sigma_m,sigma_l1,sigma_c,residual,iterations\r\n4,0.25,0,0.25,2.06501483e-14,40\r\n")

    @pytest.mark.parametrize("length,sigma_m", [("1e-12", "9274.98795"), ("1e7", "1e-07")])
    def test_extreme_length_ends(self, length, sigma_m, capsys):
        # at 1e-12 the solver never ended, and at 1e7 it returned its bracket's end, 1.00000045e-06
        assert main(["threshold", "--length", length]) == EXIT_OK
        assert f"sigma_m={sigma_m}" in capsys.readouterr().out.splitlines()


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

    def test_svg_of_a_single_huge_sigma(self, tmp_path):
        # adding 1 to 1e300 rounds back to 1e300, so a flat axis must widen by more
        out = tmp_path / "s.csv"
        argv = ["sweep", "--lengths", "12", "--sigmas", "1e300", "--losses", "l1,dice", "--trials", "2",
                "--steps", "5", "--dim", "2", "--format", "csv+svg", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "s.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("x", [12.0, -(2.0**53), 2.0**53 + 2, 2.0**53, 1e300, -1e300])
    def test_flat_axis_widens_by_1_or_to_the_next_float(self, x, tmp_path):
        svg = tmp_path / "flat.svg"
        reports.svg_line_plot(svg, {"a": [(x, 0.5)]}, "x", "y")
        x_hi = x + 1.0 if x + 1.0 != x else math.nextafter(x, math.inf)
        assert x_tick_labels(svg) == [label for _, label in reports._ticks(x, x_hi, 3)]
        assert '<polyline fill="none" stroke="#d62728" stroke-width="1.5" points="60.00,380.00"/>' in svg.read_text()

    @pytest.mark.parametrize("lo,hi,digits,prefix,labels", [
        (12.0, 13.0, 3, "", ["12", "12.2", "12.5", "12.8", "13"]),  # distinct at 3 digits: as before
        (0.5, 0.50001, 3, "", ["0.5", "0.500003", "0.500005", "0.500007", "0.50001"]),
        (-3.0, -2.99999, 2, "1e", ["1e-3", "1e-2.999998", "1e-2.999995", "1e-2.999992", "1e-2.99999"]),
        # one float step wide: each value is drawn once
        (1e300, math.nextafter(1e300, math.inf), 3, "", ["1.0000000000000001e+300", "1.0000000000000002e+300"]),
        (2.0**53, 2.0**53 + 2, 3, "", ["9007199254740992", "9007199254740994"]),
    ], ids=["distinct", "narrow", "narrow-log", "float-step", "two-to-the-53"])
    def test_tick_labels_differ(self, lo, hi, digits, prefix, labels):
        assert [label for _, label in reports._ticks(lo, hi, digits, prefix)] == labels

    @pytest.mark.parametrize("sigmas,labels", [
        ("0.5,0.50001", ["0.5", "0.500003", "0.500005", "0.500007", "0.50001"]),
        ("1e300", ["1.0000000000000001e+300", "1.0000000000000002e+300"]),
    ], ids=["narrow", "huge"])
    def test_svg_x_ticks_read_differently(self, sigmas, labels, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--lengths", "12", "--sigmas", sigmas, "--losses", "l1,dice", "--trials", "2",
                "--steps", "5", "--dim", "2", "--format", "csv+svg", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert x_tick_labels(tmp_path / "s.svg") == labels


def x_tick_labels(svg) -> list[str]:
    return re.findall(r'font-size="11" text-anchor="middle">([^<]*)</text>', Path(svg).read_text())


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

    def test_precondition_not_met_warns(self, tmp_path, capsys):
        # sigma_c(4) = 0.25; the CSV notes it on every run, stderr only when it is not met
        out = tmp_path / "thm.csv"
        argv = ["theorem1", "--length", "4,12", "--sigma", "0.1", "--seeds", "1", "--objects", "20", "--steps", "20",
                "--deterministic", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == "warning: precondition sigma >= sigma_c not met for length 4\n"
        assert "# length 4: sigma_c=0.25, precondition sigma >= sigma_c NOT met" in out.read_text().splitlines()


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
    """The frame an unscored-box error names, for nms and eval alike: the
    frame of the first such box in the file."""

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
        assert f"{path}: frame 'B' has an unscored prediction" in capsys.readouterr().err


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


# a config value goes through its flag's type, choices and on/off handling: exit 2 with argparse's message
CONFIG_PROBES = {
    "sgd-trials-2.5": ("sgd --loss l2 --sigma 0.5", {"trials": 2.5}, "argument --trials: invalid int value: '2.5'"),
    "sgd-dim-1e3": ("sgd --loss l2 --sigma 0.5", {"dim": 1e3}, "argument --dim: invalid int value: '1000.0'"),
    "variance-seed-1.5": ("variance --loss l1 --sigma 1", {"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
    "variance-sigma-true": ("variance --loss l1", {"sigma": True}, "argument --sigma: invalid float value: 'true'"),
    "variance-deterministic-no": ("variance --loss l1 --sigma 1 --samples 10 --out {out}.csv", {"deterministic": "no"},
                                  "argument --deterministic: ignored explicit argument 'no'"),
    "sweep-format-png": ("sweep --lengths 12 --sigmas 0.5 --losses l1 --trials 2 --steps 5 --out {out}.csv",
                         {"format": "png"}, "argument --format: invalid choice: 'png'"),
    "sweep-log-y-1": ("sweep --lengths 12 --sigmas 0.5 --losses l1 --trials 2 --steps 5", {"log_y": 1},
                      "argument --log-y: ignored explicit argument '1'"),
    "eval-bins-pairs": ("eval --pred {pred_jsonl} --gt {gt_jsonl}", {"bins": [[0, 5], [5, 10]]},
                        "argument --bins: invalid _parse_bins value: '[0, 5],[5, 10]'"),
}


# (command, config, the same values as flags); {out} is where the command writes, if it does
CONFIG_AS_FLAGS = {
    # theorem1 with a number for its list flag stopped with a TypeError before
    "theorem1-length-number": ("theorem1 --sigma 0.5 --seeds 1 --objects 50 --steps 50 --deterministic --out {out}",
                               {"length": 4}, "--length 4"),
    "threshold-length": ("threshold", {"length": 4.0}, "--length 4"),
    "variance-samples-seed": ("variance --loss l1 --sigma 1 --deterministic --out {out}", {"samples": 2000, "seed": 9},
                              "--samples 2000 --seed 9"),
    "variance-deterministic-false": ("variance --loss l1 --sigma 1 --samples 10 --out {out}",
                                     {"deterministic": False, "length": None}, ""),
    "variance-deterministic-true": ("variance --loss l1 --sigma 1 --samples 10 --out {out}", {"deterministic": True},
                                    "--deterministic"),
    "eval-iou-list": ("eval --pred {pred_jsonl} --gt {gt_jsonl} --deterministic --out {out}", {"iou": [0.5, 0.25]},
                      "--iou 0.5,0.25"),
    "eval-bins-edges": ("eval --pred {pred_jsonl} --gt {gt_jsonl} --deterministic --out {out}", {"bins": [0, 5, 10]},
                        "--bins 0,5,10"),
    "rasterize-extent-list": ("rasterize --input {gt_jsonl} --rows 5 --cols 4 --out {out}.bevg",
                              {"extent": [-5, 5, 0, 50]}, "--extent=-5,5,0,50"),
    "sweep-strings-and-switches": ("sweep --lengths 12 --trials 2 --steps 5 --dim 2 --deterministic --out {out}",
                                   {"sigmas": "0.5,1", "losses": ["l1", "dice"], "format": "csv+svg", "log_y": True},
                                   "--sigmas 0.5,1 --losses l1,dice --format csv+svg --log-y"),
    "strings-for-seed-and-mode": ("sgd --loss l2 --sigma 0.5 --trials 2 --steps 5", {"mode": "literal", "seed": "7"},
                                  "--mode literal --seed 7"),
}


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

    def test_json_array_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["threshold", "--length", "4", "--config", str(cfg)]) == EXIT_INPUT_PARSE
        assert capsys.readouterr().err == "error: --config must hold a JSON object\n"

    @pytest.mark.parametrize("key", ["help", "config"])
    def test_help_and_config_are_not_config_keys(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        assert main(["threshold", "--length", "4", "--config", str(cfg)]) == EXIT_FLAGS
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("command,config,message", CONFIG_PROBES.values(), ids=CONFIG_PROBES.keys())
    def test_value_gets_its_flags_check(self, command, config, message, probe_files, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        run_probe(f"{command} --config {cfg}", EXIT_FLAGS, message, probe_files, capsys)

    @pytest.mark.parametrize("command,config,flags", CONFIG_AS_FLAGS.values(), ids=CONFIG_AS_FLAGS.keys())
    def test_entry_reads_as_its_flag(self, command, config, flags, probe_files, tmp_path, capsys):
        # every output, the CSV header's config echo included, is that of the same values given as flags
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        results = []
        for name, extra in (("via_config", ["--config", str(cfg)]), ("via_flags", flags.split())):
            out = tmp_path / f"{name}.csv"
            assert main(command.format(**{**probe_files, "out": out}).split() + extra) == EXIT_OK
            written = [(f.name.removeprefix(name), [line for line in f.read_bytes().splitlines()
                                                    if not line.startswith(b"# generated:")])
                       for f in sorted(tmp_path.glob(f"{name}.*"))]
            results.append((capsys.readouterr().out.replace(name, "OUT"), written))
        assert results[0] == results[1]


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
    # a trial count past an index's range is a flag error, not an OverflowError from len(range(...))
    ("sgd --loss l1 --sigma 1 --trials 18446744073709551617 --steps 5", EXIT_FLAGS,
     "dim, steps and trials must be >= 1 and at most"),
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


# a length whose square is not a normal, finite float, or an l2 sigma whose square overflows:
# exit 2 with the library's message
SQUARE_PROBES = {
    "threshold-length-1e-300": ("threshold --length 1e-300",
                                "length must be > 0 and finite, with a normal, finite square"),
    "theorem1-length-1e-300": ("theorem1 --length 1e-300 --sigma 0.5 --seeds 1 --objects 10 --steps 5",
                               "length must be > 0 and finite, with a normal, finite square"),
    "variance-dice-length-1e-320": ("variance --loss dice --length 1e-320 --sigma 1 --samples 10",
                                    "dice requires a finite length > 0 with a normal, finite square"),
    "variance-l2-sigma-1e308": ("variance --loss l2 --sigma 1e308 --samples 10",
                                "l2 requires a sigma whose square is finite"),
    "sgd-l2-sigma-1e200": ("sgd --loss l2 --sigma 1e200 --trials 2 --steps 5",
                           "l2 requires a sigma whose square is finite"),
    # an l2 sigma with a finite square whose Monte Carlo statistics overflow: their standard
    # errors square squared deviations, about sigma**4, so exit 2 naming sigma, not inf or nan
    "variance-l2-sigma-1e100": ("variance --loss l2 --sigma 1e100 --samples 1000",
                                "the standard error of the gradient variance overflows float64 at sigma 1e+100"),
    "variance-l2-sigma-1e154": ("variance --loss l2 --sigma 1e154 --samples 1000",
                                "the gradient variance overflows float64 at sigma 1e+154"),
    "sgd-l2-sigma-1e150": ("sgd --loss l2 --sigma 1e150 --trials 2 --steps 5",
                           "the ensemble's standard error overflows float64 at sigma 1e+150"),
    "sgd-l2-sigma-1e154-one-trial": ("sgd --loss l2 --sigma 1e154 --trials 1 --steps 5",
                                     "the gradient variance overflows float64 at sigma 1e+154"),
    "sweep-l2-sigma-1e100": ("sweep --lengths 12 --sigmas 0.5,1e100 --losses l1,l2 --trials 2 --steps 5 --dim 2",
                             "the ensemble's standard error overflows float64 at sigma 1e+100"),
    # an l2-trained weight that overflowed, not the box check of the predictions built from it
    "theorem1-l2-sigma-1e154": ("theorem1 --length 4 --sigma 1e154 --seeds 1 --objects 20 --steps 50",
                                "the l2-trained weight overflows float64 at sigma 1e+154"),
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
    "sweep-l1-length-nan": ("sweep --lengths 12,nan --sigmas 0.5 --losses l1", "sweep lengths must be finite"),
    "sweep-second-loss-unknown": ("sweep --lengths 12 --sigmas 0.5 --losses l1,hinge", "unknown loss kind"),
    "sweep-last-l2-sigma-square": ("sweep --lengths 12 --sigmas 0.5,1e300 --losses l1,l2",
                                   "l2 requires a sigma whose square is finite"),
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


# every writer: each CSV report, the nms kept file and rasterize's grids into a directory that does not exist, and
# the sweep SVG onto a directory beside a CSV that can be written, since the SVG always lies where its CSV does
WRITER_PROBES = {
    "variance": "variance --loss l1 --sigma 1 --samples 1000 --out {missing}/x.csv",
    "threshold": "threshold --length 4 --out {missing}/x.csv",
    "sweep": "sweep --lengths 12 --sigmas 0.5 --losses l1 --trials 2 --steps 5 --dim 2 --out {missing}/x.csv",
    "sweep-svg": "sweep --lengths 12 --sigmas 0.5 --losses l1 --trials 2 --steps 5 --dim 2 --format csv+svg "
                 "--out {dir}/plot.csv",
    "sgd": "sgd --loss l1 --sigma 0.5 --trials 2 --steps 5 --dim 2 --out {missing}/x.csv",
    "theorem1": "theorem1 --length 4 --sigma 0.5 --seeds 1 --objects 20 --steps 20 --dim 2 --out {missing}/x.csv",
    "eval": "eval --pred {pred_jsonl} --gt {gt_jsonl} --out {missing}/x.csv",
    "seg-iou": "seg-iou --pairs {pairs_csv} --out {missing}/x.csv",
    "nms": "nms --input {pred_jsonl} --out {missing}/x.jsonl",
    "rasterize-bevg": "rasterize --input {gt_jsonl} --rows 4 --cols 4 --extent=-5,5,0,50 --out {missing}/x.bevg",
    "rasterize-csv": "rasterize --input {gt_jsonl} --rows 4 --cols 4 --extent=-5,5,0,50 --out {missing}/x.csv",
}


# a grid file seg-iou cannot use: exit 4, naming the file and, in a CSV, the line
BAD_GRIDS = {
    # a header claiming (2^32 - 1)^2 cells is rejected before any read of that size
    "bevg-huge-header": ("huge.bevg", struct.pack("<4sII4d", b"BEVG", 2**32 - 1, 2**32 - 1, 0.0, 1.0, 0.0, 1.0),
                         "huge.bevg: truncated grid payload"),
    "bevg-truncated-header": ("head.bevg", b"BEVG" + bytes(8), "head.bevg: truncated grid header"),
    "bevg-one-cell-short": ("short.bevg", struct.pack("<4sII4d", b"BEVG", 2, 2, 0.0, 1.0, 0.0, 1.0) + bytes(12),
                            "short.bevg: truncated grid payload"),
    "csv-ragged-row": ("ragged.csv", b"# extent,0,1,0,1\n0.5,0.5\n0.5\n",
                       "ragged.csv:3: 1 cells, but the first row has 2"),
    "csv-bad-cell": ("cell.csv", b"# extent,0,1,0,1\n0.5,0.5\n\n0.5,x\n",
                     "cell.csv:4: could not convert string to float: 'x'"),
    "csv-header-only": ("header.csv", b"# extent,0,1,0,1\n", "header.csv:2: no grid rows after the extent header"),
    "csv-header-then-blank-lines": ("blank.csv", b"# extent,0,1,0,1\n\n\n",
                                    "blank.csv:4: no grid rows after the extent header"),
    "csv-no-extent-header": ("noext.csv", b"0.5,0.5\n", "noext.csv: missing extent header"),
    "csv-blank-first-line": ("blankfirst.csv", b"\n# extent,0,1,0,1\n0.5\n", "blankfirst.csv: missing extent header"),
    # a record names the line it starts on
    "csv-two-line-record": ("quoted.csv", b'# extent,0,1,0,1\n"0.2\nx"\n',
                            "quoted.csv:2: could not convert string to float: '0.2\\nx'"),
    "csv-bad-extent": ("badext.csv", b"# extent,a,1,0,1\n0.5\n", "badext.csv:1: could not convert string to float: 'a'"),
    # a cell longer than csv.field_size_limit(): csv.Error, reported as a parse error
    "csv-long-cell": ("long.csv", b"# extent,0,1,0,1\n0.5\n" + b"5" * 200_000 + b"\n",
                      "long.csv:3: field larger than field limit (131072)"),
}


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

    def test_object_count_past_an_index_is_a_flag_error(self, probe_files, capsys):
        # not an OverflowError from np.repeat
        command = "theorem1 --length 4 --sigma 0.5 --seeds 1 --objects 18446744073709551616 --steps 3 --dim 2"
        run_probe(command, EXIT_FLAGS, "objects_per_category and feature_dim must be >= 1 and at most",
                  probe_files, capsys)

    @pytest.mark.parametrize("command,code,message", EMPTY_LIST_PROBES, ids=[p[0].split()[0] for p in EMPTY_LIST_PROBES])
    def test_empty_list_flag(self, command, code, message, probe_files, capsys):
        run_probe(command, code, message, probe_files, capsys)

    @pytest.mark.parametrize("command,message", NON_FINITE_PROBES.values(), ids=NON_FINITE_PROBES.keys())
    def test_non_finite_value(self, command, message, probe_files, capsys):
        run_probe(command, EXIT_FLAGS, message, probe_files, capsys)

    @pytest.mark.parametrize("command,message", SQUARE_PROBES.values(), ids=SQUARE_PROBES.keys())
    def test_square_out_of_range(self, command, message, probe_files, capsys):
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

    @pytest.mark.parametrize("command", WRITER_PROBES.values(), ids=WRITER_PROBES.keys())
    def test_output_dir_missing_is_io_error(self, command, range_probe_files, capsys):
        # main's rule: every output goes through _write, so its OSError exits 3, not 4
        directory = Path(range_probe_files["dir"])
        (directory / "plot.svg").mkdir()
        argv = command.format(missing=directory / "no" / "dir", **range_probe_files).split()
        assert main(argv) == EXIT_OUTPUT_IO
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert (directory / "plot.csv").exists() == command.endswith("plot.csv")

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

    def test_deep_json_nesting_is_input_error(self, probe_files, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 200_000 + "\n")
        assert main(["eval", "--pred", str(deep), "--gt", probe_files["gt_jsonl"]]) == EXIT_INPUT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {deep}:1: invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("name,content,message", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
    def test_bad_grid_is_input_error(self, name, content, message, tmp_path, capsys):
        grid, pairs = tmp_path / name, tmp_path / "pairs.csv"
        grid.write_bytes(content)
        pairs.write_text(f"car,{grid},{grid}\n")
        assert main(["seg-iou", "--pairs", str(pairs)]) == EXIT_INPUT_PARSE
        assert capsys.readouterr().err == f"error: {pairs}:1: {tmp_path / message}\n"

    def test_grid_of_no_columns_is_input_error(self, tmp_path, capsys):
        # a header-only file matches 2^32 - 1 rows of 0 cells; nothing is sized by the rows
        grid, pairs = tmp_path / "empty.bevg", tmp_path / "pairs.csv"
        grid.write_bytes(struct.pack("<4sII4d", b"BEVG", 2**32 - 1, 0, 0.0, 1.0, 0.0, 1.0))
        pairs.write_text(f"car,{grid},{grid}\n")
        assert main(["seg-iou", "--pairs", str(pairs)]) == EXIT_INPUT_PARSE
        assert capsys.readouterr().err == f"error: {pairs}:1: {grid}: rows and cols must be >= 1\n"

    @pytest.mark.parametrize("command", ["seg-iou --pairs {manifest}",
                                         "eval --pred {pred_jsonl} --gt {gt_jsonl} --groups {manifest}"],
                             ids=["pairs", "groups"])
    def test_manifest_field_over_the_csv_limit_is_input_error(self, command, probe_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"# a manifest whose second row holds a 200,000-character path\ncar,{'p' * 200_000},g\n")
        assert main(command.format(manifest=manifest, **probe_files).split()) == EXIT_INPUT_PARSE
        assert capsys.readouterr().err == f"error: {manifest}:2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("command,record,error", [
        ("seg-iou --pairs {manifest}", 'car,"a\nb",c\ntruck,p,q,r', "4: expected category,pred_path,gt_path"),
        ("eval --pred {pred_jsonl} --gt {gt_jsonl} --groups {manifest}", 'car,"a\nb"\ntruck,p,q',
         "4: expected category,group"),
        ("seg-iou --pairs {manifest}", f'car,"a\n{"p" * 200_000}",c', "2: field larger than field limit (131072)"),
    ], ids=["pairs", "groups", "csv-error"])
    def test_manifest_error_names_the_first_line_of_its_record(self, command, record, error, probe_files,
                                                               tmp_path, capsys):
        # a quoted field spans lines 2 and 3, so the record after it starts on line 4
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"# c\n{record}\n")
        assert main(command.format(manifest=manifest, **probe_files).split()) == EXIT_INPUT_PARSE
        assert capsys.readouterr().err == f"error: {manifest}:{error}\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("command,prefix", [
        ("seg-iou --pairs {bad}", "{bad}:2: "),
        ("eval --pred {pred_jsonl} --gt {gt_jsonl} --groups {bad}", "{bad}:2: "),
        ("seg-iou --pairs {manifest}", "{manifest}:1: {bad}:2: "),  # a CSV grid
        ("threshold --config {bad}", "cannot read --config: {bad}:2: "),
    ], ids=["pairs", "groups", "csv-grid", "config"])
    def test_undecodable_byte_names_its_file_and_line(self, command, prefix, newline, probe_files, tmp_path,
                                                      capsys):
        # every text input reads as box files do: the file, then the line of the first byte that does not decode
        names = {"bad": tmp_path / "bad.csv", "manifest": tmp_path / "manifest.csv"}
        names["bad"].write_bytes(newline.join(["# extent,0,1,0,1", "car,\xff", ""]).encode("latin-1"))
        names["manifest"].write_text(f"car,{names['bad']},{names['bad']}\n")
        assert main(command.format(**names, **probe_files).split()) == EXIT_INPUT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: " + prefix.format(**names)) and "can't decode byte 0xff" in err

    def test_repeated_theorem1_length_is_flag_error(self, probe_files, capsys):
        run_probe("theorem1 --length 4,4 --sigma 0.5 --seeds 2 --objects 100 --steps 200 --deterministic",
                  EXIT_FLAGS, "lengths must be non-empty and distinct", probe_files, capsys)

    def test_unreadable_input_is_input_error(self, probe_files, capsys):
        # a directory where a box file should be: an input OSError, not an output one
        run_probe("eval --pred {dir} --gt {gt_jsonl}", EXIT_INPUT_PARSE, "Is a directory", probe_files, capsys)


# fuzzed flag values: tiny, huge and non-finite floats, and ints past 2**64 beside small valid ones
FUZZ_FLOATS = st.one_of(st.sampled_from([0.0, 1e-320, 0.5, 4.0]), st.floats(1e76, 1e154),
                        st.sampled_from([math.nan, math.inf, -math.inf]))
FUZZ_LOSSES = st.sampled_from(["l1", "l2", "smooth_l1", "dice"])


def flag(name, values) -> str:
    values = values if isinstance(values, list) else [values]
    return f"--{name}=" + ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


@st.composite
def fuzzed_argv(draw):
    """One command line; at most one of its int flags lies past 2**64, so most runs get to work.
    ``theorem1``'s ``--seeds`` and ``--objects`` size its work alone, so they stay small."""
    command = draw(st.sampled_from(["variance", "sgd", "sweep", "threshold", "theorem1"]))
    if command == "threshold":
        return [command, flag("length", draw(FUZZ_FLOATS))]
    ints = {"samples": draw(st.integers(2, 4))} if command == "variance" else {
        "steps": draw(st.integers(1, 4)), "dim": draw(st.integers(1, 3))}
    if command in ("sgd", "sweep"):
        ints["trials"] = draw(st.integers(1, 4))
    ints["seed"] = draw(st.integers(0, 3))
    huge = draw(st.sampled_from([None, None, *ints]))
    if huge is not None:
        ints[huge] = draw(st.integers(2**64, 2**65))
    argv = [command] + [flag(name, value) for name, value in ints.items()]
    if command == "theorem1":
        return argv + [flag("seeds", draw(st.integers(1, 2))), flag("objects", draw(st.integers(1, 8))),
                       flag("length", draw(st.lists(FUZZ_FLOATS, min_size=1, max_size=2))),
                       flag("sigma", draw(FUZZ_FLOATS))]
    if command != "variance":
        argv.append(flag("mode", draw(st.sampled_from(["idealized", "literal"]))))
    if command == "sweep":
        return argv + [flag(name, draw(st.lists(values, min_size=1, max_size=2))) for name, values in
                       (("lengths", FUZZ_FLOATS), ("sigmas", FUZZ_FLOATS), ("losses", FUZZ_LOSSES))]
    return argv + [flag("loss", draw(FUZZ_LOSSES)),
                   *(flag(name, draw(FUZZ_FLOATS)) for name in ("sigma", "length", "beta"))]


# a --config entry's value: any JSON value, of the flag's type or not
CONFIG_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 2**65), FUZZ_FLOATS, FUZZ_LOSSES,
              st.sampled_from(["", "4,4", "idealized", "literal", "x"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "length"]), inner, max_size=2),
    max_leaves=4)
# per command: valid values of its required flags, the other keys a file may set, and the work-sizing
# flags, kept small on the command line, where they win over the file
CONFIG_COMMANDS = {
    "threshold": ({"length": 4}, "seed", ["--seed=0"]),
    "variance": ({"loss": "l1", "sigma": 0.5}, "length,beta,seed,deterministic", ["--samples=3"]),
    "sgd": ({"loss": "l2", "sigma": 0.5}, "length,beta,mode,seed,deterministic",
            ["--trials=2", "--steps=3", "--dim=2"]),
    "theorem1": ({"length": [4], "sigma": 0.5}, "seed,deterministic",
                 ["--seeds=1", "--objects=4", "--steps=3", "--dim=2"]),
}


@st.composite
def fuzzed_config(draw):
    """(argv, config bytes, whether the bytes hold a JSON object): the command's valid required values, some
    keys (an unknown one too) set to any value, then whole, truncated, nested deep in lists, replaced by
    another JSON value, or not UTF-8."""
    command = draw(st.sampled_from(sorted(CONFIG_COMMANDS)))
    valid, keys, flags = CONFIG_COMMANDS[command]
    overrides = st.dictionaries(st.sampled_from([*valid, *keys.split(","), "samples", "bogus"]), CONFIG_VALUES,
                                max_size=2)
    config = {**valid, **draw(st.just({}) | overrides)}
    text, form = json.dumps(config), draw(st.sampled_from(["whole", "truncated", "nested", "other", "bytes"]))
    if form == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif form == "nested":
        depth = draw(st.sampled_from([1, 50, 100_000]))
        text = "[" * depth + text + "]" * draw(st.sampled_from([0, depth]))
    elif form == "other":
        text = json.dumps(draw(CONFIG_VALUES.filter(lambda v: not isinstance(v, dict))))
    raw = text.encode() if form != "bytes" else b"{\"length\": \"\xff\"}"
    return [command, *flags], raw, form == "whole"


GRID_HEADER = struct.Struct("<4sII4d")
GRID_EXTENT = (-1.0, 1.0, 0.0, 2.0)
BAD_CELLS = st.sampled_from([math.nan, math.inf, -math.inf, 1.5, -0.5, 3e38])


GRID_FAULTS = ["header", "magic", "no cells", "short", "long", "cell", "ragged", "not a number", "csv cell", "no rows"]


@st.composite
def bad_grid_file(draw, fault: str):
    """(suffix, contents, message): a grid file with ``fault``, and the reader's message with
    ``{path}`` for the file's path."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.lists(st.floats(0, 1, width=32), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    if fault in ("ragged", "not a number", "csv cell", "no rows"):
        blank, spoilt = draw(st.integers(0, 2)), draw(st.integers(0, rows - 1))
        text = [f"# extent,{','.join(map(repr, GRID_EXTENT))}"] + [""] * blank + [",".join(map(repr, row))
                                                                                    for row in cells]
        if fault == "ragged":
            width = draw(st.integers(1, 5).filter(lambda n: n != cols))
            text.append(",".join(["0.5"] * width))
            message = f"{{path}}:{2 + blank + rows}: {width} cells, but the first row has {cols}"
        elif fault == "not a number":
            value = draw(st.sampled_from(["x", "1.0.0", "--1", "one", "0x1p-2"]))
            text[1 + blank + spoilt] = ",".join([value] * cols)
            message = f"{{path}}:{2 + blank + spoilt}: could not convert string to float: {value!r}"
        elif fault == "csv cell":
            text[1 + blank + spoilt] = ",".join([repr(draw(BAD_CELLS))] * cols)
            message = "{path}: cell values must be finite and lie in [0, 1]"
        else:
            text = text[:1 + blank]
            message = f"{{path}}:{2 + blank}: no grid rows after the extent header"
        return ".csv", "\n".join(text).encode() + b"\n", message
    flat = [v for row in cells for v in row]
    payload = struct.pack(f"<{len(flat)}f", *flat)
    header = GRID_HEADER.pack(b"BEVG", rows, cols, *GRID_EXTENT)
    if fault == "header":
        return ".bevg", header[:draw(st.integers(0, GRID_HEADER.size - 1))], "{path}: truncated grid header"
    if fault == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"BEVG"))
        return ".bevg", magic + header[4:] + payload, f"{{path}}: bad magic {magic!r}"
    if fault == "no cells":
        rows, cols = draw(st.sampled_from([(0, cols), (rows, 0), (0, 0), (0, 2**32 - 1), (2**32 - 1, 0)]))
        return ".bevg", GRID_HEADER.pack(b"BEVG", rows, cols, *GRID_EXTENT), "{path}: rows and cols must be >= 1"
    if fault == "short":
        cut = draw(st.integers(1, len(payload)))
        return ".bevg", header + payload[:-cut], "{path}: truncated grid payload"
    if fault == "long":
        extra = draw(st.binary(min_size=1, max_size=9))
        return ".bevg", header + payload + extra, "{path}: trailing bytes after the grid payload"
    flat[draw(st.integers(0, len(flat) - 1))] = draw(BAD_CELLS)
    message = "{path}: cell values must be finite and lie in [0, 1]"
    return ".bevg", header + struct.pack(f"<{len(flat)}f", *flat), message


BOX_FAULTS = ["none", "bad JSON", "missing key", "non-finite", "negative", "unscored", "bytes"]
BOX_KEYS = ["frame", "category", "x", "y", "z", "l", "w", "h", "yaw"]


@st.composite
def fuzzed_box_files(draw, fault: str):
    """(pred bytes, gt bytes, the spoilt file, line): scored predictions and unscored ground truths of two
    frames and categories, and one line of one file spoilt by ``fault``.  An unscored ground truth is no
    fault, so neither is dropping its (absent) score."""
    def boxes(scored):
        coords, dims = st.floats(-60, 60), st.floats(0.1, 15)
        return st.lists(st.fixed_dictionaries({
            "frame": st.sampled_from(["f0", "f1"]), "category": st.sampled_from(["car", "truck"]),
            "x": coords, "y": st.floats(-2, 2), "z": coords, "l": dims, "w": dims, "h": dims,
            "yaw": st.floats(-7, 7), **({"score": st.floats(0, 1)} if scored else {})}), min_size=1, max_size=6)

    files = {"pred": draw(boxes(True)), "gt": draw(boxes(False))}
    spoilt = draw(st.sampled_from(["pred", "gt"]))
    index = draw(st.integers(0, len(files[spoilt]) - 1))
    lines = {name: [json.dumps(rec).encode() for rec in records] for name, records in files.items()}
    rec = dict(files[spoilt][index])
    if fault == "bad JSON":
        line = draw(st.sampled_from([json.dumps(rec)[:-1], json.dumps(rec) + " x", "[1, 2]", "{", "nul"])).encode()
    elif fault == "missing key":
        del rec[draw(st.sampled_from(BOX_KEYS))]
        line = json.dumps(rec).encode()
    elif fault in ("non-finite", "negative"):  # json writes NaN and Infinity, and 10**400 overflows a float
        key = draw(st.sampled_from(BOX_KEYS[2:] if fault == "non-finite" else BOX_KEYS[5:8]))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400] if fault == "non-finite"
                                     else [-1.5, 0, -0.0, -1e-300]))
        line = json.dumps({**rec, key: value}).encode()
    elif fault == "unscored":
        rec.pop("score", None)
        line = json.dumps(rec).encode()
    elif fault == "bytes":
        line = json.dumps(rec).encode().replace(b'"category": "', b'"category": "\xff', 1)
    else:
        line = lines[spoilt][index]
    lines[spoilt][index] = line
    return b"\n".join(lines["pred"]) + b"\n", b"\n".join(lines["gt"]) + b"\n", spoilt, index + 1


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFuzz:
    @given(fuzzed_argv())
    @example(["variance", "--loss=l2", "--sigma=1e100", "--samples=1000"])
    @example(["sgd", "--loss=l2", "--sigma=1e150", "--trials=2", "--steps=5"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_documented_exit_and_finite_output(self, argv):
        """Every run exits 0, 2, 3 or 4 with no exception escaping, and a run that exits 0
        prints no inf or nan: no finite flag value asks for one."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's error path
                code = exc.code
        assert code in (EXIT_OK, EXIT_FLAGS, EXIT_OUTPUT_IO, EXIT_INPUT_PARSE), argv
        if code == EXIT_OK:
            assert not re.search(r"\b(inf|nan)\b", out.getvalue()), (argv, out.getvalue())

    @given(fuzzed_config())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_config_files_exit_documented(self, case):
        """A --config file that holds no JSON object exits 4, whatever is wrong with it; one that does
        exits 0, or 2 for a key or value its flags reject.  No exception escapes."""
        argv, raw, is_object = case
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "config.json")
            config.write_bytes(raw)
            try:
                code, err = run_main([argv[0], "--config", str(config), *argv[1:]])
            except SystemExit as exc:  # argparse's error path
                code, err = exc.code, ""
        assert code in ((EXIT_OK, EXIT_FLAGS) if is_object else (EXIT_INPUT_PARSE,)), (argv, raw[:200], err)

    @pytest.mark.parametrize("fault", GRID_FAULTS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_bad_grid_files_exit_4(self, fault, data):
        """``seg-iou`` names the manifest line and the reader's message; ``rasterize``, given the
        grid file for its box file, names the file and a line."""
        suffix, contents, message = data.draw(bad_grid_file(fault))
        as_pred = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            path, good, manifest = (Path(tmp, name) for name in (f"bad{suffix}", "good.bevg", "pairs.csv"))
            path.write_bytes(contents)
            gridio.write_grid(BevGrid(2, 2, GRID_EXTENT), good)
            manifest.write_text(f"car,{path},{good}\n" if as_pred else f"car,{good},{path}\n")
            code, err = run_main(["seg-iou", "--pairs", str(manifest)])
            assert (code, err) == (EXIT_INPUT_PARSE, f"error: {manifest}:1: {message.format(path=path)}\n")
            code, err = run_main(["rasterize", "--input", str(path), "--rows", "2", "--cols", "2",
                                  f"--extent={','.join(map(repr, GRID_EXTENT))}", "--out", str(Path(tmp, "out.bevg"))])
            if not contents:  # a box file of no lines is valid
                assert code == EXIT_OK
            else:
                assert code == EXIT_INPUT_PARSE and re.fullmatch(rf"error: {re.escape(str(path))}:\d+: .+\n", err), err

    @pytest.mark.parametrize("fault", BOX_FAULTS)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    def test_box_files_exit_0_or_4(self, fault, data):
        """``eval`` and ``nms`` (of the predictions) exit 0 on valid files; a spoilt line exits 4 naming
        ``path:line:``, and an unscored prediction exits 4 naming its frame.  No exception escapes."""
        pred_bytes, gt_bytes, spoilt, line_no = data.draw(fuzzed_box_files(fault))
        with tempfile.TemporaryDirectory() as tmp:
            files = {name: Path(tmp, f"{name}.jsonl") for name in ("pred", "gt", "kept")}
            files["pred"].write_bytes(pred_bytes)
            files["gt"].write_bytes(gt_bytes)
            path = files[spoilt]
            runs = {"eval": ["--pred", str(files["pred"]), "--gt", str(files["gt"])],
                    "nms": ["--input", str(files["pred"]), "--out", str(files["kept"])]}
            for command, flags in runs.items():
                code, err = run_main([command, *flags])
                if fault == "none" or spoilt == "gt" and (fault == "unscored" or command == "nms"):
                    assert (code, err) == (EXIT_OK, ""), (command, fault, err)
                elif fault == "unscored":
                    unscored = rf"error: {re.escape(str(path))}: frame 'f[01]' has an unscored .+\n"
                    assert code == EXIT_INPUT_PARSE and re.fullmatch(unscored, err), (command, err)
                else:
                    assert code == EXIT_INPUT_PARSE and err.startswith(f"error: {path}:{line_no}: "), (command, err)


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


# each size asks NumPy for terabytes; under the 1 GiB cap the allocation fails at once, before any
# thread starts, instead of being granted by overcommit and killed later
OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from bevlab.cli import main
sys.exit(main(sys.argv[1:]))
"""
HUGE = str(2**40)


@pytest.mark.parametrize("command,sizes", [
    (f"sgd --loss l2 --sigma 1 --steps {HUGE}", "--trials, --steps, --dim"),
    (f"sgd --loss l2 --sigma 1 --trials {HUGE}", "--trials, --steps, --dim"),
    (f"variance --loss l2 --sigma 1 --samples {HUGE}", "--samples"),
    (f"theorem1 --length 4 --sigma 1 --dim {HUGE}", "--objects, --steps, --dim"),
    (f"theorem1 --length 4 --sigma 1 --objects {HUGE} --steps 3 --dim 2", "--objects, --steps, --dim"),
    ("rasterize --input {boxes} --out {out} --rows 1048576 --cols 1048576 --extent 0,10,0,10", "--rows, --cols"),
])
def test_a_size_past_memory_exits_2_naming_the_size_flags(command, sizes, tmp_path):
    boxes = tmp_path / "boxes.jsonl"
    write_jsonl(boxes, [box_record()])
    argv = command.format(boxes=boxes, out=tmp_path / "grid.bevg").split()
    src = Path(bevlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY, *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == EXIT_FLAGS, done.stderr
    assert "Traceback" not in done.stderr
    assert [line for line in done.stderr.splitlines() if "error" in line] == [
        f"bevlab {argv[0]}: error: out of memory; lower {sizes}"]


def test_a_command_without_size_flags_lets_memory_error_through(monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "threshold", (exhausted, *cli.COMMANDS["threshold"][1:]))
    with pytest.raises(MemoryError):
        main(["threshold", "--length", "4"])
