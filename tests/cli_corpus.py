"""Byte-identity corpus of the bevlab CLI.

Runs a fixed list of deterministic calls, each in a fresh interpreter that
imports this checkout's ``src``, and prints one line per call: the argv, the
exit code, and the sha256 (first 16 hex digits) of stdout, stderr and each
file the call wrote.  The calls cover every sub-command, the commands of the
three README scripts at small sizes, and bad box, grid, manifest and config
files.  Every call runs in one temporary directory with relative paths, so a
listing does not depend on where the checkout or that directory lies.

The listing is committed as ``tests/cli_corpus.txt``, and
``tests/test_cli_corpus.py`` rebuilds it and diffs it against that file.  A
change that moves an output on purpose rewrites the file in the same commit::

    python tests/cli_corpus.py > tests/cli_corpus.txt

Compare two checkouts by their listings::

    python tests/cli_corpus.py > after.txt
    python /path/to/other/checkout/tests/cli_corpus.py > before.txt
    diff before.txt after.txt

pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BEVG = struct.Struct("<4sII4d")


def box(frame, category, x, z, l, w=1.8, score=None, yaw=0.0):
    rec = {"frame": frame, "category": category, "x": x, "y": 0.8, "z": z, "l": l, "w": w, "h": 1.6, "yaw": yaw}
    return rec if score is None else {**rec, "score": score}


def jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def bevg(rows, cols, cells=(), extent=(0.0, 4.0, 0.0, 4.0)) -> bytes:
    return BEVG.pack(b"BEVG", rows, cols, *extent) + struct.pack(f"<{len(cells)}f", *cells)


GTS = [box(f"f{f}", cat, -12.0 + 8 * k + f, 15.0 + 9 * k, l, yaw=0.3 * k)
       for f in range(3) for k, (cat, l) in enumerate([("car", 4.2), ("truck", 9.5), ("car", 4.5), ("bus", 12.0)])]
PREDS = [box(g["frame"], g["category"], g["x"] + 0.4 * s, g["z"] - 0.3, g["l"], score=round(0.9 - 0.2 * s, 2))
         for g in GTS for s in range(2)] + [box("f9", "car", 0.0, 30.0, 4.0, score=0.5)]
QUARTER = [0.0, 0.25, 0.5, 1.0] * 4

INPUTS = {
    "gts.jsonl": jsonl(GTS),
    "preds.jsonl": jsonl(PREDS),
    "empty.jsonl": "",
    "mixed.jsonl": jsonl([box("A", "car", 0, 10, 4, score=0.9), box("B", "car", 0, 10, 4), box("A", "car", 5, 10, 4)]),
    "bad_json.jsonl": jsonl(GTS[:2]) + "{oops\n",
    "missing_key.jsonl": '{"frame": "f0", "category": "car", "x": 0}\n',
    "nan_x.jsonl": jsonl(GTS[:1]).replace('"x": -12.0', '"x": NaN'),
    "latin1.jsonl": jsonl(GTS[:1]).encode() + b'{"frame": "\xff"}\n',
    "deep.jsonl": "[" * 200_000 + "\n",
    "groups.csv": "# category,group\ncar,small\ntruck,large\nbus,large\n",
    "groups_bad.csv": "car,small\ntruck\n",
    "pred.bevg": bevg(4, 4, QUARTER),
    "gt.bevg": bevg(4, 4, QUARTER[::-1]),
    "gt.csv": "# extent,0.0,4.0,0.0,4.0\n" + "".join(",".join(map(str, QUARTER[i:i + 4])) + "\n" for i in (0, 4, 8, 12)),
    "tall.bevg": bevg(8, 4, QUARTER * 2),
    "zero_rows.bevg": bevg(0, 4),
    "nan.bevg": bevg(4, 4, [float("nan")] + QUARTER[1:]),
    "flat.bevg": bevg(4, 4, QUARTER, extent=(1.0, 1.0, 0.0, 4.0)),
    "short.bevg": bevg(4, 4, QUARTER[:-1]),
    "ragged.csv": "# extent,0,4,0,4\n0.5,0.5\n0.5\n",
    "badcell.csv": "# extent,0,4,0,4\n0.5,x\n",
    "cfg.json": json.dumps({"length": 12}),
    "cfg_trunc.json": json.dumps({"length": 12})[:-3],
    "cfg_deep.json": "[" * 100_000,
    "cfg_list.json": "[4]",
    "cfg_type.json": json.dumps({"length": "x"}),
    "cfg_unknown.json": json.dumps({"lenght": 4}),
}
for name, grid in [("good", "gt.bevg"), ("csv", "gt.csv"), ("shape", "tall.bevg"), ("zero", "zero_rows.bevg"),
                   ("nan", "nan.bevg"), ("flat", "flat.bevg"), ("short", "short.bevg"), ("ragged", "ragged.csv"),
                   ("badcell", "badcell.csv"), ("missing", "none.bevg")]:
    INPUTS[f"pairs_{name}.csv"] = f"# category,pred,gt\ncar,pred.bevg,{grid}\n"
INPUTS["pairs_width.csv"] = "car,pred.bevg\n"

SWEEP_SIGMAS = ",".join(f"{0.05 + i * (2.0 - 0.05) / 19:.6f}" for i in range(0, 20, 4))
CALLS = [
    "variance --loss dice --length 12 --sigma 0.5 --samples 20000 --deterministic --out variance.csv",
    "variance --loss smooth_l1 --sigma 1 --samples 1000",
    "threshold --length 4",
    "threshold --length 12 --deterministic --out threshold.csv",
    f"sweep --lengths 12 --sigmas {SWEEP_SIGMAS} --losses l1,l2,dice --trials 20 --steps 100 --format csv+svg "
    "--log-y --deterministic --out sweep.csv",
    "sweep --lengths 4 --sigmas 0,0.5 --losses l1,smooth_l1,dice --trials 5 --steps 20",
    "sgd --loss dice --length 12 --sigma 0.5 --trials 20 --steps 200 --deterministic --out sgd.csv",
    "sgd --loss l2 --sigma 0.25 --trials 8 --steps 50 --mode literal",
    "theorem1 --length 12 --sigma 0.5 --seeds 2 --objects 300 --steps 500 --deterministic --out theorem1.csv",
    "theorem1 --length 4,12 --sigma 0.1 --seeds 2 --objects 50 --steps 100",
    "eval --pred preds.jsonl --gt gts.jsonl --iou 0.5,0.25 --groups groups.csv --deterministic --out eval.csv",
    "eval --pred preds.jsonl --gt gts.jsonl --bins 0,4,8",
    "nms --input preds.jsonl --radius 4 --out kept.jsonl",
    "rasterize --input gts.jsonl --rows 50 --cols 40 --extent=-20,20,0,50 --out grid.bevg",
    "rasterize --input gts.jsonl --rows 20 --cols 16 --extent=-20,20,0,50 --out grid.csv",
    "seg-iou --pairs pairs_good.csv --deterministic --out seg.csv",
    "seg-iou --pairs pairs_csv.csv --threshold 0.3",
    "threshold --config cfg.json",
    "scripts/run_lemma1_fit.py --dim 4 --steps 200 --trials 50",
    # bad inputs: box files
    "eval --pred bad_json.jsonl --gt gts.jsonl",
    "eval --pred missing_key.jsonl --gt gts.jsonl",
    "eval --pred nan_x.jsonl --gt gts.jsonl",
    "eval --pred latin1.jsonl --gt gts.jsonl",
    "eval --pred deep.jsonl --gt gts.jsonl",
    "eval --pred mixed.jsonl --gt mixed.jsonl",
    "eval --pred empty.jsonl --gt empty.jsonl",
    "eval --pred none.jsonl --gt gts.jsonl",
    "nms --input mixed.jsonl --out never.jsonl",
    "rasterize --input pred.bevg --rows 4 --cols 4 --extent=0,4,0,4 --out never.bevg",
    # grids and manifests
    *(f"seg-iou --pairs pairs_{name}.csv" for name in
      ["shape", "zero", "nan", "flat", "short", "ragged", "badcell", "missing", "width"]),
    "eval --pred preds.jsonl --gt gts.jsonl --groups groups_bad.csv",
    # config files
    *(f"threshold --config {name}.json" for name in ["cfg_trunc", "cfg_deep", "cfg_list", "cfg_type", "cfg_unknown"]),
    # flags and outputs
    "nms --input preds.jsonl --radius 0 --out never.jsonl",
    "variance --loss l1 --sigma 1 --samples 1000 --out no/dir/x.csv",
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def snapshot(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): digest(p.read_bytes()) for p in sorted(directory.rglob("*")) if p.is_file()}


def run(call: str, directory: Path) -> str:
    argv = call.split()
    if argv[0].endswith(".py"):
        argv = [sys.executable, str(ROOT / argv[0]), *argv[1:]]
    else:
        argv = [sys.executable, "-m", "bevlab", *argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    before = snapshot(directory)
    done = subprocess.run(argv, cwd=directory, capture_output=True, env=env, timeout=600)
    written = [f"{name}={sha}" for name, sha in snapshot(directory).items() if before.get(name) != sha]
    return " ".join([call, "|", f"exit={done.returncode}", f"stdout={digest(done.stdout)}",
                     f"stderr={digest(done.stderr)}", *written])


def listing():
    """Yield the listing's lines, one per call, as each call ends."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, content in INPUTS.items():
            (directory / name).write_bytes(content if isinstance(content, bytes) else content.encode())
        for call in CALLS:
            yield run(call, directory)


def main() -> None:
    for line in listing():
        print(line, flush=True)


if __name__ == "__main__":
    main()
