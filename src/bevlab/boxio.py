"""JSON-Lines box wire format.

One JSON object per line: ``frame`` (string), ``category`` (string),
``x y z l w h yaw`` (numbers, meters/radians) and optional ``score`` in
[0, 1] -- its absence marks a ground-truth box.  Unknown keys are ignored;
malformed lines raise :class:`BoxFormatError` carrying the line number.
"""

from __future__ import annotations

import json
from typing import Iterable

from .geometry import Box3D

__all__ = ["BoxFormatError", "read_box_lines", "write_box_lines", "group_by_frame"]

_REQUIRED = ("frame", "category", "x", "y", "z", "l", "w", "h", "yaw")
_NUMERIC = ("x", "y", "z", "l", "w", "h", "yaw")


class BoxFormatError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def read_box_lines(path) -> list[tuple[str, Box3D]]:
    """Parse a JSONL box file into (frame_id, box) pairs in file order."""
    records: list[tuple[str, Box3D]] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise BoxFormatError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise BoxFormatError(path, line_no, "expected a JSON object")
            for key in _REQUIRED:
                if key not in obj:
                    raise BoxFormatError(path, line_no, f"missing key {key!r}")
            for key in _NUMERIC:
                if not isinstance(obj[key], (int, float)) or isinstance(obj[key], bool):
                    raise BoxFormatError(path, line_no, f"key {key!r} must be a number")
            score = obj.get("score")
            if score is not None and (
                isinstance(score, bool) or not isinstance(score, (int, float)) or not 0 <= score <= 1
            ):
                raise BoxFormatError(path, line_no, "score must be a number in [0, 1]")
            try:
                box = Box3D(
                    x=float(obj["x"]),
                    y=float(obj["y"]),
                    z=float(obj["z"]),
                    l=float(obj["l"]),
                    w=float(obj["w"]),
                    h=float(obj["h"]),
                    yaw=float(obj["yaw"]),
                    category=str(obj["category"]),
                    score=None if score is None else float(score),
                )
            except (ValueError, OverflowError) as exc:
                raise BoxFormatError(path, line_no, str(exc)) from exc
            records.append((str(obj["frame"]), box))
    return records


def write_box_lines(records: Iterable[tuple[str, Box3D]], path) -> None:
    with open(path, "w") as fh:
        for frame, box in records:
            obj = {
                "frame": frame,
                "category": box.category,
                "x": box.x,
                "y": box.y,
                "z": box.z,
                "l": box.l,
                "w": box.w,
                "h": box.h,
                "yaw": box.yaw,
            }
            if box.score is not None:
                obj["score"] = box.score
            fh.write(json.dumps(obj) + "\n")


def group_by_frame(records: Iterable[tuple[str, Box3D]]) -> dict[str, list[Box3D]]:
    frames: dict[str, list[Box3D]] = {}
    for frame, box in records:
        frames.setdefault(frame, []).append(box)
    return frames
