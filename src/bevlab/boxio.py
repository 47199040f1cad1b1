"""JSON-Lines box wire format.

One JSON object per line: ``frame`` (string), ``category`` (string),
``x y z l w h yaw`` (numbers, meters/radians) and optional ``score`` in
[0, 1] -- its absence marks a ground-truth box.  Unknown keys are ignored;
malformed lines raise :class:`BoxFormatError` carrying the line number.  It is
bevlab's one input-fault type: every reader (box files, ``gridio``'s grids,
the CLI's manifests and ``--config``) raises it for a fault of what it read,
and the CLI exits 4 on it.

A file is read into columns (:class:`BoxLines`) and written from them.
A read decodes all lines and checks the columns whole on one fast path;
only if that fails does :func:`_line_fault` check the lines in order, one
by one, to name the first faulty line.  :func:`read_text` reads every text
input of bevlab (box files, CSV grids and manifests, ``--config``) and names
the file and line of a byte that does not decode.
"""

from __future__ import annotations

import io
import json
import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .geometry import BoxArray, _codes, box_fault

__all__ = ["BoxFormatError", "BoxLines", "read_box_lines", "read_text", "write_box_lines"]

_REQUIRED = ("frame", "category", "x", "y", "z", "l", "w", "h", "yaw")
_NUMERIC = ("x", "y", "z", "l", "w", "h", "yaw")
_LABELS, _NUMBERS = itemgetter("frame", "category"), itemgetter(*_NUMERIC)
_DECODE = json.JSONDecoder().raw_decode


class BoxFormatError(ValueError):
    """A fault of an input file, as ``path:line_no: message``, or ``path: message`` (``line_no`` None) for a
    fault of the whole file.  A ValueError, so callers that catch one keep working."""

    def __init__(self, path, line_no: int | None, message: str):
        super().__init__(f"{path}: {message}" if line_no is None else f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class BoxLines:
    """A box file as columns, in file order: ``boxes``, and each box's frame
    as an index into ``frame_names`` (in order of first appearance)."""

    def __init__(self, frame_codes, frame_names, boxes: BoxArray) -> None:
        self.frame_codes, self.frame_names, self.boxes = np.asarray(frame_codes, np.intp), tuple(frame_names), boxes

    def __len__(self) -> int:
        return len(self.boxes)

    def frames(self) -> list[str]:
        return [self.frame_names[c] for c in self.frame_codes.tolist()]

    def take(self, rows) -> "BoxLines":
        return BoxLines(self.frame_codes[rows], self.frame_names, self.boxes.take(rows))

    def by_frame(self) -> dict[str, BoxArray]:
        """Each frame's boxes in file order, frames in order of first appearance."""
        order = np.argsort(self.frame_codes, kind="stable")
        ends = np.cumsum(np.bincount(self.frame_codes, minlength=len(self.frame_names)))
        return {f: self.boxes.take(rows) for f, rows in zip(self.frame_names, np.split(order, ends[:-1])) if len(rows)}


def _columns(lines: list[str]):
    """Labels, values and scores of the lines, each decoded once.  Raises,
    naming no line, on any fault but a broken box rule, which BoxArray finds."""
    objs = []
    for line in lines:
        obj, end = _DECODE(line)
        if end != len(line):
            raise ValueError("data after the JSON value")
        objs.append(obj)
    labels, numbers = [_LABELS(obj) for obj in objs], [_NUMBERS(obj) for obj in objs]
    scores = [obj.get("score") for obj in objs]
    kinds = set(map(type, chain.from_iterable(numbers)))
    if kinds - {float, int} or set(map(type, scores)) - {float, int, type(None)}:
        raise TypeError("a box value or score is not a number")
    # NumPy converts an int as float() does, OverflowError included; None reads as NaN
    values, score_values = np.array(numbers, dtype=np.float64).reshape(-1, 7), np.array(scores, dtype=np.float64)
    if np.count_nonzero(np.isnan(score_values)) != scores.count(None):
        raise ValueError("a score is NaN")
    return labels, values, score_values


def _line_fault(line: str) -> str | None:
    """The first fault of one line, or None: the checks of reading the line
    alone, in order (a bad score before an int too large for a float)."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        return f"invalid JSON: {exc}"
    if not isinstance(obj, dict):
        return "expected a JSON object"
    missing = [key for key in _REQUIRED if key not in obj]
    if missing:
        return f"missing key {missing[0]!r}"
    not_numbers = [key for key in _NUMERIC if type(obj[key]) not in (int, float)]  # bool is not a number
    if not_numbers:
        return f"key {not_numbers[0]!r} must be a number"
    score = obj.get("score")
    if score is not None and (type(score) not in (int, float) or not 0 <= score <= 1):
        return "score must be a number in [0, 1]"
    try:
        values = np.array([_NUMBERS(obj)], dtype=np.float64)
    except OverflowError as exc:  # an int too large for a float
        return str(exc)
    found = box_fault(values, np.zeros(1))  # the score was checked above
    return found and found[1]


def _text(raw: bytes, newline=None) -> str:
    """``raw`` as ``open(path, newline=newline).read()`` decodes it: the default encoding."""
    return io.TextIOWrapper(io.BytesIO(raw), newline=newline).read()


def read_text(path, newline=None) -> str:
    """The text of ``path`` as ``open(path, newline=newline).read()`` reads it; a byte that does not decode
    raises :class:`BoxFormatError` with the line it is on, as every text input of bevlab reports it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _text(raw, newline)
    except UnicodeDecodeError as exc:
        raise BoxFormatError(path, _text(raw[:exc.start]).count("\n") + 1, str(exc)) from None


def read_box_lines(path) -> BoxLines:
    """Parse a JSONL box file into columns, boxes in file order.  The first
    faulty line is reported, as checking the lines one by one reports it; so
    is the line of the first byte that does not decode."""
    text = read_text(path)
    numbered = [(no, line) for no, line in enumerate(map(str.strip, text.split("\n")), start=1) if line]
    try:
        labels, values, scores = _columns([line for _, line in numbered])
        frame_codes, frame_names = _codes([str(frame) for frame, _ in labels])
        codes, names = _codes([str(category) for _, category in labels])
        return BoxLines(frame_codes, frame_names, BoxArray(values, codes, names, scores))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):  # any fault of any line
        for no, line in numbered:
            fault = _line_fault(line)
            if fault is not None:
                raise BoxFormatError(path, no, fault) from None
        raise


def write_box_lines(lines: BoxLines, path) -> None:
    """One line per box, as ``json.dumps`` writes the box's object (``score``
    only where the box has one)."""
    frames, categories = [list(map(json.dumps, names)) for names in (lines.frame_names, lines.boxes.names)]
    boxes = lines.boxes
    rows = zip(lines.frame_codes.tolist(), boxes.codes.tolist(), boxes.values.tolist(), boxes.scores.tolist())
    with open(path, "w") as fh:
        for frame, category, (x, y, z, l, w, h, yaw), score in rows:
            tail = "}\n" if math.isnan(score) else f', "score": {score!r}}}\n'
            fh.write(f'{{"frame": {frames[frame]}, "category": {categories[category]}, "x": {x!r}, "y": {y!r}, '
                     f'"z": {z!r}, "l": {l!r}, "w": {w!r}, "h": {h!r}, "yaw": {yaw!r}{tail}')
