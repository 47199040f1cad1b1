"""The columnar box-file path against the per-box one it replaced.

``legacy_read_box_lines``, ``legacy_write_box_lines`` and
``legacy_center_nms`` are copies of the reader, writer and NMS loop that
built one ``Box3D`` per line; the columnar ones must give the same boxes,
bytes, kept rows and error messages.  ``loop_center_nms_rows`` is a copy of
the columnar NMS before it searched for neighbours: each box is tested
against every kept box of its group and category.  ``center_nms_rows``,
which tests only the kept boxes in the 3 x 3 radius cells around a box,
must keep the same rows in the same order, at cell edges, on the radius
and one double inside it, and where differences or ratios overflow.
"""

import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlab import boxio
from bevlab.boxio import BoxFormatError, BoxLines, read_box_lines, write_box_lines
from bevlab.geometry import Box3D, BoxArray
from bevlab.metrics import center_nms, center_nms_rows

_REQUIRED = ("frame", "category", "x", "y", "z", "l", "w", "h", "yaw")
_NUMERIC = ("x", "y", "z", "l", "w", "h", "yaw")


def legacy_read_box_lines(path):
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
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
                    x=float(obj["x"]), y=float(obj["y"]), z=float(obj["z"]),
                    l=float(obj["l"]), w=float(obj["w"]), h=float(obj["h"]), yaw=float(obj["yaw"]),
                    category=str(obj["category"]), score=None if score is None else float(score),
                )
            except (ValueError, OverflowError) as exc:
                raise BoxFormatError(path, line_no, str(exc)) from exc
            records.append((str(obj["frame"]), box))
    return records


def legacy_write_box_lines(records, path):
    with open(path, "w") as fh:
        for frame, box in records:
            obj = {"frame": frame, "category": box.category, "x": box.x, "y": box.y, "z": box.z,
                   "l": box.l, "w": box.w, "h": box.h, "yaw": box.yaw}
            if box.score is not None:
                obj["score"] = box.score
            fh.write(json.dumps(obj) + "\n")


def legacy_center_nms(boxes, radius):
    order = sorted(range(len(boxes)), key=lambda i: -boxes[i].score)
    kept = []
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


def loop_center_nms_rows(groups, boxes, radius):
    by_score = np.argsort(-boxes.scores, kind="stable")
    order = by_score[np.argsort(groups[by_score], kind="stable")]
    key = (groups * len(boxes.names) + boxes.codes)[order].tolist()
    keepers = {}  # kept centers of each group and category
    kept = []
    for i, k, x, z in zip(order.tolist(), key, boxes.values[order, 0].tolist(), boxes.values[order, 2].tolist()):
        near = keepers.setdefault(k, [])
        if all(math.hypot(kx - x, kz - z) >= radius for kx, kz in near):
            near.append((x, z))
            kept.append(i)
    return np.array(kept, dtype=np.intp)


def bits(box: Box3D):
    """A box's fields, floats by their bits (so -0.0 differs from 0.0)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in (
        box.x, box.y, box.z, box.l, box.w, box.h, box.yaw, box.category, box.score))


def outcome(read, path):
    """("ok", box count, [(frame, box bits)]) or ("error", message) of one reader."""
    try:
        records = read(path)
    except BoxFormatError as exc:
        return "error", str(exc)
    count = len(records)
    if isinstance(records, BoxLines):
        records = list(zip(records.frames(), records.boxes.boxes()))
    return "ok", count, [(frame, bits(box)) for frame, box in records]


# --------------------------------------------------------------- files

@st.composite
def box_object(draw, ints=False):
    """A valid box object; its numbers are floats unless ``ints``, when some
    may be ints."""
    coordinate, dimension, yaw = st.floats(-60, 60), st.floats(0.05, 20), st.floats(-10, 10)
    score = st.floats(0, 1) | st.none()
    if ints:
        coordinate, dimension = coordinate | st.integers(-60, 60), dimension | st.integers(1, 20)
        yaw = yaw | st.integers(-4, 4)
        score = score | st.sampled_from([0, 1])
    obj = {
        "frame": draw(st.sampled_from(["f0", "f1", "f2", 7, "é"])),
        "category": draw(st.sampled_from(["car", "truck", 3.5])),
        "x": draw(coordinate), "y": draw(coordinate), "z": draw(coordinate),
        "l": draw(dimension), "w": draw(dimension), "h": draw(dimension),
        "yaw": draw(yaw),
    }
    if draw(st.booleans()):
        obj["score"] = draw(score)
    if draw(st.integers(0, 4)) == 0:
        obj["extra"] = [1, {"a": None}]
    return obj


def _replace_value(obj, key, literal):
    """The JSON text of ``obj`` with ``key``'s value written as ``literal``."""
    return json.dumps({**obj, key: "@@"}).replace('"@@"', literal)


@st.composite
def faulty_line(draw):
    """The text of one line with one injected fault."""
    obj = draw(box_object())
    key = draw(st.sampled_from(_NUMERIC))
    kind = draw(st.sampled_from([
        "bad_json", "extra_data", "non_object", "missing_key", "bool", "string", "huge_int", "long_int", "nan",
        "1e400", "score", "dimension",
    ]))
    if kind == "bad_json":
        return json.dumps(obj)[: draw(st.integers(1, 20))]
    if kind == "extra_data":
        return json.dumps(obj) + draw(st.sampled_from([" x", ", {}", " 1", "}"]))
    if kind == "non_object":
        return draw(st.sampled_from(["[1, 2]", '"box"', "3", "null", "true"]))
    if kind == "missing_key":
        del obj[draw(st.sampled_from(_REQUIRED))]
        return json.dumps(obj)
    if kind == "bool":
        return _replace_value(obj, key, "true")
    if kind == "string":
        return _replace_value(obj, key, '"1.5"')
    if kind == "huge_int":
        return _replace_value(obj, key, "1" + "0" * 400)
    if kind == "long_int":
        return _replace_value(obj, key, "1" * 5000)
    if kind == "nan":
        return _replace_value(obj, key, "NaN")
    if kind == "1e400":
        return _replace_value(obj, key, draw(st.sampled_from(["1e400", "-1e400", "Infinity"])))
    if kind == "score":
        return _replace_value(obj, "score", draw(st.sampled_from(["1.5", "-0.1", "NaN", "1e400", "true", '"0.5"',
                                                                 "2", "1" + "0" * 400])))
    return _replace_value(obj, draw(st.sampled_from(["l", "w", "h"])), draw(st.sampled_from(["0", "-1.0", "0.0"])))


padding = st.sampled_from(["", " ", "\t", "\x0c", " \x0c\t", "\x1c"])
blank = st.sampled_from(["", "   ", "\x0c", "\t \t"])


@st.composite
def box_file(draw, faults=(0, 2)):
    """The lines of a box file: valid boxes, blank lines and up to two faults,
    each line padded with whitespace that ``str.strip`` removes."""
    ints = draw(st.integers(0, 3)) == 0
    lines = [json.dumps(obj) for obj in draw(st.lists(box_object(ints), max_size=12))]
    for _ in range(draw(st.integers(*faults))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faulty_line()))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank))
    lines = [draw(padding) + line + draw(padding) for line in lines]
    return lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans())


def write_lines(directory, lines, newline, trailing):
    path = Path(directory) / "boxes.jsonl"
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(lines) + (newline if trailing else ""))
    return path


class TestReadBoxLines:
    @settings(max_examples=300, deadline=None)
    @given(box_file())
    def test_matches_per_line_reader(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, *spec)
            assert outcome(read_box_lines, path) == outcome(legacy_read_box_lines, path)

    def test_earlier_fault_beats_later_json_error(self, tmp_path):
        good = json.dumps({"frame": "f", "category": "car", "x": 0.0, "y": 0.0, "z": 0.0, "l": 1.0, "w": 1.0,
                           "h": 1.0, "yaw": 0.0})
        path = tmp_path / "boxes.jsonl"
        path.write_text("\n".join([good, good.replace('"l": 1.0', '"l": true'), "{oops"]) + "\n")
        assert outcome(read_box_lines, path) == ("error", f"{path}:2: key 'l' must be a number")
        path.write_text("\n".join([good, "{oops", good.replace('"l": 1.0', '"l": true')]) + "\n")
        assert outcome(read_box_lines, path)[1].startswith(f"{path}:2: invalid JSON")

    def test_form_feed_is_stripped(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        line = json.dumps({"frame": "f", "category": "car", "x": 0.0, "y": 0.0, "z": 0.0, "l": 1.0, "w": 1.0,
                           "h": 1.0, "yaw": 0.0})
        path.write_text("\x0c" + line + "\n")
        assert len(read_box_lines(path)) == 1

    @pytest.mark.parametrize("text", [
        '{"a": [1,\n2]}\n',  # one value across two lines: each line alone is invalid
        '{"a": [{},\n{"b": 1}]}\n{"c": 1}, {"d": 2}\n',
        '{"a": 1} {"b": 2}\n',  # two values on one line
    ])
    def test_a_line_must_hold_one_whole_value(self, tmp_path, text):
        path = tmp_path / "boxes.jsonl"
        path.write_text(text)
        assert outcome(read_box_lines, path) == outcome(legacy_read_box_lines, path)
        assert outcome(read_box_lines, path)[1].startswith(f"{path}:1: invalid JSON")

    @pytest.mark.parametrize("score", ["NaN", "1.5", "-0.0001", "Infinity"])
    def test_bad_score_among_floats(self, tmp_path, score):
        good = json.dumps({"frame": "f", "category": "car", "x": 0.5, "y": 0.0, "z": 0.0, "l": 1.0, "w": 1.0,
                           "h": 1.0, "yaw": 0.0, "score": 0.5})
        path = tmp_path / "boxes.jsonl"
        path.write_text("\n".join([good, good.replace("0.5}", score + "}")]) + "\n")
        assert outcome(read_box_lines, path) == ("error", f"{path}:2: score must be a number in [0, 1]")

    @pytest.mark.parametrize("faults, message", [
        ([{"score": "1.5", "x": "1" + "0" * 400}], "1: score must be a number in [0, 1]"),
        ([{"l": "0", "score": "-0.1"}], "1: score must be a number in [0, 1]"),
        ([{"score": "NaN", "w": "0"}], "1: score must be a number in [0, 1]"),
        ([{"l": "0"}, {"h": "true"}], "1: box values must be finite and dimensions > 0"),
        ([{"score": "1" + "0" * 400}], "1: score must be a number in [0, 1]"),
    ])
    def test_which_of_several_faults_is_reported(self, tmp_path, faults, message):
        # each dict holds the JSON literals that replace a good box's values on one line
        good = {"frame": "f", "category": "car", "x": 0.5, "y": 0.0, "z": 0.0, "l": 1.0, "w": 1.0, "h": 1.0,
                "yaw": 0.0, "score": 0.5}
        lines = []
        for literals in faults:
            line = json.dumps({**good, **{key: "@" + key for key in literals}})
            for key, literal in literals.items():
                line = line.replace(f'"@{key}"', literal)
            lines.append(line)
        path = tmp_path / "boxes.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert outcome(read_box_lines, path) == outcome(legacy_read_box_lines, path) == ("error", f"{path}:{message}")

    def test_deep_nesting_is_invalid_json(self, tmp_path):
        good = json.dumps({"frame": "f", "category": "car", "x": 0.0, "y": 0.0, "z": 0.0, "l": 1.0, "w": 1.0,
                           "h": 1.0, "yaw": 0.0})
        path = tmp_path / "deep.jsonl"
        path.write_text(good + "\n" + "[" * 200_000 + "\n")
        message = outcome(read_box_lines, path)[1]
        assert message.startswith(f"{path}:2: invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, newline):
        # a box file that is not text, such as a .bevg grid, names the file and the line of its first bad byte
        good = json.dumps({"frame": "f", "category": "car", "x": 0.0, "y": 0.0, "z": 0.0, "l": 1.0, "w": 1.0,
                           "h": 1.0, "yaw": 0.0})
        path = tmp_path / "boxes.jsonl"
        path.write_bytes(newline.join([good, "", good + " \xff", good]).encode("latin-1"))
        kind, message = outcome(read_box_lines, path)  # an invalid byte where UTF-8 is the locale's encoding
        assert kind == "error" and message.startswith(f"{path}:3: ")
        path.write_bytes(newline.join([good, "", good]).encode())
        assert len(read_box_lines(path)) == 2


class TestOnePathForValidFiles:
    """The per-line rule runs only once the fast path has failed, and only
    up to the first faulty line."""

    @staticmethod
    def line_fault_calls(path) -> int:
        calls, line_fault = [], boxio._line_fault

        def counted(line):
            calls.append(line)
            return line_fault(line)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(boxio, "_line_fault", counted)
            try:
                read_box_lines(path)
            except BoxFormatError:
                pass
        return len(calls)

    @settings(max_examples=100, deadline=None)
    @given(box_file(faults=(0, 0)))
    def test_valid_file_never_calls_it(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            assert self.line_fault_calls(write_lines(tmp, *spec)) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(box_object(ints=True).map(json.dumps), max_size=8), faulty_line(),
           st.lists(box_object().map(json.dumps) | faulty_line(), max_size=3))
    def test_first_fault_on_line_k_calls_it_k_times(self, good, fault, rest):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, [*good, fault, *rest], "\n", True)
            assert self.line_fault_calls(path) == len(good) + 1


class TestWriteBoxLines:
    @settings(max_examples=100, deadline=None)
    @given(box_file(faults=(0, 0)))
    def test_bytes_equal_json_dumps_of_each_box(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(tmp, *spec)
            new, old = Path(tmp) / "new.jsonl", Path(tmp) / "old.jsonl"
            write_box_lines(read_box_lines(path), new)
            legacy_write_box_lines(legacy_read_box_lines(path), old)
            assert new.read_bytes() == old.read_bytes()

    def test_box_count_is_len(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        boxes = BoxArray([[0, 0, 0, 1, 1, 1, 0]] * 3, [0, 0, 0], ("car",), [0.5, math.nan, 1.0])
        write_box_lines(BoxLines([0, 1, 0], ("a", "b"), boxes), path)
        lines = read_box_lines(path)
        assert len(lines) == 3 and lines.frames() == ["a", "b", "a"]
        assert [b.score for b in lines.boxes.boxes()] == [0.5, None, 1.0]


# ------------------------------------------------------------------ NMS

lattice_box = st.builds(
    lambda frame, category, x, z, score: (frame, Box3D(x=x * 0.5, y=0.0, z=z * 0.5, l=2.0, w=1.0, h=1.5, yaw=0.0,
                                                       category=category, score=score)),
    st.sampled_from(["f2", "f0", "f1"]),
    st.sampled_from(["car", "truck"]),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
)


class TestCenterNmsRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(lattice_box, max_size=40), st.sampled_from([0.5, 1.0, math.sqrt(2.0), 1.5, 4.0]))
    def test_matches_per_frame_loop(self, records, radius):
        index = {id(box): i for i, (_, box) in enumerate(records)}
        frames: dict[str, list] = {}
        for frame, box in records:
            frames.setdefault(frame, []).append(box)
        want = [index[id(box)] for boxes in frames.values() for box in legacy_center_nms(boxes, radius)]
        codes = {frame: k for k, frame in enumerate(frames)}
        groups = np.array([codes[frame] for frame, _ in records], dtype=np.intp)
        got = center_nms_rows(groups, BoxArray.from_boxes([box for _, box in records]), radius)
        assert got.tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(lattice_box, max_size=30), st.sampled_from([0.5, 1.0, 1.5]))
    def test_center_nms_wrapper(self, records, radius):
        boxes = [box for _, box in records]
        assert [id(b) for b in center_nms(boxes, radius)] == [id(b) for b in legacy_center_nms(boxes, radius)]


# centres on a 0.5 m lattice wide enough for the x window to matter, some
# nudged one ulp, so distances land on the radius and just either side of it
lattice_coord = st.builds(
    lambda k, nudge: float(np.nextafter(0.5 * k, nudge * math.inf)) if nudge else 0.5 * k,
    st.integers(-24, 24),
    st.sampled_from([0, 0, 0, -1, 1]),
)
nms_row = st.tuples(
    st.sampled_from([3, 0, 7, 1]),  # group codes, not in first-appearance order
    st.sampled_from(["car", "truck", "bus"]),
    lattice_coord,
    lattice_coord,
    st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.9, 1.0]),  # many tied scores
)


finite = st.floats(allow_nan=False, allow_infinity=False)


def nudged(value, ulps):
    """``value`` moved ``ulps`` doubles up (or down, if negative)."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def nms_boxes(centres):
    """One car per (x, z, score)."""
    return BoxArray.from_boxes([Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category="car", score=s)
                                for x, z, s in centres])


class TestWindowedNms:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(nms_row, max_size=80),
           st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0, 5.0, math.sqrt(2.0), 0.1 + 0.2, 12.0]))
    def test_matches_the_greedy_loop(self, rows, radius):
        groups = np.array([g for g, *_ in rows], dtype=np.intp)
        boxes = BoxArray.from_boxes([Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category=c, score=s)
                                     for _, c, x, z, s in rows])
        got = center_nms_rows(groups, boxes, radius)
        assert got.dtype == np.intp
        assert got.tolist() == loop_center_nms_rows(groups, boxes, radius).tolist()

    def test_equal_centres_and_distance_on_the_radius(self):
        # the 3-4-5 triangle: a box exactly 5 m away is kept at radius 5 and dropped at 5 + 1 ulp
        centres = ((0.0, 0.0, 0.9), (3.0, 4.0, 0.8), (0.0, 0.0, 0.9), (3.0, 4.0, 0.7))
        boxes = BoxArray.from_boxes([Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category="car", score=s)
                                     for x, z, s in centres])
        groups = np.zeros(4, dtype=np.intp)
        assert center_nms_rows(groups, boxes, 5.0).tolist() == [0, 1]
        assert center_nms_rows(groups, boxes, float(np.nextafter(5.0, 6.0))).tolist() == [0]
        # one ulp inside the radius, along x and along z
        inside = float(np.nextafter(5.0, 0.0))
        for x, z in ((inside, 0.0), (0.0, inside), (-inside, 0.0), (0.0, -inside)):
            pair = BoxArray.from_boxes([Box3D(x=0.0, y=0.0, z=0.0, l=2.0, w=1.0, h=1.5, yaw=0.0, category="car", score=1.0),
                                        Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category="car", score=1.0)])
            assert center_nms_rows(np.zeros(2, dtype=np.intp), pair, 5.0).tolist() == [0]

    def test_a_kept_box_that_is_not_first_in_its_cell(self):
        # radius 4, cells of 2 m: B leads cell (1, 0) but A drops it, so C, later in
        # that cell and 4.46 m from A, is kept, and C (not a cell's first box) drops D
        centres = ((0.0, 0.0, 1.0), (3.0, 0.0, 0.9), (3.99, 1.99, 0.8), (7.5, 2.0, 0.7))
        boxes = BoxArray.from_boxes([Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category="car", score=s)
                                     for x, z, s in centres])
        assert center_nms_rows(np.zeros(4, dtype=np.intp), boxes, 4.0).tolist() == [0, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(["car", "truck"]), st.integers(-3, 3),
                              st.integers(-3, 3), st.integers(1, 60)), min_size=1, max_size=6),
           st.sampled_from([1.0, 2.5, 4.0]), st.integers(0, 2**32 - 1))
    def test_dense_clusters_match_the_greedy_loop(self, clusters, radius, seed):
        # up to 60 boxes within 1.5 m of each centre, scores with ties
        rng = np.random.default_rng(seed)
        rows = [(g, c, 3.0 * cx + rng.uniform(-1.5, 1.5), 3.0 * cz + rng.uniform(-1.5, 1.5),
                 float(rng.choice([0.5, rng.uniform()])))
                for g, c, cx, cz, size in clusters for _ in range(size)]
        groups = np.array([g for g, *_ in rows], dtype=np.intp)
        boxes = BoxArray.from_boxes([Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category=c, score=s)
                                     for _, c, x, z, s in rows])
        assert center_nms_rows(groups, boxes, radius).tolist() == loop_center_nms_rows(groups, boxes, radius).tolist()

    @pytest.mark.parametrize("radius", [5e-324, 1e-300, 1e300, sys.float_info.max])
    def test_extreme_radii_and_centres(self, radius):
        # no warning, and the same rows, where differences and ratios overflow or underflow
        rng = np.random.default_rng(61)
        values = [0.0, 1e-310, -1e-310, 1e-300, 1.0, 2.0, -3.0, 1e300, -1e300, sys.float_info.max, -sys.float_info.max]
        rows = [(rng.choice(values), rng.choice(values), float(rng.choice([0.5, 0.9]))) for _ in range(60)]
        boxes = BoxArray.from_boxes([Box3D(x=x, y=0.0, z=z, l=2.0, w=1.0, h=1.5, yaw=0.0, category="car", score=s)
                                     for x, z, s in rows])
        groups = np.zeros(len(rows), dtype=np.intp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = center_nms_rows(groups, boxes, radius)
        assert got.tolist() == loop_center_nms_rows(groups, boxes, radius).tolist()

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(finite, finite), max_size=20),
           st.floats(min_value=5e-324, allow_infinity=False), st.data())
    def test_arbitrary_centres_and_radii(self, centres, radius, data):
        # differences that overflow, and differences from a box at the origin on the radius
        # itself and one ulp either side of it (a centre stays finite)
        for _ in range(3):
            a = data.draw(st.floats(0.0, math.pi / 2))
            dx, dz = radius * math.cos(a), radius * math.sin(a)
            dx = math.nextafter(dx, data.draw(st.sampled_from([0.0, math.inf])))
            centres.append((min(dx, sys.float_info.max), dz))
        boxes = nms_boxes([(0.0, 0.0, 1.0)] + [(x, z, 0.5) for x, z in centres])
        groups = np.zeros(len(boxes), dtype=np.intp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = center_nms_rows(groups, boxes, radius)
        assert got.tolist() == loop_center_nms_rows(groups, boxes, radius).tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.1 + 0.2, 1 / 3, math.sqrt(2.0), 4.0, 1e-300, 1e300]), st.data())
    def test_centres_at_cell_edges(self, radius, data):
        # centres within 3 ulps of a cell edge k * radius, |k| up to 2**40, each with partners
        # on the radius and one ulp inside it, along an axis or a diagonal, across the edge
        reach = int(min(2.0**40, sys.float_info.max / radius / 2))
        edge = st.builds(lambda k, ulps: nudged(k * radius, ulps), st.integers(-reach, reach), st.integers(-3, 3))
        centres = []
        for x, z in data.draw(st.lists(st.tuples(edge, edge), min_size=1, max_size=4)):
            centres.append((x, z, 0.9))
            for ux, uz in data.draw(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (0.6, 0.8),
                                                                (-0.8, 0.6), (0.6, -0.8)]), max_size=4)):
                px, pz = x + ux * radius, z + uz * radius
                inside = data.draw(st.integers(0, 1))
                centres.append((nudged(px, -inside if px > x else inside), nudged(pz, -inside if pz > z else inside),
                                data.draw(st.sampled_from([0.9, 0.5]))))
        boxes = nms_boxes(centres)
        groups = np.zeros(len(boxes), dtype=np.intp)
        assert center_nms_rows(groups, boxes, radius).tolist() == loop_center_nms_rows(groups, boxes, radius).tolist()

    def test_pairs_on_the_radius_across_cell_edges(self):
        # radius 4 and centres on multiples of 4: every difference is exact, so a partner 4 m away in the
        # next cell is kept, and one a double nearer is dropped, at every edge up to 2**40 cells out
        for k in (0, 2, -2, 2**20, -(2**40), 2**40 - 1):  # no partner at 0, where a double nearer is 5e-324
            x = 4.0 * k
            for px, pz in ((x + 4.0, 12.0), (x - 4.0, 12.0), (x, 16.0), (x, 8.0)):
                centres = [(x, 12.0, 0.9), (px, pz, 0.5)]
                assert center_nms_rows(np.zeros(2, dtype=np.intp), nms_boxes(centres), 4.0).tolist() == [0, 1]
                near = (nudged(px, int(np.sign(x - px))), nudged(pz, int(np.sign(12.0 - pz))), 0.5)
                assert center_nms_rows(np.zeros(2, dtype=np.intp), nms_boxes(centres[:1] + [near]), 4.0).tolist() == [0]

    def test_a_lane_along_z_takes_little_memory(self):
        # 2,000 boxes 5 m apart at one x: each needs only its own and the next cells' kept boxes
        boxes = nms_boxes([(0.0, 5.0 * i, 0.5) for i in range(2000)])
        groups = np.zeros(len(boxes), dtype=np.intp)
        tracemalloc.start()
        try:
            kept = center_nms_rows(groups, boxes, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept.tolist() == list(range(2000))
        assert peak < 16 * 2**20
