"""Data-layer tests: CSV parsing and writing, track slicing, fold splits,
and synthetic track generators against their closed-form kinematics."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcast import data
from boxcast.data import (
    CENTROID_HEADER,
    CORNER_HEADER,
    Box,
    Boxes,
    CsvFormat,
    FoldSplit,
    MiniTrack,
    SynthSpec,
    Track,
    boxes_to_array,
    parse_tracks,
    slice_all_minitracks,
    slice_minitracks,
    split_folds,
    synth_tracks,
    write_tracks,
)
from boxcast.errors import (
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
)
from boxcast.evaluation import evaluate_baseline
from helpers import reference_parse_tracks


def make_track(n, track_id="t0", video_id="v0", start_frame=0, rate=30.0):
    boxes = [Box(cx=10.0 + i, cy=20.0 + 2.0 * i, w=5.0, h=9.0,
                 frame=start_frame + i) for i in range(n)]
    return Track(video_id=video_id, track_id=track_id, boxes=boxes,
                 frame_rate_hz=rate)


class TestBoxAndTrack:
    def test_boxes_to_array(self):
        arr = boxes_to_array(make_track(3).boxes)
        np.testing.assert_array_equal(arr, [[10, 20, 5, 9],
                                            [11, 22, 5, 9],
                                            [12, 24, 5, 9]])

    def test_minitrack_len(self):
        mt = MiniTrack(video_id="v", track_id="t", start_frame=0,
                       boxes=make_track(4).boxes, predecessor=None)
        assert len(mt) == 4


class TestBoxes:
    def test_a_box_list_becomes_arrays_once(self):
        t = make_track(3, start_frame=5)
        assert isinstance(t.boxes, Boxes)
        np.testing.assert_array_equal(t.boxes.frames, [5, 6, 7])
        assert t.boxes.xywh.shape == (3, 4)
        assert Boxes.of(t.boxes) is t.boxes
        assert MiniTrack("v", "t", 5, t.boxes).boxes is t.boxes

    def test_indexing_yields_boxes_of_python_numbers(self):
        t = make_track(4)
        assert t.boxes[1] == Box(cx=11.0, cy=22.0, w=5.0, h=9.0, frame=1)
        assert t.boxes[-1].frame == 3
        assert list(t.boxes) == [t.boxes[i] for i in range(4)]
        b = t.boxes[2]
        assert [type(v) for v in (b.cx, b.cy, b.w, b.h, b.frame)] == \
            [float] * 4 + [int]
        assert repr(b) == "Box(cx=12.0, cy=24.0, w=5.0, h=9.0, frame=2)"
        with pytest.raises(IndexError):
            t.boxes[4]

    def test_slices_are_read_only_views(self):
        boxes = make_track(10).boxes
        part = boxes[2:7]
        assert isinstance(part, Boxes) and len(part) == 5
        assert np.shares_memory(part.xywh, boxes.xywh)
        assert np.shares_memory(part.frames, boxes.frames)
        assert part[0] == boxes[2]
        for arr in (boxes.xywh, boxes.frames, part.xywh, part.frames):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_concatenation_and_value_equality(self):
        boxes = make_track(10).boxes
        joined = boxes[:3] + boxes[5:]
        assert [b.frame for b in joined] == [0, 1, 2, 5, 6, 7, 8, 9]
        assert boxes[:4] + boxes[4:] == boxes
        assert boxes[:4] + boxes[4:] is not boxes
        assert boxes != boxes[1:]
        assert Boxes.of(list(boxes)) == boxes
        assert boxes != list(boxes)

    def test_shapes_are_checked(self):
        with pytest.raises(ShapeError):
            Boxes(np.zeros((3, 3)), np.arange(3))
        with pytest.raises(ShapeError):
            Boxes(np.zeros((3, 4)), np.arange(2))
        assert len(Boxes.of([])) == 0


class TestCsvRoundTrip:
    def test_write_then_parse_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tracks = []
        for i in range(3):
            boxes = [Box(cx=float(rng.normal(100, 30)),
                         cy=float(rng.normal(100, 30)),
                         w=float(rng.uniform(1, 50)),
                         h=float(rng.uniform(1, 50)),
                         frame=7 + j) for j in range(5)]
            tracks.append(Track(video_id="vid", track_id=f"t{i}", boxes=boxes))
        path = tmp_path / "tracks.csv"
        write_tracks(tracks, path)
        back = parse_tracks(path)
        assert [t.key for t in back] == [t.key for t in tracks]
        for orig, rt in zip(tracks, back):
            assert rt.boxes == orig.boxes

    def test_groups_keep_first_appearance_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "video_id,track_id,frame,cx,cy,w,h\n"
            "v,b,0,1,1,2,2\n"
            "v,a,0,1,1,2,2\n"
            "v,b,1,1,1,2,2\n"
            "v,a,1,1,1,2,2\n")
        assert [t.track_id for t in parse_tracks(path)] == ["b", "a"]

    def test_corner_format_converts_to_centroids(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "video_id,track_id,frame,x1,y1,x2,y2\n"
            "v,t,0,10,20,30,60\n")
        [track] = parse_tracks(path, CsvFormat(corner_format=True))
        assert track.boxes[0] == Box(cx=20.0, cy=40.0, w=20.0, h=40.0, frame=0)

    def test_frame_rate_comes_from_the_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_tracks([make_track(3)], path)
        [track] = parse_tracks(path, CsvFormat(frame_rate_hz=15.0))
        assert track.frame_rate_hz == 15.0

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert parse_tracks(empty) == []
        header = tmp_path / "header.csv"
        header.write_text("video_id,track_id,frame,cx,cy,w,h\n")
        assert parse_tracks(header) == []

    def test_unsorted_rows_are_sorted_by_frame(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "video_id,track_id,frame,cx,cy,w,h\n"
            "v,t,2,3,3,2,2\n"
            "v,t,0,1,1,2,2\n"
            "v,t,1,2,2,2,2\n")
        [track] = parse_tracks(path)
        assert [b.frame for b in track.boxes] == [0, 1, 2]
        assert [b.cx for b in track.boxes] == [1.0, 2.0, 3.0]


class TestParseErrors:
    def test_wrong_header_names_line_one(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("frame,cx,cy,w,h\nv,t,0,1,1,2,2\n")
        with pytest.raises(ParseError, match="line 1") as exc:
            parse_tracks(path)
        assert exc.value.line == 1

    def test_wrong_column_count_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "video_id,track_id,frame,cx,cy,w,h\n"
            "v,t,0,1,1,2,2\n"
            "v,t,1,1,1\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_tracks(path)

    def test_bad_numeric_field_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "video_id,track_id,frame,cx,cy,w,h\n"
            "v,t,0,1,oops,2,2\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_tracks(path)

    def test_non_positive_size_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "video_id,track_id,frame,cx,cy,w,h\n"
            "v,t,0,1,1,0,2\n")
        with pytest.raises(ParseError, match="non-positive"):
            parse_tracks(path)

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "video_id,track_id,frame,cx,cy,w,h\n"
            "v,t,3,1,1,2,2\n"
            "v,t,3,2,2,2,2\n")
        with pytest.raises(DataError, match="duplicate frame 3"):
            parse_tracks(path)

    def test_gap_splits_into_suffixed_segments(self, tmp_path):
        rows = ["video_id,track_id,frame,cx,cy,w,h"]
        rows += [f"v,ped,{f},1,1,2,2" for f in range(0, 57)]
        rows += [f"v,ped,{f},1,1,2,2" for f in range(60, 102)]
        path = tmp_path / "t.csv"
        path.write_text("\n".join(rows) + "\n")
        tracks = parse_tracks(path)
        assert [(t.track_id, len(t)) for t in tracks] == [("ped~0", 57),
                                                          ("ped~1", 42)]
        assert tracks[1].boxes[0].frame == 60

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(
            b"video_id,track_id,frame,cx,cy,w,h\n"
            b"v,t,0,1,1,2,2\n"
            b"v,t,1,\xff\xfe1,1,2,2\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8") as exc:
            parse_tracks(path)
        assert exc.value.line == 3

    def test_contiguous_track_keeps_its_id(self, tmp_path):
        path = tmp_path / "t.csv"
        write_tracks([make_track(4, track_id="ped")], path)
        assert [t.track_id for t in parse_tracks(path)] == ["ped"]

    @pytest.mark.parametrize("corner,body,line,match", [
        (False, ["v,t,0,1,1,2,2", "v,t,1,nan,1,2,2"], 3, "non-finite"),
        (False, ["v,t,0,1,inf,2,2"], 2, "non-finite"),
        (True, ["v,t,0,-1e308,0,1e308,5"], 2, "non-finite"),
        (False, [f"v,t,{2**63},1,1,2,2"], 2, "outside the int64 range"),
        (False, [f"v,t,{-2**63 - 1},1,1,2,2"], 2, "outside the int64 range"),
        (False, ["v,t,0,1,1,2,2", "v," + "x" * 200_000 + ",1,1,1,2,2"], 3,
         "field larger than field limit"),
        (False, ["v,t,3,1,1,2,2", "v,t,4,1,1,2,2", "v,t,3,2,2,2,2"], 4,
         r"track \(v, t\) has duplicate frame 3"),
        (False, ['"v', 'w",t,0,1,1,2,2', "v,t,0,1,oops,2,2"], 4,
         "bad numeric field"),
    ], ids=["nan", "inf", "corner-width-overflow", "frame-2**63",
            "frame-below-int64", "200k-char-field", "duplicate-frame",
            "after-two-line-id"])
    def test_hostile_row_is_a_parse_error_at_its_line(self, tmp_path, corner,
                                                      body, line, match):
        header = CORNER_HEADER if corner else CENTROID_HEADER
        path = tmp_path / "t.csv"
        path.write_text("\n".join([",".join(header), *body]) + "\n")
        with pytest.raises(ParseError, match=match) as exc:
            parse_tracks(path, CsvFormat(corner_format=corner))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    def test_int64_boundary_frames_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("video_id,track_id,frame,cx,cy,w,h\n"
                        f"v,t,{2**63 - 1},1,1,2,2\n"
                        f"v,t,{2**63 - 2},1,1,2,2\n")
        [track] = parse_tracks(path)
        assert [b.frame for b in track.boxes] == [2**63 - 2, 2**63 - 1]
        assert boxes_to_array(track.boxes).shape == (2, 4)


def _field(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


_GOOD_ROWS = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(0, 12),
              st.floats(-50, 50), st.floats(-50, 50),
              st.floats(1, 20), st.floats(1, 20)),
    max_size=30, unique_by=lambda r: r[:2])
_HOSTILE_INTS = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**20]))
_HOSTILE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 0.0]))
_HOSTILE_FIELDS = st.lists(
    st.one_of(_HOSTILE_INTS, _HOSTILE_FLOATS,
              st.text(alphabet="0123456789.eE+-nafi x", max_size=6)),
    max_size=9).map(lambda fields: ",".join(map(_field, fields)))
_HOSTILE_ROWS = st.tuples(
    st.sampled_from(["a", "b", '"a\nb"']), _HOSTILE_INTS, _HOSTILE_FLOATS,
    _HOSTILE_FLOATS, _HOSTILE_FLOATS, _HOSTILE_FLOATS,
).map(lambda r: ",".join([r[0], "t", *map(_field, r[1:])]))


@st.composite
def _track_csvs(draw):
    """(text, corner format) of a track CSV: well-formed rows on distinct
    frames, so most tracks have gaps, and ids that may carry padding, with
    hostile lines (blank, wrong column counts, values beyond int64 or float
    range, a repeated frame, a quoted two-line id) mixed in at random
    positions."""
    corner = draw(st.booleans(), label="corner")
    good = draw(_GOOD_ROWS, label="good rows")
    lines = []
    for tid, frame, cx, cy, w, h in good:
        vals = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2) if corner \
            else (cx, cy, w, h)
        tid = draw(st.sampled_from([tid, f" {tid}"]), label="padded id")
        lines.append(",".join(["v", tid, str(frame), *map(repr, vals)]))
    hostile = [st.sampled_from(["", "  ", ","]), _HOSTILE_FIELDS,
               _HOSTILE_ROWS]
    if lines:
        hostile.append(st.sampled_from(lines))  # a repeated frame
    for bad in draw(st.lists(st.one_of(hostile), max_size=3), label="bad"):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    header = CORNER_HEADER if corner else CENTROID_HEADER
    return "\n".join([",".join(header), *lines]) + "\n", corner


class TestParseProperty:
    """Whatever rows a file holds, `parse_tracks` either names a line of it
    in a ParseError or returns tracks the rest of the pipeline accepts."""

    @settings(max_examples=50, deadline=None)
    @given(csv_file=_track_csvs())
    def test_parse_error_at_a_line_or_tracks_that_evaluate(self, csv_file):
        text, corner = csv_file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8")
            try:
                tracks = parse_tracks(path, CsvFormat(corner_format=corner))
            except ParseError as e:
                assert e.line is not None
                assert 1 <= e.line <= text.count("\n")
                return
        for t in tracks:
            frames = [b.frame for b in t.boxes]
            assert frames == list(range(frames[0], frames[0] + len(t)))
            for b in t.boxes:
                assert all(map(math.isfinite, (b.cx, b.cy, b.w, b.h)))
                assert b.w > 0 and b.h > 0
        try:
            evaluate_baseline("stationary",
                              slice_all_minitracks(tracks, 2, 1), 1, 1)
        except (ConfigError, DataError, NumericError):
            pass


def _outcome(parse, path, fmt):
    """A parse's tracks as (ids, rate, frames, box bytes), or its error."""
    try:
        tracks = parse(path, fmt)
    except ParseError as e:
        return ("ParseError", str(e), e.line)
    return [(t.video_id, t.track_id, t.frame_rate_hz,
             t.boxes.frames.tolist(), t.boxes.xywh.tobytes())
            for t in tracks]


class TestParseMatchesTheRowByRowReference:
    """The column-wise parser returns what `reference_parse_tracks` returns,
    boxes bit for bit, or the same ParseError at the same line."""

    @settings(max_examples=50, deadline=None)
    @given(csv_file=_track_csvs())
    def test_same_tracks_or_same_error(self, csv_file):
        text, corner = csv_file
        fmt = CsvFormat(corner_format=corner, frame_rate_hz=25.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8")
            assert _outcome(parse_tracks, path, fmt) == \
                _outcome(reference_parse_tracks, path, fmt)

    @pytest.mark.parametrize("at,bad", [
        (None, None),
        (3, "v,t,x,1,1,2,2"),
        (700, "v,t,5,1,1,-2,2"),
        (1100, "v,t,5,1,1,2"),
        (1100, "v,a,3,1,1,2,2"),
        (1400, '"v'),
    ], ids=["clean", "first-block", "second-block-size", "third-block-count",
            "third-block-duplicate", "unterminated-quote"])
    def test_files_longer_than_one_block(self, tmp_path, at, bad):
        rows = [f"v,{'ab'[f % 2]},{f // 2 + 7 * (f > 900)},{f}.5,2,3,4"
                for f in range(1500)]
        rows[600:600] = [""] * (2 * data._BLOCK_ROWS)  # whole blank blocks
        if bad is not None:
            rows.insert(at, bad)
        path = tmp_path / "t.csv"
        path.write_text("\n".join([",".join(CENTROID_HEADER), *rows]) + "\n")
        want = _outcome(reference_parse_tracks, path, CsvFormat())
        assert _outcome(parse_tracks, path, CsvFormat()) == want
        assert (bad is None) == isinstance(want, list)

    @settings(max_examples=50, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(
            lambda b: ",".join(CENTROID_HEADER).encode() + b"\n" + b)))
    def test_random_bytes_are_only_parse_errors(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(raw)
            try:
                parse_tracks(path)
            except ParseError as e:
                assert e.line is not None


class TestSlicing:
    def test_exact_window_gives_one_slice(self):
        [mt] = slice_minitracks(make_track(90), window=90, stride=30)
        assert len(mt) == 90
        assert mt.predecessor is None
        assert mt.start_frame == 0

    def test_offsets_follow_the_stride(self):
        mts = slice_minitracks(make_track(150), window=90, stride=30)
        assert [mt.start_frame for mt in mts] == [0, 30, 60]
        assert all(len(mt) == 90 for mt in mts)

    def test_later_slices_carry_their_predecessor(self):
        t = make_track(120)
        mts = slice_minitracks(t, window=90, stride=30)
        assert mts[0].predecessor is None
        assert mts[1].predecessor == t.boxes[29]
        assert mts[1].boxes[0] == t.boxes[30]

    def test_short_track_gives_nothing(self):
        assert slice_minitracks(make_track(89), window=90, stride=30) == []

    def test_count_matches_the_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            window = int(rng.integers(2, 120))
            stride = int(rng.integers(1, 61))
            got = len(slice_minitracks(make_track(n), window, stride))
            expected = 0 if n < window else (n - window) // stride + 1
            assert got == expected, (n, window, stride)

    def test_all_tracks_concatenate(self):
        tracks = [make_track(90, track_id="a"), make_track(150, track_id="b")]
        mts = slice_all_minitracks(tracks, window=90, stride=30)
        assert [mt.track_id for mt in mts] == ["a", "b", "b", "b"]

    def test_bad_window_or_stride(self):
        with pytest.raises(ConfigError):
            slice_minitracks(make_track(10), window=1, stride=30)
        with pytest.raises(ConfigError):
            slice_minitracks(make_track(10), window=5, stride=0)


class TestFolds:
    def test_ten_tracks_three_folds_partition(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(10)]
        split = split_folds(tracks, n_folds=3, seed=0)
        sizes = sorted(len(split.test_keys(f)) for f in range(3))
        assert sizes == [3, 3, 4]
        union = set()
        for f in range(3):
            test = split.test_keys(f)
            assert test.isdisjoint(union)
            union |= test
            assert split.train_keys(f) == {t.key for t in tracks} - test
        assert union == {t.key for t in tracks}

    def test_same_seed_same_split(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(12)]
        a = split_folds(tracks, n_folds=3, seed=7)
        b = split_folds(tracks, n_folds=3, seed=7)
        assert all(a.test_keys(f) == b.test_keys(f) for f in range(3))

    def test_seed_changes_the_assignment(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(30)]
        a = split_folds(tracks, n_folds=3, seed=0)
        b = split_folds(tracks, n_folds=3, seed=1)
        assert any(a.test_keys(f) != b.test_keys(f) for f in range(3))

    def test_validation(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(3)]
        with pytest.raises(ConfigError):
            split_folds(tracks, n_folds=1)
        with pytest.raises(ConfigError, match="cannot split"):
            split_folds(tracks[:2], n_folds=3)
        with pytest.raises(DataError, match="duplicate"):
            split_folds(tracks + [make_track(5, track_id="t0")], n_folds=3)


class TestSynthTracks:
    def test_constant_velocity_closed_form(self):
        spec = SynthSpec(kind="constant-velocity", length=20,
                         start=(320.0, 240.0), velocity=(2.0, 1.0),
                         size=(40.0, 80.0))
        [track] = synth_tracks(spec, 1)
        arr = boxes_to_array(track.boxes)
        i = np.arange(20.0)
        np.testing.assert_array_equal(arr[:, 0], 320.0 + 2.0 * i)
        np.testing.assert_array_equal(arr[:, 1], 240.0 + 1.0 * i)
        np.testing.assert_array_equal(arr[:, 2], 40.0)
        np.testing.assert_array_equal(arr[:, 3], 80.0)
        assert [b.frame for b in track.boxes] == list(range(20))

    def test_constant_acceleration_closed_form(self):
        spec = SynthSpec(kind="constant-acceleration", length=15,
                         start=(0.0, 0.0), velocity=(1.0, 0.0),
                         accel=(0.5, -0.25))
        [track] = synth_tracks(spec, 1)
        arr = boxes_to_array(track.boxes)
        i = np.arange(15.0)
        np.testing.assert_allclose(arr[:, 0], i + 0.25 * i * i, rtol=1e-15)
        np.testing.assert_allclose(arr[:, 1], -0.125 * i * i, rtol=1e-15)

    def test_sinusoidal_decomposes_along_and_across_velocity(self):
        spec = SynthSpec(kind="sinusoidal", length=60, start=(100.0, 100.0),
                         velocity=(3.0, 4.0), amplitude=7.0, period=20.0)
        [track] = synth_tracks(spec, 1)
        arr = boxes_to_array(track.boxes)
        i = np.arange(60.0)
        rel = arr[:, :2] - np.array([100.0, 100.0])
        unit = np.array([3.0, 4.0]) / 5.0
        normal = np.array([-4.0, 3.0]) / 5.0
        np.testing.assert_allclose(rel @ unit, 5.0 * i, atol=1e-9)
        np.testing.assert_allclose(rel @ normal,
                                   7.0 * np.sin(2.0 * np.pi * i / 20.0),
                                   atol=1e-9)

    def test_stop_and_go_steps_are_all_or_nothing(self):
        spec = SynthSpec(kind="stop-and-go", length=90, start=(320.0, 240.0),
                         velocity=(2.0, 1.0), seed=5)
        [track] = synth_tracks(spec, 1)
        arr = boxes_to_array(track.boxes)
        deltas = np.diff(arr[:, :2], axis=0)
        moving = deltas[:, 0] != 0
        np.testing.assert_array_equal(deltas[moving],
                                      np.tile([2.0, 1.0], (moving.sum(), 1)))
        np.testing.assert_array_equal(deltas[~moving], 0.0)
        assert moving.any() and (~moving).any()

    def test_size_rate_is_linear_and_floored(self):
        spec = SynthSpec(kind="constant-velocity", length=30,
                         size=(10.0, 20.0), size_rate=(-1.0, 0.5))
        [track] = synth_tracks(spec, 1)
        arr = boxes_to_array(track.boxes)
        i = np.arange(30.0)
        np.testing.assert_array_equal(arr[:, 2], np.maximum(1.0, 10.0 - i))
        np.testing.assert_array_equal(arr[:, 3], 20.0 + 0.5 * i)

    def test_jitter_spreads_starts_but_keeps_velocity_constant(self):
        spec = SynthSpec(kind="constant-velocity", length=10,
                         start_jitter=5.0, velocity_jitter=0.5, seed=2)
        tracks = synth_tracks(spec, 40)
        starts = np.array([[t.boxes[0].cx, t.boxes[0].cy] for t in tracks])
        assert np.all(np.abs(starts - [320.0, 240.0]) <= 5.0)
        assert len(np.unique(starts[:, 0])) > 30
        for t in tracks:
            arr = boxes_to_array(t.boxes)
            deltas = np.diff(arr[:, :2], axis=0)
            np.testing.assert_allclose(
                deltas, np.broadcast_to(deltas[0], deltas.shape), rtol=1e-12)
            assert np.all(np.abs(deltas[0] - [2.0, 1.0]) <= 0.5)

    def test_noise_magnitude_matches_the_folded_normal_mean(self):
        sigma = 2.0
        spec = SynthSpec(kind="constant-velocity", length=90,
                         noise_std=sigma, seed=3)
        tracks = synth_tracks(spec, 50)
        clean = 320.0 + 2.0 * np.arange(90.0)
        residuals = np.concatenate(
            [boxes_to_array(t.boxes)[:, 0] - clean for t in tracks])
        # E|N(0, sigma)| = sigma * sqrt(2/pi); 4500 draws put the sample
        # mean well within 5%
        expected = sigma * math.sqrt(2.0 / math.pi)
        assert abs(np.mean(np.abs(residuals)) - expected) < 0.05 * expected

    def test_same_seed_fixes_every_box_and_prefixes_agree(self):
        spec = SynthSpec(kind="stop-and-go", noise_std=1.0, start_jitter=3.0,
                         seed=11)
        a = synth_tracks(spec, 3)
        b = synth_tracks(spec, 5)
        for ta, tb in zip(a, b[:3]):
            assert ta.boxes == tb.boxes

    def test_track_naming_and_rate(self):
        spec = SynthSpec(kind="sinusoidal", length=5, frame_rate_hz=25.0)
        tracks = synth_tracks(spec, 2)
        assert [t.track_id for t in tracks] == ["sinusoidal-0000",
                                                "sinusoidal-0001"]
        assert all(t.video_id == "synth" for t in tracks)
        assert all(t.frame_rate_hz == 25.0 for t in tracks)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="unknown synthetic kind"):
            synth_tracks(SynthSpec(kind="teleport"), 1)
        with pytest.raises(ConfigError):
            synth_tracks(SynthSpec(length=0), 1)
        with pytest.raises(ConfigError):
            synth_tracks(SynthSpec(noise_std=-1.0), 1)
        with pytest.raises(ConfigError):
            synth_tracks(SynthSpec(period=0.0), 1)
        with pytest.raises(ConfigError):
            synth_tracks(SynthSpec(go_frames=(0, 5)), 1)
        with pytest.raises(ConfigError):
            synth_tracks(SynthSpec(), 0)

    @pytest.mark.parametrize("fields", [
        {"start": (1e308, 0.0), "velocity": (1e308, 0.0), "length": 5},
        {"size": (1e308, 1e308), "noise_std": 1e308},
        {"kind": "constant-acceleration", "accel": (1e308, 0.0)},
        {"kind": "sinusoidal", "velocity": (1e308, 1e308)},
        {"size_rate": (1e308, 0.0)},
    ])
    def test_finite_values_that_overflow_are_config_errors(self, fields):
        with pytest.raises(ConfigError, match="non-finite boxes"):
            synth_tracks(SynthSpec(**fields), 2)

    @pytest.mark.parametrize("field", ["start_jitter", "velocity_jitter"])
    def test_jitter_span_must_be_finite(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be at most"):
            synth_tracks(SynthSpec(**{field: 1e308}), 1)
        assert len(synth_tracks(SynthSpec(length=1, **{field: 8e307}), 1)) == 1

    @pytest.mark.parametrize("field,value", [
        ("noise_std", float("nan")), ("size", (float("nan"), 5.0)),
        ("velocity", (float("inf"), 0.0)), ("start", (0.0, -float("inf"))),
        ("accel", (float("nan"), 0.0)), ("size_rate", (0.0, float("inf"))),
        ("amplitude", float("inf")), ("period", float("nan")),
        ("start_jitter", float("nan")), ("velocity_jitter", float("inf")),
        ("frame_rate_hz", float("nan")), ("frame_rate_hz", -30.0),
        ("frame_rate_hz", 0.0)])
    def test_non_finite_or_non_positive_fields_are_config_errors(self, field,
                                                                  value):
        with pytest.raises(ConfigError, match=field):
            synth_tracks(SynthSpec(**{field: value}), 1)


class TestFoldSplitContainer:
    def test_fold_index_bounds(self):
        split = FoldSplit(n_folds=2, seed=0,
                          folds=[[("v", "a")], [("v", "b")]])
        with pytest.raises(IndexError):
            split.test_keys(2)
        assert split.train_keys(0) == {("v", "b")}
