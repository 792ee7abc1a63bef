"""Data-layer tests: CSV parsing and writing, track slicing, fold splits,
and synthetic track generators against their closed-form kinematics."""

import csv
import gc
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcast import data
from boxcast.data import (
    CENTROID_HEADER,
    CORNER_HEADER,
    SYNTH_KINDS,
    Box,
    Boxes,
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
from helpers import make_boxes, reference_parse_tracks, track_csvs


def make_track(n, track_id="t0", video_id="v0", start_frame=0):
    boxes = make_boxes([(10.0 + i, 20.0 + 2.0 * i, 5.0, 9.0)
                        for i in range(n)], start_frame)
    return Track(video_id=video_id, track_id=track_id, boxes=boxes)


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
    def test_a_track_views_the_arrays_it_is_given(self):
        t = make_track(3, start_frame=5)
        assert isinstance(t.boxes, Boxes)
        np.testing.assert_array_equal(t.boxes.frames, [5, 6, 7])
        assert t.boxes.xywh.shape == (3, 4)
        assert Track("v", "t", t.boxes).boxes is t.boxes
        assert MiniTrack("v", "t", 5, t.boxes).boxes is t.boxes

    def test_an_int_index_is_a_one_row_view(self):
        boxes = make_track(4).boxes
        b = boxes[1]
        assert isinstance(b, Box) and isinstance(b, Boxes) and len(b) == 1
        np.testing.assert_array_equal(b.xywh, [[11.0, 22.0, 5.0, 9.0]])
        assert b.frame == 1 and type(b.frame) is int
        assert np.shares_memory(b.xywh, boxes.xywh)
        assert np.shares_memory(b.frames, boxes.frames)
        assert b == boxes[1:2]
        assert boxes[-1] == boxes[3] and boxes[-4] == boxes[0]
        assert boxes[-1].frame == 3
        assert boxes[np.int64(2)] == boxes[2]
        for i in (4, -5):
            with pytest.raises(IndexError):
                boxes[i]
        for arr in (b.xywh, b.frames):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_slices_are_read_only_views(self):
        boxes = make_track(10).boxes
        part = boxes[2:7]
        assert type(part) is Boxes and len(part) == 5
        assert np.shares_memory(part.xywh, boxes.xywh)
        assert np.shares_memory(part.frames, boxes.frames)
        assert part[0] == boxes[2]
        for arr in (boxes.xywh, boxes.frames, part.xywh, part.frames):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_concatenation_and_value_equality(self):
        boxes = make_track(10).boxes
        joined = boxes[:3] + boxes[5:]
        assert joined.frames.tolist() == [0, 1, 2, 5, 6, 7, 8, 9]
        assert boxes[:4] + boxes[4:] == boxes
        assert boxes[:4] + boxes[4:] is not boxes
        assert boxes[2] + boxes[3] == boxes[2:4]
        assert boxes != boxes[1:]
        assert boxes[0] != boxes[1]
        assert boxes.__eq__(boxes.xywh) is NotImplemented

    def test_boxes_are_not_iterable(self):
        # numpy would otherwise unpack a Boxes box by box, each box again,
        # until it hits its 64-dimension limit
        boxes = Boxes(np.ones((3, 4)), range(3))
        with pytest.raises(TypeError):
            iter(boxes)
        with pytest.raises(TypeError):
            np.asarray(boxes)

    def test_shapes_are_checked(self):
        with pytest.raises(ShapeError):
            Boxes(np.zeros((3, 3)), np.arange(3))
        with pytest.raises(ShapeError):
            Boxes(np.zeros((3, 4)), np.arange(2))
        assert len(Boxes(np.zeros((0, 4)), [])) == 0


class TestCsvRoundTrip:
    def test_write_then_parse_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tracks = []
        for i in range(3):
            rows = np.column_stack([rng.normal(100, 30, (5, 2)),
                                    rng.uniform(1, 50, (5, 2))])
            tracks.append(Track(video_id="vid", track_id=f"t{i}",
                                boxes=make_boxes(rows, first_frame=7)))
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
        [track] = parse_tracks(path, True)
        assert track.boxes[0] == make_boxes([(20.0, 40.0, 20.0, 40.0)])

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
        assert track.boxes.frames.tolist() == [0, 1, 2]
        assert track.boxes.xywh[:, 0].tolist() == [1.0, 2.0, 3.0]


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

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"])
    def test_non_utf8_bytes_name_their_line(self, tmp_path, end):
        """A line ends at LF, CR or CRLF, as for every other error; a
        CR-only file once named line 1 here."""
        path = tmp_path / "t.csv"
        lines = [b"video_id,track_id,frame,cx,cy,w,h", b"v,t,0,1,1,2,2",
                 b"v,t,1,\xff\xfe1,1,2,2", b""]
        path.write_bytes(end.join(lines))
        for parse in (parse_tracks, reference_parse_tracks):
            with pytest.raises(ParseError, match="line 3: not UTF-8") as exc:
                parse(path)
            assert exc.value.line == 3
        # the same file with a bad number there names the same line
        path.write_bytes(end.join([*lines[:2], b"v,t,1,x,1,2,2", b""]))
        with pytest.raises(ParseError, match="line 3: bad numeric"):
            parse_tracks(path)

    def test_non_utf8_byte_after_mixed_line_ends(self, tmp_path):
        """CR, LF and CRLF each end one line, so the bad byte is on line 5;
        a blank CR line counts too."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"video_id,track_id,frame,cx,cy,w,h\r\n"
                         b"v,t,0,1,1,2,2\r"
                         b"\r"
                         b"v,t,1,1,1,2,2\n"
                         b"v,t,2,1,\x80,2,2\r\n")
        for parse in (parse_tracks, reference_parse_tracks):
            with pytest.raises(ParseError, match="line 5: not UTF-8") as exc:
                parse(path)
            assert exc.value.line == 5

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
            parse_tracks(path, corner)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    def test_int64_boundary_frames_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("video_id,track_id,frame,cx,cy,w,h\n"
                        f"v,t,{2**63 - 1},1,1,2,2\n"
                        f"v,t,{2**63 - 2},1,1,2,2\n")
        [track] = parse_tracks(path)
        assert track.boxes.frames.tolist() == [2**63 - 2, 2**63 - 1]
        assert track.boxes.xywh.shape == (2, 4)


class TestParseProperty:
    """Whatever rows a file holds, `parse_tracks` either names a line of it
    in a ParseError or returns tracks the rest of the pipeline accepts."""

    @settings(max_examples=50, deadline=None)
    @given(csv_file=track_csvs())
    def test_parse_error_at_a_line_or_tracks_that_evaluate(self, csv_file):
        text, corner = csv_file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8")
            try:
                tracks = parse_tracks(path, corner)
            except ParseError as e:
                assert e.line is not None
                # physical lines as the csv module counts them: a lone CR
                # ends one, and so does the end of the text
                assert 1 <= e.line <= len(
                    io.StringIO(text, newline="").readlines())
                return
        for t in tracks:
            frames = t.boxes.frames.tolist()
            assert frames == list(range(frames[0], frames[0] + len(t)))
            assert np.isfinite(t.boxes.xywh).all()
            assert (t.boxes.xywh[:, 2:] > 0).all()
        try:
            evaluate_baseline("stationary",
                              slice_all_minitracks(tracks, 2, 1), 1, 1)
        except (ConfigError, DataError, NumericError):
            pass


def _outcome(parse, path, corner_format):
    """A parse's tracks as (ids, frames, box bytes), or its error."""
    try:
        tracks = parse(path, corner_format)
    except ParseError as e:
        return ("ParseError", str(e), e.line)
    return [(t.video_id, t.track_id, t.boxes.frames.tolist(),
             t.boxes.xywh.tobytes()) for t in tracks]


class TestParseMatchesTheRowByRowReference:
    """The column-wise parser returns what `reference_parse_tracks` returns,
    boxes bit for bit, or the same ParseError at the same line."""

    @settings(max_examples=50, deadline=None)
    @given(csv_file=track_csvs())
    def test_same_tracks_or_same_error(self, csv_file):
        text, corner = csv_file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8")
            assert _outcome(parse_tracks, path, corner) == \
                _outcome(reference_parse_tracks, path, corner)

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
        # 2500 lines: a fault far from the start, and 1024 blank lines
        # that every row after them must skip in its line number
        rows = [f"v,{'ab'[f % 2]},{f // 2 + 7 * (f > 900)},{f}.5,2,3,4"
                for f in range(1500)]
        rows[600:600] = [""] * 1024
        if bad is not None:
            rows.insert(at, bad)
        path = tmp_path / "t.csv"
        path.write_text("\n".join([",".join(CENTROID_HEADER), *rows]) + "\n")
        want = _outcome(reference_parse_tracks, path, False)
        assert _outcome(parse_tracks, path, False) == want
        assert (bad is None) == isinstance(want, list)

    @staticmethod
    def _chunked_text(n_rows, blank_at=()):
        """A plain CRLF file: tracks a and b interleaved row by row, each
        with a frame gap halfway, and a blank line before each data row
        index in ``blank_at``."""
        rows = [f"v,{'ab'[f % 2]},{f // 2 + 5 * (f >= n_rows // 2)},"
                f"{f}.25,2.5,3,4" for f in range(n_rows)]
        for j in sorted(blank_at, reverse=True):
            rows.insert(j, " \t")
        return "\r\n".join([",".join(CENTROID_HEADER), *rows]) + "\r\n"

    @pytest.mark.parametrize("bad", [
        None, "v,a,{f},1,1.5e,3,4", "v,a,{f},1,1,3", "v,b,0,1,1,3,4"],
        ids=["clean", "bad-float", "six-fields", "duplicate-frame"])
    def test_a_file_of_several_chunks(self, tmp_path, monkeypatch, bad):
        """A plain file of ~5 chunks, with a blank line starting the
        second chunk, reads as the row-by-row reference reads it, without
        the csv module; a fault in its last chunk gives the reference's
        error and line."""
        size = data.PLAIN_CHUNK_CHARS
        n_rows = size // 5  # rows of 24-27 characters
        text = self._chunked_text(n_rows)
        # the blank line goes just after the first chunk's final line feed
        end = text.find("\n", size) + 1
        text = text[:end] + " \t\r\n" + text[end:]
        if bad is not None:
            # frame f of track a is new; track b's frame 0 is on line 3
            line = bad.format(f=n_rows)
            text += line + "\r\n" + "".join(f"v,c,{f},1,1,3,4\r\n"
                                             for f in range(50))
        assert len(text) > 4 * size
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        want = _outcome(reference_parse_tracks, path, False)
        if bad is None:
            assert [t.track_id for t in parse_tracks(path)] == \
                ["a~0", "a~1", "b~0", "b~1"]
            # a fallback to the csv module would now raise TypeError
            monkeypatch.setattr(data.csv, "reader", None)
        else:
            assert want[0] == "ParseError" and want[2] == n_rows + 3
        assert _outcome(parse_tracks, path, False) == want

    def test_every_cut_of_a_small_file(self, tmp_path, monkeypatch):
        """With chunks of 1 to 160 characters, every line of a short plain
        file starts a chunk in some run, blank ones too: each reads as the
        reference reads it, without the csv module."""
        text = self._chunked_text(12, blank_at=(0, 5, 6, 12))
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        want = _outcome(reference_parse_tracks, path, False)
        assert len(want) == 4 and len(text) < 400
        # a fallback to the csv module would raise TypeError
        monkeypatch.setattr(data.csv, "reader", None)
        for size in range(1, 161):
            monkeypatch.setattr(data, "PLAIN_CHUNK_CHARS", size)
            assert _outcome(parse_tracks, path, False) == want, size

    @pytest.mark.parametrize("text,ok", [
        ("{h}\nv\0,t,0,1,1,2,2\nv\0,t,1,1,1,2,2\n", True),
        ("{h}\nv,{at_limit},0,1,1,2,2\n", True),
        ("{h}\nv,t,0,1,1,2,2\nv,{over_limit},0,1,1,2,2\n", False),
        ("{h}\nv,t,0,1,x,2,2\nv,{over_limit},0,1,1,2,2\n", False),
        ("{h}\nv,t,0,1,1,2,2\n\n  \n\n", True),
        ("{h}\r\nv,t,0,1,1,2,2\r\n\r\n \t\r\nv,t,1,1,1,2,2\r\n", True),
        ("{h}\nv,t,0,1,1,2,2\n{blank_over_limit}\n", False),
        ("\n{h}\nv,t,0,1,1,2,2\n", False),
        ('{h}\nv, "b" ,0,1,1,2,2\nv,"b",1,1,1,2,2\n', True),
        ("{h}\r\nv,t,0,1,1,2,2\r\nv,t,1,1,1,2,2\r\n", True),
        ("{h}\nv,t,0,1,1,2,2\rv,t,1,1,1,2,2\n", True),
        ("{h}\nv,t,0,1,1\r,2,2\n", False),
        ("{h}\nv,t,0,1,1,2,2,v\nt,1,1,1,2,2\n", False),
        ("{h}\nv,t,0,1,1,2,2\nv,t,1,1,1,2,2", True),
        ("{h}\n", True),
        ("{h}", True),
    ], ids=["nul-in-id", "field-at-limit", "field-over-limit",
            "bad-number-before-field-over-limit", "trailing-blank-lines",
            "blank-lines-between-crlf-rows", "blank-line-over-limit",
            "blank-line-before-header",
            "mid-field-quote", "crlf", "lone-cr", "lone-cr-in-a-row",
            "eight-then-six-fields", "no-final-newline", "header-only",
            "header-only-no-newline"])
    def test_tokenizer_edge_cases(self, tmp_path, text, ok):
        limit = csv.field_size_limit()
        text = text.format(h=",".join(CENTROID_HEADER),
                           at_limit="t" * limit, over_limit="t" * (limit + 1),
                           blank_over_limit=" " * (limit + 1))
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        want = _outcome(reference_parse_tracks, path, False)
        assert _outcome(parse_tracks, path, False) == want
        assert ok == isinstance(want, list)

    def test_plain_files_never_reach_the_csv_reader(self, tmp_path,
                                                    monkeypatch):
        """CRLF files (as `write_tracks` writes them) take the plain
        reader; a quoted field or a lone CR sends the file to the csv
        module."""
        tracks = [make_track(5, track_id="a"), make_track(3, track_id="b")]
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        blank, lone_cr = tmp_path / "blank.csv", tmp_path / "lone_cr.csv"
        write_tracks(tracks, plain)
        assert b"\r\n" in plain.read_bytes()
        quoted.write_bytes(plain.read_bytes().replace(b",a,", b',"a",'))
        blank.write_bytes(plain.read_bytes().replace(b"\r\nv", b"\r\n \r\nv")
                          + b"\r\n")
        lone_cr.write_bytes(plain.read_bytes().replace(b"\r\n", b"\r"))

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")

        with monkeypatch.context() as m:
            m.setattr(data.csv, "reader", no_reader)
            assert parse_tracks(plain) == tracks
            assert parse_tracks(blank) == tracks
            for path in (quoted, lone_cr):
                with pytest.raises(AssertionError, match="csv.reader called"):
                    parse_tracks(path)
        assert parse_tracks(quoted) == tracks
        assert parse_tracks(lone_cr) == tracks

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


def _traced_parse_peak(path) -> tuple[list[Track], int]:
    """``parse_tracks(path)`` and its tracemalloc peak, after one untraced
    call (first-call allocations are not rows)."""
    parse_tracks(path)
    tracemalloc.start()
    try:
        tracks = parse_tracks(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tracks, peak


class TestParseMemory:
    """`parse_tracks`' tracemalloc peak per input byte on each reader, on
    a ~1 MB `write_tracks` file (four synthetic kinds, 12 tracks of 200
    frames each, 9600 rows); the quoted file differs by one quoted id,
    which sends it to the csv module's row reader. Measured at 2.25
    (plain) and 7.69 (csv) bytes per input byte with CPython 3.11 and
    numpy 2.4 (`tests/mem_peaks.py`); the plain reader took 7.43 when it
    held one string per field of the file. Each bound in ``BOUND`` is
    1.25x the figure first measured on its path: 7.43, and 9.79 for the
    csv path when it still converted whole columns. ``CHUNKED`` bounds the
    plain reader that converts `data.PLAIN_CHUNK_CHARS` of text at a
    time."""

    BOUND = {"plain": 1.25 * 7.43, "csv": 1.25 * 9.79}
    CHUNKED = 4.0

    @staticmethod
    def _write(path, per_kind):
        tracks = []
        for i, kind in enumerate(SYNTH_KINDS):
            tracks += synth_tracks(SynthSpec(
                kind=kind, length=200, noise_std=0.5, start_jitter=100.0,
                velocity_jitter=1.0, seed=i), per_kind)
        write_tracks(tracks, path)
        return path

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        plain = self._write(tmp_path_factory.mktemp("memory") / "plain.csv",
                            12)
        quoted = plain.with_name("quoted.csv")
        quoted.write_bytes(plain.read_bytes().replace(
            b",constant-velocity-0000,", b',"constant-velocity-0000",', 1))
        large = self._write(plain.with_name("large.csv"), 36)
        return {"plain": plain, "csv": quoted, "large": large}

    @pytest.mark.parametrize("path", ["plain", "csv"])
    def test_peak_per_input_byte_is_bounded(self, files, path):
        csv_path = files[path]
        size = csv_path.stat().st_size
        assert 0.9e6 < size < 1.1e6
        text = csv_path.read_text(encoding="utf-8")
        assert (data._columns(text, False) is None) == (path == "csv")
        del text
        parse_tracks(csv_path)  # warm: first-call allocations are not rows
        tracemalloc.start()
        try:
            tracks = parse_tracks(csv_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, tracks)) == 9600
        assert peak / size <= self.BOUND[path], (peak / size, path)

    def test_plain_parse_holds_no_string_per_field(self, files):
        """The chunked plain reader keeps the text, the distinct ids and
        the numeric columns, so its peak per input byte is bounded and
        does not grow with the file: a file ~3x larger gives no higher
        ratio (measured 2.25 and 2.24)."""
        ratios = []
        for name, rows in (("plain", 9600), ("large", 28800)):
            tracks, peak = _traced_parse_peak(files[name])
            assert sum(map(len, tracks)) == rows
            ratios.append(peak / files[name].stat().st_size)
        assert files["large"].stat().st_size > \
            2.9 * files["plain"].stat().st_size
        assert ratios[0] <= self.CHUNKED, ratios
        assert ratios[1] <= ratios[0], ratios

    def test_plain_parse_runs_no_older_gc_generation(self, files):
        """The plain reader holds its ids as strings, which the garbage
        collector does not track, in a few lists a chunk and one dict of
        strings and ints (untracked too), and numbers the keys in numpy,
        so the 9600-row parse triggers no collection of generation 1 or 2
        (measured: none of any generation; one (video_id, track_id) tuple
        per row ran 12 gen-0 collections and one of gen 1)."""
        assert gc.isenabled()
        parse_tracks(files["plain"])
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            tracks = parse_tracks(files["plain"])
        finally:
            gc.callbacks.remove(record)
        assert sum(map(len, tracks)) == 9600
        assert not [g for g in collections if g > 0], collections


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
        with pytest.raises(ConfigError,
                           match="^window must be at least 2, got 1$"):
            slice_minitracks(make_track(10), window=1, stride=30)
        with pytest.raises(ConfigError,
                           match="^stride must be at least 1, got 0$"):
            slice_minitracks(make_track(10), window=5, stride=0)

    @pytest.mark.parametrize("name, value", [
        ("window", 2.5), ("window", True), ("stride", 1.5),
        ("stride", True)])
    def test_window_and_stride_must_be_ints(self, name, value):
        """A float ended in a bare TypeError from ``range()`` and
        ``stride=True`` ran as 1; a NumPy int is an int."""
        kwargs = {"window": 5, "stride": 2, name: value}
        with pytest.raises(ConfigError, match=f"^{name} must be an int, "
                                              f"got {value!r}$"):
            slice_minitracks(make_track(10), **kwargs)
        mts = slice_minitracks(make_track(10), window=np.int64(5),
                               stride=np.int64(2))
        assert [mt.start_frame for mt in mts] == [0, 2, 4]


def _fold_keys(folds):
    return [([t.key for t in train], [t.key for t in test])
            for train, test in folds]


class TestFolds:
    def test_ten_tracks_three_folds_partition(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(10)]
        folds = split_folds(tracks, n_folds=3, seed=0)
        assert sorted(len(test) for _, test in folds) == [3, 3, 4]
        keys = {t.key for t in tracks}
        union = set()
        for train, test in folds:
            test_keys = {t.key for t in test}
            assert test_keys.isdisjoint(union)
            union |= test_keys
            assert {t.key for t in train} == keys - test_keys
            assert len(train) + len(test) == len(tracks)
        assert union == keys

    def test_partition_sorts_each_side_by_key(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in (3, 0, 2, 1, 4)]
        for train, test in split_folds(tracks, n_folds=2, seed=0):
            for side in (train, test):
                assert [t.key for t in side] == sorted(t.key for t in side)
            assert all(any(t is u for u in tracks) for t in train + test)

    def test_round_robin_over_a_seeded_shuffle(self):
        """The j-th track of the seeded permutation is in fold j mod
        n_folds."""
        tracks = [make_track(5, track_id=f"t{i}") for i in range(11)]
        order = np.random.default_rng(4).permutation(len(tracks))
        want = [sorted(tracks[i].key for i in order[f::3]) for f in range(3)]
        assert [test for _, test in _fold_keys(
            split_folds(tracks, n_folds=3, seed=4))] == want

    def test_same_seed_same_split(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(12)]
        a = split_folds(tracks, n_folds=3, seed=7)
        b = split_folds(tracks, n_folds=3, seed=7)
        assert _fold_keys(a) == _fold_keys(b)

    def test_seed_changes_the_assignment(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(30)]
        a = split_folds(tracks, n_folds=3, seed=0)
        b = split_folds(tracks, n_folds=3, seed=1)
        assert _fold_keys(a) != _fold_keys(b)

    @pytest.mark.parametrize("n_folds", [2.5, True])
    def test_n_folds_must_be_an_int(self, n_folds):
        """2.5 ended in a bare TypeError from ``range()``; a NumPy int is
        an int."""
        tracks = [make_track(5, track_id=f"t{i}") for i in range(6)]
        with pytest.raises(ConfigError, match=f"^n_folds must be an int, "
                                              f"got {n_folds!r}$"):
            split_folds(tracks, n_folds=n_folds)
        folds = split_folds(tracks, n_folds=np.int64(3))
        assert [len(test) for _, test in folds] == [2, 2, 2]

    def test_validation(self):
        tracks = [make_track(5, track_id=f"t{i}") for i in range(3)]
        with pytest.raises(ConfigError, match="^need at least 2 folds, "
                                              "got 1$"):
            split_folds(tracks, n_folds=1)
        with pytest.raises(ConfigError, match="cannot split"):
            split_folds(tracks[:2], n_folds=3)
        with pytest.raises(DataError, match="duplicate"):
            split_folds(tracks + [make_track(5, track_id="t0")], n_folds=3)

    def test_a_negative_seed_is_a_config_error(self):
        """The seed is checked where the shuffle draws from it; numpy
        would refuse -1 with a bare ValueError."""
        tracks = [make_track(5, track_id=f"t{i}") for i in range(3)]
        with pytest.raises(ConfigError,
                           match=r"^seed must be an int >= 0, got -1$"):
            split_folds(tracks, n_folds=3, seed=-1)


class TestSynthTracks:
    def test_constant_velocity_closed_form(self):
        spec = SynthSpec(kind="constant-velocity", length=20,
                         start=(320.0, 240.0), velocity=(2.0, 1.0),
                         size=(40.0, 80.0))
        [track] = synth_tracks(spec, 1)
        arr = track.boxes.xywh
        i = np.arange(20.0)
        np.testing.assert_array_equal(arr[:, 0], 320.0 + 2.0 * i)
        np.testing.assert_array_equal(arr[:, 1], 240.0 + 1.0 * i)
        np.testing.assert_array_equal(arr[:, 2], 40.0)
        np.testing.assert_array_equal(arr[:, 3], 80.0)
        assert track.boxes.frames.tolist() == list(range(20))

    def test_constant_acceleration_closed_form(self):
        spec = SynthSpec(kind="constant-acceleration", length=15,
                         start=(0.0, 0.0), velocity=(1.0, 0.0),
                         accel=(0.5, -0.25))
        [track] = synth_tracks(spec, 1)
        arr = track.boxes.xywh
        i = np.arange(15.0)
        np.testing.assert_allclose(arr[:, 0], i + 0.25 * i * i, rtol=1e-15)
        np.testing.assert_allclose(arr[:, 1], -0.125 * i * i, rtol=1e-15)

    def test_sinusoidal_decomposes_along_and_across_velocity(self):
        spec = SynthSpec(kind="sinusoidal", length=60, start=(100.0, 100.0),
                         velocity=(3.0, 4.0), amplitude=7.0, period=20.0)
        [track] = synth_tracks(spec, 1)
        arr = track.boxes.xywh
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
        arr = track.boxes.xywh
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
        arr = track.boxes.xywh
        i = np.arange(30.0)
        np.testing.assert_array_equal(arr[:, 2], np.maximum(1.0, 10.0 - i))
        np.testing.assert_array_equal(arr[:, 3], 20.0 + 0.5 * i)

    def test_jitter_spreads_starts_but_keeps_velocity_constant(self):
        spec = SynthSpec(kind="constant-velocity", length=10,
                         start_jitter=5.0, velocity_jitter=0.5, seed=2)
        tracks = synth_tracks(spec, 40)
        starts = np.array([t.boxes.xywh[0, :2] for t in tracks])
        assert np.all(np.abs(starts - [320.0, 240.0]) <= 5.0)
        assert len(np.unique(starts[:, 0])) > 30
        for t in tracks:
            arr = t.boxes.xywh
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
            [t.boxes.xywh[:, 0] - clean for t in tracks])
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

    def test_track_naming(self):
        spec = SynthSpec(kind="sinusoidal", length=5)
        tracks = synth_tracks(spec, 2)
        assert [t.track_id for t in tracks] == ["sinusoidal-0000",
                                                "sinusoidal-0001"]
        assert all(t.video_id == "synth" for t in tracks)

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
        for count in (0, 2.5):
            with pytest.raises(ConfigError, match=f"^count must be a positive "
                                                  f"int, got {count}$"):
                synth_tracks(SynthSpec(), count)

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
