import io
import itertools
import json
import multiprocessing
import os
import pickle
import re
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lomo.data
from lomo import (
    DataError,
    InfeasibleError,
    Manifest,
    ManifestEntry,
    Model,
    SequenceSample,
    SynthConfig,
    generate_synthetic,
    infer_dp,
    load_dataset,
    load_manifest,
    read_lseq,
    save_manifest,
    write_lseq,
)

# The LSEQ reader must leave no warning behind, numpy's included. The one
# exception is raised outside the code under test: to report a failing
# example, hypothesis imports libcst, whose mypy_extensions import warns,
# and as an error that would abort the whole pytest session.
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    ),
]


def _patched(blob, edits):
    data = bytearray(blob)
    for at, value in edits:
        data[at] = value
    return bytes(data)


VALID_LSEQ = (
    b"lseq 1 3\n# comment\nseq a 1 g1 2\n0.5 -1.0 2.0\n\n1e-7 3.0 -0.25\n"
    b"seq b -1 - 1\n1.0 2.0 3.0\n"
)
_small_or_huge = st.one_of(st.integers(-2, 4), st.integers(0, 10**15))
FUZZED_LSEQ = st.one_of(
    st.binary(max_size=200),
    st.integers(0, len(VALID_LSEQ) - 1).map(lambda cut: VALID_LSEQ[:cut]),
    st.lists(st.tuples(st.integers(0, len(VALID_LSEQ) - 1), st.integers(0, 255)), max_size=4)
    .map(lambda edits: _patched(VALID_LSEQ, edits)),
    st.builds(
        lambda d, n, rows: f"lseq 1 {d}\nseq a 1 - {n}\n{rows}".encode(),
        _small_or_huge, _small_or_huge,
        st.text(alphabet="0123456789 .-e\n#", max_size=60),
    ),
)

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
_manifest_entries = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {"path": _json_values, "label": _json_values},
        optional={"group": _json_values, "fold": _json_values},
    ),
)
FUZZED_MANIFESTS = st.one_of(
    _json_values.map(json.dumps),
    st.fixed_dictionaries(
        {"version": _json_values, "dim": _json_values,
         "entries": st.one_of(_json_values, st.lists(_manifest_entries, max_size=3))},
    ).map(json.dumps),
    st.binary(max_size=120),
)


def random_samples(rng, n=5, d=3, multi_group=True):
    out = []
    for i in range(n):
        frames = rng.standard_normal((int(rng.integers(1, 7)), d))
        # exercise extreme magnitudes so round-tripping is stressed
        frames[0, 0] = frames[0, 0] * 1e-7
        out.append(
            SequenceSample(
                f"s{i}",
                1 if i % 2 == 0 else -1,
                frames,
                group=f"g{i % 2}" if multi_group else None,
            )
        )
    return out


class TestLseqRoundTrip:
    def test_lossless(self, tmp_path, rng):
        for trial in range(20):
            samples = random_samples(rng, n=int(rng.integers(1, 6)), d=int(rng.integers(1, 5)))
            path = tmp_path / f"rt{trial}.lseq"
            write_lseq(path, samples)
            loaded = read_lseq(path)
            assert len(loaded) == len(samples)
            for a, b in zip(samples, loaded):
                assert a.id == b.id and a.label == b.label and a.group == b.group
                assert np.array_equal(a.frames, b.frames)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.lseq"
        path.write_text(
            "lseq 1 2\n\n# a comment\nseq a 1 - 2\n1.0 2.0\n\n# another\n3.0 4.0\n"
        )
        loaded = read_lseq(path)
        assert len(loaded) == 1
        assert np.array_equal(loaded[0].frames, [[1.0, 2.0], [3.0, 4.0]])


class TestLseqErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.lseq"
        path.write_text("lseqq 1 2\n")
        with pytest.raises(DataError, match="h.lseq:1"):
            read_lseq(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.lseq"
        path.write_text("lseq 7 2\n")
        with pytest.raises(DataError, match="version"):
            read_lseq(path)

    @pytest.mark.parametrize(
        "text, message",
        [("lseq 1 two\n", ":1: bad dimension 'two'"),
         ("lseq 1 2\nseq a one - 1\n1 2\n",
          ":2: bad label or length in ['seq', 'a', 'one', '-', '1']"),
         ("lseq 1 2\nseq a 1 - 1.5\n1 2\n",
          ":2: bad label or length in ['seq', 'a', '1', '-', '1.5']")],
        ids=["dimension", "label", "length"],
    )
    def test_non_integer_header_field(self, tmp_path, text, message):
        path = tmp_path / "i.lseq"
        path.write_text(text)
        with pytest.raises(DataError) as raised:
            read_lseq(path)
        assert str(raised.value) == f"{path}{message}"

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "d.lseq"
        path.write_text("lseq 1 4\nseq a 1 - 2\n1 2 3 4\n1 2 3\n")
        with pytest.raises(DataError, match=r"d\.lseq:4: expected 4 values, got 3"):
            read_lseq(path)

    def test_nonfinite_rejected_with_line(self, tmp_path):
        path = tmp_path / "n.lseq"
        path.write_text("lseq 1 2\nseq a 1 - 1\nnan 0.0\n")
        with pytest.raises(DataError, match=r"n\.lseq:3: non-finite"):
            read_lseq(path)

    def test_empty_sequence_rejected(self, tmp_path):
        path = tmp_path / "e.lseq"
        path.write_text("lseq 1 2\nseq a 1 - 0\n")
        with pytest.raises(DataError, match="length must be >= 1"):
            read_lseq(path)

    def test_truncated_sequence(self, tmp_path):
        path = tmp_path / "t.lseq"
        path.write_text("lseq 1 2\nseq a 1 - 3\n1 2\n")
        with pytest.raises(DataError, match="end of file"):
            read_lseq(path)

    @pytest.mark.parametrize(
        "text",
        [
            "lseq 1 2\nseq a 1 - 99999999999999\n1 2\n",
            "lseq 1 99999999999999\nseq a 1 - 1\n1 2\n",
            # one row as long as the header claims, then short lines: the
            # line count alone would admit a 50000 x 50000 matrix
            "lseq 1 50000\nseq a 1 - 50000\n" + "0 " * 50000 + "\n" + "0\n" * 49999,
        ],
        ids=["huge-n", "huge-d", "short-rows"],
    )
    def test_huge_header_counts_raise_data_error(self, tmp_path, text):
        path = tmp_path / "huge.lseq"
        path.write_text(text)
        tick = time.perf_counter()
        with pytest.raises(DataError):
            read_lseq(path)
        assert time.perf_counter() - tick < 1.0

    def test_length_beyond_a_machine_word_raises_data_error(self, tmp_path):
        path = tmp_path / "long.lseq"
        path.write_text(f"lseq 1 2\nseq a 1 - {10**30}\n1 2\n")
        with pytest.raises(DataError, match=r"long\.lseq:2: unexpected end of file"):
            read_lseq(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "b.lseq"
        path.write_bytes(b"lseq 1 1\nseq \xff 1 - 1\n1\n")
        with pytest.raises(DataError, match="UTF-8"):
            read_lseq(path)

    @given(blob=FUZZED_LSEQ)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_files_fail_cleanly_or_parse(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("lseq") / "f.lseq"
        path.write_bytes(blob)
        tick = time.perf_counter()
        try:
            samples = read_lseq(path)
        except DataError:
            samples = []
        assert time.perf_counter() - tick < 1.0
        assert all(isinstance(s, SequenceSample) for s in samples)

    def test_write_rejects_whitespace_id(self, tmp_path, rng):
        bad = SequenceSample("has space", 1, rng.standard_normal((2, 2)))
        with pytest.raises(DataError, match="whitespace"):
            write_lseq(tmp_path / "w.lseq", [bad])

    def test_write_rejects_an_empty_list(self, tmp_path):
        with pytest.raises(DataError, match="^refusing to write an empty LSEQ file$"):
            write_lseq(tmp_path / "w.lseq", [])

    def test_write_rejects_mixed_dimensions(self, tmp_path, rng):
        samples = [SequenceSample("a", 1, rng.standard_normal((2, 2))),
                   SequenceSample("b", -1, rng.standard_normal((2, 3)))]
        with pytest.raises(DataError, match="^sample 'b' has dimension 3, file has 2$"):
            write_lseq(tmp_path / "w.lseq", samples)


def _table_file(position, row=None, cut=False):
    """Three sequences of 200 rows of three values each (about 11 KB per
    sequence, so a late row sits past the reader's first 8 KB chunk). The
    sequence at ``position`` (0, 1 or 2) gets ``row`` as its last data line,
    or with ``cut`` the text ends after its ``seq`` line. Returns the text
    and the line number of that data line (of the ``seq`` line with ``cut``)."""
    rng = np.random.default_rng(position)
    lines = ["lseq 1 3"]
    target = None
    for k, sid in enumerate("abc"):
        lines.append(f"seq {sid} {1 if k % 2 == 0 else -1} g{k} 200")
        if k == position and cut:
            return "\n".join(lines) + "\n", len(lines)
        for values in rng.standard_normal((200, 3)):
            lines.append(" ".join(repr(float(v)) for v in values))
        if k == position:
            lines[-1] = row
            target = len(lines)
    return "\n".join(lines) + "\n", target


_POSITIONS = pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])


class TestLseqErrorTable:
    """The per-line parser's message and line for each kind of bad block,
    wherever the block sits in a multi-sequence file."""

    @_POSITIONS
    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0 2.0", "expected 3 values, got 2 (sequence {sid!r})"),
            ("1.0 2.0 3.0 4.0", "expected 3 values, got 4 (sequence {sid!r})"),
            ("1.0 x 2.0", "unparseable number in ['1.0', 'x', '2.0']"),
            ("1.0 2.0 nan", "non-finite value"),
            ("-inf 2.0 3.0", "non-finite value"),
            ("1.0 2.0 3.0 # note", "expected 3 values, got 5 (sequence {sid!r})"),
            ("1.0 2.0 #3.0", "unparseable number in ['1.0', '2.0', '#3.0']"),
        ],
        ids=["short-row", "long-row", "bad-token", "nan", "inf", "mid-line-comment",
             "comment-token"],
    )
    def test_bad_row(self, tmp_path, position, row, message):
        text, line = _table_file(position, row)
        path = tmp_path / "t.lseq"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_lseq(path)
        sid = "abc"[position]
        assert str(info.value) == f"{path}:{line}: " + message.format(sid=sid)

    @_POSITIONS
    def test_empty_block_at_end_of_file(self, tmp_path, position):
        text, line = _table_file(position, cut=True)
        path = tmp_path / "t.lseq"
        path.write_text(text, encoding="utf-8")
        # numpy warns on an empty input; "always" records what "error" would hide
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DataError) as info:
            warnings.simplefilter("always")
            read_lseq(path)
        assert caught == []
        sid = "abc"[position]
        assert str(info.value) == (
            f"{path}:{line}: unexpected end of file: sequence {sid!r} declares 200 frames, "
            f"the file ended after 0"
        )

    @_POSITIONS
    def test_invalid_utf8_in_a_data_row(self, tmp_path, position):
        text, _ = _table_file(position, "1.0 2.0 3.0")
        blob = text.encode("utf-8").replace(b"1.0 2.0 3.0", b"1.0 \xff 3.0")
        path = tmp_path / "t.lseq"
        path.write_bytes(blob)
        with pytest.raises(DataError) as info:
            read_lseq(path)
        assert re.fullmatch(
            rf"{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec can't decode byte "
            r"0xff in position \d+: invalid start byte",
            str(info.value),
        )

    @_POSITIONS
    def test_float_only_syntax_keeps_its_values(self, tmp_path, position):
        # float() reads underscores and non-ASCII digits; numpy's reader does not
        text, _ = _table_file(position, "1_0 \u0663 -2_5.0_1")
        path = tmp_path / "t.lseq"
        path.write_text(text, encoding="utf-8")
        loaded = read_lseq(path)
        assert [s.id for s in loaded] == ["a", "b", "c"]
        assert loaded[position].frames[-1].tolist() == [10.0, 3.0, -25.01]
        written = tmp_path / "w.lseq"
        write_lseq(written, loaded)
        assert all(
            np.array_equal(a.frames, b.frames) for a, b in zip(loaded, read_lseq(written))
        )


def _exact_read_lseq(path):
    """read_lseq with the fast block reader switched off."""
    def refuse(*args):
        raise lomo.data._Fallback

    with mock.patch.object(lomo.data, "_loadtxt_block", refuse):
        return read_lseq(path)


def _outcome(read, path):
    try:
        return [(s.id, s.label, s.group, s.frames.shape, s.frames.tobytes()) for s in read(path)]
    except DataError as exc:
        return str(exc)


_SEPARATORS = st.sampled_from(
    [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TOKENS = st.one_of(
    _FINITE.map(repr), _FINITE.map(repr), _FINITE.map(repr),
    _FINITE.map(lambda v: f"{v:.25g}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(
        ["1_0", "-2_5.0_1", "\u0663", "\u0661\u0662.5", "\uff17", "+.5", "5.", "1E+05",
         "-0.0", "0e0", "1e-400", "1e400", "nan", "-inf", "Infinity", "x", "1e", "--1",
         "1,2", "0x10", "#", "#1", "1d5", "\x00", "\u200b", "1\u200b"]
    ),
)
_FILLER = st.sampled_from(["", "# note\n", "\n", "  \n"])


@st.composite
def _lseq_texts(draw):
    """LSEQ text whose blocks are mostly well formed: each row holds d
    tokens and each block N rows unless the draw says otherwise."""
    dim = draw(st.integers(1, 4))
    lines = [f"lseq 1 {dim}"]
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        lines.append(f"seq s{k} {k % 3} - {n}")
        for _ in range(draw(st.sampled_from([n] * 8 + [n - 1, n + 1]))):
            width = draw(st.sampled_from([dim] * 8 + [dim - 1, dim + 1]))
            tokens = draw(st.lists(_TOKENS, min_size=width, max_size=width))
            seps = draw(st.lists(_SEPARATORS, min_size=width + 1, max_size=width + 1))
            comment = draw(st.sampled_from([""] * 8 + ["# note", "#"]))
            row = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:])) + comment
            lines.append(draw(_FILLER) + row)
    return "\n".join(lines) + "\n"


class TestFastReaderMatchesExactParser:
    @given(text=_lseq_texts(), mangle=st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_generated_files(self, tmp_path_factory, text, mangle):
        """Same arrays and fields, or the same DataError, and no warning."""
        blob = text.encode("utf-8")
        if mangle == 1:
            blob = blob[: len(blob) * 3 // 4]  # may end mid-row or mid-character
        elif mangle == 2:
            blob = blob[:-2] + b"\xff\n"
        elif mangle == 3:  # the last block is empty
            blob = blob[: blob.index(b"\n", blob.rindex(b"\nseq ") + 1) + 1]
        path = tmp_path_factory.mktemp("diff") / "f.lseq"
        path.write_bytes(blob)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fast = _outcome(read_lseq, path)
            exact = _outcome(_exact_read_lseq, path)
        assert fast == exact
        assert caught == []

    def test_clean_file_takes_the_fast_path(self, tmp_path, rng):
        path = tmp_path / "rt.lseq"
        write_lseq(path, random_samples(rng, n=4, d=3))
        with mock.patch.object(lomo.data, "_parse_lseq", wraps=lomo.data._parse_lseq) as parse:
            read_lseq(path)
        assert [c.args[2] for c in parse.call_args_list] == [True]


class TestManifest:
    def _write_dataset(self, tmp_path, rng, labels):
        entries = []
        for i, label in enumerate(labels):
            sample = SequenceSample(f"m{i}", label, rng.standard_normal((3, 2)), group=f"g{i%2}")
            rel = f"seq{i}.lseq"
            write_lseq(tmp_path / rel, [sample])
            entries.append(ManifestEntry(path=rel, label=label, group=f"g{i%2}", fold=i % 2))
        manifest = Manifest(version=1, dim=2, entries=entries)
        path = tmp_path / "manifest.json"
        save_manifest(path, manifest)
        return path

    def test_roundtrip_and_load(self, tmp_path, rng):
        path = self._write_dataset(tmp_path, rng, [1, -1, 1, -1])
        manifest = load_manifest(path)
        assert manifest.dim == 2 and len(manifest.entries) == 4
        samples, folds = load_dataset(path)
        assert [s.label for s in samples] == [1, -1, 1, -1]
        assert folds == {"m0": 0, "m1": 1, "m2": 0, "m3": 1}
        assert all(s.group in ("g0", "g1") for s in samples)

    def test_saved_text(self, tmp_path):
        path = tmp_path / "m.json"
        save_manifest(path, Manifest(1, 3, [ManifestEntry("a.lseq", -1),
                                            ManifestEntry("b.lseq", 2, group="g", fold=0)]))
        assert path.read_text() == (
            '{\n  "dim": 3,\n  "entries": [\n'
            '    {\n      "fold": null,\n      "group": null,\n      "label": -1,\n'
            '      "path": "a.lseq"\n    },\n'
            '    {\n      "fold": 0,\n      "group": "g",\n      "label": 2,\n'
            '      "path": "b.lseq"\n    }\n  ],\n  "version": 1\n}\n'
        )

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            load_manifest(tmp_path / "nope.json")

    def test_missing_referenced_file(self, tmp_path, rng):
        path = self._write_dataset(tmp_path, rng, [1, -1])
        (tmp_path / "seq0.lseq").unlink()
        with pytest.raises(DataError, match="missing file"):
            load_dataset(path)

    def test_noncontiguous_multiclass_labels_rejected(self, tmp_path, rng):
        path = self._write_dataset(tmp_path, rng, [0, 2])
        with pytest.raises(DataError, match="contiguous"):
            load_dataset(path)

    def test_multi_sequence_file_rejected(self, tmp_path, rng):
        samples = [
            SequenceSample("a", 1, rng.standard_normal((2, 2))),
            SequenceSample("b", -1, rng.standard_normal((2, 2))),
        ]
        write_lseq(tmp_path / "both.lseq", samples)
        save_manifest(
            tmp_path / "m.json",
            Manifest(1, 2, [ManifestEntry(path="both.lseq", label=1)]),
        )
        with pytest.raises(DataError, match="single-sequence"):
            load_dataset(tmp_path / "m.json")

    def test_file_dimension_differs_from_the_manifest(self, tmp_path, rng):
        path = self._write_dataset(tmp_path, rng, [1, -1])
        payload = json.loads(path.read_text())
        payload["dim"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == (
            f"{tmp_path / 'seq0.lseq'}: dimension 2 does not match manifest dimension 3"
        )

    def test_no_entries(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "dim": 2, "entries": []}))
        with pytest.raises(DataError) as info:
            load_dataset(path)
        assert str(info.value) == f"manifest {path} lists no entries"

    def test_loaded_samples_share_the_parsed_frames(self, tmp_path, rng, monkeypatch):
        path = self._write_dataset(tmp_path, rng, [1, -1])
        parsed = []

        def recording_read_lseq(file):
            loaded = read_lseq(file)
            parsed.extend(loaded)
            return loaded

        monkeypatch.setattr(lomo.data, "read_lseq", recording_read_lseq)
        samples, _ = load_dataset(path)
        assert [s.label for s in samples] == [1, -1]
        for raw, sample in zip(parsed, samples):
            assert np.shares_memory(raw.frames, sample.frames)

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            {"version": 1, "dim": 2, "entries": 5},
            {"version": "x", "dim": 2, "entries": []},
            {"version": 1, "dim": float("inf"), "entries": []},
            {"version": 1, "dim": 2, "entries": [{"path": ["a"], "label": 1}]},
            {"version": 1, "dim": 2, "entries": [{"path": "a", "label": 1, "group": 3}]},
            {"version": 1, "dim": 2, "entries": [{"path": "a", "label": 1.7}]},
            {"version": 1, "dim": 2, "entries": [{"path": "a", "label": True}]},
            {"version": 1, "dim": 2, "entries": [{"path": "a", "label": 1, "fold": 2.9}]},
            {"version": 1, "dim": 2, "entries": [{"path": "a", "label": 1, "fold": False}]},
            {"version": 1.0, "dim": 2, "entries": []},
            {"version": 1, "dim": True, "entries": []},
            {"version": 99, "dim": 2, "entries": []},
            {"version": 1, "dim": 2, "entries": [["a", 1]]},
        ],
        ids=["top-level-number", "entries-number", "version-text", "dim-infinite",
             "path-list", "group-number", "label-float", "label-bool", "fold-float",
             "fold-bool", "version-float", "dim-bool", "version-99", "entry-list"],
    )
    def test_malformed_fields_raise_data_error(self, tmp_path, payload):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="manifest"):
            load_manifest(path)

    @given(text=FUZZED_MANIFESTS)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_manifests_fail_cleanly_or_load(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("manifest") / "m.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        tick = time.perf_counter()
        try:
            manifest = load_manifest(path)
        except DataError:
            manifest = None
        assert time.perf_counter() - tick < 1.0
        if manifest is not None:
            assert all(
                isinstance(e.path, str) and isinstance(e.label, int)
                and (e.group is None or isinstance(e.group, str))
                for e in manifest.entries
            )


def _write_manifest(directory, frames_list):
    """One single-sequence LSEQ file per frame matrix, listed in m.json with
    labels, groups and folds that vary; returns the manifest path."""
    entries = []
    for i, frames in enumerate(frames_list):
        label = 1 if i % 3 else -1
        write_lseq(directory / f"f{i}.lseq", [SequenceSample(f"id{i}", -label, frames)])
        group = None if i % 4 == 3 else f"g{i % 2}"
        entries.append(ManifestEntry(f"f{i}.lseq", label, group, None if i % 5 == 4 else i % 3))
    path = directory / "m.json"
    save_manifest(path, Manifest(1, frames_list[0].shape[1], entries))
    return path


def _no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoProcessLoad:
    """A manifest read by this process and one forked helper gives what a
    serial read gives: the same samples and folds, or the same exception."""

    @pytest.fixture(autouse=True)
    def helper_on(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the helper needs the fork start method")
        monkeypatch.setattr(lomo.data, "_HELPER_MIN_BYTES", 0)
        # two usable CPUs whatever the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        self.starts = []
        start = multiprocessing.process.BaseProcess.start

        def counted_start(process):
            self.starts.append(process)
            return start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
        self.monkeypatch = monkeypatch

    def outcome(self, path):
        """load_dataset's samples (every field, the frame bytes and the kept
        magnitude) and folds, or its exception's type and text; no process
        is left either way."""
        try:
            samples, folds = load_dataset(path)
            result = ([(s.id, s.label, s.group, s.frames.shape, s.frames.tobytes(),
                        s._magnitude) for s in samples], folds)
        except Exception as exc:
            result = (type(exc), str(exc))
        _no_child_left()
        return result

    def serial_outcome(self, path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lomo.data, "_HELPER_MIN_BYTES", float("inf"))
            return self.outcome(path)

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 6, 7])
    def test_same_samples_and_folds(self, tmp_path, count):
        rng = np.random.default_rng(count)
        frames = [rng.standard_normal((int(rng.integers(1, 40)), 3)) * 10.0 ** rng.integers(-5, 5)
                  for _ in range(count)]
        path = _write_manifest(tmp_path, frames)
        parallel = self.outcome(path)
        assert len(self.starts) == 1
        assert parallel == self.serial_outcome(path)
        assert [s[0] for s in parallel[0]] == [f"id{i}" for i in range(count)]

    def _corrupt(self, path, line=4):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line - 1] = "0.5 x 1.0\n"
        path.write_text("".join(lines), encoding="utf-8")

    @pytest.mark.parametrize("case", [
        "bad-token-in-helper-share", "bad-files-in-both-shares", "bad-before-missing",
        "multi-sequence-in-helper-share", "not-utf8-in-helper-share",
        "directory-in-helper-share", "duplicate-id-across-shares",
    ])
    def test_same_first_error(self, tmp_path, rng, case):
        frames = [rng.standard_normal((5, 3)) for _ in range(4)]
        path = _write_manifest(tmp_path, frames)
        last = tmp_path / "f3.lseq"  # the helper reads f2 and f3
        if case == "bad-token-in-helper-share":
            self._corrupt(last)
            expected = f"{last}:4: unparseable number in ['0.5', 'x', '1.0']"
        elif case == "bad-files-in-both-shares":
            self._corrupt(tmp_path / "f1.lseq", line=5)
            self._corrupt(last)
            expected = f"{tmp_path / 'f1.lseq'}:5: unparseable number"
        elif case == "bad-before-missing":
            self._corrupt(tmp_path / "f1.lseq")
            (tmp_path / "f2.lseq").unlink()
            expected = f"{tmp_path / 'f1.lseq'}:4: unparseable number"
        elif case == "multi-sequence-in-helper-share":
            write_lseq(last, random_samples(rng, n=2, d=3))
            expected = "manifest entries must reference single-sequence files"
        elif case == "not-utf8-in-helper-share":
            last.write_bytes(last.read_bytes() + b"\xff\n")
            expected = f"{last}: not UTF-8 text"
        elif case == "directory-in-helper-share":
            last.unlink()
            last.mkdir()
            expected = "Is a directory"
        else:
            write_lseq(last, [SequenceSample("id0", 1, frames[3])])
            expected = "duplicate sequence id 'id0'"
        parallel = self.outcome(path)
        assert parallel == self.serial_outcome(path)
        assert expected in parallel[1]
        assert len(self.starts) == 1

    def test_a_helper_that_dies_leaves_its_files_to_this_process(self, tmp_path, rng):
        path = _write_manifest(tmp_path, [rng.standard_normal((6, 2)) for _ in range(5)])
        self.monkeypatch.setattr(lomo.data, "_send_files", lambda *args: os._exit(1))
        assert self.outcome(path) == self.serial_outcome(path)
        assert len(self.starts) == 1

    def delivered(self):
        """Record every list of files this process receives from a helper."""
        received = []
        receive = lomo.data._receive

        def recording_receive(incoming):
            received.append(receive(incoming))
            return received[-1]

        self.monkeypatch.setattr(lomo.data, "_receive", recording_receive)
        return received

    def test_a_helper_that_dies_mid_pickle_delivers_the_whole_pickles(self, tmp_path, rng):
        path = _write_manifest(tmp_path, [rng.standard_normal((6, 2)) for _ in range(6)])

        def dies_mid_pickle(paths, read_end, write_end):
            os.close(read_end)
            first, second = (pickle.dumps(read_lseq(p), protocol=5) for p in paths[:2])
            with open(write_end, "wb") as out:
                out.write(first + second[:len(second) // 2])
            os._exit(1)

        self.monkeypatch.setattr(lomo.data, "_send_files", dies_mid_pickle)
        received = self.delivered()
        assert self.outcome(path) == self.serial_outcome(path)
        assert len(self.starts) == 1
        assert [[s.id for s in f] for f in received[0]] == [["id3"]]  # the helper read f3-f5

    def test_a_cut_stream_yields_every_whole_pickle_before_the_cut(self, rng):
        files = [[SequenceSample(f"c{i}", 1, rng.standard_normal((i + 1, 3)), group="g")]
                 for i in range(3)]
        pickles = [pickle.dumps(loaded, protocol=5) for loaded in files]
        ends = list(itertools.accumulate(map(len, pickles)))
        stream = b"".join(pickles)
        for cut in range(len(stream) + 1):
            received = lomo.data._receive(io.BytesIO(stream[:cut]))
            whole = sum(end <= cut for end in ends)
            assert [[(s.id, s.group, s.frames.tobytes()) for s in f] for f in received] == [
                [(s.id, s.group, s.frames.tobytes()) for s in f] for f in files[:whole]
            ]

    def test_delivered_frames_are_read_only_and_solve_alike(self, tmp_path, rng):
        path = _write_manifest(tmp_path, [rng.standard_normal((8, 3)) for _ in range(4)])
        received = self.delivered()
        load_dataset(path)
        helper_samples = [s for f in received[0] for s in f]
        assert [s.id for s in helper_samples] == ["id2", "id3"]
        model = Model(templates=rng.standard_normal((2, 3)), ordering_costs=[0.5, -0.25],
                      global_template=rng.standard_normal(3), gamma_g=0.3, coverage=1)
        for sample in helper_samples:
            frames = sample.frames
            assert frames.dtype == np.float64
            assert frames.flags.c_contiguous and not frames.flags.writeable
            (serial,) = read_lseq(tmp_path / f"f{sample.id[2:]}.lseq")
            assert infer_dp(model, sample) == infer_dp(model, serial)

    def test_a_failed_fork_reads_serially(self, tmp_path, rng):
        path = _write_manifest(tmp_path, [rng.standard_normal((6, 2)) for _ in range(3)])
        expected = self.serial_outcome(path)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        self.monkeypatch.setattr(os, "fork", no_fork)
        assert self.outcome(path) == expected
        assert len(self.starts) == 1

    def test_an_interrupt_leaves_no_process(self, tmp_path, rng):
        path = _write_manifest(tmp_path, [rng.standard_normal((6, 2)) for _ in range(4)])
        parent = os.getpid()

        def interrupted(file):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return read_lseq(file)

        self.monkeypatch.setattr(lomo.data, "read_lseq", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_dataset(path)
        _no_child_left()
        assert len(self.starts) == 1

    @pytest.mark.parametrize("reason", ["one-cpu", "one-file", "few-bytes"])
    def test_serial_read_starts_no_process(self, tmp_path, rng, reason):
        count = 1 if reason == "one-file" else 3
        path = _write_manifest(tmp_path, [rng.standard_normal((6, 2)) for _ in range(count)])
        if reason == "one-cpu":
            self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            self.monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif reason == "few-bytes":
            total = sum(os.path.getsize(tmp_path / f"f{i}.lseq") for i in range(count))
            self.monkeypatch.setattr(lomo.data, "_HELPER_MIN_BYTES", total + 1)
        assert self.outcome(path) == self.serial_outcome(path)
        assert self.starts == []

    def test_a_daemonic_worker_reads_alone(self, tmp_path, rng):
        path = _write_manifest(tmp_path, [rng.standard_normal((6, 2)) for _ in range(3)])
        expected = self.serial_outcome(path)

        def work():
            # the parent counted this worker's own start before the fork
            sys.exit(0 if self.outcome(path) == expected and len(self.starts) == 1 else 1)

        worker = multiprocessing.get_context("fork").Process(target=work, daemon=True)
        worker.start()
        worker.join(60)
        assert worker.exitcode == 0
        _no_child_left()

    @pytest.mark.parametrize("sizes, split", [
        ([1, 1], 1), ([1, 1, 1, 1], 2), ([5, 1, 1, 1, 1, 1], 1), ([1, 3], 1), ([3, 1], 1),
        ([1, 1, 1], 1), ([2, 1, 1, 2], 2), ([1], None), ([], None),
    ])
    def test_the_split_balances_bytes(self, sizes, split):
        assert lomo.data._helper_split(sizes) == split


class TestSynthConfigValidation:
    def test_too_short_sequences_rejected(self):
        with pytest.raises(InfeasibleError):
            SynthConfig(dim=4, n_min=5, n_max=10, m_true=3, n_pos=2, n_neg=2, min_gap=2)

    @pytest.mark.parametrize(
        "fields, message",
        [(dict(dim=0), "dim and m_true must be >= 1"),
         (dict(m_true=0), "dim and m_true must be >= 1"),
         (dict(n_pos=0), "n_pos and n_neg must be >= 1"),
         (dict(n_neg=0), "n_pos and n_neg must be >= 1"),
         (dict(n_min=11), "n_min 11 exceeds n_max 10"),
         (dict(min_gap=-1), "min_gap and noise_sigma must be non-negative"),
         (dict(noise_sigma=-0.1), "min_gap and noise_sigma must be non-negative"),
         (dict(noise_sigma=float("nan")), "noise_sigma must be finite, got nan"),
         (dict(noise_sigma=float("inf")), "noise_sigma must be finite, got inf"),
         (dict(neg_mode="reversed"),
          "neg_mode must be one of ('shuffled_order', 'events_absent'), got 'reversed'")],
        ids=["dim", "m_true", "n_pos", "n_neg", "lengths", "min_gap", "noise_sigma",
             "noise_sigma-nan", "noise_sigma-inf", "neg_mode"],
    )
    def test_out_of_range_field_rejected(self, fields, message):
        base = dict(dim=4, n_min=8, n_max=10, m_true=2, n_pos=2, n_neg=2)
        with pytest.raises(ValueError) as raised:
            SynthConfig(**dict(base, **fields))
        assert str(raised.value) == message

    def test_noise_that_overflows_a_frame_is_a_data_error(self):
        # most draws of 1e308 times a standard normal pass the float range
        cfg = SynthConfig(dim=8, n_min=40, n_max=40, m_true=2, n_pos=4, n_neg=4,
                          noise_sigma=1e308)
        with pytest.raises(DataError) as raised:
            generate_synthetic(cfg)
        assert str(raised.value) == "sample 'pos0000': frames contain non-finite values"

    def test_shuffled_order_needs_two_events(self):
        with pytest.raises(ValueError):
            SynthConfig(dim=4, n_min=5, n_max=10, m_true=1, n_pos=2, n_neg=2,
                        neg_mode="shuffled_order")

    def test_small_dim_warns(self):
        cfg = SynthConfig(dim=2, n_min=12, n_max=12, m_true=3, n_pos=2, n_neg=2,
                          neg_mode="events_absent", min_gap=1)
        with pytest.warns(UserWarning, match="orthogonal"):
            generate_synthetic(cfg)


class TestGenerateSynthetic:
    def _config(self, mode="shuffled_order", sigma=0.0, seed=5):
        return SynthConfig(
            dim=8, n_min=14, n_max=18, m_true=3, n_pos=10, n_neg=10,
            noise_sigma=sigma, neg_mode=mode, min_gap=2, seed=seed,
        )

    def test_deterministic(self):
        a_train, a_test = generate_synthetic(self._config())
        b_train, b_test = generate_synthetic(self._config())
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.id == b.id and np.array_equal(a.frames, b.frames)

    def test_split_sizes_and_labels(self):
        train, test = generate_synthetic(self._config())
        assert len(train) == len(test) == 10
        assert sum(s.label == 1 for s in train) == 5
        assert sum(s.label == -1 for s in test) == 5

    def test_lengths_in_range(self):
        train, test = generate_synthetic(self._config())
        for s in train + test:
            assert 14 <= s.n_frames <= 18

    def test_noiseless_shuffled_negatives_match_a_positive_multiset(self):
        def multiset_key(frames):
            rows = frames.round(12) + 0.0  # normalize signed zeros
            return rows[np.lexsort(rows.T)].tobytes()

        train, test = generate_synthetic(self._config())
        positives = {multiset_key(s.frames) for s in train + test if s.label == 1}
        for s in train + test:
            if s.label == -1:
                assert multiset_key(s.frames) in positives, (
                    "negative frame multiset has no positive partner"
                )

    def test_noiseless_positive_event_count(self):
        train, _ = generate_synthetic(self._config())
        for s in train:
            norms = np.linalg.norm(s.frames, axis=1)
            if s.label == 1:
                assert np.isclose(norms, 1.0).sum() == 3  # three unit prototypes
                assert (norms < 1e-12).sum() == s.n_frames - 3

    def test_events_absent_negatives_are_pure_noise(self):
        train, test = generate_synthetic(self._config(mode="events_absent"))
        for s in train + test:
            if s.label == -1:
                assert not s.frames.any()  # zero noise leaves nothing

    def test_event_spacing_respects_min_gap(self):
        train, test = generate_synthetic(self._config())
        for s in train + test:
            event_rows = np.where(np.isclose(np.linalg.norm(s.frames, axis=1), 1.0))[0]
            gaps = np.diff(event_rows)
            assert (gaps >= 3).all()  # min_gap 2 means distance >= 3

    def test_prototypes_orthonormal(self):
        cfg = self._config(seed=11)
        train, _ = generate_synthetic(cfg)
        protos = []
        for s in train:
            if s.label == 1:
                rows = s.frames[np.linalg.norm(s.frames, axis=1) > 0.5]
                protos = rows
                break
        gram = protos @ protos.T
        assert np.allclose(gram, np.eye(3), atol=1e-10)

    def test_noise_everywhere_when_sigma_positive(self):
        train, _ = generate_synthetic(self._config(sigma=0.2))
        sample = train[0]
        norms = np.linalg.norm(sample.frames, axis=1)
        assert (norms > 1e-9).all()
