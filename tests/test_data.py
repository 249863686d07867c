import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lomo.data
from lomo import (
    DataError,
    InfeasibleError,
    Manifest,
    ManifestEntry,
    SequenceSample,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_manifest,
    read_lseq,
    save_manifest,
    write_lseq,
)


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
        ],
        ids=["top-level-number", "entries-number", "version-text", "dim-infinite",
             "path-list", "group-number", "label-float", "label-bool", "fold-float",
             "fold-bool", "version-float", "dim-bool", "version-99"],
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


class TestSynthConfigValidation:
    def test_too_short_sequences_rejected(self):
        with pytest.raises(InfeasibleError):
            SynthConfig(dim=4, n_min=5, n_max=10, m_true=3, n_pos=2, n_neg=2, min_gap=2)

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
