import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lomo import (
    DataError,
    Model,
    ModelSpec,
    MulticlassModel,
    SequenceSample,
    TrainConfig,
    decide,
    late_fusion,
    load_model,
    pool,
    predict,
    predict_table,
    save_model,
    train_multiclass,
    train_spec,
)
from lomo.pipeline import one_vs_rest
from conftest import MODEL_HEADER, write_bad_model_headers

# M=2, d=3, ALOMo with a global template: 6 template, 2 cost and 3 global values.
VALID_CONTAINER = (
    MODEL_HEADER.pack(b"LOMO1", 7, 0, 1, 2, 3, 1, 0.5, 11)
    + np.arange(11, dtype="<f8").tobytes()
)

_small_or_any_u32 = st.one_of(st.integers(0, 10), st.integers(0, 2**32 - 1))
FUZZED_CONTAINERS = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: b"LOMO1" + tail),
    st.builds(
        lambda fields, payload: MODEL_HEADER.pack(b"LOMO1", *fields) + payload,
        st.tuples(
            st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
            _small_or_any_u32, _small_or_any_u32, _small_or_any_u32,
            st.floats(), st.integers(0, 2**64 - 1),
        ),
        st.binary(max_size=400),
    ),
)


def make_sample(frames, label=1, sid="s", group=None):
    return SequenceSample(sid, label, np.asarray(frames, dtype=float), group)


class TestSpecForcing:
    @pytest.mark.parametrize(
        "kind,expect",
        [
            ("MnP", dict(M=1, gamma_g=1.0, pooling="mean")),
            ("MxP", dict(M=1, gamma_g=1.0, pooling="max")),
            ("MIL", dict(M=1, ordinal_enabled=False, gamma_g=0.0)),
            ("LOMo", dict(gamma_g=0.0)),
            ("LOMo_ord0", dict(gamma_g=0.0, ordinal_enabled=False)),
            ("GTP", dict(gamma_g=1.0)),
            ("MILplusGTP", dict(M=1)),
        ],
    )
    def test_forced_fields(self, kind, expect):
        base = TrainConfig(M=3, gamma_g=0.25, pooling="max" if kind != "MxP" else "mean")
        resolved = ModelSpec(kind, base).resolved()
        for field, value in expect.items():
            assert getattr(resolved, field) == value

    def test_alomo_keeps_user_gamma(self):
        resolved = ModelSpec("ALOMo", TrainConfig(M=2, gamma_g=0.4)).resolved()
        assert resolved.gamma_g == 0.4

    def test_cli_aliases(self):
        assert ModelSpec("mil-gtp", TrainConfig()).kind == "MILplusGTP"
        with pytest.raises(ValueError):
            ModelSpec("bogus", TrainConfig())


class TestBinaryAndMulticlass:
    def _separable_multiclass(self, rng, n_per_class=6, classes=3, d=6):
        data = []
        for c in range(classes):
            for i in range(n_per_class):
                frames = 0.05 * rng.standard_normal((7, d))
                frames[i % 7, c] += 2.0  # indicator coordinate per class
                data.append(make_sample(frames, c, f"c{c}i{i}"))
        return data

    def test_multiclass_trains_one_model_per_class(self, rng):
        data = self._separable_multiclass(rng)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=400, seed=1, coverage_t=0))
        mm = train_multiclass(data, spec)
        assert mm.class_labels == [0, 1, 2]
        assert len(mm.per_class) == 3

    def test_multiclass_perfect_on_separable_toy(self, rng):
        data = self._separable_multiclass(rng)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=600, seed=3, coverage_t=0))
        mm = train_multiclass(data, spec)
        decisions = decide(predict_table(mm, data), mm.class_labels)
        assert decisions.tolist() == [s.label for s in data]

    def test_multiclass_deterministic(self, rng):
        data = self._separable_multiclass(rng)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=120, seed=8, coverage_t=0))
        a = train_multiclass(data, spec)
        b = train_multiclass(data, spec)
        for ma, mb in zip(a.per_class, b.per_class):
            assert np.array_equal(ma.templates, mb.templates)

    def test_multiclass_needs_two_classes(self, rng):
        data = [make_sample(rng.standard_normal((3, 2)), 0, f"x{i}") for i in range(4)]
        spec = ModelSpec("MIL", TrainConfig())
        with pytest.raises(DataError):
            train_multiclass(data, spec)

    def test_zero_sample_class_rejected(self, rng):
        data = [make_sample(rng.standard_normal((3, 2)), 0, f"x{i}") for i in range(4)]
        data += [make_sample(rng.standard_normal((3, 2)), 1, f"y{i}") for i in range(4)]
        spec = ModelSpec("MIL", TrainConfig(maxiter=10))
        with pytest.raises(DataError, match="zero samples"):
            train_multiclass(data, spec, class_labels=[0, 1, 2])

    def test_one_vs_rest_rejects_an_absent_positive_class(self, rng):
        data = [make_sample(rng.standard_normal((3, 2)), i % 3, f"x{i}") for i in range(6)]
        assert [s.label for s in one_vs_rest(data, 2)] == [-1, -1, 1, -1, -1, 1]
        with pytest.raises(DataError, match="positive class 9"):
            one_vs_rest(data, 9)

    def test_one_vs_rest_shares_frames_and_pooled_vectors(self, rng):
        data = [make_sample(rng.standard_normal((5, 4)), i % 3, f"x{i}") for i in range(6)]
        pooled = [pool(s) for s in data]
        for s, b, p in zip(data, one_vs_rest(data, 1), pooled):
            assert np.shares_memory(s.frames, b.frames)
            assert pool(b) is p


class TestPredict:
    def test_boundary_counts_as_positive(self):
        model = Model(templates=[[0.0]], ordering_costs=[0.0])
        sample = make_sample([[5.0]])
        assert predict(model, sample) == 0.0
        assert decide([predict(model, sample)]).tolist() == [1]

    def test_multiclass_argmax_smallest_index_tie(self, rng):
        # two identical class models tie; the smaller class index wins
        from lomo import MulticlassModel

        m = Model(templates=[[1.0]], ordering_costs=[0.0])
        mm = MulticlassModel(class_labels=[0, 1, 2], per_class=[
            Model(templates=[[0.2]], ordering_costs=[0.0]), m, m,
        ])
        sample = make_sample([[1.0]])
        scores = predict(mm, sample)
        assert scores[1] == scores[2] > scores[0]
        assert decide([scores], mm.class_labels).tolist() == [1]

    def test_decide_maps_columns_to_class_labels(self):
        table = [[0.1, 0.7, -2.0], [3.0, 3.0, 3.0], [-1.0, -0.5, 0.0]]
        assert decide(table, [4, 9, 2]).tolist() == [9, 4, 2]
        assert decide([-0.5, 0.0, 2.0]).tolist() == [-1, 1, 1]
        with pytest.raises(ValueError, match="3 columns"):
            decide(table)
        with pytest.raises(ValueError, match="3 columns"):
            decide(table, [0, 1])

    def test_mil_predict_is_max_frame_dot_product(self, rng):
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=200, seed=2, coverage_t=0))
        data = []
        for i in range(8):
            frames = rng.standard_normal((6, 4))
            if i % 2 == 0:
                frames[2] += 1.0
            data.append(make_sample(frames, 1 if i % 2 == 0 else -1, f"p{i}"))
        model = train_spec(data, spec).model
        for s in data:
            expected = max(float(model.templates[0] @ f) for f in s.frames)
            assert predict(model, s) == expected

    def test_gtp_prediction_invariant_under_frame_permutation(self, rng):
        spec = ModelSpec("GTP", TrainConfig(M=1, gamma_g=1.0, maxiter=150, seed=4))
        data = [
            make_sample(rng.standard_normal((9, 5)) + (1 if i % 2 == 0 else -1),
                        1 if i % 2 == 0 else -1, f"g{i}")
            for i in range(8)
        ]
        model = train_spec(data, spec).model
        for s in data[:4]:
            base = predict(model, s)
            for _ in range(10):
                shuffled = make_sample(s.frames[rng.permutation(s.n_frames)], s.label, s.id)
                assert predict(model, shuffled) == base


class TestNoiselessGeneratorClaims:
    def _config(self, mode):
        from lomo import SynthConfig

        return SynthConfig(
            dim=8, n_min=12, n_max=12, m_true=2, n_pos=20, n_neg=20,
            noise_sigma=0.0, neg_mode=mode, min_gap=2, seed=13,
        )

    def test_mil_separates_presence_data_perfectly(self):
        from lomo import auc, generate_synthetic

        train_set, test_set = generate_synthetic(self._config("events_absent"))
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=800, seed=0, coverage_t=2))
        model = train_spec(train_set, spec).model
        scores = np.array([predict(model, s) for s in test_set])
        labels = np.array([s.label for s in test_set])
        assert auc(scores, labels) == 1.0

    def test_mean_pooling_cannot_separate_shuffled_order_data(self):
        from lomo import auc, generate_synthetic

        train_set, test_set = generate_synthetic(self._config("shuffled_order"))
        spec = ModelSpec("GTP", TrainConfig(M=1, gamma_g=1.0, maxiter=800, seed=0))
        model = train_spec(train_set, spec).model
        scores = np.array([predict(model, s) for s in test_set])
        labels = np.array([s.label for s in test_set])
        # identical pooled representations across classes by construction
        assert abs(auc(scores, labels) - 0.5) <= 0.15


class TestAdaptiveBlendEndpoints:
    def _data(self, rng):
        data = []
        for i in range(10):
            frames = rng.standard_normal((8, 4))
            if i % 2 == 0:
                frames[4] += 1.2
            data.append(make_sample(frames, 1 if i % 2 == 0 else -1, f"a{i}"))
        return data

    def test_gamma_zero_matches_lomo(self, rng):
        data = self._data(rng)
        cfg = TrainConfig(M=2, maxiter=250, seed=6, coverage_t=1, gamma_g=0.0)
        alomo = train_spec(data, ModelSpec("ALOMo", cfg)).model
        lomo_model = train_spec(data, ModelSpec("LOMo", cfg)).model
        for s in data:
            assert predict(alomo, s) == predict(lomo_model, s)

    def test_gamma_one_matches_gtp(self, rng):
        data = self._data(rng)
        cfg = TrainConfig(M=2, maxiter=250, seed=6, coverage_t=1, gamma_g=1.0)
        alomo = train_spec(data, ModelSpec("ALOMo", cfg)).model
        gtp = train_spec(data, ModelSpec("GTP", cfg)).model
        for s in data:
            assert predict(alomo, s) == predict(gtp, s)


class TestLateFusion:
    def test_single_table_identity(self):
        table = np.array([0.1, -2.0, 3.5])
        assert np.array_equal(late_fusion([table], "equal_mean"), table)
        fused = late_fusion([table], "zscore_weighted", weights=[1.0])
        assert np.array_equal(np.argsort(fused), np.argsort(table))

    def test_two_identical_tables_equal_mean(self):
        table = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(late_fusion([table, table], "equal_mean"), table)

    def test_opposed_tables_cancel_under_zscore(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([30.0, 20.0, 10.0])
        fused = late_fusion([a, b], "zscore_weighted", weights=[1.0, 1.0])
        assert np.all(np.abs(fused) <= 1e-12)

    def test_zscore_values(self):
        a = np.array([1.0, 2.0, 3.0])
        z = late_fusion([a], "zscore_weighted")
        expected = (a - 2.0) / np.sqrt(2.0 / 3.0)  # population std
        assert np.allclose(z, expected, atol=1e-12)
        assert z[2] == pytest.approx(1.224744871391589, abs=1e-12)

    def test_zero_variance_column_normalizes_to_zero(self):
        flat = np.array([5.0, 5.0, 5.0])
        assert np.array_equal(late_fusion([flat], "zscore_weighted"), np.zeros(3))

    def test_equal_mean_is_permutation_invariant_in_tables(self, rng):
        tables = [rng.standard_normal(6) for _ in range(3)]
        a = late_fusion(tables, "equal_mean")
        b = late_fusion(tables[::-1], "equal_mean")
        assert np.allclose(a, b, atol=1e-15)

    def test_zscore_invariant_under_positive_affine_rescale(self, rng):
        tables = [rng.standard_normal(8) for _ in range(2)]
        base = late_fusion(tables, "zscore_weighted", weights=[1.0, 0.5])
        rescaled = [3.7 * tables[0] + 11.0, 0.25 * tables[1] - 4.0]
        again = late_fusion(rescaled, "zscore_weighted", weights=[1.0, 0.5])
        assert np.allclose(base, again, atol=1e-9)

    def test_shape_mismatch_and_nonfinite_rejected(self):
        with pytest.raises(DataError):
            late_fusion([np.zeros(3), np.zeros(4)], "equal_mean")
        with pytest.raises(DataError):
            late_fusion([np.array([np.inf, 0.0])], "equal_mean")

    def test_equal_mean_rejects_weights(self):
        with pytest.raises(ValueError):
            late_fusion([np.zeros(3)], "equal_mean", weights=[1.0])

    @pytest.mark.parametrize(
        "weights",
        [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]],
        ids=["nan", "inf", "-inf", "too-few", "too-many", "nested"],
    )
    def test_weights_must_be_finite_and_one_per_table(self, weights):
        # a NaN weight would make every fused score NaN, which decide maps to -1
        tables = [np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])]
        with pytest.raises(ValueError, match="need 2 finite weights, one per table"):
            late_fusion(tables, "zscore_weighted", weights=weights)

    def test_multiclass_tables_normalize_per_class(self, rng):
        table = rng.standard_normal((5, 3))
        z = late_fusion([table], "zscore_weighted")
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


class TestPersistence:
    def _roundtrip(self, tmp_path, model, kind="LOMo", seed=42):
        path = tmp_path / "model.bin"
        save_model(path, model, kind=kind, seed=seed)
        return load_model(path)

    def test_roundtrip_preserves_everything(self, tmp_path, rng):
        model = Model(
            templates=rng.standard_normal((3, 5)),
            ordering_costs=rng.standard_normal(6),
            global_template=rng.standard_normal(5),
            gamma_g=0.35,
            pooling="max",
            coverage=7,
        )
        loaded = self._roundtrip(tmp_path, model, kind="ALOMo", seed=99)
        assert loaded.kind == "ALOMo"
        assert loaded.seed == 99
        assert np.array_equal(loaded.model.templates, model.templates)
        assert np.array_equal(loaded.model.ordering_costs, model.ordering_costs)
        assert np.array_equal(loaded.model.global_template, model.global_template)
        assert loaded.model.gamma_g == model.gamma_g
        assert loaded.model.pooling == "max"
        assert loaded.model.coverage == 7

    @pytest.mark.parametrize(
        "code, kind",
        enumerate(["MnP", "MxP", "MIL", "LOMo", "LOMo_ord0", "GTP", "MILplusGTP", "ALOMo"]),
    )
    def test_kind_byte(self, tmp_path, code, kind):
        # byte 5 of a container, right after the magic, names the model kind
        model = Model(templates=np.ones((1, 2)), ordering_costs=np.zeros(1))
        assert self._roundtrip(tmp_path, model, kind=kind).kind == kind
        assert (tmp_path / "model.bin").read_bytes()[5] == code

    def test_roundtrip_without_global(self, tmp_path, rng):
        model = Model(templates=rng.standard_normal((2, 3)), ordering_costs=np.zeros(2))
        loaded = self._roundtrip(tmp_path, model, kind="MIL")
        assert loaded.model.global_template is None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic|truncated"):
            load_model(path)

    def test_untrusted_header_rejected_quickly(self, tmp_path):
        for path in write_bad_model_headers(tmp_path):
            tick = time.perf_counter()
            with pytest.raises(DataError):
                load_model(path)
            assert time.perf_counter() - tick < 1.0, path.name

    @given(cut=st.integers(0, len(VALID_CONTAINER) - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncated_containers_raise_data_error(self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("cut") / "model.bin"
        path.write_bytes(VALID_CONTAINER[:cut])
        tick = time.perf_counter()
        with pytest.raises(DataError):
            load_model(path)
        assert time.perf_counter() - tick < 1.0

    @given(blob=FUZZED_CONTAINERS)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_containers_fail_cleanly_or_round_trip(self, tmp_path_factory, blob):
        """Random bytes either raise DataError or, when they happen to form
        a valid container, load into a model that saves back to the same
        bytes."""
        folder = tmp_path_factory.mktemp("fuzz")
        path = folder / "model.bin"
        path.write_bytes(blob)
        tick = time.perf_counter()
        try:
            loaded = load_model(path)
        except DataError:
            loaded = None
        assert time.perf_counter() - tick < 1.0
        if loaded is not None:
            save_model(folder / "again.bin", loaded.model, kind=loaded.kind, seed=loaded.seed)
            assert (folder / "again.bin").read_bytes() == blob

    def test_truncated_payload_rejected(self, tmp_path, rng):
        model = Model(templates=rng.standard_normal((2, 3)), ordering_costs=np.zeros(2))
        path = tmp_path / "model.bin"
        save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    def test_predict_table_shapes(self, rng):
        model = Model(templates=rng.standard_normal((1, 2)), ordering_costs=[0.0])
        samples = [make_sample(rng.standard_normal((4, 2)), 1, f"q{i}") for i in range(5)]
        table = predict_table(model, samples)
        assert table.shape == (5,)

    @pytest.mark.parametrize("classes", [1, 3])
    def test_predict_table_equals_stacked_predict(self, rng, classes):
        from math import factorial

        def model(m):
            return Model(
                templates=rng.standard_normal((m, 3)),
                ordering_costs=rng.standard_normal(factorial(m)),
                global_template=rng.standard_normal(3), gamma_g=0.3, coverage=2,
            )

        scorer = model(3) if classes == 1 else MulticlassModel([4, 0, 7], [model(m) for m in (2, 3, 4)])
        samples = [
            make_sample(rng.standard_normal((n, 3)), 1, f"q{i}")
            for i, n in enumerate([4, 9, 31, 4, 17, 6, 12])
        ]
        for solver in ("dp", "greedy"):
            table = predict_table(scorer, samples, solver)
            stacked = np.array([predict(scorer, s, solver) for s in samples])
            assert table.shape == stacked.shape
            assert table.tobytes() == stacked.tobytes()
