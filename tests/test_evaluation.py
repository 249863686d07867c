import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lomo import (
    DataError,
    FoldSpec,
    ModelSpec,
    SequenceSample,
    SynthConfig,
    TrainConfig,
    auc,
    average_class_accuracy,
    average_precision,
    cross_validate,
    generate_synthetic,
    grid_search,
    make_folds,
    mean_average_precision,
    roc_eer_rate,
)


def make_sample(frames, label, sid, group=None):
    return SequenceSample(sid, label, np.asarray(frames, dtype=float), group)


class TestAveragePrecision:
    def test_hand_example(self):
        ap = average_precision([0.9, 0.8, 0.7], [1, -1, 1])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)

    def test_perfect_ranking(self):
        assert average_precision([4.0, 3.0, 2.0, 1.0], [1, 1, -1, -1]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 7
        scores = np.arange(n, 0.0, -1.0)
        labels = [-1] * (n - 1) + [1]
        assert average_precision(scores, labels) == pytest.approx(1.0 / n)

    def test_requires_positives(self):
        with pytest.raises(ValueError, match="positive"):
            average_precision([0.5, 0.2], [-1, -1])

    def test_ties_stable_by_original_index(self):
        # equal scores keep input order: positive listed first wins rank 1
        assert average_precision([1.0, 1.0], [1, -1]) == 1.0
        assert average_precision([1.0, 1.0], [-1, 1]) == 0.5

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100, allow_nan=False), st.sampled_from([-1, 1])),
            min_size=2,
            max_size=30,
        ).filter(lambda rows: any(l == 1 for _, l in rows))
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_strictly_increasing_transform(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = np.array([l for _, l in rows])
        # rank transform: strictly increasing over the observed values and
        # exactly tie-preserving (an affine map can collapse close floats)
        uniq = np.unique(scores)
        transformed = np.searchsorted(uniq, scores).astype(float) ** 3
        assert average_precision(scores, labels) == pytest.approx(
            average_precision(transformed, labels), abs=1e-12
        )


class TestMeanAveragePrecision:
    def test_single_class_equals_ap(self, rng):
        scores = rng.standard_normal(10)
        labels = rng.choice([-1, 1], 10)
        if not (labels == 1).any():
            labels[0] = 1
        assert mean_average_precision(scores, labels) == average_precision(scores, labels)

    def test_two_class_mean(self):
        # class 0 column ranks its positives perfectly (AP 1.0); class 1
        # column ranks its single positive second (AP 0.5)
        table = np.array([[0.9, 0.8], [0.1, 0.9], [0.5, 0.05]])
        labels = np.array([0, 1, 0])
        ap0 = average_precision(table[:, 0], np.where(labels == 0, 1, -1))
        ap1 = average_precision(table[:, 1], np.where(labels == 1, 1, -1))
        assert mean_average_precision(table, labels) == pytest.approx((ap0 + ap1) / 2)

    def test_compositional_on_random_table(self, rng):
        table = rng.standard_normal((20, 4))
        labels = rng.integers(0, 4, 20)
        expected = np.mean([
            average_precision(table[:, c], np.where(labels == c, 1, -1))
            for c in range(4) if (labels == c).any()
        ])
        assert mean_average_precision(table, labels) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "class_labels, message",
        [([0, 1, 2], "score table has 2 columns for 3 classes"),
         ([1, 2], "average_precision: no class has positive samples in the evaluated set")],
        ids=["column-count", "no-positive"],
    )
    def test_unusable_table_rejected(self, class_labels, message):
        with pytest.raises(ValueError) as raised:
            mean_average_precision(np.zeros((3, 2)), [0, 0, 0], class_labels)
        assert str(raised.value) == message


class TestAuc:
    def test_perfect_separation(self):
        assert auc([3.0, 2.0, 1.0, 0.0], [1, 1, -1, -1]) == 1.0

    def test_all_ties(self):
        assert auc([1.0, 1.0, 1.0], [1, -1, 1]) == 0.5

    def test_hand_pair_enumeration(self):
        assert auc([0.9, 0.4, 0.5], [1, 1, -1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([1.0, 2.0], [1, 1])

    @pytest.mark.parametrize(
        "scores, labels, message",
        [([1.0, 2.0, 3.0], [1, -1], "scores and labels differ in length: (3,) vs (2,)"),
         ([1.0, np.inf], [1, -1], "scores contain non-finite values"),
         ([1.0, np.nan], [1, -1], "scores contain non-finite values"),
         ([1.0, 2.0, 3.0], [1, -1, 0], "binary metrics expect labels -1/+1, got [-1, 0, 1]")],
        ids=["lengths", "inf", "nan", "labels"],
    )
    def test_malformed_input_rejected(self, scores, labels, message):
        with pytest.raises(ValueError) as raised:
            auc(scores, labels)
        assert str(raised.value) == message

    def test_matches_pair_counting(self, rng):
        for _ in range(30):
            scores = rng.standard_normal(15)
            labels = rng.choice([-1, 1], 15)
            if len(set(labels)) < 2:
                continue
            pos = scores[labels == 1][:, None]
            neg = scores[labels == -1][None, :]
            expected = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)
            assert auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.floats(-50, 50, allow_nan=False), st.sampled_from([-1, 1])),
            min_size=2,
            max_size=25,
        ).filter(lambda rows: len({l for _, l in rows}) == 2)
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = np.array([l for _, l in rows])
        uniq = np.unique(scores)
        transformed = np.searchsorted(uniq, scores).astype(float) ** 3
        assert auc(transformed, labels) == pytest.approx(auc(scores, labels), abs=1e-12)


class TestRocEerRate:
    def test_perfect_separation(self):
        assert roc_eer_rate([4.0, 3.0, 1.0, 0.5], [1, 1, -1, -1]) == 1.0

    def test_perfectly_inverted(self):
        assert roc_eer_rate([4.0, 3.0, 1.0, 0.5], [-1, -1, 1, 1]) == 0.0

    def test_vertex_crossing(self):
        assert roc_eer_rate([0.8, 0.6, 0.7, 0.1], [1, 1, -1, -1]) == 0.5

    def test_interpolated_crossing(self):
        # pos (5, 4, 1), neg (3,): no vertex has FPR == FNR; the crossing
        # sits inside the segment from (0, 1/3) to (1, 1/3) at EER 1/3
        rate = roc_eer_rate([5.0, 4.0, 3.0, 1.0], [1, 1, -1, 1])
        assert rate == pytest.approx(1.0 - 1.0 / 3.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_eer_rate([1.0, 2.0], [-1, -1])

    def test_range(self, rng):
        for _ in range(50):
            scores = rng.standard_normal(12)
            labels = rng.choice([-1, 1], 12)
            if len(set(labels)) < 2:
                continue
            assert 0.0 <= roc_eer_rate(scores, labels) <= 1.0


    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
                      st.sampled_from([-1, 1])),
            min_size=2, max_size=40,
        ).filter(lambda pairs: len({y for _, y in pairs}) == 2)
    )
    def test_matches_the_vertex_walk(self, data):
        scores, labels = [s for s, _ in data], [y for _, y in data]
        assert repr(roc_eer_rate(scores, labels)) == repr(_eer_rate_by_walk(scores, labels))


def _eer_rate_by_walk(scores, labels):
    """``roc_eer_rate`` as one Python loop over the tie groups of the sorted
    scores, stopping at the first vertex whose FPR reaches its FNR."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) > 0
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(-scores, kind="stable")
    s_sorted, pos_sorted = scores[order], positive[order]
    tp = fp = 0
    prev_fpr, prev_fnr = 0.0, 1.0
    i = 0
    while True:
        j = i
        while j < len(scores) and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(pos_sorted[i:j].sum())
        fp += (j - i) - int(pos_sorted[i:j].sum())
        fpr, fnr = fp / n_neg, 1.0 - tp / n_pos
        if fpr >= fnr:
            if fpr == fnr:
                return 1.0 - fpr
            frac = (prev_fnr - prev_fpr) / ((fpr - prev_fpr) + (prev_fnr - fnr))
            return 1.0 - (prev_fpr + frac * (fpr - prev_fpr))
        prev_fpr, prev_fnr = fpr, fnr
        i = j

class TestAverageClassAccuracy:
    def test_balanced_perfect(self):
        assert average_class_accuracy([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_mean_of_recalls(self):
        # class 0 recall 1.0, class 1 recall 0.5
        assert average_class_accuracy([0, 0, 1, 0], [0, 0, 1, 1]) == 0.75

    def test_invariant_to_duplicating_a_class(self):
        preds = np.array([0, 0, 1, 0])
        labels = np.array([0, 0, 1, 1])
        base = average_class_accuracy(preds, labels)
        dup = average_class_accuracy(
            np.concatenate([preds, [0, 0]]), np.concatenate([labels, [0, 0]])
        )
        assert dup == base

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="predictions and labels differ in length"):
            average_class_accuracy([0, 1, 1], [0, 1])


class TestMakeFolds:
    def _samples(self, rng, n=20, groups=None):
        return [
            make_sample(
                rng.standard_normal((3, 2)),
                1 if i % 2 else -1,
                f"s{i}",
                group=None if groups is None else groups[i % len(groups)],
            )
            for i in range(n)
        ]

    def test_random_k_fold_partition(self, rng):
        samples = self._samples(rng)
        folds = make_folds(samples, "random_k_fold", k=4, seed=3)
        assert folds.n_folds == 4
        assert sorted(folds.assignment) == sorted(s.id for s in samples)
        sizes = [list(folds.assignment.values()).count(f) for f in range(4)]
        assert sum(sizes) == 20 and max(sizes) - min(sizes) <= 1

    def test_same_seed_same_folds(self, rng):
        samples = self._samples(rng)
        a = make_folds(samples, "random_k_fold", k=5, seed=9)
        b = make_folds(samples, "random_k_fold", k=5, seed=9)
        assert a.assignment == b.assignment

    def test_leave_one_group_out_counts(self, rng):
        samples = self._samples(rng, groups=["g1", "g2", "g3", "g4"])
        folds = make_folds(samples, "leave_one_group_out")
        assert folds.n_folds == 4

    def test_groups_never_split(self, rng):
        samples = self._samples(rng, n=30, groups=["a", "b", "c", "d", "e"])
        folds = make_folds(samples, "group_k_fold", k=3, seed=1)
        by_group = {}
        for s in samples:
            by_group.setdefault(s.group, set()).add(folds.assignment[s.id])
        assert all(len(v) == 1 for v in by_group.values())

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(ValueError, match="policy must be one of .*, got 'stratified'"):
            make_folds(self._samples(rng), "stratified", k=2)

    def test_group_policy_requires_groups(self, rng):
        samples = self._samples(rng)
        with pytest.raises(DataError):
            make_folds(samples, "leave_one_group_out")

    def test_fixed_from_manifest(self, rng):
        samples = self._samples(rng, n=6)
        mapping = {s.id: i % 3 for i, s in enumerate(samples)}
        folds = make_folds(samples, "fixed_from_manifest", manifest_folds=mapping)
        assert folds.n_folds == 3
        assert folds.assignment == mapping

    def test_duplicate_ids_rejected(self, rng):
        samples = self._samples(rng, n=4)
        samples.append(make_sample(rng.standard_normal((3, 2)), 1, "s0"))
        with pytest.raises(DataError, match="unique"):
            make_folds(samples, "random_k_fold", k=2, seed=0)

    @pytest.mark.parametrize(
        "policy, k, message",
        [
            ("random_k_fold", None, "random_k_fold needs 2 <= k <= 6, got None"),
            ("random_k_fold", 1, "random_k_fold needs 2 <= k <= 6, got 1"),
            ("random_k_fold", 7, "random_k_fold needs 2 <= k <= 6, got 7"),
            ("group_k_fold", None, "group_k_fold needs 2 <= k <= number of groups (3)"),
            ("group_k_fold", 1, "group_k_fold needs 2 <= k <= number of groups (3)"),
            ("group_k_fold", 4, "group_k_fold needs 2 <= k <= number of groups (3)"),
        ],
    )
    def test_out_of_range_k_rejected(self, rng, policy, k, message):
        samples = self._samples(rng, n=6, groups=["a", "b", "c"])
        with pytest.raises(ValueError) as info:
            make_folds(samples, policy, k=k, seed=0)
        assert str(info.value) == message

    def test_fixed_from_manifest_needs_the_mapping(self, rng):
        with pytest.raises(ValueError) as info:
            make_folds(self._samples(rng, n=4), "fixed_from_manifest")
        assert str(info.value) == "fixed_from_manifest requires the manifest fold mapping"

    def test_fixed_from_manifest_needs_every_fold(self, rng):
        samples = self._samples(rng, n=4)
        mapping = {"s0": 0, "s1": None, "s2": 1}  # s1 has no fold, s3 no entry
        with pytest.raises(DataError) as info:
            make_folds(samples, "fixed_from_manifest", manifest_folds=mapping)
        assert str(info.value) == "manifest provides no fold index for samples ['s1', 's3']"


def separable_binary(rng, n=24, d=4):
    data = []
    for i in range(n):
        frames = 0.1 * rng.standard_normal((6, d))
        label = 1 if i % 2 == 0 else -1
        if label == 1:
            frames[3, 0] += 2.0
        else:
            frames[:, 0] -= 0.5
        data.append(make_sample(frames, label, f"b{i}", group=f"subj{i % 6}"))
    return data


class TestCrossValidate:
    def test_perfect_on_separable_toy(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=500, seed=1, coverage_t=0))
        report = cross_validate(data, folds, spec, metrics=("acc", "auc"))
        assert report.aggregate["acc"] == 1.0
        assert report.aggregate["auc"] == 1.0

    def test_aggregate_is_mean_of_folds(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=3, seed=2)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=60, seed=1, coverage_t=0))
        report = cross_validate(data, folds, spec, metrics=("acc",))
        values = [fr["metrics"]["acc"] for fr in report.per_fold]
        assert report.aggregate["acc"] == pytest.approx(np.mean(values))

    def test_deterministic(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=5)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=80, seed=3, coverage_t=0))
        a = cross_validate(data, folds, spec, metrics=("acc", "map"))
        b = cross_validate(data, folds, spec, metrics=("acc", "map"))
        assert a.aggregate == b.aggregate and a.per_fold == b.per_fold

    def test_multiclass_path(self, rng):
        data = []
        mapping = {}
        for c in range(3):
            for i in range(8):
                frames = 0.05 * rng.standard_normal((5, 5))
                frames[i % 5, c] += 2.0
                data.append(make_sample(frames, c, f"mc{c}-{i}"))
                mapping[f"mc{c}-{i}"] = i % 2  # class-balanced folds
        folds = make_folds(data, "fixed_from_manifest", manifest_folds=mapping)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=800, seed=2, coverage_t=0))
        report = cross_validate(data, folds, spec, metrics=("acc", "avgclassacc", "map"))
        assert report.aggregate["acc"] == 1.0
        assert set(report.per_class) == {"0", "1", "2"}

    @pytest.mark.parametrize(
        "held_out, metrics, message",
        [
            (-1, ("acc", "auc"), "fold 1 cannot be scored on auc: its evaluation samples "
                                 "have class counts {-1: 4, 1: 0}"),
            (-1, ("map", "eer"), "fold 1 cannot be scored on map, eer: its evaluation "
                                 "samples have class counts {-1: 4, 1: 0}"),
            (1, ("eer", "map"), "fold 1 cannot be scored on eer: its evaluation samples "
                                "have class counts {-1: 0, 1: 4}"),
        ],
        ids=["negatives-auc", "negatives-map-eer", "positives-eer"],
    )
    def test_one_class_held_out_fold_is_a_data_error_before_training(
        self, rng, monkeypatch, held_out, metrics, message
    ):
        import lomo.evaluation

        data = separable_binary(rng, n=12)
        # fold 1 holds the first four samples of one class, fold 0 the rest
        chosen = [s.id for s in data if s.label == held_out][:4]
        folds = make_folds(data, "fixed_from_manifest",
                           manifest_folds={s.id: int(s.id in chosen) for s in data})
        trained = []
        monkeypatch.setattr(lomo.evaluation, "train_spec", lambda *a, **k: trained.append(a))
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=20, seed=1, coverage_t=0))
        with pytest.raises(DataError) as info:
            cross_validate(data, folds, spec, metrics=metrics)
        assert str(info.value).startswith(message)
        assert trained == []

    def test_multiclass_training_fold_missing_a_class_is_a_data_error_before_training(
        self, monkeypatch
    ):
        import lomo.evaluation

        # the one class-2 sample lands in held-out fold 1, so fold 1's
        # one-vs-all training set has no class 2
        data = [make_sample(np.zeros((3, 2)), label, f"s{i}")
                for i, label in enumerate([0, 0, 0, 1, 1, 1, 2])]
        folds = make_folds(data, "random_k_fold", k=3, seed=0)
        assert folds.assignment["s6"] == 1
        trained = []
        monkeypatch.setattr(lomo.evaluation, "train_multiclass", lambda *a, **k: trained.append(a))
        with pytest.raises(DataError) as info:
            cross_validate(data, folds, ModelSpec("MIL", TrainConfig(maxiter=5)))
        assert str(info.value) == "fold 1 cannot train: classes with zero samples: [2]"
        assert trained == []

    @pytest.mark.parametrize(
        "n_folds, fold_of, message",
        [
            (2, lambda i: None if i == 3 else i % 2,
             "samples missing from the fold assignment: ['b3']"),
            (3, lambda i: i % 2, "fold 2 has no evaluation samples"),
            (1, lambda i: 0, "fold 0 has no training samples"),
        ],
        ids=["unassigned-sample", "empty-evaluation-fold", "empty-training-fold"],
    )
    def test_unusable_fold_spec_is_a_data_error_before_training(
        self, rng, monkeypatch, n_folds, fold_of, message
    ):
        import lomo.evaluation

        data = separable_binary(rng, n=12)
        assignment = {s.id: fold_of(i) for i, s in enumerate(data)}
        folds = FoldSpec("custom", "fixed_from_manifest", n_folds,
                         {sid: fold for sid, fold in assignment.items() if fold is not None})
        trained = []
        monkeypatch.setattr(lomo.evaluation, "train_spec", lambda *a, **k: trained.append(a))
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=20, seed=1, coverage_t=0))
        with pytest.raises(DataError) as info:
            cross_validate(data, folds, spec)
        assert str(info.value) == message
        assert trained == []

    @pytest.mark.parametrize("search", [False, True], ids=["cross_validate", "grid_search"])
    def test_unknown_metric_rejected_before_training(self, rng, monkeypatch, search):
        import lomo.evaluation

        data = separable_binary(rng, n=12)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        trained = []
        monkeypatch.setattr(lomo.evaluation, "train_spec", lambda *a, **k: trained.append(a))
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=20, seed=1, coverage_t=0))
        with pytest.raises(ValueError, match="unknown metric 'bogus'; expected one of"):
            if search:
                grid_search(data, folds, spec, {"lambda1": [1e-5, 1e-3]}, metric="bogus")
            else:
                cross_validate(data, folds, spec, metrics=("acc", "bogus"))
        assert trained == []

    def test_one_class_fold_scores_metrics_that_need_no_second_class(self, rng):
        data = separable_binary(rng, n=12)
        chosen = [s.id for s in data if s.label == 1][:4]
        folds = make_folds(data, "fixed_from_manifest",
                           manifest_folds={s.id: int(s.id in chosen) for s in data})
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=20, seed=1, coverage_t=0))
        report = cross_validate(data, folds, spec, metrics=("acc", "avgclassacc", "map"))
        assert report.per_fold[1]["metrics"]["map"] == 1.0

    def test_report_json_is_stable(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=40, seed=1, coverage_t=0))
        report = cross_validate(data, folds, spec, metrics=("acc",))
        payload = json.loads(report.to_json())
        assert payload["aggregate"]["acc"] == report.aggregate["acc"]
        assert payload["config_fingerprint"] == report.config_fingerprint

    @pytest.mark.parametrize(
        "multiclass,metrics",
        [(False, ("acc", "auc", "eer")), (True, ("acc", "avgclassacc", "map"))],
    )
    def test_alomo_report_matches_traced_uncached_run(self, monkeypatch, multiclass, metrics):
        """cross_validate skips the objective trace and reuses pooled
        vectors; its report must equal, byte for byte, one whose folds record
        the full trace and pool every sequence from scratch on each call."""
        import lomo.core
        import lomo.pipeline
        import lomo.training

        data, _ = generate_synthetic(SynthConfig(
            dim=5, n_min=14, n_max=18, m_true=2, n_pos=24, n_neg=24, noise_sigma=0.2,
            neg_mode="events_absent", min_gap=1, seed=7,
        ))
        if multiclass:
            data = [SequenceSample(s.id, i % 3, s.frames, s.group) for i, s in enumerate(data)]
        spec = ModelSpec("alomo", TrainConfig(
            M=2, gamma_g=0.5, coverage_t=1, maxiter=300, seed=7, init_scale=1e-2,
        ))
        folds = make_folds(data, "random_k_fold", k=3, seed=7)
        fast = cross_validate(data, folds, spec, metrics, solver="dp").to_json()

        def uncached_pool(sample, mode="mean"):
            assert mode == "mean"
            return np.sort(sample.frames, axis=0).sum(axis=0) / sample.n_frames

        real_train = lomo.pipeline.train
        traces = []

        def traced_train(dataset, config, solver="greedy", trace_every=None):
            report = real_train(dataset, config, solver=solver, trace_every=None)
            traces.append(report.trace)
            return report

        monkeypatch.setattr(lomo.core, "pool", uncached_pool)
        monkeypatch.setattr(lomo.training, "pool", uncached_pool)
        monkeypatch.setattr(lomo.pipeline, "train", traced_train)
        fresh = [SequenceSample(s.id, s.label, s.frames, s.group) for s in data]
        reference = cross_validate(fresh, folds, spec, metrics, solver="dp").to_json()
        assert len(traces) == (9 if multiclass else 3)
        assert all(len(trace) > 1 for trace in traces)
        assert fast == reference


class TestGridSearch:
    def test_singleton_grid_returns_that_config(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=60, seed=1, coverage_t=0))
        result = grid_search(data, folds, spec, {"lambda1": [1e-5], "coverage_t": [0]})
        assert result.best["lambda1"] == 1e-5
        assert result.best["coverage_t"] == 0
        assert len(result.rows) == 1

    def test_row_count_is_product_of_stage_one_grid(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=30, seed=1, coverage_t=0))
        result = grid_search(
            data, folds, spec, {"lambda1": [1e-5, 1e-3], "coverage_t": [0, 1, 2]}
        )
        assert len(result.rows) == 6

    def test_staged_gamma_rows_and_reuse(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        spec = ModelSpec("ALOMo", TrainConfig(M=1, maxiter=30, seed=1, coverage_t=0))
        result = grid_search(
            data, folds, spec,
            {"lambda1": [1e-5, 1e-4], "coverage_t": [0], "gamma_g": [0.0, 0.5, 1.0]},
        )
        stage1 = [r for r in result.rows if r["stage"] == 1]
        stage2 = [r for r in result.rows if r["stage"] == 2]
        assert len(stage1) == 2 and len(stage2) == 3
        # the gamma sweep reuses the stage-1 winner's lambda and coverage
        assert all(r["lambda1"] == result.best["lambda1"] for r in stage2)

    def test_selects_local_model_on_order_discriminative_data(self):
        cfg = SynthConfig(
            dim=8, n_min=16, n_max=16, m_true=2, n_pos=30, n_neg=30,
            noise_sigma=0.0, neg_mode="shuffled_order", min_gap=2, seed=7,
        )
        train_set, _ = generate_synthetic(cfg)
        folds = make_folds(train_set, "random_k_fold", k=2, seed=0)
        spec = ModelSpec(
            "ALOMo",
            TrainConfig(M=2, maxiter=1500, seed=0, coverage_t=2, init_scale=1e-2),
        )
        result = grid_search(
            train_set, folds, spec,
            {"lambda1": [1e-5], "coverage_t": [2], "gamma_g": [0.0, 1.0]},
            metric="auc",
            solver="dp",
        )
        assert result.best["gamma_g"] == 0.0

    def test_empty_grid_rejected(self, rng):
        data = separable_binary(rng)
        folds = make_folds(data, "random_k_fold", k=2, seed=0)
        spec = ModelSpec("MIL", TrainConfig(M=1, maxiter=10, seed=1))
        with pytest.raises(ValueError):
            grid_search(data, folds, spec, {"lambda1": [], "coverage_t": [0]})

    def test_an_empty_gamma_g_list_skips_the_second_stage(self, monkeypatch):
        import lomo.evaluation

        evaluated = []

        def constant_cv(dataset, folds, spec, metrics, solver):
            evaluated.append(spec.train_config.gamma_g)
            return SimpleNamespace(aggregate={metrics[0]: 0.5})

        monkeypatch.setattr(lomo.evaluation, "cross_validate", constant_cv)
        result = grid_search([], None, ModelSpec("ALOMo", TrainConfig(M=1)),
                             {"lambda1": [1e-3], "gamma_g": []})
        assert evaluated == [0.0] and [r["stage"] for r in result.rows] == [1]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"lamda1": [1e-3, 1e-1]}, "unknown grid key 'lamda1'"),
            ({"coverage_t": [1.5]}, "coverage_t must be a list of integers, got [1.5]"),
            ({"coverage_t": [1.0]}, "coverage_t must be a list of integers, got [1.0]"),
            ({"lambda1": [1e-5, True]}, "lambda1 must be a list of finite numbers"),
            ({"lambda1": [float("nan")]}, "lambda1 must be a list of finite numbers"),
            ({"lambda1": [10**400]}, "lambda1 must be non-negative and finite, got 1000"),
            ({"gamma_g": 0.5}, "gamma_g must be a list of finite numbers, got 0.5"),
            ({"gamma_g": [2]}, "gamma_g must lie in [0, 1], got 2"),
            ({"lambda1": [1e-5, 1e-3], "gamma_g": [0.5, 2]}, "gamma_g must lie in [0, 1], got 2"),
            ({"lambda1": []}, "lambda1 must list at least one value, got []"),
            ({"coverage_t": []}, "coverage_t must list at least one value, got []"),
        ],
        ids=["misspelt-key", "fractional-coverage", "float-coverage", "bool", "nan", "huge-int",
             "not-a-list", "gamma-out-of-range", "gamma-after-stage-one", "empty-lambda1",
             "empty-coverage"],
    )
    def test_grid_is_checked_before_any_cross_validation(self, monkeypatch, grid, message):
        import lomo.evaluation

        evaluated = []
        monkeypatch.setattr(lomo.evaluation, "cross_validate", lambda *a, **k: evaluated.append(a))
        spec = ModelSpec("ALOMo", TrainConfig(M=1))
        with pytest.raises(ValueError) as info:
            grid_search([], None, spec, grid)
        assert message in str(info.value)
        assert evaluated == []

    def test_ties_take_smallest_values_and_cache_repeats(self, monkeypatch):
        """Every point scores the same, so the documented tie rule picks the
        smallest lambda1, coverage_t and gamma_g; rows follow the ascending
        sweeps; the stage-1 winner at gamma_g 0 is not trained twice."""
        import lomo.evaluation

        evaluated = []

        def constant_cv(dataset, folds, spec, metrics, solver):
            cfg = spec.train_config
            evaluated.append((cfg.lambda1, cfg.coverage_t, cfg.gamma_g))
            return SimpleNamespace(aggregate={metrics[0]: 0.5})

        monkeypatch.setattr(lomo.evaluation, "cross_validate", constant_cv)
        spec = ModelSpec("ALOMo", TrainConfig(M=1))
        result = grid_search(
            [], None, spec,
            {"lambda1": [1e-3, 1e-5], "coverage_t": [2, 0], "gamma_g": [1.0, 0.0, 0.5]},
            metric="auc",
        )
        assert result.best == {"lambda1": 1e-5, "coverage_t": 0, "gamma_g": 0.0, "score": 0.5}
        stage1 = [(1, lam, cov, 0.0) for lam in (1e-5, 1e-3) for cov in (0, 2)]
        stage2 = [(2, 1e-5, 0, gam) for gam in (0.0, 0.5, 1.0)]
        assert [
            (r["stage"], r["lambda1"], r["coverage_t"], r["gamma_g"]) for r in result.rows
        ] == stage1 + stage2
        assert all(r["score"] == 0.5 for r in result.rows)
        assert evaluated == [point[1:] for point in stage1] + [(1e-5, 0, 0.5), (1e-5, 0, 1.0)]

    def test_points_with_one_resolved_config_are_evaluated_once(self, monkeypatch):
        """LOMo pins gamma_g to 0, so the whole gamma sweep resolves to the
        stage-1 winner's configuration: one cross-validation per stage-1
        point, and a row per point as before."""
        import lomo.evaluation

        evaluated = []

        def constant_cv(dataset, folds, spec, metrics, solver):
            evaluated.append(spec.resolved())
            return SimpleNamespace(aggregate={metrics[0]: 0.5})

        monkeypatch.setattr(lomo.evaluation, "cross_validate", constant_cv)
        spec = ModelSpec("LOMo", TrainConfig(M=2))
        result = grid_search(
            [], None, spec,
            {"lambda1": [1e-5, 1e-3], "coverage_t": [1], "gamma_g": [0, 0.5, 1]},
        )
        assert len(evaluated) == 2 == len(set(evaluated))
        assert [(r["stage"], r["gamma_g"]) for r in result.rows] == (
            [(1, 0.0), (1, 0.0), (2, 0), (2, 0.5), (2, 1)])
        assert all(r["score"] == 0.5 for r in result.rows)
        assert result.best["gamma_g"] == 0

