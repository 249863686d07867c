from dataclasses import replace
from math import factorial

import numpy as np
import pytest

from lomo import (
    DataError,
    Model,
    SequenceSample,
    TrainConfig,
    fixed_assignment_gradient,
    fixed_assignment_loss,
    infer_greedy,
    init_model,
    objective,
    pool,
    save_model,
    score_fixed,
    sgd_step,
    train,
)


def make_sample(frames, label=1, sid="s"):
    return SequenceSample(sid, label, np.asarray(frames, dtype=float))


class TestInitModel:
    def test_coordinates_within_init_range(self):
        cfg = TrainConfig(M=2, seed=9)
        model = init_model(cfg, 3)
        assert model.templates.shape == (2, 3)
        assert ((model.templates >= 0) & (model.templates <= 1e-4)).all()
        assert np.array_equal(model.ordering_costs, np.zeros(2))
        assert model.global_template is None

    def test_zero_init_scale_gives_zero_model(self):
        model = init_model(TrainConfig(M=3, init_scale=0.0), 4)
        assert not model.templates.any()

    def test_same_seed_bit_identical(self):
        cfg = TrainConfig(M=2, seed=77, gamma_g=0.5)
        a = init_model(cfg, 6)
        b = init_model(cfg, 6)
        assert np.array_equal(a.templates, b.templates)
        assert np.array_equal(a.global_template, b.global_template)

    def test_global_template_only_with_positive_gamma(self):
        assert init_model(TrainConfig(M=1, gamma_g=0.0), 2).global_template is None
        assert init_model(TrainConfig(M=1, gamma_g=0.3), 2).global_template is not None


class TestSgdStep:
    def test_zero_model_absorbs_positive_sample(self, rng):
        cfg = TrainConfig(M=2, eta=0.05, coverage_t=1, init_scale=0.0)
        model = init_model(cfg, 3)
        frames = rng.standard_normal((6, 3))
        sample = make_sample(frames, label=1)
        stepped = sgd_step(model, sample, cfg)
        picked = infer_greedy(model, sample).k
        expected = cfg.eta * frames[list(picked)] / cfg.M
        assert np.array_equal(stepped.templates, expected)

    def test_no_update_when_margin_satisfied(self):
        cfg = TrainConfig(M=1, coverage_t=0)
        model = Model(templates=[[1.0]], ordering_costs=[0.0])
        sample = make_sample([[1.5]], label=1)  # y * s = 1.5
        assert sgd_step(model, sample, cfg) is model

    def test_cost_table_shrink_and_bump(self):
        cfg = TrainConfig(M=2, eta=0.05, lambda1=0.0, lambda2=0.1, coverage_t=1)
        model = Model(
            templates=[[-1.0], [-1.0]], ordering_costs=[1.0, 1.0], coverage=1
        )
        sample = make_sample([[0.5]] * 6, label=1)  # responses -0.5, total 0.5 < 1
        stepped = sgd_step(model, sample, cfg)
        assert stepped.ordering_costs[0] == pytest.approx(1.045, abs=1e-12)
        assert stepped.ordering_costs[1] == pytest.approx(0.995, abs=1e-12)

    def test_ordinal_disabled_keeps_costs_zero(self, rng):
        cfg = TrainConfig(M=2, coverage_t=1, ordinal_enabled=False, init_scale=0.0)
        model = init_model(cfg, 3)
        for i in range(20):
            sample = make_sample(rng.standard_normal((8, 3)), label=1 if i % 2 else -1)
            model = sgd_step(model, sample, cfg)
        assert not model.ordering_costs.any()

    def test_global_update_direction(self, rng):
        cfg = TrainConfig(M=1, gamma_g=1.0, eta=0.1, lambda1=0.0, init_scale=0.0)
        model = init_model(cfg, 4)
        frames = rng.standard_normal((5, 4))
        sample = make_sample(frames, label=1)
        stepped = sgd_step(model, sample, cfg)
        assert np.array_equal(
            stepped.global_template, 0.1 * pool(sample, "mean")
        )
        # local templates receive weight (1 - gamma) = 0
        assert not stepped.templates.any()

    def test_rejects_multiclass_labels(self):
        cfg = TrainConfig(M=1)
        model = init_model(cfg, 2)
        with pytest.raises(DataError):
            sgd_step(model, make_sample([[1.0, 2.0]], label=3), cfg)


class TestTrain:
    def _toy_data(self, rng, n=12, d=4):
        data = []
        for i in range(n):
            frames = rng.standard_normal((7, d))
            label = 1 if i % 2 == 0 else -1
            if label == 1:
                frames[3] += 2.0
            data.append(make_sample(frames, label, f"t{i}"))
        return data

    def test_maxiter_zero_returns_initial_model(self, rng):
        data = self._toy_data(rng)
        cfg = TrainConfig(M=2, maxiter=0, seed=4, coverage_t=1)
        report = train(data, cfg)
        fresh = init_model(cfg, 4, np.random.default_rng(4))
        assert np.array_equal(report.model.templates, fresh.templates)
        assert report.violations == 0

    def test_same_seed_identical_models(self, rng):
        data = self._toy_data(rng)
        cfg = TrainConfig(M=2, maxiter=300, seed=11, coverage_t=1)
        a = train(data, cfg)
        b = train(data, cfg)
        assert np.array_equal(a.model.templates, b.model.templates)
        assert np.array_equal(a.model.ordering_costs, b.model.ordering_costs)
        assert a.violations == b.violations
        assert a.trace == b.trace

    def test_trace_values_nonnegative(self, rng):
        data = self._toy_data(rng)
        report = train(data, TrainConfig(M=1, maxiter=200, seed=2, coverage_t=1))
        assert all(v >= 0.0 for _, v in report.trace)
        assert report.trace[0][0] == 0

    def test_explicit_trace_interval(self, rng):
        data = self._toy_data(rng)
        report = train(data, TrainConfig(M=1, maxiter=25, seed=2, coverage_t=1), trace_every=10)
        assert [it for it, _ in report.trace] == [0, 10, 20, 25]

    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_trace_off_keeps_the_model_and_violations(self, solver, rng, tmp_path):
        data = self._toy_data(rng)
        cfg = TrainConfig(M=2, gamma_g=0.3, maxiter=300, seed=6, coverage_t=1)
        traced = train(data, cfg, solver=solver)
        silent = train(data, cfg, solver=solver, trace_every=0)
        assert len(traced.trace) == 101
        assert silent.trace == []
        assert silent.violations == traced.violations
        for name, report in (("traced", traced), ("silent", silent)):
            save_model(tmp_path / f"{name}.bin", report.model, kind="ALOMo", seed=6)
        assert (tmp_path / "silent.bin").read_bytes() == (tmp_path / "traced.bin").read_bytes()

    def test_negative_trace_interval_rejected(self, rng):
        with pytest.raises(ValueError, match="trace_every"):
            train(self._toy_data(rng), TrainConfig(M=1, maxiter=10), trace_every=-1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train([], TrainConfig())

    def test_mixed_dimensions_rejected(self, rng):
        data = [make_sample(rng.standard_normal((4, 3)), 1, "a"),
                make_sample(rng.standard_normal((4, 2)), -1, "b")]
        with pytest.raises(DataError):
            train(data, TrainConfig())

    def test_multiclass_labels_rejected(self, rng):
        data = [make_sample(rng.standard_normal((4, 3)), 0, "a"),
                make_sample(rng.standard_normal((4, 3)), 1, "b")]
        with pytest.raises(DataError):
            train(data, TrainConfig())


class TestObjective:
    def test_zero_model_unit_hinge(self, rng):
        cfg = TrainConfig(M=1, lambda1=0.0, lambda2=0.0, init_scale=0.0)
        model = init_model(cfg, 3)
        data = [make_sample(rng.standard_normal((5, 3)), 1 if i % 2 else -1, f"o{i}")
                for i in range(8)]
        assert objective(model, data, cfg) == 1.0

    def test_correct_confident_model_zero_loss(self):
        cfg = TrainConfig(M=1, lambda1=0.0, lambda2=0.0)
        model = Model(templates=[[1.0]], ordering_costs=[0.0])
        data = [make_sample([[2.0]], 1, "p"), make_sample([[-3.0]], -1, "n")]
        assert objective(model, data, cfg) == 0.0

    def test_hinge_arithmetic(self):
        cfg = TrainConfig(M=1, lambda1=0.0, lambda2=0.0)
        model = Model(templates=[[0.4]], ordering_costs=[0.0])
        data = [make_sample([[1.0]], 1, "p")]
        assert objective(model, data, cfg) == pytest.approx(0.6, abs=1e-15)

    def test_regularization_terms(self):
        cfg = TrainConfig(M=1, lambda1=2.0, lambda2=4.0, gamma_g=0.5)
        model = Model(
            templates=[[3.0]],
            ordering_costs=[2.0],
            global_template=[1.0],
            gamma_g=0.5,
        )
        data = [make_sample([[0.0]], 1, "p")]
        # reg = 1.0 * (9 + 1) + 2.0 * 4 = 18; hinge = 1 (score 0... score:
        # local 0*(1-γ) wait: template 3*0=0, cost 2 -> local 2, global 0)
        # s = 0.5*0 + 0.5*(0 + 2) = 1 -> hinge 0
        assert objective(model, data, cfg) == pytest.approx(18.0)


class TestSpecialCases:
    def test_gamma_one_equals_linear_svm_on_pooled_vectors(self, rng):
        d = 5
        data = []
        for i in range(16):
            frames = rng.standard_normal((6, d)) + (1.0 if i % 2 == 0 else -1.0)
            data.append(make_sample(frames, 1 if i % 2 == 0 else -1, f"g{i}"))
        cfg = TrainConfig(M=2, gamma_g=1.0, maxiter=400, seed=21, coverage_t=1)
        report = train(data, cfg)

        # reference: same RNG stream, plain hinge SGD on pooled vectors
        rng_ref = np.random.default_rng(cfg.seed)
        rng_ref.uniform(0.0, cfg.init_scale, size=(cfg.M, d))  # template draw
        w = rng_ref.uniform(0.0, cfg.init_scale, size=d)
        pooled = [pool(s, "mean") for s in data]
        labels = [s.label for s in data]
        for _ in range(cfg.maxiter):
            idx = int(rng_ref.integers(len(data)))
            x, y = pooled[idx], labels[idx]
            if y * float(w @ x) < 1.0:
                w = w * (1 - cfg.lambda1 * cfg.eta) + cfg.eta * y * x
        assert np.allclose(report.model.global_template, w, rtol=0, atol=0)

    def test_mil_configuration_scores_by_max_frame(self, rng):
        cfg = TrainConfig(M=1, ordinal_enabled=False, maxiter=300, seed=5, coverage_t=0)
        data = []
        for i in range(10):
            frames = rng.standard_normal((8, 3))
            if i % 2 == 0:
                frames[i % 8] += 1.5
            data.append(make_sample(frames, 1 if i % 2 == 0 else -1, f"m{i}"))
        model = train(data, cfg).model
        assert not model.ordering_costs.any()
        for s in data:
            brute_max = max(float(model.templates[0] @ f) for f in s.frames)
            assert infer_greedy(model, s).total == brute_max


class TestFixedAssignmentGradient:
    def _numeric_gradient(self, model, sample, k, cfg, step=1e-5):
        def loss_for(templates, costs, global_t):
            probe = Model(
                templates=templates,
                ordering_costs=costs,
                global_template=global_t,
                gamma_g=model.gamma_g,
                pooling=model.pooling,
                coverage=model.coverage,
            )
            return fixed_assignment_loss(probe, sample, k, cfg)

        gt = np.zeros_like(model.templates)
        for idx in np.ndindex(*model.templates.shape):
            up = model.templates.copy(); up[idx] += step
            dn = model.templates.copy(); dn[idx] -= step
            gt[idx] = (
                loss_for(up, model.ordering_costs, model.global_template)
                - loss_for(dn, model.ordering_costs, model.global_template)
            ) / (2 * step)
        gc = np.zeros_like(model.ordering_costs)
        for j in range(len(gc)):
            up = model.ordering_costs.copy(); up[j] += step
            dn = model.ordering_costs.copy(); dn[j] -= step
            gc[j] = (
                loss_for(model.templates, up, model.global_template)
                - loss_for(model.templates, dn, model.global_template)
            ) / (2 * step)
        gg = None
        if model.global_template is not None:
            gg = np.zeros_like(model.global_template)
            for j in range(len(gg)):
                up = model.global_template.copy(); up[j] += step
                dn = model.global_template.copy(); dn[j] -= step
                gg[j] = (
                    loss_for(model.templates, model.ordering_costs, up)
                    - loss_for(model.templates, model.ordering_costs, dn)
                ) / (2 * step)
        return gt, gc, gg

    def test_matches_central_differences_away_from_kink(self, rng):
        cfg = TrainConfig(M=2, lambda1=0.01, lambda2=0.02, gamma_g=0.3)
        checked = 0
        while checked < 12:
            d = 4
            model = Model(
                templates=rng.standard_normal((2, d)),
                ordering_costs=rng.standard_normal(2),
                global_template=rng.standard_normal(d),
                gamma_g=cfg.gamma_g,
            )
            sample = make_sample(rng.standard_normal((7, d)), label=1 if checked % 2 else -1)
            k = (0, 4)
            margin = sample.label * score_fixed(model, sample, k).total
            if abs(margin - 1.0) <= 1e-3:
                continue  # too close to the hinge kink
            gt, gc, gg = fixed_assignment_gradient(model, sample, k, cfg)
            nt, nc, ng = self._numeric_gradient(model, sample, k, cfg)
            analytic = np.concatenate([gt.ravel(), gc, gg])
            numeric = np.concatenate([nt.ravel(), nc, ng])
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-4
            checked += 1
