import re
import warnings
from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lomo import (
    DataError,
    LomoError,
    Model,
    SequenceSample,
    TrainConfig,
    fixed_assignment_gradient,
    fixed_assignment_loss,
    infer_brute,
    infer_dp,
    infer_greedy,
    init_model,
    objective,
    pool,
    save_model,
    score_fixed,
    sgd_step,
    solve_set,
    train,
)
from lomo.training import _LastPlacements


def make_sample(frames, label=1, sid="s"):
    return SequenceSample(sid, label, np.asarray(frames, dtype=float))


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["eta", "lambda1", "lambda2", "init_scale"])
    def test_an_int_too_large_for_a_float_is_a_range_error(self, name):
        with pytest.raises(ValueError, match=f"{name} must be .*and finite, got 1000"):
            TrainConfig(**{name: 10**400})

    @pytest.mark.parametrize(
        "fields, message",
        [(dict(maxiter=-1), "maxiter must be non-negative, got -1"),
         (dict(pooling="sum"), "pooling must be one of ('mean', 'max'), got 'sum'")],
        ids=["negative-maxiter", "unknown-pooling"],
    )
    def test_out_of_range_field_is_rejected(self, fields, message):
        with pytest.raises(ValueError) as raised:
            TrainConfig(**fields)
        assert str(raised.value) == message


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

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dimension must be >= 1, got {dim}$"):
            init_model(TrainConfig(), dim)


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

    @pytest.mark.parametrize(
        "model_gamma, config_gamma",
        [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0)],
        ids=["gamma-0", "gamma-0.5", "config-differs"],
    )
    def test_violating_step_follows_the_fixed_assignment_gradient(
        self, rng, model_gamma, config_gamma
    ):
        cfg = TrainConfig(M=2, eta=0.1, lambda1=0.01, lambda2=0.02, gamma_g=config_gamma,
                          coverage_t=1)
        d = 3
        model = Model(
            templates=0.01 * rng.standard_normal((2, d)),
            ordering_costs=0.01 * rng.standard_normal(2),
            global_template=0.01 * rng.standard_normal(d) if model_gamma else None,
            gamma_g=model_gamma,
            coverage=1,
        )
        for label in (1, -1):
            sample = make_sample(rng.standard_normal((6, d)), label=label)
            stepped = sgd_step(model, sample, cfg)
            assert stepped is not model  # |score| is far below the margin
            k = infer_greedy(model, sample).k
            gt, gc, gg = fixed_assignment_gradient(model, sample, k, cfg)
            assert np.allclose(stepped.templates, model.templates - cfg.eta * gt)
            assert np.allclose(stepped.ordering_costs, model.ordering_costs - cfg.eta * gc)
            if gg is None:
                assert stepped.global_template is None
            else:
                assert np.allclose(stepped.global_template, model.global_template - cfg.eta * gg)

    def test_rejects_multiclass_labels(self):
        cfg = TrainConfig(M=1)
        model = init_model(cfg, 2)
        with pytest.raises(DataError):
            sgd_step(model, make_sample([[1.0, 2.0]], label=3), cfg)

    @pytest.mark.parametrize("gamma_g, ordinal", [(0.0, True), (0.5, True), (0.5, False)])
    def test_stepped_model_is_read_only_and_saves_like_a_built_one(
        self, rng, tmp_path, gamma_g, ordinal
    ):
        cfg = TrainConfig(M=3, coverage_t=1, gamma_g=gamma_g, ordinal_enabled=ordinal,
                          lambda1=0.01, lambda2=0.02)
        model = init_model(cfg, 4, rng)
        stepped = sgd_step(model, make_sample(rng.standard_normal((9, 4)), label=1), cfg)
        assert stepped is not model
        arrays = [stepped.templates, stepped.ordering_costs]
        if gamma_g:
            arrays.append(stepped.global_template)
        assert all(a.dtype == np.float64 and not a.flags.writeable for a in arrays)
        built = Model(
            templates=stepped.templates, ordering_costs=stepped.ordering_costs,
            global_template=stepped.global_template, gamma_g=stepped.gamma_g,
            pooling=stepped.pooling, coverage=stepped.coverage,
        )
        save_model(tmp_path / "stepped.bin", stepped)
        save_model(tmp_path / "built.bin", built)
        assert (tmp_path / "stepped.bin").read_bytes() == (tmp_path / "built.bin").read_bytes()

    @pytest.mark.parametrize("gamma_g", [0.0, 0.5])
    def test_stepped_model_solves_as_a_built_one_after_its_costs_change(self, rng, gamma_g):
        # The first model's exact solve computes its weighted cost table. The
        # step raises rank 1's cost far above every response, so the stepped
        # model picks rank 1 everywhere, and the first model's table carried
        # over, all zeros, would pick by the responses instead.
        cfg = TrainConfig(M=3, coverage_t=1, gamma_g=gamma_g, eta=5.0, lambda1=0.0)
        model = Model(templates=np.zeros((3, 4)), ordering_costs=np.zeros(6),
                      global_template=np.zeros(4) if gamma_g else None, gamma_g=gamma_g,
                      coverage=1)
        positive = make_sample(0.01 * rng.standard_normal((9, 4)))
        samples = [make_sample(rng.standard_normal((9, 4)), sid=f"s{i}") for i in range(8)]
        assert infer_dp(model, positive).perm_rank == 1  # every ordering ties at 0
        stepped = sgd_step(model, positive, cfg, "dp")
        built = Model(
            templates=stepped.templates, ordering_costs=stepped.ordering_costs,
            global_template=stepped.global_template, gamma_g=stepped.gamma_g,
            pooling=stepped.pooling, coverage=stepped.coverage,
        )
        for solve in (infer_dp, infer_brute):
            got = [solve(stepped, s) for s in samples]
            assert [repr(a) for a in got] == [repr(solve(built, s)) for s in samples]
            assert {a.perm_rank for a in got} == {1}, solve.__name__
        assert repr(solve_set(stepped, samples, "dp")) == repr(solve_set(built, samples, "dp"))

    def test_non_finite_step_raises(self):
        cfg = TrainConfig(M=1, eta=10.0, coverage_t=0)
        local = Model(templates=[[0.0]], ordering_costs=[0.0])
        pooled = Model(templates=[[0.0]], ordering_costs=[0.0], global_template=[0.0], gamma_g=1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="model parameters contain non-finite values"):
                sgd_step(local, make_sample([[1e308]]), cfg)
            with pytest.raises(ValueError, match="global template contains non-finite values"):
                sgd_step(pooled, make_sample([[1e308]]), cfg)


class TestDivergence:
    """A step whose update leaves a non-finite parameter ends training."""

    def _data(self):
        return [make_sample([[1e307], [-1e307]], 1, "a"), make_sample([[-1e307], [1e307]], -1, "b")]

    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_train_raises_a_lomo_error_naming_the_sample(self, solver):
        cfg = TrainConfig(M=1, eta=100.0, coverage_t=0, maxiter=20)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LomoError) as caught:
                train(self._data(), cfg, solver=solver, trace_every=0)
        assert not isinstance(caught.value, ValueError)
        assert re.fullmatch(
            r"training diverged at step \d+ on sample '[ab]': "
            r"model parameters contain non-finite values", str(caught.value))
        assert isinstance(caught.value.__cause__, ValueError)


class TestOverflowIsTyped:
    """Finite input whose objective or update passes the float range gives a
    typed error, and numpy never warns about it."""

    def test_squared_parameters_overflow_the_traced_objective(self):
        # one violation takes the template to -4e154, whose square overflows
        # while every response (1.6e308) stays finite
        data = [make_sample([[-4e153]], 1, "p"), make_sample([[4e153]], -1, "n")]
        cfg = TrainConfig(M=1, coverage_t=0, maxiter=5, eta=10)
        with pytest.raises(LomoError) as caught:
            train(data, cfg, "greedy", trace_every=1)
        assert type(caught.value) is LomoError
        assert str(caught.value) == "the objective at step 1 overflows to a non-finite value"

    def test_hinge_sum_overflows(self):
        model = Model(templates=[[1.0]], ordering_costs=[0], coverage=0)
        data = [make_sample([[1.5e308]], -1, f"n{i}") for i in range(3)]
        with pytest.raises(LomoError) as caught:
            objective(model, data, TrainConfig(M=1, coverage_t=0))
        assert type(caught.value) is LomoError
        assert str(caught.value) == "the objective overflows to a non-finite value"

    def test_overflowing_step_raises_without_a_warning(self):
        cfg = TrainConfig(M=1, eta=100.0, coverage_t=0)
        local = Model(templates=[[0.0]], ordering_costs=[0.0])
        with pytest.raises(ValueError, match="model parameters contain non-finite values"):
            sgd_step(local, make_sample([[1e307], [-1e307]], -1, "b"), cfg)

    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_overflowing_update_ends_training(self, solver):
        data = TestDivergence()._data()
        cfg = TrainConfig(M=1, eta=100.0, coverage_t=0, maxiter=20)
        with pytest.raises(LomoError, match=r"^training diverged at step \d+ on sample '[ab]': "
                                            r"model parameters contain non-finite values$"):
            train(data, cfg, solver=solver, trace_every=0)

    @pytest.mark.parametrize(
        "template, config",
        [(4e154, TrainConfig(M=1)), (1e300, TrainConfig(M=1, lambda1=1e10))],
        ids=["squared-template", "large-lambda1"],
    )
    def test_fixed_assignment_loss_overflows(self, template, config):
        model = Model(templates=[[template]], ordering_costs=[0.0])
        with pytest.raises(LomoError) as caught:
            fixed_assignment_loss(model, make_sample([[1.0], [1.0]]), (0,), config)
        assert type(caught.value) is LomoError
        assert str(caught.value) == "the fixed-assignment loss overflows to a non-finite value"

    def test_fixed_assignment_gradient_overflows(self):
        model = Model(templates=[[1e300]], ordering_costs=[0.0])
        config = TrainConfig(M=1, lambda1=1e10)
        with pytest.raises(LomoError) as caught:
            fixed_assignment_gradient(model, make_sample([[1.0], [1.0]]), (0,), config)
        assert type(caught.value) is LomoError
        assert str(caught.value) == "the fixed-assignment gradient overflows to non-finite values"

    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_a_score_past_the_float_range_is_a_data_error(self, solver):
        # each response is 1.5e308, and the template score their sum over 2:
        # a +inf score is refused, not counted as a met margin
        model = Model(templates=[[1.0], [1.0]], ordering_costs=[0, 0])
        sample = make_sample([[1.5e308], [1.5e308]], 1, "big")
        cfg = TrainConfig(M=2, coverage_t=0)
        # the default initial templates are below 1e-4, too small to overflow;
        # seed 1 draws 0.51 and 0.95 on [0, 1], whose responses sum past DBL_MAX
        calls = [lambda: objective(model, [sample], cfg, solver),
                 lambda: sgd_step(model, sample, cfg, solver),
                 lambda: train([sample], replace(cfg, init_scale=1.0, seed=1), solver, trace_every=0),
                 lambda: fixed_assignment_loss(model, sample, (0, 1), cfg)]
        for call in calls:
            with pytest.raises(DataError) as caught:
                call()
            assert str(caught.value) == "sample 'big': the score overflows to non-finite values"

    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_an_overflowing_local_part_has_no_weight_at_gamma_1(self, solver):
        # the local part sums to -inf and 0 * -inf is NaN, which the hinge
        # once counted as 0; the score is the global term, -1e8
        model = Model(templates=[[1.0], [1.0]], ordering_costs=[0, 0], global_template=[1e-300],
                      gamma_g=1.0, pooling="max")
        sample = make_sample(np.full((3, 1), -1e308), 1, "r2")
        cfg = TrainConfig(M=2, gamma_g=1.0, coverage_t=0, pooling="max", lambda1=0.0)
        assert objective(model, [sample], cfg, solver) == 1.0 + 1e8
        assert fixed_assignment_loss(model, sample, (0, 1), cfg) == 1.0 + 1e8
        assert sgd_step(model, sample, cfg, solver) is not model  # a violation

    def test_fixed_assignment_loss_of_an_overflowing_response_is_a_data_error(self):
        # 1e200 * 1e150 passes the float range in score_fixed's placed response
        model = Model(templates=[[1e200]], ordering_costs=[0.0])
        sample = make_sample([[1e150]], -1, "big")
        for call in (fixed_assignment_loss, fixed_assignment_gradient):
            with pytest.raises(DataError) as caught:
                call(model, sample, (0,), TrainConfig(M=1))
            assert str(caught.value) == (
                "sample 'big': template responses overflow to non-finite values")


def _solve_then_step(model, sample, config, solver="greedy", _last=None):
    """``sgd_step`` as it was before the gamma_g == 1 shortcut: always solve,
    then apply the placement's weight-0 update and rebuild the Model. At
    gamma_g == 1 ``train`` keeps no placements, so ``_last`` is None."""
    from lomo.inference import SOLVERS

    y = sample.label
    assignment = SOLVERS[solver](model, sample)
    if y * assignment.total >= 1.0:
        return model
    eta, gamma = config.eta, model.gamma_g
    shrink = 1.0 - config.lambda1 * eta
    templates = model.templates * shrink
    templates += (eta * (1.0 - gamma) * y / model.n_events) * sample.frames[list(assignment.k)]
    if config.ordinal_enabled:
        costs = model.ordering_costs * (1.0 - config.lambda2 * eta)
        costs[assignment.perm_rank - 1] += eta * (1.0 - gamma) * y
    else:
        costs = model.ordering_costs
    global_template = model.global_template * shrink + (eta * gamma * y) * pool(sample, model.pooling)
    return Model(
        templates=templates, ordering_costs=costs, global_template=global_template,
        gamma_g=model.gamma_g, pooling=model.pooling, coverage=model.coverage,
    )


class TestPooledOnlyStep:
    """At gamma_g == 1 (MnP, MxP, GTP) the placement has weight 0."""

    def _data(self, rng):
        return [
            make_sample(rng.standard_normal((int(rng.integers(3, 9)), 4)) + (0.3 if i % 2 else -0.3),
                        1 if i % 2 else -1, f"s{i}")
            for i in range(12)
        ]

    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_no_solver_call(self, rng, monkeypatch, solver):
        import lomo.inference

        calls = []
        for name, fn in list(lomo.inference.SOLVERS.items()):
            monkeypatch.setitem(
                lomo.inference.SOLVERS, name, lambda *a, _fn=fn: calls.append(1) or _fn(*a)
            )
        report = train(self._data(rng), TrainConfig(M=2, gamma_g=1.0, maxiter=200, coverage_t=1),
                       solver=solver, trace_every=0)
        assert report.violations > 0
        assert calls == []

    @pytest.mark.parametrize("pooling", ["mean", "max"])
    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_trains_the_model_of_the_solving_step(self, rng, monkeypatch, tmp_path, pooling, solver):
        import lomo.training

        data = self._data(rng)
        cfg = TrainConfig(M=3, gamma_g=1.0, maxiter=400, coverage_t=1, pooling=pooling,
                          lambda1=0.01, lambda2=0.05, init_scale=0.1, seed=4)
        fast = train(data, cfg, solver=solver, trace_every=50)
        monkeypatch.setattr(lomo.training, "sgd_step", _solve_then_step)
        slow = train(data, cfg, solver=solver, trace_every=50)
        assert fast.violations == slow.violations > 0
        assert fast.trace == slow.trace
        save_model(tmp_path / "fast.bin", fast.model)
        save_model(tmp_path / "slow.bin", slow.model)
        assert (tmp_path / "fast.bin").read_bytes() == (tmp_path / "slow.bin").read_bytes()

    @pytest.mark.parametrize(
        "global_template, rows, pooling",
        [([5e158, -5e158], [[1e160, -1e160]] * 3, "mean"),
         ([5e158, -5e158], [[1e160, -1e160]] * 3, "max"),
         ([1e-4, 1e-4], [[1e308, 1e308]] * 4, "mean")],
        ids=["product-mean", "product-max", "mean-sum"],
    )
    def test_an_overflowing_global_term_is_a_data_error(self, global_template, rows, pooling):
        model = Model(templates=[[0.0, 0.0]], ordering_costs=[0.0],
                      global_template=global_template, gamma_g=1.0, pooling=pooling)
        cfg = TrainConfig(M=1, gamma_g=1.0, coverage_t=0, pooling=pooling)
        with pytest.raises(DataError) as raised:
            sgd_step(model, make_sample(rows, 1, "big"), cfg)
        assert str(raised.value) == "sample 'big': the global term overflows to non-finite values"

    def test_train_reports_the_overflow_as_a_data_error(self):
        # the mean of four frames of +-1e308 overflows, so the first step's
        # score does whatever the initial template: bad data, not divergence
        data = [make_sample([[1e308, 1e308]] * 4, 1, "pos"),
                make_sample([[-1e308, -1e308]] * 4, -1, "neg")]
        with pytest.raises(DataError, match="the global term overflows") as raised:
            train(data, TrainConfig(M=1, gamma_g=1.0, coverage_t=0, maxiter=20), trace_every=0)
        assert type(raised.value) is DataError


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

    def test_objective_of_an_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="objective requires a non-empty dataset"):
            objective(init_model(TrainConfig(), 2), [], TrainConfig())

    def test_mixed_dimensions_rejected(self, rng):
        data = [make_sample(rng.standard_normal((4, 3)), 1, "a"),
                make_sample(rng.standard_normal((4, 2)), -1, "b")]
        with pytest.raises(DataError):
            train(data, TrainConfig())

    def test_sequence_shorter_than_events_rejected_before_the_first_step(self, rng, monkeypatch):
        import lomo.training

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the dataset check")

        monkeypatch.setattr(lomo.training, "sgd_step", no_step)
        data = [make_sample(rng.standard_normal((n, 3)), 1 if i % 2 else -1, f"s{i}")
                for i, n in enumerate([8, 8, 8, 2, 8, 8])]
        with pytest.raises(DataError, match="sample 's3' has 2 frames, fewer than M=3"):
            train(data, TrainConfig(M=3, maxiter=50), solver="dp")

    def test_multiclass_labels_rejected(self, rng):
        data = [make_sample(rng.standard_normal((4, 3)), 0, "a"),
                make_sample(rng.standard_normal((4, 3)), 1, "b")]
        with pytest.raises(DataError):
            train(data, TrainConfig())


def _always_solve(model, sample, config, solver="greedy", _last=None):
    """``sgd_step`` without the stored placements: every step solves."""
    return sgd_step(model, sample, config, solver)


def _ordered_events(rng, n_samples, m, d, n_range, signal):
    """Positives carry M random prototypes in index order at distinct random
    frames, negatives in reverse order; both under unit Gaussian noise."""
    protos = signal * rng.standard_normal((m, d))
    data = []
    for i in range(n_samples):
        label = 1 if i % 2 else -1
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        frames = rng.standard_normal((n, d))
        pos = np.sort(rng.choice(n, size=m, replace=False))
        frames[pos] += protos if label == 1 else protos[::-1]
        data.append(make_sample(frames, label, f"o{i}"))
    return data


def _counting_solvers(monkeypatch):
    """Wrap every solver to record the label of each sample it solves."""
    import lomo.inference

    calls = []
    for name, fn in list(lomo.inference.SOLVERS.items()):
        monkeypatch.setitem(
            lomo.inference.SOLVERS, name,
            lambda model, sample, _fn=fn, _name=name: calls.append((_name, sample.label))
            or _fn(model, sample),
        )
    return calls


class TestCertifiedMargin:
    """An exact-solver step on a positive skips the solve when the sample's
    last placement already scores at least 1 + delta."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        solver=st.sampled_from(["dp", "brute"]),
        gamma_g=st.sampled_from([0.0, 0.5]),
        ordinal=st.booleans(),
        lambda2=st.sampled_from([0.0, 0.05]),
        m=st.integers(1, 3),
        coverage_t=st.integers(0, 4),
        short=st.booleans(),
    )
    def test_same_model_violations_and_trace_as_always_solving(
        self, seed, solver, gamma_g, ordinal, lambda2, m, coverage_t, short
    ):
        import lomo.training

        rng = np.random.default_rng(seed)
        # lengths M..2M+1 make effective_t clamp coverage_t for most samples
        n_range = (m, 2 * m + 1) if short else (m + 4, 11)
        data = _ordered_events(rng, 10, m, 3, n_range, signal=2.0)
        cfg = TrainConfig(M=m, eta=0.5, lambda1=1e-3, lambda2=lambda2, gamma_g=gamma_g,
                          coverage_t=coverage_t, maxiter=150, seed=seed % 97,
                          ordinal_enabled=ordinal, init_scale=0.1)
        fast = train(data, cfg, solver=solver, trace_every=40)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lomo.training, "sgd_step", _always_solve)
            slow = train(data, cfg, solver=solver, trace_every=40)
        assert slow.certified == 0
        assert fast.violations == slow.violations
        assert fast.trace == slow.trace
        for name in ("templates", "ordering_costs", "global_template"):
            a, b = getattr(fast.model, name), getattr(slow.model, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def _margin_case(self, value, other=0.5):
        """M=1, d=1: the stored placement (0,) scores exactly ``value``, and
        the sample's other frame holds ``other``."""
        model = Model(templates=[[1.0]], ordering_costs=[0.0])
        sample = make_sample([[value], [other]])
        last = _LastPlacements()
        last.entries[sample] = ((0,), 1)
        return model, sample, last

    @pytest.mark.parametrize(
        "value, other, certified",
        [(1.0, 0.5, False), (np.nextafter(1.0, 2.0), 0.5, False), (1.0 + 1e-6, 0.5, True),
         (2.0, 0.5, True),
         # a frame of magnitude 1e6 makes R = 1e6 and delta = 32*7*u*(R + 1)
         # about 2.5e-8; without the R term it would be about 2.5e-14
         (1.0 + 1e-9, -1e6, False), (1.0 + 1e-7, -1e6, True)],
        ids=["one", "one-ulp-above", "1e-6-above", "two",
             "1e-9-above-by-a-1e6-frame", "1e-7-above-by-a-1e6-frame"],
    )
    def test_near_margin_placement_is_still_solved(self, monkeypatch, value, other, certified):
        model, sample, last = self._margin_case(value, other)
        assert score_fixed(model, sample, (0,)).total == value
        calls = _counting_solvers(monkeypatch)
        stepped = sgd_step(model, sample, TrainConfig(M=1), "dp", _last=last)
        assert stepped is model  # no violation either way
        assert last.certified == int(certified)
        assert calls == ([] if certified else [("dp", 1)])
        assert last.entries[sample] == ((0,), 1)

    def test_negative_steps_neither_certify_nor_store(self, monkeypatch):
        model, sample, last = self._margin_case(2.0)
        negative = make_sample([[-2.0], [-1.5]], label=-1, sid="n")
        calls = _counting_solvers(monkeypatch)
        assert sgd_step(model, negative, TrainConfig(M=1), "dp", _last=last) is model
        assert calls == [("dp", -1)]
        assert last.certified == 0 and negative not in last.entries

    def test_a_placement_whose_responses_may_overflow_is_solved(self):
        # R = 1e300 * 1e300 overflows, so the margin would be +inf and the
        # stored placement's +inf score would meet it; the solve raises instead
        model = Model(templates=[[1e300]], ordering_costs=[0.0])
        sample = make_sample([[1e300], [0.0]])
        last = _LastPlacements()
        last.entries[sample] = ((0,), 1)
        with pytest.raises(DataError, match="responses overflow"):
            infer_dp(model, sample)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="responses overflow"):
                sgd_step(model, sample, TrainConfig(M=1), "dp", _last=last)
        assert last.certified == 0

    def test_a_stored_placement_whose_score_overflows_is_solved(self, monkeypatch):
        # the stored placement's cost of -DBL_MAX plus its template score of
        # -1e299 is -inf; the solve finds the finite optimum at rank 1
        model = Model(templates=[[1.0], [1.0]], ordering_costs=[0.0, -1.7976931348623157e308])
        sample = make_sample(np.full((4, 1), -1e299))
        last = _LastPlacements()
        last.entries[sample] = ((1, 0), 2)
        calls = _counting_solvers(monkeypatch)
        assert sgd_step(model, sample, TrainConfig(M=2, coverage_t=0), "dp", _last=last) is not model
        assert calls == [("dp", 1)] and last.certified == 0
        assert last.entries[sample] == ((0, 1), 1)

    def test_skips_dp_calls_on_planted_data_only(self, monkeypatch):
        import lomo.training

        data = _ordered_events(np.random.default_rng(3), 40, 3, 6, (14, 18), signal=2.0)
        cfg = TrainConfig(M=3, coverage_t=2, maxiter=2000, seed=1, init_scale=1e-2)
        steps = []
        def counted_step(model, sample, *args, **kwargs):
            steps.append(sample.label)
            return sgd_step(model, sample, *args, **kwargs)

        monkeypatch.setattr(lomo.training, "sgd_step", counted_step)
        calls = _counting_solvers(monkeypatch)
        certified = {}
        for solver in ("dp", "greedy"):
            for trace_every in (0, 500):
                del steps[:], calls[:]
                report = train(data, cfg, solver=solver, trace_every=trace_every)
                # the objective solves each of the 20 positives and 20 negatives per point
                per_class = (cfg.maxiter // trace_every + 1) * 20 if trace_every else 0
                assert len(steps) == cfg.maxiter
                assert calls.count((solver, -1)) == steps.count(-1) + per_class
                assert calls.count((solver, 1)) == steps.count(1) - report.certified + per_class
                assert len(calls) == cfg.maxiter - report.certified + 2 * per_class
                certified[solver, trace_every] = report.certified
        assert certified["dp", 0] == certified["dp", 500] > 0
        assert certified["greedy", 0] == certified["greedy", 500] == 0
        # the stored placements belong to one call: the same samples train alike again
        assert train(data, cfg, solver="dp", trace_every=0).certified == certified["dp", 0]


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
