from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lomo import DataError, InfeasibleError, Model, SequenceSample, perm_rank, pool, score_fixed


def make_sample(frames, label=1, sid="s"):
    return SequenceSample(sid, label, np.asarray(frames, dtype=float))


class TestPermRank:
    def test_sorted_tuple_is_rank_one(self):
        assert perm_rank((3, 7, 11, 20)) == 1

    def test_last_two_swapped_is_rank_two(self):
        # pattern (1, 2, 4, 3)
        assert perm_rank((3, 7, 20, 11)) == 2

    def test_middle_swapped_is_rank_three(self):
        # pattern (1, 3, 2, 4)
        assert perm_rank((3, 11, 7, 20)) == 3

    def test_single_element(self):
        assert perm_rank((7,)) == 1

    def test_descending_three(self):
        # pattern (3, 2, 1) is the last of the 3! patterns
        assert perm_rank((9, 5, 2)) == 6

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="tied latent positions"):
            perm_rank((4, 4, 1))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_bijection_onto_factorial_range(self, m):
        values = tuple(10 * (i + 1) for i in range(m))
        ranks = sorted(perm_rank(p) for p in permutations(values))
        assert ranks == list(range(1, factorial(m) + 1))

    def test_matches_lexicographic_enumeration(self):
        # rank of a pattern equals its position in sorted pattern order
        for m in (2, 3, 4):
            for i, pattern in enumerate(sorted(permutations(range(1, m + 1)))):
                assert perm_rank(pattern) == i + 1

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=6, unique=True),
        st.data(),
    )
    def test_depends_only_on_order_pattern(self, k, data):
        # apply a strictly increasing map by replacing sorted values with
        # sorted random floats
        floats = data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=len(k),
                max_size=len(k),
                unique=True,
            )
        )
        lookup = dict(zip(sorted(k), sorted(floats)))
        mapped = [lookup[v] for v in k]
        assert perm_rank(k) == perm_rank(mapped)


class TestPool:
    def test_mean(self):
        assert np.allclose(pool(make_sample([[1, 3], [3, 1]]), "mean"), [2, 2])

    def test_max(self):
        assert np.allclose(pool(make_sample([[1, 3], [3, 1]]), "max"), [3, 3])

    def test_single_frame_identity(self):
        frame = [[0.5, -1.5, 2.0]]
        assert np.array_equal(pool(make_sample(frame), "mean"), frame[0])
        assert np.array_equal(pool(make_sample(frame), "max"), frame[0])

    @pytest.mark.parametrize("mode", ["mean", "max"])
    def test_permutation_invariance_is_exact(self, mode, rng):
        frames = rng.standard_normal((40, 7))
        base = pool(make_sample(frames), mode)
        for _ in range(20):
            shuffled = frames[rng.permutation(40)]
            assert np.array_equal(pool(make_sample(shuffled), mode), base)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            pool(make_sample([[1.0]]), "median")

    @pytest.mark.parametrize("mode", ["mean", "max"])
    def test_repeat_calls_return_the_same_read_only_array(self, mode, rng):
        frames = rng.standard_normal((30, 5))
        sample = make_sample(frames)
        first = pool(sample, mode)
        assert pool(sample, mode) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        fresh = pool(make_sample(frames), mode)
        assert fresh is not first
        assert first.tobytes() == fresh.tobytes()

    def test_modes_are_cached_separately(self, rng):
        sample = make_sample(rng.standard_normal((6, 3)))
        mean, peak = pool(sample, "mean"), pool(sample, "max")
        assert mean is not peak
        assert pool(sample, "mean") is mean and pool(sample, "max") is peak
        assert np.array_equal(peak, sample.frames.max(axis=0))


class TestRelabel:
    def test_shares_frames_and_pooled_vectors(self, rng):
        sample = SequenceSample("s", 1, rng.standard_normal((8, 3)), group="g")
        mean = pool(sample, "mean")
        twin = sample.relabel(np.int64(-1), None)
        assert (twin.id, twin.label, twin.group) == ("s", -1, None)
        assert type(twin.label) is int
        assert (sample.label, sample.group) == (1, "g")
        assert np.shares_memory(twin.frames, sample.frames)
        assert not twin.frames.flags.writeable
        assert pool(twin, "mean") is mean
        peak = pool(twin, "max")
        assert pool(sample, "max") is peak
        assert twin._magnitude == sample._magnitude


class TestScoreFixed:
    def test_single_template_dot_product(self):
        model = Model(templates=[[1.0, 0.0]], ordering_costs=[0.0])
        sample = make_sample([[9, 9], [8, 8], [0.5, 2.0]])
        a = score_fixed(model, sample, (2,))
        assert a.total == 0.5
        assert a.perm_rank == 1

    def test_only_ordering_cost_survives_zero_templates(self, rng):
        m = 3
        model = Model(
            templates=np.zeros((m, 4)),
            ordering_costs=np.arange(1, factorial(m) + 1, dtype=float),
        )
        sample = make_sample(rng.standard_normal((10, 4)))
        for k in [(0, 4, 8), (8, 4, 0), (4, 0, 8)]:
            a = score_fixed(model, sample, k)
            assert a.total == perm_rank(k)

    def test_two_template_hand_example(self):
        model = Model(templates=[[1.0, 0.0], [0.0, 1.0]], ordering_costs=[0.5, -0.5])
        sample = make_sample([[2.0, 0.0], [0.0, 3.0]])
        a = score_fixed(model, sample, (0, 1))
        assert a.template_score == 2.5
        assert a.perm_rank == 1
        assert a.total == 3.0

    def test_dimension_mismatch(self):
        model = Model(templates=[[1.0, 0.0]], ordering_costs=[0.0])
        with pytest.raises(DataError):
            score_fixed(model, make_sample([[1.0, 2.0, 3.0]]), (0,))

    def test_dimension_mismatch_reads_the_same_everywhere(self):
        from lomo import TrainConfig, infer_dp, infer_greedy, sgd_step

        model = Model(templates=[[1.0, 0.0]], ordering_costs=[0.0])
        glob = Model(templates=[[1.0, 0.0]], ordering_costs=[0.0],
                     global_template=[0.0, 1.0], gamma_g=1.0)
        sample = make_sample([[1.0, 2.0, 3.0]])
        message = "model dimension 2 does not match sample dimension 3"
        for call in (
            lambda: score_fixed(model, sample, (0,)),
            lambda: infer_greedy(model, sample),
            lambda: infer_dp(model, sample),
            lambda: sgd_step(glob, sample, TrainConfig(gamma_g=1.0)),
        ):
            with pytest.raises(DataError) as raised:
                call()
            assert str(raised.value) == message

    def test_separation_violation(self):
        model = Model(templates=np.eye(2), ordering_costs=[0.0, 0.0])
        sample = make_sample(np.ones((10, 2)))
        with pytest.raises(InfeasibleError):
            score_fixed(model, sample, (3, 4), t_eff=2)
        # duplicates violate separation even at t_eff = 0
        with pytest.raises(InfeasibleError):
            score_fixed(model, sample, (3, 3))

    def test_out_of_range_index(self):
        model = Model(templates=[[1.0]], ordering_costs=[0.0])
        with pytest.raises(ValueError):
            score_fixed(model, make_sample([[1.0], [2.0]]), (2,))

    def test_linear_in_model_parameters(self, rng):
        from math import factorial as fac

        for _ in range(10):
            m, d = 3, 5
            templates = rng.standard_normal((m, d))
            costs = rng.standard_normal(fac(m))
            sample = make_sample(rng.standard_normal((12, d)))
            k = (0, 4, 9)
            base = score_fixed(Model(templates=templates, ordering_costs=costs), sample, k)
            for alpha in (0.5, 2.0, 4.0):  # powers of two scale exactly
                scaled = score_fixed(
                    Model(templates=alpha * templates, ordering_costs=alpha * costs),
                    sample,
                    k,
                )
                assert scaled.total == alpha * base.total

    def test_global_blend_and_frame_permutation_invariance(self, rng):
        d = 6
        frames = rng.standard_normal((15, d))
        model = Model(
            templates=rng.standard_normal((2, d)),
            ordering_costs=rng.standard_normal(2),
            global_template=rng.standard_normal(d),
            gamma_g=1.0,
            pooling="mean",
        )
        base = score_fixed(model, make_sample(frames), (0, 5))
        assert base.total == base.global_score  # local part weighted by zero
        for _ in range(10):
            shuffled = frames[rng.permutation(15)]
            a = score_fixed(model, make_sample(shuffled), (0, 5))
            assert a.total == base.total

    def test_total_blends_breakdown(self, rng):
        model, sample = _random_adaptive(rng)
        k = (0, sample.n_frames - 1)
        a = score_fixed(model, sample, k)
        expected = model.gamma_g * a.global_score + (1 - model.gamma_g) * (
            a.template_score + a.ordering_cost
        )
        assert a.total == expected


def _random_adaptive(rng):
    d = 4
    model = Model(
        templates=rng.standard_normal((2, d)),
        ordering_costs=rng.standard_normal(2),
        global_template=rng.standard_normal(d),
        gamma_g=0.3,
    )
    sample = make_sample(rng.standard_normal((9, d)))
    return model, sample


class TestTypeInvariants:
    def test_sample_rejects_empty_and_nonfinite(self):
        with pytest.raises(DataError):
            SequenceSample("x", 1, np.zeros((0, 3)))
        with pytest.raises(DataError):
            SequenceSample("x", 1, np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_any_non_finite_entry_is_rejected_with_the_same_message(self, bad):
        frames = np.arange(6.0).reshape(3, 2)
        frames[1, 0] = bad
        with pytest.raises(DataError, match="sample 'x': frames contain non-finite values"):
            SequenceSample("x", 1, frames)
        for templates, costs in ((frames, np.zeros(6)), (np.ones((3, 2)), [0, 1, 2, bad, 4, 5])):
            with pytest.raises(ValueError, match="model parameters contain non-finite values"):
                Model(templates=templates, ordering_costs=costs)
        with pytest.raises(ValueError, match="global template contains non-finite values"):
            Model(templates=np.ones((1, 2)), ordering_costs=[0.0], global_template=[1.0, bad])

    def test_magnitude_is_the_largest_absolute_entry(self, rng):
        for shape in ((1, 1), (7, 3), (40, 16)):
            frames = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300)
            assert make_sample(frames)._magnitude == np.abs(frames).max()
            model = Model(templates=-frames[:1], ordering_costs=[0.0])
            assert model._magnitude == np.abs(frames[0]).max()

    def test_sample_frames_are_immutable(self):
        s = make_sample([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.frames[0, 0] = 5.0

    def test_model_cost_table_length(self):
        with pytest.raises(ValueError):
            Model(templates=np.zeros((3, 2)), ordering_costs=np.zeros(5))

    def test_model_m_cap(self):
        with pytest.raises(ValueError):
            Model(templates=np.zeros((9, 2)), ordering_costs=np.zeros(factorial(9)))

    def test_gamma_requires_global_template(self):
        with pytest.raises(ValueError):
            Model(templates=np.zeros((1, 2)), ordering_costs=[0.0], gamma_g=0.5)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            Model(
                templates=np.zeros((1, 2)),
                ordering_costs=[0.0],
                global_template=np.zeros(2),
                gamma_g=1.5,
            )
