import gc
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, astuple, replace
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lomo import (
    DataError,
    InfeasibleError,
    LatentAssignment,
    Model,
    SequenceSample,
    TrainConfig,
    effective_t,
    infer_brute,
    infer_dp,
    infer_greedy,
    objective,
    perm_rank,
    predict,
    predict_table,
    score_fixed,
    solve_set,
    train,
)
from lomo import inference
import lomo.training
from lomo.core import _product_bound
from conftest import random_instance


def response_model(response_rows, coverage=0):
    """Model over an identity-like feature space whose template responses on
    sample `response_sample` reproduce the given rows exactly."""
    rows = np.asarray(response_rows, dtype=float)
    m = rows.shape[0]
    return Model(templates=np.eye(m), ordering_costs=np.zeros(factorial(m)), coverage=coverage)


def response_sample(response_rows):
    rows = np.asarray(response_rows, dtype=float)
    return SequenceSample("resp", 1, rows.T)  # frame f carries column f


def reference_dp(model, sample):
    """The exact solver as a plain per-ordering loop: every ordering gets all
    of its suffix stages computed and its positions backtracked, and the
    first strictly better ordering in rank order wins."""
    t_eff = effective_t(sample.n_frames, model.n_events, model.coverage)
    m, n = model.n_events, sample.n_frames
    gap = t_eff + 1
    local_weight = 1.0 - model.gamma_g
    scaled = (local_weight / m) * (model.templates @ sample.frames.T)
    rows = [scaled[i].tolist() for i in range(m)]
    best_value, best_k = -np.inf, None
    for rank0, pattern in enumerate(permutations(range(1, m + 1))):
        slot_templates = sorted(range(m), key=lambda i: pattern[i])
        stages = [None] * m
        stages[m - 1] = rows[slot_templates[m - 1]]
        for j in range(m - 2, -1, -1):
            nxt, row = stages[j + 1], rows[slot_templates[j]]
            out, run = [0.0] * n, -np.inf
            for p in range(n - 1, -1, -1):
                q = p + gap
                if q < n and nxt[q] > run:
                    run = nxt[q]
                out[p] = row[p] + run
            stages[j] = out
        best = max(stages[0])
        positions = [stages[0].index(best)]
        for j in range(1, m):
            lo = positions[-1] + gap
            seg = stages[j][lo:]
            positions.append(lo + seg.index(max(seg)))
        value = best + local_weight * float(model.ordering_costs[rank0])
        if value > best_value:
            best_value = value
            best_k = [0] * m
            for j, tpl in enumerate(slot_templates):
                best_k[tpl] = positions[j]
    return score_fixed(model, sample, best_k, t_eff=t_eff)


def reference_greedy(model, sample):
    """The greedy loop without its dp fallback: None where the suppression
    windows cover the sequence before every template is placed."""
    t_eff = effective_t(sample.n_frames, model.n_events, model.coverage)
    resp = model.templates @ sample.frames.T
    alive = np.ones(sample.n_frames, dtype=bool)
    k = []
    for i in range(model.n_events):
        if not alive.any():
            return None
        ki = int(np.argmax(np.where(alive, resp[i], -np.inf)))
        k.append(ki)
        alive[max(0, ki - t_eff): ki + t_eff + 1] = False
    return score_fixed(model, sample, k, t_eff=t_eff)


def tie_prone_instance(rng, m, n, gamma_g):
    """Small integer templates, frames and costs, so equal totals across
    orderings and positions are common."""
    d = int(rng.integers(1, 4))
    return (
        Model(
            templates=rng.integers(-1, 2, (m, d)),
            ordering_costs=rng.integers(-1, 2, factorial(m)),
            global_template=rng.integers(-1, 2, d) if gamma_g else None,
            gamma_g=gamma_g,
            coverage=int(rng.integers(0, 3)),
        ),
        SequenceSample("tie", 1, rng.integers(-1, 2, (n, d))),
    )


class TestEffectiveT:
    def test_no_clamp_needed(self):
        assert effective_t(300, 3, 50) == 50

    def test_cap_at_frames_over_events(self):
        assert effective_t(12, 3, 50) == 4

    def test_second_clamp_engages(self):
        assert effective_t(3, 3, 5) == 0

    def test_single_event(self):
        assert effective_t(10, 1, 50) == 10

    def test_too_short(self):
        with pytest.raises(InfeasibleError, match="sequence shorter than number of events"):
            effective_t(2, 3, 1)

    def test_too_short_raises_on_every_call(self):
        # the results are memoized, a raised error is not
        for _ in range(3):
            with pytest.raises(InfeasibleError, match=r"N=2 < M=3"):
                effective_t(2, 3, 1)

    def test_result_always_feasible(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 60))
            t = int(rng.integers(0, 80))
            te = effective_t(n, m, t)
            assert te >= 0
            assert (m - 1) * (te + 1) + 1 <= n


class TestGreedy:
    def test_single_template_is_argmax(self):
        model = response_model([[1.0, 3.0, 2.0]])
        a = infer_greedy(model, response_sample([[1.0, 3.0, 2.0]]))
        assert a.k == (1,)
        assert a.total == 3.0

    def test_hand_simulation_with_suppression(self):
        rows = [[5.0, 1.0, 1.0, 4.0], [0.0, 9.0, 8.0, 0.0]]
        model = response_model(rows, coverage=1)
        a = infer_greedy(model, response_sample(rows))
        # first pick frame 0 (response 5), suppress frames {0, 1}; second
        # template then picks frame 2 (response 8 beats 0 at frame 3)
        assert a.k == (0, 2)
        assert a.perm_rank == 1

    def test_zero_model_smallest_index_tie_breaking(self):
        m, n, t = 3, 20, 2
        model = Model(
            templates=np.zeros((m, 4)), ordering_costs=np.zeros(factorial(m)), coverage=t
        )
        sample = SequenceSample("z", 1, np.ones((n, 4)))
        a = infer_greedy(model, sample)
        assert a.k == (0, t + 1, 2 * (t + 1))

    def test_candidate_exhaustion_falls_back_to_dp(self):
        # N=5, t_eff=1: picks at frames 1 and 3 suppress everything, so the
        # sample is solved exactly; only frames 0, 2, 4 fit, all orders tie
        rows = [
            [0.0, 9.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 9.0, 0.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
        ]
        model = response_model(rows, coverage=1)
        sample = response_sample(rows)
        assert reference_greedy(model, sample) is None
        a = infer_greedy(model, sample)
        assert (a.k, a.perm_rank, a.total) == ((0, 2, 4), 1, 1.0 / 3)
        exact = infer_dp(model, sample)
        assert (a.k, a.perm_rank, repr(a.total)) == (exact.k, exact.perm_rank, repr(exact.total))

    def test_never_raises_on_short_sequences(self):
        rng = np.random.default_rng(2024)
        fell_back = 0
        for _ in range(2000):
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 5))
            model = Model(
                templates=rng.standard_normal((3, d)),
                ordering_costs=rng.standard_normal(6),
                coverage=5,
            )
            sample = SequenceSample("short", 1, rng.standard_normal((n, d)))
            a = infer_greedy(model, sample)
            expected = reference_greedy(model, sample)
            if expected is None:
                fell_back += 1
                expected = infer_dp(model, sample)
            assert (a.k, a.perm_rank, repr(a.total)) == (
                expected.k, expected.perm_rank, repr(expected.total)
            )
        assert fell_back > 0

    def test_determinism(self, rng):
        model, sample = random_instance(rng, n_max=30, m_choices=(3,))
        first = infer_greedy(model, sample)
        for _ in range(3):
            again = infer_greedy(model, sample)
            assert again.k == first.k and again.total == first.total


class TestExactSolvers:
    def test_single_event_matches_greedy(self, rng):
        for _ in range(20):
            model, sample = random_instance(rng, m_choices=(1,), n_max=15)
            assert infer_dp(model, sample).k == infer_greedy(model, sample).k

    def test_brute_single_event(self):
        model = response_model([[1.0, 3.0, 2.0]])
        a = infer_brute(model, response_sample([[1.0, 3.0, 2.0]]))
        assert a.k == (1,)

    def test_dp_matches_brute_on_random_instances(self, rng):
        for _ in range(150):
            model, sample = random_instance(rng, with_global=True)
            dp = infer_dp(model, sample)
            brute = infer_brute(model, sample)
            assert abs(dp.total - brute.total) <= 1e-9

    def test_dp_dominates_greedy(self, rng):
        for _ in range(200):
            model, sample = random_instance(rng, n_max=40, n_min=25, m_choices=(1, 2, 3, 4))
            assert infer_dp(model, sample).total >= infer_greedy(model, sample).total

    def test_feasibility_of_returned_assignments(self, rng):
        for _ in range(100):
            model, sample = random_instance(rng, n_max=25, n_min=15, t_max=3)
            t_eff = effective_t(sample.n_frames, model.n_events, model.coverage)
            for solver in (infer_greedy, infer_dp, infer_brute):
                k = solver(model, sample).k
                for i in range(len(k)):
                    for j in range(i + 1, len(k)):
                        assert abs(k[i] - k[j]) >= t_eff + 1

    def test_brute_at_n_equals_m_enumerates_all_orders(self, rng):
        m = 3
        model, _ = random_instance(rng, m_choices=(m,), n_max=m, n_min=m, t_max=0)
        model = Model(
            templates=model.templates, ordering_costs=model.ordering_costs, coverage=0
        )
        sample = SequenceSample("nm", 1, np.random.default_rng(5).standard_normal((m, model.dim)))
        best = infer_brute(model, sample)
        explicit = max(
            score_fixed(model, sample, k).total for k in permutations(range(m))
        )
        assert best.total == explicit

    def test_brute_guard(self):
        model = Model(templates=np.zeros((3, 2)), ordering_costs=np.zeros(6))
        sample = SequenceSample("big", 1, np.zeros((500, 2)) + 1.0)
        with pytest.raises(InfeasibleError, match="too large for brute force"):
            infer_brute(model, sample)

    def test_scale_invariance_of_argmax(self, rng):
        for _ in range(20):
            model, sample = random_instance(rng, n_max=20, n_min=10)
            g0 = infer_greedy(model, sample)
            d0 = infer_dp(model, sample)
            for alpha in (0.5, 2.0, 4.0):
                scaled = Model(
                    templates=alpha * model.templates,
                    ordering_costs=alpha * model.ordering_costs,
                    coverage=model.coverage,
                )
                g1 = infer_greedy(scaled, sample)
                d1 = infer_dp(scaled, sample)
                assert g1.k == g0.k and d1.k == d0.k
                assert g1.total == alpha * g0.total

    def test_tie_break_smallest_rank_and_earliest_positions(self):
        # all-zero model: every placement scores zero, so the documented
        # tie-breaking fully determines the result
        m, t = 2, 1
        model = Model(templates=np.zeros((m, 3)), ordering_costs=np.zeros(2), coverage=t)
        sample = SequenceSample("t", 1, np.ones((8, 3)))
        for solver in (infer_dp, infer_brute):
            a = solver(model, sample)
            assert a.perm_rank == 1
            assert a.k == (0, t + 1)


class TestSharedSuffixDp:
    def test_matches_the_per_ordering_solver(self):
        rng = np.random.default_rng(2024)
        for trial in range(2100):
            m = 6 if trial % 30 == 0 else 1 + trial % 5  # an M=6 case costs ~7x an M=5 one
            n = int(rng.integers(m, m + 5))
            gamma_g = float(rng.choice([0.0, 0.3, 1.0]))
            if rng.random() < 0.5:
                model, sample = tie_prone_instance(rng, m, n, gamma_g)
            else:
                model, sample = random_instance(rng, n_max=n, n_min=n, m_choices=(m,))
                if gamma_g:
                    model = Model(
                        templates=model.templates, ordering_costs=model.ordering_costs,
                        global_template=rng.standard_normal(model.dim), gamma_g=gamma_g,
                        coverage=model.coverage,
                    )
            got, want = infer_dp(model, sample), reference_dp(model, sample)
            assert (got.k, got.perm_rank, repr(got.total)) == (
                want.k, want.perm_rank, repr(want.total)
            ), trial

    def test_matches_brute_at_seven_events(self):
        rng = np.random.default_rng(77)
        for _ in range(4):
            model, sample = random_instance(rng, n_max=9, n_min=7, m_choices=(7,), t_max=0)
            dp, brute = infer_dp(model, sample), infer_brute(model, sample)
            assert (dp.k, dp.perm_rank) == (brute.k, brute.perm_rank)
            assert abs(dp.total - brute.total) <= 1e-9

    @pytest.mark.parametrize("m,stages", [(1, 0), (2, 2), (3, 12), (4, 60), (5, 320), (6, 1950)])
    def test_each_distinct_suffix_stage_is_computed_once(self, monkeypatch, m, stages):
        calls = []
        real_stage = inference._stage

        def counting_stage(*args):
            calls.append(1)
            return real_stage(*args)

        monkeypatch.setattr(inference, "_stage", counting_stage)
        model, sample = random_instance(
            np.random.default_rng(m), n_max=m + 4, n_min=m + 4, m_choices=(m,)
        )
        infer_dp(model, sample)
        assert len(calls) == stages

    def test_leaves_no_cyclic_garbage(self):
        model, sample = random_instance(
            np.random.default_rng(5), n_max=12, n_min=12, m_choices=(5,)
        )
        gc.collect()
        gc.disable()
        try:
            infer_dp(model, sample)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ordering_table_matches_perm_rank(self):
        for m in range(1, 9):
            slot_orders, slot_array, walk = inference._plan(m)
            assert len(slot_orders) == factorial(m)
            assert slot_array.tolist() == [list(order) for order in slot_orders]
            for rank0, order in enumerate(slot_orders):
                k = [0] * m
                for slot, tpl in enumerate(order):
                    k[tpl] = slot
                assert perm_rank(k) == rank0 + 1
            leaves = [entry for entry in walk if entry[0] == 0]
            # every rank is exactly one leaf, and that leaf completes its ordering
            assert sorted(rank0 for _, _, rank0, _, _ in leaves) == list(range(factorial(m)))
            for _, tpl, rank0, _, _ in leaves:
                assert slot_orders[rank0][0] == tpl
            blocks = [leaves[i : i + inference.BLOCK_LEAVES]
                      for i in range(0, len(leaves), inference.BLOCK_LEAVES)]
            for block in blocks:
                ranks = block[-1][4]
                # the block's ranks are sorted, and each leaf's row indexes its own rank
                assert ranks.tolist() == sorted(rank0 for _, _, rank0, _, _ in block)
                assert all(ranks[row] == rank0 for _, _, rank0, row, _ in block)
                assert all(entry[4] is None for entry in block[:-1])
            assert all(entry[2:] == (None, None, None) for entry in walk if entry[0] > 0)


def set_samples(rng, model, lengths, integer):
    """One sample per length in the model's dimension: small integers (tie
    prone) or standard normal frames."""
    d = model.dim
    return [
        SequenceSample(f"s{i}", 1, rng.integers(-1, 2, (n, d)) if integer else rng.standard_normal((n, d)))
        for i, n in enumerate(lengths)
    ]


class TestSolveSet:
    @pytest.mark.parametrize("gamma_g", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_dp_equals_one_infer_dp_call_per_sample(self, m, gamma_g):
        rng = np.random.default_rng(10 * m + int(10 * gamma_g))
        for trial in range(4):
            integer = trial % 2 == 1
            if integer:
                model, _ = tie_prone_instance(rng, m, m, gamma_g)
            else:
                model, _ = random_instance(rng, n_max=m, n_min=m, m_choices=(m,))
            # a radius that short sequences must clamp, and a global template
            model = Model(
                templates=model.templates, ordering_costs=model.ordering_costs,
                global_template=rng.integers(-1, 2, model.dim) if integer else rng.standard_normal(model.dim),
                gamma_g=gamma_g, coverage=int(rng.integers(2, 5)),
            )
            lengths = [m, m, m + 1, 2 * m + 1, 3 * m + 4, 4 * m + 9, 4 * m + 10, 9 * m + 20]
            lengths = [int(n) for n in rng.permutation(lengths)]
            samples = set_samples(rng, model, lengths, integer)
            clamped = [effective_t(n, m, model.coverage) < model.coverage for n in lengths]
            assert any(clamped) and not all(clamped)
            assert len({n.bit_length() for n in lengths}) >= 3

            got = solve_set(model, samples, "dp")
            want = [infer_dp(model, s) for s in samples]
            assert [repr(a) for a in got] == [repr(a) for a in want], trial
            for s, a in zip(samples[:2], got):
                ref = reference_dp(model, s)
                assert (a.k, a.perm_rank, repr(a.total)) == (ref.k, ref.perm_rank, repr(ref.total))

    def test_other_solvers_are_one_call_per_sample(self, rng):
        model, _ = random_instance(rng, m_choices=(3,), with_global=True)
        samples = set_samples(rng, model, [3, 5, 9, 12, 7], integer=False)
        for solver in ("greedy", "brute"):
            got = solve_set(model, samples, solver)
            want = [inference.SOLVERS[solver](model, s) for s in samples]
            assert [repr(a) for a in got] == [repr(a) for a in want]

    def test_a_replaced_entry_is_called_once_per_sample_in_order(self, rng, monkeypatch):
        model, _ = random_instance(rng, m_choices=(3,), with_global=True)
        samples = set_samples(rng, model, [3, 5, 9, 12, 7, 30], integer=False)
        seen, returned = [], []

        def counted(model, sample):
            seen.append(sample)
            returned.append(infer_dp(model, sample))
            return returned[-1]

        monkeypatch.setitem(inference.SOLVERS, "dp", counted)
        got = solve_set(model, samples, "dp")
        assert [id(s) for s in seen] == [id(s) for s in samples]
        assert [id(a) for a in got] == [id(a) for a in returned]

    @pytest.mark.parametrize("solver", ["dp", "greedy"])
    def test_empty_set(self, rng, solver):
        model, _ = random_instance(rng)
        assert solve_set(model, [], solver) == []

    @pytest.mark.parametrize("samples", [[], "one"])
    def test_unknown_solver_raises_key_error(self, rng, samples):
        model, sample = random_instance(rng)
        with pytest.raises(KeyError):
            solve_set(model, [sample] if samples else [], "nope")

    @pytest.mark.parametrize(
        "order,expected",
        [("dimension-first", DataError), ("length-first", InfeasibleError),
         ("both-in-one", InfeasibleError)],
    )
    def test_first_bad_sample_raises_what_the_loop_raises(self, rng, order, expected):
        model = Model(templates=rng.standard_normal((3, 2)), ordering_costs=np.zeros(6), coverage=1)
        good = SequenceSample("good", 1, rng.standard_normal((9, 2)))
        wrong_dim = SequenceSample("wide", 1, rng.standard_normal((9, 4)))
        too_short = SequenceSample("short", 1, rng.standard_normal((2, 2)))
        bad = {
            "dimension-first": [wrong_dim, too_short],
            "length-first": [too_short, wrong_dim],
            "both-in-one": [SequenceSample("short-wide", 1, rng.standard_normal((2, 4))), wrong_dim],
        }[order]
        samples = [good] + bad + [good]
        with pytest.raises(Exception) as looped:
            [infer_dp(model, s) for s in samples]
        assert looped.type is expected
        with pytest.raises(expected) as batched:
            solve_set(model, samples, "dp")
        assert str(batched.value) == str(looped.value)


class TestSolveSetSearch:
    """solve_set's ordering search: slot 0 closed from each template's suffix
    maxima, the winning ordering chosen once per block of leaves."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 6),
        gamma_g=st.sampled_from([0.0, 0.5, 1.0]),
        integer=st.booleans(),
        coverage=st.integers(0, 5),
        spans=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dp_equals_infer_dp(self, m, gamma_g, integer, coverage, spans, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))

        def draw(*shape):
            return rng.integers(-1, 2, shape) if integer else rng.standard_normal(shape)

        model = Model(
            templates=draw(m, d), ordering_costs=draw(factorial(m)),
            global_template=draw(d) if gamma_g else None, gamma_g=gamma_g, coverage=coverage,
        )
        # at M = 6 a sequence costs infer_dp ~5 ms, so keep those sets short
        lengths = [m + span for span in spans[: 3 if m == 6 else 6]]
        samples = [SequenceSample(f"s{i}", 1, draw(n, d)) for i, n in enumerate(lengths)]
        got = solve_set(model, samples, "dp")
        want = [infer_dp(model, s) for s in samples]
        assert [repr(a) for a in got] == [repr(a) for a in want]

    def test_peak_memory_does_not_grow_with_the_orderings(self):
        m, n, size = 7, 30, 40
        rng = np.random.default_rng(7)
        model = Model(templates=rng.standard_normal((m, 4)),
                      ordering_costs=rng.standard_normal(factorial(m)), coverage=1)
        samples = [SequenceSample(f"s{i}", 1, rng.standard_normal((n, 4))) for i in range(size)]
        solve_set(model, samples[:1], "dp")  # build the per-M tables outside the trace
        tracemalloc.start()
        try:
            solve_set(model, samples, "dp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = m * n * size * 8  # bytes of the (M, L, S) response stack
        # about 5 stacks are needed; one buffer row per ordering, M! x S
        # floats, would alone take 24
        assert peak < 20 * stack


class TestNonFiniteResponses:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_overflow_is_a_data_error(self, solver, sign):
        model = Model(templates=np.full((2, 2), 1e200), ordering_costs=np.zeros(2))
        sample = SequenceSample("huge", 1, np.full((4, 2), sign * 1e200))
        with pytest.raises(DataError, match="sample 'huge': template responses overflow"):
            inference.SOLVERS[solver](model, sample)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
    def test_score_fixed_reports_an_overflowing_placed_response(self, sign):
        model = Model(templates=np.full((2, 2), 1e200), ordering_costs=np.zeros(2))
        sample = SequenceSample("huge", 1, np.full((4, 2), sign * 1e200))
        with pytest.raises(DataError) as raised:
            score_fixed(model, sample, (0, 1))
        assert str(raised.value) == (
            "sample 'huge': template responses overflow to non-finite values")

    def test_finite_responses_whose_sum_overflows_are_a_data_error(self):
        model = Model(templates=np.eye(2), ordering_costs=np.zeros(2))
        sample = SequenceSample("big", 1, np.full((4, 2), 1.5e308))
        # the magnitudes allow an overflow, so the responses are checked
        assert not _product_bound(model, sample) <= 1e300
        # every response is finite, but the two placed ones sum to +inf
        calls = [lambda: score_fixed(model, sample, (0, 1)), lambda: solve_set(model, [sample], "dp")]
        calls += [lambda infer=infer: infer(model, sample) for infer in inference.SOLVERS.values()]
        for call in calls:
            with pytest.raises(DataError) as raised:
                call()
            assert str(raised.value) == "sample 'big': the score overflows to non-finite values"

    def test_solve_set_names_the_first_bad_total_in_input_order(self, monkeypatch):
        # B and C overflow only in their totals; C shares A's length bucket
        model, _ = _low_scores()
        samples = [SequenceSample("A", 1, np.ones((30, 1))), SequenceSample("B", 1, np.full((5, 1), -1e308)),
                   SequenceSample("C", 1, np.full((30, 1), -1e308))]
        for solver in inference.SOLVERS:
            for call in (solve_set, predict_table) + _objective_calls(monkeypatch, model, solver):
                with pytest.raises(DataError) as raised:
                    call(model, samples, solver)
                assert str(raised.value) == "sample 'B': the score overflows to non-finite values"

    @pytest.mark.parametrize("solver, named", [("dp", "D"), ("greedy", "B"), ("brute", "B")])
    def test_the_objective_names_the_sample_predict_table_names(self, monkeypatch, solver, named):
        # B overflows only in its total and the later D in its responses:
        # the stacked dp checks every sample's responses before any total
        model = Model(templates=[[1.0, 0.0], [1.0, 1.0]], ordering_costs=[0.0, 0.0])
        samples = [SequenceSample("A", 1, np.ones((6, 2))), SequenceSample("B", 1, [[-1e308, 0.0]] * 4),
                   SequenceSample("D", 1, [[1e308, 1e308]] * 4)]
        errors = set()
        for call in (predict_table,) + _objective_calls(monkeypatch, model, solver):
            with pytest.raises(DataError) as raised:
                call(model, samples, solver)
            errors.add(str(raised.value))
        assert len(errors) == 1 and errors.pop().startswith(f"sample {named!r}: ")

    def test_solve_set_names_the_first_bad_sample(self, rng):
        model = Model(templates=np.full((2, 2), 1e200), ordering_costs=np.zeros(2))
        samples = [SequenceSample("ok", 1, rng.standard_normal((5, 2)))] + [
            SequenceSample(f"huge{i}", 1, np.full((5, 2), 1e200)) for i in range(2)
        ]
        with pytest.raises(DataError, match="sample 'huge0': template responses overflow"):
            solve_set(model, samples, "dp")


def _objective_calls(monkeypatch, model, solver):
    """``objective`` and the first trace point of ``train``, run from
    ``model``, as calls of ``(model, samples, solver)``."""
    config = TrainConfig(M=model.n_events, coverage_t=model.coverage, maxiter=0)
    monkeypatch.setattr(lomo.training, "init_model", lambda config, dim, rng: model)
    return (lambda model, samples, solver: objective(model, samples, config, solver),
            lambda model, samples, solver: train(samples, config, solver))


def _global_overflow(case, pooling="mean", sid="big"):
    """A model and a sample of finite values whose global term overflows:
    in the product g . pool(x) = 2 * 5e158 * 1e160, or in the mean's sum
    over four frames of 1e308. The template responses stay finite."""
    if case == "product":
        model = Model(templates=[[1.0, 1.0]], ordering_costs=[0.0],
                      global_template=[5e158, -5e158], gamma_g=1.0, pooling=pooling)
        return model, SequenceSample(sid, 1, [[1e160, -1e160]] * 3)
    model = Model(templates=[[1e-10, 1e-10]], ordering_costs=[0.0],
                  global_template=[1.0, 1.0], gamma_g=0.5, pooling=pooling)
    return model, SequenceSample(sid, 1, [[1e308, 1e308]] * 4)


class TestNonFiniteGlobalTerm:
    @pytest.mark.parametrize("case, pooling", [("product", "mean"), ("product", "max"),
                                               ("mean-sum", "mean")])
    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_overflow_is_a_data_error(self, solver, case, pooling):
        model, sample = _global_overflow(case, pooling)
        with pytest.raises(DataError) as raised:
            inference.SOLVERS[solver](model, sample)
        assert str(raised.value) == "sample 'big': the global term overflows to non-finite values"
        with pytest.raises(DataError, match="the global term overflows"):
            score_fixed(model, sample, (0,))

    def test_solve_set_names_the_first_bad_sample(self):
        model, _ = _global_overflow("product")
        samples = [SequenceSample("ok", 1, [[1.0, 2.0]] * 3)] + [
            _global_overflow("product", sid=f"big{i}")[1] for i in range(2)
        ]
        for solver in ("greedy", "dp"):
            with pytest.raises(DataError, match="sample 'big0': the global term overflows"):
                solve_set(model, samples, solver)

    def test_a_large_finite_global_term_is_kept(self):
        model = Model(templates=[[1e-10, 1e-10]], ordering_costs=[0.0],
                      global_template=[2.0**500, 2.0**500], gamma_g=1.0)
        sample = SequenceSample("large", 1, [[2.0**500, 2.0**500]] * 3)
        assert infer_dp(model, sample).global_score == 2.0**1001


def _low_scores(sid="low"):
    """Finite responses and costs whose every placement value V sums below
    -DBL_MAX: two slots of 0.5 * -1e308, plus a cost of -1.7e308."""
    model = Model(templates=[[1.0], [1.0]], ordering_costs=[-1.7e308, -1.7e308])
    return model, SequenceSample(sid, 1, np.full((3, 1), -1e308))


class TestOverflowingPlacementValues:
    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_every_value_at_minus_inf_takes_rank_1_at_the_first_frames(self, solver):
        # the exact solvers once crashed with a TypeError when every
        # ordering's value was -inf; now the placement they take is scored,
        # and its -inf total is refused
        model, sample = _low_scores()
        for call in (lambda: score_fixed(model, sample, (0, 1)),
                     lambda: inference.SOLVERS[solver](model, sample),
                     lambda: solve_set(model, [sample], solver)):
            with pytest.raises(DataError) as raised:
                call()
            assert str(raised.value) == "sample 'low': the score overflows to non-finite values"


class TestGlobalOnlyScore:
    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_the_total_is_the_global_term(self, solver):
        # at gamma_g == 1 two responses of -1e308 sum past the float range,
        # while the global term is -1e8
        model = Model(templates=[[1.0], [1.0]], ordering_costs=[0, 0], global_template=[1e-300],
                      gamma_g=1.0, pooling="max")
        sample = SequenceSample("r2", 1, np.full((3, 1), -1e308))
        got = inference.SOLVERS[solver](model, sample)
        assert got.template_score == -np.inf
        assert got.global_score == -1e8 and got.total == -1e8
        assert [a.total for a in solve_set(model, [sample], solver)] == [-1e8]
        assert predict(model, sample, solver) == -1e8
        assert score_fixed(model, sample, got.k).total == -1e8


class TestSolverScoring:
    def test_solvers_score_their_placement_as_score_fixed_does(self):
        rng = np.random.default_rng(404)
        for trial in range(450):
            m = 1 + trial % 5
            gamma_g = (0.0, 0.5, 1.0)[trial // 5 % 3]
            n = int(rng.integers(m, m + 6))
            if trial % 2:
                model, sample = tie_prone_instance(rng, m, n, gamma_g)
            else:
                d = int(rng.integers(1, 6))
                model = Model(
                    templates=rng.standard_normal((m, d)),
                    ordering_costs=rng.standard_normal(factorial(m)),
                    global_template=rng.standard_normal(d) if gamma_g or trial % 4 == 0 else None,
                    gamma_g=gamma_g,
                    coverage=int(rng.integers(0, 3)),
                )
                sample = SequenceSample("s", 1, rng.standard_normal((n, d)))
            t_eff = effective_t(n, m, model.coverage)
            for solve in (infer_greedy, infer_dp, infer_brute):
                got = solve(model, sample)
                want = score_fixed(model, sample, got.k, t_eff=t_eff)
                assert got == want, (trial, solve.__name__)
                assert repr(astuple(got)) == repr(astuple(want)), (trial, solve.__name__)

    def test_solver_results_are_frozen_dataclass_instances(self, rng):
        model = Model(templates=rng.standard_normal((3, 4)), ordering_costs=rng.standard_normal(6),
                      global_template=rng.standard_normal(4), gamma_g=0.25, coverage=1)
        sample = SequenceSample("s", 1, rng.standard_normal((9, 4)))
        for got in [solve(model, sample) for solve in (infer_greedy, infer_dp, infer_brute)] + (
            solve_set(model, [sample], "dp")
        ):
            with pytest.raises(FrozenInstanceError):
                got.total = 0.0
            built = LatentAssignment(**asdict(got))
            assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
            assert asdict(got) == {f: getattr(got, f) for f in (
                "k", "perm_rank", "template_score", "ordering_cost", "global_score", "total"
            )}
            moved = replace(got, total=1.5)
            assert type(moved) is LatentAssignment and moved.total == 1.5 and moved.k == got.k


class TestRuntimeShape:
    def test_greedy_runtime_roughly_linear_in_sequence_length(self, rng):
        import time

        d = 20
        model = Model(
            templates=rng.standard_normal((3, d)), ordering_costs=np.zeros(6), coverage=2
        )

        def best_time(n):
            sample = SequenceSample("t", 1, rng.standard_normal((n, d)))
            infer_greedy(model, sample)  # warm
            times = []
            for _ in range(5):
                tick = time.perf_counter()
                for _ in range(20):
                    infer_greedy(model, sample)
                times.append(time.perf_counter() - tick)
            return min(times)

        # 10x the frames should cost far less than quadratically more;
        # the bound is deliberately loose to stay timing-noise proof
        assert best_time(2000) <= 40 * best_time(200)
