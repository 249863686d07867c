"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the criterion at its stated tolerance. The planted-order experiments train
with the exact solver: the greedy picks frames without consulting the
ordering-cost table, so on data where order is the only class signal the
cost table never receives a usable gradient (measured: stuck near chance).
Binary "accuracy" on these bias-free scores is the classification rate at
the ROC equal-error point, matching the standard protocol for margin scores
with no learned threshold.
"""

import csv
import multiprocessing
import os
import statistics
import time
from math import factorial

import numpy as np
import pytest

from conftest import random_instance
from lomo import (
    Model,
    ModelSpec,
    SequenceSample,
    SynthConfig,
    TrainConfig,
    auc,
    average_precision,
    effective_t,
    fixed_assignment_gradient,
    fixed_assignment_loss,
    generate_synthetic,
    infer_brute,
    infer_dp,
    infer_greedy,
    predict,
    predict_table,
    read_lseq,
    roc_eer_rate,
    score_fixed,
    train_spec,
    write_lseq,
)
from lomo.cli import main as cli_main

SOLVER = "dp"  # exact inference for the planted-order benchmark

BENCH_TRAIN = dict(
    M=3,
    eta=0.05,
    lambda1=1e-5,
    lambda2=0.0,
    coverage_t=3,
    maxiter=20000,
    init_scale=1e-2,
)


def report(criterion, ok, detail):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def benchmark_data(seed, neg_mode):
    cfg = SynthConfig(
        dim=16, n_min=30, n_max=30, m_true=3, n_pos=200, n_neg=200,
        noise_sigma=0.15, neg_mode=neg_mode, min_gap=3, seed=seed,
    )
    return generate_synthetic(cfg)


def eer_accuracy(model, test_set):
    scores = predict_table(model, test_set, SOLVER)
    labels = np.array([s.label for s in test_set])
    return roc_eer_rate(scores, labels)


def train_kind(train_set, kind, seed, trace_every=None, **overrides):
    cfg = TrainConfig(seed=seed, **{**BENCH_TRAIN, **overrides})
    return train_spec(train_set, ModelSpec(kind, cfg), solver=SOLVER, trace_every=trace_every)


def train_and_score(neg_mode, data_seed, kind, seed, trace_every, metric="eer"):
    """One benchmark training on data seed ``data_seed``, scored on its test
    set by EER accuracy or AUC. Returns (score, seconds, trace), the seconds
    timing the training and the scoring; no model leaves the call."""
    train_set, test_set = benchmark_data(data_seed, neg_mode)
    t0 = time.perf_counter()
    run = train_kind(train_set, kind, seed, trace_every=trace_every)
    if metric == "auc":
        score = auc(predict_table(run.model, test_set, SOLVER), np.array([s.label for s in test_set]))
    else:
        score = eer_accuracy(run.model, test_set)
    return score, time.perf_counter() - t0, run.trace


def run_trainings(tasks):
    """``[train_and_score(*task) for task in tasks]``. The trainings are
    independent and seeded, so they run on a pool of one worker process per
    usable CPU, at most two, with the same results; serially on one CPU."""
    workers = min(2, len(os.sched_getaffinity(0)))
    if workers == 1:
        return [train_and_score(*task) for task in tasks]
    # fork: spawn and forkserver ran no faster here, and each leaves a
    # helper process (the resource tracker, the fork server) running as a
    # child of the test session after the pool ends
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.starmap(train_and_score, tasks, chunksize=1)


@pytest.fixture(scope="module")
def planted_order_runs():
    seeds = range(5)
    runs = run_trainings(
        [("shuffled_order", seed, "LOMo", seed, 200 if seed == 0 else 20000) for seed in seeds]
        + [("shuffled_order", seed, "LOMo_ord0", seed, 20000) for seed in seeds]
        + [("shuffled_order", seed, "GTP", seed, 20000, "auc") for seed in seeds]  # GTP pins gamma_g=1
    )
    lomo, ord0, gtp = runs[:5], runs[5:10], runs[10:]
    return [
        dict(
            seed=seed,
            lomo_acc=lomo[seed][0],
            lomo_time=lomo[seed][1],
            lomo_trace=lomo[seed][2],
            ord0_acc=ord0[seed][0],
            gtp_auc=gtp[seed][0],
        )
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def presence_only_runs():
    seeds = range(5)
    runs = run_trainings(
        [("events_absent", seed, "MIL", seed, 20000) for seed in seeds]
        + [("events_absent", seed, "LOMo", seed, 20000) for seed in seeds]
    )
    return [dict(seed=seed, mil_acc=runs[seed][0], lomo_acc=runs[5 + seed][0]) for seed in seeds]


@pytest.fixture(scope="module")
def seed_robustness_accs(planted_order_runs):
    accs = [planted_order_runs[0]["lomo_acc"]]  # train seed 0 on data seed 0
    runs = run_trainings(
        [("shuffled_order", 0, "LOMo", train_seed, 20000) for train_seed in range(1, 10)]
    )
    return accs + [score for score, _, _ in runs]


def test_criterion_1_oracle_equivalence(rng):
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        model, sample = random_instance(
            rng, n_max=12, m_choices=(1, 2, 3), d_max=8, t_max=2, with_global=True
        )
        gap = abs(infer_dp(model, sample).total - infer_brute(model, sample).total)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"max |dp - brute| = {worst:.2e} over 200 instances in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_dominance_and_feasibility(rng):
    violations = 0
    for _ in range(1000):
        model, sample = random_instance(
            rng, n_max=200, n_min=40, m_choices=(1, 2, 3, 4), d_max=16, t_max=5
        )
        greedy = infer_greedy(model, sample)
        dp = infer_dp(model, sample)
        if dp.total < greedy.total:
            violations += 1
        t_eff = effective_t(sample.n_frames, model.n_events, model.coverage)
        for a in (greedy, dp):
            k = a.k
            for i in range(len(k)):
                for j in range(i + 1, len(k)):
                    if abs(k[i] - k[j]) < t_eff + 1:
                        violations += 1
    report(2, violations == 0, f"{violations} violations over 1000 instances")
    assert violations == 0


def test_criterion_3_reductions(rng):
    # MIL reduction: single template, zero costs, prediction equals the
    # max-frame dot product (verified by brute force over frames)
    mismatches = 0
    for _ in range(50):
        d = int(rng.integers(1, 9))
        model = Model(templates=rng.standard_normal((1, d)), ordering_costs=[0.0])
        sample = SequenceSample("m", 1, rng.standard_normal((int(rng.integers(1, 30)), d)))
        expected = max(float(model.templates[0] @ f) for f in sample.frames)
        if predict(model, sample) != expected:
            mismatches += 1
    # pooled reduction: gamma 1 with mean pooling is exactly invariant
    # under frame permutation
    for _ in range(4):
        d = 6
        model = Model(
            templates=rng.standard_normal((2, d)),
            ordering_costs=rng.standard_normal(2),
            global_template=rng.standard_normal(d),
            gamma_g=1.0,
            pooling="mean",
            coverage=1,
        )
        sample = SequenceSample("p", 1, rng.standard_normal((20, d)))
        base = predict(model, sample)
        for _ in range(50):
            shuffled = SequenceSample("p", 1, sample.frames[rng.permutation(20)])
            if predict(model, shuffled) != base:
                mismatches += 1
    report(3, mismatches == 0, f"{mismatches} exact-equality mismatches")
    assert mismatches == 0


def test_criterion_4_gradient_check(rng):
    step = 1e-5
    cfg = TrainConfig(M=2, lambda1=0.013, lambda2=0.007, gamma_g=0.4)
    worst = 0.0
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 7))
        model = Model(
            templates=rng.standard_normal((2, d)),
            ordering_costs=rng.standard_normal(2),
            global_template=rng.standard_normal(d),
            gamma_g=cfg.gamma_g,
        )
        sample = SequenceSample(
            "g", 1 if checked % 2 == 0 else -1, rng.standard_normal((8, d))
        )
        k = (1, 6)
        margin = sample.label * score_fixed(model, sample, k).total
        if abs(margin - 1.0) <= 1e-3:
            continue

        def loss_at(flat):
            nt = flat[: 2 * d].reshape(2, d)
            nc = flat[2 * d: 2 * d + 2]
            ng = flat[2 * d + 2:]
            probe = Model(
                templates=nt, ordering_costs=nc, global_template=ng,
                gamma_g=cfg.gamma_g, pooling=model.pooling, coverage=model.coverage,
            )
            return fixed_assignment_loss(probe, sample, k, cfg)

        theta = np.concatenate(
            [model.templates.ravel(), model.ordering_costs, model.global_template]
        )
        numeric = np.zeros_like(theta)
        for i in range(len(theta)):
            up = theta.copy(); up[i] += step
            dn = theta.copy(); dn[i] -= step
            numeric[i] = (loss_at(up) - loss_at(dn)) / (2 * step)
        gt, gc, gg = fixed_assignment_gradient(model, sample, k, cfg)
        analytic = np.concatenate([gt.ravel(), gc, gg])
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
        worst = max(worst, err)
        checked += 1
    ok = worst <= 1e-4
    report(4, ok, f"max relative gradient error = {worst:.2e} over 100 points")
    assert worst <= 1e-4


def test_criterion_5_planted_order_separation(planted_order_runs):
    lomo = [r["lomo_acc"] for r in planted_order_runs]
    ord0 = [r["ord0_acc"] for r in planted_order_runs]
    gtp = [r["gtp_auc"] for r in planted_order_runs]
    times = [r["lomo_time"] for r in planted_order_runs]
    ok = (
        all(a >= 0.85 for a in lomo)
        and all(g <= 0.65 for g in gtp)
        and all(o <= a - 0.10 for o, a in zip(ord0, lomo))
        and all(t <= 60.0 for t in times)
    )
    report(
        5,
        ok,
        f"LOMo acc {np.round(lomo, 3).tolist()} (>=0.85), "
        f"GTP auc {np.round(gtp, 3).tolist()} (<=0.65), "
        f"ord0 acc {np.round(ord0, 3).tolist()} (<=LOMo-0.10), "
        f"max seed time {max(times):.1f}s (<=60)",
    )
    for a in lomo:
        assert a >= 0.85
    for g in gtp:
        assert g <= 0.65
    for o, a in zip(ord0, lomo):
        assert o <= a - 0.10
    for t in times:
        assert t <= 60.0


def test_criterion_6_presence_only_control(presence_only_runs):
    mil = [r["mil_acc"] for r in presence_only_runs]
    lomo = [r["lomo_acc"] for r in presence_only_runs]
    ok = all(m >= 0.95 for m in mil) and all(abs(m - a) <= 0.05 for m, a in zip(mil, lomo))
    report(
        6,
        ok,
        f"MIL acc {np.round(mil, 3).tolist()} (>=0.95), "
        f"LOMo acc {np.round(lomo, 3).tolist()} (within 0.05 of MIL)",
    )
    for m, a in zip(mil, lomo):
        assert m >= 0.95
        assert abs(m - a) <= 0.05


def test_criterion_7_seed_robustness(seed_robustness_accs):
    accs = seed_robustness_accs
    spread = float(np.std(accs, ddof=1))
    ok = spread <= 0.03
    report(7, ok, f"10-seed accuracies {np.round(accs, 3).tolist()}, std = {spread:.4f} (<=0.03)")
    assert spread <= 0.03


def test_criterion_8_solver_cost_and_quality(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli_main([
        "infer-bench", "--n", "300", "--m", "3", "--t", "5", "--dim", "1000",
        "--instances", "100", "--seed", "8", "--solvers", "greedy,dp",
        "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = {r["solver"]: r for r in csv.DictReader(fh)}
    greedy_time = float(rows["greedy"]["mean_time_s"])
    dp_time = float(rows["dp"]["mean_time_s"])
    greedy_score = float(rows["greedy"]["mean_total"])
    dp_score = float(rows["dp"]["mean_total"])
    ratio = dp_time / greedy_time
    quality = greedy_score / dp_score
    ok = ratio >= 2.0 and quality >= 0.95
    report(
        8,
        ok,
        f"dp/greedy wall ratio = {ratio:.2f} (>=2), greedy/dp mean score = "
        f"{quality:.4f} (>=0.95) at N=300 M=3 d=1000, bench CSV at {out}",
    )
    assert ratio >= 2.0
    assert quality >= 0.95


def test_criterion_9_objective_descent(planted_order_runs):
    trace = [value for _, value in planted_order_runs[0]["lomo_trace"]]
    tenth = max(1, len(trace) // 10)
    first = statistics.median(trace[:tenth])
    last = statistics.median(trace[-tenth:])
    ok = last < first
    report(9, ok, f"objective median first 10% = {first:.4f}, last 10% = {last:.4f}")
    assert last < first


def test_criterion_10_format_and_metric_units(tmp_path, rng):
    failures = 0
    for trial in range(100):
        n_seq = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        samples = [
            SequenceSample(
                f"t{trial}s{i}",
                1 if rng.random() < 0.5 else -1,
                rng.standard_normal((int(rng.integers(1, 8)), d)) * 10.0 ** rng.integers(-8, 9),
                group=None if rng.random() < 0.5 else f"g{i}",
            )
            for i in range(n_seq)
        ]
        path = tmp_path / f"rt{trial}.lseq"
        write_lseq(path, samples)
        loaded = read_lseq(path)
        for a, b in zip(samples, loaded):
            if not (
                a.id == b.id and a.label == b.label and a.group == b.group
                and np.array_equal(a.frames, b.frames)
            ):
                failures += 1
    metric_checks = (
        average_precision([0.9, 0.8, 0.7], [1, -1, 1]) == (1.0 + 2.0 / 3.0) / 2.0,
        auc([0.9, 0.4, 0.5], [1, 1, -1]) == 0.5,
        roc_eer_rate([0.8, 0.6, 0.7, 0.1], [1, 1, -1, -1]) == 0.5,
        average_precision([4.0, 3.0, 2.0], [1, 1, -1]) == 1.0,
        roc_eer_rate([4.0, 3.0], [1, -1]) == 1.0,
    )
    ok = failures == 0 and all(metric_checks)
    report(
        10,
        ok,
        f"{failures} round-trip failures over 100 datasets; "
        f"metric hand examples exact: {all(metric_checks)}",
    )
    assert failures == 0
    assert all(metric_checks)
