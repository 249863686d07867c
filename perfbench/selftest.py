"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs a shrunken copy of every workload through the same runner, untraced
and traced, and checks that every metric named in BENCHMARK.json is
reported with its unit, that the traced counts follow the trainer's
arithmetic, that the output checks fire on a corrupted digest, and that the
benchmark exits non-zero without a result where the package is missing.
Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY = {
    "planted-dp": dict(
        synth=dict(dim=4, n_min=12, n_max=12, m_true=3, n_pos=10, n_neg=10,
                   noise_sigma=0.15, neg_mode="shuffled_order", min_gap=1),
        train=dict(M=3, coverage_t=1, init_scale=1e-2, maxiter=200),
        cv_maxiter=5,
        cv_metrics=("acc",),
    ),
    "wide-alomo": dict(
        synth=dict(dim=20, n_min=40, n_max=40, m_true=3, n_pos=6, n_neg=6,
                   noise_sigma=0.03, neg_mode="events_absent", min_gap=1),
        train=dict(M=3, gamma_g=0.5, maxiter=50),
        cv_maxiter=5,
    ),
    "many-events": dict(
        synth=dict(dim=6, n_min=15, n_max=15, m_true=4, n_pos=10, n_neg=10,
                   noise_sigma=0.15, neg_mode="shuffled_order", min_gap=1),
        train=dict(M=4, coverage_t=1, init_scale=1e-2, maxiter=50),
        trace_every=50,
        cv_maxiter=1,
        cv_metrics=("acc",),
    ),
}


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metrics(result, declared, what):
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        check(got is not None, f"{what}: metric {entry['name']} missing")
        check(got["unit"] == entry["unit"], f"{what}: {entry['name']} has unit {got['unit']}")
        check(isinstance(got["value"], (int, float)), f"{what}: {entry['name']} is not a number")
    check(len(result["metrics"]) == len(declared), f"{what}: unexpected extra metrics")


def main():
    lomo = run.import_package()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    layer_map = run.load_reference()["layer_map"]
    check(
        sorted(layer_map) == sorted(m["name"] for m in bench["per_layer"]),
        "reference.json layer_map must cover exactly the per_layer metrics",
    )
    check(
        sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
        "BENCHMARK.json workloads must match run.WORKLOADS",
    )
    seed = 3
    for name, sizes in TINY.items():
        workload = replace(run.WORKLOADS[name], auc_floor=0.0, **sizes)
        result, lines = run.run_workload(lomo, workload, seed, 0, 0, None)
        check(result["correct"], f"{name}: untraced run failed: {lines}")
        check_metrics(result, bench["end_to_end"], name)
        model = next(line.split()[-1] for line in lines if line.startswith("digest model"))
        scores = next(line.split()[-1] for line in lines if line.startswith("digest scores"))
        expected = {"model": model, "scores": scores}

        traced, lines = run.run_workload(lomo, workload, seed, 0, 1, expected)
        check(traced["correct"], f"{name}: traced run failed: {lines}")
        check_metrics(traced, bench["per_layer"], f"{name} traced")
        value = {k: v["value"] for k, v in traced["metrics"].items()}
        maxiter = workload.train["maxiter"]
        trace_every = workload.trace_every or max(1, maxiter // 100)
        n_train = (workload.synth["n_pos"] + 1) // 2 + (workload.synth["n_neg"] + 1) // 2
        check(value["training.sgd_steps"] == maxiter, f"{name}: sgd_steps")
        check(value["training.objective_calls"] == maxiter // trace_every + 1,
              f"{name}: objective_calls {value['training.objective_calls']}")
        check(value["inference.solver_calls_in_objective"]
              == value["training.objective_calls"] * n_train, f"{name}: solver calls in objective")
        if workload.train.get("gamma_g", 0.0) == 0.0:
            check(value["core.pool_calls"] == 0, f"{name}: pool called without a global template")

        for key in ("model", "scores"):
            corrupted = dict(expected, **{key: "0" * 16})
            bad, lines = run.run_workload(lomo, workload, seed, 0, 0, corrupted)
            check(not bad["correct"] and bad["failed"] >= 1,
                  f"{name}: corrupted {key} digest went unnoticed")
            check(any("digest" in line and "CHECK FAILED" in line for line in lines),
                  f"{name}: corrupted {key} digest not reported")
        print(f"{name}: ok")

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-dp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0, "benchmark succeeded without the package")
    check('"correct"' not in proc.stdout, "benchmark printed a result without the package")
    print("without the package: exit code", proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
