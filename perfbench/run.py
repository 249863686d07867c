"""End-to-end and per-layer benchmark of the lomo package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planted-dp --seed 1 --seconds 30 --trace 0

One invocation runs one workload in this single process. It generates the
workload's planted-order data from ``--seed`` with ``generate_synthetic``,
writes it as LSEQ files plus manifests under ``perfbench/out/`` (untimed),
and then repeats rounds until ``--seconds`` are used up (at least
``MIN_ROUNDS``). One round times the package's public calls:
``load_dataset`` on the train and test manifests, one seeded
``train_spec``, ``save_model``, per-sequence ``predict`` passes over the
test set with the exact solver, and one 5-fold ``cross_validate`` on the
training set. Each timing is the median over the run's units of their wall
time scaled to the reference host speed (see ``hostspeed``); unscaled wall
times are printed as n, min, median and max.

Output checks, each failure counted against the operations attempted:
every round's model bytes equal the first round's, every predict pass
returns the same scores, the model and score digests equal those recorded
in ``reference.json`` for this workload and seed (when recorded), every
cross-validation report is identical, and the test AUC reaches the
workload's floor.

``--trace 1`` instead reports per-layer metrics. It traces a load, a
predict pass and a cross-validation, and alternates untraced and traced
trains so that ``trace.overhead_ratio`` compares their medians. Spans are
written to ``perfbench/out/spans-<workload>-<seed>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark runs the package single-threaded so that
# timings do not depend on what else shares the two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
PREDICT_SECONDS = 0.5  # predict passes per round continue until this much time is spent
CV_FOLDS = 5
PREDICT_SOLVER = "dp"


@dataclass(frozen=True)
class Workload:
    """Inputs and settings of one workload; its ``why`` is in BENCHMARK.json."""

    name: str
    synth: dict  # SynthConfig fields other than the seed
    kind: str
    train: dict  # TrainConfig fields other than the seed
    solver: str  # solver used for training and cross-validation
    trace_every: int | None
    cv_maxiter: int
    cv_metrics: tuple
    auc_floor: float


WORKLOADS = {
    w.name: w
    for w in (
        # Cheap, many steps: per-step Python overhead (M=3 dp recurrence,
        # Model rebuild, objective trace) dominates; no pooling.
        Workload(
            name="planted-dp",
            synth=dict(dim=16, n_min=30, n_max=30, m_true=3, n_pos=200, n_neg=200,
                       noise_sigma=0.15, neg_mode="shuffled_order", min_gap=3),
            kind="LOMo",
            train=dict(M=3, coverage_t=3, init_scale=1e-2, maxiter=20000),
            solver="dp",
            trace_every=None,
            cv_maxiter=20,
            cv_metrics=("acc", "auc", "eer"),
            auc_floor=0.6,  # lowest test AUC over seeds 0-29 is 0.70, median 0.98
        ),
        # Big frames: pool's sort, the response matmul and LSEQ parsing
        # dominate, the M=3 dp recurrence is small. 6+6 sequences keep the
        # LSEQ write and three loads per run inside the time budget.
        Workload(
            name="wide-alomo",
            synth=dict(dim=1000, n_min=300, n_max=300, m_true=3, n_pos=6, n_neg=6,
                       noise_sigma=0.03, neg_mode="events_absent", min_gap=3),
            kind="ALOMo",
            train=dict(M=3, gamma_g=0.5, coverage_t=3, init_scale=1e-2, maxiter=1000),
            solver="greedy",
            trace_every=None,
            cv_maxiter=5,
            cv_metrics=("acc",),  # folds of one or two sequences may hold one class
            # With 3+3 training and 3+3 test sequences the test AUC swings
            # between seeds (0.33 to 1.0 over seeds 0-9), so it is reported
            # but not gated here.
            auc_floor=0.0,
        ),
        # M=5: the exact solver's 120 orderings are nearly all the time; the
        # objective is traced only at the start and end and nothing pools.
        Workload(
            name="many-events",
            synth=dict(dim=32, n_min=40, n_max=40, m_true=5, n_pos=100, n_neg=100,
                       noise_sigma=0.15, neg_mode="shuffled_order", min_gap=3),
            kind="LOMo",
            train=dict(M=5, coverage_t=3, init_scale=1e-2, maxiter=1000),
            solver="dp",
            trace_every=1000,
            cv_maxiter=1,
            cv_metrics=("acc", "auc", "eer"),
            auc_floor=0.7,  # lowest test AUC over seeds 0-29 is 0.84, median 0.98
        ),
    )
}


class Timings:
    """Wall times of benchmark units, listed per metric; with ``scale`` also
    the times scaled to the reference host speed by ``hostspeed.measure``."""

    def __init__(self, scale):
        self.scale = scale
        self.samples = defaultdict(list)
        self.scaled = defaultdict(list)

    def time(self, metric, fn, *args):
        if not self.scale:
            started = perf_counter()
            result = fn(*args)
            self.samples[metric].append(perf_counter() - started)
            return result
        result, elapsed, scaled = hostspeed.measure(fn, *args)
        self.samples[metric].append(elapsed)
        self.scaled[metric].append(scaled)
        return result

    def median(self, metric):
        return median((self.scaled if self.scale else self.samples)[metric])

    def lines(self):
        out = []
        for metric, values in self.samples.items():
            line = (f"{metric}: n={len(values)} wall min={min(values):.6g} "
                    f"median={median(values):.6g} max={max(values):.6g}")
            if metric in self.scaled:
                line += f"; scaled median={median(self.scaled[metric]):.6g}"
            out.append(line)
        return out


class Checks:
    """Attempted and failed operation counts plus the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message, count=1):
        self.failed += count
        self.problems.append(message)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def median(values):
    return statistics.median(values)


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(lomo, workload, seed, workdir):
    """Generate the seeded data and write one LSEQ file per sequence plus a
    manifest per split. Returns the two manifest paths."""
    from lomo.data import Manifest, ManifestEntry

    train_set, test_set = lomo.generate_synthetic(lomo.SynthConfig(seed=seed, **workload.synth))
    paths = []
    for split, samples in (("train", train_set), ("test", test_set)):
        folder = workdir / split
        folder.mkdir(parents=True)
        entries = []
        for s in samples:
            lomo.write_lseq(folder / f"{s.id}.lseq", [s])
            entries.append(ManifestEntry(f"{s.id}.lseq", s.label, s.group, None))
        manifest = folder / "manifest.json"
        lomo.save_manifest(manifest, Manifest(1, samples[0].dim, entries))
        paths.append(manifest)
    return paths


class Runner:
    """Runs one workload at one seed, collecting timings and check results."""

    def __init__(self, lomo, workload, seed, expected, workdir):
        self.lomo = lomo
        self.workload = workload
        self.seed = seed
        self.expected = expected  # {"model": ..., "scores": ...} or None
        self.workdir = workdir
        self.checks = Checks()
        self.timings = None
        self.spec = lomo.ModelSpec(workload.kind, lomo.TrainConfig(seed=seed, **workload.train))
        self.cv_spec = lomo.ModelSpec(
            workload.kind, replace(self.spec.train_config, maxiter=workload.cv_maxiter)
        )
        self.first_model = None
        self.first_scores = None
        self.first_cv = None
        self.test_auc = None
        self.lines = []

    # -- operations, each counted and checked ---------------------------------

    def load(self, manifests):
        train_set, _ = self.lomo.load_dataset(manifests[0])
        test_set, _ = self.lomo.load_dataset(manifests[1])
        return train_set, test_set

    def train(self, train_set):
        """One seeded train; returns its report, or None when it raised."""
        self.checks.attempted += 1
        try:
            return self.lomo.train_spec(
                train_set, self.spec, solver=self.workload.solver,
                trace_every=self.workload.trace_every,
            )
        except self.lomo.LomoError as exc:
            self.checks.fail(f"train raised {exc!r}")
            return None

    def check_model(self, report, label):
        path = self.workdir / "model.bin"
        started = perf_counter()
        self.lomo.save_model(path, report.model, self.workload.kind, self.seed)
        self.timings.samples["save_model_s"].append(perf_counter() - started)
        blob = path.read_bytes()
        if self.first_model is None:
            self.first_model = blob
            if self.expected and digest(blob) != self.expected["model"]:
                self.checks.fail(f"model digest {digest(blob)} != recorded {self.expected['model']}")
        elif blob != self.first_model:
            self.checks.fail(f"{label}: model bytes differ from the first train")

    def predict_pass(self, model, test_set):
        """Score every test sequence, one ``predict`` call each."""
        scores = []
        for s in test_set:
            self.checks.attempted += 1
            try:
                scores.append(self.lomo.predict(model, s, PREDICT_SOLVER))
            except self.lomo.LomoError as exc:
                self.checks.fail(f"predict {s.id} raised {exc!r}")
                scores.append(float("nan"))
        return scores

    def check_scores(self, scores, test_set):
        table = np.asarray(scores, dtype="<f8")
        if self.first_scores is not None:
            differ = int(np.sum(table.view("<u8") != self.first_scores.view("<u8")))
            if differ:
                self.checks.fail(f"{differ} scores differ from the first pass", differ)
            return
        self.first_scores = table
        if self.expected and digest(table.tobytes()) != self.expected["scores"]:
            self.checks.fail(
                f"score digest {digest(table.tobytes())} != recorded {self.expected['scores']}"
            )
        labels = [s.label for s in test_set]
        self.test_auc = self.lomo.auc(table, labels) if np.isfinite(table).all() else 0.0
        if self.test_auc < self.workload.auc_floor:
            self.checks.fail(f"test AUC {self.test_auc} below floor {self.workload.auc_floor}")

    def cross_validate(self, train_set):
        self.checks.attempted += CV_FOLDS
        folds = self.lomo.make_folds(train_set, "random_k_fold", k=CV_FOLDS, seed=self.seed)
        try:
            report = self.lomo.cross_validate(
                train_set, folds, self.cv_spec, self.workload.cv_metrics,
                solver=self.workload.solver,
            )
        except self.lomo.LomoError as exc:
            self.checks.fail(f"cross_validate raised {exc!r}", CV_FOLDS)
            return
        text = report.to_json()
        if self.first_cv is None:
            self.first_cv = text
        elif text != self.first_cv:
            self.checks.fail("cross-validation report differs from the first round")

    def predict_passes(self, model, test_set):
        """Repeat timed passes for at least ``PREDICT_SECONDS``."""
        started = perf_counter()
        while perf_counter() - started < PREDICT_SECONDS:
            scores = self.timings.time("predict_pass_s", self.predict_pass, model, test_set)
            self.check_scores(scores, test_set)

    # -- untraced run -------------------------------------------------------------

    def run_untraced(self, manifests, seconds):
        timings = self.timings
        deadline = perf_counter() + seconds
        rounds = 0
        while True:
            round_start = perf_counter()
            train_set, test_set = timings.time("setup_s", self.load, manifests)
            report = timings.time("train_s", self.train, train_set)
            if report is None:
                return {}
            self.check_model(report, f"round {rounds + 1}")
            self.predict_passes(report.model, test_set)
            timings.time("eval_s", self.cross_validate, train_set)
            rounds += 1
            round_s = perf_counter() - round_start
            if rounds >= MIN_ROUNDS and perf_counter() + round_s > deadline:
                break
        self.lines.append(f"rounds {rounds}")
        self.lines += timings.lines()
        passes = timings.scaled["predict_pass_s"]
        return {
            "setup_s": (timings.median("setup_s"), "s"),
            "train_s": (timings.median("train_s"), "s"),
            "predict_seq_per_s": (median(len(test_set) / t for t in passes), "1/s"),
            "eval_s": (timings.median("eval_s"), "s"),
        }

    # -- traced run ---------------------------------------------------------------

    def run_traced(self, manifests, seconds):
        from tracing import Tracer, instrumented

        tracer = Tracer()
        timings = self.timings
        deadline = perf_counter() + seconds
        with instrumented(tracer):
            train_set, test_set = tracer.call("setup", "data.load_dataset", self.load, manifests)
        values = sum(s.n_frames * s.dim for s in train_set + test_set)
        traced = 0
        rounds = 0
        while True:
            round_start = perf_counter()
            # Alternate which of the pair goes first, so drift favours neither.
            for traced_turn in (rounds % 2 == 1, rounds % 2 == 0):
                if traced_turn:
                    traced += 1
                    with instrumented(tracer):
                        report = timings.time(
                            "train_s traced", tracer.call, f"train-{traced}",
                            "pipeline.train_spec", self.train, train_set,
                        )
                else:
                    report = timings.time("train_s untraced", self.train, train_set)
                if report is None:
                    return {}
                self.check_model(report, "traced train" if traced_turn else "untraced train")
            rounds += 1
            round_s = perf_counter() - round_start
            if rounds >= MIN_TRACED_ROUNDS and perf_counter() + round_s > deadline:
                break
        with instrumented(tracer):
            scores = tracer.call("predict", "pipeline.predict_pass", self.predict_pass,
                                 report.model, test_set)
            self.check_scores(scores, test_set)
            tracer.call("cv", "evaluation.cross_validate", self.cross_validate, train_set)
        path = OUT_DIR / f"spans-{self.workload.name}-{self.seed}.tsv.gz"
        tracer.write(path)
        self.lines.append(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        self.lines += timings.lines()
        return self.layer_metrics(tracer, traced, values, report.violations)

    def layer_metrics(self, tracer, traced, values, violations):
        trains = [tracer.layers(f"train-{i + 1}") for i in range(traced)]
        calls = {name: row["calls"] for name, row in trains[0].items()}
        for i, layers in enumerate(trains[1:], start=2):
            if {name: row["calls"] for name, row in layers.items()} != calls:
                self.checks.fail(f"traced train {i} made different calls than train 1")

        def count(layers, name, key="calls"):
            return layers.get(name, {}).get(key, 0)

        def seconds(name, key="self_s"):
            """Median over the traced trains."""
            return median([layers.get(name, {}).get(key, 0.0) for layers in trains])

        first = trains[0]
        setup = tracer.layers("setup")["data.load_dataset"]["incl_s"]
        predict = tracer.layers("predict")
        cv = tracer.layers("cv")
        cv_row = cv["evaluation.cross_validate"]
        steps = count(first, "training.sgd_step")
        metrics = {
            "data.load_dataset_s": (setup, "s"),
            "data.values_per_s": (values / setup, "1/s"),
            "core.pool_calls": (count(first, "core.pool"), "count"),
            "core.pool_self_s": (seconds("core.pool"), "s"),
            "core.score_fixed_calls": (count(first, "core.score_fixed"), "count"),
            "core.score_fixed_self_s": (seconds("core.score_fixed"), "s"),
            "inference.greedy_calls": (count(first, "inference.greedy"), "count"),
            "inference.greedy_self_s": (seconds("inference.greedy"), "s"),
            "inference.greedy_infeasible": (count(first, "inference.greedy", "failed"), "count"),
            "inference.dp_calls": (count(first, "inference.dp"), "count"),
            "inference.dp_self_s": (seconds("inference.dp"), "s"),
            "inference.solver_calls_in_objective": (
                tracer.children_of("train-1", "training.objective", "inference."), "count"),
            "training.sgd_steps": (steps, "count"),
            "training.violations": (violations, "count"),
            "training.violation_ratio": (violations / steps if steps else 0.0, "ratio"),
            "training.sgd_step_self_s": (seconds("training.sgd_step"), "s"),
            "training.objective_calls": (count(first, "training.objective"), "count"),
            "training.objective_s": (seconds("training.objective", "incl_s"), "s"),
            "predict.dp_calls": (count(predict, "inference.dp"), "count"),
            "predict.dp_self_s": (count(predict, "inference.dp", "self_s"), "s"),
            "predict.pool_calls": (count(predict, "core.pool"), "count"),
            "predict.pool_self_s": (count(predict, "core.pool", "self_s"), "s"),
            "evaluation.cross_validate_s": (cv_row["incl_s"], "s"),
            "evaluation.metrics_self_s": (cv_row["self_s"], "s"),
            "trace.overhead_ratio": (
                self.timings.median("train_s traced") / self.timings.median("train_s untraced"),
                "ratio"),
        }
        for run, layers in (("train-1", first), ("predict", predict), ("cv", cv)):
            total = max(row["incl_s"] for row in layers.values())
            self.lines.append(f"layers of {run} (share = self time over {total:.4f} s):")
            self.lines.append(f"  {'span':30s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s} {'share':>6s}")
            for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
                self.lines.append(
                    f"  {name:30s} {row['calls']:8d} {row['incl_s']:10.4f} "
                    f"{row['self_s']:10.4f} {row['self_s'] / total:6.1%}"
                )
        return metrics

    # -- entry --------------------------------------------------------------------

    def run(self, seconds, trace):
        started = perf_counter()
        manifests = write_inputs(self.lomo, self.workload, self.seed, self.workdir)
        self.lines.append(f"inputs generated and written in {perf_counter() - started:.2f} s")
        # Traced runs time unscaled: the probe's kernel would land inside spans.
        self.timings = Timings(scale=not trace)
        if trace:
            metrics = self.run_traced(manifests, seconds)
        else:
            metrics = self.run_untraced(manifests, seconds)
            if metrics:
                metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
                ok = 1.0 - min(self.checks.failed, self.checks.attempted) / self.checks.attempted
                metrics["ok_op_ratio"] = (ok, "ratio")
        if self.first_model is not None:
            self.lines.append(f"digest model {digest(self.first_model)}")
        if self.first_scores is not None:
            self.lines.append(f"digest scores {digest(self.first_scores.tobytes())}")
            self.lines.append(f"test_auc {self.test_auc} (floor {self.workload.auc_floor})")
        for problem in self.checks.problems:
            self.lines.append(f"CHECK FAILED: {problem}")
        return metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_package():
    """Import lomo from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lomo

    origin = Path(lomo.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"lomo imported from {origin}, not from {src}")
    return lomo


def environment(lomo):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lomo": lomo.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(lomo, workload, seed, seconds, trace, expected):
    """Run one workload; returns (result for the JSON line, report lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    runner = Runner(lomo, workload, seed, expected, workdir)
    try:
        metrics = runner.run(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = runner.checks
    attempted = max(checks.attempted, 1)
    result = {
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": min(checks.failed, attempted) if metrics else attempted,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, runner.lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        lomo = import_package()
    except ImportError as exc:
        print(f"cannot import the lomo package from this checkout: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = load_reference()["digests"].get(workload.name, {}).get(str(args.seed))
    result, lines = run_workload(lomo, workload, args.seed, args.seconds, args.trace, expected)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment(lomo), sort_keys=True))
    if expected is None:
        print(f"no recorded digests for seed {args.seed}; only self-consistency checked")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
