"""Command-line interface.

Subcommands: ``train``, ``predict``, ``eval``, ``synth``, ``infer-bench``.
Every command writes a run record (<output>.run.json) capturing the argv,
the resolved configuration, and the seed; outputs themselves contain no
timestamps, so re-running a record reproduces them byte for byte.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 numeric or
infeasibility error. ``LOMO_SEED`` provides the default seed when --seed is
not given.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .core import POOL_MODES, Model, SequenceSample, is_binary
from .data import (
    MANIFEST_VERSION,
    Manifest,
    ManifestEntry,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_json_object,
    save_manifest,
    write_json,
    write_lseq,
)
from .errors import DataError, InfeasibleError, LomoError
from .evaluation import (
    METRIC_NAMES,
    config_fingerprint,
    cross_validate,
    grid_search,
    make_folds,
    _score_metrics,
)
from .inference import BRUTE_FORCE_GUARD, SOLVERS, solve_set
from .pipeline import (
    KIND_ALIASES,
    ModelSpec,
    decide,
    derive_seed,
    late_fusion,
    load_model,
    one_vs_rest,
    predict_table,
    save_model,
    train_spec,
)
from . import training
from .training import TrainConfig

# infer-bench times each solver on the first TIME_INSTANCES instances of a
# cell and reports the fastest of TIME_REPEATS passes
TIME_INSTANCES = 10
TIME_REPEATS = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _StoreGiven(argparse.Action):
    """A plain store action that also adds its dest to ``namespace.given``,
    so a command can tell a flag given at its default from one left out."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


# `lomo eval --fuse` scores saved models: these eval flags would do nothing
FUSE_UNUSED = (
    "grid", "folds", "model_kind", "events", "eta", "lambda1", "lambda2", "gamma_g",
    "coverage_t", "maxiter", "pooling", "init_scale",
)


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--model-kind", default="lomo", choices=sorted(KIND_ALIASES))
    p.add_argument("--events", type=int, default=1, metavar="M")
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--lambda1", type=float, default=1e-5)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--gamma-g", type=float, default=0.0)
    p.add_argument("--coverage-t", type=int, default=5)
    p.add_argument("--maxiter", type=int, default=10000)
    p.add_argument("--seed", type=int, default=os.environ.get("LOMO_SEED", "0"))
    p.add_argument("--pooling", choices=POOL_MODES, default="mean")
    p.add_argument("--init-scale", type=float, default=1e-4)
    p.add_argument("--solver", choices=sorted(SOLVERS), default="greedy")


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(
        M=args.events,
        eta=args.eta,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        gamma_g=args.gamma_g,
        coverage_t=args.coverage_t,
        maxiter=args.maxiter,
        seed=args.seed,
        pooling=args.pooling,
        init_scale=args.init_scale,
    )


def _write_run_record(out_path, argv, resolved, seed, outputs, started):
    record = {
        "tool": "lomo",
        "version": __version__,
        "argv": argv,
        "resolved_config": resolved,
        "seed": seed,
        "outputs": [str(o) for o in outputs],
        "fingerprint": config_fingerprint({"config": resolved, "seed": seed}),
        "started_unix": started,
        "finished_unix": time.time(),
    }
    write_json(f"{out_path}.run.json", record)


def cmd_train(args, argv) -> int:
    started = time.time()
    samples, _ = load_dataset(args.manifest)
    if args.positive_class is not None:
        samples = one_vs_rest(samples, args.positive_class)
    config = _config_from_args(args)
    spec = ModelSpec(args.model_kind, config)
    report = train_spec(samples, spec, solver=args.solver, trace_every=0)
    resolved = spec.resolved()
    # The last point of a full trace is this same value: the objective of
    # the final model. Computed before anything is written, so a solver
    # failure leaves no model file behind.
    final_obj = training.objective(report.model, samples, resolved, args.solver)
    save_model(args.out, report.model, kind=spec.kind, seed=config.seed)
    _write_run_record(args.out, argv, asdict(resolved), config.seed, [args.out], started)
    print(
        f"trained {spec.kind} on {len(samples)} sequences: "
        f"violations={report.violations} objective={final_obj:.6g} "
        f"duration={report.duration_s:.2f}s -> {args.out}"
    )
    return 0


def cmd_predict(args, argv) -> int:
    started = time.time()
    loaded = load_model(args.model)
    samples, _ = load_dataset(args.manifest)
    model = loaded.model
    assignments = solve_set(model, samples, args.solver)
    decisions = decide([a.total for a in assignments])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        header = ["id", "label", "score", "decision"]
        if args.dump_latents:
            header += [f"k{i}" for i in range(model.n_events)]
            header += ["perm_rank", "template_score", "ordering_cost", "global_score"]
        writer.writerow(header)
        for s, a, decision in zip(samples, assignments, decisions):
            row = [s.id, s.label, repr(a.total), decision]
            if args.dump_latents:
                row += [str(ki) for ki in a.k]
                row += [
                    a.perm_rank,
                    repr(a.template_score),
                    repr(a.ordering_cost),
                    repr(a.global_score),
                ]
            writer.writerow(row)
    _write_run_record(args.out, argv, {"model": str(args.model), "solver": args.solver},
                      loaded.seed, [args.out], started)
    print(f"scored {len(samples)} sequences with {loaded.kind} ({args.solver}) -> {args.out}")
    return 0


def _parse_folds(spec_str, samples, fold_map, seed):
    if spec_str == "logo":
        return make_folds(samples, "leave_one_group_out")
    if spec_str == "manifest":
        return make_folds(samples, "fixed_from_manifest", manifest_folds=fold_map)
    try:
        policy, k = spec_str.split(":")
        k = int(k)
    except ValueError:
        raise DataError(f"bad --folds value {spec_str!r}; expected random:k, group:k, logo, manifest")
    if policy == "random":
        return make_folds(samples, "random_k_fold", k=k, seed=seed)
    if policy == "group":
        return make_folds(samples, "group_k_fold", k=k, seed=seed)
    raise DataError(f"unknown fold policy {policy!r}")


GRID_KEYS = ("lambda1", "coverage_t", "gamma_g")


def _load_grid(path) -> dict:
    """A --grid file: a JSON object mapping some of GRID_KEYS to lists of
    finite numbers, integers for coverage_t (bools are neither)."""
    grid = load_json_object(path, "grid file")
    for key, values in grid.items():
        if key not in GRID_KEYS:
            raise DataError(f"grid file {path} has unknown key {key!r}; expected {GRID_KEYS}")
        floats = key != "coverage_t"
        if not isinstance(values, list) or not all(
            type(v) is int or (floats and type(v) is float and math.isfinite(v)) for v in values
        ):
            what = "finite numbers" if floats else "integers"
            raise DataError(f"grid file {path}: {key} must be a list of {what}, got {values!r}")
    return grid


def cmd_eval(args, argv) -> int:
    started = time.time()
    if args.fuse:
        unused = [f"--{d.replace('_', '-')}" for d in FUSE_UNUSED if d in args.given]
        if unused:
            raise ValueError(f"--fuse scores saved models and does not use {', '.join(unused)}")
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if not metrics:
        raise ValueError("--metrics must name at least one metric")
    for m in metrics:
        if m not in METRIC_NAMES:
            raise DataError(f"unknown metric {m!r}; expected subset of {METRIC_NAMES}")
    samples, fold_map = load_dataset(args.manifest)

    if args.fuse:
        labels = np.array([s.label for s in samples])
        if not is_binary(labels.tolist()):
            found = sorted(set(labels.tolist()))
            raise DataError(f"--fuse needs a binary manifest (labels -1/+1), got labels {found}")
        model_paths = [p for p in args.fuse.split(",") if p]
        loadeds = [load_model(p) for p in model_paths]
        tables = [predict_table(l.model, samples, args.solver) for l in loadeds]
        weights = None
        if args.weights:
            weights = [float(w) for w in args.weights.split(",")]
        mode = "equal_mean" if args.fusion == "equal" else "zscore_weighted"
        fused = late_fusion(tables, mode=mode, weights=weights)
        values = _score_metrics(metrics, fused, labels, None)
        payload = {
            "mode": f"fusion:{mode}",
            "models": model_paths,
            "weights": weights,
            "n_samples": len(samples),
            "metrics": values,
            "zscore_statistics": "computed over the evaluated sample set",
        }
        write_json(args.out, payload)
        _write_run_record(args.out, argv, payload["mode"], args.seed, [args.out], started)
        for name, value in values.items():
            print(f"{name}: {value:.4f}")
        return 0

    spec = ModelSpec(args.model_kind, _config_from_args(args))
    folds = _parse_folds(args.folds, samples, fold_map, args.seed)
    resolved = asdict(spec.resolved())

    if args.grid:
        grid = _load_grid(args.grid)
        result = grid_search(
            samples, folds, spec, grid,
            metric=metrics[0], solver=args.solver,
        )
        write_json(args.out, {"mode": "grid", **asdict(result)})
        _write_run_record(args.out, argv, resolved, args.seed, [args.out], started)
        b = result.best
        print(
            f"grid best: lambda1={b['lambda1']} coverage_t={b['coverage_t']} "
            f"gamma_g={b['gamma_g']} {result.metric}={b['score']:.4f}"
        )
        return 0

    report = cross_validate(samples, folds, spec, metrics, solver=args.solver)
    write_json(args.out, asdict(report))
    _write_run_record(args.out, argv, resolved, args.seed, [args.out], started)
    for name, value in report.aggregate.items():
        print(f"{name}: {value:.4f} over {report.n_folds} folds")
    return 0


def cmd_synth(args, argv) -> int:
    started = time.time()
    config = SynthConfig(
        dim=args.dim,
        n_min=args.n_min,
        n_max=args.n_max,
        m_true=args.m_true,
        n_pos=args.n_pos,
        n_neg=args.n_neg,
        noise_sigma=args.noise_sigma,
        neg_mode=args.neg_mode,
        min_gap=args.min_gap,
        seed=args.seed,
    )
    train_set, test_set = generate_synthetic(config)
    outputs = []
    for split, samples in (("train", train_set), ("test", test_set)):
        split_dir = os.path.join(args.out_dir, split)
        os.makedirs(split_dir, exist_ok=True)
        entries = []
        for s in samples:
            rel = os.path.join(split, f"{s.id}.lseq")
            write_lseq(os.path.join(args.out_dir, rel), [s])
            entries.append(ManifestEntry(path=rel, label=s.label, group=s.group, fold=None))
        manifest_path = os.path.join(args.out_dir, f"{split}.json")
        save_manifest(manifest_path, Manifest(MANIFEST_VERSION, config.dim, entries))
        outputs.append(manifest_path)
    record_base = os.path.join(args.out_dir, "synth")
    _write_run_record(record_base, argv, asdict(config), config.seed, outputs, started)
    print(
        f"wrote {len(train_set)} train / {len(test_set)} test sequences "
        f"({config.neg_mode}) under {args.out_dir}"
    )
    return 0


def cmd_infer_bench(args, argv) -> int:
    from math import factorial

    started = time.time()
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    n_list = [int(x) for x in args.n.split(",")]
    m_list = [int(x) for x in args.m.split(",")]
    t_list = [int(x) for x in args.t.split(",")]
    solvers = [s for s in args.solvers.split(",") if s]
    for s in solvers:
        if s not in SOLVERS:
            raise DataError(f"unknown solver {s!r}")
    rows = []
    cell_index = 0
    for n in n_list:
        for m in m_list:
            for t in t_list:
                rng = np.random.default_rng(derive_seed(args.seed, cell_index))
                cell_index += 1
                instances = []
                for _ in range(args.instances):
                    model = Model(
                        templates=rng.standard_normal((m, args.dim)),
                        ordering_costs=rng.standard_normal(factorial(m)),
                        coverage=t,
                    )
                    sample = SequenceSample(
                        f"bench{len(instances)}", 1, rng.standard_normal((n, args.dim))
                    )
                    instances.append((model, sample))
                timed = instances[:TIME_INSTANCES]
                totals = {}
                times = {}
                for solver in solvers:
                    if solver == "brute" and n**m > BRUTE_FORCE_GUARD:
                        print(
                            f"notice: skipping brute at N={n} M={m} "
                            f"(N^M exceeds {BRUTE_FORCE_GUARD})",
                            file=sys.stderr,
                        )
                        continue
                    fn = SOLVERS[solver]
                    totals[solver] = [fn(model, sample).total for model, sample in instances]
                    # time a cache-resident subset, warmed, best of several
                    # passes: first-touch page-in would otherwise dominate
                    for model, sample in timed:
                        fn(model, sample)
                    per_pass = []
                    for _ in range(TIME_REPEATS):
                        tick = time.perf_counter()
                        for model, sample in timed:
                            fn(model, sample)
                        per_pass.append((time.perf_counter() - tick) / len(timed))
                    times[solver] = min(per_pass)
                for solver in solvers:
                    if solver not in totals:
                        continue
                    mean_total = float(np.mean(totals[solver]))
                    gap = ""
                    if solver != "greedy" and "greedy" in totals:
                        gap = repr(
                            float(np.mean(np.array(totals[solver]) - np.array(totals["greedy"])))
                        )
                    rows.append(
                        {
                            "solver": solver,
                            "N": n,
                            "M": m,
                            "t": t,
                            "d": args.dim,
                            "instances": args.instances,
                            "time_instances": len(timed),
                            "mean_time_s": repr(times[solver]),
                            "mean_total": repr(mean_total),
                            "score_gap_vs_greedy": gap,
                        }
                    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "solver", "N", "M", "t", "d", "instances", "time_instances",
                "mean_time_s", "mean_total", "score_gap_vs_greedy",
            ],
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(rows)
    _write_run_record(args.out, argv, {"cells": len(rows)}, args.seed, [args.out], started)
    print(f"wrote {len(rows)} bench rows -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lomo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train one binary model from a manifest")
    _add_train_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--positive-class", type=int, default=None,
                   help="binarize a multiclass manifest against this class "
                        "(at least one sequence must have it)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a manifest with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--solver", choices=sorted(SOLVERS), default="greedy")
    p.add_argument("--dump-latents", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="cross-validate, grid-search, or fuse models")
    p.register("action", None, _StoreGiven)
    _add_train_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--metrics", default="acc")
    p.add_argument("--folds", default="random:5")
    p.add_argument("--grid", default=None, help="JSON file with lambda1/coverage_t/gamma_g lists")
    p.add_argument("--fuse", default=None, help="comma list of model files to fuse")
    p.add_argument("--fusion", choices=("equal", "zscore"), default="equal")
    p.add_argument("--weights", default=None, help="comma list of fusion weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval, given=frozenset())

    p = sub.add_parser("synth", help="generate planted-order synthetic data")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-true", type=int, required=True)
    p.add_argument("--n-pos", type=int, required=True)
    p.add_argument("--n-neg", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--neg-mode", choices=("shuffled_order", "events_absent"),
                   default="shuffled_order")
    p.add_argument("--min-gap", type=int, default=0)
    p.add_argument("--seed", type=int, default=os.environ.get("LOMO_SEED", "0"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("infer-bench", help="compare solver runtimes and score gaps")
    p.add_argument("--n", default="300", help="comma list of sequence lengths")
    p.add_argument("--m", default="3", help="comma list of event counts")
    p.add_argument("--t", default="5", help="comma list of coverage radii")
    p.add_argument("--dim", type=int, default=1000)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--solvers", default="greedy,dp,brute")
    p.add_argument("--seed", type=int, default=os.environ.get("LOMO_SEED", "0"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer_bench)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, OSError) as exc:
        print(f"lomo: data error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, LomoError) as exc:
        print(f"lomo: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"lomo: invalid arguments: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
