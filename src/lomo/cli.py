"""Command-line interface.

Subcommands: ``train``, ``predict``, ``eval``, ``fuse``, ``synth``, ``infer-bench``.
Every command that succeeds writes a run record (<output>.run.json)
capturing the argv, the resolved configuration, and the seed; outputs
themselves contain no timestamps, so re-running a record reproduces them
byte for byte.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 numeric or
infeasibility error. ``LOMO_SEED`` provides the default seed when --seed is
left out.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .core import MAX_EVENTS, POOL_MODES, Model, SequenceSample, is_binary
from .data import (
    MANIFEST_VERSION,
    NEG_MODES,
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
from .errors import DataError, LomoError
from .evaluation import (
    METRIC_NAMES,
    config_fingerprint,
    cross_validate,
    grid_search,
    make_folds,
    _check_grid,
    _score_metrics,
)
from .inference import BRUTE_FORCE_GUARD, SOLVERS, solve_set
from .pipeline import (
    KIND_ALIASES,
    ModelSpec,
    _totals,
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


class _SubcommandParser(_Parser):
    # an unknown flag is reported with the subcommand's usage, not lomo's
    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


# Flag-value types: argparse makes a bad value a usage error before any file is read
def _metric_list(text: str) -> tuple:
    """--metrics: a comma list naming at least one of METRIC_NAMES."""
    metrics = tuple(m.strip() for m in text.split(",") if m.strip())
    if not metrics or not set(metrics) <= set(METRIC_NAMES):
        raise argparse.ArgumentTypeError(
            f"expected a non-empty comma list from {', '.join(METRIC_NAMES)}, got {text!r}")
    return metrics


def _fold_policy(text: str) -> tuple:
    """--folds: the (policy, k) pair that make_folds takes. The range of k
    depends on the data, so make_folds checks it after loading."""
    if text == "logo":
        return "leave_one_group_out", None
    if text == "manifest":
        return "fixed_from_manifest", None
    try:
        policy, k = text.split(":")
        return {"random": "random_k_fold", "group": "group_k_fold"}[policy], int(k)
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected random:k, group:k, logo or manifest, got {text!r}")


def _int_list(minimum: int, maximum: int | None = None):
    """--n, --m, --t: a comma list of integers, each at least ``minimum``
    and, if given, at most ``maximum``."""
    def parse(text: str) -> list:
        try:
            values = [int(x) for x in text.split(",")]
        except ValueError:
            values = []
        if not values or min(values) < minimum or (maximum is not None and max(values) > maximum):
            bound = f"of at least {minimum}" if maximum is None else f"from {minimum} to {maximum}"
            raise argparse.ArgumentTypeError(
                f"expected a comma list of integers {bound}, got {text!r}")
        return values
    return parse


def _solver_list(text: str) -> list:
    """--solvers: a comma list naming distinct SOLVERS, at least one."""
    solvers = [s for s in text.split(",") if s]
    if not solvers or len(set(solvers)) < len(solvers) or not set(solvers) <= set(SOLVERS):
        raise argparse.ArgumentTypeError(
            f"expected a non-empty comma list of distinct names from "
            f"{', '.join(sorted(SOLVERS))}, got {text!r}")
    return solvers


def _positive_int(text: str) -> int:
    """--dim, --instances: an integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _weight_list(text: str) -> list:
    """--weights: a non-empty comma list of finite numbers."""
    try:
        weights = [float(w) for w in text.split(",")]
    except ValueError:
        weights = []
    if not weights or not all(map(math.isfinite, weights)):
        raise argparse.ArgumentTypeError(f"expected a comma list of finite numbers, got {text!r}")
    return weights


def _add_seed_flag(p: _Parser) -> None:
    # read when the parser is built, so LOMO_SEED set after import still counts
    p.add_argument("--seed", type=int, default=os.environ.get("LOMO_SEED", "0"))


def _add_train_flags(p: _Parser) -> None:
    # each dest but --model-kind's and --solver's is a TrainConfig field, absent if left out
    p.add_argument("--model-kind", default="lomo", choices=sorted(KIND_ALIASES))
    p.add_argument("--events", dest="M", type=int, default=argparse.SUPPRESS, metavar="M")
    p.add_argument("--eta", type=float, default=argparse.SUPPRESS)
    p.add_argument("--lambda1", type=float, default=argparse.SUPPRESS)
    p.add_argument("--lambda2", type=float, default=argparse.SUPPRESS)
    p.add_argument("--gamma-g", type=float, default=argparse.SUPPRESS)
    p.add_argument("--coverage-t", type=int, default=argparse.SUPPRESS)
    p.add_argument("--maxiter", type=int, default=argparse.SUPPRESS)
    _add_seed_flag(p)
    p.add_argument("--pooling", choices=POOL_MODES, default=argparse.SUPPRESS)
    p.add_argument("--init-scale", type=float, default=argparse.SUPPRESS)
    p.add_argument("--solver", choices=sorted(SOLVERS), default="greedy")


def _config_from_args(cls, args):
    """A cls (TrainConfig or SynthConfig) from the given flags whose dest is one of its fields."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in fields(cls) if f.name in flags})


# Each cmd_* returns (record base, resolved config, seed, outputs), and
# train also what its run did; main writes the run record <base>.run.json
# once the command has succeeded.


def cmd_train(args):
    # flag values are checked before any file is read
    config = _config_from_args(TrainConfig, args)
    spec = ModelSpec(args.model_kind, config)
    samples, _ = load_dataset(args.manifest)
    if args.positive_class is not None:
        samples = one_vs_rest(samples, args.positive_class)
    report = train_spec(samples, spec, solver=args.solver, trace_every=0)
    resolved = spec.resolved()
    # The last point of a full trace is this same value: the objective of
    # the final model. Computed before anything is written, so a solver
    # failure leaves no model file behind.
    final_obj = training.objective(report.model, samples, resolved, args.solver)
    save_model(args.out, report.model, kind=spec.kind, seed=config.seed)
    print(
        f"trained {spec.kind} on {len(samples)} sequences: "
        f"violations={report.violations} certified={report.certified} objective={final_obj:.6g} "
        f"duration={report.duration_s:.2f}s -> {args.out}"
    )
    counts = {"violations": report.violations, "certified": report.certified}
    return args.out, asdict(resolved), config.seed, [args.out], counts


def cmd_predict(args):
    loaded = load_model(args.model)
    samples, _ = load_dataset(args.manifest)
    model = loaded.model
    assignments = solve_set(model, samples, args.solver)
    decisions = decide(_totals(samples, assignments))
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
    print(f"scored {len(samples)} sequences with {loaded.kind} ({args.solver}) -> {args.out}")
    return args.out, {"model": str(args.model), "solver": args.solver}, loaded.seed, [args.out]


def _load_grid(path, spec: ModelSpec) -> dict:
    """A --grid file: a JSON object that grid_search accepts for spec."""
    grid = load_json_object(path, "grid file")
    try:
        _check_grid(spec, grid)
    except ValueError as exc:
        raise DataError(f"grid file {path}: {exc}") from None
    return grid


def cmd_eval(args):
    # flag values are checked before any file is read
    spec = ModelSpec(args.model_kind, _config_from_args(TrainConfig, args))
    samples, fold_map = load_dataset(args.manifest)
    folds = make_folds(samples, *args.folds, seed=args.seed, manifest_folds=fold_map)
    resolved = asdict(spec.resolved())

    if args.grid:
        grid = _load_grid(args.grid, spec)
        result = grid_search(
            samples, folds, spec, grid,
            metric=args.metrics[0], solver=args.solver,
        )
        write_json(args.out, {"mode": "grid", **asdict(result)})
        b = result.best
        print(
            f"grid best: lambda1={b['lambda1']} coverage_t={b['coverage_t']} "
            f"gamma_g={b['gamma_g']} {result.metric}={b['score']:.4f}"
        )
    else:
        report = cross_validate(samples, folds, spec, args.metrics, solver=args.solver)
        write_json(args.out, asdict(report))
        for name, value in report.aggregate.items():
            print(f"{name}: {value:.4f} over {report.n_folds} folds")
    return args.out, resolved, args.seed, [args.out]


def cmd_fuse(args):
    model_paths = [p for p in args.models.split(",") if p]
    if not model_paths:
        raise ValueError("--models must name at least one model file")
    if args.fusion == "equal" and args.weights is not None:
        raise ValueError("--fusion equal takes no --weights")
    if len(args.weights or model_paths) != len(model_paths):
        raise ValueError(f"got {len(args.weights)} --weights for {len(model_paths)} --models")
    samples, _ = load_dataset(args.manifest)
    labels = [s.label for s in samples]
    if not is_binary(labels):
        raise DataError(
            f"fuse needs a binary manifest (labels -1/+1), got labels {sorted(set(labels))}")
    models = [load_model(p).model for p in model_paths]
    tables = [predict_table(m, samples, args.solver) for m in models]
    mode = "equal_mean" if args.fusion == "equal" else "zscore_weighted"
    fused = late_fusion(tables, mode=mode, weights=args.weights)
    values = _score_metrics(args.metrics, fused, np.array(labels), None)
    payload = {
        "mode": f"fusion:{mode}",
        "models": model_paths,
        "weights": args.weights,
        "n_samples": len(samples),
        "metrics": values,
        "zscore_statistics": "computed over the evaluated sample set",
    }
    write_json(args.out, payload)
    for name, value in values.items():
        print(f"{name}: {value:.4f}")
    return args.out, payload["mode"], args.seed, [args.out]


def cmd_synth(args):
    config = _config_from_args(SynthConfig, args)
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
    print(
        f"wrote {len(train_set)} train / {len(test_set)} test sequences "
        f"({config.neg_mode}) under {args.out_dir}"
    )
    return os.path.join(args.out_dir, "synth"), asdict(config), config.seed, outputs


def cmd_infer_bench(args):
    solvers = args.solvers
    rows = []
    cells = list(itertools.product(args.n, args.m, args.t))
    for cell_index, (n, m, t) in enumerate(cells):
        rng = np.random.default_rng(derive_seed(args.seed, cell_index))
        instances = []
        for _ in range(args.instances):
            model = Model(
                templates=rng.standard_normal((m, args.dim)),
                ordering_costs=rng.standard_normal(math.factorial(m)),
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
    print(f"wrote {len(rows)} bench rows -> {args.out}")
    return args.out, {"cells": len(cells)}, args.seed, [args.out]


def build_parser() -> _Parser:
    parser = _Parser(prog="lomo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

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

    p = sub.add_parser("eval", help="cross-validate or grid-search a model kind")
    _add_train_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--metrics", type=_metric_list, default="acc")
    p.add_argument("--folds", type=_fold_policy, default="random:5")
    p.add_argument("--grid", default=None, help="JSON file with lambda1/coverage_t/gamma_g lists")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="late-fuse the score tables of saved models")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True, help="comma list of model files to fuse")
    p.add_argument("--fusion", choices=("equal", "zscore"), default="equal")
    p.add_argument("--weights", type=_weight_list, help="zscore weights, one per model")
    p.add_argument("--metrics", type=_metric_list, default="acc")
    p.add_argument("--solver", choices=sorted(SOLVERS), default="greedy")
    _add_seed_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("synth", help="generate planted-order synthetic data")
    # each dest but --out-dir's is a SynthConfig field
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-true", type=int, required=True)
    p.add_argument("--n-pos", type=int, required=True)
    p.add_argument("--n-neg", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=argparse.SUPPRESS)
    p.add_argument("--neg-mode", choices=NEG_MODES, default=argparse.SUPPRESS)
    p.add_argument("--min-gap", type=int, default=argparse.SUPPRESS)
    _add_seed_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("infer-bench", help="compare solver runtimes and score gaps")
    p.add_argument("--n", type=_int_list(1), default="300", help="comma list of sequence lengths")
    p.add_argument("--m", type=_int_list(1, MAX_EVENTS), default="3",
                   help="comma list of event counts")
    p.add_argument("--t", type=_int_list(0), default="5", help="comma list of coverage radii")
    p.add_argument("--dim", type=_positive_int, default=1000)
    p.add_argument("--instances", type=_positive_int, default=20)
    p.add_argument("--solvers", type=_solver_list, default="greedy,dp,brute")
    _add_seed_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer_bench)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        base, resolved, seed, outputs, *report = args.func(args)
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
        if report:  # what the run did; outside the config, so the fingerprint ignores it
            record["report"] = report[0]
        write_json(f"{base}.run.json", record)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, OSError) as exc:
        print(f"lomo: data error: {exc}", file=sys.stderr)
        return 2
    except LomoError as exc:
        print(f"lomo: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"lomo: invalid arguments: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
