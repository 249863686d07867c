"""Metrics, fold construction, cross-validation, and grid search.

Ranking metrics break score ties deterministically: ranked metrics sort by
descending score with a stable fallback to the original sample order, AUC
uses midranks, and the equal-error-rate sweep interpolates linearly between
adjacent ROC vertices. All metrics are pure functions of their inputs.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import SequenceSample, is_binary
from .errors import DataError
from .pipeline import (
    ModelSpec,
    _one_vs_all_classes,
    decide,
    predict_table,
    train_multiclass,
    train_spec,
)
from .training import TrainConfig

METRIC_NAMES = ("acc", "avgclassacc", "map", "auc", "eer")

FOLD_POLICIES = ("random_k_fold", "group_k_fold", "leave_one_group_out", "fixed_from_manifest")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _binary_arrays(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1).astype(int)
    if scores.shape != labels.shape:
        raise ValueError(f"scores and labels differ in length: {scores.shape} vs {labels.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if not is_binary(labels):
        raise ValueError(f"binary metrics expect labels -1/+1, got {sorted(set(labels.tolist()))}")
    return scores, labels


def average_precision(scores, labels) -> float:
    """Mean of precision at each positive's rank, scores sorted descending
    (stable in the original order on ties)."""
    scores, labels = _binary_arrays(scores, labels)
    positive = labels > 0
    if not positive.any():
        raise ValueError("average precision undefined without positive samples")
    order = np.argsort(-scores, kind="stable")
    hits = positive[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    return float(np.mean(cum_hits[hits] / ranks[hits]))


def mean_average_precision(score_table, labels, class_labels: Optional[Sequence[int]] = None) -> float:
    """Unweighted mean of per-class average precision.

    With a 1-D score table this is plain binary average precision. With an
    (n, C) table, column i is scored one-vs-all against class_labels[i];
    classes absent from the evaluated set are skipped.
    """
    table = np.asarray(score_table, dtype=np.float64)
    if table.ndim == 1:
        return average_precision(table, labels)
    return _one_vs_all_mean(average_precision, table, labels, class_labels, need_negatives=False)


def _one_vs_all_mean(metric, table, labels, class_labels, need_negatives: bool) -> float:
    """Unweighted mean of a binary metric over the columns of an (n, C) table,
    column i scored one-vs-all against class_labels[i] (default: the sorted
    distinct labels). Classes absent from the evaluated set are skipped, and
    with ``need_negatives`` so are classes that every sample has."""
    labels = np.asarray(labels).reshape(-1).astype(int)
    if class_labels is None:
        class_labels = sorted(np.unique(labels).tolist())
    if len(class_labels) != table.shape[1]:
        raise ValueError(
            f"score table has {table.shape[1]} columns for {len(class_labels)} classes"
        )
    values = []
    for ci, cls in enumerate(class_labels):
        relevance = np.where(labels == cls, 1, -1)
        if (relevance > 0).any() and not (need_negatives and (relevance > 0).all()):
            values.append(metric(table[:, ci], relevance))
    if not values:
        outcomes = "both outcomes" if need_negatives else "positive samples"
        raise ValueError(f"{metric.__name__}: no class has {outcomes} in the evaluated set")
    return float(np.mean(values))


def auc(scores, labels) -> float:
    """Area under the ROC as the Mann-Whitney statistic: the probability a
    positive outscores a negative, ties counting one half."""
    scores, labels = _binary_arrays(scores, labels)
    positive = labels > 0
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires scores from both classes")
    uniq, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    group_start = np.cumsum(counts) - counts
    midrank = group_start + (counts + 1) / 2.0  # 1-based average rank per tie group
    ranks = midrank[inverse]
    u = float(ranks[positive].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_eer_rate(scores, labels) -> float:
    """One minus the equal error rate.

    Sweeps the ROC vertices at distinct thresholds; when no vertex has equal
    false-positive and false-negative rates, the crossing is interpolated
    linearly between the two adjacent vertices.
    """
    scores, labels = _binary_arrays(scores, labels)
    positive = labels > 0
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("equal error rate requires scores from both classes")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))  # last of each tie group
    tp = np.cumsum(positive[order])[ends]
    fpr = (ends + 1 - tp) / n_neg
    fnr = 1.0 - tp / n_pos
    # the first vertex where fpr reaches fnr; the last one has fpr == 1 >= fnr == 0
    i = int(np.argmax(fpr >= fnr))
    cur_fpr, cur_fnr = float(fpr[i]), float(fnr[i])
    if cur_fpr == cur_fnr:
        return 1.0 - cur_fpr
    prev_fpr, prev_fnr = (float(fpr[i - 1]), float(fnr[i - 1])) if i else (0.0, 1.0)
    denom = (cur_fpr - prev_fpr) + (prev_fnr - cur_fnr)
    frac = (prev_fnr - prev_fpr) / denom
    return 1.0 - (prev_fpr + frac * (cur_fpr - prev_fpr))


def average_class_accuracy(predictions, labels) -> float:
    """Mean per-class recall; insensitive to class imbalance."""
    predictions = np.asarray(predictions).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    classes = np.unique(labels)
    recalls = [float(np.mean(predictions[labels == c] == c)) for c in classes]
    return float(np.mean(recalls))


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

@dataclass
class FoldSpec:
    """Assignment of sample ids to fold indices 0..n_folds-1."""

    name: str
    policy: str
    n_folds: int
    assignment: Dict[str, int]


def _unique_ids(samples: Sequence[SequenceSample]) -> List[str]:
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        raise DataError("sample ids must be unique")
    return ids


def _stable_group_key(seed: int, group: str) -> str:
    return hashlib.sha256(f"{seed}:{group}".encode("utf-8")).hexdigest()


def make_folds(
    samples: Sequence[SequenceSample],
    policy: str,
    k: Optional[int] = None,
    seed: int = 0,
    manifest_folds: Optional[Dict[str, int]] = None,
) -> FoldSpec:
    """Deterministic fold construction.

    Group policies keep each group inside a single fold; ``group_k_fold``
    balances by assigning groups (largest first, hashed for a stable order)
    to the currently smallest fold. ``fixed_from_manifest`` adopts fold
    indices supplied externally.
    """
    if policy not in FOLD_POLICIES:
        raise ValueError(f"policy must be one of {FOLD_POLICIES}, got {policy!r}")
    ids = _unique_ids(samples)
    assignment: Dict[str, int] = {}

    if policy == "random_k_fold":
        if k is None or not 2 <= k <= len(samples):
            raise ValueError(f"random_k_fold needs 2 <= k <= {len(samples)}, got {k}")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(samples))
        for pos, sample_idx in enumerate(perm):
            assignment[ids[sample_idx]] = pos * k // len(samples)
        return FoldSpec(f"random:{k}", policy, k, assignment)

    if policy in ("group_k_fold", "leave_one_group_out"):
        groups: Dict[str, List[str]] = {}
        for s in samples:
            if s.group is None:
                raise DataError(f"sample {s.id!r} has no group; group-aware folds need one")
            groups.setdefault(s.group, []).append(s.id)
        if policy == "leave_one_group_out":
            for fold, g in enumerate(sorted(groups)):
                for sid in groups[g]:
                    assignment[sid] = fold
            return FoldSpec("logo", policy, len(groups), assignment)
        if k is None or not 2 <= k <= len(groups):
            raise ValueError(f"group_k_fold needs 2 <= k <= number of groups ({len(groups)})")
        ordered = sorted(groups, key=lambda g: (-len(groups[g]), _stable_group_key(seed, g)))
        loads = [0] * k
        for g in ordered:
            fold = int(np.argmin(loads))
            loads[fold] += len(groups[g])
            for sid in groups[g]:
                assignment[sid] = fold
        return FoldSpec(f"group:{k}", policy, k, assignment)

    # fixed_from_manifest
    if manifest_folds is None:
        raise ValueError("fixed_from_manifest requires the manifest fold mapping")
    missing = [sid for sid in ids if manifest_folds.get(sid) is None]
    if missing:
        raise DataError(f"manifest provides no fold index for samples {missing[:5]}")
    raw = sorted({int(manifest_folds[sid]) for sid in ids})
    remap = {r: i for i, r in enumerate(raw)}
    for sid in ids:
        assignment[sid] = remap[int(manifest_folds[sid])]
    return FoldSpec("manifest", policy, len(raw), assignment)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Per-fold and aggregate metric values with provenance."""

    name: str
    metrics: List[str]
    solver: str
    fold_policy: str
    n_folds: int
    per_fold: List[Dict] = field(default_factory=list)
    aggregate: Dict[str, float] = field(default_factory=dict)
    per_class: Dict[str, Dict[str, float]] = field(default_factory=dict)
    config_fingerprint: str = ""
    extra: Dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def config_fingerprint(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _score_metrics(
    names: Sequence[str],
    scores: np.ndarray,
    labels: np.ndarray,
    class_labels: Optional[List[int]],
) -> Dict[str, float]:
    """Metric values for a score table: 1-D binary with class_labels None, or
    (n, C) one-vs-all with one class label per column."""
    decisions = decide(scores, class_labels)
    out: Dict[str, float] = {}
    for name in names:
        if name == "acc":
            out[name] = float(np.mean(decisions == labels))
        elif name == "avgclassacc":
            out[name] = average_class_accuracy(decisions, labels)
        elif name == "map":
            out[name] = mean_average_precision(scores, labels, class_labels)
        elif name in ("auc", "eer"):
            fn = auc if name == "auc" else roc_eer_rate
            out[name] = (
                fn(scores, labels) if class_labels is None
                else _one_vs_all_mean(fn, scores, labels, class_labels, need_negatives=True)
            )
        else:
            raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    return out


def _check_fold_classes(fold: int, eval_set, metrics: Sequence[str], binary: bool) -> None:
    """Refuse a held-out fold whose classes leave a requested metric
    undefined: ``auc`` and ``eer`` need two classes, binary ``map`` a positive."""
    counts = Counter(s.label for s in eval_set)
    if binary:
        counts = {-1: counts[-1], 1: counts[1]}
    present = sum(n > 0 for n in counts.values())
    unscorable = [
        m for m in metrics
        if (m in ("auc", "eer") and present < 2) or (m == "map" and binary and not counts[1])
    ]
    if unscorable:
        raise DataError(
            f"fold {fold} cannot be scored on {', '.join(unscorable)}: its evaluation "
            f"samples have class counts {dict(sorted(counts.items()))}; auc and eer "
            f"need two classes, binary map a positive"
        )


def cross_validate(
    dataset: Sequence[SequenceSample],
    folds: FoldSpec,
    spec: ModelSpec,
    metrics: Sequence[str] = ("acc",),
    solver: str = "greedy",
) -> EvalReport:
    """Train on all-but-one fold, evaluate the held-out fold, aggregate.

    Binary datasets train a single model per fold; multiclass datasets train
    one-vs-all with argmax decisions. The train and eval sets of a fold are
    disjoint by construction and this is asserted structurally.
    """
    for name in metrics:  # before any fold trains
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    ids = _unique_ids(dataset)
    unassigned = [sid for sid in ids if sid not in folds.assignment]
    if unassigned:
        raise DataError(f"samples missing from the fold assignment: {unassigned[:5]}")
    labels_all = np.array([s.label for s in dataset])
    binary = is_binary(labels_all)
    class_labels = None if binary else sorted(np.unique(labels_all).tolist())

    splits = []  # every fold is checked before any fold trains
    for fold in range(folds.n_folds):
        train_set = [s for s in dataset if folds.assignment[s.id] != fold]
        eval_set = [s for s in dataset if folds.assignment[s.id] == fold]
        if not eval_set:
            raise DataError(f"fold {fold} has no evaluation samples")
        if not train_set:
            raise DataError(f"fold {fold} has no training samples")
        assert not ({s.id for s in train_set} & {s.id for s in eval_set})
        _check_fold_classes(fold, eval_set, metrics, binary)
        if not binary:
            try:
                _one_vs_all_classes(train_set, class_labels)
            except DataError as exc:
                raise DataError(f"fold {fold} cannot train: {exc}") from None
        splits.append((train_set, eval_set))

    per_fold: List[Dict] = []
    decisions, eval_labels = [], []
    for fold, (train_set, eval_set) in enumerate(splits):
        if binary:
            model = train_spec(train_set, spec, solver=solver, trace_every=0).model
        else:
            model = train_multiclass(train_set, spec, class_labels=class_labels, solver=solver)
        scores = predict_table(model, eval_set, solver)
        y = np.array([s.label for s in eval_set])
        per_fold.append(
            {"fold": fold, "n_eval": len(eval_set),
             "metrics": _score_metrics(metrics, scores, y, class_labels)}
        )
        decisions.append(decide(scores, class_labels))
        eval_labels.append(y)

    aggregate = {m: float(np.mean([row["metrics"][m] for row in per_fold])) for m in metrics}
    all_decisions = np.concatenate(decisions)
    all_labels = np.concatenate(eval_labels)
    per_class = {}
    for cls in np.unique(all_labels):
        mask = all_labels == cls
        per_class[str(int(cls))] = {
            "support": int(mask.sum()),
            "recall": float(np.mean(all_decisions[mask] == cls)),
        }
    cfg = spec.resolved()
    fingerprint = config_fingerprint(
        {
            "kind": spec.kind,
            "config": vars(cfg),
            "solver": solver,
            "metrics": list(metrics),
            "folds": {"policy": folds.policy, "n": folds.n_folds, "name": folds.name},
        }
    )
    return EvalReport(
        name=folds.name,
        metrics=list(metrics),
        solver=solver,
        fold_policy=folds.policy,
        n_folds=folds.n_folds,
        per_fold=per_fold,
        aggregate=aggregate,
        per_class=per_class,
        config_fingerprint=fingerprint,
        extra={"kind": spec.kind, "binary": binary, "n_samples": len(dataset)},
    )


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

GRID_KEYS = ("lambda1", "coverage_t", "gamma_g")


def _check_grid(spec: ModelSpec, grid: Dict[str, Sequence]) -> None:
    """Raise ``ValueError`` unless ``grid`` maps some of GRID_KEYS to lists of
    finite numbers, integers for coverage_t (bools are neither), each in the
    range the spec's TrainConfig accepts for its key. Only gamma_g's list may
    be empty, which skips the second stage."""
    for key, values in grid.items():
        if key not in GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r}; expected {GRID_KEYS}")
        floats = key != "coverage_t"
        if not isinstance(values, (list, tuple)) or not all(
            type(v) is int or (floats and isinstance(v, float) and np.isfinite(v)) for v in values
        ):
            what = "finite numbers" if floats else "integers"
            raise ValueError(f"{key} must be a list of {what}, got {values!r}")
        if not values and key != "gamma_g":
            raise ValueError(f"{key} must list at least one value, got []")
        for value in values:
            replace(spec.train_config, **{key: value})


@dataclass
class GridSearchResult:
    metric: str
    rows: List[Dict]
    best: Dict


def grid_search(
    dataset: Sequence[SequenceSample],
    folds: FoldSpec,
    spec: ModelSpec,
    grid: Dict[str, Sequence],
    metric: str = "acc",
    solver: str = "greedy",
) -> GridSearchResult:
    """Staged sweep: first lambda1 x coverage_t with the global blend off,
    then gamma_g with the winning lambda1 and coverage_t fixed.

    Ties break toward smaller lambda1, then smaller coverage_t, then smaller
    gamma_g (implemented by ascending sweeps with strict improvement).
    Points whose resolved configurations are equal, as when the model kind
    pins gamma_g, are evaluated once and cached. ``_check_grid`` vets the
    grid before any cross-validation.
    """
    _check_grid(spec, grid)
    base = spec.train_config
    lambdas = sorted(grid.get("lambda1", [base.lambda1]))
    coverages = sorted(grid.get("coverage_t", [base.coverage_t]))
    gammas = sorted(grid.get("gamma_g", []))

    cache: Dict[TrainConfig, float] = {}
    rows: List[Dict] = []

    def sweep(stage: int, points) -> tuple:
        """One row per (lambda1, coverage_t, gamma_g) point, in order; returns
        the first point with the highest score, and that score."""
        best, best_score = None, -np.inf
        for point in points:
            lam, cov, gam = point
            cfg = replace(base, lambda1=lam, coverage_t=cov, gamma_g=gam)
            candidate = ModelSpec(spec.kind, cfg)
            key = candidate.resolved()
            if key not in cache:
                report = cross_validate(dataset, folds, candidate, (metric,), solver)
                cache[key] = report.aggregate[metric]
            score = cache[key]
            rows.append(
                {"stage": stage, "lambda1": lam, "coverage_t": cov, "gamma_g": gam, "score": score}
            )
            if score > best_score:
                best, best_score = point, score
        return best, best_score

    best, score = sweep(1, [(lam, cov, 0.0) for lam in lambdas for cov in coverages])
    if gammas:
        best, score = sweep(2, [best[:2] + (gam,) for gam in gammas])
    lam, cov, gam = best
    return GridSearchResult(
        metric, rows, {"lambda1": lam, "coverage_t": cov, "gamma_g": gam, "score": score}
    )
