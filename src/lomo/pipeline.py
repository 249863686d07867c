"""Model presets, one-vs-all multiclass, late fusion, and persistence.

The preset ladder mirrors the usual baselines for weakly supervised
sequence classification: mean/max pooled linear models (MnP, MxP), a
max-instance model (MIL), the full latent ordinal model (LOMo) with an
ordinal-off ablation, a global pooled model (GTP), the MIL+GTP blend, and
the adaptive blend (ALOMo) with a cross-validated mixing weight.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import MAX_EVENTS, POOL_MODES, Model, SequenceSample
from .errors import DataError
from .inference import SOLVERS, solve_set
from .training import TrainConfig, TrainReport, train

# Each model kind: its CLI spelling and the config fields it pins regardless
# of the user-supplied values. The order is the LOMO1 container's kind byte.
PRESETS: Dict[str, Tuple[str, Dict]] = {
    "MnP": ("mnp", dict(M=1, gamma_g=1.0, pooling="mean")),
    "MxP": ("mxp", dict(M=1, gamma_g=1.0, pooling="max")),
    "MIL": ("mil", dict(M=1, ordinal_enabled=False, gamma_g=0.0)),
    "LOMo": ("lomo", dict(gamma_g=0.0)),
    "LOMo_ord0": ("lomo-ord0", dict(gamma_g=0.0, ordinal_enabled=False)),
    "GTP": ("gtp", dict(gamma_g=1.0)),
    "MILplusGTP": ("mil-gtp", dict(M=1)),
    "ALOMo": ("alomo", dict()),
}
KINDS = tuple(PRESETS)
KIND_ALIASES: Dict[str, str] = {alias: kind for kind, (alias, _) in PRESETS.items()}


def canonical_kind(name: str) -> str:
    if name in KINDS:
        return name
    try:
        return KIND_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model kind {name!r}; expected one of {sorted(KIND_ALIASES)}")


@dataclass(frozen=True)
class ModelSpec:
    """A preset name plus the base training configuration it constrains."""

    kind: str
    train_config: TrainConfig

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))

    def resolved(self) -> TrainConfig:
        """Training configuration with the preset's pinned fields applied."""
        return replace(self.train_config, **PRESETS[self.kind][1])


@dataclass
class MulticlassModel:
    """One binary model per class, trained one-vs-all."""

    class_labels: List[int]
    per_class: List[Model]

    def __post_init__(self):
        if len(self.class_labels) != len(self.per_class):
            raise ValueError("one model per class label required")
        dims = {m.dim for m in self.per_class}
        if len(dims) > 1:
            raise ValueError(f"per-class models disagree on dimension: {sorted(dims)}")


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit stream seed for a sub-task of a base seed."""
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1, np.uint64)[0])


def one_vs_rest(
    samples: Sequence[SequenceSample], positive_class: int
) -> List[SequenceSample]:
    """Binary relabelling: +1 for ``positive_class``, -1 for every other label.

    Raises ``DataError`` when no sample has ``positive_class``, since the
    relabelled set would hold negatives only.
    """
    if not any(s.label == positive_class for s in samples):
        raise DataError(f"no sample has the positive class {positive_class}")
    return [s.relabel(1 if s.label == positive_class else -1, s.group) for s in samples]


def train_spec(
    dataset: Sequence[SequenceSample],
    spec: ModelSpec,
    solver: str = "greedy",
    trace_every: Optional[int] = None,
) -> TrainReport:
    """Binary training under the preset's resolved configuration."""
    return train(dataset, spec.resolved(), solver=solver, trace_every=trace_every)


def _one_vs_all_classes(
    dataset: Sequence[SequenceSample], class_labels: Optional[Sequence[int]] = None
) -> List[int]:
    """The classes a one-vs-all training over ``dataset`` uses: ``class_labels``,
    default the sorted distinct labels. Raises ``DataError`` unless there are
    at least 2 and each has a sample."""
    if class_labels is None:
        class_labels = sorted({s.label for s in dataset})
    else:
        class_labels = [int(c) for c in class_labels]
    if len(class_labels) < 2:
        raise DataError(f"multiclass training needs at least 2 classes, got {class_labels}")
    counts = {c: 0 for c in class_labels}
    for s in dataset:
        if s.label in counts:
            counts[s.label] += 1
    empty = [c for c, n in counts.items() if n == 0]
    if empty:
        raise DataError(f"classes with zero samples: {empty}")
    return class_labels


def train_multiclass(
    dataset: Sequence[SequenceSample],
    spec: ModelSpec,
    class_labels: Optional[Sequence[int]] = None,
    solver: str = "greedy",
) -> MulticlassModel:
    """One-vs-all reduction: each class trains a binary model against the rest.

    Per-class seeds derive deterministically from the base seed and the
    class position.
    """
    class_labels = _one_vs_all_classes(dataset, class_labels)
    base = spec.resolved()
    models = []
    for ci, cls in enumerate(class_labels):
        cfg = replace(base, seed=derive_seed(base.seed, ci))
        models.append(train(one_vs_rest(dataset, cls), cfg, solver=solver, trace_every=0).model)
    return MulticlassModel(class_labels=list(class_labels), per_class=models)


def predict(
    model: Union[Model, MulticlassModel],
    sample: SequenceSample,
    solver: str = "greedy",
):
    """Raw score(s) for one sample: a float for a binary model, an array of
    per-class scores for a multiclass model."""
    infer_fn = SOLVERS[solver]
    if isinstance(model, MulticlassModel):
        return np.array([infer_fn(m, sample).total for m in model.per_class])
    return infer_fn(model, sample).total


def decide(scores, class_labels: Optional[Sequence[int]] = None) -> np.ndarray:
    """Hard decisions from a score table.

    A 1-D (binary) table gives the sign of each score, 0 counting as +1. An
    (n, C) one-vs-all table gives ``class_labels[argmax]`` per row, ties
    going to the smallest column.
    """
    scores = np.asarray(scores)
    if scores.ndim < 2:
        return np.where(scores >= 0.0, 1, -1)
    if class_labels is None or len(class_labels) != scores.shape[1]:
        raise ValueError(f"a score table with {scores.shape[1]} columns needs as many class labels")
    return np.asarray(class_labels)[np.argmax(scores, axis=1)]


def predict_table(
    model: Union[Model, MulticlassModel],
    samples: Sequence[SequenceSample],
    solver: str = "greedy",
) -> np.ndarray:
    """Scores for a whole evaluation set: shape (n,) binary, (n, C) multiclass.

    Solves the set once per binary model with ``solve_set``; the table holds
    the scores ``predict`` gives sample by sample, bit for bit.
    """
    if isinstance(model, MulticlassModel):
        columns = [[a.total for a in solve_set(m, samples, solver)] for m in model.per_class]
        return np.array(list(zip(*columns)))
    return np.array([a.total for a in solve_set(model, samples, solver)])


FUSION_MODES = ("equal_mean", "zscore_weighted")


def late_fusion(
    score_tables: Sequence[np.ndarray],
    mode: str = "equal_mean",
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Combine per-model score tables over an identical sample set.

    ``equal_mean`` averages raw scores. ``zscore_weighted`` first normalizes
    each table per class to zero mean and unit variance over the evaluated
    set (population variance; an all-constant column normalizes to zeros)
    and then forms the sum weighted by finite weights, default all one.

    Finite tables can still overflow: a table's mean or standard deviation,
    or a fused entry, that passes the float range is a ``DataError``, with
    no numpy warning. Every finite result is unchanged by that check.
    """
    if mode not in FUSION_MODES:
        raise ValueError(f"fusion mode must be one of {FUSION_MODES}, got {mode!r}")
    if not score_tables:
        raise ValueError("need at least one score table")
    arrays = [np.asarray(t, dtype=np.float64) for t in score_tables]
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise DataError(f"score tables cover different sample sets: {a.shape} vs {shape}")
        if not np.isfinite(a).all():
            raise DataError("score table contains non-finite values")
    if mode == "equal_mean":
        if weights is not None:
            raise ValueError("equal_mean fusion takes no weights")
    else:
        weights = np.ones(len(arrays)) if weights is None else np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(arrays),) or not np.isfinite(weights).all():
            raise ValueError(
                f"need {len(arrays)} finite weights, one per table, got {weights.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "equal_mean":
            fused = np.mean(arrays, axis=0)
        else:
            fused = np.zeros(shape)
            for i, (w, a) in enumerate(zip(weights, arrays)):
                mean = a.mean(axis=0)
                std = a.std(axis=0)  # population variance, denominator n
                if not np.isfinite(std).all():  # as it is whenever the mean is not
                    raise DataError(
                        f"score table {i}: its mean or standard deviation overflows "
                        "to non-finite values")
                z = np.where(std > 0.0, (a - mean) / np.where(std > 0.0, std, 1.0), 0.0)
                fused += float(w) * z
    if not np.isfinite(fused).all():
        raise DataError("the fused scores overflow to non-finite values")
    return fused


# ---------------------------------------------------------------------------
# Persistence: versioned little-endian binary container.
#
#   magic "LOMO1" | kind u8 | pooling u8 | has_global u8 | M u32 | d u32
#   | coverage u32 | gamma_g f64 | seed u64 | templates M*d f64
#   | ordering costs M! f64 | [global template d f64]
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"LOMO1"
_HEADER = struct.Struct("<5sBBBIIIdQ")


@dataclass(frozen=True)
class LoadedModel:
    model: Model
    kind: str
    seed: int


def save_model(path, model: Model, kind: str = "LOMo", seed: int = 0) -> None:
    kind = canonical_kind(kind)
    has_global = model.global_template is not None
    header = _HEADER.pack(
        MODEL_MAGIC,
        KINDS.index(kind),
        POOL_MODES.index(model.pooling),
        1 if has_global else 0,
        model.n_events,
        model.dim,
        model.coverage,
        model.gamma_g,
        int(seed),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.templates, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.ordering_costs, dtype="<f8").tobytes())
        if has_global:
            fh.write(np.ascontiguousarray(model.global_template, dtype="<f8").tobytes())


def load_model(path) -> LoadedModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read model container {path}: {exc}")
    if len(blob) < _HEADER.size or blob[:5] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model container (bad magic or truncated header)")
    magic, kind_code, pool_code, has_global, m, dim, coverage, gamma_g, seed = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if kind_code >= len(KINDS) or pool_code >= len(POOL_MODES):
        raise DataError(f"{path}: unsupported kind or pooling code")
    if has_global not in (0, 1):
        raise DataError(f"{path}: has_global byte must be 0 or 1, got {has_global}")
    # Bound the header before sizing anything from it: M! grows too fast.
    if not 1 <= m <= MAX_EVENTS or dim < 1:
        raise DataError(
            f"{path}: header gives M={m}, d={dim}; need 1 <= M <= {MAX_EVENTS} and d >= 1"
        )
    n_costs = factorial(m)
    expected = _HEADER.size + 8 * (m * dim + n_costs + (dim if has_global else 0))
    if len(blob) != expected:
        raise DataError(f"{path}: truncated or oversized payload ({len(blob)} != {expected} bytes)")
    offset = _HEADER.size
    templates = np.frombuffer(blob, dtype="<f8", count=m * dim, offset=offset).reshape(m, dim)
    offset += 8 * m * dim
    costs = np.frombuffer(blob, dtype="<f8", count=n_costs, offset=offset)
    offset += 8 * n_costs
    global_template = None
    if has_global:
        global_template = np.frombuffer(blob, dtype="<f8", count=dim, offset=offset)
    try:
        model = Model(
            templates=templates,
            ordering_costs=costs,
            global_template=global_template,
            gamma_g=gamma_g,
            pooling=POOL_MODES[pool_code],
            coverage=coverage,
        )
    except ValueError as exc:
        raise DataError(f"{path}: invalid model parameters: {exc}") from exc
    return LoadedModel(model=model, kind=KINDS[kind_code], seed=seed)
