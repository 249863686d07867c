"""Core domain types and fixed-assignment scoring.

A sequence is classified by placing M learned sub-event templates on M
distinct frames and adding a learned cost for the temporal order in which
the templates fire. The order of a placement ``k = (k_1, ..., k_M)`` is
summarized by its permutation rank: the 1-based lexicographic rank of the
order pattern of ``k`` among all M! patterns. An optional global template
scored against a pooled representation of the whole sequence can be blended
in with weight ``gamma_g``.

Frame indices are 0-based everywhere in this package; permutation ranks are
1-based (rank 1 is the fully sorted placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, InfeasibleError

# The ordering-cost table has M! entries, so M must stay small.
MAX_EVENTS = 8

POOL_MODES = ("mean", "max")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SequenceSample:
    """One labeled sequence of d-dimensional frame vectors.

    ``label`` is -1/+1 in binary mode or a class index >= 0 in multiclass
    mode. ``group`` optionally names the subject (or other unit) the sample
    belongs to, used to build group-disjoint evaluation folds. The frames
    are read-only, so ``pool`` keeps each pooled vector on the sample once
    it is computed.
    """

    id: str
    label: int
    frames: np.ndarray  # shape (N, d), one row per frame
    group: Optional[str] = None

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise DataError(
                f"sample {self.id!r}: frames must be a non-empty N x d matrix, "
                f"got shape {frames.shape}"
            )
        if not np.isfinite(frames).all():
            raise DataError(f"sample {self.id!r}: frames contain non-finite values")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "_pooled", {})  # pooling mode -> vector, filled by pool

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True, eq=False)
class Model:
    """Sub-event templates plus the ordering-cost table.

    ``templates`` holds M template vectors (one per sub-event) and
    ``ordering_costs`` one scalar per permutation rank, M! in total.
    ``gamma_g`` blends the local score with a global template applied to the
    pooled sequence; with ``gamma_g == 0`` the global term contributes
    nothing and ``global_template`` may be absent. ``coverage`` is the
    suppression radius t used at inference to keep the chosen frames at
    pairwise distance >= t + 1.
    """

    templates: np.ndarray  # shape (M, d)
    ordering_costs: np.ndarray  # shape (M!,)
    global_template: Optional[np.ndarray] = None
    gamma_g: float = 0.0
    pooling: str = "mean"
    coverage: int = 0

    def __post_init__(self):
        templates = np.array(self.templates, dtype=np.float64)
        if templates.ndim != 2 or templates.shape[0] < 1 or templates.shape[1] < 1:
            raise ValueError(f"templates must be an M x d matrix, got shape {templates.shape}")
        m = templates.shape[0]
        if m > MAX_EVENTS:
            raise ValueError(f"M={m} exceeds the supported maximum of {MAX_EVENTS}")
        costs = np.array(self.ordering_costs, dtype=np.float64).reshape(-1)
        if costs.shape[0] != factorial(m):
            raise ValueError(
                f"ordering_costs must have M! = {factorial(m)} entries for M={m}, "
                f"got {costs.shape[0]}"
            )
        if not (np.isfinite(templates).all() and np.isfinite(costs).all()):
            raise ValueError("model parameters contain non-finite values")
        if not 0.0 <= self.gamma_g <= 1.0:
            raise ValueError(f"gamma_g must lie in [0, 1], got {self.gamma_g}")
        if self.pooling not in POOL_MODES:
            raise ValueError(f"pooling must be one of {POOL_MODES}, got {self.pooling!r}")
        if self.coverage < 0:
            raise ValueError(f"coverage must be non-negative, got {self.coverage}")
        g = self.global_template
        if g is None:
            if self.gamma_g != 0.0:
                raise ValueError("gamma_g must be 0 when no global template is present")
        else:
            g = np.array(g, dtype=np.float64).reshape(-1)
            if g.shape[0] != templates.shape[1]:
                raise ValueError(
                    f"global template dimension {g.shape[0]} does not match "
                    f"template dimension {templates.shape[1]}"
                )
            if not np.isfinite(g).all():
                raise ValueError("global template contains non-finite values")
            g.setflags(write=False)
        templates.setflags(write=False)
        costs.setflags(write=False)
        object.__setattr__(self, "templates", templates)
        object.__setattr__(self, "ordering_costs", costs)
        object.__setattr__(self, "global_template", g)
        object.__setattr__(self, "gamma_g", float(self.gamma_g))
        object.__setattr__(self, "coverage", int(self.coverage))

    @property
    def n_events(self) -> int:
        return self.templates.shape[0]

    @property
    def dim(self) -> int:
        return self.templates.shape[1]


@dataclass(frozen=True)
class LatentAssignment:
    """A concrete placement of the M templates with its score breakdown.

    ``total = gamma_g * global_score + (1 - gamma_g) * (template_score +
    ordering_cost)``, where ``template_score`` is the M-template average
    response and ``ordering_cost`` the table entry at ``perm_rank``.
    """

    k: tuple  # M frame indices, 0-based
    perm_rank: int  # 1-based rank in [1, M!]
    template_score: float
    ordering_cost: float
    global_score: float
    total: float


def perm_rank(k: Sequence[int]) -> int:
    """Lexicographic rank (1-based) of the order pattern of ``k``.

    The order pattern replaces each entry by its rank among all entries
    (smallest -> 1); patterns are numbered lexicographically, so the sorted
    placement has rank 1 and the fully reversed one rank M!. Computed via
    the Lehmer code in O(M^2); entries must be pairwise distinct.
    """
    m = len(k)
    if m < 1:
        raise ValueError("k must contain at least one entry")
    rank0 = 0
    for i in range(m):
        smaller_after = 0
        for j in range(i + 1, m):
            if k[j] == k[i]:
                raise ValueError("tied latent positions")
            if k[j] < k[i]:
                smaller_after += 1
        rank0 = rank0 * (m - i) + smaller_after
    return rank0 + 1


def pool(sample: SequenceSample, mode: str = "mean") -> np.ndarray:
    """Coordinate-wise mean or max over all frames of the sample.

    The first call per sample and mode computes the vector and stores it,
    read-only, on the sample; later calls return that same array.
    """
    cached = sample._pooled.get(mode)
    if cached is not None:
        return cached
    if mode == "mean":
        # Summing each coordinate in sorted order fixes the accumulation
        # order, making the result bit-identical under frame permutation.
        pooled = np.sort(sample.frames, axis=0).sum(axis=0) / sample.n_frames
    elif mode == "max":
        pooled = sample.frames.max(axis=0)
    else:
        raise ValueError(f"unknown pooling mode {mode!r}")
    pooled.setflags(write=False)
    sample._pooled[mode] = pooled
    return pooled


def score_fixed(
    model: Model,
    sample: SequenceSample,
    k: Sequence[int],
    t_eff: int = 0,
) -> LatentAssignment:
    """Score ``sample`` under ``model`` for a fixed latent placement ``k``.

    ``k[i]`` is the frame assigned to template i. The placement must keep
    all pairs at distance >= ``t_eff`` + 1 (so any two entries are distinct
    even at ``t_eff`` = 0).
    """
    if model.dim != sample.dim:
        raise DataError(
            f"model dimension {model.dim} does not match sample dimension {sample.dim}"
        )
    m = model.n_events
    k = tuple(int(x) for x in k)
    if len(k) != m:
        raise ValueError(f"expected {m} latent indices, got {len(k)}")
    n = sample.n_frames
    for ki in k:
        if not 0 <= ki < n:
            raise ValueError(f"frame index {ki} outside [0, {n})")
    min_dist = t_eff + 1
    for i in range(m):
        for j in range(i + 1, m):
            if abs(k[i] - k[j]) < min_dist:
                raise InfeasibleError(
                    f"latent frames {k[i]} and {k[j]} closer than the required "
                    f"separation {min_dist}"
                )
    rank = perm_rank(k)
    template_score = sum(float(np.dot(model.templates[i], sample.frames[k[i]])) for i in range(m)) / m
    ordering_cost = float(model.ordering_costs[rank - 1])
    if model.global_template is not None:
        global_score = float(np.dot(model.global_template, pool(sample, model.pooling)))
    else:
        global_score = 0.0
    gamma = model.gamma_g
    total = gamma * global_score + (1.0 - gamma) * (template_score + ordering_cost)
    return LatentAssignment(
        k=k,
        perm_rank=rank,
        template_score=template_score,
        ordering_cost=ordering_cost,
        global_score=global_score,
        total=total,
    )
