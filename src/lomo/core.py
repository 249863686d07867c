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
from functools import cached_property
from math import factorial, isfinite
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, InfeasibleError

# The ordering-cost table has M! entries, so M must stay small.
MAX_EVENTS = 8

POOL_MODES = ("mean", "max")


def _magnitude(a: np.ndarray) -> float:
    """The largest absolute entry of a non-empty array, from its maximum and
    minimum, so no temporary array is made. It is non-finite exactly when
    some entry is: a NaN makes both extremes NaN, and +-inf makes one of
    them infinite."""
    hi = float(np.maximum.reduce(a, None))
    lo = -float(np.minimum.reduce(a, None))
    return hi if hi >= lo else lo


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
        magnitude = _magnitude(frames)
        if not isfinite(magnitude):
            raise DataError(f"sample {self.id!r}: frames contain non-finite values")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "_pooled", {})  # pooling mode -> vector, filled by pool
        object.__setattr__(self, "_magnitude", magnitude)  # max |frames[p, j]|

    def relabel(self, label: int, group: Optional[str]) -> "SequenceSample":
        """The same sequence under another label and group.

        Shares this sample's read-only frames, pooled-vector cache and
        largest absolute entry, which depend on the frames alone, instead of
        copying and re-checking them.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, label=int(label), group=group)
        return twin

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


# The labels of binary mode; any other label is a multiclass class index.
BINARY_LABELS = frozenset((-1, 1))


def is_binary(labels) -> bool:
    """True when every label is -1 or +1, the binary convention of ``SequenceSample``."""
    return BINARY_LABELS.issuperset(labels)


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

    The largest absolute template entry is kept from the finiteness check
    for ``_product_bound``, and the exact solvers' weighted cost
    table is computed on first use (``_weighted_costs``).
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
        object.__setattr__(self, "gamma_g", float(self.gamma_g))
        object.__setattr__(self, "coverage", int(self.coverage))
        self._take_parameters(templates, costs, g)

    def _stepped(self, templates, ordering_costs, global_template) -> "Model":
        """This model with new parameters, taken over as read-only arrays.

        For float64 arrays with this model's shapes that a training step
        has just allocated; ``ordering_costs`` may be this model's own. Only
        finiteness is checked, since every other field is this model's. The
        twin is built from the fields alone, so no value cached from this
        model's parameters carries over.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(gamma_g=self.gamma_g, pooling=self.pooling, coverage=self.coverage)
        twin._take_parameters(templates, ordering_costs, global_template)
        return twin

    def _take_parameters(self, templates, ordering_costs, global_template) -> None:
        """Check the float64 parameter arrays finite, make them read-only and
        set them on this model, with the largest absolute template entry kept
        for ``_product_bound``."""
        magnitude = _magnitude(templates)
        if not (isfinite(magnitude) and np.isfinite(ordering_costs).all()):
            raise ValueError("model parameters contain non-finite values")
        if global_template is not None:
            if not np.isfinite(global_template).all():
                raise ValueError("global template contains non-finite values")
            global_template.setflags(write=False)
        templates.setflags(write=False)
        ordering_costs.setflags(write=False)
        self.__dict__.update(
            templates=templates,
            ordering_costs=ordering_costs,
            global_template=global_template,
            _magnitude=magnitude,  # max |templates[i, j]|
        )

    @cached_property
    def _weighted_costs(self):
        """The exact solvers' weighted costs fl((1 - gamma_g) * c), as an
        array and as a list, computed on the first call per model."""
        weighted = (1.0 - self.gamma_g) * self.ordering_costs
        return weighted, weighted.tolist()

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


def _global_score(model: Model, sample: SequenceSample) -> float:
    """g . pool(x), or 0.0 without a global template. Finite inputs can
    still overflow the mean's sum or the product, so both run with numpy's
    overflow warnings off; a non-finite pooled entry leaves the product
    non-finite, and a non-finite product is a ``DataError``."""
    if model.global_template is None:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        score = float(model.global_template.dot(pool(sample, model.pooling)))
    if not isfinite(score):
        raise DataError(f"sample {sample.id!r}: the global term overflows to non-finite values")
    return score


def check_dim(model: Model, sample: SequenceSample) -> None:
    """Raise ``DataError`` unless ``model`` and ``sample`` share a feature dimension."""
    if model.dim != sample.dim:
        raise DataError(
            f"model dimension {model.dim} does not match sample dimension {sample.dim}"
        )


# Up to this ``_product_bound`` no template response can overflow (the
# argument is in ``_responses``), so no solve can fail on one.
_SAFE_PRODUCT_BOUND = 1e300


def _product_bound(model: Model, sample: SequenceSample) -> float:
    """fl(fl(a*b)*d) for the largest absolute template entry a, the largest
    absolute frame entry b and the dimension d, which the model and the
    sample keep from their own finiteness checks.

    For every template i and frame p, sum_j |w_ij| |x_pj| <= d*a*b exactly,
    so this float is at least that sum up to its two roundings: at least
    the sum times (1 - u)**2, u = 2**-53, less an underflow term far below
    1. It is +inf when d*a*b passes DBL_MAX. The overflow guard of the
    template responses and the certified margin of training both read it.
    """
    return model._magnitude * sample._magnitude * model.dim


def _responses(model: Model, sample: SequenceSample) -> np.ndarray:
    """The (M, N) template responses, checked finite: an overflow to +-inf
    would leave no comparable placement scores.

    The check is needed only when the magnitudes allow an overflow. A
    response is a dot product of d terms whose magnitudes sum to at most
    d*a*b, a and b the largest absolute template and frame entries, so in
    any summation order, with or without fused multiply-adds, its computed
    value is at most d*a*b*(1 + gamma_d), gamma_d = d*u / (1 - d*u) with
    u = 2**-53. When R = ``_product_bound`` <= 1e300, d*a*b is at most
    R*(1 + u)**2 plus an underflow term far below 1, and every response
    stays below DBL_MAX (about 1.8e308) with no entry inf or NaN. Otherwise
    the matmul and the check run with numpy's overflow warnings off: a +-inf
    or NaN entry makes the sum non-finite, so a finite sum clears the matrix
    in one reduction; finite entries can still overflow the sum, and then
    each entry is checked.
    """
    check_dim(model, sample)
    if _product_bound(model, sample) <= _SAFE_PRODUCT_BOUND:
        return model.templates @ sample.frames.T
    with np.errstate(over="ignore", invalid="ignore"):
        resp = model.templates @ sample.frames.T
        if not isfinite(resp.sum()) and not np.isfinite(resp).all():
            raise DataError(f"sample {sample.id!r}: template responses overflow to non-finite values")
    return resp


def score_fixed(
    model: Model,
    sample: SequenceSample,
    k: Sequence[int],
    t_eff: int = 0,
) -> LatentAssignment:
    """Score ``sample`` under ``model`` for a fixed latent placement ``k``.

    ``k[i]`` is the frame assigned to template i. The placement must keep
    all pairs at distance >= ``t_eff`` + 1 (so any two entries are distinct
    even at ``t_eff`` = 0). As in every solver, a template response or a
    score that overflows to +-inf is a ``DataError``, with no numpy warning.
    """
    check_dim(model, sample)
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
    _responses(model, sample)
    return _score_placement(model, sample, k, perm_rank(k))


def _score_placement(model: Model, sample: SequenceSample, k: tuple, rank: int) -> LatentAssignment:
    """``score_fixed`` without its checks, for placements a solver has built.

    ``k`` is a tuple of ints that passes ``score_fixed``'s checks, and
    ``rank`` is its ``perm_rank``. The one home of the finite-score rule:
    finite responses, costs and global terms can still sum past the float
    range, and a total that does is a ``DataError`` naming the sample. At
    ``gamma_g == 1`` the local part has weight 0, so when it overflows (and
    0 * +-inf makes the total NaN) the total is the global term alone.
    """
    m = len(k)
    templates, frames = model.templates, sample.frames
    # a plain left-to-right sum from 0.0, which is the builtin sum of Python
    # 3.10 and 3.11; from 3.12 on the builtin is compensated and would move
    # the bits of every seeded result
    template_score = 0.0
    for i in range(m):
        template_score += float(templates[i].dot(frames[k[i]]))
    template_score /= m
    ordering_cost = float(model.ordering_costs[rank - 1])
    global_score = _global_score(model, sample)
    gamma = model.gamma_g
    total = gamma * global_score + (1.0 - gamma) * (template_score + ordering_cost)
    if not isfinite(total):
        if gamma != 1.0:
            raise DataError(f"sample {sample.id!r}: the score overflows to non-finite values")
        total = global_score
    # the frozen dataclass's __init__ would route each field through
    # object.__setattr__; the fields go straight into the instance dict
    assignment = object.__new__(LatentAssignment)
    assignment.__dict__.update(
        k=k,
        perm_rank=rank,
        template_score=template_score,
        ordering_cost=ordering_cost,
        global_score=global_score,
        total=total,
    )
    return assignment
