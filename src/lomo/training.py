"""Stochastic subgradient training.

The trainer minimizes the regularized hinge objective

    lambda1/2 (sum_i ||w_i||^2 + ||w_g||^2) + lambda2/2 sum_j c_j^2
        + mean over samples of max(0, 1 - y * s(X))

by sampling one sequence uniformly at random per iteration and applying a
subgradient step only when the sampled sequence violates the margin
(y * s < 1). No update of any kind happens outside the violation branch, so
the objective is not monotone along the iterate path; descent holds only on
average. The score s and the latent placement come from the greedy solver
by default; the exact solver can be requested, which matters on data where
the ordering costs carry the class signal (the greedy picks frames without
looking at the cost table, so that signal cannot feed back through it).

Randomness uses numpy's PCG64 generator, so a seed fully determines the
initialization and the sampling sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import MAX_EVENTS, POOL_MODES, Model, SequenceSample, perm_rank, pool, score_fixed
from .errors import DataError
from .inference import SOLVERS

BINARY_LABELS = (-1, 1)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the stochastic trainer.

    ``ordinal_enabled=False`` freezes the cost table at zero. ``gamma_g``
    blends in a global template trained on pooled sequences; 0 disables the
    global part entirely and 1 reduces training to a linear SVM on pooled
    vectors.
    """

    M: int = 1
    eta: float = 0.05
    lambda1: float = 1e-5
    lambda2: float = 0.0
    gamma_g: float = 0.0
    coverage_t: int = 5
    maxiter: int = 10000
    seed: int = 0
    pooling: str = "mean"
    ordinal_enabled: bool = True
    init_scale: float = 1e-4

    def __post_init__(self):
        if not 1 <= self.M <= MAX_EVENTS:
            raise ValueError(f"M must lie in [1, {MAX_EVENTS}], got {self.M}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        for name in ("lambda1", "lambda2", "init_scale"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {v}")
        if not 0.0 <= self.gamma_g <= 1.0:
            raise ValueError(f"gamma_g must lie in [0, 1], got {self.gamma_g}")
        if self.coverage_t < 0:
            raise ValueError(f"coverage_t must be non-negative, got {self.coverage_t}")
        if self.maxiter < 0:
            raise ValueError(f"maxiter must be non-negative, got {self.maxiter}")
        if self.pooling not in POOL_MODES:
            raise ValueError(f"pooling must be one of {POOL_MODES}, got {self.pooling!r}")


@dataclass
class TrainReport:
    """Final model plus diagnostics of one training run."""

    model: Model
    trace: List[Tuple[int, float]] = field(default_factory=list)
    violations: int = 0
    duration_s: float = 0.0


def init_model(config: TrainConfig, dim: int, rng: Optional[np.random.Generator] = None) -> Model:
    """Fresh model: template coordinates i.i.d. uniform on [0, init_scale],
    costs all zero. The global template (drawn the same way) exists only
    when ``gamma_g`` > 0."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    templates = rng.uniform(0.0, config.init_scale, size=(config.M, dim))
    costs = np.zeros(factorial(config.M))
    global_template = None
    if config.gamma_g > 0.0:
        global_template = rng.uniform(0.0, config.init_scale, size=dim)
    return Model(
        templates=templates,
        ordering_costs=costs,
        global_template=global_template,
        gamma_g=config.gamma_g,
        pooling=config.pooling,
        coverage=config.coverage_t,
    )


def sgd_step(
    model: Model,
    sample: SequenceSample,
    config: TrainConfig,
    solver: str = "greedy",
) -> Model:
    """One stochastic update on one sample.

    Returns the model unchanged (same object) when the margin is satisfied.
    On a violation, templates shrink by (1 - lambda1 * eta) and absorb the
    chosen frames, the whole cost table shrinks by (1 - lambda2 * eta) and
    the entry of the realized pattern moves toward the label, and the global
    template absorbs the pooled sequence. With ``ordinal_enabled=False`` the
    cost table is left untouched.
    """
    y = sample.label
    if y not in BINARY_LABELS:
        raise DataError(f"binary training expects labels -1/+1, got {y}")
    assignment = SOLVERS[solver](model, sample)
    if y * assignment.total >= 1.0:
        return model
    eta, gamma = config.eta, config.gamma_g
    m = model.n_events
    shrink = 1.0 - config.lambda1 * eta
    templates = model.templates * shrink
    templates += (eta * (1.0 - gamma) * y / m) * sample.frames[list(assignment.k)]
    if config.ordinal_enabled:
        costs = model.ordering_costs * (1.0 - config.lambda2 * eta)
        costs[assignment.perm_rank - 1] += eta * (1.0 - gamma) * y
    else:
        costs = model.ordering_costs
    global_template = model.global_template
    if global_template is not None:
        x_g = pool(sample, model.pooling)
        global_template = global_template * shrink + (eta * gamma * y) * x_g
    return Model(
        templates=templates,
        ordering_costs=costs,
        global_template=global_template,
        gamma_g=model.gamma_g,
        pooling=model.pooling,
        coverage=model.coverage,
    )


def _check_dataset(dataset: Sequence[SequenceSample]) -> int:
    if not dataset:
        raise DataError("training dataset is empty")
    dim = dataset[0].dim
    for s in dataset:
        if s.dim != dim:
            raise DataError(
                f"mixed feature dimensions in dataset: {dim} vs {s.dim} (sample {s.id!r})"
            )
        if s.label not in BINARY_LABELS:
            raise DataError(f"binary training expects labels -1/+1, got {s.label} (sample {s.id!r})")
    return dim


def _regularizer(model: Model, config: TrainConfig) -> float:
    """lambda1/2 (sum_i ||w_i||^2 + ||w_g||^2) + lambda2/2 sum_j c_j^2."""
    reg = 0.5 * config.lambda1 * float(np.sum(model.templates**2))
    if model.global_template is not None:
        reg += 0.5 * config.lambda1 * float(np.sum(model.global_template**2))
    reg += 0.5 * config.lambda2 * float(np.sum(model.ordering_costs**2))
    return reg


def objective(
    model: Model,
    dataset: Sequence[SequenceSample],
    config: TrainConfig,
    solver: str = "greedy",
) -> float:
    """Exact regularized objective with scores from the named solver."""
    if not dataset:
        raise DataError("objective requires a non-empty dataset")
    infer_fn = SOLVERS[solver]
    hinge = 0.0
    for sample in dataset:
        s = infer_fn(model, sample).total
        hinge += max(0.0, 1.0 - sample.label * s)
    return _regularizer(model, config) + hinge / len(dataset)


def train(
    dataset: Sequence[SequenceSample],
    config: TrainConfig,
    solver: str = "greedy",
    trace_every: Optional[int] = None,
) -> TrainReport:
    """Run ``maxiter`` stochastic steps over uniformly resampled sequences.

    ``trace_every`` sets how often the full objective is recorded in
    ``TrainReport.trace``: ``None`` (the default) records about 100 points
    per run, ``k > 0`` records before the first step, every ``k`` steps and
    after the last step, and ``0`` records nothing. Each point costs one
    solver call per sample; the trace never touches the random stream, so
    the model and ``violations`` do not depend on it.
    """
    _check_dataset(dataset)
    if trace_every is not None and trace_every < 0:
        raise ValueError(f"trace_every must be non-negative or None, got {trace_every}")
    rng = np.random.default_rng(config.seed)
    model = init_model(config, dataset[0].dim, rng)
    if trace_every is None:
        trace_every = max(1, config.maxiter // 100)
    started = time.perf_counter()
    trace: List[Tuple[int, float]] = []
    if trace_every:
        trace.append((0, objective(model, dataset, config, solver)))
    violations = 0
    n = len(dataset)
    for it in range(1, config.maxiter + 1):
        sample = dataset[int(rng.integers(n))]
        stepped = sgd_step(model, sample, config, solver)
        if stepped is not model:
            violations += 1
            model = stepped
        if trace_every and (it % trace_every == 0 or it == config.maxiter):
            trace.append((it, objective(model, dataset, config, solver)))
    return TrainReport(
        model=model,
        trace=trace,
        violations=violations,
        duration_s=time.perf_counter() - started,
    )


def fixed_assignment_loss(
    model: Model,
    sample: SequenceSample,
    k: Sequence[int],
    config: TrainConfig,
) -> float:
    """Single-sample regularized hinge loss with the placement frozen at k."""
    s = score_fixed(model, sample, k).total
    return _regularizer(model, config) + max(0.0, 1.0 - sample.label * s)


def fixed_assignment_gradient(
    model: Model,
    sample: SequenceSample,
    k: Sequence[int],
    config: TrainConfig,
):
    """Analytic subgradient of ``fixed_assignment_loss`` at the current model.

    Returns (d_templates, d_costs, d_global); d_global is None when the
    model has no global template. At the hinge kink (y * s == 1) the
    violation side is reported.
    """
    y = sample.label
    k = tuple(int(x) for x in k)
    s = score_fixed(model, sample, k).total
    m = model.n_events
    gamma = model.gamma_g
    d_templates = config.lambda1 * model.templates.copy()
    d_costs = config.lambda2 * model.ordering_costs.copy()
    d_global = None
    if model.global_template is not None:
        d_global = config.lambda1 * model.global_template.copy()
    if y * s <= 1.0:
        d_templates -= ((1.0 - gamma) * y / m) * sample.frames[list(k)]
        d_costs[perm_rank(k) - 1] -= (1.0 - gamma) * y
        if d_global is not None:
            d_global -= gamma * y * pool(sample, model.pooling)
    return d_templates, d_costs, d_global
