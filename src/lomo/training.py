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
With an exact solver, ``train`` skips the solve on a positive sample whose
last placement in the run already scores above 1 by a proven rounding
margin: the exact score is at least as high, so the step cannot violate.

Randomness uses numpy's PCG64 generator, so a seed fully determines the
initialization and the sampling sequence.
"""

from __future__ import annotations

import contextlib
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from math import factorial, isfinite, sqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._helper import helper_process
from .core import (
    BINARY_LABELS, MAX_EVENTS, POOL_MODES, Model, SequenceSample, _SAFE_PRODUCT_BOUND,
    _global_score, _product_bound, _score_placement, check_dim, perm_rank, pool, score_fixed,
)
from .errors import DataError, LomoError
from .inference import SOLVERS, solve_set


def _finite(value) -> bool:
    """``math.isfinite``, with an int too large for a float, as a JSON grid
    file can hold, counted as non-finite instead of raising."""
    try:
        return isfinite(value)
    except OverflowError:
        return False


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
        if not (_finite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        for name in ("lambda1", "lambda2", "init_scale"):
            v = getattr(self, name)
            if not (_finite(v) and v >= 0):
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
    """Final model plus diagnostics of one training run.

    ``certified`` counts the steps that ``train`` decided without calling
    the solver, because the sample's last exact placement already proved the
    margin (see ``_certifies``).
    """

    model: Model
    trace: List[Tuple[int, float]] = field(default_factory=list)
    violations: int = 0
    duration_s: float = 0.0
    certified: int = 0


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


# Solvers that return a maximizer of the score, so that any feasible
# placement's score bounds theirs from below.
_EXACT_SOLVERS = frozenset(("dp", "brute"))

_UNIT_ROUNDOFF = 2.0**-53  # u, for float64 with round to nearest


class _LastPlacements:
    """Each positive sample's last exact placement within one ``train`` call.

    ``entries`` maps a sample to ``(k, perm_rank)``; ``certified`` counts
    the steps that one of them decided without a solve. A placement stays
    feasible for the whole run, because ``effective_t`` depends only on the
    sample's length, M and the model's fixed coverage.
    """

    __slots__ = ("entries", "certified")

    def __init__(self):
        self.entries = {}
        self.certified = 0


def _certifies(model: Model, sample: SequenceSample, entry) -> bool:
    """True when the positive ``sample``'s exact placement under ``model``
    provably scores at least 1, judged from the stored placement ``entry``.

    Write B(k) = (1-g) * (template_score + ordering_cost) as
    ``_score_placement`` rounds it and A = g * global_score, so that a
    placement's total is T(k) = fl(A + B(k)) with the same float A for every
    k. Let L(k) be B(k) in exact arithmetic over the stored floats, with
    lam = fl(1 - g), and V(k) the value the exact solver compares, as
    ``inference._scaled`` defines it for every exact solver: its scaled
    responses fl(fl(lam/M) * <w_i, x_p>) summed over the slots, plus
    fl(lam * c). Both solvers maximize V exactly over the feasible
    placements: rounding is monotone, so ``infer_dp``'s stage
    fl(row[p] + max of later stage) is the largest rounded suffix sum, and
    ``infer_brute`` enumerates. Hence V(k*) >= V(s) for the solver's k* and
    the stored feasible s.

    Each term of V and B passes through one dot product of length d and at
    most M + 4 further roundings; the left-to-right sum of the M dots and
    the BLAS matmul's summation order are covered by allowing n = d + 2M + 4.
    By Higham's bound, |V(k) - L(k)| and |B(k) - L(k)| are at most
    e = gamma_n * lam * (R + C), gamma_n = n*u / (1 - n*u) <= 2*n*u, where
    R >= sum_j |w_ij| |x_pj| for every template i and frame p, and
    C >= max |c|. R = ``_product_bound``, d * max|w| * max|x| up to two
    roundings, and C = ||c||_2. Chaining, B(k*) >= L(k*) - e >= V(k*) - 2e
    >= V(s) - 2e >= B(s) - 4e.

    The step updates the model only if T(k*) < 1. As 1 is a float and fl
    is monotone, T(k*) >= 1 whenever A + B(k*) >= 1, which holds when
    A + B(s) >= 1 + 4e. The test ``T(s) >= fl(1 + delta)`` gives
    A + B(s) >= (1 + delta)(1 - u)^2 >= 1 + delta - 2u(1 + delta), which is
    at least 1 + 4e when delta >= 8e + 4u; delta = 16*n*u*(lam*(R + C) + 1)
    is enough. The code doubles that to 32*n*u*(...) to cover the rounding
    of R, of the norm and of delta itself, whose relative error stays below
    1/2 while (d*M + M! + d + 10) * u < 1/4. So a certified step is one whose
    solve would find no violation: skipping the solve leaves the model,
    violations and trace bit for bit as they were.
    """
    bound = _product_bound(model, sample)
    if bound > _SAFE_PRODUCT_BOUND:  # a response may overflow, which only a solve reports
        return False
    k, rank = entry
    try:
        lb = _score_placement(model, sample, k, rank).total
    except DataError:  # the stored placement's total overflows; the solve decides
        return False
    if lb < 1.0:
        return False
    c = model.ordering_costs
    scale = (1.0 - model.gamma_g) * (bound + sqrt(float(np.dot(c, c))))
    n = model.dim + 2 * model.n_events + 4
    return lb >= 1.0 + 32.0 * n * _UNIT_ROUNDOFF * (scale + 1.0)


def sgd_step(
    model: Model,
    sample: SequenceSample,
    config: TrainConfig,
    solver: str = "greedy",
    _last: Optional[_LastPlacements] = None,
) -> Model:
    """One stochastic update on one sample.

    Returns the model unchanged (same object) when the margin is satisfied.
    On a violation, templates shrink by (1 - lambda1 * eta) and absorb the
    chosen frames, the whole cost table shrinks by (1 - lambda2 * eta) and
    the entry of the realized pattern moves toward the label, and the global
    template absorbs the pooled sequence. The local and global parts are
    weighted by the model's ``gamma_g``, which also scores the sample. With
    ``ordinal_enabled=False`` the cost table is left untouched.

    ``train`` passes ``_last`` for an exact solver and ``gamma_g < 1``. On a
    positive sample the step then returns the model without solving when
    the sample's stored placement certifies the margin, and otherwise
    stores the placement it solves.
    """
    y = sample.label
    if y not in BINARY_LABELS:
        raise DataError(f"binary training expects labels -1/+1, got {y}")
    infer_fn = SOLVERS[solver]  # an unknown name fails at every gamma_g
    eta, gamma = config.eta, model.gamma_g
    if gamma == 1.0:
        # The placement has weight 0 in the score and in the update, so the
        # solver is skipped and the sample is scored by its global term.
        check_dim(model, sample)
        assignment = None
        total = _global_score(model, sample)
    else:
        if _last is not None and y == 1:
            entry = _last.entries.get(sample)
            if entry is not None and _certifies(model, sample, entry):
                _last.certified += 1
                return model
            assignment = infer_fn(model, sample)
            _last.entries[sample] = (assignment.k, assignment.perm_rank)
        else:
            assignment = infer_fn(model, sample)
        total = assignment.total
    if y * total >= 1.0:
        return model
    m = model.n_events
    shrink = 1.0 - config.lambda1 * eta
    # finite parameters and frames can still overflow the update; the
    # model's own finiteness check reports that, so numpy's warnings about
    # it would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        templates = model.templates * shrink
        if assignment is not None:
            templates += (eta * (1.0 - gamma) * y / m) * sample.frames[list(assignment.k)]
        if config.ordinal_enabled:
            costs = model.ordering_costs * (1.0 - config.lambda2 * eta)
            if assignment is not None:
                costs[assignment.perm_rank - 1] += eta * (1.0 - gamma) * y
        else:
            costs = model.ordering_costs
        global_template = model.global_template
        if global_template is not None:
            x_g = pool(sample, model.pooling)
            global_template = global_template * shrink + (eta * gamma * y) * x_g
    return model._stepped(templates, costs, global_template)


def _check_dataset(dataset: Sequence[SequenceSample], n_events: int) -> None:
    """Reject a dataset the trainer cannot run on, before the first step."""
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
        if s.n_frames < n_events:
            raise DataError(f"sample {s.id!r} has {s.n_frames} frames, fewer than M={n_events}")


def _regularizer(model: Model, config: TrainConfig) -> float:
    """lambda1/2 (sum_i ||w_i||^2 + ||w_g||^2) + lambda2/2 sum_j c_j^2.

    A finite parameter past about 1.3e154 squares to +inf; that runs with
    numpy's overflow warnings off and is left to its callers' ``_finite_loss``.
    """
    with np.errstate(over="ignore"):
        reg = 0.5 * config.lambda1 * float(np.sum(model.templates**2))
        if model.global_template is not None:
            reg += 0.5 * config.lambda1 * float(np.sum(model.global_template**2))
        reg += 0.5 * config.lambda2 * float(np.sum(model.ordering_costs**2))
    return reg


def _finite_loss(value: float, what: str) -> float:
    """value, unless finite parameters and scores summed or squared it past
    the float range: then a ``LomoError`` naming ``what``."""
    if not isfinite(value):
        raise LomoError(f"{what} overflows to a non-finite value")
    return value


def objective(
    model: Model,
    dataset: Sequence[SequenceSample],
    config: TrainConfig,
    solver: str = "greedy",
    _step: Optional[int] = None,
) -> float:
    """Exact regularized objective with scores from the named solver.

    The scores come from one ``solve_set`` call, so they are those of one
    solver call per sample, and the hinge is summed in dataset order. A
    score that overflows is ``solve_set``'s ``DataError``: for ``dp`` the
    first sample whose responses overflow, else the first whose global term
    or total does. Finite parameters and scores can still sum or square
    past the float range. A value that does is a ``LomoError``, not ±inf or
    a numpy warning; ``train`` passes ``_step`` so that the error names its
    step.
    """
    if not dataset:
        raise DataError("objective requires a non-empty dataset")
    hinge = 0.0
    for sample, assignment in zip(dataset, solve_set(model, dataset, solver)):
        hinge += max(0.0, 1.0 - sample.label * assignment.total)
    value = _regularizer(model, config) + hinge / len(dataset)
    return _finite_loss(value, "the objective" if _step is None else f"the objective at step {_step}")


# Below this many sample solves in a run's trace (samples x points), the
# trace stays in this process. Forking, the copy-on-write faults that follow
# and a pipe round trip per point cost 20-40 ms a run, which only a long
# enough trace earns back. On a 2-core x86-64 host shared with other
# tenants, in an 80 MB process, dp runs on d=16, N=30, M=3 sequences at 100
# steps per sequence, a trace point taking about 2.5 ms for 200 sequences
# (BENCH_objective_solve_set.json): the serial trace won at 8080 and 12120
# trace solves in every pass (172 against 201 ms and 555 against 618 ms in
# fresh processes), and from 16160 to 20200 the two came within 13% of each
# other, the serial one ahead in 7 of 8 pass medians. The constant sits
# below that tie, so perfbench's planted-dp trace (20200 solves) keeps its
# helper, which won all 4 pairs against a serial trace there.
_TRACE_HELPER_MIN_SOLVES = 16000

# The most bytes of trace requests sent to the helper and not yet answered.
# They fit in a pipe's default buffer (64 KiB on Linux, 16 KiB on macOS),
# and so do their answers, a few dozen bytes each, so sending does not wait
# on the helper, which never waits on this process to read. A larger
# request goes alone, once every earlier one is answered, to a helper that
# is then reading.
_TRACE_WINDOW_BYTES = 16384

# The objective and solvers of this package. The helper's calls are out of
# this process's sight, so a trace whose objective or solver has been put
# in their place (a profiler's or a test's wrapper) stays here.
_PACKAGE_OBJECTIVE = objective
_PACKAGE_SOLVERS = dict(SOLVERS)


class _Trace:
    """The objective trace of one ``train`` call, in step order.

    ``add(it, model)`` records the point after step ``it`` (0 before the
    first). The first point, and every point without a helper, is computed
    here. With a helper, a process running ``_answer_trace`` behind
    ``helper = (process, to_helper, from_helper)``, a later point's step and
    parameter arrays go there, and its model is kept until the answer comes
    back; once a request would take the waiting ones past
    ``_TRACE_WINDOW_BYTES``, the oldest is awaited first. The helper is given
    up when it reports a point failed, dies, or leaves an awaited answer
    unsent for ten times the first point's time here plus a second; this
    process then computes every point not yet answered. So each value and
    the first exception are those of computing every point here right after
    its step. ``settle`` completes every point added so far.
    """

    def __init__(self, dataset, config, solver, helper=None):
        self.work = (dataset, config, solver)
        self.helper, self.to_helper, self.from_helper = helper or (None, None, None)
        self.waiting = deque()  # (step, model, request bytes), sent to the helper
        self.in_flight = 0  # bytes of the waiting requests
        self.patience = None  # seconds to wait for one answer, set by the first point
        self.points: List[Tuple[int, float]] = []

    def add(self, it: int, model: Model) -> None:
        if self.helper is not None and self.patience is not None:
            request = pickle.dumps((it, model.templates, model.ordering_costs, model.global_template))
            while self.waiting and (self.in_flight + len(request) > _TRACE_WINDOW_BYTES
                                    or self.from_helper.poll()):
                self._next()
            if self.helper is not None:
                try:
                    self.to_helper.send_bytes(request)
                except OSError:  # a broken pipe: the helper is gone
                    self._give_up()
                else:
                    self.waiting.append((it, model, len(request)))
                    self.in_flight += len(request)
                    return
        self.settle()
        started = time.perf_counter()
        self.points.append((it, objective(model, *self.work, _step=it)))
        if self.patience is None:
            self.patience = 1.0 + 10.0 * (time.perf_counter() - started)

    def settle(self) -> None:
        while self.waiting:
            self._next()

    def _next(self) -> None:
        it, model, size = self.waiting.popleft()
        self.in_flight -= size
        value = None
        if self.helper is not None:
            try:
                if self.from_helper.poll(self.patience):
                    value = self.from_helper.recv()
            except (EOFError, OSError):  # the helper died
                pass
            if value is None:
                self._give_up()
        if value is None:
            value = objective(model, *self.work, _step=it)
        self.points.append((it, value))

    def _give_up(self) -> None:
        """Stop a helper that failed, died or hangs: from here on, this
        process computes every point."""
        self.helper.terminate()
        self.helper = None


def _answer_trace(requests, answers, unused, model: Model, dataset, config, solver) -> None:
    """The trace helper's body: answer each pickled ``(step, templates,
    costs, global_template)`` request, in order, with the objective at that
    step of ``model``'s twin with those parameters, until this process
    closes its end. A point that raises is answered with None and ends the
    helper."""
    for end in unused:
        end.close()
    while True:
        try:
            it, *parameters = pickle.loads(requests.recv_bytes())
        except EOFError:
            return
        try:
            value = objective(model._stepped(*parameters), dataset, config, solver, _step=it)
        except Exception:  # the parent computes this point again and raises what it raises
            answers.send(None)
            return
        answers.send(value)


@contextlib.contextmanager
def _trace(model: Model, dataset, config: TrainConfig, solver: str, points: int):
    """A ``_Trace`` for ``points`` trace points of a run from ``model``, on a
    helper when the trace makes at least ``_TRACE_HELPER_MIN_SOLVES`` sample
    solves, runs the package's own objective and solver, and
    ``helper_process`` starts one."""
    if (not points or len(dataset) * points < _TRACE_HELPER_MIN_SOLVES
            or objective is not _PACKAGE_OBJECTIVE
            or SOLVERS.get(solver) is not _PACKAGE_SOLVERS.get(solver)):
        yield _Trace(dataset, config, solver)
        return
    from multiprocessing import Pipe

    requests, to_helper = Pipe(duplex=False)
    from_helper, answers = Pipe(duplex=False)
    with to_helper, from_helper, helper_process(
        _answer_trace, requests, answers, (to_helper, from_helper), model, dataset, config, solver,
    ) as helper:
        # the helper's ends: once it is gone, this process reads EOF and
        # writes to a broken pipe
        requests.close()
        answers.close()
        yield _Trace(dataset, config, solver, None if helper is None else (helper, to_helper, from_helper))


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
    after the last step, and ``0`` records nothing. Each point scores every
    sample with one ``solve_set`` call; the trace never touches the random
    stream, so the model and ``violations`` do not depend on it. After the
    first point, a trace of at least ``_TRACE_HELPER_MIN_SOLVES`` sample solves
    runs on one forked helper while the steps run here, where
    ``helper_process`` allows one and ``objective`` and the solver are the
    package's own (a wrapper put in their place sees every call here); the
    report, the exception and its message are those of the serial run. A
    helper that fails, dies or stops answering is given up, and this
    process computes the points it left.

    With the ``dp`` or ``brute`` solver and ``gamma_g < 1``, each positive
    sample's last solved placement is kept for this call only; a step it
    certifies calls no solver and counts in ``TrainReport.certified``. The
    model, ``violations`` and ``trace`` are those of solving every step.

    A step whose update leaves a parameter non-finite raises ``LomoError``
    naming the step and the sample, and a trace point whose objective
    overflows raises ``LomoError`` naming the step; neither lets numpy warn.
    Whichever comes first in step order is raised, the trace point after
    step ``it`` coming after that step.
    """
    _check_dataset(dataset, config.M)
    if trace_every is not None and trace_every < 0:
        raise ValueError(f"trace_every must be non-negative or None, got {trace_every}")
    rng = np.random.default_rng(config.seed)
    model = init_model(config, dataset[0].dim, rng)
    if trace_every is None:
        trace_every = max(1, config.maxiter // 100)
    points = 0
    if trace_every:
        points = 1 + config.maxiter // trace_every + (config.maxiter % trace_every > 0)
    started = time.perf_counter()
    violations = 0
    last = None
    if solver in _EXACT_SOLVERS and config.gamma_g < 1.0:
        last = _LastPlacements()
    n = len(dataset)
    failure = None
    with _trace(model, dataset, config, solver, points) as trace:
        if trace_every:
            trace.add(0, model)
        for it in range(1, config.maxiter + 1):
            sample = dataset[int(rng.integers(n))]
            try:
                stepped = sgd_step(model, sample, config, solver, _last=last)
            except ValueError as exc:
                failure = LomoError(f"training diverged at step {it} on sample {sample.id!r}: {exc}")
                failure.__cause__ = exc
                break
            except Exception as exc:
                failure = exc
                break
            if stepped is not model:
                violations += 1
                model = stepped
            if trace_every and (it % trace_every == 0 or it == config.maxiter):
                trace.add(it, model)
        trace.settle()  # a trace point before a failed step raises first, as serially
    if failure is not None:
        raise failure
    return TrainReport(
        model=model,
        trace=trace.points,
        violations=violations,
        duration_s=time.perf_counter() - started,
        certified=0 if last is None else last.certified,
    )


def fixed_assignment_loss(
    model: Model,
    sample: SequenceSample,
    k: Sequence[int],
    config: TrainConfig,
) -> float:
    """Single-sample regularized hinge loss with the placement frozen at k.

    A score that overflows is ``score_fixed``'s ``DataError``, and a loss
    that overflows to a non-finite value is a ``LomoError``, as in
    ``objective``."""
    s = score_fixed(model, sample, k).total
    return _finite_loss(_regularizer(model, config) + max(0.0, 1.0 - sample.label * s),
                        "the fixed-assignment loss")


def fixed_assignment_gradient(
    model: Model,
    sample: SequenceSample,
    k: Sequence[int],
    config: TrainConfig,
):
    """Analytic subgradient of ``fixed_assignment_loss`` at the current model.

    Returns (d_templates, d_costs, d_global); d_global is None when the
    model has no global template. At the hinge kink (y * s == 1) the
    violation side is reported. A gradient entry that overflows to a
    non-finite value is a ``LomoError``, with no numpy warning.
    """
    y = sample.label
    k = tuple(int(x) for x in k)
    s = score_fixed(model, sample, k).total
    m = model.n_events
    gamma = model.gamma_g
    with np.errstate(over="ignore", invalid="ignore"):
        d_templates = config.lambda1 * model.templates
        d_costs = config.lambda2 * model.ordering_costs
        d_global = None
        if model.global_template is not None:
            d_global = config.lambda1 * model.global_template
        if y * s <= 1.0:
            d_templates -= ((1.0 - gamma) * y / m) * sample.frames[list(k)]
            d_costs[perm_rank(k) - 1] -= (1.0 - gamma) * y
            if d_global is not None:
                d_global -= gamma * y * pool(sample, model.pooling)
    if not all(np.isfinite(d).all() for d in (d_templates, d_costs, d_global) if d is not None):
        raise LomoError("the fixed-assignment gradient overflows to non-finite values")
    return d_templates, d_costs, d_global
