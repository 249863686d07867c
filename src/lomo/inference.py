"""Latent-placement solvers.

Three solvers maximize the model score over placements whose frames stay at
pairwise distance >= t_eff + 1:

* ``infer_greedy`` picks the best frame per template in index order and
  suppresses a window of ``t_eff`` frames on either side of each pick. Fast
  and approximate; this is the solver used inside training by default. If
  the windows use up the sequence first, it returns ``infer_dp``'s result.
* ``infer_dp`` is exact: it solves the position assignment of each of the
  M! temporal orderings by a suffix recurrence with a running maximum,
  computing each stage once for all orderings that share the suffix of
  slots it covers, then takes the best ordering including its cost-table
  entry.
* ``infer_brute`` enumerates every feasible placement. It exists as a
  testing oracle and is guarded against large instances.

Every solver takes ``(model, sample)`` and uses the model's stored coverage
radius, shrunk per sequence by ``effective_t`` so the constraint always
admits at least one placement; nothing overrides it. Tie-breaking is total
and documented per solver, making every result deterministic.

``solve_set`` solves a whole set of sequences under one model, as scoring an
evaluation set does. Its results are those of one solver call per sequence;
for ``dp`` it runs ``infer_dp``'s recurrence as array operations over all
the sequences at once, with bit-identical results. Training solves one
sequence per step and calls the solvers directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import List, Sequence

import numpy as np

from .core import (
    MAX_EVENTS, LatentAssignment, Model, SequenceSample, _responses, _score_placement, perm_rank,
)
from .core import score_fixed  # noqa: F401  (module attribute that tracers patch)
from .errors import InfeasibleError

BRUTE_FORCE_GUARD = 10**7
BLOCK_LEAVES = 24  # orderings per deferred choice in _solve_stack


@lru_cache(maxsize=4096)
def effective_t(n_frames: int, n_events: int, t: int) -> int:
    """Clamp the coverage radius so a feasible placement always exists.

    First caps t at floor(N / M); if M placements spaced t + 1 apart still
    do not fit in N frames, shrinks further to floor((N - M) / (M - 1)).
    The arguments are ints and the results are memoized; a raised
    ``InfeasibleError`` is not, so it is raised on every call.
    """
    if n_frames < n_events:
        raise InfeasibleError(
            f"sequence shorter than number of events (N={n_frames} < M={n_events})"
        )
    t1 = min(int(t), n_frames // n_events)
    if n_events == 1:
        return t1
    if (n_events - 1) * (t1 + 1) + 1 > n_frames:
        return (n_frames - n_events) // (n_events - 1)
    return t1


@lru_cache(maxsize=MAX_EVENTS)
def _plan(m: int):
    """The M! temporal orderings of M templates, enumerated once per M.

    Returns ``(slot_orders, slot_array, walk)``. ``slot_orders[rank0][j]`` is
    the template in temporal slot j under the ordering of 0-based permutation
    rank ``rank0``, and ``slot_array`` is the same table as an (M!, M) array.

    ``walk`` is the trie of slot-order suffixes in depth-first order. Slots
    are filled from the last one backwards, and the children of a node come
    in increasing template order. Each entry is ``(j, template, rank0, row,
    ranks)``: the node puts ``template`` in slot j. A node's parent is the
    latest earlier entry at slot j + 1, so one stage per slot, overwritten in
    this order, keeps each node's parent stage at hand. The last three
    fields are None except at a leaf (j == 0), where ``rank0`` is the rank of
    the completed ordering. Consecutive leaves form blocks of
    ``BLOCK_LEAVES``, the last one possibly shorter: ``row`` is the leaf's
    row in its block, whose rows go in increasing rank order, and at a
    block's last leaf ``ranks`` holds the block's ranks in row order.
    """
    slot_orders = tuple(
        tuple(sorted(range(m), key=pattern.__getitem__)) for pattern in permutations(range(m))
    )
    rank_of = {order: rank0 for rank0, order in enumerate(slot_orders)}
    walk = []
    leaves = []  # walk indices of the leaves, in walk order

    def visit(j, suffix):
        for tpl in range(m):
            if tpl in suffix:
                continue
            order = (tpl,) + suffix
            if j:
                walk.append((j, tpl, None, None, None))
                visit(j - 1, order)
            else:
                leaves.append(len(walk))
                walk.append((0, tpl, rank_of[order], None, None))

    visit(m - 1, ())
    for start in range(0, len(leaves), BLOCK_LEAVES):
        block = leaves[start : start + BLOCK_LEAVES]
        ranks = sorted(walk[i][2] for i in block)
        for i in block:
            walk[i] = walk[i][:3] + (ranks.index(walk[i][2]), None)
        walk[block[-1]] = walk[block[-1]][:4] + (np.array(ranks, dtype=np.intp),)
    return slot_orders, np.array(slot_orders, dtype=np.intp), tuple(walk)


def _scaled(model: Model, sample: SequenceSample):
    """The stage gap ``effective_t + 1`` and the scaled responses
    fl(fl((1 - gamma_g) / M) * resp) of the exact solvers.

    The one definition of the value V they compare: a placement's scaled
    responses summed over its slots, plus its ordering's weighted cost
    fl((1 - gamma_g) * c). That is the blended total up to the constant
    global term; with gamma_g == 1 every placement ties and the tie-breaking
    rules pick rank 1 at the earliest positions.
    """
    gap = effective_t(sample.n_frames, model.n_events, model.coverage) + 1
    return gap, ((1.0 - model.gamma_g) / model.n_events) * _responses(model, sample)


def infer_greedy(model: Model, sample: SequenceSample) -> LatentAssignment:
    """Greedy suppression solver.

    Templates are processed in fixed index order. Each takes the remaining
    frame with the highest response (ties toward the smallest index), then
    frames within ``t_eff`` on either side are removed from the candidate
    set. When the suppression windows cover the whole sequence before all
    templates are placed, the sample is solved by ``infer_dp`` instead.
    """
    t_eff = effective_t(sample.n_frames, model.n_events, model.coverage)
    resp = _responses(model, sample)
    alive = np.ones(sample.n_frames, dtype=bool)
    k = []
    for row in resp:
        if not alive.any():
            return infer_dp(model, sample)
        ki = int(np.argmax(np.where(alive, row, -np.inf)))  # smallest index wins ties
        k.append(ki)
        alive[max(0, ki - t_eff): ki + t_eff + 1] = False
    return _score_placement(model, sample, tuple(k), perm_rank(k))


def _stage(row, nxt, n: int, gap: int):
    """One step of the suffix recurrence: ``row[p]`` plus the best total of
    the later slots, ``max(nxt[p + gap:])`` kept as a running maximum, or
    -inf where no later frame fits. O(N)."""
    out = [0.0] * n
    run = -np.inf
    for p in range(n - 1, -1, -1):
        q = p + gap
        if q < n and nxt[q] > run:
            run = nxt[q]
        out[p] = row[p] + run
    return out


def infer_dp(model: Model, sample: SequenceSample) -> LatentAssignment:
    """Exact solver.

    Walks the M! temporal orderings depth first, filling slots from the last
    one backwards, so orderings that share the templates of slots j..M-1
    share the suffix stages of those slots and each stage is computed once.
    An ordering's value is the best total of its stage 0 plus its cost-table
    entry. Ties across orderings go to the smallest permutation rank, ties
    across positions to the lexicographically smallest position vector,
    which is backtracked for the winning ordering only.
    """
    gap, scaled = _scaled(model, sample)
    m, n = scaled.shape
    rows = scaled.tolist()
    weighted_costs = model._weighted_costs[1]
    slot_orders, _, walk = _plan(m)
    last = m - 1
    stages = [None] * m  # stages[j]: suffix stage of slot j on the current path
    best_value = -np.inf
    best_rank0 = len(slot_orders)  # past every rank, so a value of -inf is taken too
    best_stages = None
    for j, tpl, rank0, _, _ in walk:
        stages[j] = rows[tpl] if j == last else _stage(rows[tpl], stages[j + 1], n, gap)
        if rank0 is None:
            continue
        value = max(stages[0]) + weighted_costs[rank0]
        if value > best_value or (value == best_value and rank0 < best_rank0):
            best_value = value
            best_rank0 = rank0
            best_stages = stages[:]
    slot_templates = slot_orders[best_rank0]
    k = [0] * m
    pos = -gap
    for j in range(m):
        seg = best_stages[j][pos + gap:]
        pos += gap + seg.index(max(seg))
        k[slot_templates[j]] = pos
    return _score_placement(model, sample, tuple(k), best_rank0 + 1)


def infer_brute(model: Model, sample: SequenceSample) -> LatentAssignment:
    """Exhaustive oracle over all feasible placements.

    Same tie-breaking as ``infer_dp``. Guarded: refuses instances with
    N^M above ``BRUTE_FORCE_GUARD``.
    """
    m = model.n_events
    n = sample.n_frames
    if n**m > BRUTE_FORCE_GUARD:
        raise InfeasibleError(
            f"instance too large for brute force (N^M = {n**m} > {BRUTE_FORCE_GUARD})"
        )
    gap, scaled = _scaled(model, sample)
    combos = np.array(
        [c for c in combinations(range(n), m) if all(c[j + 1] - c[j] >= gap for j in range(m - 1))],
        dtype=np.int64,
    )
    weighted_costs = model._weighted_costs[0]
    best_value = -np.inf
    best_k = None
    best_rank0 = 0
    for rank0, slot_templates in enumerate(_plan(m)[0]):
        with np.errstate(over="ignore"):  # as in infer_dp's float sums: +-inf, no warning
            values = scaled[slot_templates[0]][combos[:, 0]].copy()
            for j in range(1, m):
                values += scaled[slot_templates[j]][combos[:, j]]
            values += weighted_costs[rank0]
        idx = int(np.argmax(values))  # combos are lexicographic, first max wins
        if best_k is None or values[idx] > best_value:
            best_value = float(values[idx])
            k = [0] * m
            for j, tpl in enumerate(slot_templates):
                k[tpl] = int(combos[idx, j])
            best_k = k
            best_rank0 = rank0
    return _score_placement(model, sample, tuple(best_k), best_rank0 + 1)


def _best_orderings(rows, gap: int, weighted_costs, walk):
    """The ordering search of ``_solve_stack``: each sequence's best 0-based
    permutation rank."""
    m, length, size = rows.shape
    if m == 1:
        return np.zeros(size, dtype=np.intp)
    last = m - 1
    width = length - gap  # effective_t keeps gap < L whenever M >= 2
    # later[t][q]: the best entry of row t from frame gap + q on, max(rows[t][gap + q:])
    later = np.ascontiguousarray(np.maximum.accumulate(rows[:, ::-1][:, :width], axis=1)[:, ::-1])
    runs = np.empty((m, width, size))  # runs[j]: running maximum of slot j's stage, j >= 2
    stage = np.full((width, size), -np.inf)  # no later slot fits in the first gap rows
    totals = np.empty((width, size))
    block = np.empty((BLOCK_LEAVES, size))
    best_value = np.full(size, -np.inf)
    best_rank0 = np.zeros(size, dtype=np.intp)
    seq = np.arange(size)
    for j, tpl, _, row, ranks in walk:
        if row is None:
            if j == last:
                current = rows[tpl][:width]
            else:
                np.add(rows[tpl][gap:width], runs[j + 1][: width - gap], out=stage[gap:])
                current = stage
            if j > 1:
                np.maximum.accumulate(current, axis=0, out=runs[j])
            continue
        # a leaf directly follows its slot-1 parent, whose stage is `current`
        np.add(current, later[tpl], out=totals)
        totals.max(axis=0, out=block[row])
        if ranks is None:
            continue
        values = block[: len(ranks)]
        values += weighted_costs[ranks][:, None]
        pick = values.argmax(axis=0)  # the first maximum: the smallest rank among ties
        value = values[pick, seq]
        rank0 = ranks[pick]
        better = (value > best_value) | ((value == best_value) & (rank0 < best_rank0))
        np.copyto(best_value, value, where=better)
        np.copyto(best_rank0, rank0, where=better)
    return best_rank0


def _solve_stack(rows, gap: int, weighted_costs):
    """``infer_dp``'s ordering search and backtrack for S sequences at once.

    ``rows`` is the (M, L, S) stack of scaled responses of S sequences that
    share the stage gap: one column per sequence, its frames in reverse
    order, -inf above its last frame. Read in reverse, ``_stage``'s running
    maximum over the later frames is ``np.maximum.accumulate`` down the
    parent stage, so each stage entry is the same IEEE sum ``_stage`` forms
    and every comparison comes out as in ``infer_dp``. Each stage's running
    maximum is kept per slot and shared by all the stage's children.

    Slot 0, the last one filled, needs no running maximum. A slot-1 node has
    one leaf child, of template t; with ``a = rows[t][gap:]`` and ``S1`` the
    parent stage, the leaf's best stage-0 entry is

        max_r fl(a_r + max_{q<=r} S1_q) = max_q fl(S1_q + max_{r>=q} a_r),

    because ``fl(x + .)`` is monotone and float addition commutes. So the
    reversed running maxima ``max_{r>=q} a_r`` are taken once per template,
    not once per slot-1 node. This is exact while no row holds +inf or NaN,
    which ``_responses`` ensures; the -inf padding stays -inf.

    The ordering is chosen per block of ``BLOCK_LEAVES`` leaves, not per
    leaf. Each leaf's value plus its cost-table entry goes into a buffer row,
    the rows in increasing rank order; the block's winner is the first
    maximum, so the smallest rank among ties, and it replaces the running
    best if its value is larger, or equal with a smaller rank. That is
    ``infer_dp``'s rule: the largest value, ties to the smallest rank.

    Returns each sequence's placement as a tuple and its 0-based
    permutation rank.
    """
    m, length, size = rows.shape
    _, slot_array, walk = _plan(m)
    best_rank0 = _best_orderings(rows, gap, weighted_costs, walk)
    last = m - 1
    width = max(length - gap, 0)
    # Recompute the winning ordering's stages per sequence and backtrack in
    # frame order.
    slot_templates = slot_array[best_rank0]  # (S, M)
    seq = np.arange(size)
    stages = np.full((m, length, size), -np.inf)
    stages[last] = rows[slot_templates[:, last], :, seq].T
    for j in range(last - 1, -1, -1):
        run = np.maximum.accumulate(stages[j + 1][:width], axis=0)
        np.add(rows[slot_templates[:, j], gap:, seq].T, run, out=stages[j][gap:])
    frames = np.arange(length)[:, None]
    k = np.empty((size, m), dtype=np.intp)
    pos = np.full(size, -gap)
    for j in range(m):
        seg = np.where(frames >= pos + gap, stages[j][::-1], -np.inf)
        pos = seg.argmax(axis=0)  # the first maximum, as seg.index(max(seg)) picks
        k[seq, slot_templates[:, j]] = pos
    return [tuple(row) for row in k.tolist()], best_rank0.tolist()


def _solve_set_dp(model: Model, samples: Sequence[SequenceSample]) -> List[LatentAssignment]:
    m = model.n_events
    # Check and scale every sample in input order first, and score the
    # placements in input order last, so each check names its first bad
    # sample.
    scaled = []
    groups = {}
    for i, sample in enumerate(samples):
        gap, responses = _scaled(model, sample)
        scaled.append(responses)
        # lengths within a factor of two share a stack, so padding at most doubles it
        groups.setdefault((gap, sample.n_frames.bit_length()), []).append(i)
    weighted_costs = model._weighted_costs[0]
    placed = [None] * len(samples)  # (k, perm_rank) per sample
    for (gap, _), members in groups.items():
        length = max(samples[i].n_frames for i in members)
        rows = np.full((m, length, len(members)), -np.inf)
        for s, i in enumerate(members):
            rows[:, length - samples[i].n_frames :, s] = scaled[i][:, ::-1]
        with np.errstate(over="ignore"):  # as in infer_dp's float sums: +-inf, no warning
            placements, ranks0 = _solve_stack(rows, gap, weighted_costs)
        for i, k, rank0 in zip(members, placements, ranks0):
            placed[i] = (k, rank0 + 1)
    return [_score_placement(model, s, k, rank) for s, (k, rank) in zip(samples, placed)]


def solve_set(model: Model, samples: Sequence[SequenceSample], solver: str) -> List[LatentAssignment]:
    """``[SOLVERS[solver](model, s) for s in samples]``, in input order.

    For ``"dp"`` the suffix recurrence runs over all the samples at once:
    samples that share ``effective_t`` and a length within a factor of two
    are stacked, padded with -inf, and each suffix stage is one array
    operation over the stack. Every result equals ``infer_dp``'s bit for
    bit. An invalid set raises what ``infer_dp`` raises on the first sample
    whose responses overflow, else on the first whose global term or total
    does.
    """
    if solver == "dp":
        return _solve_set_dp(model, samples)
    infer = SOLVERS[solver]
    return [infer(model, s) for s in samples]


SOLVERS = {
    "greedy": infer_greedy,
    "dp": infer_dp,
    "brute": infer_brute,
}

