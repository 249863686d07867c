"""Finite input gives finite results or a typed error, on every path.

One property covers the overflow class: tiny datasets whose entries range
from 1e-300 to 1.7e308 go through training (every solver, traced at each
step), the objective, the fixed-assignment loss and gradient, prediction,
late fusion, cross-validation and the CLI. Each call must return finite
values or raise ``DataError``/``LomoError``; each CLI run must exit 0 with
finite output, or exit 2 or 3. numpy's ``RuntimeWarning`` is an error, as
in every test (the pytest configuration in ``pyproject.toml``).
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from math import factorial, isfinite
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lomo import (
    KINDS,
    LomoError,
    Manifest,
    ManifestEntry,
    Model,
    ModelSpec,
    SequenceSample,
    TrainConfig,
    cross_validate,
    fixed_assignment_gradient,
    fixed_assignment_loss,
    late_fusion,
    load_model,
    make_folds,
    objective,
    predict,
    predict_table,
    save_manifest,
    save_model,
    solve_set,
    train_spec,
    write_lseq,
)
from lomo.cli import main
from lomo.inference import SOLVERS
from lomo.pipeline import PRESETS

LADDER = (0.0,) + tuple(s * v for v in (1e-300, 1.0, 1e150, 4e153, 1e200, 1.7e308) for s in (1, -1))


def _array(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.sampled_from(LADDER), min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def problems(draw):
    """(samples, spec, model, tables, weights): 2-4 sequences of 1-5 frames
    in dimension 1-3, labels alternating from +1, a model kind at M 1-2 and
    a few steps, a model of that kind's shape, two score tables over the
    sequences and two fusion weights, all entries from the same ladder."""
    d = draw(st.integers(1, 3))
    samples = [
        SequenceSample(f"s{i}", 1 - 2 * (i % 2), _array(draw, (draw(st.integers(1, 5)), d)))
        for i in range(draw(st.integers(2, 4)))
    ]
    config = TrainConfig(
        M=draw(st.integers(1, 2)), eta=draw(st.sampled_from((0.05, 1.0, 10.0, 100.0))),
        gamma_g=0.5, coverage_t=draw(st.integers(0, 1)), maxiter=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 3)), pooling=draw(st.sampled_from(("mean", "max"))),
    )
    spec = ModelSpec(draw(st.sampled_from(KINDS)), config)
    r = spec.resolved()
    model = Model(
        templates=_array(draw, (r.M, d)), ordering_costs=_array(draw, (factorial(r.M),)),
        global_template=_array(draw, (d,)) if r.gamma_g else None,
        gamma_g=r.gamma_g, pooling=r.pooling, coverage=r.coverage_t,
    )
    tables = [_array(draw, (len(samples),)) for _ in range(2)]
    return samples, spec, model, tables, _array(draw, (2,))


def ladder_problem(kind, template, global_template=None):
    """A problem of ``problems``' shape at M = 2: templates ``[[template]] * 2``
    with zero costs and max pooling, a +1 sequence of two frames of 1.7e308
    and a -1 sequence of two frames of 1.0, so that the +1 local score
    overflows although every response and the pooled frame are finite."""
    samples = [SequenceSample("s0", 1, np.full((2, 1), 1.7e308)),
               SequenceSample("s1", -1, np.ones((2, 1)))]
    spec = ModelSpec(kind, TrainConfig(M=2, gamma_g=0.5, coverage_t=0, maxiter=2, pooling="max"))
    r = spec.resolved()
    model = Model(templates=[[template], [template]], ordering_costs=[0.0, 0.0],
                  global_template=global_template, gamma_g=r.gamma_g, pooling=r.pooling,
                  coverage=r.coverage_t)
    return samples, spec, model, [np.array([1.0, -1.0])] * 2, np.array([1.0, 1.0])


def finite_or_typed(call):
    """call()'s result, or None when it raises a typed error."""
    try:
        return call()
    except LomoError:  # DataError and InfeasibleError included
        return None


def all_finite(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=float)).all())


def check_fusion(tables, weights):
    for fusion in (lambda: late_fusion(tables), lambda: late_fusion(tables, "zscore_weighted"),
                   lambda: late_fusion(tables, "zscore_weighted", weights)):
        fused = finite_or_typed(fusion)
        assert fused is None or all_finite(fused), (tables, weights, fused)


def check_library(samples, spec, model, tables, weights):
    config = spec.resolved()
    check_fusion(tables, weights)
    for sample in samples:
        if sample.n_frames >= config.M:
            k = range(config.M)
            loss = finite_or_typed(lambda: fixed_assignment_loss(model, sample, k, config))
            assert loss is None or isfinite(loss), (sample, loss)
            gradient = finite_or_typed(lambda: fixed_assignment_gradient(model, sample, k, config))
            assert gradient is None or all(all_finite(g) for g in gradient if g is not None)
    for solver in SOLVERS:
        report = finite_or_typed(lambda: train_spec(samples, spec, solver, trace_every=1))
        if report is not None:
            assert len(report.trace) == config.maxiter + 1
            assert all_finite([value for _, value in report.trace]), (solver, report.trace)
        value = finite_or_typed(lambda: objective(model, samples, config, solver))
        assert value is None or isfinite(value), (solver, value)
        table = finite_or_typed(lambda: predict_table(model, samples, solver))
        assert table is None or all_finite(table), (solver, table)
        # a set that cannot be scored has no objective either
        assert table is not None or value is None, (solver, value)
        if table is not None:
            check_fusion([table, table], weights)
        for sample in samples:
            score = finite_or_typed(lambda: predict(model, sample, solver))
            assert score is None or isfinite(score), (solver, sample, score)
        for a in finite_or_typed(lambda: solve_set(model, samples, solver)) or ():
            assert isfinite(a.global_score), (solver, a)
            assert isfinite(a.total), (solver, a)
            # at gamma_g == 1 the local part has weight 0
            assert model.gamma_g < 1.0 or a.total == a.global_score, (solver, a)
    folds = make_folds(samples, "random_k_fold", k=2, seed=config.seed)
    report = finite_or_typed(lambda: cross_validate(samples, folds, spec, ("acc",), "dp"))
    assert report is None or all_finite(list(report.aggregate.values())), report


def run_cli(argv):
    """main(argv)'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_cli(samples, spec, model, directory: Path):
    config = spec.resolved()
    for s in samples:
        write_lseq(directory / f"{s.id}.lseq", [s])
    manifest = str(directory / "m.json")
    save_manifest(manifest, Manifest(1, samples[0].dim, [
        ManifestEntry(path=f"{s.id}.lseq", label=s.label) for s in samples]))
    kind = PRESETS[spec.kind][0]
    flags = ["--model-kind", kind, "--events", str(config.M), "--eta", str(config.eta),
             "--gamma-g", "0.5", "--coverage-t", str(config.coverage_t),
             "--maxiter", str(config.maxiter), "--seed", str(config.seed),
             "--pooling", config.pooling]
    given_model = directory / "given.bin"
    save_model(given_model, model, kind=spec.kind)
    trained = directory / "trained.bin"
    rc, out, err = run_cli(
        ["train", "--manifest", manifest, *flags, "--solver", "dp", "--out", str(trained)])
    assert rc in (0, 2, 3), err
    if rc == 0:
        assert isfinite(float(re.search(r" objective=(\S+) ", out).group(1))), out
        loaded = load_model(trained).model
        assert all_finite(loaded.templates) and all_finite(loaded.ordering_costs)
    model_paths = (given_model, trained) if rc == 0 else (given_model,)
    for model_path in model_paths:
        scores = directory / "scores.tsv"
        rc, _, err = run_cli(["predict", "--model", str(model_path), "--manifest", manifest,
                              "--solver", "dp", "--out", str(scores)])
        assert rc in (0, 2, 3), err
        if rc == 0:
            with open(scores, newline="") as fh:
                assert all_finite([row["score"] for row in csv.DictReader(fh, delimiter="\t")])
    fused = directory / "fused.json"
    for fusion in ("equal", "zscore"):
        rc, _, err = run_cli(["fuse", "--manifest", manifest,
                              "--models", f"{model_paths[0]},{model_paths[-1]}",
                              "--fusion", fusion, "--solver", "dp", "--out", str(fused)])
        assert rc in (0, 2, 3), err
        if rc == 0:
            assert all_finite(list(json.loads(fused.read_text())["metrics"].values()))
    report = directory / "cv.json"
    rc, _, err = run_cli(["eval", "--manifest", manifest, *flags, "--folds", "random:2",
                          "--metrics", "acc", "--out", str(report)])
    assert rc in (0, 2, 3), err
    if rc == 0:
        assert all_finite(list(json.loads(report.read_text())["aggregate"].values()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=problems())
# the drawn examples reach no overflowing total; these two do, from the ladder
@example(problem=ladder_problem("LOMo", 1.0))  # the total overflows: a DataError
@example(problem=ladder_problem("GTP", 1.0, [1e-300]))  # the weight-0 local part overflows
def test_finite_input_gives_finite_output_or_a_typed_error(problem):
    samples, spec, model, tables, weights = problem
    check_library(samples, spec, model, tables, weights)
    with tempfile.TemporaryDirectory() as directory:
        check_cli(samples, spec, model, Path(directory))
