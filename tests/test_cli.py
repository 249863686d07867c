import csv
import json
import os
import re
import warnings

import numpy as np
import pytest

from lomo import load_model
from lomo.cli import main
from conftest import write_bad_model_headers


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    rc = main([
        "synth", "--out-dir", str(out), "--dim", "6", "--n-min", "10", "--n-max", "14",
        "--m-true", "2", "--n-pos", "12", "--n-neg", "12", "--noise-sigma", "0.1",
        "--neg-mode", "events_absent", "--min-gap", "1", "--seed", "3",
    ])
    assert rc == 0
    return out


def write_three_class_manifest(directory, rng):
    """Nine 8-frame sequences, labels 0, 1, 2 in turn, listed in mc.json."""
    from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

    entries = []
    for i in range(9):
        sid, label = f"mc{i}", i % 3
        write_lseq(
            directory / f"{sid}.lseq",
            [SequenceSample(sid, label, rng.standard_normal((8, 3)))],
        )
        entries.append(ManifestEntry(path=f"{sid}.lseq", label=label))
    save_manifest(directory / "mc.json", Manifest(1, 3, entries))


def write_manifest_of_lengths(directory, lengths, rng):
    """One 3-dimensional sequence per length, ids len0, len1, ..., labels
    -1, +1 in turn, listed in lengths.json."""
    from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

    entries = []
    for i, n in enumerate(lengths):
        sid, label = f"len{i}", 1 if i % 2 else -1
        frames = rng.standard_normal((n, 3))
        write_lseq(directory / f"{sid}.lseq", [SequenceSample(sid, label, frames)])
        entries.append(ManifestEntry(path=f"{sid}.lseq", label=label))
    save_manifest(directory / "lengths.json", Manifest(1, 3, entries))


# the exact message of a grid file's range errors, by file text
GRID_ERRORS = {
    '{"gamma_g": [0, 2]}': "gamma_g must lie in [0, 1], got 2",
    '{"lambda1": [1' + "0" * 400 + "]}": "lambda1 must be non-negative and finite",
    '{"lambda1": []}': "lambda1 must list at least one value, got []",
    '{"coverage_t": []}': "coverage_t must list at least one value, got []",
}


# the three scoring commands: cross-validation, grid search and late fusion
SCORING_MODES = pytest.mark.parametrize(
    "mode",
    [["eval"], ["eval", "--grid", "missing-grid.json"], ["fuse", "--models", "missing.bin"]],
    ids=["cv", "grid", "fuse"],
)


def run_module(argv):
    """``python -W always -m lomo.cli argv`` in a fresh process, importing
    this checkout's package: its exit code, stdout and stderr."""
    import subprocess
    import sys

    import lomo

    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = os.path.dirname(os.path.dirname(lomo.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "always", "-m", "lomo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def read_tsv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh, delimiter="\t"))


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "train.json").exists()
        assert (synth_dir / "test.json").exists()
        assert (synth_dir / "synth.run.json").exists()
        train_files = list((synth_dir / "train").glob("*.lseq"))
        assert len(train_files) == 12

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_noise_sigma_that_is_not_finite_is_a_usage_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "data"
        assert main([
            "synth", "--out-dir", str(out), "--dim", "4", "--n-min", "8", "--n-max", "8",
            "--m-true", "2", "--n-pos", "2", "--n-neg", "2", "--noise-sigma", sigma,
        ]) == 1
        assert capsys.readouterr().err == (
            f"lomo: invalid arguments: noise_sigma must be finite, got {sigma}\n")
        assert not out.exists()

    def test_noise_that_overflows_a_frame_exits_2_from_a_real_process(self, tmp_path):
        # what reaches the process's own stderr: the one error line, no
        # numpy warning about the overflowing draws
        out = tmp_path / "data"
        done = run_module(
            ["synth", "--out-dir", str(out), "--dim", "8", "--n-min", "40", "--n-max", "40",
             "--m-true", "2", "--n-pos", "4", "--n-neg", "4", "--noise-sigma", "1e308"])
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            "lomo: data error: sample 'pos0000': frames contain non-finite values\n")
        assert done.stdout == ""
        assert not out.exists()


class TestTrain:
    def test_mil_kind_forces_single_event(self, synth_dir, tmp_path):
        out = tmp_path / "mil.bin"
        rc = main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--events", "3", "--maxiter", "200", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        loaded = load_model(out)
        assert loaded.kind == "MIL"
        assert loaded.model.n_events == 1  # forced despite --events 3
        assert not loaded.model.ordering_costs.any()
        assert (tmp_path / "mil.bin.run.json").exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        rc = main([
            "train", "--manifest", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x.bin"),
        ])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--eta", "-1", "eta must be positive and finite, got -1.0"),
            ("--events", "9", "M must lie in [1, 8], got 9"),
            ("--gamma-g", "2", "gamma_g must lie in [0, 1], got 2.0"),
        ],
    )
    def test_bad_flag_value_is_reported_before_the_manifest_is_read(
        self, tmp_path, capsys, command, flag, value, message
    ):
        # the manifest does not exist: the flag value is checked first
        out = tmp_path / "out.bin"
        rc = main([
            command, "--manifest", str(tmp_path / "missing.json"), flag, value, "--out", str(out),
        ])
        assert rc == 1
        assert f"lomo: invalid arguments: {message}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.bin.run.json").exists()

    def test_same_flags_byte_identical_models(self, synth_dir, tmp_path):
        args = [
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "lomo",
            "--events", "2", "--maxiter", "150", "--seed", "9", "--coverage-t", "1",
        ]
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exits_1(self, capsys):
        assert main(["train", "--bogus-flag"]) == 1

    def test_infeasible_instance_exits_3(self, tmp_path, capsys, rng):
        from lomo import Model, save_model

        write_manifest_of_lengths(tmp_path, [2, 2], rng)
        model = Model(templates=np.ones((3, 3)), ordering_costs=np.zeros(6))
        save_model(tmp_path / "m3.bin", model)
        # two-frame sequences cannot host three events
        rc = main([
            "predict", "--model", str(tmp_path / "m3.bin"),
            "--manifest", str(tmp_path / "lengths.json"), "--out", str(tmp_path / "p.tsv"),
        ])
        assert rc == 3
        assert "shorter than number of events" in capsys.readouterr().err
        assert not (tmp_path / "p.tsv").exists()

    def test_sequence_shorter_than_events_exits_2_before_training(self, tmp_path, capsys, rng):
        write_manifest_of_lengths(tmp_path, [8, 8, 8, 2, 8, 8], rng)
        out = tmp_path / "x.bin"
        rc = main([
            "train", "--manifest", str(tmp_path / "lengths.json"), "--events", "3",
            "--solver", "dp", "--maxiter", "200", "--out", str(out),
        ])
        assert rc == 2
        assert "sample 'len3' has 2 frames" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.bin.run.json").exists()

    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_overflowing_responses_exit_2(self, tmp_path, capsys, solver):
        # frames near 1e200 are finite, but once a step moves the templates
        # toward them the template responses overflow
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        rng = np.random.default_rng(3)
        entries = []
        for i in range(4):
            sid, label = f"huge{i}", 1 if i % 2 else -1
            write_lseq(tmp_path / f"{sid}.lseq",
                       [SequenceSample(sid, label, 1e200 * rng.standard_normal((6, 2)))])
            entries.append(ManifestEntry(path=f"{sid}.lseq", label=label))
        save_manifest(tmp_path / "huge.json", Manifest(1, 2, entries))
        out = tmp_path / "huge.bin"
        assert main([
            "train", "--manifest", str(tmp_path / "huge.json"), "--events", "2",
            "--coverage-t", "1", "--maxiter", "20", "--solver", solver, "--out", str(out),
        ]) == 2
        assert "template responses overflow to non-finite values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_a_score_past_the_float_range_exits_2(self, tmp_path, capsys, solver):
        # both responses are finite, but their sum, the score, is +inf
        (tmp_path / "big.lseq").write_text("lseq 1 1\nseq big 1 - 2\n1.5e308\n1.5e308\n")
        (tmp_path / "m.json").write_text(
            '{"version": 1, "dim": 1, "entries": [{"path": "big.lseq", "label": 1}]}')
        out = tmp_path / "big.bin"
        # seed 1 draws initial templates of 0.51 and 0.95 on [0, 1]
        assert main([
            "train", "--manifest", str(tmp_path / "m.json"), "--events", "2", "--coverage-t", "0",
            "--init-scale", "1", "--seed", "1", "--solver", solver, "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "lomo: data error: sample 'big': the score overflows to non-finite values\n")
        assert not out.exists() and not (tmp_path / "big.bin.run.json").exists()

    @pytest.mark.parametrize("solver", ["greedy", "dp", "brute"])
    def test_overflow_prints_no_numpy_warning(self, tmp_path, capsys, solver):
        # the CI overflow step's data: finite frames near 1e200
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        frames = {"a": (1, [[1e200, 1e200], [-1e200, 2e200], [1e200, 1e200]]),
                  "b": (-1, [[1e200, -1e200], [1e200, 2e200], [-1e200, 1e200]])}
        for sid, (label, rows) in frames.items():
            write_lseq(tmp_path / f"{sid}.lseq", [SequenceSample(sid, label, np.array(rows))])
        save_manifest(tmp_path / "m.json", Manifest(1, 2, [
            ManifestEntry(path=f"{sid}.lseq", label=label) for sid, (label, _) in frames.items()
        ]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "train", "--manifest", str(tmp_path / "m.json"), "--events", "2",
                "--coverage-t", "0", "--maxiter", "20", "--solver", solver,
                "--out", str(tmp_path / "huge.bin"),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lomo: data error: ")
        assert "template responses overflow to non-finite values" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "n_frames, rows, flags",
        [(3, ("1e160 1e160", "-1e160 1e160"), ("--maxiter", "50")),
         (4, ("1e308 1e308", "-1e308 -1e308"), ("--maxiter", "20"))],
        ids=["product", "mean-sum"],
    )
    def test_an_overflowing_global_term_exits_2(self, tmp_path, capsys, n_frames, rows, flags):
        # every value is finite: with rows near 1e160 the global template's
        # product overflows once training moves it toward them; four rows of
        # +-1e308 overflow the mean pooling's sum before the first update
        from lomo import Manifest, ManifestEntry, Model, save_manifest, save_model

        entries = []
        for i in range(4):
            label = -1 if i % 2 else 1
            (tmp_path / f"s{i}.lseq").write_text(
                f"lseq 1 2\nseq s{i} {label} - {n_frames}\n" + f"{rows[i % 2]}\n" * n_frames)
            entries.append(ManifestEntry(path=f"s{i}.lseq", label=label))
        manifest = str(tmp_path / "m.json")
        save_manifest(manifest, Manifest(1, 2, entries))
        given = tmp_path / "given.bin"
        save_model(given, Model(templates=[[0.0, 0.0]], ordering_costs=[0.0],
                                global_template=[5e158, 5e158], gamma_g=1.0), kind="MnP")
        out = {cmd: str(tmp_path / f"out-{cmd}") for cmd in ("train", "predict", "eval")}
        for argv in (
            ["train", "--manifest", manifest, "--model-kind", "mnp", *flags, "--seed", "1",
             "--out", out["train"]],
            ["predict", "--model", str(given), "--manifest", manifest, "--out", out["predict"]],
            ["eval", "--manifest", manifest, "--model-kind", "mnp", *flags, "--seed", "1",
             "--folds", "random:2", "--metrics", "acc", "--out", out["eval"]],
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv)
            err = capsys.readouterr().err
            assert rc == 2, argv[0]
            assert re.fullmatch(r"lomo: data error: sample 's[0-3]': "
                                r"the global term overflows to non-finite values\n", err), err
            assert [str(w.message) for w in caught] == []
        assert list(tmp_path.glob("out-*")) == []

    @pytest.mark.parametrize("solver", ["greedy", "dp"])
    def test_diverging_training_exits_3(self, tmp_path, capsys, solver):
        # every flag is valid; the first violating step overflows the template
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        frames = {"a": (1, [[1e307], [-1e307]]), "b": (-1, [[-1e307], [1e307]])}
        for sid, (label, rows) in frames.items():
            write_lseq(tmp_path / f"{sid}.lseq", [SequenceSample(sid, label, np.array(rows))])
        save_manifest(tmp_path / "m.json", Manifest(1, 1, [
            ManifestEntry(path=f"{sid}.lseq", label=label) for sid, (label, _) in frames.items()
        ]))
        out = tmp_path / "div.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "train", "--manifest", str(tmp_path / "m.json"), "--events", "1",
                "--coverage-t", "0", "--maxiter", "20", "--eta", "100", "--solver", solver,
                "--out", str(out),
            ])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"lomo: training diverged at step \d+ on sample '[ab]': "
            r"model parameters contain non-finite values\n", err)
        assert [str(w.message) for w in caught] == []
        assert not out.exists() and not (tmp_path / "div.bin.run.json").exists()

    def test_an_overflowing_objective_exits_3(self, tmp_path, capsys):
        # one violation takes the template to -4e154: every response stays
        # finite, but the final objective squares it past the float range
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        frames = {"p": (1, [[-4e153]]), "n": (-1, [[4e153]])}
        for sid, (label, rows) in frames.items():
            write_lseq(tmp_path / f"{sid}.lseq", [SequenceSample(sid, label, np.array(rows))])
        save_manifest(tmp_path / "m.json", Manifest(1, 1, [
            ManifestEntry(path=f"{sid}.lseq", label=label) for sid, (label, _) in frames.items()
        ]))
        out = tmp_path / "sq.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "train", "--manifest", str(tmp_path / "m.json"), "--events", "1",
                "--coverage-t", "0", "--maxiter", "5", "--eta", "10", "--out", str(out),
            ])
        assert rc == 3
        assert capsys.readouterr().err == (
            "lomo: the objective overflows to a non-finite value\n")
        assert [str(w.message) for w in caught] == []
        assert not out.exists() and not (tmp_path / "sq.bin.run.json").exists()

    def test_overflow_prints_no_warning_from_a_real_process(self, tmp_path):
        # the CI overflow step's data, through `python -m lomo.cli`: what
        # reaches the process's own stderr, not a captured stream
        (tmp_path / "a.lseq").write_text("lseq 1 2\nseq a 1 - 3\n"
                                         "1e200 1e200\n-1e200 2e200\n1e200 1e200\n")
        (tmp_path / "b.lseq").write_text("lseq 1 2\nseq b -1 - 3\n"
                                         "1e200 -1e200\n1e200 2e200\n-1e200 1e200\n")
        (tmp_path / "m.json").write_text(
            '{"version": 1, "dim": 2, "entries": [{"path": "a.lseq", "label": 1}, '
            '{"path": "b.lseq", "label": -1}]}')
        out = tmp_path / "huge.bin"
        done = run_module(
            ["train", "--manifest", str(tmp_path / "m.json"), "--events", "2", "--coverage-t", "0",
             "--maxiter", "20", "--out", str(out)])
        assert done.returncode == 2, done.stderr
        assert re.fullmatch(r"lomo: data error: sample '[ab]': "
                            r"template responses overflow to non-finite values\n", done.stderr)
        assert done.stdout == ""
        assert not out.exists() and not (tmp_path / "huge.bin.run.json").exists()

    def test_malformed_lseq_file_exits_2_naming_its_line(self, tmp_path, capsys):
        # numpy's block reader fails on line 5; the per-line parser names it
        (tmp_path / "a.lseq").write_text("lseq 1 2\nseq a 1 - 3\n0.5 1.0\n-0.5 2.0\n0.5 x\n")
        (tmp_path / "m.json").write_text(
            '{"version": 1, "dim": 2, "entries": [{"path": "a.lseq", "label": 1}]}')
        out = tmp_path / "bad.bin"
        rc = main([
            "train", "--manifest", str(tmp_path / "m.json"), "--maxiter", "5", "--out", str(out),
        ])
        assert rc == 2
        assert (f"{tmp_path / 'a.lseq'}:5: unparseable number in ['0.5', 'x']"
                in capsys.readouterr().err)
        assert not out.exists() and not (tmp_path / "bad.bin.run.json").exists()

    def test_exact_solvers_train_byte_identical_models(self, tmp_path, capsys):
        # N^M = 144 is far under the brute guard, so dp and brute find the
        # same placements, and each run skips some solves on certified margins
        data = tmp_path / "exact"
        assert main([
            "synth", "--out-dir", str(data), "--dim", "4", "--n-min", "12", "--n-max", "12",
            "--m-true", "2", "--n-pos", "8", "--n-neg", "8", "--noise-sigma", "0.1",
            "--min-gap", "1", "--seed", "0",
        ]) == 0
        capsys.readouterr()
        models = {}
        for solver in ("dp", "brute"):
            models[solver] = tmp_path / f"exact-{solver}.bin"
            assert main([
                "train", "--manifest", str(data / "train.json"), "--events", "2",
                "--coverage-t", "1", "--maxiter", "400", "--seed", "0", "--solver", solver,
                "--out", str(models[solver]),
            ]) == 0
            certified = re.search(r" certified=(\d+) ", capsys.readouterr().out)
            assert int(certified.group(1)) >= 1, solver
        assert models["dp"].read_bytes() == models["brute"].read_bytes()

    def test_short_sequences_train_with_the_default_solver(self, tmp_path, rng):
        write_manifest_of_lengths(tmp_path, [7] * 8, rng)
        # at N=7, M=3 the radius clamps to 2, and greedy's windows often
        # cover all seven frames after two picks; those samples go to dp
        out = tmp_path / "short.bin"
        assert main([
            "train", "--manifest", str(tmp_path / "lengths.json"), "--events", "3",
            "--maxiter", "50", "--seed", "1", "--out", str(out),
        ]) == 0
        assert load_model(out).model.n_events == 3

    def test_positive_class_trains_on_relabelled_set(self, tmp_path, rng):
        from lomo import (
            ModelSpec, SequenceSample, TrainConfig, load_dataset, save_model, train_spec,
        )

        write_three_class_manifest(tmp_path, rng)
        out = tmp_path / "cli.bin"
        assert main([
            "train", "--manifest", str(tmp_path / "mc.json"), "--positive-class", "1",
            "--events", "2", "--coverage-t", "1", "--maxiter", "100", "--seed", "5",
            "--out", str(out),
        ]) == 0

        samples, _ = load_dataset(tmp_path / "mc.json")
        relabelled = [
            SequenceSample(s.id, 1 if s.label == 1 else -1, s.frames, s.group)
            for s in samples
        ]
        spec = ModelSpec("lomo", TrainConfig(M=2, coverage_t=1, maxiter=100, seed=5))
        expected = tmp_path / "direct.bin"
        save_model(expected, train_spec(relabelled, spec).model, kind=spec.kind, seed=5)
        assert out.read_bytes() == expected.read_bytes()

    def test_absent_positive_class_exits_2(self, tmp_path, rng, capsys):
        write_three_class_manifest(tmp_path, rng)
        out = tmp_path / "cli.bin"
        assert main([
            "train", "--manifest", str(tmp_path / "mc.json"), "--positive-class", "9",
            "--maxiter", "10", "--out", str(out),
        ]) == 2
        assert "positive class 9" in capsys.readouterr().err
        assert not out.exists()

    def test_final_objective_failure_writes_nothing(self, synth_dir, tmp_path, monkeypatch,
                                                    capsys):
        import lomo.training
        from lomo import InfeasibleError

        def infeasible(*args, **kwargs):
            raise InfeasibleError("greedy candidate set exhausted")

        monkeypatch.setattr(lomo.training, "objective", infeasible)
        out = tmp_path / "m.bin"
        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--maxiter", "10",
            "--out", str(out),
        ]) == 3
        assert "candidate set exhausted" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    @pytest.mark.parametrize("kind,solver", [("alomo", "greedy"), ("lomo", "dp")])
    def test_printed_objective_is_the_last_trace_point(self, synth_dir, capsys, tmp_path,
                                                       kind, solver):
        from lomo import ModelSpec, TrainConfig, load_dataset, train_spec

        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", kind,
            "--events", "2", "--gamma-g", "0.4", "--coverage-t", "1", "--maxiter", "250",
            "--seed", "3", "--solver", solver, "--out", str(tmp_path / "m.bin"),
        ]) == 0
        out = capsys.readouterr().out
        printed = out.split("objective=")[1].split()[0]
        samples, _ = load_dataset(synth_dir / "train.json")
        spec = ModelSpec(kind, TrainConfig(M=2, gamma_g=0.4, coverage_t=1, maxiter=250, seed=3))
        report = train_spec(samples, spec, solver=solver)
        assert printed == f"{report.trace[-1][1]:.6g}"
        assert f" violations={report.violations} certified={report.certified} " in out
        assert (report.certified > 0) == (solver == "dp")  # greedy never certifies
        record = json.loads((tmp_path / "m.bin.run.json").read_text())
        assert record["report"] == {"violations": report.violations, "certified": report.certified}

    def test_env_seed_fallback(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("LOMO_SEED", "777")
        out = tmp_path / "env.bin"
        rc = main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--maxiter", "20", "--out", str(out),
        ])
        assert rc == 0
        record = json.loads((tmp_path / "env.bin.run.json").read_text())
        assert record["seed"] == 777
        assert load_model(out).seed == 777


class TestPredict:
    @pytest.fixture
    def model_path(self, synth_dir, tmp_path):
        out = tmp_path / "model.bin"
        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "lomo",
            "--events", "2", "--maxiter", "300", "--seed", "4", "--coverage-t", "1",
            "--out", str(out),
        ]) == 0
        return out

    def test_solver_dominance_per_sample(self, synth_dir, tmp_path, model_path):
        greedy_out = tmp_path / "greedy.tsv"
        dp_out = tmp_path / "dp.tsv"
        for solver, out in (("greedy", greedy_out), ("dp", dp_out)):
            assert main([
                "predict", "--model", str(model_path), "--manifest",
                str(synth_dir / "test.json"), "--solver", solver, "--out", str(out),
            ]) == 0
        greedy_rows = read_tsv(greedy_out)[1:]
        dp_rows = read_tsv(dp_out)[1:]
        assert len(greedy_rows) == len(dp_rows) == 12
        for g, d in zip(greedy_rows, dp_rows):
            assert g[0] == d[0]
            assert float(d[2]) >= float(g[2])

    def test_latent_dump_columns(self, synth_dir, tmp_path, model_path):
        out = tmp_path / "latents.tsv"
        assert main([
            "predict", "--model", str(model_path), "--manifest",
            str(synth_dir / "test.json"), "--dump-latents", "--out", str(out),
        ]) == 0
        rows = read_tsv(out)
        m = load_model(model_path).model.n_events
        # id, label, score, decision + M indices + rank + 3 score parts
        assert rows[0] == (
            ["id", "label", "score", "decision"]
            + [f"k{i}" for i in range(m)]
            + ["perm_rank", "template_score", "ordering_cost", "global_score"]
        )
        for row in rows[1:]:
            assert len(row) == 4 + m + 4
            k = [int(x) for x in row[4:4 + m]]
            assert len(set(k)) == m
            assert 1 <= int(row[4 + m]) <= 2

    def test_dp_latent_dump_equals_one_infer_dp_call_per_sequence(
        self, synth_dir, tmp_path, model_path
    ):
        from lomo import infer_dp, load_dataset

        out = tmp_path / "latents.tsv"
        assert main([
            "predict", "--model", str(model_path), "--manifest", str(synth_dir / "test.json"),
            "--solver", "dp", "--dump-latents", "--out", str(out),
        ]) == 0
        model = load_model(model_path).model
        samples, _ = load_dataset(synth_dir / "test.json")
        expected = []
        for s in samples:
            a = infer_dp(model, s)
            expected.append(
                [s.id, str(s.label), repr(a.total), "1" if a.total >= 0 else "-1"]
                + [str(ki) for ki in a.k]
                + [str(a.perm_rank), repr(a.template_score), repr(a.ordering_cost),
                   repr(a.global_score)]
            )
        assert read_tsv(out)[1:] == expected

    def test_decision_is_sign_of_score(self, synth_dir, tmp_path, model_path):
        out = tmp_path / "scores.tsv"
        assert main([
            "predict", "--model", str(model_path), "--manifest",
            str(synth_dir / "test.json"), "--out", str(out),
        ]) == 0
        for row in read_tsv(out)[1:]:
            score, decision = float(row[2]), int(row[3])
            assert decision == (1 if score >= 0 else -1)

    def test_a_score_past_the_float_range_exits_2(self, tmp_path, capsys):
        # finite responses and costs whose sum, the score, is -inf
        from lomo import Model, save_model

        save_model(tmp_path / "m.bin", Model(templates=[[1.0], [1.0]],
                                             ordering_costs=[-1.7e308, -1.7e308]))
        (tmp_path / "low.lseq").write_text("lseq 1 1\nseq low 1 - 3\n-1e308\n-1e308\n-1e308\n")
        (tmp_path / "m.json").write_text(
            '{"version": 1, "dim": 1, "entries": [{"path": "low.lseq", "label": 1}]}')
        out = tmp_path / "s.tsv"
        for solver in ("greedy", "dp", "brute"):
            assert main([
                "predict", "--model", str(tmp_path / "m.bin"), "--manifest",
                str(tmp_path / "m.json"), "--solver", solver, "--out", str(out),
            ]) == 2
            assert capsys.readouterr().err == (
                "lomo: data error: sample 'low': the score overflows to non-finite values\n")
            assert not out.exists() and not (tmp_path / "s.tsv.run.json").exists()

    def test_untrusted_model_header_exits_2(self, synth_dir, tmp_path, capsys):
        for path in write_bad_model_headers(tmp_path):
            rc = main([
                "predict", "--model", str(path), "--manifest",
                str(synth_dir / "test.json"), "--out", str(tmp_path / "s.tsv"),
            ])
            assert rc == 2, path.name
            assert "data error" in capsys.readouterr().err


class TestEval:
    def test_logo_fold_count_matches_groups(self, tmp_path, rng):
        # build a grouped dataset manifest by hand
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        entries = []
        for i in range(12):
            sid = f"e{i}"
            frames = 0.1 * rng.standard_normal((5, 3))
            # alternate labels within each group so every held-out fold
            # contains both classes
            label = 1 if (i // 4) % 2 == 0 else -1
            if label == 1:
                frames[2, 0] += 2.0
            write_lseq(tmp_path / f"{sid}.lseq", [SequenceSample(sid, label, frames)])
            entries.append(
                ManifestEntry(path=f"{sid}.lseq", label=label, group=f"grp{i % 4}", fold=i % 3)
            )
        save_manifest(tmp_path / "m.json", Manifest(1, 3, entries))
        out = tmp_path / "report.json"
        rc = main([
            "eval", "--manifest", str(tmp_path / "m.json"), "--model-kind", "mil",
            "--maxiter", "150", "--seed", "2", "--metrics", "acc,auc",
            "--folds", "logo", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_folds"] == 4
        assert len(report["per_fold"]) == 4
        # fixed fold indices from the manifest are honored as-is
        rc = main([
            "eval", "--manifest", str(tmp_path / "m.json"), "--model-kind", "mil",
            "--maxiter", "150", "--seed", "2", "--metrics", "acc",
            "--folds", "manifest", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["n_folds"] == 3

    def test_singleton_grid_reduces_to_plain_cv(self, synth_dir, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"lambda1": [1e-5], "coverage_t": [1]}))
        common = [
            "eval", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--maxiter", "100", "--seed", "5", "--metrics", "auc",
            "--folds", "random:3", "--lambda1", "1e-5", "--coverage-t", "1",
        ]
        plain_out = tmp_path / "plain.json"
        grid_out = tmp_path / "grid_report.json"
        assert main(common + ["--out", str(plain_out)]) == 0
        assert main(common + ["--grid", str(grid_file), "--out", str(grid_out)]) == 0
        plain = json.loads(plain_out.read_text())
        grid = json.loads(grid_out.read_text())
        assert grid["rows"][0]["score"] == plain["aggregate"]["auc"]

    def test_fusing_model_with_itself_keeps_metrics(self, synth_dir, tmp_path):
        model = tmp_path / "m.bin"
        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--maxiter", "200", "--seed", "6", "--out", str(model),
        ]) == 0
        single = tmp_path / "single.json"
        double = tmp_path / "double.json"
        base = [
            "fuse", "--manifest", str(synth_dir / "test.json"), "--metrics", "auc,map",
            "--fusion", "equal",
        ]
        assert main(base + ["--models", str(model), "--out", str(single)]) == 0
        assert main(base + ["--models", f"{model},{model}", "--out", str(double)]) == 0
        a = json.loads(single.read_text())["metrics"]
        b = json.loads(double.read_text())["metrics"]
        assert a == b

    @pytest.mark.parametrize(
        "fusion, copies, message",
        [("equal", 2, "the fused scores overflow to non-finite values"),
         ("zscore", 1, "score table 0: its mean or standard deviation overflows to "
                       "non-finite values"),
         ("zscore", 2, "score table 0: its mean or standard deviation overflows to "
                       "non-finite values")],
        ids=["equal-two-copies", "zscore-one-copy", "zscore-two-copies"],
    )
    def test_a_fusion_past_the_float_range_exits_2(self, tmp_path, capsys, fusion, copies,
                                                   message):
        # four separable one-frame scores, +-1.5e308 and +-1: their spread,
        # and the sum of two copies, pass the float range
        from lomo import Model, save_model

        save_model(tmp_path / "m.bin", Model(templates=[[1.0]], ordering_costs=[0.0]), kind="MIL")
        entries = []
        for sid, label, value in (("a", 1, "1.5e308"), ("b", 1, "1.0"),
                                  ("c", -1, "-1.5e308"), ("d", -1, "-1.0")):
            (tmp_path / f"{sid}.lseq").write_text(f"lseq 1 1\nseq {sid} {label} - 1\n{value}\n")
            entries.append({"path": f"{sid}.lseq", "label": label})
        (tmp_path / "m.json").write_text(json.dumps({"version": 1, "dim": 1, "entries": entries}))
        base = ["fuse", "--manifest", str(tmp_path / "m.json"), "--metrics", "acc,auc"]
        one = tmp_path / "one.json"
        # one table fused by the mean is that table, which separates the classes
        assert main(base + ["--models", str(tmp_path / "m.bin"), "--out", str(one)]) == 0
        assert json.loads(one.read_text())["metrics"] == {"acc": 1.0, "auc": 1.0}
        capsys.readouterr()
        out = tmp_path / "fused.json"
        models = ",".join([str(tmp_path / "m.bin")] * copies)
        assert main(base + ["--fusion", fusion, "--models", models, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"lomo: data error: {message}\n"
        assert not out.exists() and not (tmp_path / "fused.json.run.json").exists()

    def test_weighted_fusion_report_is_the_library_fusion(self, synth_dir, tmp_path):
        from lomo import late_fusion, load_dataset
        from lomo.evaluation import _score_metrics
        from lomo.pipeline import predict_table

        paths = [tmp_path / "mil.bin", tmp_path / "lomo.bin"]
        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--maxiter", "200", "--seed", "6", "--out", str(paths[0]),
        ]) == 0
        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "lomo",
            "--events", "2", "--coverage-t", "1", "--maxiter", "200", "--seed", "1",
            "--solver", "dp", "--out", str(paths[1]),
        ]) == 0
        out = tmp_path / "fused.json"
        assert main([
            "fuse", "--manifest", str(synth_dir / "test.json"),
            "--models", ",".join(map(str, paths)), "--fusion", "zscore", "--weights", "1,0.5",
            "--metrics", "acc,auc,map", "--solver", "dp", "--out", str(out),
        ]) == 0
        samples, _ = load_dataset(synth_dir / "test.json")
        tables = [predict_table(load_model(p).model, samples, "dp") for p in paths]
        assert not np.array_equal(tables[0], tables[1])
        fused = late_fusion(tables, "zscore_weighted", [1.0, 0.5])
        labels = np.array([s.label for s in samples])
        report = json.loads(out.read_text())
        assert report["mode"] == "fusion:zscore_weighted"
        assert report["weights"] == [1.0, 0.5]
        assert report["metrics"] == _score_metrics(("acc", "auc", "map"), fused, labels, None)


    @pytest.mark.parametrize("metric", ["acc", "auc"])
    def test_fusing_on_a_multiclass_manifest_exits_2(self, tmp_path, rng, capsys, metric):
        write_three_class_manifest(tmp_path, rng)
        model = tmp_path / "m.bin"
        assert main([
            "train", "--manifest", str(tmp_path / "mc.json"), "--positive-class", "1",
            "--model-kind", "mil", "--maxiter", "50", "--seed", "6", "--out", str(model),
        ]) == 0
        out = tmp_path / "fused.json"
        rc = main([
            "fuse", "--manifest", str(tmp_path / "mc.json"), "--models", str(model),
            "--metrics", metric, "--out", str(out),
        ])
        assert rc == 2
        assert "binary manifest (labels -1/+1), got labels [0, 1, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"lambda1": "ab"}',
            '{"lambda1": [1e-5,',
            '{"coverage_t": [1.5]}',
            '{"coverage_t": [1.0]}',
            '{"lambda_1": [1e-5]}',
            '{"lambda1": [true]}',
            '{"gamma_g": [NaN]}',
            '{"gamma_g": 0.5}',
            '{"gamma_g": [0, 2]}',
            '{"coverage_t": [-1]}',
            '{"lambda1": [-1e-5]}',
            pytest.param('{"lambda1": [1' + "0" * 400 + "]}", id="int-too-large-for-a-float"),
            '{"lambda1": []}',
            '{"coverage_t": []}',
        ],
    )
    def test_malformed_grid_file_exits_2_before_training(
        self, synth_dir, tmp_path, capsys, monkeypatch, text
    ):
        import lomo.cli

        searched = []
        monkeypatch.setattr(lomo.cli, "grid_search", lambda *a, **k: searched.append(a))
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(text)
        out = tmp_path / "grid_report.json"
        rc = main([
            "eval", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--maxiter", "20", "--grid", str(grid_file), "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error: grid file" in err
        if text in GRID_ERRORS:
            assert f"data error: grid file {grid_file}: {GRID_ERRORS[text]}" in err
        assert searched == []
        assert not out.exists() and not (tmp_path / "grid_report.json.run.json").exists()

    @SCORING_MODES
    @pytest.mark.parametrize("metrics", [",", " , "])
    def test_metrics_naming_nothing_is_a_usage_error(self, tmp_path, capsys, mode, metrics):
        # the manifest does not exist either: the usage error comes first
        out = tmp_path / "report.json"
        rc = main([
            *mode, "--manifest", str(tmp_path / "missing.json"), "--metrics", metrics,
            "--out", str(out),
        ])
        assert rc == 1
        assert "argument --metrics: expected a non-empty comma list from acc," in (
            capsys.readouterr().err)
        assert not out.exists()

    @SCORING_MODES
    @pytest.mark.parametrize("metrics", ["bogus", "acc,bogus"])
    def test_unknown_metric_is_a_usage_error(self, tmp_path, capsys, mode, metrics):
        # the manifest does not exist either: the usage error comes first
        out = tmp_path / "report.json"
        rc = main([
            *mode, "--manifest", str(tmp_path / "missing.json"), "--metrics", metrics,
            "--out", str(out),
        ])
        assert rc == 1
        assert f"argument --metrics: expected a non-empty comma list from acc, avgclassacc, " \
               f"map, auc, eer, got {metrics!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("folds", ["random:x", "kfold:3", "random", "logo:2", "group:2:1"])
    def test_malformed_folds_is_a_usage_error_before_loading(self, tmp_path, capsys, folds):
        # the manifest does not exist: the usage error comes first
        out = tmp_path / "report.json"
        rc = main([
            "eval", "--manifest", str(tmp_path / "missing.json"), "--folds", folds,
            "--out", str(out),
        ])
        assert rc == 1
        assert ("argument --folds: expected random:k, group:k, logo or manifest, "
                f"got {folds!r}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("models", ["", ","])
    def test_models_naming_nothing_is_a_usage_error(self, tmp_path, capsys, models):
        # the manifest does not exist either: the usage error comes first
        out = tmp_path / "fused.json"
        rc = main([
            "fuse", "--manifest", str(tmp_path / "missing.json"), "--models", models,
            "--out", str(out),
        ])
        assert rc == 1
        assert "--models must name at least one model file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--fusion", "zscore", "--weights", ""],
             "argument --weights: expected a comma list of finite numbers, got ''"),
            (["--fusion", "zscore", "--weights", ","],
             "argument --weights: expected a comma list of finite numbers, got ','"),
            (["--fusion", "zscore", "--weights", "5,abc"],
             "argument --weights: expected a comma list of finite numbers, got '5,abc'"),
            (["--fusion", "zscore", "--weights", "nan,1"],
             "argument --weights: expected a comma list of finite numbers, got 'nan,1'"),
            (["--fusion", "zscore", "--weights", "1,-inf"],
             "argument --weights: expected a comma list of finite numbers, got '1,-inf'"),
            (["--fusion", "equal", "--weights", "1,1"], "--fusion equal takes no --weights"),
            (["--weights", "1,1"], "--fusion equal takes no --weights"),
            (["--fusion", "zscore", "--weights", "1"], "got 1 --weights for 2 --models"),
            (["--fusion", "zscore", "--weights", "1,2,3"], "got 3 --weights for 2 --models"),
        ],
        ids=["empty", "commas", "not-a-number", "nan", "inf", "equal", "equal-at-default",
             "too-few", "too-many"],
    )
    def test_unusable_weights_are_a_usage_error_before_loading(
        self, tmp_path, capsys, extra, message
    ):
        # neither the manifest nor the models exist: the usage error comes first
        out = tmp_path / "fused.json"
        rc = main([
            "fuse", "--manifest", str(tmp_path / "missing.json"), "--models", "a.bin,b.bin",
            *extra, "--out", str(out),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, unrecognized",
        [
            (["--grid", "nonexistent.json"], "--grid nonexistent.json"),
            (["--folds", "random:5"], "--folds random:5"),
            (["--events", "1", "--model-kind", "mil"], "--events 1 --model-kind mil"),
            (["--maxiter", "10", "--lambda1", "1e-5", "--solver", "dp"],
             "--maxiter 10 --lambda1 1e-5"),
            (["--gri", "x.json", "--seed", "3"], "--gri x.json"),
        ],
        ids=["grid", "folds-at-default", "training-flags", "solver-allowed", "abbreviated"],
    )
    def test_fuse_with_flags_it_cannot_use_is_a_usage_error(
        self, tmp_path, capsys, extra, unrecognized
    ):
        # neither the manifest nor the model exists: the usage error comes first
        out = tmp_path / "fused.json"
        rc = main([
            "fuse", "--manifest", str(tmp_path / "missing.json"), "--models", "missing.bin",
            *extra, "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lomo fuse ")
        assert err.endswith(f"lomo fuse: error: unrecognized arguments: {unrecognized}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, unrecognized",
        [
            (["--weights", "5,abc", "--fusion", "zscore"], "--weights 5,abc --fusion zscore"),
            (["--fusion", "equal"], "--fusion equal"),
            (["--weights", "1", "--grid", "missing-grid.json"], "--weights 1"),
            (["--fuse", "missing.bin"], "--fuse missing.bin"),
        ],
        ids=["both", "fusion-at-default", "grid", "fuse"],
    )
    def test_fusion_flags_without_fuse_are_a_usage_error(
        self, tmp_path, capsys, extra, unrecognized
    ):
        # eval has no fusion flags; the manifest does not exist: the usage error comes first
        out = tmp_path / "report.json"
        rc = main([
            "eval", "--manifest", str(tmp_path / "missing.json"), "--events", "2",
            "--coverage-t", "1", "--maxiter", "20", "--folds", "random:2", "--metrics", "acc",
            *extra, "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lomo eval ")
        assert err.endswith(f"lomo eval: error: unrecognized arguments: {unrecognized}\n")
        assert not out.exists()

    def test_fuse_declares_only_the_flags_it_reads(self, capsys):
        def flags(command):
            assert main([command, "--help"]) == 0
            return set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))

        assert flags("fuse") == {
            "--help", "--manifest", "--models", "--fusion", "--weights", "--metrics",
            "--solver", "--seed", "--out",
        }
        assert not flags("eval") & {"--fuse", "--fusion", "--weights"}

    def test_fuse_takes_solver_and_seed(self, synth_dir, tmp_path):
        model = tmp_path / "m.bin"
        assert main([
            "train", "--manifest", str(synth_dir / "train.json"), "--model-kind", "mil",
            "--maxiter", "50", "--seed", "6", "--out", str(model),
        ]) == 0
        out = tmp_path / "fused.json"
        assert main([
            "fuse", "--manifest", str(synth_dir / "test.json"), "--models", str(model),
            "--solver", "dp", "--seed", "3", "--metrics", "acc", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_one_class_held_out_fold_exits_2(self, tmp_path, rng, capsys):
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        entries = []
        for i in range(8):
            sid, label = f"f{i}", 1 if i % 2 else -1
            frames = rng.standard_normal((4, 3))
            write_lseq(tmp_path / f"{sid}.lseq", [SequenceSample(sid, label, frames)])
            # fold 1 holds two negatives only
            entries.append(ManifestEntry(path=f"{sid}.lseq", label=label, fold=int(i in (0, 2))))
        save_manifest(tmp_path / "m.json", Manifest(1, 3, entries))
        out = tmp_path / "report.json"
        rc = main([
            "eval", "--manifest", str(tmp_path / "m.json"), "--model-kind", "mil",
            "--maxiter", "20", "--folds", "manifest", "--metrics", "acc,auc", "--out", str(out),
        ])
        assert rc == 2
        assert ("data error: fold 1 cannot be scored on auc: its evaluation samples have "
                "class counts {-1: 2, 1: 0}") in capsys.readouterr().err
        assert not out.exists()

    def test_multiclass_training_fold_missing_a_class_exits_2(
        self, tmp_path, rng, capsys, monkeypatch
    ):
        import lomo.evaluation
        from lomo import Manifest, ManifestEntry, SequenceSample, save_manifest, write_lseq

        entries = []
        for i, label in enumerate([0, 0, 0, 1, 1, 1, 2]):
            sid = f"s{i}"
            write_lseq(tmp_path / f"{sid}.lseq",
                       [SequenceSample(sid, label, rng.standard_normal((4, 3)))])
            entries.append(ManifestEntry(path=f"{sid}.lseq", label=label))
        save_manifest(tmp_path / "m.json", Manifest(1, 3, entries))
        trained = []
        monkeypatch.setattr(lomo.evaluation, "train_multiclass", lambda *a, **k: trained.append(a))
        out = tmp_path / "report.json"
        # random:3 at seed 0 holds the one class-2 sequence out in fold 1
        rc = main([
            "eval", "--manifest", str(tmp_path / "m.json"), "--model-kind", "mil",
            "--maxiter", "5", "--folds", "random:3", "--seed", "0", "--out", str(out),
        ])
        assert rc == 2
        assert ("lomo: data error: fold 1 cannot train: classes with zero samples: [2]"
                in capsys.readouterr().err)
        assert trained == []
        assert not out.exists() and not (tmp_path / "report.json.run.json").exists()

    def test_cv_file_is_the_library_report(self, synth_dir, tmp_path):
        from lomo import ModelSpec, TrainConfig, cross_validate, load_dataset, make_folds

        out = tmp_path / "report.json"
        assert main([
            "eval", "--manifest", str(synth_dir / "train.json"), "--model-kind", "lomo",
            "--events", "2", "--coverage-t", "1", "--maxiter", "80", "--seed", "4",
            "--metrics", "acc,avgclassacc", "--folds", "random:3", "--solver", "dp",
            "--out", str(out),
        ]) == 0
        samples, _ = load_dataset(synth_dir / "train.json")
        folds = make_folds(samples, "random_k_fold", k=3, seed=4)
        spec = ModelSpec("lomo", TrainConfig(M=2, coverage_t=1, maxiter=80, seed=4))
        report = cross_validate(samples, folds, spec, ("acc", "avgclassacc"), solver="dp")
        assert out.read_text(encoding="utf-8") == report.to_json() + "\n"


class TestInferBench:
    def test_csv_rows_and_gap_nonnegative(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main([
            "infer-bench", "--n", "20,30", "--m", "2", "--t", "1", "--dim", "8",
            "--instances", "5", "--seed", "1", "--solvers", "greedy,dp,brute",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one row per (solver, N, M, t) cell
        assert len(rows) == 6
        for row in rows:
            if row["solver"] in ("dp", "brute"):
                assert float(row["score_gap_vs_greedy"]) >= 0.0

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_fewer_than_one_instance_is_a_usage_error(self, tmp_path, capsys, instances):
        out = tmp_path / "bench.csv"
        assert main([
            "infer-bench", "--n", "10", "--m", "2", "--t", "1", "--dim", "2",
            "--instances", instances, "--solvers", "greedy", "--out", str(out),
        ]) == 1
        assert f"lomo infer-bench: error: argument --instances: must be at least 1, got {instances}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--solvers", "greedy,bogus"), ("--solvers", ","), ("--solvers", "dp,dp"),
         ("--n", "10,x"), ("--m", "2,"), ("--t", "one"),
         ("--n", "0"), ("--n", "10,-1"), ("--m", "0"), ("--m", "2,9"), ("--t", "-1"),
         ("--dim", "0"), ("--dim", "abc")],
        ids=["unknown-solver", "no-solver", "repeated-solver", "n", "m", "t",
             "zero-n", "negative-n", "zero-m", "too-many-events", "negative-t", "zero-dim",
             "dim-not-an-integer"],
    )
    def test_malformed_list_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bench.csv"
        argv = {"--n": "10", "--m": "2", "--t": "1", "--dim": "2", "--solvers": "greedy",
                flag: value}
        assert main([
            "infer-bench", *(x for item in argv.items() for x in item),
            "--instances", "2", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lomo infer-bench ")
        assert f"lomo infer-bench: error: argument {flag}: " in err
        if (flag, value) == ("--n", "0"):
            assert ("argument --n: expected a comma list of integers of at least 1, got '0'"
                    in err)
        assert not out.exists()
        assert not (tmp_path / "bench.csv.run.json").exists()

    def test_zero_coverage_radius_is_a_valid_cell(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main([
            "infer-bench", "--n", "4", "--m", "2", "--t", "0", "--dim", "2",
            "--instances", "2", "--solvers", "greedy,dp", "--out", str(out),
        ]) == 0
        with open(out, newline="") as fh:
            assert [r["t"] for r in csv.DictReader(fh)] == ["0", "0"]

    def test_brute_skipped_when_guard_trips(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main([
            "infer-bench", "--n", "500", "--m", "3", "--t", "1", "--dim", "4",
            "--instances", "2", "--seed", "1", "--solvers", "greedy,brute",
            "--out", str(out),
        ])
        assert rc == 0
        assert "skipping brute" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["solver"] for r in rows] == ["greedy"]


class TestRunRecords:
    KEYS = {"tool", "version", "argv", "resolved_config", "seed", "outputs", "fingerprint",
            "started_unix", "finished_unix"}

    @classmethod
    def run(cls, base, argv, extra=frozenset()):
        """Run argv, which must succeed, and return the record at <base>.run.json,
        which holds the keys every record has plus ``extra``."""
        from lomo import __version__
        from lomo.evaluation import config_fingerprint

        assert main(argv) == 0
        record = json.loads(open(f"{base}.run.json", encoding="utf-8").read())
        assert set(record) == cls.KEYS | extra
        assert record["tool"] == "lomo" and record["version"] == __version__
        assert record["argv"] == argv
        assert record["fingerprint"] == config_fingerprint(
            {"config": record["resolved_config"], "seed": record["seed"]})
        assert record["started_unix"] <= record["finished_unix"]
        return record

    def test_record_written_for_every_command(self, tmp_path):
        from dataclasses import asdict

        from lomo import ModelSpec, SynthConfig, TrainConfig

        data = tmp_path / "data"
        record = self.run(data / "synth", [
            "synth", "--out-dir", str(data), "--dim", "4", "--n-min", "8", "--n-max", "10",
            "--m-true", "2", "--n-pos", "6", "--n-neg", "6", "--noise-sigma", "0.1",
            "--seed", "3",
        ])
        assert record["outputs"] == [str(data / "train.json"), str(data / "test.json")]
        assert record["resolved_config"] == asdict(SynthConfig(
            dim=4, n_min=8, n_max=10, m_true=2, n_pos=6, n_neg=6, noise_sigma=0.1, seed=3))
        assert record["seed"] == 3

        model = tmp_path / "m.bin"
        record = self.run(model, [
            "train", "--manifest", str(data / "train.json"), "--model-kind", "mil",
            "--maxiter", "30", "--seed", "5", "--out", str(model),
        ], extra={"report"})
        assert record["outputs"] == [str(model)]
        assert set(record["report"]) == {"violations", "certified"}
        mil = ModelSpec("mil", TrainConfig(maxiter=30, seed=5))
        assert record["resolved_config"] == asdict(mil.resolved())
        assert record["seed"] == 5

        tsv = tmp_path / "p.tsv"
        record = self.run(tsv, [
            "predict", "--model", str(model), "--manifest", str(data / "test.json"),
            "--solver", "dp", "--out", str(tsv),
        ])
        assert record["outputs"] == [str(tsv)]
        assert record["resolved_config"] == {"model": str(model), "solver": "dp"}
        assert record["seed"] == 5  # the seed the model was trained with

        cv = tmp_path / "cv.json"
        record = self.run(cv, [
            "eval", "--manifest", str(data / "train.json"), "--events", "2",
            "--coverage-t", "1", "--maxiter", "30", "--seed", "6", "--folds", "random:2",
            "--out", str(cv),
        ])
        assert record["outputs"] == [str(cv)]
        lomo = ModelSpec("lomo", TrainConfig(M=2, coverage_t=1, maxiter=30, seed=6))
        assert record["resolved_config"] == asdict(lomo.resolved())
        assert record["seed"] == 6

        fused = tmp_path / "fused.json"
        record = self.run(fused, [
            "fuse", "--manifest", str(data / "test.json"), "--models", f"{model},{model}",
            "--fusion", "zscore", "--weights", "1,2", "--seed", "7", "--out", str(fused),
        ])
        assert record["outputs"] == [str(fused)]
        assert record["resolved_config"] == "fusion:zscore_weighted"
        assert record["seed"] == 7

        bench = tmp_path / "bench.csv"
        record = self.run(bench, [
            "infer-bench", "--n", "10,12", "--m", "2", "--t", "1", "--dim", "2",
            "--instances", "2", "--solvers", "greedy,dp", "--seed", "8", "--out", str(bench),
        ])
        assert record["outputs"] == [str(bench)]
        assert record["resolved_config"] == {"cells": 2}
        assert record["seed"] == 8

        # a command that fails writes no record
        out = tmp_path / "failed.tsv"
        assert main([
            "predict", "--model", str(model), "--manifest", str(tmp_path / "missing.json"),
            "--out", str(out),
        ]) == 2
        assert not out.exists()
        assert not (tmp_path / "failed.tsv.run.json").exists()
