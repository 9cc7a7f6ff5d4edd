import contextlib
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gdeq
from gdeq import cli
from gdeq.cli import (ExperimentConfig, build_config, config_digest,
                      emit_iteration_curves, fmt, main, parse_config,
                      read_kv, write_kv, write_table)
from gdeq.training import ModelConfig, RunMetrics, TrainConfig, aggregate_runs

from helpers import (assert_nothing_left_running, blas_threads,
                     process_table)


def run_metrics(pathway="classical", acc=0.8, iters=None, seed=0, fold=0,
                minutes=0.5):
    iters = iters if iters is not None else [5.0, 5.0]
    epochs = len(iters)
    return RunMetrics(pathway=pathway, seed=seed, fold=fold,
                      train_loss=[0.5] * epochs, train_accuracy=[0.9] * epochs,
                      iterations=list(iters), test_accuracy=acc,
                      wall_minutes=minutes)


# ---------------------------------------------------------------------------
# config handling


def test_config_text_roundtrip():
    cfg = ExperimentConfig(dataset="PROTEINS", pathway="sd",
                           seeds=(42, 123, 456), folds=3, epochs=50,
                           alpha=0.05, fwd_tol=2.5e-7, workers=4)
    again = parse_config(cfg.to_text())
    assert again == cfg


def test_parse_config_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ValueError):
        parse_config("learning_rate=0.1\n")
    with pytest.raises(ValueError):
        parse_config("no equals sign here\n")


def test_parse_config_names_the_line_and_key_of_a_bad_value():
    with pytest.raises(ValueError, match="line 3: epochs"):
        parse_config("\n# c\nepochs=abc\n")


def test_cli_defaults_restate_the_library_defaults():
    assert ExperimentConfig().model_config() == ModelConfig()
    assert ExperimentConfig().train_config() == TrainConfig()


def test_parse_config_ignores_comments_and_blanks():
    cfg = parse_config("# comment\n\nepochs=7\nseeds=1,2\n")
    assert cfg.epochs == 7 and cfg.seeds == (1, 2)


def test_config_digest_tracks_content():
    a = ExperimentConfig()
    b = ExperimentConfig(alpha=0.2)
    assert config_digest(a) != config_digest(b)
    assert config_digest(a) == config_digest(ExperimentConfig())


def test_flag_overrides_beat_config_file(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text(ExperimentConfig(epochs=9, alpha=0.3).to_text())
    cfg, _ = build_config(["--config", str(f), "--alpha", "0.7",
                           "--seeds", "1,2,3"])
    assert cfg.epochs == 9
    assert cfg.alpha == 0.7
    assert cfg.seeds == (1, 2, 3)


def test_print_config_roundtrips(capsys):
    assert main(["--pathway", "bd", "--kappa", "0.5", "--print-config"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg.pathway == "bd" and cfg.kappa == 0.5


# ---------------------------------------------------------------------------
# record formatting


def test_fmt_preserves_float_values_exactly():
    rng = np.random.default_rng(0)
    for x in rng.normal(size=20) * 10.0 ** rng.integers(-8, 8, size=20):
        assert float(fmt(float(x))) == x


def test_kv_roundtrip(tmp_path):
    rec = {"a": 1, "b": 0.1234567890123456789, "c": "text"}
    write_kv(tmp_path / "r.txt", rec)
    got = read_kv(tmp_path / "r.txt")
    assert got["a"] == "1" and got["c"] == "text"
    assert float(got["b"]) == rec["b"]


def test_table_has_header_and_parseable_rows(tmp_path):
    write_table(tmp_path / "t.csv", ["epoch", "value"], [[0, 0.1], [1, 0.2]])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "epoch,value"
    assert [float(x) for x in lines[1].split(",")] == [0.0, 0.1]


# ---------------------------------------------------------------------------
# aggregation records


def test_summary_of_equal_accuracies():
    runs = [run_metrics(acc=1.0), run_metrics(acc=1.0, fold=1)]
    rec = aggregate_runs(runs, "D")
    assert rec["acc_mean"] == 1.0 and rec["acc_std"] == 0.0
    assert rec["variant"] == "classical" and rec["dataset"] == "D"


def test_summary_two_point_std():
    runs = [run_metrics(acc=0.7), run_metrics(acc=0.9, fold=1)]
    rec = aggregate_runs(runs, "D")
    assert rec["acc_mean"] == pytest.approx(0.8)
    assert rec["acc_std"] == pytest.approx(0.14142135623730951)


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_runs([], "D")


def test_iteration_curves_single_run_zero_std():
    header, rows = emit_iteration_curves([run_metrics(iters=[3.0, 4.0, 5.0])])
    assert header == ["epoch", "classical_iter_mean", "classical_iter_std"]
    assert len(rows) == 3
    assert all(row[2] == 0.0 for row in rows)
    assert [row[1] for row in rows] == [3.0, 4.0, 5.0]


def test_iteration_curves_two_constant_runs():
    runs = [run_metrics(iters=[10.0] * 4), run_metrics(iters=[20.0] * 4, fold=1)]
    _, rows = emit_iteration_curves(runs)
    for row in rows:
        assert row[1] == pytest.approx(15.0)
        assert row[2] == pytest.approx(7.0710678118654755)


def test_iteration_curves_rejects_mismatched_epochs():
    with pytest.raises(ValueError):
        emit_iteration_curves([run_metrics(iters=[1.0]),
                               run_metrics(iters=[1.0, 2.0], fold=1)])


# ---------------------------------------------------------------------------
# full runs (desk scale)


DESK = ["--data-dir", "data", "--dataset", "MUTAG", "--hidden-dim", "16",
        "--n-qubits", "2", "--fwd-tol", "1e-8", "--bwd-tol", "1e-7"]


def test_run_layout_and_summary_counts(mutag_dir, tmp_path):
    out = tmp_path / "runs"
    code = main(DESK + ["--pathway", "id", "--seeds", "42", "--folds", "3",
                        "--epochs", "1", "--out", str(out), "--workers", "3"])
    assert code == 0
    assert_nothing_left_running()
    base = out / "MUTAG" / "id"
    for tag in ("42_0", "42_1", "42_2"):
        for name in ("metrics.txt", "curves.csv", "checkpoint.npz",
                     "lipschitz.txt", "timing.txt"):
            assert (base / tag / name).is_file()
    summary = (base / "summary.csv").read_text().splitlines()
    assert len(summary) == 2              # header + one id record
    assert summary[1].startswith("id,MUTAG,")
    curves = (base / "iteration_curves.csv").read_text().splitlines()
    assert curves[0] == "epoch,id_iter_mean,id_iter_std"
    assert len(curves) == 2               # one configured epoch
    # the emitted summary re-parses to the aggregate of the raw records
    accs = [float(read_kv(base / tag / "metrics.txt")["test_accuracy"])
            for tag in ("42_0", "42_1", "42_2")]
    rec = dict(zip(summary[0].split(","), summary[1].split(",")))
    assert float(rec["acc_mean"]) == pytest.approx(np.mean(accs), abs=1e-15)
    assert float(rec["acc_std"]) == pytest.approx(np.std(accs, ddof=1), abs=1e-15)


def test_classical_run_writes_no_quantum_arrays(mutag_dir, tmp_path):
    out = tmp_path / "runs"
    code = main(DESK + ["--pathway", "classical", "--seeds", "0", "--folds",
                        "2", "--epochs", "1", "--out", str(out)])
    assert code == 0
    with np.load(out / "MUTAG" / "classical" / "0_0" / "checkpoint.npz") as d:
        assert not any(k.startswith("quantum") for k in d.files)
        assert "backbone_w" in d.files


def test_rerun_is_byte_identical_except_timing(mutag_dir, tmp_path):
    args = DESK + ["--pathway", "classical", "--seeds", "7", "--folds", "2",
                   "--epochs", "2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b), "--workers", "2"]) == 0
    base_a, base_b = out_a / "MUTAG" / "classical", out_b / "MUTAG" / "classical"
    deterministic = ["7_0/metrics.txt", "7_0/curves.csv", "7_1/metrics.txt",
                     "7_1/curves.csv", "7_0/lipschitz.txt",
                     "iteration_curves.csv"]
    for rel in deterministic:
        assert (base_a / rel).read_bytes() == (base_b / rel).read_bytes(), rel
    # configs agree on everything except output directory and worker count
    ca = [l for l in (base_a / "config.txt").read_text().splitlines()
          if not l.startswith(("out=", "workers="))]
    cb = [l for l in (base_b / "config.txt").read_text().splitlines()
          if not l.startswith(("out=", "workers="))]
    assert ca == cb
    # checkpoints compare equal as arrays (zip metadata may differ)
    with np.load(base_a / "7_0" / "checkpoint.npz") as da, \
            np.load(base_b / "7_0" / "checkpoint.npz") as db:
        assert da.files == db.files
        for k in da.files:
            assert np.array_equal(da[k], db[k]), k
    # summary matches on everything but the timing column
    sa = (base_a / "summary.txt").read_text().splitlines()
    sb = (base_b / "summary.txt").read_text().splitlines()
    for la, lb in zip(sa, sb):
        if not la.startswith("time_minutes_mean"):
            assert la == lb


def test_artifact_bytes_do_not_depend_on_workers_or_parent_blas_threads(
        mutag_dir, tmp_path):
    # At the default width these runs' bytes move with the BLAS thread
    # count (1 against 2) unless the workers pin it.
    args = ["--data-dir", "data", "--dataset", "MUTAG", "--pathway",
            "classical", "--seeds", "2", "--folds", "3", "--epochs", "2"]
    outs = []
    for workers, blas in ((1, 2), (2, 1), (3, 2)):
        outs.append(tmp_path / f"workers{workers}")
        with blas_threads(blas):
            assert main(args + ["--workers", str(workers),
                                "--out", str(outs[-1])]) == 0
        assert_nothing_left_running()
    for tag in ("2_0", "2_1", "2_2"):
        for name in ("metrics.txt", "curves.csv", "lipschitz.txt"):
            rel = f"MUTAG/classical/{tag}/{name}"
            first = (outs[0] / rel).read_bytes()
            for out in outs[1:]:
                assert (out / rel).read_bytes() == first, (out.name, rel)


def test_a_failing_run_is_reported_and_the_others_still_write(
        mutag_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    base = out / "MUTAG" / "classical"
    base.mkdir(parents=True)
    (base / "4_1").write_text("a file where the run directory should go")
    code = main(DESK + ["--pathway", "classical", "--seeds", "4", "--folds",
                        "3", "--epochs", "1", "--workers", "2",
                        "--out", str(out)])
    assert code == 1
    assert_nothing_left_running()
    captured = capsys.readouterr()
    assert "run 4_1 failed: FileExistsError" in captured.err
    for tag in ("4_0", "4_2"):
        for name in ("metrics.txt", "curves.csv", "checkpoint.npz",
                     "lipschitz.txt", "timing.txt"):
            assert (base / tag / name).is_file()
    assert "over 2 runs" in captured.out
    assert read_kv(base / "summary.txt")["variant"] == "classical"


def test_module_entry_point_runs_with_two_workers(mutag_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(gdeq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gdeq.cli", *DESK, "--pathway", "classical",
         "--seeds", "1", "--folds", "2", "--epochs", "1", "--workers", "2",
         "--out", str(tmp_path / "runs")],
        cwd=mutag_dir.parent, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    for tag in ("1_0", "1_1"):
        assert (tmp_path / "runs" / "MUTAG" / "classical" / tag
                / "metrics.txt").is_file()


def test_workers_die_with_a_terminated_parent(mutag_dir, tmp_path):
    # SIGTERM skips the parent's cleanup, so only the workers' own tie to
    # their launcher can stop them
    env = dict(os.environ, PYTHONPATH=str(Path(gdeq.__file__).parents[1]))
    parent = subprocess.Popen(
        [sys.executable, "-m", "gdeq.cli", *DESK, "--pathway", "classical",
         "--seeds", "3", "--folds", "2", "--epochs", "500", "--workers", "2",
         "--out", str(tmp_path / "runs")],
        cwd=mutag_dir.parent, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
            workers = [pid for pid, _, ppid in process_table()
                       if ppid == parent.pid]
        assert len(workers) == 2
        time.sleep(2)
        parent.terminate()
        assert parent.wait(timeout=10) == -signal.SIGTERM
        time.sleep(2)
        alive = [pid for pid, state, _ in process_table()
                 if pid in workers and state != "Z"]
        assert alive == []
    finally:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        if parent.poll() is None:
            parent.kill()
        parent.wait()
    assert not (tmp_path / "runs" / "MUTAG" / "classical" / "3_0").exists()


def test_missing_dataset_is_a_config_error(tmp_path):
    code = main(["--data-dir", str(tmp_path), "--dataset", "NOPE",
                 "--out", str(tmp_path / "runs")])
    assert code == 2


def test_a_wrong_graph_label_count_names_the_labels_file(mutag_dir, tmp_path,
                                                         capsys):
    shutil.copytree(mutag_dir / "MUTAG", tmp_path / "MUTAG")
    labels = tmp_path / "MUTAG" / "MUTAG_graph_labels.txt"
    labels.write_text(labels.read_text() + "1\n")
    out = tmp_path / "runs"
    code = main(["--data-dir", str(tmp_path), "--dataset", "MUTAG",
                 "--epochs", "1", "--seeds", "1", "--folds", "2",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {labels}: 189 labels for the 188 graphs of "
        "MUTAG_graph_indicator.txt\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seeds", ","], ["--epochs", "0"],
                                   ["--hidden-dim", "6"], ["--kappa", "1.5"],
                                   ["--kappa", "0"], ["--alpha", "-0.1"],
                                   ["--seeds", "-1"], ["--seeds", "1,1"],
                                   ["--workers", "0"], ["--workers", "-2"],
                                   ["--folds", "70"], ["--bwd-tol", "inf"],
                                   ["--fwd-tol", "nan"], ["--alpha", "nan"],
                                   ["--alpha", "inf"]])
def test_a_bad_config_fails_before_any_run_starts(mutag_dir, tmp_path,
                                                   capsys, flags):
    out = tmp_path / "runs"
    code = main(DESK + ["--pathway", "classical", "--seeds", "1", "--folds",
                        "2", "--epochs", "1", "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert_nothing_left_running()


@pytest.mark.parametrize("line", ["heads=0", "heads=-4", "mlp_hidden=-1",
                                  "lr=nan", "grad_clip=nan",
                                  "grad_clip=-1", "learning_rate=0.1",
                                  "epochs=abc", "seeds=a", None])
def test_a_bad_model_size_in_a_config_file_fails_before_any_run_starts(
        mutag_dir, tmp_path, capsys, line):
    config = tmp_path / "cfg.txt"
    if line is not None:   # no config file at all
        config.write_text(line + "\n")
    out = tmp_path / "runs"
    code = main(DESK + ["--config", str(config), "--pathway", "classical",
                        "--seeds", "1", "--folds", "2", "--epochs", "1",
                        "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert_nothing_left_running()


@pytest.mark.parametrize("line", [None, "learning_rate=0.1", "epochs=abc"])
def test_a_config_file_that_cannot_be_read_exits_2_naming_it_when_printing(
        tmp_path, capsys, line):
    config = tmp_path / "cfg.txt"
    if line is not None:
        config.write_text(line + "\n")
    assert main(["--config", str(config), "--print-config"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ") and str(config) in printed.err
    if line is not None:   # and the line and key it could not take
        assert "line 1: " in printed.err
        assert line.partition("=")[0] in printed.err


def test_an_out_dir_under_a_regular_file_exits_2_and_writes_nothing(
        mutag_dir, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(DESK + ["--pathway", "classical", "--seeds", "1", "--folds",
                        "2", "--epochs", "1", "--out", str(blocker / "runs")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""
    assert_nothing_left_running()


def test_solves_stopped_at_max_iter_are_written_and_fail_the_run(
        mutag_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(DESK + ["--pathway", "classical", "--seeds", "3", "--folds",
                        "2", "--epochs", "1", "--bwd-max-iter", "2",
                        "--out", str(out)])
    assert code != 0
    err = capsys.readouterr().err
    for tag in ("3_0", "3_1"):
        record = read_kv(out / "MUTAG" / "classical" / tag / "metrics.txt")
        assert int(record["adj_max_iter"]) > 0
        assert int(record["fwd_max_iter"]) == 0
        assert f"run {tag}: " in err
    assert "adjoint solves stopped at max_iter" in err


def test_a_violated_certificate_is_written_named_and_fails_the_run(
        mutag_dir, tmp_path, capsys, monkeypatch):
    # a zero bound under a positive estimate: the forked workers inherit it
    analyze = cli.analyze_operator
    monkeypatch.setattr(cli, "analyze_operator",
                        lambda *args: replace(analyze(*args), analytic=0.0))
    out = tmp_path / "runs"
    code = main(DESK + ["--pathway", "sd", "--seeds", "5", "--folds", "2",
                        "--epochs", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    for tag in ("5_0", "5_1"):
        assert f"run {tag}: certificate violated for sd\n" in err
        record = read_kv(out / "MUTAG" / "sd" / tag / "lipschitz.txt")
        assert record["sd.analytic"] == "0"
        assert record["sd.consistent"] == "false"
    assert read_kv(out / "MUTAG" / "sd" / "summary.txt")["variant"] == "sd"
