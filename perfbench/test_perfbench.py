"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that the gradient check fails when the equilibrium
layer's gradient is corrupted through a wrapper, and that the command
fails without printing a result where the program is missing.
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import run

run.load_program(run.ROOT)

import workloads  # noqa: E402  (needs gdeq on the path)
from gdeq import autodiff as ad, training  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    args = Namespace(workload=workload, seed=3, seconds=0.01, trace=trace,
                     out=None)
    return run.run(args, sizes=workloads.TOY)


def test_spec_matches_the_code():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = _run(workload, trace)
    assert result["correct"], record["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
        assert m["value"] > 0 or trace


def test_gradient_check_fires_on_a_corrupted_gradient(monkeypatch):
    solve = training.equilibrium_solve

    def corrupted(*args, **kwargs):
        z, report = solve(*args, **kwargs)
        return ad.record_op(z.data, [(z, lambda g: 1.5 * g)]), report

    monkeypatch.setattr(training, "equilibrium_solve", corrupted)
    result, record = _run("train-classical", 0)
    assert not result["correct"]
    assert [c["name"] for c in record["checks"] if not c["ok"]] == ["gradient"]


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-classical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
