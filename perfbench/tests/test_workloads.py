"""Self-tests of the benchmark on a tiny configuration (32x32, base width 4,
two train steps). Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import pytest  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402
from rdteunet import model  # noqa: E402

SPEC = workloads.SPEC


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS[name], size=32, base_width=4, loss_step=2, setup_reps=2,
        min_ops={"train": 1, "ckpt": 2, "eval_b1": 11, "eval_b4": 1, "evaluate": 1})


def names(section: str) -> set:
    return {m["name"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    res = workloads.run(tiny(name), 3, 0, False, 0.0, str(tmp_path))
    assert res["correct"] and res["failed"] == 0, res["info"]["failures"]
    assert res["attempted"] > 0
    assert set(res["metrics"]) == names("end_to_end")
    assert all(v["value"] > 0 and v["unit"] for v in res["metrics"].values())
    assert res["info"]["samples"]["setup"] == 2  # one set-up here, one in a child
    assert os.listdir(tmp_path) == []  # the checkpoint file is removed


@pytest.mark.parametrize("name", ["train_full", "train_no_hvda"])
def test_traced_run_emits_per_layer_metrics_and_restores(name, tmp_path):
    before = layertrace.current_bindings()
    spans = tmp_path / "spans.json"
    res = workloads.run(tiny(name), 3, 0, True, 0.0, str(tmp_path), str(spans))
    after = layertrace.current_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert res["correct"] and res["failed"] == 0, res["info"]["failures"]
    assert set(res["metrics"]) == names("per_layer")
    assert all(v["unit"] for v in res["metrics"].values())
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert abs(m["trace.coverage_frac"] - 1.0) <= layertrace.COVERAGE_TOLERANCE
    assert m["nn.conv2d.calls"] > 0 and m["tensor.tape.entries"] > 0
    stair_calls = 0 if name == "train_no_hvda" else 48
    assert m["stairconv.StairConv.calls"] == stair_calls
    assert json.loads(spans.read_text())["spans"]


def test_coverage_check_sees_an_unreported_layer(tmp_path, monkeypatch):
    # a traced layer whose self time feeds no metric leaves a gap in the step
    monkeypatch.setattr(layertrace, "FWD_BWD_LAYERS", tuple(
        n for n in layertrace.FWD_BWD_LAYERS if n != "nn.conv2d"))
    res = workloads.run(tiny("train_full"), 3, 0, True, 0.0, str(tmp_path))
    assert res["metrics"]["trace.coverage_frac"]["value"] < 1 - layertrace.COVERAGE_TOLERANCE
    assert res["failed"] == 1 and not res["correct"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forced_non_finite_loss_counts_as_failure(tmp_path, monkeypatch):
    loss = model.segmentation_loss
    monkeypatch.setattr(model, "segmentation_loss",
                        lambda logits, labels: loss(logits, labels) * float("nan"))
    res = workloads.run(tiny("train_no_hvda"), 3, 0, False, 0.0, str(tmp_path))
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["info"]["error_rate"] > 0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail([float(v) for v in range(1, 21)]) == (10.0, 0.5)
    assert workloads.tail([float(v) for v in range(100)]) == (89.0, 0.9)
    with pytest.raises(ValueError):
        workloads.tail([1.0] * 10)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "train_full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_evaluate_times_the_metrics_without_the_model(tmp_path, monkeypatch):
    tally = workloads.Tally()
    sess, _ = workloads.setup(tiny("train_no_hvda"), 3, str(tmp_path), tally,
                              workloads._nospan, 0.0)
    sess.make_eval_set(3)
    monkeypatch.setattr(model.RdteUnet, "__call__",
                        lambda *a, **k: pytest.fail("evaluate ran the model"))
    assert sess.evaluate() > 0
    assert tally.failures == []
