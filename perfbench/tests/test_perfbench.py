"""Tests of the benchmark itself: metric names, its checks, its counts."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hici import attention, gradcheck, host, tensor  # noqa: E402
from hici.analysis import MICRO_CFG  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def assert_names(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected
    assert all(np.isfinite(entry["value"]) for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["train", "gradcheck"])
def test_printed_end_to_end_names_match_benchmark_json(workload):
    assert_names(run_cli(workload, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["train", "strict-train"])
def test_printed_per_layer_names_match_benchmark_json(workload):
    assert_names(run_cli(workload, 1), SPEC["per_layer"])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


# ---------------------------------------------------------------------------
# every correctness check fails on a fault injected here, outside src/


def test_train_loss_check_catches_nan(monkeypatch, tmp_path):
    original = host.cross_entropy_mean
    monkeypatch.setattr(host, "cross_entropy_mean",
                        lambda logits, targets: tensor.mul_const(original(logits, targets),
                                                                 np.nan))
    assert workloads.Train(0, str(tmp_path)).op() is False


def test_train_resume_check_catches_lossy_reload(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Train, "checkpoint_every", 2)
    clean = workloads.Train(0, str(tmp_path))
    assert all(clean.op() for _ in range(4))
    assert clean.final_checks() == {"resume_reproduces_losses": True}

    original = host.save_tensors
    monkeypatch.setattr(host, "save_tensors",
                        lambda prefix, tensors, dtype="f8": original(prefix, tensors, "f4"))
    faulty = workloads.Train(0, str(tmp_path))
    for _ in range(4):
        faulty.op()
    assert faulty.final_checks() == {"resume_reproduces_losses": False}


def test_eval_checks_catch_wrong_module_output_and_nan(monkeypatch, tmp_path):
    w = workloads.Eval(0, str(tmp_path))
    assert w.final_checks() == {"module_matches_reference": True, "perplexity_finite": True}

    original = attention.integrate_global
    monkeypatch.setattr(attention, "integrate_global",
                        lambda *a, **k: tensor.mul_const(original(*a, **k), 1 + 1e-6))
    assert w.final_checks()["module_matches_reference"] is False
    monkeypatch.undo()

    forward = host.lm_forward
    monkeypatch.setattr(host, "lm_forward",
                        lambda *a, **k: tensor.mul_const(forward(*a, **k), np.nan))
    assert w.op() is False


def test_strict_causality_check_catches_leak(monkeypatch, tmp_path):
    w = workloads.StrictTrain(0, str(tmp_path))
    assert w.final_checks() == {"last_token_leaves_earlier_logits": True}

    original = host.hici_forward

    def leaky(x, *args, **kwargs):
        out = original(x, *args, **kwargs)
        return tensor.add(out, tensor.Tensor(np.full(out.data.shape, x.data[-1].sum())))

    monkeypatch.setattr(host, "hici_forward", leaky)
    assert w.final_checks() == {"last_token_leaves_earlier_logits": False}


def test_gradcheck_check_catches_wrong_derivative(monkeypatch, tmp_path):
    original = gradcheck.grad_or_zero
    monkeypatch.setattr(gradcheck, "grad_or_zero", lambda p: original(p) * 1.001)
    assert workloads.Gradcheck(0, str(tmp_path)).op() is False


def test_gradcheck_seed_is_the_run_seed_mod_the_passing_seeds(tmp_path):
    assert [workloads.Gradcheck(s, str(tmp_path)).seed for s in (0, 10, 11, 25)] == [0, 10, 0, 3]


@pytest.mark.xfail(strict=True, reason="defect of hici.gradcheck: at seed 11 the 1e-6 "
                   "finite-difference check fails with correct derivatives (round-off on a "
                   "near-zero gradient), so the gradcheck workload uses seeds 0-10")
def test_gradcheck_oracle_passes_seed_11():
    errors = gradcheck.check_module_gradients(MICRO_CFG, seed=11,
                                              n_segments=workloads.Gradcheck.n_segments)
    assert max(errors.values()) <= workloads.Gradcheck.tolerance


# ---------------------------------------------------------------------------
# tracing


def traced_counts(workload):
    phase, tracer, flops = run.traced_phase(workload, 0.0)
    n = len(phase.times)
    return {name: value / n for name, value in tracer.counts.items()}, flops, n


def test_flop_and_node_counts_repeat_exactly(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Train, "checkpoint_every", 2)
    original_train = host.train
    first = traced_counts(workloads.Train(1, str(tmp_path)))
    again = traced_counts(workloads.Train(1, str(tmp_path)))
    other_seed = traced_counts(workloads.Train(2, str(tmp_path)))
    assert first == again == other_seed
    counts, flops, n_ops = first
    assert n_ops == 2 and counts["tensor.graph_nodes"] > 0 and flops["local"]["matmul"] > 0
    assert host.train is original_train  # the tracer put every original back


def test_missing_calls_fail_loudly():
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="host.train"):
        tracer.require("train", ["host.train"])
