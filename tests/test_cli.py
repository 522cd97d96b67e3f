import json
import os
import re
from pathlib import Path

import pytest

from hici.cli import dispatch
from hici.host import BYTE_VOCAB


@pytest.fixture()
def host_config_file(tmp_path):
    cfg = {
        "vocab_size": BYTE_VOCAB, "n_layers": 1, "d": 32, "ffn_width": 64,
        "max_T": 32, "seed": 7,
        "hici": {"S": 8, "M": 2, "K": 2, "H": 2, "d": 32, "d_b": 16, "d_s": 8},
    }
    path = tmp_path / "host.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("abcdefgh" * 64)
    return str(path)


def _tree(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for f in filenames:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["params", "--bogus"])
    assert exc.value.code == 2


def test_params_preset_prints_published_numbers(capsys):
    assert dispatch(["params", "--preset", "llama2-7b", "--paper-layout"]) == 0
    out = capsys.readouterr().out
    for token in ("8.4M", "3.7M", "389.1M", "5.46%"):
        assert token in out


def test_params_writes_manifest_before_outputs(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert dispatch(["params", "--preset", "llama2-7b", "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "run_manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["subcommand"] == "params"
    assert manifest["outputs"] == ["params.csv", "params.txt"]
    assert os.path.exists(os.path.join(out_dir, "params.csv"))


def test_flops_command(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert dispatch(["flops", "--preset", "llama2-7b", "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "143.4" in out and "8.8" in out
    assert os.path.exists(os.path.join(out_dir, "flops.csv"))


def test_flops_rejects_bad_context(capsys):
    assert dispatch(["flops", "--contexts", "8191"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,fragment", [
    (["params", "--config", str(Path(__file__).parent.parent / "configs" / "micro-hici.json")],
     "n_layers=0"),
    (["params", "--layers", "-2"], "n_layers=-2"),
    (["params", "--base-params", "-5"], "base_params=-5"),
    (["flops", "--segments", "0"], "n_segments=0"),
    (["flops", "--segments", "-1"], "n_segments=-1"),
    (["flops", "--contexts", "0"], "contexts=[0]"),
], ids=["params-config-no-layers", "params-negative-layers", "params-negative-base",
        "flops-zero-segments", "flops-negative-segments", "flops-zero-context"])
def test_bad_counts_are_reported(capsys, argv, fragment):
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


def test_scaling_command(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert dispatch(["scaling", "--t-list", "64,128", "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "ratio" in out
    csv = Path(out_dir, "scaling.csv").read_text()
    assert csv.splitlines()[0] == "T,flops_total,flops_matmul,analytic_matmul"


def test_gradcheck_micro_passes(capsys):
    assert dispatch(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "PASS" in out
    assert re.search(r"64-bit, in \d+\.\d s\n", out)


def test_train_eval_attn_stats_pipeline(tmp_path, host_config_file, corpus_file, capsys):
    out_dir = str(tmp_path / "train_run")
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "30", "--out", out_dir]) == 0
    trace = Path(out_dir, "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss,lr"
    assert len(trace) == 31
    ckpt = os.path.join(out_dir, "checkpoint")

    eval_dir = str(tmp_path / "eval_run")
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file,
                     "--eval-len", "32", "--stride", "16", "--out", eval_dir]) == 0
    result = json.loads(Path(eval_dir, "eval_ppl.json").read_text())
    assert result["perplexity"] > 0
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file,
                     "--eval-len", "32", "--stride", "16", "--mode", "full"]) == 0

    stats_dir = str(tmp_path / "stats_run")
    assert dispatch(["attn-stats", "--ckpt", ckpt, "--text", corpus_file,
                     "--eval-len", "32", "--out", stats_dir]) == 0
    lines = Path(stats_dir, "attn_mass.csv").read_text().splitlines()
    assert lines[0] == "layer,head,frac_global,frac_local,frac_segment"
    assert len(lines) == 3  # 1 layer x 2 heads
    for line in lines[1:]:
        parts = line.split(",")
        assert abs(sum(float(v) for v in parts[2:]) - 1.0) <= 1e-9


def test_eval_ppl_default_stride_fits_the_micro_host_window(tmp_path, corpus_file, capsys):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "micro-host.json")
    run = str(tmp_path / "run")
    assert dispatch(["train", "--config", config, "--corpus", corpus_file,
                     "--steps", "1", "--out", run]) == 0
    ckpt = os.path.join(run, "checkpoint")
    eval_dir = str(tmp_path / "eval")
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file, "--out", eval_dir]) == 0
    assert "eval_len=32, stride=32)" in capsys.readouterr().out
    assert json.loads(Path(eval_dir, "eval_ppl.json").read_text())["stride"] == 32
    manifest = json.loads(Path(eval_dir, "run_manifest.json").read_text())
    assert manifest["config"]["stride"] == 32
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file, "--stride", "33"]) == 2
    assert "stride=33 must lie in [1, eval_T=32]" in capsys.readouterr().err


def test_train_writes_only_into_out_dir(tmp_path, host_config_file, corpus_file):
    out_dir = tmp_path / "only_here"
    before = set(os.listdir(tmp_path))
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "3", "--out", str(out_dir)]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}


def test_identical_argv_and_seed_give_byte_identical_outputs(
        tmp_path, host_config_file, corpus_file):
    runs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                         "--steps", "10", "--seed", "3", "--out", out_dir]) == 0
        runs.append(_tree(out_dir))
    assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_train_reports_a_non_finite_loss(tmp_path, host_config_file, corpus_file, capsys):
    # a huge learning rate overflows the parameters after the first update
    cfg = json.loads(Path(host_config_file).read_text())
    cfg["lr_backbone"] = 1e300
    path = tmp_path / "huge_lr.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", str(path), "--corpus", corpus_file,
                     "--steps", "5", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training stopped at step 1: non-finite loss (nan)")
    assert not (out_dir / "checkpoint").exists()


def test_train_rejects_negative_steps(tmp_path, host_config_file, corpus_file, capsys):
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "-1", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: steps must be >= 0, got -1\n"
    assert not (out_dir / "checkpoint").exists()


def test_attn_stats_uniform_probe_baseline(tmp_path, capsys):
    cfg = {
        "vocab_size": BYTE_VOCAB, "n_layers": 1, "d": 16, "ffn_width": 32,
        "max_T": 1024, "seed": 1,
        "hici": {"S": 1024, "M": 8, "K": 4, "H": 2, "d": 16, "d_b": 8, "d_s": 4,
                 "causal_segment_mask": False},
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["attn-stats", "--config", str(path), "--probe-uniform",
                     "--eval-len", "1024"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:]:
        frac_global = float(line.split(",")[2])
        assert frac_global == 4.0 / 1036.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"S": 8, "M": 2, "K": 2, "H": 2, "d": 32,
                                "d_b": 16, "d_s": 8, "bogus_key": 1}))
    assert dispatch(["gradcheck", "--config", str(path)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_file_is_reported(capsys):
    assert dispatch(["eval-ppl", "--ckpt", "/nonexistent/dir",
                     "--text", "/nonexistent/file"]) == 2
    assert "error:" in capsys.readouterr().err


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("file_name,mutate,fragment", [
    ("checkpoint.json",
     lambda m: dict(m, tensors=[dict(m["tensors"][0], dtype="f2")] + m["tensors"][1:]),
     "unknown dtype"),
    ("checkpoint.json", _without("blob"), "'blob'"),
    ("checkpoint.json", _without("tensors"), "'tensors'"),
    ("checkpoint.json", lambda m: [m], "expected a JSON object"),
    ("checkpoint.json", lambda m: dict(m, tensors=["embed"] + m["tensors"][1:]),
     "is not an object"),
    ("checkpoint.json",
     lambda m: dict(m, tensors=[e for e in m["tensors"] if e["name"] != "embed"]),
     "lacks tensor 'embed'"),
    ("state.json", _without("step"), "missing keys ['step']"),
    ("state.json", _without("config"), "missing keys ['config']"),
    ("state.json", lambda s: [s], "expected a JSON object"),
    ("state.json", lambda s: dict(s, step=None), "step None is not a non-negative int"),
    ("state.json", lambda s: dict(s, adam_t=[1]), "adam_t [1] is not a non-negative int"),
    ("state.json", lambda s: dict(s, rng_state=dict(s["rng_state"], state="x")),
     "unusable rng_state"),
    ("state.json", lambda s: dict(s, rng_state=[1]), "unusable rng_state"),
    ("checkpoint.json", lambda m: dict(m, blob="/etc/hostname"), "not a plain file name"),
], ids=["dtype", "no-blob", "no-tensors", "manifest-list", "entry-string", "no-embed",
        "no-step", "no-config", "state-list", "step-null", "adam-t-list", "rng-inner",
        "rng-list", "blob-absolute"])
def test_eval_ppl_reports_corrupt_checkpoint(tmp_path, host_config_file, corpus_file, capsys,
                                             file_name, mutate, fragment):
    out_dir = str(tmp_path / "run")
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "1", "--out", out_dir]) == 0
    ckpt = os.path.join(out_dir, "checkpoint")
    path = os.path.join(ckpt, file_name)
    with open(path) as fh:
        obj = json.load(fh)
    with open(path, "w") as fh:
        json.dump(mutate(obj), fh)
    capsys.readouterr()
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


def test_attn_stats_reports_empty_text(tmp_path, host_config_file, capsys):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    assert dispatch(["attn-stats", "--config", host_config_file, "--text", str(path)]) == 2
    assert capsys.readouterr().err == "error: empty token sequence\n"
