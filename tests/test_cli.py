import argparse
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hici import parallel
from hici.cli import build_parser, dispatch
from hici.config import SCOPE_ALL, load_host_config
from hici.host import BYTE_VOCAB, encode_bytes, eval_ppl, save_checkpoint, train

MICRO_HOST = Path(__file__).parent.parent / "configs" / "micro-host.json"


@pytest.fixture()
def host_config_file(tmp_path):
    cfg = {
        "vocab_size": BYTE_VOCAB, "n_layers": 1, "d": 32, "ffn_width": 64,
        "max_T": 32, "seed": 7,
        "hici": {"S": 8, "M": 2, "K": 2, "H": 2, "d": 32, "d_b": 16, "d_s": 8,
                 "global_scope": "preceding_segments"},
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


# the scope and the causal mask come from the config file alone, and a run
# that draws no random number takes no seed
@pytest.mark.parametrize("argv", [
    ["params", "--bogus"],
    ["train", "--config", "host.json", "--corpus", "corpus.txt", "--out", "run",
     "--global-scope", "all"],
    ["eval-ppl", "--ckpt", "checkpoint", "--text", "text.txt", "--causal", "off"],
    ["flops", "--seed", "0"],
], ids=["params-bogus", "train-global-scope", "eval-ppl-causal", "flops-seed"])
def test_unknown_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_subcommand_takes_exactly_these_options():
    # 36 options; one more needs a caller that cannot do without it
    expected = {
        "params": ["--preset", "--config", "--layers", "--base-params", "--paper-layout", "--out"],
        "flops": ["--preset", "--contexts", "--segments", "--out"],
        "gradcheck": ["--config", "--tolerance", "--seed", "--out"],
        "train": ["--config", "--corpus", "--steps", "--seed", "--out"],
        "eval-ppl": ["--ckpt", "--text", "--eval-len", "--stride", "--mode", "--out"],
        "attn-stats": ["--ckpt", "--config", "--text", "--eval-len", "--probe-uniform",
                       "--seed", "--out"],
        "scaling": ["--config", "--t-list", "--seed", "--out"],
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [o for a in p._actions if not isinstance(a, argparse._HelpAction)
                      for o in a.option_strings]
               for name, p in sub.choices.items()}
    assert options == expected
    assert sum(map(len, options.values())) == 36


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
    assert manifest["seed"] is None
    assert os.path.exists(os.path.join(out_dir, "params.csv"))


def test_flops_command(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert dispatch(["flops", "--preset", "llama2-7b", "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "143.4" in out and "8.8" in out
    assert os.path.exists(os.path.join(out_dir, "flops.csv"))
    assert json.loads(Path(out_dir, "run_manifest.json").read_text())["seed"] is None


def test_flops_rejects_bad_context(capsys):
    assert dispatch(["flops", "--contexts", "8191"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,fragment", [
    (["params", "--config", str(Path(__file__).parent.parent / "configs" / "micro-hici.json")],
     "n_layers=0"),
    (["params", "--layers", "-2"], "n_layers=-2"),
    (["params", "--base-params", "-5"], "base_params=-5"),
    (["params", "--base-params", "inf"], "base_params=inf"),
    (["params", "--base-params", "nan"], "base_params=nan"),
    (["flops", "--segments", "0"], "n_segments=0"),
    (["flops", "--segments", "-1"], "n_segments=-1"),
    (["flops", "--contexts", "0"], "contexts=[0]"),
], ids=["params-config-no-layers", "params-negative-layers", "params-negative-base",
        "params-infinite-base", "params-nan-base",
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


@pytest.mark.parametrize("t_list,bad", [("64,-64", "T=-64"), ("33", "T=33"), ("0", "T=0")])
def test_scaling_rejects_bad_context_before_writing(tmp_path, capsys, t_list, bad):
    out_dir = tmp_path / "run"
    assert dispatch(["scaling", "--t-list", t_list, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad in err and "multiple of S=32" in err
    assert not out_dir.exists()


def test_gradcheck_micro_passes(capsys):
    assert dispatch(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "PASS" in out
    n = parallel.processes()
    processes = "1 process" if n == 1 else f"{n} processes"
    assert re.search(rf"64-bit, on {processes}, in \d+\.\d s\n", out)


def test_gradcheck_names_the_number_of_processes(monkeypatch, capsys):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert dispatch(["gradcheck", "--seed", "0"]) == 0
    assert "64-bit, on 1 process, in " in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-6"])
def test_gradcheck_rejects_bad_tolerance(tolerance, capsys):
    assert dispatch(["gradcheck", f"--tolerance={tolerance}"]) == 2
    captured = capsys.readouterr()
    assert "error: --tolerance" in captured.err and "PASS" not in captured.out


def test_gradcheck_fails_on_nan_error(monkeypatch, capsys):
    # a NaN relative error is the worst one, whichever tensor it belongs to
    import hici.cli as cli
    monkeypatch.setattr(cli, "check_module_gradients",
                        lambda cfg, seed: {"a": 1e-9, "b": float("nan"), "c": 1e-8})
    monkeypatch.setattr(cli, "check_host_block_gradients", lambda cfg, seed: {"d": 1e-9})
    assert dispatch(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "max relative error: nan (b)" in out and "FAIL" in out


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
    run = str(tmp_path / "run")
    assert dispatch(["train", "--config", str(MICRO_HOST), "--corpus", corpus_file,
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
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file, "--mode", "full"]) == 0


def test_iid_text_scores_no_better_than_chance_on_the_default_host_path(tmp_path):
    # on i.i.d. uniform text over 16 symbols a causal model's expected
    # perplexity is at least 16 (cross-entropy >= entropy); 15.5 is about ten
    # standard errors of a 4,096-token estimate below that
    rng = np.random.default_rng(1)
    corpus, text = tmp_path / "corpus", tmp_path / "text"
    for path, n_tokens in ((corpus, 20_000), (text, 4_096)):
        path.write_bytes((rng.integers(0, 16, size=n_tokens) + ord("a")).astype(np.uint8))
    run = tmp_path / "run"
    assert dispatch(["train", "--config", str(MICRO_HOST), "--corpus", str(corpus),
                     "--steps", "300", "--out", str(run)]) == 0
    for mode in ("hici", "full"):
        assert dispatch(["eval-ppl", "--ckpt", str(run / "checkpoint"), "--text", str(text),
                         "--mode", mode, "--out", str(tmp_path / mode)]) == 0
        assert json.loads((tmp_path / mode / "eval_ppl.json").read_text())["perplexity"] >= 15.5

    # the control: the same host in the all_segments scope reads later tokens,
    # learns to use them, and scores below the floor
    cfg = load_host_config(MICRO_HOST)
    cfg = dataclasses.replace(cfg, hici=dataclasses.replace(cfg.hici, global_scope=SCOPE_ALL))
    params, *_ = train(encode_bytes(corpus.read_bytes()), cfg, 300)
    assert eval_ppl(params, cfg, encode_bytes(text.read_bytes()), cfg.max_T, cfg.max_T) < 15.5


def test_the_config_file_sets_the_scope_of_every_run_on_it(
        tmp_path, host_config_file, corpus_file):
    run, eval_dir = tmp_path / "run", tmp_path / "eval"
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "1", "--out", str(run)]) == 0
    assert dispatch(["eval-ppl", "--ckpt", str(run / "checkpoint"), "--text", corpus_file,
                     "--out", str(eval_dir)]) == 0
    train_manifest = json.loads((run / "run_manifest.json").read_text())
    state = json.loads((run / "checkpoint" / "state.json").read_text())
    eval_manifest = json.loads((eval_dir / "run_manifest.json").read_text())
    assert eval_manifest["seed"] is None
    assert [train_manifest["config"]["hici"]["global_scope"],
            state["config"]["hici"]["global_scope"],
            eval_manifest["config"]["config"]["hici"]["global_scope"]] == \
        ["preceding_segments"] * 3


@pytest.mark.parametrize("hici", [
    {"global_scope": "all_segments"},
    {"causal_segment_mask": False},
], ids=["all-segments", "mask-off"])
def test_train_refuses_a_config_that_is_not_causal(tmp_path, host_config_file, corpus_file,
                                                   capsys, hici):
    cfg = json.loads(Path(host_config_file).read_text())
    cfg["hici"].update(hici)
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", str(path), "--corpus", corpus_file,
                     "--steps", "1", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train needs a causal config") and err.count("\n") == 1
    assert not out_dir.exists()


def test_eval_ppl_scores_a_non_causal_checkpoint_only_in_full_mode(tmp_path, corpus_file,
                                                                   capsys):
    cfg = load_host_config(MICRO_HOST)
    cfg = dataclasses.replace(cfg, hici=dataclasses.replace(cfg.hici, global_scope="all_segments"))
    params, opt, rng, _ = train(encode_bytes(Path(corpus_file).read_bytes()), cfg, 1)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, cfg, params, opt, rng, step=1)
    out_dir = tmp_path / "eval"
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file, "--mode", "hici",
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eval-ppl --mode hici needs a causal config")
    assert err.count("\n") == 1 and not out_dir.exists()
    assert dispatch(["eval-ppl", "--ckpt", ckpt, "--text", corpus_file, "--mode", "full",
                     "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "eval_ppl.json").read_text())["mode"] == "full"


def _assert_manifest_lists(out_dir, outputs):
    """The run manifest in `out_dir` lists exactly `outputs`, and each exists."""
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["outputs"] == outputs
    assert all((out_dir / name).exists() for name in outputs)


def test_train_writes_only_into_out_dir(tmp_path, host_config_file, corpus_file):
    out_dir = tmp_path / "only_here"
    before = set(os.listdir(tmp_path))
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "3", "--out", str(out_dir)]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}
    _assert_manifest_lists(out_dir, ["checkpoint/", "loss_trace.csv"])


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
    _assert_manifest_lists(out_dir, ["loss_trace.csv"])


def test_train_zero_steps_reports_no_loss(tmp_path, host_config_file, corpus_file, capsys):
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "0", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trained 0 steps; no step ran, so there is no loss to report\n")
    assert "nan" not in out
    assert (out_dir / "checkpoint").exists()
    assert (out_dir / "loss_trace.csv").read_text() == "step,loss,lr\n"


def test_train_rejects_negative_steps(tmp_path, host_config_file, corpus_file, capsys):
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "-1", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: steps must be >= 0, got -1\n"
    assert not (out_dir / "checkpoint").exists()


@pytest.mark.parametrize("corpus, steps, message", [
    (b"abc", "2", "corpus has 3 tokens, needs at least max_T+1=33"),
    (b"abcdefgh" * 8, "-1", "steps must be >= 0, got -1"),
], ids=["short-corpus", "negative-steps"])
def test_train_checks_its_input_before_writing(tmp_path, host_config_file, capsys,
                                               corpus, steps, message):
    path = tmp_path / "corpus.bin"
    path.write_bytes(corpus)
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", host_config_file, "--corpus", str(path),
                     "--steps", steps, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("text, stride, message", [
    (b"abcdefgh" * 8, "0", "stride=0 must lie in [1, eval_T=32]"),
    (b"abcdefgh" * 3, "16", "text has 24 tokens, shorter than eval_T=32"),
], ids=["zero-stride", "short-text"])
def test_eval_ppl_checks_its_input_before_writing(tmp_path, host_config_file, corpus_file,
                                                  capsys, text, stride, message):
    run = tmp_path / "train"
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "1", "--out", str(run)]) == 0
    path = tmp_path / "text.bin"
    path.write_bytes(text)
    out_dir = tmp_path / "eval"
    capsys.readouterr()
    assert dispatch(["eval-ppl", "--ckpt", str(run / "checkpoint"), "--text", str(path),
                     "--stride", stride, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("field, value", [
    ("lr_backbone", "fast"),
    ("n_layers", 1.5),
    ("n_layers", True),
    ("adam_beta1", 1.0),
    ("adam_beta2", 1.0),
    ("grad_clip_hici", -0.3),
    ("warmup_steps", -1),
    ("weight_decay", -0.1),
    ("lr_hici", float("inf")),
    ("max_T", 0),
    ("seed", -1),
])
def test_train_rejects_bad_training_fields(tmp_path, corpus_file, capsys, field, value):
    cfg = json.loads(MICRO_HOST.read_text())
    cfg[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert dispatch(["train", "--config", str(path), "--corpus", corpus_file,
                     "--steps", "2", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1
    assert not out_dir.exists()


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
    ("checkpoint.json",
     lambda m: dict(m, tensors=m["tensors"] + [dict(m["tensors"][0], name="pos.old")]),
     "tensors its config does not define: 'pos.old'"),
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
        "unread-tensor", "no-step", "no-config", "state-list", "step-null", "adam-t-list", "rng-inner",
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


@pytest.mark.parametrize("n_bytes,eval_len,fragment", [
    (40, "-8", "--eval-len must be >= 0 (0 = max_T), got -8"),
    (16, "32", "text has 16 tokens, shorter than eval_len=32"),
], ids=["negative", "short-text"])
def test_attn_stats_scores_exactly_the_asked_window(tmp_path, host_config_file, capsys,
                                                     n_bytes, eval_len, fragment):
    text = tmp_path / "text.bin"
    text.write_bytes(bytes(range(n_bytes)))
    out_dir = tmp_path / "run"
    assert dispatch(["attn-stats", "--config", host_config_file, "--text", str(text),
                     "--eval-len", eval_len, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {fragment}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("eval_len,fragment", [
    ("30", "sequence length T=30 not divisible by segment length S=8"),
    ("64", "sequence length T=64 exceeds max_T=32"),
], ids=["not-divisible", "past-max-T"])
def test_attn_stats_writes_no_manifest_for_a_window_the_model_rejects(
        tmp_path, host_config_file, capsys, eval_len, fragment):
    out_dir = tmp_path / "run"
    assert dispatch(["attn-stats", "--config", host_config_file, "--eval-len", eval_len,
                     "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {fragment}\n"
    assert not out_dir.exists()


def test_eval_ppl_rejects_negative_eval_len(tmp_path, host_config_file, corpus_file, capsys):
    run = str(tmp_path / "run")
    assert dispatch(["train", "--config", host_config_file, "--corpus", corpus_file,
                     "--steps", "1", "--out", run]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "eval"
    assert dispatch(["eval-ppl", "--ckpt", os.path.join(run, "checkpoint"), "--text",
                     corpus_file, "--eval-len", "-32", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: --eval-len must be >= 0 (0 = max_T), got -32\n"
    assert not out_dir.exists()
