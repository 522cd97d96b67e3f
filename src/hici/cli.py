"""Command-line entry point.

Subcommands: train, eval-ppl, gradcheck, flops, params, attn-stats,
scaling. Every run that writes files takes `--out DIR` and never writes
anywhere else; it writes its run-manifest there only once its inputs
have passed their checks (for `attn-stats` and `scaling`, after the
computation that checks them). All randomness flows from one `--seed`
through numpy's PCG64 generator, so identical argv plus seed reproduce
outputs byte for byte. Only the subcommands that draw random numbers
(gradcheck, train, attn-stats, scaling) take `--seed`; the others record
`"seed": null` in their manifest.

No option changes an attention config once it is read: its scope and
its causal mask come from the `--config` file (a preset or built-in
config without one), or from the checkpoint's `state.json`. `train`,
and `eval-ppl` in its `hici` mode, refuse a config that is not causal
(`HiCIConfig.causal`) before they write anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import __version__, parallel
from .analysis import (
    ACCOUNTING_PRESETS,
    MICRO_CFG,
    PAPER_CONTEXTS,
    count_params,
    flops_table,
    flops_table_csv,
    format_flops_table,
    format_param_table,
    format_probe_table,
    param_table_csv,
    probe_table_csv,
    scaling_probe,
)
from .attention import record_attn_mass, uniform_queries
from .config import ConfigError, HiCIConfig, config_to_dict, load_hici_config, load_host_config
from .gradcheck import FD_STEP, check_host_block_gradients, check_module_gradients, worst_error
from .host import (
    check_train_input,
    encode_bytes,
    eval_config,
    eval_ppl,
    init_host_params,
    lm_forward,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .serialize import write_json
from .tensor import GraphError, no_grad

SCALING_CFG = HiCIConfig(S=32, M=8, K=4, H=4, d=32, d_b=16, d_s=8)


def _write_manifest(out_dir, command, config_snapshot, seed, outputs):
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "run_manifest.json"), {
        "subcommand": command,
        "config": config_snapshot,
        "seed": seed,
        "version": __version__,
        "outputs": sorted(outputs),
    })


def _require_causal(cfg, what):
    """Raise ConfigError unless the attention config `cfg` lets no output read a later token."""
    if not cfg.causal:
        raise ConfigError(
            f"{what} needs a causal config (the mask on; global_scope 'preceding_segments' or "
            f"M=0), got causal_segment_mask={cfg.causal_segment_mask}, "
            f"global_scope={cfg.global_scope!r}, M={cfg.M}")


def _write_text(out_dir, name, text):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_params(args):
    if args.config:
        cfg = load_hici_config(args.config)
        layers, base = args.layers, args.base_params
    else:
        preset = ACCOUNTING_PRESETS[args.preset]
        cfg = preset.cfg
        layers = args.layers if args.layers else preset.dims.n_layers
        base = args.base_params if args.base_params else preset.base_params
    bd = count_params(cfg, layers, base)
    if args.out:
        _write_manifest(args.out, "params", config_to_dict(cfg), None,
                        ["params.txt", "params.csv"])
        _write_text(args.out, "params.txt", format_param_table(bd, args.paper_layout) + "\n")
        _write_text(args.out, "params.csv", param_table_csv(bd))
    print(format_param_table(bd, paper_layout=args.paper_layout))
    return 0


def _cmd_flops(args):
    preset = ACCOUNTING_PRESETS[args.preset]
    contexts = ([int(c) for c in args.contexts.split(",")] if args.contexts
                else list(PAPER_CONTEXTS))
    rows = flops_table(preset, contexts=contexts, n_segments=args.segments)
    if args.out:
        _write_manifest(args.out, "flops",
                        {"preset": args.preset, "contexts": contexts,
                         "segments": args.segments},
                        None, ["flops.txt", "flops.csv"])
        _write_text(args.out, "flops.txt", format_flops_table(rows) + "\n")
        _write_text(args.out, "flops.csv", flops_table_csv(rows))
    print(format_flops_table(rows))
    return 0


def _cmd_gradcheck(args):
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    cfg = load_hici_config(args.config) if args.config else MICRO_CFG
    if args.out:
        _write_manifest(args.out, "gradcheck", config_to_dict(cfg), args.seed,
                        ["gradcheck.csv"])
    t0 = time.perf_counter()
    errors = check_module_gradients(cfg, seed=args.seed)
    errors.update({f"host.{k}": v
                   for k, v in check_host_block_gradients(cfg, seed=args.seed).items()})
    elapsed = time.perf_counter() - t0
    worst, worst_err = worst_error(errors)
    lines = ["tensor,rel_error"] + [f"{name},{errors[name]!r}" for name in sorted(errors)]
    if args.out:
        _write_text(args.out, "gradcheck.csv", "\n".join(lines) + "\n")
    n_procs = parallel.processes()
    step = np.format_float_scientific(FD_STEP, trim="-", exp_digits=1)   # 1e-5, not 1e-05
    print(f"checked {len(errors)} parameter tensors (module + one host block), h={step}, "
          f"64-bit, on {n_procs} process{'es' if n_procs != 1 else ''}, in {elapsed:.1f} s")
    print(f"max relative error: {worst_err:.3e} ({worst})")
    if not worst_err <= args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:g}")
        return 1
    print(f"PASS: within tolerance {args.tolerance:g}")
    return 0


def _cmd_train(args):
    cfg = load_host_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    _require_causal(cfg.hici, "train")
    with open(args.corpus, "rb") as fh:
        corpus = encode_bytes(fh.read())
    check_train_input(corpus, cfg, args.steps)
    params, opt, rng, trace = train(corpus, cfg, args.steps)
    stopped = len(trace) < args.steps   # no checkpoint then
    _write_manifest(args.out, "train", config_to_dict(cfg), cfg.seed,
                    ["loss_trace.csv"] + ([] if stopped else ["checkpoint/"]))
    lines = ["step,loss,lr"]
    lines.extend(f"{s},{loss!r},{lr!r}" for s, loss, lr in trace)
    _write_text(args.out, "loss_trace.csv", "\n".join(lines) + "\n")
    if stopped:
        step, loss, _lr = trace[-1]
        raise ValueError(f"training stopped at step {step}: non-finite loss ({loss!r}) "
                         "or hici gradient norm; no checkpoint written")
    save_checkpoint(os.path.join(args.out, "checkpoint"), cfg, params, opt, rng,
                    step=args.steps)
    if trace:
        print(f"trained {args.steps} steps; final loss {trace[-1][1]:.6f}")
    else:
        print("trained 0 steps; no step ran, so there is no loss to report")
    print(f"checkpoint written to {os.path.join(args.out, 'checkpoint')}")
    return 0


def _eval_len(args, cfg):
    """The `--eval-len` window: max_T when 0, and never negative."""
    if args.eval_len < 0:
        raise ConfigError(f"--eval-len must be >= 0 (0 = max_T), got {args.eval_len}")
    return args.eval_len if args.eval_len else cfg.max_T


def _cmd_eval_ppl(args):
    cfg, params, _opt, _rng, step = load_checkpoint(args.ckpt)
    with open(args.text, "rb") as fh:
        ids = encode_bytes(fh.read())
    eval_len = _eval_len(args, cfg)
    stride = args.stride if args.stride is not None else min(256, eval_len)
    _require_causal(eval_config(cfg, ids.shape[0], eval_len, stride, args.mode).hici,
                    f"eval-ppl --mode {args.mode}")
    if args.out:
        _write_manifest(args.out, "eval-ppl",
                        {"ckpt_step": step, "eval_len": eval_len,
                         "stride": stride, "mode": args.mode,
                         "config": config_to_dict(cfg)},
                        None, ["eval_ppl.json"])
    ppl = eval_ppl(params, cfg, ids, eval_len, stride, mode=args.mode)
    if args.out:
        write_json(os.path.join(args.out, "eval_ppl.json"),
                   {"perplexity": ppl, "eval_len": eval_len, "stride": stride,
                    "mode": args.mode, "n_tokens": int(ids.shape[0])})
    print(f"perplexity ({args.mode}, eval_len={eval_len}, stride={stride}): {ppl:.6f}")
    return 0


def _cmd_attn_stats(args):
    if args.ckpt:
        cfg, params, _opt, _rng, _step = load_checkpoint(args.ckpt)
    elif args.config:
        cfg = load_host_config(args.config)
        params = init_host_params(cfg, np.random.default_rng(cfg.seed))
    else:
        raise ConfigError("attn-stats needs --ckpt or --config")
    eval_len = _eval_len(args, cfg)
    if args.text:
        with open(args.text, "rb") as fh:
            ids = encode_bytes(fh.read())[:eval_len]
        if ids.shape[0] == 0:
            raise ConfigError("empty token sequence")
        if ids.shape[0] < eval_len:
            raise ConfigError(f"text has {ids.shape[0]} tokens, shorter than eval_len={eval_len}")
    else:
        ids = np.random.default_rng(args.seed).integers(0, 256, size=eval_len)
    if args.probe_uniform:
        params = dataclasses.replace(params, layers=[
            dataclasses.replace(lp, hici=uniform_queries(lp.hici)) for lp in params.layers])
    with no_grad(), record_attn_mass() as per_layer:
        lm_forward(params, ids, cfg)   # checks the window before anything is written
    lines = ["layer,head,frac_global,frac_local,frac_segment"]
    lines.extend(f"{rec.layer},{rec.head},{rec.frac_global!r},"
                 f"{rec.frac_local!r},{rec.frac_segment!r}"
                 for records in per_layer for rec in records)
    table = "\n".join(lines)
    if args.out:
        _write_manifest(args.out, "attn-stats",
                        {"eval_len": eval_len, "uniform_probe": args.probe_uniform,
                         "config": config_to_dict(cfg)},
                        args.seed, ["attn_mass.csv"])
        _write_text(args.out, "attn_mass.csv", table + "\n")
    print(table)
    return 0


def _cmd_scaling(args):
    cfg = load_hici_config(args.config) if args.config else SCALING_CFG
    t_list = ([int(t) for t in args.t_list.split(",")] if args.t_list
              else [2 * cfg.S, 4 * cfg.S, 8 * cfg.S, 16 * cfg.S])
    rows = scaling_probe(cfg, t_list, seed=args.seed)   # checks t_list before writing
    if args.out:
        _write_manifest(args.out, "scaling",
                        {"t_list": t_list, "config": config_to_dict(cfg)},
                        args.seed, ["scaling.csv"])
        _write_text(args.out, "scaling.csv", probe_table_csv(rows))
    print(format_probe_table(rows))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hici",
        description="Hierarchical construction-integration attention toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, seeded=True):
        if seeded:
            p.add_argument("--seed", type=int, default=0,
                           help="root seed for the run's PCG64 generator")
        p.add_argument("--out", help="output directory (only place the run writes)")

    p = sub.add_parser("params", help="added-parameter accounting table")
    p.add_argument("--preset", choices=sorted(ACCOUNTING_PRESETS), default="llama2-7b")
    p.add_argument("--config", help="attention config JSON instead of a preset")
    p.add_argument("--layers", type=int, default=0, help="layer count (0 = preset value)")
    p.add_argument("--base-params", type=float, default=0.0,
                   help="backbone parameter count (0 = preset value)")
    p.add_argument("--paper-layout", action="store_true",
                   help="emit the published table layout for diffing")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("flops", help="forward-pass FLOPs breakdown table")
    p.add_argument("--preset", choices=sorted(ACCOUNTING_PRESETS), default="llama2-7b")
    p.add_argument("--contexts", help="comma-separated context lengths (default paper set)")
    p.add_argument("--segments", type=int, default=4, help="segments per context (S = T/n)")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("gradcheck", help="reverse-mode vs. finite-difference gradients")
    p.add_argument("--config", help="attention config JSON (default: micro config)")
    p.add_argument("--tolerance", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train", help="train the toy byte-level host LM")
    p.add_argument("--config", required=True, help="host config JSON")
    p.add_argument("--corpus", required=True, help="raw UTF-8/byte corpus file")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-ppl", help="sliding-window perplexity of a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--text", required=True, help="evaluation text file")
    p.add_argument("--eval-len", type=int, default=0, help="window length (0 = max_T)")
    p.add_argument("--stride", type=int, default=None,
                   help="tokens between window starts (default: min(256, eval length))")
    p.add_argument("--mode", choices=["hici", "full"], default="hici")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_eval_ppl)

    p = sub.add_parser("attn-stats", help="attention-mass fractions per layer and head")
    p.add_argument("--ckpt", help="checkpoint directory")
    p.add_argument("--config", help="host config JSON (fresh init) instead of --ckpt")
    p.add_argument("--text", help="input text file (default: random bytes)")
    p.add_argument("--eval-len", type=int, default=0, help="input length (0 = max_T)")
    p.add_argument("--probe-uniform", action="store_true",
                   help="zero the broadcast query projection (analytic baseline)")
    common(p)
    p.set_defaults(func=_cmd_attn_stats)

    p = sub.add_parser("scaling", help="instrumented FLOPs across context lengths")
    p.add_argument("--config", help="attention config JSON (default: probe config)")
    p.add_argument("--t-list", help="comma-separated context lengths")
    common(p)
    p.set_defaults(func=_cmd_scaling)

    return parser


def dispatch(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:   # ConfigError and ShapeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
