"""Benchmark of the hici reference implementation.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each workload is one closed-loop client in one process: the next op
starts when the previous one ends. `--trace 0` reports the end-to-end
metrics; `--trace 1` wraps the public functions of every hici layer and
reports the per-layer metrics instead. `--workload all` runs the four
workloads one after another, each in its own process. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Results, environment and (traced) spans go to
`.perfbench/` under the repository root. Exit code 0 means every op and
check passed, 1 that some correctness check failed, 2 that the benchmark
could not run.

The gated timings (`--trace 0`) are scaled to a reference machine speed
with the speed probes (`speed.py`) run between ops and after each set-up
process; the wall-clock values are printed and stored next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import ROOT as ROOT_SPAN
from tracing import TIMED, TIMED_SELF, TraceError, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
# One BLAS thread: the matrices are at most 2048 x 257; on a shared 2-core
# machine a second thread did not raise throughput and, in one five-run
# comparison, doubled the run-to-run spread.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("train", "eval", "strict-train", "gradcheck")
SETUP_REPEATS = 8  # set-up processes before and again after the timed phase
PROBE_SHARE = 0.03  # share of a timed phase spent on speed probes, between ops
SETUP_PROBES = 5  # speed probes after each set-up process
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
FLOP_SCOPES = ("local", "global", "broadcast_proj", "broadcast_attn", "proj", "ffn",
               "others", "uncategorized")
MODULE_SCOPES = ("local", "global", "broadcast_proj", "broadcast_attn")
STAGE_SCOPES = {
    "local_construct": ("local",),
    "integrate_global": ("global",),
    "broadcast": ("broadcast_proj", "broadcast_attn"),
    "hici_forward": MODULE_SCOPES,
}


class BenchError(RuntimeError):
    """The benchmark cannot run: missing sources, a failed child, bad input."""


def pin_environment():
    """Fix BLAS threads before numpy loads; child processes inherit it.

    Bytecode is read from and written to `.perfbench/pycache` only, never
    to a `__pycache__` beside the sources, so set-up time does not depend
    on whether a test run or an older checkout left compiled files there.
    `measure` fills that cache with one untimed set-up process before it
    samples set-up time.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    prefix = str(OUT_DIR / "pycache")
    os.environ["PYTHONPYCACHEPREFIX"] = prefix
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = prefix
    sys.dont_write_bytecode = False


def import_program():
    """Put this checkout's `src/` first on the path and import hici from it."""
    src = ROOT / "src"
    if not (src / "hici" / "__init__.py").is_file():
        raise BenchError(f"no hici sources under {src}")
    sys.path.insert(0, str(src))
    import hici
    if Path(hici.__file__).resolve().parent != src / "hici":
        raise BenchError(f"imported hici from {hici.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Phase:
    times: list     # seconds per op
    failed: int
    wall: float     # seconds from the first op's start to the last op's end
    tokens: int
    probes: list = field(default_factory=list)  # seconds of each speed probe

    @property
    def tokens_per_s(self):
        return self.tokens / self.wall


def run_phase(workload, seconds, tracer=None):
    """Closed loop of ops for about `seconds` (at least one op).

    With a tracer each op is a root span and the phase ends on a whole
    multiple of the workload's `round_ops`, so per-op counts are exact.
    Without one, the machine's speed is probed between ops, for about
    PROBE_SHARE of the phase's time; the probes are not part of `wall`.
    An op that raises counts as failed; the first traceback is printed.
    """
    import speed

    times, failed, probes = [], 0, []

    def checked_op():
        nonlocal failed
        try:
            ok = workload.op()
        except Exception:  # an op failure is a measured outcome, not a crash
            if failed == 0:
                traceback.print_exc()
            ok = False
        failed += not ok

    start, probed = time.perf_counter(), 0.0
    while True:
        if tracer is None:
            t0 = time.perf_counter()
            checked_op()
            times.append(time.perf_counter() - t0)
        else:
            times.append(tracer.run_op(checked_op)[1])
        elapsed = time.perf_counter() - start - probed
        # stop where one more op of average length would end past the budget
        done = (elapsed * (len(times) + 1) / len(times) > seconds
                and (tracer is None or len(times) % workload.round_ops == 0))
        while tracer is None and (not probes or probed < PROBE_SHARE * elapsed):
            t0 = time.perf_counter()
            probes.append(speed.probe())
            probed += time.perf_counter() - t0
        if done:
            return Phase(times, failed, elapsed, len(times) * workload.tokens_per_op, probes)


def tail(times):
    """(ms, percentile, samples) at the highest percentile with TAIL_BEYOND
    samples beyond it, or None when there are too few samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    value = sorted(times)[n - TAIL_BEYOND - 1]
    return 1000.0 * value, 100.0 * (n - TAIL_BEYOND) / n, n


def setup_process(args):
    """Wall seconds from starting a fresh set-up process to its "ready"."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up process for {args.workload} exited with {code}")
    return wall


def setup_seconds(args):
    """Wall seconds of SETUP_REPEATS set-up processes, and the speed
    probes run after each."""
    import speed

    samples, probes = [], []
    for _ in range(SETUP_REPEATS):
        samples.append(setup_process(args))
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
    return samples, probes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(phase, setup, probes):
    """Gated metrics at the reference speed, and the same timings in wall clock."""
    import speed

    wall = {
        "tokens_per_s": (phase.tokens_per_s, "tokens/s"),
        "op_ms_p50": (1000.0 * statistics.median(phase.times), "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    factor = speed.scale(probes)
    metrics = {
        "tokens_per_s": (wall["tokens_per_s"][0] / factor, "tokens/s"),
        "op_ms_p50": (wall["op_ms_p50"][0] * factor, "ms"),
        "setup_s": (wall["setup_s"][0] * factor, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, wall


def warm_up_phase(workload):
    """The untimed first op of set-up, kept so that its check is counted."""
    t0 = time.perf_counter()
    ok = workload.warm_up()
    wall = time.perf_counter() - t0
    return Phase([wall], int(not ok), wall, workload.tokens_per_op)


def traced_phase(workload, seconds):
    from hici import tensor

    with Tracer() as tracer, tensor.measure_flops() as flops:
        tracer.install_layers()
        phase = run_phase(workload, seconds, tracer)
    tracer.require(workload.name, workload.required)
    return phase, tracer, {scope: dict(b) for scope, b in flops.buckets.items()}


def per_layer(workload, untraced, traced, tracer, flops, half):
    """Every per-layer metric; layer values are per op of the traced phase."""
    from hici.analysis import module_matmul_flops

    n = len(traced.times)
    out = {}

    def stat(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))

    for name in TIMED_SELF + TIMED:
        calls, s, self_s = stat(name)
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.s"] = (s / n, "s")
        if name in TIMED_SELF:
            out[f"{name}.self_s"] = (self_s / n, "s")
    out["tensor.graph_nodes"] = (tracer.counts.get("tensor.graph_nodes", 0) / n, "count")
    for scope in FLOP_SCOPES:
        for kind in ("matmul", "other"):
            out[f"tensor.flops.{scope}.{kind}"] = (flops.get(scope, {}).get(kind, 0) / n, "flop")
    analytic = module_matmul_flops(workload.hici_cfg, workload.module_T)
    module_calls = stat("attention.hici_forward")[0] / n
    for scope in MODULE_SCOPES:
        out[f"analysis.flops.{scope}.analytic"] = (analytic[scope] * module_calls, "flop")
    for key, unit in (("serialize.bytes_written", "B"), ("serialize.bytes_read", "B"),
                      ("gradcheck.forwards", "count")):
        out[key] = (tracer.counts.get(key, 0) / n, unit)
    for stage, scopes in STAGE_SCOPES.items():
        work = sum(sum(flops.get(scope, {}).values()) for scope in scopes)
        seconds = stat(f"attention.{stage}")[1]
        out[f"attention.{stage}.gflops_per_s"] = (
            work / seconds / 1e9 if seconds else 0.0, "GFLOP/s")
    forwards = tracer.counts.get("gradcheck.forwards", 0)
    # the gradcheck alias is the only caller of hici_forward on that workload
    out["gradcheck.forward_ms"] = (
        1000.0 * stat("attention.hici_forward")[1] / forwards if forwards else 0.0, "ms")
    ratio = 0.0
    if half is not None:
        half_phase, half_tracer = half
        per_op_full = stat("attention.integrate_global")[1] / n
        per_op_half = half_tracer.stats["attention.integrate_global"][1] / len(half_phase.times)
        ratio = per_op_full / per_op_half
    out["attention.integrate_global.doubling_ratio"] = (ratio, "ratio")
    out["trace.unattributed_s"] = (stat(ROOT_SPAN)[2] / n, "s")
    out["trace.overhead"] = (untraced.tokens_per_s / traced.tokens_per_s, "ratio")
    tail_info = tail(untraced.times)
    ms, pct, _ = tail_info if tail_info else (0.0, 0.0, 0)
    out["op_ms_tail"] = (ms, "ms")
    out["op_ms_tail.percentile"] = (pct, "%")
    out["op_ms_tail.samples"] = (len(untraced.times), "count")
    return out


def measure(args, workload):
    """Run the phases for `args.trace`.

    Returns (metrics, phases, extra record); the first phase is the one
    whose op times the result reports.
    """
    if not args.trace:
        setup_process(args)  # untimed: fills the bytecode cache
        # set-up is sampled on both sides of the timed phase, so that a slow
        # spell of the machine during one of them moves the median less
        samples, probes = setup_seconds(args)
        phase = run_phase(workload, args.seconds)
        after, after_probes = setup_seconds(args)
        samples += after
        probes += phase.probes + after_probes
        metrics, wall = end_to_end(phase, samples, probes)
        return metrics, [phase], {
            "wall_clock": {name: {"value": v, "unit": u} for name, (v, u) in wall.items()},
            "probe_ms": [1000.0 * p for p in probes],
            "setup_s_samples": samples,
        }

    twin = workload.half_length()
    share = 0.4 if twin is not None else 0.5
    untraced = run_phase(workload, share * args.seconds)
    traced, tracer, flops = traced_phase(workload, share * args.seconds)
    phases, half = [untraced, traced], None
    if twin is not None:
        try:
            phases.append(warm_up_phase(twin))
            half_phase, half_tracer, _ = traced_phase(twin, (1 - 2 * share) * args.seconds)
        finally:
            twin.close()
        phases.append(half_phase)
        half = (half_phase, half_tracer)
    metrics = per_layer(workload, untraced, traced, tracer, flops, half)
    n = len(traced.times)
    record = {
        "self_time_table": [dict(zip(("name", "calls", "s", "self_s", "self_share"), row))
                            for row in tracer.self_time_table(n)],
    }
    spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op_id"],
        "spans": tracer.span_records(),
    }))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, phases, record


# ---------------------------------------------------------------------------
# output


def print_table(title, metrics, extra_lines=()):
    print(f"== {title}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6f} {unit}")
    for line in extra_lines:
        print(f"  {line}")


def run_one(args):
    from workloads import WORKLOADS

    workdir = OUT_DIR / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        warm = warm_up_phase(workload)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        metrics, phases, record = measure(args, workload)
        checks = workload.final_checks()
    finally:
        workload.close()

    main = phases[0]
    phases.append(warm)
    attempted = sum(len(p.times) for p in phases) + len(checks)
    failed = sum(p.failed for p in phases) + sum(not ok for ok in checks.values())
    tail_info = tail(main.times)
    lines = [f"error_rate  {failed / attempted:.6f} ({failed} failed of {attempted} attempted)"]
    if tail_info and not args.trace:
        lines.append(f"op_ms_tail  {tail_info[0]:.6f} ms at p{tail_info[1]:.2f} "
                     f"of {tail_info[2]} ops (ungated; traced runs report it)")
    if not args.trace:
        lines.append("wall clock  " + ", ".join(
            f"{name} {entry['value']:.6f} {entry['unit']}"
            for name, entry in record["wall_clock"].items()))
        lines.append(f"speed probe {statistics.median(record['probe_ms']):.4f} ms median")
    lines += [f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok in checks.items()]
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics, lines)
    if args.trace:
        print("== self time per op (traced phase)")
        for row in record["self_time_table"]:
            print(f"  {row['name']:<34} calls {row['calls']:>10.3f}  s {row['s']:.6f}  "
                  f"self {row['self_s']:.6f}  {100 * row['self_share']:5.1f}%")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "checks": checks,
        "error_rate": failed / attempted,
        "op_ms_tail": dict(zip(("ms", "percentile", "samples"), tail_info or ())),
        "op_ms": [1000.0 * t for t in main.times],
        "result": result,
    })
    path = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, one after another; one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    runs = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        runs[name] = json.loads(
            (OUT_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
    path = OUT_DIR / "results" / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": environment(), "runs": runs}, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    try:
        if args.workload == "all":
            return run_all(args)
        import_program()
        return run_one(args)
    except (BenchError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
