#!/usr/bin/env python3
"""Measured-performance benchmark of the CRoCCo solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dmr_amr --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the solver sources it compiles) into .bench_build
(or $CARGO_TARGET_DIR), runs the workload through the public
core::CroccoAmr API and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run; both
run the output checks, and a failed check makes the exit code 1.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dmr_amr", "tgv_uniform", "dmr_ranks_regrid")
RUN_TIMEOUT_S = 170


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (re)build incrementally. Exits 2 on failure."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    steps = []
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=env, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def run_binary(exe, workload, seed, seconds, extra):
    """Runs one runner binary; returns (exit code, raw record or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail(walls):
    """Highest percentile of the step walls with at least ten steps above it."""
    n = len(walls)
    ordered = sorted(walls)
    if n < 11:  # only when a failed check cut the run short
        return ordered[-1], 100, n
    return ordered[n - 11], math.floor(100.0 * (n - 10) / n), n


def end_to_end(rec, failed, attempted):
    walls, cells, dts = rec["step_wall_s"], rec["step_cells"], rec["step_dt"]
    total = sum(walls)
    tail_s, tail_pct, n = tail(walls)
    log(f"step_s_tail is the p{tail_pct} of {n} timed steps "
        f"({rec['episodes'] - 1} timed episodes of {rec['episode_steps']} steps)")
    return {
        "cell_updates_per_s": metric(sum(cells) / total, "cells/s"),
        "sim_time_per_s": metric(sum(dts) / total, "1/s"),
        "step_s_p50": metric(statistics.median(walls), "s"),
        "step_s_tail": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(rec["setup_s"]), "s"),
        "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
        "step_ok_frac": metric(1.0 - failed / attempted, "ratio"),
    }


def ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(rec, untraced):
    tr = rec["trace"]
    layers = tr["layers_s"]
    c = rec["counters"]
    steps = len(rec["step_wall_s"])
    hits, misses = c["commcache_hits"], c["commcache_misses"]
    shits, smisses = c["scratch_hits"], c["scratch_misses"]
    untraced_mean = statistics.fmean(untraced["step_wall_s"])
    m = {
        "core.weno_s": metric(layers["core.weno"], "s"),
        "core.viscous_s": metric(layers["core.viscous"], "s"),
        "core.update_s": metric(layers["core.update"], "s"),
        "core.compute_dt_s": metric(layers["core.compute_dt"], "s"),
        "core.weno_gbps_computed": metric(tr["weno_gbps_computed"], "GB/s"),
        "core.weno_roofline_frac": metric(
            ratio(tr["weno_gbps_computed"], tr["triad_gbps"]), "ratio"),
        "amr.fill_single_s": metric(layers["amr.fill_single"], "s"),
        "amr.fill_two_level_s": metric(layers["amr.fill_two_level"], "s"),
        "amr.average_down_s": metric(layers["amr.average_down"], "s"),
        "amr.regrid_s": metric(layers["amr.regrid"], "s"),
        "mesh.metrics_s": metric(layers["mesh.metrics"], "s"),
        "amr.commcache_hit_ratio": metric(ratio(hits, hits + misses), "ratio"),
        "amr.boxes": metric(c["boxes"] / steps, "count"),
        "amr.active_cells": metric(statistics.fmean(rec["step_cells"]), "cells"),
        "parallel.msgs_per_step": metric(c["msgs"] / steps, "count"),
        "parallel.msg_mb_per_step": metric(c["msg_bytes"] / steps / 1e6, "MB"),
        "gpu.launches_per_step": metric(c["launches"] / steps, "count"),
        "gpu.scratch_hit_ratio": metric(ratio(shits, shits + smisses), "ratio"),
        "gpu.thread_speedup": metric(tr["thread_speedup"], "x"),
        "resilience.health_check_s": metric(layers["resilience.health_check"], "s"),
        "host.triad_gbps": metric(tr["triad_gbps"], "GB/s"),
        "step.unaccounted_frac": metric(tr["unaccounted_frac"], "ratio"),
        "trace.overhead_frac": metric(tr["step_mean_s"] / untraced_mean - 1.0, "ratio"),
    }

    # Human-readable report: measured layer time beside the model's figure.
    mean = tr["step_mean_s"]
    log(f"traced: {steps} timed steps, mean step {mean:.4f} s "
        f"(untraced {untraced_mean:.4f} s), {int(tr['spans'])} spans, "
        f"trace file {tr['trace_file']} ({int(tr['trace_events_written'])} events)")
    log(f"{'layer':26s} {'measured s/step':>15s} {'share':>7s} {'modeled V100 s/step':>20s}")
    modeled = tr["modeled_v100_s"]
    for name, sec in layers.items():
        mod = modeled.get(name)
        mod_s = f"{mod:.3e}" if mod is not None else "-"
        log(f"{name:26s} {sec:15.3e} {ratio(sec, mean):7.1%} {mod_s:>20s}")
    for name, mod in modeled.items():
        if name not in layers:
            log(f"{name:26s} {'(sum above)':>15s} {'':7s} {mod:20.3e}")
    log(f"{'unaccounted':26s} {mean * tr['unaccounted_frac']:15.3e} "
        f"{tr['unaccounted_frac']:7.1%}")
    log("modeled = KernelProfiles on the V100 model for kernels; ScalingSimulator "
        "(1 Summit node) for exchange/regrid. Modeled figures are never gated.")
    log(f"commcache hit ratio over {int(hits + misses)} lookups; scratch-pool hit "
        f"ratio over {int(shits + smisses)} acquires")
    log(f"host: triad {tr['triad_gbps']:.1f} GB/s on 3 arrays of "
        f"{tr['triad_array_mib']:.0f} MiB each; L3 reported by cpuid "
        f"{tr['l3_mib_cpuid']:.0f} MiB (32 MiB per core complex); working set "
        f"{tr['working_set_mib']:.1f} MiB")
    log(f"WENO bytes/step (computed from KernelProfiles): "
        f"{tr['weno_bytes_per_step_computed']:.3e}; thread speedup "
        f"{tr['rhs_kernels_1thread_s']:.4f} s / {tr['rhs_kernels_nthreads_s']:.4f} s")
    if tr["unresolved_entry_points"]:
        log("entry points not traced (not defined by the program): "
            + ", ".join(tr["unresolved_entry_points"]))
    return m


def outcome(records, codes):
    """(correct, attempted, failed) over the runner binaries of one invocation."""
    attempted = sum(int(r["attempted"]) for r in records)
    errors = [e for r in records for e in r["errors"]]
    correct = not errors and all(code == 0 for code in codes)
    for e in errors:
        log("CHECK FAILED: " + e)
    # A run that fails an output check counts all its steps as failed.
    failed = attempted if not correct else sum(int(r["failed"]) for r in records)
    return correct, max(attempted, 1), failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build()
    untraced_exe = os.path.join(out, "perfbench_run")
    if args.trace == 0:
        code, rec = run_binary(untraced_exe, args.workload, args.seed, args.seconds, [])
        if rec is None:
            log("perfbench: the runner produced no record")
            sys.exit(3)
        correct, attempted, failed = outcome([rec], [code])
        metrics = end_to_end(rec, failed, attempted)
    else:
        # Half the time untraced (with the thread-invariance check) for the
        # overhead baseline, half traced for the layer accounting.
        half = args.seconds / 2.0
        code0, base = run_binary(untraced_exe, args.workload, args.seed, half, [])
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        code1, rec = run_binary(os.path.join(out, "perfbench_traced"), args.workload,
                                args.seed, half,
                                ["--no-thread-check", "--trace-dir", trace_dir])
        if base is None or rec is None:
            log("perfbench: a runner produced no record")
            sys.exit(3)
        correct, attempted, failed = outcome([base, rec], [code0, code1])
        metrics = per_layer(rec, base) if "trace" in rec else {}

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
