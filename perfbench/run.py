#!/usr/bin/env python3
"""MemSentry benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload figures|tenants|service --seed N \
        --seconds S --trace 0|1 [--workers W] [--reference PATH]

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the harness plus the libraries and memsentry_cli it drives) into
.bench_build/; later runs only check that build.

Workloads (BENCHMARK.json records why each was chosen):
  figures  the paper's evaluation (figs 3-6, crypt size sweep, mprotect
           baseline) at the full 400k-instruction budget through one
           eval::CampaignEngine; every pass is a fresh process, so the
           decode cache, synthesis cache and run memo start cold.
  tenants  the multi-tenant server sweep, 100..10k tenants x 5 techniques,
           through the same engine on one worker, also one fresh process per
           pass.
  service  a `memsentry_cli serve` daemon (--workers engine workers) driven over its
           UNIX socket by two closed-loop clients (run_cell and submit+wait
           requests) beside a 20 Hz open-loop ping prober.

--seed is the figure pipelines' synthesis seed (and, offset the same way,
the tenant arrival seed); it also draws the service request mix. Outputs are
checked on every run: against the stored reference for the default seed,
and on any seed for pass-to-pass determinism and, in traced runs, for a
public-function rebuild of every cell that must equal the engine's cells bit
for bit. A failed check makes the run exit 1 after printing its result.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run. The line before it
holds informational figures: workload-specific metrics (failed_frac,
fidelity_err, ping_ms_tail), sample counts, the tracing overhead and a host
fingerprint.

The benchmark never reads the report's `<workload>/sim_instr_per_second`: it
divides by queue time and counts run-memo replays as executed work.
sim.exec.mips counts only instructions that Executor::Run returned to the
benchmark, over the thread CPU time of those calls.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
MSBENCH = os.path.join(CMAKE_DIR, "msbench")
CLI = os.path.join(CMAKE_DIR, "memsentry", "tools", "memsentry_cli")
DEFAULT_SEED = 3195850862  # eval::ExperimentOptions' default synthesis seed
PASS_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_tail": "ms", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "workloads.synth.s": "s", "workloads.synth.calls": "count",
    "workloads.prepare.s": "s", "defenses.pass.s": "s",
    "core.instrument.s": "s", "core.instrument.calls": "count",
    "sim.decode.s": "s", "sim.decode.hits": "count", "sim.decode.misses": "count",
    "sim.decode.hit_rate": "ratio",
    "sim.exec.s": "s", "sim.exec.instrs": "count", "sim.exec.mips": "Minstr/s",
    "sim.exec.loads": "count", "sim.exec.stores": "count",
    "sim.exec.domain_switches": "count", "sim.exec.syscalls": "count",
    "eval.memo.hits": "count", "eval.memo.misses": "count", "eval.memo.hit_rate": "ratio",
    "eval.engine.busy_s": "s", "eval.engine.util": "ratio", "eval.engine.steals": "count",
    "eval.engine.cell_s_max": "s",
    "workloads.server.setup_s": "s", "workloads.server.run_s": "s",
    "workloads.server.requests": "count", "workloads.server.ns_per_req": "ns",
    "workloads.server.ctx_switches": "count", "workloads.server.syscalls": "count",
    "workloads.server.tlb_hit_rate": "ratio", "workloads.server.grant_hit_rate": "ratio",
    "base.json.dump_s": "s", "base.json.parse_s": "s", "base.json.bytes": "B",
    "eval.serve.rtt_ms_p50": "ms", "eval.serve.overhead_ms_p50": "ms",
    "eval.serve.hol_ms_tail": "ms", "eval.serve.reply_bytes": "B",
}


class CheckFailed(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(groups, block=100):
    """Tail latency of samples that arrive in groups (passes): consecutive
    groups are joined into blocks of at least `block` samples (a short
    remainder joins the last block); in each block the highest percentile with
    at least ten samples beyond it is the eleventh-largest sample; the tail is
    the median over blocks. Returns (value, percentile, samples)."""
    blocks = [[]]
    for group in groups:
        if len(blocks[-1]) >= block:
            blocks.append([])
        blocks[-1].extend(group)
    if len(blocks) > 1 and len(blocks[-1]) < block:
        blocks[-2].extend(blocks.pop())
    values, levels = [], []
    for b in blocks:
        ordered = sorted(b)
        k = 11 if len(ordered) > 10 else 1  # too few samples: the maximum
        values.append(ordered[-k] if ordered else 0.0)
        levels.append(100.0 * (1 - (k - 1) / len(ordered)) if ordered else 100.0)
    return median(values), median(levels), sum(len(b) for b in blocks)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no MemSentry sources beside perfbench/; "
                         "run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise SystemExit("perfbench: cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append([cmake, "--build", CMAKE_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise SystemExit(f"perfbench: build failed; see {os.path.join(BUILD, 'build.log')}")


def fingerprint(workers):
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        commit = git.stdout.strip() or "none"
    if commit == "none":
        # Not a git checkout: identify the tree by its sources.
        digest = hashlib.sha256()
        for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
            path = os.path.join(ROOT, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
            for name in files:
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        commit = "tree-sha256:" + digest.hexdigest()[:16]
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"), "commit": commit,
            "workers": workers}


def engine_workers(opts):
    """The engine (or serve daemon) worker count the workload runs with."""
    return opts.tenant_workers if opts.workload == "tenants" else opts.workers


def run_msbench(args, timeout=PASS_TIMEOUT_S):
    proc = subprocess.run([MSBENCH] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise CheckFailed(f"msbench {' '.join(args[:2])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checked_metrics(metrics):
    """The report values correctness rests on: every non-info metric."""
    return {name: m["value"] for name, m in metrics.items()
            if m.get("kind") != "info" and not m.get("host")}


def fidelity_err(metrics):
    """Mean |simulated/paper - 1| over the report metrics with a paper value."""
    errs = [abs(m["value"] / m["paper"] - 1) for m in metrics.values() if "paper" in m]
    return statistics.mean(errs) if errs else 0.0


def load_reference(path, workload, seed):
    path = path or os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        ref = json.load(f)
    return ref["metrics"] if ref.get("seed") == seed else None


def compare(values, expected, what):
    bad = sorted(k for k in set(values) | set(expected) if values.get(k) != expected.get(k))
    for name in bad[:5]:
        log(f"{what}: {name} = {values.get(name)!r}, expected {expected.get(name)!r}")
    return len(bad)


def engine_workload(opts):
    """figures / tenants: fresh-process passes until --seconds have elapsed."""
    passes, attempted, failed = [], 0, 0
    reference = load_reference(opts.reference, opts.workload, opts.seed)
    first = None
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    start = time.monotonic()
    workers = engine_workers(opts)
    while len(passes) < (1 if opts.trace else 2) or time.monotonic() - start < opts.seconds:
        args = ["pass", opts.workload, "--seed", str(opts.seed), "--workers", str(workers),
                "--t0-ns", str(time.monotonic_ns())]
        if opts.trace:
            args += ["--trace", "1", "--pass-index", str(len(passes)), "--trace-out",
                     os.path.join(trace_dir, f"{opts.workload}-{opts.seed}-{len(passes)}.json")]
        p = run_msbench(args)
        values = checked_metrics(p["metrics"])
        first = first if first is not None else values
        bad = p["status"] != 0
        bad |= compare(values, first, "pass-to-pass determinism") > 0
        if reference is not None:
            bad |= compare(values, reference, "reference") > 0
        if opts.trace:
            bad |= p["layer"]["traced_mismatches"] > 0
        cells = len(p["cell_s"])
        attempted += cells
        failed += cells if bad else 0
        passes.append(p)
    return passes, attempted, failed


def engine_e2e(passes, opts):
    cell_s = [s for p in passes for s in p["cell_s"]]
    tail_ms, level, n = tail([[s * 1e3 for s in p["cell_s"]] for p in passes])
    metrics = {
        "setup_s": median([p["setup_s"] for p in passes]),
        "wall_s": median([p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "ops_per_s": median([len(p["cell_s"]) / p["wall_s"] for p in passes]),
        "op_ms_p50": median(cell_s) * 1e3,
        "op_ms_tail": tail_ms,
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    info = {"passes": len(passes), "op_samples": n, "op_ms_tail_percentile": level}
    if opts.workload == "figures":
        info["fidelity_err"] = fidelity_err(passes[0]["metrics"])
    return metrics, info


def zero_layers():
    return {name: 0.0 for name in LAYER_UNITS}


def engine_layers(passes, opts):
    def med(get):
        return median([get(p) for p in passes])

    def self_s(name):
        return med(lambda p: p["layer"]["self_s"][name])

    def count(name):
        return med(lambda p: p["layer"].get(name, 0))

    m = zero_layers()
    m["sim.decode.hits"] = count("sim.decode.hits")
    m["sim.decode.misses"] = count("sim.decode.misses")
    m["sim.decode.hit_rate"] = med(lambda p: p["layer"]["sim.decode.hits"] / max(
        1, p["layer"]["sim.decode.hits"] + p["layer"]["sim.decode.misses"]))
    m["eval.memo.hits"] = med(lambda p: p["memo_hits"])
    m["eval.memo.misses"] = med(lambda p: p["memo_misses"])
    m["eval.memo.hit_rate"] = med(
        lambda p: p["memo_hits"] / max(1, p["memo_hits"] + p["memo_misses"]))
    m["eval.engine.busy_s"] = med(lambda p: sum(p["cell_s"]))
    m["eval.engine.util"] = med(
        lambda p: sum(p["cell_s"]) / (p["wall_s"] * engine_workers(opts)))
    m["eval.engine.steals"] = med(lambda p: p["steals"])
    m["eval.engine.cell_s_max"] = med(lambda p: max(p["cell_s"]))
    for name in ("base.json.dump_s", "base.json.parse_s", "base.json.bytes"):
        m[name] = count(name)
    if opts.workload == "figures":
        for layer in ("workloads.synth", "workloads.prepare", "core.instrument", "sim.decode",
                      "sim.exec"):
            m[layer + ".s"] = self_s(layer)
        m["defenses.pass.s"] = self_s("defenses.pass")
        for name in ("workloads.synth.calls", "core.instrument.calls", "sim.exec.instrs",
                     "sim.exec.loads", "sim.exec.stores", "sim.exec.domain_switches",
                     "sim.exec.syscalls"):
            m[name] = count(name)
        m["sim.exec.mips"] = med(
            lambda p: p["layer"]["sim.exec.instrs"] / p["layer"]["sim.exec.cpu_s"] / 1e6)
    else:
        m["workloads.server.setup_s"] = self_s("workloads.server.setup")
        m["workloads.server.run_s"] = self_s("workloads.server.run")
        for name in ("requests", "ctx_switches", "syscalls", "tlb_hit_rate", "grant_hit_rate"):
            m["workloads.server." + name] = count("workloads.server." + name)
        m["workloads.server.ns_per_req"] = med(
            lambda p: p["layer"]["self_s"]["workloads.server.run"] * 1e9
            / p["layer"]["workloads.server.requests"])
    info = {"passes": len(passes),
            "trace_overhead_s": med(
                lambda p: p["layer"]["traced_wall_s"] - p["layer"]["untraced_wall_s"]),
            "traced_cells": count("traced_cells")}
    return m, info


def service(opts):
    sock_dir = os.path.join(BUILD, "run")
    os.makedirs(sock_dir, exist_ok=True)
    # Relative to the checkout root (msbench's cwd): UNIX socket paths are
    # limited to 107 bytes, and a checkout path may be long.
    socket_path = os.path.relpath(os.path.join(sock_dir, f"serve-{os.getpid()}.sock"), ROOT)
    args = ["service", "--seed", str(opts.seed), "--workers", str(opts.workers), "--cli", CLI,
            "--socket", socket_path,
            "--seconds", str(opts.seconds), "--trace", "1" if opts.trace else "0",
            "--inject-fail", str(opts.inject_fail)]
    if opts.trace:
        args += ["--trace-out", os.path.join(BUILD, "traces", f"service-{opts.seed}.json")]
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    s = run_msbench(args, timeout=opts.seconds + PASS_TIMEOUT_S)
    idle_ms = median(s["idle_ping_ms"])
    per_pass = s["ops_per_pass"]
    ping_tail, ping_level, ping_n = tail([[ms] for ms in s["ping_ms"]])
    op_tail, op_level, op_n = tail(
        [s["op_ms"][i:i + per_pass] for i in range(0, len(s["op_ms"]), per_pass)])
    metrics = {
        "setup_s": median(s["setup_s"]),
        "wall_s": median(s["wall_s"]),
        "cpu_s": median(s["cpu_s"]),
        "ops_per_s": median([per_pass / w for w in s["wall_s"]]),
        "op_ms_p50": median(s["op_ms"]),
        "op_ms_tail": op_tail,
        "peak_rss_mb": s["peak_rss_mb"],
    }
    info = {"passes": len(s["wall_s"]), "op_samples": op_n, "op_ms_tail_percentile": op_level,
            "ping_ms_tail": ping_tail, "ping_ms_tail_percentile": ping_level,
            "ping_samples": ping_n, "ping_idle_ms_p50": idle_ms,
            "ping_generator_late_ms_max": max(s["ping_late_ms"], default=0.0)}
    layers = None
    if opts.trace:
        layer = s["layer"]
        layers = zero_layers()
        layers["base.json.dump_s"] = layer["self_s_per_op"]["base.json.dump"]
        layers["base.json.parse_s"] = layer["self_s_per_op"]["base.json.parse"]
        layers["base.json.bytes"] = statistics.mean(layer["reply_bytes"])
        layers["eval.serve.rtt_ms_p50"] = median(layer["rtt_ms"])
        layers["eval.serve.overhead_ms_p50"] = median(layer["overhead_ms"])
        layers["eval.serve.hol_ms_tail"] = ping_tail - idle_ms
        layers["eval.serve.reply_bytes"] = median(layer["reply_bytes"])
        info["trace_overhead_s"] = median(layer["traced_wall_s"]) - metrics["wall_s"]
    return metrics, layers, info, s["attempted"], s["failed"]


def write_reference(opts):
    passes, _, failed = engine_workload(opts)
    if failed:
        raise SystemExit("perfbench: not writing a reference from a failing run")
    path = opts.reference or os.path.join(HERE, "reference", f"{opts.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"seed": opts.seed, "metrics": checked_metrics(passes[0]["metrics"])}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["figures", "tenants", "service"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workers", type=int, default=2,
                    help="engine workers for figures and the service daemon (capped at nproc)")
    ap.add_argument("--tenant-workers", type=int, default=1,
                    help="engine workers for tenants (capped at nproc); concurrent 10k-tenant "
                    "cells slow each other's memory-bound work unevenly")
    ap.add_argument("--default-seed", type=int, default=DEFAULT_SEED,
                    help="the seed the stored references were made with")
    ap.add_argument("--holdout-seed", type=int,
                    help="a seed kept out of tuning, for confirming later claims")
    ap.add_argument("--reference", help="reference file to check against (default: "
                    "perfbench/reference/<workload>.json)")
    ap.add_argument("--inject-fail", type=int, default=0,
                    help="service: replace this many requests per pass with ones the "
                    "daemon must refuse (self-test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="figures/tenants: store this seed's checked metrics as the reference")
    opts = ap.parse_args()
    opts.workers = max(1, min(opts.workers, os.cpu_count() or 1))
    opts.tenant_workers = max(1, min(opts.tenant_workers, os.cpu_count() or 1))

    build()
    if opts.write_reference:
        write_reference(opts)
        return 0

    info = {"workload": opts.workload, "seed": opts.seed, "default_seed": opts.default_seed,
            "holdout_seed": opts.holdout_seed,
            "host": fingerprint(engine_workers(opts))}
    try:
        if opts.workload == "service":
            e2e, layers, extra, attempted, failed = service(opts)
        else:
            passes, attempted, failed = engine_workload(opts)
            if opts.trace:
                layers, extra = engine_layers(passes, opts)
            else:
                e2e, extra = engine_e2e(passes, opts)
    except (CheckFailed, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 1
    info.update(extra)
    info["failed_frac"] = failed / max(1, attempted)
    units = LAYER_UNITS if opts.trace else E2E_UNITS
    values = layers if opts.trace else e2e
    info["units"] = {"failed_frac": "ratio", "fidelity_err": "ratio", "ping_ms_tail": "ms",
                     "trace_overhead_s": "s"}
    print(json.dumps({"info": info}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
