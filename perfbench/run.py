#!/usr/bin/env python3
"""Run one workload of the Megaphone reproduction's benchmark.

    python3 perfbench/run.py --workload {steady,migrate,q8-durable} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of the repository. The script builds the `perfbench` Rust
package (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
workload in child processes, each with a wall-clock budget, a fresh data
directory under `.bench_out/` and MEGAPHONE_DATA_ROOT cleared:

* `--trace 0`: two set-up-only children and one full run. `setup_s` is the
  median over the three of the time from spawning a child to its first timed
  epoch, less the fixed wait for the warm-up epochs' schedule; every other
  end-to-end metric comes from the full run, measured with tracing off.
* `--trace 1`: one untraced and one traced full run, plus a single-worker
  run of steady's unpaced phase as the baseline. The per-layer metrics come
  from the traced run, whose spans are written to
  `.bench_out/traces/<workload>.jsonl`; `trace.overhead_pct` compares the
  two runs' latency medians.

A child that crashes, hangs past its budget or fails its output check makes
the run incorrect, with every epoch counted as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("steady", "migrate", "q8-durable")
SETUP_RUNS = 3
BUDGET_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("aao_stall_ms", "ms"),
    ("fluid_migration_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("driver.emit_lag_p99_ms", "ms"),
    ("driver.backlog_max_epochs", "count"),
    ("driver.gen_ms", "ms"),
    ("nexmark.generator.ms", "ms"),
    ("nexmark.generator.events", "count"),
    ("timelite.input.ms", "ms"),
    ("timelite.input.records", "count"),
    ("timelite.worker.busy_ms", "ms"),
    ("timelite.worker.idle_ms", "ms"),
    ("timelite.worker.active_share", "ratio"),
    ("timelite.worker.step_max_ms", "ms"),
    ("timelite.worker.step_p99_us", "us"),
    ("timelite.progress.pending_max", "count"),
    ("timelite.progress.activated_max", "count"),
    ("megaphone.operator.fold_ms", "ms"),
    ("megaphone.operator.fold_calls", "count"),
    ("megaphone.operator.records_per_call", "count"),
    ("megaphone.operator.engine_ms", "ms"),
    ("megaphone.bins.state_mb", "MB"),
    ("megaphone.bins.records", "count"),
    ("megaphone.bins.imbalance", "ratio"),
    ("megaphone.controller.us", "us"),
    ("megaphone.controller.steps_issued", "count"),
    ("megaphone.controller.epochs_per_step", "count"),
    ("megaphone.controller.step_ms", "ms"),
    ("megaphone.controller.moved_mb", "MB"),
    ("megaphone.controller.aao_mb_per_s", "MB/s"),
    ("megaphone.storage.wal_mb", "MB"),
    ("megaphone.storage.wal_records", "count"),
    ("megaphone.storage.sstables", "count"),
    ("megaphone.storage.compactions", "count"),
    ("megaphone.storage.spilled_bins", "count"),
    ("megaphone.storage.disk_mb", "MB"),
    ("megaphone.storage.checkpoint_ms", "ms"),
    ("megaphone.storage.checkpoint_busy_retries", "count"),
    ("megaphone.storage.spill_ms", "ms"),
    ("megaphone.storage.stall_ms", "ms"),
    ("nexmark.queries.q8_rows", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
    ("baseline.steady_1w.throughput_rps", "1/s"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def cargo(root, verb):
    """A cargo command on the benchmark package and its environment."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    return ["cargo", verb, "--release", "--offline", "--manifest-path", manifest], env, target


def build(root):
    """Builds the benchmark binary; returns its path, or None on failure."""
    command, env, target = cargo(root, "build")
    try:
        status = subprocess.run(command, env=env, stdout=sys.stderr, timeout=850).returncode
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"build failed: {error}")
        return None
    binary = os.path.join(target, "release", "perfbench")
    if status != 0 or not os.path.isfile(binary):
        log(f"build failed with status {status}")
        return None
    return binary


class Child:
    """One child run: its set-up time, RESULT object and planned epochs."""

    def __init__(self):
        self.setup_s = None
        self.result = None
        self.epochs = None
        self.error = None


def run_child(binary, out_dir, args, deadline, label):
    """Runs the benchmark binary with `args` until it exits or `deadline`."""
    child = Child()
    data_dir = os.path.join(out_dir, "data", f"{label}-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(data_dir)
    env = {k: v for k, v in os.environ.items() if k != "MEGAPHONE_DATA_ROOT"}
    stderr_path = data_dir + ".stderr"
    spawned = time.monotonic()
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            [binary, *args, "--data-dir", data_dir],
            stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=out_dir,
        )

        def read():
            for raw in process.stdout:
                line = raw.decode(errors="replace").rstrip("\n")
                if line.startswith("READY ") and child.setup_s is None:
                    # The child prints when its first timed epoch was due on
                    # its run clock; the schedule's wait up to then is no
                    # part of set-up.
                    due_s = int(line.split()[1]) / 1e9
                    child.setup_s = time.monotonic() - spawned - due_s
                elif line.startswith("EPOCHS "):
                    child.epochs = int(line.split()[1])
                elif line.startswith("RESULT "):
                    child.result = json.loads(line[len("RESULT "):])

        reader = threading.Thread(target=read)
        reader.start()
        try:
            process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            child.error = f"{label}: no result within the budget"
        reader.join()
    with open(stderr_path, "rb") as stderr:
        tail = stderr.read()[-2000:].decode(errors="replace").strip()
    os.remove(stderr_path)
    shutil.rmtree(data_dir, ignore_errors=True)
    if child.error is None and process.returncode != 0:
        child.error = f"{label}: exit status {process.returncode}: {tail}"
    if child.error is None and child.result is None and "--setup-only" not in args:
        child.error = f"{label}: no result line"
    if child.error is None and child.result is not None and not child.result["correct"]:
        child.error = f"{label}: {child.result['detail']}"
    if child.error:
        log(child.error)
    return child


def attempted_of(children):
    for child in children:
        if child.result is not None:
            return child.result["attempted"]
    for child in children:
        if child.epochs is not None:
            return child.epochs
    return 1


def report(correct, attempted, failed, metrics, units, notes=()):
    """Prints the metric table, then the result object as the last line."""
    for name, unit in units:
        if name in metrics:
            print(f"{name:44s} {metrics[name]:>16.6f} {unit}")
    for note in notes:
        print(note)
    print(f"epochs: {failed} failed of {attempted} attempted")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units if name in metrics},
    }))


def measure(binary, out_dir, opts, deadline):
    base = [opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    children = []
    if opts.trace == 0:
        for n in range(SETUP_RUNS - 1):
            children.append(run_child(binary, out_dir, base + ["--setup-only"], deadline, f"setup{n}"))
        full = run_child(binary, out_dir, base, deadline, "run")
        children.append(full)
        correct = all(child.error is None for child in children)
        setups = [child.setup_s for child in children if child.setup_s is not None]
        metrics = dict(full.result["e2e"]) if full.result else {}
        if len(setups) == SETUP_RUNS:
            metrics["setup_s"] = statistics.median(setups)
        notes = [
            "not gated: " + ", ".join(
                f"{name} {metrics[name]:.6f} ms" if name in metrics
                else f"{name} not reported" for name in (
                    "latency_p90_ms", "latency_p95_ms", "latency_p99_ms", "latency_max_ms",
                    "fluid_step_ms", "storage_stall_ms")),
            f"latency samples: {metrics.get('latency_samples', 0):.0f} epochs; "
            f"all-at-once episodes: {metrics.get('aao_episodes', 0):.0f}; "
            f"fluid episodes: {metrics.get('fluid_episodes', 0):.0f}; "
            f"storage episodes: {metrics.get('storage_episodes', 0):.0f}; "
            f"unpaced input: {metrics.get('throughput_records', 0):.0f} records",
            "set-up times: " + ", ".join(f"{value:.6f}" for value in setups) + " s",
        ]
        units = END_TO_END
    else:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(out_dir, "traces", f"{opts.workload}.jsonl")
        untraced = run_child(binary, out_dir, base, deadline, "untraced")
        traced = run_child(binary, out_dir, base + ["--trace-out", trace_path], deadline, "traced")
        baseline = run_child(
            binary, out_dir,
            ["steady", "--seed", str(opts.seed), "--seconds", str(opts.seconds),
             "--workers", "1", "--unpaced-only"],
            deadline, "baseline")
        children = [untraced, traced, baseline]
        correct = all(child.error is None for child in children)
        metrics = dict(traced.result["layers"]) if traced.result else {}
        if untraced.result and traced.result:
            plain = untraced.result["e2e"]["latency_p50_ms"]
            metrics["trace.overhead_pct"] = (
                traced.result["e2e"]["latency_p50_ms"] - plain) / plain * 100.0
        if baseline.result:
            metrics["baseline.steady_1w.throughput_rps"] = baseline.result["e2e"]["throughput_rps"]
        notes = [f"spans written to {os.path.relpath(trace_path)}; "
                 f"{metrics.get('trace.spans', 0):.0f} spans"]
        units = PER_LAYER
    attempted = attempted_of(children)
    failed = max((child.result["failed"] for child in children if child.result), default=attempted)
    if not correct or any(name not in metrics for name, _ in units):
        correct, failed = False, attempted
    report(correct, attempted, failed, metrics, units, notes)


def self_test(root, binary, out_dir):
    """Runs the benchmark's unit tests and proves the output check can fail."""
    command, env, _ = cargo(root, "test")
    tests = subprocess.run(command, env=env, stdout=sys.stderr).returncode
    deadline = time.monotonic() + BUDGET_S
    corrupted = run_child(binary, out_dir, ["steady", "--seed", "7", "--unpaced-only", "--corrupt"],
                          deadline, "corrupted")
    caught = corrupted.result is not None and not corrupted.result["correct"] \
        and "rows" in corrupted.result["detail"]
    clean = run_child(binary, out_dir, ["steady", "--seed", "7", "--unpaced-only"], deadline, "clean")
    print(f"unit tests: {'pass' if tests == 0 else 'FAIL'}")
    print(f"corrupted row rejected: {'yes' if caught else 'NO'}")
    print(f"clean run accepted: {'yes' if clean.error is None else 'NO'}")
    return 0 if tests == 0 and caught and clean.error is None else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")
    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 1
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if opts.self_test:
        return self_test(root, binary, out_dir)
    measure(binary, out_dir, opts, time.monotonic() + BUDGET_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
