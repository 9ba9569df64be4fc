#!/usr/bin/env python3
"""End-to-end benchmark of cfx: builds the library and the workload binary
from source (Release), runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload paper|serve|serve_ingest \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); run outputs (bundles, metrics and trace
snapshots) go to .bench_build/runs. Every child's output and every log line
comes before the result line, which is the last line on stdout. A child
killed by a signal is named on stdout ("CHILD DIED") before the result line
and run again (see run_child). With
--trace 0 the result carries the end-to-end metrics, with --trace 1 (library
metrics and spans on) the per-layer ones.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATASETS = ("law", "adult", "census")
OPS_PER_DATASET = 10  # the nine Table IV cells and the t-SNE
CHILD_DEADLINE_S = 160.0  # a run must end within 180 s
MAX_ATTEMPTS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                       ".bench_build")),
                        "perfbench")


def build():
    """Configures (once) and builds cfx_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: cfx sources not found next to perfbench/")
    bdir = build_dir()
    cmds = [["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
             "--target", "cfx_perfbench"]]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "cfx_perfbench")


class Child:
    """One workload process: its OP lines, its DONE line, its peak RSS."""

    def __init__(self, argv, env, cwd, deadline):
        self.ops, self.done, self.signal = [], None, 0
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                cwd=cwd, text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            if tag == "OP":
                self.ops.append(json.loads(body))
            elif tag == "DONE":
                self.done = json.loads(body)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        self.rss_mb = usage.ru_maxrss / 1024.0
        if os.WIFSIGNALED(status):
            self.signal = os.WTERMSIG(status)
        elif proc.returncode != 0:
            log("perfbench: %s exited with %d" % (argv[1], proc.returncode))


def traced(env, tag):
    """Points the library's metrics and trace snapshots of one child at its
    own files in the run directory, when the run is traced."""
    if "CFX_METRICS" not in env:
        return env
    env = dict(env)
    for var in ("CFX_METRICS", "CFX_TRACE"):
        env[var] = env[var].replace(".json", "_%s.json" % tag)
    return env


def run_child(argv, env, cwd, deadline, stats):
    """Runs a child. A child that dies by a signal is reported and run again
    on the same inputs, up to MAX_ATTEMPTS times: the thread-pool race (see
    README) kills processes at random, and an operation that fails only now
    and then cannot be counted as failed without making the failed share
    differ from run to run. Every such death is named on stdout before the
    result line, and counted in bench.child_signals."""
    dead_ops = []  # OP lines of attempts that died, failed checks and all
    for attempt in range(1, MAX_ATTEMPTS + 1):
        child = Child(argv, env, cwd, deadline)
        stats["rss"] = max(stats["rss"], child.rss_mb)
        if not child.signal:
            break
        dead_ops += child.ops
        stats["deaths"].append(
            "perfbench: CHILD DIED: %s by signal %d (%s), attempt %d of %d" %
            (" ".join(argv[1:]), child.signal,
             signal.Signals(child.signal).name, attempt, MAX_ATTEMPTS))
        log(stats["deaths"][-1])
    if child.done is None:
        log("perfbench: %s gave no result" % " ".join(argv[1:]))
    child.dead_ops = dead_ops
    return child


def run_paper(binary, args, env, cwd, deadline, stats):
    """Returns (correct, attempted, failed, e2e, layer); e2e and layer are
    None unless every dataset's process reported its result."""
    setup_s, latencies, layer = 0.0, [], {}
    attempted, ok, correct, complete = 0, 0, True, True
    acc = lambda k, v: layer.__setitem__(k, layer.get(k, 0.0) + v)
    counters = {}
    for dataset in DATASETS:
        child = run_child([binary, "paper", "--dataset", dataset,
                           "--seed", str(args.seed)], traced(env, dataset),
                          cwd, deadline, stats)
        attempted += OPS_PER_DATASET
        for op in child.dead_ops + child.ops:
            if op.get("error"):
                correct = False
                log("perfbench: check failed: %s: %s" % (op["op"],
                                                         op["error"]))
        for op in child.ops:
            if not op["ok"]:
                continue
            ok += 1
            latencies.append(op["latency_s"])
            method = op.get("method")
            if method is None:
                acc("manifold.tsne_s", op["latency_s"])
                continue
            fit_group = "core" if method.startswith("ours") else "baselines"
            acc("%s.fit_s.%s" % (fit_group, method), op["fit_s"])
            acc("generate_s." + method, op["generate_s"])
            acc("metrics.evaluate_s", op["evaluate_s"])
        done = child.done
        if done is None:
            complete = False
            continue
        setup_s += done["setup_s"]
        acc("core.experiment_s", done["experiment_s"])
        for k, v in done.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                counters[k] = counters.get(k, 0) + v
    if not complete:
        # A dataset's set-up and unfinished cells are unknown: reporting the
        # sums of the others would read as a faster grid.
        return False, attempted, attempted - ok, None, None
    reproduce_s = sum(latencies)
    fit_s = counters.get("fit_total_s", 0.0)
    util_n = counters.get("pool_util_count", 0)
    layer.update({
        "paper.reproduce_s": reproduce_s,
        "tensor.matmul_calls": counters.get("matmul_calls", 0),
        "tensor.matmul_gflop": counters.get("matmul_flops", 0) / 1e9,
        "tensor.fit_gflop_per_s":
            counters.get("fit_matmul_flops", 0) / 1e9 / fit_s if fit_s else 0.0,
        "common.pool_loops": counters.get("pool_loops", 0),
        "common.pool_inline_loops": counters.get("pool_inline_loops", 0),
        "common.pool_utilization_mean":
            counters.get("pool_util_sum", 0.0) / util_n if util_n else 0.0,
        "baselines.predcache_hits": counters.get("predcache_hits", 0),
        "baselines.predcache_misses": counters.get("predcache_misses", 0),
    })
    e2e = {
        "setup_s": setup_s,
        # The 30 operations are a fixed, unequal set: their median jumps
        # between cells of different cost, so the typical latency is the mean.
        "op_latency_us":
            1e6 * reproduce_s / len(latencies) if latencies else 0.0,
    }
    return correct, attempted, attempted - ok, e2e, layer


def run_serve(binary, args, env, cwd, deadline, stats):
    argv = [binary, "serve", "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--work-dir", cwd]
    if args.workload == "serve_ingest":
        argv.append("--ingest")
    d = run_child(argv, traced(env, args.workload), cwd, deadline,
                  stats).done
    if d is None:
        return False, 1, 1, None, None
    if not d["correct"]:
        log("perfbench: check failed: " + d["error"])
    e2e = {
        "setup_s": d["setup_s"],
        "op_latency_us": d["open_p50_us"],
    }
    layer = {
        "core.generate_many_us.b1": d["generate_many_us_b1"],
        "core.generate_many_us.b32": d["generate_many_us_b32"],
        "serve.open_p99_us": d["open_p99_us"],
        "serve.burst_rows_per_s": d["burst_rows_per_s"],
        "serve.saturation_rows_per_s": d["saturation_rows_per_s"],
        "serve.submit_us": d["submit_us"],
        "serve.rows_per_batch.open": d["rows_per_batch_open"],
        "serve.rows_per_batch.burst": d["rows_per_batch_burst"],
        "serve.wait_ms_p50": d["wait_ms_p50"],
        "serve.park_count": d["park_count"],
        "serve.submit_spins": d["submit_spins"],
        "serve.generator_late_us": d["generator_late_us"],
        "serve.registry_restore_ms": d["registry_restore_ms"],
        "serve.train_s": d["train_s"],
        "tensor.matmul_calls": d["matmul_calls"],
        "common.pool_loops": d["pool_loops"],
        "common.pool_inline_loops": d["pool_inline_loops"],
    }
    if args.workload == "serve_ingest":
        layer.update({
            "stream.ingest_rows_per_s": d["ingest_rows_per_s"],
            "stream.offer_us": d["offer_us"],
            "stream.backlog_rows_max": d["backlog_rows_max"],
            "stream.framer_rows_per_s": d["framer_rows_per_s"],
            "stream.rescore_runs": d["rescore_runs"],
        })
    return d["correct"], d["attempted"], d["failed"], e2e, layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "serve", "serve_ingest"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    deadline = time.monotonic() + CHILD_DEADLINE_S

    runs = os.path.join(os.path.dirname(build_dir()), "runs", args.workload)
    os.makedirs(runs, exist_ok=True)
    env = dict(os.environ)
    for var in ("CFX_METRICS", "CFX_TRACE", "CFX_THREADS"):
        env.pop(var, None)
    if args.trace:
        env["CFX_METRICS"] = os.path.join(runs, "metrics.json")
        env["CFX_TRACE"] = os.path.join(runs, "trace.json")
    stats = {"deaths": [], "rss": 0.0}
    workload = run_paper if args.workload == "paper" else run_serve
    correct, attempted, failed, e2e, layer = workload(binary, args, env, runs,
                                                      deadline, stats)

    section = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else e2e
    if values is None:  # the workload gave no figures: report none
        metrics = {m["name"]: {"value": None, "unit": m["unit"]}
                   for m in spec[section]}
    else:
        values["peak_rss_mb"] = stats["rss"]
        values["bench.child_signals"] = len(stats["deaths"])
        # A per-layer metric that does not apply to the workload reads 0.
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec[section]}
    sys.stderr.flush()
    for line in stats["deaths"]:
        print(line)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
