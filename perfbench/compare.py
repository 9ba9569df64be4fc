#!/usr/bin/env python3
"""Runs the benchmark as two sets of N runs of the same code, one seed per
run, and reports each metric's median, quartiles and spread against the
bound in BENCHMARK.json; this is how the bounds were set and justified.

    python3 perfbench/compare.py --workload serve [--runs 10] [--sets 2]
        [--seed-base 100] [--trace 0|1]

spread = (q3 - q1) / median, with quartiles from statistics.quantiles(n=4).
A metric passes when every set's spread is within its bound and the second
set's median is not worse than the first's by more than the bound. The
failed share (failed / attempted) must be equal in every run. The wall time
of each run is reported too, so a traced and an untraced comparison give
the tracing overhead. Results are also written to
.bench_build/compare-<workload>-trace<T>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit("run failed (exit %d): %s" % (out.returncode, " ".join(argv)))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["deaths"] = sum(l.startswith("perfbench: CHILD DIED")
                           for l in lines)
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seed-base", type=int, default=100)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if args.trace else "end_to_end"]

    sets, seed = [], args.seed_base
    for s in range(args.sets):
        runs = []
        for _ in range(args.runs):
            r = one_run(args.workload, seed, spec["run_seconds"], args.trace)
            print("set %d seed %d: wall %.1f s, correct %s, failed %d/%d, "
                  "children killed by a signal %d" %
                  (s + 1, seed, r["wall_s"], r["correct"], r["failed"],
                   r["attempted"], r["deaths"]), file=sys.stderr, flush=True)
            runs.append(r)
            seed += 1
        sets.append(runs)

    report = {"workload": args.workload, "trace": args.trace,
              "runs": args.runs, "metrics": {}}
    all_ok = True
    print("%-32s %6s %14s %14s %14s %8s %6s" %
          ("metric", "set", "median", "q1", "q3", "spread", "bound"))
    for m in section + [{"name": "wall_s", "better": "lower"}]:
        name, bound = m["name"], m.get("bound")
        if name != "wall_s" and any(
                r["metrics"].get(name, {}).get("value") is None
                for runs in sets for r in runs):
            print("%-32s not reported by every run" % name)
            all_ok = False
            continue

        rows = []
        for i, runs in enumerate(sets):
            vals = [r["wall_s"] if name == "wall_s"
                    else r["metrics"][name]["value"] for r in runs]
            row = summarise(vals)
            rows.append(row)
            ok = bound is None or row["spread"] <= bound
            all_ok &= ok
            print("%-32s %6d %14.6g %14.6g %14.6g %8.4f %6s%s" %
                  (name, i + 1, row["median"], row["q1"], row["q3"],
                   row["spread"], "-" if bound is None else bound,
                   "" if ok else "  SPREAD>BOUND"))
        if bound is not None and len(rows) > 1 and rows[0]["median"]:
            change = rows[1]["median"] / rows[0]["median"] - 1.0
            worse = -change if m["better"] == "higher" else change
            ok = worse <= bound
            all_ok &= ok
            print("%-32s second median vs first: %+.4f%s" %
                  (name, change, "" if ok else "  WORSE>BOUND"))
        report["metrics"][name] = rows
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    correct = all(r["correct"] for runs in sets for r in runs)
    deaths = sum(r["deaths"] for runs in sets for r in runs)
    print("failed shares: %s; all correct: %s; children killed by a signal "
          "and run again: %d" % (sorted(shares), correct, deaths))
    all_ok &= len(shares) == 1 and correct
    report.update(failed_shares=sorted(shares), correct=correct,
                  child_deaths=deaths, ok=all_ok)
    out = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                      ".bench_build")),
                       "compare-%s-trace%d.json" % (args.workload, args.trace))
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("compare: %s (%s)" % ("OK" if all_ok else "NOT OK", out))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
