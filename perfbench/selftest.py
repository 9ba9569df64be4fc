#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and of the determinism
contract, at reduced size (about three minutes on four cores):

    python3 perfbench/selftest.py

1. Clean runs of the paper workload (law) and the serve workload (with
   stream ingest) must pass every check.
2. Each deliberately corrupted output must fail the check that guards it.
   These runs are at CFX_THREADS=1: what they test does not depend on the
   thread count, and the thread-pool race (README) cannot strike there.
3. Output digests (CF matrices and t-SNE embeddings; served responses) must
   be bitwise equal at CFX_THREADS=1 and at the default thread count. A
   default-thread process killed by the race fails this, as a wrong result
   would; it is not run again.

Exits 0 when everything holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

PAPER = ["paper", "--dataset", "law", "--seed", "5", "--eval", "40",
         "--tsne-points", "520"]
SERVE = ["serve", "--seed", "5", "--seconds", "1", "--ingest"]
# Corruption kind -> the check message it must trigger.
PAPER_CORRUPTIONS = {
    "range": "range", "onehot": "one-hot", "immutable": "immutable",
    "desired": "desired class", "predicted": "predicted class",
    "validity": "validity", "tsne": "embedding",
}
SERVE_CORRUPTIONS = {
    "response": "differ from GenerateMany", "label": "black box",
    "count": "stats().completed", "stream": "rows ingested of",
    "stream_stats": "stream stats",
}


def done_line(binary, args, threads=None, corrupt=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("CFX_METRICS", "CFX_TRACE", "CFX_THREADS")}
    if threads is not None:
        env["CFX_THREADS"] = str(threads)
    argv = [binary] + args
    if args[0] == "serve":
        argv += ["--work-dir", WORK]
    if corrupt:
        argv += ["--corrupt", corrupt]
    out = subprocess.run(argv, env=env, cwd=WORK, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    errors = []
    for line in out.stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag == "OP" and json.loads(body).get("error"):
            errors.append(json.loads(body)["error"])
        elif tag == "DONE":
            done = json.loads(body)
            if not done.get("correct", True):
                errors.append(done["error"])
            done.update(correct=not errors, error="; ".join(errors))
            return done
    if out.returncode < 0:
        return {"correct": False, "error": "killed by signal %d, no result" %
                -out.returncode}
    return {"correct": False, "error": "exit %d, no result" % out.returncode}


def main():
    global WORK
    binary = run.build()
    WORK = os.path.join(os.path.dirname(run.build_dir()), "selftest")
    os.makedirs(WORK, exist_ok=True)
    failures = []

    def expect(what, ok, detail=""):
        print("%-4s %s %s" % ("ok" if ok else "FAIL", what, detail),
              flush=True)
        if not ok:
            failures.append(what)

    digests = {}
    for args in (PAPER, SERVE):
        for threads in (1, None):
            d = done_line(binary, args, threads)
            label = "%s at CFX_THREADS=%s" % (args[0], threads or "default")
            expect("clean " + label, d["correct"], d.get("error", ""))
            digests.setdefault(args[0], []).append(d.get("digest"))
    for workload, (one, default) in digests.items():
        expect("%s digest 1 thread == default" % workload,
               one is not None and one == default, "%s %s" % (one, default))

    for args, kinds in ((PAPER, PAPER_CORRUPTIONS),
                        (SERVE, SERVE_CORRUPTIONS)):
        for kind, message in kinds.items():
            d = done_line(binary, args, threads=1, corrupt=kind)
            expect("corrupt %s is caught" % kind,
                   not d["correct"] and message in d.get("error", ""),
                   d.get("error", ""))

    print("selftest: %s" % ("PASS" if not failures else
                            "FAIL (%s)" % ", ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
