#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, through perfbench/run.py:
  - a reference with one wrong rank or leaf count drives correct_frac
    below 1.0, on every workload;
  - the traced and untraced paths render identical bytes on every op of
    every workload (a traced run fails its ops otherwise), and no run
    starts a second thread;
  - every count and *_heap_mb metric repeats exactly for a fixed seed and
    the seed-dependent ones change for another seed, on lib10k_cold and
    edit_session;
  - the spans of each traced run nest and every self time is >= 0;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (build_dir only)

WORKLOADS = ("lib10k_cold", "paper_corpus", "edit_session")
# Counts whose value follows from the generated inputs, so another seed
# must move them.
SEED_DEPENDENT = {
    "lib10k_cold": ("tlang.source_kb", "tlang.parse_heap_mb",
                    "solver.solve_heap_mb"),
    "edit_session": ("tlang.source_kb", "solver.impls_subsumed",
                     "engine.impls_invalidated"),
}
TIME_UNITS = ("ms", "s", "%")

failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, seconds=1, corrupt=False, cwd=ROOT,
          env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-reference")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result(proc):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in TIME_UNITS}


def check_spans(path, workload):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    nested = self_ok = True
    eps = 0.002  # ts and dur are printed to 0.001 us.
    for e in events:
        a = e["args"]
        self_ok &= a["self_us"] >= -eps
        if a["parent"] < 0:
            continue
        p = by_id.get(a["parent"])
        nested &= (p is not None and p["args"]["op"] == a["op"] and
                   e["ts"] >= p["ts"] - eps and
                   e["ts"] + e["dur"] <= p["ts"] + p["dur"] + eps)
    names = {e["name"] for e in events}
    check(nested and events != [],
          "%s: %d spans nest inside their parents" % (workload, len(events)))
    check(self_ok, "%s: every span's self time is >= 0" % workload)
    check({"solver.index", "solver.coherence", "engine.teardown"} <= names,
          "%s: index, coherence and teardown have spans of their own"
          % workload)


def main():
    for w in WORKLOADS:
        out = result(bench(w, 7, 0, corrupt=True))
        check(out is not None and out[1]["metrics"]["correct_frac"]["value"]
              < 1.0 and not out[1]["correct"],
              "%s: one wrong reference entry drives correct_frac below 1"
              % w)

    traced = {}
    for w in WORKLOADS:
        out = result(bench(w, 7, 1))
        traced[w] = out
        check(out is not None and out[1]["correct"] and
              out[1]["failed"] == 0,
              "%s: traced bytes equal untraced bytes on all %s ops"
              % (w, out[1]["attempted"] if out else "?"))
        check(out is not None and any("threads=1" in l for l in out[0]),
              "%s: the run has one thread" % w)
        if out is not None:
            check_spans(os.path.join(run.build_dir(), "traces",
                                     "%s-s7.trace.json" % w), w)

    for w in ("lib10k_cold", "edit_session"):
        again, other = result(bench(w, 7, 1)), result(bench(w, 8, 1))
        if None in (traced[w], again, other):
            check(False, "%s: determinism runs completed" % w)
            continue
        a, b, c = (counts(x[1]["metrics"]) for x in (traced[w], again, other))
        diff = sorted(k for k in a if a[k] != b[k])
        check(not diff, "%s: %d counts and heap figures repeat for a fixed "
              "seed%s" % (w, len(a), (" (differ: %s)" % diff) if diff else ""))
        same = [k for k in SEED_DEPENDENT[w] if a[k] == c[k]]
        check(not same, "%s: seed-dependent counts change for another seed%s"
              % (w, (" (unchanged: %s)" % same) if same else ""))

    with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = bench("paper_corpus", 1, 0, cwd=bare, env=env)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the sources run.py exits %d and prints no result"
              % proc.returncode)

    print("%d check(s) failed" % len(failures) if failures else
          "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
