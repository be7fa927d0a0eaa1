#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Run from the root of a ConfBench checkout. The first run builds the program
and the workload driver from source into .bench_build/ (or $CARGO_TARGET_DIR);
later runs rebuild incrementally. Each workload runs in child processes of
its own, so its peak RSS and set-up time are its alone.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics named in BENCHMARK.json; with --trace 1 they are the
per-layer metrics of the traced run. Every simulated output is checked
against perfbench/reference.json; a mismatch, a broken accounted()
invariant, a throw or a non-zero exit counts as a failed operation.

    python3 perfbench/run.py --record

re-records that reference from the current build (only for a change that
alters simulated output on purpose). See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

FIGURES = ["fig3_ml", "fig4_unixbench", "fig5_attestation",
           "fig6_faas_tdx_sev", "fig7_faas_cca", "fig8_cca_dist", "tab_dbms"]
SIM_WORKLOADS = ["fabric_wide", "fabric_gray_churn", "cluster_chaos"]
# Figure programs honour CONFBENCH_TRIALS; one trial keeps a full
# regeneration to about 40 s on a 4-core machine (fig3 ignores it).
FIGURE_TRIALS = "1"
RUN_BUDGET_S = 170
# The only build type timed. The driver itself refuses an unoptimized build.
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def thread_cap():
    return max(1, (os.cpu_count() or 1) // 2)


def build():
    """Configures (once) and builds perfbench/ and the program it drives."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    bdir = os.path.join(target, "perfbench-" + BUILD_TYPE)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            log("perfbench: configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return bdir


def spawn(bdir, cmd, deadline, **kw):
    """Runs one child to completion through the driver's launcher, which
    reports the child's own peak RSS (one exec'd straight from this Python
    process would count Python's). Returns (exit code, peak RSS KiB, wall s).

    The launcher, and with it the child, is killed at `deadline`
    (time.monotonic()); both are always reaped.
    """
    report = os.path.join(bdir, "spawn-report.json")
    if os.path.exists(report):
        os.remove(report)
    p = subprocess.Popen([os.path.join(bdir, "perfbench_driver"), "--spawn",
                          report] + cmd, **kw)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), p.kill)
    timer.start()
    try:
        p.wait()
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        timer.cancel()
    if p.returncode != 0 or not os.path.exists(report):
        return p.returncode or 1, 0, 0.0
    with open(report) as f:
        child = json.load(f)
    return child["exit"], child["maxrss_kib"], child["wall_s"]


def run_driver(bdir, args, deadline):
    """Runs the workload driver; returns (parsed JSON or None, peak RSS
    KiB)."""
    out_path = os.path.join(bdir, "driver-out.json")
    with open(out_path, "w") as out:
        code, rss, _ = spawn(
            bdir, [os.path.join(bdir, "perfbench_driver")] + args, deadline,
            stdout=out)
    with open(out_path) as f:
        lines = f.read().splitlines()
    if code != 0 or not lines:
        log("perfbench: driver exited with %d" % code)
        return None, rss
    return json.loads(lines[-1]), rss


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def regenerate_figures(bdir, deadline):
    """Runs every figure program once, one after another, each in a fresh
    directory. Returns per-program (seconds, csv digest or None, rows,
    peak RSS KiB)."""
    env = dict(os.environ, CONFBENCH_TRIALS=FIGURE_TRIALS,
               CONFBENCH_THREADS=str(thread_cap()))
    runs = {}
    for prog in FIGURES:
        wdir = os.path.join(bdir, "figures-run", prog)
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        with open(os.path.join(wdir, "stdout.txt"), "w") as out:
            code, rss, wall = spawn(
                bdir, [os.path.join(bdir, "confbench", "bench", prog)],
                deadline, cwd=wdir, env=env, stdout=out)
        csv = os.path.join(wdir, prog + ".csv")
        ok = code == 0 and os.path.exists(csv)
        rows = 0
        if ok:
            with open(csv) as f:
                rows = max(0, sum(1 for _ in f) - 1)
        runs[prog] = (wall, file_digest(csv) if ok else None, rows, rss)
    return runs


def record(bdir):
    """Writes reference.json from the current build: every figure CSV and
    every entry of each simulated workload's input pool."""
    deadline = time.monotonic() + 3600
    ref = {}
    for prog, (_, dig, _, _) in regenerate_figures(bdir, deadline).items():
        if dig is None:
            sys.exit("perfbench: %s failed; nothing recorded" % prog)
        ref["figures/" + prog] = dig
    for w in SIM_WORKLOADS:
        out, _ = run_driver(bdir, ["--workload", w, "--record", "--threads",
                                   str(thread_cap())], deadline)
        if out is None:
            sys.exit("perfbench: %s failed; nothing recorded" % w)
        for call in out["calls"]:
            if call["error"]:
                sys.exit("perfbench: %s threw: %s" % (w, call["error"]))
            for o in call["outputs"]:
                if not o["accounted"]:
                    sys.exit("perfbench: %s lost requests" % o["key"])
                ref[o["key"]] = o["digest"]
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: recorded %d reference digests" % len(ref))


def figures_workload(bdir, args, deadline, ref, report):
    """Returns (end-to-end values, layer values, attempted, failed,
    peak RSS KiB), or None when the driver failed."""
    setup, rss = run_driver(bdir, ["--workload", "figures", "--trace",
                                  str(args.trace), "--threads",
                                  str(thread_cap())], deadline)
    if setup is None:
        return None
    report["facts"] = setup["facts"]
    # Exactly one regeneration per run, so every build is judged on the same
    # sample; at one trial it takes longer than a run's --seconds anyway.
    runs = regenerate_figures(bdir, deadline)
    regen = sum(r[0] for r in runs.values())
    rows = sum(r[2] for r in runs.values())
    failed = 0
    for prog, (_, dig, _, prss) in runs.items():
        rss = max(rss, prss)
        match = dig is not None and dig == ref.get("figures/" + prog)
        failed += not match
        report["digests"].append(("figures/" + prog, dig, match))
    e2e = {
        "regen_s": regen,
        "sim_req_per_s": rows / regen,
        "setup_s": min(setup["setup_s"]),
    }
    layers = dict(setup["layers"])
    for prog, r in runs.items():
        layers["fig.%s_s" % prog] = r[0]
    if args.trace:
        # The traced grids are fig6 + fig7 through ConfBench::measure; the
        # rest of a regeneration (fig3/4/5/8, tab_dbms, process start-up)
        # is not attributed to a layer.
        layers["core.measure_share"] = layers["core.measure_total_s"] / regen
        layers["unattributed_share"] = 1 - layers["core.measure_share"]
    report["notes"].append(
        "one regeneration = %d figure cells (CSV rows) from %d programs at "
        "CONFBENCH_TRIALS=%s" % (rows, len(FIGURES), FIGURE_TRIALS))
    attempted = len(runs)
    return e2e, layers, attempted, failed, rss


def sim_workload(bdir, args, deadline, ref, report):
    out, rss = run_driver(bdir, ["--workload", args.workload, "--seed",
                                str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace), "--threads",
                                str(thread_cap())], deadline)
    if out is None:
        return None
    report["facts"] = out["facts"]
    calls = out["calls"]
    failed = 0
    for call in calls:
        bad = bool(call["error"])
        if call["error"]:
            report["notes"].append("simulate call threw: " + call["error"])
        for o in call["outputs"]:
            match = o["digest"] == ref.get(o["key"])
            bad = bad or not match or not o["accounted"]
            if not o["accounted"]:
                report["notes"].append(o["key"] + ": accounted() is false")
            report["digests"].append((o["key"], o["digest"], match))
        failed += bad
    timed = [c for c in calls if not c["error"] and c["offered"] > 0]
    if not timed:
        return None
    # Each input's fastest call: other tenants of a shared machine only ever
    # slow a call down, so the fastest one is the steadiest estimate of the
    # program's own cost. The run's inputs differ in cost, so the metrics
    # sum over all of them.
    fastest = {}
    for c in timed:
        best = fastest.get(c["entry"])
        if best is None or c["wall_s"] < best["wall_s"]:
            fastest[c["entry"]] = c
    wall = sum(c["wall_s"] for c in fastest.values())
    offered = sum(c["offered"] for c in fastest.values())
    e2e = {
        "regen_s": wall,
        "sim_req_per_s": offered / wall,
        "setup_s": min(out["setup_s"]),
    }
    report["notes"].append(
        "%d simulate calls over %d inputs, %d offered requests per call; "
        "regen_s and sim_req_per_s sum each input's fastest call; median "
        "call %.6g req/s"
        % (len(calls), len(fastest), timed[0]["offered"],
           statistics.median(c["offered"] / c["wall_s"] for c in timed)))
    return e2e, out["layers"], len(calls), failed, rss


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/reference.json and exit")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    bdir = build()
    if args.record:
        record(bdir)
        return 0

    deadline = time.monotonic() + RUN_BUDGET_S
    with open(REFERENCE) as f:
        ref = json.load(f)
    report = {"facts": {}, "digests": [], "notes": []}
    run = figures_workload if args.workload == "figures" else sim_workload
    res = run(bdir, args, deadline, ref, report)
    if res is None:
        # The program crashed or was killed: one failed operation, no timings.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0
    e2e, layers, attempted, failed, rss_kib = res
    e2e["peak_rss_mb"] = rss_kib / 1024.0

    facts = report["facts"]
    print("perfbench  workload=%s  seed=%d  seconds=%g  trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine    nproc=%s  thread_cap=%s  build=%s  compiler=%s"
          % (facts.get("nproc"), facts.get("threads"),
             facts.get("build_type"), facts.get("compiler")))
    # Repeated calls repeat their outputs: one line per distinct output.
    seen = {}
    for d in report["digests"]:
        seen[d] = seen.get(d, 0) + 1
    for (key, dig, match), n in seen.items():
        print("digest     %-28s %s %s x%d" % (key, dig, "ok" if match
                                               else "MISMATCH", n))
    for note in report["notes"]:
        print("note       " + note)
    print("error_share %.6g  (%d of %d operations failed)"
          % (failed / max(1, attempted), failed, attempted))

    if args.trace:
        specs = SPEC["per_layer"]
        values = layers
        absent = [m["name"] for m in specs if m["name"] not in layers]
    else:
        specs = SPEC["end_to_end"]
        values = e2e
        absent = []
    metrics = {}
    for m in specs:
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("metric     %-32s %14.6g %s" % (m["name"], v, m["unit"]))
    if args.trace:
        print("unattributed share of host time: %s"
              % layers.get("unattributed_share", "n/a"))
    if absent:
        print("absent     not on this workload's path, reported as 0: "
              + ", ".join(absent))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
