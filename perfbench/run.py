#!/usr/bin/env python3
"""Build and run the camera-system benchmark (see perfbench/README.md).

One workload, one seed:

    python3 perfbench/run.py --workload fa_doorway --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a summary table:

    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside an incam checkout. The first call configures
and builds perfbench/ (which builds the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each
workload then runs in its own process, so an abort takes down only that
workload and each reports its own peak memory. The last line of a
single-workload run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The full report
(checks, manifest, host calibration, every metric) is written to
<build dir>/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["fa_doorway", "vr_rig", "fleet_count", "fleet_paced"]

# The ten end-to-end figures of the one-command summary, and the
# workloads each applies to. BENCHMARK.json's end_to_end list holds the
# ones every workload reports; the rest ride in its per-layer list.
SUMMARY = [
    ("setup_s", None),
    ("frames_per_s", None),
    ("frame_ms_p50", None),
    ("frame_ms_p99", None),
    ("events_per_s", {"fleet_count", "fleet_paced"}),
    ("peak_rss_mb", None),
    ("visit_recall", {"fa_doorway"}),
    ("false_visit_rate", {"fa_doorway"}),
    ("depth_mae_px", {"vr_rig"}),
    ("failed_frac", None),
]

# A workload process must end within this many seconds once built.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build the workload runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no incam sources next to perfbench/ (need ../CMakeLists.txt "
             "and ../src)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_workload",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path), 3)
    return os.path.join(out, "perfbench_workload")


def source_digest():
    """sha256 over the library sources, build file and benchmark, so a
    result names the code that produced it even without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """One workload in its own process. Returns the runner's report; an
    aborted process yields correct=false with every operation failed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        stdout, stderr, rc = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        stderr, rc = "timed out after %d s" % RUN_TIMEOUT_S, None
    wall = time.monotonic() - t0

    report, plan = None, {}
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            report = json.loads(line[len("RESULT "):])
        elif line.startswith("PLAN "):
            plan = json.loads(line[len("PLAN "):])
    if report is None or rc != 0:
        attempted = max(1, int(plan.get("attempted", 1)))
        report = {
            "workload": workload, "seed": seed, "trace": trace,
            "correct": False, "attempted": attempted, "failed": attempted,
            "end_to_end": {}, "per_layer": {"failed_frac": {"value": 1.0,
                                                            "unit": "ratio"}},
            "checks": {"process_exited_cleanly": False},
            "manifest": {},
            "abort": {"exit": rc, "stderr_tail": stderr.strip().splitlines()[-4:]},
        }
    report["manifest"].update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "process_wall_s": wall,
        "command": cmd,
    })
    return report


def result_line(report, spec, trace):
    """The machine-readable last line: exactly the declared metrics."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = report["per_layer"] if trace else report["end_to_end"]
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if report["correct"]:
                fail("workload did not report declared metric " + m["name"], 4)
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]), 4)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def save(report):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%s-trace%d.json" %
                        (report["workload"], report["seed"], report["trace"]))
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return path


def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


def describe(report, path):
    """Human-readable lines for one workload process."""
    w, man = report["workload"], report["manifest"]
    print("== %s  seed %s  trace %d  -> %s" %
          (w, report["seed"], report["trace"], path))
    print("   host: nproc %s, 1-vs-%s-thread trivial-loop speedup %s, timer "
          "resolution %s ns; %s %s (%s); commit %s; sources %s" %
          (man.get("host.nproc", "?"), man.get("host.parallel_threads", "?"),
           fmt(float(man.get("host.parallel_speedup", "nan"))),
           fmt(float(man.get("host.timer_resolution_ns", "nan"))),
           man.get("compiler", "?"), man.get("cxx_flags", "").strip(),
           man.get("build_type", "?"), man.get("commit"),
           man.get("source_sha256", "")[:16]))
    if "abort" in report:
        print("   ABORTED (exit %s): %s" % (report["abort"]["exit"],
                                             " | ".join(report["abort"]["stderr_tail"])))
    checks = report["checks"]
    print("   checks: " + ", ".join("%s=%s" % (k, "ok" if v else "FAIL")
                                    for k, v in checks.items()))
    print("   attempted %d, failed %d, correct %s" %
          (report["attempted"], report["failed"], report["correct"]))
    for k, v in sorted(man.items()):
        if k.split(".")[0] in ("fa", "vr", "fleet"):
            print("   %s: %s" % (k, v))
    section = report["per_layer"] if report["trace"] else report["end_to_end"]
    for name, m in section.items():
        print("   %-26s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    if report["trace"] and "trace.fps_traced" in section:
        u = section["trace.fps_untraced"]["value"]
        t = section["trace.fps_traced"]["value"]
        if u:
            print("   tracing overhead: traced %s frames/s against untraced %s "
                  "frames/s (base) = ratio %s" % (fmt(t), fmt(u), fmt(t / u)))


def summary(results):
    """The ten end-to-end figures of every workload, one table."""
    names = [n for n, _ in SUMMARY]
    print("\n== summary (end-to-end from untraced runs; quality, events/s "
          "and failed_frac from the traced run's report)")
    print("%-12s " % "workload" + " ".join("%16s" % n for n in names))
    for w, (r0, r1) in results.items():
        row = []
        for n, only in SUMMARY:
            if only is not None and w not in only:
                row.append("n/a")
                continue
            m = r0["end_to_end"].get(n) or r1["per_layer"].get(n)
            if n == "failed_frac":
                m = {"value": r0["failed"] / max(1, r0["attempted"]), "unit": "ratio"}
            row.append("-" if m is None else "%s %s" % (fmt(m["value"]), m["unit"]))
        print("%-12s " % w + " ".join("%16s" % c for c in row))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS + ["all"]:
        fail("unknown workload %r" % args.workload)

    spec = load_spec()
    binary = build()
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    if args.workload != "all":
        report = run_workload(binary, args.workload, args.seed, seconds,
                              args.trace)
        describe(report, save(report))
        print(json.dumps(result_line(report, spec, args.trace)))
        sys.exit(0 if report["correct"] else 1)

    results = {}
    for w in WORKLOADS:
        pair = []
        for trace in (0, 1):
            report = run_workload(binary, w, args.seed, seconds, trace)
            describe(report, save(report))
            pair.append(report)
        results[w] = pair
    summary(results)
    ok = all(r["correct"] for pair in results.values() for r in pair)
    print(json.dumps({w: {"correct": p[0]["correct"] and p[1]["correct"],
                          "attempted": p[0]["attempted"],
                          "failed": p[0]["failed"]}
                      for w, p in results.items()}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
