#!/usr/bin/env python3
"""Service benchmark entry point.

    python3 svcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 svcbench/run.py [--repeat K] [--seed N] [--out FILE]

With --workload: build the benchmark, run that workload once in a child
process under a watchdog, and print as the last line of stdout one JSON
object with the keys correct, attempted, failed and metrics (the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1).

Without --workload: run every workload K times (seeds N, N+1, ...), print
each metric's median and spread per workload, list the (metric,
workload) pairs whose spread exceeds a third of their bound as
unresolved, and write it all to --out. With --trace 1 each workload also
gets K traced runs, and the traced goodput is set against the gated
median as the tracing overhead. The exit code is 0 only if every run
passed its correctness gate inside its watchdog.

Everything the benchmark writes stays under the checkout: the build in
.bench_build, stores, logs and driver traces in .bench_run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
EXE = os.path.join(BUILD_DIR, "default", "svcbench", "mdbs_bench.exe")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    """Keep every tool's scratch files inside the checkout."""
    env = dict(os.environ)
    tmp = os.path.join(ROOT, RUN_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.join(ROOT, RUN_DIR, "cache"),
        DUNE_CACHE="disabled",
    )
    return env


def build():
    for need in ("dune-project", os.path.join("lib", "svc")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("svcbench: %s is missing; run from a full checkout" % need)
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./svcbench/mdbs_bench.exe"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("svcbench: build failed")


# The deadline until the child has printed its warm-up.
STARTUP_S = 60


def watchdog_s(warmup, seconds):
    """Twice the run's length plus a minute."""
    return 2 * (warmup + seconds) + 60


# A run whose resident set passes this is stopped: the machine is shared.
MEMORY_CAP_MB = 2500


class RunFailed(Exception):
    pass


def read_log(log_path):
    """The child's warm-up in seconds (None until it has printed it) and
    the last phase it entered."""
    warmup, phase = None, "start"
    with open(log_path) as f:
        for line in f:
            if line.startswith("warmup_s "):
                warmup = float(line.split()[1])
            elif line.startswith("phase "):
                phase = line.split()[1]
    return warmup, phase


def progress_line(line):
    return line.startswith("phase ") or line.startswith("warmup_s ")


def rss_mb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return 0


def run_child(workload, seed, seconds, trace):
    """One workload run in its own process, under a deadline and a memory
    cap; returns its JSON report."""
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    data_dir = os.path.join(RUN_DIR, tag)
    out_path = os.path.join(ROOT, RUN_DIR, tag + ".out")
    log_path = os.path.join(ROOT, RUN_DIR, tag + ".log")
    os.makedirs(os.path.join(ROOT, RUN_DIR, "traces"), exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds),
           "--trace", "1" if trace else "0", "--data-dir", data_dir]
    if trace:
        cmd += ["--trace-out", os.path.join(RUN_DIR, "traces", workload + ".json")]
    try:
        with open(out_path, "w") as out, open(log_path, "w") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                    stdout=out, stderr=log)
            try:
                start = time.monotonic()
                while proc.poll() is None:
                    warmup, phase = read_log(log_path)
                    limit = STARTUP_S if warmup is None else watchdog_s(warmup, seconds)
                    if time.monotonic() - start > limit:
                        raise RunFailed("%s seed %d: watchdog (%.0f s) hit in phase %s"
                                        % (workload, seed, limit, phase))
                    if rss_mb(proc.pid) > MEMORY_CAP_MB:
                        raise RunFailed("%s seed %d: memory cap (%d MB) hit in phase %s"
                                        % (workload, seed, MEMORY_CAP_MB, phase))
                    time.sleep(0.2)
            finally:
                # On a watchdog, a memory cap or this process being stopped.
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        with open(log_path) as f:
            for line in f:
                if not progress_line(line):
                    sys.stderr.write(line)
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            raise RunFailed("%s seed %d: exited %d with no report (phase %s)"
                            % (workload, seed, proc.returncode,
                               read_log(log_path)[1]))
        report = json.loads(lines[-1])
        if proc.returncode != 0 and report.get("correct", False):
            raise RunFailed("%s seed %d: exited %d" % (workload, seed, proc.returncode))
        return report
    finally:
        shutil.rmtree(os.path.join(ROOT, data_dir), ignore_errors=True)
        for path in (out_path, log_path):
            if os.path.exists(path):
                os.remove(path)


def select(report, metrics):
    """The listed metrics, in BENCHMARK.json's units; a missing, non-finite
    or differently-unitted metric makes the run incorrect."""
    got = report.get("metrics", {})
    out, problems = {}, []
    for m in metrics:
        v = got.get(m["name"])
        if v is None or v.get("value") is None or not math.isfinite(v["value"]):
            problems.append("metric %s missing" % m["name"])
        elif v.get("unit") != m["unit"]:
            problems.append("metric %s in %s, expected %s"
                            % (m["name"], v.get("unit"), m["unit"]))
        else:
            out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out, problems


def result_line(report, metrics):
    selected, problems = select(report, metrics)
    for p in problems:
        sys.stderr.write(p + "\n")
    return {
        "correct": bool(report.get("correct")) and not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": selected,
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def print_metrics(report, line, label, trace):
    kind = "per-layer" if trace else "end-to-end"
    print("%s (%s): correct=%s attempted=%d failed=%d"
          % (label, kind, line["correct"], line["attempted"], line["failed"]))
    for name, v in line["metrics"].items():
        print("  %-36s %14.6g %s" % (name, v["value"], v["unit"]))
    tail = report.get("tail")
    if tail:
        print("  tail (ungated): p%g = %.6g ms over %d committed"
              % (tail["p"], tail["ms"], report["samples"]))


def single(args, spec):
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        report = run_child(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as e:
        sys.exit("svcbench: " + str(e))
    line = result_line(report, metrics)
    print_metrics(report, line, args.workload, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# Absolute floors from the metric definitions: a difference under its
# floor is noise, not a regression. BENCHMARK.json has no field for one, so
# only this summary applies it.
FLOORS = {"setup_s": 0.05}


def run_set(name, args, trace, metrics, errors):
    """args.repeat runs of one workload; returns their result lines."""
    lines = []
    for k in range(args.repeat):
        seed = args.seed + k
        try:
            report = run_child(name, seed, args.seconds, trace)
        except RunFailed as e:
            errors.append(str(e))
            sys.stderr.write("svcbench: %s\n" % e)
            continue
        line = result_line(report, metrics)
        line["seed"] = seed
        lines.append(line)
        print_metrics(report, line, "%s seed %d" % (name, seed), trace)
        sys.stdout.flush()
    return lines


def summarize(runs, metrics):
    """Quartiles and spread per (workload, metric), printed and returned."""
    summary = {}
    print("\n%-12s %-36s %12s %12s %12s %8s %4s"
          % ("workload", "metric", "q1", "median", "q3", "spread", "n"))
    for name, lines in runs.items():
        summary[name] = {}
        for m in metrics:
            vals = [l["metrics"][m["name"]]["value"] for l in lines
                    if m["name"] in l["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            summary[name][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": s,
                "n": len(vals), "unit": m["unit"]}
            print("%-12s %-36s %12.6g %12.6g %12.6g %7.1f%% %4d"
                  % (name, m["name"] + " (" + m["unit"] + ")", q1, med, q3,
                     100 * s, len(vals)))
    return summary


def unresolved_pairs(summary, metrics):
    """Gated pairs whose spread passes a third of their bound: the
    steadiness a gate with that bound needs to tell a change from noise."""
    out = []
    for name, cells in summary.items():
        for m in metrics:
            c = cells.get(m["name"])
            if c is None or c["spread"] <= m["bound"] / 3:
                continue
            u = {"workload": name, "metric": m["name"], "spread": c["spread"],
                 "bound": m["bound"], "iqr": c["q3"] - c["q1"], "unit": m["unit"]}
            if m["name"] in FLOORS:
                u["floor"] = FLOORS[m["name"]]
            out.append(u)
    for u in out:
        note = "over its bound" if u["spread"] > u["bound"] else "over a third of its bound"
        if "floor" in u:
            note += "; IQR %.3g %s %s its %g %s floor" % (
                u["iqr"], u["unit"], "inside" if u["iqr"] <= u["floor"] else "over",
                u["floor"], u["unit"])
        print("unresolved: %s %s spread %.1f%% (bound %.0f%%): %s"
              % (u["workload"], u["metric"], 100 * u["spread"], 100 * u["bound"], note))
    return out


def repeated(args, spec):
    errors = []
    gated = {w["name"]: run_set(w["name"], args, 0, spec["end_to_end"], errors)
             for w in spec["workloads"]}
    traced = {}
    if args.trace:
        traced = {w["name"]: run_set(w["name"], args, 1, spec["per_layer"], errors)
                  for w in spec["workloads"]}
    ok = not errors and all(l["correct"] for lines in list(gated.values())
                            + list(traced.values()) for l in lines)
    summary = summarize(gated, spec["end_to_end"])
    result = {"seconds": args.seconds, "repeat": args.repeat, "correct": ok,
              "errors": errors, "workloads": summary,
              "unresolved": unresolved_pairs(summary, spec["end_to_end"]),
              "runs": gated}
    if args.trace:
        tsummary = summarize(traced, spec["per_layer"])
        overhead = {}
        for name in traced:
            g = summary[name].get("goodput_txn_s")
            t = tsummary[name].get("traced.goodput_txn_s")
            if g and t and g["median"]:
                overhead[name] = 100 * (g["median"] - t["median"]) / g["median"]
                print("%-12s traced.goodput_overhead_pct %.2f%%" % (name, overhead[name]))
        result.update(traced=tsummary, traced_runs=traced,
                      goodput_overhead_pct=overhead)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    print(json.dumps({"correct": ok, "unresolved": len(result["unresolved"])}))
    return 0 if ok else 1


def main():
    # Stopping the benchmark stops the run in progress too (run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("svcbench: terminated"))
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args()
    t0 = time.monotonic()
    build()
    sys.stderr.write("svcbench: build ready in %.1f s\n" % (time.monotonic() - t0))
    return single(args, spec) if args.workload else repeated(args, spec)


if __name__ == "__main__":
    sys.exit(main())
