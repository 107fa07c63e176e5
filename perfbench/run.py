#!/usr/bin/env python3
"""End-to-end benchmark of the tka top-k system.

Run from the root of a tka source tree:

    python3 perfbench/run.py --workload topk-elim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The script builds perfbench/tkabench.exe and perfbench/calib.exe with
dune, generates the workload's circuits from --seed, then runs the
workload once per fresh process at jobs=1 for --seconds seconds, with a
host-speed calibration between runs that scales the end-to-end times.
It prints each metric with its unit and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 the per-layer ones, from traced runs interleaved
with untraced ones. See perfbench/README.md.
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

EXE = os.path.join("_build", "default", "perfbench", "tkabench.exe")
CALIB = os.path.join("_build", "default", "perfbench", "calib.exe")
OUT_DIR = ".perfbench_out"

# Circuits per run. A run measures a fixed panel of this many generated
# circuits, one fresh process each in turn, so its figures average over
# circuits instead of riding on one; a pass over the panel takes about
# 15 s at jobs=1. A traced run uses the first half of the panel.
WORKLOADS = {
    "topk-elim": 7,
    "topk-add": 11,
    "enum": 10,
    "repair": 12,
}

# Fresh processes that only time the set-up, run next to each untraced
# run, so that set-up samples spread over the whole run as the host's
# speed moves.
SETUPS_PER_RUN = 3

# A shared host's speed can move by 40 % for minutes at a time, longer
# than a run lasts. So calib.exe, a fixed piece of work that shares no
# code with tka, runs in its own process between untraced samples, and
# each sample's wall and set-up times are scaled by CALIB_REF_S over the
# mean of the calibration times just before and just after it. The
# end-to-end times are thus seconds on a host where calib.exe takes
# CALIB_REF_S, as a 2-vCPU Xeon VM does at its faster times.
CALIB_REF_S = 0.22

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("circuit.parse_s", "s"),
    ("circuit.topo_s", "s"),
    ("sta.s", "s"),
    ("fixpoint.s", "s"),
    ("fixpoint.passes", "count"),
    ("engine.s", "s"),
    ("engine.candidate_sets", "count"),
    ("engine.dominance_checks", "count"),
    ("engine.prune_ratio", "ratio"),
    ("engine.alloc_mb", "MiB"),
    ("rerank.s", "s"),
    ("rerank.evaluations", "count"),
    ("rerank.passes", "count"),
    ("rerank.s_per_eval", "s"),
    ("rerank.rss_growth_mb", "MiB"),
    ("repair.s", "s"),
    ("repair.iterations", "count"),
    ("repair.trials", "count"),
    ("repair.accept_ratio", "ratio"),
    ("repair.cache_hit_rate", "ratio"),
    ("repair.dirty_nets", "count"),
    ("quality.noise_coverage", "ratio"),
    ("quality.estimate_gap_ns", "ns"),
    ("quality.delay_recovered_ps", "ps"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "ratio"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run me from the root of a tka source tree (no dune-project or lib/ here)")
    # The shared dune cache lives outside the tree; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/tkabench.exe", "./perfbench/calib.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def child(args):
    """Run tkabench once; return its JSON result (None if it failed)."""
    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate():
    """Wall time of one calib.exe run, in seconds."""
    proc = subprocess.run([CALIB], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("calibration failed")
    return float(proc.stdout.split()[0])


def median_per_circuit(runs_by_circuit, get):
    """Mean over circuits of each circuit's median."""
    meds = [statistics.median(get(r) for r in runs) for runs in runs_by_circuit if runs]
    return statistics.mean(meds) if meds else 0.0


def measure(workload, seed, seconds, trace, circuits=None, circuit=None):
    """One benchmark run. Returns (result dict, report lines)."""
    panel = circuits or WORKLOADS[workload]
    n = max(1, panel // 2) if trace else panel
    work = os.path.join(OUT_DIR, f"{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    paths = []
    for j in range(n):
        path = os.path.join(work, f"c{j}.tka")
        gen = ["gen", "--workload", workload, "--seed", str(seed * panel + j), "--out", path]
        if circuit:
            gen += ["--circuit", circuit]
        if subprocess.run([EXE] + gen).returncode != 0:
            fail(f"could not generate circuit {j}")
        paths.append(path)

    untraced = [[] for _ in paths]
    traced = [[] for _ in paths]
    setups = [[] for _ in paths]
    attempted = failed = 0
    checking = 0.0
    messages = []
    calibs = [] if trace else [calibrate()]

    def sample(j, tracing=False, full=False):
        nonlocal attempted, failed, checking
        args = ["run", "--workload", workload, "--netlist", paths[j]]
        if full:
            args.append("--check")
        if tracing:
            args += ["--trace-out", os.path.join(work, f"c{j}.spans.{len(traced[j])}.json")]
        r = child(args)
        attempted += 1
        if r is None:
            failed += 1
            messages.append(f"circuit {j}: run failed")
            return
        attempted += r["checks_attempted"]
        failed += len(r["failures"])
        checking += r["check_s"]
        messages.extend(f"circuit {j}: {m}" for m in r["failures"])
        (traced if tracing else untraced)[j].append(r)
        if not trace:
            own = [r["setup_s"]]
            for _ in range(SETUPS_PER_RUN):
                s = child(["setup", "--workload", workload, "--netlist", paths[j]])
                if s is None:
                    fail("set-up failed")
                own.append(s["setup_s"])
            calibs.append(calibrate())
            scale = CALIB_REF_S / ((calibs[-2] + calibs[-1]) / 2)
            r["scaled_wall_s"] = r["wall_s"] * scale
            setups[j].extend((s, s * scale) for s in own)

    # Passes over the panel until the time is up, at least one; the
    # time spent checking answers after the timed part of a run does
    # not count. The first run of each circuit also re-evaluates its
    # answers from scratch. With --trace 1 each untraced run is
    # followed by a traced run of the same circuit.
    start = time.monotonic()

    def measured():
        return time.monotonic() - start - checking

    p = 0
    while p == 0 or measured() < seconds:
        for j in range(n):
            if p > 0 and measured() >= seconds:
                break
            sample(j, full=(p == 0))
            if trace:
                sample(j, tracing=True)
        p += 1
    elapsed = time.monotonic() - start

    # The answer must not change from run to run of one circuit.
    for j in range(n):
        runs = untraced[j] + traced[j]
        attempted += 1
        if len({(r["digest"], json.dumps(r["quality"])) for r in runs}) != 1:
            failed += 1
            messages.append(f"circuit {j}: answers differ between runs")

    # Runs of one commit on one seed must print the same answers digest.
    answers = hashlib.md5(" ".join(runs[0]["digest"] for runs in untraced if runs).encode())
    count = sum(len(r) for r in untraced)
    lines = [f"workload {workload}: seed {seed}, {n} circuits, jobs=1, {count} untraced"
             f" + {sum(len(r) for r in traced)} traced runs in {elapsed:.1f} s"
             f" ({checking:.1f} s of it checking answers), {sum(map(len, setups))} set-ups,"
             f" {len(calibs)} calibrations,"
             f" answers digest {answers.hexdigest()}"]
    if trace:
        def layer(r, name):
            return r["layers"].get(name, r["quality"].get(name, 0.0))
        metrics = {name: median_per_circuit(traced, lambda r, k=name: layer(r, k))
                   for name, _ in PER_LAYER}
        metrics["trace.overhead_s"] = (median_per_circuit(traced, lambda r: r["wall_s"])
                                       - median_per_circuit(untraced, lambda r: r["wall_s"]))
        metrics["trace.span_coverage"] = min((r["layers"]["trace.span_coverage"]
                                              for runs in traced for r in runs), default=0.0)
        units = PER_LAYER
        selfs = {}
        for r in (r for runs in traced for r in runs):
            for k, v in r["self_s"].items():
                selfs.setdefault(k, []).append(v)
        lines.append("self time per span, median over traced runs: " + ", ".join(
            f"{k} {statistics.median(v):.4f} s" for k, v in sorted(selfs.items())))
    else:
        metrics = {
            "wall_s": median_per_circuit(untraced, lambda r: r["scaled_wall_s"]),
            "setup_s": median_per_circuit(setups, lambda s: s[1]),
            "peak_rss_mb": median_per_circuit(untraced, lambda r: r["peak_rss_mb"]),
        }
        units = END_TO_END
        lines.append(f"calibration: median {statistics.median(calibs):.4f} s"
                     f" (range {min(calibs):.4f}-{max(calibs):.4f}, reference {CALIB_REF_S} s);"
                     f" unscaled wall_s {median_per_circuit(untraced, lambda r: r['wall_s']):.6g} s,"
                     f" setup_s {median_per_circuit(setups, lambda s: s[0]):.6g} s")
        lines.append("scaled wall_s median per circuit: " + " ".join(
            f"{statistics.median(r['scaled_wall_s'] for r in runs):.3f}" for runs in untraced))
    for name, unit in units:
        lines.append(f"{name} = {metrics[name]:.6g} {unit}")
    lines.append(f"checks: {attempted - failed} of {attempted} passed,"
                 f" error_rate {failed / attempted:.4g}")
    lines.extend(f"FAILED {m}" for m in messages)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    return result, lines


def selftest():
    """Fast harness check on i1: metric names match BENCHMARK.json, a
    clean answer passes every check and a corrupted one fails some."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {(m["name"], m["unit"]) for m in bench["end_to_end"]},
        1: {(m["name"], m["unit"]) for m in bench["per_layer"]},
    }
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = measure(workload, 0, 0, trace, circuits=1, circuit="i1")
            printed = {(k, v["unit"]) for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{workload} --trace {trace}: prints {sorted(printed ^ declared[trace])}")
            if not result["correct"]:
                problems.append(f"{workload} --trace {trace}: a clean run failed its checks")
        path = os.path.join(OUT_DIR, f"{workload}-0", "c0.tka")
        r = child(["run", "--workload", workload, "--netlist", path, "--check", "--corrupt"])
        if r is None or not r["failures"]:
            problems.append(f"{workload}: the checks missed a corrupted answer")
        print(f"selftest {workload}: done", flush=True)
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build()
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        fail("--workload is required")
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
