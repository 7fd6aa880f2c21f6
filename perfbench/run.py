"""rsaffine benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload verify --seed 0 --trace 0
    python3 perfbench/run.py                      # all four workloads

--seconds defaults to run_seconds in BENCHMARK.json.

Run it from the root of a checkout: the program is imported from src/.
Each workload runs in its own child process (child.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the metrics are the end_to_end metrics of BENCHMARK.json with
--trace 0 and its per_layer metrics with --trace 1.  Earlier lines print
every metric by name and unit, the environment, and (traced) the count
diff against count_baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads
from calibration import REFERENCE_LOOP_S, calibration_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 11
SETUP_PROBE = "import rsaffine, rsaffine.cli; print('ready', flush=True)"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # fixed dict/set layout for every run
    return env


def run_child(workload, seed, seconds, trace, spans_out=None):
    """The child's raw results, and its peak RSS in KiB (its own rusage,
    reaped with wait4, so no other child of this process counts)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise SystemExit(f"error: workload {workload} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: workload {workload} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss


def setup_times():
    """Seconds from spawning a fresh interpreter until it has imported
    rsaffine and the CLI, and the calibration loop timed between probes.
    The first probe only warms the bytecode cache."""
    times, loops = [], []
    for k in range(SETUP_PROBES + 1):
        loops += [calibration_loop() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise SystemExit("error: rsaffine does not import")
        if k:
            times.append(t1 - t0)
    return times, loops


def end_to_end(raw, peak_kb, setup):
    """name -> (value, unit).  The *_rel metrics divide a time by the mean
    time of the calibration loop sampled while that time was measured.

    setup_s is the median probe time rescaled to the reference machine
    speed (REFERENCE_LOOP_S over the mean loop time between the probes):
    raw import times of one commit drifted by 50% between sets of runs on a
    shared VM.  setup_wall_s is the raw median.
    """
    passes = raw["passes"]
    med = statistics.median
    times, loops = setup
    return {
        "setup_s": (med(times) * REFERENCE_LOOP_S / statistics.mean(loops), "s"),
        "setup_wall_s": (med(times), "s"),
        "pass_s": (med(p["pass_s"] for p in passes), "s"),
        "pass_rel": (med(p["pass_s"] / p["calibration_s"] for p in passes), "ratio"),
        "largest_op_s": (med(p["largest_op_s"] for p in passes), "s"),
        "largest_op_rel": (med(p["largest_op_s"] / p["largest_op_cal_s"] for p in passes), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "fail_ratio": (len(raw["failures"]) / raw["attempted"], "ratio"),
    }


def count_diff(workload, seed, values):
    """Lines comparing this run's counts with count_baseline.json."""
    base_all = json.loads((HERE / "count_baseline.json").read_text())
    base = base_all["workloads"].get(workload, {})
    now = layers.count_metrics({k: v[0] for k, v in values.items()})
    note = "" if seed == base_all["seed"] else f" (baseline seed {base_all['seed']}, this seed {seed})"
    lines = [f"count diff vs count_baseline.json{note}:"]
    changed = 0
    for k in sorted(set(base) | set(now)):
        b, n = base.get(k), now.get(k)
        if b != n:
            changed += 1
            delta = f"{(n - b) / b:+.1%}" if b and n is not None else "n/a"
            lines.append(f"  {k}: {b} -> {n} ({delta})")
    lines.append(f"  {changed} of {len(set(base) | set(now))} counts differ")
    return lines


def run_workload(workload, seed, seconds, trace, declared, loadavg):
    spans_out = None
    if trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"spans-{workload}.tsv.gz"
    raw, peak_kb = run_child(workload, seed, seconds, trace, spans_out)
    print(f"workload {workload} seed {seed}: {workloads.WHY[workload]}")
    if workload == "series":
        print(f"  note: {workloads.SERIES_NOTE}")
    if workload == "pinned":
        print(f"  pins C, C1, C2 = {', '.join(workloads.draw_pins(seed))}")
    cals = [[p["calibration_s"], p["calibration_samples"]] for p in raw["passes"]]
    env = {
        "python": raw["python"],
        "kernel_backend": raw["kernel_backend"],
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "calibration_s_and_samples": cals,
        "passes": len(raw["passes"]),
    }
    print("  env " + json.dumps(env))
    for f in raw["failures"]:
        print(f"  FAILED {f}")
    if trace:
        values = {k: tuple(v) for k, v in raw["layers"].items()}
        untraced = raw["passes"][0]["pass_s"]
        values["trace.overhead"] = (raw["traced_pass_s"] / untraced, "ratio")
        print(f"  traced pass {raw['traced_pass_s']:.4f} s, untraced pass {untraced:.4f} s, "
              f"{raw['spans']} spans")
        for site in raw["missing_sites"]:
            print(f"  patch site not found: {site}")
    else:
        values = end_to_end(raw, peak_kb, setup_times())
    for k in sorted(values):
        v, unit = values[k]
        print(f"  {k} = {v} {unit}")
    if trace:
        for line in count_diff(workload, seed, values):
            print("  " + line)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: declared metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared}
    failed = len(raw["failures"])
    return {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def _loadavg():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, help="seconds measured per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    loadavg = _loadavg()

    if not (ROOT / "src" / "rsaffine" / "__init__.py").is_file():
        print(f"error: no rsaffine sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, seconds, args.trace, declared, loadavg)))
        return 0
    results = {w: run_workload(w, args.seed, seconds, args.trace, declared, loadavg)
               for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
