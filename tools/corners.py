"""A/B recorder: run a parent tree and a working tree on the same commands,
alternately, in fresh processes, and record what each side printed and how
long it took.

    python3 tools/corners.py --parent PARENT_TREE [--list tools/corners.txt]
        [--repeat 5] [--out BENCH.json]
    python3 tools/corners.py --parent PARENT_TREE --perfbench verify
        [--pairs 10] [--seed 0] [--out BENCH.json]

PARENT_TREE is a checkout of the parent commit, made for instance with
`git archive PARENT | tar -x -C DIR`; the working tree is the checkout this
script lives in.  Both sides run with the same interpreter.  A run that has
not exited after TIMEOUT_S seconds is killed.

Command mode.  Each line of the list is one argv of `python -m rsaffine.cli`
(shell quoting; blank lines and lines starting with # are skipped).  Every
command runs --repeat times per side, and the side that runs first
alternates every repeat.  Each run is a fresh process with PYTHONPATH set
to that side's src/, PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1, so
every run compiles src/ from source.  Wall time runs from spawn to exit;
peak RSS is the child's own ru_maxrss, reaped with os.wait4.  Stdout,
stderr and the exit code are compared by sha256 across every run of both
sides.  A row records the median, min and max wall time and peak RSS per
side, the number of repeats in which the working tree was faster, and
whether the outputs were identical.

Perfbench mode runs `python3 perfbench/run.py --workload W --seed S` of
each side in pairs, alternating which runs first, so each run lasts the
`run_seconds` that run.py reads from BENCHMARK.json; it records the median,
the quartiles and the number of pairs in which the working tree was better
for each end-to-end metric of BENCHMARK.json.  A run that exits non-zero
ends the recording: its stderr is passed on, its side, pair and exit code
are recorded as failed_run, the pairs completed before it are still
compared and written to --out, and the recorder exits 1.

The recorder adds no gate: it exits 0 whatever it measured, and prints a
one-line summary per row and the number of commands whose outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TREE = HERE.parent
SIDES = ("parent", "tree")
TIMEOUT_S = 120.0


def read_list(path: Path):
    """The argv lists of a command list file."""
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(shlex.split(line))
    return out


def child_env(root: Path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RSAFFINE")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_once(root: Path, cmd):
    """(wall_s, peak_rss_mb, exit_code, sha256 of stdout, stderr and exit,
    stdout sha256) of one fresh process running cmd in root."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    digest = hashlib.sha256()
    for part in (stdout, b"\0", stderr, b"\0", str(code).encode()):
        digest.update(part)
    return wall, usage.ru_maxrss / 1024, code, digest.hexdigest(), hashlib.sha256(stdout).hexdigest()


def spread(xs, digits):
    return {
        "median": round(statistics.median(xs), digits),
        "min": round(min(xs), digits),
        "max": round(max(xs), digits),
    }


def record_commands(roots, argvs, repeat: int):
    rows = []
    for argv in argvs:
        cmd = [sys.executable, "-m", "rsaffine.cli", *argv]
        runs = {side: [] for side in SIDES}
        for k in range(repeat):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(roots[side], cmd))
        hashes = {run[3] for side in SIDES for run in runs[side]}
        row = {"command": "rsaffine " + shlex.join(argv), "repeats_per_side": repeat}
        for side in SIDES:
            row[side] = {
                "wall_s": spread([run[0] for run in runs[side]], 3),
                "peak_rss_mb": spread([run[1] for run in runs[side]], 2),
                "exit_codes": sorted({run[2] for run in runs[side]}),
            }
        row["identical"] = len(hashes) == 1
        row["stdout_sha256"] = runs["tree"][0][4]
        row["tree_faster_repeats"] = sum(t[0] < p[0] for p, t in zip(runs["parent"], runs["tree"]))
        ratio = row["tree"]["wall_s"]["median"] / max(row["parent"]["wall_s"]["median"], 1e-9)
        row["wall_tree_over_parent"] = round(ratio, 3)
        rows.append(row)
        print(
            f"{'same' if row['identical'] else 'DIFF'}  {row['parent']['wall_s']['median']:.3f} -> "
            f"{row['tree']['wall_s']['median']:.3f} s  {row['command']}",
            flush=True,
        )
    return rows


def record_perfbench(roots, workload: str, pairs: int, seed: int):
    declared = json.loads((roots["tree"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    results = {side: [] for side in SIDES}
    correct = True
    failed = 0
    failed_run = None
    for k in range(pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
            env = child_env(roots[side])
            proc = subprocess.run(cmd, cwd=roots[side], env=env, capture_output=True, text=True)
            if proc.returncode:
                failed_run = {"side": side, "pair": k + 1, "exit_code": proc.returncode}
                sys.stderr.write(proc.stderr)
                print(f"pair {k + 1}/{pairs} of {workload}: the {side} run exited {proc.returncode}", flush=True)
                break
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and doc["correct"]
            failed += doc["failed"]
            results[side].append({name: m["value"] for name, m in doc["metrics"].items()})
        if failed_run:
            break
        print(f"pair {k + 1}/{pairs} of {workload} done", flush=True)
    # only whole pairs are compared
    done = min(len(results[side]) for side in SIDES)
    out = {"pairs": done, "seed": seed, "seconds": declared["run_seconds"]}
    out.update(all_correct=correct, failed_ops=failed, failed_run=failed_run)
    for name, better in metrics.items() if done else ():
        p = [m[name] for m in results["parent"][:done]]
        t = [m[name] for m in results["tree"][:done]]
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(p, t))
        out[name] = {
            "parent_median": round(statistics.median(p), 4),
            "parent_quartiles": [round(x, 4) for x in statistics.quantiles(p, n=4)] if done > 1 else None,
            "tree_median": round(statistics.median(t), 4),
            "tree_quartiles": [round(x, 4) for x in statistics.quantiles(t, n=4)] if done > 1 else None,
            "tree_over_parent": round(statistics.median(t) / statistics.median(p), 3),
            "tree_better_pairs": wins,
            "parent_runs": [round(x, 4) for x in p],
            "tree_runs": [round(x, 4) for x in t],
        }
        print(f"  {name}: {out[name]['parent_median']} -> {out[name]['tree_median']} ({wins}/{done})")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--list", type=Path, default=HERE / "corners.txt", help="command list")
    ap.add_argument("--repeat", type=int, default=5, help="runs per side and command")
    ap.add_argument("--perfbench", metavar="WORKLOAD", help="A/B perfbench runs of one workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, help="write the JSON record here")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "tree": TREE}
    doc = {
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
    }
    code = 0
    if args.perfbench:
        record = record_perfbench(roots, args.perfbench, args.pairs, args.seed)
        doc["perfbench"] = {args.perfbench: record}
        code = 1 if record["failed_run"] else 0
    else:
        rows = record_commands(roots, read_list(args.list), args.repeat)
        doc["list"] = str(args.list.name)
        doc["cli"] = rows
        differ = [r["command"] for r in rows if not r["identical"]]
        print(f"{len(rows)} commands, {len(differ)} with differing output")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
