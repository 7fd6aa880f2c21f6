"""Records the benchmark's reference data from the program as it is now.

    python3 perfbench/record.py outputs   # expected.json
    python3 perfbench/record.py counts    # count_baseline.json

expected.json holds the output of every op of the default seed: the sha256
of each CLI op's --json bytes, and P, Q and the per-weight RQ verdicts of
the library ops.  count_baseline.json holds the traced count metrics of
each workload at the default seed.  Both were recorded when the benchmark
was defined; a change that claims a speed-up does not re-record them.
"""

from __future__ import annotations

import json
import sys

import layers
import run
import workloads


def record_outputs():
    sys.path.insert(0, str(run.ROOT / "src"))
    expected = {}
    for w in workloads.WORKLOADS:
        for op in workloads.build_ops(w, workloads.DEFAULT_SEED):
            expected[op.name] = workloads.summarize(op, workloads.run_op(op))
            print(op.name, expected[op.name], flush=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def record_counts():
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for w in workloads.WORKLOADS:
        raw, _ = run.run_child(w, workloads.DEFAULT_SEED, 1, 1)
        if raw["failures"]:
            raise SystemExit(f"error: {w} failed: {raw['failures']}")
        out["workloads"][w] = layers.count_metrics({k: v[0] for k, v in raw["layers"].items()})
        print(w, "recorded", flush=True)
    (run.HERE / "count_baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    what = sys.argv[1:] or ["outputs", "counts"]
    if "outputs" in what:
        record_outputs()
    if "counts" in what:
        record_counts()
