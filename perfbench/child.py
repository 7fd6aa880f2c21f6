"""Runs one workload in this process and prints its raw results as one JSON
line.  Started by run.py with PYTHONPATH pointing at the checkout's src/.

Untraced (--trace 0): passes until --seconds have been measured (at least
one), each sampling the calibration loop as it runs.  Traced (--trace 1):
one such pass, then one pass with every layer patched and no sampling; the
spans of the traced pass give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from calibration import SpeedSampler, calibration_loop
from tracer import ImportProfile, Tracer

HERE = Path(__file__).resolve().parent
# Stop taking passes once the next one would end past this, so that a run
# stays well inside its 180 s limit on a slow machine.
MEASURE_CAP_S = 120.0


def run_pass(ops, checker, failures, sampler=None):
    """Run every op once; pass_s sums the op times, checks excluded.

    With a sampler, largest_op_cal_s is the mean calibration sample taken
    while the largest op ran.  Means, not medians: a pass's time sums over
    fast and slow stretches of the machine in proportion to their length,
    and so does the mean of samples taken at a fixed rate.
    """
    op_s = {}
    largest = largest_cal = None
    for op in ops:
        stolen = sampler.stolen if sampler else 0.0
        first = len(sampler.samples) if sampler else 0
        t = time.perf_counter()
        try:
            out = workloads.run_op(op)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = time.perf_counter() - t - ((sampler.stolen if sampler else 0.0) - stolen)
        if op.largest:
            largest = op_s[op.name]
            during = sampler.samples[first:] if sampler else []
            largest_cal = sum(during) / len(during) if during else None
        if error is None:
            error = checker.check(op, out)
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return {"pass_s": sum(op_s.values()), "largest_op_s": largest,
            "largest_op_cal_s": largest_cal, "op_s": op_s}


def sampled_pass(ops, checker, failures):
    with SpeedSampler() as sampler:
        p = run_pass(ops, checker, failures, sampler)
    # A pass shorter than the timer gets one sample taken after it.
    samples = sampler.samples or [calibration_loop()]
    p["calibration_s"] = sum(samples) / len(samples)
    p["calibration_samples"] = len(samples)
    if p["largest_op_cal_s"] is None:
        p["largest_op_cal_s"] = p["calibration_s"]
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", help="file to write the traced pass's spans to")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with ImportProfile(tracer, layers.IMPORT_TARGETS):
            import rsaffine
            import rsaffine.cli  # noqa: F401
    else:
        import rsaffine
        import rsaffine.cli  # noqa: F401

    ops = workloads.build_ops(args.workload, args.seed)
    expected = json.loads((HERE / "expected.json").read_text())
    checker = workloads.Checker(expected)
    failures = []
    attempted = 0

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(sampled_pass(ops, checker, failures))
        attempted += len(ops)
        elapsed = time.perf_counter() - begin
        if args.trace or elapsed >= args.seconds:
            break
        if elapsed + elapsed / len(passes) > MEASURE_CAP_S:
            break

    result = {
        "python": platform.python_version(),
        "kernel_backend": rsaffine.kernel_backend() if hasattr(rsaffine, "kernel_backend") else "n/a",
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
    }

    if tracer is not None:
        layers.install(tracer)
        try:
            traced = run_pass(ops, checker, failures)
        finally:
            tracer.unpatch()
        attempted += len(ops)
        result["attempted"] = attempted
        result["traced_pass_s"] = traced["pass_s"]
        result["layers"] = {k: list(v) for k, v in layers.metrics(tracer).items()}
        result["spans"] = len(tracer.span_start)
        result["missing_sites"] = tracer.missing
        if args.spans_out:
            tracer.dump(args.spans_out)

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
