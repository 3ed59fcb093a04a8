"""Checks on the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all three by default) this runs, with the speed sampler of
run.py, one untraced and two traced operations, the traced ones under different PYTHONHASHSEED values,
and checks that

* every per-layer count (units ``count`` and ``bytes``) is the same in both
  traced operations, and
* the top-level spans of a traced operation (ladder steps, encode and dump,
  or the verify suites) cover its ``op_s``: the time outside them is at most
  the measured tracing overhead (traced minus untraced ``op_s``, taken as an
  absolute value, and never less than 1% of ``op_s``).

It also checks that BENCHMARK.json names exactly the metrics run.py reports.
Takes about a minute and a half per workload; exits 1 if a check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import spans

HASH_SEEDS = ("1", "271828")


def check_names() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, want in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        got = {m["name"]: m["unit"] for m in bench[key]}
        if got != want:
            errors.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py's")
    return errors


def check_workload(workload: str) -> list[str]:
    work = run.WORK / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"), PYTHONHASHSEED=HASH_SEEDS[0])
    deadline = time.perf_counter() + 3600
    children, _ = run.prepare(workload, 0, work, env)
    speed = run.Speed(work)
    try:
        untraced = run.run_op(children, False, "untraced", work, env, deadline)
        ops = []
        for hash_seed in HASH_SEEDS:
            env["PYTHONHASHSEED"] = hash_seed
            ops.append(run.run_op(children, True, f"hash{hash_seed}", work, env, deadline))
    finally:
        speed.stop()
    for op in (untraced, *ops):
        if op["error"] is not None:
            return [f"{workload}: {op['error']}"]
        speed.at_reference(op)
    traced = [run.layer_metrics(op) for op in ops]

    errors = []
    first, second = traced
    for name in spans.COUNTS:
        if first[name] != second[name]:
            errors.append(f"{workload}: {name} is {first[name]} then {second[name]}")
    overhead = first["trace.op_s"] - untraced["op_s"]
    allowed = max(abs(overhead), 0.01 * first["trace.op_s"])
    uncovered = first["trace.uncovered_s"]
    print(f"{workload}: untraced op_s {untraced['op_s']:.3f} s, traced {first['trace.op_s']:.3f} s, "
          f"outside top-level spans {uncovered:.4f} s, allowed {allowed:.4f} s")
    if not 0 <= uncovered <= allowed:
        errors.append(f"{workload}: top-level spans leave {uncovered:.4f} s of op_s uncovered")
    return errors


def main(argv: list[str]) -> int:
    run.pin_to_one_cpu()
    errors = check_names()
    for workload in argv or run.WORKLOADS:
        errors += check_workload(workload)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
