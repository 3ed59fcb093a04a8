"""The globop benchmark: cold-process build and verify operations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one ``globop
build-initial`` or one ``globop verify`` pass, run through the CLI entry
point in fresh interpreters started one after another, so every cache in the
program starts empty, as it does for a CLI user.  Operations repeat until the
next one would end past ``--seconds`` (at least one always runs).  Outputs are
checked after each process exits, outside the timed region.

The host of a virtual machine changes its speed from minute to minute, so
every process of a run, parent included, is pinned to one CPU together with
``sampler.py``, which times a fixed piece of work every 25 ms.  Times are
reported at the reference speed: the sampler's own slices are taken out of
an interval, and the rest is scaled by how much slower than REF_UNIT_S the
sampler's unit ran during that interval.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` the run first times one untraced
operation and then traced ones, and reports the per-layer metrics.  Every
run also writes ``perfbench/_work/results/<workload>-seed<N>-trace<T>.json``
with the seed, the input sha256, every sample and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# set-up-only processes per run, after one discarded warm-up process
SETUP_SAMPLES = 7
# a run never lasts longer than this, whatever --seconds says
DEADLINE_S = 170.0
# time of the sampler's unit at the reference speed
REF_UNIT_S = 0.0015

# sha256 and cells per dimension of build-initial's output, recorded at the
# commit that introduced the benchmark
BUILDS = {
    "initial-wide": {
        "bounds": (2, 5, 2),
        "sha256": "b83c71a0deb9181f96161ad98a9d3c618be96104b954d2ca09a042b3a5310ad8",
        "cells": [1, 11, 366],
    },
    "initial-deep": {
        "bounds": (3, 9, 1),
        "sha256": "d414821b2d041477e565db6cbbaf9b19e9f34682206a81bfadb90d582b61255f",
        "cells": [1, 6, 34, 109],
    },
}
# verify-laws: (CLI arguments, exit code, verdict per suite)
VERIFY = [
    (["--suite", "monoid-laws"], 0, {"monoid-laws": True}),
    (["--suite", "operad-laws", "--input", "{state}"], 0, {"operad-laws": True}),
    (["--suite", "stability-contraction", "--suite", "contraction-laws",
      "--input", "{corrupt}"], 1,
     {"stability-contraction": False, "contraction-laws": False}),
]
WORKLOADS = (*BUILDS, "verify-laws")

END_TO_END = {"op_s": "s", "op_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Child:
    """One globop process: its command line and the check on its output."""

    def __init__(self, argv: list[str], check, rc: int = 0):
        self.argv = argv
        self.check = check  # () -> error message or None
        self.rc = rc


class Speed:
    """The sampler process, and the scale it gives an interval of the run."""

    def __init__(self, work: Path):
        self.path = work / "speed.json"
        self.samples: list = []
        self.proc = subprocess.Popen([sys.executable, str(HERE / "sampler.py"), str(self.path)])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            self.proc.wait()
            self.samples = json.loads(self.path.read_text())

    def scale(self, a: float, b: float) -> float:
        """Seconds at the reference speed per wall second of [a, b]."""
        inside = [dt for t, dt in self.samples if a <= t < b]
        if not inside:  # shorter than the sampling period
            return REF_UNIT_S / statistics.mean(dt for _, dt in self.samples)
        return (1 - sum(inside) / (b - a)) * REF_UNIT_S / statistics.mean(inside)

    def at_reference(self, op: dict) -> None:
        """Set ``op_s`` and ``scale`` of an operation from its intervals."""
        op["op_s"] = sum((b - a) * self.scale(a, b) for a, b in op["intervals"])
        wall = sum(b - a for a, b in op["intervals"])
        op["wall_s"] = wall
        op["scale"] = op["op_s"] / wall if wall else 1.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _build_check(workload: str, out: Path):
    ref = BUILDS[workload]

    def check():
        if _sha256(out) != ref["sha256"]:
            return "output sha256 differs from the reference"
        cells = [len(layer) for layer in json.loads(out.read_text())["cells"]]
        if cells != ref["cells"]:
            return f"cells per dimension {cells}, expected {ref['cells']}"
        return None

    return check


def _verify_check(out: Path, verdicts: dict):
    def check():
        got = {r["suite"]: r["pass"] for r in json.loads(out.read_text())}
        if got != verdicts:
            return f"suite verdicts {got}, expected {verdicts}"
        return None

    return check


def prepare(workload: str, seed: int, work: Path, env: dict) -> tuple[list[Child], str]:
    """The processes of one operation and the sha256 of the inputs."""
    if workload in BUILDS:
        dim, arity, term = BUILDS[workload]["bounds"]
        out = work / "state.json"
        argv = ["build-initial", "--dim", str(dim), "--max-arity-size", str(arity),
                "--max-term-size", str(term), "--out", str(out)]
        spec = json.dumps(argv[:-2]).encode()
        return [Child(argv, _build_check(workload, out))], hashlib.sha256(spec).hexdigest()
    state, corrupt = work / "input.json", work / "corrupt.json"
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), str(seed), str(state), str(corrupt)],
        env=env, check=True, timeout=120,
    )
    children = []
    for i, (args, rc, verdicts) in enumerate(VERIFY):
        out = work / f"reports{i}.json"
        argv = ["verify"] + [a.format(state=state, corrupt=corrupt) for a in args]
        argv += ["--out", str(out)]
        children.append(Child(argv, _verify_check(out, verdicts), rc))
    digest = hashlib.sha256(state.read_bytes() + corrupt.read_bytes()).hexdigest()
    return children, digest


def spawn(flags: list[str], argv: list[str], work: Path, env: dict, deadline: float) -> dict:
    """Run one child process; returns its result record, with ``spawn``
    (the clock before the process started) and ``error`` added."""
    result = work / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result), *flags, "--", *argv]
    with open(work / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return {"spawn": start, "error": "timed out"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not result.exists():
        return {"spawn": start, "error": f"exited {proc.returncode} without a result"}
    rec = json.loads(result.read_text())
    rec["spawn"] = start
    rec["error"] = None
    return rec


def run_op(children, traced: bool, op_id: str, work: Path, env: dict, deadline: float) -> dict:
    """One operation: its processes in sequence, then the output checks."""
    op = {"intervals": [], "rss_mb": 0.0, "error": None,
          "spans": [], "counters": {}, "pasting": {}}
    for child in children:
        rec = spawn(["--trace", op_id] if traced else [], child.argv, work, env, deadline)
        if rec["error"] is None and rec["rc"] != child.rc:
            rec["error"] = f"globop {child.argv[0]} exited {rec['rc']}"
        if rec["error"] is None:
            rec["error"] = child.check()
        if "done" in rec:
            op["intervals"].append([rec["ready"], rec["done"]])
            op["rss_mb"] = max(op["rss_mb"], rec["maxrss_kb"] / 1024.0)
            base = len(op["spans"])
            op["spans"] += [[n, s, e, p + base if p >= 0 else -1, o, i]
                            for n, s, e, p, o, i in rec.get("spans", [])]
            for k, v in rec.get("counters", {}).items():
                op["counters"][k] = op["counters"].get(k, 0) + v
            for k, v in rec["pasting"].items():
                old = op["pasting"].get(k, [0, 0])
                op["pasting"][k] = [old[0] + v[0], old[1] + v[1]]
        if rec["error"] is not None:
            op["error"] = rec["error"]
            break
    return op


def tail(samples: list[float]) -> float:
    """The highest sample with at least ten samples above it; with ten or
    fewer samples there is none, and the highest sample stands in."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of a traced operation, times at the reference speed."""
    m = spans.layer_metrics({**op, "op_s": op["wall_s"]})
    return {k: v * op["scale"] if spans.PER_LAYER[k] in ("s", "ms") else v for k, v in m.items()}


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "globop" / "cli.py").is_file():
        print(f"no globop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_run = time.perf_counter()
    deadline = t_run + DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)

    children, input_sha = prepare(args.workload, args.seed, work, env)
    pin_to_one_cpu()
    speed = Speed(work)
    try:
        spawn(["--setup-only"], [], work, env, deadline)  # compiles bytecode, warms the file cache
        setup_intervals = []
        for _ in range(SETUP_SAMPLES):
            rec = spawn(["--setup-only"], [], work, env, deadline)
            if rec["error"] is None:
                setup_intervals.append([rec["spawn"], rec["ready"]])

        untraced = []
        if args.trace:
            untraced.append(run_op(children, False, "untraced", work, env, deadline))
        ops = []
        t_ops = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            op = run_op(children, bool(args.trace), str(len(ops)), work, env, deadline)
            op["elapsed_s"] = time.perf_counter() - t0
            ops.append(op)
            if op["error"] == "timed out":
                break
            elapsed = time.perf_counter() - t_ops
            next_end = elapsed + statistics.median(o["elapsed_s"] for o in ops)
            if next_end > args.seconds or time.perf_counter() + 2 * op["elapsed_s"] > deadline:
                break
    finally:
        speed.stop()

    everything = untraced + ops
    for o in everything:
        speed.at_reference(o)
    setups = [(b - a) * speed.scale(a, b) for a, b in setup_intervals]
    failed = sum(1 for o in everything if o["error"] is not None)
    timed = [o for o in ops if o["error"] is None] or ops
    op_samples = [o["op_s"] for o in timed]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": input_sha,
        "trace": args.trace,
        "seconds": args.seconds,
        "run_s": time.perf_counter() - t_run,
        "setup_samples": setups,
        "setup_wall_samples": [b - a for a, b in setup_intervals],
        "ops": [{k: v for k, v in o.items() if k not in ("spans", "counters", "pasting")}
                for o in everything],
    }
    if args.trace:
        per_op = [layer_metrics(o) for o in timed]
        metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - untraced[0]["op_s"]
        metrics = {k: metrics[k] for k in spans.PER_LAYER}
        units = spans.PER_LAYER
        result["spans"] = [o["spans"] for o in timed]
    else:
        metrics = {
            "op_s": statistics.median(op_samples),
            "op_s_tail": tail(op_samples),
            "setup_s": statistics.median(setups or [0.0]),
            "peak_rss_mb": statistics.median(o["rss_mb"] for o in timed),
        }
        units = END_TO_END
    result["metrics"] = metrics
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{work.name}.json").write_text(json.dumps(result) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  input sha256 {input_sha}")
    for o in everything:
        if o["error"] is not None:
            print(f"FAILED operation: {o['error']}")
    print(f"operations {len(everything)}  failed {failed}  "
          f"fail_ratio {failed / len(everything):.4f} (ratio)  "
          f"op_s samples {len(op_samples)}  setup_s samples {len(setups)}  "
          f"wall op_s {statistics.median(o['wall_s'] for o in timed):.6g} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
