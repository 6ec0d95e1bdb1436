"""pklab benchmark: time to a certified `verify` report, cold and warm.

    python3 perfbench/run.py --workload curvature-n3 --seed 7 --seconds 55 --trace 0

Run from any directory of a checkout that holds ``src/pklab``.  Every
measurement is a fresh worker process (worker.py) that imports pklab.cli
from ``src`` and calls ``main_verify`` on the workload's commands, cold and
then warm.  A run starts workers one after another, each waiting for the
last, until ``--seconds`` is spent.  The first worker is a warm-up whose
checks count but whose times do not; metrics are medians over the other
workers, of which there are at least three.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates an untraced worker with a traced one (cold pass only) and
reports the per-layer metrics of layers.py and the tracing overhead.
``--workload all`` runs every workload in turn and prefixes metric names
with the workload.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_WORKERS = 3        # fewest processes whose medians a run reports
RUN_LIMIT_S = 170.0    # a run of one workload must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checks_total", "count"),
]


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(versions: dict) -> dict:
    """What a result needs to name its machine."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=5)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {**versions, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
            "commit": commit}


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            tmp: Path, deadline: float) -> dict:
    """One workload's run; returns metrics, counts of checks and notes."""
    base = ["--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    start = time.monotonic()
    # The run's first worker meets cold file caches and compiles bytecode:
    # its checks count, its times do not.
    warmup = spawn(base, deadline)
    plain, traced_results, layer_rows = [], [], []
    while True:
        begun = time.monotonic()
        plain.append(spawn(base, deadline))
        if traced:
            spans_file = tmp / "spans.json"
            traced_results.append(spawn(base + ["--cold-only", "--spans", str(spans_file)],
                                        deadline))
            written = json.loads(spans_file.read_text())
            layer_rows.append(layers.layer_metrics([tuple(s) for s in written["spans"]],
                                                   written["counts"]))
        took = time.monotonic() - begun
        if len(plain) >= MIN_WORKERS and time.monotonic() - start + took > seconds:
            break

    workers = plain + traced_results
    graded = [warmup, *workers]
    samples = {key: [r[key] for r in (workers if key == "setup_s" else plain)]
               for key, _ in END_TO_END}
    end_to_end = {key: statistics.median(values) for key, values in samples.items()}
    notes = sorted({f for r in graded for f in r["failures"]})
    failed = sum(r["checks_failed"] for r in graded)
    if traced:
        if not all(r["restored"] for r in traced_results):
            failed += 1
            notes.append("tracer left a patched name behind")
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        metrics["trace_overhead_s"] = (median_of(traced_results, "wall_s")
                                       - end_to_end["wall_s"])
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        more = {name: {"value": metrics[name], "unit": unit}
                for name, unit, _ in layers.MORE_LAYERS}
    else:
        metrics, units, more = end_to_end, dict(END_TO_END), {}
    return {"metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}, "more": more,
            "samples": samples, "traced_processes": len(traced_results),
            "checks_failed": max(r["checks_failed"] for r in [warmup, *plain]),
            "attempted": sum(r["checks_total"] for r in graded), "failed": failed,
            "notes": notes, "versions": workers[0]["versions"]}


def report(workload: str, seed: int, traced: bool, res: dict) -> None:
    print(f"workload {workload} seed {seed}: {len(res['samples']['wall_s'])} untraced "
          f"and {res['traced_processes']} traced worker processes")
    for key, unit in END_TO_END:
        values = res["samples"][key]
        print(f"  {key:16s} {statistics.median(values):12.4f} {unit:5s} median of "
              f"{len(values)}, range {min(values):.4f} to {max(values):.4f}")
    print(f"  {'checks_failed':16s} {res['checks_failed']:12d} count")
    if traced:
        for name, metric in res["metrics"].items():
            print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
        print("  not in the result line:")
        for name, metric in res["more"].items():
            print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    for note in res["notes"]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pklab" / "cli.py").is_file():
        print(f"error: no pklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            for name in names:
                results[name] = measure(name, args.seed, args.seconds / len(names),
                                        bool(args.trace), Path(tmp), deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        report(name, args.seed, bool(args.trace), res)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: m for key, m in res["metrics"].items()})
    print("machine: " + json.dumps(machine(next(iter(results.values()))["versions"])))
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
