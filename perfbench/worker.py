"""One fresh process of the benchmark.

Imports ``pklab.cli`` from the checkout's ``src`` (timed as set-up), runs a
workload's ``verify`` commands once cold and, unless ``--cold-only``, once
more warm in the same process, grades every report, and prints one JSON line.
With ``--spans FILE`` the cold pass runs under a `tracer.Tracer` and the spans
and counts are written to FILE when the pass ends.

    python3 perfbench/worker.py --workload curvature-n3 --seed 7 --tmp DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MAX_LISTED_FAILURES = 20


def run_pass(main_verify, commands, seed: int, tmp: Path, tag: str):
    """Run every command; return the pass's wall time and (exit code, report
    path, traceback) per command.  An exception is recorded, not raised."""
    outs = [tmp / f"{tag}-{i}.json" for i in range(len(commands))]
    for out in outs:
        out.unlink(missing_ok=True)     # a report left by an earlier worker
    results = []
    start = perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv, out in zip(commands, outs):
            try:
                code = main_verify(argv + ["--seed", str(seed), "--out", str(out)])
                error = None
            except Exception:  # a crashing command is a failed check of the run
                code, error = None, traceback.format_exc(limit=3)
            results.append((code, out, error))
    return perf_counter() - start, results


def traced_pass(main_verify, commands, seed: int, tmp: Path):
    """`run_pass` under a `tracer.Tracer`.

    Returns the pass's wall time and results, the tracer, and whether every
    name the tracer patched is bound to its original object again.
    """
    import tracer

    before = tracer.bindings()
    recorder = tracer.Tracer().install()
    try:
        seconds, results = run_pass(main_verify, commands, seed, tmp, "cold")
    finally:
        recorder.restore()
    after = tracer.bindings()
    restored = before.keys() == after.keys() and all(
        after[key] is value for key, value in before.items())
    return seconds, results, recorder, restored


def grade(commands, passes) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, failure descriptions).

    Per command and pass: every check record, plus the exit code (it must be
    0).  Per command across passes: the cold and warm reports, which hold
    ``report_payload``, must be byte-identical.
    """
    total = failed = 0
    failures = []
    for i, argv in enumerate(commands):
        label = " ".join(argv)
        reports = []
        for tag, results in passes:
            code, path, error = results[i]
            total += 1
            if error is not None:
                failed += 1
                failures.append(f"{tag} [{label}] raised: {error.strip().splitlines()[-1]}")
                reports.append(None)
                continue
            if code != 0:
                failed += 1
                failures.append(f"{tag} [{label}] exit code {code}")
            if not path.exists():
                failed += 1
                failures.append(f"{tag} [{label}] wrote no report")
                reports.append(None)
                continue
            data = path.read_bytes()
            reports.append(data)
            for check in json.loads(data)["checks"]:
                total += 1
                if check["status"] == "fail":
                    failed += 1
                    failures.append(f"{tag} [{label}] {check['name']}: value "
                                    f"{check['value']:.6g} {check['comparison']} "
                                    f"{check['threshold']:.6g}")
        if len(passes) > 1:
            total += 1
            if None in reports or len(set(reports)) != 1:
                failed += 1
                failures.append(f"[{label}] report differs between cold and warm pass")
    return total, failed, failures


def library_versions() -> dict:
    import numpy
    import scipy
    import sympy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--cold-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    commands = WORKLOADS[args.workload]["commands"]
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import pklab.cli
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s}

    if args.spans is None:
        cold_s, cold = run_pass(pklab.cli.main_verify, commands, args.seed, args.tmp, "cold")
    else:
        cold_s, cold, recorder, result["restored"] = traced_pass(
            pklab.cli.main_verify, commands, args.seed, args.tmp)
        args.spans.write_text(json.dumps({"spans": recorder.spans,
                                          "counts": recorder.counts()}))
    passes = [("cold", cold)]
    result["wall_s"] = cold_s
    if not args.cold_only:
        warm_s, warm = run_pass(pklab.cli.main_verify, commands, args.seed, args.tmp, "warm")
        passes.append(("warm", warm))
        result["warm_wall_s"] = warm_s
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total, failed, failures = grade(commands, passes)
    result.update(checks_total=total, checks_failed=failed,
                  failures=failures[:MAX_LISTED_FAILURES],
                  versions=library_versions())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
