"""Tests of the benchmark itself (not of pklab).

    python3 -m pytest perfbench -q

The traced-run test starts two fresh processes, because module caches in
pklab (``_MODEL_CACHE``, the ``wedge`` lru caches) would make a second pass
in one process do less work.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every traced layer and the thread pool, in a few seconds.
SHORT = [
    ["--suite", "burns-bounds", "--n", "2", "--samples", "10"],
    ["--suite", "higgs", "--n", "1"],
    ["--suite", "all", "--n", "1", "--samples", "4"],
]

TRACED_CHILD = """
import json, sys
from pathlib import Path
sys.path[:0] = [{here!r}, {src!r}]
import layers, worker, pklab.cli
seconds, results, recorder, restored = worker.traced_pass(
    pklab.cli.main_verify, {commands!r}, 7, Path({tmp!r}))
print(json.dumps({{"restored": restored, "codes": [r[0] for r in results],
                  "errors": [r[2] for r in results],
                  "metrics": layers.layer_metrics(recorder.spans, recorder.counts())}}))
"""


def traced_run(tmp: Path) -> dict:
    code = TRACED_CHILD.format(here=str(HERE), src=str(ROOT / "src"),
                               commands=SHORT, tmp=str(tmp))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_runs_repeat_exact_counters_and_restore_names(tmp_path):
    first, second = traced_run(tmp_path), traced_run(tmp_path)
    for res in (first, second):
        assert res["errors"] == [None] * len(SHORT)
        assert res["restored"], "a traced name was not bound to its original again"
    exact = [name for name, _, _ in layers.ALL_LAYERS
             if name.endswith(".calls") or name in layers.EXACT_COUNTS]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    # The short configuration reaches every layer the benchmark traces.
    for name in ["wpcurv.curvature_fd.calls", "wpcurv.metric_evals", "fd.stencil_evals",
                 "higgs.HiggsField.projectors.calls", "wedge.sort_sign.calls",
                 "kns.structure_from_bsd.calls", "fibration.fft_points",
                 "fibration.model_from_potential.calls", "geodesics.ma_grid_points",
                 "projbundle.pk_top_power.calls"]:
        assert first["metrics"][name] > 0, name
    assert first["metrics"]["cli.pool.overlap"] > 0


def test_restore_rebinds_every_patched_name():
    import pklab.cli  # noqa: F401

    before = tracer.bindings()
    recorder = tracer.Tracer().install()
    try:
        patched = [key for key, value in tracer.bindings().items()
                   if before.get(key) is not value]
        assert ("pklab.higgs", "structure_from_bsd") in patched
        assert ("pklab.kns", "structure_from_bsd") in patched
        assert ("pklab.higgs", "HiggsField.theta") in patched
        assert ("pklab.cli", "SUITES[higgs]") in patched
    finally:
        recorder.restore()
    after = tracer.bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_and_tallies_survive_many_threads():
    recorder = tracer.Tracer()
    leaf = recorder.tallied("leaf", lambda: None)
    inner = recorder.spanned("inner", lambda: leaf())
    outer = recorder.spanned("outer", lambda: [inner() for _ in range(50)])
    threads = [threading.Thread(target=lambda: [outer() for _ in range(40)])
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert recorder.counts()["leaf.calls"] == 8 * 40 * 50
    table = tracer.span_table(recorder.spans)
    assert table["outer"]["calls"] == 8 * 40
    assert table["inner"]["calls"] == 8 * 40 * 50
    # Every inner span's parent is an outer span on the same thread.
    by_id = {s[0]: s for s in recorder.spans}
    for sid, parent, name, _, _, thread in recorder.spans:
        if name == "inner":
            assert by_id[parent][2] == "outer" and by_id[parent][5] == thread


def test_self_time_subtracts_the_union_of_children():
    # (id, parent, name, start, end, thread): a run_suite span with two
    # suites on two threads that overlap, and one nested span.
    spans = [
        (1, None, "cli.run_suite", 0.0, 10.0, 1),
        (2, 1, "cli.suite.higgs", 0.5, 6.0, 2),
        (3, 1, "cli.suite.geodesics", 1.0, 9.0, 3),
        (4, 3, "geodesics.real_legendre", 2.0, 4.0, 3),
    ]
    table = tracer.span_table(spans)
    assert table["cli.run_suite"]["self_s"] == pytest.approx(10.0 - 8.5)
    assert table["cli.suite.geodesics"]["self_s"] == pytest.approx(8.0 - 2.0)
    assert table["geodesics.real_legendre"]["self_s"] == pytest.approx(2.0)
    suites, run_suite_s = tracer.suite_timings(spans)
    assert suites["geodesics"] == pytest.approx({"s": 8.0, "wait_s": 1.0})
    assert run_suite_s == pytest.approx(10.0)
    assert layers.layer_metrics(spans, {})["cli.pool.overlap"] == pytest.approx(13.5 / 10.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        name: w["why"] for name, w in WORKLOADS.items()}.items()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_run_refuses_a_directory_without_pklab(tmp_path):
    for name in ("run.py", "worker.py", "layers.py", "tracer.py", "workloads.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curvature-n3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
