"""Harness tests: configs, reports, determinism, exit codes, plot data."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pklab import cli, kns
from pklab import fibration as fib
from pklab import wpcurv as wp


def test_unknown_suite_rejected_early():
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="no-such-suite")


def test_bad_parameters_rejected():
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="burns-bounds", n=0)
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="burns-bounds", samples=0)
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="higgs", tolerances={"fd-identity": 1e-9})
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="higgs", tolerances={"nonsense": 1.0})


def test_tolerance_override_flagged():
    cfg = cli.SuiteConfig(suite="trace-inequality", samples=5,
                          tolerances={"trace-inequality": 1e-6})
    rep = cli.run_suite(cfg)
    assert rep.overrides == ["override:trace-inequality"]
    assert all(c.threshold == 1e-6 for c in rep.checks)


def test_every_record_has_anchor():
    rep = cli.run_suite(cli.SuiteConfig(suite="all", n=2, samples=4))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    index = readme.split("## Property index", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z0-9-]+)` \|", index, re.MULTILINE))
    assert {check.anchor for check in rep.checks} == documented


def test_json_roundtrip_and_determinism(tmp_path):
    cfg = cli.SuiteConfig(suite="kns-roundtrip", seed=11, n=1, samples=10)
    rep1 = cli.run_suite(cfg)
    rep2 = cli.run_suite(cfg)
    p1 = cli.emit_report(rep1, "json", tmp_path / "a.json")
    p2 = cli.emit_report(rep2, "json", tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["suite"] == "kns-roundtrip"
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(rep1.checks)


def test_rank_clamp_noted_on_stderr(tmp_path, capsys):
    def run(n):
        out = tmp_path / f"higgs-n{n}.json"
        assert cli.main_verify(["--suite", "higgs", "--n", str(n), "--seed", "5",
                                "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note:")]
        return json.loads(out.read_text()), notes

    clamped, notes = run(5)
    assert notes == ["note: suite higgs runs at n=4 (requested n=5)"]
    assert clamped["config"]["n"] == 5
    plain, notes = run(4)
    assert notes == []
    assert clamped["checks"] == plain["checks"]


def test_csv_one_row_per_check(tmp_path):
    cfg = cli.SuiteConfig(suite="trace-inequality", samples=5)
    rep = cli.run_suite(cfg)
    path = cli.emit_report(rep, "csv", tmp_path / "r.csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(rep.checks)


def test_verify_exit_codes(tmp_path):
    assert cli.main_verify(["--suite", "trace-inequality", "--samples", "5",
                            "--out", str(tmp_path / "ok.json")]) == 0
    assert cli.main_verify(["--suite", "definitely-not-a-suite"]) == 2
    assert cli.main_verify(["--suite", "higgs", "--tol", "fd-identity=1e-9"]) == 2


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[verify]\nsuite = trace-inequality\nseed = 3\nsamples = 7\n")
    # Flag wins over the file value.
    assert cli.main_verify(["--config", str(path), "--samples", "5"]) == 0


def test_failing_suite_exit_code(monkeypatch):
    def fake_suite(cfg, tol):
        return [cli._check("always-fails", "plumbing", 1.0, 0.5)]

    monkeypatch.setitem(cli.SUITES, "trace-inequality", fake_suite)
    assert cli.main_verify(["--suite", "trace-inequality"]) == 1


def test_failure_records_carry_witness():
    rec = cli._check("x", "plumbing", 2.0, 1.0, witness={"input": [1, 2]})
    assert rec.status == "fail"
    assert rec.witness == {"input": [1, 2]}
    ok = cli._check("x", "plumbing", 0.5, 1.0, witness={"input": [1, 2]})
    assert ok.witness is None


def test_plot_data_profiles(tmp_path):
    cfg = cli.SuiteConfig(suite="geodesics", samples=5)
    path = cli.emit_plot_data(cfg, "ma-refinement", tmp_path / "p.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,ma_residual"
    assert len(lines) == 6
    ratios = []
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    for (h1, r1), (h2, r2) in zip(rows, rows[1:]):
        ratios.append(r1 / r2)
    assert ratios[-1] > 3.0   # refinement keeps quartering

    cfg2 = cli.SuiteConfig(suite="elliptic-family", samples=5, grid=16)
    path2 = cli.emit_plot_data(cfg2, "wp-coefficient", tmp_path / "wp.csv")
    rows = [tuple(map(float, ln.split(",")))
            for ln in path2.read_text().strip().splitlines()[1:]]
    consts = [s * s * g for s, g in rows]
    assert max(consts) - min(consts) < 1e-8

    with pytest.raises(cli.UsageError):
        cli.emit_plot_data(cfg, "wp-coefficient", tmp_path / "x.csv")
    with pytest.raises(cli.UsageError):
        cli.emit_plot_data(cfg, "no-such-profile", tmp_path / "x.csv")
    # A suite without any profiles warns and writes an empty file.
    empty = cli.emit_plot_data(cli.SuiteConfig(suite="trace-inequality"),
                               "burns-hsc", tmp_path / "empty.csv")
    assert empty.read_text() == ""


@pytest.mark.parametrize("suite", sorted(cli.SUITES) + ["all"])
def test_unknown_profile_rejected_for_every_suite(suite, tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(cli.UsageError):
        cli.emit_plot_data(cli.SuiteConfig(suite=suite), "no-such-profile", out)
    assert not out.exists()
    assert cli.main_plot_data(["--suite", suite, "--profile", "no-such-profile",
                               "--out", str(out)]) == 2
    assert not out.exists()


def test_burns_hsc_profile_matches_the_difference_tensor():
    # Oracle: the profile's stream and rows computed with curvature_fd.
    cfg = cli.SuiteConfig(suite="burns-bounds", n=2, samples=4, seed=3)
    _, rows = cli.profile_burns_hsc(cfg)
    space, j0, frame = cli._workspace(2)
    _, gram_at = wp.metric_field(space, j0, frame)
    rng = np.random.default_rng([3, 30])
    expected = []
    for _ in range(4):
        bp = kns.random_bsd_point(2, rng, 0.75)
        g = gram_at(kns.coords_from_sym(bp.phi))
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi = xi / np.sqrt(np.real(wp.df_inner(g, xi, xi)))
        expected.append((bp.radius, wp.curvature_fd(space, j0, frame, bp).pair(xi, xi).real))
    expected.sort()
    assert len(rows) == 4
    for (r, hsc), (r_fd, hsc_fd) in zip(rows, expected):
        assert r == r_fd
        assert hsc == pytest.approx(hsc_fd, abs=1e-6)


def test_model_spec_parsing():
    family, params = cli.parse_model_spec("perturbed-torus eps=0.05 grid=32")
    assert family == "perturbed-torus"
    assert params == {"eps": 0.05, "grid": 32}
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="schumacher", model="martian-model")


def test_declarative_model_config(tmp_path):
    cfg = cli.SuiteConfig(suite="schumacher", grid=64,
                          model="perturbed-torus eps=0.04")
    rep = cli.run_suite(cfg)
    assert rep.passed
    assert rep.config["model"] == "perturbed-torus eps=0.04"
    # Bundle-family selection feeds the projectivized-bundle suite.
    cfg2 = cli.SuiteConfig(suite="projbundle", samples=8,
                           model="split weights=1,3")
    rep2 = cli.run_suite(cfg2)
    names = [c.name for c in rep2.checks]
    assert "configured-model-consistency" in names
    assert rep2.passed
    # INI section form.
    path = tmp_path / "m.ini"
    path.write_text("[verify]\nsuite = projbundle\nsamples = 8\n"
                    "[model]\nfamily = twisted\nweight = 0.5\nr = 2\n")
    assert cli.main_verify(["--config", str(path)]) == 0


def test_witness_serialization_handles_complex(tmp_path):
    rec = cli._check("x", "plumbing", 2.0, 1.0,
                     witness={"matrix": np.array([[0.5 + 0.25j]]), "n": np.int64(3)})
    rep = cli.SuiteReport(suite="trace-inequality", config={}, overrides=[],
                          checks=[rec], wall_time_s=0.0)
    path = cli.emit_report(rep, "json", tmp_path / "w.json")
    payload = json.loads(path.read_text())
    assert payload["checks"][0]["witness"]["matrix"] == [["0.5+0.25j"]]
    assert payload["checks"][0]["witness"]["n"] == 3


def test_payload_checks_equal_the_asdict_form(monkeypatch):
    # report_payload reads each record's fields without asdict's deep copy;
    # a failed sectional bound carries a nested witness (basepoint, xi).
    monkeypatch.setitem(cli.DEFAULT_TOLERANCES, "hsc-margin", -1.0)
    rep = cli.run_suite(cli.SuiteConfig(suite="burns-bounds", n=2, samples=10))
    assert any(c.status == "fail" and c.witness for c in rep.checks)
    payload = cli.report_payload(rep)
    want = dict(payload, checks=[dataclasses.asdict(c) for c in rep.checks])
    assert json.dumps(payload, indent=2) == json.dumps(want, indent=2)


def test_workspace_is_built_once_per_rank_and_read_only():
    first, again = cli._workspace(3), cli._workspace(3)
    assert all(a is b for a, b in zip(first, again))
    space, j0, frame = first
    assert frame.reference is j0
    for array in (space.form, j0.J, frame.columns):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_plot_data_cli_entry(tmp_path):
    out = tmp_path / "prof.csv"
    assert cli.main_plot_data(["--suite", "geodesics", "--profile",
                               "ma-refinement", "--out", str(out)]) == 0
    assert out.exists()
    assert cli.main_plot_data(["--suite", "geodesics", "--profile", "bogus",
                               "--out", str(out)]) == 2


def _single_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_rejected(value, capsys):
    assert cli.main_verify(["--suite", "trace-inequality", "--samples", "5",
                            "--tol", f"trace-inequality={value}"]) == 2
    assert _single_error_line(capsys)
    with pytest.raises(cli.UsageError):
        cli.SuiteConfig(suite="trace-inequality", tolerances={"trace-inequality": float(value)})


def test_unusable_output_path_rejected_before_running(tmp_path, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("the suite ran before the output path was checked")

    monkeypatch.setattr(cli, "run_suite", no_run)
    missing = tmp_path / "missing" / "x.json"
    assert cli.main_verify(["--suite", "trace-inequality", "--out", str(missing)]) == 2
    assert _single_error_line(capsys)
    assert cli.main_verify(["--suite", "trace-inequality", "--out", str(tmp_path)]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("suite, model", [
    ("schumacher", "elliptic foo=1"),
    ("projbundle", "twisted bogus=2"),
    ("schumacher", "perturbed-torus eps=abc"),
    ("schumacher", "perturbed-torus eps=1,2"),
    ("schumacher", "perturbed-torus eps=nan"),
    ("schumacher", "perturbed-torus eps=inf"),
    ("projbundle", "split weights=1,nan"),
    ("schumacher", "perturbed-torus eps=-5"),
    ("all", "perturbed-torus eps=-5"),
    ("schumacher", "cross"),
    ("schumacher", "perturbed-torus grid=2"),
    ("schumacher", "perturbed-torus grid=-4"),
    ("schumacher", "perturbed-torus grid=32.5"),
    ("projbundle", "twisted r=0"),
    ("projbundle", "constant r=0"),
    ("projbundle", "twisted r=-1"),
    ("projbundle", "twisted r=2.5"),
    # exp(-w |t|^2) at the suite's point underflows to a zero metric, or
    # overflows to an infinite one.
    ("projbundle", "twisted weight=5000"),
    ("projbundle", "split weights=5000,1"),
    ("all", "twisted weight=5000"),
    ("all", "split weights=5000,1"),
    ("projbundle", "twisted weight=-5000"),
    # Finite jets whose metric is too near degenerate for the top-power
    # detector (det(h) / |h|^r under 1e-10), or whose second jet overflows,
    # or whose metric is subnormal.
    ("projbundle", "split weights=2500,1"),
    ("all", "split weights=2500,1"),
    ("projbundle", "split weights=120,1"),
    ("projbundle", "split weights=1,-80,0.5"),
    ("projbundle", "twisted weight=-3500"),
    ("projbundle", "twisted weight=3600"),
])
def test_bad_model_rejected_before_running(suite, model, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("the suite ran before the model was checked")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert cli.main_verify(["--suite", suite, "--grid", "16", "--model", model]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("model", ["twisted weight=2000", "twisted weight=3500",
                                   "twisted weight=-3000", "twisted weight=-100"])
def test_flat_bundle_near_the_float_range_ends_passes(model, tmp_path):
    # A projectively flat metric of size 1e-304 to 1e260 at the suite's
    # point: the form and the residual are read in the normalized metric,
    # so the two degeneracy detectors agree.
    out = tmp_path / "r.json"
    assert cli.main_verify(["--suite", "projbundle", "--samples", "8", "--model", model,
                            "--out", str(out)]) == 0
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["name"] == "configured-model-consistency"]
    assert check["status"] == "pass" and check["value"] == 0.0


@pytest.mark.parametrize("suite", ["projbundle", "all"])
def test_near_degenerate_bundle_the_detector_resolves_passes(suite, tmp_path):
    # det(h) / |h|^r is 2.5e-9 at the suite's point: the non-flat form's top
    # power (1.3e-7) still resolves, so the probe accepts it and the run
    # passes.
    out = tmp_path / "r.json"
    assert cli.main_verify(["--suite", suite, "--n", "2", "--samples", "8",
                            "--model", "split weights=100,1", "--out", str(out)]) == 0
    check, = [c for c in json.loads(out.read_text())["checks"]
              if c["name"].endswith("configured-model-consistency")]
    assert check["status"] == "pass" and check["value"] == 0.0


def test_nan_readings_of_the_configured_model_fail(monkeypatch):
    # A NaN residual and a NaN top power are both "not under 1e-8"; the
    # check must not read that as the detectors agreeing.
    monkeypatch.setattr(cli.pb, "projective_flatness_residual", lambda model, t: float("nan"))
    monkeypatch.setattr(cli.pb, "pk_top_power", lambda omega: float("nan"))
    rep = cli.run_suite(cli.SuiteConfig(suite="projbundle", samples=4, model="twisted weight=1"))
    check, = [c for c in rep.checks if c.name == "configured-model-consistency"]
    assert check.status == "fail"


def test_bundle_probe_ignores_a_fibration_model():
    # projbundle runs without a --model of another registry, as before the probe.
    assert cli.main_verify(["--suite", "projbundle", "--samples", "4", "--model", "elliptic"]) == 0


def test_model_probe_builds_no_fiber_state(monkeypatch, tmp_path):
    # The --model probe checks positivity from the fiber metric alone; the
    # schumacher suite builds one state per model (flat and configured).
    built = []
    fiber_state = fib.fiber_state

    def counted(*args, **kwargs):
        built.append(args)
        return fiber_state(*args, **kwargs)

    monkeypatch.setattr(fib, "fiber_state", counted)
    assert cli.main_verify(["--suite", "schumacher", "--model", "perturbed-torus eps=0.02",
                            "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == 2


@pytest.mark.parametrize("grid", ["0", "-4", "3"])
def test_grid_without_top_third_rejected(grid, tmp_path, capsys):
    assert cli.main_verify(["--suite", "pk-equivalence", "--grid", grid]) == 2
    assert _single_error_line(capsys)
    assert cli.main_plot_data(["--suite", "elliptic-family", "--profile", "wp-coefficient",
                               "--grid", grid, "--out", str(tmp_path / "p.csv")]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["--suite", "schumacher", "--grid", "100000"],
    ["--suite", "elliptic-family", "--grid", str(cli.MAX_GRID + 1)],
    ["--suite", "schumacher", "--model", "perturbed-torus grid=100000"],
    ["--suite", "all", "--model", "elliptic grid=100000"],
])
def test_oversized_grid_refused_before_running(argv, monkeypatch, tmp_path, capsys):
    def no_run(*args):
        raise AssertionError("the suite ran before the grid was checked")

    monkeypatch.setattr(cli, "run_suite", no_run)
    monkeypatch.setattr(cli, "emit_plot_data", no_run)
    assert cli.main_verify(argv) == 2
    assert _single_error_line(capsys)
    if "--grid" in argv:
        assert cli.main_plot_data(["--suite", "elliptic-family", "--profile",
                                   "wp-coefficient", "--out", str(tmp_path / "p.csv"),
                                   "--grid", argv[-1]]) == 2
        assert _single_error_line(capsys)


def test_largest_grid_accepted():
    assert cli.MAX_GRID ** 2 * 16 <= cli.FIBER_ARRAY_BYTES
    assert cli.SuiteConfig(suite="elliptic-family", grid=cli.MAX_GRID).grid == cli.MAX_GRID


@pytest.mark.parametrize("argv", [
    ["--suite", "burns-bounds", "--n", "64"],
    ["--suite", "all", "--n", "64"],
    ["--suite", "burns-bounds", "--n", "46"],
])
def test_oversized_burns_rank_refused_before_running(argv, monkeypatch, tmp_path, capsys):
    def no_run(*args):
        raise AssertionError("the suite ran before the rank was checked")

    monkeypatch.setattr(cli, "run_suite", no_run)
    monkeypatch.setattr(wp, "metric_field", no_run)
    assert cli.main_verify(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert _single_error_line(capsys)
    assert not (tmp_path / "r.json").exists()


def test_rank_32_fits_the_higgs_stack_budget():
    # One basepoint's stack at n=32 is 34.6 MB; at n=64 it would be 545 MB.
    assert 16 * kns.sym_dim(32) * 64 ** 2 <= cli.HIGGS_STACK_BYTES < 16 * kns.sym_dim(64) * 128 ** 2
    assert cli.SuiteConfig(suite="burns-bounds", n=32).n == 32
    assert cli.SuiteConfig(suite="kns-roundtrip", n=64).n == 64


def test_grid_too_coarse_for_the_fiber_spectrum_exits_2(capsys):
    assert cli.main_verify(["--suite", "schumacher", "--grid", "16"]) == 2
    assert _single_error_line(capsys)


def test_single_weight_split_model_runs():
    rep = cli.run_suite(cli.SuiteConfig(suite="projbundle", samples=8, model="split weights=2"))
    assert "configured-model-consistency" in [c.name for c in rep.checks]


def _call_log(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs each call's arguments."""
    calls = []
    original = getattr(module, name)

    def logged(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)
    return calls


def test_fibration_suites_build_each_fiber_state_once(monkeypatch):
    psi = _call_log(monkeypatch, fib, "_psi_base_derivatives")
    states = _call_log(monkeypatch, fib, "fiber_state")
    cli.run_suite(cli.SuiteConfig(suite="schumacher", n=2, samples=20))
    # One t-differentiation of log det(ff) per distinct (model, t).
    assert sorted((s.model.name, s.t) for (s,) in psi) == [
        ("elliptic", 0.2 + 1.1j), ("perturbed-torus(0.05)", cli.T_PERT)]
    states.clear()
    cli.run_suite(cli.SuiteConfig(suite="elliptic-family", n=2, samples=20))
    # Four wp-coefficient heights, then one state for the Bochner loop.
    assert [t for _, t in states] == [0.5j, 1j, 2j, 4j, 1j]


def test_schumacher_pairs_each_state_once(monkeypatch):
    # One pairing grid per fiber state: the pushforward and average-positivity
    # checks integrate the one in the schumacher report.
    pairs = _call_log(monkeypatch, fib, "kappa_pairing")
    cli.run_suite(cli.SuiteConfig(suite="schumacher", n=2, samples=20))
    assert len(pairs) == 2


def test_suite_all_concatenates_each_suite_in_order():
    def records(suite, prefix=""):
        rep = cli.run_suite(cli.SuiteConfig(suite=suite, n=1, samples=4))
        return [json.dumps(dataclasses.asdict(c) | {"name": prefix + c.name}) for c in rep.checks]

    assert records("all") == [r for name in cli.SUITES for r in records(name, f"{name}/")]


def test_malformed_values_rejected(tmp_path, capsys):
    assert cli.main_verify(["--suite", "trace-inequality",
                            "--tol", "trace-inequality=abc"]) == 2
    assert _single_error_line(capsys)
    for text in ("[verify]\nsuite = trace-inequality\nseed = abc\n",
                 "[verify]\nsuite = trace-inequality\n[tolerances]\ntrace-inequality = x\n",
                 "suite = trace-inequality\n"):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main_verify(["--config", str(path)]) == 2
        assert _single_error_line(capsys)


def _suite_models(monkeypatch):
    """Patch every registered suite to log the --model it is handed."""
    seen = {}
    for name, suite in list(cli.SUITES.items()):
        def logged(cfg, tol, suite=suite, name=name):
            seen[name] = cfg.model
            return suite(cfg, tol)

        monkeypatch.setitem(cli.SUITES, name, logged)
    return seen


def test_all_gives_a_bundle_model_to_projbundle(monkeypatch):
    seen = _suite_models(monkeypatch)
    model = "split weights=1,2,0.5"
    rep = cli.run_suite(cli.SuiteConfig(suite="all", n=1, samples=4, model=model))
    assert seen == {name: model if name == "projbundle" else None for name in cli.SUITES}
    alone = cli.run_suite(cli.SuiteConfig(suite="projbundle", n=1, samples=4, model=model))
    want = [dataclasses.asdict(c) for c in alone.checks]
    assert [dataclasses.asdict(c) | {"name": c.name[len("projbundle/"):]} for c in rep.checks
            if c.name.startswith("projbundle/")] == want
    assert alone.passed and "configured-model-consistency" in [c["name"] for c in want]


def test_all_gives_a_fibration_model_to_schumacher_only(monkeypatch):
    seen = _suite_models(monkeypatch)
    model = "perturbed-torus eps=0.02"
    rep = cli.run_suite(cli.SuiteConfig(suite="all", n=1, samples=4, model=model))
    assert seen == {name: model if name == "schumacher" else None for name in cli.SUITES}
    alone = cli.run_suite(cli.SuiteConfig(suite="schumacher", n=1, samples=4, model=model))
    assert alone.passed
    assert [c.value for c in rep.checks if c.name.startswith("schumacher/")] == [
        c.value for c in alone.checks]


def test_projbundle_runs_a_rank_sixteen_model():
    # The configured model's top power is one 16 x 16 determinant.
    rep = cli.run_suite(cli.SuiteConfig(suite="projbundle", model="constant r=16"))
    assert rep.passed
    assert "configured-model-consistency" in [c.name for c in rep.checks]
