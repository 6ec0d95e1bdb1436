"""Acceptance gate: every criterion at its stated tolerance, one line each.

Each criterion runs `verify` suite configurations at the gate's seed and
requires every check record they return to pass.  Where a criterion is
stricter than the suite's default tolerance, it also bounds that record's
value.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion pass/fail lines; each criterion is also its own test.
"""

from pklab import cli

SEED = 7


def _records(suite: str, **params) -> list:
    """(config label, check record) pairs of one suite run at the gate's seed."""
    report = cli.run_suite(cli.SuiteConfig(suite=suite, seed=SEED, **params))
    label = " ".join([suite, *(f"{k}={v}" for k, v in params.items())])
    return [(label, record) for record in report.checks]


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def _gate(num: int, label: str, runs: list, bounds: dict | None = None) -> None:
    """Criterion `num` holds when every record passes and each record named in
    `bounds` meets that predicate on its value."""
    bounds = bounds or {}
    failed = [f"{where}: {rec.name}={rec.value:.3g}" for where, rec in runs
              if rec.status != "pass" or not bounds.get(rec.name, lambda v: True)(rec.value)]
    failed += [f"no record {name!r}" for name in sorted(set(bounds) - {r.name for _, r in runs})]
    _report(num, label, bool(runs) and not failed, "; ".join(failed) or f"{len(runs)} records")


def test_criterion_1_and_2_kns_bijectivity_and_membership():
    runs = [r for n in (1, 2, 3, 4) for r in _records("kns-roundtrip", n=n, samples=100)]
    _gate(1, "chart bijectivity over 100 samples per rank 1..4",
          [(where, rec) for where, rec in runs if rec.anchor != "bsd-membership"])
    _gate(2, "bounded-domain membership on all samples",
          [(where, rec) for where, rec in runs if rec.anchor == "bsd-membership"])


def test_criterion_3_higgs_structure():
    _gate(3, "flat Higgs structure for n in {1,2}, k in {0,1,2}",
          _records("higgs", n=1) + _records("higgs", n=2))


def test_criterion_4_curvature_bounds():
    _gate(4, "sectional <= -2/n, bisectional <= 0, Ricci <= -2/n",
          [r for n in (1, 2, 3) for r in _records("burns-bounds", n=n, samples=100)])


def test_criterion_5_curvature_formula():
    _gate(5, "difference tensor matches the three-term formula at 20 points",
          _records("curvature-formula", n=1, samples=100)
          + _records("curvature-formula", n=2, samples=100))


def test_criterion_6_trace_inequality():
    _gate(6, "power-trace inequality on 1000 matrices per size <= 6",
          _records("trace-inequality", samples=1000),
          bounds={"pointwise-inequality": lambda v: v <= 1e-12,
                  "equality-on-scalar": lambda v: v < 1e-12})


def test_criterion_7_elliptic_family():
    _gate(7, "elliptic family: degeneracy, scaling, curvature identity, Laplacian",
          _records("elliptic-family", samples=200, grid=64)
          + _records("schumacher", grid=64))


def test_criterion_8_pk_equivalence():
    _gate(8, "degeneracy criteria agree on 3 degenerate + 3 non-degenerate models",
          _records("pk-equivalence", grid=64))


def test_criterion_9_geodesics():
    _gate(9, "geodesics: curvature residual, degeneracy both ways, duality, order",
          _records("geodesics", samples=100, grid=64))


def test_criterion_10_log_determinant_convexity():
    _gate(10, "log-determinant strictly convex; energy profile nonnegative",
          _records("brunn-minkowski", samples=100, grid=64),
          bounds={"hessian-min-eig-n2": lambda v: v > 0,
                  "hessian-min-eig-n3": lambda v: v > 0})


def test_criterion_11_projective_bundles():
    _gate(11, "projectivized bundles: degenerate for flat, witnesses otherwise",
          _records("projbundle", samples=400, grid=64))


def test_criterion_12_determinism(tmp_path):
    identical = True
    for suite in ("kns-roundtrip", "trace-inequality", "geodesics"):
        cfg = cli.SuiteConfig(suite=suite, seed=SEED, n=2, samples=10)
        a = cli.emit_report(cli.run_suite(cfg), "json", tmp_path / "a.json")
        b = cli.emit_report(cli.run_suite(cfg), "json", tmp_path / "b.json")
        identical = identical and a.read_bytes() == b.read_bytes()
    _report(12, "identical configs produce byte-identical reports", identical,
            "three suites emitted twice")
