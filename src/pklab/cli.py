"""Verification harness: named suites, seeded configs, machine-readable reports.

Every check record carries an anchor string naming the certified property
(the README property index maps anchors to plain statements) or the literal
"plumbing".  Reports are deterministic given the configuration: the seeded
generator is the only entropy source and wall time is kept out of the
canonical serialization.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import inspect
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
# numpy loads its random package on first use; every suite draws from a
# seeded generator, so load it with the CLI rather than inside the first suite.
import numpy.random  # noqa: F401

from . import fibration as fib
from . import geodesics as geo
from . import higgs as hg
from . import kns
from . import projbundle as pb
from . import symplin as sl
from . import wpcurv as wp


class UsageError(ValueError):
    pass


DEFAULT_TOLERANCES = {
    "roundtrip": 1e-10,
    "chart-agreement": 1e-10,
    "bsd-symmetry": 1e-10,
    "bsd-radius-margin": 1e-12,
    "berndtsson-invariance": 1e-10,
    "holomorphy-probe": 1e-6,
    "motion-roundtrip": 1e-12,
    "motion-type": 1e-10,
    "algebraic-identity": 1e-10,
    "fd-identity": 1e-5,
    "hsc-margin": 1e-3,
    "bisectional": 1e-6,
    "ricci-margin": 1e-3,
    "kahler-closedness": 1e-6,
    "closed-form-metric": 1e-10,
    "closed-form-fd": 1e-6,
    "ricci-einstein": 1e-9,
    "hsc-exact-margin": 1e-12,
    "curvature-formula": 1e-4,
    "curvature-symmetry": 1e-6,
    "ratio-spread": 1e-8,
    "trace-inequality": 1e-9,
    "elliptic-exact": 1e-12,
    "wp-constancy": 1e-8,
    "schumacher-flat": 1e-8,
    "schumacher-perturbed": 1e-6,
    "bochner": 1e-10,
    "pk-zero": 1e-8,
    "pk-witness": 1e-3,
    "geodesic-residual": 1e-8,
    "ma-degenerate": 1e-8,
    "ma-witness": 1e-3,
    "legendre-grid": 2e-3,
    "dual-linearity-ratio": 10.0,
    "ma-order-low": 3.3,
    "ma-order-high": 4.7,
    "bm-positivity": 0.0,
    "mabuchi-positivity": -1e-10,
    "log-convexity": -1e-8,
    "projflat-zero": 1e-10,
    "fs-agreement": 1e-10,
    "d-closedness": 1e-6,
}


# Below this many points per axis a fiber spectrum has no top third for the
# resolution guard (`SpectralFiber.check_resolution`) to measure.
MIN_GRID = 4

# Every fibration family has one-dimensional fibers, so a fiber grid has
# grid^2 points, and the largest fiber arrays the suites allocate hold 16
# bytes per point: the complex fields of `fib.evaluate_fields`, the FFTs of
# `SpectralFiber`, its Fourier symbols and its two-row float coordinate
# and frequency stacks.  A schumacher run holds about 38 of them at once
# (195 MB peak RSS at grid 512).  One such array may take at most
# FIBER_ARRAY_BYTES, which caps --grid at MAX_GRID = 1024.
FIBER_ARRAY_BYTES = 1 << 24
MAX_GRID = math.isqrt(FIBER_ARRAY_BYTES // 16)

# burns-bounds evaluates the Higgs field of one basepoint as one stack of
# nsym matrices of 2n x 2n, 16 bytes an entry (`wpcurv.metric_field` blocks
# longer stacks by points, so one point is its smallest block).  One such
# stack may take at most HIGGS_STACK_BYTES: n=32 (34.6 MB a stack) runs in
# about 176 MB peak RSS, and n=64 (545 MB a stack) is refused.
HIGGS_STACK_BYTES = 1 << 26


# The suite that reads a --model of each family registry; every other suite
# runs without the model.
MODEL_SUITES = {"schumacher": fib.MODEL_FAMILIES, "projbundle": pb.BUNDLE_FAMILIES}


def parse_model_spec(spec: str) -> tuple[str, dict]:
    """Parse "family key=val key=val" into a family name and parameters: each
    key a parameter of the family, each value a finite number, an int when
    written in digits (for ``weights`` a tuple of floats from a comma list)."""
    parts = spec.split()
    if not parts:
        raise UsageError("empty model specification")
    family = parts[0]
    builders = {name: build for registry in MODEL_SUITES.values()
                for name, build in registry.items()}
    if family not in builders:
        raise UsageError(f"unknown model family {family!r}")
    keys = tuple(inspect.signature(builders[family]).parameters)
    params: dict = {}
    for item in parts[1:]:
        if "=" not in item:
            raise UsageError(f"model parameter {item!r} must be key=value")
        key, val = item.split("=", 1)
        if key not in keys:
            raise UsageError(f"model family {family!r} has no parameter {key!r}; "
                             f"known: {', '.join(keys)}")
        nums = [_number(float, v, f"model parameter {key!r}") for v in val.split(",")]
        if not all(map(math.isfinite, nums)) or (len(nums) > 1 and key != "weights"):
            raise UsageError(f"model parameter {key!r} must be a finite number, got {val!r}")
        params[key] = tuple(nums) if key == "weights" else int(val) if val.isdigit() else nums[0]
    return family, params


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 7
    n: int = 2
    samples: int = 100
    tolerances: dict = field(default_factory=dict)
    grid: int = 64
    model: str | None = None

    def __post_init__(self):
        if self.suite not in SUITES and self.suite != "all":
            raise UsageError(f"unknown suite {self.suite!r}; known: "
                             f"{', '.join(sorted(SUITES))}, all")
        if self.n < 1:
            raise UsageError("n must be >= 1")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise UsageError("seed must be a 64-bit unsigned integer")
        family, params = parse_model_spec(self.model) if self.model is not None else (None, {})
        for grid in (self.grid, params.get("grid", self.grid)):
            if not isinstance(grid, int) or grid < MIN_GRID:
                raise UsageError(f"grid must be an integer >= {MIN_GRID}, got {grid!r}")
            if grid > MAX_GRID:
                raise UsageError(
                    f"grid {grid} is too large: one fiber array would take "
                    f"{16 * grid * grid / 2**20:.2f} MiB, over the "
                    f"{FIBER_ARRAY_BYTES >> 20} MiB budget (grid <= {MAX_GRID})")
        stack = 16 * kns.sym_dim(self.n) * (2 * self.n) ** 2
        if self.suite in ("burns-bounds", "all") and stack > HIGGS_STACK_BYTES:
            raise UsageError(
                f"n={self.n} is too large for burns-bounds: one basepoint's Higgs field "
                f"stack would take {stack / 2**20:.1f} MiB, over the "
                f"{HIGGS_STACK_BYTES >> 20} MiB budget")
        rank = params.get("r", 1)
        if not isinstance(rank, int) or rank < 1:
            raise UsageError(f"bundle rank r must be an integer >= 1, got {rank!r}")
        if family is not None and (self.suite == "schumacher" or
                                   (self.suite == "all" and family in MODEL_SUITES["schumacher"])):
            # Probe the model once where the schumacher suite uses it.
            model = _configured_fibration(self)
            if not model.proper:
                raise UsageError("schumacher requires a torus-fiber model")
            try:
                fib.check_positivity(model, T_PERT)
            except fib.PositivityError as exc:
                raise UsageError(f"model {self.model!r} at t={T_PERT}: {exc}") from None
        if family in MODEL_SUITES["projbundle"] and self.suite in ("projbundle", "all"):
            try:
                with np.errstate(all="ignore"):     # metric() rejects inf and nan itself
                    MODEL_SUITES["projbundle"][family](**params).metric(T_BUNDLE)
            except ValueError as exc:
                raise UsageError(f"model {self.model!r} at t={T_BUNDLE}: {exc}") from None
        for key, val in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise UsageError(f"unknown tolerance key {key!r}")
            try:
                finite = math.isfinite(val)
            except TypeError:
                finite = False
            if not finite:
                raise UsageError(f"tolerance {key!r} must be a finite number, got {val!r}")
            if key in ("dual-linearity-ratio", "ma-order-low"):
                if val > DEFAULT_TOLERANCES[key]:
                    raise UsageError("lower-bound tolerances may only be loosened downward")
            elif val < DEFAULT_TOLERANCES[key]:
                raise UsageError(f"tolerance {key!r} may only be loosened")


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: str             # pass | fail
    value: float
    threshold: float
    comparison: str = "<="
    witness: dict | None = None


@dataclass
class SuiteReport:
    suite: str
    config: dict
    overrides: list
    checks: list
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


class Tolerances:
    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg

    def __call__(self, key: str) -> float:
        return self.cfg.tolerances.get(key, DEFAULT_TOLERANCES[key])


def _jsonable(obj):
    """Witnesses must replay from the report: numbers become plain floats and
    complex entries decimal strings, row-major."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.complexfloating, complex)):
        c = complex(obj)
        return f"{c.real!r}{c.imag:+}j"
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _check(name, anchor, value, threshold, comparison="<=", witness=None):
    value = float(value)
    threshold = float(threshold)
    if comparison == "<=":
        ok = value <= threshold
    elif comparison == ">=":
        ok = value >= threshold
    else:
        raise ValueError(comparison)
    return CheckRecord(name=name, anchor=anchor, status="pass" if ok else "fail",
                       value=value, threshold=threshold, comparison=comparison,
                       witness=_jsonable(witness) if not ok else None)


@functools.lru_cache(maxsize=None)
def _workspace(n: int):
    """The standard space, structure and frame of rank n, shared and read-only."""
    space = sl.standard_symplectic(n)
    j0 = sl.standard_complex_structure(n)
    frame = sl.unitary_frame(space, j0)
    for array in (space.form, j0.J, frame.columns):
        array.setflags(write=False)
    return space, j0, frame


# ---------------------------------------------------------------------------
# Suite implementations
# ---------------------------------------------------------------------------

def suite_kns_roundtrip(cfg: SuiteConfig, tol: Tolerances):
    n = cfg.n
    rng = np.random.default_rng([cfg.seed, 1])
    space, j0, frame = _workspace(n)
    # Draw every sample first, in the order of the per-sample loop, then run
    # the chart maps on the stack.
    jps = np.stack([sl.random_compatible_structure(space, rng).J
                    for _ in range(cfg.samples)])
    phi = kns.kns_tensor(j0, jps, frame)
    worst_sym = float(np.max(np.abs(phi - phi.swapaxes(-1, -2))))
    worst_radius = kns.spectral_radius_phibar(phi) ** 0.5
    worst_agree = float(np.max(np.abs(kns.kns_tensor_by_projection(jps, frame) - phi)))
    rt = np.max(np.abs(kns.structure_from_bsd(frame, phi) - jps), axis=(-2, -1))
    worst_rt = float(np.max(rt))
    witness = {"J": jps[np.argmax(rt)].tolist()} if worst_rt > 0.0 else None
    checks = [
        _check("roundtrip-error", "kns-bijectivity", worst_rt, tol("roundtrip"),
               witness=witness),
        _check("cayley-vs-projection", "kns-two-constructions", worst_agree,
               tol("chart-agreement")),
        _check("coordinate-symmetry", "bsd-membership", worst_sym, tol("bsd-symmetry")),
        _check("coordinate-radius", "bsd-membership", worst_radius,
               1.0 - tol("bsd-radius-margin")),
    ]

    # Berndtsson-style tensor invariance under complex-linear reparametrization:
    # the identity is homogeneous of degree one in b, so each sample's
    # residual is read in units of max(1, max |rhs|).
    a, b, s = (np.empty((20, n, n), dtype=complex) for _ in range(3))
    for i in range(20):
        a[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        b[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    rhs = np.linalg.solve(s, kns.berndtsson_tensor(a, b) @ s.conj())
    lhs = kns.berndtsson_tensor(a @ s, b @ s.conj())
    unit = np.maximum(1.0, np.max(np.abs(rhs), axis=(-2, -1)))
    checks.append(_check("tensor-invariance", "linear-map-tensor",
                         float(np.max(np.max(np.abs(lhs - rhs), axis=(-2, -1)) / unit)),
                         tol("berndtsson-invariance")))

    base = kns.random_bsd_point(n, rng, 0.4)
    direction = kns.sym_from_coords(rng.standard_normal(kns.sym_dim(n))
                                    + 1j * rng.standard_normal(kns.sym_dim(n)), n)
    probe = kns.holomorphy_probe(space, frame, base, direction)
    checks.append(_check("chart-transition-holomorphy", "chart-holomorphy", probe,
                         tol("holomorphy-probe")))

    phis = np.empty((5, n, n), dtype=complex)
    z = np.empty((5, n), dtype=complex)
    for i in range(5):
        phis[i] = kns.random_bsd_point(n, rng, 0.6).phi
        z[i] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    zeta = kns.holomorphic_motion(phis, z)
    worst_motion = float(np.max(np.abs(kns.inverse_motion(phis, zeta) - z)))
    worst_type = float(np.max(kns.motion_form_residual(phis, zeta)))
    checks.append(_check("motion-roundtrip", "holomorphic-motion", worst_motion,
                         tol("motion-roundtrip")))
    checks.append(_check("motion-form-type", "motion-form-type", worst_type,
                         tol("motion-type")))
    return checks


# The Higgs-layer suites stop at this rank.  The nested difference stencil of
# `higgs` has 8 nsym x 8 nsym inner points (6400 at n=4); its checks read
# frame changes only, and those of the inner points are reduced to their
# differences in blocks (`higgs.STENCIL_BLOCK_BYTES`), but the stacks at the
# 8 nsym outer points grow like nsym^2 dim^2.  Measured as `verify` runs on
# a 2-CPU host (peak RSS from getrusage): `higgs --n 4 --seed 7` 1.2 s and
# 130 MB, `curvature-formula --n 4 --samples 20 --seed 7` 0.46 s and 57 MB,
# `higgs --n 3` 0.14 s and 79 MB; `higgs` at n=5 (45 x 45 matrices at k=2)
# took 45 s and 537 MB.
HIGGS_MAX_RANK = 4


def _clamped_rank(suite: str, cfg: SuiteConfig) -> int:
    """cfg.n capped at HIGGS_MAX_RANK, with a note on stderr when capped (the
    report echoes the requested n)."""
    if cfg.n > HIGGS_MAX_RANK:
        print(f"note: suite {suite} runs at n={HIGGS_MAX_RANK} "
              f"(requested n={cfg.n})", file=sys.stderr)
    return min(cfg.n, HIGGS_MAX_RANK)


def _higgs_residuals(st: hg.HiggsStencil) -> tuple[float, float]:
    """The algebraic and the finite-difference residual at one base point."""
    frame_k = st.frame
    alg = max(hg.theta_square_residual(frame_k), hg.adjoint_check(frame_k),
              hg.type_block_residual(frame_k))
    curv = float(np.max(np.abs(hg.curvature_operator(st) - hg.curvature_algebraic(frame_k))))
    fd = max(hg.connection_split_check(st).residual, hg.flatness_check(st).residual, curv,
             hg.chern_compatibility_check(st), hg.theta_holomorphy_check(st))
    return alg, fd


def suite_higgs(cfg: SuiteConfig, tol: Tolerances):
    n = _clamped_rank("higgs", cfg)
    rng = np.random.default_rng([cfg.seed, 2])
    space, j0, frame = _workspace(n)
    checks = []
    points = [kns.BsdPoint(phi=np.zeros((n, n))), kns.random_bsd_point(n, rng, 0.45)]
    for k in [kk for kk in (0, 1, 2) if kk <= 2 * n]:
        field_ = hg.HiggsField(space, j0, frame, k)
        alg = fd = 0.0
        for bp in points:
            point_alg, point_fd = _higgs_residuals(field_.stencil(kns.coords_from_sym(bp.phi)))
            alg, fd = max(alg, point_alg), max(fd, point_fd)
        checks.append(_check(f"algebraic-identities-k{k}", "higgs-structure", alg,
                             tol("algebraic-identity")))
        checks.append(_check(f"connection-identities-k{k}", "higgs-structure", fd,
                             tol("fd-identity")))
    # The closed-form Gram data against the route through the real structure.
    field_ = hg.HiggsField(space, j0, frame, 1)
    route = 0.0
    for bp in points:
        coords = kns.coords_from_sym(bp.phi)
        oracle = sl.dual_metric_gram(space, field_.structure(coords), field_.covectors)
        route = max(route, float(np.max(np.abs(field_.gram1(coords) - oracle))))
    checks.append(_check("gram-structure-route", "higgs-structure", route,
                         tol("algebraic-identity")))
    return checks


def suite_burns_bounds(cfg: SuiteConfig, tol: Tolerances):
    n = cfg.n
    space, j0, frame = _workspace(n)
    pairs = np.random.default_rng([cfg.seed, 32]).standard_normal(
        (wp.CLOSEDNESS_PAIRS, 2, kns.sym_dim(n), 2)) @ np.array([1, 1j])   # (X, Z) per pair
    closedness = (kns.random_bsd_point(n, np.random.default_rng([cfg.seed, 31]), 0.5), pairs)
    rep = wp.burns_bounds(space, j0, frame, samples=cfg.samples,
                          seed=int(np.random.default_rng([cfg.seed, 3]).integers(2**31)),
                          closedness=closedness)
    bound = -2.0 / n
    return [
        _check("max-holomorphic-sectional", "sectional-bound", rep.max_hsc,
               bound + tol("hsc-margin"), witness=rep.worst_hsc_witness),
        _check("max-bisectional", "bisectional-nonpositive", rep.max_bisectional,
               tol("bisectional")),
        _check("paired-bisectional-excess", "bisectional-paired-bound",
               rep.max_paired_bisectional_excess, tol("hsc-margin")),
        _check("max-ricci", "ricci-bound", rep.max_ricci, bound + tol("ricci-margin")),
        _check("metric-closedness", "metric-kahler", rep.metric_closedness,
               tol("kahler-closedness")),
        _check("closed-form-metric", "closed-form-metric", rep.max_metric_error,
               tol("closed-form-metric")),
        _check("closed-form-pairing", "closed-form-curvature", rep.max_pairing_error,
               tol("closed-form-fd")),
        _check("ricci-einstein", "kahler-einstein", rep.max_einstein_defect,
               tol("ricci-einstein")),
        _check("sectional-sharpness", "sectional-sharpness", rep.max_sharpness_defect,
               tol("hsc-exact-margin")),
        _check("hsc-ascent", "sectional-bound", rep.max_ascent_hsc,
               bound + tol("hsc-exact-margin")),
    ]


def suite_curvature_formula(cfg: SuiteConfig, tol: Tolerances):
    n = _clamped_rank("curvature-formula", cfg)
    rng = np.random.default_rng([cfg.seed, 4])
    space, j0, frame = _workspace(n)
    count = max(1, min(20, cfg.samples // 5))
    worst = 0.0
    worst_sym = 0.0
    worst_closed = 0.0
    witness = None
    for _ in range(count):
        bp = kns.random_bsd_point(n, rng, 0.55)
        tensor = wp.curvature_fd(space, j0, frame, bp)
        resid = float(np.max(np.abs(wp.curvature_formula_terms(space, j0, frame, bp)
                                    - tensor.entries)))
        worst_sym = max(worst_sym, tensor.kahler_symmetry_defect())
        worst_closed = max(worst_closed, float(np.max(np.abs(
            wp.ClosedFormCurvature(bp.phi).tensor().entries - tensor.entries))))
        if resid > worst:
            worst = resid
            witness = {"basepoint": bp.phi.tolist()}
    checks = [
        _check("fd-vs-formula", "curvature-three-terms", worst,
               tol("curvature-formula"), witness=witness),
        _check("kahler-symmetries", "curvature-symmetry", worst_sym,
               tol("curvature-symmetry")),
        _check("closed-form-vs-fd", "closed-form-curvature", worst_closed,
               tol("closed-form-fd")),
    ]
    degrees = [k for k in (2,) if k <= 2 * n - 1] or []
    for k in degrees:
        bp = kns.random_bsd_point(n, rng, 0.45)
        rep = wp.df_metric(space, j0, frame, bp, normalization=k)
        if rep.degenerate:
            continue
        checks.append(_check(f"degree-ratio-spread-k{k}", "metric-degree-ratio",
                             rep.ratio_spread, tol("ratio-spread")))
        checks.append(CheckRecord(name=f"degree-ratio-value-k{k}",
                                  anchor="metric-degree-ratio", status="pass",
                                  value=float(rep.ratio_to_degree1),
                                  threshold=float("nan"), comparison="recorded"))
    return checks


def suite_trace_inequality(cfg: SuiteConfig, tol: Tolerances):
    rng = np.random.default_rng([cfg.seed, 5])
    worst_gap = -np.inf
    witness = None
    for n in range(1, 7):
        # Sample s draws the real then the imaginary part of its kappa.
        raw = rng.standard_normal((max(1, cfg.samples), 2, n, n))
        kappa = raw[:, 0] + 1j * raw[:, 1]
        lhs, rhs = wp.trace_inequality(kappa)
        gap = (rhs - lhs) / np.maximum(1.0, lhs)
        worst = int(np.argmax(gap))
        if gap[worst] > worst_gap:
            worst_gap = gap[worst]
            witness = {"kappa": [[str(x) for x in row] for row in kappa[worst].tolist()]}
    worst_eq = 0.0
    for n in range(1, 7):
        count = max(50, cfg.samples // 10)
        raw = np.empty((count, n, n), dtype=complex)
        c = np.empty(count)
        for i in range(count):
            raw[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c[i] = rng.uniform(0.2, 3.0)
        lhs, rhs = wp.trace_inequality(c[:, None, None] * np.linalg.qr(raw)[0])
        worst_eq = max(worst_eq, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, lhs))))
    return [
        _check("pointwise-inequality", "trace-power-inequality", worst_gap,
               tol("trace-inequality"), witness=witness),
        _check("equality-on-scalar", "trace-power-equality", worst_eq,
               tol("trace-inequality")),
    ]


def suite_elliptic_family(cfg: SuiteConfig, tol: Tolerances):
    rng = np.random.default_rng([cfg.seed, 6])
    model = fib.elliptic_model(cfg.grid)
    worst_agree = worst_type = worst_top = worst_c = 0.0
    for _ in range(max(1, cfg.samples // 2)):
        t = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(0.3, 3.0)
        slc = fib.elliptic_family(t)
        worst_agree = max(worst_agree, slc.agreement)
        worst_type = max(worst_type, slc.type_residual)
        worst_top = max(worst_top, slc.top_power)
        pts = (rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8)))
        c = fib.evaluate_fields(model, t, pts).c
        worst_c = max(worst_c, float(np.max(np.abs(c))))
    checks = [
        _check("representation-agreement", "elliptic-two-forms", worst_agree,
               tol("elliptic-exact")),
        _check("form-type", "elliptic-form-type", worst_type, tol("elliptic-exact")),
        _check("top-power", "elliptic-degenerate", worst_top, tol("elliptic-exact")),
        _check("geodesic-curvature", "elliptic-degenerate", worst_c,
               tol("elliptic-exact")),
    ]
    values = []
    for s in (0.5, 1.0, 2.0, 4.0):
        g = fib.wp_fiber_metric(fib.fiber_state(model, 1j * s))[0, 0].real
        values.append(g * s * s)
    spread = (max(values) - min(values)) / abs(np.mean(values))
    checks.append(_check("wp-coefficient-constancy", "wp-fiber-scaling", spread,
                         tol("wp-constancy"),
                         witness=None))
    checks.append(CheckRecord(name="wp-coefficient-value", anchor="wp-fiber-scaling",
                              status="pass", value=float(np.mean(values)),
                              threshold=float("nan"), comparison="recorded"))
    state = fib.fiber_state(model, 1j)
    xg = state.spectral.points_grid[0]
    # Ten Bochner potentials, one per row of coefficients, as one stack.
    coeffs = rng.standard_normal((10, 4))[:, :, None, None]
    phi = (coeffs[:, 0] * np.cos(2 * np.pi * xg.real)
           + coeffs[:, 1] * np.sin(2 * np.pi * xg.real)
           + coeffs[:, 2] * np.cos(2 * np.pi * xg.imag)
           + coeffs[:, 3] * np.cos(2 * np.pi * (xg.real + xg.imag)))
    kphi = fib.kappa_phi(state, phi)
    nk, nb, _ = fib.bkn_identity_check(state, phi, kphi)
    pair = fib.kappa_phi_pairing(state, kphi)
    checks.append(_check("flat-fiber-bochner", "flat-fiber-bochner",
                         np.max(np.abs(nk - nb)), tol("bochner")))
    checks.append(_check("variation-pairing", "flat-fiber-pairing", np.max(np.abs(pair)),
                         tol("bochner")))
    return checks


# Base points of the schumacher and projbundle checks on a perturbed or configured model.
T_PERT = 0.3 + 1.2j
T_BUNDLE = 0.4 + 0.2j


def _configured_fibration(cfg: SuiteConfig) -> fib.FibrationModel:
    """The --model fibration family, at cfg.grid unless the spec sets grid."""
    family, params = parse_model_spec(cfg.model)
    if family not in MODEL_SUITES["schumacher"]:
        raise UsageError(f"suite schumacher needs a fibration family, got {family!r}")
    params.setdefault("grid", cfg.grid)
    return MODEL_SUITES["schumacher"][family](**params)


def suite_schumacher(cfg: SuiteConfig, tol: Tolerances):
    model = fib.elliptic_model(cfg.grid)
    if cfg.model is not None:
        pert = _configured_fibration(cfg)
    else:
        pert = fib.perturbed_torus_model(eps=0.05, grid=cfg.grid)
    # Only the residual of the flat family is kept: its grids are freed
    # before the configured model's state is built.
    flat_residual = fib.schumacher_residual(fib.fiber_state(model, 0.2 + 1.1j)).residual
    state = fib.fiber_state(pert, T_PERT)
    rep_pert = fib.schumacher_residual(state)
    lhs, rhs, fs_res = fib.fs_pushforward_check(state, rep_pert)
    avg_lhs, avg_rhs = fib.average_horizontal_positivity(state, rep_pert)
    mb = fib.bracket_mixed_check(pert, T_PERT, np.array([0.23 + 0.11j]))
    dbar = fib.dbar_closedness_residual(state)
    return [
        _check("flat-family-residual", "schumacher-identity", flat_residual,
               tol("schumacher-flat")),
        _check("perturbed-residual", "schumacher-identity", rep_pert.residual,
               tol("schumacher-perturbed")),
        _check("pushforward-identity", "metric-pushforward", fs_res,
               tol("schumacher-perturbed")),
        _check("average-positivity", "horizontal-average-positivity",
               -min(avg_lhs, avg_rhs), tol("schumacher-perturbed")),
        _check("average-identity", "horizontal-average-positivity",
               abs(avg_lhs - avg_rhs), tol("schumacher-perturbed")),
        _check("bracket-verticality", "mixed-bracket", mb.verticality_residual,
               tol("schumacher-flat")),
        _check("bracket-contraction", "mixed-bracket", mb.contraction_residual,
               tol("schumacher-perturbed")),
        _check("variation-dbar-closed", "variation-closedness", dbar,
               tol("schumacher-flat")),
    ]


def _pk_suite_models(grid: int):
    small = min(grid, 16)
    a0 = np.array([[2.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.0]])
    a1 = np.array([[1.0, -0.3j], [0.3j, 2.5]])
    geod = geo.hermitian_geodesic(a0, a1)
    lin = geo.linear_hermitian_path(a0, a1)
    return [
        (fib.elliptic_model(small), True),
        (fib.theta_weight_model(small), True),
        (fib.hermitian_quadratic_model(geod, 2, name="hermitian-geodesic"), True),
        (fib.cross_term_model(), False),
        (fib.perturbed_torus_model(eps=0.05, grid=small), False),
        (fib.hermitian_quadratic_model(lin, 2, name="hermitian-linear"), False),
    ]


def suite_pk_equivalence(cfg: SuiteConfig, tol: Tolerances):
    checks = []
    for model, expect_pk in _pk_suite_models(cfg.grid):
        ts = [0.25 + 1.1j, 1j] if model.proper else [0.3, 0.62]
        rep = fib.pk_residual(model, ts)
        both = max(rep.max_top_power, rep.max_c)
        either = min(rep.max_top_power, rep.max_c)
        if expect_pk:
            checks.append(_check(f"pk-{model.name}", "pk-equivalence", both,
                                 tol("pk-zero")))
        else:
            checks.append(_check(f"nonpk-{model.name}", "pk-equivalence", either,
                                 tol("pk-witness"), comparison=">="))
    return checks


def suite_geodesics(cfg: SuiteConfig, tol: Tolerances):
    rng = np.random.default_rng([cfg.seed, 8])
    worst_theta = worst_end = 0.0
    pairs = max(1, cfg.samples // 2)
    for _ in range(pairs):
        n = int(rng.integers(1, 6))
        g0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a0 = g0 @ g0.conj().T + 0.4 * np.eye(n)
        a1 = g1 @ g1.conj().T + 0.4 * np.eye(n)
        path = geo.hermitian_geodesic(a0, a1)
        worst_end = max(worst_end,
                        float(np.max(np.abs(path(0.0)[0] - a0))),
                        float(np.max(np.abs(path(1.0)[0] - a1))))
        for t in np.linspace(0.0, 1.0, 11):
            worst_theta = max(worst_theta,
                              float(np.max(np.abs(geo.theta_tt(path, t)))))
    checks = [
        _check("geodesic-curvature-residual", "matrix-geodesic", worst_theta,
               tol("geodesic-residual")),
        _check("geodesic-endpoints", "matrix-geodesic", worst_end,
               tol("geodesic-residual")),
    ]

    # Degeneracy equivalence, both truth values, plus duality preservation.
    # Each determinant is read in the unit of its path's closed-form scale s
    # (`geo.ma_scale`): the geodesics vanish, and each linear path is
    # certified at every point against its closed-form floor, so its record
    # is the least |det| / (s floor), at least 1 by the closed form.
    ma_geo = ma_dual = 0.0
    ma_lin = ma_lin_dual = np.inf
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a0 = g0 @ g0.conj().T + 0.6 * np.eye(n)
        a1 = g1 @ g1.conj().T + 0.6 * np.eye(n)
        b0, b1 = geo.complex_legendre(a0), geo.complex_legendre(a1)
        paths = (geo.hermitian_geodesic(a0, a1), geo.linear_hermitian_path(a0, a1),
                 geo.hermitian_geodesic(b0, b1), geo.linear_hermitian_path(b0, b1))
        models = [fib.hermitian_quadratic_model(path, n) for path in paths]
        deltas = (a1 - a0, a1 - a0, b1 - b0, b1 - b0)
        for _ in range(5):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            tau = complex(rng.uniform(0.2, 0.8), rng.uniform(-1, 1))
            ratios = []
            for model, path, delta in zip(models, paths, deltas):
                scale, floor = geo.ma_scale(path(tau.real)[0], delta, z)
                ratios.append((abs(geo.ma_determinant(model, tau, z)) / scale, floor))
            (geod, _), (lin, lin_floor), (dual, _), (lind, lind_floor) = ratios
            ma_geo, ma_dual = max(ma_geo, geod), max(ma_dual, dual)
            ma_lin = min(ma_lin, lin / lin_floor)
            ma_lin_dual = min(ma_lin_dual, lind / lind_floor)
    checks += [
        _check("ma-along-geodesic", "geodesic-degeneracy", ma_geo, tol("ma-degenerate")),
        _check("ma-along-linear", "geodesic-degeneracy", ma_lin, tol("ma-witness"),
               comparison=">="),
        _check("ma-dual-geodesic", "legendre-duality", ma_dual, tol("ma-degenerate")),
        _check("ma-dual-linear", "legendre-duality", ma_lin_dual, tol("ma-witness"),
               comparison=">="),
    ]

    grid = geo.ConvexGrid.from_function(lambda x: x**2, -5, 5, 512)
    dual = geo.real_legendre(grid)
    err = float(np.max(np.abs(dual.values - dual.xs**2 / 4)))
    checks.append(_check("legendre-closed-form", "convex-conjugate", err,
                         tol("legendre-grid")))
    ddual = geo.real_legendre(dual, size=512)
    back = np.interp(ddual.xs, grid.xs, grid.values)
    inv_err = float(np.max(np.abs(back - ddual.values)[10:-10]))
    checks.append(_check("legendre-involution", "convex-conjugate", inv_err,
                         tol("legendre-grid")))

    a0v, a1v = 1.0, 4.0
    p0 = geo.ConvexGrid.from_function(lambda x: a0v * x**2, -5, 5, 512)
    p1 = geo.ConvexGrid.from_function(lambda x: a1v * x**2, -5, 5, 512)
    mid = geo.convex_geodesic(p0, p1, 0.5)
    bmid = 0.5 / a1v + 0.5 / a0v
    checks.append(_check("convex-geodesic-closed-form", "convex-geodesic",
                         float(np.max(np.abs(mid.values - mid.xs**2 / bmid))),
                         tol("legendre-grid")))
    d_geo = geo.dual_path_second_derivative(p0, p1, lambda t: geo.convex_geodesic(p0, p1, t))
    d_lin = geo.dual_path_second_derivative(
        p0, p1, lambda t: geo.ConvexGrid(xs=p0.xs, values=(1 - t) * p0.values + t * p1.values))
    checks.append(_check("dual-linearity-ratio", "dual-linearity",
                         d_lin / max(d_geo, 1e-300), tol("dual-linearity-ratio"),
                         comparison=">="))
    # The dual path of the geodesic is linear up to the second-difference
    # scale of the 512-point duals.
    checks.append(_check("dual-geodesic-linearity", "dual-linearity", d_geo,
                         10.0 * p0.step**2 * 16))

    f_geo = lambda t, xs: xs**2 / (t / a1v + (1 - t) / a0v)
    f_lin = lambda t, xs: (1 - t) * a0v * xs**2 + t * a1v * xs**2
    r_coarse = geo.ma_grid_residual(f_geo, (0.2, 0.8), (-2, 2), nt=129, nx=129)
    r_fine = geo.ma_grid_residual(f_geo, (0.2, 0.8), (-2, 2), nt=257, nx=257)
    ratio = r_coarse / max(r_fine, 1e-300)
    checks.append(_check("ma-refinement-order-low", "ma-order", ratio,
                         tol("ma-order-low"), comparison=">="))
    checks.append(_check("ma-refinement-order-high", "ma-order", ratio,
                         tol("ma-order-high")))
    r_lin = geo.ma_grid_residual(f_lin, (0.2, 0.8), (-2, 2), nt=129, nx=129)
    checks.append(_check("ma-linear-control", "ma-order",
                         r_lin / max(r_coarse, 1e-300), 10.0, comparison=">="))

    probe = geo.gradient_image_probe(
        geo.ConvexGrid.from_function(lambda x: x**4 + x**2, -3, 3, 401), pairs=100,
        seed=cfg.seed % 2**31)
    checks.append(_check("gradient-image-midpoints", "gradient-image-convexity",
                         probe.members, probe.tested_pairs, comparison=">="))
    return checks


def suite_brunn_minkowski(cfg: SuiteConfig, tol: Tolerances):
    rng = np.random.default_rng([cfg.seed, 9])
    checks = []
    for n in (2, 3):
        g = rng.standard_normal((cfg.samples, n, n))
        a = g @ g.swapaxes(-1, -2) + 0.3 * np.eye(n)
        rows, cols = np.triu_indices(n)
        cone = geo.ConeBasis(basis=kns.sym_basis(n), point=a[:, rows, cols])
        worst = float(np.linalg.eigvalsh(geo.bm_hessian(cone)).min())
        checks.append(_check(f"hessian-min-eig-n{n}", "logdet-convexity", worst,
                             tol("bm-positivity"), comparison=">="))
    worst_rho = np.inf
    worst_margin = np.inf
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g0 = rng.standard_normal((n, n))
        g1 = rng.standard_normal((n, n))
        h0 = g0 @ g0.T + 0.4 * np.eye(n)
        h1 = g1 @ g1.T + 0.4 * np.eye(n)
        rep = geo.mabuchi_profile(h0, h1, np.linspace(0.05, 0.95, 19), volume=1.0)
        worst_rho = min(worst_rho, rep.min_rho)
        worst_margin = min(worst_margin, rep.log_convexity_margin)
    checks.append(_check("profile-nonnegative", "energy-convexity", worst_rho,
                         tol("mabuchi-positivity"), comparison=">="))
    checks.append(_check("profile-log-convexity", "energy-convexity", worst_margin,
                         tol("log-convexity"), comparison=">="))
    return checks


def suite_projbundle(cfg: SuiteConfig, tol: Tolerances):
    rng = np.random.default_rng([cfg.seed, 10])
    checks = []
    flat_models = []
    for r in (2, 3):
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        h0 = g @ g.conj().T + 0.5 * np.eye(r)
        flat_models.append(pb.twisted_model(h0, weight=0.8, name=f"twisted-r{r}"))
        flat_models.append(pb.constant_model(np.eye(r), name=f"flat-r{r}"))
    worst_top = 0.0
    worst_fs = 0.0
    worst_pos = np.inf
    worst_flat = 0.0
    for model in flat_models:
        for _ in range(max(1, cfg.samples // len(flat_models) // 4)):
            t = rng.standard_normal() + 1j * rng.standard_normal()
            v = np.empty((4, model.r), dtype=complex)
            for i in range(4):
                v[i] = rng.standard_normal(model.r) + 1j * rng.standard_normal(model.r)
            v[:, model.chart] = 1.0
            omega = pb.pk_form(model, t, v)
            worst_top = max(worst_top, float(np.max(pb.pk_top_power(omega))))
            worst_pos = min(worst_pos, float(np.min(pb.fiber_positivity_margin(omega))))
            worst_flat = max(worst_flat, pb.projective_flatness_residual(model, t))
        worst_fs = max(worst_fs, pb.fiber_fs_check(model, 0.3,
                                                   samples=max(8, cfg.samples // 40),
                                                   seed=cfg.seed % 2**31))
    checks += [
        _check("flat-top-power", "projflat-degenerate", worst_top, tol("projflat-zero")),
        _check("flat-residual", "projflat-degenerate", worst_flat, tol("projflat-zero")),
        _check("fiber-positivity", "projflat-degenerate", worst_pos, 1e-6,
               comparison=">="),
        _check("fiber-fubini-study", "fiber-restriction", worst_fs,
               tol("fs-agreement")),
    ]
    for weights in ((1.0, 2.0), (1.0, 2.0, 0.5)):
        model = pb.split_twist_model(weights)
        resid = pb.projective_flatness_residual(model, 0.5)
        top = pb.pk_top_power(pb.pk_form(model, 0.5, np.ones(model.r, dtype=complex)))
        checks.append(_check(f"falsifier-residual-r{model.r}", "projflat-falsifier",
                             resid, 0.1, comparison=">="))
        checks.append(_check(f"falsifier-top-power-r{model.r}", "projflat-falsifier",
                             top, tol("pk-witness"), comparison=">="))
    dmax = 0.0
    for model in [flat_models[0], pb.split_twist_model((1.0, 2.0))]:
        dmax = max(dmax, pb.d_closedness_residual(model, 0.3 + 0.1j,
                                                  np.array([1.0, 0.4 - 0.2j])))
    checks.append(_check("form-closedness", "form-closedness", dmax,
                         tol("d-closedness")))
    checks.append(_check("form-closedness-r3", "form-closedness",
                         pb.d_closedness_residual(flat_models[2], 0.3 + 0.1j,
                                                  np.array([1.0, 0.4, 0.4])),
                         tol("d-closedness")))
    rank1 = pb.twisted_model(np.eye(1), weight=2.0)
    checks.append(_check("rank-one-flatness", "projflat-degenerate",
                         pb.projective_flatness_residual(rank1, 0.7 + 0.4j),
                         tol("projflat-zero")))
    if cfg.model is not None:
        family, params = parse_model_spec(cfg.model)
        # In the normalized metric the residual is relative to max|h|, as the
        # top power (which is invariant under h -> c h) already is.
        model = pb.normalized_model(MODEL_SUITES["projbundle"][family](**params))
        resid = pb.projective_flatness_residual(model, T_BUNDLE)
        v = np.ones(model.r, dtype=complex)
        top = pb.pk_top_power(pb.pk_form(model, T_BUNDLE, v))
        # The two degeneracy detectors must agree on the configured model,
        # and a NaN reading agrees with nothing.
        consistent = 0.0 if (resid < 1e-8) == (top < 1e-8) and np.isfinite(resid + top) else 1.0
        checks.append(_check("configured-model-consistency", "projflat-degenerate",
                             consistent, 0.5,
                             witness={"family": family, "residual": resid,
                                      "top_power": top}))
    return checks


SUITES = {
    "kns-roundtrip": suite_kns_roundtrip,
    "higgs": suite_higgs,
    "burns-bounds": suite_burns_bounds,
    "curvature-formula": suite_curvature_formula,
    "trace-inequality": suite_trace_inequality,
    "elliptic-family": suite_elliptic_family,
    "schumacher": suite_schumacher,
    "pk-equivalence": suite_pk_equivalence,
    "geodesics": suite_geodesics,
    "brunn-minkowski": suite_brunn_minkowski,
    "projbundle": suite_projbundle,
}


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the named suite (or all of them, one after another in registry
    order, each check prefixed with its suite name) and collect check records.
    A --model goes only to the suite of its family's registry (`MODEL_SUITES`).
    """
    start = time.perf_counter()
    tol = Tolerances(config)
    if config.suite == "all":
        names = list(SUITES)
    else:
        names = [config.suite]
    results: list[CheckRecord] = []
    family = parse_model_spec(config.model)[0] if config.model is not None else None
    for name in names:
        prefix = f"{name}/" if config.suite == "all" else ""
        suite_config = config
        if family is not None and family not in MODEL_SUITES.get(name, ()):
            suite_config = replace(config, model=None)
        for record in SUITES[name](suite_config, tol):
            record.name = prefix + record.name
            results.append(record)
    elapsed = time.perf_counter() - start
    cfg_echo = {"suite": config.suite, "seed": config.seed, "n": config.n,
                "samples": config.samples, "grid": config.grid,
                "model": config.model,
                "tolerances": dict(sorted(config.tolerances.items()))}
    return SuiteReport(suite=config.suite, config=cfg_echo,
                       overrides=[f"override:{k}" for k in sorted(config.tolerances)],
                       checks=results, wall_time_s=elapsed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_payload(report: SuiteReport) -> dict:
    """Canonical nested structure; wall time is excluded so identical configs
    produce byte-identical files."""
    return {
        "suite": report.suite,
        "config": report.config,
        "overrides": report.overrides,
        "passed": report.passed,
        "checks": [dict(vars(c)) for c in report.checks],   # the witness is already _jsonable
    }


def emit_report(report: SuiteReport, fmt: str, path: str | Path) -> Path:
    path = Path(path)
    if fmt == "json":
        text = json.dumps(report_payload(report), indent=2) + "\n"
        path.write_text(text)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "anchor", "status", "value", "threshold",
                         "comparison"])
        for c in report.checks:
            writer.writerow([c.name, c.anchor, c.status, repr(c.value),
                             repr(c.threshold), c.comparison])
        path.write_text(buf.getvalue())
    else:
        raise UsageError(f"unknown format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def profile_wp_coefficient(config: SuiteConfig):
    model = fib.elliptic_model(config.grid)
    rows = []
    for s in np.linspace(0.5, 4.0, 15):
        g = fib.wp_fiber_metric(fib.fiber_state(model, 1j * s))[0, 0].real
        rows.append((float(s), float(g)))
    return ["im_t", "wp_coefficient"], rows


def profile_ma_refinement(config: SuiteConfig):
    f_geo = lambda t, xs: xs**2 / (t / 4.0 + (1 - t) / 1.0)
    rows = []
    for m in (17, 33, 65, 129, 257):
        h = 4.0 / (m - 1)
        rows.append((float(h), geo.ma_grid_residual(f_geo, (0.2, 0.8), (-2, 2),
                                                    nt=m, nx=m)))
    return ["step", "ma_residual"], rows


def profile_burns_hsc(config: SuiteConfig):
    rng = np.random.default_rng([config.seed, 30])
    nsym = kns.sym_dim(config.n)
    points, directions = [], []
    for _ in range(min(config.samples, 40)):
        points.append(kns.random_bsd_point(config.n, rng, 0.75))
        directions.append(rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym))
    hsc = wp.ClosedFormCurvature(np.stack([bp.phi for bp in points])).hsc(np.stack(directions))
    rows = sorted(zip([bp.radius for bp in points], hsc.tolist()))
    return ["basepoint_radius", "hsc"], rows


PROFILES = {
    "wp-coefficient": ("elliptic-family", profile_wp_coefficient),
    "ma-refinement": ("geodesics", profile_ma_refinement),
    "burns-hsc": ("burns-bounds", profile_burns_hsc),
}


def emit_plot_data(config: SuiteConfig, profile: str, path: str | Path) -> Path:
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}; known: "
                         f"{', '.join(sorted(PROFILES))}")
    available = [p for p, (s, _) in PROFILES.items()
                 if config.suite in (s, "all")]
    if not available:
        # Suite produces no profile data: warn and emit an empty file.
        print(f"warning: suite {config.suite!r} has no plot profiles; "
              f"writing empty output", file=sys.stderr)
        Path(path).write_text("")
        return Path(path)
    suite, fn = PROFILES[profile]
    if config.suite not in (suite, "all"):
        raise UsageError(f"profile {profile!r} belongs to suite {suite!r}")
    header, rows = fn(config)
    path = Path(path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(x)) for x in row])
    path.write_text(buf.getvalue())
    return path


# ---------------------------------------------------------------------------
# Command-line front ends
# ---------------------------------------------------------------------------

def _number(kind, text: str, what: str):
    """kind(text) for kind int or float; a malformed value is a usage error."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{what} must be {noun}, got {text!r}") from None


def _check_output_path(path: str) -> None:
    """Refuse an output path that cannot be written, before any computation."""
    target = Path(path)
    parent = target.parent
    if not parent.is_dir():
        raise UsageError(f"output directory {str(parent)!r} does not exist")
    if target.is_dir():
        raise UsageError(f"output path {path!r} is a directory")
    if not os.access(parent, os.W_OK):
        raise UsageError(f"output directory {str(parent)!r} is not writable")


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"config file {path!r} is malformed: "
                         f"{str(exc).splitlines()[0]}") from None
    if not read:
        raise UsageError(f"config file {path!r} not found")
    out: dict = {}
    if parser.has_section("verify"):
        sec = parser["verify"]
        for key in ("suite", "model"):
            if key in sec:
                out[key] = sec[key]
        for key in ("seed", "n", "samples", "grid"):
            if key in sec:
                out[key] = _number(int, sec[key], f"[verify] {key}")
    if parser.has_section("model"):
        sec = parser["model"]
        if "family" in sec:
            extra = " ".join(f"{k}={v}" for k, v in sec.items() if k != "family")
            out["model"] = (sec["family"] + (" " + extra if extra else "")).strip()
    if parser.has_section("tolerances"):
        out["tolerances"] = {k: _number(float, v, f"[tolerances] {k}")
                             for k, v in parser["tolerances"].items()}
    return out


def _parse_tol(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"tolerance override {item!r} must be key=value")
        key, val = item.split("=", 1)
        out[key.strip()] = _number(float, val, f"tolerance override {key.strip()!r}")
    return out


def _config_from_args(args) -> SuiteConfig:
    base: dict = {}
    if getattr(args, "config", None):
        base = _load_config_file(args.config)
    merged_tol = dict(base.get("tolerances", {}))
    merged_tol.update(_parse_tol(getattr(args, "tol", None)))
    return SuiteConfig(
        suite=args.suite or base.get("suite", "all"),
        seed=args.seed if args.seed is not None else base.get("seed", 7),
        n=args.n if args.n is not None else base.get("n", 2),
        samples=args.samples if args.samples is not None else base.get("samples", 100),
        tolerances=merged_tol,
        grid=args.grid if args.grid is not None else base.get("grid", 64),
        model=getattr(args, "model", None) or base.get("model"),
    )


def main_verify(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify", description="Run a named verification suite.")
    parser.add_argument("--suite", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--tol", action="append", metavar="key=val")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--model", default=None,
                        metavar="family [key=val ...]",
                        help="built-in model family with parameters, e.g. "
                             "'perturbed-torus eps=0.05'")
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.out:
            _check_output_path(args.out)
        report = run_suite(config)
    except (UsageError, fib.GridResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        flag = "PASS" if check.status == "pass" else check.status.upper()
        print(f"[{flag}] {check.name}: value={check.value:.6g} "
              f"{check.comparison} {check.threshold:.6g} ({check.anchor})")
    print(f"suite={report.suite} checks={len(report.checks)} "
          f"passed={report.passed} wall={report.wall_time_s:.2f}s")
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def main_plot_data(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plot-data", description="Emit CSV series for external plotting.")
    parser.add_argument("--suite", required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--config", default=None)
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        _check_output_path(args.out)
        emit_plot_data(config, args.profile, args.out)
    except (UsageError, fib.GridResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"profile {args.profile} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main_verify())
