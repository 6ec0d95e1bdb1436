"""Spans and counters recorded from outside pklab, by patching its public names.

A `Tracer` replaces each traced function with a wrapper at every place the
function is looked up: the module attribute, every other pklab module that
imported it by name (``pklab.higgs.structure_from_bsd``), a class attribute
(``HiggsField.theta``) or a registry entry (``cli.SUITES``).  `Tracer.restore`
puts every original object back.

Two kinds of wrapper exist.  A span records name, start, end, parent span and
thread; a tally only counts, because hot leaf functions such as
``wedge.sort_sign`` (over a million calls per run) would cost more to span
than to run.  Spans are appended to one list and tallies are
``itertools.count`` objects; both operations are atomic under the GIL, so the
thread pool in ``cli.run_suite`` needs no lock for them.  The parent stack is
kept per thread; a pool thread's first span takes the open ``run_suite`` span
as its parent.

Names are ``<layer>.<attribute path>``, where the layer is the pklab module
without its leading underscore (``fd`` for ``pklab._fd``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "pklab"

# (module, attribute path) of every function that gets a span.
SPANNED = [
    ("wpcurv", "curvature_fd"),
    ("wpcurv", "burns_bounds"),
    ("wpcurv", "curvature_formula_terms"),
    ("_fd", "hermitian_hessian"),
    ("_fd", "holo_derivative"),
    ("_fd", "antiholo_derivative"),
    ("higgs", "HiggsField.theta"),
    ("higgs", "HiggsField.gram"),
    ("higgs", "HiggsField.projectors"),
    ("higgs", "HiggsField.frame_change"),
    ("higgs", "curvature_operator"),
    ("higgs", "flatness_check"),
    ("wedge", "derivation_matrix"),
    ("wedge", "compound_matrix"),
    ("kns", "kns_tensor"),
    ("kns", "kns_tensor_by_projection"),
    ("kns", "structure_from_bsd"),
    ("symplin", "dual_metric_gram"),
    ("fibration", "model_from_potential"),
    ("fibration", "evaluate_fields"),
    ("fibration", "SpectralFiber.__init__"),
    ("fibration", "schumacher_residual"),
    ("geodesics", "ma_grid_residual"),
    ("geodesics", "real_legendre"),
    ("projbundle", "d_closedness_residual"),
    ("cli", "run_suite"),
    ("cli", "emit_report"),
]

# Functions that only get a call tally.
TALLIED = [
    ("wedge", "sort_sign"),
    ("wedge", "conjugation_matrix"),
    ("geodesics", "ma_determinant"),
    ("projbundle", "pk_top_power"),
]

# The HiggsField methods that look up HiggsField._memo.  A call that opens a
# child span (a wedge or symplin function, or another memoized method)
# computed its value; a call without one was a hit.
MEMO_LOOKUPS = ["higgs.HiggsField.theta", "higgs.HiggsField.gram",
                "higgs.HiggsField.projectors", "higgs.HiggsField.frame_change"]

# Stencils whose field argument is wrapped to count evaluations.  dbar_along
# and d_residual_11 delegate to these, so each evaluation is counted once.
STENCILS = {"fd.holo_derivative", "fd.antiholo_derivative", "fd.hermitian_hessian"}


def _module(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


def _name(module: str, path: str) -> str:
    """``fd.hermitian_hessian`` for ``pklab._fd``; a constructor is named
    after its class."""
    return f"{module.lstrip('_')}.{path}".removesuffix(".__init__")


class Tracer:
    """Records spans and tallies while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, name, start, end, thread)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tallies: dict[str, itertools.count] = {}
        self._sums: dict[str, int] = defaultdict(int)
        self._sum_lock = threading.Lock()
        self._patches: list[tuple] = []    # (owner, attribute, original)
        self._pool_parent = None

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tick(self, name: str):
        """A callable that counts one event under `name` per call."""
        return self._tallies.setdefault(name, itertools.count()).__next__

    def _add(self, name: str, amount: int) -> None:
        with self._sum_lock:
            self._sums[name] += int(amount)

    def counts(self) -> dict[str, int]:
        """Tallies and sums recorded so far (a count's repr is ``count(N)``)."""
        out = {name: int(repr(c)[6:-1]) for name, c in self._tallies.items()}
        with self._sum_lock:
            out.update(self._sums)
        return out

    def spanned(self, name: str, fn, before=None):
        """Wrap `fn` in a span; `before(args, kwargs)` may replace the arguments."""
        pool_root = name == "cli.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(sid)
            if pool_root:
                self._pool_parent = sid
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if pool_root:
                    self._pool_parent = None
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))

        return wrapper

    def tallied(self, name: str, fn):
        tick = self._tick(f"{name}.calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _before(self, name: str, fn):
        """Argument hook for the spans that also feed a counter."""
        if name in STENCILS:
            tick = self._tick("fd.stencil_evals")

            def count_field(args, kwargs):
                f = args[0]

                def counted(z):
                    tick()
                    return f(z)

                return (counted,) + args[1:], kwargs

            return count_field
        if name == "geodesics.ma_grid_residual":
            signature = inspect.signature(fn)

            def grid_points(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add("geodesics.ma_grid_points",
                          bound.arguments["nt"] * bound.arguments["nx"])
                return args, kwargs

            return grid_points
        return None

    def _metric_field(self, name: str, fn):
        """The closure metric_field returns is one metric evaluation per call."""
        tick = self._tick("wpcurv.metric_evals")

        @functools.wraps(fn)
        def metric_field(*args, **kwargs):
            field_, gram_at = fn(*args, **kwargs)

            def counted_gram_at(coords):
                tick()
                return gram_at(coords)

            return field_, counted_gram_at

        return metric_field

    def _fft_points(self, name: str, fn):
        @functools.wraps(fn)
        def derivative(fiber, f, a):
            self._add("fibration.fft_points", f.size)
            return fn(fiber, f, a)

        return derivative

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module: str, path: str, make) -> None:
        """Patch the definition and every pklab module global bound to it."""
        owner = _module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(_name(module, path), original)
        self._patch(owner, attr, wrapper)
        for mod in _package_modules():
            if mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self) -> "Tracer":
        import pklab.cli  # noqa: F401  (loads every traced module)

        for module, path in SPANNED:
            self._patch_everywhere(
                module, path,
                lambda name, fn: self.spanned(name, fn, self._before(name, fn)))
        for module, path in TALLIED:
            self._patch_everywhere(module, path, self.tallied)
        self._patch_everywhere("wpcurv", "metric_field", self._metric_field)
        for method in ("d_z", "d_zbar"):
            self._patch_everywhere("fibration", f"SpectralFiber.{method}",
                                   self._fft_points)
        suites = _module("cli").SUITES
        for key, fn in list(suites.items()):
            self._patches.append((suites, key, fn))
            suites[key] = self.spanned(f"cli.suite.{key}", fn)
        return self

    def restore(self) -> None:
        """Put every original object back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(f"{PACKAGE}.")]


def bindings() -> dict[tuple[str, str], object]:
    """Every name a Tracer could patch, mapped to the object bound to it.

    Taken before and after a traced run, the two must hold the same objects.
    """
    import pklab.cli

    out = {}
    for mod in _package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, obj in vars(value).items():
                    out[(mod.__name__, f"{key}.{member}")] = obj
    for key, fn in pklab.cli.SUITES.items():
        out[("pklab.cli", f"SUITES[{key}]")] = fn
    return out


# -- analysis -----------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and calls with children.

    A span's self time is its duration minus the part of it that its child
    spans cover; children may run on other threads and overlap.
    """
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": 0})
    for sid, _, name, start, end, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        row["parents"] += sid in children
    return table


def suite_timings(spans) -> tuple[dict[str, dict[str, float]], float]:
    """Per suite, busy seconds and the wait from its run_suite's start; and
    the summed wall time of the run_suite spans."""
    roots = {sid: start for sid, _, name, start, _, _ in spans if name == "cli.run_suite"}
    per_suite: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "wait_s": 0.0})
    for _, parent, name, start, end, _ in spans:
        if name.startswith("cli.suite.") and parent in roots:
            row = per_suite[name[len("cli.suite."):]]
            row["s"] += end - start
            row["wait_s"] += start - roots[parent]
    run_suite_s = sum(end - start for _, _, name, start, end, _ in spans
                      if name == "cli.run_suite")
    return dict(per_suite), run_suite_s
