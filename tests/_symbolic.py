"""Sympy oracle for the closed-form fibration jets (tests only).

`compile_jets` differentiates a potential in t, tbar, z0.., zb0.. and
lambdifies the eight jets a `FibrationModel` carries; `family_potential`
writes the potential of each built-in family symbolically, with the
builder's default parameters.
"""

import inspect

import numpy as np
import sympy as sp

from pklab import fibration as fib


def symbols(n: int = 1):
    """(t, tbar, (z0, ..), (zb0, ..)): Wirtinger variables, conjugates independent."""
    t, tb = sp.symbols("t tbar")
    zs = tuple(sp.Symbol(f"z{i}") for i in range(n))
    zbs = tuple(sp.Symbol(f"zb{i}") for i in range(n))
    return t, tb, zs, zbs


def compile_jets(expr, n: int = 1):
    """(second, third, metric_t) callbacks of a potential with `FibrationModel`'s
    shapes."""
    t, tb, zs, zbs = symbols(n)
    args = (t, tb) + zs + zbs

    def compile_(e):
        fn = sp.lambdify(args, e, modules="numpy")

        def call(tv, pts):
            vals = fn(tv, np.conj(tv), *pts, *np.conj(pts))
            return np.broadcast_to(np.asarray(vals, dtype=complex), pts.shape[1:]).copy()

        return call

    bb_f = compile_(sp.diff(expr, t, tb))
    bf_f = [compile_(sp.diff(expr, t, zbs[b])) for b in range(n)]
    ff_f = [[compile_(sp.diff(expr, zs[a], zbs[b])) for b in range(n)] for a in range(n)]
    bff_f = [[compile_(sp.diff(expr, t, zbs[c], zbs[b])) for b in range(n)] for c in range(n)]
    fff_f = [[[compile_(sp.diff(expr, zs[a], zbs[c], zbs[b])) for b in range(n)]
              for c in range(n)] for a in range(n)]
    ff_t_f = [[compile_(sp.diff(expr, t, zs[a], zbs[c])) for c in range(n)] for a in range(n)]
    ff_ttb_f = [[compile_(sp.diff(expr, t, tb, zs[a], zbs[c])) for c in range(n)]
                for a in range(n)]
    ff_tb_f = [[[compile_(sp.diff(expr, t, zs[a], zbs[c], zbs[b])) for b in range(n)]
                for c in range(n)] for a in range(n)]

    def second(tv, pts):
        pts = np.asarray(pts, dtype=complex)
        bb = bb_f(tv, pts)
        bf = np.stack([bf_f[b](tv, pts) for b in range(n)])
        ff = np.stack([np.stack([ff_f[a][b](tv, pts) for b in range(n)]) for a in range(n)])
        return bb, bf, ff

    def third(tv, pts):
        pts = np.asarray(pts, dtype=complex)
        bff = np.stack([np.stack([bff_f[c][b](tv, pts) for b in range(n)]) for c in range(n)])
        fff = np.stack([np.stack([np.stack([fff_f[a][c][b](tv, pts) for b in range(n)])
                                  for c in range(n)]) for a in range(n)])
        return bff, fff

    def metric_t(tv, pts):
        pts = np.asarray(pts, dtype=complex)
        ff_t = np.stack([np.stack([ff_t_f[a][c](tv, pts) for c in range(n)]) for a in range(n)])
        ff_ttb = np.stack([np.stack([ff_ttb_f[a][c](tv, pts) for c in range(n)])
                           for a in range(n)])
        ff_tb = np.stack([np.stack([np.stack([ff_tb_f[a][c][b](tv, pts) for b in range(n)])
                                    for c in range(n)]) for a in range(n)])
        return ff_t, ff_ttb, ff_tb

    return second, third, metric_t


def model(expr, name: str, n: int = 1, lattice=None, grid: int = 64) -> fib.FibrationModel:
    """A model whose jets are differentiated from `expr` by sympy."""
    return fib.model_from_potential(compile_jets(expr, n), name, n=n, lattice=lattice,
                                    grid=grid)


def _height(t, tb):
    return (t - tb) / (2 * sp.I)


def _flat(t, tb, z, zb):
    return -((z - zb) ** 2) / (2 * _height(t, tb))


def _perturbed(t, tb, z, zb, eps):
    b = (z - zb) / (t - tb)
    a = (z + zb) / 2 - ((t + tb) / 2) * b
    return _flat(t, tb, z, zb) + eps * _height(t, tb) * sp.cos(2 * sp.pi * a)


POTENTIALS = {
    "product": lambda t, tb, z, zb, base_weight: z * zb + base_weight * t * tb,
    "vertical": lambda t, tb, z, zb: z * zb,
    "cross": lambda t, tb, z, zb, lam: z * zb + t * tb + lam * z * zb * t * tb,
    "elliptic": _flat,
    "theta-weight": lambda t, tb, z, zb: (z + zb) ** 2 / (2 * _height(t, tb)),
    "perturbed-torus": _perturbed,
}


def family_potential(family: str, **params):
    """Symbolic potential of a `fib.MODEL_FAMILIES` family (grid is ignored)."""
    signature = inspect.signature(fib.MODEL_FAMILIES[family])
    values = {key: params.get(key, p.default) for key, p in signature.parameters.items()
              if key != "grid"}
    t, tb, (z,), (zb,) = symbols(1)
    return POTENTIALS[family](t, tb, z, zb, **values)
