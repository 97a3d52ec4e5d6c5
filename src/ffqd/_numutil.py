"""Finite-difference and quadrature helpers: uniform grids in x, panels in t."""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import _require_positive


@functools.lru_cache
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-node Gauss-Legendre rule on [-1, 1], built once per n (read-only)."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


# 32- and 64-node rules stacked so that one integrand call per panel serves
# both; their difference is the error estimate
_GL32, _GL64 = legendre_rule(32), legendre_rule(64)
_GL_NODES = np.concatenate((_GL32[0], _GL64[0]))
_GL_MAX_DEPTH = 8  # a panel is halved at most this often


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, rel_tol: float, abs_tol: float = 0.0
) -> tuple[float, float]:
    """(integral of f over [a, b], error estimate) from 64-node Gauss-Legendre panels.

    f takes the array of a panel's nodes and returns the integrand there; it
    is called once per panel.  The error estimate of a panel is the
    difference between its 64-node and 32-node values.  A panel whose
    estimate exceeds its width's share of max(abs_tol, rel_tol |integral|) is
    halved, at most eight times; RuntimeError if one still misses then, or if
    the integrand is not finite; ValueError unless rel_tol and a nonzero abs_tol are positive and finite.
    """
    _require_positive(rel_tol, "rel_tol")
    if abs_tol != 0.0:
        _require_positive(abs_tol, "abs_tol")
    width = b - a
    todo = [(a, b)]
    value = error = 0.0
    for _ in range(_GL_MAX_DEPTH + 1):
        panels = []
        for lo, hi in todo:
            half = 0.5 * (hi - lo)
            y = np.asarray(f(lo + half * (_GL_NODES + 1.0)), dtype=float)
            coarse = half * float(_GL32[1] @ y[:32])
            fine = half * float(_GL64[1] @ y[32:])
            if not math.isfinite(fine - coarse):
                raise RuntimeError(f"integrand is not finite on [{lo:.6g}, {hi:.6g}]")
            panels.append((lo, hi, fine, abs(fine - coarse)))
        tol = max(abs_tol, rel_tol * abs(value + sum(p[2] for p in panels)))
        todo = []
        for lo, hi, fine, err in panels:
            if err <= tol * (hi - lo) / width:
                value += fine
                error += err
            else:
                mid = 0.5 * (lo + hi)
                todo += [(lo, mid), (mid, hi)]
        if not todo:
            return value, error
    raise RuntimeError(
        f"Gauss-Legendre quadrature did not converge on [{a:.6g}, {b:.6g}]: "
        f"{len(todo) // 2} panel(s) above tolerance after {_GL_MAX_DEPTH} halvings"
    )


def grad4(f: np.ndarray, dx: float) -> np.ndarray:
    """First derivative, 4th-order centered stencil with one-sided ends."""
    f = np.asarray(f)
    g = np.empty_like(f, dtype=np.result_type(f.dtype, float))
    g[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dx)
    # 4th-order one-sided stencils for the two points at each end
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dx)
    g[0] = c @ f[:5]
    g[1] = (np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dx)) @ f[:5]
    g[-1] = -(c @ f[-1:-6:-1])
    g[-2] = -(np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dx)) @ f[-1:-6:-1]
    return g


def lap2(f: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative at the interior points f[1:-1], 2nd-order centered stencil."""
    f = np.asarray(f)
    return (f[2:] - 2.0 * f[1:-1] + f[:-2]) * (1.0 / (dx * dx))


def cumint(f: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral from the first grid point, Simpson-accurate (O(dx^4))."""
    # only the numeric regularization phase integrates on a grid; scipy loads here
    from scipy.integrate import cumulative_simpson

    return cumulative_simpson(np.asarray(f, dtype=float), dx=dx, initial=0.0)
