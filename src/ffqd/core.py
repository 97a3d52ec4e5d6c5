"""Uniform spatial grids and complex fields shared by every module."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require_count(value, name: str, minimum: int) -> None:
    """The rule of every count: an int or numpy integer, not a bool, and at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"need an integer {name} >= {minimum}, got {value!r}")


def _require_positive(value, name: str) -> None:
    """The rule of every length, frequency, duration, step and tolerance: positive and finite.

    value is a number, or an array whose every entry must pass; an array is
    judged, and reported, by its worst entry: a NaN, else its least, else its largest.
    """
    if np.ndim(value):
        lo, hi = np.min(value, initial=1.0), np.max(value, initial=1.0)  # NaN propagates to both
        value = float(lo if not lo > 0 else hi)
    if not 0 < value < math.inf:  # False for NaN too
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid on [x_min, x_max] with n_points samples (endpoints included)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        _require_count(self.n_points, "n_points", 8)
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        pts = np.linspace(self.x_min, self.x_max, self.n_points)
        pts.flags.writeable = False
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


@dataclass(frozen=True, eq=False)
class ComplexField:
    """A complex amplitude sampled on a Grid. Immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).copy()
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _require_same_grid(a: ComplexField, b: ComplexField) -> None:
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


def inner_product(a: ComplexField, b: ComplexField) -> complex:
    """Trapezoidal approximation of the L2 inner product, conjugate-linear in `a`.

    Real and imaginary parts are accumulated from separately formed real
    products, so <a,b> == conj(<b,a>) holds bit-exactly (fused complex
    multiplies would break the last bit) and <a,a> is exactly real.
    """
    _require_same_grid(a, b)
    ar, ai = a.values.real, a.values.imag
    br, bi = b.values.real, b.values.imag
    dx = a.grid.dx
    re = np.trapezoid(ar * br + ai * bi, dx=dx)
    im = np.trapezoid(ar * bi - ai * br, dx=dx)
    return complex(re, im)


def norm(f: ComplexField) -> float:
    """L2 norm under inner_product (real and non-negative by construction)."""
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))

