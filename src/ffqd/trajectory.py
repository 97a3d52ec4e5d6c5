"""Control-parameter ramps l(t) and their derivatives.

The same ramp shapes drive both confinement models: the wall position L(t) of
the box and the oscillator length scale R(t) = sqrt(1/omega(t)).  Every ramp
is l(t) = l0 + vbar T F(t/T), T = t_ff, with one shape F per kind (_SHAPES).
The smooth ramps start and end at rest (F'(0) = F'(1) = 0), which is what
kills the boundary term when the drive part of the energy cost is integrated
by parts.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _require_positive

POLYNOMIAL = "polynomial"
TRIGONOMETRIC = "trigonometric"
QUINTIC = "quintic"
ADIABATIC_LINEAR = "linear"

# F, F' and F'' of s = t/T; target k = 1/F(1), so vbar = k (l(T) - l0)/T, or None where
# the slope is given; drive = 2 int_0^1 F'^2 ds = (2/T) int l_dot^2 dt / vbar^2, the
# energy cost's drive constant, or None where the ramp does not start and end at rest.
# Powers are products, not **: a numpy scalar's power (C pow) and an array's round
# apart, and the scalar and array paths must agree bit for bit.
_Shape = namedtuple("_Shape", ["f", "df", "ddf", "target", "drive"])
_SHAPES = {
    POLYNOMIAL: _Shape(
        lambda s: s * s * (0.5 - s / 3.0),
        lambda s: s - s * s,
        lambda s: 1.0 - 2.0 * s,
        6.0,
        1.0 / 15.0,
    ),
    TRIGONOMETRIC: _Shape(
        lambda s: s - np.sin(2.0 * np.pi * s) / (2.0 * np.pi),
        lambda s: 1.0 - np.cos(2.0 * np.pi * s),
        lambda s: 2.0 * np.pi * np.sin(2.0 * np.pi * s),
        1.0,
        3.0,
    ),
    QUINTIC: _Shape(  # the Ermakov scaling function b = l/l0 of ie: F'' = 0 at both ends too
        lambda s: s * s * s * (10.0 - 15.0 * s + 6.0 * s * s),
        lambda s: 30.0 * (s * s) * ((1.0 - s) * (1.0 - s)),
        lambda s: 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s),
        1.0,
        20.0 / 7.0,
    ),
    ADIABATIC_LINEAR: _Shape(lambda s: s, np.ones_like, np.zeros_like, None, None),  # quasi-static reference
}


def _check_time(t, t_ff: float):
    """t as a float array clipped to [0, t_ff]; ValueError for NaN or t beyond a 1e-9 t_ff slack.

    The one time rule, one path for a scalar t (a 0-d array) and an array:
    of the ramps (and so of every function of t built on one) and of
    propagate's t_final.
    """
    slack = 1e-9 * t_ff
    t = np.asarray(t, dtype=float)
    if not (np.all(t >= -slack) and np.all(t <= t_ff + slack)):
        raise ValueError(f"t outside [0, {t_ff}]")
    return np.clip(t, 0.0, t_ff)


@dataclass(frozen=True)
class ControlTrajectory:
    """A ramp l(t) = l0 + vbar T F(t/T) on [0, t_ff] with exact analytic derivatives.

    kind names the shape F, a row of _SHAPES: polynomial, trigonometric,
    quintic, or linear (the quasi-static reference ramp, l0 + vbar t).
    vbar is every kind's one velocity scale, the linear ramp's slope.  Every
    F' is >= 0 on [0, 1], so every ramp is monotone on [0, t_ff], and l(0)
    and l(t_ff) are its extremes.
    """

    kind: str
    l0: float
    t_ff: float
    vbar: float = 0.0

    def __post_init__(self):
        if self.kind not in _SHAPES:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        _require_positive(self.t_ff, "t_ff")
        with np.errstate(invalid="ignore"):  # 0 * inf: a NaN end, rejected below
            ends = self._value(np.array([0.0, 1.0]))
        if not np.all((ends > 0.0) & (ends < np.inf)):  # NaN fails both comparisons
            raise ValueError(f"l(0) and l(t_ff) must be positive and finite, got {ends.tolist()}")

    @property
    def _shape(self) -> _Shape:
        return _SHAPES[self.kind]

    @cached_property
    def _l_max(self) -> float:
        """Largest l on [0, t_ff]: the larger end, as the ramp is monotone.

        The oscillator's thermal trace sizes its fixed grids by it, at every
        time node, so it is computed once per trajectory.
        """
        return float(np.max(self._value(np.array([0.0, 1.0]))))

    def _value(self, s):
        return self.l0 + self.vbar * self.t_ff * self._shape.f(s)

    def _at(self, t, of_s):
        """of_s(t/T) under the time rule; a float for a scalar t, else an array."""
        out = of_s(_check_time(t, self.t_ff) / self.t_ff)
        return float(out) if np.ndim(t) == 0 else out

    def value(self, t):
        """l(t); accepts scalars or arrays, errors outside [0, t_ff]."""
        return self._at(t, self._value)

    def velocity(self, t):
        """Exact analytic dl/dt = vbar F'(t/T)."""
        return self._at(t, lambda s: self.vbar * self._shape.df(s))

    def acceleration(self, t):
        """Exact analytic d^2 l/dt^2 = vbar F''(t/T) / T."""
        return self._at(t, lambda s: self.vbar * self._shape.ddf(s) / self.t_ff)


def vbar_for_target(kind: str, l0: float, l_final: float, t_ff: float) -> float:
    """Velocity scale k (l_final - l0)/T that makes the ramp reach l_final at t_ff.

    k = 1/F(1) is the kind's target factor (_SHAPES): 6 for the polynomial
    ramp, 1 for the trigonometric and quintic ones.  A linear ramp takes its
    slope as given (ValueError).  l0, l_final and t_ff must be positive and
    finite (ValueError).
    """
    for name, value in (("l0", l0), ("l_final", l_final), ("t_ff", t_ff)):
        _require_positive(value, name)
    if kind not in _SHAPES:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    k = _SHAPES[kind].target
    if k is None:
        raise ValueError(f"{kind} ramps take their slope epsilon as given, not from a target")
    return k * (l_final - l0) / t_ff
