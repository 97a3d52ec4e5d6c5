"""Control-parameter ramps l(t) and their derivatives.

The same ramp shapes drive both confinement models: the wall position L(t) of
the box and the oscillator length scale R(t) = sqrt(1/omega(t)).  Both smooth
ramps start and end at rest (l_dot = 0 at t = 0 and t = t_ff), which is what
kills the boundary term when the drive part of the energy cost is integrated
by parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _require_positive

POLYNOMIAL = "polynomial"
TRIGONOMETRIC = "trigonometric"
QUINTIC = "quintic"
ADIABATIC_LINEAR = "linear"

_KINDS = (POLYNOMIAL, TRIGONOMETRIC, QUINTIC, ADIABATIC_LINEAR)


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
    """A ramp l(t) on [0, t_ff] with exact analytic derivatives.

    kind:
      polynomial     l = l0 + vbar*(t^2/2T - t^3/3T^2)
      trigonometric  l = l0 + vbar*(t - (T/2pi) sin(2 pi t/T))
      quintic        l = l0 + vbar*T s^3 (10 - 15 s + 6 s^2),  s = t/T
      linear         l = l0 + vbar*t      (quasi-static reference ramp)

    vbar is every kind's one velocity scale, the linear ramp's slope.  Every
    kind is monotone on [0, t_ff] (l_dot = vbar s(1 - s), vbar (1 - cos),
    30 vbar s^2 (1 - s)^2, or vbar), so l(0) and l(t_ff) are its extremes.
    The quintic also has l_ddot = 0 at both ends: it is the scaling function
    b = l/l0 of the oscillator's inverse-engineering design (ie).
    """

    kind: str
    l0: float
    t_ff: float
    vbar: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        _require_positive(self.t_ff, "t_ff")
        with np.errstate(invalid="ignore"):  # 0 * inf: a NaN end, rejected below
            ends = self._value(np.array([0.0, self.t_ff]))
        if not np.all((ends > 0.0) & (ends < np.inf)):  # NaN fails both comparisons
            raise ValueError(f"l(0) and l(t_ff) must be positive and finite, got {ends.tolist()}")

    @classmethod
    def adiabatic_linear(cls, l0: float, epsilon: float, t_ff: float) -> "ControlTrajectory":
        return cls(ADIABATIC_LINEAR, l0, t_ff, vbar=epsilon)

    @cached_property
    def _l_max(self) -> float:
        """Largest l on [0, t_ff]: the larger end, as the ramp is monotone.

        The oscillator's thermal trace sizes its fixed grids by it, at every
        time node, so it is computed once per trajectory.
        """
        return float(np.max(self._value(np.array([0.0, self.t_ff]))))

    def _value(self, t):
        if self.kind == POLYNOMIAL:
            # t * t * t, not t**3: a numpy scalar's power (C pow) and an array's
            # round apart, and the scalar and array paths must agree bit for bit;
            # C pow also misrounds about one square in a thousand, where a product
            # is exact under scaling by powers of two
            return self.l0 + self.vbar * (t * t / (2.0 * self.t_ff) - t * t * t / (3.0 * (self.t_ff * self.t_ff)))
        if self.kind == TRIGONOMETRIC:
            return self.l0 + self.vbar * (
                t - (self.t_ff / (2.0 * np.pi)) * np.sin(2.0 * np.pi * t / self.t_ff)
            )
        if self.kind == QUINTIC:
            s = t / self.t_ff
            return self.l0 + self.vbar * self.t_ff * (s * s * s * (10.0 - 15.0 * s + 6.0 * s * s))
        return self.l0 + self.vbar * t

    def value(self, t):
        """l(t); accepts scalars or arrays, errors outside [0, t_ff]."""
        out = self._value(_check_time(t, self.t_ff))
        return float(out) if np.ndim(t) == 0 else out

    def velocity(self, t):
        """Exact analytic dl/dt."""
        tt = _check_time(t, self.t_ff)
        if self.kind == POLYNOMIAL:
            out = self.vbar * (tt / self.t_ff - tt * tt / (self.t_ff * self.t_ff))
        elif self.kind == TRIGONOMETRIC:
            out = self.vbar * (1.0 - np.cos(2.0 * np.pi * tt / self.t_ff))
        elif self.kind == QUINTIC:
            s = tt / self.t_ff
            out = self.vbar * (30.0 * (s * s) * ((1.0 - s) * (1.0 - s)))
        else:
            out = np.full_like(tt, self.vbar)
        return float(out) if np.ndim(t) == 0 else out

    def acceleration(self, t):
        """Exact analytic d^2 l/dt^2."""
        tt = _check_time(t, self.t_ff)
        if self.kind == POLYNOMIAL:
            out = self.vbar * (1.0 / self.t_ff - 2.0 * tt / (self.t_ff * self.t_ff))
        elif self.kind == TRIGONOMETRIC:
            out = self.vbar * (2.0 * np.pi / self.t_ff) * np.sin(2.0 * np.pi * tt / self.t_ff)
        elif self.kind == QUINTIC:
            s = tt / self.t_ff
            out = self.vbar * (60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / self.t_ff)
        else:
            out = np.zeros_like(tt)
        return float(out) if np.ndim(t) == 0 else out


def vbar_for_target(kind: str, l0: float, l_final: float, t_ff: float) -> float:
    """Velocity scale that makes the ramp reach l_final at t_ff exactly.

    polynomial:     l(T) = l0 + vbar*T/6  ->  vbar = 6 (l_final - l0)/T
    trigonometric,
    quintic:        l(T) = l0 + vbar*T    ->  vbar = (l_final - l0)/T

    l0, l_final and t_ff must be positive and finite (ValueError).
    """
    for name, value in (("l0", l0), ("l_final", l_final), ("t_ff", t_ff)):
        _require_positive(value, name)
    if kind == POLYNOMIAL:
        return 6.0 * (l_final - l0) / t_ff
    if kind in (TRIGONOMETRIC, QUINTIC):
        return (l_final - l0) / t_ff
    if kind == ADIABATIC_LINEAR:
        raise ValueError("linear ramps take their slope epsilon as given, not from a target")
    raise ValueError(f"unknown trajectory kind {kind!r}")

