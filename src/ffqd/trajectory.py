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

POLYNOMIAL = "polynomial"
TRIGONOMETRIC = "trigonometric"
ADIABATIC_LINEAR = "linear"

_KINDS = (POLYNOMIAL, TRIGONOMETRIC, ADIABATIC_LINEAR)


@dataclass(frozen=True)
class ControlTrajectory:
    """A ramp l(t) on [0, t_ff] with exact analytic derivatives.

    kind:
      polynomial     l = l0 + vbar*(t^2/2T - t^3/3T^2)
      trigonometric  l = l0 + vbar*(t - (T/2pi) sin(2 pi t/T))
      linear         l = l0 + epsilon*t   (quasi-static reference ramp)

    Every kind is monotone on [0, t_ff] (l_dot = vbar s(1 - s) with s = t/T,
    vbar (1 - cos), or epsilon), so l(0) and l(t_ff) are its extremes.
    """

    kind: str
    l0: float
    t_ff: float
    vbar: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.t_ff <= 0:
            raise ValueError(f"t_ff must be positive, got {self.t_ff}")
        with np.errstate(invalid="ignore"):  # 0 * inf: a NaN end, rejected below
            ends = self._value(np.array([0.0, self.t_ff]))
        if not np.all((ends > 0.0) & (ends < np.inf)):  # NaN fails both comparisons
            raise ValueError(f"l(0) and l(t_ff) must be positive and finite, got {ends.tolist()}")

    @classmethod
    def polynomial(cls, l0: float, vbar: float, t_ff: float) -> "ControlTrajectory":
        return cls(POLYNOMIAL, l0, t_ff, vbar=vbar)

    @classmethod
    def trigonometric(cls, l0: float, vbar: float, t_ff: float) -> "ControlTrajectory":
        return cls(TRIGONOMETRIC, l0, t_ff, vbar=vbar)

    @classmethod
    def adiabatic_linear(cls, l0: float, epsilon: float, t_ff: float) -> "ControlTrajectory":
        return cls(ADIABATIC_LINEAR, l0, t_ff, epsilon=epsilon)

    @cached_property
    def _l_max(self) -> float:
        """Largest l on [0, t_ff]: the larger end, as the ramp is monotone; oscillator grids are sized by it.

        Computed once per trajectory: the thermal trace and the propagation
        grid ask for it at every time node.
        """
        return float(np.max(self._value(np.array([0.0, self.t_ff]))))

    def _check_domain(self, t):
        """t clipped to [0, t_ff]; errors for NaN or t beyond a 1e-9 t_ff slack."""
        slack = 1e-9 * self.t_ff
        t = np.asarray(t, dtype=float)
        if not (np.all(t >= -slack) and np.all(t <= self.t_ff + slack)):
            raise ValueError(f"t outside [0, {self.t_ff}]")
        return np.clip(t, 0.0, self.t_ff)

    def _value(self, t):
        if self.kind == POLYNOMIAL:
            # t * t * t, not t**3: a Python float's power (C pow) and numpy's
            # round apart, and the scalar and array paths must agree bit for bit
            return self.l0 + self.vbar * (t * t / (2.0 * self.t_ff) - t * t * t / (3.0 * self.t_ff**2))
        if self.kind == TRIGONOMETRIC:
            return self.l0 + self.vbar * (
                t - (self.t_ff / (2.0 * np.pi)) * np.sin(2.0 * np.pi * t / self.t_ff)
            )
        return self.l0 + self.epsilon * t

    def value(self, t):
        """l(t); accepts scalars or arrays, errors outside [0, t_ff]."""
        out = self._value(self._check_domain(t))
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def velocity(self, t):
        """Exact analytic dl/dt."""
        tt = self._check_domain(t)
        if self.kind == POLYNOMIAL:
            out = self.vbar * (tt / self.t_ff - tt * tt / self.t_ff**2)
        elif self.kind == TRIGONOMETRIC:
            out = self.vbar * (1.0 - np.cos(2.0 * np.pi * tt / self.t_ff))
        else:
            out = np.full_like(tt, self.epsilon)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def acceleration(self, t):
        """Exact analytic d^2 l/dt^2."""
        tt = self._check_domain(t)
        if self.kind == POLYNOMIAL:
            out = self.vbar * (1.0 / self.t_ff - 2.0 * tt / self.t_ff**2)
        elif self.kind == TRIGONOMETRIC:
            out = self.vbar * (2.0 * np.pi / self.t_ff) * np.sin(2.0 * np.pi * tt / self.t_ff)
        else:
            out = np.zeros_like(tt)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def vbar_for_target(kind: str, l0: float, l_final: float, t_ff: float) -> float:
    """Velocity scale that makes the ramp reach l_final at t_ff exactly.

    polynomial:     l(T) = l0 + vbar*T/6  ->  vbar = 6 (l_final - l0)/T
    trigonometric:  l(T) = l0 + vbar*T    ->  vbar = (l_final - l0)/T
    """
    if l_final <= 0:
        raise ValueError("l_final must be positive")
    if kind == POLYNOMIAL:
        return 6.0 * (l_final - l0) / t_ff
    if kind == TRIGONOMETRIC:
        return (l_final - l0) / t_ff
    if kind == ADIABATIC_LINEAR:
        raise ValueError("linear ramps are parameterized by epsilon, not vbar")
    raise ValueError(f"unknown trajectory kind {kind!r}")

