"""Control ramps.

Both confinement models are driven by the same ramp shapes: the box wall L(t)
and the oscillator length scale R(t) = sqrt(1/omega(t)).  The two smooth
ramps start and end at rest, which is what later makes the boundary term of
the cost integration-by-parts vanish.  A slow linear ramp is the quasi-static
reference the accelerated protocol is compared with.
"""

import numpy as np

from ffqd.trajectory import POLYNOMIAL, TRIGONOMETRIC, ControlTrajectory, vbar_for_target

T = 1.0
ramps = {
    kind: ControlTrajectory(kind, 1.0, T, vbar=vbar_for_target(kind, 1.0, 10.0, T))
    for kind in (POLYNOMIAL, TRIGONOMETRIC)
}

print("ramps from l = 1 to l = 10 over T = 1")
for kind, traj in ramps.items():
    print(f"\n{kind}: vbar = {traj.vbar:g}")
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(
            f"  t={t:4.2f}  l={traj.value(t):8.4f}  l_dot={traj.velocity(t):9.4f}"
            f"  l_ddot={traj.acceleration(t):9.4f}"
        )
    assert traj.velocity(0.0) == 0.0 and traj.velocity(T) == 0.0

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = np.linspace(0.0, T, 401)
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.2))
    for kind, traj in ramps.items():
        axes[0].plot(ts, traj.value(ts), label=kind)
        axes[1].plot(ts, traj.velocity(ts), label=kind)
        axes[2].plot(ts, traj.acceleration(ts), label=kind)
    for ax, label in zip(axes, ("l(t)", "l_dot(t)", "l_ddot(t)")):
        ax.set_xlabel("t")
        ax.set_title(label)
        ax.legend()
    fig.tight_layout()
    fig.savefig("demo_01_ramps.png", dpi=120)
    print("\nwrote demo_01_ramps.png")
except ImportError:
    pass
