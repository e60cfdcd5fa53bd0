"""Re-measure the reference figures of the ROADMAP baseline table.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Prints one line per figure with its median and sample count.  These
figures are for reference only; the benchmark's gated metrics come from
run.py.
"""

import statistics
import time

from engine import ChildSpeedMeter
from run import SETUP_CODE, SETUP_REPEATS, Context, import_mechlift, time_setup

REPEATS = 5


def timed(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), repeats


def main():
    ml = import_mechlift()
    import numpy as np

    bundle = ml.pendulum_system()
    gains = ml.pole_place(bundle.linear, [-10.0, -20.0, -30.0, -40.0])
    s0 = np.array([np.pi / 4, 0.0, 0.0, 0.0])
    for kind in ("explicit-euler", "implicit-euler", "midpoint"):
        maker = getattr(ml, "make_" + kind.replace("-", "_"))
        med, n = timed(lambda: ml.fl_discretize(bundle, maker(2), s0, 0.01, 100,
                                                gains=gains), REPEATS)
        print(f"fl_discretize {kind}, h = 0.01, 100 steps: {10 * med:.2f} ms/step "
              f"(median of {n} runs)")

    phi = bundle.transform.phi
    lifted = ml.lift_by_diffeo(ml.make_midpoint(2), phi)
    tangent = ml.tangent_lift(lifted)
    traj = ml.fl_discretize(bundle, ml.make_midpoint(2), s0, 0.01, 2, gains=gains)
    a, b = traj.states[0], traj.states[1]
    base, vel = tangent.inverse(a, b)
    for label, fn in (
        ("tangent_lift(lift_by_diffeo(midpoint)).inverse", lambda: tangent.inverse(a, b)),
        ("tangent_lift(lift_by_diffeo(midpoint)).forward", lambda: tangent.forward(base, vel)),
        ("lift_by_diffeo(midpoint).jacobian", lambda: lifted.jacobian(base[:2], vel[:2])),
    ):
        med, n = timed(fn, 200 * REPEATS)
        print(f"{label}: {1e6 * med:.1f} us/call (median of {n} calls)")

    ctx = Context("baseline")
    setup_s, _ = time_setup(ctx, ChildSpeedMeter(ctx.env), SETUP_CODE["import"], trace=False)
    print(f"cold import mechlift: {setup_s:.3f} s at reference speed "
          f"(median of {SETUP_REPEATS} processes after one warm-up)")


if __name__ == "__main__":
    main()
