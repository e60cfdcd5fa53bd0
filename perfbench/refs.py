"""Reference computations written apart from mechlift.

The checks never use mechlift's ``linear_one_step``, ``cayley_matrix``
or ``reference_integrate``.  Everything here is built from the
published model data:

* the pendulum chart xt1 = c1 x1 + x2, xt2 = c2 sin x1 with
  c1 = (md + J2)/J2 and c2 = m0/J2, its tangent lift and its pullback;
* the flat target x1'''' = u in stacked coordinates z = (xt, yt), the
  pole-placement gains from the expanded characteristic polynomial and
  the closed-loop matrix A_cl = A - B K;
* the closed-form one-step matrices of the three base maps, the exact
  flow expm(A_cl t) and the attitude loop re-run with scipy's matrix
  exponential and rotation-vector logarithm.
"""

import numpy as np
from scipy.linalg import expm
from scipy.spatial.transform import Rotation as ScipyRotation

POLES = (-10.0, -20.0, -30.0, -40.0)
MAP_KINDS = ("explicit-euler", "implicit-euler", "midpoint")


class PendulumChart:
    """The inertia wheel pendulum's linearizing chart, from its constants."""

    def __init__(self, m0, md, J2):
        self.c1 = (md + J2) / J2
        self.c2 = m0 / J2

    def push(self, s):
        """(x1, x2, y1, y2) -> (xt1, xt2, yt1, yt2)."""
        x1, x2, y1, y2 = s
        return np.array([self.c1 * x1 + x2, self.c2 * np.sin(x1),
                         self.c1 * y1 + y2, self.c2 * np.cos(x1) * y1])

    def sin_x1(self, z):
        return z[1] / self.c2

    def pull(self, z):
        """Inverse of :meth:`push`; raises ValueError outside the chart image."""
        s = self.sin_x1(z)
        if abs(s) >= 1.0:
            raise ValueError(f"|sin x1| = {abs(s):.6f}: not in the chart image")
        x1 = np.arcsin(s)
        y1 = z[3] / (self.c2 * np.cos(x1))
        return np.array([x1, z[0] - self.c1 * x1, y1, z[2] - self.c1 * y1])


def chain_gains(poles=POLES):
    """State feedback placing the poles of x1'''' = u.

    With z = (xt1, xt2, yt1, yt2) the chain is xt1 -> yt1 -> xt2 -> yt2,
    so u = -K z gives s^4 + k4 s^3 + k2 s^2 + k3 s + k1.
    """
    c = np.real(np.poly(poles))  # 1, c3, c2, c1, c0
    return np.array([[c[4], c[2], c[3], c[1]]])


def closed_loop_matrix(gains):
    a = np.zeros((4, 4))
    a[0, 2] = a[1, 3] = 1.0
    a[2, 1] = 1.0
    b = np.zeros((4, 1))
    b[3, 0] = 1.0
    return a - b @ np.asarray(gains, float)


def one_step_matrix(kind, a_cl, h):
    """z+ = M z for the base map's scheme on the linear closed loop."""
    eye = np.eye(a_cl.shape[0])
    if kind == "explicit-euler":
        return eye + h * a_cl
    if kind == "implicit-euler":
        return np.linalg.inv(eye - h * a_cl)
    if kind == "midpoint":
        return np.linalg.solve(eye - h / 2.0 * a_cl, eye + h / 2.0 * a_cl)
    raise ValueError(kind)


def conjugacy_defect(chart, states, m):
    """Worst |push(s_k+1) - M push(s_k)| over a trajectory."""
    z = np.array([chart.push(s) for s in states])
    return float(np.abs(z[1:] - z[:-1] @ m.T).max())


def discrete_chart_exit(chart, m, s0, steps):
    """First step whose exact discrete image leaves the chart, or None.

    Also returns the largest |sin x1| seen, the distance measure used to
    keep seeded states inside the chart.
    """
    z = chart.push(s0)
    worst = abs(chart.sin_x1(z))
    for k in range(steps):
        z = m @ z
        worst = max(worst, abs(chart.sin_x1(z)))
        if worst >= 1.0:
            return k, worst
    return None, worst


def exact_flow(a_cl, z0, times):
    return np.array([expm(a_cl * t) @ z0 for t in times])


def order_fit(h_list, errors):
    slope, _ = np.polyfit(np.log(h_list), np.log(errors), 1)
    return float(slope)


def hat3(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def attitude_loop(r0, omega0, k1, k2, h, steps):
    """R+ = R expm(h hat(Omega)), Omega+ = Omega - h K1 log R - h K2 Omega."""
    r = np.asarray(r0, float)
    om = np.asarray(omega0, float)
    rs, oms = [r], [om]
    for _ in range(steps):
        xi = ScipyRotation.from_matrix(r).as_rotvec()
        r, om = r @ expm(h * hat3(om)), om - h * k1 * xi - h * k2 * om
        rs.append(r)
        oms.append(om)
    return np.array(rs), np.array(oms)


def attitude_linear_reference(k1, k2, z0, times):
    """Exact closed loop xi'' = -k1 xi - k2 xi' in the exp chart."""
    a_cl = np.zeros((6, 6))
    a_cl[:3, 3:] = np.eye(3)
    a_cl[3:, :3] = -k1 * np.eye(3)
    a_cl[3:, 3:] = -k2 * np.eye(3)
    return exact_flow(a_cl, np.asarray(z0, float), times)


def trace_error(xi):
    return 3.0 - np.trace(expm(hat3(xi)))
