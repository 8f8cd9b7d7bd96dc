"""The reduction against the bodies themselves.

Each problem is laid out as point masses, from the description of the
three sub-problems alone:

  pyramidal  n unit masses on a regular n-gon of circumradius q1 and the
             apex mass mu on its axis, q2 from the polygon's plane, with the
             centre of mass fixed;
  spatial    two regular n-gons of unit masses, circumradius q1, at heights
             +-q2/2, one turned by pi/n against the other;
  planar     two concentric regular n-gons of unit masses, radii q1 and q2,
             one turned by pi/n.

q1 = r cos phi and q2 = mass_scale r sin phi.  The potential U and the
equations of motion are pair sums over the bodies, and the bodies are flown
with scipy's DOP853, so these checks share no formula and no integrator
with the reduced field they check.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from schubart import dynamics as dyn
from schubart import problems as pr
from schubart.dynamics import State
from schubart.odeint import Controls, integrate


def _layout(p):
    """(A, B, masses, M): the body positions at (q1, q2) are q1 A + q2 B,
    each (N, 3), and the moment of inertia is M r^2."""
    n = p.n
    ang = 2.0 * math.pi * np.arange(n) / n
    flat = np.zeros(n)
    ring = np.column_stack([np.cos(ang), np.sin(ang), flat])
    turned = np.column_stack([np.cos(ang + math.pi / n),
                              np.sin(ang + math.pi / n), flat])
    if p.kind == pr.PYRAMIDAL:
        a = np.vstack([ring, np.zeros(3)])
        b = np.zeros((n + 1, 3))
        b[:n, 2] = -p.mu / (n + p.mu)
        b[n, 2] = n / (n + p.mu)
        return a, b, np.append(np.ones(n), p.mu), n
    if p.kind == pr.SPATIAL:
        b = np.zeros((2 * n, 3))
        b[:n, 2], b[n:, 2] = 0.5, -0.5
        return np.vstack([ring, turned]), b, np.ones(2 * n), 2 * n
    zero = np.zeros((n, 3))
    return (np.vstack([ring, zero]), np.vstack([zero, turned]),
            np.ones(2 * n), n)


def _bodies(p, q1, q2, qd1, qd2):
    """Positions and velocities of the bodies, each (N, 3): the layout is
    linear in (q1, q2), so the velocities are its value at (q1dot, q2dot)."""
    a, b, _, _ = _layout(p)
    return q1 * a + q2 * b, qd1 * a + qd2 * b


def _potential(x, masses):
    """U = sum over pairs m_i m_j / |x_i - x_j|."""
    i, j = np.triu_indices(len(masses), 1)
    return float(np.sum(masses[i] * masses[j]
                        / np.linalg.norm(x[i] - x[j], axis=1)))


def _newton(masses):
    """Newton's equations for the bodies over [positions, velocities]."""
    count = len(masses)

    def rhs(t, y):
        x = y[:3 * count].reshape(count, 3)
        d = x[None, :, :] - x[:, None, :]  # d[i, j] = x_j - x_i
        dist2 = (d * d).sum(axis=2)
        np.fill_diagonal(dist2, np.inf)
        acc = (masses[None, :, None] * d / (dist2**1.5)[..., None]).sum(axis=1)
        return np.concatenate([y[3 * count:], acc.ravel()])

    return rhs


def _on_shell(p, rng, r_range):
    """A random state on the energy level with |theta| <= 1.2."""
    while True:
        theta = rng.uniform(-1.2, 1.2)
        r, v = rng.uniform(*r_range), rng.uniform(-0.5, 0.5)
        w = dyn.solve_w(p, r, v, theta, sign=1 if rng.uniform() < 0.5 else -1)
        if w is not None:
            return State(r, v, theta, w)


def test_potential_and_inertia_are_sums_over_bodies(all_problems):
    # r U / M = V(phi) and I = M r^2 on random shapes and sizes; both agree
    # to 7.6e-16 relative
    rng = np.random.default_rng(31)
    for p in all_problems + [pr.pyramidal(4, 0.3)]:
        _, _, masses, big_m = _layout(p)
        phis = rng.uniform(p.phi_a + 1e-3, p.phi_b - 1e-3, 100)
        for phi, r in zip(phis, rng.uniform(0.1, 3.0, 100)):
            x, _ = _bodies(p, r * math.cos(phi),
                           p.mass_scale * r * math.sin(phi), 0.0, 0.0)
            v = pr.potential(p, phi, "V")
            assert abs(r * _potential(x, masses) / big_m - v) <= 4e-15 * v
            inertia = float(np.sum(masses * (x * x).sum(axis=1)))
            assert abs(inertia - big_m * r * r) <= 4e-15 * big_m * r * r


def test_mapped_states_have_the_bodies_energy(all_problems):
    # kinetic energy - U = H M at every state mapped to the bodies, to
    # 1.2e-15 of M + U
    rng = np.random.default_rng(32)
    for p in all_problems + [pr.pyramidal(4, 0.3)]:
        _, _, masses, big_m = _layout(p)
        for _ in range(40):
            x, xd = _bodies(p, *dyn.to_configuration(
                p, _on_shell(p, rng, (0.005, 1.0))))
            u = _potential(x, masses)
            kinetic = 0.5 * float(np.sum(masses * (xd * xd).sum(axis=1)))
            assert abs(kinetic - u - dyn.H * big_m) <= 1e-14 * (big_m + u)


# The regularized flow continues through a partial collision, where
# Newton's equations stop, so each compared flight keeps its chart angle
# this far inside the lines theta = +-pi/2.  An arc that crosses a line
# parts from the bodies by 2e-4 or more in position.
_LINE_MARGIN = 0.15


def test_flights_follow_newtons_equations(pyr2, spa3, pla3):
    # fly the newcoords field with physical time t as a fifth component,
    # dt/ds = r^(3/2) cos^2 theta, then the bodies for the same t, and
    # compare every body coordinate and velocity at the end.  The measured
    # gaps are at most 7.7e-13 in position and 4.2e-12 of 1 + max |velocity|
    # in velocity
    rng = np.random.default_rng(33)
    for p in (pyr2, spa3, pla3):
        masses = _layout(p)[2]

        def rhs(s, y):
            r, v, theta, w, _ = y
            return dyn.newcoords_rhs(p, (r, v, theta, w)) + (
                r**1.5 * math.cos(theta) ** 2,)

        flown = 0
        for _ in range(20):
            seed = _on_shell(p, rng, (0.3, 1.5))
            traj = integrate(rhs, list(seed) + [0.0],
                             controls=Controls(max_s=0.5, sample_ds=0.5 / 64))
            if np.max(np.abs(traj.y[2])) > math.pi / 2.0 - _LINE_MARGIN:
                continue
            x, xd = _bodies(p, *dyn.to_configuration(p, seed))
            bodies = solve_ivp(_newton(masses), (0.0, traj.y[4, -1]),
                               np.concatenate([x.ravel(), xd.ravel()]),
                               method="DOP853", rtol=1e-12, atol=1e-12)
            assert bodies.success
            x, xd = _bodies(p, *dyn.to_configuration(
                p, State(*traj.y[:4, -1].tolist())))
            end = bodies.y[:, -1]
            assert np.max(np.abs(end[:x.size] - x.ravel())) < 1e-11
            assert (np.max(np.abs(end[x.size:] - xd.ravel()))
                    < 5e-11 * (1.0 + np.max(np.abs(xd))))
            flown += 1
            if flown == 3:
                break
        assert flown == 3, p
