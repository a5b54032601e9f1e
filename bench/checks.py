"""Checks of zubov's outputs that use none of zubov's numerics.

Everything here is written out by hand from the definitions: the vector
fields and their Jacobians, the Lyapunov matrices, the network's forward
pass and input gradient (from the network JSON), the training loss, and
reference trajectories from ``scipy.integrate.solve_ivp``.  Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.integrate import solve_ivp

ALPHA = 0.1             # value transform w = tanh(ALPHA v)
R = 0.9999              # local-certificate rate r
EPSILON = 1e-4          # decrease margin of the region-of-attraction check
VALUE_CAP = 200.0       # integrator's value cap
VDP_DOMAIN = np.array([[-2.5, 2.5], [-3.5, 3.5]])
# P solving PA + A'P = -I for A = Df(0): reversed VdP A = [[0, -1], [1, -1]],
# poly2d A = [[0, 1], [-2, -1]]
VDP_P = np.array([[1.5, -0.5], [-0.5, 1.0]])
POLY_P = np.array([[1.75, 0.25], [0.25, 0.75]])
# on poly2d, 2 |P Dg(x)| = 2 sqrt(0.625) x1^2 and max x1^2 over x'Px <= c is
# 0.6 c, so the local condition holds exactly up to c = sqrt(10) r / 3
POLY_LOCAL_CEILING = math.sqrt(10.0) * R / 3.0


def vdp_f(X):
    x1, x2 = X[..., 0], X[..., 1]
    return np.stack([-x2, x1 - (1.0 - x1 * x1) * x2], axis=-1)


def vdp_dg(X):
    """Jacobian of g = f - Ax = (0, x1^2 x2), shape (..., 2, 2)."""
    x1, x2 = X[..., 0], X[..., 1]
    zero = np.zeros_like(x1)
    return np.stack([np.stack([zero, zero], -1),
                     np.stack([2.0 * x1 * x2, x1 * x1], -1)], axis=-2)


def quad(X, P):
    return np.einsum("...i,ij,...j->...", X, P, X)


class Net:
    """A tanh network read from zubov's network JSON, evaluated here."""

    def __init__(self, doc: dict):
        sizes = doc["layer_sizes"]
        self.W = [np.array(layer["w"], dtype=float).reshape(sizes[i + 1], sizes[i])
                  for i, layer in enumerate(doc["layers"])]
        self.b = [np.array(layer["b"], dtype=float) for layer in doc["layers"]]

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def value_grad(self, X):
        """W(x) and its input gradient by the chain rule, over (K, n) points."""
        acts = [np.asarray(X, dtype=float)]
        for W, b in zip(self.W[:-1], self.b[:-1]):
            acts.append(np.tanh(acts[-1] @ W.T + b))
        value = (acts[-1] @ self.W[-1].T + self.b[-1])[:, 0]
        back = np.broadcast_to(self.W[-1], (len(value), self.W[-1].shape[1]))
        for W, a in zip(reversed(self.W[:-1]), reversed(acts[1:])):
            back = (back * (1.0 - a * a)) @ W
        return value, back

    def value(self, X):
        return self.value_grad(X)[0]


def read_dataset(path):
    """(X, v, w, converged) from a gen-data CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    X = np.array([[float(c) for c in r[:2]] for r in body])
    v = np.array([math.inf if r[2] == "inf" else float(r[2]) for r in body])
    w = np.array([float(r[3]) for r in body])
    conv = np.array([r[4] == "true" for r in body])
    return X, v, w, conv


def lattice(domain, counts):
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(domain, counts)]
    g1, g2 = np.meshgrid(*axes, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1)


# ---------------------------------------------------------------------------
# Value data
# ---------------------------------------------------------------------------

def reference_value(x0, t_max=500.0):
    """True cost V(x0) = int |phi|^2 from an independent integration.

    Returns (status, v): "converged" with V when the trajectory reaches
    |x| = 1e-6 (the rest of the integral is below 1e-11), "diverged" when
    it leaves |x| <= 1e3, otherwise "unclear".
    """
    def rhs(_, y):
        return [-y[1], y[0] - (1.0 - y[0] ** 2) * y[1], y[0] ** 2 + y[1] ** 2]

    def arrived(_, y):
        return math.hypot(y[0], y[1]) - 1e-6

    def escaped(_, y):
        return math.hypot(y[0], y[1]) - 1e3

    arrived.terminal = escaped.terminal = True
    sol = solve_ivp(rhs, (0.0, t_max), [x0[0], x0[1], 0.0], method="DOP853",
                    rtol=1e-11, atol=1e-13, events=(arrived, escaped))
    if sol.t_events[0].size:
        return "converged", float(sol.y_events[0][0][2])
    if sol.t_events[1].size:
        return "diverged", math.inf
    return "unclear", math.nan


def check_dataset(X, v, w, conv, grid, rng, n_sample, rel_tol=1e-5):
    """The lattice, the value transform and a seeded sample of v_hat."""
    fails = []
    expect = lattice(VDP_DOMAIN, grid)
    if X.shape != expect.shape or np.max(np.abs(X - expect)) > 1e-12:
        return [f"dataset points are not the {grid[0]}x{grid[1]} lattice"]
    if np.any(np.isinf(v[conv])) or np.any(np.isfinite(v[~conv])):
        fails.append("v_hat is infinite exactly where a point is marked non-converged: violated")
    want = np.where(conv, np.tanh(ALPHA * np.where(conv, v, 0.0)), 1.0)
    bad = np.abs(w - want) > 1e-12
    if np.any(bad):
        fails.append(f"w_hat != tanh({ALPHA} v_hat) (or 1 where non-converged) "
                     f"on {int(bad.sum())} rows")
    compared = 0
    for i in rng.choice(len(X), size=n_sample, replace=False):
        status, v_ref = reference_value(X[i])
        # compare only where both sides clearly decide: far below the value
        # cap (the program stops at VALUE_CAP) or clearly escaping
        if status == "converged" and v_ref < 0.9 * VALUE_CAP:
            compared += 1
            if not conv[i] or abs(v[i] - v_ref) > rel_tol * v_ref + 1e-8:
                fails.append(f"v_hat at {X[i].tolist()}: {v[i]!r}, reference {v_ref!r}")
        elif status == "diverged" and conv[i]:
            fails.append(f"point {X[i].tolist()} escapes but is marked converged")
    if compared == 0:
        fails.append("no sampled point converged clearly; the value check is empty")
    return fails


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def zubov_loss(net: Net, X, w, conv):
    """Full-dataset training objective, tanh form Psi = alpha (1 + W) |x|^2.

    Residual of Zubov's PDE over every lattice point, W = 1 on the points
    that do not converge, W(0) = 0, and the value targets on the points
    that do.
    """
    val, grad = net.value_grad(X)
    phi = np.sum(X * X, axis=1)
    res = np.sum(grad * vdp_f(X), axis=1) + ALPHA * (1.0 + val) * phi * (1.0 - val)
    loss = float(np.mean(res ** 2))
    if np.any(~conv):
        loss += float(np.mean((val[~conv] - 1.0) ** 2))
    loss += float(net.value(np.zeros((1, 2)))[0] ** 2)
    if np.any(conv):
        loss += float(np.mean((val[conv] - w[conv]) ** 2))
    return loss


def check_training(net0: Net, net1: Net, X, w, conv):
    before, after = zubov_loss(net0, X, w, conv), zubov_loss(net1, X, w, conv)
    if not after < before:
        return [f"training did not lower the full-dataset loss: {before!r} -> {after!r}"]
    return []


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def check_local_condition(P, c, rng, n=20_000, r=R):
    """2 |P Dg(tx)| <= r for sampled x with x'Px <= c and t in [0, 1]."""
    L = np.linalg.cholesky(np.linalg.inv(P))
    # uniform in the disc, mapped onto the ellipse; half the points on its rim
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = np.sqrt(rng.uniform(0.0, 1.0, n))
    rad[: n // 2] = 1.0
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1) * rad[:, None]
    X = math.sqrt(c) * U @ L.T
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        M = P @ vdp_dg(t * X)
        worst = max(worst, float(np.max(2.0 * np.linalg.norm(M, ord=2, axis=(1, 2)))))
    if worst > r:
        return [f"local condition fails in x'Px <= {c!r}: 2|P Dg| reaches {worst!r} > r"]
    return []


def _rim_points(rng, n):
    pts = []
    for axis in range(2):
        for side in range(2):
            p = rng.uniform(VDP_DOMAIN[:, 0], VDP_DOMAIN[:, 1], size=(n, 2))
            p[:, axis] = VDP_DOMAIN[axis, side]
            pts.append(p)
    return np.concatenate(pts)


def sublevel_trajectory(net: Net, x0, P, c_local, t_max=200.0):
    """Follow x0 until x'Px <= c_local; returns (arrived, max W on the way)."""
    if quad(x0, P) <= c_local:
        return True, float(net.value(x0[None, :])[0])

    def entered(_, x):
        return quad(np.asarray(x), P) - c_local

    entered.terminal = True
    entered.direction = -1
    sol = solve_ivp(lambda _, x: vdp_f(np.asarray(x)), (0.0, t_max), x0,
                    method="DOP853", rtol=1e-10, atol=1e-12, events=entered,
                    dense_output=True)
    ts = np.union1d(sol.t, np.linspace(0.0, sol.t[-1], 400))
    w_max = float(np.max(net.value(sol.sol(ts).T)))
    return bool(sol.t_events[0].size), w_max


def check_roa(net: Net, cert: dict, rng, n_uniform=200_000, n_rim=5_000, n_traj=16,
              epsilon=EPSILON):
    """The three region-of-attraction conditions and the flow, sampled."""
    fails = []
    c1, c2 = cert["c1"], cert["c2"]
    P, c_local = np.array(cert["local"]["P"]), cert["local"]["c"]
    if np.max(np.abs(P - VDP_P)) > 1e-9:
        fails.append(f"local P {P.tolist()} differs from the Lyapunov solution {VDP_P.tolist()}")
    P = VDP_P
    X = rng.uniform(VDP_DOMAIN[:, 0], VDP_DOMAIN[:, 1], size=(n_uniform, 2))
    val, grad = net.value_grad(X)
    lie = np.sum(grad * vdp_f(X), axis=1)
    band = (val >= c1) & (val <= c2)
    bad = band & (lie > -epsilon)
    if np.any(bad):
        x = X[np.argmax(lie * bad - 1e9 * ~bad)]
        fails.append(f"decrease fails at {x.tolist()}: {int(bad.sum())} sampled points in "
                     f"{c1!r} <= W <= {c2!r} have grad W . f > -{epsilon}")
    outside = (val <= c1) & (quad(X, P) > c_local)
    if np.any(outside):
        fails.append(f"{int(outside.sum())} sampled points with W <= {c1!r} lie outside "
                     f"x'Px <= {c_local!r}")
    rim_w = net.value(_rim_points(rng, n_rim))
    if np.any(rim_w <= c2):
        fails.append(f"{int((rim_w <= c2).sum())} domain-face points have W <= {c2!r}")
    fails += check_local_condition(P, c_local, rng)
    inside = np.flatnonzero(val <= c2)
    for i in rng.choice(inside, size=min(n_traj, inside.size), replace=False):
        arrived, w_max = sublevel_trajectory(net, X[i], P, c_local)
        if not arrived or w_max > c2:
            fails.append(f"trajectory from {X[i].tolist()}: reached ellipsoid {arrived}, "
                         f"max W {w_max!r} (level {c2!r})")
    return fails


def volume_pct(net: Net, c2, X, conv):
    return 100.0 * float(np.count_nonzero(net.value(X[conv]) <= c2)) / int(conv.sum())


def check_volume(net: Net, c2, X, conv, reported, floor=80.0):
    """The share of converged reference points in {W <= c2}, recomputed."""
    fails = []
    own = volume_pct(net, c2, X, conv)
    # points whose W sits within rounding of c2 may count on either side
    slack = 100.0 * 2 / int(conv.sum())
    if reported is None or abs(own - reported) > slack:
        fails.append(f"volume {reported!r}% reported, {own!r}% recomputed")
    if own < floor:
        fails.append(f"volume {own!r}% is below {floor}%")
    return fails


def check_level_floor(c2, floor=0.7):
    return [] if c2 >= floor else [f"certified level c2 = {c2!r} is below {floor}"]


def check_poly2d_local(c):
    if not c <= POLY_LOCAL_CEILING:
        return [f"poly2d local level {c!r} exceeds the closed-form ceiling "
                f"{POLY_LOCAL_CEILING!r}"]
    return []


def check_poly2d_witness(x, c=2.0, r=R):
    """A Falsified witness at level c: inside x'Px <= c, violating the condition."""
    x = np.asarray(x, dtype=float)
    fails = []
    if not quad(x, POLY_P) <= c:
        fails.append(f"witness {x.tolist()} lies outside x'Px <= {c}")
    if not 2.0 * math.sqrt(0.625) * x[0] ** 2 > r:
        fails.append(f"witness {x.tolist()} does not violate 2 sqrt(0.625) x1^2 <= r")
    return fails
