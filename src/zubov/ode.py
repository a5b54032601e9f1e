"""Trajectory integration and generation of converse-Lyapunov value data.

For each initial point x the scalar cost  v(T) = int_0^T |phi(t,x)|^2 dt
is integrated jointly with the state as one augmented ODE under a single
embedded Runge-Kutta 4(5) error control (Dormand-Prince coefficients).
Integration stops when the trajectory enters a small ball around the
origin (converged; a quadratic tail estimate is added), or when the
accumulated value crosses a cap / the time horizon runs out / the state
blows up (not converged; the value is reported as +inf).

The stepper is vectorized over a whole batch of trajectories: every
trajectory keeps its own step size and all active ones advance in
lockstep, which is what makes dense value-grid generation cheap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dynamics as dyn

__all__ = [
    "IntegratorConfig", "ValueSample", "BetaKind",
    "BlowUp", "StepUnderflow",
    "integrate", "estimate_V", "estimate_V_batch", "beta_transform",
    "gen_dataset", "save_samples", "load_samples",
]

BLOWUP_NORM = 1e6
MIN_STEP = 1e-12

# Dormand-Prince 5(4) tableau (stage times are not needed: systems here
# are autonomous)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


class BlowUp(RuntimeError):
    pass


class StepUnderflow(RuntimeError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-6
    atol: float = 1e-8
    h_max: float = 0.1
    t_max: float = 500.0
    stop_radius: float = 1e-3
    value_cap: float = 200.0

    def __post_init__(self):
        if min(self.rtol, self.atol, self.h_max, self.t_max,
               self.stop_radius, self.value_cap) <= 0:
            raise ValueError("all integrator parameters must be positive")
        if self.stop_radius >= 1:
            raise ValueError("stop_radius must be < 1")


@dataclass(frozen=True)
class BetaKind:
    """Strictly increasing map [0, inf) -> [0, 1) turning V into W."""

    kind: str = "tanh"   # "exp": 1 - e^{-alpha v};  "tanh": tanh(alpha v)
    alpha: float = 0.1

    def __post_init__(self):
        if self.kind not in ("exp", "tanh"):
            raise ValueError(f"unknown beta kind {self.kind!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class ValueSample:
    x: np.ndarray
    v_hat: float          # +inf when the cost diverges
    w_hat: float
    converged: bool


def beta_transform(v, b: BetaKind):
    """Apply the value transform; v = +inf maps to exactly 1."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise ValueError("beta transform expects v >= 0")
    with np.errstate(over="ignore"):
        if b.kind == "exp":
            w = 1.0 - np.exp(-b.alpha * v_arr)
        else:
            w = np.tanh(b.alpha * v_arr)
    # a finite v maps strictly below 1; restore that when rounding hits 1.0
    w = np.where(np.isfinite(v_arr) & (w >= 1.0), np.nextafter(1.0, 0.0), w)
    w = np.where(np.isinf(v_arr), 1.0, w)
    return float(w) if np.isscalar(v) or np.ndim(v) == 0 else w


def _rk_step(rhs, Y, h):
    """One embedded DP45 step for all rows at once; returns (y5, err_vec)."""
    k = []
    for s in range(7):
        ys = Y if s == 0 else Y + h[:, None] * sum(
            a * k[j] for j, a in enumerate(_A[s]) if a != 0.0)
        k.append(rhs(ys))
    y5 = Y + h[:, None] * sum(b * k[j] for j, b in enumerate(_B5) if b != 0.0)
    err = h[:, None] * sum(e * k[j] for j, e in enumerate(_E) if e != 0.0)
    return y5, err


def _advance(rhs, Y0: np.ndarray, cfg: IntegratorConfig,
             stop_time: np.ndarray,
             classify: Callable[[np.ndarray, np.ndarray], np.ndarray],
             on_accept: Optional[Callable] = None):
    """Drive a batch of trajectories until each is classified non-zero.

    ``classify(t, Y) -> int8`` per row: 0 keep going, otherwise a caller
    status code.  Rows also stop with status -1 (step underflow) or -2
    (non-finite state).  Returns (t, Y, status).
    """
    K = Y0.shape[0]
    Y = Y0.astype(float).copy()
    t = np.zeros(K)
    h = np.full(K, min(cfg.h_max, 1e-2))
    status = classify(t, Y).copy()
    active = status == 0
    while np.any(active):
        idx = np.where(active)[0]
        remaining = stop_time[idx] - t[idx]
        clipped = remaining < h[idx]
        h_try = np.where(clipped, remaining, h[idx])
        y5, err = _rk_step(rhs, Y[idx], h_try)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Y[idx]), np.abs(y5))
        with np.errstate(invalid="ignore", divide="ignore"):
            enorm = np.sqrt(np.mean((err / scale) ** 2, axis=1))
        enorm = np.where(np.isfinite(enorm), enorm, 1e6)
        accept = enorm <= 1.0
        # classic controller, safety factor 0.9, growth/shrink clamps
        with np.errstate(divide="ignore", over="ignore"):
            factor = np.where(enorm > 0, 0.9 * enorm ** -0.2, 5.0)
        factor = np.clip(factor, 0.2, 5.0)
        acc = idx[accept]
        if acc.size:
            t[acc] = t[acc] + h_try[accept]
            Y[acc] = y5[accept]
            if on_accept is not None:
                on_accept(acc, t[acc], Y[acc])
        # a step clipped to the endpoint says nothing about accuracy limits,
        # so keep the controller value in that case
        h_prop = np.minimum(h_try * factor, cfg.h_max)
        h[idx] = np.where(accept & clipped, h[idx], h_prop)
        if acc.size:
            st = classify(t[acc], Y[acc])
            nonfin = ~np.all(np.isfinite(Y[acc]), axis=1)
            st = np.where(nonfin & (st == 0), -2, st)
            status[acc] = st
        under = idx[(h[idx] < MIN_STEP) & (status[idx] == 0)]
        status[under] = -1
        active = status == 0
    return t, Y, status


def _augment_rhs(sys: dyn.SystemDef):
    n = sys.dim

    def rhs(Ys: np.ndarray) -> np.ndarray:
        X = Ys[:, :n]
        out = np.empty_like(Ys)
        out[:, :n] = sys.f_many(X)
        out[:, n] = np.sum(X * X, axis=1)
        return out

    return rhs


def integrate(sys: dyn.SystemDef, x0, t_end: float,
              cfg: IntegratorConfig = IntegratorConfig()):
    """Integrate one trajectory to t_end; returns the accepted-step path.

    Raises BlowUp when the state norm passes 1e6 and StepUnderflow when
    the controller collapses below 1e-12.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    x0 = np.asarray(x0, dtype=float)
    path = [(0.0, x0.copy())]

    def rhs(Ys):
        return sys.f_many(Ys)

    def classify(t, Y):
        out = np.zeros(t.shape, dtype=np.int8)
        out[np.linalg.norm(Y, axis=1) > BLOWUP_NORM] = 2
        out[t >= t_end * (1 - 1e-12)] = 1
        return out

    def on_accept(idx, t, Y):
        path.append((float(t[0]), Y[0].copy()))

    _, Yf, status = _advance(rhs, x0[None, :], cfg,
                             stop_time=np.array([t_end]),
                             classify=classify, on_accept=on_accept)
    s = int(status[0])
    # chasing a finite-time escape collapses the step size long before the
    # norm threshold is reachable; a collapse at an already huge norm is the
    # blow-up signature, not an accuracy failure
    if s == 2 or s == -2 or (s == -1 and np.linalg.norm(Yf[0]) > 1e3):
        raise BlowUp(f"trajectory from {x0} exceeded norm {BLOWUP_NORM:g} "
                     "or escaped in finite time")
    if s == -1:
        raise StepUnderflow(f"step size fell below {MIN_STEP:g}")
    return path


def advance_batch(sys: dyn.SystemDef, X0: np.ndarray,
                  classify: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  cfg: IntegratorConfig = IntegratorConfig(),
                  on_accept: Optional[Callable] = None):
    """Advance many trajectories of the plain state ODE at once.

    ``classify(t, X) -> int8`` per row decides when each trajectory is
    done (0 keeps going); ``on_accept(rows, t, X)`` observes accepted
    steps.  Returns (t, X, status) with status -1 for step underflow and
    -2 for a non-finite state.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    return _advance(lambda Ys: sys.f_many(Ys), X0, cfg,
                    stop_time=np.full(X0.shape[0], cfg.t_max),
                    classify=classify, on_accept=on_accept)


def _tail_quadratic(sys: dyn.SystemDef) -> Optional[np.ndarray]:
    """P with V_lin(x) = x'Px for the linearization (Q = I), if it exists.

    Adding x'Px at the stopping point removes the truncation bias of
    cutting the cost integral at |x| = stop_radius.
    """
    try:
        sol = dyn.solve_lyapunov(sys.linearization.A, np.eye(sys.dim))
    except (dyn.SingularSystem, ValueError):
        return None
    return sol.P if sol.pos_def else None


def estimate_V_batch(sys: dyn.SystemDef, X: np.ndarray,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     tail_P: Optional[np.ndarray] = None):
    """Estimate V over points X (K, n); returns (v_hat, converged).

    Non-converged entries carry v_hat = +inf.  Integrator failures mark
    the affected sample non-converged instead of aborting the batch.
    """
    n = sys.dim
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if tail_P is None:
        tail_P = _tail_quadratic(sys)
    Y0 = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)

    def classify(t, Y):
        out = np.zeros(t.shape, dtype=np.int8)
        r = np.linalg.norm(Y[:, :n], axis=1)
        out[r > BLOWUP_NORM] = 3
        out[Y[:, n] >= cfg.value_cap] = 2
        out[t >= cfg.t_max] = 4
        out[r <= cfg.stop_radius] = 1
        return out

    _, Yf, status = _advance(_augment_rhs(sys), Y0, cfg,
                             stop_time=np.full(X.shape[0], cfg.t_max),
                             classify=classify)
    converged = status == 1
    v = np.full(X.shape[0], np.inf)
    if np.any(converged):
        xs = Yf[converged, :n]
        tail = np.einsum("ki,ij,kj->k", xs, tail_P, xs) if tail_P is not None else 0.0
        v[converged] = Yf[converged, n] + tail
    return v, converged


def estimate_V(sys: dyn.SystemDef, x,
               cfg: IntegratorConfig = IntegratorConfig()):
    v, conv = estimate_V_batch(sys, np.asarray(x, dtype=float)[None, :], cfg)
    return float(v[0]), bool(conv[0])


def grid_points(box, counts) -> np.ndarray:
    """Uniform inclusive lattice over a box, row-major point order."""
    counts = [int(c) for c in (counts if np.ndim(counts) else [counts] * box.dim)]
    if len(counts) != box.dim or any(c < 2 for c in counts):
        raise ValueError("need a per-axis count >= 2 for each dimension")
    axes = [np.linspace(box.lo[i], box.hi[i], counts[i]) for i in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def gen_dataset(sys: dyn.SystemDef, grid, cfg: IntegratorConfig,
                b: BetaKind, chunk: int = 4096) -> list:
    """Value samples on a uniform lattice over the system domain."""
    pts = grid_points(sys.domain, grid)
    tail_P = _tail_quadratic(sys)
    samples = []
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        v, conv = estimate_V_batch(sys, block, cfg, tail_P=tail_P)
        w = beta_transform(v, b)
        for i in range(block.shape[0]):
            samples.append(ValueSample(x=block[i].copy(), v_hat=float(v[i]),
                                       w_hat=float(w[i]), converged=bool(conv[i])))
    return samples


def save_samples(path, samples: list, dim: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(dim)] + ["v_hat", "w_hat", "converged"])
        for s in samples:
            v = "inf" if math.isinf(s.v_hat) else repr(s.v_hat)
            writer.writerow([repr(float(c)) for c in s.x] + [v, repr(s.w_hat),
                                                             "true" if s.converged else "false"])


def load_samples(path) -> list:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 3
        if dim < 1 or header[dim:] != ["v_hat", "w_hat", "converged"]:
            raise ValueError(f"unrecognized dataset header: {header}")
        for row in reader:
            x = np.array([float(c) for c in row[:dim]])
            v = math.inf if row[dim] == "inf" else float(row[dim])
            samples.append(ValueSample(x=x, v_hat=v, w_hat=float(row[dim + 1]),
                                       converged=row[dim + 2] == "true"))
    return samples
