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
lockstep, which is what makes dense value-grid generation cheap.  The
tableau is first-same-as-last: the seventh stage is evaluated at the
fifth-order solution itself, so each row keeps its next first stage
(the last stage of its accepted step, or its old first stage after a
rejection) and a step costs six field evaluations, not seven.  The
results are bit-equal to recomputing the first stage.

Each run counts its accepted and rejected row-steps and the final
status of every row (``IntegratorStats``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dynamics as dyn

__all__ = [
    "IntegratorConfig", "IntegratorStats", "ValueSample", "BetaKind",
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


# final status of a value-data row, by the code estimate_V_batch gives it
STATUS_NAMES = {1: "converged", 2: "value_cap", 3: "blow_up", 4: "t_max",
                -1: "step_underflow", -2: "non_finite"}


@dataclass
class IntegratorStats:
    """Counts of value-data integration, summed over the batches it sees."""

    accepted: int = 0       # accepted row-steps
    rejected: int = 0       # rejected row-steps
    status: dict = field(default_factory=lambda: dict.fromkeys(STATUS_NAMES.values(), 0))

    def count_status(self, status: np.ndarray) -> None:
        for code, name in STATUS_NAMES.items():
            self.status[name] += int(np.count_nonzero(status == code))


def beta_transform(v, b: BetaKind):
    """Apply the value transform; v = +inf maps to exactly 1."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(np.isnan(v_arr)):
        raise ValueError("beta transform expects v >= 0, got NaN")
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


def _combine(coefs, k):
    """sum_j coefs[j] k[j] over the non-zero coefficients, added left to right."""
    acc = None
    for c, kj in zip(coefs, k):
        if c != 0.0:
            if acc is None:
                acc = c * kj
            else:
                acc += c * kj
    return acc


def _rk_step(rhs, Y, h, k1=None):
    """One embedded DP45 step for all rows at once; returns (y5, err, k7).

    ``k1`` is rhs(Y) if the caller has it.  The last stage is evaluated
    at y5 itself, so k7 = rhs(y5) is the first stage of the next step of
    every row that accepts y5: reusing it saves one of seven field
    evaluations per step.
    """
    k = [rhs(Y) if k1 is None else k1]
    # +0.0 turns a -0.0 coordinate into +0.0, which keeps every stage
    # point bit-equal to summing each stage from Python's int 0
    base = Y + 0.0
    hc = h[:, None]
    for s in range(1, 7):
        ys = base + hc * _combine(_A[s], k)
        k.append(rhs(ys))
    # _A[6] == _B5, so the last stage point is y5
    return ys, hc * _combine(_E, k), k[6]


def _advance(rhs, Y0: np.ndarray, cfg: IntegratorConfig,
             stop_time: np.ndarray,
             classify: Callable[[np.ndarray, np.ndarray], np.ndarray],
             on_accept: Optional[Callable] = None,
             stats: Optional[IntegratorStats] = None):
    """Drive a batch of trajectories until each is classified non-zero.

    ``classify(t, Y) -> int8`` per row: 0 keep going, otherwise a caller
    status code.  Rows also stop with status -1 (step underflow), -2
    (non-finite state) or -3 (``stop_time`` reached while ``classify``
    still says 0: the last step is clipped to it, and a step of 0 would
    be accepted forever).  Returns (t, Y, status); ``stats``, if given,
    gains the accepted and rejected row-steps.
    """
    K = Y0.shape[0]
    Y = Y0.astype(float).copy()
    t = np.zeros(K)
    h = np.full(K, min(cfg.h_max, 1e-2))
    status = classify(t, Y).copy()
    active = status == 0
    k1 = np.empty_like(Y)       # each row's next first stage, rhs(Y)
    if np.any(active):
        k1[active] = rhs(Y[active])
    while np.any(active):
        idx = np.flatnonzero(active)
        Yi, hi = Y[idx], h[idx]
        remaining = stop_time[idx] - t[idx]
        clipped = remaining < hi
        h_try = np.where(clipped, remaining, hi)
        y5, err, k7 = _rk_step(rhs, Yi, h_try, k1[idx])
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Yi), np.abs(y5))
        with np.errstate(invalid="ignore", divide="ignore"):
            # the RMS over components, as np.mean gives it
            enorm = np.sqrt(_sq_norm(err / scale) / Y.shape[1])
        enorm = np.where(np.isfinite(enorm), enorm, 1e6)
        accept = enorm <= 1.0
        # classic controller, safety factor 0.9, growth/shrink clamps
        with np.errstate(divide="ignore", over="ignore"):
            factor = np.where(enorm > 0, 0.9 * enorm ** -0.2, 5.0)
        factor = np.clip(factor, 0.2, 5.0)
        acc = idx[accept]
        if stats is not None:
            stats.accepted += acc.size
            stats.rejected += idx.size - acc.size
        # a step clipped to the endpoint says nothing about accuracy limits,
        # so keep the controller value in that case
        h_prop = np.minimum(h_try * factor, cfg.h_max)
        landed = accept & clipped       # accepted steps that end at stop_time
        h[idx] = hi = np.where(landed, hi, h_prop)
        if acc.size:
            ta, Ya = t[acc] + h_try[accept], y5[accept]
            t[acc], Y[acc], k1[acc] = ta, Ya, k7[accept]
            nonfin = ~np.isfinite(Ya).all(axis=1)
            st = classify(ta, Ya)
            st = np.where(nonfin & (st == 0), -2, st)
            if landed.any():
                st = np.where(landed[accept] & (st == 0), -3, st)
            status[acc] = st
            if on_accept is not None:
                on_accept(acc, ta, Ya)
        under = idx[(hi < MIN_STEP) & (status[idx] == 0)]
        status[under] = -1
        active = status == 0
    return t, Y, status


def _sq_norm(X: np.ndarray) -> np.ndarray:
    """|x|^2 per row, bit-equal to np.sum(X * X, axis=1).

    numpy adds a row of fewer than 8 terms left to right, so for short
    rows the column-by-column sum gives the same bits without the slow
    strided reduction; longer rows keep numpy's pairwise sum.
    """
    n = X.shape[1]
    if n >= 8:
        return np.sum(X * X, axis=1)
    out = X[:, 0] * X[:, 0]
    for i in range(1, n):
        out += X[:, i] * X[:, i]
    return out


def _augment_rhs(sys: dyn.SystemDef):
    n = sys.dim

    def rhs(Ys: np.ndarray) -> np.ndarray:
        X = Ys[:, :n]
        out = np.empty_like(Ys)
        out[:, :n] = sys.f_many(X)
        out[:, n] = _sq_norm(X)
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
    steps.  Returns (t, X, status) with status -1 for step underflow, -2
    for a non-finite state and -3 for a row still unclassified at
    ``cfg.t_max``.
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
                     tail_P: Optional[np.ndarray] = None,
                     stats: Optional[IntegratorStats] = None):
    """Estimate V over points X (K, n); returns (v_hat, converged).

    Non-converged entries carry v_hat = +inf.  Integrator failures mark
    the affected sample non-converged instead of aborting the batch.
    ``stats``, if given, gains the step counts and each row's final
    status (``STATUS_NAMES``).
    """
    n = sys.dim
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if tail_P is None:
        tail_P = _tail_quadratic(sys)
    Y0 = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)

    def classify(t, Y):
        out = np.zeros(t.shape, dtype=np.int8)
        r = np.sqrt(_sq_norm(Y[:, :n]))
        out[r > BLOWUP_NORM] = 3
        out[Y[:, n] >= cfg.value_cap] = 2
        out[t >= cfg.t_max] = 4
        out[r <= cfg.stop_radius] = 1
        return out

    _, Yf, status = _advance(_augment_rhs(sys), Y0, cfg,
                             stop_time=np.full(X.shape[0], cfg.t_max),
                             classify=classify, stats=stats)
    if stats is not None:
        stats.count_status(status)
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
                b: BetaKind, chunk: int = 4096,
                stats: Optional[IntegratorStats] = None) -> list:
    """Value samples on a uniform lattice over the system domain.

    ``stats``, if given, gains the integrator counts of every chunk.
    """
    pts = grid_points(sys.domain, grid)
    tail_P = _tail_quadratic(sys)
    samples = []
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        v, conv = estimate_V_batch(sys, block, cfg, tail_P=tail_P, stats=stats)
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
    """Read a dataset written by ``save_samples``.

    Raises ValueError naming the file on an empty file or a foreign
    header, and naming the line on a converged flag other than true/false,
    a non-finite coordinate or a NaN value; v_hat = inf is valid only on
    a non-converged row.
    """
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])   # [] for an empty file
        dim = len(header) - 3
        if dim < 1 or header[dim:] != ["v_hat", "w_hat", "converged"]:
            raise ValueError(f"{path}: unrecognized dataset header: {header}")
        for row in reader:
            try:
                if len(row) != dim + 3:
                    raise ValueError(f"{len(row)} fields, expected {dim + 3}")
                x = [float(c) for c in row[:dim]]
                v, w = float(row[dim]), float(row[dim + 1])
                flag = row[dim + 2]
                if flag not in ("true", "false"):
                    raise ValueError(f"converged flag {flag!r} is neither true nor false")
                if not all(map(math.isfinite, x)):
                    raise ValueError("non-finite coordinate")
                if math.isnan(v) or math.isnan(w):
                    raise ValueError("NaN value")
                if flag == "true" and math.isinf(v):
                    raise ValueError("converged row with infinite v_hat")
            except ValueError as e:
                raise ValueError(f"{path}, line {reader.line_num}: {e}") from None
            samples.append(ValueSample(x=np.array(x), v_hat=v, w_hat=w,
                                       converged=flag == "true"))
    return samples
