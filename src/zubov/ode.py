"""Trajectory integration and generation of converse-Lyapunov value data.

For each initial point x the scalar cost  v(T) = int_0^T |phi(t,x)|^2 dt
is integrated jointly with the state as one augmented ODE under a single
embedded Runge-Kutta 4(5) error control (Dormand-Prince coefficients).
Integration stops when the trajectory enters a small ball around the
origin (converged; a quadratic tail estimate is added), or when the
accumulated value crosses a cap / the time horizon runs out / the state
blows up (not converged; the value is reported as +inf).

The stepper is vectorized over a pool of at most ``POOL_ROWS``
trajectories: each keeps its own step size, the pool advances in
lockstep, and a finished row's slot goes to the next waiting row, so a
whole lattice runs as one batch in bounded memory.  Every operation is
row-wise, so a row's bits do not depend on which rows share its steps;
the (rows, d) states and stages are stored in Fortran order, so each
per-component operation runs over contiguous memory.  The tableau is
first-same-as-last: the seventh stage is evaluated at the fifth-order
solution itself, so each row keeps its next first stage (the last stage
of its accepted step, or its old first stage after a rejection) and a
step costs six field evaluations, not seven.  The results are bit-equal
to recomputing the first stage.

``estimate_V_batch`` splits a lattice into ``w`` interleaved shares (row
i goes to share i mod w) and integrates share 0 in the calling process
and the others in forked workers, one pool each, then scatters the rows
back in lattice order; since every operation is row-wise, the data is
the same bits for any ``w``.  ``w`` is the number of usable cores, but
at most one share per two full pools, so lattices below 2 * POOL_ROWS
rows stay in one process; where ``os.sched_getaffinity`` does not exist
(macOS, Windows), and in a daemonic process such as a multiprocessing
pool's worker, ``w`` is 1.  Workers run only the elementwise
integrator, never BLAS or threads, are always joined and die with a
killed caller; an error in a share is raised again in the caller.  A
tracer that wraps ``_rk_step`` sees only the calling process's share,
while ``IntegratorStats`` counts every row.  Python 3.12 and later may
warn that forking a process with threads (OpenBLAS starts one per core)
can deadlock the child; the workers never call BLAS.

``advance_batch`` runs the same pool on the plain state ODE; one row
with an ``on_accept`` recorder traces a single path.  Each run counts
its accepted and rejected row-steps and the final status of every row
(``IntegratorStats``).  Value data travels as the columns of a
``ValueGrid``, and its CSV is written and read a block of rows at a
time.
"""

from __future__ import annotations

import io
import os
import signal
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import dynamics as dyn

__all__ = [
    "IntegratorConfig", "IntegratorStats", "ValueSample", "ValueGrid", "BetaKind",
    "advance_batch", "estimate_V_batch", "beta_transform",
    "gen_dataset", "save_samples", "load_samples",
]

BLOWUP_NORM = 1e6
ESCAPE_NORM = 1e3    # a step underflow beyond this norm is a finite-time escape
MIN_STEP = 1e-12
POOL_ROWS = 4096     # rows in flight at once in _advance: bounds per-step memory

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


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-6
    atol: float = 1e-8
    h_max: float = 0.1
    t_max: float = 500.0
    stop_radius: float = 1e-3
    value_cap: float = 200.0

    def __post_init__(self):
        if not all(x > 0 for x in astuple(self)):     # NaN fails too
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
        if not self.alpha > 0:      # NaN fails too
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class ValueSample:
    x: np.ndarray
    v_hat: float          # +inf when the cost diverges
    w_hat: float
    converged: bool


@dataclass(frozen=True, eq=False)
class ValueGrid(Sequence):
    """Value data as columns; it reads as a sequence of ValueSample rows."""

    X: np.ndarray           # (K, n) points
    v: np.ndarray           # v_hat, +inf where the cost diverges
    w: np.ndarray           # w_hat
    converged: np.ndarray

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i) -> ValueSample:
        return ValueSample(self.X[i].copy(), float(self.v[i]), float(self.w[i]),
                           bool(self.converged[i]))


# final status of a value-data row, by the code estimate_V_batch gives it
STATUS_NAMES = {1: "converged", 2: "value_cap", 3: "blow_up", 4: "t_max",
                -1: "step_underflow", -2: "non_finite"}


@dataclass
class IntegratorStats:
    """Counts of value-data integration, summed over the batches it sees."""

    accepted: int = 0       # accepted row-steps
    rejected: int = 0       # rejected row-steps
    status: dict = field(default_factory=lambda: dict.fromkeys(STATUS_NAMES.values(), 0))
    workers: int = 0        # most processes one batch was integrated in

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
    # in place, so the only full-size array made is w itself
    w = np.multiply(v_arr, -b.alpha if b.kind == "exp" else b.alpha, np.empty(v_arr.shape))
    with np.errstate(over="ignore"):
        if b.kind == "exp":
            np.subtract(1.0, np.exp(w, w), w)
        else:
            np.tanh(w, w)
    # a finite v maps strictly below 1; restore that when rounding hits 1.0
    w[np.isfinite(v_arr) & (w >= 1.0)] = np.nextafter(1.0, 0.0)
    w[np.isinf(v_arr)] = 1.0
    return float(w) if np.isscalar(v) or np.ndim(v) == 0 else w


def _combine(coefs, k, tmp, scale):
    """scale * sum_j coefs[j] k[j] over the non-zero coefficients, added
    left to right; each product but the first is made in ``tmp``."""
    (c0, k0), *rest = [(c, kj) for c, kj in zip(coefs, k) if c != 0.0]
    acc = np.multiply(k0, c0)
    for c, kj in rest:
        acc += np.multiply(kj, c, tmp)
    acc *= scale
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
    hc, tmp = h[:, None], np.empty_like(Y)
    for s in range(1, 7):
        ys = _combine(_A[s], k, tmp, hc)
        ys += base
        k.append(rhs(ys))
    # _A[6] == _B5, so the last stage point is y5
    return ys, _combine(_E, k, tmp, hc), k[6]


def _advance(rhs, Y0: np.ndarray, cfg: IntegratorConfig,
             stop_time: np.ndarray,
             classify: Callable[[np.ndarray, np.ndarray], np.ndarray],
             on_accept: Optional[Callable] = None,
             stats: Optional[IntegratorStats] = None):
    """Drive a batch of trajectories until each is classified non-zero.

    ``classify(t, Y) -> int8`` per row, from the row's own (t, Y): 0 keep
    going, otherwise a caller status code.  Rows also stop with status -1
    (step underflow), -2 (non-finite state) or -3 (``stop_time`` reached
    while ``classify`` still says 0: the last step is clipped to it, and a
    step of 0 would be accepted forever).  ``on_accept(rows, t, Y)`` sees
    the accepted steps by batch row index.  Returns (t, Y, status);
    ``stats``, if given, gains the accepted and rejected row-steps.
    """
    t_out, Y_out = np.zeros(Y0.shape[0]), Y0.astype(float)
    status = classify(t_out, Y_out).astype(np.int8)
    # the pool: batch row indices, t, Y, h, stop time and each row's next
    # first stage rhs(Y); a finished row's slot goes to the next waiting row
    queue = np.flatnonzero(status == 0)
    rows, queue = queue[:POOL_ROWS], queue[POOL_ROWS:]
    h0 = min(cfg.h_max, 1e-2)
    # np.take(a.T, idx, axis=-1).T is a[idx] as a Fortran-ordered copy
    t, h, stop, Y = (np.zeros(rows.size), np.full(rows.size, h0), stop_time[rows],
                     np.take(Y_out.T, rows, axis=-1).T)
    k1 = rhs(Y) if rows.size else Y
    while rows.size:
        remaining = stop - t
        clipped = remaining < h
        h_try = np.where(clipped, remaining, h)
        y5, err, k7 = _rk_step(rhs, Y, h_try, k1)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Y), np.abs(y5))
        with np.errstate(invalid="ignore", divide="ignore"):
            # the RMS over components, as np.mean gives it
            enorm = np.sqrt(_sq_norm(err / scale) / Y.shape[1])
        enorm = np.where(np.isfinite(enorm), enorm, 1e6)
        accept = enorm <= 1.0
        # classic controller, safety factor 0.9, growth/shrink clamps
        with np.errstate(divide="ignore", over="ignore"):
            factor = np.where(enorm > 0, 0.9 * enorm ** -0.2, 5.0)
        factor = np.clip(factor, 0.2, 5.0)
        if stats is not None:
            stats.accepted += int(np.count_nonzero(accept))
            stats.rejected += int(np.count_nonzero(~accept))
        # a step clipped to the endpoint says nothing about accuracy limits,
        # so keep the controller value in that case
        h_prop = np.minimum(h_try * factor, cfg.h_max)
        landed = accept & clipped       # accepted steps that end at stop_time
        h = np.where(landed, h, h_prop)
        # whole-pool updates: a rejected row keeps its (t, Y), for which
        # classify has already said 0
        t = np.where(accept, t + h_try, t)
        Y = np.where(accept[:, None], y5, Y)
        k1 = np.where(accept[:, None], k7, k1)
        st = classify(t, Y).astype(np.int8)
        # x - x is NaN exactly where x is not finite
        st[accept & (st == 0) & np.isnan(_sq_norm(Y - Y))] = -2
        st[landed & (st == 0)] = -3
        st[(h < MIN_STEP) & (st == 0)] = -1
        if on_accept is not None and accept.any():
            on_accept(rows[accept], t[accept], Y[accept])
        done = np.flatnonzero(st)
        if done.size:
            out = rows[done]
            t_out[out], Y_out[out], status[out] = t[done], Y[done], st[done]
            new, queue = queue[:done.size], queue[done.size:]
            slots, rest = done[:new.size], done[new.size:]
            rows[slots], t[slots], h[slots], stop[slots] = new, 0.0, h0, stop_time[new]
            if new.size:
                Y[slots], k1[slots] = Y_out[new], rhs(Y_out[new])
            if rest.size:
                keep = np.delete(np.arange(rows.size), rest)
                rows, t, Y, h, stop, k1 = (np.take(a.T, keep, axis=-1).T
                                           for a in (rows, t, Y, h, stop, k1))
    return t_out, Y_out, status


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


def _augment_rhs(sys: dyn.SystemDef, cost: bool = True):
    """The pool's rhs: f(x), then |x|^2 if ``cost``, in one Fortran-ordered array."""
    n = sys.dim

    def rhs(Ys: np.ndarray) -> np.ndarray:
        X = Ys[:, :n]
        out = np.empty((Ys.shape[0], n + cost), order="F")
        sys.field.eval_many(X, out)
        if cost:
            out[:, n] = _sq_norm(X)
        return out

    return rhs


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
    return _advance(_augment_rhs(sys, cost=False), X0, cfg,
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


def _share_count(rows: int) -> int:
    """Processes to integrate ``rows`` rows in: one per usable core, but
    at least two full pools per share.  1 where the cores are unknown, and
    in a daemonic process (a multiprocessing pool's worker), which may not
    start processes."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    w = min(len(os.sched_getaffinity(0)), rows // (2 * POOL_ROWS))
    if w < 2:
        return 1
    import multiprocessing as mp     # only here: it is slow to import
    return 1 if mp.current_process().daemon else w


def _in_shares(share: Callable[[int], tuple], w: int) -> list:
    """``[share(0), ..., share(w - 1)]``: share 0 runs here, the others in
    forked workers that send their result back through a pipe.  Every
    worker is joined before this returns or raises; one still running
    when a share fails (or on Ctrl-C) is terminated first."""
    if w == 1:
        return [share(0)]
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    workers, results = [], []
    try:
        for j in range(1, w):
            recv, send = ctx.Pipe(duplex=False)
            readers = [r for _, r in workers] + [recv]
            p = ctx.Process(target=_share_worker, args=(share, j, readers, send, os.getpid()),
                            daemon=True)
            try:
                p.start()
            finally:
                send.close()
            workers.append((p, recv))
        results.append(share(0))
        for p, recv in workers:
            try:
                ok, value = recv.recv()
            except EOFError:
                p.join()
                raise RuntimeError(f"integrator worker ended with exit code {p.exitcode} "
                                   "before sending its share") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for i, (p, recv) in enumerate(workers, 1):
            if i >= len(results):       # its share was not received
                p.terminate()
            p.join()
            recv.close()


def _share_worker(share, j: int, readers: list, send, caller: int) -> None:
    """A forked worker's body: ``share(j)`` or the error it raised, sent
    as ``(ok, value)``.  Ctrl-C is left to the parent, which ends it.

    On Linux the kernel kills the worker when its ``caller`` dies
    (``PR_SET_PDEATHSIG``; a caller already gone is seen at once).  The
    worker also closes the read ends it inherited, so that a send to a
    dead parent fails instead of waiting for a reader forever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if os.uname().sysname == "Linux":
        import ctypes
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)        # 1 = PR_SET_PDEATHSIG
        if os.getppid() != caller:
            os._exit(0)
    for r in readers:
        r.close()
    try:
        msg = (True, share(j))
    except Exception as e:          # re-raised in the parent
        msg = (False, e)
    try:
        send.send(msg)
    except BrokenPipeError:         # the parent is gone
        pass
    except Exception as e:          # an error that does not pickle
        send.send((False, RuntimeError(f"integrator share {j} could not be sent: {e}")))
    finally:
        send.close()


def estimate_V_batch(sys: dyn.SystemDef, X: np.ndarray,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     stats: Optional[IntegratorStats] = None):
    """Estimate V over points X (K, n); returns (v_hat, converged).

    Non-converged entries carry v_hat = +inf.  Integrator failures mark
    the affected sample non-converged instead of aborting the batch; a
    step underflow beyond ``ESCAPE_NORM`` counts as a blow-up, since
    chasing a finite-time escape collapses the step size long before the
    norm reaches ``BLOWUP_NORM``.  The rows are integrated in ``_share_count`` interleaved
    shares (see the module docstring), with the same bits for any count.
    ``stats``, if given, gains the step counts, each row's final status
    (``STATUS_NAMES``) and the number of processes.
    """
    n = sys.dim
    X = np.atleast_2d(np.asarray(X, dtype=float))
    tail_P = _tail_quadratic(sys)
    K = X.shape[0]
    Y0 = np.concatenate([X, np.zeros((K, 1))], axis=1)
    rhs, stop_time, w = _augment_rhs(sys), np.full(K, cfg.t_max), _share_count(K)

    def classify(t, Y):
        out = np.zeros(t.shape, dtype=np.int8)
        r = np.sqrt(_sq_norm(Y[:, :n]))
        out[r > BLOWUP_NORM] = 3
        out[Y[:, n] >= cfg.value_cap] = 2
        out[t >= cfg.t_max] = 4
        out[r <= cfg.stop_radius] = 1
        return out

    def share(j):
        counts = IntegratorStats()
        _, Yf, status = _advance(rhs, Y0[j::w], cfg, stop_time[j::w], classify, stats=counts)
        return Yf, status, counts.accepted, counts.rejected

    shares = _in_shares(share, w)
    Yf, status = np.empty_like(Y0), np.empty(K, dtype=np.int8)
    for j, (Yj, sj, _, _) in enumerate(shares):
        Yf[j::w], status[j::w] = Yj, sj
    under = np.flatnonzero(status == -1)
    status[under[np.sqrt(_sq_norm(Yf[under, :n])) > ESCAPE_NORM]] = 3
    if stats is not None:
        stats.accepted += sum(sh[2] for sh in shares)
        stats.rejected += sum(sh[3] for sh in shares)
        stats.count_status(status)
        stats.workers = max(stats.workers, w)
    converged = status == 1
    v = np.full(K, np.inf)
    if np.any(converged):
        xs = Yf[converged, :n]
        tail = np.einsum("ki,ij,kj->k", xs, tail_P, xs) if tail_P is not None else 0.0
        v[converged] = Yf[converged, n] + tail
    return v, converged


def grid_points(box, counts) -> np.ndarray:
    """Uniform inclusive lattice over a box, row-major point order."""
    counts = [int(c) for c in (counts if np.ndim(counts) else [counts] * box.dim)]
    if len(counts) != box.dim or any(c < 2 for c in counts):
        raise ValueError("need a per-axis count >= 2 for each dimension")
    axes = [np.linspace(box.lo[i], box.hi[i], counts[i]) for i in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def gen_dataset(sys: dyn.SystemDef, grid, cfg: IntegratorConfig, b: BetaKind,
                stats: Optional[IntegratorStats] = None) -> ValueGrid:
    """Value samples on a uniform lattice over the system domain.

    ``stats``, if given, gains the integrator counts of the lattice.
    """
    X = grid_points(sys.domain, grid)
    v, conv = estimate_V_batch(sys, X, cfg, stats=stats)
    return ValueGrid(X, v, beta_transform(v, b), conv)


_BLOCK = 4096   # rows formatted at once by write_csv


def _reprs(c: np.ndarray) -> list:
    """``repr`` of each float, made once per distinct bit pattern (so -0.0 is not 0.0)."""
    keys, inv = np.unique(c.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)[inv].tolist()


def write_csv(path, header: list, columns: list) -> None:
    """Write equal-length columns of floats (each as its ``repr``) or strings as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), _BLOCK):
            cells = [_reprs(c) if c.dtype == np.float64 else c.tolist()
                     for c in (col[a:a + _BLOCK] for col in columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def save_samples(path, samples: ValueGrid, dim: int) -> None:
    """Write ``samples`` as CSV: v_hat reads ``inf`` where not converged."""
    write_csv(path, [f"x{i + 1}" for i in range(dim)] + ["v_hat", "w_hat", "converged"],
              [*samples.X.T, samples.v, samples.w, np.where(samples.converged, "true", "false")])


def load_samples(path) -> ValueGrid:
    """Read a dataset written by ``save_samples``.

    Raises ValueError naming the file on an empty file, a foreign header
    or no data rows, and naming the line on a row of the wrong length, an
    unreadable number, a converged flag other than true/false, a
    non-finite coordinate or a NaN value; v_hat = inf is valid only on a
    non-converged row.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\r\n").split(",")
        dim = len(header) - 3
        if dim < 1 or header[dim:] != ["v_hat", "w_hat", "converged"]:
            raise ValueError(f"{path}: unrecognized dataset header: {header}")
        body = fh.read()
    if not body.strip():
        raise ValueError(f"{path}: no data rows")
    # a flag longer than "false" is cut to 6 characters, which still differ
    dt = np.dtype([("x", float, (dim,)), ("v", float), ("w", float), ("flag", "U6")])
    try:
        rows = np.loadtxt(io.BytesIO(body), dtype=dt, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        rows = None
    # loadtxt skips blank lines: a short count means the body has one
    if rows is None or rows.size != body.count(b"\n") + (not body.endswith(b"\n")):
        for num, line in enumerate(body.decode().splitlines(), 2):
            fields = line.split(",") if line.strip() else []
            try:
                if len(fields) != dim + 3:
                    raise ValueError(f"{len(fields)} fields, expected {dim + 3}")
                list(map(float, fields[:-1]))
            except ValueError as e:
                raise ValueError(f"{path}, line {num}: {e}") from None
        raise ValueError(f"{path}: unreadable dataset")
    # contiguous columns, as the writer's are: matmul's bits depend on the layout
    X, v, w = (np.ascontiguousarray(rows[k]) for k in "xvw")
    flag, conv = rows["flag"], rows["flag"] == "true"
    faults = {"converged flag {!r} is neither true nor false": ~conv & (flag != "false"),
              "non-finite coordinate": ~np.isfinite(X).all(axis=1),
              "NaN value": np.isnan(v) | np.isnan(w),
              "converged row with infinite v_hat": conv & np.isinf(v)}
    bad = np.stack(list(faults.values()))
    if bad.any():
        i = np.flatnonzero(bad.any(axis=0))[0]
        why = list(faults)[np.flatnonzero(bad[:, i])[0]].format(str(flag[i]))
        raise ValueError(f"{path}, line {i + 2}: {why}")
    return ValueGrid(X, v, w, conv)
