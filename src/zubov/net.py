"""The Lyapunov candidate network and its residual training loop.

The candidate W_N(x; theta) is a small tanh MLP with identity output.
Training minimizes

    total = lr_w * L_r + lb_w * L_b + ld_w * L_d

where L_r is the mean squared defect of the governing PDE

    grad W_N(x) . f(x) + Psi(x) (1 - W_N(x)) = 0,
    Psi = alpha * Phi            ("exp" form)
    Psi = alpha * (1 + W_N) * Phi ("tanh" form),   Phi(x) = |x|^2,

L_b pins the boundary behaviour (W -> 1 on points outside the basin,
W(0) = O, and an optional hinge keeping W between two quadratic-rate
envelopes near the origin), and L_d fits simulated value data.

W_N is evaluated on rows of points only (``forward_batch``, and
``input_grad_batch`` for its input gradient too); a point is a one-row
batch.  Every hidden layer is tanh, the only activation a file may name.

Gradients are computed by hand.  Each mini-batch stacks its collocation,
exterior, origin and data rows into one array; one forward pass over it
carries the directional derivative u = grad W_N . f as a tangent stream
(f on the collocation rows, 0 elsewhere), and one reverse pass with
per-row cotangents accumulates d/d theta of both the value and u.  The
hinge reads the collocation rows' values, so it needs no pass of its
own.  No autodiff framework is involved, which keeps runs
bit-reproducible for a fixed seed and lets the verifier reuse the exact
same weights.

Training does the weight-independent work once per dataset: f(x),
|x|^2 and the hinge envelopes of every collocation point are computed
up front; the stacked rows of ``BLOCK_STEPS`` steps at a time go into
one block, so a step reads views.  The trained weights and biases are
views into one flat parameter vector, which Adam updates in place.  The
arrays a step writes (each layer's forward and reverse arrays, the
cotangents and the gradient, laid out like theta) live in one workspace
per run, written with ``out=``.  No two products are fused into one:
BLAS results depend on the row count, and each keeps its own shape, so
the trained bits are those of fresh arrays.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import dynamics as dyn
from .ode import BetaKind, ValueGrid, beta_transform

__all__ = [
    "Mlp", "TrainConfig", "Dataset", "TrainRecord", "LossParts",
    "DivergedLoss",
    "init_mlp", "forward_batch", "input_grad_batch",
    "zubov_residual_batch", "loss", "train",
    "assemble_dataset", "save_mlp", "load_mlp", "param_count",
]

NET_FILE_VERSION = 1
BLOCK_STEPS = 32    # training steps whose stacked rows are gathered at once


class DivergedLoss(RuntimeError):
    pass


@dataclass
class Mlp:
    """Feedforward tanh network with identity output, weights as (out, in)."""

    layer_sizes: tuple
    weights: list
    biases: list

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if self.layer_sizes[-1] != 1:
            raise ValueError("output must be scalar")
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ValueError("weight count does not match layer_sizes")
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if W.shape != expect or b.shape != (expect[0],):
                raise ValueError(f"layer {i}: bad shapes {W.shape}, {b.shape}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")

    @property
    def dim(self) -> int:
        return self.layer_sizes[0]

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return forward_batch(self, X)

    def grad_batch(self, X: np.ndarray) -> np.ndarray:
        return input_grad_batch(self, X)[1]


def init_mlp(layer_sizes, seed_or_rng) -> Mlp:
    """Glorot-uniform weights, zero biases, from a seeded PCG64 stream."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else np.random.default_rng(seed_or_rng)
    sizes = tuple(int(s) for s in layer_sizes)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(sizes, weights, biases)


def param_count(net: Mlp) -> int:
    return sum(W.size + b.size for W, b in zip(net.weights, net.biases))


# ---------------------------------------------------------------------------
# Forward / gradients
# ---------------------------------------------------------------------------

def forward_batch(net: Mlp, X: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(X, dtype=float))
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ W.T + b
        if i < last:
            a = np.tanh(a)
    return a[:, 0]


def input_grad_batch(net: Mlp, X: np.ndarray):
    """W_N, (K,), and its exact gradient in x, (K, n), from one pass.

    The values come from the same operations as ``forward_batch``, so
    they are bit-equal to it; the gradient follows the layer chain rule.
    """
    a = np.atleast_2d(np.asarray(X, dtype=float))
    K, n = a.shape
    J = np.broadcast_to(np.eye(n), (K, n, n)).copy()
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ W.T + b
        J = W @ J
        if i < last:
            a = np.tanh(a)
            J = (1.0 - a * a)[:, :, None] * J
    return a[:, 0], J[:, 0, :]


# ---------------------------------------------------------------------------
# Configuration / data containers
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    alpha: float = 0.1
    psi_form: str = "tanh"          # "exp": Psi = a*Phi ; "tanh": Psi = a*(1+W)*Phi
    batch: int = 32
    lr: float = 1e-3
    max_epochs: int = 200
    loss_threshold: float = 1e-5
    lambda_r: float = 1.0
    lambda_b: float = 1.0
    lambda_d: float = 1.0
    seed: int = 0
    # quadratic-envelope hinge near the origin: active inside x'Px <= c_local
    local_P: Optional[np.ndarray] = None
    c_local: Optional[float] = None

    def __post_init__(self):
        if self.psi_form not in ("exp", "tanh"):
            raise ValueError(f"unknown psi form {self.psi_form!r}")
        if not (self.alpha > 0 and self.lr > 0) or self.batch < 1:    # NaN fails too
            raise ValueError("alpha, lr must be positive and batch >= 1")
        if not all(lam >= 0 for lam in (self.lambda_r, self.lambda_b, self.lambda_d)):
            raise ValueError("loss weights must be non-negative")

    def beta(self) -> BetaKind:
        return BetaKind(kind=self.psi_form, alpha=self.alpha)


@dataclass
class Dataset:
    collocation: np.ndarray                 # (N, n) residual points
    exterior: np.ndarray                    # (M, n) points where W should be 1
    pair_x: np.ndarray                      # (D, n) value-data points
    pair_w: np.ndarray                      # (D,) targets in [0, 1]

    def __post_init__(self):
        self.collocation = np.atleast_2d(np.asarray(self.collocation, dtype=float))
        if self.collocation.size == 0:
            raise ValueError("collocation set must be non-empty")
        n = self.collocation.shape[1]

        def norm2d(a):
            a = np.asarray(a, dtype=float)
            return np.empty((0, n)) if a.size == 0 else np.atleast_2d(a)

        self.exterior = norm2d(self.exterior)
        self.pair_x = norm2d(self.pair_x)
        self.pair_w = np.asarray(self.pair_w, dtype=float).reshape(-1)
        if self.pair_x.shape[0] != self.pair_w.shape[0]:
            raise ValueError("pair_x and pair_w lengths differ")
        for name in ("collocation", "exterior", "pair_x"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} points must be finite")
        if not np.all((self.pair_w >= 0) & (self.pair_w <= 1)):
            raise ValueError("pair targets must lie in [0, 1]")


def assemble_dataset(samples: ValueGrid, cfg: TrainConfig,
                     pair_fraction: float = 0.0,
                     rng: Optional[np.random.Generator] = None) -> Dataset:
    """Build a training set from simulated value samples.

    Collocation = every sample point; exterior = the non-converged ones;
    pairs = a random fraction of all samples with their w targets.
    Converged targets must agree with the configured value transform.
    """
    X, v, w, conv = samples.X, samples.v, samples.w, samples.converged
    expect = beta_transform(v[conv], cfg.beta()) if np.any(conv) else np.empty(0)
    if expect.size and not np.allclose(w[conv], expect, atol=1e-12):
        raise ValueError("sample w targets disagree with the configured "
                         "alpha/psi_form value transform")
    exterior = X[~conv]
    if pair_fraction > 0:
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        k = max(1, int(round(pair_fraction * X.shape[0])))
        idx = rng.choice(X.shape[0], size=min(k, X.shape[0]), replace=False)
        pair_x, pair_w = X[idx], w[idx]
    else:
        pair_x = np.empty((0, X.shape[1]))
        pair_w = np.empty(0)
    return Dataset(collocation=X, exterior=exterior, pair_x=pair_x, pair_w=pair_w)


@dataclass(frozen=True)
class LossParts:
    residual: float
    boundary: float
    data: float

    def total(self, cfg: TrainConfig) -> float:
        return (cfg.lambda_r * self.residual + cfg.lambda_b * self.boundary
                + cfg.lambda_d * self.data)


@dataclass
class TrainRecord:
    epochs: list = field(default_factory=list)   # (total, L_r, L_b, L_d) per epoch
    stop_reason: str = "not-run"
    epochs_run: int = 0
    wall_time_s: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.epochs[-1][0] if self.epochs else float("nan")


# ---------------------------------------------------------------------------
# Residual and loss
# ---------------------------------------------------------------------------

def _psi(cfg: TrainConfig, phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    if cfg.psi_form == "exp":
        return cfg.alpha * phi
    return cfg.alpha * (1.0 + w) * phi


def zubov_residual_batch(net, sys: dyn.SystemDef, cfg: TrainConfig,
                         X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = net.value_batch(X)
    g = net.grad_batch(X)
    F = sys.f_many(X)
    phi = np.sum(X * X, axis=1)
    return np.sum(g * F, axis=1) + _psi(cfg, phi, w) * (1.0 - w)


def _layer_views(flat: np.ndarray, sizes) -> tuple:
    """Per-layer (out, in) weight and (out,) bias views into one flat
    vector, laid out layer by layer, weights before biases."""
    weights, biases, o = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[o:o + fan_out * fan_in].reshape(fan_out, fan_in))
        o += fan_out * fan_in
        biases.append(flat[o:o + fan_out])
        o += fan_out
    return weights, biases


class _Workspace:
    """The arrays of a run's Adam steps, allocated once for up to R rows.

    ``flat`` is the gradient, with per-layer views ``dW``, ``db``.
    ``rows(r)`` gives views of the first r rows of the loss's (ybar, ubar,
    residual, scratch) and, per layer, of the forward pass's z (tanh'd in
    place into a), v, s and tau and the reverse pass's abar, tbar, vbar,
    sbar and scratch.
    """

    def __init__(self, net: Mlp, R: int):
        self.flat = np.zeros(param_count(net))
        self.dW, self.db = _layer_views(self.flat, net.layer_sizes)
        self._cols, self._rows = np.zeros((4, R)), {}
        self._layers = [np.empty((9, R, h)) for h in net.layer_sizes[1:]]

    def rows(self, r: int):
        if r not in self._rows:
            self._rows[r] = tuple(self._cols[:, :r]), [tuple(a[:, :r]) for a in self._layers]
        return self._rows[r]


def _residual_vjp(net: Mlp, X: np.ndarray, F: np.ndarray, lay, ybar: np.ndarray,
                  ubar: np.ndarray, ws: _Workspace) -> None:
    """d/d theta of sum_i (ybar_i y_i + ubar_i u_i), written into ``ws``,
    from the forward pass's arrays in ``lay``."""
    L = len(net.weights) - 1
    acts, taus = [X, *(f[0] for f in lay[:L])], [F, *(f[3] for f in lay[:L])]
    if L:
        np.multiply(ybar[:, None], net.weights[L], lay[L - 1][4])
        np.multiply(ubar[:, None], net.weights[L], lay[L - 1][5])
    for l in range(L, -1, -1):
        if l == L:
            zbar, vbar = ybar[None, :], ubar[None, :]
        else:
            a, v, s, _, abar, tbar, vbar, sbar, tmp = lay[l]
            np.multiply(tbar, s, vbar)
            np.multiply(tbar, v, sbar)
            abar += np.multiply(sbar, np.multiply(a, -2.0, tmp), tmp)    # s = 1 - a^2
            zbar, vbar = np.multiply(abar, s, abar).T, vbar.T
        np.dot(zbar, acts[l], ws.dW[l])
        ws.dW[l] += np.dot(vbar, taus[l])
        np.add.reduce(zbar, 1, None, ws.db[l])      # the tangent stream carries no bias
        if 0 < l < L:       # the input rows need no cotangent
            np.dot(zbar.T, net.weights[l], lay[l - 1][4])
            np.dot(vbar.T, net.weights[l], lay[l - 1][5])


def _hinge_targets(cfg: TrainConfig, X: np.ndarray, n2: Optional[np.ndarray] = None):
    """Quadratic-rate envelopes beta(c1 |x|^2), beta(c2 |x|^2) and the
    mask of points inside the local ellipsoid; ``n2`` is |x|^2 if given.
    c1, c2 are local_P's extreme eigenvalues: c1 |x|^2 <= x'Px <= c2 |x|^2."""
    P = cfg.local_P
    inside = np.einsum("ki,ij,kj->k", X, P, X) <= cfg.c_local
    n2 = np.add.reduce(np.multiply(X, X), axis=1) if n2 is None else n2
    c1, c2, b = dyn.lambda_min(P), float(np.linalg.eigvalsh(P)[-1]), cfg.beta()
    return inside, beta_transform(c1 * n2, b), beta_transform(c2 * n2, b)


class _Terms(NamedTuple):
    """What the loss needs of collocation points besides the weights:
    f(x), |x|^2 and, with the hinge on, its (mask, lower, upper)."""

    f: np.ndarray
    phi: np.ndarray
    hinge: Optional[tuple]

    def take(self, rows) -> "_Terms":
        hinge = None if self.hinge is None else tuple(a[rows] for a in self.hinge)
        return _Terms(self.f[rows], self.phi[rows], hinge)


def _collocation_terms(sys: dyn.SystemDef, cfg: TrainConfig, Xc: np.ndarray) -> _Terms:
    # f first, while nothing else is live: its temporaries are the largest
    f, phi, hinge = sys.f_many(Xc), np.add.reduce(np.multiply(Xc, Xc), axis=1), None
    if cfg.local_P is not None and cfg.c_local is not None:
        hinge = _hinge_targets(cfg, Xc, phi)
    return _Terms(f, phi, hinge)


def _mean(a: np.ndarray) -> float:
    """np.mean of a 1-d array, bit for bit, without its dispatch cost."""
    return float(np.add.reduce(a)) / a.shape[0]


def _sq_term(y: np.ndarray, target, bar: np.ndarray, tmp: np.ndarray, weight: float) -> float:
    """mean((y - target)^2); its cotangent times ``weight`` goes into ``bar``."""
    d = np.subtract(y, target, bar)
    L = _mean(np.multiply(d, d, tmp[:d.shape[0]]))
    d *= 2.0 * weight / d.shape[0]
    return L


def _loss_batch(net: Mlp, sys: dyn.SystemDef, cfg: TrainConfig,
                Xc: np.ndarray, Xe: np.ndarray,
                Xp: np.ndarray, wp: np.ndarray,
                want_grad: bool, terms: Optional[_Terms] = None, stacked=None,
                ws: Optional[_Workspace] = None):
    """Loss parts on one mini-batch, optionally with the parameter gradient
    of the weighted total.

    The rows [Xc; Xe; 0; Xp] go through one joint forward pass, with
    tangent f(x) on the collocation rows and 0 elsewhere, so every loss
    part reads the same outputs y (and u on the collocation rows).  The
    gradient is one reverse pass whose per-row cotangents sum the parts
    that read each row; it is returned as the workspace, whose ``flat``,
    ``dW`` and ``db`` hold it.  ``terms`` (Xc's ``_collocation_terms``),
    ``stacked`` (X, T) and ``ws`` (a `_Workspace` of at least as many
    rows) are used if given.
    """
    if terms is None:
        terms = _collocation_terms(sys, cfg, Xc)
    B, M, D = Xc.shape[0], Xe.shape[0], Xp.shape[0]
    o = B + M                   # the origin row; exterior rows are B:o
    if stacked is None:
        X = np.concatenate([Xc, Xe, np.zeros((1, sys.dim)), Xp])
        stacked = X, np.concatenate([terms.f, np.zeros((X.shape[0] - B, sys.dim))])
    X, T = stacked
    ws = _Workspace(net, X.shape[0]) if ws is None else ws
    (ybar, ubar, r, tmp), lay = ws.rows(X.shape[0])
    # the joint primal/tangent forward pass; u_i = grad W_N(x_i) . T_i
    a, tau = X, T
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        z, v, s, t = lay[i][:4]
        np.add(np.dot(a, W.T, z), b, z)
        np.dot(tau, W.T, v)
        if i < len(net.weights) - 1:
            a = np.tanh(z, z)
            np.subtract(1.0, np.multiply(a, a, s), s)
            tau = np.multiply(s, v, t)
    y, u = z[:, 0], v[:, 0]
    yc, yb, r = y[:B], ybar[:B], r[:B]

    # residual term r = u + psi (1 - y); its cotangent rbar goes into ubar
    phi = terms.phi
    if cfg.psi_form == "exp":
        np.multiply(phi, cfg.alpha, r)
        np.multiply(phi, -cfg.alpha, yb)
    else:
        np.multiply(np.add(yc, 1.0, r), cfg.alpha, r)
        r *= phi
        np.multiply(phi, -2.0 * cfg.alpha, yb)
        yb *= yc
    r *= np.subtract(1.0, yc, tmp[:B])
    r += u[:B]
    L_r = _mean(np.multiply(r, r, tmp[:B]))
    yb *= np.multiply(r, 2.0 * cfg.lambda_r / B, ubar[:B])

    # boundary term: exterior pull to 1, origin pin, local envelope hinge
    L_b = _sq_term(y[B:o], 1.0, ybar[B:o], tmp, cfg.lambda_b) if M else 0.0
    L_b += float(y[o] ** 2)
    ybar[o] = 2.0 * cfg.lambda_b * y[o]
    if terms.hinge is not None:
        inside, lo_t, hi_t = terms.hinge
        if inside.any():
            wi = yc[inside]
            under = np.maximum(lo_t[inside] - wi, 0.0)
            over = np.maximum(wi - hi_t[inside], 0.0)
            L_b += _mean(under ** 2 + over ** 2)
            yb[inside] += (2.0 * cfg.lambda_b / wi.shape[0]) * (over - under)

    # data term
    L_d = _sq_term(y[o + 1:], wp, ybar[o + 1:], tmp, cfg.lambda_d) if D else 0.0

    parts = LossParts(residual=L_r, boundary=L_b, data=L_d)
    if not want_grad:
        return parts
    ubar[B:] = 0.0          # an earlier call with more collocation rows wrote here
    _residual_vjp(net, X, T, lay, ybar, ubar, ws)
    return parts, ws


def loss(net: Mlp, data: Dataset, sys: dyn.SystemDef, cfg: TrainConfig):
    """Full-dataset loss. Returns (total, LossParts)."""
    parts = _loss_batch(net, sys, cfg, data.collocation, data.exterior,
                        data.pair_x, data.pair_w, want_grad=False)
    return parts.total(cfg), parts


# ---------------------------------------------------------------------------
# Training (Algorithm: mini-batch Adam on the weighted loss)
# ---------------------------------------------------------------------------

def train(net: Mlp, data: Dataset, sys: dyn.SystemDef, cfg: TrainConfig):
    """Mini-batch Adam with per-epoch reshuffling; deterministic per seed.

    Stops when the epoch-mean total loss drops below ``loss_threshold``
    or after ``max_epochs``.  Raises DivergedLoss on non-finite loss.
    The returned network shares no memory with ``net``.
    """
    t0 = time.perf_counter()
    theta = np.concatenate([p.ravel() for W, b in zip(net.weights, net.biases)
                            for p in (W, b)])
    net = Mlp(net.layer_sizes, *_layer_views(theta, net.layer_sizes))
    record = TrainRecord()
    if cfg.max_epochs == 0:
        record.stop_reason = "max_epochs"
        return net, record
    rng = np.random.default_rng(cfg.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v, s1, s2 = (np.zeros_like(theta) for _ in range(4))
    adam_t = 0
    terms = _collocation_terms(sys, cfg, data.collocation)
    N, n, B = *data.collocation.shape, cfg.batch
    n_e, n_p = (min(B, a.shape[0]) for a in (data.exterior, data.pair_x))
    steps = max(1, (N + B - 1) // B)
    # the rows [Xc; Xe; 0; Xp] and tangents of BLOCK_STEPS steps at a time, a
    # slot per step; the origin rows and all but the collocation tangents stay
    # 0, and exterior and pair rows cycle through their permutations
    Xb, Tb = np.zeros((2, min(steps, BLOCK_STEPS), B + n_e + 1 + n_p, n))
    wb = np.zeros((Xb.shape[0], n_p))
    ws = _Workspace(net, Xb.shape[1])
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        perm_c = rng.permutation(N)
        perm_e = rng.permutation(max(1, data.exterior.shape[0]))
        perm_p = rng.permutation(max(1, data.pair_x.shape[0]))
        sums = np.zeros(4)
        for s0 in range(0, steps, Xb.shape[0]):
            k = min(Xb.shape[0], steps - s0)
            lo = B * (s0 + np.arange(k))[:, None]
            # a last, short step's Xc ends where the others' do: rows a:B of its slot
            c = perm_c[(lo + np.arange(B) - np.maximum(lo + B - N, 0)) % N]
            ordered = terms.take(c)
            Xb[:k, :B], Tb[:k, :B] = data.collocation[c], ordered.f
            Xb[:k, B:B + n_e] = data.exterior[perm_e[(lo + np.arange(n_e)) % perm_e.shape[0]]]
            p = perm_p[(lo + np.arange(n_p)) % perm_p.shape[0]]
            Xb[:k, B + n_e + 1:], wb[:k] = data.pair_x[p], data.pair_w[p]
            for j, (X, T, wp) in enumerate(zip(Xb[:k], Tb[:k], wb[:k])):
                a = max(0, (s0 + j + 1) * B - N)
                parts, _ = _loss_batch(net, sys, cfg, X[a:B], X[B:B + n_e], X[B + n_e + 1:], wp,
                                       want_grad=True, stacked=(X[a:], T[a:]), ws=ws,
                                       terms=ordered.take((j, slice(a, None))))
                total = parts.total(cfg)
                if not math.isfinite(total):
                    raise DivergedLoss(f"loss became non-finite at epoch {epoch}, step {s0 + j}")
                sums += (total, parts.residual, parts.boundary, parts.data)
                adam_t += 1
                # in place: m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g  and
                # theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
                g = ws.flat
                m *= beta1
                m += np.multiply(g, 1 - beta1, out=s1)
                v *= beta2
                v += np.multiply(np.multiply(g, 1 - beta2, out=s1), g, out=s1)
                np.sqrt(np.divide(v, 1.0 - beta2 ** adam_t, out=s2), out=s2)
                s2 += eps
                np.divide(m, 1.0 - beta1 ** adam_t, out=s1)
                theta -= np.divide(np.multiply(s1, cfg.lr, out=s1), s2, out=s1)
        means = sums / steps
        record.epochs.append(tuple(float(x) for x in means))
        record.epochs_run = epoch + 1
        if means[0] < cfg.loss_threshold:
            stop_reason = "loss_threshold"
            break
    record.stop_reason = stop_reason
    record.wall_time_s = time.perf_counter() - t0
    return net, record


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_mlp(net: Mlp, path, alpha: float, psi_form: str,
             extra: Optional[dict] = None) -> None:
    doc = {
        "version": NET_FILE_VERSION,
        "activation": "tanh",
        "alpha": alpha,
        "psi_form": psi_form,
        "layer_sizes": list(net.layer_sizes),
        "layers": [{"w": W.flatten().tolist(), "b": b.tolist()}
                   for W, b in zip(net.weights, net.biases)],
    }
    if extra:
        doc["meta"] = extra
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_mlp(path):
    """Returns (net, alpha, psi_form). Rejects unknown file versions and
    any hidden activation but tanh."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != NET_FILE_VERSION:
        raise ValueError(f"unsupported network file version {doc.get('version')!r}")
    if doc.get("activation") != "tanh":
        raise ValueError("only tanh hidden activations are supported")
    sizes = tuple(doc["layer_sizes"])
    weights, biases = [], []
    for i, layer in enumerate(doc["layers"]):
        shape = (sizes[i + 1], sizes[i])
        weights.append(np.array(layer["w"], dtype=float).reshape(shape))
        biases.append(np.array(layer["b"], dtype=float))
    net = Mlp(sizes, weights, biases)
    return net, float(doc["alpha"]), str(doc["psi_form"])
