"""The integrator and the training loop against reference implementations.

The references below are the straightforward forms of the two inner
loops: a Dormand-Prince step that evaluates all seven stages, summed
with Python's ``sum``, on row-major states; and a training loop that
stacks and evaluates f(x) and the hinge envelopes of every mini-batch,
runs its own copy of the forward and reverse passes and runs Adam array
by array.  The package's versions reuse the last stage as the next first
stage, keep the integrator's pool in Fortran order, gather each epoch's
rows into one block and update one flat parameter vector in place; they
must give the same bits.
"""

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import net as nn
from zubov import ode
from zubov import verify as vf

VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")


# ---------------------------------------------------------------------------
# Reference integrator
# ---------------------------------------------------------------------------

def ref_rk_step(rhs, Y, h):
    k = []
    for s in range(7):
        ys = Y if s == 0 else Y + h[:, None] * sum(
            a * k[j] for j, a in enumerate(ode._A[s]) if a != 0.0)
        k.append(rhs(ys))
    y5 = Y + h[:, None] * sum(b * k[j] for j, b in enumerate(ode._B5) if b != 0.0)
    err = h[:, None] * sum(e * k[j] for j, e in enumerate(ode._E) if e != 0.0)
    return y5, err


def ref_advance(rhs, Y0, cfg, classify, on_accept=None, stats=None):
    Y = Y0.astype(float).copy()
    t = np.zeros(Y0.shape[0])
    h = np.full(Y0.shape[0], min(cfg.h_max, 1e-2))
    status = classify(t, Y).copy()
    active = status == 0
    while np.any(active):
        idx = np.where(active)[0]
        remaining = cfg.t_max - t[idx]
        clipped = remaining < h[idx]
        h_try = np.where(clipped, remaining, h[idx])
        y5, err = ref_rk_step(rhs, Y[idx], h_try)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(Y[idx]), np.abs(y5))
        with np.errstate(invalid="ignore", divide="ignore"):
            enorm = np.sqrt(np.mean((err / scale) ** 2, axis=1))
        enorm = np.where(np.isfinite(enorm), enorm, 1e6)
        accept = enorm <= 1.0
        with np.errstate(divide="ignore", over="ignore"):
            factor = np.where(enorm > 0, 0.9 * enorm ** -0.2, 5.0)
        factor = np.clip(factor, 0.2, 5.0)
        acc = idx[accept]
        if acc.size:
            t[acc] = t[acc] + h_try[accept]
            Y[acc] = y5[accept]
            if on_accept is not None:
                on_accept(acc, t[acc], Y[acc])
        h_prop = np.minimum(h_try * factor, cfg.h_max)
        h[idx] = np.where(accept & clipped, h[idx], h_prop)
        if acc.size:
            st = classify(t[acc], Y[acc])
            nonfin = ~np.all(np.isfinite(Y[acc]), axis=1)
            st = np.where(nonfin & (st == 0), -2, st)
            status[acc] = st
        under = idx[(h[idx] < ode.MIN_STEP) & (status[idx] == 0)]
        status[under] = -1
        active = status == 0
    return t, Y, status


def ref_estimate_V_batch(sys, X, cfg, stats=None):
    n = sys.dim
    try:    # the tail quadratic, solved here rather than read from the system
        tail_P = dyn.solve_lyapunov(sys.linearization.A)
        np.linalg.cholesky(tail_P)
    except (dyn.SingularSystem, ValueError, np.linalg.LinAlgError):
        tail_P = None
    Y0 = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)

    def rhs(Ys):
        out = np.empty_like(Ys)
        out[:, :n] = sys.f_many(Ys[:, :n])
        out[:, n] = np.sum(Ys[:, :n] * Ys[:, :n], axis=1)
        return out

    def classify(t, Y):
        out = np.zeros(t.shape, dtype=np.int8)
        r = np.linalg.norm(Y[:, :n], axis=1)
        out[r > ode.BLOWUP_NORM] = 3
        out[Y[:, n] >= cfg.value_cap] = 2
        out[t >= cfg.t_max] = 4
        out[r <= cfg.stop_radius] = 1
        return out

    _, Yf, status = ref_advance(rhs, Y0, cfg, classify)
    converged = status == 1
    v = np.full(X.shape[0], np.inf)
    if np.any(converged):
        xs = Yf[converged, :n]
        tail = np.einsum("ki,ij,kj->k", xs, tail_P, xs) if tail_P is not None else 0.0
        v[converged] = Yf[converged, n] + tail
    return v, converged


@pytest.fixture
def reference_integrator(monkeypatch):
    """Swap the reference integrator in for the package's own."""
    def use():
        monkeypatch.setattr(ode, "_advance", ref_advance)
        monkeypatch.setattr(ode, "estimate_V_batch", ref_estimate_V_batch)
    return use


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestIntegrator:
    def test_last_stage_is_the_fifth_order_solution(self):
        assert np.array_equal(ode._A[6], ode._B5[:6]) and ode._B5[6] == 0.0

    def test_stage_points(self):
        # x' = x from -0.0: the field is -0.0 at every stage
        growth = dyn.make_system("growth", 1, ["x1"], [[-1.0, 1.0]])
        Y = np.array([[-0.0], [0.5], [-0.25]])
        h = np.array([0.1, 0.01, 0.2])
        points = {"new": [], "ref": []}

        def recorder(key):
            def rhs(Ys):
                points[key].append(Ys.copy())
                return growth.f_many(Ys)
            return rhs

        y5, err, k7 = ode._rk_step(recorder("new"), Y, h)
        want_y5, want_err = ref_rk_step(recorder("ref"), Y, h)
        assert len(points["new"]) == len(points["ref"]) == 7
        for a, b in zip(points["new"], points["ref"]):
            assert same_bits(a, b)
        assert same_bits(y5, want_y5) and same_bits(k7, growth.f_many(y5))
        assert np.array_equal(err, want_err)

    def test_first_stage_is_the_field_at_the_state(self, monkeypatch):
        # a stale first stage makes the error estimate too large to ever
        # shrink, so the integration would crawl instead of failing: check
        # the stage that each step is given before it is used
        rk_step, steps = ode._rk_step, []

        def checked(rhs, Y, h, k1):
            assert same_bits(k1, rhs(Y))
            steps.append(Y.shape[0])
            return rk_step(rhs, Y, h, k1)

        monkeypatch.setattr(ode, "_rk_step", checked)
        monkeypatch.setattr(ode, "POOL_ROWS", 50)
        ode.gen_dataset(VDP, [12, 12], ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1))
        ode.advance_batch(VDP, [[0.5, 0.5]], lambda t, X: np.zeros(t.shape, dtype=np.int8),
                          ode.IntegratorConfig(t_max=3.0))
        assert len(steps) > 100

    @pytest.mark.parametrize("sys", [VDP, POLY], ids=["reversed_vdp", "poly2d"])
    def test_gen_dataset(self, sys, reference_integrator, monkeypatch):
        # the reference integrates all 144 rows at once; the package's pool
        # of 50 refills as rows finish
        monkeypatch.setattr(ode, "POOL_ROWS", 50)
        beta = ode.BetaKind("tanh", 0.1)
        cfg = ode.IntegratorConfig()
        got = ode.gen_dataset(sys, [12, 12], cfg, beta)
        reference_integrator()
        want = ode.gen_dataset(sys, [12, 12], cfg, beta)
        assert len(got) == len(want) == 144
        assert 0 < sum(s.converged for s in got) < 144
        for a, b in zip(got, want):
            assert same_bits(a.x, b.x) and a.converged == b.converged
            assert same_bits(a.v_hat, b.v_hat) and same_bits(a.w_hat, b.w_hat)

    @pytest.mark.parametrize("sys, x0, t_end", [
        (VDP, [-0.0, 1.2], 8.0),
        # x' = x from -0.0: every stage of the field is -0.0
        (dyn.make_system("growth", 1, ["x1"], [[-1.0, 1.0]]), [-0.0], 1.0),
    ], ids=["reversed_vdp", "signed_zero"])
    def test_integrate(self, sys, x0, t_end, reference_integrator):
        # one trajectory: one row of advance_batch with a path recorder
        def run():
            path = []
            ode.advance_batch(sys, [x0], lambda t, X: (t >= t_end * (1 - 1e-12)).astype(np.int8),
                              ode.IntegratorConfig(t_max=t_end),
                              on_accept=lambda rows, t, X: path.append((t[0], X[0].copy())))
            return path

        got = run()
        reference_integrator()
        want = run()
        assert len(got) == len(want) > 10
        for (ta, xa), (tb, xb) in zip(got, want):
            assert same_bits(ta, tb) and same_bits(xa, xb)

    def test_advance_batch(self, reference_integrator):
        rng = np.random.default_rng(5)
        X0 = rng.uniform(-2.5, 2.5, size=(40, 2))
        X0[:4, 0] = -0.0     # signed zeros in the start states
        X0[4] = 0.0          # the equilibrium: done before the first step
        cfg = ode.IntegratorConfig(t_max=20.0)

        def classify(t, X):
            out = np.zeros(t.shape, dtype=np.int8)
            out[t >= cfg.t_max] = 2
            out[np.sum(X * X, axis=1) <= 0.01] = 1
            return out

        def run():
            seen = []
            t, X, status = ode.advance_batch(
                POLY, X0, classify, cfg,
                on_accept=lambda rows, t, X: seen.append((rows.copy(), t, X)))
            return t, X, status, seen

        got = run()
        reference_integrator()
        want = run()
        for a, b in zip(got[:3], want[:3]):
            assert same_bits(a, b) if a.dtype == float else np.array_equal(a, b)
        assert len(got[3]) == len(want[3]) > 10
        for a, b in zip(got[3], want[3]):
            assert np.array_equal(a[0], b[0]) and same_bits(a[1], b[1]) and same_bits(a[2], b[2])
        assert {1, -1} <= set(got[2].tolist())    # converged, and escaped

    def test_advance_batch_on_a_refilled_pool(self, reference_integrator, monkeypatch):
        # 40 rows through a pool of 7 against the reference's single batch:
        # the same end states, and the same accepted steps row by row
        rng = np.random.default_rng(6)
        X0 = rng.uniform(-2.5, 2.5, size=(40, 2))
        X0[[3, 11, 12]] = 0.0    # done before the first step, in and after the first fill
        cfg = ode.IntegratorConfig(t_max=20.0)

        def classify(t, X):
            out = np.zeros(t.shape, dtype=np.int8)
            out[t >= cfg.t_max] = 2
            out[np.sum(X * X, axis=1) <= 0.01] = 1
            return out

        def run():
            steps = {}

            def on_accept(rows, t, X):
                for r, ti, xi in zip(rows.tolist(), t, X):
                    steps.setdefault(r, []).append((ti, xi.copy()))

            return (*ode.advance_batch(POLY, X0, classify, cfg, on_accept=on_accept), steps)

        monkeypatch.setattr(ode, "POOL_ROWS", 7)
        got = run()
        reference_integrator()
        want = run()
        for a, b in zip(got[:3], want[:3]):
            assert same_bits(a, b) if a.dtype == float else np.array_equal(a, b)
        assert got[3].keys() == want[3].keys() and len(got[3]) == 37
        for r, path in got[3].items():
            assert len(path) == len(want[3][r])
            for (ta, xa), (tb, xb) in zip(path, want[3][r]):
                assert same_bits(ta, tb) and same_bits(xa, xb)
        assert {1, -1} <= set(got[2].tolist())

    def test_simulation_callbacks(self, reference_integrator):
        # classify (an einsum) reads the pool's Fortran-ordered states and
        # on_accept (net.value_batch, a matmul) their accepted rows: both
        # must decide as they do on the reference's row-major states
        P = dyn.solve_lyapunov(VDP.linearization.A)
        local = vf.LocalCertificate("reversed_vdp", P, 0.9999, 0.3, None, 0.0)
        net = nn.init_mlp([2, 8, 1], 3)
        values, value_batch = [], net.value_batch

        def recorded(X):
            values[-1].append(value_batch(X))
            return values[-1][-1]

        net.value_batch = recorded

        def run():
            values.append([])
            return vf.validate_roa_by_simulation(net, VDP, local, 0.0, 40,
                                                 np.random.default_rng(1),
                                                 ode.IntegratorConfig(t_max=20.0))

        got = run()
        reference_integrator()
        want = run()
        assert got == want
        assert 0 < got["exited_sublevel"] < 40 and 0 < got["reached_ellipsoid"] < 40
        assert len(values[0]) == len(values[1]) > 10
        for a, b in zip(*values):
            assert same_bits(a, b)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_squared_norm(self, n):
        rng = np.random.default_rng(n)
        Y = rng.standard_normal((257, n + 1)) * rng.uniform(1e-3, 1e3, size=n + 1)
        X = Y[:, :n]
        assert same_bits(ode._sq_norm(X), np.sum(X * X, axis=1))
        assert same_bits(np.sqrt(ode._sq_norm(X)), np.linalg.norm(X, axis=1))


# ---------------------------------------------------------------------------
# Reference training loop
# ---------------------------------------------------------------------------

def ref_forward(net, X, F):
    acts, taus, vs, sigs = [X], [F], [], []
    a, tau = X, F
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        v = tau @ W.T
        if i < last:
            a = np.tanh(z)
            s = 1.0 - a * a
            tau = s * v
            acts.append(a)
            taus.append(tau)
            vs.append(v)
            sigs.append(s)
        else:
            y, u = z[:, 0], v[:, 0]
    return acts, taus, vs, sigs, y, u


def ref_vjp(net, states, ybar, ubar):
    """Per-layer weight and bias gradients of sum_i (ybar_i y_i + ubar_i u_i)."""
    dW = [np.zeros_like(W) for W in net.weights]
    db = [np.zeros_like(b) for b in net.biases]
    acts, taus, vs, sigs, _, _ = states
    L = len(net.weights) - 1
    Wo = net.weights[L]
    abar = ybar[:, None] * Wo
    tbar = ubar[:, None] * Wo
    dW[L] += ybar[None, :] @ acts[L] + ubar[None, :] @ taus[L]
    db[L] += ybar.sum()
    for l in range(L - 1, -1, -1):
        s, v, a = sigs[l], vs[l], acts[l + 1]
        vbar = tbar * s
        sbar = tbar * v
        abar = abar + sbar * (-2.0 * a)
        zbar = abar * s
        dW[l] += zbar.T @ acts[l] + vbar.T @ taus[l]
        db[l] += zbar.sum(axis=0)
        if l:
            abar = zbar @ net.weights[l]
            tbar = vbar @ net.weights[l]
    return dW, db


def ref_loss_batch(net, sys, cfg, Xc, Xe, Xp, wp):
    B, M, D = Xc.shape[0], Xe.shape[0], Xp.shape[0]
    o = B + M
    X = np.concatenate([Xc, Xe, np.zeros((1, sys.dim)), Xp])
    T = np.zeros_like(X)
    T[:B] = sys.f_many(Xc)
    states = ref_forward(net, X, T)
    y, u = states[4], states[5]
    yc = y[:B]
    ybar = np.zeros_like(y)
    phi = np.sum(Xc * Xc, axis=1)
    r = u[:B] + nn._psi(cfg, phi, yc) * (1.0 - yc)
    L_r = float(np.mean(r * r))
    rbar = (2.0 * cfg.lambda_r / B) * r
    if cfg.psi_form == "exp":
        ybar[:B] = rbar * (-cfg.alpha * phi)
    else:
        ybar[:B] = rbar * (-2.0 * cfg.alpha * phi * yc)
    L_b = 0.0
    if M:
        d = y[B:o] - 1.0
        L_b += float(np.mean(d * d))
        ybar[B:o] = (2.0 * cfg.lambda_b / M) * d
    L_b += float(y[o] ** 2)
    ybar[o] = 2.0 * cfg.lambda_b * y[o]
    if cfg.c_local is not None:
        # envelopes beta(c |x|^2) at the extreme eigenvalues c of P
        P, b = sys.lyapunov_P, cfg.beta()
        inside = np.einsum("ki,ij,kj->k", Xc, P, Xc) <= cfg.c_local
        lo_t = ode.beta_transform(float(np.linalg.eigvalsh(P)[0]) * phi, b)
        hi_t = ode.beta_transform(float(np.linalg.eigvalsh(P)[-1]) * phi, b)
        if np.any(inside):
            wi = yc[inside]
            under = np.maximum(lo_t[inside] - wi, 0.0)
            over = np.maximum(wi - hi_t[inside], 0.0)
            L_b += float(np.mean(under ** 2 + over ** 2))
            ybar[:B][inside] += (2.0 * cfg.lambda_b / wi.shape[0]) * (over - under)
    L_d = 0.0
    if D:
        d = y[o + 1:] - wp
        L_d = float(np.mean(d * d))
        ybar[o + 1:] = (2.0 * cfg.lambda_d / D) * d
    ubar = np.zeros_like(u)
    ubar[:B] = rbar
    return nn.LossParts(L_r, L_b, L_d), ref_vjp(net, states, ybar, ubar)


def ref_cycle_take(arr, perm, start, count):
    if arr.shape[0] == 0 or count == 0:
        return arr[:0]
    return arr[perm[(start + np.arange(count)) % perm.shape[0]]]


def ref_train(net, data, sys, cfg):
    net = nn.Mlp(net.layer_sizes, [W.copy() for W in net.weights],
                 [b.copy() for b in net.biases])
    rng = np.random.default_rng(cfg.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    mW = [np.zeros_like(W) for W in net.weights]
    vW = [np.zeros_like(W) for W in net.weights]
    mb = [np.zeros_like(b) for b in net.biases]
    vb = [np.zeros_like(b) for b in net.biases]
    adam_t = 0
    N = data.collocation.shape[0]
    steps = max(1, (N + cfg.batch - 1) // cfg.batch)
    epochs = []
    for _ in range(cfg.max_epochs):
        perm_c = rng.permutation(N)
        perm_e = rng.permutation(max(1, data.exterior.shape[0]))
        perm_p = rng.permutation(max(1, data.pair_x.shape[0]))
        sums = np.zeros(4)
        for s in range(steps):
            lo = s * cfg.batch
            Xc = data.collocation[perm_c[lo:lo + cfg.batch]]
            Xe = ref_cycle_take(data.exterior, perm_e, lo,
                                min(cfg.batch, data.exterior.shape[0]))
            n_p = min(cfg.batch, data.pair_x.shape[0])
            Xp = ref_cycle_take(data.pair_x, perm_p, lo, n_p)
            wp = ref_cycle_take(data.pair_w, perm_p, lo, n_p)
            parts, (dW, db) = ref_loss_batch(net, sys, cfg, Xc, Xe, Xp, wp)
            sums += (parts.total(cfg), parts.residual, parts.boundary, parts.data)
            adam_t += 1
            corr1 = 1.0 - beta1 ** adam_t
            corr2 = 1.0 - beta2 ** adam_t
            for l in range(len(net.weights)):
                for p, g, m, v in ((net.weights[l], dW[l], mW[l], vW[l]),
                                   (net.biases[l], db[l], mb[l], vb[l])):
                    m *= beta1
                    m += (1 - beta1) * g
                    v *= beta2
                    v += (1 - beta2) * g * g
                    p -= cfg.lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        epochs.append(tuple(float(x) for x in sums / steps))
    return net, epochs


@pytest.fixture(scope="module")
def vdp_data():
    samples = ode.gen_dataset(VDP, [15, 15], ode.IntegratorConfig(),
                              ode.BetaKind("tanh", 0.1))
    P = dyn.solve_lyapunov(VDP.linearization.A)
    return samples, P


class TestTrain:
    @pytest.mark.parametrize("psi_form", ["tanh", "exp"])
    def test_matches_reference(self, vdp_data, psi_form):
        samples, P = vdp_data
        cfg = nn.TrainConfig(alpha=0.1, psi_form=psi_form, batch=32, max_epochs=2,
                             loss_threshold=0.0, seed=4, c_local=1.5)
        if psi_form == "exp":
            samples = ode.ValueGrid(samples.X, samples.v, ode.beta_transform(samples.v, cfg.beta()),
                                    samples.converged)
        data = nn.assemble_dataset(samples, cfg, pair_fraction=0.1)
        N = data.collocation.shape[0]
        assert N % cfg.batch and 0 < data.pair_x.shape[0] < cfg.batch
        inside = nn._hinge_targets(cfg, P, data.collocation)[0]
        assert np.count_nonzero(inside) >= 5
        net0 = nn.init_mlp([2, 8, 8, 1], 11)
        got, record = nn.train(net0, data, VDP, cfg)
        want, epochs = ref_train(net0, data, VDP, cfg)
        assert record.epochs == epochs and len(epochs) == 2
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and same_bits(a, b)

    @pytest.mark.parametrize("case", ["no_pairs", "few_exterior", "no_exterior", "no_band",
                                      "no_short_step", "one_short_step", "small_blocks"])
    def test_matches_reference_on_edge_cases(self, vdp_data, case, monkeypatch):
        # D = 0; fewer exterior rows than a batch, so they cycle within a
        # step; M = 0; no hinge; N a multiple of the batch; N below it; the
        # 8 steps gathered 3 at a time, the short one in a partial block
        if case == "small_blocks":
            monkeypatch.setattr(nn, "BLOCK_STEPS", 3)
        samples, _ = vdp_data
        batch = {"no_short_step": 25, "one_short_step": 300}.get(case, 32)
        cfg = nn.TrainConfig(alpha=0.1, batch=batch, max_epochs=2, loss_threshold=0.0,
                             seed=5, c_local=None if case == "no_band" else 1.5)
        data = nn.assemble_dataset(samples, cfg, pair_fraction=0.0 if case == "no_pairs" else 0.2)
        if case in ("few_exterior", "no_exterior"):
            data = nn.Dataset(data.collocation, data.exterior[:5 if case == "few_exterior" else 0],
                              data.pair_x, data.pair_w)
        M, D = data.exterior.shape[0], data.pair_x.shape[0]
        assert (D == 0) == (case == "no_pairs") and D != batch
        assert M == {"few_exterior": 5, "no_exterior": 0}.get(case, 148)
        assert (data.collocation.shape[0] % batch == 0) == (case == "no_short_step")
        net0 = nn.init_mlp([2, 6, 5, 1], 12)
        got, record = nn.train(net0, data, VDP, cfg)
        want, epochs = ref_train(net0, data, VDP, cfg)
        assert record.epochs == epochs and len(epochs) == 2
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and same_bits(a, b)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_returned_net_shares_no_memory(self, vdp_data, epochs):
        samples, _ = vdp_data
        cfg = nn.TrainConfig(max_epochs=epochs)
        data = nn.assemble_dataset(samples, cfg)
        net0 = nn.init_mlp([2, 6, 1], 0)
        before = [a.copy() for a in net0.weights + net0.biases]
        net, _ = nn.train(net0, data, VDP, cfg)
        for a in net.weights + net.biases:
            for b in net0.weights + net0.biases:
                assert not np.shares_memory(a, b)
        for a, b in zip(net0.weights + net0.biases, before):
            assert same_bits(a, b)
