import dataclasses

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import net as nn
from zubov import ode

from test_bit_identity import ref_train, same_bits

CUBIC = dyn.builtin("cubic1d")
VDP = dyn.builtin("reversed_vdp")


def zero_net(sizes):
    net = nn.init_mlp(sizes, 0)
    for W in net.weights:
        W[:] = 0.0
    return net


class ExprCandidate:
    """Closed-form candidate wrapping an expression; same duck interface
    as Mlp where W values and input gradients are needed."""

    def __init__(self, e: ex.Expr, dim: int):
        self.expr = e
        self.dim = dim
        self._value = ex.compile([e])
        self._grads = ex.compile([ex.diff(e, i) for i in range(dim)])

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        return ex.evaluate_many(self._value, np.atleast_2d(X))[0]

    def grad_batch(self, X: np.ndarray) -> np.ndarray:
        return np.stack(ex.evaluate_many(self._grads, np.atleast_2d(X)), axis=1)


def zubov_residual(net, sys, cfg, x):
    """The residual at one point."""
    return float(nn.zubov_residual_batch(net, sys, cfg, np.asarray(x, dtype=float)[None, :])[0])


def reference_forward(net, x):
    """Independent re-implementation used as the duplicate-evaluator oracle."""
    a = np.asarray(x, dtype=float)
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = W @ a + b
        if i < len(net.weights) - 1:
            a = np.tanh(a)
    return float(a[0])


class TestForward:
    def test_zero_net_is_zero(self):
        net = zero_net([2, 5, 1])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert net.value_batch(rng.normal(size=(1, 2)))[0] == 0.0

    def test_single_neuron_is_tanh(self):
        net = nn.Mlp((2, 1, 1),
                     [np.array([[1.0, 0.0]]), np.array([[1.0]])],
                     [np.zeros(1), np.zeros(1)])
        for x1 in (-2.0, -0.3, 0.0, 1.7):
            assert net.value_batch([[x1, 5.0]])[0] == pytest.approx(np.tanh(x1), abs=1e-15)

    def test_matches_duplicate_evaluator(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = nn.init_mlp([3, 7, 5, 1], rng)
            x = rng.normal(size=3)
            assert abs(net.value_batch(x[None, :])[0] - reference_forward(net, x)) <= 1e-12

    def test_batch_matches_scalar(self):
        # BLAS may reorder the accumulation between batch shapes, so allow ulps
        rng = np.random.default_rng(12)
        net = nn.init_mlp([2, 6, 1], rng)
        X = rng.normal(size=(30, 2))
        batch = nn.forward_batch(net, X)
        assert np.allclose(batch, [net.value_batch(row[None, :])[0] for row in X],
                           rtol=0, atol=1e-12)


class TestInputGrad:
    def test_zero_net(self):
        net = zero_net([3, 4, 1])
        assert np.array_equal(nn.input_grad_batch(net, [[1.0, 2.0, 3.0]])[1], np.zeros((1, 3)))

    def test_tanh_neuron_grad_at_zero(self):
        net = nn.Mlp((2, 1, 1),
                     [np.array([[1.0, 0.0]]), np.array([[1.0]])],
                     [np.zeros(1), np.zeros(1)])
        assert np.allclose(nn.input_grad_batch(net, [[0.0, 0.0]])[1], [[1.0, 0.0]], atol=1e-15)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            net = nn.init_mlp([2, 8, 6, 1], rng)
            x = rng.normal(size=2)
            g = nn.input_grad_batch(net, x[None, :])[1][0]
            h = 1e-6 * np.eye(2)
            fd = (net.value_batch(x + h) - net.value_batch(x - h)) / 2e-6
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestResidual:
    def test_zero_at_equilibrium_for_any_net(self):
        rng = np.random.default_rng(21)
        cfg = nn.TrainConfig(alpha=0.1, psi_form="tanh")
        for _ in range(5):
            net = nn.init_mlp([2, 6, 1], rng)
            assert zubov_residual(net, VDP, cfg, [0.0, 0.0]) == 0.0

    def test_zero_net_hand_value(self):
        # r = grad.f + a(1 + W) phi (1 - W) = 0 + 0.1 * 1 * 1 * 1 at x = (1, 0)
        net = zero_net([2, 4, 1])
        cfg = nn.TrainConfig(alpha=0.1, psi_form="tanh")
        assert zubov_residual(net, VDP, cfg, [1.0, 0.0]) == pytest.approx(0.1, abs=1e-15)

    def test_closed_form_solution_annihilates_residual(self):
        # W(x) = x^2 solves the PDE for the scalar cubic with alpha = 2
        cfg = nn.TrainConfig(alpha=2.0, psi_form="exp")
        w = ExprCandidate(ex.parse("x1^2", 1), 1)
        for x in (0.5, -0.5, 0.9, -0.9):
            assert abs(zubov_residual(w, CUBIC, cfg, [x])) <= 1e-9

    def test_closed_form_via_value_transform(self):
        # the same solution written as beta(V) = 1 - exp(-2 V)
        cfg = nn.TrainConfig(alpha=2.0, psi_form="exp")
        w = ExprCandidate(
            ex.parse("1 - exp(-2*(-0.5*ln(1 - x1^2)))", 1), 1)
        for x in (0.5, -0.5, 0.9, -0.9):
            assert abs(zubov_residual(w, CUBIC, cfg, [x])) <= 1e-9


class TestLoss:
    def test_single_pair_hand_value(self):
        net = zero_net([2, 4, 1])
        cfg = nn.TrainConfig(lambda_r=0.0, lambda_b=0.0, lambda_d=1.0)
        data = nn.Dataset(collocation=np.array([[1.0, 1.0]]),
                          exterior=np.empty((0, 2)),
                          pair_x=np.array([[0.5, 0.5]]), pair_w=np.array([0.5]))
        total, parts = nn.loss(net, data, VDP, cfg)
        assert parts.data == pytest.approx(0.25, abs=1e-15)
        assert total == pytest.approx(0.25, abs=1e-15)

    def test_exterior_at_one_contributes_zero(self):
        net = zero_net([2, 4, 1])
        net.biases[-1][:] = 1.0  # constant output 1
        cfg = nn.TrainConfig()
        data = nn.Dataset(collocation=np.array([[1.0, 1.0]]),
                          exterior=np.array([[2.0, 3.0]]),
                          pair_x=np.empty((0, 2)), pair_w=np.empty(0))
        _, parts = nn.loss(net, data, VDP, cfg)
        # boundary = exterior misfit (0) + origin pin (1) + no hinge
        assert parts.boundary == pytest.approx(1.0, abs=1e-15)

    def test_total_is_weighted_sum_exactly(self):
        rng = np.random.default_rng(31)
        net = nn.init_mlp([2, 6, 1], rng)
        cfg = nn.TrainConfig(lambda_r=0.7, lambda_b=2.0, lambda_d=0.3)
        data = nn.Dataset(collocation=rng.normal(size=(9, 2)),
                          exterior=rng.normal(size=(4, 2)),
                          pair_x=rng.normal(size=(3, 2)),
                          pair_w=rng.uniform(0, 1, 3))
        total, parts = nn.loss(net, data, VDP, cfg)
        assert total == 0.7 * parts.residual + 2.0 * parts.boundary + 0.3 * parts.data

    def test_hinge_active_inside_ellipsoid(self):
        P = dyn.solve_lyapunov(dyn.linearize(VDP).A, np.eye(2)).P
        cfg = nn.TrainConfig(local_P=P, c_local=0.28)
        # the envelopes' rates are the extreme eigenvalues of P
        c1, c2 = dyn.lambda_min(P), float(np.linalg.eigvalsh(P)[-1])
        X = np.array([[0.1, 0.1], [2.0, 2.0]])
        inside, lo, hi = nn._hinge_targets(cfg, X)
        assert inside.tolist() == [True, False]
        assert same_bits(lo, ode.beta_transform(c1 * np.sum(X * X, axis=1), cfg.beta()))
        assert same_bits(hi, ode.beta_transform(c2 * np.sum(X * X, axis=1), cfg.beta()))
        net = zero_net([2, 4, 1])  # W = 0 violates the lower envelope inside
        data = nn.Dataset(collocation=X, exterior=np.empty((0, 2)),
                          pair_x=np.empty((0, 2)), pair_w=np.empty(0))
        _, parts = nn.loss(net, data, VDP, cfg)
        b = ode.beta_transform(c1 * 0.02, cfg.beta())
        assert parts.boundary == pytest.approx(b * b, abs=1e-15)


class TestParameterGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        P = dyn.solve_lyapunov(dyn.linearize(VDP).A, np.eye(2)).P
        # (psi form, lambda_r, exterior rows, pair rows, collocation rows
        # inside the hinge ellipsoid): the stacked pass puts each block of
        # rows at its own offset, so empty blocks and a zero residual weight
        # shift or silence them
        cases = [("exp", 1.0, 3, 2, 0), ("tanh", 1.0, 3, 2, 0), ("exp", 1.0, 3, 2, 0),
                 ("tanh", 1.0, 0, 2, 0), ("exp", 1.0, 3, 0, 0), ("tanh", 0.0, 3, 2, 0),
                 ("exp", 1.0, 0, 0, 3), ("tanh", 1.0, 3, 2, 3)]
        for psi_form, lambda_r, n_e, n_p, n_in in cases:
            net = nn.init_mlp([2, 5, 4, 1], rng)
            cfg = nn.TrainConfig(alpha=0.1, psi_form=psi_form,
                                 lambda_r=lambda_r, lambda_b=0.8, lambda_d=1.2,
                                 local_P=P, c_local=0.28)
            Xc = rng.uniform(-2, 2, size=(6, 2))
            Xe = rng.uniform(-2, 2, size=(n_e, 2))
            Xp = rng.uniform(-2, 2, size=(n_p, 2))
            wp = rng.uniform(0, 1, size=n_p)
            if n_in:
                # rows near the origin; the two such cases land under the
                # lower and over the upper envelope
                Xc[:n_in] = rng.uniform(-0.3, 0.3, size=(n_in, 2))
                inside = nn._hinge_targets(cfg, Xc)[0]
                assert 0 < np.count_nonzero(inside) < Xc.shape[0]
            parts, grad = nn._loss_batch(net, VDP, cfg, Xc, Xe, Xp, wp, want_grad=True)

            def total_now():
                p = nn._loss_batch(net, VDP, cfg, Xc, Xe, Xp, wp, want_grad=False)
                return p.total(cfg)

            h = 1e-6
            worst = 0.0
            for l in range(len(net.weights)):
                for (param, g) in ((net.weights[l], grad.dW[l]),
                                   (net.biases[l], grad.db[l])):
                    flat_p = param.reshape(-1)
                    flat_g = g.reshape(-1)
                    for k in range(flat_p.size):
                        old = flat_p[k]
                        flat_p[k] = old + h
                        fp = total_now()
                        flat_p[k] = old - h
                        fm = total_now()
                        flat_p[k] = old
                        fd = (fp - fm) / (2 * h)
                        worst = max(worst, abs(fd - flat_g[k]) / max(1.0, abs(fd)))
            assert worst <= 1e-4


class TestWorkspace:
    def test_shorter_batch_on_a_used_workspace_gets_a_fresh_gradient(self):
        # the rows a longer call filled past the shorter call's collocation
        # rows must not reach its gradient, even where they hold the
        # non-finite cotangents of points where f overflows
        rng = np.random.default_rng(4)
        net = nn.init_mlp([2, 5, 4, 1], rng)
        cfg = nn.TrainConfig(alpha=0.1)
        Xc = rng.uniform(-2, 2, size=(6, 2))
        Xe, Xp = rng.uniform(-2, 2, size=(3, 2)), rng.uniform(-2, 2, size=(2, 2))
        wp = rng.uniform(0, 1, size=2)
        ws = nn._Workspace(net, 12)
        big = Xc.copy()
        big[4] = 1e120
        with np.errstate(all="ignore"):
            _, g = nn._loss_batch(net, VDP, cfg, big, Xe, Xp, wp, want_grad=True, ws=ws)
        assert not np.all(np.isfinite(g.flat))
        _, got = nn._loss_batch(net, VDP, cfg, Xc[:3], Xe, Xp, wp, want_grad=True, ws=ws)
        _, want = nn._loss_batch(net, VDP, cfg, Xc[:3], Xe, Xp, wp, want_grad=True)
        assert got is ws and want is not ws
        assert np.all(np.isfinite(want.flat)) and same_bits(got.flat, want.flat)


class TestTrain:
    def _band_cfg(self, **kw):
        P = dyn.solve_lyapunov(dyn.linearize(CUBIC).A, np.eye(1)).P
        base = dict(alpha=2.0, psi_form="exp", seed=7, local_P=P, c_local=0.2)
        base.update(kw)
        return nn.TrainConfig(**base)

    def _cubic_data(self, points=101):
        Xc = np.linspace(-0.95, 0.95, points)[:, None]
        return nn.Dataset(collocation=Xc, exterior=np.empty((0, 1)),
                          pair_x=np.empty((0, 1)), pair_w=np.empty(0))

    def test_zero_epochs_returns_unchanged(self):
        net = nn.init_mlp([1, 6, 1], 0)
        out, rec = nn.train(net, self._cubic_data(), CUBIC,
                            self._band_cfg(max_epochs=0))
        assert rec.epochs == [] and rec.epochs_run == 0
        for W0, W1 in zip(net.weights, out.weights):
            assert np.array_equal(W0, W1)

    def test_determinism_bitwise(self):
        data = self._cubic_data()
        cfg = self._band_cfg(max_epochs=5)
        n1, r1 = nn.train(nn.init_mlp([1, 6, 1], 7), data, CUBIC, cfg)
        n2, r2 = nn.train(nn.init_mlp([1, 6, 1], 7), data, CUBIC, cfg)
        for W1, W2 in zip(n1.weights, n2.weights):
            assert np.array_equal(W1, W2)
        for b1, b2 in zip(n1.biases, n2.biases):
            assert np.array_equal(b1, b2)
        assert r1.epochs == r2.epochs

    def test_loss_trend_first_epochs(self):
        data = self._cubic_data(points=501)
        cfg = self._band_cfg(max_epochs=10, loss_threshold=1e-12)
        _, rec = nn.train(nn.init_mlp([1, 10, 10, 1], 7), data, CUBIC, cfg)
        totals = [e[0] for e in rec.epochs]
        bad = sum(1 for a, b in zip(totals, totals[1:]) if b > a)
        assert bad <= 2

    def test_original_not_mutated(self):
        net = nn.init_mlp([1, 6, 1], 3)
        snapshot = [W.copy() for W in net.weights]
        nn.train(net, self._cubic_data(), CUBIC, self._band_cfg(max_epochs=2))
        for W0, W1 in zip(snapshot, net.weights):
            assert np.array_equal(W0, W1)

    def test_stop_on_threshold(self):
        data = self._cubic_data()
        cfg = self._band_cfg(max_epochs=50, loss_threshold=1e3)
        _, rec = nn.train(nn.init_mlp([1, 6, 1], 1), data, CUBIC, cfg)
        assert rec.stop_reason == "loss_threshold"
        assert rec.epochs_run == 1

    def test_no_workspace_state_leaks_between_runs(self):
        # a run after a run, after loss() on the whole dataset, and after a
        # run of another batch size (another workspace shape) each give the
        # bits of the reference loop; each epoch ends in a one-row step
        samples = ode.gen_dataset(VDP, [9, 9], ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1))
        P = dyn.solve_lyapunov(VDP.linearization.A, np.eye(2)).P
        cfg = nn.TrainConfig(alpha=0.1, batch=16, max_epochs=2, loss_threshold=0.0, seed=2,
                             local_P=P, c_local=1.5)
        data = nn.assemble_dataset(samples, cfg, pair_fraction=0.2)
        assert data.collocation.shape[0] % cfg.batch == 1 and data.exterior.shape[0] > 0
        net0 = nn.init_mlp([2, 5, 4, 1], 9)
        want, epochs = ref_train(net0, data, VDP, cfg)
        runs = [nn.train(net0, data, VDP, cfg)]
        runs.append(nn.train(net0, data, VDP, cfg))
        nn.loss(runs[0][0], data, VDP, cfg)
        runs.append(nn.train(net0, data, VDP, cfg))
        nn.train(net0, data, VDP, dataclasses.replace(cfg, batch=7))
        runs.append(nn.train(net0, data, VDP, cfg))
        for got, record in runs:
            assert record.epochs == epochs
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                assert same_bits(a, b)

    def test_diverged_loss_raises(self):
        data = self._cubic_data()
        cfg = self._band_cfg(max_epochs=50, lr=1e200)
        with np.errstate(all="ignore"):
            with pytest.raises(nn.DivergedLoss):
                nn.train(nn.init_mlp([1, 8, 1], 0), data, CUBIC, cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("field, bad", [
        ("alpha", 0.0), ("alpha", float("nan")), ("lr", -1.0), ("lr", float("nan")),
        ("lambda_r", -1.0), ("lambda_b", float("nan")), ("lambda_d", float("nan"))])
    def test_bad_values_rejected(self, field, bad):
        with pytest.raises(ValueError):
            nn.TrainConfig(**{field: bad})


class TestDatasetAssembly:
    def test_consistency_enforced(self):
        samples = ode.gen_dataset(CUBIC, [21], ode.IntegratorConfig(),
                                  ode.BetaKind("exp", 2.0))
        good = nn.TrainConfig(alpha=2.0, psi_form="exp")
        data = nn.assemble_dataset(samples, good, pair_fraction=0.2)
        assert data.pair_x.shape[0] == max(1, round(0.2 * 21))
        bad = nn.TrainConfig(alpha=0.5, psi_form="exp")
        with pytest.raises(ValueError):
            nn.assemble_dataset(samples, bad, pair_fraction=0.2)

    @pytest.mark.parametrize("field", ["collocation", "exterior", "pair_x", "pair_w"])
    def test_nan_rejected(self, field):
        parts = {"collocation": np.ones((3, 2)), "exterior": np.ones((2, 2)),
                 "pair_x": np.ones((2, 2)), "pair_w": np.full(2, 0.5)}
        nn.Dataset(**parts)
        parts[field] = parts[field].copy()
        parts[field].flat[1] = np.nan
        with pytest.raises(ValueError):
            nn.Dataset(**parts)

    def test_exterior_from_nonconverged(self):
        samples = ode.gen_dataset(VDP, [15, 15], ode.IntegratorConfig(),
                                  ode.BetaKind("tanh", 0.1))
        cfg = nn.TrainConfig(alpha=0.1, psi_form="tanh")
        data = nn.assemble_dataset(samples, cfg)
        n_ext = sum(1 for s in samples if not s.converged)
        assert data.exterior.shape == (n_ext, 2)
        assert data.collocation.shape == (225, 2)
        assert data.pair_x.shape[0] == 0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        net = nn.init_mlp([2, 5, 3, 1], 9)
        path = tmp_path / "net.json"
        nn.save_mlp(net, path, alpha=0.1, psi_form="tanh")
        back, alpha, psi = nn.load_mlp(path)
        assert alpha == 0.1 and psi == "tanh"
        assert back.layer_sizes == net.layer_sizes
        for W0, W1 in zip(net.weights, back.weights):
            assert np.array_equal(W0, W1)

    def test_unknown_version_rejected(self, tmp_path):
        net = nn.init_mlp([1, 2, 1], 0)
        path = tmp_path / "net.json"
        nn.save_mlp(net, path, alpha=1.0, psi_form="exp")
        import json
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            nn.load_mlp(path)

    @pytest.mark.parametrize("activation", ["relu", None])
    def test_other_activation_rejected(self, tmp_path, activation):
        import json
        path = tmp_path / "net.json"
        nn.save_mlp(nn.init_mlp([1, 2, 1], 0), path, alpha=1.0, psi_form="exp")
        doc = json.loads(path.read_text())
        assert doc["activation"] == "tanh"
        doc["activation"] = activation
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="tanh"):
            nn.load_mlp(path)

    def test_param_count_formula(self):
        # dense layers: sum (in + 1) * out; 2-10-10-1 gives 151
        assert nn.param_count(nn.init_mlp([2, 10, 10, 1], 0)) == 151
        assert nn.param_count(nn.init_mlp([2, 30, 30, 1], 0)) == 1051
        assert nn.param_count(nn.init_mlp([2, 10, 10, 10, 1], 0)) == 261
