"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end
criteria share one deterministic desk-scale run (fixture ``vdp_run``).
"""

import math
import time

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv
from zubov import net as nn
from zubov import ode
from zubov import verify as vf

from test_expr import enclosure, random_expr, values
from test_net import ExprCandidate, zubov_residual


def report(num, ok, detail):
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


CUBIC = dyn.builtin("cubic1d")
VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")


# ---------------------------------------------------------------------------
# Criterion 1: train against the scalar cubic and hit its closed form
# ---------------------------------------------------------------------------

def test_c1_closed_form_training_oracle():
    t0 = time.perf_counter()
    cfg = nn.TrainConfig(alpha=2.0, psi_form="exp", batch=32, lr=1e-3,
                         max_epochs=400, loss_threshold=1e-7, seed=7,
                         c_local=0.16)
    data = nn.Dataset(collocation=np.linspace(-0.95, 0.95, 501)[:, None],
                      exterior=np.empty((0, 1)),
                      pair_x=np.empty((0, 1)), pair_w=np.empty(0))
    net, _ = nn.train(nn.init_mlp([1, 10, 10, 1], cfg.seed), data, CUBIC, cfg)
    xs = np.linspace(-0.9, 0.9, 721)[:, None]
    err = float(np.max(np.abs(net.value_batch(xs) - xs[:, 0] ** 2)))
    elapsed = time.perf_counter() - t0
    report(1, err < 0.05 and elapsed <= 300,
           f"max |W - x^2| = {err:.4f} (< 0.05), {elapsed:.0f}s (<= 300s)")


# ---------------------------------------------------------------------------
# Criterion 2: the analytic solution annihilates the residual
# ---------------------------------------------------------------------------

def test_c2_analytic_residual():
    cfg = nn.TrainConfig(alpha=2.0, psi_form="exp")
    w_direct = ExprCandidate(ex.parse("x1^2", 1), 1)
    w_via_v = ExprCandidate(ex.parse("1 - exp(-2*(-0.5*ln(1 - x1^2)))", 1), 1)
    worst = 0.0
    for cand in (w_direct, w_via_v):
        for x in (0.5, -0.5, 0.9, -0.9):
            worst = max(worst, abs(zubov_residual(cand, CUBIC, cfg, [x])))
    report(2, worst <= 1e-9, f"max |residual| = {worst:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# Criterion 3: Lyapunov solves reproduce the known P matrices exactly
# ---------------------------------------------------------------------------

def test_c3_lyapunov_solves():
    t0 = time.perf_counter()
    A_vdp, A_poly = np.array([[0.0, -1.0], [1.0, -1.0]]), np.array([[0.0, 1.0], [-2.0, -1.0]])
    P_vdp, P_poly = dyn.solve_lyapunov(A_vdp), dyn.solve_lyapunov(A_poly)
    # max |PA + A'P + I|
    res_vdp, res_poly = (float(np.max(np.abs(P @ A + A.T @ P + np.eye(2))))
                         for P, A in ((P_vdp, A_vdp), (P_poly, A_poly)))
    ok = (np.allclose(P_vdp, [[1.5, -0.5], [-0.5, 1.0]], atol=1e-12)
          and np.allclose(P_poly, [[1.75, 0.25], [0.25, 0.75]], atol=1e-12)
          and res_vdp <= 1e-10 and res_poly <= 1e-10)
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 1.0,
           f"P matrices exact, residuals {res_vdp:.1e}/{res_poly:.1e}, "
           f"{elapsed * 1000:.0f}ms (< 1s)")


# ---------------------------------------------------------------------------
# Criterion 4: local certificates (spectral-norm bound, r = 0.9999)
# ---------------------------------------------------------------------------

def test_c4a_local_certificate_vdp():
    t0 = time.perf_counter()
    cert = vf.find_max_local_c(VDP, 0.9999, delta=1e-3)
    c = cert.c
    elapsed = time.perf_counter() - t0
    report("4a", cert.certified and c >= 0.2 and elapsed <= 120,
           f"reversed_vdp certified at c = {c:.4f} (>= 0.2), {elapsed:.0f}s (<= 120s)")


def test_c4b_local_certificate_poly2d():
    # poly2d: f = (x2, -2 x1 + x1^3/3 - x2), so A = [[0, 1], [-2, -1]],
    # g = f - Ax = (0, x1^3/3) and the Lyapunov solve with Q = I gives
    # P = [[1.75, 0.25], [0.25, 0.75]].  Dg = [[0, 0], [x1^2, 0]], hence
    # P Dg = x1^2 [[0.25, 0], [0.75, 0]] is rank one with spectral norm
    # sqrt(0.625) x1^2 (every valid matrix norm agrees on it), largest at
    # t = 1 on the segment.  Over {x'Px <= c} the largest x1^2 is
    # (P^-1)_11 c = 0.6 c, so the condition 2 sqrt(0.625) x1^2 <= r holds
    # exactly for c <= r / (1.2 sqrt(0.625)) = sqrt(10) r / 3 ~ 1.054.
    #
    # Soundness: a certified c above that ceiling is a wrong verdict.
    # Near-maximality: find_max_local_c lowers c to where the condition
    # first fails or stays undecided on a delta-box and proves it there or
    # a little below, so it may sit below the ceiling by the delta-limited
    # band: a box of side <= delta across the boundary is neither pruned
    # nor refuted.  At the boundary point,
    # x = (sqrt(0.6 c), -sqrt(0.6 c) / 3), the gradient 2Px of x'Px is
    # along x1 with size 2 sqrt(0.6 c) / 0.6 ~ 2.65, so the enclosures of
    # the antecedent and of x1^2 each shift the decided level by about
    # 2.65 delta; 10 delta = 1e-2 covers their sum.
    #
    # c = 2.0 lies above the ceiling, so a sound engine must answer
    # Falsified there, with a witness inside the ellipsoid at which the
    # point evaluation of the condition is violated.
    r, delta = 0.9999, 1e-3
    t0 = time.perf_counter()
    P = dyn.solve_lyapunov(dyn.linearize(POLY).A)
    ceiling = math.sqrt(10) * r / 3
    floor = ceiling - 10 * delta
    cert = vf.find_max_local_c(POLY, r, delta=delta)
    c = cert.c
    at_two = vf.verify_local(POLY, r, 2.0, delta=delta).outcome
    elapsed = time.perf_counter() - t0
    genuine = False
    if isinstance(at_two, iv.Falsified):
        w = np.asarray(at_two.witness, float)
        segment = vf.SegmentNormFn(dyn.linearize(POLY), P, r)
        genuine = bool(w @ P @ w <= 2.0 and segment.eval_points(w[None, :])[0] > 0)
    verdict = type(at_two).__name__ + ("" if genuine else " (no genuine witness)")
    report("4b", cert.certified and floor <= c <= ceiling and genuine and elapsed <= 120,
           f"poly2d certified at c = {c:.4f} in [{floor:.4f}, {ceiling:.4f}] "
           f"(floor, analytic ceiling); c = 2.0: {verdict}; "
           f"{elapsed:.0f}s (<= 120s)")


# ---------------------------------------------------------------------------
# Criterion 5: simulated values match the closed-form cost
# ---------------------------------------------------------------------------

def test_c5_value_data_fidelity():
    xs = np.linspace(-0.9, 0.9, 50)[:, None]
    v, conv = ode.estimate_V_batch(CUBIC, xs)
    truth = -0.5 * np.log(1 - xs[:, 0] ** 2)
    err = float(np.max(np.abs(v - truth)))
    report(5, bool(conv.all()) and err <= 2e-3,
           f"max |V_hat - V| = {err:.2e} (<= 2e-3) over 50 grid points")


# ---------------------------------------------------------------------------
# Criteria 6 & 9 share one deterministic desk-scale run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def vdp_run():
    t0 = time.perf_counter()
    local = vf.find_max_local_c(VDP, 0.9999, delta=1e-3)
    t_data = time.perf_counter()
    samples = ode.gen_dataset(VDP, [150, 150], ode.IntegratorConfig(),
                              ode.BetaKind("tanh", 0.1))
    t_train = time.perf_counter()
    cfg = nn.TrainConfig(seed=3, c_local=local.c)
    data = nn.assemble_dataset(samples, cfg, pair_fraction=0.01,
                               rng=np.random.default_rng(cfg.seed))
    net, record = nn.train(nn.init_mlp([2, 10, 10, 10, 1], cfg.seed), data, VDP, cfg)
    t_verify = time.perf_counter()
    c1, c2, cert = vf.find_max_level(net, VDP, 0.9999)
    vol = vf.volume_fraction(net, c2, samples)
    t_end = time.perf_counter()
    return {
        "local": local, "net": net, "samples": samples, "record": record,
        "c1": c1, "c2": c2, "cert": cert, "volume": vol,
        "seconds": t_end - t0,
        "times": {"local": t_data - t0, "data": t_train - t_data,
                  "train": t_verify - t_train, "verify": t_end - t_verify},
    }


def test_c6_end_to_end_vdp(vdp_run):
    r = vdp_run
    ok = (r["cert"].certified and r["c2"] >= 0.7 and r["volume"] >= 80.0
          and r["seconds"] <= 3600)
    report(6, ok,
           f"certified c2 = {r['c2']:.4f} (>= 0.7), volume = {r['volume']:.2f}% "
           f"(>= 80%), total {r['seconds']:.0f}s (<= 3600s); "
           f"stage times {({k: round(v, 1) for k, v in r['times'].items()})}")


# ---------------------------------------------------------------------------
# Criterion 7: soundness suite
# ---------------------------------------------------------------------------

def test_c7_soundness_suite():
    rng = np.random.default_rng(2718)
    checks = 0
    # expression enclosures: 50k (expr, box, point) triples
    while checks < 50_000:
        e = random_expr(rng, 2, depth=4)
        lo = rng.uniform(-2, 1, size=(5, 2))
        hi = lo + rng.uniform(0.01, 2, size=(5, 2))
        vlo, vhi = enclosure(e, lo, hi)
        for b in range(5):
            X = rng.uniform(lo[b], hi[b], size=(25, 2))
            vals = values(e, X)
            if not np.all(np.isfinite(vals)):
                continue
            assert vals.min() >= vlo[b] and vals.max() <= vhi[b], ex.to_str(e)
            checks += 25
    # network value and gradient enclosures: 50k triples
    net_checks = 0
    while net_checks < 50_000:
        net = nn.init_mlp([2, rng.integers(3, 9), rng.integers(3, 9), 1], rng)
        lo = rng.uniform(-2, 1, size=(10, 2))
        hi = lo + rng.uniform(0.01, 2, size=(10, 2))
        vlo, vhi, glo, ghi = iv.net_interval_many(net, lo, hi)
        for b in range(10):
            X = rng.uniform(lo[b], hi[b], size=(25, 2))
            vals = net.value_batch(X)
            grads = net.grad_batch(X)
            assert vals.min() >= vlo[b] and vals.max() <= vhi[b]
            for i in range(2):
                assert grads[:, i].min() >= glo[b, i]
                assert grads[:, i].max() <= ghi[b, i]
            net_checks += 25

    # every Falsified witness re-verifies in plain point arithmetic
    falsified = [vf.verify_local(POLY, 0.9999, c, delta=1e-3).outcome
                 for c in (2.0, 2.4)]
    toy = iv.Condition(
        antecedents=(iv.ExprFn(ex.parse("x1^2 - 1", 1)),),
        consequent=iv.ExprFn(ex.parse("x1 - 0.5", 1)))
    falsified.append(iv.bnb_verify(toy, iv.Box([-3.0], [3.0]), delta=1e-3))
    for out in falsified:
        assert isinstance(out, iv.Falsified)
        assert out.margin > 0.0

    # certified outcomes survive dense grid falsification attempts
    P_vdp = dyn.solve_lyapunov(dyn.linearize(VDP).A)
    lin = dyn.linearize(VDP)
    cond = iv.Condition(antecedents=(vf.QuadFormFn(P_vdp, 0.2),),
                        consequent=vf.SegmentNormFn(lin, P_vdp, 0.9999))
    assert isinstance(iv.bnb_verify(cond, VDP.domain, delta=1e-3), iv.Certified)
    g = np.linspace(-2.5, 2.5, 100)
    h = np.linspace(-3.5, 3.5, 100)
    X = np.stack(np.meshgrid(g, h, indexing="ij"), axis=-1).reshape(-1, 2)
    ant = cond.antecedents[0].eval_points(X)
    cons = cond.consequent.eval_points(X)
    violations = int(np.count_nonzero((ant <= 0) & (cons > 0)))
    report(7, violations == 0,
           f"{checks + net_checks} enclosure checks, all witnesses re-verified, "
           f"{violations} violations in 10^4-point grid attack")


# ---------------------------------------------------------------------------
# Criterion 8: gradient suite
# ---------------------------------------------------------------------------

def test_c8_gradient_suite():
    rng = np.random.default_rng(314)
    worst_input = 0.0
    worst_param = 0.0
    for trial in range(20):
        net = nn.init_mlp([2, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 1], rng)
        x = rng.uniform(-1.5, 1.5, size=2)
        g = nn.input_grad_batch(net, x[None, :])[1][0]
        h = 1e-6
        fd = (net.value_batch(x + h * np.eye(2)) - net.value_batch(x - h * np.eye(2))) / (2 * h)
        worst_input = max(worst_input,
                          float(np.max(np.abs(g - fd))) / max(1.0, float(np.max(np.abs(fd)))))

        cfg = nn.TrainConfig(alpha=0.1, psi_form="tanh" if trial % 2 else "exp",
                             lambda_r=1.0, lambda_b=0.9, lambda_d=1.1)
        Xc = rng.uniform(-2, 2, size=(5, 2))
        Xe = rng.uniform(-2, 2, size=(3, 2))
        Xp = rng.uniform(-2, 2, size=(2, 2))
        wp = rng.uniform(0, 1, size=2)
        _, grad = nn._loss_batch(net, VDP, cfg, Xc, Xe, Xp, wp, want_grad=True)

        def total_now():
            return nn._loss_batch(net, VDP, cfg, Xc, Xe, Xp, wp,
                                  want_grad=False).total(cfg)

        for l in range(len(net.weights)):
            for (param, gval) in ((net.weights[l], grad.dW[l]),
                                  (net.biases[l], grad.db[l])):
                flat_p = param.reshape(-1)
                flat_g = gval.reshape(-1)
                for k in range(flat_p.size):
                    old = flat_p[k]
                    flat_p[k] = old + h
                    fp = total_now()
                    flat_p[k] = old - h
                    fm = total_now()
                    flat_p[k] = old
                    fdk = (fp - fm) / (2 * h)
                    worst_param = max(worst_param,
                                      abs(fdk - flat_g[k]) / max(1.0, abs(fdk)))
    report(8, worst_input <= 1e-6 and worst_param <= 1e-4,
           f"input grad err {worst_input:.2e} (<= 1e-6), "
           f"loss grad err {worst_param:.2e} (<= 1e-4), 20 nets")


# ---------------------------------------------------------------------------
# Criterion 9: sampled-flow validation of the certified sublevel set
# ---------------------------------------------------------------------------

def test_c9_trajectory_validation(vdp_run):
    r = vdp_run
    out = vf.validate_roa_by_simulation(r["net"], VDP, r["local"], r["c2"],
                                        n_points=10_000,
                                        rng=np.random.default_rng(161803))
    ok = out["failed"] == 0 and out["exited_sublevel"] == 0
    report(9, ok,
           f"{out['points']} points: {out['reached_ellipsoid']} reached the "
           f"ellipsoid, {out['exited_sublevel']} exited the sublevel set "
           "(0 allowed)")
