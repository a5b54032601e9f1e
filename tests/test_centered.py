"""The second-order enclosures behind the decrease condition.

`net_interval_many(..., want_hess=True)` carries a Hessian stream in the
network pass, and `NetLieFn` uses it for the centered form of
grad W_N . f.  Both must contain what they enclose at every sampled
point, on random nets and boxes: degenerate boxes, boxes straddling 0,
and weights far from the trained range.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov import dynamics as dyn
from zubov import interval as iv
from zubov import net as nn
from zubov import shares
from zubov import verify as vf

VDP = dyn.builtin("reversed_vdp")
SYSTEMS = {
    1: [dyn.builtin("cubic1d")],
    2: [VDP, dyn.builtin("poly2d")],
    3: [dyn.make_system("lorenz_like", 3, ["-x1 + x2", "-x2 + x1*x3 - x1", "-2*x3 + x1*x2^2"],
                        [[-2, 2], [-2, 2], [-2, 2]])],
}


def float_hessian(net, X):
    """W_N's Hessian at the points X, (K, n, n), by forward mode in float:
    T_k = s''(z) (WJ)(WJ)' + s'(z) W T_{k-1}."""
    K, n = X.shape
    a = X
    J = np.broadcast_to(np.eye(n), (K, n, n))
    T = np.zeros((K, n, n, n))
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ W.T + b
        M = W @ J
        T = np.einsum("ij,kjpq->kipq", W, T)
        if i < last:
            a = np.tanh(a)
            d = 1.0 - a * a
            T = ((-2.0 * a * d)[:, :, None, None] * M[:, :, :, None] * M[:, :, None, :]
                 + d[:, :, None, None] * T)
            J = d[:, :, None] * M
    return T[:, 0]


@st.composite
def nets_and_boxes(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    hidden = draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    scale = draw(st.sampled_from([1e-3, 0.5, 1.0, 4.0, 40.0]))
    kind = draw(st.sampled_from(["degenerate", "small", "straddle", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = nn.init_mlp([n, *hidden, 1], rng)
    for W, b in zip(net.weights, net.biases):
        W *= scale
        b[:] = rng.normal(size=b.shape) * scale
    K = 6
    if kind == "straddle":
        lo = -rng.uniform(0.0, 1.5, (K, n))
        hi = rng.uniform(0.0, 1.5, (K, n))
    else:
        width = {"degenerate": np.zeros((K, n)),
                 "small": 10.0 ** rng.uniform(-7, -2, (K, n)),
                 "wide": rng.uniform(0.1, 2.0, (K, n))}[kind]
        lo = rng.uniform(-2.0, 2.0, (K, n))
        hi = lo + width
    return net, lo, hi, rng


def _samples(rng, lo, hi, per_box=40):
    """Corners, centers and uniform points of each box: (K, S, n)."""
    K, n = lo.shape
    corners = np.indices((2,) * n).reshape(n, -1).T
    pts = [np.where(corners[None] == 0, lo[:, None], hi[:, None]),
           0.5 * (lo + hi)[:, None],
           rng.uniform(lo[:, None], hi[:, None], (K, per_box, n))]
    return np.concatenate(pts, axis=1)


class TestHessianStream:
    @settings(max_examples=150, deadline=None)
    @given(nets_and_boxes())
    def test_encloses_the_float_hessian(self, case):
        net, lo, hi, rng = case
        n = lo.shape[1]
        *_, hlo, hhi = iv.net_interval_many(net, lo, hi, want_hess=True)
        assert hlo.shape == hhi.shape == (lo.shape[0], n * (n + 1) // 2)
        X = _samples(rng, lo, hi)
        H = float_hessian(net, X.reshape(-1, n)).reshape(X.shape[0], X.shape[1], n, n)
        p, q = np.triu_indices(n)
        assert np.all(np.isfinite(hlo)) and np.all(np.isfinite(hhi))
        assert np.all(hlo[:, None, :] <= H[:, :, p, q])
        assert np.all(H[:, :, p, q] <= hhi[:, None, :])

    @settings(max_examples=40, deadline=None)
    @given(nets_and_boxes())
    def test_leaves_the_first_order_outputs_bit_for_bit(self, case):
        net, lo, hi, _ = case
        first = iv.net_interval_many(net, lo, hi)
        second = iv.net_interval_many(net, lo, hi, want_hess=True)
        assert len(first) == 4 and len(second) == 8
        for a, b in zip(first, second[:4]):
            assert np.array_equal(a, b)
        # the midpoint gradient is the natural first-order pass at the centers
        m = iv.center_offsets(lo, hi)[0]
        for a, b in zip(iv._natural(net, m, m, 1)[2:], second[4:6]):
            assert np.array_equal(a, b)

    def test_affine_net_has_a_zero_hessian(self):
        net = nn.init_mlp([2, 1], 0)
        *_, hlo, hhi = iv.net_interval_many(net, np.zeros((3, 2)), np.ones((3, 2)),
                                            want_hess=True)
        assert hlo.shape == (3, 3) and not hlo.any() and not hhi.any()


class TestCenterOffsets:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["straddle", "skewed", "small"]))
    def test_offsets_enclose_the_exact_differences(self, seed, kind):
        # x - m for x in B is what the mean value theorem multiplies; a
        # rounded lo - m can land inside it
        rng = np.random.default_rng(seed)
        if kind == "straddle":
            lo, hi = -rng.uniform(0, 3, (50, 2)), rng.uniform(0, 3, (50, 2))
        elif kind == "skewed":
            lo = 10.0 ** rng.uniform(-20, 0, (50, 2))
            hi = lo + 10.0 ** rng.uniform(-1, 1, (50, 2))
        else:
            lo = rng.uniform(-2, 2, (50, 2))
            hi = lo + 10.0 ** rng.uniform(-9, -3, (50, 2))
        m, dlo, dhi = iv.center_offsets(lo, hi)
        assert np.all((lo <= m) & (m <= hi))
        for a, b, c, d, e in zip(lo.ravel(), hi.ravel(), m.ravel(), dlo.ravel(), dhi.ravel()):
            assert Fraction(d) <= Fraction(a) - Fraction(c)
            assert Fraction(b) - Fraction(c) <= Fraction(e)


def _lie(net, sys):
    return vf.NetLieFn(vf._NetBoxCache(net, hessian=True), sys, 1e-4)


class TestCenteredLie:
    @settings(max_examples=150, deadline=None)
    @given(nets_and_boxes(), st.integers(0, 1))
    def test_encloses_the_sampled_values(self, case, which):
        net, lo, hi, rng = case
        systems = SYSTEMS[lo.shape[1]]
        fn = _lie(net, systems[which % len(systems)])
        hlo, hhi = fn.eval_boxes(lo, hi)
        X = _samples(rng, lo, hi)
        h = fn.eval_points(X.reshape(-1, lo.shape[1])).reshape(X.shape[:2])
        assert np.all(hlo[:, None] <= h) and np.all(h <= hhi[:, None])

    def test_bench_net_band_boxes(self):
        # delta-sized boxes where the band search works: the centered form
        # binds on nearly all of them, and still holds every sample
        net, _, _ = nn.load_mlp(Path(__file__).parents[1] / "bench" / "net_vdp.json")
        rng = np.random.default_rng(11)
        lo = rng.uniform([-2.0, -3.0], [2.0, 3.0], (2000, 2))
        hi = lo + rng.uniform(2e-4, 1e-2, (2000, 2))
        fn = _lie(net, VDP)
        hlo, hhi = fn.eval_boxes(lo, hi)
        _, _, glo, ghi = iv.net_interval_many(net, lo, hi)
        nlo, nhi = fn._natural(glo, ghi, iv.expr_interval_many(VDP.field.tape, lo, hi))
        assert np.all((nlo <= hlo) & (hhi <= nhi))
        assert np.median((hhi - hlo) / (nhi - nlo)) < 0.3
        X = _samples(rng, lo, hi, per_box=20)
        h = fn.eval_points(X.reshape(-1, 2)).reshape(X.shape[:2])
        assert np.all(hlo[:, None] <= h) and np.all(h <= hhi[:, None])

    def test_needs_a_hessian_cache(self):
        with pytest.raises(ValueError, match="hessian"):
            vf.NetLieFn(vf._NetBoxCache(nn.init_mlp([2, 3, 1], 0)), VDP, 1e-4)

    def test_only_the_band_cache_carries_the_hessian(self, monkeypatch):
        net, _, _ = nn.load_mlp(Path(__file__).parents[1] / "bench" / "net_vdp.json")
        current, calls = [None], []
        bnb_verify, net_interval_many = iv.bnb_verify, iv.net_interval_many

        def traced_bnb(cond, *args, **kw):
            current[0] = cond.name
            return bnb_verify(cond, *args, **kw)

        def traced_net(*args, want_hess=False, **kw):
            calls.append((current[0], want_hess))
            return net_interval_many(*args, want_hess=want_hess, **kw)

        monkeypatch.setattr(iv, "bnb_verify", traced_bnb)
        monkeypatch.setattr(iv, "net_interval_many", traced_net)
        # one core, so every proof runs here, where the spies are
        monkeypatch.setattr(shares, "count", lambda units: 1)
        assert vf.verify_roa(net, VDP, 0.9999, 0.0224, 0.74).certified
        with_hess = {name for name, h in calls if h}
        without = {name for name, h in calls if not h}
        assert with_hess == {"decrease band [0.0224, 0.74]"}
        assert "sublevel 0.0224 inside ellipsoid" in without
        assert sum(name.startswith("boundary") for name in without) == 4


class TestBandExport:
    def test_smt2_is_unchanged(self):
        # the SHA-256 of the export before the centered form was added;
        # the enclosure changed, the condition did not
        net = nn.init_mlp([2, 3, 3, 1], 5)
        cond = vf._band_condition(vf._NetBoxCache(net, hessian=True), VDP, 0.2, 0.8, 1e-4)
        text = vf.export_smt2(cond, VDP.domain)
        assert hashlib.sha256(text.encode()).hexdigest() == SMT_SHA256


SMT_SHA256 = "4d905b0d6869d6c3e0e07ca94be7919ea956d395b250d8cfc3ccc0e914411e75"
