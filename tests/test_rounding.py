"""Outward rounding of the interval kernels, checked against exact values.

* `_down` / `_up` move a bound at least as far as the same number of
  `np.nextafter` passes, from zero and the subnormals up to the largest
  finite double and the infinities.
* The libm cover `_ULPS_LIBM` holds for tanh, exp and log against mpmath
  at 60 digits.
* `kmatmul_interval` and `kaffine` enclose the exact product, computed
  with `fractions.Fraction`, also under heavy cancellation.
* The remaining gaps of the certificate path round outward, and the
  mean-value form falls back to the hull of two disjoint enclosures.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov import dynamics as dyn
from zubov import interval as iv
from zubov import net as nn
from zubov import verify as vf

TINY = math.ldexp(1.0, -1074)
MAX = np.finfo(np.float64).max


def _nextafter_passes(a, k, toward):
    for _ in range(k):
        a = np.nextafter(a, toward)
    return a


def _across_binades(rng, size):
    """Random doubles of both signs with exponents from the subnormals to
    the top binade, plus the special values."""
    mant = rng.uniform(1.0, 2.0, size)
    expo = rng.integers(-1074, 1024, size)
    a = np.ldexp(mant, expo) * rng.choice([-1.0, 1.0], size)
    special = [0.0, -0.0, TINY, -TINY, 2 * TINY, math.ldexp(1.0, -1022),
               -math.ldexp(1.0, -1022), math.ldexp(1.0, -1021) - TINY,
               MAX, -MAX, np.nextafter(MAX, 0.0), 1.0, -1.0, np.inf, -np.inf]
    return np.concatenate([a, special])


class TestWidening:
    @pytest.mark.parametrize("k", [1, 4])
    def test_at_least_k_nextafter_passes(self, k):
        a = _across_binades(np.random.default_rng(k), 20_000)
        with np.errstate(over="ignore"):
            down, up = iv._down(a, k), iv._up(a, k)
            ref_down = _nextafter_passes(a, k, -np.inf)
            ref_up = _nextafter_passes(a, k, np.inf)
        assert np.all(down <= ref_down)
        assert np.all(up >= ref_up)

    @pytest.mark.parametrize("k", [1, 4])
    def test_zero_and_subnormals_step_exactly(self, k):
        a = np.array([0.0, -0.0, TINY, -TINY, 7 * TINY])
        assert np.array_equal(iv._down(a, k), a - k * TINY)
        assert np.array_equal(iv._up(a, k), a + k * TINY)

    def test_largest_finite_and_infinities(self):
        with np.errstate(over="ignore"):
            out = iv._down(np.array([MAX, -MAX, np.inf, -np.inf]), 4)
        assert out[0] < MAX and np.isfinite(out[0])
        assert out[1] == -np.inf
        assert np.isfinite(out[2]) and out[2] <= _nextafter_passes(np.inf, 4, -np.inf)
        assert out[3] == -np.inf
        with np.errstate(over="ignore"):
            out = iv._up(np.array([-MAX, MAX, -np.inf, np.inf]), 4)
        assert out[0] > -MAX and out[1] == np.inf
        assert np.isfinite(out[2]) and out[2] >= _nextafter_passes(-np.inf, 4, np.inf)
        assert out[3] == np.inf

    def test_nan_stays_nan(self):
        assert np.isnan(iv._down(np.array([np.nan]), 4)[0])
        assert np.isnan(iv._up(np.array([np.nan]), 4)[0])

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False), st.sampled_from([1, 4]))
    def test_property(self, a, k):
        arr = np.array([a])
        with np.errstate(over="ignore"):
            assert iv._down(arr, k)[0] <= _nextafter_passes(a, k, -np.inf)
            assert iv._up(arr, k)[0] >= _nextafter_passes(a, k, np.inf)


def _outside(lo, hi, fn_mp, xs):
    """Rows of xs whose true value (mpmath, 60 digits) is not in [lo, hi]."""
    with mpmath.workdps(60):
        return [x for x, l, h in zip(xs.tolist(), lo.tolist(), hi.tolist())
                if not mpmath.mpf(l) <= fn_mp(mpmath.mpf(x)) <= mpmath.mpf(h)]


def _covered(fn_np, fn_mp, xs):
    """Rows of xs whose true value falls outside _ULPS_LIBM ulps of libm."""
    y = fn_np(xs)
    k = iv._ULPS_LIBM
    return _outside(_nextafter_passes(y, k, -np.inf), _nextafter_passes(y, k, np.inf),
                    fn_mp, xs)


class TestLibmCover:
    rng = np.random.default_rng(2024)

    def test_tanh(self):
        r = self.rng
        xs = np.concatenate([
            r.uniform(-20, 20, 3000),
            np.ldexp(r.uniform(1, 2, 500), r.integers(-1074, -1, 500)) * r.choice([-1, 1], 500),
            r.uniform(17, 20, 300), -r.uniform(17, 20, 300),     # near saturation
            r.uniform(-1e-3, 1e-3, 300),
            [0.0, TINY, -TINY, 1e-310, 19.06, 22.0, -22.0],
        ])
        assert _covered(np.tanh, mpmath.tanh, xs) == []

    def test_exp(self):
        r = self.rng
        xs = np.concatenate([
            r.uniform(-745, 709, 3000),
            r.uniform(-745.1, -708, 500),                        # subnormal results
            r.uniform(-1e-8, 1e-8, 300),
            np.ldexp(r.uniform(1, 2, 300), r.integers(-1074, -1, 300)) * r.choice([-1, 1], 300),
            [0.0, TINY, -TINY, 709.78, -745.13],
        ])
        assert _covered(np.exp, mpmath.exp, xs) == []

    def test_log(self):
        r = self.rng
        xs = np.concatenate([
            np.ldexp(r.uniform(1, 2, 3000), r.integers(-1074, 1024, 3000)),
            1.0 + r.uniform(-1e-6, 1e-6, 500),                   # near the root
            np.ldexp(r.uniform(1, 2, 300), r.integers(-1074, -1022, 300)),
            [TINY, 1.0, MAX, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)],
        ])
        assert _covered(np.log, mpmath.log, xs) == []

    def test_kernels_enclose(self):
        xs = np.random.default_rng(3).uniform(-5, 5, 400)
        assert _outside(*iv.ktanh(xs, xs), mpmath.tanh, xs) == []
        assert _outside(*iv.kexp(xs, xs), mpmath.exp, xs) == []
        pos = np.abs(xs) + 1e-3
        assert _outside(*iv.kln(pos, pos), mpmath.log, pos) == []


def _frac(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def _interval_matmul_exact(W, jlo, jhi):
    """Exact range of W @ J over interval J, entrywise, as Fractions."""
    Wf, lof, hif = _frac(W), _frac(jlo), _frac(jhi)
    pos = W > 0
    lo = np.einsum("om,kmn->kon", np.where(pos, Wf, 0), lof) \
        + np.einsum("om,kmn->kon", np.where(pos, 0, Wf), hif)
    hi = np.einsum("om,kmn->kon", np.where(pos, Wf, 0), hif) \
        + np.einsum("om,kmn->kon", np.where(pos, 0, Wf), lof)
    return lo, hi


def _assert_encloses(lo, hi, exact_lo, exact_hi):
    assert np.all(_frac(lo) <= exact_lo)
    assert np.all(exact_hi <= _frac(hi))


def _cancelling(rng, shape, scale):
    """Large values of both signs whose sums cancel almost completely."""
    base = rng.choice([-1.0, 1.0], shape) * scale
    return base + rng.uniform(-1, 1, shape)


class TestMatmulKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_kmatmul_interval_random(self, seed):
        rng = np.random.default_rng(seed)
        K, o, m, n = 6, 5, 7, 3
        W = rng.normal(size=(o, m)) * np.ldexp(1.0, rng.integers(-30, 30, (o, m)))
        jlo = rng.normal(size=(K, m, n)) * np.ldexp(1.0, rng.integers(-30, 30, (K, m, n)))
        jhi = jlo + np.abs(rng.normal(size=(K, m, n)))
        jhi[0] = jlo[0]                                      # a point matrix too
        lo, hi = iv.kmatmul_interval(W, jlo, jhi)
        _assert_encloses(lo, hi, *_interval_matmul_exact(W, jlo, jhi))

    @pytest.mark.parametrize("seed", range(4))
    def test_kmatmul_interval_cancellation(self, seed):
        rng = np.random.default_rng(100 + seed)
        K, o, m, n = 6, 4, 10, 2
        W = rng.choice([-1.0, 1.0], (o, m)) * (1.0 + rng.uniform(0, 1e-12, (o, m)))
        jlo = _cancelling(rng, (K, m, n), 1e16)
        jhi = jlo + rng.uniform(0, 1.0, (K, m, n))
        lo, hi = iv.kmatmul_interval(W, jlo, jhi)
        _assert_encloses(lo, hi, *_interval_matmul_exact(W, jlo, jhi))

    @pytest.mark.parametrize("seed", range(4))
    def test_kaffine(self, seed):
        rng = np.random.default_rng(200 + seed)
        K, o, m = 8, 6, 9
        W = rng.normal(size=(o, m))
        b = rng.normal(size=o) * 1e16
        alo = _cancelling(rng, (K, m), 1e16) if seed % 2 else rng.normal(size=(K, m))
        ahi = alo + rng.uniform(0, 1.0, (K, m))
        lo, hi = iv.kaffine(W, b, alo, ahi)
        e_lo, e_hi = _interval_matmul_exact(W, alo[:, :, None], ahi[:, :, None])
        bf = _frac(b)[None, :]
        _assert_encloses(lo, hi, e_lo[:, :, 0] + bf, e_hi[:, :, 0] + bf)


class TestCertificateGaps:
    def test_net_value_fn_rounds_outward(self):
        net = nn.init_mlp([2, 4, 1], 0)
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = 0.1
        cache = vf._NetBoxCache(net)
        lo = np.zeros((1, 2))
        for sign in (+1, -1):
            fn = vf.NetValueFn(cache, 0.3, sign)
            hlo, hhi = fn.eval_boxes(lo, lo.copy())
            vlo, vhi, _, _ = cache.boxes(lo, lo)
            exact = [(Fraction(float(v)) - Fraction(0.3)) * sign for v in (vlo[0], vhi[0])]
            assert Fraction(float(hlo[0])) <= min(exact)
            assert max(exact) <= Fraction(float(hhi[0]))

    def test_segment_norm_fn_rounds_outward(self):
        vdp = dyn.builtin("reversed_vdp")
        P = dyn.solve_lyapunov(vdp.linearization.A)
        r = 0.1
        fn = vf.SegmentNormFn(vdp.linearization, P, r)
        lo = np.array([[0.3, -0.2]])
        hi = np.array([[0.4, 0.1]])
        hlo, hhi = fn.eval_boxes(lo, hi)
        hull_lo, hull_hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
        nlo, nhi = iv.ksqrt(*fn._norm_sq_interval(*fn._pdg_entries_interval(hull_lo, hull_hi)))
        nlo, nhi = iv.kscale(2.0, nlo, nhi)
        assert Fraction(float(hlo[0])) <= Fraction(float(nlo[0])) - Fraction(r)
        assert Fraction(float(nhi[0])) - Fraction(r) <= Fraction(float(hhi[0]))

    def test_mean_value_offsets_round_outward(self):
        # on small boxes the mean-value form W(c) +- spread is the binding
        # bound; it must sit outside the exact fc_lo - spread, fc_hi + spread
        net = nn.init_mlp([2, 6, 6, 1], 4)
        rng = np.random.default_rng(9)
        lo = rng.uniform(-2, 2, (300, 2))
        hi = lo + 1e-3
        vlo, vhi, glo, ghi = iv.net_interval_many(net, lo, hi)
        nat_lo, nat_hi = iv._natural(net, lo, hi, 0)
        c = 0.5 * (lo + hi)
        fc_lo, fc_hi = iv._natural(net, c, c.copy(), 0)
        rad = iv._up(np.maximum(hi - c, c - lo), iv._ULPS_ARITH)
        spread = (np.maximum(np.abs(glo), np.abs(ghi)) * rad).sum(axis=1)
        spread = spread + iv._dot_err(spread, 2)
        binds_lo, binds_hi = vlo > nat_lo, vhi < nat_hi
        assert binds_lo.sum() > 100 and binds_hi.sum() > 100
        for i in np.flatnonzero(binds_lo):
            assert Fraction(float(vlo[i])) <= Fraction(float(fc_lo[i])) - Fraction(float(spread[i]))
        for i in np.flatnonzero(binds_hi):
            assert Fraction(float(fc_hi[i])) + Fraction(float(spread[i])) <= Fraction(float(vhi[i]))

    def test_disjoint_enclosures_keep_the_hull(self, monkeypatch):
        # a center enclosure pushed far off makes the mean-value form miss
        # the natural one; the result must be their hull, not a midpoint
        net = nn.init_mlp([2, 5, 1], 1)
        lo = np.array([[0.2, -0.3], [1.0, 1.0]])
        hi = np.array([[0.5, 0.1], [1.0, 1.0]])
        nat_lo, nat_hi = iv._natural(net, lo, hi, 0)
        natural = iv._natural

        def shifted_center(n, a, b, order):
            # the value-only pass is the one over the degenerate center boxes
            out = natural(n, a, b, order)
            return out if order else tuple(v + 10.0 for v in out)

        monkeypatch.setattr(iv, "_natural", shifted_center)
        vlo, vhi = iv.net_interval_many(net, lo, hi)[:2]
        assert np.array_equal(vlo, nat_lo)
        assert np.all(vhi > nat_hi + 9.0)
        X = np.random.default_rng(1).uniform(lo[0], hi[0], (500, 2))
        vals = net.value_batch(X)
        assert vlo[0] <= vals.min() and vals.max() <= vhi[0]
