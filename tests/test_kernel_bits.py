"""The certificate path's kernels against frozen copies of their straightforward forms.

The references below multiply the first layer's weights by the identity
Jacobian box by box, form every Hessian product per box, make both
product pairs of `kaffine` for degenerate boxes, make both products of
`kmul_nonneg` before choosing, return fresh arrays from `_down`/`_up`
and accumulate (P Dg)_ij entry by entry.  The package's versions skip
that work; they must give the same bits, including the signs of zeros,
infinities and NaNs.
"""

import math

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv
from zubov import net as nn
from zubov import verify as vf

_EPS = np.finfo(np.float64).eps
_MAX = np.finfo(np.float64).max
_TINY = math.ldexp(1.0, -1074)
_REL = (1.0 + 2.0 ** -20) * _EPS


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

def ref_down(a, ulps):
    m = np.minimum(a, _MAX)
    s = np.abs(m)
    s *= ulps * _REL
    s += ulps * _TINY
    return m - s


def ref_up(a, ulps):
    m = np.maximum(a, -_MAX)
    s = np.abs(m)
    s *= ulps * _REL
    s += ulps * _TINY
    return m + s


def ref_widen(lo, hi, ulps=1):
    return ref_down(lo, ulps), ref_up(hi, ulps)


def ref_kadd(alo, ahi, blo, bhi):
    return ref_widen(alo + blo, ahi + bhi)


def ref_ksub(alo, ahi, blo, bhi):
    return ref_widen(alo - bhi, ahi - blo)


def ref_kmul(alo, ahi, blo, bhi):
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return ref_widen(lo, hi)


def ref_kmul_nonneg(dlo, dhi, alo, ahi):
    lo = np.where(alo >= 0.0, dlo * alo, dhi * alo)
    hi = np.where(ahi >= 0.0, dhi * ahi, dlo * ahi)
    return ref_widen(lo, hi)


def ref_kscale(c, alo, ahi):
    if c >= 0:
        return ref_widen(c * alo, c * ahi)
    return ref_widen(c * ahi, c * alo)


def ref_kdiv(alo, ahi, blo, bhi):
    q1, q2, q3, q4 = alo / blo, alo / bhi, ahi / blo, ahi / bhi
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    return ref_widen(lo, hi)


def ref_kpow(alo, ahi, n):
    if n == 0:
        return np.ones_like(alo), np.ones_like(ahi)
    if n == 1:
        return alo.copy(), ahi.copy()
    pl, ph = alo ** n, ahi ** n
    if n % 2 == 1:
        return ref_widen(pl, ph, 4)
    lo = np.where((alo <= 0.0) & (ahi >= 0.0), 0.0, np.minimum(pl, ph))
    hi = np.maximum(pl, ph)
    lo2, hi2 = ref_widen(lo, hi, 4)
    return np.maximum(lo2, 0.0), hi2


def ref_ktanh(alo, ahi):
    lo, hi = ref_widen(np.tanh(alo), np.tanh(ahi), 4)
    return np.maximum(lo, -1.0), np.minimum(hi, 1.0)


def ref_ksqrt(alo, ahi):
    lo, hi = ref_widen(np.sqrt(np.maximum(alo, 0.0)), np.sqrt(np.maximum(ahi, 0.0)))
    return np.maximum(lo, 0.0), hi


def ref_kintersect(alo, ahi, blo, bhi):
    ilo = np.maximum(alo, blo)
    ihi = np.minimum(ahi, bhi)
    bad = ilo > ihi
    if np.any(bad):
        ilo[bad] = np.minimum(alo[bad], blo[bad])
        ihi[bad] = np.maximum(ahi[bad], bhi[bad])
    return ilo, ihi


def ref_dot_err(absmax_sum, k_terms):
    return (2 * k_terms + 4) * _EPS * absmax_sum + 1e-300


def ref_kaffine(W, b, alo, ahi):
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    lo = alo @ Wp.T + ahi @ Wn.T
    hi = ahi @ Wp.T + alo @ Wn.T
    if b is not None:
        lo = lo + b
        hi = hi + b
    absmax = np.maximum(np.abs(alo), np.abs(ahi))
    err = ref_dot_err(absmax @ np.abs(W).T + (np.abs(b) if b is not None else 0.0), W.shape[1])
    return lo - err, hi + err


def ref_kmatmul_interval(W, jlo, jhi):
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    lo = Wp @ jlo + Wn @ jhi
    hi = Wp @ jhi + Wn @ jlo
    absmax = np.maximum(np.abs(jlo), np.abs(jhi))
    err = ref_dot_err(np.abs(W) @ absmax, W.shape[1])
    return lo - err, hi + err


def ref_hessian_layer(W, alo, ahi, dlo, dhi, mlo, mhi, cols):
    slo, shi = ref_kscale(-2.0, alo, ahi)
    out = []
    for c, (p, q) in enumerate(zip(*np.triu_indices(mlo.shape[2]))):
        if p == q:
            olo, ohi = ref_kpow(mlo[:, :, p], mhi[:, :, p], 2)
        else:
            olo, ohi = ref_kmul(mlo[:, :, p], mhi[:, :, p], mlo[:, :, q], mhi[:, :, q])
        olo, ohi = ref_kmul(slo, shi, olo, ohi)
        if cols is not None:
            olo, ohi = ref_kadd(olo, ohi, *ref_kaffine(W, None, *cols[c]))
        out.append(ref_kmul_nonneg(dlo, dhi, olo, ohi))
    return out


def ref_natural(net, lo, hi, order):
    n_in = lo.shape[1]
    alo, ahi = lo, hi
    if order:
        eye = np.broadcast_to(np.eye(n_in), (lo.shape[0], n_in, n_in)).copy()
        jlo, jhi = eye, eye.copy()
    cols = None
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        alo, ahi = ref_kaffine(W, b, alo, ahi)
        if i == last:
            break
        alo, ahi = ref_ktanh(alo, ahi)
        if order:
            mlo, mhi = ref_kmatmul_interval(W, jlo, jhi)
            s2lo, s2hi = ref_kpow(alo, ahi, 2)
            dlo = np.clip(ref_down(1.0 - s2hi, 1), 0.0, 1.0)
            dhi = np.clip(ref_up(1.0 - s2lo, 1), 0.0, 1.0)
            if order == 2:
                cols = ref_hessian_layer(W, alo, ahi, dlo, dhi, mlo, mhi, cols)
            jlo, jhi = ref_kmul_nonneg(dlo[:, :, None], dhi[:, :, None], mlo, mhi)
    out = (alo[:, 0], ahi[:, 0])
    if order:
        jlo, jhi = ref_kmatmul_interval(net.weights[-1], jlo, jhi)
        out += (jlo[:, 0, :], jhi[:, 0, :])
    if order == 2 and cols is None:
        h = np.zeros((lo.shape[0], n_in * (n_in + 1) // 2))
        out += (h, h.copy())
    elif order == 2:
        h = [ref_kaffine(net.weights[-1], None, *c) for c in cols]
        out += (np.concatenate([o[0] for o in h], axis=1),
                np.concatenate([o[1] for o in h], axis=1))
    return out


def ref_net_interval_many(net, lo, hi, want_hess=False):
    n_in = lo.shape[1]
    vlo, vhi, glo, ghi, *hess = ref_natural(net, lo, hi, 2 if want_hess else 1)
    c = 0.5 * (lo + hi)
    fc_lo, fc_hi, *grad_c = ref_natural(net, c, c, 1 if want_hess else 0)
    rad = ref_up(np.maximum(hi - c, c - lo), 1)
    mag = np.maximum(np.abs(glo), np.abs(ghi))
    spread = (mag * rad).sum(axis=1)
    spread = spread + ref_dot_err(spread, n_in)
    vlo, vhi = ref_kintersect(vlo, vhi, ref_down(fc_lo - spread, 1), ref_up(fc_hi + spread, 1))
    return (vlo, vhi, glo, ghi, *grad_c, *hess)


_REF_OPS = {
    ex.ADD: lambda k, a, b: ref_kadd(*a, *b),
    ex.SUB: lambda k, a, b: ref_ksub(*a, *b),
    ex.MUL: lambda k, a, b: ref_kmul(*a, *b),
    ex.DIV: lambda k, a, b: ref_kdiv(*a, *b),
    ex.NEG: lambda k, a: (-a[1], -a[0]),
    ex.POW: lambda k, a: ref_kpow(*a, k),
}


def ref_segment_norm(fn: vf.SegmentNormFn, lo, hi):
    """`SegmentNormFn.eval_boxes` with (P Dg)_ij accumulated entry by entry."""
    lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
    n = len(fn.P)
    st = fn.dg_tape.run(lambda op, k: (np.full(lo.shape[0], k), np.full(lo.shape[0], k))
                        if op == ex.CONST else (lo[:, k].copy(), hi[:, k].copy()), _REF_OPS)
    dg = [st[s] for s in fn.dg_tape.outputs]
    mlo = np.empty((n, n, lo.shape[0]))
    mhi = np.empty_like(mlo)
    for i in range(n):
        for j in range(n):
            alo = np.zeros(lo.shape[0])
            ahi = np.zeros(lo.shape[0])
            for k in range(n):
                alo, ahi = ref_kadd(alo, ahi, *ref_kscale(fn.P[i, k], *dg[k * n + j]))
            mlo[i, j], mhi[i, j] = alo, ahi
    if n == 2:
        sq = {(i, j): ref_kpow(mlo[i, j], mhi[i, j], 2) for i in range(2) for j in range(2)}
        p = ref_kadd(*sq[(0, 0)], *sq[(1, 0)])
        s = ref_kadd(*sq[(0, 1)], *sq[(1, 1)])
        q = ref_kadd(*ref_kmul(mlo[0, 0], mhi[0, 0], mlo[0, 1], mhi[0, 1]),
                     *ref_kmul(mlo[1, 0], mhi[1, 0], mlo[1, 1], mhi[1, 1]))
        tr = ref_kadd(*p, *s)
        dif = ref_ksub(*p, *s)
        disc = ref_kadd(*ref_kpow(*dif, 2), *ref_kscale(4.0, *ref_kpow(*q, 2)))
        lam = ref_kscale(0.5, *ref_kadd(*tr, *ref_ksqrt(*disc)))
        sq_lo, sq_hi = np.maximum(lam[0], 0.0), np.minimum(lam[1], tr[1])
    else:
        sq_lo = np.zeros(lo.shape[0])
        sq_hi = sq_lo.copy()
        for i in range(n):
            for j in range(n):
                sq_lo, sq_hi = ref_kadd(sq_lo, sq_hi, *ref_kpow(mlo[i, j], mhi[i, j], 2))
    nlo, nhi = ref_ksqrt(sq_lo, sq_hi)
    return ref_ksub(*ref_kscale(2.0, nlo, nhi), fn.r, fn.r)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, _TINY, -_TINY, _MAX, -_MAX,
                     1.0, -1.0, 1e-310, -1e300, 2.5, -0.75])


def random_net(rng, n, hidden):
    sizes = (n, *hidden, 1)
    weights = [rng.normal(0.0, rng.choice([0.3, 1.0, 5.0]), size=(o, i))
               for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.normal(0.0, 0.5, size=o) for o in sizes[1:]]
    for W in weights:   # signed zeros among the weights
        W[rng.random(W.shape) < 0.1] = rng.choice([0.0, -0.0])
    return nn.Mlp(sizes, weights, biases)


def random_boxes(rng, n, K):
    lo = rng.uniform(-3.0, 3.0, size=(K, n))
    hi = lo + rng.choice([0.0, 1e-6, 0.1, 2.0], size=(K, n))
    lo[rng.random((K, n)) < 0.1] = -0.0
    hi[0] = lo[0]   # one degenerate row among the boxes
    return lo, np.maximum(lo, hi)


NETS = [(n, hidden) for n in (1, 2, 3)
        for hidden in ((), (1,), (12,), (5, 3), (7, 1, 4), (2, 12, 6))]


class TestNetIntervalMany:
    @pytest.mark.parametrize("n, hidden", NETS)
    @pytest.mark.parametrize("want_hess", [False, True])
    def test_matches_reference(self, n, hidden, want_hess):
        rng = np.random.default_rng(1000 * n + 10 * len(hidden) + want_hess)
        for _ in range(6):
            net = random_net(rng, n, hidden)
            lo, hi = random_boxes(rng, n, int(rng.integers(1, 40)))
            got = iv.net_interval_many(net, lo, hi, want_hess=want_hess)
            ref = ref_net_interval_many(net, lo, hi, want_hess=want_hess)
            assert len(got) == len(ref)
            assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("n, hidden", NETS)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_degenerate_boxes_one_array_and_copies(self, n, hidden, order):
        """The midpoint pass gives one array for both bounds, equal copies
        give two; `kaffine` runs one path for both.  Both match the
        reference."""
        rng = np.random.default_rng(7 * n + len(hidden) + 100 * order)
        net = random_net(rng, n, hidden)
        x = rng.uniform(-3.0, 3.0, size=(9, n))
        x[0] = -0.0
        x[1] = 0.0
        ref = ref_natural(net, x, x.copy(), order)
        for lo, hi in ((x, x), (x, x.copy())):
            got = iv._natural(net, lo, hi, order)
            assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("n, hidden", [(2, (4,)), (3, (3, 5)), (1, ())])
    def test_non_finite_bounds(self, n, hidden):
        rng = np.random.default_rng(5)
        net = random_net(rng, n, hidden)
        lo, hi = random_boxes(rng, n, 12)
        lo[2, 0], hi[3, -1] = -np.inf, np.inf
        lo[4], hi[4] = -np.inf, np.inf
        with np.errstate(all="ignore"):
            got = iv.net_interval_many(net, lo, hi, want_hess=True)
            ref = ref_net_interval_many(net, lo, hi, want_hess=True)
            assert all(same_bits(g, r) for g, r in zip(got, ref))
            x = np.array([[np.inf] * n, [-np.inf] * n, [0.0] * n])
            for lo, hi in ((x, x), (x, x.copy())):
                got = iv._natural(net, lo, hi, 1)
                assert all(same_bits(g, r) for g, r in zip(got, ref_natural(net, x, x, 1)))


class TestKernels:
    def test_kmul_nonneg(self):
        rng = np.random.default_rng(11)
        a = np.concatenate([SPECIALS, rng.normal(0.0, 10.0, 200)])
        d = np.concatenate([[0.0, -0.0, np.inf, _TINY, 1.0, _MAX], rng.uniform(0.0, 2.0, 200)])
        alo, ahi = np.meshgrid(a, a)
        keep = alo <= ahi
        alo, ahi = alo[keep], ahi[keep]
        dlo = rng.choice(d, alo.shape)
        dhi = np.maximum(dlo, rng.choice(d, alo.shape))
        with np.errstate(invalid="ignore", over="ignore"):
            got = iv.kmul_nonneg(dlo, dhi, alo, ahi)
            ref = ref_kmul_nonneg(dlo, dhi, alo, ahi)
        assert all(same_bits(g, r) for g, r in zip(got, ref))
        # broadcast as the network pass uses it: (K, h, 1) against (1, h, n)
        d3 = rng.uniform(0.0, 1.0, size=(5, 4, 1))
        m = rng.normal(size=(1, 4, 3))
        got = iv.kmul_nonneg(d3, d3 + 0.5, m - 0.1, m)
        ref = ref_kmul_nonneg(d3, d3 + 0.5, m - 0.1, m)
        assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("ulps", [1, 4])
    def test_down_up_match_and_leave_input_alone(self, ulps):
        rng = np.random.default_rng(12)
        a = np.concatenate([SPECIALS, [np.nan], rng.normal(0.0, 1e3, 300),
                            rng.uniform(-1e-300, 1e-300, 50)])
        for x in (a, a.reshape(-1, 5), a[::3]):
            keep = x.copy()
            for f, ref in ((iv._down, ref_down), (iv._up, ref_up)):
                with np.errstate(over="ignore"):
                    out, want = f(x, ulps), ref(x, ulps)
                assert same_bits(out, want)
                assert out is not x
                assert same_bits(x, keep)
        for v in (0.0, -0.0, 1.5, -np.inf, np.float64(2.0), np.array(-3.0)):
            assert same_bits(iv._down(v, ulps), ref_down(v, ulps))
            assert same_bits(iv._up(v, ulps), ref_up(v, ulps))


def random_P(rng, n):
    """Not symmetric, so that a transposed P shows."""
    P = rng.normal(size=(n, n))
    P[rng.random((n, n)) < 0.2] = rng.choice([0.0, -0.0])
    return P


class TestSegmentNorm:
    SYSTEMS = [dyn.builtin(name) for name in dyn.BUILTIN_NAMES] + [
        dyn.make_system("cubic3d", 3, ["-x1 + x2*x3", "-x2 + x1^2", "-2*x3 + x1*x2^2"],
                        [[-2, 2], [-2, 2], [-2, 2]])]

    @pytest.mark.parametrize("sys", SYSTEMS, ids=lambda s: s.name)
    def test_eval_boxes_matches_reference(self, sys):
        rng = np.random.default_rng(13)
        n = sys.dim
        for trial in range(5):
            P = random_P(rng, n) if trial else dyn.solve_lyapunov(sys.linearization.A)
            fn = vf.SegmentNormFn(sys.linearization, P, 0.5)
            lo, hi = random_boxes(rng, n, 30)
            got = fn.eval_boxes(lo, hi)
            ref = ref_segment_norm(fn, lo, hi)
            assert all(same_bits(g, r) for g, r in zip(got, ref))

    def test_array_kscale_is_scalar_kscale(self):
        rng = np.random.default_rng(14)
        c = np.concatenate([[0.0, -0.0, 3.0, -2.0], rng.normal(size=4)])[:, None]
        alo = np.concatenate([SPECIALS[:2], rng.normal(size=6)])
        ahi = alo + rng.uniform(0.0, 1.0, alo.shape)
        got = iv.kscale(c, alo, ahi)
        for i, ci in enumerate(c[:, 0]):
            ref = ref_kscale(ci, alo, ahi)
            assert same_bits(got[0][i], ref[0]) and same_bits(got[1][i], ref[1])
