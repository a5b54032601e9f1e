import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov import expr as ex
from zubov import interval as iv
from zubov import net as nn

from test_bit_identity import same_bits
from test_expr import random_expr, shared_expr


def _one_box(lo, hi):
    """(1, n) bound arrays of a single box."""
    return np.array([lo], dtype=float), np.array([hi], dtype=float)


def _finite_pair(lo, hi):
    """The floats of a one-box enclosure, which must be finite and ordered."""
    lo, hi = float(lo[0]), float(hi[0])
    assert np.isfinite(lo) and np.isfinite(hi) and lo <= hi
    return lo, hi


def _expr_encl(e, lo, hi):
    return _finite_pair(*iv.expr_interval_many(e, *_one_box(lo, hi)))


def _net_encl(net, lo, hi):
    return _finite_pair(*iv.net_interval_many(net, *_one_box(lo, hi))[:2])


class TestIntervalBox:
    def test_box_invariants(self):
        with pytest.raises(ValueError):
            iv.Box([0.0], [-1.0])
        b = iv.Box.from_bounds([[-1, 1], [0, 2]])
        assert b.dim == 2
        assert np.allclose(b.center, [0.0, 1.0])
        assert b.contains([0.5, 1.5]) and not b.contains([2.0, 1.0])

    def test_box_immutable(self):
        b = iv.Box([0.0], [1.0])
        with pytest.raises(ValueError):
            b.lo[0] = -1.0

    def test_corners(self):
        b = iv.Box.from_bounds([[0, 1], [2, 3]])
        corners = {tuple(c) for c in b.corners()}
        assert corners == {(0, 2), (0, 3), (1, 2), (1, 3)}


class TestExprInterval:
    def test_product_endpoints(self):
        e = ex.parse("x1*x2", 2)
        lo, hi = _expr_encl(e, [0, -1], [1, 1])
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert lo <= -1.0 <= 1.0 <= hi  # outward

    def test_natural_extension_overestimates(self):
        e = ex.parse("x1^2 - x1", 1)
        lo, hi = _expr_encl(e, [0.0], [1.0])
        # true range is [-0.25, 0]; the natural extension gives [-1, 1]
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_tanh_monotone_endpoints(self):
        lo, hi = _expr_encl(ex.parse("tanh(x1)", 1), [0.0], [1.0])
        assert lo <= 0.0 <= hi
        assert hi >= np.tanh(1.0)
        assert hi == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_division_by_zero_interval(self):
        with pytest.raises(ex.DomainError):
            _expr_encl(ex.parse("1/x1", 1), [-1.0], [1.0])

    def test_ln_domain(self):
        with pytest.raises(ex.DomainError):
            _expr_encl(ex.parse("ln(x1)", 1), [0.0], [1.0])

    def test_point_box_tight(self):
        e = ex.parse("x1^3 - 2*x1 + tanh(x1)", 1)
        lo, hi = _expr_encl(e, [0.7], [0.7])
        v = ex.evaluate(e, [0.7])
        assert lo <= v <= hi
        assert hi - lo <= 1e-13

    def test_randomized_soundness(self):
        rng = np.random.default_rng(77)
        trials = 0
        while trials < 300:
            e = random_expr(rng, 2, depth=4)
            lo = rng.uniform(-2, 1, size=2)
            hi = lo + rng.uniform(0, 2, size=2)
            X = rng.uniform(lo, hi, size=(25, 2))
            vals = ex.evaluate_many(e, X)
            if not np.all(np.isfinite(vals)):
                continue
            l, h = iv.expr_interval_many(e, lo[None, :], hi[None, :])
            assert np.all(vals >= l[0]) and np.all(vals <= h[0]), ex.to_str(e)
            trials += 1


class TestNetInterval:
    def test_point_box_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = nn.init_mlp([2, 8, 6, 1], rng)
            x = rng.uniform(-2, 2, size=2)
            lo, hi = _net_encl(net, x, x)
            v = net.value_batch(x[None, :])[0]
            assert lo <= v <= hi
            assert hi - lo <= 1e-11 * max(1.0, abs(v))

    def test_zero_net_on_any_box(self):
        net = nn.init_mlp([2, 5, 1], 0)
        for W in net.weights:
            W[:] = 0.0
        lo, hi = _net_encl(net, [-3, -5], [3, 5])
        assert abs(lo) <= 1e-12 and abs(hi) <= 1e-12

    def test_value_soundness_monte_carlo(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            net = nn.init_mlp([2, 7, 5, 1], rng)
            lo = rng.uniform(-2, 0, size=2)
            hi = lo + rng.uniform(0.01, 2, size=2)
            vlo, vhi = _net_encl(net, lo, hi)
            X = rng.uniform(lo, hi, size=(1000, 2))
            vals = net.value_batch(X)
            assert vals.min() >= vlo and vals.max() <= vhi

    def test_gradient_soundness_monte_carlo(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = nn.init_mlp([2, 6, 4, 1], rng)
            lo = rng.uniform(-2, 0, size=2)
            hi = lo + rng.uniform(0.01, 1.5, size=2)
            _, _, glo, ghi = iv.net_interval_many(net, *_one_box(lo, hi))
            X = rng.uniform(lo, hi, size=(500, 2))
            G = net.grad_batch(X)
            for i in range(2):
                gl, gh = _finite_pair(glo[:, i], ghi[:, i])
                assert G[:, i].min() >= gl
                assert G[:, i].max() <= gh

    def test_mean_value_tightens(self):
        rng = np.random.default_rng(8)
        net = nn.init_mlp([2, 8, 8, 1], rng)
        lo = np.array([0.3, -0.2])
        hi = np.array([0.5, 0.1])
        nat = iv._natural(net, lo[None, :], hi[None, :], 0)
        mv = iv.net_interval_many(net, lo[None, :], hi[None, :])
        assert mv[1][0] - mv[0][0] <= nat[1][0] - nat[0][0]

    def test_nonneg_product_is_kmul_bit_for_bit(self):
        # net_interval_many multiplies by tanh' in [0, 1] through kmul_nonneg
        rng = np.random.default_rng(9)
        sub = 3 * 2.0 ** -1074
        a = np.sort(rng.normal(size=(2, 400)) * 10.0 ** rng.integers(-300, 300, size=400),
                    axis=0)
        special = np.array([[0.0, -0.0, -0.0, 0.0, -sub, -sub, 0.0, -1.5, -sub],
                            [0.0, 0.0, -0.0, -0.0, sub, -0.0, sub, -0.0, 2.5]])
        alo = np.concatenate([a[0], special[0]])
        ahi = np.concatenate([a[1], special[1]])
        d = np.sort(rng.uniform(0.0, 1.0, size=(2, alo.size)), axis=0)
        for dlo, dhi in [d, (0.0 * d[0], 0.0 * d[1]), (0.0 * d[0], 1.0 + 0.0 * d[1]),
                         (1.0 + 0.0 * d[0], 1.0 + 0.0 * d[1]), (d[0], 1.0 + 0.0 * d[1]),
                         (np.full(alo.size, sub), d[1])]:
            got = iv.kmul_nonneg(dlo, dhi, alo, ahi)
            want = iv.kmul(dlo, dhi, alo, ahi)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _expr_cond(g_texts, h_text, dim):
    ants = tuple(iv.ExprFn(ex.parse(t, dim), dim) for t in g_texts)
    return iv.Condition(antecedents=ants, consequent=iv.ExprFn(ex.parse(h_text, dim), dim))


class TestBnb:
    def test_certified_simple(self):
        cond = _expr_cond(["x1^2 - 1"], "x1 - 2", 1)
        out = iv.bnb_verify(cond, iv.Box([-3.0], [3.0]), delta=1e-3)
        assert isinstance(out, iv.Certified)

    def test_falsified_with_witness(self):
        cond = _expr_cond(["x1^2 - 1"], "x1 - 0.5", 1)
        out = iv.bnb_verify(cond, iv.Box([-3.0], [3.0]), delta=1e-3)
        assert isinstance(out, iv.Falsified)
        w = out.witness
        assert w[0] ** 2 <= 1.0 and w[0] > 0.5
        assert out.margin > 0
        assert cond.holds_at(w) is False

    def test_boundary_tight_consequent(self):
        # non-strict consequent comparison keeps the tight case decidable
        cond = _expr_cond(["x1"], "x1", 1)
        out = iv.bnb_verify(cond, iv.Box([-1.0], [1.0]), delta=1e-3)
        assert isinstance(out, iv.Certified)

    def test_unknown_on_degenerate_equality(self):
        # antecedent feasible only at x = 0 where the consequent is tight:
        # interval reasoning can never discard, probing never violates
        cond = _expr_cond(["x1^2"], "x1", 1)
        out = iv.bnb_verify(cond, iv.Box([-1.0], [1.0]), delta=1e-3)
        assert isinstance(out, iv.Unknown)
        assert np.all(out.box.widths <= out.delta)

    def test_budget_exhausted_distinct(self):
        # true condition, tight at x = 0.5, needs ~30 split levels at this
        # delta; a budget of 5 boxes runs out first
        cond = _expr_cond(["x1^2 - 0.25"], "x1 - 0.5", 1)
        with pytest.raises(iv.BudgetExhausted):
            iv.bnb_verify(cond, iv.Box([-3.0], [3.0]), delta=1e-9, budget=5)

    def test_certified_survives_grid_attack(self):
        cond = _expr_cond(["x1^2 + x2^2 - 1"], "x1 - 1.2", 2)
        out = iv.bnb_verify(cond, iv.Box.from_bounds([[-2, 2], [-2, 2]]), delta=1e-2)
        assert isinstance(out, iv.Certified)
        g = np.linspace(-2, 2, 100)
        X = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        holds = np.array([cond.holds_at(x) for x in X])
        assert holds.all()

    def test_monotone_under_shrinking(self):
        cond = _expr_cond(["x1^2 - 1"], "x1 - 2", 1)
        for bounds in ([-3, 3], [-1, 1], [0, 0.5], [-2, -1.5]):
            out = iv.bnb_verify(cond, iv.Box([bounds[0]], [bounds[1]]), delta=1e-3)
            assert isinstance(out, iv.Certified)

    def test_two_antecedents(self):
        # the pair of constraints confines x to [1, 2]; tiny consequent slack
        # absorbs the outward rounding of x^2 at the tight corner x = 2
        cond = _expr_cond(["1 - x1", "x1 - 2"], "x1^2 - 4.000001", 1)
        out = iv.bnb_verify(cond, iv.Box([-5.0], [5.0]), delta=1e-3)
        assert isinstance(out, iv.Certified)

    def test_contraction_jumpstarts_certification(self):
        # HC4 shrinks [-3, 3] to [-1, 1] straight from the antecedent, so the
        # root box already decides
        cond = _expr_cond(["x1^2 - 1"], "x1 - 2", 1)
        out = iv.bnb_verify(cond, iv.Box([-3.0], [3.0]), delta=1e-3)
        assert out.boxes_processed == 1

    def test_hc4_soundness_randomized(self):
        rng = np.random.default_rng(123)
        trials = 0
        while trials < 200:
            e = random_expr(rng, 2, depth=4)
            lo = rng.uniform(-2, 1, size=(1, 2))
            hi = lo + rng.uniform(0.01, 2, size=(1, 2))
            X = rng.uniform(lo[0], hi[0], size=(300, 2))
            vals = ex.evaluate_many(e, X)
            feas = X[np.isfinite(vals) & (vals <= 0)]
            if not len(feas):
                continue
            lo2, hi2, empty = iv.hc4_contract(e, lo, hi)
            assert not empty[0], ex.to_str(e)
            assert np.all(feas >= lo2[0][None, :] - 1e-12), ex.to_str(e)
            assert np.all(feas <= hi2[0][None, :] + 1e-12), ex.to_str(e)
            trials += 1
        # repeated interior subtrees: a shared slot meets the projections of
        # all its parents before it projects onto its own arguments
        trials = 0
        while trials < 200:
            e = shared_expr(rng, 2, depth=3)
            lo = rng.uniform(-2, 1, size=(4, 2))
            hi = lo + rng.uniform(0.01, 2, size=(4, 2))
            lo2, hi2, empty = iv.hc4_contract(e, lo, hi)
            for b in range(4):
                X = rng.uniform(lo[b], hi[b], size=(300, 2))
                vals = ex.evaluate_many(e, X)
                feas = X[np.isfinite(vals) & (vals <= 0)]
                if not len(feas):
                    continue
                assert not empty[b], ex.to_str(e)
                assert np.all(feas >= lo2[b][None, :] - 1e-12), ex.to_str(e)
                assert np.all(feas <= hi2[b][None, :] + 1e-12), ex.to_str(e)
                trials += 1

    def test_net_condition(self):
        rng = np.random.default_rng(10)
        net = nn.init_mlp([1, 6, 1], rng)

        class NetFn(iv.ScalarFn):
            dim = 1

            def eval_points(self, X):
                return net.value_batch(X) - 5.0

            def eval_boxes(self, lo, hi):
                vlo, vhi = iv.net_interval_many(net, lo, hi)[:2]
                return vlo - 5.0, vhi - 5.0

        cond = iv.Condition(antecedents=(), consequent=NetFn())
        out = iv.bnb_verify(cond, iv.Box([-2.0], [2.0]), delta=1e-3)
        assert isinstance(out, iv.Certified)  # tanh nets stay well below 5

    def test_invalid_parameters(self):
        cond = _expr_cond([], "x1", 1)
        with pytest.raises(ValueError):
            iv.bnb_verify(cond, iv.Box([0.0], [1.0]), delta=0.0)
        with pytest.raises(ValueError, match="delta must be positive"):
            iv.bnb_verify(cond, iv.Box([0.0], [1.0]), delta=float("nan"))
        with pytest.raises(ValueError):
            iv.bnb_verify(cond, iv.Box([0.0], [1.0]), budget=0)


# every float64 but NaN, and the values the quotient is most delicate at
_floats = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
    .filter(lambda v: not math.isnan(v)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e300, 1.0]))


class TestKdivConst:
    @settings(max_examples=300, deadline=None)
    @given(p=_floats.filter(math.isfinite),
           pairs=st.lists(st.tuples(_floats, _floats), min_size=1, max_size=10))
    def test_is_kdiv_loose_bit_for_bit(self, p, pairs):
        # hc4_contract's range (vlo, vhi) is ordered, and the divisor a
        # finite point constant, which _kdiv_loose sees as [p, p]
        vlo, vhi = np.sort(np.array(pairs), axis=1).T.copy()
        with np.errstate(all="ignore"):
            got = iv._kdiv_const(vlo, vhi, p)
            want = iv._kdiv_loose(vlo, vhi, np.full(vlo.shape, p), np.full(vlo.shape, p))
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
