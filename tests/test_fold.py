"""Folded derivative trees and the printed linearization.

`ex.fold` removes products with a constant 0 or 1, additions and
subtractions of 0, x^1, negated constants, differences of equal constants
and 0 divided by a constant away from 0 from the Jacobian trees.  Each identity
holds for every real x, so the folded tree must be the same function:
equal point values wherever the tree's are finite, and interval
enclosures inside the tree's.  `linearize` builds its constants as plain
floats, so its trees print as text that `parse` reads back.
"""

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv

BUILTINS = [dyn.builtin(name) for name in dyn.BUILTIN_NAMES]
X0, X1 = ex.Var(0), ex.Var(1)
C = ex.Constant


def random_tree(rng, dim, depth):
    """A random tree over the whole grammar, rich in the constants 0, -0
    and 1 that folding removes."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.45:
            return ex.Var(int(rng.integers(dim)))
        if r < 0.75:
            return C(float(rng.choice([0.0, -0.0, 1.0, -1.0])))
        return C(float(np.round(rng.normal(0.0, 2.0), 2)))
    kind = int(rng.integers(10))
    sub = lambda: random_tree(rng, dim, depth - 1)   # noqa: E731
    if kind < 4:
        return (ex.Add, ex.Sub, ex.Mul, ex.Mul)[kind](sub(), sub())
    if kind == 4:
        return ex.Div(sub(), ex.Add(C(2.0), ex.IntPow(sub(), 2)))
    if kind == 5:
        return ex.Neg(sub())
    if kind == 6:
        return ex.IntPow(sub(), int(rng.integers(0, 4)))
    if kind == 7:
        return ex.Ln(ex.Add(C(1.5), ex.Tanh(sub())))
    return (ex.Tanh, ex.Exp)[kind - 8](sub())


def derivative_trees(seed, count):
    rng = np.random.default_rng(seed)
    return [ex.diff(random_tree(rng, 2, 4), int(rng.integers(2))) for _ in range(count)]


class TestRules:
    @pytest.mark.parametrize("tree, folded", [
        (ex.Mul(C(0.0), X0), C(0.0)), (ex.Mul(X0, C(-0.0)), C(0.0)),
        (ex.Mul(C(1.0), X0), X0), (ex.Mul(X0, C(1.0)), X0),
        (ex.Add(X0, C(0.0)), X0), (ex.Add(C(-0.0), X0), X0), (ex.Sub(X0, C(0.0)), X0),
        (ex.Sub(C(0.0), X0), ex.Neg(X0)), (ex.IntPow(X0, 1), X0), (ex.Neg(C(0.0)), C(0.0)),
        (ex.Neg(C(-0.0)), C(0.0)),
        (ex.Sub(C(1.0), ex.Add(ex.Mul(C(0.0), X1), ex.Mul(C(1.0), C(1.0)))), C(0.0)),
        # not identities: 0/x is undefined at x = 0, and x - x is kept
        (ex.Div(C(0.0), X0), ex.Div(C(0.0), X0)), (ex.Sub(X0, X0), ex.Sub(X0, X0)),
        (ex.IntPow(X0, 0), ex.IntPow(X0, 0)), (ex.Mul(C(-1.0), X0), ex.Mul(C(-1.0), X0)),
    ])
    def test_rule(self, tree, folded):
        assert ex.fold(tree) == folded

    @pytest.mark.parametrize("tree, folded", [
        # -c of a constant
        (ex.Neg(C(1.5)), C(-1.5)), (ex.Neg(ex.Neg(C(2.0))), C(2.0)),
        (ex.Sub(C(0.0), C(3.0)), C(-3.0)), (ex.Neg(X0), ex.Neg(X0)),
        # c - c of equal finite constants
        (ex.Sub(C(1.0), C(1.0)), C(0.0)), (ex.Sub(ex.Neg(C(1.0)), C(-1.0)), C(0.0)),
        (ex.Sub(C(np.inf), C(np.inf)), ex.Sub(C(np.inf), C(np.inf))),
        (ex.Sub(C(1.0), C(2.0)), ex.Sub(C(1.0), C(2.0))),
        (ex.Sub(X0, X0), ex.Sub(X0, X0)),
        # 0/e for e without variables whose enclosure excludes 0
        (ex.Div(C(0.0), ex.IntPow(C(3.0), 2)), C(0.0)),
        (ex.Div(C(-0.0), ex.Neg(ex.Exp(C(1.0)))), C(0.0)),
        (ex.Mul(ex.Div(C(0.0), ex.IntPow(C(3.0), 2)), ex.IntPow(X0, 3)), C(0.0)),
        (ex.Div(C(0.0), X0), ex.Div(C(0.0), X0)),
        (ex.Div(C(0.0), ex.Sub(C(1.0), ex.Tanh(C(0.5)))), C(0.0)),
        (ex.Div(C(0.0), ex.Sub(ex.Tanh(C(0.5)), ex.Tanh(C(0.5)))),
         ex.Div(C(0.0), ex.Sub(ex.Tanh(C(0.5)), ex.Tanh(C(0.5))))),
        (ex.Div(C(0.0), ex.Ln(C(-1.0))), ex.Div(C(0.0), ex.Ln(C(-1.0)))),
        (ex.Div(C(1.0), C(3.0)), ex.Div(C(1.0), C(3.0))),
    ])
    def test_constant_rule(self, tree, folded):
        assert ex.fold(tree) == folded

    @pytest.mark.parametrize("name, before, after", [
        ("poly2d", ["0.0", "1.0 - 1.0", "-2.0 + (0.0/3.0^2*x1^3 + 1.0/3.0*(3.0*x1^2)) - -2.0",
                    "0.0/3.0^2*x1^3 - 1.0 - -1.0"],
         ["0.0", "0.0", "-2.0 + 1.0/3.0*(3.0*x1^2) - -2.0", "0.0"]),
        ("reversed_vdp", ["0.0", "-1.0 - -1.0", "1.0 - -(2.0*x1)*x2 - 1.0",
                          "-(1.0 - x1^2) - -1.0"],
         ["0.0", "0.0", "1.0 - -(2.0*x1)*x2 - 1.0", "-(1.0 - x1^2) - -1.0"]),
    ])
    def test_dead_constant_arithmetic_leaves_dg(self, name, before, after):
        lin = dyn.builtin(name).linearization
        assert [ex.to_str(e) for row in lin.dg for e in row] == after
        for text, want in zip(before, after):
            assert ex.to_str(ex.fold(ex.parse(text, 2))) == want

    def test_diff_stays_unreduced(self):
        d = ex.diff(ex.Mul(C(2.0), X0), 0)
        assert d == ex.Add(ex.Mul(C(0.0), X0), ex.Mul(C(2.0), C(1.0)))
        assert ex.fold(d) == C(2.0)


class TestSameFunction:
    TREES = derivative_trees(41, 1000)

    def test_point_values_equal_where_finite(self):
        rng = np.random.default_rng(42)
        X = np.vstack([rng.uniform(-2.0, 2.0, size=(30, 2)), [[0.0, -0.0], [-0.0, 1.0]]])
        changed = 0
        for e in self.TREES:
            f = ex.fold(e)
            changed += f != e
            with np.errstate(all="ignore"):
                ref, got = ex.evaluate_many(e, X), ex.evaluate_many(f, X)
            fin = np.isfinite(ref)
            assert np.all(got[fin] == ref[fin]), ex.to_str(e)
        assert changed > 700

    def test_enclosures_lie_inside(self):
        rng = np.random.default_rng(43)
        lo = rng.uniform(-2.0, 1.5, size=(12, 2))
        hi = lo + rng.choice([0.0, 0.01, 0.5, 2.0], size=(12, 2))
        lo[0] = -0.0
        checked = 0
        for e in self.TREES:
            try:
                with np.errstate(all="ignore"):
                    rlo, rhi = iv.expr_interval_many(e, lo, hi)
            except ex.DomainError:
                continue
            with np.errstate(all="ignore"):
                flo, fhi = iv.expr_interval_many(ex.fold(e), lo, hi)
            fin = np.isfinite(rlo) & np.isfinite(rhi)
            assert np.all(rlo[fin] <= flo[fin]) and np.all(fhi[fin] <= rhi[fin]), ex.to_str(e)
            checked += 1
        assert checked > 900

    def test_idempotent(self):
        for e in self.TREES:
            f = ex.fold(e)
            assert ex.fold(f) == f, ex.to_str(e)


class TestTapes:
    def test_reversed_vdp_slots(self):
        vdp = dyn.builtin("reversed_vdp")
        assert len(vdp.linearization.dg_tape.slots) <= 17
        assert len(vdp.field.jacobian_tape.slots) <= 13

    @pytest.mark.parametrize("sys", BUILTINS, ids=dyn.BUILTIN_NAMES)
    def test_jacobian_entries_are_folded(self, sys):
        for tree in (sys.field.jacobian_exprs(), sys.linearization.dg):
            for e in (e for row in tree for e in row):
                assert ex.fold(e) == e


class TestPrintedLinearization:
    @pytest.mark.parametrize("sys", BUILTINS, ids=dyn.BUILTIN_NAMES)
    def test_g_and_dg_round_trip_through_parse(self, sys):
        lin = sys.linearization
        n = sys.dim
        X = np.random.default_rng(44).uniform(-3.0, 3.0, size=(50, n))
        X[0] = 0.0
        for e in list(lin.g.components) + [e for row in lin.dg for e in row]:
            text = ex.to_str(e)
            assert "np." not in text
            back = ex.evaluate_many(ex.parse(text, n), X)
            assert np.array_equal(back.view(np.int64), ex.evaluate_many(e, X).view(np.int64)), text
