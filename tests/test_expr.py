import dataclasses

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv


def values(e, X):
    """``e`` over the points X, (K,), through its one-output tape."""
    return ex.evaluate_many(ex.compile([e]), X)[0]


def enclosure(e, lo, hi):
    """The (lo, hi) enclosure of ``e`` over (K, n) boxes, through its one-output tape."""
    return iv.expr_interval_many(ex.compile([e]), lo, hi)[0]


def vdp_field():
    return ex.VectorField(2, (ex.parse("-x2", 2), ex.parse("x1 - (1 - x1^2)*x2", 2)))


def at(e, x):
    """``e`` at the one point ``x``, as a one-row batch."""
    return float(values(e, np.array([x], dtype=float))[0])


class TestParse:
    def test_single_token_negation(self):
        assert ex.parse("-x2", 2) == ex.Neg(ex.Var(1))

    def test_vdp_second_component(self):
        e = ex.parse("x1 - (1 - x1^2)*x2", 2)
        expect = ex.Sub(ex.Var(0),
                        ex.Mul(ex.Sub(ex.Constant(1.0), ex.IntPow(ex.Var(0), 2)),
                               ex.Var(1)))
        assert e == expect

    def test_poly_second_component(self):
        e = ex.parse("-2*x1 + (1/3)*x1^3 - x2", 2)
        # evaluation is the contract; structure may associate differently
        for x1, x2 in [(0.0, 0.0), (1.0, 2.0), (-1.5, 0.25), (3.0, -7.0)]:
            assert at(e, (x1, x2)) == pytest.approx(
                -2 * x1 + x1 ** 3 / 3 - x2, rel=1e-15, abs=1e-15)

    def test_precedence_pow_tighter_than_mul(self):
        e = ex.parse("2*x1^3", 1)
        assert at(e, (2.0,)) == 16.0

    def test_unary_minus_binds_looser_than_pow(self):
        assert at(ex.parse("-x1^2", 1), (3.0,)) == -9.0

    def test_whitespace_insignificant(self):
        a = ex.parse("x1-(1-x1^2)*x2", 2)
        b = ex.parse("  x1 -  ( 1 - x1 ^ 2 ) * x2 ", 2)
        assert a == b

    def test_functions(self):
        assert at(ex.parse("tanh(0)", 1), (0.0,)) == 0.0
        assert at(ex.parse("exp(0)", 1), (0.0,)) == 1.0
        assert at(ex.parse("ln(exp(1))", 1), (0.0,)) == pytest.approx(1.0)

    def test_scientific_literals(self):
        assert at(ex.parse("1.5e-3 + 2E2", 1), (0.0,)) == pytest.approx(200.0015)

    @pytest.mark.parametrize("bad", ["x1 +", "(x1", "x1 ** 2", "sin(x1)", "1..2",
                                     "x1 ^ x1", "x1 ^ 2.5", "x1 ^ -1", ""])
    def test_malformed_raises_with_position(self, bad):
        with pytest.raises(ex.ParseError) as info:
            ex.parse(bad, 2)
        assert info.value.position >= 0

    def test_variable_beyond_dim(self):
        with pytest.raises(IndexError):
            ex.parse("x3", 2)

    # (text, offset of the offending token): the reported position lies in
    # the original text, at or before that token
    @pytest.mark.parametrize("bad, at", [
        ("x1^2^3", 4), ("0x10", 0), ("1_0", 0), ("1j", 0), ("True", 0), ("x1 % 2", 3),
        ("x1 < x2", 3), ("tanh(x1, x2)", 7), ("tanh(x=x1)", 6), ("x1.real", 2),
        ("x1[0]", 2), ("(x1, x2)", 3), ("\uff581", 0), ("x1 ** 2", 3), ("x1 // 2", 3),
        ("x1 if x2 else x1", 3), ("x1 # note", 3), ("x1)+(x2", 2), ("  x1 ^ x2", 7),
    ])
    def test_rejects_python_only_syntax(self, bad, at):
        with pytest.raises(ex.ParseError) as info:
            ex.parse(bad, 2)
        assert 0 <= info.value.position <= at

    def test_chained_power_asks_for_parentheses(self):
        with pytest.raises(ex.ParseError, match=r"\(a\^b\)\^c"):
            ex.parse("x1^2^3", 1)
        assert ex.parse("(x1^2)^3", 1) == ex.IntPow(ex.IntPow(ex.Var(0), 2), 3)

    def test_leading_whitespace_tabs_and_newlines(self):
        assert ex.parse("\t x1\n+ x2 ", 2) == ex.Add(ex.Var(0), ex.Var(1))

    def test_builtin_components(self):
        x1, x2 = ex.Var(0), ex.Var(1)
        one, two, three = ex.Constant(1.0), ex.Constant(2.0), ex.Constant(3.0)
        expect = {
            "cubic1d": (ex.Add(ex.Neg(x1), ex.IntPow(x1, 3)),),
            "reversed_vdp": (ex.Neg(x2), ex.Sub(x1, ex.Mul(ex.Sub(one, ex.IntPow(x1, 2)), x2))),
            "poly2d": (x2, ex.Sub(ex.Add(ex.Mul(ex.Neg(two), x1),
                                         ex.Mul(ex.Div(one, three), ex.IntPow(x1, 3))), x2)),
        }
        assert set(expect) == set(dyn.BUILTIN_NAMES)
        for name, comps in expect.items():
            assert dyn.builtin(name).field.components == comps


class TestEval:
    def test_vdp_equilibrium(self):
        assert np.allclose(vdp_field().eval_many(np.zeros((1, 2))), [[0.0, 0.0]])

    def test_vdp_at_ones(self):
        # second component: 1 - (1 - 1)*1 = 1
        assert np.allclose(vdp_field().eval_many(np.ones((1, 2))), [[-1.0, 1.0]])

    def test_batched_matches_scalar(self):
        e = ex.parse("tanh(x1*x2) + exp(-x1^2) - x2/(2 + x1^2)", 2)
        X = np.random.default_rng(0).normal(size=(40, 2))
        batch = values(e, X)
        single = [at(e, row) for row in X]
        assert np.allclose(batch, single, rtol=0, atol=0)


class TestDiff:
    def test_var_self(self):
        assert ex.diff(ex.Var(0), 0) == ex.Constant(1.0)

    def test_constant_derivative_zero(self):
        for i in range(3):
            assert ex.diff(ex.Constant(4.2), i) == ex.Constant(0.0)

    def test_vdp_jacobian_at_origin(self):
        f = vdp_field()
        jac = f.jacobian_exprs()
        A = [[at(jac[i][j], (0.0, 0.0)) for j in range(2)] for i in range(2)]
        assert np.allclose(A, [[0, -1], [1, -1]])

    def test_poly_jacobian_at_origin(self):
        f = ex.VectorField(2, (ex.parse("x2", 2),
                               ex.parse("-2*x1 + (1/3)*x1^3 - x2", 2)))
        jac = f.jacobian_exprs()
        A = [[at(jac[i][j], (0.0, 0.0)) for j in range(2)] for i in range(2)]
        assert np.allclose(A, [[0, 1], [-2, -1]])


def random_expr(rng, dim, depth):
    """Random tree over safe ops (no Div/Ln to keep all points evaluable)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.Var(int(rng.integers(dim)))
        return ex.Constant(float(np.round(rng.normal(), 3)))
    kind = rng.integers(6)
    if kind == 0:
        return ex.Add(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if kind == 1:
        return ex.Sub(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if kind == 2:
        return ex.Mul(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1))
    if kind == 3:
        return ex.Neg(random_expr(rng, dim, depth - 1))
    if kind == 4:
        return ex.IntPow(random_expr(rng, dim, depth - 1), int(rng.integers(0, 4)))
    return ex.Tanh(random_expr(rng, dim, depth - 1))


def shared_expr(rng, dim, depth):
    """Random tree that repeats interior subtrees, both as one object and
    as equal copies, so that its tape shares interior slots."""
    a = ex.Tanh(random_expr(rng, dim, depth - 1))
    b = ex.Mul(random_expr(rng, dim, depth - 1), ex.Var(int(rng.integers(dim))))
    parts = [a, b, ex.Mul(b.left, b.right), ex.Sub(a, b), ex.IntPow(a, 2)]

    def grow(d):
        if d == 0:
            return parts[int(rng.integers(len(parts)))]
        op = (ex.Add, ex.Sub, ex.Mul)[int(rng.integers(3))]
        return op(grow(d - 1), grow(d - 1))

    return grow(2)


class TestProperties:
    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        dim = 2
        checked = 0
        while checked < 1000:
            e = random_expr(rng, dim, depth=4)
            i = int(rng.integers(dim))
            de = ex.diff(e, i)
            x = rng.uniform(-1.5, 1.5, size=dim)
            h = 1e-5 * (abs(x[i]) + 1.0)
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (at(e, xp) - at(e, xm)) / (2 * h)
            an = at(de, x)
            if not (np.isfinite(fd) and np.isfinite(an)):
                continue
            scale = max(1.0, abs(an), abs(fd))
            assert abs(fd - an) <= 1e-5 * scale, f"{ex.to_str(e)} d/dx{i+1} at {x}"
            checked += 1

    def test_print_parse_roundtrip(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            e = random_expr(rng, 3, depth=4)
            text = ex.to_str(e)
            back = ex.parse(text, 3)
            X = rng.uniform(-2, 2, size=(10, 3))
            a = values(e, X)
            b = values(back, X)
            finite = np.isfinite(a)
            # exact double equality on the evaluable points
            assert np.array_equal(a[finite], b[finite]), text


def _nonneg(e):
    """``e`` with every constant replaced by its absolute value."""
    if isinstance(e, ex.Constant):
        return ex.Constant(abs(e.value))
    return dataclasses.replace(e, **{f.name: _nonneg(getattr(e, f.name))
                                     for f in dataclasses.fields(e)
                                     if f.name in ("left", "right", "arg", "base")})


def test_print_parse_roundtrip_is_structural():
    # a negative constant prints with a leading minus and reads back as Neg,
    # so the trees here have non-negative constants
    rng = np.random.default_rng(99)
    for _ in range(3000):
        e = _nonneg(random_expr(rng, 3, depth=5))
        assert ex.parse(ex.to_str(e), 3) == e, ex.to_str(e)


class TestVectorField:
    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            ex.VectorField(2, (ex.Var(0),))

    def test_var_bound_enforced(self):
        with pytest.raises(IndexError):
            ex.VectorField(1, (ex.Var(1),))

    def test_immutable(self):
        f = vdp_field()
        with pytest.raises(AttributeError):
            f.dim = 3
