"""The compiled tape against the tree walks it replaced.

The reference walkers below evaluate an expression tree recursively,
node by node, as the evaluators did before `ex.compile`.  Every
evaluator over the tape must give the same floats bit for bit: the same
operations on the same operands, with a shared slot evaluated once.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv

from test_expr import random_expr, shared_expr

BUILTINS = [dyn.builtin(name) for name in dyn.BUILTIN_NAMES]

# defined everywhere, so that their interval extensions never raise
PARSED = ["x1/(2 + x2^2)", "ln(2 + x1^2) - exp(-x2)", "-(x1 - x2)^3/(1 + tanh(x1)^2)",
          "exp(x1*x2) - exp(x1*x2)*x1", "0*x1 + -0*x2"]

# ---------------------------------------------------------------------------
# Reference tree walkers
# ---------------------------------------------------------------------------

_POINT = {ex.Add: lambda a, b: a + b, ex.Sub: lambda a, b: a - b,
          ex.Mul: lambda a, b: a * b, ex.Div: lambda a, b: a / b,
          ex.Neg: lambda a: -a, ex.Tanh: np.tanh, ex.Exp: np.exp, ex.Ln: np.log}
_KERNEL = {ex.Add: iv.kadd, ex.Sub: iv.ksub, ex.Mul: iv.kmul, ex.Div: iv.kdiv,
           ex.Neg: iv.kneg, ex.Tanh: iv.ktanh, ex.Exp: iv.kexp, ex.Ln: iv.kln}


def ref_points(e, X):
    if isinstance(e, ex.Constant):
        return np.full(X.shape[0], e.value)
    if isinstance(e, ex.Var):
        return X[:, e.index].astype(float, copy=True)
    if isinstance(e, ex.IntPow):
        return ref_points(e.base, X) ** e.exponent
    args = [e.left, e.right] if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)) else [e.arg]
    vals = [ref_points(a, X) for a in args]
    with np.errstate(divide="ignore", invalid="ignore"):
        return _POINT[type(e)](*vals)


def ref_interval(e, lo, hi):
    if isinstance(e, ex.Constant):
        v = np.full(lo.shape[0], e.value)
        return v, v.copy()
    if isinstance(e, ex.Var):
        return lo[:, e.index].copy(), hi[:, e.index].copy()
    if isinstance(e, ex.IntPow):
        return iv.kpow(*ref_interval(e.base, lo, hi), e.exponent)
    args = [e.left, e.right] if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)) else [e.arg]
    return _KERNEL[type(e)](*[x for a in args for x in ref_interval(a, lo, hi)])


def _root(v, n):
    return np.sign(v) * np.abs(v) ** (1.0 / n)


def _ref_hc4_bwd(e, lo, hi, rlo, rhi, boxlo, boxhi, empty):
    """Meet e's enclosure with [rlo, rhi], then recurse into each child
    with its own projection: every occurrence of a subtree on its own."""
    vlo, vhi = iv._meet(ref_interval(e, lo, hi), rlo, rhi, empty)
    if isinstance(e, ex.Var):
        boxlo[:, e.index] = np.maximum(boxlo[:, e.index], vlo)
        boxhi[:, e.index] = np.minimum(boxhi[:, e.index], vhi)
        return
    if isinstance(e, ex.Constant):
        return
    down = lambda v: iv._down(v, iv._ULPS_LIBM)    # noqa: E731
    up = lambda v: iv._up(v, iv._ULPS_LIBM)        # noqa: E731
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        a, b = ref_interval(e.left, lo, hi), ref_interval(e.right, lo, hi)
        ra, rb = {
            ex.Add: lambda: (iv.ksub(vlo, vhi, *b), iv.ksub(vlo, vhi, *a)),
            ex.Sub: lambda: (iv.kadd(vlo, vhi, *b), iv.ksub(*a, vlo, vhi)),
            ex.Mul: lambda: (iv._kdiv_loose(vlo, vhi, *b), iv._kdiv_loose(vlo, vhi, *a)),
            ex.Div: lambda: (iv.kmul(vlo, vhi, *b), iv._kdiv_loose(*a, vlo, vhi)),
        }[type(e)]()
        _ref_hc4_bwd(e.left, lo, hi, *ra, boxlo, boxhi, empty)
        _ref_hc4_bwd(e.right, lo, hi, *rb, boxlo, boxhi, empty)
        return
    if isinstance(e, ex.IntPow):
        n, (alo, ahi) = e.exponent, ref_interval(e.base, lo, hi)
        if n == 0:
            empty |= (1.0 < vlo) | (1.0 > vhi)
            return
        if n % 2 == 1:
            r = down(_root(vlo, n)), up(_root(vhi, n))
        else:
            top = up(_root(np.maximum(vhi, 0.0), n))
            bot = np.where(vlo > 0.0, down(_root(vlo, n)), 0.0)
            r = np.where(alo >= 0.0, bot, -top), np.where(ahi <= 0.0, -bot, top)
        _ref_hc4_bwd(e.base, lo, hi, *r, boxlo, boxhi, empty)
        return
    if isinstance(e, ex.Neg):
        r = -vhi, -vlo
    elif isinstance(e, ex.Tanh):
        r = (np.where(vlo > -1.0, down(np.arctanh(np.minimum(vlo, 1.0))), -np.inf),
             np.where(vhi < 1.0, up(np.arctanh(np.maximum(vhi, -1.0))), np.inf))
    elif isinstance(e, ex.Exp):
        empty |= vhi <= 0.0
        r = (np.where(vlo > 0.0, down(np.log(np.maximum(vlo, 1e-308))), -np.inf),
             np.where(vhi > 0.0, up(np.log(np.maximum(vhi, 1e-308))), np.inf))
    else:
        r = iv.kexp(vlo, vhi)
    _ref_hc4_bwd(e.arg, lo, hi, *r, boxlo, boxhi, empty)


def ref_hc4(e, lo, hi):
    """HC4 over the tree for e(x) <= 0, as `hc4_contract` returns it."""
    empty = np.zeros(lo.shape[0], dtype=bool)
    lo2, hi2 = lo.copy(), hi.copy()
    with np.errstate(all="ignore"):
        _ref_hc4_bwd(e, lo, hi, np.full(len(lo), -np.inf), np.zeros(len(lo)),
                     lo2, hi2, empty)
    empty |= np.any(~(lo2 <= hi2), axis=1)
    return np.where(empty[:, None], lo, lo2), np.where(empty[:, None], hi, hi2), empty


def subtree_keys(e, keys):
    """Collect a key per distinct subtree: type, children, and the bit
    pattern of a constant."""
    if isinstance(e, ex.Constant):
        k = ("c", np.float64(e.value).tobytes())
    elif isinstance(e, ex.Var):
        k = ("v", e.index)
    elif isinstance(e, ex.IntPow):
        k = ("^", subtree_keys(e.base, keys), e.exponent)
    elif isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        k = (type(e).__name__, subtree_keys(e.left, keys), subtree_keys(e.right, keys))
    else:
        k = (type(e).__name__, subtree_keys(e.arg, keys))
    keys.add(k)
    return k


def _has_shared_interior(tape):
    parents = [0] * len(tape.slots)
    for _, args, _ in tape.slots:
        for s in args:
            parents[s] += 1
    return any(args and parents[s] > 1 for s, (_, args, _) in enumerate(tape.slots))


def _trees(rng, count):
    trees = [ex.parse(t, 2) for t in PARSED]
    trees += [random_expr(rng, 2, depth=4) for _ in range(count)]
    trees += [shared_expr(rng, 2, depth=3) for _ in range(count)]
    for sys in BUILTINS:
        trees += list(sys.field.components)
        trees += [e for row in sys.linearization.dg for e in row]
    return trees


def _pad(X, dim):
    """The first ``dim`` columns, or X padded with columns of ones."""
    return X[:, :dim] if X.shape[1] >= dim else np.hstack([X, np.ones((len(X), dim - X.shape[1]))])


# ---------------------------------------------------------------------------
# Bit equality
# ---------------------------------------------------------------------------

class TestBitEquality:
    def test_points_match_the_tree_walk(self):
        rng = np.random.default_rng(31)
        X = np.vstack([rng.uniform(-2.0, 2.0, size=(40, 2)), np.zeros((1, 2)),
                       [[1e200, -1e200], [np.inf, 0.0]]])
        for e in _trees(rng, 200):
            with np.errstate(over="ignore", invalid="ignore"):
                ref = ref_points(e, X)
                got = ex.evaluate_many(e, X)
                rows = [ex.evaluate(e, x) for x in X[:3]]
            assert np.array_equal(got, ref, equal_nan=True), ex.to_str(e)
            assert np.array_equal(rows, ref[:3], equal_nan=True), ex.to_str(e)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_outputs_are_written_into_out(self, order):
        # an op output is written by its op, a VAR, CONST or power output or
        # a repeat of an earlier one is copied; X itself is never written
        rng = np.random.default_rng(34)
        X = np.vstack([rng.uniform(-2.0, 2.0, size=(20, 2)),
                       [[-0.0, 0.0], [0.0, -0.0], [np.inf, -1.0], [np.nan, 2.0], [1e200, 3.0]]])
        X = np.asarray(X, order=order)
        keep = X.copy()
        texts = ["x2", "-1.5", "x1^2", "x1*x2", "x1*x2", "-x2", "x2^3 - x1", "tanh(x1)",
                 "x1/x2", "ln(x2)", "exp(x1) + x2", "x2"]
        exprs = [ex.parse(t, 2) for t in texts]
        tape = ex.compile(exprs)
        out = np.full((X.shape[0], len(exprs) + 1), 7.0, order=order)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ex._point_pass(tape, X, out)
            listed = ex.evaluate_many(tape, X)
            refs = [ref_points(e, X) for e in exprs]
        for i, (text, ref) in enumerate(zip(texts, refs)):
            assert np.array_equal(out[:, i].view(np.int64), ref.view(np.int64)), text
            assert np.array_equal(listed[i].view(np.int64), ref.view(np.int64)), text
        assert (out[:, -1] == 7.0).all()
        assert np.array_equal(X, keep, equal_nan=True)
        assert not any(np.shares_memory(a, X) for a in listed)

    @pytest.mark.parametrize("sys", BUILTINS, ids=dyn.BUILTIN_NAMES)
    def test_field_into_a_wider_fortran_array(self, sys):
        # the integrator's rhs: f(x) into the first n columns of an
        # (K, n + 1) Fortran-ordered array, from a strided view of its states
        n = sys.dim
        rng = np.random.default_rng(35)
        Y = np.asarray(rng.uniform(-2.0, 2.0, size=(30, n + 1)), order="F")
        Y[0, :n], Y[1, 0], Y[2, 0] = -0.0, np.inf, np.nan
        X = Y[:, :n]
        out = np.zeros((30, n + 1), order="F")
        with np.errstate(over="ignore", invalid="ignore"):
            sys.field.eval_many(X, out)
            refs = [ref_points(c, X) for c in sys.field.components]
        for i, ref in enumerate(refs):
            assert np.array_equal(out[:, i].view(np.int64), ref.view(np.int64))
        assert (out[:, n] == 0.0).all()

    def test_intervals_match_the_tree_walk(self):
        rng = np.random.default_rng(32)
        lo = rng.uniform(-2.0, 1.0, size=(16, 2))
        hi = lo + rng.uniform(0.0, 2.0, size=(16, 2))
        hi[0] = lo[0]
        for e in _trees(rng, 200):
            got = iv.expr_interval_many(e, lo, hi)
            ref = ref_interval(e, lo, hi)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r, equal_nan=True), ex.to_str(e)

    @pytest.mark.parametrize("sys", BUILTINS, ids=dyn.BUILTIN_NAMES)
    def test_multi_output_tapes_match(self, sys):
        rng = np.random.default_rng(33)
        n = sys.dim
        X = _pad(rng.uniform(-2.0, 2.0, size=(30, 2)), n)
        lo = _pad(rng.uniform(-2.0, 0.0, size=(8, 2)), n)
        hi = lo + 1.0
        lin = sys.linearization
        F = sys.field.eval_many(X)
        dg_points = ex.evaluate_many(lin.dg_tape, X)
        dg_boxes = iv.expr_interval_many(lin.dg_tape, lo, hi)
        for i, comp in enumerate(sys.field.components):
            assert np.array_equal(F[:, i], ref_points(comp, X))
            for j in range(n):
                e = lin.dg[i][j]
                assert np.array_equal(dg_points[i * n + j], ref_points(e, X))
                for g, r in zip(dg_boxes[i * n + j], ref_interval(e, lo, hi)):
                    assert np.array_equal(g, r)

    def test_hc4_matches_the_tree_walk(self):
        """Without interior sharing the contraction is the tree's, bit for
        bit; with it, each row is at least as tight, and a row the tree
        proves empty stays empty."""
        rng = np.random.default_rng(34)
        lo = rng.uniform(-2.0, 1.0, size=(8, 2))
        hi = lo + rng.uniform(0.01, 2.0, size=(8, 2))
        exact = 0
        for e in _trees(rng, 150):
            if any(isinstance(n, (ex.Div, ex.Ln)) for n in _nodes(e)):
                continue
            lo2, hi2, empty = iv.hc4_contract(e, lo, hi)
            rlo, rhi, rempty = ref_hc4(e, lo, hi)
            if not _has_shared_interior(ex.compile([e])):
                assert np.array_equal(lo2, rlo) and np.array_equal(hi2, rhi), ex.to_str(e)
                assert np.array_equal(empty, rempty), ex.to_str(e)
                exact += 1
                continue
            assert np.all(empty[rempty]), ex.to_str(e)
            keep = ~empty
            assert np.all(lo2[keep] >= rlo[keep]) and np.all(hi2[keep] <= rhi[keep]), ex.to_str(e)
        assert exact >= 100


def _nodes(e):
    yield e
    for child in (getattr(e, "left", None), getattr(e, "right", None),
                  getattr(e, "arg", None), getattr(e, "base", None)):
        if child is not None:
            yield from _nodes(child)


# ---------------------------------------------------------------------------
# Slots
# ---------------------------------------------------------------------------

class TestCompile:
    def test_equal_subtrees_share_one_slot(self):
        rng = np.random.default_rng(35)
        for e in _trees(rng, 50):
            keys: set = set()
            subtree_keys(e, keys)
            tape = ex.compile([e])
            assert len(tape.slots) == len(keys), ex.to_str(e)
            assert tape.outputs == (len(tape.slots) - 1,)

    def test_dg_tapes_share(self):
        for sys in BUILTINS:
            lin = sys.linearization
            keys: set = set()
            for row in lin.dg:
                for e in row:
                    subtree_keys(e, keys)
            assert len(lin.dg_tape.slots) == len(keys)
            assert len(lin.dg_tape.outputs) == sys.dim ** 2

    def test_signed_zeros_keep_their_own_slots(self):
        tape = ex.compile([ex.Constant(0.0), ex.Constant(-0.0), ex.Constant(0.0)])
        assert len(tape.slots) == 2
        assert tape.outputs == (0, 1, 0)
        zero, negzero, _ = ex.evaluate(tape, [1.0])
        assert not np.signbit(zero) and np.signbit(negzero)

    def test_max_var_index(self):
        assert ex.compile([ex.Constant(1.0)]).max_var_index == -1
        assert ex.compile([ex.parse("x1 + x3", 3), ex.parse("x2", 3)]).max_var_index == 2

    def test_rejects_non_expressions(self):
        with pytest.raises(TypeError):
            ex.compile([ex.Add(ex.Var(0), 1.0)])


class TestDomainErrors:
    @pytest.mark.parametrize("text, x", [("1/x1", 0.0), ("ln(x1)", 0.0), ("ln(x1)", -1.0),
                                         ("x1 + tanh(2/(x1 - 1))", 1.0)])
    def test_evaluate_raises(self, text, x):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.parse(text, 1), [x])

    def test_evaluate_many_does_not(self):
        X = np.array([[0.0], [-1.0], [1.0]])
        assert ex.evaluate_many(ex.parse("1/x1", 1), X).tolist() == [np.inf, -1.0, 1.0]
        v = ex.evaluate_many(ex.parse("ln(x1)", 1), X)
        assert v[0] == -np.inf and np.isnan(v[1]) and v[2] == 0.0


# ---------------------------------------------------------------------------
# The benchmark's span tracer
# ---------------------------------------------------------------------------

def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_tracer_sees_tape_kernels():
    spans = _load_spans()
    for owner, attr, name in spans._TARGETS:
        assert callable(getattr(owner, attr, None)), name
    kadd = iv.kadd
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn = iv.ExprFn(ex.parse("x1^2 + x2^2 - 1", 2), 2)
        lo = np.array([[-2.0, -2.0], [0.5, 0.5]])
        hi = np.array([[2.0, 2.0], [2.0, 2.0]])
        fn.eval_boxes(lo, hi)
        forward = {s[0] for s in tracer.spans}
        iv.hc4_contract(fn.tape, lo, hi)
    finally:
        tracer.uninstall()
    assert iv.kadd is kadd
    assert {"interval.kadd", "interval.kpow", "interval.ksub"} <= forward
    assert "interval.hc4_contract" in {s[0] for s in tracer.spans}
