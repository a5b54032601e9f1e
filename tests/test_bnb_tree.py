"""The branch-and-bound search tree, pinned.

`bnb_verify` keeps its box stack in arrays and splits a whole chunk at
once.  Its pop and push order must be the one of a plain depth-first
list stack, so the outcome, the witness or Unknown box, the number of
boxes processed and the pending count of a budget stop stay what they
were.  The pinned figures were recorded with the list-stack engine.
The box counts of the two level searches of `find_max_level` on the
benchmark network are pinned too: they are that search's whole cost, so
a change to the search order or the pruning shows up here.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv
from zubov import net as nn
from zubov import verify as vf

VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")


def _lyap_P(sys):
    return dyn.solve_lyapunov(sys.linearization.A, np.eye(sys.dim)).P


def _expr_cond(g_texts, h_text, dim):
    ants = tuple(iv.ExprFn(ex.parse(t, dim), dim) for t in g_texts)
    return iv.Condition(antecedents=ants, consequent=iv.ExprFn(ex.parse(h_text, dim), dim))


def _net_band():
    net = nn.init_mlp([2, 3, 1], 3)
    cache = vf._NetBoxCache(net, hessian=True)
    return iv.Condition(antecedents=(vf.NetValueFn(cache, 0.2, -1, 2),),
                        consequent=vf.NetLieFn(cache, VDP, 1e-4))


class TestPinnedOutcomes:
    def test_certified_vdp_local(self):
        out = vf.verify_local(VDP, _lyap_P(VDP), np.eye(2), 0.9999, 0.2).outcome
        assert isinstance(out, iv.Certified)
        assert out.boxes_processed == 195

    def test_certified_poly_local(self):
        out = vf.verify_local(POLY, _lyap_P(POLY), np.eye(2), 0.9999, 1.0).outcome
        assert isinstance(out, iv.Certified)
        assert out.boxes_processed == 171

    def test_falsified_poly_local(self):
        out = vf.verify_local(POLY, _lyap_P(POLY), np.eye(2), 0.9999, 2.4).outcome
        assert isinstance(out, iv.Falsified)
        assert out.boxes_processed == 75
        assert out.witness.tolist() == [1.125, -0.75]

    def test_falsified_interval(self):
        out = iv.bnb_verify(_expr_cond(["x1^2 - 1"], "x1 - 0.5", 1), iv.Box([-3.0], [3.0]),
                            delta=1e-3)
        assert isinstance(out, iv.Falsified)
        assert out.boxes_processed == 3
        assert out.witness.tolist() == [0.5000000000000004]

    def test_falsified_net_band(self):
        out = iv.bnb_verify(_net_band(), VDP.domain, delta=1e-3)
        assert isinstance(out, iv.Falsified)
        assert out.boxes_processed == 7
        assert out.witness.tolist() == [-1.25, 1.75]

    def test_unknown_degenerate_equality(self):
        out = iv.bnb_verify(_expr_cond(["x1^2"], "x1", 1), iv.Box([-1.0], [1.0]), delta=1e-3)
        assert isinstance(out, iv.Unknown)
        assert out.boxes_processed == 1
        tiny4 = 4 * math.ldexp(1.0, -1074)     # HC4 bound of x1^2 <= 0, four ulps out
        assert out.box.lo.tolist() == [-tiny4]
        assert out.box.hi.tolist() == [tiny4]

    def test_budget_exhausted_counts(self):
        cond = _expr_cond(["x1^2 - 0.25"], "x1 - 0.5", 1)
        with pytest.raises(iv.BudgetExhausted) as err:
            iv.bnb_verify(cond, iv.Box([-3.0], [3.0]), delta=1e-9, budget=5)
        assert (err.value.processed, err.value.pending) == (5, 2)


class TestPinnedSearches:
    def test_bench_net_level_searches(self):
        # find_max_level proves c1 and c2 from the trees of its two level
        # searches on bench/net_vdp.json; their box counts are the cost
        net, _, _ = nn.load_mlp(Path(__file__).parents[1] / "bench" / "net_vdp.json")
        local = vf.find_max_local_c(VDP, _lyap_P(VDP), np.eye(2), 0.9999)
        _, _, cert = vf.find_max_level(net, VDP, local)
        assert cert.certified
        assert cert.inclusion.outcome.boxes_processed == 3469
        # 201,693 with the natural enclosure of grad W_N . f; its centered
        # form decides the band's boxes much sooner
        assert cert.decrease.outcome.boxes_processed == 14529


def _list_stack_bnb(cond, X, delta, budget, chunk):
    """Reference engine: a Python list of (lo, hi) pairs, one box split at
    a time, popped from the end."""
    stack = [(X.lo.copy(), X.hi.copy())]
    processed = 0
    while stack:
        take = min(chunk, len(stack))
        batch = [stack.pop() for _ in range(take)]
        if processed + take > budget:
            raise iv.BudgetExhausted(processed, len(stack) + take)
        processed += take
        blo = np.stack([b[0] for b in batch])
        bhi = np.stack([b[1] for b in batch])
        feasible = np.ones(take, dtype=bool)
        for g in cond.antecedents:
            blo, bhi, dead = g.contract_boxes(blo, bhi)
            feasible &= ~dead
        alive = feasible
        if np.any(alive):
            _, hhi = cond.consequent.eval_boxes(blo, bhi)
            alive = alive & ~(hhi <= 0.0)
        if not np.any(alive):
            continue
        idx = np.where(alive)[0]
        mids = 0.5 * (blo[idx] + bhi[idx])
        ok = np.ones(len(idx), dtype=bool)
        for g in cond.antecedents:
            ok &= g.eval_points(mids) <= 0.0
        hv = cond.consequent.eval_points(mids)
        viol = ok & (hv > 0.0)
        if np.any(viol):
            j = int(np.argmax(viol))
            return iv.Falsified(witness=mids[j].copy(), margin=float(hv[j]),
                                boxes_processed=processed)
        for i in idx:
            w = bhi[i] - blo[i]
            if np.all(w <= delta):
                return iv.Unknown(box=iv.Box(blo[i], bhi[i]), delta=delta,
                                  boxes_processed=processed)
            axis = int(np.argmax(w))
            mid = 0.5 * (blo[i, axis] + bhi[i, axis])
            left_hi, right_lo = bhi[i].copy(), blo[i].copy()
            left_hi[axis] = right_lo[axis] = mid
            stack.append((blo[i].copy(), left_hi))
            stack.append((right_lo, bhi[i].copy()))
    return iv.Certified(boxes_processed=processed)


def _run(engine, *args):
    try:
        return engine(*args)
    except iv.BudgetExhausted as e:
        return ("budget", e.processed, e.pending)


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    if type(a) is not type(b) or a.boxes_processed != b.boxes_processed:
        return False
    if isinstance(a, iv.Falsified):
        return np.array_equal(a.witness, b.witness) and a.margin == b.margin
    if isinstance(a, iv.Unknown):
        return a.box == b.box
    return True


_CASES = [
    # (condition, box, delta, budget)
    (lambda: _expr_cond(["x1^2 + x2^2 - 1"], "x1 - 1", 2),
     iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-6, 100_000),
    (lambda: _expr_cond(["x1^2 + x2^2 - 1"], "x1 - 1", 2),
     iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-9, 700),
    (lambda: _expr_cond(["x1^2 - 1"], "x1 - 0.5", 1), iv.Box([-3.0], [3.0]), 1e-3, 10_000),
    (lambda: _expr_cond(["x1^2 + x2^2 - 2"], "x1*x2 - 1.0001", 2),
     iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-4, 200_000),
    # tight along a whole circle: thousands of pending boxes, so the array
    # stack has to grow
    (lambda: _expr_cond(["x1^2 + x2^2 - 1"], "x1^2 + x2^2 - 1.000001", 2),
     iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-4, 300_000),
    (lambda: _expr_cond(["x1^2 + x2^2 - 1"], "x1^2 + x2^2 - 1.01", 2),
     iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-4, 300_000),
    (_net_band, VDP.domain, 1e-3, 10_000),
]


@pytest.mark.parametrize("case", range(len(_CASES)))
@pytest.mark.parametrize("chunk", [1, 3, 64, 512])
def test_array_stack_matches_list_stack(case, chunk, monkeypatch):
    make, box, delta, budget = _CASES[case]
    monkeypatch.setattr(iv, "_CHUNK", chunk)
    got = _run(iv.bnb_verify, make(), box, delta, budget)
    want = _run(_list_stack_bnb, make(), box, delta, budget, chunk)
    assert _same(got, want), (got, want)
