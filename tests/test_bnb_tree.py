"""The branch-and-bound search tree, pinned.

`bnb_verify` keeps its box stack in arrays and splits a whole chunk at
once.  Its pop and push order must be the one of a plain depth-first
list stack, so the outcome, the witness or Unknown box, the number of
boxes processed and the pending count of a budget stop stay what they
were, and it never forks, whatever the share count.  The pinned
figures were recorded with the list-stack engine.
The box counts of the two level searches of `find_max_level` on the
benchmark network are pinned too: they are that search's whole cost, so
a change to the search order or the pruning shows up here.  A level
search large enough to be dealt into groups must reach the same level,
count and delta-boxes on one core and on two.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv
from zubov import net as nn
from zubov import shares
from zubov import verify as vf

from test_ode import no_children

VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")


def _expr_cond(g_texts, h_text, dim):
    ants = tuple(iv.ExprFn(ex.parse(t, dim)) for t in g_texts)
    return iv.Condition(antecedents=ants, consequent=iv.ExprFn(ex.parse(h_text, dim)))


def _net_band():
    net = nn.init_mlp([2, 3, 1], 3)
    cache = vf._NetBoxCache(net, hessian=True)
    return iv.Condition(antecedents=(vf.NetValueFn(cache, 0.2, -1),),
                        consequent=vf.NetLieFn(cache, VDP, 1e-4))


class TestPinnedOutcomes:
    def test_certified_vdp_local(self):
        out = vf.verify_local(VDP, 0.9999, 0.2).outcome
        assert isinstance(out, iv.Certified)
        assert out.boxes_processed == 195

    def test_certified_poly_local(self):
        out = vf.verify_local(POLY, 0.9999, 1.0).outcome
        assert isinstance(out, iv.Certified)
        assert out.boxes_processed == 171

    def test_falsified_poly_local(self):
        out = vf.verify_local(POLY, 0.9999, 2.4).outcome
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
        _, _, cert = vf.find_max_level(net, VDP, 0.9999)
        assert cert.certified
        assert cert.inclusion.outcome.boxes_processed == 3469
        # 201,693 with the natural enclosure of grad W_N . f; its centered
        # form decides the band's boxes much sooner
        assert cert.decrease.outcome.boxes_processed == 15259


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
    # the case before last (2,023 boxes), stopped by its budget
    (lambda: _expr_cond(["x1^2 + x2^2 - 1"], "x1^2 + x2^2 - 1.01", 2),
     iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-4, 1_000),
]


@pytest.mark.parametrize("case", range(len(_CASES)))
@pytest.mark.parametrize("chunk", [1, 3, 64, 512])
def test_array_stack_matches_list_stack(case, chunk, monkeypatch):
    make, box, delta, budget = _CASES[case]
    monkeypatch.setattr(iv, "_CHUNK", chunk)
    got = _run(iv.bnb_verify, make(), box, delta, budget)
    want = _run(_list_stack_bnb, make(), box, delta, budget, chunk)
    assert _same(got, want), (got, want)


# ---------------------------------------------------------------------------
# `bnb_verify` runs its tree in the calling process whatever `shares.count`
# says: it never forks, and its outcome is that of one process.
# ---------------------------------------------------------------------------

class _Spy:
    """Pins `shares.count` to ``w`` and records the share counts that
    `shares.run` is asked for."""

    def __init__(self, monkeypatch, w):
        self.runs = []
        run = shares.run

        def spied(share, k):
            self.runs.append(k)
            return run(share, k)

        monkeypatch.setattr(shares, "count", lambda units: w)
        monkeypatch.setattr(shares, "run", spied)


@pytest.mark.parametrize("case", range(len(_CASES)))
@pytest.mark.parametrize("chunk", [1, 3, 64, 512])
@pytest.mark.parametrize("w", [2, 3])
def test_shares_match_list_stack(case, chunk, w, monkeypatch):
    make, box, delta, budget = _CASES[case]
    monkeypatch.setattr(iv, "_CHUNK", chunk)
    spy = _Spy(monkeypatch, w)
    got = _run(iv.bnb_verify, make(), box, delta, budget)
    want = _run(_list_stack_bnb, make(), box, delta, budget, chunk)
    assert _same(got, want), (got, want)
    assert spy.runs == []
    assert no_children()


def _circle_band():
    """(condition, box, delta): 17,767 boxes along a circle, many chunks
    per share."""
    return _expr_cond(["x1^2 + x2^2 - 1"], "x1^2 + x2^2 - 1.001", 2), \
        iv.Box.from_bounds([[-2, 2], [-2, 2]]), 1e-4


def _bench_band():
    """(condition, box, delta): check-vdp's decrease band on the benchmark
    network, its largest fixed-level proof."""
    net, _, _ = nn.load_mlp(Path(__file__).parents[1] / "bench" / "net_vdp.json")
    band = vf._band_condition(vf._NetBoxCache(net, hessian=True), VDP, 0.0224, 0.74, 1e-4)
    return band, VDP.domain, 1e-3


@pytest.mark.parametrize("make, boxes", [(_circle_band, 17_767), (_bench_band, 12_439)],
                         ids=["circle", "bench_band"])
def test_certified_count_is_the_same_for_any_share_count(make, boxes, monkeypatch):
    for w in (1, 2, 3):
        spy = _Spy(monkeypatch, w)
        out = iv.bnb_verify(*make())
        assert isinstance(out, iv.Certified) and out.boxes_processed == boxes, (w, out)
        assert spy.runs == []
    assert no_children()


# ---------------------------------------------------------------------------
# Grouped level searches: `bnb_minimize` deals the open boxes of a paused
# tree into `_GROUPS` groups whatever the share count, so the level, the
# box count and the delta-boxes are the same on one core and on two.
# ---------------------------------------------------------------------------

def _bench_decrease():
    """(make, level, box, floor): the decrease search of `find_max_level` on
    the benchmark network, from the least W_N on the faces down to c1."""
    net, _, _ = nn.load_mlp(Path(__file__).parents[1] / "bench" / "net_vdp.json")
    cache, c1 = vf._NetBoxCache(net, hessian=True), 0.02354922852138118
    return (lambda c: vf._band_condition(cache, VDP, c1, c, 1e-4)), 0.8511381478367339, \
        VDP.domain, c1


def _line_search(monkeypatch):
    """(make, level, box, floor): the least x1^2 + x2^2 with x1 + x2 > 1,
    with chunks of 8 boxes, so that its stack reaches the pause (8 boxes)
    after 13; the groups reach 0.4987 and 0.5856 in 305 and 95 boxes and
    keep 3 and 6 delta-boxes."""
    monkeypatch.setattr(iv, "_CHUNK", 8)
    consequent = iv.ExprFn(ex.parse("x1 + x2 - 1", 2))

    def make(u):
        return iv.Condition((iv.ExprFn(ex.Sub(ex.parse("x1^2 + x2^2", 2), ex.Constant(u))),),
                            consequent)

    return make, 8.0, iv.Box.from_bounds([[-2, 2], [-2, 2]]), 0.0


def _grouped(monkeypatch, make, level, box, floor, w, budget=5_000_000):
    """The search with `shares.count` pinned to ``w``, and the share counts
    it ran its groups in."""
    with monkeypatch.context() as m:
        spy = _Spy(m, w)
        try:
            out = iv.bnb_minimize(make, level, box, floor, delta=1e-3, budget=budget)
        except iv.BudgetExhausted as e:
            out = ("budget", e.processed, e.pending)
    return out, spy.runs


@pytest.mark.parametrize("case, level, boxes, kept, proved", [
    ("bench_decrease", 0.7497175523764839, 15_259, 140, 0.7497061125944957),
    ("line", 0.49868107346729773, 413, 9, 0.49868107346729773 * (1 - 2 ** -16)),
], ids=["bench_decrease", "line"])
def test_grouped_search_is_the_same_on_one_and_two_shares(case, level, boxes, kept, proved,
                                                          monkeypatch):
    args = _bench_decrease() if case == "bench_decrease" else _line_search(monkeypatch)
    (one, runs1), (two, runs2) = (_grouped(monkeypatch, *args, w) for w in (1, 2))
    assert (runs1, runs2) == ([1], [2])
    assert no_children()
    for s in (one, two):
        assert (s.level, s.boxes_processed, s.complete, len(s.dlo)) == (level, boxes, True, kept)
        assert s.dlo.tobytes() == one.dlo.tobytes() and s.dhi.tobytes() == one.dhi.tobytes()
        # the least group's delta-box reaches the level, so the tree does not
        # prove it, but it proves the first rung below
        assert not s.proves(level) and s.proves(proved)


@pytest.mark.parametrize("budget, want", [(200, ("budget", 198, 19)),
                                          (350, ("budget", 343, 10))],
                         ids=["first group", "second group"])
def test_grouped_search_out_of_budget_counts_every_group(budget, want, monkeypatch):
    # the groups share the budget in group order as on one core: the first
    # group runs out before 200 boxes, or it ends at 318 (13 of them before
    # the pause) and the second runs out before 350.  Either way the whole
    # search's count is raised, not a group's.  Two shares give each group
    # all that the pause left, overrun it together and run again on one
    args = _line_search(monkeypatch)
    for w in (1, 2):
        out, runs = _grouped(monkeypatch, *args, w, budget=budget)
        assert out == want and runs == ([1] if w == 1 else [2, 1]), (w, out, runs)
    assert no_children()
