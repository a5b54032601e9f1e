import functools
import re
from pathlib import Path

import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex
from zubov import interval as iv
from zubov import net as nn
from zubov import ode
from zubov import verify as vf

VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")


def lyap_P(sys):
    return dyn.solve_lyapunov(dyn.linearize(sys).A, np.eye(sys.dim)).P


def constant_net(dim, value):
    net = nn.init_mlp([dim, 4, 1], 0)
    for W in net.weights:
        W[:] = 0.0
    net.biases[-1][:] = value
    return net


class TestVerifyLocal:
    def test_vdp_certifies_at_point_two(self):
        cert = vf.verify_local(VDP, lyap_P(VDP), np.eye(2), 0.9999, 0.2)
        assert cert.certified

    def test_poly_certifies_at_one(self):
        cert = vf.verify_local(POLY, lyap_P(POLY), np.eye(2), 0.9999, 1.0)
        assert cert.certified

    def test_poly_falsifies_beyond_reach(self):
        # the exact ceiling for this condition is sqrt(10) r / 3 ~ 1.054
        cert = vf.verify_local(POLY, lyap_P(POLY), np.eye(2), 0.9999, 2.4)
        assert isinstance(cert.outcome, iv.Falsified)
        w = cert.outcome.witness
        # witness violates in plain point arithmetic
        P = lyap_P(POLY)
        assert w @ P @ w <= 2.4
        norm = 2 * np.sqrt(10) / 4 * w[0] ** 2
        assert norm > 0.9999

    def test_linear_system_certifies_any_c(self):
        s = dyn.make_system("lin", 2, ["-x1 + 0.5*x2", "-x2"], [[-4, 4], [-4, 4]])
        P = lyap_P(s)
        for c in (0.1, 1.0, 1e6):
            cert = vf.verify_local(s, P, np.eye(2), 0.9999, c)
            assert cert.certified

    def test_r_above_lambda_min_rejected(self):
        with pytest.raises(vf.RNotBelowLambdaMin):
            vf.verify_local(VDP, lyap_P(VDP), np.eye(2), 1.5, 0.2)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            vf.verify_local(VDP, lyap_P(VDP), np.eye(2), 0.9999, -1.0)

    @pytest.mark.parametrize("sys", [VDP, POLY], ids=["reversed_vdp", "poly2d"])
    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_non_finite_level_rejected(self, sys, c):
        # HC4 turns x'Px - inf into NaN rows that it discards, which read as
        # a proof; every finite level that large is falsified
        with pytest.raises(ValueError, match="finite"):
            vf.verify_local(sys, lyap_P(sys), np.eye(2), 0.9999, c)
        assert isinstance(vf.verify_local(sys, lyap_P(sys), np.eye(2), 0.9999, 1e300).outcome,
                          iv.Falsified)


class TestFindMaxLocalC:
    def test_vdp_bracket(self):
        c = vf.find_max_local_c(VDP, lyap_P(VDP), np.eye(2), 0.9999).c
        assert 0.2 <= c <= 0.5
        # the search tree proves c at delta 1e-3; a fresh proof of the
        # same level needs a finer delta, as HC4 builds it another tree
        again = vf.verify_local(VDP, lyap_P(VDP), np.eye(2), 0.9999, c, delta=2.5e-4)
        assert again.certified

    def test_returns_the_certificate_proved_at_its_level(self):
        found = vf.find_max_local_c(VDP, lyap_P(VDP), np.eye(2), 0.9999)
        # proved by the search's own tree: its box count, no second proof
        assert type(found.outcome) is iv.Certified
        assert found.outcome.boxes_processed == 2471

    def test_monotone_halving(self):
        c = vf.find_max_local_c(VDP, lyap_P(VDP), np.eye(2), 0.9999).c
        assert vf.verify_local(VDP, lyap_P(VDP), np.eye(2), 0.9999, c / 2).certified

    def test_linear_reaches_corner_value(self):
        s = dyn.make_system("lin", 2, ["-x1", "-2*x2"], [[-1, 1], [-1, 1]])
        P = lyap_P(s)
        corners = s.domain.corners()
        c_hi = max(x @ P @ x for x in corners)
        cert = vf.find_max_local_c(s, P, np.eye(2), 0.9999)
        assert cert.certified
        assert cert.c == pytest.approx(c_hi)

    def test_no_certifiable_c(self):
        # r tiny makes even minuscule levels fail for a nonlinear system
        with pytest.raises(vf.NoCertifiableC):
            vf.find_max_local_c(POLY, lyap_P(POLY), np.eye(2), 1e-12)

    def test_backs_off_below_the_searched_level(self, monkeypatch):
        # refuse the first two rungs: the third, 4 * 2^-16 below the
        # searched level, comes back, proved by the same tree
        rungs, searched = [], []
        proves = iv.LevelSearch.proves

        def refuse_two(search, level):
            searched.append(search.level)
            rungs.append(level)
            return len(rungs) > 2 and proves(search, level)

        monkeypatch.setattr(iv.LevelSearch, "proves", refuse_two)
        found = vf.find_max_local_c(VDP, lyap_P(VDP), np.eye(2), 0.9999)
        assert len(rungs) == 3 and len(set(searched)) == 1
        assert rungs[0] == searched[0]
        assert rungs[2] == searched[0] * (1.0 - 4.0 * 2.0 ** -16)
        assert found.certified and found.c == rungs[2]

    def test_raises_when_no_rung_certifies(self, monkeypatch):
        levels = []

        def undecided(search, level):
            levels.append(level)
            return False

        monkeypatch.setattr(iv.LevelSearch, "proves", undecided)
        with pytest.raises(vf.NoCertifiableC):
            vf.find_max_local_c(POLY, lyap_P(POLY), np.eye(2), 0.9999)
        # the searched level, then eight rungs down to three quarters of it
        assert len(levels) == 9
        assert levels[-1] == pytest.approx(0.75 * levels[0])

    def test_vdp_level_reaches_the_bisection_level(self):
        # 0.2896674 is what a 12-step bisection of [1e-3 c_hi, c_hi] found
        assert vf.find_max_local_c(VDP, lyap_P(VDP), np.eye(2), 0.9999).c >= 0.2896674

    def test_poly_level_near_ceiling(self):
        # the condition holds exactly up to sqrt(10) r / 3 (criterion 4b)
        r = 0.9999
        cert = vf.find_max_local_c(POLY, lyap_P(POLY), np.eye(2), r)
        assert cert.certified
        assert 1.05 <= cert.c <= np.sqrt(10) * r / 3


@pytest.fixture(scope="module")
def vdp_local():
    return vf.verify_local(VDP, lyap_P(VDP), np.eye(2), 0.9999, 0.28)


@pytest.fixture(scope="module")
def trained_vdp(vdp_local):
    """A quick PINN+data fit; seed picked so the run certifies mid levels."""
    samples = ode.gen_dataset(VDP, [100, 100], ode.IntegratorConfig(),
                              ode.BetaKind("tanh", 0.1))
    cfg = nn.TrainConfig(alpha=0.1, psi_form="tanh", seed=1, max_epochs=150,
                         local_P=vdp_local.P, c_local=vdp_local.c)
    data = nn.assemble_dataset(samples, cfg, pair_fraction=0.02,
                               rng=np.random.default_rng(1))
    net0 = nn.init_mlp([2, 10, 10, 1], 1)
    net, _ = nn.train(net0, data, VDP, cfg)
    return net, samples


@pytest.fixture(scope="module")
def vdp_level(vdp_local, trained_vdp):
    net, _ = trained_vdp
    return vf.find_max_level(net, VDP, vdp_local)


class TestVerifyRoa:
    def test_constant_half_net_fails_boundary(self, vdp_local):
        net = constant_net(2, 0.5)
        cert = vf.verify_roa(net, VDP, vdp_local, c1=0.2, c2=0.6)
        assert not cert.certified
        assert any(isinstance(b.outcome, iv.Falsified) for b in cert.boundary)

    def test_requires_ordered_levels(self, vdp_local):
        net = constant_net(2, 0.5)
        with pytest.raises(ValueError):
            vf.verify_roa(net, VDP, vdp_local, c1=0.7, c2=0.3)
        with pytest.raises(ValueError):
            vf.verify_roa(net, VDP, vdp_local, c1=0.1, c2=0.5, epsilon=-1.0)

    def test_trained_net_certifies_below_found_level(self, vdp_local, trained_vdp,
                                                     vdp_level):
        # certifiability is monotone: any c2 below the found one still works
        net, _ = trained_vdp
        c1, c2, _ = vdp_level
        cert = vf.verify_roa(net, VDP, vdp_local, c1=c1, c2=0.5 * (c1 + c2))
        assert cert.certified

    def test_oversized_epsilon_falsifies_decrease(self, vdp_local, trained_vdp,
                                                  vdp_level):
        net, _ = trained_vdp
        c1, c2, _ = vdp_level
        cert = vf.verify_roa(net, VDP, vdp_local, c1=c1, c2=c2, epsilon=10.0)
        assert isinstance(cert.decrease.outcome, iv.Falsified)
        w = cert.decrease.outcome.witness
        wn = net.value_batch(w[None, :])[0]
        assert c1 <= wn <= c2
        lie = float(nn.input_grad_batch(net, w[None, :])[1][0] @ VDP.field(w))
        assert lie > -10.0

    def test_local_must_be_certified(self, vdp_local):
        bad = vf.LocalCertificate(system="x", P=np.eye(2), Q=np.eye(2), r=0.9,
                                  c=0.1, outcome=iv.Unknown(iv.Box([0], [0]), 1e-3),
                                  lambda_min_q=1.0, seconds=0.0)
        with pytest.raises(ValueError):
            vf.verify_roa(constant_net(2, 0.5), VDP, bad, 0.1, 0.5)


@pytest.fixture(scope="module")
def bench_net():
    net, _, _ = nn.load_mlp(Path(__file__).parents[1] / "bench" / "net_vdp.json")
    return net


@pytest.fixture(scope="module")
def bench_local():
    return vf.find_max_local_c(VDP, lyap_P(VDP), np.eye(2), 0.9999)


def fresh_levels(net, local, epsilon=1e-4, delta=1e-3, budget=5_000_000):
    """(c1, c2) as fresh proofs pick them: the searched levels, then the
    rungs below each proved from scratch by `bnb_verify` and `verify_roa`."""
    cache = vf._NetBoxCache(net)
    inclusion = functools.partial(vf._inclusion_condition, cache, local, dim=VDP.dim)
    c1, _ = vf._prove_near(
        lambda c: vf._timed_bnb("inclusion", inclusion(c), VDP.domain, delta, budget),
        iv.bnb_minimize(inclusion, 1.0, VDP.domain, delta=delta, budget=budget).level, 0.0)
    fails = iv.ExprFn(ex.Constant(1.0), VDP.dim)
    c2 = float(np.nextafter(1.0, 0.0))
    for _, face in vf._face_boxes(VDP.domain):
        c2 = iv.bnb_minimize(
            lambda c: iv.Condition((vf.NetValueFn(cache, c, +1, VDP.dim),), fails),
            c2, face, c1, delta=delta, budget=budget).level
    band_cache = vf._NetBoxCache(net, hessian=True)
    c2 = iv.bnb_minimize(lambda c: vf._band_condition(band_cache, VDP, c1, c, epsilon),
                         c2, VDP.domain, c1, delta=delta, budget=budget).level
    c2, _ = vf._prove_near(lambda c: vf.verify_roa(net, VDP, local, c1, c, epsilon=epsilon,
                                                   delta=delta, budget=budget), c2, c1)
    return c1, c2


@pytest.fixture(scope="module")
def bench_level(bench_net, bench_local):
    return vf.find_max_level(bench_net, VDP, bench_local)


class _LooseLevel(iv.ExprFn):
    """x1 + 2 - u, whose infeasibility test is looser by ``slack`` than
    its enclosure, as a coarser contractor's would be: sound, but it keeps
    delta-boxes near the searched level feasible a little below it."""

    def __init__(self, u, slack):
        super().__init__(ex.Sub(ex.parse("x1 + 2", 2), ex.Constant(u)), 2)
        self.slack = slack

    def contract_boxes(self, lo, hi):
        glo, _ = self.eval_boxes(lo, hi)
        return lo, hi, glo - self.slack > 0.0


def _loose_search(h_text, slack, floor=0.0):
    consequent = iv.ExprFn(ex.parse(h_text, 2), 2)

    def make(u):
        return iv.Condition((_LooseLevel(u, slack),), consequent)

    box = iv.Box.from_bounds([[-1, 1], [-1, 1]])
    return make, box, iv.bnb_minimize(make, 10.0, box, floor, delta=1e-3)


class TestFindMaxLevel:
    def test_bench_net_reaches_the_bisection_levels(self, bench_level):
        # 0.0224609 and 0.7432051 are what 10-step bisections of (0, 1) and
        # (c1, 1) found on this network
        c1, c2, cert = bench_level
        assert cert.certified
        assert (cert.c1, cert.c2) == (c1, c2)
        assert c1 >= 0.0224609
        assert c2 >= 0.7432051

    def test_bench_net_levels_are_the_fresh_proofs_levels(self, bench_net, bench_local,
                                                          bench_level):
        c1, c2, _ = bench_level
        assert (c1, c2) == fresh_levels(bench_net, bench_local)
        assert vf.verify_roa(bench_net, VDP, bench_local, c1, c2).certified

    def test_trained_net_levels_are_the_fresh_proofs_levels(self, vdp_local, trained_vdp,
                                                            vdp_level):
        net, _ = trained_vdp
        c1, c2, _ = vdp_level
        assert (c1, c2) == fresh_levels(net, vdp_local)
        assert vf.verify_roa(net, VDP, vdp_local, c1, c2).certified

    def test_coarse_delta_reaches_the_bisection_level(self, bench_net, bench_local):
        # with the natural enclosure of grad W_N . f, delta = 4e-3 left the
        # band undecided next to c1 and certified no level at all
        c1, c2, cert = vf.find_max_level(bench_net, VDP, bench_local, delta=4e-3)
        assert cert.certified
        assert c2 >= 0.7432051
        assert vf.verify_roa(bench_net, VDP, bench_local, c1, c2, delta=4e-3).certified

    def test_coarse_delta_certifies_the_fixed_levels(self, bench_net, bench_local):
        cert = vf.verify_roa(bench_net, VDP, bench_local, c1=0.0224, c2=0.74, delta=4e-3)
        assert cert.certified

    def test_reports_carry_the_searches(self, bench_level):
        _, _, cert = bench_level
        for report in (cert.decrease, cert.inclusion):
            assert report.outcome.boxes_processed > 0 and report.seconds > 0.0
        assert cert.decrease.outcome.boxes_processed > cert.inclusion.outcome.boxes_processed

    def test_steps_down_past_delta_boxes_feasible_at_the_first_rungs(self):
        # h = x1 - 0.5 straddles 0 on the delta-boxes at x1 = 0.5, where
        # l = x1 + 2 is about 2.5, so the search stops just below 2.5; the
        # loose test keeps those boxes feasible within 1e-3 below the
        # level, which covers the searched level and the rungs 15, 61 and
        # 244 ppm below it, and the rung 977 ppm below is the first proved
        make, box, search = _loose_search("x1 - 0.5", 1e-3)
        assert search.complete and len(search.dlo)
        assert 2.49 < search.level < 2.5
        rungs = []

        def prove(c):
            rungs.append(c)
            ok = search.proves(c)
            fresh = iv.bnb_verify(make(c), box, delta=1e-3)
            assert ok == isinstance(fresh, iv.Certified), (c, fresh)
            return vf.ConditionReport("loose", iv.Certified() if ok else fresh, 0.0)

        level, _ = vf._prove_near(prove, search.level, 0.0)
        assert rungs == [search.level] + [search.level * (1 - 4.0 ** k * 2.0 ** -16)
                                          for k in range(4)]
        assert level == rungs[-1]

    def test_search_stopped_at_its_floor_proves_nothing(self):
        # h > 0 for x1 > 0.5 and for x1 < -0.999; the depth-first order
        # takes the larger x1 first and drops the delta-boxes at x1 = 0.5,
        # then a probe at x1 < -0.999 drops the level below the floor.  The
        # kept delta-boxes are infeasible there, but the region the search
        # stopped short of refutes the condition
        make, box, search = _loose_search("(x1 - 0.5) * (x1 + 0.999)", 0.0, floor=2.0)
        assert not search.complete and search.level <= 2.0 and len(search.dlo)
        first = make(search.level).antecedents[0]
        assert np.all(first.contract_boxes(search.dlo, search.dhi)[2])
        assert not search.proves(search.level)
        assert isinstance(iv.bnb_verify(make(search.level), box, delta=1e-3), iv.Falsified)

    def test_rejects_nonpositive_epsilon(self, bench_net, bench_local):
        for epsilon in (0.0, -1e-4):
            with pytest.raises(ValueError):
                vf.find_max_level(bench_net, VDP, bench_local, epsilon=epsilon)

    def test_raises_when_no_c1_rung_certifies(self, bench_net, bench_local, monkeypatch):
        monkeypatch.setattr(iv.LevelSearch, "proves", lambda self, level: False)
        with pytest.raises(vf.NoCertifiableLevel):
            vf.find_max_level(bench_net, VDP, bench_local)

    def test_raises_when_no_c2_rung_certifies(self, bench_net, bench_local, monkeypatch):
        # the c1 search proves its rung; the band search proves none
        searches, levels = [], []
        proves = iv.LevelSearch.proves

        def c1_only(self, level):
            if self not in searches:
                searches.append(self)
            if self is searches[0]:
                return proves(self, level)
            levels.append(level)
            return False

        monkeypatch.setattr(iv.LevelSearch, "proves", c1_only)
        with pytest.raises(vf.NoCertifiableLevel):
            vf.find_max_level(bench_net, VDP, bench_local)
        assert len(levels) == 9

    def test_trained_net_reaches_mid_level(self, vdp_level):
        c1, c2, cert = vdp_level
        assert cert.certified
        assert 0 < c1 < c2 < 1
        assert c2 >= 0.4

    def test_degenerate_net_has_no_level(self, vdp_local):
        # W = 1 everywhere: {W <= c1} is empty... but the origin pin fails:
        # W(0) = 1 > c1 means (WP) holds vacuously, so use a net whose
        # sublevel sets cover the whole domain instead: W = 0 everywhere
        # never fits inside the ellipsoid.
        net = constant_net(2, 0.0)
        with pytest.raises(vf.NoCertifiableLevel):
            vf.find_max_level(net, VDP, vdp_local)


class TestVolumeFraction:
    def test_all_below_level(self, trained_vdp):
        net, samples = trained_vdp
        assert vf.volume_fraction(net, 1.5, samples) == 100.0

    def test_monotone_in_level(self, trained_vdp):
        net, samples = trained_vdp
        vols = [vf.volume_fraction(net, c2, samples)
                for c2 in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))

    def test_zero_level_mostly_empty(self, trained_vdp):
        net, samples = trained_vdp
        assert vf.volume_fraction(net, 0.0, samples) <= 5.0

    def test_empty_reference(self, trained_vdp):
        net, _ = trained_vdp
        with pytest.raises(vf.EmptyReference):
            vf.volume_fraction(net, 0.5, ode.ValueGrid(np.ones((3, 2)), np.full(3, np.inf),
                                                       np.ones(3), np.zeros(3, dtype=bool)))


class TestSimulationValidation:
    def test_trained_net_sublevel_flows_in(self, vdp_local, trained_vdp, vdp_level):
        net, _ = trained_vdp
        _, c2, _ = vdp_level
        rng = np.random.default_rng(5)
        out = vf.validate_roa_by_simulation(net, VDP, vdp_local, c2=c2,
                                            n_points=200, rng=rng)
        assert out["failed"] == 0
        assert out["exited_sublevel"] == 0


class TestNetBoxCache:
    def test_points_are_bit_equal_to_the_value_and_gradient_passes(self):
        rng = np.random.default_rng(17)
        net = nn.init_mlp([2, 10, 10, 1], rng)
        for b in net.biases:
            b[:] = rng.normal(size=b.shape)
        for K in (1, 3, 512):
            X = rng.uniform(-3.0, 3.0, size=(K, 2))
            w, g = vf._NetBoxCache(net).points(X)
            assert np.array_equal(w, nn.forward_batch(net, X))
            assert np.array_equal(g, net.grad_batch(X))


class TestExportSmt2:
    def _toy(self):
        return iv.Condition(
            antecedents=(iv.ExprFn(ex.parse("x1^2 - 1", 1), 1),),
            consequent=iv.ExprFn(ex.parse("x1 - 2", 1), 1))

    def test_structure(self):
        text = vf.export_smt2(self._toy(), iv.Box([-3.0], [3.0]))
        assert text.startswith("(set-logic QF_NRA)\n")
        assert "(declare-const x1 Real)" in text
        assert "(check-sat)" in text
        # negation form: antecedent asserted <= 0, consequent asserted > 0
        assert "(assert (<= " in text and "(assert (> " in text
        assert text.count("(assert") == 4  # 2 bounds + antecedent + negated consequent

    def test_deterministic(self):
        a = vf.export_smt2(self._toy(), iv.Box([-3.0], [3.0]))
        b = vf.export_smt2(self._toy(), iv.Box([-3.0], [3.0]))
        assert a == b

    def test_exact_rational_constants(self):
        cond = iv.Condition(antecedents=(),
                            consequent=iv.ExprFn(ex.parse("x1 - 0.1", 1), 1))
        text = vf.export_smt2(cond, iv.Box([0.0], [1.0]))
        # 0.1 is not exact in binary; the export must carry the true ratio
        assert "3602879701896397" in text

    def test_one_tanh_per_hidden_unit(self, vdp_local):
        net = nn.init_mlp([2, 1, 1], 3)  # single hidden unit
        cache = vf._NetBoxCache(net, hessian=True)
        cond = iv.Condition(
            antecedents=(vf.NetValueFn(cache, 0.2, -1, 2),
                         vf.NetValueFn(cache, 0.8, +1, 2)),
            consequent=vf.NetLieFn(cache, VDP, 1e-4))
        text = vf.export_smt2(cond, VDP.domain)
        assert text.count("(tanh") == 1
        net3 = nn.init_mlp([2, 3, 1], 3)
        cache3 = vf._NetBoxCache(net3, hessian=True)
        cond3 = iv.Condition(
            antecedents=(vf.NetValueFn(cache3, 0.2, -1, 2),),
            consequent=vf.NetLieFn(cache3, VDP, 1e-4))
        assert vf.export_smt2(cond3, VDP.domain).count("(tanh") == 3

    def test_repeated_subexpression_defined_once(self):
        cond = iv.Condition(
            antecedents=(iv.ExprFn(ex.parse("(x1 + 1)^2 - 4", 1), 1),),
            consequent=iv.ExprFn(ex.parse("(x1 + 1)*x1 - tanh(x1)", 1), 1))
        text = vf.export_smt2(cond, iv.Box([-3.0], [3.0]))
        assert text.count("(+ x1 1)") == 1
        name = re.search(r"\(define-fun (\w+) \(\) Real \(\+ x1 1\)\)", text).group(1)
        assert f"(assert (<= (- (* {name} {name}) 4) 0))" in text
        assert f"(assert (> (- (* {name} x1) (tanh x1)) 0))" in text

    def test_uninterpreted_mode(self):
        net = nn.init_mlp([1, 2, 1], 0)
        cache = vf._NetBoxCache(net)
        cond = iv.Condition(antecedents=(),
                            consequent=vf.NetValueFn(cache, 0.5, +1, 1))
        text = vf.export_smt2(cond, iv.Box([-1.0], [1.0]), tanh_mode="uninterpreted")
        # QF_NRA has no uninterpreted function symbols: declaring tanh needs QF_UFNRA
        assert text.startswith("(set-logic QF_UFNRA)\n(declare-fun tanh (Real) Real)\n")
        native = vf.export_smt2(cond, iv.Box([-1.0], [1.0]))
        assert native.startswith("(set-logic QF_NRA)\n") and "declare-fun" not in native
        # a script without tanh declares nothing and stays in QF_NRA
        plain = vf.export_smt2(self._toy(), iv.Box([-3.0], [3.0]), tanh_mode="uninterpreted")
        assert plain.startswith("(set-logic QF_NRA)\n") and "declare-fun" not in plain

    def test_unsupported_primitive(self, vdp_local):
        cond = iv.Condition(
            antecedents=(vf.QuadFormFn(vdp_local.P, vdp_local.c),),
            consequent=vf.SegmentNormFn(dyn.linearize(VDP), vdp_local.P, 0.9999, 2))
        with pytest.raises(iv.UnsupportedPrimitive):
            vf.export_smt2(cond, VDP.domain)


class TestReports:
    def test_local_report_roundtrip(self, vdp_local):
        import json
        doc = json.loads(vf.report_to_json(vdp_local))
        assert doc["kind"] == "local"
        assert doc["outcome"]["status"] == "certified"
        assert doc["c"] == 0.28

    def test_roa_report(self, vdp_local, trained_vdp):
        import json
        net, _ = trained_vdp
        cert = vf.verify_roa(net, VDP, vdp_local, c1=0.01, c2=0.5)
        doc = json.loads(vf.report_to_json(cert))
        assert doc["kind"] == "roa"
        assert len(doc["boundary"]) == 4
        assert doc["local"]["kind"] == "local"
