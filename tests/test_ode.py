import csv
import math
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov import dynamics as dyn
from zubov import ode

from test_bit_identity import same_bits


CUBIC = dyn.builtin("cubic1d")
VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")


def cubic_x_of_t(x0, t):
    # Bernoulli closed form for x' = -x + x^3:  x(t)^2 = u e^{-2t} / (1 - u + u e^{-2t})
    u = x0 * x0
    s = u * math.exp(-2 * t)
    return math.copysign(math.sqrt(s / (1 - u + s)), x0)


def estimate_V(sys, x, cfg=ode.IntegratorConfig()):
    """(v_hat, converged) at one point."""
    v, conv = ode.estimate_V_batch(sys, np.asarray(x, dtype=float)[None, :], cfg)
    return float(v[0]), bool(conv[0])


def cubic_V(x):
    return -0.5 * np.log(1 - np.asarray(x) ** 2)


def one_path(sys, x0, t_end):
    """One trajectory from x0 to t_end through `advance_batch`: the
    accepted-step path [(t, x), ...] and the row's final status."""
    path = [(0.0, np.array(x0, dtype=float))]

    def never(t, X):
        return np.zeros(t.shape, dtype=np.int8)

    def on_accept(rows, t, X):
        path.append((float(t[0]), X[0].copy()))

    status = ode.advance_batch(sys, [x0], never, ode.IntegratorConfig(t_max=t_end), on_accept)[2]
    return path, int(status[0])


class TestIntegrate:
    """One trajectory, integrated as a one-row batch."""

    def test_bernoulli_closed_form(self):
        path, status = one_path(CUBIC, [0.5], 1.0)
        t_end, x_end = path[-1]
        assert status == -3 and t_end == pytest.approx(1.0, abs=1e-9)
        assert abs(x_end[0] - cubic_x_of_t(0.5, 1.0)) <= 1e-5

    def test_equilibrium_stays_put(self):
        path, status = one_path(VDP, [0.0, 0.0], 5.0)
        assert status == -3 and len(path) > 10
        for _, x in path:
            assert np.max(np.abs(x)) == 0.0

    def test_blowup_outside_basin(self):
        # the step collapses on the way to the finite-time escape, far out
        # but long before BLOWUP_NORM, and the value data counts a blow-up
        path, status = one_path(CUBIC, [1.5], 50.0)
        assert status == -1 and ode.ESCAPE_NORM < abs(path[-1][1][0]) < ode.BLOWUP_NORM
        stats = ode.IntegratorStats()
        v, conv = ode.estimate_V_batch(CUBIC, np.array([[1.5]]), stats=stats)
        assert stats.status["blow_up"] == 1 and not conv[0] and np.isinf(v[0])

    def test_path_monotone_in_t(self):
        path, _ = one_path(VDP, [1.0, 0.5], 3.0)
        ts = [t for t, _ in path]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_accuracy_along_path(self):
        path, _ = one_path(CUBIC, [0.8], 4.0)
        for t, x in path[1:]:
            assert abs(x[0] - cubic_x_of_t(0.8, t)) <= 1e-5

    def test_rejects_nonpositive_horizon(self):
        for t_max in (0.0, -0.0):
            with pytest.raises(ValueError):
                ode.IntegratorConfig(t_max=t_max)


class _Timeout(Exception):
    pass


class TestAdvanceBatch:
    def test_rows_stop_at_t_max_without_classify(self):
        # a classify that never stops a row used to step with h = 0 at
        # t_max forever; the alarm turns such a hang into a failure
        def alarm(signum, frame):
            raise _Timeout("advance_batch did not return within 20 s")

        cfg = ode.IntegratorConfig(t_max=0.05)
        calls = []

        def classify(t, X):
            calls.append(t.copy())
            return np.zeros(t.shape, dtype=np.int8)

        old = signal.signal(signal.SIGALRM, alarm)
        signal.alarm(20)
        try:
            t, X, status = ode.advance_batch(VDP, [[0.5, 0.5], [1.0, -1.0]], classify, cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert status.tolist() == [-3, -3]
        assert t.tolist() == [0.05, 0.05]
        assert np.all(np.isfinite(X))
        assert len(calls) < 100
        # a row's bits do not depend on the rows that share its steps
        alone = ode.advance_batch(VDP, [[0.5, 0.5]], classify, cfg)[1]
        assert same_bits(X[0], alone[0])

    def test_classified_rows_keep_their_status(self):
        cfg = ode.IntegratorConfig(t_max=0.05)

        def classify(t, X):
            return np.where(t >= cfg.t_max, 7, 0).astype(np.int8)

        _, _, status = ode.advance_batch(VDP, [[0.5, 0.5]], classify, cfg)
        assert status.tolist() == [7]


class TestAugmentRhs:
    @pytest.mark.parametrize("sys", [
        CUBIC, VDP,
        dyn.make_system("cubic3d", 3, ["-x1 + x2*x3", "x1 - x2^3", "-x3 + x1*x2"],
                        [[-1, 1]] * 3),
    ], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_match_the_field_and_squared_norm(self, sys, order):
        # the pool's rhs writes f(x) and |x|^2 into the columns of one
        # Fortran-ordered array; its bits are those of f_many and _sq_norm,
        # also for signed zeros, infinities and NaN
        n = sys.dim
        rng = np.random.default_rng(n)
        Y = rng.uniform(-2.0, 2.0, size=(40, n + 1))
        Y[0, :n], Y[1, :n] = -0.0, 0.0
        Y[2, 0], Y[3, n - 1], Y[4, :n] = -0.0, np.inf, np.nan
        Y[5, 0], Y[6, :n] = -np.inf, [np.inf, -0.0, np.nan][:n]
        Y = np.asarray(Y, order=order)
        X = Y[:, :n]
        with np.errstate(invalid="ignore", over="ignore"):
            got = ode._augment_rhs(sys)(Y)
            plain = ode._augment_rhs(sys, cost=False)(X)
            want = np.column_stack([sys.f_many(X), ode._sq_norm(X)])
        assert got.shape == (40, n + 1) and got.flags.f_contiguous
        assert plain.shape == (40, n) and plain.flags.f_contiguous
        assert same_bits(got, want) and same_bits(plain, want[:, :n])
        assert np.isnan(got[4]).all() and got[3, n] == np.inf


class TestEstimateV:
    def test_cubic_half(self):
        v, conv = estimate_V(CUBIC, [0.5])
        assert conv
        assert v == pytest.approx(-0.5 * math.log(0.75), abs=2e-3)

    def test_origin(self):
        v, conv = estimate_V(CUBIC, [0.0])
        assert conv and v == 0.0

    def test_divergent_point(self):
        v, conv = estimate_V(CUBIC, [1.2])
        assert not conv and math.isinf(v)

    def test_grid_against_closed_form(self):
        xs = np.linspace(-0.9, 0.9, 50)[:, None]
        v, conv = ode.estimate_V_batch(CUBIC, xs)
        assert conv.all()
        assert np.max(np.abs(v - cubic_V(xs[:, 0]))) <= 2e-3

    def test_flow_derivative_is_minus_phi(self):
        # d/dt V(phi(t,x)) = -|x|^2 along converged trajectories
        for x0 in ([0.7], [-0.5]):
            h = 0.05
            xp = one_path(CUBIC, x0, h)[0][-1][1]
            v0, _ = estimate_V(CUBIC, x0)
            vp, _ = estimate_V(CUBIC, xp)
            lhs = (vp - v0) / h
            # midpoint state for the comparison
            xm = one_path(CUBIC, x0, h / 2)[0][-1][1]
            rhs = -float(xm[0] ** 2)
            assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(rhs))

    def test_semigroup_property(self):
        # V(x) = int_0^T |phi|^2 + V(phi(T, x)) for T = 1
        aug = dyn.make_system(
            "vdp_aug", 3,
            ["-x2", "x1 - (1 - x1^2)*x2", "x1^2 + x2^2"],
            [[-2.5, 2.5], [-3.5, 3.5], [-1.0, 500.0]])
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 5:
            x0 = rng.uniform(-1.0, 1.0, size=2)
            v0, conv = estimate_V(VDP, x0)
            if not conv:
                continue
            end = one_path(aug, [x0[0], x0[1], 0.0], 1.0)[0][-1][1]
            v1, conv1 = estimate_V(VDP, end[:2])
            assert conv1
            assert v0 == pytest.approx(end[2] + v1, abs=1e-3)
            checked += 1


class TestEscapeLabel:
    def test_finite_time_escape_is_a_blow_up(self):
        # x' = x^3 escapes at t = 1 / (2 x0^2); the step collapses near
        # |x| = 3.5e5, long before BLOWUP_NORM
        escape = dyn.make_system("escape", 1, ["x1^3"], [[-2.0, 2.0]])
        X = np.array([[1.0], [-0.5], [0.0], [2.0], [-0.0]])
        stats = ode.IntegratorStats()
        v, conv = ode.estimate_V_batch(escape, X, stats=stats)
        assert stats.status["blow_up"] == 3 and stats.status["step_underflow"] == 0
        assert stats.status["converged"] == 2
        assert conv.tolist() == [False, False, True, False, True]
        assert np.isinf(v[~conv]).all() and (v[conv] == 0.0).all()

    def test_underflow_near_the_origin_keeps_its_label(self, monkeypatch):
        # a collapse at a small norm is an accuracy failure, not an escape
        monkeypatch.setattr(ode, "MIN_STEP", 1.0)
        stats = ode.IntegratorStats()
        v, conv = ode.estimate_V_batch(VDP, np.array([[0.5, 0.5]]), stats=stats)
        assert stats.status["step_underflow"] == 1 and not conv[0] and np.isinf(v[0])


def share_lattice():
    """40 rows: signed-zero starts, the origin (done before a step), rows
    that converge and rows that reach the value cap."""
    rng = np.random.default_rng(8)
    X = rng.uniform(-2.5, 2.5, size=(40, 2))
    X[:3, 0], X[3, 1], X[4] = -0.0, -0.0, [-0.0, 0.0]
    X[5] = 0.0
    return X


def _pool_job():
    stats = ode.IntegratorStats()
    grid = ode.gen_dataset(VDP, [12, 12], ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1),
                           stats=stats)
    return stats.workers, grid.v


def pinned_shares(monkeypatch, w):
    monkeypatch.setattr(ode, "_share_count", lambda rows: w)


def running(pid):
    """True while process ``pid`` runs (read from /proc): a zombie has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def workers_left(script, tmp_path, seconds):
    """Run ``script``, a caller that prints its workers' pids and dies, in
    a session of its own; returns the pids and those still running
    ``seconds`` after the caller ended."""
    src = Path(ode.__file__).resolve().parents[1]
    with open(tmp_path / "pids", "w") as out:
        caller = subprocess.Popen([sys.executable, "-c", script], stdout=out,
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  start_new_session=True)
    try:
        caller.wait(timeout=60)
        pids = [int(p) for p in (tmp_path / "pids").read_text().split()]
        deadline = time.monotonic() + seconds
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        return pids, [p for p in pids if running(p)]
    finally:
        try:        # the session holds the caller and its workers
            os.killpg(caller.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def no_children():
    """True if this process has no child, running or unreaped."""
    if multiprocessing.active_children():
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestShares:
    @pytest.mark.parametrize("sys", [VDP, POLY], ids=["reversed_vdp", "poly2d"])
    def test_same_bits_and_counts_for_any_share_count(self, sys, monkeypatch):
        # a pool of 16: two shares of 20 rows refill it, three shares of
        # 13 or 14 rows never fill it
        monkeypatch.setattr(ode, "POOL_ROWS", 16)
        X = share_lattice()
        got = {}
        for w in (1, 2, 3):
            pinned_shares(monkeypatch, w)
            stats = ode.IntegratorStats()
            v, conv = ode.estimate_V_batch(sys, X, stats=stats)
            assert stats.workers == w
            got[w] = v, conv, stats
        v1, conv1, s1 = got[1]
        for w in (2, 3):
            v, conv, s = got[w]
            assert same_bits(v, v1) and np.array_equal(conv, conv1)
            assert (s.accepted, s.rejected, s.status) == (s1.accepted, s1.rejected, s1.status)
        assert v1[5] == 0.0 and conv1[:5].any()
        assert s1.status["converged"] > 5 and s1.status["value_cap"] > 0
        assert sum(s1.status.values()) == 40
        assert no_children()

    def test_gen_dataset_in_shares(self, monkeypatch):
        monkeypatch.setattr(ode, "POOL_ROWS", 7)
        beta = ode.BetaKind("tanh", 0.1)
        pinned_shares(monkeypatch, 1)
        want = ode.gen_dataset(VDP, [9, 9], ode.IntegratorConfig(), beta)
        pinned_shares(monkeypatch, 2)
        got = ode.gen_dataset(VDP, [9, 9], ode.IntegratorConfig(), beta)
        for a, b in ((got.X, want.X), (got.v, want.v), (got.w, want.w)):
            assert same_bits(a, b)
        assert np.array_equal(got.converged, want.converged)

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_failing_share_raises_and_leaves_no_child(self, where, monkeypatch):
        # the caller's own share failing while a worker still runs: the
        # worker is ended, not waited for
        caller, advance = os.getpid(), ode._advance

        def failing(*args, **kwargs):
            if (os.getpid() == caller) == (where == "caller"):
                raise FloatingPointError(f"share failed in the {where}")
            if where == "caller":
                time.sleep(60)
            return advance(*args, **kwargs)

        monkeypatch.setattr(ode, "_advance", failing)
        pinned_shares(monkeypatch, 3)
        t0 = time.perf_counter()
        with pytest.raises(FloatingPointError, match=f"in the {where}"):
            ode.estimate_V_batch(VDP, share_lattice())
        assert time.perf_counter() - t0 < 30
        assert no_children()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_workers_end_with_their_share_when_the_caller_dies(self, tmp_path):
        # a worker blocked on a send to a dead caller would live forever;
        # each closes the read ends it inherits, so its send fails instead.
        # The script hides Linux, so the kernel does not end the workers first
        script = """if True:
            import multiprocessing, os, time
            import numpy as np
            from zubov import dynamics, ode
            ode._share_count = lambda rows: 3
            os.uname = lambda: type("Uname", (), {"sysname": "other"})()
            caller, advance = os.getpid(), ode._advance

            def dying(*args, **kwargs):
                if os.getpid() == caller:
                    print(*[p.pid for p in multiprocessing.active_children()], flush=True)
                    os._exit(0)
                time.sleep(0.5)
                return advance(*args, **kwargs)

            ode._advance = dying
            # 4,000 rows per share: a result larger than a pipe's buffer
            X = np.random.default_rng(8).uniform(-2.5, 2.5, size=(12000, 2))
            ode.estimate_V_batch(dynamics.builtin("reversed_vdp"), X)
        """
        pids, left = workers_left(script, tmp_path, 30)
        assert len(pids) == 2 and left == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_workers_die_with_a_killed_caller(self, tmp_path):
        # a SIGKILLed caller closes nothing and terminates nobody: the
        # kernel must end its worker, whose share would sleep for 60 s
        script = """if True:
            import multiprocessing, os, signal, time
            import numpy as np
            from zubov import dynamics, ode
            ode._share_count = lambda rows: 2
            caller = os.getpid()

            def killed(*args, **kwargs):
                if os.getpid() == caller:
                    print(*[p.pid for p in multiprocessing.active_children()], flush=True)
                    time.sleep(0.5)     # the worker is asleep in its share by now
                    os.kill(caller, signal.SIGKILL)
                time.sleep(60)

            ode._advance = killed
            X = np.random.default_rng(8).uniform(-2.5, 2.5, size=(100, 2))
            ode.estimate_V_batch(dynamics.builtin("reversed_vdp"), X)
        """
        pids, left = workers_left(script, tmp_path, 5)
        assert len(pids) == 1 and left == []

    def test_a_worker_that_sends_nothing_raises(self, monkeypatch):
        # a worker that exits without a result is an error in the caller
        # that names its exit code, not a hang
        caller, advance = os.getpid(), ode._advance

        def vanishing(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(9)
            return advance(*args, **kwargs)

        monkeypatch.setattr(ode, "_advance", vanishing)
        pinned_shares(monkeypatch, 3)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="exit code 9"):
            ode.estimate_V_batch(VDP, share_lattice())
        assert time.perf_counter() - t0 < 10
        assert no_children()

    def test_small_lattices_never_fork(self, monkeypatch):
        def no_fork(method=None):
            raise AssertionError("forked")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(ode, "POOL_ROWS", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        # 39 rows are below two pools of 10 per share; 40 make two shares
        ode.estimate_V_batch(VDP, share_lattice()[:39])
        with pytest.raises(AssertionError, match="forked"):
            ode.estimate_V_batch(VDP, share_lattice())

    def test_share_count(self, monkeypatch):
        monkeypatch.setattr(ode, "POOL_ROWS", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        assert [ode._share_count(k) for k in (0, 19, 20, 39, 40, 59, 60, 10_000)] == \
            [1, 1, 1, 1, 2, 2, 3, 3]
        # a pool's worker is daemonic and may not start processes
        daemon = multiprocessing.current_process()
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: type("Daemon", (), {"daemon": True})())
        assert ode._share_count(10_000) == 1
        monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ode._share_count(10_000) == 1

    def test_gen_dataset_in_a_pool_worker(self, monkeypatch):
        # 144 rows make two shares of pools of 16, but a pool's worker may
        # not start processes: it integrates them itself
        monkeypatch.setattr(ode, "POOL_ROWS", 16)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_pool_job).get(timeout=120)
        stats = ode.IntegratorStats()
        want = ode.gen_dataset(VDP, [12, 12], ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1),
                               stats=stats)
        assert got[0] == 1 and stats.workers == min(2, len(os.sched_getaffinity(0)))
        assert same_bits(got[1], want.v)
        assert no_children()


class TestBeta:
    def test_zero(self):
        assert ode.beta_transform(0.0, ode.BetaKind("exp", 2.0)) == 0.0
        assert ode.beta_transform(0.0, ode.BetaKind("tanh", 0.1)) == 0.0

    def test_exp_matches_1d_closed_form(self):
        # beta(V(0.5)) = 0.5^2 for the scalar cubic with alpha = 2
        v = -0.5 * math.log(1 - 0.25)
        w = ode.beta_transform(v, ode.BetaKind("exp", 2.0))
        assert w == pytest.approx(0.25, abs=1e-12)

    def test_infinity_maps_to_one(self):
        for kind in ("exp", "tanh"):
            assert ode.beta_transform(math.inf, ode.BetaKind(kind, 1.0)) == 1.0

    def test_strictly_increasing(self):
        # strict where float64 can resolve the increments, monotone beyond
        vs = np.linspace(0, 50, 2000)
        for kind in ("exp", "tanh"):
            ws = ode.beta_transform(vs, ode.BetaKind(kind, 0.5))
            assert np.all(np.diff(ws) >= 0)
        rng = np.random.default_rng(3)
        for kind in ("exp", "tanh"):
            b = ode.BetaKind(kind, 0.5)
            for v in rng.uniform(0, 5, size=200):
                assert ode.beta_transform(v + 1e-6, b) > ode.beta_transform(v, b)

    def test_finite_v_stays_below_one(self):
        w = ode.beta_transform(500.0, ode.BetaKind("tanh", 1.0))
        assert w < 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ode.beta_transform(-1.0, ode.BetaKind("exp", 1.0))

    @pytest.mark.parametrize("v", [math.nan, [0.5, math.nan]])
    def test_nan_rejected(self, v):
        for kind in ("exp", "tanh"):
            with pytest.raises(ValueError, match="NaN"):
                ode.beta_transform(v, ode.BetaKind(kind, 1.0))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ode.BetaKind("sigmoid", 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ode.BetaKind("tanh", alpha)


class TestGenDataset:
    def test_cubic_three_points(self):
        samples = ode.gen_dataset(CUBIC, [3], ode.IntegratorConfig(),
                                  ode.BetaKind("exp", 2.0))
        xs = [s.x[0] for s in samples]
        assert xs == pytest.approx([-0.95, 0.0, 0.95])
        mid = samples[1]
        assert mid.converged and mid.v_hat == 0.0 and mid.w_hat == 0.0

    def test_vdp_grid_count(self):
        samples = ode.gen_dataset(VDP, [40, 40], ode.IntegratorConfig(),
                                  ode.BetaKind("tanh", 0.1))
        assert len(samples) == 1600
        assert any(s.converged for s in samples)
        assert any(not s.converged for s in samples)

    def test_converged_iff_w_below_one(self):
        samples = ode.gen_dataset(VDP, [25, 25], ode.IntegratorConfig(),
                                  ode.BetaKind("tanh", 0.1))
        for s in samples:
            assert s.converged == (s.w_hat < 1.0)
            assert s.converged == math.isfinite(s.v_hat)
            assert 0.0 <= s.w_hat <= 1.0

    def test_row_major_deterministic(self):
        a = ode.gen_dataset(VDP, [5, 7], ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1))
        b = ode.gen_dataset(VDP, [5, 7], ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1))
        assert len(a) == 35
        # x2 varies fastest (row-major over (x1, x2) axes)
        assert a[0].x[0] == a[1].x[0]
        assert a[0].x[1] != a[1].x[1]
        for s, t in zip(a, b):
            assert np.array_equal(s.x, t.x) and s.v_hat == t.v_hat

    def test_grid_requires_two_per_axis(self):
        with pytest.raises(ValueError):
            ode.gen_dataset(CUBIC, [1], ode.IntegratorConfig(), ode.BetaKind("exp", 1.0))

    def test_stats_count_every_row_and_step(self, monkeypatch):
        row_steps = []
        rk_step = ode._rk_step

        def counted(rhs, Y, h, *rest):
            row_steps.append(Y.shape[0])
            return rk_step(rhs, Y, h, *rest)

        monkeypatch.setattr(ode, "_rk_step", counted)
        monkeypatch.setattr(ode, "POOL_ROWS", 20)
        # one process, so that every _rk_step call is seen here (TestShares
        # checks that the counts are the same in any number of shares)
        monkeypatch.setattr(ode, "_share_count", lambda rows: 1)
        stats = ode.IntegratorStats()
        cfg = ode.IntegratorConfig(t_max=3.0)
        samples = ode.gen_dataset(VDP, [9, 9], cfg, ode.BetaKind("tanh", 0.1), stats=stats)
        assert sum(stats.status.values()) == len(samples) == 81
        assert stats.status["converged"] == sum(s.converged for s in samples) > 0
        assert stats.status["value_cap"] > 0 and stats.status["t_max"] > 0
        assert stats.accepted + stats.rejected == sum(row_steps)
        assert max(row_steps) == 20     # the pool is full while rows wait
        assert stats.accepted > 0 and stats.rejected > 0
        # a second lattice adds to the same counts
        ode.gen_dataset(CUBIC, [5], cfg, ode.BetaKind("tanh", 0.1), stats=stats)
        assert sum(stats.status.values()) == 86


def csv_writer_reference(path, samples, dim):
    """The dataset writer as a csv.writer loop over ValueSample rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(dim)] + ["v_hat", "w_hat", "converged"])
        for s in samples:
            v = "inf" if math.isinf(s.v_hat) else repr(s.v_hat)
            writer.writerow([repr(float(c)) for c in s.x] + [v, repr(s.w_hat),
                                                             "true" if s.converged else "false"])


# every finite float64 bit pattern: -0.0, subnormals, the largest magnitudes
finite_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        samples = ode.gen_dataset(VDP, [6, 6], ode.IntegratorConfig(),
                                  ode.BetaKind("tanh", 0.1))
        path = tmp_path / "data.csv"
        ode.save_samples(path, samples, 2)
        back = ode.load_samples(path)
        assert len(back) == len(samples)
        for s, t in zip(samples, back):
            assert np.array_equal(s.x, t.x)
            assert (s.v_hat == t.v_hat) or (math.isinf(s.v_hat) and math.isinf(t.v_hat))
            assert s.w_hat == t.w_hat and s.converged == t.converged

    def test_header_and_inf_marker(self, tmp_path):
        samples = ode.gen_dataset(VDP, [6, 6], ode.IntegratorConfig(),
                                  ode.BetaKind("tanh", 0.1))
        path = tmp_path / "data.csv"
        ode.save_samples(path, samples, 2)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,v_hat,w_hat,converged"
        assert any(",inf," in ln for ln in lines[1:])

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            ode.load_samples(p)

    def test_empty_file_rejected_by_name(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            ode.load_samples(p)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), rows=st.integers(1, 12), data=st.data())
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, dim, rows, data):
        values = st.one_of(finite_bits, st.sampled_from(EXTREMES))
        X = np.array(data.draw(st.lists(values, min_size=rows * dim, max_size=rows * dim)))
        v = np.array(data.draw(st.lists(values, min_size=rows, max_size=rows)))
        w = np.array(data.draw(st.lists(values, min_size=rows, max_size=rows)))
        conv = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        v[~conv] = np.inf
        grid = ode.ValueGrid(X.reshape(rows, dim), v, w, conv)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        ode.save_samples(path, grid, dim)
        back = ode.load_samples(path)
        assert back.X.shape == (rows, dim) and back.X.flags.c_contiguous
        for a, b in ((back.X, grid.X), (back.v, v), (back.w, w)):
            assert same_bits(a, b)
        assert np.array_equal(back.converged, conv)
        ref = path.with_name("ref.csv")
        csv_writer_reference(ref, grid, dim)
        assert path.read_bytes() == ref.read_bytes()

    def test_bytes_match_the_csv_writer_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ode, "_BLOCK", 7)
        samples = ode.gen_dataset(VDP, [6, 5], ode.IntegratorConfig(),
                                  ode.BetaKind("tanh", 0.1))
        ode.save_samples(tmp_path / "new.csv", samples, 2)
        csv_writer_reference(tmp_path / "ref.csv", samples, 2)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 30), data=st.data())
    def test_write_csv_matches_a_per_value_repr_writer(self, tmp_path_factory, rows, data):
        # a few distinct values, so most cells repeat one; strided columns,
        # as save_samples passes X's; -0.0 and 0.0 keep their own text
        values = st.one_of(finite_bits, st.sampled_from(EXTREMES + [math.inf, -math.inf]))
        pool = data.draw(st.lists(values, min_size=1, max_size=5))
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=3 * rows, max_size=3 * rows))
        cols = [*np.array(cells).reshape(rows, 3).T]
        cols.append(np.where(cols[0] > 0, "true", "false"))
        path = tmp_path_factory.mktemp("csv") / "w.csv"
        ode.write_csv(path, ["a", "b", "c", "flag"], cols)
        want = "a,b,c,flag\n" + "".join(
            ",".join([*(repr(float(c[i])) for c in cols[:3]), str(cols[3][i])]) + "\n"
            for i in range(rows))
        assert path.read_text() == want

    def test_header_only_rejected_by_name(self, tmp_path, recwarn):
        p = tmp_path / "header.csv"
        p.write_text("x1,x2,v_hat,w_hat,converged\n")
        with pytest.raises(ValueError, match="header.csv: no data rows"):
            ode.load_samples(p)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    GOOD = "x1,x2,v_hat,w_hat,converged\n0.5,0.25,1.5,0.15,true\n2.0,1.0,inf,1.0,false\n"

    @pytest.mark.parametrize("text, where", [
        (GOOD.replace("true\n", "true\n\n"), "line 3: 0 fields"),
        (GOOD + "\n", "line 4: 0 fields"),
        (GOOD.replace("true\n", "true\n  \n"), "line 3: 0 fields"),
        (GOOD.replace("true", "falsey"), "line 2: converged flag 'falsey'"),
        (GOOD.replace("true", "true,1"), "line 2: 6 fields"),
    ])
    def test_blank_and_long_rows_rejected_with_their_line(self, tmp_path, text, where):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=where):
            ode.load_samples(p)

    def test_inf_value_on_nonconverged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(self.GOOD)
        a, b = ode.load_samples(p)
        assert a.converged and a.v_hat == 1.5
        assert not b.converged and math.isinf(b.v_hat) and b.w_hat == 1.0

    @pytest.mark.parametrize("row, why", [
        ("0.1,0.2,1.0,0.1,maybe", "converged flag"),
        ("0.1,0.2,1.0,0.1,True", "converged flag"),
        ("0.1,0.2,1.0,0.1,", "converged flag"),
        ("nan,0.2,1.0,0.1,true", "non-finite coordinate"),
        ("0.1,inf,inf,1.0,false", "non-finite coordinate"),
        ("0.1,0.2,nan,0.1,true", "NaN value"),
        ("0.1,0.2,nan,1.0,false", "NaN value"),
        ("0.1,0.2,1.0,nan,true", "NaN value"),
        ("0.1,0.2,inf,1.0,true", "infinite v_hat"),
        ("0.1,0.2,1.0,0.1", "4 fields"),
        ("0.1,0.2,x,0.1,true", "could not convert"),
    ])
    def test_bad_row_rejected_with_its_line(self, tmp_path, row, why):
        p = tmp_path / "d.csv"
        p.write_text(self.GOOD + row + "\n")
        with pytest.raises(ValueError, match=f"line 4: .*{why}"):
            ode.load_samples(p)


class TestIntegratorConfig:
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_positive_fields_enforced(self, bad):
        # NaN too: with rtol = NaN every row would end as a step underflow
        for name in ("rtol", "atol", "h_max", "t_max", "stop_radius", "value_cap"):
            with pytest.raises(ValueError, match="positive"):
                ode.IntegratorConfig(**{name: bad})
        with pytest.raises(ValueError):
            ode.IntegratorConfig(stop_radius=1.5)

    def test_defaults(self):
        cfg = ode.IntegratorConfig()
        assert cfg.value_cap == 200.0
        assert cfg.stop_radius == 1e-3
        assert cfg.t_max == 500.0
