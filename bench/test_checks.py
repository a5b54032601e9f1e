"""Each benchmark check passes on right input and fails on wrong input.

    python3 -m pytest -q bench/test_checks.py

Wrong inputs: a level above the certified one, a perturbed witness, a
shifted v_hat, an untrained network, a misreported volume.  A check that
cannot fail would make the benchmark's `correct` meaningless.
"""

import copy
import math

import numpy as np
import pytest

import common  # noqa: F401  (puts src/ on the import path)
import checks
from zubov import dynamics, ode

# what `zubov verify-roa` certifies on net_vdp.json today
CERT = {"c1": 0.0224609375, "c2": 0.7432050704956055,
        "local": {"P": checks.VDP_P.tolist(), "c": 0.2896674499511719}}
POLY_WITNESS = [0.9375, -1.125]     # zubov's Falsified witness at c = 2.0


@pytest.fixture(scope="module")
def net():
    return checks.Net.load(common.NET_PATH)


@pytest.fixture(scope="module")
def small_dataset():
    """zubov's value data on a 12x12 lattice: (X, v, w, converged)."""
    samples = ode.gen_dataset(dynamics.builtin("reversed_vdp"), [12, 12],
                              ode.IntegratorConfig(), ode.BetaKind("tanh", 0.1))
    return (np.stack([s.x for s in samples]), np.array([s.v_hat for s in samples]),
            np.array([s.w_hat for s in samples]), np.array([s.converged for s in samples]))


def rng():
    return np.random.default_rng(7)


def test_own_gradient_matches_finite_differences(net):
    X = rng().uniform(-2, 2, size=(50, 2))
    _, g = net.value_grad(X)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (net.value(X + e) - net.value(X - e)) / (2 * h)
        assert np.max(np.abs(fd - g[:, i])) < 1e-6


def test_dataset_check(small_dataset):
    X, v, w, conv = small_dataset
    assert checks.check_dataset(X, v, w, conv, [12, 12], rng(), 30) == []
    shifted = np.where(conv, v * 1.001, v)
    assert checks.check_dataset(X, shifted, w, conv, [12, 12], rng(), 30)
    w_bad = w.copy()
    w_bad[np.flatnonzero(conv)[0]] += 1e-6
    assert checks.check_dataset(X, v, w_bad, conv, [12, 12], rng(), 30)
    assert checks.check_dataset(X[::-1], v, w, conv, [12, 12], rng(), 30)


def test_training_check(net, small_dataset):
    X, _, w, conv = small_dataset
    untrained = copy.deepcopy(net)
    for W in untrained.W:
        W[:] = rng().uniform(-0.5, 0.5, size=W.shape)
    assert checks.check_training(untrained, net, X, w, conv) == []
    assert checks.check_training(net, untrained, X, w, conv)


def test_roa_check(net):
    kw = dict(n_uniform=50_000, n_rim=1_000, n_traj=4)
    assert checks.check_roa(net, CERT, rng(), **kw) == []
    for key, value in (("c2", 0.9), ("c1", 0.05)):
        assert checks.check_roa(net, {**CERT, key: value}, rng(), **kw)
    assert checks.check_roa(net, {**CERT, "local": {**CERT["local"], "c": 0.4}},
                            rng(), **kw)
    assert checks.check_roa(net, {**CERT, "local": {**CERT["local"], "P": np.eye(2).tolist()}},
                            rng(), **kw)


def test_trajectory_check(net):
    X = np.array([[0.5, -0.5], [1.0, 1.0]])
    P, c = checks.VDP_P, CERT["local"]["c"]
    for x in X:
        arrived, w_max = checks.sublevel_trajectory(net, x, P, c)
        assert arrived and w_max <= CERT["c2"]
    # starting outside the limit cycle the flow never reaches the ellipsoid
    arrived, _ = checks.sublevel_trajectory(net, np.array([2.4, 3.4]), P, c, t_max=5.0)
    assert not arrived


def test_local_condition_check():
    c = CERT["local"]["c"]
    assert checks.check_local_condition(checks.VDP_P, c, rng()) == []
    assert checks.check_local_condition(checks.VDP_P, 1.2 * c, rng())


def test_volume_check(net):
    X = checks.lattice(checks.VDP_DOMAIN, [60, 60])
    conv = checks.quad(X, checks.VDP_P) <= 2.0
    own = checks.volume_pct(net, CERT["c2"], X, conv)
    assert checks.check_volume(net, CERT["c2"], X, conv, own, floor=0.0) == []
    assert checks.check_volume(net, CERT["c2"], X, conv, own + 1.0, floor=0.0)
    assert checks.check_volume(net, CERT["c2"], X, conv, own, floor=own + 1.0)


def test_level_floor_check():
    assert checks.check_level_floor(CERT["c2"]) == []
    assert checks.check_level_floor(0.69)


def test_poly2d_checks():
    assert checks.check_poly2d_local(1.0299) == []
    assert checks.check_poly2d_local(1.06)
    assert checks.check_poly2d_witness(POLY_WITNESS) == []
    x1, x2 = POLY_WITNESS
    assert checks.check_poly2d_witness([0.5 * x1, x2])       # condition holds there
    assert checks.check_poly2d_witness([1.1 * x1, 1.1 * x2])  # outside x'Px <= 2
    assert math.isclose(checks.POLY_LOCAL_CEILING, 1.0540, abs_tol=1e-4)
