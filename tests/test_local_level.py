"""Soundness of the local level that `find_max_local_c` proves from its
own search tree.

The condition is checked here without zubov's enclosures: the systems
are f = Ax + g(x) with a Hurwitz A and a cubic g whose Jacobian is
written out from its coefficients, and 2 |P Dg(tx)| <= r is sampled in
the ellipsoid, half of the samples on its rim, with numpy's spectral
norm.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zubov import dynamics as dyn
from zubov import interval as iv
from zubov import verify as vf

VDP = dyn.builtin("reversed_vdp")
POLY = dyn.builtin("poly2d")
R = 0.9999

# exponents (p, q) of the monomials x1^p x2^q of g
MONOMIALS = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def lyap_P(sys):
    return dyn.solve_lyapunov(sys.linearization.A)


def _term(coef, p, q):
    return "*".join([repr(float(coef))] + ["x1"] * p + ["x2"] * q)


@st.composite
def cubic_systems(draw):
    """(system, G, domain): f = Ax + g(x) with A = -(MM' + eI) + kJ, J the
    rotation by 90 degrees, so x'Ax < 0 and A is Hurwitz; G[i, m] is the
    coefficient of monomial m in g_i."""
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    M = np.array(draw(st.lists(unit, min_size=4, max_size=4))).reshape(2, 2)
    e = draw(st.floats(0.05, 1.0))
    k = draw(st.floats(-2.0, 2.0))
    A = -(M @ M.T + e * np.eye(2)) + k * np.array([[0.0, 1.0], [-1.0, 0.0]])
    G = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                               min_size=14, max_size=14))).reshape(2, 7)
    half = draw(st.lists(st.floats(0.5, 3.0), min_size=2, max_size=2))
    domain = np.array([[-h, h] for h in half])
    comps = []
    for i in range(2):
        terms = [_term(A[i, j], *(1 - j, j)) for j in range(2)]
        terms += [_term(a, p, q) for a, (p, q) in zip(G[i], MONOMIALS) if a != 0.0]
        comps.append(" + ".join(terms))
    return dyn.make_system("cubic2d", 2, comps, domain.tolist()), G, domain


def cubic_dg(G, X):
    """Jacobian of g at the rows of X, shape (K, 2, 2)."""
    x1, x2 = X[:, 0], X[:, 1]
    D = np.zeros((len(X), 2, 2))
    for m, (p, q) in enumerate(MONOMIALS):
        if p:
            D[:, :, 0] += G[:, m] * (p * x1 ** (p - 1) * x2 ** q)[:, None]
        if q:
            D[:, :, 1] += G[:, m] * (q * x1 ** p * x2 ** (q - 1))[:, None]
    return D


def worst_segment_norm(dg, P, c, domain, seed, n=4000):
    """The largest 2 |P Dg(tx)| over seeded x in {x'Px <= c} and the
    domain, half of them drawn on the ellipsoid's rim, and t on a grid."""
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(np.linalg.inv(P))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = np.sqrt(rng.uniform(0.0, 1.0, n))
    rad[: n // 2] = 1.0
    X = math.sqrt(c) * (np.stack([np.cos(ang), np.sin(ang)], axis=1) * rad[:, None]) @ L.T
    X = X[np.all((X >= domain[:, 0]) & (X <= domain[:, 1]), axis=1)]
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        M = P @ dg(t * X)
        worst = max(worst, float(np.max(2.0 * np.linalg.norm(M, ord=2, axis=(1, 2)),
                                        initial=0.0)))
    return worst


class TestTreeProvedLevelIsSound:
    @settings(max_examples=30, deadline=None)
    @given(cubic_systems(), st.integers(0, 2 ** 32 - 1))
    def test_random_cubic_systems(self, case, seed):
        sys, G, domain = case
        P = lyap_P(sys)
        try:
            cert = vf.find_max_local_c(sys, R)
        except vf.NoCertifiableC:
            return
        assert cert.certified
        fresh = vf.verify_local(sys, R, cert.c)
        assert not isinstance(fresh.outcome, iv.Falsified)
        worst = worst_segment_norm(lambda X: cubic_dg(G, X), P, cert.c, domain, seed)
        assert worst <= R * (1.0 + 1e-12)

    def test_vdp(self):
        P = lyap_P(VDP)
        cert = vf.find_max_local_c(VDP, R)

        def dg(X):     # g = (0, x1^2 x2)
            zero = np.zeros(len(X))
            return np.stack([np.stack([zero, zero], -1),
                             np.stack([2.0 * X[:, 0] * X[:, 1], X[:, 0] ** 2], -1)], -2)

        domain = np.stack([VDP.domain.lo, VDP.domain.hi], axis=1)
        assert worst_segment_norm(dg, P, cert.c, domain, 7) <= R


class TestLocalLevels:
    def test_vdp_tree_proves_the_searched_level(self):
        # the tree proves the level the search lowers c to as it stands,
        # in the search's 2,471 boxes; fresh verify_local proofs of the
        # rungs reach only 0.29517...
        P = lyap_P(VDP)
        corners = VDP.domain.corners()
        c_hi = float(np.einsum("ki,ij,kj->k", corners, P, corners).max())
        searched = iv.bnb_minimize(lambda c: vf._local_condition(VDP, R, c),
                                   c_hi, VDP.domain).level
        cert = vf.find_max_local_c(VDP, R)
        assert cert.c == searched
        assert cert.c >= 0.29517693357774916
        assert cert.outcome == iv.Certified(2471)

    def test_poly2d_level(self):
        cert = vf.find_max_local_c(POLY, R)
        assert cert.certified
        assert 1.0521328300237642 <= cert.c <= math.sqrt(10.0) * R / 3.0
