"""Assembling and discharging the stability certification conditions.

Local certificate: with P solving the Lyapunov equation for the
linearization and r below the smallest eigenvalue of Q, the ellipsoid
{x'Px <= c} is an invariant region of attraction once

    x'Px <= c   =>   2 * sup_{0<=t<=1} |P Dg(tx)|  <=  r

holds, where g = f - Ax and |.| is the matrix 2-norm (exact closed form
for 2x2, Frobenius upper bound otherwise).  The sup over the segment is
absorbed soundly by interval-evaluating Dg over the hull of each
candidate box with the origin.  Reformulating through Dg instead of
checking  2 x'P g(x) <= r |x|^2  directly matters: the direct form is
tight at the origin, where a width-limited decision procedure can only
ever answer "unknown".

Region of attraction in the large: a trained candidate W_N enlarges the
local ellipsoid through three checks over the working box X

    (a)  c1 <= W_N(x) <= c2  =>  grad W_N . f <= -epsilon
    (b)  W_N(x) <= c1        =>  x'Px <= c
    (c)  W_N > c2 on every face of X,

after which {W_N <= c2} is invariant and feeds the ellipsoid, so it is a
certified region of attraction.

Level searches lower a level with `iv.bnb_minimize` to where its
condition first fails or stays undecided, then certify it there or on
the first of eight rungs a little below (`_prove_near`).  The search
tree itself proves the rungs (`iv.LevelSearch.proves`): of the local
condition in `find_max_local_c`, of (a) and (b) in `find_max_level`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics as dyn
from . import expr as ex
from . import interval as iv
from . import net as nn
from .ode import ValueGrid

__all__ = [
    "LocalCertificate", "RoaCertificate", "ConditionReport",
    "RNotBelowLambdaMin", "NoCertifiableC", "NoCertifiableLevel", "EmptyReference",
    "QuadFormFn", "NetValueFn", "NetLieFn", "SegmentNormFn",
    "verify_local", "find_max_local_c", "verify_roa", "find_max_level",
    "volume_fraction", "export_smt2", "outcome_to_dict", "report_to_json",
]

# strictness slack for "W > c2 on the boundary": certifying W >= c2 + slack
STRICT_SLACK = 1e-9


class RNotBelowLambdaMin(ValueError):
    pass


class NoCertifiableC(RuntimeError):
    pass


class NoCertifiableLevel(RuntimeError):
    pass


class EmptyReference(ValueError):
    pass


# ---------------------------------------------------------------------------
# Condition building blocks
# ---------------------------------------------------------------------------

class _NetBoxCache:
    """Shares one interval net evaluation (value + gradient) between the
    several condition functions that look at the same chunk of boxes.

    A cache built with ``hessian`` (the one a `NetLieFn` needs) also
    carries the midpoint gradient and the Hessian enclosure in that one
    pass; value-only conditions get their own cache and do not pay for it.

    The cache keys on the array objects themselves and keeps references
    to them, so an address reused by a later allocation can never alias.
    """

    def __init__(self, net, hessian: bool = False):
        self.net = net
        self.hessian = hessian
        self._box_key = None
        self._box_val = None
        self._pt_key = None
        self._pt_val = None

    def boxes(self, lo, hi):
        """(vlo, vhi, glo, ghi), then (gmlo, gmhi, hlo, hhi) if
        ``hessian``: see `iv.net_interval_many`."""
        if self._box_key is None or self._box_key[0] is not lo or self._box_key[1] is not hi:
            self._box_val = iv.net_interval_many(self.net, lo, hi, want_hess=self.hessian)
            self._box_key = (lo, hi)
        return self._box_val

    def points(self, X):
        if self._pt_key is not X:
            self._pt_val = nn.input_grad_batch(self.net, X)
            self._pt_key = X
        return self._pt_val


def _net_to_expr(net) -> ex.Expr:
    """Unfold an Mlp into the expression grammar (one Tanh per hidden unit)."""
    n = net.layer_sizes[0]
    layer: list = [ex.Var(i) for i in range(n)]
    last = len(net.weights) - 1
    for li, (W, b) in enumerate(zip(net.weights, net.biases)):
        nxt = []
        for o in range(W.shape[0]):
            acc: Optional[ex.Expr] = None
            for i in range(W.shape[1]):
                w = float(W[o, i])
                if w == 0.0:
                    continue
                term = ex.Mul(ex.Constant(w), layer[i])
                acc = term if acc is None else ex.Add(acc, term)
            bias = float(b[o])
            if acc is None:
                acc = ex.Constant(bias)
            elif bias != 0.0:
                acc = ex.Add(acc, ex.Constant(bias))
            nxt.append(ex.Tanh(acc) if li < last else acc)
        layer = nxt
    return layer[0]


class QuadFormFn(iv.ScalarFn):
    """h(x) = x'Px - c."""

    def __init__(self, P: np.ndarray, c: float):
        self.P = np.asarray(P, dtype=float)
        self.c = float(c)
        self.dim = self.P.shape[0]
        self._hc4 = ex.compile([self.to_expr()])

    def eval_points(self, X):
        return np.einsum("ki,ij,kj->k", X, self.P, X) - self.c

    def eval_boxes(self, lo, hi):
        n = self.dim
        acc_lo = np.full(lo.shape[0], -self.c)
        acc_hi = acc_lo.copy()
        for i in range(n):
            sq = iv.kpow(lo[:, i], hi[:, i], 2)
            t = iv.kscale(self.P[i, i], *sq)
            acc_lo, acc_hi = iv.kadd(acc_lo, acc_hi, *t)
            for j in range(i + 1, n):
                if self.P[i, j] == 0.0:
                    continue
                cross = iv.kmul(lo[:, i], hi[:, i], lo[:, j], hi[:, j])
                t = iv.kscale(2.0 * self.P[i, j], *cross)
                acc_lo, acc_hi = iv.kadd(acc_lo, acc_hi, *t)
        return acc_lo, acc_hi

    def contract_boxes(self, lo, hi):
        return iv.hc4_contract(self._hc4, lo, hi)

    def to_expr(self):
        acc: Optional[ex.Expr] = None
        for i in range(self.dim):
            for j in range(self.dim):
                p = float(self.P[i, j])
                if p == 0.0:
                    continue
                term = ex.Mul(ex.Constant(p), ex.Mul(ex.Var(i), ex.Var(j)))
                acc = term if acc is None else ex.Add(acc, term)
        if acc is None:
            acc = ex.Constant(0.0)
        return ex.Sub(acc, ex.Constant(self.c))


class NetValueFn(iv.ScalarFn):
    """sign=+1: W_N(x) - level <= 0 encodes W <= level;
    sign=-1: level - W_N(x) <= 0 encodes W >= level."""

    def __init__(self, cache: _NetBoxCache, level: float, sign: int, dim: int):
        self.cache = cache
        self.level = float(level)
        self.sign = int(sign)
        self.dim = dim

    def eval_points(self, X):
        w, _ = self.cache.points(X)
        return (w - self.level) if self.sign > 0 else (self.level - w)

    def eval_boxes(self, lo, hi):
        vlo, vhi = self.cache.boxes(lo, hi)[:2]
        if self.sign > 0:
            return iv.ksub(vlo, vhi, self.level, self.level)
        return iv.ksub(self.level, self.level, vlo, vhi)

    def to_expr(self):
        w = _net_to_expr(self.cache.net)
        if self.sign > 0:
            return ex.Sub(w, ex.Constant(self.level))
        return ex.Sub(ex.Constant(self.level), w)


class NetLieFn(iv.ScalarFn):
    """h(x) = grad W_N(x) . f(x) + offset (so h <= 0 means decrease).

    Over a box B the enclosure is the meet of two sound ones (Moore,
    *Interval Analysis*; Neumaier, *Interval Methods for Systems of
    Equations*, ch. 2):

    * the natural product of the enclosures of grad W_N and f;
    * the centered form  h(m) + sum_p d_p h(B) (B_p - m_p)  at the
      midpoint m, with grad h = H_W f + J_f' grad W_N.  H_W comes from
      the cache's second-order stream, J_f from the compiled tape of
      the field's Jacobian, h(m) from the cache's degenerate-box pass at
      m, and B - m is rounded outward (`iv.center_offsets`).

    The natural form suffers the dependency problem even on small boxes;
    the centered one shrinks with the square of the box width.  ``cache``
    must be built with ``hessian=True``.
    """

    def __init__(self, cache: _NetBoxCache, sys: dyn.SystemDef, offset: float):
        if not cache.hessian:
            raise ValueError("NetLieFn needs a _NetBoxCache built with hessian=True")
        self.cache = cache
        self.sys = sys
        self.offset = float(offset)
        self.dim = n = sys.dim
        # Hessian entry (i, p) -> its column in the upper triangle
        tri = np.zeros((n, n), dtype=int)
        tri[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
        self._tri = np.maximum(tri, tri.T)

    def eval_points(self, X):
        _, g = self.cache.points(X)
        F = self.sys.f_many(X)
        return np.sum(g * F, axis=1) + self.offset

    def _natural(self, glo, ghi, F):
        """offset + sum_i g_i f_i from enclosures of the gradient and of
        the field's components F."""
        acc_lo = np.full(glo.shape[0], self.offset)
        acc_hi = acc_lo.copy()
        for i, (flo, fhi) in enumerate(F):
            plo, phi = iv.kmul(glo[:, i], ghi[:, i], flo, fhi)
            acc_lo, acc_hi = iv.kadd(acc_lo, acc_hi, plo, phi)
        return acc_lo, acc_hi

    def eval_boxes(self, lo, hi):
        _, _, glo, ghi, gmlo, gmhi, hlo, hhi = self.cache.boxes(lo, hi)
        n = self.dim
        F = iv.expr_interval_many(self.sys.field.tape, lo, hi)
        J = iv.expr_interval_many(self.sys.field.jacobian_tape, lo, hi)   # J[i*n + p]
        tri = self._tri
        m, dlo, dhi = iv.center_offsets(lo, hi)
        clo, chi = self._natural(gmlo, gmhi, iv.expr_interval_many(self.sys.field.tape, m, m))
        for p in range(n):
            # d_p h = sum_i H_ip f_i + J_ip g_i
            slo = np.zeros(lo.shape[0])
            shi = slo.copy()
            for i in range(n):
                slo, shi = iv.kadd(slo, shi, *iv.kmul(hlo[:, tri[i, p]], hhi[:, tri[i, p]], *F[i]))
                slo, shi = iv.kadd(slo, shi, *iv.kmul(*J[i * n + p], glo[:, i], ghi[:, i]))
            clo, chi = iv.kadd(clo, chi, *iv.kmul(slo, shi, dlo[:, p], dhi[:, p]))
        return iv.kintersect(*self._natural(glo, ghi, F), clo, chi)

    def to_expr(self):
        w = _net_to_expr(self.cache.net)
        acc: Optional[ex.Expr] = None
        for i, comp in enumerate(self.sys.field.components):
            term = ex.Mul(ex.diff(w, i), comp)
            acc = term if acc is None else ex.Add(acc, term)
        return ex.Add(acc, ex.Constant(self.offset))


class SegmentNormFn(iv.ScalarFn):
    """h(x) = 2 * sup_{0<=t<=1} |P Dg(tx)| - r.

    Over a box B the sup is bounded above by interval-evaluating the Dg
    entries on hull(B, 0), which contains every segment point tx.  At a
    probe point the sup is bounded below by a small t-grid, so reported
    witnesses are genuine.  The matrix norm is the exact 2x2 spectral
    norm (closed-form singular value) or the Frobenius bound for n > 2.
    """

    _TGRID = np.array([0.25, 0.5, 0.75, 1.0])

    def __init__(self, lin: dyn.Linearization, P: np.ndarray, r: float, dim: int):
        self.P = np.asarray(P, dtype=float)
        self.dg_tape = lin.dg_tape
        self.r = float(r)
        self.dim = dim

    def _pdg_entries_interval(self, lo, hi):
        """(P Dg)_ij = sum_k P_ik Dg_kj, (n, n, K): all (i, j) at once per k."""
        n = self.dim
        dg = iv.expr_interval_many(self.dg_tape, lo, hi)   # dg[k * n + j] = Dg_kj
        mlo = np.zeros((n, n, lo.shape[0]))
        mhi = mlo.copy()
        for k in range(n):
            row = dg[k * n:(k + 1) * n]
            t = iv.kscale(self.P[:, k, None, None], np.array([r[0] for r in row]),
                          np.array([r[1] for r in row]))
            mlo, mhi = iv.kadd(mlo, mhi, *t)
        return mlo, mhi

    def _norm_sq_interval(self, mlo, mhi):
        n = self.dim
        if n == 2:
            sq = {(i, j): iv.kpow(mlo[i, j], mhi[i, j], 2)
                  for i in range(2) for j in range(2)}
            p = iv.kadd(*sq[(0, 0)], *sq[(1, 0)])
            s = iv.kadd(*sq[(0, 1)], *sq[(1, 1)])
            q = iv.kadd(*iv.kmul(mlo[0, 0], mhi[0, 0], mlo[0, 1], mhi[0, 1]),
                        *iv.kmul(mlo[1, 0], mhi[1, 0], mlo[1, 1], mhi[1, 1]))
            tr = iv.kadd(*p, *s)
            dif = iv.ksub(*p, *s)
            disc = iv.kadd(*iv.kpow(*dif, 2), *iv.kscale(4.0, *iv.kpow(*q, 2)))
            root = iv.ksqrt(*disc)
            lam = iv.kscale(0.5, *iv.kadd(*tr, *root))
            # the trace also bounds the top eigenvalue of M'M and does not
            # suffer the (p - s)^2 dependency blow-up over origin hulls;
            # intersecting the two sound upper bounds keeps the enclosure
            # tight for near-rank-one matrices
            return np.maximum(lam[0], 0.0), np.minimum(lam[1], tr[1])
        acc_lo = np.zeros(mlo.shape[2])
        acc_hi = acc_lo.copy()
        for i in range(n):
            for j in range(n):
                acc_lo, acc_hi = iv.kadd(acc_lo, acc_hi, *iv.kpow(mlo[i, j], mhi[i, j], 2))
        return acc_lo, acc_hi

    def eval_boxes(self, lo, hi):
        hull_lo = np.minimum(lo, 0.0)
        hull_hi = np.maximum(hi, 0.0)
        mlo, mhi = self._pdg_entries_interval(hull_lo, hull_hi)
        nlo, nhi = iv.ksqrt(*self._norm_sq_interval(mlo, mhi))
        hlo, hhi = iv.kscale(2.0, nlo, nhi)
        return iv.ksub(hlo, hhi, self.r, self.r)

    def eval_points(self, X):
        K, n = X.shape
        pts = (self._TGRID[:, None, None] * X[None, :, :]).reshape(-1, n)
        dg = np.stack(ex.evaluate_many(self.dg_tape, pts), axis=1).reshape(-1, n, n)
        M = np.einsum("ik,pkj->pij", self.P, dg)
        if n == 2:
            p = M[:, 0, 0] ** 2 + M[:, 1, 0] ** 2
            s = M[:, 0, 1] ** 2 + M[:, 1, 1] ** 2
            q = M[:, 0, 0] * M[:, 0, 1] + M[:, 1, 0] * M[:, 1, 1]
            lam = 0.5 * ((p + s) + np.sqrt((p - s) ** 2 + 4 * q * q))
            norms = np.sqrt(np.maximum(lam, 0.0))
        else:
            norms = np.sqrt(np.sum(M * M, axis=(1, 2)))
        return 2.0 * norms.reshape(len(self._TGRID), K).max(axis=0) - self.r


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    name: str
    outcome: iv.VerifyOutcome
    seconds: float

    @property
    def certified(self) -> bool:
        return isinstance(self.outcome, iv.Certified)


@dataclass
class LocalCertificate:
    system: str
    P: np.ndarray
    Q: np.ndarray
    r: float
    c: float
    outcome: iv.VerifyOutcome
    lambda_min_q: float
    seconds: float

    @property
    def certified(self) -> bool:
        return isinstance(self.outcome, iv.Certified)


@dataclass
class RoaCertificate:
    c1: float
    c2: float
    epsilon: float
    decrease: ConditionReport
    inclusion: ConditionReport
    boundary: list
    local: LocalCertificate

    @property
    def certified(self) -> bool:
        return (0.0 < self.c1 < self.c2 and self.decrease.certified
                and self.inclusion.certified and all(b.certified for b in self.boundary))


def _timed_bnb(name, cond, box, delta, budget) -> ConditionReport:
    t0 = time.perf_counter()
    outcome = iv.bnb_verify(cond, box, delta=delta, budget=budget)
    return ConditionReport(name=name, outcome=outcome, seconds=time.perf_counter() - t0)


def _local_condition(sys: dyn.SystemDef, P: np.ndarray, Q: np.ndarray,
                     r: float, c: float):
    """The local condition at level c and lambda_min(Q), once r and c are
    checked."""
    if not (r > 0 and 0 < c < np.inf):   # NaN fails too
        raise ValueError(f"r must be positive and c positive and finite, got r = {r}, c = {c}")
    lam = dyn.lambda_min(Q)
    if not r < lam:
        raise RNotBelowLambdaMin(f"need r < lambda_min(Q) = {lam}, got r = {r}")
    cond = iv.Condition(
        antecedents=(QuadFormFn(P, c),),
        consequent=SegmentNormFn(sys.linearization, P, r, sys.dim),
        name=f"local-ellipsoid c={c:g}",
    )
    return cond, lam


def verify_local(sys: dyn.SystemDef, P: np.ndarray, Q: np.ndarray,
                 r: float, c: float, delta: float = 1e-3,
                 budget: int = 5_000_000) -> LocalCertificate:
    """Certify the ellipsoid {x'Px <= c} as a local region of attraction."""
    cond, lam = _local_condition(sys, P, Q, r, c)
    t0 = time.perf_counter()
    outcome = iv.bnb_verify(cond, sys.domain, delta=delta, budget=budget)
    return LocalCertificate(system=sys.name, P=np.asarray(P, float), Q=np.asarray(Q, float),
                            r=r, c=c, outcome=outcome, lambda_min_q=lam,
                            seconds=time.perf_counter() - t0)


def _prove_near(prove, level: float, floor: float):
    """The first of level and level * (1 - 4^k 2^-16), k = 0..7, above
    ``floor`` at which ``prove`` certifies, with its report; None if none.

    A searched level can miss the provable one by the width of a
    delta-box, so the rungs back off from 15 ppm to 25 %.  A proof that
    runs out of budget counts as not certified.
    """
    for rung in [level] + [level * (1.0 - 4.0 ** k * 2.0 ** -16) for k in range(8)]:
        if rung <= floor:
            return None
        try:
            report = prove(rung)
        except iv.BudgetExhausted:
            continue
        if report.certified:
            return rung, report
    return None


def _searched(name, make, level, box, floor, delta, budget):
    """Lower ``level`` with `iv.bnb_minimize`; return the level reached
    and, for `_prove_near`, the report at a rung: Certified with the
    search's box count and seconds where `iv.LevelSearch.proves` holds.
    Every level search proves its rungs this way."""
    t0 = time.perf_counter()
    search = iv.bnb_minimize(make, level, box, floor, delta=delta, budget=budget)
    seconds = time.perf_counter() - t0

    def report(rung):
        outcome = (iv.Certified(search.boxes_processed) if search.proves(rung)
                   else iv.Unknown(box, delta, search.boxes_processed))
        return ConditionReport(name, outcome, seconds)

    return search.level, report


def find_max_local_c(sys: dyn.SystemDef, P: np.ndarray, Q: np.ndarray,
                     r: float, delta: float = 1e-3,
                     budget: int = 5_000_000) -> LocalCertificate:
    """The local certificate at the largest c its level search proves.

    `iv.bnb_minimize` lowers c from the largest x'Px over the domain
    corners to where the condition first fails or stays undecided, and
    `_prove_near` proves c there or a little below it from the search's
    own tree (`iv.LevelSearch.proves`).  HC4 contracts the ellipsoid
    antecedent, so a fresh `verify_local` at the returned c builds
    another tree and may answer Unknown at the same delta.
    """
    corners = sys.domain.corners()
    c_hi = float(np.einsum("ki,ij,kj->k", corners, np.asarray(P, float), corners).max())
    level, report = _searched("local", lambda c: _local_condition(sys, P, Q, r, c)[0],
                              c_hi, sys.domain, floor=0.0, delta=delta, budget=budget)
    found = _prove_near(report, level, 0.0)
    if found is None:
        raise NoCertifiableC(f"not certifiable at or a little below c = {level:g}")
    c, rep = found
    return LocalCertificate(system=sys.name, P=np.asarray(P, float), Q=np.asarray(Q, float),
                            r=r, c=c, outcome=rep.outcome, lambda_min_q=dyn.lambda_min(Q),
                            seconds=rep.seconds)


def _face_boxes(box: iv.Box):
    faces = []
    for axis in range(box.dim):
        for side, val in (("lo", box.lo[axis]), ("hi", box.hi[axis])):
            lo = box.lo.copy()
            hi = box.hi.copy()
            lo[axis] = hi[axis] = val
            faces.append((f"x{axis + 1}={val:g}", iv.Box(lo, hi)))
    return faces


def _inclusion_condition(cache: _NetBoxCache, local: LocalCertificate,
                         c1: float, dim: int) -> iv.Condition:
    """W_N <= c1  =>  x'Px <= c: the sublevel set sits in the ellipsoid."""
    return iv.Condition(
        antecedents=(NetValueFn(cache, c1, +1, dim),),
        consequent=QuadFormFn(local.P, local.c),
        name=f"sublevel {c1:g} inside ellipsoid",
    )


def _band_condition(cache: _NetBoxCache, sys: dyn.SystemDef, c1: float, c2: float,
                    epsilon: float) -> iv.Condition:
    """c1 <= W_N <= c2  =>  grad W_N . f <= -epsilon."""
    return iv.Condition(
        antecedents=(NetValueFn(cache, c2, +1, sys.dim), NetValueFn(cache, c1, -1, sys.dim)),
        consequent=NetLieFn(cache, sys, epsilon),
        name=f"decrease band [{c1:g}, {c2:g}]",
    )


def _check_roa_args(local: LocalCertificate, epsilon: float) -> None:
    if not local.certified:
        raise ValueError("local certificate must be Certified first")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")


def _boundary_reports(cache: _NetBoxCache, sys: dyn.SystemDef, c2: float,
                      delta: float, budget: int) -> list:
    """W_N > c2 on every face of the domain, one proof per face."""
    reports = []
    for face_name, face in _face_boxes(sys.domain):
        cond = iv.Condition(
            antecedents=(),
            consequent=NetValueFn(cache, c2 + STRICT_SLACK, -1, sys.dim),
            name=f"boundary {face_name}: W > c2",
        )
        reports.append(_timed_bnb(f"boundary {face_name}", cond, face, delta, budget))
    return reports


def verify_roa(net, sys: dyn.SystemDef, local: LocalCertificate,
               c1: float, c2: float, epsilon: float = 1e-4,
               delta: float = 1e-3, budget: int = 5_000_000) -> RoaCertificate:
    """Certify {W_N <= c2} as a region of attraction feeding the local
    ellipsoid, via the decrease band, the inclusion check, and the
    domain-boundary exclusion check."""
    _check_roa_args(local, epsilon)
    if not (0.0 < c1 < c2 < 1.0):
        raise ValueError("need 0 < c1 < c2 < 1")
    cache = _NetBoxCache(net)
    band = _band_condition(_NetBoxCache(net, hessian=True), sys, c1, c2, epsilon)
    inclusion = _inclusion_condition(cache, local, c1, sys.dim)
    return RoaCertificate(c1=c1, c2=c2, epsilon=epsilon,
                          decrease=_timed_bnb("decrease", band, sys.domain, delta, budget),
                          inclusion=_timed_bnb("inclusion", inclusion, sys.domain, delta, budget),
                          boundary=_boundary_reports(cache, sys, c2, delta, budget), local=local)


def find_max_level(net, sys: dyn.SystemDef, local: LocalCertificate,
                   epsilon: float = 1e-4, delta: float = 1e-3,
                   budget: int = 5_000_000):
    """The largest (c1, c2) that `verify_roa` proves, and its certificate.

    `iv.bnb_minimize` lowers c1 from 1 to where {W_N <= c1} first leaves
    the local ellipsoid.  c2 starts at the least W_N over the domain
    faces (a search whose consequent always fails), kept below 1, and is
    lowered to where the decrease band first fails.  At each level the
    search's own tree proves the condition a little below it
    (`iv.LevelSearch.proves`), so `_prove_near` walks down its rungs
    without a second search; only the four boundary proofs run afresh,
    at the c2 rungs.  Unlike the ellipsoid in `find_max_local_c`, these
    antecedents do not contract, so here the tree also picks the rung a
    fresh `verify_roa` would.  The rungs lie above their floors, 0 and
    c1, and c2 starts below 1, so 0 < c1 < c2 < 1 as `verify_roa`
    requires.  Returns (c1, c2, RoaCertificate).
    """
    _check_roa_args(local, epsilon)
    cache = _NetBoxCache(net)
    search = functools.partial(_searched, box=sys.domain, delta=delta, budget=budget)
    level, inclusion = search("inclusion",
                              functools.partial(_inclusion_condition, cache, local, dim=sys.dim),
                              1.0, floor=0.0)
    found = _prove_near(inclusion, level, 0.0)
    if found is None:
        raise NoCertifiableLevel("no c1 level set fits inside the local ellipsoid")
    c1, inclusion_rep = found
    fails = iv.ExprFn(ex.Constant(1.0), sys.dim)
    c2 = float(np.nextafter(1.0, 0.0))
    for _, face in _face_boxes(sys.domain):
        c2 = iv.bnb_minimize(lambda c: iv.Condition((NetValueFn(cache, c, +1, sys.dim),), fails),
                             c2, face, c1, delta=delta, budget=budget).level
    band_cache = _NetBoxCache(net, hessian=True)
    level, decrease = search("decrease",
                             lambda c: _band_condition(band_cache, sys, c1, c, epsilon),
                             c2, floor=c1)

    def prove(c2):
        decrease_rep = decrease(c2)
        boundary = (_boundary_reports(cache, sys, c2, delta, budget)
                    if decrease_rep.certified else [])
        return RoaCertificate(c1, c2, epsilon, decrease_rep, inclusion_rep, boundary, local)

    found = _prove_near(prove, level, c1)
    if found is None:
        raise NoCertifiableLevel(f"no c2 in ({c1:g}, 1) certifies the decrease "
                                 "and boundary conditions")
    return (c1, *found)


def validate_roa_by_simulation(net, sys: dyn.SystemDef, local: LocalCertificate,
                               c2: float, n_points: int,
                               rng: np.random.Generator,
                               cfg=None) -> dict:
    """Sampled-flow check of a certified sublevel set.

    Draws ``n_points`` uniform domain points with W_N <= c2, integrates
    each until it enters the local ellipsoid {x'Px <= c}, and watches
    W_N at every accepted step.  Returns counts of points that reached
    the ellipsoid, ever exceeded c2 along the way, or failed to arrive.
    """
    from . import ode as _ode
    cfg = cfg or _ode.IntegratorConfig()
    P, c = local.P, local.c
    lo, hi = sys.domain.lo, sys.domain.hi
    pool = []
    while sum(len(p) for p in pool) < n_points:
        cand = rng.uniform(lo, hi, size=(4 * n_points, sys.dim))
        keep = cand[net.value_batch(cand) <= c2]
        pool.append(keep)
    X0 = np.concatenate(pool)[:n_points]
    exceeded = np.zeros(n_points, dtype=bool)

    def classify(t, X):
        out = np.zeros(t.shape, dtype=np.int8)
        out[t >= cfg.t_max] = 2
        out[np.einsum("ki,ij,kj->k", X, P, X) <= c] = 1
        return out

    def on_accept(rows, t, X):
        exceeded[rows] |= net.value_batch(X) > c2

    _, _, status = _ode.advance_batch(sys, X0, classify, cfg, on_accept=on_accept)
    reached = int(np.count_nonzero(status == 1))
    return {
        "points": n_points,
        "reached_ellipsoid": reached,
        "exited_sublevel": int(np.count_nonzero(exceeded)),
        "failed": n_points - reached,
    }


def volume_fraction(net, c2: float, reference: ValueGrid) -> float:
    """Share (%) of simulated-convergent reference points inside {W_N <= c2}."""
    X = reference.X[reference.converged]
    if not X.shape[0]:
        raise EmptyReference("reference dataset has no converged samples")
    w = net.value_batch(X)
    return 100.0 * float(np.count_nonzero(w <= c2)) / X.shape[0]


# ---------------------------------------------------------------------------
# SMT-LIB export
# ---------------------------------------------------------------------------

def _smt_number(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"cannot export non-finite constant {v}")
    num, den = float(v).as_integer_ratio()
    neg = num < 0
    num = abs(num)
    body = str(num) if den == 1 else f"(/ {num} {den})"
    return f"(- {body})" if neg else body


_SMT_OPS = {ex.ADD: "+", ex.SUB: "-", ex.MUL: "*", ex.DIV: "/", ex.NEG: "-",
            ex.TANH: "tanh", ex.EXP: "exp", ex.LN: "log"}


def _smt_slot(op: int, args: list, k) -> str:
    """SMT-LIB text of one tape slot, given the text of its arguments."""
    if op == ex.CONST:
        return _smt_number(k)
    if op == ex.VAR:
        return f"x{k + 1}"
    if op == ex.POW:
        return "1" if k == 0 else args[0] if k == 1 else f"(* {' '.join(args * k)})"
    return f"({_SMT_OPS[op]} {' '.join(args)})"


def export_smt2(cond: iv.Condition, X: iv.Box, tanh_mode: str = "native") -> str:
    """SMT-LIB 2 script asserting the negation of the condition over X.

    The script is satisfiable exactly when a counterexample exists, so an
    external solver reporting unsat certifies the condition.  The
    condition's expressions are compiled into one tape, and every
    compound subexpression that the text would repeat (each hidden unit
    appears in the value and in every gradient component) is bound once
    with define-fun.  ``tanh_mode`` is "native" for solvers with a
    builtin tanh or "uninterpreted" to merely declare it; a script that
    declares tanh sets the logic QF_UFNRA, since QF_NRA has no
    uninterpreted function symbols, and any other sets QF_NRA.
    """
    if tanh_mode not in ("native", "uninterpreted"):
        raise ValueError("tanh_mode must be 'native' or 'uninterpreted'")
    tape = ex.compile([g.to_expr() for g in cond.antecedents] + [cond.consequent.to_expr()])
    uses = [0] * len(tape.slots)
    for op, args, k in tape.slots:
        for s in args:
            uses[s] += k if op == ex.POW else 1
    for s in tape.outputs:
        uses[s] += 1
    if tanh_mode == "uninterpreted" and any(op == ex.TANH for op, _, _ in tape.slots):
        lines = ["(set-logic QF_UFNRA)", "(declare-fun tanh (Real) Real)"]
    else:
        lines = ["(set-logic QF_NRA)"]
    for i in range(X.dim):
        lines.append(f"(declare-const x{i + 1} Real)")
    for i in range(X.dim):
        lines.append(f"(assert (>= x{i + 1} {_smt_number(float(X.lo[i]))}))")
        lines.append(f"(assert (<= x{i + 1} {_smt_number(float(X.hi[i]))}))")

    text: list = []
    for s, (op, args, k) in enumerate(tape.slots):
        body = _smt_slot(op, [text[a] for a in args], k)
        if args and uses[s] > 1:
            name = f"s{s}"
            lines.append(f"(define-fun {name} () Real {body})")
            body = name
        text.append(body)

    *ants, h = tape.outputs
    for s in ants:
        lines.append(f"(assert (<= {text[s]} 0))")
    lines.append(f"(assert (> {text[h]} 0))")
    lines.append("(check-sat)")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def outcome_to_dict(outcome: iv.VerifyOutcome) -> dict:
    if isinstance(outcome, iv.Certified):
        return {"status": "certified", "boxes": outcome.boxes_processed}
    if isinstance(outcome, iv.Falsified):
        return {"status": "falsified", "witness": [float(v) for v in outcome.witness],
                "margin": outcome.margin, "boxes": outcome.boxes_processed}
    return {"status": "unknown",
            "box": [[float(l), float(h)] for l, h in zip(outcome.box.lo, outcome.box.hi)],
            "delta": outcome.delta, "boxes": outcome.boxes_processed}


def report_to_json(obj) -> str:
    if isinstance(obj, LocalCertificate):
        doc = {
            "kind": "local",
            "system": obj.system,
            "P": obj.P.tolist(),
            "Q": obj.Q.tolist(),
            "r": obj.r,
            "c": obj.c,
            "lambda_min_q": obj.lambda_min_q,
            "outcome": outcome_to_dict(obj.outcome),
            "seconds": obj.seconds,
        }
    elif isinstance(obj, RoaCertificate):
        doc = {
            "kind": "roa",
            "c1": obj.c1,
            "c2": obj.c2,
            "epsilon": obj.epsilon,
            "certified": obj.certified,
            "decrease": {"outcome": outcome_to_dict(obj.decrease.outcome),
                         "seconds": obj.decrease.seconds},
            "inclusion": {"outcome": outcome_to_dict(obj.inclusion.outcome),
                          "seconds": obj.inclusion.seconds},
            "boundary": [{"name": b.name, "outcome": outcome_to_dict(b.outcome),
                          "seconds": b.seconds} for b in obj.boundary],
            "local": json.loads(report_to_json(obj.local)),
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, indent=1)
