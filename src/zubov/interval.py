"""Sound interval arithmetic and a branch-and-bound decision engine.

Two layers live here:

* Low-level kernels operating on parallel ``(lo, hi)`` float64 arrays.
  Every kernel returns an enclosure of the exact real-arithmetic image
  and compensates for floating-point rounding by widening results
  outward in one relative-plus-absolute step (`_down` / `_up`) that is
  proved to reach at least one ulp for correctly-rounded ops and a few
  ulps for libm transcendentals, plus an accumulated-error bound for
  dot products, which lets the matrix products run on BLAS in any
  summation order.  Arrays let the branch-and-bound loop evaluate whole
  chunks of boxes at once, which makes the verifier fast enough in pure
  Python; work that moves no bound, such as the input layer's products
  with the identity Jacobian, runs once per chunk or not at all.

* A public API: `Box`, enclosures of compiled expressions (`ex.Tape`)
  from one forward loop over their slots, HC4 contraction by that loop
  and a reverse sweep, interval propagation through tanh networks
  (values, input gradients and Hessians), and one depth-first
  splitting loop that serves two ends: `bnb_verify` decides universally
  quantified implications over a box up to a width threshold
  ``delta`` (the counterpart of a delta-sat query to an SMT solver), and
  `bnb_minimize` lowers the level of such an implication to about the
  least one at which it fails, keeping the tree's open leaves so that
  the same search proves the implication a little below that level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as ex

__all__ = [
    "Box", "Condition", "ScalarFn", "ExprFn",
    "Certified", "Falsified", "Unknown", "VerifyOutcome",
    "BudgetExhausted", "UnsupportedPrimitive",
    "expr_interval_many", "net_interval_many", "center_offsets", "hc4_contract",
    "bnb_verify", "bnb_minimize", "LevelSearch",
]

_EPS = np.finfo(np.float64).eps  # 2^-52
_MAX = np.finfo(np.float64).max
_TINY = math.ldexp(1.0, -1074)   # smallest subnormal, the float spacing near 0
_REL = (1.0 + 2.0 ** -20) * _EPS   # relative step of `_down` / `_up` per ulp
# ulps a computed bound is moved outward (`_down` / `_up`): 1 covers the
# correctly-rounded +-*/sqrt; libm tanh/exp/log are not correctly rounded,
# and 4 ulps covers glibc/musl (checked against mpmath in the tests).
_ULPS_ARITH = 1
_ULPS_LIBM = 4


class UnsupportedPrimitive(TypeError):
    """A condition component has no symbolic form for export."""


# ---------------------------------------------------------------------------
# Array kernels.  All take/return (lo, hi) pairs of equal-shape arrays.
# ---------------------------------------------------------------------------

def _down(a: np.ndarray, ulps: int) -> np.ndarray:
    """A lower bound at or below ``ulps`` passes of ``nextafter(a, -inf)``.

    One step:  m - (|m| * k * c + k * 2^-1074)  with k = ulps,
    c = (1 + 2^-20) * eps and m = min(a, MAX), MAX the largest finite
    double, under the default IEEE environment (round to nearest, gradual
    underflow).

    Proof for finite a, with u = 2^-53 and a_k the k-th double below a:

    * Two adjacent doubles differ by at most max(eps * m, 2^-1074), m the
      smaller magnitude of the two (2^-1074 is the spacing of the
      subnormals and of [2^-1022, 2^-1021)).  So each of the k steps from
      a to a_k is at most max(eps |x|, 2^-1074) for the point x it leaves,
      and |x| grows by a factor of at most 1 + eps per step wherever
      eps |x| > 2^-1074, which gives
      a - a_k <= D = k * max(eps * |a| * (1 + eps)^(k-1), 2^-1074).
    * k*c and k*2^-1074 are exact.  Let t = fl(|a| k c) and
      s = fl(t + k 2^-1074).  As t >= 0 and rounding is monotone,
      s >= k 2^-1074.  If t is normal, s >= t >= |a| k c (1 - u).  If t is
      subnormal, t >= |a| k c - 2^-1075 and t + k 2^-1074 is a multiple of
      2^-1074 below 2^-1021, so s is that sum exactly and s >= |a| k c.
      Since (1 + 2^-20)(1 - u) > (1 + eps)^(k-1) for k < 2^31, s >= D.
    * So the exact a - s is <= a_k, and fl(a - s) <= a_k because a_k is a
      double and rounding is monotone.  This covers a = 0 (the result is
      -k 2^-1074, exactly a_k), the subnormals and a = -MAX: there a_k is
      -inf, and s > eps * MAX > ulp(MAX) makes a - s round to -inf.

    Non-finite a: +inf is first clamped to MAX, so the result lies below
    a_k = nextafter^(k-1)(MAX); -inf stays -inf; NaN stays NaN, as with
    nextafter.  These reach here from `hc4_contract` as arctanh(+-1) and
    log(inf).  A lower bound of +inf (tanh(x) >= 1, exp(x) >= inf) thus
    becomes a finite bound above any forward enclosure, and `_meet` marks
    the row empty, which is right because no real x satisfies it; NaN rows
    are marked empty too.
    """
    m = np.minimum(a, _MAX)   # a new array (or scalar), so the step goes in place
    s = np.abs(m)
    s *= ulps * _REL
    s += ulps * _TINY
    m -= s
    return m


def _up(a: np.ndarray, ulps: int) -> np.ndarray:
    """An upper bound at or above ``ulps`` passes of ``nextafter(a, inf)``:
    the mirror image of `_down`, whose proof applies to -a."""
    m = np.maximum(a, -_MAX)
    s = np.abs(m)
    s *= ulps * _REL
    s += ulps * _TINY
    m += s
    return m


def _widen(lo, hi, ulps=_ULPS_ARITH):
    return _down(lo, ulps), _up(hi, ulps)


def kadd(alo, ahi, blo, bhi):
    return _widen(alo + blo, ahi + bhi)


def ksub(alo, ahi, blo, bhi):
    return _widen(alo - bhi, ahi - blo)


def kneg(alo, ahi):
    return -ahi, -alo


def kmul(alo, ahi, blo, bhi):
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _widen(lo, hi)


def kmul_nonneg(dlo, dhi, alo, ahi):
    """`kmul` for a factor known to be non-negative (0 <= dlo <= dhi).

    The sign of each bound of a picks the factor whose product is extreme,
    so one product per bound replaces `kmul`'s four and its min/max trees.
    Rounding is monotone, so the bounds are `kmul`'s up to the sign of a
    zero, which the widening erases: the result is `kmul`'s bit for bit.
    """
    lo = np.where(alo >= 0.0, dlo, dhi) * alo
    hi = np.where(ahi >= 0.0, dhi, dlo) * ahi
    return _widen(lo, hi)


def kscale(c, alo, ahi):
    """Multiply by a point scalar, or by point scalars ``c`` (an array
    broadcasting against a), each bound by the factor its sign picks."""
    if np.ndim(c):
        pos = c >= 0
        return _widen(c * np.where(pos, alo, ahi), c * np.where(pos, ahi, alo))
    if c >= 0:
        return _widen(c * alo, c * ahi)
    return _widen(c * ahi, c * alo)


def kdiv(alo, ahi, blo, bhi):
    if np.any((blo <= 0.0) & (bhi >= 0.0)):
        raise ex.DomainError("division by an interval containing zero")
    q1, q2, q3, q4 = alo / blo, alo / bhi, ahi / blo, ahi / bhi
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    return _widen(lo, hi)


def kpow(alo, ahi, n: int):
    if n == 0:
        return np.ones_like(alo), np.ones_like(ahi)
    if n == 1:
        return alo.copy(), ahi.copy()
    pl, ph = alo ** n, ahi ** n
    if n % 2 == 1:
        return _widen(pl, ph, _ULPS_LIBM)
    lo = np.where((alo <= 0.0) & (ahi >= 0.0), 0.0, np.minimum(pl, ph))
    hi = np.maximum(pl, ph)
    lo2, hi2 = _widen(lo, hi, _ULPS_LIBM)
    return np.maximum(lo2, 0.0), hi2


def ktanh(alo, ahi):
    lo, hi = _widen(np.tanh(alo), np.tanh(ahi), _ULPS_LIBM)
    return np.maximum(lo, -1.0), np.minimum(hi, 1.0)


def kexp(alo, ahi):
    lo, hi = _widen(np.exp(alo), np.exp(ahi), _ULPS_LIBM)
    return np.maximum(lo, 0.0), hi


def kln(alo, ahi):
    if np.any(alo <= 0.0):
        raise ex.DomainError("ln over an interval reaching <= 0")
    return _widen(np.log(alo), np.log(ahi), _ULPS_LIBM)


def ksqrt(alo, ahi):
    lo = np.sqrt(np.maximum(alo, 0.0))
    hi = np.sqrt(np.maximum(ahi, 0.0))
    lo, hi = _widen(lo, hi)
    return np.maximum(lo, 0.0), hi


def kintersect(alo, ahi, blo, bhi):
    """The meet of two sound enclosures of the same values.  Both hold the
    value, so they meet; should rounding ever make them disjoint, their
    hull still encloses it."""
    ilo = np.maximum(alo, blo)
    ihi = np.minimum(ahi, bhi)
    bad = ilo > ihi
    if np.any(bad):
        ilo[bad] = np.minimum(alo[bad], blo[bad])
        ihi[bad] = np.maximum(ahi[bad], bhi[bad])
    return ilo, ihi


def _dot_err(absmax_sum: np.ndarray, k_terms: int) -> np.ndarray:
    # forward-error bound for k rounded products plus their rounded sum:
    # |fl(sum) - sum| <= gamma_k * sum |terms| with gamma_k ~ k u (Higham,
    # "Accuracy and Stability of Numerical Algorithms", 3.1) holds for ANY
    # order and grouping of the additions, and fused multiply-adds only
    # drop roundings, so BLAS kernels with blocked or reordered sums are
    # covered.  (2k + 4) eps = (4k + 8) u also absorbs the rounding of
    # absmax_sum itself, the one extra addition joining the W+ and W-
    # halves, and the final subtraction/addition of the error; 1e-300
    # covers the absolute underflow error of every product.
    return (2 * k_terms + 4) * _EPS * absmax_sum + 1e-300


def kaffine(W: np.ndarray, b: Optional[np.ndarray], alo, ahi):
    """Interval image of x -> W x + b for a point matrix W (out, in).

    ``alo, ahi``: (..., in) -> returns (..., out).  Points given as one
    array (``alo is ahi``) make one product pair: addition commutes.
    """
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    lo = alo @ Wp.T + ahi @ Wn.T
    hi = lo if alo is ahi else ahi @ Wp.T + alo @ Wn.T
    if b is not None:
        lo = lo + b
        hi = lo if alo is ahi else hi + b
    absmax = np.abs(alo) if alo is ahi else np.maximum(np.abs(alo), np.abs(ahi))
    err = _dot_err(absmax @ np.abs(W).T + (np.abs(b) if b is not None else 0.0), W.shape[1])
    return lo - err, hi + err


def kmatmul_interval(W: np.ndarray, jlo, jhi):
    """Point matrix W (out, mid) times interval matrix (K, mid, n).

    Broadcast matmuls, so BLAS picks the summation order; `_dot_err`
    holds for any order.
    """
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    lo = Wp @ jlo + Wn @ jhi
    hi = Wp @ jhi + Wn @ jlo
    absmax = np.maximum(np.abs(jlo), np.abs(jhi))
    err = _dot_err(np.abs(W) @ absmax, W.shape[1])
    return lo - err, hi + err


# ---------------------------------------------------------------------------
# Public value types
# ---------------------------------------------------------------------------

class Box:
    """An axis-aligned box: per-axis closed intervals, immutable."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).copy()
        hi = np.asarray(hi, dtype=float).copy()
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValueError("Box needs matching non-empty 1-d bounds")
        if np.any(lo > hi) or not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("Box bounds must be finite with lo <= hi")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_bounds(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        arr = np.asarray(bounds, dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def corners(self) -> np.ndarray:
        n = self.dim
        idx = np.indices((2,) * n).reshape(n, -1).T
        return np.where(idx == 0, self.lo, self.hi)

    def __repr__(self):
        parts = ", ".join(f"[{l:g}, {h:g}]" for l, h in zip(self.lo, self.hi))
        return f"Box({parts})"

    def __eq__(self, other):
        return isinstance(other, Box) and np.array_equal(self.lo, other.lo) \
            and np.array_equal(self.hi, other.hi)


# ---------------------------------------------------------------------------
# Interval evaluation of compiled expressions
# ---------------------------------------------------------------------------

# The kernels are looked up by their module-level names on each call, so
# a wrapper set on one of those names sees every call.
_KERNEL_OPS = {
    ex.ADD: lambda k, a, b: kadd(*a, *b),
    ex.SUB: lambda k, a, b: ksub(*a, *b),
    ex.MUL: lambda k, a, b: kmul(*a, *b),
    ex.DIV: lambda k, a, b: kdiv(*a, *b),
    ex.NEG: lambda k, a: kneg(*a),
    ex.POW: lambda k, a: kpow(*a, k),
    ex.TANH: lambda k, a: ktanh(*a),
    ex.EXP: lambda k, a: kexp(*a),
    ex.LN: lambda k, a: kln(*a),
}


def _forward(tape: ex.Tape, lo: np.ndarray, hi: np.ndarray) -> list:
    """The enclosure (lo, hi) of every slot of ``tape`` over K boxes given
    as (K, n) bound arrays: the natural interval extension."""
    def leaf(op, k):
        if op == ex.CONST:
            v = np.full(lo.shape[0], k)
            return v, v.copy()
        return lo[:, k].copy(), hi[:, k].copy()

    return tape.run(leaf, _KERNEL_OPS)


def expr_interval_many(tape, lo: np.ndarray, hi: np.ndarray):
    """Enclosures over K boxes given as (K, n) bound arrays.

    ``tape`` is an Expr, giving one (lo, hi) pair of (K,) arrays, or an
    `ex.Tape`, giving a list of such pairs, one per output.
    """
    t = ex.as_tape(tape)
    st = _forward(t, lo, hi)
    out = [st[s] for s in t.outputs]
    return out if t is tape else out[0]


# ---------------------------------------------------------------------------
# Interval propagation through tanh MLPs (duck-typed: needs .weights,
# .biases as lists of (out, in) / (out,) float arrays, tanh hidden layers,
# identity output).
# ---------------------------------------------------------------------------

def center_offsets(lo, hi):
    """The midpoints m of K boxes, which lie inside them, and an outward
    enclosure (dlo, dhi) of the offsets B - m: a centered form needs the
    real x - m for every x in B, not its rounding."""
    m = 0.5 * (lo + hi)
    return (m, *ksub(lo, hi, m, m))


def _times_j(W, jlo, jhi):
    """W J for the Jacobian J of the layers below: `kmatmul_interval`, or,
    while J is the identity (``jlo`` None), its bits, which are exact W
    widened by `_dot_err`, in one (1, out, n) row for all boxes."""
    if jlo is None:
        err = _dot_err(np.abs(W), W.shape[1])
        return (W - err)[None], (W + err)[None]
    return kmatmul_interval(W, jlo, jhi)


def _hessian_layer(W, alo, ahi, dlo, dhi, mlo, mhi, cols):
    """One hidden layer of the second-order stream: the entries p <= q
    (in `np.triu_indices` order) of

        T_k = s''(z) (WJ)_p (WJ)_q + s'(z) W T_{k-1}
            = s'(z) (W T_{k-1} - 2 tanh(z) (WJ)_p (WJ)_q),

    from a = tanh(z), d = s'(z), M = W J_{k-1} and T_{k-1} (``cols``: one
    (K, m) pair per entry, or None where it is exactly 0), with
    s'' = -2 tanh s'.  The factored form costs one product fewer, and as
    a product of a sum it is the tighter enclosure (subdistributivity).
    Entry by entry, the temporaries stay the size of one layer's values."""
    slo, shi = kscale(-2.0, alo, ahi)
    out = []
    for c, (p, q) in enumerate(zip(*np.triu_indices(mlo.shape[2]))):
        if p == q:
            olo, ohi = kpow(mlo[:, :, p], mhi[:, :, p], 2)
        else:
            olo, ohi = kmul(mlo[:, :, p], mhi[:, :, p], mlo[:, :, q], mhi[:, :, q])
        olo, ohi = kmul(slo, shi, olo, ohi)
        if cols is not None:
            olo, ohi = kadd(olo, ohi, *kaffine(W, None, *cols[c]))
        out.append(kmul_nonneg(dlo, dhi, olo, ohi))
    return out


def _natural(net, lo: np.ndarray, hi: np.ndarray, order: int) -> tuple:
    """The layerwise natural enclosures of a tanh network over K boxes:
    ``(vlo, vhi)`` of shape (K,), then the input gradient's ``(glo, ghi)``
    of shape (K, n) if ``order`` >= 1, then the Hessian's upper triangle
    ``(hlo, hhi)`` of shape (K, n(n+1)/2) if ``order`` is 2.

    One forward pass carries the value, the Jacobian J_k = s'(z) W J_{k-1}
    and the second-order stream T_k = s''(z) (WJ)(WJ)' + s'(z) W T_{k-1},
    s'' = -2 tanh s' (`_hessian_layer`), on the same outward-rounded
    kernels; the diagonal squares go through `kpow`.  J_0 is the identity,
    so the first layer's W J_0 and (WJ)_p (WJ)_q are one row (`_times_j`).
    """
    n_in = lo.shape[1]
    alo, ahi = lo, hi
    jlo = jhi = None   # J_0
    cols = None   # the Hessian stream, entry by entry; None while it is exactly 0
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        alo, ahi = kaffine(W, b, alo, ahi)
        if i == last:
            break
        alo, ahi = ktanh(alo, ahi)
        if order:
            mlo, mhi = _times_j(W, jlo, jhi)
            # tanh'(z) = 1 - tanh(z)^2, enclosed from the tanh enclosure
            s2lo, s2hi = kpow(alo, ahi, 2)
            dlo = np.clip(_down(1.0 - s2hi, _ULPS_ARITH), 0.0, 1.0)
            dhi = np.clip(_up(1.0 - s2lo, _ULPS_ARITH), 0.0, 1.0)
            if order == 2:
                cols = _hessian_layer(W, alo, ahi, dlo, dhi, mlo, mhi, cols)
            jlo, jhi = kmul_nonneg(dlo[:, :, None], dhi[:, :, None], mlo, mhi)
    out = (alo[:, 0], ahi[:, 0])
    if order:   # one row for all boxes if there is no hidden layer
        jlo, jhi = _times_j(net.weights[-1], jlo, jhi)
        out += tuple(np.broadcast_to(j[:, 0, :], lo.shape).copy() for j in (jlo, jhi))
    if order == 2 and cols is None:   # no hidden layer: W_N is affine
        h = np.zeros((lo.shape[0], n_in * (n_in + 1) // 2))
        out += (h, h.copy())
    elif order == 2:
        h = [kaffine(net.weights[-1], None, *c) for c in cols]   # (K, 1) pairs
        out += (np.concatenate([o[0] for o in h], axis=1),
                np.concatenate([o[1] for o in h], axis=1))
    return out


def net_interval_many(net, lo: np.ndarray, hi: np.ndarray, want_hess: bool = False):
    """Interval enclosures of a tanh network over K boxes.

    Returns ``(vlo, vhi, glo, ghi)``: the value, shape (K,), and the input
    gradient, shape (K, n).  With ``want_hess`` it goes on with
    ``(gmlo, gmhi)``, the gradient at the midpoints ``center_offsets(lo,
    hi)[0]``, and ``(hlo, hhi)``, the Hessian's upper triangle row by row
    (the order of `np.triu_indices`).  Only the centered form of the
    decrease condition (`verify.NetLieFn`) reads those, and callers that
    leave ``want_hess`` off pay nothing for them.

    The value enclosure is the layerwise natural one (`_natural`)
    intersected with the mean-value form  W(c) + grad(B) . (B - c),
    which is much tighter on small boxes.  The center value W(c) is
    itself enclosed by a natural pass over the degenerate boxes at c, so
    the mean-value bound stays sound under floating point.
    """
    n_in = lo.shape[1]
    vlo, vhi, glo, ghi, *hess = _natural(net, lo, hi, 2 if want_hess else 1)
    c = 0.5 * (lo + hi)
    fc_lo, fc_hi, *grad_c = _natural(net, c, c, 1 if want_hess else 0)
    rad = _up(np.maximum(hi - c, c - lo), _ULPS_ARITH)
    mag = np.maximum(np.abs(glo), np.abs(ghi))
    spread = (mag * rad).sum(axis=1)
    spread = spread + _dot_err(spread, n_in)
    vlo, vhi = kintersect(vlo, vhi, _down(fc_lo - spread, _ULPS_ARITH),
                          _up(fc_hi + spread, _ULPS_ARITH))
    return (vlo, vhi, glo, ghi, *grad_c, *hess)


# ---------------------------------------------------------------------------
# HC4-revise: contract boxes against a constraint  e(x) <= 0.
# One forward sweep stores every slot's enclosure; one backward sweep pushes
# the restricted output range down through inverse operations.  All backward
# computations round outward, so the contracted box is always a superset of
# the true feasible region; an empty intersection proves infeasibility.
# ---------------------------------------------------------------------------

_INF = np.inf


def _meet(st, rlo, rhi, empty):
    """Intersect a node's enclosure with a backward range, flag empty rows."""
    nlo = np.maximum(st[0], rlo)
    nhi = np.minimum(st[1], rhi)
    bad = ~(nlo <= nhi)  # catches inverted and NaN rows alike
    empty |= bad
    nlo = np.where(bad, 0.0, nlo)
    nhi = np.where(bad, 0.0, nhi)
    return nlo, nhi


def _kdiv_loose(alo, ahi, blo, bhi):
    """Division that degrades to the whole line where the divisor spans 0."""
    spans = (blo <= 0.0) & (bhi >= 0.0)
    safe_blo = np.where(spans, 1.0, blo)
    safe_bhi = np.where(spans, 1.0, bhi)
    qlo, qhi = kdiv(alo, ahi, safe_blo, safe_bhi)
    return np.where(spans, -_INF, qlo), np.where(spans, _INF, qhi)


def _kdiv_const(vlo, vhi, p: float):
    """`_kdiv_loose` by a point divisor p, bit for bit where vlo <= vhi: the
    two quotients ordered by p's sign are `kdiv`'s bounds (division is
    monotone) up to the sign of a zero, which the widening erases."""
    if p == 0.0:
        return np.full(vlo.shape, -_INF), np.full(vlo.shape, _INF)
    return _widen(vlo / p, vhi / p) if p > 0.0 else _widen(vhi / p, vlo / p)


def _nthroot(v, n):
    """Real n-th root, before outward rounding."""
    return np.sign(v) * np.abs(v) ** (1.0 / n)


def _narrow(rng: list, s: int, lo, hi):
    """Intersect the backward range gathered for slot ``s`` with (lo, hi)."""
    rng[s] = (lo, hi) if rng[s] is None else \
        (np.maximum(rng[s][0], lo), np.minimum(rng[s][1], hi))


def hc4_contract(tape, lo: np.ndarray, hi: np.ndarray):
    """Contract boxes against ``e(x) <= 0``.

    ``tape`` is an Expr or a one-output `ex.Tape` holding e.  Returns
    (lo2, hi2, infeasible).  The contracted boxes enclose every point of
    the originals satisfying the constraint; rows flagged infeasible
    contain no such point at all.

    The backward sweep walks the slots in reverse.  A slot first meets
    its forward enclosure with what all of its parents projected onto it,
    then projects that range onto its arguments.  A slot that nothing
    projects onto (the base of x^0) is left alone.
    """
    t = ex.as_tape(tape)
    if len(t.outputs) != 1:
        raise ValueError(f"hc4_contract takes one constraint, got {len(t.outputs)}")
    st = _forward(t, lo, hi)
    K = lo.shape[0]
    empty = np.zeros(K, dtype=bool)
    lo2, hi2 = lo.copy(), hi.copy()
    rng: list = [None] * len(st)
    rng[t.outputs[0]] = (np.full(K, -_INF), np.zeros(K))
    with np.errstate(all="ignore"):
        for s in range(len(st) - 1, -1, -1):
            if rng[s] is None:
                continue
            vlo, vhi = _meet(st[s], *rng[s], empty)
            op, a, k = t.slots[s]
            if op == ex.VAR:
                lo2[:, k] = np.maximum(lo2[:, k], vlo)
                hi2[:, k] = np.minimum(hi2[:, k], vhi)
            elif op == ex.ADD:
                _narrow(rng, a[0], *ksub(vlo, vhi, *st[a[1]]))
                _narrow(rng, a[1], *ksub(vlo, vhi, *st[a[0]]))
            elif op == ex.SUB:
                _narrow(rng, a[0], *kadd(vlo, vhi, *st[a[1]]))
                _narrow(rng, a[1], *ksub(*st[a[0]], vlo, vhi))
            elif op == ex.MUL:
                for x, y in ((a[0], a[1]), (a[1], a[0])):
                    yop, _, p = t.slots[y]
                    _narrow(rng, x, *(_kdiv_const(vlo, vhi, p) if yop == ex.CONST
                                      else _kdiv_loose(vlo, vhi, *st[y])))
            elif op == ex.DIV:
                _narrow(rng, a[0], *kmul(vlo, vhi, *st[a[1]]))
                _narrow(rng, a[1], *_kdiv_loose(*st[a[0]], vlo, vhi))
            elif op == ex.NEG:
                _narrow(rng, a[0], -vhi, -vlo)
            elif op == ex.POW and k == 0:
                empty |= (1.0 < vlo) | (1.0 > vhi)
            elif op == ex.POW and k % 2 == 1:
                _narrow(rng, a[0], _down(_nthroot(vlo, k), _ULPS_LIBM),
                        _up(_nthroot(vhi, k), _ULPS_LIBM))
            elif op == ex.POW:
                # even power: |base| <= rhi^(1/n); keep the sign side the current
                # enclosure already determines, otherwise the symmetric hull
                r = _up(_nthroot(np.maximum(vhi, 0.0), k), _ULPS_LIBM)
                q = np.where(vlo > 0.0, _down(_nthroot(vlo, k), _ULPS_LIBM), 0.0)
                _narrow(rng, a[0], np.where(st[a[0]][0] >= 0.0, q, -r),
                        np.where(st[a[0]][1] <= 0.0, -q, r))
            elif op == ex.TANH:
                _narrow(rng, a[0],
                        np.where(vlo > -1.0, _down(np.arctanh(np.minimum(vlo, 1.0)), _ULPS_LIBM),
                                 -_INF),
                        np.where(vhi < 1.0, _up(np.arctanh(np.maximum(vhi, -1.0)), _ULPS_LIBM),
                                 _INF))
            elif op == ex.EXP:
                empty |= vhi <= 0.0
                _narrow(rng, a[0],
                        np.where(vlo > 0.0, _down(np.log(np.maximum(vlo, 1e-308)), _ULPS_LIBM),
                                 -_INF),
                        np.where(vhi > 0.0, _up(np.log(np.maximum(vhi, 1e-308)), _ULPS_LIBM),
                                 _INF))
            elif op == ex.LN:
                _narrow(rng, a[0], *kexp(vlo, vhi))
    empty |= np.any(~(lo2 <= hi2), axis=1)
    lo2 = np.where(empty[:, None], lo, lo2)
    hi2 = np.where(empty[:, None], hi, hi2)
    return lo2, hi2, empty


# ---------------------------------------------------------------------------
# Conditions and the branch-and-bound engine
# ---------------------------------------------------------------------------

class ScalarFn:
    """A scalar function of x that can be bounded over boxes.

    Subclasses provide batched point evaluation and batched interval
    evaluation; ``to_expr`` gives the symbolic form when one exists
    (used by the SMT-LIB exporter).
    """

    dim: int

    def eval_points(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_boxes(self, lo: np.ndarray, hi: np.ndarray):
        raise NotImplementedError

    def contract_boxes(self, lo: np.ndarray, hi: np.ndarray):
        """Shrink boxes toward the region where this antecedent can hold
        (f(x) <= 0), returning (lo2, hi2, infeasible_mask).  The default
        only detects infeasibility from the interval lower bound."""
        glo, _ = self.eval_boxes(lo, hi)
        return lo, hi, glo > 0.0

    def to_expr(self) -> ex.Expr:
        raise UnsupportedPrimitive(f"{type(self).__name__} has no symbolic form")


class ExprFn(ScalarFn):
    def __init__(self, e: ex.Expr, dim: int):
        self.expr = e
        self.tape = ex.compile([e])
        self.dim = dim

    def eval_points(self, X):
        return ex.evaluate_many(self.tape, X)[0]

    def eval_boxes(self, lo, hi):
        return expr_interval_many(self.tape, lo, hi)[0]

    def contract_boxes(self, lo, hi):
        return hc4_contract(self.tape, lo, hi)

    def to_expr(self):
        return self.expr

    def __repr__(self):
        return f"ExprFn({ex.to_str(self.expr)})"


@dataclass(frozen=True)
class Condition:
    """(g_1(x) <= 0 and ... and g_m(x) <= 0)  ==>  h(x) <= 0."""

    antecedents: tuple
    consequent: ScalarFn
    name: str = ""

    def holds_at(self, x) -> bool:
        X = np.asarray(x, dtype=float)[None, :]
        for g in self.antecedents:
            if g.eval_points(X)[0] > 0.0:
                return True  # antecedent false: implication vacuously true
        return bool(self.consequent.eval_points(X)[0] <= 0.0)


@dataclass(frozen=True)
class Certified:
    boxes_processed: int = 0


@dataclass(frozen=True)
class Falsified:
    witness: np.ndarray
    margin: float
    boxes_processed: int = 0


@dataclass(frozen=True)
class Unknown:
    box: Box
    delta: float
    boxes_processed: int = 0


VerifyOutcome = Union[Certified, Falsified, Unknown]


class BudgetExhausted(RuntimeError):
    def __init__(self, processed: int, pending: int):
        super().__init__(f"branch-and-bound budget exhausted after {processed} boxes "
                         f"({pending} still pending)")
        self.processed = processed
        self.pending = pending


_CHUNK = 512   # boxes per chunk: enough rows to amortize NumPy's call overhead


def _bnb(cond: Condition, X: Box, delta: float, budget: int):
    """The depth-first branch-and-bound loop, as a generator.

    Each popped chunk of boxes is contracted against the antecedents (HC4
    for expressions, a feasibility test otherwise).  A box found empty is
    discarded, as is one where the consequent's interval upper bound is
    <= 0; the centers of the others are probed in point arithmetic.  A
    chunk with violating probes (genuine counterexamples) or surviving
    boxes of width <= delta yields ``(processed, probes, margins, dlo,
    dhi)`` and resumes with the condition sent back, dropping those
    delta-boxes and bisecting the other survivors.  An empty stack yields
    the box count alone.  Raises ``BudgetExhausted`` past ``budget`` boxes.
    """
    if not delta > 0:   # NaN fails too
        raise ValueError("delta must be positive")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # the stack is two (capacity, n) arrays whose first `top` rows are live,
    # row top-1 being the top; a chunk pops its rows top first
    slo = np.empty((max(2 * _CHUNK, 64), X.dim))
    shi = np.empty_like(slo)
    slo[0], shi[0] = X.lo, X.hi
    top = 1
    processed = 0
    while top:
        take = min(_CHUNK, top)
        if processed + take > budget:
            raise BudgetExhausted(processed, top)
        processed += take
        blo = slo[top - take:top][::-1].copy()
        bhi = shi[top - take:top][::-1].copy()
        top -= take

        alive = np.ones(take, dtype=bool)
        for g in cond.antecedents:
            blo, bhi, dead = g.contract_boxes(blo, bhi)
            alive &= ~dead
        if np.any(alive):
            # full-chunk evaluation lets condition functions share cached
            # enclosures with the antecedent pass
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
        lo_s, hi_s = blo[idx], bhi[idx]
        small = np.all(hi_s - lo_s <= delta, axis=1)
        if np.any(viol) or np.any(small):
            cond = yield processed, mids[viol], hv[viol], lo_s[small], hi_s[small]
            lo_s, hi_s = lo_s[~small], hi_s[~small]
        # bisect each box along its widest axis; in stack order box j
        # pushes its left child (row 2j), then its right one (2j + 1)
        m = len(lo_s)
        if top + 2 * m > len(slo):   # m <= _CHUNK <= len(slo) / 2
            slo = np.concatenate([slo, np.empty_like(slo)])
            shi = np.concatenate([shi, np.empty_like(shi)])
        j = np.arange(m)
        axis = np.argmax(hi_s - lo_s, axis=1)
        mid = 0.5 * (lo_s[j, axis] + hi_s[j, axis])
        slo[top:top + 2 * m] = np.repeat(lo_s, 2, axis=0)
        shi[top:top + 2 * m] = np.repeat(hi_s, 2, axis=0)
        shi[top + 2 * j, axis] = mid
        slo[top + 2 * j + 1, axis] = mid
        top += 2 * m
    none = np.empty((0, X.dim))
    yield processed, none, np.empty(0), none, none


def bnb_verify(cond: Condition, X: Box, delta: float = 1e-3,
               budget: int = 5_000_000) -> VerifyOutcome:
    """Decide ``forall x in X: antecedents(x) => consequent(x)`` up to delta.

    ``Falsified`` at the first violating probe of `_bnb`, else ``Unknown``
    at its first delta-box; ``Certified`` when every box is discarded.
    """
    n, probes, margins, dlo, dhi = next(_bnb(cond, X, delta, budget))
    if len(probes):
        return Falsified(witness=probes[0].copy(), margin=float(margins[0]), boxes_processed=n)
    if len(dlo):
        return Unknown(box=Box(dlo[0], dhi[0]), delta=delta, boxes_processed=n)
    return Certified(boxes_processed=n)


@dataclass(frozen=True)
class LevelSearch:
    """What `bnb_minimize` found: the level it lowered ``make``'s
    condition to, the boxes it processed, whether it ran until its stack
    was empty, and the delta-boxes it dropped (``dlo``, ``dhi``: the open
    leaves of its tree), which `proves` needs."""

    make: Callable
    level: float
    boxes_processed: int
    complete: bool
    dlo: np.ndarray
    dhi: np.ndarray

    def proves(self, level: float) -> bool:
        """Whether this search proves ``make(level)``, without a new search.

        The search ran ``make(u)`` at falling levels u, all at or above
        ``self.level``, so at or above any ``level <= self.level``.  Only
        the first antecedent, l(x) - u, depends on u, and it gets harder
        to satisfy as u falls.  So every box the search discarded is still
        discarded at ``level``: HC4 emptied it or cut it down, or an
        antecedent was proved infeasible, at some u >= ``level`` (or, for
        the other antecedents, at every level), or the consequent was
        proved, which no level changes.  A box whose probe violated the
        condition was split, not dropped.  The only leaves left open are
        the dropped delta-boxes.  If the first antecedent at ``level`` is
        proved infeasible on every one of them (the outward-rounded flag
        of ``contract_boxes``), every point meeting the antecedents at
        ``level`` lies in a leaf where the consequent was proved, and the
        condition holds.  A search stopped at its floor left boxes
        unexamined and proves nothing; neither does it prove a level above
        its own, where boxes found infeasible at lower u may be feasible.
        """
        if not (self.complete and level <= self.level):
            return False
        first = self.make(level).antecedents[0]
        return all(np.all(first.contract_boxes(self.dlo[i:i + _CHUNK], self.dhi[i:i + _CHUNK])[2])
                   for i in range(0, len(self.dlo), _CHUNK))


def bnb_minimize(make, level: float, X: Box, floor: float = 0.0, delta: float = 1e-3,
                 budget: int = 5_000_000) -> LevelSearch:
    """Lower ``level`` to about the least one at which ``make(level)``
    fails, in the style of Moore-Skelboe global minimization, and keep
    the tree's open leaves so that `LevelSearch.proves` can certify the
    condition a little below that level from this one search.

    ``make(u)`` builds a condition whose first antecedent is ``l(x) - u``
    and whose other antecedents and consequent do not depend on u.
    Callers must keep that invariant: `LevelSearch.proves` rests on it.
    At each yield of `_bnb` the level drops to the least l over the
    violating probes and the least interval lower bound of l over the
    delta-boxes, and the loop goes on with the condition rebuilt there;
    boxes discarded at a higher level stay discarded.  Stops early, and
    incomplete, at a level <= ``floor``.  Raises ``BudgetExhausted``
    past ``budget`` boxes.
    """
    none = np.empty((0, X.dim))
    if level <= floor:
        return LevelSearch(make, level, 0, False, none, none)
    cond = make(level)
    steps = _bnb(cond, X, delta, budget)
    n, probes, _, dlo, dhi = next(steps)
    kept_lo, kept_hi = [dlo], [dhi]
    while len(probes) or len(dlo):
        g, drop = cond.antecedents[0], 0.0   # g = l - level
        if len(probes):
            drop = min(drop, float(g.eval_points(probes).min()))
        if len(dlo):
            drop = min(drop, float(g.eval_boxes(dlo, dhi)[0].min()))
        level += drop
        if level <= floor:
            break
        cond = make(level)
        n, probes, _, dlo, dhi = steps.send(cond)
        kept_lo.append(dlo)
        kept_hi.append(dhi)
    # only the last yield of `_bnb`, at an empty stack, brings neither
    complete = not (len(probes) or len(dlo))
    return LevelSearch(make, level, n, complete, np.concatenate(kept_lo), np.concatenate(kept_hi))
