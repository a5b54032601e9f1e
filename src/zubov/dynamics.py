"""Benchmark systems, linearization, and the continuous-time Lyapunov solve.

The local-stability route needs three ingredients: the Jacobian A of the
field at the origin, the quadratic form P solving P A + A' P = -Q, and
the nonlinear remainder g(x) = f(x) - A x together with its Jacobian
Dg = Df - A (which vanishes at the origin by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import expr as ex
from .interval import Box

__all__ = [
    "SystemDef", "Linearization", "LyapunovSolution",
    "UnknownSystem", "SingularSystem",
    "builtin", "BUILTIN_NAMES", "make_system", "linearize",
    "solve_lyapunov", "lambda_min",
]


class UnknownSystem(KeyError):
    pass


class SingularSystem(ArithmeticError):
    """The Lyapunov equation is singular (A has eigenvalues summing to zero)."""


@dataclass(frozen=True)
class SystemDef:
    """An ODE system x' = f(x) with equilibrium at the origin."""

    name: str
    dim: int
    field: ex.VectorField
    equilibrium: np.ndarray
    domain: Box
    notes: str = ""

    def __post_init__(self):
        eq = np.asarray(self.equilibrium, dtype=float)
        object.__setattr__(self, "equilibrium", eq)
        if self.field.dim != self.dim or eq.shape != (self.dim,) or self.domain.dim != self.dim:
            raise ValueError("dimension mismatch between field, equilibrium, and domain")
        if np.max(np.abs(self.field(eq))) > 1e-12:
            raise ValueError("equilibrium does not satisfy f(x*) = 0 within 1e-12")
        if not (np.all(self.domain.lo < eq) and np.all(eq < self.domain.hi)):
            raise ValueError("equilibrium must lie in the interior of the domain")

    def f_many(self, X: np.ndarray) -> np.ndarray:
        return self.field.eval_many(X)

    @cached_property
    def linearization(self) -> "Linearization":
        """`linearize(self)`, computed on first use and kept: the system
        never changes, and each certificate check needs it."""
        return linearize(self)


def make_system(name: str, dim: int, components: list, domain: list,
                notes: str = "") -> SystemDef:
    """Build a SystemDef from expression strings and [lo, hi] bounds."""
    comps = tuple(ex.parse(c, dim) if isinstance(c, str) else c for c in components)
    return SystemDef(
        name=name,
        dim=dim,
        field=ex.VectorField(dim, comps),
        equilibrium=np.zeros(dim),
        domain=Box.from_bounds(domain),
        notes=notes,
    )


def _cubic1d() -> SystemDef:
    # scalar x' = -x + x^3: origin attracts (-1, 1); the working box stays
    # strictly inside so values and gradients remain moderate
    return make_system("cubic1d", 1, ["-x1 + x1^3"], [[-0.95, 0.95]],
                       notes="scalar cubic with attraction basin (-1, 1)")


def _reversed_vdp() -> SystemDef:
    return make_system(
        "reversed_vdp", 2,
        ["-x2", "x1 - (1 - x1^2)*x2"],
        [[-2.5, 2.5], [-3.5, 3.5]],
        notes="Van der Pol oscillator in reverse time; basin bounded by the limit cycle",
    )


def _poly2d() -> SystemDef:
    return make_system(
        "poly2d", 2,
        ["x2", "-2*x1 + (1/3)*x1^3 - x2"],
        [[-6.0, 6.0], [-6.0, 6.0]],
        notes="polynomial system with unbounded basin delimited by saddle manifolds",
    )


_BUILTINS = {
    "cubic1d": _cubic1d,
    "reversed_vdp": _reversed_vdp,
    "poly2d": _poly2d,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> SystemDef:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise UnknownSystem(f"unknown system {name!r}; choose from {BUILTIN_NAMES}") from None


@dataclass(frozen=True)
class Linearization:
    """A = Df(0), plus the remainder g = f - Ax and its Jacobian exprs."""

    A: np.ndarray
    g: ex.VectorField
    dg: list = dc_field(repr=False, default_factory=list)  # dg[i][j] = d g_i / d x_j
    # the dg entries compiled row-major: output i*n + j is dg[i][j]
    dg_tape: ex.Tape = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.A)):
            raise ValueError("Jacobian at the origin is not finite")
        object.__setattr__(self, "dg_tape", ex.compile([e for row in self.dg for e in row]))


def linearize(sys: SystemDef) -> Linearization:
    n = sys.dim
    A = np.array(ex.evaluate(sys.field.jacobian_tape, np.zeros(n))).reshape(n, n)
    # g_i = f_i - sum_j A[i][j] x_j, kept symbolic so Dg can be interval-evaluated
    g_comps = []
    for i in range(n):
        lin = None
        for j in range(n):
            a = float(A[i][j])   # a plain float prints as parse reads it
            if a == 0.0:
                continue
            term = ex.Mul(ex.Constant(a), ex.Var(j))
            lin = term if lin is None else ex.Add(lin, term)
        g_comps.append(sys.field.components[i] if lin is None
                       else ex.Sub(sys.field.components[i], lin))
    g = ex.VectorField(n, tuple(g_comps))
    dg = g.jacobian_exprs()
    return Linearization(A=A, g=g, dg=dg)


@dataclass(frozen=True)
class LyapunovSolution:
    P: np.ndarray
    pos_def: bool       # Cholesky succeeded; with Q > 0 this certifies A Hurwitz
    residual: float     # max-norm of P A + A' P + Q


def solve_lyapunov(A: np.ndarray, Q: np.ndarray) -> LyapunovSolution:
    """Solve P A + A' P = -Q by vectorization (dense LU on the Kronecker form)."""
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("A and Q must be square of equal size")
    if np.max(np.abs(Q - Q.T)) > 1e-12:
        raise ValueError("Q must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ValueError("Q must be positive definite") from None
    # vec(PA) = (A' (x) I) vec(P), vec(A'P) = (I (x) A') vec(P), column-major vec
    K = np.kron(A.T, np.eye(n)) + np.kron(np.eye(n), A.T)
    rhs = -Q.flatten(order="F")
    try:
        p = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("Lyapunov operator is singular "
                             "(A has an eigenvalue pair summing to zero)") from None
    cond = np.linalg.cond(K)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularSystem(f"Lyapunov operator numerically singular (cond={cond:.2e})")
    P = p.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    residual = float(np.max(np.abs(P @ A + A.T @ P + Q)))
    try:
        np.linalg.cholesky(P)
        pos_def = True
    except np.linalg.LinAlgError:
        pos_def = False
    return LyapunovSolution(P=P, pos_def=pos_def, residual=residual)


def lambda_min(Q: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    Q = np.asarray(Q, dtype=float)
    if np.max(np.abs(Q - Q.T)) > 1e-12:
        raise ValueError("matrix must be symmetric")
    return float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[0])
