"""Benchmark systems, linearization, and the continuous-time Lyapunov solve.

Every system's equilibrium is the origin, which `SystemDef` checks.
The local-stability route needs three ingredients: the Jacobian A of the
field at the origin, the quadratic form P solving P A + A' P = -I
(`solve_lyapunov(A)`), and the nonlinear remainder g(x) = f(x) - A x
together with its Jacobian Dg = Df - A (which vanishes at the origin by
construction).  A system keeps its P (`SystemDef.lyapunov_P`), the one
quadratic that the integrator's tail, the training hinge and the local
certificate read; it is None where the origin's stability is not
visible in A.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import expr as ex
from .interval import Box

__all__ = [
    "SystemDef", "Linearization", "UnknownSystem", "SingularSystem",
    "builtin", "BUILTIN_NAMES", "make_system", "linearize", "solve_lyapunov",
]


class UnknownSystem(KeyError):
    pass


class SingularSystem(ArithmeticError):
    """The Lyapunov equation is singular (A has eigenvalues summing to zero)."""


@dataclass(frozen=True)
class SystemDef:
    """An ODE system x' = f(x) whose equilibrium is the origin: f(0) = 0
    within 1e-12, and 0 lies in the interior of the domain."""

    name: str
    dim: int
    field: ex.VectorField
    domain: Box
    notes: str = ""

    def __post_init__(self):
        if self.field.dim != self.dim or self.domain.dim != self.dim:
            raise ValueError("dimension mismatch between field and domain")
        if not np.max(np.abs(self.f_many(np.zeros((1, self.dim))))) <= 1e-12:   # NaN fails too
            raise ValueError("the origin is no equilibrium: |f(0)| > 1e-12")
        if not (np.all(self.domain.lo < 0) and np.all(0 < self.domain.hi)):
            raise ValueError("the origin must lie in the interior of the domain")

    def f_many(self, X: np.ndarray) -> np.ndarray:
        return self.field.eval_many(X)

    @cached_property
    def linearization(self) -> "Linearization":
        """`linearize(self)`, computed on first use and kept: the system
        never changes, and each certificate check needs it."""
        return linearize(self)

    @cached_property
    def lyapunov_P(self) -> np.ndarray | None:
        """P with P A + A' P = -I, computed on first use and kept; None if
        A is not finite, the equation is singular or P is not positive
        definite: then no local quadratic exists, as for an origin whose
        stability shows only in the nonlinear terms."""
        try:
            P = solve_lyapunov(self.linearization.A)
            np.linalg.cholesky(P)
        except (SingularSystem, ValueError, np.linalg.LinAlgError):   # A not finite, P not > 0
            return None
        return P


def make_system(name: str, dim: int, components: list, domain: list,
                notes: str = "") -> SystemDef:
    """Build a SystemDef from expression strings and [lo, hi] bounds."""
    comps = tuple(ex.parse(c, dim) if isinstance(c, str) else c for c in components)
    return SystemDef(
        name=name,
        dim=dim,
        field=ex.VectorField(dim, comps),
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
    A = np.array(ex.evaluate_many(sys.field.jacobian_tape, np.zeros((1, n)))).reshape(n, n)
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


def solve_lyapunov(A: np.ndarray) -> np.ndarray:
    """P with P A + A' P = -I, by vectorization (dense LU on the Kronecker
    form), symmetrized exactly."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    # vec(PA) = (A' (x) I) vec(P), vec(A'P) = (I (x) A') vec(P), column-major vec
    K = np.kron(A.T, np.eye(n)) + np.kron(np.eye(n), A.T)
    cond = np.linalg.cond(K)    # inf where A has an eigenvalue pair summing to zero
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularSystem(f"Lyapunov operator numerically singular (cond={cond:.2e})")
    P = np.linalg.solve(K, -np.eye(n).flatten(order="F")).reshape((n, n), order="F")
    return 0.5 * (P + P.T)
