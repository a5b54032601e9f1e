import numpy as np
import pytest

from zubov import dynamics as dyn
from zubov import expr as ex


class TestBuiltins:
    def test_names(self):
        assert set(dyn.BUILTIN_NAMES) == {"cubic1d", "reversed_vdp", "poly2d"}

    def test_unknown(self):
        with pytest.raises(dyn.UnknownSystem):
            dyn.builtin("lorenz")

    def test_vdp_domain(self):
        s = dyn.builtin("reversed_vdp")
        assert np.allclose(s.domain.lo, [-2.5, -3.5])
        assert np.allclose(s.domain.hi, [2.5, 3.5])

    def test_poly_domain(self):
        s = dyn.builtin("poly2d")
        assert np.allclose(s.domain.lo, [-6, -6])
        assert np.allclose(s.domain.hi, [6, 6])

    def test_cubic_equilibrium_and_domain(self):
        s = dyn.builtin("cubic1d")
        assert np.allclose(s.equilibrium, [0.0])
        assert np.allclose(s.domain.lo, [-0.95])
        assert np.allclose(s.domain.hi, [0.95])

    def test_equilibrium_is_zero_of_field(self):
        for name in dyn.BUILTIN_NAMES:
            s = dyn.builtin(name)
            assert np.max(np.abs(s.field(s.equilibrium))) <= 1e-12


class TestLinearize:
    def test_vdp(self):
        lin = dyn.linearize(dyn.builtin("reversed_vdp"))
        assert np.allclose(lin.A, [[0, -1], [1, -1]])

    def test_poly(self):
        lin = dyn.linearize(dyn.builtin("poly2d"))
        assert np.allclose(lin.A, [[0, 1], [-2, -1]])

    def test_linear_field_recovers_A_with_zero_g(self):
        s = dyn.make_system("lin", 2, ["-x1 + 2*x2", "-3*x2"], [[-1, 1], [-1, 1]])
        lin = dyn.linearize(s)
        assert np.allclose(lin.A, [[-1, 2], [0, -3]])
        X = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))
        assert np.max(np.abs(lin.g.eval_many(X))) <= 1e-14

    def test_dg_vanishes_at_origin(self):
        for name in dyn.BUILTIN_NAMES:
            s = dyn.builtin(name)
            lin = dyn.linearize(s)
            z = np.zeros(s.dim)
            for row in lin.dg:
                for entry in row:
                    assert abs(ex.evaluate(entry, z)) <= 1e-14

    def test_g_equals_f_minus_Ax(self):
        s = dyn.builtin("reversed_vdp")
        lin = dyn.linearize(s)
        X = np.random.default_rng(2).uniform(-2, 2, size=(100, 2))
        gx = lin.g.eval_many(X)
        expect = s.f_many(X) - X @ lin.A.T
        assert np.allclose(gx, expect, atol=1e-12)


class TestLyapunov:
    def test_vdp_paper_value(self):
        A = np.array([[0.0, -1.0], [1.0, -1.0]])
        sol = dyn.solve_lyapunov(A, np.eye(2))
        assert np.allclose(sol.P, [[1.5, -0.5], [-0.5, 1.0]], atol=1e-12)
        assert sol.residual <= 1e-10
        assert sol.pos_def

    def test_poly_paper_value(self):
        A = np.array([[0.0, 1.0], [-2.0, -1.0]])
        sol = dyn.solve_lyapunov(A, np.eye(2))
        assert np.allclose(sol.P, [[1.75, 0.25], [0.25, 0.75]], atol=1e-12)
        assert sol.residual <= 1e-10

    def test_scalar_identity(self):
        sol = dyn.solve_lyapunov(-np.eye(2), 2 * np.eye(2))
        assert np.allclose(sol.P, np.eye(2), atol=1e-12)

    def test_singular_pair(self):
        # eigenvalues +1 and -1 sum to zero
        A = np.diag([1.0, -1.0])
        with pytest.raises(dyn.SingularSystem):
            dyn.solve_lyapunov(A, np.eye(2))

    def test_not_stable_flagged(self):
        sol = dyn.solve_lyapunov(np.diag([1.0, 2.0]), np.eye(2))
        assert not sol.pos_def

    def test_q_must_be_posdef(self):
        with pytest.raises(ValueError):
            dyn.solve_lyapunov(-np.eye(2), -np.eye(2))

    def test_random_hurwitz_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            M = rng.normal(size=(n, n))
            S = rng.normal(size=(n, n)) * 0.1
            A = -(M @ M.T) - np.eye(n) + (S - S.T)
            sol = dyn.solve_lyapunov(A, np.eye(n))
            assert sol.residual <= 1e-10
            assert np.max(np.abs(sol.P - sol.P.T)) <= 1e-12
            assert sol.pos_def


class TestLambdaMin:
    def test_identity(self):
        assert dyn.lambda_min(np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_diag(self):
        assert dyn.lambda_min(np.diag([2.0, 5.0])) == pytest.approx(2.0, abs=1e-10)

    def test_two_by_two(self):
        # characteristic roots of [[2,1],[1,2]] are 1 and 3
        assert dyn.lambda_min(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-10)

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            dyn.lambda_min(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSystemDef:
    def test_custom_from_strings(self):
        s = dyn.make_system("osc", 2, ["x2", "-x1 - 0.5*x2"], [[-2, 2], [-2, 2]])
        assert s.dim == 2
        assert np.allclose(s.field([1.0, 0.0]), [0.0, -1.0])

    def test_nonzero_equilibrium_rejected(self):
        with pytest.raises(ValueError):
            dyn.make_system("bad", 1, ["1 + x1"], [[-2, 2]])

    def test_equilibrium_interior(self):
        with pytest.raises(ValueError):
            dyn.SystemDef("edge", 1, ex.VectorField(1, (ex.parse("-x1", 1),)),
                          np.zeros(1), dyn.Box([0.0], [1.0]))
