import numpy as np
import pytest

from chanorder.numerics import (
    FeasibilityProblem,
    solve_feasibility,
    singular_values,
    inverse_sqrt_spd,
)


def replay_error(problem, weights):
    return max(
        float(np.max(np.abs(problem.columns @ weights - problem.target))),
        abs(float(weights.sum()) - 1.0),
    )


class TestFeasibility:
    def test_single_point_hull(self):
        v = np.array([0.25, 0.5, 0.25])
        cert = solve_feasibility(FeasibilityProblem([v], v))
        assert cert.feasible
        assert np.allclose(cert.weights, [1.0])

    def test_segment_combination(self):
        cert = solve_feasibility(FeasibilityProblem([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7]))
        assert cert.feasible
        assert np.allclose(cert.weights, [0.7, 0.3], atol=1e-12)
        assert cert.residual <= 1e-9

    def test_off_simplex_target_is_separated(self):
        problem = FeasibilityProblem([[0.0, 1.0], [1.0, 0.0]], [0.6, 0.6])
        cert = solve_feasibility(problem)
        assert not cert.feasible
        h = cert.separator
        margin = h @ problem.target - np.max(h @ problem.columns)
        assert margin > 0.0
        assert cert.residual == pytest.approx(margin)

    def test_random_instances_replay(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            count = int(rng.integers(1, 9))
            columns = rng.random((count, dim))
            if rng.random() < 0.5:
                mix = rng.random(count)
                target = columns.T @ (mix / mix.sum())
            else:
                target = rng.random(dim) * 2.0
            problem = FeasibilityProblem(columns, target)
            cert = solve_feasibility(problem)
            if cert.feasible:
                assert replay_error(problem, cert.weights) <= problem.tolerance
                assert float(cert.weights.min()) >= 0.0
            else:
                h = cert.separator
                margin = h @ problem.target - np.max(h @ problem.columns)
                assert margin > 0.0

    def test_deterministic_for_fixed_input(self):
        columns = np.random.default_rng(3).random((6, 4))
        target = columns.T @ np.full(6, 1 / 6)
        a = solve_feasibility(FeasibilityProblem(columns, target))
        b = solve_feasibility(FeasibilityProblem(columns, target))
        assert np.array_equal(a.weights, b.weights)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeasibilityProblem([[1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 0.0])

    @pytest.mark.parametrize("tolerance", [-1e-3, float("inf"), float("nan")])
    def test_negative_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError):
            FeasibilityProblem([[1.0]], [1.0], tolerance=tolerance)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            FeasibilityProblem([], [1.0])


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([0.5, 2.0])), [2.0, 0.5])

    def test_antidiagonal(self):
        # Eigenvalues of M^T M are 16 and 9 by hand.
        assert np.allclose(singular_values(np.array([[0.0, 3.0], [4.0, 0.0]])), [4.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            singular_values(np.array([[np.inf, 0.0]]))


class TestInverseSqrtSpd:
    def test_identity(self):
        assert np.allclose(inverse_sqrt_spd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(inverse_sqrt_spd(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))

    def test_whitening_identity(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = inverse_sqrt_spd(matrix)
        assert np.max(np.abs(s @ matrix @ s.T - np.eye(2))) <= 1e-10

    def test_random_spd_whitening(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            a = rng.standard_normal((n, n))
            matrix = a @ a.T + 0.5 * np.eye(n)
            s = inverse_sqrt_spd(matrix)
            assert np.max(np.abs(s @ matrix @ s.T - np.eye(n))) <= 1e-10

    def test_non_spd_named_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            inverse_sqrt_spd(np.diag([1.0, -2.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            inverse_sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))
