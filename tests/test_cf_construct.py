"""Characteristic-function construction: deviances, kernels, deconvolution."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dispmodels.cf_construct import (
    CHARACTERISTIC_FUNCTIONS,
    _power_iteration_norm,
    _toeplitz_operator,
    CfSpec,
    cf_deviance,
    cf_unit_deviance,
    convolution_residual,
    get_cf,
    kernel,
    solve_convolution_grid,
    solve_normalizer,
    validate_cf,
)
from dispmodels.deviance import check_unit_deviance
from dispmodels.errors import ConvergenceError, DomainError
from dispmodels._numdiff import derivative

GAUSS = CHARACTERISTIC_FUNCTIONS["gauss"]


class TestCfValidation:
    @pytest.mark.parametrize("name", sorted(CHARACTERISTIC_FUNCTIONS))
    def test_builtins_pass_probes(self, name):
        validate_cf(CHARACTERISTIC_FUNCTIONS[name])

    def test_wrong_origin_rejected(self):
        with pytest.raises(DomainError):
            validate_cf(CfSpec(phi=lambda t: 0.999 if t == 0 else 0.0, name="broken"))

    def test_lattice_like_rejected(self):
        # |phi| = 1 off the origin marks a lattice distribution
        with pytest.raises(DomainError):
            validate_cf(CfSpec(phi=lambda t: 1.0, name="degenerate"))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            validate_cf(CfSpec(phi=lambda t: math.exp(-t * t / 2 + 0.001 * t), name="skew"))

    def test_magnitude_above_one_rejected(self):
        with pytest.raises(DomainError):
            validate_cf(CfSpec(phi=lambda t: 1.0 + t * t, name="blowup"))


class TestCfDeviance:
    def test_zero_on_diagonal(self):
        assert cf_deviance(GAUSS, 1.7, 1.7) == 0.0

    def test_gaussian_value(self):
        assert cf_deviance(GAUSS, 1.0, 0.0) == pytest.approx(0.3934693402873666, rel=1e-14)

    def test_cauchy_cf_value_and_regularity(self):
        # phi(t) = exp(-|t|): 1 - exp(-1) at unit separation; not regular
        laplace_shaped = get_cf("laplace-cf")
        assert cf_deviance(laplace_shaped, 1.0, 0.0) == pytest.approx(
            0.6321205588285577, rel=1e-14
        )
        assert not cf_unit_deviance(laplace_shaped).regular

    def test_unit_deviance_axioms(self):
        dev = cf_unit_deviance(GAUSS)
        assert check_unit_deviance(dev, np.random.default_rng(13), n=100) == []

    def test_finite_second_moment_gives_regular_deviance(self):
        dev = cf_unit_deviance(GAUSS)
        assert dev.regular
        curvature = derivative(lambda m: dev.fn(0.0, m), 0.0, 2)
        assert curvature > 0.0


class TestKernel:
    def test_unity_at_origin(self):
        for cf in CHARACTERISTIC_FUNCTIONS.values():
            assert kernel(cf, 0.7, 0.0) == 1.0

    def test_gaussian_value(self):
        assert kernel(GAUSS, 0.5, 1.0) == pytest.approx(0.6747120037358997, rel=1e-14)

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.nan])
    def test_nonpositive_or_nan_tau_rejected(self, tau):
        with pytest.raises(DomainError):
            kernel(GAUSS, tau, 1.0)

    def test_positive_definiteness_spot_check(self):
        # K is itself a characteristic function: Gram matrices are PSD
        rng = np.random.default_rng(21)
        ts = rng.uniform(-5, 5, size=8)
        gram = np.array([[kernel(GAUSS, 0.5, float(a - b)) for b in ts] for a in ts])
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-10

    def test_tail_plateau(self):
        # for phi >= 0 the kernel stays within [exp(-1/(2 tau)) - 1e-3, 1]
        tau = 0.4
        floor = math.exp(-1.0 / (2 * tau)) - 1e-3
        for t in np.linspace(0.0, 50.0, 101):
            value = kernel(GAUSS, tau, float(t))
            assert floor <= value <= 1.0


class TestToeplitzOperator:
    N = 2**10
    H = 40.0 / (N - 1)

    def _dense(self, kern):
        i = np.arange(self.N)
        return self.H * kern[i[:, None] - i[None, :] + self.N - 1]

    def test_matches_dense_matmul(self):
        # a random, non-symmetric kernel exercises every lag of both signs
        rng = np.random.default_rng(7)
        kern = rng.standard_normal(2 * self.N - 1)
        v = rng.standard_normal(self.N)
        expected = self._dense(kern) @ v
        got = _toeplitz_operator(kern, self.H)(v)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_power_iteration_norm_matches_spectral_norm(self):
        # the power iteration runs on A^2, so A is the solver's symmetric kernel matrix
        lags = self.H * np.arange(-(self.N - 1), self.N)
        kern = np.array([kernel(GAUSS, 0.25, float(t)) for t in lags])
        apply_a = _toeplitz_operator(kern, self.H)
        expected = np.linalg.norm(self._dense(kern), 2)
        assert _power_iteration_norm(apply_a, self.N) == pytest.approx(expected, rel=1e-6)


class TestSolver:
    def test_delta_kernel_identity(self):
        n = 2**10
        h = 40.0 / (n - 1)
        delta = lambda t: (1.0 / h if t == 0.0 else 0.0)
        sol = solve_convolution_grid(delta, 0.25, 20.0, n, lambda_reg=0.0)
        np.testing.assert_allclose(sol.a_values, 1.0, atol=1e-10)
        assert convolution_residual(sol, delta) < 1e-12

    def test_gauss_interior_residual(self):
        # the op-level example: lambda_reg pinned at 1e-8
        sol = solve_normalizer(GAUSS, 0.25, 20.0, 2**12, lambda_reg=1e-8)
        assert sol.residual < 1e-2
        assert not sol.ill_posed
        assert np.all(sol.a_values >= 0.0)

    @pytest.mark.parametrize("tau, n", [(0.25, 2**10), (0.5, 2**12)])
    def test_small_lambda_converges_off_the_example(self, tau, n):
        # lambda_reg = 1e-8 sits below the default weight on other grids too
        sol = solve_normalizer(GAUSS, tau, 20.0, n, lambda_reg=1e-8)
        assert sol.residual < 1e-2
        assert not sol.ill_posed
        assert np.all(sol.a_values >= 0.0)
        assert abs(convolution_residual(sol, GAUSS) - sol.residual) < 1e-10

    def test_exhausted_budget_raises(self):
        # an unconverged solve must raise, never return a loose solution
        with pytest.raises(ConvergenceError, match="300 CG iterations"):
            solve_normalizer(GAUSS, 0.25, 20.0, 2**10, lambda_reg=1e-8, max_iter=300)

    def test_residual_consistency_when_grid_refines(self):
        coarse = solve_normalizer(GAUSS, 0.25, 20.0, 2**10)
        fine = solve_normalizer(GAUSS, 0.25, 20.0, 2**11)
        assert fine.residual <= coarse.residual * 1.05

    def test_fresh_residual_matches_solver(self):
        sol = solve_normalizer(GAUSS, 0.25, 20.0, 2**10)
        assert abs(convolution_residual(sol, GAUSS) - sol.residual) < 1e-10

    def test_zero_solution_residual_is_one(self):
        sol = solve_normalizer(GAUSS, 0.25, 20.0, 2**10)
        zeroed = replace(sol, a_values=np.zeros_like(sol.a_values))
        assert convolution_residual(zeroed, GAUSS) == pytest.approx(1.0, abs=1e-12)

    def test_non_factorizable_across_tau(self):
        a = solve_normalizer(GAUSS, 0.25, 20.0, 2**10)
        b = solve_normalizer(GAUSS, 0.5, 20.0, 2**10)
        band = max(a.edge_band, b.edge_band)
        window = slice(band, len(a.grid) - band)
        ratio = a.a_values[window] / b.a_values[window]
        assert ratio.max() / ratio.min() > 1.0 + 1e-3

    def test_grid_preconditions(self):
        with pytest.raises(DomainError):
            solve_normalizer(GAUSS, 0.25, 20.0, 1000)  # not a power of two
        with pytest.raises(DomainError):
            solve_normalizer(GAUSS, 0.25, 20.0, 2**8)  # too small
        with pytest.raises(DomainError):
            solve_normalizer(GAUSS, 0.25, 0.5, 2**10)  # kernel has not plateaued

    @pytest.mark.parametrize("tau, L, lambda_reg", [
        (math.nan, 20.0, None), (0.25, math.nan, None), (0.25, math.inf, None),
        (0.25, 20.0, math.nan), (0.25, 20.0, math.inf), (0.25, 20.0, -1e-8),
    ])
    def test_nan_or_infinite_parameters_rejected(self, tau, L, lambda_reg):
        with pytest.raises(DomainError):
            solve_normalizer(GAUSS, tau, L, 2**10, lambda_reg=lambda_reg)

    def test_non_symmetric_kernel_rejected_before_solving(self):
        # the normal equations assume A^T = A; a shifted kernel used to run
        # CG through its whole budget before raising ConvergenceError
        shifted = lambda t: math.exp(-((t - 1.0) ** 2) / 2.0) + 0.3
        with pytest.raises(DomainError, match="not symmetric"):
            solve_convolution_grid(shifted, 0.25, 20.0, 2**10)

    def test_triangular_cf_compact_kernel(self):
        sol = solve_normalizer(get_cf("triangular-cf"), 0.25, 20.0, 2**10)
        assert sol.residual < 1e-2


class TestLookup:
    def test_builtin_names(self):
        assert get_cf("gauss") is GAUSS

    def test_user_expression(self):
        cf = get_cf("exp(0 - t^2 / 2)")
        assert cf(1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_invalid_user_expression_rejected(self):
        with pytest.raises(DomainError):
            get_cf("exp(t)")  # grows past 1: not a symmetric cf
