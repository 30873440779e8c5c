"""Characteristic-function construction: deviances, kernels, deconvolution."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg, optimize

from dispmodels import cf_construct
from dispmodels.cf_construct import (
    _LATTICE_SCAN,
    CHARACTERISTIC_FUNCTIONS,
    _fast_length,
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
from dispmodels._numdiff import _refined_maxima, derivative

GAUSS = CHARACTERISTIC_FUNCTIONS["gauss"]


def _highest_interior_peak(phi):
    """|phi| at the highest of its five highest interior maxima on the lattice scan, refined as
    ``validate_cf`` refines those above 0.99; 0 where there is none."""
    peaks = _refined_maxima(lambda t: abs(phi(t)), _LATTICE_SCAN, np.abs(phi(_LATTICE_SCAN)), 1e-12)
    return peaks[0][1] if peaks else 0.0


def _dense(kern, h):
    """The Toeplitz matrix ``A_ij = h kern[i - j + N - 1]``, formed entry by entry."""
    i = np.arange((len(kern) + 1) // 2)
    return h * kern[i[:, None] - i[None, :] + len(i) - 1]


def _dense_hessian(sol):
    """``A + sqrt(lambda) I`` of a gauss solution, A from fresh scalar kernel samples, with no FFT."""
    n, h = len(sol.grid), sol.spacing
    lags = h * np.arange(-(n - 1), n)
    dense = _dense(np.array([kernel(GAUSS, sol.tau, float(t)) for t in lags]), h)
    return dense + math.sqrt(sol.lambda_reg) * np.eye(n)


class TestCfValidation:
    @pytest.mark.parametrize("name", sorted(CHARACTERISTIC_FUNCTIONS))
    def test_builtins_pass_probes(self, name):
        validate_cf(CHARACTERISTIC_FUNCTIONS[name])

    def test_wrong_origin_rejected(self):
        with pytest.raises(DomainError, match=r"phi\(0\)"):
            validate_cf(CfSpec(phi=lambda t: 0.999 * (t == 0.0), name="broken"))

    def test_lattice_like_rejected(self):
        # |phi| = 1 off the origin marks a lattice distribution
        with pytest.raises(DomainError):
            validate_cf(CfSpec(phi=lambda t: 1.0, name="degenerate"))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match="not symmetric"):
            validate_cf(CfSpec(phi=lambda t: np.exp(-t * t / 2 + 0.001 * t), name="skew"))

    def test_magnitude_above_one_rejected(self):
        with pytest.raises(DomainError):
            validate_cf(CfSpec(phi=lambda t: 1.0 + t * t, name="blowup"))

    @pytest.mark.parametrize("phi", [lambda t: math.exp(-0.5 * t * t), lambda t: np.ones(3)],
                             ids=["math.exp only", "wrong shape"])
    def test_callable_breaking_the_array_contract_rejected(self, phi):
        with pytest.raises(DomainError, match="float or an ndarray"):
            validate_cf(CfSpec(phi=phi, name="scalar"))

    @pytest.mark.parametrize("phi", [
        np.cos,
        lambda t: np.cos(np.pi * t),
        lambda t: np.cos(3.0 * t),
        lambda t: np.cos(t / 7.0),
        lambda t: np.abs(1.0 + np.exp(1j * t)) / 2.0,
        # 2 pi-periodic with a cusp at its peaks, where a parabola through the scan misses 1
        lambda t: np.exp(-np.abs(np.sin(t / 2))),
    ], ids=["cos t", "cos pi t", "cos 3t", "cos t/7", "|(1 + e^it)/2|", "exp(-|sin t/2|)"])
    def test_lattice_off_the_probe_grid_rejected(self, phi):
        # |phi| returns to 1 at multiples of 2 pi / span, which the geometric probes miss
        top = _highest_interior_peak(phi)
        assert 1.0 - top <= 1e-11
        with pytest.raises(DomainError, match="lattice"):
            validate_cf(CfSpec(phi=phi, name="lattice"))

    @pytest.mark.parametrize("phi, margin", [
        (CHARACTERISTIC_FUNCTIONS["gauss"].phi, 1.0),
        (CHARACTERISTIC_FUNCTIONS["laplace-cf"].phi, 1.0),
        (CHARACTERISTIC_FUNCTIONS["triangular-cf"].phi, 1.0),
        # the uniform law on [-1, 1], whose side lobes reach 0.22
        (lambda t: np.sinc(t / np.pi), 0.78),
        # two coins with incommensurate spans: near 1 at t = 91.09, yet not lattice
        (lambda t: np.cos(math.sqrt(2.0) * t) * np.cos(t), 2.4e-4),
    ], ids=["gauss", "laplace-cf", "triangular-cf", "sinc", "cos(sqrt2 t) cos t"])
    def test_non_lattice_margin_below_one(self, phi, margin):
        # 1 - |phi| at the highest interior maximum on (0, 100]; 1 where there is none
        top = _highest_interior_peak(phi)
        assert 1.0 - top == pytest.approx(margin, rel=0.05)
        validate_cf(CfSpec(phi=phi, name="non-lattice"))


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

    def test_matches_dense_matmul(self):
        # a random, non-symmetric kernel exercises every lag of both signs
        rng = np.random.default_rng(7)
        kern = rng.standard_normal(2 * self.N - 1)
        v = rng.standard_normal(self.N)
        expected = _dense(kern, self.H) @ v
        got = _toeplitz_operator(kern, self.H)(v)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", [*sorted(CHARACTERISTIC_FUNCTIONS), "delta"])
    def test_banded_kernel_matches_dense_matmul(self, name):
        # the kernel equals its plateau past a band (|t| > 8.64 for gauss, > 1 for triangular-cf):
        # the band goes through the FFT, the plateau is the rank-one term.  The delta kernel of
        # test_delta_kernel_identity is a band of one lag on a plateau of 0
        lags = self.H * np.arange(-(self.N - 1), self.N)
        kern = (lags == 0.0) / self.H if name == "delta" else kernel(get_cf(name), 0.5, lags)
        v = np.random.default_rng(11).standard_normal(self.N)
        expected = _dense(kern, self.H) @ v
        got = _toeplitz_operator(kern, self.H)(v)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name, tau, n, length", [
        ("gauss", 0.25, 2**10, 1250), ("gauss", 0.25, 2**12, 5000), ("triangular-cf", 0.5, 2**12, 4320),
        ("laplace-cf", 0.5, 2**12, 8000), (None, None, 2**10, 2**11),
    ])
    def test_embedding_covers_only_the_band(self, name, tau, n, length, monkeypatch):
        # the shortest 2^a 3^b 5^c length at or above N + w; the random kernel (name None) never
        # repeats its end sample, so w = N - 1 and the length is 2N
        h = 40.0 / (n - 1)
        lags = h * np.arange(-(n - 1), n)
        kern = np.random.default_rng(7).standard_normal(2 * n - 1) if name is None else kernel(get_cf(name), tau, lags)
        rfft, lengths = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda x, m=None: lengths.append(m) or rfft(x, m))
        _toeplitz_operator(kern, h)
        assert lengths == [length]

    def test_fast_length_is_the_smallest_five_smooth_length(self):
        def smooth(m):
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            return m == 1

        expected = [min(m for m in range(n, 2 * n + 1) if smooth(m)) for n in range(1, 3000)]
        assert [_fast_length(n) for n in range(1, 3000)] == expected

    @pytest.mark.parametrize("name", sorted(CHARACTERISTIC_FUNCTIONS))
    def test_default_lambda_scales_with_the_row_sum_norm(self, name):
        # lambda_reg defaults to 1e-10 ||A||_inf^2; ||A||_inf bounds the spectral norm of the
        # symmetric A from above, and on the built-ins lies within 1 % of it
        sol = solve_normalizer(get_cf(name), 0.5, 20.0, self.N)
        lags = self.H * np.arange(-(self.N - 1), self.N)
        dense = _dense(np.array([kernel(get_cf(name), 0.5, float(t)) for t in lags]), self.H)
        row_sum_norm = math.sqrt(sol.lambda_reg) / 1e-5
        assert row_sum_norm == pytest.approx(np.max(np.sum(np.abs(dense), axis=1)), rel=1e-12)
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(dense))))
        assert spectral <= row_sum_norm <= 1.01 * spectral


class TestSolver:
    def test_delta_kernel_identity(self):
        n = 2**10
        h = 40.0 / (n - 1)
        delta = lambda t: (t == 0.0) / h
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

    @pytest.mark.parametrize("tau", [0.22, 0.245, 0.25])
    def test_default_lambda_solution_is_a_kkt_point(self, tau):
        # 0.22 and 0.245 once ran out of active-set passes; the oracle is the
        # dense matrix of the same kernel samples, with no FFT
        sol = solve_normalizer(GAUSS, tau, 20.0, 2**10)
        hessian = _dense_hessian(sol)
        a = sol.a_values
        grad = hessian @ a - 1.0
        assert np.all(a >= 0.0)
        assert np.max(np.abs(grad[a > 0.0])) <= 1e-10
        assert np.min(grad[a == 0.0]) >= -1e-10

    @pytest.mark.parametrize("tau, lambda_reg", [(0.22, None), (0.245, None), (0.25, None), (0.3, 1e-8)])
    def test_matches_dense_nonnegative_least_squares(self, tau, lambda_reg):
        # with A + sqrt(lambda) I = R^T R, the problem is min ||R a - R^-T 1||^2 over a >= 0,
        # which scipy's active-set nnls solves on the dense factor
        sol = solve_normalizer(GAUSS, tau, 20.0, 2**10, lambda_reg=lambda_reg)
        hessian = _dense_hessian(sol)
        factor = linalg.cholesky(hessian)
        expected, _ = optimize.nnls(factor, linalg.solve_triangular(factor, np.ones(len(hessian)), trans="T"))
        a = sol.a_values
        np.testing.assert_array_equal(a == 0.0, expected == 0.0)
        assert np.max(np.abs(a - expected)) <= 1e-8 * np.max(a)
        objective = lambda v: 0.5 * v @ hessian @ v - np.sum(v)
        assert objective(a) == pytest.approx(objective(expected), rel=1e-12)

    @pytest.mark.parametrize("tau", [0.05, 0.075])
    def test_default_lambda_converges_at_small_tau(self, tau):
        # both spent the whole 10^4 budget under the least-squares solver
        sol = solve_normalizer(GAUSS, tau, 20.0, 2**10)
        assert sol.iterations < 1000
        assert sol.residual <= 2e-5

    @pytest.mark.parametrize("lambda_reg", [1e-8, 1e-9, 1e-10, 0.0])
    def test_lambda_sweep_converges_or_refuses_below_the_floor(self, lambda_reg):
        # gauss tau = 0.20, 0.225, ..., 0.50; at lambda = 1e-8 tau = 0.3 once took 7789 CG
        # iterations, and lambda = 1e-9, 1e-10 and 0 raised ConvergenceError on 3, 8 and 6 of the 13
        for tau in 0.2 + 0.025 * np.arange(13):
            if lambda_reg == 0.0:
                # A + 0 I is numerically singular: refused before any CG iteration
                with pytest.raises(DomainError, match="below the floor"):
                    solve_normalizer(GAUSS, tau, 20.0, 2**10, lambda_reg=0.0, max_iter=0)
                continue
            sol = solve_normalizer(GAUSS, tau, 20.0, 2**10, lambda_reg=lambda_reg)
            assert sol.iterations < 1000, tau
            assert np.all(sol.a_values >= 0.0) and not sol.ill_posed

    @pytest.mark.parametrize("name", sorted(CHARACTERISTIC_FUNCTIONS))
    @pytest.mark.parametrize("n", [2**10, 2**12])
    def test_default_lambda_is_one_rung(self, name, n, monkeypatch):
        # sqrt(lambda) is the ladder's start itself, not the square root of its square, which could
        # round one ulp below it and add a rung (gauss at tau = 0.25, N = 2^12 once took two)
        passes = []
        real = cf_construct._active_set_pcg
        monkeypatch.setattr(cf_construct, "_active_set_pcg", lambda *args: passes.append(1) or real(*args))
        solve_normalizer(get_cf(name), 0.25, 20.0, n)
        assert len(passes) == 1

    @pytest.mark.parametrize("name, tau, n, lambda_reg, ceiling", [
        ("gauss", 0.25, 2**10, None, 400), ("gauss", 0.25, 2**12, None, 400),
        ("laplace-cf", 0.5, 2**12, None, 10), ("triangular-cf", 0.5, 2**12, None, 20),
        ("gauss", 0.25, 2**12, 1e-8, 340),
    ])
    def test_benchmark_solves_stay_within_cg_ceilings(self, name, tau, n, lambda_reg, ceiling):
        # the construct workload's solves take 203, 203, 4, 10 and 171 CG iterations;
        # the counts, unlike timings, are deterministic
        sol = solve_normalizer(get_cf(name), tau, 20.0, n, lambda_reg=lambda_reg)
        assert sol.iterations <= ceiling

    @pytest.mark.parametrize("name, tau, n, bound", [
        *[("gauss", tau, n, 2e-5) for tau in (0.05, 0.1, 0.25, 0.5, 1.0, 5.0) for n in (2**10, 2**12)],
        ("laplace-cf", 0.5, 2**12, 2e-5),
        # a has a spike of 0.24, against 0.064 in the middle, right inside the edge band, where
        # the convolution is 1 - sqrt(lambda) a: the residual is 3.7e-5
        ("triangular-cf", 0.5, 2**12, 5e-5),
    ])
    def test_default_lambda_interior_residual(self, name, tau, n, bound):
        # where a > 0 the convolution is 1 - sqrt(lambda) a, so the residual is about sqrt(lambda) / ||A||
        sol = solve_normalizer(get_cf(name), tau, 20.0, n)
        assert sol.residual <= bound
        shifted = math.sqrt(sol.lambda_reg) * np.max(sol.a_values[sol.interior])
        assert sol.residual == pytest.approx(shifted, abs=1e-9)

    def test_overshoot_is_the_largest_excess_where_a_is_zero(self):
        sol = solve_normalizer(GAUSS, 0.25, 20.0, 2**10)
        conv = _dense_hessian(sol) @ sol.a_values - 1.0
        bound = sol.a_values == 0.0
        assert bound.any()
        assert sol.overshoot == pytest.approx(np.max(conv[bound]), rel=1e-9)
        assert 1e-3 < sol.overshoot < 0.1
        assert solve_normalizer(get_cf("laplace-cf"), 0.5, 20.0, 2**12).overshoot == 0.0

    def test_exhausted_budget_raises(self):
        # an unconverged solve must raise, never return a loose solution
        with pytest.raises(ConvergenceError, match="30 CG iterations"):
            solve_normalizer(GAUSS, 0.25, 20.0, 2**10, lambda_reg=1e-8, max_iter=30)

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
        shifted = lambda t: np.exp(-((t - 1.0) ** 2) / 2.0) + 0.3
        with pytest.raises(DomainError, match="not symmetric"):
            solve_convolution_grid(shifted, 0.25, 20.0, 2**10)

    def test_kernel_sampled_in_one_call(self):
        # a solve calls the kernel on all 2N - 1 lags at once, then at L for the plateau;
        # a fresh residual calls it once
        n = 2**12
        shapes = []

        def counted(t):
            shapes.append(np.shape(t))
            return kernel(GAUSS, 0.5, t)

        sol = solve_convolution_grid(counted, 0.5, 20.0, n)
        assert shapes == [(2 * n - 1,), ()]
        assert convolution_residual(sol, counted) == convolution_residual(sol, GAUSS)
        assert shapes == [(2 * n - 1,), (), (2 * n - 1,)]

    def test_kernel_breaking_the_array_contract_rejected(self):
        # a float-only delta kernel: on the lag array its test t == 0.0 is ambiguous
        h = 40.0 / (2**10 - 1)
        delta = lambda t: 1.0 / h if t == 0.0 else 0.0
        with pytest.raises(DomainError, match="float or an ndarray"):
            solve_convolution_grid(delta, 0.5, 20.0, 2**10)
        sol = solve_normalizer(GAUSS, 0.5, 20.0, 2**10)
        with pytest.raises(DomainError, match="float or an ndarray"):
            convolution_residual(sol, delta)

    def test_level_refines_with_the_window(self):
        # doubling L at a fixed spacing h = 0.0195: the equation has no solution on the real line,
        # so a's middle level roughly halves, approaching 1/(2 L c), and h sum(a) grows toward 1/c
        narrow = solve_normalizer(GAUSS, 0.5, 10.0, 2**10)
        wide = solve_normalizer(GAUSS, 0.5, 20.0, 2**11)
        assert narrow.spacing == pytest.approx(wide.spacing, rel=1e-3)
        c = math.exp(-1.0)  # K(inf) = e^(-1/(2 tau))
        assert narrow.plateau == wide.plateau == pytest.approx(c, rel=1e-15)

        def middle(sol):
            n = len(sol.grid)
            return float(np.mean(sol.a_values[3 * n // 8 : 5 * n // 8]))

        assert 0.5 < middle(wide) / middle(narrow) < 0.6
        assert narrow.interior_level == pytest.approx(2.0 * 10.0 * c * middle(narrow), rel=1e-12)
        assert 0.7 < narrow.interior_level < wide.interior_level < 1.0
        masses = [sol.spacing * float(np.sum(sol.a_values)) for sol in (narrow, wide)]
        assert 2.0 < masses[0] < masses[1] < 1.0 / c

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
