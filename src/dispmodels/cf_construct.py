"""Dispersion models from symmetric characteristic functions.

A real, symmetric, non-lattice characteristic function phi yields the
unit deviance ``d(y; mu) = 1 - phi(y - mu)``, and the normalization
requirement turns into a convolution equation
``[a_tau * K_tau](mu) = 1`` with kernel
``K_tau(t) = exp(-(1 - phi(t)) / (2 tau))`` — itself a characteristic
function.  The formal weak solution (a Fourier quotient against a delta)
is not computable, so the equation is discretized on a truncated grid and
solved as a Tikhonov-regularized nonnegative least-squares problem by an
active-set preconditioned conjugate-gradient method, with continuation in
the regularization weight, reporting the interior residual honestly.
The models built this way are neither proper nor exponential dispersion
models: the fitted ``a(y; tau)`` does not factorize across tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _elementary as el
from .deviance import UnitDeviance
from .errors import ConvergenceError, DomainError
from .expressions import compile_expression
from .support import REALS

__all__ = [
    "CfSpec",
    "GridSolution",
    "validate_cf",
    "cf_deviance",
    "cf_unit_deviance",
    "kernel",
    "solve_normalizer",
    "solve_convolution_grid",
    "convolution_residual",
    "get_cf",
    "CHARACTERISTIC_FUNCTIONS",
]


@dataclass(frozen=True)
class CfSpec:
    """A real-valued symmetric characteristic function with metadata.

    ``m2`` is the second moment of the underlying probability measure when
    finite; it decides whether the induced deviance is regular.  The
    declared symmetry/non-lattice properties are verified on probe grids
    by :func:`validate_cf`.
    """

    phi: Callable[[float], float]
    name: str = "cf"
    m2: Optional[float] = None

    def __call__(self, t: float) -> float:
        return float(self.phi(t))


def _probe_grid(n: int = 32) -> np.ndarray:
    pts = np.geomspace(1e-2, 1e2, n)
    return np.concatenate([-pts[::-1], pts])


def validate_cf(cf: CfSpec) -> None:
    """Probe the characteristic-function invariants; raise DomainError on failure.

    phi(0) = 1 exactly, |phi| <= 1, phi(t) = phi(-t) within 1e-12, and the
    non-lattice requirement |phi(t)| < 1 for probed t != 0.
    """
    if cf(0.0) != 1.0:
        raise DomainError(f"{cf.name}: phi(0) = {cf(0.0)!r}, must be exactly 1")
    for t in _probe_grid():
        v = cf(float(t))
        if not math.isfinite(v) or abs(v) > 1.0 + 1e-12:
            raise DomainError(f"{cf.name}: |phi({t})| = {abs(v)} exceeds 1")
        if abs(v - cf(float(-t))) > 1e-12:
            raise DomainError(f"{cf.name}: phi not symmetric at t={t}")
        if abs(v) >= 1.0:
            raise DomainError(
                f"{cf.name}: |phi({t})| = 1 off the origin; lattice cfs do not yield unit deviances"
            )


def cf_deviance(cf: CfSpec, y: float, mu: float) -> float:
    """Unit deviance ``1 - phi(y - mu)``; zero iff y = mu for non-lattice cfs."""
    return cf_unit_deviance(cf)(y, mu)


def cf_unit_deviance(cf: CfSpec) -> UnitDeviance:
    """Package ``1 - phi(y - mu)`` as a UnitDeviance on the real line.

    Regular exactly when the cf has a finite second moment (the diagonal
    curvature is then positive); the Cauchy-type cf ``exp(-|t|)`` is the
    classic non-regular example.  The deviance takes arrays: ``phi`` is
    vectorised once, here.
    """
    validate_cf(cf)
    phi = el.vectorize(cf)
    return UnitDeviance(
        name=f"cf[{cf.name}]",
        support=REALS,
        fn=lambda y, mu: 1.0 - phi(y - mu),
        regular=cf.m2 is not None,
    )


def kernel(cf: CfSpec, tau: float, t: float) -> float:
    """Convolution kernel ``K_tau(t) = exp(-(1 - phi(t)) / (2 tau))`` in (0, 1]."""
    if not tau > 0.0:
        raise DomainError("tau must be positive")
    return math.exp(-(1.0 - cf(t)) / (2.0 * tau))


@dataclass(frozen=True)
class GridSolution:
    """Discrete solution of the convolution normalization equation.

    ``grid`` holds N uniform points on [-L, L]; ``a_values`` the fitted
    nonnegative factor; ``residual`` the max deviation of the discrete
    convolution from 1 over the interior (the edge band of one kernel
    effective-support width is excluded — truncating the infinite-domain
    convolution contaminates it).  ``ill_posed`` flags residuals above
    0.1; the solution is still returned, never clamped.  ``iterations``
    counts the CG iterations summed over every rung of the lambda ladder
    (see :func:`solve_convolution_grid`).
    """

    grid: np.ndarray
    a_values: np.ndarray
    tau: float
    residual: float
    lambda_reg: float
    edge_band: int
    iterations: int
    ill_posed: bool

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def interior(self) -> slice:
        return slice(self.edge_band, len(self.grid) - self.edge_band)


def _kernel_samples(kernel_fn, N: int, h: float) -> np.ndarray:
    lags = h * np.arange(-(N - 1), N)
    return np.array([kernel_fn(float(t)) for t in lags])


def _toeplitz_operator(kern: np.ndarray, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """The product ``v -> A v`` with ``A_ij = h kern[i - j + N - 1]``.

    ``kern`` holds the 2N - 1 samples at lags -(N-1)..(N-1).  A is embedded
    in a circulant of size 2N whose spectrum is computed here, once; each
    product is then one real FFT pair of length 2N, and the slice
    ``N-1 : 2N-1`` of the circular convolution, which never wraps, is A v.
    """
    n = (len(kern) + 1) // 2
    spectrum = h * np.fft.rfft(kern, 2 * n)

    def apply(v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(v, 2 * n) * spectrum, 2 * n)[n - 1 : 2 * n - 1]

    return apply


def _power_iteration_norm(apply_a, n: int) -> float:
    """``||A||`` for a symmetric A, by 30 power iterations on ``A^T A = A^2``."""
    v = np.ones(n) / math.sqrt(n)
    norm = 1.0
    for _ in range(30):
        w = apply_a(apply_a(v))
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 1.0
        v = w / norm
    return math.sqrt(norm)


def _effective_support_band(kern: np.ndarray, N: int, plateau: float, tol: float = 1e-3) -> int:
    # kern is sampled at lags -(N-1)..(N-1); find the largest |lag| above plateau + tol
    above = np.nonzero(kern > plateau + tol)[0]
    if len(above) == 0:
        return 1
    lags = np.arange(-(N - 1), N)
    band = int(np.max(np.abs(lags[above])))
    return max(1, min(band, N // 2 - 1))


def _lambda_ladder(target: float, start: float, floor: float) -> list:
    """Regularization weights from ``start`` down to ``target``, at most a decade apart.

    The rungs are geometric from ``start`` towards ``max(target, floor)``
    and the last rung is exactly ``target``; a ``target`` at or above
    ``start``, or a ``floor`` at or above ``start``, leaves the single rung
    ``target``.  A positive ``floor`` keeps the ladder finite for a zero
    target.
    """
    stop = max(target, floor)
    if stop >= start:
        return [target]
    steps = math.ceil(math.log10(start / stop))
    return [start * (stop / start) ** (k / steps) for k in range(steps)] + [target]


def _active_set_pcg(hessian_apply, precond, atb, a, free, kkt_tol, budget):
    """Active-set loop at one lambda, warm-started from ``a`` and ``free``.

    Each pass runs preconditioned CG on the free coordinates (the others
    held at zero) until the free-set residual is within ``kkt_tol``, then
    moves every negative free coordinate to the bound, or, when there is
    none, frees every bound coordinate whose gradient is below
    ``-kkt_tol``.  Returns ``(a, free, CG iterations used, converged)``.
    """
    used = 0
    for _ in range(100):
        a[~free] = 0.0
        r = atb - hessian_apply(a)
        r[~free] = 0.0
        z = precond(r)
        z[~free] = 0.0
        p = z.copy()
        rz = float(r @ z)
        while used < budget:
            if float(np.max(np.abs(r))) <= kkt_tol or rz <= 0.0:
                break
            hp = hessian_apply(p)
            hp[~free] = 0.0
            denom = float(p @ hp)
            if denom <= 0.0:
                break
            alpha = rz / denom
            a = a + alpha * p
            r = r - alpha * hp
            used += 1
            z = precond(r)
            z[~free] = 0.0
            rz_new = float(r @ z)
            if rz_new <= 0.0:
                break
            p = z + (rz_new / rz) * p
            rz = rz_new
        if used >= budget:
            break
        negative = free & (a < 0.0)
        if negative.any():
            free &= ~negative
            continue
        release = (~free) & (hessian_apply(a) - atb < -kkt_tol)
        if release.any():
            free |= release
            continue
        return a, free, used, True
    return a, free, used, False


def solve_convolution_grid(
    kernel_fn: Callable[[float], float],
    tau: float,
    L: float,
    N: int,
    lambda_reg: Optional[float] = None,
    max_iter: int = 10**4,
) -> GridSolution:
    """Solve ``min ||A a - 1||^2 + lambda ||a||^2 s.t. a >= 0`` on the grid.

    A is the Toeplitz kernel matrix ``A_ij = h K((i-j) h)``, applied by FFT
    on its circulant embedding of size 2N, with the kernel spectrum computed
    once per solve.  ``lambda_reg`` defaults to ``1e-8 ||A||^2`` (``||A||``
    by power iteration).  The solver is an active-set method: on a fixed
    free set, conjugate gradients preconditioned by the Strang circulant
    approximation of ``A^2 + lambda I`` solve the normal equations with the
    bound coordinates held at zero; then every negative free coordinate is
    moved to the bound, or, when none is negative, every bound coordinate
    whose gradient points into the feasible set is freed, and CG runs again.

    The smaller lambda, the worse ``A^2 + lambda I`` is conditioned, and a
    cold start below the default lambda leaves the active set thrashing.
    A ``lambda_reg`` below the default is therefore reached by continuation:
    a geometric ladder of rungs at most a decade apart, from the default
    down to exactly ``lambda_reg``, each rung warm-started from the previous
    rung's solution and free set.  The ladder descends no further than the
    larger of ``eps ||A||^2`` and the smallest eigenvalue of ``C^2`` (C the
    circulant preconditioner): below that, lambda no longer sets the
    conditioning, and a zero target still ends the ladder.  At or above the
    default, or when ``C^2`` is bounded away from zero above it, the ladder
    is the single rung ``lambda_reg``.

    Every rung stops when the free-set residual and every negative bound
    gradient are within ``1e-10 * max(1, max A 1)``.  ``max_iter`` bounds
    the CG iterations summed over all rungs, which ``iterations`` reports.
    A kernel whose samples are not symmetric (within 1e-12 of their
    maximum) is rejected with DomainError before any product is formed.
    Raises ConvergenceError, naming the iterations used and the KKT norm
    (max projected gradient) reached, when a rung does not converge within
    that budget or within 100 active-set passes.
    """
    if N < 2**10 or (N & (N - 1)) != 0:
        raise DomainError(f"grid size N={N} must be a power of two >= 1024")
    if not 0.0 < L < math.inf:
        raise DomainError(f"L must be positive and finite, got {L}")
    if lambda_reg is not None and not 0.0 <= lambda_reg < math.inf:
        raise DomainError(f"lambda_reg must be nonnegative and finite, got {lambda_reg}")
    grid = np.linspace(-L, L, N)
    h = float(grid[1] - grid[0])
    kern = _kernel_samples(kernel_fn, N, h)
    # the normal equations below use A^T = A, i.e. K(-t) = K(t)
    if np.max(np.abs(kern - kern[::-1])) > 1e-12 * np.max(np.abs(kern)):
        raise DomainError("the kernel is not symmetric: K(-t) != K(t) on the grid")
    plateau = float(kern[0])  # largest sampled lag ~ tail level
    if abs(float(kernel_fn(float(L))) - plateau) > 1e-3:
        raise DomainError(
            "L is too small: the kernel has not reached its tail plateau at lag L"
        )
    band = _effective_support_band(kern, N, plateau)

    apply_a = _toeplitz_operator(kern, h)
    a_norm = _power_iteration_norm(apply_a, N)
    default_lambda = 1e-8 * a_norm**2
    if lambda_reg is None:
        lambda_reg = default_lambda
    ones = np.ones(N)
    atb = apply_a(ones)  # A^T 1 = A 1 (symmetric)

    # Strang circulant preconditioner for the Toeplitz normal equations:
    # the Hessian A^2 + lambda I is approximated by C^2 + lambda I, which
    # FFT diagonalizes, collapsing the CG iteration count; |fft(circ)|^2 is
    # real and symmetric, so its first N/2 + 1 entries are all of it
    lags = np.arange(N)
    lags[lags > N // 2] -= N
    circ = h * kern[N - 1 + lags]
    circ_eigs = np.abs(np.fft.rfft(circ)) ** 2

    a = np.zeros(N)
    kkt_tol = 1e-10 * max(1.0, float(np.max(np.abs(atb))))
    free = np.ones(N, dtype=bool)
    iterations = 0
    floor = max(np.finfo(float).eps * a_norm**2, float(np.min(circ_eigs)))
    for lam in _lambda_ladder(lambda_reg, default_lambda, floor):
        precond_eigs = np.maximum(circ_eigs + lam, 1e-300)

        def hessian_apply(v: np.ndarray) -> np.ndarray:
            return apply_a(apply_a(v)) + lam * v

        def precond(v: np.ndarray) -> np.ndarray:
            return np.fft.irfft(np.fft.rfft(v) / precond_eigs, N)

        a, free, used, converged = _active_set_pcg(
            hessian_apply, precond, atb, a, free, kkt_tol, max_iter - iterations
        )
        iterations += used
        if not converged:
            a = np.maximum(a, 0.0)
            grad = hessian_apply(a) - atb
            # max projected gradient of the bound-constrained problem
            kkt = float(np.max(np.abs(np.where(a > 0.0, grad, np.minimum(grad, 0.0)))))
            raise ConvergenceError(
                f"active-set CG did not reach the KKT tolerance {kkt_tol:.3g} at "
                f"lambda={lam:.3g}: KKT norm {kkt:.3g} after {iterations} CG iterations "
                f"(max_iter={max_iter})"
            )

    conv = apply_a(a)
    interior = slice(band, N - band)
    residual = float(np.max(np.abs(conv[interior] - 1.0))) if band < N // 2 else math.inf
    return GridSolution(
        grid=grid,
        a_values=a,
        tau=tau,
        residual=residual,
        lambda_reg=float(lambda_reg),
        edge_band=band,
        iterations=iterations,
        ill_posed=residual > 0.1,
    )


def solve_normalizer(
    cf: CfSpec,
    tau: float,
    L: float,
    N: int,
    lambda_reg: Optional[float] = None,
    max_iter: int = 10**4,
) -> GridSolution:
    """Discretize and solve ``[a_tau * K_tau](mu) = 1`` for the given cf."""
    validate_cf(cf)
    return solve_convolution_grid(
        lambda t: kernel(cf, tau, t), tau, L, N, lambda_reg=lambda_reg, max_iter=max_iter
    )


def convolution_residual(sol: GridSolution, cf) -> float:
    """Recompute the interior residual with a fresh, direct kernel evaluation.

    ``cf`` may be a CfSpec (the kernel is rebuilt from it at the
    solution's tau) or a bare kernel callable.  The direct summation path
    is independent of the solver's FFT matrix.
    """
    if isinstance(cf, CfSpec):
        kernel_fn = lambda t: kernel(cf, sol.tau, t)
    else:
        kernel_fn = cf
    grid = sol.grid
    h = sol.spacing
    n = len(grid)
    kern = np.array([kernel_fn(float(k * h)) for k in range(-(n - 1), n)])
    conv = h * np.convolve(sol.a_values, kern, mode="valid")
    interior = sol.interior
    return float(np.max(np.abs(conv[interior] - 1.0)))


CHARACTERISTIC_FUNCTIONS: dict[str, CfSpec] = {
    "gauss": CfSpec(phi=lambda t: math.exp(-0.5 * t * t), name="gauss", m2=1.0),
    # Laplace-shaped cf (the characteristic function of the Cauchy law):
    # no second moment, so the induced deviance is not regular
    "laplace-cf": CfSpec(phi=lambda t: math.exp(-abs(t)), name="laplace-cf", m2=None),
    # triangular-shaped cf (Polya): valid, compactly supported, heavy-tailed law
    "triangular-cf": CfSpec(phi=lambda t: max(0.0, 1.0 - abs(t)), name="triangular-cf", m2=None),
}


def get_cf(name_or_expr: str) -> CfSpec:
    """Look up a built-in cf by name, or compile ``t``-expressions on the fly."""
    if name_or_expr in CHARACTERISTIC_FUNCTIONS:
        return CHARACTERISTIC_FUNCTIONS[name_or_expr]
    fn = compile_expression(name_or_expr, ["t"])
    cf = CfSpec(phi=fn, name=f"user[{name_or_expr}]", m2=None)
    validate_cf(cf)
    return cf
