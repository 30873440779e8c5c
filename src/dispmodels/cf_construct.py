"""Dispersion models from symmetric characteristic functions.

A real, symmetric, non-lattice characteristic function phi yields the
unit deviance ``d(y; mu) = 1 - phi(y - mu)``, and the normalization
requirement turns into a convolution equation
``[a_tau * K_tau](mu) = 1`` with kernel
``K_tau(t) = exp(-(1 - phi(t)) / (2 tau))`` — itself a characteristic
function.  For a cf with phi >= 0 and phi -> 0 (all three built-ins) the
equation has no nonnegative solution on the real line: K_tau >= K_tau(inf) > 0
forces a finite mass m on a, and then ``a * (K_tau - K_tau(inf))``, which
tends to 0, would equal the constant 1 - m K_tau(inf), so a = 0.  The
equation is therefore solved on the grid [-L, L].  There the kernel matrix
A is positive semidefinite, because K_tau is a characteristic function, so
the nonnegative solutions of ``A a = 1`` are those of the linear
complementarity problem ``min 1/2 a^T (A + sqrt(lambda) I) a - 1^T a,
a >= 0`` at lambda = 0.  A positive lambda regularizes it; a primal-dual
active-set conjugate-gradient method solves it, warm-started along a ladder
of regularization weights, with loose CG on the passes of the cold first
rung, and reports the interior residual honestly.
The model built this way is a dispersion model on [-L, L], and its ``a``
depends on L.  It is neither a proper nor an exponential dispersion model:
the fitted ``a(y; tau)`` does not factorize across tau.

Every cf ``phi`` and every kernel callable keeps the array contract of
``_elementary.call``; a solve samples its kernel in one call on the whole
lag vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _elementary as el
from ._numdiff import _refined_maxima
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
    by :func:`validate_cf`.  The spec calls ``phi`` by ``_elementary.call``.
    """

    phi: Callable
    name: str = "cf"
    m2: Optional[float] = None

    def __call__(self, t):
        return el.call(self.phi, t)


_SYMMETRY_PROBES = np.geomspace(1e-2, 1e2, 32)
# |phi| scanned on (0, 100] for interior maxima, where a lattice cf reaches 1 again
_LATTICE_SCAN = 1e-2 * np.arange(1, 10_001)
_PROBES = np.concatenate([[0.0], -_SYMMETRY_PROBES, _SYMMETRY_PROBES, _LATTICE_SCAN])


def validate_cf(cf: CfSpec) -> None:
    """Probe the characteristic-function invariants; raise DomainError on failure.

    ``phi`` is called once, on one probe array, under the array contract of
    :class:`CfSpec`.  Then phi(0) = 1 exactly, |phi| <= 1 at every probe,
    phi(t) = phi(-t) within 1e-12 on a geometric grid of t in [1e-2, 1e2],
    and phi is not lattice: the five highest interior local maxima of |phi|
    on the scan of (0, 100] that are above 0.99 are refined by golden
    section to 1e-12, and there 1 - |phi| >= 1e-9.
    """
    values = cf(_PROBES)
    if values[0] != 1.0:
        raise DomainError(f"{cf.name}: phi(0) = {values[0]!r}, must be exactly 1")
    magnitude = np.abs(values)
    bad = np.nonzero(~(magnitude <= 1.0 + 1e-12))[0]
    if bad.size:
        raise DomainError(f"{cf.name}: |phi({_PROBES[bad[0]]})| = {magnitude[bad[0]]} exceeds 1")
    n = len(_SYMMETRY_PROBES)
    negative, positive = values[1 : n + 1], values[n + 1 : 2 * n + 1]
    bad = np.nonzero(np.abs(positive - negative) > 1e-12)[0]
    if bad.size:
        raise DomainError(f"{cf.name}: phi not symmetric at t={_SYMMETRY_PROBES[bad[0]]}")
    peaks = _refined_maxima(lambda t: abs(cf(t)), _LATTICE_SCAN, magnitude[2 * n + 1 :], 1e-12, floor=0.99)
    if peaks and 1.0 - peaks[0][1] < 1e-9:
        t, top = peaks[0]
        raise DomainError(
            f"{cf.name}: |phi| = {top!r} at its local maximum near t={t:.4g}; "
            "lattice cfs do not yield unit deviances"
        )


def cf_deviance(cf: CfSpec, y: float, mu: float) -> float:
    """Unit deviance ``1 - phi(y - mu)``; zero iff y = mu for non-lattice cfs."""
    return cf_unit_deviance(cf)(y, mu)


def cf_unit_deviance(cf: CfSpec) -> UnitDeviance:
    """Package ``1 - phi(y - mu)`` as a UnitDeviance on the real line.

    Regular exactly when the cf has a finite second moment (the diagonal
    curvature is then positive); the Cauchy-type cf ``exp(-|t|)`` is the
    classic non-regular example.  The deviance takes floats and ndarrays,
    as ``phi`` does.
    """
    validate_cf(cf)
    return UnitDeviance(
        name=f"cf[{cf.name}]",
        support=REALS,
        fn=lambda y, mu: 1.0 - cf(y - mu),
        regular=cf.m2 is not None,
    )


def kernel(cf: CfSpec, tau: float, t):
    """Convolution kernel ``K_tau(t) = exp(-(1 - phi(t)) / (2 tau))`` in (0, 1], under the array contract."""
    if not tau > 0.0:
        raise DomainError("tau must be positive")
    return el.exp(-(1.0 - cf(t)) / (2.0 * tau))


@dataclass(frozen=True)
class GridSolution:
    """Discrete solution of the convolution normalization equation.

    ``grid`` holds N uniform points on [-L, L]; ``a_values`` the fitted
    nonnegative factor; ``residual`` the max deviation of the discrete
    convolution from 1 over the interior (the edge band of one kernel
    effective-support width is excluded — truncating the infinite-domain
    convolution contaminates it).  Where a > 0 the convolution is
    ``1 - sqrt(lambda) a``, so the residual is about ``sqrt(lambda) / ||A||``:
    about 1e-5 at the default lambda.  ``ill_posed`` flags a residual above
    0.1, which no built-in cf reaches (each stays below 5e-5 at the default
    lambda, L = 20, N = 2^12, tau from 0.05 to 5); the solution is still
    returned, never clamped.  ``overshoot`` is the largest
    ``(A + sqrt(lambda) I) a - 1``, that is ``A a - 1``, where a = 0: how far
    the convolution exceeds 1 where the bound a >= 0 holds it (0 where no
    coordinate is bound, nan where the solution was built without it).
    ``iterations`` counts the CG iterations summed over every rung of the
    lambda ladder (see :func:`solve_convolution_grid`); the count depends on
    the start, since a cold rung's passes stop early and a warm rung's do
    not.  ``passes`` counts the active-set passes summed over the rungs (0
    where the solution was built without it).

    ``plateau`` is the kernel's tail level c = K_tau(L) (nan where the
    solution was built without it).  Away from the window's ends a spreads
    its mass evenly, so c * integral a ~ 1 puts its level near 1/(2 L c):
    ``interior_level``, the mean of the middle quarter of ``a_values`` times
    2 L c, tends to 1 as L grows at a fixed spacing while a itself falls
    like 1/L, as a solution on [-L, L] of an equation with none on the
    real line does.
    """

    grid: np.ndarray
    a_values: np.ndarray
    tau: float
    residual: float
    lambda_reg: float
    edge_band: int
    iterations: int
    ill_posed: bool
    plateau: float = math.nan
    overshoot: float = math.nan
    passes: int = 0

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def interior(self) -> slice:
        return slice(self.edge_band, len(self.grid) - self.edge_band)

    @property
    def interior_level(self) -> float:
        n = len(self.grid)
        middle = float(np.mean(self.a_values[3 * n // 8 : 5 * n // 8]))
        return middle * float(self.grid[-1] - self.grid[0]) * self.plateau


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c at or above ``n``: a length whose FFT has only small factors."""
    best, five = 1 << (n - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << ((n - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return best


def _toeplitz_operator(kern: np.ndarray, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """The product ``v -> A v`` with ``A_ij = h kern[i - j + N - 1]``.

    ``kern`` holds the 2N - 1 samples at lags -(N-1)..(N-1).  A is split into
    the rank-one plateau ``h c 1 1^T``, c = ``kern[0]``, and the Toeplitz band
    of ``kern - c``, which is zero past the largest |lag| w whose sample
    differs from c (compared exactly, so the split is an identity).  The band
    is embedded in a circulant of the shortest 2^a 3^b 5^c length at or above
    N + w, whose spectrum is computed here, once; each product is then one
    real FFT pair of that length, whose slice ``w : w + N``, which never
    wraps, plus ``h c sum(v)`` is A v.  A kernel that never repeats its
    end sample has w = N - 1 and the full embedding, of length 2N on the
    solver's grids.
    """
    n = (len(kern) + 1) // 2
    plateau = kern[0]
    lags = np.flatnonzero(kern != plateau) - (n - 1)
    w = int(np.max(np.abs(lags), initial=0))
    size = _fast_length(n + w)
    spectrum = h * np.fft.rfft(kern[n - 1 - w : n + w] - plateau, size)
    level = h * plateau

    def apply(v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(v, size) * spectrum, size)[w : w + n] + level * np.sum(v)

    return apply


def _effective_support_band(kern: np.ndarray, lags: np.ndarray, plateau: float) -> int:
    # the largest |lag| whose sample is above plateau + 1e-3, at most N/2 - 1 (N = lags[-1] + 1)
    above = lags[kern > plateau + 1e-3]
    if len(above) == 0:
        return 1
    return max(1, min(int(np.max(np.abs(above))), (lags[-1] + 1) // 2 - 1))


def _lambda_ladder(target: float, start: float, floor: float) -> list:
    """Shifts sqrt(lambda) from ``start`` down to ``target``, at most a decade apart.

    The rungs are geometric from ``start`` towards ``max(target, floor)``,
    the last is exactly ``target``; a ``target`` or ``floor`` at or above
    ``start`` leaves the single rung ``target``.  A positive ``floor`` keeps
    the ladder finite for a zero target.
    """
    stop = max(target, floor)
    if stop >= start:
        return [target]
    steps = math.ceil(math.log10(start / stop))
    return [start * (stop / start) ** (k / steps) for k in range(steps)] + [target]


# every rung's KKT tolerance, and the factor of its starting residual at which a cold pass first stops its CG
_KKT_TOL = 1e-10
_COLD_PASS_FACTOR = 1e-3
# the CG iterations of one solve, summed over its rungs
_CG_ITERATIONS = 10**4


def _active_set_pcg(hessian_apply, precond, a, free, budget):
    """Primal-dual active-set loop at one lambda, warm-started from ``a`` and ``free``.

    The problem is ``min 1/2 a^T H a - 1^T a, a >= 0``, H applied by
    ``hessian_apply``.  Each pass runs preconditioned CG on the free set (the
    rest held at zero) to a residual within ``_KKT_TOL`` = 1e-10, then frees
    exactly the nonnegative free and the bound coordinates whose gradient is
    below -1e-10 (Hintermüller, Ito & Kunisch 2002); a pass that keeps the
    set has converged.  On a cold start (``a`` all zero) the passes are
    inexact (Dembo, Eisenstat & Steihaug 1982): each first stops its CG at
    ``max(1e-10, 1e-3 ||r0||_inf)``, r0 the pass's starting residual, and
    only when the set check keeps the set does the same CG run on, without a
    restart, to 1e-10 before the set is checked again.  A warm start runs
    every pass to 1e-10.  ``a`` is updated in place.  Returns
    ``(a, free, CG iterations used, passes, converged)``.
    """
    cold = not a.any()
    used = 0
    for passes in range(1, 101):
        bound = ~free
        a[bound] = 0.0
        r = 1.0 - hessian_apply(a)
        r[bound] = 0.0
        tol = max(_KKT_TOL, _COLD_PASS_FACTOR * float(np.max(np.abs(r)))) if cold else _KKT_TOL
        p = precond(r)
        p[bound] = 0.0
        rz = float(r @ p)
        while True:
            while used < budget:
                # a breakdown (rz or p^T H p not positive) recurs at once when the run is continued
                if float(np.max(np.abs(r))) <= tol or rz <= 0.0:
                    break
                hp = hessian_apply(p)
                hp[bound] = 0.0
                denom = float(p @ hp)
                if denom <= 0.0:
                    break
                alpha = rz / denom
                a += alpha * p
                r -= alpha * hp
                used += 1
                z = precond(r)
                z[bound] = 0.0
                rz_new = float(r @ z)
                p *= rz_new / rz
                p += z
                rz = rz_new
            if used >= budget:
                return a, free, used, passes, False
            new_free = np.where(free, a >= 0.0, hessian_apply(a) - 1.0 < -_KKT_TOL)
            if not np.array_equal(new_free, free):
                break
            if tol == _KKT_TOL:
                return a, free, used, passes, True
            tol = _KKT_TOL
        free = new_free
    return a, free, used, passes, False


def solve_convolution_grid(
    kernel_fn: Callable,
    tau: float,
    L: float,
    N: int,
    lambda_reg: Optional[float] = None,
) -> GridSolution:
    """Solve ``min 1/2 a^T (A + sqrt(lambda) I) a - 1^T a s.t. a >= 0`` on the grid.

    A is the Toeplitz kernel matrix ``A_ij = h K((i-j) h)``: its plateau
    ``h c 1 1^T``, c = K(-L), is applied as a rank-one term, and the band of
    lags where K differs from c by FFT on a circulant embedding of length
    about N plus the band's width, its spectrum computed once per solve (see
    ``_toeplitz_operator``).  At the minimizer the convolution ``A a`` is
    ``1 - sqrt(lambda) a`` where a > 0 and at least 1 where a = 0.
    ``lambda_reg`` is the Tikhonov weight in units of A^2: sqrt(lambda) is
    the spectral cutoff where the least-squares filter ``s^2 / (s^2 +
    lambda)`` and this problem's ``s / (s + sqrt(lambda))`` both equal 1/2.
    It defaults to ``1e-10 ||A||^2``, ``||A||`` the largest row sum of |A|
    (within 1 % above the spectral norm on the built-in cfs): sqrt(lambda)
    is exactly ``1e-5 ||A||``.  The solver is a primal-dual active-set
    method: on a fixed free set, conjugate gradients preconditioned by
    ``max(C, 0) + sqrt(lambda) I``, C the Strang circulant of A, solve
    ``(A + sqrt(lambda) I) a = 1`` with the bound coordinates at zero, one
    Toeplitz product per iteration; the nonnegative free and the bound
    coordinates whose gradient points into the feasible set form the next
    free set, until the set stays the same.  The first rung starts cold, from
    a = 0, and its passes are inexact: each stops its CG at 1e-3 times its
    starting residual (never below 1e-10), and where that leaves the set as
    it was, the same CG runs on to 1e-10 and the set is checked again (see
    ``_active_set_pcg``).  ``kernel_fn`` keeps the
    array contract of ``_elementary.call``: a solve calls it on all the lags
    ``-(N-1)h .. (N-1)h`` at once, and at L (the plateau).  For a cf with
    phi >= 0 and phi -> 0 the equation has no solution on the real line (see
    the module docstring): the result is a dispersion model on [-L, L], and
    ``a`` depends on L.

    A ``lambda_reg`` below the default, which conditions the matrix worse,
    is reached by continuation: rungs geometric in sqrt(lambda), at most a
    decade apart, from the default down to exactly ``lambda_reg``, each
    warm-started from the previous one's solution and free set; the ladder
    descends no further than the larger of ``eps ||A||`` and the smallest
    clipped eigenvalue of C.  Where sqrt(lambda) plus that eigenvalue is
    below ``eps ||A||`` (lambda = 0 on every built-in cf), the matrix is
    numerically singular and the solve is refused with DomainError naming
    that floor, before any CG iteration.

    Every rung stops when the free-set residual and every negative bound
    gradient are within 1e-10.  ``_CG_ITERATIONS`` = 10^4 bounds the CG
    iterations summed over all rungs, which ``iterations`` reports.  A
    kernel whose samples are not symmetric (within 1e-12 of their maximum)
    is rejected with DomainError before any product is formed.  Raises
    ConvergenceError, naming the iterations used, the budget and the KKT
    norm (max projected gradient) reached, when a rung does not converge
    within that budget or within 100 active-set passes.
    """
    if N < 2**10 or (N & (N - 1)) != 0:
        raise DomainError(f"grid size N={N} must be a power of two >= 1024")
    if not 0.0 < L < math.inf:
        raise DomainError(f"L must be positive and finite, got {L}")
    if lambda_reg is not None and not 0.0 <= lambda_reg < math.inf:
        raise DomainError(f"lambda_reg must be nonnegative and finite, got {lambda_reg}")
    grid = np.linspace(-L, L, N)
    h = float(grid[1] - grid[0])
    lags = np.arange(-(N - 1), N)
    kern = el.call(kernel_fn, h * lags)
    # the quadratic form below needs A^T = A, i.e. K(-t) = K(t)
    if np.max(np.abs(kern - kern[::-1])) > 1e-12 * np.max(np.abs(kern)):
        raise DomainError("the kernel is not symmetric: K(-t) != K(t) on the grid")
    plateau = float(kern[0])  # largest sampled lag ~ tail level
    kernel_at_l = float(kernel_fn(float(L)))
    if abs(kernel_at_l - plateau) > 1e-3:
        raise DomainError(
            "L is too small: the kernel has not reached its tail plateau at lag L"
        )
    band = _effective_support_band(kern, lags, plateau)

    apply_a = _toeplitz_operator(kern, h)
    # ||A||_inf, the largest row sum of |A|: row i sums the N samples from index i on
    sums = np.concatenate([[0.0], np.cumsum(np.abs(kern))])
    a_norm = h * float(np.max(sums[N:] - sums[:N]))
    if lambda_reg is None:
        # sqrt(lambda) is exactly the ladder's start, so the default solve is one rung
        shift = 1e-5 * a_norm
        lambda_reg = shift**2
    else:
        shift = math.sqrt(lambda_reg)

    # Strang circulant preconditioner max(C, 0) + sqrt(lambda) I, which FFT diagonalizes: C is
    # symmetric, so its spectrum is real and its first N/2 + 1 entries are all of it; the
    # circulant's first column holds the lags 0..N/2, then -(N/2 - 1)..-1
    circ = h * np.roll(kern[N // 2 : 3 * N // 2], 1 - N // 2)
    circ_eigs = np.maximum(np.fft.rfft(circ).real, 0.0)
    smallest, singular = float(np.min(circ_eigs)), np.finfo(float).eps * a_norm
    if shift + smallest < singular:
        raise DomainError(
            f"lambda_reg={lambda_reg:.3g} is below the floor: sqrt(lambda) plus the smallest clipped "
            f"circulant eigenvalue {smallest:.3g} is below eps ||A|| = {singular:.3g}, so A + sqrt(lambda) I "
            "is numerically singular")

    a = np.zeros(N)
    free = np.ones(N, dtype=bool)
    iterations = passes = 0
    for rung in _lambda_ladder(shift, 1e-5 * a_norm, max(singular, smallest)):
        inverse = 1.0 / (circ_eigs + rung)

        def hessian_apply(v: np.ndarray) -> np.ndarray:
            return apply_a(v) + rung * v

        def precond(v: np.ndarray) -> np.ndarray:
            return np.fft.irfft(np.fft.rfft(v) * inverse, N)

        a, free, used, rung_passes, converged = _active_set_pcg(
            hessian_apply, precond, a, free, _CG_ITERATIONS - iterations
        )
        iterations += used
        passes += rung_passes
        if not converged:
            a = np.maximum(a, 0.0)
            grad = hessian_apply(a) - 1.0
            # max projected gradient of the bound-constrained problem
            kkt = float(np.max(np.abs(np.where(a > 0.0, grad, np.minimum(grad, 0.0)))))
            raise ConvergenceError(
                f"active-set CG did not reach the KKT tolerance {_KKT_TOL:g} at lambda={rung**2:.3g}: KKT norm "
                f"{kkt:.3g} after {iterations} CG iterations (budget {_CG_ITERATIONS})")

    conv = apply_a(a)
    residual = float(np.max(np.abs(conv[band : N - band] - 1.0)))
    overshoot = float(np.max(conv - 1.0, where=a == 0.0, initial=0.0))
    return GridSolution(
        grid=grid,
        a_values=a,
        tau=tau,
        residual=residual,
        lambda_reg=float(lambda_reg),
        edge_band=band,
        iterations=iterations,
        passes=passes,
        ill_posed=residual > 0.1,
        plateau=kernel_at_l,
        overshoot=overshoot,
    )


def solve_normalizer(
    cf: CfSpec,
    tau: float,
    L: float,
    N: int,
    lambda_reg: Optional[float] = None,
) -> GridSolution:
    """Discretize and solve ``[a_tau * K_tau](mu) = 1`` for the given cf."""
    validate_cf(cf)
    return solve_convolution_grid(
        lambda t: kernel(cf, tau, t), tau, L, N, lambda_reg=lambda_reg
    )


def convolution_residual(sol: GridSolution, cf) -> float:
    """Recompute the interior residual with a fresh, direct kernel evaluation.

    ``cf`` may be a CfSpec (the kernel is rebuilt from it at the
    solution's tau) or a bare kernel callable.  The direct summation path
    is independent of the solver's FFT matrix.
    """
    kernel_fn = (lambda t: kernel(cf, sol.tau, t)) if isinstance(cf, CfSpec) else cf
    n, h = len(sol.grid), sol.spacing
    kern = el.call(kernel_fn, h * np.arange(-(n - 1), n))
    conv = h * np.convolve(sol.a_values, kern, mode="valid")
    interior = sol.interior
    return float(np.max(np.abs(conv[interior] - 1.0)))


CHARACTERISTIC_FUNCTIONS: dict[str, CfSpec] = {
    "gauss": CfSpec(phi=lambda t: el.exp(-0.5 * t * t), name="gauss", m2=1.0),
    # Laplace-shaped cf (the characteristic function of the Cauchy law):
    # no second moment, so the induced deviance is not regular
    "laplace-cf": CfSpec(phi=lambda t: el.exp(-abs(t)), name="laplace-cf", m2=None),
    # triangular-shaped cf (Polya): valid, compactly supported, heavy-tailed law
    "triangular-cf": CfSpec(phi=lambda t: el.positive_part(1.0 - abs(t)), name="triangular-cf", m2=None),
}


def get_cf(name_or_expr: str) -> CfSpec:
    """Look up a built-in cf by name, or compile ``t``-expressions on the fly."""
    if name_or_expr in CHARACTERISTIC_FUNCTIONS:
        return CHARACTERISTIC_FUNCTIONS[name_or_expr]
    fn = compile_expression(name_or_expr, ["t"])
    cf = CfSpec(phi=fn, name=f"user[{name_or_expr}]", m2=None)
    validate_cf(cf)
    return cf
