"""Numerical routines shared across modules.

``derivative`` is the one finite-difference routine.  It evaluates the
O(h^2) central stencil of order r (1 to 6) at the steps h, h/2 and h/4 and
extrapolates twice (Richardson), which leaves an O(h^6) truncation error.
Rounding in the finest stencil costs about eps |f| / (h/4)^r, and the two
balance where h^6 = eps 4^r / h^r, so the step is

    h = (eps 4^r)^(1/(r+6)) * min(max(1, |x|), distance from x to the
                                  nearest finite end of the domain).

The second factor is the length on which f varies: |x| away from the
origin, and the distance to a finite boundary, where generators and
deviances are singular.  The first factor is below 0.1 for every order and
the widest stencil reaches 3h, so no probe leaves the domain.  Callers
pass the domain, never a step.  ``derivative`` has one array path: ``f``
is called once on all stencil points of every entry, and a float runs as a
0-d array and returns a float.  ``_bracketed_newton`` runs floats and
ndarrays alike, one call of ``fn`` per iteration.

``_quadrature`` is the one integration rule: the 16-point Gauss-Legendre rule
(shared with the p > 2 Tweedie inversion) on adaptive panels (Piessens et al.
1983, *QUADPACK*; Gander & Gautschi 2000, *BIT* 40:84).  An interval is cut
at a centre c into two pieces, each on t in [0, 1] from its end (t = 0) to c:
x = end + (c - end) t^3 from a finite end, which turns a singularity x^a there
into t^(3a + 2), and x = c -+ L (1 - t)/t from -+inf; a node is as accurate
as its distance to its end.  L is ``_TAIL_SPREADS`` times the integrand's
spread where the caller gives one (a PDM normalizer whose deviance carries
its unit variance gives sqrt(tau V(mu))), else the distance from c to the
other end (or 1), blind to the integrand's width.  t = 1/2 maps to c -+ L, so
the first round's inner parent holds the integrand out to 4 spreads and the
outer one its tail: on the renormalized gamma, inverse Gaussian and normal
normalizers, multiples 3 to 8 take the fewest calls, 2 sends a tenth of the
gamma ones to a second round and 16 takes a fifth more calls.
A panel's estimate is the rule on its halves, its error the gap to the rule
on the whole.  Each round splits every panel with an error at least 1/8 of
its integral's largest, a panel at t = 0 at a quarter, so panels grade
geometrically into the end; where the rings there decay by a ratio r < 1 (a
power law), the innermost panel takes the tail r/(1 - r) of the last ring
when that changes less between rounds than the rule.  An integral is done
within ``_QUAD_TOL`` (relative), or within ``_QUAD_NOISE`` once its error has
not halved in eight rounds (the integrand's rounding); after ``_QUAD_ROUNDS``
rounds or ``_QUAD_PANELS`` panels it is refused.  The integrand takes arrays
only: one call per round on the nodes of the panels split in it, of up to
``_QUAD_BATCH`` integrals.  The first round splits the same parents on every
piece, so its nodes and weights under both end maps are computed once, at
import (``_FIRST_ROUND``), and an integral's first call is these scaled to its
pieces: at 16-1024 nodes numpy's fixed cost per call, not the arithmetic, sets
the time.  A lattice support is summed from the point nearest the centre its
caller gives, up and then down, in blocks of terms: the first call holds the
first block of both runs, and each later call one block.  No module imports
scipy when it loads, nor SciPy's integrators or optimizers: ``scipy.special``
comes with the first special-function call, through ``_elementary.special``.

Four private solvers are written here once: ``_bracketed_newton`` (the
inverse mean mapping, the dispersion MLE), ``_quadrature`` (the deviance by
quadrature, the variance-stabilizing transform), ``_support_integral`` (the
normalizing integrals and sums of the PDM layer, which the renormalized
saddlepoint shares, and of the self-checks) and ``_refined_maxima`` (the
maximizer of yokes and the lattice scan of characteristic functions).  Each
caller keeps its own error gate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .support import RealInterval

EPS = float(np.finfo(float).eps)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

__all__ = ["EPS", "derivative"]

# the quadrature: the parent panels [a, s, b] it starts each piece with, the relative error asked of an
# integral (of one whose error stalls), the refinement it may spend, and the integrals refined together
_FIRST_PARENTS = np.array([[0.0, 0.125, 0.5], [0.5, 0.75, 1.0]])
_QUAD_TOL, _QUAD_NOISE, _QUAD_ROUNDS, _QUAD_PANELS, _QUAD_BATCH = 1e-10, 1e-6, 60, 2048, 64
# an infinite end's length L in spreads of the integrand, where its caller knows the spread
_TAIL_SPREADS = 4.0
# lattice sums: terms in a run's first block, doubling each call up to the last
_LATTICE_BLOCK, _LATTICE_BLOCK_MAX = 64, 2**16
_NEWTON_ITERATIONS = 200  # evaluations of the safeguarded Newton before it gives up
# (node, weight) of the nonnegative half of the symmetric 16-point Gauss-Legendre rule on [-1, 1], as
# numpy.polynomial.legendre.leggauss(16) gives them; _GL_NODES and _GL_WEIGHTS are the rule on [0, 1]
_LEGENDRE_16 = np.array([
    (0.09501250983763744, 0.18945061045506864), (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265), (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407), (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456), (0.9894009349916499, 0.027152459411754176),
])
_GL_NODES = 0.5 * (np.concatenate((-_LEGENDRE_16[::-1, 0], _LEGENDRE_16[:, 0])) + 1.0)
_GL_WEIGHTS = 0.5 * np.concatenate((_LEGENDRE_16[::-1, 1], _LEGENDRE_16[:, 1]))
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False  # every caller gets these arrays
# the sign of the t-axis of a piece from the lower end of its integral, and from its upper end
_SIDES = np.array([1.0, -1.0])

# Central stencil coefficients (offset -> weight, divided by h^order), O(h^2).
_STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
    5: {-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5},
    6: {-3: 1.0, -2: -6.0, -1: 15.0, 0: -20.0, 1: 15.0, 2: -6.0, 3: 1.0},
}
# order -> the offsets of the stencils at h, h/2 and h/4 in units of h, a row each, and their
# weights times 2^(i order), as the stencil at h/2^i divides by (h/2^i)^order = h^order / 2^(i order)
_GRIDS = {order: (np.outer([1.0, 0.5, 0.25], list(stencil)),
                  np.outer([1.0, 2.0**order, 4.0**order], list(stencil.values())))
          for order, stencil in _STENCILS.items()}


def _length_scale(x, domain: RealInterval):
    """``min(max(1, |x|), distance from x to the nearest finite end of domain)``, entry by entry."""
    scale = np.maximum(1.0, abs(x))
    for end in (domain.lower, domain.upper):
        if math.isfinite(end):
            scale = np.minimum(scale, abs(x - end))
    return scale


def derivative(f, x, order: int, domain: RealInterval):
    """The ``order``-th derivative of ``f`` at ``x`` inside the open ``domain``.

    Stencils at h, h/2 and h/4 with two Richardson levels and the step of
    the module docstring; orders above 6 are refused (rounding noise at the
    required steps dominates).  ``f`` must take ndarrays: it is called once
    on every stencil point, each entry with its own step, so an entry of an
    ndarray equals its call on that entry alone.  A float runs as a 0-d
    array and returns a float.  A point outside the domain raises
    ``DomainError`` (naming the entry of an n-d ``x``).  A value that is not
    finite raises ``NumericalError`` for a float or a 0-d array; an n-d
    array returns it for the caller to gate.
    """
    if order not in _STENCILS:
        raise NumericalError(f"no finite difference of order {order}; register an analytic form")
    x = np.asarray(x, dtype=float)
    h = (EPS * 4.0**order) ** (1.0 / (order + 6)) * _length_scale(x, domain)
    if x.size and not domain.lower < x.min() <= x.max() < domain.upper:
        if not x.ndim:
            raise DomainError(f"finite difference at {float(x)} outside the interior of {domain}")
        i = int(np.argmax(~((domain.lower < x) & (x < domain.upper))))
        raise DomainError(f"finite difference at entry {i}, {x.flat[i]}, outside the interior "
                          f"of {domain}")
    offsets, weights = (a.reshape(a.shape + (1,) * x.ndim) for a in _GRIDS[order])
    with np.errstate(invalid="ignore", over="ignore"):
        # numpy sums fewer than 8 terms in order (pairwise summation starts at 8), so each entry of
        # the at most 7 stencil points rounds as a sum over its own stencil, as a running sum would
        value = _richardson((weights * f(x + offsets * h)).sum(axis=1), h, order)
    if x.ndim:
        return value
    if not math.isfinite(value):
        raise NumericalError(f"finite-difference derivative of order {order} at {float(x)} is not finite")
    return float(value)


def _richardson(sums, h, order: int):
    """The derivative from the stencil sums at h, h/2 and h/4, each times 2^(i order).

    Over h^order they estimate it with errors C h^2 / 4^i + O(h^4), so two
    Richardson levels remove C h^2.  ``sums`` has a row per step, each of
    ``h``'s shape (0-d for a float).
    """
    s0, s1, s2 = sums
    coarse, fine = (4.0 * s1 - s0) / 3.0, (4.0 * s2 - s1) / 3.0
    return (16.0 * fine - coarse) / 15.0 / math.prod([h] * order)


def _bracketed_newton(fn, slope, lo, hi, tol, what: str, increasing: bool = True):
    """Roots of the monotone ``fn`` inside the brackets ``(lo, hi)``, floats or ndarrays.

    Safeguarded Newton from the midpoint: each iterate shrinks the bracket
    by the sign of ``fn``, and a step that leaves the bracket (or a zero or
    non-finite ``slope``) is replaced by bisection, so the iteration cannot
    diverge.  Each entry takes these steps in its own bracket and stops at
    its first iterate with ``|fn| <= tol`` (then stays put); ``fn`` and
    ``slope`` see all iterates in one call per iteration.  Floats run as 0-d
    arrays and return a float.  After ``_NEWTON_ITERATIONS`` evaluations raises
    ``ConvergenceError`` naming the solve (``what``), the residual, the last
    iterate and, for an ndarray, the first entry that did not stop.
    """
    x = 0.5 * (np.asarray(lo, dtype=float) + np.asarray(hi, dtype=float))
    tol = np.broadcast_to(tol, np.shape(x))
    running = np.ones(np.shape(x), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ITERATIONS):
            val = np.asarray(fn(x), dtype=float)
            running &= ~(np.abs(val) <= tol)
            if not running.any():
                return x if np.ndim(x) else float(x)
            up = (val < 0.0) == increasing
            lo, hi = np.where(up, x, lo), np.where(up, hi, x)  # a stopped entry's bracket is not read
            candidate = x - val / slope(x)  # a zero slope gives a non-finite candidate
            inside = (lo < candidate) & (candidate < hi)  # false where it is nan or infinite
            x, last = np.where(running, np.where(inside, candidate, 0.5 * (lo + hi)), x), x
    i = int(np.argmax(running))
    val, last, tol = (np.ravel(a)[i] for a in (val, last, tol))
    where = f" at entry {i}" if np.ndim(x) else ""
    raise ConvergenceError(
        f"{what}{where} did not converge in {_NEWTON_ITERATIONS} iterations: residual {abs(val):.3g} "
        f"at x = {last:.6g} against the tolerance {tol:.3g}"
    )


def _refined_maxima(fn, xs: np.ndarray, vals: np.ndarray, tol: float, floor: float = -math.inf,
                    ends: bool = False) -> list[tuple[float, float]]:
    """``(x, fn(x))`` at the local maxima of the scan ``vals = fn(xs)``, refined, highest first.

    A maximum is a scan point at least as high as its neighbours; the first
    and last points count only when ``ends`` is set.  The five highest
    whose scan value is at least ``floor`` are refined by golden section
    between their neighbours until the bracket [a, b] is below
    ``tol (1 + |a| + |b|)``.  Golden section needs no smoothness, so a cusped
    peak is found as closely as a smooth one.
    """
    edge = -math.inf if ends else math.inf
    padded = np.concatenate(([edge], vals, [edge]))
    peaks = np.nonzero((vals >= padded[:-2]) & (vals >= padded[2:]) & (vals >= floor))[0]
    peaks = peaks[np.argsort(-vals[peaks], kind="stable")][:5]
    found = []
    for i in peaks.tolist():
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc, fd = fn(c), fn(d)
        while b - a > tol * (1.0 + abs(a) + abs(b)):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = fn(d)
        x = 0.5 * (a + b)
        found.append((x, fn(x)))
    return sorted(found, key=lambda peak: -peak[1])


def _finite(values, x: np.ndarray) -> np.ndarray:
    """``values`` of an integrand at the nodes ``x``, refused with ``NumericalError`` where not finite."""
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        values = np.broadcast_to(values, x.shape)
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmax(~finite))
        raise NumericalError(f"integrand not finite at {x.flat[i]}: {values.flat[i]}")
    return values


def _gauss_legendre_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, shape ``(..., k, 16)``, on the k panels between the last axis of ``edges``."""
    width = (edges[..., 1:] - edges[..., :-1])[..., None]
    return edges[..., :-1, None] + width * _GL_NODES, width * _GL_WEIGHTS


def _end_maps(t: np.ndarray, w: np.ndarray):
    """``(nodes, weights)`` of the nodes ``t`` and weights ``w`` on the t-axis of a piece under the map
    from a finite end (t^3), then under the map from an infinite one ((1 - t)/t)."""
    return (t**3, 3.0 * t * t * w), ((1.0 - t) / t, w / (t * t))


def _first_round() -> np.ndarray:
    """Nodes and weights of the first round on a piece, shape (2, 2, 3, 2, 16): under the map from a
    finite end or from an infinite one; nodes or weights; on the parents of ``_FIRST_PARENTS``, their
    left children or their right ones; on the first parent or the second; the 16 nodes."""
    a, s, b = _FIRST_PARENTS.T
    edges = np.stack([np.concatenate([a, a, s]), np.concatenate([b, s, b])], axis=-1)[:, None]
    return np.array(_end_maps(*(v.reshape(3, 2, 16) for v in _gauss_legendre_panels(edges))))


_FIRST_ROUND = _first_round()
# the piece of each row of the first round's nodes: 3 kinds of panel on 2 parents a piece
_FIRST_PIECES = np.arange(12 * _QUAD_BATCH) // 6


def _quadrature(fn, lower, upper, center=None, spread=None):
    """``(integral, error estimate)`` of ``fn`` from ``lower`` to ``upper`` by the rule of the module docstring.

    The ends and ``center`` (by default the midpoint, a unit inside a finite end, or 0) are floats,
    or 1-d arrays of as many integrals, each refined on its own, so that an entry equals its float
    call; an infinite end is ``lower = -inf`` or ``upper = inf``.  ``spread``, a positive float, is
    the width of every integrand: an infinite end's length L is then ``_TAIL_SPREADS`` spreads.
    ``fn(x, rows)`` gets the nodes ``x``, shape ``(k, 16)``, and the integral of each row of them.
    Floats in give floats out.
    """
    try:
        ends = np.array([lower, upper], dtype=float)
    except ValueError:  # ends of two shapes
        ends = np.array(np.broadcast_arrays(lower, upper), dtype=float)
    shape, ends = ends.shape[1:], ends.reshape(2, -1).T
    m, finite = len(ends), np.isfinite(ends)
    infinite = ~finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused as not finite
        if center is None:
            lo, hi = ends.T
            center = np.where(infinite[:, 0], np.where(infinite[:, 1], 0.0, hi - 1.0),
                              np.where(infinite[:, 1], lo + 1.0, 0.5 * lo + 0.5 * hi))
        c = np.asarray(center, dtype=float).reshape(-1, 1)
        if m > _QUAD_BATCH:  # a batch at a time, so that the nodes of a round stay bounded
            c = np.broadcast_to(c, (m, 1))
            parts = [_quadrature(lambda x, rows, i=i: fn(x, rows + i), *ends[i:i + _QUAD_BATCH].T,
                                 c[i:i + _QUAD_BATCH, 0], spread) for i in range(0, m, _QUAD_BATCH)]
            return tuple(np.concatenate(part).reshape(shape) for part in zip(*parts))
        # piece 2i runs from the lower end of integral i to c, piece 2i + 1 from its upper end
        span = c - ends
        length = np.where(finite[:, ::-1], np.abs(span[:, ::-1]), 1.0)
        if spread is not None:  # read on infinite ends only
            length = np.full((m, 2), _TAIL_SPREADS * spread)
        base = np.where(infinite, c, ends).ravel()
        scale = np.where(infinite, np.sign(ends) * length, span).ravel()
        jacobian = np.where(infinite, length, span * _SIDES).ravel()
        outward = infinite.ravel()

        def rule(x, w, pieces):  # the 16-point rule on the panels of the pieces, nodes x and weights w
            return (_finite(fn(x, pieces // 2), x) * (jacobian[pieces, None] * w)).sum(axis=1)

        def panel_sums(left, right, pieces):  # the rule on the panels [left, right] of the pieces
            panels = _gauss_legendre_panels(np.stack([left, right], axis=-1))
            (t, w), (t_out, w_out) = _end_maps(*(a[:, 0] for a in panels))
            out = outward[pieces, None]
            x = base[pieces, None] + scale[pieces, None] * np.where(out, t_out, t)
            return rule(x, np.where(out, w_out, w), pieces)

        # a row of ``panel`` is a parent [a, s, b] on the t-axis of a piece, then its children [a, s] and
        # [s, b] by the rule and their gap to the parent; ``plain`` and ``tail`` hold each piece's
        # outermost child by the rule and as a geometric tail.  The first round splits _FIRST_PARENTS
        # on every piece, at the nodes of the piece's map.
        nodes = _FIRST_ROUND[outward.view(np.int8)]
        sums = rule((base[:, None, None, None] + scale[:, None, None, None] * nodes[:, 0]).reshape(-1, 16),
                    nodes[:, 1].reshape(-1, 16), _FIRST_PIECES[:12 * m])
        whole, left, right = sums.reshape(-1, 3, 2).transpose(1, 0, 2)
        panel = np.empty((2 * m, 2, 6))
        panel[..., :3] = _FIRST_PARENTS
        panel[..., 3], panel[..., 4], panel[..., 5] = left, right, np.abs(whole - left - right)
        panel, pieces = panel.reshape(-1, 6), _FIRST_PIECES[:12 * m:3]  # every third row: two parents a piece
        plain, tail, gaps = left[:, 0], np.full(2 * m, np.nan), []
        for _ in range(_QUAD_ROUNDS):
            rows = pieces // 2
            total, gap = np.bincount(rows, panel[:, 3] + panel[:, 4], m), np.bincount(rows, panel[:, 5], m)
            if np.count_nonzero(np.isfinite(total + gap)) < m:
                raise NumericalError(f"integral {total[np.argmax(~np.isfinite(total + gap))]} overflows")
            gaps.append(gap)
            short = gap > _QUAD_TOL * np.abs(total)
            if len(gaps) > 8:  # an error that did not halve in eight rounds is the integrand's noise
                short &= (gap < 0.5 * gaps[-9]) | (gap > _QUAD_NOISE * np.abs(total))
            if not np.count_nonzero(short):
                return (total.reshape(shape), gap.reshape(shape)) if shape else (float(total[0]), float(gap[0]))
            if len(pieces) > _QUAD_PANELS and np.bincount(rows).max() > _QUAD_PANELS:
                break
            # a short integral splits every panel whose error is an eighth of its largest or more: a
            # parent at t = 0 leaves children split at a quarter, any other at half
            score = panel[:, 5] / np.where(short, np.maximum(np.abs(total), 1e-300), np.inf)[rows]
            largest = np.zeros(m)
            np.maximum.at(largest, rows, score)
            split = (score >= largest[rows] / 8.0) & (score > 0.0)
            old, at = panel[split], pieces[split]
            at = np.concatenate([at, at])
            a, b = np.concatenate([old[:, 0], old[:, 1]]), np.concatenate([old[:, 1], old[:, 2]])
            s = np.where(a == 0.0, 0.25 * b, 0.5 * (a + b))
            left, right = panel_sums(np.concatenate([a, s]), np.concatenate([s, b]),
                                     np.concatenate([at, at])).reshape(2, -1)
            error = np.abs(np.concatenate([old[:, 3], old[:, 4]]) - left - right)
            outer = np.flatnonzero(old[:, 0] == 0.0)
            if outer.size:  # rings [s/4, s] and [s, 4s] of a power law t^b decay by r = 4^-(b+1)
                ring, piece = right[outer], at[outer]
                r = ring / old[outer, 4]
                estimate = np.where((0.0 < r) & (r < 1.0), ring * r / (1.0 - r), np.nan)
                tail_gap = np.abs(tail[piece] - estimate - ring)  # nan without a tail the split before
                plain_gap = np.abs(plain[piece] - left[outer] - ring)
                plain[piece], tail[piece] = left[outer], estimate
                left[outer] = np.where(tail_gap < plain_gap, estimate, left[outer])
                error[outer] = np.fmin(tail_gap, plain_gap)
            panel = np.concatenate([panel[~split], np.array([a, s, b, left, right, error]).T])
            pieces = np.concatenate([pieces[~split], at])
    i = int(np.argmax(short))
    raise NumericalError(f"quadrature did not reach the relative error {_QUAD_TOL:g} in {len(gaps)} rounds "
                         f"of at most {_QUAD_PANELS} panels: {total[i]:.6g} with error {gap[i]:.3g}")


def _support_integral(fn, support, center: float, spread=None) -> tuple[float, float]:
    """``(integral, error estimate)`` of ``fn``, called on ndarrays only, over a ``RealInterval``.

    A lattice support is summed over its integer points from ``max(lower, 0)``, a block of terms a
    call, up from the point nearest the ``center`` where ``fn`` peaks and then down from there; a run
    stops after three consecutive terms below 1e-14 of the running total or zero (the error estimate
    then gains the last term), or at an end of the support, so a sum whose every term underflows
    stops at once.  The first call of ``fn`` holds the first block of both runs and the term 10^7
    points above the start.  More than 10^7 terms, a start beyond 2^53, or that far term not below
    1e-14 of the start's (told before summing), raise ``NumericalError``.  Any other support goes to
    :func:`_quadrature`, cut at ``center``; ``spread``, the integrand's width about ``center`` if
    given, then sets the length L of an infinite end.
    """
    if not support.lattice:
        return _quadrature(lambda x, _: fn(x), support.lower, support.upper, center, spread)
    lower = math.ceil(max(support.lower, 0.0) if math.isfinite(support.lower) else 0.0)
    start = max(lower, min(round(center), support.upper))
    if not start < 2**53:
        raise NumericalError(f"lattice sum from {start:.3g}, beyond the integers a float holds")

    def terms_from(k, step, block):  # the next block of a run
        end = min(k + block, support.upper + 1) if step > 0 else max(k - block, lower - 1)
        return np.arange(k, end, step, dtype=float)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused as not finite
        up, down = terms_from(start, 1, _LATTICE_BLOCK), terms_from(start - 1, -1, _LATTICE_BLOCK)
        probe = [start + 1e7] if start + 10**7 <= support.upper else []
        ks = np.concatenate([up, down, probe])
        head = fn(ks)
        if probe and head[-1] > 1e-14 * head[0]:
            raise NumericalError(f"lattice sum from {start} cannot converge within 10^7 terms: the term "
                                 "10^7 points above it is not below 1e-14 of its own")
        total, error, terms = 0.0, 0.0, 0
        for k, step, ready in ((start, 1, head[:up.size]), (start - 1, -1, head[up.size:up.size + down.size])):
            quiet, block = 0, _LATTICE_BLOCK
            while lower <= k <= support.upper and quiet < 3:
                ks = terms_from(k, step, block)
                values, ready = _finite(fn(ks) if ready is None else ready, ks), None
                running = np.cumsum(np.concatenate(([total], values)))[1:]  # added in order, as one by one
                negligible = (values < 1e-14 * running) | (values == 0.0)
                run = np.concatenate([np.ones(quiet, dtype=bool), negligible])  # with the run carried in
                stops = np.flatnonzero(run[2:] & run[1:-1] & run[:-2])
                n = stops[0] + 3 - quiet if stops.size else ks.size
                total, terms, k = float(running[n - 1]), terms + n, k + step * n
                block = min(2 * block, _LATTICE_BLOCK_MAX)
                if terms > 10**7:
                    raise NumericalError("lattice sum did not converge within 10^7 terms")
                quiet = 3 if stops.size else 2 if run[-2:].all() else int(run[-1])
            error += float(values[n - 1]) if quiet == 3 else 0.0
    return total, error
