"""Tweedie power-variance families: V(mu) = mu^p.

No family exists for p in (0, 1).  Every other p is one member of the power
family of ``edm._power_family``: p = 0, 1, 2, 3 are the normal, Poisson, gamma
and inverse Gaussian families of ``edm.FAMILIES`` themselves; 1 < p < 2 gives
compound Poisson-gamma distributions (continuous on y > 0 with an atom at
zero); p > 2 gives continuous positive-stable generated distributions;
p < 0 gives extreme-stable generated distributions whose densities have
no workable evaluation route here (generator and deviance only).

Every density is the EDM density ``exp{c(y; tau) + [y theta - b_p(theta)]/tau}``
of the view below, with one normalizer c: the EDM family's at p in {0, 1, 2, 3}
(the Poisson one in dispersion form: p = 1 is tau Poisson(mu/tau) on the lattice
``tau N0``), 0 at the zero atom of 1 < p < 2, and the positive-stable series
anchored at its largest term for p > 2.  Otherwise c is the log density at y of
the member with mean y, minus its theta-part: a Poisson mixture of gamma
densities over the jump counts within 10 sqrt(lambda) + 10 of the rate lambda
for 1 < p < 2 (Dunn & Smyth 2005), and the inversion of the cf exp K(it) for
p > 2 (Dunn & Smyth 2008).  The cdf is the normal, Poisson, gamma and inverse
Gaussian cdf at p = 0, 1, 2 and 3, the same Poisson-gamma sum over incomplete
gammas for 1 < p < 2, and Gil-Pelaez inversion of the cf for the other p > 2.

Both inversions are one fixed-node rule that calls the cf on arrays, all the
rows of a cdf together (``_fourier_inversion``): Gauss-Legendre panels on the
centred cf up to ``_S_SPLIT`` sd^-1, then panels between the zeros of the
oscillating factor e^(-isy/sd), whose partial sums Sidi's mW transformation
extrapolates (Sidi 1988, Math. Comp. 51:249; the W-algorithm in closed form,
as the zeros are equally spaced), in the manner of Dunn & Smyth (2008, Stat.
Comput. 18:73).

``_validate_p`` decides the switch windows, once: within ``P_SWITCH`` of 1 or 2
it returns 1.0 or 2.0.  ``_view`` of the validated p, cached, is the EDM family
that ``TweedieFamily.to_edm`` returns: the classic family renamed at p in
{0, 1, 2, 3} (every tau > 0 a dispersion), else ``edm._power_family`` with the
normalizer c above.  The other functions are ``edm`` calls on the view or reads
of its fields: the density checks y by ``edm``'s one lattice rule, by which the
p = 1 cdf counts, and the cdfs read b and q.  Its formulas take a float or an
ndarray, so Tweedie families run on the array path of IRLS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _elementary as el
from ._numdiff import _GL_NODES, _GL_WEIGHTS, _gauss_legendre_panels
from . import edm
from .edm import EdmFamily
from .errors import DomainError, NumericalError, refuses_numerical_failure
from .support import POSITIVE_REALS, RealInterval

__all__ = [
    "TweedieFamily",
    "tweedie_family",
    "tweedie_canonical_domain",
    "tweedie_cumulant_generator",
    "tweedie_mean",
    "tweedie_inverse_mean",
    "tweedie_deviance",
    "tweedie_density",
    "tweedie_zero_mass",
    "tweedie_cdf",
    "compound_poisson_gamma_params",
    "sample_compound_poisson_gamma",
]

# _validate_p snaps p this close to 1 or 2 to 1.0 or 2.0, where the (1-p) and (2-p) denominators cancel
P_SWITCH = 1e-6

_SERIES_MAX_TERMS = 10**5
# p > 2 series: the largest dispersion tau y^(p-2) at which its sum is estimated before summing
_ESTIMATED_DISPERSION = 1e4
_CDF_BLOCK = 2**20  # 1 < p < 2 cdf: entries of one rows-by-jump-counts block of gammainc
# p > 2 inversion: 16-point Gauss-Legendre panels, _HEAD_PANELS of them or more on [0, _S_SPLIT]
# (a Gaussian cf is below e^-32 past it), then _BATCH >= _WINDOW + 3 half-periods a cf call, extrapolated over
# _WINDOW partial sums until four extrapolants agree to _AGREE of the gate; _MAX_PANELS panels a row at most
_S_SPLIT, _HEAD_PANELS, _BATCH, _WINDOW, _AGREE, _MAX_PANELS = 8.0, 8, 32, 12, 1e-3, 1024
_INVERSION_ROWS = 64  # p > 2 cdf: rows inverted together
_MW_SIGNS = np.array([(-1.0) ** k * math.comb(_WINDOW - 1, k) for k in range(_WINDOW)])  # (-1)^l C(11, l)


def _validate_p(p: float) -> float:
    """The power the formulas use: exactly 1.0 or 2.0 within ``P_SWITCH`` of it, else p."""
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"the power p must be finite, got {p}")
    if 0.0 < p < 1.0:  # refused before the snap, so the p = 1 window is one-sided
        raise DomainError(f"no exponential dispersion model has power variance p={p} in (0, 1)")
    special = float(round(p))
    return special if special in (1.0, 2.0) and abs(p - special) < P_SWITCH else p


@functools.lru_cache(maxsize=128)
def _view(p: float) -> EdmFamily:
    """The EDM family of a validated power p, built once: the classic family of ``edm.FAMILIES`` at
    p in {0, 1, 2, 3}, else ``edm._power_family`` with the Tweedie normalizer (none for p < 0)."""
    name = f"tweedie(p={p:g})"
    if p in (0.0, 1.0, 2.0, 3.0):  # every tau > 0: the Poisson normalizer is in dispersion form too
        fam = edm.FAMILIES[("normal", "poisson", "gamma", "inverse_gaussian")[int(p)]]
        return replace(fam, name=name, dispersion_domain=POSITIVE_REALS)
    normalizer = None if p < 0.0 else functools.partial(_log_normalizer, p)
    return edm._power_family(p, name, exact_normalizer=normalizer)


def tweedie_canonical_domain(p: float) -> RealInterval:
    """Canonical domain of the generator: where [(1-p) theta]^((p-2)/(p-1)) lives."""
    return _view(_validate_p(p)).theta_domain


def tweedie_support(p: float) -> RealInterval:
    return _view(_validate_p(p)).support


def tweedie_mean_domain(p: float) -> RealInterval:
    return _view(_validate_p(p)).mean_domain


@refuses_numerical_failure
def tweedie_cumulant_generator(p: float, theta: float) -> float:
    """Cumulant generator ``b_p(theta)``.

    ``(2-p)^(-1) [(1-p) theta]^((p-2)/(p-1))`` away from the special
    powers; ``exp(theta)`` at p = 1 and ``-log(-theta)`` at p = 2 (the
    removable singularities of the general form).
    """
    fam = _view(_validate_p(p))
    return fam.b(fam.theta_domain.require(theta, "theta"))


def tweedie_mean(p: float, theta: float) -> float:
    """Mean value mapping ``b_p'(theta) = [(1-p) theta]^(1/(1-p))``."""
    return edm.mean_value(_view(_validate_p(p)), theta)


def tweedie_inverse_mean(p: float, mu: float) -> float:
    """Canonical parameter ``q(mu) = mu^(1-p)/(1-p)`` (log mu at p = 1)."""
    return edm.inverse_mean(_view(_validate_p(p)), mu)


def tweedie_deviance(p: float, y, mu):
    """Unit deviance ``d_p(y; mu) = 2 integral_mu^y (y - t) t^(-p) dt``; ``y`` and ``mu`` may be ndarrays.

    ``edm.edm_deviance`` on the view: ``_elementary.power_deviance`` in units of mu for every p but
    the normal (p = 0) and inverse Gaussian (p = 3) closed forms, exactly 0 at ``y == mu``.  The
    term ``max(y, 0)^(2-p)`` of the antiderivative is the saturated (Legendre) part, which vanishes
    for y <= 0 when the canonical domain is one-sided.
    """
    return edm.edm_deviance(_view(_validate_p(p)), y, mu)


@refuses_numerical_failure
def tweedie_zero_mass(p: float, mu: float, tau: float) -> float:
    """Probability mass at zero for 1 < p < 2: ``exp(-mu^(2-p) / (tau (2-p)))``, the Poisson
    probability of no jump in the compound Poisson-gamma representation."""
    POSITIVE_REALS.require(mu, "mu")
    POSITIVE_REALS.require(tau, "tau")
    return math.exp(-compound_poisson_gamma_params(p, mu, tau)[0])


def compound_poisson_gamma_params(p: float, mu: float, tau: float) -> tuple[float, float, float]:
    """(Poisson rate, gamma shape, gamma scale) of the 1 < p < 2 representation."""
    if not 1.0 < p < 2.0:
        raise DomainError(f"compound Poisson-gamma representation needs 1 < p < 2, got p={p}")
    if tau * (2.0 - p) == 0.0:
        raise NumericalError(f"compound Poisson rate at (p={p}, mu={mu}, tau={tau}) divides by "
                             "tau (2 - p), which underflows to 0")
    rate = mu ** (2.0 - p) / (tau * (2.0 - p))
    shape = (2.0 - p) / (p - 1.0)
    scale = tau * (p - 1.0) * mu ** (p - 1.0)
    return rate, shape, scale


def sample_compound_poisson_gamma(
    p: float, mu: float, tau: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws from the compound Poisson-gamma Tweedie (1 < p < 2).

    A sum of N iid gamma(shape, scale) with N ~ Poisson(rate) is
    gamma(N * shape, scale), so the whole batch vectorizes.
    """
    rate, shape, scale = compound_poisson_gamma_params(p, mu, tau)
    counts = rng.poisson(rate, size=size)
    out = np.zeros(size)
    positive = counts > 0
    out[positive] = rng.gamma(shape * counts[positive], scale)
    return out


def _poisson_gamma_terms(p: float, mu: float, tau: float):
    """Jump counts n, their log Poisson weights and one jump's gamma (shape, scale), 1 < p < 2.

    The counts n >= 1 within ``10 sqrt(lambda) + 10`` of the Poisson rate lambda: the counts
    left out carry less than e^-40 of the Poisson mass, besides the atom n = 0.
    """
    rate, shape, scale = compound_poisson_gamma_params(p, mu, tau)
    reach = 10.0 * math.sqrt(rate) + 10.0
    if not (rate > 0.0 and 2.0 * reach < _SERIES_MAX_TERMS):
        raise NumericalError(f"compound Poisson rate {rate:.3g} at (p={p}, mu={mu}, tau={tau}) "
                             f"needs more than {_SERIES_MAX_TERMS} jump counts, or none")
    if not 0.0 < scale < math.inf:
        raise NumericalError(f"gamma jump scale of the member (p={p}, mu={mu}, tau={tau}) is {scale:g}")
    n = np.arange(max(1.0, math.floor(rate - reach)), math.ceil(rate + reach) + 1.0)
    return n, n * math.log(rate) - rate - el.special.gammaln(n + 1.0), shape, scale


def _log_v_series(p: float, y: float, tau: float) -> Optional[float]:
    """log of the positive-stable series sum for the p > 2 density, or None.

    None where the alternating terms cancel until the scaled sum keeps less than ~8 significant
    digits (deep in the left tail), or where the peak term lies too far out (k ~ 1/(p - 2) next to
    p = 2) for the envelope to fall within ``_SERIES_MAX_TERMS`` terms, both told before any
    summing where they can be.  The sum is pi y times the density at y of the member of mean y,
    times ``exp(-(y q(y) - b(q(y)))/tau)``, and the estimate of it puts the saddlepoint value
    1/sqrt(2 pi tau y^p) for that density.  A sum estimated below 1e-12 of the largest term next
    to the peak (a lower bound on the largest term summed) would fail the 1e-8 gate by a margin of
    1e4.  The estimate is used only where the member's dispersion tau y^(p-2) is at most
    ``_ESTIMATED_DISPERSION``: the saddlepoint understates the density at the mean by a factor
    that grows with the dispersion, e^3.8 at 10^4 on p in [2.0001, 20], y in [1e-4, 1e4] and
    tau in [0.01, 1e4], and e^19 at 1e22.
    """
    alpha = (2.0 - p) / (1.0 - p)  # in (0, 1) here
    log_rho = ((alpha - 1.0) * math.log(tau) + alpha * math.log(p - 1.0) - alpha * math.log(y)
               - math.log(p - 2.0))

    def log_envelope(k: float) -> float:
        return el.special.gammaln(1.0 + alpha * k) - el.special.gammaln(1.0 + k) + k * log_rho

    # the envelope peaks where its Stirling slope alpha log(alpha k) - log k + log rho is 0
    log_peak = (alpha * math.log(alpha) + log_rho) / (1.0 - alpha)
    if log_peak > math.log(_SERIES_MAX_TERMS):
        return None
    peak = max(1, round(math.exp(log_peak)))
    if log_envelope(_SERIES_MAX_TERMS) > log_envelope(peak) - 40.0:
        return None
    log_phi = math.log(tau) + (p - 2.0) * math.log(y)  # the dispersion tau y^(p-2) of the member of mean y
    if log_phi <= math.log(_ESTIMATED_DISPERSION):
        try:
            log_estimate = (math.log(0.5 * math.pi) - log_phi) / 2.0 - math.exp(
                -log_phi - math.log(p - 1.0) - math.log(p - 2.0))
        except OverflowError:  # no estimate: the gate after the sum decides
            log_estimate = math.inf
        sines = [(k, abs(math.sin(k * math.pi * alpha))) for k in range(max(1, peak - 2), peak + 3)]
        near_peak = max((log_envelope(k) + math.log(s) for k, s in sines if s > 0.0), default=-math.inf)
        if log_estimate < near_peak + math.log(1e-12):
            return None
    entries: list[tuple[int, float, float]] = []
    log_max = prev_env = -math.inf
    for k in range(1, _SERIES_MAX_TERMS + 1):
        # the |sin| factor dips to ~0 on a sublattice; the stop rule must
        # look at the sine-free envelope or it truncates prematurely
        log_env = log_envelope(k)
        s = math.sin(-k * math.pi * alpha) * (-1.0) ** k
        if s != 0.0:
            log_abs = log_env + math.log(abs(s))
            entries.append((k, log_abs, math.copysign(1.0, s)))
            log_max = max(log_max, log_abs)
        if log_env < log_max - 40.0 and log_env < prev_env and len(entries) > 4:
            break
        prev_env = log_env
    else:
        return None
    total = math.fsum(sign * math.exp(log_abs - log_max) for _, log_abs, sign in entries)
    gross = math.fsum(math.exp(log_abs - log_max) for _, log_abs, _ in entries)
    return log_max + math.log(total) if total > 1e-8 * gross else None


def _log_cf(s: np.ndarray, alpha: float, scale: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``K(is/sigma) = [b_p(theta + i tau s/sigma) - b_p(theta)]/tau =
    scale [(1 + iv)^alpha - 1]`` for an ndarray of s: scale = b_p(theta)/tau, alpha = (p-2)/(p-1) and
    ``v = c s``, c = tau/(sigma theta), so that tau s cannot overflow where v is finite.  With
    e = expm1(alpha log|1 + iv|) and the angle t = alpha atan v, the real part is ``scale [e - 2
    sin^2(t/2) (1 + e)]``, so that nothing cancels at small v or p ~ 2."""
    v = s * c
    e = np.expm1((0.5 * alpha) * np.log1p(v * v))
    half_angle = (0.5 * alpha) * np.arctan(v)
    sine = np.sin(half_angle)
    q = (2.0 * scale) * sine * (1.0 + e)
    return scale * e - sine * q, np.cos(half_angle) * q


@functools.lru_cache(maxsize=128)
def _head_rule(end: float, graded: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, end] and two rows of weights: Gauss-Legendre on ``_HEAD_PANELS`` equal panels,
    the first halved ``graded`` times towards 0, and the same with every panel halved."""
    width = end / _HEAD_PANELS
    edges = np.concatenate([[0.0], width * 0.5 ** np.arange(graded, 0, -1),
                            width * np.arange(1, _HEAD_PANELS + 1)])
    (s, w), (s_fine, w_fine) = (_gauss_legendre_panels(e) for e in (
        edges, np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))))
    rules = np.zeros((2, s.size + s_fine.size))
    rules[0, :s.size], rules[1, s.size:] = w.ravel(), w_fine.ravel()
    s = np.concatenate([s.ravel(), s_fine.ravel()])
    s.flags.writeable = rules.flags.writeable = False  # every caller gets these arrays
    return s, rules


def _mw_extrapolants(F: np.ndarray, psi: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Sidi's mW transformation of the partial sums ``F`` at the zeros ``k h``, k = n, n + 1, ..., given
    the panel integrals ``psi`` that follow them, from each window of ``_WINDOW`` along the last axis.
    With equally spaced zeros the W-algorithm's divided differences in 1/x have the closed form
    ``W = sum_l w_l F_l/psi_l / sum_l w_l/psi_l``, ``w_l = (-1)^l C(_WINDOW - 1, l) (1 + l/k)^(_WINDOW
    - 2)`` for the window from zero k."""
    starts, offsets = np.arange(F.shape[-1] - _WINDOW + 1)[:, None], np.arange(_WINDOW)
    w = _MW_SIGNS * (1.0 + offsets / (n[:, None, None] + starts)) ** (_WINDOW - 2)
    return (w * (F / psi)[:, starts + offsets]).sum(axis=-1) / (w / psi[:, starts + offsets]).sum(axis=-1)


def _fourier_inversion(p: float, y, mu: float, tau: float, cdf: bool, tol: float):
    """``integral_0^inf Re[h(s) phi(s) e^(-isy/sigma)] ds``, h = 1 (density) or i/s (cdf), at each y.

    ``phi(s) = exp K(is/sigma)`` is the cf of the p > 2 Tweedie of mean mu in units of its sd sigma
    (:func:`_log_cf`); ``y`` is a float or an ndarray of rows, and so is the result.  The rule
    (Dunn & Smyth 2008) has fixed Gauss-Legendre nodes and calls the cf on arrays:

    - the head, from 0 to ``_S_SPLIT`` (or to ``_HEAD_PANELS`` half-periods of the fastest row,
      if sooner), integrates the cf centred at mu, phi_c, times ``e^(-is(y-mu)/sigma)`` (the cdf's
      i phi_c/s as i(phi_c - 1)/s, 0 at s = 0, plus i/s, which integrates to the sine integral
      Si) by :func:`_head_rule`, graded down to the branch point of the cf at s = i/|v/s|; the
      change from its coarse to its fine rule is its error estimate;
    - the tail runs from there to the first zero ``k pi/omega`` of ``e^(-i omega s)``, omega =
      y/sigma, on panels that at most double in width, then between the zeros, ``_BATCH`` of them
      for every row in one cf call.  Sidi's mW extrapolates the partial sums at the zeros
      (:func:`_mw_extrapolants`); the spread of its last four extrapolants is the error estimate,
      or the last two panels where they are smaller (the cf has decayed).

    A row stops once its estimate is below ``_AGREE`` times its gate, ``tol`` relative for the
    density and absolute for the cdf.  Raises ``NumericalError`` on a non-finite cf value, past
    ``_MAX_PANELS`` panels a row, or where the summed estimates exceed the gate.
    """
    ys = np.atleast_1d(np.asarray(y, dtype=float))

    def refusal(reason):  # names the point; built only to refuse
        rows = f"{ys[0].item()!r}" + ("" if ys.size == 1 else f" to {ys[-1].item()!r} ({ys.size} rows)")
        return NumericalError(f"Tweedie inversion at (p={p}, y={rows}, mu={mu}, tau={tau}) {reason}")

    fam = _view(p)
    theta, alpha = fam.mean_inverse(mu), (p - 2.0) / (p - 1.0)
    sigma = math.sqrt(tau * mu**p)
    with np.errstate(all="ignore"):
        omega, omega_c = ys / sigma, (ys - mu) / sigma
        half = np.pi / omega  # of e^(-i omega s)
        bad = ~np.isfinite(half + omega_c)
        if bad.any():
            raise refusal(f"needs the half-period pi/(y/sd) at y/sd = {omega[bad][0]:.3g}")
        scale, c, shift = fam.b(theta) / tau, tau / (sigma * theta), mu / sigma
        if not (math.isfinite(scale) and math.isfinite(c) and c and math.isfinite(shift)):
            raise refusal(f"has a cf scale {scale:.3g}, v/s = {c:.3g} or mu/sd = {shift:.3g} that is not finite "
                          "and nonzero")
        fastest = float(np.abs(omega_c).max())
        end = _S_SPLIT if fastest * _S_SPLIT <= _HEAD_PANELS * math.pi else _HEAD_PANELS * math.pi / fastest
        graded = math.ceil(math.log2(max(end / _HEAD_PANELS * abs(c), 1.0)))
        first = np.floor(end / half) + 1.0  # the first zero past the head is first * half
        ratio = first * half / end
        lead = max(1, math.ceil(math.log2(float(ratio.max()))))  # panels at most doubling
        budget = _MAX_PANELS - 3 * (graded + _HEAD_PANELS) - lead
        if budget < _BATCH:
            raise refusal(f"needs more than {_MAX_PANELS} Gauss-Legendre panels a row")

        def log_cf(s):  # exp Re K and Im K at is/sigma, checked
            re, im = _log_cf(s, alpha, scale, c)
            if not np.isfinite(re + im).all():
                raise refusal("meets a non-finite cf value")
            return np.exp(re), im

        def integrand(s, amplitude, im, frequency):  # Re[h(s) phi(s) e^(-i frequency s)]
            angle = im - frequency * s
            return -amplitude * np.sin(angle) / s if cdf else amplitude * np.cos(angle)

        def panel_nodes(batch, rows):  # on the batch's panels between zeros
            zeros = (first[rows, None] + np.arange(batch * _BATCH, (batch + 1) * _BATCH)) * half[rows, None]
            return zeros[..., None] + half[rows, None, None] * _GL_NODES

        # one cf call for the head, the lead to the first zero and the first batch of panels
        head_s, rules = _head_rule(end, graded)
        lead_s, lead_w = _gauss_legendre_panels(
            end * ratio[:, None] ** (np.arange(lead + 1) / lead))
        rows = np.arange(ys.size)
        s = panel_nodes(0, rows)
        amplitude, im = log_cf(np.concatenate([head_s, lead_s.ravel(), s.ravel()]))
        head, lead_end = slice(head_s.size), head_s.size + lead_s.size
        angle = im[head] - shift * head_s
        g = amplitude[head] * np.cos(angle) - cdf, amplitude[head] * np.sin(angle)
        if cdf:  # times i/s
            g = -g[1] / head_s, g[0] / head_s
        if fastest:  # each row's e^(-i omega_c s), outside the cf
            angle = np.outer(omega_c, head_s)
            coarse, fine = (np.cos(angle) @ (rules * g[0]).T + np.sin(angle) @ (rules * g[1]).T).T
        else:  # every row at the mean, as for a density
            coarse, fine = np.repeat(rules @ g[0], ys.size).reshape(2, -1)
        head_error = np.abs(fine - coarse)
        total = fine + (integrand(lead_s, amplitude[head_s.size:lead_end].reshape(lead_s.shape),
                                  im[head_s.size:lead_end].reshape(lead_s.shape), omega[:, None, None])
                        * lead_w).sum(axis=(1, 2))
        if cdf:
            total += el.special.sici(omega_c * end)[0]
        values = integrand(s, amplitude[lead_end:].reshape(s.shape), im[lead_end:].reshape(s.shape),
                           omega[:, None, None])

        # the panels between the zeros, a batch at a time for the rows not done; each batch holds the
        # _WINDOW + 3 partial sums of the last four extrapolants
        result, error = np.empty_like(ys), np.empty_like(ys)
        for batch in range(budget // _BATCH):
            if batch:
                s = panel_nodes(batch, rows)
                values = integrand(s, *log_cf(s), omega[rows, None, None])
            panels = values @ _GL_WEIGHTS * half[rows, None]
            partial = total[rows, None] + np.cumsum(panels, axis=1) - panels  # at each zero
            total[rows] = partial[:, -1] + panels[:, -1]
            extrapolants = _mw_extrapolants(partial[:, -_WINDOW - 3:], panels[:, -_WINDOW - 3:],
                                            first[rows] + (batch + 1) * _BATCH - _WINDOW - 3)
            spread = extrapolants.max(axis=1) - extrapolants.min(axis=1)
            plain = np.abs(panels[:, -2:]).sum(axis=1)
            extrapolated = spread < plain  # else the cf has decayed, and the sum itself is best
            estimate = np.where(extrapolated, extrapolants[:, -1], total[rows])
            spread = np.where(extrapolated, spread, plain)
            done = spread <= _AGREE * (tol if cdf else tol * np.abs(estimate))
            result[rows[done]], error[rows[done]] = estimate[done], spread[done] + head_error[rows[done]]
            rows = rows[~done]
            if not rows.size:
                break
        else:
            raise refusal(f"spends its {_MAX_PANELS} panels a row before the W-algorithm settles")
    if not (error <= tol * (1.0 if cdf else np.abs(result))).all():  # also catches a nan estimate
        worst = int(np.argmax(error))
        raise refusal(f"gives {result[worst]:.6g} at y={ys[worst]:g}, error estimate {error[worst]:.3g}, "
                      f"beyond its gate {tol:.3g}")
    return result if np.ndim(y) else float(result[0])


def _log_normalizer(p: float, y: float, tau: float) -> float:
    """The additive term ``c(y; tau)`` of the log density, for p > 1 but 2 and 3 (the classic families
    hold their own).

    0 at the zero atom of 1 < p < 2 and the max-term-anchored series for p > 2 where it holds;
    otherwise the log density of the member of mean y at y (the Poisson-gamma sum for p < 2, the
    Fourier inversion for p > 2), whose value is O(1/sqrt(tau V(y))) so nothing cancels, minus its
    theta-part.
    """
    if p < 2.0:
        if y == 0.0:
            return 0.0  # the atom exp(-lambda) is exp(-b(theta)/tau)
        n, log_w, shape, scale = _poisson_gamma_terms(p, y, tau)
        log_terms = log_w + n * (shape * math.log(y / scale)) - el.special.gammaln(n * shape)
        peak = log_terms.max()
        log_density = peak + math.log(np.exp(log_terms - peak).sum()) - y / scale - math.log(y)
    else:
        log_v = _log_v_series(p, y, tau)
        if log_v is not None:
            return log_v - math.log(math.pi * y)
        sd = math.sqrt(tau * y**p)
        log_density = math.log(_fourier_inversion(p, y, y, tau, False, 1e-8) / (math.pi * sd))
    fam = _view(p)
    q = fam.mean_inverse(y)
    return log_density - (y * q - fam.b(q)) / tau


@refuses_numerical_failure
def tweedie_density(p: float, y: float, mu: float, tau: float) -> float:
    """Density (or lattice mass, or the zero atom) of a Tweedie distribution: the EDM density of the view.

    ``exp{c(y; tau) + [y theta - b_p(theta)]/tau}`` at ``theta = q(mu)``, with the view's normalizer c
    (:func:`_log_normalizer` off the classic powers); at p = 1 tau Poisson(mu/tau) on ``tau N0``.
    Densities for p < 0 have no computable route here and are refused.
    """
    p = _validate_p(p)
    if p < 0.0:
        raise DomainError("Tweedie densities for p < 0 are not evaluated (generator/deviance only)")
    fam = _view(p)
    fam.dispersion_domain.require(tau, "tau")
    theta = fam.mean_inverse(fam.mean_domain.require(mu, "mu"))
    edm._require_observation(fam, y, tau)
    return el.exp(edm._log_density(fam, y, theta, tau))


def _closed_form_cdf(p: float, ys: np.ndarray, mu: float, tau: float) -> np.ndarray:
    if p == 0.0:
        return el.special.ndtr((ys - mu) / math.sqrt(tau))
    if p == 1.0:  # the points of tau N0 at or below y, by the lattice rule of edm
        counts = np.floor(ys / tau + edm._LATTICE_SLACK)
        return np.where(counts < 0.0, 0.0, el.special.pdtr(np.maximum(counts, 0.0), mu / tau))
    if p == 2.0:
        return el.special.gammainc(1.0 / tau, np.maximum(ys, 0.0) / tau / mu)
    if p == 3.0:  # the second term from logs, where e^(2/(tau mu)) alone would overflow
        ys = np.maximum(ys, 0.0)
        root = math.sqrt(tau) * np.sqrt(ys)
        # y = 0 divides by a root of 0 (the limit 0); inf - inf where 2/(tau mu) overflows is nan, refused
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.minimum(el.special.ndtr((ys / mu - 1.0) / root) + np.exp(
                2.0 / (tau * mu) + el.special.log_ndtr(-(ys / mu + 1.0) / root)), 1.0)
    n, log_w, shape, scale = _poisson_gamma_terms(p, mu, tau)
    values = np.where(ys < 0.0, 0.0, tweedie_zero_mass(p, mu, tau))
    block = max(1, _CDF_BLOCK // len(n))
    for start in range(0, len(ys), block):
        x = np.maximum(ys[start:start + block, None], 0.0) / scale
        values[start:start + block] += el.special.gammainc(n * shape, x) @ np.exp(log_w)
    return np.minimum(values, 1.0)


@refuses_numerical_failure
def tweedie_cdf(p: float, y, mu: float, tau: float):
    """Distribution function: closed forms for 0 <= p <= 2 and p = 3, Gil-Pelaez inversion otherwise.

    ``ndtr`` at p = 0, ``pdtr(n, mu/tau)`` at p = 1 for the n + 1 points of ``tau N0`` up to y (by
    ``edm``'s lattice rule), ``gammainc(1/tau, y/(tau mu))`` at p = 2, and for 1 < p < 2 the zero atom
    plus ``sum_n w_n gammainc(n shape, y/scale)`` over the jump counts (Poisson weights w_n, jumps
    gamma(shape, scale)).  At p = 3 it is the inverse Gaussian ``Phi((y/mu - 1)/sqrt(tau y)) +
    e^(2/(tau mu)) Phi(-(y/mu + 1)/sqrt(tau y))``.  For the other p > 2 the rows within the Chernoff
    bounds are inverted together, ``F(y) = 1/2 - (1/pi) integral_0^inf Im[e^(-ity) phi(t)]/t dt``
    (:func:`_fourier_inversion`).  ``y`` may be an ascending ndarray, such as the rows of a table; an
    ndarray is then returned.
    """
    p = _validate_p(p)
    if p < 0.0:
        raise DomainError("Tweedie cdfs for p < 0 are not evaluated")
    fam = _view(p)
    fam.mean_domain.require(mu, "mu")
    POSITIVE_REALS.require(tau, "tau")
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if np.isnan(ys).any() or np.any(np.diff(ys) < 0.0):
        raise DomainError("tweedie_cdf needs y in ascending order")
    if p <= 2.0 or p == 3.0:
        with np.errstate(over="ignore"):  # an argument overflowing to +-inf gives the limit 0 or 1
            values = _closed_form_cdf(p, ys, mu, tau)
    else:  # dt/t = ds/s; Re[(i/s) z] = -Im z/s
        # the Chernoff bounds F(y) <= exp(-d(y; mu)/(2 tau)) below the mean and 1 - F(y) <= the same
        # above it put F within e^-40 of 0 or 1 where d > 80 tau, at y/sd = inf too (d is inf at y = inf)
        values, positive, cut = (ys > mu).astype(float), ys > 0.0, ys <= 0.0
        cut[positive] = fam.deviance_closed_form(ys[positive], mu) > 80.0 * tau
        inside = np.flatnonzero(~cut)
        for start in range(0, inside.size, _INVERSION_ROWS):
            rows = inside[start:start + _INVERSION_ROWS]
            integral = _fourier_inversion(p, ys[rows], mu, tau, True, 1e-9 * math.pi)
            values[rows] = np.clip(0.5 + integral / math.pi, 0.0, 1.0)
    return float(values[0]) if np.ndim(y) == 0 else values


@dataclass(frozen=True)
class TweedieFamily:
    """The power-variance family of power p; ``to_edm`` returns its EDM, the cached view of the
    validated p, whose fields are its domains and formulas."""

    p: float

    def __post_init__(self):
        _validate_p(self.p)

    def to_edm(self) -> EdmFamily:
        return _view(_validate_p(self.p))


def tweedie_family(p: float) -> TweedieFamily:
    return TweedieFamily(float(p))
