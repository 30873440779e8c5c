"""Tweedie power-variance families: V(mu) = mu^p.

No family exists for p in (0, 1); p = 0, 1, 2, 3 are the normal, Poisson,
gamma and inverse Gaussian families of ``edm.FAMILIES``; 1 < p < 2 gives
compound Poisson-gamma distributions (continuous on y > 0 with an atom at
zero); p > 2 gives continuous positive-stable generated distributions;
p < 0 gives extreme-stable generated distributions whose densities have
no workable evaluation route here (generator and deviance only).

Every density is ``exp{c(y; tau) + [y theta - b_p(theta)]/tau}`` with one
normalizer c: the EDM family's at p in {0, 1, 2, 3} (the Poisson one in
dispersion form, so p = 1 covers the lattice ``tau N0``), 0 at the zero atom
of 1 < p < 2, and the positive-stable series anchored at its largest term for
p > 2.  Otherwise c is the log density at y of the member with mean y, minus
its theta-part: a Poisson mixture of gamma densities over the jump counts
within 10 sqrt(lambda) + 10 of the rate lambda for 1 < p < 2 (Dunn & Smyth
2005), and the inversion of the cf exp K(it) for p > 2 (Dunn & Smyth 2008).
The cdf is the normal, Poisson and gamma cdf at p = 0, 1 and 2, the same
Poisson-gamma sum over incomplete gammas for 1 < p < 2, and Gil-Pelaez
inversion of the cf for p > 2.

``_validate_p`` decides the switch windows, once: within ``P_SWITCH`` of 1 or 2
it returns 1.0 or 2.0, and every formula branches on ``p == 1.0`` or ``p == 2.0``.
The public functions validate their arguments and evaluate private
formulas; ``TweedieFamily.to_edm`` hands the formulas themselves to the
EDM layer, which has already checked the domains.  The formulas take a
float or an ndarray, so Tweedie families run on the array path of IRLS.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _elementary as el
from .edm import FAMILIES, EdmFamily
from .errors import DomainError, NumericalError, refuses_numerical_failure
from .support import POSITIVE_REALS, REALS, RealInterval

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
_CDF_BLOCK = 2**20  # 1 < p < 2 cdf: entries of one rows-by-jump-counts block of gammainc
# p > 2 inversion: QAWF from t = 8/sigma (a Gaussian cf is below e^-32 there); QUADPACK tolerance
_S_SPLIT, _QUAD_EPS = 8.0, 1e-12
# QAWF frequencies y/sigma tried: QUADPACK crashes from about 1e-126 down, and from the 2.2e307 where
# frequency * _S_SPLIT overflows
_W_MIN, _W_MAX = 1e-50, 1e300


def _validate_p(p: float) -> float:
    """The power the formulas use: exactly 1.0 or 2.0 within ``P_SWITCH`` of it, else p."""
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"the power p must be finite, got {p}")
    if 0.0 < p < 1.0:  # refused before the snap, so the p = 1 window is one-sided
        raise DomainError(f"no exponential dispersion model has power variance p={p} in (0, 1)")
    special = float(round(p))
    return special if special in (1.0, 2.0) and abs(p - special) < P_SWITCH else p


def tweedie_canonical_domain(p: float) -> RealInterval:
    """Canonical domain of the generator: where [(1-p) theta]^((p-2)/(p-1)) lives."""
    p = _validate_p(p)
    if p in (0.0, 1.0):
        return REALS
    if p < 0.0:
        return POSITIVE_REALS
    return RealInterval(-math.inf, 0.0)


def tweedie_support(p: float) -> RealInterval:
    p = _validate_p(p)
    if p <= 0.0:
        return REALS
    if p == 1.0:
        return RealInterval(0.0, math.inf, closed_lower=True, lattice=True)
    if p < 2.0:
        return RealInterval(0.0, math.inf, closed_lower=True)
    return POSITIVE_REALS


def tweedie_mean_domain(p: float) -> RealInterval:
    return REALS if p == 0.0 else POSITIVE_REALS


def tweedie_cumulant_generator(p: float, theta: float) -> float:
    """Cumulant generator ``b_p(theta)``.

    ``(2-p)^(-1) [(1-p) theta]^((p-2)/(p-1))`` away from the special
    powers; ``exp(theta)`` at p = 1 and ``-log(-theta)`` at p = 2 (the
    removable singularities of the general form).
    """
    p = _validate_p(p)
    tweedie_canonical_domain(p).require(theta, "theta")
    return _generator(p, theta)


def _generator(p: float, theta):
    if p == 1.0:
        return el.exp(theta)
    if p == 2.0:
        return -el.log(-theta)
    if p == 0.0:
        return 0.5 * theta * theta
    return ((1.0 - p) * theta) ** ((p - 2.0) / (p - 1.0)) / (2.0 - p)


def tweedie_mean(p: float, theta: float) -> float:
    """Mean value mapping ``b_p'(theta) = [(1-p) theta]^(1/(1-p))``."""
    p = _validate_p(p)
    tweedie_canonical_domain(p).interior().require(theta, "theta")
    return _b_nth(p, 1, theta)


def tweedie_inverse_mean(p: float, mu: float) -> float:
    """Canonical parameter ``q(mu) = mu^(1-p)/(1-p)`` (log mu at p = 1)."""
    p = _validate_p(p)
    tweedie_mean_domain(p).require(mu, "mu")
    return _inverse_mean(p, mu)


def _inverse_mean(p: float, mu):
    if p == 1.0:
        return el.log(mu)
    return mu ** (1.0 - p) / (1.0 - p)  # mu itself at p = 0


def _b_nth(p: float, r: int, theta):
    # b^(r) = A^(c-(r-1)) * prod_{i=1}^{r-2} (1 - i (1 - p)),  A = (1-p) theta, c = 1/(1-p)
    if p == 1.0:
        return el.exp(theta)
    a = (1.0 - p) * theta
    c = 1.0 / (1.0 - p)
    coeff = 1.0
    for i in range(1, r - 1):
        coeff *= 1.0 - i * (1.0 - p)
    return coeff * a ** (c - (r - 1.0)) if coeff else 0.0  # the product vanishes at p = 0, r >= 3


@refuses_numerical_failure
def tweedie_deviance(p: float, y: float, mu: float) -> float:
    """Unit deviance ``d_p(y; mu) = 2 integral_mu^y (y - t) t^(-p) dt``.

    Evaluated by ``_elementary.power_deviance`` in units of mu for every p but the normal
    (p = 0) and inverse Gaussian (p = 3) closed forms.  The term ``max(y, 0)^(2-p)`` of the
    antiderivative is the saturated (Legendre) part, which vanishes for y <= 0 when the
    canonical domain is one-sided.
    """
    p = _validate_p(p)
    tweedie_support(p).require(y, "y")
    tweedie_mean_domain(p).require(mu, "mu")
    if y == mu:
        return 0.0
    return _deviance(p, y, mu)


_CLASSIC_FAMILIES = {0.0: FAMILIES["normal"], 1.0: FAMILIES["poisson"], 2.0: FAMILIES["gamma"],
                     3.0: FAMILIES["inverse_gaussian"]}


def _deviance(p: float, y, mu):
    if p in (0.0, 3.0):
        return _CLASSIC_FAMILIES[p].deviance_closed_form(y, mu)
    return el.power_deviance(p, y, mu)


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
    p = 2) for the envelope to fall within ``_SERIES_MAX_TERMS`` terms, told before any summing.
    """
    alpha = (2.0 - p) / (1.0 - p)  # in (0, 1) here
    log_rho = ((alpha - 1.0) * math.log(tau) + alpha * math.log(p - 1.0) - alpha * math.log(y)
               - math.log(p - 2.0))

    def log_envelope(k: float) -> float:
        return el.special.gammaln(1.0 + alpha * k) - el.special.gammaln(1.0 + k) + k * log_rho

    # the envelope peaks where its Stirling slope alpha log(alpha k) - log k + log rho is 0
    log_peak = (alpha * math.log(alpha) + log_rho) / (1.0 - alpha)
    if log_peak > math.log(_SERIES_MAX_TERMS) or log_envelope(_SERIES_MAX_TERMS) > log_envelope(
            max(1.0, round(math.exp(log_peak)))) - 40.0:
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


def _fourier_inversion(p: float, y: float, mu: float, tau: float, cdf: bool, tol: float) -> float:
    """``integral_0^inf Re[h(s) phi(s) e^(-isy/sigma)] ds``, h = 1 (density) or i/s (cdf).

    ``phi(s) = exp K(is/sigma)`` is the cf of the p > 2 Tweedie of mean mu in units of its
    sd sigma; ``K(s) = [b_p(theta + tau s) - b_p(theta)]/tau`` is ``b_p(theta)/tau`` times
    expm1(alpha log(1 + iv)), v = tau t/theta, alpha = (p-2)/(p-1), so nothing cancels at small t or
    p ~ 2.  Below ``_S_SPLIT`` the cf centred at mu, phi_c, varies on the scale of 1 and
    ``e^(-is(y-mu)/sigma)`` is the QAWO weight (the cdf's i phi_c/s is i(phi_c - 1)/s, 0 at s = 0,
    plus i/s, which integrates to the sine integral Si); above it ``h phi`` varies slowly or has
    decayed and ``e^(-isy/sigma)`` is the QAWF weight.  Raises ``NumericalError`` when the
    summed error estimate exceeds ``tol`` (relative for the density, absolute for the cdf).
    """
    from scipy.integrate import IntegrationWarning, quad

    theta, alpha, sigma = _inverse_mean(p, mu), (p - 2.0) / (p - 1.0), math.sqrt(tau * mu**p)
    frequency = y / sigma if sigma else math.inf  # of the QAWF weight
    if not _W_MIN < frequency < _W_MAX:
        raise NumericalError(f"Tweedie inversion at (p={p}, y={y}, mu={mu}, tau={tau}) needs a QAWF "
                             f"weight of frequency y/sd = {frequency:.3g}, outside ({_W_MIN:g}, {_W_MAX:g})")
    scale = _generator(p, theta) / tau

    def phi(s, shift):  # exp(K(is/sigma) - i shift s)
        v = tau * s / (sigma * theta)
        a, c = 0.5 * alpha * math.log1p(v * v), alpha * math.atan(v)
        z = cmath.exp(scale * complex(math.expm1(a) * math.cos(c) - 2.0 * math.sin(0.5 * c) ** 2,
                                      math.exp(a) * math.sin(c)) - 1j * shift * s)
        if z - z == 0.0:  # QAWF crashes the interpreter on an integrand value that is nan or inf
            return z
        raise NumericalError(f"Tweedie inversion at (p={p}, y={y}, mu={mu}, tau={tau}) meets the cf "
                             f"value {z} at s={s}")

    h = (lambda s: 1j / s) if cdf else (lambda s: 1.0)
    head = (lambda s: h(s) * (phi(s, mu / sigma) - cdf) if s or not cdf else 0j)
    total, error = (el.special.sici((y - mu) / sigma * _S_SPLIT)[0] if cdf else 0.0), 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for fn, lower, upper, w in ((head, 0.0, _S_SPLIT, (y - mu) / sigma),
                                    (lambda s: h(s) * phi(s, 0.0), _S_SPLIT, np.inf, frequency)):
            for part, kind in (("real", "cos"), ("imag", "sin")):
                value, err = quad(lambda s: getattr(fn(s), part), lower, upper, weight=kind, wvar=w,
                                  epsabs=_QUAD_EPS, epsrel=_QUAD_EPS, limit=200, limlst=100)
                total, error = total + value, error + err
    if not error <= tol * (1.0 if cdf else abs(total)):  # also catches a nan estimate
        raise NumericalError(f"Tweedie inversion at (p={p}, y={y}, mu={mu}, tau={tau}) gives "
                             f"{total:.6g}, error estimate {error:.3g}, beyond its gate {tol:.3g}")
    return total


def _log_normalizer(p: float, y: float, tau: float) -> float:
    """The additive term ``c(y; tau)`` of the log density, for p >= 0.

    The EDM normalizer at p in {0, 1, 2, 3}, 0 at the zero atom of 1 < p < 2 and the
    max-term-anchored series for p > 2 where it holds; otherwise the log density of the member of
    mean y at y (the Poisson-gamma sum for p < 2, the Fourier inversion for p > 2), whose value is
    O(1/sqrt(tau V(y))) so nothing cancels, minus its theta-part.
    """
    if p in _CLASSIC_FAMILIES:
        return _CLASSIC_FAMILIES[p].exact_normalizer(y, tau)
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
    q = _inverse_mean(p, y)
    return log_density - (y * q - _generator(p, q)) / tau


@refuses_numerical_failure
def tweedie_density(p: float, y: float, mu: float, tau: float) -> float:
    """Density (or lattice mass, or the zero atom) of a Tweedie distribution.

    ``exp{c(y; tau) + [y theta - b_p(theta)]/tau}`` at ``theta = q(mu)``,
    with c from :func:`_log_normalizer`.  At p = 1 the support is the
    lattice ``tau N0``.  Densities for p < 0 have no computable route here
    and are refused.
    """
    p = _validate_p(p)
    if p < 0.0:
        raise DomainError("Tweedie densities for p < 0 are not evaluated (generator/deviance only)")
    POSITIVE_REALS.require(tau, "tau")
    tweedie_mean_domain(p).require(mu, "mu")
    tweedie_support(p).require(y, "y")
    if p == 1.0:
        counts = y / tau
        if abs(counts - round(counts)) > 1e-9:
            raise DomainError(f"p=1 support is the lattice tau*N0; y={y} is off-lattice for tau={tau}")
    theta = _inverse_mean(p, mu)
    return math.exp(_log_normalizer(p, y, tau) + (y * theta - _generator(p, theta)) / tau)


def _closed_form_cdf(p: float, ys: np.ndarray, mu: float, tau: float) -> np.ndarray:
    if p == 0.0:
        return el.special.ndtr((ys - mu) / math.sqrt(tau))
    if p == 1.0:
        tweedie_support(p).require_all(ys, "y")
        return el.special.pdtr(np.floor((ys + 1e-12) / tau), mu / tau)
    if p == 2.0:
        return el.special.gammainc(1.0 / tau, np.maximum(ys, 0.0) / tau / mu)
    n, log_w, shape, scale = _poisson_gamma_terms(p, mu, tau)
    values = np.where(ys < 0.0, 0.0, tweedie_zero_mass(p, mu, tau))
    block = max(1, _CDF_BLOCK // len(n))
    for start in range(0, len(ys), block):
        x = np.maximum(ys[start:start + block, None], 0.0) / scale
        values[start:start + block] += el.special.gammainc(n * shape, x) @ np.exp(log_w)
    return np.minimum(values, 1.0)


@refuses_numerical_failure
def tweedie_cdf(p: float, y, mu: float, tau: float):
    """Distribution function: closed forms for 0 <= p <= 2, Gil-Pelaez inversion for p > 2.

    ``ndtr`` at p = 0, ``pdtr(floor(y/tau), mu/tau)`` at p = 1, ``gammainc(1/tau, y/(tau mu))``
    at p = 2, and for 1 < p < 2 the zero atom plus ``sum_n w_n gammainc(n shape, y/scale)``
    over the jump counts (Poisson weights w_n, jumps gamma(shape, scale)).  For p > 2 (p = 3 included) each point is one inversion ``F(y) = 1/2 - (1/pi)
    integral_0^inf Im[e^(-ity) phi(t)]/t dt`` of the cf.  ``y`` may be an ascending ndarray, such
    as the rows of a table; an ndarray is then returned.
    """
    p = _validate_p(p)
    if p < 0.0:
        raise DomainError("Tweedie cdfs for p < 0 are not evaluated")
    tweedie_mean_domain(p).require(mu, "mu")
    POSITIVE_REALS.require(tau, "tau")
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if np.isnan(ys).any() or np.any(np.diff(ys) < 0.0):
        raise DomainError("tweedie_cdf needs y in ascending order")
    if p <= 2.0:
        with np.errstate(over="ignore"):  # an argument overflowing to +-inf gives the limit 0 or 1
            values = _closed_form_cdf(p, ys, mu, tau)
    else:  # dt/t = ds/s; Re[(i/s) z] = -Im z/s
        # below the mean the Chernoff bound F(y) <= exp(-d(y; mu)/(2 tau)) puts F under e^-40
        values = np.array([0.0 if yi <= 0.0 or (yi < mu and _deviance(p, yi, mu) > 80.0 * tau)
                           else min(max(0.5 + _fourier_inversion(
                               p, yi, mu, tau, True, 1e-9 * math.pi) / math.pi, 0.0), 1.0)
                           for yi in ys.tolist()])
    return float(values[0]) if np.ndim(y) == 0 else values


@dataclass(frozen=True)
class TweedieFamily:
    """A power-variance family indexed by p, with an EDM view."""

    p: float

    def __post_init__(self):
        _validate_p(self.p)

    @property
    def support(self) -> RealInterval:
        return tweedie_support(self.p)

    @property
    def mean_domain(self) -> RealInterval:
        return tweedie_mean_domain(self.p)

    @property
    def theta_domain(self) -> RealInterval:
        return tweedie_canonical_domain(self.p)

    def to_edm(self) -> EdmFamily:
        p = _validate_p(self.p)
        classic = _CLASSIC_FAMILIES.get(p)
        return EdmFamily(
            name=f"tweedie(p={self.p:g})",
            theta_domain=self.theta_domain,
            b=lambda th: _generator(p, th),
            b_nth=lambda r, th: _b_nth(p, r, th),
            mean_domain=self.mean_domain,
            support=self.support,
            dispersion_domain=POSITIVE_REALS if classic is None else classic.dispersion_domain,
            exact_normalizer=None if p < 0.0 else lambda y, tau: _log_normalizer(p, y, tau),
            mean_inverse=lambda mu: _inverse_mean(p, mu),
            deviance_closed_form=lambda y, mu: _deviance(p, y, mu),
        )


def tweedie_family(p: float) -> TweedieFamily:
    return TweedieFamily(float(p))
