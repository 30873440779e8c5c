"""A 30-digit reference for ``tweedie._fourier_inversion``, kept apart from the test modules so that
worker processes import mpmath alone.

``quadosc_values.json`` records the reference at the points below, about 1-3 s each;
``python tests/quadosc_oracle.py`` recomputes it on two worker processes and rewrites the file.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import mpmath

# the densities one benchmark pass inverts, two that take the most tail panels, and the cdf table rows
DENSITY_POINTS = [(2.5, 0.12, 0.12, 0.25), (2.5, 0.25, 0.25, 0.25), (3.5, 0.12, 0.12, 0.25),
                  (3.5, 4.0, 4.0, 2.0), (3.5, 2.0, 2.0, 1.0)]
CDF_ROWS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]  # p = 2.5, mu = tau = 1
POINTS = [(*point, False) for point in DENSITY_POINTS] + [(2.5, y, 1.0, 1.0, True) for y in CDF_ROWS]
RECORD = Path(__file__).with_name("quadosc_values.json")


def quadosc_inversion(p, y, mu, tau, cdf):
    """``tweedie._fourier_inversion`` by ``mpmath.quadosc`` at 30 digits, on the same centred cf."""
    with mpmath.workdps(30):
        p, y, mu, tau = map(mpmath.mpf, (p, y, mu, tau))
        alpha, sigma, theta = (p - 2) / (p - 1), mpmath.sqrt(tau * mu**p), mu ** (1 - p) / (1 - p)
        scale, c = ((1 - p) * theta) ** alpha / (2 - p) / tau, tau / (sigma * theta)
        omega, shift = y / sigma, mu / sigma

        def integrand(s):  # Re[h(s) phi_c(s) e^(-i(y - mu)s/sigma)], h = 1 or i/s
            if not s:
                return shift - omega if cdf else mpmath.one
            modulus = (1 + (c * s) ** 2) ** (alpha / 2)
            cosine, sine = mpmath.cos_sin(alpha * mpmath.atan(c * s))
            amplitude = mpmath.exp(scale * (modulus * cosine - 1))
            phase = scale * modulus * sine - omega * s
            return -amplitude * mpmath.sin(phase) / s if cdf else amplitude * mpmath.cos(phase)

        return float(mpmath.quadosc(integrand, [0, mpmath.inf], omega=omega))


def recorded_values() -> dict:
    """``{(p, y, mu, tau, cdf): value}`` as ``quadosc_values.json`` records it."""
    return {tuple(row[:5]): row[5] for row in json.loads(RECORD.read_text())["values"]}


if __name__ == "__main__":
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        values = list(pool.map(quadosc_inversion, *zip(*POINTS)))
    rows = ",\n  ".join(json.dumps([*point, value]) for point, value in zip(POINTS, values))
    RECORD.write_text(f'{{"about": "quadosc_inversion(p, y, mu, tau, cdf) at 30 digits, mpmath {mpmath.__version__}",\n'
                      f' "command": "python tests/quadosc_oracle.py",\n "values": [\n  {rows}\n ]}}\n')
