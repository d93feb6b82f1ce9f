"""Phase distribution of a ratio of correlated circular complex normals.

For zero-mean jointly circularly-symmetric complex normal (x, y) with
complex correlation coefficient rho = E{x conj(y)} / (sigma_x sigma_y), the
phase theta of psi = x / y has the marginal density

    p(theta) = (1 - |rho|^2) / (2 pi (1 - eta^2))
               * [ eta / sqrt(1 - eta^2) * arccos(-eta) + 1 ]

with eta = |rho| cos(angle(rho) - theta).  The density is symmetric about
angle(rho), collapses to the uniform 1/(2 pi) at rho = 0, and concentrates
as |rho| -> 1.  This is the dispersion law of per-frame interaural phase
samples: the smaller the coherence magnitude, the wider the phase spread.

Neither the density nor the phase of x conj(y) depends on the scales
sigma_x and sigma_y, so the Monte-Carlo sampler that serves as the
independent oracle for the closed form draws x and y with unit variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_finite

# Below this 1 - eta^2 the bracket is evaluated by series expansion; the
# direct expression loses digits to cancellation as eta -> +-1.
_ETA_GUARD = 1e-12


@dataclass(frozen=True)
class RatioPhaseParams:
    """Correlation coefficient of the numerator and denominator."""

    rho: complex

    def __post_init__(self):
        require_finite(self, "rho")
        if abs(self.rho) > 1.0 + 1e-12:
            raise InvalidInputError("|rho| must not exceed 1")


def _bracket(eta):
    """eta * arccos(-eta) / sqrt(1 - eta^2) + 1, series-guarded near |eta|=1."""
    eta = np.asarray(eta, dtype=float)
    one_minus = 1.0 - eta * eta
    out = np.empty_like(eta)
    safe = one_minus >= _ETA_GUARD
    out[safe] = eta[safe] * np.arccos(-eta[safe]) / np.sqrt(one_minus[safe]) + 1.0
    if np.any(~safe):
        e = eta[~safe]
        x = 1.0 - np.abs(e)  # distance from the singular point
        # arccos(1 - x) = sqrt(2x) (1 + x/12 + 3x^2/160 + ...)
        root = np.sqrt(np.maximum(2.0 * x, 0.0)) * (1.0 + x / 12.0 + 3.0 * x * x / 160.0)
        denom = np.sqrt(np.maximum(one_minus[~safe], 1e-300))
        near_plus = e > 0
        val = np.empty_like(e)
        # eta -> 1: arccos(-eta) = pi - arccos(eta) = pi - root
        val[near_plus] = e[near_plus] * (np.pi - root[near_plus]) / denom[near_plus] + 1.0
        # eta -> -1: arccos(-eta) = root; the bracket tends to 0 linearly.
        val[~near_plus] = e[~near_plus] * root[~near_plus] / denom[~near_plus] + 1.0
        out[~safe] = val
    return out


def phase_pdf(theta, params: RatioPhaseParams):
    """Marginal density of the ratio phase, vectorized over theta."""
    mag = abs(params.rho)
    if mag >= 1.0:
        raise InvalidInputError("phase density requires |rho| < 1")
    theta = np.asarray(theta, dtype=float)
    eta = mag * np.cos(np.angle(params.rho) - theta)
    dens = (1.0 - mag * mag) / (2.0 * np.pi * (1.0 - eta * eta)) * _bracket(eta)
    return dens if dens.ndim else float(dens)


def _real_coloring(params: RatioPhaseParams):
    """4x4 real coloring matrix for [Re x, Im x, Re y, Im y].

    The complex covariance C = [[1, rho], [conj(rho), 1]] of unit-variance
    x and y maps to the real covariance 0.5 [[Re C, -Im C], [Im C, Re C]] of
    the stacked parts (circular symmetry: zero pseudo-covariance).
    """
    c = np.array([[1.0, params.rho], [np.conj(params.rho), 1.0]])
    sigma = 0.5 * np.block([[c.real, -c.imag], [c.imag, c.real]])
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # |rho| = 1 makes the covariance singular; use an eigen square root.
        vals, vecs = np.linalg.eigh(sigma)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_ratio_pairs(params: RatioPhaseParams, n, seed):
    """Draw n correlated circularly-symmetric pairs (x, y)."""
    if n < 1:
        raise InvalidInputError("need at least one sample")
    coloring = _real_coloring(params)
    rng = np.random.default_rng(np.uint64(seed))
    z = rng.standard_normal((4, int(n)))
    colored = coloring @ z
    # Stacking order of the real covariance blocks: [Re x, Re y, Im x, Im y].
    x = colored[0] + 1j * colored[2]
    y = colored[1] + 1j * colored[3]
    return x, y


def sample_ratio_phase(params: RatioPhaseParams, n, seed):
    """Monte-Carlo samples of angle(x / y)."""
    x, y = sample_ratio_pairs(params, n, seed)
    return np.angle(x * np.conj(y))
