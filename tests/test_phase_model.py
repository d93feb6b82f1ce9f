import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from binaural_mwf import InvalidInputError
from binaural_mwf.phase_model import (
    RatioPhaseParams,
    phase_pdf,
    sample_ratio_pairs,
    sample_ratio_phase,
)


def hist_density(samples, bins):
    counts, edges = np.histogram(samples, bins=bins, range=(-np.pi, np.pi))
    width = edges[1] - edges[0]
    return counts / (samples.size * width), edges


def bin_averaged_pdf(params, edges):
    out = np.empty(edges.size - 1)
    for i in range(out.size):
        val, _ = integrate.quad(lambda t: phase_pdf(t, params), edges[i], edges[i + 1])
        out[i] = val / (edges[i + 1] - edges[i])
    return out


def circular_variance(angles):
    """1 - |mean resultant|; 0 for concentrated, ~1 for uniform phases."""
    return float(1.0 - np.abs(np.mean(np.exp(1j * np.asarray(angles)))))


def phase_variance_curve(magnitudes, n, seed):
    """Monte-Carlo circular variance of the sampled ratio phase per |rho|.

    The oracle of the dispersion law: variance grows as the coherence
    magnitude shrinks.  The variance does not depend on the angle of rho,
    which is fixed at pi/4.  Returns a list of (|rho|, circular variance).
    """
    rows = []
    for i, mag in enumerate(magnitudes):
        if not 0.0 <= mag < 1.0:
            raise InvalidInputError("|rho| values must lie in [0, 1)")
        params = RatioPhaseParams(rho=mag * np.exp(1j * np.pi / 4))
        samples = sample_ratio_phase(params, n, seed + i)
        rows.append((float(mag), circular_variance(samples)))
    return rows


class TestPdf:
    def test_zero_rho_is_uniform(self):
        params = RatioPhaseParams(rho=0.0)
        theta = np.linspace(-np.pi, np.pi, 50)
        np.testing.assert_allclose(phase_pdf(theta, params), 1.0 / (2 * np.pi))

    @pytest.mark.parametrize("mag", [0.2, 0.5, 0.9])
    def test_mode_at_rho_angle(self, mag):
        params = RatioPhaseParams(rho=mag * np.exp(1j * np.pi / 4))
        theta = np.linspace(-np.pi, np.pi, 10001)
        dens = phase_pdf(theta, params)
        assert theta[np.argmax(dens)] == pytest.approx(np.pi / 4, abs=2e-3)

    @pytest.mark.parametrize("mag", [0.0, 0.2, 0.5, 0.8, 0.95])
    def test_normalization(self, mag):
        params = RatioPhaseParams(rho=mag * np.exp(1j * 0.7))
        total, err = integrate.quad(
            lambda t: phase_pdf(t, params), -np.pi, np.pi, epsabs=1e-12, epsrel=1e-12
        )
        assert abs(total - 1.0) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        mag=st.floats(0.0, 0.97),
        angle=st.floats(-np.pi, np.pi),
        delta=st.floats(0.0, np.pi),
    )
    def test_symmetry_about_rho_angle(self, mag, angle, delta):
        params = RatioPhaseParams(rho=mag * np.exp(1j * angle))
        lhs = phase_pdf(angle + delta, params)
        rhs = phase_pdf(angle - delta, params)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(mag=st.floats(0.0, 0.95), shift=st.floats(-np.pi, np.pi))
    def test_rotation_equivariance(self, mag, shift):
        base = RatioPhaseParams(rho=mag + 0j)
        rotated = RatioPhaseParams(rho=mag * np.exp(1j * shift))
        theta = np.linspace(-2.0, 2.0, 11)
        lhs = phase_pdf(theta + shift, rotated)
        rhs = phase_pdf(theta, base)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_unit_rho_rejected(self):
        with pytest.raises(InvalidInputError):
            phase_pdf(0.0, RatioPhaseParams(rho=1.0))
        with pytest.raises(InvalidInputError):
            RatioPhaseParams(rho=1.5)

    def test_bad_scales_rejected(self):
        with pytest.raises(InvalidInputError):
            RatioPhaseParams(rho=0.1, sigma_x=0.0)

    @pytest.mark.parametrize("field, value", [
        ("rho", np.nan), ("rho", complex(0.5, np.nan)), ("rho", complex(np.inf, 0.0)),
        ("sigma_x", np.inf), ("sigma_x", np.nan), ("sigma_y", np.nan), ("sigma_y", -np.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
            RatioPhaseParams(**{"rho": 0.5, field: value})


class TestSampler:
    def test_sample_covariance_matches_spec(self):
        params = RatioPhaseParams(rho=0.6 * np.exp(1j * 0.9), sigma_x=1.4, sigma_y=0.8)
        x, y = sample_ratio_pairs(params, 10**6, seed=20)
        sx2 = np.mean(np.abs(x) ** 2)
        sy2 = np.mean(np.abs(y) ** 2)
        cross = np.mean(x * np.conj(y))
        assert sx2 == pytest.approx(params.sigma_x**2, rel=0.01)
        assert sy2 == pytest.approx(params.sigma_y**2, rel=0.01)
        target = params.rho * params.sigma_x * params.sigma_y
        assert abs(cross - target) < 0.01 * abs(target)
        # circular symmetry: pseudo-covariance vanishes
        assert abs(np.mean(x * y)) < 5e-3
        assert abs(np.mean(x * x)) < 5e-3

    def test_uniform_histogram_chi_square(self):
        samples = sample_ratio_phase(RatioPhaseParams(rho=0.0), 10**6, seed=21)
        counts, _ = np.histogram(samples, bins=64, range=(-np.pi, np.pi))
        stat = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        p = stats.chi2.sf(stat, df=63)
        assert p > 0.01

    def test_histogram_matches_density_within_3se(self):
        params = RatioPhaseParams(rho=0.9 * np.exp(1j * np.pi / 4))
        n = 10**6
        samples = sample_ratio_phase(params, n, seed=22)
        dens, edges = hist_density(samples, 64)
        expected = bin_averaged_pdf(params, edges)
        width = edges[1] - edges[0]
        p = expected * width
        se = np.sqrt(p * (1 - p) / n) / width
        assert np.all(np.abs(dens - expected) < 3.0 * se)

    def test_invalid_count_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_ratio_phase(RatioPhaseParams(rho=0.0), 0, seed=0)


class TestVarianceCurve:
    def test_monotone_and_uniform_limit(self):
        rows = phase_variance_curve([0.99, 0.9, 0.5, 0.2, 0.0], 10**5, seed=23)
        variances = [v for _, v in rows]
        assert all(b > a for a, b in zip(variances, variances[1:]))
        assert variances[-1] > 0.98

    def test_deterministic(self):
        a = phase_variance_curve([0.5, 0.2], 10**4, seed=5)
        b = phase_variance_curve([0.5, 0.2], 10**4, seed=5)
        assert a == b

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            phase_variance_curve([1.0], 10, seed=0)

    def test_concentrated_variance_small(self):
        samples = sample_ratio_phase(
            RatioPhaseParams(rho=0.99 * np.exp(0.3j)), 10**5, seed=9
        )
        assert circular_variance(samples) < 0.05
