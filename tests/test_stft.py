import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError
from binaural_mwf.stft import SpectralTensor, StftConfig, analyze, synthesize, window
from binaural_mwf.wavio import read_wav, write_wav


def naive_dft(frame, fft_size):
    """Independent O(N^2) DFT oracle."""
    n = np.arange(fft_size)
    padded = np.zeros(fft_size)
    padded[: frame.size] = frame
    bins = fft_size // 2 + 1
    out = np.empty(bins, dtype=complex)
    for k in range(bins):
        out[k] = np.sum(padded * np.exp(-2j * np.pi * k * n / fft_size))
    return out


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.bin_count == 129
        assert cfg.freqs[16] == pytest.approx(1000.0)

    def test_hop_must_divide_window(self):
        with pytest.raises(InvalidInputError):
            StftConfig(hop=48)

    def test_window_not_longer_than_fft(self):
        with pytest.raises(InvalidInputError):
            StftConfig(fft_size=128, window_len=256, hop=64)

    def test_cola_violation_rejected(self):
        # sqrt-Hann without overlap does not overlap-add to a constant.
        with pytest.raises(InvalidInputError):
            StftConfig(window_len=128, hop=128)

    def test_rect_window_allowed(self):
        StftConfig(window="rect")

    def test_frame_count(self):
        cfg = StftConfig()
        assert cfg.frame_count(128) == 1
        assert cfg.frame_count(128 + 64) == 2
        assert cfg.frame_count(16000) == (16000 - 128) // 64 + 1


class TestAnalyze:
    def test_zero_signal_gives_zero_tensor(self, cfg):
        spec = analyze(np.zeros((3, 1000)), cfg)
        assert np.all(spec.data == 0)
        assert spec.channel_count == 3

    def test_unit_impulse_rect_window_flat_spectrum(self):
        cfg = StftConfig(window="rect")
        x = np.zeros(256)
        x[0] = 1.0
        spec = analyze(x, cfg)
        np.testing.assert_allclose(np.abs(spec.data[0, 0, :]), 1.0, atol=1e-12)

    def test_sine_peak_bin_matches_dft_oracle(self, cfg):
        t = np.arange(16000) / cfg.sample_rate
        x = np.sin(2.0 * np.pi * 1000.0 * t)
        spec = analyze(x, cfg)
        assert np.all(np.argmax(np.abs(spec.data[0]), axis=1) == 16)
        wa = window(cfg.window, cfg.window_len)
        oracle = naive_dft(x[:128] * wa, cfg.fft_size)
        np.testing.assert_allclose(spec.data[0, 0, :], oracle, atol=1e-9)

    def test_empty_input_rejected(self, cfg):
        with pytest.raises(InvalidInputError):
            analyze(np.array([]), cfg)

    def test_mismatched_channel_lengths_rejected(self, cfg):
        with pytest.raises(InvalidInputError):
            analyze([np.zeros(1000), np.zeros(999)], cfg)

    def test_too_short_rejected(self, cfg):
        with pytest.raises(InvalidInputError):
            analyze(np.zeros(100), cfg)

    def test_linearity_machine_precision(self, cfg):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(2000)
        v = rng.standard_normal(2000)
        a, b = 1.7, -0.3
        lhs = analyze(a * u + b * v, cfg).data
        rhs = a * analyze(u, cfg).data + b * analyze(v, cfg).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(lhs).max())

    def test_parseval_per_frame(self, cfg):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3000)
        spec = analyze(x, cfg)
        wa = window(cfg.window, cfg.window_len)
        n = cfg.fft_size
        for t in range(0, spec.frame_count, 7):
            frame = x[t * cfg.hop : t * cfg.hop + cfg.window_len] * wa
            coeffs = spec.data[0, t, :]
            spec_energy = (
                np.abs(coeffs[0]) ** 2
                + 2.0 * np.sum(np.abs(coeffs[1:-1]) ** 2)
                + np.abs(coeffs[-1]) ** 2
            ) / n
            time_energy = np.sum(frame**2)
            assert spec_energy == pytest.approx(time_energy, rel=1e-9)


class TestSynthesize:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(500, 4000))
    def test_round_trip_interior(self, seed, n):
        cfg = StftConfig()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, n))
        y = synthesize(analyze(x, cfg))
        w = cfg.window_len
        usable = min(y.shape[1], n)
        ref = x[:, w : usable - w]
        out = y[:, w : usable - w]
        rms = np.sqrt(np.mean((out - ref) ** 2)) / np.sqrt(np.mean(ref**2))
        assert rms < 1e-10

    def test_zeroed_tensor_gives_silence(self, cfg):
        spec = analyze(np.ones(2000), cfg)
        spec.data[:] = 0.0
        assert np.all(synthesize(spec) == 0.0)

    def test_half_gain_matches_time_scaling(self, cfg):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3000)
        spec = analyze(x, cfg)
        spec.data *= 0.5
        y = synthesize(spec)
        w = cfg.window_len
        np.testing.assert_allclose(
            y[0, w : 3000 - w], 0.5 * x[w : 3000 - w], atol=1e-12
        )

    def test_malformed_tensor_rejected(self, cfg):
        with pytest.raises(InvalidInputError):
            SpectralTensor(np.zeros((2, 4, 100), dtype=complex), cfg)


class TestWav:
    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_round_trip(self, tmp_path, encoding):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, size=(2, 1600))
        path = tmp_path / f"x_{encoding}.wav"
        write_wav(path, x, 16000, encoding=encoding)
        y, rate = read_wav(path)
        assert rate == 16000
        tol = 1e-4 if encoding == "pcm16" else 1e-7
        np.testing.assert_allclose(y, x, atol=tol)

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, np.zeros(100), 8000)
        with pytest.raises(InvalidInputError):
            read_wav(path, expected_rate=16000)

    def test_mono_shape(self, tmp_path):
        path = tmp_path / "m.wav"
        write_wav(path, np.zeros(100), 16000)
        y, _ = read_wav(path)
        assert y.shape == (1, 100)
