import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from binaural_mwf import InvalidInputError, stft
from binaural_mwf.stft import (
    _BLOCK_FRAMES,
    SpectralTensor,
    StftConfig,
    analyze,
    blocks,
    in_parallel,
    synthesize,
    window,
)
from binaural_mwf.wavio import read_wav, write_wav

from conftest import pool_of


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
        assert spec.data.shape[0] == 3

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


def one_shot_analyze(x, cfg):
    """Frozen whole-signal analysis: every frame tapered, then one rfft."""
    n_frames = cfg.frame_count(x.shape[1])
    w = window(cfg.window, cfg.window_len)
    frames = sliding_window_view(x, cfg.window_len, axis=1)[:, :: cfg.hop, :]
    frames = frames[:, :n_frames, :]
    return np.fft.rfft(frames * w, n=cfg.fft_size, axis=2)


def one_shot_synthesize(spec):
    """Frozen whole-tensor synthesis: one irfft of every frame, then WOLA."""
    cfg = spec.config
    w = window(cfg.window, cfg.window_len)
    frames_t = np.fft.irfft(spec.data, n=cfg.fft_size, axis=2)[..., : cfg.window_len]
    frames_t = frames_t * w
    n_ch, n_frames, _ = frames_t.shape
    out_len = (n_frames - 1) * cfg.hop + cfg.window_len
    out = np.zeros((n_ch, out_len))
    norm = np.zeros(out_len)
    prod = w * w
    for t in range(n_frames):
        start = t * cfg.hop
        out[:, start : start + cfg.window_len] += frames_t[:, t, :]
        norm[start : start + cfg.window_len] += prod
    covered = norm > 1e-12 * max(norm.max(), 1.0)
    out[:, covered] /= norm[covered]
    out[:, ~covered] = 0.0
    return out


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))


class TestBlocksMatchOneShotForms:
    """Block-wise analysis and synthesis equal the whole-tensor forms bit for
    bit, at frame counts around one and two blocks."""

    @settings(max_examples=24, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        channels=st.integers(1, 3),
        frames=st.sampled_from([_BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1,
                                2 * _BLOCK_FRAMES + 3]),
        name=st.sampled_from(["sqrt_hann", "rect"]),
        geometry=st.sampled_from([(256, 128, 64), (512, 256, 128)]),
        tail=st.integers(0, 63),
    )
    def test_bitwise_equal(self, seed, channels, frames, name, geometry, tail):
        fft_size, window_len, hop = geometry
        cfg = StftConfig(fft_size=fft_size, window_len=window_len, hop=hop, window=name)
        rng = np.random.default_rng(seed)
        n = (frames - 1) * hop + window_len + tail
        x = rng.standard_normal((channels, n)) * 10.0 ** rng.uniform(-3, 3)
        x[:, rng.integers(0, n) :][:, : rng.integers(0, 4 * window_len)] = 0.0
        spec = analyze(x, cfg)
        assert spec.frame_count == frames
        assert_bitwise(spec.data, one_shot_analyze(x, cfg))

        data = spec.data * np.exp(2j * np.pi * rng.uniform(size=cfg.bin_count))
        data[:, rng.uniform(size=frames) < 0.1] = 0.0
        tensor = SpectralTensor(data, cfg)
        assert_bitwise(synthesize(tensor), one_shot_synthesize(tensor))


class TestOverlapAddByHopPhase:
    """The hop-phase overlap-add equals the frozen frame-by-frame loop of
    ``one_shot_synthesize`` bit for bit, sign bits included, at every tested
    overlap R = window_len / hop and frame counts around one and two
    blocks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        channels=st.integers(1, 3),
        frames=st.sampled_from([1, 2, 63, 64, 65, 129]),
        overlap=st.sampled_from([1, 2, 4, 8]),
        window_len=st.sampled_from([16, 128]),
        padding=st.sampled_from([1, 2]),
        hann=st.booleans(),
    )
    def test_bitwise_equal(self, seed, channels, frames, overlap, window_len, padding,
                           hann):
        # the squared sqrt-Hann taper overlap-adds to a constant only for R >= 2
        name = "sqrt_hann" if hann and overlap > 1 else "rect"
        cfg = StftConfig(fft_size=padding * window_len, window_len=window_len,
                         hop=window_len // overlap, window=name)
        rng = np.random.default_rng(seed)
        shape = (channels, frames, cfg.bin_count)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data *= 10.0 ** rng.uniform(-3, 3, size=(channels, 1, 1))
        data[rng.uniform(size=shape) < 0.2] = 0.0
        data[:, rng.uniform(size=frames) < 0.1] = complex(-0.0, -0.0)
        tensor = SpectralTensor(data, cfg)
        assert_bitwise(synthesize(tensor), one_shot_synthesize(tensor))


class TestAnalysisOnThePool:
    """Analysis with its blocks cut into one run per worker equals the frozen
    whole-signal form bit for bit, sign bits included, at 1, 2 and 3 workers
    and frame counts from fewer blocks than workers to over two blocks."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        workers=st.sampled_from([1, 2, 3]),
        channels=st.sampled_from([1, 2, 6]),
        frames=st.sampled_from([1, 2, 63, 64, 65, 129]),
        tail=st.integers(0, 63),
    )
    def test_bitwise_equal(self, seed, workers, channels, frames, tail):
        cfg = StftConfig()
        rng = np.random.default_rng(seed)
        n = (frames - 1) * cfg.hop + cfg.window_len + tail
        x = rng.standard_normal((channels, n)) * 10.0 ** rng.uniform(-3, 3, (channels, 1))
        x[:, rng.uniform(size=n) < 0.1] = -0.0
        with pool_of(workers):
            spec = analyze(x, cfg)
        assert spec.frame_count == frames
        assert_bitwise(spec.data, one_shot_analyze(x, cfg))


class TestInParallel:
    """The pool's one scheduling rule: every item runs once, in at most one
    contiguous ascending run per worker, and the first failure in item order
    is raised only once every run is done."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64])
    def test_each_item_once_in_one_run_per_worker(self, workers, count):
        current = threading.local()
        runs = []

        def record(item):
            current.run.append(item)

        with pool_of(workers), pytest.MonkeyPatch.context() as patch:
            submit = stft._POOL.submit

            def counted(call, *args):
                run = []
                runs.append(run)

                def task():
                    current.run = run
                    return call(*args)

                return submit(task)

            patch.setattr(stft._POOL, "submit", counted)
            in_parallel(record, list(range(count)))
        assert len(runs) <= workers
        assert [item for run in runs for item in run] == list(range(count))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("slow", [1, 6])
    def test_first_failure_raised_after_every_run(self, workers, slow):
        # items 1 and 6 fail, ``slow`` of them after a sleep; at two or more
        # workers they lie in different runs
        finished = []

        def step(item):
            if item == slow:
                time.sleep(0.1)
                finished.append(item)
            if item in (1, 6):
                raise ValueError(item)

        with pool_of(workers):
            with pytest.raises(ValueError, match="^1$"):
                in_parallel(step, range(7))
            at_raise = list(finished)
        assert at_raise == ([slow] if workers > 1 or slow == 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_call_from_a_worker_raises(self, workers):
        # the inner call has no item to run, so only the guard can fail it;
        # once every worker waits on an inner call, a real one never returns
        def nested(item):
            in_parallel(lambda inner: None, [])

        with pool_of(workers):
            with pytest.raises(RuntimeError, match="worker"):
                in_parallel(nested, range(workers))


class TestBlocks:
    """The one block walk: consecutive slices covering every index once, in
    order, whose last slice is never a lone index after another slice."""

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(0, 3000), size=st.integers(2, 200))
    def test_slices_cover_range_in_order(self, count, size):
        slices = blocks(count, size)
        assert all(s.step is None for s in slices)
        assert [i for s in slices for i in range(s.start, s.stop)] == list(range(count))
        lengths = [s.stop - s.start for s in slices]
        assert all(1 <= n <= size for n in lengths[:-1])
        if count:
            assert lengths[-1] <= size + 1
            assert lengths[-1] >= 2 or count == 1


class TestWav:
    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_round_trip(self, tmp_path, encoding):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, size=(2, 1600))
        path = tmp_path / f"x_{encoding}.wav"
        write_wav(path, x, 16000, encoding=encoding)
        y = read_wav(path, 16000)
        tol = 1e-4 if encoding == "pcm16" else 1e-7
        np.testing.assert_allclose(y, x, atol=tol)

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, np.zeros(100), 8000)
        with pytest.raises(InvalidInputError):
            read_wav(path, expected_rate=16000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        x = np.zeros((2, 100))
        x[1, 37] = bad
        path = tmp_path / "bad.wav"
        write_wav(path, x, 16000)
        with pytest.raises(InvalidInputError, match="bad.wav"):
            read_wav(path, 16000)

    def test_mono_shape(self, tmp_path):
        path = tmp_path / "m.wav"
        write_wav(path, np.zeros(100), 16000)
        y = read_wav(path, 16000)
        assert y.shape == (1, 100)
