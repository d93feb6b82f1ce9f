import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError
from binaural_mwf.scene import (
    _STEER_BINS,
    _channel_energy,
    _filter_multichannel,
    _frame_energy,
    ArrayGeometry,
    SceneSpec,
    ideal_vad,
    scene_response,
    steered_tensor,
    steering_vector,
    synthesize_scene,
    synthetic_speech,
)
from binaural_mwf.spatial_stats import Selector, wrap_angle
from binaural_mwf.stft import SpectralTensor, analyze

from conftest import (
    SUMMAND_SHAPES,
    assert_bitwise,
    identity_filters,
    pool_of,
    summand_pair,
)


class TestSteering:
    def test_woodworth_delay_at_90_degrees(self, geometry, cfg):
        # Independent evaluation of tau = (a/c)(theta + sin theta).
        theta = np.pi / 2
        expected = geometry.head_radius / geometry.sound_speed * (theta + np.sin(theta))
        assert expected == pytest.approx(6.558e-4, abs=1e-7)
        sv = steering_vector(geometry, 90.0, 3.0, cfg)
        il, ir = geometry.ref_left, geometry.ref_right
        f = cfg.freqs[1:8]  # below the phase-wrap limit for this delay
        ipd = np.angle(sv.h[1:8, il] * np.conj(sv.h[1:8, ir]))
        measured = -ipd / (2.0 * np.pi * f)
        np.testing.assert_allclose(measured, expected, rtol=1e-10)

    def test_zero_azimuth_has_zero_ipd(self, geometry, cfg):
        sv = steering_vector(geometry, 0.0, 0.8, cfg)
        il, ir = geometry.ref_left, geometry.ref_right
        ipd = np.angle(sv.h[:, il] * np.conj(sv.h[:, ir]))
        np.testing.assert_allclose(ipd, 0.0, atol=1e-14)

    def test_distance_doubling_halves_gains_keeps_ratios(self, geometry, cfg):
        near = steering_vector(geometry, 40.0, 2.0, cfg)
        far = steering_vector(geometry, 40.0, 4.0, cfg)
        np.testing.assert_allclose(np.abs(far.h), 0.5 * np.abs(near.h), rtol=1e-12)
        ratio_near = near.h[1:, 0] / near.h[1:, 3]
        ratio_far = far.h[1:, 0] / far.h[1:, 3]
        np.testing.assert_allclose(np.angle(ratio_near), np.angle(ratio_far), atol=1e-12)

    def test_azimuth_out_of_range(self, geometry, cfg):
        with pytest.raises(InvalidInputError):
            steering_vector(geometry, 120.0, 1.0, cfg)

    def test_reference_entries_nonzero(self, geometry, cfg):
        for az in (-90.0, -45.0, 0.0, 45.0, 90.0):
            sv = steering_vector(geometry, az, 3.0, cfg)
            assert np.all(np.abs(sv.h[:, geometry.ref_left]) > 0)
            assert np.all(np.abs(sv.h[:, geometry.ref_right]) > 0)

    def test_shadow_attenuates_contralateral_side(self, geometry, cfg):
        sv = steering_vector(geometry, 60.0, 3.0, cfg)
        k = 20  # 1250 Hz
        left = np.abs(sv.h[k, geometry.ref_left])
        right = np.abs(sv.h[k, geometry.ref_right])
        assert left < right  # source on the right shadows the left ear
        # at most 6 dB below 1.5 kHz
        assert 20 * np.log10(right / left) <= 6.0 + 1e-9

    def test_impulse_response_import_matches_delays(self, geometry, cfg):
        m = geometry.total_mics
        ir = np.zeros((m, 32))
        for ch in range(m):
            ir[ch, ch + 1] = 1.0  # integer delay per channel
        # a measured response enters the scene as its rfft on the grid
        h = np.fft.rfft(ir, n=cfg.fft_size).T
        expected = np.exp(
            -2j
            * np.pi
            * np.outer(cfg.freqs, (np.arange(m) + 1) / cfg.sample_rate)
        )
        np.testing.assert_allclose(h, expected, atol=1e-12)


class TestRankOneConstruction:
    def test_steered_tensor_is_rank_one(self, geometry, cfg):
        rng = np.random.default_rng(3)
        frames = 500
        src = (
            rng.standard_normal((frames, cfg.bin_count))
            + 1j * rng.standard_normal((frames, cfg.bin_count))
        )
        sv = steering_vector(geometry, 25.0, 3.0, cfg)
        tensor = steered_tensor(sv, src, cfg)
        cov = np.einsum("mtk,ntk->kmn", tensor.data, tensor.data.conj()) / frames
        vals = np.linalg.eigvalsh(cov)
        assert np.max(vals[:, -2] / vals[:, -1]) < 1e-3


class TestSyntheticSpeech:
    def test_deterministic(self, cfg):
        a = synthetic_speech(1.0, cfg.sample_rate, seed=4)
        b = synthetic_speech(1.0, cfg.sample_rate, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_has_speech_and_silence(self, cfg):
        x = synthetic_speech(3.0, cfg.sample_rate, seed=4)
        assert np.max(np.abs(x)) == pytest.approx(0.9)
        spec = analyze(x, cfg)
        vad = ideal_vad(spec)
        assert vad.active_count >= 2
        assert vad.frame_count - vad.active_count >= 2


class TestIdealVad:
    def test_all_zero_rejected(self, cfg):
        spec = analyze(np.zeros(2000), cfg)
        with pytest.raises(InvalidInputError):
            ideal_vad(spec)

    def test_depth_is_40_db(self, cfg):
        # frames 39 and 41 dB below the peak, then the peak itself
        levels = 10.0 ** (-np.array([39.0, 41.0, 0.0]) / 20.0)
        data = np.zeros((1, 3, cfg.bin_count), dtype=complex)
        data[0, :, 5] = levels
        vad = ideal_vad(SpectralTensor(data, cfg))
        assert vad.active.tolist() == [True, False, True]

    def test_block_structure_recovered(self, cfg):
        # 100 ms tone blocks separated by 100 ms silence.
        fs = int(cfg.sample_rate)
        block = np.sin(2 * np.pi * 500 * np.arange(fs // 10) / fs)
        x = np.concatenate([block, np.zeros(fs // 10)] * 4)
        spec = analyze(x, cfg)
        vad = ideal_vad(spec)
        # frames fully inside silence are inactive, fully inside tone active
        frame_starts = np.arange(vad.frame_count) * cfg.hop
        centers = frame_starts + cfg.window_len // 2
        period = fs // 5
        phase = (centers % period) / period
        fully_tone = (phase > 0.1) & (phase < 0.4)
        fully_silent = (phase > 0.6) & (phase < 0.9)
        assert np.all(vad.active[fully_tone])
        assert not np.any(vad.active[fully_silent])


def one_shot_power(data):
    """Frozen whole-tensor |data|^2, squared in place."""
    power = np.abs(data)
    power **= 2
    return power


class TestBlockedEnergyMatchesOneShotForm:
    """The VAD's per-frame energy, filled a block of frames at a time, the
    worst-ear test's per-microphone noise power and the SNR calibration's
    power over a frame selection equal the frozen whole-tensor reductions
    bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=SUMMAND_SHAPES)
    def test_bitwise_equal(self, seed, shape):
        rng = np.random.default_rng(seed)
        data, _ = summand_pair(rng, shape)
        power = one_shot_power(data)
        assert_bitwise(_frame_energy(data), np.sum(power, axis=(0, 2)))
        per_channel = np.sum(power, axis=(1, 2))
        frames = rng.uniform(size=shape[1]) < rng.uniform()
        for channel in range(shape[0]):
            assert_bitwise(_channel_energy(data, channel), per_channel[channel])
            assert_bitwise(_channel_energy(data, channel, frames),
                           np.sum(np.abs(data[channel, frames, :]) ** 2))


def one_shot_filter(signal, response, pad):
    """Frozen dense filtering: the whole (M, bins) ``response(n_fft)`` times
    the spectrum, then one inverse FFT over all rows."""
    padded = np.pad(signal, (pad, pad))
    n_fft = padded.size
    out_spec = response(n_fft) * np.fft.rfft(padded)[np.newaxis, :]
    return np.fft.irfft(out_spec, n=n_fft, axis=1)[:, pad : pad + signal.size]


class TestSteeringOnThePool:
    """The dense steering, on the pool by bin chunks and then by microphone
    rows, equals the frozen whole-grid form bit for bit, sign bits included, on
    the parametric and the measured-response paths, at 1, 2 and 3 workers
    and on dense grids of fewer bins than a chunk, whole chunks, a partial
    last chunk and a lone trailing bin."""

    # dense grid sizes, in bins
    GRIDS = st.sampled_from([517, _STEER_BINS, _STEER_BINS + 1, _STEER_BINS + 2,
                             2 * _STEER_BINS, 2 * _STEER_BINS + 1, 2 * _STEER_BINS + 517])

    @staticmethod
    def signal(rng, bins, pad):
        """A signal whose padded dense grid has ``bins`` bins."""
        n = 2 * (bins - 1) - 2 * pad + int(rng.integers(0, 2))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        x[rng.uniform(size=n) < 0.1] = -0.0
        return x

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        workers=st.sampled_from([1, 2, 3]),
        bins=GRIDS,
        mics_per_ear=st.sampled_from([1, 3]),
        azimuth=st.floats(-90.0, 90.0),
        reflections=st.booleans(),
    )
    def test_parametric_bitwise_equal(self, seed, workers, bins, mics_per_ear, azimuth,
                                      reflections):
        rng = np.random.default_rng(seed)
        pad = 64
        x = self.signal(rng, bins, pad)
        geometry = ArrayGeometry(mics_per_ear=mics_per_ear)
        spec = SceneSpec(reflection_gain_db=-16.0 if reflections else -np.inf)

        def whole(n_fft):
            freqs = np.fft.rfftfreq(n_fft, 1.0 / 16000.0)
            return scene_response(geometry, azimuth, 2.0, spec, freqs)

        freqs = np.fft.rfftfreq(x.size + 2 * pad, 1.0 / 16000.0)
        with pool_of(workers):
            got = _filter_multichannel(
                x, lambda chunk: scene_response(geometry, azimuth, 2.0, spec, freqs[chunk]),
                geometry.total_mics, pad)
        assert_bitwise(got, one_shot_filter(x, whole, pad))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        workers=st.sampled_from([1, 2, 3]),
        bins=GRIDS,
        mics=st.sampled_from([1, 2, 6]),
        taps=st.integers(1, 200),
    )
    def test_measured_bitwise_equal(self, seed, workers, bins, mics, taps):
        rng = np.random.default_rng(seed)
        pad = 256
        x = self.signal(rng, bins, pad)
        ir = rng.standard_normal((mics, taps))
        ir[rng.uniform(size=ir.shape) < 0.2] = -0.0

        dense = np.fft.rfft(ir, n=x.size + 2 * pad)
        with pool_of(workers):
            got = _filter_multichannel(x, lambda chunk: dense[:, chunk], mics, pad)
        assert_bitwise(got, one_shot_filter(x, lambda n_fft: np.fft.rfft(ir, n=n_fft), pad))


class TestSceneSynthesis:
    def test_worst_ear_snr_calibrated(self, scene30, selector):
        from binaural_mwf.metrics import input_snr_db

        snr_l, snr_r = input_snr_db(scene30, selector)
        assert snr_r == pytest.approx(0.0, abs=0.1)  # noise at +30: right is worst
        assert snr_l > snr_r

    def test_zero_noise_gain_gives_clean_mixture(self, speech, geometry, cfg):
        spec = SceneSpec(noise_azimuth=30.0, seed=2, target_snr_worst_ear=np.inf)
        sc = synthesize_scene(speech, spec, geometry, cfg)
        np.testing.assert_array_equal(sc.y.data, sc.x.data)
        assert np.all(sc.v.data == 0)

    # unchecked, either gain leaves the noise NaN or infinite, and the run
    # dies in an eigendecomposition
    def test_silent_noise_rejected(self, speech, geometry, cfg):
        noise_ir = np.zeros((geometry.total_mics, 16))
        with pytest.raises(InvalidInputError, match="noise is silent"):
            synthesize_scene(speech, SceneSpec(seed=2), geometry, cfg, noise_ir=noise_ir)

    def test_overflowing_noise_gain_rejected(self, speech, geometry, cfg):
        spec = SceneSpec(noise_azimuth=30.0, seed=2, target_snr_worst_ear=-10000.0)
        with pytest.raises(InvalidInputError, match="gain overflows"):
            synthesize_scene(speech, spec, geometry, cfg)

    def test_noise_band_limited(self, scene30, cfg):
        # designed response is an ideal low-pass; measured leakage stays small
        p = np.sum(np.abs(scene30.v.data) ** 2, axis=(0, 1))
        above = p[cfg.freqs > 1500.0].sum()
        assert above / p.sum() <= 0.01

    def test_deterministic_noise(self, speech, geometry, cfg):
        spec = SceneSpec(noise_azimuth=45.0, seed=77)
        a = synthesize_scene(speech, spec, geometry, cfg)
        b = synthesize_scene(speech, spec, geometry, cfg)
        np.testing.assert_array_equal(a.v.data, b.v.data)

    def test_silent_speech_rejected(self, geometry, cfg):
        with pytest.raises(InvalidInputError):
            synthesize_scene(np.zeros(16000), SceneSpec(), geometry, cfg)

    def test_cutoff_above_nyquist_rejected(self, speech, geometry, cfg):
        with pytest.raises(InvalidInputError):
            synthesize_scene(
                speech, SceneSpec(noise_cutoff=8000.0), geometry, cfg
            )

    def test_left_noise_makes_left_worst(self, speech, geometry, cfg):
        sc = synthesize_scene(
            speech, SceneSpec(noise_azimuth=-60.0, seed=3), geometry, cfg
        )
        assert sc.worst_ear == "left"

    def test_scene_ipd_matches_steering_model_anechoic(self, speech, geometry, cfg):
        from binaural_mwf.metrics import noise_cue_pair

        spec = SceneSpec(noise_azimuth=30.0, seed=11, reflection_gain_db=-np.inf)
        sc = synthesize_scene(speech, spec, geometry, cfg)
        sel = Selector.from_geometry(geometry)
        cues_in, _ = noise_cue_pair(identity_filters(sel, cfg.bin_count), sc, sel)
        h = scene_response(geometry, 30.0, 3.0, spec, cfg.freqs).T
        model = np.angle(
            h[:, geometry.ref_left] * np.conj(h[:, geometry.ref_right])
        )
        dev = np.abs(wrap_angle(cues_in.ipd[cues_in.valid] - model[cues_in.valid]))
        assert dev.max() < 0.1
        assert dev.mean() < 0.02

    def test_measured_noise_ir_sets_input_phase(self, speech, geometry, cfg):
        from binaural_mwf.metrics import noise_cue_pair

        # noise impulse responses that delay each channel by whole samples
        delays = np.array([1, 2, 3, 5, 6, 7])
        noise_ir = np.zeros((geometry.total_mics, 16))
        noise_ir[np.arange(geometry.total_mics), delays] = 1.0
        sc = synthesize_scene(speech, SceneSpec(seed=11), geometry, cfg,
                              noise_ir=noise_ir)
        sel = Selector.from_geometry(geometry)
        cues_in, _ = noise_cue_pair(identity_filters(sel, cfg.bin_count), sc, sel)
        lag = delays[geometry.ref_left] - delays[geometry.ref_right]
        model = wrap_angle(-2.0 * np.pi * cfg.freqs * lag / cfg.sample_rate)
        assert cues_in.valid.sum() > 10
        dev = np.abs(wrap_angle(cues_in.ipd[cues_in.valid] - model[cues_in.valid]))
        # the sensor floor only shows at the noise cutoff, where the noise fades
        assert dev.max() < 0.1
        assert dev.mean() < 0.01

    def test_measured_noise_ir_sets_worst_ear(self, speech, geometry, cfg):
        from binaural_mwf.metrics import input_snr_db

        # the IR puts the noise 12 dB louder on the left, while the default
        # noise_azimuth (+30) would name the right ear
        noise_ir = np.zeros((geometry.total_mics, 8))
        noise_ir[:, 1] = 1.0
        noise_ir[: geometry.mics_per_ear, 1] = 10.0 ** (12.0 / 20.0)
        sc = synthesize_scene(speech, SceneSpec(seed=11), geometry, cfg,
                              noise_ir=noise_ir)
        assert sc.worst_ear == "left"
        snr_l, snr_r = input_snr_db(sc, Selector.from_geometry(geometry))
        assert abs(snr_l) < 0.1
        assert snr_r == pytest.approx(12.0, abs=0.5)


class TestLongImpulseResponses:
    @pytest.mark.parametrize("delay", [4500, 6000])
    def test_pure_delay_reproduces_the_delayed_signal(self, delay, geometry, cfg):
        # responses longer than 4096 taps: no circular wrap-around may carry
        # the end of the signal onto its start
        rng = np.random.default_rng(delay)
        signal = rng.standard_normal(16000)
        ir = np.zeros((geometry.total_mics, delay + 1))
        ir[:, delay] = 1.0
        sc = synthesize_scene(signal, SceneSpec(seed=1, target_snr_worst_ear=np.inf),
                              geometry, cfg, speech_ir=ir)
        delayed = np.concatenate([np.zeros(delay), signal[: signal.size - delay]])
        want = analyze(np.tile(delayed, (geometry.total_mics, 1)), cfg)
        error = float(np.max(np.abs(sc.x.data - want.data)))
        assert error < 1e-12, f"max error {error:.3g}"


class TestSpecValidation:
    def test_bad_distance(self):
        with pytest.raises(InvalidInputError):
            SceneSpec(speech_distance=0.0)

    def test_bad_azimuth(self):
        with pytest.raises(InvalidInputError):
            SceneSpec(noise_azimuth=95.0)

    def test_documented_infinities_accepted(self):
        # +inf dB SNR removes the noise; -inf dB turns a term off
        spec = SceneSpec(target_snr_worst_ear=np.inf, sensor_noise_db=-np.inf,
                         reflection_gain_db=-np.inf)
        assert spec.target_snr_worst_ear == np.inf

    def test_bad_geometry(self):
        with pytest.raises(InvalidInputError):
            ArrayGeometry(mics_per_ear=0)
