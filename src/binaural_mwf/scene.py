"""Synthetic binaural scenes: one speech and one noise source in free field.

Steering is parametric: the interaural delay follows the Woodworth
spherical-head formula tau(theta) = (a/c)(theta + sin theta), split into a
direct-path advance at the near ear and a diffraction delay at the far ear;
microphones within each behind-the-ear array add plane-wave delays along the
front-back axis.  The interaural level difference is a first-order head
shadow on the contralateral array, growing linearly with frequency and
capped so it stays within 6 dB below 1.5 kHz.

Scene signals are produced by filtering the source waveforms with the exact
steering response on a dense FFT grid (the parametric analogue of convolving
with measured impulse responses), then transformed with the analysis STFT.
The signal is zero-padded on both sides before the transform: by 2048
samples for the parametric response, whose acausal tails are far shorter,
and by max(2048, taps) for a measured (M, taps) response, so that no
circular wrap-around reaches the returned samples.  On that grid
``rfft(ir, n)`` is the exact DTFT of the measured response.
A small independent sensor-noise floor is added to the noise component at
each microphone; without it every estimated noise coherence matrix would be
exactly rank one and every filtered output perfectly coherent, which no
measured array exhibits.  For exact rank-one constructions use
``steered_tensor``, which shapes a source spectrum bin-by-bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, require_finite
from .stft import SpectralTensor, StftConfig, analyze, blocks, in_parallel, squared_magnitude

# Head-shadow law: attenuation of the contralateral array in dB with a
# small frequency-independent diffraction term plus a linear-in-frequency
# term, scaled by sin|azimuth| and saturating at _SHADOW_CAP_DB.  The total
# stays within 6 dB below 1.5 kHz.
_SHADOW_FLAT_DB = 2.0
_SHADOW_SLOPE_DB = 4.0
_SHADOW_REF_HZ = 1500.0
_SHADOW_CAP_DB = 20.0

# Early-reflection model of the torso / measurement fixture: (bulk delay in
# seconds, level in dB relative to SceneSpec.reflection_gain_db, azimuth
# scale, azimuth offset in degrees).  The reflected paths arrive from
# directions unlike the direct one and are delayed by a sizable fraction of
# the analysis window, which is what gives measured impulse responses their
# finite per-bin coherence spread.
_EARLY_REFLECTIONS = (
    (0.0045, 0.0, -0.5, 0.0),
    (0.0097, -6.0, 0.33, 12.0),
)

# Zero padding per side of a steered signal, in samples; a measured response
# gets at least its own length.
_PARAMETRIC_PAD = 2048

# Dense-grid bins per steering task.  Each worker holds a chunk's response
# temporaries; smaller chunks spend more of a task's time holding the GIL
# between numpy calls.
_STEER_BINS = 2048


@dataclass(frozen=True)
class ArrayGeometry:
    """Two behind-the-ear arrays on a spherical head."""

    mics_per_ear: int = 3
    intra_array_spacing: float = 0.0076
    head_radius: float = 0.0875
    sound_speed: float = 343.0

    def __post_init__(self):
        require_finite(self, "intra_array_spacing", "head_radius", "sound_speed")
        if self.mics_per_ear < 1:
            raise InvalidInputError("mics_per_ear must be >= 1")
        if self.intra_array_spacing <= 0 or self.head_radius <= 0:
            raise InvalidInputError("spacing and head_radius must be positive")
        if self.sound_speed <= 0:
            raise InvalidInputError("sound_speed must be positive")

    @property
    def total_mics(self):
        return 2 * self.mics_per_ear

    @property
    def ref_left(self):
        """Channel index of the left reference microphone (front of array)."""
        return 0

    @property
    def ref_right(self):
        return self.mics_per_ear


@dataclass(frozen=True)
class SceneSpec:
    """Source placement and level calibration for one synthetic scene.

    Azimuths are degrees in [-90, 90]; negative is left of the sagittal
    plane, positive right.  ``target_snr_worst_ear`` fixes the SNR at the
    reference microphone of the ear nearest the noise source;
    ``sensor_noise_db`` sets the independent per-microphone noise floor
    relative to the steered noise (it scales together with the noise when
    the SNR is calibrated).
    """

    speech_azimuth: float = 0.0
    noise_azimuth: float = 30.0
    speech_distance: float = 0.8
    noise_distance: float = 3.0
    target_snr_worst_ear: float = 0.0
    noise_cutoff: float = 1500.0
    seed: int = 0
    sensor_noise_db: float = -40.0
    reflection_gain_db: float = -16.0

    def __post_init__(self):
        require_finite(self, "speech_azimuth", "noise_azimuth", "speech_distance",
                       "noise_distance", "noise_cutoff")
        # the documented infinities: +inf dB SNR removes the noise, and
        # -inf dB turns the sensor-noise or reflection term off
        if not self.target_snr_worst_ear > -np.inf:
            raise InvalidInputError("target_snr_worst_ear must be a level in dB or inf")
        for name in ("sensor_noise_db", "reflection_gain_db"):
            if not getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name} must be a level in dB or -inf")
        if self.speech_distance <= 0 or self.noise_distance <= 0:
            raise InvalidInputError("source distances must be positive")
        for az in (self.speech_azimuth, self.noise_azimuth):
            if abs(az) > 90.0:
                raise InvalidInputError("azimuth must lie in [-90, 90] degrees")
        if self.noise_cutoff <= 0:
            raise InvalidInputError("noise_cutoff must be positive")


@dataclass
class SteeringVectorSet:
    """Acoustic transfer functions h(k), one complex M-vector per bin."""

    h: np.ndarray  # (bins, M)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=complex)
        if not np.all(np.isfinite(self.h)):
            raise InvalidInputError("steering vectors contain non-finite entries")


@dataclass
class VadLabels:
    """Per-frame speech-activity flags."""

    active: np.ndarray

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=bool)

    @property
    def frame_count(self):
        return self.active.size

    @property
    def active_count(self):
        return int(self.active.sum())


@dataclass
class SceneData:
    """Bundle produced by ``synthesize_scene``: the speech and noise tensors
    x and v plus labels.

    The mixture y = x + v is not stored; its readers take the summands
    ``(x, v)`` and add them a block at a time.
    """

    x: SpectralTensor
    v: SpectralTensor
    vad: VadLabels
    worst_ear: str  # "left" | "right"
    # filter-independent metric terms, filled on first use by ``metrics``
    metric_terms: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def y(self):
        """The mixture x + v, formed whole on every access."""
        return SpectralTensor(self.x.data + self.v.data, self.x.config)


def _mic_delays(geometry, azimuth_deg):
    """Arrival delay per channel relative to the head center, in seconds."""
    theta = np.deg2rad(azimuth_deg)
    a, c = geometry.head_radius, geometry.sound_speed
    near = -a / c * np.sin(abs(theta))
    far = a / c * abs(theta)
    ear_delay_left, ear_delay_right = (far, near) if theta >= 0 else (near, far)
    intra = np.arange(geometry.mics_per_ear) * geometry.intra_array_spacing
    intra_delay = intra * np.cos(theta) / c
    return np.concatenate([ear_delay_left + intra_delay, ear_delay_right + intra_delay])


def _shadow_gains(geometry, azimuth_deg, freqs):
    """(M, F) linear gains implementing the contralateral head shadow."""
    theta = np.deg2rad(azimuth_deg)
    atten_db = np.minimum(
        (_SHADOW_FLAT_DB + _SHADOW_SLOPE_DB * np.asarray(freqs) / _SHADOW_REF_HZ)
        * np.abs(np.sin(theta)),
        _SHADOW_CAP_DB,
    )
    shadow = 10.0 ** (-atten_db / 20.0)
    m = geometry.mics_per_ear
    gains = np.ones((geometry.total_mics, len(freqs)))
    if theta > 0:  # source on the right: left array is shadowed
        gains[:m, :] = shadow
    elif theta < 0:
        gains[m:, :] = shadow
    return gains


def steering_response(geometry: ArrayGeometry, azimuth_deg, distance, freqs):
    """Steering transfer functions evaluated at arbitrary frequencies, (M, F).

    Entry (m, f) is g_m(f) * exp(-2j pi f tau_m) with the 1/distance loss
    applied uniformly to all microphones (far-field plane wave within the
    array) and delays referenced to the head center.
    """
    if abs(azimuth_deg) > 90.0:
        raise InvalidInputError("azimuth must lie in [-90, 90] degrees")
    if distance <= 0:
        raise InvalidInputError("distance must be positive")
    freqs = np.asarray(freqs, dtype=float)
    delays = _mic_delays(geometry, azimuth_deg)
    gains = _shadow_gains(geometry, azimuth_deg, freqs) / distance
    phase = np.exp(-2j * np.pi * freqs[np.newaxis, :] * delays[:, np.newaxis])
    return gains * phase


def steering_vector(
    geometry: ArrayGeometry, azimuth_deg, distance, cfg: StftConfig
) -> SteeringVectorSet:
    """Direct-path steering set on the STFT bin grid."""
    h = steering_response(geometry, azimuth_deg, distance, cfg.freqs).T
    return SteeringVectorSet(h=h)


def scene_response(geometry, azimuth_deg, distance, spec: SceneSpec, freqs):
    """Scene transfer functions: direct path plus the early-reflection tail.

    Reflections of a real measurement (torso, fixture) arrive milliseconds
    after the direct path from other directions; they are what keeps
    estimated per-bin coherence matrices from being exactly rank one.  Set
    ``reflection_gain_db`` to -inf for an idealized anechoic scene.
    """
    freqs = np.asarray(freqs, dtype=float)
    resp = steering_response(geometry, azimuth_deg, distance, freqs)
    base_gain = 10.0 ** (spec.reflection_gain_db / 20.0)
    if base_gain > 0.0:
        for delay, rel_db, az_scale, az_offset in _EARLY_REFLECTIONS:
            az_r = float(np.clip(azimuth_deg * az_scale + az_offset, -90.0, 90.0))
            mirror = steering_response(geometry, az_r, distance, freqs)
            gain = base_gain * 10.0 ** (rel_db / 20.0)
            resp = resp + gain * mirror * np.exp(-2j * np.pi * freqs * delay)
    return resp


def steered_tensor(steering: SteeringVectorSet, source: np.ndarray, cfg: StftConfig):
    """Exactly rank-one multichannel tensor: data[m, t, k] = h[k, m] s[t, k].

    ``source`` is a (frames, bins) single-channel spectrum.
    """
    source = np.asarray(source)
    if source.ndim != 2 or source.shape[1] != cfg.bin_count:
        raise InvalidInputError("source spectrum must be (frames, bins)")
    data = steering.h.T[:, np.newaxis, :] * source[np.newaxis, :, :]
    return SpectralTensor(data, cfg)


def _filter_multichannel(signal, response, rows, pad):
    """Apply ``rows`` LTI responses to a 1-D signal via a dense FFT.

    ``response(chunk)`` gives the (rows, len) complex response on a slice of
    the n_fft//2+1 bins of the dense rfft grid, n_fft = signal.size + 2*pad.
    ``pad`` zeros on both sides absorb the filter tails, so no circular
    wrap-around reaches the returned samples as long as neither tail is
    longer than ``pad``.  On the ``stft`` worker pool the product of
    response and spectrum is written a chunk of ``_STEER_BINS`` bins at a
    time, then transformed back one microphone row at a time, so the
    parametric response is never formed whole.  Every value is that of the
    whole-grid product and of one inverse FFT over all rows.
    """
    n = signal.size
    spec = np.fft.rfft(np.pad(signal, (pad, pad)))
    n_fft = n + 2 * pad
    out = np.empty((rows, n_fft))
    out_spec = np.empty((rows, spec.size), dtype=complex)

    def multiply(chunk):
        np.multiply(response(chunk), spec[chunk], out=out_spec[:, chunk])

    def invert(row):
        np.fft.irfft(out_spec[row], n=n_fft, out=out[row])

    in_parallel(multiply, blocks(spec.size, _STEER_BINS))
    in_parallel(invert, range(rows))
    del out_spec
    return out[:, pad : pad + n]


def _lowpass_mask(freqs, cutoff):
    return (freqs <= cutoff).astype(float)


def synthetic_speech(duration, sample_rate, seed):
    """Deterministic speech-like test signal: voiced harmonic bursts.

    A harmonic stack with a formant-shaped envelope plus a weak breath-noise
    component, gated by a syllable/pause envelope so an ideal VAD sees both
    active and silent frames.  Pauses are digitally silent.
    """
    f0 = 115.0  # mean fundamental, Hz
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    # Slowly drifting fundamental keeps harmonics off exact bin centers.
    f0_track = f0 * (1.0 + 0.03 * np.sin(2.0 * np.pi * 0.8 * t + rng.uniform(0, 2 * np.pi)))
    phase0 = np.cumsum(2.0 * np.pi * f0_track / sample_rate)
    voiced = np.zeros(n)
    n_harm = int(3000.0 // f0)
    for k in range(1, n_harm + 1):
        fk = k * f0
        formant = np.exp(-0.5 * ((fk - 500.0) / 350.0) ** 2) + 0.6 * np.exp(
            -0.5 * ((fk - 1400.0) / 500.0) ** 2
        ) + 0.35
        rolloff = 1.0 if fk <= 1800.0 else np.exp(-(fk - 1800.0) / 900.0)
        voiced += (formant * rolloff / np.sqrt(k)) * np.sin(
            k * phase0 + rng.uniform(0, 2 * np.pi)
        )
    breath = rng.standard_normal(n)
    spec = np.fft.rfft(breath)
    f_dense = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spec *= 1.0 / (1.0 + (f_dense / 1000.0) ** 2)
    breath = np.fft.irfft(spec, n=n)
    breath *= 0.15 * np.std(voiced) / max(np.std(breath), 1e-30)
    sig = voiced + breath
    # Syllable gating: ~160 ms on, ~90 ms off, with longer word pauses.
    env = np.zeros(n)
    pos = 0
    while pos < n:
        on = int(rng.uniform(0.12, 0.22) * sample_rate)
        off = int(rng.uniform(0.05, 0.12) * sample_rate)
        if rng.uniform() < 0.25:
            off += int(rng.uniform(0.1, 0.2) * sample_rate)
        ramp = min(int(0.01 * sample_rate), on // 4)
        burst = np.ones(on)
        burst[:ramp] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        burst[-ramp:] = burst[:ramp][::-1]
        env[pos : pos + on] = burst[: max(0, min(on, n - pos))]
        pos += on + off
    sig *= env
    peak = np.max(np.abs(sig))
    if peak == 0:
        raise InvalidInputError("generated speech is silent; adjust duration/seed")
    return 0.9 * sig / peak


def _frame_energy(data):
    """|data|^2 of (M, T, K) ``data`` summed over channels and bins, per frame.

    Filled in ``stft.blocks`` of frames, so no whole-tensor |data|^2 exists.
    """
    energy = np.empty(data.shape[1], dtype=data.real.dtype)
    for block in blocks(data.shape[1]):
        np.sum(squared_magnitude(data[:, block]), axis=(0, 2), out=energy[block])
    return energy


def _channel_energy(data, channel, frames=slice(None)):
    """|data|^2 of one channel of (M, T, K) ``data`` summed over ``frames`` and
    all bins: numpy sums them as one run, as in a whole-tensor reduction."""
    return np.sum(squared_magnitude(data[channel, frames]))


def ideal_vad(clean_speech: SpectralTensor) -> VadLabels:
    """Label frames whose energy is within 40 dB of the peak frame.

    Energy is summed over channels and bins; 40 dB is the depth below the
    loudest frame still counted as active.
    """
    energy = _frame_energy(clean_speech.data)
    peak = energy.max() if energy.size else 0.0
    if peak <= 0.0:
        raise InvalidInputError("all-zero tensor has no speech activity")
    with np.errstate(divide="ignore"):
        rel_db = 10.0 * np.log10(energy / peak)
    return VadLabels(active=rel_db >= -40.0)


def synthesize_scene(
    speech,
    spec: SceneSpec,
    geometry: ArrayGeometry,
    cfg: StftConfig,
    speech_ir=None,
    noise_ir=None,
) -> SceneData:
    """Build the microphone tensors x and v of one scene, whose sum is the
    mixture y.

    The noise source is seeded white noise brick-walled at ``noise_cutoff``;
    both sources are steered by filtering the waveforms with the exact
    steering response (or with user impulse responses ``*_ir``, given as
    (M, taps) arrays at the configured rate).  The noise component is scaled
    so the SNR at the reference microphone of the worst ear meets
    ``target_snr_worst_ear``; pass ``numpy.inf`` to disable the noise
    entirely.  A noise silent at the worst ear, or a gain past the float
    range, is an ``InvalidInputError``.  The worst ear is the one nearest a modelled noise source; for
    frontal noise or a measured ``noise_ir`` it is the ear whose reference
    microphone receives more noise power.
    """
    speech = np.asarray(speech, dtype=float)
    if speech.ndim != 1:
        raise InvalidInputError("speech must be a mono sample sequence")
    if speech.size < cfg.window_len:
        raise InvalidInputError("speech shorter than one analysis window")
    if not np.any(speech != 0.0):
        raise InvalidInputError("speech input is silent")
    nyquist = cfg.sample_rate / 2.0
    if spec.noise_cutoff >= nyquist:
        raise InvalidInputError("noise_cutoff must be below the Nyquist frequency")

    def steer(signal, azimuth, distance, ir):
        """``signal`` at every microphone, through ``ir`` or the parametric
        response, either given on slices of the padded signal's dense grid."""
        if ir is None:
            freqs = np.fft.rfftfreq(signal.size + 2 * _PARAMETRIC_PAD, 1.0 / cfg.sample_rate)
            return _filter_multichannel(
                signal, lambda chunk: scene_response(geometry, azimuth, distance, spec,
                                                     freqs[chunk]),
                geometry.total_mics, _PARAMETRIC_PAD)
        ir = np.atleast_2d(ir)
        pad = max(_PARAMETRIC_PAD, ir.shape[1])
        dense = np.fft.rfft(ir, n=signal.size + 2 * pad)
        return _filter_multichannel(signal, lambda chunk: dense[:, chunk], ir.shape[0], pad)

    # each steered signal is analyzed, and dropped, as soon as it exists
    n = speech.size
    x = analyze(steer(speech, spec.speech_azimuth, spec.speech_distance, speech_ir), cfg)

    rng = np.random.default_rng(np.uint64(spec.seed))
    noise = rng.standard_normal(n)
    noise_spec = np.fft.rfft(noise)
    f_dense = np.fft.rfftfreq(n, 1.0 / cfg.sample_rate)
    noise = np.fft.irfft(noise_spec * _lowpass_mask(f_dense, spec.noise_cutoff), n=n)
    del noise_spec, f_dense
    v_t = steer(noise, spec.noise_azimuth, spec.noise_distance, noise_ir)
    del noise
    floor_scale = 10.0 ** (spec.sensor_noise_db / 20.0) * np.sqrt(
        np.mean(v_t**2)
    )
    floor = rng.standard_normal(v_t.shape)
    floor *= floor_scale
    v_t += floor
    del floor
    v = analyze(v_t, cfg)
    del v_t
    vad = ideal_vad(x)
    if vad.active_count < 2 or vad.frame_count - vad.active_count < 2:
        raise InvalidInputError(
            "scene is unusable: needs at least two active and two silent frames"
        )

    if noise_ir is None and spec.noise_azimuth != 0:
        worst_ear = "right" if spec.noise_azimuth > 0 else "left"
    else:
        pv_l = _channel_energy(v.data, geometry.ref_left)
        pv_r = _channel_energy(v.data, geometry.ref_right)
        worst_ear = "right" if pv_r >= pv_l else "left"
    ref = geometry.ref_right if worst_ear == "right" else geometry.ref_left

    p_speech = _channel_energy(x.data, ref, vad.active)
    p_noise = _channel_energy(v.data, ref, vad.active)
    if np.isinf(spec.target_snr_worst_ear):
        gain = 0.0
    elif p_noise == 0.0:
        raise InvalidInputError(f"noise is silent at the worst ear ({worst_ear}); "
                                "it cannot be scaled to target_snr_worst_ear")
    else:
        snr0 = 10.0 * np.log10(p_speech / p_noise)
        exponent = (snr0 - spec.target_snr_worst_ear) / 20.0
        # checked before the power, which would overflow to an infinite gain
        if not exponent < np.log10(np.finfo(float).max):
            raise InvalidInputError("target_snr_worst_ear is so low that the noise "
                                    "gain overflows")
        gain = 10.0 ** exponent
    v.data *= gain

    return SceneData(x=x, v=v, vad=vad, worst_ear=worst_ear)
