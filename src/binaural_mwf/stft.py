"""Short-time analysis and weighted overlap-add (WOLA) synthesis.

Multichannel time-domain audio is chopped into tapered frames, zero-padded
to the FFT size and transformed to a one-sided spectrum.  Analysis and
synthesis use one taper w: synthesis applies w to each inverse-transformed
frame, overlap-adds, and normalises by the accumulated w^2 so the round trip
is exact wherever the overlap-add sum is nonzero.

Both directions walk the frames in ``blocks``, the one block walk of the
closed-form chain, so besides their input and output they hold only one
block of tapered frames: a 60 s signal needs no frame tensor of its own.
Each frame is transformed by itself either way, so blocks change no value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, require_finite

# Relative deviation allowed for the constant-overlap-add check.
_COLA_TOL = 1e-10

# Frames per block of a ``blocks`` walk over frames.
_BLOCK_FRAMES = 64


def blocks(count, size=_BLOCK_FRAMES):
    """Consecutive ``size``-long slices covering ``range(count)`` in order; a
    trailing lone index joins the slice before it, since numpy reduces a lone
    frame in another order than a block and a blockwise sum's bits would move."""
    edges = list(range(0, count, size)) + [count]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def squared_magnitude(data):
    """|data|^2, squared in place: one real array the size of ``data``."""
    power = np.abs(data)
    power **= 2
    return power


def window(name, length):
    """The taper of the given family, used for analysis and synthesis alike.

    ``sqrt_hann`` is the square root of the periodic Hann window, whose
    square overlap-adds to a constant at any hop dividing the length.
    """
    if name == "sqrt_hann":
        return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length))
    if name == "rect":
        return np.ones(length)
    raise InvalidInputError(f"unknown window family: {name!r}")


@dataclass(frozen=True)
class StftConfig:
    """Frame/transform geometry of the processing chain."""

    fft_size: int = 256
    window_len: int = 128
    hop: int = 64
    sample_rate: float = 16000.0
    window: str = "sqrt_hann"

    def __post_init__(self):
        require_finite(self, "sample_rate")
        if self.fft_size < 1 or self.window_len < 1 or self.hop < 1:
            raise InvalidInputError("fft_size, window_len and hop must be positive")
        if self.window_len % self.hop != 0:
            raise InvalidInputError("hop must divide window_len")
        if self.window_len > self.fft_size:
            raise InvalidInputError("window_len must not exceed fft_size")
        if self.sample_rate <= 0:
            raise InvalidInputError("sample_rate must be positive")
        w = window(self.window, self.window_len)
        # COLA: the squared taper summed over hop-shifted copies must be a
        # constant, otherwise WOLA reconstruction is not shift invariant.
        folds = (w * w).reshape(-1, self.hop).sum(axis=0)
        mean = folds.mean()
        if mean <= 0 or np.max(np.abs(folds - mean)) > _COLA_TOL * mean:
            raise InvalidInputError(
                f"window {self.window!r} fails constant overlap-add at hop {self.hop}"
            )

    @property
    def bin_count(self):
        return self.fft_size // 2 + 1

    @property
    def freqs(self):
        """Center frequency in Hz of each one-sided bin."""
        return np.fft.rfftfreq(self.fft_size, 1.0 / self.sample_rate)

    def frame_count(self, n_samples):
        if n_samples < self.window_len:
            raise InvalidInputError("signal shorter than the analysis window")
        return (n_samples - self.window_len) // self.hop + 1


@dataclass
class SpectralTensor:
    """One-sided STFT coefficients indexed (channel, frame, bin)."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise InvalidInputError("spectral data must be (channel, frame, bin)")
        if self.data.shape[2] != self.config.bin_count:
            raise InvalidInputError(
                f"bin count {self.data.shape[2]} does not match "
                f"fft_size {self.config.fft_size}"
            )

    @property
    def channel_count(self):
        return self.data.shape[0]

    @property
    def frame_count(self):
        return self.data.shape[1]

    @property
    def bin_count(self):
        return self.data.shape[2]

    @property
    def freqs(self):
        return self.config.freqs


def summands(tensor):
    """The tensors whose element-wise sum ``tensor`` stands for.

    A ``SpectralTensor`` is its own single summand; a tuple such as
    ``(x, v)`` stands for x + v without that sum being stored.
    """
    parts = (tensor,) if isinstance(tensor, SpectralTensor) else tuple(tensor)
    if not parts or any(p.data.shape != parts[0].data.shape for p in parts):
        raise InvalidInputError("summands must be one or more tensors of one shape")
    return parts


def _as_channel_matrix(audio):
    """Coerce input to a float (channels, samples) matrix."""
    if isinstance(audio, (list, tuple)):
        lengths = {np.asarray(ch).shape for ch in audio}
        if len(audio) == 0:
            raise InvalidInputError("empty input")
        if len(lengths) > 1:
            raise InvalidInputError("channels have mismatched lengths")
    x = np.asarray(audio, dtype=float)
    if x.size == 0:
        raise InvalidInputError("empty input")
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise InvalidInputError("audio must be 1-D or (channels, samples)")
    return x


def analyze(audio, cfg: StftConfig) -> SpectralTensor:
    """Transform multichannel audio to the per-bin spectral domain.

    Frame ``t`` covers samples ``[t*hop, t*hop + window_len)``; each frame is
    tapered, zero-padded to ``fft_size`` and transformed with a real FFT.
    """
    x = _as_channel_matrix(audio)
    n_frames = cfg.frame_count(x.shape[1])
    w = window(cfg.window, cfg.window_len)
    frames = sliding_window_view(x, cfg.window_len, axis=1)[:, :: cfg.hop, :]
    data = np.empty((x.shape[0], n_frames, cfg.bin_count), dtype=complex)
    for block in blocks(n_frames):
        np.fft.rfft(frames[:, block] * w, n=cfg.fft_size, axis=2, out=data[:, block])
    return SpectralTensor(data, cfg)


def synthesize(spec: SpectralTensor) -> np.ndarray:
    """Weighted overlap-add reconstruction to (channels, samples).

    Output length is ``(frames - 1) * hop + window_len``.  Samples whose
    overlap-add window sum is (numerically) zero are left at zero; the
    round-trip identity holds everywhere else, in particular on all interior
    samples at least one window length away from either edge.
    """
    cfg = spec.config
    if spec.frame_count == 0:
        raise InvalidInputError("tensor has no frames")
    w = window(cfg.window, cfg.window_len)
    n_ch, n_frames, _ = spec.data.shape
    out_len = (n_frames - 1) * cfg.hop + cfg.window_len
    out = np.zeros((n_ch, out_len))
    norm = np.zeros(out_len)
    prod = w * w
    for block in blocks(n_frames):
        frames_t = np.fft.irfft(spec.data[:, block],
                                n=cfg.fft_size, axis=2)[..., : cfg.window_len] * w
        for i in range(frames_t.shape[1]):
            start = (block.start + i) * cfg.hop
            out[:, start : start + cfg.window_len] += frames_t[:, i, :]
            norm[start : start + cfg.window_len] += prod
    covered = norm > 1e-12 * max(norm.max(), 1.0)
    np.divide(out, norm, out=out, where=covered)
    out[:, ~covered] = 0.0
    return out
