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

A walk whose steps each write their own slice of an array the caller
allocated, and sum nothing across a step, may run its steps on the module's
worker pool through ``in_parallel``, which holds the one scheduling rule:
each worker takes one contiguous run of the steps and walks it in order.
Its users:

- ``analyze``: its blocks of frames;
- the scene's dense steering: its bin chunks, then its microphone rows;
- ``spatial_stats.covariance_per_bin``: its groups of bins;
- ``metrics.active_power``: its blocks of speech-active frames.

No value depends on which thread computes it, so the bits are those of the
serial walk whatever the worker count; sums across steps run after the walk,
on the calling thread.  Each worker holds one step's working set at a time.
The pool has one thread per CPU the process may run on; a function the
tracer wraps (``analyze`` itself, say) is never called from a worker, and a
worker never calls ``in_parallel``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, require_finite

# Relative deviation allowed for the constant-overlap-add check.
_COLA_TOL = 1e-10

# Frames per block of a ``blocks`` walk over frames.
_BLOCK_FRAMES = 64

# One worker per CPU in the process's affinity mask, where the OS has one;
# the threads start on first use, not on import.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_THREAD_PREFIX = "binaural-mwf"
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix=_THREAD_PREFIX)


def in_parallel(fn, items):
    """Call ``fn`` on each of ``items`` on the worker pool, each worker taking
    one contiguous run of ``items`` in order, and return once every run is
    done, raising the first failure in ``items`` order.

    A call from a pool worker (``fn`` calling ``in_parallel``) raises
    ``RuntimeError`` before submitting anything: its runs would queue behind
    the caller's own, and once every worker waits so, none would start."""
    if threading.current_thread().name.startswith(_THREAD_PREFIX):
        raise RuntimeError("in_parallel called from a worker of its own pool")

    def run(part):
        for item in part:
            fn(item)

    cuts = [len(items) * i // _WORKERS for i in range(_WORKERS + 1)]
    futures = [_POOL.submit(run, items[lo:hi])
               for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]
    wait(futures)
    for future in futures:
        future.result()


def blocks(count, size=_BLOCK_FRAMES):
    """Consecutive ``size``-long slices covering ``range(count)`` in order; a
    trailing lone index joins the slice before it, since numpy reduces a lone
    frame in another order than a block and a blockwise sum's bits would move."""
    edges = list(range(0, count, size)) + [count]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def squared_magnitude(data, out=None):
    """|data|^2, squared in place: one real array the size of ``data``, or
    ``out`` when given."""
    power = np.abs(data, out=out)
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
    def frame_count(self):
        return self.data.shape[1]


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
    tapered, zero-padded to ``fft_size`` and transformed with a real FFT,
    one of the ``blocks`` at a time on the worker pool.
    """
    x = _as_channel_matrix(audio)
    n_frames = cfg.frame_count(x.shape[1])
    w = window(cfg.window, cfg.window_len)
    frames = sliding_window_view(x, cfg.window_len, axis=1)[:, :: cfg.hop, :]
    data = np.empty((x.shape[0], n_frames, cfg.bin_count), dtype=complex)

    def transform(block):
        np.fft.rfft(frames[:, block] * w, n=cfg.fft_size, axis=2, out=data[:, block])

    in_parallel(transform, blocks(n_frames))
    return SpectralTensor(data, cfg)


def synthesize(spec) -> np.ndarray:
    """Weighted overlap-add reconstruction to (channels, samples).

    Output length is ``(frames - 1) * hop + window_len``.  Samples whose
    overlap-add window sum is (numerically) zero are left at zero; the
    round-trip identity holds everywhere else, in particular on all interior
    samples at least one window length away from either edge.

    ``spec`` is read only through ``config``, ``data.shape`` and
    ``data[:, block]`` for each of the ``blocks`` in turn, so it may be a
    view that forms each block of frames when asked (a filtered output, say)
    and is never whole.  The frames of a block are overlap-added by hop
    phase: with R = window_len / hop, segment r of every frame lands on
    hop row frame + r, for r from R - 1 down to 0, so each sample receives
    its terms in ascending frame order, as a frame-by-frame sum would.
    """
    cfg = spec.config
    n_ch, n_frames, _ = spec.data.shape
    if n_frames == 0:
        raise InvalidInputError("tensor has no frames")
    w = window(cfg.window, cfg.window_len)
    phases = cfg.window_len // cfg.hop
    rows = n_frames - 1 + phases
    out = np.zeros((n_ch, rows, cfg.hop))
    norm = np.zeros((rows, cfg.hop))
    prod = (w * w).reshape(phases, cfg.hop)
    for r in reversed(range(phases)):
        norm[r : r + n_frames] += prod[r]
    for block in blocks(n_frames):
        frames_t = np.fft.irfft(spec.data[:, block],
                                n=cfg.fft_size, axis=2)[..., : cfg.window_len] * w
        segments = frames_t.reshape(n_ch, -1, phases, cfg.hop)
        for r in reversed(range(phases)):
            out[:, block.start + r : block.stop + r] += segments[:, :, r]
    out = out.reshape(n_ch, -1)
    norm = norm.reshape(-1)
    covered = norm > 1e-12 * max(norm.max(), 1.0)
    np.divide(out, norm, out=out, where=covered)
    out[:, ~covered] = 0.0
    return out
