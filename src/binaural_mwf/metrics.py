"""Objective evaluation: SNR, intelligibility-weighted SNR gain, cue errors.

All component-wise measures use shadow filtering: the filters computed on
the mixture are applied separately to the clean speech and noise tensors,
so the speech and noise portions of every output are known exactly.  No
filtered output exists whole: :func:`active_power` filters only the
speech-active frames, one ``stft.blocks`` slice at a time per worker, and
keeps their |z|^2, so an evaluation holds one block of output per worker
and one real array of the active frames' power on top of the scene.  The
enhanced WAV is synthesized from a :class:`FilteredView` the same way.

Cue errors compare input cues (reference microphones) with output cues
(filter pair) on the same directly-estimated coherence matrices:

    ditd = mean over valid bins of |wrap(ipd_out - ipd_in)| / pi
    dmsc = mean over valid bins of (|ic_out|^2 - |ic_in|^2)^2

both normalized to [0, 1].  The intelligibility-weighted gain uses the
one-third-octave band-importance weights of the speech-intelligibility
index family, renormalized over the bands available below Nyquist.

The unprocessed terms (input SNRs, input band SNRs, input cues) are read
from the two reference microphones directly: the left and right reference
channels of the speech and noise tensors, and the reference entries of
each coherence matrix.  They equal, bit for bit, what the pass-through
filter pair selecting those microphones would give.

The report's fields are listed once, in :class:`MetricsReport`.  This
module builds ``metrics.json`` and ``ic_spectrum.csv``; ``wavio`` writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .costs import FilterPair
from .errors import InvalidInputError
from .spatial_stats import (
    CUE_CUTOFF_HZ,
    CueEstimate,
    Selector,
    covariance_per_bin,
    input_cues,
    output_cues,
    wrap_angle,
)
from .stft import SpectralTensor, blocks, in_parallel, squared_magnitude, summands
from .wavio import write_csv, write_json

# One-third-octave band centers (Hz) and importance weights of the speech
# intelligibility index family; the weights sum to one.
SII_BAND_CENTERS = np.array([
    160.0, 200.0, 250.0, 315.0, 400.0, 500.0, 630.0, 800.0, 1000.0,
    1250.0, 1600.0, 2000.0, 2500.0, 3150.0, 4000.0, 5000.0, 6300.0, 8000.0,
])
SII_BAND_WEIGHTS = np.array([
    0.0083, 0.0095, 0.0150, 0.0289, 0.0440, 0.0578, 0.0653, 0.0711, 0.0818,
    0.0844, 0.0882, 0.0898, 0.0868, 0.0844, 0.0771, 0.0527, 0.0364, 0.0185,
])

IC_REFERENCE_THRESHOLDS = (0.2, 0.8)

# Speech-active frames per ``active_power`` task.  Each worker holds one
# task's filtered block at a time, so this bounds the per-worker working set:
# at four workers, 64-frame tasks took an evaluation's transient from 0.19
# to 0.45 of the scene tensor it reads.
_POWER_FRAMES = 16


@dataclass
class MetricsReport:
    """Objective measures of one processing variant on one scene."""

    snr_l: float
    snr_r: float
    disnr_l: float
    disnr_r: float
    ditd_s: float
    ditd_n: float
    dmsc_s: float
    dmsc_n: float
    ic_magnitude_spectrum: np.ndarray = field(default_factory=lambda: np.array([]))

    def to_dict(self):
        """Every field by name; invalid spectrum bins (NaN) become None."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["ic_magnitude_spectrum"] = [
            None if not np.isfinite(v) else float(v)
            for v in np.atleast_1d(self.ic_magnitude_spectrum)]
        return doc


class FilteredView:
    """The binaural output z_e(t, k) = w_e(k)^H y(:, t, k), formed on demand.

    ``tensor`` is y, or a tuple such as ``(x, v)`` whose sum is y.  The view
    is its own ``data``: ``data[:, frames]`` filters only the frames asked
    for, from their own sum of the summands, into a fresh (2, frames, bins)
    array.  A reader that walks the frames in ``stft.blocks`` (this module's
    reductions, ``stft.synthesize``) so holds one block of the output, and
    neither y nor the whole output is ever formed.
    """

    def __init__(self, filters: FilterPair, tensor):
        self._parts = summands(tensor)
        shape = self._parts[0].data.shape
        if filters.w_l.shape[1] != shape[0]:
            raise InvalidInputError("filter length does not match channel count")
        if filters.bin_count != shape[2]:
            raise InvalidInputError("filter bin count does not match tensor")
        self._w = (filters.w_l.conj(), filters.w_r.conj())
        self.config = self._parts[0].config
        self.shape = (2,) + shape[1:]
        self.dtype = np.result_type(*self._w, *(p.data for p in self._parts))

    @property
    def data(self):
        return self

    def __getitem__(self, key):
        _, frames = key  # always [:, frames]
        y = self._parts[0].data[:, frames]
        for part in self._parts[1:]:
            y = y + part.data[:, frames]
        out = np.empty((2,) + y.shape[1:], dtype=self.dtype)
        for z, w in zip(out, self._w):
            np.einsum("km,mtk->tk", w, y, out=z)
        return out


def apply_filters(filters: FilterPair, tensor) -> SpectralTensor:
    """The whole binaural output of :class:`FilteredView` as a 2-channel
    tensor, filled one ``stft.blocks`` slice of frames at a time."""
    view = FilteredView(filters, tensor)
    out = np.empty(view.shape, dtype=view.dtype)
    for block in blocks(view.shape[1]):
        out[:, block] = view.data[:, block]
    return SpectralTensor(out, view.config)


class ActivePower(NamedTuple):
    """|z|^2 of a two-channel output summed over its speech-active frames."""

    total: np.ndarray  # (ears,), summed over bins as well
    per_bin: np.ndarray  # (ears, bins)


def active_power(data, active, ears=slice(None)) -> ActivePower:
    """The speech-active power of channels ``ears`` (two of them) of
    (channels, frames, bins) ``data``: an array or a :class:`FilteredView`.

    The active frames are read one ``stft.blocks`` slice of their indices
    at a time, ``_POWER_FRAMES`` of them, on the worker pool
    (``stft.in_parallel``), so each worker holds one 16-frame block; each
    block's |z|^2 is written into its own slice of one buffer laid out
    frames-outermost.  That is the layout numpy gives ``data[:, active, :]``,
    and the sums, on the calling thread once every block is written, add in
    memory order, so their bits are those of the one-shot form; a
    channels-outermost buffer would change them.
    """
    frames = np.arange(data.shape[1])[np.asarray(active, dtype=bool)]
    power = np.empty((frames.size, 2, data.shape[2])).transpose(1, 0, 2)

    def square(block):
        squared_magnitude(data[:, frames[block]][ears], out=power[:, block])

    in_parallel(square, blocks(frames.size, _POWER_FRAMES))
    return ActivePower(np.sum(power, axis=(1, 2)), np.sum(power, axis=1))


def snr_db(p_x: ActivePower, p_v: ActivePower):
    """Per-ear SNR in dB over speech-active frames and all bins."""
    out = np.full(2, np.inf)
    nz = p_v.total > 0
    out[nz] = 10.0 * np.log10(p_x.total[nz] / p_v.total[nz])
    return float(out[0]), float(out[1])


def _band_edges(centers):
    factor = 2.0 ** (1.0 / 6.0)
    return centers / factor, centers * factor


def band_snrs_db(p_x: ActivePower, p_v: ActivePower, freqs):
    """(bands, ears) SNR per one-third-octave band; NaN where silent."""
    lo, hi = _band_edges(SII_BAND_CENTERS)
    nyquist = freqs[-1]
    out = np.full((SII_BAND_CENTERS.size, 2), np.nan)
    for b, (f_lo, f_hi) in enumerate(zip(lo, hi)):
        if SII_BAND_CENTERS[b] > nyquist:
            continue
        sel = (freqs >= f_lo) & (freqs < min(f_hi, nyquist + 1e-9))
        if not np.any(sel):
            continue
        bx = p_x.per_bin[:, sel].sum(axis=1)
        bv = p_v.per_bin[:, sel].sum(axis=1)
        ok = (bx > 0) & (bv > 0)
        out[b, ok] = 10.0 * np.log10(bx[ok] / bv[ok])
    return out


def isnr_gain(snr_out, snr_in):
    """Per-ear intelligibility-weighted SNR gain in dB between two
    ``band_snrs_db`` tables.

    Bands silent in either condition are excluded and the importance
    weights renormalized over the remaining bands.
    """
    gains = []
    for ear in range(2):
        usable = np.isfinite(snr_out[:, ear]) & np.isfinite(snr_in[:, ear])
        if not np.any(usable):
            gains.append(np.nan)
            continue
        w = SII_BAND_WEIGHTS[usable]
        w = w / w.sum()
        gains.append(float(np.sum(w * (snr_out[usable, ear] - snr_in[usable, ear]))))
    return gains[0], gains[1]


def delta_itd(cues_in: CueEstimate, cues_out: CueEstimate):
    """Mean normalized phase-cue deviation over valid bins, in [0, 1]."""
    mask = cues_in.valid & cues_out.valid
    if not np.any(mask):
        return float("nan")
    dev = np.abs(wrap_angle(cues_out.ipd[mask] - cues_in.ipd[mask])) / np.pi
    return float(dev.mean())


def delta_msc(cues_in: CueEstimate, cues_out: CueEstimate):
    """Mean squared magnitude-coherence deviation over valid bins, in [0, 1]."""
    mask = cues_in.valid & cues_out.valid
    if not np.any(mask):
        return float("nan")
    diff = np.abs(cues_out.ic[mask]) ** 2 - np.abs(cues_in.ic[mask]) ** 2
    return float(np.mean(diff**2))


def ic_spectrum_rows(freqs, cues_by_variant):
    """(header, rows) table of |ic| per bin and variant for plotting.

    The coherence-threshold reference levels are included as constant
    columns so plots can overlay them directly.
    """
    names = list(cues_by_variant)
    header = ["bin", "freq_hz"] + [f"ic_abs_{n}" for n in names] + [
        "threshold_low", "threshold_high"]
    rows = []
    for k, f in enumerate(freqs):
        row = [k, float(f)]
        for n in names:
            cues = cues_by_variant[n]
            row.append(float(np.abs(cues.ic[k])) if cues.valid[k] else float("nan"))
        row.extend(IC_REFERENCE_THRESHOLDS)
        rows.append(row)
    return header, rows


def write_ic_spectrum_csv(path, freqs, cues_by_variant):
    write_csv(path, *ic_spectrum_rows(freqs, cues_by_variant))


def _scene_term(scene, key, compute):
    """``compute()`` once per scene and ``key``, then reused.

    Holds the metric terms that no filter set changes: direct covariances,
    input cues and the reference-channel reductions.  Only reductions are
    kept, never a (channel, frame, bin) tensor.  A scene's tensors are not
    modified after synthesis, so the terms stay valid; callers share the
    returned objects and must not modify them.
    """
    terms = scene.metric_terms
    if key not in terms:
        terms[key] = compute()
    return terms[key]


def _reference_key(selector: Selector):
    return (selector.q_l.size, selector.index_left, selector.index_right)


def _reference_terms(scene, selector: Selector):
    """(per-ear SNR, band SNR table) of the unprocessed reference mics."""

    def compute():
        refs = [selector.index_left, selector.index_right]
        active = scene.vad.active
        p_x = active_power(scene.x.data, active, refs)
        p_v = active_power(scene.v.data, active, refs)
        return snr_db(p_x, p_v), band_snrs_db(p_x, p_v, scene.x.config.freqs)

    return _scene_term(scene, ("reference",) + _reference_key(selector), compute)


def _cue_pair(filters: FilterPair, scene, selector: Selector, cue_cutoff, name,
              tensor, frame_mask):
    """(input, output) cues on the direct covariance of ``tensor``'s frames."""
    phi = _scene_term(scene, name,
                      lambda: covariance_per_bin(tensor, (frame_mask,))[0])
    cfg = tensor.config
    cues_in = _scene_term(
        scene, (name, cue_cutoff) + _reference_key(selector),
        lambda: input_cues(phi, selector, cfg, cue_cutoff))
    return cues_in, output_cues(phi, filters, cfg, cue_cutoff)


def noise_cue_pair(filters: FilterPair, scene, selector: Selector,
                   cue_cutoff=CUE_CUTOFF_HZ):
    """(input, output) noise cues on the directly estimated noise coherence."""
    return _cue_pair(filters, scene, selector, cue_cutoff, "phi_vv", scene.v, None)


def speech_cue_pair(filters: FilterPair, scene, selector: Selector,
                    cue_cutoff=CUE_CUTOFF_HZ):
    """(input, output) speech cues over speech-active frames."""
    return _cue_pair(filters, scene, selector, cue_cutoff, "phi_xx", scene.x,
                     scene.vad.active)


def evaluate_filters(filters: FilterPair, scene, selector: Selector,
                     cue_cutoff=CUE_CUTOFF_HZ) -> MetricsReport:
    """Full objective report for one filter set on one scene."""
    if scene.x.data.shape != scene.v.data.shape:
        raise InvalidInputError("speech and noise tensors have different shapes")
    _, bands_in = _reference_terms(scene, selector)
    active = scene.vad.active
    p_x = active_power(FilteredView(filters, scene.x).data, active)
    p_v = active_power(FilteredView(filters, scene.v).data, active)

    snr_l, snr_r = snr_db(p_x, p_v)
    disnr_l, disnr_r = isnr_gain(band_snrs_db(p_x, p_v, scene.x.config.freqs),
                                 bands_in)
    cues_n_in, cues_n_out = noise_cue_pair(filters, scene, selector, cue_cutoff)
    cues_s_in, cues_s_out = speech_cue_pair(filters, scene, selector, cue_cutoff)
    ic_mag = np.where(cues_n_out.valid, np.abs(cues_n_out.ic), np.nan)
    return MetricsReport(
        snr_l=snr_l,
        snr_r=snr_r,
        disnr_l=disnr_l,
        disnr_r=disnr_r,
        ditd_s=delta_itd(cues_s_in, cues_s_out),
        ditd_n=delta_itd(cues_n_in, cues_n_out),
        dmsc_s=delta_msc(cues_s_in, cues_s_out),
        dmsc_n=delta_msc(cues_n_in, cues_n_out),
        ic_magnitude_spectrum=ic_mag,
    )


def input_snr_db(scene, selector: Selector):
    """Unprocessed per-ear SNR of the scene, at the reference microphones."""
    return _reference_terms(scene, selector)[0]


def report_to_json(path, reports, extra=None):
    """Serialize {variant: MetricsReport} plus optional metadata to JSON."""
    doc = {"variants": {name: rep.to_dict() for name, rep in reports.items()}}
    if extra:
        doc.update(extra)
    write_json(path, doc)
