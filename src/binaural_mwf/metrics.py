"""Objective evaluation: SNR, intelligibility-weighted SNR gain, cue errors.

All component-wise measures use shadow filtering: the filters computed on
the mixture are applied separately to the clean speech and noise tensors,
so the speech and noise portions of every output are known exactly.

Cue errors compare input cues (reference microphones) with output cues
(filter pair) on the same directly-estimated coherence matrices:

    ditd = mean over valid bins of |wrap(ipd_out - ipd_in)| / pi
    dmsc = mean over valid bins of (|ic_out|^2 - |ic_in|^2)^2

both normalized to [0, 1].  The intelligibility-weighted gain uses the
one-third-octave band-importance weights of the speech-intelligibility
index family, renormalized over the bands available below Nyquist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
from .stft import SpectralTensor

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
        spectrum = [None if not np.isfinite(v) else float(v)
                    for v in np.atleast_1d(self.ic_magnitude_spectrum)]
        return {
            "snr_l": self.snr_l,
            "snr_r": self.snr_r,
            "disnr_l": self.disnr_l,
            "disnr_r": self.disnr_r,
            "ditd_s": self.ditd_s,
            "ditd_n": self.ditd_n,
            "dmsc_s": self.dmsc_s,
            "dmsc_n": self.dmsc_n,
            "ic_magnitude_spectrum": spectrum,
        }


def apply_filters(filters: FilterPair, tensor: SpectralTensor) -> SpectralTensor:
    """Binaural output z_e(t, k) = w_e(k)^H y(:, t, k) as a 2-channel tensor."""
    if filters.w_l.shape[1] != tensor.channel_count:
        raise InvalidInputError("filter length does not match channel count")
    if filters.bin_count != tensor.bin_count:
        raise InvalidInputError("filter bin count does not match tensor")
    z_l = np.einsum("km,mtk->tk", filters.w_l.conj(), tensor.data)
    z_r = np.einsum("km,mtk->tk", filters.w_r.conj(), tensor.data)
    return SpectralTensor(np.stack([z_l, z_r]), tensor.config)


def shadow_filter(filters: FilterPair, x: SpectralTensor, v: SpectralTensor):
    """Apply the filters to the clean components; returns (z_x, z_v)."""
    if x.data.shape != v.data.shape:
        raise InvalidInputError("speech and noise tensors have different shapes")
    return apply_filters(filters, x), apply_filters(filters, v)


def snr_db(z_x: SpectralTensor, z_v: SpectralTensor, active):
    """Per-ear SNR in dB over speech-active frames and all bins."""
    active = np.asarray(active, dtype=bool)
    p_x = np.sum(np.abs(z_x.data[:, active, :]) ** 2, axis=(1, 2))
    p_v = np.sum(np.abs(z_v.data[:, active, :]) ** 2, axis=(1, 2))
    out = np.full(2, np.inf)
    nz = p_v > 0
    out[nz] = 10.0 * np.log10(p_x[nz] / p_v[nz])
    return float(out[0]), float(out[1])


def _band_edges(centers):
    factor = 2.0 ** (1.0 / 6.0)
    return centers / factor, centers * factor


def band_snrs_db(z_x: SpectralTensor, z_v: SpectralTensor, active, freqs):
    """(bands, ears) SNR per one-third-octave band; NaN where silent."""
    lo, hi = _band_edges(SII_BAND_CENTERS)
    nyquist = freqs[-1]
    active = np.asarray(active, dtype=bool)
    px = np.sum(np.abs(z_x.data[:, active, :]) ** 2, axis=1)  # (ears, bins)
    pv = np.sum(np.abs(z_v.data[:, active, :]) ** 2, axis=1)
    out = np.full((SII_BAND_CENTERS.size, 2), np.nan)
    for b, (f_lo, f_hi) in enumerate(zip(lo, hi)):
        if SII_BAND_CENTERS[b] > nyquist:
            continue
        sel = (freqs >= f_lo) & (freqs < min(f_hi, nyquist + 1e-9))
        if not np.any(sel):
            continue
        bx = px[:, sel].sum(axis=1)
        bv = pv[:, sel].sum(axis=1)
        ok = (bx > 0) & (bv > 0)
        out[b, ok] = 10.0 * np.log10(bx[ok] / bv[ok])
    return out


def delta_isnr(z_x_out, z_v_out, z_x_in, z_v_in, active, freqs):
    """Per-ear intelligibility-weighted SNR gain in dB.

    Bands silent in either condition are excluded and the importance
    weights renormalized over the remaining bands.
    """
    return _isnr_gain(band_snrs_db(z_x_out, z_v_out, active, freqs),
                      band_snrs_db(z_x_in, z_v_in, active, freqs))


def _isnr_gain(snr_out, snr_in):
    """Per-ear weighted gain between two ``band_snrs_db`` tables."""
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


def _joint_valid(cues_in: CueEstimate, cues_out: CueEstimate):
    return cues_in.valid & cues_out.valid


def delta_itd(cues_in: CueEstimate, cues_out: CueEstimate):
    """Mean normalized phase-cue deviation over valid bins, in [0, 1]."""
    mask = _joint_valid(cues_in, cues_out)
    if not np.any(mask):
        return float("nan")
    dev = np.abs(wrap_angle(cues_out.ipd[mask] - cues_in.ipd[mask])) / np.pi
    return float(dev.mean())


def delta_msc(cues_in: CueEstimate, cues_out: CueEstimate):
    """Mean squared magnitude-coherence deviation over valid bins, in [0, 1]."""
    mask = _joint_valid(cues_in, cues_out)
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
    header, rows = ic_spectrum_rows(freqs, cues_by_variant)
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row)
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _scene_term(scene, key, compute):
    """``compute()`` once per scene and ``key``, then reused.

    Holds the metric terms that no filter set changes: direct covariances,
    input cues and the identity-filter reductions.  Only reductions are
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


def _identity_terms(scene, selector: Selector):
    """(per-ear SNR, band SNR table) of the unprocessed reference mics."""

    def compute():
        identity = FilterPair.identity(selector, scene.x.bin_count)
        zx, zv = shadow_filter(identity, scene.x, scene.v)
        active = scene.vad.active
        return (snr_db(zx, zv, active),
                band_snrs_db(zx, zv, active, scene.x.config.freqs))

    return _scene_term(scene, ("identity",) + _reference_key(selector), compute)


def _cue_pair(filters: FilterPair, scene, selector: Selector, cue_cutoff, name,
              tensor, frame_mask):
    """(input, output) cues on the direct covariance of ``tensor``'s frames."""
    phi = _scene_term(scene, name,
                      lambda: covariance_per_bin(tensor.data, frame_mask))
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
    # the scene's own terms first, so their temporaries are gone before the
    # filtered outputs exist
    _, bands_in = _identity_terms(scene, selector)
    z_x, z_v = shadow_filter(filters, scene.x, scene.v)
    active = scene.vad.active
    freqs = scene.x.config.freqs

    snr_l, snr_r = snr_db(z_x, z_v, active)
    disnr_l, disnr_r = _isnr_gain(band_snrs_db(z_x, z_v, active, freqs), bands_in)
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
    """Unprocessed per-ear SNR of the scene (identity filtering)."""
    return _identity_terms(scene, selector)[0]


def report_to_json(path, reports, extra=None):
    """Serialize {variant: MetricsReport} plus optional metadata to JSON."""
    doc = {"variants": {name: rep.to_dict() for name, rep in reports.items()}}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
