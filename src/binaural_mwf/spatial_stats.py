"""Per-bin coherence matrices and interaural cue estimators (IPD, ITD, IC).

Coherence matrices are sample averages of frame outer products over the VAD
classes; the speech matrix is the noise-subtracted estimate projected back
onto the positive semi-definite cone; the mixture y = x + v is never
stored (``covariance_per_bin``).  Cues of a filter pair (w_l, w_r) against
a noise matrix Phi are

    ipd = angle(w_l^H Phi w_r)
    ic  = (w_l^H Phi w_r) / sqrt((w_l^H Phi w_l)(w_r^H Phi w_r))
    itd = ipd / (2 pi f)

with the reference selectors playing the role of the filters for input
cues.  Phase cues are physically meaningful only below the unwrapping limit
(1.5 kHz), so bins above the cutoff, the DC bin and bins with vanishing
power or cross-power are flagged invalid rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .scene import VadLabels
from .stft import StftConfig, blocks, in_parallel, summands
from .wavio import write_csv

CUE_CUTOFF_HZ = 1500.0

# Scale-free guard for denominators / cross powers: eps * trace(Phi).
_EPS_REL = 1e-12

# Adjacent bins gathered, and summed over the summands, per covariance step.
_GROUP_BINS = 4


def in_cue_band(freqs, cue_cutoff):
    """0 < f <= ``cue_cutoff``: where cues can be valid and penalties apply."""
    return (freqs > 0.0) & (freqs <= cue_cutoff)


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class Selector:
    """Unit reference vectors picking one microphone per ear."""

    q_l: np.ndarray
    q_r: np.ndarray

    def __post_init__(self):
        for q in (self.q_l, self.q_r):
            q = np.asarray(q)
            if np.count_nonzero(q) != 1 or q.sum() != 1.0:
                raise InvalidInputError("selector must have a single unit entry")

    @classmethod
    def from_geometry(cls, geometry):
        m = geometry.total_mics
        q_l = np.zeros(m)
        q_r = np.zeros(m)
        q_l[geometry.ref_left] = 1.0
        q_r[geometry.ref_right] = 1.0
        return cls(q_l=q_l, q_r=q_r)

    @property
    def index_left(self):
        return int(np.argmax(self.q_l))

    @property
    def index_right(self):
        return int(np.argmax(self.q_r))


@dataclass
class CoherenceSet:
    """Per-bin (M, M) Hermitian matrices for y, v and the recovered x."""

    phi_yy: np.ndarray
    phi_vv: np.ndarray
    phi_xx: np.ndarray
    freqs: np.ndarray

    @property
    def bin_count(self):
        return self.phi_yy.shape[0]

    @property
    def mic_count(self):
        return self.phi_yy.shape[1]


@dataclass
class CueEstimate:
    """Per-bin interaural cues with a validity mask.

    ``valid`` marks bins where the cue triple is meaningful: frequency in
    (0, cutoff], both powers above the scale-free guard and a non-vanishing
    cross power.  Invalid bins keep NaN itd; ic is stored wherever the
    denominators allow (an incoherent bin legitimately has ic = 0).
    """

    ipd: np.ndarray
    itd: np.ndarray
    ic: np.ndarray
    valid: np.ndarray
    freqs: np.ndarray


def covariance_per_bin(tensor, frame_masks):
    """(K, M, M) averages of frame outer products of (M, T, K) data, one
    per frame mask (``None`` selects every frame).

    ``tensor`` is one ``SpectralTensor`` or a tuple of them whose
    element-wise sum is the data (see ``stft.summands``).  The summands are
    added once per group of adjacent bins (``stft.blocks``), over all frames;
    each mask's estimate of each bin is reduced from a contiguous (M, T)
    copy of that bin's selected frames, so no sum, masked or conjugated copy
    of the whole data exists.  The groups run on the worker pool
    (``stft.in_parallel``), each writing only its own bins, so each worker
    holds one group at a time; the division by the frame count and the
    Hermitian average follow on the calling thread.
    """
    parts = [p.data for p in summands(tensor)]
    m, t, bins = parts[0].shape
    frame_index = np.arange(t)
    selections = [slice(None) if mask is None else frame_index[np.asarray(mask, dtype=bool)]
                  for mask in frame_masks]
    counts = [frame_index[frames].size for frames in selections]
    if min(counts) < 2:
        raise InvalidInputError("need at least two frames for a covariance estimate")
    covs = [np.empty((bins, m, m), dtype=np.result_type(*parts)) for _ in selections]

    def reduce(group):
        block = parts[0][:, :, group]
        for part in parts[1:]:
            block = block + part[:, :, group]
        for frames, cov in zip(selections, covs):
            for j in range(block.shape[2]):
                a = np.ascontiguousarray(block[:, frames, j])
                np.einsum("mt,nt->mn", a, a.conj(), out=cov[group.start + j])

    in_parallel(reduce, blocks(bins, _GROUP_BINS))
    covs = [cov / count for cov, count in zip(covs, counts)]
    return tuple(0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1)))) for cov in covs)


def psd_floor(mats):
    """Clamp negative eigenvalues of a batch of Hermitian matrices to zero."""
    vals, vecs = np.linalg.eigh(mats)
    vals = np.clip(vals, 0.0, None)
    out = np.einsum("kij,kj,klj->kil", vecs, vals, vecs.conj())
    return 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))


def estimate_coherence(spec, vad: VadLabels) -> CoherenceSet:
    """Estimate Phi_yy, Phi_vv and the floored Phi_xx from labeled frames.

    ``spec`` is the mixture y, or the tuple ``(x, v)`` whose sum it is.
    Phi_yy averages speech-active frames and Phi_vv noise-only frames, both
    in one pass over the data; Phi_xx is the eigenvalue-floored difference
    (finite averaging makes the raw subtraction indefinite).
    """
    parts = summands(spec)
    if parts[0].frame_count != vad.frame_count:
        raise InvalidInputError("VAD length does not match frame count")
    phi_yy, phi_vv = covariance_per_bin(parts, (vad.active, ~vad.active))
    phi_xx = psd_floor(phi_yy - phi_vv)
    return CoherenceSet(phi_yy=phi_yy, phi_vv=phi_vv, phi_xx=phi_xx,
                        freqs=parts[0].config.freqs)


def _cues_from_products(num, p_l, p_r, freqs, cue_cutoff):
    trace_scale = p_l + p_r
    eps = _EPS_REL * np.maximum(trace_scale, np.max(trace_scale) * _EPS_REL)
    freqs = np.asarray(freqs, dtype=float)
    powers_ok = (p_l > eps) & (p_r > eps)
    valid = in_cue_band(freqs, cue_cutoff) & powers_ok & (np.abs(num) > eps)
    ipd = np.angle(num)
    with np.errstate(invalid="ignore", divide="ignore"):
        ic = np.where(powers_ok, num / np.sqrt(np.where(powers_ok, p_l * p_r, 1.0)), np.nan)
        itd = np.where(valid, ipd / (2.0 * np.pi * np.where(freqs > 0, freqs, 1.0)), np.nan)
    return CueEstimate(ipd=ipd, itd=itd, ic=ic, valid=valid, freqs=freqs)


def input_cues(phi_vv, selector: Selector, cfg: StftConfig, cue_cutoff=CUE_CUTOFF_HZ):
    """Interaural cues of the unprocessed reference microphones."""
    phi = np.asarray(phi_vv)
    il, ir = selector.index_left, selector.index_right
    num = phi[:, il, ir]
    p_l = phi[:, il, il].real
    p_r = phi[:, ir, ir].real
    if np.any(p_l < -1e-10 * (p_l + p_r)) or np.any(p_r < -1e-10 * (p_l + p_r)):
        raise InvalidInputError("coherence matrix has negative reference power")
    return _cues_from_products(num, p_l, p_r, cfg.freqs, cue_cutoff)


def output_cues(phi_vv, filters, cfg: StftConfig, cue_cutoff=CUE_CUTOFF_HZ):
    """Interaural cues at the filter outputs, Hermitian form on both sides."""
    # a copy stored bin axis innermost: the recorded artifacts were summed in that order
    phi = np.ascontiguousarray(np.transpose(phi_vv, (1, 2, 0))).transpose(2, 0, 1)
    w_l = np.asarray(filters.w_l)
    w_r = np.asarray(filters.w_r)
    if not (np.all(np.isfinite(w_l)) and np.all(np.isfinite(w_r))):
        raise InvalidInputError("filters contain non-finite coefficients")
    num = np.einsum("km,kmn,kn->k", w_l.conj(), phi, w_r)
    p_l = np.einsum("km,kmn,kn->k", w_l.conj(), phi, w_l).real
    p_r = np.einsum("km,kmn,kn->k", w_r.conj(), phi, w_r).real
    return _cues_from_products(num, p_l, p_r, cfg.freqs, cue_cutoff)


def cues_to_csv(path, cues: CueEstimate):
    """One row per bin: frequency, ipd, itd, ic (re/im/abs), validity."""
    columns = zip(cues.freqs, cues.ipd, cues.itd, cues.ic, cues.valid)
    write_csv(path, ["bin", "freq_hz", "ipd_rad", "itd_s", "ic_re", "ic_im", "ic_abs",
                     "valid"],
              ([k, f, ipd, itd, ic.real, ic.imag, abs(ic), int(valid)]
               for k, (f, ipd, itd, ic, valid) in enumerate(columns)))
