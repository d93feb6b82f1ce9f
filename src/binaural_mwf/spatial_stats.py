"""Per-bin coherence matrices and interaural cue estimators (IPD, ITD, IC).

Coherence matrices are sample averages of frame outer products over the VAD
classes; the speech matrix is the noise-subtracted estimate projected back
onto the positive semi-definite cone.  Cues of a filter pair (w_l, w_r)
against a noise matrix Phi are

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
from .stft import SpectralTensor, StftConfig

CUE_CUTOFF_HZ = 1500.0

# Scale-free guard for denominators / cross powers: eps * trace(Phi).
_EPS_REL = 1e-12


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
    frames_speech: int
    frames_noise: int

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


def covariance_per_bin(data, frame_mask=None):
    """data (M, T, K) -> (K, M, M) average of frame outer products.

    ``frame_mask`` selects the frames; without it every frame is averaged,
    with no masked copy of ``data``.
    """
    sel = data if frame_mask is None else data[:, frame_mask, :]
    t = sel.shape[1]
    if t < 2:
        raise InvalidInputError("need at least two frames for a covariance estimate")
    cov = np.einsum("mtk,ntk->kmn", sel, sel.conj()) / t
    return 0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1))))


def psd_floor(mats):
    """Clamp negative eigenvalues of a batch of Hermitian matrices to zero."""
    vals, vecs = np.linalg.eigh(mats)
    vals = np.clip(vals, 0.0, None)
    out = np.einsum("kij,kj,klj->kil", vecs, vals, vecs.conj())
    return 0.5 * (out + np.conj(np.transpose(out, (0, 2, 1))))


def estimate_coherence(spec: SpectralTensor, vad: VadLabels) -> CoherenceSet:
    """Estimate Phi_yy, Phi_vv and the floored Phi_xx from labeled frames.

    Phi_vv averages noise-only frames, Phi_yy speech-active frames, and
    Phi_xx is the eigenvalue-floored difference (finite averaging makes the
    raw subtraction indefinite).
    """
    if spec.frame_count != vad.frame_count:
        raise InvalidInputError("VAD length does not match frame count")
    active = vad.active
    n_speech = int(active.sum())
    n_noise = int((~active).sum())
    if n_speech < 2 or n_noise < 2:
        raise InvalidInputError(
            "need at least two frames of each class to estimate coherence"
        )
    phi_yy = covariance_per_bin(spec.data, active)
    phi_vv = covariance_per_bin(spec.data, ~active)
    phi_xx = psd_floor(phi_yy - phi_vv)
    return CoherenceSet(
        phi_yy=phi_yy,
        phi_vv=phi_vv,
        phi_xx=phi_xx,
        freqs=spec.config.freqs,
        frames_speech=n_speech,
        frames_noise=n_noise,
    )


def _cues_from_products(num, p_l, p_r, freqs, cue_cutoff):
    trace_scale = p_l + p_r
    eps = _EPS_REL * np.maximum(trace_scale, np.max(trace_scale) * _EPS_REL)
    freqs = np.asarray(freqs, dtype=float)
    powers_ok = (p_l > eps) & (p_r > eps)
    valid = (freqs > 0.0) & (freqs <= cue_cutoff) & powers_ok & (np.abs(num) > eps)
    ipd = np.angle(num)
    with np.errstate(invalid="ignore", divide="ignore"):
        ic = np.where(powers_ok, num / np.sqrt(np.where(powers_ok, p_l * p_r, 1.0)), np.nan)
        itd = np.where(valid, ipd / (2.0 * np.pi * np.where(freqs > 0, freqs, 1.0)), np.nan)
    return ipd, itd, ic, valid


def input_cues(phi_vv, selector: Selector, cfg: StftConfig, cue_cutoff=CUE_CUTOFF_HZ):
    """Interaural cues of the unprocessed reference microphones."""
    phi = np.asarray(phi_vv)
    il, ir = selector.index_left, selector.index_right
    num = phi[:, il, ir]
    p_l = phi[:, il, il].real
    p_r = phi[:, ir, ir].real
    if np.any(p_l < -1e-10 * (p_l + p_r)) or np.any(p_r < -1e-10 * (p_l + p_r)):
        raise InvalidInputError("coherence matrix has negative reference power")
    ipd, itd, ic, valid = _cues_from_products(num, p_l, p_r, cfg.freqs, cue_cutoff)
    return CueEstimate(ipd=ipd, itd=itd, ic=ic, valid=valid, freqs=cfg.freqs)


def output_cues(phi_vv, filters, cfg: StftConfig, cue_cutoff=CUE_CUTOFF_HZ):
    """Interaural cues at the filter outputs, Hermitian form on both sides."""
    phi = np.asarray(phi_vv)
    w_l = np.asarray(filters.w_l)
    w_r = np.asarray(filters.w_r)
    if not (np.all(np.isfinite(w_l)) and np.all(np.isfinite(w_r))):
        raise InvalidInputError("filters contain non-finite coefficients")
    num = np.einsum("km,kmn,kn->k", w_l.conj(), phi, w_r)
    p_l = np.einsum("km,kmn,kn->k", w_l.conj(), phi, w_l).real
    p_r = np.einsum("km,kmn,kn->k", w_r.conj(), phi, w_r).real
    ipd, itd, ic, valid = _cues_from_products(num, p_l, p_r, cfg.freqs, cue_cutoff)
    return CueEstimate(ipd=ipd, itd=itd, ic=ic, valid=valid, freqs=cfg.freqs)


def cues_to_csv(path, cues: CueEstimate):
    """One row per bin: frequency, ipd, itd, ic (re/im/abs), validity."""
    lines = ["bin,freq_hz,ipd_rad,itd_s,ic_re,ic_im,ic_abs,valid"]
    for k in range(cues.ipd.size):
        ic = cues.ic[k]
        fields = [
            float(cues.freqs[k]), float(cues.ipd[k]), float(cues.itd[k]),
            float(ic.real), float(ic.imag), float(abs(ic)),
        ]
        lines.append(f"{k}," + ",".join(repr(v) for v in fields)
                     + f",{int(cues.valid[k])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def coherence_to_csv(path, phi: CoherenceSet):
    """One row per bin with flattened re/im entries of each matrix."""
    m = phi.mic_count
    names = []
    for mat_name in ("phi_yy", "phi_vv", "phi_xx"):
        for i in range(m):
            for j in range(m):
                names.append(f"{mat_name}_{i}{j}_re")
                names.append(f"{mat_name}_{i}{j}_im")
    lines = ["bin,freq_hz," + ",".join(names)]
    for k in range(phi.bin_count):
        vals = []
        for mat in (phi.phi_yy, phi.phi_vv, phi.phi_xx):
            for i in range(m):
                for j in range(m):
                    vals.append(repr(float(mat[k, i, j].real)))
                    vals.append(repr(float(mat[k, i, j].imag)))
        lines.append(f"{k},{float(phi.freqs[k])!r}," + ",".join(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
