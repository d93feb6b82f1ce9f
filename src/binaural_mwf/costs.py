"""Per-bin cost functions: Wiener term, IPD penalty, IC penalty, combined.

All costs are real functions of the stacked real parameter vector
``[Re w_l; Im w_l; Re w_r; Im w_r]`` of length 4M.  Gradients are analytic
(Wirtinger calculus mapped to the real parameterization) and are
cross-checked against central finite differences in the test suite.

The Wiener term is the quadratic

    j_w = sum_e [ q_e' Pxx q_e - 2 Re(w_e^H Pxx q_e) + w_e^H Pyy w_e ]

whose gradient with respect to (Re w_e, Im w_e) is 2(Pyy w_e - Pxx q_e).
The IPD penalty squares the wrapped difference between output and input
noise phase; the IC penalty squares the complex modulus of the coherence
difference.  When the output noise power collapses below the scale-free
guard the penalties return a fixed large value with zero gradient so the
Wiener gradient keeps line searches finite near w = 0.

One stacked kernel evaluates every cost.  Each term is a class whose
constructor computes the filter-independent parts of B bins (lanes)
stacked on a leading axis, and whose value and gradient come from stacked
numpy operations over the listed lanes (every lane by default), whose rows
it reads by index; nothing is kept between calls.  :class:`BinObjective`
combines them for an optimizer's lanes; the one-bin functions (``j_w``,
``j_ipd``, ``j_ic``, ``combined``) run the kernel with B = 1.  A penalty
term builds its parameter derivatives once per evaluation, as whole 4M
vectors, and its gradient and its one-lane Hessian (entered through
``BinObjective.hessian``) both read them.  ``_pack_pairs`` and
``_unpack_pairs`` are the one packed-parameter layout.

Each lane runs the same floating-point operations, in the same order, as
an evaluation of its bin alone, so its result does not depend on B or on
the other lanes: every matrix-vector and dot product is a stacked matmul
(Phi_yy and Phi_vv products summed in order, see ``_mv``); a complex
divided by a float is divided part by part as Python does; a complex
modulus is ``np.hypot``; and a squared modulus uses Python's float power,
lane by lane.  A degenerate lane gets its fixed penalty and zero gradient
without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spatial_stats import _EPS_REL, CUE_CUTOFF_HZ, in_cue_band, wrap_angle

VARIANTS = ("mwf", "mwf-itd", "mwf-ic")

DEGENERATE_PENALTY = 1.0e6


@dataclass(frozen=True)
class CostSpec:
    """Objective selection: variant, penalty weight, cue gating cutoff."""

    variant: str = "mwf"
    alpha: float = 0.0
    cue_cutoff: float = CUE_CUTOFF_HZ

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"variant must be one of {VARIANTS}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise InvalidInputError("alpha must be finite and non-negative")
        if not (np.isfinite(self.cue_cutoff) and self.cue_cutoff > 0):
            raise InvalidInputError("cue_cutoff must be finite and positive")

    def with_alpha(self, alpha):
        return CostSpec(variant=self.variant, alpha=alpha, cue_cutoff=self.cue_cutoff)


@dataclass
class FilterPair:
    """Per-bin complex coefficient vectors, each of shape (bins, M)."""

    w_l: np.ndarray
    w_r: np.ndarray

    def __post_init__(self):
        self.w_l = np.asarray(self.w_l, dtype=complex)
        self.w_r = np.asarray(self.w_r, dtype=complex)
        if self.w_l.shape != self.w_r.shape:
            raise InvalidInputError("left/right filter shapes differ")

    @property
    def bin_count(self):
        return self.w_l.shape[0]


@dataclass
class CostEval:
    """Scalar cost and its gradient over the 4M real parameters."""

    value: float
    gradient: np.ndarray


def _realify(mat):
    """Real quadratic-form matrix of w^H M w over [Re w; Im w] (M Hermitian)."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _gapped(mats):
    """Matrices (..., M, M) stored with a gap after every entry, for ``_mv``."""
    out = np.zeros(mats.shape[:-1] + (2 * mats.shape[-1],), dtype=complex)
    out[..., ::2] = mats
    return out


def _pair(w_l, w_r):
    """The filter pair (1, 2, M) of one lane with filters (M,)."""
    return np.stack([w_l, w_r])[None]


def _unpack_pairs(x):
    """Filter pairs (B, 2, M), [w_l; w_r] per lane, of packed parameter
    rows (B, 4M)."""
    x = x.reshape(x.shape[0], 2, 2, -1)
    return x[:, :, 0] + 1j * x[:, :, 1]


def _pack_pairs(w):
    """Packed parameter rows (B, 4M) of filter pairs (B, 2, M)."""
    return np.stack([w.real, w.imag], axis=2).reshape(w.shape[0], -1)


def pack_filters(w_l, w_r):
    """Packed parameters [Re w_l; Im w_l; Re w_r; Im w_r] of one filter pair."""
    return _pack_pairs(_pair(w_l, w_r))[0]


def unpack_filters(x):
    """Filters (w_l, w_r) of one lane's packed parameters."""
    w_l, w_r = _unpack_pairs(x[None])[0]
    return w_l, w_r


def _mv(gapped, w):
    """Products Phi w_e (B, 2, M) of gapped matrices (B, M, 2M) and filter
    pairs (B, 2, M), one matrix-vector product per filter.

    The gaps keep numpy's matmul from handing the products to BLAS, which
    may sum in another order, so each entry is summed in order whatever the
    layout of the callers' Phi: the order the recorded artifacts were
    computed in.
    """
    return (gapped[:, None, :, ::2] @ w[..., None])[..., 0]


def _dots(a, b):
    """Unconjugated dot products of the rows of two (..., M) stacks."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _noise_products(w, phi_vv):
    """c = Phi w_e (B, 2, M), u = w_l^H Phi w_r and the output powers p_l,
    p_r of B lanes."""
    c = _mv(phi_vv, w)
    # [e, f] = w_e^H Phi w_f
    cross = _dots(w.conj()[:, :, None, :], c[:, None, :, :])
    return c, cross[:, 0, 1], cross[:, 0, 0].real, cross[:, 1, 1].real


def _noise_eps(phi_vv):
    """Scale-free guard on output noise powers and cross power, per lane."""
    return _EPS_REL * np.trace(phi_vv, axis1=-2, axis2=-1).real


def _u_gradient(c_l, c_r):
    """Complex derivative of u = w_l^H Phi w_r over the real parameters."""
    return np.concatenate([c_r, -1j * c_r, c_l.conj(), 1j * c_l.conj()], axis=-1)


def _u_hessian(phi_vv):
    """Symmetric complex second derivative of u, nonzero only across the
    w_l/w_r blocks since u is bilinear."""
    m = phi_vv.shape[0]
    cross = np.block([[phi_vv, 1j * phi_vv], [-1j * phi_vv, phi_vv]])
    u2 = np.zeros((4 * m, 4 * m), dtype=complex)
    u2[: 2 * m, 2 * m :] = cross
    u2[2 * m :, : 2 * m] = cross.T
    return u2


def _live_lanes(live, *arrays):
    """Each stacked array restricted to the ``live`` lanes."""
    if live.all():
        return arrays
    return tuple(a[live] for a in arrays)


def _guarded(live, values, grads):
    """(values, gradients) of all lanes from the live lanes' results: past
    the guard, ``DEGENERATE_PENALTY`` with a zero gradient."""
    if live.all():
        return values, grads
    all_values = np.full(live.size, DEGENERATE_PENALTY)
    all_grads = np.zeros((live.size, grads.shape[1]))
    all_values[live] = values
    all_grads[live] = grads
    return all_values, all_grads


class _WienerTerm:
    """Wiener cost of B lanes; Pxx q_e and q_e' Pxx q_e are built once."""

    def __init__(self, phi_xx, phi_yy, q_l, q_r):
        m = q_l.size
        if phi_xx.shape[1:] != (m, m) or phi_yy.shape[1:] != (m, m):
            raise InvalidInputError("dimension mismatch in Wiener cost")
        self.phi_yy = _gapped(phi_yy)
        self.b = np.stack([phi_xx @ q_l, phi_xx @ q_r], axis=1)  # (B, 2, M)
        power = _dots(np.broadcast_to(np.stack([q_l, q_r]), self.b.shape), self.b).real
        self.reference_power = power[:, 0] + power[:, 1]

    def value_and_gradient(self, w, lanes=slice(None)):
        b = self.b[lanes]
        y = _mv(self.phi_yy[lanes], w)
        w_conj = w.conj()
        wb = _dots(w_conj, b).real
        wy = _dots(w_conj, y).real
        value = (
            self.reference_power[lanes]
            - 2.0 * wb[:, 0]
            - 2.0 * wb[:, 1]
            + wy[:, 0]
            + wy[:, 1]
        )
        return value, _pack_pairs(2.0 * (y - b))


class _PenaltyTerm:
    """Gapped Phi_vv, input noise cues ``target`` and guard of B lanes."""

    def __init__(self, phi_vv, target):
        self.phi_vv = _gapped(phi_vv)
        self.target = target
        self.eps = _noise_eps(phi_vv)


class _PhaseTerm(_PenaltyTerm):
    """Phase penalty of B lanes against their input noise phases ``target``.

    A lane is degenerate when an output noise power or the cross power is
    below the guard; ``hessian`` returns None there.
    """

    def _derivatives(self, w, lanes):
        """(live, d, u, c, d(angle u)/d(params)) of the ``lanes`` rows, all
        but ``live`` restricted to the lanes inside the guard."""
        c, u, p_l, p_r = _noise_products(w, self.phi_vv[lanes])
        eps = self.eps[lanes]
        live = ~((p_l <= eps) | (p_r <= eps) | (np.hypot(u.real, u.imag) <= eps))
        c, u, target = _live_lanes(live, c, u, self.target[lanes])
        d = wrap_angle(np.angle(u) - target)
        # u = w_l^H Phi w_r is linear in conj(w_l) and w_r, and
        # d(angle u)/dx = Im((du/dx)/u).
        ru = c[:, 1] / u[:, None]
        su = c[:, 0].conj() / u[:, None]
        grad_phi = np.concatenate([ru.imag, -ru.real, su.imag, su.real], axis=1)
        return live, d, u, c, grad_phi

    def value_and_gradient(self, w, lanes=slice(None)):
        live, d, _, _, grad_phi = self._derivatives(w, lanes)
        return _guarded(live, d * d, (2.0 * d)[:, None] * grad_phi)

    def hessian(self, w, lane):
        """Exact Hessian of lane ``lane`` at its pair w, or None past the guard."""
        live, d, u, c, _ = self._derivatives(w, [lane])
        if not live[0]:
            return None
        d, u = float(d[0]), complex(u[0])
        du = _u_gradient(c[0, 0], c[0, 1])
        # Im((du/dx)/u) formed from du, not from the gradient's parts: where
        # an entry of c is exactly zero, -(c_r/u).real is -0 but
        # ((-1j c_r)/u).imag is +0
        grad_phi = (du / u).imag
        hess_phi = ((_u_hessian(self.phi_vv[lane, :, ::2]) / u).imag
                    - (np.outer(du, du) / (u * u)).imag)
        return 2.0 * np.outer(grad_phi, grad_phi) + 2.0 * d * hess_phi


class _CoherenceTerm(_PenaltyTerm):
    """Coherence penalty of B lanes against their input noise coherences
    ``target``; a lane is degenerate when an output noise power is below the
    guard, and ``hessian`` returns None there."""

    def _derivatives(self, w, lanes):
        """(live, u, p_l, p_r, du, dp_l, dp_r, target) of the ``lanes`` rows
        over the real parameters, all but ``live`` restricted to the lanes
        inside the guard; dp_e is the derivative of the output power p_e."""
        c, u, p_l, p_r = _noise_products(w, self.phi_vv[lanes])
        eps = self.eps[lanes]
        live = ~((p_l <= eps) | (p_r <= eps))
        c, u, p_l, p_r, target = _live_lanes(live, c, u, p_l, p_r, self.target[lanes])
        c_l, c_r = c[:, 0], c[:, 1]
        zeros = np.zeros((u.size, 2 * c.shape[2]))
        dp_l = np.concatenate([2 * c_l.real, 2 * c_l.imag, zeros], axis=1)
        dp_r = np.concatenate([zeros, 2 * c_r.real, 2 * c_r.imag], axis=1)
        return live, u, p_l, p_r, _u_gradient(c_l, c_r), dp_l, dp_r, target

    def value_and_gradient(self, w, lanes=slice(None)):
        live, u, p_l, p_r, du, dp_l, dp_r, target = self._derivatives(w, lanes)
        den = np.sqrt(p_l * p_r)
        # g = u / den - target, dividing as Python's complex / float does
        g = np.empty(u.shape, dtype=complex)
        g.real = (u.real + u.imag * 0.0) / den - target.real
        g.imag = (u.imag - u.real * 0.0) / den - target.imag
        # dic_out = [du - u (dp_l/(2 p_l) + dp_r/(2 p_r))] / den, and
        # dvalue = 2 Re(conj(g) dic_out).
        dic = (du - u[:, None] * (dp_l / (2 * p_l)[:, None] + dp_r / (2 * p_r)[:, None])
               ) / den[:, None]
        # |g|^2 squares with Python's float power, lane by lane
        values = np.array([modulus**2 for modulus in np.hypot(g.real, g.imag).tolist()])
        return _guarded(live, values, 2.0 * (np.conj(g)[:, None] * dic).real)

    def hessian(self, w, lane):
        """Exact Hessian of lane ``lane`` at its pair w, or None past the guard."""
        live, u, p_l, p_r, du, dp_l, dp_r, target = self._derivatives(w, [lane])
        if not live[0]:
            return None
        u, p_l, p_r, target = complex(u[0]), float(p_l[0]), float(p_r[0]), complex(target[0])
        du, dp_l, dp_r = du[0], dp_l[0], dp_r[0]
        m = self.phi_vv.shape[1]
        quad = 2.0 * _realify(self.phi_vv[lane, :, ::2])
        pl_h = np.zeros((4 * m, 4 * m))
        pl_h[: 2 * m, : 2 * m] = quad
        pr_h = np.zeros((4 * m, 4 * m))
        pr_h[2 * m :, 2 * m :] = quad
        s = 1.0 / np.sqrt(p_l * p_r)
        t_vec = dp_l / p_l + dp_r / p_r
        s_vec = -0.5 * s * t_vec
        s_h = (
            np.outer(s_vec, s_vec) / s
            - 0.5 * s * (
                pl_h / p_l - np.outer(dp_l, dp_l) / (p_l * p_l)
                + pr_h / p_r - np.outer(dp_r, dp_r) / (p_r * p_r)
            )
        )
        ic_vec = du * s + u * s_vec
        ic_h = (_u_hessian(self.phi_vv[lane, :, ::2]) * s + np.outer(du, s_vec)
                + np.outer(s_vec, du) + u * s_h)
        g = u * s - target
        return (
            2.0 * np.outer(ic_vec, ic_vec.conj()).real
            + 2.0 * (np.conj(g) * ic_h).real
        )


def _input_products(phi_vv, q_l, q_r):
    """(cross power, left power, right power, guard) of the reference mics."""
    num = complex(q_l @ phi_vv @ q_r)
    p_l = float((q_l @ phi_vv @ q_l).real)
    p_r = float((q_r @ phi_vv @ q_r).real)
    return num, p_l, p_r, _noise_eps(phi_vv)


def input_ipd(phi_vv, q_l, q_r):
    """Reference-microphone noise phase for one bin, or None if undefined."""
    num, p_l, p_r, eps = _input_products(phi_vv, q_l, q_r)
    if p_l <= eps or p_r <= eps or abs(num) <= eps:
        return None
    return float(np.angle(num))


def input_ic(phi_vv, q_l, q_r):
    """Reference-microphone noise coherence for one bin, or None."""
    num, p_l, p_r, eps = _input_products(phi_vv, q_l, q_r)
    if p_l <= eps or p_r <= eps:
        return None
    return num / np.sqrt(p_l * p_r)


def penalty_cue(spec: CostSpec, phi_vv, q_l, q_r, freq_hz):
    """The input cue a bin's penalty pulls toward, or None if it is unpenalized.

    A bin is penalized exactly when the variant is mwf-itd or mwf-ic,
    alpha > 0, 0 < f <= ``cue_cutoff`` and the input cue (phase for mwf-itd,
    coherence for mwf-ic) is defined.
    """
    if spec.variant == "mwf" or not spec.alpha > 0.0:
        return None
    if not in_cue_band(freq_hz, spec.cue_cutoff):
        return None
    if spec.variant == "mwf-itd":
        return input_ipd(phi_vv, q_l, q_r)
    return input_ic(phi_vv, q_l, q_r)


def _check_filter_sizes(w_l, w_r, m):
    if w_l.size != m or w_r.size != m:
        raise InvalidInputError(f"filters must have {m} coefficients, one per microphone")


def _first_lane(values, grads) -> CostEval:
    return CostEval(value=float(values[0]), gradient=grads[0])


def j_w(w_l, w_r, phi_xx, phi_yy, q_l, q_r) -> CostEval:
    """Binaural Wiener cost and gradient for one bin."""
    _check_filter_sizes(w_l, w_r, q_l.size)
    term = _WienerTerm(phi_xx[None], phi_yy[None], q_l, q_r)
    return _first_lane(*term.value_and_gradient(_pair(w_l, w_r)))


def j_ipd(w_l, w_r, phi_vv, q_l, q_r) -> CostEval:
    """Squared wrapped difference between output and input noise phase."""
    _check_filter_sizes(w_l, w_r, q_l.size)
    ipd_in = input_ipd(phi_vv, q_l, q_r)
    if ipd_in is None:
        raise InvalidInputError("input noise phase undefined for this bin")
    term = _PhaseTerm(phi_vv[None], np.array([ipd_in], dtype=float))
    return _first_lane(*term.value_and_gradient(_pair(w_l, w_r)))


def j_ic(w_l, w_r, phi_vv, q_l, q_r) -> CostEval:
    """Squared modulus of the coherence difference |ic_out - ic_in|^2."""
    _check_filter_sizes(w_l, w_r, q_l.size)
    ic_in = input_ic(phi_vv, q_l, q_r)
    if ic_in is None:
        raise InvalidInputError("input noise coherence undefined for this bin")
    term = _CoherenceTerm(phi_vv[None], np.array([ic_in], dtype=complex))
    return _first_lane(*term.value_and_gradient(_pair(w_l, w_r)))


def hess_j_w(phi_yy):
    """Exact (4M, 4M) Hessian of the Wiener term: block-diagonal per ear."""
    m = phi_yy.shape[0]
    block = 2.0 * _realify(phi_yy)
    out = np.zeros((4 * m, 4 * m))
    out[: 2 * m, : 2 * m] = block
    out[2 * m :, 2 * m :] = block
    return out


class BinObjective:
    """The combined objective of B bins (lanes), evaluated in one call.

    Construction takes the lanes' matrices stacked on a leading axis and
    precomputes everything that does not depend on the filters.  The lanes
    are penalized alike: ``cues`` holds each lane's input cue, or is None for
    the Wiener cost alone.  ``of_bin`` builds the one-lane objective of a bin
    and settles whether it is penalized (``penalty_cue``).  A call reads the
    rows of the lanes it lists, by index, and keeps nothing between calls.
    """

    def __init__(self, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, cues=None):
        self.alpha = spec.alpha
        self.wiener = _WienerTerm(phi_xx, phi_yy, q_l, q_r)
        if cues is None:
            self.penalty = None
        elif spec.variant == "mwf-itd":
            self.penalty = _PhaseTerm(phi_vv, np.array(cues, dtype=float))
        else:
            self.penalty = _CoherenceTerm(phi_vv, np.array(cues, dtype=complex))

    @classmethod
    def of_bin(cls, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz):
        cue = penalty_cue(spec, phi_vv, q_l, q_r, freq_hz)
        return cls(phi_xx[None], phi_yy[None], phi_vv[None], q_l, q_r, spec,
                   None if cue is None else [cue])

    def evaluate(self, w, lanes=slice(None)):
        """(values, gradients) of the ``lanes`` rows at their filter pairs w,
        one (2, M) pair per lane."""
        values, grads = self.wiener.value_and_gradient(w, lanes)
        if self.penalty is None:
            return values, grads
        pen, pen_grads = self.penalty.value_and_gradient(w, lanes)
        return values + self.alpha * pen, grads + self.alpha * pen_grads

    def __call__(self, x, lanes=None):
        """(values, gradients) at the packed parameter rows ``x``, one per
        listed lane (every lane if None)."""
        if lanes is None or len(lanes) == self.wiener.b.shape[0]:
            lanes = slice(None)
        else:
            lanes = np.asarray(lanes)
        return self.evaluate(_unpack_pairs(x), lanes)

    def hessian(self, x, lane=0):
        """Exact Hessian of one lane at its packed parameters ``x``; the
        penalty contributes nothing where degenerate."""
        base = hess_j_w(self.wiener.phi_yy[lane, :, ::2])
        if self.penalty is None:
            return base
        pen = self.penalty.hessian(_unpack_pairs(x[None]), lane)
        return base if pen is None else base + self.alpha * pen


def combined_hessian(
    w_l, w_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz
):
    """Exact Hessian of the combined objective (penalty zero where gated)."""
    objective = BinObjective.of_bin(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq_hz)
    return objective.hessian(pack_filters(w_l, w_r))


def combined(
    w_l, w_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz
) -> CostEval:
    """Variant objective for one bin; penalties gate off above the cutoff.

    Bins whose input cue is undefined (e.g. no noise) fall back to the
    Wiener cost alone.  Optimizer loops evaluate a :class:`BinObjective` of
    all their bins instead.
    """
    objective = BinObjective.of_bin(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq_hz)
    _check_filter_sizes(w_l, w_r, q_l.size)
    return _first_lane(*objective.evaluate(_pair(w_l, w_r)))
