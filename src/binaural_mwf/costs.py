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

Each term is one class whose constructor computes the filter-independent
parts of a bin.  A penalty term builds its parameter derivatives once per
evaluation, as whole 4M vectors, and its gradient and Hessian both read
them.  The public functions build a term per call; :class:`BinObjective`
keeps them across an optimizer's evaluations.  Both run the same
floating-point operations in the same order, so their results are bitwise
equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spatial_stats import _EPS_REL, CUE_CUTOFF_HZ, Selector, in_cue_band, wrap_angle

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
        if not np.isfinite(self.alpha):
            raise InvalidInputError("alpha must be finite")
        if self.alpha < 0:
            raise InvalidInputError("alpha must be non-negative")
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

    @classmethod
    def identity(cls, selector: Selector, bins):
        """Pass-through filters selecting the reference microphones."""
        w_l = np.tile(selector.q_l.astype(complex), (bins, 1))
        w_r = np.tile(selector.q_r.astype(complex), (bins, 1))
        return cls(w_l=w_l, w_r=w_r)

    @property
    def bin_count(self):
        return self.w_l.shape[0]


@dataclass
class CostEval:
    """Scalar cost and its gradient over the 4M real parameters."""

    value: float
    gradient: np.ndarray
    degenerate: bool = False


def pack_filters(w_l, w_r):
    return np.concatenate([w_l.real, w_l.imag, w_r.real, w_r.imag])


def unpack_filters(x):
    m = x.size // 4
    w_l = x[:m] + 1j * x[m : 2 * m]
    w_r = x[2 * m : 3 * m] + 1j * x[3 * m :]
    return w_l, w_r


def _realify(mat):
    """Real quadratic-form matrix of w^H M w over [Re w; Im w] (M Hermitian)."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def _noise_products(w_l, w_r, phi_vv):
    c_l = phi_vv @ w_l
    c_r = phi_vv @ w_r
    w_l_conj = w_l.conj()
    u = complex(w_l_conj @ c_r)
    p_l = float((w_l_conj @ c_l).real)
    p_r = float((w_r.conj() @ c_r).real)
    return c_l, c_r, u, p_l, p_r


def _noise_eps(phi_vv):
    """Scale-free guard on output noise powers and cross power."""
    return _EPS_REL * float(np.trace(phi_vv).real)


def _u_gradient(c_l, c_r):
    """Complex derivative of u = w_l^H Phi w_r over the real parameters."""
    return np.concatenate([c_r, -1j * c_r, c_l.conj(), 1j * c_l.conj()])


def _u_hessian(phi_vv):
    """Symmetric complex second derivative of u, nonzero only across the
    w_l/w_r blocks since u is bilinear."""
    m = phi_vv.shape[0]
    cross = np.block([[phi_vv, 1j * phi_vv], [-1j * phi_vv, phi_vv]])
    u2 = np.zeros((4 * m, 4 * m), dtype=complex)
    u2[: 2 * m, 2 * m :] = cross
    u2[2 * m :, : 2 * m] = cross.T
    return u2


class _WienerTerm:
    """Wiener cost of one bin; Pxx q_e and q_e' Pxx q_e are built once."""

    def __init__(self, phi_xx, phi_yy, q_l, q_r):
        m = q_l.size
        if phi_xx.shape != (m, m) or phi_yy.shape != (m, m):
            raise InvalidInputError("dimension mismatch in Wiener cost")
        self.phi_yy = phi_yy
        self.b_l = phi_xx @ q_l
        self.b_r = phi_xx @ q_r
        self.reference_power = (q_l @ self.b_l).real + (q_r @ self.b_r).real
        self._hessian = None

    def value_and_gradient(self, w_l, w_r):
        b_l, b_r = self.b_l, self.b_r
        y_l = self.phi_yy @ w_l
        y_r = self.phi_yy @ w_r
        w_l_conj = w_l.conj()
        w_r_conj = w_r.conj()
        value = float(
            self.reference_power
            - 2.0 * (w_l_conj @ b_l).real
            - 2.0 * (w_r_conj @ b_r).real
            + (w_l_conj @ y_l).real
            + (w_r_conj @ y_r).real
        )
        return value, pack_filters(2.0 * (y_l - b_l), 2.0 * (y_r - b_r))

    def hessian(self):
        if self._hessian is None:
            self._hessian = hess_j_w(self.phi_yy, self.phi_yy.shape[0])
        return self._hessian


class _PhaseTerm:
    """Phase penalty of one bin against the input noise phase ``target``.

    ``value_and_gradient`` and ``hessian`` return None on a degenerate bin
    (an output noise power or the cross power below the guard).
    """

    def __init__(self, phi_vv, target):
        self.phi_vv = phi_vv
        self.target = target
        self.eps = _noise_eps(phi_vv)
        self._u2 = None

    def _derivatives(self, w_l, w_r):
        """(d, u, c_l, c_r, d(angle u)/d(params)), or None past the guard."""
        c_l, c_r, u, p_l, p_r = _noise_products(w_l, w_r, self.phi_vv)
        eps = self.eps
        if p_l <= eps or p_r <= eps or abs(u) <= eps:
            return None
        d = float(wrap_angle(np.angle(u) - self.target))
        # u = w_l^H Phi w_r is linear in conj(w_l) and w_r, and
        # d(angle u)/dx = Im((du/dx)/u).
        ru = c_r / u
        su = c_l.conj() / u
        return d, u, c_l, c_r, np.concatenate([ru.imag, -ru.real, su.imag, su.real])

    def value_and_gradient(self, w_l, w_r):
        derivatives = self._derivatives(w_l, w_r)
        if derivatives is None:
            return None
        d, _, _, _, grad_phi = derivatives
        return d * d, 2.0 * d * grad_phi

    def hessian(self, w_l, w_r):
        derivatives = self._derivatives(w_l, w_r)
        if derivatives is None:
            return None
        d, u, c_l, c_r, grad_phi = derivatives
        if self._u2 is None:
            self._u2 = _u_hessian(self.phi_vv)
        du = _u_gradient(c_l, c_r)
        hess_phi = (self._u2 / u).imag - (np.outer(du, du) / (u * u)).imag
        return 2.0 * np.outer(grad_phi, grad_phi) + 2.0 * d * hess_phi


class _CoherenceTerm:
    """Coherence penalty of one bin against the input noise coherence
    ``target``; None from ``value_and_gradient``/``hessian`` when an output
    noise power is below the guard."""

    def __init__(self, phi_vv, target):
        self.phi_vv = phi_vv
        self.target = target
        self.eps = _noise_eps(phi_vv)
        self.zeros = np.zeros(2 * phi_vv.shape[0])
        self._hessian_parts = None

    def _derivatives(self, w_l, w_r):
        """(u, p_l, p_r, du, dp_l, dp_r) over the real parameters, or None
        past the guard; dp_e is the derivative of the output power p_e."""
        c_l, c_r, u, p_l, p_r = _noise_products(w_l, w_r, self.phi_vv)
        if p_l <= self.eps or p_r <= self.eps:
            return None
        zeros = self.zeros
        dp_l = np.concatenate([2 * c_l.real, 2 * c_l.imag, zeros])
        dp_r = np.concatenate([zeros, 2 * c_r.real, 2 * c_r.imag])
        return u, p_l, p_r, _u_gradient(c_l, c_r), dp_l, dp_r

    def value_and_gradient(self, w_l, w_r):
        derivatives = self._derivatives(w_l, w_r)
        if derivatives is None:
            return None
        u, p_l, p_r, du, dp_l, dp_r = derivatives
        den = np.sqrt(p_l * p_r)
        g = u / den - self.target
        # dic_out = [du - u (dp_l/(2 p_l) + dp_r/(2 p_r))] / den, and
        # dvalue = 2 Re(conj(g) dic_out).
        dic = (du - u * (dp_l / (2 * p_l) + dp_r / (2 * p_r))) / den
        return float(abs(g) ** 2), 2.0 * (np.conj(g) * dic).real

    def hessian(self, w_l, w_r):
        derivatives = self._derivatives(w_l, w_r)
        if derivatives is None:
            return None
        u, p_l, p_r, du, dp_l, dp_r = derivatives
        if self._hessian_parts is None:
            m = self.phi_vv.shape[0]
            quad = 2.0 * _realify(self.phi_vv)
            pl_h = np.zeros((4 * m, 4 * m))
            pl_h[: 2 * m, : 2 * m] = quad
            pr_h = np.zeros((4 * m, 4 * m))
            pr_h[2 * m :, 2 * m :] = quad
            self._hessian_parts = (pl_h, pr_h, _u_hessian(self.phi_vv))
        pl_h, pr_h, u2 = self._hessian_parts
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
        ic_h = u2 * s + np.outer(du, s_vec) + np.outer(s_vec, du) + u * s_h
        g = u * s - self.target
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
        raise InvalidInputError("dimension mismatch in Wiener cost")


def j_w(w_l, w_r, phi_xx, phi_yy, q_l, q_r) -> CostEval:
    """Binaural Wiener cost and gradient for one bin."""
    _check_filter_sizes(w_l, w_r, q_l.size)
    value, grad = _WienerTerm(phi_xx, phi_yy, q_l, q_r).value_and_gradient(w_l, w_r)
    return CostEval(value=value, gradient=grad)


def _penalty(term, w_l, w_r):
    """(value, gradient, degenerate) of a penalty term; past its guard the
    fixed ``DEGENERATE_PENALTY`` with a zero gradient."""
    result = term.value_and_gradient(w_l, w_r)
    if result is None:
        return DEGENERATE_PENALTY, np.zeros(4 * w_l.size), True
    return result[0], result[1], False


def j_ipd(w_l, w_r, phi_vv, q_l, q_r, ipd_in=None) -> CostEval:
    """Squared wrapped difference between output and input noise phase."""
    if ipd_in is None:
        ipd_in = input_ipd(phi_vv, q_l, q_r)
        if ipd_in is None:
            raise InvalidInputError("input noise phase undefined for this bin")
    return CostEval(*_penalty(_PhaseTerm(phi_vv, ipd_in), w_l, w_r))


def j_ic(w_l, w_r, phi_vv, q_l, q_r, ic_in=None) -> CostEval:
    """Squared modulus of the coherence difference |ic_out - ic_in|^2."""
    if ic_in is None:
        ic_in = input_ic(phi_vv, q_l, q_r)
        if ic_in is None:
            raise InvalidInputError("input noise coherence undefined for this bin")
    return CostEval(*_penalty(_CoherenceTerm(phi_vv, ic_in), w_l, w_r))


def hess_j_w(phi_yy, m):
    """Exact (4M, 4M) Hessian of the Wiener term: block-diagonal per ear."""
    block = 2.0 * _realify(phi_yy)
    out = np.zeros((4 * m, 4 * m))
    out[: 2 * m, : 2 * m] = block
    out[2 * m :, 2 * m :] = block
    return out


class BinObjective:
    """The combined objective of one bin, with its invariants built once.

    Construction settles whether the bin is penalized (``penalty_cue``) and
    precomputes everything that does not depend on the filters: Pxx q_e,
    the reference speech power, the noise-power guard and the constant
    Hessian blocks.  Each evaluation then runs the same floating-point
    operations, in the same order, as a fresh ``combined`` or
    ``combined_hessian`` call, so the results are bitwise equal.
    """

    def __init__(self, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz):
        self.size = 4 * q_l.size
        self.alpha = spec.alpha
        self.wiener = _WienerTerm(phi_xx, phi_yy, q_l, q_r)
        cue = penalty_cue(spec, phi_vv, q_l, q_r, freq_hz)
        if cue is None:
            self.penalty = None
        elif spec.variant == "mwf-itd":
            self.penalty = _PhaseTerm(phi_vv, cue)
        else:
            self.penalty = _CoherenceTerm(phi_vv, cue)

    def _evaluate(self, w_l, w_r):
        value, grad = self.wiener.value_and_gradient(w_l, w_r)
        if self.penalty is None:
            return value, grad, False
        pen, pen_grad, degenerate = _penalty(self.penalty, w_l, w_r)
        return value + self.alpha * pen, grad + self.alpha * pen_grad, degenerate

    def __call__(self, x):
        """(value, gradient) at the packed real parameter vector ``x``."""
        value, grad, _ = self._evaluate(*unpack_filters(x))
        return value, grad

    def evaluate(self, w_l, w_r) -> CostEval:
        _check_filter_sizes(w_l, w_r, self.size // 4)
        value, grad, degenerate = self._evaluate(w_l, w_r)
        return CostEval(value=value, gradient=grad, degenerate=degenerate)

    def hessian_at(self, w_l, w_r):
        """Exact Hessian; the penalty contributes nothing where degenerate."""
        base = self.wiener.hessian()
        if self.penalty is None:
            return base
        pen = self.penalty.hessian(w_l, w_r)
        if pen is None:
            return base
        return base + self.alpha * pen

    def hessian(self, x):
        """Exact Hessian at the packed real parameter vector ``x``."""
        return self.hessian_at(*unpack_filters(x))


def combined_hessian(
    w_l, w_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz
):
    """Exact Hessian of the combined objective (penalty zero where gated)."""
    objective = BinObjective(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq_hz)
    return objective.hessian_at(w_l, w_r)


def combined(
    w_l, w_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz
) -> CostEval:
    """Variant objective for one bin; penalties gate off above the cutoff.

    Bins whose input cue is undefined (e.g. no noise) fall back to the
    Wiener cost alone.  Optimizer loops build a :class:`BinObjective` once
    per bin instead.
    """
    objective = BinObjective(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq_hz)
    return objective.evaluate(w_l, w_r)
