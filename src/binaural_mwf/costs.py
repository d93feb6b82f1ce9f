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
parts of a bin.  The public functions build a term per call;
:class:`BinObjective` keeps them across an optimizer's evaluations.  Both
run the same floating-point operations in the same order, so their results
are bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spatial_stats import CUE_CUTOFF_HZ, Selector, wrap_angle

VARIANTS = ("mwf", "mwf-itd", "mwf-ic")

DEGENERATE_PENALTY = 1.0e6
_EPS_REL = 1e-12


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


def _grad_blocks(g_l, g_r):
    """Complex per-ear gradients -> stacked real gradient."""
    return np.concatenate([g_l.real, g_l.imag, g_r.real, g_r.imag])


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
        return value, _grad_blocks(2.0 * (y_l - b_l), 2.0 * (y_r - b_r))

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

    def _products(self, w_l, w_r):
        c_l, c_r, u, p_l, p_r = _noise_products(w_l, w_r, self.phi_vv)
        eps = self.eps
        if p_l <= eps or p_r <= eps or abs(u) <= eps:
            return None
        return c_l, c_r, u

    def value_and_gradient(self, w_l, w_r):
        products = self._products(w_l, w_r)
        if products is None:
            return None
        c_l, c_r, u = products
        d = float(wrap_angle(np.angle(u) - self.target))
        # d(angle u)/d(params): u = w_l^H Phi w_r is linear in conj(w_l) and w_r,
        # and d(angle u)/dx = Im((du/dx)/u).
        ru = c_r / u
        su = c_l.conj() / u
        return d * d, 2.0 * d * np.concatenate([ru.imag, -ru.real, su.imag, su.real])

    def hessian(self, w_l, w_r):
        products = self._products(w_l, w_r)
        if products is None:
            return None
        c_l, c_r, u = products
        if self._u2 is None:
            self._u2 = _u_hessian(self.phi_vv)
        u_vec = _u_gradient(c_l, c_r)
        d = float(wrap_angle(np.angle(u) - self.target))
        grad_phi = (u_vec / u).imag
        hess_phi = (self._u2 / u).imag - (np.outer(u_vec, u_vec) / (u * u)).imag
        return 2.0 * np.outer(grad_phi, grad_phi) + 2.0 * d * hess_phi


def _ic_partials(u, g_conj, den, two_p_l, two_p_r, du, dp_l, dp_r):
    """d|ic_out - ic_in|^2 over one real parameter block.

    dic_out/dtheta = [du - u (dp_l/(2 p_l) + dp_r/(2 p_r))] / den, and
    dvalue = 2 Re(conj(g) dic_out).
    """
    dic = (du - u * (dp_l / two_p_l + dp_r / two_p_r)) / den
    return 2.0 * (g_conj * dic).real


class _CoherenceTerm:
    """Coherence penalty of one bin against the input noise coherence
    ``target``; None from ``value_and_gradient``/``hessian`` when an output
    noise power is below the guard."""

    def __init__(self, phi_vv, target):
        self.phi_vv = phi_vv
        self.target = target
        self.eps = _noise_eps(phi_vv)
        self.zero = np.zeros(phi_vv.shape[0])
        self._hessian_parts = None

    def _products(self, w_l, w_r):
        products = _noise_products(w_l, w_r, self.phi_vv)
        if products[3] <= self.eps or products[4] <= self.eps:
            return None
        return products

    def value_and_gradient(self, w_l, w_r):
        products = self._products(w_l, w_r)
        if products is None:
            return None
        c_l, c_r, u, p_l, p_r = products
        den = np.sqrt(p_l * p_r)
        ic_out = u / den
        g = ic_out - self.target
        value = float(abs(g) ** 2)
        g_conj = np.conj(g)
        two_p_l, two_p_r = 2 * p_l, 2 * p_r
        zero = self.zero
        # w_l block: du/dRe = c_r, du/dIm = -j c_r; dp_l/dRe = 2 Re c_l, /dIm = 2 Im c_l.
        # w_r block: du/dRe = conj(c_l), du/dIm = +j conj(c_l); dp_r analogous.
        c_l_conj = c_l.conj()
        blocks = (
            (c_r, 2 * c_l.real, zero),
            (-1j * c_r, 2 * c_l.imag, zero),
            (c_l_conj, zero, 2 * c_r.real),
            (1j * c_l_conj, zero, 2 * c_r.imag),
        )
        grad = np.concatenate([
            _ic_partials(u, g_conj, den, two_p_l, two_p_r, du, dp_l, dp_r)
            for du, dp_l, dp_r in blocks
        ])
        return value, grad

    def hessian(self, w_l, w_r):
        products = self._products(w_l, w_r)
        if products is None:
            return None
        c_l, c_r, u, p_l, p_r = products
        if self._hessian_parts is None:
            m = self.zero.size
            quad = 2.0 * _realify(self.phi_vv)
            pl_h = np.zeros((4 * m, 4 * m))
            pl_h[: 2 * m, : 2 * m] = quad
            pr_h = np.zeros((4 * m, 4 * m))
            pr_h[2 * m :, 2 * m :] = quad
            self._hessian_parts = (np.zeros(2 * m), pl_h, pr_h, _u_hessian(self.phi_vv))
        zeros, pl_h, pr_h, u2 = self._hessian_parts
        u_vec = _u_gradient(c_l, c_r)
        pl_vec = np.concatenate([2 * c_l.real, 2 * c_l.imag, zeros])
        pr_vec = np.concatenate([zeros, 2 * c_r.real, 2 * c_r.imag])
        s = 1.0 / np.sqrt(p_l * p_r)
        t_vec = pl_vec / p_l + pr_vec / p_r
        s_vec = -0.5 * s * t_vec
        s_h = (
            np.outer(s_vec, s_vec) / s
            - 0.5 * s * (
                pl_h / p_l - np.outer(pl_vec, pl_vec) / (p_l * p_l)
                + pr_h / p_r - np.outer(pr_vec, pr_vec) / (p_r * p_r)
            )
        )
        ic_vec = u_vec * s + u * s_vec
        ic_h = u2 * s + np.outer(u_vec, s_vec) + np.outer(s_vec, u_vec) + u * s_h
        g = u * s - self.target
        return (
            2.0 * np.outer(ic_vec, ic_vec.conj()).real
            + 2.0 * (np.conj(g) * ic_h).real
        )


def _degenerate(n_params):
    return CostEval(
        value=DEGENERATE_PENALTY, gradient=np.zeros(n_params), degenerate=True
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


def penalty_cue(spec: CostSpec, phi_vv, q_l, q_r, freq_hz, cue_in=None):
    """The input cue a bin's penalty pulls toward, or None if it is unpenalized.

    A bin is penalized exactly when the variant is mwf-itd or mwf-ic,
    alpha > 0, 0 < f <= ``cue_cutoff`` and the input cue (phase for mwf-itd,
    coherence for mwf-ic) is defined.  ``cue_in`` may carry that cue
    precomputed.
    """
    if spec.variant == "mwf" or not spec.alpha > 0.0:
        return None
    if freq_hz <= 0.0 or freq_hz > spec.cue_cutoff:
        return None
    if cue_in is not None:
        return cue_in
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


def _penalty_eval(term, w_l, w_r):
    result = term.value_and_gradient(w_l, w_r)
    if result is None:
        return _degenerate(4 * w_l.size)
    return CostEval(value=result[0], gradient=result[1])


def j_ipd(w_l, w_r, phi_vv, q_l, q_r, ipd_in=None) -> CostEval:
    """Squared wrapped difference between output and input noise phase."""
    if ipd_in is None:
        ipd_in = input_ipd(phi_vv, q_l, q_r)
        if ipd_in is None:
            raise InvalidInputError("input noise phase undefined for this bin")
    return _penalty_eval(_PhaseTerm(phi_vv, ipd_in), w_l, w_r)


def j_ic(w_l, w_r, phi_vv, q_l, q_r, ic_in=None) -> CostEval:
    """Squared modulus of the coherence difference |ic_out - ic_in|^2."""
    if ic_in is None:
        ic_in = input_ic(phi_vv, q_l, q_r)
        if ic_in is None:
            raise InvalidInputError("input noise coherence undefined for this bin")
    return _penalty_eval(_CoherenceTerm(phi_vv, ic_in), w_l, w_r)


def hess_j_w(phi_yy, m):
    """Exact (4M, 4M) Hessian of the Wiener term: block-diagonal per ear."""
    block = 2.0 * _realify(phi_yy)
    out = np.zeros((4 * m, 4 * m))
    out[: 2 * m, : 2 * m] = block
    out[2 * m :, 2 * m :] = block
    return out


def hess_j_ipd(w_l, w_r, phi_vv, q_l, q_r, ipd_in=None):
    """Exact Hessian of the phase penalty, or None on a degenerate bin."""
    if ipd_in is None:
        ipd_in = input_ipd(phi_vv, q_l, q_r)
        if ipd_in is None:
            return None
    return _PhaseTerm(phi_vv, ipd_in).hessian(w_l, w_r)


def hess_j_ic(w_l, w_r, phi_vv, q_l, q_r, ic_in=None):
    """Exact Hessian of the coherence penalty, or None on a degenerate bin."""
    if ic_in is None:
        ic_in = input_ic(phi_vv, q_l, q_r)
        if ic_in is None:
            return None
    return _CoherenceTerm(phi_vv, ic_in).hessian(w_l, w_r)


class BinObjective:
    """The combined objective of one bin, with its invariants built once.

    Construction settles whether the bin is penalized (``penalty_cue``) and
    precomputes everything that does not depend on the filters: Pxx q_e,
    the reference speech power, the noise-power guard and the constant
    Hessian blocks.  Each evaluation then runs the same floating-point
    operations, in the same order, as a fresh ``combined`` or
    ``combined_hessian`` call, so the results are bitwise equal.
    """

    def __init__(self, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz,
                 cue_in=None):
        self.size = 4 * q_l.size
        self.alpha = spec.alpha
        self.wiener = _WienerTerm(phi_xx, phi_yy, q_l, q_r)
        cue = penalty_cue(spec, phi_vv, q_l, q_r, freq_hz, cue_in)
        if cue is None:
            self.penalty = None
        elif spec.variant == "mwf-itd":
            self.penalty = _PhaseTerm(phi_vv, cue)
        else:
            self.penalty = _CoherenceTerm(phi_vv, cue)
        self._flat = np.zeros(self.size)

    def _evaluate(self, w_l, w_r):
        value, grad = self.wiener.value_and_gradient(w_l, w_r)
        if self.penalty is None:
            return value, grad, False
        pen = self.penalty.value_and_gradient(w_l, w_r)
        degenerate = pen is None
        if degenerate:
            pen = (DEGENERATE_PENALTY, self._flat)
        return value + self.alpha * pen[0], grad + self.alpha * pen[1], degenerate

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
    w_l, w_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz, cue_in=None
):
    """Exact Hessian of the combined objective (penalty zero where gated)."""
    objective = BinObjective(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq_hz, cue_in)
    return objective.hessian_at(w_l, w_r)


def combined(
    w_l, w_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec: CostSpec, freq_hz, cue_in=None
) -> CostEval:
    """Variant objective for one bin; penalties gate off above the cutoff.

    ``cue_in`` may carry the precomputed input cue (phase for mwf-itd,
    coherence for mwf-ic).  Bins whose input cue is undefined (e.g. no
    noise) fall back to the Wiener cost alone.  Optimizer loops build a
    :class:`BinObjective` once per bin instead.
    """
    objective = BinObjective(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq_hz, cue_in)
    return objective.evaluate(w_l, w_r)
