"""Per-bin filter optimization: closed-form Wiener, BFGS for penalties.

The Wiener objective has the closed-form minimizer w_e = Pyy^-1 Pxx q_e per
bin.  Penalized variants are minimized with BFGS over the 4M real
parameters, started from the closed form (the alpha -> 0 optimum), using a
strong-Wolfe line search so every accepted step decreases the cost and
keeps the inverse-Hessian update well defined.  Each penalized bin's
objective (``costs.BinObjective``) is built once per solve.

Also provides the weighting-factor machinery: log-grid calibration of alpha
for a bounded worst-ear SNR loss, which returns the solve and metrics made
at the chosen alpha so callers need not solve again, and alpha sweeps
feeding the objective metric table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
# combined_hessian is unused here but stays bound in this module, next to
# combined: perfbench/tracing.py wraps both where the solver binds them.
from .costs import (  # noqa: F401
    BinObjective,
    CostSpec,
    FilterPair,
    combined,
    combined_hessian,
    pack_filters,
    penalty_cue,
    unpack_filters,
)
from .errors import InvalidInputError
from .spatial_stats import CoherenceSet, Selector

_LOADING_REL = 1e-10
# strong-Wolfe constants: sufficient decrease (c1) and curvature (c2)
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9


@dataclass(frozen=True)
class SolverConfig:
    """Quasi-Newton iteration/stopping parameters.

    Convergence is declared when the gradient infinity norm drops below
    ``gradient_tolerance * max(1, |cost|)``.  The line search enforces the
    sufficient-decrease and curvature conditions with the fixed constants
    ``_WOLFE_C1`` = 1e-4 and ``_WOLFE_C2`` = 0.9.
    """

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0:
            raise InvalidInputError("gradient_tolerance must be positive")


def _converged(f, g, cfg: SolverConfig):
    return np.max(np.abs(g)) <= cfg.gradient_tolerance * max(1.0, abs(f))


@dataclass
class SolveResult:
    """Filters plus per-bin diagnostics of one solve."""

    filters: FilterPair
    cost: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    flagged: np.ndarray

    @property
    def nonconverged_fraction(self):
        considered = ~self.flagged
        if not np.any(considered):
            return 0.0
        return float(np.mean(~self.converged[considered]))


@dataclass
class BfgsResult:
    x: np.ndarray
    value: float
    gradient: np.ndarray
    iterations: int
    converged: bool


def _wolfe_line_search(fun, x, p, f0, g0, max_evals=30):
    """Strong Wolfe search along p; returns (alpha, f, g) or None.

    Bracket/zoom scheme with bisection; robust rather than fast, which is
    fine for the small per-bin problems here.
    """
    d0 = float(g0 @ p)
    if d0 >= 0:
        return None

    def phi(alpha):
        f, g = fun(x + alpha * p)
        return f, g, float(g @ p)

    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = 1.0
    evals = 0
    lo = hi = None
    f_lo = d_lo = f_hi_known = None
    while evals < max_evals:
        f, g, d = phi(alpha)
        evals += 1
        if f > f0 + _WOLFE_C1 * alpha * d0 or (evals > 1 and f >= f_prev):
            lo, f_lo, d_lo, hi = alpha_prev, f_prev, d_prev, alpha
            f_hi_known = f
            break
        if abs(d) <= -_WOLFE_C2 * d0:
            return alpha, f, g
        if d >= 0:
            lo, f_lo, d_lo, hi = alpha, f, d, alpha_prev
            f_hi_known = f_prev
            break
        alpha_prev, f_prev, d_prev = alpha, f, d
        alpha *= 2.0
    else:
        return None

    # Zoom: shrink [lo, hi] keeping lo the best sufficient-decrease point.
    best = None
    while evals < max_evals:
        width = hi - lo
        # Quadratic interpolation from (f_lo, d_lo) and f(hi), safeguarded
        # to the central 80% of the bracket; fall back to bisection.
        alpha = None
        if f_hi_known is not None and d_lo is not None:
            denom = 2.0 * (f_hi_known - f_lo - d_lo * width)
            if abs(denom) > 1e-300:
                cand = lo - d_lo * width * width / denom
                if lo + 0.1 * abs(width) <= cand <= hi - 0.1 * abs(width) or (
                    hi < lo and hi + 0.1 * abs(width) <= cand <= lo - 0.1 * abs(width)
                ):
                    alpha = cand
        if alpha is None:
            alpha = 0.5 * (lo + hi)
        f, g, d = phi(alpha)
        evals += 1
        if f > f0 + _WOLFE_C1 * alpha * d0 or f >= f_lo:
            hi, f_hi_known = alpha, f
        else:
            if abs(d) <= -_WOLFE_C2 * d0:
                return alpha, f, g
            best = (alpha, f, g)
            if d * (hi - lo) >= 0:
                hi, f_hi_known = lo, f_lo
            lo, f_lo, d_lo = alpha, f, d
        if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
            break
    # Fall back to the best sufficient-decrease point seen, if any.
    return best


def minimize_bfgs(fun, x0, cfg: SolverConfig, h0=None) -> BfgsResult:
    """Minimize ``fun(x) -> (value, gradient)`` with BFGS from x0.

    ``h0`` seeds the inverse-Hessian approximation (identity by default).
    On a line-search failure the approximation is reset once to the seed
    before giving up, which un-sticks stale curvature information.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    n = x.size
    eye = np.eye(n)
    seed = eye if h0 is None else np.asarray(h0, dtype=float)
    h = seed.copy()
    first_update = h0 is None
    iterations = 0
    restarted = False
    while iterations < cfg.max_iterations:
        if _converged(f, g, cfg):
            return BfgsResult(x, f, g, iterations, True)
        p = -(h @ g)
        if float(p @ g) >= 0:
            h = seed.copy()
            p = -(h @ g)
            if float(p @ g) >= 0:
                p = -g
        step = _wolfe_line_search(fun, x, p, f, g)
        if step is None:
            # near a stationary point cost differences drown in rounding;
            # accept the quasi-Newton step on gradient-norm decrease instead
            f_t, g_t = fun(x + p)
            if (np.isfinite(f_t)
                    and np.max(np.abs(g_t)) < 0.7 * np.max(np.abs(g))
                    and f_t <= f + 1e-9 * max(1.0, abs(f))):
                step = (1.0, f_t, g_t)
            elif restarted:
                break
            else:
                h = seed.copy()
                restarted = True
                iterations += 1
                continue
        restarted = False
        alpha, f_new, g_new = step
        s = alpha * p
        y = g_new - g
        sy = float(s @ y)
        if first_update and sy > 0:
            h *= sy / max(float(y @ y), 1e-300)
            first_update = False
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            hy = h @ y
            # H <- (I - rho s y') H (I - rho y s') + rho s s'
            s_hy = np.outer(s, hy)
            h -= rho * (s_hy + s_hy.T)
            ss = np.outer(s, s)
            h += rho * rho * float(y @ hy) * ss
            h += rho * ss
        x = x + s
        f, g = f_new, g_new
        iterations += 1
    return BfgsResult(x, f, g, iterations, _converged(f, g, cfg))


def _newton_polish(fun, hess_fn, x, f, g, cfg: SolverConfig, max_steps=30):
    """Drive the gradient norm down with damped Newton steps.

    Line-search descent stalls once cost differences reach the float noise
    floor; near the optimum the gradient is still perfectly informative, so
    a few Newton steps on the exact Hessian reach the stated tolerance.
    Steps are accepted only when they shrink the gradient norm without
    measurably increasing the cost.
    """
    best = (x, f, g)
    for _ in range(max_steps):
        if _converged(f, g, cfg):
            best = (x, f, g)
            break
        hess = hess_fn(x)
        if hess is None or not np.all(np.isfinite(hess)):
            break
        vals, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
        floor = max(np.max(np.abs(vals)), 1e-30) * 1e-12
        vals = np.maximum(np.abs(vals), floor)
        step = -(vecs @ ((vecs.T @ g) / vals))
        g_norm = np.max(np.abs(g))
        candidate = None
        for damp in (1.0, 0.5, 0.25, 0.1, 0.03):
            x_t = x + damp * step
            f_t, g_t = fun(x_t)
            # The float-noise valley of f does not bottom out exactly at the
            # stationary point; allow cost ties at the 1e-9 relative level.
            if not np.isfinite(f_t) or f_t > f + 1e-9 * max(1.0, abs(f)):
                continue
            norm_t = np.max(np.abs(g_t))
            if candidate is None or norm_t < candidate[3]:
                candidate = (x_t, f_t, g_t, norm_t)
        # Near the stationary point the iterates hover at the rounding floor
        # of the gradient; ride the oscillation (the cost guard keeps it
        # local) and report the best iterate seen.
        if candidate is None:
            break
        x, f, g = candidate[:3]
        if np.max(np.abs(g)) < np.max(np.abs(best[2])):
            best = (x, f, g)
    x, f, g = best
    return x, f, g, _converged(f, g, cfg)


def _inverse_spd(hess):
    """Inverse of a symmetric matrix with absolute-eigenvalue flooring."""
    if hess is None or not np.all(np.isfinite(hess)):
        return None
    vals, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    top = float(np.max(np.abs(vals)))
    if top <= 0:
        return None
    vals = np.maximum(np.abs(vals), 1e-12 * top)
    inv = (vecs / vals) @ vecs.T
    return 0.5 * (inv + inv.T)


def closed_form_bin(phi_yy, phi_xx, selector: Selector):
    """Wiener filters of one bin, w_e = Pyy^-1 Pxx q_e: (w_l, w_r, flagged).

    Near-singular Pyy receives diagonal loading; a bin where even the loaded
    solve fails keeps the identity filter and is flagged (a bin without
    speech legitimately solves to w = 0 and is not flagged).
    """
    m = phi_yy.shape[0]
    rhs = phi_xx @ np.stack([selector.q_l, selector.q_r], axis=1).astype(complex)
    trace = float(np.trace(phi_yy).real)
    if not np.any(rhs):
        return np.zeros(m, dtype=complex), np.zeros(m, dtype=complex), False
    identity = selector.q_l.astype(complex), selector.q_r.astype(complex), True
    vals = np.linalg.eigvalsh(phi_yy)
    if trace <= 0:
        return identity
    if vals[0] <= 1e-12 * vals[-1]:
        phi_yy = phi_yy + (_LOADING_REL * trace / m) * np.eye(m)
    try:
        sol = np.linalg.solve(phi_yy, rhs)
    except np.linalg.LinAlgError:
        return identity
    if not np.all(np.isfinite(sol)):
        return identity
    w_l, w_r = sol.T.copy()
    return w_l, w_r, False


def mwf_closed_form(phi: CoherenceSet, selector: Selector):
    """Closed-form Wiener filters of every bin (see ``closed_form_bin``)."""
    w = np.zeros((phi.bin_count, 2, phi.mic_count), dtype=complex)
    flagged = np.zeros(phi.bin_count, dtype=bool)
    for k in range(phi.bin_count):
        w[k, 0], w[k, 1], flagged[k] = closed_form_bin(phi.phi_yy[k], phi.phi_xx[k],
                                                       selector)
    return FilterPair(w_l=w[:, 0, :], w_r=w[:, 1, :]), flagged


def solve_bin(spec: CostSpec, phi: CoherenceSet, selector: Selector, k,
              cfg: SolverConfig, w0_l=None, w0_r=None):
    """Optimize one bin; returns (w_l, w_r, diagnostics dict).

    For the plain Wiener variant (or gated-off bins) this is the closed
    form; otherwise BFGS from the closed-form initializer.  A non-finite
    cost flags the bin and returns the initializer.
    """
    freq = float(phi.freqs[k])
    phi_xx, phi_yy, phi_vv = phi.phi_xx[k], phi.phi_yy[k], phi.phi_vv[k]
    q_l, q_r = selector.q_l, selector.q_r

    if w0_l is None or w0_r is None:
        w0_l, w0_r, init_flag = closed_form_bin(phi_yy, phi_xx, selector)
        if init_flag:
            ev = combined(w0_l, w0_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq)
            return w0_l, w0_r, {"cost": ev.value, "iterations": 0,
                                "converged": False, "flagged": True}

    cue_in = penalty_cue(spec, phi_vv, q_l, q_r, freq)
    if cue_in is None:
        ev = combined(w0_l, w0_r, phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq)
        return w0_l, w0_r, {"cost": ev.value, "iterations": 0,
                            "converged": True, "flagged": False}

    # invariants of the bin are built once; each call repeats combined's
    # floating-point operations exactly
    objective = BinObjective(phi_xx, phi_yy, phi_vv, q_l, q_r, spec, freq, cue_in=cue_in)

    starts = [pack_filters(w0_l, w0_r)]
    if spec.variant == "mwf-itd":
        # second start with the right filter rotated onto the target phase:
        # the phase penalty is non-convex and the aligned basin is often the
        # better one at large weights
        u0 = complex(w0_l.conj() @ phi_vv @ w0_r)
        if abs(u0) > 0:
            delta = float(np.angle(np.exp(1j * (cue_in - np.angle(u0)))))
            starts.append(pack_filters(w0_l, w0_r * np.exp(1j * delta)))

    f0, _ = objective(starts[0])
    if not np.isfinite(f0):
        return w0_l, w0_r, {"cost": f0, "iterations": 0,
                            "converged": False, "flagged": True}
    outcome = None
    total_iterations = 0
    for x0 in starts:
        res = minimize_bfgs(objective, x0, cfg, h0=_inverse_spd(objective.hessian(x0)))
        total_iterations += res.iterations
        x_fin, f_fin, g_fin, converged = res.x, res.value, res.gradient, res.converged
        if not converged and np.isfinite(f_fin):
            x_fin, f_fin, g_fin, converged = _newton_polish(
                objective, objective.hessian, x_fin, f_fin, g_fin, cfg
            )
        if not np.isfinite(f_fin):
            continue
        if outcome is None or f_fin < outcome[1] - 1e-12 * max(1.0, abs(f_fin)):
            outcome = (x_fin, f_fin, converged)
    if outcome is None or outcome[1] > f0:
        return w0_l, w0_r, {"cost": f0, "iterations": total_iterations,
                            "converged": False, "flagged": True}
    w_l, w_r = unpack_filters(outcome[0])
    return w_l, w_r, {"cost": outcome[1], "iterations": total_iterations,
                      "converged": outcome[2], "flagged": False}


def solve_all_bins(spec: CostSpec, phi: CoherenceSet, selector: Selector,
                   cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Solve every bin independently and merge results by bin index."""
    k_bins = phi.bin_count
    init, init_flags = mwf_closed_form(phi, selector)
    w_l = np.array(init.w_l, copy=True)
    w_r = np.array(init.w_r, copy=True)
    cost = np.zeros(k_bins)
    iterations = np.zeros(k_bins, dtype=int)
    converged = np.ones(k_bins, dtype=bool)
    flagged = init_flags.copy()
    for k in range(k_bins):
        if flagged[k]:
            converged[k] = False
            continue
        wl, wr, diag = solve_bin(spec, phi, selector, k, cfg,
                                 w0_l=init.w_l[k], w0_r=init.w_r[k])
        w_l[k], w_r[k] = wl, wr
        cost[k] = diag["cost"]
        iterations[k] = diag["iterations"]
        converged[k] = diag["converged"]
        flagged[k] = flagged[k] or diag["flagged"]
    return SolveResult(
        filters=FilterPair(w_l=w_l, w_r=w_r),
        cost=cost,
        iterations=iterations,
        converged=converged,
        flagged=flagged,
    )


@dataclass
class CalibrationResult:
    """Chosen weighting factor, its SNR loss, and the solve made at it.

    ``solve`` and ``report`` are the filters and metrics of the probe at
    ``alpha`` (the alpha = 0 reference solve when ``alpha`` is 0), so a
    caller needs no second solve at the chosen weight.
    """

    alpha: float
    achieved_loss: float
    snr_mwf_db: float
    snr_db: float
    solve: SolveResult
    report: metrics.MetricsReport
    warning: str | None = None


def _probe(variant_spec, phi, selector, scene, solver_cfg, alpha):
    """Solve at ``alpha``; returns (worst-ear SNR in dB, solve, report)."""
    result = solve_all_bins(variant_spec.with_alpha(alpha), phi, selector, solver_cfg)
    report = metrics.evaluate_filters(result.filters, scene, selector,
                                      cue_cutoff=variant_spec.cue_cutoff)
    snr = report.snr_l if scene.worst_ear == "left" else report.snr_r
    return snr, result, report


def calibrate_alpha(spec: CostSpec, phi: CoherenceSet, selector: Selector, scene,
                    solver_cfg: SolverConfig = SolverConfig(), loss_fraction=0.15,
                    grid_lo=1e-3, grid_hi=1e5, grid_points=33, refinements=3):
    """Largest alpha keeping the worst-ear SNR within the allowed dB loss.

    Feasibility means snr(alpha) >= (1 - loss_fraction) * snr(mwf), both in
    dB at the ear nearest the noise.  The log grid is searched by bisection
    (the SNR is monotone in alpha up to solver jitter), then the bracket is
    refined with ``refinements`` log-space bisections.

    Every search below only ever raises its feasible end, so the returned
    alpha is the largest feasible one probed, or 0.  Only that probe's solve
    and report are kept, and they are returned with the result.
    """
    if spec.variant == "mwf":
        raise InvalidInputError("calibration applies to penalized variants only")
    if not np.isfinite(loss_fraction):
        raise InvalidInputError("loss_fraction must be finite")
    if loss_fraction < 0:
        raise InvalidInputError("loss_fraction must be non-negative")
    snr_mwf, *reference = _probe(spec, phi, selector, scene, solver_cfg, 0.0)
    kept = {0.0: reference}  # largest feasible alpha probed -> (solve, report)

    def result(alpha, snr, warning=None):
        return CalibrationResult(alpha=alpha, achieved_loss=1.0 - snr / snr_mwf,
                                 snr_mwf_db=snr_mwf, snr_db=snr,
                                 solve=kept[alpha][0], report=kept[alpha][1],
                                 warning=warning)

    if loss_fraction == 0.0:
        return CalibrationResult(alpha=0.0, achieved_loss=0.0,
                                 snr_mwf_db=snr_mwf, snr_db=snr_mwf,
                                 solve=reference[0], report=reference[1])
    if snr_mwf <= 0:
        raise InvalidInputError("worst-ear reference SNR is not positive; "
                                "cannot express a fractional loss")
    floor = (1.0 - loss_fraction) * snr_mwf

    grid = np.geomspace(grid_lo, grid_hi, grid_points)
    snr_cache = {}

    def feasible(alpha):
        if alpha not in snr_cache:
            snr, *solved = _probe(spec, phi, selector, scene, solver_cfg, alpha)
            snr_cache[alpha] = snr
            if snr >= floor and alpha > max(kept):
                kept.clear()
                kept[alpha] = solved
        return snr_cache[alpha] >= floor

    if feasible(grid[-1]):
        alpha = float(grid[-1])
        return result(alpha, snr_cache[alpha],
                      "grid exhausted: constraint satisfied at the upper bound")
    if not feasible(grid[0]):
        # Penalty already too strong at the lowest grid point: refine toward 0.
        lo, hi = 0.0, float(grid[0])
        for _ in range(refinements):
            mid = 0.5 * (lo + hi)
            if mid == 0.0 or feasible(mid):
                lo = mid
            else:
                hi = mid
        return result(lo, snr_cache.get(lo, snr_mwf),
                      "penalty infeasible at the lowest grid point")

    # Binary search for the feasibility boundary on the grid.
    lo_i, hi_i = 0, grid_points - 1
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if feasible(grid[mid]):
            lo_i = mid
        else:
            hi_i = mid
    lo, hi = float(grid[lo_i]), float(grid[hi_i])
    for _ in range(refinements):
        mid = float(np.sqrt(lo * hi))
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return result(lo, snr_cache[lo])


SWEEP_COLUMNS = ("alpha", "snr_l_db", "snr_r_db", "disnr_l_db", "disnr_r_db",
                 "ditd_s", "ditd_n", "dmsc_s", "dmsc_n")


def alpha_sweep(spec: CostSpec, phi: CoherenceSet, selector: Selector, scene,
                alphas, solver_cfg: SolverConfig = SolverConfig()):
    """One full solve plus metric evaluation per weighting factor.

    Returns a list of dicts with keys ``SWEEP_COLUMNS``, ordered like the
    input alphas.
    """
    alphas = list(alphas)
    if not alphas:
        raise InvalidInputError("alpha list must not be empty")
    rows = []
    for alpha in alphas:
        result = solve_all_bins(spec.with_alpha(float(alpha)), phi, selector, solver_cfg)
        report = metrics.evaluate_filters(result.filters, scene, selector,
                                          cue_cutoff=spec.cue_cutoff)
        rows.append({
            "alpha": float(alpha),
            "snr_l_db": report.snr_l,
            "snr_r_db": report.snr_r,
            "disnr_l_db": report.disnr_l,
            "disnr_r_db": report.disnr_r,
            "ditd_s": report.ditd_s,
            "ditd_n": report.ditd_n,
            "dmsc_s": report.dmsc_s,
            "dmsc_n": report.dmsc_n,
        })
    return rows


def write_sweep_csv(path, rows_by_variant):
    """Write sweep rows as CSV with a leading variant column.

    ``rows_by_variant`` maps variant name to a row list from
    :func:`alpha_sweep`.
    """
    lines = ["variant," + ",".join(SWEEP_COLUMNS)]
    for variant, rows in rows_by_variant.items():
        for row in rows:
            lines.append(variant + "," + ",".join(repr(float(row[c])) for c in SWEEP_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
