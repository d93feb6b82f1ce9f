"""Per-bin filter optimization: closed-form Wiener, BFGS for penalties.

The Wiener objective has the closed-form minimizer w_e = Pyy^-1 Pxx q_e per
bin.  Penalized variants are minimized with BFGS over the 4M real
parameters, started from the closed form (the alpha -> 0 optimum), using a
strong-Wolfe line search so every accepted step decreases the cost and
keeps the inverse-Hessian update well defined.

All penalized bins of a solve are optimized in lockstep.  Every (bin,
start) pair is a lane, one generator from start to polish: it evaluates
its start (a non-finite cost stops it there), seeds its inverse-Hessian
approximation from the exact Hessian, runs BFGS and, if BFGS stops
unconverged at a finite cost, takes Newton steps.  A lane yields each
point it needs evaluated and receives (value, gradient); one
``minimize_bfgs`` drive per solve sends all lanes' pending points through
one call of the stacked objective (``costs.BinObjective``) per round.  A
lane's floating-point operations are those of the bin solved alone, so the
lockstep changes no result.

Also provides the weighting-factor machinery: log-grid calibration of alpha
for a bounded worst-ear SNR loss, which returns the solve and metrics made
at the chosen alpha so callers need not solve again, and alpha sweeps
feeding the objective metric table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import metrics
# combined_hessian is unused here but stays bound in this module, next to
# combined: perfbench/tracing.py wraps both where the solver binds them.
from .costs import (  # noqa: F401
    BinObjective,
    CostSpec,
    FilterPair,
    _gapped,
    combined,
    combined_hessian,
    pack_filters,
    penalty_cue,
    unpack_filters,
)
from .errors import InvalidInputError, require_finite
from .spatial_stats import CoherenceSet, Selector
from .wavio import write_csv

_LOADING_REL = 1e-10
# strong-Wolfe constants: sufficient decrease (c1) and curvature (c2)
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9

# the paper's operating point: at most 15% worst-ear SNR loss against mwf
DEFAULT_LOSS_FRACTION = 0.15


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
        require_finite(self, "gradient_tolerance")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0:
            raise InvalidInputError("gradient_tolerance must be positive")


def _converged(f, g_max, cfg: SolverConfig):
    """Stopping test on the cost and the gradient's infinity norm ``g_max``."""
    return g_max <= cfg.gradient_tolerance * max(1.0, abs(f))


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
    iterations: int
    converged: bool
    start_value: float  # the cost at the lane's start


def _lockstep(fun, lanes):
    """Run lane generators in lockstep; returns each lane's return value.

    A lane yields the point it needs evaluated and is sent its (value,
    gradient).  Each round evaluates the pending points of all lanes in one
    ``fun(x, active)`` call, ``x`` stacking the points of the ``active``
    lanes (indices into ``lanes``, ascending) as rows.
    """
    results = [None] * len(lanes)
    points = {}

    def advance(i, sent):
        try:
            points[i] = lanes[i].send(sent)
        except StopIteration as stop:
            points.pop(i, None)
            results[i] = stop.value

    for i in range(len(lanes)):
        advance(i, None)
    while points:
        active = tuple(points)
        values, grads = fun(np.array([points[i] for i in active]), active)
        for i, value, grad in zip(active, values, grads):
            advance(i, (float(value), grad))
    return results


def _wolfe_line_search(x, p, f0, d0, max_evals=30):
    """Strong Wolfe search along p from x, where the cost is f0 and its
    slope along p is d0; a lane generator returning (alpha, f, g) or None.

    Bracket/zoom scheme with bisection; robust rather than fast, which is
    fine for the small per-bin problems here.
    """
    if d0 >= 0:
        return None

    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = 1.0
    evals = 0
    while evals < max_evals:
        f, g = yield x + alpha * p
        d = float(g @ p)
        evals += 1
        if f > f0 + _WOLFE_C1 * alpha * d0 or (evals > 1 and f >= f_prev):
            lo, f_lo, d_lo, hi, f_hi = alpha_prev, f_prev, d_prev, alpha, f
            break
        if abs(d) <= -_WOLFE_C2 * d0:
            return alpha, f, g
        if d >= 0:
            lo, f_lo, d_lo, hi, f_hi = alpha, f, d, alpha_prev, f_prev
            break
        alpha_prev, f_prev, d_prev = alpha, f, d
        alpha *= 2.0
    else:
        return None

    # Zoom: shrink the bracket keeping lo the best sufficient-decrease point.
    best = None
    while evals < max_evals:
        width = hi - lo
        # Quadratic interpolation from (f_lo, d_lo) and f(hi), safeguarded
        # to the central 80% of the bracket; fall back to bisection.
        alpha = 0.5 * (lo + hi)
        denom = 2.0 * (f_hi - f_lo - d_lo * width)
        if abs(denom) > 1e-300:
            cand = lo - d_lo * width * width / denom
            if min(lo, hi) + 0.1 * abs(width) <= cand <= max(lo, hi) - 0.1 * abs(width):
                alpha = cand
        f, g = yield x + alpha * p
        d = float(g @ p)
        evals += 1
        if f > f0 + _WOLFE_C1 * alpha * d0 or f >= f_lo:
            hi, f_hi = alpha, f
        else:
            if abs(d) <= -_WOLFE_C2 * d0:
                return alpha, f, g
            best = (alpha, f, g)
            if d * (hi - lo) >= 0:
                hi, f_hi = lo, f_lo
            lo, f_lo, d_lo = alpha, f, d
        if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
            break
    # Fall back to the best sufficient-decrease point seen, if any.
    return best


def _bfgs(x, cfg: SolverConfig, hessian=None):
    """One lane from x as a generator returning a BfgsResult (see
    ``minimize_bfgs``); ``iterations`` counts the BFGS iterations alone."""
    x = np.asarray(x, dtype=float).copy()
    f0, g = yield x
    if not np.isfinite(f0):
        return BfgsResult(x, f0, 0, False, f0)
    f = f0
    g_max = np.abs(g).max()
    h0 = None if hessian is None else _inverse_spd(hessian(x))
    seed = np.eye(x.size) if h0 is None else h0
    h = seed.copy()
    first_update = h0 is None
    iterations = 0
    restarted = False
    while iterations < cfg.max_iterations:
        if _converged(f, g_max, cfg):
            return BfgsResult(x, f, iterations, True, f0)
        p = -(h @ g)
        slope = float(p @ g)
        if slope >= 0:
            h = seed.copy()
            p = -(h @ g)
            slope = float(p @ g)
        step = yield from _wolfe_line_search(x, p, f, slope)
        g_new_max = None
        if step is None:
            # near a stationary point cost differences drown in rounding;
            # accept the quasi-Newton step on gradient-norm decrease instead
            f_t, g_t = yield x + p
            if np.isfinite(f_t):
                g_new_max = np.abs(g_t).max()
            if (g_new_max is not None
                    and g_new_max < 0.7 * g_max
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
        # the Euclidean norms and outer products as np.linalg.norm and
        # np.outer form them, without their per-call overhead
        if sy > 1e-10 * np.sqrt(s.dot(s)) * np.sqrt(y.dot(y)):
            rho = 1.0 / sy
            hy = h @ y
            # H <- (I - rho s y') H (I - rho y s') + rho s s'
            s_hy = s[:, None] * hy
            h -= rho * (s_hy + s_hy.T)
            ss = s[:, None] * s
            h += rho * rho * float(y @ hy) * ss
            h += rho * ss
        x = x + s
        f, g = f_new, g_new
        g_max = np.abs(g).max() if g_new_max is None else g_new_max
        iterations += 1
    converged = _converged(f, g_max, cfg)
    if hessian is not None and not converged and np.isfinite(f):
        x, f, converged = yield from _newton_polish(hessian, x, f, g, cfg)
    return BfgsResult(x, f, iterations, converged, f0)


def minimize_bfgs(fun, x0, cfg: SolverConfig, hessian=None):
    """Minimize with BFGS from x0: one lane, or a stack of lanes in lockstep.

    One lane: ``fun(x) -> (value, gradient)`` and ``x0`` a vector; returns a
    BfgsResult.  A stack: ``x0`` holds one start per row,
    ``fun(x, lanes) -> (values, gradients)`` evaluates the rows of ``x`` for
    the listed lanes, and a list of BfgsResults is returned.  Every lane
    runs the same iteration and starts itself: it first evaluates its x0,
    whose cost it keeps as ``start_value``, and stops there, unconverged
    after 0 iterations, if that cost is not finite.

    ``hessian``, the exact Hessian (``hessian(x)`` for one lane,
    ``hessian(x, lane)`` for a stack), seeds a lane's inverse-Hessian
    approximation (else the identity, scaled at the first update) and
    Newton-polishes a lane that BFGS leaves unconverged at a finite cost.
    A non-descent direction resets the approximation to the seed; so does a
    failed line search, once before giving up, which un-sticks stale
    curvature information.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        def stacked(x, _):
            f, g = fun(x[0])
            return [f], [g]

        return _lockstep(stacked, [_bfgs(x0, cfg, hessian)])[0]
    return _lockstep(fun, [
        _bfgs(x, cfg, None if hessian is None else functools.partial(hessian, lane=j))
        for j, x in enumerate(x0)])


def _newton_polish(hessian, x, f, g, cfg: SolverConfig):
    """Drive the gradient norm down with at most 30 damped Newton steps; a
    lane generator returning (x, f, converged).

    Line-search descent stalls once cost differences reach the float noise
    floor; near the optimum the gradient is still perfectly informative, so
    a few Newton steps on the exact Hessian reach the stated tolerance.
    Steps are accepted only when they shrink the gradient norm without
    measurably increasing the cost.
    """
    g_max = np.abs(g).max()
    best = (x, f, g, g_max)
    for _ in range(30):
        if _converged(f, g_max, cfg):
            best = (x, f, g, g_max)
            break
        eig = _floored_eigh(hessian(x))
        if eig is None:
            break
        vals, vecs = eig
        step = -(vecs @ ((vecs.T @ g) / vals))
        candidate = None
        for damp in (1.0, 0.5, 0.25, 0.1, 0.03):
            x_t = x + damp * step
            f_t, g_t = yield x_t
            # The float-noise valley of f does not bottom out exactly at the
            # stationary point; allow cost ties at the 1e-9 relative level.
            if not np.isfinite(f_t) or f_t > f + 1e-9 * max(1.0, abs(f)):
                continue
            norm_t = np.abs(g_t).max()
            if candidate is None or norm_t < candidate[3]:
                candidate = (x_t, f_t, g_t, norm_t)
        # Near the stationary point the iterates hover at the rounding floor
        # of the gradient; ride the oscillation (the cost guard keeps it
        # local) and report the best iterate seen.
        if candidate is None:
            break
        x, f, g, g_max = candidate
        if g_max < best[3]:
            best = candidate
    x, f, _, g_max = best
    return x, f, _converged(f, g_max, cfg)


def _floored_eigh(hess):
    """(|eigenvalues| floored at 1e-12 of the largest, eigenvectors) of the
    symmetric part of ``hess``; None if it is not finite or is zero."""
    if not np.all(np.isfinite(hess)):
        return None
    vals, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    top = float(np.max(np.abs(vals)))
    if top <= 0:
        return None
    return np.maximum(np.abs(vals), 1e-12 * top), vecs


def _inverse_spd(hess):
    """Inverse of a symmetric matrix with absolute-eigenvalue flooring."""
    eig = _floored_eigh(hess)
    if eig is None:
        return None
    vals, vecs = eig
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


def _starts(spec: CostSpec, cue, w0_l, w0_r, phi_vv):
    """BFGS starts of a penalized bin: its closed form, and for mwf-itd the
    closed form with the right filter rotated onto the target phase (the
    phase penalty is non-convex and the aligned basin is often the better
    one at large weights)."""
    starts = [pack_filters(w0_l, w0_r)]
    if spec.variant == "mwf-itd":
        # a gapped Phi keeps numpy off BLAS: the bits do not depend on its layout
        u0 = complex(w0_l.conj() @ _gapped(phi_vv)[:, ::2] @ w0_r)
        if abs(u0) > 0:
            delta = float(np.angle(np.exp(1j * (cue - np.angle(u0)))))
            starts.append(pack_filters(w0_l, w0_r * np.exp(1j * delta)))
    return starts


def solve_all_bins(spec: CostSpec, phi: CoherenceSet, selector: Selector,
                   cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Solve every bin independently and merge results by bin index.

    Every bin starts from its closed form (``closed_form_bin``), the
    alpha -> 0 optimum, and a bin without a penalty (the plain Wiener
    variant, or a gated-off bin) keeps it.  The penalized bins are
    optimized together in one ``minimize_bfgs`` drive: each (bin, start)
    pair is a lane that starts itself, and every round of the lockstep
    evaluates all lanes' pending points in one call of the stacked
    objective.  A lane's floating-point operations do not depend on the
    other lanes, so each bin's result is that of a solve of the bin alone.
    A non-finite start cost stops its lane.  A bin is flagged and keeps its
    closed form when the cost there is not finite, when no lane ends at a
    finite cost, or when the best outcome is costlier than the closed form.
    """
    k_bins = phi.bin_count
    init, init_flags = mwf_closed_form(phi, selector)
    w_l = np.array(init.w_l, copy=True)
    w_r = np.array(init.w_r, copy=True)
    cost = np.zeros(k_bins)
    iterations = np.zeros(k_bins, dtype=int)
    converged = ~init_flags
    flagged = init_flags.copy()
    q_l, q_r = selector.q_l, selector.q_r
    lane_bins, cues, starts = [], [], []
    for k in np.flatnonzero(~flagged):
        freq = float(phi.freqs[k])
        phi_xx, phi_yy, phi_vv = phi.phi_xx[k], phi.phi_yy[k], phi.phi_vv[k]
        cue = penalty_cue(spec, phi_vv, q_l, q_r, freq)
        if cue is None:
            cost[k] = combined(init.w_l[k], init.w_r[k], phi_xx, phi_yy, phi_vv,
                               q_l, q_r, spec, freq).value
            continue
        for x0 in _starts(spec, cue, init.w_l[k], init.w_r[k], phi_vv):
            lane_bins.append(k)
            cues.append(cue)
            starts.append(x0)
    if lane_bins:
        lanes = np.array(lane_bins)
        objective = BinObjective(phi.phi_xx[lanes], phi.phi_yy[lanes], phi.phi_vv[lanes],
                                 q_l, q_r, spec, cues)
        results = minimize_bfgs(objective, np.array(starts), cfg, objective.hessian)
        for group in np.split(np.arange(lanes.size), np.flatnonzero(np.diff(lanes)) + 1):
            k = lane_bins[group[0]]
            f0 = results[group[0]].start_value
            outcome = None
            for res in (results[j] for j in group):
                iterations[k] += res.iterations
                if not np.isfinite(res.value):
                    continue
                if (outcome is None
                        or res.value < outcome.value - 1e-12 * max(1.0, abs(res.value))):
                    outcome = res
            if not np.isfinite(f0) or outcome is None or outcome.value > f0:
                cost[k], converged[k], flagged[k] = f0, False, True
            else:
                w_l[k], w_r[k] = unpack_filters(outcome.x)
                cost[k], converged[k] = outcome.value, outcome.converged
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


def check_loss_fraction(loss_fraction):
    """Reject a worst-ear SNR loss fraction that is not finite and >= 0."""
    if not (np.isfinite(loss_fraction) and loss_fraction >= 0):
        raise InvalidInputError("loss_fraction must be finite and non-negative")


def calibrate_alpha(spec: CostSpec, phi: CoherenceSet, selector: Selector, scene,
                    solver_cfg: SolverConfig = SolverConfig(),
                    loss_fraction=DEFAULT_LOSS_FRACTION,
                    grid_lo=1e-3, grid_hi=1e5, grid_points=33, refinements=3):
    """Largest alpha keeping the worst-ear SNR within the allowed dB loss.

    Feasibility means snr(alpha) >= (1 - loss_fraction) * snr(mwf), both in
    dB at the ear nearest the noise.  The log grid is searched by bisection
    (the SNR is monotone in alpha up to solver jitter), then the bracket is
    refined with ``refinements`` log-space bisections.  If the lowest grid
    point is infeasible, arithmetic bisections refine [0, grid_lo] instead:
    alpha = 0 is the reference solve, which loses nothing, so it is feasible.

    Every probe lies above the largest feasible alpha so far, so one record,
    the alpha = 0 reference at first, keeps the latest feasible probe; its
    alpha, SNR, solve and report are returned, so callers need not re-solve.
    """
    if spec.variant == "mwf":
        raise InvalidInputError("calibration applies to penalized variants only")
    check_loss_fraction(loss_fraction)
    snr_mwf, *reference = _probe(spec, phi, selector, scene, solver_cfg, 0.0)
    if loss_fraction == 0.0:
        return CalibrationResult(alpha=0.0, achieved_loss=0.0,
                                 snr_mwf_db=snr_mwf, snr_db=snr_mwf,
                                 solve=reference[0], report=reference[1])
    if not (np.isfinite(snr_mwf) and snr_mwf > 0):
        raise InvalidInputError("worst-ear reference SNR is not finite and positive; "
                                "cannot express a fractional loss")
    floor = (1.0 - loss_fraction) * snr_mwf
    best = [0.0, snr_mwf, *reference]  # largest feasible alpha probed, its outcome

    def feasible(alpha):
        snr, *solved = _probe(spec, phi, selector, scene, solver_cfg, alpha)
        if snr >= floor:
            best[:] = [alpha, snr, *solved]
        return snr >= floor

    def refine(lo, hi, midpoint):
        for _ in range(refinements):
            mid = midpoint(lo, hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid

    def result(warning=None):
        alpha, snr, solve, report = best
        return CalibrationResult(alpha=float(alpha), achieved_loss=1.0 - snr / snr_mwf,
                                 snr_mwf_db=snr_mwf, snr_db=snr, solve=solve,
                                 report=report, warning=warning)

    grid = np.geomspace(grid_lo, grid_hi, grid_points)
    if feasible(grid[-1]):
        return result("grid exhausted: constraint satisfied at the upper bound")
    if not feasible(grid[0]):
        refine(0.0, float(grid[0]), lambda lo, hi: 0.5 * (lo + hi))
        return result("penalty infeasible at the lowest grid point")

    # Binary search for the feasibility boundary on the grid.
    lo_i, hi_i = 0, grid_points - 1
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if feasible(grid[mid]):
            lo_i = mid
        else:
            hi_i = mid
    refine(float(grid[lo_i]), float(grid[hi_i]), lambda lo, hi: float(np.sqrt(lo * hi)))
    return result()


# sweep column -> MetricsReport field; the first column is the probe's alpha
_SWEEP_FIELDS = {"snr_l_db": "snr_l", "snr_r_db": "snr_r", "disnr_l_db": "disnr_l",
                 "disnr_r_db": "disnr_r", "ditd_s": "ditd_s", "ditd_n": "ditd_n",
                 "dmsc_s": "dmsc_s", "dmsc_n": "dmsc_n"}
SWEEP_COLUMNS = ("alpha", *_SWEEP_FIELDS)


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
        _, _, report = _probe(spec, phi, selector, scene, solver_cfg, float(alpha))
        row = {"alpha": float(alpha)}
        row.update((col, getattr(report, f)) for col, f in _SWEEP_FIELDS.items())
        rows.append(row)
    return rows


def write_sweep_csv(path, rows_by_variant):
    """Write sweep rows as CSV with a leading variant column.

    ``rows_by_variant`` maps variant name to a row list from
    :func:`alpha_sweep`.
    """
    write_csv(path, ("variant", *SWEEP_COLUMNS),
              ([variant, *(row[c] for c in SWEEP_COLUMNS)]
               for variant, rows in rows_by_variant.items() for row in rows))
