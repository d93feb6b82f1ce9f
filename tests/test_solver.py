import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError, solver
from binaural_mwf.costs import (
    BinObjective,
    CostSpec,
    j_w,
    pack_filters,
    unpack_filters,
)
from binaural_mwf.metrics import evaluate_filters, noise_cue_pair, speech_cue_pair
from binaural_mwf.solver import (
    SWEEP_COLUMNS,
    SolverConfig,
    _inverse_spd,
    _lockstep,
    _wolfe_line_search,
    alpha_sweep,
    calibrate_alpha,
    minimize_bfgs,
    mwf_closed_form,
    solve_all_bins,
    write_sweep_csv,
)
from binaural_mwf.spatial_stats import (
    CoherenceSet,
    Selector,
    input_cues,
    output_cues,
    wrap_angle,
)

from conftest import (
    bins_innermost,
    low_rank_psd,
    random_coherence_set,
    random_filters,
    random_psd,
    shrink_cross_power,
)


def one_bin(phi, k):
    """The one-bin CoherenceSet of bin ``k`` of ``phi``."""
    return CoherenceSet(phi_yy=phi.phi_yy[k : k + 1], phi_vv=phi.phi_vv[k : k + 1],
                        phi_xx=phi.phi_xx[k : k + 1], freqs=phi.freqs[k : k + 1])


def laid_out_bins_innermost(phi):
    """``phi`` with Phi_yy and Phi_vv stored bin axis innermost
    (``conftest.bins_innermost``)."""
    return CoherenceSet(phi_yy=bins_innermost(phi.phi_yy), phi_vv=bins_innermost(phi.phi_vv),
                        phi_xx=phi.phi_xx, freqs=phi.freqs)


def coherence_from_mats(phi_xx, phi_vv, freqs):
    phi_xx = np.asarray(phi_xx)[np.newaxis] if phi_xx.ndim == 2 else phi_xx
    phi_vv = np.asarray(phi_vv)[np.newaxis] if phi_vv.ndim == 2 else phi_vv
    return CoherenceSet(
        phi_yy=phi_xx + phi_vv,
        phi_vv=phi_vv,
        phi_xx=phi_xx,
        freqs=np.asarray(freqs, dtype=float),
    )


@pytest.fixture
def sel6():
    return Selector(q_l=np.eye(6)[0].astype(float), q_r=np.eye(6)[3].astype(float))


class TestClosedForm:
    def test_no_speech_suppresses_fully(self, sel6):
        rng = np.random.default_rng(0)
        phi = coherence_from_mats(
            np.zeros((1, 6, 6), dtype=complex), random_psd(rng, 6)[np.newaxis], [500.0]
        )
        filters, flagged = mwf_closed_form(phi, sel6)
        assert not flagged[0]
        np.testing.assert_array_equal(filters.w_l, 0.0)
        np.testing.assert_array_equal(filters.w_r, 0.0)

    def test_no_noise_passes_through(self, sel6):
        rng = np.random.default_rng(1)
        phi_xx = random_psd(rng, 6)
        phi = coherence_from_mats(phi_xx[np.newaxis], np.zeros((1, 6, 6)), [500.0])
        filters, flagged = mwf_closed_form(phi, sel6)
        assert not flagged[0]
        np.testing.assert_allclose(filters.w_l[0], sel6.q_l, atol=1e-8)
        np.testing.assert_allclose(filters.w_r[0], sel6.q_r, atol=1e-8)

    def test_scalar_wiener_gain(self):
        sel = Selector(q_l=np.array([1.0]), q_r=np.array([1.0]))
        sx2, sv2 = 3.0, 1.5
        phi = coherence_from_mats(
            np.array([[[sx2 + 0j]]]), np.array([[[sv2 + 0j]]]), [500.0]
        )
        filters, _ = mwf_closed_form(phi, sel)
        assert filters.w_l[0, 0] == pytest.approx(sx2 / (sx2 + sv2))

    def test_gradient_vanishes_at_solution(self, sel6):
        rng = np.random.default_rng(2)
        phi = random_coherence_set(rng, 6, 8, np.linspace(100, 800, 8))
        filters, flagged = mwf_closed_form(phi, sel6)
        assert not np.any(flagged)
        for k in range(8):
            ev = j_w(
                filters.w_l[k], filters.w_r[k], phi.phi_xx[k], phi.phi_yy[k],
                sel6.q_l, sel6.q_r,
            )
            scale = (
                sel6.q_l @ phi.phi_xx[k] @ sel6.q_l
                + sel6.q_r @ phi.phi_xx[k] @ sel6.q_r
            ).real
            assert np.max(np.abs(ev.gradient)) < 1e-8 * max(1.0, scale)


class TestBfgs:
    def test_converges_to_closed_form_on_quadratics(self, sel6):
        rng = np.random.default_rng(3)
        for trial in range(20):
            phi_xx = random_psd(rng, 6)
            phi_vv = random_psd(rng, 6)
            phi_yy = phi_xx + phi_vv

            def objective(x):
                w_l, w_r = unpack_filters(x)
                ev = j_w(w_l, w_r, phi_xx, phi_yy, sel6.q_l, sel6.q_r)
                return ev.value, ev.gradient

            x0 = rng.standard_normal(24)
            res = minimize_bfgs(objective, x0, SolverConfig())
            assert res.converged
            assert res.iterations < 50
            w_star_l = np.linalg.solve(phi_yy, phi_xx @ sel6.q_l)
            w_star_r = np.linalg.solve(phi_yy, phi_xx @ sel6.q_r)
            w_l, w_r = unpack_filters(res.x)
            ref = max(np.abs(w_star_l).max(), np.abs(w_star_r).max())
            assert np.abs(w_l - w_star_l).max() < 1e-6 * ref
            assert np.abs(w_r - w_star_r).max() < 1e-6 * ref

    def test_non_finite_start_stops_the_lane(self):
        evaluated, hessians = [], []

        def objective(x):
            evaluated.append(x.copy())
            return np.nan, np.ones(x.size)

        res = minimize_bfgs(objective, np.ones(8), SolverConfig(),
                            hessian=lambda x: hessians.append(x) or np.eye(x.size))
        assert len(evaluated) == 1 and not hessians
        assert res.iterations == 0 and not res.converged
        assert np.isnan(res.value) and np.isnan(res.start_value)
        np.testing.assert_array_equal(res.x, np.ones(8))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iterations=0)


def _frozen_wolfe_line_search(fun, x, p, f0, g0, max_evals=30):
    """Frozen copy of the strong-Wolfe search before its zoom lost the
    always-true None tests and its two mirrored bracket tests became one."""
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
        if f > f0 + 1e-4 * alpha * d0 or (evals > 1 and f >= f_prev):
            lo, f_lo, d_lo, hi = alpha_prev, f_prev, d_prev, alpha
            f_hi_known = f
            break
        if abs(d) <= -0.9 * d0:
            return alpha, f, g
        if d >= 0:
            lo, f_lo, d_lo, hi = alpha, f, d, alpha_prev
            f_hi_known = f_prev
            break
        alpha_prev, f_prev, d_prev = alpha, f, d
        alpha *= 2.0
    else:
        return None

    best = None
    while evals < max_evals:
        width = hi - lo
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
        if f > f0 + 1e-4 * alpha * d0 or f >= f_lo:
            hi, f_hi_known = alpha, f
        else:
            if abs(d) <= -0.9 * d0:
                return alpha, f, g
            best = (alpha, f, g)
            if d * (hi - lo) >= 0:
                hi, f_hi_known = lo, f_lo
            lo, f_lo, d_lo = alpha, f, d
        if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
            break
    return best


class TestLineSearchMatchesFrozenCopy:
    """The line search returns exactly what the frozen copy above returns."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        variant=st.sampled_from(["mwf-itd", "mwf-ic"]),
        alpha=st.sampled_from([0.3, 40.0, 1e5]),
        case=st.sampled_from(["generic", "rank-one noise", "near collapse"]),
        direction=st.sampled_from(["-g", "descent", "ascent", "overshoot"]),
        log_length=st.floats(-4.0, 3.0),
        overshoot=st.floats(1.85, 2.0),
        max_evals=st.sampled_from([2, 4, 30]),
    )
    def test_same_step(self, seed, variant, alpha, case, direction, log_length,
                       overshoot, max_evals):
        rng = np.random.default_rng(seed)
        m = 4
        sel = Selector(q_l=np.eye(m)[0], q_r=np.eye(m)[2])
        phi_xx = random_psd(rng, m)
        phi_vv = low_rank_psd(rng, m, 1) if case == "rank-one noise" else random_psd(rng, m)
        objective = BinObjective.of_bin(phi_xx, phi_xx + phi_vv, phi_vv, sel.q_l, sel.q_r,
                                        CostSpec(variant, alpha), 500.0)
        w_l, w_r = random_filters(rng, m)
        if case == "near collapse":
            w_r = shrink_cross_power(w_l, w_r, phi_vv, 1e-3)
        x = pack_filters(w_l, w_r)
        f0, g0 = (v[0] for v in objective(x[None]))
        if direction == "overshoot":
            # a Newton step stretched to just short of its mirror point lowers
            # the cost but turns the slope positive: the bracket opens with
            # hi below lo
            p = -overshoot * (_inverse_spd(objective.hessian(x)) @ g0)
        else:
            p = -g0 if direction == "-g" else rng.standard_normal(x.size)
            if (p @ g0 > 0) == (direction != "ascent"):
                p = -p
            p = p * 10.0**log_length / np.max(np.abs(p))
        # the search is a lane generator: drive it alone, with the slope
        # BFGS hands it, p.g0
        got = _lockstep(lambda x, _: objective(x),
                        [_wolfe_line_search(x, p, f0, float(p @ g0), max_evals)])[0]

        def fun(x):
            values, grads = objective(x[None])
            return float(values[0]), grads[0]

        want = _frozen_wolfe_line_search(fun, x, p, f0, g0, max_evals)
        assert (got is None) == (want is None)
        if want is not None:
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestSolveBin:
    """One bin solved alone, as a one-bin CoherenceSet."""

    def test_alpha_zero_matches_closed_form(self, sel6):
        rng = np.random.default_rng(4)
        phi = random_coherence_set(rng, 6, 3, [300.0, 600.0, 900.0])
        closed, _ = mwf_closed_form(phi, sel6)
        for k in range(3):
            result = solve_all_bins(CostSpec("mwf-ic", 0.0), one_bin(phi, k), sel6)
            w_l, w_r = result.filters.w_l[0], result.filters.w_r[0]
            ref = np.abs(closed.w_l[k]).max()
            assert np.abs(w_l - closed.w_l[k]).max() < 1e-6 * ref
            assert np.abs(w_r - closed.w_r[k]).max() < 1e-6 * ref
            assert result.converged[0]

    def test_penalty_dominance_pins_cues(self, cfg, geometry, selector):
        # huge coherence weight on rank-one-plus-floor noise: output cues
        # must match input cues
        from binaural_mwf.scene import steering_vector

        sv_n = steering_vector(geometry, 45.0, 3.0, cfg)
        sv_s = steering_vector(geometry, 0.0, 0.8, cfg)
        k = 12
        h_n = sv_n.h[k]
        h_s = sv_s.h[k]
        phi_vv = np.outer(h_n, h_n.conj()) + 1e-4 * np.abs(h_n[0]) ** 2 * np.eye(6)
        phi_xx = 2.0 * np.outer(h_s, h_s.conj())
        phi = coherence_from_mats(
            phi_xx[np.newaxis], phi_vv[np.newaxis], [cfg.freqs[k]]
        )
        result = solve_all_bins(CostSpec("mwf-ic", 1e4), phi, selector)
        w_l, w_r = result.filters.w_l[0], result.filters.w_r[0]
        num = np.vdot(w_l, phi_vv @ w_r)
        ipd_out = np.angle(num)
        ipd_in = np.angle(phi_vv[0, 3])
        assert abs(wrap_angle(ipd_out - ipd_in)) < 1e-3

    def test_descent_property(self, phi30, selector):
        from binaural_mwf.costs import combined

        spec = CostSpec("mwf-itd", 3000.0)
        closed, _ = mwf_closed_form(phi30, selector)
        for k in (2, 8, 15, 22):
            result = solve_all_bins(spec, one_bin(phi30, k), selector)
            ev0 = combined(
                closed.w_l[k], closed.w_r[k], phi30.phi_xx[k], phi30.phi_yy[k],
                phi30.phi_vv[k], selector.q_l, selector.q_r, spec, phi30.freqs[k],
            )
            assert result.cost[0] <= ev0.value + 1e-9 * max(1.0, abs(ev0.value))


class TestSolveAllBins:
    def test_mwf_variant_equals_closed_form(self, phi30, selector):
        result = solve_all_bins(CostSpec("mwf"), phi30, selector)
        closed, _ = mwf_closed_form(phi30, selector)
        np.testing.assert_allclose(result.filters.w_l, closed.w_l, atol=1e-12)
        np.testing.assert_allclose(result.filters.w_r, closed.w_r, atol=1e-12)
        assert np.all(result.converged)

    def test_deterministic(self, phi30, selector):
        a = solve_all_bins(CostSpec("mwf-ic", 50.0), phi30, selector)
        b = solve_all_bins(CostSpec("mwf-ic", 50.0), phi30, selector)
        np.testing.assert_array_equal(a.filters.w_l, b.filters.w_l)
        np.testing.assert_array_equal(a.filters.w_r, b.filters.w_r)
        np.testing.assert_array_equal(a.cost, b.cost)

    def test_high_bins_keep_closed_form_under_penalty(self, phi30, selector, cfg):
        result = solve_all_bins(CostSpec("mwf-ic", 5.0), phi30, selector)
        closed, _ = mwf_closed_form(phi30, selector)
        high = cfg.freqs > 1500.0
        np.testing.assert_allclose(
            result.filters.w_l[high], closed.w_l[high], atol=1e-12
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        variant=st.sampled_from(["mwf-itd", "mwf-ic"]),
        alpha=st.sampled_from([0.3, 40.0, 1e3]),
        order=st.permutations(range(6)),
        max_iterations=st.sampled_from([2, 5, 500]),
    )
    def test_bin_permutation_commutes(self, seed, variant, alpha, order, max_iterations):
        # bins are solved independently: 0 Hz and the two bins above the
        # 1500 Hz cutoff keep the closed form, the other three are penalized.
        # A small iteration limit leaves most lanes to the Newton polish,
        # whose rounds then share the drive with other lanes' BFGS rounds.
        rng = np.random.default_rng(seed)
        phi = random_coherence_set(rng, 4, 6, np.array([0.0, 250.0, 750.0, 1500.0,
                                                        2000.0, 4000.0]))
        sel = Selector(q_l=np.eye(4)[0], q_r=np.eye(4)[2])
        order = np.array(order)
        permuted = CoherenceSet(phi_yy=phi.phi_yy[order], phi_vv=phi.phi_vv[order],
                                phi_xx=phi.phi_xx[order], freqs=phi.freqs[order])
        spec = CostSpec(variant, alpha)
        cfg = SolverConfig(max_iterations=max_iterations)
        base = solve_all_bins(spec, phi, sel, cfg)
        moved = solve_all_bins(spec, permuted, sel, cfg)
        for got, want in ((moved.filters.w_l, base.filters.w_l),
                          (moved.filters.w_r, base.filters.w_r),
                          (moved.cost, base.cost), (moved.iterations, base.iterations),
                          (moved.converged, base.converged),
                          (moved.flagged, base.flagged)):
            assert np.array_equal(got, want[order])
        assert np.any(base.iterations > 0)
        # a solve's bits do not depend on the memory layout of its inputs
        laid_out = solve_all_bins(spec, laid_out_bins_innermost(phi), sel, cfg)
        for got, want in ((laid_out.filters.w_l, base.filters.w_l),
                          (laid_out.filters.w_r, base.filters.w_r),
                          (laid_out.cost, base.cost),
                          (laid_out.iterations, base.iterations),
                          (laid_out.converged, base.converged),
                          (laid_out.flagged, base.flagged)):
            assert got.tobytes() == want.tobytes()
        # lanes do not talk to each other: each bin solved alone gives the
        # bits it gets in the full solve
        for k in range(phi.bin_count):
            alone = solve_all_bins(spec, one_bin(phi, k), sel, cfg)
            for got, want in ((alone.filters.w_l, base.filters.w_l),
                              (alone.filters.w_r, base.filters.w_r),
                              (alone.cost, base.cost), (alone.iterations, base.iterations),
                              (alone.converged, base.converged),
                              (alone.flagged, base.flagged)):
                assert got[0].tobytes() == want[k].tobytes()

    @pytest.mark.parametrize("variant", ["mwf-itd", "mwf-ic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bin_flagged_alone(self, variant, bad):
        # an entry of bin 2's Phi_vv away from the reference microphones and
        # the diagonal leaves its cue defined and its closed-form cost not
        # finite; the other bins solve to the same bits
        phi = random_coherence_set(np.random.default_rng(5), 4, 4,
                                   np.array([250.0, 500.0, 750.0, 1000.0]))
        sel = Selector(q_l=np.eye(4)[0], q_r=np.eye(4)[2])
        spec = CostSpec(variant, 40.0)
        base = solve_all_bins(spec, phi, sel)
        phi_vv = phi.phi_vv.copy()
        phi_vv[2, 1, 3] = bad
        broken = solve_all_bins(spec, CoherenceSet(phi_yy=phi.phi_yy, phi_vv=phi_vv,
                                                   phi_xx=phi.phi_xx, freqs=phi.freqs), sel)
        assert not base.flagged[2] and base.iterations[2] > 0
        assert broken.flagged[2] and not broken.converged[2]
        assert broken.iterations[2] == 0 and not np.isfinite(broken.cost[2])
        others = np.arange(4) != 2
        for got, want in ((broken.filters.w_l, base.filters.w_l),
                          (broken.filters.w_r, base.filters.w_r),
                          (broken.cost, base.cost), (broken.iterations, base.iterations),
                          (broken.converged, base.converged),
                          (broken.flagged, base.flagged)):
            assert got[others].tobytes() == want[others].tobytes()

    def test_mwf_output_noise_inherits_speech_cues(
        self, scene30, phi30, mwf30, selector, cfg
    ):
        # theoretical distortion that the penalties correct: closed-form
        # residual noise carries the speech phase on speech-dominant bins
        cues_s_in, _ = speech_cue_pair(mwf30.filters, scene30, selector)
        _, cues_n_out = noise_cue_pair(mwf30.filters, scene30, selector)
        speech_power = np.einsum(
            "k,k->k",
            np.abs(
                np.einsum("mtk,mtk->k", scene30.x.data, scene30.x.data.conj())
            ),
            np.ones(cfg.bin_count),
        ).real
        noise_power = np.abs(
            np.einsum("mtk,mtk->k", scene30.v.data, scene30.v.data.conj())
        ).real
        dominant = (
            cues_s_in.valid & cues_n_out.valid & (speech_power > noise_power)
        )
        assert np.count_nonzero(dominant) >= 5
        dev = np.abs(wrap_angle(cues_n_out.ipd[dominant] - cues_s_in.ipd[dominant]))
        assert np.max(dev) < 0.05


@pytest.fixture
def probed_alphas(monkeypatch):
    """Every alpha the solver module's solve_all_bins receives, in order."""
    seen = []
    solve = solver.solve_all_bins

    def recording(spec, *args, **kwargs):
        seen.append(spec.alpha)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_all_bins", recording)
    return seen


def assert_calibration_solve(cal, spec, phi, selector, scene):
    """The calibration's solve and report are those of a fresh solve at its alpha."""
    direct = solve_all_bins(spec.with_alpha(cal.alpha), phi, selector)
    np.testing.assert_array_equal(cal.solve.filters.w_l, direct.filters.w_l)
    np.testing.assert_array_equal(cal.solve.filters.w_r, direct.filters.w_r)
    for name in ("cost", "iterations", "converged", "flagged"):
        np.testing.assert_array_equal(getattr(cal.solve, name), getattr(direct, name))
    report = evaluate_filters(direct.filters, scene, selector)
    assert cal.report.to_dict() == report.to_dict()
    worst = report.snr_l if scene.worst_ear == "left" else report.snr_r
    assert cal.snr_db == worst


class TestCalibration:
    # The tests pin every alpha the search probes, in order and with repeats,
    # so a change to the search shows even where the chosen alpha holds.

    def test_zero_loss_fraction_returns_zero_alpha(self, phi30, selector, scene30,
                                                   probed_alphas):
        cal = calibrate_alpha(
            CostSpec("mwf-ic"), phi30, selector, scene30, loss_fraction=0.0
        )
        assert probed_alphas == [0.0]
        assert cal.alpha == 0.0
        assert cal.achieved_loss == 0.0
        assert_calibration_solve(cal, CostSpec("mwf-ic"), phi30, selector, scene30)

    def test_grid_top_returns_its_solve(self, phi30, selector, scene30, probed_alphas):
        spec = CostSpec("mwf-itd")
        cal = calibrate_alpha(spec, phi30, selector, scene30)
        assert probed_alphas == [0.0, 1e5]
        assert cal.warning.startswith("grid exhausted")
        assert cal.alpha == 1e5
        assert_calibration_solve(cal, spec, phi30, selector, scene30)

    @pytest.mark.parametrize("loss", [1e-9, 1e-5])
    def test_infeasible_lowest_grid_point_returns_its_solve(
        self, phi30, selector, scene30, loss, probed_alphas
    ):
        # 1e-9 refines [0, 1e-3] down to alpha = 0; 1e-5 keeps alpha = 5e-4
        spec = CostSpec("mwf-ic")
        cal = calibrate_alpha(spec, phi30, selector, scene30, loss_fraction=loss)
        refined = {1e-9: [5e-4, 2.5e-4, 1.25e-4], 1e-5: [5e-4, 7.5e-4, 6.25e-4]}[loss]
        assert probed_alphas == [0.0, 1e5, 1e-3, *refined]
        assert cal.warning == "penalty infeasible at the lowest grid point"
        assert cal.alpha == {1e-9: 0.0, 1e-5: 5e-4}[loss]
        assert_calibration_solve(cal, spec, phi30, selector, scene30)

    def test_mwf_variant_rejected(self, phi30, selector, scene30):
        with pytest.raises(InvalidInputError):
            calibrate_alpha(CostSpec("mwf"), phi30, selector, scene30)

    def test_closed_loop_loss_in_window(self, phi30, selector, scene30, probed_alphas):
        cal = calibrate_alpha(CostSpec("mwf-ic"), phi30, selector, scene30)
        assert probed_alphas == [0.0, 1e5, 1e-3, 10.0, 1e3, 100.0, 31.622776601683793,
                                 56.23413251903491, 42.169650342858226,
                                 48.696752516586315, 52.32991146814947]
        assert cal.warning is None
        assert 0.13 <= cal.achieved_loss <= 0.15
        assert cal.alpha > 0
        assert_calibration_solve(cal, CostSpec("mwf-ic"), phi30, selector, scene30)


class TestSweep:
    def test_single_zero_alpha_reproduces_mwf(self, phi30, selector, scene30, mwf30):
        rows = alpha_sweep(CostSpec("mwf-ic"), phi30, selector, scene30, [0.0])
        report = evaluate_filters(mwf30.filters, scene30, selector)
        assert rows[0]["alpha"] == 0.0
        assert rows[0]["snr_r_db"] == pytest.approx(report.snr_r, abs=1e-9)
        assert rows[0]["ditd_n"] == pytest.approx(report.ditd_n, abs=1e-12)

    def test_snr_trend_nonincreasing(self, phi30, selector, scene30):
        rows = alpha_sweep(
            CostSpec("mwf-ic"), phi30, selector, scene30, [0.0, 5.0, 50.0, 500.0]
        )
        worst = [r["snr_r_db"] for r in rows]
        for a, b in zip(worst, worst[1:]):
            assert b <= a + 0.5

    def test_empty_alphas_rejected(self, phi30, selector, scene30):
        with pytest.raises(InvalidInputError):
            alpha_sweep(CostSpec("mwf-ic"), phi30, selector, scene30, [])

    def test_csv_columns_exact(self, tmp_path, phi30, selector, scene30):
        rows = alpha_sweep(CostSpec("mwf-ic"), phi30, selector, scene30, [0.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, {"mwf-ic": rows})
        header = path.read_text().split("\n")[0]
        assert header == "variant," + ",".join(SWEEP_COLUMNS)
        assert SWEEP_COLUMNS == (
            "alpha", "snr_l_db", "snr_r_db", "disnr_l_db", "disnr_r_db",
            "ditd_s", "ditd_n", "dmsc_s", "dmsc_n",
        )
