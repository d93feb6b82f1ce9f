import numpy as np
import pytest

from binaural_mwf import InvalidInputError
from binaural_mwf.costs import CostSpec, FilterPair, j_w, pack_filters, unpack_filters
from binaural_mwf.metrics import evaluate_filters, noise_cue_pair, speech_cue_pair
from binaural_mwf.solver import (
    SWEEP_COLUMNS,
    SolverConfig,
    alpha_sweep,
    calibrate_alpha,
    minimize_bfgs,
    mwf_closed_form,
    solve_all_bins,
    solve_bin,
    write_sweep_csv,
)
from binaural_mwf.spatial_stats import (
    CoherenceSet,
    Selector,
    input_cues,
    output_cues,
    wrap_angle,
)

from conftest import random_coherence_set, random_psd


def coherence_from_mats(phi_xx, phi_vv, freqs):
    phi_xx = np.asarray(phi_xx)[np.newaxis] if phi_xx.ndim == 2 else phi_xx
    phi_vv = np.asarray(phi_vv)[np.newaxis] if phi_vv.ndim == 2 else phi_vv
    return CoherenceSet(
        phi_yy=phi_xx + phi_vv,
        phi_vv=phi_vv,
        phi_xx=phi_xx,
        freqs=np.asarray(freqs, dtype=float),
        frames_speech=100,
        frames_noise=100,
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

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iterations=0)


class TestSolveBin:
    def test_alpha_zero_matches_closed_form(self, sel6):
        rng = np.random.default_rng(4)
        phi = random_coherence_set(rng, 6, 3, [300.0, 600.0, 900.0])
        closed, _ = mwf_closed_form(phi, sel6)
        for k in range(3):
            w_l, w_r, diag = solve_bin(
                CostSpec("mwf-ic", 0.0), phi, sel6, k, SolverConfig()
            )
            ref = np.abs(closed.w_l[k]).max()
            assert np.abs(w_l - closed.w_l[k]).max() < 1e-6 * ref
            assert np.abs(w_r - closed.w_r[k]).max() < 1e-6 * ref
            assert diag["converged"]

    def test_penalty_dominance_pins_cues(self, cfg, geometry, selector):
        # huge coherence weight on rank-one-plus-floor noise: output cues
        # must match input cues
        from binaural_mwf.scene import steering_vector

        rng = np.random.default_rng(5)
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
        w_l, w_r, diag = solve_bin(
            CostSpec("mwf-ic", 1e4), phi, sel_from(selector), 0, SolverConfig()
        )
        pair = FilterPair(w_l=w_l[np.newaxis], w_r=w_r[np.newaxis])
        sub_cfg_freqs = np.array([cfg.freqs[k]])
        num = np.vdot(w_l, phi_vv @ w_r)
        ipd_out = np.angle(num)
        ipd_in = np.angle(phi_vv[0, 3])
        assert abs(wrap_angle(ipd_out - ipd_in)) < 1e-3

    def test_descent_property(self, phi30, selector):
        spec = CostSpec("mwf-itd", 3000.0)
        closed, _ = mwf_closed_form(phi30, selector)
        for k in (2, 8, 15, 22):
            from binaural_mwf.costs import combined

            w_l, w_r, diag = solve_bin(spec, phi30, selector, k, SolverConfig())
            ev0 = combined(
                closed.w_l[k], closed.w_r[k], phi30.phi_xx[k], phi30.phi_yy[k],
                phi30.phi_vv[k], selector.q_l, selector.q_r, spec, phi30.freqs[k],
            )
            assert diag["cost"] <= ev0.value + 1e-9 * max(1.0, abs(ev0.value))


def sel_from(selector):
    return selector


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
    def test_zero_loss_fraction_returns_zero_alpha(self, phi30, selector, scene30):
        cal = calibrate_alpha(
            CostSpec("mwf-ic"), phi30, selector, scene30, loss_fraction=0.0
        )
        assert cal.alpha == 0.0
        assert cal.achieved_loss == 0.0
        assert_calibration_solve(cal, CostSpec("mwf-ic"), phi30, selector, scene30)

    def test_grid_top_returns_its_solve(self, phi30, selector, scene30):
        spec = CostSpec("mwf-ic")
        cal = calibrate_alpha(spec, phi30, selector, scene30, grid_lo=0.1,
                              grid_hi=1.0, grid_points=2)
        assert cal.warning.startswith("grid exhausted")
        assert cal.alpha == 1.0
        assert_calibration_solve(cal, spec, phi30, selector, scene30)

    @pytest.mark.parametrize("loss", [1e-9, 0.015])
    def test_infeasible_lowest_grid_point_returns_its_solve(
        self, phi30, selector, scene30, loss
    ):
        # 1e-9 refines down to alpha = 0; 0.015 keeps a positive refinement
        spec = CostSpec("mwf-ic")
        cal = calibrate_alpha(spec, phi30, selector, scene30, loss_fraction=loss,
                              grid_lo=1.0, grid_hi=10.0, grid_points=2,
                              refinements=3)
        assert cal.warning == "penalty infeasible at the lowest grid point"
        assert (cal.alpha > 0) == (loss > 1e-9)
        assert_calibration_solve(cal, spec, phi30, selector, scene30)

    def test_mwf_variant_rejected(self, phi30, selector, scene30):
        with pytest.raises(InvalidInputError):
            calibrate_alpha(CostSpec("mwf"), phi30, selector, scene30)

    def test_closed_loop_loss_in_window(self, phi30, selector, scene30):
        cal = calibrate_alpha(CostSpec("mwf-ic"), phi30, selector, scene30)
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
