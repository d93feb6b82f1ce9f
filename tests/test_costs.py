import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError
from binaural_mwf.costs import (
    BinObjective,
    CostSpec,
    DEGENERATE_PENALTY,
    FilterPair,
    combined,
    combined_hessian,
    input_ic,
    input_ipd,
    j_ic,
    j_ipd,
    j_w,
    pack_filters,
    penalty_cue,
    unpack_filters,
)
from binaural_mwf.scene import steering_vector
from binaural_mwf.spatial_stats import Selector

from conftest import random_psd


@pytest.fixture
def sel4():
    return Selector(q_l=np.eye(4)[0].astype(float), q_r=np.eye(4)[2].astype(float))


def random_filters(rng, m):
    return (
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
    )


def central_diff_gradient(fun, x, step=None):
    if step is None:
        step = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2 * step)
    return grad


def check_gradient(cost_fn, w_l, w_r, rel_tol=1e-5):
    ev = cost_fn(w_l, w_r)
    if ev.degenerate:
        return
    x0 = pack_filters(w_l, w_r)

    def value_only(x):
        wl, wr = unpack_filters(x)
        return cost_fn(wl, wr).value

    fd = central_diff_gradient(value_only, x0)
    # floor the per-component denominator at 0.1% of the gradient scale:
    # below that the central difference itself is rounding noise
    scale = np.maximum(np.abs(fd), 1e-3 * max(np.max(np.abs(fd)), 1e-12))
    rel = np.abs(ev.gradient - fd) / scale
    assert np.max(rel) < rel_tol


class TestJW:
    def test_zero_filters_give_reference_speech_power(self, sel4):
        rng = np.random.default_rng(0)
        phi_xx = random_psd(rng, 4)
        phi_yy = phi_xx + random_psd(rng, 4)
        zero = np.zeros(4, dtype=complex)
        ev = j_w(zero, zero, phi_xx, phi_yy, sel4.q_l, sel4.q_r)
        expected = (sel4.q_l @ phi_xx @ sel4.q_l + sel4.q_r @ phi_xx @ sel4.q_r).real
        assert ev.value == pytest.approx(expected)

    def test_gradient_vanishes_at_closed_form(self, sel4):
        rng = np.random.default_rng(1)
        phi_xx = random_psd(rng, 4)
        phi_yy = phi_xx + random_psd(rng, 4)
        w_l = np.linalg.solve(phi_yy, phi_xx @ sel4.q_l)
        w_r = np.linalg.solve(phi_yy, phi_xx @ sel4.q_r)
        ev = j_w(w_l, w_r, phi_xx, phi_yy, sel4.q_l, sel4.q_r)
        scale = (sel4.q_l @ phi_xx @ sel4.q_l + sel4.q_r @ phi_xx @ sel4.q_r).real
        assert np.max(np.abs(ev.gradient)) < 1e-8 * max(1.0, scale)

    def test_scalar_wiener_value(self):
        sel = Selector(q_l=np.array([1.0]), q_r=np.array([1.0]))
        sx2, sv2 = 2.0, 0.5
        phi_xx = np.array([[sx2 + 0j]])
        phi_yy = np.array([[sx2 + sv2 + 0j]])
        w = np.array([sx2 / (sx2 + sv2) + 0j])
        ev = j_w(w, w, phi_xx, phi_yy, sel.q_l, sel.q_r)
        assert ev.value == pytest.approx(2.0 * sx2 * sv2 / (sx2 + sv2))

    def test_dimension_mismatch_rejected(self, sel4):
        with pytest.raises(InvalidInputError):
            j_w(
                np.zeros(3, dtype=complex),
                np.zeros(3, dtype=complex),
                np.eye(4, dtype=complex),
                np.eye(4, dtype=complex),
                sel4.q_l,
                sel4.q_r,
            )

    def test_convexity_along_segments(self, sel4):
        rng = np.random.default_rng(2)
        for _ in range(50):
            phi_xx = random_psd(rng, 4)
            phi_yy = phi_xx + random_psd(rng, 4)

            def f(w_l, w_r):
                return j_w(w_l, w_r, phi_xx, phi_yy, sel4.q_l, sel4.q_r).value

            u = random_filters(rng, 4)
            v = random_filters(rng, 4)
            t = rng.uniform()
            mid = f(
                t * u[0] + (1 - t) * v[0], t * u[1] + (1 - t) * v[1]
            )
            assert mid <= t * f(*u) + (1 - t) * f(*v) + 1e-9


class TestJIpd:
    def test_identity_filters_zero_cost(self, sel4):
        rng = np.random.default_rng(3)
        phi = random_psd(rng, 4)
        ev = j_ipd(
            sel4.q_l.astype(complex), sel4.q_r.astype(complex), phi, sel4.q_l, sel4.q_r
        )
        assert ev.value == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5])
    def test_small_rotation_gives_delta_squared(self, sel4, delta):
        rng = np.random.default_rng(4)
        phi = random_psd(rng, 4)
        w_r = sel4.q_r.astype(complex) * np.exp(-1j * delta)
        ev = j_ipd(sel4.q_l.astype(complex), w_r, phi, sel4.q_l, sel4.q_r)
        assert ev.value == pytest.approx(delta**2, rel=1e-9)

    def test_positive_scaling_invariance(self, sel4):
        rng = np.random.default_rng(5)
        phi = random_psd(rng, 4)
        w_l, w_r = random_filters(rng, 4)
        base = j_ipd(w_l, w_r, phi, sel4.q_l, sel4.q_r)
        scaled = j_ipd(3.7 * w_l, w_r, phi, sel4.q_l, sel4.q_r)
        assert scaled.value == pytest.approx(base.value, rel=1e-9)

    def test_degenerate_returns_large_flat_penalty(self, sel4):
        rng = np.random.default_rng(6)
        phi = random_psd(rng, 4)
        zero = np.zeros(4, dtype=complex)
        ev = j_ipd(zero, zero, phi, sel4.q_l, sel4.q_r)
        assert ev.degenerate
        assert ev.value == DEGENERATE_PENALTY
        assert np.all(ev.gradient == 0.0)


class TestJIc:
    def test_identity_filters_zero_cost(self, sel4):
        rng = np.random.default_rng(7)
        phi = random_psd(rng, 4)
        ev = j_ic(
            sel4.q_l.astype(complex), sel4.q_r.astype(complex), phi, sel4.q_l, sel4.q_r
        )
        assert ev.value == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.1])
    def test_first_order_equivalence_with_ipd_for_rank_one(
        self, cfg, geometry, selector, delta
    ):
        # rank-one noise: any filter pair has unit-|ic| output; a pure phase
        # offset makes the coherence penalty match the phase penalty to
        # second order
        sv = steering_vector(geometry, 30.0, 3.0, cfg)
        k = 10
        h = sv.h[k]
        phi = np.outer(h, h.conj())
        w_l = selector.q_l.astype(complex)
        w_r = selector.q_r.astype(complex) * np.exp(-1j * delta)
        ic_ev = j_ic(w_l, w_r, phi, selector.q_l, selector.q_r)
        ipd_ev = j_ipd(w_l, w_r, phi, selector.q_l, selector.q_r)
        assert abs(ic_ev.value - ipd_ev.value) < 0.05 * ipd_ev.value

    def test_destroyed_coherence_costs_unity(self, cfg, geometry, selector):
        # against unit-|ic| input, an output with ic = 0 costs exactly 1;
        # approximate ic_out = 0 with orthogonal-channel filters on a
        # two-source matrix
        m = selector.q_l.size
        phi = np.zeros((m, m), dtype=complex)
        phi[0, 0] = 1.0
        phi[3, 3] = 1.0
        phi[0, 3] = 0.999
        phi[3, 0] = 0.999
        ic_in = input_ic(phi, selector.q_l, selector.q_r)
        assert abs(abs(ic_in) - 0.999) < 1e-12
        w_l = np.zeros(m, dtype=complex)
        w_r = np.zeros(m, dtype=complex)
        w_l[0] = 1.0
        w_l[3] = 1.0
        w_r[0] = 1.0
        w_r[3] = -1.0  # output cross power cancels: ic_out = 0
        ev = j_ic(w_l, w_r, phi, selector.q_l, selector.q_r)
        assert ev.value == pytest.approx(abs(ic_in) ** 2, rel=1e-9)


class TestCombined:
    def test_alpha_zero_equals_j_w(self, sel4):
        rng = np.random.default_rng(8)
        phi_xx = random_psd(rng, 4)
        phi_vv = random_psd(rng, 4)
        phi_yy = phi_xx + phi_vv
        w_l, w_r = random_filters(rng, 4)
        for variant in ("mwf", "mwf-itd", "mwf-ic"):
            spec = CostSpec(variant, 0.0)
            ev = combined(
                w_l, w_r, phi_xx, phi_yy, phi_vv, sel4.q_l, sel4.q_r, spec, 500.0
            )
            base = j_w(w_l, w_r, phi_xx, phi_yy, sel4.q_l, sel4.q_r)
            assert ev.value == base.value
            np.testing.assert_array_equal(ev.gradient, base.gradient)

    def test_gated_above_cutoff(self, sel4):
        rng = np.random.default_rng(9)
        phi_xx = random_psd(rng, 4)
        phi_vv = random_psd(rng, 4)
        phi_yy = phi_xx + phi_vv
        w_l, w_r = random_filters(rng, 4)
        spec = CostSpec("mwf-ic", 5.0)
        ev = combined(
            w_l, w_r, phi_xx, phi_yy, phi_vv, sel4.q_l, sel4.q_r, spec, 2000.0
        )
        base = j_w(w_l, w_r, phi_xx, phi_yy, sel4.q_l, sel4.q_r)
        assert ev.value == base.value

    def test_identity_filters_keep_only_wiener_term(self, sel4):
        rng = np.random.default_rng(10)
        phi_xx = random_psd(rng, 4)
        phi_vv = random_psd(rng, 4)
        phi_yy = phi_xx + phi_vv
        spec = CostSpec("mwf-ic", 0.8)
        ev = combined(
            sel4.q_l.astype(complex),
            sel4.q_r.astype(complex),
            phi_xx,
            phi_yy,
            phi_vv,
            sel4.q_l,
            sel4.q_r,
            spec,
            500.0,
        )
        base = j_w(
            sel4.q_l.astype(complex), sel4.q_r.astype(complex), phi_xx, phi_yy,
            sel4.q_l, sel4.q_r,
        )
        assert ev.value == pytest.approx(base.value, abs=1e-15)

    def test_additive_values_and_gradients(self, sel4):
        rng = np.random.default_rng(11)
        phi_xx = random_psd(rng, 4)
        phi_vv = random_psd(rng, 4)
        phi_yy = phi_xx + phi_vv
        w_l, w_r = random_filters(rng, 4)
        alpha = 2.5
        spec = CostSpec("mwf-itd", alpha)
        ev = combined(
            w_l, w_r, phi_xx, phi_yy, phi_vv, sel4.q_l, sel4.q_r, spec, 500.0
        )
        base = j_w(w_l, w_r, phi_xx, phi_yy, sel4.q_l, sel4.q_r)
        pen = j_ipd(w_l, w_r, phi_vv, sel4.q_l, sel4.q_r)
        assert ev.value == pytest.approx(base.value + alpha * pen.value)
        np.testing.assert_allclose(
            ev.gradient, base.gradient + alpha * pen.gradient, rtol=1e-12
        )

    def test_invalid_variant_rejected(self):
        with pytest.raises(InvalidInputError):
            CostSpec("mwf-ild", 1.0)
        with pytest.raises(InvalidInputError):
            CostSpec("mwf", -1.0)
        for alpha in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                CostSpec("mwf-itd", alpha)


class TestGradients:
    @pytest.mark.parametrize("which", ["j_w", "j_ipd", "j_ic", "combined"])
    def test_analytic_matches_central_differences(self, sel4, which):
        rng = np.random.default_rng(12)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 300:
            attempts += 1
            phi_xx = random_psd(rng, 4)
            phi_vv = random_psd(rng, 4)
            phi_yy = phi_xx + phi_vv
            w_l, w_r = random_filters(rng, 4)
            if which == "j_w":
                fn = lambda a, b: j_w(a, b, phi_xx, phi_yy, sel4.q_l, sel4.q_r)
            elif which == "j_ipd":
                fn = lambda a, b: j_ipd(a, b, phi_vv, sel4.q_l, sel4.q_r)
            elif which == "j_ic":
                fn = lambda a, b: j_ic(a, b, phi_vv, sel4.q_l, sel4.q_r)
            else:
                spec = CostSpec("mwf-ic", 1.3)
                fn = lambda a, b: combined(
                    a, b, phi_xx, phi_yy, phi_vv, sel4.q_l, sel4.q_r, spec, 700.0
                )
            # avoid wrap discontinuity in finite differences
            if which in ("j_ipd", "combined"):
                ipd_in = input_ipd(phi_vv, sel4.q_l, sel4.q_r)
                u = np.vdot(w_l, phi_vv @ w_r)
                from binaural_mwf.spatial_stats import wrap_angle

                if abs(abs(wrap_angle(np.angle(u) - ipd_in)) - np.pi) < 0.05:
                    continue
            check_gradient(fn, w_l, w_r)
            checked += 1
        assert checked >= 100

    def test_nonnegative_values(self, sel4):
        rng = np.random.default_rng(13)
        for _ in range(200):
            phi_xx = random_psd(rng, 4)
            phi_vv = random_psd(rng, 4)
            phi_yy = phi_xx + phi_vv
            w_l, w_r = random_filters(rng, 4)
            assert j_w(w_l, w_r, phi_xx, phi_yy, sel4.q_l, sel4.q_r).value >= 0
            assert j_ipd(w_l, w_r, phi_vv, sel4.q_l, sel4.q_r).value >= 0
            assert j_ic(w_l, w_r, phi_vv, sel4.q_l, sel4.q_r).value >= 0


class TestHessians:
    @pytest.mark.parametrize("which", ["j_w", "j_ipd", "j_ic"])
    def test_analytic_hessian_matches_gradient_differences(self, sel4, which):
        from binaural_mwf.costs import hess_j_ic, hess_j_ipd, hess_j_w

        rng = np.random.default_rng(20)
        for _ in range(20):
            phi_xx = random_psd(rng, 4)
            phi_vv = random_psd(rng, 4)
            phi_yy = phi_xx + phi_vv
            w_l, w_r = random_filters(rng, 4)
            if which == "j_w":
                grad = lambda x: j_w(
                    *unpack_filters(x), phi_xx, phi_yy, sel4.q_l, sel4.q_r
                ).gradient
                hess = hess_j_w(phi_yy, 4)
            elif which == "j_ipd":
                grad = lambda x: j_ipd(
                    *unpack_filters(x), phi_vv, sel4.q_l, sel4.q_r
                ).gradient
                hess = hess_j_ipd(w_l, w_r, phi_vv, sel4.q_l, sel4.q_r)
            else:
                grad = lambda x: j_ic(
                    *unpack_filters(x), phi_vv, sel4.q_l, sel4.q_r
                ).gradient
                hess = hess_j_ic(w_l, w_r, phi_vv, sel4.q_l, sel4.q_r)
            x0 = pack_filters(w_l, w_r)
            n = x0.size
            step = 1e-6
            fd = np.empty((n, n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd[:, i] = (grad(x0 + e) - grad(x0 - e)) / (2 * step)
            fd = 0.5 * (fd + fd.T)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(hess - fd).max() < 1e-6 * scale
            np.testing.assert_allclose(hess, hess.T, atol=1e-12 * scale)


class TestPacking:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_pack_unpack_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        w_l, w_r = random_filters(rng, 6)
        a, b = unpack_filters(pack_filters(w_l, w_r))
        np.testing.assert_array_equal(a, w_l)
        np.testing.assert_array_equal(b, w_r)


class TestBinObjective:
    """The per-bin objective is bitwise equal to the one-shot cost calls."""

    @staticmethod
    def low_rank_psd(rng, m, rank):
        a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        return a @ a.conj().T

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        variant=st.sampled_from(["mwf", "mwf-itd", "mwf-ic"]),
        alpha=st.sampled_from([0.0, 0.3, 40.0, 1e5]),
        freq=st.sampled_from([0.0, 250.0, 1500.0, 2000.0]),
        case=st.sampled_from(["generic", "rank-one noise", "zero noise",
                              "collapsed u", "zero filters"]),
    )
    def test_matches_one_shot_costs(self, seed, variant, alpha, freq, case):
        rng = np.random.default_rng(seed)
        m = 6
        sel = Selector(q_l=np.eye(m)[0], q_r=np.eye(m)[3])
        phi_xx = random_psd(rng, m)
        if case == "zero noise":
            phi_vv = np.zeros((m, m), dtype=complex)
        elif case == "rank-one noise":
            phi_vv = self.low_rank_psd(rng, m, 1)
        else:
            phi_vv = random_psd(rng, m)
        phi_yy = phi_xx + phi_vv
        spec = CostSpec(variant, alpha)
        objective = BinObjective(phi_xx, phi_yy, phi_vv, sel.q_l, sel.q_r, spec, freq)
        cue = penalty_cue(spec, phi_vv, sel.q_l, sel.q_r, freq)
        assert (objective.penalty is None) == (cue is None)
        if case == "zero noise":
            assert cue is None
        # several points per objective: reuse must not disturb its state
        for _ in range(3):
            w_l, w_r = random_filters(rng, m)
            if case == "collapsed u":
                c_l = phi_vv @ w_l  # u = c_l^H w_r, so project c_l out of w_r
                w_r = w_r - c_l * (np.vdot(c_l, w_r) / np.vdot(c_l, c_l))
            elif case == "zero filters":
                w_l = np.zeros(m, dtype=complex)
            base = j_w(w_l, w_r, phi_xx, phi_yy, sel.q_l, sel.q_r)
            value, grad = base.value, base.gradient
            if cue is not None:
                term = j_ipd if variant == "mwf-itd" else j_ic
                pen = term(w_l, w_r, phi_vv, sel.q_l, sel.q_r, cue)
                value = base.value + alpha * pen.value
                grad = base.gradient + alpha * pen.gradient
            x = pack_filters(w_l, w_r)
            got_value, got_grad = objective(x)
            assert np.array_equal(got_value, value, equal_nan=True)
            assert np.array_equal(got_grad, grad, equal_nan=True)
            one_shot = combined(w_l, w_r, phi_xx, phi_yy, phi_vv, sel.q_l, sel.q_r,
                                spec, freq)
            assert np.array_equal(one_shot.value, value, equal_nan=True)
            assert np.array_equal(one_shot.gradient, grad, equal_nan=True)
            hess = combined_hessian(w_l, w_r, phi_xx, phi_yy, phi_vv, sel.q_l,
                                    sel.q_r, spec, freq)
            assert np.array_equal(objective.hessian(x), hess, equal_nan=True)

    def test_penalty_cue_gating(self, sel4):
        rng = np.random.default_rng(21)
        phi_vv = random_psd(rng, 4)
        ipd = input_ipd(phi_vv, sel4.q_l, sel4.q_r)
        ic = input_ic(phi_vv, sel4.q_l, sel4.q_r)
        assert penalty_cue(CostSpec("mwf-itd", 1.0), phi_vv, sel4.q_l, sel4.q_r,
                           500.0) == ipd
        assert penalty_cue(CostSpec("mwf-ic", 1.0), phi_vv, sel4.q_l, sel4.q_r,
                           1500.0) == ic
        for spec, freq in [(CostSpec("mwf", 1.0), 500.0),
                           (CostSpec("mwf-ic", 0.0), 500.0),
                           (CostSpec("mwf-ic", 1.0), 0.0),
                           (CostSpec("mwf-itd", 1.0), 1500.5)]:
            assert penalty_cue(spec, phi_vv, sel4.q_l, sel4.q_r, freq) is None
        zero = np.zeros((4, 4), dtype=complex)
        assert penalty_cue(CostSpec("mwf-ic", 1.0), zero, sel4.q_l, sel4.q_r,
                           500.0) is None
