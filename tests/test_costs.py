import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError
from binaural_mwf.costs import (
    BinObjective,
    CostSpec,
    DEGENERATE_PENALTY,
    FilterPair,
    _CoherenceTerm,
    _noise_eps,
    _PhaseTerm,
    _realify,
    _u_gradient,
    _u_hessian,
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
from binaural_mwf.spatial_stats import Selector, wrap_angle

from conftest import low_rank_psd, random_filters, random_psd, shrink_cross_power


@pytest.fixture
def sel4():
    return Selector(q_l=np.eye(4)[0].astype(float), q_r=np.eye(4)[2].astype(float))


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
    # past the guard a penalty is a flat DEGENERATE_PENALTY: nothing to check
    if ev.value == DEGENERATE_PENALTY and not np.any(ev.gradient):
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


def lane_hessian(term, phi_vv, target, w_l, w_r):
    """Hessian of a penalty term built for one lane."""
    return term(phi_vv[None], np.array([target])).hessian(np.stack([w_l, w_r])[None], 0)


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
        # the penalties validate their filters the same way
        phi_vv = random_psd(np.random.default_rng(4), 4)
        short, full = np.ones(3, dtype=complex), np.ones(4, dtype=complex)
        for term in (j_ipd, j_ic):
            for w_l, w_r in ((short, short), (full, short), (short, full)):
                with pytest.raises(InvalidInputError):
                    term(w_l, w_r, phi_vv, sel4.q_l, sel4.q_r)

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
        for cutoff in (np.nan, np.inf, 0.0, -5.0):
            with pytest.raises(InvalidInputError):
                CostSpec("mwf-ic", 1.0, cue_cutoff=cutoff)


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
        from binaural_mwf.costs import hess_j_w

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
                hess = hess_j_w(phi_yy)
            elif which == "j_ipd":
                grad = lambda x: j_ipd(
                    *unpack_filters(x), phi_vv, sel4.q_l, sel4.q_r
                ).gradient
                ipd_in = input_ipd(phi_vv, sel4.q_l, sel4.q_r)
                hess = lane_hessian(_PhaseTerm, phi_vv, ipd_in, w_l, w_r)
            else:
                grad = lambda x: j_ic(
                    *unpack_filters(x), phi_vv, sel4.q_l, sel4.q_r
                ).gradient
                ic_in = input_ic(phi_vv, sel4.q_l, sel4.q_r)
                hess = lane_hessian(_CoherenceTerm, phi_vv, ic_in, w_l, w_r)
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


class TestPenaltyProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        which=st.sampled_from(["j_ipd", "j_ic"]),
        case=st.sampled_from(["generic", "rank-one noise", "near collapse"]),
        ic_out=st.floats(1e-3, 1.0),
    )
    def test_hessian_matches_gradient_differences(self, seed, which, case, ic_out):
        rng = np.random.default_rng(seed)
        m = 4
        sel = Selector(q_l=np.eye(m)[0], q_r=np.eye(m)[2])
        if case == "rank-one noise":
            phi_vv = low_rank_psd(rng, m, 1)
        else:
            phi_vv = random_psd(rng, m)
        w_l, w_r = random_filters(rng, m)
        if case == "near collapse":
            # scale u to about ic_out * sqrt(p_l p_r); p_r moves little, so the
            # output |IC| lands near ic_out (1.06e-3 to 0.94 over 600 seeds)
            _, _, u, p_l, p_r = _parent_noise_products(w_l, w_r, phi_vv)
            w_r = shrink_cross_power(w_l, w_r, phi_vv,
                                     ic_out * np.sqrt(p_l * p_r) / abs(u))
        c_l, c_r, u, _, _ = _parent_noise_products(w_l, w_r, phi_vv)
        if which == "j_ipd":
            # central differences must not straddle the phase wrap
            d = wrap_angle(np.angle(u) - input_ipd(phi_vv, sel.q_l, sel.q_r))
            assume(abs(abs(d) - np.pi) > 1e-3)
            term, penalty, input_cue = j_ipd, _PhaseTerm, input_ipd
        else:
            term, penalty, input_cue = j_ic, _CoherenceTerm, input_ic
        # a step that moves u by a fixed fraction of |u|
        step = 1e-5 * abs(u) / max(np.linalg.norm(c_l), np.linalg.norm(c_r))

        def grad(x):
            return term(*unpack_filters(x), phi_vv, sel.q_l, sel.q_r).gradient

        hess = lane_hessian(penalty, phi_vv, input_cue(phi_vv, sel.q_l, sel.q_r), w_l, w_r)
        x0 = pack_filters(w_l, w_r)
        n = x0.size
        fd = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd[:, i] = (grad(x0 + e) - grad(x0 - e)) / (2 * step)
        fd = 0.5 * (fd + fd.T)
        scale = np.abs(fd).max()
        assert np.abs(hess - fd).max() < 1e-6 * scale
        np.testing.assert_allclose(hess, hess.T, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        rank_one=st.booleans(),
        modulus=st.floats(-3.0, 3.0),
        phase=st.floats(-np.pi, np.pi),
    )
    def test_values_invariant_under_common_complex_scaling(self, seed, rank_one,
                                                           modulus, phase):
        rng = np.random.default_rng(seed)
        m = 4
        sel = Selector(q_l=np.eye(m)[0], q_r=np.eye(m)[2])
        phi_vv = low_rank_psd(rng, m, 1) if rank_one else random_psd(rng, m)
        w_l, w_r = random_filters(rng, m)
        c = 10.0**modulus * np.exp(1j * phase)
        for term in (j_ipd, j_ic):
            base = term(w_l, w_r, phi_vv, sel.q_l, sel.q_r)
            scaled = term(c * w_l, c * w_r, phi_vv, sel.q_l, sel.q_r)
            assert DEGENERATE_PENALTY not in (base.value, scaled.value)
            assert scaled.value == pytest.approx(base.value, rel=1e-9, abs=1e-12)


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
            phi_vv = low_rank_psd(rng, m, 1)
        else:
            phi_vv = random_psd(rng, m)
        phi_yy = phi_xx + phi_vv
        spec = CostSpec(variant, alpha)
        objective = BinObjective.of_bin(phi_xx, phi_yy, phi_vv, sel.q_l, sel.q_r, spec,
                                        freq)
        cue = penalty_cue(spec, phi_vv, sel.q_l, sel.q_r, freq)
        assert (objective.penalty is None) == (cue is None)
        if case == "zero noise":
            assert cue is None
        # several points per objective: reuse must not disturb its state
        for _ in range(3):
            w_l, w_r = random_filters(rng, m)
            if case == "collapsed u":
                w_r = shrink_cross_power(w_l, w_r, phi_vv, 0.0)
            elif case == "zero filters":
                w_l = np.zeros(m, dtype=complex)
            base = j_w(w_l, w_r, phi_xx, phi_yy, sel.q_l, sel.q_r)
            value, grad = base.value, base.gradient
            if cue is not None:
                term = j_ipd if variant == "mwf-itd" else j_ic
                pen = term(w_l, w_r, phi_vv, sel.q_l, sel.q_r)
                value = base.value + alpha * pen.value
                grad = base.gradient + alpha * pen.gradient
            x = pack_filters(w_l, w_r)
            got_value, got_grad = objective(x[None])
            assert np.array_equal(got_value, [value], equal_nan=True)
            assert np.array_equal(got_grad, [grad], equal_nan=True)
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


def _parent_noise_products(w_l, w_r, phi_vv):
    """Frozen copy of the per-bin noise products the frozen terms below
    were written against (the program now forms them for stacked lanes)."""
    c_l = phi_vv @ w_l
    c_r = phi_vv @ w_r
    w_l_conj = w_l.conj()
    u = complex(w_l_conj @ c_r)
    p_l = float((w_l_conj @ c_l).real)
    p_r = float((w_r.conj() @ c_r).real)
    return c_l, c_r, u, p_l, p_r


class _ParentWienerTerm:
    """Frozen copy of the per-bin Wiener term before the terms were stacked."""

    def __init__(self, phi_xx, phi_yy, q_l, q_r):
        self.phi_yy = phi_yy
        self.b_l = phi_xx @ q_l
        self.b_r = phi_xx @ q_r
        self.reference_power = (q_l @ self.b_l).real + (q_r @ self.b_r).real

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
        grad_l, grad_r = 2.0 * (y_l - b_l), 2.0 * (y_r - b_r)
        return value, np.concatenate([grad_l.real, grad_l.imag, grad_r.real, grad_r.imag])


def _parent_combined(wiener, penalty, alpha, w_l, w_r):
    """Frozen copy of the per-bin combined evaluation: Wiener term plus
    alpha times the penalty, or DEGENERATE_PENALTY with a zero gradient
    past the guard."""
    value, grad = wiener.value_and_gradient(w_l, w_r)
    result = penalty.value_and_gradient(w_l, w_r)
    if result is None:
        result = DEGENERATE_PENALTY, np.zeros(4 * w_l.size)
    return value + alpha * result[0], grad + alpha * result[1]


class _ParentPhaseTerm:
    """Frozen copy of the phase term before its derivatives were shared:
    a written-out gradient and a Hessian that forms Im((du/dx)/u) again."""

    def __init__(self, phi_vv, target):
        self.phi_vv = phi_vv
        self.target = target
        self.eps = _noise_eps(phi_vv)

    def _products(self, w_l, w_r):
        c_l, c_r, u, p_l, p_r = _parent_noise_products(w_l, w_r, self.phi_vv)
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
        ru = c_r / u
        su = c_l.conj() / u
        return d * d, 2.0 * d * np.concatenate([ru.imag, -ru.real, su.imag, su.real])

    def hessian(self, w_l, w_r):
        products = self._products(w_l, w_r)
        if products is None:
            return None
        c_l, c_r, u = products
        u2 = _u_hessian(self.phi_vv)
        u_vec = _u_gradient(c_l, c_r)
        d = float(wrap_angle(np.angle(u) - self.target))
        grad_phi = (u_vec / u).imag
        hess_phi = (u2 / u).imag - (np.outer(u_vec, u_vec) / (u * u)).imag
        return 2.0 * np.outer(grad_phi, grad_phi) + 2.0 * d * hess_phi


def _parent_ic_partials(u, g_conj, den, two_p_l, two_p_r, du, dp_l, dp_r):
    dic = (du - u * (dp_l / two_p_l + dp_r / two_p_r)) / den
    return 2.0 * (g_conj * dic).real


class _ParentCoherenceTerm:
    """Frozen copy of the coherence term before its derivatives were shared:
    a gradient built from four per-block partials, and a Hessian that
    builds the derivative vectors again."""

    def __init__(self, phi_vv, target):
        self.phi_vv = phi_vv
        self.target = target
        self.eps = _noise_eps(phi_vv)
        self.zero = np.zeros(phi_vv.shape[0])

    def _products(self, w_l, w_r):
        products = _parent_noise_products(w_l, w_r, self.phi_vv)
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
        c_l_conj = c_l.conj()
        blocks = (
            (c_r, 2 * c_l.real, zero),
            (-1j * c_r, 2 * c_l.imag, zero),
            (c_l_conj, zero, 2 * c_r.real),
            (1j * c_l_conj, zero, 2 * c_r.imag),
        )
        grad = np.concatenate([
            _parent_ic_partials(u, g_conj, den, two_p_l, two_p_r, du, dp_l, dp_r)
            for du, dp_l, dp_r in blocks
        ])
        return value, grad

    def hessian(self, w_l, w_r):
        products = self._products(w_l, w_r)
        if products is None:
            return None
        c_l, c_r, u, p_l, p_r = products
        m = self.zero.size
        quad = 2.0 * _realify(self.phi_vv)
        pl_h = np.zeros((4 * m, 4 * m))
        pl_h[: 2 * m, : 2 * m] = quad
        pr_h = np.zeros((4 * m, 4 * m))
        pr_h[2 * m :, 2 * m :] = quad
        zeros, u2 = np.zeros(2 * m), _u_hessian(self.phi_vv)
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


def bin_innermost(mat):
    """``mat`` laid out as one bin of a Phi stored bin axis innermost: a
    strided view, which numpy's matmul multiplies without BLAS."""
    out = np.empty(mat.shape + (2,), dtype=complex)
    out[..., 0] = mat
    return out[..., 0]


def assert_bitwise_equal(got, want):
    if want is None:
        assert got is None
        return
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def lane_mix(lanes):
    """Strategy: ``lanes`` (case, scale, rank) draws for ``random_lanes``."""
    return st.lists(
        st.tuples(st.sampled_from(["generic", "rank-one noise", "collapsed u",
                                   "zero filter"]),
                  st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
                  st.integers(1, 8)),
        min_size=lanes, max_size=lanes)


def random_lanes(rng, m, mix):
    """(phi_xx, phi_vv, filter pairs (B, 2, M), phase targets, coherence
    targets) of one lane per ``mix`` entry."""
    phi_xx, phi_vv, w_l, w_r, phase_targets, ic_targets = [], [], [], [], [], []
    for case, scale, rank in mix:
        rank = 1 if case == "rank-one noise" else min(rank, m)
        phi_xx.append(random_psd(rng, m))
        phi_vv.append(low_rank_psd(rng, m, rank))
        a, b = random_filters(rng, m)
        if case == "collapsed u":
            b = shrink_cross_power(a, b, phi_vv[-1], 0.0)
        elif case == "zero filter":
            a = np.zeros(m, dtype=complex)
        w_l.append(scale * a)
        w_r.append(scale * b)
        phase_targets.append(float(rng.uniform(-np.pi, np.pi)))
        ic_targets.append(complex(rng.uniform(0, 1)
                                  * np.exp(1j * rng.uniform(-np.pi, np.pi))))
    return (np.array(phi_xx), np.array(phi_vv), np.stack([w_l, w_r], axis=1),
            phase_targets, ic_targets)


class TestTermsMatchFrozenCopy:
    """Every lane of the stacked kernel runs the same floating-point
    operations, in the same order, as the frozen per-bin copies above, so
    every result is bitwise equal, signed zeros included, whatever the lane
    count and whatever the other lanes hold.  The frozen copies see Phi_yy
    and Phi_vv laid out as the coherence estimator returns them.  This rests
    on stacked matmul matching per-bin ``@`` on this numpy/BLAS build; where
    it does not, this test fails."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(2, 8),
        lanes=st.sampled_from([1, 2, 7, 24]),
        data=st.data(),
    )
    def test_value_gradient_hessian_bitwise(self, seed, m, lanes, data):
        rng = np.random.default_rng(seed)
        mix = data.draw(lane_mix(lanes))
        sel = Selector(q_l=np.eye(m)[0], q_r=np.eye(m)[m - 1])
        phi_xx, phi_vv, pairs, phase_targets, ic_targets = random_lanes(rng, m, mix)
        w_l, w_r = pairs[:, 0], pairs[:, 1]
        phi_yy = phi_xx + phi_vv
        alpha = float(rng.choice([0.3, 40.0, 1e5]))
        for variant, targets, old_term in (("mwf-itd", phase_targets, _ParentPhaseTerm),
                                           ("mwf-ic", ic_targets, _ParentCoherenceTerm)):
            objective = BinObjective(phi_xx, phi_yy, phi_vv, sel.q_l, sel.q_r,
                                     CostSpec(variant, alpha), targets)
            pen_values, pen_grads = objective.penalty.value_and_gradient(pairs)
            values, grads = objective(np.array([pack_filters(*pair) for pair in pairs]))
            for b in range(lanes):
                old = old_term(bin_innermost(phi_vv[b]), targets[b])
                want = old.value_and_gradient(w_l[b], w_r[b])
                if want is None:  # past the guard
                    want = DEGENERATE_PENALTY, np.zeros(4 * m)
                assert_bitwise_equal(pen_values[b], want[0])
                assert_bitwise_equal(pen_grads[b], want[1])
                wiener = _ParentWienerTerm(phi_xx[b], bin_innermost(phi_yy[b]), sel.q_l,
                                           sel.q_r)
                want = _parent_combined(wiener, old, alpha, w_l[b], w_r[b])
                assert_bitwise_equal(values[b], want[0])
                assert_bitwise_equal(grads[b], want[1])
                assert_bitwise_equal(objective.penalty.hessian(pairs[b : b + 1], b),
                                     old.hessian(w_l[b], w_r[b]))

    def test_squared_coherence_gap_is_python_power(self):
        # Python's float power and a numpy square of |g| differ in the last
        # bit for about 1 value in 1,200; give every lane a target whose
        # coherence gap is such a value
        rng = np.random.default_rng(7)
        m, lanes = 4, 3
        phi_vv = random_psd(rng, m)
        w_l, w_r = random_filters(rng, m)
        _, _, u, p_l, p_r = _parent_noise_products(w_l, w_r, bin_innermost(phi_vv))
        ic_out = u / np.sqrt(p_l * p_r)
        targets = []
        while len(targets) < lanes:
            target = ic_out - rng.uniform(0.1, 1.0)
            gap = abs(ic_out - target)
            if gap**2 != np.square(gap):
                targets.append(target)
        term = _CoherenceTerm(np.array([phi_vv] * lanes), np.array(targets))
        values, _ = term.value_and_gradient(np.array([[w_l, w_r]] * lanes))
        for value, target in zip(values, targets):
            want = _ParentCoherenceTerm(bin_innermost(phi_vv), target)
            assert_bitwise_equal(value, want.value_and_gradient(w_l, w_r)[0])


class TestListedLanesMatchAllLanes:
    """The kernel keeps nothing between calls: evaluating any listed lanes
    gives, bitwise, those rows of the all-lane evaluation, whatever was
    evaluated before, and a lane's Hessian is that of its bin alone."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(2, 8),
        lanes=st.sampled_from([1, 2, 7, 24]),
        data=st.data(),
    )
    def test_listed_lanes_bitwise(self, seed, m, lanes, data):
        rng = np.random.default_rng(seed)
        sel = Selector(q_l=np.eye(m)[0], q_r=np.eye(m)[m - 1])
        phi_xx, phi_vv, pairs, phase_targets, ic_targets = random_lanes(
            rng, m, data.draw(lane_mix(lanes)))
        phi_yy = phi_xx + phi_vv
        x = np.array([pack_filters(*pair) for pair in pairs])
        alpha = float(rng.choice([0.3, 40.0, 1e5]))
        for variant, targets in (("mwf", None), ("mwf-itd", phase_targets),
                                 ("mwf-ic", ic_targets)):
            spec = CostSpec(variant, alpha)
            objective = BinObjective(phi_xx, phi_yy, phi_vv, sel.q_l, sel.q_r, spec,
                                     targets)
            all_values, all_grads = objective(x)
            # three lane sets in a row, sorted as the lockstep drive lists them
            for _ in range(3):
                listed = sorted(data.draw(st.sets(st.integers(0, lanes - 1), min_size=1)))
                values, grads = objective(x[listed], tuple(listed))
                assert_bitwise_equal(values, all_values[listed])
                assert_bitwise_equal(grads, all_grads[listed])
            for j in range(lanes):
                alone = BinObjective(phi_xx[j : j + 1], phi_yy[j : j + 1],
                                     phi_vv[j : j + 1], sel.q_l, sel.q_r, spec,
                                     None if targets is None else [targets[j]])
                assert_bitwise_equal(objective.hessian(x[j], j), alone.hessian(x[j]))
