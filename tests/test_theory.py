import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from sghmc import (
    CertificationError,
    ConfigurationError,
    NumericalError,
    ObjectiveSpec,
    SmoothnessCertificate,
    point_init,
    quadratic,
)
from sghmc import harness, objectives, theory
from sghmc.metrics import SampleCloud, rho_distance_cloud
from sghmc.objectives import gaussian_mixture, make_dataset
from sghmc.samplers import SamplerConfig, ensemble_run
from sghmc.rng import derive_stream

from conftest import ball_probes, GAMMA, BETA


# a certificate with every constant nonzero, for the closed-form checks
GRID_CERT = SmoothnessCertificate(A0=1.0, B=0.5, M=1.0, m=1.0, b=1.0)


class TestDriftConstants:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_closed_form_A_c_linear_in_beta(self, beta):
        # A_c = (beta/2)(b + 2B + A0)
        drift = theory.closed_form_drift(GRID_CERT, GAMMA, beta)
        assert drift.A_c / beta == pytest.approx((1.0 + 2 * 0.5 + 1.0) / 2.0)

    def test_quadratic_half_cap(self, quad_theory):
        # min(1/4, 1/(1 + 0 + 2)) / 2 = 1/8 for (m, M, B, gamma) = (1, 1, 0, 2)
        assert quad_theory["drift"].lambda_c == pytest.approx(0.125, abs=0)

    def test_zero_friction_rejected(self, quad_obj, quad_data):
        with pytest.raises(ConfigurationError, match="gamma must be positive"):
            theory.derive_drift_constants(quad_obj.cert, 0.0, BETA, quad_obj, quad_data)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, -math.inf, math.nan],
                             ids=["0", "-1", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("entry", ["derive_drift_constants", "contraction_constants",
                                       "moment_bound_constants"])
    def test_bad_friction_rejected(self, quad_obj, quad_data, quad_theory, entry, gamma):
        drift, cert = quad_theory["drift"], quad_obj.cert
        call = {
            "derive_drift_constants": lambda: theory.derive_drift_constants(
                cert, gamma, BETA, quad_obj, quad_data),
            "contraction_constants": lambda: theory.contraction_constants(
                drift, cert, gamma, BETA, 2),
            "moment_bound_constants": lambda: theory.moment_bound_constants(
                drift, cert, gamma, BETA, 2, 0.0),
        }[entry]
        with pytest.raises(ConfigurationError, match="friction gamma must be positive"):
            call()

    def test_infinite_beta_rejected(self, quad_obj, quad_data):
        # up front, not after 21 NaN passes over the probes
        with pytest.raises(ConfigurationError, match="beta must be positive and finite, got inf"):
            theory.derive_drift_constants(quad_obj.cert, GAMMA, math.inf, quad_obj, quad_data)

    def test_degenerate_certificate_floors_A_c(self, quad_obj, quad_data, quad_theory):
        a_c = quad_theory["drift"].A_c
        assert a_c > 0.0
        assert a_c <= 1e-300  # floored at the smallest positive float

    def test_builtins_verify_on_probes(self, builtin_suite):
        for obj, data in builtin_suite:
            drift = theory.derive_drift_constants(
                obj.cert, GAMMA, BETA, obj, data, probes=1000
            )
            # re-verify on an independent probe set
            rng = derive_stream(23, "drift-recheck")
            X = ball_probes(rng, 400, obj.dim, 10.0)
            from sghmc.objectives import batch_empirical_gradient, batch_empirical_risk

            risks = batch_empirical_risk(X, obj, data)
            grads = batch_empirical_gradient(X, obj, data)
            lhs = np.sum(grads * X, axis=1)
            rhs = (
                2 * drift.lambda_c * (risks + GAMMA**2 * np.sum(X * X, axis=1) / 4)
                - 2 * drift.A_c / BETA
            )
            assert np.all(lhs - rhs >= -1e-8 * (1 + np.abs(rhs)))

    def test_chunked_probes_certify_the_same_pair(self, monkeypatch):
        data = make_dataset("gaussian", 1000, 2, seed=5)
        obj = gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm())
        pairs = []
        for cap in (1 << 40, 7 * 8 * data.n):  # one (1000, n) call, then 7-row chunks
            monkeypatch.setattr(objectives, "_ROW_BYTES", cap)
            pairs.append(theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data))
        assert pairs[0] == pairs[1]

    def test_certification_memory_is_bounded(self):
        # one (1000, n) evaluation of the mixture's hooks at n = 2e4 peaks
        # near 600 MB; in chunks of objectives._ROW_BYTES it stays under 1 MB
        data = make_dataset("gaussian", 20_000, 2, seed=5)
        obj = gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm())
        tracemalloc.start()
        try:
            theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_unsatisfiable_certificate_errors(self, quad_data):
        # claim dissipativity the objective cannot deliver: f ~ -|x| direction
        obj = quadratic(2, m0=1.0)
        lying = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)

        def bad_grad(x, Z):
            return np.broadcast_to(-x, (Z.shape[0], 2)).copy()

        bad = ObjectiveSpec("bad", 2, obj.f, bad_grad, lying)
        with pytest.raises(CertificationError):
            theory.derive_drift_constants(lying, GAMMA, BETA, bad, quad_data)


class TestLyapunov:
    def test_origin_value(self, quad_obj, quad_data, quad_theory):
        lyap = quad_theory["lyap"]
        from sghmc.objectives import empirical_risk

        want = BETA * empirical_risk(np.zeros(2), quad_obj, quad_data)
        assert lyap.value(np.zeros(2), np.zeros(2)) == pytest.approx(want)

    def test_hand_value(self, quad_theory):
        got = quad_theory["lyap"].value(np.array([1.0, 0.0]), np.zeros(2))
        assert got == pytest.approx(1.375)

    def test_lower_bound_on_probes(self, builtin_suite):
        rng = derive_stream(29, "lyap-lower")
        for obj, data in builtin_suite:
            drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data, probes=400)
            lyap = theory.LyapunovParams(BETA, GAMMA, drift.lambda_c, obj, data)
            X = ball_probes(rng, 1000, obj.dim, 6.0)
            V = ball_probes(rng, 1000, obj.dim, 6.0)
            for x, v in zip(X, V):
                assert lyap.value(x, v) >= theory.lyapunov_lower_bound(lyap, x, v) - 1e-9

    def test_one_evaluation_of_v(self, builtin_suite):
        # at the golden runs' point law the integral of V, V at the point and
        # the one-row stack are one number, bit for bit, on every built-in
        x0, v0 = np.array([1.0, 0.0]), np.zeros(2)
        for obj, data in builtin_suite:
            drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data)
            lyap = theory.LyapunovParams(BETA, GAMMA, drift.lambda_c, obj, data)
            mu0 = theory.initial_lyapunov_integral(point_init(x0, v0), lyap, 2)
            rows = lyap.value_rows(x0[None], v0[None])
            assert mu0 == lyap.value(x0, v0) == rows[0], obj.name

    def test_rows_match_scalar(self, quad_theory):
        lyap = quad_theory["lyap"]
        rng = derive_stream(31, "lyap-rows")
        X = rng.standard_normal((16, 2))
        V = rng.standard_normal((16, 2))
        rows = lyap.value_rows(X, V)
        for i in range(16):
            assert rows[i] == pytest.approx(lyap.value(X[i], V[i]), rel=1e-12)


class TestContractionConstants:
    def test_alpha_identity(self, quad_obj, quad_theory):
        cc = quad_theory["cc"]
        want = (1.0 + 1.0 / cc.Lambda_c) * quad_obj.cert.M / GAMMA**2
        assert abs(cc.alpha_c - want) / want <= 1e-10

    def test_lambda_identity(self, quad_obj, quad_theory):
        cc = quad_theory["cc"]
        drift = quad_theory["drift"]
        one = 1 + 2 * cc.alpha_c + 2 * cc.alpha_c**2
        want = (
            2.4 * one * (2 + drift.A_c) * quad_obj.cert.M / GAMMA**2
            / (drift.lambda_c * (1 - 2 * drift.lambda_c))
        )
        assert abs(cc.Lambda_c - want) / want <= 1e-10

    def test_epsilon_identity_exact(self, quad_theory):
        cc = quad_theory["cc"]
        assert cc.epsilon_c == 4.0 * cc.c_star / (GAMMA * (2 + cc.A_c))

    def test_eta_identity_exact(self, quad_theory):
        cc = quad_theory["cc"]
        assert cc.eta_c == 1.0 / cc.Lambda_c
        # eta solves alpha = (1 + eta) L_c / (beta gamma^2) with L_c = beta M
        assert cc.alpha_c == pytest.approx(
            (1 + cc.eta_c) * cc.beta * cc.cert.M / (BETA * GAMMA**2), rel=1e-12
        )

    def test_rate_decreases_in_beta_and_d(self, quad_obj, quad_theory):
        drift = quad_theory["drift"]
        small = theory.contraction_constants(drift, quad_obj.cert, GAMMA, 1.0, 2, 2.0)
        large = theory.contraction_constants(drift, quad_obj.cert, GAMMA, 4.0, 8, 2.0)
        assert small.c_star > large.c_star

    def test_lambda_of_order_beta_plus_d(self):
        # Lambda_c = O(beta + d): Lambda_c / (beta + d) stays within a factor
        # 4 along the diagonal (beta, d) = (1, 2), (2, 4), (4, 8)
        ratios = []
        for beta, d in ((1.0, 2), (2.0, 4), (4.0, 8)):
            drift = theory.closed_form_drift(GRID_CERT, GAMMA, beta)
            cc = theory.contraction_constants(drift, GRID_CERT, GAMMA, beta, d)
            ratios.append(cc.Lambda_c / (beta + d))
        assert max(ratios) / min(ratios) <= 4.0

    @pytest.mark.parametrize("order, scale", [
        ("alpha_c", lambda beta, d: 1.0),
        ("R_1", lambda beta, d: math.sqrt(1.0 + d / beta)),
    ], ids=["alpha_c-of-order-one", "R_1-of-order-sqrt-one-plus-d-over-beta"])
    def test_growth_order_over_the_grid(self, order, scale):
        # alpha_c = O(1) and R_1 = O(sqrt(1 + d/beta)): the normalised value
        # stays within a factor 4 over (beta, d) in {1, 2, 4} x {2, 4, 8}
        ratios = []
        for beta in (1.0, 2.0, 4.0):
            drift = theory.closed_form_drift(GRID_CERT, GAMMA, beta)
            for d in (2, 4, 8):
                cc = theory.contraction_constants(drift, GRID_CERT, GAMMA, beta, d)
                ratios.append(getattr(cc, order) / scale(beta, d))
        assert max(ratios) / min(ratios) <= 4.0

    def test_p_range(self, quad_obj, quad_theory):
        with pytest.raises(ConfigurationError):
            theory.contraction_constants(quad_theory["drift"], quad_obj.cert, GAMMA, BETA, 2, p=3.0)

    @pytest.mark.parametrize("which", [1, 2], ids=["double_well", "gaussian_mixture"])
    def test_stiff_certificate_stays_in_log_space(self, builtin_suite, which):
        # Lambda_c is 1.67e4 (double well) and 4.04e4 (mixture): c* and C*
        # leave float range, their logs do not
        obj, data = builtin_suite[which]
        drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data)
        cc = theory.contraction_constants(drift, obj.cert, GAMMA, BETA, 2)
        assert cc.c_star == 0.0 and cc.epsilon_c == 0.0
        assert cc.C_star == math.inf
        assert math.isfinite(cc.log_c_star) and cc.log_c_star < -745.0
        assert math.isfinite(cc.log_C_star) and cc.log_C_star > 710.0


class TestHFunction:
    def test_zero_at_zero(self, quad_theory):
        assert theory.h_function(quad_theory["cc"], 0.0) == 0.0

    def test_unit_right_derivative(self, quad_theory):
        eps = 1e-6
        h = theory.h_function(quad_theory["cc"], eps)
        assert abs(h / eps - 1.0) <= 1e-3

    def test_flat_beyond_R1(self, quad_theory):
        cc = quad_theory["cc"]
        h_r1 = theory.h_function(cc, cc.R_1)
        for r in (cc.R_1 * 1.01, cc.R_1 * 2, cc.R_1 * 10):
            assert theory.h_function(cc, r) == h_r1

    def test_monotone_and_concave_on_grid(self, quad_theory):
        cc = quad_theory["cc"]
        grid, h_vals = theory.h_profile(cc)
        full = np.linspace(0, 2 * cc.R_1, 1000)
        h_full = np.where(full <= cc.R_1, np.interp(full, grid, h_vals), h_vals[-1])
        dh = np.diff(h_full)
        assert np.all(dh >= -1e-12)
        d2 = np.diff(h_full, 2)
        assert np.all(d2 <= 1e-6 * max(1.0, h_vals[-1]))

    def test_negative_r_rejected(self, quad_theory):
        with pytest.raises(ConfigurationError):
            theory.h_function(quad_theory["cc"], -1.0)

    def test_negative_correction_factor_reported(self, quad_theory):
        fast = dataclasses.replace(quad_theory["cc"], c_star=1.0)
        with pytest.raises(NumericalError, match="went negative at r = "):
            theory.h_function(fast, fast.R_1)
        with pytest.raises(NumericalError, match="went negative at r = "):
            theory.h_profile(fast)

    def test_nan_correction_factor_reported(self, quad_theory):
        broken = dataclasses.replace(quad_theory["cc"], c_star=math.nan)
        with pytest.raises(NumericalError, match="is NaN at r = "):
            theory.h_function(broken, broken.R_1)

    @pytest.mark.parametrize("which", [1, 2], ids=["double_well", "gaussian_mixture"])
    def test_stiff_profile_stays_finite(self, builtin_suite, which):
        # a R_1^2 is 1.7e4 and 5.6e4: exp(-a s^2) underflows on the grid and
        # Phi / phi overflows, while c* Phi / phi stays negligible, so g = 1
        # and h(R_1) is the Gaussian integral sqrt(pi / a) / 2
        obj, data = builtin_suite[which]
        drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data)
        cc = theory.contraction_constants(drift, obj.cert, GAMMA, BETA, 2)
        grid, h_vals = theory.h_profile(cc)
        a = (1 + cc.eta_c) * cc.beta * cc.cert.M / 8
        assert a * cc.R_1**2 > 1e4
        assert np.all(np.isfinite(h_vals)) and np.all(np.diff(h_vals) >= 0.0)
        assert h_vals[-1] == pytest.approx(math.sqrt(math.pi / a) / 2, rel=1e-9)

    def test_shifted_inner_integral_matches_direct(self, quad_theory):
        # a R_1^2 = 650 takes the shifted path, yet exp(-a s^2) still fits in
        # float, so the unshifted formula is the oracle; c* is chosen so that
        # g falls well below 1 without turning negative
        from scipy.integrate import cumulative_simpson

        cc = quad_theory["cc"]
        M = 8.0 * 650.0 / cc.R_1**2 / (1 + cc.eta_c) / cc.beta
        c_star = 1e-281
        stiff = dataclasses.replace(cc, cert=dataclasses.replace(cc.cert, M=M), c_star=c_star,
                                    log_c_star=math.log(c_star), epsilon_c=0.0)
        grid, got = theory.h_profile(stiff)
        a = (1 + cc.eta_c) * cc.beta * M / 8
        phi = np.exp(-a * grid * grid)
        Phi = cumulative_simpson(phi, x=grid, initial=0.0)
        g = 1.0 - 2.25 * c_star * GAMMA * BETA * cumulative_simpson(Phi / phi, x=grid, initial=0.0)
        assert 0.0 < g.min() < 0.9
        want = cumulative_simpson(phi * g, x=grid, initial=0.0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_simpson_port_matches_scipy(self):
        # the private port keeps scipy's unequal-interval operation order, so
        # it returns the same bits on every grid length, odd or even
        from scipy.integrate import cumulative_simpson

        for nodes in (*range(3, 40), 64, 65, 257, 1000, 2001, 4097):
            for r in (1e-3, 0.7, 13.0):
                s = np.linspace(0.0, r, nodes)
                for y in (np.exp(-2.0 * s * s), np.exp(-0.1 * s * s) * (1.0 - 0.3 * s),
                          np.cos(5.0 * s)):
                    want = cumulative_simpson(y, x=s, initial=0.0)
                    np.testing.assert_array_equal(theory._cumulative_simpson(y, s), want)

    def test_matches_adaptive_quadrature(self, quad_theory):
        # independent oracle: nested adaptive quadrature instead of the
        # composite-Simpson cumulative pass
        from scipy.integrate import quad

        cc = quad_theory["cc"]
        a = (1 + cc.eta_c) * cc.beta * cc.cert.M / 8 + (
            GAMMA**2 * BETA * cc.epsilon_c * max(1, 1 / (2 * cc.alpha_c)) / 2
        )
        phi = lambda s: math.exp(-a * s * s)
        Phi = lambda s: quad(phi, 0, s)[0]
        g = lambda s: 1 - 2.25 * cc.c_star * GAMMA * BETA * quad(
            lambda u: Phi(u) / phi(u), 0, s, limit=200
        )[0]
        for r in (0.5, 2.0, 7.0):
            want = quad(lambda s: phi(s) * g(s), 0, r, limit=200)[0]
            got = theory.h_function(cc, r)
            assert got == pytest.approx(want, rel=1e-6)


class TestSemimetrics:
    def test_identical_pair_zero(self, quad_theory):
        # r(s, s) = 0 and h(0) = 0: rho_cost of a cloud with itself has a zero diagonal
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        s = (np.array([1.0, 2.0]), np.array([0.5, -0.5]))
        A = derive_stream(35, "rho-diagonal").standard_normal((3, 4))
        assert np.all(np.diag(theory.rho_cost(cc, lyap, A, A)) == 0.0)
        assert theory.rho_semimetric(cc, lyap, s, s) == 0.0

    def test_unit_position_gap(self, quad_theory):
        # r = alpha_c |dx| + |dx + dv / gamma|: alpha_c + 1 for a unit gap in
        # x, 1 for a gap of gamma in v; rho_cost weighs h(r) by the Lyapunov term
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        b = np.zeros((1, 4))
        for a, r in (([1.0, 0.0, 0.0, 0.0], cc.alpha_c + 1.0), ([0.0, 0.0, GAMMA, 0.0], 1.0)):
            a = np.array([a])
            weight = 1.0 + cc.epsilon_c * (lyap.value(a[0, :2], a[0, 2:])
                                           + lyap.value(b[0, :2], b[0, 2:]))
            want = theory.h_function(cc, r) * weight
            assert theory.rho_cost(cc, lyap, a, b)[0, 0] == pytest.approx(want, rel=1e-12)

    def test_symmetry(self, quad_theory):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        rng = derive_stream(37, "rho-sym")
        for _ in range(100):
            a = (rng.standard_normal(2), rng.standard_normal(2))
            b = (rng.standard_normal(2), rng.standard_normal(2))
            assert theory.rho_semimetric(cc, lyap, a, b) == pytest.approx(
                theory.rho_semimetric(cc, lyap, b, a), rel=1e-12
            )

    @pytest.mark.parametrize("which", ["coupled_quadratic", "double_well"])
    def test_rho_is_the_one_point_cloud_distance(self, builtin_suite, which):
        # one evaluation of rho: the semimetric of two states is the rho
        # distance of the two one-point clouds, bit for bit
        if which == "coupled_quadratic":
            data = make_dataset("gaussian", 100, 2, seed=7)
            obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data.max_norm())
        else:
            obj, data = builtin_suite[1]
        drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data, probes=200)
        lyap = theory.LyapunovParams(BETA, GAMMA, drift.lambda_c, obj, data)
        cc = theory.contraction_constants(drift, obj.cert, GAMMA, BETA, 2)
        rng = derive_stream(43, "rho-one-point")
        for _ in range(50):
            a, b = rng.standard_normal((2, 4))
            rho = theory.rho_semimetric(cc, lyap, (a[:2], a[2:]), (b[:2], b[2:]))
            assert rho == rho_distance_cloud(SampleCloud(a[None]), SampleCloud(b[None]), cc, lyap)

    def test_rho_dominated_by_weighted_norm(self, quad_theory):
        # pointwise comparison: rho <= c_17 (1 + eps V(a) + eps V(b)) * |a - b|
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        c17 = 3.0 * max(1.0 + cc.alpha_c, 1.0 / GAMMA)
        rng = derive_stream(41, "rho-to-w")
        for _ in range(1000):
            a = (rng.standard_normal(2), rng.standard_normal(2))
            b = (rng.standard_normal(2), rng.standard_normal(2))
            rho = theory.rho_semimetric(cc, lyap, a, b)
            gap = math.sqrt(
                float(np.sum((a[0] - b[0]) ** 2)) + float(np.sum((a[1] - b[1]) ** 2))
            )
            bound = c17 * (1 + cc.epsilon_c * lyap.value(*a) + cc.epsilon_c * lyap.value(*b)) * gap
            assert rho <= bound * (1 + 1e-9)


class TestMomentBounds:
    def test_point_init_formula(self, quad_theory):
        drift = quad_theory["drift"]
        mom = quad_theory["moment"]
        want = 64.0 * (2 + drift.A_c) / (
            (1 - 2 * drift.lambda_c) * BETA * GAMMA**2 * drift.lambda_c
        )
        assert mom.C_a_x == pytest.approx(want, rel=1e-12)

    def test_discrete_exceeds_continuous(self, builtin_suite):
        for obj, data in builtin_suite:
            drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data, probes=300)
            mom = theory.moment_bound_constants(drift, obj.cert, GAMMA, BETA, obj.dim, 0.0)
            assert mom.C_a_x > mom.C_c_x
            assert mom.C_a_v > mom.C_c_v
            assert mom.lambda_cap > 0

    @pytest.mark.parametrize("delta", [-0.5, math.nan, math.inf])
    def test_noise_level_must_be_finite_and_nonnegative(self, quad_obj, quad_theory, delta):
        with pytest.raises(ConfigurationError, match="delta"):
            theory.moment_bound_constants(quad_theory["drift"], quad_obj.cert, GAMMA, BETA, 2,
                                          0.0, delta)

    def test_zero_B_makes_first_cap_arm_vacuous(self, quad_theory):
        mom = quad_theory["moment"]
        assert mom.K_2 == 0.0
        assert mom.lambda_cap == pytest.approx(
            GAMMA * quad_theory["drift"].lambda_c / (2 * mom.K_1)
        )


class TestProofConstants:
    def test_c17_plug(self, quad_theory):
        cert = SmoothnessCertificate(A0=0, B=0, M=1, m=1, b=0)
        fake = dataclasses.replace(quad_theory["cc"], cert=cert, alpha_c=0.5)
        table = theory.proof_constants(fake, quad_theory["moment"])
        assert table["c_17"].value == pytest.approx(4.5)

    def test_c7_self_consistency(self, quad_theory):
        table = theory.proof_constants(quad_theory["cc"], quad_theory["moment"])
        c7 = table["c_7"].value
        c9 = table["c_9"].value
        c10 = table["c_10"].value
        assert abs(c7 - math.sqrt(2 * c9) * math.exp(c10 / 2)) / c7 <= 1e-12

    def test_empirical_entries_need_pilot(self, quad_theory):
        bare = theory.proof_constants(quad_theory["cc"], quad_theory["moment"])
        assert "c_18" not in bare and "C_tilde" not in bare
        full = theory.proof_constants(quad_theory["cc"], quad_theory["moment"],
                                      pilot_sup_v2=50.0)
        assert full["c_18"].status == "empirical"
        assert full["C_tilde"].status == "empirical"
        assert math.isfinite(full["C_tilde"].value) and full["C_tilde"].value > 0

    def test_c_tilde_stable_under_step_halving(self, quad_obj, quad_data, quad_theory):
        # the only lambda dependence enters through the pilot sup of E V^2
        def pilot_sup(lam):
            cfg = SamplerConfig(lam=lam, gamma=GAMMA, beta=BETA, batch_size=None,
                                dim=2, seed=50, init=point_init([0.0, 0.0], [0.0, 0.0]))
            lyap = quad_theory["lyap"]
            res = ensemble_run(
                "sghmc", cfg, quad_obj, quad_data, steps=20_000, replicas=8,
                record_every=10**9,
                functionals=lambda X, V: {"v2": lyap.value_rows(X, V) ** 2},
            )
            return res.running_max["v2"]

        base = None
        for lam in (0.003, 0.0015):
            table = theory.proof_constants(quad_theory["cc"], quad_theory["moment"],
                                           pilot_sup_v2=pilot_sup(lam))
            val = table["C_tilde"].value
            if base is None:
                base = val
        assert abs(val - base) / base <= 0.10

    def test_steep_certificate_stays_in_log_space(self, quad_theory):
        # M = 25: c_10 = 4 M^2 = 2500, so exp(c_10 / 2) and everything built
        # on c_7 leave float range; their logs do not
        cert = SmoothnessCertificate(A0=10.0, B=0.0, M=25.0, m=0.6, b=10.0)
        table = theory.proof_constants(dataclasses.replace(quad_theory["cc"], cert=cert),
                                       quad_theory["moment"], pilot_sup_v2=50.0)
        c9, c10 = table["c_9"].value, table["c_10"].value
        assert table["c_7"].log == pytest.approx(0.5 * math.log(2 * c9) + c10 / 2, rel=1e-15)
        for key in ("c_7", "c_15", "c_16", "C_tilde"):
            assert table[key].value == math.inf and math.isfinite(table[key].log), key
        assert table["C_tilde"].log >= math.log(2.0) + table["c_7"].log
        doc = json.loads(harness.to_json(harness._constants_doc(table)))
        for key in ("c_7", "c_15", "c_16", "C_tilde"):
            assert doc[key]["status"] == "overflow"
            assert doc[key]["log10"] == pytest.approx(table[key].log / math.log(10.0))
        assert doc["c_2"]["status"] == "exact" and "log10" not in doc["c_2"]

    def test_json_serialization(self, quad_theory):
        table = theory.proof_constants(quad_theory["cc"], quad_theory["moment"])
        doc = harness.to_json(harness._constants_doc(table))
        assert '"status"' in doc and '"formula_ref"' in doc

    def test_strict_encoding_of_numpy_and_non_finite_values(self):
        doc = {"a": np.asarray(np.inf), "b": np.float64(-np.inf), "c": np.array([1.0, np.nan])}
        assert json.loads(harness.to_json(doc)) == {"a": "inf", "b": "-inf", "c": [1.0, "nan"]}


class TestRiskBound:
    @pytest.fixture()
    def proof(self, quad_theory):
        return theory.proof_constants(quad_theory["cc"], quad_theory["moment"],
                                      pilot_sup_v2=50.0)

    @staticmethod
    def _cc(quad_theory, d=1, **cert):
        """The quadratic's contraction constants at dimension d and the
        certificate (A0, B, M, m, b) = (0, 0, 1, 1, 0) with ``cert``'s
        overrides: B_2 and B_3 read only those and beta."""
        base = dict(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        return dataclasses.replace(quad_theory["cc"], d=d,
                                   cert=SmoothnessCertificate(**{**base, **cert}))

    def test_b3_hand_value(self, quad_theory, proof):
        rb = theory.risk_bound(
            self._cc(quad_theory), proof, 100, 0.001, 0.0,
            k=1000, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
        )
        assert rb.B_3 == pytest.approx(0.5)

    def test_b2_inverse_n(self, quad_theory, proof):
        cc = self._cc(quad_theory, d=2, B=0.5, b=1.0)
        kw = dict(k=1000, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0)
        big = theory.risk_bound(cc, proof, 200, 0.001, 0.0, **kw)
        small = theory.risk_bound(cc, proof, 100, 0.001, 0.0, **kw)
        assert small.B_2 == pytest.approx(2.0 * big.B_2, rel=1e-12)

    def test_b1_longrun_limit(self, quad_theory, proof):
        kw = dict(q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0)
        lam, delta = 0.001, 0.0
        late = theory.risk_bound(self._cc(quad_theory), proof, 100, lam, delta, k=10**9, **kw)
        c_tilde = proof["C_tilde"].value
        want = (1.0 * 1.0 + 0.0) * c_tilde * (lam ** 0.25 + delta ** 0.25)
        assert late.B_1 == pytest.approx(want, rel=1e-6)

    def test_pq_validation(self, quad_theory, proof):
        # cc.p = 2 pairs with q = 1 only
        with pytest.raises(ConfigurationError, match="violates"):
            theory.risk_bound(
                self._cc(quad_theory), proof, 100, 0.001, 0.0,
                k=10, q=2, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
            )
        theory.check_pq(2.0, 1)
        theory.check_pq(4.0 / 3.0, 2)
        with pytest.raises(ConfigurationError):
            theory.check_pq(1.5, 1)

    @pytest.mark.parametrize("over, what", [
        ({"sigma": -1.0}, "sigma"), ({"sigma": math.nan}, "sigma"), ({"k": -5}, "k must"),
        ({"c_ls": -1.0}, "c_ls"), ({"c_ls": math.inf}, "c_ls"),
    ], ids=["sigma-neg", "sigma-nan", "k-neg", "c-ls-neg", "c-ls-inf"])
    def test_out_of_range_inputs_rejected(self, quad_theory, proof, over, what):
        kw = dict(k=10, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0)
        kw.update(over)
        with pytest.raises(ConfigurationError, match=what):
            theory.risk_bound(self._cc(quad_theory), proof, 100, 0.001, 0.0, **kw)

    def test_inputs_echo_the_contraction_constants(self, quad_theory, proof):
        # d, beta, gamma and p of the bound are the ones cc was evaluated at
        cc = quad_theory["cc"]
        rb = theory.risk_bound(cc, proof, 100, 0.001, 0.0, k=10, q=1, sigma=1.0,
                               w_rho_init=1.0, lambda_star=1.0)
        echo = {key: rb.inputs[key] for key in ("d", "beta", "gamma", "p")}
        assert echo == {"d": cc.d, "beta": cc.beta, "gamma": cc.gamma, "p": cc.p}
        assert echo == {"d": 2, "beta": BETA, "gamma": GAMMA, "p": 2.0}

    def test_c_ls_from_spectral_gap(self):
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        got = theory.log_sobolev_constant(cert, beta=1.0, d=1, lambda_star=2.0)
        want = (2 + 8) / 1.0 + (6 * 2 / 1 + 2) / 2.0
        assert got == pytest.approx(want)

    def test_b3_increasing_in_b(self, quad_theory, proof):
        def b3(b):
            return theory.risk_bound(
                self._cc(quad_theory, b=b), proof, 100, 0.001, 0.0,
                k=10, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
            ).B_3

        vals = [b3(b) for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_b1_decreasing_in_k(self, quad_theory, proof):
        def b1(k):
            return theory.risk_bound(
                self._cc(quad_theory), proof, 100, 0.001, 0.0,
                k=k, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
            ).B_1

        ks = [10, 10**4, 10**8]
        vals = [b1(k) for k in ks]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


class TestIterationBudget:
    @staticmethod
    def _cc(c_star, C_star):
        return theory.ContractionConstants(
            cert=GRID_CERT, gamma=GAMMA, beta=BETA, d=2, p=2.0,
            c_star=c_star, C_star=C_star, Lambda_c=10.0, alpha_c=0.3,
            epsilon_c=1e-3, R_1=5.0, eta_c=0.1, A_c=1.0,
            log_c_star=math.log(c_star), log_C_star=math.log(C_star),
            log_epsilon_c=math.log(1e-3),
        )

    C_TILDE = theory.ConstantEntry(10.0, "empirical", "C~", math.log(10.0))

    def test_hand_value(self):
        cc = self._cc(0.01, 5.0)
        cap, k_min = theory.iteration_budget(cc, self.C_TILDE, 0.5, 1.0)
        assert cap == pytest.approx(0.5 / 20.0)
        want = math.ceil((20.0**4 / 0.01) * 0.5**-4 * math.log(5.0 / 0.5))
        assert k_min == want

    def test_zero_when_already_converged(self):
        cc = self._cc(0.01, 5.0)
        _, k_min = theory.iteration_budget(cc, self.C_TILDE, 5.0, 1.0)
        assert k_min == 0

    def test_waiting_shrinks_fast_in_eps(self):
        cc = self._cc(0.01, 50.0)
        _, k1 = theory.iteration_budget(cc, self.C_TILDE, 0.25, 1.0)
        _, k2 = theory.iteration_budget(cc, self.C_TILDE, 0.5, 1.0)
        assert k1 > k2 * 2**4


class TestLyapunovMomentCertificate:
    # first 16 hex digits of the SHA-256 of the JSON report (sort_keys) at
    # gamma = 2, beta = 1, d = 2, lam = 0.01, V_0 = 1 on each built-in's
    # certificate and GRID_CERT. They were recorded with the chi-moment
    # polynomial raised by numpy.polynomial.polypow and hold, to the bit, with
    # the np.convolve expansion
    REPORTS = {
        ("quadratic", 1): "3e8df398f07b03ef", ("quadratic", 2): "8c7243f8b8e23c07",
        ("double_well", 1): "16c1ac21cecfdde0", ("double_well", 2): "61ff9407f9aa7c65",
        ("gaussian_mixture", 1): "72d14407d7508e47", ("gaussian_mixture", 2): "a8fb4673f92355d6",
        ("grid", 1): "95b35366cd81f3dc", ("grid", 2): "56596e4e1ddeefdc",
    }

    @pytest.mark.parametrize("name, q", sorted(REPORTS))
    def test_report_pinned(self, builtin_suite, name, q):
        certs = {obj.name: obj.cert for obj, _ in builtin_suite}
        cert = GRID_CERT if name == "grid" else certs[name]
        drift = theory.closed_form_drift(cert, GAMMA, BETA)
        rep = theory.lyapunov_moment_certificate(drift, cert, GAMMA, BETA, 2, q, lam=0.01,
                                                 v0_lyapunov=1.0)
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == self.REPORTS[name, q]

    @staticmethod
    def _closed_form(drift, cert, gamma, beta, d, q, lam):
        """The report's numbers from the certificate's own K_1 = max(16 M^2 (3 +
        2 gamma) / ((1 - 2 lambda_c) gamma^2), ...) and K_2 = B^2 (3 + 2 gamma)."""
        lam_c, a_c, M, B = drift.lambda_c, drift.A_c, cert.M, cert.B
        one = 1.0 - 2.0 * lam_c
        K1 = max(16.0 * M * M * (3.0 + 2.0 * gamma) / (one * gamma**2),
                 8.0 * (M / 2.0 + gamma**2 / 4.0 - gamma**2 * lam_c / 4.0 + gamma) / one)
        K2 = B * B * (3.0 + 2.0 * gamma)
        P1 = 2.0 * max(32.0 * gamma * (3.0 * gamma**2 + 10.0 * M * M) / (beta * one * gamma**2),
                       16.0 * gamma * (3.0 + 2.0 * (1.0 - lam * gamma) ** 2) / (beta * one))
        P2 = 20.0 * gamma * B * B / beta
        c19 = gamma * a_c + beta * K2 + gamma * d
        e2, e4, e2q = (theory.gaussian_norm_moment(d, j) for j in (2, 4, 2 * q))
        a, b = gamma * a_c + beta * K2, beta * math.sqrt(P2)
        coeffs = base = np.array([a, b, gamma])
        for _ in range(2 * q - 1):
            coeffs = np.convolve(coeffs, base)
        e_poly = float(sum(c * theory.gaussian_norm_moment(d, j) for j, c in enumerate(coeffs)))
        m1 = max((a * a + gamma**2 * e4 + beta**2 * d * P2) / (beta * d * P1),
                 e_poly ** (1.0 / q) / (beta * P1 * e2q ** (1.0 / q)))
        gl, r = gamma * lam_c, q * (2 * q - 1)
        m_tilde = max(m1, 24.0 * c19 * q / gl, 72.0 * r * 2.0 ** (2 * q - 3) * beta * d * P1 / gl,
                      (12.0 * r * 2.0 ** (4 * q - 3) * beta**q * P1**q * e2q / gl) ** (1.0 / q))
        n_tilde = (2.0 * c19 * q * m_tilde ** (2 * q - 1)
                   + 6.0 * r * 2.0 ** (2 * q - 3) * beta * d * P1 * m_tilde ** (2 * q - 1)
                   + r * 2.0 ** (4 * q - 3) * beta**q * P1**q * e2q * m_tilde**q)
        return {"q": q, "lambda": lam, "phi": 1.0 - lam * gamma * lam_c / 2.0, "K_1": K1,
                "K_2": K2, "P_1": P1, "P_2": P2, "c_19": c19, "M_tilde_1": m1,
                "M_tilde": m_tilde, "N_tilde": n_tilde,
                "decay_factor": 1.0 - lam * gamma * lam_c / 4.0, "v0_lyapunov": 1.0,
                "bound_tail": 4.0 * n_tilde / gl, "bound_sup": 1.0 + 4.0 * n_tilde / gl,
                "gaussian_moments": {"E|xi|^2": e2, "E|xi|^4": e4, f"E|xi|^{2*q}": e2q}}

    @pytest.mark.parametrize("name", ["quadratic", "double_well", "gaussian_mixture", "grid"])
    def test_moment_constants_match_the_closed_forms(self, builtin_suite, name):
        # K_1 and K_2 are moment_bound_constants' at delta = 1: K_2 to the bit,
        # K_1 (scaled by beta) within an ulp or so, and every other number to the bit
        cert = GRID_CERT if name == "grid" else {o.name: o.cert for o, _ in builtin_suite}[name]
        for gamma in (0.5, 2.0, 8.0):
            for beta in (0.5, 1.0, 1.7, 8.0):
                drift = theory.closed_form_drift(cert, gamma, beta)
                for q in (1, 2):
                    rep = theory.lyapunov_moment_certificate(drift, cert, gamma, beta, 2, q,
                                                             lam=0.01, v0_lyapunov=1.0)
                    want = self._closed_form(drift, cert, gamma, beta, 2, q, 0.01)
                    assert rep["K_1"] == pytest.approx(want.pop("K_1"), rel=1e-15, abs=0.0)
                    assert {k: v for k, v in rep.items() if k != "K_1"} == want

    def test_phi_plug(self, quad_obj, quad_theory):
        drift = quad_theory["drift"]
        lam = 0.02 / (GAMMA * drift.lambda_c)
        rep = theory.lyapunov_moment_certificate(
            drift, quad_obj.cert, GAMMA, BETA, 2, q=1, lam=lam, v0_lyapunov=0.0
        )
        assert rep["phi"] == pytest.approx(0.99)

    def test_gaussian_moments(self):
        assert theory.gaussian_norm_moment(3, 2) == pytest.approx(3.0)
        assert theory.gaussian_norm_moment(3, 4) == pytest.approx(15.0)
        for d in (1, 2, 5):
            assert theory.gaussian_norm_moment(d, 2) == pytest.approx(d)
            assert theory.gaussian_norm_moment(d, 4) == pytest.approx(d * d + 2 * d)

    def test_gaussian_moments_match_gammaln_and_products(self):
        # exp(lgamma - lgamma) turns the lgamma values' rounding (a few ulp of
        # their magnitude) into relative error, so the tolerance scales with it
        from scipy.special import gammaln

        eps = np.finfo(float).eps
        for d in range(1, 21):
            for j in range(0, 17):
                got = theory.gaussian_norm_moment(d, j)
                scale = max(1.0, abs(math.lgamma((d + j) / 2)), abs(math.lgamma(d / 2)))
                ref = 2.0 ** (j / 2.0) * math.exp(gammaln((d + j) / 2.0) - gammaln(d / 2.0))
                assert abs(got - ref) <= 4 * eps * scale * ref
                if j % 2 == 0:
                    exact = math.prod(range(d, d + j, 2))  # d (d + 2) ... (d + j - 2)
                    assert abs(got - exact) <= 1e-15 * scale * exact

    def test_monte_carlo_moment_agreement(self):
        rng = derive_stream(43, "chi-mc")
        xi = rng.standard_normal((200_000, 4))
        s = np.linalg.norm(xi, axis=1)
        for j in (1, 2, 3, 4):
            mc = float(np.mean(s**j))
            assert theory.gaussian_norm_moment(4, j) == pytest.approx(mc, rel=0.02)

    def test_pilot_within_bound(self, quad_obj, quad_data, quad_theory):
        drift = quad_theory["drift"]
        lyap = quad_theory["lyap"]
        lam = min(0.003, quad_theory["moment"].lambda_cap)
        cfg = SamplerConfig(lam=lam, gamma=GAMMA, beta=BETA, batch_size=None,
                            dim=2, seed=61, init=point_init([0.0, 0.0], [0.0, 0.0]))
        for q in (1, 2):
            res = ensemble_run(
                "sghmc", cfg, quad_obj, quad_data, steps=20_000, replicas=8,
                record_every=10**9,
                functionals=lambda X, V: {"v2q": lyap.value_rows(X, V) ** (2 * q)},
            )
            rep = theory.lyapunov_moment_certificate(
                drift, quad_obj.cert, GAMMA, BETA, 2, q=q, lam=lam,
                v0_lyapunov=lyap.value(np.zeros(2), np.zeros(2)),
                pilot_max_v2q=res.running_max["v2q"],
            )
            assert rep["satisfied"]

    def test_q_validation(self, quad_obj, quad_theory):
        with pytest.raises(ConfigurationError):
            theory.lyapunov_moment_certificate(
                quad_theory["drift"], quad_obj.cert, GAMMA, BETA, 2, q=3, lam=0.01,
                v0_lyapunov=0.0,
            )
