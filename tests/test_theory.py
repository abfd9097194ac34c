import dataclasses
import json
import math

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
from sghmc import theory
from sghmc.samplers import SamplerConfig, ensemble_run
from sghmc.rng import derive_stream

from conftest import ball_probes, GAMMA, BETA


class TestDriftConstants:
    def test_quadratic_half_cap(self, quad_theory):
        # min(1/4, 1/(1 + 0 + 2)) / 2 = 1/8 for (m, M, B, gamma) = (1, 1, 0, 2)
        assert quad_theory["drift"].lambda_c == pytest.approx(0.125, abs=0)

    def test_zero_friction_rejected(self, quad_obj, quad_data):
        with pytest.raises(ConfigurationError, match="gamma must be positive"):
            theory.derive_drift_constants(quad_obj.cert, 0.0, BETA, quad_obj, quad_data)

    def test_degenerate_certificate_floors_A_c(self, quad_obj, quad_data, quad_theory):
        a_c = quad_theory["drift"].A_c
        assert a_c > 0.0
        assert a_c <= 1e-300  # floored at the smallest positive float

    def test_builtins_verify_on_probes(self, builtin_suite):
        for obj, data in builtin_suite:
            drift = theory.derive_drift_constants(
                obj.cert, GAMMA, BETA, obj, data, probes=1000, radius=10.0
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
        got = theory.lyapunov(quad_theory["lyap"], np.array([1.0, 0.0]), np.zeros(2))
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
            (1 + cc.eta_c) * cc.L_c / (BETA * GAMMA**2), rel=1e-12
        )

    def test_rate_decreases_in_beta_and_d(self, quad_obj, quad_theory):
        drift = quad_theory["drift"]
        small = theory.contraction_constants(drift, quad_obj.cert, GAMMA, 1.0, 2, 2.0)
        large = theory.contraction_constants(drift, quad_obj.cert, GAMMA, 4.0, 8, 2.0)
        assert small.c_star > large.c_star

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
        assert theory.h_function(quad_theory["cc"], BETA, GAMMA, 0.0) == 0.0

    def test_unit_right_derivative(self, quad_theory):
        eps = 1e-6
        h = theory.h_function(quad_theory["cc"], BETA, GAMMA, eps)
        assert abs(h / eps - 1.0) <= 1e-3

    def test_flat_beyond_R1(self, quad_theory):
        cc = quad_theory["cc"]
        h_r1 = theory.h_function(cc, BETA, GAMMA, cc.R_1)
        for r in (cc.R_1 * 1.01, cc.R_1 * 2, cc.R_1 * 10):
            assert theory.h_function(cc, BETA, GAMMA, r) == h_r1

    def test_monotone_and_concave_on_grid(self, quad_theory):
        cc = quad_theory["cc"]
        grid, h_vals = theory.h_profile(cc, BETA, GAMMA, nodes=2000)
        full = np.linspace(0, 2 * cc.R_1, 1000)
        h_full = np.where(full <= cc.R_1, np.interp(full, grid, h_vals), h_vals[-1])
        dh = np.diff(h_full)
        assert np.all(dh >= -1e-12)
        d2 = np.diff(h_full, 2)
        assert np.all(d2 <= 1e-6 * max(1.0, h_vals[-1]))

    def test_negative_r_rejected(self, quad_theory):
        with pytest.raises(ConfigurationError):
            theory.h_function(quad_theory["cc"], BETA, GAMMA, -1.0)

    def test_negative_correction_factor_reported(self, quad_theory):
        fast = dataclasses.replace(quad_theory["cc"], c_star=1.0)
        with pytest.raises(NumericalError, match="went negative at r = "):
            theory.h_function(fast, BETA, GAMMA, fast.R_1)
        with pytest.raises(NumericalError, match="went negative at r = "):
            theory.h_profile(fast, BETA, GAMMA)

    def test_nan_correction_factor_reported(self, quad_theory):
        broken = dataclasses.replace(quad_theory["cc"], c_star=math.nan)
        with pytest.raises(NumericalError, match="is NaN at r = "):
            theory.h_function(broken, BETA, GAMMA, broken.R_1)

    @pytest.mark.parametrize("which", [1, 2], ids=["double_well", "gaussian_mixture"])
    def test_stiff_profile_stays_finite(self, builtin_suite, which):
        # a R_1^2 is 1.7e4 and 5.6e4: exp(-a s^2) underflows on the grid and
        # Phi / phi overflows, while c* Phi / phi stays negligible, so g = 1
        # and h(R_1) is the Gaussian integral sqrt(pi / a) / 2
        obj, data = builtin_suite[which]
        drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data)
        cc = theory.contraction_constants(drift, obj.cert, GAMMA, BETA, 2)
        grid, h_vals = theory.h_profile(cc, BETA, GAMMA)
        a = (1 + cc.eta_c) * cc.L_c / 8
        assert a * cc.R_1**2 > 1e4
        assert np.all(np.isfinite(h_vals)) and np.all(np.diff(h_vals) >= 0.0)
        assert h_vals[-1] == pytest.approx(math.sqrt(math.pi / a) / 2, rel=1e-9)

    def test_shifted_inner_integral_matches_direct(self, quad_theory):
        # a R_1^2 = 650 takes the shifted path, yet exp(-a s^2) still fits in
        # float, so the unshifted formula is the oracle; c* is chosen so that
        # g falls well below 1 without turning negative
        from scipy.integrate import cumulative_simpson

        cc = quad_theory["cc"]
        L_c = 8.0 * 650.0 / cc.R_1**2 / (1 + cc.eta_c)
        c_star = 1e-281
        stiff = dataclasses.replace(cc, L_c=L_c, c_star=c_star, log_c_star=math.log(c_star),
                                    epsilon_c=0.0)
        grid, got = theory.h_profile(stiff, BETA, GAMMA, nodes=2000)
        a = (1 + cc.eta_c) * L_c / 8
        phi = np.exp(-a * grid * grid)
        Phi = cumulative_simpson(phi, x=grid, initial=0.0)
        g = 1.0 - 2.25 * c_star * GAMMA * BETA * cumulative_simpson(Phi / phi, x=grid, initial=0.0)
        assert 0.0 < g.min() < 0.9
        want = cumulative_simpson(phi * g, x=grid, initial=0.0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_matches_adaptive_quadrature(self, quad_theory):
        # independent oracle: nested adaptive quadrature instead of the
        # composite-Simpson cumulative pass
        from scipy.integrate import quad

        cc = quad_theory["cc"]
        a = (1 + cc.eta_c) * cc.L_c / 8 + (
            GAMMA**2 * BETA * cc.epsilon_c * max(1, 1 / (2 * cc.alpha_c)) / 2
        )
        phi = lambda s: math.exp(-a * s * s)
        Phi = lambda s: quad(phi, 0, s)[0]
        g = lambda s: 1 - 2.25 * cc.c_star * GAMMA * BETA * quad(
            lambda u: Phi(u) / phi(u), 0, s, limit=200
        )[0]
        for r in (0.5, 2.0, 7.0):
            want = quad(lambda s: phi(s) * g(s), 0, r, limit=200)[0]
            got = theory.h_function(cc, BETA, GAMMA, r)
            assert got == pytest.approx(want, rel=1e-6)


class TestSemimetrics:
    def test_identical_pair_zero(self, quad_theory):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        s = (np.array([1.0, 2.0]), np.array([0.5, -0.5]))
        assert theory.r_semimetric(cc, s, s, GAMMA) == 0.0
        assert theory.rho_semimetric(cc, lyap, s, s) == 0.0

    def test_unit_position_gap(self, quad_theory):
        cc = quad_theory["cc"]
        a = (np.array([1.0, 0.0]), np.zeros(2))
        b = (np.array([0.0, 0.0]), np.zeros(2))
        assert theory.r_semimetric(cc, a, b, GAMMA) == pytest.approx(cc.alpha_c + 1.0)

    def test_symmetry(self, quad_theory):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        rng = derive_stream(37, "rho-sym")
        for _ in range(100):
            a = (rng.standard_normal(2), rng.standard_normal(2))
            b = (rng.standard_normal(2), rng.standard_normal(2))
            assert theory.rho_semimetric(cc, lyap, a, b, nodes=512) == pytest.approx(
                theory.rho_semimetric(cc, lyap, b, a, nodes=512), rel=1e-12
            )

    def test_rho_dominated_by_weighted_norm(self, quad_theory):
        # pointwise comparison: rho <= c_17 (1 + eps V(a) + eps V(b)) * |a - b|
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        c17 = 3.0 * max(1.0 + cc.alpha_c, 1.0 / GAMMA)
        rng = derive_stream(41, "rho-to-w")
        for _ in range(1000):
            a = (rng.standard_normal(2), rng.standard_normal(2))
            b = (rng.standard_normal(2), rng.standard_normal(2))
            rho = theory.rho_semimetric(cc, lyap, a, b, nodes=512)
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

    def test_zero_B_makes_first_cap_arm_vacuous(self, quad_theory):
        mom = quad_theory["moment"]
        assert mom.K_2 == 0.0
        assert mom.lambda_cap == pytest.approx(
            GAMMA * quad_theory["drift"].lambda_c / (2 * mom.K_1)
        )


class TestProofConstants:
    def test_c17_plug(self, quad_theory):
        cc = quad_theory["cc"]
        fake = type(cc)(
            c_star=cc.c_star, C_star=cc.C_star, Lambda_c=cc.Lambda_c, alpha_c=0.5,
            epsilon_c=cc.epsilon_c, R_1=cc.R_1, L_c=cc.L_c, eta_c=cc.eta_c, p=2.0,
            d=2, A_c=cc.A_c, lambda_c=cc.lambda_c, log_c_star=cc.log_c_star,
            log_C_star=cc.log_C_star,
        )
        cert = SmoothnessCertificate(A0=0, B=0, M=1, m=1, b=0)
        table = theory.proof_constants(cert, quad_theory["moment"], 2.0, BETA, 0.0, fake)
        assert table["c_17"].value == pytest.approx(4.5)

    def test_c7_self_consistency(self, quad_obj, quad_theory):
        table = theory.proof_constants(
            quad_obj.cert, quad_theory["moment"], GAMMA, BETA, 0.0, quad_theory["cc"]
        )
        c7 = table["c_7"].value
        c9 = table["c_9"].value
        c10 = table["c_10"].value
        assert abs(c7 - math.sqrt(2 * c9) * math.exp(c10 / 2)) / c7 <= 1e-12

    def test_empirical_entries_need_pilot(self, quad_obj, quad_theory):
        bare = theory.proof_constants(
            quad_obj.cert, quad_theory["moment"], GAMMA, BETA, 0.0, quad_theory["cc"]
        )
        assert "c_18" not in bare and "C_tilde" not in bare
        full = theory.proof_constants(
            quad_obj.cert, quad_theory["moment"], GAMMA, BETA, 0.0, quad_theory["cc"],
            pilot_sup_v2=50.0,
        )
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
                functionals={"v2": lambda X, V: lyap.value_rows(X, V) ** 2},
            )
            return res.running_max["v2"]

        base = None
        for lam in (0.003, 0.0015):
            table = theory.proof_constants(
                quad_obj.cert, quad_theory["moment"], GAMMA, BETA, 0.0,
                quad_theory["cc"], pilot_sup_v2=pilot_sup(lam),
            )
            val = table["C_tilde"].value
            if base is None:
                base = val
        assert abs(val - base) / base <= 0.10

    def test_steep_certificate_stays_in_log_space(self, quad_theory):
        # M = 25: c_10 = 4 M^2 = 2500, so exp(c_10 / 2) and everything built
        # on c_7 leave float range; their logs do not
        cert = SmoothnessCertificate(A0=10.0, B=0.0, M=25.0, m=0.6, b=10.0)
        table = theory.proof_constants(cert, quad_theory["moment"], GAMMA, BETA, 0.0,
                                       quad_theory["cc"], pilot_sup_v2=50.0)
        c9, c10 = table["c_9"].value, table["c_10"].value
        assert table["c_7"].log == pytest.approx(0.5 * math.log(2 * c9) + c10 / 2, rel=1e-15)
        for key in ("c_7", "c_15", "c_16", "C_tilde"):
            assert table[key].value == math.inf and math.isfinite(table[key].log), key
        assert table["C_tilde"].log >= math.log(2.0) + table["c_7"].log
        doc = json.loads(theory.constants_to_json(table))
        for key in ("c_7", "c_15", "c_16", "C_tilde"):
            assert doc[key]["status"] == "overflow"
            assert doc[key]["log10"] == pytest.approx(table[key].log / math.log(10.0))
        assert doc["c_2"]["status"] == "exact" and "log10" not in doc["c_2"]

    def test_json_serialization(self, quad_obj, quad_theory):
        table = theory.proof_constants(
            quad_obj.cert, quad_theory["moment"], GAMMA, BETA, 0.0, quad_theory["cc"]
        )
        doc = theory.constants_to_json(table)
        assert '"status"' in doc and '"formula_ref"' in doc

    def test_strict_encoding_of_numpy_and_non_finite_values(self):
        doc = {"a": np.asarray(np.inf), "b": np.float64(-np.inf), "c": np.array([1.0, np.nan])}
        assert json.loads(theory.to_json(doc)) == {"a": "inf", "b": "-inf", "c": [1.0, "nan"]}


class TestRiskBound:
    @pytest.fixture()
    def proof(self, quad_obj, quad_theory):
        return theory.proof_constants(
            quad_obj.cert, quad_theory["moment"], GAMMA, BETA, 0.0,
            quad_theory["cc"], pilot_sup_v2=50.0,
        )

    def test_b3_hand_value(self, quad_theory, proof):
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        rb = theory.risk_bound(
            quad_theory["cc"], proof, cert, GAMMA, 1.0, 1, 100, 0.001, 0.0,
            k=1000, p=2.0, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
        )
        assert rb.B_3 == pytest.approx(0.5)

    def test_b2_inverse_n(self, quad_theory, proof):
        cert = SmoothnessCertificate(A0=0.0, B=0.5, M=1.0, m=1.0, b=1.0)
        kw = dict(k=1000, p=2.0, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0)
        big = theory.risk_bound(quad_theory["cc"], proof, cert, GAMMA, 1.0, 2, 200, 0.001, 0.0, **kw)
        small = theory.risk_bound(quad_theory["cc"], proof, cert, GAMMA, 1.0, 2, 100, 0.001, 0.0, **kw)
        assert small.B_2 == pytest.approx(2.0 * big.B_2, rel=1e-12)

    def test_b1_longrun_limit(self, quad_theory, proof):
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        kw = dict(p=2.0, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0)
        lam, delta = 0.001, 0.0
        late = theory.risk_bound(
            quad_theory["cc"], proof, cert, GAMMA, 1.0, 1, 100, lam, delta, k=10**9, **kw
        )
        c_tilde = proof["C_tilde"].value
        want = (1.0 * 1.0 + 0.0) * c_tilde * (lam ** 0.25 + delta ** 0.25)
        assert late.B_1 == pytest.approx(want, rel=1e-6)

    def test_pq_validation(self, quad_theory, proof):
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        with pytest.raises(ConfigurationError):
            theory.risk_bound(
                quad_theory["cc"], proof, cert, GAMMA, 1.0, 1, 100, 0.001, 0.0,
                k=10, p=1.5, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
            )
        theory.check_pq(2.0, 1)
        theory.check_pq(4.0 / 3.0, 2)
        with pytest.raises(ConfigurationError):
            theory.check_pq(1.5, 1)

    def test_c_ls_from_spectral_gap(self):
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        got = theory.log_sobolev_constant(cert, beta=1.0, d=1, lambda_star=2.0)
        want = (2 + 8) / 1.0 + (6 * 2 / 1 + 2) / 2.0
        assert got == pytest.approx(want)

    def test_b3_increasing_in_b(self, quad_theory, proof):
        def b3(b):
            cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=b)
            return theory.risk_bound(
                quad_theory["cc"], proof, cert, GAMMA, 1.0, 1, 100, 0.001, 0.0,
                k=10, p=2.0, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
            ).B_3

        vals = [b3(b) for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_b1_decreasing_in_k(self, quad_theory, proof):
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)

        def b1(k):
            return theory.risk_bound(
                quad_theory["cc"], proof, cert, GAMMA, 1.0, 1, 100, 0.001, 0.0,
                k=k, p=2.0, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0,
            ).B_1

        ks = [10, 10**4, 10**8]
        vals = [b1(k) for k in ks]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


class TestIterationBudget:
    @staticmethod
    def _cc(c_star, C_star):
        return theory.ContractionConstants(
            c_star=c_star, C_star=C_star, Lambda_c=10.0, alpha_c=0.3,
            epsilon_c=1e-3, R_1=5.0, L_c=1.0, eta_c=0.1, p=2.0, d=2, A_c=1.0,
            lambda_c=0.125, log_c_star=math.log(c_star), log_C_star=math.log(C_star),
        )

    def test_hand_value(self):
        cc = self._cc(0.01, 5.0)
        cap, k_min = theory.iteration_budget(cc, 10.0, 0.5, 2.0, 1.0)
        assert cap == pytest.approx(0.5 / 20.0)
        want = math.ceil((20.0**4 / 0.01) * 0.5**-4 * math.log(5.0 / 0.5))
        assert k_min == want

    def test_zero_when_already_converged(self):
        cc = self._cc(0.01, 5.0)
        _, k_min = theory.iteration_budget(cc, 10.0, 5.0, 2.0, 1.0)
        assert k_min == 0

    def test_waiting_shrinks_fast_in_eps(self):
        cc = self._cc(0.01, 50.0)
        _, k1 = theory.iteration_budget(cc, 10.0, 0.25, 2.0, 1.0)
        _, k2 = theory.iteration_budget(cc, 10.0, 0.5, 2.0, 1.0)
        assert k1 > k2 * 2**4


class TestScalingOrders:
    CERT = SmoothnessCertificate(A0=1.0, B=0.5, M=1.0, m=1.0, b=1.0)

    def test_A_c_linear_in_beta(self):
        table = theory.scaling_orders([1.0, 2.0, 4.0], [2], self.CERT, GAMMA)
        for row in table["rows"]:
            assert row["A_c_over_beta"] == pytest.approx((1 + 1 + 1) / 2.0)

    def test_log_rate_slope_negative(self):
        table = theory.scaling_orders([1.0, 2.0, 4.0], [2, 4, 8], self.CERT, GAMMA)
        rows = {(r["beta"], r["d"]): r for r in table["rows"]}
        diag = [rows[(1.0, 2)], rows[(2.0, 4)], rows[(4.0, 8)]]
        slope = np.polyfit(
            [r["beta"] + r["d"] for r in diag], [r["log_c_star"] for r in diag], 1
        )[0]
        assert slope < 0.0

    def test_lambda_order_within_factor_four(self):
        table = theory.scaling_orders([1.0, 2.0, 4.0], [2, 4, 8], self.CERT, GAMMA)
        rows = {(r["beta"], r["d"]): r for r in table["rows"]}
        ratios = [rows[k]["Lambda_c_over_beta_plus_d"] for k in ((1.0, 2), (2.0, 4), (4.0, 8))]
        assert max(ratios) / min(ratios) <= 4.0

    def test_rows_are_contraction_constants(self):
        lam_c = 0.5 * theory.lambda_c_cap(self.CERT, GAMMA)
        table = theory.scaling_orders([1.0, 2.0, 4.0], [2, 4, 8], self.CERT, GAMMA)
        for row in table["rows"]:
            drift = theory.DriftConstants(lam_c, row["A_c"])
            cc = theory.contraction_constants(drift, self.CERT, GAMMA, row["beta"], row["d"])
            for key in ("A_c", "Lambda_c", "alpha_c", "c_star", "log_c_star", "C_star",
                        "log_C_star", "R_1"):
                assert row[key] == getattr(cc, key), key

    def test_survives_underflow_regime(self):
        stiff = SmoothnessCertificate(A0=1.0, B=0.5, M=12.0, m=1.0, b=2.0)
        table = theory.scaling_orders([1.0], [2], stiff, GAMMA)
        row = table["rows"][0]
        assert row["c_star"] == 0.0
        assert math.isfinite(row["log_c_star"])


class TestLyapunovMomentCertificate:
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
                functionals={"v2q": lambda X, V: lyap.value_rows(X, V) ** (2 * q)},
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
