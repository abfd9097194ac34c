"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its wall time against the stated budget.
"""

import itertools
import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from sghmc import (
    SampleCloud,
    SamplerConfig,
    audit_assumptions,
    empirical_gradient,
    estimate_delta,
    make_dataset,
    point_init,
    quad_growth_continuity_check,
    quad_growth_sandwich,
    quadratic,
    variance_scaling_curve,
    wasserstein_1d,
    wasserstein_exact_small,
)
from sghmc import theory
from sghmc.gradient_oracle import sample_gradient_many
from sghmc.harness import (
    ExperimentConfig,
    rate_study,
    run_experiment,
    sghmc_quadratic_stationary,
    to_json,
)
from sghmc.samplers import coupled_ensemble_run, ensemble_run, gaussian_init
from sghmc.rng import derive_stream

from conftest import ball_probes, GAMMA, BETA


def _report(num, name, ok, budget_s, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {num} ({name}): {detail} [{elapsed:.1f}s < {budget_s:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget"


def test_criterion_1_gibbs_oracle(quad_obj, quad_data):
    t0 = time.perf_counter()
    lam, m0 = 0.01, 1.0

    def run(step):
        cfg = SamplerConfig(lam=step, gamma=GAMMA, beta=BETA, batch_size=None,
                            dim=2, seed=42, init=point_init([0.0, 0.0], [0.0, 0.0]))
        res = ensemble_run("sghmc", cfg, quad_obj, quad_data, steps=200_000,
                           replicas=8, record_every=10**9, burn_in=20_000)
        return res.tail_var_x, res.tail_var_v

    var_x, var_v = run(lam)
    ok = bool(np.all(np.abs(var_x - 1.0) <= 0.05) and np.all(np.abs(var_v - 1.0) <= 0.05))

    # bias reduction under step halving: certified against the exact
    # stationary law of the discrete linear chain, with the empirical run at
    # the halved step agreeing with that law
    ox1, ov1 = sghmc_quadratic_stationary(lam, GAMMA, BETA, m0)
    ox2, ov2 = sghmc_quadratic_stationary(lam / 2, GAMMA, BETA, m0)
    bias_shrinks = abs(ox2 - 1.0) < abs(ox1 - 1.0) and abs(ov2 - 1.0) < abs(ov1 - 1.0)
    var_x_h, var_v_h = run(lam / 2)
    half_consistent = bool(
        np.all(np.abs(var_x_h - ox2) <= 0.05) and np.all(np.abs(var_v_h - ov2) <= 0.05)
    )
    detail = (
        f"var_x={np.round(var_x, 3).tolist()} var_v={np.round(var_v, 3).tolist()} "
        f"discrete-law bias {abs(ox1 - 1):.4f}->{abs(ox2 - 1):.4f} (x), "
        f"{abs(ov1 - 1):.4f}->{abs(ov2 - 1):.4f} (v)"
    )
    _report(1, "gibbs-oracle", ok and bias_shrinks and half_consistent,
            30.0, time.perf_counter() - t0, detail)


def test_criterion_2_rate_trend(quad_obj, quad_data):
    t0 = time.perf_counter()
    base = SamplerConfig(lam=0.1, gamma=GAMMA, beta=BETA, batch_size=None,
                         dim=2, seed=9, init=gaussian_init(0.0, 1.0))
    table = rate_study(quad_obj, quad_data, base,
                       lambdas=[0.1, 0.05, 0.025, 0.0125],
                       lambda_ref_divisor=16.0, t_end=5.0, replicas=64)
    dists = [r["distance"] for r in table["rows"]]
    monotone = all(dists[i] >= dists[i + 1] for i in range(len(dists) - 1))
    slope = table["slope"]
    _report(2, "rate-trend", monotone and slope >= 0.25, 120.0,
            time.perf_counter() - t0,
            f"distances={['%.4f' % d for d in dists]} slope={slope:.3f}")


def test_criterion_3_contraction(builtin_suite, quad_theory):
    t0 = time.perf_counter()
    details = []
    ok = True
    for obj, data in builtin_suite:
        if obj.name == "quadratic":
            lam = quad_theory["moment"].lambda_cap  # within the certified cap
        else:
            lam = 0.005  # stable step; the certified cap leaves no window here
        cfg_a = SamplerConfig(lam=lam, gamma=GAMMA, beta=BETA, batch_size=None,
                              dim=obj.dim, seed=5,
                              init=point_init([2.0] + [0.0] * (obj.dim - 1),
                                              [0.0] * obj.dim))
        cfg_b = SamplerConfig(lam=lam, gamma=GAMMA, beta=BETA, batch_size=None,
                              dim=obj.dim, seed=5,
                              init=point_init([-2.0] + [0.0] * (obj.dim - 1),
                                              [0.0] * obj.dim))
        res = coupled_ensemble_run("sghmc", cfg_a, cfg_b, obj, data,
                                   steps=10_000, replicas=16, record_every=100)
        mask = res.mean_sep > 1e-12
        tt = res.steps[mask] * lam
        slope = float(np.polyfit(tt, np.log(res.mean_sep[mask]), 1)[0])
        ok &= slope < 0.0
        if obj.name == "quadratic":
            # analytic contraction rate of the linearized dynamics
            eigs = np.linalg.eigvals(np.array([[-GAMMA, -1.0], [1.0, 0.0]]))
            analytic = -float(np.max(eigs.real))
            ratio = abs(slope) / analytic
            ok &= 0.1 <= ratio <= 10.0
            details.append(f"{obj.name}: rate {abs(slope):.3f} vs analytic {analytic:.3f}")
        else:
            details.append(f"{obj.name}: slope {slope:.4f}")
    _report(3, "contraction", ok, 60.0, time.perf_counter() - t0, "; ".join(details))


def test_criterion_4_constant_formulas(quad_obj, quad_theory):
    t0 = time.perf_counter()
    drift, cc = quad_theory["drift"], quad_theory["cc"]
    checks = {}
    # fixed-point self-consistency at 1e-10
    want_alpha = (1 + 1 / cc.Lambda_c) * quad_obj.cert.M / GAMMA**2
    one = 1 + 2 * cc.alpha_c + 2 * cc.alpha_c**2
    want_lambda = (2.4 * one * (2 + drift.A_c) * quad_obj.cert.M / GAMMA**2
                   / (drift.lambda_c * (1 - 2 * drift.lambda_c)))
    checks["alpha-fixed-point"] = abs(cc.alpha_c - want_alpha) / want_alpha <= 1e-10
    checks["Lambda-fixed-point"] = abs(cc.Lambda_c - want_lambda) / want_lambda <= 1e-10
    # identities hold exactly
    checks["epsilon-identity"] = cc.epsilon_c == 4 * cc.c_star / (GAMMA * (2 + cc.A_c))
    checks["eta-identity"] = cc.eta_c == 1 / cc.Lambda_c
    # lambda_c hand value
    checks["lambda_c=1/8"] = drift.lambda_c == 0.125
    # B_3 = 1/2 at (d, beta, M, m, b) = (1, 1, 1, 1, 0), on that certificate's own chain
    cert = theory.SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
    unit_drift = theory.closed_form_drift(cert, GAMMA, 1.0)
    unit_cc = theory.contraction_constants(unit_drift, cert, GAMMA, 1.0, 1)
    unit_moment = theory.moment_bound_constants(unit_drift, cert, GAMMA, 1.0, 1, 0.0)
    proof = theory.proof_constants(unit_cc, unit_moment, pilot_sup_v2=10.0)
    rb = theory.risk_bound(unit_cc, proof, 100, 0.001, 0.0,
                           k=100, q=1, sigma=1.0, w_rho_init=1.0, lambda_star=1.0)
    checks["B3=1/2"] = abs(rb.B_3 - 0.5) <= 1e-12
    # h properties
    checks["h(0)=0"] = theory.h_function(cc, 0.0) == 0.0
    eps = 1e-6
    checks["h'(0+)=1"] = abs(theory.h_function(cc, eps) / eps - 1.0) <= 1e-3
    h_r1 = theory.h_function(cc, cc.R_1)
    checks["h flat beyond R1"] = all(
        theory.h_function(cc, r) == h_r1 for r in (1.5 * cc.R_1, 3 * cc.R_1)
    )
    grid, h_vals = theory.h_profile(cc)
    full = np.linspace(0, 2 * cc.R_1, 1000)
    h_full = np.where(full <= cc.R_1, np.interp(full, grid, h_vals), h_vals[-1])
    checks["h concave on grid"] = bool(np.all(np.diff(h_full, 2) <= 1e-6 * h_vals[-1]))
    bad = [k for k, v in checks.items() if not v]
    _report(4, "constant-formulas", not bad, 5.0, time.perf_counter() - t0,
            f"{len(checks)} checks" + (f", failing: {bad}" if bad else ""))


def test_criterion_5_moment_bound_compliance(quad_obj, quad_data, quad_theory):
    t0 = time.perf_counter()
    drift, lyap, moment = quad_theory["drift"], quad_theory["lyap"], quad_theory["moment"]
    lam = min(0.003, moment.lambda_cap)
    cfg = SamplerConfig(lam=lam, gamma=GAMMA, beta=BETA, batch_size=None,
                        dim=2, seed=61, init=point_init([0.0, 0.0], [0.0, 0.0]))

    def moments(X, V):
        W = lyap.value_rows(X, V)  # one V for both of its powers
        return {"x2": np.sum(X * X, axis=1), "v2": np.sum(V * V, axis=1),
                "lyap2": W ** 2, "lyap4": W ** 4}

    res = ensemble_run(
        "sghmc", cfg, quad_obj, quad_data, steps=100_000, replicas=8,
        record_every=10**9, functionals=moments,
    )
    v0 = lyap.value(np.zeros(2), np.zeros(2))
    rep_q1 = theory.lyapunov_moment_certificate(
        drift, quad_obj.cert, GAMMA, BETA, 2, q=1, lam=lam, v0_lyapunov=v0,
        pilot_max_v2q=res.running_max["lyap2"],
    )
    rep_q2 = theory.lyapunov_moment_certificate(
        drift, quad_obj.cert, GAMMA, BETA, 2, q=2, lam=lam, v0_lyapunov=v0,
        pilot_max_v2q=res.running_max["lyap4"],
    )
    ok = (
        res.running_max["x2"] <= moment.C_a_x
        and res.running_max["v2"] <= moment.C_a_v
        and rep_q1["satisfied"]
        and rep_q2["satisfied"]
    )
    detail = (
        f"sup E|X|^2 {res.running_max['x2']:.2f} <= {moment.C_a_x:.0f}, "
        f"sup E|V|^2 {res.running_max['v2']:.2f} <= {moment.C_a_v:.0f}, "
        f"sup E V^2 {res.running_max['lyap2']:.1f} <= {rep_q1['bound_sup']:.2e}, "
        f"sup E V^4 {res.running_max['lyap4']:.1f} <= {rep_q2['bound_sup']:.2e}"
    )
    _report(5, "moment-bounds", ok, 60.0, time.perf_counter() - t0, detail)


def test_criterion_6_oracle_audits(builtin_suite):
    t0 = time.perf_counter()
    data = make_dataset("gaussian", 50, 2, seed=3)
    obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data.max_norm())
    # unbiasedness at 3 sigma with 1e5 draws
    x = np.array([0.7, 0.1])
    draws = sample_gradient_many(obj, data, 5, derive_stream(11, "minibatch"), x, 100_000)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0])
    unbiased = bool(np.all(np.abs(draws.mean(axis=0) - empirical_gradient(x, obj, data))
                           <= 3.0 * se))
    # variance scaling slope
    curve = variance_scaling_curve(obj, data, np.array([0.5, 0.0]),
                                   [1, 2, 4, 8, 16], trials=20_000, seed=5)
    slope_ok = -1.15 <= curve.slope <= -0.85
    # full-pass mode is noiseless
    delta0 = estimate_delta(obj, data, None, derive_stream(2, "minibatch"),
                            [np.zeros(2), np.ones(2)], trials=200) == 0.0
    # assumption audits on every built-in
    audits_ok = True
    for bobj, bdata in builtin_suite:
        report = audit_assumptions(bobj, bdata, probes=1000, radius=10.0, seed=0)
        audits_ok &= report.all_passed
    ok = unbiased and slope_ok and delta0 and audits_ok
    _report(6, "oracle-audits", ok, 30.0, time.perf_counter() - t0,
            f"unbiased={unbiased} slope={curve.slope:.3f} delta0={delta0} audits={audits_ok}")


def test_criterion_7_wasserstein_exactness():
    t0 = time.perf_counter()
    rng = derive_stream(2, "acc-wasserstein")
    perms = np.array(list(itertools.permutations(range(8))))
    brute_ok = True
    for _ in range(50):
        a = rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 2))
        for p in (1.0, 2.0):
            cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
            totals = cost[np.arange(8)[None, :], perms].sum(axis=1)
            brute = (totals.min() / 8) ** (1 / p)
            ours = wasserstein_exact_small(SampleCloud(a), SampleCloud(b), p)
            brute_ok &= abs(ours - brute) <= 1e-12
    sort_ok = True
    for n in (3, 17, 64):
        a = SampleCloud(rng.standard_normal(n))
        b = SampleCloud(rng.standard_normal(n) + 0.6)
        for p in (1.0, 2.0):
            sort_ok &= abs(
                wasserstein_1d(a, b, p) - wasserstein_exact_small(a, b, p)
            ) <= 1e-12 * max(1.0, wasserstein_1d(a, b, p))
    a = SampleCloud(rng.standard_normal(10_000))
    b = SampleCloud(rng.standard_normal(10_000) + 2.0)
    gauss = wasserstein_1d(a, b, 2.0)
    gauss_ok = abs(gauss - 2.0) <= 0.05
    ok = brute_ok and sort_ok and gauss_ok
    _report(7, "wasserstein-exactness", ok, 30.0, time.perf_counter() - t0,
            f"brute={brute_ok} 1d-vs-assignment={sort_ok} gaussian-shift={gauss:.3f}")


def test_criterion_8_inequality_suite(builtin_suite, quad_theory):
    t0 = time.perf_counter()
    rng = derive_stream(3, "acc-lemmas")
    # quadratic-growth envelope at 1000 probes per objective
    sandwich_ok = True
    for obj, data in builtin_suite:
        X = ball_probes(rng, 1000, obj.dim, 8.0)
        idx = rng.integers(0, data.n, size=1000)
        for x, j in zip(X, idx):
            lo, mid, up = quad_growth_sandwich(obj, x, data.samples[j])
            sandwich_ok &= (lo <= mid + 1e-9) and (mid <= up + 1e-9)
    # mean-difference continuity bound on 100 cloud pairs
    linear_ok = True
    for _ in range(100):
        a = SampleCloud(rng.standard_normal((16, 4)))
        b = SampleCloud(rng.standard_normal((16, 4)) + 0.2 * rng.standard_normal(4))
        lhs, rhs = quad_growth_continuity_check(
            lambda W: np.sum(W * W, axis=1), (2.0, 0.0), a, b, 2.0, 2.0
        )
        linear_ok &= lhs <= rhs + 1e-12
    # pointwise rho vs weighted norm on 100 pairs
    cc, lyap = quad_theory["cc"], quad_theory["lyap"]
    c17 = 3.0 * max(1.0 + cc.alpha_c, 1.0 / GAMMA)
    rho_ok = True
    for _ in range(100):
        sa = (rng.standard_normal(2), rng.standard_normal(2))
        sb = (rng.standard_normal(2), rng.standard_normal(2))
        rho = theory.rho_semimetric(cc, lyap, sa, sb)
        gap = math.sqrt(float(np.sum((sa[0] - sb[0]) ** 2) + np.sum((sa[1] - sb[1]) ** 2)))
        bound = c17 * (1 + cc.epsilon_c * (lyap.value(*sa) + lyap.value(*sb))) * gap
        rho_ok &= rho <= bound * (1 + 1e-9)
    # Lyapunov lower envelope at 1000 probes
    lower_ok = True
    for obj, data in builtin_suite:
        drift = theory.derive_drift_constants(obj.cert, GAMMA, BETA, obj, data, probes=300)
        ly = theory.LyapunovParams(BETA, GAMMA, drift.lambda_c, obj, data)
        X = ball_probes(rng, 1000, obj.dim, 6.0)
        V = ball_probes(rng, 1000, obj.dim, 6.0)
        for x, v in zip(X, V):
            lower_ok &= ly.value(x, v) >= theory.lyapunov_lower_bound(ly, x, v) - 1e-9
    ok = sandwich_ok and linear_ok and rho_ok and lower_ok
    _report(8, "inequality-suite", ok, 30.0, time.perf_counter() - t0,
            f"sandwich={sandwich_ok} linear={linear_ok} rho={rho_ok} lower={lower_ok}")


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "kind": "sample",
        "objective": {"name": "quadratic", "params": {"m0": 1.0}},
        "dataset": {"generator": "gaussian", "n": 100, "z_dim": 2, "seed": 7},
        "sampler": {"lambda": 0.003, "gamma": GAMMA, "beta": BETA, "batch_size": None,
                    "dim": 2, "seed": 42, "init": {"kind": "point", "x0": [0, 0], "v0": [0, 0]}},
        "steps": 2000, "replicas": 4, "thin": 100, "out": str(tmp_path / "a"),
    }
    man = run_experiment(ExperimentConfig.from_dict(doc))
    # a rerun driven purely by the manifest must give identical bytes
    manifest = json.loads(to_json(asdict(man)))
    manifest["config"]["out"] = str(tmp_path / "b")
    run_experiment(ExperimentConfig.from_dict(manifest))
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    same_sample = csv_a == csv_b
    # the coupled kind writes CSV too; check it the same way
    doc_c = dict(doc, kind="couple", steps=1000, out=str(tmp_path / "c1"))
    doc_c["sampler_b"] = {"init": {"kind": "point", "x0": [1, 0], "v0": [0, 0]}}
    run_experiment(ExperimentConfig.from_dict(doc_c))
    run_experiment(ExperimentConfig.from_dict(dict(doc_c, out=str(tmp_path / "c2"))))
    same_couple = (
        (tmp_path / "c1" / "distances.csv").read_bytes()
        == (tmp_path / "c2" / "distances.csv").read_bytes()
    )
    ok = same_sample and same_couple
    _report(9, "reproducibility", ok, 30.0, time.perf_counter() - t0,
            f"sample={same_sample} couple={same_couple}")
