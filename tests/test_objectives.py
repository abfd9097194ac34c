import dataclasses
import json
import math

import numpy as np
import pytest

from sghmc import (
    ConfigurationError,
    Dataset,
    EvaluationError,
    ObjectiveSpec,
    SmoothnessCertificate,
    audit_assumptions,
    double_well,
    empirical_gradient,
    gaussian_mixture,
    empirical_risk,
    literal_dataset,
    make_dataset,
    quad_growth_sandwich,
    quadratic,
)
from sghmc.objectives import (
    AuditEntry,
    AuditReport,
    batch_empirical_gradient,
    _moments,
    batch_empirical_risk,
    minibatch_gradient_rows,
)
from sghmc.rng import derive_stream

from conftest import ball_probes


class TestEmpiricalRisk:
    def test_symmetric_midpoint(self):
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=3.0)
        data = literal_dataset([1.0, 3.0])
        assert empirical_risk(np.array([2.0]), obj, data) == pytest.approx(0.5, abs=0)

    def test_single_sample_identity(self):
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=2.0)
        data = literal_dataset([1.5])
        x = np.array([0.3])
        want = float(obj.f(x, data.samples)[0])
        assert empirical_risk(x, obj, data) == want

    def test_double_well_matches_independent_resummation(self):
        data = make_dataset("gaussian", 100, 1, seed=7)
        obj = double_well(1, coupling=0.1, z_radius=data.max_norm())
        x = np.zeros(1)
        got = empirical_risk(x, obj, data)
        # independent accumulation order: exact compensated summation of the
        # per-sample values
        vals = [float(obj.f(x, data.samples[i : i + 1])[0]) for i in range(data.n)]
        want = math.fsum(vals) / data.n
        assert got == pytest.approx(want, rel=1e-12)

    def test_non_finite_value_names_sample(self):
        def f(x, Z):
            out = np.zeros(Z.shape[0])
            out[3] = np.nan
            return out

        obj = ObjectiveSpec(
            "bad", 1, f, lambda x, Z: np.zeros((Z.shape[0], 1)),
            SmoothnessCertificate(A0=0, B=0, M=1, m=1, b=0),
        )
        data = make_dataset("gaussian", 10, 1, seed=1)
        with pytest.raises(EvaluationError) as err:
            empirical_risk(np.zeros(1), obj, data)
        assert err.value.sample_index == 3

    def test_non_finite_gradient_names_sample(self):
        def grad(x, Z):
            out = np.zeros((Z.shape[0], 1))
            out[5, 0] = np.inf
            return out

        obj = ObjectiveSpec(
            "bad-grad", 1, lambda x, Z: np.zeros(Z.shape[0]), grad,
            SmoothnessCertificate(A0=0, B=0, M=1, m=1, b=0),
        )
        data = make_dataset("gaussian", 10, 1, seed=1)
        with pytest.raises(EvaluationError) as err:
            empirical_gradient(np.zeros(1), obj, data)
        assert err.value.sample_index == 5

    def test_gradient_overflow_is_not_a_fault(self):
        # the certificate allows |grad f(x, z)| up to B + M |x|: past
        # sqrt(float max) an overflow is the caller's divergence to report
        data = make_dataset("gaussian", 10, 2, seed=1)
        obj = quadratic(2, m0=3.0)
        with np.errstate(over="ignore"):
            assert np.isinf(empirical_gradient(np.array([1e308, 0.0]), obj, data)).any()
        nan_obj = ObjectiveSpec("nan-grad", 2, obj.f, lambda x, Z: np.full((Z.shape[0], 2), np.nan),
                                obj.cert)
        with pytest.raises(EvaluationError):
            empirical_gradient(np.array([1e150, 0.0]), nan_obj, data)
        assert np.isnan(empirical_gradient(np.array([1e160, 0.0]), nan_obj, data)).all()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            literal_dataset([])
        with pytest.raises(ConfigurationError):
            make_dataset("gaussian", 0, 1, seed=1)


class TestEmpiricalGradient:
    def test_symmetry_zero(self):
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=3.0)
        data = literal_dataset([1.0, 3.0])
        assert empirical_gradient(np.array([2.0]), obj, data) == pytest.approx(0.0)

    def test_origin_gradient_within_B(self, builtin_suite):
        for obj, data in builtin_suite:
            g0 = empirical_gradient(np.zeros(obj.dim), obj, data)
            assert np.linalg.norm(g0) <= obj.cert.B + 1e-12

    def test_matches_central_differences(self, builtin_suite):
        rng = derive_stream(3, "fd-probes")
        for obj, data in builtin_suite:
            X = ball_probes(rng, 100, obj.dim, 3.0)
            for x in X:
                h = 1e-4 * (1.0 + np.linalg.norm(x))
                g = empirical_gradient(x, obj, data)
                fd = np.empty_like(g)
                for i in range(obj.dim):
                    e = np.zeros(obj.dim)
                    e[i] = h
                    fd[i] = (
                        empirical_risk(x + e, obj, data) - empirical_risk(x - e, obj, data)
                    ) / (2 * h)
                scale = max(1.0, np.linalg.norm(g))
                assert np.linalg.norm(fd - g) / scale <= 1e-5

    def test_batch_paths_agree_with_scalar(self, builtin_suite):
        rng = derive_stream(5, "batch-probes")
        for obj, data in builtin_suite:
            X = ball_probes(rng, 8, obj.dim, 4.0)
            G = batch_empirical_gradient(X, obj, data)
            R = batch_empirical_risk(X, obj, data)
            for i, x in enumerate(X):
                assert np.allclose(G[i], empirical_gradient(x, obj, data), atol=1e-12)
                assert R[i] == pytest.approx(empirical_risk(x, obj, data), rel=1e-12)


class TestMinibatchGradientRows:
    @pytest.fixture(scope="class")
    def suite(self, builtin_suite):
        data = builtin_suite[0][1]
        coupled = quadratic(2, m0=1.5, coupling=1.0, z_radius=data.max_norm())
        return builtin_suite + [(coupled, data)]

    @pytest.mark.parametrize("replicas", [1, 3, 64])
    @pytest.mark.parametrize("ell", [1, 32])
    def test_hook_and_fallback_equal_grad_f_loop(self, suite, replicas, ell):
        rng = derive_stream(21, "minibatch-rows", replicas * 100 + ell)
        for obj, data in suite:
            X = ball_probes(rng, replicas, obj.dim, 4.0)
            idx = rng.integers(0, data.n, size=(replicas, ell))
            want = np.stack([np.asarray(obj.grad_f(x, data.samples[i])).mean(axis=0)
                             for x, i in zip(X, idx)])
            got = obj.grad_batches(X, data.samples[idx])
            assert got.shape == (replicas, obj.dim)
            assert np.array_equal(got, want), obj.name
            loop = dataclasses.replace(obj, grad_batches=None)
            assert np.array_equal(minibatch_gradient_rows(X, loop, data, idx), want)
            assert np.array_equal(minibatch_gradient_rows(X, obj, data, idx), want)


class TestMomentCache:
    """The hooks' dataset moments are kept for a Dataset's read-only samples
    and never returned stale."""

    @staticmethod
    def uncached(Z):
        # the formulas the hooks evaluated on every call before the cache
        return Z.mean(axis=0), float(np.mean(np.sum(Z * Z, axis=1)))

    @staticmethod
    def hooks(z_radius):
        objs = (quadratic(2, m0=1.3, coupling=0.7, z_radius=z_radius),
                double_well(2, coupling=0.1, z_radius=z_radius),
                gaussian_mixture(2, ridge=0.05, z_radius=z_radius))
        return [hook for obj in objs for hook in (obj.risk_rows, obj.grad_rows)]

    def test_alternating_datasets_bit_identical(self):
        datasets = [make_dataset("gaussian", n, 2, seed=s) for n, s in ((100, 7), (37, 8))]
        hooks = self.hooks(max(d.max_norm() for d in datasets))
        X = derive_stream(3, "probe").standard_normal((5, 2))
        for _ in range(2):
            for data in datasets:
                zbar, m2 = _moments(data.samples)
                want_zbar, want_m2 = self.uncached(data.samples)
                assert np.array_equal(zbar, want_zbar) and m2 == want_m2
                # a writable copy always takes the uncached path
                fresh = data.samples.copy()
                for hook in hooks:
                    assert np.array_equal(hook(X, data.samples), hook(X, fresh))

    def test_writable_array_changed_in_place_is_not_stale(self):
        data = make_dataset("gaussian", 50, 2, seed=7)
        hooks = self.hooks(10.0 * data.max_norm())
        X = derive_stream(3, "probe").standard_normal((5, 2))
        Z = data.samples.copy()
        before = [hook(X, Z) for hook in hooks]
        _moments(Z)
        Z *= 2.0
        (zbar, m2), (want_zbar, want_m2) = _moments(Z), self.uncached(Z)
        assert np.array_equal(zbar, want_zbar) and m2 == want_m2
        after = [hook(X, Z) for hook in hooks]
        assert all(not np.array_equal(a, b) for a, b in zip(before, after))
        assert all(np.array_equal(a, hook(X, Z.copy())) for a, hook in zip(after, hooks))

    def test_views_of_cached_samples_recomputed(self):
        data = make_dataset("gaussian", 50, 2, seed=7)
        _moments(data.samples)
        head = data.samples[:10]
        assert not head.flags.writeable
        zbar, m2 = _moments(head)
        want_zbar, want_m2 = self.uncached(head)
        assert np.array_equal(zbar, want_zbar) and m2 == want_m2

    @pytest.mark.parametrize("shape", [(20, 2), (20,)])
    def test_dataset_copies_samples_read_only(self, shape):
        arr = derive_stream(5, "samples").standard_normal(shape)
        data = Dataset(arr, "literal", 0)
        assert arr.flags.writeable and not data.samples.flags.writeable
        assert data.samples.flags.owndata and not np.shares_memory(arr, data.samples)
        arr += 1.0
        assert not np.array_equal(data.samples.ravel(), arr)
        with pytest.raises(ValueError):
            data.samples[0, 0] = 0.0


class TestAudit:
    def test_pure_quadratic_zero_dissipativity_slack(self):
        obj = quadratic(2, m0=1.3)
        data = make_dataset("gaussian", 20, 2, seed=5)
        report = audit_assumptions(obj, data, probes=200, radius=5.0, seed=2)
        entry = report.entry("dissipativity")
        assert entry.passed
        assert entry.margin == pytest.approx(0.0, abs=1e-9)

    def test_understated_lipschitz_fails_with_witness(self):
        good = quadratic(2, m0=2.0)
        bad_cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        obj = ObjectiveSpec("lying", 2, good.f, good.grad_f, bad_cert)
        data = make_dataset("gaussian", 20, 2, seed=5)
        report = audit_assumptions(obj, data, probes=300, radius=5.0, seed=2)
        entry = report.entry("gradient_lipschitz")
        assert not entry.passed
        assert "x1" in entry.witness and "x2" in entry.witness

    def test_builtins_pass(self, builtin_suite):
        for obj, data in builtin_suite:
            report = audit_assumptions(obj, data, probes=500, radius=10.0, seed=0)
            assert report.all_passed, report.to_json()

    def test_report_serializes(self, quad_obj, quad_data):
        report = audit_assumptions(quad_obj, quad_data, probes=50, radius=2.0)
        doc = report.to_json()
        assert '"assumption"' in doc and '"margin"' in doc and '"witness"' in doc

    def test_report_json_is_strict(self):
        entry = AuditEntry("dissipativity", False, math.inf, {"x": [1.0, 0.0]})
        doc = json.loads(AuditReport([entry]).to_json())
        assert doc == [{"assumption": "dissipativity", "pass": False, "margin": "inf",
                        "witness": {"x": [1.0, 0.0]}}]

    def test_probe_floor(self, quad_obj, quad_data):
        with pytest.raises(ConfigurationError):
            audit_assumptions(quad_obj, quad_data, probes=1)


class TestQuadGrowthSandwich:
    def test_origin(self, builtin_suite):
        for obj, data in builtin_suite:
            lower, mid, upper = quad_growth_sandwich(obj, np.zeros(obj.dim), data.samples[0])
            assert lower == pytest.approx(-(obj.cert.b / 2.0) * math.log(3.0))
            assert upper == pytest.approx(obj.cert.A0)
            assert lower <= mid <= upper

    def test_hand_case(self):
        obj = quadratic(2, m0=1.0)
        x = np.array([2.0, 0.0])
        lower, mid, upper = quad_growth_sandwich(obj, x, np.zeros(2))
        assert lower == pytest.approx(4.0 / 3.0)
        assert mid == pytest.approx(2.0)
        assert upper == pytest.approx(2.0)

    def test_probes(self, builtin_suite):
        rng = derive_stream(9, "sandwich")
        for obj, data in builtin_suite:
            X = ball_probes(rng, 1000, obj.dim, 8.0)
            idx = rng.integers(0, data.n, size=1000)
            for x, j in zip(X, idx):
                lower, mid, upper = quad_growth_sandwich(obj, x, data.samples[j])
                assert lower <= mid + 1e-9
                assert mid <= upper + 1e-9


class TestInvariants:
    def test_non_negativity_bulk(self, builtin_suite):
        rng = derive_stream(13, "nonneg")
        for obj, data in builtin_suite:
            X = ball_probes(rng, 10_000, obj.dim, 10.0)
            mins = [float(np.min(obj.f(x, data.samples))) for x in X[:500]]
            assert min(mins) >= 0.0
            # remaining probes in one vectorized sweep per sample subset
            sub = data.samples[rng.integers(0, data.n, size=X.shape[0])]
            vals = np.array(
                [float(obj.f(x, z[None, :])[0]) for x, z in zip(X, sub)]
            )
            assert vals.min() >= 0.0

    def test_dissipativity_probes(self, builtin_suite):
        rng = derive_stream(17, "dissip")
        for obj, data in builtin_suite:
            X = ball_probes(rng, 500, obj.dim, 10.0)
            for x in X:
                grads = np.asarray(obj.grad_f(x, data.samples))
                margins = grads @ x - obj.cert.m * float(x @ x) + obj.cert.b
                assert margins.min() >= -1e-9

    def test_dataset_regeneration_deterministic(self):
        a = make_dataset("gaussian", 64, 3, seed=123)
        b = make_dataset("gaussian", 64, 3, seed=123)
        assert np.array_equal(a.samples, b.samples)
        c = make_dataset("gaussian", 64, 3, seed=124)
        assert not np.array_equal(a.samples, c.samples)

    def test_certificate_validation(self):
        with pytest.raises(ConfigurationError):
            SmoothnessCertificate(A0=0, B=0, M=0.5, m=1.0, b=0)  # m > M
        with pytest.raises(ConfigurationError):
            SmoothnessCertificate(A0=0, B=0, M=0.0, m=0.0, b=0)
        with pytest.raises(ConfigurationError):
            quadratic(2, m0=1.0, coupling=0.5)  # missing z_radius
