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
    make_dataset,
    quad_growth_sandwich,
    quadratic,
)
from sghmc import objectives
from sghmc.harness import to_json
from sghmc.objectives import (
    AuditEntry,
    AuditReport,
    batch_empirical_gradient,
    _moments,
    batch_empirical_risk,
    _well_pieces,
    minibatch_gradient_rows,
)
from sghmc.rng import derive_stream

from conftest import ball_probes


class TestEmpiricalRisk:
    def test_symmetric_midpoint(self):
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=3.0)
        data = Dataset([1.0, 3.0], "literal", seed=0)
        assert empirical_risk(np.array([2.0]), obj, data) == pytest.approx(0.5, abs=0)

    def test_single_sample_identity(self):
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=2.0)
        data = Dataset([1.5], "literal", seed=0)
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
            Dataset([], "literal", seed=0)
        with pytest.raises(ConfigurationError):
            make_dataset("gaussian", 0, 1, seed=1)


class TestEmpiricalGradient:
    def test_symmetry_zero(self):
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=3.0)
        data = Dataset([1.0, 3.0], "literal", seed=0)
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

    @staticmethod
    def check(suite, replicas, ell, seed):
        rng = derive_stream(21, "minibatch-rows", seed)
        for obj, data in suite:
            X = ball_probes(rng, replicas, obj.dim, 4.0)
            idx = rng.integers(0, data.n, size=(replicas, ell))
            per_sample = np.stack([np.asarray(obj.grad_f(x, data.samples[i]))
                                   for x, i in zip(X, idx)])
            want = np.stack([g.mean(axis=0) for g in per_sample])
            # the hook's per-sample gradients on a C-ordered block and on the
            # (l, R, z)-ordered view that minibatch_gradient_rows passes
            for Zs in (data.samples[idx],
                       np.take(data.samples, idx.T, axis=0).transpose(1, 0, 2)):
                got = obj.grad_batches(X, Zs)
                assert got.shape == (replicas, ell, obj.dim)
                assert np.array_equal(got, per_sample), obj.name
            loop = dataclasses.replace(obj, grad_batches=None)
            assert np.array_equal(minibatch_gradient_rows(X, loop, data, idx), want)
            assert np.array_equal(minibatch_gradient_rows(X, obj, data, idx), want)

    @pytest.mark.parametrize("replicas", [1, 3, 7, 64])
    @pytest.mark.parametrize("ell", [1, 3, 32])
    def test_hook_and_fallback_equal_grad_f_loop(self, suite, replicas, ell):
        self.check(suite, replicas, ell, replicas * 100 + ell)

    @pytest.mark.parametrize("z_dim", [1, 20])
    @pytest.mark.parametrize("replicas, ell", [(7, 3), (64, 32)])
    def test_hook_and_fallback_equal_grad_f_loop_in_z_dim(self, z_dim, replicas, ell):
        # z_dim = 1 is the case where the loop sums each minibatch pairwise
        data = make_dataset("gaussian", 100, z_dim, seed=17)
        r = data.max_norm()
        suite = [(quadratic(z_dim), data),
                 (quadratic(z_dim, m0=1.5, coupling=1.0, z_radius=r), data),
                 (double_well(z_dim, coupling=0.1, z_radius=r), data),
                 (gaussian_mixture(z_dim, ridge=0.05, z_radius=r), data)]
        self.check(suite, replicas, ell, 1000 * z_dim + replicas * 100 + ell)

    @staticmethod
    def per_sample(d):
        """An objective of dimension d on any z_dim whose grad_f and
        grad_batches hook are written per sample, with no reduction."""
        w = 0.3 * np.arange(1.0, d + 1.0)

        def grad_f(x, Z):
            return x[None, :] * (1.0 + Z[:, :1] * Z[:, :1]) - Z[:, -1:] * w

        def grad_batches(X, Zs):
            return X[:, None, :] * (1.0 + Zs[:, :, :1] * Zs[:, :, :1]) - Zs[:, :, -1:] * w

        return ObjectiveSpec("per-sample", d, lambda x, Z: np.zeros(len(Z)), grad_f,
                             SmoothnessCertificate(A0=0.0, B=1.0, M=1.0, m=1.0, b=0.0),
                             grad_batches=grad_batches)

    @pytest.mark.parametrize("d, z_dim", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_per_sample_hook_keeps_the_loop_bits(self, d, z_dim):
        # the mean adds the l terms as grad_f(x, Z).mean(axis=0) does,
        # pairwise at d = 1 and one after another above, whatever z_dim is
        data = make_dataset("gaussian", 500, z_dim, seed=29)
        obj = self.per_sample(d)
        rng = derive_stream(31, "per-sample-hook", 10 * d + z_dim)
        X = rng.standard_normal((16, d))
        idx = rng.integers(0, data.n, size=(16, 64))
        want = np.stack([obj.grad_f(x, data.samples[i]).mean(axis=0) for x, i in zip(X, idx)])
        loop = dataclasses.replace(obj, grad_batches=None)
        assert np.array_equal(minibatch_gradient_rows(X, obj, data, idx), want)
        assert np.array_equal(minibatch_gradient_rows(X, loop, data, idx), want)

    def test_a_hook_of_row_means_is_rejected(self):
        # a hook that takes the mean itself returns (R, d), not (R, l, d)
        data = make_dataset("gaussian", 50, 2, seed=5)
        obj = quadratic(2)
        means = dataclasses.replace(
            obj, grad_batches=lambda X, Zs: obj.grad_batches(X, Zs).mean(axis=1))
        idx = np.zeros((7, 5), dtype=int)
        with pytest.raises(ConfigurationError, match=r"\(7, 2\).*\(R, l, d\) = \(7, 5, 2\)"):
            minibatch_gradient_rows(np.ones((7, 2)), means, data, idx)

    @pytest.mark.parametrize("z_dim", [1, 2, 20])
    def test_hook_gets_the_layout_that_keeps_the_bits(self, z_dim):
        # a guard on the gather: the hooks' speed depends on the memory order
        # of Zs, (l, R, z_dim) at every z_dim, which a plain
        # data.samples[idx] would change
        data = make_dataset("gaussian", 50, z_dim, seed=5)
        obj = quadratic(z_dim)
        seen = []

        def spy(X, Zs):
            seen.append(Zs)
            return obj.grad_batches(X, Zs)

        rng = derive_stream(23, "layout-spy", z_dim)
        X = rng.standard_normal((7, z_dim))
        idx = rng.integers(0, data.n, size=(7, 5))
        minibatch_gradient_rows(X, dataclasses.replace(obj, grad_batches=spy), data, idx)
        (Zs,) = seen
        assert Zs.shape == (7, 5, z_dim) and np.array_equal(Zs, data.samples[idx])
        assert Zs.transpose(1, 0, 2).flags.c_contiguous


class TestRowChunks:
    """The mixture's dataset-wide hooks take at most
    ``objectives._ROW_BYTES / (8 n)`` rows of X at a time; the quadratic's
    and the double well's read the dataset moments and take every row in
    one call."""

    @staticmethod
    def objective(name, d, data):
        r = data.max_norm()
        return {"quadratic": lambda: quadratic(d, m0=1.3, coupling=0.7, z_radius=r),
                "double_well": lambda: double_well(d, coupling=0.1, z_radius=r),
                "gaussian_mixture": lambda: gaussian_mixture(d, ridge=0.05, z_radius=r)}[name]()

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_hook_sees_chunks_of_rows(self, monkeypatch, rows):
        Z = np.zeros((200, 2))
        X = derive_stream(5, "chunk-rows").standard_normal((50, 2))
        sizes = []

        def hook(X, Z):
            sizes.append(len(X))
            return 2.0 * X

        monkeypatch.setattr(objectives, "_ROW_BYTES", rows * 8 * len(Z) + 7)
        out = objectives._row_chunked(hook)(X, Z)
        assert sizes == [rows] * (50 // rows) + [50 % rows] * (50 % rows > 0)
        assert np.array_equal(out, 2.0 * X)

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["quadratic", "double_well", "gaussian_mixture"])
    def test_chunks_match_one_call(self, monkeypatch, name, d, rows):
        data = make_dataset("gaussian", 200, d, seed=3)
        obj = self.objective(name, d, data)
        X = 3.0 * derive_stream(5, "chunks").standard_normal((50, d))
        evaluations = (batch_empirical_risk, batch_empirical_gradient)
        one = [f(X, obj, data) for f in evaluations]
        monkeypatch.setattr(objectives, "_ROW_BYTES", rows * 8 * data.n + 7)
        chunked = [f(X, obj, data) for f in evaluations]
        for a, b in zip(one, chunked):
            assert a.shape == b.shape
            if name == "gaussian_mixture":
                # BLAS products round by their kernel, which depends on the
                # row count, and the mixture reduces over the samples in one
                np.testing.assert_allclose(b, a, rtol=1e-14, atol=1e-14)
            else:
                assert np.array_equal(a, b)


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

    def test_coupled_quadratic_follows_Z(self):
        # grad_rows keeps c * zbar for the zbar object _moments returns
        a, b = (make_dataset("gaussian", n, 2, seed=s) for n, s in ((100, 7), (37, 8)))
        obj = quadratic(2, m0=1.3, coupling=0.7, z_radius=10.0 * a.max_norm())
        X = derive_stream(3, "probe").standard_normal((5, 2))
        Z = b.samples.copy()
        for samples, change in ((a.samples, 0.0), (b.samples, 0.0), (Z, 0.0), (Z, 1.0),
                                (Z, 2.0), (a.samples, 0.0)):
            if change:
                Z += change  # in place: the same array, new values
            want = 1.3 * (X - 0.7 * samples.mean(axis=0))
            assert np.array_equal(obj.grad_rows(X, samples), want)

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


class TestUncoupledQuadraticHook:
    """The uncoupled quadratic's grad_rows reads no data: it returns X * m0,
    the bits of m0 * (X - 0 * zbar) except at an exact -0.0 coordinate where
    zbar's coordinate is negative."""

    M0 = 1.3

    @staticmethod
    def samples(d):
        # every coordinate of the mean is negative, so 0 * zbar is -0.0
        data = Dataset(derive_stream(11, "hook-data").standard_normal((40, d)) - 0.5, "literal", 0)
        assert (data.samples.mean(axis=0) < 0).all()
        return data.samples

    def data_formula(self, X, Z):
        return self.M0 * (X - 0.0 * Z.mean(axis=0))

    @pytest.mark.parametrize("stack", ["finite", "non-finite"])
    @pytest.mark.parametrize("R", [1, 64])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_equals_the_data_formula_bit_for_bit(self, d, R, stack):
        Z = self.samples(d)
        X = 10.0 * derive_stream(12, f"hook-probe-{d}-{R}").standard_normal((R, d))
        if stack == "non-finite":
            flat = X.reshape(-1)
            flat[::2] = np.resize([-np.inf, np.nan, np.inf], flat[::2].size)
        got = quadratic(d, m0=self.M0).grad_rows(X, Z)
        want = self.data_formula(X, Z)
        assert got.dtype == want.dtype and got.shape == want.shape == (R, d)
        assert got.tobytes() == want.tobytes()

    def test_negative_zero_keeps_its_sign(self):
        Z = self.samples(2)
        X = np.array([[-0.0, -0.0], [0.0, 0.0]])
        got = quadratic(2, m0=self.M0).grad_rows(X, Z)
        want = self.data_formula(X, Z)
        assert np.array_equal(got, want)  # equal up to the sign of zero
        assert got[1].tobytes() == want[1].tobytes()
        # the one difference: -0.0 * m0 is -0.0, while -0.0 - (-0.0) is +0.0
        assert np.signbit(got[0]).all() and not np.signbit(want[0]).any()


class TestAudit:
    def test_pure_quadratic_zero_dissipativity_slack(self):
        obj = quadratic(2, m0=1.3)
        data = make_dataset("gaussian", 20, 2, seed=5)
        report = audit_assumptions(obj, data, probes=200, radius=5.0, seed=2)
        [entry] = [e for e in report.entries if e.assumption == "dissipativity"]
        assert entry.passed
        assert entry.margin == pytest.approx(0.0, abs=1e-9)

    def test_understated_lipschitz_fails_with_witness(self):
        good = quadratic(2, m0=2.0)
        bad_cert = SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0)
        obj = ObjectiveSpec("lying", 2, good.f, good.grad_f, bad_cert)
        data = make_dataset("gaussian", 20, 2, seed=5)
        report = audit_assumptions(obj, data, probes=300, radius=5.0, seed=2)
        [entry] = [e for e in report.entries if e.assumption == "gradient_lipschitz"]
        assert not entry.passed
        assert "x1" in entry.witness and "x2" in entry.witness

    def test_builtins_pass(self, builtin_suite):
        for obj, data in builtin_suite:
            report = audit_assumptions(obj, data, probes=500, radius=10.0, seed=0)
            assert report.all_passed, [e.to_dict() for e in report.entries]

    def test_report_serializes(self, quad_obj, quad_data):
        report = audit_assumptions(quad_obj, quad_data, probes=50, radius=2.0, seed=0)
        doc = to_json([e.to_dict() for e in report.entries])
        assert '"assumption"' in doc and '"margin"' in doc and '"witness"' in doc

    def test_report_json_is_strict(self):
        entry = AuditEntry("dissipativity", False, math.inf, {"x": [1.0, 0.0]})
        doc = json.loads(to_json([e.to_dict() for e in AuditReport([entry]).entries]))
        assert doc == [{"assumption": "dissipativity", "pass": False, "margin": "inf",
                        "witness": {"x": [1.0, 0.0]}}]

    def test_one_walk_over_the_probes(self, builtin_suite):
        # grad_f runs at each probe and at its Lipschitz partner, and once at
        # the origin
        obj, data = builtin_suite[1]
        calls = []

        def grad_f(x, Z):
            calls.append(1)
            return obj.grad_f(x, Z)

        audit_assumptions(dataclasses.replace(obj, grad_f=grad_f), data, probes=50, radius=None,
                          seed=0)
        assert len(calls) == 2 * 50 + 1

    def test_probe_floor(self, quad_obj, quad_data):
        with pytest.raises(ConfigurationError):
            audit_assumptions(quad_obj, quad_data, probes=1, radius=None, seed=0)


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


class TestWellDerivative:
    """``w_prime`` returns t^3 - t without the tail formula when every |t|
    is within the well radius: the value np.where would pick there."""

    @staticmethod
    def spliced(t, rw):
        a = np.abs(t)
        tail = np.sign(t) * (rw ** 3 - rw + (3.0 * rw * rw - 1.0) * (a - rw))
        return np.where(a <= rw, t ** 3 - t, tail)

    @pytest.mark.parametrize("rw", [1.5, 2.0, 3.7])
    def test_equals_the_spliced_formula_bit_for_bit(self, rw):
        _, w_prime, _ = _well_pieces(rw)
        points = [0.3, -1.2, 1.0, rw, -rw, np.nextafter(rw, 0.0), np.nextafter(rw, np.inf),
                  -np.nextafter(rw, np.inf), 2.5 * rw, -7.0, 1e200, 0.0, -0.0,
                  np.nan, np.inf, -np.inf]
        inside = [t for t in points if abs(t) <= rw]
        for t in [np.array([t]) for t in points] + [np.array(points), np.array(inside),
                                                     np.array(inside).reshape(-1, 2)]:
            with np.errstate(over="ignore", invalid="ignore"):  # as in the samplers
                got, want = w_prime(t), self.spliced(t, rw)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

