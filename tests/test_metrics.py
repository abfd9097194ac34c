import itertools
import math

import numpy as np
import pytest

from sghmc import (
    ConfigurationError,
    NumericalError,
    SampleCloud,
    quad_growth_continuity_check,
    rho_distance_cloud,
    sliced_wasserstein,
    wasserstein_1d,
    wasserstein_exact_small,
)
from sghmc.metrics import _assignment
from sghmc.rng import derive_stream


@pytest.fixture(scope="module")
def perms8():
    return np.array(list(itertools.permutations(range(8))))


def brute_force_wasserstein(a, b, p, perms):
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
    totals = cost[np.arange(a.shape[0])[None, :], perms].sum(axis=1)
    return float((totals.min() / a.shape[0]) ** (1.0 / p))


@pytest.mark.parametrize("points, message", [
    (np.zeros((0, 2)), "a sample cloud needs at least one point"),
    ([[0.0, 1.0], [math.nan, 0.0]], "sample cloud contains non-finite points"),
], ids=["empty", "nan"])
def test_malformed_cloud_rejected(points, message):
    with pytest.raises(ConfigurationError, match=message):
        SampleCloud(points)


class TestWasserstein1d:
    def test_identical_clouds(self):
        a = SampleCloud(np.arange(10.0))
        assert wasserstein_1d(a, a, 2.0) == 0.0

    def test_point_masses(self):
        for p in (1.0, 2.0, 3.5):
            assert wasserstein_1d(SampleCloud([0.0]), SampleCloud([3.0]), p) == pytest.approx(3.0)

    def test_shifted_gaussians(self):
        rng = derive_stream(1, "w1d")
        a = SampleCloud(rng.standard_normal(10_000))
        b = SampleCloud(rng.standard_normal(10_000) + 2.0)
        assert wasserstein_1d(a, b, 2.0) == pytest.approx(2.0, abs=0.05)

    def test_resampling_path(self):
        a = SampleCloud(np.arange(10.0))
        b = SampleCloud(np.arange(7.0))
        val = wasserstein_1d(a, b, 1.0, resample_seed=3)
        assert math.isfinite(val) and val >= 0.0

    def test_dimension_guard(self):
        with pytest.raises(ConfigurationError):
            wasserstein_1d(SampleCloud(np.zeros((3, 2))), SampleCloud(np.zeros((3, 2))))

    def test_unequal_sizes_pinned(self):
        # the smaller cloud, a or b, is resampled up to the larger size
        rng = derive_stream(12, "unequal")
        a, b = rng.standard_normal(13), rng.standard_normal(8) + 0.3
        assert wasserstein_1d(a, b, 2.0, resample_seed=4) == 0.8668380442550929
        assert wasserstein_1d(b, a, 1.5, resample_seed=4) == 0.7771917825062276

    def test_matches_scipy_order_one(self):
        # independent implementation oracle for p = 1
        from scipy.stats import wasserstein_distance

        rng = derive_stream(21, "w1d-scipy")
        a = rng.standard_normal(200)
        b = rng.standard_normal(200) + 0.4
        got = wasserstein_1d(SampleCloud(a), SampleCloud(b), 1.0)
        assert got == pytest.approx(wasserstein_distance(a, b), rel=1e-12)


class TestWassersteinExact:
    def test_single_point(self):
        a = SampleCloud(np.array([[0.0, 0.0]]))
        b = SampleCloud(np.array([[3.0, 4.0]]))
        assert wasserstein_exact_small(a, b, 2.0) == pytest.approx(5.0)

    def test_same_multiset_permuted(self):
        a = SampleCloud(np.array([0.0, 1.0, 2.0]))
        b = SampleCloud(np.array([2.0, 0.0, 1.0]))
        assert wasserstein_exact_small(a, b, 1.0) == 0.0

    def test_matches_brute_force(self, perms8):
        rng = derive_stream(2, "brute")
        for _ in range(50):
            a = rng.standard_normal((8, 2))
            b = rng.standard_normal((8, 2))
            for p in (1.0, 2.0):
                ours = wasserstein_exact_small(SampleCloud(a), SampleCloud(b), p)
                assert ours == pytest.approx(brute_force_wasserstein(a, b, p, perms8), abs=1e-12)

    def test_matches_brute_force_all_small_sizes(self):
        rng = derive_stream(4, "brute-sizes")
        for n in range(2, 9):
            perms = np.array(list(itertools.permutations(range(n))))
            a = rng.standard_normal((n, 3))
            b = rng.standard_normal((n, 3))
            for p in (1.0, 2.0):
                ours = wasserstein_exact_small(SampleCloud(a), SampleCloud(b), p)
                assert ours == pytest.approx(brute_force_wasserstein(a, b, p, perms), abs=1e-12)

    def test_one_dim_agrees_with_sorting(self):
        rng = derive_stream(3, "1d-agree")
        a = SampleCloud(rng.standard_normal(64))
        b = SampleCloud(rng.standard_normal(64) + 0.7)
        for p in (1.0, 2.0):
            assert wasserstein_exact_small(a, b, p) == pytest.approx(
                wasserstein_1d(a, b, p), rel=1e-12
            )

    @pytest.mark.parametrize("shape_a, shape_b, message", [
        ((65, 1), (65, 1), "exact solver is capped at 64 points"),
        ((3, 1), (4, 1), "exact solver needs equal cloud sizes"),
        ((3, 1), (3, 2), "clouds must share the dimension"),
    ], ids=["cap", "sizes", "dimensions"])
    def test_shape_guards(self, shape_a, shape_b, message):
        with pytest.raises(ConfigurationError, match=message):
            wasserstein_exact_small(np.zeros(shape_a), np.zeros(shape_b), 2.0)

    def test_triangle_inequality(self):
        rng = derive_stream(5, "triangle")
        for _ in range(100):
            a = SampleCloud(rng.standard_normal((12, 2)))
            b = SampleCloud(rng.standard_normal((12, 2)))
            c = SampleCloud(rng.standard_normal((12, 2)))
            dab = wasserstein_exact_small(a, b, 2.0)
            dbc = wasserstein_exact_small(b, c, 2.0)
            dac = wasserstein_exact_small(a, c, 2.0)
            assert dac <= dab + dbc + 1e-12

    def test_scale_equivariance(self):
        rng = derive_stream(7, "scale")
        a = rng.standard_normal((16, 3))
        b = rng.standard_normal((16, 3))
        base = wasserstein_exact_small(SampleCloud(a), SampleCloud(b), 2.0)
        scaled = wasserstein_exact_small(SampleCloud(2.5 * a), SampleCloud(2.5 * b), 2.0)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)


class TestAssignment:
    """The assignment solver against scipy's, which stays a test-only oracle."""

    def test_matches_scipy_column_order(self):
        # continuous costs on clouds in d >= 2 have a unique optimal matching
        from scipy.optimize import linear_sum_assignment

        rng = derive_stream(15, "lsap-oracle")
        for n in range(1, 65):
            for d, p in ((2, 2.0), (3, 1.0), (4, 3.0)):
                a = rng.standard_normal((n, d))
                b = rng.standard_normal((n, d)) + rng.uniform(0.0, 2.0)
                cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
                np.testing.assert_array_equal(_assignment(cost), linear_sum_assignment(cost)[1])

    def test_tied_costs_reach_the_optimum(self):
        from scipy.optimize import linear_sum_assignment

        rng = derive_stream(16, "lsap-ties")
        for n in (2, 5, 17, 40, 64):
            for scale in (1.0, 3.0, 10.0):
                a = rng.standard_normal((n, 2))
                b = rng.standard_normal((n, 2))
                cost = np.round(scale * np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
                rows, cols = linear_sum_assignment(cost)
                got = _assignment(cost)
                np.testing.assert_array_equal(np.sort(got), np.arange(n))
                assert cost[rows, got].sum() == cost[rows, cols].sum()

    @pytest.mark.parametrize("fault", ["nan-entry", "inf-row"])
    def test_non_finite_cost_is_numerical_error(self, fault):
        cost = derive_stream(17, "lsap-fault").uniform(size=(6, 6))
        if fault == "nan-entry":
            cost[2, 3] = np.nan
        else:
            cost[4] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            _assignment(cost)

    def test_overflowing_wasserstein_cost_is_numerical_error(self):
        # |a_0 - b_j| overflows: row 0 of the cost matrix is all inf
        rng = derive_stream(18, "lsap-overflow")
        a = rng.standard_normal((6, 2))
        a[0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            wasserstein_exact_small(a, rng.standard_normal((6, 2)), 2.0)

    @pytest.mark.parametrize("fault", ["nan-entry", "inf-row"])
    def test_overflowing_rho_cost_is_numerical_error(self, quad_theory, fault):
        # V overflows at a point with a huge velocity: its row of the cost is
        # h(r) * inf = inf, and h(0) * inf = NaN where the other cloud holds it too
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        rng = derive_stream(19, "rho-overflow")
        a = rng.standard_normal((6, 4))
        a[0, 2:] = 1e200
        b = rng.standard_normal((6, 4))
        if fault == "nan-entry":
            b[3] = a[0]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            rho_distance_cloud(SampleCloud(a), SampleCloud(b), cc, lyap)


class TestSlicedWasserstein:
    def test_identical_clouds(self):
        rng = derive_stream(8, "sw-id")
        a = SampleCloud(rng.standard_normal((100, 3)))
        assert sliced_wasserstein(a, a, 2.0, seed=0) == 0.0

    def test_translation_mean_projection(self):
        # sliced-W1 of a rigid translation approaches E |<u, t>| over uniform
        # directions, which is 2 |t| / pi in the plane
        rng = derive_stream(9, "sw-shift")
        pts = rng.standard_normal((4000, 2))
        t = np.array([1.0, 0.0])
        a = SampleCloud(pts)
        b = SampleCloud(pts + t)
        got = sliced_wasserstein(a, b, 1.0, n_projections=512, seed=4)
        assert got == pytest.approx(2.0 / math.pi, rel=0.05)
        assert got <= np.linalg.norm(t) + 1e-12

    def test_projection_count_stability(self):
        rng = derive_stream(10, "sw-stab")
        a = SampleCloud(rng.standard_normal((500, 3)))
        b = SampleCloud(rng.standard_normal((500, 3)) + 0.5)
        vals_128 = [sliced_wasserstein(a, b, 2.0, 128, seed=s) for s in range(6)]
        v256 = sliced_wasserstein(a, b, 2.0, 256, seed=99)
        spread = np.std(vals_128)
        assert abs(v256 - np.mean(vals_128)) <= max(3.0 * spread, 0.01)

    def test_unequal_sizes_pinned(self):
        rng = derive_stream(12, "unequal")
        rng.standard_normal(21)  # the 1-d pin's clouds
        a, b = rng.standard_normal((9, 3)), rng.standard_normal((14, 3)) - 0.2
        assert sliced_wasserstein(a, b, 2.0, 16, seed=4) == 0.881448934264432
        assert sliced_wasserstein(b, a, 1.5, 16, seed=4) == 0.8081993176175375

    def test_dimension_guard(self):
        with pytest.raises(ConfigurationError, match="clouds must share the dimension"):
            sliced_wasserstein(np.zeros((3, 1)), np.zeros((3, 2)))

    def test_deterministic_given_seed(self):
        rng = derive_stream(11, "sw-det")
        a = SampleCloud(rng.standard_normal((50, 2)))
        b = SampleCloud(rng.standard_normal((50, 2)))
        assert sliced_wasserstein(a, b, 2.0, seed=5) == sliced_wasserstein(a, b, 2.0, seed=5)

    @pytest.mark.parametrize("n_projections", [0, -3, 2.5, math.inf, math.nan, True])
    def test_projection_count_guard(self, n_projections):
        a = SampleCloud(np.arange(4.0))
        with pytest.raises(ConfigurationError, match="n_projections must be an integer"):
            sliced_wasserstein(a, a, 2.0, n_projections)

    def test_integral_projection_count_converted(self):
        rng = derive_stream(11, "sw-count")
        a, b = SampleCloud(rng.standard_normal((20, 2))), SampleCloud(rng.standard_normal((20, 2)))
        want = sliced_wasserstein(a, b, 2.0, 3, seed=1)
        for n_projections in (3.0, np.float64(3.0), np.int64(3)):
            assert sliced_wasserstein(a, b, 2.0, n_projections, seed=1) == want


class TestRhoDistance:
    def test_identical_zero_and_symmetry(self, quad_theory):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        rng = derive_stream(12, "rho-cloud")
        a = SampleCloud(rng.standard_normal((16, 4)))
        b = SampleCloud(rng.standard_normal((16, 4)))
        assert rho_distance_cloud(a, a, cc, lyap) == 0.0
        assert rho_distance_cloud(a, b, cc, lyap) == pytest.approx(
            rho_distance_cloud(b, a, cc, lyap), rel=1e-12
        )

    def test_weighted_transport_bound(self, quad_theory):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        c17 = 3.0 * max(1.0 + cc.alpha_c, 1.0 / lyap.gamma)
        rng = derive_stream(13, "rho-bound")
        for _ in range(20):
            a = SampleCloud(rng.standard_normal((12, 4)))
            b = SampleCloud(rng.standard_normal((12, 4)))
            rho = rho_distance_cloud(a, b, cc, lyap)
            va = lyap.value_rows(a.points[:, :2], a.points[:, 2:]).max()
            vb = lyap.value_rows(b.points[:, :2], b.points[:, 2:]).max()
            w2 = wasserstein_exact_small(a, b, 2.0)
            assert rho <= c17 * (1 + cc.epsilon_c * (va + vb)) * w2 * (1 + 1e-9)

    def test_monotone_in_separation(self, quad_theory):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        rng = derive_stream(14, "rho-mono")
        pts = rng.standard_normal((16, 4))
        shift = np.array([0.05, 0.0, 0.0, 0.0])
        a = SampleCloud(pts)
        near = SampleCloud(pts + shift)
        far = SampleCloud(pts + 2 * shift)
        assert rho_distance_cloud(a, far, cc, lyap) > rho_distance_cloud(a, near, cc, lyap)

    @pytest.mark.parametrize("shape_a, shape_b, message", [
        ((4, 3), (4, 3), "phase-space clouds need even, equal dimension"),
        ((4, 4), (5, 4), "rho distance needs equal cloud sizes"),
        ((65, 4), (65, 4), "rho distance is capped at 64 points"),
    ], ids=["odd", "sizes", "cap"])
    def test_shape_guards(self, quad_theory, shape_a, shape_b, message):
        cc, lyap = quad_theory["cc"], quad_theory["lyap"]
        with pytest.raises(ConfigurationError, match=message):
            rho_distance_cloud(np.zeros(shape_a), np.zeros(shape_b), cc, lyap)


class TestQuadGrowthContinuity:
    def test_constant_function(self):
        rng = derive_stream(17, "qg-const")
        a = SampleCloud(rng.standard_normal((16, 2)))
        b = SampleCloud(rng.standard_normal((16, 2)))
        lhs, rhs = quad_growth_continuity_check(
            lambda W: np.full(W.shape[0], 7.0), (1.0, 0.0), a, b, 2.0, 2.0
        )
        assert lhs == 0.0
        assert rhs >= 0.0

    def test_equal_clouds_both_zero(self):
        rng = derive_stream(18, "qg-eq")
        a = SampleCloud(rng.standard_normal((16, 2)))
        lhs, rhs = quad_growth_continuity_check(
            lambda W: np.sum(W * W, axis=1), (2.0, 0.0), a, a, 2.0, 2.0
        )
        assert lhs == 0.0
        assert rhs == 0.0

    def test_squared_norm_inequality(self):
        rng = derive_stream(19, "qg-ineq")
        a = SampleCloud(rng.standard_normal((32, 4)))
        b = SampleCloud(rng.standard_normal((32, 4)) + 0.3)
        lhs, rhs = quad_growth_continuity_check(
            lambda W: np.sum(W * W, axis=1), (2.0, 0.0), a, b, 2.0, 2.0
        )
        assert lhs <= rhs

    def test_non_finite_values_rejected(self):
        a = SampleCloud(np.zeros((4, 2)))
        with pytest.raises(ConfigurationError, match="G produced non-finite values"):
            quad_growth_continuity_check(lambda W: np.full(len(W), math.nan), (1.0, 0.0), a, a,
                                         2.0, 2.0)

    def test_pq_guard(self):
        a = SampleCloud(np.zeros((4, 2)))
        with pytest.raises(ConfigurationError):
            quad_growth_continuity_check(lambda W: np.zeros(4), (1.0, 0.0), a, a, 2.0, 3.0)
        for p in (1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="order p"):
                quad_growth_continuity_check(lambda W: np.zeros(4), (1.0, 0.0), a, a, p, 2.0)
        # 1/inf + 1/1 = 1 holds, but W_inf is not what the order-p estimators compute
        with pytest.raises(ConfigurationError, match="order p"):
            quad_growth_continuity_check(lambda W: np.zeros(4), (1.0, 0.0), a, a, math.inf, 1.0)


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
@pytest.mark.parametrize("estimator", [wasserstein_1d, wasserstein_exact_small, sliced_wasserstein])
def test_order_below_one_or_nan_rejected(estimator, p):
    a = SampleCloud(np.arange(4.0))
    b = SampleCloud(np.arange(4.0) + 1.0)
    with pytest.raises(ConfigurationError, match="order p"):
        estimator(a, b, p)


@pytest.mark.parametrize("estimator, streams", [(wasserstein_1d, 0), (sliced_wasserstein, 1)])
def test_resample_stream_derived_only_for_unequal_sizes(monkeypatch, estimator, streams):
    calls = []
    monkeypatch.setattr("sghmc.metrics.derive_stream",
                        lambda *args: calls.append(args) or derive_stream(*args))
    a = np.arange(6.0)
    estimator(a, a + 1.0, 2.0)
    assert len(calls) == streams
    estimator(a, a[:4], 2.0)
    assert len(calls) == 2 * streams + 1
