import numpy as np
import pytest

from sghmc import (
    ConfigurationError,
    empirical_gradient,
    estimate_delta,
    make_dataset,
    make_oracle,
    quadratic,
    variance_scaling_curve,
)
from sghmc.gradient_oracle import MinibatchOracle, sample_gradient_many
from sghmc.objectives import minibatch_gradient_rows
from sghmc.rng import derive_stream


@pytest.fixture(scope="module")
def coupled_quad():
    data = make_dataset("gaussian", 50, 2, seed=3)
    obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data.max_norm())
    return obj, data


def test_full_pass_equals_empirical_gradient(coupled_quad):
    obj, data = coupled_quad
    oracle = make_oracle(obj, data, None, seed=1)
    x = np.array([0.4, -1.2])
    assert np.array_equal(sample_gradient_many(oracle, x, 1)[0], empirical_gradient(x, obj, data))


def test_unbiasedness_three_sigma(coupled_quad):
    obj, data = coupled_quad
    oracle = make_oracle(obj, data, 5, seed=11)
    x = np.array([0.7, 0.1])
    draws = sample_gradient_many(oracle, x, 100_000)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    full = empirical_gradient(x, obj, data)
    assert np.all(np.abs(mean - full) <= 3.0 * se)


@pytest.mark.parametrize("ell", [1, 5])
def test_many_draws_are_the_chains_minibatch_mean(builtin_suite, ell):
    # the oracle averages through the estimator the chains step with: its
    # draws equal minibatch_gradient_rows on a twin oracle's indices, bit for bit
    x = np.array([0.7, -1.3])
    for obj, data in builtin_suite:
        draws = sample_gradient_many(make_oracle(obj, data, ell, seed=5), x, 300)
        idx = make_oracle(obj, data, ell, seed=5).rng.integers(0, data.n, size=(300, ell))
        want = minibatch_gradient_rows(np.tile(x, (300, 1)), obj, data, idx)
        assert np.array_equal(draws, want), obj.name


def test_same_seed_same_draws(coupled_quad):
    obj, data = coupled_quad
    x = np.array([1.0, 2.0])
    a = sample_gradient_many(make_oracle(obj, data, 4, seed=99), x, 1)
    b = sample_gradient_many(make_oracle(obj, data, 4, seed=99), x, 1)
    assert np.array_equal(a, b)


def test_stream_advances(coupled_quad):
    obj, data = coupled_quad
    oracle = make_oracle(obj, data, 4, seed=99)
    x = np.array([1.0, 2.0])
    first = sample_gradient_many(oracle, x, 1)
    assert not np.array_equal(first, sample_gradient_many(oracle, x, 1))


class TestEstimateDelta:
    def test_full_pass_delta_zero(self, coupled_quad):
        obj, data = coupled_quad
        oracle = make_oracle(obj, data, None, seed=2)
        assert estimate_delta(oracle, [np.zeros(2), np.ones(2)], trials=200) == 0.0

    def test_closed_form_conditional_variance(self):
        # batch size 1 at the origin: E|g - grad F|^2 is exactly the sample
        # variance of the dataset around its mean
        data = make_dataset("gaussian", 100, 1, seed=3)
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=data.max_norm())
        oracle = make_oracle(obj, data, 1, seed=21)
        x = np.zeros(1)
        full = empirical_gradient(x, obj, data)
        draws = sample_gradient_many(oracle, x, 50_000)
        est = float(np.mean(np.sum((draws - full) ** 2, axis=1)))
        z = data.samples[:, 0]
        exact = float(np.mean((z - z.mean()) ** 2))
        assert est == pytest.approx(exact, rel=0.05)

    def test_variance_quarter_at_batch_four(self, coupled_quad):
        obj, data = coupled_quad
        x = np.array([0.5, -0.5])
        full = empirical_gradient(x, obj, data)

        def msd(ell, seed):
            oracle = make_oracle(obj, data, ell, seed=seed)
            draws = sample_gradient_many(oracle, x, 40_000)
            return float(np.mean(np.sum((draws - full) ** 2, axis=1)))

        v1 = msd(1, 31)
        v4 = msd(4, 32)
        assert v4 == pytest.approx(v1 / 4.0, rel=0.2)

    def test_trials_floor(self, coupled_quad):
        obj, data = coupled_quad
        oracle = make_oracle(obj, data, 2, seed=1)
        with pytest.raises(ConfigurationError):
            estimate_delta(oracle, [np.zeros(2)], trials=10)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_no_probes_rejected(self, coupled_quad, batch):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError, match="at least one probe"):
            estimate_delta(make_oracle(obj, data, batch, seed=1), [], trials=200)

    @pytest.mark.parametrize("probe, match", [
        (np.zeros(3), r"probe must have shape \(2,\)"),
        (np.zeros((1, 2)), r"probe must have shape \(2,\)"),
        (np.array([np.nan, 0.0]), "probe must be finite"),
        (np.array([np.inf, 0.0]), "probe must be finite"),
    ], ids=["length-3", "row", "nan", "inf"])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_malformed_probe_rejected(self, coupled_quad, batch, probe, match):
        obj, data = coupled_quad
        oracle = make_oracle(obj, data, batch, seed=1)
        with pytest.raises(ConfigurationError, match=match):
            estimate_delta(oracle, [np.zeros(2), probe], trials=200)
        with pytest.raises(ConfigurationError, match=match):
            sample_gradient_many(oracle, probe, 5)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_draw_count_checked(self, coupled_quad, trials):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError, match="trials must be >= 1"):
            sample_gradient_many(make_oracle(obj, data, 2, seed=1), np.zeros(2), trials)

    @pytest.mark.parametrize("batch", [2.5, 0.5, True, float("nan"), float("inf")])
    def test_non_integral_batch_size_rejected(self, coupled_quad, batch):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError, match="batch size must be an integer"):
            make_oracle(obj, data, batch, seed=1)

    def test_integral_batch_size_converted(self, coupled_quad):
        obj, data = coupled_quad
        assert type(make_oracle(obj, data, 2.0, seed=1).batch_size) is int
        assert make_oracle(obj, data, np.int64(3), seed=1).batch_size == 3

    def test_stable_across_probe_radii(self, coupled_quad):
        # the max ratio is attained near the origin, so probe sets that
        # include it give a stable delta_hat across radii
        obj, data = coupled_quad
        rng = derive_stream(8, "delta-probes")
        estimates = []
        for i, radius in enumerate((1.0, 5.0, 10.0)):
            probes = [np.zeros(2)] + [
                radius * v / np.linalg.norm(v)
                for v in rng.standard_normal((4, 2))
            ]
            oracle = make_oracle(obj, data, 2, seed=40 + i)
            estimates.append(estimate_delta(oracle, probes, trials=20_000))
        mid = float(np.median(estimates))
        assert all(abs(e - mid) / mid <= 0.10 for e in estimates)


class TestVarianceCurve:
    def test_inverse_batch_slope(self, coupled_quad):
        obj, data = coupled_quad
        curve = variance_scaling_curve(
            obj, data, np.array([0.5, 0.0]), [1, 2, 4, 8, 16], trials=20_000, seed=5
        )
        assert -1.15 <= curve.slope <= -0.85

    def test_single_batch_size_no_slope(self, coupled_quad):
        obj, data = coupled_quad
        curve = variance_scaling_curve(obj, data, np.zeros(2), [3], trials=500, seed=1)
        assert len(curve.points) == 1
        assert curve.slope is None

    def test_full_batch_with_replacement_still_noisy(self, coupled_quad):
        obj, data = coupled_quad
        curve = variance_scaling_curve(
            obj, data, np.zeros(2), [1, data.n], trials=20_000, seed=9
        )
        v1 = dict((l, v) for l, v in curve.points)[1]
        vn = dict((l, v) for l, v in curve.points)[data.n]
        assert 0.0 < vn < v1

    def test_validation(self, coupled_quad):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError):
            variance_scaling_curve(obj, data, np.zeros(2), [2, 2], trials=500)
        with pytest.raises(ConfigurationError):
            variance_scaling_curve(obj, data, np.zeros(2), [0], trials=500)
        for trials in (0, -3):
            with pytest.raises(ConfigurationError, match="trials must be >= 1"):
                variance_scaling_curve(obj, data, np.zeros(2), [1, 2], trials=trials)
        with pytest.raises(ConfigurationError, match="at least one batch size"):
            variance_scaling_curve(obj, data, np.zeros(2), [], trials=10)
        for sizes in ([1.7, 2.2], [2.5], [True], [float("nan")]):
            with pytest.raises(ConfigurationError, match="batch size must be an integer"):
                variance_scaling_curve(obj, data, np.zeros(2), sizes, trials=10)
        with pytest.raises(ConfigurationError, match=r"probe must have shape \(2,\)"):
            variance_scaling_curve(obj, data, np.zeros(3), [1, 2], trials=10)
        with pytest.raises(ConfigurationError, match="probe must be finite"):
            variance_scaling_curve(obj, data, np.array([np.nan, 0.0]), [1, 2], trials=10)


def test_batch_size_validation(coupled_quad):
    obj, data = coupled_quad
    with pytest.raises(ConfigurationError):
        MinibatchOracle(obj=obj, data=data, batch_size=0, rng=derive_stream(0, "x"))
