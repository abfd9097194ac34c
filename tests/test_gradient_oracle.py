import dataclasses
import re
import hashlib

import numpy as np
import pytest

from sghmc import (
    ConfigurationError,
    double_well,
    empirical_gradient,
    estimate_delta,
    gaussian_mixture,
    make_dataset,
    quadratic,
    variance_scaling_curve,
)
from sghmc.gradient_oracle import sample_gradient_many
from sghmc.objectives import minibatch_gradient_rows
from sghmc.rng import derive_stream


@pytest.fixture(scope="module")
def coupled_quad():
    data = make_dataset("gaussian", 50, 2, seed=3)
    obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data.max_norm())
    return obj, data


def test_full_pass_equals_empirical_gradient(coupled_quad):
    obj, data = coupled_quad
    x = np.array([0.4, -1.2])
    draw = sample_gradient_many(obj, data, None, derive_stream(1, "minibatch"), x, 1)[0]
    assert np.array_equal(draw, empirical_gradient(x, obj, data))


def test_unbiasedness_three_sigma(coupled_quad):
    obj, data = coupled_quad
    x = np.array([0.7, 0.1])
    draws = sample_gradient_many(obj, data, 5, derive_stream(11, "minibatch"), x, 100_000)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    full = empirical_gradient(x, obj, data)
    assert np.all(np.abs(mean - full) <= 3.0 * se)


@pytest.mark.parametrize("ell", [1, 5])
def test_many_draws_are_the_chains_minibatch_mean(builtin_suite, ell):
    # the draws average through the estimator the chains step with: they equal
    # minibatch_gradient_rows on a twin stream's indices, bit for bit
    x = np.array([0.7, -1.3])
    for obj, data in builtin_suite:
        draws = sample_gradient_many(obj, data, ell, derive_stream(5, "minibatch"), x, 300)
        idx = derive_stream(5, "minibatch").integers(0, data.n, size=(300, ell))
        want = minibatch_gradient_rows(np.tile(x, (300, 1)), obj, data, idx)
        assert np.array_equal(draws, want), obj.name


def test_same_seed_same_draws(coupled_quad):
    obj, data = coupled_quad
    x = np.array([1.0, 2.0])
    a = sample_gradient_many(obj, data, 4, derive_stream(99, "minibatch"), x, 1)
    b = sample_gradient_many(obj, data, 4, derive_stream(99, "minibatch"), x, 1)
    assert np.array_equal(a, b)


def test_stream_advances(coupled_quad):
    # draws from one stream continue it: a second call draws fresh indices,
    # the ones a single call of twice the size draws next
    obj, data = coupled_quad
    rng = derive_stream(99, "minibatch")
    x = np.array([1.0, 2.0])
    first = sample_gradient_many(obj, data, 4, rng, x, 1)
    second = sample_gradient_many(obj, data, 4, rng, x, 1)
    assert not np.array_equal(first, second)
    both = sample_gradient_many(obj, data, 4, derive_stream(99, "minibatch"), x, 2)
    assert np.array_equal(both, np.vstack([first, second]))


def test_full_gradient_draws_nothing(coupled_quad):
    obj, data = coupled_quad
    rng = derive_stream(99, "minibatch")
    state = rng.bit_generator.state
    sample_gradient_many(obj, data, None, rng, np.ones(2), 3)
    estimate_delta(obj, data, None, rng, [np.ones(2)], trials=100)
    assert rng.bit_generator.state == state


class TestEstimateDelta:
    def test_full_pass_delta_zero(self, coupled_quad):
        obj, data = coupled_quad
        rng = derive_stream(2, "minibatch")
        assert estimate_delta(obj, data, None, rng, [np.zeros(2), np.ones(2)], trials=200) == 0.0

    def test_closed_form_conditional_variance(self):
        # batch size 1 at the origin: E|g - grad F|^2 is exactly the sample
        # variance of the dataset around its mean
        data = make_dataset("gaussian", 100, 1, seed=3)
        obj = quadratic(1, m0=1.0, coupling=1.0, z_radius=data.max_norm())
        x = np.zeros(1)
        full = empirical_gradient(x, obj, data)
        draws = sample_gradient_many(obj, data, 1, derive_stream(21, "minibatch"), x, 50_000)
        est = float(np.mean(np.sum((draws - full) ** 2, axis=1)))
        z = data.samples[:, 0]
        exact = float(np.mean((z - z.mean()) ** 2))
        assert est == pytest.approx(exact, rel=0.05)

    def test_variance_quarter_at_batch_four(self, coupled_quad):
        obj, data = coupled_quad
        x = np.array([0.5, -0.5])
        full = empirical_gradient(x, obj, data)

        def msd(ell, seed):
            draws = sample_gradient_many(obj, data, ell, derive_stream(seed, "minibatch"), x,
                                         40_000)
            return float(np.mean(np.sum((draws - full) ** 2, axis=1)))

        v1 = msd(1, 31)
        v4 = msd(4, 32)
        assert v4 == pytest.approx(v1 / 4.0, rel=0.2)

    @pytest.mark.parametrize("trials", [10, 99.0, True, float("nan")])
    def test_trials_floor(self, coupled_quad, trials):
        obj, data = coupled_quad
        rng = derive_stream(1, "minibatch")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"trials must be an integer >= 100, got {trials!r}")):
            estimate_delta(obj, data, 2, rng, [np.zeros(2)], trials=trials)

    def test_zero_denominator(self, coupled_quad):
        # at the origin with B = 0 the ratio's denominator vanishes: noiseless
        # draws give 0, noisy ones (here under a certificate that drops the
        # coupling's B) have no ratio
        obj, data = coupled_quad
        rng = derive_stream(1, "minibatch")
        assert estimate_delta(quadratic(2, m0=1.0), data, 2, rng, [np.zeros(2)], 100) == 0.0
        no_b = dataclasses.replace(obj, cert=dataclasses.replace(obj.cert, B=0.0))
        with pytest.raises(ConfigurationError, match="variance ratio undefined"):
            estimate_delta(no_b, data, 2, rng, [np.zeros(2)], trials=100)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_no_probes_rejected(self, coupled_quad, batch):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError, match="at least one probe"):
            estimate_delta(obj, data, batch, derive_stream(1, "minibatch"), [], trials=200)

    @pytest.mark.parametrize("probe, match", [
        (np.zeros(3), r"probe must have shape \(2,\)"),
        (np.zeros((1, 2)), r"probe must have shape \(2,\)"),
        (np.array([np.nan, 0.0]), "probe must be finite"),
        (np.array([np.inf, 0.0]), "probe must be finite"),
    ], ids=["length-3", "row", "nan", "inf"])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_malformed_probe_rejected(self, coupled_quad, batch, probe, match):
        obj, data = coupled_quad
        rng = derive_stream(1, "minibatch")
        with pytest.raises(ConfigurationError, match=match):
            estimate_delta(obj, data, batch, rng, [np.zeros(2), probe], trials=200)
        with pytest.raises(ConfigurationError, match=match):
            sample_gradient_many(obj, data, batch, rng, probe, 5)

    @pytest.mark.parametrize("trials", [0, -2, 2.5, float("inf"), float("nan"), True,
                                        np.float64(np.inf)])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_draw_count_checked(self, coupled_quad, batch, trials):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError, match="trials must be an integer >= 1"):
            sample_gradient_many(obj, data, batch, derive_stream(1, "minibatch"), np.zeros(2),
                                 trials)

    @pytest.mark.parametrize("trials", [100.5, float("inf"), np.float64(np.inf)])
    def test_draw_count_above_floor_checked(self, coupled_quad, trials):
        obj, data = coupled_quad
        with pytest.raises(ConfigurationError, match="trials must be an integer >= 1"):
            estimate_delta(obj, data, 2, derive_stream(1, "minibatch"), [np.zeros(2)], trials)

    def test_integral_draw_count_converted(self, coupled_quad):
        obj, data = coupled_quad
        x, probes = np.ones(2), [np.zeros(2), np.ones(2)]
        want = sample_gradient_many(obj, data, 2, derive_stream(1, "minibatch"), x, 3)
        got = sample_gradient_many(obj, data, 2, derive_stream(1, "minibatch"), x,
                                   np.float64(3.0))
        assert np.array_equal(got, want)
        want = estimate_delta(obj, data, 2, derive_stream(1, "minibatch"), probes, 200)
        for trials in (200.0, np.float64(200.0), np.int64(200)):
            rng = derive_stream(1, "minibatch")
            assert estimate_delta(obj, data, 2, rng, probes, trials) == want

    @pytest.mark.parametrize("batch", [2.5, 0.5, True, float("nan"), float("inf"),
                                       np.float64(np.inf)])
    def test_non_integral_batch_size_rejected(self, coupled_quad, batch):
        # the batch size is checked before any draw
        obj, data = coupled_quad
        rng = derive_stream(1, "minibatch")
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="batch size must be an integer >= 1"):
            sample_gradient_many(obj, data, batch, rng, np.zeros(2), 5)
        with pytest.raises(ConfigurationError, match="batch size must be an integer >= 1"):
            estimate_delta(obj, data, batch, rng, [np.zeros(2)], trials=200)
        assert rng.bit_generator.state == state

    def test_integral_batch_size_converted(self, coupled_quad):
        # an integral float or numpy integer draws what the int draws
        obj, data = coupled_quad
        x = np.array([0.3, -0.2])
        want = sample_gradient_many(obj, data, 2, derive_stream(1, "minibatch"), x, 50)
        for batch in (2.0, np.float64(2.0), np.int64(2)):
            got = sample_gradient_many(obj, data, batch, derive_stream(1, "minibatch"), x, 50)
            assert np.array_equal(got, want)

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
            draws = derive_stream(40 + i, "minibatch")
            estimates.append(estimate_delta(obj, data, 2, draws, probes, trials=20_000))
        mid = float(np.median(estimates))
        assert all(abs(e - mid) / mid <= 0.10 for e in estimates)


def test_batch_size_validation(coupled_quad):
    obj, data = coupled_quad
    rng = derive_stream(0, "x")
    for batch in (0, -1):
        with pytest.raises(ConfigurationError, match="batch size must be an integer >= 1"):
            sample_gradient_many(obj, data, batch, rng, np.zeros(2), 1)
        with pytest.raises(ConfigurationError, match="batch size must be an integer >= 1"):
            estimate_delta(obj, data, batch, rng, [np.zeros(2)], trials=100)


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
        for trials in (0, -3, 2.5, float("inf"), True, np.float64(np.nan)):
            with pytest.raises(ConfigurationError, match="trials must be an integer >= 1"):
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


class TestPinned:
    """Pins of the three estimators on the built-ins (n = 100, data seed 7) at
    every batch size, on the eight probes the risk-bound kind draws: a change
    to a stream, a draw or the order of a sum shows here."""

    SEED = 3
    BATCHES = (None, 1, 10, 50)
    # per objective: estimate_delta then sample_gradient_many at BATCHES, then
    # variance_scaling_curve over the sizes 1, 10 and 50
    GOLDEN = {
        "quadratic": "30b3461b3d7b4a1a 8d3de42f63acd863 09c3e46e69916175 47f798177dd61892 "
                     "2b4f9fed027a059c",
        "double_well": "20decb2fcbfcb864 3811ae2471987557 aed63101df461c7d 11e58c8ed6b0d589 "
                       "96436b80003f7c72",
        "gaussian_mixture": "ceb6d2885d7fc3ba 6674321bd9ef2494 0db1a7d9025eb538 "
                            "d6b19bb04323692a eaa4da8c36ef439f",
    }

    @classmethod
    def objectives(cls):
        data = make_dataset("gaussian", 100, 2, seed=7)
        r = data.max_norm()
        return data, {"quadratic": quadratic(2, m0=1.0),
                      "double_well": double_well(2, coupling=0.1, z_radius=r),
                      "gaussian_mixture": gaussian_mixture(2, ridge=0.05, z_radius=r)}

    @classmethod
    def probes(cls):
        # as the risk-bound kind draws them
        rng = derive_stream(cls.SEED, "risk:probes")
        return [np.zeros(2)] + [rng.standard_normal(2) for _ in range(7)]

    @classmethod
    def outputs(cls, obj, data, ell):
        probes = cls.probes()
        out = [estimate_delta(obj, data, ell, derive_stream(cls.SEED, "risk:delta"),
                              probes, trials=400)]
        rng = derive_stream(cls.SEED, "draws")
        out += [sample_gradient_many(obj, data, ell, rng, x, 16) for x in probes]
        return out

    @classmethod
    def curve(cls, obj, data):
        out = []
        for x in cls.probes():
            c = variance_scaling_curve(obj, data, x, [1, 10, 50], trials=100, seed=cls.SEED)
            out += [c.points, c.slope]
        return out

    @staticmethod
    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()[:16]

    @classmethod
    def digests(cls, name):
        data, objs = cls.objectives()
        obj = objs[name]
        out = [cls.digest(cls.outputs(obj, data, ell)) for ell in cls.BATCHES]
        return tuple(out + [cls.digest(cls.curve(obj, data))])

    @pytest.mark.parametrize("name", ["quadratic", "double_well", "gaussian_mixture"])
    def test_outputs_pinned(self, name):
        assert self.digests(name) == tuple(self.GOLDEN[name].split())
