import dataclasses
import hashlib
import math
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from sghmc import (
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    InitialLaw,
    ObjectiveSpec,
    SamplerConfig,
    SmoothnessCertificate,
    coupled_run,
    double_well,
    gaussian_init,
    gaussian_mixture,
    make_dataset,
    point_init,
    quadratic,
    run_chain,
)
from sghmc import samplers, theory
from sghmc.samplers import (
    CHAIN_KINDS,
    brownian_coupled_distance,
    coupled_ensemble_run,
    ensemble_run,
)
from sghmc.rng import derive_stream


def zero_objective(dim):
    return ObjectiveSpec(
        "zero",
        dim,
        lambda x, Z: np.zeros(Z.shape[0]),
        lambda x, Z: np.zeros((Z.shape[0], dim)),
        SmoothnessCertificate(A0=0.0, B=0.0, M=1e-12, m=1e-12, b=0.0),
    )


@pytest.fixture(scope="module")
def data1():
    return make_dataset("gaussian", 50, 1, seed=7)


@pytest.fixture(scope="module")
def data2():
    return make_dataset("gaussian", 100, 2, seed=7)


def _cfg(**kw):
    base = dict(
        lam=0.01, gamma=2.0, beta=1.0, batch_size=None, dim=2, seed=1,
        init=point_init([0.0, 0.0], [0.0, 0.0]),
    )
    base.update(kw)
    return SamplerConfig(**base)


class TestSamplerConfig:
    @pytest.mark.parametrize("batch", [2.5, True, math.nan, 0])
    def test_non_integral_batch_size_rejected(self, batch):
        with pytest.raises(ConfigurationError, match="batch size must be an integer >= 1"):
            _cfg(batch_size=batch)

    @pytest.mark.parametrize("batch", [2.0, np.float64(2.0), np.int64(2)])
    def test_integral_batch_size_converted(self, batch):
        cfg = _cfg(batch_size=batch)
        assert cfg.batch_size == 2 and type(cfg.batch_size) is int


class TestInitialLaw:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown initial law kind 'uniform'"):
            InitialLaw(kind="uniform")

    def test_non_finite_point_rejected(self):
        with pytest.raises(ConfigurationError, match="initial law has a non-finite x0 or v0"):
            point_init([math.nan, 0.0], [0.0, 0.0])

    def test_point_of_another_dimension_rejected(self, quad_theory):
        with pytest.raises(ConfigurationError, match="point initial law has wrong dimension"):
            theory.initial_lyapunov_integral(point_init([0, 0], [0, 0]), quad_theory["lyap"], 3)


class TestSteps:
    """The update equations, one step of ``run_chain``: a trajectory at
    ``steps=1, thin=1`` holds the initial state and the state after it."""

    @pytest.mark.parametrize("batch", [None, 8])
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_zero_step_size_fixes_state(self, data2, kind, batch):
        cfg = _cfg(lam=0.0, batch_size=batch, init=point_init([1.0, -1.0], [0.5, 0.5]))
        traj = run_chain(kind, cfg, quadratic(2, m0=1.0), data2, steps=1, thin=1)
        assert list(traj.steps) == [0, 1]
        assert np.array_equal(traj.xs[1], traj.xs[0])
        assert np.array_equal(traj.vs[1], traj.vs[0])

    @pytest.mark.parametrize("batch", [None, 8])
    def test_free_particle(self, data2, batch):
        # no friction, no force, no noise: straight-line motion
        cfg = _cfg(lam=0.5, gamma=0.0, beta=math.inf, batch_size=batch,
                   init=point_init([1.0, 0.0], [2.0, -1.0]))
        traj = run_chain("sghmc", cfg, zero_objective(2), data2, steps=1, thin=1)
        assert np.allclose(traj.vs[1], traj.vs[0])
        assert np.allclose(traj.xs[1], traj.xs[0] + 0.5 * traj.vs[0])

    @pytest.mark.parametrize("batch", [None, 8])
    def test_pinned_noise(self, data2, batch):
        # at rest at the minimum the first step is the noise alone, whatever the
        # gradient reads: v_1 = sqrt(2 gamma lam / beta) xi_1 with xi_1 the
        # first draw of the noise stream
        cfg = _cfg(lam=0.1, gamma=1.0, beta=1.0, batch_size=batch)
        traj = run_chain("sghmc", cfg, quadratic(2, m0=1.0), data2, steps=1, thin=1)
        xi = derive_stream(cfg.seed, "sghmc:noise").standard_normal(cfg.dim)
        assert np.array_equal(traj.vs[1], math.sqrt(0.2) * xi)
        assert np.array_equal(traj.xs[1], np.zeros(2))

    def test_sgld_pinned_arithmetic(self, data2):
        # beta = inf: no noise, x_1 = x_0 - lam grad F(x_0)
        cfg = _cfg(lam=0.1, beta=math.inf, init=point_init([1.0, 0.0], [0.0, 0.0]))
        traj = run_chain("sgld", cfg, quadratic(2, m0=1.0), data2, steps=1, thin=1)
        assert traj.xs[1] == pytest.approx([0.9, 0.0])

    def test_divergence_carries_step_index(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=5.0, batch_size=None, init=point_init([1.0, 0.0], [0.0, 0.0]))
        with pytest.raises(DivergenceError) as err:
            run_chain("sghmc", cfg, obj, data2, steps=10_000, thin=100)
        assert err.value.step >= 1


class TestSgldStationary:
    def test_quadratic_second_moment(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.01, seed=3)
        res = ensemble_run("sgld", cfg, obj, data2, steps=150_000, replicas=8,
                           record_every=10**9, burn_in=15_000)
        got = float(np.mean(res.tail_var_x))
        assert got == pytest.approx(1.0, rel=0.05)


class TestSingleChainIsEnsembleOfOne:
    """A single chain steps the (1, d) block of an ensemble of one: same
    streams, same gradient hooks, same bits."""

    @pytest.fixture(scope="class")
    def problems(self):
        data = make_dataset("gaussian", 200, 2, seed=7)
        return data, {
            "quadratic": quadratic(2, m0=1.0),
            "double_well": double_well(2, coupling=0.1, z_radius=data.max_norm()),
            "gaussian_mixture": gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm()),
        }

    @pytest.mark.parametrize("init", ["gaussian", "point"])
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    @pytest.mark.parametrize("batch", [None, 8])
    @pytest.mark.parametrize("name", ["quadratic", "double_well", "gaussian_mixture"])
    def test_run_chain_bit_equal_to_ensemble_of_one(self, problems, name, batch, kind, init):
        data, objs = problems
        law = (gaussian_init(0.0, 1.0) if init == "gaussian"
               else point_init([1.0, -1.0], [0.0, 0.5]))
        cfg = _cfg(lam=0.05, batch_size=batch, seed=11, init=law)
        traj = run_chain(kind, cfg, objs[name], data, steps=100, thin=50)
        ens = ensemble_run(kind, cfg, objs[name], data, steps=100, replicas=1,
                           record_every=50, purpose=kind)
        assert np.array_equal(traj.xs[-1], ens.X[0]) and np.array_equal(traj.vs[-1], ens.V[0])


class TestRunChain:
    def test_single_step_trajectory_length(self, data2):
        obj = quadratic(2, m0=1.0)
        traj = run_chain("sghmc", _cfg(), obj, data2, steps=1, thin=1)
        assert len(traj) == 2
        assert list(traj.steps) == [0, 1]

    def test_determinism(self, data2):
        obj = quadratic(2, m0=1.0)
        a = run_chain("sghmc", _cfg(seed=77), obj, data2, steps=500, thin=50)
        b = run_chain("sghmc", _cfg(seed=77), obj, data2, steps=500, thin=50)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.vs, b.vs)

    def test_thinning_stride(self, data2):
        obj = quadratic(2, m0=1.0)
        traj = run_chain("sghmc", _cfg(), obj, data2, steps=1000, thin=100)
        assert np.array_equal(np.diff(traj.steps), np.full(10, 100))

    def test_quadratic_tail_moment(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.01, seed=2024)
        traj = run_chain("sghmc", cfg, obj, data2, steps=200_000, thin=20)
        tail = traj.xs[len(traj) // 2 :]
        got = float(np.mean(tail**2))
        assert got == pytest.approx(1.0, rel=0.05)

    def test_csv_round_trip(self, tmp_path, data2):
        obj = quadratic(2, m0=1.0)
        traj = run_chain("sghmc", _cfg(), obj, data2, steps=100, thin=10)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        body = path.read_text().splitlines()
        assert body[0] == "step,x_0,x_1,v_0,v_1"
        assert len(body) == len(traj) + 1


class TestCoupledRuns:
    def test_identical_configs_zero_distance(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.005, seed=4, init=point_init([1.0, 1.0], [0.0, 0.0]))
        _, _, dist = coupled_run("sghmc", cfg, cfg, obj, data2, steps=200, thin=20)
        assert np.all(dist[:, 1] == 0.0)
        assert np.all(dist[:, 2] == 0.0)

    def test_quadratic_contraction_slope(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg_a = _cfg(lam=0.003, seed=4, init=point_init([2.0, 0.0], [0.0, 0.0]))
        cfg_b = _cfg(lam=0.003, seed=4, init=point_init([-2.0, 0.0], [0.0, 0.0]))
        res = coupled_ensemble_run("sghmc", cfg_a, cfg_b, obj, data2,
                                   steps=10_000, replicas=4, record_every=200)
        mask = res.mean_sep > 1e-12
        slope = np.polyfit(res.steps[mask], np.log(res.mean_sep[mask]), 1)[0]
        assert slope < 0.0

    def test_minibatch_noise_shrinks_with_batch_size(self, data2):
        # coupling a minibatch chain to a full-gradient one: the
        # gradient-noise gap shrinks as the batch grows
        obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data2.max_norm())
        terminal = {}
        for ell in (1, 4, 16):
            sq = 0.0
            for rep in range(16):
                cfg = _cfg(lam=0.01, seed=100 + rep, batch_size=ell,
                           init=point_init([0.5, 0.5], [0.0, 0.0]))
                _, _, dist = coupled_run("sghmc", cfg, dataclasses.replace(cfg, batch_size=None),
                                         obj, data2, steps=400, thin=400)
                sq += dist[-1, 1] ** 2 + dist[-1, 2] ** 2
            terminal[ell] = math.sqrt(sq / 16)
        assert terminal[1] > terminal[4] > terminal[16]

    @pytest.mark.parametrize("batches", [(None, 8), (8, None), (8, 900)])
    def test_coupled_ensemble_rejects_mismatched_batch_sizes(self, data2, batches):
        cfg_a, cfg_b = (_cfg(batch_size=b) for b in batches)
        with pytest.raises(ConfigurationError, match="batch size"):
            coupled_ensemble_run("sghmc", cfg_a, cfg_b, quadratic(2), data2, steps=5, replicas=2)

    @pytest.mark.parametrize("runner", [coupled_run, coupled_ensemble_run])
    def test_pair_of_two_dimensions_rejected(self, data2, runner):
        cfg_b = _cfg(dim=3, init=InitialLaw(kind="point"))
        sizes = {"replicas": 2} if runner is coupled_ensemble_run else {}
        with pytest.raises(ConfigurationError, match="coupled chains must share the dimension"):
            runner("sghmc", _cfg(), cfg_b, quadratic(2), data2, steps=5, **sizes)

    def test_shared_index_stream_same_batches(self, data2):
        obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data2.max_norm())
        cfg = _cfg(lam=0.005, seed=9, batch_size=3,
                   init=point_init([1.0, 0.0], [0.0, 0.0]))
        _, _, dist = coupled_run("sghmc", cfg, cfg, obj, data2, steps=100, thin=10)
        assert np.all(dist[:, 1] == 0.0)  # same init + same noise + same batches


class TestBrownianCoupling:
    def test_zero_at_equal_step_sizes(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.05, seed=6, init=gaussian_init(0.0, 1.0))
        d = brownian_coupled_distance(cfg, 0.05, obj, data2, t_end=2.0, replicas=8)
        assert d == 0.0

    def test_velocity_divergence_raises(self, data2):
        # the first step overflows only the momenta (lam * G = 2e308)
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=1e308, init=point_init([2.0, 0.0], [0.0, 0.0]))
        with pytest.raises(DivergenceError) as err:
            brownian_coupled_distance(cfg, 1e308, obj, data2, t_end=1e308, replicas=2)
        assert err.value.step == 1

    def test_distance_shrinks_with_step(self, data2):
        obj = quadratic(2, m0=1.0)
        dists = []
        for lam in (0.1, 0.025):
            cfg = _cfg(lam=lam, seed=6, init=gaussian_init(0.0, 1.0))
            dists.append(
                brownian_coupled_distance(cfg, lam / 16, obj, data2, t_end=5.0, replicas=32)
            )
        assert dists[1] < dists[0]

    def test_friction_only_distance_closed_form(self, data1):
        # beta = inf and no force: both chains damp v by (1 - gamma h) per step
        # of size h, so x_k = (1 - (1 - h)^k) / gamma and v_k = (1 - h)^k at
        # gamma = 1; the distance is that of the two terminal states
        def state(h, k):
            return 1.0 - (1.0 - h) ** k, (1.0 - h) ** k

        cfg = SamplerConfig(lam=0.1, gamma=1.0, beta=math.inf, batch_size=None,
                            dim=1, seed=1, init=point_init([0.0], [1.0]))
        for r in (2, 16):
            d = brownian_coupled_distance(cfg, 0.1 / r, zero_objective(1), data1,
                                          t_end=1.0, replicas=2)
            (xc, vc), (xr, vr) = state(0.1, 10), state(0.1 / r, 10 * r)
            assert d == pytest.approx(math.hypot(xc - xr, vc - vr), rel=1e-12)

    def test_drift_only_reference_follows_the_flow(self, data1):
        # noise off on the quadratic: the coarse chain is the linear recursion
        # (v, x) <- [[1 - gamma lam, -lam], [lam, 1]] (v, x), and the fine
        # reference is the Euler path of the damped oscillator, so the
        # distance is the coarse chain's distance from the flow exp(A t)
        from scipy.linalg import expm

        lam, t_end = 0.25, 4.0
        cfg = SamplerConfig(lam=lam, gamma=1.0, beta=math.inf, batch_size=None,
                            dim=1, seed=5, init=point_init([1.0], [0.0]))
        d = brownian_coupled_distance(cfg, lam / 2500, quadratic(1, m0=1.0), data1,
                                      t_end=t_end, replicas=1)
        coarse = np.linalg.matrix_power(np.array([[1.0 - lam, -lam], [lam, 1.0]]), 16)
        A = np.array([[-1.0, -1.0], [1.0, 0.0]])  # d/dt (v, x)
        want = np.linalg.norm((coarse - expm(A * t_end)) @ np.array([0.0, 1.0]))
        assert d == pytest.approx(want, abs=1e-4)

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_run_holds_its_buffers_at_a_time(self):
        """The peak of all allocations of a rate study on the default grid
        (r = 128 at lam = 0.1) is one run's block and ``_Sums``' chunk: each
        run's buffers are released before the next run's are made.
        ``TestNoiseBlocks`` measures only a chain's history ``H``."""
        data = make_dataset("gaussian", 200, 2, seed=7)
        cfg = _cfg(init=gaussian_init(0.0, 1.0))
        peak = self._peak(lambda: samplers._rate_coupling(
            cfg, [0.1, 0.05, 0.025, 0.0125], 0.0125 / 16, quadratic(2, m0=1.0), data,
            t_end=20.0, replicas=16))
        assert peak <= 2.25 * samplers._BLOCK_BYTES

    def test_sums_of_many_draws_held_in_chunks(self):
        # one coarse step of r = 2^16 draws, 1 MB: summed in chunks of draws
        cfg = _cfg(lam=1.0, init=gaussian_init(0.0, 1.0))
        peak = self._peak(lambda: brownian_coupled_distance(
            cfg, 2.0**-16, quadratic(2, m0=1.0), make_dataset("gaussian", 20, 2, seed=7),
            t_end=1.0, replicas=1))
        assert peak <= 2.25 * samplers._BLOCK_BYTES

    @pytest.mark.parametrize("r", [1, 3, 16])
    def test_sums_are_standard_normal(self, r):
        # N = 40000 draws: the mean's standard error is 1 / sqrt(N) = 0.005 and
        # the variance's sqrt(2 / N) = 0.0071; both within 4 of them
        xi = samplers._Sums(derive_stream(4, "sums", r), r).standard_normal((5000, 4, 2))
        n = xi.size
        assert abs(xi.mean()) < 4 / math.sqrt(n)
        assert abs(xi.var() - 1.0) < 4 * math.sqrt(2 / n)

    @pytest.mark.parametrize("r", [1, 3, 16])
    def test_sums_are_normalized_sums_of_consecutive_draws(self, r):
        # 50 steps of r (4, 2) draws fit in one chunk, so the sums are numpy's
        # over the draws' axis, divided by sqrt(r)
        shape = (50, 4, 2)
        assert 50 * r * 8 * 8 <= samplers._BLOCK_BYTES
        xi = samplers._Sums(derive_stream(4, "sums"), r).standard_normal(shape)
        draws = derive_stream(4, "sums").standard_normal((50, r, 4, 2))
        assert np.array_equal(xi, draws.sum(axis=1) / math.sqrt(r))

    def test_a_failed_coarse_chain_holds_no_buffer_during_the_reference(self, monkeypatch):
        # the chain at lam = 5 diverges at coarse step 506, the one at 1.25
        # completes; when the reference binds its evaluator, no array of a
        # coarse chain's history is left, not even in the frames of the
        # error that stopped it
        gradient, made = samplers._gradient, []

        def spy(ch, obj, data):
            assert all(history() is None for history in made)
            made.append(weakref.ref(ch.H))
            return gradient(ch, obj, data)

        monkeypatch.setattr(samplers, "_gradient", spy)
        data = make_dataset("gaussian", 200, 2, seed=7)
        cfg = _cfg(batch_size=8, seed=9, init=gaussian_init(0.0, 1.0))
        failed, dist = samplers._rate_coupling(cfg, [5.0, 1.25], 5.0 / 16, quadratic(2, m0=1.0),
                                               data, t_end=3000.0, replicas=4)
        assert (failed.step, len(made)) == (506, 3) and math.isfinite(dist)


# counts that are no integer >= 1, by id: the runners reject them, not truncate them
NOT_COUNTS = {"10.5": 10.5, "inf": math.inf, "nan": math.nan, "true": True}
# burn-in values that are not an integer >= 0
BAD_BURN_INS = {"2.5": 2.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "true": True,
                "false": False, "np-nan": np.float64(math.nan)}
# the runners that take replicas, each run with the given count
REPLICA_RUNNERS = {
    "ensemble_run": lambda obj, data, r: ensemble_run("sghmc", _cfg(), obj, data, steps=10,
                                                      replicas=r),
    "coupled_ensemble_run": lambda obj, data, r: coupled_ensemble_run(
        "sghmc", _cfg(), _cfg(), obj, data, steps=10, replicas=r),
    "brownian_coupled_distance": lambda obj, data, r: brownian_coupled_distance(
        _cfg(lam=0.1), 0.05, obj, data, 1.0, r),
}
# each runner with the sizes it takes besides replicas, whose defaults are valid
SIZED_RUNNERS = {
    "ensemble_run": (lambda obj, data, steps=10, record_every=100: ensemble_run(
        "sghmc", _cfg(), obj, data, steps=steps, replicas=2, record_every=record_every),
        ("steps", "record_every")),
    "coupled_ensemble_run": (lambda obj, data, steps=10, record_every=10: coupled_ensemble_run(
        "sghmc", _cfg(), _cfg(), obj, data, steps=steps, replicas=2, record_every=record_every),
        ("steps", "record_every")),
    "run_chain": (lambda obj, data, steps=10, thin=100: run_chain(
        "sghmc", _cfg(), obj, data, steps=steps, thin=thin), ("steps", "thin")),
    "coupled_run": (lambda obj, data, steps=10, thin=100: coupled_run(
        "sghmc", _cfg(), _cfg(), obj, data, steps=steps, thin=thin), ("steps", "thin")),
}


class TestEnsembles:
    def test_gibbs_variances(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.01, seed=42)
        res = ensemble_run("sghmc", cfg, obj, data2, steps=100_000, replicas=8,
                           record_every=10**9, burn_in=10_000)
        assert np.all(np.abs(res.tail_var_x - 1.0) <= 0.05)
        assert np.all(np.abs(res.tail_var_v - 1.0) <= 0.05)

    def test_running_max_tracks_functionals(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.01, seed=8, init=point_init([3.0, 0.0], [0.0, 0.0]))
        res = ensemble_run(
            "sghmc", cfg, obj, data2, steps=2000, replicas=4, record_every=100,
            functionals=lambda X, V: {"x2": np.sum(X * X, axis=1)},
        )
        # started far out: the sup is attained near the start, above the tail
        assert res.running_max["x2"] >= res.series["x2"][-1]
        assert res.running_max["x2"] == pytest.approx(9.0, rel=0.2)

    @staticmethod
    def block_rows(data, batch_size):
        rows = []

        def x2(X, V):
            rows.append(len(X))
            return {"x2": np.sum(X * X, axis=1)}

        ensemble_run("sghmc", _cfg(seed=8, batch_size=batch_size), quadratic(2, m0=1.0),
                     data, steps=1000, replicas=8, functionals=x2)
        return rows

    def test_functionals_called_once_per_block(self, data2):
        rows = self.block_rows(data2, None)
        # step 0, then blocks of the cap over 512 B of buffers per step at
        # R = 8, d = 2, plus the bound views of the step's history row
        block = min(1000, samplers._BLOCK_BYTES // (512 + samplers._ROW_VIEW_BYTES))
        full, last = divmod(1000, block)
        assert rows == [8] + [block * 8] * full + [last * 8] * (last > 0)

    def test_blocks_hold_the_index_draws(self, data2):
        rows = self.block_rows(data2, 32)
        # a minibatch step adds its (8, 32) index draw to the 512 B
        block = min(1000, samplers._BLOCK_BYTES // (512 + samplers._ROW_VIEW_BYTES + 8 * 8 * 32))
        full, last = divmod(1000, block)
        assert rows == [8] + [block * 8] * full + [last * 8] * (last > 0)

    @pytest.mark.parametrize("replicas", [2, 8])
    def test_functionals_match_step_by_step_evaluation(self, replicas):
        data = make_dataset("gaussian", 100, 2, seed=13)
        obj = gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm())
        lyap = theory.LyapunovParams(1.0, 2.0, 0.25, obj, data)
        fns = {"v2": lambda X, V: lyap.value_rows(X, V) ** 2,
               "x2": lambda X, V: np.sum(X * X, axis=1)}
        cfg = _cfg(lam=0.02, batch_size=10, seed=5, init=gaussian_init(0.0, 1.0))
        steps = 160  # more than one block at R = 8
        res = ensemble_run("sghmc", cfg, obj, data, steps, replicas, record_every=1,
                           functionals=lambda X, V: {name: fn(X, V) for name, fn in fns.items()})
        # the state after k steps is the final state of a k-step run
        states = [cfg.init.sample(2, derive_stream(cfg.seed, "ensemble:init"), size=replicas)]
        for k in range(1, steps + 1):
            r = ensemble_run("sghmc", cfg, obj, data, k, replicas)
            states.append((r.X, r.V))
        for name, fn in fns.items():
            ref = [float(np.mean(fn(X, V))) for X, V in states]
            assert res.series[name].tolist() == ref
            assert res.running_max[name] == max(ref)

    def test_coupled_velocity_divergence_raises(self, data2):
        # the noise scale sqrt(2 gamma lam / beta) overflows: after one step
        # the positions are still finite, the momenta are not
        obj = quadratic(2, m0=1.0)
        cfg_a = _cfg(lam=1e308, init=point_init([1.0, 0.0], [0.0, 0.0]))
        cfg_b = _cfg(lam=1e308, init=point_init([-1.0, 0.0], [0.0, 0.0]))
        with pytest.raises(DivergenceError) as err:
            ensemble_run("sghmc", cfg_a, obj, data2, steps=1, replicas=2)
        assert err.value.step == 1
        with pytest.raises(DivergenceError) as err:
            coupled_ensemble_run("sghmc", cfg_a, cfg_b, obj, data2, steps=1,
                                 replicas=2, record_every=1)
        assert err.value.step == 1

    # 0 (the id is the runner's name alone), then each of NOT_COUNTS
    @pytest.mark.parametrize("name, replicas", [(n, r) for r in (0, *NOT_COUNTS.values())
                                                for n in REPLICA_RUNNERS],
                             ids=[n + s for s in ("", *("-" + k for k in NOT_COUNTS))
                                  for n in REPLICA_RUNNERS])
    def test_zero_replicas_rejected(self, data2, name, replicas):
        with pytest.raises(ConfigurationError, match="replicas must be an integer >= 1"):
            REPLICA_RUNNERS[name](quadratic(2, m0=1.0), data2, replicas)

    @pytest.mark.parametrize("runner, message", [
        (lambda obj, data: ensemble_run("sghmc", _cfg(), obj, data, steps=0, replicas=2),
         "steps must be an integer >= 1"),
        (lambda obj, data: ensemble_run("sghmc", _cfg(), obj, data, steps=10, replicas=2,
                                        record_every=0), "record_every must be an integer >= 1"),
        (lambda obj, data: coupled_ensemble_run("sghmc", _cfg(), _cfg(), obj, data, steps=0,
                                                replicas=2), "steps must be an integer >= 1"),
        (lambda obj, data: coupled_ensemble_run("sghmc", _cfg(), _cfg(), obj, data, steps=10,
                                                replicas=2, record_every=0),
         "record_every must be an integer >= 1"),
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), 0.0, obj, data, 1.0, 2),
         re.escape("lambda_ref must be positive and finite, got 0.0")),
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), -0.05, obj, data, 1.0, 2),
         re.escape("lambda_ref must be positive and finite, got -0.05")),
        (lambda obj, data: ensemble_run("sghmc", _cfg(), obj, data, steps=10, replicas=2,
                                        burn_in=-5), "burn_in must be >= 0"),
        *[(lambda obj, data, b=b: ensemble_run("sghmc", _cfg(), obj, data, steps=20, replicas=2,
                                               burn_in=b), "burn_in must be >= 0")
          for b in BAD_BURN_INS.values()],
        *[(lambda obj, data, t=t: brownian_coupled_distance(_cfg(lam=0.1), 0.05, obj, data, t, 2),
           "t_end must be finite") for t in (math.nan, math.inf)],
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), math.nan, obj, data, 1.0, 2),
         re.escape("lambda_ref must be positive and finite, got nan")),
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), math.inf, obj, data, 1.0, 2),
         re.escape("lambda_ref must be positive and finite, got inf")),
        *[(lambda obj, data, h=h: brownian_coupled_distance(_cfg(lam=0.1), h, obj, data, 1.0, 2),
           "integer multiple of lambda_ref") for h in (0.03, 0.3)],
        *[(lambda obj, data, t=t: brownian_coupled_distance(_cfg(lam=0.1), 0.05, obj, data, t, 2),
           "t_end too short") for t in (0.0, -1.0)],
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), 0.05, obj, data, 1e308, 2),
         "t_end / lam overflows"),
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=1.0), 1e-310, obj, data, 1.0, 2),
         re.escape("lam / lambda_ref overflows the step ratio at lam = 1.0, lambda_ref = 1e-310")),
        (lambda obj, data: run_chain("sghmc", _cfg(), obj, data, steps=10, thin=0),
         "thin must be an integer >= 1"),
        (lambda obj, data: coupled_run("sghmc", _cfg(), _cfg(), obj, data, steps=10, thin=0),
         "thin must be an integer >= 1"),
        *[(lambda obj, data, run=run, size={key: n}: run(obj, data, **size),
           f"{key} must be an integer >= 1")
          for run, keys in SIZED_RUNNERS.values() for key in keys for n in NOT_COUNTS.values()],
    ], ids=["ensemble_run-steps-0", "ensemble_run-record-every-0",
            "coupled_ensemble_run-steps-0", "coupled_ensemble_run-record-every-0",
            "brownian_coupled_distance-lambda-ref-0", "brownian_coupled_distance-lambda-ref-neg",
            "ensemble_run-burn-in-neg", *[f"ensemble_run-burn-in-{v}" for v in BAD_BURN_INS],
            "brownian_coupled_distance-t-end-nan",
            "brownian_coupled_distance-t-end-inf", "brownian_coupled_distance-lambda-ref-nan",
            "brownian_coupled_distance-lambda-ref-inf",
            "brownian_coupled_distance-lambda-ref-not-a-divisor",
            "brownian_coupled_distance-lambda-ref-above-lam", "brownian_coupled_distance-t-end-0",
            "brownian_coupled_distance-t-end-neg", "brownian_coupled_distance-t-end-overflow",
            "brownian_coupled_distance-lambda-ref-overflow",
            "run_chain-thin-0", "coupled_run-thin-0",
            *[f"{name}-{key.replace('_', '-')}-{v}" for name, (_, keys) in SIZED_RUNNERS.items()
              for key in keys for v in NOT_COUNTS]])
    def test_out_of_range_run_sizes_rejected(self, data2, runner, message):
        with pytest.raises(ConfigurationError, match=message):
            runner(quadratic(2, m0=1.0), data2)

    # a coupled kind is one chain kind or a pair of them; every other runner
    # takes one kind
    @pytest.mark.parametrize("runner, kind, message", [
        *[(coupled_run, kind, "kind must be a chain kind or a pair of them")
          for kind in (None, ("sghmc",), ("sghmc", "sghmc", "sghmc"))],
        (coupled_run, ("sghmc", "hmc"), "unknown chain kind 'hmc'"),
        (coupled_run, ("sghmc", "exact_sghmc"), "unknown chain kind 'exact_sghmc'"),
        *[(run, kind, "unknown chain kind")
          for run in (run_chain, ensemble_run, coupled_ensemble_run)
          for kind in ("hmc", None, ("sghmc", "sgld"))],
    ], ids=["coupled_run-none", "coupled_run-one-tuple", "coupled_run-3-tuple",
            "coupled_run-unknown", "coupled_run-exact-sghmc"] + [f"{name}-{kind}" for name in
                                      ("run_chain", "ensemble_run", "coupled_ensemble_run")
                                      for kind in ("unknown", "none", "pair")])
    def test_malformed_kind_rejected(self, data2, runner, kind, message):
        cfgs = (_cfg(),) if runner in (run_chain, ensemble_run) else (_cfg(), _cfg())
        sizes = {"replicas": 2} if runner in (ensemble_run, coupled_ensemble_run) else {}
        with pytest.raises(ConfigurationError, match=message):
            runner(kind, *cfgs, quadratic(2, m0=1.0), data2, steps=10, **sizes)

    # one runner per recorder: a chain run on an objective of another
    # dimension is rejected before its first step
    @pytest.mark.parametrize("objective", [
        lambda data: quadratic(3, m0=1.0),
        lambda data: double_well(3, coupling=0.1, z_radius=data.max_norm()),
        lambda data: gaussian_mixture(3, ridge=0.05, z_radius=data.max_norm()),
    ], ids=["quadratic", "double_well", "gaussian_mixture"])
    @pytest.mark.parametrize("runner", [
        lambda obj, data: run_chain("sghmc", _cfg(), obj, data, steps=10),
        lambda obj, data: ensemble_run("sghmc", _cfg(batch_size=8), obj, data, steps=10,
                                       replicas=2),
        lambda obj, data: coupled_ensemble_run("sgld", _cfg(), _cfg(), obj, data, steps=10,
                                               replicas=2),
        lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), 0.05, obj, data, 1.0, 2),
    ], ids=["run_chain", "ensemble_run", "coupled_ensemble_run", "brownian_coupled_distance"])
    def test_objective_of_another_dimension_rejected(self, data2, runner, objective):
        with pytest.raises(ConfigurationError, match="has dimension 3, the chains 2"):
            runner(objective(data2), data2)

    @pytest.mark.parametrize("burn_in", [2.0, np.float64(2.0), np.int64(2)],
                             ids=["float", "np-float64", "np-int64"])
    def test_integral_burn_in_converted(self, data2, burn_in):
        def run(b):
            return ensemble_run("sghmc", _cfg(), quadratic(2, m0=1.0), data2, steps=20,
                                replicas=2, burn_in=b)
        got, want = run(burn_in), run(2)
        assert got.tail_samples == want.tail_samples == 36
        for name in ("tail_mean_x", "tail_var_x", "tail_mean_v", "tail_var_v"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestMinibatchEnsembles:
    """Stacked minibatch gradients against the per-replica grad_f loop."""

    @pytest.fixture(scope="class")
    def mixture(self):
        data = make_dataset("gaussian", 1000, 2, seed=5)
        return gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm()), data

    @staticmethod
    def _mb_cfg(**kw):
        return _cfg(lam=0.05, batch_size=32, seed=2024, init=gaussian_init(0.0, 1.0), **kw)

    def test_golden_mixture_ensemble(self, mixture):
        obj, data = mixture
        res = ensemble_run("sghmc", self._mb_cfg(), obj, data, steps=200, replicas=64,
                           record_every=50)
        digest = hashlib.sha256()
        for a in (res.X, res.V):
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        assert digest.hexdigest() == (
            "c5ddd64382e14da0e8a51e57e3e4bb72ad8a3e7b94d7b7ef6f4213b0be1e2e5c"
        )

    @pytest.mark.parametrize("kind", ["sghmc", "sgld"])
    def test_fallback_bit_identical(self, mixture, kind):
        obj, data = mixture
        loop = dataclasses.replace(obj, grad_batches=None)
        cfg = self._mb_cfg()
        a = ensemble_run(kind, cfg, obj, data, steps=50, replicas=8, record_every=10)
        b = ensemble_run(kind, cfg, loop, data, steps=50, replicas=8, record_every=10)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.V, b.V)
        cfg_b = dataclasses.replace(cfg, init=point_init([1.0, 0.0], [0.0, 0.0]))
        a = coupled_ensemble_run(kind, cfg, cfg_b, obj, data, steps=50, replicas=8)
        b = coupled_ensemble_run(kind, cfg, cfg_b, loop, data, steps=50, replicas=8)
        for name in ("mean_sep", "rms_sep", "rms_dx", "rms_dv"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        full_b = dataclasses.replace(cfg_b, batch_size=None)
        for pair, b_cfg in ((kind, cfg_b), ((kind, "sghmc"), full_b)):  # shared, then own indices
            a = coupled_run(pair, cfg, b_cfg, obj, data, steps=50, thin=10)
            b = coupled_run(pair, cfg, b_cfg, loop, data, steps=50, thin=10)
            assert all(np.array_equal(u.xs, w.xs) and np.array_equal(u.vs, w.vs)
                       for u, w in zip(a[:2], b[:2]))

    def test_rate_coupling_fallback_bit_identical(self, mixture):
        obj, data = mixture
        loop = dataclasses.replace(obj, grad_batches=None)
        cfg = self._mb_cfg()
        a = brownian_coupled_distance(cfg, 0.0125, obj, data, t_end=1.0, replicas=8)
        b = brownian_coupled_distance(cfg, 0.0125, loop, data, t_end=1.0, replicas=8)
        assert a == b


class TestGoldenOutputs:
    """Pins of every runner's outputs (first 16 hex digits of their SHA-256)
    and of its step of divergence at lam = 5: a change to an update, a
    stream, a draw order or a recorder shows up here."""

    STEPS = 60
    CASES = [(name, batch) for name in ("double_well", "gaussian_mixture") for batch in (None, 8)]

    @staticmethod
    def _pair(batch, lam=0.05):
        cfg = _cfg(lam=lam, batch_size=batch, seed=11, init=gaussian_init(0.0, 1.0))
        return cfg, dataclasses.replace(cfg, init=point_init([1.0, -1.0], [0.0, 0.5]))

    RUNNERS = [f"{r}:{k}" for r in ("run_chain", "ensemble_run", "coupled_ensemble_run")
               for k in CHAIN_KINDS] + [
        "coupled_run:shared", "coupled_run:separate", "coupled_run:sgld", "coupled_run:sghmc",
        "brownian_coupled_distance",
    ]

    @staticmethod
    def outputs(runner, cfg, cfg_b, obj, data, n):
        """The arrays ``runner`` returns after ``n`` steps."""
        name, _, kind = runner.partition(":")
        if name == "run_chain":
            t = run_chain(kind, cfg, obj, data, steps=n, thin=7)
            return [t.steps, t.xs, t.vs]
        if name == "ensemble_run":
            r = ensemble_run(kind, cfg, obj, data, steps=n, replicas=4, record_every=7,
                             burn_in=20, functionals=lambda X, V: {"x2": np.sum(X * X, axis=1)})
            return [r.steps, r.series["x2"], [r.running_max["x2"], r.tail_samples],
                    r.tail_mean_x, r.tail_var_x, r.tail_mean_v, r.tail_var_v, r.X, r.V]
        if name == "coupled_ensemble_run":
            r = coupled_ensemble_run(kind, cfg, cfg_b, obj, data, steps=n, replicas=4,
                                     record_every=7)
            return [r.steps, r.mean_sep, r.rms_sep, r.rms_dx, r.rms_dv]
        if name == "coupled_run":
            # mixed kinds step as two chains, one kind as one paired block;
            # "separate" gives chain b full gradients, so a minibatch pair
            # steps as two chains
            if kind == "separate":
                kind, cfg_b = "sghmc", dataclasses.replace(cfg_b, batch_size=None)
            pair = ("sgld", "sghmc") if kind == "shared" else kind
            ta, tb, dist = coupled_run(pair, cfg, cfg_b, obj, data, steps=n, thin=7)
            return [ta.steps, ta.xs, ta.vs, tb.xs, tb.vs, dist]
        return [brownian_coupled_distance(cfg, cfg.lam / 4, obj, data, t_end=n * cfg.lam,
                                          replicas=4)]

    # digests in CASES order: double_well/None, double_well/8, gaussian_mixture/None, .../8
    GOLDEN = {
        "brownian_coupled_distance":
            "11aa703daf0a1bf2 2ceff951597961f1 27778a90ddf68114 083863b842625973",
        "coupled_ensemble_run:sghmc":
            "b4e6579052ddc2ae 126997441a91cff2 ca29d532fd000800 b9a973736702d237",
        "coupled_ensemble_run:sgld":
            "09002111519cbcec 8777b247aa1a6e10 79c043d74e168aa1 3c608a74e8218bb8",
        "coupled_run:separate":
            "63ee2100b63a7c59 e9e21c606198c2dc adfc1152e82a70d7 9215072c0dd1c8e8",
        "coupled_run:shared":
            "553ce09874c8fcee 0c961b0903e5050d 2b5953d55af24398 fb58e1bcac2d6ed9",
        "coupled_run:sgld":
            "c59447286c44d77b 249d914931a7671f f4c9327c61447694 0d486575ab32b8dc",
        "coupled_run:sghmc":
            "63ee2100b63a7c59 28ea60d177db606d adfc1152e82a70d7 fc661c187664837b",
        "ensemble_run:sghmc":
            "8461636d97bba483 90a8b386d9d92bb5 38e583af2cbfc641 0cbd4080822ef379",
        "ensemble_run:sgld":
            "d87755840a6ff55e a811e6a73e638573 a11a425f936a76a7 cff660b688f0af9c",
        "run_chain:sghmc":
            "ae7eeb30515195d4 973feb9c01298758 38c0919eee6d77e4 ec03291cfb47973b",
        "run_chain:sgld":
            "dbc98f990bf01477 59d5eaa3a6dd9208 2a1c814258a135ed 56bd1be54a5d3e2c",
    }
    # DivergenceError.step at lam = 5 on the quadratic, batch_size None and 8
    DIVERGENCE_STEP = {
        "brownian_coupled_distance": (507, 506),
        "coupled_ensemble_run:sghmc": (507, 507),
        "coupled_ensemble_run:sgld": (512, 512),
        "coupled_run:separate": (507, 507),
        "coupled_run:shared": (507, 507),
        "coupled_run:sgld": (512, 512),
        "coupled_run:sghmc": (507, 507),
        "ensemble_run:sghmc": (507, 507),
        "ensemble_run:sgld": (512, 512),
        "run_chain:sghmc": (508, 508),
        "run_chain:sgld": (513, 513),
    }

    @classmethod
    def digests(cls, runner, pair=None):
        data = make_dataset("gaussian", 200, 2, seed=7)
        objs = {"double_well": double_well(2, coupling=0.1, z_radius=data.max_norm()),
                "gaussian_mixture": gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm())}
        out = []
        for name, batch in cls.CASES:
            cfg, cfg_b = (pair or cls._pair)(batch)
            h = hashlib.sha256()
            for a in cls.outputs(runner, cfg, cfg_b, objs[name], data, cls.STEPS):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            out.append(h.hexdigest()[:16])
        return tuple(out)

    # The same on the double well, whose gradient grows 11 times as fast as
    # x beyond the wells.
    DOUBLE_WELL_DIVERGENCE_STEP = {
        "brownian_coupled_distance": (255, 255),
        "coupled_ensemble_run:sghmc": (255, 255),
        "coupled_ensemble_run:sgld": (179, 179),
        "coupled_run:separate": (255, 255),
        "coupled_run:shared": (179, 179),
        "coupled_run:sgld": (179, 179),
        "coupled_run:sghmc": (255, 255),
        "ensemble_run:sghmc": (255, 255),
        "ensemble_run:sgld": (179, 179),
        "run_chain:sghmc": (255, 255),
        "run_chain:sgld": (179, 179),
    }

    @classmethod
    def divergence_steps(cls, runner, objective="quadratic"):
        # lam = 5 on the quadratic: the momentum recursion grows like k 4^k
        data = make_dataset("gaussian", 200, 2, seed=7)
        obj = quadratic(2, m0=1.0) if objective == "quadratic" else double_well(
            2, coupling=0.1, z_radius=data.max_norm())
        out = []
        for batch in (None, 8):
            cfg, cfg_b = cls._pair(batch, lam=5.0)
            cfg = dataclasses.replace(cfg, init=point_init([1.0, 0.0], [0.0, 0.0]))
            with pytest.raises(DivergenceError) as err:
                cls.outputs(runner, cfg, cfg_b, obj, data, 2000)
            out.append(err.value.step)
        return tuple(out)

    # brownian_coupled_distance at lam = 5 and gamma = 0.5, where both chains
    # diverge: DivergenceError.step, batch None and 8. The coarse chain runs
    # first and fails, so the reference (which would fail at coarse steps
    # 536, 480 and 124) never runs: the step is the coarse chain's own.
    BOTH_DIVERGE_STEP = {"quadratic": (450, 450), "gaussian_mixture": (436, 436),
                         "double_well": (254, 253)}

    @pytest.mark.parametrize("objective", BOTH_DIVERGE_STEP)
    def test_coarse_divergence_before_the_reference_pinned(self, objective):
        data = make_dataset("gaussian", 200, 2, seed=7)
        obj = {"quadratic": quadratic(2, m0=1.0),
               "gaussian_mixture": gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm()),
               "double_well": double_well(2, coupling=0.1, z_radius=data.max_norm())}[objective]
        steps = []
        for batch in (None, 8):
            cfg = dataclasses.replace(self._pair(batch, lam=5.0)[0], gamma=0.5,
                                      init=point_init([1.0, 0.0], [0.0, 0.0]))
            with pytest.raises(DivergenceError) as err:
                brownian_coupled_distance(cfg, cfg.lam / 4, obj, data, t_end=2000 * cfg.lam,
                                          replicas=4)
            steps.append(err.value.step)
        assert tuple(steps) == self.BOTH_DIVERGE_STEP[objective]

    def test_reference_failure_at_its_coarse_step(self):
        # the double well case above, at t_end 1000: the chain at lam 5
        # completes its 200 steps and the reference at lam / 4 fails at fine
        # step 496, so the point fails at coarse step 124; the chain at 2.5
        # fails itself, at its step 336, and keeps its own error
        data = make_dataset("gaussian", 200, 2, seed=7)
        obj = double_well(2, coupling=0.1, z_radius=data.max_norm())
        for batch in (None, 8):
            cfg = dataclasses.replace(self._pair(batch, lam=5.0)[0], gamma=0.5,
                                      init=point_init([1.0, 0.0], [0.0, 0.0]))
            errs = samplers._rate_coupling(cfg, [5.0, 2.5], 1.25, obj, data, 1000.0, 4)
            assert [err.step for err in errs] == [124, 336]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_outputs_and_divergence_step_pinned(self, runner):
        assert self.digests(runner) == tuple(self.GOLDEN[runner].split())
        assert self.divergence_steps(runner) == self.DIVERGENCE_STEP[runner]
        assert self.divergence_steps(runner, "double_well") == \
            self.DOUBLE_WELL_DIVERGENCE_STEP[runner]

    # Coupled pairs whose chain b has its own seed, 12, and a Gaussian init,
    # so that each chain's init stream and index stream shows: case ->
    # (runner, cfg_b's other changes, digests in CASES order). "own-batches"
    # gives chain b a batch of 4, so it draws its own indices; "two-chains"
    # gives it another step size, so the pair steps as two chains.
    SEEDED = {
        "coupled_run:shared": ("coupled_run:shared", {},
            "bc04b8842ee13d17 9314b665b772969d bd177f66b2cea456 8fdb067d10bd57ce"),
        "coupled_run:separate": ("coupled_run:separate", {},
            "10b3f3bf30243750 9dc4c1f075473fae dd513948520ad464 eb8d26cf90cb3c93"),
        "coupled_run:sghmc": ("coupled_run:sghmc", {},
            "10b3f3bf30243750 0e2afaec764f6f45 dd513948520ad464 d457018fc9afb2b7"),
        "coupled_run:own-batches": ("coupled_run:sghmc", {"batch_size": 4},
            "8098cda650103689 cbb9fe59587c256d 2ec9441f05377bd3 eb18113b7a524e66"),
        "coupled_ensemble_run:sghmc": ("coupled_ensemble_run:sghmc", {},
            "58d112d70159b6f1 11ae7b391ca42dce 26a2830bc59d48b7 fd72d55c6730f8a5"),
        "coupled_ensemble_run:two-chains": ("coupled_ensemble_run:sghmc", {"lam": 0.04},
            "ed74e45b253f504c d878d9b2e6793dc7 42226ff122622697 e05397a4675976ee"),
    }

    @classmethod
    def _seeded(cls, batch, **changes):
        cfg = cls._pair(batch)[0]
        return cfg, dataclasses.replace(cfg, seed=12, **changes)

    @pytest.mark.parametrize("case", SEEDED)
    def test_pairs_of_own_seeds_pinned(self, case):
        runner, changes, golden = self.SEEDED[case]
        assert self.digests(runner, lambda batch: self._seeded(batch, **changes)) == \
            tuple(golden.split())


class TestStrictHooks:
    """Gradient hooks that raise on a non-finite position: the loop steps a
    block on past a divergence and checks it once, so it must replay the
    block to stop where a check per step stops, with the same class and
    step, before a hook sees the non-finite state."""

    @staticmethod
    def _strict(obj):
        def strict(hook):
            def call(X, Z):
                if not np.isfinite(X).all():
                    raise ValueError("non-finite position")
                return hook(X, Z)
            return call

        return dataclasses.replace(obj, grad_rows=strict(obj.grad_rows),
                                   grad_batches=strict(obj.grad_batches))

    @pytest.mark.parametrize("runner", TestGoldenOutputs.RUNNERS)
    def test_divergence_step_of_the_built_in(self, runner):
        data = make_dataset("gaussian", 200, 2, seed=7)
        obj = self._strict(quadratic(2, m0=1.0))
        steps = []
        for batch in (None, 8):  # full-gradient and minibatch chains
            cfg, cfg_b = TestGoldenOutputs._pair(batch, lam=5.0)
            cfg = dataclasses.replace(cfg, init=point_init([1.0, 0.0], [0.0, 0.0]))
            with pytest.raises(DivergenceError) as err:
                TestGoldenOutputs.outputs(runner, cfg, cfg_b, obj, data, 2000)
            steps.append(err.value.step)
        assert tuple(steps) == TestGoldenOutputs.DIVERGENCE_STEP[runner]


class TestTailMoments:
    """Pins of ``ensemble_run``'s pooled tail moments, where the order of the
    sums shows: at every dimension, over replicas one after another, then
    over steps in step order (numpy would sum a contiguous replica axis
    pairwise from 8 replicas on). The burn-in of 21 steps ends inside a block
    (blocks of 200, 128, 200 and 64 steps in CASES order)."""

    CASES = [(d, R) for d in (1, 2) for R in (7, 64)]
    GOLDEN = {(1, 7): "46674f95ff9da360", (1, 64): "2b819ff12579b272",
              (2, 7): "301ff6168efe1d71", (2, 64): "1a1aabc1acadf2e8"}

    @staticmethod
    def digest(d, R):
        data = make_dataset("gaussian", 200, d, seed=7)
        obj = double_well(d, coupling=0.1, z_radius=data.max_norm())
        cfg = _cfg(lam=0.05, batch_size=None, dim=d, seed=11, init=gaussian_init(0.0, 1.0))
        r = ensemble_run("sghmc", cfg, obj, data, steps=200, replicas=R, burn_in=21)
        h = hashlib.sha256()
        for a in (r.tail_mean_x, r.tail_var_x, r.tail_mean_v, r.tail_var_v):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("d, R", CASES)
    def test_tail_moments_pinned(self, d, R):
        assert self.digest(d, R) == self.GOLDEN[(d, R)]

    @pytest.mark.parametrize("d", [1, 2])
    def test_sums_replicas_in_turn_then_steps_in_order(self, d):
        # a functional keeps every stepped row; the hand-written sums of the
        # rows past burn-in match ensemble_run's moments bit for bit
        R, burn_in, rows = 64, 21, []

        def keep(X, V):
            rows.append(np.stack([X, V], axis=1).reshape(-1, R, 2, d))
            return {"keep": np.zeros(len(X))}

        data = make_dataset("gaussian", 200, d, seed=7)
        obj = double_well(d, coupling=0.1, z_radius=data.max_norm())
        cfg = _cfg(lam=0.05, batch_size=None, dim=d, seed=11, init=gaussian_init(0.0, 1.0))
        r = ensemble_run("sghmc", cfg, obj, data, steps=200, replicas=R, burn_in=burn_in,
                         functionals=keep)
        tail = np.concatenate(rows[1:])[burn_in:]  # rows[0] is the initial state
        assert len(tail) == 200 - burn_in
        total = np.zeros((2, 2, d))  # [sum, sum of squares] x [x, v]
        for step in tail:
            per_step = np.zeros((2, 2, d))
            for state in step:
                per_step = per_step + np.stack([state, state * state])
            total = total + per_step
        n = len(tail) * R
        (sx, sv), (sx2, sv2) = total
        mean_x, mean_v = sx / n, sv / n
        want = (mean_x, sx2 / n - mean_x**2, mean_v, sv2 / n - mean_v**2)
        got = (r.tail_mean_x, r.tail_var_x, r.tail_mean_v, r.tail_var_v)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestNonFiniteGradients:
    """A NaN component gradient is an EvaluationError naming a dataset sample
    on every path, whichever hook computes the dataset or minibatch mean."""

    @staticmethod
    def _objective(hook, cut=2.0):
        def grad_f(x, Z):
            return np.where(Z[:, :1] > cut, np.nan, x[None, :] - 0.5 * Z)

        hooks = {
            "grad_rows": lambda X, Z: np.stack([grad_f(x, Z).mean(axis=0) for x in X]),
            "grad_batches": lambda X, Zs: np.stack([grad_f(x, Z) for x, Z in zip(X, Zs)]),
        }
        return ObjectiveSpec(
            "nan-tail", 2, lambda x, Z: 0.5 * np.sum((x[None, :] - 0.5 * Z) ** 2, axis=1),
            grad_f, SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0),
            **({hook: hooks[hook]} if hook else {}),
        )

    RUNNERS = {
        "run_chain": lambda c, o, d: run_chain("sghmc", c, o, d, steps=200, thin=10),
        "run_chain:sgld": lambda c, o, d: run_chain("sgld", c, o, d, steps=200, thin=10),
        "coupled_run": lambda c, o, d: coupled_run("sghmc", c, c, o, d, steps=200, thin=10),
        "ensemble_run": lambda c, o, d: ensemble_run("sghmc", c, o, d, steps=200, replicas=4),
        "coupled_ensemble_run": lambda c, o, d: coupled_ensemble_run(
            "sghmc", c, dataclasses.replace(c, init=point_init([1.0, 0.0], [0.0, 0.0])), o, d,
            steps=200, replicas=4),
        # two chains apart on one index stream
        "coupled_ensemble_run:two-lambda": lambda c, o, d: coupled_ensemble_run(
            "sghmc", c, dataclasses.replace(c, lam=c.lam / 2), o, d, steps=200, replicas=4),
        "brownian_coupled_distance": lambda c, o, d: brownian_coupled_distance(
            c, c.lam / 2, o, d, t_end=200 * c.lam, replicas=4),
    }

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("batch", [None, 32])
    @pytest.mark.parametrize("hook", [None, "grad_rows", "grad_batches"])
    def test_evaluation_error_names_a_bad_sample(self, data2, hook, batch, runner):
        bad = data2.samples[:, 0] > 2.0
        assert 0 < bad.sum() < 10
        cfg = _cfg(lam=0.05, batch_size=batch, seed=5, init=gaussian_init(0.0, 1.0))
        with pytest.raises(EvaluationError) as err:
            self.RUNNERS[runner](cfg, self._objective(hook), data2)
        assert bad[err.value.sample_index]
        assert f"sample index {err.value.sample_index}" in str(err.value)
        if batch is None or runner == "brownian_coupled_distance":
            # full-dataset gradients name the first bad sample
            assert err.value.sample_index == int(np.argmax(bad))

    # With 14 bad samples, a batch of 2 draws one within a few steps; these
    # are the samples a check per step names. A block that fails is replayed
    # on the index draws of its first pass, so it names them too.
    FIRST_DRAWN_BAD = {"coupled_ensemble_run": 90, "coupled_ensemble_run:two-lambda": 90,
                       "coupled_run": 27, "ensemble_run": 2, "run_chain": 10}

    @pytest.mark.parametrize("runner", sorted(FIRST_DRAWN_BAD))
    def test_replay_draws_the_same_indices(self, data2, runner):
        assert (data2.samples[:, 0] > 1.0).sum() == 14
        cfg = _cfg(lam=0.05, batch_size=2, seed=5, init=gaussian_init(0.0, 1.0))
        with pytest.raises(EvaluationError) as err:
            self.RUNNERS[runner](cfg, self._objective("grad_batches", cut=1.0), data2)
        assert err.value.sample_index == self.FIRST_DRAWN_BAD[runner]

    @staticmethod
    def _reference_fails(data, radius, hook, minibatch_radius=math.inf):
        """The quadratic, whose gradient is NaN on full-dataset evaluations
        beyond |x| = radius: of a rate coupling at batch size 8, only the
        reference reads it. The coarse chain's minibatch gradients are NaN
        beyond ``minibatch_radius``."""
        q = quadratic(2, m0=1.0)

        def grad_f(x, Z):
            g = q.grad_f(x, Z)
            bad = np.hypot.reduce(x) > (radius if len(Z) == data.n else minibatch_radius)
            return np.full_like(g, np.nan) if bad else g

        hooks = {"grad_rows": lambda X, Z: np.stack([grad_f(x, Z).mean(axis=0) for x in X])}
        return ObjectiveSpec("far-reference", 2, q.f, grad_f, q.cert,
                             **({hook: hooks[hook]} if hook else {}))

    @staticmethod
    def _rate_coupling(obj, data, t_end=3000.0):
        # lam = 5 diverges at coarse step 506; its reference at lam / 16 stays
        # near the origin, within 5 of it until coarse step 208 and within
        # 5.2 until after step 506
        cfg = _cfg(lam=5.0, batch_size=8, seed=9, init=gaussian_init(0.0, 1.0))
        return brownian_coupled_distance(cfg, cfg.lam / 16, obj, data, t_end=t_end, replicas=4)

    @pytest.mark.parametrize("hook", [None, "grad_rows"])
    def test_reference_failing_after_the_coarse_divergence_unseen(self, hook):
        # the coarse chain diverges first, so the run stops there, before the
        # reference meets the bad gradients
        data = make_dataset("gaussian", 200, 2, seed=7)
        with pytest.raises(DivergenceError) as err:
            self._rate_coupling(self._reference_fails(data, 5.2, hook), data)
        assert err.value.step == 506

    @pytest.mark.parametrize("hook", [None, "grad_rows"])
    def test_reference_failing_within_a_coarse_step_named(self, hook):
        # the coarse chain completes its 300 steps; the reference meets the
        # bad gradients at a fine step inside coarse step 208, at a finite
        # position: an EvaluationError, whichever hook computes its gradient
        data = make_dataset("gaussian", 200, 2, seed=7)
        with pytest.raises(EvaluationError) as err:
            self._rate_coupling(self._reference_fails(data, 5.0, hook), data, t_end=1500.0)
        assert err.value.sample_index == 0

    def test_coarse_evaluation_error_before_the_reference_named(self):
        # the coarse chain's minibatch gradients fail at its third step, long
        # before the reference's fail inside coarse step 208
        data = make_dataset("gaussian", 200, 2, seed=7)
        with pytest.raises(EvaluationError) as err:
            self._rate_coupling(self._reference_fails(data, 5.0, None, minibatch_radius=10.0), data)
        assert err.value.sample_index == 3

    def test_coarse_evaluation_error_first_on_one_coarse_step(self, data2):
        # at the first step the reference's grad_rows hook is NaN where
        # grad_f is not, a DivergenceError, and the coarse chain's minibatch
        # gradients are NaN, an EvaluationError, which the coarse chain,
        # running first, raises
        q = quadratic(2, m0=1.0)

        def grad_f(x, Z):
            g = q.grad_f(x, Z)
            return g if len(Z) == data2.n else np.full_like(g, np.nan)

        obj = ObjectiveSpec("nan-rows", 2, q.f, grad_f, q.cert,
                            grad_rows=lambda X, Z: np.full_like(X, np.nan))
        cfg = _cfg(lam=0.05, batch_size=8, seed=5, init=gaussian_init(0.0, 1.0))
        with pytest.raises(EvaluationError):
            brownian_coupled_distance(cfg, cfg.lam / 2, obj, data2, t_end=1.0, replicas=4)


class TestNoiseBlocks:
    """Runs step through blocks of noise and history of at most
    ``samplers._BLOCK_BYTES`` bytes; where the blocks end never shows. A cap
    of one byte steps one-step blocks, the loop as it was before blocks."""

    # At 4800 bytes ensemble_run steps 6-step blocks (4 replicas in 2-d), so
    # its burn-in of 20 ends inside a block; run_chain steps 8-step blocks
    # and coupled_run 7-step ones, so the divergence runs end in a partial
    # block. At 9300 bytes the blocks are 12, 16 and 14 steps.
    CAPS = [1, 4800, 9300]

    def test_sums_in_parts_of_a_step(self, monkeypatch, data2):
        # a cap of 20 draws sums each coarse step's 64 draws in four parts:
        # the same draws in the same order, so only the rounding moves
        cfg = _cfg(lam=0.1, seed=6, init=gaussian_init(0.0, 1.0))

        def distance():
            return brownian_coupled_distance(cfg, 0.1 / 64, quadratic(2, m0=1.0), data2,
                                             t_end=2.0, replicas=4)

        whole = distance()
        monkeypatch.setattr(samplers, "_BLOCK_BYTES", 20 * 8 * 4 * 2)
        assert distance() == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("runner", TestGoldenOutputs.RUNNERS)
    def test_outputs_and_divergence_steps_unchanged(self, monkeypatch, runner, cap):
        monkeypatch.setattr(samplers, "_BLOCK_BYTES", cap)
        TestGoldenOutputs().test_outputs_and_divergence_step_pinned(runner)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("d, R", TestTailMoments.CASES)
    def test_tail_moments_unchanged(self, monkeypatch, d, R, cap):
        monkeypatch.setattr(samplers, "_BLOCK_BYTES", cap)
        TestTailMoments().test_tail_moments_pinned(d, R)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("runner", sorted(TestNonFiniteGradients.RUNNERS))
    @pytest.mark.parametrize("batch", [None, 32])
    def test_evaluation_error_sample_unchanged(self, monkeypatch, data2, batch, runner, cap):
        cfg = _cfg(lam=0.05, batch_size=batch, seed=5, init=gaussian_init(0.0, 1.0))
        obj = TestNonFiniteGradients._objective("grad_batches")
        found = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(samplers, "_BLOCK_BYTES", cap)
            with pytest.raises(EvaluationError) as err:
                TestNonFiniteGradients.RUNNERS[runner](cfg, obj, data2)
            found.append(err.value.sample_index)
        assert found[0] == found[1]

    @pytest.mark.parametrize("replicas", [1, 64, 5000])
    def test_buffers_do_not_grow_with_steps(self, data2, replicas):
        cfg = _cfg(batch_size=8)
        blocks = []
        for steps in (100, 10**9):
            X, V = cfg.init.sample(cfg.dim, derive_stream(0, "init"), size=replicas)
            chain = samplers._Chain("sghmc", cfg, X, V, derive_stream(0, "minibatch"))
            run = samplers._advance([chain], quadratic(2), data2, steps, derive_stream(0, "noise"))
            _, n = next(run)
            # one step always fits; beyond it the history stays within the cap
            assert n == 1 or chain.H.nbytes <= samplers._BLOCK_BYTES
            blocks.append(len(chain.H))
            run.close()
        assert blocks[0] == min(101, blocks[1])  # a short run takes one block

    class DrawSpy:
        """An index stream that checks, at each block's draw, that the draws
        of the blocks before it are gone."""

        def __init__(self, rng):
            self.rng, self.drawn = rng, []

        def integers(self, *args, **kwargs):
            assert all(ref() is None for ref in self.drawn)
            out = self.rng.integers(*args, **kwargs)
            self.drawn.append(weakref.ref(out))
            return out

    @pytest.mark.parametrize("replicas, batch", [(1, None), (1, 8), (64, None)])
    def test_bound_views_fit_the_cap_and_are_released(self, data2, replicas, batch):
        cfg = _cfg(batch_size=batch)
        X, V = cfg.init.sample(cfg.dim, derive_stream(0, "init"), size=replicas)
        spy = self.DrawSpy(derive_stream(0, "minibatch"))
        chain = samplers._Chain("sghmc", cfg, X, V, spy if batch else None)
        run = samplers._advance([chain], quadratic(2), data2, 2000, derive_stream(0, "noise"))
        next(run)
        assert len(chain.rows) == len(chain.H) > 1
        views = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in chain.rows)
        assert views <= samplers._ROW_VIEW_BYTES * len(chain.rows)
        assert chain.H.nbytes + views <= samplers._BLOCK_BYTES
        view = weakref.ref(chain.rows[1][1])
        for _ in run:
            pass
        assert chain.H is chain.rows is None
        assert view() is None
        assert (len(spy.drawn) > 1) == bool(batch)  # more than one block was drawn

    @pytest.mark.parametrize("exit", ["completion", "divergence", "evaluation", "close"])
    def test_every_exit_frees_the_buffers(self, data2, exit):
        # a minibatch chain and a full-gradient one, in blocks of 105 steps
        cfg = _cfg(lam=5.0 if exit == "divergence" else 0.05, batch_size=32, seed=5,
                   init=gaussian_init(0.0, 1.0))
        obj = TestNonFiniteGradients._objective(None) if exit == "evaluation" else quadratic(2)
        full = dataclasses.replace(cfg, batch_size=None)
        chains, noise_rng = samplers._chains(("sghmc", "sghmc"), (cfg, full), 4, "test")
        run = samplers._advance(chains, obj, data2, 2000, noise_rng)
        error = {"divergence": DivergenceError, "evaluation": EvaluationError}.get(exit)
        if exit == "close":
            assert next(run)[1] < 2000
            run.close()
        elif error is None:
            for _ in run:
                pass
        else:
            with pytest.raises(error):
                for _ in run:
                    pass
        assert all(ch.H is ch.rows is ch.grad is None for ch in chains)


class TestIndexStreams:
    """_chains alone decides which chains draw minibatches: it hands a chain
    an index stream exactly when its config has a batch size, whatever its kind."""

    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    @pytest.mark.parametrize("batches, drawing", [
        ((None,), [False]),
        ((8,), [True]),
        ((8, None), [True, False]),
    ])
    def test_full_gradient_chains_get_none(self, kind, batches, drawing):
        cfgs = [_cfg(batch_size=batch) for batch in batches]
        chains, _ = samplers._chains((kind,) * len(cfgs), cfgs, 4, "test")
        assert [ch.idx_rng is not None for ch in chains] == drawing


class TestBlockIndexDraws:
    """A block's minibatch indices are drawn in one call of shape (steps, R,
    l): the values and the generator state after it must be those of one
    call per step, rejection-heavy ranges included."""

    @pytest.mark.parametrize("n", [7, 100, 2**31 + 1, 2**32 - 1, 2**40 + 7])
    @pytest.mark.parametrize("steps, R, ell", [(1, 1, 1), (5, 1, 10), (33, 4, 3), (64, 3, 32)])
    def test_one_call_is_one_call_per_step(self, n, steps, R, ell):
        block, per_step = derive_stream(3, "draws"), derive_stream(3, "draws")
        drawn = block.integers(0, n, size=(steps, R, ell))
        want = np.stack([per_step.integers(0, n, size=(R, ell)) for _ in range(steps)])
        assert drawn.dtype == want.dtype and np.array_equal(drawn, want)
        assert block.bit_generator.state == per_step.bit_generator.state
        assert block.integers(0, n, size=3).tolist() == per_step.integers(0, n, size=3).tolist()


class TestGradRowsResults:
    """The loop hands a ``grad_rows`` result to the update as it is: one that
    is a list, or a float32 array, steps as its float64 copy."""

    @pytest.mark.parametrize("convert", [lambda G: G.tolist(), lambda G: G.astype(np.float32)],
                             ids=["list", "float32"])
    @pytest.mark.parametrize("batch", [None, 8])
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_steps_as_the_float64_copy(self, data2, kind, batch, convert):
        obj = quadratic(2, m0=1.0, coupling=0.5, z_radius=data2.max_norm())
        cfg = _cfg(lam=0.05, seed=3, batch_size=batch, init=gaussian_init(0.0, 1.0))
        runs = []
        for hook in (convert, lambda G: np.asarray(convert(G), dtype=float)):
            spec = dataclasses.replace(obj, grad_rows=lambda X, Z, h=hook: h(obj.grad_rows(X, Z)))
            r = ensemble_run(kind, cfg, spec, data2, steps=50, replicas=3, burn_in=10)
            t = run_chain(kind, cfg, spec, data2, steps=50, thin=7)
            runs.append([r.X, r.V, r.tail_mean_x, r.tail_var_v, t.xs, t.vs])
        assert all(np.array_equal(a, b) for a, b in zip(*runs))


class TestTwoStepCoupling:
    """Pins of ``coupled_ensemble_run`` with cfg_b at half cfg's step size.
    Its two chains step apart, and with minibatches they share one index
    stream, one draw a step, so a change to the draw order shows here."""

    # digests in TestGoldenOutputs.CASES order
    GOLDEN = {
        "sgld": "ce10b05637fb031c 03449a9ca312b267 1bcd1fc1ef8604d6 cec45dce59539fde",
        "sghmc": "44f2adc540379b4b 6fbd5a141789f4ef c2c6c55866cff878 9f13c8483b5cbdc6",
    }
    # DivergenceError.step at lam = 5 on the quadratic, batch_size None and 8
    DIVERGENCE_STEP = {"sgld": (512, 511), "sghmc": (507, 507)}

    @staticmethod
    def outputs(kind, batch, obj, data, steps, lam=0.05):
        cfg, cfg_b = TestGoldenOutputs._pair(batch, lam)
        r = coupled_ensemble_run(kind, cfg, dataclasses.replace(cfg_b, lam=lam / 2), obj, data,
                                 steps=steps, replicas=4, record_every=5)
        return [r.steps, r.mean_sep, r.rms_sep, r.rms_dx, r.rms_dv]

    @classmethod
    def digests(cls, kind):
        data = make_dataset("gaussian", 200, 2, seed=7)
        objs = {"double_well": double_well(2, coupling=0.1, z_radius=data.max_norm()),
                "gaussian_mixture": gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm())}
        out = []
        for name, batch in TestGoldenOutputs.CASES:
            h = hashlib.sha256()
            for a in cls.outputs(kind, batch, objs[name], data, TestGoldenOutputs.STEPS):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            out.append(h.hexdigest()[:16])
        return tuple(out)

    @classmethod
    def divergence_steps(cls, kind):
        data = make_dataset("gaussian", 200, 2, seed=7)
        out = []
        for batch in (None, 8):
            with pytest.raises(DivergenceError) as err:
                cls.outputs(kind, batch, quadratic(2, m0=1.0), data, 2000, lam=5.0)
            out.append(err.value.step)
        return tuple(out)

    @pytest.mark.parametrize("cap", [None] + TestNoiseBlocks.CAPS)
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_outputs_and_divergence_step_pinned(self, monkeypatch, kind, cap):
        if cap is not None:
            monkeypatch.setattr(samplers, "_BLOCK_BYTES", cap)
        assert self.digests(kind) == tuple(self.GOLDEN[kind].split())
        assert self.divergence_steps(kind) == self.DIVERGENCE_STEP[kind]


class TestResultsOwnTheirArrays:
    """Returned arrays never share memory with each other, with a later
    run's results or with a buffer the stepping loop keeps using."""

    @staticmethod
    def arrays(data):
        cfg = _cfg(lam=0.05, seed=3, init=gaussian_init(0.0, 1.0))
        obj = quadratic(2, m0=1.0)
        out = []
        for _ in range(2):
            ens = ensemble_run("sghmc", cfg, obj, data, steps=40, replicas=3, record_every=7)
            traj = run_chain("sghmc", cfg, obj, data, steps=40, thin=7)
            ta, tb, _ = coupled_run("sghmc", cfg, cfg, obj, data, steps=40, thin=7)
            out += [ens.X, ens.V, traj.xs, traj.vs, ta.xs, ta.vs, tb.xs, tb.vs]
        return out

    def test_no_shared_memory(self, data2):
        arrays = self.arrays(data2)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_later_runs_leave_results_unchanged(self, data2):
        first = self.arrays(data2)
        kept = [a.copy() for a in first]
        self.arrays(data2)
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))
