import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from sghmc import (
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    ObjectiveSpec,
    SamplerConfig,
    SmoothnessCertificate,
    auxiliary_integrate,
    coupled_run,
    double_well,
    exact_sghmc_step,
    gaussian_init,
    gaussian_mixture,
    make_dataset,
    make_oracle,
    point_init,
    quadratic,
    run_chain,
    sghmc_step,
    sgld_step,
    underdamped_integrate,
)
from sghmc import samplers
from sghmc.samplers import (
    brownian_coupled_distance,
    coupled_ensemble_run,
    ensemble_run,
    make_chain_state,
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


class TestSteps:
    def test_zero_step_size_fixes_state(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.0, init=point_init([1.0, -1.0], [0.5, 0.5]))
        oracle = make_oracle(obj, data2, None, seed=1)
        st = make_chain_state(cfg)
        for step_fn, args in (
            (sghmc_step, (cfg, oracle)),
            (exact_sghmc_step, (cfg, obj, data2)),
            (sgld_step, (cfg, oracle)),
        ):
            out = step_fn(st, *args)
            assert np.array_equal(out.x, st.x)
            assert np.array_equal(out.v, st.v)
            assert out.step == st.step + 1
            st = make_chain_state(cfg)

    def test_free_particle(self, data2):
        # no friction, no force, no noise: straight-line motion
        obj = zero_objective(2)
        cfg = _cfg(lam=0.5, gamma=0.0, beta=math.inf,
                   init=point_init([1.0, 0.0], [2.0, -1.0]))
        st = make_chain_state(cfg)
        out = sghmc_step(st, cfg, make_oracle(obj, data2, None, seed=1))
        assert np.allclose(out.v, st.v)
        assert np.allclose(out.x, st.x + 0.5 * st.v)

    def test_pinned_noise_replay(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.1, gamma=1.0, beta=1.0)
        st = make_chain_state(cfg)
        out = sghmc_step(st, cfg, make_oracle(obj, data2, None, seed=1),
                         xi=np.array([1.0, 0.0]))
        assert out.v == pytest.approx([math.sqrt(0.2), 0.0])
        assert np.array_equal(out.x, np.zeros(2))

    def test_exact_matches_full_pass_under_shared_noise(self, data2):
        obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data2.max_norm())
        cfg = _cfg(lam=0.02, init=point_init([1.0, 1.0], [0.0, 0.0]))
        noise = derive_stream(3, "pin")
        st_a = make_chain_state(cfg)
        st_b = make_chain_state(cfg)
        oracle = make_oracle(obj, data2, None, seed=5)
        for _ in range(10):
            xi = noise.standard_normal(2)
            st_a = sghmc_step(st_a, cfg, oracle, xi=xi)
            st_b = exact_sghmc_step(st_b, cfg, obj, data2, xi=xi)
        assert np.array_equal(st_a.x, st_b.x)
        assert np.array_equal(st_a.v, st_b.v)

    def test_exact_step_pinned_noise(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.1, gamma=1.0, beta=1.0)
        st = make_chain_state(cfg)
        out = exact_sghmc_step(st, cfg, obj, data2, xi=np.array([1.0, 0.0]))
        assert out.v == pytest.approx([math.sqrt(0.2), 0.0])
        assert np.array_equal(out.x, np.zeros(2))

    def test_sgld_pinned_arithmetic(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.1, init=point_init([1.0, 0.0], [0.0, 0.0]))
        st = make_chain_state(cfg)
        out = sgld_step(st, cfg, make_oracle(obj, data2, None, seed=1), xi=np.zeros(2))
        assert out.x == pytest.approx([0.9, 0.0])

    def test_divergence_carries_step_index(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=5.0, init=point_init([1.0, 0.0], [0.0, 0.0]))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            run_chain("exact_sghmc", cfg, obj, data2, steps=10_000, thin=100)
        assert err.value.step >= 1


class TestSgldStationary:
    def test_quadratic_second_moment(self, data2):
        obj = quadratic(2, m0=1.0)
        cfg = _cfg(lam=0.01, seed=3)
        res = ensemble_run("sgld", cfg, obj, data2, steps=150_000, replicas=8,
                           record_every=10**9, burn_in=15_000)
        got = float(np.mean(res.tail_var_x))
        assert got == pytest.approx(1.0, rel=0.05)


class TestIntegrators:
    def test_friction_only_exponential_decay(self, data1):
        obj = zero_objective(1)
        cfg = SamplerConfig(lam=1.0, gamma=1.0, beta=math.inf, batch_size=None,
                            dim=1, seed=1, init=point_init([0.0], [1.0]))
        traj = underdamped_integrate(cfg, obj, data1, t_end=1.0, substep=1e-4, thin=10_000)
        rel = abs(traj.vs[-1, 0] - math.exp(-1.0)) / math.exp(-1.0)
        assert rel <= 1e-3

    def test_zero_horizon_returns_initial_state_only(self, data1):
        obj = quadratic(1, m0=1.0)
        cfg = SamplerConfig(lam=1.0, gamma=2.0, beta=1.0, batch_size=None,
                            dim=1, seed=1, init=point_init([0.5], [0.0]))
        traj = underdamped_integrate(cfg, obj, data1, t_end=0.0, substep=0.01)
        assert len(traj) == 1
        assert traj.xs[0] == pytest.approx([0.5])

    @pytest.mark.parametrize("integrate", [underdamped_integrate, auxiliary_integrate])
    def test_thin_below_one_rejected(self, data1, integrate):
        cfg = SamplerConfig(lam=1.0, gamma=2.0, beta=1.0, batch_size=None,
                            dim=1, seed=1, init=point_init([0.5], [0.0]))
        with pytest.raises(ConfigurationError, match="thin must be >= 1"):
            integrate(cfg, quadratic(1, m0=1.0), data1, t_end=1.0, substep=0.1, thin=0)

    def test_quadratic_equilibrium_moments(self, data2):
        obj = quadratic(2, m0=1.0)
        x2, v2 = [], []
        for rep in range(6):
            cfg = _cfg(seed=12, init=point_init([0.0, 0.0], [0.0, 0.0]))
            traj = underdamped_integrate(
                cfg, obj, data2, t_end=800.0, substep=0.01, thin=50,
                noise_rng=derive_stream(12, "equilibrium", rep),
            )
            burn = len(traj) // 5
            x2.append(np.mean(traj.xs[burn:] ** 2))
            v2.append(np.mean(traj.vs[burn:] ** 2))
        assert float(np.mean(x2)) == pytest.approx(1.0, rel=0.05)
        assert float(np.mean(v2)) == pytest.approx(1.0, rel=0.05)

    def test_auxiliary_is_underdamped_at_unit_lambda(self, data1):
        obj = quadratic(1, m0=1.0)
        cfg = SamplerConfig(lam=1.0, gamma=2.0, beta=1.0, batch_size=None,
                            dim=1, seed=5, init=point_init([1.0], [0.0]))
        a = underdamped_integrate(cfg, obj, data1, 2.0, 1e-3, thin=100,
                                  noise_rng=derive_stream(5, "shared"))
        b = auxiliary_integrate(cfg, obj, data1, 2.0, 1e-3, thin=100,
                                noise_rng=derive_stream(5, "shared"))
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.vs, b.vs)

    def test_auxiliary_drift_only_matches_matrix_exponential(self, data1):
        # noise off: the slowed dynamics solve the damped oscillator with the
        # clock scaled by lam
        obj = quadratic(1, m0=1.0)
        lam, t_end = 0.25, 4.0
        cfg = SamplerConfig(lam=lam, gamma=1.0, beta=math.inf, batch_size=None,
                            dim=1, seed=5, init=point_init([1.0], [0.0]))
        traj = auxiliary_integrate(cfg, obj, data1, t_end=t_end, substep=1e-4, thin=40_000)
        A = np.array([[-1.0, -1.0], [1.0, 0.0]])  # d/dt (v, x)
        want_v, want_x = expm(A * lam * t_end) @ np.array([0.0, 1.0])
        assert traj.vs[-1, 0] == pytest.approx(want_v, abs=1e-4)
        assert traj.xs[-1, 0] == pytest.approx(want_x, abs=1e-4)

    def test_time_change_law(self, data1):
        # the slowed process at parameter time t agrees in law with the
        # underdamped process at time lam * t
        obj = quadratic(1, m0=1.0)
        lam, t_par, reps = 0.5, 2.0, 600
        xa = np.empty(reps)
        xu = np.empty(reps)
        va = np.empty(reps)
        vu = np.empty(reps)
        for i in range(reps):
            cfg = SamplerConfig(lam=lam, gamma=2.0, beta=1.0, batch_size=None,
                                dim=1, seed=0, init=point_init([1.0], [0.0]))
            ta = auxiliary_integrate(cfg, obj, data1, t_par, 0.02, thin=100,
                                     noise_rng=derive_stream(900 + i, "aux"))
            tu = underdamped_integrate(cfg, obj, data1, t_par * lam, 0.02, thin=50,
                                       noise_rng=derive_stream(5000 + i, "und"))
            xa[i], va[i] = ta.xs[-1, 0], ta.vs[-1, 0]
            xu[i], vu[i] = tu.xs[-1, 0], tu.vs[-1, 0]
        for sa, su in ((xa, xu), (va, vu)):
            for moment in (1, 2):
                ma, mu = np.mean(sa**moment), np.mean(su**moment)
                se = math.sqrt(np.var(sa**moment) / reps + np.var(su**moment) / reps)
                assert abs(ma - mu) <= 3.0 * se


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
    @pytest.mark.parametrize("kind", ["sgld", "sghmc", "exact_sghmc"])
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
        # coupling an approximate chain to the exact one: the gradient-noise
        # gap shrinks as the batch grows
        obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=data2.max_norm())
        terminal = {}
        for ell in (1, 4, 16):
            sq = 0.0
            for rep in range(16):
                cfg = _cfg(lam=0.01, seed=100 + rep, batch_size=ell,
                           init=point_init([0.5, 0.5], [0.0, 0.0]))
                _, _, dist = coupled_run(("sghmc", "exact_sghmc"), cfg, cfg, obj,
                                         data2, steps=400, thin=400)
                sq += dist[-1, 1] ** 2 + dist[-1, 2] ** 2
            terminal[ell] = math.sqrt(sq / 16)
        assert terminal[1] > terminal[4] > terminal[16]

    @pytest.mark.parametrize("batches", [(None, 8), (8, None), (8, 900)])
    def test_coupled_ensemble_rejects_mismatched_batch_sizes(self, data2, batches):
        cfg_a, cfg_b = (_cfg(batch_size=b) for b in batches)
        with pytest.raises(ConfigurationError, match="batch size"):
            coupled_ensemble_run("sghmc", cfg_a, cfg_b, quadratic(2), data2, steps=5, replicas=2)

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
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
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
            functionals={"x2": lambda X, V: np.sum(X * X, axis=1)},
        )
        # started far out: the sup is attained near the start, above the tail
        assert res.running_max["x2"] >= res.series["x2"][-1]
        assert res.running_max["x2"] == pytest.approx(9.0, rel=0.2)

    def test_coupled_velocity_divergence_raises(self, data2):
        # the noise scale sqrt(2 gamma lam / beta) overflows: after one step
        # the positions are still finite, the momenta are not
        obj = quadratic(2, m0=1.0)
        cfg_a = _cfg(lam=1e308, init=point_init([1.0, 0.0], [0.0, 0.0]))
        cfg_b = _cfg(lam=1e308, init=point_init([-1.0, 0.0], [0.0, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                ensemble_run("sghmc", cfg_a, obj, data2, steps=1, replicas=2)
            assert err.value.step == 1
            with pytest.raises(DivergenceError) as err:
                coupled_ensemble_run("sghmc", cfg_a, cfg_b, obj, data2, steps=1,
                                     replicas=2, record_every=1)
            assert err.value.step == 1

    @pytest.mark.parametrize("runner", [
        lambda obj, data: ensemble_run("sghmc", _cfg(), obj, data, steps=10, replicas=0),
        lambda obj, data: coupled_ensemble_run("sghmc", _cfg(), _cfg(), obj, data, steps=10,
                                               replicas=0),
        lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), 0.05, obj, data, 1.0, 0),
    ], ids=["ensemble_run", "coupled_ensemble_run", "brownian_coupled_distance"])
    def test_zero_replicas_rejected(self, data2, runner):
        with pytest.raises(ConfigurationError, match="replicas must be >= 1"):
            runner(quadratic(2, m0=1.0), data2)

    @pytest.mark.parametrize("runner, message", [
        (lambda obj, data: ensemble_run("sghmc", _cfg(), obj, data, steps=0, replicas=2),
         "steps must be >= 1"),
        (lambda obj, data: ensemble_run("sghmc", _cfg(), obj, data, steps=10, replicas=2,
                                        record_every=0), "record_every must be >= 1"),
        (lambda obj, data: coupled_ensemble_run("sghmc", _cfg(), _cfg(), obj, data, steps=0,
                                                replicas=2), "steps must be >= 1"),
        (lambda obj, data: coupled_ensemble_run("sghmc", _cfg(), _cfg(), obj, data, steps=10,
                                                replicas=2, record_every=0),
         "record_every must be >= 1"),
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), 0.0, obj, data, 1.0, 2),
         "lambda_ref must be > 0"),
        (lambda obj, data: brownian_coupled_distance(_cfg(lam=0.1), -0.05, obj, data, 1.0, 2),
         "lambda_ref must be > 0"),
    ], ids=["ensemble_run-steps-0", "ensemble_run-record-every-0",
            "coupled_ensemble_run-steps-0", "coupled_ensemble_run-record-every-0",
            "brownian_coupled_distance-lambda-ref-0", "brownian_coupled_distance-lambda-ref-neg"])
    def test_out_of_range_run_sizes_rejected(self, data2, runner, message):
        with pytest.raises(ConfigurationError, match=message):
            runner(quadratic(2, m0=1.0), data2)


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
        for pair in (kind, (kind, "exact_sghmc")):  # shared, then own indices
            a = coupled_run(pair, cfg, cfg_b, obj, data, steps=50, thin=10)
            b = coupled_run(pair, cfg, cfg_b, loop, data, steps=50, thin=10)
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
               for k in ("sgld", "sghmc", "exact_sghmc")] + [
        "coupled_run:shared", "coupled_run:separate", "brownian_coupled_distance",
        "underdamped_integrate", "auxiliary_integrate", "sghmc_step", "exact_sghmc_step",
        "sgld_step",
    ]

    @staticmethod
    def outputs(runner, cfg, cfg_b, obj, data, n, h):
        """The arrays ``runner`` returns after ``n`` steps; ``h`` is the
        integrators' effective step (the auxiliary substep times cfg.lam)."""
        name, _, kind = runner.partition(":")
        if name == "run_chain":
            t = run_chain(kind, cfg, obj, data, steps=n, thin=7)
            return [t.steps, t.xs, t.vs]
        if name == "ensemble_run":
            r = ensemble_run(kind, cfg, obj, data, steps=n, replicas=4, record_every=7,
                             burn_in=20, functionals={"x2": lambda X, V: np.sum(X * X, axis=1)})
            return [r.steps, r.series["x2"], [r.running_max["x2"], r.tail_samples],
                    r.tail_mean_x, r.tail_var_x, r.tail_mean_v, r.tail_var_v, r.X, r.V]
        if name == "coupled_ensemble_run":
            r = coupled_ensemble_run(kind, cfg, cfg_b, obj, data, steps=n, replicas=4,
                                     record_every=7)
            return [r.steps, r.mean_sep, r.rms_sep, r.rms_dx, r.rms_dv]
        if name == "coupled_run":
            pair = ("sgld", "sghmc") if kind == "shared" else ("sghmc", "exact_sghmc")
            ta, tb, dist = coupled_run(pair, cfg, cfg_b, obj, data, steps=n, thin=7)
            return [ta.steps, ta.xs, ta.vs, tb.xs, tb.vs, dist]
        if name == "brownian_coupled_distance":
            return [brownian_coupled_distance(cfg, cfg.lam / 4, obj, data, t_end=n * cfg.lam,
                                              replicas=4)]
        if name.endswith("_integrate"):
            sub = h if name == "underdamped_integrate" else h / cfg.lam
            integrate = underdamped_integrate if name == "underdamped_integrate" \
                else auxiliary_integrate
            t = integrate(cfg, obj, data, t_end=n * sub, substep=sub, thin=7)
            return [t.steps, t.xs, t.vs]
        step_fn = {"sghmc_step": sghmc_step, "exact_sghmc_step": exact_sghmc_step,
                   "sgld_step": sgld_step}[name]
        args = (obj, data) if step_fn is exact_sghmc_step else (
            make_oracle(obj, data, cfg.batch_size, seed=3),)
        st, out = make_chain_state(cfg), []
        for _ in range(n):
            st = step_fn(st, cfg, *args)
            out += [st.x, st.v]
        return out

    # digests in CASES order: double_well/None, double_well/8, gaussian_mixture/None, .../8
    GOLDEN = {
        "auxiliary_integrate":
            "7d023cdfc87f86a8 7d023cdfc87f86a8 1888494cb3d5f674 1888494cb3d5f674",
        "brownian_coupled_distance":
            "11aa703daf0a1bf2 2ceff951597961f1 27778a90ddf68114 083863b842625973",
        "coupled_ensemble_run:exact_sghmc":
            "b4e6579052ddc2ae b4e6579052ddc2ae ca29d532fd000800 ca29d532fd000800",
        "coupled_ensemble_run:sghmc":
            "b4e6579052ddc2ae 126997441a91cff2 ca29d532fd000800 b9a973736702d237",
        "coupled_ensemble_run:sgld":
            "09002111519cbcec 8777b247aa1a6e10 79c043d74e168aa1 3c608a74e8218bb8",
        "coupled_run:separate":
            "63ee2100b63a7c59 e9e21c606198c2dc 4c83c426d5bc4af3 9215072c0dd1c8e8",
        "coupled_run:shared":
            "553ce09874c8fcee 0c961b0903e5050d 2b5953d55af24398 fb58e1bcac2d6ed9",
        "ensemble_run:exact_sghmc":
            "8461636d97bba483 8461636d97bba483 38e583af2cbfc641 38e583af2cbfc641",
        "ensemble_run:sghmc":
            "8461636d97bba483 90a8b386d9d92bb5 38e583af2cbfc641 0cbd4080822ef379",
        "ensemble_run:sgld":
            "d87755840a6ff55e a811e6a73e638573 a11a425f936a76a7 cff660b688f0af9c",
        "exact_sghmc_step":
            "17c12ae5df3e0e28 17c12ae5df3e0e28 c6a095afe737e634 c6a095afe737e634",
        "run_chain:exact_sghmc":
            "597f83ffae78e145 597f83ffae78e145 43b8163490b3aabc 43b8163490b3aabc",
        "run_chain:sghmc":
            "ae7eeb30515195d4 973feb9c01298758 38c0919eee6d77e4 ec03291cfb47973b",
        "run_chain:sgld":
            "dbc98f990bf01477 59d5eaa3a6dd9208 2a1c814258a135ed 56bd1be54a5d3e2c",
        "sghmc_step":
            "17c12ae5df3e0e28 5360463d81913da5 c6a095afe737e634 caca8c110992e5fb",
        "sgld_step":
            "66300c3b62430865 ae368053c48ca559 bb3467ad6fd79b4d 1902fd77e023ba86",
        "underdamped_integrate":
            "7d023cdfc87f86a8 7d023cdfc87f86a8 1888494cb3d5f674 1888494cb3d5f674",
    }
    # DivergenceError.step at lam = 5 on the quadratic, batch_size None and 8
    DIVERGENCE_STEP = {
        "auxiliary_integrate": (507, 507),
        "brownian_coupled_distance": (507, 506),
        "coupled_ensemble_run:exact_sghmc": (507, 507),
        "coupled_ensemble_run:sghmc": (507, 507),
        "coupled_ensemble_run:sgld": (512, 512),
        "coupled_run:separate": (507, 507),
        "coupled_run:shared": (507, 507),
        "ensemble_run:exact_sghmc": (507, 507),
        "ensemble_run:sghmc": (507, 507),
        "ensemble_run:sgld": (512, 512),
        "exact_sghmc_step": (505, 505),
        "run_chain:exact_sghmc": (507, 507),
        "run_chain:sghmc": (508, 508),
        "run_chain:sgld": (513, 513),
        "sghmc_step": (505, 507),
        "sgld_step": (509, 512),
        "underdamped_integrate": (507, 507),
    }

    @classmethod
    def digests(cls, runner):
        data = make_dataset("gaussian", 200, 2, seed=7)
        objs = {"double_well": double_well(2, coupling=0.1, z_radius=data.max_norm()),
                "gaussian_mixture": gaussian_mixture(2, ridge=0.05, z_radius=data.max_norm())}
        out = []
        for name, batch in cls.CASES:
            cfg, cfg_b = cls._pair(batch)
            h = hashlib.sha256()
            for a in cls.outputs(runner, cfg, cfg_b, objs[name], data, cls.STEPS, cfg.lam):
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            out.append(h.hexdigest()[:16])
        return tuple(out)

    # The same on the double well. Its gradient grows 11 times as fast as x
    # beyond the wells, so a sum of per-sample gradients over the dataset
    # (the step functions' full-dataset mean) overflows one step before the
    # state does: the step is still a divergence, not an objective fault.
    DOUBLE_WELL_DIVERGENCE_STEP = {
        "auxiliary_integrate": (255, 255),
        "brownian_coupled_distance": (129, 129),
        "coupled_ensemble_run:exact_sghmc": (255, 255),
        "coupled_ensemble_run:sghmc": (255, 255),
        "coupled_ensemble_run:sgld": (179, 179),
        "coupled_run:separate": (255, 255),
        "coupled_run:shared": (179, 179),
        "ensemble_run:exact_sghmc": (255, 255),
        "ensemble_run:sghmc": (255, 255),
        "ensemble_run:sgld": (179, 179),
        "exact_sghmc_step": (254, 254),
        "run_chain:exact_sghmc": (255, 255),
        "run_chain:sghmc": (255, 255),
        "run_chain:sgld": (179, 179),
        "sghmc_step": (254, 255),
        "sgld_step": (178, 179),
        "underdamped_integrate": (255, 255),
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
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                cls.outputs(runner, cfg, cfg_b, obj, data, 2000, cfg.lam)
            out.append(err.value.step)
        return tuple(out)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_outputs_and_divergence_step_pinned(self, runner):
        assert self.digests(runner) == tuple(self.GOLDEN[runner].split())
        assert self.divergence_steps(runner) == self.DIVERGENCE_STEP[runner]
        assert self.divergence_steps(runner, "double_well") == \
            self.DOUBLE_WELL_DIVERGENCE_STEP[runner]


class TestNonFiniteGradients:
    """A NaN component gradient is an EvaluationError naming a dataset sample
    on every path, whichever hook computes the dataset or minibatch mean."""

    @staticmethod
    def _objective(hook):
        def grad_f(x, Z):
            return np.where(Z[:, :1] > 2.0, np.nan, x[None, :] - 0.5 * Z)

        hooks = {
            "grad_rows": lambda X, Z: np.stack([grad_f(x, Z).mean(axis=0) for x in X]),
            "grad_batches": lambda X, Zs: np.stack([grad_f(x, Z).mean(axis=0)
                                                    for x, Z in zip(X, Zs)]),
        }
        return ObjectiveSpec(
            "nan-tail", 2, lambda x, Z: 0.5 * np.sum((x[None, :] - 0.5 * Z) ** 2, axis=1),
            grad_f, SmoothnessCertificate(A0=0.0, B=0.0, M=1.0, m=1.0, b=0.0),
            **({hook: hooks[hook]} if hook else {}),
        )

    RUNNERS = {
        "run_chain": lambda c, o, d: run_chain("sghmc", c, o, d, steps=200, thin=10),
        "coupled_run": lambda c, o, d: coupled_run("sghmc", c, c, o, d, steps=200, thin=10),
        "ensemble_run": lambda c, o, d: ensemble_run("sghmc", c, o, d, steps=200, replicas=4),
        "coupled_ensemble_run": lambda c, o, d: coupled_ensemble_run(
            "sghmc", c, dataclasses.replace(c, init=point_init([1.0, 0.0], [0.0, 0.0])), o, d,
            steps=200, replicas=4),
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
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
            self.RUNNERS[runner](cfg, self._objective(hook), data2)
        assert bad[err.value.sample_index]
        assert f"sample index {err.value.sample_index}" in str(err.value)
        if batch is None or runner == "brownian_coupled_distance":
            # full-dataset gradients name the first bad sample
            assert err.value.sample_index == int(np.argmax(bad))

    @pytest.mark.parametrize("step", [sghmc_step, sgld_step], ids=["sghmc", "sgld"])
    def test_single_step_names_a_bad_sample(self, data2, step):
        bad = data2.samples[:, 0] > 2.0
        cfg = _cfg(lam=0.05, batch_size=32, seed=5, init=gaussian_init(0.0, 1.0))
        oracle = make_oracle(self._objective(None), data2, 32, seed=3)
        state = make_chain_state(cfg)
        with pytest.raises(EvaluationError) as err:
            for _ in range(200):
                state = step(state, cfg, oracle)
        assert bad[err.value.sample_index]
        assert f"sample index {err.value.sample_index}" in str(err.value)


class TestNoiseBlocks:
    """Runs step through blocks of noise and history of at most
    ``samplers._BLOCK_BYTES`` bytes; where the blocks end never shows. A cap
    of one byte steps one-step blocks, the loop as it was before blocks."""

    # At 1000 bytes ensemble_run steps 3-step blocks (4 replicas in 2-d), so
    # its burn-in of 20 ends inside a block; run_chain steps 15-step blocks
    # and coupled_run 8-step ones, so the divergence runs end in a partial
    # block. At 2600 bytes the blocks are 10, 40 and 23 steps.
    CAPS = [1, 1000, 2600]

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("runner", TestGoldenOutputs.RUNNERS)
    def test_outputs_and_divergence_steps_unchanged(self, monkeypatch, runner, cap):
        monkeypatch.setattr(samplers, "_BLOCK_BYTES", cap)
        TestGoldenOutputs().test_outputs_and_divergence_step_pinned(runner)

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
            with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
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
            integ = underdamped_integrate(cfg, obj, data, t_end=2.0, substep=0.05, thin=7)
            out += [ens.X, ens.V, traj.xs, traj.vs, ta.xs, ta.vs, tb.xs, tb.vs,
                    integ.xs, integ.vs]
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
