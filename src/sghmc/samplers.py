"""Discrete and continuous Langevin dynamics, plus coupled runs.

Five dynamics are implemented on top of one empirical risk:

* ``sgld_step``        -- overdamped Euler step with minibatch gradients,
* ``sghmc_step``       -- underdamped (momentum) Euler step with minibatch
                          gradients,
* ``exact_sghmc_step`` -- the same recursion with the full-dataset gradient,
* ``underdamped_integrate`` -- fine Euler-Maruyama path of the underdamped
                          SDE (the near-continuous reference process),
* ``auxiliary_integrate``   -- the time-scaled variant whose clock runs a
                          factor ``lambda`` slower; at ``lambda = 1`` it
                          coincides with the underdamped path.

The momentum update uses the pre-update momentum in the position update
(``x' = x + lam * v``); this ordering is observable and pinned by tests.

Coupled runs advance two chains on shared randomness: the realized distance
between them upper-bounds the Wasserstein distance between their laws, which
is the desk-scale route to checking contraction and discretization rates.
Ensemble variants advance all replicas as ``(R, d)`` blocks for speed; every
stream is derived from the config seed via :mod:`.rng`, so runs are
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .gradient_oracle import MinibatchOracle, make_oracle, sample_gradient
from .objectives import (
    Dataset,
    ObjectiveSpec,
    batch_empirical_gradient,
    empirical_gradient,
    minibatch_gradient_rows,
)
from .rng import derive_stream

CHAIN_KINDS = ("sgld", "sghmc", "exact_sghmc")


# ---------------------------------------------------------------------------
# Configuration and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialLaw:
    """Initial law of (x, v): a point mass or an isotropic Gaussian."""

    kind: str  # "point" | "gaussian"
    x0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None
    mean: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("point", "gaussian"):
            raise ConfigurationError(f"unknown initial law kind {self.kind!r}")
        if self.kind == "gaussian" and self.scale <= 0:
            raise ConfigurationError("gaussian initial law needs scale > 0")

    def sample(self, dim: int, rng: np.random.Generator, size: Optional[int] = None):
        """Draw (x, v); with ``size`` draw stacked replicas of shape (size, dim)."""
        if self.kind == "point":
            x0 = np.zeros(dim) if self.x0 is None else np.asarray(self.x0, dtype=float)
            v0 = np.zeros(dim) if self.v0 is None else np.asarray(self.v0, dtype=float)
            if x0.shape != (dim,) or v0.shape != (dim,):
                raise ConfigurationError("point initial law has wrong dimension")
            if size is None:
                return x0.copy(), v0.copy()
            return np.tile(x0, (size, 1)), np.tile(v0, (size, 1))
        shape = (dim,) if size is None else (size, dim)
        x = self.mean + self.scale * rng.standard_normal(shape)
        v = self.mean + self.scale * rng.standard_normal(shape)
        return x, v


def point_init(x0, v0) -> InitialLaw:
    return InitialLaw(kind="point", x0=np.asarray(x0, dtype=float), v0=np.asarray(v0, dtype=float))


def gaussian_init(mean: float = 0.0, scale: float = 1.0) -> InitialLaw:
    return InitialLaw(kind="gaussian", mean=mean, scale=scale)


@dataclass(frozen=True)
class SamplerConfig:
    """Step size, friction, inverse temperature, batch size, dimension, seed, init.

    ``beta = inf`` is the zero-noise limit (noise coefficient 0).
    ``batch_size = None`` selects full-dataset gradients for minibatch kinds.
    Admissibility of ``lam`` against the moment-bound step cap is checked by
    the theory module and reported by the harness, never enforced here.
    """

    lam: float
    gamma: float
    beta: float
    batch_size: Optional[int]
    dim: int
    seed: int
    init: InitialLaw

    def __post_init__(self):
        # lam = 0 and gamma = 0 are accepted as degenerate limits (identity
        # step / free particle); theory ops still require strict positivity.
        if self.lam < 0:
            raise ConfigurationError("step size must be >= 0")
        if self.gamma < 0:
            raise ConfigurationError("friction must be >= 0")
        if not (self.beta > 0):
            raise ConfigurationError("inverse temperature must be > 0 (inf allowed)")
        if self.dim < 1:
            raise ConfigurationError("dimension must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch size must be >= 1 or None")

    @property
    def noise_scale(self) -> float:
        """Gaussian coefficient of one discrete step: sqrt(2 gamma lam / beta)."""
        if math.isinf(self.beta):
            return 0.0
        return math.sqrt(2.0 * self.gamma * self.lam / self.beta)


@dataclass
class ChainState:
    """Single-owner chain state; the noise stream advances with the chain."""

    x: np.ndarray
    v: np.ndarray
    step: int
    rng: np.random.Generator


def make_chain_state(cfg: SamplerConfig, purpose: str = "chain", replica: int = 0) -> ChainState:
    init_rng = derive_stream(cfg.seed, f"{purpose}:init", replica)
    x, v = cfg.init.sample(cfg.dim, init_rng)
    return ChainState(x=x, v=v, step=0, rng=derive_stream(cfg.seed, f"{purpose}:noise", replica))


@dataclass
class Trajectory:
    """Thinned record of a run: states at step indices 0, thin, 2*thin, ..."""

    steps: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    thin: int
    config: SamplerConfig
    kind: str = ""

    def __len__(self):
        return len(self.steps)

    def to_csv(self, path) -> None:
        d = self.xs.shape[1]
        header = ",".join(
            ["step"] + [f"x_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)]
        )
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for k, x, v in zip(self.steps, self.xs, self.vs):
                row = [f"{int(k)}"] + [f"{c:.17g}" for c in x] + [f"{c:.17g}" for c in v]
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def _check_finite(x: np.ndarray, v: Optional[np.ndarray], step: int) -> None:
    ok = np.all(np.isfinite(x)) and (v is None or np.all(np.isfinite(v)))
    if not ok:
        raise DivergenceError(f"chain diverged at step {step}", step=step)


def sghmc_step(
    state: ChainState,
    cfg: SamplerConfig,
    oracle: MinibatchOracle,
    xi: Optional[np.ndarray] = None,
) -> ChainState:
    """One momentum Euler step with a stochastic gradient.

    v' = v - lam * (gamma v + g(x)) + sqrt(2 gamma lam / beta) xi,
    x' = x + lam * v   (pre-update momentum).

    ``xi`` overrides the Gaussian draw (recorded-noise replay); by default a
    fresh standard normal vector is taken from the state's stream.
    """
    g = sample_gradient(oracle, state.x)
    if xi is None:
        xi = state.rng.standard_normal(cfg.dim)
    v_new = state.v - cfg.lam * (cfg.gamma * state.v + g) + cfg.noise_scale * xi
    x_new = state.x + cfg.lam * state.v
    _check_finite(x_new, v_new, state.step + 1)
    return ChainState(x=x_new, v=v_new, step=state.step + 1, rng=state.rng)


def exact_sghmc_step(
    state: ChainState,
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    xi: Optional[np.ndarray] = None,
) -> ChainState:
    """Momentum Euler step with the full-dataset gradient."""
    g = empirical_gradient(state.x, obj, data)
    if xi is None:
        xi = state.rng.standard_normal(cfg.dim)
    v_new = state.v - cfg.lam * (cfg.gamma * state.v + g) + cfg.noise_scale * xi
    x_new = state.x + cfg.lam * state.v
    _check_finite(x_new, v_new, state.step + 1)
    return ChainState(x=x_new, v=v_new, step=state.step + 1, rng=state.rng)


def sgld_step(
    state: ChainState,
    cfg: SamplerConfig,
    oracle: MinibatchOracle,
    xi: Optional[np.ndarray] = None,
) -> ChainState:
    """One overdamped Euler step: x' = x - lam g(x) + sqrt(2 lam / beta) xi."""
    g = sample_gradient(oracle, state.x)
    if xi is None:
        xi = state.rng.standard_normal(cfg.dim)
    scale = 0.0 if math.isinf(cfg.beta) else math.sqrt(2.0 * cfg.lam / cfg.beta)
    x_new = state.x - cfg.lam * g + scale * xi
    _check_finite(x_new, None, state.step + 1)
    return ChainState(x=x_new, v=state.v.copy(), step=state.step + 1, rng=state.rng)


# ---------------------------------------------------------------------------
# Continuous-time reference processes (fine Euler-Maruyama)
# ---------------------------------------------------------------------------

def underdamped_integrate(
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    t_end: float,
    substep: float,
    thin: int = 100,
    noise_rng: Optional[np.random.Generator] = None,
    init: Optional[tuple] = None,
) -> Trajectory:
    """Euler-Maruyama path of dV = -(gamma V + grad F) dt + sqrt(2 gamma / beta) dB,
    dX = V dt, on [0, t_end] with the given substep.

    ``thin`` records every thin-th substep; ``t_end = 0`` yields only the
    initial state. The returned trajectory's ``steps`` are substep indices.
    """
    return _integrate(cfg, obj, data, t_end, substep, thin, noise_rng, init, time_scale=1.0)


def auxiliary_integrate(
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    t_end: float,
    substep: float,
    thin: int = 100,
    noise_rng: Optional[np.random.Generator] = None,
    init: Optional[tuple] = None,
) -> Trajectory:
    """Euler-Maruyama path of the slowed dynamics
    dV = -lam (gamma V + grad F) dt + sqrt(2 gamma lam / beta) dB, dX = lam V dt.

    Statistically it is the underdamped path run at time ``lam * t``; with a
    shared noise stream and the same substep the two coincide to floating
    point at ``lam = 1``.
    """
    return _integrate(cfg, obj, data, t_end, substep, thin, noise_rng, init, time_scale=cfg.lam)


def _integrate(cfg, obj, data, t_end, substep, thin, noise_rng, init, time_scale):
    if t_end < 0:
        raise ConfigurationError("t_end must be >= 0")
    if substep <= 0:
        raise ConfigurationError("substep must be > 0")
    if noise_rng is None:
        noise_rng = derive_stream(cfg.seed, "integrate:noise")
    if init is None:
        x, v = cfg.init.sample(cfg.dim, derive_stream(cfg.seed, "integrate:init"))
    else:
        x, v = (np.asarray(init[0], dtype=float).copy(), np.asarray(init[1], dtype=float).copy())
    nsteps = int(round(t_end / substep))
    if math.isinf(cfg.beta):
        noise = 0.0
    else:
        noise = math.sqrt(2.0 * cfg.gamma * time_scale * substep / cfg.beta)
    rec_steps = [0]
    rec_x = [x.copy()]
    rec_v = [v.copy()]
    for k in range(1, nsteps + 1):
        g = empirical_gradient(x, obj, data)
        xi = noise_rng.standard_normal(cfg.dim)
        v_new = v - time_scale * substep * (cfg.gamma * v + g) + noise * xi
        x_new = x + time_scale * substep * v
        _check_finite(x_new, v_new, k)
        x, v = x_new, v_new
        if k % thin == 0:
            rec_steps.append(k)
            rec_x.append(x.copy())
            rec_v.append(v.copy())
    return Trajectory(
        steps=np.asarray(rec_steps),
        xs=np.asarray(rec_x),
        vs=np.asarray(rec_v),
        thin=thin,
        config=cfg,
        kind="underdamped" if time_scale == 1.0 else "auxiliary",
    )


# ---------------------------------------------------------------------------
# Chain runners
# ---------------------------------------------------------------------------

def run_chain(
    kind: str,
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    steps: int,
    thin: int = 100,
) -> Trajectory:
    """Iterate the chosen step op, recording every thin-th state (incl. init)."""
    if kind not in CHAIN_KINDS:
        raise ConfigurationError(f"unknown chain kind {kind!r}; known: {CHAIN_KINDS}")
    if steps < 1 or thin < 1:
        raise ConfigurationError("steps and thin must be >= 1")
    state = make_chain_state(cfg, purpose=f"{kind}")
    oracle = None
    if kind in ("sgld", "sghmc"):
        oracle = make_oracle(obj, data, cfg.batch_size, cfg.seed, purpose=f"{kind}:minibatch")
    rec_steps = [0]
    rec_x = [state.x.copy()]
    rec_v = [state.v.copy()]
    for _ in range(steps):
        if kind == "sghmc":
            state = sghmc_step(state, cfg, oracle)
        elif kind == "exact_sghmc":
            state = exact_sghmc_step(state, cfg, obj, data)
        else:
            state = sgld_step(state, cfg, oracle)
        if state.step % thin == 0:
            rec_steps.append(state.step)
            rec_x.append(state.x.copy())
            rec_v.append(state.v.copy())
    return Trajectory(
        steps=np.asarray(rec_steps),
        xs=np.asarray(rec_x),
        vs=np.asarray(rec_v),
        thin=thin,
        config=cfg,
        kind=kind,
    )


def coupled_run(
    kind,
    cfg_a: SamplerConfig,
    cfg_b: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    steps: int,
    thin: int = 100,
):
    """Run two chains on common randomness and record their separation.

    ``kind`` is a single chain kind or a pair ``(kind_a, kind_b)``. The two
    chains share one Gaussian stream in lockstep; a minibatch index stream is
    shared when both chains consume minibatches of equal size. They may
    differ in init, step size, or gradient mode.

    Returns ``(traj_a, traj_b, distances)`` where ``distances`` is an array
    of rows ``(step, |x_a - x_b|, |v_a - v_b|)`` at each thinned step.
    """
    kind_a, kind_b = (kind, kind) if isinstance(kind, str) else kind
    for k in (kind_a, kind_b):
        if k not in CHAIN_KINDS:
            raise ConfigurationError(f"unknown chain kind {k!r}")
    if cfg_a.dim != cfg_b.dim:
        raise ConfigurationError("coupled chains must share the dimension")
    noise = derive_stream(cfg_a.seed, "coupled:noise")
    init_a = derive_stream(cfg_a.seed, "coupled:init", 0)
    init_b = derive_stream(cfg_b.seed, "coupled:init", 1)
    xa, va = cfg_a.init.sample(cfg_a.dim, init_a)
    xb, vb = cfg_b.init.sample(cfg_b.dim, init_b)

    mb_a = kind_a in ("sgld", "sghmc")
    mb_b = kind_b in ("sgld", "sghmc")
    share_idx = (
        mb_a and mb_b and cfg_a.batch_size == cfg_b.batch_size and cfg_a.batch_size is not None
    )
    idx_shared = derive_stream(cfg_a.seed, "coupled:minibatch") if share_idx else None
    idx_a = derive_stream(cfg_a.seed, "coupled:minibatch", 1) if (mb_a and not share_idx) else None
    idx_b = derive_stream(cfg_b.seed, "coupled:minibatch", 2) if (mb_b and not share_idx) else None

    def gradient(kind_k, cfg_k, x, idx_rng):
        if kind_k == "exact_sghmc" or cfg_k.batch_size is None:
            return empirical_gradient(x, obj, data)
        idx = idx_rng.integers(0, data.n, size=(1, cfg_k.batch_size))
        return minibatch_gradient_rows(x[None, :], obj, data, idx)[0]

    rec = [(0, float(np.linalg.norm(xa - xb)), float(np.linalg.norm(va - vb)))]
    ra = [(0, xa.copy(), va.copy())]
    rb = [(0, xb.copy(), vb.copy())]
    for k in range(1, steps + 1):
        xi = noise.standard_normal(cfg_a.dim)
        if share_idx:
            idx = idx_shared.integers(0, data.n, size=(1, cfg_a.batch_size)).repeat(2, axis=0)
            ga, gb = minibatch_gradient_rows(np.stack([xa, xb]), obj, data, idx)
        else:
            ga = gradient(kind_a, cfg_a, xa, idx_a)
            gb = gradient(kind_b, cfg_b, xb, idx_b)
        if kind_a == "sgld":
            scale_a = 0.0 if math.isinf(cfg_a.beta) else math.sqrt(2 * cfg_a.lam / cfg_a.beta)
            xa = xa - cfg_a.lam * ga + scale_a * xi
        else:
            va_new = va - cfg_a.lam * (cfg_a.gamma * va + ga) + cfg_a.noise_scale * xi
            xa = xa + cfg_a.lam * va
            va = va_new
        if kind_b == "sgld":
            scale_b = 0.0 if math.isinf(cfg_b.beta) else math.sqrt(2 * cfg_b.lam / cfg_b.beta)
            xb = xb - cfg_b.lam * gb + scale_b * xi
        else:
            vb_new = vb - cfg_b.lam * (cfg_b.gamma * vb + gb) + cfg_b.noise_scale * xi
            xb = xb + cfg_b.lam * vb
            vb = vb_new
        _check_finite(xa, va, k)
        _check_finite(xb, vb, k)
        if k % thin == 0:
            rec.append((k, float(np.linalg.norm(xa - xb)), float(np.linalg.norm(va - vb))))
            ra.append((k, xa.copy(), va.copy()))
            rb.append((k, xb.copy(), vb.copy()))

    def pack(rows, cfg_k, kind_k):
        return Trajectory(
            steps=np.asarray([r[0] for r in rows]),
            xs=np.asarray([r[1] for r in rows]),
            vs=np.asarray([r[2] for r in rows]),
            thin=thin,
            config=cfg_k,
            kind=kind_k,
        )

    return pack(ra, cfg_a, kind_a), pack(rb, cfg_b, kind_b), np.asarray(rec)


# ---------------------------------------------------------------------------
# Vectorized ensembles (replicas advance together as (R, d) blocks)
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Replica-averaged series, running suprema, and pooled tail moments."""

    steps: np.ndarray
    series: dict
    running_max: dict
    tail_mean_x: np.ndarray
    tail_var_x: np.ndarray
    tail_mean_v: np.ndarray
    tail_var_v: np.ndarray
    X: np.ndarray
    V: np.ndarray
    tail_samples: int = 0


def ensemble_run(
    kind: str,
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    steps: int,
    replicas: int,
    record_every: int = 100,
    burn_in: int = 0,
    functionals: Optional[Mapping[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]] = None,
    purpose: str = "ensemble",
) -> EnsembleResult:
    """Advance ``replicas`` independent chains in lockstep.

    ``functionals`` maps names to callables ``(X, V) -> (R,)``; for each the
    replica mean is recorded every ``record_every`` steps and its running
    maximum over *all* steps is tracked (that is the empirical sup used by
    the moment-bound checks). Per-coordinate first and second moments of x
    and v are pooled over replicas and steps after ``burn_in``.
    """
    if kind not in CHAIN_KINDS:
        raise ConfigurationError(f"unknown chain kind {kind!r}")
    functionals = dict(functionals or {})
    init_rng = derive_stream(cfg.seed, f"{purpose}:init")
    noise_rng = derive_stream(cfg.seed, f"{purpose}:noise")
    X, V = cfg.init.sample(cfg.dim, init_rng, size=replicas)
    idx_rng = None
    if kind in ("sgld", "sghmc") and cfg.batch_size is not None:
        idx_rng = derive_stream(cfg.seed, f"{purpose}:minibatch")

    lam, gamma = cfg.lam, cfg.gamma
    noise = cfg.noise_scale
    sgld_noise = 0.0 if math.isinf(cfg.beta) else math.sqrt(2.0 * lam / cfg.beta)

    rec_steps = [0]
    series = {name: [float(np.mean(fn(X, V)))] for name, fn in functionals.items()}
    running_max = {name: series[name][0] for name in functionals}

    sum_x = np.zeros(cfg.dim)
    sum_x2 = np.zeros(cfg.dim)
    sum_v = np.zeros(cfg.dim)
    sum_v2 = np.zeros(cfg.dim)
    tail_n = 0

    for k in range(1, steps + 1):
        if idx_rng is not None:
            idx = idx_rng.integers(0, data.n, size=(replicas, cfg.batch_size))
            G = minibatch_gradient_rows(X, obj, data, idx)
        else:
            G = batch_empirical_gradient(X, obj, data)
        xi = noise_rng.standard_normal((replicas, cfg.dim))
        if kind == "sgld":
            X = X - lam * G + sgld_noise * xi
        else:
            V_new = V - lam * (gamma * V + G) + noise * xi
            X = X + lam * V
            V = V_new
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(V)):
            raise DivergenceError(f"ensemble diverged at step {k}", step=k)
        for name, fn in functionals.items():
            val = float(np.mean(fn(X, V)))
            if val > running_max[name]:
                running_max[name] = val
            if k % record_every == 0:
                series[name].append(val)
        if k % record_every == 0:
            rec_steps.append(k)
        if k > burn_in:
            sum_x += X.sum(axis=0)
            sum_x2 += (X * X).sum(axis=0)
            sum_v += V.sum(axis=0)
            sum_v2 += (V * V).sum(axis=0)
            tail_n += replicas

    if tail_n > 0:
        mean_x = sum_x / tail_n
        var_x = sum_x2 / tail_n - mean_x**2
        mean_v = sum_v / tail_n
        var_v = sum_v2 / tail_n - mean_v**2
    else:
        mean_x = var_x = mean_v = var_v = np.full(cfg.dim, np.nan)
    return EnsembleResult(
        steps=np.asarray(rec_steps),
        series={k: np.asarray(v) for k, v in series.items()},
        running_max=running_max,
        tail_mean_x=mean_x,
        tail_var_x=var_x,
        tail_mean_v=mean_v,
        tail_var_v=var_v,
        X=X,
        V=V,
        tail_samples=tail_n,
    )


@dataclass
class CoupledEnsembleResult:
    steps: np.ndarray
    mean_sep: np.ndarray  # replica mean of sqrt(|dx|^2 + |dv|^2)
    rms_sep: np.ndarray   # sqrt of replica mean of (|dx|^2 + |dv|^2)
    rms_dx: np.ndarray
    rms_dv: np.ndarray


def coupled_ensemble_run(
    kind: str,
    cfg_a: SamplerConfig,
    cfg_b: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    steps: int,
    replicas: int,
    record_every: int = 10,
    purpose: str = "coupled-ensemble",
) -> CoupledEnsembleResult:
    """Replicated synchronous coupling of two chains of the same kind.

    Both chains see the same Gaussian draws (and the same minibatch indices
    when minibatching); the replica-averaged separation series is the
    empirical contraction diagnostic.
    """
    if kind not in ("sghmc", "exact_sghmc", "sgld"):
        raise ConfigurationError(f"unknown chain kind {kind!r}")
    if cfg_a.dim != cfg_b.dim:
        raise ConfigurationError("coupled chains must share the dimension")
    noise_rng = derive_stream(cfg_a.seed, f"{purpose}:noise")
    Xa, Va = cfg_a.init.sample(cfg_a.dim, derive_stream(cfg_a.seed, f"{purpose}:init", 0), size=replicas)
    Xb, Vb = cfg_b.init.sample(cfg_b.dim, derive_stream(cfg_b.seed, f"{purpose}:init", 1), size=replicas)
    minibatch = kind in ("sgld", "sghmc") and cfg_a.batch_size is not None
    idx_rng = derive_stream(cfg_a.seed, f"{purpose}:minibatch") if minibatch else None

    def grads(X, idx):
        if idx is None:
            return batch_empirical_gradient(X, obj, data)
        return minibatch_gradient_rows(X, obj, data, idx)

    def record(k, out):
        dx2 = np.sum((Xa - Xb) ** 2, axis=1)
        dv2 = np.sum((Va - Vb) ** 2, axis=1)
        out.append(
            (
                k,
                float(np.mean(np.sqrt(dx2 + dv2))),
                float(np.sqrt(np.mean(dx2 + dv2))),
                float(np.sqrt(np.mean(dx2))),
                float(np.sqrt(np.mean(dv2))),
            )
        )

    rows = []
    record(0, rows)
    for k in range(1, steps + 1):
        xi = noise_rng.standard_normal((replicas, cfg_a.dim))
        idx = idx_rng.integers(0, data.n, size=(replicas, cfg_a.batch_size)) if minibatch else None
        Ga = grads(Xa, idx)
        Gb = grads(Xb, idx)
        if kind == "sgld":
            sa = 0.0 if math.isinf(cfg_a.beta) else math.sqrt(2 * cfg_a.lam / cfg_a.beta)
            sb = 0.0 if math.isinf(cfg_b.beta) else math.sqrt(2 * cfg_b.lam / cfg_b.beta)
            Xa = Xa - cfg_a.lam * Ga + sa * xi
            Xb = Xb - cfg_b.lam * Gb + sb * xi
        else:
            Va_new = Va - cfg_a.lam * (cfg_a.gamma * Va + Ga) + cfg_a.noise_scale * xi
            Xa = Xa + cfg_a.lam * Va
            Va = Va_new
            Vb_new = Vb - cfg_b.lam * (cfg_b.gamma * Vb + Gb) + cfg_b.noise_scale * xi
            Xb = Xb + cfg_b.lam * Vb
            Vb = Vb_new
        if not all(np.all(np.isfinite(A)) for A in (Xa, Va, Xb, Vb)):
            raise DivergenceError(f"coupled ensemble diverged at step {k}", step=k)
        if k % record_every == 0:
            record(k, rows)
    arr = np.asarray(rows)
    return CoupledEnsembleResult(
        steps=arr[:, 0].astype(int),
        mean_sep=arr[:, 1],
        rms_sep=arr[:, 2],
        rms_dx=arr[:, 3],
        rms_dv=arr[:, 4],
    )


def brownian_coupled_distance(
    cfg: SamplerConfig,
    lambda_ref: float,
    obj: ObjectiveSpec,
    data: Dataset,
    t_end: float,
    replicas: int,
    purpose: str = "rate",
) -> float:
    """Terminal RMS distance between a chain at cfg.lam and a finer reference.

    Both chains are driven by one Brownian path: the reference at step size
    ``lambda_ref`` consumes the fine increments, the coarse chain at
    ``cfg.lam`` consumes their sums over each coarse interval, so the pair is
    synchronously coupled at matched physical time. ``cfg.lam`` must be an
    integer multiple of ``lambda_ref``. The coarse chain uses minibatch
    gradients when ``cfg.batch_size`` is set; the reference always uses the
    full dataset.

    Returns sqrt(mean over replicas of |dx|^2 + |dv|^2) at time ``t_end``.
    """
    ratio = cfg.lam / lambda_ref
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9:
        raise ConfigurationError("cfg.lam must be an integer multiple of lambda_ref")
    n_coarse = int(round(t_end / cfg.lam))
    if n_coarse < 1:
        raise ConfigurationError("t_end too short for one coarse step")
    noise_rng = derive_stream(cfg.seed, f"{purpose}:noise")
    init_rng = derive_stream(cfg.seed, f"{purpose}:init")
    X, V = cfg.init.sample(cfg.dim, init_rng, size=replicas)
    Xr, Vr = X.copy(), V.copy()
    minibatch = cfg.batch_size is not None
    idx_rng = derive_stream(cfg.seed, f"{purpose}:minibatch") if minibatch else None

    if math.isinf(cfg.beta):
        amp = 0.0
    else:
        amp = math.sqrt(2.0 * cfg.gamma / cfg.beta)
    sqrt_lref = math.sqrt(lambda_ref)

    for k in range(1, n_coarse + 1):
        xi_fine = noise_rng.standard_normal((r, replicas, cfg.dim))
        # reference: r fine steps, each with Brownian increment sqrt(l_ref) xi_j
        for j in range(r):
            G = batch_empirical_gradient(Xr, obj, data)
            Vr_new = Vr - lambda_ref * (cfg.gamma * Vr + G) + amp * sqrt_lref * xi_fine[j]
            Xr = Xr + lambda_ref * Vr
            Vr = Vr_new
        # coarse: one step with the summed increment
        dB = sqrt_lref * xi_fine.sum(axis=0)
        if minibatch:
            idx = idx_rng.integers(0, data.n, size=(replicas, cfg.batch_size))
            G = minibatch_gradient_rows(X, obj, data, idx)
        else:
            G = batch_empirical_gradient(X, obj, data)
        V_new = V - cfg.lam * (cfg.gamma * V + G) + amp * dB
        X = X + cfg.lam * V
        V = V_new
        if not all(np.all(np.isfinite(A)) for A in (X, V, Xr, Vr)):
            raise DivergenceError(f"rate coupling diverged at coarse step {k}", step=k)
    d2 = np.sum((X - Xr) ** 2, axis=1) + np.sum((V - Vr) ** 2, axis=1)
    return float(np.sqrt(np.mean(d2)))
