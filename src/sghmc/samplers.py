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

Every runner steps (R, d) blocks of replicas, and a single chain is an
ensemble of one, a (1, d) block whose row is sliced out only where a
Trajectory records it; so ``run_chain`` is bit-equal to
``ensemble_run(replicas=1)`` with the same purpose. The update is written
once, in the in-place Euler kernel ``_euler``. Every runner steps through
``_advance``: it draws the shared Gaussian noise in blocks capped by
``_BLOCK_BYTES`` (the same draws, in the same order, as one per step), and
each chain steps through one preallocated history buffer. ``_move`` takes
one step of every chain, drawing minibatch indices once per step and index
stream, with gradients from ``batch_empirical_gradient`` /
``minibatch_gradient_rows``; the reference chain of
``brownian_coupled_distance`` takes several fine steps per step. One
``isfinite`` per chain and step guards the run, and ``_reject`` stops a
non-finite one: with EvaluationError naming the sample where grad_f failed
at a finite position below the certificate's overflow scale, else with
DivergenceError. Each finished block goes to the runner's recorder, which
reads its rows; results are copies, never views of a buffer. The
single-step functions (``sghmc_step`` and the like) keep their (d,) states.

Coupled runs advance two chains on shared randomness: the realized distance
between them upper-bounds the Wasserstein distance between their laws, which
is the desk-scale route to checking contraction and discretization rates.
Every stream is derived from the config seed via :mod:`.rng`, so runs are
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .gradient_oracle import MinibatchOracle, sample_gradient
from .objectives import (
    Dataset,
    ObjectiveSpec,
    _reject_nonfinite_gradient,
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
        if self.init.kind == "point" and any(
                a is not None and np.shape(a) != (self.dim,) for a in (self.init.x0, self.init.v0)):
            raise ConfigurationError("point initial law has wrong dimension")

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
# The Euler kernel and the stepping loop
# ---------------------------------------------------------------------------

# Byte cap of the blocks a run steps through at a time: the shared noise and,
# per chain, its scaled increments and its (x, v) history. A block holds at
# least one step, whatever the cap.
_BLOCK_BYTES = 1 << 16


def _euler(kind, X, V, G, inc, lam, gamma, out) -> None:
    """One Euler step of an (R, d) block, or of one (d,) state, written to
    ``out = (X', V')``, which must not overlap X or V.

    Momentum kinds: V' = V - lam (gamma V + G) + inc and X' = X + lam V
    (pre-update momentum). ``"sgld"``: X' = X - lam G + inc and V' = V.
    ``inc`` is the scaled Gaussian increment ``c * xi``. In-place ufuncs
    keep the operation order of those formulas, so the bits are theirs.
    """
    Xn, Vn = out[0], out[1]
    if kind == "sgld":
        np.multiply(G, lam, out=Xn)
        np.subtract(X, Xn, out=Xn)
        Xn += inc
        Vn[...] = V
        return
    np.multiply(V, lam, out=Xn)
    Xn += X
    np.multiply(V, gamma, out=Vn)
    Vn += G
    Vn *= lam
    np.subtract(V, Vn, out=Vn)
    Vn += inc


def _noise(kind, cfg) -> float:
    """Gaussian coefficient of one ``kind`` step at cfg.lam."""
    if kind != "sgld":
        return cfg.noise_scale
    return 0.0 if math.isinf(cfg.beta) else math.sqrt(2.0 * cfg.lam / cfg.beta)


class _Chain:
    """An (R, d) block of replicas (a single chain is (1, d)), stepped by
    :func:`_advance`.

    ``lam`` and ``c`` (noise coefficient) default to cfg's. A minibatch chain
    draws indices from ``idx_rng``, shared by the chains holding the same
    generator. A chain takes ``sub`` Euler steps per loop step, one on each
    of the step's noise draws; with ``fold`` set it takes one step on their
    sum times ``fold``. ``X`` and ``V`` are the state before and after the
    run; during it the state lives in ``_advance``'s history buffer ``H``.
    """

    def __init__(self, kind, cfg, X, V, idx_rng=None, lam=None, c=None, sub=1, fold=None):
        self.kind, self.cfg, self.X, self.V = kind, cfg, X, V
        minibatch = kind != "exact_sghmc" and cfg.batch_size is not None
        self.idx_rng = idx_rng if minibatch else None
        self.lam = cfg.lam if lam is None else lam
        self.c = _noise(kind, cfg) if c is None else c
        self.sub, self.fold = sub, fold
        self.prev = None

    def increments(self, xi):
        """The scaled increments (steps, sub, R, d) of a (steps, fine, R, d) noise block."""
        if self.fold is None:
            return self.c * xi
        return self.c * (self.fold * xi.sum(axis=1, keepdims=True))


def _move(chains, incs, j, obj, data) -> None:
    """Step each chain from row j of its history to row j + 1, with one index
    draw per minibatch stream; ``prev`` keeps the position and indices of its
    last Euler step."""
    rng = idx = None
    for ch, inc in zip(chains, incs):
        if ch.idx_rng is not rng:
            rng = ch.idx_rng
            idx = None if rng is None else rng.integers(
                0, data.n, size=(ch.H.shape[2], ch.cfg.batch_size))
        src = ch.H[j]
        for i in range(ch.sub):
            # substeps alternate between two scratch states, so the
            # position each step leaves stays intact for _reject
            dst = ch.H[j + 1] if i == ch.sub - 1 else ch.scratch[i % 2]
            X = src[0]
            if idx is None:
                G = batch_empirical_gradient(X, obj, data)
            else:
                G = minibatch_gradient_rows(X, obj, data, idx)
            _euler(ch.kind, X, src[1], G, inc[j, i], ch.lam, ch.cfg.gamma, dst)
            src = dst
        ch.prev = (X, idx)


def _reject(chains, obj, data, message, step) -> None:
    """Stop a run whose state at ``step`` is not finite: EvaluationError if
    grad_f is non-finite on a sample at a finite position that a chain just
    left, DivergenceError with ``message.format(step)`` otherwise."""
    for ch in chains:
        X, idx = ch.prev
        for i, x in enumerate(X):
            rows = np.arange(data.n) if idx is None else idx[i]
            if np.isfinite(x).all():
                _reject_nonfinite_gradient(x, obj, obj.grad_f(x, data.samples[rows]), rows)
    raise DivergenceError(message.format(step), step=step)


def _advance(chains, obj, data, steps, noise_rng, message="chain diverged at step {}"):
    """The stepping loop of every runner.

    The chains share one Gaussian stream, drawn in blocks of at most
    ``_BLOCK_BYTES`` (with the chains' buffers), so a block's draws are the
    per-step draws in order. Each chain steps through its own history buffer
    ``H`` of shape (block + 1, 2, R, d): row 0 is the state before the block,
    row j the state after its j-th step, checked finite as it is written.
    After each block it yields ``(k0, n)``, the block's first step index
    minus one and its length; the caller's recorder reads rows 1..n of each
    ``H`` before the loop goes on. Once it is exhausted, each chain's ``X``
    and ``V`` hold fresh copies of the final state. A run stopped by an
    error has drawn its whole last block from ``noise_rng``.
    """
    R, d = chains[0].X.shape
    fine = max(ch.sub for ch in chains)
    per_step = 8 * R * d * (fine + sum(ch.sub + 2 for ch in chains))
    block = max(1, min(steps, _BLOCK_BYTES // per_step))
    for ch in chains:
        ch.H = np.empty((block + 1, 2, R, d))
        ch.H[0, 0], ch.H[0, 1] = ch.X, ch.V
        ch.scratch = np.empty((2, 2, R, d)) if ch.sub > 1 else None
    for k0 in range(0, steps, block):
        n = min(block, steps - k0)
        xi = noise_rng.standard_normal((n, fine, R, d))
        incs = [ch.increments(xi) for ch in chains]
        for j in range(n):
            _move(chains, incs, j, obj, data)
            for ch in chains:
                if not np.isfinite(ch.H[j + 1]).all():
                    _reject(chains, obj, data, message, k0 + j + 1)
        yield k0, n
        for ch in chains:
            ch.H[0] = ch.H[n]
    for ch in chains:
        ch.X, ch.V = ch.H[0, 0].copy(), ch.H[0, 1].copy()
        ch.H = ch.scratch = None


def _recorded(k0, n, every):
    """The steps k0 + 1 .. k0 + n that are multiples of ``every``."""
    return range(k0 + every - k0 % every, k0 + n + 1, every)


def _traced(chains, obj, data, steps, thin, noise_rng):
    """Advance the (1, d) chains; a Trajectory of each at step 0 and every thin-th step."""
    steps_rec = [0]
    rows = [[np.stack([ch.X, ch.V], axis=1)] for ch in chains]
    for k0, n in _advance(chains, obj, data, steps, noise_rng):
        ks = _recorded(k0, n, thin)
        steps_rec.extend(ks)
        for ch, r in zip(chains, rows):
            r.append(ch.H[ks.start - k0:n + 1:thin, :, 0].copy())
    out = []
    for ch, r in zip(chains, rows):
        xv = np.concatenate(r)
        out.append(Trajectory(np.asarray(steps_rec), xv[:, 0].copy(), xv[:, 1].copy(),
                              thin, ch.cfg, ch.kind))
    return out


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def _step(kind, state, cfg, g, xi) -> ChainState:
    if xi is None:
        xi = state.rng.standard_normal(cfg.dim)
    out = np.empty((2, cfg.dim))
    _euler(kind, state.x, state.v, g, _noise(kind, cfg) * xi, cfg.lam, cfg.gamma, out)
    if not np.isfinite(out).all():
        raise DivergenceError(f"chain diverged at step {state.step + 1}", step=state.step + 1)
    return ChainState(x=out[0], v=out[1], step=state.step + 1, rng=state.rng)


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
    return _step("sghmc", state, cfg, sample_gradient(oracle, state.x), xi)


def exact_sghmc_step(
    state: ChainState,
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    xi: Optional[np.ndarray] = None,
) -> ChainState:
    """Momentum Euler step with the full-dataset gradient."""
    return _step("exact_sghmc", state, cfg, empirical_gradient(state.x, obj, data), xi)


def sgld_step(
    state: ChainState,
    cfg: SamplerConfig,
    oracle: MinibatchOracle,
    xi: Optional[np.ndarray] = None,
) -> ChainState:
    """One overdamped Euler step: x' = x - lam g(x) + sqrt(2 lam / beta) xi."""
    return _step("sgld", state, cfg, sample_gradient(oracle, state.x), xi)


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
    _check_sizes(thin=thin)
    if noise_rng is None:
        noise_rng = derive_stream(cfg.seed, "integrate:noise")
    if init is None:
        x, v = cfg.init.sample(cfg.dim, derive_stream(cfg.seed, "integrate:init"), size=1)
    else:
        x, v = (np.array(init[0], dtype=float, ndmin=2), np.array(init[1], dtype=float, ndmin=2))
    nsteps = int(round(t_end / substep))
    if math.isinf(cfg.beta):
        noise = 0.0
    else:
        noise = math.sqrt(2.0 * cfg.gamma * time_scale * substep / cfg.beta)
    kind = "underdamped" if time_scale == 1.0 else "auxiliary"
    chain = _Chain(kind, cfg, x, v, lam=time_scale * substep, c=noise)
    return _traced([chain], obj, data, nsteps, thin, noise_rng)[0]


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
    _check_sizes(steps=steps, thin=thin)
    x, v = cfg.init.sample(cfg.dim, derive_stream(cfg.seed, f"{kind}:init"), size=1)
    chain = _Chain(kind, cfg, x, v, derive_stream(cfg.seed, f"{kind}:minibatch"))
    return _traced([chain], obj, data, steps, thin, derive_stream(cfg.seed, f"{kind}:noise"))[0]


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
    _check_sizes(steps=steps, thin=thin)
    noise = derive_stream(cfg_a.seed, "coupled:noise")
    xa, va = cfg_a.init.sample(cfg_a.dim, derive_stream(cfg_a.seed, "coupled:init", 0), size=1)
    xb, vb = cfg_b.init.sample(cfg_b.dim, derive_stream(cfg_b.seed, "coupled:init", 1), size=1)
    a = _Chain(kind_a, cfg_a, xa, va, derive_stream(cfg_a.seed, "coupled:minibatch", 1))
    b = _Chain(kind_b, cfg_b, xb, vb, derive_stream(cfg_b.seed, "coupled:minibatch", 2))
    if a.idx_rng is not None and b.idx_rng is not None and cfg_a.batch_size == cfg_b.batch_size:
        a.idx_rng = b.idx_rng = derive_stream(cfg_a.seed, "coupled:minibatch")
    ta, tb = _traced([a, b], obj, data, steps, thin, noise)
    distances = np.asarray([
        (k, float(np.linalg.norm(xa - xb)), float(np.linalg.norm(va - vb)))
        for k, xa, xb, va, vb in zip(ta.steps, ta.xs, tb.xs, ta.vs, tb.vs)
    ])
    return ta, tb, distances


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


def _check_sizes(**sizes) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


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
    _check_sizes(steps=steps, replicas=replicas, record_every=record_every)
    functionals = dict(functionals or {})
    init_rng = derive_stream(cfg.seed, f"{purpose}:init")
    noise_rng = derive_stream(cfg.seed, f"{purpose}:noise")
    X, V = cfg.init.sample(cfg.dim, init_rng, size=replicas)
    chain = _Chain(kind, cfg, X, V, derive_stream(cfg.seed, f"{purpose}:minibatch"))

    rec_steps = [0]
    series = {name: [float(np.mean(fn(X, V)))] for name, fn in functionals.items()}
    running_max = {name: series[name][0] for name in functionals}
    # [sum, sum of squares] x [x, v], each summed over replicas, then over
    # steps in step order
    tail_sums = np.zeros((2, 2, cfg.dim))
    tail_n = 0

    for k0, n in _advance([chain], obj, data, steps, noise_rng, "ensemble diverged at step {}"):
        block = chain.H[1:n + 1]
        ks = _recorded(k0, n, record_every)
        rec_steps.extend(ks)
        for name, fn in functionals.items():
            vals = [float(np.mean(fn(X, V))) for X, V in block]
            running_max[name] = max(running_max[name], *vals)
            series[name].extend(vals[k - k0 - 1] for k in ks)
        t = max(0, burn_in - k0)  # the block's first row past burn-in
        if t < n:
            tail = block[t:]
            sums = np.stack([tail.sum(axis=2), (tail * tail).sum(axis=2)], axis=1)
            sums[0] += tail_sums
            tail_sums = np.add.accumulate(sums, axis=0)[-1]
            tail_n += (n - t) * replicas

    if tail_n > 0:
        (sum_x, sum_v), (sum_x2, sum_v2) = tail_sums
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
        X=chain.X,
        V=chain.V,
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
    when minibatching, so their batch sizes must agree); the
    replica-averaged separation series is the empirical contraction
    diagnostic.
    """
    if kind not in CHAIN_KINDS:
        raise ConfigurationError(f"unknown chain kind {kind!r}")
    if cfg_a.dim != cfg_b.dim:
        raise ConfigurationError("coupled chains must share the dimension")
    if cfg_a.batch_size != cfg_b.batch_size:
        raise ConfigurationError("coupled chains must share the batch size")
    _check_sizes(steps=steps, replicas=replicas, record_every=record_every)
    noise_rng = derive_stream(cfg_a.seed, f"{purpose}:noise")
    Xa, Va = cfg_a.init.sample(cfg_a.dim, derive_stream(cfg_a.seed, f"{purpose}:init", 0), size=replicas)
    Xb, Vb = cfg_b.init.sample(cfg_b.dim, derive_stream(cfg_b.seed, f"{purpose}:init", 1), size=replicas)
    idx_rng = derive_stream(cfg_a.seed, f"{purpose}:minibatch")
    a = _Chain(kind, cfg_a, Xa, Va, idx_rng)
    b = _Chain(kind, cfg_b, Xb, Vb, idx_rng)

    def separation(k, A, B):
        dx2 = np.sum((A[0] - B[0]) ** 2, axis=1)
        dv2 = np.sum((A[1] - B[1]) ** 2, axis=1)
        return (
            k,
            float(np.mean(np.sqrt(dx2 + dv2))),
            float(np.sqrt(np.mean(dx2 + dv2))),
            float(np.sqrt(np.mean(dx2))),
            float(np.sqrt(np.mean(dv2))),
        )

    rows = [separation(0, (Xa, Va), (Xb, Vb))]
    for k0, n in _advance([a, b], obj, data, steps, noise_rng,
                          "coupled ensemble diverged at step {}"):
        rows.extend(separation(k, a.H[k - k0], b.H[k - k0])
                    for k in _recorded(k0, n, record_every))
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
    if not lambda_ref > 0:
        raise ConfigurationError(f"lambda_ref must be > 0, got {lambda_ref}")
    ratio = cfg.lam / lambda_ref
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9:
        raise ConfigurationError("cfg.lam must be an integer multiple of lambda_ref")
    n_coarse = int(round(t_end / cfg.lam))
    if n_coarse < 1:
        raise ConfigurationError("t_end too short for one coarse step")
    _check_sizes(replicas=replicas)
    noise_rng = derive_stream(cfg.seed, f"{purpose}:noise")
    init_rng = derive_stream(cfg.seed, f"{purpose}:init")
    X, V = cfg.init.sample(cfg.dim, init_rng, size=replicas)
    if math.isinf(cfg.beta):
        amp = 0.0
    else:
        amp = math.sqrt(2.0 * cfg.gamma / cfg.beta)
    sqrt_lref = math.sqrt(lambda_ref)
    # reference: r fine steps, each with Brownian increment sqrt(l_ref) xi_j;
    # coarse: one step with the summed increment
    ref = _Chain("exact_sghmc", cfg, X, V, lam=lambda_ref, c=amp * sqrt_lref, sub=r)
    coarse = _Chain("sghmc", cfg, X, V, derive_stream(cfg.seed, f"{purpose}:minibatch"), c=amp,
                    fold=sqrt_lref)
    for _ in _advance([ref, coarse], obj, data, n_coarse, noise_rng,
                      "rate coupling diverged at coarse step {}"):
        pass
    d2 = np.sum((coarse.X - ref.X) ** 2, axis=1) + np.sum((coarse.V - ref.V) ** 2, axis=1)
    return float(np.sqrt(np.mean(d2)))
