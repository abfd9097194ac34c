"""Discrete Langevin dynamics, plus coupled runs.

The runners step the chain kinds of ``CHAIN_KINDS`` on one empirical risk,
by minibatches of ``batch_size`` samples or, at ``batch_size=None``, by the
full-dataset gradient:

* ``"sgld"``  -- overdamped Euler step,
* ``"sghmc"`` -- underdamped (momentum) Euler step.

The momentum update uses the pre-update momentum in the position update
(``x' = x + lam * v``); this ordering is observable and pinned by tests.

Every runner steps (R, d) blocks of replicas, and a single chain is an
ensemble of one, a (1, d) block whose row is sliced out only where a
Trajectory records it; so ``run_chain`` is bit-equal to
``ensemble_run(replicas=1)`` with the same purpose. The update is written
once, in the in-place Euler kernel that ``_kernel`` binds to each chain's
step size and friction. Every runner steps through ``_advance``: it draws
the shared Gaussian noise, and each minibatch stream's indices, in blocks
capped by ``_BLOCK_BYTES`` (256 KB; the same draws, in the same order, as
one per step), and each chain steps through one preallocated history
buffer, whose row views it binds once per run and counts in the cap.
``_sweep`` steps one chain through a block in one loop over those views, one
Euler step per noise draw, on the block's index draws of its stream and with
the gradient evaluator that ``_gradient`` binds once per run. Each block is
checked finite once per chain; one that fails is replayed step by step, all
chains at each step, and ``_reject`` stops the run at its first non-finite
state: with EvaluationError naming the sample where grad_f failed at a
finite position below the certificate's overflow scale, else with
DivergenceError. The loop, hooks included, and the runners that read its
states ignore numpy's overflow and invalid warnings: a runaway state ends as
a value or a DivergenceError. Each finished block goes to the runner's
recorder, which reads its rows; results are copies, never views of a buffer,
which ``_advance`` frees on every exit. ``ensemble_run`` calls its one
functionals callable once per block, on the block's stacked rows, so it must
treat rows independently.

Coupled runs advance two chains on shared randomness, as one paired (2R, d)
block when they step alike: the realized distance between them upper-bounds
the Wasserstein distance between their laws, which is the desk-scale route
to checking contraction and discretization rates. A rate study is one
coupling, ``_rate_coupling``: each step size, an integer multiple r of the
reference's and a divisor of t_end, has its chain run first on the normalized
r-fold sums of one Brownian path; one fine Euler chain, the continuous-time
reference, then runs on the path itself. A point whose chain failed, or
whose reference did, gets a DivergenceError; the others, their distance.

Every stream is derived from a config seed via :mod:`.rng`, by one rule, so
runs are reproducible bit-for-bit. A run has a purpose ``p``: the kind for
``run_chain``, ``purpose`` for ``ensemble_run``, ``"coupled"`` for
``coupled_run``, ``"coupled-ensemble"`` for ``coupled_ensemble_run`` and
``"rate"`` for ``_rate_coupling``. Chain i (a, then b) draws its
init from ``(cfg_i.seed, "p:init", i)``. A minibatch chain draws its indices
from ``(cfg_i.seed, "p:minibatch", i + 1)`` in a coupled pair; a chain alone,
and two minibatch chains of one batch size, draw them from index 0 of
cfg_a's seed. The noise comes from ``(cfg_a.seed, "p:noise")``. ``_chains``
builds every chain of every runner by this rule.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (ConfigurationError, DivergenceError, count, index, nonnegative, number,
                     positive, real)
from .objectives import (
    Dataset,
    ObjectiveSpec,
    _reject_nonfinite_gradient,
    batch_empirical_gradient,
    minibatch_gradient_rows,
)
from .rng import derive_stream

CHAIN_KINDS = ("sgld", "sghmc")


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
        object.__setattr__(self, "mean", real(self.mean, "mean"))
        object.__setattr__(self, "scale", positive(self.scale, "scale"))
        if not all(np.isfinite(a).all() for a in (self.x0, self.v0) if a is not None):
            raise ConfigurationError("initial law has a non-finite x0 or v0")

    def sample(self, dim: int, rng: np.random.Generator, size: int):
        """Draw ``size`` stacked replicas (x, v), each of shape (size, dim)."""
        if self.kind == "point":
            x0 = np.zeros(dim) if self.x0 is None else np.asarray(self.x0, dtype=float)
            v0 = np.zeros(dim) if self.v0 is None else np.asarray(self.v0, dtype=float)
            if x0.shape != (dim,) or v0.shape != (dim,):
                raise ConfigurationError("point initial law has wrong dimension")
            return np.tile(x0, (size, 1)), np.tile(v0, (size, 1))
        x = self.mean + self.scale * rng.standard_normal((size, dim))
        v = self.mean + self.scale * rng.standard_normal((size, dim))
        return x, v


def point_init(x0, v0) -> InitialLaw:
    return InitialLaw(kind="point", x0=np.asarray(x0, dtype=float), v0=np.asarray(v0, dtype=float))


def gaussian_init(mean: float = 0.0, scale: float = 1.0) -> InitialLaw:
    return InitialLaw(kind="gaussian", mean=mean, scale=scale)


@dataclass(frozen=True)
class SamplerConfig:
    """Step size, friction, inverse temperature, batch size, dimension, seed, init.

    ``beta = inf`` is the zero-noise limit (noise coefficient 0).
    ``batch_size = None`` selects full-dataset gradients for either chain kind.
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
        beta = number(self.beta, "beta")
        if beta != math.inf:  # the zero-noise limit
            positive(beta, "beta")
        converted = {"lam": nonnegative(self.lam, "lam"), "gamma": nonnegative(self.gamma, "gamma"),
                     "beta": beta, "dim": count(self.dim, "dim"), "seed": index(self.seed, "seed"),
                     "batch_size": None if self.batch_size is None
                     else count(self.batch_size, "batch size")}
        for name, value in converted.items():
            object.__setattr__(self, name, value)
        if self.init.kind == "point" and any(
                a is not None and np.shape(a) != (self.dim,) for a in (self.init.x0, self.init.v0)):
            raise ConfigurationError("point initial law has wrong dimension")


@dataclass
class Trajectory:
    """Thinned record of a run: states at step indices 0, thin, 2*thin, ..."""

    steps: np.ndarray
    xs: np.ndarray
    vs: np.ndarray

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
# per chain, its scaled increments, its (x, v) history, the views of its rows
# and its minibatch indices. A block holds at least one step, whatever the cap.
_BLOCK_BYTES = 1 << 18
# Bytes that the bound views of one history row take, counted per chain and
# step: three views and a tuple, 464 B by sys.getsizeof in CPython 3.11 with
# numpy 2.4, at any (R, d).
_ROW_VIEW_BYTES = 512


def _kernel(kind, lam, gamma):
    """The in-place Euler update of a chain's (R, d) block, bound once per chain:
    ``step(src, dst, G, inc)`` writes the step from ``src`` to ``dst``, rows
    ``(S, X, V)`` of bound views of a (2, R, d) state ``S = (X, V)``, which
    must not overlap.

    ``"sghmc"``: V' = V - lam (gamma V + G) + inc and X' = X + lam V
    (pre-update momentum). ``"sgld"``: X' = X - lam G + inc and V' = V.
    ``inc`` is the scaled Gaussian increment ``c * xi``. In-place ufuncs
    round as those formulas do, so the bits are theirs: two same-shape
    products give lam V and gamma V, and a + b as b + a and a - b as
    a + (-b) are exact. lam, gamma and -lam are 0-d float64 arrays, numpy's
    cheapest scalar operand (it converts a Python float on every call and
    runs its general iterator when an operand broadcasts), and the outputs
    are positional, cheaper than ``out=`` or an in-place operator. G may be
    any array-like: each operation that reads it has a float64 operand that
    is not a Python scalar, so a float32 or list G steps as its float64 copy.
    """
    lam0, gamma0, neg_lam = (np.array(a, dtype=float) for a in (lam, gamma, -float(lam)))
    if kind == "sgld":
        def step(src, dst, G, inc):
            Xn = dst[1]
            np.multiply(G, neg_lam, Xn)
            np.add(Xn, src[1], Xn)
            np.add(Xn, inc, Xn)
            np.copyto(dst[2], src[2])
        return step

    def step(src, dst, G, inc):
        S, Sn, V, Xn, Vn = src[0], dst[0], src[2], dst[1], dst[2]
        np.multiply(V, lam0, Xn)
        np.multiply(V, gamma0, Vn)
        np.add(Vn, G, Vn)
        np.multiply(Vn, neg_lam, Vn)
        np.add(Sn, S, Sn)
        np.add(Vn, inc, Vn)
    return step


def _noise(rate, beta) -> float:
    """Gaussian coefficient sqrt(2 rate / beta) of one step, 0 at beta = inf."""
    return 0.0 if math.isinf(beta) else math.sqrt(2.0 * rate / beta)


class _Chain:
    """An (R, d) block of replicas (a single chain is (1, d)) that
    :func:`_chains` builds and :func:`_advance` steps at cfg's step size and friction.

    A chain that :func:`_chains` gave an ``idx_rng`` draws indices from it,
    shared by the chains holding it. ``c``, the noise coefficient, is cfg's. ``X``
    and ``V`` are the state before and after the run; during it the state
    lives in ``_advance``'s history buffer ``H``, which :func:`_sweep` steps
    through. Its ``copies`` stacked parts step on the same noise and indices.
    """

    def __init__(self, kind, cfg, X, V, idx_rng=None, copies=1):
        self.kind, self.cfg, self.X, self.V, self.copies = kind, cfg, X, V, copies
        self.idx_rng = idx_rng
        self.step = _kernel(kind, cfg.lam, cfg.gamma)
        # the noise rate is gamma * lam for sghmc, lam for sgld
        self.c = _noise(cfg.lam if kind == "sgld" else cfg.gamma * cfg.lam, cfg.beta)

    def increments(self, xi):
        """The scaled increments (steps, copies R, d) of a (steps, R, d) noise block."""
        inc = self.c * xi
        return inc if self.copies == 1 else np.tile(inc, (1, self.copies, 1))


def _chains(kinds, cfgs, replicas, purpose):
    """The chains of a run and its noise stream, by the module's stream rule:
    one chain of ``replicas`` replicas per config, of the kind at its place
    in ``kinds``, for one config or a coupled pair of one dimension. A pair
    that steps alike is one (2R, d) chain of 2 copies."""
    if not isinstance(kinds, (tuple, list)) or len(kinds) != len(cfgs):
        raise ConfigurationError(f"kind must be a chain kind or a pair of them, got {kinds!r}")
    for kind in kinds:
        if kind not in CHAIN_KINDS:
            raise ConfigurationError(f"unknown chain kind {kind!r}; known: {CHAIN_KINDS}")
    if cfgs[-1].dim != cfgs[0].dim:
        raise ConfigurationError("coupled chains must share the dimension")
    batches = [cfg.batch_size for cfg in cfgs]
    shared = None
    if batches[0] is not None and batches.count(batches[0]) == len(cfgs):
        shared = derive_stream(cfgs[0].seed, f"{purpose}:minibatch")
    chains = []
    for i, (kind, cfg) in enumerate(zip(kinds, cfgs)):
        X, V = cfg.init.sample(cfg.dim, derive_stream(cfg.seed, f"{purpose}:init", i), replicas)
        idx_rng = shared
        if cfg.batch_size is not None and shared is None:
            idx_rng = derive_stream(cfg.seed, f"{purpose}:minibatch", i + 1)
        chains.append(_Chain(kind, cfg, X, V, idx_rng))
    if len(chains) == 2 and len({(ch.kind, ch.cfg.lam, ch.cfg.gamma, ch.c, ch.idx_rng)
                                 for ch in chains}) == 1:
        a, b = chains
        chains = [_Chain(a.kind, a.cfg, np.concatenate([a.X, b.X]), np.concatenate([a.V, b.V]),
                         a.idx_rng, copies=2)]
    return chains, derive_stream(cfgs[0].seed, f"{purpose}:noise")


def _gradient(ch, obj, data):
    """A chain's gradient evaluator ``(X, idx) -> (R, d)``, bound once per run
    from ``obj``'s hooks: minibatch means over idx, else dataset means. A
    ``grad_rows`` result goes to the update as it is (see :func:`_kernel`)."""
    if ch.idx_rng is not None:
        return lambda X, idx: minibatch_gradient_rows(X, obj, data, idx)
    if obj.grad_rows is None:
        return lambda X, idx: batch_empirical_gradient(X, obj, data)
    grad_rows, Z = obj.grad_rows, data.samples
    return lambda X, idx: grad_rows(X, Z)


def _sweep(ch, incs, j0, j1, draws) -> None:
    """Step chain ``ch`` from row j0 of its history to row j1, taking step j
    on its increments ``incs[j]`` and, for a minibatch chain, on the index
    draw ``draws[j]``. It steps through the views of the rows that
    ``_advance`` bound, so the loop makes no view of them."""
    rows, grad, step = ch.rows, ch.grad, ch.step
    idx = None
    for j, src, dst, inc in zip(range(j0, j1), rows[j0:j1], rows[j0 + 1:j1 + 1], incs[j0:j1]):
        if draws is not None:
            idx = draws[j]
        step(src, dst, grad(src[1], idx), inc)


def _reject(chains, obj, data, message, step, j, draws) -> None:
    """Stop a run whose state at ``step``, row j + 1 of the block, is not
    finite: EvaluationError if grad_f is non-finite on a sample at a finite
    position that a chain left, read from its row j, on its block ``draws``
    (None: all samples); DivergenceError with ``message.format(step)`` else."""
    for ch, idx in zip(chains, draws):
        for i, x in enumerate(ch.rows[j][1]):
            rows = np.arange(data.n) if idx is None else idx[j, i]
            if np.isfinite(x).all():
                _reject_nonfinite_gradient(x, obj, obj.grad_f(x, data.samples[rows]), rows)
    raise DivergenceError(message.format(step), step=step)


@np.errstate(over="ignore", invalid="ignore")
def _step_block(chains, obj, data, incs, n, message, k0) -> None:
    """Draw each index stream's per-step indices for the block in one call,
    which every chain on the stream reads (the same values, and the same
    generator state after, as one call per step); sweep each chain in turn
    through rows 1..n and check row n finite, as a non-finite X, V or G
    leaves the next row non-finite under either kernel; on a failure replay
    the block in step order on the same draws, checking each step, to stop
    where it failed."""
    sizes = {ch.idx_rng: (n, len(ch.X) // ch.copies, ch.cfg.batch_size)
             for ch in chains if ch.idx_rng is not None}
    drawn = {rng: rng.integers(0, data.n, size=size) for rng, size in sizes.items()}
    # a chain of stacked copies steps each copy on its stream's draws
    draws = [None if ch.idx_rng is None else drawn[ch.idx_rng] if ch.copies == 1
             else np.tile(drawn[ch.idx_rng], (1, ch.copies, 1)) for ch in chains]
    with suppress(Exception):  # the replay raises it again or stops before it
        for ch, inc, idx in zip(chains, incs, draws):
            _sweep(ch, inc, 0, n, idx)
        if all(np.isfinite(ch.H[n]).all() for ch in chains):
            return
    for j in range(n):
        for ch, inc, idx in zip(chains, incs, draws):
            _sweep(ch, inc, j, j + 1, idx)
        for ch in chains:
            if not np.isfinite(ch.H[j + 1]).all():
                _reject(chains, obj, data, message, k0 + j + 1, j, draws)


def _advance(chains, obj, data, steps, noise_rng, message="chain diverged at step {}"):
    """The stepping loop of every runner.

    The chains share one Gaussian stream, drawn in blocks of at most
    ``_BLOCK_BYTES`` (with the chains' buffers, index draws and row views),
    so a block's (n, R, d) draws are the per-step draws in order. Each chain steps
    through its own history buffer ``H`` of shape (block + 1, 2, R, d): row 0
    is the state before the block, row j the state after its j-th step. The
    views ``(S, X, V)`` of each row, ``ch.rows``, are bound once per run, at
    ``_ROW_VIEW_BYTES`` per chain and step of the budget, so that no step
    makes one. ``_step_block`` sweeps each chain through the block in turn
    and checks it. After each block it yields ``(k0, n)``, the block's first
    step index minus one and its length; the caller's recorder reads rows
    1..n of each ``H`` before the loop goes on. Once it is exhausted, each
    chain's ``X`` and ``V`` hold fresh copies of the final state; on every
    exit, an error or ``close()`` too, its ``H``, ``rows`` and ``grad`` are
    freed. A run stopped by an error has drawn its whole last block from
    ``noise_rng`` and its index streams. An objective whose dimension is not
    the chains' is a ConfigurationError.
    """
    R, d = len(chains[0].X) // chains[0].copies, chains[0].X.shape[1]
    if obj.dim != d:
        raise ConfigurationError(f"objective {obj.name!r} has dimension {obj.dim}, the chains {d}")
    per_step = (8 * (d * (R + 3 * sum(len(ch.X) for ch in chains))
                     # a minibatch chain's indices: its stream's draws, and for a chain
                     # of copies their tiled copy
                     + sum((R + len(ch.X) * (ch.copies > 1)) * ch.cfg.batch_size
                           for ch in chains if ch.idx_rng is not None))
                + _ROW_VIEW_BYTES * len(chains))
    block = max(1, min(steps, _BLOCK_BYTES // per_step))
    try:
        for ch in chains:
            ch.H = np.empty((block + 1, 2, len(ch.X), d))
            ch.H[0, 0], ch.H[0, 1] = ch.X, ch.V
            ch.rows = [(S, S[0], S[1]) for S in ch.H]
            ch.grad = _gradient(ch, obj, data)
        for k0 in range(0, steps, block):
            n = min(block, steps - k0)
            xi = noise_rng.standard_normal((n, R, d))
            _step_block(chains, obj, data, [ch.increments(xi) for ch in chains], n, message, k0)
            yield k0, n
            for ch in chains:
                ch.H[0] = ch.H[n]
        for ch in chains:
            ch.X, ch.V = ch.H[0, 0].copy(), ch.H[0, 1].copy()
    finally:
        for ch in chains:
            ch.H = ch.rows = ch.grad = None


def _recorded(k0, n, every):
    """The steps k0 + 1 .. k0 + n that are multiples of ``every``."""
    return range(k0 + every - k0 % every, k0 + n + 1, every)


def _traced(chains, noise_rng, obj, data, steps, thin):
    """Advance the chains; a Trajectory of each row at step 0 and every thin-th step."""
    steps_rec = [0]
    rows = [[np.stack([ch.X, ch.V])[None]] for ch in chains]
    for k0, n in _advance(chains, obj, data, steps, noise_rng):
        ks = _recorded(k0, n, thin)
        steps_rec.extend(ks)
        for ch, r in zip(chains, rows):
            r.append(ch.H[ks.start - k0:n + 1:thin].copy())
    return [Trajectory(np.asarray(steps_rec), xv[:, 0, i].copy(), xv[:, 1, i].copy())
            for xv in map(np.concatenate, rows) for i in range(xv.shape[2])]


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
    steps, thin = count(steps, "steps"), count(thin, "thin")
    return _traced(*_chains((kind,), (cfg,), 1, kind), obj, data, steps, thin)[0]


@np.errstate(over="ignore", invalid="ignore")
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
    differ in init, step size, or gradient mode; chains of one kind, step,
    friction, noise coefficient and index stream (or none) step as one block.

    Returns ``(traj_a, traj_b, distances)`` where ``distances`` is an array
    of rows ``(step, |x_a - x_b|, |v_a - v_b|)`` at each thinned step.
    """
    steps, thin = count(steps, "steps"), count(thin, "thin")
    kinds = (kind, kind) if isinstance(kind, str) else kind
    ta, tb = _traced(*_chains(kinds, (cfg_a, cfg_b), 1, "coupled"), obj, data, steps, thin)
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


@np.errstate(over="ignore", invalid="ignore")
def ensemble_run(
    kind: str,
    cfg: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    steps: int,
    replicas: int,
    record_every: int = 100,
    burn_in: int = 0,
    functionals: Optional[Callable[[np.ndarray, np.ndarray], Mapping[str, np.ndarray]]] = None,
    purpose: str = "ensemble",
) -> EnsembleResult:
    """Advance ``replicas`` independent chains in lockstep.

    ``functionals`` is one row-wise callable ``(X, V) -> {name: (rows,)}``,
    called on the initial state and then once per block on its stacked
    (steps * R, d) rows, so it must treat rows independently, and functionals
    that share a quantity (such as V) evaluate it once; for each name the
    replica mean is recorded every ``record_every`` steps and its running
    maximum over *all* steps is tracked (that is the empirical sup used by
    the moment-bound checks). Per-coordinate first and second moments of x
    and v are pooled over replicas and steps after ``burn_in`` (none for
    ``burn_in >= steps``).
    """
    steps, replicas = count(steps, "steps"), count(replicas, "replicas")
    record_every, burn_in = count(record_every, "record_every"), index(burn_in, "burn_in")
    (chain,), noise_rng = _chains((kind,), (cfg,), replicas, purpose)

    rec_steps = [0]
    initial = {} if functionals is None else functionals(chain.X, chain.V)
    series = {name: [float(np.mean(vals))] for name, vals in initial.items()}
    running_max = {name: vals[0] for name, vals in series.items()}
    # [sum, sum of squares] x [x, v], each summed over replicas one after
    # another, then over steps in step order, at every dimension. Copied to
    # ([values, squares], R, steps, 2, d), the replicas are an outer axis,
    # added in that order about 2.5 times as fast as a block's middle axis,
    # and the squares are one contiguous product. The copy moves each (d,)
    # row as one item: at d = 2, 4 times as fast.
    row = np.dtype((np.void, 8 * cfg.dim))
    tail_sums = np.zeros((2, 2, cfg.dim))
    tail_n = 0

    for k0, n in _advance([chain], obj, data, steps, noise_rng, "ensemble diverged at step {}"):
        block = chain.H[1:n + 1]
        ks = _recorded(k0, n, record_every)
        rec_steps.extend(ks)
        if functionals is not None:
            rows = functionals(block[:, 0].reshape(-1, cfg.dim), block[:, 1].reshape(-1, cfg.dim))
            for name, vals in rows.items():
                vals = vals.reshape(n, replicas).mean(axis=1).tolist()
                running_max[name] = max(running_max[name], *vals)
                series[name].extend(vals[k - k0 - 1] for k in ks)
        t = max(0, burn_in - k0)  # the block's first row past burn-in
        if t < n:
            buf = np.empty((2, replicas, n - t, 2, cfg.dim))
            buf[0].view(row)[..., 0] = block[t:].view(row)[..., 0].transpose(2, 0, 1)
            np.multiply(buf[0], buf[0], out=buf[1])
            sums = np.add.reduce(buf, axis=1).transpose(1, 0, 2, 3)
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


def _separation(a, b):
    """The mean, RMS, RMS-dx and RMS-dv separations, over replicas, of two
    (x, v) states ``(X, V)`` of R replicas each."""
    dx2, dv2 = (np.sum((p - q) ** 2, axis=1) for p, q in zip(a, b))
    return (float(np.mean(np.sqrt(dx2 + dv2))), float(np.sqrt(np.mean(dx2 + dv2))),
            float(np.sqrt(np.mean(dx2))), float(np.sqrt(np.mean(dv2))))


@np.errstate(over="ignore", invalid="ignore")
def coupled_ensemble_run(
    kind: str,
    cfg_a: SamplerConfig,
    cfg_b: SamplerConfig,
    obj: ObjectiveSpec,
    data: Dataset,
    steps: int,
    replicas: int,
    record_every: int = 10,
) -> CoupledEnsembleResult:
    """Replicated synchronous coupling of two chains of the same kind.

    Both chains see the same Gaussian draws (and the same minibatch indices
    when minibatching, so their batch sizes must agree, None for both being
    full gradients), as one (2R, d) block when they share step, friction and
    noise coefficient; the replica-averaged separation series is the
    empirical contraction diagnostic.
    """
    steps, replicas = count(steps, "steps"), count(replicas, "replicas")
    record_every = count(record_every, "record_every")
    chains, noise_rng = _chains((kind, kind), (cfg_a, cfg_b), replicas, "coupled-ensemble")
    if len({ch.idx_rng for ch in chains}) > 1:
        raise ConfigurationError("coupled chains must share the batch size")

    def separation(k, states):
        return k, *_separation(*(half for ch, S in zip(chains, states)
                                 for half in np.split(S, ch.copies, axis=1)))

    rows = [separation(0, [np.stack([ch.X, ch.V]) for ch in chains])]
    for k0, n in _advance(chains, obj, data, steps, noise_rng,
                          "coupled ensemble diverged at step {}"):
        rows.extend(separation(k, [ch.H[k - k0] for ch in chains])
                    for k in _recorded(k0, n, record_every))
    arr = np.asarray(rows)
    return CoupledEnsembleResult(
        steps=arr[:, 0].astype(int),
        mean_sep=arr[:, 1],
        rms_sep=arr[:, 2],
        rms_dx=arr[:, 3],
        rms_dv=arr[:, 4],
    )


def _failure(run):
    """Exhaust a run; its DivergenceError, without the traceback whose frames
    would hold the run's arrays, or None."""
    try:
        for _ in run:
            pass
    except DivergenceError as err:
        return err.with_traceback(None)
    return None


class _Sums:
    """A standard-normal stream whose draw per step is the sum of ``r``
    consecutive draws of ``rng`` divided by sqrt(r), drawn in chunks of whole
    steps, or of one step's draws, that fit in ``_BLOCK_BYTES``: a chunk is
    held on top of the run's block."""

    def __init__(self, rng, r):
        self.rng, self.r = rng, r

    def standard_normal(self, shape):
        n, *rest = shape
        m = max(1, _BLOCK_BYTES // (8 * math.prod(rest)))  # the draws a chunk holds
        k = max(1, m // self.r)  # the steps a chunk holds
        out = np.zeros(shape)
        for i in range(0, n, k):
            for j in range(0, self.r, m):
                out[i:i + k] += self.rng.standard_normal(
                    (min(k, n - i), min(m, self.r - j), *rest)).sum(axis=1)
        return np.divide(out, math.sqrt(self.r), out=out)


def _multiple(a, b, x, y):
    """a / b, an integer >= 1 up to rounding, else a ConfigurationError naming
    a as x and b as y."""
    q = a / b
    if q == math.inf:
        raise ConfigurationError(f"{x} / {y} overflows the step ratio at {x} = {a!r}, {y} = {b!r}")
    n = round(q)
    if n < 1 or not math.isclose(q, n, rel_tol=1e-9):
        short = f"{x} too short: " if n < 1 else ""
        raise ConfigurationError(f"{short}{x} = {a!r} must be an integer multiple of {y} = {b!r}")
    return n


@np.errstate(over="ignore", invalid="ignore")
def _rate_coupling(cfg, lambdas, lambda_ref, obj, data, t_end, replicas):
    """Each lambda's distance at time ``t_end`` to one finer reference on one
    Brownian path, sqrt(mean over replicas of |dx|^2 + |dv|^2), or its
    DivergenceError.

    Each lambda must be r times ``lambda_ref`` and t_end n times lambda, for
    integers r and n. Every chain is an ordinary one from ``_chains``, of cfg
    at its step size and purpose ``"rate"``: one initial state, and the path
    drawn from its own derivation of one stream. Each lambda's ``"sghmc"``
    chain, on cfg's gradient, runs first, n steps on the ``_Sums`` of r draws;
    then, if one completed, the full-gradient ``"sghmc"`` reference runs all
    r n steps on the draws themselves. A point whose chain failed takes its
    DivergenceError; else, if the reference failed at fine step s, one at
    coarse step ceil(s / r). An EvaluationError is raised.
    """
    lambda_ref, t_end = positive(lambda_ref, "lambda_ref"), real(t_end, "t_end")
    replicas = count(replicas, "replicas")
    steps = [(_multiple(lam, lambda_ref, "lam", "lambda_ref"),
              _multiple(t_end, lam, "t_end", "lam")) for lam in lambdas]
    (fine,) = {r * n for r, n in steps}  # t_end / lambda_ref
    message = "rate coupling diverged at coarse step {}"

    def run(sampler, n, r):
        """``sampler``'s ``"sghmc"`` chain after n steps on the ``_Sums`` of r
        draws of its stream (at r = 1, the draws), or its DivergenceError."""
        (ch,), rng = _chains(("sghmc",), (sampler,), replicas, "rate")
        return _failure(_advance([ch], obj, data, n, _Sums(rng, r) if r > 1 else rng,
                                 message)) or ch

    coarse = [run(replace(cfg, lam=lam), n, r) for lam, (r, n) in zip(lambdas, steps)]
    if all(isinstance(ch, DivergenceError) for ch in coarse):
        return coarse
    ref = run(replace(cfg, lam=lambda_ref, batch_size=None), fine, 1)
    out = []
    for ch, (r, _) in zip(coarse, steps):
        if isinstance(ch, DivergenceError):
            out.append(ch)
        elif isinstance(ref, DivergenceError):
            h = -(-ref.step // r)
            out.append(DivergenceError(message.format(h), step=h))
        else:
            out.append(_separation((ch.X, ch.V), (ref.X, ref.V))[1])
    return out


def brownian_coupled_distance(
    cfg: SamplerConfig,
    lambda_ref: float,
    obj: ObjectiveSpec,
    data: Dataset,
    t_end: float,
    replicas: int,
) -> float:
    """Terminal RMS distance between a chain at cfg.lam and a finer reference
    at ``lambda_ref`` on one Brownian path: :func:`_rate_coupling` of one
    step size, whose DivergenceError is raised."""
    [dist] = _rate_coupling(cfg, [cfg.lam], lambda_ref, obj, data, t_end, replicas)
    if isinstance(dist, DivergenceError):
        raise dist
    return dist
