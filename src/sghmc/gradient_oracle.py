"""Unbiased stochastic gradients via minibatch subsampling with replacement.

The oracle draws batch indices i.i.d. uniformly over the dataset (with
replacement) and averages the per-sample gradients, which is unbiased for the
empirical gradient by construction. A degenerate full-pass mode iterates the
whole dataset deterministically and is exactly the empirical gradient.

The second half of the module estimates the oracle's variance profile: the
ratio of E|g - grad F|^2 to 2 (M^2 |x|^2 + B^2) defines the operational
noise level ``delta`` consumed by the bound calculators in :mod:`.theory`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .objectives import (
    Dataset,
    ObjectiveSpec,
    _reject_nonfinite_gradient,
    empirical_gradient,
    minibatch_gradient_rows,
)
from .rng import derive_stream


@dataclass
class MinibatchOracle:
    """Stateful minibatch gradient oracle.

    An instance owns its RNG stream (the stream advances on every draw), so
    an oracle is single-owner; create one oracle per concurrent consumer with
    distinct (purpose, replica) derivations.
    """

    obj: ObjectiveSpec
    data: Dataset
    batch_size: int
    rng: np.random.Generator
    full_pass: bool = False

    def __post_init__(self):
        if self.data.n < 1:
            raise ConfigurationError("oracle needs a nonempty dataset")
        if self.full_pass:
            self.batch_size = self.data.n
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be >= 1")


def make_oracle(
    obj: ObjectiveSpec,
    data: Dataset,
    batch_size: Optional[int],
    seed: int,
    purpose: str = "minibatch",
    replica: int = 0,
) -> MinibatchOracle:
    """Build an oracle with a stream derived from (seed, purpose, replica).

    ``batch_size=None`` selects the deterministic full-pass mode.
    """
    full = batch_size is None
    return MinibatchOracle(
        obj=obj,
        data=data,
        batch_size=data.n if full else int(batch_size),
        rng=derive_stream(seed, purpose, replica),
        full_pass=full,
    )


def sample_gradient(oracle: MinibatchOracle, x: np.ndarray) -> np.ndarray:
    """One stochastic gradient draw at x; advances the oracle's stream. A
    non-finite mean re-evaluates its batch to name a faulty sample."""
    x = np.asarray(x, dtype=float)
    obj, data = oracle.obj, oracle.data
    if oracle.full_pass:
        return empirical_gradient(x, obj, data)
    idx = oracle.rng.integers(0, data.n, size=oracle.batch_size)
    g = minibatch_gradient_rows(x, obj, data, idx)
    if not np.isfinite(g).all():
        _reject_nonfinite_gradient(x, obj, obj.grad_f(x, data.samples[idx]), idx)
    return g


def sample_gradient_many(oracle: MinibatchOracle, x: np.ndarray, trials: int) -> np.ndarray:
    """``trials`` independent draws at x, shape (trials, d). Vectorized."""
    x = np.asarray(x, dtype=float)
    if oracle.full_pass:
        g = empirical_gradient(x, oracle.obj, oracle.data)
        return np.broadcast_to(g, (trials, g.size)).copy()
    ell = oracle.batch_size
    idx = oracle.rng.integers(0, oracle.data.n, size=(trials, ell))
    grads = np.asarray(oracle.obj.grad_f(x, oracle.data.samples[idx.ravel()]), dtype=float)
    return grads.reshape(trials, ell, -1).mean(axis=1)


# ---------------------------------------------------------------------------
# Variance audits
# ---------------------------------------------------------------------------

@dataclass
class VarianceReport:
    """Estimated noise level of a minibatch oracle."""

    delta_hat: float
    per_probe: list = field(default_factory=list)  # (probe, ratio) pairs
    trials: int = 0

    def to_json(self, indent=2) -> str:
        return json.dumps(
            {
                "delta_hat": self.delta_hat,
                "trials": self.trials,
                "per_probe": [
                    {"x": np.asarray(x).tolist(), "ratio": float(r)}
                    for x, r in self.per_probe
                ],
            },
            indent=indent,
        )


def estimate_delta(
    oracle: MinibatchOracle, probes: Sequence[np.ndarray], trials: int
) -> VarianceReport:
    """Monte-Carlo estimate of the oracle's relative variance level.

    For each probe x the mean squared deviation E|g(x) - grad F(x)|^2 is
    estimated over ``trials`` fresh draws and divided by
    2 (M^2 |x|^2 + B^2); ``delta_hat`` is the maximum ratio over probes.
    """
    if trials < 100:
        raise ConfigurationError("estimate_delta needs trials >= 100")
    cert = oracle.obj.cert
    per_probe = []
    for x in probes:
        x = np.asarray(x, dtype=float)
        full = empirical_gradient(x, oracle.obj, oracle.data)
        draws = sample_gradient_many(oracle, x, trials)
        msd = float(np.mean(np.sum((draws - full[None, :]) ** 2, axis=1)))
        denom = 2.0 * (cert.M**2 * float(x @ x) + cert.B**2)
        if denom == 0.0:
            if msd <= 1e-24:
                ratio = 0.0
            else:
                raise ConfigurationError(
                    "variance ratio undefined: zero denominator with nonzero "
                    "gradient noise (M and B both vanish at this probe)"
                )
        else:
            ratio = msd / denom
        per_probe.append((x, ratio))
    delta_hat = max((r for _, r in per_probe), default=0.0)
    return VarianceReport(delta_hat=float(delta_hat), per_probe=per_probe, trials=trials)


@dataclass
class VarianceCurve:
    """Per-batch-size variance estimates and their log-log slope."""

    points: list  # (batch_size, variance)
    slope: Optional[float]


def variance_scaling_curve(
    obj: ObjectiveSpec,
    data: Dataset,
    x: np.ndarray,
    batch_sizes: Sequence[int],
    trials: int,
    seed: int = 0,
) -> VarianceCurve:
    """Monte-Carlo variance at each batch size, with log-log slope over sizes.

    A single batch size yields a curve of length one and no slope.
    """
    sizes = [int(l) for l in batch_sizes]
    if any(l < 1 for l in sizes):
        raise ConfigurationError("batch sizes must be >= 1")
    if len(set(sizes)) != len(sizes):
        raise ConfigurationError("batch sizes must be distinct")
    x = np.asarray(x, dtype=float)
    full = empirical_gradient(x, obj, data)
    points = []
    for i, ell in enumerate(sizes):
        oracle = MinibatchOracle(
            obj=obj, data=data, batch_size=ell, rng=derive_stream(seed, "variance-curve", i)
        )
        draws = sample_gradient_many(oracle, x, trials)
        var = float(np.mean(np.sum((draws - full[None, :]) ** 2, axis=1)))
        points.append((ell, var))
    slope = None
    if len(points) >= 2 and all(v > 0 for _, v in points):
        logs = np.log([float(l) for l, _ in points])
        logv = np.log([v for _, v in points])
        slope = float(np.polyfit(logs, logv, 1)[0])
    return VarianceCurve(points=points, slope=slope)
