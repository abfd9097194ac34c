"""Unbiased stochastic gradients via minibatch subsampling with replacement.

The oracle draws batch indices i.i.d. uniformly over the dataset (with
replacement) and averages their gradients with ``minibatch_gradient_rows``, the
chains' estimator, which is unbiased for the empirical gradient by construction.
``batch_size=None`` (as in ``SamplerConfig``) is exactly the empirical gradient.

The second half of the module estimates the oracle's variance profile: the
ratio of E|g - grad F|^2 to 2 (M^2 |x|^2 + B^2) defines the operational
noise level ``delta`` consumed by the bound calculators in :mod:`.theory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .objectives import (
    Dataset,
    ObjectiveSpec,
    _batch_size,
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
    batch_size: Optional[int]  # None: the full gradient
    rng: np.random.Generator

    def __post_init__(self):
        if self.batch_size is not None:
            self.batch_size = _batch_size(self.batch_size)


def _probe(obj: ObjectiveSpec, x) -> np.ndarray:
    """A probe position as a float array; one that is not a finite point of
    the objective's dimension is a ConfigurationError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dim,):
        raise ConfigurationError(f"probe must have shape ({obj.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigurationError(f"probe must be finite, got {x}")
    return x


def make_oracle(
    obj: ObjectiveSpec,
    data: Dataset,
    batch_size: Optional[int],
    seed: int,
    purpose: str = "minibatch",
    replica: int = 0,
) -> MinibatchOracle:
    """Build an oracle with a stream derived from (seed, purpose, replica).

    ``batch_size=None`` gives the deterministic full gradient.
    """
    return MinibatchOracle(
        obj=obj,
        data=data,
        batch_size=batch_size,
        rng=derive_stream(seed, purpose, replica),
    )


def sample_gradient_many(oracle: MinibatchOracle, x: np.ndarray, trials: int) -> np.ndarray:
    """``trials`` independent draws at x via ``minibatch_gradient_rows``: (trials, d)."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    x = _probe(oracle.obj, x)
    if oracle.batch_size is None:
        g = empirical_gradient(x, oracle.obj, oracle.data)
        return np.broadcast_to(g, (trials, g.size)).copy()
    idx = oracle.rng.integers(0, oracle.data.n, size=(trials, oracle.batch_size))
    X = np.broadcast_to(x, (trials, x.size))
    return minibatch_gradient_rows(X, oracle.obj, oracle.data, idx)


# ---------------------------------------------------------------------------
# Variance audits
# ---------------------------------------------------------------------------

def estimate_delta(
    oracle: MinibatchOracle, probes: Sequence[np.ndarray], trials: int
) -> float:
    """Monte-Carlo estimate of the oracle's relative variance level delta_hat.

    For each probe x the mean squared deviation E|g(x) - grad F(x)|^2 is
    estimated over ``trials`` fresh draws and divided by
    2 (M^2 |x|^2 + B^2); delta_hat is the maximum ratio over probes.
    """
    if trials < 100:
        raise ConfigurationError("estimate_delta needs trials >= 100")
    if len(probes) == 0:
        raise ConfigurationError("estimate_delta needs at least one probe")
    cert = oracle.obj.cert
    ratios = []
    for x in [_probe(oracle.obj, x) for x in probes]:
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
        ratios.append(ratio)
    return float(max(ratios))


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
    sizes = [_batch_size(l) for l in batch_sizes]
    if not sizes:
        raise ConfigurationError("variance_scaling_curve needs at least one batch size")
    if len(set(sizes)) != len(sizes):
        raise ConfigurationError("batch sizes must be distinct")
    x = _probe(obj, x)
    full = empirical_gradient(x, obj, data)
    points = []
    for i, ell in enumerate(sizes):
        draws = sample_gradient_many(make_oracle(obj, data, ell, seed, "variance-curve", i), x, trials)
        var = float(np.mean(np.sum((draws - full[None, :]) ** 2, axis=1)))
        points.append((ell, var))
    slope = None
    if len(points) >= 2 and all(v > 0 for _, v in points):
        logs = np.log([float(l) for l, _ in points])
        logv = np.log([v for _, v in points])
        slope = float(np.polyfit(logs, logv, 1)[0])
    return VarianceCurve(points=points, slope=slope)
