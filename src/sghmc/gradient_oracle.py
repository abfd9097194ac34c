"""Unbiased stochastic gradients via minibatch subsampling with replacement.

``sample_gradient_many`` draws batch indices i.i.d. uniformly over the dataset
(with replacement) from the stream it is given and averages their gradients
with ``minibatch_gradient_rows``, the chains' estimator, which is unbiased for
the empirical gradient by construction. ``batch_size=None`` (as in
``SamplerConfig``) is exactly the empirical gradient and draws nothing.

The second half of the module estimates the draws' variance profile: the
ratio of E|g - grad F|^2 to 2 (M^2 |x|^2 + B^2) defines the operational
noise level ``delta`` consumed by the bound calculators in :mod:`.theory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, count, index
from .objectives import (
    Dataset,
    ObjectiveSpec,
    empirical_gradient,
    minibatch_gradient_rows,
)
from .rng import derive_stream


def _probe(obj: ObjectiveSpec, x) -> np.ndarray:
    """A probe position as a float array; one that is not a finite point of
    the objective's dimension is a ConfigurationError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dim,):
        raise ConfigurationError(f"probe must have shape ({obj.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigurationError(f"probe must be finite, got {x}")
    return x


def sample_gradient_many(obj: ObjectiveSpec, data: Dataset, batch_size: Optional[int],
                         rng: np.random.Generator, x: np.ndarray, trials: int) -> np.ndarray:
    """``trials`` independent draws at x via ``minibatch_gradient_rows``: (trials, d).
    ``batch_size=None`` gives the full gradient ``trials`` times."""
    trials = count(trials, "trials")
    x = _probe(obj, x)
    if batch_size is None:
        g = empirical_gradient(x, obj, data)
        return np.broadcast_to(g, (trials, g.size)).copy()
    idx = rng.integers(0, data.n, size=(trials, count(batch_size, "batch size")))
    return minibatch_gradient_rows(np.broadcast_to(x, (trials, x.size)), obj, data, idx)


def _msd(draws: np.ndarray, full: np.ndarray) -> float:
    """Mean over the draws (rows) of their squared distance from ``full``."""
    return float(np.mean(np.sum((draws - full[None, :]) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# Variance audits
# ---------------------------------------------------------------------------

def estimate_delta(obj: ObjectiveSpec, data: Dataset, batch_size: Optional[int],
                   rng: np.random.Generator, probes: Sequence[np.ndarray], trials: int) -> float:
    """Monte-Carlo estimate of the draws' relative variance level delta_hat.

    For each probe x the mean squared deviation E|g(x) - grad F(x)|^2 is
    estimated over ``trials`` fresh draws from ``rng`` and divided by
    2 (M^2 |x|^2 + B^2); delta_hat is the maximum ratio over probes.
    """
    trials = count(trials, "trials", least=100)
    if len(probes) == 0:
        raise ConfigurationError("estimate_delta needs at least one probe")
    cert = obj.cert
    ratios = []
    for x in [_probe(obj, x) for x in probes]:
        # the draws come first: they check the batch size before any gradient
        draws = sample_gradient_many(obj, data, batch_size, rng, x, trials)
        msd = _msd(draws, empirical_gradient(x, obj, data))
        denom = 2.0 * (cert.M**2 * float(x @ x) + cert.B**2)
        if denom == 0.0 and not msd <= 1e-24:  # NaN noise raises too
            raise ConfigurationError(
                "variance ratio undefined: zero denominator with nonzero "
                "gradient noise (M and B both vanish at this probe)"
            )
        ratios.append(msd / denom if denom else 0.0)
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
    sizes = [count(l, "batch size") for l in batch_sizes]
    if not sizes:
        raise ConfigurationError("variance_scaling_curve needs at least one batch size")
    if len(set(sizes)) != len(sizes):
        raise ConfigurationError("batch sizes must be distinct")
    trials, seed = count(trials, "trials"), index(seed, "seed")
    x = _probe(obj, x)
    full = empirical_gradient(x, obj, data)
    points = []
    for i, ell in enumerate(sizes):
        rng = derive_stream(seed, "variance-curve", i)
        points.append((ell, _msd(sample_gradient_many(obj, data, ell, rng, x, trials), full)))
    slope = None
    if len(points) >= 2 and all(v > 0 for _, v in points):
        logs = np.log([float(l) for l, _ in points])
        logv = np.log([v for _, v in points])
        slope = float(np.polyfit(logs, logv, 1)[0])
    return VarianceCurve(points=points, slope=slope)
