"""Distances between empirical measures.

Three Wasserstein estimators cover the desk-scale needs:

* ``wasserstein_1d``        -- exact in one dimension via order statistics;
* ``wasserstein_exact_small`` -- exact in any dimension for clouds of up to
  64 points, via the optimal assignment problem;
* ``sliced_wasserstein``    -- seeded random-projection surrogate for larger
  clouds in higher dimension.

``rho_distance_cloud`` solves the same assignment problem on the contraction
semimetric's cost matrix ``theory.rho_cost`` (the one evaluation of rho), which
is how the distance of an initial law from a long-run law is estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigurationError, NumericalError, count, index, real
from .rng import derive_stream
from .theory import ContractionConstants, LyapunovParams, rho_cost


@dataclass(frozen=True)
class SampleCloud:
    """A finite, equally weighted set of points representing a measure."""

    points: np.ndarray  # (n, k)

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ConfigurationError("a sample cloud needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("sample cloud contains non-finite points")
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _as_cloud(a) -> SampleCloud:
    return a if isinstance(a, SampleCloud) else SampleCloud(points=np.asarray(a, dtype=float))


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost perfect matching of a square cost
    matrix (the linear assignment problem, Kuhn 1955).

    Shortest augmenting paths on reduced costs (Jonker & Volgenant, Computing
    38, 1987), in the dense form of Crouse (IEEE TAES 52, 2016) that scipy's
    ``linear_sum_assignment`` implements, with one Dijkstra step per scanned
    row vectorized over the columns. JV column reduction warm-starts it: the
    column duals are the column minima, and each column takes its argmin row
    if that row is still free. Among tied shortest paths a free column is
    preferred, which ends the search. A NaN or infinite cost has no optimal
    matching, so it raises NumericalError before any path is grown.
    """
    if not np.isfinite(cost).all():
        raise NumericalError("assignment cost matrix has non-finite entries")
    n = cost.shape[0]
    u, v = np.zeros(n), cost.min(axis=0)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    for j, i in enumerate(cost.argmin(axis=0)):
        if col4row[i] < 0:
            col4row[i], row4col[j] = j, i
    for cur in np.flatnonzero(col4row < 0):
        free = np.flatnonzero(row4col < 0)
        reduced = cost - v  # a scanned column reads inf, so no path improves it
        dist = np.full(n, np.inf)  # shortest reduced path to each open column
        prev = np.empty(n, dtype=int)  # the row before each column on its path
        cols, lows = [], []  # the scanned columns, each at its distance
        i, low = cur, 0.0
        while True:
            path = reduced[i] + (low - u[i])
            better = path < dist
            np.minimum(dist, path, out=dist)
            prev[better] = i
            j = int(dist.argmin())
            low = dist[j]
            if row4col[j] >= 0:
                k = free[dist[free].argmin()]
                if dist[k] == low:
                    j = k
            cols.append(j)
            lows.append(low)
            dist[j] = np.inf
            reduced[:, j] = np.inf
            if row4col[j] < 0:
                break
            i = row4col[j]
        lows = np.array(lows)
        u[cur] += low
        u[row4col[cols[:-1]]] += low - lows[:-1]  # the rows scanned after cur
        v[cols] -= low - lows
        while True:  # flip the path back to cur
            i = prev[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _resampled(a, b, seed, purpose):
    """``a`` and ``b`` with the shorter one resampled with replacement along
    its first axis up to the longer one's length, from the stream ``(seed,
    purpose)``, which is derived only when their lengths differ."""
    if len(a) == len(b):
        return a, b
    rng = derive_stream(seed, purpose)
    if len(a) < len(b):
        return a[rng.integers(0, len(a), size=len(b))], b
    return a, b[rng.integers(0, len(b), size=len(a))]


def wasserstein_1d(a, b, p: float = 2.0, resample_seed: int = 0) -> float:
    """Exact order-p Wasserstein distance between 1-D clouds.

    Sorting both clouds realizes the optimal coupling in one dimension.
    Unequal sizes are handled by resampling the smaller cloud with
    replacement up to the larger size (deterministic in ``resample_seed``).
    """
    a, b = _as_cloud(a), _as_cloud(b)
    if a.dim != 1 or b.dim != 1:
        raise ConfigurationError("wasserstein_1d requires dimension 1")
    p, resample_seed = real(p, "order p", 1), index(resample_seed, "resample_seed")
    xa, xb = _resampled(a.points[:, 0], b.points[:, 0], resample_seed, "wasserstein:resample")
    diff = np.abs(np.sort(xa) - np.sort(xb))
    return float(np.mean(diff**p) ** (1.0 / p))


def wasserstein_exact_small(a, b, p: float = 2.0) -> float:
    """Exact W_p between equal-size clouds (n <= 64) via optimal assignment.

    For equally weighted clouds of the same size the transport problem is an
    assignment problem on the cost matrix |a_i - b_j|^p.
    """
    a, b = _as_cloud(a), _as_cloud(b)
    if a.n != b.n:
        raise ConfigurationError("exact solver needs equal cloud sizes")
    if a.n > 64:
        raise ConfigurationError("exact solver is capped at 64 points")
    if a.dim != b.dim:
        raise ConfigurationError("clouds must share the dimension")
    p = real(p, "order p", 1)
    diff = a.points[:, None, :] - b.points[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** p
    return float(np.mean(cost[np.arange(a.n), _assignment(cost)]) ** (1.0 / p))


def sliced_wasserstein(a, b, p: float = 2.0, n_projections: int = 128, seed: int = 0) -> float:
    """Sliced W_p: average of 1-D p-th power distances over random directions.

    Directions are uniform on the sphere (normalized Gaussian draws) from a
    stream derived from ``seed``; the estimate is deterministic given the
    seed.
    """
    a, b = _as_cloud(a), _as_cloud(b)
    if a.dim != b.dim:
        raise ConfigurationError("clouds must share the dimension")
    p, seed = real(p, "order p", 1), index(seed, "seed")
    n_projections = count(n_projections, "n_projections")
    rng = derive_stream(seed, "sliced:directions")
    dirs = rng.standard_normal((n_projections, a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # (n, n_proj) projections; projectwise resampling would decouple the
    # directions, so the points are resampled once
    pa, pb = _resampled(a.points @ dirs.T, b.points @ dirs.T, seed, "sliced:resample")
    pa = np.sort(pa, axis=0)
    pb = np.sort(pb, axis=0)
    powers = np.mean(np.abs(pa - pb) ** p, axis=0)  # per-direction W_p^p
    return float(np.mean(powers) ** (1.0 / p))


def rho_distance_cloud(a, b, cc: ContractionConstants, lyap: LyapunovParams) -> float:
    """Empirical rho-transport distance between clouds in phase space.

    Points live in R^{2d} as (x, v) concatenations. The assignment problem is
    solved exactly on the matrix ``theory.rho_cost``; the result is the
    minimum over assignments of the average rho.
    """
    a, b = _as_cloud(a), _as_cloud(b)
    if a.n != b.n:
        raise ConfigurationError("rho distance needs equal cloud sizes")
    if a.n > 64:
        raise ConfigurationError("rho distance is capped at 64 points")
    if a.dim != b.dim or a.dim % 2:
        raise ConfigurationError("phase-space clouds need even, equal dimension")
    cost = rho_cost(cc, lyap, a.points, b.points)
    return float(np.mean(cost[np.arange(a.n), _assignment(cost)]))


def quad_growth_continuity_check(
    G: Callable[[np.ndarray], np.ndarray],
    grad_bound: Tuple[float, float],
    a,
    b,
    p: float,
    q: float,
):
    """Mean-difference vs transport bound for a function of linear gradient growth.

    With |grad G(w)| <= c1 |w| + c2 and Hoelder exponents 1/p + 1/q = 1,

        lhs = |mean_a G - mean_b G|,
        rhs = (c1 sigma + c2) W_p(a, b),
        sigma = (1/2) max of the q-th radial moments of the two clouds.

    The inequality lhs <= rhs is the property under test; this op only
    evaluates the two sides.
    """
    p, q = real(p, "order p", 1), real(q, "order q", 1)
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:  # p = 1 needs q = inf
        raise ConfigurationError(f"order p = {p} and order q = {q} violate 1/p + 1/q = 1")
    a, b = _as_cloud(a), _as_cloud(b)
    c1, c2 = grad_bound
    ga = np.asarray(G(a.points), dtype=float)
    gb = np.asarray(G(b.points), dtype=float)
    if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
        raise ConfigurationError("G produced non-finite values")
    lhs = abs(float(ga.mean()) - float(gb.mean()))
    mo_a = np.mean(np.linalg.norm(a.points, axis=1) ** q) ** (1.0 / q)
    mo_b = np.mean(np.linalg.norm(b.points, axis=1) ** q) ** (1.0 / q)
    if not (math.isfinite(mo_a) and math.isfinite(mo_b)):
        raise ConfigurationError("clouds have non-finite q-th moments")
    sigma = 0.5 * max(mo_a, mo_b)
    rhs = (c1 * sigma + c2) * wasserstein_exact_small(a, b, p)
    return lhs, rhs
