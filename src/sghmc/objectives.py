"""Test-problem suite: component losses over datasets, with certified constants.

An objective is a component loss f(x, z) together with its gradient and a
certificate of the analytic constants the rest of the package consumes:

* ``A0``  bound on f(0, z) over the sample space,
* ``B``   bound on the gradient norm at the origin,
* ``M``   global Lipschitz constant of the gradient in x,
* ``m, b`` dissipativity constants:  <x, grad f(x,z)> >= m |x|^2 - b.

Built-in objectives derive their certificates analytically in the factory
functions below; :func:`audit_assumptions` re-checks every certificate
numerically on random probes and on the actual dataset samples, so
regressions and user-supplied objectives are caught at run time.

Vectorization contract: ``f(x, Z)`` and ``grad_f(x, Z)`` take a single
position ``x`` of shape ``(d,)`` and a stack of samples ``Z`` of shape
``(k, z_dim)`` and return ``(k,)`` / ``(k, d)``. A built-in writes its
per-sample gradient once, as ``grad_batches`` below; its ``grad_f`` is the
one-row case, row 0 of ``grad_batches(x[None], Z[None])``. The optional
``risk_rows`` / ``grad_rows`` hooks evaluate the dataset-averaged
loss/gradient for a stack of positions ``(R, d)`` at once; they exist purely
as fast paths and must agree with the averaged single-position evaluators.

A Dataset holds a read-only copy of its samples, and the samplers pass the
hooks that same ``Z = data.samples`` on every step; the built-in hooks that
read the data take its mean sample and mean squared norm from
:func:`_moments`, which keeps them for that array instead of recomputing
them each step (the uncoupled quadratic's ``grad_rows`` reads neither).

The optional ``grad_batches(X, Zs)`` hook is the minibatch fast path: for
positions ``(R, d)`` and one minibatch per row ``(R, l, z_dim)``, a strided
view in ``(l, R, z_dim)`` memory order, it returns the per-sample gradients
``(R, l, d)``: ``[i, j]`` is row j of ``grad_f(X[i], Zs[i])``. It takes no
mean. :func:`minibatch_gradient_rows` takes it, or loops ``grad_f`` over the
same ``Zs`` without a hook, in ``grad_f(x, Z).mean(axis=0)``'s order for any
result whose d axis varies fastest in memory, as in any array that numpy
broadcasts from ``X`` and ``Zs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigurationError, EvaluationError, count, index, nonnegative, positive,
                     real)
from .rng import derive_stream


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessCertificate:
    """Certified constants of a component loss."""

    A0: float
    B: float
    M: float
    m: float
    b: float

    def __post_init__(self):
        for name in ("A0", "B", "b"):
            object.__setattr__(self, name, nonnegative(getattr(self, name), name))
        for name in ("M", "m"):
            object.__setattr__(self, name, positive(getattr(self, name), name))
        if self.m > self.M:
            # Dissipativity together with a Lipschitz gradient forces m <= M
            # at large |x|; a certificate violating this is inconsistent.
            raise ConfigurationError(f"certificate has m={self.m} > M={self.M}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """A component loss, its gradient, and its certificate."""

    name: str
    dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cert: SmoothnessCertificate
    # optional vectorized dataset-mean evaluators, see module docstring
    risk_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    grad_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    # optional per-sample minibatch gradients (R, d), (R, l, z_dim) -> (R, l, d), see above
    grad_batches: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "dim", count(self.dim, "dim"))


@dataclass(frozen=True)
class Dataset:
    """n samples plus the generator metadata needed to regenerate them.

    ``samples`` is a read-only (n, z_dim) copy of the values passed in.
    """

    samples: np.ndarray  # shape (n, z_dim)
    generator_id: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", index(self.seed, "seed"))
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ConfigurationError("dataset must contain at least one sample")
        # a read-only copy of its own: the samples cannot change under the
        # caller's array, and _moments may keep their moments
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def z_dim(self) -> int:
        return self.samples.shape[1]

    def max_norm(self) -> float:
        """Largest Euclidean norm among the samples (used for certificates)."""
        return float(np.max(np.linalg.norm(self.samples, axis=1)))


_GENERATORS = {
    "gaussian": lambda rng, n, z_dim: rng.standard_normal((n, z_dim)),
    "uniform": lambda rng, n, z_dim: rng.uniform(-1.0, 1.0, size=(n, z_dim)),
}


def make_dataset(generator_id: str, n: int, z_dim: int, seed: int) -> Dataset:
    """Generate a dataset; identical (generator_id, seed, n, z_dim) give identical bits."""
    if generator_id not in _GENERATORS:
        raise ConfigurationError(
            f"unknown dataset generator {generator_id!r}; known: {sorted(_GENERATORS)}"
        )
    n, z_dim, seed = count(n, "n"), count(z_dim, "z_dim"), index(seed, "seed")
    rng = derive_stream(seed, f"dataset:{generator_id}")
    samples = _GENERATORS[generator_id](rng, n, z_dim)
    return Dataset(samples=samples, generator_id=generator_id, seed=seed)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

# (Z, zbar, m2) of the last cacheable Z; it keeps that one array alive. It is
# replaced whole, so concurrent callers can at worst recompute.
_MOMENTS_CACHE = (None, None, None)


def _moments(Z: np.ndarray):
    """The mean sample ``zbar`` (z_dim,) and mean squared norm ``m2`` of Z (n, z_dim).

    They are kept for the last read-only Z that owns its data (a Dataset's
    samples, whose values cannot change) and recomputed for any writable
    array or view.
    """
    global _MOMENTS_CACHE
    cached, zbar, m2 = _MOMENTS_CACHE
    if Z is cached and not Z.flags.writeable:
        return zbar, m2
    zbar = Z.mean(axis=0)
    m2 = float(np.mean(np.sum(Z * Z, axis=1)))
    if not Z.flags.writeable and Z.flags.owndata:
        zbar.flags.writeable = False
        _MOMENTS_CACHE = (Z, zbar, m2)
    return zbar, m2


def empirical_risk(x: np.ndarray, obj: ObjectiveSpec, data: Dataset) -> float:
    """Dataset average of the component loss at x."""
    x = np.asarray(x, dtype=float)
    vals = np.asarray(obj.f(x, data.samples), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.argmax(bad))
        raise EvaluationError(
            f"objective {obj.name!r} returned a non-finite value at sample index {idx}",
            sample_index=idx,
        )
    return float(vals.mean())


# Beyond this certified gradient bound B + M |x|, products such as |x|^2 or
# <x, z> may overflow in a valid objective.
_OVERFLOW_BOUND = math.sqrt(np.finfo(float).max)


def _reject_nonfinite_gradient(x, obj: ObjectiveSpec, grads, rows=None) -> None:
    """Raise EvaluationError naming the first sample whose row of
    ``grads = grad_f(x, data.samples[rows])`` is non-finite (``rows`` None:
    the whole dataset, in order).

    Nothing is raised where the certificate bounds the gradients at x only by
    B + M |x| > sqrt(float max): a non-finite value there is an overflow, as
    when a chain diverges, and not a fault of the objective.
    """
    bad = ~np.isfinite(grads).all(axis=1)
    norm = float(np.hypot.reduce(x))  # |x|, free of overflow
    if not bad.any() or obj.cert.B + obj.cert.M * norm > _OVERFLOW_BOUND:
        return
    j = int(np.argmax(bad)) if rows is None else int(rows[np.argmax(bad)])
    raise EvaluationError(
        f"objective {obj.name!r} returned a non-finite gradient at sample index {j}",
        sample_index=j,
    )


def empirical_gradient(x: np.ndarray, obj: ObjectiveSpec, data: Dataset) -> np.ndarray:
    """Dataset average of the component-loss gradient at x.

    A non-finite per-sample gradient raises EvaluationError unless x is so
    large that it may be an overflow; then the non-finite mean is returned.
    """
    x = np.asarray(x, dtype=float)
    grads = np.asarray(obj.grad_f(x, data.samples), dtype=float)
    if not np.isfinite(grads).all():
        _reject_nonfinite_gradient(x, obj, grads)
    return grads.mean(axis=0)


def _stack(X) -> np.ndarray:
    """X as a float stack of positions: a (d,) position becomes (1, d)."""
    X = np.asarray(X, dtype=float)
    return X if X.ndim >= 2 else X.reshape(1, -1)


def batch_empirical_risk(X: np.ndarray, obj: ObjectiveSpec, data: Dataset) -> np.ndarray:
    """Empirical risk for a stack of positions (R, d) -> (R,)."""
    X = _stack(X)
    if obj.risk_rows is not None:
        return np.asarray(obj.risk_rows(X, data.samples), dtype=float)
    return np.array([empirical_risk(row, obj, data) for row in X])


def batch_empirical_gradient(X: np.ndarray, obj: ObjectiveSpec, data: Dataset) -> np.ndarray:
    """Empirical gradient for a stack of positions (R, d) -> (R, d)."""
    X = _stack(X)
    if obj.grad_rows is not None:
        return np.asarray(obj.grad_rows(X, data.samples), dtype=float)
    return np.stack([empirical_gradient(row, obj, data) for row in X])


def minibatch_gradient_rows(X: np.ndarray, obj: ObjectiveSpec, data: Dataset,
                            idx: np.ndarray) -> np.ndarray:
    """Row i averages grad_f at X[i] over data.samples[idx[i]]: (R, d), (R, l) -> (R, d).

    Positions are a stack: a single chain is (1, d), indices (1, l). Like the
    loop's ``mean(axis=0)``, it adds the l terms one after another for d >= 2
    and pairwise for d = 1, which numpy does only along a contiguous axis.
    """
    Zs = np.take(data.samples, idx.T, axis=0).transpose(1, 0, 2)
    if obj.grad_batches is not None:
        G = np.asarray(obj.grad_batches(X, Zs), dtype=float)
    else:
        G = np.stack([obj.grad_f(x, Z) for x, Z in zip(X, Zs)], dtype=float)
    shape = (*idx.shape, X.shape[1])
    if G.shape != shape:
        raise ConfigurationError(f"objective {obj.name!r}: minibatch gradients have shape "
                                 f"{G.shape}, expected (R, l, d) = {shape}")
    return np.add.reduce(np.ascontiguousarray(G) if shape[2] == 1 else G, axis=1) / shape[1]


def quad_growth_sandwich(obj: ObjectiveSpec, x: np.ndarray, z: np.ndarray):
    """Quadratic-growth envelope around f(x, z).

    Returns ``(lower, mid, upper)`` with

        lower = (m/3) |x|^2 - (b/2) log 3,
        mid   = f(x, z),
        upper = (M/2) |x|^2 + B |x| + A0.

    For a valid certificate ``lower <= mid <= upper`` must hold; the property
    is checked by the test suite, not enforced here.
    """
    x = np.asarray(x, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    c = obj.cert
    nrm2 = float(x @ x)
    nrm = math.sqrt(nrm2)
    lower = (c.m / 3.0) * nrm2 - (c.b / 2.0) * math.log(3.0)
    mid = float(np.asarray(obj.f(x, z))[0])
    upper = (c.M / 2.0) * nrm2 + c.B * nrm + c.A0
    return lower, mid, upper


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------

@dataclass
class AuditEntry:
    assumption: str
    passed: bool
    margin: float
    witness: dict

    def to_dict(self):
        return {
            "assumption": self.assumption,
            "pass": bool(self.passed),
            "margin": float(self.margin),
            "witness": self.witness,
        }


@dataclass
class AuditReport:
    entries: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def default_probe_radius(cert: SmoothnessCertificate) -> float:
    """Default audit radius: covers the dissipativity crossover region."""
    return 10.0 * max(1.0, math.sqrt(cert.b / cert.m))


def ball_probes(rng: np.random.Generator, k: int, dim: int, radius: float) -> np.ndarray:
    """k points (k, dim) drawn uniformly from the ball of the given radius:
    a direction, then a radius with density proportional to r^(dim-1). A
    radius that is not finite and > 0 is a ConfigurationError."""
    radius = positive(radius, "probe radius")
    u = rng.standard_normal((k, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * (radius * rng.uniform(0.0, 1.0, size=(k, 1)) ** (1.0 / dim))


def audit_assumptions(
    obj: ObjectiveSpec,
    data: Dataset,
    probes: int,
    radius: Optional[float],
    seed: int,
) -> AuditReport:
    """Numerically audit the certificate of ``obj`` against its dataset.

    Checks, over ``probes`` random points in the ball of the given radius
    (None: ``default_probe_radius``), drawn from a stream of ``seed``, and
    over all dataset samples:

    * non-negativity of f,
    * the gradient Lipschitz constant (max ratio over random pairs; this
      lower-bounds the true constant, so a pass means "no violation found"),
    * dissipativity ``<x, grad f> - m |x|^2 + b >= 0``,
    * the origin bounds ``|f(0,z)| <= A0`` and ``|grad f(0,z)| <= B``.

    One walk over the probes evaluates grad_f at each probe and its Lipschitz
    partner. Failures are report entries with a witnessing point, never exceptions.
    """
    probes, seed = count(probes, "probes", least=2), index(seed, "seed")
    cert = obj.cert
    d = obj.dim
    if radius is None:
        radius = default_probe_radius(cert)
    rng = derive_stream(seed, "audit:probes")
    X = ball_probes(rng, probes, d, radius)
    X2 = ball_probes(rng, probes, d, radius)  # Lipschitz partners
    Z = data.samples
    min_val, min_wit = math.inf, None  # (a) non-negativity over probes x samples
    max_ratio, lip_wit = 0.0, None  # (b) Lipschitz ratio over random pairs
    min_margin, dis_wit = math.inf, None  # (c) dissipativity margin
    for x1, x2 in zip(X, X2):
        vals = np.asarray(obj.f(x1, Z), dtype=float)
        j = int(np.argmin(vals))
        if vals[j] < min_val:
            min_val = float(vals[j])
            min_wit = {"x": x1.tolist(), "sample_index": j}
        grads = np.asarray(obj.grad_f(x1, Z), dtype=float)
        margins = grads @ x1 - cert.m * float(x1 @ x1) + cert.b
        j = int(np.argmin(margins))
        if margins[j] < min_margin:
            min_margin = float(margins[j])
            dis_wit = {"x": x1.tolist(), "sample_index": j}
        gap = np.linalg.norm(x1 - x2)
        if gap < 1e-12:
            continue
        diff = np.linalg.norm(grads - np.asarray(obj.grad_f(x2, Z)), axis=1)
        j = int(np.argmax(diff))
        ratio = float(diff[j] / gap)
        if ratio > max_ratio:
            max_ratio = ratio
            lip_wit = {"x1": x1.tolist(), "x2": x2.tolist(), "sample_index": j}
    entries = [
        AuditEntry("non_negativity", min_val >= 0.0, min_val, min_wit),
        AuditEntry(
            "gradient_lipschitz",
            max_ratio <= cert.M * (1.0 + 1e-9),
            cert.M - max_ratio,
            {"max_ratio_found": max_ratio, "note": "pass means no violation found", **(lip_wit or {})},
        ),
        AuditEntry("dissipativity", min_margin >= -1e-9, min_margin, dis_wit),
    ]

    # (d) origin bounds
    origin = np.zeros(d)
    f0 = np.abs(np.asarray(obj.f(origin, Z), dtype=float))
    g0 = np.linalg.norm(np.asarray(obj.grad_f(origin, Z), dtype=float), axis=1)
    j_f = int(np.argmax(f0))
    j_g = int(np.argmax(g0))
    margin = min(cert.A0 - float(f0[j_f]), cert.B - float(g0[j_g]))
    entries.append(
        AuditEntry(
            "origin_bounds",
            margin >= -1e-12,
            margin,
            {"max_f0": float(f0[j_f]), "sample_index_f": j_f,
             "max_grad0": float(g0[j_g]), "sample_index_grad": j_g},
        )
    )
    return AuditReport(entries)


# ---------------------------------------------------------------------------
# Built-in objectives
# ---------------------------------------------------------------------------

def _one_row(grad_batches):
    """A built-in's ``grad_f(x, Z)``: row 0 of ``grad_batches(x[None], Z[None])``."""
    return lambda x, Z: grad_batches(x[None], Z[None])[0]


def quadratic(dim: int, m0: float = 1.0, coupling: float = 0.0, z_radius: float = 0.0) -> ObjectiveSpec:
    """Quadratic loss ``f(x, z) = (m0/2) |x - coupling * z|^2``.

    The Gibbs law of its empirical risk is Gaussian, which makes it the
    exactly solvable reference case. With ``coupling = 0`` the loss ignores
    the data and the certificate is (A0, B, m, b) = (0, 0, m0, 0); otherwise
    ``z_radius`` must bound the norms of the dataset samples.

    With ``coupling = 0``, ``grad_rows`` reads no data: ``X * m0`` (a 0-d m0,
    numpy's cheapest scalar operand) has the bits of ``m0 * (X - 0 * zbar)``
    but for an exact -0.0 where ``zbar`` is negative (that form gives +0.0).
    """
    m0, c = positive(m0, "m0"), real(coupling, "coupling")
    r = positive(z_radius, "z_radius") if c else nonnegative(z_radius, "z_radius")
    m0_0d = np.array(m0, dtype=float)

    def f(x, Z):
        diff = x[None, :] - c * Z
        return 0.5 * m0 * np.sum(diff * diff, axis=1)

    def risk_rows(X, Z):
        zbar, m2 = _moments(Z)
        return 0.5 * m0 * (np.sum(X * X, axis=1) - 2.0 * c * (X @ zbar) + c * c * m2)

    def grad_rows(X, Z):
        return m0 * (X - c * _moments(Z)[0])

    def grad_batches(X, Zs):
        return m0 * (X[:, None, :] - c * Zs)

    if c == 0.0:
        cert = SmoothnessCertificate(A0=0.0, B=0.0, M=m0, m=m0, b=0.0)
    else:
        cert = SmoothnessCertificate(
            A0=0.5 * m0 * c * c * r * r,
            B=m0 * abs(c) * r,
            M=m0,
            m=0.5 * m0,
            b=0.5 * m0 * c * c * r * r,
        )
    return ObjectiveSpec("quadratic", dim, f, _one_row(grad_batches), cert, risk_rows=risk_rows,
                         grad_rows=(lambda X, Z: X * m0_0d) if c == 0.0 else grad_rows,
                         grad_batches=grad_batches)


def _well_pieces(well_radius: float):
    """Per-coordinate double well with a quadratic tail beyond well_radius.

    Inside: w(t) = t^4/4 - t^2/2. Outside: the C^2 quadratic continuation.
    Returns (w, w_prime, curvature at the splice).
    """
    rw = float(well_radius)
    kappa = 3.0 * rw * rw - 1.0
    w_r = 0.25 * rw ** 4 - 0.5 * rw * rw
    wp_r = rw ** 3 - rw

    def w(t):
        a = np.abs(t)
        inside = 0.25 * t ** 4 - 0.5 * t * t
        out = w_r + wp_r * (a - rw) + 0.5 * kappa * (a - rw) ** 2
        return np.where(a <= rw, inside, out)

    def w_prime(t):
        a = np.abs(t)
        inside = t ** 3 - t
        within = a <= rw
        if within.all():  # the value np.where picks; NaN and inf fail the test
            return inside
        out = np.sign(t) * (wp_r + kappa * (a - rw))
        return np.where(within, inside, out)

    return w, w_prime, kappa


def double_well(dim: int, coupling: float = 0.1, z_radius: float = 0.0,
                well_radius: float = 2.0) -> ObjectiveSpec:
    """Separable double well with a quadratic tail and a weak data coupling.

    f(x, z) = sum_j [ w(x_j) + 1/4 ] + (coupling/2) |x - z|^2

    where w is t^4/4 - t^2/2 spliced to a quadratic beyond ``well_radius``
    (the splice keeps the gradient globally Lipschitz) and the additive 1/4
    per coordinate makes the loss non-negative.
    """
    dim, c = count(dim, "dim"), nonnegative(coupling, "coupling")
    rz = positive(z_radius, "z_radius") if c else nonnegative(z_radius, "z_radius")
    well_radius = real(well_radius, "well_radius")
    if well_radius < 1.5:
        raise ConfigurationError("well_radius must be >= 1.5 to contain both wells")
    w, w_prime, kappa = _well_pieces(well_radius)

    def f(x, Z):
        base = float(np.sum(w(x)) + 0.25 * x.size)
        diff = x[None, :] - Z
        return base + 0.5 * c * np.sum(diff * diff, axis=1)

    def risk_rows(X, Z):
        zbar, m2 = _moments(Z)
        base = np.sum(w(X), axis=1) + 0.25 * X.shape[1]
        quad = 0.5 * c * (np.sum(X * X, axis=1) - 2.0 * (X @ zbar) + m2)
        return base + quad

    def grad_rows(X, Z):
        zbar, _ = _moments(Z)
        return w_prime(X) + c * (X - zbar[None, :])

    def grad_batches(X, Zs):
        return w_prime(X)[:, None, :] + c * (X[:, None, :] - Zs)

    # Per-coordinate dissipativity t * w'(t) >= t^2 - 1 (tight at |t| = 1);
    # the coupling term contributes (c/2)|x|^2 - (c/2) z_radius^2 by Young.
    cert = SmoothnessCertificate(
        A0=0.25 * dim + 0.5 * c * rz * rz,
        B=c * rz,
        M=kappa + c,
        m=1.0 + 0.5 * c,
        b=float(dim) + 0.5 * c * rz * rz,
    )
    return ObjectiveSpec("double_well", dim, f, _one_row(grad_batches), cert, risk_rows=risk_rows,
                         grad_rows=grad_rows, grad_batches=grad_batches)


# Byte cap of the mixture hooks' (rows, n) temporaries: under glibc's 128 KB
# mmap threshold they reuse heap memory instead of faulting in fresh pages.
# A chunk holds one row at least, so the cap holds up to n = 8192 only; above
# that each temporary is one row of 8 n bytes.
_ROW_BYTES = 1 << 16


def _row_chunked(hook):
    """``hook(X, Z)`` on chunks of at most _ROW_BYTES / (8 n) rows of X (one
    at least). BLAS may round a chunked row apart: its kernel depends on the
    row count."""
    def chunked(X, Z):
        rows = max(1, _ROW_BYTES // (8 * len(Z)))
        if len(X) <= rows:
            return hook(X, Z)
        return np.concatenate([hook(X[i:i + rows], Z) for i in range(0, len(X), rows)])
    return chunked


def _log_cosh(t):
    # stable for large |t|: log cosh t = |t| + log1p(exp(-2|t|)) - log 2, in
    # place: past glibc's mmap threshold each temporary faults in fresh pages
    a = np.abs(t)
    u = np.multiply(a, -2.0)
    np.log1p(np.exp(u, out=u), out=u)
    u += a
    u -= math.log(2.0)
    return u


def gaussian_mixture(dim: int, ridge: float = 0.05, z_radius: float = 0.0) -> ObjectiveSpec:
    """Symmetric two-component Gaussian mixture mean-estimation loss.

    f(x, z) = (|x|^2 + |z|^2)/2 - log cosh(<x, z>) + ridge * |x|^2

    is non-negative (it dominates (|x| - |z|)^2 / 2) and genuinely non-convex
    for samples with |z| > 1. ``z_radius`` must bound the sample norms.
    """
    r0, rz = nonnegative(ridge, "ridge"), positive(z_radius, "z_radius")

    def f(x, Z):
        t = Z @ x
        return 0.5 * (float(x @ x) + np.sum(Z * Z, axis=1)) - _log_cosh(t) + r0 * float(x @ x)

    @_row_chunked
    def risk_rows(X, Z):
        T = X @ Z.T
        _, m2 = _moments(Z)
        return (0.5 + r0) * np.sum(X * X, axis=1) + 0.5 * m2 - np.mean(_log_cosh(T), axis=1)

    @_row_chunked
    def grad_rows(X, Z):
        T = X @ Z.T
        return (1.0 + 2.0 * r0) * X - np.tanh(T) @ Z / Z.shape[0]

    def grad_batches(X, Zs):
        T = (Zs @ X[:, :, None])[:, :, 0]
        G = (1.0 + 2.0 * r0) * X - np.tanh(T.T)[:, :, None] * Zs.transpose(1, 0, 2)
        return G.transpose(1, 0, 2)  # G is (l, R, d), in the memory order of Zs

    cert = SmoothnessCertificate(
        A0=0.5 * rz * rz,
        B=0.0,
        M=1.0 + 2.0 * r0 + rz * rz,
        m=0.5 + 2.0 * r0,
        b=0.5 * rz * rz,
    )
    return ObjectiveSpec("gaussian_mixture", dim, f, _one_row(grad_batches), cert,
                         risk_rows=risk_rows, grad_rows=grad_rows, grad_batches=grad_batches)


_REGISTRY = {
    "quadratic": quadratic,
    "double_well": double_well,
    "gaussian_mixture": gaussian_mixture,
}


def register_objective(name: str, factory) -> None:
    """Register a user-defined objective factory under a config name."""
    if name in _REGISTRY:
        raise ConfigurationError(f"objective name {name!r} is already registered")
    _REGISTRY[name] = factory


def make_objective(name: str, dim: int, **params) -> ObjectiveSpec:
    """Instantiate a registered objective by name."""
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown objective {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](dim, **params)
