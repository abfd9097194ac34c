"""Closed-form constants and bounds for the underdamped dynamics.

Everything here is arithmetic on the certificate (A0, B, M, m, b), the run
parameters (gamma, beta, d, lam, delta, p, q) and, where unavoidable,
empirical pilot statistics. The chain of quantities:

* drift constants (lambda_c, A_c) -- verified numerically on probe points;
* the Lyapunov function 'V' of the dynamics and its integral under the
  initial law (one evaluation of V, on rows of states);
* contraction constants (Lambda_c, alpha_c, c*, C*, epsilon_c, R_1) with the
  inputs (cert, gamma, beta, d, p) they were evaluated at, which every
  function that takes them reads from them, and the concave comparison
  function h, evaluated by composite Simpson quadrature;
* the semimetrics r and rho built from h and V (one evaluation of rho);
* uniform second-moment bounds (C^c/C^a families) and the step-size cap;
* the proof-constant chain c_2 ... c_18 and the aggregate C~ (the last two
  need sup-moment pilot statistics and are flagged "empirical");
* the three risk-bound terms B_1, B_2, B_3 and the iteration budget.

Entries are exact evaluations of their defining formulas; nothing is tuned.
Quantities that cannot be computed in closed form are estimated and labelled
as such, never silently substituted. The harness encodes the results as JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (CertificationError, ConfigurationError, NumericalError, count, index,
                     nonnegative, positive, real)
from .objectives import (
    Dataset,
    ObjectiveSpec,
    SmoothnessCertificate,
    ball_probes,
    batch_empirical_gradient,
    batch_empirical_risk,
    default_probe_radius,
)
from .rng import derive_stream

_TINY = float(np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Drift constants and the Lyapunov function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftConstants:
    """Verified pair (lambda_c, A_c) for the drift inequality

    <x, grad F(x)> >= 2 lambda_c (F(x) + gamma^2 |x|^2 / 4) - 2 A_c / beta.
    """

    lambda_c: float
    A_c: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_c", _check_lambda_c(self.lambda_c))
        object.__setattr__(self, "A_c", positive(self.A_c, "A_c"))


def _check_lambda_c(lambda_c) -> float:
    """lambda_c as a float in (0, 1/4], the range the Lyapunov function needs."""
    lambda_c = real(lambda_c, "lambda_c")
    if not 0 < lambda_c <= 0.25:
        raise ConfigurationError(f"lambda_c must lie in (0, 1/4], got {lambda_c}")
    return lambda_c


def _rates(gamma, beta):
    """The friction gamma and inverse temperature beta, positive and finite."""
    return positive(gamma, "friction gamma"), positive(beta, "beta")


def lambda_c_cap(cert: SmoothnessCertificate, gamma: float) -> float:
    """Upper end of the admissible lambda_c interval."""
    return min(0.25, cert.m / (cert.M + 2.0 * cert.B + gamma**2 / 2.0))


def closed_form_drift(cert: SmoothnessCertificate, gamma: float, beta: float) -> DriftConstants:
    """The unverified starting pair: lambda_c at half its cap and
    A_c = (beta/2)(b + 2B + A0), floored at the smallest positive float."""
    gamma, beta = _rates(gamma, beta)
    return DriftConstants(0.5 * lambda_c_cap(cert, gamma),
                          max(0.5 * beta * (cert.b + 2.0 * cert.B + cert.A0), _TINY))


def derive_drift_constants(
    cert: SmoothnessCertificate,
    gamma: float,
    beta: float,
    obj: ObjectiveSpec,
    data: Dataset,
    probes: int = 1000,
) -> DriftConstants:
    """Half the printed caps, then verify the drift inequality on probes.

    Starts from the closed-form pair (``closed_form_drift``) with
    lambda_c = min{1/4, m/(M + 2B + gamma^2/2)} / 2 and, should any probe
    violate the inequality, halves lambda_c and doubles A_c up to 20 times
    before giving up with the witnessing probe. The probes are drawn from the
    ball of radius ``default_probe_radius(cert)``.
    """
    (gamma, beta), probes = _rates(gamma, beta), count(probes, "probes")
    drift = closed_form_drift(cert, gamma, beta)
    radius = default_probe_radius(cert)
    X = ball_probes(derive_stream(0, "drift:probes"), probes, obj.dim, radius)
    risks = batch_empirical_risk(X, obj, data)
    grads = batch_empirical_gradient(X, obj, data)
    lhs = np.sum(grads * X, axis=1)
    norm2 = np.sum(X * X, axis=1)
    for _ in range(21):
        rhs = 2.0 * drift.lambda_c * (risks + gamma**2 * norm2 / 4.0) - 2.0 * drift.A_c / beta
        slack = lhs - rhs
        j = int(np.argmin(slack))
        if slack[j] >= -1e-9 * (1.0 + np.abs(rhs[j])):
            return drift
        drift = DriftConstants(0.5 * drift.lambda_c, 2.0 * drift.A_c)
    raise CertificationError(
        "drift inequality could not be certified after 20 shrinks",
        witness={"x": X[j].tolist(), "slack": float(slack[j])},
    )


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters of the energy functional

    V(x, v) = beta F(x) + (beta gamma^2 / 4)(|x + v/gamma|^2 + |v/gamma|^2
              - lambda_c |x|^2).

    ``value_rows`` is the one evaluation of V, with F read through
    ``batch_empirical_risk``; ``value`` is its one-row case.
    """

    beta: float
    gamma: float
    lambda_c: float
    obj: ObjectiveSpec
    data: Dataset

    def __post_init__(self):
        (gamma, beta), lambda_c = _rates(self.gamma, self.beta), _check_lambda_c(self.lambda_c)
        for name, value in zip(("gamma", "beta", "lambda_c"), (gamma, beta, lambda_c)):
            object.__setattr__(self, name, value)

    def value(self, x, v) -> float:
        return float(self.value_rows(x, v)[0])

    def value_rows(self, X, V) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        g = self.gamma
        W = V / g
        quad = (np.sum((X + W) ** 2, axis=1) + np.sum(W ** 2, axis=1)
                - self.lambda_c * np.sum(X * X, axis=1))
        return self.beta * batch_empirical_risk(X, self.obj, self.data) + 0.25 * self.beta * g * g * quad


def lyapunov_lower_bound(params: LyapunovParams, x, v) -> float:
    """Known lower envelope: max of the quadratic floors in |x| and |v|."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    one = 1.0 - 2.0 * params.lambda_c
    return max(
        0.125 * one * params.beta * params.gamma**2 * float(x @ x),
        0.25 * one * params.beta * float(v @ v),
    )


def initial_lyapunov_integral(init, lyap: LyapunovParams, dim: int) -> float:
    """Integral of the Lyapunov functional under the initial law: the mean of
    V over draws of it, 4096 for a Gaussian and the one row of a point mass,
    whose integral is V at the point.
    """
    dim, rng = count(dim, "dim"), derive_stream(0, "mu0:lyapunov")
    X, V = init.sample(dim, rng, size=1 if init.kind == "point" else 4096)
    return float(np.mean(lyap.value_rows(X, V)))


# ---------------------------------------------------------------------------
# Contraction constants and the comparison function h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionConstants:
    """Constants of the exponential contraction estimate for the dynamics, with
    the certificate, friction gamma, inverse temperature beta, dimension d and
    Hoelder exponent p they were evaluated at.

    ``c_star`` is the contraction rate, ``C_star`` the prefactor; the
    auxiliary pair (Lambda_c, alpha_c) solves a two-way fixed point, and
    ``eta_c = 1 / Lambda_c`` follows from substituting L_c = beta M into the
    two displays that define alpha_c. c* and C* are exponential in
    Lambda_c = O(beta + d), so the logs are the evaluated quantities:
    ``c_star = exp(log_c_star)`` reads 0.0 below float range, ``C_star =
    exp(log_C_star)`` reads inf above it, and ``epsilon_c`` follows c_star
    (``log_epsilon_c`` is its log).
    """

    cert: SmoothnessCertificate
    gamma: float
    beta: float
    d: int
    p: float
    c_star: float
    C_star: float
    Lambda_c: float
    alpha_c: float
    epsilon_c: float
    R_1: float
    eta_c: float
    A_c: float
    log_c_star: float
    log_C_star: float
    log_epsilon_c: float


def _exp(x: float) -> float:
    """exp(x), reading inf above float range (math.exp raises there)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ln(x: float) -> float:
    """Natural log, reading -inf at 0."""
    return math.log(x) if x > 0 else -math.inf


def _resolve_alpha_lambda(mg2: float, lam_c: float, a_c: float, d: int):
    """Damped fixed-point iteration for (alpha_c, Lambda_c) from alpha = mg2."""

    def lam_of_alpha(alpha):
        one = 1.0 + 2.0 * alpha + 2.0 * alpha * alpha
        return 2.4 * one * (d + a_c) * mg2 / (lam_c * (1.0 - 2.0 * lam_c))

    alpha = mg2
    converged = False
    for _ in range(200):
        Lam = lam_of_alpha(alpha)
        alpha_next = (1.0 + 1.0 / Lam) * mg2
        if abs(alpha_next - alpha) <= 1e-13 * abs(alpha_next):
            alpha = alpha_next
            converged = True
            break
        alpha = 0.5 * (alpha + alpha_next)
    if not converged:
        raise NumericalError("Lambda_c / alpha_c fixed point did not converge in 200 iterations")
    Lam = lam_of_alpha(alpha)
    alpha = (1.0 + 1.0 / Lam) * mg2
    return alpha, lam_of_alpha(alpha)


def contraction_constants(
    drift: DriftConstants,
    cert: SmoothnessCertificate,
    gamma: float,
    beta: float,
    d: int,
    p: float = 2.0,
) -> ContractionConstants:
    """Resolve the (Lambda_c, alpha_c) fixed point, then the derived constants.

    alpha_c = (1 + 1/Lambda_c) M / gamma^2 and Lambda_c is an explicit
    function of alpha_c; the pair is solved by damped iteration from
    alpha_c = M / gamma^2 to relative tolerance 1e-13 (both residuals).
    c* and C* are evaluated once, in log space, so a stiff regime yields
    finite logs instead of an error.
    """
    p, (gamma, beta), d = real(p, "p"), _rates(gamma, beta), count(d, "d")
    if not 1.0 <= p <= 2.0:
        raise ConfigurationError(f"contraction constants require p in [1, 2], got {p}")
    lam_c, a_c = drift.lambda_c, drift.A_c
    mg2 = cert.M / gamma**2
    alpha, Lam = _resolve_alpha_lambda(mg2, lam_c, a_c, d)
    one = 1.0 + 2.0 * alpha + 2.0 * alpha * alpha
    log_c_star = math.log(gamma / (384.0 * p)) + min(
        math.log(lam_c) + math.log(mg2),
        0.5 * math.log(Lam) - Lam + math.log(mg2),
        0.5 * math.log(Lam) - Lam,
    )
    c_star = math.exp(log_c_star)
    eps_c = 4.0 * c_star / (gamma * (d + a_c))
    log_eps_c = log_c_star + math.log(4.0 / (gamma * (d + a_c)))
    R_1 = (
        4.0
        * math.sqrt(1.2)
        * math.sqrt(one)
        * math.sqrt(d + a_c)
        / (math.sqrt(beta) * gamma * math.sqrt(lam_c - 2.0 * lam_c * lam_c))
    )
    # C* = 2^{1/p} exp((2 + Lambda_c)/p) ((1 + gamma)/min(1, alpha_c)) max(1, inner)^{1/p}
    # with inner = 4 (max(1, R_1^{p-2}) / min(1, R_1)) one (d + A_c) / (beta gamma c*)
    log_inner = math.log(
        4.0
        * (max(1.0, R_1 ** (p - 2.0)) / min(1.0, R_1))
        * one
        * (d + a_c)
        / (beta * gamma)
    ) - log_c_star
    log_C_star = (
        (math.log(2.0) + 2.0 + Lam + max(0.0, log_inner)) / p
        + math.log((1.0 + gamma) / min(1.0, alpha))
    )
    C_star = _exp(log_C_star)
    return ContractionConstants(
        cert=cert, gamma=gamma, beta=beta, d=d, p=p, c_star=c_star, C_star=C_star,
        Lambda_c=Lam, alpha_c=alpha, epsilon_c=eps_c, R_1=R_1, eta_c=1.0 / Lam, A_c=a_c,
        log_c_star=log_c_star, log_C_star=log_C_star, log_epsilon_c=log_eps_c,
    )


def _cumulative_simpson(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cumulative composite Simpson integral of y over the nodes s (at least
    three, increasing), 0 at s[0].

    The unequal-interval rule of scipy's ``cumulative_simpson(y, x=s,
    initial=0.0)`` (eqn (8) of Cartwright, J. Math. Sci. Math. Educ. 12(2),
    2017) in scipy's operation order, so it returns scipy's bits: the parabola
    through nodes k, k+1, k+2 gives the integral over [s_k, s_{k+1}] (h1) and,
    run on the reversed arrays, over [s_{k+1}, s_{k+2}] (h2); even intervals
    take h1, odd ones and the last take h2, and the cumulative sum follows.
    """
    def first_halves(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          - x21x21_x31x32 * y[2:])

    dx = np.diff(s)
    h1 = first_halves(y, dx)
    h2 = first_halves(y[::-1], dx[::-1])[::-1]
    sub = np.empty(dx.size)
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    return np.concatenate(([0.0], np.cumsum(sub)))


# Intervals of the composite-Simpson grid on which h is evaluated (even)
_H_INTERVALS = 4096


def h_function(cc: ContractionConstants, r: float) -> float:
    """The concave comparison function h evaluated at r.

    h(r) = integral_0^{min(r, R_1)} phi(s) g(s) ds with a Gaussian weight phi
    and the correction factor g carrying the contraction rate; h(0) = 0,
    h'(0+) = 1, and h is constant on [R_1, inf). It is the last entry of
    ``h_profile`` on [0, min(r, R_1)].
    """
    r = nonnegative(r, "r")
    if r == 0.0:
        return 0.0
    return float(h_profile(cc, r)[1][-1])


def h_profile(cc: ContractionConstants, r_max: Optional[float] = None):
    """h over an even grid on [0, r_eff], r_eff = min(r_max, R_1); returns (s, h(s)).

    One cumulative pass of composite Simpson over ``_H_INTERVALS`` intervals
    (``rho_cost`` interpolates on this profile). With g(s) = 1 - (9/4) c*
    gamma beta int_0^s Phi(u) / phi(u) du, h' = phi g >= 0 and h'' <= 0 as
    long as g stays nonnegative; g turning negative (or NaN) before r_eff
    means the construction has left its validity range, and that radius is
    reported as a NumericalError, not repaired.
    """
    gamma, beta = cc.gamma, cc.beta
    r_eff = cc.R_1 if r_max is None else min(positive(r_max, "r_max"), cc.R_1)
    s = np.linspace(0.0, r_eff, _H_INTERVALS + 1)
    a = (1.0 + cc.eta_c) * (beta * cc.cert.M) / 8.0 + (
        gamma**2 * beta * cc.epsilon_c * max(1.0, 1.0 / (2.0 * cc.alpha_c)) / 2.0
    )
    phi = np.exp(-a * s * s)
    Phi = _cumulative_simpson(phi, s)
    # Phi / phi ~ exp(a s^2) overflows on the wide grids of stiff certificates:
    # there it is carried relative to exp(shift), c* through its log, and the
    # negligible terms near s = 0 read 0; other grids have shift 0
    shift = max(0.0, a * r_eff * r_eff - 600.0)
    with np.errstate(over="ignore"):
        inner = _cumulative_simpson(Phi / np.exp(shift - a * s * s), s)
    scaled_c_star = cc.c_star if shift == 0.0 else _exp(cc.log_c_star + shift)
    g = 1.0 - 2.25 * scaled_c_star * gamma * beta * inner
    bad = ~(g >= 0.0)  # NaN included
    if bad.any():
        j = int(np.argmax(bad))
        what = "went negative" if g[j] < 0.0 else "is NaN"
        raise NumericalError(f"h correction factor {what} at r = {s[j]:.6g}")
    h = _cumulative_simpson(phi * g, s)
    return s, h


# ---------------------------------------------------------------------------
# The semimetrics r and rho
# ---------------------------------------------------------------------------

def rho_cost(cc: ContractionConstants, lyap: LyapunovParams, A: np.ndarray,
             B: np.ndarray) -> np.ndarray:
    """rho = h(r) (1 + eps_c V(x1, v1) + eps_c V(x2, v2)) between the (x, v)
    rows of A (n, 2d) and B (k, 2d): (n, k), with the semimetric
    r = alpha_c |x1 - x2| + |x1 - x2 + (v1 - v2) / gamma| at ``cc.gamma``;
    ``lyap`` supplies V only. The one evaluation of r and rho, the cost W_rho
    of B_1 is measured in (``metrics.rho_distance_cloud``): r is capped at
    R_1, where h is flat, and h interpolated on one ``h_profile``."""
    d = A.shape[1] // 2
    gamma = cc.gamma
    Xa, Va = A[:, :d], A[:, d:]
    Xb, Vb = B[:, :d], B[:, d:]
    DX = Xa[:, None, :] - Xb[None, :, :]
    DXV = DX + (Va[:, None, :] - Vb[None, :, :]) / gamma
    r = cc.alpha_c * np.linalg.norm(DX, axis=2) + np.linalg.norm(DXV, axis=2)
    r_eff = np.minimum(r, cc.R_1)
    r_max = float(r_eff.max())
    if r_max <= 0.0:
        h_r = np.zeros_like(r)
    else:
        grid, h_vals = h_profile(cc, r_max=r_max)
        h_r = np.interp(r_eff, grid, h_vals)
    va = lyap.value_rows(Xa, Va)
    vb = lyap.value_rows(Xb, Vb)
    return h_r * (1.0 + cc.epsilon_c * (va[:, None] + vb[None, :]))


def rho_semimetric(cc: ContractionConstants, lyap: LyapunovParams,
                   state_a, state_b) -> float:
    """rho between two states (x, v): the 1x1 entry of ``rho_cost``."""
    a, b = (np.concatenate([np.asarray(x, dtype=float), np.asarray(v, dtype=float)])[None]
            for x, v in (state_a, state_b))
    return float(rho_cost(cc, lyap, a, b)[0, 0])


# ---------------------------------------------------------------------------
# Uniform moment bounds and the step-size cap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentBoundConstants:
    """Second-moment envelopes of the continuous (C^c) and discrete (C^a)
    dynamics, the constants K_1 / K_2 controlling the discrete drift, and the
    step-size cap under which the discrete bounds hold."""

    C_c_x: float
    C_c_v: float
    C_a_x: float
    C_a_v: float
    K_1: float
    K_2: float
    lambda_cap: float


def moment_bound_constants(
    drift: DriftConstants,
    cert: SmoothnessCertificate,
    gamma: float,
    beta: float,
    d: int,
    mu0_lyapunov_integral: float,
    delta: float = 0.0,
) -> MomentBoundConstants:
    """Evaluate the moment-bound constants for dimension d and noise level delta.

    The continuous-time envelopes use 5 (d + A_c) / lambda_c in the bracket,
    the discrete-time ones 8 (d + A_c) / lambda_c; with B = 0 the first arm
    of the step cap is vacuous (infinite). delta must be finite and >= 0.
    """
    (gamma, beta), d = _rates(gamma, beta), count(d, "d")
    delta = nonnegative(delta, "delta")
    mu0 = nonnegative(mu0_lyapunov_integral, "mu0_lyapunov_integral")
    lam_c, a_c = drift.lambda_c, drift.A_c
    M, B = cert.M, cert.B
    one = 1.0 - 2.0 * lam_c
    base5 = mu0 + 5.0 * (d + a_c) / lam_c
    base8 = mu0 + 8.0 * (d + a_c) / lam_c
    c_c_x = 8.0 * base5 / (one * beta * gamma**2)
    c_c_v = 4.0 * base5 / (one * beta)
    c_a_x = 8.0 * base8 / (one * beta * gamma**2)
    c_a_v = 4.0 * base8 / (one * beta)
    half_g_d = 0.5 + gamma + delta
    K1 = max(
        32.0 * M**2 * half_g_d / (one * beta * gamma**2),
        8.0 * (M / 2.0 + gamma**2 / 4.0 - gamma**2 * lam_c / 4.0 + gamma) / (beta * one),
    )
    K2 = 2.0 * B**2 * half_g_d
    cap_from_k2 = gamma * (d + a_c) / (K2 * beta) if K2 > 0 else math.inf
    lambda_cap = min(cap_from_k2, gamma * lam_c / (2.0 * K1))
    return MomentBoundConstants(
        C_c_x=c_c_x,
        C_c_v=c_c_v,
        C_a_x=c_a_x,
        C_a_v=c_a_v,
        K_1=K1,
        K_2=K2,
        lambda_cap=lambda_cap,
    )


# ---------------------------------------------------------------------------
# Proof-constant chain
# ---------------------------------------------------------------------------

def in_range(value: float, log_value: float):
    """``value`` itself when it is in float range, else a record of it with its
    status ('underflow' or 'overflow') and the log10 of the true quantity."""
    if (value != 0.0 and math.isfinite(value)) or not math.isfinite(log_value):
        return value
    status = "underflow" if value == 0.0 else "overflow"
    return {"value": value, "status": status, "log10": log_value / math.log(10.0)}


@dataclass(frozen=True)
class ConstantEntry:
    value: float
    status: str  # "exact" | "empirical"
    formula: str
    log: Optional[float] = None  # natural log, for entries evaluated in log space


def proof_constants(
    cc: ContractionConstants,
    moment: MomentBoundConstants,
    pilot_sup_v2: Optional[float] = None,
) -> dict:
    """The c_2 ... c_18 chain and the aggregate C~.

    All entries are exact formula evaluations except ``c_18`` (which needs
    the sup over the chain of E[V^2]; supplied as ``pilot_sup_v2`` from a
    pilot run) and hence ``C_tilde``. Without pilot statistics those two
    entries are absent. c_7 is exponential in M^2, so it and the entries built
    on it are evaluated in log space, like C*, and keep finite logs. No entry
    depends on the noise level delta, as ``moment``'s envelopes do not.
    """
    gamma, beta = cc.gamma, cc.beta
    M, B = cc.cert.M, cc.cert.B
    cax, cav = moment.C_a_x, moment.C_a_v
    ccx, ccv = moment.C_c_x, moment.C_c_v
    log_m2 = _ln(4.0 * M**2)
    log_root2 = _ln(M * M * cax + B * B)
    log_c2 = math.log(4.0) + M + 0.5 * log_root2
    log_c3 = math.log(2.0) + M + 0.5 * log_root2
    c8 = 3.0 * gamma**2 * cav + 6.0 * M**2 * cax + 6.0 * B**2 + 6.0 * gamma / beta
    c9 = max(4.0 * gamma**2 * c8 + 4.0 * M**2 * cav, 2.0 * c8)
    c10 = max(4.0 * gamma**2 + 2.0, 4.0 * M**2)
    log_c7 = 0.5 * math.log(2.0 * c9) + c10 / 2.0
    log_c2_c7 = float(np.logaddexp(log_c2, log_c7))
    c14 = 3.0 * gamma**2 * ccv + 6.0 * M**2 * ccx + 6.0 * B**2 + 6.0 * gamma / beta
    log_c15 = max(float(np.logaddexp(math.log(2.0) + log_root2, log_m2 + 2.0 * log_c3)),
                  log_m2 + 2.0 * log_c2_c7)
    log_c16 = max(log_c2_c7, log_c3, 0.5 * math.log(c14), 0.5 * log_c15)
    c17 = 3.0 * max(1.0 + cc.alpha_c, 1.0 / gamma)

    def exact_log(log_value, formula):
        return ConstantEntry(_exp(log_value), "exact", formula, log_value)

    table = {
        "c_2": exact_log(log_c2, "4 exp(M) sqrt(M^2 C_a_x + B^2)"),
        "c_3": exact_log(log_c3, "2 exp(M) sqrt(M^2 C_a_x + B^2)"),
        "c_7": exact_log(log_c7, "sqrt(2 c_9 exp(c_10))"),
        "c_8": ConstantEntry(c8, "exact", "3 g^2 C_a_v + 6 M^2 C_a_x + 6 B^2 + 6 g / beta"),
        "c_9": ConstantEntry(c9, "exact", "max(4 g^2 c_8 + 4 M^2 C_a_v, 2 c_8)"),
        "c_10": ConstantEntry(c10, "exact", "max(4 g^2 + 2, 4 M^2)"),
        "c_14": ConstantEntry(c14, "exact", "3 g^2 C_c_v + 6 M^2 C_c_x + 6 B^2 + 6 g / beta"),
        "c_15": exact_log(
            log_c15, "max(2 (M^2 C_a_x + B^2) + 4 M^2 c_3^2, 4 M^2 (c_2 + c_7)^2)"),
        "c_16": exact_log(log_c16, "max(c_2 + c_7, c_3, sqrt(c_14), sqrt(c_15))"),
        "c_17": ConstantEntry(c17, "exact", "3 max(1 + alpha_c, 1/gamma)"),
    }
    if pilot_sup_v2 is not None:
        sup_v2 = nonnegative(pilot_sup_v2, "pilot_sup_v2")
        c18 = c17 * (1.0 + 2.0 * cc.epsilon_c * math.sqrt(sup_v2))
        # log(e^{-c*} / (1 - e^{-c*})) = -log(expm1(c*)); below e^-40,
        # expm1(c*) is c* to float precision (and c* may have underflowed to 0)
        log_tail = -math.log(math.expm1(cc.c_star)) if cc.log_c_star > -40.0 else -cc.log_c_star
        log_c_tilde = math.log(2.0) + max(
            log_c2,
            log_c3,
            log_c7,
            cc.log_C_star + (math.log(c18) + log_c16) / cc.p + log_tail,
        )
        table["c_18"] = ConstantEntry(
            c18, "empirical", "c_17 (1 + 2 eps_c sqrt(sup_k E V^2)) [pilot-estimated sup]")
        table["C_tilde"] = ConstantEntry(
            _exp(log_c_tilde),
            "empirical",
            "2 max(c_2, c_3, c_7, C* (c_18 c_16)^{1/p} e^{-c*} / (1 - e^{-c*}))",
            log_c_tilde,
        )
    return table


# ---------------------------------------------------------------------------
# Risk bounds and iteration budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskBound:
    """The three terms bounding the expected population risk, plus an echo of
    every input that produced them."""

    B_1: float
    B_2: float
    B_3: float
    log_B_1: float
    inputs: dict = field(default_factory=dict)


def check_pq(p: float, q: int):
    """The pairing 1/p + 1/(2q) = 1 with integer q (so p = 2q / (2q - 1));
    returns (p, q) as a float and an int."""
    p, q = real(p, "p"), count(q, "q")
    if not 1.0 < p <= 2.0:
        raise ConfigurationError(f"p must lie in (1, 2], got {p}")
    if abs(1.0 / p + 1.0 / (2.0 * q) - 1.0) > 1e-9:
        raise ConfigurationError(f"(p, q) = ({p}, {q}) violates 1/p + 1/(2q) = 1")
    return p, q


def log_sobolev_constant(cert: SmoothnessCertificate, beta: float, d: int,
                         lambda_star: float) -> float:
    """c_LS from the certificate and a user-supplied uniform spectral gap."""
    lambda_star = positive(lambda_star, "lambda_star")
    m, M = cert.m, cert.M
    return (2.0 * m * m + 8.0 * M * M) / (m * m * M * beta) + (
        (6.0 * M * (d + beta) / m + 2.0) / lambda_star
    )


def risk_bound(
    cc: ContractionConstants,
    proof: Mapping[str, ConstantEntry],
    n: int,
    lam: float,
    delta: float,
    k: int,
    q: int,
    sigma: float,
    w_rho_init: float,
    c_ls: Optional[float] = None,
    lambda_star: Optional[float] = None,
) -> RiskBound:
    """Evaluate the three risk-bound terms.

    B_1 = (M sigma + B)(C~ (lam^{1/2p} + delta^{1/2p})
                         + C* w_rho^{1/p} exp(-c* k lam)),
    B_2 = (4 beta c_LS / n)((M^2/m)(b + d/beta) + B^2),
    B_3 = (d / 2 beta) log((e M / m)(b beta / d + 1)).

    ``c_ls`` may be supplied directly; otherwise it is computed from the
    user-supplied spectral gap ``lambda_star``. ``sigma`` is the 2q-moment
    scale and ``w_rho_init`` the rho-distance of the initial law from the
    long-run law, both supplied by the caller (typically pilot estimates).
    sigma must be finite and >= 0, k >= 0 and c_ls finite and > 0; q must
    pair with ``cc.p`` (``check_pq``). The certificate, gamma, beta and d are
    ``cc``'s.
    """
    (p, q), n = check_pq(cc.p, q), count(n, "n")
    cert, gamma, beta, d = cc.cert, cc.gamma, cc.beta, cc.d
    lam, delta, k = nonnegative(lam, "lam"), nonnegative(delta, "delta"), index(k, "k")
    sigma, w_rho_init = nonnegative(sigma, "sigma"), nonnegative(w_rho_init, "w_rho_init")
    if "C_tilde" not in proof:
        raise ConfigurationError("risk_bound needs the empirical C_tilde entry")
    if c_ls is None:
        if lambda_star is None:
            raise ConfigurationError("supply either c_ls or lambda_star")
        c_ls = log_sobolev_constant(cert, beta, d, lambda_star)
    c_ls = positive(c_ls, "c_ls")
    M, B, m, b = cert.M, cert.B, cert.m, cert.b
    c_tilde = proof["C_tilde"]
    expo = 1.0 / (2.0 * p)
    log_b1 = _ln(M * sigma + B) + float(np.logaddexp(
        c_tilde.log + _ln(lam**expo + delta**expo),
        cc.log_C_star + _ln(w_rho_init) / p - cc.c_star * k * lam,
    ))
    b2 = (4.0 * beta * c_ls / n) * ((M * M / m) * (b + d / beta) + B * B)
    b3 = (d / (2.0 * beta)) * math.log((math.e * M / m) * (b * beta / d + 1.0))
    inputs = {
        "lambda": lam,
        "delta": delta,
        "k": k,
        "p": p,
        "q": q,
        "sigma": sigma,
        "w_rho_init": w_rho_init,
        "c_ls": c_ls,
        "lambda_star": lambda_star,
        "n": n,
        "d": d,
        "beta": beta,
        "gamma": gamma,
        "C_tilde": in_range(c_tilde.value, c_tilde.log),
        "C_star": in_range(cc.C_star, cc.log_C_star),
        "c_star": in_range(cc.c_star, cc.log_c_star),
    }
    return RiskBound(B_1=_exp(log_b1), B_2=b2, B_3=b3, log_B_1=log_b1, inputs=inputs)


def iteration_budget(cc: ContractionConstants, c_tilde: ConstantEntry, eps: float,
                     w_rho_init: float):
    """Step-size/noise cap and minimum iteration count for accuracy eps.

    Returns ``(cap, k_min)`` where the run must satisfy
    lam^{1/(2p)} + delta^{1/(2p)} <= cap = eps / (2 C~) and k >= k_min.
    When the initial transient is already below eps (log argument <= 1, or
    w_rho_init = 0) the budget is zero. ``c_tilde`` is C~ of ``proof_constants``,
    whose log stays finite beyond float range; both results go through in_range.
    """
    eps, w_rho, p = positive(eps, "eps"), nonnegative(w_rho_init, "w_rho_init"), cc.p
    log_ct = c_tilde.log
    log_cap = math.log(eps) - math.log(2.0) - log_ct
    cap = in_range(_exp(log_cap), log_cap)
    log_arg = cc.log_C_star + _ln(w_rho) / p - math.log(eps)
    if log_arg <= 0.0:
        return cap, 0
    log_k = (
        2.0 * p * (math.log(2.0) + log_ct)
        - cc.log_c_star
        - 2.0 * p * math.log(eps)
        + math.log(log_arg)
    )
    k_real = _exp(log_k)
    return cap, int(math.ceil(k_real)) if math.isfinite(k_real) else in_range(k_real, log_k)


# ---------------------------------------------------------------------------
# High-moment certificate for the Lyapunov functional
# ---------------------------------------------------------------------------

def gaussian_norm_moment(d: int, j: int) -> float:
    """E |xi|^j for a standard Gaussian in R^d (chi distribution moment)."""
    d, j = count(d, "d"), index(j, "j")
    return float(2.0 ** (j / 2.0) * math.exp(math.lgamma((d + j) / 2.0) - math.lgamma(d / 2.0)))


def lyapunov_moment_certificate(
    drift: DriftConstants,
    cert: SmoothnessCertificate,
    gamma: float,
    beta: float,
    d: int,
    q: int,
    lam: float,
    v0_lyapunov: float,
    pilot_max_v2q: Optional[float] = None,
) -> dict:
    """Geometric-decay certificate for E[V^{2q}] along the discrete chain.

    Computes the proof constants (K_1, K_2, P_1, P_2, c_19, M~_1, M~, N~)
    with all Gaussian norm moments in closed form, and reports the implied
    bound  E[V_k^{2q}] <= (1 - lam gamma lambda_c / 4)^k V_0^{2q}
                          + 4 N~ / (gamma lambda_c).
    K_1 and K_2 are :func:`moment_bound_constants`' at delta = 1, where its
    2 (1/2 + gamma + delta) is 3 + 2 gamma; both grow with delta. K_1 is
    scaled by beta, as V carries a factor of beta.
    When a pilot empirical maximum of V^{2q} is supplied the report states
    whether it complies with the (k = 0) envelope.
    """
    (gamma, beta), d, q = _rates(gamma, beta), count(d, "d"), count(q, "q")
    if q not in (1, 2):
        raise ConfigurationError(f"q must be 1 or 2, got {q}")
    lam, v0_lyapunov = positive(lam, "lam"), nonnegative(v0_lyapunov, "v0_lyapunov")
    lam_c, a_c = drift.lambda_c, drift.A_c
    M, B = cert.M, cert.B
    one = 1.0 - 2.0 * lam_c
    phi = 1.0 - lam * gamma * lam_c / 2.0
    moment = moment_bound_constants(drift, cert, gamma, beta, d, 0.0, delta=1.0)
    K1, K2 = beta * moment.K_1, moment.K_2
    P1 = 2.0 * max(
        32.0 * gamma * (3.0 * gamma**2 + 10.0 * M * M) / (beta * one * gamma**2),
        16.0 * gamma * (3.0 + 2.0 * (1.0 - lam * gamma) ** 2) / (beta * one),
    )
    P2 = 20.0 * gamma * B * B / beta
    c19 = gamma * a_c + beta * K2 + gamma * d

    chi = [gaussian_norm_moment(d, j) for j in range(4 * q + 1)]
    e2, e4, e2q = chi[2], chi[4], chi[2 * q]
    # E (a + b S + gamma S^2)^{2q} with S = |xi|, expanded over chi moments
    a = gamma * a_c + beta * K2
    b = beta * math.sqrt(P2)
    base = np.array([a, b, gamma])
    coeffs = base
    for _ in range(2 * q - 1):
        coeffs = np.convolve(coeffs, base)
    e_poly = float(sum(c * e for c, e in zip(coeffs, chi)))

    m1 = max(
        (a * a + gamma**2 * e4 + beta**2 * d * P2) / (beta * d * P1),
        e_poly ** (1.0 / q) / (beta * P1 * e2q ** (1.0 / q)),
    )
    gl = gamma * lam_c
    m_tilde = max(
        m1,
        24.0 * c19 * q / gl,
        72.0 * q * (2 * q - 1) * 2.0 ** (2 * q - 3) * beta * d * P1 / gl,
        (12.0 * q * (2 * q - 1) * 2.0 ** (4 * q - 3) * beta**q * P1**q * e2q / gl)
        ** (1.0 / q),
    )
    n_tilde = (
        2.0 * c19 * q * m_tilde ** (2 * q - 1)
        + 6.0 * q * (2 * q - 1) * 2.0 ** (2 * q - 3) * beta * d * P1 * m_tilde ** (2 * q - 1)
        + q * (2 * q - 1) * 2.0 ** (4 * q - 3) * beta**q * P1**q * e2q * m_tilde**q
    )
    decay = 1.0 - lam * gamma * lam_c / 4.0
    bound_tail = 4.0 * n_tilde / gl
    bound_sup = v0_lyapunov ** (2 * q) + bound_tail
    report = {
        "q": q,
        "lambda": lam,
        "phi": phi,
        "K_1": K1,
        "K_2": K2,
        "P_1": P1,
        "P_2": P2,
        "c_19": c19,
        "M_tilde_1": m1,
        "M_tilde": m_tilde,
        "N_tilde": n_tilde,
        "decay_factor": decay,
        "v0_lyapunov": v0_lyapunov,
        "bound_tail": bound_tail,
        "bound_sup": bound_sup,
        "gaussian_moments": {"E|xi|^2": e2, "E|xi|^4": e4, f"E|xi|^{2*q}": e2q},
    }
    if pilot_max_v2q is not None:
        report["pilot_max_v2q"] = nonnegative(pilot_max_v2q, "pilot_max_v2q")
        report["satisfied"] = bool(report["pilot_max_v2q"] <= bound_sup)
    return report
