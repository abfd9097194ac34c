"""Closed-form constants and bounds for the underdamped dynamics.

Everything here is arithmetic on the certificate (A0, B, M, m, b), the run
parameters (gamma, beta, d, lam, delta, p, q) and, where unavoidable,
empirical pilot statistics. The chain of quantities:

* drift constants (lambda_c, A_c) -- verified numerically on probe points;
* the Lyapunov function 'V' of the dynamics and its integral under the
  initial law;
* contraction constants (Lambda_c, alpha_c, c*, C*, epsilon_c, R_1) and the
  concave comparison function h, evaluated by composite Simpson quadrature;
* the semimetrics r and rho built from h and V;
* uniform second-moment bounds (C^c/C^a families) and the step-size cap;
* the proof-constant chain c_2 ... c_18 and the aggregate C~ (the last two
  need sup-moment pilot statistics and are flagged "empirical");
* the three risk-bound terms B_1, B_2, B_3 and the iteration budget;
* growth orders of the constants across a (beta, d) grid.

Entries are exact evaluations of their defining formulas; nothing is tuned.
Quantities that cannot be computed in closed form are estimated and labelled
as such, never silently substituted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import cumulative_simpson
from scipy.special import gammaln

from .errors import CertificationError, ConfigurationError, NumericalError
from .objectives import (
    Dataset,
    ObjectiveSpec,
    SmoothnessCertificate,
    batch_empirical_gradient,
    batch_empirical_risk,
    default_probe_radius,
    empirical_risk,
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
        if not (0 < self.lambda_c <= 0.25):
            raise ConfigurationError("lambda_c must lie in (0, 1/4]")
        if self.A_c <= 0:
            raise ConfigurationError("A_c must be positive")


def lambda_c_cap(cert: SmoothnessCertificate, gamma: float) -> float:
    """Upper end of the admissible lambda_c interval."""
    return min(0.25, cert.m / (cert.M + 2.0 * cert.B + gamma**2 / 2.0))


def derive_drift_constants(
    cert: SmoothnessCertificate,
    gamma: float,
    beta: float,
    obj: ObjectiveSpec,
    data: Dataset,
    probes: int = 1000,
    radius: Optional[float] = None,
    seed: int = 0,
) -> DriftConstants:
    """Half the printed caps, then verify the drift inequality on probes.

    Starts from lambda_c = min{1/4, m/(M + 2B + gamma^2/2)} / 2 and
    A_c = (beta/2)(b + 2B + A0) (floored at the smallest positive float) and,
    should any probe violate the inequality, halves lambda_c and doubles A_c
    up to 20 times before giving up with the witnessing probe.
    """
    if not gamma > 0:
        raise ConfigurationError("friction gamma must be positive here")
    lam_c = 0.5 * lambda_c_cap(cert, gamma)
    a_c = max(0.5 * beta * (cert.b + 2.0 * cert.B + cert.A0), _TINY)
    if radius is None:
        radius = default_probe_radius(cert)
    rng = derive_stream(seed, "drift:probes")
    d = obj.dim
    U = rng.standard_normal((probes, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    R = radius * rng.uniform(0.0, 1.0, size=(probes, 1)) ** (1.0 / d)
    X = U * R
    risks = batch_empirical_risk(X, obj, data)
    grads = batch_empirical_gradient(X, obj, data)
    lhs = np.sum(grads * X, axis=1)
    norm2 = np.sum(X * X, axis=1)
    for _ in range(21):
        rhs = 2.0 * lam_c * (risks + gamma**2 * norm2 / 4.0) - 2.0 * a_c / beta
        slack = lhs - rhs
        j = int(np.argmin(slack))
        if slack[j] >= -1e-9 * (1.0 + np.abs(rhs[j])):
            return DriftConstants(lambda_c=lam_c, A_c=a_c)
        lam_c *= 0.5
        a_c *= 2.0
    raise CertificationError(
        "drift inequality could not be certified after 20 shrinks",
        witness={"x": X[j].tolist(), "slack": float(slack[j])},
    )


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters of the energy functional

    V(x, v) = beta F(x) + (beta gamma^2 / 4)(|x + v/gamma|^2 + |v/gamma|^2
              - lambda_c |x|^2).
    """

    beta: float
    gamma: float
    lambda_c: float
    obj: ObjectiveSpec
    data: Dataset

    def value(self, x, v) -> float:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        g = self.gamma
        quad = (
            float(np.sum((x + v / g) ** 2))
            + float(np.sum((v / g) ** 2))
            - self.lambda_c * float(np.sum(x * x))
        )
        return self.beta * empirical_risk(x, self.obj, self.data) + 0.25 * self.beta * g * g * quad

    def value_rows(self, X, V) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = np.atleast_2d(np.asarray(V, dtype=float))
        g = self.gamma
        quad = (
            np.sum((X + V / g) ** 2, axis=1)
            + np.sum((V / g) ** 2, axis=1)
            - self.lambda_c * np.sum(X * X, axis=1)
        )
        return self.beta * batch_empirical_risk(X, self.obj, self.data) + 0.25 * self.beta * g * g * quad


def lyapunov(params: LyapunovParams, x, v) -> float:
    """Evaluate the Lyapunov functional at a single (x, v)."""
    return params.value(x, v)


def lyapunov_lower_bound(params: LyapunovParams, x, v) -> float:
    """Known lower envelope: max of the quadratic floors in |x| and |v|."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    one = 1.0 - 2.0 * params.lambda_c
    return max(
        0.125 * one * params.beta * params.gamma**2 * float(x @ x),
        0.25 * one * params.beta * float(v @ v),
    )


def initial_lyapunov_integral(init, lyap: LyapunovParams, dim: int,
                              mc_draws: int = 4096, seed: int = 0) -> float:
    """Integral of the Lyapunov functional under the initial law.

    Exact for a point mass, Monte Carlo (``mc_draws`` draws) for a Gaussian.
    """
    if init.kind == "point":
        x0 = np.zeros(dim) if init.x0 is None else np.asarray(init.x0, dtype=float)
        v0 = np.zeros(dim) if init.v0 is None else np.asarray(init.v0, dtype=float)
        return lyap.value(x0, v0)
    rng = derive_stream(seed, "mu0:lyapunov")
    X = init.mean + init.scale * rng.standard_normal((mc_draws, dim))
    V = init.mean + init.scale * rng.standard_normal((mc_draws, dim))
    return float(np.mean(lyap.value_rows(X, V)))


# ---------------------------------------------------------------------------
# Contraction constants and the comparison function h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionConstants:
    """Constants of the exponential contraction estimate for the dynamics.

    ``c_star`` is the contraction rate, ``C_star`` the prefactor; the
    auxiliary pair (Lambda_c, alpha_c) solves a two-way fixed point, and
    ``eta_c = 1 / Lambda_c`` follows from substituting L_c = beta M into the
    two displays that define alpha_c. c* and C* are exponential in
    Lambda_c = O(beta + d), so the logs are the evaluated quantities:
    ``c_star = exp(log_c_star)`` reads 0.0 below float range, ``C_star =
    exp(log_C_star)`` reads inf above it, and ``epsilon_c`` follows c_star.
    """

    c_star: float
    C_star: float
    Lambda_c: float
    alpha_c: float
    epsilon_c: float
    R_1: float
    L_c: float
    eta_c: float
    p: float
    d: int
    A_c: float
    lambda_c: float
    log_c_star: float
    log_C_star: float


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
    if not (1.0 <= p <= 2.0):
        raise ConfigurationError("contraction constants require p in [1, 2]")
    if not (math.isfinite(beta) and beta > 0):
        raise ConfigurationError("beta must be positive and finite here")
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
    eta_c = 1.0 / Lam
    L_c = beta * cert.M
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
        c_star=c_star,
        C_star=C_star,
        Lambda_c=Lam,
        alpha_c=alpha,
        epsilon_c=eps_c,
        R_1=R_1,
        L_c=L_c,
        eta_c=eta_c,
        p=p,
        d=d,
        A_c=a_c,
        lambda_c=lam_c,
        log_c_star=log_c_star,
        log_C_star=log_C_star,
    )


def _h_grid(cc: ContractionConstants, beta: float, gamma: float, r_eff: float, nodes: int):
    """Simpson grid evaluation of h on [0, r_eff]; returns (s, h(s)).

    h(r) = int_0^r phi(s) g(s) ds with g(s) = 1 - (9/4) c* gamma beta
    int_0^s Phi(u) / phi(u) du, so h' = phi g >= 0 and h'' <= 0 as long as g
    stays nonnegative; g turning negative (or NaN) bounds the validity radius
    (a NumericalError, not repaired).
    """
    n = max(2, int(nodes))
    if n % 2:
        n += 1
    s = np.linspace(0.0, r_eff, n + 1)
    a = (1.0 + cc.eta_c) * cc.L_c / 8.0 + (
        gamma**2 * beta * cc.epsilon_c * max(1.0, 1.0 / (2.0 * cc.alpha_c)) / 2.0
    )
    phi = np.exp(-a * s * s)
    Phi = cumulative_simpson(phi, x=s, initial=0.0)
    # Phi / phi ~ exp(a s^2) overflows on the wide grids of stiff certificates:
    # there it is carried relative to exp(shift), c* through its log, and the
    # negligible terms near s = 0 read 0; other grids have shift 0
    shift = max(0.0, a * r_eff * r_eff - 600.0)
    with np.errstate(over="ignore"):
        inner = cumulative_simpson(Phi / np.exp(shift - a * s * s), x=s, initial=0.0)
    scaled_c_star = cc.c_star if shift == 0.0 else _exp(cc.log_c_star + shift)
    g = 1.0 - 2.25 * scaled_c_star * gamma * beta * inner
    bad = ~(g >= 0.0)  # NaN included
    if bad.any():
        j = int(np.argmax(bad))
        what = "went negative" if g[j] < 0.0 else "is NaN"
        raise NumericalError(f"h correction factor {what} at r = {s[j]:.6g}")
    h = cumulative_simpson(phi * g, x=s, initial=0.0)
    return s, h


def h_function(cc: ContractionConstants, beta: float, gamma: float, r: float,
               nodes: int = 4096) -> float:
    """The concave comparison function h evaluated at r.

    h(r) = integral_0^{min(r, R_1)} phi(s) g(s) ds with a Gaussian weight phi
    and the correction factor g carrying the contraction rate; h(0) = 0,
    h'(0+) = 1, and h is constant on [R_1, inf). Composite Simpson with the
    given number of nodes. If g turns negative before min(r, R_1) the
    construction has left its validity range; that radius is reported, not
    repaired.
    """
    if r < 0:
        raise ConfigurationError("h is defined on r >= 0")
    r_eff = min(r, cc.R_1)
    if r_eff == 0.0:
        return 0.0
    _, h_vals = _h_grid(cc, beta, gamma, r_eff, nodes)
    return float(h_vals[-1])


def h_profile(cc: ContractionConstants, beta: float, gamma: float,
              r_max: Optional[float] = None, nodes: int = 4096):
    """Vector of h over an even grid on [0, min(r_max, R_1)].

    One cumulative pass; useful when many evaluations are needed (the
    rho-distance of clouds interpolates on this profile).
    """
    r_eff = cc.R_1 if r_max is None else min(r_max, cc.R_1)
    return _h_grid(cc, beta, gamma, r_eff, nodes)


def r_semimetric(cc: ContractionConstants, state_a, state_b, gamma: float) -> float:
    """r = alpha_c |x1 - x2| + |x1 - x2 + (v1 - v2) / gamma|."""
    x1, v1 = (np.asarray(state_a[0], dtype=float), np.asarray(state_a[1], dtype=float))
    x2, v2 = (np.asarray(state_b[0], dtype=float), np.asarray(state_b[1], dtype=float))
    dx = x1 - x2
    return cc.alpha_c * float(np.linalg.norm(dx)) + float(
        np.linalg.norm(dx + (v1 - v2) / gamma)
    )


def rho_semimetric(cc: ContractionConstants, lyap: LyapunovParams,
                   state_a, state_b, nodes: int = 4096) -> float:
    """rho = h(r) (1 + eps_c V(x1,v1) + eps_c V(x2,v2))."""
    r = r_semimetric(cc, state_a, state_b, lyap.gamma)
    h = h_function(cc, lyap.beta, lyap.gamma, r, nodes=nodes)
    va = lyap.value(*state_a)
    vb = lyap.value(*state_b)
    return h * (1.0 + cc.epsilon_c * va + cc.epsilon_c * vb)


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
    lyapunov_mu0_integral: float


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
    of the step cap is vacuous (infinite).
    """
    lam_c, a_c = drift.lambda_c, drift.A_c
    M, B = cert.M, cert.B
    one = 1.0 - 2.0 * lam_c
    mu0 = float(mu0_lyapunov_integral)
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
        lyapunov_mu0_integral=mu0,
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


def jsonable(doc):
    """``doc`` with numpy values as Python values and every non-finite float
    as the string 'inf', '-inf' or 'nan'."""
    if isinstance(doc, (np.ndarray, np.generic)):
        doc = doc.tolist()
    if isinstance(doc, dict):
        return {k: jsonable(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [jsonable(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return str(doc)
    return doc


def to_json(doc, indent: int = 2) -> str:
    """Strict JSON text of ``doc`` (see ``jsonable``): the encoding of every
    JSON file a run writes."""
    return json.dumps(jsonable(doc), indent=indent, allow_nan=False)


@dataclass(frozen=True)
class ConstantEntry:
    name: str
    value: float
    status: str  # "exact" | "empirical"
    formula: str
    log: Optional[float] = None  # natural log, for entries evaluated in log space


def constants_to_json(table: Mapping[str, ConstantEntry], indent: int = 2) -> str:
    """Entries read {value, status, formula_ref}; one evaluated in log space
    whose value left float range takes the status and log10 of in_range."""
    doc = {}
    for k, e in table.items():
        doc[k] = {"value": e.value, "status": e.status, "formula_ref": e.formula}
        if e.log is not None and isinstance(flagged := in_range(e.value, e.log), dict):
            doc[k].update(flagged)
    return to_json(doc, indent)


def proof_constants(
    cert: SmoothnessCertificate,
    moment: MomentBoundConstants,
    gamma: float,
    beta: float,
    delta: float,
    cc: ContractionConstants,
    pilot_sup_v2: Optional[float] = None,
) -> dict:
    """The c_2 ... c_18 chain and the aggregate C~.

    All entries are exact formula evaluations except ``c_18`` (which needs
    the sup over the chain of E[V^2]; supplied as ``pilot_sup_v2`` from a
    pilot run) and hence ``C_tilde``. Without pilot statistics those two
    entries are absent. c_7 is exponential in M^2, so it and the entries built
    on it are evaluated in log space, like C*, and keep finite logs.
    """
    M, B = cert.M, cert.B
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

    def exact_log(name, log_value, formula):
        return ConstantEntry(name, _exp(log_value), "exact", formula, log_value)

    table = {
        "c_2": exact_log("c_2", log_c2, "4 exp(M) sqrt(M^2 C_a_x + B^2)"),
        "c_3": exact_log("c_3", log_c3, "2 exp(M) sqrt(M^2 C_a_x + B^2)"),
        "c_7": exact_log("c_7", log_c7, "sqrt(2 c_9 exp(c_10))"),
        "c_8": ConstantEntry(
            "c_8", c8, "exact", "3 g^2 C_a_v + 6 M^2 C_a_x + 6 B^2 + 6 g / beta"
        ),
        "c_9": ConstantEntry("c_9", c9, "exact", "max(4 g^2 c_8 + 4 M^2 C_a_v, 2 c_8)"),
        "c_10": ConstantEntry("c_10", c10, "exact", "max(4 g^2 + 2, 4 M^2)"),
        "c_14": ConstantEntry(
            "c_14", c14, "exact", "3 g^2 C_c_v + 6 M^2 C_c_x + 6 B^2 + 6 g / beta"
        ),
        "c_15": exact_log(
            "c_15", log_c15, "max(2 (M^2 C_a_x + B^2) + 4 M^2 c_3^2, 4 M^2 (c_2 + c_7)^2)"
        ),
        "c_16": exact_log("c_16", log_c16, "max(c_2 + c_7, c_3, sqrt(c_14), sqrt(c_15))"),
        "c_17": ConstantEntry("c_17", c17, "exact", "3 max(1 + alpha_c, 1/gamma)"),
    }
    if pilot_sup_v2 is not None:
        c18 = c17 * (1.0 + 2.0 * cc.epsilon_c * math.sqrt(max(pilot_sup_v2, 0.0)))
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
            "c_18",
            c18,
            "empirical",
            "c_17 (1 + 2 eps_c sqrt(sup_k E V^2)) [pilot-estimated sup]",
        )
        table["C_tilde"] = ConstantEntry(
            "C_tilde",
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


def check_pq(p: float, q: int) -> None:
    """The pairing 1/p + 1/(2q) = 1 with integer q (so p = 2q / (2q - 1))."""
    if not (1.0 < p <= 2.0):
        raise ConfigurationError("p must lie in (1, 2]")
    if int(q) != q or q < 1:
        raise ConfigurationError("q must be a positive integer")
    if abs(1.0 / p + 1.0 / (2.0 * q) - 1.0) > 1e-9:
        raise ConfigurationError(f"(p, q) = ({p}, {q}) violates 1/p + 1/(2q) = 1")


def log_sobolev_constant(cert: SmoothnessCertificate, beta: float, d: int,
                         lambda_star: float) -> float:
    """c_LS from the certificate and a user-supplied uniform spectral gap."""
    if lambda_star <= 0:
        raise ConfigurationError("lambda_star must be positive")
    m, M = cert.m, cert.M
    return (2.0 * m * m + 8.0 * M * M) / (m * m * M * beta) + (
        (6.0 * M * (d + beta) / m + 2.0) / lambda_star
    )


def risk_bound(
    cc: ContractionConstants,
    proof: Mapping[str, ConstantEntry],
    cert: SmoothnessCertificate,
    gamma: float,
    beta: float,
    d: int,
    n: int,
    lam: float,
    delta: float,
    k: int,
    p: float,
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
    """
    check_pq(p, q)
    if "C_tilde" not in proof:
        raise ConfigurationError("risk_bound needs the empirical C_tilde entry")
    if c_ls is None:
        if lambda_star is None:
            raise ConfigurationError("supply either c_ls or lambda_star")
        c_ls = log_sobolev_constant(cert, beta, d, lambda_star)
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


def iteration_budget(cc: ContractionConstants, c_tilde, eps: float,
                     p: float, w_rho_init: float):
    """Step-size/noise cap and minimum iteration count for accuracy eps.

    Returns ``(cap, k_min)`` where the run must satisfy
    lam^{1/(2p)} + delta^{1/(2p)} <= cap = eps / (2 C~) and k >= k_min.
    When the initial transient is already below eps (log argument <= 1) the
    budget is zero. ``c_tilde`` is C~ or its proof_constants entry (which
    keeps the log of a C~ beyond float range); both results go through in_range.
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    log_ct = c_tilde.log if isinstance(c_tilde, ConstantEntry) else math.log(c_tilde)
    log_cap = math.log(eps) - math.log(2.0) - log_ct
    cap = in_range(_exp(log_cap), log_cap)
    log_arg = cc.log_C_star + math.log(w_rho_init) / p - math.log(eps)
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
# Scaling orders across (beta, d)
# ---------------------------------------------------------------------------

ASSERTED_ORDERS = {
    "A_c": "O(beta)",
    "alpha_c": "O(1)",
    "Lambda_c": "O(beta + d)",
    "R_1": "O(sqrt(1 + d/beta))",
    "c_star": "O(sqrt(beta + d) exp(-O(beta + d)))",
}


def scaling_orders(betas: Sequence[float], ds: Sequence[int],
                   cert: SmoothnessCertificate, gamma: float, p: float = 2.0):
    """Tabulate the contraction constants over a (beta, d) grid.

    Drift constants are taken at their closed-form values (half cap for
    lambda_c, the floor for A_c) without probe verification, since no
    concrete objective is attached. Each row carries the computed values and
    the normalizations matching the asserted growth orders, so order claims
    can be read off side by side.
    """
    if not betas or not ds:
        raise ConfigurationError("scaling_orders needs nonempty ranges")
    rows = []
    lam_c = 0.5 * lambda_c_cap(cert, gamma)
    for beta in betas:
        drift = DriftConstants(lam_c, max(0.5 * beta * (cert.b + 2.0 * cert.B + cert.A0), _TINY))
        for d in ds:
            cc = contraction_constants(drift, cert, gamma, beta, d, p)
            rows.append(
                {
                    "beta": float(beta),
                    "d": int(d),
                    "A_c": cc.A_c,
                    "Lambda_c": cc.Lambda_c,
                    "alpha_c": cc.alpha_c,
                    "c_star": cc.c_star,
                    "log_c_star": cc.log_c_star,
                    "C_star": cc.C_star,
                    "log_C_star": cc.log_C_star,
                    "R_1": cc.R_1,
                    "A_c_over_beta": cc.A_c / beta,
                    "Lambda_c_over_beta_plus_d": cc.Lambda_c / (beta + d),
                    "R_1_over_sqrt_1_plus_d_over_beta": cc.R_1 / math.sqrt(1.0 + d / beta),
                }
            )
    return {"rows": rows, "asserted_orders": dict(ASSERTED_ORDERS)}


# ---------------------------------------------------------------------------
# High-moment certificate for the Lyapunov functional
# ---------------------------------------------------------------------------

def gaussian_norm_moment(d: int, j: int) -> float:
    """E |xi|^j for a standard Gaussian in R^d (chi distribution moment)."""
    if j < 0:
        raise ConfigurationError("moment order must be >= 0")
    return float(2.0 ** (j / 2.0) * math.exp(gammaln((d + j) / 2.0) - gammaln(d / 2.0)))


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
    When a pilot empirical maximum of V^{2q} is supplied the report states
    whether it complies with the (k = 0) envelope.
    """
    if q not in (1, 2):
        raise ConfigurationError("q must be 1 or 2")
    if lam <= 0:
        raise ConfigurationError("lam must be positive")
    lam_c, a_c = drift.lambda_c, drift.A_c
    M, B = cert.M, cert.B
    one = 1.0 - 2.0 * lam_c
    phi = 1.0 - lam * gamma * lam_c / 2.0
    K1 = max(
        16.0 * M * M * (3.0 + 2.0 * gamma) / (one * gamma**2),
        8.0 * (M / 2.0 + gamma**2 / 4.0 - gamma**2 * lam_c / 4.0 + gamma) / one,
    )
    K2 = B * B * (3.0 + 2.0 * gamma)
    P1 = 2.0 * max(
        32.0 * gamma * (3.0 * gamma**2 + 10.0 * M * M) / (beta * one * gamma**2),
        16.0 * gamma * (3.0 + 2.0 * (1.0 - lam * gamma) ** 2) / (beta * one),
    )
    P2 = 20.0 * gamma * B * B / beta
    c19 = gamma * a_c + beta * K2 + gamma * d

    e2 = gaussian_norm_moment(d, 2)
    e4 = gaussian_norm_moment(d, 4)
    e2q = gaussian_norm_moment(d, 2 * q)
    # E (a + b S + gamma S^2)^{2q} with S = |xi|, expanded over chi moments
    a = gamma * a_c + beta * K2
    b = beta * math.sqrt(P2)
    coeffs = npoly.polypow([a, b, gamma], 2 * q)
    e_poly = float(sum(c * gaussian_norm_moment(d, j) for j, c in enumerate(coeffs)))

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
        report["pilot_max_v2q"] = float(pilot_max_v2q)
        report["satisfied"] = bool(pilot_max_v2q <= bound_sup)
    return report
