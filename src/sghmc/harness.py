"""Experiment orchestration: configs, seeded runs, verification suites, output.

A single JSON document describes an experiment (objective, dataset, sampler,
kind-specific knobs); the harness materializes the pieces, dispatches on the
experiment kind, and writes CSV data plus a JSON manifest sufficient to
reproduce the run bit-for-bit. CLI flags override config fields
(flag > config > default).

Experiment kinds:

``audit``        certificate audit of an objective on its dataset
``constants``    the full derived-constants table (optionally with a pilot
                 chain for the empirical entries)
``sample``       one thinned chain trajectory
``couple``       a synchronously coupled pair and its separation series
``rate-study``   coupled distance against a finer reference across step sizes
``gibbs-check``  stationary moments of the quadratic objective vs the exact law
``risk-bound``   the three-term risk bound from pilot-calibrated constants
``validate``     config findings only (step-size cap, p/q pairing, init law)
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from . import __version__
from .errors import ConfigurationError, DivergenceError, SghmcError
from .gradient_oracle import estimate_delta, make_oracle
from .metrics import SampleCloud, rho_distance_cloud
from .objectives import (
    Dataset,
    ObjectiveSpec,
    audit_assumptions,
    make_dataset,
    make_objective,
)
from .rng import derive_stream
from .samplers import (
    InitialLaw,
    SamplerConfig,
    brownian_coupled_distance,
    coupled_run,
    ensemble_run,
    gaussian_init,
    point_init,
    run_chain,
)
from . import theory

KINDS = (
    "audit",
    "constants",
    "sample",
    "couple",
    "rate-study",
    "gibbs-check",
    "risk-bound",
    "validate",
)

_DATA_COUPLED = ("double_well", "gaussian_mixture")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _parse_init(d: dict) -> InitialLaw:
    kind = d.get("kind", "point")
    if kind == "point":
        x0 = d.get("x0")
        v0 = d.get("v0")
        if x0 is None and v0 is None:
            return InitialLaw(kind="point")
        return point_init(x0 if x0 is not None else np.zeros_like(v0),
                          v0 if v0 is not None else np.zeros_like(x0))
    if kind == "gaussian":
        return gaussian_init(mean=float(d.get("mean", 0.0)), scale=float(d.get("scale", 1.0)))
    raise ConfigurationError(f"unknown initial law kind {kind!r}")


def _init_to_dict(init: InitialLaw) -> dict:
    if init.kind == "point":
        return {
            "kind": "point",
            "x0": None if init.x0 is None else np.asarray(init.x0).tolist(),
            "v0": None if init.v0 is None else np.asarray(init.v0).tolist(),
        }
    return {"kind": "gaussian", "mean": init.mean, "scale": init.scale}


def _parse_sampler(d: dict) -> SamplerConfig:
    beta = d.get("beta", 1.0)
    if isinstance(beta, str):
        beta = float(beta)
    return SamplerConfig(
        lam=float(d.get("lambda", 0.01)),
        gamma=float(d.get("gamma", 2.0)),
        beta=float(beta),
        batch_size=d.get("batch_size"),
        dim=int(d.get("dim", 1)),
        seed=int(d.get("seed", 0)),
        init=_parse_init(d.get("init", {})),
    )


def _sampler_to_dict(cfg: SamplerConfig) -> dict:
    return {
        "lambda": cfg.lam,
        "gamma": cfg.gamma,
        "beta": cfg.beta if math.isfinite(cfg.beta) else "inf",
        "batch_size": cfg.batch_size,
        "dim": cfg.dim,
        "seed": cfg.seed,
        "init": _init_to_dict(cfg.init),
    }


@dataclass
class ExperimentConfig:
    """Validated experiment description (see module docstring for kinds)."""

    kind: str
    objective: dict
    dataset: dict
    sampler: SamplerConfig
    steps: int = 10000
    replicas: int = 8
    thin: int = 100
    burn_in: int = 0
    out: str = "runs/out"
    strict: bool = False
    sampler_b: Optional[SamplerConfig] = None
    chain: str = "sghmc"
    rate: dict = field(default_factory=dict)
    risk: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)
    pilot_steps: int = 0

    def __post_init__(self):
        for name in ("steps", "replicas", "thin"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.burn_in < 0:
            raise ConfigurationError(f"burn_in must be >= 0, got {self.burn_in}")

    @classmethod
    def from_dict(cls, d: dict, kind: Optional[str] = None) -> "ExperimentConfig":
        if "config" in d and isinstance(d["config"], dict):
            d = d["config"]  # accept a manifest document as a config
        kind = kind or d.get("kind")
        if kind not in KINDS:
            raise ConfigurationError(f"unknown experiment kind {kind!r}; known: {KINDS}")
        sampler = _parse_sampler(d.get("sampler", {}))
        sampler_b = None
        if "sampler_b" in d:
            merged = {**d.get("sampler", {}), **d["sampler_b"]}
            sampler_b = _parse_sampler(merged)
        return cls(
            kind=kind,
            objective=dict(d.get("objective", {"name": "quadratic", "params": {}})),
            dataset=dict(d.get("dataset", {"generator": "gaussian", "n": 100, "seed": 7})),
            sampler=sampler,
            sampler_b=sampler_b,
            steps=int(d.get("steps", 10000)),
            replicas=int(d.get("replicas", 8)),
            thin=int(d.get("thin", 100)),
            burn_in=int(d.get("burn_in", 0)),
            out=str(d.get("out", "runs/out")),
            strict=bool(d.get("strict", False)),
            chain=str(d.get("chain", "sghmc")),
            rate=dict(d.get("rate", {})),
            risk=dict(d.get("risk", {})),
            audit=dict(d.get("audit", {})),
            pilot_steps=int(d.get("pilot_steps", 0)),
        )

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "objective": self.objective,
            "dataset": self.dataset,
            "sampler": _sampler_to_dict(self.sampler),
            "steps": self.steps,
            "replicas": self.replicas,
            "thin": self.thin,
            "burn_in": self.burn_in,
            "out": self.out,
            "strict": self.strict,
            "chain": self.chain,
        }
        if self.sampler_b is not None:
            d["sampler_b"] = _sampler_to_dict(self.sampler_b)
        for key in ("rate", "risk", "audit"):
            block = getattr(self, key)
            if block:
                d[key] = block
        if self.pilot_steps:
            d["pilot_steps"] = self.pilot_steps
        return d


def load_config(path, kind: Optional[str] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh), kind=kind)


def materialize(cfg: ExperimentConfig):
    """Build (objective, dataset) from a config, deriving z_radius if needed."""
    ds = cfg.dataset
    data = make_dataset(
        generator_id=ds.get("generator", "gaussian"),
        n=int(ds.get("n", 100)),
        z_dim=int(ds.get("z_dim", cfg.sampler.dim)),
        seed=int(ds.get("seed", 7)),
    )
    name = cfg.objective.get("name", "quadratic")
    params = dict(cfg.objective.get("params", {}))
    needs_radius = name in _DATA_COUPLED or (
        name == "quadratic" and params.get("coupling", 0.0) != 0.0
    )
    if needs_radius:
        params.setdefault("z_radius", data.max_norm())
    obj = make_objective(name, cfg.sampler.dim, **params)
    return obj, data


# ---------------------------------------------------------------------------
# Validation findings
# ---------------------------------------------------------------------------

def _finding(level, code, message, **extra):
    return {"level": level, "code": code, "message": message, **extra}


def validate_config(cfg: ExperimentConfig) -> list:
    """Config findings: step-size admissibility, p/q pairing, initial law.

    Findings are informational by default; ``--strict`` escalates warnings
    and violations to a failing exit status.
    """
    return _build(cfg)[2]


def _lyapunov(cfg: ExperimentConfig, obj, data, probes: int):
    """(drift, lyap, mu0): the drift constants certified on ``probes`` points,
    the Lyapunov function and its integral under the initial law."""
    s = cfg.sampler
    drift = theory.derive_drift_constants(obj.cert, s.gamma, s.beta, obj, data, probes=probes)
    lyap = theory.LyapunovParams(s.beta, s.gamma, drift.lambda_c, obj, data)
    return drift, lyap, theory.initial_lyapunov_integral(s.init, lyap, s.dim)


def _build(cfg: ExperimentConfig):
    """Materialize a config and check it: (obj, data, findings). A config that
    does not materialize gives obj = data = None and a single violation."""
    try:
        obj, data = materialize(cfg)
    except ConfigurationError as exc:
        return None, None, [_finding("violation", "objective", str(exc))]
    findings = []
    s = cfg.sampler
    if math.isfinite(s.beta):
        try:
            drift, _, mu0 = _lyapunov(cfg, obj, data, probes=256)
            moment = theory.moment_bound_constants(
                drift, obj.cert, s.gamma, s.beta, s.dim, mu0
            )
            ok = not s.lam > moment.lambda_cap
            findings.append(
                _finding(
                    "info" if ok else "warning",
                    "admissible-step" if ok else "inadmissible-step",
                    f"step size {s.lam:g} "
                    + ("is within the cap" if ok else "exceeds the moment-bound cap")
                    + f" {moment.lambda_cap:g}",
                    lambda_cap=moment.lambda_cap,
                )
            )
        except SghmcError as exc:  # certification trouble is a finding, not a crash
            findings.append(_finding("warning", "certification", str(exc)))
    if cfg.risk:
        p = float(cfg.risk.get("p", 2.0))
        q = cfg.risk.get("q", 1)
        try:
            theory.check_pq(p, int(q))
            findings.append(_finding("info", "pq-pairing", f"(p, q) = ({p}, {q}) is valid"))
        except ConfigurationError as exc:
            findings.append(_finding("violation", "pq-pairing", str(exc)))
    # initial-law integrability: a point mass is always fine; a Gaussian needs
    # its scale small enough that exp(V) stays integrable (V grows at most
    # quadratically with curvature below beta (M/2 + gamma^2 / 2) in x and
    # 3 beta / 4 in v).
    init = s.init
    if init.kind == "point":
        findings.append(_finding("info", "initial-law", "point mass: exponential moment finite"))
    elif math.isfinite(s.beta):
        curv = max(s.beta * (obj.cert.M / 2.0 + s.gamma**2 / 2.0), 0.75 * s.beta)
        ok = 1.0 / (2.0 * init.scale**2) > curv
        findings.append(
            _finding(
                "info" if ok else "warning",
                "initial-law",
                "gaussian initial law "
                + ("satisfies" if ok else "may violate")
                + f" the exponential-moment condition (scale {init.scale:g}, "
                f"quadratic growth {curv:g})",
            )
        )
    return obj, data, findings


# ---------------------------------------------------------------------------
# Oracles used by the verification kinds
# ---------------------------------------------------------------------------

def sghmc_quadratic_stationary(lam: float, gamma: float, beta: float, m0: float):
    """Exact stationary per-coordinate variances of the discrete momentum chain
    on the decoupled quadratic objective (the discretization-bias oracle).

    The chain is linear per coordinate; its stationary covariance solves the
    discrete Lyapunov equation Sigma = A Sigma A^T + Q.
    Returns (var_x, var_v).
    """
    A = np.array([[1.0 - lam * gamma, -lam * m0], [lam, 1.0]])
    q = 2.0 * gamma * lam / beta
    Q = np.array([[q, 0.0], [0.0, 0.0]])
    sigma = solve_discrete_lyapunov(A, Q)
    return float(sigma[1, 1]), float(sigma[0, 0])


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Everything needed to reproduce and interpret a run."""

    config: dict
    version: str
    seeds: dict
    wall_time_s: float
    divergence: list
    outputs: list
    findings: list
    results: dict = field(default_factory=dict)

    def to_json(self, indent=2) -> str:
        return theory.to_json(asdict(self), indent)


def _write(path: Path, doc) -> None:
    """Write text as is, a callable as ``doc(path)`` and anything else as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if callable(doc):
        doc(path)
    else:
        path.write_text(doc if isinstance(doc, str) else theory.to_json(doc), encoding="utf-8")


def _theory_chain(cfg: ExperimentConfig, obj, data, p: float = 2.0, delta: float = 0.0):
    s = cfg.sampler
    drift, lyap, mu0 = _lyapunov(cfg, obj, data, probes=1000)
    cc = theory.contraction_constants(drift, obj.cert, s.gamma, s.beta, s.dim, p)
    moment = theory.moment_bound_constants(drift, obj.cert, s.gamma, s.beta, s.dim, mu0, delta)
    return drift, lyap, mu0, cc, moment


def _pilot_statistics(cfg: ExperimentConfig, obj, data, lyap, steps: int, q: int = 2):
    """Short ensemble tracking sup of E V^2, E V^{2q} and the 2q radial moment."""
    s = cfg.sampler

    def v2(X, V):
        return lyap.value_rows(X, V) ** 2

    def v2q(X, V):
        return lyap.value_rows(X, V) ** (2 * q)

    def radial(X, V):
        return np.sum(X * X, axis=1) ** q

    return ensemble_run(
        cfg.chain,
        s,
        obj,
        data,
        steps=steps,
        replicas=min(cfg.replicas, 8),
        record_every=max(1, steps // 50),
        burn_in=steps // 2,
        functionals={"v2": v2, "v2q": v2q, "radial2q": radial},
        purpose="pilot",
    )


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Materialize and check a config once, run its kind, write the outputs
    and the manifest, and return the manifest.

    A run that diverges writes its manifest too, with the step and message
    under ``divergence``, before the DivergenceError propagates. In strict
    mode, warning or violation findings keep every kind but ``validate`` from
    running and writing anything; ``validate`` raises ConfigurationError for
    them once its manifest is written, and a failed audit raises it after
    ``audit.json`` and before the manifest.
    """
    if cfg.kind not in KINDS:
        raise ConfigurationError(f"unknown experiment kind {cfg.kind!r}")
    start = time.perf_counter()
    obj, data, findings = _build(cfg)
    blocking = [f["message"] for f in findings if f["level"] != "info"] if cfg.strict else []
    if blocking and cfg.kind != "validate":
        raise ConfigurationError(
            "strict mode: validation findings block the run: " + "; ".join(blocking))
    if obj is None and cfg.kind != "validate":
        raise ConfigurationError(findings[0]["message"])
    out = Path(cfg.out)
    manifest = RunManifest(
        config=cfg.to_dict(),
        version=__version__,
        seeds={"sampler": cfg.sampler.seed, "dataset": int(cfg.dataset.get("seed", 7))},
        wall_time_s=0.0,
        divergence=[],
        outputs=[],
        findings=findings,
    )

    def emit(name: str, doc) -> None:
        """The one writer of a run's outputs (see ``_write``)."""
        _write(out / name, doc)
        manifest.outputs.append(str(out / name))

    def finish() -> None:
        manifest.wall_time_s = time.perf_counter() - start
        manifest.results = theory.jsonable(manifest.results)
        _write(out / "manifest.json", manifest.to_json())

    try:
        objection = _run_kind(cfg, obj, data, emit, manifest)
    except DivergenceError as exc:
        manifest.divergence.append({"step": exc.step, "message": str(exc)})
        finish()
        raise
    if cfg.strict and objection:
        raise ConfigurationError("strict mode: " + objection)
    finish()
    if blocking:
        raise ConfigurationError("strict mode: validation findings present")
    return manifest


def _run_kind(cfg: ExperimentConfig, obj, data, emit, manifest: RunManifest) -> Optional[str]:
    """Run one kind: its outputs go through ``emit``, its results and dropped
    grid points into the manifest. Returns what strict mode holds against the
    result (a failed audit), else None."""
    s = cfg.sampler
    results = manifest.results
    if cfg.kind == "validate":
        emit("findings.json", manifest.findings)
        results["findings"] = manifest.findings

    elif cfg.kind == "audit":
        probes = int(cfg.audit.get("probes", 1000))
        radius = cfg.audit.get("radius")
        report = audit_assumptions(
            obj, data, probes=probes,
            radius=None if radius is None else float(radius),
            seed=int(cfg.audit.get("seed", s.seed)),
        )
        emit("audit.json", report.to_json())
        results["all_passed"] = report.all_passed
        if not report.all_passed:
            return "assumption audit failed"

    elif cfg.kind == "constants":
        p = float(cfg.risk.get("p", 2.0))
        delta = float(cfg.risk.get("delta", 0.0))
        drift, lyap, mu0, cc, moment = _theory_chain(cfg, obj, data, p, delta)
        table = {
            "lambda_c": theory.ConstantEntry("lambda_c", drift.lambda_c, "exact",
                                             "min(1/4, m/(M + 2B + gamma^2/2)) / 2, probe-verified"),
            "A_c": theory.ConstantEntry("A_c", drift.A_c, "exact",
                                        "(beta/2)(b + 2B + A0), probe-verified"),
            "mu0_lyapunov": theory.ConstantEntry(
                "mu0_lyapunov", mu0,
                "exact" if s.init.kind == "point" else "empirical",
                "integral of the Lyapunov functional under the initial law"),
            "Lambda_c": theory.ConstantEntry("Lambda_c", cc.Lambda_c, "exact", "fixed point with alpha_c"),
            "alpha_c": theory.ConstantEntry("alpha_c", cc.alpha_c, "exact", "(1 + 1/Lambda_c) M / gamma^2"),
            "c_star": theory.ConstantEntry("c_star", cc.c_star, "exact", "contraction rate",
                                           cc.log_c_star),
            "C_star": theory.ConstantEntry("C_star", cc.C_star, "exact", "contraction prefactor",
                                           cc.log_C_star),
            "epsilon_c": theory.ConstantEntry(
                "epsilon_c", cc.epsilon_c, "exact", "4 c_star / (gamma (d + A_c))",
                cc.log_c_star + math.log(4.0 / (s.gamma * (s.dim + cc.A_c)))),
            "eta_c": theory.ConstantEntry("eta_c", cc.eta_c, "exact", "1 / Lambda_c"),
            "R_1": theory.ConstantEntry("R_1", cc.R_1, "exact", "flat radius of h"),
            "C_c_x": theory.ConstantEntry("C_c_x", moment.C_c_x, "exact", "continuous x moment bound"),
            "C_c_v": theory.ConstantEntry("C_c_v", moment.C_c_v, "exact", "continuous v moment bound"),
            "C_a_x": theory.ConstantEntry("C_a_x", moment.C_a_x, "exact", "discrete x moment bound"),
            "C_a_v": theory.ConstantEntry("C_a_v", moment.C_a_v, "exact", "discrete v moment bound"),
            "K_1": theory.ConstantEntry("K_1", moment.K_1, "exact", "discrete drift constant"),
            "K_2": theory.ConstantEntry("K_2", moment.K_2, "exact", "2 B^2 (1/2 + gamma + delta)"),
            "lambda_cap": theory.ConstantEntry("lambda_cap", moment.lambda_cap, "exact",
                                               "step-size cap for the moment bounds"),
        }
        pilot_sup_v2 = None
        if cfg.pilot_steps > 0:
            pilot = _pilot_statistics(cfg, obj, data, lyap, cfg.pilot_steps)
            pilot_sup_v2 = pilot.running_max["v2"]
            results["pilot_sup_v2"] = pilot_sup_v2
        table.update(
            theory.proof_constants(obj.cert, moment, s.gamma, s.beta, delta, cc,
                                   pilot_sup_v2=pilot_sup_v2)
        )
        emit("constants.json", theory.constants_to_json(table))
        results["lambda_c"] = drift.lambda_c
        results["lambda_cap"] = moment.lambda_cap

    elif cfg.kind == "sample":
        traj = run_chain(cfg.chain, s, obj, data, steps=cfg.steps, thin=cfg.thin)
        emit("trajectory.csv", traj.to_csv)
        results["recorded_states"] = len(traj)

    elif cfg.kind == "couple":
        cfg_b = cfg.sampler_b or s
        _, _, distances = coupled_run(
            cfg.chain, s, cfg_b, obj, data, steps=cfg.steps, thin=cfg.thin
        )
        emit("distances.csv", "step,dist_x,dist_v\n" + "".join(
            f"{int(row[0])},{row[1]:.17g},{row[2]:.17g}\n" for row in distances))
        results["final_dist_x"] = float(distances[-1, 1])
        results["final_dist_v"] = float(distances[-1, 2])

    elif cfg.kind == "rate-study":
        table = rate_study(
            obj,
            data,
            s,
            lambdas=[float(l) for l in cfg.rate.get("lambdas", [0.1, 0.05, 0.025, 0.0125])],
            lambda_ref_divisor=float(cfg.rate.get("ref_divisor", 16.0)),
            t_end=float(cfg.rate.get("t_end", 5.0)),
            replicas=cfg.replicas,
        )
        emit("rate.csv", "lambda,distance,flag\n" + "".join(
            f"{row['lambda']:.17g},{row['distance']:.17g},{row['flag']}\n" for row in table["rows"]))
        manifest.divergence.extend(
            {"lambda": row["lambda"], "message": "dropped"} for row in table["rows"]
            if row["flag"] == "diverged"
        )
        results.update({"slope": table["slope"], "rows": table["rows"]})
        if all(row["flag"] == "diverged" for row in table["rows"]):
            raise DivergenceError("every grid point diverged", step=0)

    elif cfg.kind == "gibbs-check":
        results.update(_gibbs_check(cfg, obj, data))
        emit("gibbs.json", results)

    elif cfg.kind == "risk-bound":
        results.update(_risk_bound(cfg, obj, data))
        emit("risk.json", results)


def _gibbs_check(cfg: ExperimentConfig, obj: ObjectiveSpec, data: Dataset) -> dict:
    if obj.name != "quadratic":
        raise ConfigurationError("gibbs-check needs the quadratic objective (exact law known)")
    s = cfg.sampler
    m0 = float(cfg.objective.get("params", {}).get("m0", 1.0))
    res = ensemble_run(
        cfg.chain, s, obj, data,
        steps=cfg.steps, replicas=cfg.replicas,
        record_every=max(1, cfg.thin),
        burn_in=cfg.burn_in or max(cfg.steps // 10, 2000),
        purpose="gibbs",
    )
    expected_x = 1.0 / (s.beta * m0)
    expected_v = 1.0 / s.beta
    var_x = float(np.mean(res.tail_var_x))
    var_v = float(np.mean(res.tail_var_v))
    pred_x, pred_v = sghmc_quadratic_stationary(s.lam, s.gamma, s.beta, m0)
    rel_x = abs(var_x - expected_x) / expected_x
    rel_v = abs(var_v - expected_v) / expected_v
    return {
        "expected_var_x": expected_x,
        "expected_var_v": expected_v,
        "empirical_var_x": var_x,
        "empirical_var_v": var_v,
        "discrete_scheme_var_x": pred_x,
        "discrete_scheme_var_v": pred_v,
        "rel_err_x": rel_x,
        "rel_err_v": rel_v,
        "pass": bool(rel_x <= 0.05 and rel_v <= 0.05),
        "tail_samples": res.tail_samples,
    }


def _risk_bound(cfg: ExperimentConfig, obj: ObjectiveSpec, data: Dataset) -> dict:
    s = cfg.sampler
    risk = cfg.risk
    p = float(risk.get("p", 2.0))
    q = int(risk.get("q", 1))
    theory.check_pq(p, q)
    k = int(risk.get("k", cfg.steps))

    # noise level: explicit, or measured for minibatch runs, else 0
    if "delta" in risk:
        delta = float(risk["delta"])
    elif s.batch_size is not None:
        oracle = make_oracle(obj, data, s.batch_size, s.seed, purpose="risk:delta")
        probe_rng = derive_stream(s.seed, "risk:probes")
        probes = [np.zeros(s.dim)] + [probe_rng.standard_normal(s.dim) for _ in range(7)]
        delta = estimate_delta(oracle, probes, trials=400).delta_hat
    else:
        delta = 0.0

    drift, lyap, mu0, cc, moment = _theory_chain(cfg, obj, data, p, delta)
    pilot_steps = cfg.pilot_steps or max(2000, min(cfg.steps, 20000))
    pilot = _pilot_statistics(cfg, obj, data, lyap, pilot_steps, q=q)
    proof = theory.proof_constants(
        obj.cert, moment, s.gamma, s.beta, delta, cc,
        pilot_sup_v2=pilot.running_max["v2"],
    )

    if "sigma" in risk:
        sigma = float(risk["sigma"])
    else:
        sigma = pilot.running_max["radial2q"] ** (1.0 / (2.0 * q))
        coupling = float(cfg.objective.get("params", {}).get("coupling", 0.0))
        if obj.name == "quadratic" and coupling == 0.0:
            m0 = float(cfg.objective.get("params", {}).get("m0", 1.0))
            gibbs = (s.beta * m0) ** (-0.5 * 2 * q) * theory.gaussian_norm_moment(s.dim, 2 * q)
            sigma = max(sigma, gibbs ** (1.0 / (2.0 * q)))

    # rho-distance of the initial law from the long-run cloud
    cloud_n = min(64, cfg.replicas * 8)
    init_rng = derive_stream(s.seed, "risk:init-cloud")
    Xi, Vi = s.init.sample(s.dim, init_rng, size=cloud_n)
    chain_steps = max(cfg.steps, 200 * cloud_n)
    tail = run_chain(cfg.chain, s, obj, data, steps=chain_steps,
                     thin=max(1, chain_steps // cloud_n))
    Xl = tail.xs[-cloud_n:]
    Vl = tail.vs[-cloud_n:]
    n_avail = min(len(Xl), cloud_n)
    init_cloud = SampleCloud(np.hstack([Xi[:n_avail], Vi[:n_avail]]))
    long_cloud = SampleCloud(np.hstack([Xl[:n_avail], Vl[:n_avail]]))
    w_rho = rho_distance_cloud(init_cloud, long_cloud, cc, lyap)

    bound = theory.risk_bound(
        cc, proof, obj.cert, s.gamma, s.beta, s.dim, data.n,
        s.lam, delta, k, p, q, sigma, w_rho,
        c_ls=risk.get("c_ls"),
        lambda_star=risk.get("lambda_star"),
    )
    out = {
        "B_1": theory.in_range(bound.B_1, bound.log_B_1),
        "B_2": bound.B_2,
        "B_3": bound.B_3,
        "inputs": bound.inputs,
        "w_rho_init": w_rho,
        "sigma": sigma,
        "delta": delta,
    }
    if "eps" in risk:
        cap, k_min = theory.iteration_budget(cc, proof["C_tilde"], float(risk["eps"]), p, w_rho)
        out["budget"] = {"eps": float(risk["eps"]), "cap": cap, "k_min": k_min}
    return out


def rate_study(
    obj: ObjectiveSpec,
    data: Dataset,
    base: SamplerConfig,
    lambdas,
    lambda_ref_divisor: float = 16.0,
    t_end: float = 5.0,
    replicas: int = 32,
) -> dict:
    """Coupled distance to a finer reference across a decreasing step grid.

    For each lambda the chain at that step size is synchronously coupled (one
    Brownian path) to a full-gradient reference at lambda / divisor and
    compared at matched physical time ``t_end``. Divergent grid points, and
    runaway ones whose distance is not finite, are dropped with a flag; the
    log-log slope is fitted over the survivors (None below two).
    """
    lambdas = sorted(set(float(l) for l in lambdas), reverse=True)
    if len(lambdas) < 1:
        raise ConfigurationError("rate study needs at least one step size")
    if any(l <= 0 for l in lambdas):
        raise ConfigurationError("step sizes must be positive")
    rows = []
    for lam in lambdas:
        cfg = replace(base, lam=lam)
        try:
            dist = brownian_coupled_distance(
                cfg, lam / lambda_ref_divisor, obj, data, t_end, replicas
            )
        except DivergenceError:
            dist = math.inf
        if math.isfinite(dist):
            rows.append({"lambda": lam, "distance": dist, "flag": "ok"})
        else:  # diverged, or ran away so far that the squared distance overflowed
            rows.append({"lambda": lam, "distance": float("nan"), "flag": "diverged"})
    good = [r for r in rows if r["flag"] == "ok"]
    slope = None
    if len(good) >= 2 and all(r["distance"] > 0 for r in good):
        lx = np.log([r["lambda"] for r in good])
        ly = np.log([r["distance"] for r in good])
        slope = float(np.polyfit(lx, ly, 1)[0])
    return {"rows": rows, "slope": slope}
