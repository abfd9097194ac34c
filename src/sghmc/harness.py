"""Experiment orchestration: configs, seeded runs, verification suites, output.

A single JSON object describes an experiment. The fields of
``ExperimentConfig`` are its top-level keys, with their defaults, and each of
its blocks (objective, dataset, sampler, kind-specific knobs) is a JSON object;
one key table declares the keys and defaults of each of the sampler, rate,
risk and audit blocks. A config that cannot be read, a key that is not
declared, or a value that does not convert, is a ConfigurationError. The
harness materializes the pieces, runs the experiment kind, and
writes CSV data plus a JSON manifest sufficient to reproduce the run
bit-for-bit; every JSON file is encoded here, by :func:`to_json`. CLI flags
override config fields (flag > config > default).

Each experiment kind is one function in ``_KINDS``, whose docstring describes
the kind in ``sghmc --help``; ``KINDS`` names them in that order.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import (ConfigurationError, DivergenceError, SghmcError, count, index, nonnegative,
                     number, positive, real)
from .gradient_oracle import estimate_delta
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
    CHAIN_KINDS,
    InitialLaw,
    SamplerConfig,
    _rate_coupling,
    coupled_run,
    ensemble_run,
    gaussian_init,
    point_init,
    run_chain,
)
from . import theory

_DATA_COUPLED = ("double_well", "gaussian_mixture")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# A converter reads a config value and the key that names it: the scalar ones
# are the package's (see :mod:`.errors`), which the entry points apply too.

def _order(value, key):
    """The moment order q: an integer where it is integral, else the number,
    which :func:`theory.check_pq` reports as out of range."""
    value = number(value, key)
    return int(value) if value.is_integer() else value


def _reals(value, key) -> list:
    """A JSON list of finite real config values; a string is not split into them."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a list")
    return [real(v, key) for v in value]


def _instance(kind: type, name: str):
    """A converter that takes a value of type ``kind`` as is and no other value."""
    def convert(value, key):
        if not isinstance(value, kind):
            raise ValueError(f"{value!r} is not {name}")
        return value
    return convert


_string = _instance(str, "a string")


def _object(value, key=None) -> dict:
    """A copy of a config block, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    return dict(value)


def _config_value(block: dict, key: str, default, kind=real):
    """``block[key]`` (``default`` if absent) converted by ``kind``; None where
    the default is None. A config value that does not convert is a
    ConfigurationError, "malformed config value '<key>': ..."; one raised
    inside the value, a block, is prefixed with ``key`` instead, so the
    message names the path to the key at fault ("audit: malformed config
    value 'seed': ...")."""
    value = block.get(key, default)
    if value is None and default is None:
        return None
    try:
        return kind(value, key)
    except (TypeError, ValueError, ConfigurationError) as exc:
        inner = isinstance(exc, ConfigurationError) and isinstance(value, dict)
        raise ConfigurationError(f"{key}: {exc}" if inner
                                 else f"malformed config value {key!r}: {exc}") from exc


def _block(table, value, key=None) -> dict:
    """The keys that a config block sets, each converted by its (key,
    default, converter) entry of ``table``. A block that is not a JSON object
    and a key that the table does not declare are a ValueError, a value that
    does not convert a ConfigurationError."""
    block = _object(value)
    entries = {key: (default, kind) for key, default, kind in table}
    for key in block:
        if key not in entries:
            raise ValueError(f"unknown key {key!r}")
    return {key: _config_value(block, key, *entries[key]) for key in block}


def _with_defaults(table, block: dict) -> dict:
    """A converted block with the table's default of each key it leaves out."""
    return {key: block.get(key, default) for key, default, _ in table}


def _read_block(name, table, value) -> dict:
    """Config block ``name`` converted by its key table, with its defaults."""
    return _with_defaults(table, _config_value({name: value}, name, {}, partial(_block, table)))


def _parse_init(value, key) -> InitialLaw:
    kind = _object(value).get("kind", "point")
    table = _INIT_KEYS.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ConfigurationError(f"unknown initial law kind {kind!r}")
    d = _with_defaults(table, _block(table, value))
    if kind == "gaussian":
        return gaussian_init(mean=d["mean"], scale=d["scale"])
    x0, v0 = d["x0"], d["v0"]
    if x0 is None and v0 is None:
        return InitialLaw(kind="point")
    return point_init(x0 if x0 is not None else np.zeros_like(v0),
                      v0 if v0 is not None else np.zeros_like(x0))


def _init_to_dict(init: InitialLaw) -> dict:
    if init.kind == "point":
        return {
            "kind": "point",
            "x0": None if init.x0 is None else np.asarray(init.x0).tolist(),
            "v0": None if init.v0 is None else np.asarray(init.v0).tolist(),
        }
    return {"kind": "gaussian", "mean": init.mean, "scale": init.scale}


# (key, default, converter) of each key that a block may set, the sampler's in
# the order of its echo; a None default is resolved where the value is used
_SAMPLER_KEYS = (
    ("lambda", 0.01, nonnegative),  # SamplerConfig.lam
    ("gamma", 2.0, nonnegative),
    ("beta", 1.0, number),  # inf: the zero-noise limit
    ("batch_size", None, count),
    ("dim", 1, count),
    ("seed", 0, index),
    ("init", InitialLaw(kind="point"), _parse_init),
)
_RATE_KEYS = (
    ("lambdas", (0.1, 0.05, 0.025, 0.0125), _reals),
    ("ref_divisor", 16.0, positive),  # an integer, which rate_study checks
    ("t_end", 5.0, positive),
)
# p and q are read as numbers: a validate run reports them out of the theory's range
_RISK_KEYS = (
    ("p", 2.0, number),
    ("q", 1, _order),
    ("k", None, index),  # None: steps
    ("delta", None, nonnegative),  # None: 0, or measured by a minibatch risk-bound run
    ("sigma", None, nonnegative),  # None: from the pilot's radial moment
    ("eps", None, positive),  # None: no iteration budget
    ("c_ls", None, positive),
    ("lambda_star", None, positive),
)
_AUDIT_KEYS = (
    ("probes", 1000, count),
    ("radius", None, positive),  # None: the certificate's default probe radius
    ("seed", None, index),  # None: the sampler seed
)
# the initial law's keys, by its kind
_INIT_KEYS = {
    "point": (("kind", "point", _string), ("x0", None, _reals), ("v0", None, _reals)),
    "gaussian": (("kind", "point", _string), ("mean", 0.0, real), ("scale", 1.0, positive)),
}
# the dataset and objective blocks, which materialize reads
_DATASET_KEYS = (
    ("generator", "gaussian", _string),
    ("n", 100, count),
    ("z_dim", None, count),  # None: the sampler's dim
    ("seed", 7, index),
)
_OBJECTIVE_KEYS = (
    ("name", "quadratic", _string),
    ("params", {}, _object),
)
# the blocks that a config without them runs on
_OBJECTIVE = _with_defaults(_OBJECTIVE_KEYS, {})
_DATASET = {key: v for key, v in _with_defaults(_DATASET_KEYS, {}).items() if v is not None}


def _parse_sampler(value, key=None) -> SamplerConfig:
    d = _with_defaults(_SAMPLER_KEYS, _block(_SAMPLER_KEYS, value))
    return SamplerConfig(lam=d.pop("lambda"), **d)


def _sampler_to_dict(cfg: SamplerConfig) -> dict:
    d = {key: getattr(cfg, "lam" if key == "lambda" else key) for key, _, _ in _SAMPLER_KEYS}
    return {**d, "beta": cfg.beta if math.isfinite(cfg.beta) else "inf",
            "init": _init_to_dict(cfg.init)}


# the converter of each ExperimentConfig field: a size's by its name, a block's
# by its key table, any other's by its annotation (a string under ``from
# __future__ import annotations``)
_SIZES = {"steps": count, "replicas": count, "thin": count, "burn_in": index,
          "pilot_steps": index}
_CONVERTERS = {"str": _string, "bool": _instance(bool, "a boolean"), "dict": _object,
               "SamplerConfig": _parse_sampler, "Optional[SamplerConfig]": _parse_sampler}
_OPTIONAL = {"optional": True}  # metadata: the echo leaves the field out while unset


@dataclass
class ExperimentConfig:
    """Validated experiment description (see ``KINDS`` for the kinds).

    Its fields are the config's top-level keys, with their defaults."""

    kind: str
    objective: dict = field(default_factory=lambda: copy.deepcopy(_OBJECTIVE))
    dataset: dict = field(default_factory=lambda: dict(_DATASET))
    sampler: SamplerConfig = field(default_factory=lambda: _parse_sampler({}))
    steps: int = 10000
    replicas: int = 8
    thin: int = 100
    burn_in: Optional[int] = None  # None: max(steps // 10, 2000) for gibbs-check, else 0
    out: str = "runs/out"
    strict: bool = False
    chain: str = "sghmc"
    sampler_b: Optional[SamplerConfig] = field(default=None, metadata=_OPTIONAL)
    rate: dict = field(default_factory=dict, metadata={**_OPTIONAL, "keys": _RATE_KEYS})
    risk: dict = field(default_factory=dict, metadata={**_OPTIONAL, "keys": _RISK_KEYS})
    audit: dict = field(default_factory=dict, metadata={**_OPTIONAL, "keys": _AUDIT_KEYS})
    pilot_steps: int = field(default=0, metadata=_OPTIONAL)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}; known: {KINDS}")
        if self.chain not in CHAIN_KINDS:
            raise ConfigurationError(f"unknown chain kind {self.chain!r}; known: {CHAIN_KINDS}")
        for name, convert in _SIZES.items():
            if getattr(self, name) is not None:  # a burn_in of None is resolved below
                setattr(self, name, convert(getattr(self, name), name))
        if self.burn_in is None:
            self.burn_in = max(self.steps // 10, 2000) if self.kind == "gibbs-check" else 0
        if self.chain == "sgld" and (self.kind in ("gibbs-check", "rate-study", "risk-bound")
                                     or self.kind == "constants" and self.pilot_steps > 0):
            raise ConfigurationError(f"{self.kind} needs a momentum chain; chain 'sgld' has none")

    @classmethod
    def from_dict(cls, d: dict, kind: Optional[str] = None) -> "ExperimentConfig":
        """The config of a JSON document, or of a manifest's ``config``: each
        key present converts by its field's type or its block's key table, and
        sampler_b's keys override sampler's. A document or block that is not a
        JSON object, a key that is not declared, and a value that does not
        convert are a ConfigurationError."""
        if not isinstance(d, dict):
            raise ConfigurationError(f"malformed config: {d!r} is not an object")
        if isinstance(d.get("config"), dict):
            d = d["config"]  # accept a manifest document as a config
        if unknown := sorted(set(d) - {f.name for f in fields(cls)}):
            raise ConfigurationError(f"unknown config key {unknown[0]!r}")
        if "sampler_b" in d:
            d = {**d, "sampler_b": {**_config_value(d, "sampler", {}, _object),
                                    **_config_value(d, "sampler_b", {}, _object)}}
        values = {f.name: _config_value(d, f.name, f.default, partial(_block, f.metadata["keys"])
                                        if "keys" in f.metadata
                                        else _SIZES.get(f.name) or _CONVERTERS[f.type])
                  for f in fields(cls)[1:] if f.name in d}
        return cls(kind or d.get("kind"), **values)

    def to_dict(self) -> dict:
        """The JSON echo that :meth:`from_dict` reads back; it leaves out the
        optional fields that are unset."""
        return {f.name: _sampler_to_dict(v) if isinstance(v, SamplerConfig) else v
                for f in fields(self) if (v := getattr(self, f.name)) or not f.metadata}


def load_config(path, kind: Optional[str] = None) -> ExperimentConfig:
    """The config of a JSON file; a file that cannot be read or is not JSON
    is a ConfigurationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigurationError(f"unreadable config {str(path)!r}: {exc}") from exc
    return ExperimentConfig.from_dict(doc, kind=kind)


def materialize(cfg: ExperimentConfig):
    """Build (objective, dataset) from a config, deriving z_radius if needed.
    A generator or objective the config cannot name, and objective parameters
    that the factory does not take or of the wrong type (a built-in's are
    finite real numbers, read by :func:`.errors.real`), are a ConfigurationError; so is a
    built-in's dataset whose z_dim is not the sampler's dim, and a key that
    the dataset or objective block does not declare."""
    try:
        ds = _read_block("dataset", _DATASET_KEYS, cfg.dataset)
        spec = _read_block("objective", _OBJECTIVE_KEYS, cfg.objective)
        name = spec["name"]
        z_dim = cfg.sampler.dim if ds["z_dim"] is None else ds["z_dim"]
        builtin = name == "quadratic" or name in _DATA_COUPLED
        if builtin and z_dim != cfg.sampler.dim:
            raise ConfigurationError(f"objective {name!r} needs dataset z_dim = sampler dim "
                                     f"{cfg.sampler.dim}, got {z_dim}")
        data = make_dataset(generator_id=ds["generator"], n=ds["n"], z_dim=z_dim,
                            seed=ds["seed"])
        params = dict(spec["params"])
        if builtin:  # built-ins take real numbers only
            params = {key: _config_value(params, key, None) for key in params}
        if name in _DATA_COUPLED or (name == "quadratic" and params.get("coupling", 0.0) != 0.0):
            params.setdefault("z_radius", data.max_norm())
        return make_objective(name, cfg.sampler.dim, **params), data
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed dataset or objective config: {exc}") from exc


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


def _certify(cfg: ExperimentConfig, obj, data):
    """(drift, lyap, mu0): the certified drift constants, the Lyapunov
    function and its integral under the initial law. The kinds that tabulate
    the theory chain check the drift inequality on the default 1000 probes;
    the others, which need it only for the step-size finding, on 256, since
    the cost grows with probes x samples."""
    s = cfg.sampler
    probes = 1000 if cfg.kind in ("constants", "risk-bound") else 256
    drift = theory.derive_drift_constants(obj.cert, s.gamma, s.beta, obj, data, probes=probes)
    lyap = theory.LyapunovParams(s.beta, s.gamma, drift.lambda_c, obj, data)
    return drift, lyap, theory.initial_lyapunov_integral(s.init, lyap, s.dim)


def _build(cfg: ExperimentConfig):
    """Materialize a config, certify it once and check it: (obj, data,
    findings, certified), where ``certified`` is :func:`_certify`'s triple,
    or None at beta = inf and where certification failed (a finding). A
    config that does not materialize gives obj = data = certified = None and
    a single violation."""
    try:
        obj, data = materialize(cfg)
    except ConfigurationError as exc:
        return None, None, [_finding("violation", "objective", str(exc))], None
    findings = []
    certified = None
    s = cfg.sampler
    risk = _with_defaults(_RISK_KEYS, cfg.risk)
    if math.isfinite(s.beta):
        try:
            certified = _certify(cfg, obj, data)
            drift, _, mu0 = certified
            moment = theory.moment_bound_constants(drift, obj.cert, s.gamma, s.beta, s.dim, mu0,
                                                   risk["delta"] or 0.0)
            ok = not s.lam > moment.lambda_cap
            findings.append(_finding(
                "info" if ok else "warning", "admissible-step" if ok else "inadmissible-step",
                f"step size {s.lam:g} "
                + ("is within the cap" if ok else "exceeds the moment-bound cap")
                + f" {moment.lambda_cap:g}", lambda_cap=moment.lambda_cap))
        except SghmcError as exc:  # certification trouble is a finding, not a crash
            findings.append(_finding("warning", "certification", str(exc)))
    if cfg.risk:
        try:
            theory.check_pq(risk["p"], risk["q"])
            findings.append(_finding("info", "pq-pairing",
                                     f"(p, q) = ({risk['p']}, {risk['q']}) is valid"))
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
        curv = max(s.beta * (obj.cert.M / 2.0 + s.gamma * s.gamma / 2.0), 0.75 * s.beta)
        ok = 1.0 / (2.0 * init.scale**2) > curv
        findings.append(_finding(
            "info" if ok else "warning", "initial-law",
            "gaussian initial law " + ("satisfies" if ok else "may violate")
            + f" the exponential-moment condition (scale {init.scale:g}, "
            f"quadratic growth {curv:g})"))
    return obj, data, findings, certified


# ---------------------------------------------------------------------------
# Oracles used by the verification kinds
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def sghmc_quadratic_stationary(lam: float, gamma: float, beta: float, m0: float):
    """Exact stationary per-coordinate variances of the discrete momentum chain
    on the decoupled quadratic objective (the discretization-bias oracle).

    The chain is linear per coordinate; its stationary covariance solves the
    discrete Lyapunov equation Sigma = A Sigma A^T + Q, solved directly as
    (I - A kron A) vec Sigma = vec Q (scipy's method below size 10).
    Returns (var_x, var_v); for an unstable chain, one that diverges (A kron A
    leaves float range, unwarned, at gamma lam past 1e154), they are no variances.
    """
    lam, gamma, beta, m0 = (positive(value, name) for value, name in
                            ((lam, "lam"), (gamma, "gamma"), (beta, "beta"), (m0, "m0")))
    A = np.array([[1.0 - lam * gamma, -lam * m0], [lam, 1.0]])
    q = 2.0 * gamma * lam / beta
    Q = np.array([[q, 0.0], [0.0, 0.0]])
    sigma = np.linalg.solve(np.eye(4) - np.kron(A, A), Q.flatten()).reshape(2, 2)
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


def to_json(doc) -> str:
    """Strict JSON text of ``doc`` (see ``jsonable``): the encoding of every
    JSON file a run writes."""
    return json.dumps(jsonable(doc), indent=2, allow_nan=False)


def _write(path: Path, doc) -> None:
    """Write text as is, a callable as ``doc(path)`` and anything else as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if callable(doc):
        doc(path)
    else:
        path.write_text(doc if isinstance(doc, str) else to_json(doc), encoding="utf-8")


def _constants_doc(table) -> dict:
    """A ConstantEntry table's entries as {value, status, formula_ref}; one in log
    space whose value left float range takes the status and log10 of in_range."""
    doc = {}
    for k, e in table.items():
        doc[k] = {"value": e.value, "status": e.status, "formula_ref": e.formula}
        if e.log is not None and isinstance(flagged := theory.in_range(e.value, e.log), dict):
            doc[k].update(flagged)
    return doc


def _constants_table(init: InitialLaw, drift, mu0, cc, moment) -> dict:
    """The theory chain's ConstantEntry table, before the proof constants."""
    return {
        "lambda_c": theory.ConstantEntry(drift.lambda_c, "exact",
                                         "min(1/4, m/(M + 2B + gamma^2/2)) / 2, probe-verified"),
        "A_c": theory.ConstantEntry(drift.A_c, "exact", "(beta/2)(b + 2B + A0), probe-verified"),
        "mu0_lyapunov": theory.ConstantEntry(
            mu0, "exact" if init.kind == "point" else "empirical",
            "integral of the Lyapunov functional under the initial law"),
        "Lambda_c": theory.ConstantEntry(cc.Lambda_c, "exact", "fixed point with alpha_c"),
        "alpha_c": theory.ConstantEntry(cc.alpha_c, "exact", "(1 + 1/Lambda_c) M / gamma^2"),
        "c_star": theory.ConstantEntry(cc.c_star, "exact", "contraction rate", cc.log_c_star),
        "C_star": theory.ConstantEntry(cc.C_star, "exact", "contraction prefactor",
                                       cc.log_C_star),
        "epsilon_c": theory.ConstantEntry(cc.epsilon_c, "exact",
                                          "4 c_star / (gamma (d + A_c))", cc.log_epsilon_c),
        "eta_c": theory.ConstantEntry(cc.eta_c, "exact", "1 / Lambda_c"),
        "R_1": theory.ConstantEntry(cc.R_1, "exact", "flat radius of h"),
        "C_c_x": theory.ConstantEntry(moment.C_c_x, "exact", "continuous x moment bound"),
        "C_c_v": theory.ConstantEntry(moment.C_c_v, "exact", "continuous v moment bound"),
        "C_a_x": theory.ConstantEntry(moment.C_a_x, "exact", "discrete x moment bound"),
        "C_a_v": theory.ConstantEntry(moment.C_a_v, "exact", "discrete v moment bound"),
        "K_1": theory.ConstantEntry(moment.K_1, "exact", "discrete drift constant"),
        "K_2": theory.ConstantEntry(moment.K_2, "exact", "2 B^2 (1/2 + gamma + delta)"),
        "lambda_cap": theory.ConstantEntry(moment.lambda_cap, "exact",
                                           "step-size cap for the moment bounds"),
    }


def _theory_chain(cfg: ExperimentConfig, obj, data, certified, p: float, delta: float):
    """``certified`` (see :func:`_build`) with the contraction and moment
    constants; without it, :func:`_certify` runs again to raise its error."""
    s = cfg.sampler
    drift, lyap, mu0 = certified or _certify(cfg, obj, data)
    cc = theory.contraction_constants(drift, obj.cert, s.gamma, s.beta, s.dim, p)
    moment = theory.moment_bound_constants(drift, obj.cert, s.gamma, s.beta, s.dim, mu0, delta)
    return drift, lyap, mu0, cc, moment


def _pilot_statistics(cfg: ExperimentConfig, obj, data, lyap, steps: int,
                      q: Optional[int] = None):
    """Short ensemble tracking sup of E V^2 and, given q, of E V^{2q} and the
    2q radial moment, on one evaluation of V a block; it sums no tail moments."""
    def functionals(X, V):
        W = lyap.value_rows(X, V)
        if q is None:
            return {"v2": W ** 2}
        return {"v2": W ** 2, "v2q": W ** (2 * q), "radial2q": np.sum(X * X, axis=1) ** q}

    return ensemble_run(
        cfg.chain, cfg.sampler, obj, data, steps=steps, replicas=min(cfg.replicas, 8),
        record_every=max(1, steps // 50), burn_in=steps, functionals=functionals,
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
    start = time.perf_counter()
    obj, data, findings, certified = _build(cfg)
    blocking = [f["message"] for f in findings if f["level"] != "info"] if cfg.strict else []
    if blocking and cfg.kind != "validate":
        raise ConfigurationError(
            "strict mode: validation findings block the run: " + "; ".join(blocking))
    if obj is None and cfg.kind != "validate":
        raise ConfigurationError(findings[0]["message"])
    try:
        data_seed = _config_value(cfg.dataset, "seed", _DATASET["seed"], index)
    except ConfigurationError:  # already the violation finding of _build
        data_seed = None
    out = Path(cfg.out)
    manifest = RunManifest(config=cfg.to_dict(), version=__version__,
                           seeds={"sampler": cfg.sampler.seed, "dataset": data_seed},
                           wall_time_s=0.0, divergence=[], outputs=[], findings=findings)

    def emit(name: str, doc) -> None:
        """The one writer of a run's outputs (see ``_write``)."""
        _write(out / name, doc)
        manifest.outputs.append(str(out / name))

    def finish() -> None:
        manifest.wall_time_s = time.perf_counter() - start
        manifest.results = jsonable(manifest.results)
        _write(out / "manifest.json", asdict(manifest))

    try:
        objection = _KINDS[cfg.kind](cfg, obj, data, certified, emit, manifest)
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


# Experiment kinds, one function each: a kind writes its outputs through ``emit``
# and its results and dropped grid points into the manifest, and returns what
# strict mode holds against the result (a failed audit), else None

def _audit(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest):
    """certificate audit of an objective on its dataset"""
    audit = _with_defaults(_AUDIT_KEYS, cfg.audit)
    report = audit_assumptions(obj, data, probes=audit["probes"], radius=audit["radius"],
                               seed=cfg.sampler.seed if audit["seed"] is None else audit["seed"])
    emit("audit.json", [e.to_dict() for e in report.entries])
    manifest.results["all_passed"] = report.all_passed
    return None if report.all_passed else "assumption audit failed"


def _constants(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """the full derived-constants table (with a pilot chain for the empirical entries)"""
    risk = _with_defaults(_RISK_KEYS, cfg.risk)
    drift, lyap, mu0, cc, moment = _theory_chain(cfg, obj, data, certified, risk["p"],
                                                 risk["delta"] or 0.0)
    table = _constants_table(cfg.sampler.init, drift, mu0, cc, moment)
    pilot_sup_v2 = None
    if cfg.pilot_steps > 0:
        pilot = _pilot_statistics(cfg, obj, data, lyap, cfg.pilot_steps)
        pilot_sup_v2 = manifest.results["pilot_sup_v2"] = pilot.running_max["v2"]
    table.update(theory.proof_constants(cc, moment, pilot_sup_v2=pilot_sup_v2))
    emit("constants.json", _constants_doc(table))
    manifest.results.update(lambda_c=drift.lambda_c, lambda_cap=moment.lambda_cap)


def _sample(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """one thinned chain trajectory"""
    traj = run_chain(cfg.chain, cfg.sampler, obj, data, steps=cfg.steps, thin=cfg.thin)
    emit("trajectory.csv", traj.to_csv)
    manifest.results["recorded_states"] = len(traj)


def _couple(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """a synchronously coupled pair and its separation series"""
    _, _, distances = coupled_run(cfg.chain, cfg.sampler, cfg.sampler_b or cfg.sampler, obj,
                                  data, steps=cfg.steps, thin=cfg.thin)
    emit("distances.csv", "step,dist_x,dist_v\n" + "".join(
        f"{int(row[0])},{row[1]:.17g},{row[2]:.17g}\n" for row in distances))
    manifest.results.update(final_dist_x=float(distances[-1, 1]),
                            final_dist_v=float(distances[-1, 2]))


def _rate_study(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """coupled distance against a finer reference across step sizes"""
    rate = _with_defaults(_RATE_KEYS, cfg.rate)
    table = rate_study(obj, data, cfg.sampler, rate["lambdas"], rate["ref_divisor"],
                       rate["t_end"], cfg.replicas)
    emit("rate.csv", "lambda,distance,flag\n" + "".join(
        f"{row['lambda']:.17g},{row['distance']:.17g},{row['flag']}\n" for row in table["rows"]))
    manifest.divergence.extend({"lambda": row["lambda"], "message": "dropped"}
                               for row in table["rows"] if row["flag"] == "diverged")
    manifest.results.update({"slope": table["slope"], "rows": table["rows"]})
    if all(row["flag"] == "diverged" for row in table["rows"]):
        raise DivergenceError("every grid point diverged", step=0)


def _gibbs_check(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """stationary moments of the quadratic objective vs the exact law"""
    if obj.name != "quadratic":
        raise ConfigurationError("gibbs-check needs the quadratic objective (exact law known)")
    s = cfg.sampler
    m0 = obj.cert.M  # the quadratic's M is its m0
    if cfg.steps <= cfg.burn_in:
        raise ConfigurationError(
            f"gibbs-check steps must be >= {cfg.burn_in + 1} to keep a tail sample after "
            f"burn_in {cfg.burn_in}, got {cfg.steps}")
    pred_x, pred_v = sghmc_quadratic_stationary(s.lam, s.gamma, s.beta, m0)  # checks them first
    res = ensemble_run(cfg.chain, s, obj, data, steps=cfg.steps, replicas=cfg.replicas,
                       burn_in=cfg.burn_in, purpose="gibbs")
    expected_x = 1.0 / (s.beta * m0)
    expected_v = 1.0 / s.beta
    var_x = float(np.mean(res.tail_var_x))
    var_v = float(np.mean(res.tail_var_v))
    rel_x = abs(var_x - expected_x) / expected_x
    rel_v = abs(var_v - expected_v) / expected_v
    manifest.results.update({
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
    })
    emit("gibbs.json", manifest.results)


def _risk_bound(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """the three-term risk bound from pilot-calibrated constants"""
    s = cfg.sampler
    risk = _with_defaults(_RISK_KEYS, cfg.risk)
    p, q, sigma = risk["p"], risk["q"], risk["sigma"]
    theory.check_pq(p, q)
    if risk["c_ls"] is None and risk["lambda_star"] is None:  # before any chain runs
        raise ConfigurationError("supply either c_ls or lambda_star")
    k = cfg.steps if risk["k"] is None else risk["k"]

    # noise level: explicit, or measured for a chain that draws minibatches, else 0
    delta = risk["delta"]
    if delta is None and s.batch_size is None:
        delta = 0.0
    elif delta is None:
        probe_rng = derive_stream(s.seed, "risk:probes")
        probes = [np.zeros(s.dim)] + [probe_rng.standard_normal(s.dim) for _ in range(7)]
        delta = estimate_delta(obj, data, s.batch_size, derive_stream(s.seed, "risk:delta"),
                               probes, trials=400)

    drift, lyap, mu0, cc, moment = _theory_chain(cfg, obj, data, certified, p, delta)
    pilot_steps = cfg.pilot_steps or max(2000, min(cfg.steps, 20000))
    pilot = _pilot_statistics(cfg, obj, data, lyap, pilot_steps, q=q)
    proof = theory.proof_constants(cc, moment, pilot_sup_v2=pilot.running_max["v2"])

    if sigma is None:
        sigma = pilot.running_max["radial2q"] ** (1.0 / (2.0 * q))
        if obj.name == "quadratic" and obj.cert.B == 0.0:  # uncoupled; its M is its m0
            m0 = obj.cert.M
            gibbs = (s.beta * m0) ** (-0.5 * 2 * q) * theory.gaussian_norm_moment(s.dim, 2 * q)
            sigma = max(sigma, gibbs ** (1.0 / (2.0 * q)))

    # rho-distance of the initial law from the long-run cloud
    cloud_n = min(64, cfg.replicas * 8)
    init_rng = derive_stream(s.seed, "risk:init-cloud")
    Xi, Vi = s.init.sample(s.dim, init_rng, size=cloud_n)
    chain_steps = max(cfg.steps, 200 * cloud_n)
    tail = run_chain(cfg.chain, s, obj, data, steps=chain_steps,
                     thin=max(1, chain_steps // cloud_n))
    # thin <= chain_steps / cloud_n, so the tail records cloud_n + 1 states at least
    init_cloud = SampleCloud(np.hstack([Xi, Vi]))
    long_cloud = SampleCloud(np.hstack([tail.xs[-cloud_n:], tail.vs[-cloud_n:]]))
    w_rho = rho_distance_cloud(init_cloud, long_cloud, cc, lyap)

    bound = theory.risk_bound(cc, proof, data.n, s.lam, delta, k, q, sigma, w_rho,
                              c_ls=risk["c_ls"], lambda_star=risk["lambda_star"])
    results = manifest.results
    results.update({"B_1": theory.in_range(bound.B_1, bound.log_B_1), "B_2": bound.B_2,
                    "B_3": bound.B_3, "inputs": bound.inputs, "w_rho_init": w_rho,
                    "sigma": sigma, "delta": delta})
    if (eps := risk["eps"]) is not None:
        cap, k_min = theory.iteration_budget(cc, proof["C_tilde"], eps, w_rho)
        results["budget"] = {"eps": eps, "cap": cap, "k_min": k_min}
    emit("risk.json", results)


def _validate(cfg: ExperimentConfig, obj, data, certified, emit, manifest: RunManifest) -> None:
    """config findings only (step-size cap, p/q pairing, init law)"""
    emit("findings.json", manifest.findings)
    manifest.results["findings"] = manifest.findings


# every kind by its name, in the order of ``sghmc --help``
_KINDS = {"audit": _audit, "constants": _constants, "sample": _sample, "couple": _couple,
          "rate-study": _rate_study, "gibbs-check": _gibbs_check, "risk-bound": _risk_bound,
          "validate": _validate}
KINDS = tuple(_KINDS)


def rate_study(obj: ObjectiveSpec, data: Dataset, base: SamplerConfig, lambdas,
               lambda_ref_divisor: float, t_end: float, replicas: int) -> dict:
    """Coupled distance to one finer reference across a decreasing step grid.

    The chain at each lambda is synchronously coupled (one Brownian path) to
    one full-gradient reference at lambda_min / divisor and compared at
    matched physical time ``t_end`` (see ``samplers._rate_coupling``).
    Divergent grid points, and runaway ones whose distance is not finite,
    are dropped with a flag; the log-log slope is fitted over the survivors
    (None below two).
    """
    lambdas = sorted({positive(lam, "lambdas") for lam in lambdas}, reverse=True)
    if not lambdas:
        raise ConfigurationError("rate study needs at least one step size")
    lambda_ref_divisor = count(lambda_ref_divisor, "lambda_ref_divisor")
    t_end, replicas = positive(t_end, "t_end"), count(replicas, "replicas")
    dists = _rate_coupling(base, lambdas, lambdas[-1] / lambda_ref_divisor, obj, data, t_end,
                           replicas)
    rows = []
    for lam, dist in zip(lambdas, dists):
        if not isinstance(dist, DivergenceError) and math.isfinite(dist):
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
