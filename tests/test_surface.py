"""Every numeric parameter of the public entry points goes through the scalar
converters of :mod:`sghmc.errors`.

At each of the values 2.5, inf, NaN, True, -1 and 0, a call raises a
ConfigurationError that names the parameter, or the value is one that the
parameter's row accepts, for the reason it gives; no call ends in a raw
TypeError, ValueError, OverflowError or ZeroDivisionError. The entry points are
the package's exports, plus the runners and theory functions that
tests/test_acceptance.py and perfbench reach through their modules, and the
theory functions that the harness calls (``theory.<name>``). A numeric
parameter of one of them (annotated int or float, or with a numeric default)
that has no row fails the test, so a new public parameter cannot skip the
converters. The functions downstream of ``contraction_constants`` read the
certificate, gamma, beta, d and p from the ``cc`` they take; their rows for
those inputs pass each value through the constants evaluated at it, under the
acceptance of ``contraction_constants``' row.
"""

import ast
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sghmc import ConfigurationError, make_dataset, quadratic, theory
from sghmc.gradient_oracle import VarianceCurve
from sghmc.harness import ExperimentConfig, RunManifest
from sghmc.metrics import SampleCloud
from sghmc.objectives import Dataset, ObjectiveSpec, SmoothnessCertificate
from sghmc.rng import derive_stream
from sghmc.samplers import InitialLaw, SamplerConfig, point_init

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("samplers", "harness", "theory", "metrics", "objectives", "gradient_oracle")
NUMERIC = ("int", "float", "Optional[int]", "Optional[float]")

SIX = {"2.5": 2.5, "inf": math.inf, "nan": math.nan, "True": True, "-1": -1, "0": 0}

# The values of the six that a kind of parameter accepts, each with its reason;
# every other one must raise a ConfigurationError that names the parameter
COUNT = {}  # an integer >= 1 (a size, a number of steps or draws)
INDEX = {"0": "a seed, an index or a burn-in may be 0"}
POSITIVE = {"2.5": "a positive finite real"}
NONNEG = {**POSITIVE, "0": "a non-negative real may be 0"}
REAL = {**NONNEG, "-1": "any finite real"}
ORDER = {"2.5": "a transport order is a finite real >= 1"}
RULE = {}  # a theory interval rule, or a pairing with another parameter, rejects all six
RECORD = {label: "a field of a result record, which the package fills in" for label in SIX}
INFINITE = {label: "a constant outside float range is recorded as it is, by design"
            for label in SIX}


# ---------------------------------------------------------------------------
# The calls: each entry point on valid arguments, which a row's value overrides
# ---------------------------------------------------------------------------

DATA = make_dataset("gaussian", 12, 2, seed=7)
OBJ = quadratic(2, m0=1.0)
CFG = dict(lam=0.1, gamma=2.0, beta=1.0, batch_size=None, dim=2, seed=0,
           init=point_init([1.0, 0.0], [0.0, 0.0]))
DRIFT = theory.derive_drift_constants(OBJ.cert, 2.0, 1.0, OBJ, DATA, probes=50)
CC = theory.contraction_constants(DRIFT, OBJ.cert, 2.0, 1.0, 2)
MOMENT = theory.moment_bound_constants(DRIFT, OBJ.cert, 2.0, 1.0, 2, 1.0)
PROOF = theory.proof_constants(CC, MOMENT, pilot_sup_v2=4.0)
LYAP = theory.LyapunovParams(obj=OBJ, data=DATA, beta=1.0, gamma=2.0, lambda_c=0.1)
CLOUD, CLOUD_B, CLOUD_1D = (SampleCloud(derive_stream(3, "surface", i).standard_normal(shape))
                            for i, shape in enumerate([(6, 2), (6, 2), (5, 1)]))


def _cfg(**kw):
    return SamplerConfig(**{**CFG, **kw})


def _call(fn, *args, **defaults):
    """``fn(*args, **defaults)`` with the overrides of a row."""
    return lambda **kw: fn(*args, **{**defaults, **kw})


def _module(name):
    return importlib.import_module(f"sghmc.{name}")


samplers, harness, metrics, objectives, oracle = map(
    _module, ("samplers", "harness", "metrics", "objectives", "gradient_oracle"))

# entry point: (call, {parameter: accepted values}, {parameter: the name its messages use})
ENTRIES = {
    "gradient_oracle.VarianceCurve": (
        _call(VarianceCurve, points=[], slope=None), {"slope": RECORD}, {}),
    "gradient_oracle.estimate_delta": (
        _call(oracle.estimate_delta, OBJ, DATA, rng=derive_stream(1, "surface"),
              probes=[np.zeros(2)], batch_size=2, trials=100),
        {"batch_size": COUNT, "trials": COUNT}, {"batch_size": "batch size"}),
    "gradient_oracle.sample_gradient_many": (
        _call(oracle.sample_gradient_many, OBJ, DATA, rng=derive_stream(1, "surface"),
              x=np.zeros(2), batch_size=2, trials=5),
        {"batch_size": COUNT, "trials": COUNT}, {"batch_size": "batch size"}),
    "gradient_oracle.variance_scaling_curve": (
        _call(oracle.variance_scaling_curve, OBJ, DATA, np.zeros(2), [1, 2], trials=5, seed=0),
        {"trials": COUNT, "seed": INDEX}, {}),
    "harness.ExperimentConfig": (
        _call(ExperimentConfig, "sample"),
        {"steps": COUNT, "replicas": COUNT, "thin": COUNT, "burn_in": INDEX,
         "pilot_steps": INDEX}, {}),
    "harness.RunManifest": (
        _call(RunManifest, config={}, version="", seeds={}, wall_time_s=0.0, divergence=[],
              outputs=[], findings=[]),
        {"wall_time_s": RECORD}, {}),
    "harness.rate_study": (
        _call(harness.rate_study, OBJ, DATA, base=_cfg(), lambdas=[0.1], lambda_ref_divisor=2,
              t_end=0.5, replicas=2),
        {"lambda_ref_divisor": COUNT, "t_end": POSITIVE, "replicas": COUNT}, {}),
    "harness.sghmc_quadratic_stationary": (
        _call(harness.sghmc_quadratic_stationary, lam=0.01, gamma=2.0, beta=1.0, m0=1.0),
        {"lam": POSITIVE, "gamma": POSITIVE, "beta": POSITIVE, "m0": POSITIVE}, {}),
    "metrics.quad_growth_continuity_check": (
        _call(metrics.quad_growth_continuity_check, lambda W: np.sum(W * W, axis=1), (2.0, 0.0),
              CLOUD, CLOUD_B, p=2.0, q=2.0),
        {"p": RULE, "q": RULE}, {"p": "order p", "q": "order q"}),
    "metrics.sliced_wasserstein": (
        _call(metrics.sliced_wasserstein, CLOUD, CLOUD_B, p=2.0, n_projections=8, seed=0),
        {"p": ORDER, "n_projections": COUNT, "seed": INDEX}, {"p": "order p"}),
    "metrics.wasserstein_1d": (
        _call(metrics.wasserstein_1d, CLOUD_1D, CLOUD.points[:, :1], p=2.0, resample_seed=0),
        {"p": ORDER, "resample_seed": INDEX}, {"p": "order p"}),
    "metrics.wasserstein_exact_small": (
        _call(metrics.wasserstein_exact_small, CLOUD, CLOUD_B, p=2.0),
        {"p": ORDER}, {"p": "order p"}),
    "objectives.Dataset": (
        _call(Dataset, samples=np.zeros((3, 2)), generator_id="literal", seed=0),
        {"seed": INDEX}, {}),
    "objectives.ObjectiveSpec": (
        _call(ObjectiveSpec, "spec", f=OBJ.f, grad_f=OBJ.grad_f, cert=OBJ.cert, dim=2),
        {"dim": COUNT}, {}),
    "objectives.SmoothnessCertificate": (
        _call(SmoothnessCertificate, A0=0.5, B=0.5, M=3.0, m=1.0, b=0.5),
        {"A0": NONNEG, "B": NONNEG, "M": {"2.5": "a positive M at least m"},
         "m": {"2.5": "a positive m at most M"}, "b": NONNEG}, {}),
    "objectives.audit_assumptions": (
        _call(objectives.audit_assumptions, OBJ, DATA, probes=4, radius=None, seed=0),
        {"probes": COUNT, "radius": POSITIVE, "seed": INDEX}, {}),
    "objectives.double_well": (
        _call(objectives.double_well, dim=2, coupling=0.1, z_radius=1.0, well_radius=2.0),
        {"dim": COUNT, "coupling": NONNEG, "z_radius": POSITIVE,
         "well_radius": {"2.5": "a splice radius >= 1.5 contains both wells"}}, {}),
    "objectives.gaussian_mixture": (
        _call(objectives.gaussian_mixture, dim=2, ridge=0.05, z_radius=1.0),
        {"dim": COUNT, "ridge": NONNEG, "z_radius": POSITIVE}, {}),
    "objectives.make_dataset": (
        _call(make_dataset, "gaussian", n=5, z_dim=2, seed=0),
        {"n": COUNT, "z_dim": COUNT, "seed": INDEX}, {}),
    "objectives.make_objective": (
        _call(objectives.make_objective, "quadratic", dim=2), {"dim": COUNT}, {}),
    "objectives.quadratic": (
        _call(quadratic, dim=2, m0=1.0, coupling=0.5, z_radius=1.0),
        {"dim": COUNT, "m0": POSITIVE, "coupling": REAL, "z_radius": POSITIVE}, {}),
    "samplers.InitialLaw": (
        _call(InitialLaw, "gaussian", mean=0.0, scale=1.0),
        {"mean": REAL, "scale": POSITIVE}, {}),
    "samplers.SamplerConfig": (
        _cfg,
        {"lam": {**NONNEG, "0": "the identity step, a degenerate limit (see the docstring)"},
         "gamma": {**NONNEG, "0": "the free particle, a degenerate limit (see the docstring)"},
         "beta": {**POSITIVE, "inf": "the zero-noise limit (see the docstring)"},
         "batch_size": COUNT, "dim": COUNT, "seed": INDEX},
        {"batch_size": "batch size"}),
    "samplers.coupled_ensemble_run": (
        _call(samplers.coupled_ensemble_run, "sghmc", _cfg(), _cfg(), OBJ, DATA, steps=5,
              replicas=2, record_every=1),
        {"steps": COUNT, "replicas": COUNT, "record_every": COUNT}, {}),
    "samplers.coupled_run": (
        _call(samplers.coupled_run, "sghmc", _cfg(), _cfg(), OBJ, DATA, steps=5, thin=1),
        {"steps": COUNT, "thin": COUNT}, {}),
    "samplers.ensemble_run": (
        _call(samplers.ensemble_run, "sghmc", _cfg(), OBJ, DATA, steps=5, replicas=2,
              record_every=1, burn_in=0),
        {"steps": COUNT, "replicas": COUNT, "record_every": COUNT, "burn_in": INDEX}, {}),
    "samplers.gaussian_init": (
        _call(samplers.gaussian_init, mean=0.0, scale=1.0), {"mean": REAL, "scale": POSITIVE}, {}),
    "samplers.run_chain": (
        _call(samplers.run_chain, "sghmc", _cfg(), OBJ, DATA, steps=5, thin=1),
        {"steps": COUNT, "thin": COUNT}, {}),
    "samplers.brownian_coupled_distance": (
        _call(samplers.brownian_coupled_distance, _cfg(), obj=OBJ, data=DATA, lambda_ref=0.05,
              t_end=0.5, replicas=2),
        # lambda_ref must divide lam = 0.1, and t_end hold a coarse step
        {"lambda_ref": RULE, "t_end": POSITIVE, "replicas": COUNT}, {}),
    "theory.ConstantEntry": (
        _call(theory.ConstantEntry, value=1.0, status="exact", formula="", log=0.0),
        {"value": INFINITE, "log": INFINITE}, {}),
    "theory.check_pq": (_call(theory.check_pq, p=2.0, q=1), {"p": RULE, "q": RULE}, {}),
    "theory.gaussian_norm_moment": (
        _call(theory.gaussian_norm_moment, d=2, j=2), {"d": COUNT, "j": INDEX}, {}),
    "theory.in_range": (
        _call(theory.in_range, value=1.0, log_value=0.0),
        {"value": INFINITE, "log_value": INFINITE}, {}),
    "theory.initial_lyapunov_integral": (
        _call(theory.initial_lyapunov_integral, point_init([1.0, 0.0], [0.0, 0.0]), LYAP, dim=2),
        {"dim": COUNT}, {}),
    "theory.iteration_budget": (
        _call(theory.iteration_budget, CC, PROOF["C_tilde"], eps=0.1, w_rho_init=1.0),
        {"eps": POSITIVE,
         "w_rho_init": {**NONNEG, "0": "a chain that starts at its law: a zero budget"}}, {}),
    "theory.LyapunovParams": (
        _call(theory.LyapunovParams, obj=OBJ, data=DATA, beta=1.0, gamma=2.0, lambda_c=0.1),
        {"beta": POSITIVE, "gamma": POSITIVE, "lambda_c": RULE}, {}),
    "theory.closed_form_drift": (
        _call(theory.closed_form_drift, OBJ.cert, gamma=2.0, beta=1.0),
        {"gamma": POSITIVE, "beta": POSITIVE}, {}),
    "theory.contraction_constants": (
        _call(theory.contraction_constants, DRIFT, OBJ.cert, gamma=2.0, beta=1.0, d=2, p=2.0),
        {"gamma": POSITIVE, "beta": POSITIVE, "d": COUNT, "p": RULE}, {}),
    "theory.derive_drift_constants": (
        _call(theory.derive_drift_constants, OBJ.cert, obj=OBJ, data=DATA, gamma=2.0, beta=1.0,
              probes=20),
        {"gamma": POSITIVE, "beta": POSITIVE, "probes": COUNT}, {}),
    "theory.h_function": (_call(theory.h_function, CC, r=0.5), {"r": NONNEG}, {}),
    "theory.h_profile": (_call(theory.h_profile, CC, r_max=None), {"r_max": POSITIVE}, {}),
    "theory.lyapunov_moment_certificate": (
        _call(theory.lyapunov_moment_certificate, DRIFT, OBJ.cert, gamma=2.0, beta=1.0, d=2,
              q=1, lam=0.01, v0_lyapunov=1.0, pilot_max_v2q=None),
        {"gamma": POSITIVE, "beta": POSITIVE, "d": COUNT, "q": RULE, "lam": POSITIVE,
         "v0_lyapunov": NONNEG, "pilot_max_v2q": NONNEG}, {}),
    "theory.moment_bound_constants": (
        _call(theory.moment_bound_constants, DRIFT, OBJ.cert, gamma=2.0, beta=1.0, d=2,
              mu0_lyapunov_integral=1.0, delta=0.0),
        {"gamma": POSITIVE, "beta": POSITIVE, "d": COUNT, "mu0_lyapunov_integral": NONNEG,
         "delta": NONNEG}, {}),
    "theory.proof_constants": (
        _call(theory.proof_constants, CC, MOMENT, pilot_sup_v2=None),
        {"pilot_sup_v2": NONNEG}, {}),
    "theory.risk_bound": (
        _call(theory.risk_bound, CC, PROOF, n=12, lam=0.01, delta=0.0, k=10, q=1, sigma=1.0,
              w_rho_init=1.0, c_ls=None, lambda_star=1.0),
        {"n": COUNT,
         "lam": {**POSITIVE, "0": "the bound at the step-size limit, as SamplerConfig takes it"},
         "delta": NONNEG, "k": INDEX, "q": RULE, "sigma": NONNEG,
         "w_rho_init": NONNEG, "c_ls": POSITIVE, "lambda_star": POSITIVE}, {}),
}
# the same class under another module's name
ENTRIES["theory.SmoothnessCertificate"] = ENTRIES["objectives.SmoothnessCertificate"]


# ---------------------------------------------------------------------------
# The entry points and their numeric parameters, found in the source
# ---------------------------------------------------------------------------

def _entry_points() -> set:
    """(module, name) of the exports of sghmc/__init__.py, of every
    ``<module>.<name>``, ``sghmc.<module>.<name>`` and ``from sghmc.<module>
    import <name>`` in tests/test_acceptance.py and perfbench, of the
    ("sghmc.<module>", "<name>") pairs that perfbench's tracer patches, and of
    every ``theory.<name>`` in the harness."""
    harness_tree = ast.parse((ROOT / "src" / "sghmc" / "harness.py").read_text(encoding="utf-8"))
    found = {("theory", node.attr) for node in ast.walk(harness_tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "theory"}
    sources = [ROOT / "src" / "sghmc" / "__init__.py", ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    for path in sources:
        package = path.parent.name == "sghmc"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.removeprefix("sghmc.") if not package else node.module
                if module in MODULES and (package or node.module.startswith("sghmc.")):
                    found.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and not package:
                owner = node.value
                if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                        and owner.value.id == "sghmc"):
                    owner = ast.Name(owner.attr)
                if isinstance(owner, ast.Name) and owner.id in MODULES:
                    found.add((owner.id, node.attr))
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.elts[:2]) and node.elts[0].value.startswith("sghmc."):
                module = node.elts[0].value.removeprefix("sghmc.")
                if module in MODULES:
                    found.add((module, node.elts[1].value))
    return found


def _numeric_parameters():
    """{"module.name": [parameter, ...]} of every entry point with a numeric parameter."""
    numeric = {}
    for module, name in sorted(_entry_points()):
        target = getattr(_module(module), name, None)
        if not callable(target) or (isinstance(target, type)
                                    and issubclass(target, BaseException)):
            continue
        params = [p.name for p in inspect.signature(target).parameters.values()
                  if str(p.annotation) in NUMERIC
                  or (isinstance(p.default, (int, float)) and not isinstance(p.default, bool))]
        if params:
            numeric[f"{module}.{name}"] = params
    return numeric


def test_every_numeric_parameter_has_a_row():
    numeric = _numeric_parameters()
    # the fourteen entry points that the scalar checks were first probed on
    assert {"samplers.SamplerConfig", "samplers.run_chain", "samplers.coupled_run",
            "samplers.ensemble_run", "samplers.coupled_ensemble_run",
            "samplers.brownian_coupled_distance", "metrics.wasserstein_1d",
            "metrics.wasserstein_exact_small", "metrics.sliced_wasserstein",
            "objectives.make_dataset", "objectives.make_objective",
            "objectives.audit_assumptions", "theory.contraction_constants",
            "gradient_oracle.estimate_delta"} <= set(numeric)
    missing = [f"{entry}({param})" for entry, params in numeric.items() for param in params
               if param not in ENTRIES.get(entry, (None, {}))[1]]
    stale = [f"{entry}({param})" for entry, (_, rows, _) in ENTRIES.items() for param in rows
             if param not in numeric.get(entry, ())]
    assert missing == [] and stale == []


def _chain(gamma=2.0, beta=1.0, d=2, p=2.0):
    """(cc, moment, proof) of OBJ, each evaluated at the given inputs."""
    drift = theory.derive_drift_constants(OBJ.cert, gamma, beta, OBJ, DATA, probes=50)
    cc = theory.contraction_constants(drift, OBJ.cert, gamma, beta, d, p)
    moment = theory.moment_bound_constants(drift, OBJ.cert, cc.gamma, cc.beta, cc.d, 1.0)
    return cc, moment, theory.proof_constants(cc, moment, pilot_sup_v2=4.0)


# function downstream of contraction_constants: (call on (cc, moment, proof), the
# inputs it reads from cc that a caller picks); a value reaches it only through
# the constants evaluated at that value
CARRIED = {
    "theory.h_function": (lambda cc, *_: theory.h_function(cc, r=0.5), ("beta", "gamma")),
    "theory.h_profile": (lambda cc, *_: theory.h_profile(cc), ("beta", "gamma")),
    "theory.proof_constants": (
        lambda cc, moment, _: theory.proof_constants(cc, moment), ("gamma", "beta")),
    "theory.risk_bound": (
        lambda cc, _, proof: theory.risk_bound(cc, proof, n=12, lam=0.01, delta=0.0, k=10, q=1,
                                               sigma=1.0, w_rho_init=1.0, lambda_star=1.0),
        ("gamma", "beta", "d", "p")),
    "theory.iteration_budget": (
        lambda cc, _, proof: theory.iteration_budget(cc, proof["C_tilde"], eps=0.1,
                                                     w_rho_init=1.0),
        ("p",)),
}


def _carried(fn):
    return lambda **kw: fn(*_chain(**kw))


# (entry point, parameter): (call, accepted values, the name its messages use)
ROWS = {(entry, param): (call, accepted, names.get(param, param))
        for entry, (call, rows, names) in ENTRIES.items() for param, accepted in rows.items()}
ROWS.update({(entry, param): (_carried(fn), ENTRIES["theory.contraction_constants"][1][param],
                              param)
             for entry, (fn, params) in CARRIED.items() for param in params})
CASES = [(entry, param, label) for entry, param in ROWS for label in SIX]


def test_carried_inputs_are_read_from_cc():
    for entry, (_, params) in CARRIED.items():
        signature = inspect.signature(getattr(theory, entry.removeprefix("theory.")))
        assert "cc" in signature.parameters and not set(params) & set(signature.parameters)
        assert set(params) <= set(theory.ContractionConstants.__dataclass_fields__)


@pytest.mark.parametrize("entry, param, label", CASES,
                         ids=[f"{e}-{p}-{v}" for e, p, v in CASES])
def test_value_is_converted_or_rejected(entry, param, label):
    call, accepted, name = ROWS[entry, param]
    with np.errstate(all="ignore"):
        if label in accepted:  # accepted, for the reason the row gives
            call(**{param: SIX[label]})
            return
        with pytest.raises(ConfigurationError) as err:
            call(**{param: SIX[label]})
    assert re.search(rf"\b{re.escape(name)}\b", str(err.value)), err.value


# Values that an entry point once took without a word, or ended on in a raw
# TypeError, ValueError or OverflowError
HOLES = {
    "make_dataset-n": (lambda: make_dataset("gaussian", 2.5, 2, 0), "n"),
    "make_dataset-z_dim": (lambda: make_dataset("gaussian", 5, 2.5, 0), "z_dim"),
    "make_dataset-seed-inf": (lambda: make_dataset("gaussian", 5, 2, math.inf), "seed"),
    "make_objective-dim": (lambda: objectives.make_objective("quadratic", dim=2.5), "dim"),
    "SamplerConfig-dim": (lambda: _cfg(dim=2.5), "dim"),
    "contraction_constants-d": (
        lambda: theory.contraction_constants(DRIFT, OBJ.cert, 2.0, 1.0, 2.5), "d"),
    "audit_assumptions-probes": (
        lambda: objectives.audit_assumptions(OBJ, DATA, 2.5, None, 0), "probes"),
    "audit_assumptions-seed-nan": (
        lambda: objectives.audit_assumptions(OBJ, DATA, 4, None, math.nan), "seed"),
    "wasserstein_1d-resample_seed-nan": (
        lambda: metrics.wasserstein_1d(CLOUD_1D, CLOUD.points[:, :1], resample_seed=math.nan),
        "resample_seed"),
    "sliced_wasserstein-seed-inf": (
        lambda: metrics.sliced_wasserstein(CLOUD, CLOUD_B, seed=math.inf), "seed"),
    "run_chain-seed-nan": (
        lambda: samplers.run_chain("sghmc", _cfg(seed=math.nan), OBJ, DATA, 5), "seed"),
}


@pytest.mark.parametrize("call, name", list(HOLES.values()), ids=list(HOLES))
def test_hole_is_a_configuration_error(call, name):
    with pytest.raises(ConfigurationError, match=rf"\b{name} must be"):
        call()
