"""The benchmark's workloads.

Each workload derives every dataset and sampler seed from the workload seed,
so the program sees only the generated configs. A pass is a closed loop: one
caller, and each call starts after the previous one returns. The pass's main
operations are timed together (``wall_s``); its robustness set runs after
them, untimed, and only feeds ``fail_ratio``. Every operation is then checked.

An operation's check returns ``(problems, digests)``: an empty problem list
means the operation succeeded; the digests are SHA-256 hashes of what it
wrote or returned, compared against ``golden.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sghmc.cli
import sghmc.harness
import sghmc.metrics
import sghmc.samplers
import sghmc.theory

DEFAULT_SEED = 0

# RMS relative deviations of the pooled gibbs-check variances from the exact
# discrete-chain law, over 12 seeds (2-CPU Xeon, numpy 2.4.6): 1.2% (x) and
# 0.7% (v) at R=64 and 20000 steps; 3.6% (x) and 1.2% (v) at R=32 and 8000
# steps. Each tolerance is five times the larger one, so it holds across seeds.
GIBBS_TOL_ENSEMBLE = 0.06
GIBBS_TOL_CLI = 0.18

# statuses and keys that mark a constant as deliberately out of range
FLAG_STATUSES = ("underflow", "overflow")
FLAG_KEYS = ("log10",)

OBJECTIVE_PARAMS = {
    "quadratic": {"m0": 1.0},
    "double_well": {"coupling": 0.1},
    "gaussian_mixture": {"ridge": 0.05},
}


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one role (dataset, sampler, ...) of a workload seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@dataclass
class Op:
    """One call into the program and the check of what it produced."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    robust: bool = False


@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None


def run_op(op: Op) -> Outcome:
    # benchmark boundary: any failure is recorded and the loop keeps going
    try:
        return Outcome(value=op.call())
    except Exception as exc:  # noqa: BLE001
        return Outcome(error=exc)


def check_op(op: Op, outcome: Outcome):
    try:
        return op.check(outcome)
    except Exception as exc:  # noqa: BLE001
        return [f"check raised {type(exc).__name__}: {exc}"], {}


def run_pass(wl, tracer=None, pass_id=None):
    """One closed-loop pass: the main operations timed together, then the
    robustness set, then every check (both untimed).

    Returns the main operations' wall time and ``(op, problems, digests)``
    for every operation.
    """
    wl.reset()
    root = tracer.begin_pass(pass_id) if tracer else None
    t0 = time.perf_counter()
    outcomes = []
    for op in wl.main_ops:
        if tracer:
            tracer.op = op.name
        outcomes.append(run_op(op))
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
        tracer.output_bytes[pass_id] = wl.output_bytes()
    outcomes += [run_op(op) for op in wl.robust_ops]
    ops = wl.main_ops + wl.robust_ops
    return wall, [(op, *check_op(op, oc)) for op, oc in zip(ops, outcomes)]


def sampler_block(lam, seed, batch_size=None, x0=(1.0, 0.0)):
    return {
        "lambda": lam, "gamma": 2.0, "beta": 1.0, "batch_size": batch_size, "dim": 2,
        "seed": seed, "init": {"kind": "point", "x0": list(x0), "v0": [0.0, 0.0]},
    }


def non_finite_entries(doc, path="") -> list:
    """Paths of numbers that are neither finite nor explicitly flagged."""
    if isinstance(doc, dict):
        if doc.get("status") in FLAG_STATUSES or any(k in doc for k in FLAG_KEYS):
            return []
        return [p for k, v in doc.items() for p in non_finite_entries(v, f"{path}/{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in non_finite_entries(v, f"{path}/{i}")]
    if isinstance(doc, float) and not math.isfinite(doc):
        return [path]
    if isinstance(doc, str) and doc.lower() in ("inf", "-inf", "nan", "infinity", "-infinity"):
        return [path]
    return []


def log_slope(t, y) -> float:
    y = np.asarray(y, dtype=float)
    keep = y > 1e-12
    return float(np.polyfit(np.asarray(t, dtype=float)[keep], np.log(y[keep]), 1)[0])


class Workload:
    name = ""
    # the steady pass time on the reference machine (2-CPU Intel
    # Xeon, Python 3.11.7, numpy 2.4.6); a run takes --seconds / this many
    # passes, so the pass count does not depend on the code's speed
    reference_pass_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.main_ops: list = []
        self.robust_ops: list = []
        self.state: dict = {}
        # replica-steps the pass's main operations ask for, per pass, as their
        # configs and calls state them (steps x replicas)
        self.nominal_replica_steps = 0

    def setup(self):
        """Materialize the principal config and validate it once."""
        cfg = sghmc.harness.ExperimentConfig.from_dict(self.principal_config())
        sghmc.harness.materialize(cfg)
        sghmc.harness.validate_config(cfg)

    def principal_config(self) -> dict:
        raise NotImplementedError

    def reset(self):
        """Remove the previous pass's outputs and state (untimed)."""
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        self.state = {}

    def output_bytes(self) -> int:
        out = self.workdir / "out"
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

class CliWorkload(Workload):
    """Operations that run ``sghmc <kind> --config ...`` in-process."""

    def add_cli(self, name, doc, expect_rc=0, checker=None, robust=False):
        doc = dict(doc, out=str(self.workdir / "out" / name))
        cfg_path = self.workdir / "configs" / f"{name}.json"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(doc, indent=2))
        kind = doc["kind"]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return sghmc.cli.main([kind, "--config", str(cfg_path)])

        def check(outcome):
            return self.check_cli(doc, outcome, expect_rc, checker)

        op = Op(name, call, check, robust)
        (self.robust_ops if robust else self.main_ops).append(op)
        return op

    @staticmethod
    def check_cli(doc, outcome, expect_rc, checker):
        if outcome.error is not None:
            return [f"raised {type(outcome.error).__name__}: {outcome.error}"], {}
        problems = []
        if outcome.value != expect_rc:
            problems.append(f"exit code {outcome.value}, expected {expect_rc}")
        out = Path(doc["out"])
        manifest_path = out / "manifest.json"
        if not manifest_path.exists():
            return problems + ["no manifest.json"], {}
        try:
            sghmc.harness.load_config(manifest_path)
        except Exception as exc:  # noqa: BLE001
            problems.append(f"load_config rejects manifest: {exc}")
        manifest = json.loads(manifest_path.read_text())
        digests = {}
        for name in manifest.get("outputs", []):
            path = Path(name)
            if not path.exists():
                problems.append(f"missing output {path.name}")
                continue
            digests[path.name] = sha256_file(path)
        if not problems and checker is not None:
            problems += checker(doc, out, manifest)
        return problems, digests


def check_audit(doc, out, manifest):
    return [] if manifest["results"].get("all_passed") is True else ["audit failed"]


def check_validate(doc, out, manifest):
    findings = json.loads((out / "findings.json").read_text())
    bad = [f["code"] for f in findings if f["level"] == "violation"]
    return [f"violations: {bad}"] if bad else []


def check_constants(doc, out, manifest):
    bad = non_finite_entries(json.loads((out / "constants.json").read_text()))
    return [f"non-finite, unflagged: {bad}"] if bad else []


def check_risk(doc, out, manifest):
    risk = json.loads((out / "risk.json").read_text())
    bad = non_finite_entries(risk)
    missing = [k for k in ("B_1", "B_2", "B_3") if k not in risk]
    return ([f"non-finite, unflagged: {bad}"] if bad else []) + (
        [f"missing {missing}"] if missing else [])


def check_sample(doc, out, manifest):
    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    want = doc["steps"] // doc["thin"] + 1
    problems = [] if len(rows) == want else [f"{len(rows)} rows, expected {want}"]
    if not np.all(np.isfinite(np.asarray(rows, dtype=float))):
        problems.append("non-finite state")
    return problems


def check_couple(doc, out, manifest):
    d = np.loadtxt(out / "distances.csv", delimiter=",", skiprows=1, ndmin=2)
    slope = log_slope(d[:, 0], np.hypot(d[:, 1], d[:, 2]))
    return [] if slope < 0 else [f"separation log-slope {slope:.4g} is not negative"]


def check_rate(doc, out, manifest):
    problems = []
    with open(out / "rate.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if any(r["flag"] != "ok" or not float(r["distance"]) > 0 for r in rows):
        problems.append(f"rate rows not all ok: {rows}")
    slope = manifest["results"].get("slope")
    if not (isinstance(slope, float) and slope > 0):
        problems.append(f"rate slope {slope} is not positive")
    return problems


def gibbs_checker(tol):
    def check(doc, out, manifest):
        g = json.loads((out / "gibbs.json").read_text())
        s = doc["sampler"]
        m0 = doc["objective"]["params"]["m0"]
        var_x, var_v = sghmc.harness.sghmc_quadratic_stationary(
            s["lambda"], s["gamma"], s["beta"], m0)
        problems = []
        for label, got, want in (("x", g["empirical_var_x"], var_x),
                                 ("v", g["empirical_var_v"], var_v)):
            if not abs(got - want) <= tol * want:
                problems.append(f"var_{label} {got:.4g} vs discrete law {want:.4g} "
                                f"(tolerance {tol:.0%})")
        return problems

    return check


class EnsembleQuadratic(CliWorkload):
    name = "ensemble-quadratic"
    reference_pass_s = 1.25
    steps, replicas = 20000, 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.add_cli("gibbs-check", self.principal_config(),
                     checker=gibbs_checker(GIBBS_TOL_ENSEMBLE))
        self.nominal_replica_steps = self.steps * self.replicas
        # robustness probe: a divergent run should exit 3 and still leave a
        # manifest; today it leaves none, which keeps fail_ratio above 0
        divergent = self.principal_config()
        divergent["sampler"]["lambda"] = 5.0
        self.add_cli("gibbs-check-divergent", divergent, expect_rc=3, robust=True)

    def principal_config(self):
        return {
            "kind": "gibbs-check",
            "objective": {"name": "quadratic", "params": dict(OBJECTIVE_PARAMS["quadratic"])},
            "dataset": {"generator": "gaussian", "n": 100, "z_dim": 2,
                        "seed": derive_seed(self.seed, "data")},
            "sampler": sampler_block(0.01, derive_seed(self.seed, "sampler"), x0=(0.0, 0.0)),
            "steps": self.steps, "replicas": self.replicas, "thin": 100,
        }


class CliKinds(CliWorkload):
    name = "cli-kinds"
    reference_pass_s = 2.4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.main_docs = []
        for obj in OBJECTIVE_PARAMS:
            self.add_objective_ops(obj)
        # steps x replicas as each config states them, not what the harness
        # derives from them (pilot chains, rate grids)
        self.nominal_replica_steps = sum(doc["steps"] * doc["replicas"]
                                         for doc in self.main_docs)

    def base(self, kind, obj, **over):
        doc = {
            "kind": kind,
            "objective": {"name": obj, "params": dict(OBJECTIVE_PARAMS[obj])},
            "dataset": {"generator": "gaussian", "n": 100, "z_dim": 2,
                        "seed": derive_seed(self.seed, f"data:{obj}")},
            "sampler": sampler_block(0.01, derive_seed(self.seed, f"sampler:{obj}")),
            "steps": 2000, "replicas": 8, "thin": 100,
        }
        doc.update(over)
        return doc

    def principal_config(self):
        return self.base("audit", "quadratic")

    def add_objective_ops(self, obj):
        def main(name, doc, checker):
            self.main_docs.append(doc)
            self.add_cli(f"{name}.{obj}", doc, checker=checker)

        stiff = obj != "quadratic"
        main("audit", self.base("audit", obj, audit={"probes": 300}), check_audit)
        main("validate", self.base("validate", obj), check_validate)
        main("sample", self.base("sample", obj), check_sample)
        couple = self.base("couple", obj, thin=20)
        couple["sampler_b"] = {"init": {"kind": "point", "x0": [-1.0, 0.0], "v0": [0.0, 0.0]}}
        main("couple", couple, check_couple)
        main("rate-study", self.base("rate-study", obj, replicas=16,
                                     rate={"lambdas": [0.1, 0.05, 0.025], "t_end": 2.0}),
             check_rate)

        constants = self.base("constants", obj, pilot_steps=1000)
        risk = self.base("risk-bound", obj, steps=1000, pilot_steps=1000, replicas=2,
                         risk={"p": 2.0, "q": 1, "lambda_star": 1.0})
        if stiff:
            # robustness set: these exit 2 on stiff objectives instead of
            # completing with log-space constants
            self.add_cli(f"constants.{obj}", constants, checker=check_constants, robust=True)
            self.add_cli(f"risk-bound.{obj}", risk, checker=check_risk, robust=True)
            return
        main("constants", constants, check_constants)
        risk["sampler"]["batch_size"] = 10  # exercises estimate_delta
        main("risk-bound", risk, check_risk)
        main("gibbs-check", self.base("gibbs-check", obj, steps=8000, replicas=32,
                                      sampler=sampler_block(
                                          0.01, derive_seed(self.seed, "sampler:gibbs"),
                                          x0=(0.0, 0.0))),
             gibbs_checker(GIBBS_TOL_CLI))
        divergent = self.base("sample", obj)
        divergent["sampler"]["lambda"] = 5.0
        self.add_cli("sample-divergent.quadratic", divergent, expect_rc=3, robust=True)


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------

class MinibatchMixture(Workload):
    name = "minibatch-mixture"
    reference_pass_s = 1.75
    n, batch, replicas = 1000, 32, 64
    ensemble_steps, coupled_steps = 400, 250
    lam = 0.01

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.nominal_replica_steps = (self.ensemble_steps + 2 * self.coupled_steps) * self.replicas
        ops = [
            ("validate_config.gaussian_mixture", self.validate_mixture, self.check_findings),
            ("materialize.gaussian_mixture", self.materialize("mixture"), self.check_spec),
            ("ensemble_run.gaussian_mixture", self.ensemble, self.check_ensemble),
            ("materialize.double_well", self.materialize("well"), self.check_spec),
            ("coupled_ensemble_run.double_well", self.coupled, self.check_coupled),
            ("wasserstein_exact_small", self.exact_w, self.check_distance),
            ("sliced_wasserstein", self.sliced_w, self.check_sliced),
        ]
        self.main_ops = [Op(n, c, k) for n, c, k in ops]
        self.robust_ops = [
            # the certified rate for the coupled pair: today contraction_constants
            # raises NumericalError (underflow) on the double well
            Op("contraction_constants.double_well", self.certified_rate,
               self.check_certified_rate, robust=True),
        ]

    def config(self, which):
        obj = "gaussian_mixture" if which == "mixture" else "double_well"
        doc = {
            "kind": "sample",
            "objective": {"name": obj, "params": dict(OBJECTIVE_PARAMS[obj])},
            "dataset": {"generator": "gaussian", "n": self.n, "z_dim": 2,
                        "seed": derive_seed(self.seed, f"data:{which}")},
            "sampler": sampler_block(self.lam, derive_seed(self.seed, f"sampler:{which}"),
                                     batch_size=self.batch),
            "replicas": self.replicas,
        }
        return sghmc.harness.ExperimentConfig.from_dict(doc)

    def principal_config(self):
        return self.config("mixture").to_dict()

    def validate_mixture(self):
        return sghmc.harness.validate_config(self.config("mixture"))

    def materialize(self, which):
        def call():
            cfg = self.config(which)
            obj, data = sghmc.harness.materialize(cfg)
            self.state[which] = (cfg, obj, data)
            return obj

        return call

    def ensemble(self):
        cfg, obj, data = self.state["mixture"]
        s = sghmc.samplers.SamplerConfig(
            lam=cfg.sampler.lam, gamma=cfg.sampler.gamma, beta=cfg.sampler.beta,
            batch_size=cfg.sampler.batch_size, dim=2, seed=cfg.sampler.seed,
            init=sghmc.samplers.gaussian_init(0.0, 1.0))
        res = sghmc.samplers.ensemble_run("sghmc", s, obj, data, steps=self.ensemble_steps,
                                          replicas=self.replicas, record_every=100)
        self.state["cloud"] = np.hstack([res.X, res.V])
        return res

    def coupled(self):
        cfg, obj, data = self.state["well"]
        a = cfg.sampler
        b = sghmc.samplers.SamplerConfig(
            lam=a.lam, gamma=a.gamma, beta=a.beta, batch_size=a.batch_size, dim=2,
            seed=a.seed, init=sghmc.samplers.point_init([-1.0, 0.0], [0.0, 0.0]))
        return sghmc.samplers.coupled_ensemble_run(
            "sghmc", a, b, obj, data, steps=self.coupled_steps, replicas=self.replicas,
            record_every=10)

    def reference_cloud(self):
        rng = np.random.default_rng(derive_seed(self.seed, "reference-cloud"))
        return rng.standard_normal((self.replicas, 4))

    def exact_w(self):
        w = sghmc.metrics.wasserstein_exact_small(self.state["cloud"], self.reference_cloud())
        self.state["exact"] = w
        return w

    def sliced_w(self):
        return sghmc.metrics.sliced_wasserstein(
            self.state["cloud"], self.reference_cloud(),
            seed=derive_seed(self.seed, "sliced"))

    def certified_rate(self):
        _, obj, data = self.state["well"]
        drift = sghmc.theory.derive_drift_constants(obj.cert, 2.0, 1.0, obj, data)
        return sghmc.theory.contraction_constants(drift, obj.cert, 2.0, 1.0, 2)

    # -- checks --------------------------------------------------------------

    @staticmethod
    def failed(outcome):
        if outcome.error is not None:
            return [f"raised {type(outcome.error).__name__}: {outcome.error}"], {}
        return None

    def check_findings(self, outcome):
        if (bad := self.failed(outcome)) is not None:
            return bad
        viol = [f["code"] for f in outcome.value if f["level"] == "violation"]
        return ([f"violations: {viol}"] if viol else []), {}

    def check_spec(self, outcome):
        if (bad := self.failed(outcome)) is not None:
            return bad
        return [], {}

    def check_ensemble(self, outcome):
        if (bad := self.failed(outcome)) is not None:
            return bad
        res = outcome.value
        ok = res.X.shape == (self.replicas, 2) and np.all(np.isfinite(res.X)) \
            and np.all(np.isfinite(res.V))
        return ([] if ok else ["final ensemble state malformed or non-finite"]), {
            "ensemble.final_state": sha256_arrays(res.X, res.V)}

    def check_coupled(self, outcome):
        if (bad := self.failed(outcome)) is not None:
            return bad
        res = outcome.value
        slope = log_slope(res.steps * self.lam, res.mean_sep)
        problems = [] if slope < 0 else [f"separation log-slope {slope:.4g} is not negative"]
        return problems, {"coupled.separation": sha256_arrays(
            res.steps, res.mean_sep, res.rms_sep, res.rms_dx, res.rms_dv)}

    def check_distance(self, outcome):
        if (bad := self.failed(outcome)) is not None:
            return bad
        w = outcome.value
        ok = math.isfinite(w) and w > 0
        return ([] if ok else [f"distance {w} not finite and positive"]), {
            "wasserstein_exact_small": sha256_arrays([w])}

    def check_sliced(self, outcome):
        problems, digests = self.check_distance(outcome)
        if problems:
            return problems, {}
        exact = self.state.get("exact")
        # sliced W_p never exceeds W_p on the same equal-size clouds
        if exact is not None and outcome.value > exact * (1 + 1e-9):
            problems.append(f"sliced {outcome.value:.6g} exceeds exact {exact:.6g}")
        return problems, {"sliced_wasserstein": digests["wasserstein_exact_small"]}

    def check_certified_rate(self, outcome):
        if (bad := self.failed(outcome)) is not None:
            return bad
        cc = outcome.value
        ok = (math.isfinite(cc.c_star) and cc.c_star > 0) or math.isfinite(cc.log_c_star)
        return ([] if ok else [f"c_star {cc.c_star} neither finite nor flagged"]), {}


WORKLOADS = {w.name: w for w in (EnsembleQuadratic, MinibatchMixture, CliKinds)}
