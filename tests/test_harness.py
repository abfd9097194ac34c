import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sghmc import (ConfigurationError, DivergenceError, EvaluationError, ObjectiveSpec,
                   double_well, make_dataset, quadratic, register_objective)
from sghmc import harness, objectives, samplers, theory
from sghmc.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_VALIDATION, build_parser, main
from sghmc.harness import (
    ExperimentConfig,
    load_config,
    materialize,
    rate_study,
    run_experiment,
    sghmc_quadratic_stationary,
    validate_config,
)
from sghmc.objectives import AuditEntry, AuditReport
from sghmc.rng import derive_stream
from sghmc.samplers import SamplerConfig, brownian_coupled_distance, gaussian_init, point_init


def base_config(**over):
    doc = {
        "kind": "sample",
        "objective": {"name": "quadratic", "params": {"m0": 1.0}},
        "dataset": {"generator": "gaussian", "n": 100, "z_dim": 2, "seed": 7},
        "sampler": {
            "lambda": 0.003,
            "gamma": 2.0,
            "beta": 1.0,
            "batch_size": None,
            "dim": 2,
            "seed": 42,
            "init": {"kind": "point", "x0": [0, 0], "v0": [0, 0]},
        },
        "steps": 1000,
        "replicas": 4,
        "thin": 100,
    }
    doc.update(over)
    return doc


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(base_config(kind="frobnicate"))

    def test_strict_must_be_a_boolean(self):
        assert ExperimentConfig.from_dict(base_config(strict=False)).strict is False
        with pytest.raises(ConfigurationError, match="malformed config value 'strict'"):
            ExperimentConfig.from_dict(base_config(strict="false"))

    def test_integral_floats_accepted(self):
        doc = base_config(steps=2000.0, replicas=4.0, thin=10.0, burn_in=0.0, pilot_steps=500.0)
        doc["sampler"].update(dim=2.0, seed=42.0, batch_size=10.0)
        cfg = ExperimentConfig.from_dict(doc)
        values = (cfg.steps, cfg.replicas, cfg.thin, cfg.burn_in, cfg.pilot_steps,
                  cfg.sampler.dim, cfg.sampler.seed, cfg.sampler.batch_size)
        assert values == (2000, 4, 10, 0, 500, 2, 42, 10)
        assert all(type(v) is int for v in values)

    def test_blocks_converted_at_load(self):
        # the echo lists the keys the config gave, as the kinds read them
        doc = base_config(kind="rate-study", rate={"t_end": "2", "lambdas": [1, "0.5"]},
                          risk={"q": 2.0, "k": None}, audit={"probes": 300.0})
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.rate == {"t_end": 2.0, "lambdas": [1.0, 0.5]}
        assert cfg.risk == {"q": 2, "k": None} and type(cfg.risk["q"]) is int
        assert cfg.audit == {"probes": 300} and type(cfg.audit["probes"]) is int
        assert cfg.to_dict()["rate"] == cfg.rate

    def test_manifest_document_accepted(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(out=str(tmp_path / "a")))
        man = run_experiment(cfg)
        doc = json.loads(harness.to_json(dataclasses.asdict(man)))
        again = ExperimentConfig.from_dict(doc)
        assert again.sampler.seed == cfg.sampler.seed

    def test_sampler_b_merges_over_sampler(self):
        doc = base_config(kind="couple")
        doc["sampler_b"] = {"init": {"kind": "point", "x0": [3, 0], "v0": [0, 0]}}
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.sampler_b.lam == cfg.sampler.lam
        assert cfg.sampler_b.init.x0[0] == 3

    def test_point_init_without_x0_or_v0_is_the_origin_at_rest(self):
        doc = base_config()
        doc["sampler"]["init"] = {"kind": "point"}
        X, V = ExperimentConfig.from_dict(doc).sampler.init.sample(2, None, 3)
        assert np.array_equal(X, np.zeros((3, 2))) and np.array_equal(V, np.zeros((3, 2)))

    def test_objective_z_radius_injected(self):
        doc = base_config(objective={"name": "double_well", "params": {"coupling": 0.1}})
        obj, data = materialize(ExperimentConfig.from_dict(doc))
        assert obj.cert.B == pytest.approx(0.1 * data.max_norm())

    # a config that sets every optional key, a Gaussian init and beta = inf
    EVERY_KEY = {
        "kind": "couple",
        "sampler": {"lambda": 0.02, "gamma": 1.5, "beta": "inf", "batch_size": 10, "dim": 2,
                    "seed": 5, "init": {"kind": "gaussian", "mean": 0.5, "scale": 0.25}},
        "sampler_b": {"seed": 6, "init": {"kind": "point", "x0": [1, 0], "v0": [0, 1]}},
        "rate": {"lambdas": [0.1, 0.05], "t_end": 1.0},
        "risk": {"p": 2.0, "q": 1, "delta": 0.1},
        "audit": {"probes": 300},
        "pilot_steps": 500,
        "chain": "sgld",
        "strict": True,
    }

    # echoes of the defaults ({"kind": k} is the CLI's path without --config;
    # gibbs-check resolves burn_in to 2000) and of EVERY_KEY; never re-record
    ECHO_PINS = {
        "audit": "de455188a8ac8784",
        "constants": "8ea3fccdf1ec2215",
        "sample": "9247875eda531bfa",
        "couple": "6f29693c4b73e57c",
        "rate-study": "e183fbe29abf4caa",
        "gibbs-check": "181af5cfe2252ccc",
        "risk-bound": "330055057245202e",
        "validate": "3b639aac339e4864",
        "every-key": "67c130b7d1aa07a8",
    }

    @pytest.mark.parametrize("case", list(ECHO_PINS))
    def test_echo_pinned(self, case):
        doc = self.EVERY_KEY if case == "every-key" else {"kind": case}
        echo = json.dumps(ExperimentConfig.from_dict(doc).to_dict())
        assert hashlib.sha256(echo.encode()).hexdigest()[:16] == self.ECHO_PINS[case]


class TestValidate:
    def test_inadmissible_step_flagged(self):
        doc = base_config(kind="validate")
        doc["sampler"]["lambda"] = 0.5
        findings = validate_config(ExperimentConfig.from_dict(doc))
        codes = {f["code"]: f["level"] for f in findings}
        assert codes.get("inadmissible-step") == "warning"

    def test_admissible_step_info(self):
        findings = validate_config(ExperimentConfig.from_dict(base_config()))
        codes = {f["code"]: f["level"] for f in findings}
        assert codes.get("admissible-step") == "info"

    def test_pq_pairing(self):
        ok = base_config(risk={"p": 2.0, "q": 1})
        codes = {f["code"]: f["level"] for f in validate_config(ExperimentConfig.from_dict(ok))}
        assert codes.get("pq-pairing") == "info"
        bad = base_config(risk={"p": 1.5, "q": 1})
        codes = {f["code"]: f["level"] for f in validate_config(ExperimentConfig.from_dict(bad))}
        assert codes.get("pq-pairing") == "violation"

    def test_non_integer_q_is_a_pq_violation(self):
        doc = base_config(kind="validate", risk={"p": 2.0, "q": 1.5})
        [entry] = [f for f in validate_config(ExperimentConfig.from_dict(doc))
                   if f["code"] == "pq-pairing"]
        assert entry["level"] == "violation" and "1.5" in entry["message"]

    def test_gaussian_init_scale_warning(self):
        wide = base_config()
        wide["sampler"]["init"] = {"kind": "gaussian", "mean": 0.0, "scale": 10.0}
        findings = validate_config(ExperimentConfig.from_dict(wide))
        entry = [f for f in findings if f["code"] == "initial-law"][0]
        assert entry["level"] == "warning"
        narrow = base_config()
        narrow["sampler"]["init"] = {"kind": "gaussian", "mean": 0.0, "scale": 0.05}
        findings = validate_config(ExperimentConfig.from_dict(narrow))
        entry = [f for f in findings if f["code"] == "initial-law"][0]
        assert entry["level"] == "info"

    def test_zero_friction_is_a_certification_finding(self):
        doc = base_config(kind="validate")
        doc["sampler"]["gamma"] = 0.0
        findings = validate_config(ExperimentConfig.from_dict(doc))
        [entry] = [f for f in findings if f["code"] == "certification"]
        assert entry["level"] == "warning" and "gamma must be positive" in entry["message"]


class TestExperiments:
    def test_constants_table(self, tmp_path):
        doc = base_config(kind="constants", out=str(tmp_path / "c"), pilot_steps=1000)
        man = run_experiment(ExperimentConfig.from_dict(doc))
        table = json.loads((tmp_path / "c" / "constants.json").read_text())
        assert table["lambda_c"]["value"] == pytest.approx(0.125)
        assert table["C_tilde"]["status"] == "empirical"
        assert man.results["lambda_c"] == pytest.approx(0.125)

    def test_step_finding_reads_the_tabulated_cap(self, tmp_path):
        # the finding takes the step-size cap at risk.delta, as the table does:
        # at delta = 1 the cap is 0.00335, below the step 0.0034 (at delta = 0
        # it would be 0.00347)
        doc = base_config(kind="constants", out=str(tmp_path / "c"), risk={"delta": 1.0})
        doc["sampler"].update(batch_size=10, **{"lambda": 0.0034})
        man = run_experiment(ExperimentConfig.from_dict(doc))
        [step] = [f for f in man.findings if f["code"].endswith("admissible-step")]
        assert step["lambda_cap"] == man.results["lambda_cap"]
        assert step["code"] == "inadmissible-step"

    def test_byte_identical_reruns(self, tmp_path):
        doc1 = base_config(out=str(tmp_path / "r1"))
        doc2 = base_config(out=str(tmp_path / "r2"))
        run_experiment(ExperimentConfig.from_dict(doc1))
        run_experiment(ExperimentConfig.from_dict(doc2))
        a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert a == b

    def test_sampler_runs_record_admissibility(self, tmp_path):
        man = run_experiment(ExperimentConfig.from_dict(base_config(out=str(tmp_path / "adm"))))
        codes = {f["code"] for f in man.findings}
        assert codes & {"admissible-step", "inadmissible-step"}

    def test_gibbs_check_passes(self, tmp_path):
        doc = base_config(
            kind="gibbs-check", out=str(tmp_path / "g"), steps=60_000, replicas=8
        )
        doc["sampler"]["lambda"] = 0.01
        man = run_experiment(ExperimentConfig.from_dict(doc))
        assert man.results["pass"] is True
        assert man.results["rel_err_x"] <= 0.05

    def test_gibbs_check_needs_quadratic(self, tmp_path):
        doc = base_config(kind="gibbs-check", out=str(tmp_path / "g2"))
        doc["objective"] = {"name": "double_well", "params": {"coupling": 0.1}}
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentConfig.from_dict(doc))

    def test_audit_experiment(self, tmp_path):
        doc = base_config(kind="audit", out=str(tmp_path / "a"), audit={"probes": 200})
        man = run_experiment(ExperimentConfig.from_dict(doc))
        assert man.results["all_passed"] is True
        report = json.loads((tmp_path / "a" / "audit.json").read_text())
        assert {e["assumption"] for e in report} == {
            "non_negativity", "gradient_lipschitz", "dissipativity", "origin_bounds",
        }

    def test_couple_experiment(self, tmp_path):
        doc = base_config(kind="couple", out=str(tmp_path / "cp"), steps=2000)
        doc["sampler"]["init"] = {"kind": "point", "x0": [2, 0], "v0": [0, 0]}
        doc["sampler_b"] = {"init": {"kind": "point", "x0": [-2, 0], "v0": [0, 0]}}
        man = run_experiment(ExperimentConfig.from_dict(doc))
        assert man.results["final_dist_x"] < 4.0
        lines = (tmp_path / "cp" / "distances.csv").read_text().splitlines()
        assert lines[0] == "step,dist_x,dist_v"

    def test_strict_blocks_inadmissible(self, tmp_path):
        doc = base_config(out=str(tmp_path / "s"), strict=True)
        doc["sampler"]["lambda"] = 0.5
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentConfig.from_dict(doc))

    def test_strict_block_writes_nothing(self, tmp_path):
        doc = base_config(out=str(tmp_path / "s"), strict=True)
        doc["sampler"]["lambda"] = 0.5
        with pytest.raises(ConfigurationError, match="block the run: step size 0.5 exceeds"):
            run_experiment(ExperimentConfig.from_dict(doc))
        assert not (tmp_path / "s").exists()

    def test_strict_failed_audit_writes_no_manifest(self, tmp_path, monkeypatch):
        failed = AuditReport([AuditEntry("dissipativity", False, -1.0, {})])
        monkeypatch.setattr(harness, "audit_assumptions", lambda *a, **k: failed)
        doc = base_config(kind="audit", out=str(tmp_path / "a"), strict=True)
        with pytest.raises(ConfigurationError, match="strict mode: assumption audit failed"):
            run_experiment(ExperimentConfig.from_dict(doc))
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["audit.json"]
        doc["strict"] = False
        assert run_experiment(ExperimentConfig.from_dict(doc)).results["all_passed"] is False


class TestUserObjectives:
    """An objective registered by name runs through the harness on its f and
    grad_f alone, with its parameters as the config gives them; where it has
    no ``risk_rows``, ``grad_rows`` or ``grad_batches`` hook, the fallbacks
    reach the built-in quadratic's outputs."""

    @staticmethod
    def hookless_quadratic(dim, m0):
        q = quadratic(dim, m0=m0)
        return ObjectiveSpec("hookless_quadratic", dim, q.f, q.grad_f, q.cert)

    @pytest.fixture
    def registered(self, monkeypatch):
        monkeypatch.setattr(objectives, "_REGISTRY", dict(objectives._REGISTRY))
        register_objective("hookless_quadratic", self.hookless_quadratic)

    @pytest.mark.parametrize("kind, output, batch", [
        ("sample", "trajectory.csv", None), ("sample", "trajectory.csv", 10),
        ("couple", "distances.csv", None), ("couple", "distances.csv", 10),
        ("validate", "findings.json", None)])
    def test_runs_as_the_built_in(self, tmp_path, registered, kind, output, batch):
        got = []
        for name in ("quadratic", "hookless_quadratic"):
            doc = base_config(kind=kind, out=str(tmp_path / name),
                              objective={"name": name, "params": {"m0": 1.5}})
            doc["sampler"].update(batch_size=batch, init={"kind": "point", "x0": [2, 0],
                                                          "v0": [0, 0]})
            doc["sampler_b"] = {"init": {"kind": "point", "x0": [-2, 0], "v0": [0, 0]}}
            run_experiment(ExperimentConfig.from_dict(doc))
            got.append((tmp_path / name / output).read_text())
        if kind == "validate":
            assert got[0] == got[1]
        else:
            want, hookless = (np.loadtxt(text.splitlines()[1:], delimiter=",") for text in got)
            assert np.array_equal(hookless[:, 0], want[:, 0])  # the recorded steps
            assert np.abs(hookless - want).max() <= 1e-12 * np.abs(want[:, 1:]).max()

    @staticmethod
    def row_mean_quadratic(dim):
        """The quadratic with a grad_batches hook that returns each row's
        mean gradient (R, d), not the per-sample gradients (R, l, d)."""
        q = quadratic(dim)
        return dataclasses.replace(q, name="row_mean_quadratic",
                                   grad_batches=lambda X, Zs: q.grad_batches(X, Zs).mean(axis=1))

    def test_a_hook_of_row_means_fails_validation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(objectives, "_REGISTRY", dict(objectives._REGISTRY))
        register_objective("row_mean_quadratic", self.row_mean_quadratic)
        doc = base_config(kind="sample", out=str(tmp_path / "o"),
                          objective={"name": "row_mean_quadratic"})
        doc["sampler"]["batch_size"] = 10
        path = tmp_path / "sample.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path)]) == EXIT_VALIDATION
        assert "expected (R, l, d) = (1, 10, 2)" in capsys.readouterr().err

    def test_a_name_registers_once(self, registered):
        with pytest.raises(ConfigurationError, match="'hookless_quadratic' is already registered"):
            register_objective("hookless_quadratic", self.hookless_quadratic)


class TestLyapunovAtANonFiniteStart:
    """V reads the objective only through ``batch_empirical_risk``. An objective
    without ``risk_rows`` whose loss is NaN at the initial point fails its
    certification with the sample named; one whose ``risk_rows`` hook is NaN
    there gets a non-finite integral of V, which the moment bounds reject."""

    X0 = np.array([1.0, 0.0])

    @classmethod
    def nan_loss(cls, dim):
        """The quadratic, without its row hooks, with a NaN loss on sample 3 at x0."""
        q = quadratic(dim, m0=1.0)

        def f(x, Z):
            vals = np.array(q.f(x, Z), dtype=float)
            if np.array_equal(x, cls.X0):
                vals[3] = np.nan
            return vals
        return ObjectiveSpec("nan_loss", dim, f, q.grad_f, q.cert)

    @classmethod
    def nan_rows(cls, dim):
        """The quadratic with a finite loss and a ``risk_rows`` hook that is NaN at x0."""
        q = quadratic(dim, m0=1.0)

        def risk_rows(X, Z):
            return np.where((X == cls.X0).all(axis=1), np.nan, q.risk_rows(X, Z))
        return dataclasses.replace(q, name="nan_rows", risk_rows=risk_rows)

    @pytest.fixture
    def registered(self, monkeypatch):
        monkeypatch.setattr(objectives, "_REGISTRY", dict(objectives._REGISTRY))
        register_objective("nan_loss", self.nan_loss)
        register_objective("nan_rows", self.nan_rows)

    def config(self, tmp_path, kind, name):
        doc = base_config(kind=kind, out=str(tmp_path / kind), objective={"name": name},
                          **TestGoldenRuns.CONFIGS[kind])
        doc["sampler"]["init"] = {"kind": "point", "x0": self.X0.tolist(), "v0": [0, 0]}
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_a_nan_loss_names_its_sample(self, quad_data):
        obj = self.nan_loss(2)
        lyap = theory.LyapunovParams(1.0, 2.0, 0.125, obj, quad_data)
        with pytest.raises(EvaluationError, match="sample index 3") as info:
            theory.initial_lyapunov_integral(point_init(self.X0, [0, 0]), lyap, 2)
        assert info.value.sample_index == 3

    @pytest.mark.parametrize("name, message", [
        ("nan_loss", "'nan_loss' returned a non-finite value at sample index 3"),
        ("nan_rows", "mu0_lyapunov_integral must be"),
    ], ids=["nan-loss", "nan-rows"])
    def test_certification_fails(self, tmp_path, capsys, registered, name, message):
        assert main(["validate", "--config", str(self.config(tmp_path, "validate", name)),
                     "--out", str(tmp_path / "v")]) == EXIT_OK
        findings = json.loads((tmp_path / "v" / "findings.json").read_text())
        [entry] = [f for f in findings if f["code"] == "certification"]
        assert entry["level"] == "warning" and message in entry["message"]
        for kind in ("constants", "risk-bound"):
            assert main([kind, "--config", str(self.config(tmp_path, kind, name))]) == EXIT_VALIDATION
            assert message in capsys.readouterr().err


def _unflagged_non_finite(doc, path=""):
    """Paths of non-finite numbers that sit outside an underflow/overflow record."""
    if isinstance(doc, dict):
        if doc.get("status") in ("underflow", "overflow"):
            assert math.isfinite(doc["log10"]), path
            return []
        return [p for k, v in doc.items() for p in _unflagged_non_finite(v, f"{path}/{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _unflagged_non_finite(v, f"{path}/{i}")]
    if isinstance(doc, float) and not math.isfinite(doc):
        return [path]
    if isinstance(doc, str) and doc.lower() in ("inf", "-inf", "nan", "infinity", "-infinity"):
        return [path]
    return []


class TestStiffObjectives:
    """The double well and the mixture have Lambda_c of order 1e4: c* and C~
    leave float range and are reported through their log10."""

    OBJECTIVES = {
        "double_well": ({"coupling": 0.1}, 11),
        "gaussian_mixture": ({"ridge": 0.05}, 13),
    }

    def _run(self, tmp_path, kind, name, data_seed=None, **over):
        params, seed = self.OBJECTIVES[name]
        doc = base_config(kind=kind, out=str(tmp_path / "o"), **over)
        doc["objective"] = {"name": name, "params": params}
        doc["dataset"]["seed"] = seed if data_seed is None else data_seed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_OK
        return tmp_path / "o"

    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_constants_complete_with_flagged_entries(self, tmp_path, name):
        out = self._run(tmp_path, "constants", name, pilot_steps=500)
        table = json.loads((out / "constants.json").read_text())
        assert _unflagged_non_finite(table) == []
        assert table["c_star"]["status"] == "underflow"
        assert table["epsilon_c"]["status"] == "underflow"
        assert table["C_star"]["status"] == "overflow"
        assert table["C_tilde"]["status"] == "overflow"
        assert table["c_star"]["log10"] < -7000 and table["C_tilde"]["log10"] > 14000
        assert table["lambda_c"]["status"] == "exact" and "log10" not in table["lambda_c"]
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_risk_bound_completes_with_flagged_entries(self, tmp_path, name):
        out = self._run(tmp_path, "risk-bound", name, pilot_steps=500, replicas=2,
                        risk={"p": 2.0, "q": 1, "lambda_star": 1.0, "eps": 0.1})
        risk = json.loads((out / "risk.json").read_text())
        assert _unflagged_non_finite(risk) == []
        assert risk["B_1"]["status"] == "overflow"
        assert risk["inputs"]["C_star"]["status"] == "overflow"
        assert risk["inputs"]["C_tilde"]["status"] == "overflow"
        assert risk["inputs"]["c_star"]["status"] == "underflow"
        assert risk["budget"]["cap"]["status"] == "underflow"
        assert risk["budget"]["k_min"]["status"] == "overflow"
        assert math.isfinite(risk["B_2"]) and math.isfinite(risk["B_3"])

    def test_steep_mixture_completes_with_flagged_entries(self, tmp_path):
        # data seed 31 gives the mixture M = 24.5: c_7 ~ exp(2 M^2) leaves
        # float range, and on the rho-distance grid exp(-a s^2) underflows
        (tmp_path / "c").mkdir()
        (tmp_path / "r").mkdir()
        out = self._run(tmp_path / "c", "constants", "gaussian_mixture", data_seed=31,
                        pilot_steps=500)
        table = json.loads((out / "constants.json").read_text())
        assert _unflagged_non_finite(table) == []
        assert table["c_7"]["status"] == "overflow" and table["c_16"]["status"] == "overflow"
        out = self._run(tmp_path / "r", "risk-bound", "gaussian_mixture", data_seed=31,
                        pilot_steps=500, replicas=2,
                        risk={"p": 2.0, "q": 1, "lambda_star": 1.0, "eps": 0.1})
        risk = json.loads((out / "risk.json").read_text())
        assert _unflagged_non_finite(risk) == []
        assert risk["B_1"]["status"] == "overflow"
        assert math.isfinite(risk["inputs"]["w_rho_init"]) and risk["inputs"]["w_rho_init"] > 0

    @pytest.mark.parametrize("kind", ["constants", "risk-bound"])
    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_every_json_output_is_strict(self, tmp_path, kind, name):
        # a value beyond float range is the string "inf" inside its record,
        # never the bare Infinity token that strict parsers reject
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        over = {"pilot_steps": 500}
        if kind == "risk-bound":
            over.update(replicas=2, risk={"p": 2.0, "q": 1, "lambda_star": 1.0, "eps": 0.1})
        out = self._run(tmp_path, kind, name, **over)
        paths = sorted(out.glob("*.json"))
        assert [p.name for p in paths] == sorted(
            ["manifest.json", "constants.json" if kind == "constants" else "risk.json"])
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)


class TestRateStudy:
    def test_slope_and_monotone(self, quad_obj, quad_data):
        base = SamplerConfig(lam=0.1, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        table = rate_study(quad_obj, quad_data, base,
                           lambdas=[0.1, 0.05, 0.025, 0.0125], lambda_ref_divisor=16.0,
                           t_end=5.0, replicas=32)
        dists = [r["distance"] for r in table["rows"]]
        assert all(dists[i] >= dists[i + 1] for i in range(len(dists) - 1))
        assert table["slope"] >= 0.25

    def test_minibatch_noise_increases_distance(self, quad_data):
        from sghmc import quadratic

        obj = quadratic(2, m0=1.0, coupling=1.0, z_radius=quad_data.max_norm())
        full = SamplerConfig(lam=0.05, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        mini = SamplerConfig(lam=0.05, gamma=2.0, beta=1.0, batch_size=1,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        t_full = rate_study(obj, quad_data, full, lambdas=[0.05, 0.025], lambda_ref_divisor=16.0,
                            t_end=3.0, replicas=32)
        t_mini = rate_study(obj, quad_data, mini, lambdas=[0.05, 0.025], lambda_ref_divisor=16.0,
                            t_end=3.0, replicas=32)
        for rf, rm in zip(t_full["rows"], t_mini["rows"]):
            assert rm["distance"] > rf["distance"]

    def test_divergent_point_dropped(self, quad_obj, quad_data):
        base = SamplerConfig(lam=5.0, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        table = rate_study(quad_obj, quad_data, base,
                           lambdas=[5.0, 0.5], lambda_ref_divisor=16.0, t_end=3000.0,
                           replicas=4)
        flags = {r["lambda"]: r["flag"] for r in table["rows"]}
        assert flags[5.0] == "diverged"
        assert flags[0.5] == "ok"

    def test_divergent_point_dropped_on_double_well(self):
        # the double well's gradient overflows a step before the chain state
        # does; that is a divergence too, not an objective fault
        data = make_dataset("gaussian", 100, 2, seed=7)
        obj = double_well(2, coupling=0.1, z_radius=data.max_norm())
        base = SamplerConfig(lam=1.0, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=11, init=point_init([1.0, 0.0], [0.0, 0.0]))
        table = rate_study(obj, data, base, lambdas=[5.0, 1.0], lambda_ref_divisor=16.0,
                           t_end=700.0, replicas=4)
        assert {r["lambda"]: r["flag"] for r in table["rows"]}[1.0] == "diverged"

    def test_runaway_point_with_overflowing_distance_dropped(self):
        # at lam=5 both chains run away to |x| ~ 1e300 and stay finite, but
        # their squared distance overflows; lam=1 diverges outright
        data = make_dataset("gaussian", 100, 2, seed=7)
        obj = double_well(2, coupling=0.1, z_radius=data.max_norm())
        base = SamplerConfig(lam=1.0, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=11, init=point_init([1.0, 0.0], [0.0, 0.0]))
        table = rate_study(obj, data, base, lambdas=[5.0, 1.0], lambda_ref_divisor=16.0,
                           t_end=700.0, replicas=4)
        row = table["rows"][0]
        assert row["lambda"] == 5.0 and row["flag"] == "diverged"
        assert math.isnan(row["distance"])
        assert table["slope"] is None

    def test_non_finite_distance_left_out_of_slope(self, quad_obj, quad_data, monkeypatch):
        def distances(cfg, lambdas, lambda_ref, obj, data, t_end, replicas):
            return [math.inf if lam == 0.4 else lam**2 for lam in lambdas]

        monkeypatch.setattr(harness, "_rate_coupling", distances)
        base = SamplerConfig(lam=0.1, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        table = rate_study(quad_obj, quad_data, base, lambdas=[0.4, 0.2, 0.1],
                           lambda_ref_divisor=16.0, t_end=5.0, replicas=4)
        row = table["rows"][0]
        assert row["flag"] == "diverged" and math.isnan(row["distance"])
        assert table["slope"] == pytest.approx(2.0, rel=1e-12)

    # the cli-kinds shape of the benchmark: grid, reference divisor, t_end,
    # replicas, init and data seed
    GRID, DIVISOR, T_END = [0.1, 0.05, 0.025], 16, 2.0

    @classmethod
    def _study(cls, obj, batch_size, seed=0):
        data = make_dataset("gaussian", 100, 2, seed=7)
        base = SamplerConfig(lam=0.01, gamma=2.0, beta=1.0, batch_size=batch_size, dim=2,
                             seed=seed, init=point_init([1.0, 0.0], [0.0, 0.0]))
        return base, data, rate_study(obj, data, base, cls.GRID, cls.DIVISOR, cls.T_END, 16)

    def test_one_reference_per_study(self):
        # the coarse chains read grad_batches at batch 10, so the grad_rows
        # calls are the one reference's steps: t_end / (lambda_min / 16)
        q, calls = double_well(2, coupling=0.1, z_radius=10.0), []

        def grad_rows(X, Z):
            calls.append(X)
            return q.grad_rows(X, Z)

        _, _, table = self._study(dataclasses.replace(q, grad_rows=grad_rows), 10)
        assert [r["flag"] for r in table["rows"]] == ["ok"] * 3
        assert len(calls) == round(self.T_END / (min(self.GRID) / self.DIVISOR)) == 1280

    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_each_point_is_its_own_coupling(self, batch_size):
        # a point of a study is the one-point coupling against the study's
        # reference, bit for bit
        obj = double_well(2, coupling=0.1, z_radius=10.0)
        base, data, table = self._study(obj, batch_size, seed=3)
        for row in table["rows"]:
            assert row["flag"] == "ok"
            assert row["distance"] == brownian_coupled_distance(
                dataclasses.replace(base, lam=row["lambda"]), min(self.GRID) / self.DIVISOR,
                obj, data, self.T_END, 16)


class TestMomentumKinds:
    """gibbs-check, rate-study, risk-bound and a piloted constants read a
    momentum chain's statistics: the config rejects sgld for them. Under
    sghmc, batch_size alone picks the gradient: rate-study's coarse chain
    follows it, and risk-bound measures minibatch noise exactly when it is set."""

    @staticmethod
    def _run(tmp_path, name, kind, chain, batch_size=None, **over):
        doc = base_config(kind=kind, chain=chain, out=str(tmp_path / name), **over)
        doc["sampler"]["batch_size"] = batch_size
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return main([kind, "--config", str(path)])

    @pytest.mark.parametrize("kind, pilot_steps", [
        ("gibbs-check", 0), ("rate-study", 0), ("risk-bound", 0), ("constants", 200)])
    def test_sgld_exits_before_writing(self, tmp_path, capsys, kind, pilot_steps):
        assert self._run(tmp_path, "r", kind, "sgld", batch_size=10,
                         pilot_steps=pilot_steps) == EXIT_VALIDATION
        assert f"{kind} needs a momentum chain; chain 'sgld' has none" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    @pytest.mark.parametrize("kind", ["sample", "couple", "validate", "audit"])
    def test_sgld_loads_where_no_momentum_is_read(self, kind):
        assert ExperimentConfig.from_dict(base_config(kind=kind, chain="sgld")).chain == "sgld"

    def test_constants_without_a_pilot_runs_under_sgld(self, tmp_path):
        assert self._run(tmp_path, "c", "constants", "sgld", batch_size=10) == EXIT_OK
        assert "c_18" not in json.loads((tmp_path / "c" / "constants.json").read_text())

    @pytest.mark.parametrize("batch_size", [10, None])
    def test_gibbs_check_moves_the_momentum(self, tmp_path, batch_size):
        assert self._run(tmp_path, "g", "gibbs-check", "sghmc", batch_size=batch_size,
                         steps=3000) == EXIT_OK
        assert json.loads((tmp_path / "g" / "gibbs.json").read_text())["empirical_var_v"] > 0.0

    def test_rate_study_coarse_chain_follows_batch_size(self, tmp_path):
        over = {"rate": {"lambdas": [0.1, 0.05], "t_end": 1.0},
                "objective": {"name": "double_well", "params": {"coupling": 0.1}}}
        csv = {}
        for name, batch in (("full", None), ("mini", 10)):
            assert self._run(tmp_path, name, "rate-study", "sghmc", batch, **over) == EXIT_OK
            csv[name] = (tmp_path / name / "rate.csv").read_bytes()
        assert csv["full"] != csv["mini"]

    def test_risk_bound_measures_delta_exactly_with_a_batch_size(self, tmp_path):
        over = {"steps": 1000, "pilot_steps": 500, "replicas": 2,
                "risk": {"p": 2.0, "q": 1, "lambda_star": 1.0},
                "objective": {"name": "double_well", "params": {"coupling": 0.1}}}
        delta = {}
        for name, batch in (("mini", 10), ("full", None)):
            doc = base_config(kind="risk-bound", out=str(tmp_path / name), **over)
            doc["sampler"].update(batch_size=batch, seed=3, init={
                "kind": "point", "x0": [1, 0], "v0": [0, 0]}, **{"lambda": 0.01})
            run_experiment(ExperimentConfig.from_dict(doc))
            delta[name] = json.loads((tmp_path / name / "risk.json").read_text())["delta"]
        assert delta["full"] == 0.0
        assert delta["mini"] > 0.0

    def test_risk_bound_without_c_ls_or_lambda_star_runs_no_chain(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the bound cannot be evaluated, so the run stops before its chains
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        for name in ("ensemble_run", "run_chain", "estimate_delta"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        assert self._run(tmp_path, "r", "risk-bound", "sghmc", batch_size=10,
                         risk={"p": 2.0, "q": 1}) == EXIT_VALIDATION
        assert "supply either c_ls or lambda_star" in capsys.readouterr().err
        assert calls == []


def _golden_digests(out: Path) -> dict:
    """First 16 hex digits of the SHA-256 of every output of a run, and of its
    manifest without the wall time and the output paths."""
    manifest = json.loads((out / "manifest.json").read_text())
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()[:16]
               for p in manifest["outputs"]}
    del manifest["wall_time_s"], manifest["config"]["out"]
    manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
    digests["manifest.json"] = hashlib.sha256(
        json.dumps(manifest, indent=2).encode()).hexdigest()[:16]
    return digests


class TestGoldenRuns:
    """Pins of every file each kind writes on the quadratic: a change to a
    config default, a derivation, an output format or the manifest shows up
    here."""

    CONFIGS = {
        "audit": {"audit": {"probes": 300}},
        "validate": {"risk": {"p": 2.0, "q": 1}},
        "sample": {},
        "couple": {"thin": 20, "sampler_b": {"init": {"kind": "point", "x0": [-1, 0],
                                                      "v0": [0, 0]}}},
        "rate-study": {"replicas": 4, "rate": {"lambdas": [0.1, 0.05], "t_end": 1.0}},
        "constants": {"pilot_steps": 500, "risk": {"p": 2.0, "delta": 0.1}},
        "risk-bound": {"steps": 1000, "pilot_steps": 500, "replicas": 2,
                       "risk": {"p": 2.0, "q": 1, "lambda_star": 1.0, "eps": 0.1}},
        "gibbs-check": {"steps": 4000, "replicas": 8},
    }

    # recorded before the run pipeline was merged (sample and couple again when
    # single chains became ensembles of one, rate-study when its chains became
    # ordinary ones, which moved a distance by one ulp); never re-record
    PINS = {
        "audit": {"audit.json": "45d7692e93e2c442", "manifest.json": "c7aa139ac443557f"},
        "validate": {"findings.json": "93866b932ee90b51", "manifest.json": "3426d95c9fc25016"},
        "sample": {"trajectory.csv": "ad6efd2c62390280", "manifest.json": "30fd543b780671c8"},
        "couple": {"distances.csv": "7f056c5c7212826d", "manifest.json": "1d1b5fec00cab82f"},
        "rate-study": {"rate.csv": "5119e3a1ae8dd4c5", "manifest.json": "9e89b2de1f671356"},
        "constants": {"constants.json": "064232b898ca188e", "manifest.json": "5fb433ade0549808"},
        "risk-bound": {"risk.json": "ff3201524fc00f92", "manifest.json": "71e2c362e70fc1bf"},
        # the manifest echoes the burn-in that ran (2000, resolved from the default)
        "gibbs-check": {"gibbs.json": "605a2fb23462d3fb", "manifest.json": "8d5e0c3e7983cac9"},
    }

    @pytest.mark.parametrize("kind", list(CONFIGS))
    def test_outputs_pinned(self, tmp_path, kind):
        doc = base_config(kind=kind, out=str(tmp_path / "o"), **self.CONFIGS[kind])
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        if kind == "risk-bound":
            doc["sampler"]["batch_size"] = 10  # measures delta
        run_experiment(ExperimentConfig.from_dict(doc))
        assert _golden_digests(tmp_path / "o") == self.PINS[kind]

    # (output, manifest) digests of every kind on the built-in double well and
    # mixture (gibbs-check needs the quadratic) at full gradients and at batch
    # 10, and on the quadratic at batch 10 (risk-bound's is PINS' own),
    # recorded before the kinds became one table (the mixture's constants.json
    # again when V became one evaluation, which moved its mu0 by one ulp, and
    # three rate-study pins when its chains became ordinary ones, which moved
    # a distance by one ulp, and the four constants manifests when the
    # step-size finding took the cap at risk.delta, as the table does); never
    # re-record
    BUILTINS = {"double_well": ({"coupling": 0.1}, 11), "gaussian_mixture": ({"ridge": 0.05}, 13)}
    BUILTIN_PINS = {
        ("double_well", "audit", None): ("30ea1012248884db", "7f2c80a2efcc54cf"),
        ("double_well", "audit", 10): ("30ea1012248884db", "ad6de665fd921aae"),
        ("double_well", "validate", None): ("b874d6b33c81db59", "a5e49998eb66bde6"),
        ("double_well", "validate", 10): ("b874d6b33c81db59", "275b664e62686fbc"),
        ("double_well", "sample", None): ("d647cb6aa354594a", "20f2a3afedfae088"),
        ("double_well", "sample", 10): ("fab0ec46d2346896", "c93f5b3ee3b8f21f"),
        ("double_well", "couple", None): ("4a9f848e05971a96", "dc74dd70d2c7fc2b"),
        ("double_well", "couple", 10): ("020a8c6e662c1cc4", "0552fb2acb444e1b"),
        ("double_well", "rate-study", None): ("69c8d5bf98d6d396", "81fca1f4fa997833"),
        ("double_well", "rate-study", 10): ("5b7bfd27a519865b", "f3b3b97792749dc6"),
        ("double_well", "constants", None): ("a696c35997fb5693", "0cfa9e743124ad0f"),
        ("double_well", "constants", 10): ("a696c35997fb5693", "b4d3a3ee8e7d839e"),
        ("double_well", "risk-bound", None): ("826cc377cc6c313d", "625a6fc01fc0f0cb"),
        ("double_well", "risk-bound", 10): ("85f9bb8b8f0c32d4", "ea8ac479b867989f"),
        ("gaussian_mixture", "audit", None): ("801f30e3262d4371", "cbe5962a8fde6d5e"),
        ("gaussian_mixture", "audit", 10): ("801f30e3262d4371", "ce10722d0f33a8ef"),
        ("gaussian_mixture", "validate", None): ("fb18848ebeb511b8", "146c9474d42dc944"),
        ("gaussian_mixture", "validate", 10): ("fb18848ebeb511b8", "9c5bacd70f6c344d"),
        ("gaussian_mixture", "sample", None): ("f07666c0c2e00ea5", "ade8fae3e4467b85"),
        ("gaussian_mixture", "sample", 10): ("0e8b63431e42b140", "43a7677bd271c38e"),
        ("gaussian_mixture", "couple", None): ("9fb9aa0297540311", "24af8f7d9e93f06a"),
        ("gaussian_mixture", "couple", 10): ("e3c404b8944f384f", "2a5a38d782605d26"),
        ("gaussian_mixture", "rate-study", None): ("84fd1578e896440f", "2999ba9ee8b9af6c"),
        ("gaussian_mixture", "rate-study", 10): ("1602b3e725575d4b", "1b58d41d2de81e80"),
        ("gaussian_mixture", "constants", None): ("006584bcecaad9ac", "ce65dbcbe2a0aa50"),
        ("gaussian_mixture", "constants", 10): ("006584bcecaad9ac", "b29d2fb3dbd8286c"),
        ("gaussian_mixture", "risk-bound", None): ("b8482a8589d7f738", "75baf54d66af1000"),
        ("gaussian_mixture", "risk-bound", 10): ("56b7ea4a01efb389", "50f033701c71c4b3"),
        ("quadratic", "audit", 10): ("45d7692e93e2c442", "2fc7ac8324bab248"),
        ("quadratic", "validate", 10): ("93866b932ee90b51", "1f248e77931f05f8"),
        ("quadratic", "sample", 10): ("b531b8e79480950e", "c76d35942e6acf3d"),
        ("quadratic", "couple", 10): ("7da548d35810c94f", "81f713ea189a7b87"),
        ("quadratic", "rate-study", 10): ("00d377f558db6a68", "5703547bccf163bd"),
        ("quadratic", "constants", 10): ("064232b898ca188e", "31361729e2ce6b9b"),
        ("quadratic", "gibbs-check", 10): ("605a2fb23462d3fb", "d642555253919c82"),
    }

    @pytest.mark.parametrize("name, kind, batch", list(BUILTIN_PINS))
    def test_builtin_outputs_pinned(self, tmp_path, name, kind, batch):
        doc = base_config(kind=kind, out=str(tmp_path / "o"), **self.CONFIGS[kind])
        doc["sampler"].update(batch_size=batch,
                              init={"kind": "point", "x0": [1, 0], "v0": [0, 0]})
        if name in self.BUILTINS:
            params, seed = self.BUILTINS[name]
            doc["objective"] = {"name": name, "params": params}
            doc["dataset"]["seed"] = seed
        run_experiment(ExperimentConfig.from_dict(doc))
        digests = _golden_digests(tmp_path / "o")
        assert list(digests) == list(self.PINS[kind])
        assert tuple(digests.values()) == self.BUILTIN_PINS[name, kind, batch]

    # series and running_max of the pilot's three functionals (600 steps,
    # q = 2) on the built-in double well and mixture; never re-record
    PILOT_PINS = {
        ("double_well", 2, None): "795b31ae4960955f",
        ("double_well", 2, 10): "31f3d9b470c764cf",
        ("double_well", 8, None): "550a6429138a189a",
        ("double_well", 8, 10): "cac28627dc155732",
        ("gaussian_mixture", 2, None): "1f7b5e8a38e99337",
        ("gaussian_mixture", 2, 10): "0f98e734e10358b8",
        ("gaussian_mixture", 8, None): "a5da0b47261bb2e9",
        ("gaussian_mixture", 8, 10): "3ee8a915a13ac502",
    }

    @pytest.mark.parametrize("name, replicas, batch", list(PILOT_PINS))
    def test_pilot_statistics_pinned(self, builtin_suite, name, replicas, batch):
        obj, data = next((o, d) for o, d in builtin_suite if o.name == name)
        doc = base_config(kind="constants", replicas=replicas)
        doc["sampler"].update(batch_size=batch,
                              init={"kind": "gaussian", "mean": 0.0, "scale": 1.0})
        cfg = ExperimentConfig.from_dict(doc)
        lyap = harness._certify(cfg, obj, data)[1]
        pilot = harness._pilot_statistics(cfg, obj, data, lyap, steps=600, q=2)
        h = hashlib.sha256(np.asarray(pilot.steps, dtype=float).tobytes())
        for key in ("v2", "v2q", "radial2q"):
            h.update(pilot.series[key].tobytes())
            h.update(np.float64(pilot.running_max[key]).tobytes())
        assert h.hexdigest()[:16] == self.PILOT_PINS[name, replicas, batch]


class TestPilotStatistics:
    @staticmethod
    def pilot(monkeypatch, obj, data):
        """The q = 2 pilot's result, its value_rows calls and its stepped blocks."""
        doc = base_config(kind="risk-bound", replicas=8)
        doc["sampler"].update(batch_size=10, init={"kind": "gaussian", "mean": 0.0, "scale": 1.0})
        cfg = ExperimentConfig.from_dict(doc)
        lyap = harness._certify(cfg, obj, data)[1]
        counts = {"value_rows": 0, "blocks": 0}

        def value_rows(self, X, V, _fn=theory.LyapunovParams.value_rows):
            counts["value_rows"] += 1
            return _fn(self, X, V)

        def advance(*args, _fn=samplers._advance):
            for block in _fn(*args):
                counts["blocks"] += 1
                yield block

        monkeypatch.setattr(theory.LyapunovParams, "value_rows", value_rows)
        monkeypatch.setattr(samplers, "_advance", advance)
        return harness._pilot_statistics(cfg, obj, data, lyap, steps=600, q=2), counts

    def test_one_evaluation_of_v_a_block(self, builtin_suite, monkeypatch):
        obj, data = next((o, d) for o, d in builtin_suite if o.name == "gaussian_mixture")
        pilot, counts = self.pilot(monkeypatch, obj, data)
        assert counts["blocks"] > 1
        assert counts["value_rows"] == 1 + counts["blocks"]  # the initial state, then each block
        assert sorted(pilot.series) == ["radial2q", "v2", "v2q"]

    def test_sums_no_tail_moments(self, builtin_suite, monkeypatch):
        obj, data = next((o, d) for o, d in builtin_suite if o.name == "double_well")
        pilot, _ = self.pilot(monkeypatch, obj, data)
        assert pilot.tail_samples == 0
        assert np.isnan(pilot.tail_var_x).all()


class TestCertifyOnce:
    @pytest.mark.parametrize("kind", ["constants", "risk-bound"])
    def test_run_certifies_once(self, tmp_path, monkeypatch, kind):
        # the findings and the theory chain share one certified drift pair
        calls = {}
        for name in ("derive_drift_constants", "initial_lyapunov_integral"):
            def counted(*args, _fn=getattr(theory, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(theory, name, counted)
        doc = base_config(kind=kind, out=str(tmp_path / "o"), **TestGoldenRuns.CONFIGS[kind])
        run_experiment(ExperimentConfig.from_dict(doc))
        assert calls == {"derive_drift_constants": 1, "initial_lyapunov_integral": 1}


class TestDiscreteStationaryOracle:
    def test_bias_vanishes_with_step(self):
        vx1, vv1 = sghmc_quadratic_stationary(0.01, 2.0, 1.0, 1.0)
        vx2, vv2 = sghmc_quadratic_stationary(0.005, 2.0, 1.0, 1.0)
        assert abs(vx2 - 1.0) < abs(vx1 - 1.0)
        assert abs(vv2 - 1.0) < abs(vv1 - 1.0)
        vx3, _ = sghmc_quadratic_stationary(1e-5, 2.0, 1.0, 1.0)
        assert vx3 == pytest.approx(1.0, rel=1e-3)

    def test_matches_scipy_lyapunov_solver(self):
        from scipy.linalg import solve_discrete_lyapunov

        for lam, gamma, beta, m0 in itertools.product(
                (1e-5, 1e-3, 0.01, 0.1), (0.5, 2.0, 5.0), (0.1, 1.0, 10.0), (0.2, 1.0, 3.0)):
            A = np.array([[1.0 - lam * gamma, -lam * m0], [lam, 1.0]])
            Q = np.array([[2.0 * gamma * lam / beta, 0.0], [0.0, 0.0]])
            sigma = solve_discrete_lyapunov(A, Q)
            assert sghmc_quadratic_stationary(lam, gamma, beta, m0) == (sigma[1, 1], sigma[0, 0])


class TestCli:
    def test_subcommands_are_the_kinds_table(self):
        # the eight kinds, in the order --help has always listed them
        assert ("{audit,constants,sample,couple,rate-study,gibbs-check,risk-bound,validate}"
                in build_parser().format_usage())
        assert harness.KINDS == tuple(harness._KINDS)

    def test_validate_exit_codes(self, tmp_path):
        doc = base_config(kind="validate", out=str(tmp_path / "v"))
        doc["sampler"]["lambda"] = 0.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert main(["validate", "--config", str(path), "--strict"]) == EXIT_VALIDATION

    def test_seed_flag_reseeds_every_sampler(self, tmp_path):
        # chain b of a couple run draws its start from sampler_b's seed, which
        # the flag sets as it sets sampler's: two seeds, two starts of chain b
        starts = []
        for seed in (5, 6):
            doc = base_config(kind="couple", out=str(tmp_path / str(seed)), steps=10, thin=10)
            doc["sampler"]["init"] = {"kind": "gaussian", "mean": 0.0, "scale": 1.0}
            doc["sampler_b"] = {"init": {"kind": "gaussian", "mean": 1.0, "scale": 1.0}}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            assert main(["couple", "--config", str(path), "--seed", str(seed)]) == EXIT_OK
            manifest = json.loads((tmp_path / str(seed) / "manifest.json").read_text())
            assert manifest["config"]["sampler"]["seed"] == seed
            assert manifest["config"]["sampler_b"]["seed"] == seed
            cfg = load_config(tmp_path / str(seed) / "manifest.json")
            (xa, va), (xb, vb) = (c.init.sample(2, derive_stream(seed, "coupled:init", i), 1)
                                  for i, c in enumerate((cfg.sampler, cfg.sampler_b)))
            first = (tmp_path / str(seed) / "distances.csv").read_text().splitlines()[1]
            assert [float(v) for v in first.split(",")] == pytest.approx(
                [0.0, np.linalg.norm(xa - xb), np.linalg.norm(va - vb)], rel=1e-12)
            starts.append(np.concatenate([xb, vb], axis=1))
        assert not np.array_equal(*starts)

    def test_risk_bound_of_a_chain_at_rest(self, tmp_path):
        # at lambda 0 the chain never leaves its start, so its W_rho to the
        # pilot's law is 0: the transient is already below eps, a zero budget
        doc = base_config(kind="risk-bound", out=str(tmp_path / "r"),
                          risk={"lambda_star": 1.0, "eps": 0.1})
        doc["sampler"]["lambda"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["risk-bound", "--config", str(path)]) == EXIT_OK
        risk = json.loads((tmp_path / "r" / "risk.json").read_text())
        assert (risk["w_rho_init"], risk["budget"]["k_min"]) == (0.0, 0)

    # (gamma, beta) that the config accepts but whose gamma^2 or beta gamma^2
    # leaves float range, or whose Lambda_c does (gamma 1e-60)
    EXTREME_RATES = [(1e-200, 1.0), (1e-150, 1e-300), (1e-60, 1.0), (1e160, 1.0), (1e60, 1e300)]

    @pytest.mark.parametrize("kind", harness.KINDS)
    def test_extreme_rates_end_in_an_exit_code(self, tmp_path, capsys, kind):
        # each run exits 0, 2 or 3 and raises nothing: gamma^2 and beta gamma^2
        # are checked where the theory reads them, and an overflow of Lambda_c
        # is a NumericalError; on the quadratic a Gaussian init's finding forms
        # gamma^2 too
        inits = {"quadratic": {"kind": "gaussian", "mean": 0.0, "scale": 0.1},
                 "double_well": {"kind": "point", "x0": [1, 0], "v0": [0, 0]}}
        params = {"quadratic": {"m0": 1.0}, "double_well": {"coupling": 0.1}}
        for (gamma, beta), name in itertools.product(self.EXTREME_RATES, inits):
            doc = base_config(kind=kind, out=str(tmp_path / "o"), steps=30, replicas=2,
                              pilot_steps=20, burn_in=10, thin=10, audit={"probes": 5},
                              rate={"lambdas": [0.1], "t_end": 0.2}, risk={"lambda_star": 1},
                              objective={"name": name, "params": params[name]})
            doc["sampler"].update(gamma=gamma, beta=beta, init=inits[name])
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            code = main([kind, "--config", str(path)])
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DIVERGENCE), (gamma, beta, name)
        capsys.readouterr()

    def test_overflowed_lambda_exits_validation(self, tmp_path, capsys):
        # at gamma = 1e-60 Lambda_c leaves float range: no constants.json (it
        # used to be written, with an 'exact' c_star of 1.6e56)
        doc = base_config(kind="constants", out=str(tmp_path / "c"))
        doc["sampler"]["gamma"] = 1e-60
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["constants", "--config", str(path)]) == EXIT_VALIDATION
        assert "Lambda_c overflows at gamma = 1e-60" in capsys.readouterr().err
        assert not (tmp_path / "c" / "constants.json").exists()

    def test_divergence_exit_code(self, tmp_path):
        doc = base_config(out=str(tmp_path / "d"), steps=5000)
        doc["sampler"]["lambda"] = 5.0
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path)]) == EXIT_DIVERGENCE

    def test_divergent_run_leaves_manifest(self, tmp_path):
        doc = base_config(out=str(tmp_path / "d1"), steps=5000)
        doc["sampler"]["lambda"] = 5.0
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path)]) == EXIT_DIVERGENCE
        manifest_path = tmp_path / "d1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["outputs"] == []
        [record] = manifest["divergence"]
        assert record["step"] >= 1 and "diverged" in record["message"]
        assert load_config(manifest_path).sampler.lam == 5.0
        # the manifest reproduces the run, divergence step included
        assert main(["sample", "--config", str(manifest_path),
                     "--out", str(tmp_path / "d2")]) == EXIT_DIVERGENCE
        again = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert again["divergence"] == manifest["divergence"]

    def test_fully_divergent_rate_study_exits_divergence(self, tmp_path):
        doc = base_config(kind="rate-study", out=str(tmp_path / "r"),
                          rate={"lambdas": [5.0], "t_end": 3000.0})
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["rate-study", "--config", str(path)]) == EXIT_DIVERGENCE
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["divergence"] == [
            {"lambda": 5.0, "message": "dropped"},
            {"step": 0, "message": "every grid point diverged"},
        ]

    # divergent runs exit 3; the runaway ones, a couple run and a rate-study
    # point whose states grow to about 1e300 and stay finite, exit 0
    RUNAWAY = {
        "sample": ("sample", 5.0, False, {"steps": 5000}, EXIT_DIVERGENCE),
        "couple": ("couple", 5.0, False, {"steps": 5000, "sampler_b": {"init": {
            "kind": "point", "x0": [-1.0, 0.0], "v0": [0.0, 0.0]}}}, EXIT_DIVERGENCE),
        "gibbs-check": ("gibbs-check", 5.0, False, {"steps": 5000}, EXIT_DIVERGENCE),
        "rate-study": ("rate-study", 5.0, False,
                       {"rate": {"lambdas": [5.0], "t_end": 3000.0}}, EXIT_DIVERGENCE),
        "couple-runaway": ("couple", 5.0, True, {"steps": 140, "thin": 20}, EXIT_OK),
        "rate-study-runaway": ("rate-study", 1.0, True,
                               {"rate": {"lambdas": [5.0, 0.1], "t_end": 700.0}}, EXIT_OK),
    }

    @pytest.mark.parametrize("case", sorted(RUNAWAY))
    def test_runaway_runs_raise_no_warnings(self, tmp_path, case):
        # the stepping loop and the runners that read its states own their
        # floating-point errors: under warnings-as-errors a run exits as it
        # does with warnings ignored and leaves the same manifest, a valid config
        kind, lam, well, over, code = self.RUNAWAY[case]
        manifests = []
        for action in ("error", "ignore"):
            out = tmp_path / action
            doc = base_config(kind=kind, out=str(out), **over)
            doc["sampler"].update({"lambda": lam, "init": {"kind": "point", "x0": [1, 0],
                                                           "v0": [0, 0]}})
            if well:  # the double well of TestRateStudy
                doc["objective"] = {"name": "double_well", "params": {"coupling": 0.1}}
                doc["sampler"]["seed"] = 11
            path = tmp_path / f"{action}.json"
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main([kind, "--config", str(path)]) == code
            assert load_config(out / "manifest.json").kind == kind
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["wall_time_s"], manifest["config"]["out"]
            manifest["outputs"] = [(Path(p).name, Path(p).read_bytes())
                                   for p in manifest["outputs"]]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]

    def test_module_entry_point(self, tmp_path):
        doc = base_config(kind="validate", out=str(tmp_path / "v"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "sghmc", "validate", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "v" / "manifest.json").exists()

    def test_no_scipy_on_the_import_path(self, tmp_path):
        # scipy is a test-only dependency, and numpy.polynomial is not needed:
        # importing the package and running the short kinds in a fresh
        # process must load neither
        runs = []
        for kind in ("constants", "risk-bound", "gibbs-check", "validate"):
            doc = base_config(kind=kind, out=str(tmp_path / kind),
                              **TestGoldenRuns.CONFIGS[kind])
            if kind == "risk-bound":
                doc["sampler"]["batch_size"] = 10
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            runs.append([kind, "--config", str(path)])
        script = "\n".join([
            "import json, sys",
            "import sghmc, sghmc.cli",
            *(f"assert sghmc.cli.main({argv!r}) == 0" for argv in runs),
            "print(json.dumps(sorted(m for m in sys.modules",
            "                        if m.startswith(('scipy', 'numpy.polynomial')))))",
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []

    @pytest.mark.parametrize("kind, over, argv, message", [
        ("gibbs-check", {}, ["--replicas", "0"], "replicas must be an integer >= 1, got 0"),
        ("rate-study", {}, ["--replicas", "0"], "replicas must be an integer >= 1, got 0"),
        ("sample", {"replicas": -1}, [],
         "malformed config value 'replicas': replicas must be an integer >= 1, got -1"),
        ("couple", {"thin": 0}, [],
         "malformed config value 'thin': thin must be an integer >= 1, got 0"),
        ("sample", {"steps": 0}, [],
         "malformed config value 'steps': steps must be an integer >= 1, got 0"),
        ("gibbs-check", {"burn_in": -1}, [], "must be >="),
        ("gibbs-check", {"steps": 1500}, [], "must be >="),
        ("rate-study", {"rate": {"ref_divisor": 0}}, [],
         "rate: malformed config value 'ref_divisor': ref_divisor must be positive and finite, "
         "got 0"),
        ("rate-study", {"rate": {"ref_divisor": "inf"}}, [],
         "rate: malformed config value 'ref_divisor': ref_divisor must be positive and finite, "
         "got 'inf'"),
        ("rate-study", {"rate": {"ref_divisor": 2.5}}, [],
         "lambda_ref_divisor must be an integer >= 1, got 2.5"),
        ("rate-study", {"rate": {"t_end": 1e308, "lambdas": [0.1], "ref_divisor": 2}}, [],
         "t_end / lam overflows"),
        ("rate-study", {"rate": {"lambdas": [0.1, 0.03]}}, [],
         "lam = 0.1 must be an integer multiple of lambda_ref = 0.001875"),
        ("rate-study", {"rate": {"lambdas": [0.3, 0.1], "t_end": 1.0}}, [],
         "t_end = 1.0 must be an integer multiple of lam = 0.3"),
        ("rate-study", {"rate": {"lambdas": []}}, [], "rate study needs at least one step size"),
        ("constants", {"pilot_steps": -5}, [], "must be >="),
        ("risk-bound", {"pilot_steps": -5}, [], "must be >="),
    ], ids=["replicas-flag-0", "rate-replicas-flag-0", "replicas-neg", "thin-0", "steps-0",
            "burn-in-neg", "gibbs-no-tail", "ref-divisor-0", "ref-divisor-inf",
            "ref-divisor-fractional", "rate-t-end-overflow", "rate-grid-not-nested",
            "rate-t-end-not-a-multiple", "rate-no-lambdas",
            "pilot-steps-neg-constants", "pilot-steps-neg-risk-bound"])
    def test_out_of_range_run_sizes_exit_validation(self, tmp_path, capsys, kind, over, argv,
                                                    message):
        doc = base_config(kind=kind, out=str(tmp_path / "r"), **over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path), *argv]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind, sampler, over", [
        ("sample", {"lambda": "fast"}, {}),
        ("sample", {}, {"steps": "ten"}),
        ("sample", {"batch_size": "eight"}, {}),
        ("sample", {"init": {"kind": "point", "x0": [1, 2, 3]}}, {}),
        ("validate", {"init": {"kind": "point", "x0": [1, 2, 3]}}, {}),
        ("validate", {"init": {"kind": "point", "v0": [0.5]}}, {}),
        ("risk-bound", {}, {"risk": {"p": "two", "q": 1, "lambda_star": 1.0}}),
        ("rate-study", {}, {"rate": {"t_end": "x"}}),
        ("rate-study", {}, {"rate": {"lambdas": "12"}}),
        ("sample", {}, {"dataset": {"generator": "gaussian", "n": "many", "z_dim": 2}}),
        ("sample", {}, {"objective": {"name": "quadratic", "params": {"m0": "one"}}}),
        ("sample", {}, {"objective": {"name": "quadratic", "params": {"m00": 1}}}),
        ("sample", {}, {"objective": {"name": "quadratic", "params": {"m0": True}}}),
        ("sample", {}, {"objective": {"name": "quadratic", "params": {"coupling": True}}}),
        ("sample", {}, {"steps": 1500.7}),
        ("validate", {}, {"steps": 1500.7}),
        ("gibbs-check", {}, {"replicas": 2.5}),
        ("sample", {}, {"replicas": True}),
        ("constants", {}, {"pilot_steps": 100.5}),
        ("sample", {"seed": 4.5}, {}),
        ("sample", {}, {"dataset": {"generator": "gaussian", "n": 100.5, "z_dim": 2}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1.5, "lambda_star": 1.0}}),
        ("sample", {}, {"strict": "false"}),
        ("sample", {"lambda": math.nan}, {}),
        ("sample", {"gamma": math.nan}, {}),
        ("sample", {"lambda": math.inf}, {}),
        ("validate", {"lambda": math.nan}, {}),
        ("sample", {"lambda": True}, {}),
        ("sample", {"init": {"kind": "gaussian", "scale": math.nan}}, {}),
        ("sample", {"init": {"kind": "gaussian", "mean": math.inf}}, {}),
        ("sample", {"init": {"kind": "point", "x0": [math.nan, 0]}}, {}),
        ("validate", {"init": {"kind": "gaussian", "scale": math.nan}}, {}),
        ("audit", {}, {"audit": {"radius": "nan"}}),
        ("audit", {}, {"audit": {"radius": 0}}),
        ("audit", {}, {"audit": {"radius": -3}}),
        ("sample", {}, {"dataset": {"generator": "gaussian", "n": 100, "z_dim": 3}}),
        ("sample", {}, {"dataset": {"generator": "gaussian", "n": 100, "z_dim": 0}}),
        ("constants", {}, {"risk": {"delta": -0.5}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1, "lambda_star": 1.0, "delta": -0.5}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1, "lambda_star": 1.0, "sigma": -1}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1, "c_ls": -1}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1, "lambda_star": 1.0, "k": -5}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1, "lambda_star": "nan"}}),
        ("risk-bound", {}, {"risk": {"p": 2.0, "q": 1, "lambda_star": 1.0, "eps": "nan"}}),
        ("rate-study", {}, {"rate": {"t_end": "nan"}}),
        ("validate", {}, {"chain": "bogus"}),
        ("sample", {}, {"chain": "bogus"}),
        ("validate", {}, {"out": None}),
        ("validate", {}, {"out": 5}),
    ], ids=["lambda-fast", "steps-ten", "batch-size-eight", "x0-wrong-length",
            "x0-wrong-length-validate", "v0-wrong-length-validate", "risk-p-two",
            "rate-t-end-x", "rate-lambdas-string", "dataset-n-many", "objective-m0-one", "objective-unknown-param",
            "objective-m0-true", "objective-coupling-true",
            "steps-fractional", "steps-fractional-validate", "replicas-fractional", "replicas-true",
            "pilot-steps-fractional", "seed-fractional", "dataset-n-fractional",
            "risk-q-fractional", "strict-string", "lambda-nan", "gamma-nan", "lambda-inf",
            "lambda-nan-validate", "lambda-true", "init-scale-nan", "init-mean-inf",
            "init-x0-nan", "init-scale-nan-validate", "audit-radius-nan", "audit-radius-0",
            "audit-radius-neg", "dataset-z-dim-3", "dataset-z-dim-0", "constants-delta-neg",
            "risk-delta-neg", "risk-sigma-neg", "risk-c-ls-neg", "risk-k-neg", "risk-lambda-star-nan",
            "risk-eps-nan", "rate-t-end-nan", "chain-bogus-validate", "chain-bogus",
            "out-null", "out-number"])
    def test_malformed_config_value_exits_validation(self, tmp_path, capsys, monkeypatch, kind,
                                                     sampler, over):
        monkeypatch.chdir(tmp_path)  # where an "out" read as a relative path would land
        doc = base_config(kind=kind, **{"out": str(tmp_path / "r"), **over})
        doc["sampler"].update(sampler)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert "validation failure" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    # a malformed value and an unknown key of the top level and of each block
    # that a key table declares, with what the error names
    BAD_KEYS = {
        "top-steps-x": ({"steps": "x"}, "malformed config value 'steps'"),
        "top-unknown": ({"setps": 10}, "unknown config key 'setps'"),
        # full gradients are "chain": "sghmc", "batch_size": null
        "chain-exact-sghmc": ({"chain": "exact_sghmc"}, "unknown chain kind 'exact_sghmc'"),
        "sampler-lambda-x": ({"sampler": {"lambda": "x"}}, "malformed config value 'lambda'"),
        "sampler-unknown": ({"sampler": {"lamda": 5.0}}, "unknown key 'lamda'"),
        "sampler-b-gamma-x": ({"sampler_b": {"gamma": "x"}}, "malformed config value 'gamma'"),
        "sampler-b-unknown": ({"sampler_b": {"lam": 0.02}}, "unknown key 'lam'"),
        "rate-t-end-x": ({"rate": {"t_end": "x"}}, "malformed config value 't_end'"),
        "rate-lambdas-string": ({"rate": {"lambdas": "12"}}, "'12' is not a list"),
        "rate-unknown": ({"rate": {"tend": 0.5}}, "unknown key 'tend'"),
        "risk-q-x": ({"risk": {"q": "x"}}, "malformed config value 'q'"),
        "risk-p-x": ({"risk": {"p": "x", "q": 1}}, "malformed config value 'p'"),
        "risk-unknown": ({"risk": {"p": 2.0, "q": 1, "lamda_star": 1.0}},
                         "unknown key 'lamda_star'"),
        "audit-probes-x": ({"audit": {"probes": "x"}}, "malformed config value 'probes'"),
        "audit-seed-fractional": ({"audit": {"seed": 1.5}}, "malformed config value 'seed'"),
        "audit-unknown": ({"audit": {"probe": 300}}, "unknown key 'probe'"),
    }

    @pytest.mark.parametrize("over, message", list(BAD_KEYS.values()), ids=list(BAD_KEYS))
    @pytest.mark.parametrize("kind", harness.KINDS)
    def test_malformed_or_unknown_key_exits_before_writing(self, tmp_path, capsys, monkeypatch,
                                                           kind, over, message):
        monkeypatch.chdir(tmp_path)  # where the default "out" would land
        doc = base_config(kind=kind, out=str(tmp_path / "r"))
        for key, value in over.items():
            doc[key] = {**doc[key], **value} if key == "sampler" else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    # a malformed or unknown key of a block inside a block: the message
    # names the path of blocks to it
    BLOCK_PATHS = {
        "audit-seed": ({"audit": {"seed": 1.5}},
                       "audit: malformed config value 'seed': seed must be >= 0 and an integer, "
                       "got 1.5"),
        "sampler-seed": ({"sampler": {"seed": 1.5}},
                         "sampler: malformed config value 'seed': seed must be >= 0 and an "
                         "integer, got 1.5"),
        "sampler-b-seed": ({"sampler_b": {"seed": 1.5}},
                           "sampler_b: malformed config value 'seed': seed must be >= 0 and an "
                           "integer, got 1.5"),
        "init-scale-x": ({"sampler": {"init": {"kind": "gaussian", "scale": "x"}}},
                         "sampler: init: malformed config value 'scale'"),
        "init-x0-x": ({"sampler": {"init": {"kind": "point", "x0": "x"}}},
                      "sampler: init: malformed config value 'x0': 'x' is not a list"),
        "init-kind-unknown": ({"sampler": {"init": {"kind": "uniform"}}},
                              "sampler: init: unknown initial law kind 'uniform'"),
        "init-unknown": ({"sampler": {"init": {"kind": "gaussian", "scael": 0.1}}},
                         "sampler: malformed config value 'init': unknown key 'scael'"),
        "init-point-unknown": ({"sampler": {"init": {"kind": "point", "scale": 0.1}}},
                               "sampler: malformed config value 'init': unknown key 'scale'"),
        "init-b-unknown": ({"sampler_b": {"init": {"kind": "gaussian", "mean": 0.0, "sd": 1}}},
                           "sampler_b: malformed config value 'init': unknown key 'sd'"),
    }

    @pytest.mark.parametrize("over, message", list(BLOCK_PATHS.values()), ids=list(BLOCK_PATHS))
    @pytest.mark.parametrize("kind", ["sample", "validate", "couple"])
    def test_error_names_the_block_of_the_key(self, tmp_path, capsys, monkeypatch, kind, over,
                                              message):
        monkeypatch.chdir(tmp_path)
        doc = base_config(kind=kind, out=str(tmp_path / "r"))
        for key, value in over.items():
            doc[key] = {**doc[key], **value} if key == "sampler" else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    # a key that the dataset or objective block does not declare is the
    # violation of a dataset or objective config that does not materialize
    DATA_KEYS = {
        "dataset-unknown": ("dataset", {"nn": 5000},
                            "malformed config value 'dataset': unknown key 'nn'"),
        "dataset-seed": ("dataset", {"seed": 1.5},
                         "dataset: malformed config value 'seed': seed must be >= 0 and an "
                         "integer, got 1.5"),
        "objective-unknown": ("objective", {"parms": {"m0": 9}},
                              "malformed config value 'objective': unknown key 'parms'"),
        "objective-name": ("objective", {"name": 5},
                           "objective: malformed config value 'name': 5 is not a string"),
    }

    @pytest.mark.parametrize("block, value, message", list(DATA_KEYS.values()),
                             ids=list(DATA_KEYS))
    @pytest.mark.parametrize("kind", harness.KINDS)
    def test_dataset_and_objective_keys_declared(self, tmp_path, capsys, monkeypatch, kind, block,
                                                 value, message):
        monkeypatch.chdir(tmp_path)
        doc = base_config(kind=kind, out=str(tmp_path / "r"))
        doc[block].update(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        if kind != "validate":
            assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
            assert message in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
            return
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        [finding] = json.loads((tmp_path / "r" / "findings.json").read_text())
        assert finding == {"level": "violation", "code": "objective", "message": message}
        assert main(["validate", "--config", str(path), "--strict"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("risk", [{"p": 1.5, "q": 1}, {"p": 2.0, "q": 1.5},
                                      {"p": 2.0, "q": "inf"}, {"p": 2.0, "q": 0}],
                             ids=["p-1.5", "q-1.5", "q-inf", "q-0"])
    def test_pq_range_error_is_a_validate_finding(self, tmp_path, risk):
        # a number out of the theory's range is a finding, not a load error
        doc = base_config(kind="validate", out=str(tmp_path / "v"), risk=risk)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        findings = json.loads((tmp_path / "v" / "findings.json").read_text())
        [entry] = [f for f in findings if f["code"] == "pq-pairing"]
        assert entry["level"] == "violation"
        assert main(["validate", "--config", str(path), "--strict"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("block", ["sampler", "sampler_b", "init", "objective", "dataset",
                                       "rate", "risk", "audit"])
    @pytest.mark.parametrize("kind", ["validate", "couple"])
    def test_non_object_block_exits_validation(self, tmp_path, capsys, kind, block):
        doc = base_config(kind=kind, out=str(tmp_path / "r"))
        (doc["sampler"] if block == "init" else doc)[block] = "x"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert f"malformed config value '{block}': 'x' is not an object" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text", [
        None,
        b'{"kind": "validate", "steps": 1',
        b"\xff\xfe{}",
        json.dumps([base_config(kind="validate")]).encode(),
    ], ids=["missing", "truncated", "not-utf-8", "list"])
    def test_unreadable_config_exits_validation(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_bytes(text)
        assert main(["validate", "--config", str(path),
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        assert "validation failure" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("dataset", [{"n": "many"}, {"seed": "x"}, {"seed": 1.5}],
                             ids=["n-many", "seed-x", "seed-fractional"])
    def test_malformed_dataset_is_a_validate_violation(self, tmp_path, dataset):
        # every malformed dataset value is the same finding, with a manifest
        doc = base_config(kind="validate", out=str(tmp_path / "v"))
        doc["dataset"].update(dataset)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        [finding] = json.loads((tmp_path / "v" / "findings.json").read_text())
        assert finding["level"] == "violation" and finding["code"] == "objective"
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["seeds"]["dataset"] == (7 if "n" in dataset else None)
        assert main(["validate", "--config", str(path), "--strict"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("z_dim", [3, 0])
    def test_dataset_width_is_a_validate_violation(self, tmp_path, z_dim):
        # a built-in objective reads samples of the sampler's dimension
        doc = base_config(kind="validate", out=str(tmp_path / "v"))
        doc["dataset"]["z_dim"] = z_dim
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        [finding] = json.loads((tmp_path / "v" / "findings.json").read_text())
        assert finding["level"] == "violation" and finding["code"] == "objective"
        assert "z_dim" in finding["message"]

    @pytest.mark.parametrize("kind", ["constants", "risk-bound"])
    def test_infinite_beta_is_rejected_before_certifying(self, tmp_path, capsys, kind):
        doc = base_config(kind=kind, out=str(tmp_path / "r"), **TestGoldenRuns.CONFIGS[kind])
        doc["sampler"]["beta"] = "inf"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert "beta must be positive and finite, got inf" in capsys.readouterr().err
        # validate skips the certification at beta = inf, as before
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == EXIT_OK
        findings = json.loads((tmp_path / "v" / "findings.json").read_text())
        assert [f["code"] for f in findings] == ["pq-pairing", "initial-law"]

    @pytest.mark.parametrize("params", [{"m0": True}, {"coupling": True}],
                             ids=["m0-true", "coupling-true"])
    def test_boolean_objective_parameter_is_a_validate_violation(self, tmp_path, params):
        # a boolean is not a number, so it is not read as 0 or 1
        doc = base_config(kind="validate", out=str(tmp_path / "v"),
                          objective={"name": "quadratic", "params": params})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        [finding] = json.loads((tmp_path / "v" / "findings.json").read_text())
        assert finding["level"] == "violation" and finding["code"] == "objective"
        [key] = params
        assert (f"malformed config value '{key}': {key} must be finite, got True"
                in finding["message"])

    def test_gibbs_explicit_zero_burn_in(self, tmp_path):
        doc = base_config(kind="gibbs-check", out=str(tmp_path / "g"), steps=1500, burn_in=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["gibbs-check", "--config", str(path)]) == EXIT_OK
        assert json.loads((tmp_path / "g" / "gibbs.json").read_text())["tail_samples"] == 1500 * 4
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        assert manifest["config"]["burn_in"] == 0

    def test_burn_in_default_resolved_once(self):
        # the manifest echoes the burn-in that ran, so a re-run reproduces it
        assert ExperimentConfig.from_dict(base_config(kind="gibbs-check", steps=40_000)).burn_in == 4000
        assert ExperimentConfig.from_dict(base_config(kind="gibbs-check", steps=4000)).burn_in == 2000
        assert ExperimentConfig.from_dict(base_config(kind="sample")).burn_in == 0

    def test_integer_string_batch_size_parsed(self, tmp_path):
        doc = base_config(out=str(tmp_path / "b"), steps=200)
        doc["sampler"]["batch_size"] = "8"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--config", str(path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["sampler"]["batch_size"] == 8

    @pytest.mark.parametrize("kind", ["constants", "risk-bound"])
    def test_zero_friction_exits_validation(self, tmp_path, capsys, kind):
        doc = base_config(kind=kind, out=str(tmp_path / "z"), pilot_steps=200,
                          risk={"p": 2.0, "q": 1, "lambda_star": 1.0})
        doc["sampler"]["gamma"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert "gamma must be positive" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        doc = base_config(out=str(tmp_path / "o1"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([
            "sample", "--config", str(path), "--out", str(tmp_path / "o2"), "--seed", "17",
        ]) == EXIT_OK
        man = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert man["seeds"]["sampler"] == 17

    def test_flags_do_not_outlive_their_call(self, tmp_path):
        # main builds its parser once per process; the flags of one call
        # must not reach the next
        doc = base_config(out=str(tmp_path / "f"), steps=200)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        configs = []
        for flags in (["--strict", "--replicas", "3"], []):
            assert main(["sample", "--config", str(path)] + flags) == EXIT_OK
            configs.append(json.loads((tmp_path / "f" / "manifest.json").read_text())["config"])
        assert (configs[0]["strict"], configs[0]["replicas"]) == (True, 3)
        assert (configs[1]["strict"], configs[1]["replicas"]) == (False, doc["replicas"])

    def test_manifest_rerun_identical(self, tmp_path):
        doc = base_config(out=str(tmp_path / "m1"))
        run_experiment(ExperimentConfig.from_dict(doc))
        manifest = json.loads((tmp_path / "m1" / "manifest.json").read_text())
        manifest["config"]["out"] = str(tmp_path / "m2")
        path = tmp_path / "manifest_cfg.json"
        path.write_text(json.dumps(manifest))
        assert main(["sample", "--config", str(path)]) == EXIT_OK
        a = (tmp_path / "m1" / "trajectory.csv").read_bytes()
        b = (tmp_path / "m2" / "trajectory.csv").read_bytes()
        assert a == b
