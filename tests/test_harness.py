import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sghmc import ConfigurationError, DivergenceError, double_well, make_dataset
from sghmc import harness
from sghmc.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_VALIDATION, main
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
from sghmc.samplers import SamplerConfig, gaussian_init, point_init


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

    def test_manifest_document_accepted(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(out=str(tmp_path / "a")))
        man = run_experiment(cfg)
        doc = json.loads(man.to_json())
        again = ExperimentConfig.from_dict(doc)
        assert again.sampler.seed == cfg.sampler.seed

    def test_sampler_b_merges_over_sampler(self):
        doc = base_config(kind="couple")
        doc["sampler_b"] = {"init": {"kind": "point", "x0": [3, 0], "v0": [0, 0]}}
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.sampler_b.lam == cfg.sampler.lam
        assert cfg.sampler_b.init.x0[0] == 3

    def test_objective_z_radius_injected(self):
        doc = base_config(objective={"name": "double_well", "params": {"coupling": 0.1}})
        obj, data = materialize(ExperimentConfig.from_dict(doc))
        assert obj.cert.B == pytest.approx(0.1 * data.max_norm())


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
                           lambdas=[0.1, 0.05, 0.025, 0.0125], t_end=5.0, replicas=32)
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
        t_full = rate_study(obj, quad_data, full, lambdas=[0.05, 0.025], t_end=3.0, replicas=32)
        t_mini = rate_study(obj, quad_data, mini, lambdas=[0.05, 0.025], t_end=3.0, replicas=32)
        for rf, rm in zip(t_full["rows"], t_mini["rows"]):
            assert rm["distance"] > rf["distance"]

    def test_divergent_point_dropped(self, quad_obj, quad_data):
        base = SamplerConfig(lam=5.0, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            table = rate_study(quad_obj, quad_data, base,
                               lambdas=[5.0, 0.5], t_end=3000.0, replicas=4)
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
        with np.errstate(over="ignore", invalid="ignore"):
            table = rate_study(obj, data, base, lambdas=[5.0, 1.0], t_end=700.0, replicas=4)
        assert {r["lambda"]: r["flag"] for r in table["rows"]}[1.0] == "diverged"

    def test_runaway_point_with_overflowing_distance_dropped(self):
        # at lam=5 both chains run away to |x| ~ 1e300 and stay finite, but
        # their squared distance overflows; lam=1 diverges outright
        data = make_dataset("gaussian", 100, 2, seed=7)
        obj = double_well(2, coupling=0.1, z_radius=data.max_norm())
        base = SamplerConfig(lam=1.0, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=11, init=point_init([1.0, 0.0], [0.0, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            table = rate_study(obj, data, base, lambdas=[5.0, 1.0], t_end=700.0, replicas=4)
        row = table["rows"][0]
        assert row["lambda"] == 5.0 and row["flag"] == "diverged"
        assert math.isnan(row["distance"])
        assert table["slope"] is None

    def test_non_finite_distance_left_out_of_slope(self, quad_obj, quad_data, monkeypatch):
        def distance(cfg, lambda_ref, obj, data, t_end, replicas):
            return math.inf if cfg.lam == 0.4 else cfg.lam**2

        monkeypatch.setattr(harness, "brownian_coupled_distance", distance)
        base = SamplerConfig(lam=0.1, gamma=2.0, beta=1.0, batch_size=None,
                             dim=2, seed=9, init=gaussian_init(0.0, 1.0))
        table = rate_study(quad_obj, quad_data, base, lambdas=[0.4, 0.2, 0.1], replicas=4)
        row = table["rows"][0]
        assert row["flag"] == "diverged" and math.isnan(row["distance"])
        assert table["slope"] == pytest.approx(2.0, rel=1e-12)


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
    # single chains became ensembles of one); never re-record
    PINS = {
        "audit": {"audit.json": "45d7692e93e2c442", "manifest.json": "c7aa139ac443557f"},
        "validate": {"findings.json": "93866b932ee90b51", "manifest.json": "3426d95c9fc25016"},
        "sample": {"trajectory.csv": "ad6efd2c62390280", "manifest.json": "30fd543b780671c8"},
        "couple": {"distances.csv": "7f056c5c7212826d", "manifest.json": "1d1b5fec00cab82f"},
        "rate-study": {"rate.csv": "688394dfd90f68b0", "manifest.json": "3f0739c02a74ea9a"},
        "constants": {"constants.json": "064232b898ca188e", "manifest.json": "5fb433ade0549808"},
        "risk-bound": {"risk.json": "ff3201524fc00f92", "manifest.json": "71e2c362e70fc1bf"},
        "gibbs-check": {"gibbs.json": "605a2fb23462d3fb", "manifest.json": "31e896441e2e6bef"},
    }

    @pytest.mark.parametrize("kind", list(CONFIGS))
    def test_outputs_pinned(self, tmp_path, kind):
        doc = base_config(kind=kind, out=str(tmp_path / "o"), **self.CONFIGS[kind])
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        if kind == "risk-bound":
            doc["sampler"]["batch_size"] = 10  # measures delta
        run_experiment(ExperimentConfig.from_dict(doc))
        assert _golden_digests(tmp_path / "o") == self.PINS[kind]


class TestDiscreteStationaryOracle:
    def test_bias_vanishes_with_step(self):
        vx1, vv1 = sghmc_quadratic_stationary(0.01, 2.0, 1.0, 1.0)
        vx2, vv2 = sghmc_quadratic_stationary(0.005, 2.0, 1.0, 1.0)
        assert abs(vx2 - 1.0) < abs(vx1 - 1.0)
        assert abs(vv2 - 1.0) < abs(vv1 - 1.0)
        vx3, _ = sghmc_quadratic_stationary(1e-5, 2.0, 1.0, 1.0)
        assert vx3 == pytest.approx(1.0, rel=1e-3)


class TestCli:
    def test_validate_exit_codes(self, tmp_path):
        doc = base_config(kind="validate", out=str(tmp_path / "v"))
        doc["sampler"]["lambda"] = 0.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert main(["validate", "--config", str(path), "--strict"]) == EXIT_VALIDATION

    def test_divergence_exit_code(self, tmp_path):
        doc = base_config(out=str(tmp_path / "d"), steps=5000)
        doc["sampler"]["lambda"] = 5.0
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sample", "--config", str(path)]) == EXIT_DIVERGENCE

    def test_divergent_run_leaves_manifest(self, tmp_path):
        doc = base_config(out=str(tmp_path / "d1"), steps=5000)
        doc["sampler"]["lambda"] = 5.0
        doc["sampler"]["init"] = {"kind": "point", "x0": [1, 0], "v0": [0, 0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sample", "--config", str(path)]) == EXIT_DIVERGENCE
        manifest_path = tmp_path / "d1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["outputs"] == []
        [record] = manifest["divergence"]
        assert record["step"] >= 1 and "diverged" in record["message"]
        assert load_config(manifest_path).sampler.lam == 5.0
        # the manifest reproduces the run, divergence step included
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["rate-study", "--config", str(path)]) == EXIT_DIVERGENCE
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["divergence"] == [
            {"lambda": 5.0, "message": "dropped"},
            {"step": 0, "message": "every grid point diverged"},
        ]

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

    @pytest.mark.parametrize("kind, over, argv", [
        ("gibbs-check", {}, ["--replicas", "0"]),
        ("rate-study", {}, ["--replicas", "0"]),
        ("sample", {"replicas": -1}, []),
        ("couple", {"thin": 0}, []),
        ("sample", {"steps": 0}, []),
        ("gibbs-check", {"burn_in": -1}, []),
        ("gibbs-check", {"steps": 1500}, []),
        ("rate-study", {"rate": {"ref_divisor": 0}}, []),
    ], ids=["replicas-flag-0", "rate-replicas-flag-0", "replicas-neg", "thin-0", "steps-0",
            "burn-in-neg", "gibbs-no-tail", "ref-divisor-0"])
    def test_out_of_range_run_sizes_exit_validation(self, tmp_path, capsys, kind, over, argv):
        doc = base_config(kind=kind, out=str(tmp_path / "r"), **over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path), *argv]) == EXIT_VALIDATION
        assert "must be >=" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind, sampler, over", [
        ("sample", {"lambda": "fast"}, {}),
        ("sample", {}, {"steps": "ten"}),
        ("sample", {"batch_size": "eight"}, {}),
        ("sample", {"init": {"kind": "point", "x0": [1, 2, 3]}}, {}),
        ("validate", {"init": {"kind": "point", "x0": [1, 2, 3]}}, {}),
        ("validate", {"init": {"kind": "point", "v0": [0.5]}}, {}),
    ], ids=["lambda-fast", "steps-ten", "batch-size-eight", "x0-wrong-length",
            "x0-wrong-length-validate", "v0-wrong-length-validate"])
    def test_malformed_config_value_exits_validation(self, tmp_path, capsys, kind, sampler, over):
        doc = base_config(kind=kind, out=str(tmp_path / "r"), **over)
        doc["sampler"].update(sampler)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path)]) == EXIT_VALIDATION
        assert "validation failure" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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
