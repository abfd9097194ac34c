import json

import numpy as np
import pytest

from sghmc import ConfigurationError, double_well, make_dataset
from sghmc.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_VALIDATION, main
from sghmc.harness import (
    ExperimentConfig,
    materialize,
    rate_study,
    run_experiment,
    sghmc_quadratic_stationary,
    validate_config,
)
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

    @pytest.mark.parametrize("kind, over, argv", [
        ("gibbs-check", {}, ["--replicas", "0"]),
        ("rate-study", {}, ["--replicas", "0"]),
        ("sample", {"replicas": -1}, []),
        ("couple", {"thin": 0}, []),
        ("sample", {"steps": 0}, []),
        ("gibbs-check", {"burn_in": -1}, []),
    ], ids=["replicas-flag-0", "rate-replicas-flag-0", "replicas-neg", "thin-0", "steps-0",
            "burn-in-neg"])
    def test_out_of_range_run_sizes_exit_validation(self, tmp_path, capsys, kind, over, argv):
        doc = base_config(kind=kind, out=str(tmp_path / "r"), **over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([kind, "--config", str(path), *argv]) == EXIT_VALIDATION
        assert "must be >=" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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
