"""CLI surface: strict configs, reproducible artifacts, verify suites."""

import json

import numpy as np
import pytest

from curverl.cli import main
from curverl.config import ExperimentConfig, load_experiment_config
from curverl.ioutil import write_csv
from curverl.passrate import PromptPopulation, population_digest
from curverl.refdist import distribution_from_rates, reference_csv_columns, REFERENCE_CSV_HEADER


def config_doc(steps=2, scheme=None, out_dir=None, **train_overrides):
    train = {
        "steps": steps,
        "scheme": scheme or {"name": "reinforce"},
        "batch_size": 8,
        "n_rollouts": 8,
        "t0": 2,
        "learning_rate": 1.0,
        "seed": 5,
        "min_window_count": 8,
    }
    train.update(train_overrides)
    doc = {
        "version": 1,
        "population": {
            "size": 12,
            "m": 8,
            "seed": 3,
            "difficulty": {"kind": "beta", "alpha": 2.0, "beta": 2.0,
                           "unsolvable_fraction": 0.0},
        },
        "train": train,
        "eval": {"k_list": [1, 2, 4]},
    }
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    return doc


# scheme specs with a parameter that is not a finite number, and the parameter
BAD_SCHEME_PARAMS = [
    ("entropic_risk:eta=inf", "eta"),
    ("entropic_risk:eta=nan", "eta"),
    ("entropic_risk:eta=abc", "eta"),
    ("integrated_convex:lam=inf", "lam"),
]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestTrain:
    def test_minimal_run(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(steps=2))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "train_log.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 steps
        assert lines[0] == "step,scheme,mean_exact_pass_rate,active_fraction,z_theta,window_size,grad_norm"
        assert (out / "refdist.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "population.json").exists()

    def test_population_record_is_the_digest_of_the_manifest_population(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=1))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        record = json.loads((out / "population.json").read_text())
        pop = load_experiment_config(out / "manifest.json").population.build()
        assert record == {"size": len(pop), "m": pop.m, "sha256": population_digest(pop)}
        logits = pop.logits.copy()
        logits[0, 0] = np.nextafter(logits[0, 0], np.inf)
        flipped = PromptPopulation(logits, pop.correct, pop.base_weights)
        assert population_digest(flipped) != record["sha256"]

    def test_invalid_t0_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(t0=0))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "t0" in capsys.readouterr().err

    # sizes no machine can map (or numpy can index), so the allocation fails
    # before any page is touched
    @pytest.mark.parametrize("size", [10**15, 10**20])
    @pytest.mark.parametrize("field, names", [
        ("steps", ("steps", "batch_size")),
        ("n_rollouts", ("t0", "n_rollouts")),
    ])
    def test_unallocatable_run_names_its_sizes(self, tmp_path, capsys, field, names, size):
        path = write_config(tmp_path, config_doc(**{field: size}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "too large to allocate" in err
        assert all(f"{name}=" in err for name in names)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        doc = config_doc()
        doc["surprise"] = 1
        path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_missing_out_dir_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc())
        assert main(["train", "--config", str(path)]) == 2

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=4))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("train_log.csv", "refdist.csv", "population.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=3))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()
        assert (out1 / "refdist.csv").read_bytes() == (out2 / "refdist.csv").read_bytes()

    def test_manifest_round_trips_to_the_same_config(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=2))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        manifest = load_experiment_config(out / "manifest.json")
        # reparsing the manifest's own serialization is a fixed point
        assert ExperimentConfig.from_dict(json.loads(manifest.to_json())) == manifest

    @pytest.mark.parametrize("section, field, value", [
        ("train", "learning_rate", float("inf")),
        ("train", "steps", "10"),
        ("train", "steps", 2.5),
        ("train", "log_per_prompt", "no"),
        ("train", "min_window_count", 1.5),
        ("train", "seed", True),
        ("population", "seed", float("inf")),
        ("eval", "k_list", [1, 2.5]),
        ("train", "seed", -1),
        ("population", "seed", -1),
    ])
    def test_mistyped_field_names_field(self, tmp_path, capsys, section, field, value):
        doc = config_doc()
        doc[section][field] = value
        path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"{section}.{field}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scheme, key", [
        ({"name": "grpo", "eta": 1}, "eta"),
        ({"name": "reinforce", "reference": "uniform"}, "reference"),
        ({"name": "curve", "lam": 0.5}, "lam"),
        ({"name": "integrated_convex", "lam": 0.5, "eta": 1.0}, "eta"),
    ])
    def test_scheme_key_the_scheme_does_not_take_names_it(self, tmp_path, capsys, scheme, key):
        path = write_config(tmp_path, config_doc(scheme=scheme))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"train.scheme: unknown keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("difficulty", [
        {"kind": "fixed", "targets": [5.0, -2.0]},
        {"kind": "beta", "targets": [0.5]},
    ])
    def test_bad_difficulty_targets_name_the_section(self, tmp_path, capsys, difficulty):
        doc = config_doc()
        doc["population"]["difficulty"] = difficulty
        path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "population.difficulty" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where, value, kind", [
        ("population", 5, "a JSON object"),
        ("train", None, "a JSON object"),
        ("eval", [1], "a JSON object"),
        ("train.scheme", 7, "a JSON object"),
        ("population.difficulty", "beta", "a JSON object"),
        ("out_dir", 5, "a string"),
    ])
    def test_misshapen_section_names_it(self, tmp_path, capsys, where, value, kind):
        doc = config_doc()
        *parents, key = where.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"{where} must be {kind}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_any_json_document_is_a_config_or_a_config_error(self):
        # property: parsing never escapes with another exception; documents
        # are built over the real keys so that deep fields are reached too
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from curverl.config import ConfigError

        leaf = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.sampled_from(["beta", "fixed", "window", "uniform", "curve",
                                   "entropic_risk", "integrated_convex", "reinforce"]))
        any_json = st.recursive(
            leaf,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )

        def section(keys, **nested):
            return st.fixed_dictionaries(
                {}, optional={k: nested.get(k, any_json) | any_json for k in keys}
            )

        # train.backend, eval.resamples, eval.rollouts and eval.seed are retired
        # keys: any value is dropped
        doc = section(
            ["version", "population", "train", "eval", "out_dir"],
            population=section(["size", "m", "seed", "difficulty"], difficulty=section(
                ["kind", "alpha", "beta", "unsolvable_fraction", "targets"])),
            train=section(
                ["steps", "scheme", "batch_size", "n_rollouts", "t0", "learning_rate", "seed",
                 "min_window_count", "log_per_prompt", "weight_at_exact_pass_rate", "backend"],
                scheme=section(["name", "eta", "lam", "reference"])),
            eval=section(["rollouts", "k_list", "resamples", "seed"]),
        )

        @settings(max_examples=200, deadline=None)
        @given(doc | any_json)
        def check(d):
            try:
                ExperimentConfig.from_dict(d)
            except ConfigError:
                pass

        check()

    def test_v1_manifest_backend_key_is_ignored(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=3))
        first = tmp_path / "first"
        assert main(["train", "--config", str(path), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert "backend" not in manifest["train"]
        manifest["train"]["backend"] = "compiled"
        legacy = write_config(tmp_path, manifest, name="legacy.json")
        out1, out2 = tmp_path / "plain", tmp_path / "legacy"
        assert main(["train", "--config", str(first / "manifest.json"), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(legacy), "--out", str(out2)]) == 0
        for name in ("train_log.csv", "refdist.csv", "population.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        replayed = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
        for doc in replayed:
            del doc["out_dir"]
        assert replayed[0] == replayed[1]

    def test_v1_config_resamples_key_is_ignored(self, tmp_path):
        # and each of the other retired eval keys
        doc = config_doc(steps=1)
        path = write_config(tmp_path, doc)
        for key in ("resamples", "rollouts", "seed"):
            legacy = json.loads(json.dumps(doc))
            legacy["eval"][key] = 200
            legacy_path = write_config(tmp_path, legacy, name=f"{key}.json")
            assert load_experiment_config(legacy_path) == load_experiment_config(path)
            out = tmp_path / key
            assert main(["train", "--config", str(legacy_path), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["eval"] == doc["eval"]

    def test_seed_override_changes_run(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=2))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(path), "--out", str(out1)])
        main(["train", "--config", str(path), "--out", str(out2), "--seed", "99"])
        assert (out1 / "train_log.csv").read_bytes() != (out2 / "train_log.csv").read_bytes()
        assert json.loads((out2 / "manifest.json").read_text())["train"]["seed"] == 99


class TestVerify:
    def test_theorem_suite_passes(self, capsys):
        assert main(["verify", "theorem1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite_lists_available(self, capsys):
        assert main(["verify", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "theorem1" in err and "aggressiveness" in err

    def test_all_suites_pass(self, capsys):
        assert main(["verify", "all"]) == 0


class TestWeights:
    def test_group_normalized_grid(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "grpo", "--n-rollouts", "8",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,p,weight,normalized_weight"
        assert len(lines) == 8  # header + 7 grid points
        weights = [float(l.split(",")[2]) for l in lines[1:]]
        assert weights == weights[::-1]

    def test_inverse_rate_strictly_decreasing(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "maxrl", "--out", str(out)]) == 0
        weights = [float(l.split(",")[2]) for l in out.read_text().splitlines()[1:]]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_adaptive_scheme_requires_reference(self, tmp_path, capsys):
        assert main(["weights", "--scheme", "curve", "--out", str(tmp_path / "w.csv")]) == 2
        assert "--ref" in capsys.readouterr().err

    def test_curve_from_snapshot_recomputes_hazard(self, tmp_path):
        ref = distribution_from_rates([1 / 8, 2 / 8, 2 / 8, 5 / 8], 8)
        snap = tmp_path / "refdist.csv"
        write_csv(snap, REFERENCE_CSV_HEADER,
                  reference_csv_columns([0], [[1, 2, 0, 0, 1, 0, 0]]))
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "curve", "--ref", str(snap),
                     "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            _, p_s, w_s, _ = line.split(",")
            p, w = float(p_s), float(w_s)
            assert abs(w - ref.density_at(p) / ref.cdf_at(p)) <= 1e-12

    def test_entropic_scheme_with_parameter(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "entropic_risk:eta=2.0", "--out", str(out)]) == 0

    def test_snapshot_grid_mismatch_rejected(self, tmp_path, capsys):
        snap = tmp_path / "refdist.csv"
        write_csv(snap, REFERENCE_CSV_HEADER, reference_csv_columns([0], [[0, 0, 0, 1, 0, 0, 0]]))
        assert main(["weights", "--scheme", "curve", "--ref", str(snap),
                     "--n-rollouts", "16", "--out", str(tmp_path / "w.csv")]) == 2
        assert "N=8" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", BAD_SCHEME_PARAMS)
    def test_bad_scheme_parameter_names_it(self, tmp_path, capsys, spec, field):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", spec, "--out", str(out)]) == 2
        assert f"scheme.{field} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, text", [
        ("grpo:eta=1", "unknown keys ['eta']"),
        ("reinforce:reference=uniform", "unknown keys ['reference']"),
        ("curve:lam=0.5", "unknown keys ['lam']"),
        ("entropic_risk:eta=2,eta=3", "'eta' is given twice"),
    ])
    def test_scheme_parameter_the_scheme_does_not_take_names_it(self, tmp_path, capsys,
                                                               spec, text):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", spec, "--ref", "uniform", "--out", str(out)]) == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_grid_names_n_rollouts(self, tmp_path, capsys):
        # a grid no machine can map, so the allocation fails before any page is touched
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "maxrl", "--n-rollouts", str(10**15),
                     "--out", str(out)]) == 2
        assert "n_rollouts=1000000000000000: the weight grid is too large to allocate" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_unallocatable_uniform_reference_grid_names_n_rollouts(self, tmp_path, capsys):
        # --ref uniform builds no grid before the weight table's guarded one
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "curve", "--ref", "uniform",
                     "--n-rollouts", str(10**15), "--out", str(out)]) == 2
        assert "n_rollouts=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_too_few_rollouts_rejected(self, tmp_path, capsys, n):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "maxrl", "--n-rollouts", n, "--out", str(out)]) == 2
        assert "n_rollouts must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_snapshot_cell_rejected(self, tmp_path, capsys):
        snap = tmp_path / "refdist.csv"
        write_csv(snap, REFERENCE_CSV_HEADER,
                  reference_csv_columns([0], [[0, 0, 0, 1, 0, 0, 0]]))
        lines = snap.read_text().splitlines()
        step, grid, mass, _, dens = lines[1].split(",")
        lines[1] = ",".join([step, grid, mass, "nan", dens])
        snap.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "curve", "--ref", str(snap),
                     "--out", str(out)]) == 2
        assert "cdf must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["curve", "integrated_product"])
    def test_zero_cdf_snapshot_cell_rejected(self, tmp_path, capsys, scheme):
        # the weights divide by F and take its log
        snap = tmp_path / "refdist.csv"
        snap.write_text("step,grid_point,mass,cdf,density\n"
                        "0,0.25,0,0,0\n0,0.5,1,1,4\n0,0.75,0,1,0\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", scheme, "--ref", str(snap), "--n-rollouts", "4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{snap}: step 0, grid point 0.25: cdf must be > 0, got 0" in err
        assert not out.exists()

    def test_cdf_above_one_snapshot_cell_rejected(self, tmp_path, capsys):
        # no floored CDF exceeds 1, and the lookups would clamp the cell to 1
        snap = tmp_path / "refdist.csv"
        snap.write_text("step,grid_point,mass,cdf,density\n"
                        "0,0.25,0.5,0.5,2\n0,0.5,0.5,1.5,2\n0,0.75,0,1.5,0\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "curve", "--ref", str(snap), "--n-rollouts", "4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{snap}: step 0, grid point 0.5: cdf must be <= 1, got 1.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme, row", [
        ("curve", "0,0.25,0.5,1e-320,2"),  # subnormal F: f/F overflows
        ("integrated_product", "0,0.25,0.5,0.5,1e308"),  # f ln p / F overflows
    ])
    def test_non_finite_weight_names_grid_point(self, tmp_path, capsys, scheme, row):
        snap = tmp_path / "refdist.csv"
        snap.write_text("step,grid_point,mass,cdf,density\n"
                        f"{row}\n0,0.5,0.5,1,2\n0,0.75,0,1,0\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", scheme, "--ref", str(snap), "--n-rollouts", "4",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid point 0.25: weight must be finite and nonnegative, got inf" in err
        assert not out.exists()

    def test_overflowing_weight_prints_only_the_named_error(self, tmp_path):
        # in a fresh process, where numpy's warning would reach stderr
        import os
        import subprocess
        import sys
        from pathlib import Path

        snap = tmp_path / "refdist.csv"
        snap.write_text("step,grid_point,mass,cdf,density\n"
                        "0,0.25,0.5,1e-320,2\n0,0.5,0.5,1,2\n0,0.75,0,1,0\n")
        src = Path(__file__).resolve().parents[1] / "src"
        run = ("import sys; from curverl.cli import main; "
               "sys.exit(main(['weights', '--scheme', 'curve', '--ref', sys.argv[1], "
               "'--n-rollouts', '4', '--out', sys.argv[2]]))")
        done = subprocess.run([sys.executable, "-c", run, str(snap), str(tmp_path / "w.csv")],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert "RuntimeWarning" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("curverl: invalid value: ")

    @pytest.mark.parametrize("row, message", [
        ("0,0.5,0.5,1", "expected 5 fields, got 4"),
        ("0,0.5,0.5,1,2,7", "expected 5 fields, got 6"),
        ("x,0.5,0.5,1,2", "step must be an integer, got 'x'"),
        ("0.0,0.5,0.5,1,2", "step must be an integer, got '0.0'"),
        ("0,0.5,abc,1,2", "mass must be a number, got 'abc'"),
        ("0,0.5,0.5,nan,2", "cdf must be finite and nonnegative, got nan"),
        ("0,0.5,0.5,1,inf", "density must be finite and nonnegative, got inf"),
        ("0,0.5,-0.5,1,2", "mass must be finite and nonnegative, got -0.5"),
        ("0,0.5,0.5,0.25,2", "cdf must be nondecreasing, got 0.25 after 0.5"),
    ])
    def test_bad_snapshot_cell_names_path_and_line(self, tmp_path, capsys, row, message):
        snap = tmp_path / "refdist.csv"
        snap.write_text("step,grid_point,mass,cdf,density\n"
                        f"0,0.25,0.5,0.5,2\n{row}\n0,0.75,0,1,0\n")
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", "curve", "--ref", str(snap), "--n-rollouts", "4",
                     "--out", str(out)]) == 2
        assert f"{snap}: line 3: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_pinned_uniform_reference_needs_no_ref(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["weights", "--scheme", "curve:reference=uniform", "--out", str(a)]) == 0
        assert main(["weights", "--scheme", "maxrl", "--out", str(b)]) == 0
        wa = [l.split(",", 1)[1] for l in a.read_text().splitlines()[1:]]
        wb = [l.split(",", 1)[1] for l in b.read_text().splitlines()[1:]]
        assert wa == wb

    @pytest.mark.parametrize("spec, why", [
        ("curve:reference=uniform", "pins reference='uniform'"),
        ("integrated_convex:lam=0.5,reference=uniform", "pins reference='uniform'"),
        ("maxrl", "reads no reference"),
    ])
    def test_ref_beside_a_scheme_that_does_not_read_it_rejected(self, tmp_path, capsys,
                                                                spec, why):
        out = tmp_path / "w.csv"
        assert main(["weights", "--scheme", spec, "--ref", "uniform", "--out", str(out)]) == 2
        assert f"--ref conflicts with scheme {spec!r}, which {why}" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_window_reference_reads_ref(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["weights", "--scheme", "curve:reference=window", "--ref", "uniform",
                     "--out", str(a)]) == 0
        assert main(["weights", "--scheme", "curve", "--ref", "uniform", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_curve_with_uniform_reference_matches_maxrl(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["weights", "--scheme", "curve", "--ref", "uniform", "--out", str(a)])
        main(["weights", "--scheme", "maxrl", "--out", str(b)])
        wa = [l.split(",", 1)[1] for l in a.read_text().splitlines()[1:]]
        wb = [l.split(",", 1)[1] for l in b.read_text().splitlines()[1:]]
        assert wa == wb


class TestCompare:
    def test_three_schemes(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=2))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--schemes", "reinforce", "maxrl", "curve"]) == 0
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == ["00_reinforce", "01_maxrl", "02_curve"]
        passk = (out / "compare.csv").read_text().splitlines()
        assert passk[0] == "scheme,k,mean_pass_at_k"
        assert len(passk) == 1 + 3 * 3  # 3 schemes x k in {1,2,4}
        buckets = (out / "compare_buckets.csv").read_text().splitlines()
        assert buckets[0] == "scheme,bucket,count"

    def test_needs_two_schemes(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(steps=1))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "c"),
                     "--schemes", "maxrl"]) == 2

    @pytest.mark.parametrize("spec, field", BAD_SCHEME_PARAMS)
    def test_bad_scheme_parameter_names_it(self, tmp_path, capsys, spec, field):
        path = write_config(tmp_path, config_doc(steps=1))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--schemes", "maxrl", spec]) == 2
        assert f"scheme.{field} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_scheme_runs_identically(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=2))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--schemes", "maxrl", "maxrl"]) == 0
        a = (out / "00_maxrl" / "train_log.csv").read_bytes()
        b = (out / "01_maxrl" / "train_log.csv").read_bytes()
        assert a == b

    def test_pinned_uniform_curve_matches_maxrl_logs(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=5))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--out", str(out),
                     "--schemes", "curve:reference=uniform", "maxrl"]) == 0
        a = (out / "00_curve" / "train_log.csv").read_text()
        b = (out / "01_maxrl" / "train_log.csv").read_text()
        # identical except for the scheme-name column
        assert a.replace("curve", "maxrl") == b
        assert (out / "00_curve" / "refdist.csv").read_bytes() == (
            out / "01_maxrl" / "refdist.csv"
        ).read_bytes()


class TestPatchedGlobals:
    def test_commands_call_the_cli_module_globals(self, tmp_path, monkeypatch):
        # curvebench times and traces a run by replacing these names in curverl.cli
        import curverl.cli as cli

        calls = []
        for name in ("run_training", "load_experiment_config", "write_training_artifacts",
                     "evaluate_policy"):
            def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
                result = _real(*args, **kwargs)
                calls.append((_name, args, result))
                return result

            monkeypatch.setattr(cli, name, spy)
        path = write_config(tmp_path, config_doc(steps=1))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        assert {name for name, _, _ in calls} == {
            "run_training", "load_experiment_config", "write_training_artifacts"}
        calls.clear()
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "c"),
                     "--schemes", "reinforce", "maxrl", "grpo"]) == 0
        assert {name for name, _, _ in calls} == {
            "run_training", "load_experiment_config", "write_training_artifacts",
            "evaluate_policy"}
        # each scheme's trained policy is evaluated once, after it trains
        trained = [result.theta for name, _, result in calls if name == "run_training"]
        evaluated = [args[0] for name, args, _ in calls if name == "evaluate_policy"]
        assert len(trained) == 3 and len(evaluated) == 3
        assert all(a is b for a, b in zip(evaluated, trained))
        order = [name for name, _, _ in calls if name in ("run_training", "evaluate_policy")]
        assert order == ["run_training", "evaluate_policy"] * 3
        calls.clear()
        assert main(["passk", "--config", str(path), "--out", str(tmp_path / "p")]) == 0
        assert [name for name, _, _ in calls] == ["load_experiment_config", "evaluate_policy"]


class TestPassK:
    def test_initial_policy_report(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=1))
        out = tmp_path / "pk"
        assert main(["passk", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "passk.csv").read_text().splitlines()
        assert rows[0] == "scheme,k,mean_pass_at_k"
        values = {int(r.split(",")[1]): float(r.split(",")[2]) for r in rows[1:]}
        assert set(values) == {1, 2, 4}
        assert values[1] <= values[2] <= values[4]
        buckets = (out / "passk_buckets.csv").read_text().splitlines()
        assert len(buckets) == 5

    # sizes no machine can map, so the allocation fails before any page is touched
    @pytest.mark.parametrize("section, field, names", [
        ("population", "size", ("size", "m")),
        ("population", "m", ("size", "m")),
    ])
    def test_unallocatable_population_or_pool_names_its_sizes(self, tmp_path, capsys,
                                                              section, field, names):
        doc = config_doc(steps=1)
        doc[section][field] = 10**15
        path = write_config(tmp_path, doc)
        assert main(["passk", "--config", str(path), "--out", str(tmp_path / "pk")]) == 2
        err = capsys.readouterr().err
        assert "too large to allocate" in err
        assert all(f"{name}=" in err for name in names)
        assert f"{field}=1000000000000000" in err

    def test_k_beyond_float_range_names_k_list(self, tmp_path, capsys):
        doc = config_doc(steps=1)
        doc["eval"]["k_list"] = [1, 10**400]
        path = write_config(tmp_path, doc)
        assert main(["passk", "--config", str(path), "--out", str(tmp_path / "pk")]) == 2
        assert "k_list" in capsys.readouterr().err
        assert not (tmp_path / "pk").exists()

    def test_report_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, config_doc(steps=1))
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["passk", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["passk", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "passk.csv").read_bytes() == (out2 / "passk.csv").read_bytes()
        assert (out1 / "passk_buckets.csv").read_bytes() == (
            out2 / "passk_buckets.csv"
        ).read_bytes()


class TestLogLevelEnv:
    def test_unknown_level_is_ignored_with_warning(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CURVERL_LOG_LEVEL", "blah")
        assert main(["verify", "corollary1"]) == 0
        assert "CURVERL_LOG_LEVEL" in capsys.readouterr().err


class TestImportPath:
    def test_cli_import_loads_no_scipy(self):
        # importing scipy.optimize costs about 0.4 s of every curverl process
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, curverl.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.strip() == "[]"

    def test_every_export_resolves(self):
        # a deleted definition must not leave its name in an __all__
        import importlib
        import pkgutil

        import curverl

        modules = [curverl] + [importlib.import_module(f"curverl.{info.name}")
                               for info in pkgutil.iter_modules(curverl.__path__)]
        assert len(modules) > 10
        missing = [f"{mod.__name__}.{name}" for mod in modules
                   for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == []
