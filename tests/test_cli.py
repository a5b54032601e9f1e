import json

import numpy as np
import pytest

from zubov import cli
from zubov import dynamics as dyn
from zubov import net as nn
from zubov import ode
from zubov import verify as vf


def run(*argv):
    return cli.run(list(argv))


@pytest.fixture(scope="module")
def cubic_run(tmp_path_factory):
    """gen-data + train on the scalar cubic; shared by downstream tests."""
    d = tmp_path_factory.mktemp("cubic")
    cfgfile = d / "run.json"
    cfgfile.write_text(json.dumps({
        "system": "cubic1d",
        "grid": [201],
        "train": {"alpha": 2.0, "psi_form": "exp", "hidden": [10, 10],
                  "max_epochs": 40, "pair_fraction": 0.05},
        "seed": 7,
        "out_dir": str(d),
    }))
    assert run("gen-data", "--config", str(cfgfile), "--out", str(d / "dataset.csv")) == 0
    assert run("train", "--config", str(cfgfile), "--data", str(d / "dataset.csv"),
               "--out-dir", str(d)) == 0
    return d, cfgfile


class TestGenData:
    def test_csv_and_meta(self, cubic_run):
        d, _ = cubic_run
        samples = ode.load_samples(d / "dataset.csv")
        assert len(samples) == 201
        meta = json.loads((d / "dataset.csv.meta.json").read_text())
        assert meta["rows"] == 201
        assert meta["config"]["system"] == "cubic1d"
        assert meta["seed"] == 7
        counts = meta["integrator"]
        assert sum(counts["status"].values()) == 201
        assert counts["status"]["converged"] == meta["converged"]
        assert counts["accepted_steps"] > 0 and counts["rejected_steps"] >= 0
        assert counts["workers"] == 1     # 201 rows stay in one process

    def test_grid_flag_overrides(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--system", "cubic1d", "--grid", "11",
                   "--out", str(out)) == 0
        assert len(ode.load_samples(out)) == 11

    def test_vdp_grid_row_count(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--system", "reversed_vdp", "--grid", "30x30",
                   "--out", str(out)) == 0
        assert len(ode.load_samples(out)) == 900

    def test_vdp_full_reference_grid(self, tmp_path):
        # the benchmark-scale lattice: 300 x 300 = 90,000 rows
        out = tmp_path / "d.csv"
        assert run("gen-data", "--system", "reversed_vdp", "--grid", "300x300",
                   "--out", str(out)) == 0
        with open(out) as fh:
            assert sum(1 for _ in fh) == 90_001


class TestTrain:
    def test_artifacts(self, cubic_run):
        d, _ = cubic_run
        net, alpha, psi = nn.load_mlp(d / "net.json")
        assert alpha == 2.0 and psi == "exp"
        assert net.layer_sizes == (1, 10, 10, 1)
        doc = json.loads((d / "net.json").read_text())
        assert doc["meta"]["config"]["train"]["max_epochs"] == 40
        assert (d / "train_record.csv").exists()

    def test_deterministic_net_file(self, cubic_run, tmp_path):
        d, cfgfile = cubic_run
        d2 = tmp_path / "again"
        assert run("train", "--config", str(cfgfile), "--data", str(d / "dataset.csv"),
                   "--out-dir", str(d2)) == 0
        assert (d / "net.json").read_bytes() == (d2 / "net.json").read_bytes()

    def test_seed_flag_changes_net(self, cubic_run, tmp_path):
        d, cfgfile = cubic_run
        d3 = tmp_path / "seeded"
        assert run("train", "--config", str(cfgfile), "--data", str(d / "dataset.csv"),
                   "--out-dir", str(d3), "--seed", "8") == 0
        assert (d / "net.json").read_bytes() != (d3 / "net.json").read_bytes()

    def test_rerun_from_embedded_config_reproduces(self, cubic_run, tmp_path):
        # the artifact carries its resolved config; replaying it from scratch
        # (including regenerating the data) must give the same bytes back
        d, _ = cubic_run
        doc = json.loads((d / "net.json").read_text())
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(doc["meta"]["config"]))
        assert run("gen-data", "--config", str(replay),
                   "--out", str(tmp_path / "dataset.csv")) == 0
        assert run("train", "--config", str(replay),
                   "--data", str(tmp_path / "dataset.csv"),
                   "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "net.json").read_bytes() == (d / "net.json").read_bytes()


    def test_band_off_runs_no_local_search(self, cubic_run, tmp_path, monkeypatch):
        # with "use_local_band": false the command searches no local level,
        # and its network is the one nn.train gives without local_P
        d, cfgfile = cubic_run
        searches, search = [], vf.find_max_local_c
        monkeypatch.setattr(vf, "find_max_local_c",
                            lambda *a, **k: searches.append(a) or search(*a, **k))
        doc = json.loads(cfgfile.read_text())
        doc["train"]["max_epochs"] = 3
        for band in (True, False):
            doc["train"]["use_local_band"] = band
            (tmp_path / "run.json").write_text(json.dumps(doc))
            assert run("train", "--config", str(tmp_path / "run.json"), "--data",
                       str(d / "dataset.csv"), "--out-dir", str(tmp_path / str(band))) == 0
        assert len(searches) == 1       # the run with the band on
        cfg = nn.TrainConfig(alpha=2.0, psi_form="exp", max_epochs=3, seed=7)
        data = nn.assemble_dataset(ode.load_samples(d / "dataset.csv"), cfg, pair_fraction=0.05,
                                   rng=np.random.default_rng(7))
        want, _ = nn.train(nn.init_mlp([1, 10, 10, 1], 7), data, dyn.builtin("cubic1d"), cfg)
        got = nn.load_mlp(tmp_path / "False" / "net.json")[0]
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()


class TestVerifyLocal:
    def test_vdp_certified_exit_zero(self, tmp_path):
        # the reference level 0.29 for the reversed Van der Pol certifies
        code = run("verify-local", "--system", "reversed_vdp", "--c", "0.29",
                   "--out-dir", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "local_cert.json").read_text())
        assert doc["outcome"]["status"] == "certified"
        assert doc["P"] == [[1.5, -0.5], [-0.5, 1.0]]
        assert doc["config"]["verify"]["r"] == 0.9999

    def test_falsified_exit_three(self, tmp_path):
        code = run("verify-local", "--system", "poly2d", "--c", "2.4",
                   "--out-dir", str(tmp_path))
        assert code == 3
        doc = json.loads((tmp_path / "local_cert.json").read_text())
        assert doc["outcome"]["status"] == "falsified"
        assert len(doc["outcome"]["witness"]) == 2

    def test_unknown_exit_four(self, tmp_path):
        # a budget too small to decide returns the inconclusive exit code
        code = run("verify-local", "--system", "reversed_vdp", "--c", "0.28",
                   "--budget", "3", "--out-dir", str(tmp_path))
        assert code == 4

    def test_search_mode(self, tmp_path):
        code = run("verify-local", "--system", "reversed_vdp",
                   "--out-dir", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "local_cert.json").read_text())
        assert 0.2 <= doc["c"] <= 0.5


class TestConfigErrors:
    def test_unknown_system(self):
        assert run("gen-data", "--system", "lorenz", "--out", "/tmp/x.csv") == 1

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sytem": "cubic1d"}))
        assert run("gen-data", "--config", str(bad), "--out", str(tmp_path / "x.csv")) == 1

    def test_unknown_nested_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"alpha": 0.1, "warmup": 5}}))
        assert run("gen-data", "--config", str(bad), "--out", str(tmp_path / "x.csv")) == 1

    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("gen-data", "--config", str(bad)) == 1

    def test_missing_subcommand_args(self):
        assert run("train") == 1

    def test_runtime_failure_exit_two(self, tmp_path):
        assert run("verify-roa", "--system", "reversed_vdp",
                   "--net", str(tmp_path / "missing.json")) == 2
        assert run("train", "--system", "cubic1d",
                   "--data", str(tmp_path / "missing.csv")) == 2

    def test_unknown_converged_flag_exit_two(self, cubic_run, tmp_path, capsys):
        d, cfgfile = cubic_run
        rows = (d / "dataset.csv").read_text().splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + ",maybe"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert run("train", "--config", str(cfgfile), "--data", str(bad),
                   "--out-dir", str(tmp_path)) == 2
        assert "line 6" in capsys.readouterr().err
        assert not (tmp_path / "net.json").exists()

    def test_inline_system_definition(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "system": {"name": "decay", "dim": 1, "components": ["-x1"],
                       "domain": [[-1, 1]]},
            "grid": [15],
        }))
        out = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 0
        assert len(ode.load_samples(out)) == 15


class TestBadInput:
    """Malformed input ends in its documented exit code, never a traceback."""

    @pytest.mark.parametrize("components", [["x2", "x3"], ["x1 +", "x2"], ["sin(x1)", "x2"],
                                            ["x1^2^3", "x2"], "x1", ["-" * 2000 + "x1", "x2"]])
    def test_malformed_inline_system_is_a_config_error(self, tmp_path, components):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "system": {"name": "bad", "dim": 2, "components": components,
                       "domain": [[-1, 1], [-1, 1]]},
            "grid": [3, 3],
        }))
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 1
        assert not (tmp_path / "d.csv").exists()

    def test_inline_system_without_domain(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": {"name": "bad", "dim": 1, "components": ["-x1"]}}))
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 1

    @pytest.mark.parametrize("section, key, value", [
        ("verify", "delta", "x"), ("integrator", "rtol", "x"), ("train", "lr", "x"),
        ("train", "batch", True), ("verify", "budget", None), ("integrator", "t_max", [1]),
    ])
    def test_non_numeric_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "cubic1d", section: {key: value}}))
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 1
        assert f"{section}.{key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [["--c1", "0.02"], ["--c2", "0.7"]])
    def test_verify_roa_needs_both_levels_or_neither(self, cubic_run, level):
        d, _ = cubic_run
        assert run("verify-roa", "--system", "cubic1d", "--net", str(d / "net.json"),
                   *level) == 1

    def test_empty_dataset_is_a_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("train", "--system", "cubic1d", "--data", str(empty),
                   "--out-dir", str(tmp_path)) == 2
        assert "empty.csv" in capsys.readouterr().err

    def test_header_only_dataset_names_its_file(self, tmp_path, capsys, recwarn):
        data = tmp_path / "header.csv"
        data.write_text("x1,v_hat,w_hat,converged\n")
        assert run("train", "--system", "cubic1d", "--data", str(data),
                   "--out-dir", str(tmp_path)) == 2
        assert "header.csv: no data rows" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("section, key, value", [
        ("verify", "delta", "NaN"), ("verify", "r", "Infinity"), ("integrator", "rtol", "NaN"),
        ("train", "lr", "-Infinity"), ("verify", "budget", "NaN"),
    ])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "run.json"
        # json.dumps cannot write these, but json.load reads them
        cfg.write_text(f'{{"system": "cubic1d", "{section}": {{"{key}": {value}}}}}')
        assert run("verify-local", "--config", str(cfg), "--c", "0.2",
                   "--out-dir", str(tmp_path)) == 1
        assert f"{section}.{key} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "local_cert.json").exists()

    @pytest.mark.parametrize("system", ["reversed_vdp", "poly2d"])
    @pytest.mark.parametrize("c", ["inf", "nan", "-1"])
    def test_level_outside_zero_inf_is_a_runtime_error(self, tmp_path, capsys, system, c):
        assert run("verify-local", "--system", system, f"--c={c}",
                   "--out-dir", str(tmp_path)) == 2
        assert "c positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "local_cert.json").exists()

    def test_non_finite_flag_is_a_config_error(self, tmp_path):
        assert run("verify-local", "--system", "cubic1d", "--c", "0.2", "--delta", "nan",
                   "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("key, text", [
        ("grid", "[3.9]"), ("grid", "[NaN]"), ("grid", "[Infinity]"), ("grid", "[true]"),
        ("grid", '"3.9"'), ("grid", "[null]"), ("hidden", "[2.9]"), ("hidden", "[NaN, 4]"),
        ("hidden", "[4, false]"),
    ])
    def test_count_that_is_not_a_whole_number_is_a_config_error(self, tmp_path, capsys,
                                                               key, text):
        # int() would cut 3.9 to a 3-point lattice and 2.9 to a width-2
        # layer, and fail on NaN with a runtime error
        section = f'"train": {{"hidden": {text}}}' if key == "hidden" else f'"grid": {text}'
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"system": "cubic1d", {section}}}')
        data = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 1
        assert not data.exists()
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out-dir", str(tmp_path)) == 1
        assert not (tmp_path / "net.json").exists()
        err = capsys.readouterr().err
        assert err.count(f"{'train.hidden' if key == 'hidden' else 'grid'} must be whole") == 2

    @pytest.mark.parametrize("grid", ["3.9", "nan", "4x2.5", "inf", "-3", "True"])
    def test_grid_flag_that_is_not_whole_is_a_config_error(self, tmp_path, grid):
        assert run("gen-data", "--system", "cubic1d", "--grid", grid,
                   "--out", str(tmp_path / "d.csv")) == 1

    @pytest.mark.parametrize("key, text", [
        ("grid", "[1]"), ("grid", "[0]"), ("hidden", "[0]"), ("hidden", "[4, 0]"),
    ])
    def test_count_below_its_meaning_is_a_config_error(self, tmp_path, capsys, key, text):
        # a hidden layer of no units makes W_N ignore x, and a lattice axis
        # needs two points; both used to run (exit 0) or fail late (exit 2)
        section = f'"train": {{"hidden": {text}}}' if key == "hidden" else f'"grid": {text}'
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"system": "cubic1d", {section}}}')
        data = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 1
        assert not data.exists()
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out-dir", str(tmp_path)) == 1
        assert not (tmp_path / "net.json").exists()
        err = capsys.readouterr().err
        what = "train.hidden must be at least 1" if key == "hidden" else "grid must be at least 2"
        assert err.count(f"{what}, got {json.loads(text)!r}") == 2

    @pytest.mark.parametrize("system, grid", [("cubic1d", "1"), ("cubic1d", "0"),
                                              ("reversed_vdp", "5x1")])
    def test_grid_flag_below_two_is_a_config_error(self, tmp_path, capsys, system, grid):
        assert run("gen-data", "--system", system, "--grid", grid,
                   "--out", str(tmp_path / "d.csv")) == 1
        assert "grid must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_whole_float_counts_are_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "cubic1d", "grid": [5.0],
                                   "train": {"hidden": [3.0], "max_epochs": 1}}))
        data = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 0
        assert len(ode.load_samples(data)) == 5
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out-dir", str(tmp_path)) == 0
        assert nn.load_mlp(tmp_path / "net.json")[0].layer_sizes == (1, 3, 1)


class TestGridCommand:
    def test_lattice_csv(self, cubic_run, tmp_path):
        d, _ = cubic_run
        out = tmp_path / "w.csv"
        assert run("grid", "--system", "cubic1d", "--net", str(d / "net.json"),
                   "--grid", "21", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,W"
        assert len(lines) == 22
        net, _, _ = nn.load_mlp(d / "net.json")
        x0, w0 = [float(v) for v in lines[1].split(",")]
        assert w0 == pytest.approx(net.value_batch([[x0]])[0], abs=1e-12)

    def test_dimension_mismatch(self, cubic_run, tmp_path):
        d, _ = cubic_run
        assert run("grid", "--system", "reversed_vdp", "--net", str(d / "net.json"),
                   "--grid", "9x9", "--out", str(tmp_path / "w.csv")) == 1


class TestReport:
    def test_aggregates_row(self, cubic_run):
        d, _ = cubic_run
        assert run("report", str(d)) == 0
        doc = json.loads((d / "report.json").read_text())
        row = doc["row"]
        assert row["layers"] == 2 and row["width"] == 10
        assert row["params"] == 141  # 1-10-10-1 dense stack
        assert row["epochs"] == 40
        assert row["final_loss"] is not None
        assert row["data_gen_seconds"] is not None
        assert doc["config"]["seed"] == 7

    def test_prints_the_integrator_counts(self, cubic_run, capsys):
        d, _ = cubic_run
        assert run("report", str(d)) == 0
        counts = json.loads((d / "dataset.csv.meta.json").read_text())["integrator"]
        row = json.loads((d / "report.json").read_text())["row"]
        assert row["integrator"] == counts
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"integrator: {counts['accepted_steps']} accepted and "
                               f"{counts['rejected_steps']} rejected steps;")
        for name, n in counts["status"].items():
            assert f"{n} {name}" in line
        assert line.endswith("; workers: 1")
        assert counts["status"]["converged"] > 0

    def test_missing_net_is_config_error(self, tmp_path):
        assert run("report", str(tmp_path)) == 1
