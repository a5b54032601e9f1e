import json
import os
from pathlib import Path

import numpy as np
import pytest

from zubov import cli
from zubov import dynamics as dyn
from zubov import net as nn
from zubov import ode
from zubov import shares
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
        # and its network is the one nn.train gives without c_local
        d, cfgfile = cubic_run
        searches, search = [], vf.find_max_local_c

        def spied(*a, **k):
            searches.append(a)
            return search(*a, **k)

        monkeypatch.setattr(vf, "find_max_local_c", spied)
        doc = json.loads(cfgfile.read_text())
        doc["train"]["max_epochs"] = 3
        for band in (True, False):
            doc["train"]["use_local_band"] = band
            (tmp_path / "run.json").write_text(json.dumps(doc))
            assert run("train", "--config", str(tmp_path / "run.json"), "--data",
                       str(d / "dataset.csv"), "--out-dir", str(tmp_path / str(band))) == 0
        assert len(searches) == 1      # the run with the band on
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

    # the last three are undefined at the origin: f(0) is -inf, inf and NaN
    @pytest.mark.parametrize("components", [["x2", "x3"], ["x1 +", "x2"], ["sin(x1)", "x2"],
                                            ["x1^2^3", "x2"], "x1", ["-" * 2000 + "x1", "x2"],
                                            ["ln(x1)", "x2"], ["1/x1", "x2"], ["0/x1", "x2"]])
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

    @pytest.mark.parametrize("dim", [1, 3])
    def test_dataset_of_another_dimension_is_a_config_error(self, cubic_run, tmp_path, capsys,
                                                            dim):
        # a 1-D dataset raised an IndexError in the field's evaluation, a
        # 3-D one ended in exit 2 with a numpy broadcast message
        data = cubic_run[0] / "dataset.csv"
        if dim == 3:
            data = tmp_path / "d3.csv"
            data.write_text("x1,x2,x3,v_hat,w_hat,converged\n" + "".join(
                f"0.{i},0.1,0.2,0.3,0.1,true\n" for i in range(1, 4)))
        assert run("train", "--system", "reversed_vdp", "--data", str(data),
                   "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: dataset {data} has {dim}-dimensional points")
        assert "dimension 2" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_verify_roa_data_of_another_dimension_is_a_config_error(self, cubic_run, tmp_path,
                                                                    capsys):
        # this ended in exit 2 with a matmul message, once the proofs were done
        net = Path(__file__).parents[1] / "bench" / "net_vdp.json"
        assert run("verify-roa", "--system", "reversed_vdp", "--net", str(net),
                   "--c1", "0.0224", "--c2", "0.74", "--data", str(cubic_run[0] / "dataset.csv"),
                   "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset ") and "1-dimensional" in err
        assert not (tmp_path / "roa_cert.json").exists()

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

    @pytest.mark.parametrize("fraction, code", [(1.5, 1), (-0.1, 1), (0, 0), (1, 0)])
    def test_pair_fraction_must_lie_in_zero_one(self, cubic_run, tmp_path, capsys,
                                                fraction, code):
        d, cfgfile = cubic_run
        doc = json.loads(cfgfile.read_text())
        doc["train"].update(pair_fraction=fraction, max_epochs=1)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert run("train", "--config", str(cfg), "--data", str(d / "dataset.csv"),
                   "--out-dir", str(tmp_path)) == code
        rejected = "train.pair_fraction must lie in [0, 1]" in capsys.readouterr().err
        assert rejected == (code == 1)
        assert (tmp_path / "net.json").exists() == (code == 0)

    @pytest.mark.parametrize("fault", ["no layers", "alpha null", "layers object",
                                       "layer_sizes int", "list root", "no psi_form",
                                       "psi_form foo", "alpha -1", "alpha 0", "alpha NaN",
                                       "alpha Infinity"])
    def test_malformed_network_file_is_a_runtime_error(self, tmp_path, capsys, fault):
        # a psi_form or alpha out of range loaded, and `report` then wrote
        # "alpha": NaN, which strict JSON readers refuse
        doc = json.loads((Path(__file__).parents[1] / "bench" / "net_vdp.json").read_text())
        if fault == "psi_form foo":
            doc["psi_form"] = "foo"
        elif fault.startswith("alpha "):
            doc["alpha"] = None if fault == "alpha null" else float(fault.split()[1])
        elif fault == "no layers":
            del doc["layers"]
        elif fault == "layers object":
            doc["layers"] = dict(enumerate(doc["layers"]))
        elif fault == "layer_sizes int":
            doc["layer_sizes"] = 2
        elif fault == "list root":
            doc = [doc]
        else:
            del doc["psi_form"]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify-roa", "--system", "reversed_vdp", "--net", str(path),
                      "--out-dir", str(tmp_path)],
                     ["report", str(tmp_path)],
                     ["grid", "--system", "reversed_vdp", "--net", str(path), "--grid", "3",
                      "--out", str(tmp_path / "w.csv")]):
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert err.splitlines() == [err.strip()] and err.startswith("error: network file ")
            assert str(path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]

    @pytest.mark.parametrize("top", [
        {"out_dir": 5}, {"seed": True}, {"system": {"dim": 2.5}}, {"system": {"name": 5}},
        {"train": {"use_local_band": "no"}},
    ], ids=["out_dir 5", "seed true", "dim 2.5", "name 5", "use_local_band no"])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, top):
        # these raised a TypeError, ran as seed 1, ran in 2-D, took a number
        # for a name and trained with the hinge
        system = {"name": "decay", "dim": 2, "components": ["-x1", "-x2"],
                  "domain": [[-1, 1], [-1, 1]], **top.pop("system", {})}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": system, "grid": [3, 3], "out_dir": str(tmp_path),
                                   **top}))
        assert run("gen-data", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("section, key, value", [
        ("integrator", "rtol", -1), ("integrator", "stop_radius", 2), ("train", "alpha", -1),
        ("train", "lr", 0), ("train", "lambda_r", -1), ("verify", "r", -1),
        ("verify", "r", 1), ("verify", "r", 1.5), ("verify", "budget", 2.5),
        ("verify", "budget", True),
    ])
    def test_out_of_range_setting_is_a_config_error(self, tmp_path, capsys, section, key, value):
        # the settings' own types check their ranges, before any work: these
        # exited 2 ("error:") or ran.  Q is I, so r must lie below 1; a
        # budget of 2.5 stopped a proof after one box
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "cubic1d", "grid": [5], "out_dir": str(tmp_path),
                                   section: {key: value}}))
        assert run("gen-data", "--config", str(cfg)) == 1
        assert run("verify-local", "--config", str(cfg), "--c", "0.2") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("config error: ") for e in err), err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

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

    def test_whole_float_budget_is_a_count(self, tmp_path):
        # a float budget reached `shares.count`, whose share count (3.0 on
        # four cores) made `shares.run` raise TypeError, and the proof ran
        # in one process
        assert type(cli.resolve_config({"verify": {"budget": 1536.0}})["verify"]["budget"]) is int
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": "cubic1d", "grid": [5],
                                   "verify": {"budget": 1536.0}}))
        data = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 0
        text = (tmp_path / "d.csv.meta.json").read_text()
        assert type(json.loads(text)["config"]["verify"]["budget"]) is int, text


class TestNoLocalQuadratic:
    """x' = x2 - x1^3, y' = -x1 - x2^3: A = Df(0) is a rotation, so P A + A'P
    = -I is singular although the origin attracts through the cubic terms."""

    SYSTEM = {"name": "cubic_rotation", "dim": 2, "components": ["x2 - x1^3", "-x1 - x2^3"],
              "domain": [[-1, 1], [-1, 1]]}

    def test_trains_without_the_hinge_and_cannot_be_verified(self, tmp_path, capsys):
        doc = {"system": self.SYSTEM, "grid": [9, 9], "seed": 5, "out_dir": str(tmp_path),
               "integrator": {"t_max": 20.0}, "train": {"hidden": [6], "max_epochs": 3}}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        data = tmp_path / "dataset.csv"
        assert run("gen-data", "--config", str(cfg)) == 0
        assert run("train", "--config", str(cfg), "--data", str(data)) == 0
        # the network is the one nn.train gives without c_local
        sysdef = dyn.make_system(**self.SYSTEM)
        assert sysdef.lyapunov_P is None
        tc = nn.TrainConfig(max_epochs=3, seed=5)
        train = nn.assemble_dataset(ode.load_samples(data), tc, pair_fraction=0.01,
                                    rng=np.random.default_rng(5))
        want, _ = nn.train(nn.init_mlp([2, 6, 1], 5), train, sysdef, tc)
        got = nn.load_mlp(tmp_path / "net.json")[0]
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.tobytes() == b.tobytes()
        capsys.readouterr()
        for argv in (["verify-local", "--c", "0.1"], ["verify-local"],
                     ["verify-roa", "--net", str(tmp_path / "net.json")],
                     ["verify-roa", "--net", str(tmp_path / "net.json"),
                      "--c1", "0.1", "--c2", "0.5"]):
            assert run(*argv, "--config", str(cfg)) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: no local quadratic") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dataset.csv", "dataset.csv.meta.json", "net.json", "run.json", "train_record.csv"]


class TestLocalShare:
    """`verify-roa` runs the local search in a forked worker beside the
    network work when there are two cores, and first in this process when
    there is one: the files, exit codes and error lines must be the same
    either way.  `train` runs it here, before it reads the data, on any
    core count."""

    NET = str(Path(__file__).resolve().parents[1] / "bench" / "net_vdp.json")
    VDP = ["--system", "reversed_vdp"]

    @pytest.fixture(scope="class")
    def lattice(self, tmp_path_factory):
        """A 12x12 reversed VdP dataset and a config that trains on it for 2 epochs."""
        d = tmp_path_factory.mktemp("lattice")
        cfg = d / "run.json"
        cfg.write_text(json.dumps({"system": "reversed_vdp", "grid": [12, 12], "seed": 3,
                                   "train": {"hidden": [6, 6], "max_epochs": 2}}))
        assert run("gen-data", "--config", str(cfg), "--out", str(d / "data.csv")) == 0
        return d

    def both(self, monkeypatch, capsys, tmp_path, *argv):
        """(exit code, stderr, out dir, local search ran in a worker) of
        ``argv`` with `shares.count` pinned to 1 and then to 2."""
        pids, search = tmp_path / "pids", vf.find_max_local_c

        def spied(*a, **k):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return search(*a, **k)

        monkeypatch.setattr(vf, "find_max_local_c", spied)
        got = []
        for w in (1, 2):
            monkeypatch.setattr(shares, "count", lambda units: min(units, w))
            pids.write_text("")
            out = tmp_path / f"w{w}"
            code = run(*argv, "--out-dir", str(out))
            searched = pids.read_text().split()
            worker = bool(searched) and str(os.getpid()) not in searched
            got.append((code, capsys.readouterr().err, out, worker))
        return got

    @staticmethod
    def timeless(path):
        """The certificate without its timings."""
        def drop(d):
            if isinstance(d, dict):
                return {k: drop(v) for k, v in d.items() if k != "seconds"}
            return [drop(v) for v in d] if isinstance(d, list) else d
        return drop(json.loads(path.read_text()))

    @pytest.mark.parametrize("levels", [["--c1", "0.0224", "--c2", "0.74"], ["--data"]],
                             ids=["fixed", "search"])
    def test_same_certificate(self, monkeypatch, capsys, tmp_path, lattice, levels):
        if levels == ["--data"]:
            levels = ["--data", str(lattice / "data.csv")]
        one, two = self.both(monkeypatch, capsys, tmp_path, "verify-roa", *self.VDP,
                             "--net", self.NET, *levels)
        assert one[0] == two[0] == 0 and (one[3], two[3]) == (False, True)
        cert = self.timeless(one[2] / "roa_cert.json")
        assert cert == self.timeless(two[2] / "roa_cert.json")
        assert cert["certified"] and cert["local"]["c"] == 0.29633449018001484
        if "--data" in levels:
            assert cert["c2"] == 0.7497061125944957 and cert["volume_percent"] is not None

    def test_same_network(self, monkeypatch, capsys, tmp_path, lattice):
        one, two = self.both(monkeypatch, capsys, tmp_path, "train",
                             "--config", str(lattice / "run.json"),
                             "--data", str(lattice / "data.csv"))
        assert one[0] == two[0] == 0 and (one[3], two[3]) == (False, False)
        assert (one[2] / "net.json").read_bytes() == (two[2] / "net.json").read_bytes()
        records = [(d / "train_record.csv").read_text().split("wall_time_s")[0]
                   for d in (one[2], two[2])]
        assert records[0] == records[1] and "stop_reason,max_epochs" in records[0]
        # the network trained with the hinge of the searched local level
        sysdef = dyn.builtin("reversed_vdp")
        local = vf.find_max_local_c(sysdef, 0.9999)
        tc = nn.TrainConfig(max_epochs=2, seed=3, c_local=local.c)
        data = nn.assemble_dataset(ode.load_samples(lattice / "data.csv"), tc,
                                   pair_fraction=0.01, rng=np.random.default_rng(3))
        want, _ = nn.train(nn.init_mlp([2, 6, 6, 1], 3), data, sysdef, tc)
        got = nn.load_mlp(two[2] / "net.json")[0]
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(got.weights + got.biases, want.weights + want.biases))

    def test_train_searches_before_it_reads_the_data(self, monkeypatch, capsys, tmp_path,
                                                     lattice):
        # a one-box budget stops the local search before the malformed
        # dataset is read, on any core count
        (tmp_path / "bad.csv").write_text("x1,x2\n")
        for code, err, out, worker in self.both(
                monkeypatch, capsys, tmp_path, "train", "--config", str(lattice / "run.json"),
                "--data", str(tmp_path / "bad.csv"), "--budget", "1"):
            assert code == 4 and not worker, (code, err)
            assert err.startswith("verification budget exhausted: ") and err.count("\n") == 1
            assert not (out / "net.json").exists()

    # decay: x' = -x, whose ellipsoid covers the domain, so c1 = 0.1893 lies
    # above the network's least value on the faces, 0.0875
    DECAY = {"name": "decay", "dim": 2, "components": ["-x1", "-x2"],
             "domain": [[-1, 1], [-1, 1]]}

    @pytest.mark.parametrize("system, argv, code, err", [
        (TestNoLocalQuadratic.SYSTEM, [], 2, "error: no local quadratic"),
        (TestNoLocalQuadratic.SYSTEM, ["--c1", "0.1", "--c2", "0.5"], 2,
         "error: no local quadratic"),
        (DECAY, [], 4, "level search failed: no c2 in (0.1893, 1)"),
        (DECAY, ["--data", "bad.csv"], 4, "level search failed: no c2 in (0.1893, 1)"),
        (DECAY, ["--data", "line.csv"], 4, "level search failed: no c2 in (0.1893, 1)"),
        ("reversed_vdp", ["--data", "bad.csv"], 2, "error: "),
        ("reversed_vdp", ["--data", "line.csv"], 1, "config error: dataset "),
        # the local search stops at the budget; the decrease proof is falsified
        ("reversed_vdp", ["--c1", "0.0224", "--c2", "0.8", "--budget", "1000"], 4,
         "verification budget exhausted: branch-and-bound budget exhausted after 879 "),
        ("reversed_vdp", ["--budget", "300"], 4,
         "verification budget exhausted: branch-and-bound budget exhausted after 275 "),
        # the decrease search, dealt into two groups after 891 boxes, runs
        # out in its first group, or in its second once the first has ended
        # at 8,152; the message counts the whole search, not one group
        ("reversed_vdp", ["--budget", "5000"], 4, "verification budget exhausted: "
         "branch-and-bound budget exhausted after 4744 boxes (923 still pending)"),
        ("reversed_vdp", ["--budget", "10000"], 4, "verification budget exhausted: "
         "branch-and-bound budget exhausted after 9961 boxes (1222 still pending)"),
    ], ids=["no quadratic, search", "no quadratic, fixed", "faces below c1",
            "faces below c1, bad data", "faces below c1, 1-D data", "bad data", "1-D data",
            "budget, fixed", "budget, search",
            "budget, first group", "budget, second group"])
    def test_same_error(self, monkeypatch, capsys, tmp_path, system, argv, code, err):
        (tmp_path / "bad.csv").write_text("x1,x2\n")
        (tmp_path / "line.csv").write_text("x1,v_hat,w_hat,converged\n0.1,0.2,0.1,true\n")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": system}))
        one, two = self.both(monkeypatch, capsys, tmp_path, "verify-roa", "--config", str(cfg),
                             "--net", self.NET, *argv)
        assert one[:2] == two[:2]
        assert one[0] == code and one[1].startswith(err) and one[1].count("\n") == 1, one
        assert not (one[2] / "roa_cert.json").exists()

    def test_trains_without_the_hinge_either_way(self, monkeypatch, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"system": TestNoLocalQuadratic.SYSTEM, "grid": [7, 7],
                                   "seed": 5, "integrator": {"t_max": 20.0},
                                   "train": {"hidden": [4], "max_epochs": 2}}))
        data = tmp_path / "data.csv"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 0
        one, two = self.both(monkeypatch, capsys, tmp_path, "train", "--config", str(cfg),
                             "--data", str(data))
        assert one[:2] == two[:2] and one[0] == 0
        assert (one[2] / "net.json").read_bytes() == (two[2] / "net.json").read_bytes()
        tc = nn.TrainConfig(max_epochs=2, seed=5)
        train = nn.assemble_dataset(ode.load_samples(data), tc, pair_fraction=0.01,
                                    rng=np.random.default_rng(5))
        want, _ = nn.train(nn.init_mlp([2, 4, 1], 5), train,
                           dyn.make_system(**TestNoLocalQuadratic.SYSTEM), tc)
        got = nn.load_mlp(one[2] / "net.json")[0]
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(got.weights + got.biases, want.weights + want.biases))


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

    @pytest.mark.parametrize("name, doc", [
        ("roa_cert.json", {"certified": True}), ("roa_cert.json", [1, 2]),
        ("roa_cert.json", "{"), ("dataset.csv.meta.json", []),
        ("dataset.csv.meta.json", {"gen_seconds": 1.0}),
        ("dataset.csv.meta.json", {"gen_seconds": 1.0, "integrator": {"status": {}}}),
        ("dataset.csv.meta.json", {"gen_seconds": 1.0, "integrator": {
            "accepted_steps": 1, "rejected_steps": 0, "status": []}}),
        ("net.json", 5), ("net.json", {"seed": 1}),
        ("train_record.csv", b"epoch,total\n1,0.5\n\nstop_reason,epochs\nwall_time_s\n"),
        ("train_record.csv", b"epoch,total,residual,boundary,data\n1,abc,0,0,0\n"),
        ("train_record.csv", b"epoch,total\n1,0.5\xff\n"),
        ("roa_cert.json", b'{"seconds": 1.0, "certified": true, "c2": 0.5}\xff'),
    ], ids=["roa without c2", "roa list", "roa not json", "meta list", "meta without integrator",
            "integrator without counts", "status list", "net meta int",
            "net meta without config", "wall time without a value", "loss not a number",
            "record not utf-8", "roa not utf-8"])
    def test_malformed_artifact_is_a_runtime_error(self, cubic_run, tmp_path, capsys, name, doc):
        # the first two raised a KeyError and an AttributeError, and the
        # wall time without a value an IndexError; `report` read the next
        # seven as missing values, and the last three exited 2 with an
        # error that did not name the file
        for f in ("net.json", "dataset.csv.meta.json", "train_record.csv"):
            (tmp_path / f).write_bytes((cubic_run[0] / f).read_bytes())
        path = tmp_path / name
        if name == "net.json":      # the net's own `meta`
            doc = {**json.loads(path.read_text()), "meta": doc}
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert run("report", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err
        assert not (tmp_path / "report.json").exists()
