"""Command-line surface: config layering, the full pipeline, artifact shapes."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

import crossdiff.data as data_mod
from crossdiff import cli, evaluation
from crossdiff.data import load_split
from crossdiff.cli import (
    CONFIG_SCHEMA,
    _coerce,
    _load_config_file,
    build_parser,
    main,
    resolve_config,
)

from conftest import edit_json_line


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigLayers:
    def test_coercion(self):
        assert _coerce("epochs", "25") == 25
        assert _coerce("lr", "3e-4") == 3e-4
        assert _coerce("n_negatives", "none") is None
        assert _coerce("n_steps", "auto") is None
        assert _coerce("grad_clip", "5.0") == 5.0

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            _coerce("learning_rate", "0.1")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="expects"):
            _coerce("epochs", "ten")

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nepochs = 7\nlr=0.01  # trailing\n\nd=32\n")
        cfg = _load_config_file(str(path))
        assert cfg == {"epochs": 7, "lr": 0.01, "d": 32}

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs\n")
        with pytest.raises(ValueError, match="key=value"):
            _load_config_file(str(path))

    def test_precedence_chain(self, tmp_path, monkeypatch):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("epochs=11\nlr=0.5\nd=64\nbatch_size=9\n")
        monkeypatch.setenv("CROSSDIFF_LR", "0.25")
        monkeypatch.setenv("CROSSDIFF_D", "48")
        parser = build_parser()
        args = parser.parse_args(["synth", "--out", "x",
                                  "--config", str(cfile),
                                  "--set", "d=32", "--seed", "77"])
        cfg = resolve_config(args)
        assert cfg["epochs"] == 11          # file beats default
        assert cfg["lr"] == 0.25            # env beats file
        assert cfg["d"] == 32               # --set beats env
        assert cfg["seed"] == 77            # dedicated flag wins
        assert cfg["batch_size"] == 9
        assert cfg["warmup_epochs"] == CONFIG_SCHEMA["warmup_epochs"][0]

    def test_env_rejects_bad_key_value(self, monkeypatch):
        monkeypatch.setenv("CROSSDIFF_EPOCHS", "many")
        parser = build_parser()
        args = parser.parse_args(["synth", "--out", "x"])
        with pytest.raises(ValueError, match="expects"):
            resolve_config(args)

    @pytest.mark.parametrize("name", ["CROSSDIFF_EPOCH", "CROSSDIFF_BETA1", "CROSSDIFF_lr"])
    def test_env_rejects_unknown_variable(self, monkeypatch, name):
        # a misspelled, removed or lower-case key would otherwise be ignored
        monkeypatch.setenv("CROSSDIFF_EPOCHS", "3")
        monkeypatch.setenv(name, "0.5")
        args = build_parser().parse_args(["synth", "--out", "x"])
        with pytest.raises(ValueError, match="environment variable %s names no config key"
                           % name):
            resolve_config(args)

    def test_unknown_variable_stops_the_command(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("CROSSDIFF_EPOCH", "3")
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out)]) == 1
        assert "error: environment variable CROSSDIFF_EPOCH" in capsys.readouterr().err
        assert not out.exists()

    def test_set_requires_equals(self):
        parser = build_parser()
        args = parser.parse_args(["synth", "--out", "x", "--set", "epochs"])
        with pytest.raises(ValueError, match="key=value"):
            resolve_config(args)


SMALL = ["--set", "n_users=14", "--set", "n_items_x=30", "--set", "n_items_y=30",
         "--set", "seq_min=8", "--set", "seq_max=12", "--set", "n_shared=3",
         "--set", "n_specific=1"]
TINY_MODEL = ["--set", "d=8", "--set", "n_heads=2", "--set", "enc_layers=1",
              "--set", "dec_layers=1", "--set", "diffusion_steps=6",
              "--set", "epochs=2", "--set", "warmup_epochs=1",
              "--set", "batch_size=64", "--set", "n_negatives=12"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> prepare -> train chain shared by the artifact tests."""
    base = tmp_path_factory.mktemp("cli")
    data = str(base / "data")
    split = str(base / "split")
    run = str(base / "run")
    assert main(["synth", "--out", data, "--seed", "3"] + SMALL) == 0
    assert main(["prepare", "--input", os.path.join(data, "events.tsv"),
                 "--out", split]) == 0
    assert main(["train", "--data", split, "--out", run,
                 "--seed", "3"] + TINY_MODEL) == 0
    return {"base": base, "data": data, "split": split, "run": run}


class TestSynth:
    def test_outputs_and_determinism(self, pipeline, tmp_path):
        data = pipeline["data"]
        for name in ("events.tsv", "ground_truth.json", "run_manifest.json"):
            assert os.path.isfile(os.path.join(data, name))
        again = str(tmp_path / "again")
        assert main(["synth", "--out", again, "--seed", "3"] + SMALL) == 0
        assert file_bytes(os.path.join(again, "events.tsv")) == \
            file_bytes(os.path.join(data, "events.tsv"))
        other = str(tmp_path / "other")
        assert main(["synth", "--out", other, "--seed", "4"] + SMALL) == 0
        assert file_bytes(os.path.join(other, "events.tsv")) != \
            file_bytes(os.path.join(data, "events.tsv"))

    def test_row_count_matches_users(self, pipeline):
        with open(os.path.join(pipeline["data"], "events.tsv")) as fh:
            rows = fh.read().strip("\n").split("\n")[1:]
        users = {r.split("\t")[0] for r in rows}
        assert len(users) == 14
        lengths = {}
        for r in rows:
            lengths[r.split("\t")[0]] = lengths.get(r.split("\t")[0], 0) + 1
        assert all(8 <= n <= 12 for n in lengths.values())
        assert len(rows) == sum(lengths.values())


class TestPrepare:
    def test_split_artifacts(self, pipeline):
        split = pipeline["split"]
        for name in ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl",
                     "stats.json", "run_manifest.json"):
            assert os.path.isfile(os.path.join(split, name))
        with open(os.path.join(split, "stats.json")) as fh:
            stats = json.load(fh)
        assert stats["n_users_total"] == 14
        assert stats["n_users_kept"] == stats["n_users_total"] \
            - stats["dropped_by_total_threshold"] \
            - stats["dropped_by_domain_threshold"]

    def test_filter_flag_beats_config(self, pipeline, tmp_path):
        out = str(tmp_path / "loose")
        rc = main(["prepare", "--input",
                   os.path.join(pipeline["data"], "events.tsv"),
                   "--out", out, "--min-interactions", "1"])
        assert rc == 0
        with open(os.path.join(out, "stats.json")) as fh:
            stats = json.load(fh)
        assert stats["dropped_by_total_threshold"] == 0

    def test_manifest_hashes_input(self, pipeline):
        with open(os.path.join(pipeline["split"], "run_manifest.json")) as fh:
            manifest = json.load(fh)
        events = os.path.join(pipeline["data"], "events.tsv")
        assert manifest["command"] == "prepare"
        assert manifest["inputs"][events] == cli._sha256(events)

    def test_filters_once(self, pipeline, tmp_path, monkeypatch):
        calls = []
        real = data_mod.filter_and_split_with_stats

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # the filter loop is written once, in filter_and_split_with_stats,
        # which filter_and_split also calls
        monkeypatch.setattr(data_mod, "filter_and_split_with_stats", spy)
        monkeypatch.setattr(cli, "filter_and_split_with_stats", spy)
        out = str(tmp_path / "again")
        assert main(["prepare", "--input", os.path.join(pipeline["data"], "events.tsv"),
                     "--out", out]) == 0
        assert len(calls) == 1
        for name in ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl", "stats.json"):
            assert file_bytes(os.path.join(out, name)) == \
                file_bytes(os.path.join(pipeline["split"], name)), name

    def test_missing_input_exit_code(self, tmp_path, capsys):
        rc = main(["prepare", "--input", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "nope.tsv" in capsys.readouterr().err

    def test_input_that_is_a_directory(self, tmp_path, capsys):
        rc = main(["prepare", "--input", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestTrain:
    def test_run_artifacts(self, pipeline):
        run = pipeline["run"]
        for name in ("history.csv", "run_manifest.json"):
            assert os.path.isfile(os.path.join(run, name))
        for sub in ("latest", "best"):
            assert os.path.isfile(os.path.join(run, sub, "manifest.json"))
            assert os.path.isfile(os.path.join(run, sub, "params.bin"))
            assert os.path.isfile(os.path.join(run, sub, "optimizer.bin"))
        with open(os.path.join(run, "history.csv")) as fh:
            assert fh.readline() == "epoch,stage,l_diff,l_rec,l_tri_cl,l_total,val_ndcg10\n"
        rows = read_csv(os.path.join(run, "history.csv"))
        assert [r["stage"] for r in rows] == ["warmup", "main"]
        assert float(rows[1]["l_total"]) > 0
        assert rows[1]["val_ndcg10"] != ""

    def test_resume_of_finished_run_is_noop(self, pipeline):
        run = pipeline["run"]
        before = file_bytes(os.path.join(run, "latest", "params.bin"))
        hist_before = file_bytes(os.path.join(run, "history.csv"))
        rc = main(["train", "--data", pipeline["split"], "--out", run,
                   "--resume", "--seed", "3"] + TINY_MODEL)
        assert rc == 0
        assert file_bytes(os.path.join(run, "latest", "params.bin")) == before
        assert file_bytes(os.path.join(run, "history.csv")) == hist_before

    def test_resume_without_checkpoint_fails(self, pipeline, tmp_path, capsys):
        rc = main(["train", "--data", pipeline["split"],
                   "--out", str(tmp_path / "fresh"), "--resume"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestEvalReports:
    def test_metrics_csv_schema(self, pipeline, tmp_path):
        out = str(tmp_path / "eval")
        rc = main(["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out,
                   "--set", "n_negatives=12"])
        assert rc == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert {r["domain"] for r in rows} == {"x", "y", "overall"}
        for r in rows:
            assert r["part"] == "test"
            for col in ("mrr", "hit5", "hit10", "ndcg5", "ndcg10"):
                raw = float(r[col])
                assert 0.0 <= raw <= 1.0
                assert abs(float(r[col + "_x100"]) - 100 * raw) < 1e-7
        overall = next(r for r in rows if r["domain"] == "overall")
        per_dom = [r for r in rows if r["domain"] != "overall"]
        assert int(overall["n_users"]) == sum(int(r["n_users"]) for r in per_dom)

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        args = ["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                "--data", pipeline["split"], "--set", "n_negatives=12"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert file_bytes(os.path.join(a, "metrics.csv")) == \
            file_bytes(os.path.join(b, "metrics.csv"))

    def test_valid_part_and_best_snapshot(self, pipeline, tmp_path):
        out = str(tmp_path / "v")
        rc = main(["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out, "--part", "valid",
                   "--use-best", "--set", "n_negatives=12"])
        assert rc == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert all(r["part"] == "valid" for r in rows)

    def test_missing_checkpoint(self, pipeline, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none"),
                   "--data", pipeline["split"], "--out", str(tmp_path / "o")])
        assert rc == 1
        capsys.readouterr()

    def test_data_that_is_a_file(self, pipeline, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", os.path.join(pipeline["data"], "events.tsv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestRobustSweepAblate:
    def test_robust_csv(self, pipeline, tmp_path):
        out = str(tmp_path / "rob")
        rc = main(["robust", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out,
                   "--rates", "0,0.2", "--set", "n_negatives=12"])
        assert rc == 0
        rows = read_csv(os.path.join(out, "robustness.csv"))
        assert [float(r["noise_rate"]) for r in rows] == [0.0, 0.2]
        assert float(rows[0]["retained"]) == 1.0
        for r in rows:
            assert abs(float(r["ndcg10_x100"]) - 100 * float(r["ndcg10"])) < 1e-7

    def test_sweep_csv_row_count(self, pipeline, tmp_path):
        out = str(tmp_path / "sweep")
        rc = main(["sweep", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out,
                   "--steps", "1,3,6", "--set", "n_negatives=12"])
        assert rc == 0
        rows = read_csv(os.path.join(out, "sweep.csv"))
        assert [int(r["n_steps"]) for r in rows] == [1, 3, 6]

    def test_sweep_rejects_bad_steps(self, pipeline, tmp_path, capsys):
        rc = main(["sweep", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", str(tmp_path / "s"),
                   "--steps", "0", "--set", "n_negatives=12"])
        assert rc == 1
        assert "n_steps=0 outside [1, " in capsys.readouterr().err

    def test_ablate_csv(self, pipeline, tmp_path):
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--data", pipeline["split"], "--out", out,
                   "--variants", "diff,full", "--seeds", "0",
                   "--seed", "3"] + TINY_MODEL)
        assert rc == 0
        rows = read_csv(os.path.join(out, "ablation.csv"))
        assert [r["variant"] for r in rows] == ["diff", "full"]
        for r in rows:
            assert int(r["n_seeds"]) == 1
            per_seed = [float(v) for v in r["per_seed"].split(";")]
            assert len(per_seed) == 1
            assert abs(float(r["ndcg10_mean"]) - np.mean(per_seed)) < 1e-12

    @pytest.mark.parametrize("command", ["eval", "robust", "sweep"])
    def test_zero_negatives_rejected(self, pipeline, tmp_path, capsys, command):
        # 0 is not "auto": only none/auto pick the negative count from the split
        out = str(tmp_path / command)
        rc = main([command, "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out,
                   "--set", "n_negatives=0"])
        assert rc == 1
        assert "n_negatives" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_ablate_bad_n_steps_trains_nothing(self, pipeline, tmp_path, capsys,
                                               monkeypatch):
        import crossdiff.trainer as trainer_mod

        calls = []
        monkeypatch.setattr(trainer_mod, "fit", lambda *a, **kw: calls.append(1))
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--data", pipeline["split"], "--out", out,
                   "--variants", "diff", "--seeds", "0", "--set", "n_steps=99"]
                  + TINY_MODEL)
        assert rc == 1
        assert "n_steps=99 outside [1, 6]" in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(out)

    def test_ablate_unknown_variant(self, pipeline, tmp_path, capsys):
        rc = main(["ablate", "--data", pipeline["split"],
                   "--out", str(tmp_path / "x"), "--variants", "mega"])
        assert rc == 1
        assert "unknown variant" in capsys.readouterr().err


# argparse dests that are not config keys; every other dest must be one
NON_CONFIG_DESTS = {"help", "version", "command", "config", "set", "out", "input",
                    "format", "data", "variant", "resume", "checkpoint",
                    "use_best", "part", "rates", "steps", "variants", "seeds"}


def parser_dests():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    dests = {a.dest for a in parser._actions}
    for name, subparser in sub.choices.items():
        dests |= {a.dest for a in subparser._actions}
    return dests


class TestDedicatedFlags:
    def test_every_dest_is_config_or_listed(self):
        # resolve_config applies any flag named after a config key, so a new
        # flag must either be meant as config or be listed here
        stray = parser_dests() - set(CONFIG_SCHEMA) - NON_CONFIG_DESTS
        assert not stray
        assert parser_dests() & set(CONFIG_SCHEMA) == {
            "seed", "min_interactions", "min_per_domain", "max_seq_len"}

    def test_flags_beat_set(self):
        args = build_parser().parse_args(
            ["prepare", "--input", "x", "--out", "y", "--seed", "5",
             "--min-interactions", "2", "--min-per-domain", "1",
             "--max-seq-len", "9", "--set", "seed=1", "--set", "max_seq_len=4",
             "--set", "min_interactions=7", "--set", "min_per_domain=6"])
        cfg = resolve_config(args)
        assert (cfg["seed"], cfg["min_interactions"], cfg["min_per_domain"],
                cfg["max_seq_len"]) == (5, 2, 1, 9)


def read_manifest(out):
    with open(os.path.join(out, "run_manifest.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def scored(pipeline):
    """One run of each checkpoint-scoring command and of ablate."""
    base = pipeline["base"]
    ckpt = os.path.join(pipeline["run"], "latest")
    outs = {name: str(base / ("m_" + name)) for name in ("eval", "robust", "sweep",
                                                          "ablate")}
    scoring = ["--checkpoint", ckpt, "--data", pipeline["split"],
               "--set", "n_negatives=12"]
    assert main(["eval", "--out", outs["eval"]] + scoring) == 0
    assert main(["robust", "--out", outs["robust"], "--rates", "0,0.2"] + scoring) == 0
    assert main(["sweep", "--out", outs["sweep"], "--steps", "1,6"] + scoring) == 0
    assert main(["ablate", "--data", pipeline["split"], "--out", outs["ablate"],
                 "--variants", "diff", "--seeds", "0"] + TINY_MODEL) == 0
    return outs


class TestManifests:
    def check(self, out, command, inputs, outputs):
        manifest = read_manifest(out)
        assert manifest["command"] == command
        assert manifest["inputs"] == {p: cli._sha256(p) for p in inputs}
        assert manifest["outputs"] == sorted(outputs)
        assert sorted(manifest["config"]) == sorted(CONFIG_SCHEMA)

    def test_pipeline_commands(self, pipeline):
        data, split, run = pipeline["data"], pipeline["split"], pipeline["run"]
        self.check(data, "synth", [], [os.path.join(data, "events.tsv"),
                                       os.path.join(data, "ground_truth.json")])
        self.check(split, "prepare", [os.path.join(data, "events.tsv")],
                   [os.path.join(split, p) for p in
                    ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl",
                     "stats.json")])
        self.check(run, "train", [os.path.join(split, "vocab.json")],
                   [os.path.join(run, "history.csv"),
                    os.path.join(run, "latest", "params.bin")])

    @pytest.mark.parametrize("command,report", [("eval", "metrics.csv"),
                                                ("robust", "robustness.csv"),
                                                ("sweep", "sweep.csv")])
    def test_scoring_commands(self, pipeline, scored, command, report):
        out = scored[command]
        self.check(out, command,
                   [os.path.join(pipeline["run"], "latest", "params.bin")],
                   [os.path.join(out, report)])

    def test_ablate(self, pipeline, scored):
        out = scored["ablate"]
        self.check(out, "ablate", [os.path.join(pipeline["split"], "vocab.json")],
                   [os.path.join(out, "ablation.csv")])

    def test_failing_command_writes_none(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "bad")
        rc = main(["train", "--data", pipeline["split"], "--out", out,
                   "--set", "lr=-1"])
        assert rc == 1
        assert "lr must be positive" in capsys.readouterr().err
        assert os.path.isdir(out)
        assert not os.path.exists(os.path.join(out, "run_manifest.json"))

    @pytest.mark.parametrize("setting", ["lr=nan", "grad_clip=inf"])
    def test_non_finite_setting_trains_nothing(self, pipeline, tmp_path, capsys, setting):
        # a NaN rate would turn every parameter to NaN in the first step
        out = str(tmp_path / "bad")
        rc = main(["train", "--data", pipeline["split"], "--out", out]
                  + TINY_MODEL + ["--set", setting])
        assert rc == 1
        key = setting.split("=")[0]
        assert "error: %s must be positive and finite" % key in capsys.readouterr().err
        assert os.listdir(out) == []


class TestRejections:
    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_eval_batch_size_below_one(self, pipeline, tmp_path, capsys, size):
        out = str(tmp_path / "e")
        rc = main(["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out,
                   "--set", "n_negatives=12", "--set", "eval_batch_size=" + size])
        assert rc == 1
        assert "error: batch_size must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_resume_of_bad_manifest_is_an_error(self, pipeline, tmp_path, capsys):
        run = str(tmp_path / "run")
        shutil.copytree(os.path.join(pipeline["run"], "latest"),
                        os.path.join(run, "latest"))
        mp = os.path.join(run, "latest", "manifest.json")
        with open(mp) as fh:
            manifest = json.load(fh)
        manifest["variant"] = "bogus"
        with open(mp, "w") as fh:
            json.dump(manifest, fh)
        rc = main(["train", "--data", pipeline["split"], "--out", run, "--resume"])
        assert rc == 1
        assert "unknown variant 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, cause", [
        (lambda text: "{variant: full}",
         "JSONDecodeError: Expecting property name enclosed in double quotes"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "variant"}), "KeyError: 'variant'"),
        (lambda text: json.dumps({**json.loads(text), "model_cfg": {"width": 3}}),
         "TypeError: ModelConfig.__init__() got an unexpected keyword argument 'width'"),
    ], ids=["not_json", "no_variant", "unknown_model_key"])
    def test_eval_of_malformed_manifest_is_one_error_line(self, pipeline, tmp_path,
                                                          capsys, edit, cause):
        ckpt, out = str(tmp_path / "latest"), str(tmp_path / "e")
        shutil.copytree(os.path.join(pipeline["run"], "latest"), ckpt)
        mp = os.path.join(ckpt, "manifest.json")
        with open(mp) as fh:
            text = fh.read()
        with open(mp, "w") as fh:
            fh.write(edit(text))
        rc = main(["eval", "--checkpoint", ckpt, "--data", pipeline["split"], "--out", out,
                   "--set", "n_negatives=12"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: %s: malformed manifest (%s" % (mp, cause))
        assert len(err) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command,flag", [("sweep", ["--steps", "1,99"]),
                                              ("robust", ["--rates", "0,1.5"])])
    def test_bad_sweep_point_runs_nothing(self, pipeline, tmp_path, capsys,
                                          monkeypatch, command, flag):
        calls = []
        monkeypatch.setattr(evaluation, "evaluate", lambda *a, **k: calls.append(1))
        out = str(tmp_path / command)
        rc = main([command, "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", pipeline["split"], "--out", out,
                   "--set", "n_negatives=12"] + flag)
        assert rc == 1
        assert "outside" in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(out)


@pytest.fixture(scope="module")
def wider_split(pipeline):
    """A split with 45 x items where the pipeline's model was built on at most 30."""
    data = str(pipeline["base"] / "wide_data")
    split = str(pipeline["base"] / "wide_split")
    assert main(["synth", "--out", data, "--seed", "3"] + SMALL
                + ["--set", "n_items_x=45"]) == 0
    assert main(["prepare", "--input", os.path.join(data, "events.tsv"),
                 "--out", split]) == 0
    return split


def copy_split(src, dst, name, line_no, edit):
    """Copy split dir src to dst, replacing JSON line line_no of name by edit(record)."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, name)
    edit_json_line(path, line_no, edit)
    return path


class TestSplitChecks:
    def size_error(self, split_dir):
        wide = load_split(split_dir)
        return ("error: the split's vocabularies have %d (x) and %d (y) rows, but the "
                "model's embedding tables have"
                % (wide.vocab_x.size, wide.vocab_y.size))

    @pytest.mark.parametrize("command, flag", [("eval", []), ("robust", ["--rates", "0,0.2"]),
                                               ("sweep", ["--steps", "1,2"])],
                             ids=["eval", "robust", "sweep"])
    def test_scoring_a_split_of_other_sizes(self, pipeline, wider_split, tmp_path, capsys,
                                            command, flag):
        out = str(tmp_path / command)
        rc = main([command, "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", wider_split, "--out", out, "--set", "n_negatives=12"] + flag)
        assert rc == 1
        assert self.size_error(wider_split) in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_resuming_on_a_split_of_other_sizes(self, wider_split, finished_run, capsys):
        rc = main(["train", "--data", wider_split, "--out", finished_run, "--resume"])
        assert rc == 1
        assert self.size_error(wider_split) in capsys.readouterr().err

    def test_train_item_out_of_range(self, pipeline, tmp_path, capsys):
        def edit(rec):
            rec["items"][0] = [99999, "x"]
            return rec

        path = copy_split(pipeline["split"], str(tmp_path / "split"), "train.jsonl", 4, edit)
        rc = main(["train", "--data", os.path.dirname(path), "--out", str(tmp_path / "run")]
                  + TINY_MODEL)
        assert rc == 1
        assert ("error: %s line 4: [99999, 'x'] is not a real item" % path
                in capsys.readouterr().err)

    def test_test_record_without_target(self, pipeline, tmp_path, capsys):
        path = copy_split(pipeline["split"], str(tmp_path / "split"), "test.jsonl", 2,
                          lambda rec: {k: v for k, v in rec.items() if k != "target"})
        rc = main(["train", "--data", os.path.dirname(path), "--out", str(tmp_path / "run")]
                  + TINY_MODEL)
        assert rc == 1
        assert ("error: %s line 2: malformed record (KeyError: 'target')" % path
                in capsys.readouterr().err)
        assert not os.path.exists(str(tmp_path / "run"))

    def test_vocabulary_file_that_is_not_json(self, pipeline, tmp_path, capsys):
        split, run = str(tmp_path / "split"), str(tmp_path / "run")
        shutil.copytree(pipeline["split"], split)
        vp = os.path.join(split, "vocab.json")
        with open(vp, "w") as fh:
            fh.write("")
        rc = main(["train", "--data", split, "--out", run] + TINY_MODEL)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: %s: malformed vocabulary file (JSONDecodeError: Expecting value: "
            "line 1 column 1 (char 0))" % vp]
        assert not os.path.exists(run)

    @pytest.mark.parametrize("user_index", [-3, 99999])
    def test_test_user_index_out_of_range(self, pipeline, tmp_path, capsys, user_index):
        path = copy_split(pipeline["split"], str(tmp_path / "split"), "test.jsonl", 2,
                          lambda rec: dict(rec, user_index=user_index))
        rc = main(["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", os.path.dirname(path), "--out", str(tmp_path / "e"),
                   "--set", "n_negatives=12"])
        assert rc == 1
        assert ("error: %s line 2: user_index %d is not an integer in [0, "
                % (path, user_index) in capsys.readouterr().err)
        assert not os.path.exists(str(tmp_path / "e"))

    def test_test_target_of_the_other_domain(self, pipeline, tmp_path, capsys):
        path = copy_split(pipeline["split"], str(tmp_path / "split"), "test.jsonl", 2,
                          lambda rec: dict(rec, target=[9, "y"]))
        rc = main(["eval", "--checkpoint", os.path.join(pipeline["run"], "latest"),
                   "--data", os.path.dirname(path), "--out", str(tmp_path / "e"),
                   "--set", "n_negatives=12"])
        assert rc == 1
        assert "error: %s line 2: [9, 'y'] is not a real item" % path in capsys.readouterr().err


@pytest.fixture
def finished_run(pipeline, tmp_path):
    """A copy of the pipeline's finished run (d=8, 2 epochs, T=6, seed 3)."""
    run = str(tmp_path / "run")
    shutil.copytree(pipeline["run"], run)
    return run


class TestResumeSettings:
    @pytest.mark.parametrize("given,key", [
        (["--set", "epochs=5"], "epochs"),
        (["--set", "d=16"], "d"),
        (["--set", "diffusion_steps=50"], "diffusion_steps"),
        (["--set", "beta_end=0.03"], "beta_end"),
        (["--set", "grad_clip=1.0"], "grad_clip"),
        (["--seed", "4"], "seed"),
        (["--variant", "diff"], "variant"),
    ])
    def test_disagreeing_setting_is_rejected(self, pipeline, finished_run, capsys,
                                             monkeypatch, given, key):
        calls = []
        monkeypatch.setattr(cli, "fit", lambda *a, **k: calls.append(1))
        rc = main(["train", "--data", pipeline["split"], "--out", finished_run,
                   "--resume"] + given)
        assert rc == 1
        assert "--resume: %s" % key in capsys.readouterr().err
        assert calls == []

    def test_config_file_and_environment_count_as_given(self, pipeline, finished_run,
                                                        tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fit", lambda *a, **k: pytest.fail("fit ran"))
        cfile = tmp_path / "run.cfg"
        cfile.write_text("lr=0.5\n")
        argv = ["train", "--data", pipeline["split"], "--out", finished_run, "--resume"]
        assert main(argv + ["--config", str(cfile)]) == 1
        assert "--resume: lr=0.5" in capsys.readouterr().err
        monkeypatch.setenv("CROSSDIFF_N_HEADS", "1")
        assert main(argv) == 1
        assert "--resume: n_heads=1" in capsys.readouterr().err

    def test_manifest_records_the_checkpoint_settings(self, pipeline, finished_run):
        rc = main(["train", "--data", pipeline["split"], "--out", finished_run,
                   "--resume", "--set", "d=8", "--variant", "full"])
        assert rc == 0
        config = read_manifest(finished_run)["config"]
        assert (config["d"], config["epochs"], config["diffusion_steps"],
                config["seed"], config["n_heads"]) == (8, 2, 6, 3, 2)
        assert config["beta_end"] == CONFIG_SCHEMA["beta_end"][0]
