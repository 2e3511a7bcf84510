"""Command-line interface: subcommand pipeline, config merging, and
exit-code mapping."""

import dataclasses
import gzip
import json
import math
import os

import pytest

import relrec.cli
import relrec.graph
import relrec.training
from relrec.cli import main
from relrec.evaluation import DataError, load_pairs_tsv
from relrec.graph import GraphFormatError, load_cooc_graph
from relrec.params import load_checkpoint, save_checkpoint
from relrec.relational import RelationSchema, load_triples_tsv
from relrec.training import TrainConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset and one trained checkpoint for all tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model.bin"
    splits = root / "splits"
    code = main(
        [
            "synth", "--out", str(data), "--entities", "60", "--clusters", "4",
            "--relations", "2", "--noise", "0.2", "--seed", "7",
        ]
    )
    assert code == 0
    code = main(
        [
            "train",
            "--graph", str(data / "graph.tsv"),
            "--triples", str(data / "triples.tsv"),
            "--pairs", str(data / "pairs.tsv"),
            "--out", str(model),
            "--splits-out", str(splits),
            "--relation", "rel_0",
            "--dim", "8", "--epochs", "3", "--b1", "32", "--b2", "32",
            "--b3", "32", "--n-assoc", "4", "--n-neg", "8", "--seed", "1",
        ]
    )
    assert code == 0
    return {"root": root, "data": data, "model": model, "splits": splits}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    def test_synth_reports_written_files(self, workspace, capsys):
        out2 = workspace["root"] / "data2"
        code, out, err = run(
            ["synth", "--out", str(out2), "--entities", "40", "--clusters", "4",
             "--relations", "2", "--seed", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["outdir"] == str(out2)
        for key in ("graph", "triples", "pairs", "rule"):
            assert os.path.exists(payload[key])

    def test_train_outputs(self, workspace, capsys):
        model = workspace["model"]
        assert model.exists()
        log = model.with_name(model.name + ".log.csv")
        assert log.exists()
        header = log.read_text().splitlines()[0]
        assert header == "epoch,L_n,L_r,L_p,dev_precision,dev_recall,dev_F1,wall_seconds"
        checkpoint = load_checkpoint(str(model))
        assert checkpoint.config["target_relation"] == "rel_0"
        assert checkpoint.config["train"]["d"] == 8

    def test_splits_out_files_load(self, workspace):
        checkpoint = load_checkpoint(str(workspace["model"]))
        schema = RelationSchema(names=tuple(checkpoint.config["relations"]))
        sizes = {}
        for name in ("train", "dev", "test"):
            path = workspace["splits"] / f"{name}.tsv"
            assert path.exists()
            sizes[name] = len(load_pairs_tsv(str(path), checkpoint.vocab, schema))
        assert sizes["train"] > sizes["dev"] >= sizes["test"] > 0

    def test_evaluate_json_and_table(self, workspace, capsys):
        code, out, err = run(
            ["evaluate", "--model", str(workspace["model"]),
             "--pairs", str(workspace["splits"] / "test.tsv")],
            capsys,
        )
        assert code == 0
        json_line, table_header, table_row = out.strip().splitlines()
        payload = json.loads(json_line)
        assert payload["relation"] == "rel_0"
        assert payload["n_pairs"] > 0
        assert 0.0 <= payload["f1"] <= 1.0
        assert "precision" in table_header
        assert table_row.startswith("rel_0")

    def test_evaluate_dump_round_trips(self, workspace, capsys):
        dump = workspace["root"] / "probs.tsv"
        code, out, err = run(
            ["evaluate", "--model", str(workspace["model"]),
             "--pairs", str(workspace["splits"] / "test.tsv"),
             "--dump", str(dump)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.strip().splitlines()[0])
        lines = dump.read_text().splitlines()
        assert len(lines) == payload["n_pairs"]
        head, tail, label, prob = lines[0].split("\t")
        assert label in ("0", "1")
        assert 0.0 <= float(prob) <= 1.0

    def test_evaluate_threads_match_single(
        self, workspace, capsys, tmp_path, monkeypatch
    ):
        # Chunks of 3 queries, so that both threads score several chunks.
        monkeypatch.setattr(relrec.training, "_chunk_queries", lambda *_: 3)
        argv = ["evaluate", "--model", str(workspace["model"]),
                "--pairs", str(workspace["splits"] / "test.tsv")]
        results = []
        for threads in ("1", "2"):
            dump = tmp_path / f"probs{threads}.tsv"
            code, out, _ = run(
                argv + ["--threads", threads, "--dump", str(dump)], capsys
            )
            assert code == 0
            results.append((out, dump.read_bytes()))
        assert len(results[0][1].splitlines()) > 6
        assert results[0] == results[1]

    def test_rationalize_owa(self, workspace, capsys):
        pairs = load_split(workspace, "test")
        head, tail = pairs[0]
        code, out, err = run(
            ["rationalize", "--model", str(workspace["model"]),
             "--head", head, "--tail", tail, "--topk", "3"],
            capsys,
        )
        assert code == 0
        json_line = out.strip().splitlines()[0]
        payload = json.loads(json_line)
        assert payload["mode"] == "OWA"
        assert payload["head"] == head and payload["tail"] == tail
        assert 0.0 <= payload["probability"] <= 1.0
        assert len(payload["rationales"]) <= 3
        assert f"pair: {head}" in out

    def test_rationalize_cwa(self, workspace, capsys):
        pairs = load_split(workspace, "test")
        head, tail = pairs[0]
        code, out, err = run(
            ["rationalize", "--model", str(workspace["model"]),
             "--head", head, "--tail", tail, "--mode", "cwa",
             "--triples", str(workspace["data"] / "triples.tsv")],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.strip().splitlines()[0])
        assert payload["mode"] == "CWA"
        if not payload["fallback"]:
            kb_triples = load_kb_terms(workspace)
            for r in payload["rationales"]:
                assert (r["h"], r["r"], r["t"]) in kb_triples


def load_split(workspace, name):
    checkpoint = load_checkpoint(str(workspace["model"]))
    schema = RelationSchema(names=tuple(checkpoint.config["relations"]))
    pairs = load_pairs_tsv(
        str(workspace["splits"] / f"{name}.tsv"), checkpoint.vocab, schema
    )
    return [
        (checkpoint.vocab.term_of(p.head), checkpoint.vocab.term_of(p.tail))
        for p in pairs
    ]


def load_kb_terms(workspace):
    triples = set()
    for line in (workspace["data"] / "triples.tsv").read_text().splitlines():
        if line:
            h, r, t = line.split("\t")
            triples.add((h, r, t))
    return triples


class TestConfigFile:
    def test_file_overrides_defaults_flags_override_file(
        self, workspace, tmp_path, capsys
    ):
        data = workspace["data"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dim": 6, "epochs": 1, "b1": 32,
                                      "b2": 32, "b3": 32, "n_assoc": 4,
                                      "n_neg": 8, "relation": "rel_0"}))
        out_path = tmp_path / "m.bin"
        code, out, err = run(
            ["train", "--config", str(config),
             "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", str(out_path), "--dim", "4"],
            capsys,
        )
        assert code == 0, err
        train_cfg = load_checkpoint(str(out_path)).config["train"]
        assert train_cfg["d"] == 4  # flag wins over file
        assert train_cfg["max_epochs"] == 1  # file wins over default

    def test_unknown_key_rejected(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"banana": 1}))
        code, out, err = run(
            ["synth", "--config", str(config), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "usage error" in err and "banana" in err

    def test_invalid_json_rejected(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, out, err = run(
            ["synth", "--config", str(config), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize(
        "file_cfg",
        [
            {"dim": "8"},  # a string for an int flag
            {"dim": True},  # a bool is not an int
            {"epochs": 2.0},  # a float for an int flag
            {"lr": "0.1"},  # a string for a float flag
            {"ratios": [0.7, 0.15, 0.15]},  # a list for a string flag
        ],
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, capsys, file_cfg):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(file_cfg))
        code, out, err = run(
            ["train", "--config", str(config), "--graph", "/nonexistent/g.tsv",
             "--triples", "/nonexistent/t.tsv", "--pairs", "/nonexistent/p.tsv",
             "--out", str(tmp_path / "m.bin")],
            capsys,
        )
        assert code == 1
        assert err.startswith("usage error:")
        assert next(iter(file_cfg)) in err

    def test_train_rejects_mode_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "owa"}))
        code, out, err = run(
            ["train", "--config", str(config), "--graph", "/nonexistent/g.tsv",
             "--triples", "/nonexistent/t.tsv", "--pairs", "/nonexistent/p.tsv",
             "--out", str(tmp_path / "m.bin")],
            capsys,
        )
        assert code == 1
        assert "usage error" in err and "mode" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--graph", "/nonexistent/g.tsv", "--triples",
             "/nonexistent/t.tsv", "--pairs", "/nonexistent/p.tsv", "--out", "m.bin"],
            ["rationalize", "--model", "/nonexistent/m.bin", "--head", "a",
             "--tail", "b"],
        ],
        ids=["train", "rationalize"],
    )
    def test_threads_key_rejected(self, tmp_path, capsys, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 2}))
        code, out, err = run(argv + ["--config", str(config)], capsys)
        assert code == 1
        assert "unknown key(s): threads" in err

    # One option per TrainConfig field but dtype (ROADMAP item 3), each
    # set to a value other than the field's default.
    TRAIN_OPTIONS = {"dim": 3, "n_neg": 4, "n_assoc": 5, "lr": 0.5, "b1": 6,
                     "b2": 7, "b3": 8, "epochs": 9, "patience": 11, "seed": 12}

    @pytest.mark.parametrize("source", ["none", "flags", "file"])
    def test_every_train_config_field_is_settable(
        self, tmp_path, monkeypatch, capsys, source
    ):
        built = []

        class Recording(TrainConfig):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        def stop(path):
            raise DataError("stopped before reading the graph")

        monkeypatch.setattr(relrec.cli, "TrainConfig", Recording)
        monkeypatch.setattr(relrec.cli, "load_cooc_graph", stop)
        argv = ["train", "--graph", "g.tsv", "--triples", "t.tsv",
                "--pairs", "p.tsv", "--out", str(tmp_path / "m.bin")]
        if source == "flags":
            for key, value in self.TRAIN_OPTIONS.items():
                argv += [f"--{key.replace('_', '-')}", str(value)]
        elif source == "file":
            config = tmp_path / "config.json"
            config.write_text(json.dumps(self.TRAIN_OPTIONS))
            argv += ["--config", str(config)]
        code, out, err = run(argv, capsys)
        assert code == 2 and "stopped before reading the graph" in err
        (config,) = built
        if source == "none":
            assert config.to_dict() == TrainConfig().to_dict()
        else:
            at_default = [f.name for f in dataclasses.fields(TrainConfig)
                          if getattr(config, f.name) == f.default]
            assert at_default == ["dtype"]

    def test_cli_states_no_training_or_generator_default(self):
        # TrainConfig and generate_synthetic state their own defaults.
        assert set(relrec.cli.TRAIN_DEFAULTS.values()) == {None}
        assert set(relrec.cli.SYNTH_DEFAULTS.values()) == {None}

    def test_missing_config_file_is_data_error(self, workspace, tmp_path, capsys):
        code, out, err = run(
            ["synth", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "data error" in err


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        code, out, err = run([], capsys)
        assert code == 1
        assert "train" in err and "rationalize" in err

    def test_missing_required_flags(self, capsys):
        code, out, err = run(["train"], capsys)
        assert code == 1
        assert "usage error" in err and "--graph" in err

    def test_bad_ratio_syntax(self, workspace, capsys):
        data = workspace["data"]
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", "/tmp/never.bin", "--relation", "rel_0",
             "--ratios", "0.5,0.5"],
            capsys,
        )
        assert code == 1
        assert "usage error" in err

    def test_bad_ratio_syntax_reported_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.tsv")
        code, out, err = run(
            ["train", "--graph", missing, "--triples", missing,
             "--pairs", missing, "--out", str(tmp_path / "never.bin"),
             "--ratios", "0.5,0.5"],
            capsys,
        )
        assert code == 1
        assert "ratios must be three comma-separated numbers" in err

    @pytest.mark.parametrize("option", ["--out", "--log"])
    def test_missing_output_directory_reported_before_loading(
        self, workspace, tmp_path, monkeypatch, capsys, option
    ):
        def never(*args, **kwargs):
            raise AssertionError("inputs loaded before the output check")

        monkeypatch.setattr(relrec.cli, "load_cooc_graph", never)
        data = workspace["data"]
        outputs = {"--out": str(tmp_path / "m.bin")}
        outputs[option] = str(tmp_path / "missing" / "file")
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             *(x for item in outputs.items() for x in item)],
            capsys,
        )
        assert code == 2
        assert err.startswith("data error:")
        assert str(tmp_path / "missing") in err

    def test_bad_ratio_sum(self, workspace, capsys):
        data = workspace["data"]
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", "/tmp/never.bin", "--relation", "rel_0",
             "--ratios", "0.5,0.4,0.3"],
            capsys,
        )
        assert code == 2
        assert "data error" in err

    def test_nan_ratio(self, workspace, capsys):
        data = workspace["data"]
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", "/tmp/never.bin", "--relation", "rel_0",
             "--ratios", "nan,0.5,0.5"],
            capsys,
        )
        assert code == 2
        assert err.startswith("data error:") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, option, kind",
        [("train", "graph", "directory"), ("evaluate", "model", "directory"),
         ("rationalize", "model", "directory"), ("train", "graph", "bad-gzip"),
         ("train", "graph", "truncated-gzip"), ("train", "graph", "utf16-bom"),
         ("train", "triples", "utf16-bom"), ("train", "pairs", "utf16-bom")],
    )
    def test_unreadable_input_is_data_error(
        self, workspace, tmp_path, capsys, command, option, kind
    ):
        data = workspace["data"]
        if kind == "directory":
            bad = tmp_path / "dir"
            bad.mkdir()
        elif kind == "bad-gzip":
            bad = tmp_path / "graph.tsv.gz"
            bad.write_bytes(b"not gzip at all\n")
        elif kind == "truncated-gzip":
            bad = tmp_path / "graph.tsv.gz"
            packed = gzip.compress((data / "graph.tsv").read_bytes())
            bad.write_bytes(packed[: len(packed) // 2])
        else:
            bad = tmp_path / f"{option}.tsv"
            bad.write_bytes(b"\xff\xfe" + (data / f"{option}.tsv").read_bytes())
        head, tail = load_split(workspace, "test")[0]
        argv = {
            "train": ["--graph", str(data / "graph.tsv"),
                      "--triples", str(data / "triples.tsv"),
                      "--pairs", str(data / "pairs.tsv"),
                      "--out", str(tmp_path / "m.bin"), "--relation", "rel_0"],
            "evaluate": ["--model", str(workspace["model"]),
                         "--pairs", str(workspace["splits"] / "test.tsv")],
            "rationalize": ["--model", str(workspace["model"]),
                            "--head", head, "--tail", tail],
        }[command]
        argv[argv.index(f"--{option}") + 1] = str(bad)
        code, out, err = run([command, *argv], capsys)
        assert code == 2
        assert err.startswith("data error:") and str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind", ["na-relation", "self-loops", "empty-train-split"]
    )
    def test_input_failing_training_preconditions(
        self, workspace, tmp_path, capsys, kind
    ):
        data = workspace["data"]
        argv = ["train", "--graph", str(data / "graph.tsv"),
                "--triples", str(data / "triples.tsv"),
                "--pairs", str(data / "pairs.tsv"),
                "--out", str(tmp_path / "m.bin"), "--relation", "rel_0"]
        if kind == "na-relation":
            triples = tmp_path / "triples.tsv"
            text = (data / "triples.tsv").read_text()
            triples.write_text(text.replace("\trel_1\t", "\tNA\t"))
            argv[argv.index("--triples") + 1] = str(triples)
            expected = "'NA' is reserved for the no-relation row"
        elif kind == "self-loops":
            graph = tmp_path / "graph.tsv"
            graph.write_text("e0001\te0001\t3\ne0002\te0002\t1\n")
            argv[argv.index("--graph") + 1] = str(graph)
            expected = "cannot compute PPMI of a graph with no edges"
        else:
            argv += ["--ratios", "0,0.5,0.5"]
            expected = "train and dev pairs are required"
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == f"data error: {expected}\n"

    def test_permission_denied_is_data_error(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        data = workspace["data"]

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(relrec.graph, "open", denied, raising=False)
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", str(tmp_path / "m.bin"), "--relation", "rel_0"],
            capsys,
        )
        assert code == 2
        assert err.startswith("data error:") and "Permission denied" in err
        assert str(data / "graph.tsv") in err

    def test_rationalize_has_no_relation_option(self, workspace, capsys):
        head, tail = load_split(workspace, "test")[0]
        code, out, err = run(
            ["rationalize", "--model", str(workspace["model"]),
             "--head", head, "--tail", tail, "--relation", "rel_1"],
            capsys,
        )
        assert code == 1
        assert err.startswith("usage error:") and "--relation" in err
        assert out == ""

    def test_multi_relation_pairs_need_choice(self, workspace, capsys):
        data = workspace["data"]
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", "/tmp/never.bin", "--epochs", "1"],
            capsys,
        )
        assert code == 2
        assert "--relation" in err

    def test_missing_input_file(self, capsys):
        code, out, err = run(
            ["evaluate", "--model", "/nonexistent/model.bin",
             "--pairs", "/nonexistent/pairs.tsv"],
            capsys,
        )
        assert code == 2
        assert "data error" in err

    def test_unknown_term_suggests_alternatives(self, workspace, capsys):
        code, out, err = run(
            ["rationalize", "--model", str(workspace["model"]),
             "--head", "e9999", "--tail", "e0001"],
            capsys,
        )
        assert code == 2
        assert "data error" in err
        assert "e9999" in err

    @pytest.mark.parametrize("topk", ["0", "-1"])
    def test_rationalize_topk_below_one(self, workspace, capsys, topk):
        head, tail = load_split(workspace, "test")[0]
        code, out, err = run(
            ["rationalize", "--model", str(workspace["model"]),
             "--head", head, "--tail", tail, "--topk", topk],
            capsys,
        )
        assert code == 1
        assert "usage error" in err and "--topk" in err
        assert out == ""

    @pytest.mark.parametrize(
        "key, value",
        [("threads", 0), ("threads", -2), ("threshold", math.nan),
         ("threshold", math.inf), ("threshold", -0.1), ("threshold", 1.5)],
    )
    def test_evaluate_option_out_of_range(self, tmp_path, capsys, key, value):
        # The model does not exist: a data error (exit 2) would mean the
        # option was checked only after reading the inputs.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))  # nan and inf as NaN, Infinity
        argv = ["evaluate", "--model", "/nonexistent/m.bin",
                "--pairs", "/nonexistent/p.tsv"]
        for extra in ([f"--{key}", str(value)], ["--config", str(config)]):
            code, out, err = run(argv + extra, capsys)
            assert code == 1
            assert err.startswith("usage error:") and f"--{key}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--dim", "--n-assoc", "--n-neg"])
    def test_train_option_below_one_checked_before_data(self, tmp_path, capsys, flag):
        # The data paths do not exist: a data error (exit 2) would mean the
        # option was checked only after reading the inputs.
        code, out, err = run(
            ["train", "--graph", "/nonexistent/g.tsv",
             "--triples", "/nonexistent/t.tsv", "--pairs", "/nonexistent/p.tsv",
             "--out", str(tmp_path / "m.bin"), flag, "0"],
            capsys,
        )
        assert code == 1
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_train_learning_rate_checked_before_data(self, tmp_path, capsys, lr):
        code, out, err = run(
            ["train", "--graph", "/nonexistent/g.tsv",
             "--triples", "/nonexistent/t.tsv", "--pairs", "/nonexistent/p.tsv",
             "--out", str(tmp_path / "m.bin"), "--lr", lr],
            capsys,
        )
        assert code == 1
        assert err.startswith("usage error:") and "lr" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rationalize", "--model", "m.bin", "--head", "a", "--tail", "b",
             "--seed", "1"],
            ["train", "--graph", "g.tsv", "--triples", "t.tsv", "--pairs", "p.tsv",
             "--out", "m.bin", "--threads", "2"],
        ],
        ids=["rationalize-seed", "train-threads"],
    )
    def test_flag_without_effect_is_rejected(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("usage error:") and argv[-2] in err

    def test_non_ascii_graph_count_is_data_error(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        graph = tmp_path / "graph.tsv"
        graph.write_text(
            (data / "graph.tsv").read_text() + "e0001\te0002\t\u00b2\n",
            encoding="utf-8",
        )
        code, out, err = run(
            ["train", "--graph", str(graph),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", str(tmp_path / "m.bin"), "--relation", "rel_0"],
            capsys,
        )
        assert code == 2
        assert err.startswith("data error:") and "count" in err
        assert "Traceback" not in err

    def test_checkpoint_with_top_k_still_serves(self, workspace, tmp_path, capsys):
        # Older checkpoints record include_na; true still serves.
        checkpoint = load_checkpoint(str(workspace["model"]))
        config = dict(checkpoint.config)
        config["train"] = {**config["train"], "top_k": 5, "include_na": True}
        model = tmp_path / "top_k.bin"
        save_checkpoint(str(model), checkpoint.params, checkpoint.vocab, config)
        code, out, err = run(
            ["evaluate", "--model", str(model),
             "--pairs", str(workspace["splits"] / "test.tsv")],
            capsys,
        )
        assert code == 0, err
        head, tail = load_split(workspace, "test")[0]
        code, out, err = run(
            ["rationalize", "--model", str(model), "--head", head, "--tail", tail],
            capsys,
        )
        assert code == 0, err

    def test_checkpoint_of_older_train_config_serves_identically(
        self, workspace, tmp_path, capsys
    ):
        # Older checkpoints also record d_p, d_a, n_assoc_head,
        # n_assoc_tail and Adam's beta1, beta2 and eps in config.train.
        checkpoint = load_checkpoint(str(workspace["model"]))
        config = json.loads(json.dumps(checkpoint.config))
        train = config["train"]
        train.update(d_p=train["d"], d_a=train["d"], n_assoc_head=train["n_assoc"],
                     n_assoc_tail=train["n_assoc"], beta1=0.9, beta2=0.999, eps=1e-8)
        older = tmp_path / "older.bin"
        save_checkpoint(str(older), checkpoint.params, checkpoint.vocab, config,
                        state=checkpoint.state)
        head, tail = load_split(workspace, "test")[0]
        outputs = []
        for model in (workspace["model"], older):
            dump = tmp_path / f"{model.stem}.tsv"
            code, out, err = run(
                ["evaluate", "--model", str(model), "--dump", str(dump),
                 "--pairs", str(workspace["splits"] / "test.tsv")],
                capsys,
            )
            assert code == 0, err
            code, report, err = run(
                ["rationalize", "--model", str(model), "--head", head,
                 "--tail", tail],
                capsys,
            )
            assert code == 0, err
            outputs.append((dump.read_bytes(), out, report))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["evaluate", "rationalize"])
    def test_non_finite_checkpoint_is_data_error(
        self, workspace, tmp_path, capsys, command
    ):
        # Written by save_checkpoint, so every checksum matches.
        checkpoint = load_checkpoint(str(workspace["model"]))
        checkpoint.params.entity_emb[...] = math.nan
        model = tmp_path / "nan.bin"
        save_checkpoint(
            str(model), checkpoint.params, checkpoint.vocab, checkpoint.config,
            state=checkpoint.state,
        )
        head, tail = load_split(workspace, "test")[0]
        argv = {
            "evaluate": ["--pairs", str(workspace["splits"] / "test.tsv")],
            "rationalize": ["--head", head, "--tail", tail],
        }[command]
        code, out, err = run([command, "--model", str(model)] + argv, capsys)
        assert code == 2
        assert err.startswith("data error:") and "'entity_emb'" in err
        assert "non-finite" in err and "Traceback" not in err
        assert out == ""

    def test_corrupt_checkpoint(self, workspace, tmp_path, capsys):
        payload = bytearray(workspace["model"].read_bytes())
        payload[-1] ^= 0xFF
        broken = tmp_path / "broken.bin"
        broken.write_bytes(bytes(payload))
        code, out, err = run(
            ["evaluate", "--model", str(broken),
             "--pairs", str(workspace["splits"] / "test.tsv")],
            capsys,
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("dims", lambda h: h["dims"].update(d=0)),
            ("dims", lambda h: h["dims"].update(extra=1)),
            ("dims", lambda h: h.update(dims=[8, 8, 8, 2])),
            ("dims", lambda h: h.pop("dims")),
            ("dtype", lambda h: h.update(dtype="int8x")),
            ("dtype", lambda h: h.update(dtype="int8")),
            ("vocab_size", lambda h: h.update(vocab_size=h["vocab_size"] + 1)),
            ("vocab_size", lambda h: h.update(vocab_size="60")),
            ("tensors", lambda h: h.update(tensors={"entity_emb": [60, 8]})),
            ("tensors", lambda h: h["tensors"].append(["entity_emb"])),
            ("optimizer", lambda h: h["optimizer"].pop("steps")),
            ("config", lambda h: h.pop("config")),
        ],
        ids=[
            "dims-zero", "dims-extra-key", "dims-list", "dims-missing",
            "dtype-unknown", "dtype-int", "vocab-size-off-by-one",
            "vocab-size-string", "tensors-dict", "tensors-short-entry",
            "optimizer-no-steps", "config-missing",
        ],
    )
    def test_malformed_checkpoint_header(
        self, workspace, tmp_path, capsys, field, edit
    ):
        # The payload checksum does not cover the header line.
        data = workspace["model"].read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        edit(header)
        model = tmp_path / "edited.bin"
        model.write_bytes(json.dumps(header).encode() + data[newline:])
        code, out, err = run(
            ["evaluate", "--model", str(model),
             "--pairs", str(workspace["splits"] / "test.tsv")],
            capsys,
        )
        assert code == 2
        assert err.startswith("data error:") and repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path",
        [("train",), ("relations",), ("target_relation",), ("train", "n_assoc")],
        ids=lambda path: ".".join(path),
    )
    @pytest.mark.parametrize("command", ["evaluate", "rationalize"])
    def test_checkpoint_config_missing_field(
        self, workspace, tmp_path, capsys, path, command
    ):
        checkpoint = load_checkpoint(str(workspace["model"]))
        config = json.loads(json.dumps(checkpoint.config))
        table = config
        for key in path[:-1]:
            table = table[key]
        del table[path[-1]]
        model = tmp_path / "config.bin"
        save_checkpoint(str(model), checkpoint.params, checkpoint.vocab, config)
        head, tail = load_split(workspace, "test")[0]
        argv = {
            "evaluate": ["--pairs", str(workspace["splits"] / "test.tsv")],
            "rationalize": ["--head", head, "--tail", tail],
        }[command]
        code, out, err = run([command, "--model", str(model), *argv], capsys)
        assert code == 2
        assert err.startswith("data error:")
        assert f"config field {path[-1]!r} is missing or invalid" in err

    @pytest.mark.parametrize(
        "field, value",
        [("n_assoc_tail", 0), ("n_assoc_tail", "4"), ("n_assoc_tail", None),
         ("n_assoc_tail", 2.5), ("relations", []), ("relations", ["r", "r"]),
         ("relations", [["r"]]), ("relations", "rel_0"),
         ("include_na", False), ("include_na", 0), ("include_na", "no"),
         ("n_assoc", 0), ("n_assoc", "4"), ("n_assoc", None), ("n_assoc", 2.5),
         ("n_assoc_head", 5)],
    )
    def test_checkpoint_config_field_invalid(
        self, workspace, tmp_path, capsys, field, value
    ):
        checkpoint = load_checkpoint(str(workspace["model"]))
        config = json.loads(json.dumps(checkpoint.config))
        (config if field == "relations" else config["train"])[field] = value
        model = tmp_path / "field.bin"
        save_checkpoint(str(model), checkpoint.params, checkpoint.vocab, config)
        head, tail = load_split(workspace, "test")[0]
        for argv in (["evaluate", "--pairs", str(workspace["splits"] / "test.tsv")],
                     ["rationalize", "--head", head, "--tail", tail]):
            code, out, err = run([*argv, "--model", str(model)], capsys)
            assert code == 2
            assert err.startswith("data error:") and f"config field {field!r}" in err

    def test_unknown_train_relation_is_data_error(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        code, out, err = run(
            ["train", "--graph", str(data / "graph.tsv"),
             "--triples", str(data / "triples.tsv"),
             "--pairs", str(data / "pairs.tsv"),
             "--out", str(tmp_path / "m.bin"), "--relation", "rel_9"],
            capsys,
        )
        assert code == 2
        assert err.startswith("data error:") and "unknown relation 'rel_9'" in err

    def test_key_error_in_command_is_not_a_data_error(
        self, workspace, monkeypatch, capsys
    ):
        # A KeyError from a bug must surface, not pass for bad input data.
        def broken(*args, **kwargs):
            raise KeyError("n_head")

        monkeypatch.setattr(relrec.cli, "predict_probabilities", broken)
        with pytest.raises(KeyError, match="n_head"):
            main(["evaluate", "--model", str(workspace["model"]),
                  "--pairs", str(workspace["splits"] / "test.tsv")])
        assert "data error" not in capsys.readouterr().err

    def test_bogus_log_level(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv("RELREC_LOG", "bogus")
        code, out, err = run(["synth", "--out", "/tmp/never"], capsys)
        assert code == 1
        assert "RELREC_LOG" in err


class TestTsvInputs:
    """Triple and pair files go through one line reader: for `train` as
    for the library loaders."""

    LOADERS = {"triples": load_triples_tsv, "pairs": load_pairs_tsv}

    def schema_and_vocab(self, workspace):
        vocab = load_cooc_graph(str(workspace["data"] / "graph.tsv")).vocab
        return vocab, RelationSchema(names=("rel_0", "rel_1"))

    def crlf_copy(self, workspace, tmp_path, name, insert=None):
        """The file with CRLF endings and blank lines between rows; `insert`
        becomes line 4, after the first row."""
        lines = (workspace["data"] / f"{name}.tsv").read_text().splitlines()
        if insert is not None:
            lines.insert(1, insert)
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(("\r\n" + "\r\n\r\n".join(lines) + "\r\n").encode())
        return path

    def train_argv(self, workspace, tmp_path, **inputs):
        data = workspace["data"]
        paths = {name: str(data / f"{name}.tsv")
                 for name in ("graph", "triples", "pairs")}
        paths.update({name: str(path) for name, path in inputs.items()})
        return ["train", "--graph", paths["graph"], "--triples", paths["triples"],
                "--pairs", paths["pairs"], "--out", str(tmp_path / "m.bin"),
                "--relation", "rel_0", "--dim", "8", "--epochs", "1",
                "--b1", "32", "--b2", "32", "--b3", "32", "--n-assoc", "4",
                "--n-neg", "8", "--seed", "1"]

    @pytest.mark.parametrize("name", ["triples", "pairs"])
    def test_crlf_and_blank_lines_load_the_same(self, workspace, tmp_path, name):
        vocab, schema = self.schema_and_vocab(workspace)
        load = self.LOADERS[name]
        edited = self.crlf_copy(workspace, tmp_path, name)
        original = load(str(workspace["data"] / f"{name}.tsv"), vocab, schema)
        assert load(str(edited), vocab, schema) == original

    def test_crlf_and_blank_lines_train_the_same(self, workspace, tmp_path, capsys):
        plain, edited = tmp_path / "plain", tmp_path / "edited"
        plain.mkdir()
        edited.mkdir()
        code, _, err = run(self.train_argv(workspace, plain), capsys)
        assert code == 0, err
        inputs = {name: self.crlf_copy(workspace, edited, name)
                  for name in ("triples", "pairs")}
        code, _, err = run(self.train_argv(workspace, edited, **inputs), capsys)
        assert code == 0, err
        assert (edited / "m.bin").read_bytes() == (plain / "m.bin").read_bytes()

    @pytest.mark.parametrize("name, n_fields", [("triples", 3), ("pairs", 4)])
    def test_wrong_field_count_same_message(
        self, workspace, tmp_path, capsys, name, n_fields
    ):
        vocab, schema = self.schema_and_vocab(workspace)
        bad = self.crlf_copy(workspace, tmp_path, name, insert="e0001\trel_0")
        expected = f"{bad}: line 4: expected {n_fields} tab-separated fields, got 2"
        with pytest.raises(GraphFormatError) as exc_info:
            self.LOADERS[name](str(bad), vocab, schema)
        assert str(exc_info.value) == expected
        argv = self.train_argv(workspace, tmp_path, **{name: bad})
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == f"data error: {expected}\n"
