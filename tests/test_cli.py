import dataclasses
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leafhash import (
    Forest,
    ForestConfig,
    SplitConfig,
    SyntheticSpec,
    encode_dataset,
    gen_synthetic,
    load_codes,
    load_model,
    pack_codes,
    save_codes,
    save_labels,
    save_matrix,
    save_model,
)
from leafhash import cli, train_forest
from leafhash.cli import main

TRAIN_ARGS = ["--trees", "16", "--depth", "2", "--learner", "linear",
              "--bits", "8", "--mode", "semi", "--seed", "3",
              "--atoms", "4", "--sparsity", "2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    ds = gen_synthetic(SyntheticSpec(kind="subspaces", class_count=4,
                                     ambient_dim=10, intrinsic_dim=2, noise=0.02,
                                     samples_per_class=40, seed=6))
    features = tmp / "feat.csv"
    labels = tmp / "lab.txt"
    save_matrix(ds.features, features, "csv")
    save_labels(ds.labels, labels)
    model = tmp / "model.fhsh"
    rc = main(["train", "--features", str(features), "--labels", str(labels),
               "--model-out", str(model), *TRAIN_ARGS])
    assert rc == 0
    codes = tmp / "gallery.fhcd"
    rc = main(["encode", "--model", str(model), "--features", str(features),
               "--labels", str(labels), "--codes-out", str(codes)])
    assert rc == 0
    return dict(tmp=tmp, ds=ds, features=features, labels=labels,
                model=model, codes=codes)


def parse_report(captured):
    out = {}
    for line in captured.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


class TestTrain:
    def test_report_contents(self, workspace, capsys):
        model2 = workspace["tmp"] / "model_report.fhsh"
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]),
                   "--model-out", str(model2), *TRAIN_ARGS])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        assert report["trees"] == "16"
        assert report["blocks"] == "4"
        assert "tree_000_final_loss" in report
        assert len(report["selected_blocks"].split(",")) == 4
        assert "lambda" in report

    def test_same_seed_byte_identical_model(self, workspace):
        model2 = workspace["tmp"] / "model_again.fhsh"
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]),
                   "--model-out", str(model2), *TRAIN_ARGS])
        assert rc == 0
        assert model2.read_bytes() == workspace["model"].read_bytes()

    def test_bits_divisibility_usage_error(self, workspace, capsys):
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]),
                   "--model-out", str(workspace["tmp"] / "x.fhsh"),
                   "--bits", "37", "--depth", "2"])
        capsys.readouterr()
        assert rc == 1

    def test_missing_required_flag(self, capsys):
        rc = main(["train", "--bits", "8"])
        capsys.readouterr()
        assert rc == 1

    def test_neural_report_averages_net_traces(self, workspace, capsys, monkeypatch):
        forests = []

        def keep_forest(*args, **kwargs):
            forests.append(train_forest(*args, **kwargs))
            return forests[-1]

        monkeypatch.setattr(cli, "train_forest", keep_forest)
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]),
                   "--model-out", str(workspace["tmp"] / "neural.fhsh"),
                   "--trees", "4", "--depth", "2", "--learner", "neural",
                   "--bits", "4", "--seed", "3", "--atoms", "4", "--sparsity", "2"])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        for i, tree in enumerate(forests[0].trees):
            traces = [node.net.loss_trace for per_mod in tree.nodes
                      for node in per_mod if node.net is not None]
            for key, pick in (("initial", 0), ("final", -1)):
                value = report[f"tree_{i:03d}_{key}_loss"]
                assert value == f"{np.mean([t[pick] for t in traces]):.6g}"
                assert float(value) != 0.0

    def test_report_counts_nonconverged_and_degenerate_nodes(self, workspace, capsys):
        # depth-4 neural trees on 4 classes: some nodes get one class and are
        # degenerate, and some nets stop at their epoch budget
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]),
                   "--model-out", str(workspace["tmp"] / "deep.fhsh"),
                   "--trees", "6", "--depth", "4", "--learner", "neural",
                   "--bits", "8", "--seed", "3", "--atoms", "4", "--sparsity", "2"])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        forest = train_forest(workspace["ds"], 6, 4,
                              ForestConfig(split=SplitConfig(learner="neural", atoms=4,
                                                             sparsity=2)),
                              master_seed=3)
        nodes = [node for tree in forest.trees for per_mod in tree.nodes for node in per_mod]
        degenerate = sum(node.degenerate for node in nodes)
        nonconverged = sum(not node.degenerate and not node.net.converged for node in nodes)
        assert 0 < degenerate < len(nodes) and 0 < nonconverged
        assert report["degenerate_nodes"] == str(degenerate)
        assert report["nonconverged_nodes"] == str(nonconverged)

    def test_undecodable_csv_is_data_error(self, workspace, capsys):
        raw = bytearray(workspace["features"].read_bytes())
        raw[10] = 0xFF
        bad = workspace["tmp"] / "bad_utf8.csv"
        bad.write_bytes(bytes(raw))
        rc = main(["train", "--features", str(bad),
                   "--labels", str(workspace["labels"]),
                   "--model-out", str(workspace["tmp"] / "bad_utf8.fhsh"), *TRAIN_ARGS])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error:" in err and "byte offset 10" in err

    def test_config_file_and_flag_precedence(self, workspace, capsys):
        cfg_path = workspace["tmp"] / "run.cfg"
        cfg_path.write_text(
            "features={}\nlabels={}\ntrees=16\ndepth=2\nlearner=linear\n"
            "bits=4\nmode=unsup\nseed=3\natoms=4\nsparsity=2\n".format(
                workspace["features"], workspace["labels"])
        )
        model3 = workspace["tmp"] / "model_cfg.fhsh"
        rc = main(["train", "--config", str(cfg_path), "--bits", "8",
                   "--model-out", str(model3)])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        assert report["bits"] == "8"  # flag wins over config file
        assert report["mode"] == "unsup"


class TestBadOptionValues:
    """An option value that no data file could make right is a usage error
    (exit 1), found before anything is trained or written."""

    @pytest.mark.parametrize("bits", ["0", "-2"])
    def test_bits_that_are_not_positive_are_usage_errors(self, workspace, capsys, bits):
        model = workspace["tmp"] / f"bits{bits}.fhsh"
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]), "--model-out", str(model),
                   *TRAIN_ARGS, "--bits", bits])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage error:") and "bits" in captured.err
        assert captured.out == "" and not model.exists()

    @pytest.mark.parametrize("mode, bits", [("sup", "40"), ("unsup", "20"), ("semi", "20")])
    def test_bits_beyond_the_trees_are_usage_errors(self, workspace, capsys, mode, bits):
        # 16 depth-2 trees: supervised selection needs a tree per block, so
        # 40 bits (20 blocks) are too many; unsup and semi need two trees per
        # block, so 20 bits (10 blocks) are
        model = workspace["tmp"] / f"{mode}{bits}.fhsh"
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]), "--model-out", str(model),
                   *TRAIN_ARGS, "--bits", bits, "--mode", mode])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage error:") and "20 trees" in captured.err
        assert captured.out == "" and not model.exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_sigma_whose_square_underflows_or_overflows_is_usage_error(
            self, workspace, capsys, monkeypatch, sigma):
        # the RBF map divides by 2 sigma^2, which would be 0 or inf
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_forest", no_training)
        model = workspace["tmp"] / f"sigma{sigma}.fhsh"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--features", str(workspace["features"]),
                       "--labels", str(workspace["labels"]), "--model-out", str(model),
                       *TRAIN_ARGS, "--learner", "kernel", "--sigma", sigma])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage error:") and "2 sigma^2" in captured.err
        assert captured.out == "" and not model.exists()

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_lambda_that_is_not_finite_or_is_negative_is_usage_error(
            self, workspace, capsys, monkeypatch, lam):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_forest", no_training)
        model = workspace["tmp"] / f"lambda{lam}.fhsh"
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]), "--model-out", str(model),
                   *TRAIN_ARGS, "--mode", "semi", "--lambda", lam])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage error: lambda must be a finite number >= 0")
        assert captured.out == "" and not model.exists()

    def test_negative_radius_is_usage_error(self, workspace, capsys):
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"]), "--radii", "0,-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage error:") and "radii" in captured.err
        assert captured.out == ""


class TestEncode:
    def test_codes_count_matches(self, workspace, capsys):
        codes, labels = load_codes(workspace["codes"])
        assert len(codes) == workspace["ds"].n_samples
        assert codes.length == 8
        np.testing.assert_array_equal(labels, workspace["ds"].labels)

    @pytest.mark.parametrize("learner", ["linear", "rbf"])
    def test_file_longer_than_a_slice_gives_one_calls_codes(self, workspace, learner_models,
                                                            capsys, monkeypatch, learner):
        # 160 points in slices of 64 columns
        monkeypatch.setattr(cli, "_ENCODE_SLICE", 64)
        widths = []

        def record(forest, x, *args):
            widths.append(x.shape[1])
            return encode_dataset(forest, x, *args)

        monkeypatch.setattr(cli, "encode_dataset", record)
        out_path = workspace["tmp"] / f"sliced-{learner}.fhcd"
        rc = main(["encode", "--model", str(learner_models[learner]),
                   "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]), "--codes-out", str(out_path)])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0 and report["count"] == "160"
        assert widths == [64, 64, 32]
        forest, selection = load_model(learner_models[learner])
        ds = workspace["ds"]
        whole = workspace["tmp"] / f"whole-{learner}.fhcd"
        save_codes(pack_codes(encode_dataset(forest, ds.features), selection.chosen),
                   ds.labels, whole)
        assert out_path.read_bytes() == whole.read_bytes()

    def test_dimension_mismatch_is_data_error(self, workspace, capsys):
        bad = workspace["tmp"] / "bad.csv"
        save_matrix(workspace["ds"].features[:5], bad, "csv")
        rc = main(["encode", "--model", str(workspace["model"]),
                   "--features", str(bad),
                   "--codes-out", str(workspace["tmp"] / "bad.fhcd")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "10" in err and "5" in err  # names expected and actual dims

    def test_corrupted_model_is_data_error(self, workspace, capsys):
        raw = bytearray(workspace["model"].read_bytes())
        raw[11] = 0  # depth byte: 6-byte magic, u8 modalities, u32 trees
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[6:-4])))
        bad = workspace["tmp"] / "depth0.fhsh"
        bad.write_bytes(bytes(raw))
        rc = main(["encode", "--model", str(bad),
                   "--features", str(workspace["features"]),
                   "--codes-out", str(workspace["tmp"] / "depth0.fhcd")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "data error:" in err and "depth" in err

    def test_empty_input_valid_header(self, workspace, capsys):
        empty = workspace["tmp"] / "empty.raw"
        save_matrix(np.zeros((10, 0)), empty, "raw-f64")
        out_path = workspace["tmp"] / "empty.fhcd"
        rc = main(["encode", "--model", str(workspace["model"]),
                   "--features", str(empty), "--format", "raw-f64",
                   "--codes-out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        codes, labels = load_codes(out_path)
        assert len(codes) == 0 and codes.length == 8


class TestEval:
    def test_identical_sets_perfect_precision(self, workspace, capsys):
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"]), "--radii", "0,2"])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        assert float(report["precision@0"]) == pytest.approx(1.0)

    def test_model_must_match_the_code_length(self, workspace, capsys):
        evaluate = ["eval", "--gallery", str(workspace["codes"]),
                    "--queries", str(workspace["codes"]), "--metrics", "map", "--model"]
        assert main(evaluate + [str(workspace["model"])]) == 0
        # 12 bits, 6 blocks of 2 leaves, against the codes' 8
        wider = workspace["tmp"] / "model_12_bits.fhsh"
        assert main(["train", "--features", str(workspace["features"]),
                     "--labels", str(workspace["labels"]), "--model-out", str(wider),
                     *TRAIN_ARGS, "--bits", "12"]) == 0
        capsys.readouterr()
        assert main(evaluate + [str(wider)]) == 2
        assert "12 bits" in capsys.readouterr().err
        # a model without a selection fixes no code length
        forest, _ = load_model(workspace["model"])
        unselected = workspace["tmp"] / "model_unselected.fhsh"
        save_model(forest, None, unselected)
        assert main(evaluate + [str(unselected)]) == 2
        assert "no block selection" in capsys.readouterr().err

    def test_radius_list_line_structure(self, workspace, capsys):
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"]), "--radii", "0,2"])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        for key in ("precision@0", "recall@0", "precision@2", "recall@2", "map"):
            assert key in report

    def test_query_index_mode(self, workspace, capsys):
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"]),
                   "--query-index", "0", "--radii", "0"])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        assert "0" in report["retrieved@0"].split(",")

    def test_empty_query_set_is_error(self, workspace, capsys):
        empty = workspace["tmp"] / "empty.raw"
        save_matrix(np.zeros((10, 0)), empty, "raw-f64")
        no_labels = workspace["tmp"] / "empty-labels.txt"
        save_labels([], no_labels)
        empty_codes = workspace["tmp"] / "empty2.fhcd"
        main(["encode", "--model", str(workspace["model"]),
              "--features", str(empty), "--format", "raw-f64",
              "--labels", str(no_labels), "--codes-out", str(empty_codes)])
        capsys.readouterr()
        for metrics in ("pr", "map"):
            rc = main(["eval", "--gallery", str(workspace["codes"]),
                       "--queries", str(empty_codes), "--metrics", metrics])
            assert rc == 2
            assert "data error: query set is empty" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, workspace, capsys):
        rc = main(["eval", "--gallery", "/nonexistent.fhcd",
                   "--queries", str(workspace["codes"])])
        capsys.readouterr()
        assert rc == 2

    def test_metrics_selection(self, workspace, capsys):
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"]),
                   "--metrics", "map", "--radii", "0"])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        assert "map" in report
        assert "precision@0" not in report

    def test_report_floats_six_significant_digits(self, workspace, capsys):
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"]), "--radii", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines():
            key, value = line.split("=", 1)
            if key.startswith(("precision", "recall", "map")):
                mantissa = value.replace(".", "").replace("-", "").lstrip("0")
                assert len(mantissa) <= 6


class TestTrainOnlyOptions:
    def test_seed_and_workers_are_train_flags(self, workspace, capsys):
        encode = ["encode", "--model", str(workspace["model"]),
                  "--features", str(workspace["features"]),
                  "--codes-out", str(workspace["tmp"] / "workers.fhcd")]
        evaluate = ["eval", "--gallery", str(workspace["codes"]),
                    "--queries", str(workspace["codes"])]
        assert main([*encode, "--workers", "2"]) == 1
        assert main([*evaluate, "--seed", "3"]) == 1
        # keys a subcommand does not read stay ignored in a shared config file
        config = workspace["tmp"] / "shared.cfg"
        config.write_text("seed=3\nworkers=2\n")
        assert main([*encode, "--config", str(config)]) == 0
        assert main([*evaluate, "--config", str(config)]) == 0
        capsys.readouterr()


class TestEnvOverride:
    def test_env_variable_between_flag_and_config(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("LEAFHASH_RADII", "0")
        rc = main(["eval", "--gallery", str(workspace["codes"]),
                   "--queries", str(workspace["codes"])])
        report = parse_report(capsys.readouterr().out)
        assert rc == 0
        assert "precision@0" in report
        assert "precision@2" not in report


def argv_of(values):
    return [arg for name, value in values.items() for arg in (f"--{name}", str(value))]


def config_file(path, values):
    path.write_text("".join(f"{name}={value}\n" for name, value in values.items()))
    return str(path)


def env_of(values):
    return {"LEAFHASH_" + name.replace("-", "_").upper(): str(value)
            for name, value in values.items()}


class TestOptionSources:
    """Every option is read from a flag, the environment or a config file,
    and a value from any of them is cast and checked alike."""

    def train_values(self, workspace, model_out):
        values = dict(zip(TRAIN_ARGS[::2], TRAIN_ARGS[1::2]))
        return {name[2:]: value for name, value in values.items()} | {
            "features": workspace["features"], "labels": workspace["labels"],
            "model-out": model_out}

    @pytest.mark.parametrize("source", ["flag", "environment", "config"])
    @pytest.mark.parametrize("name, value", [("mode", "foo"), ("learner", "foo"),
                                             ("kernel", "foo"), ("format", "foo"),
                                             ("format", "raw"), ("depth", "x")])
    def test_bad_value_is_a_usage_error(self, workspace, capsys, monkeypatch,
                                        source, name, value):
        values = self.train_values(workspace, workspace["tmp"] / "bad-value.fhsh")
        values.pop(name, None)
        argv = ["train", *argv_of(values)]
        if source == "flag":
            argv += [f"--{name}", value]
        elif source == "environment":
            monkeypatch.setenv(*env_of({name: value}).popitem())
        else:
            argv += ["--config", config_file(workspace["tmp"] / "bad-value.cfg", {name: value})]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and name in err

    def test_a_set_environment_variable_wins_over_the_file_even_when_bad(
            self, workspace, capsys, monkeypatch):
        values = self.train_values(workspace, workspace["tmp"] / "env-wins.fhsh")
        del values["trees"]
        monkeypatch.setenv("LEAFHASH_TREES", "x")
        config = config_file(workspace["tmp"] / "env-wins.cfg", {"trees": 16})
        assert main(["train", *argv_of(values), "--config", config]) == 1
        assert "bad value for trees: 'x'" in capsys.readouterr().err

    def test_every_source_trains_the_same_model(self, workspace, capsys, monkeypatch):
        models, reports = [], []
        for source in ("flag", "environment", "config"):
            model = workspace["tmp"] / f"model-from-{source}.fhsh"
            values = self.train_values(workspace, model)
            if source == "flag":
                rc = main(["train", *argv_of(values)])
            elif source == "environment":
                with monkeypatch.context() as env:
                    for key, value in env_of(values).items():
                        env.setenv(key, value)
                    rc = main(["train"])
            else:
                rc = main(["train", "--config",
                           config_file(workspace["tmp"] / "train.cfg", values)])
            assert rc == 0
            report = parse_report(capsys.readouterr().out)
            assert report.pop("model") == str(model)
            models.append(model.read_bytes())
            reports.append(report)
        assert models == [workspace["model"].read_bytes()] * 3
        assert reports == reports[:1] * 3

    @pytest.mark.parametrize("name, message", [("anchors", "anchor_count"),
                                               ("atoms", "atoms"), ("sparsity", "sparsity"),
                                               ("sigma", "sigma")])
    def test_values_the_configs_reject_are_usage_errors(self, workspace, capsys,
                                                        name, message):
        values = self.train_values(workspace, workspace["tmp"] / "zero.fhsh")
        assert main(["train", *argv_of(values | {name: 0})]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    @pytest.mark.parametrize("command, options", [
        ("train", ["anchors", "atoms", "bits", "config", "depth", "features", "format",
                   "help", "kernel", "labels", "lambda", "learner", "mode", "model-out",
                   "seed", "sigma", "sparsity", "trees", "workers"]),
        ("encode", ["codes-out", "config", "features", "format", "help", "labels",
                    "model"]),
        ("eval", ["config", "gallery", "help", "metrics", "model", "queries",
                  "query-index", "radii"]),
    ])
    def test_help_lists_every_option(self, capsys, command, options):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        listed = re.findall(r"^  (?:-h, )?--([a-z-]+)", capsys.readouterr().out, re.M)
        assert sorted(listed) == options


SMALL_TRAIN_ARGS = ["--trees", "4", "--depth", "2", "--learner", "linear", "--bits", "4",
                    "--seed", "3", "--atoms", "4", "--sparsity", "2"]


@pytest.fixture(scope="module")
def kernel_model(workspace):
    """A kernel model whose 4-anchor trees encode in stacked groups (d = 10),
    with its anchors stored once in a pool."""
    model = workspace["tmp"] / "kernel.fhsh"
    rc = main(["train", "--features", str(workspace["features"]),
               "--labels", str(workspace["labels"]), "--model-out", str(model),
               "--trees", "4", "--depth", "3", "--learner", "kernel", "--anchors", "4",
               "--bits", "8", "--seed", "3", "--atoms", "2", "--sparsity", "1"])
    assert rc == 0
    forest, _ = load_model(model)
    pool, groups = forest.pools[0], forest._groups[0]
    assert [g.stop - g.start for g in groups] == [2, 2]
    assert pool.rows.shape == (16, 10)
    return model


def kernel_index_span(model):
    """(first, last) byte offset of the last tree's anchor index record (a
    u32 count and its indices) in a pooled kernel model."""
    raw = model.read_bytes()
    forest, _ = load_model(model)
    idx = forest.pools[0].indices[-1]
    record = struct.pack("<I", idx.size) + idx.astype("<u4").tobytes()
    at = raw.rindex(record)
    return at, at + len(record) - 1


def with_crc(raw):
    """A container with its trailing CRC32 recomputed over the payload."""
    return raw[:-4] + struct.pack("<I", zlib.crc32(bytes(raw[6:-4])))


@pytest.fixture(scope="module")
def learner_models(workspace, kernel_model):
    """One small model per learner: linear, RBF kernel (encoded in stacked
    groups), polynomial kernel and neural."""
    models = {"linear": workspace["model"], "rbf": kernel_model}
    for name, extra in (("polynomial", ["--learner", "kernel", "--kernel", "polynomial",
                                        "--anchors", "8"]),
                        ("neural", ["--learner", "neural"])):
        models[name] = workspace["tmp"] / f"{name}.fhsh"
        rc = main(["train", "--features", str(workspace["features"]),
                   "--labels", str(workspace["labels"]), "--model-out", str(models[name]),
                   *SMALL_TRAIN_ARGS, *extra])
        assert rc == 0
    return models


@pytest.mark.parametrize("learner", ["linear", "rbf", "polynomial", "neural"])
def test_features_that_overflow_are_a_numeric_failure(workspace, learner_models, capsys,
                                                      learner):
    huge = workspace["tmp"] / "huge.csv"
    save_matrix(workspace["ds"].features * 1e200, huge, "csv")
    rc = main(["encode", "--model", str(learner_models[learner]), "--features", str(huge),
               "--codes-out", str(workspace["tmp"] / "huge.fhcd")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("numeric failure:")


def test_kernel_training_on_features_that_overflow_is_a_numeric_failure(workspace, capsys):
    # no --sigma: the median distance the bandwidth is estimated from overflows
    huge = workspace["tmp"] / "huge-train.csv"
    save_matrix(workspace["ds"].features * 1e200, huge, "csv")
    model = workspace["tmp"] / "huge-kernel.fhsh"
    rc = main(["train", "--features", str(huge), "--labels", str(workspace["labels"]),
               "--model-out", str(model), *SMALL_TRAIN_ARGS, "--learner", "kernel",
               "--anchors", "8"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("numeric failure:") and not model.exists()


class TestMutatedInputs:
    """The exit code for a damaged input file is 0, 2 or 3, never 1 (usage),
    and no exception escapes ``main``."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_exit_code_is_success_data_or_numeric(self, workspace, kernel_model, data):
        files = {"features": workspace["features"], "labels": workspace["labels"],
                 "model": workspace["model"], "kernel-model": kernel_model,
                 "codes": workspace["codes"]}
        kind = data.draw(st.sampled_from(sorted(files) + ["kernel-model-indices"]))
        # a pooled model's anchor indices are a few bytes of it: hit them often
        span = kernel_index_span(kernel_model) if kind == "kernel-model-indices" else None
        kind = "kernel-model" if span else kind
        raw = bytearray(files[kind].read_bytes())
        framed = kind in ("model", "kernel-model", "codes")
        # a container's 6-byte magic and CRC stay; its payload changes
        lo, hi = span or ((6, len(raw) - 5) if framed else (0, len(raw) - 1))
        changes = data.draw(st.lists(st.tuples(st.integers(lo, hi), st.integers(0, 255)),
                                     min_size=1, max_size=3))
        for pos, value in changes:
            raw[pos] = value
        mutated = workspace["tmp"] / f"mutated-{kind}"
        mutated.write_bytes(bytes(with_crc(raw) if framed else raw))
        files[kind] = mutated

        out = workspace["tmp"] / "mutated-out"
        if kind in ("features", "labels"):
            argv = ["train", "--features", str(files["features"]),
                    "--labels", str(files["labels"]), "--model-out", str(out),
                    *SMALL_TRAIN_ARGS]
        elif kind == "codes":
            argv = ["eval", "--gallery", str(files["codes"]), "--queries", str(mutated)]
        else:
            argv = ["encode", "--model", str(mutated), "--features", str(files["features"]),
                    "--labels", str(files["labels"]), "--codes-out", str(out)]
        assert main(argv) in (0, 2, 3)

    def test_projectors_that_do_not_fit_the_map_are_data_error(self, workspace, kernel_model,
                                                               capsys):
        # tree 0 loses its last anchor but keeps root projectors that take all 4
        forest, selection = load_model(kernel_model)
        tree = forest.trees[0]
        (kc,) = tree.kernels
        tree.kernels = (dataclasses.replace(kc, anchors=kc.anchors[:, :-1].copy()),)
        bad = workspace["tmp"] / "short-kernel.fhsh"
        save_model(Forest(trees=forest.trees, master_seed=3, depth=3,
                          feature_dims=(10,), config=forest.config), selection, bad)
        rc = main(["encode", "--model", str(bad), "--features", str(workspace["features"]),
                   "--codes-out", str(workspace["tmp"] / "short-kernel.fhcd")])
        assert rc == 2
        assert "projectors" in capsys.readouterr().err
