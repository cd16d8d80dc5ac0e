import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2i import cli
from g2i.cli import SETTINGS, STAGES, build_config, main, make_parser, stage_seed
from g2i.errors import G2IError
from g2i.formats import read_named_tensors, write_named_tensors


def _small_args(out, seed=3):
    return ["--out", str(out), "--seed", str(seed),
            "--blocks", "12,12", "--k", "9", "--signal", "2.0",
            "--p-in", "0.8", "--p-out", "0.05",
            "--max-epochs", "4", "--n-permutations", "8", "--restarts", "5"]


def _data_args(out):
    return ["--edges", str(out / "edges.tsv"), "--features", str(out / "features.csv"),
            "--labels", str(out / "labels.csv")]


class TestConfig:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\nseed = 5\nout=/tmp/x\nmodality.rna=feat.csv\n")
        cfg = build_config(make_parser().parse_args(["run", "--config", str(path)]))
        assert (cfg.seed, cfg.out, cfg.modalities) == (5, "/tmp/x", {"rna": "feat.csv"})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("seed=5\nepsilon=0.25\n")
        args = make_parser().parse_args(["run", "--config", str(path), "--seed", "9"])
        cfg = build_config(args)
        assert cfg.seed == 9
        assert cfg.epsilon == 0.25

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("just a line\n")
        args = make_parser().parse_args(["run", "--config", str(path)])
        with pytest.raises(G2IError):
            build_config(args)

    def test_key_given_twice_names_file_key_and_both_lines(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("seed=3\nrestarts=5\n seed = 5\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: key 'seed' given twice, first on line 1\n"

    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("seed=1\nrestarts=abc\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2" in err and "restarts" in err

    def test_tuple_and_optional_settings_read_alike_from_file_and_flags(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("p=4\nblocks=5,6\nratios=0.5,0.25,0.25\n")
        from_file = build_config(make_parser().parse_args(["run", "--config", str(path)]))
        from_flags = build_config(make_parser().parse_args(
            ["run", "--p", "4", "--blocks", "5,6", "--ratios", "0.5,0.25,0.25"]))
        assert from_file == from_flags
        assert (from_file.p, from_file.blocks, from_file.ratios) == (4, (5, 6), (0.5, 0.25, 0.25))

    @given(key=st.sampled_from(sorted(SETTINGS)),
           text=st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\r\n")))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_setting_text_is_a_value_or_a_named_error(self, tmp_path, key, text):
        # the same text as a flag and as a config line: each source gives a
        # config or a G2IError that names the setting and the source, never
        # anything else
        path = tmp_path / "cfg"
        path.write_text(f"{key}={text}\n", encoding="utf-8")
        flag, outcomes = cli._flag(key), []
        for argv, where in [([f"{flag}={text}"], flag), (["--config", str(path)], f"{path}:1")]:
            try:
                cfg = build_config(make_parser().parse_args(["run", *argv]))
            except G2IError as exc:
                assert str(exc).startswith(f"{where}: ") and key in str(exc)
                outcomes.append(None)
            else:
                outcomes.append(repr(getattr(cfg, key)))
        if text == text.strip():
            assert outcomes[0] == outcomes[1]

    def test_stage_seed_stable_and_distinct(self):
        assert stage_seed(7, "cluster") == stage_seed(7, "cluster")
        names = ["synth", "split", "cluster", "layout", "train", "explain", "metrics"]
        seeds = {stage_seed(7, n) for n in names}
        assert len(seeds) == len(names)


class TestPipeline:
    def test_synth_writes_graph_files(self, tmp_path):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        for name in ("edges.tsv", "features.csv", "labels.csv"):
            assert (tmp_path / name).exists()

    def test_full_run_produces_artifacts(self, tmp_path):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        argv = ["run", *_small_args(tmp_path), *_data_args(tmp_path)]
        rc = main(argv)
        assert rc == 0
        for name in ("images.g2t", "checkpoint.g2t", "report.csv", "eval.csv",
                     "importance.csv", "metrics.csv", "communities.csv",
                     "structural_layout.csv", "image0.csv"):
            assert (tmp_path / name).exists(), name
        # perfbench hashes the files that _paths and _f_layout_path name, and
        # fails a run that lacks one: a labeled run writes those and no others
        cfg = build_config(make_parser().parse_args(argv))
        named = {*cli._paths(cfg).values(), cli._f_layout_path(cfg, "features")}
        assert len(named) == 15
        assert set(tmp_path.iterdir()) == named

    def test_main_runs_openblas_on_one_thread(self, tmp_path):
        # a second BLAS thread can change the bits of a product, and with them
        # report.csv; main pins OpenBLAS to one thread, whatever the environment says
        script = ("import ctypes, json, sys\n"
                  "from g2i import attribution, cli\n"
                  "def threads():\n"
                  "    return [get() for get in attribution._openblas("
                  "'get_num_threads', [], ctypes.c_int)]\n"
                  "before = threads()\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(json.dumps([before, threads(), code]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, "synth", *_small_args(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        before, after, code = json.loads(proc.stdout)
        if not before:
            pytest.skip("no OpenBLAS library found in the child process")
        if max(before) < 2:
            pytest.skip("OpenBLAS starts one thread on this machine")
        assert after == [1] * len(before) and code == 0

    def test_missing_feature_file_names_ingest(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path), "--seed", "1",
                   "--edges", str(tmp_path / "nope.tsv"),
                   "--features", str(tmp_path / "nope.csv"),
                   "--labels", str(tmp_path / "nope2.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error in stage ingest" in err

    def test_stagewise_equals_end_to_end(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert main(["synth", *_small_args(out)]) == 0
        assert main(["run", *_small_args(a), *_data_args(a)]) == 0
        for stage in ("ingest", "cluster", "layout", "render", "train",
                      "eval", "explain", "metrics"):
            assert main([stage, *_small_args(b), *_data_args(b)]) == 0
        for name in ("images.g2t", "checkpoint.g2t", "report.csv", "eval.csv",
                     "importance.csv", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert main(["synth", *_small_args(out)]) == 0
            assert main(["run", *_small_args(out), *_data_args(out)]) == 0
        for name in ("edges.tsv", "images.g2t", "checkpoint.g2t", "report.csv",
                     "eval.csv", "importance.csv", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_unlabeled_images_rejected_by_eval_and_explain(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", *_small_args(data)]) == 0
        unlabeled = ["--edges", str(data / "edges.tsv"), "--features", str(data / "features.csv")]
        for stage in ("ingest", "cluster", "layout", "render"):
            assert main([stage, *_small_args(out), *unlabeled]) == 0
        for stage in ("eval", "explain"):
            capsys.readouterr()
            assert main([stage, *_small_args(out), *unlabeled]) == 1
            err = capsys.readouterr().err
            assert f"error in stage {stage}" in err and "requires labeled images" in err

    def test_unlabeled_ingest_removes_earlier_labels(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", *_small_args(data)]) == 0
        assert main(["ingest", *_small_args(out), *_data_args(data)]) == 0
        assert (out / "labels.csv").exists()
        unlabeled = ["--edges", str(data / "edges.tsv"), "--features", str(data / "features.csv")]
        assert main(["ingest", *_small_args(out), *unlabeled]) == 0
        assert not (out / "labels.csv").exists()
        for stage in ("cluster", "layout", "render"):
            assert main([stage, *_small_args(out)]) == 0
        capsys.readouterr()
        assert main(["train", *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert "error in stage train" in err and "requires labeled images" in err
        assert not (out / "checkpoint.g2t").exists()

    def test_modality_missing_node_is_named(self, tmp_path, capsys):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        lines = (tmp_path / "features.csv").read_text().splitlines()
        dropped = lines[5].split(",")[0]
        extra = tmp_path / "extra.csv"
        extra.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        rc = main(["run", *_small_args(tmp_path), *_data_args(tmp_path),
                   "--modality", f"extra={extra}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "extra.csv" in err and repr(dropped) in err

    def test_nan_edge_weight_names_file_and_line(self, tmp_path, capsys):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        edges = tmp_path / "edges.tsv"
        lines = edges.read_text().splitlines()
        src, dst, _ = lines[2].split("\t")
        lines[2] = f"{src}\t{dst}\tnan"
        edges.write_text("\n".join(lines) + "\n")
        assert main(["run", *_small_args(tmp_path), *_data_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{edges}:3" in err and "non-finite weight" in err

    def test_inf_feature_names_file_line_and_column(self, tmp_path, capsys):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        features = tmp_path / "features.csv"
        lines = features.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[4].split(",")
        row[3] = "inf"
        lines[4] = ",".join(row)
        features.write_text("\n".join(lines) + "\n")
        assert main(["run", *_small_args(tmp_path), *_data_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{features}:5" in err and repr(header[3]) in err and "non-finite" in err

    @pytest.mark.parametrize("source", ["features", "modality"])
    def test_feature_beyond_float32_names_file_line_and_column(self, tmp_path, capsys, source):
        # images.g2t stores float32, in which 1e39 would be inf
        assert main(["synth", *_small_args(tmp_path)]) == 0
        lines = (tmp_path / "features.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[4].split(",")
        row[3] = "1e39"
        lines[4] = ",".join(row)
        path = tmp_path / ("extra.csv" if source == "modality" else "features.csv")
        path.write_text("\n".join(lines) + "\n")
        flags = ["--modality", f"extra={path}"] if source == "modality" else []
        assert main(["run", *_small_args(tmp_path), *_data_args(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        stage = "layout" if source == "modality" else "ingest"
        assert err == (f"error in stage {stage}: {path}:5: value 1e+39 in column {header[3]!r} "
                       f"exceeds float32's largest finite value\n")

    def test_edge_weight_beyond_float32_names_file_and_line(self, tmp_path, capsys):
        # a weight of 1e300 made k-means++ draw from NaN probabilities
        assert main(["synth", *_small_args(tmp_path)]) == 0
        edges = tmp_path / "edges.tsv"
        lines = edges.read_text().splitlines()
        src, dst, _ = lines[2].split("\t")
        lines[2] = f"{src}\t{dst}\t1e300"
        edges.write_text("\n".join(lines) + "\n")
        assert main(["ingest", *_small_args(tmp_path), *_data_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error in stage ingest: {edges}:3: weight '1e300' exceeds float32's "
                       f"largest finite value\n")

    @pytest.mark.parametrize("flags, name", [
        (["--restarts", "0", "--epsilon", "0.5"], "restarts"),
        (["--epsilon", "-1"], "epsilon"),
        (["--epsilon", "nan"], "epsilon"),
    ])
    def test_bad_solver_argument_is_named(self, tmp_path, capsys, flags, name):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        rc = main(["run", *_small_args(tmp_path), *_data_args(tmp_path), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error in stage layout" in err and f"{name} must be" in err

    @pytest.mark.parametrize("command, flags, name", [
        ("synth", ["--blocks", "12,x"], "blocks"),
        ("synth", ["--blocks=-5,3"], "blocks"),
        ("synth", ["--p-in", "2"], "p_in"),
        ("run", ["--n-permutations", "0"], "n_permutations"),
        ("run", ["--max-epochs", "0"], "max_epochs"),
        ("run", ["--n-hvf", "0"], "n_hvf"),
        ("run", ["--config", "ratios=0.5,0.5,0.5"], "ratios"),
        ("run", ["--config", "ratios=0.7,0.3"], "ratios"),
        ("run", ["--config", "ratios=1.5,-0.25,-0.25"], "ratios"),
        ("cluster", ["--p", "-1"], "P must be >= 1"),
        ("cluster", ["--p", "0"], "P must be >= 1"),
        ("run", ["--config", "max_epoch=3"], "max_epoch"),
        ("ingest", ["--features", "features.csv"], "--edges"),
        ("ingest", ["--edges", "edges.tsv"], "--features"),
        ("run", ["--learning-rate", "nan"], "learning_rate"),
        ("run", ["--learning-rate", "-1"], "learning_rate"),
        ("run", ["--momentum", "nan"], "momentum"),
        ("run", ["--momentum", "1"], "momentum"),
        ("synth", ["--signal", "nan"], "signal"),
        ("synth", ["--k", "0"], "feature_dim"),
        ("run", ["--config", "max_epochs=x"], "max_epochs"),
        ("run", ["--max-epochs", "x"], "--max-epochs"),
        ("cluster", ["--p", "abc"], "--p"),
        ("run", ["--ratios", "0.7,x"], "--ratios"),
        ("run", ["--modality", "rna"], "--modality: modality 'rna' has no feature file"),
        ("run", ["--config", "modality.rna="], "modality 'rna' has no feature file"),
        ("run", ["--foo", "1"], "unrecognized arguments: --foo 1"),
        ("run", ["--max-epoch", "3"], "unrecognized arguments: --max-epoch 3"),
    ])
    def test_bad_setting_is_named(self, tmp_path, capsys, command, flags, name):
        if flags[0] == "--config":      # the setting is a line of a config file
            config = tmp_path / "cfg"
            config.write_text(flags[1] + "\n")
            flags = ["--config", str(config)]
        assert main(["synth", *_small_args(tmp_path)]) == 0
        data = _data_args(tmp_path) if command == "run" else []
        assert main([command, *_small_args(tmp_path), *data, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error") and name in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, out, message", [
        ("layout", None, "--out DIR is required"),
        ("run", "a_file/sub", "Not a directory"),
    ])
    def test_bad_out_is_one_line(self, tmp_path, capsys, command, out, message):
        (tmp_path / "a_file").write_text("")
        flags = [] if out is None else ["--out", str(tmp_path / out)]
        assert main([command, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("source, name, message", [
        *(pytest.param(source, "features", "modality name 'features' is reserved for the "
                       "primary feature file; give --modality another name", id=source)
          for source in ("flag", "config")),
        *(pytest.param(source, name, f"modality name {name!r} must be a non-empty file name "
                       "without '/'", id=f"{source}-{name or 'empty'}")
          for source in ("flag", "config") for name in ("", "a/b", "../x")),
    ])
    def test_reserved_modality_name_is_rejected(self, tmp_path, capsys, source, name, message):
        if source == "flag":
            flags, where = ["--modality", f"{name}={tmp_path / 'extra.csv'}"], "--modality"
        else:
            config = tmp_path / "cfg"
            config.write_text(f"seed=1\nmodality.{name}=extra.csv\n")
            flags, where = ["--config", str(config)], f"{config}:2"
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_p_beyond_image_side_stops_cluster(self, tmp_path, capsys):
        # k=4 features make 2 x 2 images, which hold a structural grid of at most 4 communities
        data = ["--out", str(tmp_path), "--seed", "3", "--blocks", "12,12", "--k", "4",
                "--p-in", "0.8", "--p-out", "0.05", "--restarts", "2"]
        assert main(["synth", *data]) == 0
        assert main(["run", *data, *_data_args(tmp_path), "--p", "9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage cluster: --p 9 exceeds 4") and err.count("\n") == 1
        assert not (tmp_path / "centroids.g2t").exists()
        assert main(["cluster", *data, "--p", "4"]) == 0

    def test_stages_after_cluster_do_not_read_edges(self, tmp_path):
        args = [*_small_args(tmp_path), "--max-epochs", "1", "--n-permutations", "1"]
        assert main(["synth", *args]) == 0
        for stage in ("ingest", "cluster"):
            assert main([stage, *args, *_data_args(tmp_path)]) == 0
        (tmp_path / "edges.tsv").unlink()
        for stage in ("layout", "render", "train", "eval", "explain", "metrics"):
            assert main([stage, *args]) == 0, stage

    def test_cluster_does_not_read_labels(self, tmp_path):
        args = _small_args(tmp_path)
        assert main(["synth", *args]) == 0
        assert main(["ingest", *args, *_data_args(tmp_path)]) == 0
        assert main(["cluster", *args]) == 0
        communities = (tmp_path / "communities.csv").read_bytes()
        (tmp_path / "labels.csv").write_bytes(b"\xff not a label file\n")
        assert main(["cluster", *args]) == 0
        assert (tmp_path / "communities.csv").read_bytes() == communities

    def test_duplicate_feature_id_names_both_lines(self, tmp_path, capsys):
        edges, features = tmp_path / "e.tsv", tmp_path / "f.csv"
        edges.write_text("a\tb\t1\n")
        features.write_text("node_id,x\na,1\na,2\n")
        rc = main(["ingest", "--out", str(tmp_path / "out"),
                   "--edges", str(edges), "--features", str(features)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{features}:3" in err and "'a'" in err and "line 2" in err

    def test_node_id_the_edge_list_strips_stops_ingest(self, tmp_path, capsys):
        # the edge line names ' a', which reading the line would turn into 'a'
        edges, features = tmp_path / "edges.tsv", tmp_path / "features.csv"
        edges.write_text(" a\tb\t1\n")
        features.write_text("node_id,x\n a,1\na,2\nb,3\n")
        rc = main(["ingest", "--out", str(tmp_path / "out"),
                   "--edges", str(edges), "--features", str(features)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error in stage ingest: {features}:2: node id ' a' starts or ends with "
            f"whitespace, which the edge list strips\n")

    def test_label_listed_twice_stops_ingest(self, tmp_path, capsys):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        labels = tmp_path / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join([*lines, "n0000,block3"]) + "\n")
        out = tmp_path / "out"
        assert main(["ingest", *_small_args(out), *_data_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error in stage ingest: {labels}:{len(lines) + 1}: duplicate node id "
                       f"'n0000', first on line 2\n")
        assert not (out / "labels.csv").exists()

    def test_repeated_feature_column_stops_ingest(self, tmp_path, capsys):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        features = tmp_path / "features.csv"
        lines = features.read_text().splitlines()
        lines[0] = lines[0].replace("f001", "f000")
        features.write_text("\n".join(lines) + "\n")
        assert main(["ingest", *_small_args(tmp_path / "out"), *_data_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage ingest: {features}:1: column 'f000' named twice\n"

    def test_unlabeled_node_names_label_file(self, tmp_path, capsys):
        edges, features, labels = tmp_path / "e.tsv", tmp_path / "f.csv", tmp_path / "l.csv"
        edges.write_text("a\tb\t1\n")
        features.write_text("node_id,x\na,1\nb,2\n")
        labels.write_text("node_id,label\na,c0\n")
        rc = main(["ingest", "--out", str(tmp_path / "out"), "--edges", str(edges),
                   "--features", str(features), "--labels", str(labels)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{labels}:" in err and f"{labels}:0" not in err and "'b'" in err

    def test_single_node_is_degenerate(self, tmp_path, capsys):
        edges, features = tmp_path / "e.tsv", tmp_path / "f.csv"
        edges.write_text("")
        features.write_text("node_id,x\na,1\n")
        args = ["--out", str(tmp_path / "out"), "--edges", str(edges), "--features", str(features)]
        for stage in ("ingest", "cluster"):
            assert main([stage, *args]) == 0
        assert main(["layout", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage layout") and "at least 2 nodes" in err
        assert err.count("\n") == 1

    def test_weights_whose_squares_underflow_stop_cluster(self, tmp_path, capsys):
        assert main(["synth", *_small_args(tmp_path)]) == 0
        edges = tmp_path / "edges.tsv"
        edges.write_text("".join(line.rsplit("\t", 1)[0] + "\t1e-200\n"
                                 for line in edges.read_text().splitlines()))
        capsys.readouterr()
        assert main(["run", *_small_args(tmp_path), *_data_args(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error in stage cluster: k-means++ distances") and "1e-200" in err
        assert err.count("\n") == 1


# scipy subpackages that scipy.optimize, scipy.spatial or scipy.cluster would
# load; together they more than doubled the peak memory of every stage
HEAVY_SCIPY = ("scipy.optimize", "scipy.spatial", "scipy.cluster", "scipy.sparse",
               "scipy.linalg", "scipy.special")


def _scipy_modules_after(code, *argvs):
    """The scipy modules loaded in a fresh interpreter after running ``code``
    and then ``main`` on each of ``argvs``, which must all succeed."""
    script = ("import json, sys\n"
              f"{code}\n"
              "from g2i import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy')]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    return set(modules)


class TestScipyImports:
    """A g2i process loads scipy's top-level package and its assignment
    solver's extension module, and no other scipy code."""

    @pytest.fixture(scope="class")
    def allowed(self):
        return _scipy_modules_after("import scipy") | {"scipy.optimize._lsap"}

    @pytest.fixture(scope="class")
    def synth_and_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("imports")
        loaded = _scipy_modules_after("", ["synth", *_small_args(out)],
                                      ["run", *_small_args(out), *_data_args(out)])
        return out, loaded

    @staticmethod
    def _assert_light(loaded, allowed):
        assert "scipy.optimize._lsap" in loaded
        assert [m for m in loaded if m.startswith(HEAVY_SCIPY)] == ["scipy.optimize._lsap"]
        assert loaded <= allowed, sorted(loaded - allowed)

    def test_synth_then_run(self, synth_and_run, allowed):
        self._assert_light(synth_and_run[1], allowed)

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_each_stage(self, synth_and_run, allowed, stage):
        out, _ = synth_and_run
        argv = [stage, *_small_args(out)] + ([] if stage == "synth" else _data_args(out))
        self._assert_light(_scipy_modules_after("", argv), allowed)

    def test_solver_is_scipy_optimizes_after_both_import(self):
        code = ("from g2i import transport\n"
                "import scipy.optimize\n"
                "assert transport.linear_sum_assignment is "
                "scipy.optimize.linear_sum_assignment\n")
        assert "scipy.optimize" in _scipy_modules_after(code)


def _modules_after_import(module):
    """The g2i and scipy modules a fresh interpreter holds after ``import module``."""
    script = ("import json, sys\n"
              f"import {module}\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('g2i', 'scipy'))))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_formats_imports_no_other_g2i_module_and_no_scipy():
    assert _modules_after_import("g2i.formats") == ["g2i", "g2i.errors", "g2i.formats"]


def test_graph_imports_only_errors_and_formats_and_no_scipy():
    assert _modules_after_import("g2i.graph") == ["g2i", "g2i.errors", "g2i.formats",
                                                  "g2i.graph"]


def test_no_module_imports_inside_a_function():
    # a module's imports are its import lines; the one exception loads
    # scipy.optimize only where the assignment solver's extension is missing
    found = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn)):
                    found.add(f"{path.stem}.{fn.name}")
    assert found == {"transport._assignment_solver"}


@pytest.fixture(scope="module")
def laid_out(tmp_path_factory):
    """An output directory after synth, ingest, cluster and layout (k=9, P=3)."""
    out = tmp_path_factory.mktemp("laid_out")
    assert main(["synth", *_small_args(out)]) == 0
    for stage in ("ingest", "cluster", "layout"):
        assert main([stage, *_small_args(out), *_data_args(out)]) == 0
    return out


class TestBadStageFiles:
    # Each case replaces line 3 of one file written by an earlier stage;
    # "{0}", "{1}" stand for the fields after the name on line 2.
    @pytest.mark.parametrize("name, line3, stage, message", [
        ("feature_layout_features.csv", "f001,1", "render", ":3: expected 3 fields"),
        ("feature_layout_features.csv", "f001,one,1", "render", ":3: expected integers after the name"),
        ("feature_layout_features.csv", "f001,3,0", "render", ":3: cell (3, 0) lies outside the 3 x 3"),
        ("feature_layout_features.csv", "g001,{0},{1}", "render",
         ":3: item 'g001' where 'f001' belongs"),
        ("feature_layout_features.csv", "f001,{0},{1}", "render",
         ":3: cell ({0}, {1}) already taken on line 2"),
        ("structural_layout.csv", "community1,0,2", "render", ":3: cell (0, 2) lies outside the 2 x 2"),
        ("communities.csv", "n0001", "layout", ":3: expected 2 fields"),
        ("communities.csv", "n0001,1.0", "layout", ":3: expected integers after the name"),
        ("communities.csv", "n0001,3", "layout", ":3: community 3 outside [0, 3)"),
        ("communities.csv", "n0000,0", "layout", ":3: duplicate node id 'n0000', first on line 2"),
        ("communities.csv", "", "layout", ": no community for 1 node id(s), first 'n0001'"),
    ])
    def test_fault_names_file_and_line(self, laid_out, tmp_path, capsys, name, line3, stage,
                                       message):
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        path = out / name
        lines = path.read_text().splitlines()
        line2 = lines[1].split(",")[1:]
        lines[2] = line3.format(*line2)
        path.write_text("\n".join(lines) + "\n")
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error in stage {stage}: {path}{message.format(*line2)}")
        assert err.count("\n") == 1

    @staticmethod
    def _rewrite(laid_out, tmp_path, name, edit):
        """A copy of ``laid_out`` whose file ``name`` has lines ``edit(lines)``."""
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        path = out / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return out, path

    def _nan_checkpoint_stops(self, laid_out, tmp_path, capsys, stage):
        # a diverged network would score every test image and coalition NaN
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        for earlier in ("render", "train"):
            assert main([earlier, *_small_args(out)]) == 0
        path = out / "checkpoint.g2t"
        entries, channels = read_named_tensors(path)
        write_named_tensors([(name, label, np.full_like(arr, np.nan))
                             for name, label, arr in entries], channels, path)
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage {stage}: {path}: conv0_w holds NaN or infinite values\n"
        assert sorted(p.name for p in out.iterdir()) == before    # nothing written

    def test_nan_checkpoint_stops_explain(self, laid_out, tmp_path, capsys):
        self._nan_checkpoint_stops(laid_out, tmp_path, capsys, "explain")

    def test_nan_checkpoint_stops_eval(self, laid_out, tmp_path, capsys):
        self._nan_checkpoint_stops(laid_out, tmp_path, capsys, "eval")

    @pytest.mark.parametrize("stage", ["render", "explain"])
    def test_reversed_layout_names_first_line(self, laid_out, tmp_path, capsys, stage):
        out, path = self._rewrite(laid_out, tmp_path, "feature_layout_features.csv",
                                  lambda lines: lines[:1] + lines[:0:-1])
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage {stage}: {path}:2: item 'f008' where 'f000' belongs\n"

    def test_unknown_community_node_stops_layout(self, laid_out, tmp_path, capsys):
        out, path = self._rewrite(laid_out, tmp_path, "communities.csv",
                                  lambda lines: [*lines, "zzz,0"])
        assert main(["layout", *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage layout: {path}:26: unknown node id 'zzz'\n"

    def test_unknown_modality_node_stops_layout(self, laid_out, tmp_path, capsys):
        # at epsilon 0.5 each layout would get other bytes than laid_out's
        # epsilon 0 ones: the stage reads every input before it writes any
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        extra = tmp_path / "extra.csv"
        lines = (out / "features.csv").read_text().splitlines()
        extra.write_text("\n".join([*lines, "zzz" + ",1.0" * 9]) + "\n")
        assert main(["layout", *_small_args(out), "--epsilon", "0.5",
                     "--modality", f"extra={extra}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage layout: {extra}:26: unknown node id 'zzz'\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # each table, and the first stage that reads it
    @pytest.mark.parametrize("name, stage", [
        ("edges.tsv", "cluster"),
        ("features.csv", "layout"),
        ("labels.csv", "render"),
        ("communities.csv", "layout"),
        ("structural_layout.csv", "render"),
        ("feature_layout_features.csv", "render"),
    ])
    @given(index=st.integers(min_value=0, max_value=30),
           text=st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\r\n")))
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_line_is_read_or_named(self, laid_out, capsys, name, stage, index, text):
        # one line of the table replaced by any text: the stage runs, or it
        # stops with one line that names a file of the run, never with a
        # traceback. A feature line that loses its node id leaves that id
        # unknown in labels.csv, which is the file named then.
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            shutil.copytree(laid_out, out)
            path = out / name
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[index % len(lines)] = text
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            capsys.readouterr()
            rc = main([stage, *_small_args(out)])
            err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith(f"error in stage {stage}: {out}/")
                           and err.count("\n") == 1), err

    def test_short_layout_names_count(self, laid_out, tmp_path, capsys):
        out, path = self._rewrite(laid_out, tmp_path, "feature_layout_features.csv",
                                  lambda lines: lines[:-1])
        assert main(["render", *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage render: {path}: 8 items, expected 9\n"

    @pytest.mark.parametrize("name, stage", [
        ("edges.tsv", "cluster"),
        ("features.csv", "layout"),
        ("labels.csv", "render"),
        ("communities.csv", "layout"),
        ("feature_layout_features.csv", "render"),
        ("cfg", "run"),
    ])
    def test_non_utf8_byte_names_file_and_line(self, laid_out, tmp_path, capsys, name, stage):
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        path = out / name
        if name == "cfg":
            path.write_text("seed=3\nmax_epochs=4\nrestarts=5\n")
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        flags = ["--config", str(path), "--out", str(out)] if name == "cfg" else _small_args(out)
        assert main([stage, *flags]) == 1
        err = capsys.readouterr().err
        where = "error" if name == "cfg" else f"error in stage {stage}"
        assert err == f"{where}: {path}:3: not UTF-8 text: invalid start byte 0xff\n"

    @pytest.mark.parametrize("name, stage, header", [
        ("communities.csv", "layout", "node_id,community"),
        ("feature_layout_features.csv", "render", "item_name,row,col"),
    ])
    def test_missing_header_names_line_1(self, laid_out, tmp_path, capsys, name, stage, header):
        out, path = self._rewrite(laid_out, tmp_path, name, lambda lines: lines[1:])
        first = path.read_text().splitlines()[0]
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error in stage {stage}: {path}:1: expected header {header!r}, "
                       f"got {first!r}\n")

    # cluster writes centroids.g2t as one (P, n) array, here (3, 24)
    _SHAPES = "expected one (P, 24) array of centroids with P >= 1, found shape(s) "

    @pytest.mark.parametrize("entries, message", [
        ([], _SHAPES + "[]"),
        ([("centroids", -1, np.ones(24))], _SHAPES + "[(24,)]"),
        ([("centroids", -1, np.ones((0, 24)))], _SHAPES + "[(0, 24)]"),
        ([("centroids", -1, np.ones((3, 23)))], _SHAPES + "[(3, 23)]"),
        ([("centroids", -1, np.full((3, 24), np.nan))], "centroids holds NaN or infinite values"),
    ], ids=["empty", "1-D", "no-rows", "wrong-width", "nan"])
    @pytest.mark.parametrize("stage", ["layout", "render"])
    def test_bad_centroids_name_file(self, laid_out, tmp_path, capsys, entries, message, stage):
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        path = out / "centroids.g2t"
        write_named_tensors(entries, (), path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage {stage}: {path}: {message}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not (out / "images.g2t").exists()

    @pytest.mark.parametrize("name, stage, writer", [
        ("features.csv", "layout", "ingest"),
        ("centroids.g2t", "layout", "cluster"),
        ("communities.csv", "render", "cluster"),
        ("structural_layout.csv", "render", "layout"),
        ("feature_layout_features.csv", "render", "layout"),
        ("images.g2t", "train", "render"),
    ])
    def test_missing_file_names_the_stage_that_writes_it(self, laid_out, tmp_path, capsys, name,
                                                         stage, writer):
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        (out / name).unlink(missing_ok=True)
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage {stage}: {out / name} is missing; g2i {writer} writes it\n"

    @pytest.mark.parametrize("stage", ["train", "eval", "explain", "metrics"])
    def test_nan_images_stop_stage(self, laid_out, tmp_path, capsys, stage):
        # with NaN images, train kept its initial weights and eval scored them
        out = tmp_path / "out"
        shutil.copytree(laid_out, out)
        assert main(["render", *_small_args(out)]) == 0
        path = out / "images.g2t"
        entries, channels = read_named_tensors(path)
        write_named_tensors([(name, label, np.full_like(arr, np.nan))
                             for name, label, arr in entries], channels, path)
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage {stage}: {path}: n0000 holds NaN or infinite values\n"
        assert sorted(p.name for p in out.iterdir()) == before    # no checkpoint
