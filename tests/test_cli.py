import shutil

import numpy as np
import pytest

from g2i.cli import build_config, main, make_parser, parse_config_file, stage_seed


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
        values = parse_config_file(path)
        assert values == {"seed": "5", "out": "/tmp/x", "modality.rna": "feat.csv"}

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
        from g2i.errors import G2IError

        with pytest.raises(G2IError):
            build_config(args)

    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("seed=1\nrestarts=abc\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2" in err and "restarts" in err

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
        rc = main(["run", *_small_args(tmp_path), *_data_args(tmp_path)])
        assert rc == 0
        for name in ("images.g2t", "checkpoint.g2t", "report.csv", "eval.csv",
                     "importance.csv", "metrics.csv", "communities.csv",
                     "structural_layout.csv", "image0.csv"):
            assert (tmp_path / name).exists(), name

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
        assert err.startswith("error") and name in err

    def test_duplicate_feature_id_names_both_lines(self, tmp_path, capsys):
        edges, features = tmp_path / "e.tsv", tmp_path / "f.csv"
        edges.write_text("a\tb\t1\n")
        features.write_text("node_id,x\na,1\na,2\n")
        rc = main(["ingest", "--out", str(tmp_path / "out"),
                   "--edges", str(edges), "--features", str(features)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{features}:3" in err and "'a'" in err and "line 2" in err

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

    @pytest.mark.parametrize("stage", ["render", "explain"])
    def test_reversed_layout_names_first_line(self, laid_out, tmp_path, capsys, stage):
        out, path = self._rewrite(laid_out, tmp_path, "feature_layout_features.csv",
                                  lambda lines: lines[:1] + lines[:0:-1])
        assert main([stage, *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage {stage}: {path}:2: item 'f008' where 'f000' belongs\n"

    def test_short_layout_names_count(self, laid_out, tmp_path, capsys):
        out, path = self._rewrite(laid_out, tmp_path, "feature_layout_features.csv",
                                  lambda lines: lines[:-1])
        assert main(["render", *_small_args(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error in stage render: {path}: 8 items, expected 9\n"

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
