"""Command-line pipeline: graph in, images, trained classifier and
attributions out.

Subcommand grammar: ``g2i <subcommand> [--config PATH] [--seed N] [flags...]``.
Each setting, a field of PipelineConfig, is a flag and a key of the config
file, which is flat ``key=value`` UTF-8 text (``#`` comments). Its other keys
are ``modality.NAME``; any other key is an error. Flags override file values,
and a bad value of either raises a G2IError that names its flag or its file
and line. So does a command line argparse cannot read, such as an unknown or
abbreviated flag. All randomness derives from one root seed via a fixed
per-stage derivation. OpenBLAS runs on one thread, so the outputs do not
depend on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import sys
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import attribution, cnn, community, imaging, metrics, transport  # noqa: F401
from .errors import BadArgument, G2IError
from .graph import (generate_sbm, load_graph, load_nodes, read_features, read_text, split_dataset,
                    write_graph)


def stage_seed(root, name):
    """Stable per-stage seed derived from the root seed and stage name."""
    return (root ^ zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


@dataclass
class PipelineConfig:
    """Every setting of the pipeline. Each field but ``modalities`` is a flag,
    its name with ``-`` for ``_``, and a config-file key, its name; SETTINGS
    converts the text of either."""

    edges: str = ""
    features: str = ""
    labels: str = ""
    out: str = ""
    modalities: dict = field(default_factory=dict)   # name -> feature CSV path
    seed: int = 0
    p: int | None = None                             # community count; None derives it from k
    epsilon: float = 0.0
    restarts: int = 20
    ratios: tuple = (0.70, 0.15, 0.15)
    learning_rate: float = 3e-4
    momentum: float = 0.9
    batch_size: int = 32
    max_epochs: int = 20
    n_hvf: int = 1000
    n_permutations: int = 64
    # synth parameters
    blocks: tuple = (60, 60, 60, 60)
    p_in: float = 0.3
    p_out: float = 0.02
    k: int = 64
    signal: float = 1.5


def _converter(default):
    """Text -> value of a setting, by the type of its default: a tuple's
    elements are comma-separated, and p, whose default is None, is an int."""
    if isinstance(default, tuple):
        kind = type(default[0])
        return lambda text: tuple(kind(item) for item in text.split(","))
    return int if default is None else type(default)


# every setting's name -> the converter of its text
SETTINGS = {f.name: _converter(f.default) for f in fields(PipelineConfig)
            if f.name != "modalities"}


def _read_config(path):
    """key -> (line number, value text) of a flat key=value file."""
    values = {}
    with read_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise G2IError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = (lineno, value.strip())
    return values


def _convert(key, text, where):
    """``text`` as the value of setting ``key``; ``where`` names its source."""
    try:
        return SETTINGS[key](text)
    except ValueError:
        raise G2IError(f"{where}: bad value for {key}: {text!r}") from None


def build_config(args):
    """The settings of the config file, if any, overridden by the flags."""
    cfg = PipelineConfig()
    if args.config:
        for key, (lineno, text) in _read_config(args.config).items():
            where = f"{args.config}:{lineno}"
            if key in SETTINGS:
                setattr(cfg, key, _convert(key, text, where))
            elif key.startswith("modality."):
                _add_modality(cfg, key.split(".", 1)[1], text, where)
            else:
                raise G2IError(f"{where}: unknown key {key!r}")
    for key in SETTINGS:
        text = getattr(args, key)
        if text is not None:
            setattr(cfg, key, _convert(key, text, _flag(key)))
    for entry in args.modality or ():
        name, _, path = entry.partition("=")
        _add_modality(cfg, name, path, "--modality")
    return cfg


def _flag(key):
    return f"--{key.replace('_', '-')}"


def _add_modality(cfg, name, path, where):
    """Add the extra modality ``name`` read from ``path``; ``where`` names the
    setting's source."""
    if name == "features":
        # its layout file would overwrite the primary modality's
        raise G2IError(f"{where}: modality name 'features' is reserved for the primary "
                       f"feature file; give --modality another name")
    if not name or "/" in name or "\0" in name:
        # the name is part of the file name of the modality's layout
        raise G2IError(f"{where}: modality name {name!r} must be a non-empty file name "
                       f"without '/'")
    if not path:
        raise G2IError(f"{where}: modality {name!r} has no feature file; expected name=path")
    cfg.modalities[name] = path


# --- artifacts ---

# every file the stages write under --out: key -> (file name, the stage that
# writes it); `layout` also writes one _f_layout_path per modality.
# perfbench/child.py hashes the files that _paths and _f_layout_path name.
_ARTIFACTS = {
    "edges": ("edges.tsv", "ingest"),
    "features": ("features.csv", "ingest"),
    "labels": ("labels.csv", "ingest"),
    "communities": ("communities.csv", "cluster"),
    "centroids": ("centroids.g2t", "cluster"),
    "s_layout": ("structural_layout.csv", "layout"),
    "images": ("images.g2t", "render"),
    "checkpoint": ("checkpoint.g2t", "train"),
    "report": ("report.csv", "train"),
    "eval": ("eval.csv", "eval"),
    "importance": ("importance.csv", "explain"),
    "dendrogram": ("class_dendrogram.nwk", "explain"),
    "metrics": ("metrics.csv", "metrics"),
    "debug_image": ("image0.csv", "render"),
}


def _path(cfg, key):
    return Path(cfg.out) / _ARTIFACTS[key][0]


def _paths(cfg):
    return {key: _path(cfg, key) for key in _ARTIFACTS}


def _f_layout_path(cfg, name):
    return Path(cfg.out) / f"feature_layout_{name}.csv"


def _written(path, stage):
    """``path``, which g2i ``stage`` writes and a later stage reads."""
    if not path.exists():
        raise G2IError(f"{path} is missing; g2i {stage} writes it")
    return path


def _input(cfg, key):
    """The path of artifact ``key``, which an earlier stage wrote; None for the
    labels of input ingested without them."""
    path = _path(cfg, key)
    if key == "labels" and not path.exists():
        return None
    return _written(path, _ARTIFACTS[key][1])


def _modality_list(cfg, nodes):
    """(name, feature matrix, feature names) per modality, primary first; the
    rows of each --modality file in ``nodes``' order."""
    mods = [("features", nodes.features, nodes.feature_names)]
    for name, path in sorted(cfg.modalities.items()):
        mods.append((name, *read_features(path, nodes.node_ids)[1:]))
    return mods


def _read_model(cfg, nodes):
    """The communities that cluster wrote for ``nodes``."""
    centroids = community.read_centroids(_input(cfg, "centroids"), nodes.n)
    P = len(centroids)
    assignment = community.read_assignment(_input(cfg, "communities"), nodes.node_ids, P)
    return community.CommunityModel(P=P, centroids=centroids, assignment=assignment,
                                    inertia_history=(), seed=stage_seed(cfg.seed, "cluster"))


def _read_feature_layouts(cfg, mods):
    """The feature cells of each modality, read back from its layout file,
    whose lines name the modality's features in order."""
    side = _image_side(mods)
    return [imaging.read_layout(_written(_f_layout_path(cfg, name), "layout"), side, fnames)
            for name, _, fnames in mods]


def _read_dataset(cfg):
    """The labeled images, their split, and the config of the network that
    learns them."""
    path = _input(cfg, "images")
    image_set = imaging.read_tensor(path)
    if image_set.labels is None:
        raise G2IError(f"{path}: this stage requires labeled images (ingest with --labels)")
    split = split_dataset(image_set.labels, cfg.ratios, stage_seed(cfg.seed, "split"))
    _, channels, side, _ = image_set.tensors.shape
    config = cnn.ConvNetConfig(
        input_side=side, input_channels=channels, classes=int(image_set.labels.max()) + 1,
        learning_rate=cfg.learning_rate, momentum=cfg.momentum,
        batch_size=cfg.batch_size, max_epochs=cfg.max_epochs,
        seed=stage_seed(cfg.seed, "train"),
    )
    return image_set, split, config


# --- stages ---

def stage_synth(cfg):
    graph = generate_sbm(cfg.blocks, cfg.p_in, cfg.p_out, cfg.k, cfg.signal,
                         stage_seed(cfg.seed, "synth"))
    write_graph(graph, *(_path(cfg, key) for key in ("edges", "features", "labels")))
    return graph


def stage_ingest(cfg):
    for flag in ("edges", "features"):
        if not getattr(cfg, flag):
            raise BadArgument(f"ingest needs --{flag} FILE")
    graph = load_graph(cfg.edges, cfg.features, cfg.labels or None)
    write_graph(graph, *(_path(cfg, key) for key in ("edges", "features", "labels")))
    if not cfg.labels:  # the later stages would read an earlier ingest's labels
        _path(cfg, "labels").unlink(missing_ok=True)
    return graph


def stage_cluster(cfg):
    graph = load_graph(_input(cfg, "edges"), _input(cfg, "features"))
    if cfg.p is None:
        P = community.community_count(graph.k)
    else:
        P = cfg.p
        side = _image_side(_modality_list(cfg, graph))
        if P > side * side:
            raise BadArgument(f"--p {P} exceeds {side * side}: the structural grid side "
                              f"ceil(sqrt(P)) must fit the image side {side}, the widest "
                              f"modality's ceil(sqrt(k))")
    model = community.fit_communities(graph, P, stage_seed(cfg.seed, "cluster"))
    community.write_communities(model, graph, _path(cfg, "communities"))
    imaging.write_named_tensors([("centroids", -1, model.centroids)], (),
                                _path(cfg, "centroids"))
    return model


def _image_side(mods):
    """Side of the image grid: the widest modality's ceil(sqrt(k))."""
    return max(community.community_count(F.shape[1]) for _, F, _ in mods)


def stage_layout(cfg):
    nodes = load_nodes(_input(cfg, "features"), _input(cfg, "labels"))
    model = _read_model(cfg, nodes)
    assoc = community.association_matrix(model)
    seed = stage_seed(cfg.seed, "layout")
    s_layout = imaging.build_structural_layout(assoc, seed, cfg.epsilon, cfg.restarts)
    imaging.write_layout(s_layout, _community_names(model.P), _path(cfg, "s_layout"))
    mods = _modality_list(cfg, nodes)
    side = _image_side(mods)
    for name, F, fnames in mods:
        cells = imaging.build_feature_layout(F, stage_seed(cfg.seed, f"layout.{name}"),
                                             cfg.epsilon, cfg.restarts, grid_side=side)
        imaging.write_layout(cells, fnames, _f_layout_path(cfg, name))
    return s_layout


def _community_names(P):
    return [f"community{i}" for i in range(P)]


def stage_render(cfg):
    nodes = load_nodes(_input(cfg, "features"), _input(cfg, "labels"))
    model = _read_model(cfg, nodes)
    mods = _modality_list(cfg, nodes)
    s_layout = imaging.read_layout(_input(cfg, "s_layout"), community.community_count(model.P),
                                   _community_names(model.P))
    image_set = imaging.render_all(
        nodes, model, s_layout, _read_feature_layouts(cfg, mods),
        modalities=[F for _, F, _ in mods],
        channel_names=["structure"] + [name for name, _, _ in mods],
    )
    imaging.write_tensor(image_set, _path(cfg, "images"))
    _dump_debug_image(image_set, _path(cfg, "debug_image"))
    return image_set


def _dump_debug_image(image_set, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# node {image_set.node_ids[0]}\n")
        for cname, channel in zip(image_set.channel_names, image_set.tensors[0]):
            fh.write(f"# channel {cname}\n")
            for row in channel:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def stage_train(cfg):
    params, report = cnn.train(*_read_dataset(cfg), _path(cfg, "checkpoint"))
    cnn.write_report(report, _path(cfg, "report"))
    return params, report


def stage_eval(cfg):
    image_set, split, config = _read_dataset(cfg)
    params = cnn.load_checkpoint(_input(cfg, "checkpoint"), config)
    result = cnn.evaluate(params, image_set, split.test)
    with open(_path(cfg, "eval"), "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            fh.write(f"{key},{result[key]!r}\n")
    return result


def stage_explain(cfg):
    nodes = load_nodes(_input(cfg, "features"), _input(cfg, "labels"))
    mods = _modality_list(cfg, nodes)
    f_layouts = _read_feature_layouts(cfg, mods)
    image_set, split, config = _read_dataset(cfg)
    params = cnn.load_checkpoint(_input(cfg, "checkpoint"), config)
    # nothing that large is freed before the coalitions are scored
    cnn.raise_heap_thresholds(config)
    predict = lambda batch: cnn.predict_proba(params, batch)

    feature_sets = [attribution.select_hvf(F, cfg.n_hvf) for _, F, _ in mods]
    players = attribution.hvf_players(f_layouts, feature_sets)
    class_names = nodes.class_names or tuple(
        f"class{i}" for i in range(config.classes)
    )
    values, _ = attribution.class_global_importance(
        predict, image_set, split.test, config.classes, players, cfg.n_permutations,
        stage_seed(cfg.seed, "explain"),
    )
    table = attribution.map_to_features(
        values, feature_sets, [fnames for _, _, fnames in mods], class_names,
        modality_names=[name for name, _, _ in mods],
    )
    table.to_csv(_path(cfg, "importance"))

    # class-level dendrogram over raw SHAP profiles
    if len(class_names) >= 2:
        dend = attribution.cluster_profiles(table.raw.T, labels=list(class_names))
        with open(_path(cfg, "dendrogram"), "w", encoding="utf-8") as fh:
            fh.write(attribution.dendrogram_to_newick(dend) + "\n")
    return table


def stage_metrics(cfg):
    image_set, _, _ = _read_dataset(cfg)
    # flattened in (P, P, C) order, which the silhouette's summation order depends on
    n = len(image_set.node_ids)
    embedding = image_set.tensors.transpose(0, 2, 3, 1).reshape(n, -1).astype(np.float64)
    scores = metrics.score_embedding(embedding, image_set.labels,
                                     seed=stage_seed(cfg.seed, "metrics"))
    metrics.write_scores({"g2i": scores}, _path(cfg, "metrics"))
    return scores


def _run_stage(name, fn, cfg):
    try:
        return fn(cfg)
    except (G2IError, OSError) as exc:
        print(f"error in stage {name}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc


# every stage in pipeline order; `run` executes all of them after synth
STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "cluster": stage_cluster,
    "layout": stage_layout,
    "render": stage_render,
    "train": stage_train,
    "eval": stage_eval,
    "explain": stage_explain,
    "metrics": stage_metrics,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subcommands' parsers, whose
    errors raise a one-line G2IError instead of printing the usage text and
    exiting 2."""

    def error(self, message):
        raise G2IError(f"{self.prog}: {message}")


def make_parser():
    # allow_abbrev=False: a flag is its whole name, as a config key is
    parser = _Parser(prog="g2i", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*STAGES, "run"]:
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config")
        for key in SETTINGS:
            sp.add_argument(_flag(key), dest=key)
        sp.add_argument("--modality", action="append",
                        help="name=path, repeatable for extra feature files")
    return parser


def main(argv=None):
    # the outputs keep their bytes whatever OPENBLAS_NUM_THREADS says; a second
    # thread changed report.csv and saved no time
    attribution.one_blas_thread()
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)
        if not cfg.out:
            raise G2IError("--out DIR is required for this command")
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except (G2IError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = list(STAGES)[1:] if args.command == "run" else [args.command]
    try:
        for name in names:
            _run_stage(name, STAGES[name], cfg)
    except SystemExit as exc:
        return exc.code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
