"""Command-line pipeline: graph in, images, trained classifier and
attributions out.

Subcommand grammar: ``g2i <subcommand> [--config PATH] [--seed N] [flags...]``.
The config file is flat ``key=value`` UTF-8 text (``#`` comments) whose keys
name settings, as the flags do with ``_`` for ``-``, or ``modality.NAME``; any
other key is an error. CLI flags override file values. All randomness derives from one root seed via a fixed
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
from .errors import BadArgument, G2IError, UnknownNodeId
from .graph import generate_sbm, load_graph, load_nodes, read_text, split_dataset, write_graph


def stage_seed(root, name):
    """Stable per-stage seed derived from the root seed and stage name."""
    return (root ^ zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


@dataclass
class PipelineConfig:
    edges: str = ""
    features: str = ""
    labels: str = ""
    out: str = ""
    modalities: dict = field(default_factory=dict)   # name -> feature CSV path
    seed: int = 0
    p_override: int | None = None
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


def parse_config_file(path):
    return {key: value for key, (_, value) in _read_config(path).items()}


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


# config keys whose text converts with the type of the field's default
_SCALARS = {f.name: type(f.default) for f in fields(PipelineConfig)
            if type(f.default) in (str, int, float)}
_CONVERTERS = {
    **_SCALARS, "p": int,
    "blocks": lambda text: tuple(int(b) for b in text.split(",")),
    "ratios": lambda text: tuple(float(r) for r in text.split(",")),
}


def _convert(key, text, where):
    """``text`` as the value of config key ``key``; ``where`` names its source."""
    try:
        return _CONVERTERS[key](text)
    except ValueError:
        raise G2IError(f"{where}: bad value for {key}: {text!r}") from None


def build_config(args):
    raw = _read_config(args.config) if getattr(args, "config", None) else {}
    cfg = PipelineConfig()
    for key, (lineno, text) in raw.items():
        where = f"{args.config}:{lineno}"
        if key in _CONVERTERS:
            setattr(cfg, "p_override" if key == "p" else key, _convert(key, text, where))
        elif key.startswith("modality."):
            _add_modality(cfg, key.split(".", 1)[1], text, where)
        else:
            raise G2IError(f"{where}: unknown key {key!r}")
    # CLI flags override file values
    for attr in _SCALARS:
        val = getattr(args, attr, None)
        if val is not None:
            setattr(cfg, attr, val)
    if getattr(args, "p", None) is not None:
        cfg.p_override = args.p
    if getattr(args, "blocks", None):
        cfg.blocks = _convert("blocks", args.blocks, "--blocks")
    if getattr(args, "modality", None):
        for entry in args.modality:
            name, _, path = entry.partition("=")
            if not path:
                raise G2IError(f"--modality expects name=path, got {entry!r}")
            _add_modality(cfg, name, path, "--modality")
    return cfg


def _add_modality(cfg, name, path, where):
    """Add the extra modality ``name`` read from ``path``; ``where`` names the
    setting's source."""
    if name == "features":
        # its layout file would overwrite the primary modality's
        raise G2IError(f"{where}: modality name 'features' is reserved for the primary "
                       f"feature file; give --modality another name")
    cfg.modalities[name] = path


# --- artifact paths ---

def _paths(cfg):
    out = Path(cfg.out)
    return {
        "edges": out / "edges.tsv",
        "features": out / "features.csv",
        "labels": out / "labels.csv",
        "communities": out / "communities.csv",
        "centroids": out / "centroids.g2t",
        "s_layout": out / "structural_layout.csv",
        "images": out / "images.g2t",
        "checkpoint": out / "checkpoint.g2t",
        "report": out / "report.csv",
        "eval": out / "eval.csv",
        "importance": out / "importance.csv",
        "dendrogram": out / "class_dendrogram.nwk",
        "metrics": out / "metrics.csv",
        "debug_image": out / "image0.csv",
    }


def _f_layout_path(cfg, name):
    return Path(cfg.out) / f"feature_layout_{name}.csv"


def _labels_path(cfg):
    """The ingested label file, or None when the input had no labels."""
    path = _paths(cfg)["labels"]
    return path if path.exists() else None


def _load_nodes(cfg):
    """The ingested nodes, features and labels; the stages after cluster never
    read the edges."""
    return load_nodes(_paths(cfg)["features"], _labels_path(cfg))


def _modality_list(cfg, nodes):
    """(name, feature matrix, feature names) per modality; primary first."""
    mods = [("features", nodes.features, list(nodes.feature_names))]
    for name in sorted(cfg.modalities):
        F, fnames = _read_feature_csv(cfg.modalities[name], nodes.node_ids)
        mods.append((name, F, fnames))
    return mods


def _read_feature_csv(path, node_ids):
    """Feature rows of ``path`` in ``node_ids`` order, and the feature names."""
    from .graph import _read_features

    ids, F, names = _read_features(path)
    index = {nid: i for i, nid in enumerate(ids)}
    missing = [nid for nid in node_ids if nid not in index]
    if missing:
        raise UnknownNodeId(f"{path}: no row for {len(missing)} node id(s), first "
                            f"{', '.join(map(repr, missing[:5]))}")
    rows = np.array([index[nid] for nid in node_ids])
    return F[rows], names


# --- stages ---

def stage_synth(cfg):
    graph = generate_sbm(cfg.blocks, cfg.p_in, cfg.p_out, cfg.k, cfg.signal,
                         stage_seed(cfg.seed, "synth"))
    p = _paths(cfg)
    write_graph(graph, p["edges"], p["features"], p["labels"])
    return graph


def stage_ingest(cfg):
    graph = load_graph(cfg.edges, cfg.features, cfg.labels or None)
    p = _paths(cfg)
    write_graph(graph, p["edges"], p["features"], p["labels"] if graph.labels is not None else None)
    return graph


def stage_cluster(cfg):
    p = _paths(cfg)
    graph = load_graph(p["edges"], p["features"], _labels_path(cfg))
    if cfg.p_override is None:
        P = community.community_count(graph.k)
    else:
        P = cfg.p_override
        side = _image_side(_modality_list(cfg, graph))
        if P > side * side:
            raise BadArgument(f"--p {P} exceeds {side * side}: the structural grid side "
                              f"ceil(sqrt(P)) must fit the image side {side}, the widest "
                              f"modality's ceil(sqrt(k))")
    model = community.fit_communities(graph, P, stage_seed(cfg.seed, "cluster"))
    community.write_communities(model, graph, p["communities"])
    imaging.write_named_tensors([("centroids", -1, model.centroids)], (), p["centroids"])
    return model


def _load_model(cfg, nodes):
    p = _paths(cfg)
    entries, _ = imaging.read_named_tensors(p["centroids"])
    centroids = entries[0][2].astype(np.float64)
    assignment = community.read_assignment(p["communities"], nodes.node_ids, centroids.shape[0])
    return community.CommunityModel(
        P=centroids.shape[0], centroids=centroids, assignment=assignment,
        inertia_history=(), seed=stage_seed(cfg.seed, "cluster"),
    )


def _image_side(mods):
    """Side of the image grid: the widest modality's ceil(sqrt(k))."""
    return max(community.community_count(F.shape[1]) for _, F, _ in mods)


def stage_layout(cfg):
    nodes = _load_nodes(cfg)
    model = _load_model(cfg, nodes)
    assoc = community.association_matrix(model)
    seed = stage_seed(cfg.seed, "layout")
    s_layout = imaging.build_structural_layout(assoc, seed, cfg.epsilon, cfg.restarts)
    p = _paths(cfg)
    imaging.write_layout(s_layout, _community_names(model.P), p["s_layout"])
    mods = _modality_list(cfg, nodes)
    side = _image_side(mods)
    for name, F, fnames in mods:
        cells = imaging.build_feature_layout(F, stage_seed(cfg.seed, f"layout.{name}"),
                                             cfg.epsilon, cfg.restarts, grid_side=side)
        imaging.write_layout(cells, fnames, _f_layout_path(cfg, name))
    return s_layout


def _community_names(P):
    return [f"community{i}" for i in range(P)]


def _read_feature_layouts(cfg, mods):
    """The feature cells of each modality, read back from its layout file,
    whose lines name the modality's features in order."""
    side = _image_side(mods)
    return [imaging.read_layout(_f_layout_path(cfg, name), side, fnames)
            for name, _, fnames in mods]


def stage_render(cfg):
    nodes = _load_nodes(cfg)
    model = _load_model(cfg, nodes)
    mods = _modality_list(cfg, nodes)
    p = _paths(cfg)
    s_layout = imaging.read_layout(p["s_layout"], community.community_count(model.P),
                                   _community_names(model.P))
    image_set = imaging.render_all(
        nodes, model, s_layout, _read_feature_layouts(cfg, mods),
        modalities=[F for _, F, _ in mods],
        channel_names=["structure"] + [name for name, _, _ in mods],
    )
    imaging.write_tensor(image_set, p["images"])
    _dump_debug_image(image_set, p["debug_image"])
    return image_set


def _dump_debug_image(image_set, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# node {image_set.node_ids[0]}\n")
        for cname, channel in zip(image_set.channel_names, image_set.tensors[0]):
            fh.write(f"# channel {cname}\n")
            for row in channel:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _cnn_config(cfg, image_set):
    _, channels, side, _ = image_set.tensors.shape
    classes = int(np.asarray(image_set.labels).max()) + 1
    return cnn.ConvNetConfig(
        input_side=side, input_channels=channels, classes=classes,
        learning_rate=cfg.learning_rate, momentum=cfg.momentum,
        batch_size=cfg.batch_size, max_epochs=cfg.max_epochs,
        seed=stage_seed(cfg.seed, "train"),
    )


def _split_for(cfg, image_set):
    return split_dataset(image_set.labels, cfg.ratios, stage_seed(cfg.seed, "split"))


def _read_labeled_images(cfg):
    path = _paths(cfg)["images"]
    image_set = imaging.read_tensor(path)
    if image_set.labels is None:
        raise G2IError(f"{path}: this stage requires labeled images (ingest with --labels)")
    return image_set


def stage_train(cfg):
    p = _paths(cfg)
    image_set = _read_labeled_images(cfg)
    split = _split_for(cfg, image_set)
    config = _cnn_config(cfg, image_set)
    params, report = cnn.train(image_set, split, config)
    cnn.save_checkpoint(params, p["checkpoint"])
    cnn.write_report(report, p["report"])
    return params, report


def stage_eval(cfg):
    p = _paths(cfg)
    image_set = _read_labeled_images(cfg)
    split = _split_for(cfg, image_set)
    config = _cnn_config(cfg, image_set)
    params = cnn.load_checkpoint(p["checkpoint"], config)
    result = cnn.evaluate(params, image_set, split.test)
    with open(p["eval"], "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            fh.write(f"{key},{result[key]!r}\n")
    return result


def stage_explain(cfg):
    p = _paths(cfg)
    nodes = _load_nodes(cfg)
    mods = _modality_list(cfg, nodes)
    f_layouts = _read_feature_layouts(cfg, mods)
    image_set = _read_labeled_images(cfg)
    split = _split_for(cfg, image_set)
    config = _cnn_config(cfg, image_set)
    # coalitions are scored in float32, about twice as fast as float64; the
    # checkpoint stores float32, so the cast loses nothing
    params = cnn.load_checkpoint(p["checkpoint"], config).astype(np.float32)
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
    table.to_csv(p["importance"])

    # class-level dendrogram over raw SHAP profiles
    if len(class_names) >= 2:
        dend = attribution.cluster_profiles(table.raw.T, labels=list(class_names))
        with open(p["dendrogram"], "w", encoding="utf-8") as fh:
            fh.write(attribution.dendrogram_to_newick(dend) + "\n")
    return table


def stage_metrics(cfg):
    p = _paths(cfg)
    image_set = _read_labeled_images(cfg)
    # flattened in (P, P, C) order, which the silhouette's summation order depends on
    n = len(image_set.node_ids)
    embedding = image_set.tensors.transpose(0, 2, 3, 1).reshape(n, -1).astype(np.float64)
    scores = metrics.score_embedding(embedding, image_set.labels,
                                     seed=stage_seed(cfg.seed, "metrics"))
    metrics.write_scores({"g2i": scores}, p["metrics"])
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


def make_parser():
    parser = argparse.ArgumentParser(prog="g2i", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*STAGES, "run"]:
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        for key, kind in _SCALARS.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind)
        sp.add_argument("--modality", action="append",
                        help="name=path, repeatable for extra feature files")
        sp.add_argument("--p", type=int, help="community count override")
        sp.add_argument("--blocks", help="comma-separated block sizes (synth)")
    return parser


def main(argv=None):
    # the outputs keep their bytes whatever OPENBLAS_NUM_THREADS says; a second
    # thread changed report.csv and saved no time
    attribution.one_blas_thread()
    args = make_parser().parse_args(argv)
    try:
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
