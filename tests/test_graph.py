import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from g2i.errors import AsymmetricDuplicate, ClassTooSmall, MalformedLine, SelfLoop, UnknownNodeId
from g2i.graph import (
    AttributedGraph,
    generate_sbm,
    load_graph,
    load_nodes,
    sbm_signal_coords,
    split_dataset,
    write_graph,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _feature_file(tmp_path, node_ids, k=2):
    lines = ["node_id," + ",".join(f"x{j}" for j in range(k))]
    for i, nid in enumerate(node_ids):
        lines.append(nid + "," + ",".join(str(i + j) for j in range(k)))
    return _write(tmp_path, "features.csv", "\n".join(lines) + "\n")


def test_edges_are_mirrored(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "a\tb\t1.0\nb\tc\t2.0\n")
    feats = _feature_file(tmp_path, ["a", "b", "c"])
    g = load_graph(edges, feats)
    expected = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=float)
    assert np.array_equal(g.adjacency, expected)


def test_self_loop_rejected(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "a\ta\t1.0\n")
    feats = _feature_file(tmp_path, ["a", "b"])
    with pytest.raises(SelfLoop):
        load_graph(edges, feats)


def test_path_graph_degrees(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "a\tb\t1\nb\tc\t1\nc\td\t1\n")
    feats = _feature_file(tmp_path, ["a", "b", "c", "d"])
    g = load_graph(edges, feats)
    assert list(g.degrees()) == [1, 2, 2, 1]


def test_duplicate_edge_rejected(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "a\tb\t1.0\nb\ta\t2.0\n")
    feats = _feature_file(tmp_path, ["a", "b"])
    with pytest.raises(AsymmetricDuplicate):
        load_graph(edges, feats)


def test_unknown_node_id(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "a\tz\t1.0\n")
    feats = _feature_file(tmp_path, ["a", "b"])
    with pytest.raises(UnknownNodeId):
        load_graph(edges, feats)


def test_malformed_line_reports_number(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "a\tb\t1.0\na\tb\n")
    feats = _feature_file(tmp_path, ["a", "b"])
    with pytest.raises(MalformedLine) as err:
        load_graph(edges, feats)
    assert err.value.lineno == 2


def test_comments_and_zero_weights(tmp_path):
    edges = _write(tmp_path, "edges.tsv", "# header\na\tb\t1.0\nb\tc\t0.0\n")
    feats = _feature_file(tmp_path, ["a", "b", "c"])
    g = load_graph(edges, feats)
    assert g.adjacency[1, 2] == 0


def test_load_nodes_reads_what_load_graph_reads_without_edges(tmp_path):
    g = generate_sbm((5, 6), 0.6, 0.2, 4, 1.0, seed=12)
    e, f, lab = tmp_path / "e", tmp_path / "f", tmp_path / "l"
    write_graph(g, e, f, lab)
    graph = load_graph(e, f, lab)
    e.unlink()
    nodes = load_nodes(f, lab)
    assert nodes.n == graph.n and nodes.node_ids == graph.node_ids
    assert nodes.feature_names == graph.feature_names
    assert np.array_equal(nodes.features, graph.features)
    assert np.array_equal(nodes.labels, graph.labels) and nodes.class_names == graph.class_names
    assert load_nodes(f).labels is None


def test_round_trip_is_idempotent(tmp_path):
    g = generate_sbm((5, 6), 0.6, 0.2, 4, 1.0, seed=11)
    e1, f1, l1 = tmp_path / "e1", tmp_path / "f1", tmp_path / "l1"
    write_graph(g, e1, f1, l1)
    g2 = load_graph(e1, f1, l1)
    assert np.array_equal(g.adjacency, g2.adjacency)
    assert np.array_equal(g.features, g2.features)
    assert np.array_equal(g.labels, g2.labels)
    assert g.node_ids == g2.node_ids
    e2, f2, l2 = tmp_path / "e2", tmp_path / "f2", tmp_path / "l2"
    write_graph(g2, e2, f2, l2)
    assert e1.read_bytes() == e2.read_bytes()
    assert f1.read_bytes() == f2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def _loop_edge_text(graph):
    """Reference: edges.tsv as the double loop over i < j writes it."""
    lines = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            w = graph.adjacency[i, j]
            if w != 0:
                lines.append(f"{graph.node_ids[i]}\t{graph.node_ids[j]}\t{float(w)!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("seed", range(6))
def test_edge_file_equals_loop_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    upper = np.triu(rng.uniform(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < 0.3), 1)
    if seed % 2:
        upper = np.round(upper, 1)      # short reprs, and whole numbers such as 1.0
    g = AttributedGraph(n=n, node_ids=tuple(f"v{i:03d}" for i in range(n)),
                        adjacency=upper + upper.T, features=rng.normal(size=(n, 2)),
                        feature_names=("x0", "x1"))
    write_graph(g, tmp_path / "e", tmp_path / "f")
    text = (tmp_path / "e").read_text(encoding="utf-8")
    assert text and text == _loop_edge_text(g)


class TestSplit:
    def test_single_class_sizes(self):
        split = split_dataset(np.zeros(100, dtype=int), seed=7)
        assert (len(split.train), len(split.val), len(split.test)) == (70, 15, 15)

    def test_two_class_rounding(self):
        labels = np.repeat([0, 1], 10)
        split = split_dataset(labels, seed=3)
        assert (len(split.train), len(split.val), len(split.test)) == (14, 3, 3)
        for cls in (0, 1):
            members = set(np.flatnonzero(labels == cls))
            assert len(members & set(split.train)) == 7
            assert 1 <= len(members & set(split.val)) <= 2
            assert 1 <= len(members & set(split.test)) <= 2

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2], 20)
        a = split_dataset(labels, seed=9)
        b = split_dataset(labels, seed=9)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)

    def test_partitions_exactly_over_seeds(self):
        labels = np.repeat([0, 1, 2], [13, 17, 23])
        for seed in range(100):
            split = split_dataset(labels, seed=seed)
            merged = np.concatenate([split.train, split.val, split.test])
            assert np.array_equal(np.sort(merged), np.arange(len(labels)))

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            split_dataset(np.array([0, 0, 0, 1, 1]))


class TestSBM:
    def test_degenerate_probabilities_give_cliques(self):
        g = generate_sbm((20, 20), 1.0, 0.0, 4, 0.0, seed=0)
        block = np.ones((20, 20)) - np.eye(20)
        assert np.array_equal(g.adjacency[:20, :20], block)
        assert np.array_equal(g.adjacency[20:, 20:], block)
        assert np.all(g.adjacency[:20, 20:] == 0)

    def test_within_block_edge_count_moment(self):
        # expected 2 * C(30,2) * 0.5 = 435 within-block edges; check +-3 sigma
        g = generate_sbm((30, 30), 0.5, 0.05, 4, 0.0, seed=5)
        within = 0
        for b in (0, 1):
            sub = g.adjacency[b * 30 : (b + 1) * 30, b * 30 : (b + 1) * 30]
            within += int(sub.sum()) // 2
        n_trials = 2 * 30 * 29 // 2
        sigma = np.sqrt(n_trials * 0.5 * 0.5)
        assert abs(within - 435) <= 3 * sigma

    def test_zero_pout_components_equal_blocks(self):
        g = generate_sbm((7, 9, 5), 0.9, 0.0, 4, 0.0, seed=2)
        n_comp, comp = connected_components(g.adjacency, directed=False)
        assert n_comp == 3
        for b in range(3):
            members = comp[np.asarray(g.labels) == b]
            assert len(np.unique(members)) == 1

    def test_signal_lands_on_block_coords(self):
        g = generate_sbm((50, 50), 0.3, 0.1, 8, 2.0, seed=4)
        coords = sbm_signal_coords(2, 8)
        means = np.array([g.features[np.asarray(g.labels) == b].mean(axis=0) for b in (0, 1)])
        for b in (0, 1):
            assert means[b, coords[b]].mean() > means[1 - b, coords[b]].mean() + 1.0
