import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from g2i import graph as graph_module
from g2i.community import fit_communities
from g2i.errors import AsymmetricDuplicate, ClassTooSmall, MalformedLine, SelfLoop, UnknownNodeId
from g2i.graph import (
    AttributedGraph,
    CSRMatrix,
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
    assert np.array_equal(g.csr.toarray(), expected)


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


@pytest.mark.parametrize("lines, message", [
    ("a\tb\t1.0\nb\ta\t2.0\n", "edge ('a', 'b') listed twice (weights 1.0 and 2.0)"),
    ("c\tb\t0.5\nb\tc\t0\n", "edge ('b', 'c') listed twice (weights 0.5 and 0.0)"),
    ("b\tc\t0\nb\tc\t3\n", "edge ('b', 'c') listed twice (weights 0.0 and 3.0)"),
    ("a\tc\t-0\nc\ta\t0.0\n", "edge ('a', 'c') listed twice (weights -0.0 and 0.0)"),
    ("c\ta\t0\nd\ta\t7\n", "edge ('a', 'd') listed twice (weights 1e-320 and 7.0)"),
])
def test_duplicate_edge_names_line_and_both_weights(tmp_path, lines, message):
    # the first edge's subnormal weight is nonzero in the matrix
    edges = _write(tmp_path, "edges.tsv", "a\td\t1e-320\n" + lines)
    feats = _feature_file(tmp_path, ["a", "b", "c", "d"])
    with pytest.raises(AsymmetricDuplicate) as info:
        load_graph(edges, feats)
    assert str(info.value) == f"{edges}:3: {message}"


@pytest.mark.parametrize("text, error, lineno", [
    ("a\tb\t1.0\nb\ta\t2.0\nc\tb\n", AsymmetricDuplicate, 2),
    ("c\tb\na\tb\t1.0\nb\ta\t2.0\n", MalformedLine, 1),
    ("a\tb\t1.0\nc\td\t0\nd\tc\t5\na\tz\t1\n", AsymmetricDuplicate, 3),
    ("a\tb\t1.0\na\tz\t1\nb\ta\t2.0\n", UnknownNodeId, 2),
    ("a\tb\t1.0\nb\ta\t2.0\nc\tc\t1\n", AsymmetricDuplicate, 2),
    ("c\tc\t1\na\tb\t1.0\nb\ta\t2.0\n", SelfLoop, 1),
])
def test_first_fault_in_file_order_is_reported(tmp_path, text, error, lineno):
    edges = _write(tmp_path, "edges.tsv", text)
    feats = _feature_file(tmp_path, ["a", "b", "c", "d"])
    with pytest.raises(error) as info:
        load_graph(edges, feats)
    assert str(info.value).startswith(f"{edges}:{lineno}: ")


def test_first_repeated_pair_is_named_among_many(tmp_path):
    # pairs repeat on lines 5 and 4; line 4 repeats line 1, whatever the sort order
    text = "c\td\t1\nb\tc\t2\na\tb\t3\nd\tc\t4\nb\ta\t5\nd\tc\t6\n"
    edges = _write(tmp_path, "edges.tsv", text)
    feats = _feature_file(tmp_path, ["a", "b", "c", "d"])
    with pytest.raises(AsymmetricDuplicate) as info:
        load_graph(edges, feats)
    assert str(info.value) == f"{edges}:4: edge ('c', 'd') listed twice (weights 1.0 and 4.0)"


def _graph_of(adjacency):
    n = len(adjacency)
    return AttributedGraph(node_ids=tuple(map(str, range(n))),
                           csr=CSRMatrix.from_dense(adjacency),
                           features=np.zeros((n, 1)), feature_names=("x",))


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (39, 40), (40, 39), (399, 0), (250, 399)])
def test_asymmetric_adjacency_rejected_in_every_band(i, j):
    # one asymmetric entry anywhere among the 400 x 400 nonzeros
    A = np.ones((400, 400)) - np.eye(400)
    _graph_of(A.copy())
    A[i, j] = 2.0
    with pytest.raises(ValueError, match="adjacency is not symmetric"):
        _graph_of(A)


def test_negative_weight_rejected():
    A = np.zeros((5, 5))
    A[3, 1] = A[1, 3] = -0.5
    with pytest.raises(ValueError, match="negative edge weight"):
        _graph_of(A)
    A[3, 1] = A[1, 3] = -0.0
    assert _graph_of(A).n == 5


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
    assert g.csr.toarray()[1, 2] == 0


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


def test_class_indices_follow_label_file_line_order(tmp_path):
    # the label file lists the nodes in another order than the feature file
    feats = _feature_file(tmp_path, ["a", "b", "c", "d"])
    labels = _write(tmp_path, "labels.csv", "node_id,label\nd,y\nb,x\na,y\nc,z\n")
    nodes = load_nodes(feats, labels)
    assert nodes.class_names == ("y", "x", "z")
    assert nodes.labels.tolist() == [0, 1, 2, 0]


@pytest.mark.parametrize("text, error, message", [
    ("node_id,label\na,x\nb,y\na,y\n", MalformedLine, ":4: duplicate node id 'a', first on line 2"),
    ("node_id,label\na,x\n\nzz,y\nb,y\n", UnknownNodeId, ":4: unknown node id 'zz'"),
    ("node_id,label\nb,y\n", UnknownNodeId, ": no label for 1 node id(s), first 'a'"),
])
def test_label_file_holds_each_node_once(tmp_path, text, error, message):
    feats = _feature_file(tmp_path, ["a", "b"])
    labels = _write(tmp_path, "labels.csv", text)
    with pytest.raises(error) as info:
        load_nodes(feats, labels)
    assert str(info.value) == f"{labels}{message}"


@pytest.mark.parametrize("node_id", ["#a", " #a"])
def test_node_id_read_as_edge_comment_is_rejected(tmp_path, node_id):
    # the edge line "#a<TAB>b<TAB>1" is a comment, so the edge would vanish
    feats = _write(tmp_path, "features.csv", f"node_id,x\n{node_id},1\nb,2\n")
    edges = _write(tmp_path, "edges.tsv", f"{node_id}\tb\t1\n")
    with pytest.raises(MalformedLine) as info:
        load_graph(edges, feats)
    assert str(info.value) == (f"{feats}:2: node id {node_id!r} starts with '#', "
                               f"which begins a comment in the edge list")


def test_field_beyond_csv_limit_names_line(tmp_path):
    # an unclosed quote takes the rest of the file into one field
    feats = _write(tmp_path, "features.csv", 'node_id,x\na,1\nb,"' + "1" * 140_000 + "\n")
    with pytest.raises(MalformedLine) as info:
        load_nodes(feats)
    assert str(info.value) == f"{feats}:3: not a CSV line: field larger than field limit (131072)"


def test_round_trip_is_idempotent(tmp_path):
    g = generate_sbm((5, 6), 0.6, 0.2, 4, 1.0, seed=11)
    e1, f1, l1 = tmp_path / "e1", tmp_path / "f1", tmp_path / "l1"
    write_graph(g, e1, f1, l1)
    g2 = load_graph(e1, f1, l1)
    assert np.array_equal(g.csr.toarray(), g2.csr.toarray())
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
    lines, A = [], graph.csr.toarray()
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            w = A[i, j]
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
    g = AttributedGraph(node_ids=tuple(f"v{i:03d}" for i in range(n)),
                        csr=CSRMatrix.from_dense(upper + upper.T),
                        features=rng.normal(size=(n, 2)),
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
        assert np.array_equal(g.csr.toarray()[:20, :20], block)
        assert np.array_equal(g.csr.toarray()[20:, 20:], block)
        assert np.all(g.csr.toarray()[:20, 20:] == 0)

    def test_within_block_edge_count_moment(self):
        # expected 2 * C(30,2) * 0.5 = 435 within-block edges; check +-3 sigma
        g = generate_sbm((30, 30), 0.5, 0.05, 4, 0.0, seed=5)
        within = 0
        for b in (0, 1):
            sub = g.csr.toarray()[b * 30 : (b + 1) * 30, b * 30 : (b + 1) * 30]
            within += int(sub.sum()) // 2
        n_trials = 2 * 30 * 29 // 2
        sigma = np.sqrt(n_trials * 0.5 * 0.5)
        assert abs(within - 435) <= 3 * sigma

    def test_zero_pout_components_equal_blocks(self):
        g = generate_sbm((7, 9, 5), 0.9, 0.0, 4, 0.0, seed=2)
        n_comp, comp = connected_components(g.csr.toarray(), directed=False)
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


class TestCSRMatrix:
    def _dense(self, seed, n=30):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.5, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.2)
        A[3] = 0.0          # an empty row
        return A

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_products_and_sums_of_the_dense_matrix(self, seed):
        A = self._dense(seed)
        csr = CSRMatrix.from_dense(A)
        assert csr.nnz == np.count_nonzero(A) and np.array_equal(csr.toarray(), A)
        for index in (0, 3, 29, slice(2, 9), slice(0, 30), slice(5, 5), np.array([4, 3, 4])):
            assert np.array_equal(csr.dense_rows(index), A[index])
        B = np.random.default_rng(seed).normal(size=(30, 4))
        assert np.allclose(csr @ B, A @ B, rtol=1e-13, atol=1e-13)
        ones = CSRMatrix.from_dense((A > 0).astype(float))       # exact products and sums
        assert np.array_equal(ones @ np.ones((30, 3)), (A > 0) @ np.ones((30, 3)))
        groups = np.random.default_rng(seed).integers(0, 3, size=30)
        sums = np.zeros((3, 30))
        for row, g in zip(A, groups):
            sums[g] += row
        assert csr.group_sums(groups, 3).tobytes() == sums.tobytes()

    def test_products_in_several_blocks(self, monkeypatch):
        A = self._dense(7, n=60)
        csr = CSRMatrix.from_dense(A)
        B = np.random.default_rng(7).normal(size=(60, 5))
        whole = csr @ B
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 8 * 5 * 7)
        assert (csr @ B).tobytes() == whole.tobytes()

    def test_symmetric_builds_both_triangles(self):
        csr = CSRMatrix.symmetric(4, np.array([2, 0]), np.array([3, 1]), np.array([5.0, 7.0]))
        expected = np.array([[0, 7, 0, 0], [7, 0, 0, 0], [0, 0, 0, 5], [0, 0, 5, 0]], float)
        assert np.array_equal(csr.toarray(), expected) and csr.is_symmetric()

    @pytest.mark.parametrize("indptr, indices, weights, message", [
        ([0, 2, 1], [0, 1], [1.0, 1.0], "do not describe a CSR matrix"),
        ([0, 1, 2], [0, 1], [1.0], "do not describe a CSR matrix"),
        ([0, 2, 2], [1, 0], [1.0, 1.0], "increase within each row"),
        ([0, 2, 2], [1, 1], [1.0, 1.0], "increase within each row"),
        ([0, 1, 1], [2], [1.0], "lie in \\[0, n\\)"),
        ([0, 1, 1], [-1], [1.0], "lie in \\[0, n\\)"),
        ([0, 1, 1], [1], [0.0], "a stored weight is zero"),
    ])
    def test_malformed_arrays_are_rejected(self, indptr, indices, weights, message):
        with pytest.raises(ValueError, match=message):
            CSRMatrix(np.array(indptr), np.array(indices), np.array(weights))

    def test_from_dense_takes_square_matrices(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            CSRMatrix.from_dense(np.ones((3, 2)))


def _dense_sbm(blocks, p_in, p_out, feature_dim, signal, seed):
    """Reference: generate_sbm's draw with the whole n x n uniform matrix."""
    rng = np.random.default_rng(seed)
    n = sum(blocks)
    labels = np.repeat(np.arange(len(blocks)), blocks)
    probs = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    adjacency = (upper | upper.T).astype(np.float64)
    features = rng.standard_normal((n, feature_dim))
    for b, coords in enumerate(sbm_signal_coords(len(blocks), feature_dim)):
        features[np.ix_(labels == b, coords)] += signal
    return adjacency, features, labels


@pytest.mark.parametrize("blocks, p_in, p_out, seed", [
    ((5, 6), 0.6, 0.2, 11),
    ((60, 60, 60, 60), 0.3, 0.02, 7),
    ((300, 250, 350), 0.1, 0.01, 3),
    ((20, 20), 1.0, 0.0, 0),
    ((1, 40, 7), 0.0, 1.0, 5),
])
@pytest.mark.parametrize("block_rows", [None, 7])
def test_sbm_equals_the_whole_matrix_draw(monkeypatch, blocks, p_in, p_out, seed, block_rows):
    if block_rows:
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 8 * sum(blocks) * block_rows)
    g = generate_sbm(blocks, p_in, p_out, 6, 1.5, seed)
    adjacency, features, labels = _dense_sbm(blocks, p_in, p_out, 6, 1.5, seed)
    assert np.array_equal(g.csr.toarray(), adjacency)
    assert g.features.tobytes() == features.tobytes()
    assert np.array_equal(g.labels, labels)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_n_by_n_matrix_in_synth_ingest_or_cluster(tmp_path):
    # a dense adjacency would be 128 MB at 4,000 nodes and 512 MB at 8,000;
    # numpy reports its buffers to tracemalloc
    limit = 16 * 2**20
    peak = _traced_peak(lambda: generate_sbm((2000,) * 4, 0.01, 0.001, 4, 1.0, seed=1))
    assert peak < limit, f"generate_sbm at 8,000 nodes: {peak / 2**20:.1f} MB"
    g = generate_sbm((1000,) * 4, 0.05, 0.005, 16, 1.0, seed=2)
    e, f = tmp_path / "edges.tsv", tmp_path / "features.csv"
    write_graph(g, e, f)
    del g
    peak = _traced_peak(lambda: fit_communities(load_graph(e, f), 4, seed=3))
    assert peak < limit, f"load_graph and fit_communities at 4,000 nodes: {peak / 2**20:.1f} MB"
