import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2i.community import association_matrix, community_count, fit_communities
from g2i.errors import (BadMagic, DegenerateData, G2IError, LayoutMismatch, ShapeOverflow,
                        TruncatedFile)
from g2i.formats import read_named_tensors, write_named_tensors
from g2i.graph import generate_sbm
from g2i.imaging import (
    build_feature_layout,
    build_structural_layout,
    feature_association,
    read_tensor,
    render_all,
    write_tensor,
)


class TestAssociation:
    def test_self_correlation_one(self):
        F = np.random.default_rng(0).normal(size=(10, 3))
        C = feature_association(F)
        assert np.allclose(np.diag(C), 1.0)

    def test_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        F = np.column_stack([x, -x])
        C = feature_association(F)
        assert C[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_proportional_columns(self):
        F = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        C = feature_association(F)
        assert C[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_constant_column(self):
        F = np.column_stack([np.ones(5), np.arange(5.0)])
        C = feature_association(F)
        assert C[0, 1] == 0.0 and C[1, 0] == 0.0
        assert C[0, 0] == 1.0

    def test_bounds_and_symmetry(self):
        F = np.random.default_rng(1).normal(size=(20, 6))
        C = feature_association(F)
        assert np.all(C >= -1.0) and np.all(C <= 1.0)
        assert np.allclose(C, C.T, atol=1e-12)


class TestFeatureLayoutBuild:
    def test_k1(self):
        F = np.random.default_rng(0).normal(size=(6, 1))
        fl = build_feature_layout(F, seed=0)
        assert fl.tolist() == [[0, 0]]

    def test_k3_pads_one_dummy(self):
        F = np.random.default_rng(1).normal(size=(8, 3))
        fl = build_feature_layout(F, seed=0)
        assert fl.shape == (3, 2) and fl.min() >= 0 and fl.max() <= 1   # a 2 x 2 grid
        assert len(np.unique(fl, axis=0)) == 3

    def test_correlated_pairs_adjacent(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        F = np.column_stack([a, a + rng.normal(0, 1e-3, 50),
                             b, b + rng.normal(0, 1e-3, 50)])
        fl = build_feature_layout(F, seed=0)
        cells = fl.tolist()

        def adjacent(u, v):
            return abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1

        assert adjacent(cells[0], cells[1])
        assert adjacent(cells[2], cells[3])

    def test_deterministic(self):
        F = np.random.default_rng(3).normal(size=(12, 5))
        a = build_feature_layout(F, seed=9)
        b = build_feature_layout(F, seed=9)
        assert np.array_equal(a, b)


def _fixture(seed=0, blocks=(8, 8), k=4, signal=1.0):
    g = generate_sbm(blocks, 0.9, 0.05, k, signal, seed=seed)
    P = community_count(g.k)
    model = fit_communities(g, P, seed=seed)
    assoc = association_matrix(model)
    s_layout = build_structural_layout(assoc, seed=seed)
    f_layout = build_feature_layout(g.features, seed=seed)
    return g, model, assoc, s_layout, f_layout


class TestStructuralLayoutBuild:
    def test_p1(self):
        from g2i.community import CommunityModel

        model = CommunityModel(P=1, centroids=np.zeros((1, 3)),
                               assignment=np.zeros(3, dtype=np.int64),
                               inertia_history=())
        s = build_structural_layout(association_matrix(model), seed=0)
        assert s.tolist() == [[0, 0]]

    def test_deterministic(self):
        _, _, assoc, _, _ = _fixture(seed=4)
        a = build_structural_layout(assoc, seed=5)
        b = build_structural_layout(assoc, seed=5)
        assert np.array_equal(a, b)

    def test_injective(self):
        _, _, assoc, s_layout, _ = _fixture(seed=1)
        assert len(np.unique(s_layout, axis=0)) == len(s_layout)


class TestRender:
    def test_channel_count_and_shape(self):
        g, model, _, s_layout, f_layout = _fixture()
        images = render_all(g, model, s_layout, [f_layout], [g.features])
        P = community_count(g.k)
        assert images.tensors[0].shape == (2, P, P)
        assert images.channel_names[0] == "structure"

    def test_same_community_same_structural_channel(self):
        g, model, _, s_layout, f_layout = _fixture()
        a = model.assignment
        pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if a[i] == a[j]]
        i, j = pairs[0]
        tensors = render_all(g, model, s_layout, [f_layout], [g.features]).tensors
        assert np.array_equal(tensors[i, 0], tensors[j, 0])

    def test_feature_cells_hold_raw_values(self):
        g, model, _, s_layout, f_layout = _fixture()
        node = 3
        tensors = render_all(g, model, s_layout, [f_layout], [g.features]).tensors
        for j, (r, c) in enumerate(f_layout.tolist()):
            assert tensors[node, 1, r, c] == np.float32(g.features[node, j])

    def test_feature_channel_sum_identity(self):
        g, model, _, s_layout, f_layout = _fixture()
        tensors = render_all(g, model, s_layout, [f_layout], [g.features]).tensors
        expected = g.features[2].astype(np.float32).astype(np.float64).sum()
        assert tensors[2, 1].astype(np.float64).sum() == pytest.approx(expected, abs=1e-5)

    def test_structural_block_centered(self):
        # P=4 feature grid with a 2x2 structural grid sits at rows/cols 1..2
        g = generate_sbm((10, 10), 0.9, 0.05, 16, 1.0, seed=2)
        model = fit_communities(g, 4, seed=2)
        assoc = association_matrix(model)
        s_layout = build_structural_layout(assoc, seed=2)
        f_layout = build_feature_layout(g.features, seed=2)
        assert community_count(g.k) == 4 and community_count(model.P) == 2
        structural = render_all(g, model, s_layout, [f_layout], [g.features]).tensors[0, 0]
        assert np.all(structural[0, :] == 0) and np.all(structural[3, :] == 0)
        assert np.all(structural[:, 0] == 0) and np.all(structural[:, 3] == 0)
        Z = assoc.values
        c_own = int(model.assignment[0])
        inner = structural[1:3, 1:3].astype(np.float64)
        expected = np.zeros((2, 2))
        for comm, (r, c) in enumerate(s_layout.tolist()):
            expected[r, c] = Z[c_own, comm]
        assert np.allclose(inner, expected.astype(np.float32))

    def test_minimal_1x1(self):
        from g2i.community import CommunityModel

        g = generate_sbm((3, 3), 0.9, 0.1, 1, 0.0, seed=0)
        model = CommunityModel(P=1, centroids=g.csr.toarray()[:1].copy(),
                               assignment=np.zeros(g.n, dtype=np.int64),
                               inertia_history=())
        assoc = association_matrix(model)
        s_layout = build_structural_layout(assoc, seed=0)
        f_layout = build_feature_layout(g.features, seed=0)
        tensors = render_all(g, model, s_layout, [f_layout], [g.features]).tensors
        assert tensors[1].shape == (2, 1, 1)
        assert tensors[1, 0, 0, 0] == 0.0
        assert tensors[1, 1, 0, 0] == np.float32(g.features[1, 0])

    def test_layout_mismatch(self):
        g, model, _, s_layout, f_layout = _fixture()
        wrong = np.array([[0, 0]])
        with pytest.raises(LayoutMismatch):
            render_all(g, model, s_layout, [wrong], [g.features])

    def test_render_all_order_and_labels(self):
        g, model, _, s_layout, f_layout = _fixture()
        image_set = render_all(g, model, s_layout, [f_layout])
        assert len(image_set.tensors) == g.n
        assert list(image_set.node_ids) == list(g.node_ids)
        assert np.array_equal(image_set.labels, g.labels)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g, model, _, s_layout, f_layout = _fixture()
        image_set = render_all(g, model, s_layout, [f_layout])
        path = tmp_path / "imgs.g2t"
        write_tensor(image_set, path)
        loaded = read_tensor(path)
        assert len(loaded.tensors) == len(image_set.tensors)
        assert loaded.node_ids == image_set.node_ids
        assert np.array_equal(loaded.tensors, image_set.tensors)
        assert loaded.channel_names == image_set.channel_names
        assert np.array_equal(image_set.labels, loaded.labels)

    def test_write_is_deterministic(self, tmp_path):
        g, model, _, s_layout, f_layout = _fixture()
        image_set = render_all(g, model, s_layout, [f_layout])
        p1, p2 = tmp_path / "a.g2t", tmp_path / "b.g2t"
        write_tensor(image_set, p1)
        write_tensor(image_set, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.g2t"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        g, model, _, s_layout, f_layout = _fixture()
        image_set = render_all(g, model, s_layout, [f_layout])
        path = tmp_path / "full.g2t"
        write_tensor(image_set, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.g2t"
        cut.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedFile):
            read_tensor(cut)

    def test_hand_built_minimal_file(self, tmp_path):
        import struct

        # one 1x1x1 image named "x", label 7, single value 2.5, channel "c"
        payload = b"G2IM"
        payload += struct.pack("<HI", 1, 1)
        payload += struct.pack("<H", 1) + b"x"
        payload += struct.pack("<iB", 7, 3)
        payload += struct.pack("<3I", 1, 1, 1)
        payload += struct.pack("<f", 2.5)
        payload += struct.pack("<H", 1)
        payload += struct.pack("<H", 1) + b"c"
        path = tmp_path / "mini.g2t"
        path.write_bytes(payload)
        loaded = read_tensor(path)
        assert loaded.node_ids[0] == "x"
        assert loaded.labels[0] == 7
        assert loaded.tensors[0, 0, 0, 0] == np.float32(2.5)
        assert loaded.channel_names == ("c",)

    def test_mixed_image_shapes_rejected(self, tmp_path):
        import struct

        # two images, 1x1x1 and 1x2x2, which cannot form one image array
        payload = b"G2IM" + struct.pack("<HI", 1, 2)
        for name, side in ((b"a", 1), (b"b", 2)):
            payload += struct.pack("<H", 1) + name
            payload += struct.pack("<iB", 0, 3) + struct.pack("<3I", 1, side, side)
            payload += struct.pack(f"<{side * side}f", *([1.0] * side * side))
        payload += struct.pack("<H", 0)
        path = tmp_path / "mixed.g2t"
        path.write_bytes(payload)
        with pytest.raises(G2IError, match="mixed.g2t"):
            read_tensor(path)

    @pytest.mark.parametrize("labels, node, label", [
        ([0, -1, 1, -1], "n1", -1),     # unlabeled nodes among labeled ones
        ([-1, -1, -2], "n2", -2),
        ([1, -3, 0], "n1", -3),
    ])
    def test_mixed_or_negative_labels_name_file_and_node(self, tmp_path, labels, node, label):
        path = tmp_path / "images.g2t"
        write_named_tensors([(f"n{i}", lab, np.ones((1, 2, 2))) for i, lab in enumerate(labels)],
                            ("structure",), path)
        with pytest.raises(G2IError, match=f"images.g2t: node '{node}' has label {label};"):
            read_tensor(path)

    def test_named_tensor_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [("w", -1, rng.normal(size=(3, 4)).astype(np.float32)),
                   ("b", -1, rng.normal(size=(5,)).astype(np.float32))]
        path = tmp_path / "t.g2t"
        write_named_tensors(entries, ("ch",), path)
        loaded, names = read_named_tensors(path)
        assert names == ("ch",)
        for (n1, l1, a1), (n2, l2, a2) in zip(entries, loaded):
            assert n1 == n2 and l1 == l2
            assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file_and_tensor(self, tmp_path, value):
        # the empty tensor "b" ends where "c" begins
        c = np.ones(4)
        c[0] = value
        path = tmp_path / "t.g2t"
        write_named_tensors([("a", -1, np.ones((2, 3))), ("b", -1, np.zeros(0)), ("c", -1, c)],
                            (), path)
        with pytest.raises(DegenerateData, match=f"t.g2t: c holds NaN or infinite values$"):
            read_named_tensors(path)

    def test_entries_keep_shapes_around_empty_tensors(self, tmp_path):
        entries = [("a", 0, np.zeros((0, 3))), ("b", 1, np.arange(6.0).reshape(2, 3)),
                   ("c", 2, np.zeros(0))]
        path = tmp_path / "t.g2t"
        write_named_tensors(entries, (), path)
        loaded, _ = read_named_tensors(path)
        assert [(n, l, a.shape) for n, l, a in loaded] == [("a", 0, (0, 3)), ("b", 1, (2, 3)),
                                                          ("c", 2, (0,))]
        assert np.array_equal(loaded[1][2], entries[1][2])

    def test_payloads_are_the_float32_bytes_with_no_copy(self, tmp_path):
        rng = np.random.default_rng(9)
        wide = rng.normal(size=(6, 10))
        cases = [("float64", wide), ("non-contiguous", wide.astype(np.float32)[:, ::3]),
                 ("float32", wide.astype(np.float32))]
        path = tmp_path / "t.g2t"
        for what, arr in cases:     # the second overwrites a longer file
            write_named_tensors([("a", 3, arr)], (), path)
            payload = np.ascontiguousarray(arr, dtype=np.float32).tobytes()
            head = b"G2IM" + struct.pack("<HIH", 1, 1, 1) + b"a" + struct.pack("<iB2I", 3, 2,
                                                                               *arr.shape)
            assert path.read_bytes() == head + payload + struct.pack("<H", 0), what
        # a float32 payload goes to the file from its own buffer
        big = rng.normal(size=(1024, 1024)).astype(np.float32)     # 4 MB
        tracemalloc.start()
        try:
            write_named_tensors([("big", -1, big)], (), tmp_path / "big.g2t")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert (tmp_path / "big.g2t").stat().st_size == big.nbytes + 30


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """A directory of small files laid out as g2i writes centroids.g2t,
    images.g2t and checkpoint.g2t."""
    directory = tmp_path_factory.mktemp("containers")
    rng = np.random.default_rng(3)
    write_named_tensors([("centroids", -1, rng.normal(size=(4, 6)))], (),
                        directory / "centroids.g2t")
    write_named_tensors([(f"node{i}", i % 2, rng.normal(size=(2, 3, 3))) for i in range(3)],
                        ("structure", "modality0"), directory / "images.g2t")
    write_named_tensors([("conv0_w", -1, rng.normal(size=(2, 2, 3, 3))),
                         ("conv0_b", -1, np.zeros(2)),
                         ("fc0_w", -1, rng.normal(size=(2, 18))),
                         ("fc0_b", -1, np.zeros(2))], (), directory / "checkpoint.g2t")
    return directory


class TestMutatedContainers:
    """A damaged container file ends as a G2IError that names the file and
    the byte, never as a raw numpy or decoding error."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_read_tensor_returns_or_raises_g2ierror(self, containers, data):
        name = data.draw(st.sampled_from(["centroids.g2t", "images.g2t", "checkpoint.g2t"]))
        raw = bytearray((containers / name).read_bytes())
        edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for pos, value in data.draw(st.lists(edits, min_size=1, max_size=4)):
            raw[pos] = value
        path = containers / "mutated.g2t"
        path.write_bytes(bytes(raw[: data.draw(st.integers(4, len(raw)))]))
        try:
            read_tensor(path)
        except G2IError as exc:
            assert str(path) in str(exc)

    # centroids.g2t: a 9-byte name at byte 12, its label at 21, its dimension
    # count at 25. 65 zero dimensions make an empty tensor, and 65536**4 wraps
    # an int64 product to 0, which would pass the size check.
    @pytest.mark.parametrize("offset, patch, error, message", [
        (12, b"\xff", BadMagic, r"tensor name at byte 12 is not UTF-8"),
        (25, b"\x41" + bytes(65 * 4), ShapeOverflow,
         r"tensor 'centroids' at byte 10 has 65 dimensions"),
        (25, b"\x04" + (65536).to_bytes(4, "little") * 4, ShapeOverflow,
         r"tensor 'centroids' at byte 10 has shape \(65536, 65536, 65536, 65536\), too large"),
    ], ids=["non-utf8-name", "65-dimensions", "wrapping-shape"])
    def test_named_error(self, containers, offset, patch, error, message):
        raw = bytearray((containers / "centroids.g2t").read_bytes())
        raw[offset : offset + len(patch)] = patch
        path = containers / "edited.g2t"
        path.write_bytes(bytes(raw))
        with pytest.raises(error, match=f"edited.g2t: {message}"):
            read_named_tensors(path)


class TestMultiModality:
    def test_channel_count(self):
        g, model, _, s_layout, f_layout = _fixture()
        rng = np.random.default_rng(5)
        F2 = rng.normal(size=(g.n, 3))
        fl2 = build_feature_layout(F2, seed=0, grid_side=community_count(g.k))
        image_set = render_all(g, model, s_layout, [f_layout, fl2],
                               modalities=[g.features, F2])
        assert image_set.tensors.shape[1] == 3
