import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2i import community
from g2i.community import (
    association_matrix,
    community_count,
    fit_communities,
    kmeans,
    kmeanspp_init,
)
from g2i.errors import BadArgument, DegenerateData
from g2i.graph import CSRMatrix, generate_sbm


def test_community_count_values():
    assert community_count(1) == 1
    assert community_count(1089) == 33
    assert community_count(5000) == 71
    assert community_count(64) == 8
    assert community_count(65) == 9


def test_community_count_invalid():
    with pytest.raises(ValueError):
        community_count(0)


class TestInit:
    def test_p1_is_some_row(self):
        rows = np.arange(12.0).reshape(4, 3)
        c = kmeanspp_init(rows, 1, seed=0)
        assert any(np.array_equal(c[0], r) for r in rows)

    def test_only_nonzero_candidate_wins(self):
        rows = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
        # whichever duplicate of (0,0) goes first, the only point at positive
        # distance is (10,0), so the seed set is always {(0,0), (10,0)}
        for seed in range(30):
            c = kmeanspp_init(rows, 2, seed=seed)
            got = {tuple(v) for v in c}
            assert got == {(0.0, 0.0), (10.0, 0.0)}

    def test_two_blobs_both_seeded(self):
        rng = np.random.default_rng(0)
        rows = np.concatenate([
            rng.normal(0.0, 0.1, (25, 2)),
            rng.normal(50.0, 0.1, (25, 2)),
        ])
        hits = 0
        for seed in range(1000):
            c = kmeanspp_init(rows, 2, seed=seed)
            if (c[:, 0] < 25).sum() == 1:
                hits += 1
        assert hits >= 990

    def test_degenerate_rows(self):
        with pytest.raises(DegenerateData):
            kmeanspp_init(np.ones((5, 2)), 2, seed=0)

    def test_deterministic(self):
        rows = np.random.default_rng(1).normal(size=(20, 4))
        a = kmeanspp_init(rows, 3, seed=42)
        b = kmeanspp_init(rows, 3, seed=42)
        assert np.array_equal(a, b)


class TestKmeans:
    def test_two_cliques_recovered(self):
        g = generate_sbm((10, 10), 1.0, 0.0, 4, 0.0, seed=0)
        model = fit_communities(g, 2, seed=1)
        a = model.assignment
        assert len(set(a[:10])) == 1 and len(set(a[10:])) == 1 and a[0] != a[10]

    def test_p_equals_n(self):
        rows = np.arange(10.0).reshape(5, 2)
        _, assignment, history = kmeans(rows, 5, seed=0)
        assert len(set(assignment)) == 5
        assert history[-1] == 0.0

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            rows = rng.normal(size=(40, 6))
            _, _, history = kmeans(rows, 4, seed=seed)
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-12

    def test_assignment_optimal_at_convergence(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(30, 5))
        centroids, assignment, _ = kmeans(rows, 3, seed=2)
        d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        own = np.take_along_axis(d2, assignment[:, None], axis=1)[:, 0]
        assert np.all(own <= d2.min(axis=1) + 1e-12)

    def test_permutation_equivariance(self):
        # same starting centroids on permuted rows must give the same
        # multiset of member sets
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(24, 24))
        init = kmeanspp_init(rows, 3, seed=7)
        _, a, _ = kmeans(rows, 3, seed=7, init_centroids=init)
        pi = rng.permutation(24)
        _, a_perm, _ = kmeans(rows[pi], 3, seed=7, init_centroids=init)
        original = {frozenset(np.flatnonzero(a == c).tolist()) for c in range(3)}
        mapped = {frozenset(pi[np.flatnonzero(a_perm == c)].tolist()) for c in range(3)}
        assert original == mapped

    @pytest.mark.parametrize("P, max_iter, name", [
        (0, 300, "P must be >= 1"),
        (-1, 300, "P must be >= 1"),
        (2, 0, "max_iter must be >= 1"),
    ])
    def test_bad_setting_is_named(self, P, max_iter, name):
        rows = np.arange(10.0).reshape(5, 2)
        with pytest.raises(BadArgument, match=name):
            kmeans(rows, P, seed=0, max_iter=max_iter)


class TestAssociation:
    def _model(self, centroids):
        from g2i.community import CommunityModel

        centroids = np.asarray(centroids, dtype=np.float64)
        return CommunityModel(
            P=centroids.shape[0], centroids=centroids,
            assignment=np.zeros(centroids.shape[0], dtype=np.int64),
            inertia_history=(), seed=0,
        )

    def test_hand_example(self):
        assoc = association_matrix(self._model([[0.0, 0.0], [3.0, 4.0]]))
        assert np.allclose(assoc.raw_distances, [[0, 5], [5, 0]])
        assert assoc.mu == pytest.approx(2.5)
        assert assoc.sigma == pytest.approx(2.5)
        assert np.allclose(assoc.values, [[-1, 1], [1, -1]])

    def test_p1_degenerate(self):
        assoc = association_matrix(self._model([[1.0, 2.0]]))
        assert assoc.sigma == 0.0
        assert np.array_equal(assoc.values, [[0.0]])

    def test_identical_centroids(self):
        assoc = association_matrix(self._model(np.ones((4, 3))))
        assert np.all(assoc.values == 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_zscore_contract(self, seed):
        rng = np.random.default_rng(seed)
        P = int(rng.integers(2, 7))
        assoc = association_matrix(self._model(rng.normal(size=(P, 4))))
        assert np.allclose(assoc.values, assoc.values.T, atol=1e-12)
        assert np.all(np.diag(assoc.raw_distances) == 0.0)
        if assoc.sigma > 0:
            assert abs(assoc.values.mean()) <= 1e-9
            assert abs(assoc.values.std() - 1.0) <= 1e-9
            assert abs(assoc.values.sum()) <= 1e-9 * P * P


# --- the whole-matrix k-means that the blocked passes replaced, as a reference ---

def _whole_sq_dists(rows, centroids):
    return (
        np.sum(rows**2, axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )


def _whole_kmeanspp_init(rows, P, seed):
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if np.unique(rows, axis=0).shape[0] < P:
        raise DegenerateData(f"fewer than P={P} distinct rows")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = np.sum((rows - rows[chosen[0]]) ** 2, axis=1)
    for _ in range(1, P):
        idx = int(rng.choice(n, p=d2 / d2.sum()))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((rows - rows[idx]) ** 2, axis=1))
    return rows[chosen].copy()


def _whole_kmeans(rows, P, seed, max_iter=300, init_centroids=None):
    rows = np.asarray(rows, dtype=np.float64)
    centroids = (_whole_kmeanspp_init(rows, P, seed) if init_centroids is None
                 else np.array(init_centroids, dtype=np.float64))
    assignment = None
    history = []
    for _ in range(max_iter):
        d2 = _whole_sq_dists(rows, centroids)
        new_assignment = np.argmin(d2, axis=1)
        history.append(float(np.take_along_axis(d2, new_assignment[:, None], axis=1).sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(P):
            members = rows[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                far = int(np.argmax(np.sum((rows - centroids[c]) ** 2, axis=1)))
                centroids[c] = rows[far]
    return centroids, assignment, history


def _whole_distances(C):
    D = np.sqrt(np.maximum(_whole_sq_dists(C, C), 0.0))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return D


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _matrices():
    """(name, rows): random, 0/1 and duplicate-row matrices, some with -0.0."""
    rng = np.random.default_rng(21)
    normal = rng.normal(size=(90, 70))
    sbm = generate_sbm((40, 40, 40), 0.3, 0.05, 4, 0.0, seed=3).csr.toarray()
    distinct = rng.normal(size=(9, 50)).round(1)       # rounding gives some -0.0
    duplicates = distinct[rng.integers(0, 9, size=80)]
    return [("normal", normal), ("sbm", sbm), ("duplicates", duplicates)]


class TestBlockedEqualsWholeMatrix:
    """The blocked passes give the bits of the whole-matrix code, with blocks
    of 7 rows, and with the default block size on an adjacency of several
    blocks."""

    def _seven_row_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(community, "_BLOCK_BYTES", 8 * rows.shape[1] * 7)
        assert len(community._blocks(rows)) > 1

    def test_default_blocks(self):
        rows = generate_sbm((150, 150, 150, 150), 0.1, 0.01, 4, 0.0, seed=2).csr.toarray()
        assert len(community._blocks(rows)) == 3
        got, ref = kmeans(rows, 8, 4), _whole_kmeans(rows, 8, 4)
        assert _bits_equal(got[0], ref[0]) and _bits_equal(got[1], ref[1]) and got[2] == ref[2]
        assert _bits_equal(kmeanspp_init(rows, 8, 5), _whole_kmeanspp_init(rows, 8, 5))

    @pytest.mark.parametrize("name, rows", _matrices(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("P", [1, 2, 3, 5, 8])
    def test_kmeanspp_init(self, monkeypatch, name, rows, P):
        self._seven_row_blocks(monkeypatch, rows)
        for seed in range(3):
            assert _bits_equal(kmeanspp_init(rows, P, seed), _whole_kmeanspp_init(rows, P, seed))

    @pytest.mark.parametrize("name, rows", _matrices(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("P", [1, 2, 3, 5, 8])
    def test_kmeans(self, monkeypatch, name, rows, P):
        self._seven_row_blocks(monkeypatch, rows)
        for seed in range(3):
            got, ref = kmeans(rows, P, seed), _whole_kmeans(rows, P, seed)
            assert _bits_equal(got[0], ref[0]) and _bits_equal(got[1], ref[1])
            assert got[2] == ref[2]

    @pytest.mark.parametrize("name, rows", _matrices(), ids=lambda v: v if isinstance(v, str) else "")
    def test_kmeans_from_centroids_in_the_rows_buffer(self, monkeypatch, name, rows):
        self._seven_row_blocks(monkeypatch, rows)
        # the same row twice leaves a community empty after the first update
        for init in (rows[:4], rows[[5, 5, 6, 7]], rows[::-1][:3]):
            got, ref = kmeans(rows, len(init), 0, init_centroids=init), \
                _whole_kmeans(rows, len(init), 0, init_centroids=init)
            assert _bits_equal(got[0], ref[0]) and _bits_equal(got[1], ref[1])
            assert got[2] == ref[2]

    @pytest.mark.parametrize("name, rows", _matrices(), ids=lambda v: v if isinstance(v, str) else "")
    def test_association_matrix(self, monkeypatch, name, rows):
        from g2i.community import CommunityModel

        self._seven_row_blocks(monkeypatch, rows)
        # centroids that are the rows' own buffer, and fitted centroids
        for C in (rows[:20], rows, kmeans(rows, 5, 0)[0]):
            model = CommunityModel(P=len(C), centroids=C, assignment=np.zeros(len(C), int),
                                   inertia_history=(), seed=0)
            D = _whole_distances(C)
            assoc = association_matrix(model)
            assert _bits_equal(assoc.raw_distances, D)
            assert assoc.mu == float(D.mean()) and assoc.sigma == float(D.std())
            assert _bits_equal(assoc.values, (D - D.mean()) / D.std())


class TestDistinctRows:
    def test_raises_exactly_when_unique_has_fewer_than_p_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            base = rng.integers(-1, 2, size=(int(rng.integers(1, 6)), 3)).astype(np.float64)
            rows = base[rng.integers(0, len(base), size=int(rng.integers(1, 12)))]
            rows[(rows == 0) & (rng.random(rows.shape) < 0.5)] = -0.0
            distinct = np.unique(rows, axis=0).shape[0]
            for P in range(1, len(rows) + 1):
                if distinct < P:
                    with pytest.raises(DegenerateData, match=f"fewer than P={P} distinct rows"):
                        kmeanspp_init(rows, P, seed=0)
                else:
                    assert kmeanspp_init(rows, P, seed=0).shape == (P, 3)


def test_kmeans_holds_no_matrix_sized_temporary():
    # numpy reports its buffers to tracemalloc; the 1000 x 1000 rows are made
    # before tracing starts, so the peak counts only what kmeans allocates
    rows = generate_sbm((250, 250, 250, 250), 0.1, 0.01, 4, 0.0, seed=0).csr.toarray()
    tracemalloc.start()
    try:
        kmeans(rows, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes / 4, f"{peak / 2**20:.2f} MB on {rows.nbytes / 2**20:.2f} MB rows"


class TestSparseEqualsDense:
    """kmeans and kmeanspp_init on a CSRMatrix give the centroids, assignment
    and iteration count of the same matrix dense, bit for bit. Only the
    inertia history may differ in the last bits: the sparse ``rows @ C.T``
    adds its products in another order than the dense product."""

    @staticmethod
    def _assert_same(sparse, dense):
        assert _bits_equal(sparse[0], dense[0]) and _bits_equal(sparse[1], dense[1])
        assert len(sparse[2]) == len(dense[2])

    @pytest.mark.parametrize("blocks", [(20, 20, 20), (40,) * 4, (60, 90, 75)])
    @pytest.mark.parametrize("P", [3, 4, 8])
    def test_sbm(self, blocks, P):
        for seed in range(12):
            csr = generate_sbm(blocks, 0.3, 0.05, 4, 0.0, seed=seed).csr
            dense = csr.toarray()
            self._assert_same(kmeans(csr, P, seed), kmeans(dense, P, seed))
            assert _bits_equal(kmeanspp_init(csr, P, seed), kmeanspp_init(dense, P, seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_weighted_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 160))
        upper = np.triu(rng.uniform(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < 0.15), 1)
        if seed % 2:
            upper = np.round(upper, 1)
        dense = upper + upper.T
        dense[int(rng.integers(n))] = 0.0          # an isolated node
        dense[:, int(rng.integers(n))] = 0.0
        dense = np.minimum(dense, dense.T)
        csr = CSRMatrix.from_dense(dense)
        for P in (2, 5, 9):
            self._assert_same(kmeans(csr, P, seed), kmeans(dense, P, seed))

    def test_from_centroids_with_an_emptied_community(self):
        csr = generate_sbm((30, 30, 30), 0.3, 0.05, 4, 0.0, seed=4).csr
        dense = csr.toarray()
        # the same row twice leaves a community empty after the first update
        for init in (dense[:4], dense[[5, 5, 6, 7]]):
            self._assert_same(kmeans(csr, len(init), 0, init_centroids=init),
                              kmeans(dense, len(init), 0, init_centroids=init))

    def test_distinct_rows_counted_alike(self):
        dense = np.zeros((6, 6))
        dense[0, 1] = dense[1, 0] = 2.0
        csr = CSRMatrix.from_dense(dense)     # rows 0 and 1 and four empty rows
        assert _bits_equal(kmeanspp_init(csr, 3, 0), kmeanspp_init(dense, 3, 0))
        with pytest.raises(DegenerateData, match="fewer than P=4 distinct rows"):
            kmeanspp_init(csr, 4, 0)
